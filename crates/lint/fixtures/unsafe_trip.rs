//! `unsafe-audit` fixture — must trip three times: a block with no
//! justification (and, like everything here, outside the audited
//! files: two findings), and an `unsafe impl` whose `// SAFETY:`
//! comment is present but cannot excuse the file it sits in (one).

struct Handle(*mut u8);

fn peek(h: &Handle) -> u8 {
    unsafe { *h.0 }
}

// SAFETY: the pointer is only dereferenced by the owning thread.
unsafe impl Send for Handle {}
