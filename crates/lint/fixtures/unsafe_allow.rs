//! `unsafe-audit` allowlisted twin — the same sites as
//! `unsafe_trip.rs`, each silenced with `lint:allow(unsafe-audit)`;
//! must produce zero findings.

struct Handle(*mut u8);

fn peek(h: &Handle) -> u8 {
    // lint:allow(unsafe-audit)
    unsafe { *h.0 }
}

// SAFETY: the pointer is only dereferenced by the owning thread.
unsafe impl Send for Handle {} // lint:allow(unsafe-audit)
