//! Zoo-level bit fence: the CTRs of all eight models, bit for bit.
//!
//! `golden/ctr_bits.txt` was dumped from the tree *before* the packed
//! GEMM kernel replaced the i-k-j loop, so this suite proves a kernel
//! change end to end without access to any reference kernel: FC stacks,
//! the attention scorer, `GruCell` and `AuGru` (which no benchmark
//! workload executes) all feed the compared bits. The batch sizes cover
//! every row-tail shape of a 4-row micro-kernel plus a full 64-item
//! batch.
//!
//! A kernel change must never regenerate the file. Only a change to
//! the zoo's shapes or to the RNG stream legitimately moves these bits;
//! `cargo test -p drs-models --test ctr_bits_golden -- --ignored`
//! rewrites it then.

use drs_models::{zoo, ModelScale, RecModel};
use drs_nn::OpProfiler;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("golden/ctr_bits.txt");
const BATCHES: [usize; 6] = [1, 3, 4, 5, 9, 64];

/// One line per (model, batch): `name batch bits bits …`, the bits in
/// hex. `sharded` routes the lookups through `forward_sharded` over two
/// round-robin shards instead of `forward`.
fn dump(sharded: bool) -> String {
    let mut text = String::new();
    for cfg in zoo::all() {
        let mut rng = StdRng::seed_from_u64(2020);
        let model = RecModel::instantiate(&cfg, ModelScale::tiny(), &mut rng);
        let assignment: Vec<usize> = (0..cfg.tables.len()).map(|t| t % 2).collect();
        let set = sharded.then(|| model.sharded_embeddings(&assignment));
        for batch in BATCHES {
            let mut in_rng = StdRng::seed_from_u64(1000 + batch as u64);
            let inputs = model.generate_inputs(batch, &mut in_rng);
            let mut prof = OpProfiler::new();
            let ctrs = match &set {
                Some(set) => model.forward_sharded(&inputs, set, &mut prof),
                None => model.forward(&inputs, &mut prof),
            };
            write!(text, "{} {batch}", cfg.name).unwrap();
            for c in ctrs {
                write!(text, " {:08x}", c.to_bits()).unwrap();
            }
            text.push('\n');
        }
    }
    text
}

fn assert_matches_golden(got: &str, path: &str) {
    assert_eq!(
        got.lines().count(),
        GOLDEN.lines().count(),
        "{path}: line count differs from the golden"
    );
    for (g, w) in got.lines().zip(GOLDEN.lines()) {
        assert_eq!(g, w, "{path}: CTR bits drifted from the golden");
    }
}

#[test]
fn forward_reproduces_every_ctr_bit() {
    assert_matches_golden(&dump(false), "forward");
}

#[test]
fn forward_sharded_reproduces_every_ctr_bit() {
    assert_matches_golden(&dump(true), "forward_sharded");
}

#[test]
#[ignore = "rewrites the golden; see the module docs for when that is legitimate"]
fn regenerate_golden() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/ctr_bits.txt");
    std::fs::write(path, dump(false)).expect("write golden");
}
