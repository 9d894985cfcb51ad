//! Regenerates **Table II**: measured runtime bottleneck class and SLA
//! target per model.
//!
//! The bottleneck is *measured*, not asserted: each model runs for real
//! on the host CPU at batch 64 and the per-operator wall-clock profile
//! is classified with the same rules the paper uses for its labels.
//! That half of the table prints under the `# measured: ` prefix; each
//! model's paper label and SLA target print as a plain table.

use deeprecsys::engine::profile_operators;
use deeprecsys::models::characterize::classify_bottleneck;
use deeprecsys::prelude::*;
use deeprecsys::table::TextTable;
use rand::SeedableRng;

fn main() {
    let opts = drs_bench::parse_args();
    drs_bench::header(
        "Table II — runtime bottleneck + SLA target",
        "RMC1/RMC2 embedding dominated; RMC3/NCF/WND/MT-WND MLP dominated; \
         DIN embedding+attention; DIEN attention-based GRU; SLA targets 5-400 ms",
        &opts,
    );

    // Real execution: default scale stresses DRAM on embedding gathers;
    // quick mode uses tiny weights (classification of the clear-cut
    // models is unchanged, DLRM variants may lean MLP when their tables
    // fit in cache — noted in EXPERIMENTS.md).
    let scale = if opts.full() {
        ModelScale::default_scale()
    } else {
        ModelScale::tiny()
    };
    let iters = opts.pick(5, 2, 1);

    let mut t = TextTable::new(vec!["Model", "Paper label", "SLA target (ms)"]);
    let mut measured_t = TextTable::new(vec!["Model", "Measured bottleneck", "Match"]);
    for cfg in zoo::all() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let model = RecModel::instantiate(&cfg, scale, &mut rng);
        let prof = profile_operators(&model, 64, iters, 11);
        let measured = classify_bottleneck(&prof.fractions());
        let matches = measured == cfg.paper_bottleneck
            || (measured.contains("MLP") && cfg.paper_bottleneck.contains("MLP"))
            || (measured.contains("Embedding") && cfg.paper_bottleneck.contains("Embedding"))
            || (measured.contains("GRU") && cfg.paper_bottleneck.contains("GRU"));
        t.row(vec![
            cfg.name.to_string(),
            cfg.paper_bottleneck.to_string(),
            format!("{}", cfg.sla_ms),
        ]);
        measured_t.row(vec![
            cfg.name.to_string(),
            measured.to_string(),
            if matches { "yes".into() } else { "no".into() },
        ]);
    }
    println!("{t}");
    drs_bench::print_measured(measured_t);
}
