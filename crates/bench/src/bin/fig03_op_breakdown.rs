//! Regenerates **Figure 3**: operator time breakdown per model at batch
//! size 64, measured by really executing each model on the host CPU.
//! Every row is a wall-clock profile, so the table prints under the
//! `# measured: ` prefix.

use deeprecsys::engine::profile_operators;
use deeprecsys::prelude::*;
use deeprecsys::table::TextTable;
use rand::SeedableRng;

fn main() {
    let opts = drs_bench::parse_args();
    drs_bench::header(
        "Figure 3 — operator breakdown @ batch 64 (real execution)",
        "RMC1/RMC2 dominated by embedding lookups; RMC3/NCF/WND/MT-WND by FC \
         layers; DIN split across attention/embedding/FC; DIEN by recurrent layers",
        &opts,
    );

    // --full uses realistically sized tables (DRAM-resident gathers);
    // quick mode keeps tables tiny so the sweep finishes in seconds.
    let scale = if opts.full() {
        ModelScale::default_scale()
    } else {
        ModelScale::tiny()
    };
    let iters = opts.pick(5, 2, 1);

    let mut t = TextTable::new(vec![
        "model",
        "DenseFC",
        "PredictFC",
        "Embedding",
        "Attention",
        "Recurrent",
        "Interaction",
        "dominant",
    ]);
    for cfg in zoo::all() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let model = RecModel::instantiate(&cfg, scale, &mut rng);
        let prof = profile_operators(&model, 64, iters, 17);
        let fr = prof.fractions();
        let (dom, share) = prof.dominant().expect("profiled");
        let mut row = vec![cfg.name.to_string()];
        row.extend(fr.iter().map(|f| format!("{:.1}%", f * 100.0)));
        row.push(format!("{dom} ({:.0}%)", share * 100.0));
        t.row(row);
    }
    drs_bench::print_measured(t);
}
