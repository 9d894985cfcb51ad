//! Smoke coverage for every figure/table binary.
//!
//! Each experiment binary is executed at `--smoke` scale (tiny windows,
//! coarse searches — see `SearchOptions::smoke`) and must exit cleanly
//! with non-trivial output. The numbers are meaningless at this scale;
//! the point is that figure-regeneration code cannot silently rot while
//! the rest of the workspace moves on.
//!
//! Cargo builds the binaries alongside integration tests and exposes
//! their paths through `CARGO_BIN_EXE_<name>`, so this needs no path
//! guessing and works under any target dir.

use std::process::Command;

fn run_smoke(name: &str, exe: &str) {
    let out = Command::new(exe)
        .args(["--smoke", "--seed", "1"])
        .output()
        .unwrap_or_else(|e| panic!("{name}: failed to spawn {exe}: {e}"));
    assert!(
        out.status.success(),
        "{name} exited with {:?}\n--- stdout ---\n{}\n--- stderr ---\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.lines().count() >= 5,
        "{name} produced suspiciously little output:\n{stdout}"
    );
    assert!(
        stdout.contains("mode: smoke"),
        "{name} ignored --smoke (header says otherwise):\n{stdout}"
    );
}

macro_rules! bin_smoke_tests {
    ($($test_name:ident => $bin:literal),+ $(,)?) => {
        $(
            #[test]
            fn $test_name() {
                run_smoke($bin, env!(concat!("CARGO_BIN_EXE_", $bin)));
            }
        )+
    };
}

/// The serving figures also run their `--real` cross-validation
/// sections at smoke scale: the multi-tenant stream bit-exact against
/// virtual time, the sharded run CTR-identical to the unsharded
/// forward, and the tail-anatomy spans bit-exact per query. The assertions live in the binaries; rotting either path
/// fails here.
#[test]
fn real_mode_smokes() {
    for (name, exe) in [
        ("fig_multitenant", env!("CARGO_BIN_EXE_fig_multitenant")),
        (
            "fig_sharded_capacity",
            env!("CARGO_BIN_EXE_fig_sharded_capacity"),
        ),
        ("fig_tail_anatomy", env!("CARGO_BIN_EXE_fig_tail_anatomy")),
        ("fig_fleet_pulse", env!("CARGO_BIN_EXE_fig_fleet_pulse")),
    ] {
        let out = Command::new(exe)
            .args(["--smoke", "--seed", "1", "--real"])
            .output()
            .unwrap_or_else(|e| panic!("{name}: failed to spawn {exe}: {e}"));
        assert!(
            out.status.success(),
            "{name} --real exited with {:?}\n--- stdout ---\n{}\n--- stderr ---\n{}",
            out.status.code(),
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("Real-engine cross-validation"),
            "{name} ignored --real:\n{stdout}"
        );
    }
}

bin_smoke_tests! {
    fig01_roofline => "fig01_roofline",
    fig03_op_breakdown => "fig03_op_breakdown",
    fig04_gpu_speedup => "fig04_gpu_speedup",
    fig05_query_sizes => "fig05_query_sizes",
    fig06_query_time_split => "fig06_query_time_split",
    fig07_subsampling => "fig07_subsampling",
    fig09_batch_sweep => "fig09_batch_sweep",
    fig10_threshold_sweep => "fig10_threshold_sweep",
    fig11_headline => "fig11_headline",
    fig12_parallelism => "fig12_parallelism",
    fig13_production => "fig13_production",
    fig13_online_tuning => "fig13_online_tuning",
    fig14_gpu_tradeoff => "fig14_gpu_tradeoff",
    fig_cluster_routing => "fig_cluster_routing",
    fig_fleet_pulse => "fig_fleet_pulse",
    fig_multitenant => "fig_multitenant",
    fig_sharded_capacity => "fig_sharded_capacity",
    fig_tail_anatomy => "fig_tail_anatomy",
    probe_capacity => "probe_capacity",
    table1_models => "table1_models",
    table2_sla => "table2_sla",
}
