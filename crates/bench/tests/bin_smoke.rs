//! Smoke coverage and byte-identical output for every figure/table
//! binary.
//!
//! Each experiment binary is executed at `--smoke --seed 1` (tiny
//! windows, coarse searches — see `SearchOptions::smoke`). The
//! deterministic ones must print exactly `tests/golden/<bin>.txt`: the
//! goldens were dumped from the code before the serving loops were
//! unified and are never regenerated for a refactor, so a change that
//! moves any figure byte fails here. Two binaries print wall-measured
//! numbers (`fig03_op_breakdown`'s operator shares, `table2_sla`'s
//! measured-bottleneck columns, both from `profile_operators`) and keep
//! shape checks only.
//!
//! Cargo builds the binaries alongside integration tests and exposes
//! their paths through `CARGO_BIN_EXE_<name>`, so this needs no path
//! guessing and works under any target dir.

use std::process::Command;

fn run_smoke(name: &str, exe: &str) -> String {
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
    String::from_utf8(out.stdout).unwrap_or_else(|e| panic!("{name}: stdout is not UTF-8: {e}"))
}

/// Shape checks for a binary whose output carries wall-measured numbers.
fn check_shape(name: &str, stdout: &str) {
    assert!(
        stdout.lines().count() >= 5,
        "{name} produced suspiciously little output:\n{stdout}"
    );
    assert!(
        stdout.contains("mode: smoke"),
        "{name} ignored --smoke (header says otherwise):\n{stdout}"
    );
}

/// Byte-for-byte comparison against the checked-in golden; on a
/// mismatch, prints the first differing lines of both.
fn check_golden(name: &str, stdout: &str, golden: &str) {
    if stdout == golden {
        return;
    }
    const CONTEXT: usize = 6;
    let (got, want): (Vec<&str>, Vec<&str>) = (stdout.lines().collect(), golden.lines().collect());
    let first = (0..got.len().max(want.len()))
        .find(|&i| got.get(i) != want.get(i))
        .unwrap_or(got.len().min(want.len()));
    let mut report = format!(
        "{name}: stdout differs from tests/golden/{name}.txt at line {}\n",
        first + 1
    );
    for i in first..(first + CONTEXT).min(got.len().max(want.len())) {
        if let Some(w) = want.get(i) {
            report.push_str(&format!("-{w}\n"));
        }
        if let Some(g) = got.get(i) {
            report.push_str(&format!("+{g}\n"));
        }
    }
    if got.len() == want.len() && first == got.len() {
        report.push_str("(lines agree; the trailing newline differs)\n");
    }
    panic!("{report}");
}

macro_rules! golden_tests {
    ($($test_name:ident => $bin:literal),+ $(,)?) => {
        $(
            #[test]
            fn $test_name() {
                let stdout = run_smoke($bin, env!(concat!("CARGO_BIN_EXE_", $bin)));
                let golden = include_str!(concat!("golden/", $bin, ".txt"));
                check_golden($bin, &stdout, golden);
            }
        )+
    };
}

macro_rules! shape_tests {
    ($($test_name:ident => $bin:literal),+ $(,)?) => {
        $(
            #[test]
            fn $test_name() {
                let stdout = run_smoke($bin, env!(concat!("CARGO_BIN_EXE_", $bin)));
                check_shape($bin, &stdout);
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

shape_tests! {
    fig03_op_breakdown => "fig03_op_breakdown",
    table2_sla => "table2_sla",
}

golden_tests! {
    fig01_roofline => "fig01_roofline",
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
}
