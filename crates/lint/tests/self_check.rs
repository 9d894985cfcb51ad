//! The analyzer against reality: the shipped workspace must be
//! finding-free, and a deliberately seeded violation must fail the
//! gate — the same property CI relies on. One seeded violation per
//! taint rule (R7/R8/R9) plus the stale-allow audit and the JSON
//! round-trip, and a seeded `unsafe` for the unsafe-audit rule.

use drs_lint::rules::RuleId;
use drs_lint::workspace::{analyze_workspace, parse_report_json, report_json};
use std::fs;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

/// Build a scratch one-crate workspace under a unique temp dir and
/// run the full analyzer over it.
fn scratch_scan(tag: &str, crate_name: &str, lib_rs: &str) -> drs_lint::workspace::Report {
    let root = std::env::temp_dir().join(format!("drs-lint-{tag}-{}", std::process::id()));
    let member = root.join("crates").join("m");
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(member.join("src")).expect("scratch workspace");
    fs::write(
        member.join("Cargo.toml"),
        format!("[package]\nname = \"{crate_name}\"\nversion = \"0.0.0\"\n\n[lints]\nworkspace = true\n"),
    )
    .expect("manifest");
    fs::write(
        member.join("src").join("lib.rs"),
        format!("#![warn(missing_docs)]\n//! Seeded violation.\n{lib_rs}"),
    )
    .expect("seeded source");
    let report = analyze_workspace(&root).expect("scratch scan");
    fs::remove_dir_all(&root).expect("scratch cleanup");
    report
}

/// The acceptance gate itself: `cargo run -p drs-lint -- --check`
/// exits 0 on the workspace as shipped.
#[test]
fn shipped_workspace_is_finding_free() {
    let report = analyze_workspace(&repo_root()).expect("workspace scan");
    assert!(
        report.findings.is_empty(),
        "workspace must be finding-free, got:\n{}",
        report
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        report.files_scanned > 50,
        "the scan must actually cover the workspace, saw {} files",
        report.files_scanned
    );
    assert!(report.crates.iter().any(|c| c == "drs-sim"));
    assert!(report.crates.iter().any(|c| c == "drs-server"));
    assert!(
        report.callgraph_edges > 1000,
        "workspace call graph looks implausibly small: {} edges",
        report.callgraph_edges
    );
}

/// The machine-readable report round-trips through the parser: same
/// schema, same counts, same findings.
#[test]
fn json_report_round_trips_on_the_real_workspace() {
    let report = analyze_workspace(&repo_root()).expect("workspace scan");
    let json = report_json(&report);
    let parsed = parse_report_json(&json).expect("round-trip parse");
    assert_eq!(parsed.schema, 2);
    assert_eq!(parsed.count as usize, report.findings.len());
    assert_eq!(parsed.findings.len(), report.findings.len());
    assert_eq!(parsed.files_scanned as usize, report.files_scanned);
    assert_eq!(parsed.callgraph_edges as usize, report.callgraph_edges);
    assert_eq!(parsed.crates, report.crates);
}

/// Seeding a `for`-over-`HashMap` into a determinism-critical crate
/// must produce an unallowlisted finding (i.e. the CI gate fails).
/// Runs against a scratch mini-workspace so the real sources stay
/// untouched.
#[test]
fn seeded_violation_fails_the_gate() {
    let report = scratch_scan(
        "selfcheck",
        "drs-server",
        "use std::collections::HashMap;\n\
         fn replay(queries: &HashMap<u64, u32>) {\n\
             for (id, q) in queries {\n        serve(id, q);\n    }\n}\n",
    );
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.rule == RuleId::HashIter && f.path.ends_with("lib.rs")),
        "seeded for-over-HashMap must trip hash-iter, got {:?}",
        report.findings
    );

    // The machine-readable report carries the same findings.
    let json = report_json(&report);
    assert!(json.contains("\"rule\": \"hash-iter\""), "{json}");
    assert!(json.contains("\"schema\": 2"), "{json}");
}

/// An unguarded `pulse.<record>(..)` seeded into a metrics-guard
/// crate must fail the gate — NoopMetrics only compiles the fleet
/// pulse out when every record site sits behind `M::ENABLED`.
#[test]
fn seeded_pulse_violation_fails_the_gate() {
    let report = scratch_scan(
        "pulse",
        "drs-server",
        "fn sample<M: MetricsSink>(pulse: &mut M, depth: usize) {\n\
             pulse.gauge(\"queue_depth_n0\", depth as f64);\n}\n",
    );
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.rule == RuleId::MetricsGuard && f.path.ends_with("lib.rs")),
        "seeded unguarded pulse.gauge must trip metrics-guard, got {:?}",
        report.findings
    );
}

/// R7 seeded violation: a wall-clock read that travels through two
/// helper calls before landing in an exported report field must trip
/// `clock-taint`, and the finding must name the *source* —
/// `Instant::now` — not just the sink line.
#[test]
fn seeded_clock_taint_violation_fails_the_gate() {
    let report = scratch_scan(
        "clocktaint",
        "drs-sim",
        "fn wall_ns() -> u64 {\n\
             let t0 = Instant::now();\n\
             t0.elapsed().as_nanos() as u64\n}\n\
         fn relabel(x: u64) -> u64 { let y = x; y }\n\
         fn export() -> SimReport {\n\
             let w = relabel(wall_ns());\n\
             SimReport { wall_ns: w }\n}\n",
    );
    let taint: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == RuleId::ClockTaint)
        .collect();
    assert!(
        !taint.is_empty(),
        "seeded interprocedural clock flow must trip clock-taint, got {:?}",
        report.findings
    );
    let rendered = taint[0].to_string();
    assert!(
        rendered.contains("lib.rs:") && rendered.contains("[clock-taint]"),
        "finding must render as path:line: [rule]: {rendered}"
    );
    assert!(
        taint[0].message.contains("Instant::now"),
        "finding must name the taint source: {rendered}"
    );
}

/// R8 seeded violation: `thread_rng` entropy flowing through a helper
/// into serve-loop state must trip `entropy-taint` and name the
/// unseeded source.
#[test]
fn seeded_entropy_taint_violation_fails_the_gate() {
    let report = scratch_scan(
        "entropytaint",
        "drs-server",
        "fn jitter() -> u64 {\n\
             let mut rng = thread_rng();\n\
             rng.gen_range(0..1_000)\n}\n\
         fn backoff(state: &mut LoopState) {\n\
             let j = jitter();\n\
             state.backoff_ns = j;\n}\n",
    );
    let taint: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == RuleId::EntropyTaint)
        .collect();
    assert!(
        !taint.is_empty(),
        "seeded thread_rng flow must trip entropy-taint, got {:?}",
        report.findings
    );
    assert!(
        taint[0].message.contains("thread_rng"),
        "finding must name the taint source: {}",
        taint[0]
    );
}

/// R9 seeded violation: summing thread-join results into an exported
/// report field must trip `float-order-taint` and name the join.
#[test]
fn seeded_float_order_taint_violation_fails_the_gate() {
    let report = scratch_scan(
        "ordertaint",
        "drs-sim",
        "fn fan_in(handles: Vec<JoinHandle<f64>>) -> MergeReport {\n\
             let mut sum = 0.0;\n\
             for h in handles {\n\
                 sum += h.join().unwrap();\n\
             }\n\
             MergeReport { merged: sum }\n}\n",
    );
    let taint: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == RuleId::FloatOrderTaint)
        .collect();
    assert!(
        !taint.is_empty(),
        "seeded join-order accumulation must trip float-order-taint, got {:?}",
        report.findings
    );
    assert!(
        taint[0].message.contains("join"),
        "finding must name the taint source: {}",
        taint[0]
    );
}

/// A `lint:allow` that no longer suppresses anything is itself a
/// finding — the audit keeps the allowlist from fossilizing.
#[test]
fn seeded_stale_allow_fails_the_gate() {
    let report = scratch_scan(
        "staleallow",
        "drs-sim",
        "fn quiet() -> u64 {\n\
             // lint:allow(hash-iter): nothing here iterates a map anymore\n\
             42\n}\n",
    );
    let stale: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == RuleId::StaleAllow)
        .collect();
    assert!(
        !stale.is_empty(),
        "dead allow directive must trip stale-allow, got {:?}",
        report.findings
    );
    assert!(
        stale[0].message.contains("hash-iter"),
        "finding must name the dead rule: {}",
        stale[0]
    );
}

/// `unsafe-audit` rides the workspace driver in every crate: a new
/// `unsafe` — even a justified one — in a file nobody agreed to audit
/// fails the gate, once per missing condition.
#[test]
fn seeded_unsafe_fails_the_gate() {
    let report = scratch_scan(
        "unsafe",
        "drs-anything",
        "/// Reads through a raw pointer.\npub fn peek(p: *const u8) -> u8 {\n    \
         // SAFETY: the caller promised.\n    unsafe { *p }\n}\n\
         /// The same, unexplained.\npub fn peek_again(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n",
    );
    let audit: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == RuleId::UnsafeAudit)
        .collect();
    assert_eq!(audit.len(), 3, "{audit:?}");
    assert_eq!(audit.len(), report.findings.len(), "{:?}", report.findings);
}

/// A library crate missing `#![warn(missing_docs)]` or the workspace
/// lint table trips the docs-parity check.
#[test]
fn docs_parity_gap_is_flagged() {
    let root = std::env::temp_dir().join(format!("drs-lint-parity-{}", std::process::id()));
    let bare = root.join("crates").join("bare");
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(bare.join("src")).expect("scratch workspace");
    fs::write(
        bare.join("Cargo.toml"),
        "[package]\nname = \"drs-bare\"\nversion = \"0.0.0\"\n",
    )
    .expect("manifest");
    fs::write(
        bare.join("src").join("lib.rs"),
        "//! No lint opt-ins here.\n",
    )
    .expect("source");

    let report = analyze_workspace(&root).expect("scratch scan");
    let parity: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == RuleId::DocsParity)
        .collect();
    assert_eq!(
        parity.len(),
        2,
        "missing attr AND missing lint table: {parity:?}"
    );

    fs::remove_dir_all(&root).expect("scratch cleanup");
}
