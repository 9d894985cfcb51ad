//! The analyzer against reality: the shipped workspace must be
//! finding-free, and a deliberately seeded violation must fail the
//! gate. One seeded violation per remaining rule plus the stale-allow
//! audit, and a fence on the toolchain configuration that carries the
//! rules this crate no longer checks.

use drs_lint::rules::RuleId;
use drs_lint::workspace::analyze_workspace;
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
        format!("[package]\nname = \"{crate_name}\"\nversion = \"0.0.0\"\n"),
    )
    .expect("manifest");
    fs::write(member.join("src").join("lib.rs"), lib_rs).expect("seeded source");
    let report = analyze_workspace(&root).expect("scratch scan");
    fs::remove_dir_all(&root).expect("scratch cleanup");
    report
}

/// The acceptance gate itself: the workspace as shipped has no finding.
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
}

/// An unguarded `sink.record(..)` seeded into a sink-guard crate must
/// fail the gate — `NoopSink` only compiles tracing out when every
/// record site sits behind `S::ENABLED`.
#[test]
fn seeded_violation_fails_the_gate() {
    let report = scratch_scan(
        "selfcheck",
        "drs-server",
        "fn finish<S: TraceSink>(sink: &mut S, span: &Span) {\n\
             sink.record(span);\n}\n",
    );
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.rule == RuleId::TelemetryGuard && f.path.ends_with("lib.rs")),
        "seeded unguarded sink.record must trip telemetry-guard, got {:?}",
        report.findings
    );
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

/// A `lint:allow` that no longer suppresses anything is itself a
/// finding — the audit keeps the allowlist from fossilizing.
#[test]
fn seeded_stale_allow_fails_the_gate() {
    let report = scratch_scan(
        "staleallow",
        "drs-sim",
        "fn quiet() -> u64 {\n\
             // lint:allow(clock-taint): nothing here reads the clock anymore\n\
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
        stale[0].message.contains("clock-taint"),
        "finding must name the dead rule: {}",
        stale[0]
    );
}

/// The trimmed lines of one TOML table, up to the next header.
fn toml_table<'a>(src: &'a str, header: &str) -> Vec<&'a str> {
    src.lines()
        .map(str::trim)
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect()
}

/// The rules that moved onto the toolchain stay on it: every crate
/// opts into the workspace lint table, the table denies `unsafe` and
/// wants docs and `// SAFETY:` comments, `clippy.toml` bans the hash
/// collections and the wall-clock reads, and no crate comes from a
/// registry — so no entropy source (`thread_rng`, `from_entropy`,
/// `OsRng`) can enter beside the seeded vendored `rand`.
#[test]
fn workspace_lint_config() {
    let root = repo_root();
    let read = |p: &Path| fs::read_to_string(p).unwrap_or_else(|e| panic!("{}: {e}", p.display()));
    let root_manifest = read(&root.join("Cargo.toml"));
    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in fs::read_dir(root.join("crates")).expect("crates dir") {
        let m = entry.expect("crate entry").path().join("Cargo.toml");
        if m.is_file() {
            manifests.push(m);
        }
    }
    assert!(manifests.len() > 10, "{manifests:?}");
    for m in &manifests {
        assert_eq!(
            toml_table(&read(m), "[lints]"),
            ["workspace = true"],
            "{} must opt into the workspace lints",
            m.display()
        );
    }

    let rust = toml_table(&root_manifest, "[workspace.lints.rust]");
    assert!(rust.contains(&"unsafe_code = \"deny\""), "{rust:?}");
    assert!(
        rust.iter().any(|l| l.starts_with("missing_docs =")),
        "{rust:?}"
    );
    let clippy = toml_table(&root_manifest, "[workspace.lints.clippy]");
    assert!(
        clippy
            .iter()
            .any(|l| l.starts_with("undocumented_unsafe_blocks =")),
        "{clippy:?}"
    );

    let config = read(&root.join("clippy.toml"));
    let banned = |key: &str| -> Vec<&str> {
        let list = &config[config.find(key).unwrap_or_else(|| panic!("no {key}"))..];
        let list = &list[..list.find("\n]").expect("closed list")];
        list.split("path = \"")
            .skip(1)
            .map(|p| &p[..p.find('"').expect("closed path")])
            .collect()
    };
    assert_eq!(
        banned("disallowed-types"),
        [
            "std::collections::HashMap",
            "std::collections::HashSet",
            "std::hash::RandomState"
        ]
    );
    assert_eq!(
        banned("disallowed-methods"),
        ["std::time::Instant::now", "std::time::SystemTime::now"]
    );

    let lock = read(&root.join("Cargo.lock"));
    assert!(
        !lock.lines().any(|l| l.starts_with("source =")),
        "every dependency must be a workspace path crate"
    );
    let rand = read(&root.join("vendor/rand/src/lib.rs"));
    for source in ["thread_rng", "from_entropy", "OsRng"] {
        assert!(!rand.contains(source), "vendor/rand defines `{source}`");
    }
}
