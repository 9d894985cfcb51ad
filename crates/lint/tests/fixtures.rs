//! Per-rule fixture contract: every rule trips on its `*_trip.rs`
//! fixture and stays silent on the allowlisted `*_allow.rs` twin.
//! Allowlisted twins must still *record* their suppressions — that is
//! what keeps the stale-allow audit honest.

use drs_lint::parse::FileInfo;
use drs_lint::rules::{check_metrics_guard, check_telemetry_guard, Finding, RuleId, RuleOutput};
use drs_lint::taint::check_taint_files;

fn fixture(name: &str) -> FileInfo {
    let path = format!("{}/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).expect("fixture readable");
    FileInfo::parse(name, &src)
}

fn assert_all(findings: &[Finding], rule: RuleId) {
    for f in findings {
        assert_eq!(f.rule, rule, "unexpected rule in {f}");
    }
}

/// The allow twin produces no findings, and every suppression it
/// records carries the expected rule.
fn assert_allowed(out: &RuleOutput, rule: RuleId) {
    assert!(out.findings.is_empty(), "{:?}", out.findings);
    assert!(
        !out.suppressed.is_empty(),
        "allow twin must record suppressions for the stale audit"
    );
    assert_all(&out.suppressed, rule);
}

#[test]
fn r4_telemetry_guard_trips_and_allows() {
    let trip = check_telemetry_guard(&fixture("r4_trip.rs"));
    assert_eq!(trip.findings.len(), 2, "{:?}", trip.findings);
    assert_all(&trip.findings, RuleId::TelemetryGuard);
    assert_allowed(
        &check_telemetry_guard(&fixture("r4_allow.rs")),
        RuleId::TelemetryGuard,
    );
}

#[test]
fn r6_metrics_guard_trips_and_allows() {
    let trip = check_metrics_guard(&fixture("r6_trip.rs"));
    assert_eq!(trip.findings.len(), 2, "{:?}", trip.findings);
    assert_all(&trip.findings, RuleId::MetricsGuard);
    assert!(
        trip.findings.iter().all(|f| f.message.contains("pulse.")),
        "findings must name the record call: {:?}",
        trip.findings
    );
    assert_allowed(
        &check_metrics_guard(&fixture("r6_allow.rs")),
        RuleId::MetricsGuard,
    );
}

#[test]
fn r7_clock_taint_trips_and_allows() {
    let trip = check_taint_files(&[fixture("r7_trip.rs")]);
    assert_eq!(trip.findings.len(), 2, "{:?}", trip.findings);
    assert_all(&trip.findings, RuleId::ClockTaint);
    assert!(
        trip.findings
            .iter()
            .all(|f| f.message.contains("Instant::now")),
        "findings must name the taint source two calls away: {:?}",
        trip.findings
    );
    assert_allowed(
        &check_taint_files(&[fixture("r7_allow.rs")]),
        RuleId::ClockTaint,
    );
}

#[test]
fn findings_render_with_path_line_and_rule() {
    let trip = check_telemetry_guard(&fixture("r4_trip.rs"));
    let rendered = trip.findings[0].to_string();
    assert!(rendered.starts_with("r4_trip.rs:"), "{rendered}");
    assert!(rendered.contains("[telemetry-guard]"), "{rendered}");
}
