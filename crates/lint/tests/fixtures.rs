//! Per-rule fixture contract: every rule trips on its `*_trip.rs`
//! fixture and stays silent on the allowlisted `*_allow.rs` twin.
//! Allowlisted twins must still *record* their suppressions — that is
//! what keeps the stale-allow audit honest.

use drs_lint::parse::FileInfo;
use drs_lint::rules::{
    check_float_reduce, check_hash_iter, check_metrics_guard, check_panic_contract,
    check_telemetry_guard, check_unsafe_audit, check_wall_clock, Finding, RuleId, RuleOutput,
};
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
fn r1_hash_iter_trips_and_allows() {
    let trip = check_hash_iter(&fixture("r1_trip.rs"));
    assert_eq!(trip.findings.len(), 2, "{:?}", trip.findings);
    assert_all(&trip.findings, RuleId::HashIter);
    assert_allowed(&check_hash_iter(&fixture("r1_allow.rs")), RuleId::HashIter);
}

#[test]
fn r2_wall_clock_trips_and_allows() {
    let trip = check_wall_clock(&fixture("r2_trip.rs"));
    assert_eq!(trip.findings.len(), 4, "{:?}", trip.findings);
    assert_all(&trip.findings, RuleId::WallClock);
    assert!(
        trip.findings
            .iter()
            .any(|f| f.message.contains("Instant::now")),
        "the clock read itself must be flagged: {:?}",
        trip.findings
    );
    assert_allowed(
        &check_wall_clock(&fixture("r2_allow.rs")),
        RuleId::WallClock,
    );
}

#[test]
fn unsafe_audit_trips_and_allows() {
    let trip = check_unsafe_audit(&fixture("unsafe_trip.rs"));
    assert_eq!(trip.findings.len(), 3, "{:?}", trip.findings);
    assert_all(&trip.findings, RuleId::UnsafeAudit);
    let missing_comment = |f: &&Finding| f.message.contains("without a `// SAFETY:`");
    assert_eq!(
        trip.findings.iter().filter(missing_comment).count(),
        1,
        "only the bare block lacks its justification: {:?}",
        trip.findings
    );
    assert_allowed(
        &check_unsafe_audit(&fixture("unsafe_allow.rs")),
        RuleId::UnsafeAudit,
    );
}

#[test]
fn r3_panic_contract_trips_and_allows() {
    let trip = check_panic_contract(&[fixture("r3_trip.rs")]);
    assert_eq!(trip.findings.len(), 1, "{:?}", trip.findings);
    assert_all(&trip.findings, RuleId::PanicContract);
    assert!(
        trip.findings[0].message.contains("serve_unchecked"),
        "only the unchecked entry point trips: {:?}",
        trip.findings
    );
    let allow = check_panic_contract(&[fixture("r3_allow.rs")]);
    assert!(allow.findings.is_empty(), "{:?}", allow.findings);
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
fn r5_float_reduce_trips_and_allows() {
    let trip = check_float_reduce(&fixture("r5_trip.rs"));
    assert_eq!(trip.findings.len(), 2, "{:?}", trip.findings);
    assert_all(&trip.findings, RuleId::FloatReduce);
    assert_allowed(
        &check_float_reduce(&fixture("r5_allow.rs")),
        RuleId::FloatReduce,
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
fn r8_entropy_taint_trips_and_allows() {
    let trip = check_taint_files(&[fixture("r8_trip.rs")]);
    assert_eq!(trip.findings.len(), 2, "{:?}", trip.findings);
    assert_all(&trip.findings, RuleId::EntropyTaint);
    assert!(
        trip.findings
            .iter()
            .all(|f| f.message.contains("thread_rng")),
        "findings must name the unseeded source, not the seeded one: {:?}",
        trip.findings
    );
    assert_allowed(
        &check_taint_files(&[fixture("r8_allow.rs")]),
        RuleId::EntropyTaint,
    );
}

#[test]
fn r9_float_order_taint_trips_and_allows() {
    let trip = check_taint_files(&[fixture("r9_trip.rs")]);
    assert_eq!(trip.findings.len(), 2, "{:?}", trip.findings);
    assert_all(&trip.findings, RuleId::FloatOrderTaint);
    assert!(
        trip.findings
            .iter()
            .any(|f| f.message.contains("hash-ordered")),
        "{:?}",
        trip.findings
    );
    assert!(
        trip.findings.iter().any(|f| f.message.contains("join")),
        "{:?}",
        trip.findings
    );
    assert_allowed(
        &check_taint_files(&[fixture("r9_allow.rs")]),
        RuleId::FloatOrderTaint,
    );
}

#[test]
fn findings_render_with_path_line_and_rule() {
    let trip = check_hash_iter(&fixture("r1_trip.rs"));
    let rendered = trip.findings[0].to_string();
    assert!(rendered.starts_with("r1_trip.rs:"), "{rendered}");
    assert!(rendered.contains("[hash-iter]"), "{rendered}");
}
