//! The rule vocabulary and the two sink-guard passes.
//!
//! R4 and R6 are token-pattern passes over a [`FileInfo`]. They
//! deliberately over-approximate: a false positive costs one
//! `// lint:allow(<rule>)` comment, a false negative costs a no-op sink
//! that silently builds every span it then drops.

use crate::parse::FileInfo;
use std::fmt;

/// The rule that produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// R4 — a `sink.record(..)` call not guarded by `S::ENABLED`.
    TelemetryGuard,
    /// R6 — a `pulse.<record>(..)` metrics call not guarded by
    /// `M::ENABLED`.
    MetricsGuard,
    /// R7 — a value derived from `Instant::now`/`SystemTime` flows
    /// (interprocedurally) into a report field, the metrics registry,
    /// or a virtual-clock event booking.
    ClockTaint,
    /// Meta-rule: a `// lint:allow(..)` directive that no longer
    /// suppresses any finding. Cannot itself be allowlisted.
    StaleAllow,
}

impl RuleId {
    /// The name used in reports and in `lint:allow(...)` directives.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::TelemetryGuard => "telemetry-guard",
            RuleId::MetricsGuard => "metrics-guard",
            RuleId::ClockTaint => "clock-taint",
            RuleId::StaleAllow => "stale-allow",
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One rule violation at one source location.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// File the finding is in (repo-relative when produced by the
    /// workspace driver).
    pub path: String,
    /// 1-based source line.
    pub line: u32,
    /// The violated rule.
    pub rule: RuleId,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// What one rule pass produced: the findings that fail the gate, plus
/// the findings an escape-hatch comment suppressed. The suppressed
/// list is what keeps the stale-allow audit honest — a directive is
/// *live* exactly when some finding lands on a line it covers.
#[derive(Debug, Default)]
pub struct RuleOutput {
    /// Unallowlisted findings (these fail the gate).
    pub findings: Vec<Finding>,
    /// Findings silenced by a `// lint:allow(..)` directive.
    pub suppressed: Vec<Finding>,
}

impl RuleOutput {
    /// Merges another pass's output into this one.
    pub fn merge(&mut self, other: RuleOutput) {
        self.findings.extend(other.findings);
        self.suppressed.extend(other.suppressed);
    }
}

pub(crate) fn push(out: &mut RuleOutput, f: &FileInfo, line: u32, rule: RuleId, message: String) {
    let finding = Finding {
        path: f.path.clone(),
        line,
        rule,
        message,
    };
    if f.is_allowed(line, rule.name()) {
        out.suppressed.push(finding);
    } else {
        out.findings.push(finding);
    }
}

/// R4 — every `sink.record(..)` call site must sit inside an `if`
/// whose condition mentions the `ENABLED` associated const, so
/// `NoopSink` compiles tracing out entirely.
pub fn check_telemetry_guard(f: &FileInfo) -> RuleOutput {
    let mut out = RuleOutput::default();
    let toks = &f.tokens;
    for i in 0..toks.len() {
        if !(toks[i].is_ident("sink")
            && toks.get(i + 1).is_some_and(|n| n.is_punct('.'))
            && toks.get(i + 2).is_some_and(|n| n.is_ident("record"))
            && toks.get(i + 3).is_some_and(|n| n.is_punct('(')))
        {
            continue;
        }
        let guarded = f
            .enclosing_blocks(i)
            .any(|b| if_condition_mentions_enabled(f, b.open));
        if !guarded {
            push(
                &mut out,
                f,
                toks[i].line,
                RuleId::TelemetryGuard,
                "`sink.record(..)` not guarded by `S::ENABLED` — NoopSink must compile tracing out"
                    .to_string(),
            );
        }
    }
    out
}

/// Does the block opened at token `open` belong to an `if` whose
/// condition tokens mention `ENABLED`?
fn if_condition_mentions_enabled(f: &FileInfo, open: usize) -> bool {
    let toks = &f.tokens;
    let mut k = open;
    let mut saw_enabled = false;
    while k > 0 {
        k -= 1;
        let t = &toks[k];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            return false;
        }
        if t.is_ident("ENABLED") {
            saw_enabled = true;
        }
        if t.is_ident("if") {
            return saw_enabled;
        }
        if open - k > 48 {
            return false;
        }
    }
    false
}

/// `MetricsSink` methods that record (receiver convention: `pulse`).
/// `interval_ns`/`summary` are read-only accessors and exempt.
const PULSE_RECORD_METHODS: &[&str] = &[
    "set_epoch",
    "tick",
    "gauge",
    "inc",
    "observe",
    "decision",
    "drr_round",
];

/// R6 — every `pulse.<record>(..)` metrics call site must sit inside
/// an `if` whose condition mentions the `ENABLED` associated const, so
/// `NoopMetrics` compiles the fleet-pulse instrumentation out (the
/// mirror of R4 for the metrics layer; the `pulse` receiver convention
/// keeps the two rules from colliding).
pub fn check_metrics_guard(f: &FileInfo) -> RuleOutput {
    let mut out = RuleOutput::default();
    let toks = &f.tokens;
    for i in 0..toks.len() {
        if !(toks[i].is_ident("pulse")
            && toks.get(i + 1).is_some_and(|n| n.is_punct('.'))
            && toks
                .get(i + 2)
                .is_some_and(|m| PULSE_RECORD_METHODS.contains(&m.text.as_str()))
            && toks.get(i + 3).is_some_and(|n| n.is_punct('(')))
        {
            continue;
        }
        let guarded = f
            .enclosing_blocks(i)
            .any(|b| if_condition_mentions_enabled(f, b.open));
        if !guarded {
            push(
                &mut out,
                f,
                toks[i].line,
                RuleId::MetricsGuard,
                format!(
                    "`pulse.{}(..)` not guarded by `M::ENABLED` — NoopMetrics must compile the fleet pulse out",
                    toks[i + 2].text
                ),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::FileInfo;

    fn info(src: &str) -> FileInfo {
        FileInfo::parse("t.rs", src)
    }

    #[test]
    fn telemetry_guard_requires_enabled() {
        let good = info("fn f() { if S::ENABLED { sink.record(&span); } }");
        assert!(check_telemetry_guard(&good).findings.is_empty());
        let bad = info("fn f() { sink.record(&span); }");
        assert_eq!(check_telemetry_guard(&bad).findings.len(), 1);
        let wrong_if = info("fn f() { if x > 0 { sink.record(&span); } }");
        assert_eq!(check_telemetry_guard(&wrong_if).findings.len(), 1);
    }

    #[test]
    fn metrics_guard_requires_enabled() {
        let good = info("fn f() { if M::ENABLED { pulse.gauge(\"queue_depth_n0\", d); } }");
        assert!(check_metrics_guard(&good).findings.is_empty());
        let self_recv = info("fn f(&mut self) { if M::ENABLED { self.pulse.tick(t); } }");
        assert!(check_metrics_guard(&self_recv).findings.is_empty());
        let bad = info("fn f() { pulse.inc(\"completed_total\", 1); }");
        assert_eq!(check_metrics_guard(&bad).findings.len(), 1);
        let wrong_if = info("fn f() { if hot { pulse.observe(\"latency_ms\", v); } }");
        assert_eq!(check_metrics_guard(&wrong_if).findings.len(), 1);
        // Read-only accessors need no guard (they feed the guard).
        let accessor = info("fn f() { let t = pulse.interval_ns().max(1); }");
        assert!(check_metrics_guard(&accessor).findings.is_empty());
    }
}
