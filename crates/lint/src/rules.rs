//! The invariant rules.
//!
//! Each rule is a token-pattern pass over a [`FileInfo`] (or, for the
//! panic-contract rule, over all files of one crate at once). Rules
//! deliberately over-approximate: a false positive costs one
//! `// lint:allow(<rule>)` comment, a false negative costs a flaky
//! cross-validation test three PRs later.

use crate::callgraph::CallGraph;
use crate::parse::{FileInfo, FnItem};
use crate::symbols::CrateView;
use std::fmt;

/// The rule that produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// R1 — iteration over `HashMap`/`HashSet` state in a
    /// determinism-critical crate.
    HashIter,
    /// R2 — `Instant::now`/`SystemTime` outside the real-path modules.
    WallClock,
    /// R3 — a public `serve*`/`run*` entry point that never reaches an
    /// `assert_nonempty_*` contract check.
    PanicContract,
    /// R4 — a `sink.record(..)` call not guarded by `S::ENABLED`.
    TelemetryGuard,
    /// R5 — unordered `f64` reduction over a hash-map iterator.
    FloatReduce,
    /// R6 — a `pulse.<record>(..)` metrics call not guarded by
    /// `M::ENABLED`.
    MetricsGuard,
    /// R7 — a value derived from `Instant::now`/`SystemTime` flows
    /// (interprocedurally) into a report field, the metrics registry,
    /// or a virtual-clock event booking.
    ClockTaint,
    /// R8 — a value derived from an unseeded entropy source
    /// (`thread_rng`, `from_entropy`, `OsRng`, ...) flows into
    /// serve-loop state.
    EntropyTaint,
    /// R9 — an `f64` fed from a hash-ordered or thread-join source
    /// flows into an exported report field.
    FloatOrderTaint,
    /// An `unsafe` block / impl / fn without a `// SAFETY:` comment
    /// directly above it, or outside the audited files.
    UnsafeAudit,
    /// Crate-hygiene parity: `#![warn(missing_docs)]` + workspace
    /// lints in every library crate.
    DocsParity,
    /// Meta-rule: a `// lint:allow(..)` directive that no longer
    /// suppresses any finding. Cannot itself be allowlisted.
    StaleAllow,
}

impl RuleId {
    /// The name used in reports and in `lint:allow(...)` directives.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::HashIter => "hash-iter",
            RuleId::WallClock => "wall-clock",
            RuleId::PanicContract => "panic-contract",
            RuleId::TelemetryGuard => "telemetry-guard",
            RuleId::FloatReduce => "float-reduce",
            RuleId::MetricsGuard => "metrics-guard",
            RuleId::ClockTaint => "clock-taint",
            RuleId::EntropyTaint => "entropy-taint",
            RuleId::FloatOrderTaint => "float-order-taint",
            RuleId::UnsafeAudit => "unsafe-audit",
            RuleId::DocsParity => "docs-parity",
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

/// Methods that turn a map into an (order-hazardous) iterator.
pub(crate) const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// What one rule pass produced: the findings that fail the gate, plus
/// the findings an escape-hatch comment suppressed. The suppressed
/// list is what keeps the stale-allow audit honest — a directive is
/// *live* exactly when some finding lands on a line it covers.
#[derive(Debug, Default)]
pub struct RuleOutput {
    /// Unallowlisted findings (these fail `--check`).
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

/// R1 — flags iteration over identifiers declared with a
/// `HashMap`/`HashSet` type: `map.iter()`-family calls and `for`-loop
/// headers naming the map. Keyed access (`get`, `insert`, `remove`,
/// `len`, ...) never trips.
pub fn check_hash_iter(f: &FileInfo) -> RuleOutput {
    let mut out = RuleOutput::default();
    let toks = &f.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != crate::lexer::TokenKind::Ident || !f.hash_idents.contains(&t.text) {
            continue;
        }
        // `map.iter()` / `map.drain()` / ...
        if toks.get(i + 1).is_some_and(|n| n.is_punct('.')) {
            if let Some(m) = toks.get(i + 2) {
                if ITER_METHODS.contains(&m.text.as_str()) {
                    push(
                        &mut out,
                        f,
                        t.line,
                        RuleId::HashIter,
                        format!(
                            "iteration over hash-ordered `{}` via `.{}()` — order is nondeterministic; use BTreeMap/BTreeSet or a sorted drain",
                            t.text, m.text
                        ),
                    );
                }
            }
            continue;
        }
        // `for pat in &map {` / `for pat in map {` — the map ident in a
        // for-header not followed by `.` is an implicit IntoIterator.
        if in_for_header(f, i) {
            push(
                &mut out,
                f,
                t.line,
                RuleId::HashIter,
                format!(
                    "`for` loop over hash-ordered `{}` — order is nondeterministic; use BTreeMap/BTreeSet or a sorted drain",
                    t.text
                ),
            );
        }
    }
    out
}

/// Is token `i` between a `for ... in` and the loop's opening brace?
fn in_for_header(f: &FileInfo, i: usize) -> bool {
    let toks = &f.tokens;
    let mut saw_in = false;
    let mut k = i;
    // Walk back to the `for`, aborting at statement/block boundaries.
    while k > 0 {
        k -= 1;
        let t = &toks[k];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            return false;
        }
        if t.is_ident("in") {
            saw_in = true;
        }
        if t.is_ident("for") {
            return saw_in;
        }
        if i - k > 24 {
            return false;
        }
    }
    false
}

/// R2 — flags `Instant::now(..)` and any use of `SystemTime` in
/// virtual-time code. Holding an `Instant` value (e.g. a timestamp
/// passed in from the real path) is fine; *reading the clock* is not.
pub fn check_wall_clock(f: &FileInfo) -> RuleOutput {
    let mut out = RuleOutput::default();
    let toks = &f.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.is_ident("Instant")
            && toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && toks.get(i + 2).is_some_and(|n| n.is_punct(':'))
            && toks.get(i + 3).is_some_and(|n| n.is_ident("now"))
        {
            push(
                &mut out,
                f,
                t.line,
                RuleId::WallClock,
                "`Instant::now()` in virtual-time code — wall-clock reads are confined to the real path".to_string(),
            );
        }
        if t.is_ident("SystemTime") {
            push(
                &mut out,
                f,
                t.line,
                RuleId::WallClock,
                "`SystemTime` in virtual-time code — wall-clock reads are confined to the real path".to_string(),
            );
        }
    }
    out
}

/// The only files that may contain `unsafe`: the AVX2 re-compilation
/// of the GEMM loop nest and the gather kernel's prefetch hint. A new
/// entry is a review decision, not a lint fix.
pub const UNSAFE_ALLOWED_FILES: &[&str] =
    &["crates/tensor/src/packed.rs", "crates/nn/src/embedding.rs"];

/// `unsafe-audit` — every `unsafe` keyword (block, `impl`, `fn`) must
/// sit directly under a `// SAFETY:` comment and in one of
/// [`UNSAFE_ALLOWED_FILES`]. Nothing in this sandbox detects undefined
/// behaviour, so the written justification and the short list of
/// places to read are the whole defence.
pub fn check_unsafe_audit(f: &FileInfo) -> RuleOutput {
    let mut out = RuleOutput::default();
    for t in f.tokens.iter().filter(|t| t.is_ident("unsafe")) {
        if !f.safety_lines.contains(&t.line) {
            push(
                &mut out,
                f,
                t.line,
                RuleId::UnsafeAudit,
                "`unsafe` without a `// SAFETY:` comment directly above it".to_string(),
            );
        }
        if !UNSAFE_ALLOWED_FILES.contains(&f.path.as_str()) {
            push(
                &mut out,
                f,
                t.line,
                RuleId::UnsafeAudit,
                format!(
                    "`unsafe` outside the audited files ({})",
                    UNSAFE_ALLOWED_FILES.join(", ")
                ),
            );
        }
    }
    out
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

/// R5 — flags `f64` reductions (`.sum()` / `.fold(..)`) chained onto a
/// hash-map iterator: the accumulation order, and therefore the
/// floating-point rounding, follows the hash order.
pub fn check_float_reduce(f: &FileInfo) -> RuleOutput {
    let mut out = RuleOutput::default();
    let toks = &f.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != crate::lexer::TokenKind::Ident
            || !f.hash_idents.contains(&t.text)
            || !toks.get(i + 1).is_some_and(|n| n.is_punct('.'))
            || !toks
                .get(i + 2)
                .is_some_and(|m| ITER_METHODS.contains(&m.text.as_str()))
        {
            continue;
        }
        // Scan the rest of the method chain for a reduction.
        for j in i + 3..toks.len().min(i + 48) {
            if toks[j].is_punct(';') || toks[j].is_punct('{') {
                break;
            }
            if toks[j - 1].is_punct('.') && (toks[j].is_ident("sum") || toks[j].is_ident("fold")) {
                push(
                    &mut out,
                    f,
                    toks[j].line,
                    RuleId::FloatReduce,
                    format!(
                        "float reduction `.{}` over hash-ordered `{}` — rounding follows hash order; collect and sort first",
                        toks[j].text, t.text
                    ),
                );
                break;
            }
        }
    }
    out
}

/// R3 — workspace-wide panic-contract coverage, on the shared call
/// graph.
///
/// A function is *satisfied* when its body names an `assert_nonempty_*`
/// check directly, or when any call-graph path from it reaches a
/// satisfied function — including cross-crate edges, so a `pub serve*`
/// wrapper in one crate calling a guarded core function in another is
/// covered. Every bare-`pub` `serve*`/`run`/`run_*` function whose
/// parameter list mentions `Query` or `Trace` must be satisfied.
pub fn check_panic_contract_graph(views: &[CrateView], graph: &CallGraph) -> RuleOutput {
    // Direct satisfaction: the body itself names the contract check.
    let mut sat = vec![false; graph.nodes.len()];
    for (id, n) in graph.nodes.iter().enumerate() {
        let f = &views[n.crate_idx].files[n.file_idx];
        let Some(body) = f.fns[n.fn_idx].body else {
            continue;
        };
        let b = f.blocks[body];
        sat[id] = f.tokens[b.open..=b.close.min(f.tokens.len() - 1)]
            .iter()
            .any(|t| {
                t.kind == crate::lexer::TokenKind::Ident && t.text.starts_with("assert_nonempty_")
            });
    }
    let sat = graph.propagate_from_callees(sat);
    let mut out = RuleOutput::default();
    for (id, n) in graph.nodes.iter().enumerate() {
        let f = &views[n.crate_idx].files[n.file_idx];
        let item = &f.fns[n.fn_idx];
        if item.body.is_none() || !is_entry_point(f, item) || sat[id] {
            continue;
        }
        push(
            &mut out,
            f,
            item.line,
            RuleId::PanicContract,
            format!(
                "public entry point `{}` never reaches an `assert_nonempty_*` contract check",
                item.name
            ),
        );
    }
    out
}

/// [`check_panic_contract_graph`] over one crate's files (fixtures and
/// unit tests); builds the call graph internally.
pub fn check_panic_contract(files: &[FileInfo]) -> RuleOutput {
    let views = [CrateView {
        name: "fixture".to_string(),
        files,
    }];
    let graph = CallGraph::build(&views);
    check_panic_contract_graph(&views, &graph)
}

/// Is this fn a panic-contract entry point: bare-`pub`, named
/// `serve*`/`run`/`run_*`, and taking a `Query`/`Trace` parameter?
fn is_entry_point(f: &FileInfo, item: &FnItem) -> bool {
    if !item.is_pub {
        return false;
    }
    let n = item.name.as_str();
    if !(n.starts_with("serve") || n == "run" || n.starts_with("run_")) {
        return false;
    }
    let (a, b) = item.params;
    f.tokens[a..=b.min(f.tokens.len() - 1)]
        .iter()
        .any(|t| t.is_ident("Query") || t.is_ident("Trace"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::FileInfo;

    fn info(src: &str) -> FileInfo {
        FileInfo::parse("t.rs", src)
    }

    #[test]
    fn hash_iter_trips_on_iteration_not_lookup() {
        let f = info(
            "fn f() { let mut m: HashMap<u64, u32> = HashMap::new(); \
             m.insert(1, 2); let _ = m.get(&1); let _ = m.len(); \
             for (k, v) in &m { use_it(k, v); } \
             let _: Vec<_> = m.values().collect(); }",
        );
        let findings = check_hash_iter(&f).findings;
        assert_eq!(findings.len(), 2, "{findings:?}");
    }

    #[test]
    fn hash_iter_respects_allow() {
        let f = info(
            "fn f(m: &HashMap<u64, u32>) {\n\
             // lint:allow(hash-iter)\n\
             for k in m.keys() { use_it(k); }\n}",
        );
        let out = check_hash_iter(&f);
        assert!(out.findings.is_empty());
        assert_eq!(
            out.suppressed.len(),
            1,
            "the allow suppressed a real finding"
        );
    }

    #[test]
    fn wall_clock_trips_on_now_not_type() {
        let f = info("fn f(t: Instant) -> bool { let n = Instant::now(); n > t }");
        let findings = check_wall_clock(&f).findings;
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, RuleId::WallClock);
    }

    #[test]
    fn unsafe_audit_wants_a_safety_comment_and_a_listed_file() {
        let justified =
            "fn f(p: *const u8) {\n// SAFETY: a hint, never read through.\nunsafe { hint(p) };\n}";
        let bare = "fn f(p: *const u8) {\nunsafe { hint(p) };\n}";
        let listed = |src| FileInfo::parse(UNSAFE_ALLOWED_FILES[1], src);
        assert!(check_unsafe_audit(&listed(justified)).findings.is_empty());
        assert_eq!(check_unsafe_audit(&listed(bare)).findings.len(), 1);
        // Elsewhere even a justified block is a finding; a bare one is two.
        assert_eq!(check_unsafe_audit(&info(justified)).findings.len(), 1);
        assert_eq!(check_unsafe_audit(&info(bare)).findings.len(), 2);
        // The word in a string or a comment is not the keyword.
        let quoted = info("// unsafe\nfn f() -> &'static str { \"unsafe { }\" }");
        assert!(check_unsafe_audit(&quoted).findings.is_empty());
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

    #[test]
    fn float_reduce_trips_on_sum_over_map() {
        let f = info("fn f(m: &HashMap<u64, f64>) -> f64 { m.values().sum::<f64>() }");
        // One float-reduce finding (plus hash-iter if that rule also
        // ran — rules are independent).
        assert_eq!(check_float_reduce(&f).findings.len(), 1);
    }

    #[test]
    fn panic_contract_fixpoint_through_helper() {
        let direct = info("pub fn serve_queries(q: &[Query]) { assert_nonempty_queries(q); }");
        assert!(check_panic_contract(&[direct]).findings.is_empty());
        let chained = info(
            "pub fn serve_queries(q: &[Query]) { inner(q); } \
             fn inner(q: &[Query]) { assert_nonempty_queries(q); }",
        );
        assert!(check_panic_contract(&[chained]).findings.is_empty());
        let missing = info("pub fn serve_queries(q: &[Query]) { just_go(q); }");
        assert_eq!(check_panic_contract(&[missing]).findings.len(), 1);
    }

    #[test]
    fn panic_contract_ignores_non_entry_points() {
        // No Query/Trace param, pub(crate), or non-matching name.
        let f = info(
            "pub fn run_generator(g: &mut QueryGenerator) { go(g); } \
             pub(crate) fn serve_queries(q: &[Query]) { go(q); } \
             pub fn helper(q: &[Query]) { go(q); }",
        );
        // `QueryGenerator` lexes as one ident, so the exact-ident
        // `Query` param test does not match it.
        assert!(check_panic_contract(&[f]).findings.is_empty());
    }
}
