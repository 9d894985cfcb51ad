//! Workspace discovery and the full analysis driver.
//!
//! Walks `crates/*/src/**/*.rs` (vendored stand-ins under `vendor/`,
//! integration tests, and the lint fixtures are outside that scope by
//! construction), classifies each crate against the rule scopes, runs
//! the syntactic passes, the call-graph-based panic-contract check,
//! and the interprocedural taint engine, audits every `lint:allow`
//! directive for staleness, and renders the findings as text or JSON.

use crate::callgraph::CallGraph;
use crate::parse::FileInfo;
use crate::rules::{
    check_float_reduce, check_hash_iter, check_metrics_guard, check_panic_contract_graph,
    check_telemetry_guard, check_unsafe_audit, check_wall_clock, Finding, RuleId, RuleOutput,
};
use crate::symbols::CrateView;
use crate::taint::check_taint;
use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// Crates whose serve/replay loops must be hash-order free (R1).
const HASH_ITER_CRATES: &[&str] = &["drs-server", "drs-core", "drs-shard"];
/// Crates that legitimately read the wall clock (R2/R7 exemption): the
/// real execution engine and the benchmark harness.
pub const WALL_CLOCK_EXEMPT: &[&str] = &["drs-engine", "drs-bench"];
/// Crates with `TraceSink` record sites that must be guarded (R4).
const TELEMETRY_GUARD_CRATES: &[&str] = &["drs-server", "drs-engine"];
/// Crates with `MetricsSink` record sites that must be guarded (R6).
const METRICS_GUARD_CRATES: &[&str] = &["drs-server", "drs-engine"];

/// One workspace crate: its name and parsed sources.
pub struct CrateSources {
    /// Package name from `Cargo.toml`.
    pub name: String,
    /// Parsed `src/**/*.rs` files, in path order.
    pub files: Vec<FileInfo>,
    /// Raw `src/lib.rs` contents (for the docs-parity check), if the
    /// crate is a library.
    pub lib_rs: Option<(String, String)>,
    /// Raw `Cargo.toml` contents and its repo-relative path.
    pub manifest: (String, String),
}

/// The result of one full workspace analysis.
pub struct Report {
    /// All findings, sorted by path then line.
    pub findings: Vec<Finding>,
    /// Findings silenced by a live `lint:allow` directive (the audit
    /// trail the stale-allow pass is checked against).
    pub suppressed: Vec<Finding>,
    /// Number of source files scanned.
    pub files_scanned: usize,
    /// Names of the crates scanned, in order.
    pub crates: Vec<String>,
    /// Number of edges in the workspace call graph.
    pub callgraph_edges: usize,
}

/// Discovers and parses every crate under `<root>/crates/`.
pub fn discover(root: &Path) -> std::io::Result<Vec<CrateSources>> {
    let crates_dir = root.join("crates");
    let mut dirs: BTreeSet<PathBuf> = BTreeSet::new();
    for entry in fs::read_dir(&crates_dir)? {
        let p = entry?.path();
        if p.is_dir() && p.join("Cargo.toml").is_file() {
            dirs.insert(p);
        }
    }
    let mut out = Vec::new();
    for dir in dirs {
        let manifest_path = dir.join("Cargo.toml");
        let manifest_src = fs::read_to_string(&manifest_path)?;
        let name = package_name(&manifest_src)
            .unwrap_or_else(|| dir.file_name().unwrap().to_string_lossy().into_owned());
        let src_dir = dir.join("src");
        let mut files = Vec::new();
        let mut lib_rs = None;
        if src_dir.is_dir() {
            let mut paths: BTreeSet<PathBuf> = BTreeSet::new();
            walk_rs(&src_dir, &mut paths)?;
            for p in paths {
                let src = fs::read_to_string(&p)?;
                let rel = rel_to(root, &p);
                if p.file_name().is_some_and(|f| f == "lib.rs")
                    && p.parent() == Some(src_dir.as_path())
                {
                    lib_rs = Some((rel.clone(), src.clone()));
                }
                files.push(FileInfo::parse(&rel, &src));
            }
        }
        out.push(CrateSources {
            name,
            files,
            lib_rs,
            manifest: (rel_to(root, &manifest_path), manifest_src),
        });
    }
    Ok(out)
}

/// Borrowing views over the discovered crates, for the workspace-wide
/// passes (call graph, taint).
pub fn crate_views(crates: &[CrateSources]) -> Vec<CrateView<'_>> {
    crates
        .iter()
        .map(|c| CrateView {
            name: c.name.clone(),
            files: &c.files,
        })
        .collect()
}

/// Builds the workspace call graph rooted at `root` (the `--callgraph`
/// CLI mode).
pub fn workspace_callgraph(root: &Path) -> std::io::Result<CallGraph> {
    let crates = discover(root)?;
    let views = crate_views(&crates);
    Ok(CallGraph::build(&views))
}

/// Runs every rule pass over the workspace rooted at `root`.
pub fn analyze_workspace(root: &Path) -> std::io::Result<Report> {
    let crates = discover(root)?;
    let views = crate_views(&crates);
    let graph = CallGraph::build(&views);
    let mut out = RuleOutput::default();
    let mut files_scanned = 0;
    for c in &crates {
        files_scanned += c.files.len();
        let hash_iter = HASH_ITER_CRATES.contains(&c.name.as_str());
        let wall_clock = !WALL_CLOCK_EXEMPT.contains(&c.name.as_str());
        let telemetry = TELEMETRY_GUARD_CRATES.contains(&c.name.as_str());
        let metrics = METRICS_GUARD_CRATES.contains(&c.name.as_str());
        for f in &c.files {
            if hash_iter {
                out.merge(check_hash_iter(f));
            }
            if wall_clock {
                out.merge(check_wall_clock(f));
            }
            if telemetry {
                out.merge(check_telemetry_guard(f));
            }
            if metrics {
                out.merge(check_metrics_guard(f));
            }
            out.merge(check_float_reduce(f));
            out.merge(check_unsafe_audit(f));
        }
        out.merge(check_docs_parity(c));
    }
    // Workspace-wide passes: the panic contract rides the shared call
    // graph (satisfaction flows across crate boundaries), and the
    // taint engine runs its global fixpoint over all crates at once.
    out.merge(check_panic_contract_graph(&views, &graph));
    out.merge(check_taint(&views, WALL_CLOCK_EXEMPT));
    // The stale-allow audit runs last: it needs the complete record of
    // what every directive actually suppressed.
    let mut findings = out.findings;
    findings.extend(check_stale_allows(&crates, &out.suppressed));
    findings.sort();
    let mut suppressed = out.suppressed;
    suppressed.sort();
    Ok(Report {
        findings,
        suppressed,
        files_scanned,
        crates: crates.iter().map(|c| c.name.clone()).collect(),
        callgraph_edges: graph.edges.len(),
    })
}

/// Crate-hygiene parity: every library crate carries
/// `#![warn(missing_docs)]` in its `lib.rs` and opts into the
/// workspace lint table in its `Cargo.toml`. A
/// `lint:allow(docs-parity)` anywhere in the `lib.rs` suppresses the
/// rule crate-wide (the gaps are recorded as suppressed, so an allow
/// with nothing left to excuse shows up in the stale audit).
pub fn check_docs_parity(c: &CrateSources) -> RuleOutput {
    let mut out = RuleOutput::default();
    if let Some((path, src)) = &c.lib_rs {
        let allowed = src.contains("lint:allow(docs-parity)");
        let add = |out: &mut RuleOutput, path: &str, message: String| {
            let f = Finding {
                path: path.to_string(),
                line: 1,
                rule: RuleId::DocsParity,
                message,
            };
            if allowed {
                out.suppressed.push(f);
            } else {
                out.findings.push(f);
            }
        };
        if !src.contains("#![warn(missing_docs)]") {
            add(
                &mut out,
                path,
                format!("library crate `{}` lacks `#![warn(missing_docs)]`", c.name),
            );
        }
        let (mpath, msrc) = &c.manifest;
        if !(msrc.contains("[lints]") && msrc.contains("workspace = true")) {
            add(
                &mut out,
                mpath,
                format!(
                    "crate `{}` does not opt into `[lints] workspace = true`",
                    c.name
                ),
            );
        }
    }
    out
}

/// The allow-audit meta-rule: every `// lint:allow(<rule>)` directive
/// must still be earning its keep — i.e. some finding of that rule
/// must have been suppressed on a line it covers. A directive whose
/// excused code has since been fixed or deleted is itself a finding
/// (`stale-allow`), and it cannot be allowlisted away.
pub fn check_stale_allows(crates: &[CrateSources], suppressed: &[Finding]) -> Vec<Finding> {
    let mut out = Vec::new();
    for c in crates {
        for f in &c.files {
            for d in &f.allow_directives {
                let [lo, hi] = d.covered_lines();
                for rule in &d.rules {
                    let live = if rule == "docs-parity" {
                        // Crate-wide rule: match any suppressed
                        // docs-parity gap in this crate.
                        suppressed.iter().any(|s| {
                            s.rule == RuleId::DocsParity
                                && (s.path == f.path || s.path == c.manifest.0)
                        })
                    } else {
                        suppressed.iter().any(|s| {
                            s.rule.name() == rule
                                && s.path == f.path
                                && s.line >= lo
                                && s.line <= hi
                        })
                    };
                    if !live {
                        out.push(Finding {
                            path: f.path.clone(),
                            line: d.line,
                            rule: RuleId::StaleAllow,
                            message: format!(
                                "`lint:allow({rule})` no longer suppresses any finding — remove it"
                            ),
                        });
                    }
                }
            }
        }
    }
    out
}

/// Renders the findings as a machine-readable JSON document
/// (`"schema": 2` — schema 1 lacked `crates` and `callgraph_edges`).
pub fn report_json(report: &Report) -> String {
    let mut s = String::from("{\n  \"schema\": 2,\n  \"findings\": [\n");
    for (i, f) in report.findings.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"path\": {}, \"line\": {}, \"rule\": {}, \"message\": {}}}{}\n",
            json_string(&f.path),
            f.line,
            json_string(f.rule.name()),
            json_string(&f.message),
            if i + 1 < report.findings.len() {
                ","
            } else {
                ""
            }
        ));
    }
    s.push_str(&format!(
        "  ],\n  \"count\": {},\n  \"files_scanned\": {},\n  \"callgraph_edges\": {},\n  \"crates\": [{}]\n}}\n",
        report.findings.len(),
        report.files_scanned,
        report.callgraph_edges,
        report
            .crates
            .iter()
            .map(|c| json_string(c))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    s
}

/// A finding as parsed back out of a `--json` report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedFinding {
    /// Repo-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: u32,
    /// Rule name (e.g. `clock-taint`).
    pub rule: String,
    /// Human-readable message.
    pub message: String,
}

/// A `--json` report parsed back into structured form: the round-trip
/// counterpart of [`report_json`], used by consumers (CI artifact
/// tooling, the bench harness) and the round-trip test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedReport {
    /// Report schema version (2 as of this writing).
    pub schema: u64,
    /// All findings.
    pub findings: Vec<ParsedFinding>,
    /// `count` field (must equal `findings.len()`).
    pub count: u64,
    /// Number of files scanned.
    pub files_scanned: u64,
    /// Call-graph edge count.
    pub callgraph_edges: u64,
    /// Crates scanned.
    pub crates: Vec<String>,
}

/// Parses a report produced by [`report_json`]. Accepts any key order
/// and whitespace; rejects anything outside the JSON subset the report
/// uses (objects, arrays, strings, non-negative integers).
pub fn parse_report_json(s: &str) -> Result<ParsedReport, String> {
    let mut p = JsonParser {
        b: s.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.i != p.b.len() {
        return Err(format!("trailing data at byte {}", p.i));
    }
    let obj = v.as_obj().ok_or("top level is not an object")?;
    let get = |k: &str| -> Result<&Json, String> {
        obj.iter()
            .find(|(n, _)| n == k)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing key `{k}`"))
    };
    let schema = get("schema")?.as_u64().ok_or("`schema` is not a number")?;
    let count = get("count")?.as_u64().ok_or("`count` is not a number")?;
    let files_scanned = get("files_scanned")?
        .as_u64()
        .ok_or("`files_scanned` is not a number")?;
    let callgraph_edges = get("callgraph_edges")?
        .as_u64()
        .ok_or("`callgraph_edges` is not a number")?;
    let crates = get("crates")?
        .as_arr()
        .ok_or("`crates` is not an array")?
        .iter()
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .ok_or("crate is not a string")
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut findings = Vec::new();
    for f in get("findings")?
        .as_arr()
        .ok_or("`findings` is not an array")?
    {
        let fo = f.as_obj().ok_or("finding is not an object")?;
        let field = |k: &str| -> Result<&Json, String> {
            fo.iter()
                .find(|(n, _)| n == k)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("finding missing `{k}`"))
        };
        findings.push(ParsedFinding {
            path: field("path")?
                .as_str()
                .ok_or("`path` is not a string")?
                .to_string(),
            line: field("line")?.as_u64().ok_or("`line` is not a number")? as u32,
            rule: field("rule")?
                .as_str()
                .ok_or("`rule` is not a string")?
                .to_string(),
            message: field("message")?
                .as_str()
                .ok_or("`message` is not a string")?
                .to_string(),
        });
    }
    if count as usize != findings.len() {
        return Err(format!(
            "count {} does not match findings length {}",
            count,
            findings.len()
        ));
    }
    Ok(ParsedReport {
        schema,
        findings,
        count,
        files_scanned,
        callgraph_edges,
        crates,
    })
}

/// Minimal JSON value for the report subset.
enum Json {
    Num(u64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
    fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }
    fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(o) => Some(o),
            _ => None,
        }
    }
}

struct JsonParser<'a> {
    b: &'a [u8],
    i: usize,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        self.skip_ws();
        if self.i < self.b.len() && self.b[self.i] == c {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", c as char, self.i))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.b.get(self.i).copied()
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(c) if c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.i
            )),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut out = Vec::new();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            out.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(out));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.i)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            out.push(self.value()?);
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(out));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.i)),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while self.i < self.b.len() && self.b[self.i].is_ascii_digit() {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&c) = self.b.get(self.i) else {
                return Err("unterminated string".to_string());
            };
            self.i += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&e) = self.b.get(self.i) else {
                        return Err("unterminated escape".to_string());
                    };
                    self.i += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex = self
                                .b
                                .get(self.i..self.i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            self.i += 4;
                            out.push(char::from_u32(hex).ok_or("bad \\u codepoint")?);
                        }
                        _ => return Err(format!("bad escape `\\{}`", e as char)),
                    }
                }
                _ => {
                    // Multi-byte UTF-8: copy the full scalar.
                    let s = &self.b[self.i - 1..];
                    let ch_len = utf8_len(c);
                    let chunk = std::str::from_utf8(&s[..ch_len.min(s.len())])
                        .map_err(|_| "bad UTF-8 in string")?;
                    out.push_str(chunk);
                    self.i += ch_len - 1;
                }
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

/// JSON-escapes and quotes a string.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Extracts `name = "..."` from a manifest's `[package]` table.
fn package_name(manifest: &str) -> Option<String> {
    for line in manifest.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("name") {
            let rest = rest.trim_start();
            if let Some(rest) = rest.strip_prefix('=') {
                let rest = rest.trim();
                if rest.len() >= 2 && rest.starts_with('"') {
                    return rest[1..].split('"').next().map(str::to_string);
                }
            }
        }
        if line.starts_with('[') && line != "[package]" && !line.is_empty() {
            // Left the [package] table without seeing a name.
            if line.starts_with("[dependencies") || line.starts_with("[lints") {
                break;
            }
        }
    }
    None
}

fn walk_rs(dir: &Path, out: &mut BTreeSet<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let p = entry?.path();
        if p.is_dir() {
            walk_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.insert(p);
        }
    }
    Ok(())
}

fn rel_to(root: &Path, p: &Path) -> String {
    p.strip_prefix(root)
        .unwrap_or(p)
        .to_string_lossy()
        .replace('\\', "/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn package_name_parses() {
        let m = "[package]\nname = \"drs-sim\"\nversion.workspace = true\n";
        assert_eq!(package_name(m).as_deref(), Some("drs-sim"));
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn report_json_round_trips() {
        let report = Report {
            findings: vec![
                Finding {
                    path: "crates/sim/src/lib.rs".to_string(),
                    line: 42,
                    rule: RuleId::HashIter,
                    message: "iteration over `HashMap` state: `m.iter()`".to_string(),
                },
                Finding {
                    path: "crates/server/src/node.rs".to_string(),
                    line: 7,
                    rule: RuleId::ClockTaint,
                    message: "quoted \"taint\" and a\nnewline".to_string(),
                },
            ],
            suppressed: Vec::new(),
            files_scanned: 99,
            crates: vec!["drs-sim".to_string(), "drs-server".to_string()],
            callgraph_edges: 1234,
        };
        let json = report_json(&report);
        let parsed = parse_report_json(&json).expect("round-trip parse");
        assert_eq!(parsed.schema, 2);
        assert_eq!(parsed.count, 2);
        assert_eq!(parsed.files_scanned, 99);
        assert_eq!(parsed.callgraph_edges, 1234);
        assert_eq!(parsed.crates, ["drs-sim", "drs-server"]);
        assert_eq!(parsed.findings.len(), 2);
        assert_eq!(parsed.findings[0].path, "crates/sim/src/lib.rs");
        assert_eq!(parsed.findings[0].line, 42);
        assert_eq!(parsed.findings[0].rule, "hash-iter");
        assert_eq!(
            parsed.findings[1].message,
            "quoted \"taint\" and a\nnewline"
        );
    }

    #[test]
    fn stale_allow_flags_dead_directives() {
        let src = "fn f() {\n    let x = 1; // lint:allow(hash-iter)\n    x;\n}\n";
        let crates = [CrateSources {
            name: "drs-sim".to_string(),
            files: vec![FileInfo::parse("crates/sim/src/lib.rs", src)],
            lib_rs: None,
            manifest: ("crates/sim/Cargo.toml".to_string(), String::new()),
        }];
        // No suppressed findings: the directive is dead.
        let stale = check_stale_allows(&crates, &[]);
        assert_eq!(stale.len(), 1, "{stale:?}");
        assert_eq!(stale[0].rule, RuleId::StaleAllow);
        assert_eq!(stale[0].line, 2);
        assert!(stale[0].message.contains("hash-iter"));
        // A suppressed finding on a covered line keeps it live.
        let live = check_stale_allows(
            &crates,
            &[Finding {
                path: "crates/sim/src/lib.rs".to_string(),
                line: 3,
                rule: RuleId::HashIter,
                message: String::new(),
            }],
        );
        assert!(live.is_empty(), "{live:?}");
    }
}
