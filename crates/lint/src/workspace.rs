//! Workspace discovery and the full analysis driver.
//!
//! Walks `crates/*/src/**/*.rs` (vendored stand-ins under `vendor/`,
//! integration tests, and the lint fixtures are outside that scope by
//! construction), runs the sink-guard passes on the crates that record
//! spans and pulses, runs the interprocedural taint engine over all of
//! them, and audits every `lint:allow` directive for staleness.

use crate::parse::FileInfo;
use crate::rules::{check_metrics_guard, check_telemetry_guard, Finding, RuleId, RuleOutput};
use crate::symbols::CrateView;
use crate::taint::check_taint;
use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// Crates that legitimately read the wall clock (R7 exemption): the
/// real execution engine and the benchmark harness.
pub const WALL_CLOCK_EXEMPT: &[&str] = &["drs-engine", "drs-bench"];
/// Crates whose `TraceSink`/`MetricsSink` record sites must be guarded
/// (R4, R6).
const SINK_GUARD_CRATES: &[&str] = &["drs-server", "drs-engine"];

/// One workspace crate: its name and parsed sources.
pub struct CrateSources {
    /// Package name from `Cargo.toml`.
    pub name: String,
    /// Parsed `src/**/*.rs` files, in path order.
    pub files: Vec<FileInfo>,
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
        let manifest_src = fs::read_to_string(dir.join("Cargo.toml"))?;
        let name = package_name(&manifest_src)
            .unwrap_or_else(|| dir.file_name().unwrap().to_string_lossy().into_owned());
        let src_dir = dir.join("src");
        let mut files = Vec::new();
        if src_dir.is_dir() {
            let mut paths: BTreeSet<PathBuf> = BTreeSet::new();
            walk_rs(&src_dir, &mut paths)?;
            for p in paths {
                let src = fs::read_to_string(&p)?;
                files.push(FileInfo::parse(&rel_to(root, &p), &src));
            }
        }
        out.push(CrateSources { name, files });
    }
    Ok(out)
}

/// Runs every rule pass over the workspace rooted at `root`.
pub fn analyze_workspace(root: &Path) -> std::io::Result<Report> {
    let crates = discover(root)?;
    let mut out = RuleOutput::default();
    for c in &crates {
        if SINK_GUARD_CRATES.contains(&c.name.as_str()) {
            for f in &c.files {
                out.merge(check_telemetry_guard(f));
                out.merge(check_metrics_guard(f));
            }
        }
    }
    // The taint engine runs its global fixpoint over all crates at once.
    let views: Vec<CrateView> = crates
        .iter()
        .map(|c| CrateView {
            name: c.name.clone(),
            files: &c.files,
        })
        .collect();
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
        files_scanned: crates.iter().map(|c| c.files.len()).sum(),
        crates: crates.iter().map(|c| c.name.clone()).collect(),
    })
}

/// The allow-audit meta-rule: every `// lint:allow(<rule>)` directive
/// must still be earning its keep — i.e. some finding of that rule
/// must have been suppressed on a line it covers. A directive whose
/// excused code has since been fixed or deleted is itself a finding
/// (`stale-allow`), and it cannot be allowlisted away.
pub fn check_stale_allows(crates: &[CrateSources], suppressed: &[Finding]) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in crates.iter().flat_map(|c| &c.files) {
        for d in &f.allow_directives {
            let [lo, hi] = d.covered_lines();
            for rule in &d.rules {
                let live = suppressed.iter().any(|s| {
                    s.rule.name() == rule && s.path == f.path && s.line >= lo && s.line <= hi
                });
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
    fn stale_allow_flags_dead_directives() {
        let src = "fn f() {\n    let x = 1; // lint:allow(clock-taint)\n    x;\n}\n";
        let crates = [CrateSources {
            name: "drs-sim".to_string(),
            files: vec![FileInfo::parse("crates/sim/src/lib.rs", src)],
        }];
        // No suppressed findings: the directive is dead.
        let stale = check_stale_allows(&crates, &[]);
        assert_eq!(stale.len(), 1, "{stale:?}");
        assert_eq!(stale[0].rule, RuleId::StaleAllow);
        assert_eq!(stale[0].line, 2);
        assert!(stale[0].message.contains("clock-taint"));
        // A suppressed finding on a covered line keeps it live.
        let live = check_stale_allows(
            &crates,
            &[Finding {
                path: "crates/sim/src/lib.rs".to_string(),
                line: 3,
                rule: RuleId::ClockTaint,
                message: String::new(),
            }],
        );
        assert!(live.is_empty(), "{live:?}");
    }
}
