//! The whole suite: every workload with tracing off and on, each run in a
//! fresh child process so that no run inherits another's caches, heap or
//! peak memory; `--selfcheck`, which runs the suite twice and compares;
//! and `--compare`, which judges two result files by the declared bounds.

use crate::json::{self, Json};
use crate::spec::{Better, MetricDecl, Scale, Spec};
use std::process::{Command, Stdio};

/// Runs one workload in a child process; returns its result object and
/// its within-run spreads.
fn child(workload: &str, seed: u64, scale: Scale, trace: bool) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &scale.seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stdout(Stdio::piped());
    if scale.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    print!("{text}");
    let line = text
        .lines()
        .last()
        .ok_or_else(|| format!("{workload}: the run printed nothing"))?;
    let result = json::parse(line).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    let spread = text
        .lines()
        .find_map(|l| l.strip_prefix("# spread "))
        .and_then(|s| json::parse(s).ok())
        .unwrap_or(Json::Obj(Vec::new()));
    if !out.status.success() && result.get("correct").and_then(Json::as_bool) != Some(false) {
        return Err(format!("{workload}: the run ended with {}", out.status));
    }
    Ok((result, spread))
}

/// Runs every workload, tracing off then on; returns the results
/// document and writes it to `out` when given. `Err` if any run was not
/// correct.
pub(crate) fn run(spec: &Spec, seed: u64, scale: Scale, out: Option<&str>) -> Result<Json, String> {
    let mut runs = Vec::new();
    let mut incorrect = Vec::new();
    for (workload, why) in &spec.workloads {
        println!("## {workload}: {why}");
        for trace in [false, true] {
            let (result, spread) = child(workload, seed, scale, trace)?;
            if result.get("correct").and_then(Json::as_bool) != Some(true) {
                incorrect.push(format!("{workload} (trace {})", u8::from(trace)));
            }
            runs.push(Json::Obj(vec![
                ("workload".into(), Json::Str(workload.clone())),
                ("trace".into(), Json::Num(f64::from(u8::from(trace)))),
                ("result".into(), result),
                ("spread".into(), spread),
            ]));
        }
    }
    let doc = Json::Obj(vec![
        ("seed".into(), Json::Num(seed as f64)),
        ("seconds".into(), Json::Num(scale.seconds)),
        ("runs".into(), Json::Arr(runs)),
    ]);
    if let Some(path) = out {
        std::fs::write(path, doc.render() + "\n")
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("## results written to {path}");
    }
    if incorrect.is_empty() {
        Ok(doc)
    } else {
        Err(format!(
            "outputs were not correct in: {}",
            incorrect.join(", ")
        ))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    Ok,
    Worse,
    /// The spread recorded inside a run exceeds the bound: the metric
    /// cannot tell a change of that size from noise.
    Unresolved,
}

/// One row of a comparison: `b` against base `a`.
#[derive(Debug, Clone)]
pub(crate) struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

impl Row {
    /// How much worse `b` is than `a`, as a share of `a`; negative when
    /// it is better.
    fn worsening(a: f64, b: f64, better: Better) -> f64 {
        match better {
            Better::Lower => b / a - 1.0,
            Better::Higher => 1.0 - b / a,
        }
    }
}

fn metric_value(run: &Json, name: &str) -> Option<f64> {
    run.get("result")?
        .get("metrics")?
        .get(name)?
        .get("value")?
        .as_f64()
}

fn find_run<'a>(doc: &'a Json, workload: &str, trace: bool) -> Option<&'a Json> {
    doc.get("runs")?.as_arr().iter().find(|r| {
        r.get("workload").and_then(Json::as_str) == Some(workload)
            && r.get("trace").and_then(Json::as_f64) == Some(f64::from(u8::from(trace)))
    })
}

/// Every workload × end-to-end metric of `b` judged against `a`.
pub(crate) fn compare(spec: &Spec, a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for (workload, _) in &spec.workloads {
        let missing = |which| format!("{which} has no end-to-end run of {workload}");
        let ra = find_run(a, workload, false).ok_or_else(|| missing("the first file"))?;
        let rb = find_run(b, workload, false).ok_or_else(|| missing("the second file"))?;
        for MetricDecl {
            name,
            better,
            bound,
            ..
        } in &spec.end_to_end
        {
            let bound = bound.expect("end-to-end metrics carry a bound");
            let value =
                |r| metric_value(r, name).ok_or_else(|| format!("{workload}: no value of {name}"));
            let (va, vb) = (value(ra)?, value(rb)?);
            let spread = |r: &Json| {
                r.get("spread")
                    .and_then(|s| s.get(name))
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0)
            };
            let verdict = if spread(ra).max(spread(rb)) > bound {
                Verdict::Unresolved
            } else if Row::worsening(va, vb, *better) > bound {
                Verdict::Worse
            } else {
                Verdict::Ok
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: name.clone(),
                a: va,
                b: vb,
                bound,
                verdict,
            });
        }
    }
    Ok(rows)
}

/// Per-layer canaries whose counts differ between the two files.
fn canary_differences(spec: &Spec, a: &Json, b: &Json) -> Vec<String> {
    let mut out = Vec::new();
    for (workload, _) in &spec.workloads {
        let (Some(ra), Some(rb)) = (find_run(a, workload, true), find_run(b, workload, true))
        else {
            continue;
        };
        for m in spec
            .per_layer
            .iter()
            .filter(|m| m.name.contains(".canary_"))
        {
            let (va, vb) = (metric_value(ra, &m.name), metric_value(rb, &m.name));
            if va != vb {
                out.push(format!("{workload} {}: {va:?} vs {vb:?}", m.name));
            }
        }
    }
    out
}

fn print_rows(rows: &[Row]) {
    println!(
        "{:<16} {:<22} {:>14} {:>14} {:>10} {:>7}  verdict",
        "workload", "metric", "A (base)", "B", "B/A", "bound"
    );
    for r in rows {
        println!(
            "{:<16} {:<22} {:>14.5} {:>14.5} {:>10.4} {:>6.0}%  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.b / r.a,
            r.bound * 100.0,
            match r.verdict {
                Verdict::Ok => "ok",
                Verdict::Worse => "worse",
                Verdict::Unresolved => "unresolved",
            }
        );
    }
}

fn read(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Prints one row per workload × metric of `b` against base `a`. `Err`
/// when `b` is worse than `a` anywhere, or a canary count moved.
fn judge(spec: &Spec, a: &Json, b: &Json) -> Result<(), String> {
    let rows = compare(spec, a, b)?;
    print_rows(&rows);
    let canaries = canary_differences(spec, a, b);
    for c in &canaries {
        println!("canary moved: {c}");
    }
    let worse = rows.iter().filter(|r| r.verdict == Verdict::Worse).count();
    if worse > 0 || !canaries.is_empty() {
        return Err(format!(
            "{worse} metric(s) worse than the base by more than their bound, {} canary count(s) moved",
            canaries.len()
        ));
    }
    Ok(())
}

/// `--compare A B`.
pub(crate) fn compare_files(spec: &Spec, a: &str, b: &str) -> Result<(), String> {
    judge(spec, &read(a)?, &read(b)?)
}

/// `--selfcheck`: two suites of the same tree must agree within the
/// benchmark's own bounds whichever is taken as the base, and repeat every
/// canary.
pub(crate) fn selfcheck(spec: &Spec, seed: u64, scale: Scale) -> Result<(), String> {
    let first = run(spec, seed, scale, None)?;
    let second = run(spec, seed, scale, None)?;
    println!("## second suite against the first");
    let forward = judge(spec, &first, &second);
    println!("## first suite against the second");
    forward.and(judge(spec, &second, &first))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(spec: &Spec, scale_value: f64, spread: f64) -> Json {
        let runs = spec
            .workloads
            .iter()
            .map(|(w, _)| {
                let metrics = spec
                    .end_to_end
                    .iter()
                    .map(|m| {
                        let unit = Json::Str(m.unit.clone());
                        (
                            m.name.clone(),
                            Json::Obj(vec![
                                ("value".into(), Json::Num(10.0 * scale_value)),
                                ("unit".into(), unit),
                            ]),
                        )
                    })
                    .collect();
                let spreads = spec
                    .end_to_end
                    .iter()
                    .map(|m| (m.name.clone(), Json::Num(spread)))
                    .collect();
                Json::Obj(vec![
                    ("workload".into(), Json::Str(w.clone())),
                    ("trace".into(), Json::Num(0.0)),
                    (
                        "result".into(),
                        Json::Obj(vec![("metrics".into(), Json::Obj(metrics))]),
                    ),
                    ("spread".into(), Json::Obj(spreads)),
                ])
            })
            .collect();
        Json::Obj(vec![("runs".into(), Json::Arr(runs))])
    }

    #[test]
    fn compare_judges_by_direction_bound_and_spread() {
        let spec = Spec::embedded();
        let base = doc(&spec, 1.0, 0.0);
        assert!(compare(&spec, &base, &base)
            .unwrap()
            .iter()
            .all(|r| r.verdict == Verdict::Ok));
        // Everything 30 % larger: worse where lower is better, fine where
        // higher is better.
        for row in compare(&spec, &base, &doc(&spec, 1.3, 0.0)).unwrap() {
            let decl = spec
                .end_to_end
                .iter()
                .find(|m| m.name == row.metric)
                .unwrap();
            let expected = if decl.better == Better::Lower {
                Verdict::Worse
            } else {
                Verdict::Ok
            };
            assert_eq!(row.verdict, expected, "{}", row.metric);
        }
        // A within-run spread above the bound cannot resolve anything.
        assert!(compare(&spec, &base, &doc(&spec, 1.3, 0.5))
            .unwrap()
            .iter()
            .all(|r| r.verdict == Verdict::Unresolved));
        // The results document survives the writer and the parser.
        assert_eq!(json::parse(&base.render()).unwrap(), base);
    }
}
