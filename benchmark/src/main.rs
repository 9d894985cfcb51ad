//! The repository's benchmark: end-to-end latency and throughput of the
//! real serving path on zoo models, host speed of the virtual-time stack,
//! and a per-layer trace taken from outside the program. `README.md` in
//! this directory lists the workloads, the metrics and how to run it;
//! `BENCHMARK.json` at the root of the repository declares them.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1   one run
//! benchmark [--seed N] [--seconds S] [--out FILE]               every workload, both modes
//! benchmark --selfcheck [--seed N] [--seconds S]                the suite twice, compared
//! benchmark --compare A.json B.json                             two result files
//! ```

mod fleet;
mod json;
mod oracle;
mod probe;
mod real;
mod replay;
mod run;
mod spec;
mod stats;
mod stream;
mod suite;

use spec::{Scale, Spec};
use std::process::ExitCode;

/// Parsed command line.
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out: Option<String>,
    trace_out: Option<String>,
    selfcheck: bool,
    compare: Option<(String, String)>,
    write_goldens: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 17,
        seconds: None,
        trace: false,
        smoke: false,
        out: None,
        trace_out: None,
        selfcheck: false,
        compare: None,
        write_goldens: false,
    };
    let mut it = argv.iter();
    let value = |it: &mut std::slice::Iter<String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => a.workload = Some(value(&mut it, flag)?),
            "--seed" => {
                a.seed = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value(&mut it, flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--smoke" => a.smoke = true,
            "--out" => a.out = Some(value(&mut it, flag)?),
            "--trace-out" => a.trace_out = Some(value(&mut it, flag)?),
            "--selfcheck" => a.selfcheck = true,
            "--compare" => a.compare = Some((value(&mut it, flag)?, value(&mut it, flag)?)),
            "--write-goldens" => a.write_goldens = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = Spec::embedded();
    let ok = if let Some((a, b)) = &args.compare {
        suite::compare_files(&spec, a, b)
    } else if args.write_goldens {
        write_goldens(&spec)
    } else {
        // `--smoke` alone means the shortest run that still takes every path.
        let seconds = args
            .seconds
            .unwrap_or(if args.smoke { 1.0 } else { spec.run_seconds });
        let scale = Scale::new(seconds, args.smoke);
        match &args.workload {
            Some(name) => run::one(
                &spec,
                name,
                args.seed,
                scale,
                args.trace,
                args.trace_out.as_deref(),
            ),
            None if args.selfcheck => suite::selfcheck(&spec, args.seed, scale),
            None => suite::run(&spec, args.seed, scale, args.out.as_deref()).map(|_| ()),
        }
    };
    match ok {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

fn write_goldens(spec: &Spec) -> Result<(), String> {
    let mut done = std::collections::BTreeSet::new();
    for (name, _) in &spec.workloads {
        let w = spec::workload(name).ok_or_else(|| format!("unknown workload {name}"))?;
        for t in &w.tenants {
            if done.insert(t.model.name) {
                let path = oracle::write_golden(&t.model).map_err(|e| e.to_string())?;
                println!("wrote {path}");
            }
        }
    }
    Ok(())
}
