//! **Fleet pulse** — deterministic time-series observability across
//! the serving stack.
//!
//! Every serving runtime samples the same fleet-pulse registry
//! (`drs_metrics::MetricsRegistry`) on the **virtual clock**: queue
//! depths, GPU backlog, controller knobs, and DRR lane deficits tick
//! at a fixed virtual interval, so two runs of the same seed export
//! byte-identical series. Alongside the series ride two structured
//! event logs: one [`ControlDecision`] per online-controller retune
//! (trigger, window scores, hysteresis streak, old → new knob) and one
//! [`DrrRound`] per arbiter grant. This binary exercises all of it:
//!
//! 1. **diurnal overlay** — a day of load ramping around its mean on a
//!    GPU-attached node with the online controller live; the sampled
//!    queue/backlog/knob timelines print against the offered rate, and
//!    the decision log pins *when* and *why* the controller moved as
//!    the load shifted;
//! 2. **multi-tenant lanes** — two co-located tenants behind the DRR
//!    arbiter; the grant log and per-lane deficit series expose the
//!    bandwidth split;
//! 3. **exports** — the same run rendered as JSONL and Prometheus text
//!    exposition, re-parsed to prove the exposition lossless, and
//!    re-served to prove the bytes seed-deterministic.
//!
//! `--real` adds the cross-runtime validation axis: an offload-all
//! stream is paced onto physical engine workers and the virtual-clock
//! sampled series must equal the virtual run's, bit for bit.

use deeprecsys::prelude::*;
use deeprecsys::table::{fmt3, TextTable};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn diurnal_queries(
    base_qps: f64,
    amplitude: f64,
    period_s: f64,
    n: usize,
    seed: u64,
) -> Vec<deeprecsys::query::Query> {
    QueryGenerator::new(
        ArrivalProcess::diurnal(base_qps, amplitude, period_s),
        SizeDistribution::production(),
        seed,
    )
    .take(n)
    .collect()
}

/// Prints roughly `rows` evenly spaced sample rows as a timeline table,
/// overlaying the offered diurnal rate at each sample instant.
fn timeline_table(
    pulse: &PulseRecorder,
    base_qps: f64,
    amplitude: f64,
    period_s: f64,
    rows: usize,
) -> TextTable {
    let samples = pulse.registry().samples();
    let mut t = TextTable::new(vec![
        "t (s)",
        "offered qps",
        "queue depth",
        "gpu backlog (ms)",
        "batch knob",
        "gpu threshold",
        "window p95 (ms)",
        "completed",
    ]);
    let step = (samples.len() / rows).max(1);
    for s in samples.iter().step_by(step) {
        let ts = s.t_ns as f64 / 1e9;
        let offered =
            base_qps * (1.0 + amplitude * (2.0 * std::f64::consts::PI * ts / period_s).sin());
        t.row(vec![
            format!("{ts:.2}"),
            format!("{offered:.0}"),
            format!("{:.0}", s.get("queue_depth_n0").unwrap_or(0.0)),
            fmt3(s.get("gpu_backlog_ns_n0").unwrap_or(0.0) / 1e6),
            format!("{:.0}", s.get("max_batch_n0_t0").unwrap_or(0.0)),
            format!("{:.0}", s.get("gpu_threshold_n0_t0").unwrap_or(-1.0)),
            fmt3(s.get("latency_ms_p95").unwrap_or(0.0)),
            format!("{:.0}", s.get("completed_total").unwrap_or(0.0)),
        ]);
    }
    t
}

fn main() {
    let opts = drs_bench::parse_args();
    drs_bench::header(
        "Fleet pulse — virtual-clock time-series metrics and the controller decision log",
        "production recommendation fleets are tuned from time-series telemetry (queue \
         depths, knob trajectories, per-lane bandwidth); DeepRecSys's diurnal study \
         (Figure 13) hinges on *when* the tuner moved — the decision log makes every \
         retune a structured, replayable event",
        &opts,
    );
    let seed = opts.search.seed;

    // ── 1. Diurnal overlay: one GPU node, controller live ───────────
    let cfg = zoo::dlrm_rmc1();
    let workers = 40;
    let base_qps = opts.pick(900.0, 700.0, 300.0);
    let amplitude = 0.6;
    let day_s = opts.pick(120.0, 20.0, 3.0);
    let n = opts.pick(80_000, 12_000, 800);
    let queries = diurnal_queries(base_qps, amplitude, day_s, n, seed);
    let controller_cfg = if opts.mode == drs_bench::Mode::Smoke {
        ControllerConfig::smoke()
    } else {
        ControllerConfig::standard()
    };
    let server = Server::new(
        &cfg,
        CpuPlatform::skylake(),
        Some(GpuPlatform::gtx_1080ti()),
        ServerOptions::new(workers, SchedulerPolicy::with_gpu(4, 192))
            .with_controller(controller_cfg),
    );
    // ~240 samples over the day, whatever the profile.
    let interval_ns = ((day_s * 1e9) / 240.0) as u64;
    let mut pulse = PulseRecorder::new(interval_ns.max(1));
    let report = server.serve(&queries, Serve::virtual_time().pulsed(&mut pulse));
    let summary = report.pulse.clone().expect("pulsed run summarizes");

    println!(
        "## Diurnal day — DLRM-RMC1 + GPU, {n} queries, +/-{:.0}% around {base_qps:.0} QPS over {day_s} s\n",
        100.0 * amplitude
    );
    println!(
        "{} samples every {:.1} ms of virtual time; peak sampled queue depth {:.0}\n",
        summary.samples,
        interval_ns as f64 / 1e6,
        summary.peak_queue_depth
    );
    println!("{}", timeline_table(&pulse, base_qps, amplitude, day_s, 12));

    // ── Controller decision log ─────────────────────────────────────
    println!("## Controller decision log — every retune, attributed\n");
    if pulse.decisions().is_empty() {
        println!("(no retunes: the controller never saw a drifted window at this scale)\n");
    } else {
        let mut t = TextTable::new(vec![
            "t (s)",
            "trigger",
            "rate (window/settled)",
            "p95 ms (window/settled)",
            "streak",
            "batch knob",
            "ladder",
        ]);
        for d in pulse.decisions() {
            t.row(vec![
                format!("{:.2}", d.t_ns as f64 / 1e9),
                d.trigger.label().to_string(),
                format!("{:.0}/{:.0}", d.rate_qps, d.settled_rate_qps),
                format!("{}/{}", fmt3(d.p95_ms), fmt3(d.settled_p95_ms)),
                d.streak.to_string(),
                format!("{} -> {}", d.old_max_batch, d.new_max_batch),
                if d.downward { "walk-down" } else { "climb" }.to_string(),
            ]);
        }
        println!("{t}");
    }
    assert_eq!(
        pulse.decisions().len() as u64,
        report.retunes,
        "every controller retune logs exactly one decision"
    );

    // ── 2. Multi-tenant DRR lanes ───────────────────────────────────
    let spec = MultiModelSpec::new(vec![
        TenantSpec::new(zoo::dlrm_rmc1(), SchedulerPolicy::cpu_only(256)),
        TenantSpec::new(zoo::wide_and_deep(), SchedulerPolicy::cpu_only(64)).with_weight(2),
    ]);
    let mt = Server::new_multi(
        &spec,
        CpuPlatform::skylake(),
        None,
        ServerOptions::new(workers, SchedulerPolicy::cpu_only(256)),
    );
    let mt_n = opts.pick(24_000, 6_000, 600);
    let mt_queries: Vec<_> = MixedStream::new(vec![
        QueryGenerator::new(
            ArrivalProcess::poisson(700.0),
            SizeDistribution::production(),
            seed,
        ),
        QueryGenerator::new(
            ArrivalProcess::poisson(300.0),
            SizeDistribution::production(),
            seed ^ 0x5bd1_e995,
        ),
    ])
    .take(mt_n)
    .collect();
    let mut mt_pulse = PulseRecorder::new(2_000_000); // 2 ms ticks
    let mt_report = mt.serve(&mt_queries, Serve::virtual_time().pulsed(&mut mt_pulse));
    let grants = mt_pulse.drr_rounds();
    let mut per_lane = [0u64; 2];
    for g in grants {
        per_lane[g.lane] += 1;
    }
    println!("## Multi-tenant — RMC1 + WND (weight 2) behind DRR lanes, {mt_n} queries\n");
    println!(
        "{} DRR grants logged: lane 0 (RMC1) won {}, lane 1 (WND, 2x weight) won {}; \
         final logged deficits {:?}\n",
        grants.len(),
        per_lane[0],
        per_lane[1],
        grants
            .last()
            .map(|g| g.deficits.clone())
            .unwrap_or_default()
    );
    assert!(
        !grants.is_empty(),
        "a multi-tenant run must log arbiter grants"
    );
    assert!(mt_report.completed > 0);

    // ── 3. Exports: JSONL, Prometheus, determinism ──────────────────
    let jsonl = pulse.registry().to_jsonl();
    let prom = pulse.registry().to_prometheus();
    let decisions = pulse.decisions_jsonl();
    println!("## Exports\n");
    println!(
        "- series JSONL: {} rows, {} bytes",
        jsonl.lines().count(),
        jsonl.len()
    );
    println!(
        "- decision log JSONL: {} rows, {} bytes",
        decisions.lines().count(),
        decisions.len()
    );
    println!("- Prometheus exposition: {} bytes", prom.len());
    let parsed = parse_prometheus(&prom).expect("exposition parses");
    assert_eq!(
        parsed.render(),
        prom,
        "Prometheus exposition must round-trip byte-identically"
    );
    println!(
        "- exposition re-parsed: {} families, {} points, re-render byte-identical",
        parsed.families.len(),
        parsed.points()
    );
    let out_dir = std::env::temp_dir();
    let jsonl_path = out_dir.join("fig_fleet_pulse_series.jsonl");
    let prom_path = out_dir.join("fig_fleet_pulse.prom");
    std::fs::write(&jsonl_path, &jsonl).expect("write series JSONL");
    std::fs::write(&prom_path, &prom).expect("write Prometheus exposition");
    println!(
        "- written to {} and {}",
        jsonl_path.display(),
        prom_path.display()
    );

    // Same seed, fresh recorder: the exported bytes must not move.
    let mut rerun = PulseRecorder::new(interval_ns.max(1));
    let _ = server.serve(&queries, Serve::virtual_time().pulsed(&mut rerun));
    assert_eq!(
        rerun.registry().to_jsonl(),
        jsonl,
        "same-seed rerun drifted the JSONL export"
    );
    assert_eq!(
        rerun.decisions_jsonl(),
        decisions,
        "same-seed rerun drifted the decision log"
    );
    println!("- same-seed rerun: JSONL and decision log byte-identical\n");

    if opts.real {
        real_series_validation(seed, &opts);
    }
}

/// `--real`: pace an offload-all stream onto physical engine workers
/// and require the virtual-clock sampled series to equal the virtual
/// run's — the PR 6 span-level cross-validation axis, extended to time
/// series. Ticks fire only on model-time events in the real runtime,
/// so sample instants and sampled values line up exactly.
fn real_series_validation(seed: u64, opts: &drs_bench::ExpOptions) {
    println!("\n## Real-engine cross-validation (--real): sampled series\n");
    let cfg = zoo::dlrm_rmc1();
    let n = opts.pick(4_000, 1_200, 240);
    let qs: Vec<_> = QueryGenerator::new(
        ArrivalProcess::poisson(300.0),
        SizeDistribution::production(),
        seed,
    )
    .take(n)
    .collect();
    let mut so = ServerOptions::new(2, SchedulerPolicy::with_gpu(64, 0));
    so.seed = seed;
    so.warmup_frac = 0.0;
    so.time_scale = 8.0;
    let server = Server::new(
        &cfg,
        CpuPlatform::skylake(),
        Some(GpuPlatform::gtx_1080ti()),
        so,
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let model = Arc::new(RecModel::instantiate(&cfg, ModelScale::tiny(), &mut rng));

    let mut virt_pulse = PulseRecorder::new(2_000_000); // 2 ms ticks
    let mut real_pulse = PulseRecorder::new(2_000_000);
    let virt = server.serve(&qs, Serve::virtual_time().pulsed(&mut virt_pulse));
    let real = server.serve(&qs, Serve::real(vec![model]).pulsed(&mut real_pulse));

    assert_eq!(
        virt_pulse.registry().samples().len(),
        real_pulse.registry().samples().len(),
        "virtual and real runs must tick the same number of samples"
    );
    // Every series, the window quantiles too: the sketches behind them
    // do not depend on the order same-instant completions drain in.
    let keys = virt_pulse.registry().keys();
    for key in &keys {
        assert_eq!(
            virt_pulse.registry().series(key),
            real_pulse.registry().series(key),
            "series `{key}` drifted between virtual and offload-all real runs"
        );
    }
    println!(
        "{n} queries fully offloaded, time compressed 8x: {} samples x {} series \
         bit-exact (virtual p95 {} ms, real p95 {} ms)",
        virt_pulse.registry().samples().len(),
        keys.len(),
        fmt3(virt.latency.p95_ms),
        fmt3(real.latency.p95_ms)
    );
}
