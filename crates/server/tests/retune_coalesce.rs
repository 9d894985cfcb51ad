//! Regression: a controller retune that lands mid-coalesce must not
//! strand the open residual until the coalesce window it was buffered
//! under expires.
//!
//! The push paths re-arm the coalesce event whenever an arrival opens
//! a fresh buffer (the `deadline_before` pattern in `node.rs`); the
//! retune path's obligation is the dual: when the controller moves the
//! knob, the open residual was buffered under assumptions that no
//! longer hold, so the retune flushes it into the reform repack —
//! collapsing its remaining window to *now* — and re-arms against the
//! post-retune `BatchQueue::deadline()`. Before that fix, a residual
//! coalescing under a long window would sit out the full window even
//! though the lane had already been re-tuned and had idle workers.

use drs_core::{SchedulerPolicy, ServingStack};
use drs_models::zoo;
use drs_platform::CpuPlatform;
use drs_query::Trace;
use drs_server::{ControllerConfig, Server, ServerOptions};

/// One-second coalesce window, a controller whose first window close
/// retunes the batch knob (ladder [2, 4]), and a size-3 query whose
/// 1-item residual is mid-coalesce when the retune fires.
#[test]
fn retune_mid_coalesce_flushes_the_open_residual() {
    let window = 8;
    let cfg = ControllerConfig {
        window,
        batch_ladder: vec![2, 4],
        ..ControllerConfig::standard()
    };
    let mut opts = ServerOptions::new(4, SchedulerPolicy::cpu_only(2)).with_controller(cfg);
    opts.warmup_frac = 0.0;
    // A one-second coalesce window: stranded residuals are unmissable.
    opts.batching.coalesce_timeout_us = 1_000_000.0;

    // Eight size-2 queries close the first control window (each is one
    // full chunk at the ladder base of 2 — no residuals); the size-3
    // query between them banks a 1-item residual in the coalesce
    // buffer. The 8th completion closes the window, the climb steps
    // 2 -> 4, and the retune must flush that residual rather than
    // leave it waiting out the remaining ~993 ms.
    let mut pairs: Vec<(f64, u32)> = (0..7).map(|i| (i as f64 * 1e-3, 2)).collect();
    pairs.push((6.5e-3, 3));
    pairs.push((7e-3, 2));
    let trace = Trace::from_pairs(&pairs);

    let server = Server::new(&zoo::ncf(), CpuPlatform::skylake(), None, opts);
    let r = server.serve_trace(&trace);

    assert_eq!(r.completed, 9, "every query completes");
    assert!(
        r.retunes == 0,
        "the knob move is the initial climb, not a settled-phase retune"
    );
    assert!(
        r.final_policy.max_batch >= 4,
        "the climb moved the knob: {:?}",
        r.final_policy
    );
    // The stranded-residual symptom: without the retune-path flush the
    // size-3 query completes only when the 1 s window expires, pushing
    // its latency (and the run's max) past 990 ms. With the fix every
    // latency stays in the service-time regime.
    assert!(
        r.latency.max_ms < 500.0,
        "residual stranded mid-coalesce: max latency {} ms",
        r.latency.max_ms
    );
    assert_eq!(
        r.timeout_flushes, 0,
        "nothing should be left to the coalesce timer in this run"
    );
}
