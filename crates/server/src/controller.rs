//! The online scheduling controller: DeepRecSched's hill climb, run
//! against the live tail instead of a simulator.
//!
//! The offline tuner (`drs-sched`) evaluates each candidate knob with
//! a full simulated QPS search. At serving time no such oracle exists;
//! what the server *can* measure is its own completion rate and tail
//! latency. The controller samples both over fixed-size windows of
//! completed queries, scores each window as
//! `(completions/arrivals) · (1 + 1/(1 + p95_ms))`, and feeds
//! the scores to the exact same [`drs_core::LadderClimb`] stepping
//! rules the offline tuner uses — batch size first, then (with an
//! accelerator) the GPU query-size threshold, mirroring the two-phase
//! structure of Section IV-C. Once settled it keeps watching the
//! arrival rate and the tail, and restarts a *local* climb anchored at
//! the incumbent — upward when load rose, walking back down when load
//! fell or the tail shows the last climb over-committed — which is the
//! paper's diurnal retuning scenario (Figure 13).
//!
//! Why that score and not plain `1/p95`: early rungs of the climb can
//! be *underprovisioned* (a unit batch at production load), and the
//! backlog they build inflates the measured tail of every window that
//! follows — a naive latency score would crown whichever rung ran
//! first. The sustained-fraction factor measures whether a rung keeps
//! up with offered load even while a backlog drains (an overloaded
//! rung completes fewer queries than arrive), and dividing by the
//! window's own arrival rate keeps a diurnal trend from biasing the
//! comparison between rungs measured at different phases of the
//! cycle. Deliberately uncapped: while a backlog drains, a
//! high-capacity rung completes *more* queries than arrive and must
//! outscore the underprovisioned rung that built the backlog. The
//! bounded latency factor (at most 2×) breaks ties between rungs that
//! all keep up, favouring the lower tail.

use drs_core::{
    canonical_batch_ladder, canonical_threshold_ladder, LadderClimb, SchedulerPolicy, SimTime,
    NS_PER_SEC,
};
use drs_metrics::LatencyRecorder;
use drs_telemetry::{ControlDecision, RetuneTrigger};

/// Tuning parameters of the online controller.
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Completed queries per control window (one climb observation).
    pub window: usize,
    /// Candidate batch sizes, ascending.
    pub batch_ladder: Vec<u32>,
    /// Candidate GPU query-size thresholds, ascending (climbed only
    /// when the node has an accelerator).
    pub threshold_ladder: Vec<u32>,
    /// Consecutive non-improving rungs tolerated before settling.
    pub patience: usize,
    /// Relative score improvement required to displace the incumbent.
    pub rel_tol: f64,
    /// Relative arrival-rate drift (vs. the rate at settle time) that
    /// triggers a re-tune.
    pub shift_tolerance: f64,
    /// Consecutive out-of-band windows required before a re-climb
    /// triggers. At the default of 2, one noisy window (a burst of
    /// large queries, a scheduling hiccup) cannot thrash the knobs —
    /// only a *sustained* shift retunes.
    pub hysteresis: usize,
    /// The p95 target the score normalizes latency against: a rung at
    /// a tenth of the SLA scores visibly better than one at half of
    /// it, while sub-millisecond differences stay inside `rel_tol`.
    pub sla_ms: f64,
    /// Confidence weighting: discard the first window closed after a
    /// re-tune from the online score. That window straddles the
    /// policy switch — its completions mix the old knob's in-flight
    /// backlog with the new rung's behaviour — and scoring it poisons
    /// the re-climb's anchor rung, which then mis-ranks against the
    /// clean windows that follow (ROADMAP "controller hardening").
    pub discard_transition_window: bool,
}

impl ControllerConfig {
    /// Serving-grade defaults: 200-query windows, the offline tuner's
    /// canonical ladders, ±25 % load-shift tolerance, two consecutive
    /// out-of-band windows before a re-climb.
    pub fn standard() -> Self {
        ControllerConfig {
            window: 200,
            batch_ladder: canonical_batch_ladder(),
            threshold_ladder: canonical_threshold_ladder(),
            patience: 1,
            rel_tol: 0.05,
            shift_tolerance: 0.25,
            hysteresis: 2,
            sla_ms: 100.0,
            discard_transition_window: true,
        }
    }

    /// Sets the p95 target the latency score is normalized against.
    pub fn with_sla_ms(mut self, sla_ms: f64) -> Self {
        assert!(sla_ms > 0.0, "SLA must be positive");
        self.sla_ms = sla_ms;
        self
    }

    /// Small windows for smoke tests: converges in a few hundred
    /// queries; the numbers are statistically weak.
    pub fn smoke() -> Self {
        ControllerConfig {
            window: 40,
            ..ControllerConfig::standard()
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    TuningBatch,
    TuningThreshold,
    Settled,
}

/// The tail of `full` starting `below` rungs under the rung holding
/// `current` — the cheap local re-climb used after load shifts
/// (diving deep under live load risks piloting an underprovisioned
/// knob and building backlog on every diurnal swing).
fn anchored_ladder(full: &[u32], current: u32, below: usize) -> Vec<u32> {
    let pos = full
        .iter()
        .position(|&v| v >= current)
        .unwrap_or(full.len() - 1);
    full[pos.saturating_sub(below)..].to_vec()
}

/// The rungs of `full` from the one holding `current` down through at
/// most `depth` rungs below it — the walk-down used when load falls or
/// an over-climbed knob should be re-judged on clean measurements.
///
/// The descent is depth-bounded on purpose: piloting the ladder's
/// bottom rungs (unit-ish batches) under live load builds real backlog
/// that poisons every window after the walk-down, including the next
/// settle's baseline. A far-off optimum is still reached — each
/// walk-down moves the incumbent down up to `depth` rungs, and the
/// next staleness signal continues from there.
fn descending_ladder(full: &[u32], current: u32, depth: usize) -> Vec<u32> {
    let pos = full
        .iter()
        .position(|&v| v >= current)
        .unwrap_or(full.len() - 1);
    full[pos.saturating_sub(depth)..=pos]
        .iter()
        .rev()
        .copied()
        .collect()
}

/// Live hill-climbing retuner for one server's [`SchedulerPolicy`].
#[derive(Debug)]
pub struct OnlineController {
    cfg: ControllerConfig,
    gpu_present: bool,
    policy: SchedulerPolicy,
    phase: Phase,
    climb: LadderClimb,
    window: LatencyRecorder,
    /// Close time of the previous control window (stream start for the
    /// first), so rates are measured close-to-close.
    window_start: SimTime,
    window_arrivals: u64,
    settled_rate_qps: f64,
    /// Window p95 observed when the controller last settled.
    settled_p95_ms: f64,
    /// Consecutive settled windows that looked out of band (load
    /// shifted or tail drifted); a re-climb needs `cfg.hysteresis` of
    /// them in a row.
    stale_streak: usize,
    /// Whether the current climb is a walk-down re-judgment (its score
    /// caps the over-completion credit; see `on_complete`).
    walkdown: bool,
    /// Set when a re-tune commits: the next window to close is a
    /// transition window (old-policy backlog draining under the new
    /// rung) and is dropped from the score when the config says so.
    skip_window: bool,
    /// Set at settle time; the next settled window re-baselines the
    /// drift detector against the *chosen* policy's clean behaviour.
    baseline_pending: bool,
    /// `(batch rung, window p95 ms)` per batch-phase observation.
    pub batch_trajectory: Vec<(u32, f64)>,
    /// `(threshold rung, window p95 ms)` per threshold-phase
    /// observation.
    pub threshold_trajectory: Vec<(u32, f64)>,
    /// Times the controller restarted the climb after a load shift.
    pub retunes: u64,
    /// Every committed re-tune not yet drained. The serving loop drains
    /// it after each completion, into the fleet-pulse decision log when
    /// the pulse is on and dropped otherwise, so it holds at most the
    /// decisions of one `on_complete`.
    decisions: Vec<ControlDecision>,
}

impl OnlineController {
    /// Starts a controller that pilots the ladder from its base; the
    /// initial policy's GPU threshold is kept during the batch phase.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.window` is zero, a ladder is empty/unsorted, or
    /// tolerances are negative.
    pub fn new(cfg: ControllerConfig, initial: SchedulerPolicy, gpu_present: bool) -> Self {
        assert!(cfg.window > 0, "control window must be positive");
        assert!(cfg.shift_tolerance >= 0.0, "negative tolerance");
        assert!(cfg.hysteresis >= 1, "hysteresis needs at least one window");
        let climb = LadderClimb::new(cfg.batch_ladder.clone(), cfg.patience, cfg.rel_tol);
        let policy = SchedulerPolicy {
            max_batch: climb.current(),
            gpu_threshold: initial.gpu_threshold,
        };
        OnlineController {
            window: LatencyRecorder::with_capacity(cfg.window),
            cfg,
            gpu_present,
            policy,
            phase: Phase::TuningBatch,
            climb,
            window_start: 0,
            window_arrivals: 0,
            settled_rate_qps: 0.0,
            settled_p95_ms: 0.0,
            stale_streak: 0,
            walkdown: false,
            skip_window: false,
            baseline_pending: false,
            batch_trajectory: Vec::new(),
            threshold_trajectory: Vec::new(),
            retunes: 0,
            decisions: Vec::new(),
        }
    }

    /// Takes the re-tune decisions committed since the last drain.
    /// `node` and `tenant` are left at their defaults; the serving
    /// loop that owns this controller fills them in.
    pub fn drain_decisions(&mut self) -> std::vec::Drain<'_, ControlDecision> {
        self.decisions.drain(..)
    }

    /// Re-tune decisions committed and not yet drained.
    pub(crate) fn undrained_decisions(&self) -> usize {
        self.decisions.len()
    }

    /// The policy the server should apply right now.
    pub fn policy(&self) -> SchedulerPolicy {
        self.policy
    }

    /// Whether both climbs finished and the controller is holding its
    /// best policy (until a load shift).
    pub fn is_settled(&self) -> bool {
        self.phase == Phase::Settled
    }

    /// Records one query arrival (the load estimate's numerator).
    pub fn on_arrival(&mut self, _now: SimTime) {
        self.window_arrivals += 1;
    }

    /// Records one completed query's end-to-end latency; closes the
    /// control window when full. Returns `true` when the policy
    /// changed and the server must re-read it.
    pub fn on_complete(&mut self, now: SimTime, latency_ms: f64) -> bool {
        self.window.record_ms(latency_ms);
        if self.window.len() < self.cfg.window {
            return false;
        }
        if self.skip_window {
            // Confidence weighting: this window straddled the re-tune
            // (in-flight backlog from the old policy completes under
            // the new rung). Close it unscored so the climb's anchor
            // rung is judged on clean measurements only.
            self.skip_window = false;
            self.close_window(now);
            return false;
        }
        // The window is cleared as it closes: sort it where it lies.
        let p95 = self.window.sort_summary().p95_ms;
        let (rate, completion_rate) = self.close_window(now);
        // Load-normalized capacity first (robust while a backlog
        // drains — a draining rung completes *more* than arrive, an
        // overloaded one fewer — and immune to the diurnal trend),
        // tail as a bounded tiebreaker — see the module docs. A
        // deadband snaps near-1 ratios to exactly 1: in steady state
        // the ratio is all Poisson noise (±2σ ≈ 15 % at a 200-query
        // window), and letting it through would drown the latency
        // signal that actually distinguishes healthy rungs.
        let raw = if rate > 0.0 {
            completion_rate / rate
        } else {
            1.0
        };
        // A *walk-down* re-judgment caps the ratio at 1: it asks which
        // rung has the best clean tail, and crediting over-completion
        // would let the incumbent win off the very drain window that
        // triggered the re-judgment (it completes the backlog it built
        // itself). The cold-start climb stays uncapped — there the
        // drain credit is what lets a high-capacity rung outscore the
        // underprovisioned rung that poisoned the measurements.
        let raw = if self.walkdown { raw.min(1.0) } else { raw };
        let sustained = if (raw - 1.0).abs() <= 0.15 { 1.0 } else { raw };
        // Latency term normalized to a tenth of the SLA: rungs well
        // inside the target are strongly preferred, rungs past it all
        // look equally bad, and sub-scale jitter stays inside rel_tol.
        let tail_factor = 1.0 + 1.0 / (1.0 + 10.0 * p95.max(0.0) / self.cfg.sla_ms);
        // A walk-down is a pure latency re-judgment between rungs that
        // all keep up (the capped ratio only demotes underprovisioned
        // ones), so it drops the 1+ offset: the unbounded relative
        // spread lets a 9-vs-13 ms difference clear rel_tol, where the
        // bounded tiebreaker would compress it into the noise.
        let score = if self.walkdown {
            sustained / (1.0 + 10.0 * p95.max(0.0) / self.cfg.sla_ms)
        } else {
            sustained * tail_factor
        };
        match self.phase {
            Phase::TuningBatch => {
                self.batch_trajectory.push((self.climb.current(), p95));
                self.climb.observe(score);
                if !self.climb.is_done() {
                    self.policy.max_batch = self.climb.current();
                } else {
                    self.policy.max_batch = self.climb.best().0;
                    self.enter_next_phase(rate, p95);
                }
                true
            }
            Phase::TuningThreshold => {
                self.threshold_trajectory.push((self.climb.current(), p95));
                self.climb.observe(score);
                if !self.climb.is_done() {
                    self.policy.gpu_threshold = Some(self.climb.current());
                } else {
                    self.policy.gpu_threshold = Some(self.climb.best().0);
                    self.settle(rate, p95);
                }
                true
            }
            Phase::Settled => {
                // The first settled window establishes the drift
                // baseline: the climb's final window was measured
                // under the last *piloted* rung (often the worst one
                // on the ladder), and judging drift against that
                // would make every clean window under the chosen
                // incumbent look like a 2x improvement — an endless
                // walk-down loop.
                if self.baseline_pending {
                    self.baseline_pending = false;
                    self.settled_rate_qps = rate;
                    self.settled_p95_ms = p95;
                    self.stale_streak = 0;
                    return false;
                }
                // Two staleness signals. (1) Load shifted past the
                // tolerance: rising load explores upward from the
                // incumbent (never piloting a smaller, sooner-
                // overloaded knob at the peak); falling load walks
                // back down for latency. (2) The tail drifted ≥2× from
                // its settle-time value with no rate change: a climb
                // that finished while a cold-start backlog was still
                // draining over-committed to a big batch — once clean,
                // walk down and re-judge. Either way the re-climb is
                // *local*; restarting a live server at a unit batch
                // would re-poison it with backlog on every swing.
                let rate_shift = self.settled_rate_qps > 0.0
                    && (rate - self.settled_rate_qps).abs() / self.settled_rate_qps
                        > self.cfg.shift_tolerance;
                let tail_drift = self.settled_p95_ms > 0.0
                    && (p95 > 2.0 * self.settled_p95_ms || p95 < 0.5 * self.settled_p95_ms);
                if !(rate_shift || tail_drift) {
                    self.stale_streak = 0;
                    return false;
                }
                // Hysteresis: a single out-of-band window can be pure
                // noise (one burst of tail queries moves a 200-query
                // window's p95 well past 2x, and one quiet window can
                // halve it); only `hysteresis` consecutive stale
                // windows commit to a re-climb. Retuning is expensive
                // precisely because the re-climb *pilots* its rungs
                // under live load — a spurious walk-down builds real
                // backlog — so a second confirming window is cheap
                // insurance. The direction is judged on the latest
                // window, the most current view of the shift.
                self.stale_streak += 1;
                if self.stale_streak >= self.cfg.hysteresis {
                    let streak = self.stale_streak;
                    self.stale_streak = 0;
                    self.retunes += 1;
                    let downward = if rate_shift {
                        rate < self.settled_rate_qps
                    } else {
                        p95 < self.settled_p95_ms
                    };
                    let old_max_batch = self.policy.max_batch;
                    self.decisions.push(ControlDecision {
                        t_ns: now,
                        node: 0,
                        tenant: 0,
                        trigger: if rate_shift {
                            RetuneTrigger::RateShift
                        } else {
                            RetuneTrigger::TailDrift
                        },
                        rate_qps: rate,
                        settled_rate_qps: self.settled_rate_qps,
                        p95_ms: p95,
                        settled_p95_ms: self.settled_p95_ms,
                        streak: streak as u32,
                        old_max_batch,
                        new_max_batch: 0, // patched below once the re-climb anchors
                        downward,
                    });
                    let ladder = if downward {
                        descending_ladder(&self.cfg.batch_ladder, self.policy.max_batch, 3)
                    } else {
                        anchored_ladder(&self.cfg.batch_ladder, self.policy.max_batch, 0)
                    };
                    self.walkdown = downward;
                    // One extra rung of patience on the way down: a
                    // single noisy window must not end the descent one
                    // rung short of the clean optimum (the pilots get
                    // *smaller* on this ladder, so the extra probe is
                    // cheap until the very bottom).
                    let patience = if downward {
                        self.cfg.patience + 1
                    } else {
                        self.cfg.patience
                    };
                    self.climb = LadderClimb::new(ladder, patience, self.cfg.rel_tol);
                    self.policy.max_batch = self.climb.current();
                    self.decisions
                        .last_mut()
                        .expect("decision pushed above")
                        .new_max_batch = self.policy.max_batch;
                    self.phase = Phase::TuningBatch;
                    self.skip_window = self.cfg.discard_transition_window;
                    return true;
                }
                false
            }
        }
    }

    fn enter_next_phase(&mut self, rate: f64, p95: f64) {
        // The threshold climb (when it runs) ascends from its anchor.
        self.walkdown = false;
        if self.gpu_present {
            // First tune walks from a unit threshold (all queries on
            // the accelerator, Section IV-C); after a load shift the
            // re-climb anchors at the incumbent like the batch phase.
            let ladder = if self.retunes == 0 {
                self.cfg.threshold_ladder.clone()
            } else {
                anchored_ladder(
                    &self.cfg.threshold_ladder,
                    self.policy.gpu_threshold.unwrap_or(0),
                    1,
                )
            };
            self.climb = LadderClimb::new(ladder, self.cfg.patience, self.cfg.rel_tol);
            self.policy.gpu_threshold = Some(self.climb.current());
            self.phase = Phase::TuningThreshold;
        } else {
            self.settle(rate, p95);
        }
    }

    fn settle(&mut self, rate: f64, p95: f64) {
        self.phase = Phase::Settled;
        // Provisional values only: the next settled window — the first
        // measured wholly under the chosen policy — re-baselines both.
        self.settled_rate_qps = rate;
        self.settled_p95_ms = p95;
        self.baseline_pending = true;
    }

    /// Resets window state, returning the window's mean arrival rate
    /// and completion rate (QPS).
    fn close_window(&mut self, now: SimTime) -> (f64, f64) {
        let (rate, completion_rate) = if now > self.window_start {
            let span = (now - self.window_start) as f64 / NS_PER_SEC as f64;
            (
                self.window_arrivals as f64 / span,
                self.window.len() as f64 / span,
            )
        } else {
            (0.0, 0.0)
        };
        self.window.clear();
        self.window_start = now;
        self.window_arrivals = 0;
        (rate, completion_rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drs_query::MAX_QUERY_SIZE;

    fn cfg(window: usize) -> ControllerConfig {
        ControllerConfig {
            window,
            batch_ladder: vec![1, 2, 4, 8],
            threshold_ladder: vec![0, 100, MAX_QUERY_SIZE],
            patience: 1,
            rel_tol: 0.0,
            shift_tolerance: 0.25,
            // Single-window reaction keeps the climb-shape tests
            // direct; the hysteresis tests below exercise the default.
            hysteresis: 1,
            sla_ms: 100.0,
            // The climb-shape tests feed exact per-rung windows; the
            // transition-discard tests below opt in explicitly.
            discard_transition_window: false,
        }
    }

    /// Feeds `n` completions with the given latency; arrivals pace at
    /// 1 ms apart so the rate estimate is stable.
    fn feed(c: &mut OnlineController, start: SimTime, n: usize, ms: f64) -> SimTime {
        let mut t = start;
        for _ in 0..n {
            t += 1_000_000;
            c.on_arrival(t);
            c.on_complete(t, ms);
        }
        t
    }

    #[test]
    fn starts_at_ladder_base() {
        let c = OnlineController::new(cfg(10), SchedulerPolicy::cpu_only(512), false);
        assert_eq!(c.policy().max_batch, 1);
        assert_eq!(c.policy().gpu_threshold, None);
        assert!(!c.is_settled());
    }

    #[test]
    fn climbs_to_lowest_tail_rung() {
        // p95 per rung: batch 4 is the sweet spot.
        let mut c = OnlineController::new(cfg(5), SchedulerPolicy::cpu_only(1), false);
        let mut t = 0;
        for ms in [40.0, 20.0, 10.0, 15.0] {
            t = feed(&mut c, t, 5, ms);
        }
        assert!(c.is_settled(), "patience 1 + worse rung 8 ends the climb");
        assert_eq!(c.policy().max_batch, 4);
        assert_eq!(
            c.batch_trajectory,
            vec![(1, 40.0), (2, 20.0), (4, 10.0), (8, 15.0)]
        );
    }

    #[test]
    fn gpu_node_gets_threshold_phase() {
        let mut c = OnlineController::new(cfg(5), SchedulerPolicy::cpu_only(1), true);
        let mut t = 0;
        // Batch phase: 4 rungs (8 is worse than 4, patience 1 means the
        // full short ladder is walked).
        for ms in [40.0, 20.0, 10.0, 15.0] {
            t = feed(&mut c, t, 5, ms);
        }
        assert!(!c.is_settled());
        assert_eq!(c.policy().gpu_threshold, Some(0), "threshold climb begins");
        // Threshold phase: rung 100 is best.
        for ms in [30.0, 12.0, 25.0] {
            t = feed(&mut c, t, 5, ms);
        }
        assert!(c.is_settled());
        assert_eq!(c.policy().max_batch, 4);
        assert_eq!(c.policy().gpu_threshold, Some(100));
    }

    #[test]
    fn load_shift_restarts_climb() {
        let mut c = OnlineController::new(cfg(5), SchedulerPolicy::cpu_only(1), false);
        let mut t = feed(&mut c, 0, 5, 40.0);
        t = feed(&mut c, t, 5, 20.0);
        t = feed(&mut c, t, 5, 10.0);
        t = feed(&mut c, t, 5, 15.0);
        assert!(c.is_settled());
        // Same pacing: settled windows pass quietly.
        t = feed(&mut c, t, 5, 10.0);
        assert!(c.is_settled());
        assert_eq!(c.retunes, 0);
        // Double the arrival rate (0.5 ms gaps): the next settled
        // window sees a >25 % shift and restarts the climb.
        for _ in 0..5 {
            t += 500_000;
            c.on_arrival(t);
            c.on_complete(t, 10.0);
        }
        assert_eq!(c.retunes, 1);
        assert!(!c.is_settled());
        assert_eq!(
            c.policy().max_batch,
            4,
            "rising load: re-climb anchored at the incumbent (4)"
        );
    }

    /// Settles a fresh CPU-only controller at 1 ms pacing, then feeds
    /// one clean 10 ms window so the drift baseline is established
    /// (rate 1000 QPS, p95 10 ms).
    fn settled_controller(window: usize, hysteresis: usize) -> (OnlineController, SimTime) {
        let mut c = OnlineController::new(
            ControllerConfig {
                hysteresis,
                ..cfg(window)
            },
            SchedulerPolicy::cpu_only(1),
            false,
        );
        let mut t = 0;
        for ms in [40.0, 20.0, 10.0, 15.0] {
            t = feed(&mut c, t, window, ms);
        }
        assert!(c.is_settled());
        t = feed(&mut c, t, window, 10.0); // baseline window
        assert!(c.is_settled());
        (c, t)
    }

    #[test]
    fn single_noisy_window_does_not_retune() {
        let (mut c, mut t) = settled_controller(5, 2);
        // One window with a 3x tail spike (out of band), then back in
        // band: the streak resets and no re-climb ever triggers.
        t = feed(&mut c, t, 5, 40.0);
        assert_eq!(c.retunes, 0, "first stale window only arms the streak");
        assert!(c.is_settled());
        t = feed(&mut c, t, 5, 10.0);
        assert_eq!(c.retunes, 0, "in-band window disarms the streak");
        // And the next isolated spike starts counting from scratch.
        feed(&mut c, t, 5, 40.0);
        assert_eq!(c.retunes, 0);
        assert!(c.is_settled());
    }

    #[test]
    fn sustained_shift_retunes_after_hysteresis_windows() {
        let (mut c, mut t) = settled_controller(5, 2);
        // Two consecutive out-of-band windows commit to the re-climb.
        t = feed(&mut c, t, 5, 40.0);
        assert!(c.is_settled());
        feed(&mut c, t, 5, 40.0);
        assert_eq!(c.retunes, 1);
        assert!(!c.is_settled(), "re-climb in progress");
    }

    #[test]
    fn tail_improvement_also_needs_the_streak() {
        // Baseline p95 is 10 ms; windows at 4 ms (< 0.5x) signal the
        // baseline is stale, but the walk-down still waits for two of
        // them — a single quiet window must not pilot a smaller batch
        // under live load.
        let (mut c, mut t) = settled_controller(5, 2);
        t = feed(&mut c, t, 5, 4.0);
        assert_eq!(c.retunes, 0);
        assert!(c.is_settled());
        feed(&mut c, t, 5, 4.0);
        assert_eq!(c.retunes, 1, "second improved window commits");
        assert!(!c.is_settled());
    }

    #[test]
    fn hysteresis_one_reacts_immediately() {
        let (mut c, t) = settled_controller(5, 1);
        feed(&mut c, t, 5, 40.0);
        assert_eq!(c.retunes, 1, "hysteresis 1 preserves the old behavior");
    }

    #[test]
    #[should_panic(expected = "hysteresis needs at least one window")]
    fn zero_hysteresis_rejected() {
        let _ = OnlineController::new(
            ControllerConfig {
                hysteresis: 0,
                ..cfg(5)
            },
            SchedulerPolicy::cpu_only(1),
            false,
        );
    }

    /// Feeds `n` completions at `gap_ns` pacing with the given latency.
    fn feed_at(
        c: &mut OnlineController,
        start: SimTime,
        n: usize,
        ms: f64,
        gap_ns: u64,
    ) -> SimTime {
        let mut t = start;
        for _ in 0..n {
            t += gap_ns;
            c.on_arrival(t);
            c.on_complete(t, ms);
        }
        t
    }

    /// A step load change (arrival rate doubles) whose re-climb's first
    /// window carries an 80 ms backlog-drain tail. Returns
    /// `(retunes, settled batch)` after the dust settles.
    fn step_load_scenario(discard: bool) -> (u64, u32) {
        let mut c = OnlineController::new(
            ControllerConfig {
                discard_transition_window: discard,
                ..cfg(5)
            },
            SchedulerPolicy::cpu_only(1),
            false,
        );
        // Cold climb settles at batch 4; one clean window baselines
        // the drift detector (rate 1000 QPS, p95 10 ms).
        let mut t = 0;
        for ms in [40.0, 20.0, 10.0, 15.0] {
            t = feed(&mut c, t, 5, ms);
        }
        t = feed(&mut c, t, 5, 10.0);
        assert!(c.is_settled());
        // Step: the rate doubles; the out-of-band window commits an
        // upward re-climb anchored at the incumbent (ladder [4, 8]).
        t = feed_at(&mut c, t, 5, 10.0, 500_000);
        assert_eq!(c.retunes, 1);
        assert!(!c.is_settled());
        // Transition window: the shift's queue drain inflates the tail
        // far past anything the anchor rung sustains in steady state.
        t = feed_at(&mut c, t, 5, 80.0, 500_000);
        // Clean windows thereafter: batch 4 holds a 10 ms tail at the
        // new rate; batch 8 over-commits and can only manage 22 ms.
        for _ in 0..8 {
            if c.is_settled() {
                break;
            }
            let ms = if c.policy().max_batch <= 4 {
                10.0
            } else {
                22.0
            };
            t = feed_at(&mut c, t, 5, ms, 500_000);
        }
        assert!(c.is_settled(), "re-climb must converge");
        // Steady traffic under the chosen rung: batch 4 keeps its
        // clean tail; batch 8 cannot sustain the doubled load and its
        // backlog doubles the tail window over window.
        for i in 0..3u32 {
            let ms = if c.policy().max_batch <= 4 {
                10.0
            } else {
                22.0 + 30.0 * i as f64
            };
            t = feed_at(&mut c, t, 5, ms, 500_000);
        }
        (c.retunes, c.policy().max_batch)
    }

    #[test]
    fn transition_window_discard_prevents_spurious_retune() {
        // Scored, the polluted transition window dethrones the healthy
        // incumbent (80 ms at the anchor loses to 22 ms at the next
        // rung), and the mis-chosen rung's drifting tail forces a
        // second re-tune. Discarded, the anchor is judged on its clean
        // window, keeps the climb, and the controller stays settled.
        let (retunes_scored, batch_scored) = step_load_scenario(false);
        let (retunes_discarded, batch_discarded) = step_load_scenario(true);
        assert_eq!(batch_scored, 8, "polluted window crowns the wrong rung");
        assert_eq!(batch_discarded, 4, "clean judgment keeps the incumbent");
        assert!(
            retunes_discarded < retunes_scored,
            "discarding the transition window must save the spurious re-tune \
             ({retunes_discarded} vs {retunes_scored})"
        );
        assert_eq!(retunes_discarded, 1);
    }

    #[test]
    fn policy_change_signalled_only_on_window_close() {
        let mut c = OnlineController::new(cfg(3), SchedulerPolicy::cpu_only(1), false);
        c.on_arrival(1);
        assert!(!c.on_complete(1, 5.0));
        assert!(!c.on_complete(2, 5.0));
        assert!(c.on_complete(3, 5.0), "third completion closes the window");
    }

    #[test]
    #[should_panic(expected = "control window must be positive")]
    fn zero_window_rejected() {
        let _ = OnlineController::new(cfg(0), SchedulerPolicy::cpu_only(1), false);
    }
}
