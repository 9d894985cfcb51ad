//! Per-operator wall-clock profiling.
//!
//! Figure 3 of the paper breaks model inference time down by Caffe2
//! operator class to show that different recommendation models are
//! bottlenecked by different operators (MLP- vs embedding- vs
//! attention-dominated). [`OpProfiler`] reproduces that instrumentation
//! for our operator library.

use std::fmt;
use std::time::{Duration, Instant};

/// Operator classes, mirroring the categories of the paper's Figure 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Dense-feature FC stack (DLRM's bottom MLP).
    DenseFc,
    /// Predictor FC stack (top MLP producing CTR logits).
    PredictFc,
    /// Embedding-table lookups and pooling (`SparseLengthsSum`).
    Embedding,
    /// Attention / local-activation units (DIN, DIEN).
    Attention,
    /// Recurrent layers (DIEN's GRUs).
    Recurrent,
    /// Feature interaction: concat / sum combining dense and sparse paths.
    Interaction,
}

impl OpKind {
    /// All operator classes in display order.
    pub const ALL: [OpKind; 6] = [
        OpKind::DenseFc,
        OpKind::PredictFc,
        OpKind::Embedding,
        OpKind::Attention,
        OpKind::Recurrent,
        OpKind::Interaction,
    ];

    /// Short display label (as used in experiment output tables).
    pub fn label(self) -> &'static str {
        match self {
            OpKind::DenseFc => "DenseFC",
            OpKind::PredictFc => "PredictFC",
            OpKind::Embedding => "Embedding",
            OpKind::Attention => "Attention",
            OpKind::Recurrent => "Recurrent",
            OpKind::Interaction => "Interaction",
        }
    }

    fn index(self) -> usize {
        match self {
            OpKind::DenseFc => 0,
            OpKind::PredictFc => 1,
            OpKind::Embedding => 2,
            OpKind::Attention => 3,
            OpKind::Recurrent => 4,
            OpKind::Interaction => 5,
        }
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Accumulates wall-clock time per [`OpKind`].
///
/// Cheap to create per-request; merge per-thread profilers with
/// [`OpProfiler::merge`] for aggregate breakdowns.
#[derive(Debug, Clone, Default)]
pub struct OpProfiler {
    totals: [Duration; 6],
    counts: [u64; 6],
}

impl OpProfiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f`, attributing its wall-clock time to `kind`.
    #[inline]
    #[expect(clippy::disallowed_methods)] // the profiler's whole purpose is wall-clock attribution
    pub fn time<R>(&mut self, kind: OpKind, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.record(kind, start.elapsed());
        out
    }

    /// Records an externally measured duration against `kind`.
    pub fn record(&mut self, kind: OpKind, d: Duration) {
        self.totals[kind.index()] += d;
        self.counts[kind.index()] += 1;
    }

    /// Total time attributed to `kind`.
    pub fn total_for(&self, kind: OpKind) -> Duration {
        self.totals[kind.index()]
    }

    /// Number of timed invocations of `kind`.
    pub fn count_for(&self, kind: OpKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Total time across all operator classes.
    pub fn total(&self) -> Duration {
        self.totals.iter().sum()
    }

    /// Fraction of total time per operator class, in [`OpKind::ALL`]
    /// order. All zeros when nothing was recorded.
    pub fn fractions(&self) -> [f64; 6] {
        let total = self.total().as_secs_f64();
        let mut out = [0.0; 6];
        if total > 0.0 {
            for (o, t) in out.iter_mut().zip(&self.totals) {
                *o = t.as_secs_f64() / total;
            }
        }
        out
    }

    /// The operator class with the largest share of time, with its
    /// fraction. `None` when nothing was recorded.
    ///
    /// This drives the automatic "runtime bottleneck" classification of
    /// Table II.
    pub fn dominant(&self) -> Option<(OpKind, f64)> {
        if self.total().is_zero() {
            return None;
        }
        let fr = self.fractions();
        let (i, &f) = fr
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite fractions"))
            .expect("six classes");
        Some((OpKind::ALL[i], f))
    }

    /// Adds another profiler's accumulation into this one.
    pub fn merge(&mut self, other: &OpProfiler) {
        for i in 0..6 {
            self.totals[i] += other.totals[i];
            self.counts[i] += other.counts[i];
        }
    }

    /// Resets all accumulated time.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_attributes_to_kind() {
        let mut p = OpProfiler::new();
        let v = p.time(OpKind::Embedding, || {
            std::thread::sleep(Duration::from_millis(2));
            42
        });
        assert_eq!(v, 42);
        assert!(p.total_for(OpKind::Embedding) >= Duration::from_millis(2));
        assert_eq!(p.count_for(OpKind::Embedding), 1);
        assert_eq!(p.total_for(OpKind::DenseFc), Duration::ZERO);
    }

    #[test]
    fn fractions_sum_to_one() {
        let mut p = OpProfiler::new();
        p.record(OpKind::PredictFc, Duration::from_millis(30));
        p.record(OpKind::Embedding, Duration::from_millis(70));
        let fr = p.fractions();
        let sum: f64 = fr.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!((fr[OpKind::Embedding as usize] - 0.0).abs() >= 0.0); // index sanity below
        assert!((p.fractions()[2] - 0.7).abs() < 1e-9);
    }

    #[test]
    fn dominant_class() {
        let mut p = OpProfiler::new();
        assert_eq!(p.dominant(), None);
        p.record(OpKind::Attention, Duration::from_millis(60));
        p.record(OpKind::PredictFc, Duration::from_millis(40));
        let (k, f) = p.dominant().unwrap();
        assert_eq!(k, OpKind::Attention);
        assert!((f - 0.6).abs() < 1e-9);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = OpProfiler::new();
        let mut b = OpProfiler::new();
        a.record(OpKind::Recurrent, Duration::from_millis(5));
        b.record(OpKind::Recurrent, Duration::from_millis(7));
        b.record(OpKind::Interaction, Duration::from_millis(1));
        a.merge(&b);
        assert_eq!(a.total_for(OpKind::Recurrent), Duration::from_millis(12));
        assert_eq!(a.count_for(OpKind::Recurrent), 2);
        assert_eq!(a.total_for(OpKind::Interaction), Duration::from_millis(1));
    }

    #[test]
    fn reset_zeroes() {
        let mut p = OpProfiler::new();
        p.record(OpKind::DenseFc, Duration::from_millis(3));
        p.reset();
        assert_eq!(p.total(), Duration::ZERO);
        assert_eq!(p.dominant(), None);
    }

    #[test]
    fn labels_unique() {
        let labels: std::collections::BTreeSet<_> = OpKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), OpKind::ALL.len());
    }
}
