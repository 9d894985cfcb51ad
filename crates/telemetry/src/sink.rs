//! The recording trait serving loops are generic over.

use crate::ring::StageBreakdown;
use crate::span::QuerySpan;

/// A consumer of completed query spans.
///
/// Serving loops are generic over `S: TraceSink` and guard every
/// recording site with `if S::ENABLED { ... }` (pinned by
/// `disabled_sinks_are_never_touched` in `drs-server`'s
/// `tests/serving.rs`, which serves through a disabled sink whose
/// methods panic). Because `ENABLED` is an associated *constant*, the
/// untraced instantiation ([`NoopSink`]) monomorphizes those sites to
/// dead code — tracing off costs nothing measurable, which is what lets
/// the default public serving APIs stay untraced without a second code
/// path.
pub trait TraceSink {
    /// Whether this sink actually records. Call sites skip span
    /// assembly entirely when this is `false`.
    const ENABLED: bool = true;

    /// Record one completed query's span.
    fn record(&mut self, span: &QuerySpan);

    /// A streaming stage-latency snapshot, if this sink maintains
    /// one. Serving wrappers attach this to their report so traced
    /// runs surface the breakdown as the report's `stage_breakdown`
    /// with no extra plumbing.
    fn breakdown(&self) -> Option<StageBreakdown> {
        None
    }
}

/// The do-nothing sink: `ENABLED == false`, so traced serving loops
/// compile down to the untraced ones.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    const ENABLED: bool = false;

    fn record(&mut self, _span: &QuerySpan) {}
}

/// A borrowed sink records into its owner, so a caller can hand a
/// serving request `&mut recorder` and read the recorder afterwards.
impl<T: TraceSink> TraceSink for &mut T {
    const ENABLED: bool = T::ENABLED;

    fn record(&mut self, span: &QuerySpan) {
        (**self).record(span);
    }

    fn breakdown(&self) -> Option<StageBreakdown> {
        (**self).breakdown()
    }
}
