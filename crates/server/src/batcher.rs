//! The dynamic batching queue: splits arriving queries per
//! `max_batch` and coalesces sub-batch residuals across queries until
//! a batch fills or a timeout expires.
//!
//! The paper's simulated pipeline dispatches every split part
//! immediately (coalesce timeout `0` here: balanced `split_query`
//! parts, which is what [`crate::Simulation`] serves with); a real
//! serving tier cannot afford that for small queries — a 3-item query
//! would occupy a whole worker for a 3-item forward pass. Coalescing
//! residuals from consecutive queries into one near-full batch buys
//! back batch-level parallelism at the cost of a bounded added delay
//! (the coalesce timeout), which is exactly the batching-queue stage
//! of the paper's Figure 8 pipeline.

use drs_core::SimTime;
use drs_query::split_query;

/// Segments a fresh segment buffer has room for: a coalesced batch's
/// usual few residuals, so a recycled buffer seldom has to grow.
const FRESH_SEGMENTS: usize = 4;

/// The portion of one query carried inside a [`Batch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchSegment {
    /// Query these items belong to, as the caller of
    /// [`BatchQueue::push`] keyed it (the serving loop keys queries by
    /// stream position).
    pub query_id: u64,
    /// Items of that query in this batch.
    pub items: u32,
}

/// One dispatchable unit of CPU work: up to `max_batch` items drawn
/// from one or more queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch {
    /// Monotonically increasing batch identifier (the engine request
    /// tag).
    pub id: u64,
    /// Per-query item counts; a full chunk of a large query has one
    /// segment, a coalesced batch one per contributing query.
    pub segments: Vec<BatchSegment>,
    /// Total items (sum over segments).
    pub items: u32,
    /// Time the batch was opened (first item buffered / chunk formed).
    pub opened_at: SimTime,
}

/// Counters the batching queue accumulates over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Batches emitted.
    pub batches: u64,
    /// Batches emitted exactly at `max_batch` items.
    pub full_batches: u64,
    /// Batches carrying residuals from two or more queries.
    pub coalesced_batches: u64,
    /// Batches flushed by the coalesce timeout rather than by filling.
    pub timeout_flushes: u64,
    /// Total items across all emitted batches.
    pub items: u64,
}

impl BatchStats {
    /// Accumulates another queue's counters into this one — the single
    /// definition report assembly uses to aggregate across tenant
    /// lanes and nodes.
    pub fn merge(&mut self, other: BatchStats) {
        self.batches += other.batches;
        self.full_batches += other.full_batches;
        self.coalesced_batches += other.coalesced_batches;
        self.timeout_flushes += other.timeout_flushes;
        self.items += other.items;
    }
}

/// Per-model dynamic batching queue.
///
/// # Examples
///
/// ```
/// use drs_server::BatchQueue;
///
/// let mut q = BatchQueue::new(64, 200_000); // 200 µs coalesce window
/// let mut out = Vec::new();
/// // A 150-item query: two full chunks dispatch immediately, the
/// // 22-item residual waits for company.
/// q.push(0, 1, 150, &mut out);
/// assert_eq!(out.len(), 2);
/// assert!(out.iter().all(|b| b.items == 64));
/// // A 42-item query tops the residual up to exactly 64: flush.
/// q.push(1_000, 2, 42, &mut out);
/// assert_eq!(out.len(), 3);
/// assert_eq!(out[2].items, 64);
/// assert_eq!(out[2].segments.len(), 2);
/// ```
#[derive(Debug)]
pub struct BatchQueue {
    max_batch: u32,
    coalesce_timeout: SimTime,
    open: Option<Batch>,
    next_id: u64,
    stats: BatchStats,
    /// Emptied segment buffers handed back through
    /// [`BatchQueue::recycle`], reused by every batch `push` forms.
    spare: Vec<Vec<BatchSegment>>,
}

impl BatchQueue {
    /// Creates a queue with the given per-request batch size and
    /// coalesce timeout (nanoseconds). `0` disables coalescing: with
    /// no partner to wait for there is no reason to cut full chunks
    /// plus a residual, so every query is cut into the *balanced
    /// parts* of [`drs_query::split_query`] — 150 items at batch 64
    /// are `[50, 50, 50]`, not `[64, 64, 22]` — each dispatching
    /// immediately.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero.
    pub fn new(max_batch: u32, coalesce_timeout_ns: SimTime) -> Self {
        assert!(max_batch > 0, "batch size must be positive");
        BatchQueue {
            max_batch,
            coalesce_timeout: coalesce_timeout_ns,
            open: None,
            next_id: 0,
            stats: BatchStats::default(),
            spare: Vec::new(),
        }
    }

    /// Current per-request batch size.
    pub fn max_batch(&self) -> u32 {
        self.max_batch
    }

    /// Accumulated counters.
    pub fn stats(&self) -> BatchStats {
        self.stats
    }

    /// Retunes the batch size (the online controller's knob). An open
    /// residual batch already at or above the new size is flushed to
    /// `out`.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero.
    pub fn set_max_batch(&mut self, max_batch: u32, out: &mut Vec<Batch>) {
        assert!(max_batch > 0, "batch size must be positive");
        self.max_batch = max_batch;
        if self
            .open
            .as_ref()
            .is_some_and(|b| b.items >= self.max_batch)
        {
            self.flush_open(out, false);
        }
    }

    /// Splits a query of `size` items arriving at `now` into batches.
    /// Full chunks are emitted to `out` immediately; the sub-batch
    /// residual joins the open coalesce buffer (and may complete it).
    /// With coalescing disabled (timeout `0`) the query is cut into
    /// balanced parts instead — exactly `split_query(size, max_batch)`
    /// — all emitted immediately.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn push(&mut self, now: SimTime, query_id: u64, size: u32, out: &mut Vec<Batch>) {
        assert!(size > 0, "empty query");
        if self.coalesce_timeout == 0 {
            debug_assert!(self.open.is_none(), "nothing lingers without a window");
            for items in split_query(size, self.max_batch) {
                let b = self.single_segment(now, query_id, items);
                self.emit(b, false, out);
            }
            return;
        }
        let full_chunks = size / self.max_batch;
        let residual = size % self.max_batch;
        for _ in 0..full_chunks {
            let b = self.single_segment(now, query_id, self.max_batch);
            self.emit(b, false, out);
        }
        if residual == 0 {
            return;
        }
        // The residual must fit into the open buffer without splitting
        // its segment; if it cannot, the open batch ships early
        // (near-full beats holding the newcomer hostage).
        if self
            .open
            .as_ref()
            .is_some_and(|b| b.items + residual > self.max_batch)
        {
            self.flush_open(out, false);
        }
        if self.open.is_none() {
            self.open = Some(Batch {
                id: self.next_id,
                segments: self.segment_buffer(),
                items: 0,
                opened_at: now,
            });
            self.next_id += 1;
        }
        let open = self.open.as_mut().expect("just opened");
        open.segments.push(BatchSegment {
            query_id,
            items: residual,
        });
        open.items += residual;
        if open.items == self.max_batch {
            self.flush_open(out, false);
        }
    }

    /// Hands a finished batch's segment buffer back for reuse by the
    /// batches `push` forms next. The serving loop recycles every
    /// finished batch, on either clock.
    pub fn recycle(&mut self, batch: Batch) {
        let mut segments = batch.segments;
        segments.clear();
        self.spare.push(segments);
    }

    /// An empty segment buffer: a recycled one when there is one.
    fn segment_buffer(&mut self) -> Vec<BatchSegment> {
        (self.spare.pop()).unwrap_or_else(|| Vec::with_capacity(FRESH_SEGMENTS))
    }

    /// A fresh one-segment batch (a full chunk or a balanced part).
    fn single_segment(&mut self, now: SimTime, query_id: u64, items: u32) -> Batch {
        let mut segments = self.segment_buffer();
        segments.push(BatchSegment { query_id, items });
        let b = Batch {
            id: self.next_id,
            segments,
            items,
            opened_at: now,
        };
        self.next_id += 1;
        b
    }

    /// When the open coalesce buffer must flush, if any: its open time
    /// plus the coalesce timeout.
    pub fn deadline(&self) -> Option<SimTime> {
        self.open
            .as_ref()
            .map(|b| b.opened_at.saturating_add(self.coalesce_timeout))
    }

    /// Flushes the open buffer if its deadline has passed.
    pub fn flush_due(&mut self, now: SimTime, out: &mut Vec<Batch>) {
        if self.deadline().is_some_and(|d| d <= now) {
            self.flush_open(out, true);
        }
    }

    /// Flushes the open buffer unconditionally (end of stream).
    pub fn flush_all(&mut self, out: &mut Vec<Batch>) {
        if self.open.is_some() {
            self.flush_open(out, false);
        }
    }

    /// Re-forms not-yet-dispatched batches at the *current* batch size
    /// — the retune path. When the online controller moves `max_batch`,
    /// a backlog formed under the old knob would otherwise drain at the
    /// old knob's cost forever (thousands of unit batches after a
    /// climb step away from batch 1). Segments are repacked greedily
    /// and may split across batches; per-query item accounting is
    /// unaffected. The final partial batch dispatches immediately
    /// rather than re-entering the coalesce buffer — it is old work and
    /// must not be delayed further.
    ///
    /// Reformed batches are not re-counted in [`BatchStats`] (their
    /// items were counted when first formed). The old batches' segment
    /// buffers are recycled into the new ones.
    pub fn reform(&mut self, queued: impl IntoIterator<Item = Batch>, out: &mut Vec<Batch>) {
        let mut current: Option<Batch> = None;
        for mut old in queued {
            let opened_at = old.opened_at;
            for mut seg in old.segments.drain(..) {
                while seg.items > 0 {
                    if current.is_none() {
                        let id = self.next_id;
                        self.next_id += 1;
                        current = Some(Batch {
                            id,
                            segments: self.segment_buffer(),
                            items: 0,
                            opened_at,
                        });
                    }
                    let cur = current.as_mut().expect("just opened");
                    let take = (self.max_batch - cur.items).min(seg.items);
                    cur.segments.push(BatchSegment {
                        query_id: seg.query_id,
                        items: take,
                    });
                    cur.items += take;
                    seg.items -= take;
                    if cur.items == self.max_batch {
                        out.push(current.take().expect("full batch"));
                    }
                }
            }
            self.spare.push(old.segments);
        }
        if let Some(b) = current {
            out.push(b);
        }
    }

    fn flush_open(&mut self, out: &mut Vec<Batch>, by_timeout: bool) {
        if let Some(b) = self.open.take() {
            if by_timeout {
                self.stats.timeout_flushes += 1;
            }
            self.emit(b, true, out);
        }
    }

    fn emit(&mut self, b: Batch, from_buffer: bool, out: &mut Vec<Batch>) {
        self.stats.batches += 1;
        self.stats.items += b.items as u64;
        if b.items == self.max_batch {
            self.stats.full_batches += 1;
        }
        if from_buffer && b.segments.len() >= 2 {
            self.stats.coalesced_batches += 1;
        }
        out.push(b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items_of(out: &[Batch]) -> Vec<u32> {
        out.iter().map(|b| b.items).collect()
    }

    #[test]
    fn large_query_splits_into_full_chunks_plus_residual() {
        let mut q = BatchQueue::new(64, 1_000);
        let mut out = Vec::new();
        q.push(0, 9, 200, &mut out);
        assert_eq!(items_of(&out), vec![64, 64, 64]);
        assert!(out.iter().all(|b| b.segments[0].query_id == 9));
        // Residual 8 still buffered.
        assert_eq!(q.deadline(), Some(1_000));
        q.flush_all(&mut out);
        assert_eq!(items_of(&out), vec![64, 64, 64, 8]);
    }

    #[test]
    fn residuals_coalesce_across_queries() {
        let mut q = BatchQueue::new(100, 1_000_000);
        let mut out = Vec::new();
        q.push(0, 1, 30, &mut out);
        q.push(10, 2, 30, &mut out);
        q.push(20, 3, 40, &mut out); // exactly fills 100
        assert_eq!(out.len(), 1);
        let b = &out[0];
        assert_eq!(b.items, 100);
        assert_eq!(b.segments.len(), 3);
        assert_eq!(b.opened_at, 0, "opened when the first residual arrived");
        assert_eq!(q.stats().coalesced_batches, 1);
        assert_eq!(q.stats().full_batches, 1);
    }

    #[test]
    fn overflow_residual_ships_open_batch_early() {
        let mut q = BatchQueue::new(100, 1_000_000);
        let mut out = Vec::new();
        q.push(0, 1, 60, &mut out);
        q.push(5, 2, 70, &mut out); // 60+70 > 100: the 60 ships alone
        assert_eq!(items_of(&out), vec![60]);
        assert_eq!(out[0].segments.len(), 1);
        q.flush_all(&mut out);
        assert_eq!(items_of(&out), vec![60, 70]);
    }

    #[test]
    fn timeout_flushes_partial_batch() {
        let mut q = BatchQueue::new(64, 500);
        let mut out = Vec::new();
        q.push(100, 1, 10, &mut out);
        assert!(out.is_empty());
        q.flush_due(599, &mut out);
        assert!(out.is_empty(), "before the deadline");
        q.flush_due(600, &mut out);
        assert_eq!(items_of(&out), vec![10]);
        assert_eq!(q.stats().timeout_flushes, 1);
        assert_eq!(q.deadline(), None);
    }

    #[test]
    fn zero_timeout_reproduces_split_query() {
        for size in [1u32, 7, 63, 64, 65, 150, 999, 1000] {
            for max_batch in [1u32, 3, 25, 64, 256, 1024] {
                let mut q = BatchQueue::new(max_batch, 0);
                let mut out = Vec::new();
                q.push(0, 1, size, &mut out);
                assert_eq!(
                    items_of(&out),
                    split_query(size, max_batch).collect::<Vec<_>>(),
                    "{size} @ {max_batch}"
                );
                assert_eq!(q.deadline(), None, "nothing lingers");
            }
        }
    }

    #[test]
    fn retune_flushes_oversized_open_batch() {
        let mut q = BatchQueue::new(100, 1_000_000);
        let mut out = Vec::new();
        q.push(0, 1, 50, &mut out);
        assert!(out.is_empty());
        q.set_max_batch(32, &mut out);
        assert_eq!(items_of(&out), vec![50], "open 50 >= new max 32");
        q.push(10, 2, 50, &mut out);
        assert_eq!(items_of(&out), vec![50, 32], "one full chunk at new size");
        q.flush_all(&mut out);
        assert_eq!(items_of(&out), vec![50, 32, 18]);
    }

    #[test]
    fn items_are_conserved() {
        let mut q = BatchQueue::new(37, 10);
        let mut out = Vec::new();
        let sizes = [1u32, 500, 37, 36, 38, 999, 2, 74];
        for (i, &s) in sizes.iter().enumerate() {
            q.push(i as u64 * 7, i as u64, s, &mut out);
        }
        q.flush_all(&mut out);
        let total: u64 = sizes.iter().map(|&s| s as u64).sum();
        let batched: u64 = out.iter().map(|b| b.items as u64).sum();
        assert_eq!(total, batched);
        assert_eq!(q.stats().items, total);
        // Per-query conservation through segments.
        for (i, &s) in sizes.iter().enumerate() {
            let got: u32 = out
                .iter()
                .flat_map(|b| &b.segments)
                .filter(|seg| seg.query_id == i as u64)
                .map(|seg| seg.items)
                .sum();
            assert_eq!(got, s, "query {i}");
        }
        // Batch ids are unique.
        let mut ids: Vec<u64> = out.iter().map(|b| b.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), out.len());
    }

    #[test]
    fn reform_repacks_backlog_at_new_size() {
        let mut q = BatchQueue::new(1, 0);
        let mut out = Vec::new();
        // A backlog of unit batches from queries 1 and 2.
        q.push(0, 1, 5, &mut out);
        q.push(0, 2, 3, &mut out);
        assert_eq!(out.len(), 8);
        let mut reformed = Vec::new();
        q.set_max_batch(4, &mut reformed);
        q.reform(out, &mut reformed);
        // 8 items repack into 4 + 4.
        assert_eq!(items_of(&reformed), vec![4, 4]);
        let per_query = |qid: u64| -> u32 {
            reformed
                .iter()
                .flat_map(|b| &b.segments)
                .filter(|s| s.query_id == qid)
                .map(|s| s.items)
                .sum()
        };
        assert_eq!(per_query(1), 5, "items conserved across the repack");
        assert_eq!(per_query(2), 3);
    }

    #[test]
    fn reform_splits_oversized_segments() {
        let mut q = BatchQueue::new(100, 1_000_000);
        let mut out = Vec::new();
        q.push(0, 7, 90, &mut out);
        q.flush_all(&mut out);
        assert_eq!(items_of(&out), vec![90]);
        let mut reformed = Vec::new();
        q.set_max_batch(32, &mut reformed);
        q.reform(out, &mut reformed);
        assert_eq!(items_of(&reformed), vec![32, 32, 26]);
        assert!(reformed
            .iter()
            .all(|b| b.segments.iter().all(|s| s.query_id == 7)));
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_rejected() {
        let _ = BatchQueue::new(0, 0);
    }
}
