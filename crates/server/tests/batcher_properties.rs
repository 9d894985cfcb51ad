//! Property contracts of the dynamic batching queue: formation
//! conserves items under either split rule (full chunks + a coalesced
//! residual, or — coalescing off — balanced parts), and the retune
//! path keeps *ordering*: a repack must keep every query's items in
//! the order they were queued — per-query FIFO — or a re-batched
//! backlog could complete a query's later chunk before an earlier one
//! and skew its latency accounting.

use drs_server::{Batch, BatchQueue, BatchStats};
use proptest::prelude::*;

/// Flattens batches into the per-item sequence of owning query ids —
/// the total order the pool will serve items in.
fn item_sequence(batches: &[Batch]) -> Vec<u64> {
    batches
        .iter()
        .flat_map(|b| &b.segments)
        .flat_map(|s| std::iter::repeat_n(s.query_id, s.items as usize))
        .collect()
}

proptest! {
    /// Formation conserves items whether coalescing is on or off
    /// (timeout 0: balanced parts, nothing ever buffered), and
    /// reforming the backlog at any new batch size is a pure repack:
    /// the item-level sequence (which query each served item belongs
    /// to, in order) is exactly the queued sequence. This subsumes
    /// both per-query segment order and cross-query FIFO.
    #[test]
    fn reform_preserves_per_query_item_order(
        sizes in prop::collection::vec(1u32..600, 1..40),
        old_max in 1u32..200,
        new_max in 1u32..200,
        timeout_bit in 0u8..2,
    ) {
        let coalesce = timeout_bit == 1;
        let timeout = if coalesce { 1_000_000 } else { 0 };
        let mut q = BatchQueue::new(old_max, timeout);
        let mut queued = Vec::new();
        for (i, &s) in sizes.iter().enumerate() {
            q.push(i as u64 * 10, i as u64, s, &mut queued);
            prop_assert!(coalesce || q.deadline().is_none(), "timeout 0 buffers nothing");
        }
        q.flush_all(&mut queued);
        let before = item_sequence(&queued);
        // Conserved per query (a coalesced residual may ship after a
        // later query's full chunks, so only the multiset is fixed).
        let mut per_query = vec![0u32; sizes.len()];
        for seg in queued.iter().flat_map(|b| &b.segments) {
            per_query[seg.query_id as usize] += seg.items;
        }
        prop_assert_eq!(&per_query, &sizes, "items conserved per query");
        prop_assert!(queued.iter().all(|b| (1..=old_max).contains(&b.items)));
        let formed = BatchStats {
            batches: queued.len() as u64,
            full_batches: queued.iter().filter(|b| b.items == old_max).count() as u64,
            items: before.len() as u64,
            ..q.stats()
        };
        prop_assert_eq!(q.stats(), formed, "counters describe the emitted batches");

        let mut reformed = Vec::new();
        q.set_max_batch(new_max, &mut reformed);
        prop_assert!(reformed.is_empty(), "nothing open after flush_all");
        q.reform(queued, &mut reformed);

        prop_assert_eq!(item_sequence(&reformed), before);
        // And the repack honours the new knob.
        prop_assert!(reformed.iter().all(|b| b.items <= new_max));

        // Recycled segment buffers come back empty: the same stream
        // formed over them equals the stream formed over fresh ones.
        for b in reformed {
            q.recycle(b);
        }
        let mut fresh = BatchQueue::new(new_max, timeout);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for (i, &s) in sizes.iter().enumerate() {
            q.push(i as u64 * 10, i as u64, s, &mut got);
            fresh.push(i as u64 * 10, i as u64, s, &mut want);
        }
        q.flush_all(&mut got);
        fresh.flush_all(&mut want);
        let segments = |bs: Vec<Batch>| bs.into_iter().map(|b| b.segments).collect::<Vec<_>>();
        prop_assert_eq!(segments(got), segments(want));
    }

    /// Batch ids stay unique across the original formation and the
    /// repack (the engine keys in-flight requests by them).
    #[test]
    fn reform_issues_fresh_unique_ids(
        sizes in prop::collection::vec(1u32..300, 1..20),
        new_max in 1u32..100,
    ) {
        let mut q = BatchQueue::new(64, 1_000_000);
        let mut queued = Vec::new();
        for (i, &s) in sizes.iter().enumerate() {
            q.push(i as u64, i as u64, s, &mut queued);
        }
        q.flush_all(&mut queued);
        let old_ids: Vec<u64> = queued.iter().map(|b| b.id).collect();
        let mut reformed = Vec::new();
        q.set_max_batch(new_max, &mut reformed);
        q.reform(queued, &mut reformed);
        let mut ids: Vec<u64> = old_ids
            .iter()
            .copied()
            .chain(reformed.iter().map(|b| b.id))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), old_ids.len() + reformed.len());
    }
}
