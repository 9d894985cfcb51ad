//! Query → request splitting (the heart of DeepRecSched's request- vs
//! batch-level parallelism trade-off).

/// Splits a query of `size` items into balanced requests of at most
/// `max_batch` items each.
///
/// "Large queries are split into multiple requests of smaller batch
/// sizes that are processed by parallel cores" (Section IV). The split
/// is balanced — `⌈size / max_batch⌉` parts whose sizes differ by at
/// most one — matching the production baseline's "splitting the largest
/// query evenly across all available cores". The parts come as an
/// iterator, larger ones first, so a caller that consumes them as they
/// come (the serving loop's batcher) allocates nothing.
///
/// # Panics
///
/// Panics if `size` or `max_batch` is zero.
///
/// # Examples
///
/// ```
/// use drs_query::split_query;
///
/// let parts = |size, max_batch| split_query(size, max_batch).collect::<Vec<u32>>();
/// assert_eq!(parts(1000, 1000), [1000]);
/// assert_eq!(parts(1000, 400), [334, 333, 333]);
/// assert_eq!(parts(7, 3), [3, 2, 2]);
/// assert_eq!(split_query(1000, 25).len(), 40);
/// ```
pub fn split_query(size: u32, max_batch: u32) -> impl ExactSizeIterator<Item = u32> {
    assert!(size > 0, "cannot split an empty query");
    assert!(max_batch > 0, "max_batch must be positive");
    let parts = size.div_ceil(max_batch);
    let base = size / parts;
    let extra = size % parts;
    (0..parts).map(move |i| if i < extra { base + 1 } else { base })
}

#[cfg(test)]
mod tests {
    /// The parts, collected.
    fn split_query(size: u32, max_batch: u32) -> Vec<u32> {
        super::split_query(size, max_batch).collect()
    }

    #[test]
    fn single_part_when_fits() {
        assert_eq!(split_query(64, 64), vec![64]);
        assert_eq!(split_query(1, 1024), vec![1]);
    }

    #[test]
    fn conserves_items() {
        for size in [1u32, 7, 63, 64, 65, 999, 1000] {
            for mb in [1u32, 3, 25, 64, 256, 1024] {
                let parts = split_query(size, mb);
                assert_eq!(parts.iter().sum::<u32>(), size, "size {size} mb {mb}");
                assert!(parts.iter().all(|&p| p <= mb), "size {size} mb {mb}");
                assert!(parts.iter().all(|&p| p > 0));
            }
        }
    }

    #[test]
    fn balanced_within_one() {
        for size in [100u32, 999, 1000] {
            for mb in [7u32, 25, 130] {
                let parts = split_query(size, mb);
                let min = *parts.iter().min().unwrap();
                let max = *parts.iter().max().unwrap();
                assert!(max - min <= 1, "size {size} mb {mb}: {parts:?}");
            }
        }
    }

    #[test]
    fn production_baseline_shape() {
        // Max query 1000 split for a 40-core Skylake at the static
        // baseline batch of 25 → exactly 40 requests (Section V).
        let parts = split_query(1000, 25);
        assert_eq!(parts.len(), 40);
        assert!(parts.iter().all(|&p| p == 25));
    }

    #[test]
    #[should_panic(expected = "empty query")]
    fn zero_size_panics() {
        split_query(0, 8);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_batch_panics() {
        split_query(8, 0);
    }
}
