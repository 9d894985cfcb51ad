//! The open-loop query streams the real-path phases offer.
//!
//! Arrival times come from the repository's `QueryGenerator` under a
//! Poisson process. Sizes are a *stratified* sample of the workload's
//! size distribution: a window of `n` queries holds one size from each
//! of `n` equal-probability slices of the distribution, in an order the
//! seed decides. With independent draws the heavy tail of the production
//! distribution makes the work in a short window swing by more than
//! 10 % from seed to seed, and that swing would be read as a change in
//! the code; stratifying removes it while every seed still sees its own
//! arrival times and its own order of sizes.

use crate::spec::Tenant;
use drs_query::{ArrivalProcess, Query, QueryGenerator, SizeDistribution, TenantId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Independent draws sorted per kept size; the kept one is the middle of
/// its slice.
const OVERSAMPLE: usize = 32;

/// Derives the seed of one stream from the run's `--seed`.
pub(crate) fn mix(seed: u64, salt: u64) -> u64 {
    // SplitMix64 finaliser: adjacent seeds and salts give unrelated streams.
    let mut z = seed.wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn stratified_sizes(dist: SizeDistribution, n: usize, rng: &mut StdRng) -> Vec<u32> {
    let mut pool = dist.sample_n(n * OVERSAMPLE, rng);
    pool.sort_unstable();
    let mut sizes: Vec<u32> = (0..n)
        .map(|i| pool[i * OVERSAMPLE + OVERSAMPLE / 2])
        .collect();
    for i in (1..n).rev() {
        sizes.swap(i, rng.gen_range(0..=i));
    }
    sizes
}

/// `n` queries in arrival order: each tenant's Poisson stream at
/// `rate(tenant)` QPS carries its share of `n`, tagged with the tenant's
/// index; ids run from 0 in arrival order.
pub(crate) fn open_loop(
    tenants: &[Tenant],
    rate: impl Fn(&Tenant) -> f64,
    n: usize,
    seed: u64,
) -> Vec<Query> {
    let total: f64 = tenants.iter().map(&rate).sum();
    let mut queries = Vec::with_capacity(n + tenants.len());
    for (k, t) in tenants.iter().enumerate() {
        let share = ((n as f64 * rate(t) / total).round() as usize).max(1);
        let seed = mix(seed, k as u64 + 1);
        let sizes = stratified_sizes(t.sizes, share, &mut StdRng::seed_from_u64(!seed));
        queries.extend(
            QueryGenerator::new(ArrivalProcess::poisson(rate(t)), t.sizes, seed)
                .with_tenant(TenantId(k as u32))
                .take(share)
                .zip(sizes)
                .map(|(q, size)| Query { size, ..q }),
        );
    }
    queries.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s));
    for (id, q) in queries.iter_mut().enumerate() {
        q.id = id as u64;
    }
    queries
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::workload;

    #[test]
    fn same_seed_same_stream_and_every_seed_the_same_work() {
        let w = workload("colo_rmc1_wnd").unwrap();
        let a = open_loop(&w.tenants, |t| t.hi_qps, 400, 3);
        assert_eq!(a, open_loop(&w.tenants, |t| t.hi_qps, 400, 3));
        let b = open_loop(&w.tenants, |t| t.hi_qps, 400, 4);
        assert_ne!(a, b);
        assert!(a
            .windows(2)
            .all(|p| p[0].arrival_s <= p[1].arrival_s && p[1].id == p[0].id + 1));
        assert!(a.iter().any(|q| q.tenant == TenantId(1)));
        let items = |qs: &[Query]| qs.iter().map(|q| u64::from(q.size)).sum::<u64>() as f64;
        let (ia, ib) = (items(&a), items(&b));
        assert!(
            (ia - ib).abs() / ia < 0.03,
            "stratified windows carry equal work: {ia} vs {ib}"
        );
    }
}
