//! Concurrency stress gate for the shared engine pool.
//!
//! Oversubscribes the worker pool (worker count > physical cores),
//! submits from several jittering producer threads, and asserts that
//! the *completion set* — and the predictions themselves — are
//! identical across runs. Thread interleaving may reorder completions;
//! it must never lose, duplicate, or corrupt one — whether one engine
//! completes into its own channel or a fleet fans into a shared one.
//! This is the invariant the real-vs-virtual cross-validation tests
//! quietly stand on.

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError};
use drs_engine::{EngineCompletion, EngineRequest, InferenceEngine};
use drs_models::{zoo, BatchInputs, ModelScale, RecModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

fn tiny(cfg: &drs_models::ModelConfig, seed: u64) -> Arc<RecModel> {
    let mut rng = StdRng::seed_from_u64(seed);
    Arc::new(RecModel::instantiate(cfg, ModelScale::tiny(), &mut rng))
}

fn oversubscribed() -> usize {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    cores * 2
}

/// One full submit-and-drain cycle: `SUBMITTERS` producer threads push
/// the prebuilt requests with randomized jitter — request `qid` to
/// engine `qid % engines.len()` — and the main thread drains every
/// completion from `done`, checking each carries its engine's tag.
/// Returns `query_id -> ctr bit patterns`.
fn run_once(
    engines: &[InferenceEngine],
    done: &Receiver<EngineCompletion>,
    inputs: &[(u64, usize, BatchInputs)],
    jitter_seed: u64,
) -> BTreeMap<u64, Vec<u32>> {
    const SUBMITTERS: usize = 4;
    std::thread::scope(|scope| {
        for (s, chunk) in inputs.chunks(inputs.len().div_ceil(SUBMITTERS)).enumerate() {
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(jitter_seed ^ (s as u64) << 17);
                for (qid, model, batch) in chunk {
                    // Randomized submit jitter: vary the interleaving
                    // between producers and the oversubscribed pool.
                    if rng.gen_bool(0.5) {
                        std::thread::sleep(Duration::from_micros(rng.gen_range(0..80)));
                    } else {
                        std::thread::yield_now();
                    }
                    engines[*qid as usize % engines.len()].submit(EngineRequest::forward_for(
                        *qid,
                        *model,
                        batch.clone(),
                    ));
                }
            });
        }
        let mut seen = BTreeMap::new();
        for _ in 0..inputs.len() {
            let c = done.recv().expect("pool stays alive");
            assert_eq!(
                c.tag,
                c.query_id as usize % engines.len(),
                "query {} tagged by another engine",
                c.query_id
            );
            let bits: Vec<u32> = c.ctrs.iter().map(|p| p.to_bits()).collect();
            assert!(
                seen.insert(c.query_id, bits).is_none(),
                "query {} completed twice",
                c.query_id
            );
        }
        seen
    })
}

#[test]
fn oversubscribed_pool_completions_are_run_invariant() {
    let models = [tiny(&zoo::ncf(), 11), tiny(&zoo::wide_and_deep(), 12)];
    // Prebuild every request once so each run submits bit-identical
    // work: any cross-run difference is the pool's fault.
    let mut rng = StdRng::seed_from_u64(13);
    let inputs: Vec<(u64, usize, BatchInputs)> = (0..96u64)
        .map(|qid| {
            let m = (qid % 2) as usize;
            let size = rng.gen_range(1..8usize);
            (qid, m, models[m].generate_inputs(size, &mut rng))
        })
        .collect();

    let private = || InferenceEngine::start_multi(models.to_vec(), oversubscribed());
    let engine = private();
    let first = run_once(
        std::slice::from_ref(&engine),
        engine.completions(),
        &inputs,
        0xA1CE,
    );
    assert_eq!(first.len(), inputs.len(), "every submission completes");
    for (run, seed) in [(2u32, 0xB0B), (3, 0xC0FFEE)] {
        let engine = private();
        let again = run_once(
            std::slice::from_ref(&engine),
            engine.completions(),
            &inputs,
            seed,
        );
        assert_eq!(
            again, first,
            "run {run}: completion set or prediction bits diverged under jitter"
        );
    }

    // Fan-in: two engines of different widths complete into one shared
    // channel, and the predictions are still the private engine's.
    let (tx, done) = unbounded();
    let fleet = [1, oversubscribed()]
        .into_iter()
        .enumerate()
        .map(|(tag, w)| InferenceEngine::start_fan_in(models.to_vec(), None, w, tx.clone(), tag))
        .collect::<Vec<_>>();
    drop(tx);
    let fanned = run_once(&fleet, &done, &inputs, 0xFA41);
    assert_eq!(
        fanned, first,
        "fan-in: completion set or prediction bits diverged"
    );
    drop(fleet);
    assert_eq!(
        done.recv_timeout(Duration::from_secs(5)).err(),
        Some(RecvTimeoutError::Disconnected),
        "the shared channel disconnects with its last engine"
    );
}

/// Backpressure under oversubscription: a bounded queue with many
/// producers must refuse excess work without losing any accepted
/// request.
#[test]
fn bounded_queue_never_loses_accepted_work() {
    let models = [tiny(&zoo::ncf(), 21)];
    let mut rng = StdRng::seed_from_u64(22);
    let batch = models[0].generate_inputs(4, &mut rng);
    let engine =
        InferenceEngine::start(Arc::clone(&models[0]), oversubscribed()).with_queue_bound(8);
    let accepted = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4u64)
            .map(|s| {
                let engine = &engine;
                let batch = &batch;
                scope.spawn(move || {
                    let mut ok = Vec::new();
                    for i in 0..64u64 {
                        let qid = s * 1000 + i;
                        if engine
                            .try_submit(EngineRequest::forward(qid, batch.clone()))
                            .is_ok()
                        {
                            ok.push(qid);
                        }
                        std::thread::yield_now();
                    }
                    ok
                })
            })
            .collect();
        let mut all = Vec::new();
        for h in handles {
            all.extend(h.join().expect("submitter"));
        }
        all
    });
    let mut seen = std::collections::BTreeSet::new();
    for _ in 0..accepted.len() {
        seen.insert(engine.completions().recv().expect("pool alive").query_id);
    }
    let expected: std::collections::BTreeSet<u64> = accepted.iter().copied().collect();
    assert_eq!(seen, expected, "accepted work must complete exactly once");
    engine.shutdown();
}
