//! Real multi-threaded inference serving engine.
//!
//! While `Simulation` evaluates scheduling policies in virtual time,
//! this crate actually *executes* the recommendation models on host CPU
//! cores: worker threads pull requests from a queue, run
//! [`drs_models::RecModel::forward`], and report wall-clock latencies
//! and per-operator profiles. It is the measurement substrate behind
//! Figure 3 (operator breakdown) and the `model_inference` Criterion
//! benches, and the worker pool under `drs-server`'s real serving path
//! (`Serve::real`), which paces a query stream onto it.
//!
//! # Examples
//!
//! ```
//! use drs_engine::{measure_batch_latency, profile_operators};
//! use drs_models::{zoo, ModelScale, RecModel};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let model = RecModel::instantiate(&zoo::ncf(), ModelScale::tiny(), &mut rng);
//! let lat = measure_batch_latency(&model, 8, 3, 1);
//! assert_eq!(lat.len(), 3);
//! let prof = profile_operators(&model, 8, 2, 1);
//! assert!(prof.total().as_nanos() > 0);
//! ```

#![warn(missing_docs)]

mod pool;

pub use pool::{EngineCompletion, EngineRequest, EngineWork, InferenceEngine};

use drs_models::RecModel;
use drs_nn::OpProfiler;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Measures single-threaded forward-pass latency at a fixed batch size,
/// returning one wall-clock sample per iteration (fresh inputs each
/// time, seeded).
pub fn measure_batch_latency(
    model: &RecModel,
    batch: usize,
    iters: usize,
    seed: u64,
) -> Vec<Duration> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(iters);
    let mut prof = OpProfiler::new();
    for _ in 0..iters {
        let inputs = model.generate_inputs(batch, &mut rng);
        let start = Instant::now();
        let ctrs = model.forward(&inputs, &mut prof);
        out.push(start.elapsed());
        debug_assert_eq!(ctrs.len(), batch);
    }
    out
}

/// Runs `iters` forward passes at the given batch size and returns the
/// merged per-operator time profile — the Figure 3 measurement.
pub fn profile_operators(model: &RecModel, batch: usize, iters: usize, seed: u64) -> OpProfiler {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut prof = OpProfiler::new();
    for _ in 0..iters {
        let inputs = model.generate_inputs(batch, &mut rng);
        let _ = model.forward(&inputs, &mut prof);
    }
    prof
}

#[cfg(test)]
mod tests {
    use super::*;
    use drs_models::{zoo, ModelScale};
    use drs_nn::OpKind;

    #[test]
    fn latency_samples_positive() {
        let mut rng = StdRng::seed_from_u64(3);
        let model = RecModel::instantiate(&zoo::dlrm_rmc1(), ModelScale::tiny(), &mut rng);
        let lat = measure_batch_latency(&model, 4, 5, 9);
        assert_eq!(lat.len(), 5);
        assert!(lat.iter().all(|d| d.as_nanos() > 0));
    }

    #[test]
    fn profiles_cover_expected_operators() {
        let mut rng = StdRng::seed_from_u64(4);
        let model = RecModel::instantiate(&zoo::dien(), ModelScale::tiny(), &mut rng);
        let prof = profile_operators(&model, 4, 2, 11);
        assert!(
            prof.total_for(OpKind::Recurrent).as_nanos() > 0,
            "DIEN runs GRUs"
        );
        assert!(prof.total_for(OpKind::Embedding).as_nanos() > 0);
        assert!(prof.total_for(OpKind::PredictFc).as_nanos() > 0);
    }
}
