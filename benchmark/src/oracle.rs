//! Output correctness: the models under test still score a fixed batch
//! the way the stored goldens say, and the engine returns exactly what a
//! direct forward pass does.
//!
//! Weights and the golden batch come from fixed seeds (they are part of
//! the program under test, not of the workload), so the goldens hold for
//! every `--seed`. They are stored at `ModelScale::default_scale()`;
//! `--smoke` instantiates tiny tables and skips the comparison with them.

use drs_engine::{EngineRequest, InferenceEngine};
use drs_models::{ModelConfig, ModelScale, RecModel};
use drs_nn::OpProfiler;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const WEIGHT_SEED: u64 = 0xD12C_5EED;
const GOLDEN_INPUT_SEED: u64 = 0x601D_0001;
/// Items in the golden batch: one full request at the serving policy's
/// batch size.
const GOLDEN_BATCH: usize = 64;
/// A faster kernel may reorder float sums; it may not move a CTR by more.
const TOLERANCE: f32 = 1e-4;

/// The model as every run of the benchmark instantiates it.
pub(crate) fn instantiate(cfg: &ModelConfig, scale: ModelScale) -> Arc<RecModel> {
    let mut rng = StdRng::seed_from_u64(WEIGHT_SEED);
    Arc::new(RecModel::instantiate(cfg, scale, &mut rng))
}

fn golden_text(model: &str) -> Option<&'static str> {
    match model {
        "DLRM-RMC1" => Some(include_str!("../goldens/dlrm-rmc1.txt")),
        "WND" => Some(include_str!("../goldens/wnd.txt")),
        "NCF" => Some(include_str!("../goldens/ncf.txt")),
        _ => None,
    }
}

fn golden_file(model: &str) -> String {
    format!(
        "{}/goldens/{}.txt",
        env!("CARGO_MANIFEST_DIR"),
        model.to_lowercase()
    )
}

fn direct_ctrs(model: &RecModel) -> (drs_models::BatchInputs, Vec<f32>) {
    let inputs = model.generate_inputs(GOLDEN_BATCH, &mut StdRng::seed_from_u64(GOLDEN_INPUT_SEED));
    let ctrs = model.forward(&inputs, &mut OpProfiler::new());
    (inputs, ctrs)
}

/// `--write-goldens`: stores the CTRs of the golden batch.
pub(crate) fn write_golden(cfg: &ModelConfig) -> std::io::Result<String> {
    let model = instantiate(cfg, ModelScale::default_scale());
    let (_, ctrs) = direct_ctrs(&model);
    let text: String = ctrs.iter().map(|c| format!("{c:e}\n")).collect();
    let path = golden_file(cfg.name);
    std::fs::write(&path, text)?;
    Ok(path)
}

/// Checks one model; `Err` says what is wrong.
///
/// Starts (and stops) a one-worker engine pool: this is the first pool
/// start of the process, which `setup_s` is meant to include.
pub(crate) fn check(model: &Arc<RecModel>, compare_golden: bool) -> Result<(), String> {
    let name = model.name().to_string();
    let (inputs, direct) = direct_ctrs(model);
    if let Some(bad) = direct
        .iter()
        .find(|c| !(c.is_finite() && **c > 0.0 && **c < 1.0))
    {
        return Err(format!("{name}: CTR {bad} is not a finite value in (0, 1)"));
    }
    if compare_golden {
        let text = golden_text(&name).ok_or_else(|| format!("{name}: no stored golden"))?;
        let golden: Vec<f32> = text
            .lines()
            .map(|l| {
                l.trim()
                    .parse()
                    .map_err(|e| format!("{name}: bad golden line {l:?}: {e}"))
            })
            .collect::<Result<_, _>>()?;
        if golden.len() != direct.len() {
            return Err(format!(
                "{name}: golden holds {} CTRs, expected {}",
                golden.len(),
                direct.len()
            ));
        }
        for (i, (c, g)) in direct.iter().zip(&golden).enumerate() {
            if (c - g).abs() > TOLERANCE {
                return Err(format!(
                    "{name}: CTR[{i}] = {c} differs from golden {g} by more than {TOLERANCE}"
                ));
            }
        }
    }
    let engine = InferenceEngine::start(Arc::clone(model), 1);
    engine.submit(EngineRequest::forward(0, inputs));
    let done = engine
        .completions()
        .recv()
        .map_err(|e| format!("{name}: engine gave no completion: {e:?}"));
    engine.shutdown();
    let served = done?.ctrs;
    if served
        .iter()
        .map(|c| c.to_bits())
        .ne(direct.iter().map(|c| c.to_bits()))
    {
        return Err(format!(
            "{name}: CTRs through InferenceEngine differ from a direct RecModel::forward"
        ));
    }
    Ok(())
}
