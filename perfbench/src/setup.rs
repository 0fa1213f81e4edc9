//! Set-up: what every workload needs before it can run — the paper's
//! latency corpus and the MLP predictor trained on it, at full scale.

use std::time::Instant;

use lightnas_eval::AccuracyOracle;
use lightnas_hw::Xavier;
use lightnas_predictor::{LutPredictor, Metric, MetricDataset, MlpPredictor, TrainConfig};
use lightnas_space::SearchSpace;

use crate::inputs::corpus_seed;

/// Architectures in the sampled corpus (the paper's 10,000).
const CORPUS: usize = 10_000;

/// Predictor training schedule at full scale.
const EPOCHS: usize = 150;

/// Set-ups per run. They run concurrently, one per core, each on its own
/// thread and so its own tensor pools; the run reports their median.
pub const COPIES: usize = 2;

/// Validation RMSE (ms) a trained predictor must reach.
const MAX_RMSE_MS: f64 = 1.0;

/// The substrate stack a workload runs on.
#[derive(Debug)]
pub struct Substrate {
    /// The paper's search space.
    pub space: SearchSpace,
    /// The simulated Jetson AGX Xavier the corpus was measured on.
    pub device: Xavier,
    /// The accuracy oracle the search trades latency against.
    pub oracle: AccuracyOracle,
    /// The trained MLP latency predictor.
    pub mlp: MlpPredictor,
    /// The look-up-table predictor serving falls back to.
    pub lut: LutPredictor,
    /// Validation RMSE of `mlp`, in ms.
    pub rmse_ms: f64,
    /// Predictions of `mlp` on the validation fold, for cross-copy checks.
    probe: Vec<f64>,
}

/// Samples the corpus and trains the predictor once.
fn set_up_once(seed: u64) -> Substrate {
    let space = SearchSpace::standard();
    let device = Xavier::maxn();
    let oracle = AccuracyOracle::imagenet();
    let s = corpus_seed(seed);
    let data = MetricDataset::sample_diverse(&device, &space, Metric::LatencyMs, CORPUS, s);
    let (train, valid) = data.split(0.8);
    let mlp = MlpPredictor::train(
        &train,
        &TrainConfig {
            epochs: EPOCHS,
            batch_size: 256,
            lr: 1e-3,
            seed: s,
        },
    );
    let lut = LutPredictor::build(&device, &space);
    let probe = mlp.predict_batch(valid.encodings());
    let rmse_ms = mlp.rmse(&valid);
    Substrate {
        space,
        device,
        oracle,
        mlp,
        lut,
        rmse_ms,
        probe,
    }
}

/// Runs [`COPIES`] set-ups concurrently and returns the first substrate
/// with every copy's wall time in seconds, after checking that the copies
/// trained bit-identical predictors of acceptable accuracy.
pub fn set_up(seed: u64) -> Result<(Substrate, Vec<f64>), String> {
    let mut built: Vec<(Substrate, f64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..COPIES)
            .map(|_| {
                s.spawn(move || {
                    let started = Instant::now();
                    let sub = set_up_once(seed);
                    (sub, started.elapsed().as_secs_f64())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("set-up thread panicked"))
            .collect()
    });
    let secs: Vec<f64> = built.iter().map(|(_, t)| *t).collect();
    let (first, _) = built.swap_remove(0);
    let bits = |s: &Substrate| s.probe.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    if built.iter().any(|(other, _)| bits(other) != bits(&first)) {
        return Err("set-up: concurrent trainings disagree bit-for-bit".into());
    }
    if first.rmse_ms.is_nan() || first.rmse_ms >= MAX_RMSE_MS {
        return Err(format!(
            "set-up: validation RMSE {:.3} ms exceeds {MAX_RMSE_MS} ms",
            first.rmse_ms
        ));
    }
    Ok((first, secs))
}
