//! Golden lock on predictor fitting: a small-scale [`MlpPredictor::train`]
//! (and a [`MlpPredictor::fine_tune`] from it) must reproduce the exact
//! weight bytes recorded before the demand-driven backward and the
//! zero-skipping GEMM path existed — under the SIMD and portable kernels
//! and at 1 and 2 kernel threads alike.
//!
//! The corpus rows are the paper's one-hot `ᾱ` encodings (Eq. 4), so the
//! first layer's forward product and weight gradient take the sparse path;
//! the final partial batch exercises the short-batch shapes. A mismatch
//! means fitting stopped being bit-identical, not that the constant is
//! stale.
//!
//! ```text
//! cargo test --release -p lightnas-predictor --test golden_fit
//! ```

use lightnas_hw::Xavier;
use lightnas_predictor::{Metric, MetricDataset, MlpPredictor, TrainConfig, WeightPrecision};
use lightnas_space::SearchSpace;
use lightnas_tensor::KernelCtx;

/// FNV-1a 64 over the f32 checkpoint bytes (standardization + every weight).
const TRAIN_HASH: u64 = 0xef74_1287_38fd_307a;
const FINE_TUNE_HASH: u64 = 0xae3c_547b_14df_2549;

fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn fit_hashes() -> (u64, u64) {
    let space = SearchSpace::standard();
    let device = Xavier::maxn();
    let data = MetricDataset::sample(&device, &space, Metric::LatencyMs, 600, 21);
    let (train, tune) = data.split(0.9);
    let trained = MlpPredictor::train(
        &train,
        &TrainConfig {
            epochs: 6,
            batch_size: 128,
            lr: 2e-3,
            seed: 5,
        },
    );
    let tuned = trained.fine_tune(
        &tune,
        &TrainConfig {
            epochs: 4,
            batch_size: 16,
            lr: 1e-3,
            seed: 6,
        },
    );
    (
        fnv(&trained.to_bytes(WeightPrecision::F32)),
        fnv(&tuned.to_bytes(WeightPrecision::F32)),
    )
}

#[test]
fn predictor_fit_reproduces_recorded_weight_bits() {
    for (simd, threads) in [(true, 1), (false, 1), (true, 2)] {
        let ctx = KernelCtx {
            simd,
            threads,
            ..KernelCtx::current()
        };
        let (train, tune) = ctx.scope(fit_hashes);
        eprintln!("simd={simd} threads={threads}: train {train:#018x} fine_tune {tune:#018x}");
        assert_eq!(
            (train, tune),
            (TRAIN_HASH, FINE_TUNE_HASH),
            "simd={simd} threads={threads}: fitted weights diverged from the recorded bits"
        );
    }
}
