//! Serving-tier contracts end to end through the service: the strict tier
//! is bit-identical to direct prediction, the fast tiers stay within the
//! predictor-depth tolerance bound, tier selection defaults to strict, and
//! a fast-tier service leaves a concurrent strict sweep's bits alone.
//!
//! Each tier serves inside a [`KernelCtx`] scope on the test's own thread,
//! so the tests run in parallel without touching each other's kernels.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

use lightnas::SearchConfig;
use lightnas_eval::AccuracyOracle;
use lightnas_hw::Xavier;
use lightnas_predictor::{
    BatchPredictor, LutPredictor, Metric, MetricDataset, MlpPredictor, TrainConfig,
};
use lightnas_runtime::{run_sweep, SearchJob, SweepOptions};
use lightnas_serve::{
    PredictorService, Priority, Request, ServiceConfig, ServingTier, VirtualClock,
};
use lightnas_space::SearchSpace;
use lightnas_tensor::{tolerance::ReductionBound, KernelCtx, KernelMode};

fn fixtures() -> (MlpPredictor, LutPredictor, Vec<Vec<f32>>) {
    let space = SearchSpace::standard();
    let device = Xavier::maxn();
    let data = MetricDataset::sample(&device, &space, Metric::LatencyMs, 400, 29);
    let mlp = MlpPredictor::train(
        &data,
        &TrainConfig {
            epochs: 15,
            batch_size: 128,
            lr: 2e-3,
            seed: 5,
        },
    );
    let lut = LutPredictor::build(&device, &space);
    let encs = data.encodings()[..64].to_vec();
    (mlp, lut, encs)
}

/// Serves every encoding through a fresh service's `run_threaded` workers
/// inside a scope running `tier`'s kernel mode, as a deployment does, and
/// returns the answers in submission order.
fn serve_under(
    tier: ServingTier,
    trained: &MlpPredictor,
    lut: &LutPredictor,
    encs: &[Vec<f32>],
) -> Vec<f64> {
    let deployed = tier.prepare(trained);
    let clock = VirtualClock::new();
    let service = PredictorService::new(&deployed, lut, &clock, ServiceConfig::default());
    let ctx = KernelCtx {
        mode: tier.kernel_mode(),
        ..KernelCtx::current()
    };
    // High priority is admitted up to the default capacity, which holds
    // every encoding even before a worker drains one.
    let request = |e: &Vec<f32>| Request::new(e.clone()).with_priority(Priority::High);
    let (ids, report) = ctx.scope(|| {
        service.run_threaded(2, |svc| {
            encs.iter()
                .map(|e| svc.submit(request(e)).expect("admission"))
                .collect::<Vec<_>>()
        })
    });
    assert!(report.fully_accounted(), "{report:?}");
    let mut served = service.take_responses();
    served.sort_by_key(|s| s.id);
    assert_eq!(served.len(), ids.len(), "every request must be answered");
    served
        .into_iter()
        .map(|s| {
            let r = s.outcome.expect("no deadline set, must serve a value");
            assert!(!r.degraded, "primary must answer, not the fallback");
            r.value
        })
        .collect()
}

#[test]
fn strict_tier_serves_bit_identical_to_direct_prediction() {
    let (mlp, lut, encs) = fixtures();
    let direct = mlp.predict_encodings(&encs);
    let served = serve_under(ServingTier::Strict, &mlp, &lut, &encs);
    for (s, d) in served.iter().zip(&direct) {
        assert_eq!(
            s.to_bits(),
            d.to_bits(),
            "strict serving must be bit-identical to direct prediction"
        );
    }
}

/// Predictions as `f32`, the precision the tolerance bounds are stated in.
fn as_f32(values: &[f64]) -> Vec<f32> {
    values.iter().map(|&v| v as f32).collect()
}

/// Asserts fast-tier answers lie within the predictor-depth bound of
/// `strict`, and reports whether any differs from strict in bits.
fn within_fast_bound(served: &[f32], strict: &[f32]) -> bool {
    // The widest reduction in the 154→128→64→1 predictor is the input
    // layer; its depth bounds every fast-kernel rearrangement. Predictions
    // are destandardized, so the honest scale is |prediction| plus one
    // target-std (the mean shift's magnitude floor).
    let scale: Vec<f32> = strict.iter().map(|p| p.abs() + 1.0).collect();
    if let Err(v) = ReductionBound::matmul(154 + 128 + 64).check(served, strict, &scale) {
        panic!("fast tier broke the tolerance bound: {v}");
    }
    served
        .iter()
        .zip(strict)
        .any(|(f, s)| f.to_bits() != s.to_bits())
}

#[test]
fn fast_tier_serves_within_the_predictor_depth_bound() {
    let (mlp, lut, encs) = fixtures();
    let strict = as_f32(&mlp.predict_encodings(&encs));
    within_fast_bound(
        &as_f32(&serve_under(ServingTier::Fast, &mlp, &lut, &encs)),
        &strict,
    );
    // f16 weight storage adds the 2⁻¹¹-per-weight quantization on top of
    // kernel reordering; the checkpoint tests pin 2⁻⁸ of the target scale,
    // mirrored here against the same strict oracle.
    let served = as_f32(&serve_under(ServingTier::FastF16, &mlp, &lut, &encs));
    for (i, (s, d)) in served.iter().zip(&strict).enumerate() {
        assert!(
            (s - d).abs() <= 2.0f32.powi(-8) * (d.abs() + 1.0),
            "f16 tier answer {i} drifted: {s} vs {d}"
        );
    }
}

#[test]
fn tier_prepare_only_quantizes_the_f16_tier() {
    let (mlp, _, encs) = fixtures();
    let strict = ServingTier::Strict.prepare(&mlp);
    let fast = ServingTier::Fast.prepare(&mlp);
    let f16 = ServingTier::FastF16.prepare(&mlp);
    let want = mlp.predict_encodings(&encs);
    assert_eq!(strict.predict_encodings(&encs), want);
    assert_eq!(fast.predict_encodings(&encs), want);
    let quantized = f16.predict_encodings(&encs);
    assert!(
        quantized
            .iter()
            .zip(&want)
            .any(|(a, b)| a.to_bits() != b.to_bits()),
        "f16 preparation must actually quantize the weights"
    );
}

#[test]
fn tier_from_env_parses_the_two_knobs() {
    assert_eq!(ServingTier::parse(None, None), ServingTier::Strict);
    // f16 without fast kernels is not a tier: strict serving promises
    // bit-identity with the searched checkpoint.
    assert_eq!(ServingTier::parse(None, Some("f16")), ServingTier::Strict);
    assert_eq!(
        ServingTier::parse(Some("fast"), Some("f16")),
        ServingTier::FastF16
    );
    assert_eq!(
        ServingTier::parse(Some("fast"), Some("f32")),
        ServingTier::Fast
    );
}

#[test]
fn strict_sweep_keeps_its_bits_next_to_a_fast_threaded_service() {
    #[cfg(target_arch = "x86_64")]
    let fma =
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma");
    #[cfg(not(target_arch = "x86_64"))]
    let fma = false;
    if !fma {
        println!("skipped: this CPU lacks AVX2+FMA, so the fast tier degrades to strict");
        return;
    }
    let (mlp, lut, encs) = fixtures();
    let oracle = AccuracyOracle::imagenet();
    let config = SearchConfig {
        epochs: 6,
        steps_per_epoch: 8,
        warmup_epochs: 2,
        ..SearchConfig::fast()
    };
    let jobs = SearchJob::grid(&[19.0, 25.0], &[0, 3], config);
    let strict = KernelCtx {
        mode: KernelMode::Strict,
        threads: 1,
        simd: true,
        tile: None,
    };
    // `(architecture, λ bits)` of every job of a strict sweep.
    let sweep = |workers, kernel_threads| {
        let opts = SweepOptions {
            workers,
            kernel_threads,
            ..SweepOptions::default()
        };
        let report = strict.scope(|| run_sweep(&oracle, &mlp, &jobs, &opts, None));
        report
            .statuses
            .iter()
            .map(|s| {
                let o = &s.completed().expect("job must complete").outcome;
                (o.architecture.to_spec(), o.lambda.to_bits())
            })
            .collect::<Vec<_>>()
    };
    let serial = sweep(1, 0);
    let want = as_f32(&strict.scope(|| mlp.predict_encodings(&encs)));
    let fast = KernelCtx {
        mode: KernelMode::Fast,
        threads: 4,
        ..strict
    };

    let start = Barrier::new(2);
    let sweep_done = AtomicBool::new(false);
    let (concurrent, any_differs) = std::thread::scope(|s| {
        let a = s.spawn(|| {
            start.wait();
            let fingerprints = sweep(2, 2);
            sweep_done.store(true, Ordering::SeqCst);
            fingerprints
        });
        let b = s.spawn(|| {
            fast.scope(|| {
                start.wait();
                let mut any_differs = false;
                // Serve until the sweep is done, so the two overlap for its
                // whole run.
                loop {
                    let served = as_f32(&serve_under(ServingTier::Fast, &mlp, &lut, &encs));
                    any_differs |= within_fast_bound(&served, &want);
                    if sweep_done.load(Ordering::SeqCst) {
                        return any_differs;
                    }
                }
            })
        });
        let a = a.join().expect("sweep thread");
        (a, b.join().expect("service thread"))
    });
    assert_eq!(
        concurrent, serial,
        "a fast-tier service on other threads changed the strict sweep's bits"
    );
    assert!(
        any_differs,
        "every fast answer equalled strict: the service's workers did not run the fast tier"
    );
}
