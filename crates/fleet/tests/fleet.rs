//! End-to-end properties of the fleet layer: transfer accuracy against the
//! per-device-trained reference, worker-count byte-identity of fleet
//! sweeps, and telemetry attribution.

use std::sync::OnceLock;

use lightnas::SearchConfig;
use lightnas_eval::AccuracyOracle;
use lightnas_fleet::{
    predictor_rmse, quantile_targets, transfer_predictor, DeviceFleet, DeviceSpec, FleetSearch,
    TransferOptions,
};
use lightnas_predictor::{Metric, MetricDataset, MlpPredictor, Predictor, TrainConfig};
use lightnas_runtime::Telemetry;
use lightnas_serve::spearman;
use lightnas_space::SearchSpace;

struct Fixture {
    space: SearchSpace,
    oracle: AccuracyOracle,
    fleet: DeviceFleet,
    proxy: MlpPredictor,
}

fn train_config() -> TrainConfig {
    TrainConfig {
        epochs: 30,
        batch_size: 128,
        lr: 2e-3,
        seed: 0,
    }
}

fn device_corpus(spec: &DeviceSpec, space: &SearchSpace, n: usize) -> MetricDataset {
    MetricDataset::sample_diverse(&spec.device(), space, Metric::LatencyMs, n, 5)
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let space = SearchSpace::standard();
        let oracle = AccuracyOracle::imagenet();
        let fleet = DeviceFleet::standard();
        let data = device_corpus(fleet.proxy(), &space, 1000);
        let proxy = MlpPredictor::train(&data.split(0.8).0, &train_config());
        Fixture {
            space,
            oracle,
            fleet,
            proxy,
        }
    })
}

/// A schedule small enough for CI, long enough to exercise the λ loop.
fn tiny_config() -> SearchConfig {
    SearchConfig {
        epochs: 8,
        steps_per_epoch: 10,
        warmup_epochs: 2,
        ..SearchConfig::fast()
    }
}

#[test]
fn transfer_meets_the_rmse_bar_against_per_device_training() {
    let f = fixture();
    let target = f.fleet.get("jetson-nano").expect("registered");
    let data = device_corpus(target, &f.space, 1000);
    let (train, valid) = data.split(0.8);

    let per_device = MlpPredictor::train(&train, &train_config());
    let transferred = transfer_predictor(&f.proxy, &train, &TransferOptions::default());

    let reference = per_device.rmse(&valid);
    let transfer = predictor_rmse(&transferred, &valid);
    assert!(
        transfer <= 1.5 * reference,
        "transfer RMSE {transfer:.3} ms must be within 1.5x of the \
         per-device-trained {reference:.3} ms"
    );

    // And the transferred predictor must rank the target device correctly.
    let preds: Vec<f64> = valid
        .encodings()
        .iter()
        .map(|e| transferred.predict_encoding(e))
        .collect();
    let rho = spearman(&preds, valid.targets());
    assert!(rho > 0.9, "transferred rank correlation {rho:.3} too weak");
}

#[test]
fn transfer_consumes_at_most_its_budget() {
    let f = fixture();
    let target = f.fleet.get("server-gpu").expect("registered");
    let data = device_corpus(target, &f.space, 300);
    // Identical transfers from the 100-row budget prefix and from the full
    // corpus: the budget cap must make them indistinguishable.
    let opts = TransferOptions::default();
    assert_eq!(opts.budget, 100);
    let a = transfer_predictor(&f.proxy, &data, &opts);
    let b = transfer_predictor(&f.proxy, &data.take(100), &opts);
    let probe = lightnas_space::Architecture::random(&f.space, 42);
    assert_eq!(
        a.predict(&probe).to_bits(),
        b.predict(&probe).to_bits(),
        "rows beyond the budget must never influence the transfer"
    );
}

#[test]
fn fleet_sweeps_are_byte_identical_across_worker_counts() {
    let f = fixture();
    let spec = f.fleet.proxy();
    let targets = quantile_targets(&spec.device(), &f.space, 2, 32, 0);
    let fronts: Vec<_> = [1, 2, 4]
        .iter()
        .map(|&workers| {
            FleetSearch::new(&f.space, &f.oracle, tiny_config(), workers).search_device(
                spec,
                &f.proxy,
                &targets,
                &[0],
                None,
            )
        })
        .collect();
    assert_eq!(fronts[0], fronts[1], "1 vs 2 workers diverged");
    assert_eq!(fronts[0], fronts[2], "1 vs 4 workers diverged");
    assert_eq!(fronts[0].points.len(), targets.len());
    assert!(!fronts[0].front.is_empty());
}

#[test]
fn fleet_sweep_telemetry_is_attributed_to_the_device() {
    let f = fixture();
    let target = f.fleet.get("jetson-nano").expect("registered");
    let data = device_corpus(target, &f.space, 120);
    let transferred = transfer_predictor(
        &f.proxy,
        &data,
        &TransferOptions {
            budget: 100,
            fine_tune: None,
        },
    );
    let dir = std::env::temp_dir().join(format!("lightnas-fleet-telemetry-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let telemetry = Telemetry::create(&dir, "fleet").expect("sink");
    let targets = quantile_targets(&target.device(), &f.space, 2, 32, 0);
    let front = FleetSearch::new(&f.space, &f.oracle, tiny_config(), 2).search_device(
        target,
        &transferred,
        &targets,
        &[0],
        Some(&telemetry),
    );
    assert_eq!(front.device, "jetson-nano");
    let text = std::fs::read_to_string(telemetry.path()).expect("jsonl");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!text.is_empty());
    for line in text.lines() {
        assert!(
            line.contains("\"device\":\"jetson-nano\""),
            "unattributed fleet telemetry line: {line}"
        );
    }
}

#[test]
fn pareto_front_is_sorted_and_non_dominated() {
    let f = fixture();
    let spec = f.fleet.proxy();
    let targets = quantile_targets(&spec.device(), &f.space, 3, 32, 0);
    let front = FleetSearch::new(&f.space, &f.oracle, tiny_config(), 2).search_device(
        spec,
        &f.proxy,
        &targets,
        &[0, 1],
        None,
    );
    assert_eq!(front.points.len(), 6);
    let pareto: Vec<_> = front.pareto_points().collect();
    assert!(!pareto.is_empty());
    for w in pareto.windows(2) {
        assert!(w[0].true_ms <= w[1].true_ms, "front must be latency-sorted");
        assert!(w[0].top1 < w[1].top1, "front must strictly improve top-1");
    }
}
