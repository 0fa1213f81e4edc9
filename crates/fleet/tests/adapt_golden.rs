//! Golden lock on fleet-wide adaptation: a small scripted
//! [`FleetAdaptation`] run — three linear devices, one correlated pair,
//! every [`FleetFaultKind`] — must reproduce the exact cross-device audit
//! trail and `adapt_*`/`fleet_*` telemetry recorded before the fault
//! schedules were unified.
//!
//! ```text
//! cargo test --release -p lightnas-fleet --test adapt_golden
//! ```

use std::time::Duration;

use lightnas_predictor::{BatchPredictor, Predictor};
use lightnas_runtime::{FaultSchedule, Telemetry};
use lightnas_serve::{AdaptConfig, ModelSlot, VirtualClock};

use lightnas_fleet::{
    fleet_audit_is_well_formed, FleetAdaptEvent, FleetAdaptOptions, FleetAdaptation, FleetFault,
    FleetFaultKind,
};

/// FNV-1a 64 over the Debug-rendered fleet audit, the final slot
/// generations, and the JSONL telemetry bytes.
const GOLDEN_HASH: u64 = 0xb5d4_9ed4_f258_36bf;

fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `scale * enc[0]`; retraining refits `scale` by least squares.
#[derive(Debug, Clone)]
struct LinearModel {
    scale: f64,
}
impl Predictor for LinearModel {
    fn predict_encoding(&self, e: &[f32]) -> f64 {
        self.scale * f64::from(e[0])
    }
    fn gradient(&self, e: &[f32]) -> Vec<f32> {
        vec![0.0; e.len()]
    }
}
impl BatchPredictor for LinearModel {}

fn refit(encs: &[Vec<f32>], obs: &[f64]) -> LinearModel {
    let (mut num, mut den) = (0.0, 0.0);
    for (e, o) in encs.iter().zip(obs) {
        let x = f64::from(e[0]);
        num += x * o;
        den += x * x;
    }
    LinearModel { scale: num / den }
}

fn enc(i: u64) -> Vec<f32> {
    let x = 1.0 + (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) as f32 / 16_777_216.0;
    vec![x, 0.0]
}

fn run_hash() -> (u64, Vec<FleetAdaptEvent>) {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("fleet_adapt_golden");
    let telemetry = Telemetry::create(&dir, "fleet_adapt_golden").expect("telemetry");
    let clock = VirtualClock::new();
    let slots = [
        ModelSlot::new(LinearModel { scale: 10.0 }),
        ModelSlot::new(LinearModel { scale: 20.0 }),
        ModelSlot::new(LinearModel { scale: 30.0 }),
    ];
    let options = FleetAdaptOptions {
        adapt: AdaptConfig {
            window: 16,
            min_samples: 8,
            validation_pairs: 8,
            probation: 8,
            cooldown: 8,
            ..AdaptConfig::default()
        },
        max_concurrent_retrains: 1,
        correlated: vec![(0, 1)],
        warm_starts: true,
        warm_ratio_bar: 1.15,
    };
    let mut fleet = FleetAdaptation::new(
        &slots,
        vec!["a".into(), "b".into(), "c".into()],
        &clock,
        options,
        |_d, _m: &LinearModel, encs, obs| refit(encs, obs),
    )
    .with_warm_trainer(
        |_s, source: &LinearModel, t, incumbent: &LinearModel, _e, _o| LinearModel {
            scale: incumbent.scale * source.scale / [10.0, 20.0, 30.0][t],
        },
    )
    .with_telemetry(&telemetry);
    let plan = FaultSchedule::new(vec![
        FleetFault {
            at_sample: 40,
            kind: FleetFaultKind::CorrelatedDriftBurst {
                device_mask: 0b011,
                scale: 1.5,
            },
        },
        FleetFault {
            at_sample: 150,
            kind: FleetFaultKind::CorrelatedDriftBurst {
                device_mask: 0b110,
                scale: 1.4,
            },
        },
        FleetFault {
            at_sample: 150,
            kind: FleetFaultKind::PoolStarvation { ticks: 20 },
        },
        FleetFault {
            at_sample: 260,
            kind: FleetFaultKind::BadDeploy {
                device: 0,
                bias_ms: 40.0,
            },
        },
        FleetFault {
            at_sample: 260,
            kind: FleetFaultKind::CorrelatedDriftBurst {
                device_mask: 0b001,
                scale: 1.3,
            },
        },
    ]);
    let mut scales = [10.0, 20.0, 30.0];
    for t in 0..400u64 {
        for fault in plan.take_all(|f| f.at_sample == t) {
            match fault.kind {
                FleetFaultKind::CorrelatedDriftBurst { device_mask, scale } => {
                    for (d, s) in scales.iter_mut().enumerate() {
                        if device_mask & (1 << d) != 0 {
                            *s *= scale;
                        }
                    }
                }
                FleetFaultKind::PoolStarvation { ticks } => fleet.starve_pool(ticks),
                FleetFaultKind::BadDeploy { device, bias_ms } => {
                    fleet.arm_bad_deploy(device as usize, bias_ms)
                }
            }
        }
        let samples: Vec<(Vec<f32>, f64)> = (0..3)
            .map(|d| {
                let i = t * 3 + d as u64;
                let e = enc(i);
                let noise = 0.05 * (0.7 * i as f64).sin();
                let obs = scales[d] * f64::from(e[0]) + noise;
                (e, obs)
            })
            .collect();
        fleet.ingest_tick(&samples);
        clock.advance(Duration::from_millis(5));
    }
    let audit = fleet.audit().to_vec();
    let generations: Vec<u64> = slots.iter().map(ModelSlot::generation).collect();
    drop(fleet);
    let path = telemetry.path().to_path_buf();
    drop(telemetry);
    let jsonl = std::fs::read(path).expect("telemetry written");
    let h = fnv(0xcbf2_9ce4_8422_2325, format!("{audit:?}").as_bytes());
    let h = fnv(h, format!("{generations:?}").as_bytes());
    (fnv(h, &jsonl), audit)
}

#[test]
fn scripted_fleet_adaptation_reproduces_the_recorded_audit_and_telemetry() {
    let (hash, audit) = run_hash();
    assert!(fleet_audit_is_well_formed(3, &audit));
    let any = |f: fn(&FleetAdaptEvent) -> bool| audit.iter().any(f);
    assert!(any(|e| matches!(e, FleetAdaptEvent::WarmStartArmed { .. })));
    assert!(any(|e| matches!(e, FleetAdaptEvent::PoolStarved { .. })));
    assert_eq!(hash, GOLDEN_HASH, "got {hash:#018x}");
}
