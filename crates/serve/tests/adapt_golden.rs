//! Golden lock on the single-device adaptation loop: a scripted
//! [`AdaptationController`] run — cheap linear model, every
//! [`AdaptFaultKind`], several retrain cycles — must reproduce the exact
//! audit trail and `adapt_*` telemetry recorded while the controller still
//! trained shadows itself. Fitting the shadow right after `ingest`, on the
//! same tick, is what keeps each `RetrainStarted`'s sample index and window
//! and each `adapt_retrain` line's `t_us`.
//!
//! ```text
//! cargo test --release -p lightnas-serve --test adapt_golden
//! ```

use std::time::Duration;

use lightnas_predictor::{BatchPredictor, Predictor};
use lightnas_runtime::{FaultSchedule, Telemetry};
use lightnas_serve::{
    audit_is_well_formed, AdaptConfig, AdaptEvent, AdaptFault, AdaptFaultKind,
    AdaptationController, ModelSlot, VirtualClock,
};

/// FNV-1a 64 over the Debug-rendered audit trail followed by the JSONL
/// telemetry bytes.
const GOLDEN_HASH: u64 = 0x1467_e90f_a26e_4578;

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

fn refit(_m: &LinearModel, encs: &[Vec<f32>], obs: &[f64]) -> LinearModel {
    let (mut num, mut den) = (0.0, 0.0);
    for (e, o) in encs.iter().zip(obs) {
        let x = f64::from(e[0]);
        num += x * o;
        den += x * x;
    }
    LinearModel { scale: num / den }
}

/// Deterministic encoding stream (first lane in [1, 2)).
fn enc(i: u64) -> Vec<f32> {
    let x = 1.0 + (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) as f32 / 16_777_216.0;
    vec![x, 0.0]
}

fn run_hash() -> (u64, Vec<AdaptEvent>) {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("adapt_golden");
    let telemetry = Telemetry::create(&dir, "adapt_golden").expect("telemetry");
    let clock = VirtualClock::new();
    let slot = ModelSlot::new(LinearModel { scale: 10.0 });
    let config = AdaptConfig {
        window: 16,
        min_samples: 8,
        validation_pairs: 8,
        probation: 8,
        cooldown: 8,
        ..AdaptConfig::default()
    };
    let mut ctl = AdaptationController::new(&slot, &clock, config).with_telemetry(&telemetry);
    let plan = FaultSchedule::new(vec![
        AdaptFault {
            at_sample: 40,
            kind: AdaptFaultKind::DriftBurst { scale: 1.6 },
        },
        AdaptFault {
            at_sample: 200,
            kind: AdaptFaultKind::StalePredictor {
                bias_ms: 6.0,
                samples: 60,
            },
        },
        AdaptFault {
            at_sample: 320,
            kind: AdaptFaultKind::BadDeploy { bias_ms: 40.0 },
        },
        AdaptFault {
            at_sample: 320,
            kind: AdaptFaultKind::DriftBurst { scale: 1.25 },
        },
    ]);
    let mut scale = 10.0;
    for i in 0..480u64 {
        for fault in plan.take_all(|f| f.at_sample == i) {
            match fault.kind {
                AdaptFaultKind::DriftBurst { scale: s } => scale *= s,
                AdaptFaultKind::StalePredictor { bias_ms, samples } => {
                    slot.inject_bias(bias_ms, samples)
                }
                AdaptFaultKind::BadDeploy { bias_ms } => ctl.arm_bad_deploy(bias_ms),
            }
        }
        let e = enc(i);
        let noise = 0.05 * (0.7 * i as f64).sin();
        ctl.ingest(&e, scale * f64::from(e[0]) + noise);
        if ctl.awaiting_retrain() {
            let (encs, obs) = ctl.retrain_window();
            ctl.install_shadow(slot.with_current(|m| refit(m, &encs, &obs)));
        }
        clock.advance(Duration::from_millis(3));
    }
    let audit = ctl.audit().to_vec();
    drop(ctl);
    let path = telemetry.path().to_path_buf();
    drop(telemetry);
    let jsonl = std::fs::read(path).expect("telemetry written");
    let h = fnv(0xcbf2_9ce4_8422_2325, format!("{audit:?}").as_bytes());
    (fnv(h, &jsonl), audit)
}

#[test]
fn scripted_adaptation_reproduces_the_recorded_audit_and_telemetry() {
    let (hash, audit) = run_hash();
    assert!(audit_is_well_formed(&audit), "{audit:?}");
    let count = |f: fn(&AdaptEvent) -> bool| audit.iter().filter(|e| f(e)).count();
    assert!(count(|e| matches!(e, AdaptEvent::RetrainStarted { .. })) >= 2);
    assert!(count(|e| matches!(e, AdaptEvent::Promoted { .. })) >= 2);
    assert!(count(|e| matches!(e, AdaptEvent::RolledBack { .. })) >= 1);
    assert_eq!(hash, GOLDEN_HASH, "got {hash:#018x}");
}
