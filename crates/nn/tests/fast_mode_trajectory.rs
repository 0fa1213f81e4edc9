//! Trajectory divergence bounds: 100 optimization steps under the fast
//! kernel tier must stay close to the strict trajectory.
//!
//! Per-step kernel error is bounded tightly by
//! `lightnas_tensor::tolerance::ReductionBound`; over a *trajectory* those
//! per-step perturbations feed back through the optimizer, so the honest
//! contract is looser and empirical: after 100 Adam steps from identical
//! seeds,
//!
//! * the loss curves track each other step for step (the fast run is the
//!   same optimization, not a different one), and
//! * the final weights agree far inside the learning-rate scale — the two
//!   runs land on the same optimum basin, with divergence orders of
//!   magnitude below one gradient step.
//!
//! The bounds carry ~100× headroom over the divergence measured on FMA
//! hardware, so they assert "same trajectory" without flaking on different
//! contraction patterns; on CPUs without FMA the fast tier degrades to the
//! strict path and every difference is exactly zero.

use lightnas_nn::layers::Mlp;
use lightnas_nn::optim::Adam;
use lightnas_nn::{Bindings, ParamStore};
use lightnas_tensor::{Graph, KernelCtx, KernelMode, Tensor};

const STEPS: usize = 100;

/// Runs 100 Adam steps of a 64→96→48→1 regression MLP from a fixed seed
/// under `mode` at `threads` kernel threads (SIMD per `simd`) and returns
/// (per-step losses, final flattened weights).
fn run_trajectory(mode: KernelMode, threads: usize, simd: bool) -> (Vec<f32>, Vec<f32>) {
    let ctx = KernelCtx {
        mode,
        threads,
        simd,
        tile: None,
    };
    ctx.scope(trajectory)
}

fn trajectory() -> (Vec<f32>, Vec<f32>) {
    let mut store = ParamStore::new();
    let mlp = Mlp::new(&mut store, "net", &[64, 96, 48, 1], 11);
    let mut opt = Adam::new(1e-3, 1e-5);
    let x = Tensor::uniform(&[128, 64], -1.0, 1.0, 90);
    let y = Tensor::uniform(&[128, 1], -1.0, 1.0, 91);
    let mut g = Graph::new();
    let mut b = Bindings::new();
    let mut losses = Vec::with_capacity(STEPS);
    for _ in 0..STEPS {
        g.reset();
        b.clear();
        let xv = g.input_ref(&x);
        let pred = mlp.forward(&mut g, &mut b, &store, xv);
        let loss = g.mse_loss(pred, y.clone());
        g.backward(loss);
        losses.push(g.value(loss).as_slice()[0]);
        opt.step(&mut store, &g, &b);
    }
    let mut weights = Vec::new();
    for (_, _, value) in store.iter() {
        weights.extend_from_slice(value.as_slice());
    }
    (losses, weights)
}

#[test]
fn hundred_step_trajectories_stay_bounded() {
    let (strict_losses, strict_w) = run_trajectory(KernelMode::Strict, 1, true);
    // The optimization must actually be optimizing, or "trajectories agree"
    // is vacuous.
    assert!(
        strict_losses[STEPS - 1] < strict_losses[0] * 0.5,
        "strict run failed to train: {} -> {}",
        strict_losses[0],
        strict_losses[STEPS - 1]
    );
    let weight_scale = strict_w.iter().fold(0.0f32, |m, w| m.max(w.abs()));
    for threads in [1usize, 4] {
        let (fast_losses, fast_w) = run_trajectory(KernelMode::Fast, threads, true);
        // Loss curves track step for step: per-step relative slack 1e-3
        // (measured divergence after 100 steps is ~1e-6; headroom ~1000×).
        for (i, (f, s)) in fast_losses.iter().zip(&strict_losses).enumerate() {
            assert!(
                (f - s).abs() <= 1e-3 * (s.abs() + 1e-3),
                "step {i} ({threads} threads): fast loss {f} left strict loss {s}"
            );
        }
        // Final weights agree to well under one gradient step (lr = 1e-3):
        // the trajectories landed in the same place, not merely nearby.
        let worst = fast_w
            .iter()
            .zip(&strict_w)
            .fold(0.0f32, |m, (f, s)| m.max((f - s).abs()));
        assert!(
            worst <= 1e-3 * (weight_scale + 1.0),
            "{threads} threads: final weights diverged by {worst} (scale {weight_scale})"
        );
    }
}

#[test]
fn trajectory_divergence_is_zero_when_fast_degrades_to_strict() {
    // With SIMD off the fast tier has no FMA path and must produce the
    // strict trajectory bit for bit — the degradation contract end to end
    // through a real training loop.
    let (strict_losses, strict_w) = run_trajectory(KernelMode::Strict, 1, false);
    let (fast_losses, fast_w) = run_trajectory(KernelMode::Fast, 1, false);
    assert_eq!(
        strict_losses
            .iter()
            .map(|l| l.to_bits())
            .collect::<Vec<_>>(),
        fast_losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
        "with SIMD off, fast mode must replay the strict losses bitwise"
    );
    assert_eq!(
        strict_w.iter().map(|w| w.to_bits()).collect::<Vec<_>>(),
        fast_w.iter().map(|w| w.to_bits()).collect::<Vec<_>>(),
        "with SIMD off, fast mode must replay the strict weights bitwise"
    );
}
