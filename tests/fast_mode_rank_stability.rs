//! End-to-end rank stability: a λ sweep searched under the fast kernel
//! tier must reproduce the strict sweep's Pareto ordering.
//!
//! The fast tier's per-kernel perturbations are bounded (tolerance suite in
//! `lightnas-tensor`) and its 100-step training trajectories track strict
//! ones (`lightnas-nn`), but what the *search* ultimately sells is an
//! ordering: which architecture is faster, which is more accurate, across
//! the trade-off curve. This test runs the motivational λ sweep (three
//! well-separated λs) under both tiers and asserts the orderings agree —
//! latency ranks, accuracy ranks, and the λ→latency monotonicity the sweep
//! exists to demonstrate.

mod common;

use common::stack;
use lightnas_repro::prelude::*;
use lightnas_repro::search::sweep::{lambda_sweep, SweepPoint};
use lightnas_repro::tensor::{KernelCtx, KernelMode};

const LAMBDAS: [f64; 3] = [0.0005, 0.05, 1.0];

fn run_sweep_under(mode: KernelMode) -> Vec<SweepPoint> {
    let s = stack();
    let ctx = KernelCtx {
        mode,
        ..KernelCtx::current()
    };
    ctx.scope(|| {
        lambda_sweep(
            &s.space,
            &s.oracle,
            &s.lut,
            &s.device,
            &LAMBDAS,
            SearchConfig::fast(),
            0xfa57,
        )
    })
}

/// Indices of `points` sorted by `key`, ties broken by index (stable).
fn rank_order(points: &[SweepPoint], key: impl Fn(&SweepPoint) -> f64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..points.len()).collect();
    idx.sort_by(|&a, &b| key(&points[a]).total_cmp(&key(&points[b])));
    idx
}

#[test]
fn fast_sweep_reproduces_the_strict_pareto_ordering() {
    let strict = run_sweep_under(KernelMode::Strict);
    let fast = run_sweep_under(KernelMode::Fast);

    // The sweep must span a real trade-off range, or rank agreement is
    // vacuous: the extreme λs must separate latency decisively.
    let lat = |p: &SweepPoint| p.latency_ms;
    assert!(
        strict[0].latency_ms > strict[2].latency_ms * 1.2,
        "strict sweep did not separate the extremes: {:.2} vs {:.2} ms",
        strict[0].latency_ms,
        strict[2].latency_ms
    );

    // Pareto ordering: latency ranks and accuracy ranks agree across tiers.
    assert_eq!(
        rank_order(&strict, lat),
        rank_order(&fast, lat),
        "fast search reordered the sweep by latency: strict {:?} vs fast {:?}",
        strict.iter().map(lat).collect::<Vec<_>>(),
        fast.iter().map(lat).collect::<Vec<_>>()
    );
    assert_eq!(
        rank_order(&strict, |p| p.top1_quick),
        rank_order(&fast, |p| p.top1_quick),
        "fast search reordered the sweep by accuracy: strict {:?} vs fast {:?}",
        strict.iter().map(|p| p.top1_quick).collect::<Vec<_>>(),
        fast.iter().map(|p| p.top1_quick).collect::<Vec<_>>()
    );

    // Both tiers show the motivating monotone trend: more λ, less latency.
    for points in [&strict, &fast] {
        assert!(
            points[0].latency_ms >= points[2].latency_ms,
            "λ={} should not be faster than λ={}",
            LAMBDAS[0],
            LAMBDAS[2]
        );
    }

    // The tiers must also land *near* each other point for point — rank
    // stability through wildly different architectures would be luck, not
    // tolerance. 10% covers an op flip on a couple of layers.
    for (s, f) in strict.iter().zip(&fast) {
        assert!(
            (s.latency_ms - f.latency_ms).abs() <= 0.10 * s.latency_ms,
            "λ={}: fast landed at {:.2} ms vs strict {:.2} ms",
            s.lambda,
            f.latency_ms,
            s.latency_ms
        );
    }
}
