//! Turning call logs into the metrics every workload shares.

use lightnas_tensor::kernels::PoolStats;

use crate::stats::{median, supported, tail};
use crate::trace::{Call, Kind, Recorder};
use crate::{Metrics, PER_LAYER};

/// Calls the growth ratio compares at each end of a call sequence.
const GROWTH_WINDOW: usize = 1_000;

/// Every per-layer metric at 0, for the layers a workload does not reach.
pub fn layer_defaults() -> Metrics {
    PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect()
}

/// Durations of `kind` calls in microseconds, in completion order.
fn durations_us(calls: &[Call], kind: Kind) -> Vec<f64> {
    calls
        .iter()
        .filter(|c| c.kind == kind)
        .map(|c| c.ns() as f64 / 1e3)
        .collect()
}

/// Median of the first and of the last [`GROWTH_WINDOW`] values.
fn ends(us: &[f64]) -> (f64, f64) {
    if us.is_empty() {
        return (0.0, 0.0);
    }
    let w = us.len().min(GROWTH_WINDOW);
    (median(&us[..w]), median(&us[us.len() - w..]))
}

/// The `predictor.*` call metrics of one call log.
fn predictor_layers(m: &mut Metrics, calls: &[Call]) {
    let mut growth: f64 = 0.0;
    for (kind, [n, busy, first, last]) in [
        (
            Kind::Predict,
            [
                "predictor.predict.calls",
                "predictor.predict.busy_s",
                "predictor.predict.p50_us.first_1k",
                "predictor.predict.p50_us.last_1k",
            ],
        ),
        (
            Kind::Gradient,
            [
                "predictor.gradient.calls",
                "predictor.gradient.busy_s",
                "predictor.gradient.p50_us.first_1k",
                "predictor.gradient.p50_us.last_1k",
            ],
        ),
    ] {
        let us = durations_us(calls, kind);
        let (a, b) = ends(&us);
        m.insert(n, us.len() as f64);
        // Summed from +0.0: an empty f64 sum is -0.0.
        m.insert(busy, us.iter().fold(0.0, |a, b| a + b) / 1e6);
        m.insert(first, a);
        m.insert(last, b);
        // Only a sequence long enough for disjoint windows has a growth.
        if us.len() >= 2 * GROWTH_WINDOW {
            growth = growth.max(b / a);
        }
    }
    m.insert("predictor.call_growth", growth);
    let batch: Vec<&Call> = calls.iter().filter(|c| c.kind == Kind::Batch).collect();
    let rows: usize = batch.iter().map(|c| c.rows).sum();
    let busy_us: f64 = batch.iter().map(|c| c.ns() as f64 / 1e3).sum();
    m.insert("predictor.batch.calls", batch.len() as f64);
    if rows > 0 {
        m.insert(
            "predictor.batch.rows_per_call",
            rows as f64 / batch.len() as f64,
        );
        m.insert("predictor.batch.us_per_row", busy_us / rows as f64);
    }
}

/// The `tensor.pool.*` metrics: the last sample of every thread that
/// queried the predictor, summed.
fn pool_layers(m: &mut Metrics, pools: &[PoolStats]) {
    let buffers: usize = pools.iter().map(|p| p.buffers).sum();
    let bytes: usize = pools.iter().map(|p| p.retained_bytes).sum();
    let hits: u64 = pools.iter().map(|p| p.hits).sum();
    let takes: u64 = pools.iter().map(|p| p.hits + p.misses).sum();
    m.insert("tensor.pool.buffers_end", buffers as f64);
    m.insert(
        "tensor.pool.retained_mib_end",
        bytes as f64 / (1 << 20) as f64,
    );
    if takes > 0 {
        m.insert("tensor.pool.hit_ratio", hits as f64 / takes as f64);
    }
}

/// Latency limit (µs) an operation must meet to count towards goodput.
pub const LIMIT_US: f64 = 5_000.0;

/// The latency end-to-end metrics: the median of `latencies_us`, and the
/// operations of `within` that met [`LIMIT_US`] per second of `over_s`.
/// Prints the latency tail with its sample count.
pub fn latency_e2e(
    m: &mut Metrics,
    latencies_us: &[f64],
    within: &[f64],
    over_s: f64,
    what: &str,
) -> Result<(), String> {
    let p50 = supported(latencies_us, 50.0, what)?;
    if let Some(t) = tail(latencies_us) {
        println!("{what}: latency p50={p50:.1} us, tail {t} us");
    }
    m.insert("p50_us", p50);
    let good = within.iter().filter(|&&us| us <= LIMIT_US).count();
    m.insert("goodput_per_s", good as f64 / over_s);
    Ok(())
}

/// The per-layer metrics every traced run reports: predictor calls, tensor
/// pools, the ungated p99 of the latency sample behind `p50_us`, and the
/// `trace.*` metrics of a traced unit whose wall time `walls.1` is compared
/// with the untraced units before (`walls.0`) and after (`walls.2`) it.
pub fn traced_layers(
    m: &mut Metrics,
    rec: &Recorder,
    latencies_us: &[f64],
    what: &str,
    walls: (f64, f64, f64),
) -> Result<(), String> {
    let calls = rec.calls();
    predictor_layers(m, &calls);
    pool_layers(m, &rec.pools());
    m.insert("latency.p99_us", supported(latencies_us, 99.0, what)?);
    let (before, traced, after) = walls;
    let untraced = (before + after) / 2.0;
    m.insert("trace.spans", (rec.spans().len() + calls.len()) as f64);
    m.insert("trace.wall_s", traced);
    m.insert("trace.untraced_wall_s", untraced);
    m.insert("trace.overhead_s", traced - untraced);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(kind: Kind, start_ns: u64, us: u64) -> Call {
        Call {
            kind,
            start_ns,
            end_ns: start_ns + us * 1_000,
            rows: if kind == Kind::Batch { 4 } else { 1 },
            parent: None,
        }
    }

    #[test]
    fn growth_compares_the_first_and_last_thousand_calls() {
        // 3,000 gradients whose cost doubles after the first 2,000.
        let calls: Vec<Call> = (0..3_000)
            .map(|i| call(Kind::Gradient, i, if i < 2_000 { 100 } else { 200 }))
            .collect();
        let mut m = layer_defaults();
        predictor_layers(&mut m, &calls);
        assert_eq!(m["predictor.gradient.calls"], 3_000.0);
        assert_eq!(m["predictor.gradient.p50_us.first_1k"], 100.0);
        assert_eq!(m["predictor.gradient.p50_us.last_1k"], 200.0);
        assert_eq!(m["predictor.call_growth"], 2.0);
        assert!((m["predictor.gradient.busy_s"] - 0.4).abs() < 1e-12);
        assert_eq!(m["predictor.predict.calls"], 0.0);
    }

    #[test]
    fn short_sequences_report_no_growth() {
        let calls: Vec<Call> = (0..1_999).map(|i| call(Kind::Predict, i, 50)).collect();
        let mut m = layer_defaults();
        predictor_layers(&mut m, &calls);
        assert_eq!(m["predictor.call_growth"], 0.0);
        assert_eq!(m["predictor.predict.p50_us.last_1k"], 50.0);
    }

    #[test]
    fn batch_metrics_are_per_row() {
        let calls = vec![call(Kind::Batch, 0, 40), call(Kind::Batch, 10, 40)];
        let mut m = layer_defaults();
        predictor_layers(&mut m, &calls);
        assert_eq!(m["predictor.batch.calls"], 2.0);
        assert_eq!(m["predictor.batch.rows_per_call"], 4.0);
        assert_eq!(m["predictor.batch.us_per_row"], 10.0);
    }
}
