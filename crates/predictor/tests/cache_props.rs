//! Properties of the single-flight cache: memoization is observably
//! irrelevant (values match the uncached predictor and counters stay equal
//! to occupancy), batched queries keep the sequential counter semantics at
//! every thread count, and concurrent misses compute exactly once.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use lightnas_hw::Xavier;
use lightnas_predictor::{
    BatchPredictor, CachedPredictor, Metric, MetricDataset, MlpPredictor, Predictor, TrainConfig,
};
use lightnas_space::{Architecture, SearchSpace};
use proptest::prelude::*;

fn predictor() -> &'static MlpPredictor {
    static PREDICTOR: OnceLock<MlpPredictor> = OnceLock::new();
    PREDICTOR.get_or_init(|| {
        let space = SearchSpace::standard();
        let data = MetricDataset::sample(&Xavier::maxn(), &space, Metric::LatencyMs, 400, 11);
        MlpPredictor::train(
            &data,
            &TrainConfig {
                epochs: 10,
                batch_size: 128,
                lr: 2e-3,
                seed: 0,
            },
        )
    })
}

fn arch(seed: u8) -> Architecture {
    static SPACE: OnceLock<SearchSpace> = OnceLock::new();
    Architecture::random(SPACE.get_or_init(SearchSpace::standard), u64::from(seed))
}

/// One step of an arbitrary cache workload.
#[derive(Debug, Clone)]
enum Op {
    Predict(u8),
    Gradient(u8),
    Batch(Vec<u8>),
    Clear,
}

/// Decodes one generated code into a workload step (the vendored proptest
/// has no `prop_oneof`, so the op mix is folded into an integer strategy):
/// 4/11 predicts, 3/11 gradients, 3/11 batches of 1–9 rows, 1/11 clears.
fn decode_op(code: u32) -> Op {
    let seed = |salt: u32| -> u8 {
        (code
            .wrapping_mul(2_654_435_761)
            .wrapping_add(salt.wrapping_mul(0x9e37_79b9))
            % 24) as u8
    };
    match code % 11 {
        0..=3 => Op::Predict(seed(0)),
        4..=6 => Op::Gradient(seed(1)),
        7..=9 => Op::Batch((0..1 + (code / 11) % 9).map(seed).collect()),
        _ => Op::Clear,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For ANY query sequence, the cache returns bit-identical values to
    /// the uncached predictor at every step, and every miss lands exactly
    /// one cached value: `misses == occupancy` after every step.
    #[test]
    fn cache_is_observationally_identical_to_the_uncached_predictor(
        codes in proptest::collection::vec(0u32..4400, 40)
    ) {
        let ops: Vec<Op> = codes.into_iter().map(decode_op).collect();
        let p = predictor();
        let cache = CachedPredictor::new(p);
        for op in &ops {
            match op {
                Op::Predict(s) => {
                    let a = arch(*s);
                    let v = Predictor::predict(&cache, &a);
                    prop_assert_eq!(v.to_bits(), p.predict(&a).to_bits());
                }
                Op::Gradient(s) => {
                    let enc = arch(*s).encode();
                    prop_assert_eq!(Predictor::gradient(&cache, &enc), p.gradient(&enc));
                }
                Op::Batch(seeds) => {
                    let encs: Vec<Vec<f32>> =
                        seeds.iter().map(|&s| arch(s).encode()).collect();
                    prop_assert_eq!(cache.predict_encodings(&encs), p.predict_encodings(&encs));
                }
                Op::Clear => cache.clear(),
            }
            let snap = cache.snapshot();
            prop_assert_eq!(
                snap.stats.misses as usize,
                snap.predictions + snap.gradients
            );
        }
    }
}

/// A wrapped predictor that counts how many rows actually reach it —
/// single-flight exactness is judged against this ground truth.
struct Counting<'a> {
    inner: &'a MlpPredictor,
    rows: AtomicU64,
}

impl Predictor for Counting<'_> {
    fn predict_encoding(&self, encoding: &[f32]) -> f64 {
        self.rows.fetch_add(1, Ordering::Relaxed);
        self.inner.predict_encoding(encoding)
    }
    fn gradient(&self, encoding: &[f32]) -> Vec<f32> {
        self.rows.fetch_add(1, Ordering::Relaxed);
        self.inner.gradient(encoding)
    }
}

impl BatchPredictor for Counting<'_> {
    fn predict_encodings(&self, encodings: &[Vec<f32>]) -> Vec<f64> {
        self.rows
            .fetch_add(encodings.len() as u64, Ordering::Relaxed);
        self.inner.predict_encodings(encodings)
    }
}

/// The batch every thread queries: 24 rows over 8 distinct architectures
/// (each repeated 3×, interleaved), so first-occurrence-miss / repeat-hit
/// accounting is exercised inside every batch.
fn mixed_batch() -> (Vec<Vec<f32>>, usize) {
    let uniques: Vec<Vec<f32>> = (0..8).map(|s| arch(s).encode()).collect();
    let batch: Vec<Vec<f32>> = (0..24).map(|i| uniques[i % 8].clone()).collect();
    (batch, 8)
}

#[test]
fn batched_counter_semantics_and_values_hold_at_1_2_and_8_threads() {
    let p = predictor();
    let (batch, distinct) = mixed_batch();
    let reference: Vec<f64> = batch.iter().map(|e| p.predict_encoding(e)).collect();
    for threads in [1usize, 2, 8] {
        let counting = Counting {
            inner: p,
            rows: AtomicU64::new(0),
        };
        let cached = CachedPredictor::new(&counting);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    let got = cached.predict_encodings(&batch);
                    // Value byte-identity: every thread sees exactly the
                    // uncached per-row answers, at any thread count.
                    for (g, w) in got.iter().zip(&reference) {
                        assert_eq!(g.to_bits(), w.to_bits(), "{threads} threads");
                    }
                });
            }
        });
        // Single-flight exactness: each distinct key reached the wrapped
        // predictor exactly once, no matter how many threads missed it.
        assert_eq!(
            counting.rows.load(Ordering::Relaxed),
            distinct as u64,
            "{threads} threads"
        );
        let stats = cached.stats();
        assert_eq!(stats.misses, distinct as u64, "{threads} threads");
        // Conservation: every row of every thread's batch is accounted a
        // hit or a miss, exactly once.
        assert_eq!(
            stats.hits + stats.misses,
            (threads * batch.len()) as u64,
            "{threads} threads"
        );
        assert_eq!(cached.cached_predictions(), distinct);
    }
}

#[test]
fn sequential_batch_pins_first_occurrence_miss_then_repeat_hit() {
    let p = predictor();
    let (batch, distinct) = mixed_batch();
    let cached = CachedPredictor::new(p);
    let _ = cached.predict_encodings(&batch);
    let stats = cached.stats();
    assert_eq!(stats.misses, distinct as u64, "first occurrences miss");
    assert_eq!(
        stats.hits,
        (batch.len() - distinct) as u64,
        "in-batch repeats hit"
    );
    // Re-running the batch converts every row into a hit.
    let _ = cached.predict_encodings(&batch);
    let stats = cached.stats();
    assert_eq!(stats.misses, distinct as u64);
    assert_eq!(stats.hits, (2 * batch.len() - distinct) as u64);
}
