//! A compact encoding key and a thread-safe single-flight memoizing
//! wrapper for any [`Predictor`].
//!
//! The search engine re-evaluates `predict(argmax α)` at **every** step
//! (`LAT(α)` is defined on the derived architecture, Eq. 4), and the argmax
//! architecture changes only when a slot actually flips — so across a
//! 90-epoch search the same few hundred architectures are queried thousands
//! of times. [`CachedPredictor`] memoizes `predict`/`gradient` by the packed
//! [`encoding_key`] and exposes hit/miss counters; `lightnas-runtime` shares
//! one cache across a whole sweep of concurrent search jobs, where the hit
//! rate compounds further (neighbouring targets visit overlapping
//! architectures), and `lightnas-serve`'s multi-tenant search service shares
//! one cache across *many* sweeps at once.
//!
//! Misses are **single-flight**: concurrent misses on the same key compute
//! the value once — the first arrival becomes the leader, everyone else
//! waits for its (deterministic, hence identical) answer instead of burning
//! a redundant forward pass. See DESIGN.md §16 for the full scale-out
//! contract.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{
    Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};

use lightnas_space::{Architecture, NUM_OPS, SEARCHABLE_LAYERS, TOTAL_LAYERS};

use crate::{BatchPredictor, Predictor};

/// Packs a one-hot `ᾱ` encoding into a single `u64` cache key: the argmax
/// operator index of each searchable row, 3 bits per slot (`K = 7 < 8`).
///
/// Equals [`architecture_key`] of the decoded architecture.
///
/// # Panics
///
/// Panics if `encoding.len() != TOTAL_LAYERS * NUM_OPS`.
pub fn encoding_key(encoding: &[f32]) -> u64 {
    assert_eq!(
        encoding.len(),
        TOTAL_LAYERS * NUM_OPS,
        "encoding must have {} values",
        TOTAL_LAYERS * NUM_OPS
    );
    let mut key = 0u64;
    for l in 1..TOTAL_LAYERS {
        let row = &encoding[l * NUM_OPS..(l + 1) * NUM_OPS];
        let mut best = 0usize;
        for (k, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = k;
            }
        }
        key = (key << 3) | best as u64;
    }
    key
}

/// The cache key of an architecture, without materializing its encoding.
pub fn architecture_key(arch: &Architecture) -> u64 {
    debug_assert_eq!(arch.ops().len(), SEARCHABLE_LAYERS);
    arch.ops()
        .iter()
        .fold(0u64, |key, op| (key << 3) | op.index() as u64)
}

// --- the poison-recovering lock helpers.
//
// A search job that panics while holding a cache lock leaves the protected
// state valid (writes are whole inserts/clears of already-computed values),
// so poisoning is recovered, never propagated — surviving jobs keep the
// cache instead of cascading the panic.

fn rlock<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

fn wlock<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

fn mlock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Hit/miss counters of a [`CachedPredictor`] (over both query kinds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Queries answered from the cache (including single-flight waiters,
    /// which ride a leader's compute instead of touching the predictor).
    pub hits: u64,
    /// Queries that computed through the wrapped predictor. With
    /// single-flight coalescing this equals the number of values ever
    /// inserted since the last [`clear`](CachedPredictor::clear).
    pub misses: u64,
}

impl CacheStats {
    /// Fraction of queries answered from the cache (0 when never queried).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter-wise sum.
    pub fn merged(self, other: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
        }
    }

    /// Counter-wise saturating difference — the traffic between two
    /// snapshots of the same (monotonic between clears) cache.
    pub fn since(self, earlier: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
        }
    }
}

/// A consistent view of a [`CachedPredictor`]: `misses == predictions +
/// gradients` holds **exactly** (each miss inserts exactly one value, both
/// counted under the same write lock, and the snapshot reads under the read
/// locks) — the invariant the clear-consistency regression test hammers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Hit/miss counters.
    pub stats: CacheStats,
    /// Distinct cached predictions.
    pub predictions: usize,
    /// Distinct cached gradients.
    pub gradients: usize,
}

/// What a miss-leader's in-flight computation looks like to waiters.
#[derive(Debug)]
enum FlightState<V> {
    Pending,
    Done(V),
    Aborted,
}

/// One in-flight single-flight computation: the leader completes (or
/// aborts, if it panics) the flight; waiters block on the condvar.
#[derive(Debug)]
struct Flight<V> {
    state: Mutex<FlightState<V>>,
    ready: Condvar,
}

impl<V: Clone> Flight<V> {
    fn new() -> Self {
        Self {
            state: Mutex::new(FlightState::Pending),
            ready: Condvar::new(),
        }
    }

    /// Blocks until the leader lands: `Some(value)` on completion, `None`
    /// when the leader aborted (panicked) and the waiter must retry.
    fn wait(&self) -> Option<V> {
        let mut state = mlock(&self.state);
        loop {
            match &*state {
                FlightState::Pending => {
                    state = self
                        .ready
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                FlightState::Done(v) => return Some(v.clone()),
                FlightState::Aborted => return None,
            }
        }
    }

    fn complete(&self, value: V) {
        *mlock(&self.state) = FlightState::Done(value);
        self.ready.notify_all();
    }

    /// Marks the flight failed so waiters retry — a no-op once completed.
    fn abort(&self) {
        let mut state = mlock(&self.state);
        if matches!(*state, FlightState::Pending) {
            *state = FlightState::Aborted;
            self.ready.notify_all();
        }
    }
}

/// Unwinds a registered flight if its leader panics before landing:
/// deregisters the (still-pending) flight and wakes waiters to retry, so a
/// panicking compute can never strand other threads on the condvar.
struct FlightGuard<'a, V: Clone> {
    flights: &'a Mutex<HashMap<u64, Arc<Flight<V>>>>,
    key: u64,
    flight: &'a Arc<Flight<V>>,
    armed: bool,
}

impl<V: Clone> Drop for FlightGuard<'_, V> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let mut flights = mlock(self.flights);
        if flights
            .get(&self.key)
            .is_some_and(|f| Arc::ptr_eq(f, self.flight))
        {
            flights.remove(&self.key);
        }
        drop(flights);
        self.flight.abort();
    }
}

/// Memoizes `compute(key)` in `map` with single-flight miss coalescing.
///
/// Lock protocol (shared with the batched path and `clear`): the flights
/// mutex is always taken *before* the map lock, never while holding it;
/// the miss counter increments under the map's write lock together with
/// the insert, so any observer holding the read lock sees counter and
/// occupancy move together.
fn single_flight<V: Clone>(
    map: &RwLock<HashMap<u64, V>>,
    flights: &Mutex<HashMap<u64, Arc<Flight<V>>>>,
    hits: &AtomicU64,
    misses: &AtomicU64,
    key: u64,
    compute: impl Fn() -> V,
) -> V {
    loop {
        if let Some(v) = rlock(map).get(&key) {
            hits.fetch_add(1, Ordering::Relaxed);
            return v.clone();
        }
        let leader = {
            let mut in_flight = mlock(flights);
            // Double-checked under the flights mutex: a leader that landed
            // between our read miss and here is a plain hit.
            if let Some(v) = rlock(map).get(&key) {
                hits.fetch_add(1, Ordering::Relaxed);
                return v.clone();
            }
            match in_flight.get(&key) {
                Some(flight) => Err(Arc::clone(flight)),
                None => {
                    let flight = Arc::new(Flight::new());
                    in_flight.insert(key, Arc::clone(&flight));
                    Ok(flight)
                }
            }
        };
        match leader {
            Err(flight) => {
                if let Some(v) = flight.wait() {
                    hits.fetch_add(1, Ordering::Relaxed);
                    return v;
                }
                // The leader aborted; loop and possibly become the leader.
            }
            Ok(flight) => {
                let mut guard = FlightGuard {
                    flights,
                    key,
                    flight: &flight,
                    armed: true,
                };
                let v = compute();
                {
                    let mut in_flight = mlock(flights);
                    let mut m = wlock(map);
                    m.insert(key, v.clone());
                    misses.fetch_add(1, Ordering::Relaxed);
                    drop(m);
                    in_flight.remove(&key);
                }
                guard.armed = false;
                flight.complete(v.clone());
                return v;
            }
        }
    }
}

/// A thread-safe memoizing wrapper around any [`Predictor`].
///
/// Both `predict` and `gradient` results are cached by the packed
/// architecture key, each kind in its own `RwLock`-protected map, with one
/// pair of hit/miss counters. Concurrent readers share the read locks.
/// Concurrent misses on the *same* key are single-flight: one thread
/// computes, the rest wait for its answer, so a burst of cold traffic costs
/// one forward pass per distinct key.
///
/// Memoization never changes a value — the wrapped predictor is
/// deterministic, and waiters receive exactly the leader's result — so a
/// cached and an uncached run are byte-identical (the cache property tests
/// pin this for arbitrary query sequences).
///
/// Lock poisoning is recovered, not propagated: a search job that panics
/// while holding a cache lock leaves the maps in a valid state (every write
/// is a whole insert of an already-computed value), so surviving jobs in
/// the same sweep keep the cache instead of cascading the panic. A leader
/// that panics *mid-compute* aborts its flight and wakes waiters to retry.
#[derive(Debug)]
pub struct CachedPredictor<'a, P: Predictor> {
    inner: &'a P,
    predictions: RwLock<HashMap<u64, f64>>,
    gradients: RwLock<HashMap<u64, Vec<f32>>>,
    prediction_flights: Mutex<HashMap<u64, Arc<Flight<f64>>>>,
    gradient_flights: Mutex<HashMap<u64, Arc<Flight<Vec<f32>>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<'a, P: Predictor> CachedPredictor<'a, P> {
    /// Wraps `inner` with an empty cache.
    pub fn new(inner: &'a P) -> Self {
        Self {
            inner,
            predictions: RwLock::new(HashMap::new()),
            gradients: RwLock::new(HashMap::new()),
            prediction_flights: Mutex::new(HashMap::new()),
            gradient_flights: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The wrapped predictor.
    pub fn inner(&self) -> &'a P {
        self.inner
    }

    /// Current hit/miss counters (aggregated over both query kinds).
    pub fn stats(&self) -> CacheStats {
        self.snapshot().stats
    }

    /// A consistent snapshot: counters and map sizes are read under both
    /// maps' read locks, so `misses == predictions + gradients` exactly
    /// (see [`CacheSnapshot`]).
    pub fn snapshot(&self) -> CacheSnapshot {
        // Lock order matches `clear`: predictions before gradients.
        let p = rlock(&self.predictions);
        let g = rlock(&self.gradients);
        CacheSnapshot {
            stats: CacheStats {
                hits: self.hits.load(Ordering::Relaxed),
                misses: self.misses.load(Ordering::Relaxed),
            },
            predictions: p.len(),
            gradients: g.len(),
        }
    }

    /// Number of distinct architectures with a cached prediction.
    pub fn cached_predictions(&self) -> usize {
        rlock(&self.predictions).len()
    }

    /// Number of distinct architectures with a cached gradient.
    pub fn cached_gradients(&self) -> usize {
        rlock(&self.gradients).len()
    }

    /// Drops all cached values and resets the counters.
    ///
    /// Consistency protocol: the clear is *atomic* — both maps emptied and
    /// both counters reset while holding both write locks — so no observer
    /// (which reads counters under the same locks, see
    /// [`snapshot`](Self::snapshot)) can ever see maps and counters
    /// disagree. Clearing the two maps and the counters in separate
    /// critical sections would let a concurrent writer landing between them
    /// leave occupancy permanently ahead of the miss counter.
    pub fn clear(&self) {
        let mut p = wlock(&self.predictions);
        let mut g = wlock(&self.gradients);
        p.clear();
        g.clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }

    fn predict_keyed(&self, key: u64, compute: impl Fn() -> f64) -> f64 {
        single_flight(
            &self.predictions,
            &self.prediction_flights,
            &self.hits,
            &self.misses,
            key,
            compute,
        )
    }
}

/// Unwinds the batched path's registered flights if the inner batched
/// compute panics: every still-pending flight is deregistered and aborted
/// so concurrent waiters retry instead of hanging.
struct BatchFlightsGuard<'a> {
    flights: &'a Mutex<HashMap<u64, Arc<Flight<f64>>>>,
    entries: &'a [(u64, usize, Arc<Flight<f64>>)],
    armed: bool,
}

impl Drop for BatchFlightsGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        for (key, _, flight) in self.entries {
            let mut flights = mlock(self.flights);
            if flights.get(key).is_some_and(|f| Arc::ptr_eq(f, flight)) {
                flights.remove(key);
            }
            drop(flights);
            flight.abort();
        }
    }
}

impl<P: BatchPredictor> BatchPredictor for CachedPredictor<'_, P> {
    /// Batched lookup: cached rows are answered from the map, the remaining
    /// *distinct* keys this thread leads go to the wrapped predictor in
    /// **one** `predict_encodings` call, keys already in flight on other
    /// threads are waited for, and every result lands in the cache.
    ///
    /// Counter semantics match the sequential per-row loop exactly: the
    /// first occurrence of an uncached key counts as a miss, repeats of the
    /// same key inside the batch count as hits (the sequential loop would
    /// have filled the cache by then). A key computed by *another* thread's
    /// flight counts as a hit here — only actual computes count as misses,
    /// which is what makes `misses == occupancy` exact. Values are
    /// bit-identical to per-row queries because the inner batched path
    /// guarantees the same.
    fn predict_encodings(&self, encodings: &[Vec<f32>]) -> Vec<f64> {
        let mut out = vec![0.0f64; encodings.len()];
        // Rows not answered from the cache, and the first occurrence of each
        // distinct uncached key.
        let mut unresolved: Vec<(usize, u64)> = Vec::new();
        let mut pending: Vec<(u64, usize)> = Vec::new();
        let mut seen = HashSet::new();
        {
            let map = rlock(&self.predictions);
            for (i, enc) in encodings.iter().enumerate() {
                let key = encoding_key(enc);
                if let Some(&v) = map.get(&key) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    out[i] = v;
                    continue;
                }
                unresolved.push((i, key));
                if seen.insert(key) {
                    pending.push((key, i));
                } else {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                }
            }
        }

        let mut resolved: HashMap<u64, f64> = HashMap::new();
        // Keys this thread leads vs. keys already in flight elsewhere.
        let mut ours: Vec<(u64, usize, Arc<Flight<f64>>)> = Vec::new();
        let mut foreign: Vec<(u64, usize, Arc<Flight<f64>>)> = Vec::new();
        {
            let mut flights = mlock(&self.prediction_flights);
            let map = rlock(&self.predictions);
            for &(key, row) in &pending {
                if let Some(&v) = map.get(&key) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    resolved.insert(key, v);
                    continue;
                }
                match flights.get(&key) {
                    Some(flight) => foreign.push((key, row, Arc::clone(flight))),
                    None => {
                        let flight = Arc::new(Flight::new());
                        flights.insert(key, Arc::clone(&flight));
                        ours.push((key, row, flight));
                    }
                }
            }
        }

        if !ours.is_empty() {
            let mut guard = BatchFlightsGuard {
                flights: &self.prediction_flights,
                entries: &ours,
                armed: true,
            };
            let miss_rows: Vec<Vec<f32>> = ours
                .iter()
                .map(|&(_, row, _)| encodings[row].clone())
                .collect();
            let computed = self.inner.predict_encodings(&miss_rows);
            {
                let mut flights = mlock(&self.prediction_flights);
                let mut map = wlock(&self.predictions);
                for ((key, _, _), &v) in ours.iter().zip(&computed) {
                    map.insert(*key, v);
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    flights.remove(key);
                }
            }
            for ((key, _, flight), &v) in ours.iter().zip(&computed) {
                flight.complete(v);
                resolved.insert(*key, v);
            }
            guard.armed = false;
        }

        for (key, row, flight) in foreign {
            match flight.wait() {
                Some(v) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    resolved.insert(key, v);
                }
                // The foreign leader aborted: compute this key ourselves
                // through the scalar single-flight path (counts its own
                // miss at insert time).
                None => {
                    let v = Predictor::predict_encoding(self, &encodings[row]);
                    resolved.insert(key, v);
                }
            }
        }

        for &(i, key) in &unresolved {
            out[i] = resolved[&key];
        }
        out
    }
}

impl<P: Predictor> Predictor for CachedPredictor<'_, P> {
    fn predict_encoding(&self, encoding: &[f32]) -> f64 {
        let key = encoding_key(encoding);
        self.predict_keyed(key, || self.inner.predict_encoding(encoding))
    }

    fn predict(&self, arch: &Architecture) -> f64 {
        // Keyed straight off the operator list — no 154-float encoding is
        // materialized on a hit.
        self.predict_keyed(architecture_key(arch), || self.inner.predict(arch))
    }

    fn gradient(&self, encoding: &[f32]) -> Vec<f32> {
        single_flight(
            &self.gradients,
            &self.gradient_flights,
            &self.hits,
            &self.misses,
            encoding_key(encoding),
            || self.inner.gradient(encoding),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Metric, MetricDataset, MlpPredictor, TrainConfig};
    use lightnas_hw::Xavier;
    use lightnas_space::SearchSpace;

    fn small_predictor() -> MlpPredictor {
        let space = SearchSpace::standard();
        let device = Xavier::maxn();
        let data = MetricDataset::sample(&device, &space, Metric::LatencyMs, 400, 11);
        MlpPredictor::train(
            &data,
            &TrainConfig {
                epochs: 10,
                batch_size: 128,
                lr: 2e-3,
                seed: 0,
            },
        )
    }

    #[test]
    fn keys_agree_between_architecture_and_encoding() {
        let space = SearchSpace::standard();
        for seed in 0..32 {
            let arch = Architecture::random(&space, seed);
            assert_eq!(architecture_key(&arch), encoding_key(&arch.encode()));
        }
    }

    #[test]
    fn keys_are_distinct_across_architectures() {
        let space = SearchSpace::standard();
        let mut seen = std::collections::HashSet::new();
        for seed in 0..200 {
            seen.insert(architecture_key(&Architecture::random(&space, seed)));
        }
        assert!(seen.len() >= 199, "only {} distinct keys", seen.len());
    }

    #[test]
    fn cached_values_match_the_wrapped_predictor() {
        let p = small_predictor();
        let cached = CachedPredictor::new(&p);
        let space = SearchSpace::standard();
        for seed in 0..10 {
            let arch = Architecture::random(&space, seed);
            let enc = arch.encode();
            assert_eq!(Predictor::predict(&cached, &arch), p.predict(&arch));
            assert_eq!(Predictor::gradient(&cached, &enc), p.gradient(&enc));
            // Second round must come from the cache and stay identical.
            assert_eq!(Predictor::predict(&cached, &arch), p.predict(&arch));
            assert_eq!(Predictor::gradient(&cached, &enc), p.gradient(&enc));
        }
        let stats = cached.stats();
        assert_eq!(stats.misses, 20, "one predict + one gradient miss per arch");
        assert_eq!(stats.hits, 20);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(cached.cached_predictions(), 10);
        assert_eq!(cached.cached_gradients(), 10);
    }

    #[test]
    fn batched_queries_coalesce_misses_and_serve_hits() {
        let p = small_predictor();
        let cached = CachedPredictor::new(&p);
        let space = SearchSpace::standard();
        // 16 rows over 6 distinct architectures, with repeats inside the
        // batch: rows 6.. cycle through the first six again.
        let uniques: Vec<Vec<f32>> = (0..6)
            .map(|s| Architecture::random(&space, s).encode())
            .collect();
        let batch: Vec<Vec<f32>> = (0..16).map(|i| uniques[i % 6].clone()).collect();
        let got = cached.predict_encodings(&batch);
        let want: Vec<f64> = batch.iter().map(|e| p.predict_encoding(e)).collect();
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.to_bits(), w.to_bits(), "batched value diverged");
        }
        let stats = cached.stats();
        assert_eq!(stats.misses, 6, "one miss per distinct architecture");
        assert_eq!(stats.hits, 10, "in-batch repeats count as hits");
        assert_eq!(cached.cached_predictions(), 6);
        // A second identical batch is answered entirely from the cache.
        let again = cached.predict_encodings(&batch);
        assert_eq!(again, got);
        let stats = cached.stats();
        assert_eq!(stats.misses, 6);
        assert_eq!(stats.hits, 26);
    }

    #[test]
    fn clear_resets_everything() {
        let p = small_predictor();
        let cached = CachedPredictor::new(&p);
        let arch = Architecture::random(&SearchSpace::standard(), 1);
        let _ = Predictor::predict(&cached, &arch);
        cached.clear();
        assert_eq!(cached.stats(), CacheStats::default());
        assert_eq!(cached.cached_predictions(), 0);
    }

    #[test]
    fn concurrent_queries_are_consistent() {
        let p = small_predictor();
        let cached = CachedPredictor::new(&p);
        let space = SearchSpace::standard();
        let archs: Vec<Architecture> = (0..8).map(|s| Architecture::random(&space, s)).collect();
        let expected: Vec<f64> = archs.iter().map(|a| p.predict(a)).collect();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for (arch, &want) in archs.iter().zip(&expected) {
                        assert_eq!(Predictor::predict(&cached, arch), want);
                    }
                });
            }
        });
        let stats = cached.stats();
        assert_eq!(stats.hits + stats.misses, 32);
        assert_eq!(cached.cached_predictions(), 8);
    }

    /// A predictor that counts every genuine compute — the ground truth
    /// the single-flight contract is judged against.
    struct Counting<'a> {
        inner: &'a MlpPredictor,
        computes: AtomicU64,
    }

    impl Predictor for Counting<'_> {
        fn predict_encoding(&self, encoding: &[f32]) -> f64 {
            self.computes.fetch_add(1, Ordering::Relaxed);
            self.inner.predict_encoding(encoding)
        }
        fn gradient(&self, encoding: &[f32]) -> Vec<f32> {
            self.computes.fetch_add(1, Ordering::Relaxed);
            self.inner.gradient(encoding)
        }
        fn predict(&self, arch: &Architecture) -> f64 {
            self.computes.fetch_add(1, Ordering::Relaxed);
            self.inner.predict(arch)
        }
    }

    #[test]
    fn single_flight_computes_each_distinct_key_once_under_contention() {
        let p = small_predictor();
        let counting = Counting {
            inner: &p,
            computes: AtomicU64::new(0),
        };
        let cached = CachedPredictor::new(&counting);
        let space = SearchSpace::standard();
        let archs: Vec<Architecture> = (0..24).map(|s| Architecture::random(&space, s)).collect();
        let barrier = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for t in 0..8usize {
                let (archs, cached, barrier) = (&archs, &cached, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    // Every thread walks all keys, each from a different
                    // starting point, so misses collide across threads.
                    for k in 0..archs.len() {
                        let arch = &archs[(k + t * 3) % archs.len()];
                        let _ = Predictor::predict(cached, arch);
                    }
                });
            }
        });
        assert_eq!(
            counting.computes.load(Ordering::Relaxed),
            24,
            "single-flight must compute each distinct key exactly once"
        );
        let snap = cached.snapshot();
        assert_eq!(snap.stats.misses, 24);
        assert_eq!(snap.predictions, 24);
        assert_eq!(snap.stats.hits + snap.stats.misses, 8 * 24);
    }

    /// A predictor whose first compute panics — the flight must be aborted
    /// so waiters retry instead of hanging, and the value must still land.
    struct PanicsOnce<'a> {
        inner: &'a MlpPredictor,
        panicked: AtomicU64,
    }

    impl Predictor for PanicsOnce<'_> {
        fn predict_encoding(&self, encoding: &[f32]) -> f64 {
            if self.panicked.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("injected compute panic");
            }
            self.inner.predict_encoding(encoding)
        }
        fn gradient(&self, encoding: &[f32]) -> Vec<f32> {
            self.inner.gradient(encoding)
        }
    }

    #[test]
    fn a_panicking_leader_aborts_its_flight_instead_of_stranding_waiters() {
        let p = small_predictor();
        let once = PanicsOnce {
            inner: &p,
            panicked: AtomicU64::new(0),
        };
        let cached = CachedPredictor::new(&once);
        let arch = Architecture::random(&SearchSpace::standard(), 3);
        let enc = arch.encode();
        let first = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Predictor::predict_encoding(&cached, &enc)
        }));
        assert!(first.is_err(), "the injected panic must propagate");
        // The aborted flight must be gone: the retry leads a fresh flight
        // and lands the real value.
        let want = p.predict_encoding(&enc);
        assert_eq!(Predictor::predict_encoding(&cached, &enc), want);
        assert_eq!(cached.cached_predictions(), 1);
    }

    #[test]
    fn clear_keeps_counters_and_occupancy_consistent_under_concurrency() {
        let p = small_predictor();
        let cached = CachedPredictor::new(&p);
        let space = SearchSpace::standard();
        let archs: Vec<Architecture> = (0..32).map(|s| Architecture::random(&space, s)).collect();
        let stop = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for t in 0..3usize {
                let (archs, cached, stop) = (&archs, &cached, &stop);
                scope.spawn(move || {
                    let mut k = t;
                    while stop.load(Ordering::Relaxed) == 0 {
                        let arch = &archs[k % archs.len()];
                        let _ = Predictor::predict(cached, arch);
                        if k % 3 == 0 {
                            let _ = Predictor::gradient(cached, &arch.encode());
                        }
                        k += 7;
                    }
                });
            }
            // The observer: under the consistent clear protocol, every
            // snapshot satisfies misses == predictions + gradients exactly,
            // no matter how clears interleave with concurrent fills. The
            // old three-critical-section clear breaks this within a few
            // iterations (a fill lands between map-clear and counter-reset).
            for round in 0..200 {
                cached.clear();
                let snap = cached.snapshot();
                assert_eq!(
                    snap.stats.misses as usize,
                    snap.predictions + snap.gradients,
                    "round {round}: {snap:?}"
                );
            }
            stop.store(1, Ordering::Relaxed);
        });
    }
}
