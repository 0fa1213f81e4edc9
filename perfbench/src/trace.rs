//! In-memory timing: the benchmark's predictor wrapper and its spans.
//!
//! [`Timed`] wraps a predictor behind the public [`Predictor`] and
//! [`BatchPredictor`] traits and logs every call it forwards (kind, start,
//! end, rows). Those call records exist in every run, because the
//! end-to-end latencies are read from them. A traced run additionally opens
//! named spans around the calls into each layer (a search, an epoch, a
//! sweep, a serving run): each span has a start, an end and the span that
//! caused it, and calls made while a span is open on the same thread, or
//! from worker threads while a root span is open, become its children. A
//! traced run also samples the calling thread's tensor pool after each call.
//! Nothing is written until [`Recorder::write_jsonl`] runs at the end.

use std::cell::Cell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Mutex, MutexGuard};
use std::thread::ThreadId;
use std::time::Instant;

use lightnas_predictor::{BatchPredictor, Predictor};
use lightnas_tensor::kernels::{with_pool, PoolStats};

/// What a logged call was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One single-row prediction.
    Predict,
    /// One single-row input gradient (`∂LAT/∂ᾱ`).
    Gradient,
    /// One batched prediction.
    Batch,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Predict => "predictor.predict",
            Kind::Gradient => "predictor.gradient",
            Kind::Batch => "predictor.batch",
        }
    }
}

/// One forwarded predictor call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Call {
    /// What it was.
    pub kind: Kind,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Rows answered (1 for single-row calls).
    pub rows: usize,
    /// Index of the span that caused it, if one was open.
    pub parent: Option<usize>,
}

impl Call {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One named span opened by the benchmark around a layer call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.stepper.epoch`.
    pub name: &'static str,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's origin (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// Nanoseconds of `[start, end)` not covered by any of `children`
/// (intervals are clipped to the parent and overlaps counted once).
pub fn self_ns(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    end.saturating_sub(start) - covered
}

#[derive(Debug, Default)]
struct Log {
    calls: Vec<Call>,
    spans: Vec<Span>,
    root: Option<usize>,
    pools: HashMap<ThreadId, PoolStats>,
}

thread_local! {
    /// The span this thread is inside, as (recorder address, span index).
    static CURRENT: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

/// Where calls and spans of one workload unit are logged.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    tracing: bool,
    log: Mutex<Log>,
}

impl Recorder {
    /// An empty log; `tracing` enables spans and pool sampling.
    pub fn new(tracing: bool) -> Self {
        Self {
            origin: Instant::now(),
            tracing,
            log: Mutex::new(Log::default()),
        }
    }

    /// Nanoseconds since this recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The instant the recorder's clock counts from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn lock(&self) -> MutexGuard<'_, Log> {
        self.log.lock().expect("a recorder user panicked")
    }

    fn key(&self) -> usize {
        self as *const Self as usize
    }

    fn current(&self) -> Option<usize> {
        CURRENT
            .with(Cell::get)
            .filter(|&(rec, _)| rec == self.key())
            .map(|(_, span)| span)
    }

    /// Runs `f` inside a span named `name` (a plain call when not tracing).
    /// The first span opened with no enclosing span becomes the root that
    /// calls from other threads attach to.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.tracing {
            return f();
        }
        let parent = self.current();
        let id = {
            let mut log = self.lock();
            let id = log.spans.len();
            log.spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
            });
            if parent.is_none() && log.root.is_none() {
                log.root = Some(id);
            }
            id
        };
        let outer = CURRENT.with(|c| c.replace(Some((self.key(), id))));
        let out = f();
        CURRENT.with(|c| c.set(outer));
        let end = self.now_ns();
        let mut log = self.lock();
        log.spans[id].end_ns = end;
        if log.root == Some(id) {
            log.root = None;
        }
        out
    }

    fn record(&self, kind: Kind, start_ns: u64, end_ns: u64, rows: usize) {
        let here = self.current();
        let pool = self.tracing.then(|| with_pool(|p| p.stats()));
        let mut log = self.lock();
        let parent = here.or(log.root);
        log.calls.push(Call {
            kind,
            start_ns,
            end_ns,
            rows,
            parent,
        });
        if let Some(stats) = pool {
            log.pools.insert(std::thread::current().id(), stats);
        }
    }

    /// Every call logged so far, in completion order.
    pub fn calls(&self) -> Vec<Call> {
        self.lock().calls.clone()
    }

    /// Every span logged so far, in opening order.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// The last tensor-pool sample of each thread that made a call, in no
    /// particular order (empty unless tracing).
    pub fn pools(&self) -> Vec<PoolStats> {
        self.lock().pools.values().copied().collect()
    }

    /// Self time of every span named `name`, summed: its duration minus
    /// the part its child spans and calls cover.
    pub fn self_ns(&self, name: &str) -> u64 {
        let log = self.lock();
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); log.spans.len()];
        for s in &log.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        for c in &log.calls {
            if let Some(p) = c.parent {
                children[p].push((c.start_ns, c.end_ns));
            }
        }
        log.spans
            .iter()
            .zip(&children)
            .filter(|(s, _)| s.name == name)
            .map(|(s, kids)| self_ns(s.start_ns, s.end_ns, kids))
            .sum()
    }

    /// Renders every span and call as JSON lines: name, id, parent, start
    /// and end in microseconds since the origin (calls carry their rows).
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let log = self.lock();
        let mut out = String::new();
        for (id, s) in log.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{id},\"parent\":{},\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.name,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3
            );
        }
        for (k, c) in log.calls.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_us\":{:.3},\"end_us\":{:.3},\"rows\":{}}}",
                c.kind.name(),
                log.spans.len() + k,
                c.parent.map_or("null".to_string(), |p| p.to_string()),
                c.start_ns as f64 / 1e3,
                c.end_ns as f64 / 1e3,
                c.rows
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// The benchmark's timing wrapper: forwards every query to `inner` and logs
/// it in `rec`.
#[derive(Debug)]
pub struct Timed<'a, P> {
    inner: &'a P,
    rec: &'a Recorder,
}

impl<'a, P> Timed<'a, P> {
    /// Wraps `inner`, logging into `rec`.
    pub fn new(inner: &'a P, rec: &'a Recorder) -> Self {
        Self { inner, rec }
    }
}

impl<P: Predictor> Predictor for Timed<'_, P> {
    fn predict_encoding(&self, encoding: &[f32]) -> f64 {
        let start = self.rec.now_ns();
        let v = self.inner.predict_encoding(encoding);
        self.rec.record(Kind::Predict, start, self.rec.now_ns(), 1);
        v
    }

    fn gradient(&self, encoding: &[f32]) -> Vec<f32> {
        let start = self.rec.now_ns();
        let g = self.inner.gradient(encoding);
        self.rec.record(Kind::Gradient, start, self.rec.now_ns(), 1);
        g
    }
}

impl<P: BatchPredictor> BatchPredictor for Timed<'_, P> {
    fn predict_encodings(&self, encodings: &[Vec<f32>]) -> Vec<f64> {
        let start = self.rec.now_ns();
        let v = self.inner.predict_encodings(encodings);
        self.rec
            .record(Kind::Batch, start, self.rec.now_ns(), encodings.len());
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        assert_eq!(self_ns(0, 100, &[]), 100);
        assert_eq!(self_ns(0, 100, &[(10, 20), (30, 60)]), 60);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        assert_eq!(self_ns(0, 100, &[(10, 50), (40, 70)]), 40);
        assert_eq!(self_ns(0, 100, &[(10, 50), (20, 30)]), 60);
        assert_eq!(self_ns(0, 100, &[(0, 100), (0, 100)]), 0);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        assert_eq!(self_ns(10, 20, &[(0, 15)]), 5);
        assert_eq!(self_ns(10, 20, &[(18, 40)]), 8);
        assert_eq!(self_ns(10, 20, &[(30, 40), (0, 5)]), 10);
    }

    struct Fixed;
    impl Predictor for Fixed {
        fn predict_encoding(&self, _: &[f32]) -> f64 {
            std::thread::sleep(std::time::Duration::from_millis(2));
            1.0
        }
        fn gradient(&self, e: &[f32]) -> Vec<f32> {
            vec![0.0; e.len()]
        }
    }
    impl BatchPredictor for Fixed {}

    #[test]
    fn spans_nest_and_attribute_calls() {
        let rec = Recorder::new(true);
        let p = Timed::new(&Fixed, &rec);
        rec.span("root", || {
            rec.span("child", || {
                p.predict_encoding(&[0.0]);
                p.gradient(&[0.0]);
            });
            // A call from another thread attaches to the root span.
            std::thread::scope(|s| {
                s.spawn(|| p.predict_encodings(&[vec![0.0], vec![1.0]]));
            });
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let calls = rec.calls();
        let kinds: Vec<_> = calls.iter().map(|c| (c.kind, c.parent, c.rows)).collect();
        assert_eq!(
            kinds,
            vec![
                (Kind::Predict, Some(1), 1),
                (Kind::Gradient, Some(1), 1),
                (Kind::Batch, Some(0), 2)
            ]
        );
        // The child's self time excludes the 2 ms prediction it made.
        let child = &spans[1];
        let child_ns = child.end_ns - child.start_ns;
        assert!(rec.self_ns("child") + 2_000_000 <= child_ns);
        // Each thread that made a call left one pool sample.
        assert_eq!(rec.pools().len(), 2);
    }

    #[test]
    fn untraced_recorders_keep_calls_but_no_spans() {
        let rec = Recorder::new(false);
        let p = Timed::new(&Fixed, &rec);
        rec.span("root", || p.gradient(&[0.0]));
        assert!(rec.spans().is_empty());
        assert!(rec.pools().is_empty());
        assert_eq!(rec.calls().len(), 1);
        assert_eq!(rec.calls()[0].parent, None);
    }
}
