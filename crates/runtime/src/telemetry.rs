//! Append-only JSONL run telemetry.
//!
//! One [`Telemetry`] sink per sweep, one JSON object per line, written under
//! `results/runs/<run-id>.jsonl` by convention. The schema is flat and
//! self-describing — every line carries `"event"` and `"run"` keys plus
//! event-specific fields (see DESIGN.md for the event catalogue) — so the
//! files grep/`jq` cleanly and survive partially-written runs: a crashed
//! sweep leaves a valid prefix, because every line is flushed as it is
//! emitted.
//!
//! JSON is rendered by hand (no serde in the dependency closure); values are
//! limited to the small [`Field`] vocabulary the runtime needs.

use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// The event-name catalogue: every `"event"` value the workspace emits.
///
/// Event names are load-bearing — downstream `jq`/grep pipelines and the
/// byte-identity tests key on them — so they live here as constants rather
/// than as scattered string literals. The runtime's sweep/supervisor events
/// come first; the serving layer (`lightnas-serve`) shares this catalogue
/// for its admission/breaker events so one file stays the schema's single
/// source of truth (see DESIGN.md for per-event fields).
///
/// Multi-device attribution: when a sweep sets
/// [`SweepOptions::device`](crate::SweepOptions), every run- and
/// job-lifecycle line (`run_start`/`run_end`, `job_*`, `epoch`,
/// `checkpoint*`) additionally carries a `"device"` string field naming the
/// target device. The field is omitted — not emitted as null — when unset,
/// so single-device telemetry is byte-identical to earlier releases.
pub mod events {
    /// Sweep begins: job count, worker count, kernel threads.
    pub const RUN_START: &str = "run_start";
    /// Sweep ends: completed/failed counts, dropped telemetry events.
    pub const RUN_END: &str = "run_end";
    /// A job (re)starts: target, seed, starting epoch, attempt.
    pub const JOB_START: &str = "job_start";
    /// A job converged: final architecture and metrics.
    pub const JOB_DONE: &str = "job_done";
    /// A job exhausted its retries (or could not be scheduled).
    pub const JOB_FAILED: &str = "job_failed";
    /// A crashed or diverged job is about to re-run.
    pub const JOB_RETRIED: &str = "job_retried";
    /// The epoch budget interrupted a job mid-run.
    pub const JOB_INTERRUPTED: &str = "job_interrupted";
    /// One completed search epoch: λ, τ, argmax metric.
    pub const EPOCH: &str = "epoch";
    /// A checkpoint generation was written.
    pub const CHECKPOINT: &str = "checkpoint";
    /// An unloadable/foreign checkpoint was renamed `*.corrupt`.
    pub const CHECKPOINT_QUARANTINED: &str = "checkpoint_quarantined";
    /// The guarded predictor answered from its fallback.
    pub const PREDICTOR_DEGRADED: &str = "predictor_degraded";

    // --- serving layer (lightnas-serve) ---

    /// The service accepted a request into its queue.
    pub const SERVE_ADMITTED: &str = "serve_admitted";
    /// Admission control turned a request away (typed `Overloaded`).
    pub const SERVE_REJECTED: &str = "serve_rejected";
    /// A request was answered (primary or degraded path).
    pub const SERVE_DONE: &str = "serve_done";
    /// A request's deadline expired before it could be served.
    pub const SERVE_DEADLINE: &str = "serve_deadline";
    /// The circuit breaker changed state (`from`/`to`/reason).
    pub const BREAKER_TRANSITION: &str = "breaker_transition";
    /// A coalesced batch went through the predictor.
    pub const SERVE_BATCH: &str = "serve_batch";
    /// Graceful drain finished: served/rejected/in-flight accounting.
    pub const SERVE_DRAINED: &str = "serve_drained";

    // --- online adaptation (lightnas-serve::adapt) ---

    /// The drift monitor flagged the serving model as stale (windowed
    /// RMSE/rank-correlation vs live observations breached a bar).
    pub const ADAPT_STALENESS: &str = "adapt_staleness";
    /// Shadow retraining started on the recent sample window.
    pub const ADAPT_RETRAIN: &str = "adapt_retrain";
    /// A shadow candidate finished paired live-traffic validation
    /// (`passed` says whether it beat the incumbent by the margin).
    pub const ADAPT_VALIDATED: &str = "adapt_validated";
    /// A validated shadow was promoted to serve (new `generation`).
    pub const ADAPT_PROMOTED: &str = "adapt_promoted";
    /// A promoted generation regressed on probation and was rolled back
    /// (the breaker trips alongside this event).
    pub const ADAPT_ROLLBACK: &str = "adapt_rollback";

    // --- fleet adaptation (lightnas-fleet::adapt) ---

    /// A drift flag on one device armed a transfer warm start on a
    /// correlated device (`source`/`target` fleet indices).
    pub const FLEET_WARM_START: &str = "fleet_warm_start";
    /// A device's retrain joined the shared pool queue.
    pub const FLEET_RETRAIN_QUEUED: &str = "fleet_retrain_queued";
    /// The pool admitted a queued retrain (`waited_ticks` in queue).
    pub const FLEET_RETRAIN_ADMITTED: &str = "fleet_retrain_admitted";
    /// The pool admitted nothing this tick despite a non-empty queue
    /// (budget exhausted or starved by chaos).
    pub const FLEET_POOL_STARVED: &str = "fleet_pool_starved";

    // --- multi-tenant search service (lightnas-serve::search) ---

    /// A tenant's sweep was admitted into the service queue
    /// (`tenant`/`sweep`/`jobs`/`queued_jobs`).
    pub const SEARCH_SWEEP_ADMITTED: &str = "search_sweep_admitted";
    /// A tenant's sweep was turned away, typed: a per-tenant quota breach
    /// (`reason:"quota"`) or the shared admission watermark
    /// (`reason:"overloaded"`).
    pub const SEARCH_SWEEP_REJECTED: &str = "search_sweep_rejected";
    /// A tenant's sweep finished executing: per-sweep completed/failed
    /// counts and the shared-cache traffic it contributed to.
    pub const SEARCH_SWEEP_DONE: &str = "search_sweep_done";
    /// Shared-cache counters at a service checkpoint: hits/misses/hit-rate
    /// plus total occupancy.
    pub const SEARCH_CACHE_STATS: &str = "search_cache_stats";
}

/// A telemetry field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Field {
    /// An unsigned counter (job index, epoch, hit count, ...).
    U(u64),
    /// A float metric (λ, predicted latency, wall-clock ms, ...). Non-finite
    /// values render as `null` to keep the line valid JSON.
    F(f64),
    /// A string (architecture spec, checkpoint path, ...).
    S(String),
    /// A flag.
    B(bool),
}

fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Renders one event line (without the trailing newline).
fn render_line(run: &str, event: &str, fields: &[(&str, Field)]) -> String {
    let mut out = String::with_capacity(96);
    out.push_str("{\"event\":");
    push_json_string(&mut out, event);
    out.push_str(",\"run\":");
    push_json_string(&mut out, run);
    for (key, value) in fields {
        out.push(',');
        push_json_string(&mut out, key);
        out.push(':');
        match value {
            Field::U(u) => {
                let _ = write!(out, "{u}");
            }
            Field::F(f) if f.is_finite() => {
                let _ = write!(out, "{f}");
            }
            Field::F(_) => out.push_str("null"),
            Field::S(s) => push_json_string(&mut out, s),
            Field::B(b) => {
                let _ = write!(out, "{b}");
            }
        }
    }
    out.push('}');
    out
}

/// A thread-safe JSONL event sink for one run.
#[derive(Debug)]
pub struct Telemetry {
    run_id: String,
    path: PathBuf,
    writer: Mutex<BufWriter<File>>,
    /// Events lost to I/O errors — see [`dropped_events`](Self::dropped_events).
    dropped: AtomicU64,
}

impl Telemetry {
    /// Creates (truncating) `<dir>/<run_id>.jsonl` and returns the sink.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn create(dir: impl AsRef<Path>, run_id: &str) -> std::io::Result<Self> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{run_id}.jsonl"));
        let writer = Mutex::new(BufWriter::new(File::create(&path)?));
        Ok(Self {
            run_id: run_id.to_string(),
            path,
            writer,
            dropped: AtomicU64::new(0),
        })
    }

    /// The run identifier stamped on every line.
    pub fn run_id(&self) -> &str {
        &self.run_id
    }

    /// Where the JSONL file lives.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// How many events were lost to I/O errors so far.
    pub fn dropped_events(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Appends one event line and flushes it (crash-safe prefix property).
    ///
    /// Telemetry must never take down a sweep, so I/O failures do not
    /// propagate — but they are not silent either: every lost event is
    /// counted ([`dropped_events`](Self::dropped_events), also reported in
    /// the sweep's `run_end` line) and the *first* loss prints a one-time
    /// warning to stderr. A panic on another thread holding the lock is
    /// likewise survived: lines are written whole under the lock, so the
    /// recovered writer is still line-aligned.
    pub fn emit(&self, event: &str, fields: &[(&str, Field)]) {
        let line = render_line(&self.run_id, event, fields);
        let mut w = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        if let Err(e) = writeln!(w, "{line}").and_then(|()| w.flush()) {
            if self.dropped.fetch_add(1, Ordering::Relaxed) == 0 {
                eprintln!(
                    "warning: telemetry write to {} failed ({e}); further losses are only counted",
                    self.path.display()
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_are_flat_json_objects() {
        let line = render_line(
            "r1",
            "job_done",
            &[
                ("job", Field::U(3)),
                ("lambda", Field::F(-0.5)),
                ("arch", Field::S("0123456".into())),
                ("resumed", Field::B(false)),
            ],
        );
        assert_eq!(
            line,
            r#"{"event":"job_done","run":"r1","job":3,"lambda":-0.5,"arch":"0123456","resumed":false}"#
        );
    }

    #[test]
    fn strings_are_escaped() {
        let line = render_line("r", "e", &[("msg", Field::S("a\"b\\c\nd\u{1}".into()))]);
        assert!(line.contains(r#""msg":"a\"b\\c\nd\u0001""#), "{line}");
    }

    #[test]
    fn non_finite_floats_become_null() {
        let line = render_line("r", "e", &[("x", Field::F(f64::NAN))]);
        assert!(line.ends_with(r#""x":null}"#), "{line}");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn io_failures_are_counted_not_swallowed() {
        // /dev/full accepts opens but fails every write with ENOSPC —
        // exactly the "disk filled up mid-sweep" failure mode.
        let writer = Mutex::new(BufWriter::new(
            File::create("/dev/full").expect("open /dev/full"),
        ));
        let t = Telemetry {
            run_id: "unit".into(),
            path: PathBuf::from("/dev/full"),
            writer,
            dropped: AtomicU64::new(0),
        };
        assert_eq!(t.dropped_events(), 0);
        t.emit("a", &[]);
        t.emit("b", &[("x", Field::U(1))]);
        assert_eq!(t.dropped_events(), 2, "both events must be counted lost");
    }

    #[test]
    fn sink_appends_one_line_per_event() {
        let dir =
            std::env::temp_dir().join(format!("lightnas-telemetry-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let t = Telemetry::create(&dir, "unit").expect("create sink");
        t.emit("run_start", &[("jobs", Field::U(2))]);
        t.emit("run_end", &[("completed", Field::U(2))]);
        let text = std::fs::read_to_string(t.path()).expect("read back");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with(r#"{"event":"run_start","run":"unit""#));
        assert!(lines[1].contains(r#""completed":2"#));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
