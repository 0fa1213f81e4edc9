//! `serve`: an open-loop, seeded stream of distinct random-architecture
//! encodings into `PredictorService::run_threaded` — one generator thread,
//! one service worker, the trained MLP as primary and the LUT as fallback.
//! The first half of the run offers a fixed rate below the service's
//! capacity, the second half a fixed rate above it. Every request is timed
//! from when it was due, not from when the generator got to send it.

use std::path::Path;
use std::time::{Duration, Instant};

use lightnas_serve::{Clock, PredictorService, Request, ServiceConfig};
use lightnas_space::Architecture;

use crate::inputs::serve_stream;
use crate::report::{latency_e2e, layer_defaults, traced_layers};
use crate::setup::Substrate;
use crate::stats::{median, supported};
use crate::trace::{Kind, Recorder, Timed};
use crate::{Metrics, Outcome};

/// Offered rate (requests/s) of the first phase, below capacity.
const RATE_BELOW: f64 = 2_000.0;

/// Offered rate (requests/s) of the second phase, above capacity.
const RATE_ABOVE: f64 = 50_000.0;

/// Deadline stamped on each request, past its due time.
const DEADLINE: Duration = Duration::from_millis(100);

/// Every this many answers, one is recomputed and compared bit for bit.
const SAMPLE_EVERY: usize = 97;

/// The service clock: the recorder's origin, so due times, service times
/// and call logs share one time base.
#[derive(Debug)]
struct BenchClock(Instant);

impl Clock for BenchClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }

    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }
}

/// The open-loop schedule: when each request is due, in ns from the origin.
#[derive(Debug, Clone, Copy)]
struct Schedule {
    start_ns: u64,
    below: usize,
    phase_ns: u64,
}

impl Schedule {
    fn due_ns(&self, i: usize) -> u64 {
        if i < self.below {
            self.start_ns + (i as f64 * 1e9 / RATE_BELOW) as u64
        } else {
            let k = (i - self.below) as f64;
            self.start_ns + self.phase_ns + (k * 1e9 / RATE_ABOVE) as u64
        }
    }
}

/// Spins until the recorder's clock reads `due_ns`. The generator owns one
/// of the two cores; sleeping instead would add the timer's and the
/// hypervisor's wake-up jitter to every request.
fn wait_until(rec: &Recorder, due_ns: u64) {
    while rec.now_ns() < due_ns {
        std::hint::spin_loop();
    }
}

/// One finished open-loop run.
struct Run {
    wall_s: f64,
    submitted: u64,
    answered: u64,
    /// Requests offered in the first phase.
    offered_below: usize,
    /// Latency (µs from due) of each answered request of the first phase.
    below_us: Vec<f64>,
    /// Latency (µs from due) of each answered request of the second phase.
    above_us: Vec<f64>,
    layers: Metrics,
    rec: Recorder,
}

/// Drives one open-loop run through a fresh service and checks it.
fn serve_once(
    sub: &Substrate,
    stream: &[Architecture],
    phase_s: f64,
    tracing: bool,
) -> Result<Run, String> {
    let rec = Recorder::new(tracing);
    let clock = BenchClock(rec.origin());
    let timed = Timed::new(&sub.mlp, &rec);
    let service = PredictorService::new(&timed, &sub.lut, &clock, ServiceConfig::default());
    let below = (RATE_BELOW * phase_s) as usize;
    let sched = Schedule {
        start_ns: rec.now_ns() + 1_000_000,
        below,
        phase_ns: (phase_s * 1e9) as u64,
    };
    let ((ids, lags), report) = rec.span("serve.run", || {
        service.run_threaded(1, |svc| {
            let mut ids: Vec<Option<u64>> = Vec::with_capacity(stream.len());
            let mut lags = Vec::with_capacity(stream.len());
            for (i, arch) in stream.iter().enumerate() {
                let due = sched.due_ns(i);
                wait_until(&rec, due);
                lags.push((rec.now_ns() - due) as f64 / 1e3);
                let req =
                    Request::new(arch.encode()).with_deadline(Duration::from_nanos(due) + DEADLINE);
                ids.push(svc.submit(req).ok());
            }
            (ids, lags)
        })
    });
    let end_ns = rec.now_ns();
    if !report.fully_accounted() {
        return Err(format!(
            "drain report does not account for every request: {report:?}"
        ));
    }
    if report.degraded > 0 {
        return Err(format!(
            "{} answers degraded to the fallback",
            report.degraded
        ));
    }

    // Ids are handed out in admission order, and the single worker answers
    // in FIFO order, so the k-th row the primary computed is the k-th
    // answered request in id order.
    let mut request_of_id = vec![usize::MAX; ids.len()];
    for (i, id) in ids.iter().enumerate() {
        if let Some(id) = *id {
            request_of_id[id as usize] = i;
        }
    }
    let batches: Vec<_> = rec
        .calls()
        .into_iter()
        .filter(|c| c.kind == Kind::Batch)
        .collect();
    let mut ends = batches
        .iter()
        .flat_map(|c| std::iter::repeat_n(c.end_ns, c.rows));
    let mut last_id = None;
    let mut below_us = Vec::new();
    let mut above_us = Vec::new();
    let mut queued_us = Vec::new();
    let mut answered = 0u64;
    for served in service.take_responses() {
        let Ok(resp) = served.outcome else { continue };
        if last_id.is_some_and(|l| served.id <= l) {
            return Err("answers left the service out of admission order".into());
        }
        last_id = Some(served.id);
        let i = request_of_id[served.id as usize];
        let done_ns = ends
            .next()
            .ok_or("more answers than rows the primary computed")?;
        let us = (done_ns as f64 - sched.due_ns(i) as f64) / 1e3;
        if i < below {
            below_us.push(us);
        } else {
            above_us.push(us);
        }
        queued_us.push(resp.queued.as_nanos() as f64 / 1e3);
        if (answered as usize).is_multiple_of(SAMPLE_EVERY)
            && resp.value.to_bits() != sub.mlp.predict_encoding(&stream[i].encode()).to_bits()
        {
            return Err(format!(
                "answer for request {i} differs from predict_encoding"
            ));
        }
        answered += 1;
    }
    if ends.next().is_some() {
        return Err("the primary computed rows nobody received".into());
    }

    let mut layers = Metrics::new();
    if tracing {
        let compute_us: Vec<f64> = batches.iter().map(|c| c.ns() as f64 / 1e3).collect();
        let rows: usize = batches.iter().map(|c| c.rows).sum();
        for (name, v) in [
            ("serve.admitted", ids.iter().flatten().count() as f64),
            (
                "serve.rejected_overloaded",
                report.rejected_overloaded as f64,
            ),
            ("serve.deadline_expired", report.deadline_expired as f64),
            ("serve.degraded", report.degraded as f64),
            ("serve.batch_size_mean", rows as f64 / batches.len() as f64),
            (
                "serve.queue_wait_p50_us",
                supported(&queued_us, 50.0, "queue waits")?,
            ),
            (
                "serve.queue_wait_p99_us",
                supported(&queued_us, 99.0, "queue waits")?,
            ),
            ("serve.compute_p50_us", median(&compute_us)),
            (
                "serve.generator_lag_p99_us",
                supported(&lags, 99.0, "generator lags")?,
            ),
        ] {
            layers.insert(name, v);
        }
    }
    Ok(Run {
        wall_s: (end_ns - sched.start_ns) as f64 / 1e9,
        submitted: report.submitted,
        answered,
        offered_below: below,
        below_us,
        above_us,
        layers,
        rec,
    })
}

/// Runs the workload: end-to-end metrics from one run of `seconds`, or
/// per-layer metrics from a traced run between two untraced ones.
pub fn run(
    sub: &Substrate,
    seed: u64,
    seconds: f64,
    tracing: bool,
    out: &Path,
) -> Result<Outcome, String> {
    let phase_s = seconds / 2.0;
    let n = ((RATE_BELOW + RATE_ABOVE) * phase_s) as usize;
    let stream = serve_stream(seed, n);
    println!(
        "serve: {n} distinct requests, {RATE_BELOW}/s for {phase_s} s then {RATE_ABOVE}/s for {phase_s} s"
    );
    if !tracing {
        let run = serve_once(sub, &stream, phase_s, false)?;
        let mut m = Metrics::new();
        // Refusals past capacity are the service working as designed and
        // show in goodput; below capacity every request should be answered.
        m.insert(
            "ok_share",
            run.below_us.len() as f64 / run.offered_below as f64,
        );
        m.insert("wall_s", run.wall_s);
        latency_e2e(
            &mut m,
            &run.below_us,
            &run.above_us,
            phase_s,
            "below-capacity answers",
        )?;
        println!(
            "serve: {} submitted, {} answered ({} below capacity, {} above)",
            run.submitted,
            run.answered,
            run.below_us.len(),
            run.above_us.len()
        );
        return Ok(Outcome {
            attempted: run.submitted,
            failed: 0,
            metrics: m,
        });
    }
    // Untraced, traced, untraced, as in the `search` workload.
    let before = serve_once(sub, &stream, phase_s, false)?;
    let traced = serve_once(sub, &stream, phase_s, true)?;
    let after = serve_once(sub, &stream, phase_s, false)?;
    let rec = &traced.rec;
    let mut m = layer_defaults();
    m.extend(traced.layers.iter().map(|(k, v)| (*k, *v)));
    traced_layers(
        &mut m,
        rec,
        &traced.below_us,
        "below-capacity answers",
        (before.wall_s, traced.wall_s, after.wall_s),
    )?;
    rec.write_jsonl(&out.join("trace-serve.jsonl"))
        .map_err(|e| format!("cannot write the serve trace: {e}"))?;
    Ok(Outcome {
        attempted: before.submitted + traced.submitted + after.submitted,
        failed: 0,
        metrics: m,
    })
}
