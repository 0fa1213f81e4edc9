//! Kernel-throughput exhibit: the blocked/parallel compute kernels against
//! the retained naive references, at MBConv-representative shapes.
//!
//! For each shape the fast path is timed serial and at 4 kernel threads,
//! the naive reference is timed once, and every fast output is checked
//! bit-for-bit against the reference before any number is reported — a
//! speedup that broke the determinism invariant would be worthless. The
//! table lands in `results/kernels.txt`, the raw numbers in
//! `BENCH_kernels.json` at the repo root (schema: one record per row with
//! median wall times in microseconds and the serial speedup factor).
//!
//! ```text
//! cargo run --release -p lightnas-bench --bin kernels
//! ```
//!
//! Timing is machine-dependent; the JSON is evidence from the machine that
//! produced it, not a golden file. The acceptance bar (≥ 3× on conv2d
//! forward vs the naive kernel) is asserted here so regressions fail loudly.
//!
//! The opt-in **fast tier** (`LIGHTNAS_KERNEL_MODE=fast`) is measured
//! alongside: each row also reports the fast-mode 1- and 4-thread times,
//! the fast-vs-strict max relative error (against the exact per-element
//! `Σ|terms|` scale), and how much of the documented tolerance bound that
//! error consumes (`bound util`, asserted ≤ 1). Strict rows keep their
//! bit-identity gate; fast rows are gated by `lightnas_tensor::tolerance`.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use lightnas_bench::render_table;
use lightnas_predictor::{Metric, MetricDataset, MlpPredictor, TrainConfig};
use lightnas_space::SearchSpace;
use lightnas_tensor::tolerance::ReductionBound;
use lightnas_tensor::{Conv2dSpec, KernelCtx, KernelMode, Tensor};

/// The current ctx with `mode` at `threads` kernel threads.
fn ctx(mode: KernelMode, threads: usize) -> KernelCtx {
    KernelCtx {
        mode,
        threads,
        ..KernelCtx::current()
    }
}

/// Median wall time of `f` over `reps` runs, in microseconds.
fn time_us<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

fn fnv(data: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in data {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

struct Row {
    name: String,
    naive_us: f64,
    fast_us: f64,
    fast4_us: f64,
    /// Fast-tier timings and error accounting (`LIGHTNAS_KERNEL_MODE=fast`).
    tier: FastTier,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.naive_us / self.fast_us
    }
}

/// Fast-tier measurements for one row: wall times, the max relative error
/// against the strict oracle (scaled by the exact per-element `Σ|terms|`),
/// and the fraction of the documented tolerance bound that error consumes.
struct FastTier {
    t1_us: f64,
    t4_us: f64,
    max_rel_err: f64,
    bound_util: f64,
}

impl FastTier {
    fn parity(&self) -> f64 {
        self.t1_us / self.t4_us
    }
}

fn abs_tensor(t: &Tensor) -> Tensor {
    Tensor::from_vec(
        t.as_slice().iter().map(|v| v.abs()).collect(),
        t.shape().dims(),
    )
}

/// Max fast-vs-strict error relative to each element's `Σ|terms|` scale,
/// plus the fraction of `bound` it consumes.
fn tier_error(fast: &[f32], strict: &[f32], scale: &[f32], bound: ReductionBound) -> (f64, f64) {
    let mut rel = 0.0f64;
    let mut util = 0.0f64;
    for ((&f, &s), &sc) in fast.iter().zip(strict).zip(scale) {
        let diff = f64::from((f - s).abs());
        rel = rel.max(diff / f64::from(sc.abs().max(1e-20)));
        util = util.max(diff / f64::from(bound.allowance(sc)));
    }
    (rel, util)
}

/// Times the fast tier at 1 and 4 threads and checks its output against
/// the strict `reference` under `bound`.
fn measure_tier(
    reps: usize,
    reference: &[f32],
    scale: &[f32],
    bound: ReductionBound,
    mut run: impl FnMut() -> Tensor,
) -> FastTier {
    let (fast1, fast4) = (ctx(KernelMode::Fast, 1), ctx(KernelMode::Fast, 4));
    let out = fast1.scope(&mut run);
    let (max_rel_err, bound_util) = tier_error(out.as_slice(), reference, scale, bound);
    let t1_us = fast1.scope(|| time_us(reps, &mut run));
    let t4_us = fast4.scope(|| time_us(reps, &mut run));
    FastTier {
        t1_us,
        t4_us,
        max_rel_err,
        bound_util,
    }
}

/// Benchmarks one conv shape; panics if any path's bits diverge.
fn conv_row(name: &str, x: &Tensor, w: &Tensor, spec: Conv2dSpec, reps: usize) -> Row {
    let reference = lightnas_tensor::conv2d_forward_ref(x, w, spec);
    for threads in [1usize, 4] {
        let fast =
            ctx(KernelMode::Strict, threads).scope(|| lightnas_tensor::conv2d_forward(x, w, spec));
        assert_eq!(
            fnv(fast.as_slice()),
            fnv(reference.as_slice()),
            "{name}: fast conv at {threads} threads diverged from the naive reference"
        );
    }
    let naive_us = time_us(reps, || lightnas_tensor::conv2d_forward_ref(x, w, spec));
    let fast_us = time_us(reps, || lightnas_tensor::conv2d_forward(x, w, spec));
    let fast4_us = ctx(KernelMode::Strict, 4)
        .scope(|| time_us(reps, || lightnas_tensor::conv2d_forward(x, w, spec)));
    let scale = lightnas_tensor::conv2d_forward(&abs_tensor(x), &abs_tensor(w), spec);
    let cin = x.shape().dims()[1];
    let tier = measure_tier(
        reps,
        reference.as_slice(),
        scale.as_slice(),
        ReductionBound::conv2d(cin, spec.kernel, spec.kernel),
        || lightnas_tensor::conv2d_forward(x, w, spec),
    );
    Row {
        name: name.to_string(),
        naive_us,
        fast_us,
        fast4_us,
        tier,
    }
}

fn main() -> ExitCode {
    // Strict and serial unless a row scopes otherwise.
    ctx(KernelMode::Strict, 1).scope(run)
}

fn run() -> ExitCode {
    let reps = 15;
    let mut rows: Vec<Row> = Vec::new();

    // MBConv-representative convs: stem / mid-network / late-network shapes
    // of the paper's supernet at batch 8.
    let cases = [
        (
            "conv 8x16x56x56 k3 s1 -> 16",
            [8usize, 16, 56, 56],
            [16usize, 16, 3, 3],
            1usize,
        ),
        (
            "conv 8x32x28x28 k3 s2 -> 64",
            [8, 32, 28, 28],
            [64, 32, 3, 3],
            2,
        ),
        (
            "conv 8x96x14x14 k3 s1 -> 96",
            [8, 96, 14, 14],
            [96, 96, 3, 3],
            1,
        ),
    ];
    for (i, (name, xs, ws, stride)) in cases.iter().enumerate() {
        let spec = Conv2dSpec {
            kernel: 3,
            stride: *stride,
            padding: 1,
        };
        let x = Tensor::uniform(xs, -1.0, 1.0, 10 + i as u64);
        let w = Tensor::uniform(ws, -0.5, 0.5, 20 + i as u64);
        rows.push(conv_row(name, &x, &w, spec, reps));
    }

    // GEMM at a supernet-classifier-like shape.
    {
        let a = Tensor::uniform(&[512, 320], -1.0, 1.0, 30);
        let b = Tensor::uniform(&[320, 256], -1.0, 1.0, 31);
        let reference = lightnas_tensor::matmul_ref(&a, &b);
        for threads in [1usize, 4] {
            assert_eq!(
                fnv(ctx(KernelMode::Strict, threads)
                    .scope(|| a.matmul(&b))
                    .as_slice()),
                fnv(reference.as_slice()),
                "matmul at {threads} threads diverged from the naive reference"
            );
        }
        let naive_us = time_us(reps, || lightnas_tensor::matmul_ref(&a, &b));
        let fast_us = time_us(reps, || a.matmul(&b));
        let fast4_us = ctx(KernelMode::Strict, 4).scope(|| time_us(reps, || a.matmul(&b)));
        let scale = abs_tensor(&a).matmul(&abs_tensor(&b));
        let tier = measure_tier(
            reps,
            reference.as_slice(),
            scale.as_slice(),
            ReductionBound::matmul(320),
            || a.matmul(&b),
        );
        rows.push(Row {
            name: "matmul 512x320x256".into(),
            naive_us,
            fast_us,
            fast4_us,
            tier,
        });
    }

    // Predictor inference: 256 rows per-query vs one batched GEMM. The
    // "naive" column is the per-row path (the pre-change interface), so the
    // speedup is what batching buys the sweep runner.
    {
        let space = SearchSpace::standard();
        let device = lightnas_hw::Xavier::maxn();
        let data = MetricDataset::sample(&device, &space, Metric::LatencyMs, 512, 6);
        let predictor = MlpPredictor::train(
            &data,
            &TrainConfig {
                epochs: 10,
                batch_size: 128,
                lr: 2e-3,
                seed: 0,
            },
        );
        let encodings: Vec<Vec<f32>> = data.encodings().iter().take(256).cloned().collect();
        let batched = predictor.predict_batch(&encodings);
        for (enc, b) in encodings.iter().zip(&batched) {
            assert_eq!(
                b.to_bits(),
                predictor.predict_encoding(enc).to_bits(),
                "batched prediction diverged from the per-row path"
            );
        }
        let naive_us = time_us(reps, || {
            encodings
                .iter()
                .map(|e| predictor.predict_encoding(e))
                .collect::<Vec<f64>>()
        });
        let fast_us = time_us(reps, || predictor.predict_batch(&encodings));
        let fast4_us = ctx(KernelMode::Strict, 4)
            .scope(|| time_us(reps, || predictor.predict_batch(&encodings)));
        // Σ|terms| is not observable through the frozen network, so the
        // honest scale for end-to-end predictions is |prediction| + 1 and
        // the bound is the summed layer depth (as the serve tier test pins).
        let strict_preds: Vec<f32> = batched.iter().map(|&v| v as f32).collect();
        let scale: Vec<f32> = strict_preds.iter().map(|p| p.abs() + 1.0).collect();
        let tier = measure_tier(
            reps,
            &strict_preds,
            &scale,
            ReductionBound::matmul(154 + 128 + 64),
            || {
                Tensor::from_vec(
                    predictor
                        .predict_batch(&encodings)
                        .iter()
                        .map(|&v| v as f32)
                        .collect(),
                    &[encodings.len()],
                )
            },
        );
        rows.push(Row {
            name: "mlp predict x256".into(),
            naive_us,
            fast_us,
            fast4_us,
            tier,
        });
    }

    let table = render_table(
        &[
            "kernel",
            "naive (us)",
            "strict 1t (us)",
            "strict 4t (us)",
            "speedup 1t",
            "fastmode 1t (us)",
            "fastmode 4t (us)",
            "max rel err",
            "bound util",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    format!("{:.0}", r.naive_us),
                    format!("{:.0}", r.fast_us),
                    format!("{:.0}", r.fast4_us),
                    format!("{:.1}x", r.speedup()),
                    format!("{:.0}", r.tier.t1_us),
                    format!("{:.0}", r.tier.t4_us),
                    format!("{:.1e}", r.tier.max_rel_err),
                    format!("{:.2}", r.tier.bound_util),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("Kernel throughput: blocked/parallel vs naive reference, plus the opt-in fast tier\n(strict rows bit-identity-verified; fast rows tolerance-verified before timing)\n");
    println!("{table}");

    let conv_rows: Vec<&Row> = rows.iter().filter(|r| r.name.starts_with("conv")).collect();
    let min_conv = conv_rows
        .iter()
        .map(|r| r.speedup())
        .fold(f64::INFINITY, f64::min);
    println!("minimum serial conv2d forward speedup: {min_conv:.1}x (bar: 3.0x)");
    // Persistent-pool dividend: dispatching to 4 workers must never cost
    // real throughput, even on a single hardware core (where the old
    // spawn-per-call path paid thread-creation on every conv). Parity is
    // speedup_4t / speedup_1t == fast_1t / fast_4t.
    let min_parity = conv_rows
        .iter()
        .map(|r| r.fast_us / r.fast4_us)
        .fold(f64::INFINITY, f64::min);
    println!("minimum conv2d 4-thread/serial parity: {min_parity:.2} (bar: 0.95)");
    let tier_max_util = rows
        .iter()
        .map(|r| r.tier.bound_util)
        .fold(0.0f64, f64::max);
    let tier_min_parity = rows
        .iter()
        .map(|r| r.tier.parity())
        .fold(f64::INFINITY, f64::min);
    println!("fast-tier max tolerance-bound utilization: {tier_max_util:.2} (bar: 1.0)");
    println!("fast-tier min 4-thread/serial parity: {tier_min_parity:.2} (bar: 0.90)");

    let mut json = String::from("{\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"kernel\": \"{}\", \"naive_us\": {:.1}, \"fast_1t_us\": {:.1}, \"fast_4t_us\": {:.1}, \"speedup_1t\": {:.2}, \"speedup_4t\": {:.2}, \"fastmode_1t_us\": {:.1}, \"fastmode_4t_us\": {:.1}, \"fastmode_max_rel_err\": {:.3e}, \"fastmode_bound_util\": {:.3}, \"fastmode_parity_4t\": {:.3}}}{}",
            r.name,
            r.naive_us,
            r.fast_us,
            r.fast4_us,
            r.speedup(),
            r.naive_us / r.fast4_us,
            r.tier.t1_us,
            r.tier.t4_us,
            r.tier.max_rel_err,
            r.tier.bound_util,
            r.tier.parity(),
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    let _ = write!(
        json,
        "  ],\n  \"min_conv_forward_speedup_1t\": {min_conv:.2},\n  \"min_conv_parallel_parity\": {min_parity:.3},\n  \"fastmode_max_bound_util\": {tier_max_util:.3},\n  \"fastmode_min_parity_4t\": {tier_min_parity:.3},\n  \"bit_identity_verified\": true\n}}\n"
    );
    if let Err(e) = std::fs::create_dir_all("results") {
        eprintln!("[kernels] cannot create results/: {e}");
    }
    match std::fs::write(
        "results/kernels.txt",
        format!(
            "{table}\nminimum serial conv2d forward speedup: {min_conv:.1}x\nminimum conv2d 4-thread/serial parity: {min_parity:.2}\n"
        ),
    ) {
        Ok(()) => eprintln!("[kernels] wrote results/kernels.txt"),
        Err(e) => eprintln!("[kernels] failed to write results/kernels.txt: {e}"),
    }
    match std::fs::write("BENCH_kernels.json", &json) {
        Ok(()) => eprintln!("[kernels] wrote BENCH_kernels.json"),
        Err(e) => eprintln!("[kernels] failed to write BENCH_kernels.json: {e}"),
    }

    if min_conv < 3.0 {
        eprintln!("error: conv2d forward speedup {min_conv:.1}x is below the 3x acceptance bar");
        return ExitCode::FAILURE;
    }
    if min_parity < 0.95 {
        eprintln!(
            "error: conv2d 4-thread parity {min_parity:.2} is below the 0.95 acceptance bar \
             (the persistent pool must make parallel dispatch at worst free)"
        );
        return ExitCode::FAILURE;
    }
    if tier_max_util > 1.0 {
        eprintln!(
            "error: fast tier consumed {tier_max_util:.2}x of its documented tolerance bound \
             (must stay within 1.0x — see lightnas_tensor::tolerance)"
        );
        return ExitCode::FAILURE;
    }
    if tier_min_parity < 0.90 {
        eprintln!(
            "error: fast-tier 4-thread parity {tier_min_parity:.2} is below the 0.90 bar \
             (per-thread partial sums must not cost real throughput)"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
