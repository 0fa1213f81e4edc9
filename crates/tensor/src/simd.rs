//! Runtime-dispatched SIMD micro-kernels (AVX2 / AVX-512 on x86-64).
//!
//! **Strict tier.** Vectorization widens across **output columns** only. Each
//! output element still owns a single accumulator that consumes its
//! `a[i][p]·b[p][j]` terms in ascending `p` — lane `j` of one
//! `_mm256_add_ps(acc, _mm256_mul_ps(a, b))` performs exactly the scalar
//! kernel's `acc + a*b`: the multiply rounds, then the add rounds, per IEEE
//! 754 single precision. FMA is deliberately **never** emitted on this tier
//! (the `target_feature` enables only `avx2`, and the intrinsics used are
//! plain mul/add): contracting the two roundings into one would change bits
//! and break the strict determinism contract.
//!
//! **Fast tier** ([`crate::ctx`]). The `*_fma` kernels and the AVX-512
//! 8×32 tile *do* contract with `vfmadd`, which changes low-order bits —
//! they are reachable only through [`crate::fastpath`] when
//! `LIGHTNAS_KERNEL_MODE=fast`, and are verified against the strict oracle
//! by the differential tolerance suite instead of fingerprints.
//!
//! Because the compile baseline is SSE2 (no `-C target-cpu` anywhere in the
//! workspace), AVX2/FMA/AVX-512F/F16C availability is detected at runtime
//! and cached in atomics; the portable scalar kernels in [`crate::kernels`]
//! remain the fallback and the oracle. The current thread's
//! [`KernelCtx`](crate::KernelCtx) decides the dispatch: `simd: false`
//! (seeded by `LIGHTNAS_KERNEL_SIMD=off`, `0` or `portable`) forces the
//! fallback — in *both* modes — so the byte-identity suite can diff the two
//! implementations directly inside a scope.

use std::sync::atomic::{AtomicU8, Ordering};

const UNKNOWN: u8 = 0;
const ENABLED: u8 = 1;
const DISABLED: u8 = 2;

/// Cached CPU-feature probes. These are hardware facts, not settings:
/// `LIGHTNAS_KERNEL_SIMD=off` (the ctx's `simd` flag) gates the
/// *dispatch*, not these.
static AVX2_STATE: AtomicU8 = AtomicU8::new(UNKNOWN);
static FMA_STATE: AtomicU8 = AtomicU8::new(UNKNOWN);
static AVX512_STATE: AtomicU8 = AtomicU8::new(UNKNOWN);
static F16C_STATE: AtomicU8 = AtomicU8::new(UNKNOWN);

fn cached_probe(state: &AtomicU8, probe: fn() -> bool) -> bool {
    match state.load(Ordering::Relaxed) {
        ENABLED => true,
        DISABLED => false,
        _ => {
            let on = probe();
            state.store(if on { ENABLED } else { DISABLED }, Ordering::Relaxed);
            on
        }
    }
}

/// Whether the CPU can run the AVX2 strict micro-kernels. A ctx asking
/// for SIMD on a CPU without AVX2 runs the portable kernels.
pub(crate) fn avx2_available() -> bool {
    cached_probe(&AVX2_STATE, || {
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx2")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

/// Whether the CPU can run the AVX2+FMA fast kernels. Hardware floor for
/// the fast tier: without it, fast mode degrades to the strict kernels.
pub(crate) fn fma_available() -> bool {
    cached_probe(&FMA_STATE, || {
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

/// Whether the CPU can run the AVX-512F 8×32 GEMM tile.
pub(crate) fn avx512_available() -> bool {
    cached_probe(&AVX512_STATE, || {
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx512f")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

/// Whether the CPU has hardware f16 ⇄ f32 conversion (`vcvtph2ps` /
/// `vcvtps2ph`). Bit-identical to the scalar conversions in [`crate::f16`],
/// so this is a throughput knob only.
pub(crate) fn f16c_available() -> bool {
    cached_probe(&F16C_STATE, || {
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("f16c")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

/// AVX2 4×16 GEMM micro-tile over a packed B panel (two `f32x8` registers
/// per output row — eight independent accumulator chains, enough to hide
/// the vector-add latency a 4×8 tile cannot). Returns `false` when the SIMD
/// path is off, in which case the caller must run the portable kernel.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn tile_4x16(
    use_simd: bool,
    a: &[f32],
    a_base: usize,
    k: usize,
    panel: &[f32],
    out: &mut [f32],
    r: usize,
    n: usize,
    j0: usize,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if use_simd {
        debug_assert!(panel.len() >= k * 16, "panel must hold k rows of 16");
        debug_assert!(a.len() >= a_base + 4 * k, "lhs rows out of bounds");
        debug_assert!(out.len() >= (r + 3) * n + j0 + 16, "output tile oob");
        // SAFETY: AVX2 availability is established by `use_simd` (a ctx
        // keeps `simd` only where `avx2_available()`), and the bounds above
        // cover every access.
        unsafe { avx2::micro_tile_4x16(a, a_base, k, panel, out, r, n, j0) };
        return true;
    }
    let _ = (use_simd, a, a_base, k, panel, out, r, n, j0);
    false
}

/// AVX2 Adam update over the 8-lane-aligned prefix of the slices. Returns
/// `false` when the SIMD path is off (caller runs the scalar loop over the
/// whole range); on `true` the caller handles the `len % 8` tail.
pub(crate) fn adam_rows(
    use_simd: bool,
    w: &mut [f32],
    g: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    h: &crate::kernels::AdamUpdate,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if use_simd {
        // SAFETY: AVX2 availability is established by `use_simd`; the
        // caller asserts equal slice lengths.
        unsafe { avx2::adam_rows(w, g, m, v, h) };
        return true;
    }
    let _ = (use_simd, w, g, m, v, h);
    false
}

/// AVX2 blocked transpose of row-major `src` (`[m, n]`) into `dst`
/// (`[n, m]`): 8×8 register micro-transposes over the full blocks, scalar
/// edges. A transpose is a pure permutation — no arithmetic, so the SIMD
/// shuffle network produces exactly the scalar loop's bits and both tiers
/// may use it. Returns `false` when the SIMD path is off.
pub(crate) fn transpose(use_simd: bool, src: &[f32], m: usize, n: usize, dst: &mut [f32]) -> bool {
    #[cfg(target_arch = "x86_64")]
    if use_simd {
        debug_assert_eq!(src.len(), m * n, "transpose src length");
        debug_assert_eq!(dst.len(), m * n, "transpose dst length");
        let (m8, n8) = (m - m % 8, n - n % 8);
        for i0 in (0..m8).step_by(8) {
            for j0 in (0..n8).step_by(8) {
                // SAFETY: AVX availability is established by `use_simd`;
                // i0+8 ≤ m and j0+8 ≤ n keep every strided 8-lane load and
                // store inside the asserted `m * n` buffers.
                unsafe {
                    avx2::transpose_8x8(
                        src.as_ptr().add(i0 * n + j0),
                        n,
                        dst.as_mut_ptr().add(j0 * m + i0),
                        m,
                    );
                }
            }
            for j in n8..n {
                for i in i0..i0 + 8 {
                    dst[j * m + i] = src[i * n + j];
                }
            }
        }
        for i in m8..m {
            for j in 0..n {
                dst[j * m + i] = src[i * n + j];
            }
        }
        return true;
    }
    let _ = (use_simd, src, m, n, dst);
    false
}

/// AVX2 `o[j] += av * b[j]` row update (the axpy GEMM inner loop). Returns
/// `false` when the SIMD path is off; the caller runs the scalar loop.
#[inline]
pub(crate) fn axpy_row(use_simd: bool, o: &mut [f32], b: &[f32], av: f32) -> bool {
    #[cfg(target_arch = "x86_64")]
    if use_simd {
        debug_assert_eq!(o.len(), b.len(), "axpy rows must match");
        // SAFETY: AVX2 availability is established by `use_simd`; lengths
        // are equal so every lane load/store is in bounds.
        unsafe { avx2::axpy_row(o, b, av) };
        return true;
    }
    let _ = (use_simd, o, b, av);
    false
}

/// AVX2 output row of the zero-skipping GEMM: `o[j] = Σ_t val[t] ·
/// b[idx[t]][j]` (`b` row-major with `o.len()` columns), each lane one
/// accumulator starting at `+0.0` and consuming the terms in order with
/// separate mul and add roundings. Returns `false` when the SIMD path is
/// off; the caller runs the portable loop.
#[inline]
pub(crate) fn sparse_row(
    use_simd: bool,
    idx: &[u32],
    val: &[f32],
    b: &[f32],
    o: &mut [f32],
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if use_simd {
        assert_eq!(idx.len(), val.len(), "sparse row terms must pair up");
        let n = o.len();
        assert!(
            idx.iter().all(|&p| (p as usize + 1) * n <= b.len()),
            "sparse row index out of bounds"
        );
        // SAFETY: AVX2 availability is established by `use_simd`; every
        // term's `b` row was just checked to lie inside `b`.
        unsafe { avx2::sparse_row(idx, val, b, o) };
        return true;
    }
    let _ = (use_simd, idx, val, b, o);
    false
}

/// Bit `j` set iff `lanes[j] != 0.0` (at most 32 lanes; NaN counts as
/// non-zero, `-0.0` as zero) — how the zero-skipping GEMM finds a row's
/// terms without a data-dependent branch per entry. SSE2 compare and
/// movemask, four lanes at a time, on x86-64, where SSE2 is the baseline
/// and needs no runtime dispatch; a scalar loop for the tail and elsewhere.
/// A pure comparison, so every path gives the same mask.
#[inline]
pub(crate) fn nonzero_mask(lanes: &[f32]) -> u32 {
    assert!(lanes.len() <= 32, "a mask covers at most 32 lanes");
    let mut mask = 0u32;
    let mut j = 0;
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_cmpneq_ps, _mm_loadu_ps, _mm_movemask_ps, _mm_setzero_ps};
        while j + 4 <= lanes.len() {
            // SAFETY: SSE2 is part of the x86-64 baseline, and j + 4 <= len
            // keeps the four-lane load inside `lanes`.
            let bits = unsafe {
                _mm_movemask_ps(_mm_cmpneq_ps(
                    _mm_loadu_ps(lanes.as_ptr().add(j)),
                    _mm_setzero_ps(),
                ))
            };
            mask |= (bits as u32) << j;
            j += 4;
        }
    }
    for (jj, &v) in lanes.iter().enumerate().skip(j) {
        mask |= u32::from(v != 0.0) << jj;
    }
    mask
}

/// Fast-tier FMA 4×16 GEMM micro-tile over a packed B panel. Like
/// [`tile_4x16`] but contracted with `vfmadd231ps` and generalized with an
/// explicit LHS row stride so the caller can feed a `k`-subrange (the
/// per-thread partial-sum split). **Changes low-order bits vs strict** —
/// callable only from [`crate::fastpath`].
///
/// # Panics (debug)
///
/// Debug-asserts panel/LHS/output bounds.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn tile_4x16_fma(
    a: &[f32],
    a_base: usize,
    a_stride: usize,
    k_len: usize,
    panel: &[f32],
    out: &mut [f32],
    r: usize,
    n: usize,
    j0: usize,
) {
    #[cfg(target_arch = "x86_64")]
    {
        debug_assert!(fma_available(), "fast tile dispatched without FMA");
        debug_assert!(panel.len() >= k_len * 16, "panel must hold k rows of 16");
        debug_assert!(
            a.len() >= a_base + 3 * a_stride + k_len,
            "lhs rows out of bounds"
        );
        debug_assert!(out.len() >= (r + 3) * n + j0 + 16, "output tile oob");
        // SAFETY: the dispatcher only reaches this wrapper when
        // `fma_available()`; the bounds above cover every access.
        unsafe { fma::micro_tile_4x16_fma(a, a_base, a_stride, k_len, panel, out, r, n, j0) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (a, a_base, a_stride, k_len, panel, out, r, n, j0);
        unreachable!("fast tile dispatched on non-x86_64");
    }
}

/// Fast-tier AVX-512F 8×32 GEMM micro-tile (16 zmm accumulators) over a
/// packed B panel of width 32. FMA-contracted; fast tier only.
///
/// # Panics (debug)
///
/// Debug-asserts panel/LHS/output bounds.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn tile_8x32_avx512(
    a: &[f32],
    a_base: usize,
    a_stride: usize,
    k_len: usize,
    panel: &[f32],
    out: &mut [f32],
    r: usize,
    n: usize,
    j0: usize,
) {
    #[cfg(target_arch = "x86_64")]
    {
        debug_assert!(
            avx512_available(),
            "AVX-512 tile dispatched without avx512f"
        );
        debug_assert!(panel.len() >= k_len * 32, "panel must hold k rows of 32");
        debug_assert!(
            a.len() >= a_base + 7 * a_stride + k_len,
            "lhs rows out of bounds"
        );
        debug_assert!(out.len() >= (r + 7) * n + j0 + 32, "output tile oob");
        // SAFETY: dispatch requires `avx512_available()`; bounds above.
        unsafe { avx512::micro_tile_8x32(a, a_base, a_stride, k_len, panel, out, r, n, j0) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (a, a_base, a_stride, k_len, panel, out, r, n, j0);
        unreachable!("fast tile dispatched on non-x86_64");
    }
}

/// Fast-tier FMA `o[j] += av * b[j]` row update. Returns `false` when the
/// fast path cannot run (caller falls back to the strict row update).
#[inline]
pub(crate) fn axpy_row_fma(o: &mut [f32], b: &[f32], av: f32) -> bool {
    #[cfg(target_arch = "x86_64")]
    if fma_available() {
        debug_assert_eq!(o.len(), b.len(), "axpy rows must match");
        // SAFETY: FMA availability just checked; lengths are equal.
        unsafe { fma::axpy_row_fma(o, b, av) };
        return true;
    }
    let _ = (o, b, av);
    false
}

/// Fast-tier FMA Adam update over the 8-aligned prefix. Returns `false`
/// when the fast path cannot run; on `true` the caller handles the tail.
pub(crate) fn adam_rows_fma(
    w: &mut [f32],
    g: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    h: &crate::kernels::AdamUpdate,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if fma_available() {
        // SAFETY: FMA availability just checked; the caller asserts equal
        // slice lengths.
        unsafe { fma::adam_rows_fma(w, g, m, v, h) };
        return true;
    }
    let _ = (w, g, m, v, h);
    false
}

#[cfg(target_arch = "x86_64")]
mod fma {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_div_ps, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_mul_ps,
        _mm256_set1_ps, _mm256_setzero_ps, _mm256_sqrt_ps, _mm256_storeu_ps,
    };

    /// The strict 4×16 tile with `vfmadd` contraction and an explicit LHS
    /// row stride (`a_stride`), so a caller can run it over a `k`-subrange
    /// of a wider matrix for per-thread partial sums.
    ///
    /// # Safety
    ///
    /// AVX2+FMA must be available; `panel` must hold `k_len` rows of 16;
    /// `a` must cover `a_base + r·a_stride + p` for `r < 4`, `p < k_len`;
    /// `out` must cover the 4×16 tile at `(r, j0)` with row stride `n`.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn micro_tile_4x16_fma(
        a: &[f32],
        a_base: usize,
        a_stride: usize,
        k_len: usize,
        panel: &[f32],
        out: &mut [f32],
        r: usize,
        n: usize,
        j0: usize,
    ) {
        let mut acc0l = _mm256_setzero_ps();
        let mut acc0h = _mm256_setzero_ps();
        let mut acc1l = _mm256_setzero_ps();
        let mut acc1h = _mm256_setzero_ps();
        let mut acc2l = _mm256_setzero_ps();
        let mut acc2h = _mm256_setzero_ps();
        let mut acc3l = _mm256_setzero_ps();
        let mut acc3h = _mm256_setzero_ps();
        let ap = a.as_ptr();
        let pp = panel.as_ptr();
        for p in 0..k_len {
            let bl = _mm256_loadu_ps(pp.add(p * 16));
            let bh = _mm256_loadu_ps(pp.add(p * 16 + 8));
            let a0 = _mm256_set1_ps(*ap.add(a_base + p));
            let a1 = _mm256_set1_ps(*ap.add(a_base + a_stride + p));
            let a2 = _mm256_set1_ps(*ap.add(a_base + 2 * a_stride + p));
            let a3 = _mm256_set1_ps(*ap.add(a_base + 3 * a_stride + p));
            acc0l = _mm256_fmadd_ps(a0, bl, acc0l);
            acc0h = _mm256_fmadd_ps(a0, bh, acc0h);
            acc1l = _mm256_fmadd_ps(a1, bl, acc1l);
            acc1h = _mm256_fmadd_ps(a1, bh, acc1h);
            acc2l = _mm256_fmadd_ps(a2, bl, acc2l);
            acc2h = _mm256_fmadd_ps(a2, bh, acc2h);
            acc3l = _mm256_fmadd_ps(a3, bl, acc3l);
            acc3h = _mm256_fmadd_ps(a3, bh, acc3h);
        }
        let op = out.as_mut_ptr();
        _mm256_storeu_ps(op.add(r * n + j0), acc0l);
        _mm256_storeu_ps(op.add(r * n + j0 + 8), acc0h);
        _mm256_storeu_ps(op.add((r + 1) * n + j0), acc1l);
        _mm256_storeu_ps(op.add((r + 1) * n + j0 + 8), acc1h);
        _mm256_storeu_ps(op.add((r + 2) * n + j0), acc2l);
        _mm256_storeu_ps(op.add((r + 2) * n + j0 + 8), acc2h);
        _mm256_storeu_ps(op.add((r + 3) * n + j0), acc3l);
        _mm256_storeu_ps(op.add((r + 3) * n + j0 + 8), acc3h);
    }

    /// `o[j] += av * b[j]` with `vfmadd`, eight lanes at a time plus a
    /// scalar `mul_add` tail (also contracted).
    ///
    /// # Safety
    ///
    /// AVX2+FMA must be available and `o.len() == b.len()`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn axpy_row_fma(o: &mut [f32], b: &[f32], av: f32) {
        let n = o.len();
        let va = _mm256_set1_ps(av);
        let op = o.as_mut_ptr();
        let bp = b.as_ptr();
        let mut j = 0;
        while j + 8 <= n {
            let cur = _mm256_loadu_ps(op.add(j));
            let bv = _mm256_loadu_ps(bp.add(j));
            _mm256_storeu_ps(op.add(j), _mm256_fmadd_ps(va, bv, cur));
            j += 8;
        }
        while j < n {
            *op.add(j) = av.mul_add(*bp.add(j), *op.add(j));
            j += 1;
        }
    }

    /// Vectorized Adam with FMA contraction of the moment updates, the
    /// optional weight-decay term and the final step. Low-order bits differ
    /// from the strict [`super::avx2::adam_rows`]; the trajectory bound is
    /// property-tested in the tolerance suite.
    ///
    /// # Safety
    ///
    /// AVX2+FMA must be available and all four slices must share one length.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn adam_rows_fma(
        w: &mut [f32],
        g: &[f32],
        m: &mut [f32],
        v: &mut [f32],
        h: &crate::kernels::AdamUpdate,
    ) {
        unsafe {
            let (vb1, vb2) = (_mm256_set1_ps(h.beta1), _mm256_set1_ps(h.beta2));
            let (vc1, vc2) = (_mm256_set1_ps(1.0 - h.beta1), _mm256_set1_ps(1.0 - h.beta2));
            let (vs1, vs2) = (_mm256_set1_ps(h.s1), _mm256_set1_ps(h.s2));
            let veps = _mm256_set1_ps(h.eps);
            let vnlr = _mm256_set1_ps(-h.lr);
            let vwd = _mm256_set1_ps(h.weight_decay);
            let wd = h.weight_decay != 0.0;
            let (wp, gp) = (w.as_mut_ptr(), g.as_ptr());
            let (mp, vp) = (m.as_mut_ptr(), v.as_mut_ptr());
            let mut i = 0;
            while i + 8 <= w.len() {
                let wv = _mm256_loadu_ps(wp.add(i));
                let gv = _mm256_loadu_ps(gp.add(i));
                let gd = if wd { _mm256_fmadd_ps(wv, vwd, gv) } else { gv };
                let mv = _mm256_fmadd_ps(_mm256_loadu_ps(mp.add(i)), vb1, _mm256_mul_ps(gd, vc1));
                let vv = _mm256_fmadd_ps(
                    _mm256_loadu_ps(vp.add(i)),
                    vb2,
                    _mm256_mul_ps(_mm256_mul_ps(gd, gd), vc2),
                );
                _mm256_storeu_ps(mp.add(i), mv);
                _mm256_storeu_ps(vp.add(i), vv);
                let m_hat = _mm256_mul_ps(mv, vs1);
                let v_hat = _mm256_mul_ps(vv, vs2);
                let denom = _mm256_add_ps(_mm256_sqrt_ps(v_hat), veps);
                let step = _mm256_div_ps(m_hat, denom);
                _mm256_storeu_ps(wp.add(i), _mm256_fmadd_ps(step, vnlr, wv));
                i += 8;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use std::arch::x86_64::{
        _mm512_fmadd_ps, _mm512_loadu_ps, _mm512_set1_ps, _mm512_setzero_ps, _mm512_storeu_ps,
    };

    /// The 8×32 AVX-512 micro-tile: sixteen `zmm` accumulators, two per
    /// output row. Measured ~2.5× the strict AVX2 4×16 tile on this class
    /// of hardware (wider registers + FMA + deeper ILP); fast tier only.
    ///
    /// # Safety
    ///
    /// AVX-512F must be available; `panel` must hold `k_len` rows of 32;
    /// `a` must cover `a_base + r·a_stride + p` for `r < 8`, `p < k_len`;
    /// `out` must cover the 8×32 tile at `(r, j0)` with row stride `n`.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn micro_tile_8x32(
        a: &[f32],
        a_base: usize,
        a_stride: usize,
        k_len: usize,
        panel: &[f32],
        out: &mut [f32],
        r: usize,
        n: usize,
        j0: usize,
    ) {
        let mut acc = [_mm512_setzero_ps(); 16];
        let ap = a.as_ptr();
        let pp = panel.as_ptr();
        for p in 0..k_len {
            let bl = _mm512_loadu_ps(pp.add(p * 32));
            let bh = _mm512_loadu_ps(pp.add(p * 32 + 16));
            for row in 0..8 {
                let av = _mm512_set1_ps(*ap.add(a_base + row * a_stride + p));
                acc[2 * row] = _mm512_fmadd_ps(av, bl, acc[2 * row]);
                acc[2 * row + 1] = _mm512_fmadd_ps(av, bh, acc[2 * row + 1]);
            }
        }
        let op = out.as_mut_ptr();
        for row in 0..8 {
            _mm512_storeu_ps(op.add((r + row) * n + j0), acc[2 * row]);
            _mm512_storeu_ps(op.add((r + row) * n + j0 + 16), acc[2 * row + 1]);
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::{
        __m256, _mm256_add_ps, _mm256_div_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps,
        _mm256_setzero_ps, _mm256_sqrt_ps, _mm256_storeu_ps,
    };

    /// Vectorized Adam over the 8-aligned prefix; the caller finishes the
    /// tail with the scalar loop. `vmulps`/`vaddps`/`vsqrtps`/`vdivps` are
    /// all IEEE-754 correctly rounded per lane, and the operation sequence
    /// mirrors the scalar update exactly, so the bits match it.
    ///
    /// # Safety
    ///
    /// AVX2 must be available and all four slices must share one length.
    #[target_feature(enable = "avx2")]
    pub unsafe fn adam_rows(
        w: &mut [f32],
        g: &[f32],
        m: &mut [f32],
        v: &mut [f32],
        h: &crate::kernels::AdamUpdate,
    ) {
        unsafe {
            let (vb1, vb2) = (_mm256_set1_ps(h.beta1), _mm256_set1_ps(h.beta2));
            let (vc1, vc2) = (_mm256_set1_ps(1.0 - h.beta1), _mm256_set1_ps(1.0 - h.beta2));
            let (vs1, vs2) = (_mm256_set1_ps(h.s1), _mm256_set1_ps(h.s2));
            let veps = _mm256_set1_ps(h.eps);
            let vnlr = _mm256_set1_ps(-h.lr);
            let vwd = _mm256_set1_ps(h.weight_decay);
            let wd = h.weight_decay != 0.0;
            let (wp, gp) = (w.as_mut_ptr(), g.as_ptr());
            let (mp, vp) = (m.as_mut_ptr(), v.as_mut_ptr());
            let mut i = 0;
            while i + 8 <= w.len() {
                let wv = _mm256_loadu_ps(wp.add(i));
                let gv = _mm256_loadu_ps(gp.add(i));
                let gd = if wd {
                    _mm256_add_ps(gv, _mm256_mul_ps(wv, vwd))
                } else {
                    gv
                };
                let mv = _mm256_add_ps(
                    _mm256_mul_ps(_mm256_loadu_ps(mp.add(i)), vb1),
                    _mm256_mul_ps(gd, vc1),
                );
                let vv = _mm256_add_ps(
                    _mm256_mul_ps(_mm256_loadu_ps(vp.add(i)), vb2),
                    _mm256_mul_ps(_mm256_mul_ps(gd, gd), vc2),
                );
                _mm256_storeu_ps(mp.add(i), mv);
                _mm256_storeu_ps(vp.add(i), vv);
                let m_hat = _mm256_mul_ps(mv, vs1);
                let v_hat = _mm256_mul_ps(vv, vs2);
                let denom = _mm256_add_ps(_mm256_sqrt_ps(v_hat), veps);
                let step = _mm256_mul_ps(_mm256_div_ps(m_hat, denom), vnlr);
                _mm256_storeu_ps(wp.add(i), _mm256_add_ps(wv, step));
                i += 8;
            }
        }
    }

    /// The 4×16 micro-tile: eight `__m256` accumulators, two per output row.
    /// The doubled width buys instruction-level parallelism only — each
    /// lane still owns one accumulator consuming its terms in ascending
    /// `p` with separate mul and add roundings, so the stored bits match
    /// the 4×8 tile and the portable path exactly.
    ///
    /// # Safety
    ///
    /// AVX2 must be available; `panel` must hold `k` rows of 16; `a` must
    /// cover rows `a_base .. a_base + 4k`; `out` must cover the 4×16 tile at
    /// `(r, j0)` with row stride `n`.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub unsafe fn micro_tile_4x16(
        a: &[f32],
        a_base: usize,
        k: usize,
        panel: &[f32],
        out: &mut [f32],
        r: usize,
        n: usize,
        j0: usize,
    ) {
        let mut acc0l = _mm256_setzero_ps();
        let mut acc0h = _mm256_setzero_ps();
        let mut acc1l = _mm256_setzero_ps();
        let mut acc1h = _mm256_setzero_ps();
        let mut acc2l = _mm256_setzero_ps();
        let mut acc2h = _mm256_setzero_ps();
        let mut acc3l = _mm256_setzero_ps();
        let mut acc3h = _mm256_setzero_ps();
        let ap = a.as_ptr();
        let pp = panel.as_ptr();
        for p in 0..k {
            let bl = _mm256_loadu_ps(pp.add(p * 16));
            let bh = _mm256_loadu_ps(pp.add(p * 16 + 8));
            let a0 = _mm256_set1_ps(*ap.add(a_base + p));
            let a1 = _mm256_set1_ps(*ap.add(a_base + k + p));
            let a2 = _mm256_set1_ps(*ap.add(a_base + 2 * k + p));
            let a3 = _mm256_set1_ps(*ap.add(a_base + 3 * k + p));
            acc0l = madd(acc0l, a0, bl);
            acc0h = madd(acc0h, a0, bh);
            acc1l = madd(acc1l, a1, bl);
            acc1h = madd(acc1h, a1, bh);
            acc2l = madd(acc2l, a2, bl);
            acc2h = madd(acc2h, a2, bh);
            acc3l = madd(acc3l, a3, bl);
            acc3h = madd(acc3h, a3, bh);
        }
        let op = out.as_mut_ptr();
        _mm256_storeu_ps(op.add(r * n + j0), acc0l);
        _mm256_storeu_ps(op.add(r * n + j0 + 8), acc0h);
        _mm256_storeu_ps(op.add((r + 1) * n + j0), acc1l);
        _mm256_storeu_ps(op.add((r + 1) * n + j0 + 8), acc1h);
        _mm256_storeu_ps(op.add((r + 2) * n + j0), acc2l);
        _mm256_storeu_ps(op.add((r + 2) * n + j0 + 8), acc2h);
        _mm256_storeu_ps(op.add((r + 3) * n + j0), acc3l);
        _mm256_storeu_ps(op.add((r + 3) * n + j0 + 8), acc3h);
    }

    /// Separately rounded multiply-then-add; never an FMA contraction
    /// (intrinsics are not subject to `fast-math`-style fusion).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn madd(acc: __m256, a: __m256, b: __m256) -> __m256 {
        _mm256_add_ps(acc, _mm256_mul_ps(a, b))
    }

    /// In-register 8×8 transpose: loads eight rows of `src` (row stride
    /// `n`), runs the unpack/shuffle/permute network, stores eight rows of
    /// `dst` (row stride `m`). Pure data movement — bit-identical to the
    /// scalar permutation.
    ///
    /// # Safety
    ///
    /// AVX must be available; `src` must be readable for 8 rows × stride
    /// `n` and `dst` writable for 8 rows × stride `m` from the given
    /// pointers.
    #[target_feature(enable = "avx")]
    pub unsafe fn transpose_8x8(src: *const f32, n: usize, dst: *mut f32, m: usize) {
        use std::arch::x86_64::{
            _mm256_permute2f128_ps, _mm256_shuffle_ps, _mm256_unpackhi_ps, _mm256_unpacklo_ps,
        };
        let r0 = _mm256_loadu_ps(src);
        let r1 = _mm256_loadu_ps(src.add(n));
        let r2 = _mm256_loadu_ps(src.add(2 * n));
        let r3 = _mm256_loadu_ps(src.add(3 * n));
        let r4 = _mm256_loadu_ps(src.add(4 * n));
        let r5 = _mm256_loadu_ps(src.add(5 * n));
        let r6 = _mm256_loadu_ps(src.add(6 * n));
        let r7 = _mm256_loadu_ps(src.add(7 * n));
        let t0 = _mm256_unpacklo_ps(r0, r1);
        let t1 = _mm256_unpackhi_ps(r0, r1);
        let t2 = _mm256_unpacklo_ps(r2, r3);
        let t3 = _mm256_unpackhi_ps(r2, r3);
        let t4 = _mm256_unpacklo_ps(r4, r5);
        let t5 = _mm256_unpackhi_ps(r4, r5);
        let t6 = _mm256_unpacklo_ps(r6, r7);
        let t7 = _mm256_unpackhi_ps(r6, r7);
        let s0 = _mm256_shuffle_ps(t0, t2, 0b01_00_01_00);
        let s1 = _mm256_shuffle_ps(t0, t2, 0b11_10_11_10);
        let s2 = _mm256_shuffle_ps(t1, t3, 0b01_00_01_00);
        let s3 = _mm256_shuffle_ps(t1, t3, 0b11_10_11_10);
        let s4 = _mm256_shuffle_ps(t4, t6, 0b01_00_01_00);
        let s5 = _mm256_shuffle_ps(t4, t6, 0b11_10_11_10);
        let s6 = _mm256_shuffle_ps(t5, t7, 0b01_00_01_00);
        let s7 = _mm256_shuffle_ps(t5, t7, 0b11_10_11_10);
        _mm256_storeu_ps(dst, _mm256_permute2f128_ps(s0, s4, 0x20));
        _mm256_storeu_ps(dst.add(m), _mm256_permute2f128_ps(s1, s5, 0x20));
        _mm256_storeu_ps(dst.add(2 * m), _mm256_permute2f128_ps(s2, s6, 0x20));
        _mm256_storeu_ps(dst.add(3 * m), _mm256_permute2f128_ps(s3, s7, 0x20));
        _mm256_storeu_ps(dst.add(4 * m), _mm256_permute2f128_ps(s0, s4, 0x31));
        _mm256_storeu_ps(dst.add(5 * m), _mm256_permute2f128_ps(s1, s5, 0x31));
        _mm256_storeu_ps(dst.add(6 * m), _mm256_permute2f128_ps(s2, s6, 0x31));
        _mm256_storeu_ps(dst.add(7 * m), _mm256_permute2f128_ps(s3, s7, 0x31));
    }

    /// One output row of the zero-skipping GEMM: 64-column blocks in eight
    /// `__m256` accumulators (enough independent chains to hide the add
    /// latency), then 8-column blocks, then a scalar tail. Every lane keeps
    /// one accumulator over the terms in order, multiply then add.
    ///
    /// # Safety
    ///
    /// AVX2 must be available, `idx.len() == val.len()`, and every
    /// `(idx[t] + 1) · o.len() <= b.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn sparse_row(idx: &[u32], val: &[f32], b: &[f32], o: &mut [f32]) {
        let n = o.len();
        let (bp, op) = (b.as_ptr(), o.as_mut_ptr());
        let mut j = 0;
        while j + 64 <= n {
            let mut acc = [_mm256_setzero_ps(); 8];
            for (&p, &v) in idx.iter().zip(val) {
                let va = _mm256_set1_ps(v);
                let row = bp.add(p as usize * n + j);
                for (q, slot) in acc.iter_mut().enumerate() {
                    *slot = madd(*slot, va, _mm256_loadu_ps(row.add(8 * q)));
                }
            }
            for (q, slot) in acc.iter().enumerate() {
                _mm256_storeu_ps(op.add(j + 8 * q), *slot);
            }
            j += 64;
        }
        while j + 8 <= n {
            let mut acc = _mm256_setzero_ps();
            for (&p, &v) in idx.iter().zip(val) {
                let row = bp.add(p as usize * n + j);
                acc = madd(acc, _mm256_set1_ps(v), _mm256_loadu_ps(row));
            }
            _mm256_storeu_ps(op.add(j), acc);
            j += 8;
        }
        while j < n {
            let mut acc = 0.0f32;
            for (&p, &v) in idx.iter().zip(val) {
                acc += v * *bp.add(p as usize * n + j);
            }
            *op.add(j) = acc;
            j += 1;
        }
    }

    /// `o[j] += av * b[j]`, eight lanes at a time with a scalar tail. Lane
    /// and tail both round multiply-then-add, matching the scalar loop.
    ///
    /// # Safety
    ///
    /// AVX2 must be available and `o.len() == b.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy_row(o: &mut [f32], b: &[f32], av: f32) {
        let n = o.len();
        let va = _mm256_set1_ps(av);
        let op = o.as_mut_ptr();
        let bp = b.as_ptr();
        let mut j = 0;
        while j + 8 <= n {
            let cur = _mm256_loadu_ps(op.add(j));
            let bv = _mm256_loadu_ps(bp.add(j));
            _mm256_storeu_ps(op.add(j), _mm256_add_ps(cur, _mm256_mul_ps(va, bv)));
            j += 8;
        }
        while j < n {
            *op.add(j) += av * *bp.add(j);
            j += 1;
        }
    }
}
