//! Kernel configuration as one per-thread value, and the two-tier
//! performance contract it selects: **strict** vs **fast** kernel mode.
//!
//! Strict mode (the default) obeys the deterministic-reduction rule in
//! [`crate::kernels`]: bits identical to the naive reference loops at every
//! thread count, on every instruction set. Fast mode is an *opt-in* tier
//! trading that for throughput (FMA tiles in [`crate::simd`], k-split
//! partial sums and tile autotuning in [`crate::fastpath`]); its results
//! are verified against strict by the bounds in [`crate::tolerance`], never
//! fingerprinted.
//!
//! Mode, thread count, SIMD dispatch and the fast-tile pin are one `Copy`
//! value, [`KernelCtx`]. Each thread holds its own copy, seeded once per
//! process from the env by [`KernelCtx::parse`] and changed only by
//! [`KernelCtx::scope`], which restores the outer value on return and on
//! unwind. A thread the library starts for kernel work (the tensor worker
//! pool, `JobScheduler` and `run_threaded` workers) runs under the ctx of
//! the thread that started it, so no code can change another thread's
//! kernels. The ctx is deliberately not part of any checkpoint or job
//! identity.

use std::cell::Cell;
use std::sync::OnceLock;

use crate::fastpath::FastTile;

/// Environment variable selecting the kernel mode. `fast` (case-insensitive)
/// opts into the fast tier; every other value — including unset — means
/// strict.
pub const MODE_ENV: &str = "LIGHTNAS_KERNEL_MODE";

/// Environment variable seeding the kernel thread count (a positive
/// integer; anything else means 1).
pub const THREADS_ENV: &str = "LIGHTNAS_KERNEL_THREADS";

/// Environment variable: set to `0`, `off` or `portable` to force the
/// portable scalar kernels even when AVX2 is available.
pub const SIMD_ENV: &str = "LIGHTNAS_KERNEL_SIMD";

/// The kernel execution mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelMode {
    /// Bit-exact: byte-identical to the naive references, thread-count and
    /// instruction-set invariant. The oracle tier.
    Strict,
    /// Tolerance-verified: FMA contraction, per-thread partial sums and
    /// per-shape tile autotuning allowed. Bounded divergence from strict,
    /// per [`crate::tolerance`].
    Fast,
}

impl KernelMode {
    /// Parses a `LIGHTNAS_KERNEL_MODE` value (`None` when unset): `fast`,
    /// case-insensitive and trimmed, is the fast tier; anything else is
    /// strict.
    pub fn parse(value: Option<&str>) -> Self {
        match value {
            Some(v) if v.trim().eq_ignore_ascii_case("fast") => Self::Fast,
            _ => Self::Strict,
        }
    }
}

/// The kernel configuration the current thread runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelCtx {
    /// Strict (bit-exact) or fast (tolerance-verified) kernels.
    pub mode: KernelMode,
    /// Threads one kernel call may use (`0` counts as 1); never changes
    /// strict bits.
    pub threads: usize,
    /// Whether the SIMD micro-kernels dispatch (`true` is a no-op without
    /// AVX2); never changes strict bits.
    pub simd: bool,
    /// Pins the fast-tier micro-tile, bypassing autotuning (a tile the CPU
    /// lacks falls back to one it has). For the differential tests.
    pub tile: Option<FastTile>,
}

thread_local! {
    /// `None` until the thread's first read seeds it from the env.
    static CURRENT: Cell<Option<KernelCtx>> = const { Cell::new(None) };
}

impl KernelCtx {
    /// Parses the values of `LIGHTNAS_KERNEL_MODE`, `LIGHTNAS_KERNEL_THREADS`
    /// and `LIGHTNAS_KERNEL_SIMD` (`None` when unset), a pure function of
    /// them: unset or unparseable values mean strict, 1 thread, SIMD on.
    pub fn parse(mode: Option<&str>, threads: Option<&str>, simd: Option<&str>) -> Self {
        let portable = simd.is_some_and(|v| {
            matches!(
                v.trim().to_ascii_lowercase().as_str(),
                "0" | "off" | "portable"
            )
        });
        Self {
            mode: KernelMode::parse(mode),
            threads: threads
                .and_then(|v| v.trim().parse::<usize>().ok())
                .map_or(1, |n| n.max(1)),
            simd: !portable,
            tile: None,
        }
    }

    /// The ctx every thread starts from: the environment, read once per
    /// process.
    fn process_default() -> Self {
        static DEFAULT: OnceLock<KernelCtx> = OnceLock::new();
        *DEFAULT.get_or_init(|| {
            let var = |name| std::env::var(name).ok();
            Self::parse(
                var(MODE_ENV).as_deref(),
                var(THREADS_ENV).as_deref(),
                var(SIMD_ENV).as_deref(),
            )
            .normalized()
        })
    }

    /// The current thread's ctx.
    pub fn current() -> Self {
        CURRENT.with(|c| match c.get() {
            Some(ctx) => ctx,
            None => {
                let ctx = Self::process_default();
                c.set(Some(ctx));
                ctx
            }
        })
    }

    /// Runs `f` with `self` as the current thread's ctx, restoring the outer
    /// ctx when `f` returns or unwinds.
    pub fn scope<R>(self, f: impl FnOnce() -> R) -> R {
        struct Restore(KernelCtx);
        impl Drop for Restore {
            fn drop(&mut self) {
                CURRENT.with(|c| c.set(Some(self.0)));
            }
        }
        let _restore = Restore(Self::current());
        CURRENT.with(|c| c.set(Some(self.normalized())));
        f()
    }

    /// At least one thread, and SIMD only where the CPU has AVX2. Every
    /// installed ctx is normalized, which is what lets the SIMD dispatch
    /// trust `simd` as proof of AVX2.
    fn normalized(self) -> Self {
        Self {
            threads: self.threads.max(1),
            simd: self.simd && crate::simd::avx2_available(),
            ..self
        }
    }
}

/// The current thread's kernel mode.
pub fn kernel_mode() -> KernelMode {
    KernelCtx::current().mode
}

/// The current thread's kernel thread count (at least 1).
pub fn num_threads() -> usize {
    KernelCtx::current().threads
}

/// Whether the SIMD micro-kernels are active on the current thread.
pub fn simd_enabled() -> bool {
    KernelCtx::current().simd
}

/// The current thread's pinned fast-tier micro-tile, if any.
pub fn fast_tile_override() -> Option<FastTile> {
    KernelCtx::current().tile
}

/// `true` when the fast tier is both requested and *usable*: fast kernels
/// require the SIMD dispatch to be on and an FMA-capable CPU. With SIMD
/// forced off (`LIGHTNAS_KERNEL_SIMD=off`) or on pre-FMA hardware, fast mode
/// degrades to the strict kernels — bit-identical, never half-fast.
pub(crate) fn fast_active() -> bool {
    let ctx = KernelCtx::current();
    ctx.mode == KernelMode::Fast && ctx.simd && crate::simd::fma_available()
}
