//! Cache-aware packed micro-kernels for the matmul/matvec hot loops.
//!
//! This module is the single funnel every dense product in the workspace
//! goes through (DESIGN.md §12): `Tensor::matmul`, the fused
//! `matmul_bias_act` / `matvec_bias_act` primitives (and therefore every
//! `linear_act` node on the autodiff tape, including the LSTM gates), the
//! convolution forward (via [`axpy`]) and gradients (via [`matmul`]).
//!
//! # Layout and dispatch
//!
//! Two kernel families live here:
//!
//! * **Scalar reference** ([`matmul_ref`], [`matvec_ref`]) — the blocked
//!   i-k-j kernel that has always been the workspace's serial path. It is
//!   the bit-reference every other path is measured against.
//! * **Packed SIMD** — A is packed into [`MR`]-row panels (k-major) and B
//!   into [`NR`]-column panels, both sized so one k-block ([`KC`]) of
//!   working set stays in L1/L2; a register-blocked 4×16 AVX micro-kernel
//!   runs over the panels. Matvec packs [`PR`]-row panels and broadcasts
//!   the input vector.
//!
//! SIMD paths are selected at runtime via [`active_isa`] (a cached
//! `is_x86_feature_detected!` probe). Every intrinsic call sits in a
//! `#[target_feature]` function of the one `#[allow(unsafe_code)]` module,
//! whose safe wrappers take an `Avx` token that only the probe can
//! construct — so reaching an AVX kernel without the probe does not
//! compile (DESIGN.md §7).
//!
//! # Determinism contract
//!
//! Both paths — scalar, AVX — accumulate each output element in
//! ascending-`k` order with separate multiply and add (no FMA
//! contraction), so **the SIMD path is bit-identical to the scalar
//! reference** on every machine: 0 ulp, stronger than the ≤1-ulp budget
//! the SIMD path is allowed. Vectorization rides on lane-parallelism
//! across *output* elements (rows for matvec, columns for matmul), never
//! on reassociating a single element's reduction. Activation epilogues
//! are applied by the same scalar [`Activation::apply`] in every path so
//! `exp`/`tanh` never diverge between ISAs.

use crate::ops::Activation;

/// Cache-blocking tile edge for the scalar reference kernel: a 64×64 f32
/// tile is 16 KiB, so one tile each of A, B and C fit in a typical
/// 48–64 KiB L1.
const TILE: usize = 64;

/// Rows per packed A-panel (micro-kernel height).
pub const MR: usize = 4;

/// Columns per packed B-panel (micro-kernel width: two 8-lane AVX
/// vectors).
pub const NR: usize = 16;

/// k-blocking depth: one A panel (`MR`·`KC` f32 = 4 KiB) stays L1-hot
/// while a B strip (`KC`·`NR` f32 = 16 KiB) streams through.
pub const KC: usize = 256;

/// Rows per packed matvec panel (one 8-lane AVX vector of accumulators).
pub const PR: usize = 8;

/// Below this element-product a packed-SIMD matmul does not amortize its
/// packing passes; the scalar reference kernel runs instead. Pure
/// performance policy — both paths produce identical bits.
const SIMD_MIN_MATMUL_ELEMS: usize = 8_192;

/// Below this `rows·k` product the matvec packing pass is not worth it.
const SIMD_MIN_MATVEC_ELEMS: usize = 1_024;

// ---------------------------------------------------------------------------
// Runtime ISA dispatch
// ---------------------------------------------------------------------------

/// Instruction sets the kernels can target, in ascending capability order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Isa {
    /// Portable scalar kernels (the bit-reference).
    Scalar,
    /// AVX f32 kernels (packed matmul/matvec, axpy).
    Avx,
}

impl Isa {
    /// Stable name for logs and metrics.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx => "avx",
        }
    }
}

pub use probe::active_isa;
#[cfg(target_arch = "x86_64")]
use probe::Avx;

/// The cached CPU probe, in a module of its own so nothing else in this
/// file can construct an [`Avx`] token.
mod probe {
    use super::Isa;

    /// Proof that the running CPU has AVX. Zero-sized; its field is
    /// private to this module, so the only way to obtain one is
    /// [`Avx::detect`], which asks the cached probe. The `x86` wrappers
    /// take it by value.
    #[cfg(target_arch = "x86_64")]
    #[derive(Clone, Copy, Debug)]
    pub struct Avx(());

    #[cfg(target_arch = "x86_64")]
    impl Avx {
        /// `Some` exactly when [`active_isa`] found AVX.
        pub fn detect() -> Option<Avx> {
            (active_isa() >= Isa::Avx).then_some(Avx(()))
        }
    }

    /// Probes CPU features once and caches the result; the probe itself
    /// is the *only* gate SIMD kernels are reached through.
    pub fn active_isa() -> Isa {
        use std::sync::atomic::{AtomicU8, Ordering};
        static ISA: AtomicU8 = AtomicU8::new(0);
        match ISA.load(Ordering::Relaxed) {
            1 => Isa::Scalar,
            2 => Isa::Avx,
            _ => {
                let isa = detect_isa();
                let code = match isa {
                    Isa::Scalar => 1,
                    Isa::Avx => 2,
                };
                ISA.store(code, Ordering::Relaxed);
                isa
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    fn detect_isa() -> Isa {
        if std::arch::is_x86_feature_detected!("avx") {
            Isa::Avx
        } else {
            Isa::Scalar
        }
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn detect_isa() -> Isa {
        Isa::Scalar
    }
}

// ---------------------------------------------------------------------------
// Scalar reference kernels
// ---------------------------------------------------------------------------

/// Blocked i-k-j matmul kernel over a contiguous span of output rows:
/// `a` is `[rows, k]`, `b` is `[k, n]`, `out` is `[rows, n]` and must be
/// zeroed (or hold a partial accumulation over a k-prefix).
///
/// Tiles all three loops at [`TILE`] so the working set stays in L1, and
/// unrolls `k` by two inside the tile so each output vector load/store is
/// amortized over two fused rows of `b`. Per output element the additions
/// happen in ascending-`k` order — the same order as the textbook ikj
/// loop — so blocking changes performance, not results. This is the
/// bit-reference for every other matmul path in this module.
pub fn matmul_ref(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize) {
    if k == 0 || n == 0 {
        return; // out stays zero: an empty accumulation.
    }
    let rows = a.len() / k;
    debug_assert_eq!(out.len(), rows * n);
    for i0 in (0..rows).step_by(TILE) {
        let i1 = (i0 + TILE).min(rows);
        for p0 in (0..k).step_by(TILE) {
            let p1 = (p0 + TILE).min(k);
            for j0 in (0..n).step_by(TILE) {
                let j1 = (j0 + TILE).min(n);
                for i in i0..i1 {
                    let arow = &a[i * k..(i + 1) * k];
                    let orow = &mut out[i * n + j0..i * n + j1];
                    let mut p = p0;
                    while p + 2 <= p1 {
                        let a0 = arow[p];
                        let a1 = arow[p + 1];
                        let b0 = &b[p * n + j0..p * n + j1];
                        let b1 = &b[(p + 1) * n + j0..(p + 1) * n + j1];
                        for ((o, &v0), &v1) in orow.iter_mut().zip(b0).zip(b1) {
                            // Left-to-right adds keep ascending-k order.
                            *o = *o + a0 * v0 + a1 * v1;
                        }
                        p += 2;
                    }
                    if p < p1 {
                        let a0 = arow[p];
                        let b0 = &b[p * n + j0..p * n + j1];
                        for (o, &v0) in orow.iter_mut().zip(b0) {
                            *o += a0 * v0;
                        }
                    }
                }
            }
        }
    }
}

/// Scalar fused matvec: `out[i] = act(Σ_k w[i,k]·x[k] + bias[i])`,
/// accumulated in ascending-`k` order. The bit-reference for
/// [`matvec_bias_act`].
pub fn matvec_ref(w: &[f32], x: &[f32], bias: &[f32], act: Activation, out: &mut [f32]) {
    let k = x.len();
    if k == 0 {
        // Degenerate matvec: every row dot is empty, out = act(bias).
        for (o, &b) in out.iter_mut().zip(bias) {
            *o = act.apply(b);
        }
        return;
    }
    for ((o, row), &b) in out.iter_mut().zip(w.chunks_exact(k)).zip(bias) {
        let mut acc = 0.0f32;
        for (&wv, &xv) in row.iter().zip(x) {
            acc += wv * xv;
        }
        *o = act.apply(acc + b);
    }
}

// ---------------------------------------------------------------------------
// Dispatched entry points
// ---------------------------------------------------------------------------

/// Matrix product over a contiguous span of output rows (`a` `[rows,k]`,
/// `b` `[k,n]`, `out` `[rows,n]` zeroed): dispatches to the packed AVX
/// kernel when the CPU supports it and the product is large enough to
/// amortize packing, otherwise to [`matmul_ref`]. Both paths produce
/// identical bits (see the module docs).
pub fn matmul(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize) {
    if k == 0 || n == 0 {
        return;
    }
    let rows = a.len() / k;
    #[cfg(target_arch = "x86_64")]
    if rows * k * n >= SIMD_MIN_MATMUL_ELEMS && n >= PR {
        if let Some(avx) = Avx::detect() {
            return matmul_packed(avx, a, b, out, k, n);
        }
    }
    matmul_ref(a, b, out, k, n);
}

/// Fused matvec `out[i] = act(Σ_k w[i,k]·x[k] + bias[i])`: dispatches to
/// the packed AVX kernel or [`matvec_ref`]; identical bits either way.
pub fn matvec_bias_act(w: &[f32], x: &[f32], bias: &[f32], act: Activation, out: &mut [f32]) {
    debug_assert_eq!(w.len(), out.len() * x.len());
    debug_assert_eq!(bias.len(), out.len());
    #[cfg(target_arch = "x86_64")]
    if out.len() >= PR && w.len() >= SIMD_MIN_MATVEC_ELEMS {
        if let Some(avx) = Avx::detect() {
            return matvec_packed(avx, w, x, bias, act, out);
        }
    }
    matvec_ref(w, x, bias, act, out);
}

/// In-place `y[j] += a·x[j]` — the convolution and gradient-accumulation
/// inner loop. Element-wise, so vector lanes trivially preserve the
/// scalar bits.
pub fn axpy(y: &mut [f32], x: &[f32], a: f32) {
    debug_assert_eq!(y.len(), x.len());
    #[cfg(target_arch = "x86_64")]
    if y.len() >= PR {
        if let Some(avx) = Avx::detect() {
            return x86::run_axpy(avx, y, x, a);
        }
    }
    for (yv, &xv) in y.iter_mut().zip(x) {
        *yv += a * xv;
    }
}

// ---------------------------------------------------------------------------
// Packed f32 kernels (x86_64)
// ---------------------------------------------------------------------------

/// GotoBLAS-style packed matmul: for each [`KC`] k-block, A is packed once
/// into [`MR`]-row panels and each [`NR`]-column B strip is packed and
/// streamed through the 4×16 register-blocked micro-kernel. `out`
/// accumulates across k-blocks, preserving global ascending-`k` order per
/// element.
#[cfg(target_arch = "x86_64")]
fn matmul_packed(avx: Avx, a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize) {
    let rows = a.len() / k;
    let row_blocks = rows.div_ceil(MR);
    let kc_max = KC.min(k);
    let mut apack = vec![0.0f32; row_blocks * MR * kc_max];
    let mut bpack = vec![0.0f32; kc_max * NR];
    let mut acc = [0.0f32; MR * NR];

    for p0 in (0..k).step_by(KC) {
        let kc = (p0 + KC).min(k) - p0;
        pack_a_panels(a, &mut apack, rows, k, p0, kc);
        for j0 in (0..n).step_by(NR) {
            let nr = (j0 + NR).min(n) - j0;
            pack_b_strip(b, &mut bpack, n, p0, kc, j0, nr);
            for (bi, i0) in (0..rows).step_by(MR).enumerate() {
                let mr = (i0 + MR).min(rows) - i0;
                acc.fill(0.0);
                for r in 0..mr {
                    let orow = &out[(i0 + r) * n + j0..(i0 + r) * n + j0 + nr];
                    acc[r * NR..r * NR + nr].copy_from_slice(orow);
                }
                let apanel = &apack[bi * MR * kc..(bi + 1) * MR * kc];
                x86::run_mm4x16(avx, apanel, &bpack[..kc * NR], kc, &mut acc);
                for r in 0..mr {
                    let orow = &mut out[(i0 + r) * n + j0..(i0 + r) * n + j0 + nr];
                    orow.copy_from_slice(&acc[r * NR..r * NR + nr]);
                }
            }
        }
    }
}

/// Packs all `MR`-row panels of A for one k-block, k-major within each
/// panel (`apack[panel][p·MR + r] = a[i0+r][p0+p]`), zero-padding the
/// ragged final panel so the micro-kernel never branches on row count.
#[cfg(target_arch = "x86_64")]
fn pack_a_panels(a: &[f32], apack: &mut [f32], rows: usize, k: usize, p0: usize, kc: usize) {
    for (bi, i0) in (0..rows).step_by(MR).enumerate() {
        let mr = (i0 + MR).min(rows) - i0;
        let panel = &mut apack[bi * MR * kc..(bi + 1) * MR * kc];
        if mr < MR {
            panel.fill(0.0);
        }
        for r in 0..mr {
            let arow = &a[(i0 + r) * k + p0..(i0 + r) * k + p0 + kc];
            for (p, &v) in arow.iter().enumerate() {
                panel[p * MR + r] = v;
            }
        }
    }
}

/// Packs one `NR`-column strip of B for one k-block, k-major
/// (`bpack[p·NR + c] = b[p0+p][j0+c]`), zero-padding ragged columns.
#[cfg(target_arch = "x86_64")]
fn pack_b_strip(
    b: &[f32],
    bpack: &mut [f32],
    n: usize,
    p0: usize,
    kc: usize,
    j0: usize,
    nr: usize,
) {
    if nr < NR {
        bpack[..kc * NR].fill(0.0);
    }
    for p in 0..kc {
        let brow = &b[(p0 + p) * n + j0..(p0 + p) * n + j0 + nr];
        bpack[p * NR..p * NR + nr].copy_from_slice(brow);
    }
}

/// Packed AVX matvec: rows are processed [`PR`] at a time; the panel is
/// k-major so one vector load yields the 8 rows' weights at a given `k`
/// and the input scalar is broadcast. Each accumulator lane sums in
/// ascending-`k` order; the bias/activation epilogue is scalar and
/// identical to [`matvec_ref`]'s.
#[cfg(target_arch = "x86_64")]
fn matvec_packed(avx: Avx, w: &[f32], x: &[f32], bias: &[f32], act: Activation, out: &mut [f32]) {
    let m = out.len();
    let k = x.len();
    let mut panel = vec![0.0f32; PR * k];
    let mut accs = [0.0f32; PR];
    for i0 in (0..m).step_by(PR) {
        let pr = (i0 + PR).min(m) - i0;
        if pr < PR {
            panel.fill(0.0);
        }
        for r in 0..pr {
            let row = &w[(i0 + r) * k..(i0 + r + 1) * k];
            for (p, &wv) in row.iter().enumerate() {
                panel[p * PR + r] = wv;
            }
        }
        x86::run_mv8(avx, &panel, x, &mut accs);
        for r in 0..pr {
            out[i0 + r] = act.apply(accs[r] + bias[i0 + r]);
        }
    }
}

// ---------------------------------------------------------------------------
// x86_64 intrinsic micro-kernels
// ---------------------------------------------------------------------------

/// The only module in the workspace allowed to use `unsafe`: raw
/// `std::arch` intrinsics behind `#[target_feature]` functions. Every
/// wrapper takes an [`Avx`] token, which only the cached probe
/// constructs — that is what makes the `unsafe` calls sound: the
/// required CPU feature was probed at runtime.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86 {
    use super::{Avx, MR, NR, PR};
    use core::arch::x86_64::{
        __m256, _mm256_add_ps, _mm256_broadcast_ss, _mm256_loadu_ps, _mm256_mul_ps,
        _mm256_setzero_ps, _mm256_storeu_ps,
    };

    /// 4×16 register-blocked micro-kernel: `acc[r][c] += Σ_p a[r][p]·b[p][c]`
    /// over packed panels, per-element ascending-`p` with separate
    /// multiply and add (no FMA) so the result is bit-identical to the
    /// scalar reference.
    ///
    /// # Safety
    ///
    /// Requires AVX; `apanel` must hold `kc·MR` floats, `bpanel` `kc·NR`.
    #[target_feature(enable = "avx")]
    unsafe fn mm4x16(apanel: *const f32, bpanel: *const f32, kc: usize, acc: *mut f32) {
        let mut c: [__m256; 8] = [
            _mm256_loadu_ps(acc),
            _mm256_loadu_ps(acc.add(8)),
            _mm256_loadu_ps(acc.add(16)),
            _mm256_loadu_ps(acc.add(24)),
            _mm256_loadu_ps(acc.add(32)),
            _mm256_loadu_ps(acc.add(40)),
            _mm256_loadu_ps(acc.add(48)),
            _mm256_loadu_ps(acc.add(56)),
        ];
        for p in 0..kc {
            let b0 = _mm256_loadu_ps(bpanel.add(p * NR));
            let b1 = _mm256_loadu_ps(bpanel.add(p * NR + 8));
            let ap = apanel.add(p * MR);
            let a0 = _mm256_broadcast_ss(&*ap);
            c[0] = _mm256_add_ps(c[0], _mm256_mul_ps(a0, b0));
            c[1] = _mm256_add_ps(c[1], _mm256_mul_ps(a0, b1));
            let a1 = _mm256_broadcast_ss(&*ap.add(1));
            c[2] = _mm256_add_ps(c[2], _mm256_mul_ps(a1, b0));
            c[3] = _mm256_add_ps(c[3], _mm256_mul_ps(a1, b1));
            let a2 = _mm256_broadcast_ss(&*ap.add(2));
            c[4] = _mm256_add_ps(c[4], _mm256_mul_ps(a2, b0));
            c[5] = _mm256_add_ps(c[5], _mm256_mul_ps(a2, b1));
            let a3 = _mm256_broadcast_ss(&*ap.add(3));
            c[6] = _mm256_add_ps(c[6], _mm256_mul_ps(a3, b0));
            c[7] = _mm256_add_ps(c[7], _mm256_mul_ps(a3, b1));
        }
        for (r, v) in c.into_iter().enumerate() {
            _mm256_storeu_ps(acc.add(r * 8), v);
        }
    }

    /// Safe wrapper for [`mm4x16`]; the [`Avx`] token proves AVX.
    pub(super) fn run_mm4x16(
        _: Avx,
        apanel: &[f32],
        bpanel: &[f32],
        kc: usize,
        acc: &mut [f32; MR * NR],
    ) {
        debug_assert!(apanel.len() >= kc * MR && bpanel.len() >= kc * NR);
        // SAFETY: the `Avx` token exists only once the runtime probe found
        // AVX; panel bounds are debug-asserted and guaranteed by the packers.
        unsafe { mm4x16(apanel.as_ptr(), bpanel.as_ptr(), kc, acc.as_mut_ptr()) }
    }

    /// 8-row matvec micro-kernel over a k-major packed panel: lane `r`
    /// accumulates row `i0+r` in ascending-`k` order.
    ///
    /// # Safety
    ///
    /// Requires AVX; `panel` must hold `x.len()·PR` floats.
    #[target_feature(enable = "avx")]
    unsafe fn mv8(panel: *const f32, x: *const f32, k: usize, out: *mut f32) {
        let mut acc = _mm256_setzero_ps();
        for p in 0..k {
            let w = _mm256_loadu_ps(panel.add(p * PR));
            let xv = _mm256_broadcast_ss(&*x.add(p));
            acc = _mm256_add_ps(acc, _mm256_mul_ps(w, xv));
        }
        _mm256_storeu_ps(out, acc);
    }

    /// Safe wrapper for [`mv8`]; the [`Avx`] token proves AVX.
    pub(super) fn run_mv8(_: Avx, panel: &[f32], x: &[f32], accs: &mut [f32; PR]) {
        debug_assert!(panel.len() >= x.len() * PR);
        // SAFETY: the `Avx` token proves AVX; panel length debug-asserted.
        unsafe { mv8(panel.as_ptr(), x.as_ptr(), x.len(), accs.as_mut_ptr()) }
    }

    /// Vectorized `y += a·x` with a scalar tail; element-wise, so lane
    /// order is irrelevant and the bits match the scalar loop.
    ///
    /// # Safety
    ///
    /// Requires AVX; `y` and `x` must both hold `n` floats.
    #[target_feature(enable = "avx")]
    unsafe fn axpy_avx(y: *mut f32, x: *const f32, a: f32, n: usize) {
        let av = _mm256_broadcast_ss(&a);
        let mut i = 0usize;
        while i + 8 <= n {
            let yv = _mm256_loadu_ps(y.add(i));
            let xv = _mm256_loadu_ps(x.add(i));
            _mm256_storeu_ps(y.add(i), _mm256_add_ps(yv, _mm256_mul_ps(av, xv)));
            i += 8;
        }
        while i < n {
            *y.add(i) += a * *x.add(i);
            i += 1;
        }
    }

    /// Safe wrapper for [`axpy_avx`] over the common prefix of `y` and
    /// `x` — where the scalar `zip` stops; the [`Avx`] token proves AVX.
    pub(super) fn run_axpy(_: Avx, y: &mut [f32], x: &[f32], a: f32) {
        let n = y.len().min(x.len());
        // SAFETY: the `Avx` token proves AVX; both slices hold >= `n` floats.
        unsafe { axpy_avx(y.as_mut_ptr(), x.as_ptr(), a, n) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    fn rand_vec(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = crate::rng_from_seed(seed);
        Tensor::rand_uniform(&[len.max(1)], -2.0, 2.0, &mut rng)
            .as_slice()
            .to_vec()
    }

    #[test]
    fn dispatched_matmul_bit_matches_reference() {
        // Shapes straddling panel edges (MR=4, NR=16, KC=256) and the
        // SIMD dispatch threshold.
        for (m, k, n) in [
            (1, 1, 1),
            (3, 5, 2),
            (4, 16, 16),
            (17, 31, 23),
            (64, 64, 64),
            (65, 300, 66),
            (7, 129, 9),
            (128, 80, 120),
        ] {
            let a = rand_vec(m * k, 100 + m as u64);
            let b = rand_vec(k * n, 200 + n as u64);
            let mut got = vec![0.0f32; m * n];
            let mut want = vec![0.0f32; m * n];
            matmul(&a, &b, &mut got, k, n);
            matmul_ref(&a, &b, &mut want, k, n);
            assert_eq!(got, want, "({m},{k},{n}) isa={}", active_isa().name());
        }
    }

    #[test]
    fn dispatched_matvec_bit_matches_reference() {
        for (m, k) in [(1, 1), (5, 7), (8, 128), (33, 67), (64, 200)] {
            let w = rand_vec(m * k, 300 + m as u64);
            let x = rand_vec(k, 400 + k as u64);
            let bias = rand_vec(m, 500 + m as u64);
            for act in [
                Activation::Identity,
                Activation::Relu,
                Activation::Sigmoid,
                Activation::Tanh,
            ] {
                let mut got = vec![0.0f32; m];
                let mut want = vec![0.0f32; m];
                matvec_bias_act(&w, &x, &bias, act, &mut got);
                matvec_ref(&w, &x, &bias, act, &mut want);
                assert_eq!(got, want, "({m},{k}) {act:?}");
            }
        }
    }

    #[test]
    fn axpy_bit_matches_scalar_loop() {
        for n in [1, 7, 8, 9, 64, 1000] {
            let x = rand_vec(n, 600 + n as u64);
            let mut got = rand_vec(n, 700 + n as u64);
            let mut want = got.clone();
            axpy(&mut got, &x, 0.37);
            for (yv, &xv) in want.iter_mut().zip(&x) {
                *yv += 0.37 * xv;
            }
            assert_eq!(got, want, "n={n}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn run_axpy_stops_at_the_shorter_slice_like_the_scalar_zip() {
        let Some(avx) = Avx::detect() else {
            return; // no AVX here: the wrapper is unreachable
        };
        for (ny, nx) in [(20, 9), (9, 20), (16, 16), (3, 0)] {
            let x = rand_vec(nx, 800 + nx as u64)[..nx].to_vec();
            let mut got = rand_vec(ny, 900 + ny as u64);
            let mut want = got.clone();
            x86::run_axpy(avx, &mut got, &x, 0.37);
            for (yv, &xv) in want.iter_mut().zip(&x) {
                *yv += 0.37 * xv;
            }
            assert_eq!(got, want, "y={ny} x={nx}");
        }
    }

    #[test]
    fn isa_detection_is_stable() {
        let a = active_isa();
        assert_eq!(a, active_isa());
        assert!(!a.name().is_empty());
    }
}
