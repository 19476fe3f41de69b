//! Tensor math: element-wise arithmetic, matmul, reductions, concatenation,
//! transpose, and the convolution geometry helpers shared with `deepod-nn`.
//!
//! The dense products (`matmul`, `matvec_bias_act`, `axpy`) route through
//! [`crate::kernels`], which picks a packed SIMD or scalar kernel at
//! runtime; every path is bit-identical (DESIGN.md §12), so this module
//! only decides *shape* and *threading*, never numerics.

use crate::Tensor;

/// Fork threshold for [`Tensor::matmul`]: products below 2²³ FLOP (~8
/// MFLOP) never fan out, on the reasoning that they take well under a
/// millisecond through the packed kernels, so thread spawn / join
/// coordination would dominate. The floor is a policy pinned by the
/// `matmul_fork_floor` test over [`matmul_fanout`], not a measured
/// crossover.
const PAR_MIN_FLOPS: usize = 1 << 23;

/// Number of row spans `[m,k] x [k,n]` is split across (`1` = serial).
/// `threads` follows [`Tensor::matmul_with_threads`]: `0` resolves the
/// configured default and clamps it to the machine's hardware
/// parallelism, an explicit count is honored as-is; either way there are
/// never more spans than rows, and a product below [`PAR_MIN_FLOPS`]
/// never forks.
fn matmul_fanout(m: usize, k: usize, n: usize, threads: usize) -> usize {
    let mut t = crate::parallel::resolve_threads(threads).min(m.max(1));
    if threads == 0 {
        // Default-threaded callers never fan out wider than the machine:
        // oversubscribed workers only add coordination cost.
        t = t.min(crate::parallel::hardware_parallelism());
    }
    if t > 1 && 2 * m * k * n >= PAR_MIN_FLOPS {
        t
    } else {
        1
    }
}

/// Debug-only finiteness check on a matmul operand. A NaN entering the
/// shared `code`/`stcode` binding silently corrupts all three encoders'
/// gradients at once (the coupled loss of §4.4), so the matmul entry
/// points catch it at the door in debug/test builds; release builds pay
/// nothing.
#[inline]
fn debug_assert_finite(xs: &[f32], what: &str) {
    if cfg!(debug_assertions) {
        if let Some(pos) = xs.iter().position(|v| !v.is_finite()) {
            // deepod-lint: allow(panic) — debug-only guard, compiled out in release
            panic!("{what}: non-finite value {} at flat index {pos}", xs[pos]);
        }
    }
}

/// Activation functions fused into the matmul/matvec primitives and the
/// autodiff tape's fully-connected node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    /// No activation (`y = x`).
    Identity,
    /// Rectified linear unit.
    Relu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

impl Activation {
    /// Applies the activation to one scalar.
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Identity => x,
            Activation::Relu => x.max(0.0),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Tanh => x.tanh(),
        }
    }

    /// Derivative expressed in terms of the activation *output* `y` (all
    /// four functions admit one; this is what lets backward passes avoid
    /// keeping the pre-activation around).
    #[inline]
    pub fn derivative_from_output(self, y: f32) -> f32 {
        match self {
            Activation::Identity => 1.0,
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Tanh => 1.0 - y * y,
        }
    }
}

impl Tensor {
    /// Element-wise binary op; panics on shape mismatch.
    fn zip_with(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(
            self.shape(),
            other.shape(),
            "shape mismatch: {} vs {}",
            self.shape(),
            other.shape()
        );
        let data = self
            .as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Tensor::from_vec(data, self.dims())
    }

    /// Element-wise unary op.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let data = self.as_slice().iter().map(|&a| f(a)).collect();
        Tensor::from_vec(data, self.dims())
    }

    /// Element-wise addition.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a + b)
    }

    /// Element-wise subtraction.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a * b)
    }

    /// Element-wise division.
    pub fn div(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a / b)
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|a| a * s)
    }

    /// Adds `s` to every element.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        self.map(|a| a + s)
    }

    /// In-place `self += other * s` (axpy); panics on shape mismatch.
    /// Used for gradient accumulation and optimizer updates.
    pub fn axpy(&mut self, s: f32, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        crate::kernels::axpy(self.as_mut_slice(), other.as_slice(), s);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.as_slice().iter().sum()
    }

    /// Mean of all elements; 0.0 for an empty tensor.
    pub fn mean(&self) -> f32 {
        if self.numel() == 0 {
            0.0
        } else {
            self.sum() / self.numel() as f32
        }
    }

    /// Euclidean norm of the flattened tensor.
    pub fn norm(&self) -> f32 {
        self.as_slice().iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Dot product of two tensors flattened; panics on element-count
    /// mismatch.
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(self.numel(), other.numel(), "dot length mismatch");
        self.as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(&a, &b)| a * b)
            .sum()
    }

    /// Matrix product of two rank-2 tensors: `[m,k] x [k,n] -> [m,n]`.
    ///
    /// Dispatches to the packed kernels in [`crate::kernels`], forking
    /// across row spans above [`PAR_MIN_FLOPS`] with the configured thread
    /// count (`DEEPOD_THREADS`), clamped to the machine's hardware
    /// parallelism so the default can never oversubscribe. Results are
    /// bit-identical for every thread count: each output row is produced by
    /// exactly one worker running the same per-row kernel.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        self.matmul_with_threads(other, 0)
    }

    /// [`Tensor::matmul`] with an explicit thread count (`0` = configured
    /// default, clamped to hardware parallelism; explicit counts are
    /// honored as-is). Exposed so tests can pin the serial and parallel
    /// paths independently of the environment.
    pub fn matmul_with_threads(&self, other: &Tensor, threads: usize) -> Tensor {
        assert_eq!(self.rank(), 2, "matmul lhs must be rank-2");
        assert_eq!(other.rank(), 2, "matmul rhs must be rank-2");
        let (m, k) = (self.dim(0), self.dim(1));
        let (k2, n) = (other.dim(0), other.dim(1));
        assert_eq!(k, k2, "matmul inner dims differ: {k} vs {k2}");
        debug_assert_finite(self.as_slice(), "matmul lhs");
        debug_assert_finite(other.as_slice(), "matmul rhs");
        let a = self.as_slice();
        let b = other.as_slice();
        let mut out = vec![0.0f32; m * n];
        let t = matmul_fanout(m, k, n, threads);
        if t > 1 {
            let spans = crate::parallel::split_ranges(m, t);
            std::thread::scope(|scope| {
                let mut rest: &mut [f32] = &mut out;
                for span in &spans {
                    let (chunk, tail) = rest.split_at_mut(span.len() * n);
                    rest = tail;
                    let a_rows = &a[span.start * k..span.end * k];
                    scope.spawn(move || crate::kernels::matmul(a_rows, b, chunk, k, n));
                }
            });
        } else {
            crate::kernels::matmul(a, b, &mut out, k, n);
        }
        Tensor::from_vec(out, &[m, n])
    }

    /// Fused `act(self · other + bias)` where `bias` (`[n]`) is broadcast
    /// over the rows of the `[m,n]` product: the batched fully-connected
    /// primitive. One output pass applies bias and activation, instead of
    /// three materialized intermediates.
    pub fn matmul_bias_act(&self, other: &Tensor, bias: &Tensor, act: Activation) -> Tensor {
        debug_assert_finite(bias.as_slice(), "matmul_bias_act bias");
        let mut out = self.matmul(other);
        let n = out.dim(1);
        assert_eq!(
            bias.numel(),
            n,
            "bias length mismatch: {} vs {n}",
            bias.numel()
        );
        let bs = bias.as_slice();
        for row in out.as_mut_slice().chunks_mut(n) {
            for (o, &b) in row.iter_mut().zip(bs) {
                *o = act.apply(*o + b);
            }
        }
        out
    }

    /// Fused `act(self · x + bias)` for a rank-1 `x` (`[k]`) and bias
    /// (`[m]`): the per-sample fully-connected primitive used by the
    /// autodiff tape. Accumulation order matches [`Tensor::matmul`] exactly
    /// (ascending `k`), so fusing does not perturb trained numerics.
    pub fn matvec_bias_act(&self, x: &Tensor, bias: &Tensor, act: Activation) -> Tensor {
        assert_eq!(self.rank(), 2, "matvec_bias_act lhs must be rank-2");
        let (m, k) = (self.dim(0), self.dim(1));
        assert_eq!(x.numel(), k, "input length mismatch: {} vs {k}", x.numel());
        assert_eq!(
            bias.numel(),
            m,
            "bias length mismatch: {} vs {m}",
            bias.numel()
        );
        let mut out = vec![0.0f32; m];
        crate::kernels::matvec_bias_act(
            self.as_slice(),
            x.as_slice(),
            bias.as_slice(),
            act,
            &mut out,
        );
        Tensor::from_vec(out, &[m])
    }

    /// Matrix–vector product: `[m,k] x [k] -> [m]`.
    pub fn matvec(&self, v: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "matvec lhs must be rank-2");
        assert_eq!(v.rank(), 1, "matvec rhs must be rank-1");
        let (m, k) = (self.dim(0), self.dim(1));
        assert_eq!(k, v.numel(), "matvec inner dims differ");
        let a = self.as_slice();
        let x = v.as_slice();
        let mut out = vec![0.0f32; m];
        for i in 0..m {
            let row = &a[i * k..(i + 1) * k];
            out[i] = row.iter().zip(x).map(|(&r, &xv)| r * xv).sum();
        }
        Tensor::from_vec(out, &[m])
    }

    /// Transpose of a rank-2 tensor.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "transpose requires a matrix");
        let (m, n) = (self.dim(0), self.dim(1));
        let a = self.as_slice();
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = a[i * n + j];
            }
        }
        Tensor::from_vec(out, &[n, m])
    }

    /// Concatenates rank-1 tensors end to end.
    pub fn concat_vecs(parts: &[&Tensor]) -> Tensor {
        let mut data = Vec::with_capacity(parts.iter().map(|t| t.numel()).sum());
        for p in parts {
            assert_eq!(p.rank(), 1, "concat_vecs requires rank-1 inputs");
            data.extend_from_slice(p.as_slice());
        }
        let n = data.len();
        Tensor::from_vec(data, &[n])
    }

    /// Stacks rank-1 tensors of equal length into a `[rows, cols]` matrix.
    pub fn stack_rows(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "stack_rows on empty list");
        let cols = parts[0].numel();
        let mut data = Vec::with_capacity(parts.len() * cols);
        for p in parts {
            assert_eq!(p.rank(), 1, "stack_rows requires rank-1 inputs");
            assert_eq!(p.numel(), cols, "stack_rows length mismatch");
            data.extend_from_slice(p.as_slice());
        }
        Tensor::from_vec(data, &[parts.len(), cols])
    }

    /// Column-wise mean of a rank-2 tensor: `[r,c] -> [c]`. This is the
    /// average pooling of the paper's Eq. 10.
    pub fn mean_rows(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "mean_rows requires a matrix");
        let (r, c) = (self.dim(0), self.dim(1));
        let mut out = vec![0.0f32; c];
        for i in 0..r {
            for (o, &v) in out.iter_mut().zip(self.row(i)) {
                *o += v;
            }
        }
        let inv = 1.0 / r as f32;
        for o in &mut out {
            *o *= inv;
        }
        Tensor::from_vec(out, &[c])
    }

    /// Maximum element; NaN-free inputs assumed. Panics on empty tensors.
    pub fn max(&self) -> f32 {
        self.as_slice()
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element. Panics on empty tensors.
    pub fn min(&self) -> f32 {
        self.as_slice()
            .iter()
            .copied()
            .fold(f32::INFINITY, f32::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_close;

    #[test]
    fn elementwise() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let b = Tensor::from_vec(vec![4.0, 5.0, 6.0], &[3]);
        assert_eq!(a.add(&b).as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).as_slice(), &[4.0, 10.0, 18.0]);
        assert_eq!(b.div(&a).as_slice(), &[4.0, 2.5, 2.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0, 6.0]);
        assert_eq!(a.add_scalar(1.0).as_slice(), &[2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn elementwise_shape_mismatch_panics() {
        let a = Tensor::zeros(&[3]);
        let b = Tensor::zeros(&[4]);
        let _ = a.add(&b);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::from_vec(vec![1.0, 1.0], &[2]);
        let g = Tensor::from_vec(vec![2.0, 4.0], &[2]);
        a.axpy(0.5, &g);
        assert_eq!(a.as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(a.max(), 4.0);
        assert_eq!(a.min(), 1.0);
        assert_close(&[a.norm()], &[30.0f32.sqrt()], 1e-6);
    }

    #[test]
    fn matmul_identity_and_known() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let i = Tensor::eye(3);
        assert_eq!(a.matmul(&i).as_slice(), a.as_slice());

        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let v = Tensor::from_vec(vec![5.0, 6.0], &[2]);
        let mv = a.matvec(&v);
        let mm = a.matmul(&v.reshape(&[2, 1]));
        assert_eq!(mv.as_slice(), mm.as_slice());
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let t = a.transpose();
        assert_eq!(t.dims(), &[3, 2]);
        assert_eq!(t.at(&[2, 1]), a.at(&[1, 2]));
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn concat_and_stack() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![3.0], &[1]);
        let c = Tensor::concat_vecs(&[&a, &b]);
        assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0]);

        let r = Tensor::from_vec(vec![4.0, 5.0], &[2]);
        let m = Tensor::stack_rows(&[&a, &r]);
        assert_eq!(m.dims(), &[2, 2]);
        assert_eq!(m.row(1), &[4.0, 5.0]);
    }

    #[test]
    fn mean_rows_pooling() {
        let m = Tensor::from_vec(vec![1.0, 2.0, 3.0, 5.0], &[2, 2]);
        let p = m.mean_rows();
        assert_eq!(p.as_slice(), &[2.0, 3.5]);
    }

    #[test]
    fn dot_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let b = Tensor::from_vec(vec![4.0, 5.0, 6.0], &[3]);
        assert_eq!(a.dot(&b), 32.0);
    }

    /// Reference textbook ikj triple loop the blocked kernel must match.
    fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.dim(0), a.dim(1));
        let n = b.dim(1);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                for j in 0..n {
                    out[i * n + j] += a.as_slice()[i * k + p] * b.as_slice()[p * n + j];
                }
            }
        }
        Tensor::from_vec(out, &[m, n])
    }

    #[test]
    fn blocked_kernel_bit_matches_naive_across_tile_edges() {
        let mut rng = crate::rng_from_seed(31);
        // Shapes straddling the 64-wide tile boundary, including odd k for
        // the unroll remainder and degenerate 1-wide extents.
        for (m, k, n) in [
            (1, 1, 1),
            (3, 5, 2),
            (64, 64, 64),
            (65, 63, 66),
            (7, 129, 1),
            (1, 2, 130),
        ] {
            let a = Tensor::rand_uniform(&[m, k], -1.0, 1.0, &mut rng);
            let b = Tensor::rand_uniform(&[k, n], -1.0, 1.0, &mut rng);
            let got = a.matmul(&b);
            let want = naive_matmul(&a, &b);
            assert_eq!(got.as_slice(), want.as_slice(), "({m},{k},{n})");
        }
    }

    #[test]
    fn parallel_matmul_bit_matches_serial() {
        let mut rng = crate::rng_from_seed(32);
        // Big enough to clear the fork threshold (2·m·k·n ≥ 2^23).
        let a = Tensor::rand_uniform(&[256, 128], -2.0, 2.0, &mut rng);
        let b = Tensor::rand_uniform(&[128, 256], -2.0, 2.0, &mut rng);
        let serial = a.matmul_with_threads(&b, 1);
        for t in [2, 3, 8] {
            let par = a.matmul_with_threads(&b, t);
            assert_eq!(serial.as_slice(), par.as_slice(), "threads={t}");
        }
    }

    #[test]
    fn matmul_fork_floor() {
        // (m, k, n, threads) -> row spans; 2·m·k·n = 2^23 is the floor.
        for (m, k, n, threads, want) in [
            (64, 64, 64, 8, 1),
            (128, 128, 256, 8, 8),
            (127, 128, 256, 8, 1),
            (3, 4096, 4096, 8, 3),
            (4096, 4096, 4096, 1, 1),
        ] {
            assert_eq!(
                matmul_fanout(m, k, n, threads),
                want,
                "({m},{k},{n}) at threads={threads}"
            );
        }
        let hw = crate::parallel::hardware_parallelism();
        let default = matmul_fanout(4096, 4096, 4096, 0);
        assert!((1..=hw).contains(&default), "{default} spans on {hw} cores");
    }

    #[test]
    fn matmul_no_longer_skips_zero_rows() {
        // A zero row in A must still produce exact zeros (not stale
        // values), which the old zero-skip branch suppressed.
        let a = Tensor::from_vec(vec![0.0, 0.0, 1.0, 2.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 1.0, 2.0, 3.0], &[2, 2]);
        let c = a.matmul(&b);
        assert_eq!(&c.as_slice()[..2], &[0.0, 0.0]);
        assert_eq!(&c.as_slice()[2..], &[9.0, 7.0]);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    #[cfg(debug_assertions)]
    fn matmul_rejects_nonfinite_operands_in_debug() {
        // Non-finite values are caught at the matmul door in debug/test
        // builds (release propagates them numerically: 0 · inf = NaN).
        let a = Tensor::from_vec(vec![0.0, 0.0, 1.0, 2.0], &[2, 2]);
        let b = Tensor::from_vec(vec![f32::INFINITY, 1.0, 2.0, 3.0], &[2, 2]);
        let _ = a.matmul(&b);
    }

    #[test]
    fn activation_apply_and_derivative() {
        assert_eq!(Activation::Identity.apply(-3.0), -3.0);
        assert_eq!(Activation::Relu.apply(-3.0), 0.0);
        assert_eq!(Activation::Relu.apply(2.0), 2.0);
        let s = Activation::Sigmoid.apply(0.0);
        assert!((s - 0.5).abs() < 1e-6);
        assert!((Activation::Sigmoid.derivative_from_output(s) - 0.25).abs() < 1e-6);
        let t = Activation::Tanh.apply(0.5);
        assert!((Activation::Tanh.derivative_from_output(t) - (1.0 - t * t)).abs() < 1e-7);
        assert_eq!(Activation::Relu.derivative_from_output(0.0), 0.0);
        assert_eq!(Activation::Identity.derivative_from_output(7.0), 1.0);
    }

    #[test]
    fn fused_matvec_matches_unfused_chain() {
        let mut rng = crate::rng_from_seed(33);
        let w = Tensor::rand_uniform(&[5, 7], -1.0, 1.0, &mut rng);
        let x = Tensor::rand_uniform(&[7], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[5], -1.0, 1.0, &mut rng);
        for act in [
            Activation::Identity,
            Activation::Relu,
            Activation::Sigmoid,
            Activation::Tanh,
        ] {
            let fused = w.matvec_bias_act(&x, &b, act);
            let chain = w
                .matmul(&x.reshape(&[7, 1]))
                .reshape(&[5])
                .add(&b)
                .map(|v| act.apply(v));
            assert_eq!(fused.as_slice(), chain.as_slice(), "{act:?}");
        }
    }

    #[test]
    fn fused_matmul_bias_act_broadcasts_bias_per_row() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let i = Tensor::eye(2);
        let bias = Tensor::from_vec(vec![10.0, -100.0], &[2]);
        let y = a.matmul_bias_act(&i, &bias, Activation::Relu);
        assert_eq!(y.as_slice(), &[11.0, 0.0, 13.0, 0.0]);
    }
}
