//! The define-by-run computation tape.
//!
//! A [`Graph`] records every operation of one forward pass as a node;
//! [`Graph::backward`](crate::Graph::backward) (implemented in the
//! `backward` module) replays the tape in reverse to produce parameter
//! gradients. Graphs are cheap to build and are thrown away after each
//! minibatch sample.
//!
//! # Segments
//!
//! The trajectory encoder runs one small interval tensor per matched road
//! segment. Rather than one set of nodes per step, the ops it uses carry
//! *segments*: per-step row counts `segs` that tile the value's row axis.
//! A segmented `[c, Σh, w]` value is stored segment-major — segment `s`
//! is one contiguous `[c, h_s, w]` block — and every op computes each
//! block exactly as the unsegmented op would compute it alone. Where a
//! per-step tape summed several steps into one parameter gradient, the
//! segmented backward sums them last step first, the order those
//! gradients reached the parameter (DESIGN.md §12). The single-segment
//! case is the plain op (the external CNN).

use crate::param::{ParamId, ParamStore};
use deepod_tensor::{Activation, Tensor};
use std::borrow::Cow;
use std::sync::Arc;

/// Handle to a node in a [`Graph`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct VarId(pub(crate) usize);

/// Operation tag recorded per node; carries whatever metadata the backward
/// pass needs beyond the parent values.
#[derive(Debug)]
pub(crate) enum Op {
    /// Leaf constant — no gradient flows past it.
    Input,
    /// Leaf bound to a parameter in the store.
    Param(ParamId),
    Add,
    Sub,
    Mul,
    Neg,
    Scale(f32),
    /// Matrix product `[m,k] x [k,n]`.
    MatMul,
    /// Fused fully-connected node `act(W x + b)`, applied to a rank-1 `x`
    /// or to every row of a `[rows, in]` matrix; parents are `(w, x, b)`.
    /// Forward runs the fused tensor kernel; backward recovers the
    /// activation derivative from the stored output.
    LinearAct(Activation),
    /// Adds a `[n]` bias to every row of a `[m,n]` matrix.
    AddBiasRows,
    Sigmoid,
    Tanh,
    Relu,
    Abs,
    Sqrt,
    /// Concatenation along the last axis of rank-1 parents, or row by row
    /// of rank-2 parents with equal row counts; stores each part's width.
    Concat(Vec<usize>),
    /// Stacks rank-1 parents of equal length into a matrix.
    StackRows,
    /// Column mean of each segment's rows (`[Σr,c] -> [S,c]`, the paper's
    /// avg pooling); stores the segments.
    MeanRows(Vec<usize>),
    SumAll,
    MeanAll,
    /// Shape change with identical element count; stores the input dims.
    Reshape(Vec<usize>),
    /// Row gather from a `[n,d]` matrix; stores the looked-up row indices
    /// and the segments that split them into per-step lookups.
    Gather {
        indices: Vec<usize>,
        segs: Vec<usize>,
    },
    /// Same-padded stride-1 conv of each segment; parents are
    /// (input, kernel).
    Conv2d {
        kh: usize,
        kw: usize,
        segs: Vec<usize>,
    },
    /// Channel-wise affine normalization `(x - mu) / sqrt(var + eps)`
    /// followed by `gamma * xhat + beta`; parents are (input, gamma, beta)
    /// and mu/var are captured constants (running statistics — see
    /// DESIGN.md §2.1 for why), one `[c]` pair per segment, flattened.
    BatchNorm {
        segs: Vec<usize>,
        mu: Vec<f32>,
        var: Vec<f32>,
        eps: f32,
    },
    /// The LSTM of Eq. 12–16 over a `[S, d_x]` sequence from zero state;
    /// parents are `(x, w_f, w_i, w_o, w_c, b_f, b_i, b_o, b_c)` and the
    /// output is the final hidden state.
    Lstm(Box<crate::lstm::LstmTape>),
}

pub(crate) struct Node {
    pub value: Arc<Tensor>,
    pub op: Op,
    pub parents: Vec<VarId>,
}

/// A recorded forward computation.
#[derive(Default)]
pub struct Graph {
    pub(crate) nodes: Vec<Node>,
}

impl Graph {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Graph {
            nodes: Vec::with_capacity(256),
        }
    }

    /// Number of recorded nodes (useful in tests and perf diagnostics).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The tensor value of a node.
    pub fn value(&self, id: VarId) -> &Tensor {
        &self.nodes[id.0].value
    }

    fn push(&mut self, value: Tensor, op: Op, parents: Vec<VarId>) -> VarId {
        self.push_rc(Arc::new(value), op, parents)
    }

    fn push_rc(&mut self, value: Arc<Tensor>, op: Op, parents: Vec<VarId>) -> VarId {
        let id = VarId(self.nodes.len());
        self.nodes.push(Node { value, op, parents });
        id
    }

    /// Records a constant leaf.
    pub fn input(&mut self, value: Tensor) -> VarId {
        self.push(value, Op::Input, vec![])
    }

    /// Records a scalar constant leaf.
    pub fn constant(&mut self, v: f32) -> VarId {
        self.input(Tensor::scalar(v))
    }

    /// Records a leaf bound to `store[id]`; gradients reaching it are
    /// accumulated for the optimizer.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> VarId {
        self.push_rc(store.value_rc(id), Op::Param(id), vec![])
    }

    /// Element-wise sum.
    pub fn add(&mut self, a: VarId, b: VarId) -> VarId {
        let v = self.value(a).add(self.value(b));
        self.push(v, Op::Add, vec![a, b])
    }

    /// Element-wise difference.
    pub fn sub(&mut self, a: VarId, b: VarId) -> VarId {
        let v = self.value(a).sub(self.value(b));
        self.push(v, Op::Sub, vec![a, b])
    }

    /// Element-wise product.
    pub fn mul(&mut self, a: VarId, b: VarId) -> VarId {
        let v = self.value(a).mul(self.value(b));
        self.push(v, Op::Mul, vec![a, b])
    }

    /// Element-wise negation.
    pub fn neg(&mut self, a: VarId) -> VarId {
        let v = self.value(a).scale(-1.0);
        self.push(v, Op::Neg, vec![a])
    }

    /// Multiplication by a compile-time scalar.
    pub fn scale(&mut self, a: VarId, s: f32) -> VarId {
        let v = self.value(a).scale(s);
        self.push(v, Op::Scale(s), vec![a])
    }

    /// Matrix product.
    pub fn matmul(&mut self, a: VarId, b: VarId) -> VarId {
        let v = self.value(a).matmul(self.value(b));
        self.push(v, Op::MatMul, vec![a, b])
    }

    /// `W x + b` for a rank-1 `x`: the fully-connected primitive. `w` is
    /// `[out, in]`, `x` is `[in]`, `b` is `[out]`. Recorded as one fused
    /// node (formerly a five-node reshape → matmul → reshape → add chain).
    pub fn linear(&mut self, w: VarId, x: VarId, b: VarId) -> VarId {
        self.linear_act(w, x, b, Activation::Identity)
    }

    /// Fused `act(W x + b)`: one tape node covering the fully-connected
    /// layer *and* its activation. Values and gradients are bit-identical
    /// to the unfused `linear` + activation-node sequence (the kernel
    /// accumulates in the same ascending-`k` order and the activation
    /// derivative is an exact function of the stored output).
    ///
    /// A `[rows, in]` matrix `x` is a row batch: output row `r` is the
    /// rank-1 result for row `r` — one matmul, whose per-element
    /// ascending-`k` sum is the matvec's — and backward sums the rows' `W`
    /// and `b` gradients last row first, as a tape of one node per row
    /// would have.
    pub fn linear_act(&mut self, w: VarId, x: VarId, b: VarId, act: Activation) -> VarId {
        let (wv, xv, bv) = (self.value(w), self.value(x), self.value(b));
        let v = if xv.rank() == 1 {
            wv.matvec_bias_act(xv, bv, act)
        } else {
            xv.matmul_bias_act(&wv.transpose(), bv, act)
        };
        self.push(v, Op::LinearAct(act), vec![w, x, b])
    }

    /// Adds a `[n]` bias vector to every row of a `[m,n]` matrix.
    pub fn add_bias_rows(&mut self, m: VarId, bias: VarId) -> VarId {
        let (rows, cols) = (self.value(m).dim(0), self.value(m).dim(1));
        assert_eq!(self.value(bias).numel(), cols, "bias length mismatch");
        let mut v = self.value(m).clone();
        for r in 0..rows {
            let row = v.row_mut(r);
            for (x, &b) in row.iter_mut().zip(self.value(bias).as_slice()) {
                *x += b;
            }
        }
        self.push(v, Op::AddBiasRows, vec![m, bias])
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: VarId) -> VarId {
        let v = self.value(a).map(|x| 1.0 / (1.0 + (-x).exp()));
        self.push(v, Op::Sigmoid, vec![a])
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: VarId) -> VarId {
        let v = self.value(a).map(f32::tanh);
        self.push(v, Op::Tanh, vec![a])
    }

    /// Rectified linear unit (Eq. 9).
    pub fn relu(&mut self, a: VarId) -> VarId {
        let v = self.value(a).map(|x| x.max(0.0));
        self.push(v, Op::Relu, vec![a])
    }

    /// Element-wise absolute value.
    pub fn abs(&mut self, a: VarId) -> VarId {
        let v = self.value(a).map(f32::abs);
        self.push(v, Op::Abs, vec![a])
    }

    /// Element-wise square root; inputs must be non-negative.
    pub fn sqrt(&mut self, a: VarId) -> VarId {
        let v = self.value(a).map(f32::sqrt);
        self.push(v, Op::Sqrt, vec![a])
    }

    /// Concatenates rank-1 vectors, or `[rows, w_k]` matrices row by row
    /// into `[rows, Σ w_k]` (each output row is the rank-1 concatenation of
    /// the parts' rows).
    pub fn concat(&mut self, parts: &[VarId]) -> VarId {
        let tensors: Vec<&Tensor> = parts.iter().map(|&p| self.value(p)).collect();
        let widths: Vec<usize> = tensors
            .iter()
            .map(|t| *t.dims().last().unwrap_or(&1))
            .collect();
        let v = match tensors.first().map(|t| t.rank()) {
            Some(2) => {
                let (rows, cols) = (tensors[0].dim(0), widths.iter().sum());
                for t in &tensors {
                    assert_eq!(t.rank(), 2, "row concat needs matrices");
                    assert_eq!(t.dim(0), rows, "row concat needs equal row counts");
                }
                let mut data = Vec::with_capacity(rows * cols);
                for r in 0..rows {
                    for t in &tensors {
                        data.extend_from_slice(t.row(r));
                    }
                }
                Tensor::from_vec(data, &[rows, cols])
            }
            _ => Tensor::concat_vecs(&tensors),
        };
        self.push(v, Op::Concat(widths), parts.to_vec())
    }

    /// Stacks equal-length rank-1 vectors into a `[rows, cols]` matrix.
    pub fn stack_rows(&mut self, parts: &[VarId]) -> VarId {
        let tensors: Vec<&Tensor> = parts.iter().map(|&p| self.value(p)).collect();
        let v = Tensor::stack_rows(&tensors);
        self.push(v, Op::StackRows, parts.to_vec())
    }

    /// Column-wise mean of each segment's rows (`[Σr,c] -> [S,c]`): the
    /// avg pooling of Eq. 10, one output row per step.
    pub fn mean_rows(&mut self, a: VarId, segs: &[usize]) -> VarId {
        let x = self.value(a);
        assert_eq!(x.rank(), 2, "mean_rows requires a matrix");
        let c = x.dim(1);
        let mut data = Vec::with_capacity(segs.len() * c);
        for seg in blocks(x, segs) {
            data.extend_from_slice(seg.mean_rows().as_slice());
        }
        let v = Tensor::from_vec(data, &[segs.len(), c]);
        self.push(v, Op::MeanRows(segs.to_vec()), vec![a])
    }

    /// Sum of all elements, producing a scalar node.
    pub fn sum_all(&mut self, a: VarId) -> VarId {
        let v = Tensor::scalar(self.value(a).sum());
        self.push(v, Op::SumAll, vec![a])
    }

    /// Mean of all elements, producing a scalar node.
    pub fn mean_all(&mut self, a: VarId) -> VarId {
        let v = Tensor::scalar(self.value(a).mean());
        self.push(v, Op::MeanAll, vec![a])
    }

    /// Reshape (element count preserved).
    pub fn reshape(&mut self, a: VarId, dims: &[usize]) -> VarId {
        let old = self.value(a).dims().to_vec();
        let v = self.value(a).reshape(dims);
        self.push(v, Op::Reshape(old), vec![a])
    }

    /// Gathers rows `indices` from a `[n,d]` matrix into a `[k,d]` matrix —
    /// the embedding lookup of §4.1/§4.2 (one-hot × W without materializing
    /// the one-hot).
    pub fn gather(&mut self, matrix: VarId, indices: &[usize]) -> VarId {
        let m = self.value(matrix);
        assert_eq!(m.rank(), 2, "gather source must be a matrix");
        let d = m.dim(1);
        let n = m.dim(0);
        let mut data = Vec::with_capacity(indices.len() * d);
        for &i in indices {
            assert!(i < n, "gather index {i} out of range ({n} rows)");
            data.extend_from_slice(m.row(i));
        }
        let v = Tensor::from_vec(data, &[indices.len(), d]);
        let op = Op::Gather {
            indices: indices.to_vec(),
            segs: vec![indices.len()],
        };
        self.push(v, op, vec![matrix])
    }

    /// [`Graph::gather`] of several per-step lookups at once: `segs`
    /// splits `indices` into steps, so a parameter table receives one
    /// sparse gradient per step (last step first), as it would from one
    /// gather node per step.
    pub fn gather_segments(&mut self, matrix: VarId, indices: &[usize], segs: &[usize]) -> VarId {
        assert_eq!(
            segs.iter().sum::<usize>(),
            indices.len(),
            "segments must tile the indices"
        );
        let id = self.gather(matrix, indices);
        if let Op::Gather { segs: s, .. } = &mut self.nodes[id.0].op {
            *s = segs.to_vec();
        }
        id
    }

    /// Gathers a single row as a rank-1 vector.
    pub fn gather_row(&mut self, matrix: VarId, index: usize) -> VarId {
        let g = self.gather(matrix, &[index]);
        let d = self.value(g).dim(1);
        self.reshape(g, &[d])
    }

    /// Same-padded stride-1 2-D convolution; `input` is `[in_c,h,w]`,
    /// `kernel` is `[out_c,in_c,kh,kw]`.
    pub fn conv2d(&mut self, input: VarId, kernel: VarId) -> VarId {
        let h = self.value(input).dim(1);
        self.conv2d_segments(input, kernel, &[h])
    }

    /// [`Graph::conv2d`] of each `[in_c, h_s, w]` block of a segmented
    /// `[in_c, Σh, w]` input: the blocks are padded separately, so no
    /// kernel tap reads across a segment boundary.
    pub fn conv2d_segments(&mut self, input: VarId, kernel: VarId, segs: &[usize]) -> VarId {
        let (x, k) = (self.value(input), self.value(kernel));
        let (kh, kw) = (k.dim(2), k.dim(3));
        let mut data = Vec::with_capacity(k.dim(0) * x.dim(1) * x.dim(2));
        for block in blocks(x, segs) {
            data.extend_from_slice(crate::conv::conv2d_forward(&block, k).as_slice());
        }
        let v = Tensor::from_vec(data, &[k.dim(0), x.dim(1), x.dim(2)]);
        let op = Op::Conv2d {
            kh,
            kw,
            segs: segs.to_vec(),
        };
        self.push(v, op, vec![input, kernel])
    }

    /// Channel-wise batch normalization of a `[c,h,w]` tensor using the
    /// supplied per-channel statistics (running stats in this codebase —
    /// see DESIGN.md), with learnable `gamma`/`beta` of shape `[c]`.
    pub fn batch_norm(
        &mut self,
        input: VarId,
        gamma: VarId,
        beta: VarId,
        mu: &[f32],
        var: &[f32],
        eps: f32,
    ) -> VarId {
        let h = self.value(input).dim(1);
        self.batch_norm_segments(input, gamma, beta, &[h], mu, var, eps)
    }

    /// [`Graph::batch_norm`] of each `[c, h_s, w]` block of a segmented
    /// `[c, Σh, w]` input with its own statistics: `mu`/`var` hold one
    /// `[c]` vector per segment, concatenated.
    #[allow(clippy::too_many_arguments)] // batch_norm's signature plus segments
    pub fn batch_norm_segments(
        &mut self,
        input: VarId,
        gamma: VarId,
        beta: VarId,
        segs: &[usize],
        mu: &[f32],
        var: &[f32],
        eps: f32,
    ) -> VarId {
        let x = self.value(input);
        assert_eq!(x.rank(), 3, "batch_norm input must be [c,h,w]");
        let c = x.dim(0);
        assert_eq!(mu.len(), c * segs.len(), "mu length mismatch");
        assert_eq!(var.len(), c * segs.len(), "var length mismatch");
        assert_eq!(self.value(gamma).numel(), c, "gamma length mismatch");
        assert_eq!(self.value(beta).numel(), c, "beta length mismatch");
        let g = self.value(gamma).as_slice();
        let b = self.value(beta).as_slice();
        let mut out = Vec::with_capacity(x.numel());
        for (s, block) in blocks(x, segs).iter().enumerate() {
            let hw = block.dim(1) * block.dim(2);
            let (mu, var) = (&mu[s * c..(s + 1) * c], &var[s * c..(s + 1) * c]);
            for (ch, plane) in block.as_slice().chunks_exact(hw.max(1)).enumerate() {
                let inv_std = 1.0 / (var[ch] + eps).sqrt();
                out.extend(
                    plane
                        .iter()
                        .map(|&v| g[ch] * ((v - mu[ch]) * inv_std) + b[ch]),
                );
            }
        }
        let v = Tensor::from_vec(out, x.dims());
        let op = Op::BatchNorm {
            segs: segs.to_vec(),
            mu: mu.to_vec(),
            var: var.to_vec(),
            eps,
        };
        self.push(v, op, vec![input, gamma, beta])
    }

    /// The LSTM of Eq. 12–16 run over every row of a `[S, d_x]` sequence
    /// `x` from zero state, as one node whose value is the final hidden
    /// state `h_S` (`[d_h]`). `w` and `b` are the forget, input, output
    /// and candidate gates' `[d_h, d_x + d_h]` weights and `[d_h]` biases.
    /// Values and gradients are bit-identical to one concat, four
    /// `linear_act` and five element-wise nodes per step
    /// (DESIGN.md §12, "Trajectory encoder as step-batched ops").
    pub fn lstm(&mut self, x: VarId, w: [VarId; 4], b: [VarId; 4]) -> VarId {
        let (h, tape) = crate::lstm::forward(
            self.value(x),
            w.map(|id| self.value(id)),
            b.map(|id| self.value(id)),
        );
        let mut parents = vec![x];
        parents.extend(w);
        parents.extend(b);
        self.push(h, Op::Lstm(Box::new(tape)), parents)
    }

    // ----- composite losses -----

    /// Mean absolute error between two same-shape nodes (the paper's main
    /// loss, Alg. 1 line 11).
    pub fn mean_abs_error(&mut self, pred: VarId, target: VarId) -> VarId {
        let d = self.sub(pred, target);
        let a = self.abs(d);
        self.mean_all(a)
    }

    /// Euclidean distance `||a - b||₂` between two same-shape nodes (the
    /// auxiliary loss binding `code` to `stcode`, Alg. 1 line 10).
    pub fn euclidean_distance(&mut self, a: VarId, b: VarId) -> VarId {
        let d = self.sub(a, b);
        let sq = self.mul(d, d);
        let s = self.sum_all(sq);
        // Guard the sqrt against a zero input (derivative would be inf).
        let eps = self.constant(1e-8);
        let s = self.add(s, eps);
        self.sqrt(s)
    }
}

/// The per-segment blocks of a segmented value. The segment axis is the
/// second-to-last (`h` of `[c, h, w]`, the rows of `[r, c]`) and segment
/// `s` is one contiguous block with `segs[s]` along it; one segment
/// borrows the value itself.
pub(crate) fn blocks<'a>(t: &'a Tensor, segs: &[usize]) -> Vec<Cow<'a, Tensor>> {
    let axis = t.rank() - 2;
    let total = t.dim(axis);
    assert_eq!(
        segs.iter().sum::<usize>(),
        total,
        "segments must tile axis {axis}"
    );
    if segs.len() == 1 {
        return vec![Cow::Borrowed(t)];
    }
    let per_row = t.numel() / total.max(1);
    let mut dims = t.dims().to_vec();
    let mut rest = t.as_slice();
    segs.iter()
        .map(|&h| {
            dims[axis] = h;
            let (block, tail) = rest.split_at(h * per_row);
            rest = tail;
            Cow::Owned(Tensor::from_vec(block.to_vec(), &dims))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_values() {
        let mut g = Graph::new();
        let a = g.input(Tensor::from_vec(vec![1.0, -2.0], &[2]));
        let b = g.input(Tensor::from_vec(vec![3.0, 4.0], &[2]));
        let s = g.add(a, b);
        assert_eq!(g.value(s).as_slice(), &[4.0, 2.0]);
        let r = g.relu(a);
        assert_eq!(g.value(r).as_slice(), &[1.0, 0.0]);
        let m = g.mul(a, b);
        assert_eq!(g.value(m).as_slice(), &[3.0, -8.0]);
    }

    #[test]
    fn linear_matches_manual() {
        let mut g = Graph::new();
        let w = g.input(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]));
        let x = g.input(Tensor::from_vec(vec![5.0, 6.0], &[2]));
        let b = g.input(Tensor::from_vec(vec![0.5, -0.5], &[2]));
        let y = g.linear(w, x, b);
        assert_eq!(g.value(y).as_slice(), &[17.5, 38.5]);
    }

    #[test]
    fn gather_rows() {
        let mut g = Graph::new();
        let m = g.input(Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            &[3, 2],
        ));
        let picked = g.gather(m, &[2, 0]);
        assert_eq!(g.value(picked).dims(), &[2, 2]);
        assert_eq!(g.value(picked).as_slice(), &[5.0, 6.0, 1.0, 2.0]);
        let row = g.gather_row(m, 1);
        assert_eq!(g.value(row).as_slice(), &[3.0, 4.0]);
    }

    #[test]
    fn concat_and_stack_shapes() {
        let mut g = Graph::new();
        let a = g.input(Tensor::from_vec(vec![1.0, 2.0], &[2]));
        let b = g.input(Tensor::from_vec(vec![3.0], &[1]));
        let c = g.concat(&[&a, &b].map(|v| *v));
        assert_eq!(g.value(c).as_slice(), &[1.0, 2.0, 3.0]);

        let d = g.input(Tensor::from_vec(vec![4.0, 5.0], &[2]));
        let m = g.stack_rows(&[a, d]);
        assert_eq!(g.value(m).dims(), &[2, 2]);
    }

    #[test]
    fn batch_norm_normalizes() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(vec![2.0, 4.0, 6.0, 8.0], &[1, 2, 2]));
        let gamma = g.input(Tensor::ones(&[1]));
        let beta = g.input(Tensor::zeros(&[1]));
        let y = g.batch_norm(x, gamma, beta, &[5.0], &[5.0], 0.0);
        let inv = 1.0 / 5.0f32.sqrt();
        deepod_tensor::assert_close(
            g.value(y).as_slice(),
            &[-3.0 * inv, -inv, 1.0 * inv, 3.0 * inv],
            1e-5,
        );
    }

    #[test]
    fn losses() {
        let mut g = Graph::new();
        let p = g.input(Tensor::from_vec(vec![1.0, 2.0], &[2]));
        let t = g.input(Tensor::from_vec(vec![2.0, 4.0], &[2]));
        let mae = g.mean_abs_error(p, t);
        assert_eq!(g.value(mae).item(), 1.5);
        let eu = g.euclidean_distance(p, t);
        deepod_tensor::assert_close(&[g.value(eu).item()], &[5.0f32.sqrt()], 1e-3);
    }
}
