//! Reverse-mode sweep over a recorded [`Graph`] and the gradient container
//! handed to optimizers.

use crate::graph::{blocks, Graph, Op, VarId};
use crate::param::ParamId;
use deepod_tensor::Tensor;
use std::collections::HashMap;

/// Gradient of one parameter, either dense (weight matrices, biases) or as
/// a set of touched rows (embedding matrices reached through `gather`, where
/// materializing a dense gradient would dominate the training cost).
#[derive(Debug, Clone)]
pub enum GradSlot {
    /// Dense gradient tensor with the parameter's shape.
    Dense(Tensor),
    /// Sparse row gradients for a `[rows, cols]` parameter.
    SparseRows {
        rows: usize,
        cols: usize,
        entries: HashMap<usize, Vec<f32>>,
    },
}

impl GradSlot {
    /// Merges another slot for the same parameter into this one.
    fn merge(&mut self, other: GradSlot) {
        match (self, other) {
            (GradSlot::Dense(a), GradSlot::Dense(b)) => a.axpy(1.0, &b),
            (GradSlot::Dense(a), GradSlot::SparseRows { cols, entries, .. }) => {
                for (r, row) in entries {
                    let dst = &mut a.as_mut_slice()[r * cols..(r + 1) * cols];
                    for (d, s) in dst.iter_mut().zip(&row) {
                        *d += s;
                    }
                }
            }
            (this @ GradSlot::SparseRows { .. }, GradSlot::Dense(b)) => {
                let mut dense = this.to_dense_like(&b);
                dense.axpy(1.0, &b);
                *this = GradSlot::Dense(dense);
            }
            (
                GradSlot::SparseRows {
                    entries: a, cols, ..
                },
                GradSlot::SparseRows { entries: b, .. },
            ) => {
                for (r, row) in b {
                    match a.entry(r) {
                        std::collections::hash_map::Entry::Occupied(mut e) => {
                            for (d, s) in e.get_mut().iter_mut().zip(&row) {
                                *d += s;
                            }
                        }
                        std::collections::hash_map::Entry::Vacant(e) => {
                            e.insert(row);
                        }
                    }
                }
                let _ = cols;
            }
        }
    }

    fn to_dense_like(&self, like: &Tensor) -> Tensor {
        match self {
            GradSlot::Dense(t) => t.clone(),
            GradSlot::SparseRows { cols, entries, .. } => {
                let mut out = Tensor::zeros(like.dims());
                for (&r, row) in entries {
                    let dst = &mut out.as_mut_slice()[r * cols..(r + 1) * cols];
                    dst.copy_from_slice(row);
                }
                out
            }
        }
    }

    /// Materializes the gradient as a dense tensor of the given shape.
    pub fn to_dense(&self, dims: &[usize]) -> Tensor {
        match self {
            GradSlot::Dense(t) => {
                assert_eq!(t.dims(), dims, "gradient shape mismatch");
                t.clone()
            }
            GradSlot::SparseRows {
                rows,
                cols,
                entries,
            } => {
                assert_eq!(dims, &[*rows, *cols], "gradient shape mismatch");
                let mut out = Tensor::zeros(dims);
                for (&r, row) in entries {
                    let dst = &mut out.as_mut_slice()[r * cols..(r + 1) * cols];
                    dst.copy_from_slice(row);
                }
                out
            }
        }
    }
}

/// Gradients produced by one backward pass, keyed by parameter.
#[derive(Default, Debug)]
pub struct Gradients {
    slots: HashMap<ParamId, GradSlot>,
}

impl Gradients {
    /// Creates an empty gradient set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulates `slot` into the gradient of `id`.
    pub fn accumulate(&mut self, id: ParamId, slot: GradSlot) {
        match self.slots.entry(id) {
            std::collections::hash_map::Entry::Occupied(mut e) => e.get_mut().merge(slot),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(slot);
            }
        }
    }

    /// Merges another gradient set (e.g. from another minibatch sample).
    pub fn merge(&mut self, other: Gradients) {
        for (id, slot) in other.slots {
            self.accumulate(id, slot);
        }
    }

    /// Scales every gradient by `s` (used to average over a minibatch).
    pub fn scale(&mut self, s: f32) {
        for slot in self.slots.values_mut() {
            match slot {
                GradSlot::Dense(t) => {
                    for v in t.as_mut_slice() {
                        *v *= s;
                    }
                }
                GradSlot::SparseRows { entries, .. } => {
                    for row in entries.values_mut() {
                        for v in row {
                            *v *= s;
                        }
                    }
                }
            }
        }
    }

    /// The gradient slot for a parameter, if any gradient reached it.
    pub fn get(&self, id: ParamId) -> Option<&GradSlot> {
        self.slots.get(&id)
    }

    /// Iterates over `(param, slot)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &GradSlot)> {
        self.slots.iter().map(|(&k, v)| (k, v))
    }

    /// Number of parameters that received gradient.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no gradient was produced.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Global L2 norm across all slots (for gradient clipping).
    pub fn global_norm(&self) -> f32 {
        let mut acc = 0.0f64;
        for slot in self.slots.values() {
            match slot {
                GradSlot::Dense(t) => {
                    acc += t
                        .as_slice()
                        .iter()
                        .map(|&v| (v as f64) * (v as f64))
                        .sum::<f64>()
                }
                GradSlot::SparseRows { entries, .. } => {
                    for row in entries.values() {
                        acc += row.iter().map(|&v| (v as f64) * (v as f64)).sum::<f64>();
                    }
                }
            }
        }
        acc.sqrt() as f32
    }

    /// Rescales all gradients so the global norm is at most `max_norm`.
    pub fn clip_global_norm(&mut self, max_norm: f32) {
        let n = self.global_norm();
        if n > max_norm && n > 0.0 {
            self.scale(max_norm / n);
        }
    }
}

/// Sums per-step gradient parts last step first, the first part taken
/// as-is: the order a tape of one node per step merged them into a
/// parameter (`Gradients::accumulate` inserts the first and adds the
/// rest), including the sign of a zero sum.
pub(crate) fn sum_last_first<'a>(parts: impl DoubleEndedIterator<Item = &'a [f32]>) -> Vec<f32> {
    let mut parts = parts.rev();
    let mut acc = parts.next().map(<[f32]>::to_vec).unwrap_or_default();
    for part in parts {
        for (a, v) in acc.iter_mut().zip(part) {
            *a += v;
        }
    }
    acc
}

/// `Σ_r a_rᵀ b_r` over the rows of `a` (`[rows, m]`) and `b`
/// (`[rows, k]`), summed as [`sum_last_first`] would sum the per-row outer
/// products: the last row's product seeds the output and one
/// `kernels::matmul` adds the others in descending row order.
pub(crate) fn sum_outer_last_first(a: &[f32], b: &[f32], rows: usize) -> Vec<f32> {
    let (m, k) = (a.len() / rows, b.len() / rows);
    let last = rows - 1;
    let mut out = Vec::with_capacity(m * k);
    for &av in &a[last * m..] {
        out.extend(b[last * k..].iter().map(|&bv| av * bv));
    }
    if last > 0 {
        // Column t of `at` and row t of `bt` are row `last − 1 − t`.
        let mut at = vec![0.0f32; m * last];
        for (t, row) in a[..last * m].chunks_exact(m).rev().enumerate() {
            for (i, &v) in row.iter().enumerate() {
                at[i * last + t] = v;
            }
        }
        let bt: Vec<f32> = b[..last * k]
            .chunks_exact(k)
            .rev()
            .flatten()
            .copied()
            .collect();
        deepod_tensor::kernels::matmul(&at, &bt, &mut out, last, k);
    }
    out
}

impl Graph {
    /// Runs reverse-mode differentiation from the scalar node `loss` and
    /// returns the parameter gradients. Panics when `loss` is not a scalar.
    pub fn backward(&self, loss: VarId) -> Gradients {
        assert_eq!(
            self.value(loss).numel(),
            1,
            "backward seed must be scalar, got {}",
            self.value(loss).shape()
        );

        // A node needs a gradient only if a parameter is reachable through
        // it: it is a `Param` leaf or one of its parents needs one. Parents
        // precede children on the tape, so one forward sweep decides it.
        // Gradients flowing anywhere else (inputs, constants) are dropped
        // unread, which cannot change any parameter's gradient.
        let mut needs = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let need = matches!(node.op, Op::Param(_)) || node.parents.iter().any(|p| needs[p.0]);
            needs.push(need);
        }

        let n = self.nodes.len();
        let mut grads: Vec<Option<Tensor>> = vec![None; n];
        grads[loss.0] = Some(Tensor::from_vec(vec![1.0], self.value(loss).dims()));

        let mut out = Gradients::new();

        for i in (0..n).rev() {
            if !needs[i] {
                continue;
            }
            let Some(g) = grads[i].take() else { continue };
            let node = &self.nodes[i];
            let pv = |k: usize| self.value(node.parents[k]);
            let wants = |k: usize| needs[node.parents[k].0];
            let give = |grads: &mut Vec<Option<Tensor>>, k: usize, t: Tensor| {
                let pid = node.parents[k].0;
                if !needs[pid] {
                    return;
                }
                match &mut grads[pid] {
                    Some(existing) => existing.axpy(1.0, &t),
                    slot @ None => *slot = Some(t),
                }
            };

            match &node.op {
                Op::Input => {}
                Op::Param(pid) => {
                    out.accumulate(*pid, GradSlot::Dense(g));
                }
                Op::Add => {
                    give(&mut grads, 0, g.clone());
                    give(&mut grads, 1, g);
                }
                Op::Sub => {
                    give(&mut grads, 0, g.clone());
                    give(&mut grads, 1, g.scale(-1.0));
                }
                Op::Mul => {
                    give(&mut grads, 0, g.mul(pv(1)));
                    give(&mut grads, 1, g.mul(pv(0)));
                }
                Op::Neg => give(&mut grads, 0, g.scale(-1.0)),
                Op::Scale(s) => give(&mut grads, 0, g.scale(*s)),
                Op::MatMul => {
                    // C = A B: dA = dC Bᵀ, dB = Aᵀ dC.
                    if wants(0) {
                        give(&mut grads, 0, g.matmul(&pv(1).transpose()));
                    }
                    if wants(1) {
                        give(&mut grads, 1, pv(0).transpose().matmul(&g));
                    }
                }
                Op::LinearAct(act) => {
                    // y = act(W x + b) per row of x: with dz = g ⊙ act'(y),
                    // dx = dz W (each element ascending over W's rows from
                    // +0), while dW = Σ dzᵀ x and db = Σ dz sum the rows
                    // last first (one row: the outer product and dz).
                    let y = &node.value;
                    let w = pv(0);
                    let x = pv(1);
                    let (m, k) = (w.dim(0), w.dim(1));
                    let rows = x.numel() / k;
                    let dz: Vec<f32> = g
                        .as_slice()
                        .iter()
                        .zip(y.as_slice())
                        .map(|(&gv, &yv)| gv * act.derivative_from_output(yv))
                        .collect();
                    let dw = sum_outer_last_first(&dz, x.as_slice(), rows);
                    give(&mut grads, 0, Tensor::from_vec(dw, &[m, k]));
                    if wants(1) {
                        let mut dx = vec![0.0f32; rows * k];
                        deepod_tensor::kernels::matmul(&dz, w.as_slice(), &mut dx, m, k);
                        give(&mut grads, 1, Tensor::from_vec(dx, x.dims()));
                    }
                    give(
                        &mut grads,
                        2,
                        Tensor::from_vec(sum_last_first(dz.chunks_exact(m)), &[m]),
                    );
                }
                Op::AddBiasRows => {
                    give(&mut grads, 0, g.clone());
                    // Bias gradient: column sums.
                    let cols = g.dim(1);
                    let mut db = vec![0.0f32; cols];
                    for r in 0..g.dim(0) {
                        for (d, &v) in db.iter_mut().zip(g.row(r)) {
                            *d += v;
                        }
                    }
                    give(&mut grads, 1, Tensor::from_vec(db, &[cols]));
                }
                Op::Sigmoid => {
                    let y = &node.value;
                    let dg = g
                        .as_slice()
                        .iter()
                        .zip(y.as_slice())
                        .map(|(&gv, &yv)| gv * yv * (1.0 - yv))
                        .collect();
                    give(&mut grads, 0, Tensor::from_vec(dg, g.dims()));
                }
                Op::Tanh => {
                    let y = &node.value;
                    let dg = g
                        .as_slice()
                        .iter()
                        .zip(y.as_slice())
                        .map(|(&gv, &yv)| gv * (1.0 - yv * yv))
                        .collect();
                    give(&mut grads, 0, Tensor::from_vec(dg, g.dims()));
                }
                Op::Relu => {
                    let x = pv(0);
                    let dg = g
                        .as_slice()
                        .iter()
                        .zip(x.as_slice())
                        .map(|(&gv, &xv)| if xv > 0.0 { gv } else { 0.0 })
                        .collect();
                    give(&mut grads, 0, Tensor::from_vec(dg, g.dims()));
                }
                Op::Abs => {
                    let x = pv(0);
                    let dg = g
                        .as_slice()
                        .iter()
                        .zip(x.as_slice())
                        .map(|(&gv, &xv)| gv * xv.signum())
                        .collect();
                    give(&mut grads, 0, Tensor::from_vec(dg, g.dims()));
                }
                Op::Sqrt => {
                    let y = &node.value;
                    let dg = g
                        .as_slice()
                        .iter()
                        .zip(y.as_slice())
                        .map(|(&gv, &yv)| gv * 0.5 / yv.max(1e-12))
                        .collect();
                    give(&mut grads, 0, Tensor::from_vec(dg, g.dims()));
                }
                Op::Concat(widths) => {
                    let total: usize = widths.iter().sum();
                    let mut off = 0;
                    for (k, &width) in widths.iter().enumerate() {
                        let part = g
                            .as_slice()
                            .chunks_exact(total.max(1))
                            .flat_map(|row| &row[off..off + width])
                            .copied()
                            .collect();
                        give(&mut grads, k, Tensor::from_vec(part, pv(k).dims()));
                        off += width;
                    }
                }
                Op::StackRows => {
                    let cols = g.dim(1);
                    for k in 0..node.parents.len() {
                        give(&mut grads, k, Tensor::from_vec(g.row(k).to_vec(), &[cols]));
                    }
                }
                Op::MeanRows(segs) => {
                    // Every row of segment s gets that segment's output
                    // gradient over its row count.
                    let cols = pv(0).dim(1);
                    let mut dg = Vec::with_capacity(pv(0).numel());
                    for (&rows, gs) in segs.iter().zip(g.as_slice().chunks_exact(cols.max(1))) {
                        let inv = 1.0 / rows as f32;
                        for _ in 0..rows {
                            dg.extend(gs.iter().map(|&gv| gv * inv));
                        }
                    }
                    give(&mut grads, 0, Tensor::from_vec(dg, pv(0).dims()));
                }
                Op::SumAll => {
                    give(&mut grads, 0, Tensor::full(pv(0).dims(), g.item()));
                }
                Op::MeanAll => {
                    let inv = 1.0 / pv(0).numel() as f32;
                    give(&mut grads, 0, Tensor::full(pv(0).dims(), g.item() * inv));
                }
                Op::Reshape(old_dims) => {
                    give(&mut grads, 0, g.reshape(old_dims));
                }
                Op::Gather { indices, segs } => {
                    // If the parent is a parameter leaf, hand the optimizer a
                    // sparse slot directly and skip the dense materialization:
                    // one slot per segment, last segment first, each summing
                    // its own rows from +0.
                    let parent = &self.nodes[node.parents[0].0];
                    let cols = parent.value.dim(1);
                    let rows = parent.value.dim(0);
                    if let Op::Param(pid) = parent.op {
                        let mut end = indices.len();
                        for &n in segs.iter().rev() {
                            let start = end - n;
                            let mut entries: HashMap<usize, Vec<f32>> = HashMap::new();
                            let src_rows =
                                g.as_slice()[start * cols..end * cols].chunks_exact(cols);
                            for (&row_idx, src) in indices[start..end].iter().zip(src_rows) {
                                let e = entries.entry(row_idx).or_insert_with(|| vec![0.0; cols]);
                                for (d, &s) in e.iter_mut().zip(src) {
                                    *d += s;
                                }
                            }
                            out.accumulate(
                                pid,
                                GradSlot::SparseRows {
                                    rows,
                                    cols,
                                    entries,
                                },
                            );
                            end = start;
                        }
                    } else if wants(0) {
                        let mut dg = Tensor::zeros(&[rows, cols]);
                        for (k, &row_idx) in indices.iter().enumerate() {
                            let src = &g.as_slice()[k * cols..(k + 1) * cols];
                            let dst = dg.row_mut(row_idx);
                            for (d, &s) in dst.iter_mut().zip(src) {
                                *d += s;
                            }
                        }
                        give(&mut grads, 0, dg);
                    }
                }
                Op::Conv2d { kh, kw, segs } => {
                    // Each segment's gradients are the unsegmented conv's;
                    // the kernel's sum the segments last first. The first
                    // conv of the external CNN reads the speed matrix, an
                    // input: its input gradient is never read.
                    let go = blocks(&g, segs);
                    if wants(0) {
                        let mut gi = Vec::with_capacity(pv(0).numel());
                        for gs in &go {
                            gi.extend_from_slice(
                                crate::conv::conv2d_grad_input(gs, pv(1)).as_slice(),
                            );
                        }
                        give(&mut grads, 0, Tensor::from_vec(gi, pv(0).dims()));
                    }
                    if wants(1) {
                        let parts: Vec<Tensor> = go
                            .iter()
                            .zip(blocks(pv(0), segs))
                            .map(|(gs, xs)| crate::conv::conv2d_grad_kernel(gs, &xs, *kh, *kw))
                            .collect();
                        let gk = sum_last_first(parts.iter().map(Tensor::as_slice));
                        give(&mut grads, 1, Tensor::from_vec(gk, pv(1).dims()));
                    }
                }
                Op::BatchNorm { segs, mu, var, eps } => {
                    // y = gamma * (x - mu) * inv_std + beta, with mu/var
                    // constant per segment; gamma/beta sum the segments
                    // last first.
                    let x = pv(0);
                    let gamma = pv(1).as_slice();
                    let c = x.dim(0);
                    let mut dx = Vec::with_capacity(x.numel());
                    let mut dgammas = Vec::with_capacity(segs.len());
                    let mut dbetas = Vec::with_capacity(segs.len());
                    let mut start = 0;
                    for (s, &h) in segs.iter().enumerate() {
                        let hw = h * x.dim(2);
                        let mut dgamma = vec![0.0f32; c];
                        let mut dbeta = vec![0.0f32; c];
                        for ch in 0..c {
                            let (mu, inv_std) =
                                (mu[s * c + ch], 1.0 / (var[s * c + ch] + eps).sqrt());
                            let gch = gamma[ch];
                            let plane = start + ch * hw..start + (ch + 1) * hw;
                            for (&gv, &xv) in
                                g.as_slice()[plane.clone()].iter().zip(&x.as_slice()[plane])
                            {
                                let xhat = (xv - mu) * inv_std;
                                dx.push(gv * gch * inv_std);
                                dgamma[ch] += gv * xhat;
                                dbeta[ch] += gv;
                            }
                        }
                        dgammas.push(dgamma);
                        dbetas.push(dbeta);
                        start += c * hw;
                    }
                    give(&mut grads, 0, Tensor::from_vec(dx, x.dims()));
                    give(
                        &mut grads,
                        1,
                        Tensor::from_vec(sum_last_first(dgammas.iter().map(Vec::as_slice)), &[c]),
                    );
                    give(
                        &mut grads,
                        2,
                        Tensor::from_vec(sum_last_first(dbetas.iter().map(Vec::as_slice)), &[c]),
                    );
                }
                Op::Lstm(tape) => {
                    let w = [pv(1), pv(2), pv(3), pv(4)];
                    let lg = crate::lstm::backward(tape, pv(0), w, g.as_slice(), wants(0));
                    if let Some(dx) = lg.dx {
                        give(&mut grads, 0, Tensor::from_vec(dx, pv(0).dims()));
                    }
                    for (gate, (dw, db)) in lg.dw.into_iter().zip(lg.db).enumerate() {
                        give(
                            &mut grads,
                            1 + gate,
                            Tensor::from_vec(dw, pv(1 + gate).dims()),
                        );
                        give(
                            &mut grads,
                            5 + gate,
                            Tensor::from_vec(db, pv(5 + gate).dims()),
                        );
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::ParamStore;

    #[test]
    fn simple_chain_gradient() {
        // loss = mean(|w*x - y|) with w=2, x=[1,2], y=[5,5]
        // pred = [2,4], diff = [-3,-1], grad wrt w = mean(sign(d)*x) = -(1+2)/2.
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::from_vec(vec![2.0], &[1]));
        let mut g = Graph::new();
        let wv = g.param(&store, w);
        let x = g.input(Tensor::from_vec(vec![1.0, 2.0], &[2]));
        let y = g.input(Tensor::from_vec(vec![5.0, 5.0], &[2]));
        let wmat = g.reshape(wv, &[1, 1]);
        let xmat = g.reshape(x, &[2, 1]);
        let pred = g.matmul(xmat, wmat);
        let predv = g.reshape(pred, &[2]);
        let loss = g.mean_abs_error(predv, y);
        let grads = g.backward(loss);
        let gw = grads.get(w).unwrap().to_dense(&[1]);
        deepod_tensor::assert_close(gw.as_slice(), &[-1.5], 1e-5);
    }

    #[test]
    fn gather_produces_sparse_slot() {
        let mut store = ParamStore::new();
        let emb = store.register("emb", Tensor::ones(&[10, 4]));
        let mut g = Graph::new();
        let e = g.param(&store, emb);
        let picked = g.gather(e, &[3, 3, 7]);
        let s = g.sum_all(picked);
        let grads = g.backward(s);
        match grads.get(emb).unwrap() {
            GradSlot::SparseRows {
                entries,
                rows,
                cols,
            } => {
                assert_eq!((*rows, *cols), (10, 4));
                assert_eq!(entries.len(), 2);
                assert_eq!(entries[&3], vec![2.0; 4]); // row 3 gathered twice
                assert_eq!(entries[&7], vec![1.0; 4]);
            }
            other => panic!("expected sparse slot, got {other:?}"),
        }
    }

    #[test]
    fn row_batched_linear_matches_one_node_per_row_bitwise() {
        // Unit 0 is a dead ReLU on every row and the upstream gradient is
        // negative, so its bias gradient is a sum of -0s: -0 when the rows
        // are merged first-as-is (what a node per row does), +0 if a sum
        // were seeded with +0.
        let mut store = ParamStore::new();
        let w = store.register(
            "w",
            Tensor::from_vec(vec![0.5, -0.25, 0.75, 1.5, -0.5, 0.125], &[3, 2]),
        );
        let b = store.register("b", Tensor::from_vec(vec![-100.0, 0.25, -0.5], &[3]));
        let rows = [[0.3f32, -0.7], [1.1, 0.2], [-0.4, 0.9], [0.0, -0.0]];
        let loss_of = |g: &mut Graph, y: VarId| {
            let s = g.sum_all(y);
            g.scale(s, -1.0)
        };

        let mut gb = Graph::new();
        let x = gb.input(Tensor::from_vec(rows.concat(), &[rows.len(), 2]));
        let (wv, bv) = (gb.param(&store, w), gb.param(&store, b));
        let y = gb.linear_act(wv, x, bv, deepod_tensor::Activation::Relu);
        let loss = loss_of(&mut gb, y);
        let batched = gb.backward(loss);

        let mut gr = Graph::new();
        let mut total = None;
        for row in rows {
            let x = gr.input(Tensor::from_vec(row.to_vec(), &[2]));
            let (wv, bv) = (gr.param(&store, w), gr.param(&store, b));
            let y = gr.linear_act(wv, x, bv, deepod_tensor::Activation::Relu);
            let l = loss_of(&mut gr, y);
            total = Some(total.map_or(l, |t| gr.add(t, l)));
        }
        let per_row = gr.backward(total.expect("rows"));

        let bits = |gr: &Gradients, id, dims: &[usize]| -> Vec<u32> {
            let t = gr.get(id).expect("gradient").to_dense(dims);
            t.as_slice().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(&batched, b, &[3]), bits(&per_row, b, &[3]));
        assert_eq!(bits(&batched, w, &[3, 2]), bits(&per_row, w, &[3, 2]));
        assert_eq!(bits(&batched, b, &[3])[0], (-0.0f32).to_bits());
    }

    #[test]
    fn merge_and_scale() {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::zeros(&[2]));
        let mut a = Gradients::new();
        a.accumulate(w, GradSlot::Dense(Tensor::from_vec(vec![1.0, 2.0], &[2])));
        let mut b = Gradients::new();
        b.accumulate(w, GradSlot::Dense(Tensor::from_vec(vec![3.0, 4.0], &[2])));
        a.merge(b);
        a.scale(0.5);
        let d = a.get(w).unwrap().to_dense(&[2]);
        assert_eq!(d.as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn sparse_merges_with_dense() {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::zeros(&[3, 2]));
        let mut a = Gradients::new();
        let mut entries = HashMap::new();
        entries.insert(1usize, vec![1.0, 1.0]);
        a.accumulate(
            w,
            GradSlot::SparseRows {
                rows: 3,
                cols: 2,
                entries,
            },
        );
        let mut b = Gradients::new();
        b.accumulate(w, GradSlot::Dense(Tensor::ones(&[3, 2])));
        a.merge(b);
        let d = a.get(w).unwrap().to_dense(&[3, 2]);
        assert_eq!(d.as_slice(), &[1.0, 1.0, 2.0, 2.0, 1.0, 1.0]);
    }

    #[test]
    fn clip_global_norm_bounds() {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::zeros(&[2]));
        let mut gr = Gradients::new();
        gr.accumulate(w, GradSlot::Dense(Tensor::from_vec(vec![3.0, 4.0], &[2])));
        assert!((gr.global_norm() - 5.0).abs() < 1e-6);
        gr.clip_global_norm(1.0);
        assert!((gr.global_norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "backward seed must be scalar")]
    fn non_scalar_seed_panics() {
        let mut g = Graph::new();
        let a = g.input(Tensor::zeros(&[2]));
        let _ = g.backward(a);
    }
}
