//! Reverse-mode sweep over a recorded [`Graph`] and the gradient container
//! handed to optimizers.

use crate::graph::{Graph, Op, VarId};
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
                    // y = act(W x + b): with dz = g ⊙ act'(y),
                    // dW = dz xᵀ (outer product), dx = Wᵀ dz, db = dz.
                    let y = &node.value;
                    let w = pv(0);
                    let x = pv(1);
                    let (m, k) = (w.dim(0), w.dim(1));
                    let dz: Vec<f32> = g
                        .as_slice()
                        .iter()
                        .zip(y.as_slice())
                        .map(|(&gv, &yv)| gv * act.derivative_from_output(yv))
                        .collect();
                    let xs = x.as_slice();
                    let ws = w.as_slice();
                    let mut dw = vec![0.0f32; m * k];
                    let mut dx = vec![0.0f32; k];
                    for (i, &d) in dz.iter().enumerate() {
                        let wrow = &ws[i * k..(i + 1) * k];
                        let drow = &mut dw[i * k..(i + 1) * k];
                        for ((dwv, dxv), (&wv, &xv)) in
                            drow.iter_mut().zip(&mut dx).zip(wrow.iter().zip(xs))
                        {
                            *dwv = d * xv;
                            *dxv += d * wv;
                        }
                    }
                    give(&mut grads, 0, Tensor::from_vec(dw, &[m, k]));
                    give(&mut grads, 1, Tensor::from_vec(dx, x.dims()));
                    give(&mut grads, 2, Tensor::from_vec(dz, &[m]));
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
                Op::ConcatVecs(lens) => {
                    let mut off = 0;
                    for (k, &len) in lens.iter().enumerate() {
                        let part = g.as_slice()[off..off + len].to_vec();
                        give(&mut grads, k, Tensor::from_vec(part, &[len]));
                        off += len;
                    }
                }
                Op::StackRows => {
                    let cols = g.dim(1);
                    for k in 0..node.parents.len() {
                        give(&mut grads, k, Tensor::from_vec(g.row(k).to_vec(), &[cols]));
                    }
                }
                Op::MeanRows => {
                    let rows = pv(0).dim(0);
                    let cols = pv(0).dim(1);
                    let inv = 1.0 / rows as f32;
                    let mut dg = Tensor::zeros(&[rows, cols]);
                    for r in 0..rows {
                        for (d, &gv) in dg.row_mut(r).iter_mut().zip(g.as_slice()) {
                            *d = gv * inv;
                        }
                    }
                    give(&mut grads, 0, dg);
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
                Op::Gather(indices) => {
                    // If the parent is a parameter leaf, hand the optimizer a
                    // sparse slot directly and skip the dense materialization.
                    let parent = &self.nodes[node.parents[0].0];
                    let cols = parent.value.dim(1);
                    let rows = parent.value.dim(0);
                    if let Op::Param(pid) = parent.op {
                        let mut entries: HashMap<usize, Vec<f32>> = HashMap::new();
                        for (k, &row_idx) in indices.iter().enumerate() {
                            let src = &g.as_slice()[k * cols..(k + 1) * cols];
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
                Op::Conv2d { kh, kw } => {
                    // The first conv of the external CNN reads the speed
                    // matrix, an input: its input gradient is never read.
                    if wants(0) {
                        give(&mut grads, 0, crate::conv::conv2d_grad_input(&g, pv(1)));
                    }
                    if wants(1) {
                        let gk = crate::conv::conv2d_grad_kernel(&g, pv(0), *kh, *kw);
                        give(&mut grads, 1, gk);
                    }
                }
                Op::BatchNorm { mu, var, eps } => {
                    // y = gamma * (x - mu) * inv_std + beta, with mu/var constant.
                    let x = pv(0);
                    let gamma = pv(1);
                    let c = x.dim(0);
                    let hw = x.dim(1) * x.dim(2);
                    let mut dx = Tensor::zeros(x.dims());
                    let mut dgamma = vec![0.0f32; c];
                    let mut dbeta = vec![0.0f32; c];
                    for ch in 0..c {
                        let inv_std = 1.0 / (var[ch] + eps).sqrt();
                        let gch = gamma.as_slice()[ch];
                        for k in 0..hw {
                            let idx = ch * hw + k;
                            let gv = g.as_slice()[idx];
                            let xhat = (x.as_slice()[idx] - mu[ch]) * inv_std;
                            dx.as_mut_slice()[idx] = gv * gch * inv_std;
                            dgamma[ch] += gv * xhat;
                            dbeta[ch] += gv;
                        }
                    }
                    give(&mut grads, 0, dx);
                    give(&mut grads, 1, Tensor::from_vec(dgamma, &[c]));
                    give(&mut grads, 2, Tensor::from_vec(dbeta, &[c]));
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
