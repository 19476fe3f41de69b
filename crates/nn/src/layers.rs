//! Reusable layer blocks mirroring the paper's building bricks: the
//! two-layer MLP used everywhere (Eq. 11, 17, 18, 19, 20), the LSTM unit
//! (Eq. 12–16), embeddings (Eq. 1 and §4.2), and batch normalization with
//! running statistics.
//!
//! A "layer" here is a set of [`ParamId`]s plus a `forward` method that
//! records ops on a [`Graph`]; layers own no tensors themselves, so a model
//! is fully described by its `ParamStore` and can be serialized as one.

use crate::graph::{Graph, VarId};
use crate::param::{ParamId, ParamStore};
use deepod_tensor::{Activation, Tensor};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// A single fully-connected layer `y = W x + b`.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Linear {
    /// Weight `[out, in]`.
    pub w: ParamId,
    /// Bias `[out]`.
    pub b: ParamId,
    /// Output width.
    pub out_dim: usize,
    /// Input width.
    pub in_dim: usize,
}

impl Linear {
    /// Registers a Xavier-initialized linear layer.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut StdRng,
    ) -> Self {
        let w = store.register(
            &format!("{name}.w"),
            Tensor::xavier_uniform(out_dim, in_dim, rng),
        );
        let b = store.register(&format!("{name}.b"), Tensor::zeros(&[out_dim]));
        Linear {
            w,
            b,
            out_dim,
            in_dim,
        }
    }

    /// Applies the layer to a rank-1 input.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, x: VarId) -> VarId {
        let w = g.param(store, self.w);
        let b = g.param(store, self.b);
        g.linear(w, x, b)
    }
}

/// The paper's recurring "two-layer Multilayer Perceptron":
/// `y = W2 · ReLU(W1 x + b1) + b2`.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Mlp2 {
    /// First (hidden) layer.
    pub l1: Linear,
    /// Second (output) layer.
    pub l2: Linear,
}

impl Mlp2 {
    /// Registers a two-layer MLP `in_dim → hidden → out_dim`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        hidden: usize,
        out_dim: usize,
        rng: &mut StdRng,
    ) -> Self {
        Mlp2 {
            l1: Linear::new(store, &format!("{name}.l1"), in_dim, hidden, rng),
            l2: Linear::new(store, &format!("{name}.l2"), hidden, out_dim, rng),
        }
    }

    /// Applies the MLP to a rank-1 input. The hidden layer records a single
    /// fused linear+ReLU node.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, x: VarId) -> VarId {
        let w1 = g.param(store, self.l1.w);
        let b1 = g.param(store, self.l1.b);
        let h = g.linear_act(w1, x, b1, Activation::Relu);
        self.l2.forward(g, store, h)
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.l2.out_dim
    }
}

/// LSTM cell with the paper's formulation (Eq. 12–16): four gates over the
/// concatenation `[x_j, h_{j-1}]`.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct LstmCell {
    /// Forget gate weight `[d_h, d_x + d_h]` and bias.
    pub wf: ParamId,
    /// Input gate.
    pub wi: ParamId,
    /// Output gate.
    pub wo: ParamId,
    /// Candidate cell.
    pub wc: ParamId,
    /// Gate biases, each `[d_h]`.
    pub bf: ParamId,
    /// Input-gate bias.
    pub bi: ParamId,
    /// Output-gate bias.
    pub bo: ParamId,
    /// Candidate bias.
    pub bc: ParamId,
    /// Input width `d_x`.
    pub input_dim: usize,
    /// Hidden width `d_h`.
    pub hidden_dim: usize,
}

impl LstmCell {
    /// Registers an LSTM cell. The forget-gate bias starts at 1.0 (standard
    /// practice so early training does not erase the cell state).
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        input_dim: usize,
        hidden_dim: usize,
        rng: &mut StdRng,
    ) -> Self {
        let cat = input_dim + hidden_dim;
        let mk_w = |store: &mut ParamStore, tag: &str, rng: &mut StdRng| {
            store.register(
                &format!("{name}.{tag}"),
                Tensor::xavier_uniform(hidden_dim, cat, rng),
            )
        };
        let wf = mk_w(store, "wf", rng);
        let wi = mk_w(store, "wi", rng);
        let wo = mk_w(store, "wo", rng);
        let wc = mk_w(store, "wc", rng);
        let bf = store.register(&format!("{name}.bf"), Tensor::ones(&[hidden_dim]));
        let bi = store.register(&format!("{name}.bi"), Tensor::zeros(&[hidden_dim]));
        let bo = store.register(&format!("{name}.bo"), Tensor::zeros(&[hidden_dim]));
        let bc = store.register(&format!("{name}.bc"), Tensor::zeros(&[hidden_dim]));
        LstmCell {
            wf,
            wi,
            wo,
            wc,
            bf,
            bi,
            bo,
            bc,
            input_dim,
            hidden_dim,
        }
    }

    /// Runs the cell over the rows of a `[S, d_x]` sequence, starting from
    /// zero state, and returns the final hidden vector `h_n`: one
    /// [`Graph::lstm`] node.
    pub fn run_sequence(&self, g: &mut Graph, store: &ParamStore, x: VarId) -> VarId {
        let w = [self.wf, self.wi, self.wo, self.wc].map(|id| g.param(store, id));
        let b = [self.bf, self.bi, self.bo, self.bc].map(|id| g.param(store, id));
        g.lstm(x, w, b)
    }
}

/// An embedding table: a `[vocab, dim]` matrix looked up by row index
/// (Eq. 1 / §4.2's W_s and W_t without materializing one-hot codes).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Embedding {
    /// The embedding matrix parameter.
    pub table: ParamId,
    /// Number of rows.
    pub vocab: usize,
    /// Embedding width.
    pub dim: usize,
}

impl Embedding {
    /// Registers an embedding table with small uniform initialization.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        vocab: usize,
        dim: usize,
        rng: &mut StdRng,
    ) -> Self {
        let bound = (3.0 / dim as f32).sqrt();
        let t = Tensor::rand_uniform(&[vocab, dim], -bound, bound, rng);
        Embedding {
            table: store.register(name, t),
            vocab,
            dim,
        }
    }

    /// Replaces the table with pre-trained vectors (graph-embedding init,
    /// §4.1/§4.2). Panics on shape mismatch.
    pub fn load_pretrained(&self, store: &mut ParamStore, vectors: Tensor) {
        store.set_value(self.table, vectors);
    }

    /// Looks up one row as a rank-1 vector.
    pub fn lookup_one(&self, g: &mut Graph, store: &ParamStore, index: usize) -> VarId {
        let t = g.param(store, self.table);
        g.gather_row(t, index)
    }

    /// Looks up several rows as a `[k, dim]` matrix, `segs` splitting them
    /// into per-step lookups ([`Graph::gather_segments`]).
    pub fn lookup_many(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        indices: &[usize],
        segs: &[usize],
    ) -> VarId {
        let t = g.param(store, self.table);
        g.gather_segments(t, indices, segs)
    }
}

/// Batch normalization over the channel axis of `[c,h,w]` tensors.
///
/// Normalization always uses the running statistics (see DESIGN.md §2.1:
/// DeepOD's interval tensors are processed per-sample, so per-batch moments
/// over a Δd=1 tensor would be degenerate); in training mode the running
/// stats are EMA-updated from the observed activations before use.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BatchNorm2d {
    /// Learnable scale `[c]`.
    pub gamma: ParamId,
    /// Learnable shift `[c]`.
    pub beta: ParamId,
    /// Running mean per channel (not a graph parameter).
    pub running_mean: Vec<f32>,
    /// Running variance per channel.
    pub running_var: Vec<f32>,
    /// EMA momentum for the running stats.
    pub momentum: f32,
    /// Numerical floor inside the square root.
    pub eps: f32,
    /// Channel count.
    pub channels: usize,
}

impl BatchNorm2d {
    /// Registers a batch-norm layer for `channels` channels.
    pub fn new(store: &mut ParamStore, name: &str, channels: usize) -> Self {
        let gamma = store.register(&format!("{name}.gamma"), Tensor::ones(&[channels]));
        let beta = store.register(&format!("{name}.beta"), Tensor::zeros(&[channels]));
        BatchNorm2d {
            gamma,
            beta,
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            momentum: 0.1,
            eps: 1e-5,
            channels,
        }
    }

    /// Applies batch normalization. When `training` is true the running
    /// statistics are first updated from the input's per-channel moments.
    pub fn forward(
        &mut self,
        g: &mut Graph,
        store: &ParamStore,
        x: VarId,
        training: bool,
    ) -> VarId {
        let h = g.value(x).dim(1);
        self.forward_segments(g, store, x, &[h], training)
    }

    /// [`Self::forward`] of each `[c, h_s, w]` block of a segmented input
    /// ([`Graph::batch_norm_segments`]), strictly in segment order: in
    /// training mode segment `s` first moves the running statistics, then
    /// is normalized with them, exactly as `s` separate calls would.
    pub fn forward_segments(
        &mut self,
        g: &mut Graph,
        store: &ParamStore,
        x: VarId,
        segs: &[usize],
        training: bool,
    ) -> VarId {
        let xv = g.value(x);
        assert_eq!(xv.dim(0), self.channels, "channel mismatch");
        let mut mu = Vec::with_capacity(segs.len() * self.channels);
        let mut var = Vec::with_capacity(segs.len() * self.channels);
        let mut rest = xv.as_slice();
        for &h in segs {
            let hw = h * xv.dim(2);
            let (block, tail) = rest.split_at(self.channels * hw);
            rest = tail;
            if training {
                for c in 0..self.channels {
                    let s = &block[c * hw..(c + 1) * hw];
                    let mean = s.iter().sum::<f32>() / hw as f32;
                    let var = s.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / hw as f32;
                    self.running_mean[c] =
                        (1.0 - self.momentum) * self.running_mean[c] + self.momentum * mean;
                    self.running_var[c] =
                        (1.0 - self.momentum) * self.running_var[c] + self.momentum * var;
                }
            }
            mu.extend_from_slice(&self.running_mean);
            var.extend_from_slice(&self.running_var);
        }
        let gamma = g.param(store, self.gamma);
        let beta = g.param(store, self.beta);
        g.batch_norm_segments(x, gamma, beta, segs, &mu, &var, self.eps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AdamOptimizer;
    use deepod_tensor::rng_from_seed;

    #[test]
    fn mlp2_shapes_and_forward() {
        let mut rng = rng_from_seed(0);
        let mut store = ParamStore::new();
        let mlp = Mlp2::new(&mut store, "m", 4, 8, 3, &mut rng);
        let mut g = Graph::new();
        let x = g.input(Tensor::ones(&[4]));
        let y = mlp.forward(&mut g, &store, x);
        assert_eq!(g.value(y).dims(), &[3]);
        assert_eq!(mlp.out_dim(), 3);
    }

    #[test]
    fn lstm_final_state_shape_and_determinism() {
        let mut rng = rng_from_seed(1);
        let mut store = ParamStore::new();
        let cell = LstmCell::new(&mut store, "lstm", 3, 5, &mut rng);
        let seq = || {
            let rows: Vec<f32> = (0..4).flat_map(|i| [i as f32 * 0.1; 3]).collect();
            Tensor::from_vec(rows, &[4, 3])
        };
        let mut g = Graph::new();
        let xs = g.input(seq());
        let h = cell.run_sequence(&mut g, &store, xs);
        assert_eq!(g.value(h).dims(), &[5]);

        // Same inputs → same output (pure function of params).
        let mut g2 = Graph::new();
        let xs2 = g2.input(seq());
        let h2 = cell.run_sequence(&mut g2, &store, xs2);
        assert_eq!(g.value(h).as_slice(), g2.value(h2).as_slice());
    }

    #[test]
    fn lstm_gates_bounded() {
        // Hidden state of an LSTM is o ⊙ tanh(c): bounded to [-1, 1] even
        // under saturating inputs (f32 rounding can hit the bound exactly).
        let mut rng = rng_from_seed(2);
        let mut store = ParamStore::new();
        let cell = LstmCell::new(&mut store, "lstm", 2, 4, &mut rng);
        let mut g = Graph::new();
        let xs = g.input(Tensor::full(&[10, 2], 100.0));
        let h = cell.run_sequence(&mut g, &store, xs);
        assert!(g.value(h).as_slice().iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn embedding_lookup_and_pretrained() {
        let mut rng = rng_from_seed(3);
        let mut store = ParamStore::new();
        let emb = Embedding::new(&mut store, "emb", 6, 2, &mut rng);
        let pre = Tensor::from_vec((0..12).map(|i| i as f32).collect(), &[6, 2]);
        emb.load_pretrained(&mut store, pre);
        let mut g = Graph::new();
        let v = emb.lookup_one(&mut g, &store, 2);
        assert_eq!(g.value(v).as_slice(), &[4.0, 5.0]);
        let m = emb.lookup_many(&mut g, &store, &[0, 5], &[2]);
        assert_eq!(g.value(m).as_slice(), &[0.0, 1.0, 10.0, 11.0]);
    }

    #[test]
    fn batchnorm_running_stats_move_toward_input() {
        let mut rng = rng_from_seed(4);
        let mut store = ParamStore::new();
        let mut bn = BatchNorm2d::new(&mut store, "bn", 1);
        let _ = &mut rng;
        for _ in 0..50 {
            let mut g = Graph::new();
            let x = g.input(Tensor::full(&[1, 2, 2], 10.0));
            let _ = bn.forward(&mut g, &store, x, true);
        }
        assert!(
            (bn.running_mean[0] - 10.0).abs() < 0.2,
            "mean {}",
            bn.running_mean[0]
        );
        assert!(bn.running_var[0] < 0.2, "var {}", bn.running_var[0]);
    }

    #[test]
    fn batchnorm_eval_mode_does_not_update() {
        let mut store = ParamStore::new();
        let mut bn = BatchNorm2d::new(&mut store, "bn", 1);
        let before = bn.running_mean.clone();
        let mut g = Graph::new();
        let x = g.input(Tensor::full(&[1, 1, 3], 42.0));
        let _ = bn.forward(&mut g, &store, x, false);
        assert_eq!(bn.running_mean, before);
    }

    #[test]
    fn lstm_learns_sequence_sum_sign() {
        // Tiny end-to-end check: classify whether the sum of a ±1 sequence
        // is positive, trained through the full tape.
        let mut rng = rng_from_seed(5);
        let mut store = ParamStore::new();
        let cell = LstmCell::new(&mut store, "lstm", 1, 6, &mut rng);
        let head = Linear::new(&mut store, "head", 6, 1, &mut rng);
        let mut opt = AdamOptimizer::new(0.02);

        let seqs: Vec<Vec<f32>> = vec![
            vec![1.0, 1.0, 1.0],
            vec![-1.0, -1.0, -1.0],
            vec![1.0, 1.0, -1.0],
            vec![-1.0, -1.0, 1.0],
            vec![1.0, -1.0, 1.0],
            vec![-1.0, 1.0, -1.0],
        ];
        let labels: Vec<f32> = seqs
            .iter()
            .map(|s| {
                if s.iter().sum::<f32>() > 0.0 {
                    1.0
                } else {
                    0.0
                }
            })
            .collect();

        for _ in 0..150 {
            for (s, &y) in seqs.iter().zip(&labels) {
                let mut g = Graph::new();
                let xs = g.input(Tensor::from_vec(s.clone(), &[s.len(), 1]));
                let h = cell.run_sequence(&mut g, &store, xs);
                let logit = head.forward(&mut g, &store, h);
                let p = g.sigmoid(logit);
                let t = g.input(Tensor::from_vec(vec![y], &[1]));
                let loss = g.mean_abs_error(p, t);
                let grads = g.backward(loss);
                opt.step(&mut store, &grads);
            }
        }

        let mut correct = 0;
        for (s, &y) in seqs.iter().zip(&labels) {
            let mut g = Graph::new();
            let xs = g.input(Tensor::from_vec(s.clone(), &[s.len(), 1]));
            let h = cell.run_sequence(&mut g, &store, xs);
            let logit = head.forward(&mut g, &store, h);
            let p = g.sigmoid(logit);
            if (g.value(p).item() > 0.5) == (y > 0.5) {
                correct += 1;
            }
        }
        assert!(correct >= 5, "only {correct}/6 correct");
    }
}
