//! Additional layer tests: shape errors, serialization of layer bundles,
//! optimizer-state independence, and conv/batch-norm edge cases that the
//! DeepOD encoders rely on.

use crate::layers::{BatchNorm2d, Embedding, Linear, LstmCell, Mlp2};
use crate::{AdamOptimizer, Graph, ParamStore};
use deepod_tensor::{rng_from_seed, Tensor};

#[test]
fn linear_rejects_wrong_input_width() {
    let mut rng = rng_from_seed(0);
    let mut store = ParamStore::new();
    let lin = Linear::new(&mut store, "l", 4, 3, &mut rng);
    let mut g = Graph::new();
    let x = g.input(Tensor::ones(&[5])); // wrong width
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        lin.forward(&mut g, &store, x)
    }));
    assert!(result.is_err(), "width mismatch must panic");
}

#[test]
fn layer_handles_survive_store_serde() {
    // Layers are Copy handles into the store: serializing the store and
    // rebuilding layers from their (serialized) handles must reproduce
    // outputs exactly.
    let mut rng = rng_from_seed(1);
    let mut store = ParamStore::new();
    let mlp = Mlp2::new(&mut store, "m", 3, 6, 2, &mut rng);

    let mut g = Graph::new();
    let x = g.input(Tensor::from_vec(vec![0.1, -0.2, 0.3], &[3]));
    let out = mlp.forward(&mut g, &store, x);
    let before = g.value(out).clone();

    let store_json = serde_json::to_string(&store).unwrap();
    let mlp_json = serde_json::to_string(&mlp).unwrap();
    let store2: ParamStore = serde_json::from_str(&store_json).unwrap();
    let mlp2: Mlp2 = serde_json::from_str(&mlp_json).unwrap();

    let mut g2 = Graph::new();
    let x2 = g2.input(Tensor::from_vec(vec![0.1, -0.2, 0.3], &[3]));
    let out2 = mlp2.forward(&mut g2, &store2, x2);
    let after = g2.value(out2).clone();
    assert_eq!(before.as_slice(), after.as_slice());
}

#[test]
fn two_optimizers_do_not_share_state() {
    // Adam state is per-optimizer: two optimizers stepping the same store
    // alternate cleanly (fresh bias-correction each).
    let mut store = ParamStore::new();
    let w = store.register("w", Tensor::zeros(&[1]));
    let mut a = AdamOptimizer::new(0.1);
    let mut b = AdamOptimizer::new(0.1);
    let grad = |v: f32| {
        let mut g = crate::Gradients::new();
        g.accumulate(w, crate::GradSlot::Dense(Tensor::from_vec(vec![v], &[1])));
        g
    };
    a.step(&mut store, &grad(1.0));
    let after_a = store.value(w).as_slice()[0];
    b.step(&mut store, &grad(1.0));
    let after_b = store.value(w).as_slice()[0];
    // Both steps move in the same direction with first-step magnitude ~lr.
    assert!(after_a < 0.0);
    assert!(after_b < after_a);
    assert!((after_a - -0.1).abs() < 1e-4);
    assert!((after_b - -0.2).abs() < 1e-4);
}

#[test]
fn embedding_lookup_out_of_range_panics() {
    let mut rng = rng_from_seed(2);
    let mut store = ParamStore::new();
    let emb = Embedding::new(&mut store, "e", 5, 3, &mut rng);
    let mut g = Graph::new();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        emb.lookup_one(&mut g, &store, 7)
    }));
    assert!(result.is_err());
}

#[test]
fn lstm_zero_length_panics_but_len_one_ok() {
    let mut rng = rng_from_seed(3);
    let mut store = ParamStore::new();
    let cell = LstmCell::new(&mut store, "l", 2, 3, &mut rng);
    let mut g = Graph::new();
    let empty = g.input(Tensor::zeros(&[0, 2]));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        cell.run_sequence(&mut g, &store, empty)
    }));
    assert!(result.is_err());

    let mut g = Graph::new();
    let x = g.input(Tensor::ones(&[1, 2]));
    let h = cell.run_sequence(&mut g, &store, x);
    assert_eq!(g.value(h).numel(), 3);
}

#[test]
fn batchnorm_gamma_beta_affine() {
    // With known running stats, BN output is a pure affine map; check the
    // learned affine applies per channel.
    let mut store = ParamStore::new();
    let mut bn = BatchNorm2d::new(&mut store, "bn", 2);
    bn.running_mean = vec![0.0, 0.0];
    bn.running_var = vec![1.0, 1.0];
    bn.eps = 0.0;
    store.set_value(bn.gamma, Tensor::from_vec(vec![2.0, 3.0], &[2]));
    store.set_value(bn.beta, Tensor::from_vec(vec![1.0, -1.0], &[2]));
    let mut g = Graph::new();
    let x = g.input(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 1, 2]));
    let y = bn.forward(&mut g, &store, x, false);
    deepod_tensor::assert_close(g.value(y).as_slice(), &[3.0, 5.0, 8.0, 11.0], 1e-5);
}

#[test]
fn conv_rectangular_kernels() {
    // (1,3) kernels (horizontal) vs (3,1) (vertical) must differ on an
    // anisotropic input.
    let mut g = Graph::new();
    let x = g.input(Tensor::from_vec(
        (0..12).map(|i| i as f32).collect(),
        &[1, 3, 4],
    ));
    let kv = g.input(Tensor::from_vec(vec![1.0, 1.0, 1.0], &[1, 1, 3, 1]));
    let kh = g.input(Tensor::from_vec(vec![1.0, 1.0, 1.0], &[1, 1, 1, 3]));
    let yv = g.conv2d(x, kv);
    let yh = g.conv2d(x, kh);
    assert_eq!(g.value(yv).dims(), &[1, 3, 4]);
    assert_eq!(g.value(yh).dims(), &[1, 3, 4]);
    assert_ne!(g.value(yv).as_slice(), g.value(yh).as_slice());
    // Center element of vertical sum: x[0,1] rows 0+1+2 at col 1 = 1+5+9.
    assert_eq!(g.value(yv).at(&[0, 1, 1]), 15.0);
    // Horizontal sum at (1,1): 4+5+6.
    assert_eq!(g.value(yh).at(&[0, 1, 1]), 15.0);
}

#[test]
fn gradient_accumulation_across_samples_matches_batch() {
    // Merging per-sample gradients then scaling equals averaging manually.
    let mut rng = rng_from_seed(4);
    let mut store = ParamStore::new();
    let lin = Linear::new(&mut store, "l", 2, 1, &mut rng);
    let xs = [vec![1.0f32, 2.0], vec![-1.0, 0.5]];
    let ys = [3.0f32, -1.0];

    let mut merged = crate::Gradients::new();
    let mut per_sample = Vec::new();
    for (x, &y) in xs.iter().zip(&ys) {
        let mut g = Graph::new();
        let xv = g.input(Tensor::from_vec(x.clone(), &[2]));
        let pred = lin.forward(&mut g, &store, xv);
        let t = g.input(Tensor::from_vec(vec![y], &[1]));
        let loss = g.mean_abs_error(pred, t);
        let grads = g.backward(loss);
        per_sample.push(grads.get(lin.w).unwrap().to_dense(&[1, 2]));
        let mut g2 = Graph::new();
        let xv2 = g2.input(Tensor::from_vec(x.clone(), &[2]));
        let pred2 = lin.forward(&mut g2, &store, xv2);
        let t2 = g2.input(Tensor::from_vec(vec![y], &[1]));
        let loss2 = g2.mean_abs_error(pred2, t2);
        merged.merge(g2.backward(loss2));
    }
    merged.scale(0.5);
    let merged_w = merged.get(lin.w).unwrap().to_dense(&[1, 2]);
    let manual: Vec<f32> = (0..2)
        .map(|i| 0.5 * (per_sample[0].as_slice()[i] + per_sample[1].as_slice()[i]))
        .collect();
    deepod_tensor::assert_close(merged_w.as_slice(), &manual, 1e-6);
}
