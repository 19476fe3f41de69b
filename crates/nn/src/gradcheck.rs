//! Finite-difference verification of every backward rule.
//!
//! For each op we build a small graph `loss = f(params)`, compute analytic
//! gradients via the tape, and compare against central differences of the
//! re-executed forward pass.

use crate::graph::{Graph, VarId};
use crate::param::{ParamId, ParamStore};
use deepod_tensor::{rng_from_seed, Tensor};

/// Checks `d loss / d param` for every parameter against central finite
/// differences. `build` must construct the same graph for a given store.
fn check(store: &mut ParamStore, build: impl Fn(&mut Graph, &ParamStore) -> VarId, tol: f32) {
    let mut g = Graph::new();
    let loss = build(&mut g, store);
    let grads = g.backward(loss);
    drop(g);

    let eps = 1e-2f32;
    let ids: Vec<ParamId> = store.ids().collect();
    for pid in ids {
        let dims = store.value(pid).dims().to_vec();
        let analytic = match grads.get(pid) {
            Some(slot) => slot.to_dense(&dims),
            None => Tensor::zeros(&dims),
        };
        for i in 0..store.value(pid).numel() {
            let orig = store.value(pid).as_slice()[i];

            store.value_mut(pid).as_mut_slice()[i] = orig + eps;
            let mut gp = Graph::new();
            let lp = build(&mut gp, store);
            let fp = gp.value(lp).item();
            drop(gp);

            store.value_mut(pid).as_mut_slice()[i] = orig - eps;
            let mut gm = Graph::new();
            let lm = build(&mut gm, store);
            let fm = gm.value(lm).item();
            drop(gm);

            store.value_mut(pid).as_mut_slice()[i] = orig;

            let fd = (fp - fm) / (2.0 * eps);
            let an = analytic.as_slice()[i];
            let scale = 1.0f32.max(fd.abs()).max(an.abs());
            assert!(
                (fd - an).abs() <= tol * scale,
                "param {} elem {i}: finite-diff {fd} vs analytic {an}",
                store.name(pid)
            );
        }
    }
}

fn rand_param(store: &mut ParamStore, name: &str, dims: &[usize], seed: u64) -> ParamId {
    let mut rng = rng_from_seed(seed);
    // Keep values away from ReLU/abs kinks.
    let t = Tensor::rand_uniform(dims, 0.2, 1.0, &mut rng);
    store.register(name, t)
}

fn rand_param_signed(store: &mut ParamStore, name: &str, dims: &[usize], seed: u64) -> ParamId {
    let mut rng = rng_from_seed(seed);
    let t = Tensor::rand_uniform(dims, -1.0, 1.0, &mut rng);
    store.register(name, t)
}

#[test]
fn grad_matmul_chain() {
    let mut store = ParamStore::new();
    let a = rand_param_signed(&mut store, "a", &[3, 4], 1);
    let b = rand_param_signed(&mut store, "b", &[4, 2], 2);
    check(
        &mut store,
        |g, s| {
            let av = g.param(s, a);
            let bv = g.param(s, b);
            let c = g.matmul(av, bv);
            let t = g.tanh(c);
            g.sum_all(t)
        },
        2e-2,
    );
}

#[test]
fn grad_elementwise_ops() {
    let mut store = ParamStore::new();
    let a = rand_param(&mut store, "a", &[5], 3);
    let b = rand_param(&mut store, "b", &[5], 4);
    check(
        &mut store,
        |g, s| {
            let av = g.param(s, a);
            let bv = g.param(s, b);
            let m = g.mul(av, bv);
            let d = g.sub(m, av);
            let sm = g.sigmoid(d);
            let sc = g.scale(sm, 1.5);
            g.mean_all(sc)
        },
        2e-2,
    );
}

#[test]
fn grad_sqrt_abs() {
    let mut store = ParamStore::new();
    let a = rand_param(&mut store, "a", &[4], 5);
    check(
        &mut store,
        |g, s| {
            let av = g.param(s, a);
            let sq = g.mul(av, av);
            let r = g.sqrt(sq);
            let ab = g.abs(r);
            g.sum_all(ab)
        },
        2e-2,
    );
}

#[test]
fn grad_linear_relu_mlp() {
    let mut store = ParamStore::new();
    let w1 = rand_param_signed(&mut store, "w1", &[4, 3], 6);
    let b1 = rand_param(&mut store, "b1", &[4], 7);
    let w2 = rand_param_signed(&mut store, "w2", &[1, 4], 8);
    let b2 = rand_param(&mut store, "b2", &[1], 9);
    check(
        &mut store,
        |g, s| {
            let x = g.input(Tensor::from_vec(vec![0.3, -0.4, 0.9], &[3]));
            let w1v = g.param(s, w1);
            let b1v = g.param(s, b1);
            let h = g.linear(w1v, x, b1v);
            let h = g.relu(h);
            let w2v = g.param(s, w2);
            let b2v = g.param(s, b2);
            let y = g.linear(w2v, h, b2v);
            g.sum_all(y)
        },
        2e-2,
    );
}

#[test]
fn grad_fused_linear_act_all_activations() {
    use deepod_tensor::Activation;
    for (k, act) in [
        Activation::Identity,
        Activation::Relu,
        Activation::Sigmoid,
        Activation::Tanh,
    ]
    .into_iter()
    .enumerate()
    {
        let mut store = ParamStore::new();
        let w = rand_param_signed(&mut store, "w", &[4, 3], 40 + k as u64);
        let b = rand_param(&mut store, "b", &[4], 50 + k as u64);
        check(
            &mut store,
            |g, s| {
                let x = g.input(Tensor::from_vec(vec![0.7, -0.2, 0.4], &[3]));
                let wv = g.param(s, w);
                let bv = g.param(s, b);
                let y = g.linear_act(wv, x, bv, act);
                g.sum_all(y)
            },
            2e-2,
        );
    }
}

#[test]
fn fused_linear_act_bit_matches_unfused_chain() {
    // The fused node must reproduce the former reshape→matmul→reshape→add
    // (+activation) chain exactly — values AND gradients — so fusing the
    // layers cannot perturb trained models.
    use deepod_tensor::Activation;
    type ActBuilder = fn(&mut Graph, VarId) -> VarId;
    let acts: [(Activation, ActBuilder); 3] = [
        (Activation::Relu, |g, v| g.relu(v)),
        (Activation::Sigmoid, |g, v| g.sigmoid(v)),
        (Activation::Tanh, |g, v| g.tanh(v)),
    ];
    for (i, (act, unfused_act)) in acts.into_iter().enumerate() {
        let mut store = ParamStore::new();
        let w = rand_param_signed(&mut store, "w", &[5, 4], 60 + i as u64);
        let b = rand_param_signed(&mut store, "b", &[5], 70 + i as u64);
        let xt = Tensor::from_vec(vec![0.3, -0.8, 0.1, 0.9], &[4]);

        let mut gf = Graph::new();
        let x = gf.input(xt.clone());
        let wv = gf.param(&store, w);
        let bv = gf.param(&store, b);
        let yf = gf.linear_act(wv, x, bv, act);
        let lf = gf.sum_all(yf);
        let gradf = gf.backward(lf);

        let mut gu = Graph::new();
        let x = gu.input(xt);
        let wv = gu.param(&store, w);
        let bv = gu.param(&store, b);
        let xm = gu.reshape(x, &[4, 1]);
        let wx = gu.matmul(wv, xm);
        let wxv = gu.reshape(wx, &[5]);
        let lin = gu.add(wxv, bv);
        let yu = unfused_act(&mut gu, lin);
        let lu = gu.sum_all(yu);
        let gradu = gu.backward(lu);

        assert_eq!(
            gf.value(yf).as_slice(),
            gu.value(yu).as_slice(),
            "{act:?} values"
        );
        for pid in [w, b] {
            let dims = store.value(pid).dims().to_vec();
            assert_eq!(
                gradf.get(pid).unwrap().to_dense(&dims).as_slice(),
                gradu.get(pid).unwrap().to_dense(&dims).as_slice(),
                "{act:?} grad of {}",
                store.name(pid)
            );
        }
    }
}

#[test]
fn grad_concat_stack_meanrows() {
    let mut store = ParamStore::new();
    let a = rand_param_signed(&mut store, "a", &[3], 10);
    let b = rand_param_signed(&mut store, "b", &[3], 11);
    check(
        &mut store,
        |g, s| {
            let av = g.param(s, a);
            let bv = g.param(s, b);
            let m = g.stack_rows(&[av, bv]);
            let pooled = g.mean_rows(m, &[2]);
            let pooled = g.reshape(pooled, &[3]);
            let c = g.concat(&[pooled, av]);
            let t = g.tanh(c);
            g.sum_all(t)
        },
        2e-2,
    );
}

#[test]
fn grad_gather() {
    let mut store = ParamStore::new();
    let table = rand_param_signed(&mut store, "emb", &[6, 3], 12);
    check(
        &mut store,
        |g, s| {
            let t = g.param(s, table);
            let picked = g.gather(t, &[1, 4, 1]);
            let sq = g.mul(picked, picked);
            g.sum_all(sq)
        },
        2e-2,
    );
}

#[test]
fn grad_conv2d() {
    let mut store = ParamStore::new();
    let x = rand_param_signed(&mut store, "x", &[2, 4, 3], 13);
    let k = rand_param_signed(&mut store, "k", &[3, 2, 3, 1], 14);
    check(
        &mut store,
        |g, s| {
            let xv = g.param(s, x);
            let kv = g.param(s, k);
            let y = g.conv2d(xv, kv);
            let t = g.tanh(y);
            g.sum_all(t)
        },
        2e-2,
    );
}

#[test]
fn grad_conv2d_multichannel_3x3() {
    let mut store = ParamStore::new();
    let x = rand_param_signed(&mut store, "x", &[3, 5, 4], 23);
    let k = rand_param_signed(&mut store, "k", &[4, 3, 3, 3], 24);
    check(
        &mut store,
        |g, s| {
            let xv = g.param(s, x);
            let kv = g.param(s, k);
            let y = g.conv2d(xv, kv);
            let t = g.tanh(y);
            g.sum_all(t)
        },
        2e-2,
    );
}

#[test]
fn grad_conv2d_over_an_input_leaf() {
    // The external CNN's first conv reads the speed matrix, a constant:
    // backward skips its input gradient but must still get the kernel's
    // right, including through a second conv stacked on top.
    let mut store = ParamStore::new();
    let k1 = rand_param_signed(&mut store, "k1", &[2, 1, 3, 3], 25);
    let k2 = rand_param_signed(&mut store, "k2", &[3, 2, 3, 3], 26);
    let speed = {
        let mut rng = rng_from_seed(27);
        Tensor::rand_uniform(&[1, 4, 5], -1.0, 1.0, &mut rng)
    };
    check(
        &mut store,
        |g, s| {
            let xv = g.input(speed.clone());
            let k1v = g.param(s, k1);
            let z = g.conv2d(xv, k1v);
            let z = g.tanh(z);
            let k2v = g.param(s, k2);
            let z = g.conv2d(z, k2v);
            let t = g.tanh(z);
            g.sum_all(t)
        },
        2e-2,
    );
}

#[test]
fn grad_batchnorm() {
    let mut store = ParamStore::new();
    let x = rand_param_signed(&mut store, "x", &[2, 3, 2], 15);
    let gamma = rand_param(&mut store, "gamma", &[2], 16);
    let beta = rand_param_signed(&mut store, "beta", &[2], 17);
    check(
        &mut store,
        |g, s| {
            let xv = g.param(s, x);
            let gv = g.param(s, gamma);
            let bv = g.param(s, beta);
            let y = g.batch_norm(xv, gv, bv, &[0.1, -0.2], &[1.5, 0.8], 1e-5);
            let t = g.tanh(y);
            g.sum_all(t)
        },
        2e-2,
    );
}

#[test]
fn grad_euclidean_distance() {
    let mut store = ParamStore::new();
    let a = rand_param_signed(&mut store, "a", &[4], 18);
    let b = rand_param_signed(&mut store, "b", &[4], 19);
    check(
        &mut store,
        |g, s| {
            let av = g.param(s, a);
            let bv = g.param(s, b);
            g.euclidean_distance(av, bv)
        },
        2e-2,
    );
}

#[test]
fn grad_lstm_step() {
    // Weights, biases and the input sequence itself (a parameter here, so
    // the x-gradient is checked too), for 1-step and 3-step sequences.
    use crate::layers::LstmCell;
    for steps in [1usize, 3] {
        let mut rng = rng_from_seed(20 + steps as u64);
        let mut store = ParamStore::new();
        let cell = LstmCell::new(&mut store, "lstm", 2, 3, &mut rng);
        let x = rand_param_signed(&mut store, "x", &[steps, 2], 30 + steps as u64);
        check(
            &mut store,
            |g, s| {
                let xv = g.param(s, x);
                let h = cell.run_sequence(g, s, xv);
                let t = g.tanh(h);
                g.sum_all(t)
            },
            3e-2,
        );
    }
}

#[test]
fn grad_linear_act_row_batch() {
    use deepod_tensor::Activation;
    for (k, act) in [Activation::Identity, Activation::Sigmoid, Activation::Tanh]
        .into_iter()
        .enumerate()
    {
        let mut store = ParamStore::new();
        let w = rand_param_signed(&mut store, "w", &[4, 3], 80 + k as u64);
        let x = rand_param_signed(&mut store, "x", &[3, 3], 85 + k as u64);
        let b = rand_param(&mut store, "b", &[4], 90 + k as u64);
        check(
            &mut store,
            |g, s| {
                let (wv, xv, bv) = (g.param(s, w), g.param(s, x), g.param(s, b));
                let y = g.linear_act(wv, xv, bv, act);
                let t = g.tanh(y);
                g.sum_all(t)
            },
            2e-2,
        );
    }
}

#[test]
fn grad_gather_segments() {
    let mut store = ParamStore::new();
    let table = rand_param_signed(&mut store, "emb", &[6, 3], 31);
    check(
        &mut store,
        |g, s| {
            let t = g.param(s, table);
            let picked = g.gather_segments(t, &[1, 4, 1, 2, 4, 1], &[2, 1, 3]);
            let sq = g.mul(picked, picked);
            g.sum_all(sq)
        },
        2e-2,
    );
}

#[test]
fn grad_conv2d_segments() {
    let mut store = ParamStore::new();
    let x = rand_param_signed(&mut store, "x", &[2, 5, 3], 32);
    let k = rand_param_signed(&mut store, "k", &[3, 2, 3, 1], 33);
    check(
        &mut store,
        |g, s| {
            let xv = g.param(s, x);
            let kv = g.param(s, k);
            let y = g.conv2d_segments(xv, kv, &[2, 1, 2]);
            let t = g.tanh(y);
            g.sum_all(t)
        },
        2e-2,
    );
}

#[test]
fn grad_batchnorm_segments() {
    let mut store = ParamStore::new();
    let x = rand_param_signed(&mut store, "x", &[2, 4, 2], 34);
    let gamma = rand_param(&mut store, "gamma", &[2], 35);
    let beta = rand_param_signed(&mut store, "beta", &[2], 36);
    check(
        &mut store,
        |g, s| {
            let xv = g.param(s, x);
            let gv = g.param(s, gamma);
            let bv = g.param(s, beta);
            let (mu, var) = ([0.1, -0.2, 0.3, 0.0], [1.5, 0.8, 0.6, 1.1]);
            let y = g.batch_norm_segments(xv, gv, bv, &[1, 3], &mu, &var, 1e-5);
            let t = g.tanh(y);
            g.sum_all(t)
        },
        2e-2,
    );
}

#[test]
fn grad_mean_rows_and_row_concat() {
    let mut store = ParamStore::new();
    let m = rand_param_signed(&mut store, "m", &[5, 3], 37);
    let r = rand_param_signed(&mut store, "r", &[2, 2], 38);
    check(
        &mut store,
        |g, s| {
            let mv = g.param(s, m);
            let rv = g.param(s, r);
            let pooled = g.mean_rows(mv, &[2, 3]);
            let c = g.concat(&[pooled, rv]);
            let t = g.tanh(c);
            g.sum_all(t)
        },
        2e-2,
    );
}

#[test]
fn grad_add_bias_rows() {
    let mut store = ParamStore::new();
    let m = rand_param_signed(&mut store, "m", &[3, 2], 21);
    let b = rand_param_signed(&mut store, "b", &[2], 22);
    check(
        &mut store,
        |g, s| {
            let mv = g.param(s, m);
            let bv = g.param(s, b);
            let y = g.add_bias_rows(mv, bv);
            let t = g.sigmoid(y);
            g.sum_all(t)
        },
        2e-2,
    );
}
