//! The LSTM of Eq. 12–16 over a whole sequence as one tape node
//! ([`crate::Graph::lstm`]).
//!
//! A tape of one cell per step records a concat, four fused
//! `linear_act` gates and five element-wise nodes per step. This module
//! computes the same numbers with the same per-element operation order:
//!
//! * **Forward.** Each gate pre-activation is an ascending-`k` sum over
//!   `[x_j, h_{j−1}]`. Its `x` prefix does not depend on the recurrence,
//!   so for all steps and all four gates it is one `kernels::matmul`;
//!   per step, a second `kernels::matmul` continues the same accumulators
//!   over the `h` suffix (the kernel accumulates into its output).
//! * **Backward.** The recurrence runs step by step, last step first.
//!   Each gate's `Wᵀ dz` starts from `+0` and ascends over the gate rows,
//!   and the four are summed c̃, o, i, f — the reverse order the per-step
//!   tape met the gates in. Weight and bias gradients sum the steps last
//!   first, the order the per-step tape merged them into the parameter:
//!   one `kernels::matmul` for all four weights.

use crate::backward::{sum_last_first, sum_outer_last_first};
use deepod_tensor::{kernels, Activation, Tensor};

/// Gate order of the stacked weights: forget, input, output, candidate.
const ACTS: [Activation; 4] = [
    Activation::Sigmoid,
    Activation::Sigmoid,
    Activation::Sigmoid,
    Activation::Tanh,
];

/// What backward needs from the forward sweep, one row per step.
#[derive(Debug)]
pub(crate) struct LstmTape {
    /// Gate activations `[f, i, o, c̃]`, `[S, 4·d_h]`.
    gates: Vec<f32>,
    /// Cell states `c_j`, `[S, d_h]`.
    c: Vec<f32>,
    /// `tanh(c_j)`, `[S, d_h]`.
    tc: Vec<f32>,
    /// Hidden states `h_j`, `[S, d_h]`.
    h: Vec<f32>,
}

/// Runs the sequence; returns `h_S` and the tape backward reads.
pub(crate) fn forward(x: &Tensor, w: [&Tensor; 4], b: [&Tensor; 4]) -> (Tensor, LstmTape) {
    assert_eq!(x.rank(), 2, "LSTM input must be a [steps, d_x] sequence");
    let (steps, dx) = (x.dim(0), x.dim(1));
    assert!(steps > 0, "LSTM sequence must be non-empty");
    let dh = b[0].numel();
    let (d4, dxh) = (4 * dh, dx + dh);
    for (wg, bg) in w.iter().zip(&b) {
        assert_eq!(wg.dims(), &[dh, dxh], "LSTM gate weight shape");
        assert_eq!(bg.numel(), dh, "LSTM gate bias length");
    }
    // The stacked gate weights transposed and split by input column:
    // `wx_t[k, q]` multiplies x[k], `wh_t[k, q]` multiplies h[k], where
    // `q = gate·d_h + row`.
    let mut wx_t = vec![0.0f32; dx * d4];
    let mut wh_t = vec![0.0f32; dh * d4];
    for (gate, wg) in w.iter().enumerate() {
        for (row, wrow) in wg.as_slice().chunks_exact(dxh).enumerate() {
            let q = gate * dh + row;
            for (k, &v) in wrow[..dx].iter().enumerate() {
                wx_t[k * d4 + q] = v;
            }
            for (k, &v) in wrow[dx..].iter().enumerate() {
                wh_t[k * d4 + q] = v;
            }
        }
    }
    let bias: Vec<f32> = b.iter().flat_map(|bg| bg.as_slice()).copied().collect();

    let mut pre = vec![0.0f32; steps * d4];
    kernels::matmul(x.as_slice(), &wx_t, &mut pre, dx, d4);

    let mut tape = LstmTape {
        gates: Vec::with_capacity(steps * d4),
        c: Vec::with_capacity(steps * dh),
        tc: Vec::with_capacity(steps * dh),
        h: Vec::with_capacity(steps * dh),
    };
    let mut h_prev = vec![0.0f32; dh];
    let mut c_prev = vec![0.0f32; dh];
    for acc in pre.chunks_exact_mut(d4) {
        kernels::matmul(&h_prev, &wh_t, acc, dh, d4);
        let gates: Vec<f32> = acc
            .iter()
            .zip(&bias)
            .enumerate()
            .map(|(q, (&a, &bq))| ACTS[q / dh].apply(a + bq))
            .collect();
        for i in 0..dh {
            let (f, ig, o, cand) = (
                gates[i],
                gates[dh + i],
                gates[2 * dh + i],
                gates[3 * dh + i],
            );
            let c = f * c_prev[i] + ig * cand;
            let tc = c.tanh();
            c_prev[i] = c;
            h_prev[i] = o * tc;
            tape.tc.push(tc);
        }
        tape.gates.extend_from_slice(&gates);
        tape.c.extend_from_slice(&c_prev);
        tape.h.extend_from_slice(&h_prev);
    }
    (Tensor::from_vec(h_prev, &[dh]), tape)
}

/// Gradients of one sequence: `dx` (`[S, d_x]`, when asked for), then
/// per gate the weight and bias gradients, in `ACTS` order.
pub(crate) struct LstmGrads {
    pub dx: Option<Vec<f32>>,
    pub dw: Vec<Vec<f32>>,
    pub db: Vec<Vec<f32>>,
}

/// Backpropagates `dh_last` (the gradient of `h_S`) through the sequence.
pub(crate) fn backward(
    tape: &LstmTape,
    x: &Tensor,
    w: [&Tensor; 4],
    dh_last: &[f32],
    want_dx: bool,
) -> LstmGrads {
    let (steps, dx) = (x.dim(0), x.dim(1));
    let dh = dh_last.len();
    let (d4, dxh) = (4 * dh, dx + dh);
    let zeros = vec![0.0f32; dh];

    // Gate pre-activation gradients, `[S, 4·d_h]` in `ACTS` order.
    let mut dz = vec![0.0f32; steps * d4];
    let mut dx_all = want_dx.then(|| vec![0.0f32; steps * dx]);
    let mut dh_cur = dh_last.to_vec();
    // dc_{j+1} ⊙ f_{j+1}: the part of dc_j that flows back through c_j's
    // use in the next step (none for the last step).
    let mut carry = vec![0.0f32; dh];
    for j in (0..steps).rev() {
        let gates = &tape.gates[j * d4..(j + 1) * d4];
        let tc = &tape.tc[j * dh..(j + 1) * dh];
        let c_prev = if j == 0 {
            &zeros[..]
        } else {
            &tape.c[(j - 1) * dh..j * dh]
        };
        let dzj = &mut dz[j * d4..(j + 1) * d4];
        for i in 0..dh {
            let (f, ig, o, cand) = (
                gates[i],
                gates[dh + i],
                gates[2 * dh + i],
                gates[3 * dh + i],
            );
            // h = o ⊙ tanh(c)
            let d_o = dh_cur[i] * tc[i];
            let d_tc = dh_cur[i] * o;
            let from_tanh = d_tc * (1.0 - tc[i] * tc[i]);
            let dc = if j + 1 < steps {
                carry[i] + from_tanh
            } else {
                from_tanh
            };
            // c = f ⊙ c_prev + i ⊙ c̃
            let d_f = dc * c_prev[i];
            let d_i = dc * cand;
            let d_cand = dc * ig;
            carry[i] = dc * f;
            for (gate, (g, y)) in [(d_f, f), (d_i, ig), (d_o, o), (d_cand, cand)]
                .into_iter()
                .enumerate()
            {
                dzj[gate * dh + i] = g * ACTS[gate].derivative_from_output(y);
            }
        }
        if j == 0 && dx_all.is_none() {
            break;
        }
        // The gradient of [x_j, h_{j−1}]: each gate's Wᵀ dz from +0 in
        // ascending gate rows, summed last gate first (c̃, o, i, f), the
        // reverse of the order the per-step tape met the gates in.
        let terms: Vec<Vec<f32>> = (0..4)
            .map(|gate| {
                let mut t = vec![0.0f32; dxh];
                kernels::matmul(
                    &dzj[gate * dh..(gate + 1) * dh],
                    w[gate].as_slice(),
                    &mut t,
                    dh,
                    dxh,
                );
                t
            })
            .collect();
        let dxh_j = sum_last_first(terms.iter().map(Vec::as_slice));
        if let Some(dx_all) = &mut dx_all {
            dx_all[j * dx..(j + 1) * dx].copy_from_slice(&dxh_j[..dx]);
        }
        dh_cur.copy_from_slice(&dxh_j[dx..]);
    }

    // Step j's gate input is [x_j, h_{j−1}].
    let mut xh = Vec::with_capacity(steps * dxh);
    for (j, xj) in x.as_slice().chunks_exact(dx).enumerate() {
        xh.extend_from_slice(xj);
        xh.extend_from_slice(if j == 0 {
            &zeros[..]
        } else {
            &tape.h[(j - 1) * dh..j * dh]
        });
    }
    let dw_all = sum_outer_last_first(&dz, &xh, steps);
    let db_all = sum_last_first(dz.chunks_exact(d4));
    LstmGrads {
        dx: dx_all,
        dw: dw_all.chunks_exact(dh * dxh).map(<[f32]>::to_vec).collect(),
        db: db_all.chunks_exact(dh).map(<[f32]>::to_vec).collect(),
    }
}
