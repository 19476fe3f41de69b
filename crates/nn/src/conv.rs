//! 2-D convolution kernels used by the Time Interval Encoder (§4.3) and the
//! External Features Encoder (§4.5).
//!
//! Layout conventions: inputs are `[in_c, h, w]`, kernels are
//! `[out_c, in_c, kh, kw]`, outputs `[out_c, h, w]`. Convolutions use
//! "same" zero padding (stride 1), which matches the paper's Eq. 5–7 where
//! a Δd×d_t tensor keeps its spatial size through the ResNet block.

use deepod_tensor::Tensor;

/// Forward 2-D convolution with same padding and stride 1.
pub fn conv2d_forward(input: &Tensor, kernel: &Tensor) -> Tensor {
    assert_eq!(input.rank(), 3, "conv input must be [in_c, h, w]");
    assert_eq!(
        kernel.rank(),
        4,
        "conv kernel must be [out_c, in_c, kh, kw]"
    );
    let (in_c, h, w) = (input.dim(0), input.dim(1), input.dim(2));
    let (out_c, k_in_c, kh, kw) = (kernel.dim(0), kernel.dim(1), kernel.dim(2), kernel.dim(3));
    assert_eq!(
        in_c, k_in_c,
        "channel mismatch: input {in_c}, kernel {k_in_c}"
    );
    let (ph, pw) = (kh / 2, kw / 2);

    let x = input.as_slice();
    let k = kernel.as_slice();
    let mut out = vec![0.0f32; out_c * h * w];

    for oc in 0..out_c {
        for ic in 0..in_c {
            let kbase = ((oc * in_c) + ic) * kh * kw;
            let xbase = ic * h * w;
            for dy in 0..kh {
                for dx in 0..kw {
                    let kv = k[kbase + dy * kw + dx];
                    // Exact-zero skip is intentional: only a bit-zero
                    // weight (sparsity, padding) may shortcut the inner
                    // accumulation without changing results.
                    // deepod-lint: allow(float-eq)
                    if kv == 0.0 {
                        continue;
                    }
                    // Output (i, j) reads input (i + dy - ph, j + dx - pw).
                    let oy_lo = ph.saturating_sub(dy);
                    let oy_hi = (h + ph).min(h + dy).saturating_sub(dy).min(h);
                    // Valid j span is contiguous: pw ≤ j + dx < w + pw.
                    let oj_lo = pw.saturating_sub(dx);
                    let oj_hi = (w + pw).saturating_sub(dx).min(w);
                    if oj_lo >= oj_hi {
                        continue;
                    }
                    for i in oy_lo..oy_hi {
                        let iy = i + dy - ph;
                        if iy >= h {
                            continue;
                        }
                        let obase = (oc * h + i) * w;
                        let ibase = xbase + iy * w + (oj_lo + dx - pw);
                        deepod_tensor::kernels::axpy(
                            &mut out[obase + oj_lo..obase + oj_hi],
                            &x[ibase..ibase + (oj_hi - oj_lo)],
                            kv,
                        );
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, &[out_c, h, w])
}

/// Positions `t ∈ [0, n)` whose source index `t + plus − minus` also lies
/// in `[0, n)`: the contiguous span one kernel tap reads without padding.
fn tap_span(n: usize, plus: usize, minus: usize) -> std::ops::Range<usize> {
    minus.saturating_sub(plus)..(n + minus).saturating_sub(plus).min(n)
}

/// Gradient of the convolution with respect to its input, as one matmul:
/// `gi[ic, p] = Σ_(oc,dy,dx) K[oc,ic,dy,dx] · go[oc, y−dy+ph, x−dx+pw]`
/// for `p = (y, x)`, summed in ascending `(oc, dy, dx)`: the order that
/// keeps it `to_bits`-equal to the per-tap `axpy` loop its tests compare
/// against (DESIGN.md §12).
pub fn conv2d_grad_input(grad_out: &Tensor, kernel: &Tensor) -> Tensor {
    let (out_c, h, w) = (grad_out.dim(0), grad_out.dim(1), grad_out.dim(2));
    let (k_out_c, in_c, kh, kw) = (kernel.dim(0), kernel.dim(1), kernel.dim(2), kernel.dim(3));
    assert_eq!(out_c, k_out_c, "grad/kernel out-channel mismatch");
    let (ph, pw) = (kh / 2, kw / 2);
    let (taps, hw) = (kh * kw, h * w);
    let depth = out_c * taps;

    let go = grad_out.as_slice();
    let k = kernel.as_slice();

    // Kernel regrouped per input channel: `kt[ic, (oc, dy, dx)]`.
    let mut kt = vec![0.0f32; in_c * depth];
    for (oc, per_oc) in k.chunks_exact(in_c * taps).enumerate() {
        for (ic, src) in per_oc.chunks_exact(taps).enumerate() {
            kt[ic * depth + oc * taps..][..taps].copy_from_slice(src);
        }
    }
    // One shifted copy of each grad_out plane per tap:
    // `shifted[(oc, dy, dx), (y, x)] = go[oc, y−dy+ph, x−dx+pw]`, zero
    // where that falls in the padding.
    let mut shifted = vec![0.0f32; depth * hw];
    for (r, row) in shifted.chunks_exact_mut(hw).enumerate() {
        let (oc, dy, dx) = (r / taps, (r % taps) / kw, r % kw);
        let xs = tap_span(w, pw, dx);
        for y in tap_span(h, ph, dy) {
            let src = (oc * h + y + ph - dy) * w + xs.start + pw - dx;
            row[y * w + xs.start..y * w + xs.end].copy_from_slice(&go[src..src + xs.len()]);
        }
    }

    let mut gi = vec![0.0f32; in_c * hw];
    deepod_tensor::kernels::matmul(&kt, &shifted, &mut gi, depth, hw);
    Tensor::from_vec(gi, &[in_c, h, w])
}

/// Gradient of the convolution with respect to its kernel, as one matmul:
/// `gk[oc, (ic,dy,dx)] = Σ_p go[oc, p] · patch[p, (ic,dy,dx)]` with
/// `patch[(y, x), (ic,dy,dx)] = x[ic, y+dy−ph, x+dx−pw]`, summed in
/// ascending `p`: the order that keeps it `to_bits`-equal to the scalar
/// per-tap loop its tests compare against (DESIGN.md §12).
pub fn conv2d_grad_kernel(grad_out: &Tensor, input: &Tensor, kh: usize, kw: usize) -> Tensor {
    let (out_c, h, w) = (grad_out.dim(0), grad_out.dim(1), grad_out.dim(2));
    let in_c = input.dim(0);
    assert_eq!(input.dim(1), h, "spatial mismatch");
    assert_eq!(input.dim(2), w, "spatial mismatch");
    let (ph, pw) = (kh / 2, kw / 2);
    let cols = in_c * kh * kw;

    let x = input.as_slice();

    // im2col, one row per output position, zero where a tap reads padding.
    let mut patch = vec![0.0f32; h * w * cols];
    for ic in 0..in_c {
        for dy in 0..kh {
            for dx in 0..kw {
                let q = (ic * kh + dy) * kw + dx;
                let xs = tap_span(w, dx, pw);
                for y in tap_span(h, dy, ph) {
                    let src = &x[(ic * h + y + dy - ph) * w..][..w];
                    for xo in xs.clone() {
                        patch[(y * w + xo) * cols + q] = src[xo + dx - pw];
                    }
                }
            }
        }
    }

    let mut gk = vec![0.0f32; out_c * cols];
    deepod_tensor::kernels::matmul(grad_out.as_slice(), &patch, &mut gk, h * w, cols);
    Tensor::from_vec(gk, &[out_c, in_c, kh, kw])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference (slow, obviously-correct) forward used to validate the
    /// optimized loops above.
    fn conv2d_reference(input: &Tensor, kernel: &Tensor) -> Tensor {
        let (in_c, h, w) = (input.dim(0), input.dim(1), input.dim(2));
        let (out_c, _, kh, kw) = (kernel.dim(0), kernel.dim(1), kernel.dim(2), kernel.dim(3));
        let (ph, pw) = (kh as isize / 2, kw as isize / 2);
        let mut out = Tensor::zeros(&[out_c, h, w]);
        for oc in 0..out_c {
            for i in 0..h as isize {
                for j in 0..w as isize {
                    let mut acc = 0.0;
                    for ic in 0..in_c {
                        for dy in 0..kh as isize {
                            for dx in 0..kw as isize {
                                let (iy, jx) = (i + dy - ph, j + dx - pw);
                                if iy < 0 || iy >= h as isize || jx < 0 || jx >= w as isize {
                                    continue;
                                }
                                acc += input.at(&[ic, iy as usize, jx as usize])
                                    * kernel.at(&[oc, ic, dy as usize, dx as usize]);
                            }
                        }
                    }
                    *out.at_mut(&[oc, i as usize, j as usize]) = acc;
                }
            }
        }
        out
    }

    /// Per-tap `axpy` loop: each input element sums its terms in
    /// ascending `(oc, dy, dx)`, skipping bit-zero weights. The
    /// bit-reference for `conv2d_grad_input`.
    fn grad_input_reference(grad_out: &Tensor, kernel: &Tensor) -> Tensor {
        let (out_c, h, w) = (grad_out.dim(0), grad_out.dim(1), grad_out.dim(2));
        let (in_c, kh, kw) = (kernel.dim(1), kernel.dim(2), kernel.dim(3));
        let (ph, pw) = (kh / 2, kw / 2);
        let go = grad_out.as_slice();
        let k = kernel.as_slice();
        let mut gi = vec![0.0f32; in_c * h * w];
        for oc in 0..out_c {
            for ic in 0..in_c {
                let kbase = ((oc * in_c) + ic) * kh * kw;
                for dy in 0..kh {
                    for dx in 0..kw {
                        let kv = k[kbase + dy * kw + dx];
                        if kv == 0.0 {
                            continue;
                        }
                        let oj_lo = pw.saturating_sub(dx);
                        let oj_hi = (w + pw).saturating_sub(dx).min(w);
                        if oj_lo >= oj_hi {
                            continue;
                        }
                        for i in 0..h {
                            let iy = i + dy;
                            if iy < ph || iy - ph >= h {
                                continue;
                            }
                            let iy = iy - ph;
                            let gbase = (ic * h + iy) * w + (oj_lo + dx - pw);
                            let obase = (oc * h + i) * w;
                            deepod_tensor::kernels::axpy(
                                &mut gi[gbase..gbase + (oj_hi - oj_lo)],
                                &go[obase + oj_lo..obase + oj_hi],
                                kv,
                            );
                        }
                    }
                }
            }
        }
        Tensor::from_vec(gi, &[in_c, h, w])
    }

    /// Scalar dependent-add loop: each kernel element sums over output
    /// positions in ascending `p`, skipping padding. The bit-reference
    /// for `conv2d_grad_kernel`.
    fn grad_kernel_reference(grad_out: &Tensor, input: &Tensor, kh: usize, kw: usize) -> Tensor {
        let (out_c, h, w) = (grad_out.dim(0), grad_out.dim(1), grad_out.dim(2));
        let in_c = input.dim(0);
        let (ph, pw) = (kh / 2, kw / 2);
        let go = grad_out.as_slice();
        let x = input.as_slice();
        let mut gk = vec![0.0f32; out_c * in_c * kh * kw];
        for oc in 0..out_c {
            for ic in 0..in_c {
                let kbase = ((oc * in_c) + ic) * kh * kw;
                for dy in 0..kh {
                    for dx in 0..kw {
                        let mut acc = 0.0f32;
                        for i in 0..h {
                            let iy = i + dy;
                            if iy < ph || iy - ph >= h {
                                continue;
                            }
                            let iy = iy - ph;
                            for j in 0..w {
                                let jx = j + dx;
                                if jx < pw || jx - pw >= w {
                                    continue;
                                }
                                acc += go[(oc * h + i) * w + j] * x[(ic * h + iy) * w + (jx - pw)];
                            }
                        }
                        gk[kbase + dy * kw + dx] = acc;
                    }
                }
            }
        }
        Tensor::from_vec(gk, &[out_c, in_c, kh, kw])
    }

    fn rand_t(dims: &[usize], seed: u64) -> Tensor {
        let mut rng = deepod_tensor::rng_from_seed(seed);
        Tensor::rand_uniform(dims, -1.0, 1.0, &mut rng)
    }

    /// Uniform values in `[-1, 1)` with roughly a quarter `+0.0` and a
    /// quarter `-0.0` — post-ReLU activations and pruned weights.
    fn rand_with_zeros(dims: &[usize], seed: u64) -> Tensor {
        let mut t = rand_t(dims, seed);
        let mut rng = deepod_tensor::rng_from_seed(seed ^ 0x5eed);
        for v in t.as_mut_slice() {
            match rand::Rng::gen_range(&mut rng, 0u32..8) {
                0 | 1 => *v = 0.0,
                2 | 3 => *v = -0.0,
                _ => {}
            }
        }
        t
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// Both matmul-form gradients are `to_bits`-identical to the
        /// reference loops: same per-element summation order, the only
        /// extra terms are `±0` products that cannot move a `+0`-seeded
        /// accumulator.
        #[test]
        fn backward_is_bit_identical_to_reference_loops(
            in_c in 1usize..=8,
            out_c in 1usize..=8,
            h in 1usize..=13,
            w in 1usize..=13,
            shape in 0usize..3,
            seed in proptest::any::<u64>(),
        ) {
            let (kh, kw) = [(1, 1), (3, 1), (3, 3)][shape];
            let x = rand_with_zeros(&[in_c, h, w], seed);
            let k = rand_with_zeros(&[out_c, in_c, kh, kw], seed ^ 1);
            let go = rand_with_zeros(&[out_c, h, w], seed ^ 2);
            proptest::prop_assert_eq!(
                bits(&conv2d_grad_input(&go, &k)),
                bits(&grad_input_reference(&go, &k)),
                "grad_input [{}, {}, {}] kernel {}x{} -> {}", in_c, h, w, kh, kw, out_c
            );
            proptest::prop_assert_eq!(
                bits(&conv2d_grad_kernel(&go, &x, kh, kw)),
                bits(&grad_kernel_reference(&go, &x, kh, kw)),
                "grad_kernel [{}, {}, {}] kernel {}x{} -> {}", in_c, h, w, kh, kw, out_c
            );
        }
    }

    #[test]
    fn backward_matches_reference_on_the_model_shapes() {
        // External CNN layers 1–3 on a 12×12 speed grid, and the interval
        // encoder's 3×1 / 1×1 stack on a Δd × d_t matrix.
        for (seed, (in_c, out_c, h, w, kh, kw)) in [
            (1, 4, 12, 12, 3, 3),
            (4, 8, 12, 12, 3, 3),
            (8, 16, 12, 12, 3, 3),
            (1, 4, 5, 16, 3, 1),
            (4, 8, 5, 16, 3, 1),
            (8, 1, 5, 16, 1, 1),
        ]
        .into_iter()
        .enumerate()
        {
            let seed = 100 + seed as u64;
            let x = rand_with_zeros(&[in_c, h, w], seed);
            let k = rand_t(&[out_c, in_c, kh, kw], seed ^ 1);
            let go = rand_t(&[out_c, h, w], seed ^ 2);
            assert_eq!(
                bits(&conv2d_grad_input(&go, &k)),
                bits(&grad_input_reference(&go, &k))
            );
            assert_eq!(
                bits(&conv2d_grad_kernel(&go, &x, kh, kw)),
                bits(&grad_kernel_reference(&go, &x, kh, kw))
            );
        }
    }

    #[test]
    fn forward_matches_reference_3x1() {
        let x = rand_t(&[1, 5, 4], 1);
        let k = rand_t(&[4, 1, 3, 1], 2);
        assert_eq!(
            bits(&conv2d_forward(&x, &k)),
            bits(&conv2d_reference(&x, &k))
        );
    }

    #[test]
    fn forward_matches_reference_1x1() {
        let x = rand_t(&[8, 3, 6], 3);
        let k = rand_t(&[1, 8, 1, 1], 4);
        assert_eq!(
            bits(&conv2d_forward(&x, &k)),
            bits(&conv2d_reference(&x, &k))
        );
    }

    #[test]
    fn forward_matches_reference_3x3() {
        let x = rand_t(&[2, 6, 6], 5);
        let k = rand_t(&[3, 2, 3, 3], 6);
        assert_eq!(
            bits(&conv2d_forward(&x, &k)),
            bits(&conv2d_reference(&x, &k))
        );
    }

    #[test]
    fn single_row_input_with_3x1_kernel() {
        // Δd = 1 intervals are the common case in DeepOD: the 3×1 kernel
        // only sees the center tap.
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 1, 3]);
        let mut k = Tensor::zeros(&[1, 1, 3, 1]);
        *k.at_mut(&[0, 0, 0, 0]) = 10.0; // top tap: zero-padded out
        *k.at_mut(&[0, 0, 1, 0]) = 2.0; // center tap
        *k.at_mut(&[0, 0, 2, 0]) = 10.0; // bottom tap: zero-padded out
        let y = conv2d_forward(&x, &k);
        assert_eq!(y.as_slice(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn grad_input_matches_finite_difference() {
        let x = rand_t(&[2, 4, 3], 7);
        let k = rand_t(&[3, 2, 3, 1], 8);
        let go = rand_t(&[3, 4, 3], 9);
        let gi = conv2d_grad_input(&go, &k);

        let eps = 1e-2f32;
        for idx in 0..x.numel() {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let fp = conv2d_forward(&xp, &k).dot(&go);
            let fm = conv2d_forward(&xm, &k).dot(&go);
            let fd = (fp - fm) / (2.0 * eps);
            assert!(
                (fd - gi.as_slice()[idx]).abs() < 1e-2,
                "input grad {idx}: fd {fd} vs {}",
                gi.as_slice()[idx]
            );
        }
    }

    #[test]
    fn grad_kernel_matches_finite_difference() {
        let x = rand_t(&[2, 4, 3], 10);
        let k = rand_t(&[2, 2, 3, 1], 11);
        let go = rand_t(&[2, 4, 3], 12);
        let gk = conv2d_grad_kernel(&go, &x, 3, 1);

        let eps = 1e-2f32;
        for idx in 0..k.numel() {
            let mut kp = k.clone();
            kp.as_mut_slice()[idx] += eps;
            let mut km = k.clone();
            km.as_mut_slice()[idx] -= eps;
            let fp = conv2d_forward(&x, &kp).dot(&go);
            let fm = conv2d_forward(&x, &km).dot(&go);
            let fd = (fp - fm) / (2.0 * eps);
            assert!(
                (fd - gk.as_slice()[idx]).abs() < 1e-2,
                "kernel grad {idx}: fd {fd} vs {}",
                gk.as_slice()[idx]
            );
        }
    }
}
