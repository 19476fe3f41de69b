//! Property tests for the packed/SIMD kernel module (`deepod_tensor::
//! kernels`).
//!
//! Determinism contract under test (DESIGN.md §12): the dispatched
//! kernels keep every per-element accumulation in ascending-`k` order
//! with separate multiply and add (no FMA), so the SIMD paths are
//! **bit-identical** to the scalar reference — stronger than the
//! documented ≤ 1-ulp tolerance, which exists as headroom for future
//! ISAs. These tests pin the stronger property with `to_bits` equality;
//! if a future kernel legitimately needs the 1-ulp allowance, relax the
//! assertion here in the same commit that documents why.

use deepod_tensor::kernels;
use deepod_tensor::{rng_from_seed, Activation, Tensor};
use proptest::{any, prop_assert_eq, proptest, ProptestConfig};

fn rand_vec(len: usize, lo: f32, hi: f32, seed: u64) -> Vec<f32> {
    let mut rng = rng_from_seed(seed);
    Tensor::rand_uniform(&[len.max(1)], lo, hi, &mut rng)
        .as_slice()
        .to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The dispatched matmul (packed panels + AVX micro-kernel where the
    /// CPU has it) is bit-identical to the scalar blocked reference on
    /// every shape, including panel remainders in all three dimensions.
    #[test]
    fn dispatched_matmul_is_bit_identical_to_reference(
        m in 1usize..80,
        k in 1usize..80,
        n in 1usize..80,
        seed in any::<u64>(),
    ) {
        let a = rand_vec(m * k, -2.0, 2.0, seed);
        let b = rand_vec(k * n, -2.0, 2.0, seed ^ 0x9e37_79b9);
        let mut got = vec![0.0f32; m * n];
        let mut want = vec![0.0f32; m * n];
        kernels::matmul(&a, &b, &mut got, k, n);
        kernels::matmul_ref(&a, &b, &mut want, k, n);
        let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
        let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(got, want, "({}x{}x{}) isa={}", m, k, n, kernels::active_isa().name());
    }

    /// Same contract for the fused matvec epilogue, across every
    /// activation the NN layer stack uses.
    #[test]
    fn dispatched_matvec_is_bit_identical_to_reference(
        rows in 1usize..96,
        cols in 1usize..96,
        act_idx in 0usize..4,
        seed in any::<u64>(),
    ) {
        let act = [
            Activation::Identity,
            Activation::Relu,
            Activation::Sigmoid,
            Activation::Tanh,
        ][act_idx];
        let w = rand_vec(rows * cols, -1.5, 1.5, seed);
        let x = rand_vec(cols, -1.5, 1.5, seed ^ 0x5bd1_e995);
        let bias = rand_vec(rows, -1.0, 1.0, seed ^ 0xc2b2_ae35);
        let mut got = vec![0.0f32; rows];
        let mut want = vec![0.0f32; rows];
        kernels::matvec_bias_act(&w, &x, &bias, act, &mut got);
        kernels::matvec_ref(&w, &x, &bias, act, &mut want);
        let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
        let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(got, want, "{}x{} {:?}", rows, cols, act);
    }

    /// axpy (`y += a·x`) dispatch is bit-identical to the scalar loop.
    #[test]
    fn dispatched_axpy_is_bit_identical_to_scalar(
        len in 1usize..200,
        a in -3.0f32..3.0,
        seed in any::<u64>(),
    ) {
        let x = rand_vec(len, -2.0, 2.0, seed);
        let mut got = rand_vec(len, -2.0, 2.0, seed ^ 0x27d4_eb2f);
        let mut want = got.clone();
        kernels::axpy(&mut got, &x, a);
        for (yi, xi) in want.iter_mut().zip(&x) {
            *yi += a * *xi;
        }
        let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
        let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(got, want);
    }
}
