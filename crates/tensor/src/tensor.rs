//! The [`Tensor`] type: contiguous, row-major `f32` storage plus a shape.

use crate::Shape;
use serde::{json, Deserialize, Serialize};
use std::fmt;

/// A dense, contiguous, row-major `f32` tensor.
///
/// All neural-network state in the workspace (weights, activations,
/// gradients, speed matrices) is stored as `Tensor`s. The type is cheap to
/// construct and clone-on-demand; it deliberately has no views or strides so
/// backward passes stay easy to audit.
#[derive(Clone, PartialEq, Serialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

/// Reads the `{"shape":…,"data":…}` form `Serialize` writes, holding
/// [`Tensor::from_vec`]'s invariant: a buffer whose length is not the
/// shape's element count is a typed error, not a tensor.
impl Deserialize for Tensor {
    fn deserialize_json(v: &json::Value) -> Result<Self, json::Error> {
        let shape = Shape::deserialize_json(json::obj_field(v, "shape")?)?;
        let data = Vec::<f32>::deserialize_json(json::obj_field(v, "data")?)?;
        match shape
            .dims()
            .iter()
            .try_fold(1usize, |n, &d| n.checked_mul(d))
        {
            Some(numel) if numel == data.len() => Ok(Tensor { shape, data }),
            _ => Err(json::Error::msg(format!(
                "tensor data has {} elements, not the element count of shape {shape}",
                data.len()
            ))),
        }
    }
}

impl Tensor {
    /// Builds a tensor from a flat row-major buffer. Panics when the buffer
    /// length does not match the shape's element count.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(
            data.len(),
            shape.numel(),
            "buffer length {} does not match shape {shape}",
            data.len()
        );
        Tensor { shape, data }
    }

    /// A tensor filled with zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let data = vec![0.0; shape.numel()];
        Tensor { shape, data }
    }

    /// A tensor filled with ones.
    pub fn ones(dims: &[usize]) -> Self {
        Self::full(dims, 1.0)
    }

    /// A tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let data = vec![value; shape.numel()];
        Tensor { shape, data }
    }

    /// A rank-0 scalar tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            shape: Shape::scalar(),
            data: vec![value],
        }
    }

    /// The `n`-by-`n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Shape accessor.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension sizes as a slice.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Size of dimension `i`.
    pub fn dim(&self, i: usize) -> usize {
        self.shape.dim(i)
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total element count.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Read-only view of the flat row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Value at a multi-dimensional index.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Mutable reference at a multi-dimensional index.
    pub fn at_mut(&mut self, index: &[usize]) -> &mut f32 {
        let off = self.shape.offset(index);
        &mut self.data[off]
    }

    /// The single value of a scalar or one-element tensor. Panics otherwise.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.numel(),
            1,
            "item() on tensor with {} elements",
            self.numel()
        );
        self.data[0]
    }

    /// Returns a tensor with the same buffer reinterpreted under `dims`.
    /// Panics when element counts differ.
    pub fn reshape(&self, dims: &[usize]) -> Tensor {
        let shape = Shape::new(dims);
        assert!(
            self.shape.reshape_compatible(&shape),
            "cannot reshape {} into {shape}",
            self.shape
        );
        Tensor {
            shape,
            data: self.data.clone(),
        }
    }

    /// Row `r` of a rank-2 tensor, as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        assert_eq!(self.rank(), 2, "row() requires a matrix");
        let cols = self.dim(1);
        &self.data[r * cols..(r + 1) * cols]
    }

    /// Mutable row `r` of a rank-2 tensor.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert_eq!(self.rank(), 2, "row_mut() requires a matrix");
        let cols = self.dim(1);
        &mut self.data[r * cols..(r + 1) * cols]
    }

    /// True when any element is NaN or infinite; used by training loops to
    /// detect divergence early.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }

    /// Approximate in-memory size in bytes (buffer only), used by the
    /// Table 5 "model size" measurements.
    pub fn size_bytes(&self) -> usize {
        self.data.len() * size_of::<f32>()
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        if self.numel() <= 16 {
            write!(f, "{:?}", self.data)
        } else {
            write!(f, "[{:?}, ... {} elements]", &self.data[..8], self.numel())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let z = Tensor::zeros(&[2, 3]);
        assert_eq!(z.numel(), 6);
        assert!(z.as_slice().iter().all(|&v| v == 0.0));

        let o = Tensor::ones(&[4]);
        assert!(o.as_slice().iter().all(|&v| v == 1.0));

        let s = Tensor::scalar(2.5);
        assert_eq!(s.item(), 2.5);
        assert_eq!(s.rank(), 0);

        let e = Tensor::eye(3);
        assert_eq!(e.at(&[1, 1]), 1.0);
        assert_eq!(e.at(&[1, 2]), 0.0);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_length_mismatch_panics() {
        let _ = Tensor::from_vec(vec![1.0, 2.0], &[3]);
    }

    #[test]
    fn indexing_round_trip() {
        let mut t = Tensor::zeros(&[2, 3]);
        *t.at_mut(&[1, 2]) = 7.0;
        assert_eq!(t.at(&[1, 2]), 7.0);
        assert_eq!(t.as_slice()[5], 7.0);
    }

    #[test]
    fn rows() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(t.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let r = t.reshape(&[4]);
        assert_eq!(r.as_slice(), t.as_slice());
        assert_eq!(r.rank(), 1);
    }

    #[test]
    fn non_finite_detection() {
        let mut t = Tensor::zeros(&[2]);
        assert!(!t.has_non_finite());
        t.as_mut_slice()[1] = f32::NAN;
        assert!(t.has_non_finite());
    }

    #[test]
    fn deserializing_data_that_does_not_fit_its_shape_is_an_error() {
        for bad in [
            r#"{"shape":[[2,3]],"data":[1,2,3,4]}"#,
            r#"{"shape":[[2,3]],"data":[1,2,3,4,5,6,7]}"#,
            r#"{"shape":[[4294967296,4294967296,4294967296]],"data":[]}"#,
        ] {
            let err = serde_json::from_str::<Tensor>(bad).expect_err(bad);
            assert!(err.to_string().contains("tensor data has"), "{bad}: {err}");
        }
        let ok: Tensor = serde_json::from_str(r#"{"shape":[[2,3]],"data":[1,2,3,4,5,6]}"#)
            .expect("matching data loads");
        assert_eq!((ok.dims(), ok.numel()), (&[2usize, 3][..], 6));
    }

    #[test]
    fn serde_round_trip() {
        let t = Tensor::from_vec(vec![1.0, -2.0, 3.5], &[3]);
        let json = serde_json::to_string(&t).unwrap();
        let back: Tensor = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }
}
