//! Parameter storage: every trainable tensor in a model lives in a
//! [`ParamStore`], addressed by a [`ParamId`].
//!
//! Keeping parameters outside the computation graph lets the graph be
//! rebuilt per minibatch (define-by-run) while weights persist, and gives
//! the optimizer one place to hold Adam moment state.

use deepod_tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Opaque handle to a parameter in a [`ParamStore`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// Index into the owning store (stable for the store's lifetime).
    pub fn index(&self) -> usize {
        self.0
    }
}

#[derive(Clone, Serialize, Deserialize)]
struct ParamEntry {
    name: String,
    value: Arc<Tensor>,
    /// When false the optimizer skips this parameter (used by ablations that
    /// freeze an embedding).
    trainable: bool,
}

/// Owns all trainable tensors of a model.
///
/// Values are reference-counted so the [`Graph`](crate::Graph) can hold them
/// during a forward pass without copying; the optimizer mutates them through
/// [`Arc::make_mut`] after all graphs are dropped.
#[derive(Clone, Default, Serialize, Deserialize)]
pub struct ParamStore {
    entries: Vec<ParamEntry>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter and returns its handle. Names are free-form
    /// labels used in diagnostics and serialization; duplicates are allowed
    /// (e.g. per-layer `"bias"`), the handle is the identity.
    pub fn register(&mut self, name: &str, value: Tensor) -> ParamId {
        let id = ParamId(self.entries.len());
        self.entries.push(ParamEntry {
            name: name.to_string(),
            value: Arc::new(value),
            trainable: true,
        });
        id
    }

    /// Registers a non-trainable parameter (constant buffer such as frozen
    /// embeddings or batch-norm running statistics snapshots).
    pub fn register_frozen(&mut self, name: &str, value: Tensor) -> ParamId {
        let id = self.register(name, value);
        self.entries[id.0].trainable = false;
        id
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no parameters have been registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Shared handle to a parameter's current value.
    pub fn value_rc(&self, id: ParamId) -> Arc<Tensor> {
        Arc::clone(&self.entries[id.0].value)
    }

    /// The value of `id`, or `None` when `id` is not a parameter of this
    /// store (a handle read from a file).
    pub fn get(&self, id: ParamId) -> Option<&Tensor> {
        self.entries.get(id.0).map(|e| &*e.value)
    }

    /// Borrow of a parameter's current value.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.entries[id.0].value
    }

    /// Parameter name.
    pub fn name(&self, id: ParamId) -> &str {
        &self.entries[id.0].name
    }

    /// Whether the optimizer should update this parameter.
    pub fn is_trainable(&self, id: ParamId) -> bool {
        self.entries[id.0].trainable
    }

    /// Marks a parameter trainable or frozen.
    pub fn set_trainable(&mut self, id: ParamId, trainable: bool) {
        self.entries[id.0].trainable = trainable;
    }

    /// Replaces a parameter's value wholesale (used to load pre-trained
    /// graph embeddings as initialization, §4.1/§4.2 of the paper).
    /// Panics when the replacement shape differs.
    pub fn set_value(&mut self, id: ParamId, value: Tensor) {
        assert_eq!(
            self.entries[id.0].value.shape(),
            value.shape(),
            "set_value shape mismatch for '{}'",
            self.entries[id.0].name
        );
        self.entries[id.0].value = Arc::new(value);
    }

    /// Mutable access used by optimizers. Clones the tensor only if a graph
    /// still holds a reference (it should not, in correct usage).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        Arc::make_mut(&mut self.entries[id.0].value)
    }

    /// Iterates over all parameter ids.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> + '_ {
        (0..self.entries.len()).map(ParamId)
    }

    /// Total number of scalar parameters (trainable only).
    pub fn num_scalars(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.trainable)
            .map(|e| e.value.numel())
            .sum()
    }

    /// Approximate serialized model size in bytes: the sum of all parameter
    /// buffers. This is the quantity reported in the paper's Table 5.
    pub fn size_bytes(&self) -> usize {
        self.entries.iter().map(|e| e.value.size_bytes()).sum()
    }

    /// Global L2 norm over all trainable parameters — handy for divergence
    /// diagnostics in training logs.
    pub fn global_norm(&self) -> f32 {
        self.entries
            .iter()
            .filter(|e| e.trainable)
            .map(|e| {
                let n = e.value.norm();
                n * n
            })
            .sum::<f32>()
            .sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut s = ParamStore::new();
        let a = s.register("w", Tensor::ones(&[2, 2]));
        let b = s.register("b", Tensor::zeros(&[2]));
        assert_eq!(s.len(), 2);
        assert_eq!(s.name(a), "w");
        assert_eq!(s.value(b).numel(), 2);
        assert!(s.is_trainable(a));
    }

    #[test]
    fn frozen_params() {
        let mut s = ParamStore::new();
        let f = s.register_frozen("const", Tensor::ones(&[3]));
        assert!(!s.is_trainable(f));
        s.set_trainable(f, true);
        assert!(s.is_trainable(f));
    }

    #[test]
    fn set_value_replaces() {
        let mut s = ParamStore::new();
        let id = s.register("w", Tensor::zeros(&[2]));
        s.set_value(id, Tensor::from_vec(vec![1.0, 2.0], &[2]));
        assert_eq!(s.value(id).as_slice(), &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn set_value_shape_mismatch_panics() {
        let mut s = ParamStore::new();
        let id = s.register("w", Tensor::zeros(&[2]));
        s.set_value(id, Tensor::zeros(&[3]));
    }

    #[test]
    fn scalar_count_skips_frozen() {
        let mut s = ParamStore::new();
        s.register("w", Tensor::zeros(&[4, 4]));
        s.register_frozen("c", Tensor::zeros(&[100]));
        assert_eq!(s.num_scalars(), 16);
        assert_eq!(s.size_bytes(), (16 + 100) * 4);
    }

    #[test]
    fn value_mut_updates_in_place() {
        let mut s = ParamStore::new();
        let id = s.register("w", Tensor::zeros(&[2]));
        s.value_mut(id).as_mut_slice()[0] = 5.0;
        assert_eq!(s.value(id).as_slice(), &[5.0, 0.0]);
    }
}
