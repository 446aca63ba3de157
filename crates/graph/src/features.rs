//! Node feature storage.
//!
//! Two representations exist because the workspace runs experiments at two
//! fidelities:
//!
//! * **Virtual** features carry only a dimensionality. Timing experiments
//!   (everything except the convergence study) only need to know *how many
//!   bytes* each feature row occupies when it crosses PCIe or the GPU memory
//!   hierarchy — materialising 100M × 1024 floats would be pointless.
//! * **Materialized** features hold real `f32` rows and are used when models
//!   actually train (paper Fig. 16 and the examples).

use crate::csr::NodeId;

/// Bytes per feature element; the paper's systems use FP32 throughout.
pub const BYTES_PER_ELEM: u64 = 4;

/// Node feature storage, either virtual (sizes only) or materialized.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureStore {
    dim: usize,
    data: Option<Vec<f32>>,
    num_rows: u64,
}

impl FeatureStore {
    /// A virtual store: `num_rows` rows of `dim` f32 elements that occupy
    /// space in the simulator but hold no actual values.
    pub fn virtual_store(num_rows: u64, dim: usize) -> Self {
        Self {
            dim,
            data: None,
            num_rows,
        }
    }

    /// A materialized store over a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a multiple of `dim`, or `dim == 0`.
    pub fn materialized(data: Vec<f32>, dim: usize) -> Self {
        assert!(dim > 0, "feature dim must be positive");
        assert!(
            data.len().is_multiple_of(dim),
            "feature buffer length {} not a multiple of dim {}",
            data.len(),
            dim
        );
        let num_rows = (data.len() / dim) as u64;
        Self {
            dim,
            data: Some(data),
            num_rows,
        }
    }

    /// Feature dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of feature rows (= number of nodes).
    #[inline]
    pub fn num_rows(&self) -> u64 {
        self.num_rows
    }

    /// The full flat buffer when materialized.
    pub fn as_slice(&self) -> Option<&[f32]> {
        self.data.as_deref()
    }

    /// One node's feature row when materialized.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn row(&self, node: NodeId) -> Option<&[f32]> {
        self.data.as_ref().map(|d| {
            let i = node.index() * self.dim;
            &d[i..i + self.dim]
        })
    }

    /// Bytes occupied by one feature row.
    #[inline]
    pub fn row_bytes(&self) -> u64 {
        self.dim as u64 * BYTES_PER_ELEM
    }

    /// Bytes occupied by the whole store.
    #[inline]
    pub fn total_bytes(&self) -> u64 {
        self.num_rows * self.row_bytes()
    }

    /// Gathers the rows of `nodes` into a dense row-major buffer — the CPU
    /// side "organise the data to be consecutive" step of the memory IO
    /// phase (paper §7(3)).
    ///
    /// Returns `None` for virtual stores.
    pub fn gather(&self, nodes: &[NodeId]) -> Option<Vec<f32>> {
        let data = self.data.as_ref()?;
        let mut out = Vec::with_capacity(nodes.len() * self.dim);
        for &n in nodes {
            let i = n.index() * self.dim;
            out.extend_from_slice(&data[i..i + self.dim]);
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_store_reports_sizes() {
        let f = FeatureStore::virtual_store(100, 256);
        assert_eq!(f.dim(), 256);
        assert_eq!(f.num_rows(), 100);
        assert_eq!(f.row_bytes(), 1024);
        assert_eq!(f.total_bytes(), 102_400);
        assert!(f.row(NodeId(0)).is_none());
        assert!(f.gather(&[NodeId(0)]).is_none());
        assert!(f.as_slice().is_none());
    }

    #[test]
    fn materialized_row_access() {
        let f = FeatureStore::materialized(vec![1.0, 2.0, 3.0, 4.0], 2);
        assert_eq!(f.num_rows(), 2);
        assert_eq!(f.row(NodeId(1)).unwrap(), &[3.0, 4.0]);
    }

    #[test]
    fn gather_concatenates_rows() {
        let f = FeatureStore::materialized(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2);
        let g = f.gather(&[NodeId(2), NodeId(0)]).unwrap();
        assert_eq!(g, vec![5.0, 6.0, 1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn materialized_rejects_ragged_buffer() {
        let _ = FeatureStore::materialized(vec![1.0, 2.0, 3.0], 2);
    }

    #[test]
    #[should_panic(expected = "dim must be positive")]
    fn materialized_rejects_zero_dim() {
        let _ = FeatureStore::materialized(vec![], 0);
    }
}
