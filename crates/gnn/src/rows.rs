//! The rows a layer reads: a dense matrix, or the feature store in place.

use fastgl_graph::{FeatureStore, NodeId};
use fastgl_tensor::Matrix;

/// A layer's input: one row per local ID of its block's source space.
///
/// Layers after the first read the previous layer's output, a [`Matrix`]
/// (`From<&Matrix>`). Layer 0 reads the feature store in place through
/// the subgraph's node list ([`Rows::store`]), so a batch's features are
/// never copied into a matrix of their own. Both give a layer the same
/// values in the same order, so a model's outputs and gradients are the
/// same bits either way.
#[derive(Clone, Copy, Debug)]
pub struct Rows<'a>(Source<'a>);

#[derive(Clone, Copy, Debug)]
enum Source<'a> {
    /// Local ID `v` is row `v` of the matrix.
    Matrix(&'a Matrix),
    /// Local ID `v` is row `nodes[v]` of a row-major buffer of `dim`
    /// columns; every node's row lies inside `data`.
    Store {
        data: &'a [f32],
        dim: usize,
        nodes: &'a [NodeId],
    },
}

impl<'a> Rows<'a> {
    /// The feature rows of `nodes`, read in place: local ID `v` is the row
    /// of node `nodes[v]`.
    ///
    /// # Panics
    ///
    /// Panics if `features` is virtual or a node is outside it.
    pub fn store(features: &'a FeatureStore, nodes: &'a [NodeId]) -> Self {
        let data = features
            .as_slice()
            .expect("layers read materialized features");
        let num_rows = features.num_rows();
        for node in nodes {
            assert!(
                node.0 < num_rows,
                "node {} is outside the feature store of {num_rows} rows",
                node.0
            );
        }
        Rows(Source::Store {
            data,
            dim: features.dim(),
            nodes,
        })
    }

    /// Number of rows (local IDs).
    pub fn len(&self) -> usize {
        match self.0 {
            Source::Matrix(m) => m.rows(),
            Source::Store { nodes, .. } => nodes.len(),
        }
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Columns per row.
    pub fn cols(&self) -> usize {
        match self.0 {
            Source::Matrix(m) => m.cols(),
            Source::Store { dim, .. } => dim,
        }
    }

    /// The row of local ID `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= self.len()`.
    #[inline]
    pub fn row(&self, v: usize) -> &'a [f32] {
        match self.0 {
            Source::Matrix(m) => m.row(v),
            Source::Store { data, dim, nodes } => {
                let start = nodes[v].index() * dim;
                &data[start..start + dim]
            }
        }
    }

    /// The rows of the local IDs `locals`, copied into a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if a local ID is `>= self.len()`.
    pub fn gather(&self, locals: &[usize]) -> Matrix {
        match self.0 {
            Source::Matrix(m) => m.gather_rows(locals),
            Source::Store { data, dim, nodes } => {
                let rows: Vec<usize> = locals.iter().map(|&v| nodes[v].index()).collect();
                Matrix::gather_flat(data, dim, data.len() / dim, &rows)
            }
        }
    }

    /// Every row, in local-ID order, as a matrix of its own.
    pub fn to_matrix(&self) -> Matrix {
        match self.0 {
            Source::Matrix(m) => m.clone(),
            Source::Store { .. } => self.gather(&(0..self.len()).collect::<Vec<_>>()),
        }
    }
}

impl<'a> From<&'a Matrix> for Rows<'a> {
    fn from(m: &'a Matrix) -> Self {
        Rows(Source::Matrix(m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> FeatureStore {
        FeatureStore::materialized((0..12).map(|x| x as f32).collect(), 3)
    }

    #[test]
    fn store_rows_follow_the_node_list() {
        let features = store();
        let nodes = [NodeId(3), NodeId(0), NodeId(2)];
        let rows = Rows::store(&features, &nodes);
        assert_eq!((rows.len(), rows.cols()), (3, 3));
        assert_eq!(rows.row(0), &[9.0, 10.0, 11.0]);
        assert_eq!(rows.row(1), &[0.0, 1.0, 2.0]);
        assert_eq!(
            rows.gather(&[2, 0]).as_slice(),
            &[6.0, 7.0, 8.0, 9.0, 10.0, 11.0]
        );
        let dense = rows.to_matrix();
        let via_matrix = Rows::from(&dense);
        for v in 0..3 {
            assert_eq!(via_matrix.row(v), rows.row(v));
        }
        assert_eq!(via_matrix.gather(&[2, 0]), rows.gather(&[2, 0]));
    }

    #[test]
    #[should_panic(expected = "outside the feature store")]
    fn store_rejects_a_node_past_the_last_row() {
        let features = store();
        let _ = Rows::store(&features, &[NodeId(4)]);
    }
}
