//! Graph serialisation: text edge lists.
//!
//! Lets users bring their own graphs (the library is not tied to the
//! synthetic generators).

use crate::builder::GraphBuilder;
use crate::csr::Csr;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};

/// Errors from graph I/O.
#[derive(Debug)]
pub enum GraphIoError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// A line of an edge list could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// The offending content.
        content: String,
    },
    /// An edge names a node outside `0..num_nodes`.
    NodeOutOfRange {
        /// 1-based line number.
        line: usize,
        /// The out-of-range node ID.
        node: u64,
        /// The node count the list is read over.
        num_nodes: u64,
    },
}

impl std::fmt::Display for GraphIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphIoError::Io(e) => write!(f, "io error: {e}"),
            GraphIoError::Parse { line, content } => {
                write!(f, "cannot parse edge on line {line}: '{content}'")
            }
            GraphIoError::NodeOutOfRange {
                line,
                node,
                num_nodes,
            } => write!(
                f,
                "edge on line {line} names node {node}, but the graph has {num_nodes} nodes"
            ),
        }
    }
}

impl std::error::Error for GraphIoError {}

impl From<std::io::Error> for GraphIoError {
    fn from(e: std::io::Error) -> Self {
        GraphIoError::Io(e)
    }
}

/// Reads a whitespace-separated `src dst` edge list (one edge per line;
/// `#`-prefixed lines and blank lines are ignored) into a CSR over
/// `num_nodes` nodes.
///
/// # Errors
///
/// Returns [`GraphIoError::Parse`] with the line number on malformed input
/// and [`GraphIoError::NodeOutOfRange`] on a node ID `>= num_nodes`.
pub fn read_edge_list<R: Read>(
    reader: R,
    num_nodes: u64,
    symmetric: bool,
) -> Result<Csr, GraphIoError> {
    let mut builder = GraphBuilder::new(num_nodes).symmetric(symmetric);
    for (idx, line) in BufReader::new(reader).lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let parse = |part: Option<&str>| -> Result<u64, GraphIoError> {
            let node = part
                .and_then(|p| p.parse().ok())
                .ok_or_else(|| GraphIoError::Parse {
                    line: idx + 1,
                    content: trimmed.to_string(),
                })?;
            if node >= num_nodes {
                return Err(GraphIoError::NodeOutOfRange {
                    line: idx + 1,
                    node,
                    num_nodes,
                });
            }
            Ok(node)
        };
        let u = parse(parts.next())?;
        let v = parse(parts.next())?;
        builder.push_edge(u, v);
    }
    Ok(builder.build())
}

/// Writes a graph as a `src dst` edge list.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_edge_list<W: Write>(graph: &Csr, writer: W) -> Result<(), GraphIoError> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# fastgl edge list: {} nodes", graph.num_nodes())?;
    for (u, v) in graph.edges() {
        writeln!(w, "{} {}", u.0, v.0)?;
    }
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::rmat::{self, RmatConfig};

    #[test]
    fn edge_list_round_trip() {
        let g = rmat::generate(&RmatConfig::social(200, 1_500), 3);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let back = read_edge_list(&buf[..], 200, false).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn edge_list_skips_comments_and_blanks() {
        let text = "# header\n\n0 1\n  2 3  \n# trailing\n";
        let g = read_edge_list(text.as_bytes(), 4, false).unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn edge_list_reports_bad_line() {
        let text = "0 1\nnot an edge\n";
        match read_edge_list(text.as_bytes(), 4, false) {
            Err(GraphIoError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn edge_list_in_range_is_unchanged() {
        let g = read_edge_list("0 1\n3 2\n1 3\n".as_bytes(), 4, false).unwrap();
        let edges: Vec<(u64, u64)> = g.edges().map(|(u, v)| (u.0, v.0)).collect();
        assert_eq!(edges, [(0, 1), (1, 3), (3, 2)]);
    }

    #[test]
    fn edge_list_rejects_nodes_out_of_range() {
        // Wrapping modulo the node count would read `6 3` as 2→3 and `5 1`
        // as a self-loop that the builder drops.
        for (text, line, node) in [("0 1\n6 3\n", 2, 6), ("5 1\n", 1, 5), ("0 4\n", 1, 4)] {
            match read_edge_list(text.as_bytes(), 4, false) {
                Err(GraphIoError::NodeOutOfRange {
                    line: l,
                    node: n,
                    num_nodes: 4,
                }) => assert_eq!((l, n), (line, node), "{text:?}"),
                other => panic!("expected an out-of-range error for {text:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn edge_list_over_zero_nodes_is_an_error() {
        // Every ID is out of range, so this must not reach the builder's
        // remainder by zero.
        let err = read_edge_list("0 0\n".as_bytes(), 0, true).unwrap_err();
        assert!(
            matches!(err, GraphIoError::NodeOutOfRange { num_nodes: 0, .. }),
            "{err:?}"
        );
        assert!(err.to_string().contains("line 1"), "{err}");
    }

    #[test]
    fn edge_list_symmetric_mode() {
        let g = read_edge_list("0 1\n".as_bytes(), 2, true).unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn error_display_is_informative() {
        let e = GraphIoError::Parse {
            line: 7,
            content: "x y".into(),
        };
        assert!(e.to_string().contains("line 7"));
    }
}
