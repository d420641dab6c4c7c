//! Plain-text edge-list IO in the SNAP style used by the paper's data sets:
//! one `source target` pair per line, `#`-prefixed comment lines ignored.

use crate::builder::GraphBuilder;
use crate::csr::{DiGraph, NodeId};
use std::io::{self, BufRead, Write};

/// Errors raised while parsing an edge list.
#[derive(Debug)]
pub enum ParseError {
    /// Underlying IO failure.
    Io(io::Error),
    /// A line that is neither a comment nor a `u v` pair.
    Malformed { line_no: usize, content: String },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Io(e) => write!(f, "io error: {e}"),
            ParseError::Malformed { line_no, content } => {
                write!(f, "malformed edge on line {line_no}: {content:?}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

impl From<io::Error> for ParseError {
    fn from(e: io::Error) -> Self {
        ParseError::Io(e)
    }
}

/// Parses an edge list from any reader. Node ids may be sparse in the input;
/// they are remapped to a dense `0..n` range in first-appearance order.
/// Returns the graph and the original ids indexed by dense id.
pub fn read_edge_list<R: BufRead>(
    reader: R,
    undirected: bool,
) -> Result<(DiGraph, Vec<u64>), ParseError> {
    let mut remap: std::collections::HashMap<u64, NodeId> = std::collections::HashMap::new();
    let mut original: Vec<u64> = Vec::new();
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    let mut intern = |raw: u64, original: &mut Vec<u64>| -> NodeId {
        *remap.entry(raw).or_insert_with(|| {
            let id = original.len() as NodeId;
            original.push(raw);
            id
        })
    };
    for (line_no, line) in reader.lines().enumerate() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
            continue;
        }
        let mut parts = t.split_whitespace();
        let (a, b) = match (parts.next(), parts.next()) {
            (Some(a), Some(b)) => (a, b),
            _ => {
                return Err(ParseError::Malformed {
                    line_no: line_no + 1,
                    content: t.to_string(),
                })
            }
        };
        let pa: u64 = a.parse().map_err(|_| ParseError::Malformed {
            line_no: line_no + 1,
            content: t.to_string(),
        })?;
        let pb: u64 = b.parse().map_err(|_| ParseError::Malformed {
            line_no: line_no + 1,
            content: t.to_string(),
        })?;
        let u = intern(pa, &mut original);
        let v = intern(pb, &mut original);
        edges.push((u, v));
        if undirected {
            edges.push((v, u));
        }
    }
    let mut b = GraphBuilder::with_capacity(original.len(), edges.len());
    for (u, v) in edges {
        b.add_edge(u, v);
    }
    Ok((b.build(), original))
}

/// Writes the graph as a `u v` edge list with a stats header comment.
pub fn write_edge_list<W: Write>(g: &DiGraph, mut w: W) -> io::Result<()> {
    writeln!(w, "# nodes: {} edges: {}", g.num_nodes(), g.num_edges())?;
    for (_, u, v) in g.edges() {
        writeln!(w, "{u} {v}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let g = crate::generators::erdos_renyi(30, 100, 5);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let (g2, original) = read_edge_list(&buf[..], false).unwrap();
        assert_eq!(g2.num_edges(), g.num_edges());
        // Ids are remapped by first appearance; map back and compare sets.
        let mut e1: Vec<(u64, u64)> = g.edges().map(|(_, u, v)| (u as u64, v as u64)).collect();
        let mut e2: Vec<(u64, u64)> = g2
            .edges()
            .map(|(_, u, v)| (original[u as usize], original[v as usize]))
            .collect();
        e1.sort_unstable();
        e2.sort_unstable();
        assert_eq!(e1, e2);
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let text = "# header\n\n% other comment\n0 1\n1 2\n";
        let (g, _) = read_edge_list(text.as_bytes(), false).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn undirected_flag_doubles_arcs() {
        let text = "5 9\n";
        let (g, orig) = read_edge_list(text.as_bytes(), true).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(orig, vec![5, 9]);
    }

    #[test]
    fn malformed_line_reported_with_number() {
        let text = "0 1\nnot numbers\n";
        let err = read_edge_list(text.as_bytes(), false).unwrap_err();
        match err {
            ParseError::Malformed { line_no, .. } => assert_eq!(line_no, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn sparse_ids_remapped_densely() {
        let text = "100 200\n200 300\n";
        let (g, orig) = read_edge_list(text.as_bytes(), false).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(orig, vec![100, 200, 300]);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 2));
    }
}
