//! # tirm-graph
//!
//! Directed social-graph substrate for the `tirm` workspace: a compact
//! compressed-sparse-row (CSR) digraph with both forward and reverse
//! adjacency, deterministic random-graph generators shaped like the four
//! networks used in the paper's evaluation (FLIXSTER, EPINIONS, DBLP,
//! LIVEJOURNAL), edge-list IO, a versioned binary [`snapshot`] format that
//! loads a finished CSR (plus per-topic arc probabilities) without
//! re-sorting, summary statistics, and the small hand-constructed gadgets
//! used by the paper (the Fig. 1 toy network and the 3-PARTITION reduction
//! of Theorem 1).
//!
//! Graphs are built either by buffering arcs in a [`GraphBuilder`] or — for
//! paper-scale inputs — by streaming them twice through
//! [`build_from_stream`], which keeps peak memory at the size of the final
//! CSR.
//!
//! Arc semantics follow the paper (§3): an arc `(u, v)` means *v follows u*,
//! i.e. information flows from `u` to `v`.
//!
//! ```
//! use tirm_graph::{GraphBuilder, DiGraph};
//!
//! let mut b = GraphBuilder::new(4);
//! b.add_edge(0, 1);
//! b.add_edge(0, 2);
//! b.add_edge(2, 3);
//! let g: DiGraph = b.build();
//! assert_eq!(g.num_nodes(), 4);
//! assert_eq!(g.num_edges(), 3);
//! assert_eq!(g.out_degree(0), 2);
//! assert_eq!(g.in_degree(3), 1);
//! ```

mod builder;
mod csr;
pub mod gadgets;
pub mod generators;
pub mod io;
pub mod relabel;
pub mod snapshot;
pub mod stats;

pub use builder::{build_from_stream, GraphBuilder};
pub use csr::{CsrParts, DiGraph, EdgeId, NodeId};
pub use relabel::Relabeling;
pub use snapshot::{
    read_snapshot, read_words_file, read_words_stream, write_atomic, write_atomic_with,
    write_snapshot, write_words_file, write_words_stream, Snapshot, SnapshotError,
};
pub use stats::GraphStats;
