//! # tirm-topics
//!
//! The topic-model substrate of the paper (§3): ad topic distributions
//! `γ_i`, per-topic arc influence probabilities `p^z_{u,v}`, the TIC
//! projection `p^i_{u,v} = Σ_z γ^z_i · p^z_{u,v}` (Eq. 1), per-topic
//! seed click probabilities `p^z_{H,u}` with their projected
//! click-through probabilities `δ(u,i)`, and the probability generators
//! used by the evaluation (§6): Weighted-Cascade, exponential
//! inverse-transform and topic-concentrated samplers.
//!
//! ```
//! use tirm_topics::{TopicDist, TopicEdgeProbs};
//!
//! // 3 arcs, 2 topics.
//! let mut tp = TopicEdgeProbs::new(3, 2);
//! tp.set(0, 0, 0.5);
//! tp.set(0, 1, 0.1);
//! let ad = TopicDist::new(vec![0.75, 0.25]).unwrap();
//! let projected = tp.project(&ad); // Eq. 1
//! assert!((projected[0] - 0.4).abs() < 1e-6);
//! ```

mod ctp;
mod dist;
mod edge_probs;
pub mod genprob;

pub use ctp::{CtpTable, NodeTopicProbs};
pub use dist::{TopicDist, TopicError};
pub use edge_probs::TopicEdgeProbs;
