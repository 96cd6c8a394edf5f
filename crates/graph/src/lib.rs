//! # anet-graph
//!
//! Port-labeled anonymous graph substrate for the reproduction of
//! *Impact of Knowledge on Election Time in Anonymous Networks*
//! (Dieudonné & Pelc, SPAA 2017).
//!
//! The model of the paper is a simple undirected connected graph whose nodes
//! carry **no identifiers**. At every node `v` of degree `d`, the incident
//! edges carry distinct *port numbers* `0..d`, and the port numbering is local
//! to each node (the two endpoints of an edge may give it unrelated ports).
//!
//! This crate provides:
//!
//! * [`Graph`] — the immutable, validated port-labeled graph representation,
//! * [`GraphBuilder`] — incremental construction with explicit or automatic
//!   port assignment,
//! * [`algo`] — BFS, distances, eccentricities, diameter, shortest paths and
//!   the port-sequence path representation used by election outputs,
//! * [`generators`] — standard topologies (rings, cliques, paths, stars,
//!   hypercubes, tori, trees, random connected graphs) with canonical port
//!   numbering,
//! * [`dot`] — Graphviz export with port labels (used to regenerate the
//!   construction figures of the paper),
//! * [`relabel`] — node/port permutations used by the lower-bound families,
//! * [`refine`] — the workspace's one colour-refinement kernel: a
//!   flat-buffer, sort-based ranking engine over any
//!   [`DartRows`](refine::DartRows) source (a graph, or a quotient base's
//!   dart rows), with bit-identical parallel passes
//!   ([`RefineOptions`](refine::RefineOptions)) and the stopping rule
//!   [`refine::until_stable`],
//! * [`canon`] — the canonical stable-partition form (the kernel's stable
//!   row) and the quotient-insensitive [`Graph::canonical_hash`] (the
//!   `anet-service` session-cache key),
//! * [`lift`] — permutation-voltage lifts (covering graphs / fibrations):
//!   adversarial generators with controlled view quotients, used by the
//!   `anet-conformance` corpus,
//! * [`quotient`] — the inverse direction: the [`MinimumBase`] every graph
//!   fibers over (Boldi–Vigna), voltages reconstructed from the fiber
//!   correspondence, the `base.lift()` round-trip certification witness,
//!   and the base-time lift validators behind `report bench-quotient`.
//!
//! Node identifiers ([`NodeId`]) exist only *inside the simulation harness*:
//! they are never available to the distributed algorithms themselves, which
//! only ever see views (`anet-views`) and port numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algo;
pub mod builder;
pub mod canon;
pub mod dot;
pub mod error;
pub mod generators;
pub mod graph;
pub mod lift;
pub mod path;
pub mod quotient;
pub mod refine;
pub mod relabel;

pub use builder::GraphBuilder;
pub use canon::CanonicalForm;
pub use error::GraphError;
pub use graph::{Graph, NodeId, Port};
pub use path::PortPath;
pub use quotient::{MinimumBase, QuotientError};
