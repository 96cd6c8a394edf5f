//! # anet-advice
//!
//! The advice substrate of the reproduction of *Impact of Knowledge on
//! Election Time in Anonymous Networks* (Dieudonné & Pelc, SPAA 2017).
//!
//! Advice in the paper is a single binary string handed by an oracle (which
//! knows the whole graph) to **every** node. This crate provides the objects
//! that string is made of and the self-delimiting encodings used to pack and
//! unpack them:
//!
//! * [`BitString`] — an ordered sequence of bits with integer conversions
//!   (`bin(x)` in the paper),
//! * [`codec`] — the doubling `Concat`/`Decode` code of Section 3: each
//!   substring has its bits doubled and substrings are separated by `01`,
//!   which makes the concatenation uniquely decodable at the cost of a
//!   constant factor,
//! * [`trie`] — the binary tries whose internal nodes carry discrimination
//!   queries `(a, b)` and whose leaves correspond to nodes of the graph,
//! * [`tree`] — rooted labeled trees with port numbers on both edge
//!   endpoints (the BFS tree shipped as item `A2` of the advice), with a
//!   uniquely decodable binary codec of length `O(n log n)` (Proposition 3.1).
//!
//! The crate is deliberately independent of the graph and view crates: it
//! manipulates plain bits, integers and trees, exactly like the oracle's
//! output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitstring;
pub mod codec;
pub mod tree;
pub mod trie;

pub use bitstring::BitString;
pub use codec::{concat, decode};
pub use tree::{LabeledTree, ParentIndex};
pub use trie::{Query, Trie};
