//! # anet-sim
//!
//! A synchronous LOCAL-model simulator for anonymous port-labeled networks.
//!
//! The paper's model (Section 1): communication proceeds in synchronous
//! rounds, all nodes start simultaneously, and in each round every node can
//! exchange arbitrary messages with all of its neighbors and perform
//! arbitrary local computation. The information a node `v` has after `r`
//! rounds is exactly its augmented truncated view `B^r(v)`.
//!
//! This crate provides:
//!
//! * [`NodeAlgorithm`] — the trait a node-local algorithm implements
//!   (initialize with the local degree and the common advice, send one
//!   message per port, receive one message per port, optionally halt with an
//!   election output),
//! * [`SyncRunner`] — the clean model: the round engine of
//!   [`adv::AdvRunner`] run sequentially under
//!   [`FaultPlan::none`](fault::FaultPlan::none),
//! * [`com`] — the `COM(i)` view-exchange subroutine (Algorithm 1): nodes
//!   repeatedly exchange their augmented truncated views, so that after `t`
//!   rounds every node holds `B^t(v)`; this is both a building block of the
//!   election algorithms and the executable witness of the "knowledge after
//!   `r` rounds = `B^r(v)`" claim. The workhorse [`ComNode`] exchanges
//!   hash-consed view ids against a shared, mutex-striped
//!   [`anet_views::ShardedViewArena`]
//!   (`O(m)` words per round); the literal tree-shipping reading of
//!   Algorithm 1 survives as [`com::TreeComNode`], the correctness oracle.
//!
//! ## The adversarial execution layer
//!
//! The clean model above is the paper's synchronous fault-free one. The
//! adversarial layer relaxes it, deterministically:
//!
//! * [`fault::FaultPlan`] — a seeded, reproducible adversary schedule:
//!   per-node crash/recover events, per-port message drops and per-edge
//!   churn with bounded bursts, and per-round phase-order skew,
//! * [`dynamic::DynamicGraph`] — the per-round up/down edge view a churn
//!   plan induces over a static graph,
//! * [`adv::AdvRunner`] — the one round engine, here with the adversary
//!   and optional worker threads switched on,
//! * [`link::ReliableLink`] — a retransmit/ack adapter restoring the
//!   synchronous abstraction over dropped and churned messages,
//! * [`restart::Restartable`] — a generation-reset adapter that survives
//!   crash/restart nodes by deterministically restarting the computation,
//! * [`error::SimError`] — the typed error path (send-contract violations
//!   and incomplete mandatory runs) replacing engine panics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adv;
pub mod com;
pub mod dynamic;
pub mod error;
pub mod fault;
pub mod link;
pub mod restart;
pub mod runner;

pub use adv::AdvRunner;
pub use com::{exchange_view_ids, exchange_views, ComNode, SharedViewArena, ViewMessage};
pub use dynamic::DynamicGraph;
pub use error::SimError;
pub use fault::{ChurnSpec, CrashEvent, CrashSemantics, DropSpec, FaultPlan};
pub use link::ReliableLink;
pub use restart::Restartable;
pub use runner::{NodeAlgorithm, RunOutcome, RunStats, SyncRunner};
