//! The `COM(i)` view-exchange subroutine (Algorithm 1 of the paper).
//!
//! > ```text
//! > Algorithm COM(i)
//! >   send B^i(u) to all neighbors;
//! >   foreach neighbor v of u: receive B^i(v) from v
//! > ```
//!
//! When all nodes repeat the subroutine for `i = 0, ..., t-1`, every node
//! acquires its augmented truncated view at depth `t`. [`ComNode`] implements
//! exactly this behaviour as a [`NodeAlgorithm`]: in round `i` it sends its
//! current `B^i` (together with the local port number of the edge, which the
//! sender knows) and assembles `B^{i+1}` from the received views. This makes
//! the statement "the knowledge of a node after `r` rounds is `B^r(v)`"
//! executable, and it is the communication layer of the minimum-time election
//! algorithm.
//!
//! ## Representation: hash-consed views
//!
//! A materialized view tree grows like `Δ^depth`, so shipping explicit
//! [`AugmentedView`]s caps the exchange at toy graphs. [`ComNode`] instead
//! exchanges [`ViewId`]s against a [`ShardedViewArena`] shared by all nodes
//! of one run: a message is two words (`sender_port` + the id of the
//! sender's current view), and assembling `B^{i+1}` interns one
//! `O(Δ)`-word record. Per round the whole network therefore moves `O(m)`
//! words and performs `O(m)` amortized work, instead of `O(m · Δ^round)` —
//! which is what lets the election pipeline run on the million-node
//! benchmark graphs.
//!
//! The shared arena is a *simulation device*, not an information channel: a
//! node only ever dereferences ids it received on its ports or interned
//! itself, so the knowledge available to the algorithm is still exactly
//! `B^r(v)`. The original tree-shipping implementation survives as
//! [`TreeComNode`] / [`exchange_views_tree`] and is the correctness oracle
//! the property tests compare against.
//!
//! Because the shared arena is mutex-*striped* (16 independent shards keyed
//! by the structural hash) rather than a single mutex, concurrent
//! [`ComNode::receive`](crate::runner::NodeAlgorithm::receive) calls from
//! the multi-threaded [`AdvRunner`](crate::adv::AdvRunner) intern in
//! parallel with low contention. Interleaving can change the *numeric* ids
//! a run mints, but never which records exist — every structural
//! observable (materialized views, class partitions, election outputs) is
//! schedule-independent, which the transcript-equality and arena-oracle
//! property tests pin down.
//!
//! ```
//! use anet_graph::generators;
//! use anet_sim::com::{exchange_view_ids, exchange_views_tree};
//!
//! let g = generators::lollipop(4, 3);
//! let (arena, ids) = exchange_view_ids(&g, 2).unwrap();
//! // The ids deposited by the message-passing run materialize to exactly
//! // the views the tree-shipping oracle acquires.
//! let oracle = exchange_views_tree(&g, 2).unwrap();
//! for v in g.nodes() {
//!     assert_eq!(arena.materialize(ids[v]), oracle[v]);
//! }
//! ```
//!
//! ## Behaviour under faults
//!
//! `COM` is specified for the clean synchronous model, where every neighbor
//! sends in every round. When the adversarial engine withholds a message
//! (crash, drop, churn), a `ComNode` cannot assemble a well-formed deeper
//! view; it *stalls* — permanently stops advancing and never halts — rather
//! than fabricating an output. A raw `COM` run under faults therefore
//! fails loudly (the runner's round cap reports unhalted nodes), never
//! wrongly; fault *tolerance* is layered on top by the
//! [`ReliableLink`](crate::link::ReliableLink) and
//! [`Restartable`](crate::restart::Restartable) wrappers.

use std::sync::Arc;

use anet_graph::{Graph, PortPath};
use anet_views::{AugmentedView, ShardedViewArena, ViewId};
use parking_lot::Mutex;

use crate::error::SimError;
use crate::runner::{NodeAlgorithm, SyncRunner};

/// The view arena shared by all node instances of one `COM` run. The arena
/// is internally striped, so node instances intern through a plain `Arc` —
/// no outer lock.
pub type SharedViewArena = Arc<ShardedViewArena>;

/// The message exchanged by `COM`: the sender's current view (as an arena
/// id) together with the sender-side port number of the edge it is sent on.
/// The sender-side port is part of what a neighbor learns in the paper's
/// model (it appears as the reverse port in the receiver's next view).
#[derive(Debug, Clone, Copy)]
pub struct ViewMessage {
    /// The port number at the *sender* of the edge this message travels on.
    pub sender_port: usize,
    /// The sender's current augmented truncated view `B^i`, interned.
    pub view: ViewId,
}

/// A node algorithm that runs `COM(0), ..., COM(target_depth - 1)` and then
/// halts, handing its accumulated view `B^target_depth(u)` — as an id into
/// the run's shared arena — to a continuation that produces the election
/// output.
pub struct ComNode<F>
where
    F: FnMut(&ShardedViewArena, ViewId) -> PortPath,
{
    arena: SharedViewArena,
    degree: usize,
    target_depth: usize,
    /// The current view `B^i(u)`; `B^0(u)` right after `init`.
    current: Option<ViewId>,
    /// Set when a round was missing a neighbor's message: the node can no
    /// longer assemble well-formed views and refuses to ever halt.
    stalled: bool,
    /// What to do with `B^target_depth(u)` once acquired.
    finish: F,
}

impl<F> ComNode<F>
where
    F: FnMut(&ShardedViewArena, ViewId) -> PortPath,
{
    /// Creates a node that exchanges views for `target_depth` rounds through
    /// the shared `arena` and then outputs `finish(arena, B^target_depth(u))`.
    pub fn new(arena: SharedViewArena, target_depth: usize, finish: F) -> Self {
        ComNode {
            arena,
            degree: 0,
            target_depth,
            current: None,
            stalled: false,
            finish,
        }
    }

    /// The view the node currently holds (for inspection in tests).
    pub fn current_view(&self) -> Option<ViewId> {
        self.current
    }
}

impl<F> NodeAlgorithm for ComNode<F>
where
    F: FnMut(&ShardedViewArena, ViewId) -> PortPath,
{
    type Message = ViewMessage;

    fn init(&mut self, degree: usize) {
        self.degree = degree;
        // B^0(u): a single node labeled by the degree.
        self.current = Some(self.arena.intern_leaf(degree));
    }

    fn send(&mut self, _round: usize) -> Vec<Option<ViewMessage>> {
        if self.stalled {
            // A stalled node's view stopped deepening; re-sending it would
            // let neighbors assemble mixed-depth (i.e. fabricated) views.
            // Going silent propagates the stall instead, so a faulty run
            // can only under-deliver, never mis-deliver.
            return vec![None; self.degree];
        }
        let Some(view) = self.current else {
            // Unreachable through the runners (init always precedes send);
            // a well-formed all-silent round keeps the engine contract.
            return vec![None; self.degree];
        };
        (0..self.degree)
            .map(|p| {
                Some(ViewMessage {
                    sender_port: p,
                    view,
                })
            })
            .collect()
    }

    fn receive(&mut self, round: usize, incoming: Vec<Option<ViewMessage>>) -> Option<PortPath> {
        if self.stalled {
            return None;
        }
        if self.target_depth == 0 {
            // No communication needed: B^0 is known locally.
            let view = self.current?;
            return Some((self.finish)(&self.arena, view));
        }
        // Assemble B^{round+1}(u) from the B^{round}(neighbor)s received in
        // port order; the child on port p records the neighbor's port of the
        // connecting edge (the sender_port of the message that arrived on p).
        // A missing message means the synchronous model was violated (a
        // fault): the node stalls forever instead of guessing.
        let mut children: Vec<(usize, ViewId)> = Vec::with_capacity(incoming.len());
        for m in incoming {
            match m {
                Some(m) => children.push((m.sender_port, m.view)),
                None => {
                    self.stalled = true;
                    return None;
                }
            }
        }
        let assembled = self.arena.intern(self.degree, children);
        self.current = Some(assembled);
        if round + 1 == self.target_depth {
            Some((self.finish)(&self.arena, assembled))
        } else {
            None
        }
    }

    /// An arena message is two words: the sender port and the view id.
    fn message_size_words(_msg: &ViewMessage) -> usize {
        2
    }
}

/// Runs the `COM` exchange for `depth` rounds on every node of `g` through
/// the message-passing engine and returns the run's arena together with the
/// acquired `B^depth(v)` id per node.
///
/// This is the executable counterpart of "after `t` repetitions of `COM`,
/// every node has its augmented truncated view at depth `t`"; tests compare
/// the materialized result with [`AugmentedView::compute_all`] and with the
/// tree-shipping oracle [`exchange_views_tree`]. Errors with
/// [`SimError::Incomplete`] if a node failed to acquire its view (which a
/// clean synchronous run never does).
pub fn exchange_view_ids(
    g: &Graph,
    depth: usize,
) -> Result<(ShardedViewArena, Vec<ViewId>), SimError> {
    let arena: SharedViewArena = Arc::new(ShardedViewArena::new());
    let collected: Arc<Mutex<Vec<Option<ViewId>>>> =
        Arc::new(Mutex::new(vec![None; g.num_nodes()]));
    let runner = SyncRunner::new(g, depth + 1);
    runner.run_indexed(|slot, _degree| {
        let collected = Arc::clone(&collected);
        ComNode::new(Arc::clone(&arena), depth, move |_arena, view| {
            collected.lock()[slot] = Some(view);
            PortPath::empty()
        })
    })?;
    let mut ids: Vec<ViewId> = Vec::with_capacity(g.num_nodes());
    for (node, v) in collected.lock().iter().enumerate() {
        match v {
            Some(id) => ids.push(*id),
            None => return Err(SimError::Incomplete { node }),
        }
    }
    // All node instances (each holding an arena handle) were dropped with
    // the runner, so the try_unwrap fast path always succeeds; the clone
    // fallback keeps the function total without asserting on it.
    let arena = Arc::try_unwrap(arena).unwrap_or_else(|shared| (*shared).clone());
    Ok((arena, ids))
}

/// [`exchange_view_ids`] with the per-node views materialized as explicit
/// trees (exponential in `depth`; for tests and small graphs).
pub fn exchange_views(g: &Graph, depth: usize) -> Result<Vec<AugmentedView>, SimError> {
    let (arena, ids) = exchange_view_ids(g, depth)?;
    Ok(ids.into_iter().map(|id| arena.materialize(id)).collect())
}

// ---------------------------------------------------------------------------
// The materialized-tree oracle.
// ---------------------------------------------------------------------------

/// The tree-shipping `COM` message: the sender's current view as an explicit
/// [`AugmentedView`] tree. Exactly Algorithm 1 read literally — every
/// message carries the whole `Δ^i`-node tree — which is why this variant is
/// the *oracle*, not the workhorse.
#[derive(Debug, Clone)]
pub struct TreeViewMessage {
    /// The port number at the *sender* of the edge this message travels on.
    pub sender_port: usize,
    /// The sender's current augmented truncated view `B^i`, materialized.
    pub view: AugmentedView,
}

/// The original materialized-tree implementation of the `COM` node: it
/// clones its full current view onto every port each round and assembles the
/// received trees with [`AugmentedView::from_parts`]. Kept as the
/// correctness oracle for the arena-based [`ComNode`] (property tests assert
/// both acquire identical views) and as the executable measure of what the
/// exchange would cost without hash-consing (its
/// [`message_size_words`](NodeAlgorithm::message_size_words) reports the full
/// tree size).
pub struct TreeComNode<F>
where
    F: FnMut(&AugmentedView) -> PortPath,
{
    degree: usize,
    target_depth: usize,
    current: Option<AugmentedView>,
    stalled: bool,
    finish: F,
}

impl<F> TreeComNode<F>
where
    F: FnMut(&AugmentedView) -> PortPath,
{
    /// Creates a node that exchanges materialized views for `target_depth`
    /// rounds and then outputs `finish(B^target_depth(u))`.
    pub fn new(target_depth: usize, finish: F) -> Self {
        TreeComNode {
            degree: 0,
            target_depth,
            current: None,
            stalled: false,
            finish,
        }
    }

    /// The view the node currently holds (for inspection in tests).
    pub fn current_view(&self) -> Option<&AugmentedView> {
        self.current.as_ref()
    }
}

impl<F> NodeAlgorithm for TreeComNode<F>
where
    F: FnMut(&AugmentedView) -> PortPath,
{
    type Message = TreeViewMessage;

    fn init(&mut self, degree: usize) {
        self.degree = degree;
        self.current = Some(AugmentedView::from_parts(degree, Vec::new()));
    }

    fn send(&mut self, _round: usize) -> Vec<Option<TreeViewMessage>> {
        if self.stalled {
            return vec![None; self.degree];
        }
        let Some(view) = self.current.clone() else {
            return vec![None; self.degree];
        };
        (0..self.degree)
            .map(|p| {
                Some(TreeViewMessage {
                    sender_port: p,
                    view: view.clone(),
                })
            })
            .collect()
    }

    fn receive(
        &mut self,
        round: usize,
        incoming: Vec<Option<TreeViewMessage>>,
    ) -> Option<PortPath> {
        if self.stalled {
            return None;
        }
        if self.target_depth == 0 {
            let view = self.current.as_ref()?;
            return Some((self.finish)(view));
        }
        let mut children: Vec<(usize, AugmentedView)> = Vec::with_capacity(incoming.len());
        for m in incoming {
            match m {
                Some(m) => children.push((m.sender_port, m.view)),
                None => {
                    // A faulty round: stall instead of fabricating a view.
                    self.stalled = true;
                    return None;
                }
            }
        }
        let assembled = AugmentedView::from_parts(self.degree, children);
        let decision = if round + 1 == self.target_depth {
            Some((self.finish)(&assembled))
        } else {
            None
        };
        self.current = Some(assembled);
        decision
    }

    /// A tree message costs its full tree size plus the sender port.
    fn message_size_words(msg: &TreeViewMessage) -> usize {
        msg.view.size() + 1
    }
}

/// Runs the materialized-tree `COM` oracle for `depth` rounds and returns
/// the acquired `B^depth(v)` per node (exponential in `depth`).
pub fn exchange_views_tree(g: &Graph, depth: usize) -> Result<Vec<AugmentedView>, SimError> {
    let collected: Arc<Mutex<Vec<Option<AugmentedView>>>> =
        Arc::new(Mutex::new(vec![None; g.num_nodes()]));
    let runner = SyncRunner::new(g, depth + 1);
    runner.run_indexed(|slot, _degree| {
        let collected = Arc::clone(&collected);
        TreeComNode::new(depth, move |view: &AugmentedView| {
            collected.lock()[slot] = Some(view.clone());
            PortPath::empty()
        })
    })?;
    let views = collected.lock();
    let mut out = Vec::with_capacity(g.num_nodes());
    for (node, v) in views.iter().enumerate() {
        match v {
            Some(view) => out.push(view.clone()),
            None => return Err(SimError::Incomplete { node }),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use anet_graph::generators;

    #[test]
    fn exchange_views_matches_central_computation() {
        let graphs = [
            generators::ring(5),
            generators::star(4),
            generators::lollipop(4, 3),
            generators::caterpillar(4),
        ];
        for g in &graphs {
            for depth in 0..3 {
                let exchanged = exchange_views(g, depth).unwrap();
                let central = AugmentedView::compute_all(g, depth);
                assert_eq!(exchanged, central, "depth {depth}");
            }
        }
    }

    #[test]
    fn arena_exchange_matches_tree_oracle() {
        let graphs = [
            generators::torus(3, 3),
            generators::lollipop(4, 3),
            generators::random_connected(14, 0.2, 9),
        ];
        for g in &graphs {
            for depth in 0..3 {
                assert_eq!(
                    exchange_views(g, depth).unwrap(),
                    exchange_views_tree(g, depth).unwrap(),
                    "depth {depth}"
                );
            }
        }
    }

    #[test]
    fn exchange_views_depth_equals_rounds_used() {
        let g = generators::ring(6);
        let runner = SyncRunner::new(&g, 10);
        let arena: SharedViewArena = Arc::new(ShardedViewArena::new());
        let outcome = runner
            .run(|_| ComNode::new(Arc::clone(&arena), 3, |_arena, _v| PortPath::empty()))
            .unwrap();
        assert!(outcome.all_halted());
        assert_eq!(outcome.election_time(), Some(3));
    }

    #[test]
    fn arena_messages_are_constant_size_while_tree_messages_grow() {
        let g = generators::clique(5);
        let depth = 3;
        let runner = SyncRunner::new(&g, depth + 1);
        let arena: SharedViewArena = Arc::new(ShardedViewArena::new());
        let flat = runner
            .run(|_| ComNode::new(Arc::clone(&arena), depth, |_a, _v| PortPath::empty()))
            .unwrap();
        let tree = runner
            .run(|_| TreeComNode::new(depth, |_v| PortPath::empty()))
            .unwrap();
        assert_eq!(flat.stats.messages, tree.stats.messages);
        // Arena messages: exactly 2 words each.
        assert_eq!(flat.stats.message_words, 2 * flat.stats.messages);
        // Tree messages: the last round alone ships Δ^depth-sized trees
        // (1 + 4 + 4·4 = 21 tree nodes per message on the 5-clique at
        // depth 2), so the total volume dwarfs the arena's 2 words/message.
        assert!(tree.stats.message_words > 4 * flat.stats.message_words);
    }

    #[test]
    fn depth_zero_requires_no_information_from_neighbors() {
        let g = generators::clique(4);
        let (arena, ids) = exchange_view_ids(&g, 0).unwrap();
        for &id in &ids {
            assert_eq!(arena.depth(id), 0);
            assert_eq!(arena.degree(id), 3);
        }
        // All depth-0 views of a clique coincide: one arena record.
        assert_eq!(arena.len(), 1);
    }

    #[test]
    fn assembled_views_deepen_by_one_each_round() {
        let g = generators::torus(3, 3);
        for depth in 1..4 {
            let (arena, ids) = exchange_view_ids(&g, depth).unwrap();
            assert!(ids.iter().all(|&id| arena.depth(id) == depth));
        }
    }

    #[test]
    fn exchange_views_is_identity_invariant() {
        // Permuting node identifiers must permute the computed views: views
        // depend only on the structure, not on simulator identifiers.
        use anet_graph::relabel;
        let g = generators::lollipop(5, 3);
        let (h, perm) = relabel::random_node_permutation(&g, 77);
        let vg = exchange_views(&g, 2).unwrap();
        let vh = exchange_views(&h, 2).unwrap();
        for v in g.nodes() {
            assert_eq!(vg[v], vh[perm[v]]);
        }
    }
}
