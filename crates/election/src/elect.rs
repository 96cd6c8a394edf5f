//! Algorithm `Elect` (Algorithm 6): minimum-time leader election using the
//! oracle's advice.
//!
//! Every node, given the common advice string:
//!
//! 1. decodes `φ`, `E1`, `E2` and the labeled BFS tree,
//! 2. exchanges views with its neighbors for `φ` rounds (the `COM`
//!    subroutine), acquiring `B^φ(u)`,
//! 3. computes its unique label `x = RetrieveLabel(B^φ(u), E1, E2)`,
//! 4. outputs the port sequence of the unique tree path from the node
//!    labeled `x` to the node labeled 1 (the leader).
//!
//! [`elect_all`] runs this node algorithm on every node through the LOCAL
//! simulator, verifies the outcome, and reports the election time and advice
//! size — the two quantities Theorem 3.1 relates.
//!
//! ## Scaling notes
//!
//! The simulation exchanges hash-consed [`ViewId`]s against a shared,
//! mutex-striped [`ShardedViewArena`] (see [`anet_sim::com`]), so a round
//! moves `O(m)` words
//! instead of `O(m · Δ^round)` tree nodes. Three further purely-local
//! computations are hoisted out of the per-node closures and shared —
//! none of them changes any node's output, because all three are
//! deterministic functions of the common advice:
//!
//! * the advice string is decoded once instead of once per node,
//! * `RetrieveLabel` is memoized per distinct view across nodes
//!   ([`LabelMemo`]), and
//! * the BFS tree's parent relation is indexed once on dense indices
//!   ([`anet_advice::LabeledTree::parent_map`]) so each node's output path
//!   costs one label lookup plus its own length instead of an `O(n)` tree
//!   search, and is written once at its exact length.
//!
//! Together these make [`elect_all`] complete on the full `large_graphs()`
//! sweep (n up to 10k) in milliseconds-to-seconds; the `bench-elect` sweep
//! of `anet-bench` records the per-phase timings.

use std::sync::Arc;

use anet_advice::BitString;
use anet_graph::{Graph, NodeId, PortPath};
use anet_sim::{AdvRunner, ComNode, FaultPlan, NodeAlgorithm, RunStats, SharedViewArena};
use anet_views::{AugmentedView, ShardedViewArena, ViewId};
use parking_lot::Mutex;

use crate::advice_build::{decode_advice, Advice, DecodedAdvice};
use crate::error::ElectionError;
use crate::instance::Instance;
use crate::labels::{retrieve_label, retrieve_label_arena, LabelMemo};
use crate::verify::verify_election;

/// The result of a complete minimum-time election run.
#[derive(Debug, Clone)]
pub struct ElectionOutcome {
    /// The elected leader (simulator-level id, recovered by verification).
    pub leader: NodeId,
    /// The number of communication rounds used (must equal `φ(G)`).
    pub time: usize,
    /// The size of the advice in bits.
    pub advice_bits: usize,
    /// The election index of the graph.
    pub phi: usize,
    /// Per-node outputs (indexed by simulator node id).
    pub outputs: Vec<PortPath>,
    /// Message statistics of the simulated `COM` exchange.
    pub stats: RunStats,
    /// Number of distinct view subtrees interned by the exchange — the
    /// total working-set size of the hash-consed representation.
    pub distinct_views: usize,
}

/// The outputs and statistics of the simulated `Elect` phase, before
/// verification (so the two can be timed separately by the bench harness).
#[derive(Debug, Clone)]
pub struct Simulation {
    /// Per-node outputs (indexed by simulator node id).
    pub outputs: Vec<PortPath>,
    /// The number of communication rounds used.
    pub time: usize,
    /// Message statistics of the `COM` exchange.
    pub stats: RunStats,
    /// Number of distinct view subtrees interned by the exchange.
    pub distinct_views: usize,
}

/// Computes the node output of Algorithm `Elect` from the decoded advice and
/// the acquired view `B^φ(u)`, materialized — the purely local part of the
/// algorithm on the explicit-tree representation. Kept as the oracle the
/// arena pipeline is compared against (exponential in `φ`; tests and small
/// graphs only).
pub fn elect_output(advice: &DecodedAdvice, view: &AugmentedView) -> PortPath {
    let x = retrieve_label(view, &advice.e1, &advice.e2);
    let flat = advice
        .tree
        .path_to_root(x)
        .expect("every label appears in the advice tree");
    let ports: Vec<usize> = flat.iter().map(|&p| p as usize).collect();
    PortPath::from_flat(&ports).expect("tree paths have an even number of port entries")
}

/// Runs the full minimum-time election pipeline on `g`:
/// `ComputeAdvice` (oracle) → `Elect` on every node (through the LOCAL
/// simulator) → verification.
///
/// A thin compatibility wrapper building a one-shot
/// [`Instance`] and running the
/// [`MinTime`](crate::MinTime) scheme; sessions that run several schemes on
/// the same graph should share one `Instance` (the φ analysis and the view
/// arena are then computed once).
pub fn elect_all(g: &Graph) -> Result<ElectionOutcome, ElectionError> {
    use crate::scheme::AdviceScheme;
    let inst = Instance::new(g);
    crate::scheme::MinTime
        .elect(&inst)
        .map(ElectionOutcome::from)
}

impl From<crate::scheme::Outcome> for ElectionOutcome {
    fn from(o: crate::scheme::Outcome) -> Self {
        ElectionOutcome {
            leader: o.leader,
            time: o.time,
            advice_bits: o.advice.len(),
            phi: o.phi,
            outputs: o.outputs,
            stats: o.stats.expect("minimum-time outcomes carry COM stats"),
            distinct_views: o
                .distinct_views
                .expect("minimum-time outcomes carry the arena size"),
        }
    }
}

/// Like [`elect_all`] but reuses an already computed [`Advice`] (useful for
/// benchmarking the phases separately).
pub fn elect_all_with_advice(g: &Graph, advice: &Advice) -> Result<ElectionOutcome, ElectionError> {
    let sim = simulate_election(g, advice)?;
    let leader = verify_election(g, &sim.outputs)?;
    Ok(ElectionOutcome {
        leader,
        time: sim.time,
        advice_bits: advice.size_bits(),
        phi: advice.phi,
        outputs: sim.outputs,
        stats: sim.stats,
        distinct_views: sim.distinct_views,
    })
}

/// Runs the node side of Algorithm `Elect` on every node of `g` through the
/// LOCAL simulator, without verifying the outcome: decode the advice, run
/// `COM(0..φ)` over the shared view arena, label every node's acquired
/// `B^φ(u)` and emit its tree path to the leader.
pub fn simulate_election(g: &Graph, advice: &Advice) -> Result<Simulation, ElectionError> {
    simulate_election_in(g, &advice.bits, &Arc::new(ShardedViewArena::new()))
}

/// [`simulate_election`] from the raw advice bit string, interning against
/// the given shared view arena. An [`Instance`] session
/// passes its own arena here, so the view records built by the oracle's
/// `ComputeAdvice` phase are reused by the `COM` exchange instead of being
/// re-interned from scratch; passing a fresh arena reproduces the
/// standalone behavior exactly (the set of interned subtrees is the same
/// either way).
pub fn simulate_election_in(
    g: &Graph,
    advice_bits: &BitString,
    arena: &SharedViewArena,
) -> Result<Simulation, ElectionError> {
    // Every node independently decodes the same bit string, exactly as in
    // the model (the decoded advice is shared here only to avoid re-decoding
    // per node; decoding is deterministic so the result is identical).
    let decoded = decode_advice(advice_bits)?;
    let max_rounds = decoded.phi + 1;
    drive_com(
        g,
        &decoded,
        arena,
        &FaultPlan::none(),
        1,
        max_rounds,
        |com| com.node(),
    )
}

/// One node's `COM(φ)` instance in a [`drive_com`] run. It is handed to the
/// run's carrier, which may keep it to rebuild the node after a crash.
pub(crate) struct ComSlot {
    arena: SharedViewArena,
    phi: usize,
    acquired: Arc<Mutex<Vec<Option<ViewId>>>>,
    slot: usize,
}

impl ComSlot {
    /// A fresh `ComNode` that deposits the node's acquired `B^φ` id into the
    /// run's slot vector.
    pub(crate) fn node(&self) -> ComNode<impl FnMut(&ShardedViewArena, ViewId) -> PortPath + Send> {
        let acquired = Arc::clone(&self.acquired);
        let slot = self.slot;
        ComNode::new(Arc::clone(&self.arena), self.phi, move |_arena, view| {
            acquired.lock()[slot] = Some(view);
            PortPath::empty()
        })
    }
}

/// The node side of Algorithm `Elect`, for the clean pipeline and for
/// [`Instance::elect_under`]: `COM(0..φ)` through the round engine under
/// `plan`, each node carried by `carry` (the bare `ComNode` or a
/// reliability wrapper around it), then the purely local output
/// computation (shared across nodes; see the module docs for why this does
/// not change any node's output).
pub(crate) fn drive_com<A>(
    g: &Graph,
    decoded: &DecodedAdvice,
    arena: &SharedViewArena,
    plan: &FaultPlan,
    threads: usize,
    max_rounds: usize,
    carry: impl Fn(ComSlot) -> A,
) -> Result<Simulation, ElectionError>
where
    A: NodeAlgorithm + Send,
{
    let acquired = Arc::new(Mutex::new(vec![None; g.num_nodes()]));
    let outcome = AdvRunner::with_threads(g, max_rounds, threads).run(plan, |slot, _degree| {
        carry(ComSlot {
            arena: Arc::clone(arena),
            phi: decoded.phi,
            acquired: Arc::clone(&acquired),
            slot,
        })
    })?;
    let time = outcome
        .election_time()
        .ok_or_else(|| first_unhalted(&outcome.outputs))?;
    let ids = collect_deposits(&acquired.lock())?;
    let outputs = outputs_from_view_ids(decoded, arena, &ids)?;
    Ok(Simulation {
        outputs,
        time,
        stats: outcome.stats,
        distinct_views: arena.len(),
    })
}

/// Collects the per-node view ids a `COM` run deposited, erroring on any
/// node that halted without depositing (impossible through [`ComNode`]'s
/// callback, but the error path keeps the pipeline panic-free).
fn collect_deposits(deposited: &[Option<ViewId>]) -> Result<Vec<ViewId>, ElectionError> {
    deposited
        .iter()
        .enumerate()
        .map(|(node, v)| v.ok_or(ElectionError::NodeDidNotHalt { node }))
        .collect()
}

/// The purely local tail of Algorithm `Elect`, shared across nodes: label
/// every acquired `B^φ(u)` and emit its tree path to the leader. The
/// acquired views determine the outputs, no matter which execution model
/// delivered them.
fn outputs_from_view_ids(
    decoded: &DecodedAdvice,
    arena: &ShardedViewArena,
    ids: &[ViewId],
) -> Result<Vec<PortPath>, ElectionError> {
    let mut memo = LabelMemo::new();
    let parents = decoded.tree.parent_map();
    if let Some(label) = parents.repeated_label() {
        return Err(ElectionError::MalformedAdvice(format!(
            "label {label} appears twice in the advice tree"
        )));
    }
    let mut outputs = Vec::with_capacity(ids.len());
    for &id in ids {
        let x = retrieve_label_arena(arena, id, &decoded.e1, &decoded.e2, &mut memo);
        let node = parents.node_of(x).ok_or_else(|| {
            ElectionError::MalformedAdvice(format!("label {x} is not in the advice tree"))
        })?;
        // O(path length) walk through the dense parent index, identical to
        // LabeledTree::path_to_root, written once at its exact length.
        let mut pairs = Vec::with_capacity(parents.depth(node));
        pairs.extend(parents.hops(node).map(|(p, q)| (p as usize, q as usize)));
        outputs.push(PortPath::from_pairs(pairs));
    }
    Ok(outputs)
}

/// The error naming the first node that failed to halt.
fn first_unhalted(outputs: &[Option<PortPath>]) -> ElectionError {
    let node = outputs.iter().position(Option::is_none).unwrap_or(0);
    ElectionError::NodeDidNotHalt { node }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advice_build::compute_advice;
    use anet_graph::generators;
    use anet_views::election_index;

    fn feasible_samples() -> Vec<Graph> {
        vec![
            generators::star(4),
            generators::star(7),
            generators::caterpillar(4),
            generators::caterpillar(6),
            generators::lollipop(4, 3),
            generators::lollipop(5, 6),
            generators::random_connected(18, 0.15, 1),
            generators::random_connected(25, 0.1, 2),
            generators::random_tree(15, 3),
            generators::random_tree(20, 9),
        ]
        .into_iter()
        .filter(|g| election_index(g).is_some())
        .collect()
    }

    #[test]
    fn election_succeeds_in_exactly_phi_rounds() {
        for g in feasible_samples() {
            let phi = election_index(&g).unwrap();
            let outcome = elect_all(&g).expect("election must succeed on feasible graphs");
            assert_eq!(outcome.time, phi, "Theorem 3.1: time equals φ");
            assert_eq!(outcome.phi, phi);
        }
    }

    #[test]
    fn elected_leader_is_the_advice_root() {
        for g in feasible_samples() {
            let advice = compute_advice(&g).unwrap();
            let outcome = elect_all_with_advice(&g, &advice).unwrap();
            assert_eq!(outcome.leader, advice.root);
        }
    }

    #[test]
    fn all_outputs_are_simple_paths_to_the_leader() {
        for g in feasible_samples() {
            let outcome = elect_all(&g).unwrap();
            for (v, path) in outcome.outputs.iter().enumerate() {
                assert!(path.is_simple(&g, v));
                assert_eq!(path.endpoint(&g, v), Some(outcome.leader));
            }
        }
    }

    #[test]
    fn arena_outputs_match_tree_oracle_outputs() {
        // The per-node output of the arena pipeline must equal
        // elect_output(decoded advice, materialized B^φ(u)) — the
        // tree-based reading of Algorithm 6.
        for g in feasible_samples() {
            let advice = compute_advice(&g).unwrap();
            let decoded = decode_advice(&advice.bits).unwrap();
            let sim = simulate_election(&g, &advice).unwrap();
            let views = AugmentedView::compute_all(&g, decoded.phi);
            for v in g.nodes() {
                assert_eq!(
                    sim.outputs[v],
                    elect_output(&decoded, &views[v]),
                    "node {v}"
                );
            }
        }
    }

    #[test]
    fn exchange_stats_are_reported() {
        let g = generators::lollipop(5, 4);
        let outcome = elect_all(&g).unwrap();
        let phi = outcome.phi;
        // COM sends one 2-word message per edge direction per round.
        assert_eq!(outcome.stats.rounds, phi);
        assert_eq!(outcome.stats.messages, 2 * g.num_edges() * phi);
        assert_eq!(outcome.stats.message_words, 2 * outcome.stats.messages);
        // The arena holds at most one record per (node, depth) pair.
        assert!(outcome.distinct_views <= g.num_nodes() * (phi + 1));
        assert!(outcome.distinct_views > 0);
    }

    #[test]
    fn election_is_invariant_under_node_relabeling() {
        // The advice and outcome are functions of the structure only; if we
        // permute simulator node ids, the elected leader maps through the
        // permutation.
        use anet_graph::relabel;
        let g = generators::lollipop(5, 4);
        let (h, perm) = relabel::random_node_permutation(&g, 123);
        let og = elect_all(&g).unwrap();
        let oh = elect_all(&h).unwrap();
        assert_eq!(perm[og.leader], oh.leader);
        assert_eq!(og.time, oh.time);
        assert_eq!(og.advice_bits, oh.advice_bits);
    }

    #[test]
    fn a_repeated_tree_label_is_malformed_advice() {
        // Valid advice labels its tree with a permutation; bits whose tree
        // repeats a label must be refused, not resolved to either copy.
        use crate::labels::encode_e2;
        use anet_advice::codec;
        let g = generators::lollipop(5, 4);
        let advice = compute_advice(&g).unwrap();
        let mut tree = advice.tree.clone();
        tree.children[0].2.label = tree.label;
        let a1 = codec::concat(&[advice.e1.encode(), encode_e2(&advice.e2)]);
        let bits = codec::concat(&[BitString::from_uint(advice.phi as u64), a1, tree.encode()]);
        let arena = Arc::new(ShardedViewArena::new());
        assert!(matches!(
            simulate_election_in(&g, &bits, &arena),
            Err(ElectionError::MalformedAdvice(_))
        ));
    }

    #[test]
    fn infeasible_graph_fails_cleanly() {
        assert!(matches!(
            elect_all(&generators::ring(5)),
            Err(ElectionError::Infeasible)
        ));
    }

    #[test]
    fn star_elects_in_one_round_with_small_advice() {
        let g = generators::star(6);
        let outcome = elect_all(&g).unwrap();
        assert_eq!(outcome.time, 1);
        assert!(outcome.advice_bits > 0);
    }
}
