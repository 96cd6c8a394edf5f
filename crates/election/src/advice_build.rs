//! `ComputeAdvice(G)` — Algorithm 5: the oracle-side construction of the
//! advice for minimum-time election.
//!
//! The advice consists of three items packed with the doubling `Concat` code:
//!
//! 1. `bin(φ)` — the election index, telling nodes how long to exchange
//!    views,
//! 2. `A1 = Concat(bin(E1), bin(E2))` — the discrimination tries: `E1`
//!    separates all depth-1 views; `E2` holds, for each depth `2 <= i <= φ`,
//!    the tries that further separate depth-`i` views sharing a depth-`(i-1)`
//!    label,
//! 3. `A2 = bin(T)` — the canonical BFS tree of the graph rooted at the node
//!    labeled 1, with every node labeled by its `RetrieveLabel` value.
//!
//! Theorem 3.1 bounds the total length by `O(n log n)` bits; the experiment
//! harness measures it.
//!
//! The algorithm needs the canonical order of views at every depth. The
//! production builder ([`compute_advice`]) reads it from the refinement
//! class rows the [`Instance`](crate::Instance) already caches, whose class
//! order is canonical view order: one `O(n)` pass per depth names each
//! class by a node, and no view comparison walks the arena. The
//! materialized-tree builder [`compute_advice_reference`] stays as the
//! oracle it is tested against.

use std::collections::BTreeMap;

use anet_advice::{codec, BitString, LabeledTree, Trie};
use anet_graph::{algo, Graph, NodeId};
use anet_views::{election_index, AugmentedView, ClassId, ShardedViewArena, ViewId};

use crate::error::ElectionError;
use crate::labels::{
    build_trie, build_trie_arena, decode_e2, encode_e2, retrieve_label, retrieve_label_arena,
    LabelMemo, NestedList, ViewRanks,
};

/// The advice produced by the oracle, together with the intermediate objects
/// (useful for inspection, tests and the experiment harness). Only
/// [`bits`](Advice::bits) is given to the nodes.
#[derive(Debug, Clone)]
pub struct Advice {
    /// The binary advice string handed to every node.
    pub bits: BitString,
    /// The election index `φ(G)`.
    pub phi: usize,
    /// Item `E1`: the trie discriminating all depth-1 views.
    pub e1: Trie,
    /// Item `E2`: the nested list of per-depth discrimination tries.
    pub e2: NestedList,
    /// Item `A2`: the labeled canonical BFS tree.
    pub tree: LabeledTree,
    /// The label assigned to every node (indexed by simulator node id); a
    /// permutation of `1..=n`.
    pub labels: Vec<u64>,
    /// The root of the BFS tree (the node labeled 1), i.e. the leader that
    /// will be elected.
    pub root: NodeId,
}

impl Advice {
    /// The size of the advice in bits (the quantity bounded by Theorem 3.1).
    pub fn size_bits(&self) -> usize {
        self.bits.len()
    }
}

/// The node-side decoded advice (what Algorithm `Elect` reconstructs from the
/// bit string).
#[derive(Debug, Clone)]
pub struct DecodedAdvice {
    /// The election index `φ`.
    pub phi: usize,
    /// The depth-1 discrimination trie.
    pub e1: Trie,
    /// The nested list of deeper discrimination tries.
    pub e2: NestedList,
    /// The labeled BFS tree.
    pub tree: LabeledTree,
}

/// Runs `ComputeAdvice(G)` (Algorithm 5) on the hash-consed view arena.
///
/// Every view set the algorithm manipulates comes from the session's
/// refinement ranks: grouping nodes by their depth-`(i-1)` view is a
/// counting sort on class ids, the `BuildTrie` splits compare class ids,
/// and `RetrieveLabel` runs on interned [`ViewId`]s, memoized per distinct
/// view — so the oracle side scales to the same `large_graphs()` sweep as
/// the φ engine. [`compute_advice_reference`] keeps the original
/// materialized-tree construction; both produce bit-identical advice
/// (asserted by unit and property tests).
///
/// This is a convenience wrapper building a one-shot
/// [`Instance`](crate::Instance); sessions that run several schemes on the
/// same graph should build the `Instance` themselves (the advice is then
/// computed once and cached).
///
/// Returns an error if the graph is infeasible (no advice can enable leader
/// election in that case).
pub fn compute_advice(g: &Graph) -> Result<Advice, ElectionError> {
    crate::Instance::new(g).advice().cloned()
}

/// The core of `ComputeAdvice(G)` on an already-analyzed graph: `phi` is the
/// election index, `levels[d][v]` is the interned id of `B^d(v)` in `arena`
/// and `rows[d][v]` its refinement class, for every depth `0..=phi` (the
/// shapes [`ShardedViewArena::compute_levels`] and
/// [`ViewClasses`](anet_views::ViewClasses) produce). Called by
/// [`Instance::advice`](crate::Instance::advice) against the session's
/// shared arena and class table.
///
/// Class order is canonical view order, so every view set the algorithm
/// sorts comes out of one `O(n)` pass per depth: each class is named by its
/// smallest node, `E1`'s set is the depth-1 classes in order, and `E2`'s
/// groups are the depth-`i` classes bucketed by their depth-`(i-1)` class.
pub(crate) fn compute_advice_in(
    g: &Graph,
    phi: usize,
    arena: &ShardedViewArena,
    levels: &[Vec<ViewId>],
    rows: &[&[ClassId]],
) -> Advice {
    debug_assert!(phi >= 1);
    debug_assert_eq!(levels.len(), phi + 1);
    debug_assert!(rows.len() > phi);
    let ranks = ViewRanks {
        graph: g,
        levels,
        rows,
    };
    let mut memo = LabelMemo::new();

    // E1: the trie over all distinct depth-1 views, in canonical order.
    let e1 = build_trie_arena(
        arena,
        &ranks,
        1,
        &representatives(rows[1]),
        None,
        &Vec::new(),
        &mut memo,
    );

    // E2: iteratively add one (i, L(i)) entry per depth 2..=φ.
    let mut e2: NestedList = Vec::new();
    for i in 2..=phi {
        let (starts, members) = group_by_parent(&representatives(rows[i]), rows[i - 1]);
        let mut l_i: Vec<(u64, Trie)> = Vec::new();
        // One group per depth-(i-1) view, in canonical order; its members
        // are the distinct depth-i views extending it, in canonical order.
        for w in starts.windows(2) {
            let x = &members[w[0]..w[1]];
            if x.len() > 1 {
                let b_prime = levels[i - 1][x[0]];
                let j = retrieve_label_arena(arena, b_prime, &e1, &e2, &mut memo);
                let t_j = build_trie_arena(arena, &ranks, i, x, Some(&e1), &e2, &mut memo);
                l_i.push((j, t_j));
            }
        }
        e2.push((i as u64, l_i));
    }

    // Labels at depth φ: a permutation of 1..=n (Claim 3.7 / Proposition 2.1).
    let labels: Vec<u64> = levels[phi]
        .iter()
        .map(|&id| retrieve_label_arena(arena, id, &e1, &e2, &mut memo))
        .collect();
    let root = labels
        .iter()
        .position(|&l| l == 1)
        .expect("some node is labeled 1");

    // A2: the canonical BFS tree rooted at the node labeled 1, node labels
    // from `labels`.
    let tree = build_labeled_bfs_tree(g, root, &labels);

    // Pack the advice.
    let a1 = codec::concat(&[e1.encode(), encode_e2(&e2)]);
    let a2 = tree.encode();
    let bits = codec::concat(&[BitString::from_uint(phi as u64), a1, a2]);

    Advice {
        bits,
        phi,
        e1,
        e2,
        tree,
        labels,
        root,
    }
}

/// The smallest node of every class of a dense class row, by class:
/// `reps[c]` has class `c`. Class order is canonical view order, so this is
/// the distinct views of the row, sorted.
pub(crate) fn representatives(row: &[ClassId]) -> Vec<NodeId> {
    let classes = row.iter().map(|&c| c + 1).max().unwrap_or(0);
    let mut reps = vec![NodeId::MAX; classes];
    for (v, &c) in row.iter().enumerate().rev() {
        reps[c] = v;
    }
    reps
}

/// Buckets the class representatives `reps` of depth `i` by their class in
/// `parent_row` (depth `i - 1`) with a counting sort: group `p` is
/// `members[starts[p]..starts[p + 1]]`, in the order of `reps`.
fn group_by_parent(reps: &[NodeId], parent_row: &[ClassId]) -> (Vec<usize>, Vec<NodeId>) {
    let groups = reps.iter().map(|&v| parent_row[v] + 1).max().unwrap_or(0);
    let mut starts = vec![0usize; groups + 1];
    for &v in reps {
        starts[parent_row[v] + 1] += 1;
    }
    for p in 0..groups {
        starts[p + 1] += starts[p];
    }
    let mut next = starts.clone();
    let mut members = vec![0; reps.len()];
    for &v in reps {
        let slot = &mut next[parent_row[v]];
        members[*slot] = v;
        *slot += 1;
    }
    (starts, members)
}

/// The original `ComputeAdvice` over materialized [`AugmentedView`] trees —
/// exponential in `φ`, kept verbatim as the correctness oracle for
/// [`compute_advice`] (property tests assert bit-identical advice on random
/// feasible graphs).
pub fn compute_advice_reference(g: &Graph) -> Result<Advice, ElectionError> {
    let phi = election_index(g).ok_or(ElectionError::Infeasible)?;
    debug_assert!(phi >= 1);

    // Views of every node at every needed depth; depth φ subsumes the others
    // via truncation, but keeping per-depth vectors is clearer and cheap for
    // the φ values exercised here.
    let views_phi = AugmentedView::compute_all(g, phi);

    // E1: the trie over all distinct depth-1 views.
    let views_1: Vec<AugmentedView> = views_phi.iter().map(|v| v.truncate(1)).collect();
    let distinct_1 = distinct_sorted(&views_1);
    let e1 = build_trie(&distinct_1, None, &Vec::new());

    // E2: iteratively add one (i, L(i)) entry per depth 2..=φ.
    let mut e2: NestedList = Vec::new();
    for i in 2..=phi {
        let views_im1: Vec<AugmentedView> = views_phi.iter().map(|v| v.truncate(i - 1)).collect();
        let views_i: Vec<AugmentedView> = views_phi.iter().map(|v| v.truncate(i)).collect();
        // Group nodes by their depth-(i-1) view, in canonical view order.
        let mut groups: BTreeMap<AugmentedView, Vec<NodeId>> = BTreeMap::new();
        for v in g.nodes() {
            groups.entry(views_im1[v].clone()).or_default().push(v);
        }
        let mut l_i: Vec<(u64, Trie)> = Vec::new();
        for (b_prime, nodes) in &groups {
            let x = distinct_sorted(
                &nodes
                    .iter()
                    .map(|&v| views_i[v].clone())
                    .collect::<Vec<_>>(),
            );
            if x.len() > 1 {
                let j = retrieve_label(b_prime, &e1, &e2);
                let t_j = build_trie(&x, Some(&e1), &e2);
                l_i.push((j, t_j));
            }
        }
        e2.push((i as u64, l_i));
    }

    // Labels at depth φ: a permutation of 1..=n (Claim 3.7 / Proposition 2.1).
    let labels: Vec<u64> = views_phi
        .iter()
        .map(|b| retrieve_label(b, &e1, &e2))
        .collect();
    let root = labels
        .iter()
        .position(|&l| l == 1)
        .expect("some node is labeled 1");

    // A2: the canonical BFS tree rooted at the node labeled 1, node labels
    // from `labels`.
    let tree = build_labeled_bfs_tree(g, root, &labels);

    // Pack the advice.
    let a1 = codec::concat(&[e1.encode(), encode_e2(&e2)]);
    let a2 = tree.encode();
    let bits = codec::concat(&[BitString::from_uint(phi as u64), a1, a2]);

    Ok(Advice {
        bits,
        phi,
        e1,
        e2,
        tree,
        labels,
        root,
    })
}

/// Decodes the advice bit string into its components (the node-side of the
/// advice contract).
pub fn decode_advice(bits: &BitString) -> Result<DecodedAdvice, ElectionError> {
    let outer = codec::decode(bits).map_err(|e| ElectionError::MalformedAdvice(e.to_string()))?;
    if outer.len() != 3 {
        return Err(ElectionError::MalformedAdvice(format!(
            "expected 3 advice items, found {}",
            outer.len()
        )));
    }
    let phi = outer[0]
        .to_uint()
        .ok_or_else(|| ElectionError::MalformedAdvice("bad election index".into()))?
        as usize;
    let a1 = codec::decode(&outer[1]).map_err(|e| ElectionError::MalformedAdvice(e.to_string()))?;
    if a1.len() != 2 {
        return Err(ElectionError::MalformedAdvice(format!(
            "expected 2 parts in A1, found {}",
            a1.len()
        )));
    }
    let e1 =
        Trie::decode_bits(&a1[0]).map_err(|e| ElectionError::MalformedAdvice(e.to_string()))?;
    let e2 = decode_e2(&a1[1]).map_err(ElectionError::MalformedAdvice)?;
    let tree = LabeledTree::decode_bits(&outer[2])
        .map_err(|e| ElectionError::MalformedAdvice(e.to_string()))?;
    Ok(DecodedAdvice { phi, e1, e2, tree })
}

/// Builds the canonical BFS tree of `g` rooted at `root` as a [`LabeledTree`]
/// whose node labels come from `labels` and whose edges carry the graph's
/// port numbers at both endpoints.
fn build_labeled_bfs_tree(g: &Graph, root: NodeId, labels: &[u64]) -> LabeledTree {
    let parent = algo::canonical_bfs_parents(g, root);
    // children[u] = list of (port_at_u, port_at_child, child).
    let mut children: Vec<Vec<(u64, u64, NodeId)>> = vec![Vec::new(); g.num_nodes()];
    for v in g.nodes() {
        if v == root {
            continue;
        }
        let u = parent[v];
        let pu = g.port_to(u, v).expect("parent adjacency") as u64;
        let pv = g.port_to(v, u).expect("child adjacency") as u64;
        children[u].push((pu, pv, v));
    }
    // Deterministic child order: by port at the parent.
    for c in &mut children {
        c.sort_unstable();
    }
    build_subtree(root, &children, labels)
}

fn build_subtree(u: NodeId, children: &[Vec<(u64, u64, NodeId)>], labels: &[u64]) -> LabeledTree {
    LabeledTree {
        label: labels[u],
        children: children[u]
            .iter()
            .map(|&(pu, pv, v)| (pu, pv, build_subtree(v, children, labels)))
            .collect(),
    }
}

/// Deduplicates and canonically sorts a collection of views.
fn distinct_sorted(views: &[AugmentedView]) -> Vec<AugmentedView> {
    let mut out = views.to_vec();
    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use anet_graph::generators;

    fn feasible_samples() -> Vec<Graph> {
        vec![
            generators::star(4),
            generators::caterpillar(4),
            generators::caterpillar(6),
            generators::lollipop(4, 3),
            generators::lollipop(5, 6),
            generators::random_connected(18, 0.15, 1),
            generators::random_connected(24, 0.1, 2),
            generators::random_tree(15, 3),
        ]
        .into_iter()
        .filter(|g| election_index(g).is_some())
        .collect()
    }

    #[test]
    fn labels_are_a_permutation_of_one_to_n() {
        for g in feasible_samples() {
            let advice = compute_advice(&g).unwrap();
            let mut labels = advice.labels.clone();
            labels.sort_unstable();
            let expected: Vec<u64> = (1..=g.num_nodes() as u64).collect();
            assert_eq!(labels, expected, "labels must be a permutation of 1..=n");
        }
    }

    #[test]
    fn arena_advice_is_bit_identical_to_reference_oracle() {
        for g in feasible_samples() {
            let arena = compute_advice(&g).unwrap();
            let reference = compute_advice_reference(&g).unwrap();
            assert_eq!(arena.bits, reference.bits, "advice bits must be identical");
            assert_eq!(arena.labels, reference.labels);
            assert_eq!(arena.root, reference.root);
            assert_eq!(arena.e1, reference.e1);
            assert_eq!(arena.e2, reference.e2);
            assert_eq!(arena.tree, reference.tree);
        }
    }

    #[test]
    fn infeasible_graphs_are_rejected() {
        assert_eq!(
            compute_advice(&generators::ring(6)).unwrap_err(),
            ElectionError::Infeasible
        );
        assert_eq!(
            compute_advice(&generators::hypercube(3)).unwrap_err(),
            ElectionError::Infeasible
        );
    }

    #[test]
    fn advice_roundtrips_through_its_binary_encoding() {
        for g in feasible_samples() {
            let advice = compute_advice(&g).unwrap();
            let decoded = decode_advice(&advice.bits).unwrap();
            assert_eq!(decoded.phi, advice.phi);
            assert_eq!(decoded.e1, advice.e1);
            assert_eq!(decoded.e2, advice.e2);
            assert_eq!(decoded.tree, advice.tree);
        }
    }

    #[test]
    fn bfs_tree_covers_all_labels_and_has_root_label_one() {
        for g in feasible_samples() {
            let advice = compute_advice(&g).unwrap();
            let mut tree_labels = advice.tree.labels();
            tree_labels.sort_unstable();
            let expected: Vec<u64> = (1..=g.num_nodes() as u64).collect();
            assert_eq!(tree_labels, expected);
            assert_eq!(advice.tree.label, 1);
            assert_eq!(advice.labels[advice.root], 1);
        }
    }

    #[test]
    fn advice_size_is_o_n_log_n() {
        // Theorem 3.1 part 1: the advice has O(n log n) bits. Check a
        // generous concrete constant on the sample graphs.
        for g in feasible_samples() {
            let advice = compute_advice(&g).unwrap();
            let n = g.num_nodes() as f64;
            let bound = 220.0 * n * (n.log2() + 1.0);
            assert!(
                (advice.size_bits() as f64) <= bound,
                "advice of {} bits exceeds bound {} for n = {}",
                advice.size_bits(),
                bound,
                n
            );
        }
    }

    #[test]
    fn malformed_advice_is_rejected() {
        assert!(decode_advice(&BitString::from_str01("10").unwrap()).is_err());
        assert!(decode_advice(&codec::concat(&[BitString::from_uint(3)])).is_err());
    }
}
