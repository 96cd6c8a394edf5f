//! The label machinery of the minimum-time election algorithm:
//! `LocalLabel` (Algorithm 2), `RetrieveLabel` (Algorithm 3) and `BuildTrie`
//! (Algorithm 4).
//!
//! These procedures are executed both by the oracle (while constructing the
//! advice) and by the nodes (while interpreting it); the code here is shared
//! verbatim between the two sides, which is exactly what makes the advice
//! consistent.
//!
//! All three procedures manipulate augmented truncated views. The paper's
//! "lexicographic order of binary representations" is realized by the
//! canonical order of [`AugmentedView`] for views of depth `>= 2`, and by the
//! paper-exact `bin(B^1)` code (see [`crate::encoding`]) for views of depth
//! 1 — the depth-1 trie queries literally ask about bits of that code.
//!
//! The oracle side builds its tries over the refinement ranks of the graph
//! ([`ViewRanks`]): class order is canonical view order, so finding the two
//! smallest views of a set is one scan over integers. `RetrieveLabel` has a
//! single arena implementation, [`retrieve_label_arena`], which both the
//! oracle and the nodes call.

use std::collections::HashMap;

use anet_advice::{codec, BitString, Trie};
use anet_graph::{Graph, NodeId};
use anet_views::{AugmentedView, ClassId, ShardedViewArena, ViewId};

use crate::encoding::{bin_b1, bin_b1_arena};

/// The nested list `E2` of the advice: one entry `(i, L(i))` per depth
/// `2 <= i <= φ`, where `L(i)` is a list of `(j, T_j)` couples — `j` is a
/// depth-`(i-1)` label and `T_j` is the trie discriminating the depth-`i`
/// views of the nodes labeled `j` at depth `i-1`.
pub type NestedList = Vec<(u64, Vec<(u64, Trie)>)>;

/// `LocalLabel(B, X, T)` — Algorithm 2.
///
/// Walks the trie `T`, answering each query either from the binary
/// representation of `B` (when the temporary-label list `X` is empty — the
/// depth-1 case) or from the labels of the children of `B` listed in `X`.
/// Returns a label in `{1, ..., num_leaves(T)}`.
pub fn local_label(b: &AugmentedView, x: &[u64], t: &Trie) -> u64 {
    match t {
        Trie::Leaf => 1,
        Trie::Internal {
            query, left, right, ..
        } => {
            let (qx, qy) = *query;
            let go_left = if x.is_empty() {
                let bits = bin_b1(b);
                if qx == 0 {
                    // "Is the binary representation shorter than y?"
                    (bits.len() as u64) < qy
                } else {
                    // "Is the y-th bit (1-based) of the binary representation 0?"
                    // A missing bit (shorter string) cannot occur for views
                    // reaching this query along a consistent trie; treat an
                    // absent bit as 0 defensively.
                    !bits.bit((qy as usize).saturating_sub(1)).unwrap_or(false)
                }
            } else {
                // "Is the (x+1)-th term of X different from y?"
                x.get(qx as usize).copied() != Some(qy)
            };
            if go_left {
                local_label(b, x, left)
            } else {
                left.num_leaves() as u64 + local_label(b, x, right)
            }
        }
    }
}

/// `RetrieveLabel(B, E1, E2)` — Algorithm 3.
///
/// Computes the temporary integer label of the view `B` (of any depth
/// `1 <= d <= φ`): a value in `{1, ..., |S_d|}` where `S_d` is the set of
/// depth-`d` views of the graph, different for different views of the same
/// depth (Claims 3.4 and 3.7).
pub fn retrieve_label(b: &AugmentedView, e1: &Trie, e2: &NestedList) -> u64 {
    let d = b.depth();
    assert!(d >= 1, "RetrieveLabel requires a view of positive depth");
    if d == 1 {
        return local_label(b, &[], e1);
    }
    // Labels of the children (the depth-(d-1) views of the neighbors), in
    // port order.
    let x: Vec<u64> = b
        .children()
        .iter()
        .map(|(_, sub)| retrieve_label(sub, e1, e2))
        .collect();
    // Label of our own depth-(d-1) truncation.
    let b_prime = b.truncate(d - 1);
    let label = retrieve_label(&b_prime, e1, e2);
    // L = the list attached to depth d in E2 (possibly absent => empty).
    let empty: Vec<(u64, Trie)> = Vec::new();
    let l: &Vec<(u64, Trie)> = e2
        .iter()
        .find(|(depth, _)| *depth == d as u64)
        .map(|(_, list)| list)
        .unwrap_or(&empty);
    let mut sum = 0u64;
    for i in 1..=label {
        if let Some((_, t)) = l.iter().find(|(j, _)| *j == i) {
            if i < label {
                sum += t.num_leaves() as u64;
            } else {
                sum += local_label(b, &x, t);
            }
        } else {
            sum += 1;
        }
    }
    sum
}

/// `BuildTrie(S, E1, E2)` — Algorithm 4.
///
/// `S` must be a non-empty set of *distinct* views of the same positive
/// depth. When `e1` is `None` (the paper's `E1 = ∅`), the views are
/// discriminated by their `bin(B^1)` representations (this branch is only
/// ever taken for depth-1 views). Otherwise they are discriminated through
/// the labels of their children using the discriminatory index and subview.
pub fn build_trie(s: &[AugmentedView], e1: Option<&Trie>, e2: &NestedList) -> Trie {
    assert!(!s.is_empty(), "BuildTrie requires a non-empty set");
    if s.len() == 1 {
        return Trie::leaf();
    }
    let (val, s_prime): ((u64, u64), Vec<AugmentedView>) = match e1 {
        None => {
            let bins: Vec<BitString> = s.iter().map(bin_b1).collect();
            let max = bins.iter().map(BitString::len).max().unwrap();
            let min = bins.iter().map(BitString::len).min().unwrap();
            if min < max {
                // Query (0, max): "is your representation shorter than max?"
                let subset: Vec<AugmentedView> = s
                    .iter()
                    .zip(&bins)
                    .filter(|(_, b)| b.len() < max)
                    .map(|(v, _)| v.clone())
                    .collect();
                ((0, max as u64), subset)
            } else {
                // All lengths equal: find the first differing (1-based) bit.
                let j = (0..max)
                    .find(|&i| {
                        let first = bins[0].bit(i);
                        bins.iter().any(|b| b.bit(i) != first)
                    })
                    .expect("distinct views must have differing representations")
                    + 1;
                let subset: Vec<AugmentedView> = s
                    .iter()
                    .zip(&bins)
                    .filter(|(_, b)| !b.bit(j - 1).unwrap())
                    .map(|(v, _)| v.clone())
                    .collect();
                ((1, j as u64), subset)
            }
        }
        Some(e1_trie) => {
            let (index, b_disc) = discriminatory_index_and_subview(s);
            let subset: Vec<AugmentedView> = s
                .iter()
                .filter(|v| v.children()[index].1 != b_disc)
                .cloned()
                .collect();
            ((index as u64, retrieve_label(&b_disc, e1_trie, e2)), subset)
        }
    };
    let s_rest: Vec<AugmentedView> = s.iter().filter(|v| !s_prime.contains(v)).cloned().collect();
    debug_assert!(!s_prime.is_empty() && !s_rest.is_empty());
    let e1_for_rec = e1;
    Trie::internal(
        val,
        build_trie(&s_prime, e1_for_rec, e2),
        build_trie(&s_rest, e1_for_rec, e2),
    )
}

/// The discriminatory index and discriminatory subview of a set `S` of at
/// least two views of depth `>= 2` that are all identical at depth `l - 1`
/// (Section 3).
///
/// The index is the smallest port `i` at which the children of the two
/// canonically-smallest views of `S` differ; the subview is the smaller of
/// the two differing children.
pub fn discriminatory_index_and_subview(s: &[AugmentedView]) -> (usize, AugmentedView) {
    assert!(s.len() >= 2);
    assert!(s[0].depth() >= 2, "discriminatory index needs depth >= 2");
    let mut sorted: Vec<&AugmentedView> = s.iter().collect();
    sorted.sort();
    let (a, b) = (sorted[0], sorted[1]);
    for i in 0..a.children().len() {
        let ca = &a.children()[i].1;
        let cb = &b.children()[i].1;
        if ca != cb {
            let disc = if ca < cb { ca.clone() } else { cb.clone() };
            return (i, disc);
        }
    }
    panic!("views identical at depth l-1 but equal at depth l cannot both be in S");
}

// ---------------------------------------------------------------------------
// Arena-based label engine.
//
// The functions below answer the same discrimination queries as their
// tree-based counterparts above, but against hash-consed `ViewId`s of a
// [`ShardedViewArena`]: equality of subviews is id equality (O(1)), and
// `bin(B^1)` queries read the `O(Δ)` arena record directly. `BuildTrie`
// names views by nodes and takes the canonical order from the refinement
// ranks of [`ViewRanks`], so no view comparison walks the arena. All arena
// methods take `&self`
// (the sharding hides the interior locking), so the label engine threads a
// plain shared reference. `retrieve_label_arena` additionally memoizes per
// distinct view and replaces the `Θ(label)` summation loop of the
// pseudocode by a lookup in a per-depth index of `L` (sorted labels and
// prefix sums of their leaf counts, see [`LabelMemo`]): one binary search
// plus at most one `LocalLabel` walk of `O(height)`, since tries cache
// their leaf counts. That is what makes labeling all n nodes of a
// 100k-node graph take seconds. The tree-based functions remain the
// oracle: on interned copies of the same views both engines produce
// identical labels and identical tries (asserted by unit and property
// tests).
// ---------------------------------------------------------------------------

/// The per-operation memo caches of the arena label engine, shared across
/// all label queries of one advice computation or one election run.
///
/// * `labels` — `RetrieveLabel` results per distinct view. An entry, once
///   computed, stays valid while `E2` grows deeper entries: the label of a
///   depth-`d` view only consults `E2` entries for depths `<= d`, and
///   `ComputeAdvice` finalizes those before labeling any depth-`d` view.
/// * `bins` — the paper-exact `bin(B^1)` code per distinct depth-1 view
///   (the hot pure operation of the depth-1 trie machinery, in the same
///   spirit as the arena's internal `truncate_one` memo). A view's code is
///   immutable, so entries never invalidate.
/// * `depths` — one index of `L(d)` per depth `d` (`DepthIndex`), built
///   the first time a depth-`d` view is labeled. It stays valid by the same
///   rule as `labels`: `ComputeAdvice` finalizes `L(d)` before it labels
///   any depth-`d` view, and only ever appends to `E2`.
#[derive(Debug, Default)]
pub struct LabelMemo {
    pub(crate) labels: HashMap<ViewId, u64>,
    pub(crate) bins: HashMap<ViewId, BitString>,
    depths: HashMap<usize, DepthIndex>,
}

impl LabelMemo {
    /// Creates empty caches.
    pub fn new() -> Self {
        LabelMemo::default()
    }
}

/// The index of one list `L(d)` that turns `RetrieveLabel`'s summation into
/// a binary search.
///
/// `RetrieveLabel` sums, over `i` in `1..=own`, `num_leaves(T_i)` for the
/// first entry labeled `i < own` in `L`, the `LocalLabel` of `T_own` for
/// `i == own`, and 1 for every absent `i`. With only the first entry per
/// label kept, and labels outside `1..` dropped (the sum never reaches
/// them), that is `own + prefix[k]` plus `LocalLabel(T_own) − 1` when
/// `own` is present, where `k` counts the kept labels below `own`.
#[derive(Debug, Default)]
struct DepthIndex {
    /// `(label, position in L(d))` of the first entry per label `>= 1`,
    /// ascending by label.
    firsts: Vec<(u64, usize)>,
    /// `prefix[k]` = the sum of `num_leaves − 1` over the tries of
    /// `firsts[..k]`; one longer than `firsts`.
    prefix: Vec<u64>,
}

impl DepthIndex {
    /// Indexes `L(d)` of `e2`.
    fn build(e2: &NestedList, d: usize) -> Self {
        let list = depth_list(e2, d);
        let mut firsts: Vec<(u64, usize)> = list
            .iter()
            .enumerate()
            .filter(|(_, (j, _))| *j >= 1)
            .map(|(pos, (j, _))| (*j, pos))
            .collect();
        // Sorting by (label, position) puts each label's first entry ahead
        // of its duplicates, which the dedup then drops.
        firsts.sort_unstable();
        firsts.dedup_by_key(|&mut (j, _)| j);
        let mut prefix = Vec::with_capacity(firsts.len() + 1);
        let mut acc = 0u64;
        prefix.push(acc);
        for &(_, pos) in &firsts {
            acc += list[pos].1.num_leaves() as u64 - 1;
            prefix.push(acc);
        }
        DepthIndex { firsts, prefix }
    }

    /// `RetrieveLabel`'s sum for a view whose depth-`(d−1)` truncation has
    /// label `own`, without the `LocalLabel` term, and the position in
    /// `L(d)` of `T_own`, if `own` has a trie.
    fn lookup(&self, own: u64) -> (u64, Option<usize>) {
        let k = self.firsts.partition_point(|&(j, _)| j < own);
        let own_pos = match self.firsts.get(k) {
            Some(&(j, pos)) if j == own => Some(pos),
            _ => None,
        };
        (own + self.prefix[k], own_pos)
    }
}

/// `L(d)`: the list of the first depth-`d` entry of `E2` (the one the tree
/// oracle's `find` reads), empty when there is none.
fn depth_list(e2: &NestedList, d: usize) -> &[(u64, Trie)] {
    e2.iter()
        .find(|(depth, _)| *depth == d as u64)
        .map(|(_, list)| list.as_slice())
        .unwrap_or(&[])
}

/// `LocalLabel(B, X, T)` — Algorithm 2 — against an arena view. Identical
/// query semantics to [`local_label`]; depth-1 queries read
/// [`bin_b1_arena`] instead of materializing
/// the view, and the `bin(B^1)` code is computed once per call rather than
/// once per visited trie node.
pub fn local_label_arena(arena: &ShardedViewArena, id: ViewId, x: &[u64], t: &Trie) -> u64 {
    // Only depth-1 queries (empty X) consult the binary representation.
    let bits = if x.is_empty() && !t.is_leaf() {
        Some(bin_b1_arena(arena, id))
    } else {
        None
    };
    local_label_walk(bits.as_ref(), x, t)
}

/// The shared trie walk of [`local_label_arena`]: answers queries from the
/// precomputed `bin(B^1)` code (when present) or the child-label list `x`.
fn local_label_walk(bits: Option<&BitString>, x: &[u64], t: &Trie) -> u64 {
    let mut t = t;
    let mut label = 1u64;
    loop {
        match t {
            Trie::Leaf => return label,
            Trie::Internal {
                query, left, right, ..
            } => {
                let (qx, qy) = *query;
                let go_left = match bits {
                    Some(bits) => {
                        if qx == 0 {
                            // "Is the binary representation shorter than y?"
                            (bits.len() as u64) < qy
                        } else {
                            // "Is the y-th bit (1-based) of the binary
                            // representation 0?" A missing bit (shorter
                            // string) cannot occur for views reaching this
                            // query along a consistent trie; treat an absent
                            // bit as 0 defensively.
                            !bits.bit((qy as usize).saturating_sub(1)).unwrap_or(false)
                        }
                    }
                    // "Is the (x+1)-th term of X different from y?"
                    None => x.get(qx as usize).copied() != Some(qy),
                };
                if go_left {
                    t = left;
                } else {
                    label += left.num_leaves() as u64;
                    t = right;
                }
            }
        }
    }
}

/// `RetrieveLabel(B, E1, E2)` — Algorithm 3 — against an arena view,
/// memoized per distinct view.
///
/// Produces exactly the label of [`retrieve_label`] on the materialized
/// tree. The recursion labels each distinct subview once (`memo`), and the
/// pseudocode's `for i in 1..=label` accumulation is read from the memo's
/// per-depth index of `L`: every label `i` absent from `L` contributes 1,
/// every present `j < label` contributes `num_leaves(T_j)` (prefix sums),
/// and `j == label` contributes the `LocalLabel` query — `O(log |L|)` plus
/// one `O(height)` trie walk instead of `Θ(label)` per view. The memo must
/// stay with one `(E1, E2)`; see [`LabelMemo`] for when `E2` may grow.
pub fn retrieve_label_arena(
    arena: &ShardedViewArena,
    id: ViewId,
    e1: &Trie,
    e2: &NestedList,
    memo: &mut LabelMemo,
) -> u64 {
    if let Some(&label) = memo.labels.get(&id) {
        return label;
    }
    let d = arena.depth(id);
    assert!(d >= 1, "RetrieveLabel requires a view of positive depth");
    let label = if d == 1 {
        if e1.is_leaf() {
            1
        } else {
            // The bin(B^1) code is pure per view: serve it from the memo
            // cache so repeated depth-1 labelings skip the re-encode.
            let bits = memo
                .bins
                .entry(id)
                .or_insert_with(|| bin_b1_arena(arena, id));
            local_label_walk(Some(bits), &[], e1)
        }
    } else {
        // Labels of the children (the depth-(d-1) views of the neighbors),
        // in port order.
        let children: Vec<ViewId> = arena.children(id).iter().map(|&(_, c)| c).collect();
        let x: Vec<u64> = children
            .iter()
            .map(|&c| retrieve_label_arena(arena, c, e1, e2, memo))
            .collect();
        // Label of our own depth-(d-1) truncation.
        let b_prime = arena.truncate_one(id);
        let own = retrieve_label_arena(arena, b_prime, e1, e2, memo);
        // Like the tree oracle's `find`, only the *first* entry of L per
        // label counts — decoded advice is not validated for distinct
        // labels, and the two engines must agree even on malformed bit
        // strings.
        let index = memo
            .depths
            .entry(d)
            .or_insert_with(|| DepthIndex::build(e2, d));
        let (sum, own_pos) = index.lookup(own);
        match own_pos.and_then(|pos| depth_list(e2, d).get(pos)) {
            Some((_, t)) => sum + local_label_arena(arena, id, &x, t) - 1,
            None => sum,
        }
    };
    memo.labels.insert(id, label);
    label
}

/// The dense refinement ranks of one analysed graph, by which the arena
/// `BuildTrie` orders and compares views instead of walking the arena.
///
/// `levels[d][v]` is the interned id of `B^d(v)` and `rows[d][v]` its class
/// at depth `d`: equal classes are equal views, and class order is the
/// canonical view order (the [`ViewClasses`](anet_views::ViewClasses)
/// contract, pinned to the explicit trees by property tests). A view in a
/// set handed to [`build_trie_arena`] is named by any node that has it, so
/// its children are that node's neighbors and comparing two subviews is
/// comparing two integers.
#[derive(Debug, Clone, Copy)]
pub struct ViewRanks<'a> {
    /// The analysed graph.
    pub graph: &'a Graph,
    /// `levels[d][v]`: the interned id of `B^d(v)`, for every depth used.
    pub levels: &'a [Vec<ViewId>],
    /// `rows[d][v]`: the class of `B^d(v)`, for the same depths.
    pub rows: &'a [&'a [ClassId]],
}

impl ViewRanks<'_> {
    /// The class at depth `depth - 1` of the subview of `B^depth(v)` through
    /// port `port` (the view of `v`'s neighbor there), if the port exists.
    fn child_rank(&self, depth: usize, v: NodeId, port: usize) -> Option<ClassId> {
        let (u, _) = self.graph.try_neighbor(v, port)?;
        Some(self.rows[depth - 1][u])
    }
}

/// `BuildTrie(S, E1, E2)` — Algorithm 4 — over arena views. Produces the
/// same trie as [`build_trie`] on the materialized views of `s`: the splits,
/// queries and recursion order are identical. `s` names distinct depth-`depth`
/// views by one node each (see [`ViewRanks`]); subview equality and the
/// canonical order are answered by class ranks, and `RetrieveLabel` of a
/// discriminatory subview by [`retrieve_label_arena`] on its interned id.
pub fn build_trie_arena(
    arena: &ShardedViewArena,
    ranks: &ViewRanks<'_>,
    depth: usize,
    s: &[NodeId],
    e1: Option<&Trie>,
    e2: &NestedList,
    memo: &mut LabelMemo,
) -> Trie {
    // The bin(B^1) codes are fixed per view; materializing them into the
    // shared memo cache up front spares every recursion level of the
    // depth-1 branch a re-encode (and later label queries reuse them).
    if e1.is_none() {
        for &v in s {
            let id = ranks.levels[depth][v];
            memo.bins
                .entry(id)
                .or_insert_with(|| bin_b1_arena(arena, id));
        }
    }
    build_trie_arena_inner(arena, ranks, depth, s, e1, e2, memo)
}

fn build_trie_arena_inner(
    arena: &ShardedViewArena,
    ranks: &ViewRanks<'_>,
    depth: usize,
    s: &[NodeId],
    e1: Option<&Trie>,
    e2: &NestedList,
    memo: &mut LabelMemo,
) -> Trie {
    assert!(!s.is_empty(), "BuildTrie requires a non-empty set");
    if s.len() == 1 {
        return Trie::leaf();
    }
    let (val, s_prime, s_rest): ((u64, u64), Vec<NodeId>, Vec<NodeId>) = match e1 {
        None => {
            let bins: Vec<&BitString> = s
                .iter()
                .map(|&v| &memo.bins[&ranks.levels[depth][v]])
                .collect();
            let max = bins.iter().map(|b| b.len()).max().unwrap();
            let min = bins.iter().map(|b| b.len()).min().unwrap();
            if min < max {
                // Query (0, max): "is your representation shorter than max?"
                let (short, rest) = partition_preserving_order(s, &bins, |b| b.len() < max);
                ((0, max as u64), short, rest)
            } else {
                // All lengths equal: find the first differing (1-based) bit.
                let j = (0..max)
                    .find(|&i| {
                        let first = bins[0].bit(i);
                        bins.iter().any(|b| b.bit(i) != first)
                    })
                    .expect("distinct views must have differing representations")
                    + 1;
                let (zeros, ones) =
                    partition_preserving_order(s, &bins, |b| !b.bit(j - 1).unwrap());
                ((1, j as u64), zeros, ones)
            }
        }
        Some(e1_trie) => {
            let (index, disc) = discriminatory_index_and_subview_arena(ranks, depth, s);
            let disc_rank = ranks.rows[depth - 1][disc];
            let mut s_prime = Vec::new();
            let mut s_rest = Vec::new();
            for &v in s {
                // `index` is a valid port of every view in `s` (all share the
                // same degree); a hypothetical out-of-range port lands the
                // view in `s_prime`, matching the tree oracle's index panic
                // domain never being reached.
                if ranks.child_rank(depth, v, index) != Some(disc_rank) {
                    s_prime.push(v);
                } else {
                    s_rest.push(v);
                }
            }
            let disc_id = ranks.levels[depth - 1][disc];
            let label = retrieve_label_arena(arena, disc_id, e1_trie, e2, memo);
            ((index as u64, label), s_prime, s_rest)
        }
    };
    debug_assert!(!s_prime.is_empty() && !s_rest.is_empty());
    Trie::internal(
        val,
        build_trie_arena_inner(arena, ranks, depth, &s_prime, e1, e2, memo),
        build_trie_arena_inner(arena, ranks, depth, &s_rest, e1, e2, memo),
    )
}

/// Splits `s` into (elements whose bin satisfies `pred`, the rest), keeping
/// the relative order of `s` in both halves — the partition used by the
/// depth-1 branch of `BuildTrie`.
fn partition_preserving_order(
    s: &[NodeId],
    bins: &[&BitString],
    pred: impl Fn(&BitString) -> bool,
) -> (Vec<NodeId>, Vec<NodeId>) {
    let mut yes = Vec::new();
    let mut no = Vec::new();
    for (&v, b) in s.iter().zip(bins) {
        if pred(b) {
            yes.push(v);
        } else {
            no.push(v);
        }
    }
    (yes, no)
}

/// The discriminatory index and discriminatory subview (Section 3) of a set
/// of at least two distinct depth-`depth` views (`depth >= 2`) that agree at
/// depth `depth - 1`, named by one node each (see [`ViewRanks`]) — the arena
/// counterpart of [`discriminatory_index_and_subview`].
///
/// One `O(|S|)` scan finds the two canonically smallest views by their
/// depth-`depth` class; their first differing children are compared by
/// their depth-`(depth - 1)` class. Returns the index and a neighbor node
/// whose depth-`(depth - 1)` view is the discriminatory subview.
pub fn discriminatory_index_and_subview_arena(
    ranks: &ViewRanks<'_>,
    depth: usize,
    s: &[NodeId],
) -> (usize, NodeId) {
    assert!(s.len() >= 2);
    assert!(depth >= 2, "discriminatory index needs depth >= 2");
    let row = ranks.rows[depth];
    let (mut a, mut b) = if row[s[0]] <= row[s[1]] {
        (s[0], s[1])
    } else {
        (s[1], s[0])
    };
    for &v in &s[2..] {
        if row[v] < row[a] {
            (a, b) = (v, a);
        } else if row[v] < row[b] {
            b = v;
        }
    }
    let below = ranks.rows[depth - 1];
    let (na, nb) = (ranks.graph.neighbor_slice(a), ranks.graph.neighbor_slice(b));
    for (i, (&(ua, _), &(ub, _))) in na.iter().zip(nb).enumerate() {
        if below[ua] != below[ub] {
            let disc = if below[ua] < below[ub] { ua } else { ub };
            return (i, disc);
        }
    }
    panic!("views identical at depth l-1 but equal at depth l cannot both be in S");
}

/// Encodes the nested list `E2` as a bit string (`bin(E2)` of
/// Proposition 3.4): the outer list is a `Concat` of alternating depth
/// integers and encoded inner lists; each inner list is a `Concat` of
/// alternating labels and encoded tries.
pub fn encode_e2(e2: &NestedList) -> BitString {
    let mut parts = Vec::new();
    for (depth, list) in e2 {
        parts.push(BitString::from_uint(*depth));
        let mut inner = Vec::new();
        for (j, t) in list {
            inner.push(BitString::from_uint(*j));
            inner.push(t.encode());
        }
        parts.push(codec::concat(&inner));
    }
    codec::concat(&parts)
}

/// Decodes a bit string produced by [`encode_e2`].
pub fn decode_e2(bits: &BitString) -> Result<NestedList, String> {
    let parts = codec::decode(bits).map_err(|e| e.to_string())?;
    if parts.len() % 2 != 0 {
        return Err("E2 encoding must have an even number of parts".into());
    }
    let mut out = Vec::with_capacity(parts.len() / 2);
    for chunk in parts.chunks(2) {
        let depth = chunk[0]
            .to_uint()
            .ok_or_else(|| "bad depth integer in E2".to_string())?;
        let inner_parts = codec::decode(&chunk[1]).map_err(|e| e.to_string())?;
        if inner_parts.len() % 2 != 0 {
            return Err("inner list encoding must have an even number of parts".into());
        }
        let mut list = Vec::with_capacity(inner_parts.len() / 2);
        for pair in inner_parts.chunks(2) {
            let j = pair[0]
                .to_uint()
                .ok_or_else(|| "bad label integer in E2".to_string())?;
            let t = Trie::decode_bits(&pair[1]).map_err(|e| e.to_string())?;
            list.push((j, t));
        }
        out.push((depth, list));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use anet_graph::generators;
    use anet_views::ViewClasses;

    /// The refinement class rows of `g` at depths `0..=depth`.
    fn class_rows(g: &Graph, depth: usize) -> Vec<Vec<ClassId>> {
        let table = ViewClasses::compute(g, depth);
        (0..=depth).map(|d| table.row_at(d).to_vec()).collect()
    }

    /// Builds the depth-1 trie `E1` for a graph and checks Claims 3.1/3.2:
    /// the trie has `2|S|-1` nodes and `LocalLabel` assigns distinct labels
    /// in `{1, ..., |S|}` to distinct depth-1 views.
    fn check_depth_one_labels(g: &anet_graph::Graph) {
        let views = AugmentedView::compute_all(g, 1);
        let mut distinct = views.clone();
        distinct.sort();
        distinct.dedup();
        let trie = build_trie(&distinct, None, &Vec::new());
        assert_eq!(trie.size(), 2 * distinct.len() - 1, "Claim 3.1");
        assert_eq!(trie.num_leaves(), distinct.len());
        let labels: Vec<u64> = distinct
            .iter()
            .map(|v| local_label(v, &[], &trie))
            .collect();
        let mut sorted = labels.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), distinct.len(), "Claim 3.2: labels distinct");
        assert!(labels.iter().all(|&l| 1 <= l && l <= distinct.len() as u64));
    }

    #[test]
    fn depth_one_trie_discriminates_views() {
        check_depth_one_labels(&generators::star(4));
        check_depth_one_labels(&generators::caterpillar(5));
        check_depth_one_labels(&generators::lollipop(4, 3));
        check_depth_one_labels(&generators::random_connected(20, 0.15, 2));
    }

    #[test]
    fn local_label_on_leaf_is_one() {
        let g = generators::ring(4);
        let v = AugmentedView::compute(&g, 0, 1);
        assert_eq!(local_label(&v, &[], &Trie::leaf()), 1);
        assert_eq!(local_label(&v, &[3, 4], &Trie::leaf()), 1);
    }

    #[test]
    fn retrieve_label_depth_one_equals_local_label() {
        let g = generators::caterpillar(4);
        let views = AugmentedView::compute_all(&g, 1);
        let mut distinct = views.clone();
        distinct.sort();
        distinct.dedup();
        let e1 = build_trie(&distinct, None, &Vec::new());
        for v in &views {
            assert_eq!(
                retrieve_label(v, &e1, &Vec::new()),
                local_label(v, &[], &e1)
            );
        }
    }

    #[test]
    fn discriminatory_index_finds_first_difference() {
        // Build a small graph where two nodes agree at depth 1 but differ at
        // depth 2, and check the helper's invariants directly on their views.
        let g = generators::lollipop(4, 4);
        let views2 = AugmentedView::compute_all(&g, 2);
        let views1 = AugmentedView::compute_all(&g, 1);
        // Find a pair of nodes equal at depth 1 and different at depth 2.
        let mut pair = None;
        'outer: for u in g.nodes() {
            for v in g.nodes() {
                if u < v && views1[u] == views1[v] && views2[u] != views2[v] {
                    pair = Some((u, v));
                    break 'outer;
                }
            }
        }
        if let Some((u, v)) = pair {
            let s = vec![views2[u].clone(), views2[v].clone()];
            let (i, disc) = discriminatory_index_and_subview(&s);
            assert!(i < g.degree(u));
            // The discriminatory subview is a child of one of the two views
            // and differs from the corresponding child of the other.
            assert_ne!(s[0].children()[i].1, s[1].children()[i].1);
            assert!(disc == s[0].children()[i].1 || disc == s[1].children()[i].1);
        }
    }

    #[test]
    fn arena_trie_and_labels_match_tree_engine_at_depth_one() {
        for g in [
            generators::star(4),
            generators::caterpillar(5),
            generators::lollipop(4, 3),
            generators::random_connected(20, 0.15, 2),
        ] {
            let views = AugmentedView::compute_all(&g, 1);
            let mut distinct = views.clone();
            distinct.sort();
            distinct.dedup();
            let oracle_trie = build_trie(&distinct, None, &Vec::new());

            let arena = ShardedViewArena::new();
            let levels = arena.compute_levels(&g, 1);
            let rows = class_rows(&g, 1);
            let row_refs: Vec<&[ClassId]> = rows.iter().map(Vec::as_slice).collect();
            let ranks = ViewRanks {
                graph: &g,
                levels: &levels,
                rows: &row_refs,
            };
            let mut memo = LabelMemo::new();
            let s = crate::advice_build::representatives(&rows[1]);
            let arena_trie = build_trie_arena(&arena, &ranks, 1, &s, None, &Vec::new(), &mut memo);
            assert_eq!(arena_trie, oracle_trie, "E1 tries must be identical");

            for v in g.nodes() {
                assert_eq!(
                    local_label_arena(&arena, levels[1][v], &[], &arena_trie),
                    local_label(&views[v], &[], &oracle_trie),
                    "depth-1 label of node {v}"
                );
                assert_eq!(
                    retrieve_label_arena(&arena, levels[1][v], &arena_trie, &Vec::new(), &mut memo),
                    retrieve_label(&views[v], &oracle_trie, &Vec::new())
                );
            }
        }
    }

    #[test]
    fn engines_agree_even_on_duplicate_e2_labels() {
        // decode_e2 does not validate label distinctness, so a malformed
        // advice string can decode to an L(i) with repeated labels. Both
        // engines must then still produce the same node labels (only the
        // first entry per label may count).
        let g = generators::caterpillar(4); // φ = 2: non-empty E2
        let advice = crate::advice_build::compute_advice(&g).unwrap();
        let mut e2 = advice.e2.clone();
        let list = e2
            .iter_mut()
            .find(|(_, l)| !l.is_empty())
            .map(|(_, l)| l)
            .expect("caterpillar(4) has a non-trivial E2 entry");
        // Duplicate the first entry with a *different* trie shape so a
        // double-count would be visible in the label sums.
        let dup_label = list[0].0;
        list.push((
            dup_label,
            Trie::internal((0, 1), Trie::leaf(), Trie::leaf()),
        ));

        let views = AugmentedView::compute_all(&g, advice.phi);
        let arena = ShardedViewArena::new();
        let levels = arena.compute_levels(&g, advice.phi);
        let mut memo = LabelMemo::new();
        for v in g.nodes() {
            assert_eq!(
                retrieve_label_arena(&arena, levels[advice.phi][v], &advice.e1, &e2, &mut memo),
                retrieve_label(&views[v], &advice.e1, &e2),
                "node {v}"
            );
        }
    }

    #[test]
    fn engines_agree_on_a_label_zero_e2_entry() {
        // RetrieveLabel sums over labels 1..=own, so a malformed L(i) entry
        // labeled 0 never counts: adding its leaves would give node 0 of
        // caterpillar(4) label 2 instead of the oracle's 1.
        let g = generators::caterpillar(4);
        let advice = crate::advice_build::compute_advice(&g).unwrap();
        let mut e2 = advice.e2.clone();
        let list = e2
            .iter_mut()
            .find(|(_, l)| !l.is_empty())
            .map(|(_, l)| l)
            .expect("caterpillar(4) has a non-trivial E2 entry");
        list.push((0, Trie::internal((0, 1), Trie::leaf(), Trie::leaf())));

        let views = AugmentedView::compute_all(&g, advice.phi);
        let arena = ShardedViewArena::new();
        let levels = arena.compute_levels(&g, advice.phi);
        let mut memo = LabelMemo::new();
        for v in g.nodes() {
            assert_eq!(
                retrieve_label_arena(&arena, levels[advice.phi][v], &advice.e1, &e2, &mut memo),
                retrieve_label(&views[v], &advice.e1, &e2),
                "node {v}"
            );
        }
    }

    #[test]
    fn arena_discriminatory_index_matches_tree_engine() {
        let g = generators::lollipop(4, 4);
        let views2 = AugmentedView::compute_all(&g, 2);
        let views1 = AugmentedView::compute_all(&g, 1);
        let arena = ShardedViewArena::new();
        let levels = arena.compute_levels(&g, 2);
        let rows = class_rows(&g, 2);
        let row_refs: Vec<&[ClassId]> = rows.iter().map(Vec::as_slice).collect();
        let ranks = ViewRanks {
            graph: &g,
            levels: &levels,
            rows: &row_refs,
        };
        for u in g.nodes() {
            for v in g.nodes() {
                if u < v && views1[u] == views1[v] && views2[u] != views2[v] {
                    let s_tree = vec![views2[u].clone(), views2[v].clone()];
                    let (i_tree, disc_tree) = discriminatory_index_and_subview(&s_tree);
                    let (i_arena, disc_node) =
                        discriminatory_index_and_subview_arena(&ranks, 2, &[u, v]);
                    assert_eq!(i_arena, i_tree);
                    assert_eq!(arena.materialize(levels[1][disc_node]), disc_tree);
                }
            }
        }
    }

    #[test]
    fn e2_encoding_roundtrips() {
        let trie = Trie::internal(
            (2, 7),
            Trie::leaf(),
            Trie::internal((1, 1), Trie::leaf(), Trie::leaf()),
        );
        let e2: NestedList = vec![
            (2, vec![(1, Trie::leaf()), (4, trie.clone())]),
            (3, vec![]),
            (4, vec![(2, trie)]),
        ];
        let bits = encode_e2(&e2);
        assert_eq!(decode_e2(&bits).unwrap(), e2);
        // Empty E2.
        let empty: NestedList = Vec::new();
        assert_eq!(decode_e2(&encode_e2(&empty)).unwrap(), empty);
    }

    #[test]
    fn e2_decoding_rejects_garbage() {
        let garbage = BitString::from_str01("10").unwrap();
        assert!(decode_e2(&garbage).is_err());
    }
}
