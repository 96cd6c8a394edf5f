//! Partition-refinement computation of view-equivalence classes.
//!
//! For every depth `d`, two nodes `u`, `v` satisfy `B^d(u) == B^d(v)` iff they
//! fall in the same class of the refinement below. This avoids materializing
//! view trees (whose size grows as `degree^depth`) and is the engine behind
//! the election-index computation and the simulator's view oracle.
//!
//! The per-depth ranking work and the stopping rule are delegated to the
//! [`anet_graph::refine`] kernel, which keeps one flat reusable scratch per
//! dart source; this module only owns the resulting class table and the
//! depth-iteration strategies.

use anet_graph::refine::{self, DartRows, RefineOptions, Refiner};
use anet_graph::{Graph, NodeId};

pub use anet_graph::refine::ClassId;

/// Table of view-equivalence classes for all depths `0..=max_depth`.
///
/// The invariant tying the table to the explicit views of
/// [`AugmentedView`](crate::AugmentedView) is:
///
/// * `class_of(d, u) == class_of(d, v)` ⇔ `B^d(u) == B^d(v)`, and
/// * `class_of(d, u) < class_of(d, v)` ⇔ `B^d(u) < B^d(v)` in the canonical
///   order.
///
/// Both are checked by property tests against the explicit trees, and the
/// flat-buffer engine is additionally checked against the seed `BTreeMap`
/// ranking kept in `anet_graph::refine::legacy`.
#[derive(Debug, Clone)]
pub struct ViewClasses {
    /// `classes[d][v]` = class id of `B^d(v)`.
    classes: Vec<Vec<ClassId>>,
    /// `num_classes[d]` = number of distinct views at depth `d`.
    num_classes: Vec<usize>,
    /// First depth `j` (if any) whose class row equals the row at `j + 1`.
    /// Because each row is a deterministic function of the previous one,
    /// every depth `>= j` then carries the *identical* row — a labeling
    /// fixed point, strictly stronger than the count-based stability of
    /// [`compute_until_stable`](Self::compute_until_stable) (same blocks
    /// *and* same canonical ranks). It lets [`row_at`](Self::row_at) answer
    /// arbitrarily deep queries without extending the table.
    fixed_at: Option<usize>,
}

impl ViewClasses {
    /// Computes classes for all depths `0..=max_depth`.
    pub fn compute(g: &Graph, max_depth: usize) -> Self {
        Self::compute_with(g, max_depth, &RefineOptions::default())
    }

    /// [`compute`](Self::compute) with explicit engine options (e.g. a
    /// thread count for the parallel key-fill phase).
    pub fn compute_with(g: &Graph, max_depth: usize, opts: &RefineOptions) -> Self {
        let mut refiner = Refiner::new(g);
        let (c0, k0) = refiner.rank_by_degree();
        let mut table = ViewClasses {
            classes: vec![c0],
            num_classes: vec![k0],
            fixed_at: None,
        };
        for _ in 1..=max_depth {
            table.extend_one_depth(g, &mut refiner, opts);
        }
        table
    }

    /// Computes classes depth by depth until the partition stabilizes (the
    /// number of classes stops growing), and returns the table together with
    /// the first depth at which the partition is stable.
    ///
    /// For the port-ordered refinement used here, once the class count does
    /// not grow from depth `d-1` to depth `d`, the partition is the same at
    /// every larger depth, so views at depth `>= d-1` separate exactly the
    /// same node pairs as infinite views.
    pub fn compute_until_stable(g: &Graph) -> (Self, usize) {
        Self::compute_until_stable_with(g, &RefineOptions::default())
    }

    /// [`compute_until_stable`](Self::compute_until_stable) with explicit
    /// engine options.
    pub fn compute_until_stable_with(g: &Graph, opts: &RefineOptions) -> (Self, usize) {
        Self::compute_until_stable_over(g, g.num_nodes(), opts)
    }

    /// [`compute_until_stable_with`](Self::compute_until_stable_with) over
    /// any dart source, with the stopping rule counting against `target`
    /// nodes: `C · fold` for the dart rows of the base of a `fold`-sheeted
    /// cover (see [`crate::quotient`]). Rows are indexed by the source's
    /// nodes.
    pub fn compute_until_stable_over<S: DartRows + ?Sized>(
        src: &S,
        target: usize,
        opts: &RefineOptions,
    ) -> (Self, usize) {
        let (mut classes, mut num_classes) = (Vec::new(), Vec::new());
        let stable = refine::until_stable(src, target, opts, |row, k| {
            classes.push(row);
            num_classes.push(k);
        });
        let fixed_at = classes.windows(2).position(|w| w[0] == w[1]);
        let table = ViewClasses {
            classes,
            num_classes,
            fixed_at,
        };
        (table, stable)
    }

    /// Extends the table by one depth through the kernel step, recording
    /// the labeling fixed point when the new row repeats the last one.
    fn extend_one_depth<S: DartRows + ?Sized>(
        &mut self,
        src: &S,
        refiner: &mut Refiner,
        opts: &RefineOptions,
    ) {
        let d = self.max_depth();
        let (row, k) = refiner.extend(src, &self.classes[d], self.num_classes[d], opts);
        if self.fixed_at.is_none() && row == self.classes[d] {
            self.fixed_at = Some(d);
        }
        self.classes.push(row);
        self.num_classes.push(k);
    }

    /// Extends the table so that [`row_at`](Self::row_at) can answer depth
    /// `depth`: grows the table row by row until either `depth` is stored or
    /// a labeling fixed point is found (from which every deeper row is known
    /// to be identical). No-op when the table can already answer `depth`.
    ///
    /// Each added row is the same deterministic function of its predecessor
    /// that [`compute`](Self::compute) applies, so a table extended on demand
    /// is indistinguishable from one computed to the target depth up front
    /// (asserted by tests). `src` is the source the table was computed
    /// over (a graph, or the base dart rows of a quotient table).
    pub fn ensure_depth<S: DartRows + ?Sized>(
        &mut self,
        src: &S,
        depth: usize,
        opts: &RefineOptions,
    ) {
        if self.fixed_at.is_some() || depth <= self.max_depth() {
            return;
        }
        let mut refiner = Refiner::new(src);
        while self.max_depth() < depth && self.fixed_at.is_none() {
            self.extend_one_depth(src, &mut refiner, opts);
        }
    }

    /// The stored depth that carries the class row of depth `d`: `d` itself
    /// when stored, or the fixed-point row for deeper queries.
    ///
    /// # Panics
    /// Panics if `d` exceeds [`max_depth`](Self::max_depth) and no labeling
    /// fixed point has been reached — call
    /// [`ensure_depth`](Self::ensure_depth) first.
    fn resolved_depth(&self, d: usize) -> usize {
        if d <= self.max_depth() {
            d
        } else {
            assert!(
                self.fixed_at.is_some(),
                "depth {d} exceeds max_depth {} without a fixed point; \
                 call ensure_depth first",
                self.max_depth()
            );
            self.max_depth()
        }
    }

    /// The class row of depth `d`, serving depths beyond
    /// [`max_depth`](Self::max_depth) from the labeling fixed point (see
    /// [`ensure_depth`](Self::ensure_depth); panics if neither applies).
    pub fn row_at(&self, d: usize) -> &[ClassId] {
        &self.classes[self.resolved_depth(d)]
    }

    /// [`num_classes`](Self::num_classes) through the same deep-depth
    /// resolution as [`row_at`](Self::row_at).
    pub fn num_classes_deep(&self, d: usize) -> usize {
        self.num_classes[self.resolved_depth(d)]
    }

    /// Full class tables computed with the seed `BTreeMap` engine. Exposed
    /// (hidden) so benches and property tests can pit the flat-buffer engine
    /// against the original implementation; not part of the public API.
    #[doc(hidden)]
    pub fn compute_legacy(g: &Graph, max_depth: usize) -> Self {
        let (classes, num_classes) = refine::legacy::compute(g, max_depth);
        ViewClasses {
            classes,
            num_classes,
            fixed_at: None,
        }
    }

    /// Largest depth stored in the table.
    pub fn max_depth(&self) -> usize {
        self.classes.len() - 1
    }

    /// The class of `B^d(v)`.
    ///
    /// # Panics
    /// Panics if `d` exceeds [`max_depth`](Self::max_depth).
    pub fn class_of(&self, d: usize, v: NodeId) -> ClassId {
        self.classes[d][v]
    }

    /// Number of distinct views at depth `d`.
    pub fn num_classes(&self, d: usize) -> usize {
        self.num_classes[d]
    }

    /// Whether all nodes have distinct views at depth `d`.
    pub fn all_distinct_at(&self, d: usize) -> bool {
        self.num_classes[d] == self.classes[d].len()
    }

    /// The nodes whose view at depth `d` is the lexicographically smallest
    /// (class 0) — the candidates for "the node with the smallest view".
    pub fn smallest_view_nodes(&self, d: usize) -> Vec<NodeId> {
        self.classes[d]
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c == 0)
            .map(|(v, _)| v)
            .collect()
    }

    /// All classes at depth `d`, one entry per node.
    pub fn classes_at(&self, d: usize) -> &[ClassId] {
        &self.classes[d]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::AugmentedView;
    use anet_graph::generators;

    fn check_against_explicit(g: &Graph, max_depth: usize) {
        let table = ViewClasses::compute(g, max_depth);
        for d in 0..=max_depth {
            let views = AugmentedView::compute_all(g, d);
            for u in g.nodes() {
                for v in g.nodes() {
                    assert_eq!(
                        table.class_of(d, u) == table.class_of(d, v),
                        views[u] == views[v],
                        "class equality must match view equality (depth {d})"
                    );
                    assert_eq!(
                        table.class_of(d, u).cmp(&table.class_of(d, v)),
                        views[u].cmp(&views[v]),
                        "class order must match view order (depth {d})"
                    );
                }
            }
        }
    }

    /// The seed engine as a test oracle: identical class tables, depth by
    /// depth, on seeded random graphs. The `threads` runs here only cover
    /// the option plumbing (the graphs sit below the engine's parallel
    /// threshold); the threaded fill itself is exercised by
    /// `anet_graph::refine::tests::parallel_key_fill_matches_sequential` and
    /// `election_index::tests::analyze_with_threads_matches_sequential`.
    fn check_against_legacy_oracle(g: &Graph, max_depth: usize, threads: usize) {
        let oracle = ViewClasses::compute_legacy(g, max_depth);
        let table = ViewClasses::compute_with(g, max_depth, &RefineOptions { threads });
        for d in 0..=max_depth {
            assert_eq!(table.classes_at(d), oracle.classes_at(d), "depth {d}");
            assert_eq!(table.num_classes(d), oracle.num_classes(d), "depth {d}");
        }
    }

    #[test]
    fn classes_match_explicit_views_on_structured_graphs() {
        check_against_explicit(&generators::star(4), 3);
        check_against_explicit(&generators::lollipop(4, 3), 3);
        check_against_explicit(&generators::caterpillar(4), 3);
        check_against_explicit(&generators::path(6), 4);
    }

    #[test]
    fn engine_matches_legacy_oracle_on_seeded_random_graphs() {
        for seed in 0..10 {
            let n = 12 + (seed as usize) * 7;
            let g = generators::random_connected(n, 0.1, seed);
            check_against_legacy_oracle(&g, 5, 1);
            check_against_legacy_oracle(&g, 5, 4);
        }
    }

    #[test]
    fn ring_has_single_class_at_every_depth() {
        let g = generators::ring(7);
        let table = ViewClasses::compute(&g, 7);
        for d in 0..=7 {
            assert_eq!(table.num_classes(d), 1);
        }
        assert!(!table.all_distinct_at(7));
    }

    #[test]
    fn depth_zero_classes_are_degrees() {
        let g = generators::star(3);
        let table = ViewClasses::compute(&g, 0);
        assert_eq!(table.num_classes(0), 2);
        // Leaves (degree 1) come before the center (degree 3) in canonical order.
        assert_eq!(table.class_of(0, 1), 0);
        assert_eq!(table.class_of(0, 0), 1);
    }

    #[test]
    fn compute_until_stable_reaches_discrete_partition_when_feasible() {
        let g = generators::caterpillar(5);
        let (table, stable_at) = ViewClasses::compute_until_stable(&g);
        assert!(table.all_distinct_at(stable_at));
    }

    #[test]
    fn compute_until_stable_detects_symmetric_graphs() {
        let g = generators::hypercube(3);
        let (table, stable_at) = ViewClasses::compute_until_stable(&g);
        assert!(!table.all_distinct_at(stable_at));
        assert_eq!(table.num_classes(stable_at), 1);
    }

    #[test]
    fn smallest_view_nodes_agree_with_explicit_minimum() {
        let g = generators::lollipop(5, 4);
        let table = ViewClasses::compute(&g, 3);
        let views = AugmentedView::compute_all(&g, 3);
        let min_view = views.iter().min().unwrap();
        let expected: Vec<NodeId> = g.nodes().filter(|&v| &views[v] == min_view).collect();
        assert_eq!(table.smallest_view_nodes(3), expected);
    }

    #[test]
    fn ensure_depth_matches_up_front_computation() {
        // A table deepened on demand must be row-for-row identical to one
        // computed to the target depth directly.
        for (g, start, target) in [
            (generators::lollipop(5, 4), 1usize, 6usize),
            (generators::caterpillar(5), 0, 5),
            (generators::random_connected(25, 0.12, 9), 2, 7),
            (generators::ring(7), 1, 5),
        ] {
            let mut lazy = ViewClasses::compute(&g, start);
            lazy.ensure_depth(&g, target, &RefineOptions::default());
            let eager = ViewClasses::compute(&g, target);
            for d in 0..=target {
                assert_eq!(lazy.row_at(d), eager.classes_at(d), "depth {d}");
                assert_eq!(lazy.num_classes_deep(d), eager.num_classes(d));
            }
        }
    }

    #[test]
    fn fixed_point_serves_arbitrarily_deep_rows() {
        // Once two consecutive rows coincide, every deeper row is identical;
        // row_at must serve depths far beyond max_depth from the fixed point
        // and agree with the direct computation.
        let g = generators::lollipop(5, 4);
        let mut table = ViewClasses::compute(&g, 0);
        table.ensure_depth(&g, 1_000_000, &RefineOptions::default());
        assert!(
            table.fixed_at.is_some(),
            "the lollipop refinement reaches a labeling fixed point"
        );
        // The table stayed small even though the requested depth is huge.
        assert!(table.max_depth() < 32);
        let eager = ViewClasses::compute(&g, table.max_depth() + 3);
        for d in 0..=table.max_depth() + 3 {
            assert_eq!(table.row_at(d), eager.classes_at(d), "depth {d}");
        }
        // And the deep query really is served (no panic) at any depth.
        let _ = table.row_at(1_000_000);
        assert_eq!(table.num_classes_deep(1_000_000), g.num_nodes());
    }

    #[test]
    #[should_panic(expected = "ensure_depth")]
    fn row_at_beyond_table_without_fixed_point_panics() {
        let g = generators::lollipop(5, 4);
        let table = ViewClasses::compute(&g, 1);
        let _ = table.row_at(10);
    }

    #[test]
    fn class_count_is_monotone_in_depth() {
        let g = generators::random_connected(40, 0.08, 11);
        let table = ViewClasses::compute(&g, 6);
        for d in 1..=6 {
            assert!(table.num_classes(d) >= table.num_classes(d - 1));
        }
    }
}
