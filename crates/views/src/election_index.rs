//! The election index `φ(G)` and feasibility.
//!
//! Proposition 2.1 of the paper: the election index of a feasible graph equals
//! the smallest integer `l` such that the augmented truncated views at depth
//! `l` of all nodes are distinct. A graph is *feasible* (leader election is
//! possible knowing the map) iff the (infinite) views of all nodes are
//! distinct, which happens iff the refinement of [`crate::ViewClasses`]
//! reaches the discrete partition.

use anet_graph::Graph;

use anet_graph::refine::RefineOptions;

use crate::classes::ViewClasses;
use crate::view::AugmentedView;

/// Result of the feasibility analysis of a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeasibilityReport {
    /// Whether leader election is possible when nodes know the map.
    pub feasible: bool,
    /// The election index `φ(G)` if the graph is feasible.
    pub election_index: Option<usize>,
    /// Number of distinct (infinite) views, i.e. the size of the stable
    /// partition. Equals `n` iff the graph is feasible.
    pub distinct_views: usize,
    /// The depth at which the view partition stabilized.
    pub stable_depth: usize,
}

/// Analyzes feasibility and the election index of `g` in one pass.
pub fn analyze(g: &Graph) -> FeasibilityReport {
    analyze_with(g, &RefineOptions::default())
}

/// [`analyze`] with explicit refinement-engine options (e.g. a thread count
/// for the parallel key-fill phase on large graphs).
pub fn analyze_with(g: &Graph, opts: &RefineOptions) -> FeasibilityReport {
    let (table, stable_depth) = ViewClasses::compute_until_stable_with(g, opts);
    report_from_table(&table, stable_depth, g.num_nodes())
}

/// Derives the [`FeasibilityReport`] of an `n`-node graph from an
/// already-stabilized class table (the output shape of
/// [`ViewClasses::compute_until_stable`]): feasibility is reaching `n`
/// classes, and φ is the first depth with `n` classes. `n` is the table's
/// row length for a graph's own table, and the virtual node count
/// `C · fold` for a quotient table over base darts. Shared by
/// [`analyze_with`], [`BaseAnalysis::report`](crate::BaseAnalysis::report)
/// and callers that keep the table itself (e.g. the election layer's
/// analysis-caching `Instance`).
pub fn report_from_table(table: &ViewClasses, stable_depth: usize, n: usize) -> FeasibilityReport {
    let distinct = table.num_classes(table.max_depth());
    if distinct < n {
        return FeasibilityReport {
            feasible: false,
            election_index: None,
            distinct_views: distinct,
            stable_depth,
        };
    }
    // Feasible: φ is the first depth with n distinct classes.
    let phi = (0..=table.max_depth())
        .find(|&d| table.num_classes(d) == n)
        .expect("discrete partition reached");
    FeasibilityReport {
        feasible: true,
        election_index: Some(phi),
        distinct_views: distinct,
        stable_depth,
    }
}

/// Whether leader election is possible in `g` when nodes know the map
/// (equivalently, all infinite views are distinct).
pub fn is_feasible(g: &Graph) -> bool {
    analyze(g).feasible
}

/// The election index `φ(G)` (Proposition 2.1), or `None` if `g` is
/// infeasible.
///
/// Uses the partition-refinement engine; see [`election_index_naive`] for the
/// direct (and much slower) definition used as a test oracle.
pub fn election_index(g: &Graph) -> Option<usize> {
    analyze(g).election_index
}

/// The election index computed directly from the definition: materialize all
/// `B^d(v)` trees for growing `d` and compare them pairwise. Exponential in
/// `d`; intended only as a cross-check oracle on small graphs.
pub fn election_index_naive(g: &Graph, max_depth: usize) -> Option<usize> {
    let n = g.num_nodes();
    for d in 0..=max_depth {
        let views = AugmentedView::compute_all(g, d);
        let mut sorted = views.clone();
        sorted.sort();
        sorted.dedup();
        if sorted.len() == n {
            return Some(d);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use anet_graph::generators;

    #[test]
    fn ring_is_infeasible() {
        let g = generators::ring(6);
        let report = analyze(&g);
        assert!(!report.feasible);
        assert_eq!(report.election_index, None);
        assert_eq!(report.distinct_views, 1);
        assert!(!is_feasible(&g));
    }

    #[test]
    fn hypercube_and_torus_are_infeasible() {
        assert!(!is_feasible(&generators::hypercube(3)));
        assert!(!is_feasible(&generators::torus(4, 4)));
    }

    #[test]
    fn star_has_election_index_one() {
        // Each leaf of a star sees the distinct port its edge carries at the
        // center, so the star is feasible with election index 1.
        assert_eq!(election_index(&generators::star(3)), Some(1));
        assert_eq!(election_index(&generators::star(5)), Some(1));
        // The 2-node graph is the classic infeasible example.
        assert!(!is_feasible(&generators::path(2)));
    }

    #[test]
    fn path_with_odd_length_is_feasible() {
        // A path with an even number of nodes has a mirror symmetry swapping
        // the two halves only if the port numbering is symmetric; with the
        // canonical numbering of `generators::path` the two endpoints differ:
        // endpoint 0 sees reverse port 0, endpoint n-1 sees reverse port 1
        // (for n >= 3). Check feasibility empirically against the naive oracle.
        for n in 3..8 {
            let g = generators::path(n);
            let report = analyze(&g);
            let naive = election_index_naive(&g, n);
            assert_eq!(report.election_index, naive, "path of {n} nodes");
        }
    }

    #[test]
    fn election_index_is_positive_for_feasible_graphs() {
        // "The election index is always a strictly positive integer because
        // there is no graph all of whose nodes have different degrees."
        let graphs = [
            generators::caterpillar(4),
            generators::lollipop(4, 3),
            generators::random_connected(20, 0.15, 3),
        ];
        for g in &graphs {
            if let Some(phi) = election_index(g) {
                assert!(phi >= 1);
            }
        }
    }

    #[test]
    fn refinement_matches_naive_oracle_on_feasible_graphs() {
        let graphs = [
            generators::caterpillar(4),
            generators::caterpillar(5),
            generators::lollipop(4, 2),
            generators::lollipop(5, 5),
            generators::random_tree(12, 5),
            generators::random_connected(14, 0.2, 8),
        ];
        for g in &graphs {
            let fast = election_index(g);
            let naive = election_index_naive(g, 8);
            // The naive oracle bounds depth at 8; when both are defined they
            // must agree, and when fast says feasible with φ <= 8 naive must
            // find it.
            match (fast, naive) {
                (Some(f), Some(n)) => assert_eq!(f, n),
                (Some(f), None) => assert!(f > 8),
                (None, Some(_)) => panic!("naive found an index on an infeasible graph"),
                (None, None) => {}
            }
        }
    }

    #[test]
    fn proposition_2_2_bound_holds_on_samples() {
        // φ ∈ O(D log(n/D)); check the concrete bound φ <= 2 + 2·D·log2(n/D + 1)
        // on a sample of feasible graphs (a generous constant, the point is
        // the shape).
        use anet_graph::algo::diameter;
        for seed in 0..5 {
            let g = generators::random_connected(30, 0.1, seed);
            if let Some(phi) = election_index(&g) {
                let d = diameter(&g) as f64;
                let n = g.num_nodes() as f64;
                let bound = 2.0 + 2.0 * d * ((n / d) + 1.0).log2();
                assert!(
                    (phi as f64) <= bound,
                    "φ = {phi} exceeds O(D log(n/D)) bound {bound}"
                );
            }
        }
    }

    #[test]
    fn analyze_with_threads_matches_sequential() {
        // Graphs large enough to cross the engine's parallel key-fill
        // threshold, so the threaded path really runs end to end.
        for seed in 0..2 {
            let g = generators::random_connected_sparse(3000, 3000, seed);
            let seq = analyze(&g);
            let par = analyze_with(&g, &RefineOptions { threads: 4 });
            assert_eq!(seq, par, "seed {seed}");
        }
    }

    #[test]
    fn feasibility_report_distinct_views_counts_classes() {
        // The 6-cycle is infeasible with a single view class; the star is
        // feasible with n distinct views.
        let report = analyze(&generators::ring(6));
        assert!(!report.feasible);
        assert_eq!(report.distinct_views, 1);

        let report = analyze(&generators::star(4));
        assert!(report.feasible);
        assert_eq!(report.distinct_views, 5);
        assert_eq!(report.election_index, Some(1));
    }
}
