//! Base-time view analysis through the covering map (the quotient fast
//! path).
//!
//! A covering projection is a port-preserving local isomorphism, so the
//! refinement key of a lift node `(b, i)` at every depth equals the key of
//! its base node `b` computed on the base's *dart rows* (`rows[b][p] =
//! (target, reverse slot)`): by induction the per-depth class of `(b, i)`
//! is the class of `b`, with **identical dense ranks** — the multiset of
//! lift keys is `fold` copies of the base multiset, so sorting and
//! dense-ranking assign the very same ids. [`BaseAnalysis`] is therefore a
//! plain [`ViewClasses`] table built by the [`anet_graph::refine`] kernel
//! over the base dart rows, with the stopping rule counting against the
//! *lift's* node count `C · fold`; every result — per-depth class rows,
//! distinct-view counts, stabilization depth, feasibility, φ — transfers
//! back bit-identically through the covering map. The direct computation
//! on the materialized lift remains the oracle (asserted by unit, property
//! and conformance tests).
//!
//! Entry points: [`analyze_base`] for a [`MinimumBase`] built from a
//! concrete graph, [`analyze_lift`] for a [`VoltageGraph`] whose lift never
//! needs to exist in memory ([`validate_lift`] checks simplicity and
//! connectivity in `O(n + m)` without materializing adjacency), and
//! [`analyze_lift_unchecked`] when the caller guarantees validity by
//! construction (e.g. [`connected_cyclic_lift`]) — that path's cost tracks
//! the *base* size only.
//!
//! [`connected_cyclic_lift`]: anet_graph::quotient::connected_cyclic_lift

use anet_graph::lift::VoltageGraph;
use anet_graph::quotient::{base_dart_rows, validate_lift, MinimumBase, QuotientError};
use anet_graph::refine::RefineOptions;
use anet_graph::Port;

use crate::classes::{ClassId, ViewClasses};
use crate::election_index::{report_from_table, FeasibilityReport};

/// The refinement table of a base multigraph, with the ranks and stopping
/// rule of the lift it covers. Rows are indexed by base node;
/// [`pullback_row`](BaseAnalysis::pullback_row) transfers a row to the lift
/// through the covering map.
#[derive(Debug, Clone)]
pub struct BaseAnalysis {
    /// The class table over the base dart rows. Deepen it with
    /// [`ViewClasses::ensure_depth`] over the same rows.
    pub classes: ViewClasses,
    stable_depth: usize,
    fold: usize,
}

impl BaseAnalysis {
    /// Refines the base dart rows until the stopping rule fires *for the
    /// lift*: stop at depth `d` when the class count reaches the lift's
    /// node count `darts.len() * fold` (only possible with `fold == 1`), or
    /// at `d + 1` when an extension stops growing the count.
    pub fn compute(darts: &[Vec<(usize, Port)>], fold: usize) -> BaseAnalysis {
        let opts = RefineOptions::default();
        let (classes, stable_depth) =
            ViewClasses::compute_until_stable_over(darts, darts.len() * fold, &opts);
        BaseAnalysis {
            classes,
            stable_depth,
            fold,
        }
    }

    /// The first depth at which the class count stopped growing.
    pub fn stable_depth(&self) -> usize {
        self.stable_depth
    }

    /// The fold of the covered lift.
    pub fn fold(&self) -> usize {
        self.fold
    }

    /// Transfers the depth-`d` class row to the lift through the covering
    /// map `colors` (lift node `v` belongs to base node `colors[v]`). The
    /// result is bit-identical to the direct `ViewClasses` row of the lift
    /// at every depth.
    ///
    /// # Panics
    /// As [`ViewClasses::row_at`]: deepen [`classes`](Self::classes) first.
    pub fn pullback_row(&self, d: usize, colors: &[usize]) -> Vec<ClassId> {
        let row = self.classes.row_at(d);
        colors.iter().map(|&c| row[c]).collect()
    }

    /// The [`FeasibilityReport`] of the covered lift, bit-identical to
    /// `election_index::analyze` on the materialized graph: distinct views,
    /// stabilization depth, feasibility (`fold == 1` and discrete base) and
    /// φ (the first all-distinct depth).
    pub fn report(&self) -> FeasibilityReport {
        let n = self.classes.classes_at(0).len() * self.fold;
        report_from_table(&self.classes, self.stable_depth, n)
    }
}

/// The base-time analysis of a [`MinimumBase`]: refine the quotient dart
/// rows at size `C = num_classes`, with results valid for the covered
/// graph of size `n = C * fold`.
pub fn analyze_base(base: &MinimumBase) -> BaseAnalysis {
    BaseAnalysis::compute(base.dart_rows(), base.fold())
}

/// Analyzes the lift of a voltage graph **without materializing it**:
/// [`validate_lift`] proves in `O(n + m)` (union-find, no refinement, no
/// adjacency build) that the lift is a simple connected graph, then the
/// refinement runs on the base dart structure at quotient size. The report
/// is bit-identical to `election_index::analyze(&vg.lift()?)`.
pub fn analyze_lift(vg: &VoltageGraph) -> Result<FeasibilityReport, QuotientError> {
    validate_lift(vg)?;
    Ok(analyze_lift_unchecked(vg))
}

/// [`analyze_lift`] without the validity check: the caller guarantees the
/// lift is a simple connected graph (e.g. it came from
/// [`connected_cyclic_lift`](anet_graph::quotient::connected_cyclic_lift)).
/// Cost tracks the *base* size only — this is the `report bench-quotient`
/// fast path that analyzes a million-node lift in base time.
pub fn analyze_lift_unchecked(vg: &VoltageGraph) -> FeasibilityReport {
    BaseAnalysis::compute(&base_dart_rows(vg), vg.fold).report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::ViewClasses;
    use crate::election_index::analyze;
    use anet_graph::lift::{random_lift, VoltageEdge};
    use anet_graph::quotient::connected_cyclic_lift;
    use anet_graph::{generators, Graph};

    /// Covering map of a voltage lift: lift node `v` projects to `v / fold`.
    fn lift_colors(vg: &VoltageGraph) -> Vec<usize> {
        (0..vg.base_nodes * vg.fold).map(|v| v / vg.fold).collect()
    }

    fn assert_base_matches_direct(g: &Graph, ba: &BaseAnalysis, colors: &[usize]) {
        let direct = analyze(g);
        assert_eq!(ba.report(), direct, "report transfer");
        let (table, stable) = ViewClasses::compute_until_stable(g);
        assert_eq!(ba.stable_depth(), stable, "stable depth");
        for d in 0..=table.max_depth() {
            assert_eq!(
                ba.pullback_row(d, colors),
                table.row_at(d),
                "pulled-back row at depth {d}"
            );
            assert_eq!(
                ba.classes.num_classes_deep(d),
                table.num_classes(d),
                "count at {d}"
            );
        }
    }

    #[test]
    fn voltage_lift_analysis_matches_materialized_analysis() {
        for (i, small) in [
            generators::clique(4),
            generators::ring(6),
            generators::complete_bipartite(2, 3),
            generators::random_connected(8, 0.35, 9),
            generators::lollipop(4, 3),
        ]
        .iter()
        .enumerate()
        {
            for fold in [2usize, 3, 5] {
                let vg = connected_cyclic_lift(small, fold, 7 * i as u64 + fold as u64);
                let g = vg.lift().expect("connected by construction");
                assert_eq!(
                    analyze_lift(&vg).unwrap(),
                    analyze(&g),
                    "base {i} fold {fold}"
                );
                assert_eq!(analyze_lift_unchecked(&vg), analyze(&g));
                let ba = BaseAnalysis::compute(&base_dart_rows(&vg), fold);
                assert_base_matches_direct(&g, &ba, &lift_colors(&vg));
            }
        }
    }

    #[test]
    fn random_lift_rows_pull_back_bit_identically() {
        for seed in 0..4u64 {
            let small = generators::random_connected(6, 0.5, seed);
            let Some(g) = random_lift(&small, 3, seed) else {
                continue;
            };
            let base = MinimumBase::of(&g).unwrap();
            base.certify(&g).unwrap();
            let ba = analyze_base(&base);
            assert_base_matches_direct(&g, &ba, base.colors());
        }
    }

    #[test]
    fn minimum_base_path_handles_feasible_and_tiny_graphs() {
        for g in [
            generators::lollipop(5, 4),
            generators::path(2),
            generators::path(3),
            Graph::from_adjacency(vec![vec![]]).unwrap(),
            Graph::from_adjacency(vec![]).unwrap(),
        ] {
            let base = MinimumBase::of(&g).unwrap();
            base.certify(&g).unwrap();
            let ba = analyze_base(&base);
            assert_eq!(ba.report(), analyze(&g), "n = {}", g.num_nodes());
        }
    }

    #[test]
    fn deep_rows_serve_from_the_fixed_point() {
        let g = generators::ring(9);
        let base = MinimumBase::of(&g).unwrap();
        let mut ba = analyze_base(&base);
        let (mut table, _) = ViewClasses::compute_until_stable(&g);
        let opts = RefineOptions::default();
        for depth in [3usize, 10, 1_000] {
            ba.classes.ensure_depth(base.dart_rows(), depth, &opts);
            table.ensure_depth(&g, depth, &opts);
            assert_eq!(ba.pullback_row(depth, base.colors()), table.row_at(depth));
        }
    }

    #[test]
    fn invalid_lifts_are_refused_without_materialization() {
        let vg = VoltageGraph {
            base_nodes: 1,
            fold: 3,
            edges: vec![VoltageEdge {
                u: 0,
                v: 0,
                sigma: vec![0, 1, 2],
            }],
        };
        assert!(analyze_lift(&vg).is_err());
    }
}
