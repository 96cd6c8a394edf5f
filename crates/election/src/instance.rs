//! The analysis-caching election session: one [`Instance`] per graph.
//!
//! Every election algorithm in this crate consumes the same expensive graph
//! analysis — the view-refinement table and φ, the diameter/eccentricities,
//! the hash-consed view arena with the per-depth view levels, and the full
//! `ComputeAdvice` output. Before this module each entry point recomputed
//! all of it from scratch; an `Instance` computes each piece lazily, exactly
//! once, and shares it across every [`AdviceScheme`](crate::AdviceScheme)
//! run against it:
//!
//! ```
//! use anet_election::{AdviceScheme, Generic, Instance, MinTime, Remark};
//! use anet_graph::generators;
//!
//! let g = generators::lollipop(5, 4);
//! let inst = Instance::new(&g);
//! let phi = inst.phi().unwrap();
//! // Three schemes, one analysis: φ, classes, diameter and the arena are
//! // computed on first use and reused by every subsequent run.
//! let fast = MinTime.elect(&inst).unwrap();
//! let slow = Generic { x: phi }.elect(&inst).unwrap();
//! let tiny = Remark.elect(&inst).unwrap();
//! assert_eq!(fast.time, phi);
//! assert!(slow.advice_bits() < fast.advice_bits());
//! assert!(tiny.time <= slow.time_bound);
//! assert_eq!(inst.compute_counts().analysis, 1);
//! ```
//!
//! The caches use interior mutability (`OnceCell`/`RefCell`), so an
//! `Instance` is `Send` but not `Sync`: share it freely between schemes on
//! one thread, and give each worker of a `std::thread::scope` sweep its own
//! instance (the pattern of `anet-bench`'s `report sweep`). To share a
//! session across threads, put it behind a mutex — `anet-service`'s warm
//! cache holds each session in a `parking_lot::Mutex` slot and runs schemes
//! while holding the lock.
//!
//! An `Instance` *owns* its graph behind an [`Arc`]: [`Instance::new`]
//! clones the borrowed graph once, and [`Instance::from_arc`] takes an
//! existing handle with zero copies. Owning the graph is what lets sessions
//! outlive the scope that created them (the `anet-service` LRU).

use std::cell::{Cell, OnceCell, RefCell};
use std::sync::Arc;

use anet_graph::quotient::{MinimumBase, QuotientError};
use anet_graph::{algo, Graph};
use anet_sim::SharedViewArena;
use anet_views::quotient::{analyze_base, BaseAnalysis};
use anet_views::{
    ClassId, FeasibilityReport, RefineOptions, ShardedViewArena, ViewClasses, ViewId,
};

use crate::advice_build::{compute_advice_in, Advice};
use crate::error::ElectionError;

/// How many times each lazily-cached analysis of an [`Instance`] was
/// actually computed (not served from cache). Every field stays at most 1
/// for the lifetime of an instance — the property the session API exists to
/// provide — and tests assert it after running full scheme suites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ComputeCounts {
    /// Refinement analyses (`ViewClasses::compute_until_stable` + φ).
    pub analysis: usize,
    /// Depth extensions of the cached class table (each `ensure_depth` call
    /// that added at least one row counts once; the table itself is never
    /// rebuilt).
    pub class_deepenings: usize,
    /// Multi-source BFS passes over all nodes (eccentricities; the diameter
    /// is their max).
    pub eccentricities: usize,
    /// Arena view-level computations (`ShardedViewArena::compute_levels`).
    pub levels: usize,
    /// Full `ComputeAdvice` constructions.
    pub advice: usize,
    /// Minimum-base constructions plus their base-size refinement
    /// ([`Instance::minimum_base`] and the other `quotient_*` accessors all
    /// share one cached [`MinimumBase`] + `BaseAnalysis` pair).
    pub quotient: usize,
}

/// The outcome of the refinement analysis, cached together with the table it
/// came from so deeper class rows extend the same object.
struct Analysis {
    classes: ViewClasses,
    report: FeasibilityReport,
}

/// The cached quotient fast path: the minimum base of the graph plus its
/// base-size refinement table. All transferred results are bit-identical to
/// the direct computation (the oracle, asserted by tests and conformance).
struct QuotientState {
    base: MinimumBase,
    analysis: BaseAnalysis,
}

/// A graph wrapped with lazily-computed, memoized election analysis.
///
/// See the [module docs](self) for the usage pattern. All accessors are
/// idempotent: repeated calls return the same values and never recompute
/// (checked via [`compute_counts`](Instance::compute_counts)).
pub struct Instance {
    graph: Arc<Graph>,
    opts: RefineOptions,
    analysis: RefCell<Option<Analysis>>,
    quotient: RefCell<Option<Result<QuotientState, QuotientError>>>,
    eccentricities: OnceCell<Vec<usize>>,
    arena: SharedViewArena,
    levels: OnceCell<Vec<Vec<ViewId>>>,
    advice: OnceCell<Result<Advice, ElectionError>>,
    counts: Cell<ComputeCounts>,
}

impl Instance {
    /// Wraps a clone of `graph` with empty caches and default engine
    /// options. (One `Graph` clone; use [`from_arc`](Instance::from_arc) to
    /// share an existing handle with zero copies.)
    pub fn new(graph: &Graph) -> Self {
        Self::with_options(graph, RefineOptions::default())
    }

    /// [`new`](Instance::new) with explicit refinement-engine options
    /// (e.g. a thread count for the parallel refinement and view-level
    /// passes on large graphs). This is the single place options enter the
    /// election layer; every analysis and every scheme run on this instance
    /// uses them.
    pub fn with_options(graph: &Graph, opts: RefineOptions) -> Self {
        Self::from_arc(Arc::new(graph.clone()), opts)
    }

    /// Wraps an owned graph handle without copying. The session keeps the
    /// `Arc` alive for its whole lifetime, so it can outlive the caller's
    /// scope — the shape `anet-service`'s warm-session cache needs.
    pub fn from_arc(graph: Arc<Graph>, opts: RefineOptions) -> Self {
        Instance {
            graph,
            opts,
            analysis: RefCell::new(None),
            quotient: RefCell::new(None),
            eccentricities: OnceCell::new(),
            arena: Arc::new(ShardedViewArena::new()),
            levels: OnceCell::new(),
            advice: OnceCell::new(),
            counts: Cell::new(ComputeCounts::default()),
        }
    }

    /// The wrapped graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// A new owning handle to the wrapped graph.
    pub fn graph_arc(&self) -> Arc<Graph> {
        Arc::clone(&self.graph)
    }

    /// The refinement-engine options every analysis on this instance uses.
    pub fn options(&self) -> &RefineOptions {
        &self.opts
    }

    /// How many times each cached analysis was computed so far (all fields
    /// stay `<= 1`; see [`ComputeCounts`]).
    pub fn compute_counts(&self) -> ComputeCounts {
        self.counts.get()
    }

    fn bump(&self, f: impl FnOnce(&mut ComputeCounts)) {
        let mut c = self.counts.get();
        f(&mut c);
        self.counts.set(c);
    }

    /// Runs `f` with the cached analysis, computing it on first use.
    fn with_analysis<R>(&self, f: impl FnOnce(&mut Analysis) -> R) -> R {
        let mut slot = self.analysis.borrow_mut();
        let analysis = slot.get_or_insert_with(|| {
            self.bump(|c| c.analysis += 1);
            let (classes, stable_depth) =
                ViewClasses::compute_until_stable_with(&self.graph, &self.opts);
            let report = anet_views::election_index::report_from_table(
                &classes,
                stable_depth,
                self.graph.num_nodes(),
            );
            Analysis { classes, report }
        });
        f(analysis)
    }

    /// The feasibility report of the graph (one refinement analysis,
    /// cached): feasibility, φ, the number of distinct infinite views and
    /// the stabilization depth. Identical to
    /// `anet_views::election_index::analyze`.
    pub fn feasibility(&self) -> FeasibilityReport {
        self.with_analysis(|a| a.report.clone())
    }

    /// Whether leader election is possible when nodes know the map.
    pub fn is_feasible(&self) -> bool {
        self.with_analysis(|a| a.report.feasible)
    }

    /// The election index `φ(G)`, or [`ElectionError::Infeasible`].
    pub fn phi(&self) -> Result<usize, ElectionError> {
        self.with_analysis(|a| a.report.election_index)
            .ok_or(ElectionError::Infeasible)
    }

    /// The depth at which the view partition stabilized.
    pub fn stable_depth(&self) -> usize {
        self.with_analysis(|a| a.report.stable_depth)
    }

    /// Number of distinct (infinite) views; equals `n` iff feasible.
    pub fn distinct_views(&self) -> usize {
        self.with_analysis(|a| a.report.distinct_views)
    }

    /// The view-equivalence class row at depth `depth` (one entry per node,
    /// dense ids in canonical view order), extending the cached table on
    /// demand. Depths beyond the table's labeling fixed point are served
    /// from the fixed-point row without any further refinement work, which
    /// is what makes the milestone schemes' huge `Generic(P)` parameters
    /// affordable.
    pub fn class_row(&self, depth: usize) -> Vec<ClassId> {
        self.with_classes_at(depth, |classes| classes.row_at(depth).to_vec())
    }

    /// Number of distinct views at depth `depth` (same deep-depth resolution
    /// as [`class_row`](Instance::class_row)).
    pub fn num_classes_at(&self, depth: usize) -> usize {
        self.with_classes_at(depth, |classes| classes.num_classes_deep(depth))
    }

    /// Runs `f` with the cached class table deepened to answer `depth`,
    /// counting one `class_deepenings` when that added rows.
    fn with_classes_at<R>(&self, depth: usize, f: impl FnOnce(&ViewClasses) -> R) -> R {
        self.with_analysis(|a| {
            let before = a.classes.max_depth();
            a.classes.ensure_depth(&*self.graph, depth, &self.opts);
            if a.classes.max_depth() > before {
                self.bump(|c| c.class_deepenings += 1);
            }
            f(&a.classes)
        })
    }

    /// Per-node eccentricities (one multi-source BFS pass,
    /// [`algo::eccentricities`], cached).
    pub fn eccentricities(&self) -> &[usize] {
        self.eccentricities.get_or_init(|| {
            self.bump(|c| c.eccentricities += 1);
            algo::eccentricities(&self.graph)
        })
    }

    /// The diameter of the graph (max eccentricity, cached).
    pub fn diameter(&self) -> usize {
        self.eccentricities().iter().copied().max().unwrap_or(0)
    }

    /// The shared hash-consed view arena of this session. The advice
    /// construction and every simulated `COM` exchange intern against this
    /// one arena, so view records built by one phase are reused by the next.
    pub fn arena(&self) -> SharedViewArena {
        Arc::clone(&self.arena)
    }

    /// The interned views of every node at every depth `0..=φ`
    /// (`levels[d][v]` = id of `B^d(v)` in [`arena`](Instance::arena)),
    /// computed once. Errors on infeasible graphs (φ undefined).
    pub fn levels(&self) -> Result<&Vec<Vec<ViewId>>, ElectionError> {
        let phi = self.phi()?;
        Ok(self.levels.get_or_init(|| {
            self.bump(|c| c.levels += 1);
            self.arena
                .compute_levels_with(&self.graph, phi, self.opts.threads)
        }))
    }

    /// The full minimum-time advice (`ComputeAdvice(G)`, Algorithm 5),
    /// computed once on the shared arena, with every canonical view order
    /// read from the cached class rows `0..=φ`. Errors on infeasible graphs.
    pub fn advice(&self) -> Result<&Advice, ElectionError> {
        // Resolve φ and the levels before entering the OnceCell closure so
        // the error path does not poison the cache with `Infeasible` before
        // the levels cache is populated.
        let deps = self
            .phi()
            .and_then(|phi| self.levels().map(|levels| (phi, levels)));
        self.advice
            .get_or_init(|| {
                let (phi, levels) = deps?;
                self.bump(|c| c.advice += 1);
                Ok(self.with_classes_at(phi, |classes| {
                    let rows: Vec<&[ClassId]> = (0..=phi).map(|d| classes.row_at(d)).collect();
                    compute_advice_in(&self.graph, phi, &self.arena, levels, &rows)
                }))
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    /// Runs `f` with the cached quotient state, building the minimum base
    /// and its base-size analysis on first use (one canonical form, one
    /// base-time refinement — never repeated, errors cached too).
    fn with_quotient<R>(
        &self,
        f: impl FnOnce(&mut QuotientState) -> R,
    ) -> Result<R, QuotientError> {
        let mut slot = self.quotient.borrow_mut();
        let state = slot.get_or_insert_with(|| {
            self.bump(|c| c.quotient += 1);
            MinimumBase::of(&self.graph).map(|base| {
                let analysis = analyze_base(&base);
                QuotientState { base, analysis }
            })
        });
        match state {
            Ok(state) => Ok(f(state)),
            Err(e) => Err(e.clone()),
        }
    }

    /// The minimum base this graph fibers over (Boldi–Vigna), built once
    /// from the canonical form. Its size is
    /// [`distinct_views`](Instance::distinct_views) and `base.lift()`
    /// reconstructs the graph up to the certified renumbering — see
    /// [`certify_quotient`](Instance::certify_quotient).
    pub fn minimum_base(&self) -> Result<MinimumBase, QuotientError> {
        self.with_quotient(|s| s.base.clone())
    }

    /// Number of nodes of the minimum base (= number of stable view
    /// classes). Strictly less than `n` exactly when the quotient fast path
    /// runs on a smaller structure than the graph.
    pub fn quotient_size(&self) -> Result<usize, QuotientError> {
        self.with_quotient(|s| s.base.num_classes())
    }

    /// The fiber size `n / quotient_size` of the covering projection.
    pub fn quotient_fold(&self) -> Result<usize, QuotientError> {
        self.with_quotient(|s| s.base.fold())
    }

    /// The feasibility report computed **on the base** (size = quotient,
    /// not `n`) and transferred back through the covering map. Bit-identical
    /// to [`feasibility`](Instance::feasibility) — the direct computation
    /// stays the oracle, and the conformance corpus certifies the equality
    /// on every instance.
    pub fn quotient_feasibility(&self) -> Result<FeasibilityReport, QuotientError> {
        self.with_quotient(|s| s.analysis.report())
    }

    /// The depth-`depth` class row computed on the base and pulled back to
    /// the graph through the covering map; bit-identical to
    /// [`class_row`](Instance::class_row) at every depth.
    pub fn quotient_class_row(&self, depth: usize) -> Result<Vec<ClassId>, QuotientError> {
        self.with_quotient(|s| {
            s.analysis
                .classes
                .ensure_depth(s.base.dart_rows(), depth, &self.opts);
            s.analysis.pullback_row(depth, s.base.colors())
        })
    }

    /// Certifies the quotient construction against the wrapped graph:
    /// materializes `base.lift()` and checks it is exactly the graph under
    /// the fiber renumbering. This is the witness the conformance corpus
    /// records per instance.
    pub fn certify_quotient(&self) -> Result<(), QuotientError> {
        self.with_quotient(|s| s.base.certify(&self.graph))?
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anet_graph::generators;
    use anet_views::election_index::{analyze, election_index};

    #[test]
    fn instance_reports_match_the_free_analysis() {
        for g in [
            generators::lollipop(5, 4),
            generators::caterpillar(6),
            generators::ring(6),
            generators::random_connected(20, 0.15, 3),
        ] {
            let inst = Instance::new(&g);
            let free = analyze(&g);
            assert_eq!(inst.feasibility(), free);
            assert_eq!(inst.phi().ok(), free.election_index);
            assert_eq!(inst.is_feasible(), free.feasible);
            // One BFS per node, independent of the multi-source kernel.
            let oracle = g.nodes().map(|v| algo::eccentricity(&g, v)).max();
            assert_eq!(Some(inst.diameter()), oracle);
        }
    }

    #[test]
    fn repeated_queries_are_idempotent_and_compute_once() {
        let g = generators::lollipop(6, 5);
        let inst = Instance::new(&g);
        let phi1 = inst.phi().unwrap();
        let phi2 = inst.phi().unwrap();
        let d1 = inst.diameter();
        let d2 = inst.diameter();
        let row1 = inst.class_row(phi1);
        let row2 = inst.class_row(phi1);
        assert_eq!(phi1, phi2);
        assert_eq!(d1, d2);
        assert_eq!(row1, row2);
        let advice1 = inst.advice().unwrap().bits.clone();
        let advice2 = inst.advice().unwrap().bits.clone();
        assert_eq!(advice1, advice2);
        let counts = inst.compute_counts();
        assert_eq!(counts.analysis, 1, "one refinement analysis");
        assert_eq!(counts.eccentricities, 1, "one eccentricity pass");
        assert_eq!(counts.levels, 1, "one arena level computation");
        assert_eq!(counts.advice, 1, "one ComputeAdvice run");
        assert_eq!(
            counts.class_deepenings, 0,
            "phi row is in the analysis table"
        );
    }

    #[test]
    fn class_rows_match_direct_computation_at_any_depth() {
        let g = generators::random_connected(18, 0.15, 5);
        let inst = Instance::new(&g);
        let phi = election_index(&g).unwrap();
        for depth in [0, 1, phi, phi + 1, phi + 7] {
            let row = inst.class_row(depth);
            let eager = ViewClasses::compute(&g, depth);
            assert_eq!(row, eager.classes_at(depth), "depth {depth}");
        }
        // Depths beyond the labeling fixed point are served without further
        // refinement work and stay consistent.
        assert_eq!(inst.class_row(1_000_000), inst.class_row(999_999));
        assert_eq!(inst.num_classes_at(1_000_000), g.num_nodes());
        // All of that deepened the one cached table a handful of times and
        // never re-ran the analysis.
        assert!(inst.compute_counts().class_deepenings <= 3);
        assert_eq!(inst.compute_counts().analysis, 1);
    }

    #[test]
    fn quotient_fast_path_matches_the_direct_oracle() {
        for g in [
            generators::ring(8),
            generators::lollipop(5, 4),
            generators::complete_bipartite(3, 3),
            generators::random_connected(14, 0.25, 11),
        ] {
            let inst = Instance::new(&g);
            inst.certify_quotient().unwrap();
            assert_eq!(inst.quotient_size().unwrap(), inst.distinct_views());
            assert_eq!(
                inst.quotient_fold().unwrap() * inst.quotient_size().unwrap(),
                g.num_nodes()
            );
            assert_eq!(inst.quotient_feasibility().unwrap(), inst.feasibility());
            for depth in [0, 1, inst.stable_depth(), inst.stable_depth() + 5] {
                assert_eq!(
                    inst.quotient_class_row(depth).unwrap(),
                    inst.class_row(depth),
                    "depth {depth}"
                );
            }
            assert_eq!(inst.compute_counts().quotient, 1, "one base build");
        }
    }

    #[test]
    fn infeasible_graphs_error_on_phi_but_still_answer_classes() {
        let g = generators::ring(6);
        let inst = Instance::new(&g);
        assert_eq!(inst.phi(), Err(ElectionError::Infeasible));
        assert_eq!(inst.advice().unwrap_err(), ElectionError::Infeasible);
        assert!(!inst.is_feasible());
        // Classes are still well-defined (a single class on the ring).
        assert_eq!(inst.num_classes_at(4), 1);
        assert_eq!(inst.compute_counts().analysis, 1);
    }
}
