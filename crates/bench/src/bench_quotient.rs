//! The quotient-collapse bench (`report bench-quotient`) and its JSON
//! emission.
//!
//! `BENCH_quotient.json` (repository root) records, per voltage-lift tier,
//! the cost of the two ways to analyze the lift:
//!
//! * **direct** — materialize the lift (`lift_ms`) and run the view
//!   refinement on all `n` nodes (`direct_ms`);
//! * **quotient** — run [`analyze_lift_unchecked`] on the base dart
//!   structure, never materializing the lift (`quotient_ms`); the cost
//!   tracks the *base* size, not `n`.
//!
//! Both produce the same `FeasibilityReport` bit for bit (`agree`, checked
//! per tier), so the `speedup` column is the collapse the fibration theory
//! promises: a million-node lift of a 50-node ring-of-cliques base analyzes
//! in base time. Families: ring-of-cliques lifts (including the fold-1
//! feasible base itself), necklace lifts, clique lifts, and pure circulant
//! voltage graphs (a one-node base with two self-loops — the extreme
//! quotient). Re-emit after touching the engine with:
//!
//! ```text
//! cargo run --release -p anet-bench --bin report -- bench-quotient --json BENCH_quotient.json
//! ```
//!
//! With `--no-wall` the three wall columns and the speedup are zeroed so
//! two emissions are byte-comparable across thread counts (the CI gate
//! `cmp`s them, and `sed`s the committed artifact's wall fields to zero to
//! compare everything else).

use std::io::Write as _;
use std::time::Instant;

use anet_conformance::json::escape;
use anet_families::{necklace, ring_of_cliques};
use anet_graph::generators;
use anet_graph::lift::{VoltageEdge, VoltageGraph};
use anet_graph::quotient::connected_cyclic_lift;
use anet_views::election_index::analyze_with;
use anet_views::quotient::analyze_lift_unchecked;
use anet_views::RefineOptions;

/// One lift tier: the direct and the quotient analysis of the same graph.
#[derive(Debug, Clone, PartialEq)]
pub struct QuotientBenchRecord {
    /// Tier name.
    pub name: String,
    /// Family label (`ring_of_cliques`, `necklace`, `clique`, `circulant`).
    pub family: &'static str,
    /// Nodes of the base structure the quotient path refines.
    pub base_n: usize,
    /// Fiber size of the covering projection.
    pub fold: usize,
    /// Nodes of the lift (`base_n * fold`).
    pub n: usize,
    /// Edges of the lift.
    pub m: usize,
    /// Distinct (infinite) views of the lift.
    pub distinct_views: usize,
    /// Depth at which the view partition stabilized.
    pub stable_depth: usize,
    /// The election index, `None` on infeasible tiers.
    pub phi: Option<usize>,
    /// Whether the lift is feasible.
    pub feasible: bool,
    /// Whether the quotient report equals the direct report bit for bit.
    pub agree: bool,
    /// Wall time to materialize the lift, in milliseconds.
    pub lift_ms: f64,
    /// Wall time of the direct analysis of all `n` nodes, in milliseconds.
    pub direct_ms: f64,
    /// Wall time of the base-time quotient analysis, in milliseconds.
    pub quotient_ms: f64,
    /// `direct_ms / quotient_ms` (0.0 under `--no-wall`).
    pub speedup: f64,
}

/// The circulant voltage graph `C_n({1, s})`: one base node, two self-loop
/// edges with cyclic voltages 1 and `s` — the extreme quotient (a 4-regular
/// `n`-node graph whose base has a single node).
fn circulant(fold: usize, s: usize) -> VoltageGraph {
    let shift = |k: usize| (0..fold).map(|i| (i + k) % fold).collect();
    VoltageGraph {
        base_nodes: 1,
        fold,
        edges: vec![
            VoltageEdge {
                u: 0,
                v: 0,
                sigma: shift(1),
            },
            VoltageEdge {
                u: 0,
                v: 0,
                sigma: shift(s),
            },
        ],
    }
}

/// Times both analyses of one voltage graph and folds them into a record.
fn run_tier(
    name: String,
    family: &'static str,
    vg: &VoltageGraph,
    opts: &RefineOptions,
) -> QuotientBenchRecord {
    let start = Instant::now();
    let report_q = analyze_lift_unchecked(vg);
    let quotient_ms = start.elapsed().as_secs_f64() * 1e3;

    let start = Instant::now();
    let g = vg
        .lift()
        .expect("bench lifts are connected by construction");
    let lift_ms = start.elapsed().as_secs_f64() * 1e3;

    let start = Instant::now();
    let report_d = analyze_with(&g, opts);
    let direct_ms = start.elapsed().as_secs_f64() * 1e3;

    QuotientBenchRecord {
        name,
        family,
        base_n: vg.base_nodes,
        fold: vg.fold,
        n: g.num_nodes(),
        m: g.num_edges(),
        distinct_views: report_d.distinct_views,
        stable_depth: report_d.stable_depth,
        phi: report_d.election_index,
        feasible: report_d.feasible,
        agree: report_q == report_d,
        lift_ms,
        direct_ms,
        quotient_ms,
        speedup: if quotient_ms > 0.0 {
            direct_ms / quotient_ms
        } else {
            0.0
        },
    }
}

/// Runs every lift tier with at most `max_n` lift nodes; `threads` drives
/// the *direct* analysis (the quotient path runs on bases small enough that
/// parallelism never kicks in — that asymmetry is the point).
pub fn run_quotient_bench(max_n: usize, threads: usize) -> Vec<QuotientBenchRecord> {
    let opts = RefineOptions { threads };
    let mut records = Vec::new();

    let roc = ring_of_cliques::ring_of_cliques_base(10, 4);
    for fold in [1usize, 100, 20_000] {
        if roc.num_nodes() * fold > max_n {
            continue;
        }
        let vg = connected_cyclic_lift(&roc, fold, 0x5EED_0001);
        records.push(run_tier(
            format!("lift(ring_of_cliques(k=10,x=4),fold={fold})"),
            "ring_of_cliques",
            &vg,
            &opts,
        ));
    }

    let params = necklace::NecklaceParams { k: 4, x: 3, phi: 3 };
    let neck = necklace::necklace_base(params);
    for fold in [4usize, 1_000] {
        if neck.num_nodes() * fold > max_n {
            continue;
        }
        let vg = connected_cyclic_lift(&neck, fold, 0x5EED_0002);
        records.push(run_tier(
            format!("lift(necklace(k=4,x=3,phi=3),fold={fold})"),
            "necklace",
            &vg,
            &opts,
        ));
    }

    let clique = generators::clique(8);
    for fold in [16usize, 4_096] {
        if clique.num_nodes() * fold > max_n {
            continue;
        }
        let vg = connected_cyclic_lift(&clique, fold, 0x5EED_0003);
        records.push(run_tier(
            format!("lift(clique(8),fold={fold})"),
            "clique",
            &vg,
            &opts,
        ));
    }

    for fold in [1_000usize, 1_000_000] {
        if fold > max_n {
            continue;
        }
        let vg = circulant(fold, 3);
        records.push(run_tier(
            format!("circulant(n={fold},s=3)"),
            "circulant",
            &vg,
            &opts,
        ));
    }

    records
}

/// Serializes records as a JSON array of objects.
pub fn to_json(records: &[QuotientBenchRecord]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        let phi = match r.phi {
            Some(p) => p.to_string(),
            None => "null".to_string(),
        };
        out.push_str(&format!(
            "  {{\"instance\": \"{}\", \"family\": \"{}\", \"base_n\": {}, \
             \"fold\": {}, \"n\": {}, \"m\": {}, \"distinct_views\": {}, \
             \"stable_depth\": {}, \"phi\": {}, \"feasible\": {}, \
             \"agree\": {}, \"lift_ms\": {:.3}, \"direct_ms\": {:.3}, \
             \"quotient_ms\": {:.3}, \"speedup\": {:.1}}}{}\n",
            escape(&r.name),
            r.family,
            r.base_n,
            r.fold,
            r.n,
            r.m,
            r.distinct_views,
            r.stable_depth,
            phi,
            r.feasible,
            r.agree,
            r.lift_ms,
            r.direct_ms,
            r.quotient_ms,
            r.speedup,
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    out.push_str("]\n");
    out
}

/// Writes the bench results as JSON to `path`.
pub fn emit(path: &std::path::Path, records: &[QuotientBenchRecord]) -> std::io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    file.write_all(to_json(records).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_tiers_agree_and_collapse() {
        let records = run_quotient_bench(6_000, 1);
        assert!(records.len() >= 4, "got {}", records.len());
        assert!(records.iter().all(|r| r.agree), "{records:?}");
        assert!(records.iter().all(|r| r.n == r.base_n * r.fold));
        // The fold-1 ring-of-cliques base itself is feasible; every proper
        // lift is infeasible with quotient-size many distinct views.
        let base = &records[0];
        assert_eq!(base.fold, 1);
        assert!(base.feasible);
        for r in records.iter().filter(|r| r.fold > 1) {
            assert!(!r.feasible);
            assert_eq!(r.phi, None);
            assert_eq!(r.distinct_views, r.base_n, "{}", r.name);
        }
    }

    #[test]
    fn circulant_base_has_one_node() {
        let vg = circulant(50, 3);
        let records = [run_tier(
            "circulant(n=50,s=3)".into(),
            "circulant",
            &vg,
            &RefineOptions::default(),
        )];
        assert_eq!(records[0].base_n, 1);
        assert_eq!(records[0].n, 50);
        assert_eq!(records[0].distinct_views, 1);
        assert!(records[0].agree);
    }

    #[test]
    fn json_shape_is_stable_and_no_wall_zeroes_reproduce() {
        let mut records = run_quotient_bench(200, 1);
        for r in &mut records {
            r.lift_ms = 0.0;
            r.direct_ms = 0.0;
            r.quotient_ms = 0.0;
            r.speedup = 0.0;
        }
        let json = to_json(&records);
        assert!(json.starts_with("[\n") && json.ends_with("]\n"));
        assert!(json.contains("\"family\": \"ring_of_cliques\""));
        assert!(json.contains("\"lift_ms\": 0.000, \"direct_ms\": 0.000"));
        assert!(json.contains("\"quotient_ms\": 0.000, \"speedup\": 0.0}"));
        assert_eq!(json, to_json(&records), "deterministic");
    }
}
