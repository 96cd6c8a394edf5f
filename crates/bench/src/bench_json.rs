//! The election-index perf sweep and its JSON emission.
//!
//! `BENCH_election_index.json` (repository root) records, per instance of
//! the [`workloads::bench_graphs`] and [`workloads::large_graphs`] sweeps,
//! the instance name, node/edge counts, `φ`, the stable depth, and the
//! wall-clock time of one `analyze` call. Re-emit after touching the engine
//! with:
//!
//! ```text
//! cargo run --release -p anet-bench --bin report -- bench-index --json BENCH_election_index.json
//! ```
//!
//! so the perf trajectory is tracked across PRs. The JSON is written by hand
//! (the workspace is offline; no serde), with the tiny escaping the instance
//! names need.

use std::io::Write as _;
use std::time::Instant;

use anet_conformance::json::escape;
use anet_views::election_index::analyze_with;
use anet_views::RefineOptions;

use crate::workloads;

/// One timed `analyze` run on one instance.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Workload instance name.
    pub name: String,
    /// Number of nodes.
    pub n: usize,
    /// Number of edges.
    pub m: usize,
    /// The election index, `None` on infeasible instances.
    pub phi: Option<usize>,
    /// Depth at which the view partition stabilized.
    pub stable_depth: usize,
    /// Wall time of the `analyze` call, in milliseconds.
    pub wall_ms: f64,
}

/// Runs the election-index sweep over [`workloads::bench_graphs`] plus the
/// [`workloads::large_graphs`] tiers with at most `max_n` nodes, timing one
/// [`analyze_with`] call per instance with `threads` key-fill workers.
pub fn run_sweep(max_n: usize, threads: usize) -> Vec<BenchRecord> {
    let opts = RefineOptions { threads };
    let mut instances = workloads::bench_graphs();
    instances.extend(workloads::large_graphs_up_to(max_n));
    instances
        .into_iter()
        .map(|inst| {
            let start = Instant::now();
            let report = analyze_with(&inst.graph, &opts);
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            BenchRecord {
                name: inst.name,
                n: inst.graph.num_nodes(),
                m: inst.graph.num_edges(),
                phi: report.election_index,
                stable_depth: report.stable_depth,
                wall_ms,
            }
        })
        .collect()
}

/// Serializes records as a JSON array of objects.
pub fn to_json(records: &[BenchRecord]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        let phi = match r.phi {
            Some(p) => p.to_string(),
            None => "null".to_string(),
        };
        out.push_str(&format!(
            "  {{\"instance\": \"{}\", \"n\": {}, \"m\": {}, \"phi\": {}, \
             \"stable_depth\": {}, \"wall_ms\": {:.3}}}{}\n",
            escape(&r.name),
            r.n,
            r.m,
            phi,
            r.stable_depth,
            r.wall_ms,
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    out.push_str("]\n");
    out
}

/// Writes the sweep results as JSON to `path`.
pub fn emit(path: &std::path::Path, records: &[BenchRecord]) -> std::io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    file.write_all(to_json(records).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<BenchRecord> {
        vec![
            BenchRecord {
                name: "caterpillar(8)".into(),
                n: 36,
                m: 35,
                phi: Some(1),
                stable_depth: 2,
                wall_ms: 0.125,
            },
            BenchRecord {
                name: "ring\"odd\\name".into(),
                n: 6,
                m: 6,
                phi: None,
                stable_depth: 1,
                wall_ms: 0.5,
            },
        ]
    }

    #[test]
    fn json_shape_is_stable() {
        let json = to_json(&sample());
        assert!(json.starts_with("[\n"));
        assert!(json.ends_with("]\n"));
        assert!(json.contains("\"instance\": \"caterpillar(8)\""));
        assert!(json.contains("\"phi\": 1"));
        assert!(json.contains("\"phi\": null"));
        assert!(json.contains("\"wall_ms\": 0.125"));
        // Escaping keeps the quoting intact.
        assert!(json.contains("ring\\\"odd\\\\name"));
        // One trailing comma per record except the last.
        assert_eq!(json.matches("},\n").count(), 1);
    }

    #[test]
    fn sweep_on_small_graphs_produces_records() {
        // Cap below the large tiers: only bench_graphs() run here.
        let records = run_sweep(0, 1);
        assert!(!records.is_empty());
        for r in &records {
            assert!(r.phi.is_some(), "{}", r.name);
            assert!(r.m >= r.n - 1);
        }
    }
}
