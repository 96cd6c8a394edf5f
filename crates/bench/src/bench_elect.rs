//! The end-to-end election perf sweep and its JSON emission.
//!
//! Where `bench_json` times the φ/feasibility *analysis*, this module times
//! the full Theorem 3.1 pipeline — `ComputeAdvice` (oracle), the simulated
//! `COM`/`Elect` run over the hash-consed view arena, and outcome
//! verification — on the same [`workloads::bench_graphs`] +
//! [`workloads::large_graphs`] sweep. `BENCH_elect.json` (repository root)
//! records, per instance, the per-phase wall times together with the message
//! volume (`anet_sim::RunStats`) and the arena working-set size, so the
//! perf trajectory of the system's second hot path is tracked across PRs.
//! Re-emit after touching the exchange or advice machinery with:
//!
//! ```text
//! cargo run --release -p anet-bench --bin report -- bench-elect --json BENCH_elect.json
//! ```
//!
//! The JSON is written by hand (the workspace is offline; no serde), with
//! the tiny escaping the instance names need.

use std::io::Write as _;
use std::time::Instant;

use anet_conformance::json::escape;
use anet_election::{simulate_election, verify_election, Instance};
use anet_views::RefineOptions;

use crate::workloads;

/// One timed end-to-end election run on one instance.
///
/// ```
/// use anet_bench::bench_elect::{run_elect_sweep, to_json};
///
/// // Cap below the large tiers: only the small bench graphs run here.
/// let records = run_elect_sweep(0, 1);
/// assert!(records.iter().all(|r| r.time == r.phi), "Theorem 3.1");
/// assert!(to_json(&records).contains("\"advice_bits\""));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ElectRecord {
    /// Workload instance name.
    pub name: String,
    /// Number of nodes.
    pub n: usize,
    /// Number of edges.
    pub m: usize,
    /// The election index (= the advice's round budget).
    pub phi: usize,
    /// The measured election time in rounds (must equal `phi`).
    pub time: usize,
    /// Size of the advice in bits (the Theorem 3.1 `O(n log n)` quantity).
    pub advice_bits: usize,
    /// Messages delivered by the `COM` exchange.
    pub messages: usize,
    /// Total message payload in machine words (2 per arena message).
    pub message_words: usize,
    /// Distinct view subtrees interned by the run's arena.
    pub distinct_views: usize,
    /// Wall time of `ComputeAdvice`, in milliseconds.
    pub advice_ms: f64,
    /// Wall time of the simulated decode + `COM` + label + output phase.
    pub sim_ms: f64,
    /// Wall time of outcome verification.
    pub verify_ms: f64,
}

impl ElectRecord {
    /// Total wall time of the three phases.
    pub fn total_ms(&self) -> f64 {
        self.advice_ms + self.sim_ms + self.verify_ms
    }
}

/// Runs the election sweep over [`workloads::bench_graphs`] plus the
/// [`workloads::elect_graphs_up_to`] tiers with at most `max_n` nodes
/// (above ~20k nodes only the low-diameter `random_sparse` family runs —
/// see that function's docs), timing the advice-build / simulation /
/// verification phases separately (`threads` workers for the refinement
/// and view-level passes inside `ComputeAdvice`).
///
/// # Panics
/// Panics if any instance fails to elect — the sweep doubles as an
/// end-to-end correctness check (every workload instance is feasible).
pub fn run_elect_sweep(max_n: usize, threads: usize) -> Vec<ElectRecord> {
    let opts = RefineOptions { threads };
    let mut instances = workloads::bench_graphs();
    instances.extend(workloads::elect_graphs_up_to(max_n));
    instances
        .into_iter()
        .map(|inst| {
            let g = &inst.graph;
            let session = Instance::with_options(g, opts);

            let start = Instant::now();
            let advice = session
                .advice()
                .unwrap_or_else(|e| panic!("{}: ComputeAdvice failed: {e}", inst.name));
            let advice_ms = start.elapsed().as_secs_f64() * 1e3;

            let start = Instant::now();
            let sim = simulate_election(g, advice)
                .unwrap_or_else(|e| panic!("{}: Elect simulation failed: {e}", inst.name));
            let sim_ms = start.elapsed().as_secs_f64() * 1e3;

            let start = Instant::now();
            let leader = verify_election(g, &sim.outputs)
                .unwrap_or_else(|e| panic!("{}: verification failed: {e}", inst.name));
            let verify_ms = start.elapsed().as_secs_f64() * 1e3;
            assert_eq!(leader, advice.root, "{}: wrong leader", inst.name);

            ElectRecord {
                name: inst.name,
                n: g.num_nodes(),
                m: g.num_edges(),
                phi: advice.phi,
                time: sim.time,
                advice_bits: advice.size_bits(),
                messages: sim.stats.messages,
                message_words: sim.stats.message_words,
                distinct_views: sim.distinct_views,
                advice_ms,
                sim_ms,
                verify_ms,
            }
        })
        .collect()
}

/// Serializes records as a JSON array of objects.
pub fn to_json(records: &[ElectRecord]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"instance\": \"{}\", \"n\": {}, \"m\": {}, \"phi\": {}, \"time\": {}, \
             \"advice_bits\": {}, \"messages\": {}, \"message_words\": {}, \
             \"distinct_views\": {}, \"advice_ms\": {:.3}, \"sim_ms\": {:.3}, \
             \"verify_ms\": {:.3}}}{}\n",
            escape(&r.name),
            r.n,
            r.m,
            r.phi,
            r.time,
            r.advice_bits,
            r.messages,
            r.message_words,
            r.distinct_views,
            r.advice_ms,
            r.sim_ms,
            r.verify_ms,
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    out.push_str("]\n");
    out
}

/// Writes the sweep results as JSON to `path`.
pub fn emit(path: &std::path::Path, records: &[ElectRecord]) -> std::io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    file.write_all(to_json(records).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_on_small_graphs_elects_in_phi_rounds() {
        // Cap below the large tiers: only bench_graphs() run here.
        let records = run_elect_sweep(0, 1);
        assert!(!records.is_empty());
        for r in &records {
            assert_eq!(r.time, r.phi, "{}", r.name);
            assert!(r.advice_bits > 0, "{}", r.name);
            // COM delivers 2 messages per edge per round, 2 words each.
            assert_eq!(r.messages, 2 * r.m * r.phi, "{}", r.name);
            assert_eq!(r.message_words, 2 * r.messages, "{}", r.name);
            assert!(r.distinct_views <= (r.phi + 1) * r.n, "{}", r.name);
        }
    }

    #[test]
    fn json_shape_is_stable() {
        let records = vec![ElectRecord {
            name: "ring\"odd\\name".into(),
            n: 6,
            m: 6,
            phi: 2,
            time: 2,
            advice_bits: 120,
            messages: 24,
            message_words: 48,
            distinct_views: 9,
            advice_ms: 0.5,
            sim_ms: 0.25,
            verify_ms: 0.125,
        }];
        let json = to_json(&records);
        assert!(json.starts_with("[\n") && json.ends_with("]\n"));
        assert!(json.contains("\"phi\": 2"));
        assert!(json.contains("\"advice_ms\": 0.500"));
        assert!(json.contains("\"verify_ms\": 0.125"));
        assert!(json.contains("ring\\\"odd\\\\name"));
        assert_eq!(json.matches("},\n").count(), 0);
    }
}
