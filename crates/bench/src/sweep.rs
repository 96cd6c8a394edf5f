//! The scheme × workload tradeoff sweep: every [`anet_election`] advice
//! scheme run against every benchmark graph off **one cached
//! [`Instance`] per graph**, emitted as the combined advice-vs-time JSON
//! trajectory `BENCH_sweep.json` (repository root).
//!
//! This is the workload the session API exists for: the φ/refinement
//! analysis and the eccentricities are computed up front per graph (reported as
//! `analysis_ms`), the view arena and `ComputeAdvice` are built lazily by
//! the first scheme that needs them (so they land in `min_time`'s
//! `wall_ms`), and all seven schemes — [`MinTime`](anet_election::MinTime),
//! `Generic(φ)`, the four milestones and
//! [`Remark`](anet_election::Remark) — reuse every cached piece, so the
//! whole curve costs little more than its most expensive point. Instances
//! are processed
//! in parallel with `std::thread::scope` workers. Re-emit with (`--max-n`
//! defaults to the artifact's 100k tier; the 1M-node tier runs only when a
//! larger value is passed):
//!
//! ```text
//! cargo run --release -p anet-bench --bin report -- sweep --max-n 100000 --json BENCH_sweep.json --threads 4
//! ```
//!
//! The JSON is written by hand (the workspace is offline; no serde), with
//! the tiny escaping the instance names need.

use std::io::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use anet_conformance::json::escape;
use anet_election::{scheme_suite, Instance};

use crate::workloads;

/// One scheme run on one instance: a point of the advice-vs-time curve.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRecord {
    /// Workload instance name.
    pub instance: String,
    /// Number of nodes.
    pub n: usize,
    /// Number of edges.
    pub m: usize,
    /// The election index of the instance.
    pub phi: usize,
    /// The diameter of the instance.
    pub diameter: usize,
    /// Scheme name (`min_time`, `generic(x=..)`, `milestone1..4`, `remark`).
    pub scheme: String,
    /// Size of the scheme's advice in bits.
    pub advice_bits: usize,
    /// Measured election time in rounds.
    pub time: usize,
    /// The scheme's theorem time bound on this instance.
    pub time_bound: usize,
    /// Whether `time <= time_bound` (milestone bounds are asymptotic and can
    /// be exceeded at tiny φ; the generic `D + P + 1` guarantee always
    /// holds).
    pub within_bound: bool,
    /// Wall time of the shared per-instance analysis (φ + diameter), paid
    /// once per instance and repeated on every record of that instance.
    pub analysis_ms: f64,
    /// Wall time of this scheme's `advice` + `run` on the warm instance.
    pub wall_ms: f64,
}

/// Runs every scheme of [`scheme_suite`] on every instance of
/// [`workloads::bench_graphs`] plus the [`workloads::elect_graphs_up_to`]
/// tiers with at most `max_n` nodes (above ~20k nodes only the
/// low-diameter `random_sparse` family runs — see that function's docs),
/// sharing one [`Instance`] per graph, with up to `threads`
/// `std::thread::scope` workers processing instances in parallel (each
/// worker owns its instances; the refinement engine itself runs
/// sequentially inside a worker).
///
/// # Panics
/// Panics if any scheme fails on any instance — every workload instance is
/// feasible, so the sweep doubles as an end-to-end correctness check of the
/// whole tradeoff curve.
pub fn run_scheme_sweep(max_n: usize, threads: usize) -> Vec<SweepRecord> {
    let mut instances = workloads::bench_graphs();
    instances.extend(workloads::elect_graphs_up_to(max_n));
    let workers = threads.clamp(1, instances.len().max(1));

    let next = AtomicUsize::new(0);
    let mut slots: Vec<Vec<SweepRecord>> = vec![Vec::new(); instances.len()];
    let slot_refs: Vec<std::sync::Mutex<&mut Vec<SweepRecord>>> =
        slots.iter_mut().map(std::sync::Mutex::new).collect();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(inst) = instances.get(i) else { break };
                let records = sweep_one(&inst.name, &inst.graph);
                **slot_refs[i].lock().expect("sweep worker panicked") = records;
            });
        }
    });
    slots.into_iter().flatten().collect()
}

/// Runs the full scheme suite on one graph through one shared instance.
fn sweep_one(name: &str, g: &anet_graph::Graph) -> Vec<SweepRecord> {
    let session = Instance::new(g);

    let start = Instant::now();
    let phi = session
        .phi()
        .unwrap_or_else(|e| panic!("{name}: analysis failed: {e}"));
    let diameter = session.diameter();
    let analysis_ms = start.elapsed().as_secs_f64() * 1e3;

    scheme_suite(phi)
        .iter()
        .map(|scheme| {
            let start = Instant::now();
            let outcome = scheme
                .elect(&session)
                .unwrap_or_else(|e| panic!("{name}: {} failed: {e}", scheme.name()));
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            SweepRecord {
                instance: name.to_string(),
                n: g.num_nodes(),
                m: g.num_edges(),
                phi,
                diameter,
                scheme: outcome.scheme.clone(),
                advice_bits: outcome.advice_bits(),
                time: outcome.time,
                time_bound: outcome.time_bound,
                within_bound: outcome.within_bound(),
                analysis_ms,
                wall_ms,
            }
        })
        .collect()
}

/// Serializes records as a JSON array of objects.
pub fn to_json(records: &[SweepRecord]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"instance\": \"{}\", \"n\": {}, \"m\": {}, \"phi\": {}, \"diameter\": {}, \
             \"scheme\": \"{}\", \"advice_bits\": {}, \"time\": {}, \"time_bound\": {}, \
             \"within_bound\": {}, \"analysis_ms\": {:.3}, \"wall_ms\": {:.3}}}{}\n",
            escape(&r.instance),
            r.n,
            r.m,
            r.phi,
            r.diameter,
            escape(&r.scheme),
            r.advice_bits,
            r.time,
            r.time_bound,
            r.within_bound,
            r.analysis_ms,
            r.wall_ms,
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    out.push_str("]\n");
    out
}

/// Writes the sweep results as JSON to `path`.
pub fn emit(path: &std::path::Path, records: &[SweepRecord]) -> std::io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    file.write_all(to_json(records).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_runs_every_scheme_on_small_graphs() {
        // Cap below the large tiers: only bench_graphs() run here.
        let records = run_scheme_sweep(0, 2);
        assert!(!records.is_empty());
        let per_instance = 7; // min_time, generic, 4 milestones, remark
        assert_eq!(records.len() % per_instance, 0);
        for chunk in records.chunks(per_instance) {
            assert!(chunk.iter().all(|r| r.instance == chunk[0].instance));
            assert_eq!(chunk[0].scheme, "min_time");
            assert_eq!(chunk[0].time, chunk[0].phi, "Theorem 3.1");
            assert_eq!(chunk[6].scheme, "remark");
            assert_eq!(chunk[6].time, chunk[6].diameter + chunk[6].phi);
            // The curve: min-time advice dwarfs every small-advice scheme.
            for r in &chunk[1..] {
                assert!(r.advice_bits < chunk[0].advice_bits, "{}", r.scheme);
                assert!(r.time >= chunk[0].time, "{}", r.scheme);
            }
        }
    }

    #[test]
    fn parallel_and_sequential_sweeps_agree_modulo_wall_times() {
        let seq = run_scheme_sweep(0, 1);
        let par = run_scheme_sweep(0, 4);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(par.iter()) {
            assert_eq!(a.instance, b.instance);
            assert_eq!(a.scheme, b.scheme);
            assert_eq!(a.advice_bits, b.advice_bits);
            assert_eq!(a.time, b.time);
            assert_eq!(a.time_bound, b.time_bound);
        }
    }

    #[test]
    fn json_shape_is_stable() {
        let records = vec![SweepRecord {
            instance: "ring\"odd\\name".into(),
            n: 6,
            m: 6,
            phi: 2,
            diameter: 3,
            scheme: "generic(x=2)".into(),
            advice_bits: 6,
            time: 5,
            time_bound: 6,
            within_bound: true,
            analysis_ms: 0.25,
            wall_ms: 0.5,
        }];
        let json = to_json(&records);
        assert!(json.starts_with("[\n") && json.ends_with("]\n"));
        assert!(json.contains("\"scheme\": \"generic(x=2)\""));
        assert!(json.contains("\"within_bound\": true"));
        assert!(json.contains("\"analysis_ms\": 0.250"));
        assert!(json.contains("ring\\\"odd\\\\name"));
        assert_eq!(json.matches("},\n").count(), 0);
    }
}
