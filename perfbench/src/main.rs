//! `perfbench` — the repository's benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from `--seed`, measures for `--seconds`,
//! checks every output, prints one `name = value unit` line per metric and,
//! as the last line of standard output, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics of `BENCHMARK.json`; `--trace 1` runs the traced
//! variant and reports the per-layer metrics. Exits 1 when any output
//! check fails and 2 on a usage error. See `perfbench/README.md`.

mod analysis;
mod batch;
mod elect;
mod openloop;
mod service;
mod stats;
mod trace;
mod tradeoff;

use std::process::ExitCode;

pub const WORKLOADS: &[&str] = &[
    "elect_min_time",
    "tradeoff_sweep",
    "analysis_large",
    "service_zipf",
];

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// A measured value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The outcome of one run: the contract's result line plus human notes.
#[derive(Debug, Default)]
pub struct Report {
    /// Jobs run and checked.
    pub attempted: u64,
    /// Attempted jobs that failed at least one check.
    pub failed: u64,
    /// Description of every failed check; a failed job may have several.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// No job failed. A failure message without a failed job would be a
    /// checker bug, so it also makes the run incorrect.
    fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

// What each per-layer metric is predicted to move: an end-to-end metric
// and the workload it moves on.
const ELECT: &str = "wall_s on elect_min_time; jobs_per_s on service_zipf (min_time misses)";
const SWEEP: &str = "wall_s on tradeoff_sweep; jobs_per_s on service_zipf (Section-4 misses)";
const REFINE: &str = "wall_s on analysis_large";
const SERVICE: &str = "jobs_per_s, job_p99_ms and peak_rss_mb on service_zipf";
const OPEN: &str = "the open-loop ladder of service_zipf";
const AXES: &str = "nothing: the paper's two axes, deterministic per seed";
const TRACE: &str = "nothing: the traced run itself";

/// The per-layer metrics every traced run reports, in print order, as
/// `(name, unit, what it should move)`. A layer a workload does not
/// exercise reads 0.
#[rustfmt::skip]
pub const LAYERS: &[(&str, &str, &str)] = &[
    ("election.advice.ms", "ms", ELECT),
    ("election.labels.ms", "ms", ELECT),
    ("election.labels.calls", "count", ELECT),
    ("election.outputs.ms", "ms", ELECT),
    ("election.outputs.path_words", "count", ELECT),
    ("election.decode.ms", "ms", ELECT),
    ("sim.com.ms", "ms", ELECT),
    ("sim.com.messages", "count", ELECT),
    ("sim.com.message_words", "count", ELECT),
    ("views.levels.ms", "ms", ELECT),
    ("views.arena.views", "count", ELECT),
    ("election.verify.ms", "ms", ELECT),
    ("graph.ecc.ms", "ms", SWEEP),
    ("graph.ecc.bfs_edges", "count", SWEEP),
    ("election.scheme.ms", "ms", SWEEP),
    ("views.refine.ms", "ms", REFINE),
    ("views.refine.depths", "count", REFINE),
    ("graph.canon.ms", "ms", "wall_s on analysis_large; job_p50_ms on service_zipf"),
    ("graph.min_base.ms", "ms", REFINE),
    ("views.quotient.ms", "ms", REFINE),
    ("service.parse.ms", "ms", SERVICE),
    ("service.resolve.ms", "ms", SERVICE),
    ("service.execute.ms", "ms", SERVICE),
    ("service.transport.ms", "ms", SERVICE),
    ("service.cache.hits", "count", SERVICE),
    ("service.cache.misses", "count", SERVICE),
    ("service.cache.evictions", "count", SERVICE),
    ("service.cache.hit_ratio", "ratio", SERVICE),
    ("service.errors.typed", "count", SERVICE),
    ("loadgen.lag_p99_ms", "ms", OPEN),
    ("open_p50_ms", "ms", OPEN),
    ("open_p99_ms", "ms", OPEN),
    ("slo_rate_jobs_per_s", "1/s", OPEN),
    ("advice_bits", "bit", AXES),
    ("election_rounds", "round", AXES),
    ("trace.wall_ms", "ms", TRACE),
    ("trace.overhead_ms", "ms", TRACE),
    ("trace.dominant_share", "ratio", TRACE),
];

/// Fills `report` with every per-layer metric, taking values from `values`
/// and 0 for layers the workload does not exercise.
pub fn push_layer_metrics(report: &mut Report, values: &std::collections::BTreeMap<String, f64>) {
    for &(name, unit, _) in LAYERS {
        report.metric(name, values.get(name).copied().unwrap_or(0.0), unit);
    }
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Ctx, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Ctx {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The service workload re-executes this binary as its daemon.
    if args.first().map(String::as_str) == Some(service::DAEMON_ARG) {
        return match service::daemon_main(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench daemon: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let ctx = match parse_args(&args) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let result = match ctx.workload.as_str() {
        "elect_min_time" => elect::run(&ctx),
        "tradeoff_sweep" => tradeoff::run(&ctx),
        "analysis_large" => analysis::run(&ctx),
        "service_zipf" => service::run(&ctx),
        _ => unreachable!("workload names are validated by parse_args"),
    };
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", ctx.workload);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "workload = {} seed = {} seconds = {} trace = {}",
        ctx.workload, ctx.seed, ctx.seconds, ctx.trace as u8
    );
    for note in &report.notes {
        println!("note: {note}");
    }
    for m in &report.metrics {
        match LAYERS.iter().find(|l| l.0 == m.name) {
            Some((_, _, moves)) if ctx.trace => {
                println!("{} = {} {}  (moves {moves})", m.name, m.value, m.unit)
            }
            _ => println!("{} = {} {}", m.name, m.value, m.unit),
        }
    }
    for f in report.failures.iter().take(20) {
        println!("FAILED: {f}");
    }
    println!(
        "attempted = {} failed = {} failed_frac = {}",
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    println!("{}", report.result_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
