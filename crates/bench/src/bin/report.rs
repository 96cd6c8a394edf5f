//! The experiment report generator.
//!
//! Usage:
//!
//! ```text
//! cargo run -p anet-bench --bin report -- all        # every experiment
//! cargo run -p anet-bench --bin report -- e1 e4      # selected experiments
//! cargo run -p anet-bench --bin report -- figures    # DOT figures only
//!
//! # election-index perf sweep (bench_graphs + large_graphs), JSON emission;
//! # --no-wall zeros wall-clock fields so emissions at different thread
//! # counts are byte-identical (the CI determinism gate cmp's them):
//! cargo run --release -p anet-bench --bin report -- bench-index \
//!     --json BENCH_election_index.json [--max-n 1000000] [--threads 4] [--no-wall]
//!
//! # end-to-end election perf sweep (advice / simulation / verify phases):
//! cargo run --release -p anet-bench --bin report -- bench-elect \
//!     --json BENCH_elect.json [--max-n 100000] [--threads 4] [--no-wall]
//!
//! # every advice scheme on every workload off one cached Instance per graph:
//! cargo run --release -p anet-bench --bin report -- sweep \
//!     --json BENCH_sweep.json [--max-n 100000] [--threads 4] [--no-wall]
//!
//! # quotient-collapse bench: direct vs base-time analysis of voltage lifts
//! # (the million-node lift of a 50-node base analyzes in base time):
//! cargo run --release -p anet-bench --bin report -- bench-quotient \
//!     --json BENCH_quotient.json [--max-n 1000000] [--threads 4] [--no-wall]
//!
//! # adversarial-corpus differential conformance run (exit 1 on violations):
//! cargo run --release -p anet-bench --bin report -- corpus \
//!     --json BENCH_corpus.json [--seed 7] [--max-n 600] [--threads 4]
//!
//! # fault-dimension survivors analysis over the corpus (exit 1 on violations):
//! cargo run --release -p anet-bench --bin report -- faults \
//!     --json BENCH_faults.json [--seed 7] [--max-n 600] [--threads 4]
//!
//! # workspace static-analysis pass (exit 1 on violations):
//! cargo run -p anet-bench --bin report -- lint \
//!     [--json FILE] [--update-baseline] [--root DIR]
//!
//! # election-as-a-service daemon (NDJSON over TCP/Unix socket, or a
//! # one-shot stdin batch; see crates/service):
//! cargo run --release -p anet-bench --bin report -- serve \
//!     [--tcp ADDR | --unix PATH | --stdin] [--workers T] [--cache N] [--max-nodes N]
//!
//! # seeded deterministic load generator against a running daemon:
//! cargo run --release -p anet-bench --bin report -- loadgen \
//!     --addr ADDR [--seed S] [--jobs N] [--clients C] [--rate R] [--transcript FILE]
//!
//! # service bench tiers (daemon + loadgen in one process), JSON emission:
//! cargo run --release -p anet-bench --bin report -- bench-service \
//!     --json BENCH_service.json [--seed S] [--jobs N] [--no-wall]
//! ```
//!
//! Unknown experiment ids are an error (exit code 2) and print the valid
//! set. Note the numbering gap: there is intentionally no experiment `e9` —
//! the slot the DESIGN numbering reserves for the construction figures,
//! which are regenerated by the explicit `figures` subcommand instead.

use anet_bench::{bench_elect, bench_json, bench_quotient, bench_service, experiments, sweep};
use anet_conformance::{
    faults, harness, json as conformance_json, CorpusSpec, FaultSummary, Summary,
};
use anet_service::{loadgen, Engine, EngineConfig};

/// The experiment ids `all` expands to, in reporting order.
const EXPERIMENTS: [&str; 10] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e10", "figures",
];

/// Prints the command synopsis and the valid argument set.
fn usage() {
    eprintln!(
        "usage: report [all | <experiment id>...] | figures\n\
         \x20      report bench-index [--json FILE] [--max-n N] [--threads T] [--no-wall]\n\
         \x20      report bench-elect [--json FILE] [--max-n N] [--threads T] [--no-wall]\n\
         \x20      report sweep       [--json FILE] [--max-n N] [--threads T] [--no-wall]\n\
         \x20      report bench-quotient [--json FILE] [--max-n N] [--threads T] [--no-wall]\n\
         \x20      report corpus      [--json FILE] [--seed S] [--max-n N] [--threads T]\n\
         \x20      report faults      [--json FILE] [--seed S] [--max-n N] [--threads T]\n\
         \x20      report lint        [--json FILE] [--update-baseline] [--root DIR]\n\
         \x20      report serve       [--tcp ADDR | --unix PATH | --stdin] [--workers T]\n\
         \x20                         [--cache N] [--max-nodes N]\n\
         \x20      report loadgen     --addr ADDR [--seed S] [--jobs N] [--clients C]\n\
         \x20                         [--rate R] [--transcript FILE]\n\
         \x20      report bench-service [--json FILE] [--seed S] [--jobs N] [--no-wall]\n\
         \n\
         valid experiment ids: {} (there is intentionally no e9: that slot\n\
         is the construction figures, regenerated via `figures`)",
        EXPERIMENTS.join(", ")
    );
}

/// Runs the `bench-index` sweep, printing a table and optionally writing the
/// JSON trajectory file. With `no_wall` every wall-clock field is zeroed so
/// the emitted JSON is byte-comparable across runs and thread counts (the
/// CI determinism gate `cmp`s two emissions).
fn run_bench_index(json: Option<&str>, max_n: usize, threads: usize, no_wall: bool) {
    let mut records = bench_json::run_sweep(max_n, threads);
    if no_wall {
        for r in &mut records {
            r.wall_ms = 0.0;
        }
    }
    println!("# Election-index perf sweep (max_n = {max_n}, threads = {threads})");
    println!(
        "{:<40} {:>7} {:>8} {:>5} {:>7} {:>10}",
        "instance", "n", "m", "phi", "stable", "wall_ms"
    );
    for r in &records {
        let phi = r.phi.map_or("-".to_string(), |p| p.to_string());
        println!(
            "{:<40} {:>7} {:>8} {:>5} {:>7} {:>10.3}",
            r.name, r.n, r.m, phi, r.stable_depth, r.wall_ms
        );
    }
    if let Some(path) = json {
        match bench_json::emit(std::path::Path::new(path), &records) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("failed to write {path}: {e}"),
        }
    }
}

/// Runs the `bench-elect` sweep, printing a per-phase table and optionally
/// writing the JSON trajectory file. With `no_wall` every wall-clock field
/// is zeroed for byte-comparable output.
fn run_bench_elect(json: Option<&str>, max_n: usize, threads: usize, no_wall: bool) {
    let mut records = bench_elect::run_elect_sweep(max_n, threads);
    if no_wall {
        for r in &mut records {
            r.advice_ms = 0.0;
            r.sim_ms = 0.0;
            r.verify_ms = 0.0;
        }
    }
    println!("# End-to-end election perf sweep (max_n = {max_n}, threads = {threads})");
    println!(
        "{:<40} {:>7} {:>8} {:>4} {:>5} {:>10} {:>9} {:>10} {:>10} {:>10} {:>10}",
        "instance",
        "n",
        "m",
        "phi",
        "time",
        "advice_b",
        "messages",
        "views",
        "advice_ms",
        "sim_ms",
        "verify_ms"
    );
    for r in &records {
        println!(
            "{:<40} {:>7} {:>8} {:>4} {:>5} {:>10} {:>9} {:>10} {:>10.3} {:>10.3} {:>10.3}",
            r.name,
            r.n,
            r.m,
            r.phi,
            r.time,
            r.advice_bits,
            r.messages,
            r.distinct_views,
            r.advice_ms,
            r.sim_ms,
            r.verify_ms
        );
    }
    if let Some(path) = json {
        match bench_elect::emit(std::path::Path::new(path), &records) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("failed to write {path}: {e}"),
        }
    }
}

/// Runs the scheme × workload `sweep`, printing the advice-vs-time table and
/// optionally writing the JSON trajectory file. With `no_wall` every
/// wall-clock field is zeroed for byte-comparable output.
fn run_scheme_sweep(json: Option<&str>, max_n: usize, threads: usize, no_wall: bool) {
    let mut records = sweep::run_scheme_sweep(max_n, threads);
    if no_wall {
        for r in &mut records {
            r.analysis_ms = 0.0;
            r.wall_ms = 0.0;
        }
    }
    println!(
        "# Advice-vs-time scheme sweep, one cached Instance per graph \
         (max_n = {max_n}, threads = {threads})"
    );
    println!(
        "{:<40} {:>7} {:>4} {:>4} {:<14} {:>11} {:>8} {:>10} {:>6} {:>11} {:>9}",
        "instance",
        "n",
        "phi",
        "D",
        "scheme",
        "advice_bits",
        "time",
        "bound",
        "ok",
        "analysis_ms",
        "wall_ms"
    );
    for r in &records {
        println!(
            "{:<40} {:>7} {:>4} {:>4} {:<14} {:>11} {:>8} {:>10} {:>6} {:>11.3} {:>9.3}",
            r.instance,
            r.n,
            r.phi,
            r.diameter,
            r.scheme,
            r.advice_bits,
            r.time,
            r.time_bound,
            r.within_bound,
            r.analysis_ms,
            r.wall_ms
        );
    }
    if let Some(path) = json {
        match sweep::emit(std::path::Path::new(path), &records) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("failed to write {path}: {e}"),
        }
    }
}

/// Runs the `bench-quotient` tiers, printing the direct-vs-base-time table
/// and optionally writing the JSON artifact. With `no_wall` the wall
/// columns and the speedup are zeroed for byte-comparable output; the
/// `agree` column (quotient report == direct report, bit for bit) is
/// checked per tier and fails the run when violated.
fn run_bench_quotient(json: Option<&str>, max_n: usize, threads: usize, no_wall: bool) {
    let mut records = bench_quotient::run_quotient_bench(max_n, threads);
    if no_wall {
        for r in &mut records {
            r.lift_ms = 0.0;
            r.direct_ms = 0.0;
            r.quotient_ms = 0.0;
            r.speedup = 0.0;
        }
    }
    println!("# Quotient-collapse bench (max_n = {max_n}, threads = {threads})");
    println!(
        "{:<42} {:>6} {:>7} {:>8} {:>8} {:>6} {:>5} {:>9} {:>10} {:>11} {:>9}",
        "instance",
        "base_n",
        "fold",
        "n",
        "views",
        "stable",
        "agree",
        "lift_ms",
        "direct_ms",
        "quotient_ms",
        "speedup"
    );
    for r in &records {
        println!(
            "{:<42} {:>6} {:>7} {:>8} {:>8} {:>6} {:>5} {:>9.3} {:>10.3} {:>11.3} {:>9.1}",
            r.name,
            r.base_n,
            r.fold,
            r.n,
            r.distinct_views,
            r.stable_depth,
            r.agree,
            r.lift_ms,
            r.direct_ms,
            r.quotient_ms,
            r.speedup
        );
    }
    if let Some(path) = json {
        match bench_quotient::emit(std::path::Path::new(path), &records) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if records.iter().any(|r| !r.agree) {
        eprintln!("bench-quotient: a quotient report disagreed with the direct oracle");
        std::process::exit(1);
    }
}

/// Runs the `corpus` conformance harness, printing the certification table,
/// optionally writing the deterministic JSON report, and exiting nonzero if
/// any instance failed certification.
fn run_conformance_corpus(json: Option<&str>, spec: CorpusSpec, threads: usize) {
    let reports = harness::run_corpus(&spec, threads);
    println!(
        "# Adversarial-corpus conformance run (seed = {}, max_n = {}, threads = {threads})",
        spec.seed, spec.max_n
    );
    println!(
        "{:<36} {:<12} {:>6} {:>7} {:>5} {:>4} {:>8} {:>6} {:>5}",
        "instance", "kind", "n", "m", "phi", "D", "schemes", "equiv", "viol"
    );
    for r in &reports {
        let phi = r.phi.map_or("-".to_string(), |p| p.to_string());
        println!(
            "{:<36} {:<12} {:>6} {:>7} {:>5} {:>4} {:>8} {:>6} {:>5}",
            r.name,
            r.kind,
            r.n,
            r.m,
            phi,
            r.diameter,
            r.schemes.len(),
            r.equivariant,
            r.violations.len()
        );
        for v in &r.violations {
            println!("    VIOLATION: {v}");
        }
    }
    let s = Summary::of(&reports);
    println!(
        "# certified {}/{} instances ({} feasible, {} infeasible); {} violation(s)",
        s.feasible_certified + s.infeasible_certified,
        s.total,
        s.feasible_certified,
        s.infeasible_certified,
        s.violations
    );
    if let Some(path) = json {
        match conformance_json::emit(std::path::Path::new(path), &reports) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                // The JSON *is* the certification artifact (CI byte-compares
                // it): failing to write it is a failed run, not a warning.
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if s.violations > 0 {
        std::process::exit(1);
    }
}

/// Runs the `faults` survivors analysis over the corpus, printing the
/// per-dimension certification table, optionally writing the deterministic
/// JSON report, and exiting nonzero if any instance failed certification.
fn run_faults_corpus(json: Option<&str>, spec: CorpusSpec, threads: usize) {
    let reports = faults::run_faults_corpus(&spec, threads);
    println!(
        "# Fault-dimension survivors analysis (seed = {}, max_n = {}, threads = {threads})",
        spec.seed, spec.max_n
    );
    println!(
        "{:<36} {:<12} {:>6} {:>7} {:>5} {:>5} {:>9} {:>8} {:>8} {:>5}",
        "instance", "kind", "n", "m", "phi", "dims", "identical", "degraded", "refused", "viol"
    );
    for r in &reports {
        let phi = r.phi.map_or("-".to_string(), |p| p.to_string());
        let count = |c: faults::FaultClass| r.records.iter().filter(|f| f.observed == c).count();
        println!(
            "{:<36} {:<12} {:>6} {:>7} {:>5} {:>5} {:>9} {:>8} {:>8} {:>5}",
            r.name,
            r.kind,
            r.n,
            r.m,
            phi,
            r.records.len(),
            count(faults::FaultClass::OutcomeIdentical),
            count(faults::FaultClass::DegradedButCorrect),
            count(faults::FaultClass::CorrectlyRefused),
            r.violations.len()
        );
        for v in &r.violations {
            println!("    VIOLATION: {v}");
        }
    }
    let s = FaultSummary::of(&reports);
    println!(
        "# certified {}/{} instances; dimensions: {} identical, {} degraded, {} refused; \
         {} violation(s)",
        s.certified,
        s.total,
        s.outcome_identical,
        s.degraded_but_correct,
        s.correctly_refused,
        s.violations
    );
    if let Some(path) = json {
        match conformance_json::emit_faults(std::path::Path::new(path), &reports) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                // The JSON *is* the certification artifact (CI byte-compares
                // it): failing to write it is a failed run, not a warning.
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if s.violations > 0 {
        std::process::exit(1);
    }
}

/// Runs the `lint` static-analysis pass over the workspace, printing the
/// text report (and optionally writing the deterministic JSON report), and
/// exiting 1 if any rule is violated.
fn run_lint_pass(json: Option<&str>, root: Option<&str>, update_baseline: bool) {
    // The workspace root relative to this crate's manifest; `--root` exists
    // so the fixture tests (and out-of-tree use) can point elsewhere.
    let default_root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let root = std::path::Path::new(root.unwrap_or(default_root));
    let opts = anet_analysis::LintOptions {
        update_baseline,
        ..Default::default()
    };
    let report = match anet_analysis::run_lint(root, &opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("lint: {e}");
            std::process::exit(2);
        }
    };
    print!("{}", anet_analysis::report::render_text(&report));
    if let Some(path) = json {
        // The JSON is the machine-readable certificate (CI consumes it):
        // failing to write it is a failed run.
        if let Err(e) = std::fs::write(path, anet_analysis::report::render_json(&report)) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {path}");
    }
    if !report.is_clean() {
        std::process::exit(1);
    }
}

/// How `report serve` listens.
enum ServeTransport {
    Tcp(String),
    Unix(String),
    Stdin,
}

/// Parses the `serve` flags and runs the daemon until a `shutdown` request
/// (or, in `--stdin` mode, until EOF).
fn run_serve(args: &[String]) {
    let mut transport = ServeTransport::Tcp("127.0.0.1:7677".to_string());
    let mut config = EngineConfig::default();
    let mut workers = 4usize;
    let parse_or_die = |flag: &str, value: Option<&String>| -> u64 {
        match value.map(|v| v.parse()) {
            Some(Ok(v)) => v,
            _ => {
                eprintln!("serve: {flag} needs an unsigned integer value");
                std::process::exit(2);
            }
        }
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--tcp" => match it.next() {
                Some(addr) => transport = ServeTransport::Tcp(addr.clone()),
                None => {
                    eprintln!("serve: --tcp needs an address");
                    std::process::exit(2);
                }
            },
            "--unix" => match it.next() {
                Some(path) => transport = ServeTransport::Unix(path.clone()),
                None => {
                    eprintln!("serve: --unix needs a socket path");
                    std::process::exit(2);
                }
            },
            "--stdin" => transport = ServeTransport::Stdin,
            "--workers" => workers = parse_or_die("--workers", it.next()) as usize,
            "--cache" => config.cache_capacity = parse_or_die("--cache", it.next()) as usize,
            "--max-nodes" => config.max_nodes = parse_or_die("--max-nodes", it.next()) as usize,
            other => {
                eprintln!("unknown serve flag: {other}");
                std::process::exit(2);
            }
        }
    }
    let engine = Engine::new(config);
    let outcome = match transport {
        ServeTransport::Tcp(addr) => std::net::TcpListener::bind(&addr).and_then(|listener| {
            // Printed (not logged) so scripts binding port 0 learn the port.
            println!("listening on tcp://{}", listener.local_addr()?);
            anet_service::serve_tcp(&listener, &engine, anet_service::protocol::MAX_LINE_BYTES)
        }),
        ServeTransport::Unix(path) => {
            let path = std::path::PathBuf::from(path);
            // A previous daemon's socket file would make the bind fail.
            let _ = std::fs::remove_file(&path);
            let result = std::os::unix::net::UnixListener::bind(&path).and_then(|listener| {
                println!("listening on unix://{}", path.display());
                anet_service::serve_unix(
                    &listener,
                    &path,
                    &engine,
                    anet_service::protocol::MAX_LINE_BYTES,
                )
            });
            let _ = std::fs::remove_file(&path);
            result
        }
        ServeTransport::Stdin => anet_service::run_stdin_batch(
            &engine,
            std::io::stdin().lock(),
            std::io::stdout().lock(),
            workers,
            anet_service::protocol::MAX_LINE_BYTES,
        ),
    };
    if let Err(e) = outcome {
        eprintln!("serve: {e}");
        std::process::exit(1);
    }
}

/// Parses the `loadgen` flags and fires the seeded mix at a running daemon,
/// printing the latency/throughput summary (and optionally writing the
/// sorted response transcript, which is byte-reproducible for a fixed
/// seed).
fn run_loadgen(args: &[String]) {
    let mut spec = loadgen::LoadgenSpec {
        addr: String::new(),
        seed: 7,
        jobs: 200,
        clients: 4,
        rate_jps: None,
    };
    let mut transcript_path: Option<String> = None;
    let parse_or_die = |flag: &str, value: Option<&String>| -> u64 {
        match value.map(|v| v.parse()) {
            Some(Ok(v)) => v,
            _ => {
                eprintln!("loadgen: {flag} needs an unsigned integer value");
                std::process::exit(2);
            }
        }
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => spec.addr = it.next().cloned().unwrap_or_default(),
            "--seed" => spec.seed = parse_or_die("--seed", it.next()),
            "--jobs" => spec.jobs = parse_or_die("--jobs", it.next()) as usize,
            "--clients" => spec.clients = parse_or_die("--clients", it.next()) as usize,
            "--rate" => spec.rate_jps = Some(parse_or_die("--rate", it.next())),
            "--transcript" => transcript_path = it.next().cloned(),
            other => {
                eprintln!("unknown loadgen flag: {other}");
                std::process::exit(2);
            }
        }
    }
    if spec.addr.is_empty() {
        eprintln!("loadgen: --addr HOST:PORT is required");
        std::process::exit(2);
    }
    let report = match loadgen::run(&spec) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("loadgen: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "# loadgen seed={} jobs={} clients={} mode={}",
        spec.seed,
        spec.jobs,
        spec.clients,
        if spec.rate_jps.is_some() {
            "open"
        } else {
            "closed"
        }
    );
    println!(
        "jobs={} ok={} errors={} elapsed_ms={:.1} throughput_jps={:.1} \
         p50_ms={:.3} p95_ms={:.3} p99_ms={:.3}",
        report.jobs,
        report.ok,
        report.errors,
        report.elapsed_ms,
        report.throughput_jps,
        report.p50_ms,
        report.p95_ms,
        report.p99_ms
    );
    println!("stats: {}", report.stats_line);
    if let Some(path) = transcript_path {
        let mut text = report.transcript.join("\n");
        text.push('\n');
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {path}");
    }
}

/// Runs the `bench-service` tiers and optionally writes the JSON record.
/// With `no_wall` the timing columns are zeroed so two emissions are
/// byte-comparable (the functional columns are seed-deterministic already).
fn run_bench_service(json: Option<&str>, seed: u64, jobs: usize, no_wall: bool) {
    let mut records = match bench_service::run_service_bench(seed, jobs) {
        Ok(records) => records,
        Err(e) => {
            eprintln!("bench-service: {e}");
            std::process::exit(1);
        }
    };
    if no_wall {
        for r in &mut records {
            r.throughput_jps = 0.0;
            r.p50_ms = 0.0;
            r.p95_ms = 0.0;
            r.p99_ms = 0.0;
            r.elapsed_ms = 0.0;
        }
    }
    println!("# Service bench (seed = {seed}, jobs = {jobs} per tier)");
    println!(
        "{:<12} {:>7} {:>7} {:>5} {:>6} {:>5} {:>7} {:>9} {:>9} {:>10} {:>8} {:>8} {:>8}",
        "tier",
        "clients",
        "jobs",
        "ok",
        "errors",
        "hits",
        "misses",
        "sessions",
        "thru_jps",
        "p50_ms",
        "p95_ms",
        "p99_ms",
        "wall_ms"
    );
    for r in &records {
        println!(
            "{:<12} {:>7} {:>7} {:>5} {:>6} {:>5} {:>7} {:>9} {:>9.1} {:>10.3} {:>8.3} \
             {:>8.3} {:>8.1}",
            r.tier,
            r.clients,
            r.jobs,
            r.ok,
            r.errors,
            r.cache_hits,
            r.cache_misses,
            r.sessions,
            r.throughput_jps,
            r.p50_ms,
            r.p95_ms,
            r.p99_ms,
            r.elapsed_ms
        );
    }
    if let Some(path) = json {
        match bench_service::emit(std::path::Path::new(path), &records) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// Parses the `bench-service` flags: `--json/--seed/--jobs/--no-wall`.
fn parse_bench_service_flags(args: &[String]) -> (Option<String>, u64, usize, bool) {
    let mut json = None;
    let mut seed = 7u64;
    let mut jobs = 200usize;
    let mut no_wall = false;
    let parse_or_die = |flag: &str, value: Option<&String>| -> u64 {
        match value.map(|v| v.parse()) {
            Some(Ok(v)) => v,
            _ => {
                eprintln!("bench-service: {flag} needs an unsigned integer value");
                std::process::exit(2);
            }
        }
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = it.next().cloned(),
            "--seed" => seed = parse_or_die("--seed", it.next()),
            "--jobs" => jobs = parse_or_die("--jobs", it.next()) as usize,
            "--no-wall" => no_wall = true,
            other => {
                eprintln!("unknown bench-service flag: {other}");
                std::process::exit(2);
            }
        }
    }
    (json, seed, jobs, no_wall)
}

/// Parses the `lint` flags: `--json FILE`, `--update-baseline`, `--root DIR`.
fn parse_lint_flags(args: &[String]) -> (Option<String>, Option<String>, bool) {
    let mut json = None;
    let mut root = None;
    let mut update_baseline = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = it.next().cloned(),
            "--root" => root = it.next().cloned(),
            "--update-baseline" => update_baseline = true,
            other => {
                eprintln!("unknown lint flag: {other}");
                std::process::exit(2);
            }
        }
    }
    (json, root, update_baseline)
}

/// The flags shared by every sweep-style subcommand, plus the corpus-only
/// `--seed`; parsed by [`parse_flags`].
struct ReportFlags {
    json: Option<String>,
    max_n: Option<usize>,
    threads: usize,
    seed: Option<u64>,
    no_wall: bool,
}

/// Parses `--json/--max-n/--threads` (and `--seed` when `accept_seed`),
/// exiting with code 2 on malformed or unknown flags.
fn parse_flags(subcommand: &str, args: &[String], accept_seed: bool) -> ReportFlags {
    let mut flags = ReportFlags {
        json: None,
        max_n: None,
        threads: 1,
        seed: None,
        no_wall: false,
    };
    let parse_or_die = |flag: &str, value: Option<&String>| -> u64 {
        match value.map(|v| v.parse()) {
            Some(Ok(v)) => v,
            _ => {
                eprintln!("{subcommand}: {flag} needs an unsigned integer value");
                std::process::exit(2);
            }
        }
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => flags.json = it.next().cloned(),
            "--max-n" => flags.max_n = Some(parse_or_die("--max-n", it.next()) as usize),
            "--threads" => flags.threads = parse_or_die("--threads", it.next()) as usize,
            "--no-wall" if !accept_seed => flags.no_wall = true,
            "--seed" if accept_seed => flags.seed = Some(parse_or_die("--seed", it.next())),
            other => {
                eprintln!("unknown {subcommand} flag: {other}");
                std::process::exit(2);
            }
        }
    }
    flags
}

/// The `--max-n` each sweep subcommand defaults to: the largest tier of its
/// committed artifact, so a bare run re-emits that artifact's tiers and
/// never builds a larger instance than it holds.
fn default_max_n(subcommand: &str) -> usize {
    match subcommand {
        "bench-index" | "bench-quotient" => 1_000_000,
        _ => 100_000,
    }
}

/// Parses the shared `--json/--max-n/--threads/--no-wall` flags of the
/// sweep subcommands, exiting on malformed input. `--max-n` defaults to
/// [`default_max_n`], the same way [`parse_corpus_flags`] defaults to its
/// artifact spec.
fn parse_sweep_flags(subcommand: &str, args: &[String]) -> (Option<String>, usize, usize, bool) {
    let flags = parse_flags(subcommand, args, false);
    (
        flags.json,
        flags.max_n.unwrap_or_else(|| default_max_n(subcommand)),
        flags.threads,
        flags.no_wall,
    )
}

/// Parses the `corpus`/`faults` flags: the shared set plus `--seed`,
/// defaulting to the committed-artifact spec (seed 7, n ≤ 600).
fn parse_corpus_flags(subcommand: &str, args: &[String]) -> (Option<String>, CorpusSpec, usize) {
    let flags = parse_flags(subcommand, args, true);
    let mut spec = CorpusSpec::default();
    if let Some(seed) = flags.seed {
        spec.seed = seed;
    }
    if let Some(max_n) = flags.max_n {
        spec.max_n = max_n;
    }
    (flags.json, spec, flags.threads)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    match args.first().map(String::as_str) {
        Some("bench-index") => {
            let (json, max_n, threads, no_wall) = parse_sweep_flags("bench-index", &args[1..]);
            run_bench_index(json.as_deref(), max_n, threads, no_wall);
            return;
        }
        Some("bench-elect") => {
            let (json, max_n, threads, no_wall) = parse_sweep_flags("bench-elect", &args[1..]);
            run_bench_elect(json.as_deref(), max_n, threads, no_wall);
            return;
        }
        Some("sweep") => {
            let (json, max_n, threads, no_wall) = parse_sweep_flags("sweep", &args[1..]);
            run_scheme_sweep(json.as_deref(), max_n, threads, no_wall);
            return;
        }
        Some("bench-quotient") => {
            let (json, max_n, threads, no_wall) = parse_sweep_flags("bench-quotient", &args[1..]);
            run_bench_quotient(json.as_deref(), max_n, threads, no_wall);
            return;
        }
        Some("corpus") => {
            let (json, spec, threads) = parse_corpus_flags("corpus", &args[1..]);
            run_conformance_corpus(json.as_deref(), spec, threads);
            return;
        }
        Some("faults") => {
            let (json, spec, threads) = parse_corpus_flags("faults", &args[1..]);
            run_faults_corpus(json.as_deref(), spec, threads);
            return;
        }
        Some("lint") => {
            let (json, root, update_baseline) = parse_lint_flags(&args[1..]);
            run_lint_pass(json.as_deref(), root.as_deref(), update_baseline);
            return;
        }
        Some("serve") => {
            run_serve(&args[1..]);
            return;
        }
        Some("loadgen") => {
            run_loadgen(&args[1..]);
            return;
        }
        Some("bench-service") => {
            let (json, seed, jobs, no_wall) = parse_bench_service_flags(&args[1..]);
            run_bench_service(json.as_deref(), seed, jobs, no_wall);
            return;
        }
        _ => {}
    }

    // Validate every given id up front — before expanding `all` — so a typo
    // fails fast instead of being silently ignored or half-executed.
    for exp in &args {
        if exp != "all" && !EXPERIMENTS.contains(&exp.as_str()) {
            if exp == "e9" {
                eprintln!(
                    "there is no experiment e9: that slot of the DESIGN numbering is the \
                     construction figures — run `report figures` instead"
                );
            } else {
                eprintln!("unknown experiment id: {exp}");
            }
            usage();
            std::process::exit(2);
        }
    }

    let selected: Vec<String> = if args.is_empty() || args.iter().any(|a| a == "all") {
        EXPERIMENTS.iter().map(|s| s.to_string()).collect()
    } else {
        args
    };

    for exp in &selected {
        match exp.as_str() {
            "e1" => println!("{}", experiments::e1_min_time_advice()),
            "e2" => println!("{}", experiments::e2_ring_of_cliques_lower_bound()),
            "e3" => println!("{}", experiments::e3_necklace_lower_bound()),
            "e4" => println!("{}", experiments::e4_generic_time()),
            "e5" => println!("{}", experiments::e5_milestones()),
            "e6" => println!("{}", experiments::e6_lock_families()),
            "e7" => println!("{}", experiments::e7_hairy_rings()),
            "e8" => println!("{}", experiments::e8_election_index_vs_bound()),
            "e10" => println!("{}", experiments::e10_advice_ablation()),
            "figures" => {
                let dir = std::path::Path::new("target/figures");
                match experiments::figures(dir) {
                    Ok(log) => println!("# Construction figures (DOT)\n{log}"),
                    Err(e) => eprintln!("failed to write figures: {e}"),
                }
            }
            _ => unreachable!("ids validated above"),
        }
    }
}
