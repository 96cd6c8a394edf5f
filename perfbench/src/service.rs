//! `service_zipf`: the NDJSON daemon on loopback under a Zipf job mix.
//!
//! The daemon is this binary re-executed with [`DAEMON_ARG`]: `serve_tcp`
//! over a default `EngineConfig` (64 warm sessions) on `127.0.0.1:0`, so
//! its memory is its own and `peak_rss_mb` is the daemon's `VmHWM`. The
//! traced run first drives the open-loop ladder against an untraced daemon,
//! then starts a second daemon with `--spans`, which serves through
//! [`traced_serve`]: the same public calls (`parse_request`, then
//! `Engine::execute`) inside spans, written out on shutdown.
//!
//! Jobs follow a seeded Zipf popularity over a catalogue of
//! [`CATALOGUE`] distinct graphs (more than the cache holds) of a few
//! hundred nodes, sent as inline edge lists. A quarter of catalogue jobs
//! are renumbered twins; schemes are drawn from the whole suite; fixed
//! shares of the mix are infeasible rings and malformed lines. A closed
//! loop on [`connections`] connections repeats the job list; every response
//! must be byte-identical to an untimed `run_batch` reference transcript.

use std::collections::BTreeSet;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use anet_graph::{generators, Graph, GraphBuilder};
use anet_service::json::{self, Json};
use anet_service::protocol::{self, GraphSource, RequestBody, MAX_LINE_BYTES};
use anet_service::{run_batch, serve_tcp, workload, Engine, EngineConfig};
use anet_views::election_index;

use crate::batch::{repeated_setup, MIN_PASSES};
use crate::openloop;
use crate::stats::{median, mix, ms, peak_rss_mb, quantile, Digest};
use crate::trace::{parse_jsonl, Recorder, Span};
use crate::{push_layer_metrics, Ctx, Report};

/// First argument that turns this binary into the daemon.
pub const DAEMON_ARG: &str = "__daemon";

/// Distinct catalogue graphs; the default cache holds 64 sessions.
const CATALOGUE: usize = 160;
/// Jobs in the closed-loop job list (one pass).
const JOBS: usize = 600;
/// Zipf exponent of catalogue popularity.
const ZIPF_S: f64 = 1.0;
/// Open-loop arrival rates, in ladder order, as fractions of the daemon's
/// single-connection closed-loop throughput measured just before the
/// ladder, so that the ladder brackets the latency knee on any machine.
const LADDER: [f64; 5] = [0.4, 0.6, 0.8, 1.0, 1.2];
/// The open-loop latency limit on `open_p99_ms`.
const SLO_MS: f64 = 50.0;
/// Schemes a job may name: the whole suite.
const SCHEMES: [&str; 7] = [
    "min_time",
    "generic",
    "milestone1",
    "milestone2",
    "milestone3",
    "milestone4",
    "remark",
];

/// Connections (and client threads) of the closed loop: two, or fewer on
/// a smaller machine.
fn connections() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// The response a job's reference answer must have.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Expect {
    Ok,
    Error(&'static str),
}

struct Job {
    line: String,
    expect: Expect,
    /// Catalogue index, for jobs on a catalogue graph.
    graph: Option<usize>,
}

struct Inputs {
    jobs: Vec<Job>,
    digest: String,
}

fn render_edges(edges: &[(usize, usize)]) -> String {
    let pairs: Vec<String> = edges.iter().map(|&(u, v)| format!("[{u},{v}]")).collect();
    format!("[{}]", pairs.join(","))
}

/// The graph the engine builds from an inline edge list (ports in listed
/// order).
fn inline_graph(edges: &[(usize, usize)]) -> Option<Graph> {
    let n = edges.iter().map(|&(u, v)| u.max(v)).max()? + 1;
    let mut b = GraphBuilder::new(n);
    for &(u, v) in edges {
        b.add_edge_auto(u, v).ok()?;
    }
    b.build().ok()
}

/// Node count of catalogue graph `rank`: 120–360, a fixed spread over the
/// ranks, so that every seed caches the same mix of sizes.
fn catalogue_size(rank: usize) -> usize {
    120 + (rank * 97) % 241
}

/// `CATALOGUE` feasible, pairwise non-isomorphic edge lists drawn from
/// `seed`, of sizes [`catalogue_size`].
fn catalogue(seed: u64) -> Vec<Vec<(usize, usize)>> {
    let mut out = Vec::with_capacity(CATALOGUE);
    let mut keys = BTreeSet::new();
    let mut draw = 0u64;
    while out.len() < CATALOGUE {
        draw += 1;
        let n = catalogue_size(out.len());
        let g = generators::random_connected_sparse(n, n / 2, mix(seed, 0x500_0000 + draw));
        let edges: Vec<(usize, usize)> = g.edges().map(|(u, _, v, _)| (u, v)).collect();
        let Some(h) = inline_graph(&edges) else {
            continue;
        };
        if election_index(&h).is_some() && keys.insert(h.canonical_hash()) {
            out.push(edges);
        }
    }
    out
}

/// Catalogue rank `0..CATALOGUE` with Zipf popularity, from uniform `u`.
fn zipf_rank(cdf: &[f64], u: f64) -> usize {
    cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
}

fn inputs(seed: u64) -> Inputs {
    let cat = catalogue(seed);
    let weights: Vec<f64> = (1..=CATALOGUE)
        .map(|r| 1.0 / (r as f64).powf(ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    let cdf: Vec<f64> = weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w / total;
            Some(*acc)
        })
        .collect();
    let mut jobs = Vec::with_capacity(JOBS);
    for i in 0..JOBS {
        let id = format!("\"c{i:05}\"");
        let r = mix(seed, 0x600_0000 + i as u64);
        let scheme = SCHEMES[(mix(seed, 0x700_0000 + i as u64) % SCHEMES.len() as u64) as usize];
        let job = match r % 100 {
            0..=4 => match (r / 100) % 3 {
                0 => Job {
                    line: format!("{{\"id\":{id},\"edges\":[[0,1],[1,"),
                    expect: Expect::Error("parse"),
                    graph: None,
                },
                1 => Job {
                    line: format!(
                        "{{\"id\":{id},\"workload\":\"lollipop(6,4)\",\"scheme\":\"fastest\"}}"
                    ),
                    expect: Expect::Error("unknown_scheme"),
                    graph: None,
                },
                _ => Job {
                    line: format!("{{\"id\":{id},\"edges\":[[0,1],[1,2],[2,2]]}}"),
                    expect: Expect::Error("bad_graph"),
                    graph: None,
                },
            },
            5..=9 => Job {
                line: format!(
                    "{{\"id\":{id},\"workload\":\"ring({})\",\"scheme\":\"{scheme}\"}}",
                    6 + 2 * ((r / 100) % 20)
                ),
                expect: Expect::Error("infeasible"),
                graph: None,
            },
            _ => {
                let u = (mix(seed, 0x800_0000 + i as u64) >> 11) as f64 / (1u64 << 53) as f64;
                let g = zipf_rank(&cdf, u);
                let edges = &cat[g];
                let edges = if (r / 100).is_multiple_of(4) {
                    // A renumbered twin: same edge order, permuted labels.
                    let n = edges.iter().map(|&(u, v)| u.max(v)).max().unwrap_or(0) + 1;
                    let mut perm: Vec<usize> = (0..n).collect();
                    for k in (1..n).rev() {
                        perm.swap(
                            k,
                            (mix(seed ^ i as u64, k as u64) % (k as u64 + 1)) as usize,
                        );
                    }
                    edges.iter().map(|&(u, v)| (perm[u], perm[v])).collect()
                } else {
                    edges.clone()
                };
                Job {
                    line: format!(
                        "{{\"id\":{id},\"edges\":{},\"scheme\":\"{scheme}\"}}",
                        render_edges(&edges)
                    ),
                    expect: Expect::Ok,
                    graph: Some(g),
                }
            }
        };
        jobs.push(job);
    }
    let mut digest = Digest::new();
    for job in &jobs {
        digest.bytes(job.line.as_bytes());
    }
    Inputs {
        jobs,
        digest: digest.hex(),
    }
}

/// A response's string field.
fn field(response: &str, key: &str) -> Option<String> {
    json::parse(response)
        .ok()?
        .get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
}

/// Checks the reference transcript against what each job must get: `ok`
/// for catalogue jobs, the named typed refusal otherwise, and one cache key
/// per catalogue graph across all its twins. Every job counts as attempted;
/// a job with any failed check counts as failed once.
fn check_reference(jobs: &[Job], reference: &[String], report: &mut Report) {
    let mut keys: Vec<Option<String>> = vec![None; CATALOGUE];
    report.attempted += jobs.len() as u64;
    let failures = &mut report.failures;
    for (i, (job, resp)) in jobs.iter().zip(reference).enumerate() {
        let before = failures.len();
        let ok = json::parse(resp).ok().and_then(|v| match v.get("ok") {
            Some(Json::Bool(b)) => Some(*b),
            _ => None,
        });
        let good = match job.expect {
            Expect::Ok => ok == Some(true),
            Expect::Error(tag) => ok == Some(false) && field(resp, "error").as_deref() == Some(tag),
        };
        if !good {
            failures.push(format!(
                "reference job {i}: expected {:?}, got {resp}",
                job.expect
            ));
        }
        if let (Some(g), Some(key)) = (job.graph, field(resp, "key")) {
            match &keys[g] {
                Some(k) if *k != key => {
                    failures.push(format!("reference job {i}: twin key {key} != {k}"))
                }
                Some(_) => {}
                None => keys[g] = Some(key),
            }
        }
        if failures.len() > before {
            report.failed += 1;
        }
    }
    if jobs.len() != reference.len() {
        report.failed += jobs.len().abs_diff(reference.len()) as u64;
        failures.push(format!(
            "reference: {} responses for {} jobs",
            reference.len(),
            jobs.len()
        ));
    }
}

/// Describes every response that is not byte-identical to the reference,
/// and returns how many jobs failed: those mismatches plus any missing or
/// extra responses.
fn compare(
    responses: &[String],
    reference: &[String],
    what: &str,
    failures: &mut Vec<String>,
) -> u64 {
    let mut failed = responses.len().abs_diff(reference.len()) as u64;
    if failed > 0 {
        failures.push(format!(
            "{what}: {} responses for {} jobs",
            responses.len(),
            reference.len()
        ));
    }
    for (i, (got, want)) in responses.iter().zip(reference).enumerate() {
        if got != want {
            failed += 1;
            failures.push(format!(
                "{what} job {i}: response {got} != reference {want}"
            ));
        }
    }
    failed
}

/// Counts `responses` as attempted jobs and checks them against `reference`.
fn check_responses(responses: &[String], reference: &[String], what: &str, report: &mut Report) {
    report.attempted += reference.len() as u64;
    report.failed += compare(responses, reference, what, &mut report.failures);
}

/// The checker must count a corrupted response as failed.
fn self_test(reference: &[String]) -> Result<(), String> {
    let i = reference
        .iter()
        .position(|r| r.contains("\"leader\":"))
        .ok_or("self-test: no ok response to corrupt")?;
    let mut corrupted = reference.to_vec();
    corrupted[i] = corrupted[i].replacen("\"leader\":", "\"leader\":1", 1);
    let failed = compare(&corrupted, reference, "self-test", &mut Vec::new());
    if failed != 1 {
        return Err(format!(
            "self-test: a corrupted response counted {failed} failed jobs, not 1"
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------- daemon --

/// The daemon process: binds `127.0.0.1:0`, prints `listening <addr>`,
/// serves until a `shutdown` request. Given `--spans <path>` it serves
/// traced and writes its spans to `<path>` on exit.
pub fn daemon_main(args: &[String]) -> Result<(), String> {
    let spans = match args {
        [] => None,
        [flag, path] if flag == "--spans" => Some(path),
        _ => return Err(format!("usage: perfbench {DAEMON_ARG} [--spans <path>]")),
    };
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    {
        let mut out = io::stdout().lock();
        writeln!(out, "listening {addr}")
            .and_then(|_| out.flush())
            .map_err(|e| e.to_string())?;
    }
    let engine = Engine::new(EngineConfig::default());
    match spans {
        None => serve_tcp(&listener, &engine, MAX_LINE_BYTES).map_err(|e| e.to_string()),
        Some(path) => {
            let rec = traced_serve(&listener, &engine)?;
            std::fs::write(path, rec.to_jsonl()).map_err(|e| format!("write {path}: {e}"))
        }
    }
}

/// Job id of a request without digits in its id (admin requests, lines
/// whose id could not be recovered).
const NO_JOB: u64 = 1 << 40;

/// Job id of a request for its spans: the digits of its id, or [`NO_JOB`].
fn job_id(line: &str) -> u64 {
    let id = protocol::parse_request(line)
        .map(|r| r.id)
        .unwrap_or_else(|(id, _)| id);
    id.chars()
        .filter(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or(NO_JOB)
}

/// The engine's graph resolution for an elect job, through public
/// functions (the engine's own step is private).
fn resolve(source: &GraphSource, max_nodes: usize) -> Option<Graph> {
    match source {
        GraphSource::Inline { edges, .. } => inline_graph(edges),
        GraphSource::Workload(expr) => workload::build(expr, max_nodes).ok(),
        GraphSource::Corpus(_) => None,
    }
}

/// Serves one connection, recording per request a `service.request` span
/// with children `service.parse`, `service.resolve`, `graph.canon` and
/// `service.execute`. Resolve and canonical form re-run the engine's first
/// two steps through public functions on the same job, so that their cost
/// is seen; `service.execute` is the engine's own full handling. Returns
/// whether the client asked for shutdown.
fn traced_connection(stream: &TcpStream, engine: &Engine, rec: &mut Recorder) -> io::Result<bool> {
    let max_nodes = EngineConfig::default().max_nodes;
    let mut reader = BufReader::new(stream);
    let mut writer = BufWriter::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(false);
        }
        let text = line.trim_end_matches('\n');
        let job = job_id(text);
        let reply = rec.span("service.request", job, |rec| {
            match rec.span("service.parse", job, |_| protocol::parse_request(text)) {
                Err(_) => engine.execute_line(text),
                Ok(request) => {
                    if let RequestBody::Elect(j) = &request.body {
                        if let Some(g) =
                            rec.span("service.resolve", job, |_| resolve(&j.source, max_nodes))
                        {
                            rec.span("graph.canon", job, |_| g.canonical_form());
                        }
                    }
                    rec.span("service.execute", job, |_| engine.execute(&request))
                }
            }
        });
        writer.write_all(reply.text.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        if reply.shutdown {
            return Ok(true);
        }
    }
}

/// `serve_tcp` with [`traced_connection`] as the connection handler; returns
/// every connection's spans, on one clock.
fn traced_serve(listener: &TcpListener, engine: &Engine) -> Result<Recorder, String> {
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let origin = Instant::now();
    let mut all = Recorder::with_origin(true, origin);
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        loop {
            let Ok((stream, _)) = listener.accept() else {
                break;
            };
            if engine.is_shutdown() {
                break;
            }
            handles.push(scope.spawn(move || {
                let mut rec = Recorder::with_origin(true, origin);
                let shutdown = traced_connection(&stream, engine, &mut rec).unwrap_or(false);
                if shutdown {
                    // Wake the accept loop so it sees the flag.
                    let _ = TcpStream::connect(addr);
                }
                rec
            }));
        }
        for h in handles {
            match h.join() {
                Ok(rec) => all.absorb(rec.spans().to_vec()),
                Err(_) => return Err("a connection thread panicked".to_string()),
            }
        }
        Ok(all)
    })
}

// ---------------------------------------------------------------- client --

/// A running daemon child. Dropping it kills and reaps the process.
struct Daemon {
    child: Child,
    addr: String,
    /// Where a traced daemon writes its spans.
    spans: Option<String>,
}

impl Daemon {
    fn spawn(spans: Option<String>) -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut args = vec![DAEMON_ARG.to_string()];
        if let Some(path) = &spans {
            args.extend(["--spans".to_string(), path.clone()]);
        }
        let mut child = Command::new(exe)
            .args(&args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let stdout: ChildStdout = child.stdout.take().ok_or("daemon stdout")?;
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            spans,
        };
        let mut first = String::new();
        BufReader::new(stdout)
            .read_line(&mut first)
            .map_err(|e| format!("daemon stdout: {e}"))?;
        daemon.addr = first
            .trim()
            .strip_prefix("listening ")
            .ok_or_else(|| format!("daemon said {first:?}"))?
            .to_string();
        Ok(daemon)
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    fn request(&self, line: &str) -> Result<String, String> {
        let stream = TcpStream::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        let mut w = &stream;
        w.write_all(format!("{line}\n").as_bytes())
            .map_err(|e| e.to_string())?;
        let mut out = String::new();
        BufReader::new(&stream)
            .read_line(&mut out)
            .map_err(|e| e.to_string())?;
        Ok(out.trim_end().to_string())
    }

    /// Cache counters `(hits, misses, evictions)` from the `stats` op.
    fn cache_stats(&self) -> Result<[f64; 3], String> {
        let resp = self.request("{\"id\":\"stats\",\"op\":\"stats\"}")?;
        let v = json::parse(&resp).map_err(|e| e.to_string())?;
        let s = v.get("stats").ok_or("no stats")?;
        let get = |k: &str| {
            s.get(k)
                .and_then(Json::as_u64)
                .map(|x| x as f64)
                .ok_or(format!("no {k}"))
        };
        Ok([
            get("cache_hits")?,
            get("cache_misses")?,
            get("cache_evictions")?,
        ])
    }

    /// Asks the daemon to stop and reaps it; returns its spans when traced.
    fn shutdown(mut self) -> Result<Vec<Span>, String> {
        self.request("{\"id\":\"bye\",\"op\":\"shutdown\"}")?;
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) if status.success() => break,
                Some(status) => return Err(format!("daemon exited with {status}")),
                None if Instant::now() > deadline => return Err("daemon did not exit".into()),
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        let Some(path) = &self.spans else {
            return Ok(Vec::new());
        };
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let _ = std::fs::remove_file(path);
        parse_jsonl(&text)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One answered request: job index, latency in ms, response line.
type Answer = (usize, f64, String);

/// One closed-loop pass: every job once, over the loop's connections, each
/// sending its next job when the previous response is back.
struct Pass {
    wall_ms: f64,
    latency_ms: Vec<f64>,
    responses: Vec<String>,
}

fn closed_pass(conns: &[TcpStream], lines: &[&str]) -> Result<Pass, String> {
    let cursor = AtomicUsize::new(0);
    let start = Instant::now();
    let results: Vec<Result<Vec<Answer>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter()
            .map(|stream| {
                let cursor = &cursor;
                scope.spawn(move || -> Result<Vec<Answer>, String> {
                    let mut writer = stream;
                    // One response is outstanding at a time, so the reader
                    // never buffers past the end of a pass.
                    let mut reader = BufReader::new(stream);
                    let mut out = Vec::new();
                    let mut buf = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(line) = lines.get(i) else {
                            return Ok(out);
                        };
                        buf.clear();
                        buf.extend_from_slice(line.as_bytes());
                        buf.push(b'\n');
                        let t = Instant::now();
                        writer.write_all(&buf).map_err(|e| e.to_string())?;
                        let mut resp = String::new();
                        reader.read_line(&mut resp).map_err(|e| e.to_string())?;
                        out.push((i, ms(t.elapsed()), resp.trim_end_matches('\n').to_string()));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let wall_ms = ms(start.elapsed());
    let mut latency_ms = vec![0.0; lines.len()];
    let mut responses = vec![String::new(); lines.len()];
    for r in results {
        for (i, lat, resp) in r? {
            latency_ms[i] = lat;
            responses[i] = resp;
        }
    }
    Ok(Pass {
        wall_ms,
        latency_ms,
        responses,
    })
}

/// Opens `conns` persistent connections, then runs closed passes over them
/// after one warm-up pass until `seconds` are measured (at least
/// [`MIN_PASSES`]), checking every response. Also returns the daemon's
/// cache counters before and after the timed passes.
fn closed_loop(
    daemon: &Daemon,
    conns: usize,
    lines: &[&str],
    reference: &[String],
    seconds: f64,
    report: &mut Report,
) -> Result<(Vec<Pass>, [[f64; 3]; 2]), String> {
    let conns = (0..conns)
        .map(|_| {
            let stream = TcpStream::connect(&daemon.addr).map_err(|e| format!("connect: {e}"))?;
            stream.set_nodelay(true).map_err(|e| e.to_string())?;
            Ok(stream)
        })
        .collect::<Result<Vec<_>, String>>()?;
    let warm = closed_pass(&conns, lines)?;
    check_responses(&warm.responses, reference, "warm-up", report);
    let before = daemon.cache_stats()?;
    let mut passes = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || passes.len() < MIN_PASSES {
        let pass = closed_pass(&conns, lines)?;
        let what = format!("pass {}", passes.len());
        check_responses(&pass.responses, reference, &what, report);
        passes.push(pass);
    }
    Ok((passes, [before, daemon.cache_stats()?]))
}

/// The ladder: one open-loop phase per rate, [`LADDER`] times `capacity`
/// jobs/s, on a fresh schedule, each checked against the reference.
/// Returns `(rate, phase)` pairs.
fn ladder(
    daemon: &Daemon,
    lines: &[&str],
    reference: &[String],
    capacity: f64,
    seconds: f64,
    seed: u64,
    report: &mut Report,
) -> Result<Vec<(f64, openloop::Phase)>, String> {
    let mut out = Vec::new();
    let per_rung = seconds / LADDER.len() as f64;
    for (k, &fraction) in LADDER.iter().enumerate() {
        let rate = (fraction * capacity).round();
        let count = (rate * per_rung).ceil() as usize;
        let offset = (mix(seed, 0x900_0000 + k as u64) % lines.len() as u64) as usize;
        let idx: Vec<usize> = (0..count).map(|i| (offset + i) % lines.len()).collect();
        let sent: Vec<&str> = idx.iter().map(|&i| lines[i]).collect();
        let due = openloop::schedule(rate, count, mix(seed, 0xA00_0000 + k as u64));
        let mut phase =
            openloop::run(&daemon.addr, &sent, &due).map_err(|e| format!("open loop: {e}"))?;
        let want: Vec<String> = idx.iter().map(|&i| reference[i].clone()).collect();
        let before = report.failed;
        check_responses(&phase.responses, &want, &format!("open {rate}/s"), report);
        // A failed request misses any latency limit.
        for (lat, (got, want)) in phase
            .latency_ms
            .iter_mut()
            .zip(phase.responses.iter().zip(&want))
        {
            if got != want {
                *lat = f64::INFINITY;
            }
        }
        if report.failed > before {
            report.notes.push(format!(
                "open {rate}/s: {} failed jobs",
                report.failed - before
            ));
        }
        out.push((rate, phase));
    }
    Ok(out)
}

/// The ladder's figures: middle-rung latency and lag, and the highest rate
/// meeting [`SLO_MS`] without a growing backlog (its achieved throughput).
fn ladder_metrics(
    rungs: &[(f64, openloop::Phase)],
    values: &mut std::collections::BTreeMap<String, f64>,
    notes: &mut Vec<String>,
) {
    let mut slo = 0.0;
    for (rate, p) in rungs {
        let p99 = quantile(&p.latency_ms, 0.99);
        let tail = &p.latency_ms[p.latency_ms.len() * 3 / 4..];
        let growing = median(tail) > SLO_MS;
        let achieved = p.latency_ms.len() as f64 / p.elapsed_s;
        let meets = p99 <= SLO_MS && !growing;
        notes.push(format!(
            "open loop {rate}/s: {} requests, p50 {:.2} ms, p99 {p99:.2} ms, lag p99 {:.3} ms, achieved {achieved:.1}/s, {}",
            p.latency_ms.len(),
            quantile(&p.latency_ms, 0.5),
            quantile(&p.lag_ms, 0.99),
            if meets { "meets the SLO" } else { "misses the SLO" }
        ));
        if meets {
            slo = achieved;
        }
    }
    let (_, mid) = &rungs[rungs.len() / 2];
    values.insert("open_p50_ms".into(), quantile(&mid.latency_ms, 0.5));
    values.insert("open_p99_ms".into(), quantile(&mid.latency_ms, 0.99));
    values.insert("loadgen.lag_p99_ms".into(), quantile(&mid.lag_ms, 0.99));
    values.insert("slo_rate_jobs_per_s".into(), slo);
}

/// Where the traced daemon writes its spans.
fn spans_path(ctx: &Ctx) -> Result<String, String> {
    std::fs::create_dir_all(crate::trace::OUT_DIR)
        .map_err(|e| format!("{}: {e}", crate::trace::OUT_DIR))?;
    Ok(format!(
        "{}/daemon-seed{}-{}.jsonl",
        crate::trace::OUT_DIR,
        ctx.seed,
        std::process::id()
    ))
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    // Each set-up's daemon lives in its value, so the previous one is
    // killed (on drop) before the next set-up's clock starts.
    let ((inputs, daemon), setup_s) =
        repeated_setup(|| Ok((inputs(ctx.seed), Daemon::spawn(None)?)))?;
    let lines: Vec<&str> = inputs.jobs.iter().map(|j| j.line.as_str()).collect();

    let mut report = Report::default();
    report.notes.push(format!("input digest {}", inputs.digest));
    let reference = run_batch(
        &Engine::new(EngineConfig::default()),
        &lines.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        1,
    );
    check_reference(&inputs.jobs, &reference, &mut report);
    self_test(&reference)?;

    let closed_s = if ctx.trace {
        ctx.seconds / 4.0
    } else {
        ctx.seconds
    };
    let (passes, _) = closed_loop(
        &daemon,
        connections(),
        &lines,
        &reference,
        closed_s,
        &mut report,
    )?;
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_ms).collect();
    let latency: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.latency_ms.iter().copied())
        .collect();
    report.notes.push(format!(
        "{} closed-loop passes of {} jobs on {} connections; job percentiles over {} requests",
        passes.len(),
        lines.len(),
        connections(),
        latency.len()
    ));

    if !ctx.trace {
        let rss = peak_rss_mb(&daemon.pid()).ok_or("daemon VmHWM")?;
        daemon.shutdown()?;
        let total_ms: f64 = walls.iter().sum();
        report.metric("setup_s", setup_s, "s");
        report.metric("wall_s", median(&walls) / 1e3, "s");
        report.metric("jobs_per_s", latency.len() as f64 / (total_ms / 1e3), "1/s");
        report.metric("job_p50_ms", quantile(&latency, 0.5), "ms");
        report.metric("job_p99_ms", quantile(&latency, 0.99), "ms");
        report.metric("peak_rss_mb", rss, "MB");
        return Ok(report);
    }

    // Traced run: the single-connection capacity and the ladder against
    // the untraced daemon, then traced closed passes against a traced
    // daemon.
    let mut values = std::collections::BTreeMap::new();
    let (single, _) = closed_loop(&daemon, 1, &lines, &reference, 0.0, &mut report)?;
    let single_walls: Vec<f64> = single.iter().map(|p| p.wall_ms).collect();
    let capacity = lines.len() as f64 / (median(&single_walls) / 1e3);
    report.notes.push(format!(
        "single-connection closed loop: {capacity:.0} jobs/s (median of {} passes); ladder at {LADDER:?} of it",
        single.len()
    ));
    let rungs = ladder(
        &daemon,
        &lines,
        &reference,
        capacity,
        ctx.seconds / 2.0,
        ctx.seed,
        &mut report,
    )?;
    ladder_metrics(&rungs, &mut values, &mut report.notes);
    daemon.shutdown()?;

    let traced = Daemon::spawn(Some(spans_path(ctx)?))?;
    let (tpasses, [[h0, m0, e0], [h1, m1, e1]]) = closed_loop(
        &traced,
        connections(),
        &lines,
        &reference,
        ctx.seconds / 4.0,
        &mut report,
    )?;
    let spans = traced.shutdown()?;
    let mut rec = Recorder::new(true);
    rec.absorb(spans);
    // Only the timed passes. In start order the daemon handled the warm-up
    // jobs, a stats request, the timed jobs, a stats request, shutdown.
    let passes_n = tpasses.len() as f64;
    let mut starts: Vec<u64> = rec
        .spans()
        .iter()
        .filter(|s| s.name == "service.request")
        .map(|s| s.start_ns)
        .collect();
    starts.sort_unstable();
    let (warm, timed_jobs) = (lines.len(), tpasses.len() * lines.len());
    if starts.len() != warm + timed_jobs + 3 {
        return Err(format!(
            "traced daemon recorded {} requests, expected {}",
            starts.len(),
            warm + timed_jobs + 3
        ));
    }
    let (from, to) = (starts[warm + 1], starts[warm + 1 + timed_jobs]);
    let timed = rec.filtered(|s| s.start_ns >= from && s.start_ns < to);
    for (name, total) in timed.self_ms() {
        values.insert(format!("{name}.ms"), total / passes_n);
    }
    let tlat: f64 = tpasses.iter().flat_map(|p| p.latency_ms.iter()).sum();
    let handled: f64 = timed
        .total_ms()
        .get("service.request")
        .copied()
        .unwrap_or(0.0);
    values.insert("service.transport.ms".into(), (tlat - handled) / passes_n);
    values.insert("service.cache.hits".into(), (h1 - h0) / passes_n);
    values.insert("service.cache.misses".into(), (m1 - m0) / passes_n);
    values.insert("service.cache.evictions".into(), (e1 - e0) / passes_n);
    values.insert(
        "service.cache.hit_ratio".into(),
        (h1 - h0) / ((h1 - h0) + (m1 - m0)).max(1.0),
    );
    let typed = reference
        .iter()
        .filter(|r| r.contains("\"ok\":false"))
        .count();
    values.insert("service.errors.typed".into(), typed as f64);
    let twalls: Vec<f64> = tpasses.iter().map(|p| p.wall_ms).collect();
    let traced_wall = median(&twalls);
    values.insert("trace.wall_ms".into(), traced_wall);
    values.insert("trace.overhead_ms".into(), traced_wall - median(&walls));
    let execute = values.get("service.execute.ms").copied().unwrap_or(0.0);
    values.insert("trace.dominant_share".into(), execute / (tlat / passes_n));
    report.notes.push(format!(
        "service.execute = {:.1} ms of {:.1} ms summed request latency per traced pass ({:.1}%)",
        execute,
        tlat / passes_n,
        100.0 * execute * passes_n / tlat
    ));
    let mut digest = Digest::new();
    for line in &reference {
        digest.bytes(line.as_bytes());
    }
    report
        .notes
        .push(format!("reference transcript digest {}", digest.hex()));
    crate::trace::write(ctx, &timed)?;
    push_layer_metrics(&mut report, &values);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        assert_eq!(inputs(3).digest, inputs(3).digest);
        assert_ne!(inputs(3).digest, inputs(4).digest);
    }

    #[test]
    fn corrupted_responses_are_counted_as_failed() {
        let lines = vec!["{\"id\":\"a\",\"workload\":\"lollipop(6,4)\"}".to_string()];
        let reference = run_batch(&Engine::new(EngineConfig::default()), &lines, 1);
        self_test(&reference).unwrap();
    }

    #[test]
    fn zipf_ranks_favour_the_head() {
        let cdf = [0.5, 0.75, 1.0];
        assert_eq!(zipf_rank(&cdf, 0.1), 0);
        assert_eq!(zipf_rank(&cdf, 0.6), 1);
        assert_eq!(zipf_rank(&cdf, 0.99), 2);
        assert_eq!(zipf_rank(&cdf, 1.0), 2);
    }
}
