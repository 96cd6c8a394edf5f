//! The closed-batch harness shared by `elect_min_time`, `tradeoff_sweep`
//! and `analysis_large`.
//!
//! A *pass* runs every job of the workload's fixed job set once, each job
//! on a cold `Instance`, one after the other on one thread. One untimed
//! pass warms the process; timed passes then repeat until `--seconds` have
//! been measured (at least [`MIN_PASSES`]). A pass's wall is the sum of its
//! jobs' walls, so the output checks that follow each job are not timed.
//! The traced run alternates untraced and traced passes: the per-layer
//! figures come from the traced ones, the tracing overhead is the
//! difference of the two medians.
//!
//! A job set holds a handful of jobs of deliberately different sizes, so
//! the job percentiles are taken over job *slots*: each slot's latency is
//! its median over the timed passes, and `job_p50_ms` / `job_p99_ms` are
//! the nearest-rank percentiles of those slot medians (with four slots,
//! the second-fastest and the slowest job).

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use crate::stats::{median, ms, peak_rss_mb, quantile};
use crate::trace::Recorder;
use crate::{push_layer_metrics, Ctx, Report};

/// Fewest timed passes a run makes, whatever `--seconds` says.
pub const MIN_PASSES: usize = 4;

/// A run repeats its set-up at least `SETUP_MIN` times, and on until
/// `SETUP_BUDGET_S` seconds are spent or `SETUP_MAX` set-ups are done;
/// `setup_s` is the median.
const SETUP_MIN: usize = 3;
const SETUP_MAX: usize = 250;
const SETUP_BUDGET_S: f64 = 1.0;

/// What one pass produced.
#[derive(Debug, Default)]
pub struct PassOut {
    /// Wall time of each job, in milliseconds.
    pub job_ms: Vec<f64>,
    /// Jobs with at least one failed output check.
    pub failed_jobs: BTreeSet<u64>,
    /// Description of every failed output check.
    pub failures: Vec<String>,
    /// Advice bits summed over the pass's elections.
    pub advice_bits: f64,
    /// Election rounds summed over the pass's elections.
    pub rounds: f64,
}

impl PassOut {
    /// Times one job: `f` runs under the clock and inside a `job` span.
    pub fn timed<R>(
        &mut self,
        rec: &mut Recorder,
        job: u64,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> R {
        let t = Instant::now();
        let out = rec.span("job", job, f);
        self.job_ms.push(ms(t.elapsed()));
        out
    }

    /// Records a failed check of `job` unless `ok`. A job counts as failed
    /// once, however many of its checks fail.
    pub fn check(&mut self, job: u64, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed_jobs.insert(job);
            self.failures.push(what());
        }
    }
}

/// Runs `setup` repeatedly (see [`SETUP_MIN`]) and returns the last
/// inputs and the median set-up time in seconds.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < SETUP_MIN
        || (times.iter().sum::<f64>() < SETUP_BUDGET_S && times.len() < SETUP_MAX)
    {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("SETUP_MIN > 0"), median(&times)))
}

/// Measures a batch workload. `pass(job_base, rec)` runs one pass; job ids
/// start at `job_base`. `dominant` names the layers whose self time the
/// traced run reports as `trace.dominant_share`.
pub fn measure(
    ctx: &Ctx,
    setup_s: f64,
    digest: &str,
    dominant: &[&str],
    mut pass: impl FnMut(u64, &mut Recorder) -> PassOut,
) -> Result<Report, String> {
    let mut report = Report::default();
    report.notes.push(format!("input digest {digest}"));
    let absorb = |report: &mut Report, out: &PassOut| {
        report.attempted += out.job_ms.len() as u64;
        report.failed += out.failed_jobs.len() as u64;
        report.failures.extend(out.failures.iter().cloned());
    };

    let mut off = Recorder::new(false);
    let warm = pass(0, &mut off);
    absorb(&mut report, &warm);

    let mut traced = Recorder::new(true);
    let mut untraced_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut slot_ms: Vec<Vec<f64>> = Vec::new();
    let mut last = PassOut::default();
    let start = Instant::now();
    let mut i = 0u64;
    while start.elapsed().as_secs_f64() < ctx.seconds
        || untraced_walls.len() + traced_walls.len() < MIN_PASSES
    {
        i += 1;
        let tracing = ctx.trace && i.is_multiple_of(2);
        let rec = if tracing { &mut traced } else { &mut off };
        let out = pass(i * 1000, rec);
        absorb(&mut report, &out);
        let wall: f64 = out.job_ms.iter().sum();
        if tracing {
            traced_walls.push(wall);
        } else {
            untraced_walls.push(wall);
            slot_ms.resize(out.job_ms.len(), Vec::new());
            for (slot, &t) in slot_ms.iter_mut().zip(&out.job_ms) {
                slot.push(t);
            }
        }
        last = out;
    }
    let slot_medians: Vec<f64> = slot_ms.iter().map(|s| median(s)).collect();
    report.notes.push(format!(
        "{} untraced and {} traced timed passes of {} jobs; untraced pass walls {:.1?} ms; job slot medians {:.1?} ms",
        untraced_walls.len(),
        traced_walls.len(),
        last.job_ms.len(),
        untraced_walls,
        slot_medians
    ));

    if !ctx.trace {
        let total_ms: f64 = untraced_walls.iter().sum();
        report.metric("setup_s", setup_s, "s");
        report.metric("wall_s", median(&untraced_walls) / 1e3, "s");
        let jobs = (slot_medians.len() * untraced_walls.len()) as f64;
        report.metric("jobs_per_s", jobs / (total_ms / 1e3), "1/s");
        report.metric("job_p50_ms", quantile(&slot_medians, 0.5), "ms");
        report.metric("job_p99_ms", quantile(&slot_medians, 0.99), "ms");
        report.metric("peak_rss_mb", peak_rss_mb("self").unwrap_or(0.0), "MB");
        return Ok(report);
    }

    crate::trace::write(ctx, &traced)?;
    let passes = traced_walls.len() as f64;
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    for (name, total) in traced.self_ms() {
        values.insert(format!("{name}.ms"), total / passes);
    }
    for (name, total) in traced.counters() {
        values.insert(name.clone(), total / passes);
    }
    let traced_wall = median(&traced_walls);
    let dominant_ms: f64 = dominant
        .iter()
        .map(|d| values.get(*d).copied().unwrap_or(0.0))
        .sum();
    values.insert("advice_bits".into(), last.advice_bits);
    values.insert("election_rounds".into(), last.rounds);
    values.insert("trace.wall_ms".into(), traced_wall);
    values.insert(
        "trace.overhead_ms".into(),
        traced_wall - median(&untraced_walls),
    );
    values.insert("trace.dominant_share".into(), dominant_ms / traced_wall);
    report.notes.push(format!(
        "dominant layers {} = {:.1} ms of a {:.1} ms traced pass ({:.1}%)",
        dominant.join(" + "),
        dominant_ms,
        traced_wall,
        100.0 * dominant_ms / traced_wall
    ));
    push_layer_metrics(&mut report, &values);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_job_failing_several_checks_counts_once() {
        let mut out = PassOut::default();
        out.check(3, false, || "first".into());
        out.check(3, false, || "second".into());
        out.check(4, true, || "passes".into());
        assert_eq!(out.failed_jobs.len(), 1);
        assert_eq!(out.failures.len(), 2);
    }
}
