//! The in-memory span recorder of the traced run.
//!
//! A span is recorded around each call the benchmark makes into a layer of
//! the program: name, start, end, parent span and job id. Spans stay in
//! memory while the workload runs and are written out once, at the end.
//! A disabled recorder runs the closure and records nothing, so the
//! untraced run pays no clock reads.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    pub job: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<String, f64>,
}

/// Where traced runs write their spans, relative to the working directory.
pub const OUT_DIR: &str = ".bench_out";

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self::with_origin(enabled, Instant::now())
    }

    /// A recorder whose times count from `origin`, so that recorders of
    /// several threads share one clock.
    pub fn with_origin(enabled: bool, origin: Instant) -> Self {
        Recorder {
            enabled,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` (through the
    /// recorder it is handed) become its children.
    pub fn span<R>(&mut self, name: &str, job: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            job,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Adds `value` to a work counter (recorded only when tracing).
    pub fn count(&mut self, name: &str, value: f64) {
        if self.enabled {
            *self.counters.entry(name.to_string()).or_insert(0.0) += value;
        }
    }

    pub fn counters(&self) -> &BTreeMap<String, f64> {
        &self.counters
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends spans recorded elsewhere (another thread or process) as
    /// top-level spans of this recorder, keeping their internal nesting.
    pub fn absorb(&mut self, spans: Vec<Span>) {
        let base = self.spans.len();
        for mut s in spans {
            s.parent = s.parent.map(|p| p + base);
            self.spans.push(s);
        }
    }

    /// A recorder holding the spans that satisfy `keep` (a kept span whose
    /// parent is dropped becomes top-level).
    pub fn filtered(&self, keep: impl Fn(&Span) -> bool) -> Recorder {
        let mut index = vec![None; self.spans.len()];
        let mut out = Recorder::with_origin(self.enabled, self.origin);
        for (i, s) in self.spans.iter().enumerate() {
            if keep(s) {
                index[i] = Some(out.spans.len());
                let parent = s.parent.and_then(|p| index[p]);
                out.spans.push(Span {
                    parent,
                    ..s.clone()
                });
            }
        }
        out
    }

    /// Self time per span name, in milliseconds: each span's duration minus
    /// the part of it its direct children cover.
    pub fn self_ms(&self) -> BTreeMap<String, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = s.duration_ns().saturating_sub(child_ns[i]);
            *out.entry(s.name.clone()).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Total (inclusive) time per span name, in milliseconds.
    pub fn total_ms(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name.clone()).or_insert(0.0) += s.duration_ns() as f64 / 1e6;
        }
        out
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"i\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"job\":{}}}",
                s.name, s.start_ns, s.end_ns, s.job
            );
        }
        out
    }
}

/// Writes the spans of a traced run to
/// `OUT_DIR/trace-<workload>-seed<seed>.jsonl`.
pub fn write(ctx: &crate::Ctx, rec: &Recorder) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let path = format!("{OUT_DIR}/trace-{}-seed{}.jsonl", ctx.workload, ctx.seed);
    std::fs::write(&path, rec.to_jsonl()).map_err(|e| format!("{path}: {e}"))
}

/// Parses spans written by [`Recorder::to_jsonl`].
pub fn parse_jsonl(text: &str) -> Result<Vec<Span>, String> {
    use anet_service::json::{parse, Json};
    let mut spans = Vec::new();
    for line in text.lines().filter(|l| !l.is_empty()) {
        let v = parse(line).map_err(|e| format!("span line {line:?}: {e}"))?;
        let field = |k: &str| v.get(k).and_then(Json::as_u64);
        let name = v.get("name").and_then(Json::as_str);
        match (name, field("start_ns"), field("end_ns"), field("job")) {
            (Some(name), Some(start_ns), Some(end_ns), Some(job)) => spans.push(Span {
                name: name.to_string(),
                start_ns,
                end_ns,
                parent: field("parent").map(|p| p as usize),
                job,
            }),
            _ => return Err(format!("malformed span line {line:?}")),
        }
    }
    Ok(spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut rec = Recorder::new(true);
        rec.span("outer", 7, |rec| {
            rec.span("inner", 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let own = rec.self_ms();
        let total = rec.total_ms();
        assert!(own["inner"] >= 5.0);
        assert!(own["outer"] < total["outer"]);
        assert!((own["outer"] + own["inner"] - total["outer"]).abs() < 1e-6);
        assert_eq!(rec.spans()[1].parent, Some(0));
        assert_eq!(rec.spans()[1].job, 7);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        let x = rec.span("a", 0, |rec| {
            rec.count("c", 1.0);
            41 + 1
        });
        assert_eq!(x, 42);
        assert!(rec.spans().is_empty() && rec.counters().is_empty());
    }

    #[test]
    fn spans_round_trip_through_jsonl() {
        let mut rec = Recorder::new(true);
        rec.span("a", 1, |rec| rec.span("b", 1, |_| ()));
        let back = parse_jsonl(&rec.to_jsonl()).unwrap();
        assert_eq!(back, rec.spans());
    }
}
