//! In-memory spans for the traced run.
//!
//! A span is recorded around each call the benchmark makes into a layer:
//! its name, start, end, parent span and the operation (script step,
//! round or batch) that caused it. Spans stay in memory and are written
//! out when the run ends. A layer's self time is its span minus the
//! parts its child spans cover.

use crate::common::{ms, Samples};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Where a traced run leaves its spans.
pub fn trace_path(workload: &str, seed: u64) -> PathBuf {
    Path::new(".bench_work").join(format!("trace-{workload}-{seed}.jsonl"))
}

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    op: u64,
    /// The lane that recorded it: the driving thread, or one label of a
    /// replayed `explain_all`.
    lane: usize,
}

/// One lane's span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    lane: usize,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// The operation new spans are attributed to.
    pub op: u64,
}

impl Tracer {
    pub fn new(origin: Instant, lane: usize) -> Self {
        Self { origin, lane, spans: Vec::new(), stack: Vec::new(), op: 0 }
    }

    /// Runs `f` inside a span that may hold child spans.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.origin.elapsed(),
            end: Duration::ZERO,
            parent: self.stack.last().copied(),
            op: self.op,
            lane: self.lane,
        });
        self.stack.push(idx);
        let r = f(self);
        self.stack.pop();
        self.spans[idx].end = self.origin.elapsed();
        r
    }

    /// Runs `f` inside a leaf span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span(name, |_| f())
    }

    /// Durations of every span named `name`, in milliseconds.
    pub fn ms(&self, name: &str) -> Samples {
        Samples(self.spans.iter().filter(|s| s.name == name).map(|s| ms(s.end - s.start)).collect())
    }

    /// Durations of every span named `name`, in microseconds.
    pub fn us(&self, name: &str) -> Samples {
        Samples(self.ms(name).0.into_iter().map(|x| x * 1e3).collect())
    }

    /// Time covered by top-level spans (they never overlap within a
    /// lane).
    pub fn covered(&self) -> Duration {
        self.spans.iter().filter(|s| s.parent.is_none()).map(|s| s.end - s.start).sum()
    }

    /// Appends another lane's spans.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time per span name: each span minus its children.
    pub fn self_times(&self) -> BTreeMap<&'static str, Duration> {
        let mut child: Vec<Duration> = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, Duration> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            *out.entry(s.name).or_default() += (s.end - s.start).saturating_sub(c);
        }
        out
    }

    /// Writes every span as one JSON line and prints the self-time
    /// summary to stderr.
    pub fn dump(&self, path: &Path) {
        let write = || -> std::io::Result<()> {
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir)?;
            }
            let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
            for (i, s) in self.spans.iter().enumerate() {
                writeln!(
                    f,
                    "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                     \"parent\": {}, \"op\": {}, \"lane\": {}}}",
                    s.name,
                    s.start.as_nanos(),
                    s.end.as_nanos(),
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.op,
                    s.lane
                )?;
            }
            f.flush()
        };
        if let Err(e) = write() {
            eprintln!("could not write spans to {}: {e}", path.display());
        }
        eprintln!("self time by span ({} spans, written to {}):", self.spans.len(), path.display());
        for (name, d) in self.self_times() {
            eprintln!("  {name:<28} {:>12.3} ms", ms(d));
        }
    }
}
