//! Shared measurement plumbing: samples and percentiles, operation and
//! output-check accounting, the metric line, input digests, and the
//! process/disk probes.

use gvex_data::{DataConfig, DatasetKind};
use gvex_gnn::GcnModel;
use gvex_graph::{ClassLabel, Graph};
use std::collections::{BTreeMap, VecDeque};
use std::path::Path;
use std::time::{Duration, Instant};

/// Latency (or size) samples of one operation kind.
#[derive(Debug, Default, Clone)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn push(&mut self, x: f64) {
        self.0.push(x);
    }

    /// Records the time since `t` in milliseconds.
    pub fn since_ms(&mut self, t: Instant) {
        self.0.push(ms(t.elapsed()));
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank percentile `q ∈ (0, 1]` (0 for no samples).
    pub fn pct(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let rank = (q * v.len() as f64).ceil() as usize;
        v[rank.clamp(1, v.len()) - 1]
    }

    pub fn p50(&self) -> f64 {
        self.pct(0.5)
    }

    /// The smallest sample (0 for none).
    pub fn min(&self) -> f64 {
        self.pct(f64::MIN_POSITIVE)
    }

    pub fn p99(&self) -> f64 {
        self.pct(0.99)
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub const MB: f64 = 1024.0 * 1024.0;

/// One segment of a timed phase (an `explain_views` round, a
/// `serve_maintain` or `stream_window` pass): its rate of work and the
/// latencies taken in it.
#[derive(Debug, Default)]
pub struct Segment {
    /// Which of the run's inputs the segment ran: only segments of the
    /// same work are compared.
    pub work: usize,
    pub rate: f64,
    pub write: Samples,
    pub query: Samples,
    pub snapshot: Samples,
}

/// Sets the rate and latency metrics of a run from its segments,
/// grouped by the work (input) each ran.
///
/// Rates and medians come from the fastest eighth of each group's
/// segments (at least one each). On a shared host, other tenants slow
/// this one by up to ~2× for seconds to minutes at a time (a fixed CPU
/// loop on two shared vCPUs takes 160–340 ms); the fastest segments are
/// the least disturbed, so they are what a change to the program moves
/// and what two runs agree on.
///
/// A p99 is each segment's own p99, and the median of the lowest quarter
/// of those in a group is reported: the segments of a group do the same
/// work, so their tails differ only by how the host disturbed them, and
/// the same host also stalls a thread for milliseconds in bursts, which
/// then set the tail of one segment, not of the run. The median over
/// groups follows: the tail follows the data, and one heavy input must
/// not set it alone.
///
/// Every segment's operations and checks count in `attempted` and
/// `failed` either way.
pub fn set_segment_metrics(m: &mut Metrics, segs: &[Segment]) {
    let mut by_work: BTreeMap<usize, Vec<&Segment>> = BTreeMap::new();
    for s in segs {
        by_work.entry(s.work).or_default().push(s);
    }
    let pool = |from: &[&Segment], f: fn(&Segment) -> &Samples| {
        Samples(from.iter().flat_map(|s| f(s).0.iter().copied()).collect())
    };
    let p99 = |group: &[&Segment], f: fn(&Segment) -> &Samples| {
        let mut tails: Vec<f64> = group.iter().map(|s| f(s).p99()).collect();
        tails.sort_by(f64::total_cmp);
        tails.truncate(tails.len().div_ceil(4));
        Samples(tails).p50()
    };
    let mut kept: Vec<&Segment> = Vec::new();
    let (mut write_p99, mut query_p99) = (Samples::default(), Samples::default());
    for group in by_work.values_mut() {
        group.sort_by(|a, b| b.rate.total_cmp(&a.rate));
        let rates: Vec<f64> = group.iter().map(|s| s.rate.round()).collect();
        eprintln!("segment rates: {rates:?}");
        kept.extend(&group[..group.len().div_ceil(8)]);
        write_p99.push(p99(group, |s| &s.write));
        query_p99.push(p99(group, |s| &s.query));
    }
    let (write, query) = (pool(&kept, |s| &s.write), pool(&kept, |s| &s.query));
    let writes: usize = segs.iter().map(|s| s.write.len()).sum();
    let queries: usize = segs.iter().map(|s| s.query.len()).sum();
    eprintln!(
        "{} of {} segments kept ({writes} writes, {queries} queries in all); p99s by input: \
         write {write_p99:?}, query {query_p99:?}",
        kept.len(),
        segs.len(),
    );
    m.set("work_per_s", Samples(kept.iter().map(|s| s.rate).collect()).p50());
    m.set("write_p50_ms", write.p50());
    m.set("write_p99_ms", write_p99.p50());
    m.set("query_p50_ms", query.p50());
    m.set("query_p99_ms", query_p99.p50());
    m.set("snapshot_p50_ms", pool(&kept, |s| &s.snapshot).p50());
}

/// Operations attempted and failed, where a failed output check counts
/// as a failed operation.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for stderr.
    pub notes: Vec<String>,
}

impl Checks {
    /// Counts one operation (or output check); `ok == false` is a failure.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 16 {
                self.notes.push(what());
            }
        }
    }
}

/// A run's metrics by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// The result line: every metric of `table` with its unit. A metric
    /// the workload did not set reads 0; in the end-to-end table that, or
    /// a value that is not finite, is a failed check.
    pub fn report(&self, table: &[(&str, &str)], checks: &Checks) -> String {
        let end_to_end = table[0].0 == "setup_s";
        let mut failed = checks.failed;
        let mut attempted = checks.attempted;
        let mut fields = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let v = self.0.get(name).copied();
            let bad = match v {
                None => end_to_end,
                Some(x) => !x.is_finite() || (end_to_end && x <= 0.0),
            };
            attempted += 1;
            if bad {
                failed += 1;
                eprintln!("metric {name} missing or not positive/finite: {v:?}");
            }
            let x = v.filter(|x| x.is_finite()).unwrap_or(0.0);
            fields.push(format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", num(x)));
        }
        eprintln!("{}", self.table(table));
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            failed == 0,
            attempted.max(1),
            failed,
            fields.join(", ")
        )
    }

    fn table(&self, table: &[(&str, &str)]) -> String {
        table
            .iter()
            .map(|(name, unit)| {
                format!("  {name:<28} {:>14.6} {unit}", self.0.get(name).copied().unwrap_or(0.0))
            })
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn num(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{x:.1}")
    } else {
        format!("{x}")
    }
}

/// FNV-1a over the generated inputs.
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Node types, feature bits and edges of `g`.
    pub fn graph(&mut self, g: &Graph) {
        self.u64(g.num_nodes() as u64);
        for v in 0..g.num_nodes() as u32 {
            self.u64(g.node_type(v) as u64);
        }
        for f in g.features().data() {
            self.u64(f.to_bits());
        }
        for (u, v, t) in g.edges() {
            self.u64(((u as u64) << 32) | v as u64);
            self.u64(t as u64);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .filter_map(Result::ok)
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Seed of the training set every run's classifier learns from. The
/// model is part of the program under test, so it stays the same across
/// workload seeds, which vary only the graphs it classifies and
/// explains.
const MODEL_SEED: u64 = 0x6776_6578;

/// A GCN trained in set-up (`gvex_bench::prepare`) on a fixed `kind`
/// dataset of `graphs` graphs at `size_scale`.
pub fn trained_model(kind: DatasetKind, graphs: usize, size_scale: f64) -> GcnModel {
    gvex_bench::prepare(kind, graphs, size_scale, MODEL_SEED).model
}

/// A seeded `kind` database's graphs as `(graph, truth, predicted)`,
/// dealt round-robin over the labels `model` predicts. Every prefix
/// then holds the label groups as evenly as the predictions allow, so
/// group sizes, and with them the cost of explaining and maintaining a
/// group, do not swing with the seed.
pub fn dealt_by_label(
    kind: DatasetKind,
    cfg: DataConfig,
    model: &GcnModel,
) -> Vec<(Graph, ClassLabel, ClassLabel)> {
    let db = kind.generate(cfg);
    let mut groups: BTreeMap<ClassLabel, VecDeque<(Graph, ClassLabel, ClassLabel)>> =
        BTreeMap::new();
    for (id, g) in db.iter() {
        let predicted = model.predict(g);
        groups.entry(predicted).or_default().push_back((g.clone(), db.truth(id), predicted));
    }
    let mut out = Vec::with_capacity(db.len());
    while out.len() < db.len() {
        out.extend(groups.values_mut().filter_map(VecDeque::pop_front));
    }
    out
}

/// Size of shard 0's write-ahead log in a durable directory; it shrinks
/// when a checkpoint resets the log.
pub fn wal_len(dir: &Path) -> u64 {
    std::fs::metadata(dir.join("wal-000.log")).map_or(0, |m| m.len())
}

/// Page-cache and extent gauges of a paging engine.
pub fn set_storage(
    m: &mut Metrics,
    pager: &gvex_core::PagerStats,
    extents: &[gvex_core::ExtentUsage],
) {
    m.set("pager.faults", pager.faults as f64);
    m.set("pager.hit_rate", pager.hit_rate());
    m.set("pager.evictions", pager.evictions as f64);
    m.set("pager.spilled_mb", pager.spilled_bytes as f64 / MB);
    m.set("pager.peak_resident_mb", pager.peak_resident_bytes as f64 / MB);
    m.set("disk.extent_live_mb", extents.iter().map(|e| e.live_bytes).sum::<u64>() as f64 / MB);
    m.set("disk.extent_dead_mb", extents.iter().map(|e| e.dead_bytes).sum::<u64>() as f64 / MB);
}

/// Runs `setup` `times` times, keeping the last result; returns it with
/// the median set-up time in seconds. Earlier results are dropped before
/// the next set-up starts.
pub fn median_setup<T>(times: usize, mut setup: impl FnMut(usize) -> T) -> (T, f64) {
    let mut secs = Samples::default();
    let mut last = None;
    for i in 0..times.max(1) {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup(i));
        secs.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up ran"), secs.p50())
}

/// SplitMix64: the benchmark's own seeded choices (script steps), kept
/// apart from the generators' streams.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}
