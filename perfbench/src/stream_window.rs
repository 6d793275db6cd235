//! `stream_window`: bounded-memory streaming ingest.
//!
//! Set-up generates a seeded MalNet-scale stream of small call graphs,
//! 200× the retention window, and the (untrained, seeded) classifier
//! that routes it. Each pass builds a fresh durable engine windowed by
//! `Window::last_graphs`, with a memory budget below the window
//! footprint, and ingests the stream in fixed batches through
//! `insert_graphs`, in process and with no registered views. After each
//! batch it reads the head once (a label query). A quarter of the way in
//! it pins a snapshot, and at fixed points it takes a snapshot and
//! re-reads the pinned frontier on the same thread. Passes repeat until
//! the time is up.
//!
//! Why: it does almost no GNN work and bypasses serve, which isolates
//! graph-db slots, sweep and compaction, WAL and checkpoint, the pager
//! and snapshot clones (where per-operation costs grow with history),
//! and it is the one workload larger than the page cache.
//!
//! End-to-end metrics: `work_per_s` is graphs ingested per second; a
//! write is one `insert_graphs` batch with its sweep and any checkpoint;
//! a query is the head label query; a snapshot is `Engine::snapshot`;
//! the disk high-water mark is the durable directory, sampled after each
//! batch.

use crate::common::{
    dir_bytes, median_setup, ms, peak_rss_mb, set_segment_metrics, set_storage, wal_len, Checks,
    Digest, Metrics, Samples, Segment, MB,
};
use crate::trace::{trace_path, Tracer};
use crate::{Outcome, Run};
use gvex_core::{Config, Engine, RetentionPolicy, ViewQuery, Window};
use gvex_gnn::GcnModel;
use gvex_graph::{Graph, GraphDb, GraphId};
use std::path::Path;
use std::time::Instant;

struct Sizes {
    window: usize,
    factor: usize,
    batch: usize,
    probes: usize,
    checkpoint_every: u64,
    setups: usize,
}

fn sizes(tiny: bool) -> Sizes {
    if tiny {
        Sizes { window: 8, factor: 100, batch: 8, probes: 4, checkpoint_every: 8, setups: 1 }
    } else {
        Sizes { window: 64, factor: 200, batch: 16, probes: 8, checkpoint_every: 32, setups: 5 }
    }
}

const LABELS: u16 = 5;

struct Input {
    model: GcnModel,
    stream: Vec<Graph>,
    /// Payload bytes of an average window.
    window_bytes: u64,
    digest: u64,
}

fn input(seed: u64, s: &Sizes) -> Input {
    let db = gvex_data::malnet_scale(s.window * s.factor, seed);
    let stream: Vec<Graph> = db.iter().map(|(_, g)| g.clone()).collect();
    let total: u64 = stream.iter().map(|g| g.approx_bytes() as u64).sum();
    let window_bytes = total / s.factor as u64;
    let feat = stream.first().map_or(1, Graph::feature_dim);
    let mut d = Digest::default();
    stream.iter().for_each(|g| d.graph(g));
    // The classifier is untrained and fixed: routing is not what this
    // workload measures, and a seeded model would make the label
    // postings (and with them the sweep's cost) depend on the seed.
    let model = GcnModel::new(feat, 8, LABELS as usize, 2, 0x5eed);
    Input { model, stream, window_bytes, digest: d.finish() }
}

/// What the passes measured.
#[derive(Default)]
struct Lat {
    passes: Vec<Segment>,
    /// Wall seconds of all passes.
    wall: f64,
    disk_peak: u64,
    /// Batch latencies over the first and last 10× window, traced only.
    early: Samples,
    late: Samples,
    checkpoint: Samples,
}

/// Folds a pinned read into `d`; a missing graph folds a marker.
fn canon(d: &mut Digest, g: Option<&Graph>) {
    match g {
        Some(g) => d.graph(g),
        None => d.u64(u64::MAX),
    }
}

/// One pass of the stream through a fresh engine under `dir`. Returns
/// the engine for the end-of-run gauges.
fn pass(
    inp: &Input,
    s: &Sizes,
    dir: &Path,
    lat: &mut Lat,
    checks: &mut Checks,
    mut tr: Option<&mut Tracer>,
) -> Engine {
    let _ = std::fs::remove_dir_all(dir);
    let engine = Engine::builder(inp.model.clone(), GraphDb::new())
        .config(Config::default())
        .retention(RetentionPolicy::Window(Window::last_graphs(s.window)))
        .durable(dir)
        .memory_budget(inp.window_bytes * 3 / 4)
        .checkpoint_every(s.checkpoint_every)
        .build();
    let batches = inp.stream.len().div_ceil(s.batch);
    let pin_at = batches / 4;
    let probe_every = (batches / s.probes).max(1);
    let edge = (10 * s.window).div_ceil(s.batch);
    let mut pinned: Option<(gvex_core::Snapshot, Vec<GraphId>, u64)> = None;
    let mut seg = Segment::default();
    let start = Instant::now();
    for (b, batch) in inp.stream.chunks(s.batch).enumerate() {
        let items: Vec<_> = batch.iter().map(|g| (g.clone(), None)).collect();
        let wal_before = wal_len(dir);
        let t = Instant::now();
        let ids = match tr.as_deref_mut() {
            Some(tr) => {
                tr.op = b as u64;
                for g in batch {
                    tr.time("gnn.classify", || inp.model.predict(g));
                    tr.time("store.match", || engine.store().match_arrival(g));
                }
                let t = Instant::now();
                let (ids, _) = tr.time("engine.write", || engine.insert_graphs(items));
                let w = ms(t.elapsed());
                if b < edge {
                    lat.early.push(w);
                } else if b >= batches - edge {
                    lat.late.push(w);
                }
                if wal_len(dir) < wal_before {
                    lat.checkpoint.push(w);
                }
                ids
            }
            None => engine.insert_graphs(items).0,
        };
        seg.write.since_ms(t);
        checks.op(ids.len() == batch.len(), || format!("batch {b} lost graphs"));
        lat.disk_peak = lat.disk_peak.max(dir_bytes(dir));
        let q = ViewQuery::new().label(b as u16 % LABELS);
        let t = Instant::now();
        let r = match tr.as_deref_mut() {
            Some(tr) => tr.time("query.label", || engine.query(&q)),
            None => engine.query(&q),
        };
        seg.query.since_ms(t);
        checks.op(r.len() <= s.window, || format!("batch {b}: {} graphs past the window", r.len()));
        if b == pin_at {
            let t = Instant::now();
            let snap = engine.snapshot();
            seg.snapshot.since_ms(t);
            let frontier = snap.query(&ViewQuery::new()).graphs;
            let mut d = Digest::default();
            frontier.iter().for_each(|&id| canon(&mut d, snap.db().get_graph(id)));
            pinned = Some((snap, frontier, d.finish()));
        }
        if b % probe_every == probe_every - 1 {
            let t = Instant::now();
            let snap = match tr.as_deref_mut() {
                Some(tr) => {
                    tr.time("graph.clone", || (*engine.db()).clone());
                    tr.time("graph.window_meta", || engine.db().live_window_meta());
                    tr.time("snapshot.pin", || engine.snapshot())
                }
                None => engine.snapshot(),
            };
            seg.snapshot.since_ms(t);
            drop(snap);
            if let Some((snap, frontier, want)) = &pinned {
                let mut d = Digest::default();
                frontier.iter().for_each(|&id| canon(&mut d, snap.db().get_graph(id)));
                checks.op(d.finish() == *want, || format!("batch {b}: pinned frontier changed"));
            }
        }
    }
    let secs = start.elapsed().as_secs_f64();
    lat.wall += secs;
    seg.rate = inp.stream.len() as f64 / secs;
    lat.passes.push(seg);
    drop(pinned);
    let w = engine.window_stats();
    let live = engine.query(&ViewQuery::new()).len();
    checks.op(w.live_graphs as usize == s.window && live == s.window, || {
        format!("{} live graphs ({live} by query), window {}", w.live_graphs, s.window)
    });
    let expired = inp.stream.len() - s.window;
    checks.op(w.expired_total as usize == expired, || {
        format!("{} expired, want {expired}", w.expired_total)
    });
    engine
}

/// Untraced passes until `secs` pass (at least one).
fn passes(inp: &Input, s: &Sizes, run: &Run, secs: f64, lat: &mut Lat, checks: &mut Checks) {
    let start = Instant::now();
    while lat.passes.is_empty() || start.elapsed().as_secs_f64() < secs {
        let dir = run.dir.join(format!("pass-{}", lat.passes.len()));
        drop(pass(inp, s, &dir, lat, checks, None));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

pub fn run(run: &Run) -> Outcome {
    let s = sizes(run.tiny);
    let (inp, setup_s) = median_setup(s.setups, |_| input(run.seed, &s));
    let mut m = Metrics::default();
    let mut checks = Checks::default();
    let mut lat = Lat::default();
    if !run.trace {
        passes(&inp, &s, run, run.seconds.as_secs_f64(), &mut lat, &mut checks);
        eprintln!(
            "stream_window: {} passes of {} graphs ({}-graph window) in {:.2} s",
            lat.passes.len(),
            inp.stream.len(),
            s.window,
            lat.wall
        );
        m.set("setup_s", setup_s);
        set_segment_metrics(&mut m, &lat.passes);
        m.set("peak_rss_mb", peak_rss_mb());
        m.set("disk_peak_mb", lat.disk_peak as f64 / MB);
        return Outcome { metrics: m, checks, digest: inp.digest };
    }
    passes(&inp, &s, run, run.seconds.as_secs_f64() / 2.0, &mut lat, &mut checks);
    let rate = |l: &Lat| Samples(l.passes.iter().map(|p| p.rate).collect()).p50();
    let untraced = rate(&lat);
    let n = lat.passes.len();
    let mut traced = Lat::default();
    let origin = Instant::now();
    let mut tr = Tracer::new(origin, 0);
    let dir = run.dir.join("traced");
    for _ in 1..n {
        drop(pass(&inp, &s, &dir, &mut traced, &mut checks, Some(&mut tr)));
    }
    // The last pass's engine stays up for the end-of-stream gauges.
    let engine = pass(&inp, &s, &dir, &mut traced, &mut checks, Some(&mut tr));
    let pager = engine.pager_stats().unwrap_or_default();
    let extents = engine.extent_usage().unwrap_or_default();
    let (slots, live) = {
        let db = engine.db();
        (db.num_slots(), db.len())
    };
    m.set("gnn.classify_us", tr.us("gnn.classify").p50());
    m.set("store.match_us", tr.us("store.match").p50());
    m.set("engine.write_ms", tr.ms("engine.write").p50());
    m.set("query.eval_us.label", tr.us("query.label").p50());
    m.set("snapshot.pin_us", tr.us("snapshot.pin").p50());
    m.set("graph.clone_us", tr.us("graph.clone").p50());
    m.set("graph.window_meta_us", tr.us("graph.window_meta").p50());
    m.set("engine.ingest_ms.early", traced.early.p50());
    m.set("engine.ingest_ms.late", traced.late.p50());
    m.set("engine.late_over_early", traced.late.p50() / traced.early.p50());
    m.set("graph.slots", slots as f64);
    m.set("graph.live", live as f64);
    m.set("wal.checkpoints", traced.checkpoint.len() as f64 / n as f64);
    m.set("wal.checkpoint_ms", traced.checkpoint.p50());
    set_storage(&mut m, &pager, &extents);
    m.set("trace.coverage", ms(tr.covered()) / (traced.wall * 1e3));
    m.set("trace.overhead", rate(&traced) / untraced);
    tr.dump(&trace_path("stream_window", run.seed));
    drop(engine);
    Outcome { metrics: m, checks, digest: inp.digest }
}
