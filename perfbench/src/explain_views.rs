//! `explain_views`: the paper's explanation pipeline on its own.
//!
//! Set-up trains the GCN (`gvex_bench::prepare` on a fixed ENZYMES-like
//! training set) and draws a seeded ENZYMES-like database (6 labels)
//! for it to label. Each round then builds a fresh in-memory engine, so
//! contexts and the pattern index start cold, ingests the database one
//! `insert_graph` at a time, calls `explain_all` with `Config::default()`
//! on a one-thread pool, runs a fixed mix of in-process queries and
//! snapshots against the new views, and saves the view set to disk.
//!
//! The rounds use one explanation thread, not the default width: on a
//! two-core shared host the default width's gain swings between ~1.2×
//! and ~1.65× from run to run with how free the second core is, which
//! would bury a kernel change. The traced run measures that gain as
//! `engine.pool_speedup`.
//!
//! Why: almost all of its time goes to context build, VpExtend
//! inference and Psum, with no WAL, pager, serve or maintenance work, so
//! explanation-kernel gains show here and storage changes must read as
//! no change.
//!
//! End-to-end metrics: `work_per_s` is graphs explained per second of
//! rounds; a write is one `insert_graph` of the ingest; a query is one
//! `Engine::query` over the fresh views; a snapshot is `Engine::snapshot`;
//! the disk high-water mark is the saved view set.
//!
//! The traced run first repeats the untraced rounds for half the time,
//! then replays as many rounds with `explain_all`'s pipeline unrolled
//! label by label through the public functions (contexts, ApproxGVEX,
//! mining, Psum) on the same one-thread pool, and checks the replayed
//! views against `explain_all`'s.

use crate::common::{
    dealt_by_label, dir_bytes, median_setup, ms, peak_rss_mb, set_segment_metrics, trained_model,
    Checks, Digest, Metrics, Samples, Segment, MB,
};
use crate::trace::{trace_path, Tracer};
use crate::{Outcome, Run};
use gvex_core::psum::psum;
use gvex_core::{
    export, ApproxGvex, Config, ContextCache, Engine, ExplanationView, ViewId, ViewQuery,
};
use gvex_data::{DataConfig, DatasetKind};
use gvex_gnn::{GcnModel, InfluenceMatrix};
use gvex_graph::{ClassLabel, Graph, GraphDb};
use gvex_pattern::vf2;
use rayon::prelude::*;
use std::path::Path;
use std::time::Instant;

/// Explanation pool width of every round (see the module docs).
const WIDTH: usize = 1;

struct Sizes {
    graphs: usize,
    size_scale: f64,
    queries: usize,
    snapshots: usize,
    setups: usize,
    pool_rounds: usize,
}

fn sizes(tiny: bool) -> Sizes {
    if tiny {
        Sizes { graphs: 12, size_scale: 0.5, queries: 8, snapshots: 2, setups: 1, pool_rounds: 1 }
    } else {
        Sizes {
            graphs: 60,
            size_scale: 0.75,
            queries: 128,
            snapshots: 32,
            setups: 5,
            pool_rounds: 4,
        }
    }
}

/// The generated inputs: the trained model and the labelled graphs.
struct Input {
    model: GcnModel,
    graphs: Vec<(Graph, ClassLabel)>,
    digest: u64,
}

fn setup(seed: u64, s: &Sizes) -> Input {
    let model = trained_model(DatasetKind::Enzymes, s.graphs, s.size_scale);
    // Drawn from a pool four times the size and dealt by predicted
    // label, so each label group holds as close to `graphs / 6` graphs
    // as the model allows whatever the seed.
    let cfg = DataConfig { num_graphs: 4 * s.graphs, seed, size_scale: s.size_scale };
    let graphs: Vec<(Graph, ClassLabel)> = dealt_by_label(DatasetKind::Enzymes, cfg, &model)
        .into_iter()
        .take(s.graphs)
        .map(|(g, truth, _)| (g, truth))
        .collect();
    let mut d = Digest::default();
    for (g, truth) in &graphs {
        d.graph(g);
        d.u64(*truth as u64);
    }
    Input { model, graphs, digest: d.finish() }
}

/// What the untraced rounds measured.
#[derive(Default)]
struct Lat {
    rounds: Vec<Segment>,
    /// Seconds of ingest plus `explain_all`, per round.
    explain: Samples,
    disk_peak: u64,
}

/// A fresh engine holding `inp`'s graphs, each inserted on its own;
/// each insert's latency goes to `write` when given.
fn ingest(inp: &Input, threads: usize, mut write: Option<&mut Samples>) -> Engine {
    let engine = Engine::builder(inp.model.clone(), GraphDb::new()).threads(threads).build();
    for (g, truth) in &inp.graphs {
        let t = Instant::now();
        engine.insert_graph(g.clone(), Some(*truth));
        if let Some(w) = write.as_deref_mut() {
            w.since_ms(t);
        }
    }
    engine
}

fn view_digest(d: &mut Digest, v: &ExplanationView) {
    d.u64(v.label as u64);
    for sg in &v.subgraphs {
        d.u64(sg.graph_id as u64);
        d.u64(sg.nodes.len() as u64);
        for &n in &sg.nodes {
            d.u64(n as u64);
        }
        d.u64(sg.consistent as u64 | (sg.counterfactual as u64) << 1);
        d.u64(sg.score.to_bits());
    }
    for p in &v.patterns {
        d.u64(p.canon_key());
        d.u64(p.size() as u64);
    }
    d.u64(v.explainability.to_bits());
    d.u64(v.edge_loss.to_bits());
}

fn views_of(engine: &Engine, ids: &[ViewId]) -> Vec<ExplanationView> {
    ids.iter().filter_map(|&v| engine.view(v)).map(|v| (*v).clone()).collect()
}

/// Whether every subgraph node of every view is covered by one of the
/// view's patterns.
fn covered(engine: &Engine, views: &[ExplanationView]) -> bool {
    let db = engine.db();
    views.iter().all(|v| {
        v.subgraphs.iter().all(|sg| {
            let (g, _) = sg.induced(&db);
            let mut hit = vec![false; g.num_nodes()];
            for p in &v.patterns {
                for n in vf2::coverage(p, &g).0 {
                    hit[n as usize] = true;
                }
            }
            hit.iter().all(|&h| h)
        })
    })
}

/// The round's query mix: label, view pattern, pattern + label and
/// view-membership queries, cycling over the labels.
fn query_mix(views: &[ExplanationView], ids: &[ViewId], n: usize) -> Vec<(usize, ViewQuery)> {
    (0..n)
        .map(|i| {
            let v = &views[(i / 4) % views.len()];
            let p = v.patterns.first().cloned();
            let q = match (i % 4, p) {
                (1, Some(p)) => ViewQuery::pattern(p),
                (2, Some(p)) => ViewQuery::pattern(p).label(v.label),
                (3, _) => ViewQuery::new().in_views([ids[(i / 4) % ids.len()]]),
                _ => ViewQuery::new().label(v.label),
            };
            (i % 4, q)
        })
        .collect()
}

/// One untraced round; returns the digest of its views and answers.
fn round(
    inp: &Input,
    s: &Sizes,
    dir: &Path,
    first: bool,
    lat: &mut Lat,
    checks: &mut Checks,
) -> u64 {
    let mut seg = Segment::default();
    let t = Instant::now();
    let engine = ingest(inp, WIDTH, Some(&mut seg.write));
    checks.attempted += inp.graphs.len() as u64;
    let vids = engine.explain_all();
    let secs = t.elapsed().as_secs_f64();
    lat.explain.push(secs);
    seg.rate = inp.graphs.len() as f64 / secs;
    let views = views_of(&engine, &vids);
    let mut d = Digest::default();
    views.iter().for_each(|v| view_digest(&mut d, v));
    for (_, q) in query_mix(&views, &vids, s.queries) {
        let t = Instant::now();
        let r = engine.query(&q);
        seg.query.since_ms(t);
        checks.attempted += 1;
        d.u64(r.len() as u64);
        r.graphs.iter().for_each(|&g| d.u64(g as u64));
    }
    for _ in 0..s.snapshots {
        let t = Instant::now();
        let snap = engine.snapshot();
        seg.snapshot.since_ms(t);
        checks.op(snap.len() == inp.graphs.len(), || "snapshot lost graphs".into());
    }
    lat.rounds.push(seg);
    let set = engine.view_set();
    let text = serde_json::to_string(&export::viewset_to_portable(&set, &engine.db()));
    let saved = text.is_ok_and(|t| std::fs::write(dir.join("views.json"), t).is_ok());
    checks.op(saved, || "view set not saved".into());
    lat.disk_peak = lat.disk_peak.max(dir_bytes(dir));
    checks.op(engine.query(&ViewQuery::new()).len() == inp.graphs.len(), || {
        "ingested graphs missing from the engine".into()
    });
    checks.op(vids.len() == views.len() && !views.is_empty(), || "explain_all lost a view".into());
    if first {
        checks.op(covered(&engine, &views), || {
            "a subgraph node is not covered by any selected pattern".into()
        });
    }
    d.finish()
}

/// Untraced rounds for `secs` (at least one); checks every round's
/// views and answers against the first round's. Returns the round count.
fn rounds(
    inp: &Input,
    s: &Sizes,
    run: &Run,
    secs: f64,
    lat: &mut Lat,
    checks: &mut Checks,
) -> usize {
    let start = Instant::now();
    let mut first = None;
    let mut n = 0;
    while n == 0 || start.elapsed().as_secs_f64() < secs {
        let digest = round(inp, s, &run.dir, n == 0, lat, checks);
        let same = *first.get_or_insert(digest) == digest;
        checks.op(same, || format!("round {n} returned different views"));
        n += 1;
    }
    n
}

pub fn run(run: &Run) -> Outcome {
    let s = sizes(run.tiny);
    let (inp, setup_s) = median_setup(s.setups, |_| setup(run.seed, &s));
    let mut checks = Checks::default();
    let mut lat = Lat::default();
    let mut m = Metrics::default();
    if !run.trace {
        let n = rounds(&inp, &s, run, run.seconds.as_secs_f64(), &mut lat, &mut checks);
        eprintln!("explain_views: {n} rounds of {} graphs", inp.graphs.len());
        m.set("setup_s", setup_s);
        set_segment_metrics(&mut m, &lat.rounds);
        m.set("peak_rss_mb", peak_rss_mb());
        m.set("disk_peak_mb", lat.disk_peak as f64 / MB);
    } else {
        traced(run, &s, &inp, &mut lat, &mut checks, &mut m);
    }
    Outcome { metrics: m, checks, digest: inp.digest }
}

/// Per-label replay output.
struct LabelOut {
    view: ExplanationView,
    mined: usize,
}

/// `explain_all`'s pipeline for one label.
fn replay_label(
    tr: &mut Tracer,
    model: &GcnModel,
    db: &GraphDb,
    label: ClassLabel,
    ctxs: &ContextCache,
) -> LabelOut {
    let cfg = Config::default();
    let approx = ApproxGvex::new(cfg.clone());
    tr.span("explain.label", |tr| {
        let ids = db.label_group(label);
        let mut subgraphs = Vec::new();
        for &id in &ids {
            let g = db.graph(id);
            tr.time("gnn.predict", || model.predict_with_proba(g));
            tr.time("gnn.influence", || InfluenceMatrix::compute(model, g, cfg.influence_mode));
            tr.time("gnn.embed", || model.node_embeddings(g));
            tr.time("context.build", || ctxs.warm(model, db, &[id]));
            let ctx = ctxs.get(model, g, id);
            let sg = tr
                .time("approx.explain", || approx.explain_with_context(model, g, id, label, &ctx));
            subgraphs.extend(sg);
        }
        subgraphs.sort_by_key(|s| s.graph_id);
        let induced: Vec<Graph> = subgraphs.iter().map(|s| s.induced(db).0).collect();
        let refs: Vec<&Graph> = induced.iter().collect();
        let mined = tr.time("pattern.mine", || gvex_pattern::mine(&refs, &cfg.miner)).len();
        let ps = tr.time("psum", || psum(&induced, &cfg.miner));
        let explainability = subgraphs.iter().map(|s| s.score).sum();
        let view = ExplanationView {
            label,
            subgraphs,
            patterns: ps.patterns,
            explainability,
            edge_loss: ps.edge_loss,
        };
        LabelOut { view, mined }
    })
}

/// One traced round: ingest with attribution, then the replay with the
/// labels fanned out on a pool of `explain_all`'s width, one lane per
/// label. Returns the engine, the replayed views in label order, and
/// the lanes with the wall time each was busy.
fn traced_round(
    inp: &Input,
    pool: &rayon::ThreadPool,
    origin: Instant,
    tr: &mut Tracer,
) -> (Engine, Vec<LabelOut>, Vec<(Tracer, f64)>) {
    let engine = Engine::builder(inp.model.clone(), GraphDb::new()).threads(WIDTH).build();
    for (g, truth) in &inp.graphs {
        tr.time("gnn.classify", || inp.model.predict(g));
        tr.time("store.match", || engine.store().match_arrival(g));
        tr.time("engine.write", || engine.insert_graph(g.clone(), Some(*truth)));
    }
    let db = engine.db().clone();
    let labels = db.labels();
    let ctxs = ContextCache::new(Config::default());
    let lanes: Vec<(Tracer, f64, LabelOut)> = tr.span("explain_all.replay", |_| {
        pool.install(|| {
            labels
                .par_iter()
                .map(|&label| {
                    let t = Instant::now();
                    let mut lane = Tracer::new(origin, label as usize + 1);
                    let out = replay_label(&mut lane, &inp.model, &db, label, &ctxs);
                    (lane, ms(t.elapsed()), out)
                })
                .collect()
        })
    });
    let mut outs = Vec::new();
    let mut tracers = Vec::new();
    for (lane, wall, out) in lanes {
        tracers.push((lane, wall));
        outs.push(out);
    }
    (engine, outs, tracers)
}

fn traced(run: &Run, s: &Sizes, inp: &Input, lat: &mut Lat, checks: &mut Checks, m: &mut Metrics) {
    let half = run.seconds.as_secs_f64() / 2.0;
    let n = rounds(inp, s, run, half, lat, checks);
    // The pool the rounds' `explain_all` fans out on.
    let pool = gvex_core::parallel::explainer_pool(WIDTH).expect("explainer pool");
    let origin = Instant::now();
    let mut tr = Tracer::new(origin, 0);
    let mut replay_secs = Samples::default();
    let mut outs = Vec::new();
    let mut lanes = Vec::new();
    let mut wall_ms = 0.0;
    for r in 0..n {
        tr.op = r as u64;
        let t = Instant::now();
        let (engine, out, round_lanes) = traced_round(inp, &pool, origin, &mut tr);
        replay_secs.push(t.elapsed().as_secs_f64());
        lanes.extend(round_lanes);
        if r == 0 {
            // The replayed views must equal `explain_all`'s, view for
            // view; the probes then run against the explained engine.
            let vids = tr.time("engine.explain_all", || engine.explain_all());
            let real = views_of(&engine, &vids);
            let mut a = Digest::default();
            let mut b = Digest::default();
            real.iter().for_each(|v| view_digest(&mut a, v));
            out.iter().for_each(|o| view_digest(&mut b, &o.view));
            checks
                .op(a.finish() == b.finish(), || "replayed views differ from explain_all's".into());
            for (kind, q) in query_mix(&real, &vids, s.queries * 4) {
                let name =
                    ["query.label", "query.pattern", "query.pattern_label", "query.views"][kind];
                tr.time(name, || engine.query(&q));
            }
            for _ in 0..s.snapshots {
                tr.time("snapshot.pin", || engine.snapshot());
                tr.time("graph.clone", || engine.db().clone());
                tr.time("graph.window_meta", || engine.db().live_window_meta());
            }
        }
        wall_ms += ms(t.elapsed());
        outs.extend(out);
    }
    let mut covered_ms = ms(tr.covered());
    for (lane, lane_wall) in lanes {
        covered_ms += ms(lane.covered());
        wall_ms += lane_wall;
        tr.absorb(lane);
    }
    // Pool speed-up: `explain_all` on the default width (hardware
    // parallelism) against the rounds' one thread.
    let mut pooled = Samples::default();
    for _ in 0..s.pool_rounds {
        let t = Instant::now();
        let engine = ingest(inp, 0, None);
        engine.explain_all();
        pooled.push(t.elapsed().as_secs_f64());
    }
    let subgraphs: Vec<_> = outs.iter().flat_map(|o| &o.view.subgraphs).collect();
    let verified = subgraphs.iter().filter(|sg| sg.consistent && sg.counterfactual).count();
    let mined: usize = outs.iter().map(|o| o.mined).sum();
    let selected: usize = outs.iter().map(|o| o.view.patterns.len()).sum();
    m.set("gnn.predict_ms", tr.ms("gnn.predict").p50());
    m.set("gnn.influence_ms", tr.ms("gnn.influence").p50());
    m.set("gnn.embed_ms", tr.ms("gnn.embed").p50());
    m.set("context.build_ms", tr.ms("context.build").p50());
    m.set("approx.explain_ms", tr.ms("approx.explain").p50());
    m.set("approx.verified_ratio", verified as f64 / subgraphs.len().max(1) as f64);
    m.set("pattern.mine_ms", tr.ms("pattern.mine").p50());
    m.set("psum.cover_ms", (tr.ms("psum").p50() - tr.ms("pattern.mine").p50()).max(0.0));
    m.set("psum.select_ratio", selected as f64 / mined.max(1) as f64);
    // Fastest against fastest: the host's speed drifts between the
    // rounds and the pooled runs.
    m.set("engine.pool_speedup", lat.explain.min() / pooled.min());
    m.set("gnn.classify_us", tr.us("gnn.classify").p50());
    m.set("store.match_us", tr.us("store.match").p50());
    m.set("engine.write_ms", tr.ms("engine.write").p50());
    m.set("query.eval_us.label", tr.us("query.label").p50());
    m.set("query.eval_us.pattern", tr.us("query.pattern").p50());
    m.set("query.eval_us.pattern_label", tr.us("query.pattern_label").p50());
    m.set("query.eval_us.views", tr.us("query.views").p50());
    m.set("snapshot.pin_us", tr.us("snapshot.pin").p50());
    m.set("graph.clone_us", tr.us("graph.clone").p50());
    m.set("graph.window_meta_us", tr.us("graph.window_meta").p50());
    m.set("graph.slots", inp.graphs.len() as f64);
    m.set("graph.live", inp.graphs.len() as f64);
    m.set("trace.coverage", covered_ms / wall_ms);
    // Traced ÷ untraced graphs per second, over the same number of
    // rounds: the replay's attribution calls are the tracing cost.
    m.set("trace.overhead", lat.explain.sum() / replay_secs.sum());
    tr.dump(&trace_path("explain_views", run.seed));
}
