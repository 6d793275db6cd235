//! `serve_maintain`: mixed reads and writes through the HTTP front end
//! while the engine maintains its views.
//!
//! Set-up trains the GCN (`gvex_bench::prepare` on a fixed
//! MUTAGENICITY-like training set), generates a seeded database and
//! arrival pool and labels them with it, builds a durable engine on the
//! default checkpoint cadence and staleness bound with
//! `Config::with_bounds(0, 5)` and a one-thread pool ([`build`] says why),
//! registers one maintained view per label (ApproxGVEX for label 0,
//! StreamGVEX for label 1), and starts `gvex_serve` with
//! `ServeConfig::default()`. One client on one keep-alive connection
//! then replays a seeded script: single-graph `/insert`s where every
//! fourth write is a `/remove` of an earlier arrival (of each label in
//! turn; arrivals alternate between the labels), each write followed
//! by head `/query`s with a label, a view pattern, a pattern and a label,
//! and a view-membership body. Every few writes the client opens a
//! session (`POST /session`), reads through it, lets one write land,
//! reads again (the bodies must be byte-identical) and closes it.
//!
//! Why: it is the only workload through serve, and its reads and writes
//! share the store index, the growing database and incremental view
//! maintenance (deltas plus staleness-bound full recomputes), so a gain
//! for one use that costs the other shows.
//!
//! End-to-end metrics: `work_per_s` is requests completed per second; a
//! write is an `/insert` or `/remove` round trip; a query a head or
//! session `/query` round trip; a snapshot a `POST /session` round trip;
//! the disk high-water mark is the durable directory, sampled after
//! each write. Rates, medians and the query tail come from blocks of
//! consecutive passes, one pass per input ([`blocks`]); the write tail
//! is the median over passes of each pass's p99.
//!
//! The traced run replays the script three times against identically
//! seeded engines: untraced over HTTP for half the time, traced over HTTP
//! for the same steps, and traced in process (no server) with the
//! attribution calls. The serve layer's cost is the difference between
//! the HTTP and in-process latencies of the same steps.

use crate::common::{
    dealt_by_label, dir_bytes, median_setup, ms, peak_rss_mb, set_segment_metrics, set_storage,
    trained_model, wal_len, Checks, Digest, Metrics, Rng, Samples, Segment, MB,
};
use crate::trace::{trace_path, Tracer};
use crate::{Outcome, Run};
use gvex_core::{Config, Engine, GraphContext, StreamGvex, ViewId, ViewQuery};
use gvex_data::{DataConfig, DatasetKind};
use gvex_gnn::GcnModel;
use gvex_graph::{ClassLabel, Graph, GraphDb, GraphId};
use gvex_serve::{wire, Client, ServeConfig, Server, ServerHandle};
use serde_json::{json, Value};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Sizes {
    seed_graphs: usize,
    size_scale: f64,
    arrivals: usize,
    /// Script writes per pass. At full size a pass ends soon after its
    /// first staleness-bound recomputes (writes 64 and 65 at the default
    /// bound of 32): ApproxGVEX's is the pass's slowest write and sets
    /// its tail. Short passes give the run many of them (~50 in 30 s on
    /// two shared vCPUs), and the run's write tail is their median.
    pass_writes: usize,
    /// Seed databases (with arrival pools) the passes cycle through.
    inputs: usize,
    session_every: usize,
    probe_every: usize,
    setups: usize,
}

fn sizes(tiny: bool) -> Sizes {
    if tiny {
        Sizes {
            seed_graphs: 12,
            size_scale: 0.5,
            arrivals: 64,
            pass_writes: 24,
            inputs: 1,
            session_every: 4,
            probe_every: 8,
            setups: 1,
        }
    } else {
        Sizes {
            seed_graphs: 48,
            size_scale: 0.5,
            arrivals: 256,
            pass_writes: 72,
            inputs: 4,
            session_every: 8,
            probe_every: 64,
            setups: 5,
        }
    }
}

const TIMEOUT: Duration = Duration::from_secs(60);
const KINDS: [&str; 4] = ["query.label", "query.pattern", "query.pattern_label", "query.views"];

/// The generated inputs: the seed database with its trained model, and
/// the arrival pool the script inserts from.
struct Input {
    model: GcnModel,
    db: GraphDb,
    arrivals: Vec<(Graph, ClassLabel)>,
    /// The label `model` predicts for each arrival.
    predicted: Vec<ClassLabel>,
    wire: Vec<Value>,
    digest: u64,
}

/// The run's inputs: `s.inputs` seed databases with their arrival
/// pools, each from its own seed derived from the workload seed. Passes
/// cycle through them, so a run's tail latencies, which follow the
/// data a recompute explains, average over several databases.
fn inputs(seed: u64, s: &Sizes) -> Vec<Input> {
    let model = trained_model(DatasetKind::Mutagenicity, s.seed_graphs, s.size_scale);
    (0..s.inputs as u64).map(|k| input(&model, seed.wrapping_mul(31).wrapping_add(k), s)).collect()
}

fn input(model: &GcnModel, seed: u64, s: &Sizes) -> Input {
    let cfg = DataConfig { num_graphs: s.seed_graphs + s.arrivals, seed, size_scale: s.size_scale };
    // Dealt by predicted label: the seed database holds both label groups
    // at equal size, and arrivals alternate between the labels, so both
    // maintained views start and grow alike whatever the seed.
    let mut dealt = dealt_by_label(DatasetKind::Mutagenicity, cfg, model).into_iter();
    let mut db = GraphDb::new();
    for (g, truth, predicted) in dealt.by_ref().take(s.seed_graphs) {
        let id = db.push(g, truth);
        db.set_predicted(id, predicted);
    }
    let (arrivals, predicted): (Vec<(Graph, ClassLabel)>, Vec<ClassLabel>) =
        dealt.map(|(g, truth, predicted)| ((g, truth), predicted)).unzip();
    let wire = arrivals
        .iter()
        .map(|(g, truth)| {
            let mut v = wire::graph_to_value(g);
            if let Value::Object(fields) = &mut v {
                fields.push(("truth".into(), Value::UInt(*truth as u64)));
            }
            v
        })
        .collect();
    let mut d = Digest::default();
    for (id, g) in db.iter() {
        d.graph(g);
        d.u64(db.truth(id) as u64);
    }
    for (g, truth) in &arrivals {
        d.graph(g);
        d.u64(*truth as u64);
    }
    Input { model: model.clone(), db, arrivals, predicted, wire, digest: d.finish() }
}

/// One query of the mix: its kind, its wire body and the same query in
/// process.
struct Query {
    kind: usize,
    body: Value,
    q: ViewQuery,
}

/// A durable engine with its two maintained views and, when serving,
/// the server and the one client connection.
struct Served {
    engine: Arc<Engine>,
    dir: PathBuf,
    queries: Vec<Query>,
    server: Option<ServerHandle>,
    client: Option<Client>,
}

impl Drop for Served {
    fn drop(&mut self) {
        self.client.take();
        if let Some(h) = self.server.take() {
            h.shutdown();
        }
    }
}

fn pattern_value(p: &gvex_pattern::Pattern) -> Value {
    let types: Vec<u64> = (0..p.num_nodes() as u32).map(|v| p.node_type(v) as u64).collect();
    let edges: Vec<Value> =
        p.edges().map(|(u, v, t)| json!([u as u64, v as u64, t as u64])).collect();
    json!({ "types": types, "edges": Value::Array(edges) })
}

/// The query mix for labels 0 and 1: label, view pattern, pattern +
/// label, and membership in both views.
fn query_mix(engine: &Engine, views: [ViewId; 2]) -> Vec<Query> {
    let mut out = Vec::new();
    for (l, &v) in views.iter().enumerate() {
        let label = l as ClassLabel;
        let p = engine.view(v).and_then(|view| view.patterns.first().cloned());
        let p = p.unwrap_or_else(|| gvex_pattern::Pattern::single_node(0));
        let members: Vec<u64> = views.iter().map(|v| v.0 as u64).collect();
        out.push(Query {
            kind: 0,
            body: json!({ "label": label }),
            q: ViewQuery::new().label(label),
        });
        out.push(Query {
            kind: 1,
            body: json!({ "pattern": pattern_value(&p) }),
            q: ViewQuery::pattern(p.clone()),
        });
        out.push(Query {
            kind: 2,
            body: json!({ "pattern": pattern_value(&p), "label": label }),
            q: ViewQuery::pattern(p).label(label),
        });
        out.push(Query {
            kind: 3,
            body: json!({ "views": members }),
            q: ViewQuery::new().in_views(views),
        });
    }
    out
}

/// Builds the durable engine under `dir` from the seed database and
/// registers the two maintained views; starts the server when `serve`.
///
/// The engine runs on a one-thread pool. The ApproxGVEX recomputes set
/// the write tail, and on two shared vCPUs a recompute fanned out on both
/// waits for the busier one: over interleaved runs its p99 swung 77–105
/// ms where one thread held 154–164 ms.
fn build(inp: &Input, dir: PathBuf, serve: bool) -> Served {
    let _ = std::fs::remove_dir_all(&dir);
    let engine = Arc::new(
        Engine::builder(inp.model.clone(), inp.db.clone())
            .config(Config::with_bounds(0, 5))
            .threads(1)
            .durable(&dir)
            .build(),
    );
    let views = [engine.explain_label(0), engine.stream(1, 1.0)];
    let queries = query_mix(&engine, views);
    let (server, client) = if serve {
        let h = Server::start(Arc::clone(&engine), ServeConfig::default()).expect("server starts");
        let c = Client::connect(h.addr(), TIMEOUT).expect("client connects");
        (Some(h), Some(c))
    } else {
        (None, None)
    };
    Served { engine, dir, queries, server, client }
}

/// One write of the script.
enum Write {
    Insert(usize),
    /// A label and a position in that label's list of live arrivals.
    Remove(usize, usize),
}

/// Live arrivals by predicted label.
type Live = [Vec<GraphId>; 2];

/// The seeded script: every fourth write removes an earlier arrival, of
/// label 0 and label 1 in turn. Arrivals alternate between the labels
/// too, so each view takes the same number of updates in every pass and
/// reaches its staleness bound at the same writes whatever the seed: the
/// recomputes that make the write tail are the same share of every pass.
struct Script {
    rng: Rng,
    next_arrival: usize,
    step: usize,
}

impl Script {
    fn new(seed: u64) -> Self {
        Self { rng: Rng::new(seed ^ 0x005c_4197), next_arrival: 0, step: 0 }
    }

    fn next(&mut self, live: &Live, arrivals: usize) -> Write {
        self.step += 1;
        let label = self.step / 4 % 2;
        if self.step % 4 == 0 && !live[label].is_empty() {
            Write::Remove(label, self.rng.below(live[label].len()))
        } else {
            let i = self.next_arrival % arrivals;
            self.next_arrival += 1;
            Write::Insert(i)
        }
    }
}

/// What one pass over the script measured; its rate is requests
/// completed per second.
#[derive(Default)]
struct Pass {
    steps: usize,
    completed: u64,
    /// Wall seconds of the script (the engine build not included).
    secs: f64,
    seg: Segment,
    disk_peak: u64,
}

/// Runs `f` inside a span when tracing; returns its result and its
/// latency in milliseconds.
fn call<R>(tr: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = match tr {
        Some(tr) => tr.time(name, f),
        None => f(),
    };
    (r, ms(t.elapsed()))
}

/// Replays `steps` writes of the script over HTTP, then checks the
/// final state.
fn http_pass(
    sv: &mut Served,
    inp: &Input,
    s: &Sizes,
    seed: u64,
    steps: usize,
    mut tr: Option<&mut Tracer>,
    checks: &mut Checks,
) -> Pass {
    let mut p = Pass::default();
    let c = sv.client.as_mut().expect("serving pass has a client");
    let mut script = Script::new(seed);
    let mut live = Live::default();
    let (mut inserted, mut removed) = (0usize, 0usize);
    let mut session: Option<(u64, Vec<Vec<u8>>)> = None;
    let ok = |checks: &mut Checks, p: &mut Pass, status: u16, what: &str| {
        checks.op(status == 200, || format!("{what} answered {status}"));
        p.completed += (status == 200) as u64;
    };
    let start = Instant::now();
    while p.steps < steps {
        if let Some(tr) = tr.as_deref_mut() {
            tr.op = p.steps as u64;
        }
        let k = p.steps;
        match script.next(&live, inp.wire.len()) {
            Write::Insert(i) => {
                let body = json!({ "graphs": Value::Array(vec![inp.wire[i].clone()]) });
                let (r, t) = call(&mut tr, "http.write", || c.post("/insert", &body));
                p.seg.write.push(t);
                let status = r.as_ref().map_or(0, |r| r.status);
                ok(checks, &mut p, status, "/insert");
                let id = r.ok().and_then(|r| wire::ids_field(&r.body, "ids").ok().flatten());
                if let Some(&[id]) = id.as_deref() {
                    live[inp.predicted[i] as usize].push(id);
                    inserted += 1;
                }
            }
            Write::Remove(label, pos) => {
                let body = json!({ "ids": vec![live[label][pos]] });
                let (r, t) = call(&mut tr, "http.write", || c.post("/remove", &body));
                p.seg.write.push(t);
                let status = r.map_or(0, |r| r.status);
                ok(checks, &mut p, status, "/remove");
                if status == 200 {
                    live[label].swap_remove(pos);
                    removed += 1;
                }
            }
        }
        p.disk_peak = p.disk_peak.max(dir_bytes(&sv.dir));
        let base = (k % 2) * 4;
        for q in &sv.queries[base..base + 4] {
            let (r, t) = call(&mut tr, "http.query", || c.post("/query", &q.body));
            p.seg.query.push(t);
            ok(checks, &mut p, r.map_or(0, |r| r.status), "/query");
        }
        if let Some((sid, first)) = session.take() {
            // One write has landed since the session pinned: its reads
            // must not have moved.
            let path = format!("/session/{sid}/query");
            for (q, before) in sv.queries[..4].iter().zip(&first) {
                let (r, t) = call(&mut tr, "http.session_query", || c.post(&path, &q.body));
                p.seg.query.push(t);
                let r = r.ok();
                ok(checks, &mut p, r.as_ref().map_or(0, |r| r.status), "session /query");
                let same = r.is_some_and(|r| &r.raw == before);
                checks.op(same, || format!("session {sid} read changed across a write"));
            }
            let (r, _) = call(&mut tr, "http.session_close", || {
                c.request("DELETE", &format!("/session/{sid}"), None, None)
            });
            ok(checks, &mut p, r.map_or(0, |r| r.status), "DELETE /session");
        } else if k % s.session_every == 0 {
            let (r, t) = call(&mut tr, "http.session_open", || c.post("/session", &json!({})));
            p.seg.snapshot.push(t);
            let r = r.ok();
            ok(checks, &mut p, r.as_ref().map_or(0, |r| r.status), "POST /session");
            if let Some(sid) = r.and_then(|r| wire::u64_field(&r.body, "session").ok()) {
                let path = format!("/session/{sid}/query");
                let mut first = Vec::new();
                for q in &sv.queries[..4] {
                    let (r, t) = call(&mut tr, "http.session_query", || c.post(&path, &q.body));
                    p.seg.query.push(t);
                    let r = r.ok();
                    ok(checks, &mut p, r.as_ref().map_or(0, |r| r.status), "session /query");
                    first.push(r.map(|r| r.raw).unwrap_or_default());
                }
                session = Some((sid, first));
            }
        }
        p.steps += 1;
    }
    p.secs = start.elapsed().as_secs_f64();
    p.seg.rate = p.completed as f64 / p.secs;
    if let Some((sid, _)) = session {
        let _ = c.request("DELETE", &format!("/session/{sid}"), None, None);
    }
    // Final state: no write lost, and every query kind's HTTP body equals
    // `Engine::query` on the same engine.
    let count =
        c.post("/query", &json!({})).ok().and_then(|r| wire::u64_field(&r.body, "count").ok());
    let want = inp.db.len() + inserted - removed;
    checks.op(count == Some(want as u64), || format!("live count {count:?}, want {want}"));
    for q in &sv.queries {
        let http = c.post("/query", &q.body).ok().map(|r| r.body);
        let local = wire::query_result_to_value(&sv.engine.query(&q.q));
        let same = http.is_some_and(|h| {
            ["count", "graphs", "per_label"].iter().all(|f| {
                let a = h.get_field(f).map(|v| serde_json::to_string(v).ok());
                let b = local.get_field(f).map(|v| serde_json::to_string(v).ok());
                a.is_some() && a == b
            })
        });
        checks.op(same, || format!("HTTP and in-process answers differ for {}", KINDS[q.kind]));
    }
    p
}

/// Passes over fresh engines, cycling through `inputs`, until `secs`
/// pass (at least one); the first pass may reuse an engine already
/// built over `inputs[0]`.
fn passes(
    inputs: &[Input],
    s: &Sizes,
    run: &Run,
    secs: f64,
    mut first: Option<Served>,
    checks: &mut Checks,
) -> Vec<Pass> {
    let mut out: Vec<Pass> = Vec::new();
    let start = Instant::now();
    while out.is_empty() || start.elapsed().as_secs_f64() < secs {
        let work = out.len() % inputs.len();
        let inp = &inputs[work];
        let dir = run.dir.join(format!("pass-{}", out.len()));
        let mut sv = first.take().unwrap_or_else(|| build(inp, dir, true));
        let mut p = http_pass(&mut sv, inp, s, run.seed, s.pass_writes, None, checks);
        p.seg.work = work;
        out.push(p);
        let dir = sv.dir.clone();
        drop(sv);
        let _ = std::fs::remove_dir_all(dir);
    }
    out
}

/// Consecutive passes in blocks of one pass per input: the segments the
/// rates, medians and query tail come from. Every block does the same
/// work, and it lasts long enough (~2 s) that its rate is not set by its
/// recomputes alone. Only whole blocks count, unless there is none.
fn blocks(passes: &[Pass], inputs: usize) -> Vec<Segment> {
    let whole = passes.len() / inputs * inputs;
    let used = if whole == 0 { passes.len() } else { whole };
    let block = |c: &[Pass]| {
        let mut seg = Segment::default();
        for p in c {
            seg.write.0.extend(&p.seg.write.0);
            seg.query.0.extend(&p.seg.query.0);
            seg.snapshot.0.extend(&p.seg.snapshot.0);
        }
        let completed: u64 = c.iter().map(|p| p.completed).sum();
        seg.rate = completed as f64 / c.iter().map(|p| p.secs).sum::<f64>();
        seg
    };
    passes[..used].chunks(inputs).map(block).collect()
}

/// Median over passes of requests completed per second.
fn per_second(passes: &[Pass]) -> f64 {
    Samples(passes.iter().map(|p| p.seg.rate).collect()).p50()
}

pub fn run(run: &Run) -> Outcome {
    let s = sizes(run.tiny);
    let mut m = Metrics::default();
    let mut checks = Checks::default();
    if !run.trace {
        let ((inputs, sv), setup_s) = median_setup(s.setups, |i| {
            let inputs = inputs(run.seed, &s);
            let sv = build(&inputs[0], run.dir.join(format!("setup-{i}")), true);
            (inputs, sv)
        });
        let all = passes(&inputs, &s, run, run.seconds.as_secs_f64(), Some(sv), &mut checks);
        eprintln!("serve_maintain: {} passes of {} writes", all.len(), s.pass_writes);
        let disk_peak = all.iter().map(|p| p.disk_peak).max().unwrap_or(0);
        // A pass's p99 is one operation, its ApproxGVEX recompute, which
        // runs up to 1.5× slower in the host's busy spells. The lowest
        // few of them read busy in one run and quiet in the next; their
        // median over the run's passes holds.
        let tails = Samples(all.iter().map(|p| p.seg.write.p99()).collect());
        eprintln!("pass write p99s: {:.1?}", tails.0);
        m.set("setup_s", setup_s);
        set_segment_metrics(&mut m, &blocks(&all, inputs.len()));
        m.set("write_p99_ms", tails.p50());
        m.set("peak_rss_mb", peak_rss_mb());
        m.set("disk_peak_mb", disk_peak as f64 / MB);
        return Outcome { metrics: m, checks, digest: digest(&inputs) };
    }
    let inputs = inputs(run.seed, &s);
    let inp = &inputs[0];
    let untraced = passes(&inputs, &s, run, run.seconds.as_secs_f64() / 2.0, None, &mut checks);
    let origin = Instant::now();
    let mut tr = Tracer::new(origin, 0);
    let mut sv = build(inp, run.dir.join("traced"), true);
    let t = Instant::now();
    let http = http_pass(&mut sv, inp, &s, run.seed, s.pass_writes, Some(&mut tr), &mut checks);
    let http_wall = t.elapsed().as_secs_f64();
    let stats = sv.client.as_mut().and_then(|c| c.get("/stats").ok()).map(|r| r.body);
    let occupancy = stats
        .as_ref()
        .and_then(|b| b.get_field("batch")?.get_field("occupancy").cloned())
        .and_then(|v| match v {
            Value::Float(f) => Some(f),
            Value::UInt(u) => Some(u as f64),
            Value::Int(i) => Some(i as f64),
            _ => None,
        });
    checks.op(occupancy.is_some(), || "/stats has no batch occupancy".into());
    drop(sv);
    let sv = build(inp, run.dir.join("durable-replay"), false);
    let t = Instant::now();
    let local = replay(&sv, inp, &s, run.seed, s.pass_writes, &mut tr);
    let replay_wall = t.elapsed().as_secs_f64();

    let engine = &sv.engine;
    let pager = engine.pager_stats().unwrap_or_default();
    let extents = engine.extent_usage().unwrap_or_default();
    let (slots, live) = {
        let db = engine.db();
        (db.num_slots(), db.len())
    };
    let query_local = Samples(KINDS.iter().flat_map(|k| tr.ms(k).0).collect());
    m.set("context.build_ms", tr.ms("context.build").p50());
    m.set("serve.write_overhead_ms", http.seg.write.p50() - tr.ms("engine.write").p50());
    m.set("serve.query_overhead_us", (http.seg.query.p50() - query_local.p50()) * 1e3);
    m.set("serve.batch_occupancy", occupancy.unwrap_or(0.0));
    m.set("gnn.classify_us", tr.us("gnn.classify").p50());
    m.set("store.match_us", tr.us("store.match").p50());
    m.set("stream.delta_ms", tr.ms("stream.delta").p50());
    m.set("engine.write_ms", tr.ms("engine.write").p50());
    // A mean, not a p50: a pass has as many cheap StreamGVEX recomputes
    // as costly ApproxGVEX ones, and their total is what the tail pays.
    let recomputes = local.recompute.len().max(1) as f64;
    m.set("engine.recompute_ms", local.recompute.sum() / recomputes);
    m.set("engine.recomputes", local.recompute.len() as f64);
    m.set("query.eval_us.label", tr.us(KINDS[0]).p50());
    m.set("query.eval_us.pattern", tr.us(KINDS[1]).p50());
    m.set("query.eval_us.pattern_label", tr.us(KINDS[2]).p50());
    m.set("query.eval_us.views", tr.us(KINDS[3]).p50());
    m.set("snapshot.pin_us", tr.us("snapshot.pin").p50());
    m.set("graph.clone_us", tr.us("graph.clone").p50());
    m.set("graph.window_meta_us", tr.us("graph.window_meta").p50());
    m.set("graph.slots", slots as f64);
    m.set("graph.live", live as f64);
    m.set("wal.checkpoints", local.checkpoint.len() as f64);
    m.set("wal.checkpoint_ms", local.checkpoint.p50());
    set_storage(&mut m, &pager, &extents);
    m.set("trace.coverage", ms(tr.covered()) / ((http_wall + replay_wall) * 1e3));
    m.set("trace.overhead", per_second(std::slice::from_ref(&http)) / per_second(&untraced));
    tr.dump(&trace_path("serve_maintain", run.seed));
    eprintln!(
        "serve_maintain traced: {} steps; HTTP write p50 {:.3} ms vs in process {:.3} ms",
        http.steps,
        http.seg.write.p50(),
        tr.ms("engine.write").p50()
    );
    drop(sv);
    Outcome { metrics: m, checks, digest: digest(&inputs) }
}

/// One digest over every input of the run.
fn digest(inputs: &[Input]) -> u64 {
    let mut d = Digest::default();
    inputs.iter().for_each(|i| d.u64(i.digest));
    d.finish()
}

/// Writes that ran a staleness-bound recompute or an automatic
/// checkpoint, by latency.
#[derive(Default)]
struct Local {
    recompute: Samples,
    checkpoint: Samples,
}

/// The same script steps in process, with the attribution calls.
fn replay(sv: &Served, inp: &Input, s: &Sizes, seed: u64, steps: usize, tr: &mut Tracer) -> Local {
    let engine = &sv.engine;
    let model = engine.model();
    let stream = StreamGvex::new(engine.config().clone());
    let staleness = || [engine.staleness(0), engine.staleness(1)];
    let mut out = Local::default();
    let mut script = Script::new(seed);
    let mut live = Live::default();
    let mut session: Option<gvex_core::Snapshot> = None;
    for k in 0..steps {
        tr.op = k as u64;
        let (before, wal_before) = (staleness(), wal_len(&sv.dir));
        let (arrival, write_ms) = match script.next(&live, inp.arrivals.len()) {
            Write::Insert(i) => {
                let (g, truth) = &inp.arrivals[i];
                tr.time("gnn.classify", || model.predict(g));
                tr.time("store.match", || engine.store().match_arrival(g));
                let t = Instant::now();
                let (ids, _) = tr
                    .time("engine.write", || engine.insert_graphs(vec![(g.clone(), Some(*truth))]));
                live[inp.predicted[i] as usize].extend(&ids);
                (Some((g, ids[0])), ms(t.elapsed()))
            }
            Write::Remove(label, pos) => {
                let id = live[label].swap_remove(pos);
                let t = Instant::now();
                tr.time("engine.write", || engine.remove_graphs(&[id]));
                (None, ms(t.elapsed()))
            }
        };
        let after = staleness();
        if before.iter().zip(&after).any(|(b, a)| matches!((b, a), (Some(b), Some(0)) if *b > 0)) {
            out.recompute.push(write_ms);
        }
        if wal_len(&sv.dir) < wal_before {
            out.checkpoint.push(write_ms);
        }
        if let Some((g, id)) = arrival {
            let label = engine.db().predicted(id).unwrap_or(0);
            tr.time("context.build", || GraphContext::build(model, g, engine.config()));
            if let Some(ctx) = engine.context(id) {
                tr.time("stream.delta", || {
                    stream.stream_with_context(model, g, id, label, None, 1.0, &ctx)
                });
            }
        }
        let base = (k % 2) * 4;
        for q in &sv.queries[base..base + 4] {
            tr.time(KINDS[q.kind], || engine.query(&q.q));
        }
        if let Some(snap) = session.take() {
            for q in &sv.queries[..4] {
                tr.time(KINDS[q.kind], || snap.query(&q.q));
            }
        } else if k % s.session_every == 0 {
            let snap = tr.time("snapshot.pin", || engine.snapshot());
            for q in &sv.queries[..4] {
                tr.time(KINDS[q.kind], || snap.query(&q.q));
            }
            session = Some(snap);
        }
        if k % s.probe_every == 0 {
            tr.time("graph.clone", || (*engine.db()).clone());
            tr.time("graph.window_meta", || engine.db().live_window_meta());
        }
    }
    out
}
