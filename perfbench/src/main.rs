//! The GVEX benchmark: one command runs a named workload from a seed,
//! checks its outputs, and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload explain_views --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads (each a closed loop driven from one thread; see the module
//! of the same name for why it exists):
//!
//! - `explain_views` — fresh engines ingest a seeded ENZYMES-like
//!   database and run `explain_all` ([`explain_views`]).
//! - `serve_maintain` — one keep-alive client drives `gvex_serve` over a
//!   durable engine that maintains one view per label
//!   ([`serve_maintain`]).
//! - `stream_window` — a windowed, budgeted, durable engine ingests a
//!   MalNet-scale stream 200× its window ([`stream_window`]).
//!
//! With `--trace 0` the last stdout line carries every end-to-end metric
//! ([`END_TO_END`]); with `--trace 1` the same workload and seed run
//! again with spans around each call into a layer, and the line carries
//! every per-layer metric ([`PER_LAYER`]). A metric a workload does not
//! exercise reads 0 in traced mode. The line before it is the input
//! digest: the same seed always gives the same digest.
//!
//! Every workload reports every end-to-end metric, each on its own kind
//! of operation (the workload modules say which). Set-up time is the
//! median of several set-ups in the run. A run's timed phase is a
//! sequence of segments (rounds or passes): rates and medians come from
//! the fastest eighth of them and p99s from the lowest quarter of their
//! own p99s ([`common::set_segment_metrics`]; `serve_maintain` takes its
//! write tail as a median instead, and its module says why), and every
//! segment's operations and
//! output checks count in `attempted` and `failed`.
//!
//! All files live under `.bench_work/` in the working directory; a
//! run's durable directories are removed when it ends and only its
//! span dump (`--trace 1`) stays behind.

mod common;
mod explain_views;
mod serve_maintain;
mod stream_window;
mod trace;

use common::{Checks, Metrics};
use std::path::PathBuf;
use std::time::Duration;

/// End-to-end metrics (untraced runs): name and unit.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("write_p50_ms", "ms"),
    ("write_p99_ms", "ms"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("snapshot_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("disk_peak_mb", "MB"),
];

/// Per-layer metrics (traced runs): name and unit.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("gnn.predict_ms", "ms"),
    ("gnn.influence_ms", "ms"),
    ("gnn.embed_ms", "ms"),
    ("context.build_ms", "ms"),
    ("approx.explain_ms", "ms"),
    ("approx.verified_ratio", "ratio"),
    ("pattern.mine_ms", "ms"),
    ("psum.cover_ms", "ms"),
    ("psum.select_ratio", "ratio"),
    ("engine.pool_speedup", "ratio"),
    ("serve.write_overhead_ms", "ms"),
    ("serve.query_overhead_us", "us"),
    ("serve.batch_occupancy", "ratio"),
    ("gnn.classify_us", "us"),
    ("store.match_us", "us"),
    ("stream.delta_ms", "ms"),
    ("engine.write_ms", "ms"),
    ("engine.recompute_ms", "ms"),
    ("engine.recomputes", "count"),
    ("query.eval_us.label", "us"),
    ("query.eval_us.pattern", "us"),
    ("query.eval_us.pattern_label", "us"),
    ("query.eval_us.views", "us"),
    ("snapshot.pin_us", "us"),
    ("graph.clone_us", "us"),
    ("graph.window_meta_us", "us"),
    ("engine.ingest_ms.early", "ms"),
    ("engine.ingest_ms.late", "ms"),
    ("engine.late_over_early", "ratio"),
    ("graph.slots", "count"),
    ("graph.live", "count"),
    ("wal.checkpoints", "count"),
    ("wal.checkpoint_ms", "ms"),
    ("pager.faults", "count"),
    ("pager.hit_rate", "ratio"),
    ("pager.evictions", "count"),
    ("pager.spilled_mb", "MB"),
    ("pager.peak_resident_mb", "MB"),
    ("disk.extent_live_mb", "MB"),
    ("disk.extent_dead_mb", "MB"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// One run's parameters, parsed from the command line.
pub struct Run {
    /// Workload seed: every input is generated from it.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: Duration,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Tiny sizes for the self-check (`--tiny`).
    pub tiny: bool,
    /// This run's scratch directory (removed when the run ends).
    pub dir: PathBuf,
}

/// What a workload hands back: its metrics, its output checks, and the
/// digest of the inputs it generated.
pub struct Outcome {
    pub metrics: Metrics,
    pub checks: Checks,
    pub digest: u64,
}

fn arg<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn parse<T: std::str::FromStr>(args: &[String], flag: &str) -> T {
    let Some(raw) = arg(args, flag) else { usage(&format!("missing {flag}")) };
    raw.parse().unwrap_or_else(|_| usage(&format!("bad value {raw:?} for {flag}")))
}

fn usage(why: &str) -> ! {
    eprintln!(
        "perfbench: {why}\nusage: perfbench --workload explain_views|serve_maintain|stream_window \
         --seed N --seconds S --trace 0|1 [--tiny]"
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let workload = arg(&args, "--workload").unwrap_or_else(|| usage("missing --workload"));
    let seed: u64 = parse(&args, "--seed");
    let seconds: f64 = parse(&args, "--seconds");
    let trace = match parse::<u8>(&args, "--trace") {
        0 => false,
        1 => true,
        _ => usage("--trace takes 0 or 1"),
    };
    if !(seconds > 0.0 && seconds.is_finite()) {
        usage("--seconds must be positive");
    }
    let dir =
        PathBuf::from(".bench_work").join(format!("{workload}-{seed}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the run's scratch directory");
    let run = Run {
        seed,
        seconds: Duration::from_secs_f64(seconds),
        trace,
        tiny: args.iter().any(|a| a == "--tiny"),
        dir: dir.clone(),
    };
    let outcome = match workload {
        "explain_views" => explain_views::run(&run),
        "serve_maintain" => serve_maintain::run(&run),
        "stream_window" => stream_window::run(&run),
        other => {
            let _ = std::fs::remove_dir_all(&dir);
            usage(&format!("unknown workload {other:?}"))
        }
    };
    let _ = std::fs::remove_dir_all(&dir);
    let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let line = outcome.metrics.report(table, &outcome.checks);
    for note in &outcome.checks.notes {
        eprintln!("check failed: {note}");
    }
    println!("input_digest {workload} seed={seed} {:016x}", outcome.digest);
    println!("{line}");
}
