//! The benchmark's self-check at tiny sizes: every workload, untraced and
//! traced, must finish with zero failed operations, emit every metric
//! `BENCHMARK.json` names with its unit, and print the same input digest
//! for the same seed.

use serde_json::Value;
use std::process::Command;

/// `(name, unit)` of every metric in `BENCHMARK.json`'s `key` list.
fn declared(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let spec: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let Some(Value::Array(items)) = spec.get_field(key) else { panic!("no {key} list") };
    items
        .iter()
        .map(|m| {
            let field = |f: &str| match m.get_field(f) {
                Some(Value::String(s)) => s.clone(),
                other => panic!("{key} entry without {f}: {other:?}"),
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs one tiny workload; returns the digest line and the result line.
fn run(workload: &str, trace: u8) -> (String, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1", "--trace"])
        .arg(trace.to_string())
        .arg("--tiny")
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    let [.., digest, last] = lines.as_slice() else { panic!("too little output: {stdout}") };
    (digest.to_string(), serde_json::from_str(last).expect("the last line is JSON"))
}

fn u64_of(v: &Value, f: &str) -> u64 {
    match v.get_field(f) {
        Some(Value::UInt(u)) => *u,
        Some(Value::Int(i)) if *i >= 0 => *i as u64,
        other => panic!("{f} is not a whole number: {other:?}"),
    }
}

fn check(workload: &str) {
    let mut digests = Vec::new();
    for (trace, key) in [(0, "end_to_end"), (1, "per_layer")] {
        let (digest, result) = run(workload, trace);
        assert!(digest.starts_with(&format!("input_digest {workload} seed=7 ")), "{digest}");
        digests.push(digest);
        assert!(matches!(result.get_field("correct"), Some(Value::Bool(true))), "{result:?}");
        assert!(u64_of(&result, "attempted") >= 1);
        assert_eq!(u64_of(&result, "failed"), 0, "{workload} --trace {trace}: {result:?}");
        let Some(Value::Object(metrics)) = result.get_field("metrics") else {
            panic!("no metrics")
        };
        let want = declared(key);
        assert_eq!(metrics.len(), want.len(), "{workload} --trace {trace} metric count");
        for (name, unit) in want {
            let m = result.get_field("metrics").and_then(|ms| ms.get_field(&name));
            let m = m.unwrap_or_else(|| panic!("{workload} --trace {trace} lacks {name}"));
            assert!(matches!(m.get_field("unit"), Some(Value::String(u)) if *u == unit), "{name}");
            let value = match m.get_field("value") {
                Some(Value::Float(f)) => *f,
                Some(Value::UInt(u)) => *u as f64,
                Some(Value::Int(i)) => *i as f64,
                other => panic!("{name} has no numeric value: {other:?}"),
            };
            assert!(value.is_finite(), "{name}");
            if trace == 0 {
                assert!(value > 0.0, "{workload}: end-to-end {name} reads {value}");
            }
        }
    }
    assert_eq!(digests[0], digests[1], "the same seed must give the same inputs");
}

#[test]
fn explain_views_reports_every_metric() {
    check("explain_views");
}

#[test]
fn serve_maintain_reports_every_metric() {
    check("serve_maintain");
}

#[test]
fn stream_window_reports_every_metric() {
    check("stream_window");
}

#[test]
fn a_bad_command_line_fails_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"])
        .output()
        .expect("benchmark runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
