//! Runs every workload at smoke size, untraced and traced, and checks the
//! output contract: exit 0, a correct result on the last line, exactly
//! the metrics `BENCHMARK.json` declares (every workload of the command
//! is checked, including `serve-durable`), and exact counters that repeat
//! between two processes at the same seed.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! from the repository root; the test builds `mdr` itself.

use serde::{Deserialize, Value};
use std::path::{Path, PathBuf};
use std::process::Command;

struct Json(Value);

impl Deserialize for Json {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        Ok(Json(value.clone()))
    }
}

fn field<'a>(value: &'a Value, key: &str) -> &'a Value {
    match value {
        Value::Object(pairs) => pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("no {key:?} in {value:?}")),
        _ => panic!("not an object: {value:?}"),
    }
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| repo_root().join("target"), PathBuf::from)
}

fn mdr() -> PathBuf {
    let status = Command::new(env!("CARGO"))
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "mdr-cli",
            "--manifest-path",
        ])
        .arg(repo_root().join("Cargo.toml"))
        .env("CARGO_TARGET_DIR", target_dir())
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building mdr failed");
    target_dir().join("release").join("mdr")
}

/// Metric names a mode must print, from `BENCHMARK.json`.
fn declared(list: &str) -> Vec<String> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let Json(doc) = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let Value::Array(metrics) = field(&doc, list) else {
        panic!("{list} is not a list");
    };
    let mut names: Vec<String> = metrics
        .iter()
        .map(|m| match field(m, "name") {
            Value::String(s) => s.clone(),
            other => panic!("bad name {other:?}"),
        })
        .collect();
    names.sort();
    names
}

/// Runs one smoke benchmark and returns its metrics as (name, value, unit).
fn run(mdr: &Path, work: &str, workload: &str, trace: bool) -> Vec<(String, f64, String)> {
    let work = target_dir().join(work);
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "1994",
            "--seconds",
            "0",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--mdr")
        .arg(mdr)
        .arg("--work")
        .arg(&work)
        .output()
        .expect("perfbench runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "{workload} trace={trace} failed:\n{stderr}"
    );
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("a result line");
    let Json(result) = serde_json::from_str(last).expect("the result line is JSON");
    assert_eq!(field(&result, "correct"), &Value::Bool(true));
    assert_eq!(field(&result, "failed"), &Value::UInt(0));
    assert!(matches!(field(&result, "attempted"), Value::UInt(n) if *n >= 1));
    let Value::Object(metrics) = field(&result, "metrics") else {
        panic!("metrics is not an object");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let value = match field(m, "value") {
                Value::Float(x) => *x,
                Value::UInt(n) => *n as f64,
                other => panic!("{name}: value {other:?}"),
            };
            let Value::String(unit) = field(m, "unit") else {
                panic!("{name}: no unit");
            };
            (name.clone(), value, unit.clone())
        })
        .collect()
}

#[test]
fn every_workload_passes_its_checks_and_prints_the_declared_metrics() {
    let mdr = mdr();
    for workload in ["serve-mem", "serve-durable", "sim-sweep"] {
        for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
            let mut names: Vec<String> = run(&mdr, "perfbench-smoke-metrics", workload, trace)
                .into_iter()
                .map(|m| m.0)
                .collect();
            names.sort();
            assert_eq!(names, declared(list), "{workload} trace={trace}");
        }
    }
}

#[test]
fn exact_counters_repeat_between_processes() {
    let mdr = mdr();
    // Every count and byte metric is an exact counter.
    let exact = |metrics: Vec<(String, f64, String)>| -> Vec<(String, u64)> {
        metrics
            .into_iter()
            .filter(|m| m.2 == "count" || m.2 == "bytes")
            .map(|m| (m.0, m.1.to_bits()))
            .collect()
    };
    let first = exact(run(&mdr, "perfbench-smoke-exact", "serve-durable", true));
    let second = exact(run(&mdr, "perfbench-smoke-exact", "serve-durable", true));
    assert!(first.len() >= 10, "{first:?}");
    assert_eq!(first, second);
}
