//! Every workload listed in `BENCHMARK.json` prints exactly the listed
//! metric names, the same on two seeds, so a claim made on one seed can be
//! re-checked on another. Runs each workload for its minimum length (one
//! cold/warm pair or one epoch per half); use `cargo test --release`.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use sr::serve::{parse, Json};

fn benchmark() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read(&path).expect("BENCHMARK.json at the repository root");
    parse(&text).expect("BENCHMARK.json parses")
}

fn names(doc: &Json, key: &str) -> BTreeSet<String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

/// Runs one workload and returns the metric names of its result line,
/// checking the line's shape on the way.
fn metric_names(workload: &str, seed: u64, trace: u8) -> BTreeSet<String> {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("seeds");
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.001", "--trace", &trace.to_string()])
        .arg("--out")
        .arg(&out_dir)
        .output()
        .expect("perfbench runs");
    assert!(output.status.success(), "{workload} seed {seed} failed");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    let doc = parse(last.as_bytes()).expect("the result line is JSON");
    assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
    assert!(doc
        .get("attempted")
        .and_then(Json::as_num)
        .is_some_and(|n| n >= 1.0));
    let metrics = doc.get("metrics").and_then(Json::as_obj).expect("metrics");
    for (name, m) in metrics {
        assert!(
            m.get("value")
                .and_then(Json::as_num)
                .is_some_and(f64::is_finite),
            "{workload}: {name} has no finite value"
        );
        assert!(
            m.get("unit").and_then(Json::as_str).is_some(),
            "{name} has no unit"
        );
    }
    metrics.keys().cloned().collect()
}

#[test]
fn every_workload_prints_the_listed_metrics_on_two_seeds() {
    let bench = benchmark();
    let end_to_end = names(&bench, "end_to_end");
    let per_layer = names(&bench, "per_layer");
    for workload in bench
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
    {
        let workload = workload.get("name").and_then(Json::as_str).expect("name");
        for (trace, listed) in [(0, &end_to_end), (1, &per_layer)] {
            let first = metric_names(workload, 1, trace);
            assert_eq!(&first, listed, "{workload} --trace {trace}");
            assert_eq!(metric_names(workload, 987_654_321, trace), first);
        }
    }
}
