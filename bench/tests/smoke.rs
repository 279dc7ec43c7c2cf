//! Runs the real binary in `--smoke` mode (a twentieth of the sessions or
//! fewer) on every workload, and checks its output against `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use launch_bench::json::Json;
use launch_bench::metrics::{END_TO_END, PER_LAYER};
use launch_bench::plan::{Workload, REFERENCE_SECONDS};
use launch_bench::report::{parse_run, ParsedRun};

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// name → unit of one of `BENCHMARK.json`'s metric lists.
fn declared(list: &str) -> BTreeMap<String, String> {
    let doc = benchmark_json();
    doc.get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has {list}"))
        .iter()
        .map(|m| {
            let text = |k| m.get(k).and_then(Json::as_str).expect("metric has name and unit");
            (text("name").to_string(), text("unit").to_string())
        })
        .collect()
}

/// One smoke run; the scratch directory is relative to the test's temp
/// directory so Unix socket paths stay short.
fn smoke_run(workload: &str, seed: u64, trace: bool) -> ParsedRun {
    let out = Command::new(env!("CARGO_BIN_EXE_launch-bench"))
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .args(["run", "--smoke", "--workload", workload, "--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--out-dir", &format!("smoke-{workload}-{seed}-{trace}")])
        .output()
        .expect("launch-bench starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{workload}: {stdout}\n{}", String::from_utf8_lossy(&out.stderr));
    let line = stdout.lines().last().expect("a result line");
    let json = Json::parse(line).unwrap_or_else(|e| panic!("{workload}: last line {line:?}: {e}"));
    let keys: Vec<&str> = json.as_obj().expect("an object").keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"], "exactly the contract's keys");
    parse_run(&json).expect("a well-formed result")
}

fn assert_metrics(run: &ParsedRun, want: &BTreeMap<String, String>, what: &str) {
    let got: BTreeMap<String, String> =
        run.metrics.iter().map(|(n, _, u)| (n.clone(), u.clone())).collect();
    assert_eq!(&got, want, "{what}: the metrics of BENCHMARK.json with their units, and no other");
    assert!(run.metrics.iter().all(|(_, v, _)| v.is_finite()), "{what}: finite values");
}

fn metric(run: &ParsedRun, name: &str) -> f64 {
    run.metrics.iter().find(|(n, _, _)| n == name).unwrap_or_else(|| panic!("has {name}")).1
}

#[test]
fn benchmark_json_declares_what_the_code_reports() {
    let doc = benchmark_json();
    let e2e: Vec<(String, String, String, f64)> = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .expect("end_to_end")
        .iter()
        .map(|m| {
            let text = |k| m.get(k).and_then(Json::as_str).expect("text member").to_string();
            (text("name"), text("unit"), text("better"), m.get("bound").unwrap().as_f64().unwrap())
        })
        .collect();
    let code: Vec<(String, String, String, f64)> = END_TO_END
        .iter()
        .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string(), d.bound))
        .collect();
    assert_eq!(e2e, code);

    let layers = declared("per_layer");
    let code: BTreeMap<String, String> =
        PER_LAYER.iter().map(|d| (d.name.to_string(), d.unit.to_string())).collect();
    assert_eq!(layers, code);

    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    let code: Vec<&str> = Workload::ALL.iter().map(|w| w.spec().name).collect();
    assert_eq!(workloads, code);
    assert_eq!(doc.get("run_seconds").and_then(Json::as_f64), Some(REFERENCE_SECONDS as f64));
}

#[test]
fn every_workload_runs_clean_and_reports_the_end_to_end_metrics() {
    let want = declared("end_to_end");
    for w in Workload::ALL {
        let name = w.spec().name;
        let run = smoke_run(name, 11, false);
        assert!(run.correct && run.failed == 0, "{name}: failed {}", run.failed);
        assert!(run.attempted >= 1);
        assert_metrics(&run, &want, name);
        for (n, v, _) in &run.metrics {
            assert!(*v > 0.0, "{name}: {n} is never 0");
        }
    }
}

#[test]
fn traced_run_reports_every_layer_and_repeats_its_plan() {
    let want = declared("per_layer");
    let a = smoke_run("wide_launch", 21, true);
    let b = smoke_run("wide_launch", 21, true);
    let c = smoke_run("wide_launch", 22, true);
    for run in [&a, &b, &c] {
        assert!(run.correct && run.failed == 0);
        assert_metrics(run, &want, "wide_launch traced");
        // The parts of a launch sum to the benchmark's own request → ready.
        assert!(metric(run, "core.budget_residual_share") < 0.05);
        // Every probe of the ladder ran: no timing reads zero. (Differences
        // and the admission wait may legitimately be zero or negative.)
        let signed = ["slope", "overhead", "admission"];
        for (n, v, u) in &run.metrics {
            if ["ms", "us"].contains(&u.as_str()) && !signed.iter().any(|s| n.contains(s)) {
                assert!(*v > 0.0, "{n} was measured");
            }
        }
        assert_eq!(metric(run, "daemon.residual_sessions"), 0.0);
    }
    assert_eq!(a.attempted, b.attempted);
    assert_eq!(metric(&a, "loadgen.plan_hash"), metric(&b, "loadgen.plan_hash"));
    assert_ne!(metric(&a, "loadgen.plan_hash"), metric(&c, "loadgen.plan_hash"));
}
