//! Self-test of the benchmark: tiny-scale runs of every workload must be
//! correct, a single wrong oracle answer must be caught, modeled figures
//! must repeat exactly, and the traced run must report every per-layer
//! metric that `BENCHMARK.json` names.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::{per_layer_names, run_benchmark, Config, Outcome, Workload, END_TO_END};
use std::sync::Mutex;

/// The gpu-sim default profiler is process-wide, so runs take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn tiny(w: Workload, trace: bool) -> Config {
    let mut c = Config::new(w, 5, 0.0, trace);
    c.shrink = 6;
    c
}

fn run_serial(c: &Config) -> Outcome {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    run_benchmark(c)
}

#[test]
fn tiny_runs_are_correct_and_repeat_exactly() {
    for w in Workload::ALL {
        let a = run_serial(&tiny(w, false));
        assert!(a.correct, "{}: {:#?}", w.name(), a.lines);
        assert_eq!(a.failed, 0);
        assert!(a.attempted > 0);
        let names: Vec<&str> = a.metrics.iter().map(|m| m.name.as_str()).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names, want);
        assert!(
            a.metrics.iter().all(|m| m.value > 0.0),
            "{}: every end-to-end metric is positive: {:#?}",
            w.name(),
            a.lines
        );
        let b = run_serial(&tiny(w, false));
        assert_eq!(a.exact, b.exact, "{}: modeled figures differ", w.name());
    }
}

#[test]
fn a_flipped_oracle_answer_fails_the_run() {
    for w in Workload::ALL {
        let mut c = tiny(w, false);
        c.flip_one_answer = true;
        let o = run_serial(&c);
        assert!(!o.correct, "{}: flipped answer not caught", w.name());
        assert!(o.failed > 0 && o.failed <= o.attempted);
    }
}

#[test]
fn traced_run_reports_every_layer_metric_and_covers_the_rounds() {
    for w in Workload::ALL {
        let o = run_serial(&tiny(w, true));
        // A traced run also fails when its modeled figures or exact
        // counters differ from the plain pass's.
        assert!(o.correct, "{}: {:#?}", w.name(), o.lines);
        let names: Vec<String> = o.metrics.iter().map(|m| m.name.clone()).collect();
        let want: Vec<String> = per_layer_names().into_iter().map(|(n, _, _)| n).collect();
        assert_eq!(names, want);
        let coverage = o
            .metrics
            .iter()
            .find(|m| m.name == "trace.span_coverage")
            .map(|m| m.value)
            .unwrap();
        assert!(coverage >= 0.95, "{}: spans cover {coverage}", w.name());
    }
}

#[test]
fn benchmark_json_lists_exactly_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let listed = text.matches("\"name\":").count();
    let workloads = Workload::ALL.len();
    assert_eq!(
        listed,
        workloads + END_TO_END.len() + per_layer_names().len()
    );
    for w in Workload::ALL {
        assert!(text.contains(&format!("\"name\": \"{}\"", w.name())));
    }
    for (name, unit) in END_TO_END {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(text.contains(&entry), "missing {entry}");
    }
    for (name, unit, better) in per_layer_names() {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
        assert!(text.contains(&entry), "missing {entry}");
    }
}
