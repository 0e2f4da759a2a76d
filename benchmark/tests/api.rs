//! The benchmark's library API at tiny problem sizes.

use gsdram_benchmark::compare;
use gsdram_benchmark::host::{normalise_rate, normalise_time, slowdown, REF_NOMINAL_S};
use gsdram_benchmark::measure::{self, Outcome};
use gsdram_benchmark::metrics::{Better, Metric, END_TO_END, PER_LAYER};
use gsdram_benchmark::report;
use gsdram_benchmark::trace;
use gsdram_benchmark::workload::{Gate, Shape, Side, Workload};
use gsdram_core::json::Json;

fn tiny_scan() -> Workload {
    Workload::Scan {
        tuples: 4096,
        shape: Shape::Table1,
    }
}

fn traced(w: &Workload) -> Outcome {
    let (o, spans) = trace::run("tiny", w, 1, 1e-3);
    assert!(o.correct(), "{o:?}");
    assert_eq!(o.reps, 1);
    assert!(spans.list().iter().any(|s| s.name == "workloads.program"));
    o
}

#[test]
fn dram_replay_reproduces_every_completion_of_a_small_scan() {
    let o = traced(&tiny_scan());
    assert_eq!(o.metric("dram.replay_match"), Some(1.0));
    // 4096 tuples: 4096 row-layout lines, 512 gathered lines.
    assert_eq!(o.metric("dram.reads"), Some(4096.0 + 512.0));
    for m in &PER_LAYER {
        assert!(o.metric(m.name).is_some(), "{} missing", m.name);
    }
}

#[test]
fn cache_replay_reproduces_l1_hits_of_a_small_gemm() {
    let o = traced(&Workload::Gemm {
        n: 32,
        tile: 32,
        sample: None,
    });
    assert_eq!(o.metric("cache.replay_l1_match"), Some(1.0));
}

#[test]
fn untraced_run_reports_every_end_to_end_metric() {
    let o = measure::run("tiny", &tiny_scan(), 1, 1e-3);
    assert!(o.correct(), "{o:?}");
    assert_eq!(o.reps, measure::MIN_REPS);
    // One warm-up repetition plus the measured ones, two sides each.
    assert_eq!(o.attempted, 2 * (1 + measure::MIN_REPS as u64));
    for m in &END_TO_END {
        let v = o.metric(m.name).unwrap();
        assert!(v.is_finite() && v > 0.0, "{} = {v}", m.name);
    }
}

#[test]
fn gate_counts_panics_and_digest_changes_as_failures() {
    let mut gate = Gate::new("tiny");
    assert_eq!(gate.guard("ok", || Ok(7)), Some(7));
    assert_eq!(
        gate.guard("boom", || -> Result<(), String> { panic!("boom") }),
        None
    );
    assert_eq!(
        gate.guard("err", || -> Result<(), String> { Err("wrong".into()) }),
        None
    );
    let w = tiny_scan();
    let run = |w: Workload| move || w.run(Side::Gs);
    assert!(gate.simulate("gs", Side::Gs, run(w)).is_some());
    assert!(gate.simulate("gs", Side::Gs, run(w)).is_some());
    let bigger = Workload::Scan {
        tuples: 8192,
        shape: Shape::Table1,
    };
    assert!(gate.simulate("gs", Side::Gs, run(bigger)).is_none());
    assert_eq!((gate.attempted, gate.failed), (6, 3));
}

#[test]
fn normalisation_rescales_to_the_reference_host() {
    let twice_as_slow = 2.0 * REF_NOMINAL_S;
    assert!((slowdown(twice_as_slow) - 2.0).abs() < 1e-12);
    assert!((normalise_time(3.0, twice_as_slow) - 1.5).abs() < 1e-12);
    assert!((normalise_rate(100.0, twice_as_slow) - 200.0).abs() < 1e-9);
    assert_eq!(normalise_time(3.0, REF_NOMINAL_S), 3.0);
}

fn sample_outcome(trace: bool) -> Outcome {
    let table: &[Metric] = if trace { &PER_LAYER } else { &END_TO_END };
    Outcome {
        workload: "scan".into(),
        seed: 3,
        trace,
        reps: 2,
        attempted: 6,
        failed: 0,
        metrics: table
            .iter()
            .enumerate()
            .map(|(i, m)| (m.name, 1.0 / (i as f64 + 3.0)))
            .collect(),
        samples: vec![("mem_ops_per_s", vec![1.5e6, 1.25e6])],
    }
}

#[test]
fn record_round_trips_through_compare_parse() {
    let o = sample_outcome(false);
    let line = report::record(&o, 2).to_json_string();
    let parsed = compare::parse(&format!("{line}\n\n{line}\n")).unwrap();
    assert_eq!(parsed.len(), 2);
    assert_eq!(parsed[0].workload, "scan");
    assert!(!parsed[0].trace);
    let want: Vec<(String, f64)> = o.metrics.iter().map(|&(n, v)| (n.into(), v)).collect();
    assert_eq!(parsed[0].metrics, want);
    let (text, ok) = compare::compare(&parsed, &parsed);
    assert!(ok, "{text}");
    assert!(compare::parse("{\"workload\": 1}").is_err());
}

#[test]
fn compare_flags_a_metric_worse_than_its_bound() {
    let base = sample_outcome(false);
    let mut worse = base.clone();
    for (name, v) in &mut worse.metrics {
        if *name == "mem_ops_per_s" {
            *v *= 0.8;
        }
    }
    let parse = |o: &Outcome| compare::parse(&report::record(o, 2).to_json_string()).unwrap();
    let (text, ok) = compare::compare(&parse(&base), &parse(&worse));
    assert!(!ok);
    assert!(text
        .lines()
        .any(|l| l.contains("mem_ops_per_s") && l.ends_with("WORSE")));
}

#[test]
fn summary_has_exactly_the_contract_keys() {
    for trace in [false, true] {
        let text = report::summary(&[sample_outcome(trace)]).to_json_string();
        let v = Json::parse(&text).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        let metrics = v.get("metrics").unwrap().as_object().unwrap();
        let table: &[Metric] = if trace { &PER_LAYER } else { &END_TO_END };
        assert_eq!(metrics.len(), table.len());
        for ((name, m), want) in metrics.iter().zip(table) {
            assert_eq!(name, want.name);
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(want.unit));
            assert!(m.get("value").and_then(Json::as_f64).is_some());
        }
    }
}

/// `BENCHMARK.json` at the repository root lists exactly this table.
#[test]
fn benchmark_json_mirrors_the_metric_table() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let v = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let check = |key: &str, table: &[Metric]| {
        let listed = v.get(key).and_then(Json::as_array).unwrap();
        assert_eq!(listed.len(), table.len(), "{key}");
        for (j, m) in listed.iter().zip(table) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(m.name));
            assert_eq!(j.get("unit").and_then(Json::as_str), Some(m.unit));
            let better = match m.better {
                Better::Higher => "higher",
                Better::Lower => "lower",
            };
            assert_eq!(j.get("better").and_then(Json::as_str), Some(better));
            assert_eq!(j.get("bound").and_then(Json::as_f64), m.bound);
        }
    };
    check("end_to_end", &END_TO_END);
    check("per_layer", &PER_LAYER);
    let names: Vec<&str> = v
        .get("workloads")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(names, gsdram_benchmark::workload::NAMES);
}
