//! Experiment-engine integration tests: the parallel sweep runner must
//! be bit-identical to the serial one, and the stats trees experiments
//! emit must survive a JSON round-trip unchanged.

use gsdram_bench::args::Args;
use gsdram_bench::experiments::{find, run_experiment, run_experiment_traced};
use gsdram_bench::spec::{MachineSpec, RunSpec, WorkloadSpec};
use gsdram_bench::sweep::{run_parallel, run_serial, run_traced, SweepMode};
use gsdram_core::json::Json;
use gsdram_core::stats::StatsNode;
use gsdram_workloads::imdb::{Layout, TxnSpec};

fn small_specs() -> Vec<RunSpec> {
    let mut v = Vec::new();
    for layout in Layout::ALL {
        v.push(RunSpec {
            id: format!("t/anal/{}", layout.label()),
            machine: MachineSpec::table1(1, 4 << 20),
            workload: WorkloadSpec::Analytics {
                layout,
                tuples: 2048,
                columns: vec![0, 1],
            },
        });
        v.push(RunSpec {
            id: format!("t/txn/{}", layout.label()),
            machine: MachineSpec::table1(1, 4 << 20),
            workload: WorkloadSpec::Transactions {
                layout,
                spec: TxnSpec {
                    read_only: 2,
                    write_only: 1,
                    read_write: 1,
                },
                tuples: 1024,
                txns: 200,
                seed: 7,
            },
        });
    }
    v
}

/// The tentpole guarantee: executing the same specs on worker threads
/// produces byte-for-byte the same stats trees, in the same order, as
/// executing them one by one.
#[test]
fn parallel_sweep_is_bit_identical_to_serial() {
    let specs = small_specs();
    let serial = run_serial(&specs);
    for threads in [2usize, 4, 0] {
        let parallel = run_parallel(&specs, threads);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.spec, p.spec, "order must be preserved");
            assert_eq!(s.stats(), p.stats(), "{}: tree mismatch", s.spec.id);
            assert_eq!(
                s.stats().to_json(),
                p.stats().to_json(),
                "{}: JSON bytes mismatch",
                s.spec.id
            );
        }
    }
}

/// Same property one level up: a whole registry experiment run with
/// `--serial` matches the default parallel run, byte for byte.
#[test]
fn registry_experiment_parallel_matches_serial() {
    let def = find("fig10").expect("registered");
    let serial = run_experiment(def, &Args::new(["--tuples", "2048", "--serial"]));
    let parallel = run_experiment(def, &Args::new(["--tuples", "2048", "--threads", "4"]));
    assert_eq!(serial, parallel);
    assert_eq!(serial.to_json_pretty(), parallel.to_json_pretty());
}

/// The telemetry invariant at the sweep level: a traced sweep (serial
/// or parallel) produces outcomes byte-identical to an untraced one,
/// while its collectors actually saw the runs.
#[test]
fn traced_sweep_is_bit_identical_to_untraced() {
    let specs = small_specs();
    let plain = run_serial(&specs);
    for mode in [SweepMode::Serial, SweepMode::Parallel(3)] {
        let traced = run_traced(&specs, mode, 1024);
        assert_eq!(plain.len(), traced.len());
        for (p, (t, telemetry)) in plain.iter().zip(&traced) {
            assert_eq!(p.spec, t.spec, "order must be preserved");
            assert_eq!(
                p.stats().to_json(),
                t.stats().to_json(),
                "{}: observation must not perturb the run ({mode:?})",
                p.spec.id
            );
            assert!(telemetry.total_events() > 0, "{}: no events", p.spec.id);
            assert!(telemetry.read_latency(0).is_some_and(|h| h.count() > 0));
        }
    }
}

/// The acceptance criterion one level up: a whole registry experiment
/// run with collectors attached emits figure JSON byte-identical to
/// the untraced run, and its Chrome trace is well-formed JSON. Covers
/// a single-channel machine and the multi-channel `scale_channels`
/// sweep, whose bridge advances each channel under the observer.
#[test]
fn traced_experiment_figure_json_matches_untraced() {
    for name in ["fig10", "scale_channels"] {
        let def = find(name).expect("registered");
        let args = Args::new(["--tuples", "2048", "--serial"]);
        let plain = run_experiment(def, &args);
        let (traced, traces) = run_experiment_traced(def, &args, 4096);
        assert_eq!(
            plain.to_json_pretty(),
            traced.to_json_pretty(),
            "{name}: tracing changed the figure JSON"
        );
        assert_eq!(
            traces.len(),
            plain.counter_at("total_runs").unwrap() as usize
        );
        let chrome = gsdram_telemetry::chrome_trace(
            &traces
                .iter()
                .map(|(id, t)| (id.clone(), t))
                .collect::<Vec<_>>(),
        );
        let doc = Json::parse(&chrome).expect("chrome trace parses");
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        assert!(!events.is_empty(), "{name}: empty trace");
    }
}

/// The iteration-order pin: two identical invocations must emit
/// byte-identical JSON. Each parallel run builds its tables afresh on
/// fresh worker threads (fresh hasher seeds), so any hash-map
/// iteration order leaking into output shows up as a byte diff here —
/// the in-process counterpart of CI's two-process figure comparison.
#[test]
fn repeated_runs_are_byte_identical() {
    let specs = small_specs();
    let first = run_parallel(&specs, 3);
    let second = run_parallel(&specs, 3);
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.stats().to_json(), b.stats().to_json(), "{}", a.spec.id);
    }
    let def = find("fig10").expect("registered");
    let args = Args::new(["--tuples", "2048"]);
    let (t1, _) = run_experiment_traced(def, &args, 2048);
    let (t2, _) = run_experiment_traced(def, &args, 2048);
    assert_eq!(t1.to_json_pretty(), t2.to_json_pretty());
}

/// The same proofs for the pattern engine: a pattern experiment run
/// with `--serial` is byte-identical to the parallel run, and two
/// identical invocations emit byte-identical JSON. The generators are
/// seeded (SplitMix64 over the spec's `seed`), so any nondeterminism
/// here would mean the index streams themselves drifted.
#[test]
fn pattern_experiments_are_deterministic_serial_and_parallel() {
    for (name, args) in [
        (
            "pattern_stride_sweep",
            vec!["--accesses", "256", "--strides", "1,2,8"],
        ),
        (
            "pattern_indirect",
            vec!["--accesses", "256", "--elements", "4096"],
        ),
    ] {
        let def = find(name).expect("registered");
        let mut serial_args: Vec<&str> = args.clone();
        serial_args.push("--serial");
        let mut par_args: Vec<&str> = args.clone();
        par_args.extend(["--threads", "4"]);
        let serial = run_experiment(def, &Args::new(serial_args.clone()));
        let parallel = run_experiment(def, &Args::new(par_args));
        assert_eq!(serial, parallel, "{name}: serial vs parallel tree");
        assert_eq!(
            serial.to_json_pretty(),
            parallel.to_json_pretty(),
            "{name}: serial vs parallel JSON bytes"
        );
        let again = run_experiment(def, &Args::new(serial_args));
        assert_eq!(
            serial.to_json_pretty(),
            again.to_json_pretty(),
            "{name}: two runs must be byte-identical"
        );
    }
}

/// Every value kind an experiment emits (counters, gauges, text,
/// nested children) must survive serialise → parse → compare.
#[test]
fn experiment_tree_round_trips_through_json() {
    let def = find("extras_kvstore_graph").expect("registered");
    let node = run_experiment(
        def,
        &Args::new(["--pairs", "512", "--nodes", "1024", "--serial"]),
    );
    for json in [node.to_json(), node.to_json_pretty()] {
        let back = StatsNode::from_json(&json).expect("parse back");
        assert_eq!(node, back);
    }
}

/// Analytic experiments (no machine runs) also produce valid,
/// round-trippable trees.
#[test]
fn analytic_experiment_round_trips() {
    let def = find("ablation_shuffle").expect("registered");
    let node = run_experiment(def, &Args::new([] as [&str; 0]));
    assert_eq!(
        node.counter_at("summary/reads_per_gathered_line/stride8_shuffled"),
        Some(1)
    );
    let back = StatsNode::from_json(&node.to_json()).expect("parse back");
    assert_eq!(node, back);
}
