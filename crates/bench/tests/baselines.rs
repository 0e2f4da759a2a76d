//! Byte pins and ablation acceptance tests for the registry.
//!
//! Every committed file in `crates/bench/tests/baselines/` is the
//! pretty stats JSON of one experiment at a small, fixed size. The pin
//! test re-runs each experiment in process and compares byte-for-byte,
//! so a figure number cannot move without a reviewed baseline diff
//! (CI also diffs the `gsdram-sim sweep fig10` output against its file,
//! covering the CLI's argument parsing and file writing).

use std::path::Path;

use gsdram_bench::args::Args;
use gsdram_bench::experiments::{find, run_experiment};
use gsdram_core::stats::StatsNode;

/// `(experiment, args, baseline file)`: fig9/fig10 pin the default
/// machine across the DRAM back-end refactors; the pattern pair pins
/// the stride sweep's speedup column (gains track the largest
/// power-of-two factor of the stride, capped at 8) and the indirect
/// collapse; scale_channels pins the multi-channel address
/// decomposition.
const PINS: &[(&str, &[&str], &str)] = &[
    (
        "fig9",
        &["--txns", "200", "--tuples", "2048"],
        "fig9_small.json",
    ),
    ("fig10", &["--tuples", "2048"], "fig10_small.json"),
    (
        "pattern_stride_sweep",
        &["--accesses", "512"],
        "pattern_stride_sweep_small.json",
    ),
    (
        "pattern_indirect",
        &["--accesses", "512", "--elements", "8192"],
        "pattern_indirect_small.json",
    ),
    (
        "scale_channels",
        &["--tuples", "2048"],
        "scale_channels_small.json",
    ),
];

#[test]
fn registry_json_matches_committed_baselines() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/baselines");
    let mut drifted = Vec::new();
    for &(name, argv, file) in PINS {
        let def = find(name).unwrap_or_else(|| panic!("{name}: not registered"));
        let node = run_experiment(def, &Args::new(argv.iter().copied()));
        let want = std::fs::read_to_string(dir.join(file))
            .unwrap_or_else(|e| panic!("read baseline {file}: {e}"));
        if node.to_json_pretty() != want {
            drifted.push(file);
        }
        if name == "scale_channels" {
            assert_scale_channels_shape(&node);
        }
    }
    assert!(
        drifted.is_empty(),
        "JSON drifted from crates/bench/tests/baselines/: {drifted:?}"
    );
}

/// The multi-channel figure must actually separate the channel counts
/// on the bandwidth-bound row store, and speedups must stay sane.
fn assert_scale_channels_shape(node: &StatsNode) {
    let ch1 = summary_child(node, "ch1");
    let ch4 = summary_child(node, "ch4");
    assert_eq!(ch1.gauge_at("row_speedup_vs_1ch"), Some(1.0));
    assert!(
        ch4.gauge_at("row_mcycles") < ch1.gauge_at("row_mcycles"),
        "four channels must beat one on the row-store scan"
    );
}

fn summary_child<'a>(root: &'a StatsNode, config: &str) -> &'a StatsNode {
    let summary = root
        .children()
        .iter()
        .find(|c| c.name() == "summary")
        .expect("summary subtree");
    summary
        .children()
        .iter()
        .find(|c| c.name() == config)
        .unwrap_or_else(|| panic!("missing summary config {config}"))
}

/// The scheduler ablation must (a) be deterministic and (b) actually
/// separate the four engines: distinct row-store timings, no fairness
/// decisions from the default engines, cap promotions and bank-rr
/// rotations from the new ones.
#[test]
fn ablation_sched_is_distinct_and_deterministic() {
    let def = find("ablation_sched").expect("registered");
    let args = Args::new(["--tuples", "2048"]);
    let node = run_experiment(def, &args);
    assert_eq!(node.counter_at("total_runs"), Some(8));

    let cycles: Vec<f64> = ["frfcfs_row", "fcfs_row", "frfcfs-cap_row", "bank-rr_row"]
        .iter()
        .map(|c| {
            summary_child(&node, c)
                .gauge_at("analytics_mcycles")
                .unwrap_or_else(|| panic!("{c}: analytics_mcycles"))
        })
        .collect();
    for i in 0..cycles.len() {
        for j in i + 1..cycles.len() {
            assert!(
                cycles[i] != cycles[j],
                "row-store timings must separate the engines, got {cycles:?}"
            );
        }
    }

    for c in ["frfcfs_row", "fcfs_row", "frfcfs_gs", "fcfs_gs"] {
        let n = summary_child(&node, c);
        assert_eq!(n.counter_at("sched_hit_bypasses"), Some(0), "{c}");
        assert_eq!(n.counter_at("sched_promotions"), Some(0), "{c}");
        assert_eq!(n.counter_at("sched_batch_rotations"), Some(0), "{c}");
    }
    let cap = summary_child(&node, "frfcfs-cap_row");
    assert!(cap.counter_at("sched_hit_bypasses") > Some(0));
    assert!(cap.counter_at("sched_promotions") > Some(0));
    let rr = summary_child(&node, "bank-rr_row");
    assert!(rr.counter_at("sched_batch_rotations") > Some(0));

    // Same spec, same bytes: the engines are deterministic.
    let again = run_experiment(def, &args);
    assert!(node.to_json_pretty() == again.to_json_pretty());
}

/// The mapping ablation must separate direct from XOR-hashed banks on
/// the random-transaction runs and stay deterministic.
#[test]
fn ablation_mapping_is_distinct_and_deterministic() {
    let def = find("ablation_mapping").expect("registered");
    let args = Args::new(["--tuples", "2048"]);
    let node = run_experiment(def, &args);
    assert_eq!(node.counter_at("total_runs"), Some(8));

    for layout in ["row", "gs"] {
        let direct = summary_child(&node, &format!("direct_{layout}"));
        let xor = summary_child(&node, &format!("xor-bank_{layout}"));
        assert!(
            direct.gauge_at("txn_row_hit_rate") != xor.gauge_at("txn_row_hit_rate"),
            "{layout}: the bank hash must change transaction row locality"
        );
    }

    let again = run_experiment(def, &args);
    assert!(node.to_json_pretty() == again.to_json_pretty());
}
