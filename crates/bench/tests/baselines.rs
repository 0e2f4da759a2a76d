//! Byte pins and ablation acceptance tests for the registry.
//!
//! Every committed file in `crates/bench/tests/baselines/` is the
//! pretty stats JSON of one experiment at a small, fixed size. The pin
//! test re-runs each experiment in process and compares byte-for-byte,
//! so a figure number cannot move without a reviewed baseline diff
//! (CI also diffs the `gsdram-sim sweep fig10` output against its file,
//! covering the CLI's argument parsing and file writing). The paper's
//! claims ([`CLAIMS`]) are read off the same trees: a pin says a number
//! did not move, a claim says the reproduction still holds, so a model
//! fix that regenerates pins must keep every claim.

use std::path::Path;
use std::sync::OnceLock;

use gsdram_bench::args::Args;
use gsdram_bench::experiments::{check_flags, find, names, run_experiment};
use gsdram_core::stats::StatsNode;

/// `(experiment, args, baseline file)`: fig9/fig10 pin the default
/// machine across the DRAM back-end refactors; the pattern pair pins
/// the stride sweep's speedup column (gains track the largest
/// power-of-two factor of the stride, capped at 8) and the indirect
/// collapse; scale_channels pins the multi-channel address
/// decomposition. fig7 pins the module's per-chip view; fig11 pins
/// HTAP stores, overlap flushes and deep queues; ablation_impulse pins
/// Impulse's multi-sub-request gathers, the one line path that reads
/// through word addresses. The remaining twelve complete the registry:
/// every experiment is pinned at a size that runs in about a second in
/// a debug build (`extension_ecc` at 64 trials instead of 20,000).
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
    ("fig7", &[], "fig7_small.json"),
    ("fig11", &["--tuples", "2048"], "fig11_small.json"),
    (
        "ablation_impulse",
        &["--tuples", "2048"],
        "ablation_impulse_small.json",
    ),
    (
        "fig12",
        &["--txns", "200", "--tuples", "2048"],
        "fig12_small.json",
    ),
    ("fig13", &["--sizes", "32,64"], "fig13_small.json"),
    ("ablation_shuffle", &[], "ablation_shuffle_small.json"),
    ("ablation_patterns", &[], "ablation_patterns_small.json"),
    (
        "ablation_sectored",
        &["--lines", "1024"],
        "ablation_sectored_small.json",
    ),
    (
        "ablation_sched",
        &["--tuples", "2048"],
        "ablation_sched_small.json",
    ),
    (
        "ablation_mapping",
        &["--tuples", "2048"],
        "ablation_mapping_small.json",
    ),
    (
        "ablation_row_policy",
        &["--tuples", "2048"],
        "ablation_row_policy_small.json",
    ),
    (
        "extension_ecc",
        &["--trials", "64"],
        "extension_ecc_small.json",
    ),
    (
        "extension_filter",
        &["--tuples", "4096"],
        "extension_filter_small.json",
    ),
    (
        "extension_transpose",
        &["--sizes", "32,64"],
        "extension_transpose_small.json",
    ),
    (
        "extras_kvstore_graph",
        &["--pairs", "2048", "--nodes", "4096"],
        "extras_kvstore_graph_small.json",
    ),
];

/// One claim of the paper, checked on a pinned run's stats tree: the
/// gauge at `path` must lie in `min..=max`.
struct Claim {
    /// The experiment, as registered.
    experiment: &'static str,
    /// Its arguments: the pin row's, so the claim reads the pinned tree.
    args: &'static [&'static str],
    /// Slash-separated gauge path in the experiment's tree.
    path: &'static str,
    min: f64,
    max: f64,
    /// Where the bound comes from.
    source: &'static str,
}

/// The paper's claims, each on the tree of one [`PINS`] row. Bounds
/// come from the paper's text and EXPERIMENTS.md's paper-vs-measured
/// tables.
const CLAIMS: &[Claim] = &[
    Claim {
        experiment: "fig12",
        args: &["--txns", "200", "--tuples", "2048"],
        path: "summary/ratios/anal_energy_row_over_gs_pref",
        min: 2.0,
        max: f64::INFINITY,
        source: "Figure 12: with prefetching, Row Store analytics spends 2.4x GS-DRAM's energy",
    },
    Claim {
        experiment: "fig12",
        args: &["--txns", "200", "--tuples", "2048"],
        path: "summary/ratios/txn_energy_gs_over_row",
        min: 0.95,
        max: 1.05,
        source: "Figure 12: GS-DRAM's transaction energy matches the Row Store's",
    },
];

/// Every pin's stats tree, run once per test binary and shared by the
/// pin and claim tests, in [`PINS`] order.
fn pinned_trees() -> &'static [StatsNode] {
    static TREES: OnceLock<Vec<StatsNode>> = OnceLock::new();
    TREES.get_or_init(|| {
        PINS.iter()
            .map(|&(name, argv, _)| {
                let def = find(name).unwrap_or_else(|| panic!("{name}: not registered"));
                let args = Args::new(argv.iter().copied());
                check_flags(def, &args).unwrap_or_else(|e| panic!("{name}: {e}"));
                run_experiment(def, &args)
            })
            .collect()
    })
}

#[test]
fn registry_json_matches_committed_baselines() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/baselines");
    let mut drifted = Vec::new();
    for name in names() {
        assert!(
            PINS.iter().any(|&(pinned, _, _)| pinned == name),
            "{name} has no pin"
        );
    }
    for (&(name, _, file), node) in PINS.iter().zip(pinned_trees()) {
        let want = std::fs::read_to_string(dir.join(file))
            .unwrap_or_else(|e| panic!("read baseline {file}: {e}"));
        if node.to_json_pretty() != want {
            drifted.push(file);
        }
        if name == "scale_channels" {
            assert_scale_channels_shape(node);
        }
    }
    assert!(
        drifted.is_empty(),
        "JSON drifted from crates/bench/tests/baselines/: {drifted:?}"
    );
}

#[test]
fn paper_claims_hold_on_the_pinned_trees() {
    let mut broken = Vec::new();
    for c in CLAIMS {
        let pin = PINS
            .iter()
            .position(|&(name, argv, _)| name == c.experiment && argv == c.args)
            .unwrap_or_else(|| panic!("{} {:?}: no pin runs these args", c.experiment, c.args));
        let got = pinned_trees()[pin]
            .gauge_at(c.path)
            .unwrap_or_else(|| panic!("{}: no gauge at {}", c.experiment, c.path));
        if !(c.min..=c.max).contains(&got) {
            broken.push(format!(
                "{} {} = {got} outside [{}, {}] ({})",
                c.experiment, c.path, c.min, c.max, c.source
            ));
        }
    }
    assert!(broken.is_empty(), "claims broken:\n{}", broken.join("\n"));
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
