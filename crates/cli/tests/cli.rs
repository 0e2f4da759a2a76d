//! End-to-end tests of the `gsdram-sim` binary at small sizes: a
//! single-workload subcommand must report exactly what the registry
//! run of the same workload reports, and bad flag values must fail.

use std::path::PathBuf;
use std::process::{Command, Output};

use gsdram_bench::args::Args;
use gsdram_bench::experiments::{find, run_experiment};
use gsdram_core::stats::StatsNode;

fn gsdram_sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gsdram-sim"))
        .args(args)
        .output()
        .expect("spawn gsdram-sim")
}

/// Runs `gsdram-sim <args> --json <tmp>` and returns the report's
/// `cpu_cycles`.
fn cli_cycles(test: &str, args: &[&str]) -> u64 {
    let path: PathBuf = [env!("CARGO_TARGET_TMPDIR"), &format!("cli-{test}.json")]
        .iter()
        .collect();
    let path = path.to_str().expect("utf-8 path");
    let out = gsdram_sim(&[args, &["--json", path]].concat());
    assert!(out.status.success(), "{args:?}: {out:?}");
    let text = std::fs::read_to_string(path).expect("read --json output");
    let node = StatsNode::from_json(&text).expect("parse --json output");
    node.counter_at("cpu_cycles").expect("cpu_cycles")
}

/// `cpu_cycles` of the registry run `id` of `experiment` under `args`.
fn registry_cycles(experiment: &str, args: &[&str], id: &str) -> u64 {
    let def = find(experiment).expect("registered");
    let node = run_experiment(def, &Args::new(args.iter().copied()));
    let runs = node.descend("runs").expect("runs subtree");
    let run = runs
        .children()
        .iter()
        .find(|r| r.name() == id)
        .unwrap_or_else(|| panic!("no run {id}"));
    run.counter_at("report/cpu_cycles").expect("cpu_cycles")
}

/// The Impulse baseline runs on an unshuffled module, on the CLI as in
/// the registry.
#[test]
fn impulse_analytics_matches_the_registry() {
    let cli = cli_cycles(
        "impulse",
        &[
            "analytics",
            "--layout",
            "gs",
            "--impulse",
            "--prefetch",
            "--tuples",
            "4096",
        ],
    );
    let registry = registry_cycles(
        "ablation_impulse",
        &["--tuples", "4096"],
        "ablation_impulse/impulse",
    );
    assert_eq!(cli, registry);
}

/// kvstore inserts run on a fresh machine, not the one the lookups
/// warmed; `--json` holds the second (insert) phase.
#[test]
fn kvstore_inserts_match_the_registry() {
    let cli = cli_cycles(
        "kv-inserts",
        &["kvstore", "--tuples", "4096", "--prefetch", "--seed", "7"],
    );
    let registry = registry_cycles(
        "extras_kvstore_graph",
        &["--pairs", "4096", "--nodes", "1024"],
        "extras/kv-inserts/gs",
    );
    assert_eq!(cli, registry);
}

#[test]
fn unknown_flag_values_fail_with_a_suggestion() {
    for (args, hint) in [
        (
            &["analytics", "--layout", "colum"][..],
            "did you mean 'column'",
        ),
        (&["gemm", "--variant", "simdd"][..], "did you mean 'simd'"),
        (
            &["transactions", "--mix", "1-0-x"][..],
            "did you mean '1-0-1'",
        ),
        (
            &["transactions", "--mix", "18446744073709551615-1-0"][..],
            "unknown --mix",
        ),
        (&["analytcs"][..], "did you mean 'analytics'"),
        (
            &["sweep", "fig9", "--txn", "200"][..],
            "did you mean '--txns'",
        ),
    ] {
        let out = gsdram_sim(args);
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(hint), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran before failing");
    }
}

/// A sweep flag the experiment does not read is an error, and no JSON
/// gets written.
#[test]
fn sweep_rejects_flags_the_experiment_does_not_read() {
    let path: PathBuf = [env!("CARGO_TARGET_TMPDIR"), "cli-sweep-bogus.json"]
        .iter()
        .collect();
    let _ = std::fs::remove_file(&path);
    let json = path.to_str().expect("utf-8 path");
    let out = gsdram_sim(&["sweep", "fig9", "--bogus", "3", "--json", json]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag '--bogus'"), "{stderr}");
    assert!(!path.exists(), "a rejected sweep wrote {json}");
}

/// `sweep --hist` renders each run's report histograms without a trace:
/// a multi-channel sweep prints per-channel tables and leaves no file
/// behind in its working directory.
#[test]
fn sweep_hist_prints_channel_tables_without_tracing() {
    let dir: PathBuf = [env!("CARGO_TARGET_TMPDIR"), "cli-sweep-hist"]
        .iter()
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create working dir");
    let out = Command::new(env!("CARGO_BIN_EXE_gsdram-sim"))
        .args([
            "sweep",
            "scale_channels",
            "--tuples",
            "2048",
            "--serial",
            "--quiet",
            "--hist",
        ])
        .current_dir(&dir)
        .output()
        .expect("spawn gsdram-sim");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.lines().any(|l| l.contains(" ch1 read latency")),
        "{stdout}"
    );
    assert!(!stdout.contains("wrote "), "{stdout}");
    let left: Vec<_> = std::fs::read_dir(&dir).expect("read working dir").collect();
    assert!(left.is_empty(), "sweep --hist wrote {left:?}");
}
