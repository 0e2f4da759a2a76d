//! The experiment registry: every figure, ablation and extension of
//! DESIGN.md §5–§6 as an [`ExperimentDef`] — a `specs` function
//! mapping command-line knobs to the [`RunSpec`]s the experiment
//! needs, and a `render` function folding the outcomes into a summary
//! [`StatsNode`].
//!
//! Purely analytic experiments (fig7, the shuffle/pattern ablations,
//! the ECC extension) return no specs and compute their whole result
//! in `render`. Everything else goes through the sweep runner, so
//! `gsdram-sim sweep <name>` parallelises any experiment for free.

use gsdram_cache::cache::{CacheConfig, LineKey, SetAssocCache};
use gsdram_cache::overlap::OverlapCalc;
use gsdram_cache::sectored::SectoredCache;
use gsdram_core::analysis::{
    chip_conflicts, pattern_table, reads_for_stride, stride_label, MappingScheme,
};
use gsdram_core::ctl::{ctl_bank, CommandKind};
use gsdram_core::ecc::{Decode, EccModule};
use gsdram_core::mat::{EccGather, IntraChipCtl};
use gsdram_core::shuffle::ShuffleFn;
use gsdram_core::stats::StatsNode;
use gsdram_core::{
    gathered_elements, ColumnId, Geometry, GsDramConfig, GsModule, PatternId, RowId,
};
use gsdram_dram::controller::{RowPolicy, SchedPolicy};
use gsdram_dram::mapping::MapHash;
use gsdram_patterns::{gather_q, AccessOp, Generator, PatternLayout, PatternSpec};
use gsdram_telemetry::{chrome_trace, Telemetry, DEFAULT_CAPACITY};
use gsdram_workloads::common::SplitMix;
use gsdram_workloads::gemm::GemmVariant;
use gsdram_workloads::graph::GraphLayout;
use gsdram_workloads::imdb::{Layout, TxnSpec};
use gsdram_workloads::kvstore::KvLayout;
use gsdram_workloads::transpose::TransposeLayout;

use crate::args::Args;
use crate::listing;
use crate::spec::{MachineSpec, RunOutcome, RunSpec, WorkloadSpec};
use crate::sweep::{self, SweepMode};

/// One registered experiment.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentDef {
    /// Registry key (`fig9`, `ablation_shuffle`, …).
    pub name: &'static str,
    /// Human-readable title.
    pub title: &'static str,
    /// The run specs this experiment needs (may be empty for purely
    /// analytic experiments).
    pub specs: fn(&Args) -> Vec<RunSpec>,
    /// Folds the executed outcomes into the summary subtree.
    pub render: fn(&Args, &[RunOutcome]) -> StatsNode,
}

/// Every experiment, in DESIGN.md §5–§6 order.
pub const REGISTRY: &[ExperimentDef] = &[
    ExperimentDef {
        name: "fig7",
        title: "Figure 7: gathered cache lines of GS-DRAM(4,2,2) + Figure 6 mapping",
        specs: no_specs,
        render: fig7_render,
    },
    ExperimentDef {
        name: "fig9",
        title: "Figure 9: transaction execution time across read/write mixes",
        specs: fig9_specs,
        render: fig9_render,
    },
    ExperimentDef {
        name: "fig10",
        title: "Figure 10: analytics execution time (1-2 columns, +/- prefetch)",
        specs: fig10_specs,
        render: fig10_render,
    },
    ExperimentDef {
        name: "fig11",
        title: "Figure 11: HTAP analytics time and transaction throughput",
        specs: fig11_specs,
        render: fig11_render,
    },
    ExperimentDef {
        name: "fig12",
        title: "Figure 12: average performance and energy summary",
        specs: fig12_specs,
        render: fig12_render,
    },
    ExperimentDef {
        name: "fig13",
        title: "Figure 13: GEMM vs best tiled baseline, normalised to naive",
        specs: fig13_specs,
        render: fig13_render,
    },
    ExperimentDef {
        name: "ablation_shuffle",
        title: "Ablation: READ commands per gathered line with/without the shuffle",
        specs: no_specs,
        render: ablation_shuffle_render,
    },
    ExperimentDef {
        name: "ablation_patterns",
        title: "Ablation: pattern-ID width, wide patterns, intra-chip translation",
        specs: no_specs,
        render: ablation_patterns_render,
    },
    ExperimentDef {
        name: "ablation_sectored",
        title: "Ablation: pattern-tagged cache vs sectored cache (S4.1)",
        specs: no_specs,
        render: ablation_sectored_render,
    },
    ExperimentDef {
        name: "ablation_sched",
        title: "Ablation: scheduling engines (fr-fcfs, fcfs, fr-fcfs-cap, bank-rr) under HTAP",
        specs: ablation_sched_specs,
        render: ablation_sched_render,
    },
    ExperimentDef {
        name: "ablation_mapping",
        title: "Ablation: direct vs XOR-hashed bank mapping",
        specs: ablation_mapping_specs,
        render: ablation_mapping_render,
    },
    ExperimentDef {
        name: "ablation_row_policy",
        title: "Ablation: open-row vs closed-row buffer management",
        specs: ablation_row_policy_specs,
        render: ablation_row_policy_render,
    },
    ExperimentDef {
        name: "ablation_impulse",
        title: "Ablation: GS-DRAM vs Impulse controller-side gather",
        specs: ablation_impulse_specs,
        render: ablation_impulse_render,
    },
    ExperimentDef {
        name: "extension_ecc",
        title: "Extension: SEC-DED coverage under every gather pattern (S6.3)",
        specs: no_specs,
        render: extension_ecc_render,
    },
    ExperimentDef {
        name: "extension_filter",
        title: "Extension: selective projection vs selectivity",
        specs: extension_filter_specs,
        render: extension_filter_render,
    },
    ExperimentDef {
        name: "extension_transpose",
        title: "Extension: out-of-place matrix transpose",
        specs: extension_transpose_specs,
        render: extension_transpose_render,
    },
    ExperimentDef {
        name: "extras_kvstore_graph",
        title: "Extras (S5.3): key-value store and graph processing",
        specs: extras_specs,
        render: extras_render,
    },
    ExperimentDef {
        name: "pattern_stride_sweep",
        title: "Patterns: uniform-stride gather sweep, row vs GS-DRAM",
        specs: pattern_stride_sweep_specs,
        render: pattern_stride_sweep_render,
    },
    ExperimentDef {
        name: "pattern_indirect",
        title: "Patterns: windowed-random + indirect streams, incl. duplicate scatter",
        specs: pattern_indirect_specs,
        render: pattern_indirect_render,
    },
    ExperimentDef {
        name: "scale_channels",
        title: "Scaling: fig10 analytics across 1/2/4 DRAM channels, row vs GS layout",
        specs: scale_channels_specs,
        render: scale_channels_render,
    },
];

/// Looks up an experiment by registry key.
pub fn find(name: &str) -> Option<&'static ExperimentDef> {
    REGISTRY.iter().find(|d| d.name == name)
}

/// All registry keys.
pub fn names() -> Vec<&'static str> {
    REGISTRY.iter().map(|d| d.name).collect()
}

/// Every registry entry as a [`listing::Entry`] (name + title), in
/// registration order — the rows behind [`resolve`]'s error and the
/// binaries' `--list` output.
pub fn listing_entries() -> Vec<listing::Entry> {
    REGISTRY
        .iter()
        .map(|d| listing::Entry::new(d.name, d.title))
        .collect()
}

/// Looks up an experiment by registry key, or returns an error listing
/// the whole registry (name + title per line, plus a "did you mean"
/// when a registered name is close) — the one unknown-name message
/// `sweep` and `trace` share.
pub fn resolve(name: &str) -> Result<&'static ExperimentDef, String> {
    find(name).ok_or_else(|| {
        listing::unknown(
            "experiment",
            name,
            "registered experiments",
            &listing_entries(),
        )
    })
}

/// Executes an experiment: builds its specs, runs them (mode from
/// `--serial` / `--threads`), and assembles the full stats tree —
/// `runs` holds one subtree per outcome, `summary` the rendered
/// figure-level numbers.
pub fn run_experiment(def: &ExperimentDef, args: &Args) -> StatsNode {
    let specs = (def.specs)(args);
    let outcomes = sweep::run(&specs, SweepMode::from_args(args));
    assemble(def, args, &outcomes)
}

/// [`run_experiment`] with a telemetry collector attached to every run:
/// returns the same stats tree (observation never perturbs simulation,
/// so it is bit-identical to the untraced one) plus each run's
/// [`Telemetry`], keyed by spec id in input order. `capacity` bounds
/// each collector's event/occupancy ring buffers.
pub fn run_experiment_traced(
    def: &ExperimentDef,
    args: &Args,
    capacity: usize,
) -> (StatsNode, Vec<(String, Telemetry)>) {
    let specs = (def.specs)(args);
    let pairs = sweep::run_traced(&specs, SweepMode::from_args(args), capacity);
    let (outcomes, telemetry): (Vec<RunOutcome>, Vec<Telemetry>) = pairs.into_iter().unzip();
    let node = assemble(def, args, &outcomes);
    let traces = outcomes
        .iter()
        .map(|o| o.spec.id.clone())
        .zip(telemetry)
        .collect();
    (node, traces)
}

/// Folds executed outcomes into the experiment's full stats tree —
/// the one place the tree shape is defined, shared by the traced and
/// untraced paths so they cannot drift apart.
fn assemble(def: &ExperimentDef, args: &Args, outcomes: &[RunOutcome]) -> StatsNode {
    let runs = StatsNode::new("runs").children_from(outcomes.iter().map(RunOutcome::stats));
    StatsNode::new(def.name)
        .text("title", def.title)
        .counter("total_runs", outcomes.len() as u64)
        .child(runs)
        .child((def.render)(args, outcomes))
}

/// Renders each run's per-channel read-latency histogram as an ASCII
/// table (count/mean/quantiles plus a bar per occupied bucket) — the
/// `--hist` output of the sweep runner.
pub fn hist_summary(traces: &[(String, Telemetry)]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for (id, t) in traces {
        for ch in 0..t.channels() {
            let Some(h) = t.read_latency(ch) else {
                continue;
            };
            if h.is_empty() {
                continue;
            }
            let _ = writeln!(
                out,
                "{id} ch{ch} read latency (mem cycles): \
                 n={} mean={:.1} p50={} p95={} p99={} max={}",
                h.count(),
                h.mean(),
                h.quantile(0.50),
                h.quantile(0.95),
                h.quantile(0.99),
                h.max(),
            );
            let peak = h.nonempty().map(|(_, _, c)| c).max().unwrap_or(1);
            for (lo, hi, count) in h.nonempty() {
                let bar = "#".repeat(((count * 40).div_ceil(peak)) as usize);
                let _ = writeln!(out, "  {lo:>8}..{hi:<8} {count:>8} {bar}");
            }
        }
    }
    out
}

/// Writes `contents` to `path`, creating parent directories, and
/// prints `wrote <path>` — the one output writer behind every
/// `gsdram-sim` file flag (`--json`, `--trace-out`, `trace --out`).
pub fn write_output(path: &str, contents: &str) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        }
    }
    std::fs::write(path, contents).map_err(|e| format!("write {path}: {e}"))?;
    println!("wrote {path}");
    Ok(())
}

/// Runs the named experiment with standard output handling: prints the
/// stats tree (unless `--quiet`), `--hist` adds per-run read-latency
/// histograms, `--trace-out <path>` writes a Chrome trace-event JSON
/// of every run (`--trace-cap N` bounds each event ring), and `--json
/// <path>` writes the pretty stats JSON — all creating parent
/// directories. The stats tree (and therefore the `--json` figure
/// file) is byte-identical whether or not tracing was requested.
pub fn run_named(name: &str, args: &Args) -> Result<StatsNode, String> {
    let def = resolve(name)?;
    let trace_out = args.value("--trace-out");
    let want_hist = args.flag("--hist");
    let node = if trace_out.is_some() || want_hist {
        let capacity = args.usize("--trace-cap", DEFAULT_CAPACITY);
        let (node, traces) = run_experiment_traced(def, args, capacity);
        if !args.flag("--quiet") {
            print!("{}", node.render());
        }
        if want_hist {
            print!("{}", hist_summary(&traces));
        }
        if let Some(path) = trace_out {
            let named: Vec<(String, &Telemetry)> =
                traces.iter().map(|(id, t)| (id.clone(), t)).collect();
            write_output(&path, &chrome_trace(&named))?;
        }
        node
    } else {
        let node = run_experiment(def, args);
        if !args.flag("--quiet") {
            print!("{}", node.render());
        }
        node
    };
    if let Some(path) = args.value("--json") {
        write_output(&path, &node.to_json_pretty())?;
    }
    Ok(node)
}

// ---------------------------------------------------------------- helpers

fn no_specs(_args: &Args) -> Vec<RunSpec> {
    Vec::new()
}

fn slug(layout: Layout) -> &'static str {
    match layout {
        Layout::RowStore => "row",
        Layout::ColumnStore => "column",
        Layout::GsDram => "gs",
    }
}

fn table_mem(tuples: u64) -> usize {
    (tuples as usize * 64) * 2
}

fn get<'a>(outs: &'a [RunOutcome], id: &str) -> &'a RunOutcome {
    outs.iter()
        .find(|o| o.spec.id == id)
        .unwrap_or_else(|| panic!("missing outcome '{id}'"))
}

fn mc(cycles: f64) -> f64 {
    cycles / 1e6
}

// ---------------------------------------------------------------- fig7

fn fig7_render(_args: &Args, _outs: &[RunOutcome]) -> StatsNode {
    let cfg = GsDramConfig::gs_dram_4_2_2();
    let mut groups: Vec<(u8, StatsNode)> = Vec::new();
    for e in &pattern_table(&cfg, 4) {
        if groups.last().is_none_or(|(p, _)| *p != e.pattern.0) {
            groups.push((
                e.pattern.0,
                StatsNode::new(format!("pattern{}", e.pattern.0))
                    .text("stride", stride_label(&cfg, e.pattern)),
            ));
        }
        // gsdram-lint: allow(D4) popped immediately after the push above
        let (p, node) = groups.pop().expect("just pushed");
        let cells: Vec<String> = e.elements.iter().map(|x| x.to_string()).collect();
        groups.push((p, node.text(format!("col{}", e.col.0), cells.join(" "))));
    }
    let figure7 = StatsNode::new("figure7").children_from(groups.into_iter().map(|(_, n)| n));

    // Figure 6: the shuffled mapping of four 4-field tuples
    // (value ij = tuple i, field j).
    // gsdram-lint: allow(D4) fixed demo geometry known valid
    let geom = Geometry::new(&cfg, 1, 16).expect("valid geometry");
    let mut m = GsModule::new(cfg.clone(), geom);
    for t in 0..4u64 {
        let tuple: Vec<u64> = (0..4).map(|f| t * 10 + f).collect();
        m.write_line(RowId(0), ColumnId(t as u32), PatternId(0), true, &tuple)
            // gsdram-lint: allow(D4) fixed demo row/column bounds
            .expect("in range");
    }
    let mut figure6 = StatsNode::new("figure6").text("chips", "chip0 chip1 chip2 chip3");
    for col in 0..4u32 {
        let row: Vec<String> = (0..4)
            .map(|chip| m.chip_words(chip)[col as usize].to_string())
            .collect();
        figure6 = figure6.text(format!("col{col}"), row.join(" "));
    }

    let tuple2 = m
        .read_line(RowId(0), ColumnId(2), PatternId(0), true)
        // gsdram-lint: allow(D4) fixed demo row/column bounds
        .expect("in range");
    let field0 = m
        .read_line(RowId(0), ColumnId(0), PatternId(3), true)
        // gsdram-lint: allow(D4) fixed demo row/column bounds
        .expect("in range");
    let field1 = m
        .read_line(RowId(0), ColumnId(1), PatternId(3), true)
        // gsdram-lint: allow(D4) fixed demo row/column bounds
        .expect("in range");
    let walkthrough = StatsNode::new("walkthrough_s3_4")
        .text(
            "read_col2_pattern0",
            format!("{tuple2:?} (the third tuple)"),
        )
        .text(
            "read_col0_pattern3",
            format!("{field0:?} (field 0 of tuples 0..4)"),
        )
        .text(
            "read_col1_pattern3",
            format!("{field1:?} (field 1 of tuples 0..4)"),
        );

    StatsNode::new("summary")
        .child(figure7)
        .child(figure6)
        .child(walkthrough)
}

// ---------------------------------------------------------------- fig9

fn fig9_specs(args: &Args) -> Vec<RunSpec> {
    let txns = args.u64("--txns", 10_000);
    let tuples = args.u64("--tuples", 1 << 20);
    let mut v = Vec::new();
    for spec in TxnSpec::FIGURE9 {
        for layout in Layout::ALL {
            v.push(RunSpec {
                id: format!("fig9/{}/{}", spec.label(), slug(layout)),
                machine: MachineSpec::table1(1, table_mem(tuples)),
                workload: WorkloadSpec::Transactions {
                    layout,
                    spec,
                    tuples,
                    txns,
                    seed: 42,
                },
            });
        }
    }
    v
}

fn fig9_render(_args: &Args, outs: &[RunOutcome]) -> StatsNode {
    let mut mixes = Vec::new();
    let (mut col_gs, mut gs_row) = (0.0f64, 0.0f64);
    for spec in TxnSpec::FIGURE9 {
        let c: Vec<f64> = Layout::ALL
            .iter()
            .map(|&l| get(outs, &format!("fig9/{}/{}", spec.label(), slug(l))).scaled_cycles())
            .collect();
        col_gs += c[1] / c[2];
        gs_row += c[2] / c[0];
        mixes.push(
            StatsNode::new(format!("mix_{}", spec.label()))
                .gauge("row_mcycles", mc(c[0]))
                .gauge("column_mcycles", mc(c[1]))
                .gauge("gs_mcycles", mc(c[2]))
                .gauge("col_over_gs", c[1] / c[2])
                .gauge("gs_over_row", c[2] / c[0]),
        );
    }
    let n = TxnSpec::FIGURE9.len() as f64;
    StatsNode::new("summary")
        .text("paper", "avg Column/GS ~3x; avg GS/Row ~1x")
        .gauge("avg_col_over_gs", col_gs / n)
        .gauge("avg_gs_over_row", gs_row / n)
        .children_from(mixes)
}

// ---------------------------------------------------------------- fig10

fn fig10_specs(args: &Args) -> Vec<RunSpec> {
    let tuples = args.u64("--tuples", 1 << 20);
    let mut v = Vec::new();
    for prefetch in [false, true] {
        for k in [1usize, 2] {
            for layout in Layout::ALL {
                let machine = MachineSpec::table1(1, table_mem(tuples));
                v.push(RunSpec {
                    id: format!(
                        "fig10/{}/k{k}/{}",
                        if prefetch { "pref" } else { "nopref" },
                        slug(layout)
                    ),
                    machine: if prefetch {
                        machine.with_prefetch()
                    } else {
                        machine
                    },
                    workload: WorkloadSpec::Analytics {
                        layout,
                        tuples,
                        columns: (0..k).collect(),
                    },
                });
            }
        }
    }
    v
}

fn fig10_render(_args: &Args, outs: &[RunOutcome]) -> StatsNode {
    let mut configs = Vec::new();
    for prefetch in ["nopref", "pref"] {
        for k in [1usize, 2] {
            let c: Vec<f64> = Layout::ALL
                .iter()
                .map(|&l| get(outs, &format!("fig10/{prefetch}/k{k}/{}", slug(l))).scaled_cycles())
                .collect();
            configs.push(
                StatsNode::new(format!("{prefetch}_k{k}"))
                    .gauge("row_mcycles", mc(c[0]))
                    .gauge("column_mcycles", mc(c[1]))
                    .gauge("gs_mcycles", mc(c[2]))
                    .gauge("row_over_gs", c[0] / c[2]),
            );
        }
    }
    StatsNode::new("summary")
        .text(
            "paper",
            "GS ~= Column Store; ~2x over Row Store; prefetch helps all",
        )
        .children_from(configs)
}

// ---------------------------------------------------------------- fig11

fn fig11_specs(args: &Args) -> Vec<RunSpec> {
    let tuples = args.u64("--tuples", 1 << 20);
    let spec = TxnSpec {
        read_only: 1,
        write_only: 1,
        read_write: 0,
    };
    let mut v = Vec::new();
    for prefetch in [false, true] {
        for layout in Layout::ALL {
            let machine = MachineSpec::table1(2, table_mem(tuples));
            v.push(RunSpec {
                id: format!(
                    "fig11/{}/{}",
                    if prefetch { "pref" } else { "nopref" },
                    slug(layout)
                ),
                machine: if prefetch {
                    machine.with_prefetch()
                } else {
                    machine
                },
                workload: WorkloadSpec::Htap {
                    layout,
                    tuples,
                    spec,
                    seed: 99,
                },
            });
        }
    }
    v
}

fn fig11_render(_args: &Args, outs: &[RunOutcome]) -> StatsNode {
    let mut configs = Vec::new();
    for prefetch in ["nopref", "pref"] {
        for layout in Layout::ALL {
            let o = get(outs, &format!("fig11/{prefetch}/{}", slug(layout)));
            configs.push(
                StatsNode::new(format!("{prefetch}_{}", slug(layout)))
                    .gauge("analytics_mcycles", mc(o.scaled_cycles()))
                    .gauge(
                        "txn_throughput_mps",
                        // gsdram-lint: allow(D4) htap experiment always records this extra
                        o.extra("txn_throughput_mps").expect("htap outcome"),
                    ),
            );
        }
    }
    StatsNode::new("summary")
        .text(
            "paper",
            "analytics: GS ~= Column << Row; throughput: GS > Row > Column",
        )
        .children_from(configs)
}

// ---------------------------------------------------------------- fig12

fn fig12_specs(args: &Args) -> Vec<RunSpec> {
    let txns = args.u64("--txns", 10_000);
    let tuples = args.u64("--tuples", 1 << 20);
    let mut v = Vec::new();
    for spec in TxnSpec::FIGURE9 {
        for layout in Layout::ALL {
            v.push(RunSpec {
                id: format!("fig12/txn/{}/{}", spec.label(), slug(layout)),
                machine: MachineSpec::table1(1, table_mem(tuples)),
                workload: WorkloadSpec::Transactions {
                    layout,
                    spec,
                    tuples,
                    txns,
                    seed: 42,
                },
            });
        }
    }
    for prefetch in [true, false] {
        for k in [1usize, 2] {
            for layout in Layout::ALL {
                let machine = MachineSpec::table1(1, table_mem(tuples));
                v.push(RunSpec {
                    id: format!(
                        "fig12/anal-{}/k{k}/{}",
                        if prefetch { "pref" } else { "nopref" },
                        slug(layout)
                    ),
                    machine: if prefetch {
                        machine.with_prefetch()
                    } else {
                        machine
                    },
                    workload: WorkloadSpec::Analytics {
                        layout,
                        tuples,
                        columns: (0..k).collect(),
                    },
                });
            }
        }
    }
    v
}

fn fig12_render(_args: &Args, outs: &[RunOutcome]) -> StatsNode {
    let n_mixes = TxnSpec::FIGURE9.len() as f64;
    let mut txn_cycles = [0.0f64; 3];
    let mut txn_energy = [0.0f64; 3];
    for spec in TxnSpec::FIGURE9 {
        for (li, &layout) in Layout::ALL.iter().enumerate() {
            let o = get(
                outs,
                &format!("fig12/txn/{}/{}", spec.label(), slug(layout)),
            );
            txn_cycles[li] += o.scaled_cycles() / n_mixes;
            txn_energy[li] += o.report.energy.total_mj() / n_mixes;
        }
    }
    let mut anal_cycles = [0.0f64; 3];
    let mut anal_energy = [0.0f64; 3];
    let mut anal_energy_nopref = [0.0f64; 3];
    for k in [1usize, 2] {
        for (li, &layout) in Layout::ALL.iter().enumerate() {
            let o = get(outs, &format!("fig12/anal-pref/k{k}/{}", slug(layout)));
            anal_cycles[li] += o.scaled_cycles() / 2.0;
            anal_energy[li] += o.report.energy.total_mj() / 2.0;
            let o = get(outs, &format!("fig12/anal-nopref/k{k}/{}", slug(layout)));
            anal_energy_nopref[li] += o.report.energy.total_mj() / 2.0;
        }
    }
    StatsNode::new("summary")
        .text(
            "paper",
            "txn energy Col/GS 2.1x, GS/Row ~1x; anal energy Row/GS 2.4x pref, 4x no pref",
        )
        .child(
            StatsNode::new("time_mcycles")
                .gauge("txn_row", mc(txn_cycles[0]))
                .gauge("txn_column", mc(txn_cycles[1]))
                .gauge("txn_gs", mc(txn_cycles[2]))
                .gauge("anal_pref_row", mc(anal_cycles[0]))
                .gauge("anal_pref_column", mc(anal_cycles[1]))
                .gauge("anal_pref_gs", mc(anal_cycles[2])),
        )
        .child(
            StatsNode::new("energy_mj")
                .gauge("txn_row", txn_energy[0])
                .gauge("txn_column", txn_energy[1])
                .gauge("txn_gs", txn_energy[2])
                .gauge("anal_pref_row", anal_energy[0])
                .gauge("anal_pref_column", anal_energy[1])
                .gauge("anal_pref_gs", anal_energy[2])
                .gauge("anal_nopref_row", anal_energy_nopref[0])
                .gauge("anal_nopref_column", anal_energy_nopref[1])
                .gauge("anal_nopref_gs", anal_energy_nopref[2]),
        )
        .child(
            StatsNode::new("ratios")
                .gauge("txn_energy_col_over_gs", txn_energy[1] / txn_energy[2])
                .gauge("txn_energy_gs_over_row", txn_energy[2] / txn_energy[0])
                .gauge(
                    "anal_energy_row_over_gs_pref",
                    anal_energy[0] / anal_energy[2],
                )
                .gauge(
                    "anal_energy_row_over_gs_nopref",
                    anal_energy_nopref[0] / anal_energy_nopref[2],
                ),
        )
}

// ---------------------------------------------------------------- fig13

const FIG13_SIZES: &[usize] = &[32, 64, 128, 256, 512, 1024];
const FIG13_TILES: &[usize] = &[16, 32, 64];

fn fig13_sample(n: usize, variant: GemmVariant, full: bool) -> Option<usize> {
    // The paper enables the prefetcher only for analytics; GEMM runs
    // without it. For n >= 256 the outermost loop is sampled and
    // scaled — per-stripe behaviour is uniform (pass --full to
    // simulate everything).
    if full || n < 256 {
        None
    } else {
        match variant {
            GemmVariant::Naive => Some(8),
            _ => Some(2),
        }
    }
}

fn fig13_mem(n: usize) -> usize {
    (3 * n * n * 8 + (8 << 20)).max(16 << 20)
}

fn fig13_specs(args: &Args) -> Vec<RunSpec> {
    let sizes = args.usize_list("--sizes", FIG13_SIZES);
    let full = args.flag("--full");
    let mut v = Vec::new();
    for n in sizes {
        let machine = MachineSpec::table1(1, fig13_mem(n));
        let variant = GemmVariant::Naive;
        v.push(RunSpec {
            id: format!("fig13/n{n}/naive"),
            machine: machine.clone(),
            workload: WorkloadSpec::Gemm {
                n,
                variant,
                sample: fig13_sample(n, variant, full),
            },
        });
        for &t in FIG13_TILES.iter().filter(|&&t| t <= n) {
            let variant = GemmVariant::TiledSimd { tile: t };
            v.push(RunSpec {
                id: format!("fig13/n{n}/tiled{t}"),
                machine: machine.clone(),
                workload: WorkloadSpec::Gemm {
                    n,
                    variant,
                    sample: fig13_sample(n, variant, full),
                },
            });
            let variant = GemmVariant::GsDram { tile: t };
            v.push(RunSpec {
                id: format!("fig13/n{n}/gs{t}"),
                machine: machine.clone(),
                workload: WorkloadSpec::Gemm {
                    n,
                    variant,
                    sample: fig13_sample(n, variant, full),
                },
            });
        }
    }
    v
}

fn fig13_render(args: &Args, outs: &[RunOutcome]) -> StatsNode {
    let sizes = args.usize_list("--sizes", FIG13_SIZES);
    let mut rows = Vec::new();
    for n in sizes {
        let naive = get(outs, &format!("fig13/n{n}/naive")).scaled_cycles();
        let (mut best_tiled, mut best_tile) = (f64::INFINITY, 0usize);
        for &t in FIG13_TILES.iter().filter(|&&t| t <= n) {
            let c = get(outs, &format!("fig13/n{n}/tiled{t}")).scaled_cycles();
            if c < best_tiled {
                best_tiled = c;
                best_tile = t;
            }
        }
        let gs = get(outs, &format!("fig13/n{n}/gs{best_tile}")).scaled_cycles();
        rows.push(
            StatsNode::new(format!("n{n}"))
                .gauge("naive_mcycles", mc(naive))
                .gauge("best_tiled_mcycles", mc(best_tiled))
                .counter("best_tile", best_tile as u64)
                .gauge("gs_mcycles", mc(gs))
                .gauge("tiled_over_naive", best_tiled / naive)
                .gauge("gs_gain_pct", (1.0 - gs / best_tiled) * 100.0),
        );
    }
    StatsNode::new("summary")
        .text(
            "paper",
            "tiled/naive shrinks with n; GS beats best tiled by ~10-11%",
        )
        .children_from(rows)
}

// ------------------------------------------------------- ablation_shuffle

fn ablation_shuffle_render(_args: &Args, _outs: &[RunOutcome]) -> StatsNode {
    let cfg = GsDramConfig::gs_dram_8_3_3();
    let mut reads = StatsNode::new("reads_per_gathered_line");
    for stride in [1usize, 2, 4, 8] {
        reads = reads
            .counter(
                format!("stride{stride}_naive"),
                reads_for_stride(&cfg, MappingScheme::Naive, stride) as u64,
            )
            .counter(
                format!("stride{stride}_shuffled"),
                reads_for_stride(&cfg, MappingScheme::Shuffled, stride) as u64,
            );
    }
    let elements: Vec<usize> = (0..8).map(|i| i * 8).collect();
    let mut prog = StatsNode::new("programmable_stride8_conflicts");
    for (name, f) in [
        ("identity", ShuffleFn::Identity),
        ("low_bits", ShuffleFn::LowBits),
        ("masked_0b110", ShuffleFn::Masked { mask: 0b110 }),
        ("masked_0b011", ShuffleFn::Masked { mask: 0b011 }),
        ("xor_fold_2", ShuffleFn::XorFold { groups: 2 }),
    ] {
        // gsdram-lint: allow(D4) fixed shuffle-fn parameters known valid
        let cfg = GsDramConfig::with_shuffle_fn(8, 3, 3, f).expect("valid");
        prog = prog.counter(
            name,
            chip_conflicts(&cfg, MappingScheme::Shuffled, &elements) as u64,
        );
    }
    StatsNode::new("summary")
        .text(
            "paper",
            "full shuffle: zero conflicts for every power-of-2 stride",
        )
        .child(reads)
        .child(prog)
}

// ------------------------------------------------------ ablation_patterns

fn ablation_patterns_render(_args: &Args, _outs: &[RunOutcome]) -> StatsNode {
    let mut widths = StatsNode::new("pattern_id_width");
    for p_bits in [1u8, 2, 3] {
        // gsdram-lint: allow(D4) fixed config parameters known valid
        let cfg = GsDramConfig::new(8, 3, p_bits).expect("valid");
        let labels: Vec<String> = cfg
            .patterns()
            .map(|p| format!("p{}:{}", p.0, stride_label(&cfg, p)))
            .collect();
        widths = widths.text(format!("gs_dram_8_3_{p_bits}"), labels.join("  "));
    }

    // gsdram-lint: allow(D4) fixed config parameters known valid
    let cfg = GsDramConfig::new(8, 3, 6).expect("valid");
    let mut wide = StatsNode::new("wide_pattern_ids_8_3_6");
    for p in [0u8, 7, 0b111_000, 0b111_111] {
        let e = gathered_elements(&cfg, PatternId(p), ColumnId(0), true);
        wide = wide.text(format!("pattern_{p:#08b}"), format!("{e:?}"));
    }

    // gsdram-lint: allow(D4) fixed intra-chip parameters known valid
    let intra = IntraChipCtl::new(8, 3).expect("valid");
    let cols: Vec<u32> = intra
        .tile_columns(PatternId(7), ColumnId(0))
        .iter()
        .map(|c| c.0)
        .collect();
    // gsdram-lint: allow(D4) fixed ECC parameters known valid
    let ecc = EccGather::new(8, 3).expect("valid");
    let mut all_covered = true;
    for p in 0..8u8 {
        for c in 0..16u32 {
            let data: Vec<ColumnId> = ctl_bank(&GsDramConfig::gs_dram_8_3_3())
                .iter()
                .map(|ctl| ctl.translate(CommandKind::Read, PatternId(p), ColumnId(c)))
                .collect();
            all_covered &= ecc.covers(PatternId(p), ColumnId(c), &data);
        }
    }
    let intra_node = StatsNode::new("intra_chip_s6_3")
        .counter("bytes_per_tile", intra.bytes_per_tile() as u64)
        .counter("tiles", intra.tiles() as u64)
        .text("pattern7_col0_tile_columns", format!("{cols:?}"))
        .text(
            "ecc_coverage",
            if all_covered {
                "complete"
            } else {
                "INCOMPLETE"
            },
        );

    StatsNode::new("summary")
        .child(widths)
        .child(wide)
        .child(intra_node)
}

// ------------------------------------------------------ ablation_sectored

fn ablation_sectored_render(args: &Args, _outs: &[RunOutcome]) -> StatsNode {
    let gathered_lines = args.u64("--lines", 4096);
    let calc = OverlapCalc::new(GsDramConfig::gs_dram_8_3_3(), 64, 128);
    let cfg = CacheConfig::l1_32k();
    // Pattern-tagged design: each gathered line is ONE entry; the
    // sectored alternative scatters it over its home lines' sectors.
    let mut tagged = SetAssocCache::new(cfg);
    let mut sectored = SectoredCache::new(cfg);
    let mut sectored_rmw = 0u64;
    for g in 0..gathered_lines {
        let key = LineKey::new(g * 8 * 64, 64, PatternId(7));
        // Every 4th line is modified after the scan (an update query),
        // to surface the writeback difference.
        let write = g % 4 == 0;
        if !tagged.probe(key, write) {
            tagged.fill(key, vec![0; 8]);
            if write {
                tagged.probe(key, true);
            }
        }
        for (w, addr) in calc.word_addresses(key, true).into_iter().enumerate() {
            if !sectored.probe(addr, write && w == 0) {
                if let Some(ev) = sectored.fill_sector(addr, w as u64) {
                    if ev.needs_rmw(8) {
                        sectored_rmw += 1;
                    }
                }
                if write && w == 0 {
                    sectored.probe(addr, true);
                }
            }
        }
    }
    let t = tagged.stats();
    let s = sectored.stats();
    let (tags, util) = sectored.tag_utilisation();
    StatsNode::new("summary")
        .text(
            "paper",
            "S4.1: sectoring burns 8x tags at ~1/8 utilisation + RMW writebacks",
        )
        .counter("gathered_lines", gathered_lines)
        .child(
            StatsNode::new("pattern_tagged")
                .counter("lookups", t.hits + t.misses)
                .gauge("miss_rate", t.miss_rate())
                .counter("resident_tag_entries", tagged.resident_keys().len() as u64)
                .counter("tag_entries_per_gathered_line", 1)
                .counter("rmw_writebacks", 0),
        )
        .child(
            StatsNode::new("sectored")
                .counter("lookups", s.hits + s.misses)
                .gauge("miss_rate", s.miss_rate())
                .counter("resident_tag_entries", tags as u64)
                .counter("tag_entries_per_gathered_line", 8)
                .gauge("resident_tag_utilisation", util)
                .counter("rmw_writebacks", s.partial_writebacks.max(sectored_rmw)),
        )
}

// -------------------------------------------------------- ablation_sched

/// The scheduling engines the `ablation_sched` experiment compares,
/// with the spec-id slug for each.
const SCHED_VARIANTS: [(&str, SchedPolicy); 4] = [
    ("frfcfs", SchedPolicy::FrFcfs),
    ("fcfs", SchedPolicy::Fcfs),
    (
        "frfcfs-cap",
        SchedPolicy::FrFcfsCap {
            cap: SchedPolicy::DEFAULT_CAP,
        },
    ),
    (
        "bank-rr",
        SchedPolicy::BankRr {
            batch: SchedPolicy::DEFAULT_BATCH,
        },
    ),
];

fn ablation_sched_specs(args: &Args) -> Vec<RunSpec> {
    let tuples = args.u64("--tuples", 1 << 18);
    let spec = TxnSpec {
        read_only: 1,
        write_only: 1,
        read_write: 0,
    };
    let mut v = Vec::new();
    for (pname, policy) in SCHED_VARIANTS {
        for layout in [Layout::RowStore, Layout::GsDram] {
            // Prefetching keeps several analytics requests queued at
            // the controller, so the engines' fairness choices (row-hit
            // bypasses, starvation caps, bank batching) actually bind.
            let mut machine = MachineSpec::table1(2, table_mem(tuples)).with_prefetch();
            machine.sched = policy;
            v.push(RunSpec {
                id: format!("ablation_sched/{pname}/{}", slug(layout)),
                machine,
                workload: WorkloadSpec::Htap {
                    layout,
                    tuples,
                    spec,
                    seed: 99,
                },
            });
        }
    }
    v
}

fn ablation_sched_render(_args: &Args, outs: &[RunOutcome]) -> StatsNode {
    let mut configs = Vec::new();
    for (pname, _) in SCHED_VARIANTS {
        for layout in [Layout::RowStore, Layout::GsDram] {
            let o = get(outs, &format!("ablation_sched/{pname}/{}", slug(layout)));
            let d = &o.report.dram;
            configs.push(
                StatsNode::new(format!("{pname}_{}", slug(layout)))
                    .gauge("analytics_mcycles", mc(o.scaled_cycles()))
                    .gauge(
                        "txn_throughput_mps",
                        // gsdram-lint: allow(D4) htap experiment always records this extra
                        o.extra("txn_throughput_mps").expect("htap outcome"),
                    )
                    .gauge("row_hit_rate", d.row_hit_rate())
                    .counter("sched_hit_bypasses", d.sched_hit_bypasses)
                    .counter("sched_promotions", d.sched_promotions)
                    .counter("sched_batch_rotations", d.sched_batch_rotations),
            );
        }
    }
    StatsNode::new("summary")
        .text(
            "paper",
            "engine ablation of the S5.1 starvation effect: the cap bounds \
             row-hit bypasses, bank-rr trades hit rate for bank fairness",
        )
        .children_from(configs)
}

// ------------------------------------------------------ ablation_mapping

/// The XOR-stage presets the `ablation_mapping` experiment compares.
/// `MapHash::XorBank` is the pipeline form of the old row-XOR bank
/// hash — same permutation, so the frozen ablation baseline holds.
const MAPPING_VARIANTS: [(&str, MapHash); 2] =
    [("direct", MapHash::Direct), ("xor-bank", MapHash::XorBank)];

fn ablation_mapping_specs(args: &Args) -> Vec<RunSpec> {
    let tuples = args.u64("--tuples", 1 << 18);
    let mut v = Vec::new();
    for (mname, mapping) in MAPPING_VARIANTS {
        for layout in [Layout::RowStore, Layout::GsDram] {
            let mut machine = MachineSpec::table1(1, table_mem(tuples));
            machine.mapping = mapping;
            v.push(RunSpec {
                id: format!("ablation_mapping/{mname}/{}/anal", slug(layout)),
                machine: machine.clone(),
                workload: WorkloadSpec::Analytics {
                    layout,
                    tuples,
                    columns: vec![0],
                },
            });
            v.push(RunSpec {
                id: format!("ablation_mapping/{mname}/{}/txn", slug(layout)),
                machine,
                workload: WorkloadSpec::Transactions {
                    layout,
                    spec: TxnSpec {
                        read_only: 2,
                        write_only: 1,
                        read_write: 0,
                    },
                    tuples,
                    txns: 2000,
                    seed: 17,
                },
            });
        }
    }
    v
}

fn ablation_mapping_render(_args: &Args, outs: &[RunOutcome]) -> StatsNode {
    let mut configs = Vec::new();
    for (mname, _) in MAPPING_VARIANTS {
        for layout in [Layout::RowStore, Layout::GsDram] {
            let anal = get(
                outs,
                &format!("ablation_mapping/{mname}/{}/anal", slug(layout)),
            );
            let txn = get(
                outs,
                &format!("ablation_mapping/{mname}/{}/txn", slug(layout)),
            );
            configs.push(
                StatsNode::new(format!("{mname}_{}", slug(layout)))
                    .gauge("analytics_mcycles", mc(anal.scaled_cycles()))
                    .gauge("txn_mcycles", mc(txn.scaled_cycles()))
                    .gauge("analytics_row_hit_rate", anal.report.dram.row_hit_rate())
                    .gauge("txn_row_hit_rate", txn.report.dram.row_hit_rate()),
            );
        }
    }
    StatsNode::new("summary")
        .text(
            "paper",
            "XOR bank hashing spreads row-sequential traffic across banks; \
             sequential scans lose row locality, random txns change little",
        )
        .children_from(configs)
}

// ---------------------------------------------------- ablation_row_policy

fn ablation_row_policy_specs(args: &Args) -> Vec<RunSpec> {
    let tuples = args.u64("--tuples", 1 << 18);
    let mut v = Vec::new();
    for (pname, policy) in [("open", RowPolicy::Open), ("closed", RowPolicy::Closed)] {
        for layout in [Layout::RowStore, Layout::GsDram] {
            let mut machine = MachineSpec::table1(1, table_mem(tuples));
            machine.row_policy = policy;
            v.push(RunSpec {
                id: format!("ablation_row_policy/{pname}/{}/anal", slug(layout)),
                machine: machine.clone(),
                workload: WorkloadSpec::Analytics {
                    layout,
                    tuples,
                    columns: vec![0],
                },
            });
            v.push(RunSpec {
                id: format!("ablation_row_policy/{pname}/{}/txn", slug(layout)),
                machine,
                workload: WorkloadSpec::Transactions {
                    layout,
                    spec: TxnSpec {
                        read_only: 2,
                        write_only: 1,
                        read_write: 0,
                    },
                    tuples,
                    txns: 2000,
                    seed: 17,
                },
            });
        }
    }
    v
}

fn ablation_row_policy_render(_args: &Args, outs: &[RunOutcome]) -> StatsNode {
    let mut configs = Vec::new();
    for pname in ["open", "closed"] {
        for layout in [Layout::RowStore, Layout::GsDram] {
            let anal = get(
                outs,
                &format!("ablation_row_policy/{pname}/{}/anal", slug(layout)),
            );
            let txn = get(
                outs,
                &format!("ablation_row_policy/{pname}/{}/txn", slug(layout)),
            );
            configs.push(
                StatsNode::new(format!("{pname}_{}", slug(layout)))
                    .gauge("analytics_mcycles", mc(anal.scaled_cycles()))
                    .gauge("txn_mcycles", mc(txn.scaled_cycles()))
                    .gauge("analytics_row_hit_rate", anal.report.dram.row_hit_rate()),
            );
        }
    }
    StatsNode::new("summary")
        .text(
            "paper",
            "analytics regress badly under closed rows; random txns shift little",
        )
        .children_from(configs)
}

// ------------------------------------------------------- ablation_impulse

fn ablation_impulse_specs(args: &Args) -> Vec<RunSpec> {
    let tuples = args.u64("--tuples", 1 << 18);
    [
        ("row-store", false, Layout::RowStore),
        ("impulse", true, Layout::GsDram),
        ("gs-dram", false, Layout::GsDram),
    ]
    .into_iter()
    .map(|(name, impulse, layout)| {
        let machine = MachineSpec::table1(1, table_mem(tuples)).with_prefetch();
        RunSpec {
            id: format!("ablation_impulse/{name}"),
            machine: if impulse {
                machine.with_impulse()
            } else {
                machine
            },
            workload: WorkloadSpec::Analytics {
                layout,
                tuples,
                columns: vec![0],
            },
        }
    })
    .collect()
}

fn ablation_impulse_render(_args: &Args, outs: &[RunOutcome]) -> StatsNode {
    let mut configs = Vec::new();
    for name in ["row-store", "impulse", "gs-dram"] {
        let o = get(outs, &format!("ablation_impulse/{name}"));
        configs.push(
            StatsNode::new(name)
                .gauge("mcycles", mc(o.scaled_cycles()))
                .counter("dram_reads", o.report.dram.reads)
                .gauge("dram_energy_mj", o.report.dram_energy.total_mj())
                .gauge("row_hit_rate", o.report.dram.row_hit_rate()),
        );
    }
    StatsNode::new("summary")
        .text(
            "paper",
            "Impulse matches GS-DRAM on the CPU side but needs ~8x the DRAM reads (S7)",
        )
        .children_from(configs)
}

// --------------------------------------------------------- extension_ecc

fn extension_ecc_render(args: &Args, _outs: &[RunOutcome]) -> StatsNode {
    let trials = args.u64("--trials", 20_000);
    let cfg = GsDramConfig::gs_dram_8_3_3();
    // gsdram-lint: allow(D4) fixed demo geometry known valid
    let geom = Geometry::ddr3_row(&cfg, 1).expect("valid");
    let mut rng = SplitMix(2026);
    let mut patterns = Vec::new();
    for p in 0..8u8 {
        let mut corrected = 0u64;
        let mut detected = 0u64;
        let singles = trials / 2;
        let doubles = trials - singles;
        for t in 0..trials {
            // Fresh content each trial.
            let mut m = EccModule::new(cfg.clone(), geom);
            let col = ColumnId(rng.below(128) as u32);
            let line: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
            m.write_line(RowId(0), col, PatternId(p), true, &line)
                // gsdram-lint: allow(D4) column and pattern drawn within geometry bounds
                .expect("in range");
            let word = rng.below(8) as usize;
            let double = t >= singles;
            let bits = if double {
                let b1 = rng.below(64);
                let mut b2 = rng.below(64);
                if b2 == b1 {
                    b2 = (b2 + 1) % 64;
                }
                (1u64 << b1) | (1u64 << b2)
            } else {
                1u64 << rng.below(64)
            };
            m.inject_data_error(RowId(0), col, PatternId(p), true, word, bits);
            let read = m
                .read_line(RowId(0), col, PatternId(p), true)
                // gsdram-lint: allow(D4) column and pattern drawn within geometry bounds
                .expect("in range");
            match read.outcomes[word] {
                Decode::Corrected(v) if !double => {
                    assert_eq!(v, line[word], "must correct to the original");
                    corrected += 1;
                }
                Decode::DoubleError if double => detected += 1,
                _ => {}
            }
        }
        assert_eq!(corrected, singles, "pattern {p}: every single must correct");
        assert_eq!(
            detected, doubles,
            "pattern {p}: every double must be detected"
        );
        patterns.push(
            StatsNode::new(format!("pattern{p}"))
                .counter("singles", singles)
                .counter("corrected", corrected)
                .counter("doubles", doubles)
                .counter("detected", detected),
        );
    }
    StatsNode::new("summary")
        .text("paper", "S6.3: seamless SEC-DED for all access patterns")
        .counter("trials_per_pattern", trials)
        .children_from(patterns)
}

// ------------------------------------------------------- extension_filter

const FILTER_PCTS: &[u64] = &[0, 1, 5, 25, 50, 100];

fn extension_filter_specs(args: &Args) -> Vec<RunSpec> {
    let tuples = args.u64("--tuples", 1 << 18);
    let mut v = Vec::new();
    for &pct in FILTER_PCTS {
        for layout in Layout::ALL {
            v.push(RunSpec {
                id: format!("extension_filter/p{pct}/{}", slug(layout)),
                machine: MachineSpec::table1(1, table_mem(tuples)).with_prefetch(),
                workload: WorkloadSpec::Filter {
                    layout,
                    tuples,
                    threshold: 8 * (tuples * pct / 100),
                    expected_matches: Some(tuples * pct / 100),
                },
            });
        }
    }
    v
}

fn extension_filter_render(_args: &Args, outs: &[RunOutcome]) -> StatsNode {
    let mut rows = Vec::new();
    for &pct in FILTER_PCTS {
        let c: Vec<f64> = Layout::ALL
            .iter()
            .map(|&l| get(outs, &format!("extension_filter/p{pct}/{}", slug(l))).scaled_cycles())
            .collect();
        rows.push(
            StatsNode::new(format!("selectivity_{pct}pct"))
                .gauge("row_mcycles", mc(c[0]))
                .gauge("column_mcycles", mc(c[1]))
                .gauge("gs_mcycles", mc(c[2]))
                .gauge("row_over_gs", c[0] / c[2]),
        );
    }
    StatsNode::new("summary")
        .text(
            "paper",
            "pure scan ~3x over Row; advantage decays as tuple fetches dominate",
        )
        .children_from(rows)
}

// ---------------------------------------------------- extension_transpose

const TRANSPOSE_SIZES: &[usize] = &[128, 256, 512];

fn transpose_slug(layout: TransposeLayout) -> &'static str {
    match layout {
        TransposeLayout::RowMajor => "rowmajor",
        TransposeLayout::GsDram => "gs",
    }
}

fn extension_transpose_specs(args: &Args) -> Vec<RunSpec> {
    let sizes = args.usize_list("--sizes", TRANSPOSE_SIZES);
    let mut v = Vec::new();
    for n in sizes {
        for layout in [TransposeLayout::RowMajor, TransposeLayout::GsDram] {
            v.push(RunSpec {
                id: format!("extension_transpose/n{n}/{}", transpose_slug(layout)),
                machine: MachineSpec::table1(1, (2 * n * n * 8 * 2).max(16 << 20)),
                workload: WorkloadSpec::Transpose { layout, n },
            });
        }
    }
    v
}

fn extension_transpose_render(args: &Args, outs: &[RunOutcome]) -> StatsNode {
    let sizes = args.usize_list("--sizes", TRANSPOSE_SIZES);
    let mut rows = Vec::new();
    for n in sizes {
        let rm = get(outs, &format!("extension_transpose/n{n}/rowmajor"));
        let gs = get(outs, &format!("extension_transpose/n{n}/gs"));
        rows.push(
            StatsNode::new(format!("n{n}"))
                .gauge("rowmajor_mcycles", mc(rm.scaled_cycles()))
                .gauge("gs_mcycles", mc(gs.scaled_cycles()))
                .gauge("speedup", rm.scaled_cycles() / gs.scaled_cycles())
                .counter("rowmajor_dram_reads", rm.report.dram.reads)
                .counter("gs_dram_reads", gs.report.dram.reads),
        );
    }
    StatsNode::new("summary")
        .text(
            "paper",
            "parity while the source fits in L2, clear GS win beyond it",
        )
        .children_from(rows)
}

// --------------------------------------------------- extras_kvstore_graph

fn kv_slug(layout: KvLayout) -> &'static str {
    match layout {
        KvLayout::Interleaved => "interleaved",
        KvLayout::GsDram => "gs",
    }
}

fn graph_slug(layout: GraphLayout) -> &'static str {
    match layout {
        GraphLayout::NodeMajor => "nodemajor",
        GraphLayout::GsDram => "gs",
    }
}

fn extras_specs(args: &Args) -> Vec<RunSpec> {
    let pairs = args.u64("--pairs", 1 << 16);
    let nodes = args.u64("--nodes", 1 << 17);
    let kv_mem = (pairs as usize * 16) * 4;
    let graph_mem = (nodes as usize * 64) * 2;
    let mut v = Vec::new();
    for layout in [KvLayout::Interleaved, KvLayout::GsDram] {
        v.push(RunSpec {
            id: format!("extras/kv-lookups/{}", kv_slug(layout)),
            machine: MachineSpec::table1(1, kv_mem).with_prefetch(),
            workload: WorkloadSpec::KvLookups {
                layout,
                pairs,
                scan_len: pairs / 2,
                count: 64,
                seed: 7,
            },
        });
        v.push(RunSpec {
            id: format!("extras/kv-inserts/{}", kv_slug(layout)),
            machine: MachineSpec::table1(1, kv_mem).with_prefetch(),
            workload: WorkloadSpec::KvInserts {
                layout,
                pairs,
                count: 2000,
                seed: 7,
            },
        });
    }
    for layout in [GraphLayout::NodeMajor, GraphLayout::GsDram] {
        v.push(RunSpec {
            id: format!("extras/graph-scan/{}", graph_slug(layout)),
            machine: MachineSpec::table1(1, graph_mem).with_prefetch(),
            workload: WorkloadSpec::GraphScan {
                layout,
                nodes,
                field: 0,
            },
        });
        v.push(RunSpec {
            id: format!("extras/graph-updates/{}", graph_slug(layout)),
            machine: MachineSpec::table1(1, graph_mem).with_prefetch(),
            workload: WorkloadSpec::GraphUpdates {
                layout,
                nodes,
                count: 2000,
                seed: 5,
            },
        });
    }
    v
}

fn extras_render(_args: &Args, outs: &[RunOutcome]) -> StatsNode {
    let pair = |op: &str, base: &str| {
        let b = get(outs, &format!("extras/{op}/{base}")).scaled_cycles();
        let g = get(outs, &format!("extras/{op}/gs")).scaled_cycles();
        StatsNode::new(op.replace('-', "_"))
            .gauge("baseline_mcycles", mc(b))
            .gauge("gs_mcycles", mc(g))
            .gauge("speedup", b / g)
    };
    StatsNode::new("summary")
        .text(
            "paper",
            "gathers speed up scan-one-field phases; per-object phases neutral",
        )
        .child(pair("kv-lookups", "interleaved"))
        .child(pair("kv-inserts", "interleaved"))
        .child(pair("graph-scan", "nodemajor"))
        .child(pair("graph-updates", "nodemajor"))
}

// --------------------------------------------------- pattern_stride_sweep

/// Strides the sweep visits by default: the powers of two GS-DRAM
/// fully accelerates (2/4/8), even strides with only a partial
/// power-of-two factor (6/12), odd strides the shuffle cannot realign
/// at all (3/7), and strides past the chip count (16/32/64), where
/// the usable gather stride saturates at 8.
const STRIDE_SWEEP_DEFAULT: &[usize] = &[1, 2, 3, 4, 6, 7, 8, 12, 16, 32, 64];

/// The two data-array layouts every pattern experiment compares.
const PATTERN_LAYOUTS: [PatternLayout; 2] = [PatternLayout::Row, PatternLayout::GsDram];

fn pattern_stride_sweep_specs(args: &Args) -> Vec<RunSpec> {
    let accesses = args.u64("--accesses", 4096).clamp(64, 1 << 16);
    let seed = args.u64("--seed", 42);
    let mut v = Vec::new();
    for stride in args.usize_list("--strides", STRIDE_SWEEP_DEFAULT) {
        let stride = (stride as u64).clamp(1, 64);
        // Fixed access count: the data array grows with the stride,
        // so every run gathers the same number of words and the
        // cycle axis compares like with like.
        let spec = PatternSpec {
            name: format!("stride{stride}"),
            elements: (accesses * stride).next_multiple_of(64),
            seed,
            op: AccessOp::Gather,
            pattern: Generator::Stride {
                stride,
                count: accesses,
                start: 0,
            },
        };
        for layout in PATTERN_LAYOUTS {
            v.push(RunSpec {
                id: format!("pattern_stride_sweep/s{stride}/{}", layout.label()),
                machine: MachineSpec::table1(1, spec.mem_bytes_hint()),
                workload: WorkloadSpec::Pattern {
                    spec: spec.clone(),
                    layout,
                },
            });
        }
    }
    v
}

fn pattern_stride_sweep_render(args: &Args, outs: &[RunOutcome]) -> StatsNode {
    let mut rows = Vec::new();
    for stride in args.usize_list("--strides", STRIDE_SWEEP_DEFAULT) {
        let stride = (stride as u64).clamp(1, 64);
        let row = get(outs, &format!("pattern_stride_sweep/s{stride}/row"));
        let gs = get(outs, &format!("pattern_stride_sweep/s{stride}/gs-dram"));
        rows.push(
            StatsNode::new(format!("s{stride}"))
                .counter("gather_q", gather_q(stride))
                .gauge("row_mcycles", mc(row.scaled_cycles()))
                .gauge("gs_mcycles", mc(gs.scaled_cycles()))
                .gauge("speedup", row.scaled_cycles() / gs.scaled_cycles())
                .counter("row_dram_reads", row.report.dram.reads)
                .counter("gs_dram_reads", gs.report.dram.reads),
        );
    }
    StatsNode::new("summary")
        .text(
            "paper",
            "the mechanism's reach in one sweep: speedup tracks the largest \
             power-of-two factor of the stride (capped at the 8 chips) and \
             collapses to 1x on odd strides",
        )
        .children_from(rows)
}

// ------------------------------------------------------- pattern_indirect

/// The hostile streams `pattern_indirect` measures: seeded-random
/// within a window, fully indirect gathers, and indirect scatters
/// without and with heavy duplicate addresses.
fn pattern_indirect_cases(args: &Args) -> Vec<PatternSpec> {
    let count = args.u64("--accesses", 4096).clamp(64, 1 << 16);
    let elements = args
        .u64("--elements", 65536)
        .clamp(64, 1 << 20)
        .next_multiple_of(64);
    let seed = args.u64("--seed", 42);
    let indirect = |dup_pct| Generator::Indirect {
        count,
        range: elements,
        dup_pct,
        indices: None,
    };
    vec![
        PatternSpec {
            name: "window".into(),
            elements,
            seed,
            op: AccessOp::Gather,
            pattern: Generator::WindowRandom {
                window: elements.min(4096),
                count,
            },
        },
        PatternSpec {
            name: "indirect".into(),
            elements,
            seed,
            op: AccessOp::Gather,
            pattern: indirect(0),
        },
        PatternSpec {
            name: "scatter".into(),
            elements,
            seed,
            op: AccessOp::Scatter,
            pattern: indirect(0),
        },
        PatternSpec {
            name: "dup-scatter".into(),
            elements,
            seed,
            op: AccessOp::Scatter,
            pattern: indirect(50),
        },
    ]
}

fn pattern_indirect_specs(args: &Args) -> Vec<RunSpec> {
    let mut v = Vec::new();
    for spec in pattern_indirect_cases(args) {
        for layout in PATTERN_LAYOUTS {
            v.push(RunSpec {
                id: format!("pattern_indirect/{}/{}", spec.name, layout.label()),
                machine: MachineSpec::table1(1, spec.mem_bytes_hint()),
                workload: WorkloadSpec::Pattern {
                    spec: spec.clone(),
                    layout,
                },
            });
        }
    }
    v
}

fn pattern_indirect_render(args: &Args, outs: &[RunOutcome]) -> StatsNode {
    let mut cases = Vec::new();
    for spec in pattern_indirect_cases(args) {
        let row = get(outs, &format!("pattern_indirect/{}/row", spec.name));
        let gs = get(outs, &format!("pattern_indirect/{}/gs-dram", spec.name));
        cases.push(
            StatsNode::new(spec.name.replace('-', "_"))
                .gauge("row_mcycles", mc(row.scaled_cycles()))
                .gauge("gs_mcycles", mc(gs.scaled_cycles()))
                .gauge("speedup", row.scaled_cycles() / gs.scaled_cycles())
                .counter("row_dram_reads", row.report.dram.reads)
                .counter("gs_dram_reads", gs.report.dram.reads),
        );
    }
    StatsNode::new("summary")
        .text(
            "paper",
            "data-dependent streams never engage pattern-ID translation: \
             both layouts compile to plain ops and the speedup pins to 1x, \
             while last-writer-wins scatter stays functionally verified \
             even at 50% duplicate addresses",
        )
        .children_from(cases)
}

// ------------------------------------------------------- scale_channels

/// The channel counts the `scale_channels` experiment sweeps.
const CHANNEL_COUNTS: [usize; 3] = [1, 2, 4];

fn scale_channels_specs(args: &Args) -> Vec<RunSpec> {
    let tuples = args.u64("--tuples", 1 << 20);
    let mut v = Vec::new();
    for channels in CHANNEL_COUNTS {
        for layout in [Layout::RowStore, Layout::GsDram] {
            // Prefetching keeps several analytics lines in flight, so
            // independent channels actually overlap service.
            let mut machine = MachineSpec::table1(1, table_mem(tuples)).with_prefetch();
            machine.channels = channels;
            v.push(RunSpec {
                id: format!("scale_channels/ch{channels}/{}", slug(layout)),
                machine,
                workload: WorkloadSpec::Analytics {
                    layout,
                    tuples,
                    columns: vec![0],
                },
            });
        }
    }
    v
}

fn scale_channels_render(_args: &Args, outs: &[RunOutcome]) -> StatsNode {
    let cycles = |channels: usize, l: &str| {
        get(outs, &format!("scale_channels/ch{channels}/{l}")).scaled_cycles()
    };
    let (row1, gs1) = (cycles(1, "row"), cycles(1, "gs"));
    let mut configs = Vec::new();
    for channels in CHANNEL_COUNTS {
        let (row, gs) = (cycles(channels, "row"), cycles(channels, "gs"));
        configs.push(
            StatsNode::new(format!("ch{channels}"))
                .gauge("row_mcycles", mc(row))
                .gauge("gs_mcycles", mc(gs))
                .gauge("row_over_gs", row / gs)
                .gauge("row_speedup_vs_1ch", row1 / row)
                .gauge("gs_speedup_vs_1ch", gs1 / gs),
        );
    }
    StatsNode::new("summary")
        .text(
            "paper",
            "channel counts beyond Table 1: row-granularity interleaving \
             keeps gathered lines intact (S4.2), GS-DRAM's edge over the \
             row store persists at every width",
        )
        .children_from(configs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_findable() {
        let names = names();
        for (i, n) in names.iter().enumerate() {
            assert!(!names[i + 1..].contains(n), "duplicate name {n}");
            assert_eq!(find(n).map(|d| d.name), Some(*n));
        }
        assert_eq!(names.len(), 20);
        assert!(find("nonsense").is_none());
    }

    #[test]
    fn resolve_unknown_name_lists_the_registry() {
        assert_eq!(resolve("fig9").map(|d| d.name), Ok("fig9"));
        let err = resolve("nonsense").unwrap_err();
        assert!(err.starts_with("unknown experiment 'nonsense'"), "{err}");
        for def in REGISTRY {
            assert!(err.contains(def.name), "listing misses {}", def.name);
            assert!(err.contains(def.title), "listing misses {}", def.title);
        }
        let err = resolve("figg9").unwrap_err();
        assert!(err.contains("did you mean 'fig9'"), "{err}");
    }

    #[test]
    fn every_experiment_builds_specs() {
        // Small knobs so constructing the spec lists is instant; the
        // ids must be unique within each experiment.
        let args = Args::new([
            "--tuples", "1024", "--txns", "16", "--sizes", "32", "--pairs", "256", "--nodes",
            "256", "--trials", "4", "--lines", "64",
        ]);
        for def in REGISTRY {
            let specs = (def.specs)(&args);
            for (i, s) in specs.iter().enumerate() {
                assert!(
                    !specs[i + 1..].iter().any(|o| o.id == s.id),
                    "{}: duplicate spec id {}",
                    def.name,
                    s.id
                );
            }
        }
    }

    #[test]
    fn analytic_experiments_render_without_runs() {
        let args = Args::new(["--trials", "8", "--lines", "64"]);
        for name in [
            "fig7",
            "ablation_shuffle",
            "ablation_patterns",
            "ablation_sectored",
        ] {
            let def = find(name).expect("registered");
            assert!((def.specs)(&args).is_empty(), "{name} should be analytic");
            let summary = (def.render)(&args, &[]);
            assert_eq!(summary.name(), "summary");
            assert!(!summary.children().is_empty() || !summary.values().is_empty());
        }
    }
}
