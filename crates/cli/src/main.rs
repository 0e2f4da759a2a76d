//! `gsdram-sim` — command-line driver for the GS-DRAM system simulator.
//!
//! ```text
//! gsdram-sim <workload> [options]
//! gsdram-sim sweep <experiment> [--serial] [--threads N] [--json PATH]
//!                  [--trace-out PATH] [--hist] [--trace-cap N]
//! gsdram-sim sweep --list
//! gsdram-sim trace <experiment> [--run SUBSTR | --all] [--out PATH]
//!                  [--hist] [--trace-cap N]
//! gsdram-sim pattern <file.json|builtin> [--layout row|gs-dram]
//! gsdram-sim pattern --list
//!
//! Workloads:
//!   transactions   DB transactions (--layout row|column|gs, --txns, --mix r-w-rw)
//!   analytics      DB column sums (--layout row|column|gs, --columns k)
//!   htap           analytics + endless transactions on two cores
//!   gemm           matrix multiply (--variant naive|tiled|simd|gs, --n, --tile)
//!   kvstore        key-value lookups, then inserts (--layout plain|gs)
//!   graph          node scan, then updates (--layout plain|gs)
//!   replay         replay a trace (--file T [--alloc BYTES --pattern P])
//!   pattern        compile and run a gsdram-patterns spec — a JSON
//!                  file (see examples/patterns/), a builtin name, or
//!                  --pattern NAME / --pattern-file PATH; runs both
//!                  layouts unless --layout row|gs-dram selects one;
//!                  --list shows builtins + example files
//!   sweep          run a registered experiment (fig9, fig13, ...) in
//!                  parallel; --serial / --threads N control execution,
//!                  --json PATH writes the full stats tree,
//!                  --trace-out PATH a Chrome trace of every run,
//!                  --hist per-run read-latency histograms
//!   trace          run an experiment's specs with telemetry attached
//!                  and write a Chrome trace-event JSON (Perfetto /
//!                  chrome://tracing). Traces the first spec unless
//!                  --run SUBSTR selects by id or --all takes them all;
//!                  --out PATH (default trace.json), --trace-cap N
//!                  bounds the event ring, --hist prints histograms
//!
//! Every workload but replay runs through `RunSpec::execute`, as the
//! registry does; kvstore and graph run each phase on a fresh machine.
//!
//! Common options:
//!   --tuples N     table/node/pair count        (default 65536)
//!   --prefetch     enable the stride prefetcher
//!   --impulse      Impulse-style gather baseline
//!   --fcfs         FCFS scheduling instead of FR-FCFS
//!   --sched P      scheduling engine: fr-fcfs (default), fcfs,
//!                  fr-fcfs-cap[:N] (starvation cap), bank-rr[:N]
//!   --mapping M    XOR-stage preset: direct (default), xor-bank,
//!                  xor-rank, xor-channel, xor-all
//!   --timing T     timing pack: ddr3-1600 (default) or ddr4-2400
//!   --closed-row   closed-row buffer management
//!   --ranks N      DRAM ranks                   (default 1; 1,2,4,8,16)
//!   --channels N   DRAM channels                (default 1; 1,2,4,8,16)
//!   --seed N       workload RNG seed            (default 42)
//!   --json PATH    write the (last) run's stats tree as JSON
//!   --record PATH  record the (last) run's op stream for replay
//! ```

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::process::ExitCode;

use gsdram_bench::args::Args;
use gsdram_bench::experiments::{self, write_output};
use gsdram_bench::listing::{self, Entry};
use gsdram_bench::spec::{MachineSpec, RunOutcome, RunSpec, WorkloadSpec};
use gsdram_core::stats::ReportStats;
use gsdram_core::PatternId;
use gsdram_patterns::{builtin, PatternLayout, PatternSpec, BUILTIN_NAMES};
use gsdram_system::config::SystemConfig;
use gsdram_system::machine::{RunReport, StopWhen};
use gsdram_system::ops::Program;
use gsdram_system::trace::TraceReplayer;
use gsdram_telemetry::{chrome_trace, Telemetry, DEFAULT_CAPACITY};
use gsdram_workloads::gemm::GemmVariant;
use gsdram_workloads::graph::GraphLayout;
use gsdram_workloads::imdb::{Layout, TxnSpec};
use gsdram_workloads::kvstore::KvLayout;

/// Every subcommand, for the usage line and the unknown-name error.
const SUBCOMMANDS: &str =
    "transactions|analytics|htap|gemm|kvstore|graph|replay|pattern|sweep|trace";

/// Default table/node/pair count (`--tuples`).
const TUPLES: u64 = 65_536;

/// The value of `flag` looked up in `choices`: `default` when the flag
/// is absent, a did-you-mean error listing every choice when the value
/// is not one of them.
fn choose<T: Copy>(args: &Args, flag: &str, default: T, named: &[(&str, T)]) -> Result<T, String> {
    let Some(given) = args.value(flag) else {
        return Ok(default);
    };
    if let Some(&(_, v)) = named.iter().find(|(name, _)| *name == given) {
        return Ok(v);
    }
    let names: Vec<Entry> = named.iter().map(|c| Entry::new(c.0, "")).collect();
    Err(listing::unknown(flag, &given, "accepted values", &names))
}

/// `--layout` for the §5.1 database workloads.
fn db_layout(args: &Args) -> Result<Layout, String> {
    choose(
        args,
        "--layout",
        Layout::GsDram,
        &[
            ("row", Layout::RowStore),
            ("column", Layout::ColumnStore),
            ("gs", Layout::GsDram),
        ],
    )
}

/// `--mix r-w-rw`: three field counts summing to at most 8.
fn txn_mix(args: &Args) -> Result<TxnSpec, String> {
    let mix = args.value("--mix").unwrap_or_else(|| "1-0-1".into());
    let parts: Result<Vec<usize>, _> = mix.split('-').map(str::parse).collect();
    match parts.as_deref() {
        // Bound each part first so the sum cannot overflow.
        Ok(&[r, w, rw]) if r.max(w).max(rw) <= 8 && r + w + rw <= 8 => Ok(TxnSpec {
            read_only: r,
            write_only: w,
            read_write: rw,
        }),
        _ => {
            let entries: Vec<Entry> = TxnSpec::FIGURE9
                .iter()
                .map(|s| Entry::new(s.label(), ""))
                .collect();
            Err(listing::unknown(
                "--mix",
                &mix,
                "Figure 9 mixes (any r-w-rw with at most 8 fields works)",
                &entries,
            ))
        }
    }
}

/// The machine every workload subcommand starts from: Table 1 plus
/// the shared machine flags, sized at two bytes of memory per table
/// byte (`--tuples` 64-byte tuples), at least 16 MiB.
fn cli_machine(args: &Args) -> Result<MachineSpec, String> {
    let mem = (args.usize("--tuples", TUPLES as usize) * 128).max(16 << 20);
    MachineSpec::table1(1, mem).with_args(args)
}

/// Maps a workload subcommand and its flags to the specs it runs — the
/// CLI's one link to the workload generators. kvstore and graph are
/// two specs each, and every spec runs on a fresh machine, as in
/// `extras_kvstore_graph`.
fn single_run_specs(name: &str, args: &Args) -> Result<Vec<RunSpec>, String> {
    let machine = cli_machine(args)?;
    let tuples = args.u64("--tuples", TUPLES);
    let seed = args.u64("--seed", 42);
    let spec = |workload: WorkloadSpec| RunSpec {
        id: name.to_owned(),
        machine: machine.clone(),
        workload,
    };
    let specs = match name {
        "transactions" => vec![spec(WorkloadSpec::Transactions {
            layout: db_layout(args)?,
            spec: txn_mix(args)?,
            tuples,
            txns: args.u64("--txns", 10_000),
            seed,
        })],
        "analytics" => vec![spec(WorkloadSpec::Analytics {
            layout: db_layout(args)?,
            tuples,
            columns: (0..args.usize("--columns", 1).min(8)).collect(),
        })],
        "htap" => {
            if args.value("--record").is_some() {
                return Err("--record traces one program; htap runs two".into());
            }
            let mut s = spec(WorkloadSpec::Htap {
                layout: db_layout(args)?,
                tuples,
                spec: TxnSpec {
                    read_only: 1,
                    write_only: 1,
                    read_write: 0,
                },
                seed,
            });
            s.machine.cores = 2;
            vec![s]
        }
        "gemm" => {
            let n = args.usize("--n", 128);
            let tile = args.usize("--tile", 32);
            let variant = choose(
                args,
                "--variant",
                GemmVariant::GsDram { tile },
                &[
                    ("naive", GemmVariant::Naive),
                    ("tiled", GemmVariant::Tiled { tile }),
                    ("simd", GemmVariant::TiledSimd { tile }),
                    ("gs", GemmVariant::GsDram { tile }),
                ],
            )?;
            let mut s = spec(WorkloadSpec::Gemm {
                n,
                variant,
                sample: None,
            });
            s.machine.mem_bytes = (3 * n * n * 16).max(16 << 20);
            vec![s]
        }
        "kvstore" => {
            let layout = choose(
                args,
                "--layout",
                KvLayout::GsDram,
                &[("plain", KvLayout::Interleaved), ("gs", KvLayout::GsDram)],
            )?;
            vec![
                spec(WorkloadSpec::KvLookups {
                    layout,
                    pairs: tuples,
                    scan_len: tuples / 2,
                    count: args.u64("--lookups", 64),
                    seed,
                }),
                spec(WorkloadSpec::KvInserts {
                    layout,
                    pairs: tuples,
                    count: args.u64("--inserts", 2000),
                    seed,
                }),
            ]
        }
        "graph" => {
            let layout = choose(
                args,
                "--layout",
                GraphLayout::GsDram,
                &[
                    ("plain", GraphLayout::NodeMajor),
                    ("gs", GraphLayout::GsDram),
                ],
            )?;
            vec![
                spec(WorkloadSpec::GraphScan {
                    layout,
                    nodes: tuples,
                    field: 0,
                }),
                spec(WorkloadSpec::GraphUpdates {
                    layout,
                    nodes: tuples,
                    count: args.u64("--updates", 2000),
                    seed,
                }),
            ]
        }
        other => {
            let names: Vec<Entry> = SUBCOMMANDS.split('|').map(|n| Entry::new(n, "")).collect();
            return Err(listing::unknown("subcommand", other, "subcommands", &names));
        }
    };
    Ok(specs)
}

fn print_report(name: &str, r: &RunReport, cfg: &SystemConfig, extras: &[(String, f64)]) {
    println!("== {name} ==");
    println!(
        "cycles            {:>14}  ({:.3} ms at {} GHz)",
        r.cpu_cycles,
        r.seconds(cfg) * 1e3,
        cfg.cpu_ghz
    );
    println!("operations        {:>14}  (memory: {})", r.ops, r.mem_ops);
    for (i, l1) in r.l1.iter().enumerate() {
        println!(
            "L1[{i}]             hits {:>10}  misses {:>9}  miss rate {:>6.2}%",
            l1.hits,
            l1.misses,
            l1.miss_rate() * 100.0
        );
    }
    println!(
        "L2                hits {:>10}  misses {:>9}  miss rate {:>6.2}%",
        r.l2.hits,
        r.l2.misses,
        r.l2.miss_rate() * 100.0
    );
    println!(
        "DRAM              reads {:>9}  writes {:>9}  row hit {:>7.2}%",
        r.dram.reads,
        r.dram.writes,
        r.dram.row_hit_rate() * 100.0
    );
    println!(
        "energy (mJ)       cpu {:>11.3}  dram {:>11.3}  total {:>8.3}",
        r.energy.cpu_static_mj + r.energy.cpu_dynamic_mj + r.energy.cache_mj,
        r.energy.dram_mj,
        r.energy.total_mj()
    );
    println!("progress          {:?}", r.progress);
    println!("results           {:?}", r.results);
    for (k, v) in extras {
        println!("{k:<17} {v:>14.2}");
    }
}

/// Writes `r`'s stats tree, named `name`, to `--json <path>` when
/// requested.
fn write_json(args: &Args, name: &str, r: &RunReport) -> Result<(), String> {
    match args.value("--json") {
        Some(path) => write_output(&path, &r.stats_node(name).to_json_pretty()),
        None => Ok(()),
    }
}

/// Executes `specs` in order and prints each outcome. `--record PATH`
/// tees each run's op stream into PATH, and `--json PATH` writes the
/// report tree of the last run, named `name`; for two-part workloads
/// both files therefore hold the second part.
fn run_specs(args: &Args, name: &str, specs: &[RunSpec]) -> Result<Vec<RunOutcome>, String> {
    let record = args.value("--record");
    let mut outcomes = Vec::with_capacity(specs.len());
    for spec in specs {
        let o = match &record {
            Some(path) => {
                let file = File::create(path).map_err(|e| format!("create {path}: {e}"))?;
                let mut out = BufWriter::new(file);
                let o = spec.execute_recorded(&mut out);
                out.flush().map_err(|e| format!("write {path}: {e}"))?;
                eprintln!("recorded {} ops to {path}", o.report.ops);
                o
            }
            None => spec.execute(),
        };
        print_report(
            &o.spec.workload.describe(),
            &o.report,
            &o.spec.machine.config(),
            &o.extra,
        );
        outcomes.push(o);
    }
    if let Some(last) = outcomes.last() {
        write_json(args, name, &last.report)?;
    }
    Ok(outcomes)
}

/// `gsdram-sim replay --file T`: plays back a trace recorded with
/// `--record`. The one subcommand with no generator, so it builds its
/// machine by hand, and it must be given the allocation the recording
/// run had: `--alloc BYTES [--pattern P]` recreates one pattmalloc
/// region at the deterministic base address.
fn replay(args: &Args) -> Result<(), String> {
    let path = args.value("--file").ok_or("replay needs --file <trace>")?;
    let file = File::open(&path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let mut m = cli_machine(args)?.build();
    let alloc = args.u64("--alloc", args.u64("--tuples", TUPLES) * 64);
    m.pattmalloc(alloc, true, PatternId(args.u64("--pattern", 7) as u8));
    let mut p = TraceReplayer::new(BufReader::new(file));
    let r = m.run(&mut [&mut p as &mut dyn Program], StopWhen::AllDone);
    let name = format!("replay {path} ({} ops)", p.ops_replayed());
    print_report(&name, &r, m.config(), &[]);
    write_json(args, "replay", &r)
}

fn sweep(args: &Args) -> Result<(), String> {
    if args.flag("--list") {
        println!("registered experiments:");
        for def in experiments::REGISTRY {
            println!("  {:<22} {}", def.name, def.title);
        }
        return Ok(());
    }
    // `sweep` is the first positional; the experiment name is the next.
    let name = args.positional_at(1).ok_or(
        "usage: gsdram-sim sweep <experiment> [--serial] [--threads N] [--json PATH]\n       \
         gsdram-sim sweep [--trace-out PATH] [--hist] ...\n       \
         gsdram-sim sweep --list",
    )?;
    experiments::run_named(name, args).map(drop)
}

/// `gsdram-sim trace <experiment>`: execute an experiment's specs with
/// a telemetry collector attached and export a Chrome trace-event
/// JSON. Runs serially — traces are about *where* time goes inside one
/// run, not sweep throughput.
fn trace(args: &Args) -> Result<(), String> {
    let name = args.positional_at(1).ok_or(
        "usage: gsdram-sim trace <experiment> [--run SUBSTR | --all] \
         [--out PATH] [--hist] [--trace-cap N]",
    )?;
    let def = experiments::resolve(name)?;
    let specs = (def.specs)(args);
    if specs.is_empty() {
        return Err(format!(
            "experiment '{name}' is purely analytic — no runs to trace"
        ));
    }
    let selected: Vec<&RunSpec> = if args.flag("--all") {
        specs.iter().collect()
    } else if let Some(f) = args.value("--run") {
        specs.iter().filter(|s| s.id.contains(&f)).collect()
    } else {
        vec![&specs[0]]
    };
    if selected.is_empty() {
        let ids: Vec<&str> = specs.iter().map(|s| s.id.as_str()).collect();
        return Err(format!("--run matched none of:\n  {}", ids.join("\n  ")));
    }
    let capacity = args.usize("--trace-cap", DEFAULT_CAPACITY);
    let mut outcomes = Vec::new();
    let mut traces: Vec<(&str, Telemetry)> = Vec::new();
    for spec in selected {
        let (outcome, telemetry) = spec.execute_traced(capacity);
        println!(
            "{}: {} cycles, {} events ({} retained, {} dropped)",
            spec.id,
            outcome.report.cpu_cycles,
            telemetry.total_events(),
            telemetry.events().count(),
            telemetry.dropped(),
        );
        outcomes.push(outcome);
        traces.push((&spec.id, telemetry));
    }
    if args.flag("--hist") {
        print!("{}", experiments::hist_summary(&outcomes));
    }
    let out = args.value("--out").unwrap_or_else(|| "trace.json".into());
    let named: Vec<(&str, &Telemetry)> = traces.iter().map(|(id, t)| (*id, t)).collect();
    write_output(&out, &chrome_trace(&named))
}

/// Every way to name a pattern spec, for `--list` and the not-found
/// error: the builtins plus any `examples/patterns/*.json` next to the
/// invocation directory — rendered by the same [`listing`] module as
/// `experiments::resolve`.
fn pattern_entries() -> Vec<Entry> {
    let mut entries: Vec<Entry> = BUILTIN_NAMES
        .iter()
        .map(|name| Entry::new(*name, "builtin"))
        .collect();
    let mut files: Vec<std::path::PathBuf> = std::fs::read_dir("examples/patterns")
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    entries.extend(
        files
            .iter()
            .map(|f| Entry::new(f.display().to_string(), "")),
    );
    entries
}

fn pattern_listing() -> String {
    listing::render("available pattern specs", &pattern_entries())
}

/// Resolves a pattern-spec argument: builtin names first, then a JSON
/// file path. Misses get the "did you mean" treatment against
/// everything listable; parse failures list everything available.
fn load_pattern_spec(arg: &str) -> Result<PatternSpec, String> {
    if let Some(spec) = builtin(arg) {
        return Ok(spec);
    }
    if !std::path::Path::new(arg).exists() {
        return Err(listing::unknown(
            "pattern spec",
            arg,
            "available pattern specs",
            &pattern_entries(),
        ));
    }
    let text = std::fs::read_to_string(arg)
        .map_err(|e| format!("cannot read pattern spec '{arg}': {e}"))?;
    PatternSpec::parse(&text).map_err(|e| format!("{arg}: {e}\n{}", pattern_listing()))
}

/// `gsdram-sim pattern <file|name>`: compile a spec and run it end to
/// end — both layouts by default, so the row-vs-GS-DRAM comparison is
/// one command.
fn pattern_cmd(args: &Args) -> Result<(), String> {
    if args.flag("--list") {
        println!("{}", pattern_listing());
        return Ok(());
    }
    let arg = args
        .value("--pattern-file")
        .or_else(|| args.value("--pattern"))
        .or_else(|| args.positional_at(1).map(str::to_owned))
        .ok_or_else(|| {
            format!(
                "usage: gsdram-sim pattern <file.json|builtin> [--layout row|gs-dram]\n       \
                 gsdram-sim pattern --list\n{}",
                pattern_listing()
            )
        })?;
    let spec = load_pattern_spec(&arg)?;
    let layouts = match args.value("--layout") {
        Some(_) => vec![choose(
            args,
            "--layout",
            PatternLayout::GsDram,
            &[
                ("row", PatternLayout::Row),
                ("gs-dram", PatternLayout::GsDram),
                ("gs", PatternLayout::GsDram),
            ],
        )?],
        None => vec![PatternLayout::Row, PatternLayout::GsDram],
    };
    let machine = MachineSpec::table1(1, spec.mem_bytes_hint()).with_args(args)?;
    let specs: Vec<RunSpec> = layouts
        .into_iter()
        .map(|layout| RunSpec {
            id: format!("pattern/{}/{}", spec.name, layout.label()),
            machine: machine.clone(),
            workload: WorkloadSpec::Pattern {
                spec: spec.clone(),
                layout,
            },
        })
        .collect();
    if let [row, gs] = run_specs(args, "pattern", &specs)?.as_slice() {
        let (row, gs) = (row.report.cpu_cycles, gs.report.cpu_cycles);
        println!(
            "speedup           {:>14.3}  (row {row} / gs-dram {gs} cycles)",
            row as f64 / gs as f64
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = Args::from_env();
    let Some(cmd) = args.positional().map(str::to_owned) else {
        eprintln!("usage: gsdram-sim <{SUBCOMMANDS}> [options]");
        eprintln!("run with a workload name; see crate docs for options");
        return ExitCode::FAILURE;
    };
    let result = match cmd.as_str() {
        "sweep" => sweep(&args),
        "trace" => trace(&args),
        "pattern" => pattern_cmd(&args),
        "replay" => replay(&args),
        workload => single_run_specs(workload, &args)
            .and_then(|specs| run_specs(&args, workload, &specs))
            .map(drop),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
