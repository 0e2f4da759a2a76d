//! The four benchmark workloads, and how one simulation of each is set
//! up, run and checked.
//!
//! Every workload runs twice per repetition: once with the baseline
//! layout ([`Side::Row`]) and once with the GS-DRAM layout
//! ([`Side::Gs`]). Each simulation is guarded by a [`Gate`]: a panic, a
//! wrong functional result, or a stats tree that differs from the first
//! one seen for that side counts as a failed run, and the benchmark
//! carries on.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use gsdram_core::stats::ReportStats;
use gsdram_dram::mapping::MapHash;
use gsdram_dram::timing::TimingPack;
use gsdram_system::config::SystemConfig;
use gsdram_system::machine::{Machine, RunReport, StopWhen};
use gsdram_system::ops::Program;
use gsdram_workloads::common::IterProgram;
use gsdram_workloads::gemm::{self, Gemm, GemmVariant};
use gsdram_workloads::imdb::{analytics, transactions, Layout, Table, TxnSpec};

/// The workload names the command line accepts, in run order.
pub const NAMES: [&str; 4] = ["scan", "htap", "gemm", "scan_4ch"];

/// The HTAP transaction seed when none is given.
pub const DEFAULT_SEED: u64 = 99;

/// Which of a workload's two layouts a simulation uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The baseline: row store, or GEMM with a software gather.
    Row,
    /// The GS-DRAM layout: pattern-7 gathers.
    Gs,
}

impl Side {
    /// Both sides, in the order every repetition runs them.
    pub const BOTH: [Side; 2] = [Side::Row, Side::Gs];

    /// Short label for spans and messages.
    pub fn label(self) -> &'static str {
        match self {
            Side::Row => "row",
            Side::Gs => "gs",
        }
    }

    fn index(self) -> usize {
        match self {
            Side::Row => 0,
            Side::Gs => 1,
        }
    }
}

/// The machine a scan runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// The paper's Table 1 machine: one DDR3-1600 channel, one rank.
    Table1,
    /// Four DDR4-2400 channels of two ranks, every XOR mapping stage on.
    FourChannel,
}

/// One benchmark workload. The fields are the problem sizes; the
/// command line uses [`Workload::named`], tests pass smaller ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figure 10 analytics: the sum of column 0, one core, prefetcher on.
    Scan {
        /// Table size.
        tuples: u64,
        /// Memory system.
        shape: Shape,
    },
    /// Figure 11 HTAP: core 0 sums column 0 while core 1 runs endless
    /// read+write transactions; the run stops when the sum finishes.
    Htap {
        /// Table size.
        tuples: u64,
        /// Transaction stream seed.
        seed: u64,
    },
    /// Figure 13 GEMM: tiled SIMD with a software gather against the
    /// GS-DRAM tiled kernel, prefetcher off.
    Gemm {
        /// Matrix dimension.
        n: usize,
        /// Cache-block edge.
        tile: usize,
        /// Outer-loop stripes simulated (`None` = all).
        sample: Option<usize>,
    },
}

impl Workload {
    /// The benchmark workload called `name`; only `htap` uses `seed`.
    pub fn named(name: &str, seed: u64) -> Option<Workload> {
        let scan = |shape| Workload::Scan {
            tuples: 1 << 20,
            shape,
        };
        match name {
            "scan" => Some(scan(Shape::Table1)),
            "htap" => Some(Workload::Htap {
                tuples: 1 << 19,
                seed,
            }),
            "gemm" => Some(Workload::Gemm {
                n: 256,
                tile: 32,
                sample: Some(2),
            }),
            "scan_4ch" => Some(scan(Shape::FourChannel)),
            _ => None,
        }
    }

    /// The simulated machine.
    pub fn config(&self) -> SystemConfig {
        match *self {
            Workload::Scan { tuples, shape } => {
                let cfg = SystemConfig::table1(1, table_bytes(tuples)).with_prefetch();
                match shape {
                    Shape::Table1 => cfg,
                    Shape::FourChannel => cfg
                        .with_channels(4)
                        .with_ranks(2)
                        .with_mapping(MapHash::XorAll)
                        .with_timing(TimingPack::Ddr4_2400),
                }
            }
            Workload::Htap { tuples, .. } => {
                SystemConfig::table1(2, table_bytes(tuples)).with_prefetch()
            }
            Workload::Gemm { n, .. } => {
                SystemConfig::table1(1, (3 * n * n * 8 + (8 << 20)).max(16 << 20))
            }
        }
    }

    /// Sets up `side` and runs it unobserved: the untraced simulation
    /// both modes time.
    pub fn run(&self, side: Side) -> Result<(Run, SetupTimes), String> {
        let mut inst = self.setup(side);
        let run = inst.run()?;
        Ok((run, inst.setup))
    }

    /// Builds the machine, initialises its data and builds the
    /// programs for `side`, stamping each step.
    pub fn setup(&self, side: Side) -> Instance {
        let t0 = Instant::now();
        let mut machine = Machine::new(self.config());
        let t1 = Instant::now();
        let (programs, stop, check, t2) = match *self {
            Workload::Scan { tuples, .. } => {
                let table = Table::create(&mut machine, table_layout(side), tuples);
                let t2 = Instant::now();
                let want = table.expected_column_sum(0);
                (
                    vec![analytics(table, &[0])],
                    StopWhen::AllDone,
                    Check::ColumnSum(want),
                    t2,
                )
            }
            Workload::Htap { tuples, seed } => {
                let table = Table::create(&mut machine, table_layout(side), tuples);
                let t2 = Instant::now();
                let mix = TxnSpec {
                    read_only: 1,
                    write_only: 1,
                    read_write: 0,
                };
                (
                    vec![
                        analytics(table, &[0]),
                        transactions(table, mix, u64::MAX, seed),
                    ],
                    StopWhen::CoreDone(0),
                    Check::Commits,
                    t2,
                )
            }
            Workload::Gemm { n, tile, sample } => {
                let variant = match side {
                    Side::Row => GemmVariant::TiledSimd { tile },
                    Side::Gs => GemmVariant::GsDram { tile },
                };
                let g = Gemm::create(&mut machine, n, variant);
                g.init(&mut machine);
                let t2 = Instant::now();
                (
                    vec![gemm::program(g, sample).0],
                    StopWhen::AllDone,
                    Check::StatsOnly,
                    t2,
                )
            }
        };
        let t3 = Instant::now();
        Instance {
            machine,
            programs,
            stop,
            check,
            side,
            setup: SetupTimes {
                stamps: [t0, t1, t2, t3],
            },
        }
    }
}

fn table_bytes(tuples: u64) -> usize {
    (tuples as usize * 64) * 2
}

fn table_layout(side: Side) -> Layout {
    match side {
        Side::Row => Layout::RowStore,
        Side::Gs => Layout::GsDram,
    }
}

/// What a finished simulation's functional result must satisfy.
#[derive(Debug, Clone, Copy)]
enum Check {
    /// Core 0's checksum is this column sum.
    ColumnSum(u64),
    /// Core 1 committed at least one transaction.
    Commits,
    /// Nothing analytic; only the stats-tree digest gate applies.
    StatsOnly,
}

/// When each set-up step ended: start, machine built, data
/// initialised, programs built.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// `[start, machine, data, programs]`.
    pub stamps: [Instant; 4],
}

impl SetupTimes {
    fn step(&self, i: usize) -> f64 {
        (self.stamps[i + 1] - self.stamps[i]).as_secs_f64()
    }

    /// `Machine::new`, in seconds.
    pub fn machine_s(&self) -> f64 {
        self.step(0)
    }

    /// Data initialisation, in seconds.
    pub fn data_s(&self) -> f64 {
        self.step(1)
    }

    /// Program construction, in seconds.
    pub fn program_s(&self) -> f64 {
        self.step(2)
    }

    /// Spec to first op, in seconds.
    pub fn total_s(&self) -> f64 {
        (self.stamps[3] - self.stamps[0]).as_secs_f64()
    }
}

/// A machine with its data and programs, ready to run once.
#[derive(Debug)]
pub struct Instance {
    /// The simulated machine.
    pub machine: Machine,
    programs: Vec<IterProgram>,
    stop: StopWhen,
    check: Check,
    side: Side,
    /// When the set-up steps ended.
    pub setup: SetupTimes,
}

/// One finished simulation.
#[derive(Debug)]
pub struct Run {
    /// The machine's report.
    pub report: RunReport,
    /// When `Machine::run` was entered and when it returned.
    pub span: (Instant, Instant),
    /// FNV-1a digest of the report's stats tree.
    pub digest: u64,
}

impl Run {
    /// Host seconds inside `Machine::run`.
    pub fn run_s(&self) -> f64 {
        (self.span.1 - self.span.0).as_secs_f64()
    }

    fn checked(self, check: Check, side: Side) -> Result<Run, String> {
        verify(check, side, &self.report)?;
        Ok(self)
    }
}

impl Instance {
    /// Runs the programs unobserved, then checks the functional result.
    pub fn run(&mut self) -> Result<Run, String> {
        let mut refs: Vec<&mut dyn Program> = self
            .programs
            .iter_mut()
            .map(|p| p as &mut dyn Program)
            .collect();
        execute(&mut self.machine, &mut refs, self.stop).checked(self.check, self.side)
    }

    /// [`Instance::run`] with core `i`'s program seen through
    /// `wrap(i, program)`. Returns the wrappers too, so the caller can
    /// read what they gathered.
    pub fn run_through<'a, W: Program + 'a>(
        &'a mut self,
        mut wrap: impl FnMut(usize, &'a mut IterProgram) -> W,
    ) -> Result<(Run, Vec<W>), String> {
        let mut wrapped: Vec<W> = self
            .programs
            .iter_mut()
            .enumerate()
            .map(|(i, p)| wrap(i, p))
            .collect();
        let mut refs: Vec<&mut dyn Program> =
            wrapped.iter_mut().map(|w| w as &mut dyn Program).collect();
        let run = execute(&mut self.machine, &mut refs, self.stop);
        drop(refs);
        Ok((run.checked(self.check, self.side)?, wrapped))
    }
}

fn execute(machine: &mut Machine, programs: &mut [&mut dyn Program], stop: StopWhen) -> Run {
    let start = Instant::now();
    let report = machine.run(programs, stop);
    let end = Instant::now();
    let digest = digest(&report);
    Run {
        report,
        span: (start, end),
        digest,
    }
}

fn verify(check: Check, side: Side, r: &RunReport) -> Result<(), String> {
    match check {
        Check::ColumnSum(want) if r.results[0] != want => Err(format!(
            "{}: column-0 sum {} != expected {want}",
            side.label(),
            r.results[0]
        )),
        Check::Commits if r.progress[1] == 0 => {
            Err(format!("{}: no transaction committed", side.label()))
        }
        _ => Ok(()),
    }
}

/// FNV-1a over the report's stats tree as JSON: equal digests mean
/// every deterministic statistic of the two runs is identical.
pub fn digest(r: &RunReport) -> u64 {
    r.stats_node("run")
        .to_json()
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Counts attempted and failed runs of one workload, and holds each
/// side's reference digest (the first one seen).
#[derive(Debug)]
pub struct Gate {
    workload: String,
    /// Runs attempted.
    pub attempted: u64,
    /// Runs that panicked, produced a wrong result, or whose stats
    /// differed from the side's reference.
    pub failed: u64,
    reference: [Option<u64>; 2],
}

impl Gate {
    /// A gate for the workload called `workload` (used in messages).
    pub fn new(workload: &str) -> Self {
        Gate {
            workload: workload.to_string(),
            attempted: 0,
            failed: 0,
            reference: [None; 2],
        }
    }

    /// Runs `f` as one attempt. A panic or an `Err` counts as a failure
    /// (reported on stderr with `what`) and yields `None`.
    pub fn guard<T>(&mut self, what: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        let err = match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(v)) => return Some(v),
            Ok(Err(e)) => e,
            Err(payload) => payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panic".to_string()),
        };
        self.failed += 1;
        eprintln!("gsdram-benchmark: {}/{what} failed: {err}", self.workload);
        None
    }

    /// Runs one guarded simulation of `side` and applies the digest
    /// gate: the first digest seen for a side is its reference, and a
    /// later run that differs counts as failed.
    pub fn simulate<T>(
        &mut self,
        what: &str,
        side: Side,
        f: impl FnOnce() -> Result<(Run, T), String>,
    ) -> Option<(Run, T)> {
        let (run, extra) = self.guard(what, f)?;
        let want = *self.reference[side.index()].get_or_insert(run.digest);
        if run.digest != want {
            self.failed += 1;
            eprintln!(
                "gsdram-benchmark: {}/{what} failed: stats digest {:016x} != reference {want:016x}",
                self.workload, run.digest
            );
            return None;
        }
        Some((run, extra))
    }
}
