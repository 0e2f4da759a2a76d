//! The memory controller: request queues, FR-FCFS scheduling, write
//! draining and refresh.
//!
//! The paper's evaluated controller (Table 1) uses an open-row policy
//! with FR-FCFS scheduling [39, 56]: among pending requests, column
//! commands that hit the open row go first, then oldest-first. That
//! policy is what produces the HTAP inter-thread starvation the paper
//! analyses in §5.1 — a streaming thread's row hits starve a random
//! thread's row conflicts on the same bank.
//!
//! The implementation is event-driven: instead of ticking every memory
//! cycle, it computes the earliest legal issue time of the best
//! candidate command and jumps there, which keeps multi-billion-cycle
//! simulations fast while enforcing exact DDR3 timing via
//! [`crate::bank::Rank`]-level state machines.
//!
//! [`MemController`] itself is a *composition shell*: command selection
//! is delegated to a [`crate::sched::Scheduler`] engine, the refresh
//! schedule to [`crate::refresh::RefreshTimer`] and the write-drain
//! hysteresis to [`crate::wdrain::WriteDrain`]. The shell owns what the
//! engines must not: queues, clocks, rank state, statistics, energy and
//! event emission.

use crate::bank::{Rank, RowBufferState};
use crate::command::DramCommand;
use crate::energy::{EnergyMeter, PowerParams};
use crate::mapping::DramLocation;
use crate::refresh::RefreshTimer;
use crate::sched::{Candidate, QueueView, Retired, Scheduler};
use crate::timing::{Cycles, TimingParams};
use crate::wdrain::{DrainTransition, WriteDrain};
use gsdram_core::port::{DramCmdKind, EventHub, RowOutcome, SchedDecisionKind, SimEvent};
use gsdram_core::stats::{ReportStats, StatsNode};
use gsdram_core::time::{Horizon, TimeFold};
use gsdram_core::PatternId;
use gsdram_telemetry::Histogram;

pub use crate::sched::SchedPolicy;

/// Unique request identifier assigned by the caller.
pub type ReqId = u64;

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A read request (demand load, fetch or prefetch).
    Read,
    /// A write request (dirty writeback).
    Write,
}

/// A memory request presented to the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Caller-chosen identifier, echoed in the completion.
    pub id: ReqId,
    /// DRAM coordinates of the line.
    pub loc: DramLocation,
    /// GS-DRAM pattern for the column command.
    pub pattern: PatternId,
    /// Read or write.
    pub kind: AccessKind,
}

/// A finished request: `id` completed its data burst at cycle `at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The request's identifier.
    pub id: ReqId,
    /// Memory cycle the data burst finished.
    pub at: Cycles,
}

/// Row-buffer management policy (Table 1 uses open-row).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowPolicy {
    /// Leave rows open after column commands (bet on row locality).
    Open,
    /// Close a row once no queued request hits it (bet against
    /// locality: random traffic saves the conflict precharge).
    Closed,
}

/// Controller configuration.
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// DDR timing parameters.
    pub timing: TimingParams,
    /// Device power parameters.
    pub power: PowerParams,
    /// Number of banks per rank.
    pub banks: usize,
    /// Number of ranks on the channel (sharing command and data buses).
    pub ranks: usize,
    /// Scheduling policy.
    pub policy: SchedPolicy,
    /// Row-buffer management policy.
    pub row_policy: RowPolicy,
    /// Write queue occupancy that forces draining.
    pub write_high_watermark: usize,
    /// Draining stops once the write queue shrinks to this.
    pub write_low_watermark: usize,
    /// Whether periodic refresh is modelled.
    pub refresh: bool,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            timing: TimingParams::ddr3_1600(),
            power: PowerParams::ddr3_1600_x8(),
            banks: 8,
            ranks: 1,
            policy: SchedPolicy::FrFcfs,
            row_policy: RowPolicy::Open,
            write_high_watermark: 32,
            write_low_watermark: 8,
            refresh: true,
        }
    }
}

/// Controller statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControllerStats {
    /// Demand/prefetch reads serviced.
    pub reads: u64,
    /// Writebacks serviced.
    pub writes: u64,
    /// Column commands that hit the open row.
    pub row_hits: u64,
    /// Accesses to a precharged bank.
    pub row_closed: u64,
    /// Accesses that had to close another row first.
    pub row_conflicts: u64,
    /// ACTIVATE commands issued.
    pub activates: u64,
    /// PRECHARGE commands issued.
    pub precharges: u64,
    /// REFRESH commands issued.
    pub refreshes: u64,
    /// Sum of read latencies (arrival to data completion), memory cycles.
    pub total_read_latency: u64,
    /// Smallest read latency observed, memory cycles (0 when no reads).
    pub min_read_latency: u64,
    /// Largest read latency observed, memory cycles (0 when no reads).
    pub max_read_latency: u64,
    /// Memory cycles the data bus spent transferring bursts.
    pub bus_busy_cycles: u64,
    /// Row hits serviced ahead of an older pending request, as counted
    /// by fairness-aware schedulers (always 0 under plain FR-FCFS and
    /// FCFS, which take no fairness decisions).
    pub sched_hit_bypasses: u64,
    /// Times a starvation cap forced the oldest request to be serviced.
    pub sched_promotions: u64,
    /// Times a batch scheduler's bank cursor rotated onward.
    pub sched_batch_rotations: u64,
    /// Times the write queue reached the high watermark and the
    /// controller entered write-drain mode.
    pub drain_entries: u64,
    /// Times drain mode ended at the low watermark.
    pub drain_exits: u64,
}

impl ReportStats for ControllerStats {
    fn stats_node(&self, name: &str) -> StatsNode {
        let mut node = StatsNode::new(name)
            .counter("reads", self.reads)
            .counter("writes", self.writes)
            .counter("row_hits", self.row_hits)
            .counter("row_closed", self.row_closed)
            .counter("row_conflicts", self.row_conflicts)
            .counter("activates", self.activates)
            .counter("precharges", self.precharges)
            .counter("refreshes", self.refreshes)
            .counter("total_read_latency", self.total_read_latency)
            .counter("min_read_latency", self.min_read_latency)
            .counter("max_read_latency", self.max_read_latency)
            .counter("bus_busy_cycles", self.bus_busy_cycles);
        // Engine-decision counters appear only once an engine actually
        // took a decision: the default FR-FCFS + open-row configuration
        // reports none, keeping the long-pinned figure-JSON schema (and
        // its byte-identity baselines) unchanged.
        if self.engine_decisions() > 0 {
            node = node
                .counter("sched_hit_bypasses", self.sched_hit_bypasses)
                .counter("sched_promotions", self.sched_promotions)
                .counter("sched_batch_rotations", self.sched_batch_rotations)
                .counter("drain_entries", self.drain_entries)
                .counter("drain_exits", self.drain_exits);
        }
        node.gauge("avg_read_latency", self.avg_read_latency())
            .gauge("row_hit_rate", self.row_hit_rate())
    }
}

impl ControllerStats {
    /// Folds another controller's counters into this one — the one
    /// aggregation point for multi-channel/multi-controller totals.
    pub fn merge(&mut self, other: &Self) {
        // min/max only mean something when their side has reads.
        if other.reads > 0 {
            self.min_read_latency = if self.reads == 0 {
                other.min_read_latency
            } else {
                self.min_read_latency.min(other.min_read_latency)
            };
            self.max_read_latency = self.max_read_latency.max(other.max_read_latency);
        }
        self.reads += other.reads;
        self.writes += other.writes;
        self.row_hits += other.row_hits;
        self.row_closed += other.row_closed;
        self.row_conflicts += other.row_conflicts;
        self.activates += other.activates;
        self.precharges += other.precharges;
        self.refreshes += other.refreshes;
        self.total_read_latency += other.total_read_latency;
        self.bus_busy_cycles += other.bus_busy_cycles;
        self.sched_hit_bypasses += other.sched_hit_bypasses;
        self.sched_promotions += other.sched_promotions;
        self.sched_batch_rotations += other.sched_batch_rotations;
        self.drain_entries += other.drain_entries;
        self.drain_exits += other.drain_exits;
    }

    /// Total scheduler/write-drain decisions recorded (0 under the
    /// default FR-FCFS configuration on read-dominated workloads).
    pub fn engine_decisions(&self) -> u64 {
        self.sched_hit_bypasses
            + self.sched_promotions
            + self.sched_batch_rotations
            + self.drain_entries
            + self.drain_exits
    }

    /// Records one read latency into the sum/min/max counters.
    fn note_read_latency(&mut self, latency: u64) {
        self.total_read_latency += latency;
        self.min_read_latency = if self.reads == 0 {
            latency
        } else {
            self.min_read_latency.min(latency)
        };
        self.max_read_latency = self.max_read_latency.max(latency);
        self.reads += 1;
    }

    /// Mean read latency in memory cycles.
    // gsdram-lint: allow-block(D5) report-only ratio; never feeds simulated timing
    pub fn avg_read_latency(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.total_read_latency as f64 / self.reads as f64
        }
    }

    /// Data-bus utilisation over `elapsed` memory cycles.
    // gsdram-lint: allow-block(D5) report-only ratio; never feeds simulated timing
    pub fn bus_utilisation(&self, elapsed: u64) -> f64 {
        if elapsed == 0 {
            0.0
        } else {
            self.bus_busy_cycles as f64 / elapsed as f64
        }
    }

    /// Row-hit rate over all column commands.
    // gsdram-lint: allow-block(D5) report-only ratio; never feeds simulated timing
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_closed + self.row_conflicts;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone)]
struct Pending {
    req: MemRequest,
    arrival: Cycles,
    seq: u64,
    /// How this request was served, decided by the first row command
    /// issued on its behalf (None until then = would be a row hit).
    served: Option<RowBufferState>,
}

/// The memory controller for one channel: a composition shell over the
/// scheduling, refresh and write-drain engines.
#[derive(Debug)]
pub struct MemController {
    cfg: ControllerConfig,
    ranks: Vec<Rank>,
    now: Cycles,
    /// Shared data bus: end of the last burst and the rank that drove it
    /// (rank switches pay tRTRS).
    bus_free_at: Cycles,
    bus_last_rank: Option<usize>,
    /// Shared command bus: one command per cycle across all ranks.
    cmd_bus_at: Cycles,
    readq: Vec<Pending>,
    writeq: Vec<Pending>,
    completions: Vec<Completion>,
    /// Command-selection engine built from `cfg.policy`.
    sched: Box<dyn Scheduler>,
    /// Periodic-refresh schedule.
    refresh: RefreshTimer,
    /// Write-drain watermark hysteresis.
    wdrain: WriteDrain,
    seq: u64,
    energy: EnergyMeter,
    energy_cursor: Cycles,
    stats: ControllerStats,
    /// Banks scheduled for a closed-row-policy precharge.
    pending_close: Vec<(usize, usize)>,
    /// Optional command trace for timing verification in tests.
    trace: Option<Vec<crate::command::TimedCommand>>,
    /// Which channel this controller drives, echoed in emitted events.
    channel: usize,
    /// Read latency distribution (arrival to data completion).
    /// Maintained unconditionally — never via the observer — so report
    /// output is bit-identical whether or not a sink is attached.
    read_hist: Histogram,
    /// Queue occupancy (reads + writes, serviced request included)
    /// sampled at each column-command retire. Unconditional, like
    /// `read_hist`.
    depth_hist: Histogram,
    /// Cached next-event bound (the time-skip contract): every
    /// scheduling scan that issues nothing already knows the exact next
    /// cycle something can issue, so it is remembered here and
    /// [`advance_observed`](Self::advance_observed) short-circuits any
    /// advance that stops before it. Invalidated on every state change
    /// (enqueue, command issue).
    horizon: Horizon,
    /// Whether `advance` may leap over horizon-proven dead time
    /// (disable only to cross-check leap ≡ step in tests).
    time_skip: bool,
    /// Scratch for the per-(rank, bank) representative pick of the
    /// candidate scan (reused across steps; no steady-state allocation).
    bank_best: Vec<Option<usize>>,
    /// Scratch for the candidate list itself.
    cand_buf: Vec<Candidate>,
    /// Scratch for the open-bank list of a refreshing rank.
    open_buf: Vec<usize>,
}

impl MemController {
    /// A controller with the given configuration.
    pub fn new(cfg: ControllerConfig) -> Self {
        let ranks = (0..cfg.ranks.max(1))
            .map(|_| Rank::new(cfg.timing.clone(), cfg.banks))
            .collect();
        let energy = EnergyMeter::new(cfg.power.clone(), cfg.timing.clone());
        let sched = cfg.policy.engine(cfg.ranks.max(1), cfg.banks);
        let refresh = RefreshTimer::new(cfg.refresh, cfg.timing.refi);
        let wdrain = WriteDrain::new(cfg.write_high_watermark, cfg.write_low_watermark);
        MemController {
            cfg,
            ranks,
            now: 0,
            bus_free_at: 0,
            bus_last_rank: None,
            cmd_bus_at: 0,
            readq: Vec::new(),
            writeq: Vec::new(),
            completions: Vec::new(),
            sched,
            refresh,
            wdrain,
            seq: 0,
            energy,
            energy_cursor: 0,
            stats: ControllerStats::default(),
            pending_close: Vec::new(),
            trace: None,
            channel: 0,
            read_hist: Histogram::new(),
            depth_hist: Histogram::new(),
            horizon: Horizon::Stale,
            time_skip: true,
            bank_best: Vec::new(),
            cand_buf: Vec::new(),
            open_buf: Vec::new(),
        }
    }

    /// Enables or disables time-skipping (leaping over horizon-proven
    /// dead time in [`advance`](Self::advance)). On by default; turning
    /// it off forces every advance through the full scheduling scan —
    /// the two modes are byte-identical in every observable (commands,
    /// completions, statistics, events), which the leap≡step
    /// differential tests pin.
    pub fn set_time_skip(&mut self, on: bool) {
        self.time_skip = on;
    }

    /// Sets the channel index stamped on emitted [`SimEvent`]s
    /// (defaults to 0 for single-channel use).
    pub fn set_channel(&mut self, channel: usize) {
        self.channel = channel;
    }

    /// Read latency distribution (arrival to data-burst completion, in
    /// memory cycles), one sample per serviced read.
    pub fn read_latency_hist(&self) -> &Histogram {
        &self.read_hist
    }

    /// Queue occupancy distribution: reads + writes outstanding at each
    /// column-command retire, the serviced request included.
    pub fn queue_depth_hist(&self) -> &Histogram {
        &self.depth_hist
    }

    /// Enables command tracing (used by the timing-verification tests).
    pub fn enable_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// The trace collected so far, if tracing is enabled.
    pub fn trace(&self) -> Option<&[crate::command::TimedCommand]> {
        self.trace.as_deref()
    }

    /// Current memory-clock time.
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// Statistics so far.
    pub fn stats(&self) -> ControllerStats {
        self.stats
    }

    /// Energy accumulated so far.
    pub fn energy(&self) -> crate::energy::EnergyBreakdown {
        self.energy.breakdown()
    }

    /// Outstanding request count (both queues).
    pub fn pending(&self) -> usize {
        self.readq.len() + self.writeq.len()
    }

    /// Enqueues a request arriving at cycle `at` (which may be in the
    /// future relative to [`now`](Self::now); it becomes schedulable
    /// then).
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the controller's current time — the
    /// caller must not rewrite history.
    pub fn enqueue(&mut self, req: MemRequest, at: Cycles) {
        assert!(
            at >= self.now,
            "request arrives at {at} but now is {}",
            self.now
        );
        let p = Pending {
            req,
            arrival: at,
            seq: self.seq,
            served: None,
        };
        self.seq += 1;
        self.horizon.invalidate();
        match req.kind {
            AccessKind::Read => self.readq.push(p),
            AccessKind::Write => self.writeq.push(p),
        }
    }

    /// Removes and returns all completions with `at <= up_to`.
    pub fn take_completions(&mut self, up_to: Cycles) -> Vec<Completion> {
        let mut done = Vec::new();
        self.take_completions_into(up_to, &mut done);
        done
    }

    /// Allocation-free variant of
    /// [`take_completions`](Self::take_completions): appends every
    /// completion with `at <= up_to` to `out` (in recorded order, the
    /// order delivery relies on) and removes them from the controller.
    pub fn take_completions_into(&mut self, up_to: Cycles, out: &mut Vec<Completion>) {
        self.completions.retain(|c| {
            if c.at <= up_to {
                out.push(*c);
                false
            } else {
                true
            }
        });
    }

    /// The *exact* earliest cycle at which something will happen if no
    /// new requests arrive: the next issuable command (through the same
    /// scheduling-engine selection `advance` uses, so capped/fair
    /// engines report the command they would actually pick), the next
    /// due auto-precharge under the closed-row policy, or the next due
    /// refresh. `None` when fully idle (nothing pending and refresh
    /// disabled).
    ///
    /// Satisfies the time-skip contract of [`gsdram_core::time`]:
    /// `advance(next_event() - 1)` issues nothing, `advance
    /// (next_event())` makes progress.
    pub fn next_event(&self) -> Option<Cycles> {
        if !self.horizon.is_stale() {
            return self.horizon.known();
        }
        self.compute_next_event()
    }

    /// The uncached next-event computation: a pure replay of the next
    /// scheduling step's decision logic. The fold over {selected
    /// candidate, due auto-precharge, refresh due} is exact — see the
    /// ordering-invariant argument in `docs/PERF.md`.
    fn compute_next_event(&self) -> Option<Cycles> {
        let mut fold = TimeFold::new();
        fold.fold_opt(self.refresh.horizon());
        let writes = self
            .wdrain
            .would_serve(self.writeq.len(), !self.readq.is_empty());
        let queue = if writes { &self.writeq } else { &self.readq };
        let cands = self.candidates(queue, self.now);
        if !cands.is_empty() {
            fold.fold(cands[self.sched.select(&cands)].ready);
        }
        if self.cfg.row_policy == RowPolicy::Closed {
            fold.fold_opt(self.peek_close(self.now));
        }
        fold.earliest()
    }

    fn accrue_energy(&mut self, to: Cycles) {
        if to > self.energy_cursor {
            let delta = to - self.energy_cursor;
            let active = self.ranks.iter().any(Rank::any_bank_active);
            if !active && self.pending() == 0 {
                // A genuinely idle gap: eligible for precharge
                // power-down.
                self.energy.on_idle_gap(delta);
            } else {
                self.energy.on_elapsed(delta, active);
            }
            self.energy_cursor = to;
        }
    }

    fn issue(
        &mut self,
        rank: usize,
        cmd: DramCommand,
        at: Cycles,
        events: &mut EventHub,
    ) -> Option<Cycles> {
        self.horizon.invalidate();
        self.accrue_energy(at);
        let done = self.ranks[rank].issue(&cmd, at);
        if let Some(end) = done {
            self.bus_free_at = self.bus_free_at.max(end);
            self.bus_last_rank = Some(rank);
            self.stats.bus_busy_cycles += self.cfg.timing.burst;
        }
        self.cmd_bus_at = self.cmd_bus_at.max(at + 1);
        match cmd {
            DramCommand::Activate { .. } => {
                self.stats.activates += 1;
                self.energy.on_activate();
            }
            DramCommand::Precharge { .. } => self.stats.precharges += 1,
            DramCommand::Read { .. } => self.energy.on_read(64),
            DramCommand::Write { .. } => self.energy.on_write(64),
            DramCommand::Refresh => {
                self.stats.refreshes += 1;
                self.energy.on_refresh();
            }
        }
        let channel = self.channel;
        events.emit(|| SimEvent::DramCommand {
            channel,
            rank,
            bank: cmd.bank(),
            kind: match cmd {
                DramCommand::Activate { .. } => DramCmdKind::Activate,
                DramCommand::Precharge { .. } => DramCmdKind::Precharge,
                DramCommand::Read { .. } => DramCmdKind::Read,
                DramCommand::Write { .. } => DramCmdKind::Write,
                DramCommand::Refresh => DramCmdKind::Refresh,
            },
            at_mem: at,
        });
        if let Some(t) = self.trace.as_mut() {
            t.push(crate::command::TimedCommand { at, rank, cmd });
        }
        self.now = self.now.max(at);
        done
    }

    /// Performs the periodic refresh sequence: precharge open banks,
    /// then an all-bank REFRESH.
    fn do_refresh(&mut self, events: &mut EventHub) {
        let mut t = self.now.max(self.refresh.next_due());
        let mut open = std::mem::take(&mut self.open_buf);
        for r in 0..self.ranks.len() {
            open.clear();
            open.extend(self.ranks[r].open_banks());
            for &bank in &open {
                let cmd = DramCommand::Precharge { bank };
                let at = self.ranks[r].earliest(&cmd, t).max(self.cmd_bus_at);
                self.issue(r, cmd, at, events);
                t = t.max(at);
            }
            let cmd = DramCommand::Refresh;
            let at = self.ranks[r].earliest(&cmd, t).max(self.cmd_bus_at);
            self.issue(r, cmd, at, events);
            t = t.max(at);
        }
        self.open_buf = open;
        self.refresh.advance_period();
        self.horizon.invalidate();
    }

    /// Whether writes should be serviced now, per the write-drain
    /// engine; mode edges are folded into stats and telemetry here.
    fn serving_writes(&mut self, have_ready_read: bool, events: &mut EventHub) -> bool {
        if let Some(tr) = self.wdrain.update(self.writeq.len()) {
            let kind = match tr {
                DrainTransition::Entered => {
                    self.stats.drain_entries += 1;
                    SchedDecisionKind::DrainEnter
                }
                DrainTransition::Exited => {
                    self.stats.drain_exits += 1;
                    SchedDecisionKind::DrainExit
                }
            };
            let channel = self.channel;
            let at_mem = self.now;
            events.emit(|| SimEvent::SchedDecision {
                channel,
                kind,
                at_mem,
            });
        }
        self.wdrain.should_serve(self.writeq.len(), have_ready_read)
    }

    /// For one queue, selects the per-bank representative request and its
    /// next command, returning `(queue_index, command, earliest, is_hit,
    /// seq)` candidates.
    /// Earliest issue time for a command on `rank`, including the
    /// shared command bus and (for column commands) the shared data bus
    /// with rank-to-rank turnaround.
    fn earliest_on(&self, rank: usize, cmd: &DramCommand, from: Cycles) -> Cycles {
        let mut t = self.ranks[rank].earliest(cmd, from).max(self.cmd_bus_at);
        if cmd.is_column() {
            let latency = match cmd {
                DramCommand::Read { .. } => self.cfg.timing.cl,
                _ => self.cfg.timing.cwl,
            };
            let mut bus_ready = self.bus_free_at;
            if self.bus_last_rank.is_some_and(|r| r != rank) {
                bus_ready += self.cfg.timing.rtrs;
            }
            // Data burst must start at or after the bus is free.
            t = t.max(bus_ready.saturating_sub(latency));
        }
        t
    }

    /// Allocating wrapper over
    /// [`candidates_into`](Self::candidates_into) for `&self` callers
    /// off the hot path ([`next_event`](Self::next_event) cache
    /// misses).
    fn candidates(&self, queue: &[Pending], from: Cycles) -> Vec<Candidate> {
        let mut out = Vec::new();
        let mut best_per_bank = Vec::new();
        self.candidates_into(queue, from, &mut best_per_bank, &mut out);
        out
    }

    /// For one queue, selects the per-bank representative request and
    /// its next command into `out` as (queue index, command, earliest,
    /// is-hit, seq) candidates. `best_per_bank` and `out` are caller
    /// scratch (cleared here), so the per-step scan allocates nothing
    /// in the steady state — both scans are flat sweeps over the
    /// [`crate::bank::BankSet`] arrays.
    fn candidates_into(
        &self,
        queue: &[Pending],
        from: Cycles,
        best_per_bank: &mut Vec<Option<usize>>,
        out: &mut Vec<Candidate>,
    ) {
        let banks = self.cfg.banks;
        let slots = self.ranks.len() * banks;
        out.clear();
        best_per_bank.clear();
        best_per_bank.resize(slots, None);
        // Pass 1: pick the representative request per (rank, bank) —
        // the ordering criterion is the scheduling engine's.
        for (i, p) in queue.iter().enumerate() {
            let loc = p.req.loc;
            let state = self.ranks[loc.rank].row_state(loc.bank, loc.row);
            let cur = &mut best_per_bank[loc.rank * banks + loc.bank];
            match cur {
                None => *cur = Some(i),
                Some(j) => {
                    let jp = &queue[*j];
                    let j_state = self.ranks[loc.rank].row_state(loc.bank, jp.req.loc.row);
                    let better = self.sched.prefers(
                        QueueView {
                            is_hit: state == RowBufferState::Hit,
                            seq: p.seq,
                        },
                        QueueView {
                            is_hit: j_state == RowBufferState::Hit,
                            seq: jp.seq,
                        },
                    );
                    if better {
                        *cur = Some(i);
                    }
                }
            }
        }
        // Pass 2: next command + earliest time for each representative.
        for idx in best_per_bank.iter().copied().flatten() {
            let p = &queue[idx];
            let loc = p.req.loc;
            let state = self.ranks[loc.rank].row_state(loc.bank, loc.row);
            let cmd = match state {
                RowBufferState::Hit => match p.req.kind {
                    AccessKind::Read => DramCommand::Read {
                        bank: loc.bank,
                        col: loc.col,
                        pattern: p.req.pattern,
                    },
                    AccessKind::Write => DramCommand::Write {
                        bank: loc.bank,
                        col: loc.col,
                        pattern: p.req.pattern,
                    },
                },
                RowBufferState::Closed => DramCommand::Activate {
                    bank: loc.bank,
                    row: loc.row,
                },
                RowBufferState::Conflict => DramCommand::Precharge { bank: loc.bank },
            };
            let ready = self.earliest_on(loc.rank, &cmd, from.max(p.arrival));
            out.push(Candidate {
                queue_idx: idx,
                rank: loc.rank,
                bank: loc.bank,
                cmd,
                ready,
                is_hit: state == RowBufferState::Hit,
                seq: p.seq,
            });
        }
    }

    /// Advances the controller's clock to `to`, issuing every command
    /// that can legally issue before then.
    pub fn advance(&mut self, to: Cycles) {
        self.advance_observed(to, &mut EventHub::new());
    }

    /// [`advance`](Self::advance), emitting [`SimEvent`]s describing
    /// each issued command and serviced request to `events`.
    ///
    /// When the cached horizon proves nothing can issue by `to`, the
    /// clock leaps straight there — one compare instead of a scheduling
    /// scan. The horizon stays valid across leaps (bounds only move
    /// later as time passes) until an enqueue or issue invalidates it.
    pub fn advance_observed(&mut self, to: Cycles, events: &mut EventHub) {
        if !(self.time_skip && self.horizon.skips(to)) {
            while self.step(to, events) {}
        }
        self.now = self.now.max(to);
        self.accrue_energy(self.now);
    }

    /// Whether advancing to `to` is provably a no-op for observers: the
    /// cached horizon shows no command can issue by `to` and no
    /// recorded completion is due by then. Deliberately cheap — a stale
    /// horizon answers `false` rather than triggering a scheduling
    /// scan, so callers can use this as a per-sync fast-path guard
    /// (see `DramBridge::quiescent_until` in gsdram-system).
    pub fn quiescent_until(&self, to: Cycles) -> bool {
        self.time_skip && self.horizon.skips(to) && self.completions.iter().all(|c| c.at > to)
    }

    /// Whether any completions are recorded (at any time).
    pub fn has_completions(&self) -> bool {
        !self.completions.is_empty()
    }

    /// The earliest recorded completion time, if any.
    pub fn peek_completion(&self) -> Option<Cycles> {
        self.completions.iter().map(|c| c.at).min()
    }

    /// Advances just far enough that at least one completion exists,
    /// issuing commands at their exact legal times (the clock never
    /// overshoots the last issued command, so subsequently arriving
    /// requests are not penalised), emitting [`SimEvent`]s to `events`.
    /// Returns the earliest completion time, or `None` if no pending
    /// work can ever complete.
    pub fn advance_until_completion(&mut self, events: &mut EventHub) -> Option<Cycles> {
        loop {
            if let Some(t) = self.peek_completion() {
                return Some(t);
            }
            if self.pending() == 0 || !self.step(Cycles::MAX, events) {
                return None;
            }
        }
    }

    /// Whether any queued request would hit the open row of
    /// `(rank, bank)`.
    fn queued_hit_for(&self, rank: usize, bank: usize) -> bool {
        let Some(row) = self.ranks[rank].open_row(bank) else {
            return false;
        };
        self.readq
            .iter()
            .chain(self.writeq.iter())
            .any(|p| p.req.loc.rank == rank && p.req.loc.bank == bank && p.req.loc.row == row)
    }

    /// Under the closed-row policy: the next due auto-precharge, if any
    /// is still warranted (drops entries whose row closed or became
    /// useful again).
    fn close_candidate(&mut self, from: Cycles) -> Option<(usize, DramCommand, Cycles)> {
        while let Some(&(rank, bank)) = self.pending_close.first() {
            if self.ranks[rank].open_row(bank).is_none() || self.queued_hit_for(rank, bank) {
                self.pending_close.remove(0);
                continue;
            }
            let cmd = DramCommand::Precharge { bank };
            let at = self.earliest_on(rank, &cmd, from);
            return Some((rank, cmd, at));
        }
        None
    }

    /// Pure preview of [`close_candidate`](Self::close_candidate):
    /// the next due auto-precharge time without dropping stale entries
    /// (the next scheduling step drops them; skipping them here is
    /// equivalent because only still-warranted entries can act).
    fn peek_close(&self, from: Cycles) -> Option<Cycles> {
        for &(rank, bank) in &self.pending_close {
            if self.ranks[rank].open_row(bank).is_none() || self.queued_hit_for(rank, bank) {
                continue;
            }
            let cmd = DramCommand::Precharge { bank };
            return Some(self.earliest_on(rank, &cmd, from));
        }
        None
    }

    /// Issues the single next command whose legal issue time is ≤
    /// `limit` (refresh included), advancing the clock exactly to it.
    /// Returns `false` when nothing could be issued within `limit`.
    fn step(&mut self, limit: Cycles, events: &mut EventHub) -> bool {
        {
            // Every queued request yields a per-bank representative
            // candidate, so "a read candidate exists" is exactly "the
            // read queue is non-empty" — the write-drain decision needs
            // no read scan.
            let have_ready_read = !self.readq.is_empty();
            let writes = self.serving_writes(have_ready_read, events);
            let mut cands = std::mem::take(&mut self.cand_buf);
            let mut bank_best = std::mem::take(&mut self.bank_best);
            let queue = if writes { &self.writeq } else { &self.readq };
            self.candidates_into(queue, self.now, &mut bank_best, &mut cands);
            let from_writeq = writes;

            // Pass 2 belongs to the scheduling engine.
            let best = if cands.is_empty() {
                None
            } else {
                Some(cands[self.sched.select(&cands)])
            };
            self.cand_buf = cands;
            self.bank_best = bank_best;

            // Closed-row policy: a due auto-precharge competes with (and
            // on ties loses to) request commands.
            if self.cfg.row_policy == RowPolicy::Closed {
                if let Some((rank, cmd, at)) = self.close_candidate(self.now) {
                    let beats = best.is_none_or(|c| at < c.ready);
                    let refresh_blocks = self.refresh.preempts(at, limit);
                    if beats && !refresh_blocks {
                        if at > limit {
                            // Next state change: this precharge, unless
                            // a refresh comes due first (the precharge
                            // beats `best`, so `best` never fires
                            // earlier).
                            let mut fold = TimeFold::new();
                            fold.fold(at);
                            fold.fold_opt(self.refresh.horizon());
                            self.horizon.learn(fold.earliest());
                            return false;
                        }
                        self.issue(rank, cmd, at, events);
                        self.pending_close.remove(0);
                        return true;
                    }
                }
            }

            // Refresh takes priority over any command not strictly
            // earlier than it.
            if self.refresh.due_by(limit) && best.is_none_or(|c| c.ready >= self.refresh.next_due())
            {
                self.do_refresh(events);
                return true;
            }

            let Some(Candidate {
                queue_idx: idx,
                rank,
                bank,
                cmd,
                ready: at,
                ..
            }) = best
            else {
                // Nothing pending: only a refresh can happen.
                self.horizon.learn(self.refresh.horizon());
                return false;
            };

            // Do not run past `limit`.
            if at > limit {
                // Next state change: the selected command, unless a
                // refresh comes due first (any due auto-precharge did
                // not beat it, so it cannot fire earlier either).
                let mut fold = TimeFold::new();
                fold.fold(at);
                fold.fold_opt(self.refresh.horizon());
                self.horizon.learn(fold.earliest());
                return false;
            }

            let is_column = cmd.is_column();
            // Occupancy at issue, the serviced request included —
            // sampled before the retire below removes it.
            let depth_at_issue = self.pending() as u32;
            let data_end = self.issue(rank, cmd, at, events);
            if is_column && self.cfg.row_policy == RowPolicy::Closed {
                if let Some(bank) = cmd.bank() {
                    if !self.pending_close.contains(&(rank, bank)) {
                        self.pending_close.push((rank, bank));
                    }
                }
            }
            let queue = if from_writeq {
                &mut self.writeq
            } else {
                &mut self.readq
            };
            if is_column {
                // Oldest request still pending in this queue (serviced
                // one included) — fairness engines judge the service
                // against it.
                let oldest_seq = queue.iter().fold(u64::MAX, |m, p| m.min(p.seq));
                let p = queue.swap_remove(idx);
                // gsdram-lint: allow(D4) issue() returns a data window for every column command
                let at_done = data_end.expect("column command returns completion");
                self.completions.push(Completion {
                    id: p.req.id,
                    at: at_done,
                });
                let served = p.served.unwrap_or(RowBufferState::Hit);
                match served {
                    RowBufferState::Hit => self.stats.row_hits += 1,
                    RowBufferState::Closed => self.stats.row_closed += 1,
                    RowBufferState::Conflict => self.stats.row_conflicts += 1,
                }
                self.depth_hist.record(u64::from(depth_at_issue));
                match p.req.kind {
                    AccessKind::Read => {
                        let latency = at_done - p.arrival;
                        self.stats.note_read_latency(latency);
                        self.read_hist.record(latency);
                    }
                    AccessKind::Write => self.stats.writes += 1,
                }
                let channel = self.channel;
                events.emit(|| SimEvent::DramService {
                    id: p.req.id,
                    channel,
                    bank: p.req.loc.bank,
                    pattern: p.req.pattern,
                    write: p.req.kind == AccessKind::Write,
                    outcome: match served {
                        RowBufferState::Hit => RowOutcome::Hit,
                        RowBufferState::Closed => RowOutcome::Closed,
                        RowBufferState::Conflict => RowOutcome::Conflict,
                    },
                    queue_depth: depth_at_issue,
                    arrived_at_mem: p.arrival,
                    done_at_mem: at_done,
                });
                // Report the retire to the scheduling engine; fold any
                // fairness decision into stats and telemetry.
                let fb = self.sched.on_retire(Retired {
                    seq: p.seq,
                    is_hit: served == RowBufferState::Hit,
                    slot: rank * self.cfg.banks + bank,
                    oldest_seq,
                });
                for (taken, counter, kind) in [
                    (
                        fb.hit_bypass,
                        &mut self.stats.sched_hit_bypasses,
                        SchedDecisionKind::RowHitBypass,
                    ),
                    (
                        fb.promoted,
                        &mut self.stats.sched_promotions,
                        SchedDecisionKind::StarvationPromotion,
                    ),
                    (
                        fb.rotated,
                        &mut self.stats.sched_batch_rotations,
                        SchedDecisionKind::BatchRotation,
                    ),
                ] {
                    if taken {
                        *counter += 1;
                        events.emit(|| SimEvent::SchedDecision {
                            channel,
                            kind,
                            at_mem: at,
                        });
                    }
                }
            } else {
                // Remember how this request is being served: a precharge
                // marks a row conflict; a bare activate a closed-row
                // access.
                let p = &mut queue[idx];
                match cmd {
                    DramCommand::Activate { .. } if p.served.is_none() => {
                        p.served = Some(RowBufferState::Closed);
                    }
                    DramCommand::Precharge { .. } => p.served = Some(RowBufferState::Conflict),
                    _ => {}
                }
            }
            true
        }
    }

    /// Runs until all pending requests have completed, returning the
    /// cycle the last data burst finished.
    pub fn drain(&mut self) -> Cycles {
        let mut last = self.now;
        while self.pending() > 0 {
            let target = self.now + self.cfg.timing.refi;
            self.advance(target);
        }
        for c in &self.completions {
            last = last.max(c.at);
        }
        last
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::AddressMap;
    use gsdram_core::PatternId;

    fn read_req(id: u64, addr: u64) -> MemRequest {
        MemRequest {
            id,
            loc: AddressMap::table1().decompose(addr),
            pattern: PatternId(0),
            kind: AccessKind::Read,
        }
    }

    fn write_req(id: u64, addr: u64) -> MemRequest {
        MemRequest {
            kind: AccessKind::Write,
            ..read_req(id, addr)
        }
    }

    fn quiet_cfg() -> ControllerConfig {
        ControllerConfig {
            refresh: false,
            ..ControllerConfig::default()
        }
    }

    #[test]
    fn stats_merge_sums_every_counter() {
        // Exhaustive struct literals (no `..Default::default()`): adding
        // a counter without extending `merge` fails to compile here, and
        // the field-by-field asserts catch a counter `merge` drops.
        let mut a = ControllerStats {
            reads: 1,
            writes: 2,
            row_hits: 3,
            row_closed: 4,
            row_conflicts: 5,
            activates: 6,
            precharges: 7,
            refreshes: 8,
            total_read_latency: 9,
            min_read_latency: 9,
            max_read_latency: 9,
            bus_busy_cycles: 10,
            sched_hit_bypasses: 11,
            sched_promotions: 12,
            sched_batch_rotations: 13,
            drain_entries: 14,
            drain_exits: 15,
        };
        let b = ControllerStats {
            reads: 10,
            writes: 20,
            row_hits: 30,
            row_closed: 40,
            row_conflicts: 50,
            activates: 60,
            precharges: 70,
            refreshes: 80,
            total_read_latency: 90,
            min_read_latency: 4,
            max_read_latency: 30,
            bus_busy_cycles: 100,
            sched_hit_bypasses: 110,
            sched_promotions: 120,
            sched_batch_rotations: 130,
            drain_entries: 140,
            drain_exits: 150,
        };
        a.merge(&b);
        assert_eq!(a.reads, 11);
        assert_eq!(a.writes, 22);
        assert_eq!(a.row_hits, 33);
        assert_eq!(a.row_closed, 44);
        assert_eq!(a.row_conflicts, 55);
        assert_eq!(a.activates, 66);
        assert_eq!(a.precharges, 77);
        assert_eq!(a.refreshes, 88);
        assert_eq!(a.total_read_latency, 99);
        assert_eq!(a.min_read_latency, 4, "min takes the smaller side");
        assert_eq!(a.max_read_latency, 30, "max takes the larger side");
        assert_eq!(a.bus_busy_cycles, 110);
        assert_eq!(a.sched_hit_bypasses, 121);
        assert_eq!(a.sched_promotions, 132);
        assert_eq!(a.sched_batch_rotations, 143);
        assert_eq!(a.drain_entries, 154);
        assert_eq!(a.drain_exits, 165);
        assert_eq!(
            a,
            ControllerStats {
                reads: 11,
                writes: 22,
                row_hits: 33,
                row_closed: 44,
                row_conflicts: 55,
                activates: 66,
                precharges: 77,
                refreshes: 88,
                total_read_latency: 99,
                min_read_latency: 4,
                max_read_latency: 30,
                bus_busy_cycles: 110,
                sched_hit_bypasses: 121,
                sched_promotions: 132,
                sched_batch_rotations: 143,
                drain_entries: 154,
                drain_exits: 165,
            }
        );
        // Merging the default is the identity: a read-free side must
        // not drag min_read_latency to 0.
        let before = a;
        a.merge(&ControllerStats::default());
        assert_eq!(a, before);
        // And merging *into* a read-free side adopts the other's range.
        let mut empty = ControllerStats::default();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn decision_counters_stay_out_of_the_default_stats_schema() {
        // The frozen figure-JSON schema: a stats tree with no engine
        // decisions must not mention the decision counters at all...
        let quiet = ControllerStats {
            reads: 5,
            row_hits: 4,
            ..ControllerStats::default()
        };
        let json = quiet.stats_node("dram").to_json();
        assert!(!json.contains("sched_"), "{json}");
        assert!(!json.contains("drain_"), "{json}");
        // ...while any decision surfaces all five counters.
        let busy = ControllerStats {
            drain_entries: 1,
            ..quiet
        };
        let json = busy.stats_node("dram").to_json();
        for key in [
            "sched_hit_bypasses",
            "sched_promotions",
            "sched_batch_rotations",
            "drain_entries",
            "drain_exits",
        ] {
            assert!(json.contains(key), "{key} missing from {json}");
        }
        assert_eq!(busy.engine_decisions(), 1);
    }

    #[test]
    fn single_read_latency_is_closed_row_path() {
        let mut c = MemController::new(quiet_cfg());
        c.enqueue(read_req(1, 0), 0);
        c.advance(1000);
        let done = c.take_completions(1000);
        assert_eq!(done.len(), 1);
        let t = TimingParams::ddr3_1600();
        // ACT at 0, READ at tRCD, data at +CL+burst.
        assert_eq!(done[0].at, t.rcd + t.cl + t.burst);
        assert_eq!(c.stats().reads, 1);
        assert_eq!(c.stats().row_closed, 1);
    }

    #[test]
    fn row_hit_is_faster_than_conflict() {
        // Two reads to the same row: second is a hit, spaced by tCCD.
        let mut c = MemController::new(quiet_cfg());
        c.enqueue(read_req(1, 0), 0);
        c.enqueue(read_req(2, 64), 0);
        c.advance(1000);
        let done = c.take_completions(1000);
        let t = TimingParams::ddr3_1600();
        assert_eq!(done[1].at - done[0].at, t.ccd);
        assert_eq!(c.stats().row_hits, 1);
        assert_eq!(c.stats().row_closed, 1);

        // Conflict: same bank, different row.
        let mut c = MemController::new(quiet_cfg());
        c.enqueue(read_req(1, 0), 0);
        // Row 1 of bank 0 starts at line 128*8 = addr 65536.
        c.enqueue(read_req(2, 65536), 0);
        c.advance(10000);
        let done = c.take_completions(10000);
        assert!(done[1].at - done[0].at > t.ccd * 4);
        assert_eq!(c.stats().row_conflicts, 1);
    }

    #[test]
    fn frfcfs_prefers_row_hits_over_older_conflicts() {
        let mut c = MemController::new(quiet_cfg());
        // Open row 0 of bank 0.
        c.enqueue(read_req(1, 0), 0);
        c.advance(50);
        // Older conflicting request (row 1), then a younger hit (row 0).
        c.enqueue(read_req(2, 65536), 50);
        c.enqueue(read_req(3, 64), 50);
        c.advance(10000);
        let done = c.take_completions(10000);
        let pos2 = done.iter().position(|x| x.id == 2).unwrap();
        let pos3 = done.iter().position(|x| x.id == 3).unwrap();
        assert!(done[pos3].at < done[pos2].at, "hit must finish first");
    }

    #[test]
    fn next_event_is_exact_and_pins_advance_until_completion() {
        // Walk a mixed read/write stream (row hits, conflicts, drain
        // mode, refresh all in play) strictly through next_event():
        // stepping to bound-1 must issue nothing, stepping to the bound
        // must issue something. A twin controller running the one-shot
        // advance_until_completion path must land on the identical
        // completion schedule.
        let req = |i: u64| {
            let addr = (i % 6) * 65536 + i * 64;
            if i.is_multiple_of(3) {
                write_req(i, addr)
            } else {
                read_req(i, addr)
            }
        };
        let mut c = MemController::new(ControllerConfig::default());
        let mut twin = MemController::new(ControllerConfig::default());
        for i in 0..24 {
            c.enqueue(req(i), i * 7);
            twin.enqueue(req(i), i * 7);
        }
        // Command-issue observables only: drain-mode edge counters may
        // lazily materialise at the first step after an enqueue, which
        // the time-skip contract deliberately leaves unscheduled.
        let obs = |c: &MemController| {
            let s = c.stats();
            let issued = (s.reads, s.writes, s.activates, s.precharges, s.refreshes);
            (issued, c.pending())
        };
        let mut guard = 0;
        while c.pending() > 0 {
            let ne = c.next_event().expect("pending work must report a bound");
            if ne > 0 {
                let before = obs(&c);
                c.advance(ne - 1);
                assert_eq!(obs(&c), before, "issued before the reported bound {ne}");
            }
            let before = obs(&c);
            c.advance(ne);
            assert_ne!(obs(&c), before, "no progress at the reported bound {ne}");
            guard += 1;
            assert!(guard < 10_000, "next_event walk failed to converge");
        }
        let mut expect = Vec::new();
        while twin
            .advance_until_completion(&mut EventHub::new())
            .is_some()
        {
            twin.take_completions_into(Cycles::MAX, &mut expect);
        }
        let walked = c.take_completions(Cycles::MAX);
        assert!(!walked.is_empty());
        assert_eq!(
            walked.iter().map(|x| (x.id, x.at)).collect::<Vec<_>>(),
            expect.iter().map(|x| (x.id, x.at)).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn fcfs_serves_in_arrival_order() {
        let mut c = MemController::new(ControllerConfig {
            policy: SchedPolicy::Fcfs,
            refresh: false,
            ..ControllerConfig::default()
        });
        c.enqueue(read_req(1, 0), 0);
        c.advance(50);
        c.enqueue(read_req(2, 65536), 50);
        c.enqueue(read_req(3, 64), 50);
        c.advance(20000);
        let done = c.take_completions(20000);
        let pos2 = done.iter().position(|x| x.id == 2).unwrap();
        let pos3 = done.iter().position(|x| x.id == 3).unwrap();
        assert!(done[pos2].at < done[pos3].at, "FCFS must serve older first");
    }

    #[test]
    fn writes_drain_when_no_reads() {
        let mut c = MemController::new(quiet_cfg());
        c.enqueue(write_req(1, 0), 0);
        c.advance(1000);
        assert_eq!(c.stats().writes, 1);
        assert_eq!(c.take_completions(1000).len(), 1);
    }

    #[test]
    fn reads_prioritized_over_writes_below_watermark() {
        let mut c = MemController::new(quiet_cfg());
        c.enqueue(write_req(1, 65536), 0);
        c.enqueue(read_req(2, 0), 0);
        c.advance(10000);
        let done = c.take_completions(10000);
        let pos1 = done.iter().position(|x| x.id == 1).unwrap();
        let pos2 = done.iter().position(|x| x.id == 2).unwrap();
        assert!(
            done[pos2].at < done[pos1].at,
            "read must finish before write"
        );
    }

    #[test]
    fn write_watermark_forces_drain() {
        let mut cfg = quiet_cfg();
        cfg.write_high_watermark = 4;
        cfg.write_low_watermark = 1;
        let mut c = MemController::new(cfg);
        for i in 0..6 {
            c.enqueue(write_req(i, i * 64), 0);
        }
        // A stream of reads that would otherwise starve writes.
        for i in 0..4 {
            c.enqueue(read_req(100 + i, 1_000_000 + i * 64), 0);
        }
        c.advance(100_000);
        assert_eq!(c.stats().writes, 6);
        assert_eq!(c.stats().reads, 4);
    }

    #[test]
    fn refresh_happens_periodically() {
        let mut c = MemController::new(ControllerConfig::default());
        let t = TimingParams::ddr3_1600();
        c.advance(t.refi * 3 + 10);
        assert_eq!(c.stats().refreshes, 3);
    }

    #[test]
    fn refresh_closes_open_rows() {
        let mut c = MemController::new(ControllerConfig::default());
        c.enqueue(read_req(1, 0), 0);
        let t = TimingParams::ddr3_1600();
        c.advance(t.refi + t.rfc + 100);
        assert_eq!(c.stats().refreshes, 1);
        assert!(c.stats().precharges >= 1, "open row must close before REF");
    }

    #[test]
    fn advance_does_not_issue_past_target() {
        let mut c = MemController::new(quiet_cfg());
        c.enqueue(read_req(1, 0), 0);
        c.advance(5); // Not enough time for ACT+RCD+READ.
        assert_eq!(c.pending(), 1);
        assert_eq!(c.take_completions(5).len(), 0);
        c.advance(1000);
        assert_eq!(c.take_completions(1000).len(), 1);
    }

    #[test]
    fn future_arrivals_wait() {
        let mut c = MemController::new(quiet_cfg());
        c.enqueue(read_req(1, 0), 500);
        c.advance(400);
        assert_eq!(c.take_completions(400).len(), 0);
        c.advance(2000);
        let done = c.take_completions(2000);
        assert_eq!(done.len(), 1);
        assert!(done[0].at >= 500);
    }

    #[test]
    fn pattern_reads_cost_the_same_as_normal_reads() {
        // The core claim of §3.6: a gather is one ordinary READ.
        let t = TimingParams::ddr3_1600();
        let mut normal = MemController::new(quiet_cfg());
        normal.enqueue(read_req(1, 0), 0);
        normal.advance(1000);
        let t_normal = normal.take_completions(1000)[0].at;

        let mut gs = MemController::new(quiet_cfg());
        gs.enqueue(
            MemRequest {
                pattern: PatternId(7),
                ..read_req(1, 0)
            },
            0,
        );
        gs.advance(1000);
        let t_gs = gs.take_completions(1000)[0].at;
        assert_eq!(t_normal, t_gs);
        assert_eq!(t_gs, t.rcd + t.cl + t.burst);
    }

    #[test]
    fn drain_completes_everything() {
        let mut c = MemController::new(ControllerConfig::default());
        for i in 0..64 {
            c.enqueue(read_req(i, i * 64 * 997), i);
        }
        let end = c.drain();
        assert_eq!(c.pending(), 0);
        let done = c.take_completions(end);
        assert_eq!(done.len(), 64);
    }

    #[test]
    fn two_ranks_overlap_row_activations() {
        // The same two row-conflict streams finish faster when split
        // across ranks: activations overlap while the data bus is shared.
        let map2 = AddressMap::with_ranks(64, 128, 8, 2, crate::mapping::Interleave::ColumnFirst);
        let run = |ranks: usize| {
            let mut c = MemController::new(ControllerConfig {
                ranks,
                refresh: false,
                ..ControllerConfig::default()
            });
            // Requests alternating between two far-apart regions that
            // map to the same bank (rank differs when ranks = 2).
            let stride = 128 * 64; // one full row of one bank
            for i in 0..16u64 {
                let addr = (i % 2) * (8 * stride) + (i / 2) * 16 * stride;
                let loc = if ranks == 2 {
                    map2.decompose(addr)
                } else {
                    AddressMap::table1().decompose(addr)
                };
                c.enqueue(
                    MemRequest {
                        id: i,
                        loc,
                        pattern: PatternId(0),
                        kind: AccessKind::Read,
                    },
                    0,
                );
            }
            c.drain()
        };
        let one = run(1);
        let two = run(2);
        assert!(two < one, "2 ranks {two} !< 1 rank {one}");
    }

    #[test]
    fn rank_turnaround_separates_bursts() {
        // Two row hits on different ranks must be spaced by at least
        // the burst plus tRTRS on the data bus.
        let t = TimingParams::ddr3_1600();
        let map2 = AddressMap::with_ranks(64, 128, 8, 2, crate::mapping::Interleave::ColumnFirst);
        let mut c = MemController::new(ControllerConfig {
            ranks: 2,
            refresh: false,
            ..ControllerConfig::default()
        });
        c.enable_trace();
        // Rank 0 and rank 1, same bank/row/col.
        let a0 = 0u64;
        let a1 = 128 * 64 * 8; // next rank, ColumnFirst with 8 banks
        assert_eq!(map2.decompose(a1).rank, 1);
        c.enqueue(
            MemRequest {
                id: 0,
                loc: map2.decompose(a0),
                pattern: PatternId(0),
                kind: AccessKind::Read,
            },
            0,
        );
        c.enqueue(
            MemRequest {
                id: 1,
                loc: map2.decompose(a1),
                pattern: PatternId(0),
                kind: AccessKind::Read,
            },
            0,
        );
        let end = c.drain();
        let done = c.take_completions(end);
        let mut ats: Vec<u64> = done.iter().map(|x| x.at).collect();
        ats.sort_unstable();
        assert!(
            ats[1] - ats[0] >= t.burst + t.rtrs,
            "bursts too close: {ats:?}"
        );
        crate::verify::check_trace(c.trace().unwrap(), &t, 8).unwrap();
    }

    #[test]
    fn closed_policy_precharges_idle_rows() {
        let mut c = MemController::new(ControllerConfig {
            row_policy: RowPolicy::Closed,
            refresh: false,
            ..ControllerConfig::default()
        });
        c.enable_trace();
        c.enqueue(read_req(1, 0), 0);
        c.advance(1000);
        assert_eq!(c.take_completions(1000).len(), 1);
        // The row was closed by policy, without any conflicting access.
        assert_eq!(c.stats().precharges, 1);
        // A second access to a different row pays no conflict precharge.
        c.enqueue(read_req(2, 65536), 1000);
        c.advance(5000);
        assert_eq!(c.stats().row_conflicts, 0);
        crate::verify::check_trace(c.trace().unwrap(), &TimingParams::ddr3_1600(), 8).unwrap();
    }

    #[test]
    fn closed_policy_spares_rows_with_queued_hits() {
        let mut c = MemController::new(ControllerConfig {
            row_policy: RowPolicy::Closed,
            refresh: false,
            ..ControllerConfig::default()
        });
        // Two hits to the same row queued together: no precharge between
        // them.
        c.enqueue(read_req(1, 0), 0);
        c.enqueue(read_req(2, 64), 0);
        c.advance(10_000);
        let done = c.take_completions(10_000);
        let t = TimingParams::ddr3_1600();
        assert_eq!(done[1].at - done[0].at, t.ccd, "second hit not delayed");
    }

    #[test]
    fn open_vs_closed_tradeoff() {
        // Streaming (row hits) favours open; random rows favour closed.
        let stream = |policy| {
            let mut c = MemController::new(ControllerConfig {
                row_policy: policy,
                refresh: false,
                ..ControllerConfig::default()
            });
            for i in 0..32u64 {
                c.enqueue(read_req(i, i * 64), i * 40);
            }
            c.drain()
        };
        assert!(stream(RowPolicy::Open) <= stream(RowPolicy::Closed));

        let random_rows = |policy| {
            let mut c = MemController::new(ControllerConfig {
                row_policy: policy,
                refresh: false,
                ..ControllerConfig::default()
            });
            for i in 0..32u64 {
                // Same bank, different row each time, spaced out enough
                // for the auto-precharge to win.
                c.enqueue(read_req(i, i * 65536), i * 120);
            }
            c.drain()
        };
        assert!(random_rows(RowPolicy::Closed) < random_rows(RowPolicy::Open));
    }

    #[test]
    fn energy_accumulates_with_activity() {
        let mut c = MemController::new(quiet_cfg());
        c.enqueue(read_req(1, 0), 0);
        c.advance(10_000);
        let e = c.energy();
        assert!(e.activation_nj > 0.0);
        assert!(e.read_nj > 0.0);
        assert!(e.background_nj > 0.0);
        assert!(e.total_nj() > e.read_nj);
    }

    #[test]
    fn bus_busy_cycles_track_bursts() {
        let mut c = MemController::new(quiet_cfg());
        for i in 0..16 {
            c.enqueue(read_req(i, i * 64), 0);
        }
        let end = c.drain();
        let t = TimingParams::ddr3_1600();
        assert_eq!(c.stats().bus_busy_cycles, 16 * t.burst);
        assert!(c.stats().bus_utilisation(end) > 0.0);
        assert!(c.stats().bus_utilisation(end) <= 1.0);
        assert_eq!(c.stats().bus_utilisation(0), 0.0);
    }

    #[test]
    fn latency_counters_and_histograms_agree() {
        let mut c = MemController::new(quiet_cfg());
        for i in 0..16 {
            c.enqueue(read_req(i, i * 64 * 997), 0);
        }
        let end = c.drain();
        c.take_completions(end);
        let s = c.stats();
        let h = c.read_latency_hist();
        assert_eq!(h.count(), s.reads);
        assert_eq!(h.sum(), s.total_read_latency);
        assert_eq!(h.min(), s.min_read_latency);
        assert_eq!(h.max(), s.max_read_latency);
        assert!(s.min_read_latency > 0);
        assert!(s.min_read_latency <= s.max_read_latency);
        // One depth sample per serviced request; all 16 were queued
        // when the first retired.
        assert_eq!(c.queue_depth_hist().count(), s.reads + s.writes);
        assert_eq!(c.queue_depth_hist().max(), 16);
        assert_eq!(c.queue_depth_hist().min(), 1);
    }

    #[test]
    fn observed_advance_emits_commands_and_service_events() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let seen: Rc<RefCell<Vec<SimEvent>>> = Rc::default();
        let log = Rc::clone(&seen);
        let mut hub = EventHub::new();
        hub.attach(Box::new(move |ev: &SimEvent| log.borrow_mut().push(*ev)));
        let mut c = MemController::new(quiet_cfg());
        c.set_channel(3);
        c.enqueue(read_req(1, 0), 0);
        c.advance_observed(1000, &mut hub);
        let done = c.take_completions(1000);
        let seen = seen.borrow();
        // A cold read is exactly ACT then READ.
        let kinds: Vec<DramCmdKind> = seen
            .iter()
            .filter_map(|e| match *e {
                SimEvent::DramCommand { channel, kind, .. } => {
                    assert_eq!(channel, 3);
                    Some(kind)
                }
                _ => None,
            })
            .collect();
        assert_eq!(kinds, [DramCmdKind::Activate, DramCmdKind::Read]);
        let service = seen
            .iter()
            .find_map(|e| match *e {
                SimEvent::DramService {
                    id,
                    channel,
                    outcome,
                    queue_depth,
                    arrived_at_mem,
                    done_at_mem,
                    write,
                    ..
                } => Some((
                    id,
                    channel,
                    outcome,
                    queue_depth,
                    arrived_at_mem,
                    done_at_mem,
                    write,
                )),
                _ => None,
            })
            .expect("one DramService event");
        assert_eq!(service, (1, 3, RowOutcome::Closed, 1, 0, done[0].at, false));
    }

    #[test]
    fn observation_does_not_change_behaviour() {
        // An attached sink must not perturb scheduling, completions or
        // statistics — the bit-identity invariant at controller level.
        let run = |observe: bool| {
            let mut c = MemController::new(ControllerConfig::default());
            let mut hub = EventHub::new();
            if observe {
                hub.attach(Box::new(|_: &SimEvent| {}));
            }
            for i in 0..32 {
                c.enqueue(read_req(i, i * 64 * 997), i * 3);
            }
            let mut t = 0;
            while c.pending() > 0 {
                t += 1000;
                c.advance_observed(t, &mut hub);
            }
            (
                c.take_completions(t),
                c.stats(),
                c.read_latency_hist().clone(),
                c.queue_depth_hist().clone(),
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn stats_track_hit_rate() {
        let mut c = MemController::new(quiet_cfg());
        for i in 0..16 {
            c.enqueue(read_req(i, i * 64), 0);
        }
        c.advance(100_000);
        let s = c.stats();
        assert_eq!(s.reads, 16);
        assert_eq!(s.row_hits, 15);
        assert!(s.row_hit_rate() > 0.9);
        assert!(s.avg_read_latency() > 0.0);
    }
}
