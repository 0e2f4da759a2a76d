//! The DRAM bridge: everything below the caches.
//!
//! [`DramBridge`] owns the GS-DRAM module (the actual data), the
//! per-channel memory controllers (the timing, with a pluggable
//! scheduling engine — FR-FCFS by default), the address map (with its
//! configurable bank-hash stage), and the outstanding-fetch tracking that ties controller-level
//! sub-requests back to logical line fetches. It speaks two clock
//! domains: callers pass CPU-cycle times; controllers run on
//! memory-controller cycles (the bridge converts at the boundary).
//!
//! A logical fetch is one column command under GS-DRAM and one
//! default-pattern command per covered line under Impulse; the bridge
//! hides that difference behind `DramBridge::enqueue_fetch` /
//! `DramBridge::enqueue_write` and reports a fetch as a single
//! `FetchDone` once its last sub-request completes. Delivery back
//! into the caches (fills, pending stores, core wake-ups) is the
//! machine's composition job and lives in the `impl Machine` block
//! here.
//!
//! Hot-path note: a line whose word-address semantics match its page's
//! shuffle flag (every GS-DRAM line, every default-pattern line) moves
//! with one module gather or scatter; only Impulse's controller-side
//! gathers on unshuffled pages walk word addresses. Those and the
//! sub-request expansion reuse per-bridge scratch buffers, so
//! steady-state fetch/writeback traffic does not allocate.

use gsdram_cache::cache::{Fill, LineKey};
use gsdram_cache::overlap::OverlapCalc;
use gsdram_core::port::{EventHub, MemReq, SimEvent};
use gsdram_core::stats::{ReportStats, StatsNode};
use gsdram_core::time::TimeFold;
use gsdram_core::{cast, AccessError, ColumnId, Geometry, GsModule, PatternId, RowId};
use gsdram_dram::controller::{
    AccessKind, Completion, ControllerStats, MemController, MemRequest, ReqId,
};
use gsdram_dram::energy::EnergyBreakdown;
use gsdram_dram::mapping::AddressMap;
use gsdram_telemetry::Histogram;

use crate::config::{GatherSupport, SystemConfig};
use crate::hier::fill_l2;
use crate::machine::Machine;
use crate::ops::Program;
use crate::page::PageTable;

/// A core blocked on an in-flight line fetch, with the request to
/// finish once data arrives.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Waiter {
    /// The blocked core.
    pub(crate) core: usize,
    /// The request to complete on delivery.
    pub(crate) req: MemReq,
}

/// One logical line fetch in flight at the controllers.
#[derive(Debug, Clone)]
struct Outstanding {
    /// The fetch's own id; its sub-requests are `id + 1..=id + subs`.
    id: ReqId,
    /// Sub-requests enqueued (1 for GS-DRAM; the number of covered
    /// lines for an Impulse gather).
    subs: u64,
    key: LineKey,
    shuffled: bool,
    waiters: Vec<Waiter>,
    /// Sub-requests still in flight.
    remaining: usize,
    /// Completion time of the latest finished sub-request (mem cycles).
    done_at: u64,
}

/// A logical line fetch whose last sub-request has completed, ready for
/// cache delivery.
#[derive(Debug)]
pub(crate) struct FetchDone {
    /// The fetched line.
    pub(crate) key: LineKey,
    /// Whether the line travelled the shuffle datapath.
    pub(crate) shuffled: bool,
    /// Cores to wake and requests to finish.
    pub(crate) waiters: Vec<Waiter>,
    /// Completion time of the slowest sub-request (mem cycles).
    pub(crate) done_at: u64,
}

/// What the bridge enqueued on one channel: the cross-channel load
/// split, counted at the enqueue boundary (controller stats count
/// issued commands; this counts logical sub-requests routed there).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelLoadStats {
    /// Read sub-requests routed to the channel.
    pub reads: u64,
    /// Write sub-requests routed to the channel.
    pub writes: u64,
}

impl ChannelLoadStats {
    /// Folds another channel's load into this one — the aggregation
    /// point the per-channel merge-exactness test exercises.
    pub fn merge(&mut self, other: &Self) {
        self.reads += other.reads;
        self.writes += other.writes;
    }
}

impl ReportStats for ChannelLoadStats {
    fn stats_node(&self, name: &str) -> StatsNode {
        StatsNode::new(name)
            .counter("enq_reads", self.reads)
            .counter("enq_writes", self.writes)
    }
}

/// One channel's telemetry snapshot: routed load, controller counters
/// and energy, reported as a per-channel subtree when a machine has
/// more than one channel.
#[derive(Debug, Clone)]
pub struct ChannelReport {
    /// Sub-requests the bridge routed to the channel.
    pub load: ChannelLoadStats,
    /// The channel controller's counters.
    pub dram: ControllerStats,
    /// The channel's energy breakdown.
    pub energy: EnergyBreakdown,
}

impl ReportStats for ChannelReport {
    fn stats_node(&self, name: &str) -> StatsNode {
        self.load
            .stats_node(name)
            .child(self.dram.stats_node("dram"))
            .child(self.energy.stats_node("energy"))
    }
}

/// The DRAM side of the machine. See the [module docs](self).
#[derive(Debug)]
pub struct DramBridge {
    module: GsModule,
    map: AddressMap,
    controllers: Vec<MemController>,
    loads: Vec<ChannelLoadStats>,
    overlap: OverlapCalc,
    gather: GatherSupport,
    chips: usize,
    cpu_per_mem: u64,
    /// Logical fetches in flight, at most one per line key. Short (the
    /// controllers' queues bound it), so lookups scan it.
    outstanding: Vec<Outstanding>,
    /// Emptied waiter lists of delivered fetches, reused by the next
    /// fetches so a miss does not allocate one.
    spare_waiters: Vec<Vec<Waiter>>,
    /// log2 of the DRAM row size in bytes.
    row_shift: u32,
    next_req: ReqId,
    /// Word-address scratch for functional line reads/writes.
    addr_buf: Vec<u64>,
    /// Sub-request scratch for enqueue expansion.
    sub_buf: Vec<(u64, PatternId)>,
    /// The CPU time memory was last synced to (the latest of every
    /// sync, quiet ones included): where the reference loop, which
    /// advances every channel at every sync, would have every clock.
    sync_cpu: u64,
    /// No channel has anything due before this CPU time: the earliest
    /// controller horizon or recorded completion, converted. A sync to
    /// an earlier time is quiet and advances nothing; a channel whose
    /// clock it leaves behind catches up before its next enqueue. Zero
    /// (nothing is quiet) after every enqueue and every
    /// advance-until-completion, until a full sync's
    /// [`advance_all`](Self::advance_all) learns it again.
    quiet_until: u64,
    /// Whether a quiet sync may have left a channel's clock behind
    /// `sync_cpu`. Only then does an enqueue catch its channel up, so a
    /// loop that never skips a sync never catches up.
    lagging: bool,
}

impl DramBridge {
    pub(crate) fn new(cfg: &SystemConfig) -> Self {
        let rows = cfg.memory_bytes / cast::to_usize(cfg.row_bytes());
        // gsdram-lint: allow(D4) rows.max(1) keeps the geometry constructor total
        let geom = Geometry::ddr3_row(&cfg.gsdram, rows.max(1)).expect("valid geometry");
        let overlap = OverlapCalc::new(cfg.gsdram.clone(), cast::widen(cfg.l2.line_bytes), 128);
        let row_bytes = overlap.row_bytes();
        assert!(
            row_bytes.is_power_of_two(),
            "row size must be a power of two, got {row_bytes}"
        );
        DramBridge {
            module: GsModule::new(cfg.gsdram.clone(), geom),
            map: AddressMap::with_shape(
                cast::widen(cfg.l2.line_bytes),
                128,
                cast::widen(cfg.controller.banks),
                cast::widen(cfg.controller.ranks),
                cast::widen(cfg.channels.max(1)),
                gsdram_dram::mapping::Interleave::ColumnFirst,
            )
            .with_hash(cfg.mapping),
            controllers: (0..cfg.channels.max(1))
                .map(|ch| {
                    let mut c = MemController::new(cfg.controller.clone());
                    c.set_channel(ch);
                    c
                })
                .collect(),
            loads: vec![ChannelLoadStats::default(); cfg.channels.max(1)],
            overlap,
            gather: cfg.gather,
            chips: cfg.gsdram.chips(),
            cpu_per_mem: cfg.cpu_per_mem,
            outstanding: Vec::new(),
            spare_waiters: Vec::new(),
            row_shift: row_bytes.trailing_zeros(),
            next_req: 0,
            addr_buf: Vec::new(),
            sub_buf: Vec::new(),
            sync_cpu: 0,
            quiet_until: 0,
            lagging: false,
        }
    }

    pub(crate) fn channels(&self) -> usize {
        self.controllers.len()
    }

    pub(crate) fn to_mem(&self, cpu: u64) -> u64 {
        cpu / self.cpu_per_mem
    }

    pub(crate) fn to_cpu(&self, mem: u64) -> u64 {
        mem * self.cpu_per_mem
    }

    fn row_col(&self, addr: u64) -> (RowId, ColumnId, usize) {
        let row = cast::to_u32(addr >> self.row_shift);
        let off = addr & ((1 << self.row_shift) - 1);
        (
            RowId(row),
            ColumnId(cast::to_u32(off / 64)),
            cast::to_usize((off % 64) / 8),
        )
    }

    /// The module row and logical row element holding the word at
    /// `addr`.
    fn element_at(&self, addr: u64) -> (RowId, usize) {
        let (row, col, word) = self.row_col(addr);
        (row, cast::index(col.0) * self.chips + word)
    }

    /// Writes `value` at `addr` directly into the DRAM module.
    pub(crate) fn poke(&mut self, pages: &PageTable, addr: u64, value: u64) {
        let shuffled = pages.info(addr).shuffle;
        let (row, element) = self.element_at(addr);
        self.module
            .write_element(row, element, shuffled, value)
            // gsdram-lint: allow(D4) row/element derive from an address the page table vetted
            .expect("poke within modelled memory");
    }

    /// Writes one whole line at line-aligned `addr` directly into the
    /// DRAM module with a single pattern-0 scatter.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not line-aligned, `line` is not one line
    /// long, or the line lies outside modelled memory.
    pub(crate) fn poke_line(&mut self, pages: &PageTable, addr: u64, line: &[u64]) {
        assert!(
            addr.is_multiple_of(64),
            "poke_line: address {addr:#x} is not line-aligned"
        );
        let shuffled = pages.info(addr).shuffle;
        let (row, col, _) = self.row_col(addr);
        if let Err(e) = self
            .module
            .write_line(row, col, PatternId::DEFAULT, shuffled, line)
        {
            panic!("poke_line at {addr:#x}: {e}");
        }
    }

    /// Reads the value at `addr` from the DRAM module.
    pub(crate) fn peek(&self, pages: &PageTable, addr: u64) -> u64 {
        let shuffled = pages.info(addr).shuffle;
        let (row, element) = self.element_at(addr);
        self.module
            .read_element(row, element, shuffled)
            // gsdram-lint: allow(D4) row/element derive from an address the page table vetted
            .expect("peek within modelled memory")
    }

    /// Functionally writes a line's words into the DRAM module.
    pub(crate) fn write_line(&mut self, pages: &PageTable, key: LineKey, data: &[u64]) {
        self.try_write_line(pages, key, data)
            // gsdram-lint: allow(D4) the key names a line inside the page table's memory
            .expect("writeback within modelled memory");
    }

    fn try_write_line(
        &mut self,
        pages: &PageTable,
        key: LineKey,
        data: &[u64],
    ) -> Result<(), AccessError> {
        let shuffled = pages.info(key.addr).shuffle;
        let sem = self.gather.addr_semantics(shuffled, key.pattern);
        if sem == shuffled {
            let (row, col, _) = self.row_col(key.addr);
            return self
                .module
                .write_line(row, col, key.pattern, shuffled, data);
        }
        let mut addrs = std::mem::take(&mut self.addr_buf);
        self.overlap.word_addresses_into(key, sem, &mut addrs);
        for (a, v) in addrs.iter().zip(data) {
            let (row, element) = self.element_at(*a);
            self.module.write_element(row, element, shuffled, *v)?;
        }
        self.addr_buf = addrs;
        Ok(())
    }

    /// Functionally reads a line's words from the DRAM module into
    /// `out` (cleared first).
    pub(crate) fn read_line_into(&mut self, pages: &PageTable, key: LineKey, out: &mut Vec<u64>) {
        self.try_read_line_into(pages, key, out)
            // gsdram-lint: allow(D4) the key names a line inside the page table's memory
            .expect("fetch within modelled memory");
    }

    fn try_read_line_into(
        &mut self,
        pages: &PageTable,
        key: LineKey,
        out: &mut Vec<u64>,
    ) -> Result<(), AccessError> {
        let shuffled = pages.info(key.addr).shuffle;
        let sem = self.gather.addr_semantics(shuffled, key.pattern);
        if sem == shuffled {
            let (row, col, _) = self.row_col(key.addr);
            return self
                .module
                .read_line_into(row, col, key.pattern, shuffled, out);
        }
        let mut addrs = std::mem::take(&mut self.addr_buf);
        self.overlap.word_addresses_into(key, sem, &mut addrs);
        out.clear();
        for a in &addrs {
            let (row, element) = self.element_at(*a);
            out.push(self.module.read_element(row, element, shuffled)?);
        }
        self.addr_buf = addrs;
        Ok(())
    }

    fn alloc_req_id(&mut self) -> ReqId {
        self.next_req += 1;
        self.next_req
    }

    /// The DRAM sub-requests backing one logical line fetch/writeback:
    /// one pattern command under GS-DRAM; one default-pattern command
    /// per covered line under Impulse. Written into `out` (cleared
    /// first).
    fn collect_subs(&self, key: LineKey, out: &mut Vec<(u64, PatternId)>) {
        out.clear();
        if self.gather == GatherSupport::Impulse && !key.pattern.is_default() {
            out.extend(
                self.overlap
                    .overlapping_lines(key, PatternId::DEFAULT, true)
                    .into_iter()
                    .map(|k| (k.addr, PatternId::DEFAULT)),
            );
        } else {
            out.push((key.addr, key.pattern));
        }
    }

    /// Enqueues the DRAM write(s) backing a line writeback (timing
    /// only; pair with [`DramBridge::write_line`] for the function).
    pub(crate) fn enqueue_write(&mut self, key: LineKey, at_cpu: u64, events: &mut EventHub) {
        self.enqueue_subs(key, AccessKind::Write, at_cpu, events);
    }

    /// Enqueues the DRAM fetch(es) backing a line fetch and registers
    /// the logical outstanding entry, waited on by `waiter` (a demand
    /// miss) or by nobody yet (a prefetch). The waiter list is a spare
    /// one when a delivered fetch left one behind.
    pub(crate) fn enqueue_fetch(
        &mut self,
        key: LineKey,
        shuffled: bool,
        waiter: Option<Waiter>,
        at_cpu: u64,
        events: &mut EventHub,
    ) {
        let mut waiters = self.spare_waiters.pop().unwrap_or_default();
        waiters.extend(waiter);
        // The sub-requests take the ids right after the fetch's own, so
        // a completion finds its fetch by range.
        let id = self.alloc_req_id();
        let subs = self.enqueue_subs(key, AccessKind::Read, at_cpu, events);
        self.outstanding.push(Outstanding {
            id,
            subs: cast::widen(subs),
            key,
            shuffled,
            waiters,
            remaining: subs,
            done_at: 0,
        });
    }

    /// Enqueues one `kind` sub-request per [`collect_subs`] entry (each
    /// taking the next request id) and returns how many.
    ///
    /// [`collect_subs`]: DramBridge::collect_subs
    fn enqueue_subs(
        &mut self,
        key: LineKey,
        kind: AccessKind,
        at_cpu: u64,
        events: &mut EventHub,
    ) -> usize {
        let mut subs = std::mem::take(&mut self.sub_buf);
        self.collect_subs(key, &mut subs);
        if subs.len() > 1 {
            let (at_mem, n) = (self.to_mem(at_cpu), cast::len_to_u32(subs.len()));
            events.emit(|| SimEvent::GatherSplit {
                addr: key.addr,
                pattern: key.pattern,
                subs: n,
                at_mem,
            });
        }
        let write = kind == AccessKind::Write;
        self.quiet_until = 0;
        for &(a, pattern) in &subs {
            // One decompose drives both routing and coordinates: the
            // map's channel stage picks the controller (under the
            // default ColumnFirst split, channel bits sit just above
            // the row-offset bits, so one DRAM row — and hence every
            // gathered line — stays on one channel).
            let loc = self.map.decompose(a);
            let ch = loc.channel;
            self.catch_up(ch, events);
            let at = self.to_mem(at_cpu).max(self.controllers[ch].now());
            let id = self.alloc_req_id();
            let req = MemRequest {
                id,
                loc,
                pattern,
                kind,
            };
            if write {
                self.loads[ch].writes += 1;
            } else {
                self.loads[ch].reads += 1;
            }
            self.controllers[ch].enqueue(req, at);
            events.emit(|| SimEvent::DramEnqueue {
                id,
                channel: ch,
                addr: a,
                pattern,
                write,
                at_mem: at,
            });
        }
        let n = subs.len();
        self.sub_buf = subs;
        n
    }

    /// Whether a fetch of `key` is already in flight.
    pub(crate) fn in_flight(&self, key: LineKey) -> bool {
        self.outstanding.iter().any(|o| o.key == key)
    }

    /// Keeps an emptied waiter list of a delivered fetch for reuse.
    pub(crate) fn recycle_waiters(&mut self, mut waiters: Vec<Waiter>) {
        waiters.clear();
        self.spare_waiters.push(waiters);
    }

    /// Detaches every waiter from the fetches still in flight. A run
    /// that ended at a `StopWhen::CoreDone` cut-off can leave a core
    /// waiting; the next run starts that core afresh, so the old
    /// request must not be finished into it. The fetches themselves
    /// still complete and fill the L2.
    pub(crate) fn forget_waiters(&mut self) {
        for o in &mut self.outstanding {
            o.waiters.clear();
        }
    }

    /// Attaches `waiter` to an in-flight fetch of `key`. Returns
    /// `false` if none is in flight.
    pub(crate) fn attach_waiter(&mut self, key: LineKey, waiter: Waiter) -> bool {
        let Some(out) = self.outstanding.iter_mut().find(|o| o.key == key) else {
            return false;
        };
        out.waiters.push(waiter);
        true
    }

    /// Records a sync to `t_cpu` and returns whether it is quiet: no
    /// channel has a command, refresh or completion due by then, so
    /// advancing any clock to it would change nothing but the clock and
    /// the energy cursor.
    pub(crate) fn quiet(&mut self, t_cpu: u64) -> bool {
        let quiet = t_cpu < self.quiet_until;
        self.lagging |= quiet;
        self.sync_cpu = self.sync_cpu.max(t_cpu);
        quiet
    }

    /// Advances every channel (clock and energy cursor) to CPU time
    /// `t_cpu`, one controller after another, and returns whether any
    /// channel now holds a completion due by then. Each controller is
    /// checked once: a channel whose cached horizon skips the time only
    /// leaps its clock and accrues its energy. The same pass learns
    /// `quiet_until` (`u64::MAX` when memory is idle); taking the due
    /// completions leaves it valid, and an enqueue while delivering
    /// them resets it.
    pub(crate) fn advance_all(&mut self, t_cpu: u64, events: &mut EventHub) -> bool {
        if t_cpu >= self.sync_cpu {
            self.lagging = false;
        }
        self.sync_cpu = self.sync_cpu.max(t_cpu);
        let t_mem = self.to_mem(t_cpu);
        let mut due = false;
        let mut next = TimeFold::new();
        for c in &mut self.controllers {
            let (c_due, c_next) = c.advance_polled(t_mem, events);
            due |= c_due;
            next.fold_opt(c_next);
        }
        self.quiet_until = next
            .earliest()
            .map_or(u64::MAX, |m| m.saturating_mul(self.cpu_per_mem));
        due
    }

    /// Brings channel `ch`'s clock and energy cursor up to the last
    /// sync, if a quiet sync left it behind. Nothing is due on such a
    /// channel by then, so this only leaps. A channel at or past the
    /// sync is left alone: advancing it again could issue, at the sync
    /// cycle, a command for a request enqueued since, before the
    /// scheduler has seen the requests that follow it.
    fn catch_up(&mut self, ch: usize, events: &mut EventHub) {
        if !self.lagging {
            return;
        }
        let t_mem = self.to_mem(self.sync_cpu);
        let c = &mut self.controllers[ch];
        if c.now() < t_mem {
            c.advance_observed(t_mem, events);
        }
    }

    /// [`catch_up`](Self::catch_up) on every channel: a run's report
    /// reads every clock and energy meter as of the last sync.
    pub(crate) fn catch_up_all(&mut self, events: &mut EventHub) {
        for ch in 0..self.controllers.len() {
            self.catch_up(ch, events);
        }
        self.lagging = false;
    }

    /// The exact next memory-clock cycle at which any channel's state
    /// can change or a recorded completion becomes due: the global fold
    /// of every controller's [`MemController::next_event`] and earliest
    /// pending completion. `None` when the whole memory system is idle.
    pub(crate) fn next_event(&mut self) -> Option<u64> {
        let mut fold = TimeFold::new();
        for c in &mut self.controllers {
            fold.fold_opt(c.next_event());
            fold.fold_opt(c.peek_completion());
        }
        fold.earliest()
    }

    /// Drains the completions due by `t_mem` on channel `ch` into
    /// `out` (appended in recorded order; `out` is not cleared), so the
    /// steady-state delivery loop reuses one machine-owned buffer
    /// instead of allocating per poll.
    pub(crate) fn take_channel_completions_into(
        &mut self,
        ch: usize,
        t_mem: u64,
        out: &mut Vec<Completion>,
    ) {
        self.controllers[ch].take_completions_into(t_mem, out);
    }

    /// Advances channel `ch` until it holds a completion (see
    /// [`MemController::advance_until_completion`]). The steps move
    /// the channel's horizon, so the next sync is a full one and
    /// learns `quiet_until` afresh.
    pub(crate) fn advance_channel_until_completion(
        &mut self,
        ch: usize,
        events: &mut EventHub,
    ) -> Option<u64> {
        self.quiet_until = 0;
        self.controllers[ch].advance_until_completion(events)
    }

    /// Records one controller completion. Returns the finished logical
    /// fetch when this was the last sub-request of a read; `None` for
    /// writeback completions and partial Impulse gathers.
    pub(crate) fn note_completion(
        &mut self,
        c: Completion,
        events: &mut EventHub,
    ) -> Option<FetchDone> {
        events.emit(|| SimEvent::DramComplete {
            id: c.id,
            at_mem: c.at,
        });
        // Writebacks match no fetch.
        let i = self
            .outstanding
            .iter()
            .position(|o| o.id < c.id && c.id <= o.id + o.subs)?;
        let out = &mut self.outstanding[i];
        out.done_at = out.done_at.max(c.at);
        out.remaining -= 1;
        if out.remaining > 0 {
            return None; // an Impulse gather is still collecting lines
        }
        let out = self.outstanding.swap_remove(i);
        Some(FetchDone {
            key: out.key,
            shuffled: out.shuffled,
            waiters: out.waiters,
            done_at: out.done_at,
        })
    }

    /// Controller statistics summed over all channels.
    pub(crate) fn stats(&self) -> ControllerStats {
        let mut total = ControllerStats::default();
        for c in &self.controllers {
            total.merge(&c.stats());
        }
        total
    }

    /// Per-channel read-latency histograms (arrival to data-burst
    /// completion, memory cycles). Maintained unconditionally by the
    /// controllers, so report output never depends on observation.
    pub(crate) fn read_latency_hists(&self) -> Vec<Histogram> {
        self.controllers
            .iter()
            .map(|c| c.read_latency_hist().clone())
            .collect()
    }

    /// Per-channel queue-depth histograms (occupancy sampled at each
    /// column-command retire).
    pub(crate) fn queue_depth_hists(&self) -> Vec<Histogram> {
        self.controllers
            .iter()
            .map(|c| c.queue_depth_hist().clone())
            .collect()
    }

    /// Per-channel telemetry snapshots (routed load, controller
    /// counters, energy), in channel order.
    pub(crate) fn channel_reports(&self) -> Vec<ChannelReport> {
        self.controllers
            .iter()
            .zip(&self.loads)
            .map(|(c, &load)| ChannelReport {
                load,
                dram: c.stats(),
                energy: c.energy(),
            })
            .collect()
    }

    /// Power-down cycles summed over all channels.
    #[cfg(test)]
    pub(crate) fn powerdown_cycles(&self) -> u64 {
        self.controllers
            .iter()
            .map(MemController::powerdown_cycles)
            .sum()
    }

    /// DRAM energy summed over all channels.
    pub(crate) fn energy(&self) -> EnergyBreakdown {
        let mut total = EnergyBreakdown::default();
        for c in &self.controllers {
            total.merge(&c.energy());
        }
        total
    }
}

impl Machine {
    /// Applies a completed logical fetch: fills caches, applies pending
    /// stores, wakes waiting cores, feeds loaded values to programs.
    fn deliver(&mut self, done: FetchDone, programs: &mut [&mut dyn Program]) {
        let done_cpu = self.bridge.to_cpu(done.done_at);
        let shuffle_penalty = if done.shuffled {
            self.cfg.shuffle_latency
        } else {
            0
        };

        // Fill L2, unless a writeback re-installed the line meanwhile:
        // that copy is newer, and taking it counts as an L2 hit.
        if let Some(line) = self.hier.l2.hit(done.key) {
            self.line_buf.clear();
            self.line_buf.extend_from_slice(line);
        } else {
            self.bridge
                .read_line_into(&self.pages, done.key, &mut self.line_buf);
            fill_l2(
                &mut self.hier.l2,
                done.key,
                &self.line_buf,
                Fill::Clean,
                &mut self.wb,
                &mut self.events,
            );
            self.drain_writebacks(done_cpu);
        }

        let wake = done_cpu + self.cfg.l1.latency + shuffle_penalty;
        for &w in &done.waiters {
            let value = self.serve_from_line_buf(w.core, done.key, &w.req, done_cpu);
            if w.req.store_value().is_none() {
                programs[w.core].on_load_value(value);
            }
            let core = self.cores.core_mut(w.core);
            core.waiting = false;
            core.time = core.time.max(wake);
        }
        self.bridge.recycle_waiters(done.waiters);
    }

    /// Advances the memory system to CPU time `t`, delivering any
    /// completions. Returns whether a fetch was delivered, i.e. whether
    /// a waiting core may have woken. While nothing is due (the common
    /// case: a cache hit or a compute op) this is one compare.
    pub(crate) fn sync_memory(&mut self, t_cpu: u64, programs: &mut [&mut dyn Program]) -> bool {
        if self.bridge.quiet(t_cpu) {
            return false;
        }
        self.sync_all(t_cpu, programs)
    }

    /// [`sync_memory`](Self::sync_memory) without the quiet check:
    /// advances every channel to `t_cpu`, learning how long the
    /// following syncs stay quiet, and delivers what is due.
    pub(crate) fn sync_all(&mut self, t_cpu: u64, programs: &mut [&mut dyn Program]) -> bool {
        // Advance every channel to the horizon first, then drain and
        // deliver per channel. Delivery can enqueue fresh writebacks;
        // those land at or after `t_mem` and are processed by the next
        // sync, on every path identically. With no completion due
        // there is nothing to drain.
        if !self.bridge.advance_all(t_cpu, &mut self.events) {
            return false;
        }
        let t_mem = self.bridge.to_mem(t_cpu);
        let mut delivered = false;
        let mut comps = std::mem::take(&mut self.comp_buf);
        for ch in 0..self.bridge.channels() {
            comps.clear();
            self.bridge
                .take_channel_completions_into(ch, t_mem, &mut comps);
            for c in comps.drain(..) {
                if let Some(done) = self.bridge.note_completion(c, &mut self.events) {
                    self.deliver(done, programs);
                    delivered = true;
                }
            }
        }
        self.comp_buf = comps;
        delivered
    }

    /// All active cores are blocked: advance DRAM until at least one
    /// demand completion is delivered.
    pub(crate) fn advance_until_completion(&mut self, programs: &mut [&mut dyn Program]) {
        loop {
            let mut progressed = false;
            let mut comps = std::mem::take(&mut self.comp_buf);
            for ch in 0..self.bridge.channels() {
                let Some(t) = self
                    .bridge
                    .advance_channel_until_completion(ch, &mut self.events)
                else {
                    continue;
                };
                comps.clear();
                self.bridge.take_channel_completions_into(ch, t, &mut comps);
                for c in comps.drain(..) {
                    if let Some(done) = self.bridge.note_completion(c, &mut self.events) {
                        self.deliver(done, programs);
                    }
                }
                progressed = true;
            }
            self.comp_buf = comps;
            assert!(
                progressed,
                "deadlock: cores waiting but no memory traffic outstanding"
            );
            if self.cores.any_ready() {
                return;
            }
        }
    }
}
