//! The cache hierarchy: private pattern-tagged L1s, the shared L2, and
//! the per-core stride prefetchers (paper §4.1, Table 1).
//!
//! [`CacheHier`] owns the SRAM side of the machine and the fill/evict
//! cascades between levels. It never talks to DRAM directly: dirty
//! DRAM-bound victims are appended, in eviction order, to a
//! caller-provided writeback list that [`Machine`]
//! drains through the [DRAM bridge](crate::bridge). Every fill and
//! eviction is announced on the machine's
//! [`EventHub`].
//!
//! The demand access path (`Machine::access`) also lives here: it
//! walks L1 → L2 → remote L1 → DRAM for one [`MemReq`], invoking the
//! [coherence engine](crate::coherence) at the §4.1 points.

use gsdram_cache::cache::{EvictedLine, Fill, LineKey, SetAssocCache};
use gsdram_cache::prefetch::StridePrefetcher;
use gsdram_core::port::{CacheLevel, EventHub, MemReq, MemResp, SimEvent};
use gsdram_core::PatternId;

use crate::bridge::Waiter;
use crate::config::SystemConfig;
use crate::machine::Machine;

/// The SRAM side of the machine: per-core L1s, the shared L2, and the
/// per-core stride prefetchers.
#[derive(Debug)]
pub struct CacheHier {
    /// Private per-core L1 caches.
    pub(crate) l1: Vec<SetAssocCache>,
    /// The shared L2.
    pub(crate) l2: SetAssocCache,
    /// Per-core stride prefetchers (train on L1 misses).
    pub(crate) prefetchers: Vec<StridePrefetcher>,
}

/// Installs `data` as `key` in `cache` (`core`'s L1, or the L2 when
/// `core` is `None`) and announces the fill, then any eviction. Returns
/// the installed words and the victim for the caller to route.
fn install<'c>(
    cache: &'c mut SetAssocCache,
    core: Option<usize>,
    key: LineKey,
    data: &[u64],
    fill: Fill,
    events: &mut EventHub,
) -> (&'c mut [u64], Option<EvictedLine>) {
    let level = if core.is_some() {
        CacheLevel::L1
    } else {
        CacheLevel::L2
    };
    let (line, victim) = cache.install(key, data, fill);
    events.emit(|| SimEvent::CacheFill {
        level,
        core,
        addr: key.addr,
        pattern: key.pattern,
    });
    if let Some(ev) = &victim {
        events.emit(|| SimEvent::CacheEvict {
            level,
            core,
            addr: ev.key.addr,
            pattern: ev.key.pattern,
            dirty: ev.dirty,
        });
    }
    (line, victim)
}

/// Installs a line into the L2; a dirty DRAM-bound victim goes on `wb`
/// (in eviction order) for the caller to write back.
pub(crate) fn fill_l2(
    l2: &mut SetAssocCache,
    key: LineKey,
    data: &[u64],
    fill: Fill,
    wb: &mut Vec<EvictedLine>,
    events: &mut EventHub,
) {
    let (_, victim) = install(l2, None, key, data, fill, events);
    wb.extend(victim.filter(|ev| ev.dirty));
}

/// Merges a dirty line into the L2: updates a resident copy in place,
/// or installs a dirty copy (possibly pushing an L2 victim onto `wb`).
fn merge_dirty_into_l2(
    l2: &mut SetAssocCache,
    key: LineKey,
    data: &[u64],
    wb: &mut Vec<EvictedLine>,
    events: &mut EventHub,
) {
    match l2.data_mut(key) {
        Some(line) => line.copy_from_slice(data),
        None => fill_l2(l2, key, data, Fill::Dirty, wb, events),
    }
}

/// Finishes `req` on its L1 line: a store writes its word, a load reads
/// it. Returns the value loaded or stored. Every access ends here.
fn apply(line: &mut [u64], req: &MemReq) -> u64 {
    let word = &mut line[req.word_index(64)];
    if let Some(v) = req.store_value() {
        *word = v;
    }
    *word
}

impl CacheHier {
    pub(crate) fn new(cfg: &SystemConfig) -> Self {
        CacheHier {
            l1: (0..cfg.cores).map(|_| SetAssocCache::new(cfg.l1)).collect(),
            l2: SetAssocCache::new(cfg.l2),
            prefetchers: (0..cfg.cores)
                .map(|_| StridePrefetcher::degree4())
                .collect(),
        }
    }

    /// Installs a line into `core`'s L1 and returns its words. A dirty
    /// victim merges into L2 (or, if L2 no longer holds it, is
    /// installed there — possibly pushing an L2 victim onto `wb`).
    fn install_l1(
        &mut self,
        core: usize,
        key: LineKey,
        data: &[u64],
        fill: Fill,
        wb: &mut Vec<EvictedLine>,
        events: &mut EventHub,
    ) -> &mut [u64] {
        let (line, victim) = install(&mut self.l1[core], Some(core), key, data, fill, events);
        if let Some(ev) = victim.filter(|ev| ev.dirty) {
            merge_dirty_into_l2(&mut self.l2, ev.key, &ev.data, wb, events);
        }
        line
    }

    /// Snoop: if another L1 holds `key` dirty, write it back into L2 so
    /// the requester sees fresh data.
    pub(crate) fn snoop_remote_dirty(
        &mut self,
        core: usize,
        key: LineKey,
        wb: &mut Vec<EvictedLine>,
        events: &mut EventHub,
    ) {
        for (c, l1) in self.l1.iter_mut().enumerate() {
            if c == core {
                continue;
            }
            if let Some(ev) = l1.take_if_dirty(key) {
                merge_dirty_into_l2(&mut self.l2, key, &ev.data, wb, events);
            }
        }
    }
}

impl Machine {
    /// Issues the stride prefetcher's predictions as L2 prefetch reads.
    fn issue_prefetches(
        &mut self,
        core: usize,
        pc: u64,
        addr: u64,
        pattern: PatternId,
        at_cpu: u64,
    ) {
        if !self.cfg.prefetch {
            return;
        }
        let mut targets = std::mem::take(&mut self.pf_buf);
        self.hier.prefetchers[core].observe_into(pc, addr, &mut targets);
        for &t in &targets {
            if t >= self.pages.allocated() {
                continue;
            }
            if self.pages.check(t, pattern).is_err() {
                continue;
            }
            let key = LineKey::new(t, 64, pattern);
            // Most targets of a stream are already in flight; the
            // outstanding list is short, so it is asked first.
            if self.bridge.in_flight(key) || self.hier.l2.contains(key) {
                continue;
            }
            self.flush_overlaps_before_fetch(key, at_cpu);
            let shuffled = self.pages.info(key.addr).shuffle;
            self.bridge
                .enqueue_fetch(key, shuffled, None, at_cpu, &mut self.events);
        }
        self.pf_buf = targets;
    }

    /// The one way a missing line reaches a core: installs `line_buf`
    /// as `key` in `core`'s L1, drains the writebacks the install caused at
    /// `at_cpu`, and finishes `req` on the installed line. Returns the
    /// value loaded or stored. `line_buf` itself is left as it was, so
    /// the next waiter on the same fetch fills from the same words.
    pub(crate) fn serve_from_line_buf(
        &mut self,
        core: usize,
        key: LineKey,
        req: &MemReq,
        at_cpu: u64,
    ) -> u64 {
        let fill = if req.store_value().is_some() {
            Fill::Store
        } else {
            Fill::Clean
        };
        let line = self.hier.install_l1(
            core,
            key,
            &self.line_buf,
            fill,
            &mut self.wb,
            &mut self.events,
        );
        let value = apply(line, req);
        self.drain_writebacks(at_cpu);
        if fill == Fill::Store {
            self.invalidate_overlaps_on_store(core, key, at_cpu);
        }
        value
    }

    /// Executes one memory request for `core` at its current time over
    /// the core→hierarchy port. Returns `Some` when the access completed
    /// synchronously (cache hit), `None` when the core is now waiting on
    /// DRAM (the response is delivered by the bridge later).
    pub(crate) fn access(&mut self, core: usize, req: MemReq) -> Option<MemResp> {
        let info = self
            .pages
            .check(req.addr, req.pattern)
            .unwrap_or_else(|e| panic!("{e}"));
        let key = LineKey::new(req.addr, 64, req.pattern);
        let store = req.store_value().is_some();
        let t0 = self.cores.core(core).time;
        self.cores.core_mut(core).mem_ops += 1;

        // L1 hit.
        if let Some(line) = self.hier.l1[core].lookup(key, store) {
            let value = apply(line, &req);
            let ready_at = t0 + self.cfg.l1.latency;
            self.cores.core_mut(core).time = ready_at;
            if store {
                self.invalidate_overlaps_on_store(core, key, t0);
            }
            return Some(MemResp { value, ready_at });
        }

        // L1 miss: train the prefetcher, snoop remote dirty copies.
        self.issue_prefetches(core, req.pc, req.addr, req.pattern, t0);
        self.hier
            .snoop_remote_dirty(core, key, &mut self.wb, &mut self.events);
        self.drain_writebacks(t0);

        // An L2 hit, or else a clean copy in another L1 (a
        // cache-to-cache transfer at L2 pricing): copy it and serve.
        let hier = &mut self.hier;
        let source = match hier.l2.lookup(key, false) {
            Some(line) => Some(&*line),
            None => (hier.l1.iter().enumerate())
                .filter(|&(c, _)| c != core)
                .find_map(|(_, l1)| l1.data(key)),
        };
        if let Some(line) = source {
            self.line_buf.clear();
            self.line_buf.extend_from_slice(line);
            let ready_at = t0 + self.cfg.l1.latency + self.cfg.l2.latency;
            self.cores.core_mut(core).time = ready_at;
            let value = self.serve_from_line_buf(core, key, &req, t0);
            return Some(MemResp { value, ready_at });
        }

        // DRAM. Attach to an existing outstanding request if any.
        let miss_time = t0 + self.cfg.l1.latency + self.cfg.l2.latency;
        let waiter = Waiter { core, req };
        self.cores.core_mut(core).waiting = true;
        if self.bridge.attach_waiter(key, waiter) {
            return None;
        }
        self.flush_overlaps_before_fetch(key, miss_time);
        self.bridge
            .enqueue_fetch(key, info.shuffle, Some(waiter), miss_time, &mut self.events);
        None
    }
}
