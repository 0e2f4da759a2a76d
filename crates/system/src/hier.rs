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

use gsdram_cache::cache::{EvictedLine, LineKey, SetAssocCache};
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

    /// Installs a clean line into L2. A dirty DRAM-bound victim goes on
    /// `wb` (in eviction order) for the caller to write back.
    pub(crate) fn fill_l2(
        &mut self,
        key: LineKey,
        data: &[u64],
        wb: &mut Vec<EvictedLine>,
        events: &mut EventHub,
    ) {
        let ev = self.l2.fill_from(key, data);
        events.emit(|| SimEvent::CacheFill {
            level: CacheLevel::L2,
            core: None,
            addr: key.addr,
            pattern: key.pattern,
        });
        if let Some(ev) = ev {
            events.emit(|| SimEvent::CacheEvict {
                level: CacheLevel::L2,
                core: None,
                addr: ev.key.addr,
                pattern: ev.key.pattern,
                dirty: ev.dirty,
            });
            if ev.dirty {
                wb.push(ev);
            }
        }
    }

    /// Merges a dirty line into L2: updates a resident copy in place, or
    /// installs a dirty copy (possibly pushing an L2 victim onto `wb`).
    fn merge_dirty_into_l2(
        &mut self,
        key: LineKey,
        data: &[u64],
        wb: &mut Vec<EvictedLine>,
        events: &mut EventHub,
    ) {
        if let Some(slot) = self.l2.data_mut(key) {
            slot.copy_from_slice(data);
        } else {
            let l2_ev = self.l2.fill_from(key, data);
            self.l2
                .data_mut(key)
                // gsdram-lint: allow(D4) fill_from on the line above made the key resident
                .expect("just filled")
                .copy_from_slice(data);
            events.emit(|| SimEvent::CacheFill {
                level: CacheLevel::L2,
                core: None,
                addr: key.addr,
                pattern: key.pattern,
            });
            if let Some(ev) = l2_ev {
                events.emit(|| SimEvent::CacheEvict {
                    level: CacheLevel::L2,
                    core: None,
                    addr: ev.key.addr,
                    pattern: ev.key.pattern,
                    dirty: ev.dirty,
                });
                if ev.dirty {
                    wb.push(ev);
                }
            }
        }
    }

    /// Installs a clean line into `core`'s L1. A dirty victim merges
    /// into L2 (or, if L2 no longer holds it, is installed there —
    /// possibly pushing an L2 victim onto `wb`).
    pub(crate) fn fill_l1(
        &mut self,
        core: usize,
        key: LineKey,
        data: &[u64],
        wb: &mut Vec<EvictedLine>,
        events: &mut EventHub,
    ) {
        let ev = self.l1[core].fill_from(key, data);
        events.emit(|| SimEvent::CacheFill {
            level: CacheLevel::L1,
            core: Some(core),
            addr: key.addr,
            pattern: key.pattern,
        });
        let Some(ev) = ev else { return };
        events.emit(|| SimEvent::CacheEvict {
            level: CacheLevel::L1,
            core: Some(core),
            addr: ev.key.addr,
            pattern: ev.key.pattern,
            dirty: ev.dirty,
        });
        if ev.dirty {
            self.merge_dirty_into_l2(ev.key, &ev.data, wb, events);
        }
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
        for c in 0..self.l1.len() {
            if c == core || !self.l1[c].is_dirty(key) {
                continue;
            }
            // gsdram-lint: allow(D4) is_dirty(key) above implies the line is resident
            let ev = self.l1[c].invalidate(key).expect("resident");
            self.merge_dirty_into_l2(key, &ev.data, wb, events);
        }
    }

    /// Removes and returns every dirty line, L2 first (an L2 dirty copy
    /// is always older than an L1 dirty copy of the same key, so writing
    /// in this order lets L1 data win). Leaves the caches clean.
    pub(crate) fn drain_dirty(&mut self) -> Vec<(LineKey, Vec<u64>)> {
        let mut dirty: Vec<(LineKey, Vec<u64>)> = Vec::new();
        for key in self.l2.resident_keys() {
            if self.l2.is_dirty(key) {
                // gsdram-lint: allow(D4) is_dirty(key) above implies the line is resident
                let ev = self.l2.invalidate(key).expect("resident");
                dirty.push((ev.key, ev.data));
            }
        }
        for l1 in &mut self.l1 {
            for key in l1.resident_keys() {
                if l1.is_dirty(key) {
                    // gsdram-lint: allow(D4) is_dirty(key) above implies the line is resident
                    let ev = l1.invalidate(key).expect("resident");
                    dirty.push((ev.key, ev.data));
                }
            }
        }
        dirty
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
            if self.hier.l2.contains(key) || self.bridge.in_flight(key) {
                continue;
            }
            self.flush_overlaps_before_fetch(key, at_cpu);
            let shuffled = self.pages.info(key.addr).shuffle;
            self.bridge
                .enqueue_fetch(key, shuffled, false, Vec::new(), at_cpu, &mut self.events);
        }
        self.pf_buf = targets;
    }

    /// Copies a resident L2 line into the machine's line scratch and
    /// fills it into `core`'s L1, draining any writebacks at `at_cpu`.
    fn refill_l1_from_l2(&mut self, core: usize, key: LineKey, at_cpu: u64) {
        let mut buf = std::mem::take(&mut self.line_buf);
        buf.clear();
        // gsdram-lint: allow(D4) callers enter only after an L2 probe hit for this key
        buf.extend_from_slice(self.hier.l2.data(key).expect("hit"));
        self.hier
            .fill_l1(core, key, &buf, &mut self.wb, &mut self.events);
        self.line_buf = buf;
        self.drain_writebacks(at_cpu);
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
        let word = req.word_index(64);
        let store = req.store_value();
        let t0 = self.cores.core(core).time;
        self.cores.core_mut(core).mem_ops += 1;

        // L1 lookup.
        if self.hier.l1[core].probe(key, store.is_some()) {
            self.cores.core_mut(core).time = t0 + self.cfg.l1.latency;
            let value = if let Some(v) = store {
                self.invalidate_overlaps_on_store(core, key, t0);
                // gsdram-lint: allow(D4) probe(key) hit on the enclosing branch condition
                let data = self.hier.l1[core].data_mut(key).expect("hit");
                data[word] = v;
                v
            } else {
                // gsdram-lint: allow(D4) probe(key) hit on the enclosing branch condition
                self.hier.l1[core].data(key).expect("hit")[word]
            };
            return Some(MemResp {
                value,
                ready_at: t0 + self.cfg.l1.latency,
            });
        }

        // L1 miss: train the prefetcher, snoop remote dirty copies.
        self.issue_prefetches(core, req.pc, req.addr, req.pattern, t0);
        self.hier
            .snoop_remote_dirty(core, key, &mut self.wb, &mut self.events);
        self.drain_writebacks(t0);

        // L2 lookup.
        if self.hier.l2.probe(key, false) {
            let latency = self.cfg.l1.latency + self.cfg.l2.latency;
            self.cores.core_mut(core).time = t0 + latency;
            self.refill_l1_from_l2(core, key, t0);
            let value = if let Some(v) = store {
                self.invalidate_overlaps_on_store(core, key, t0);
                self.hier.l1[core].probe(key, true);
                // gsdram-lint: allow(D4) fill_l1/refill above installed the line for this core
                let d = self.hier.l1[core].data_mut(key).expect("filled");
                d[word] = v;
                v
            } else {
                // gsdram-lint: allow(D4) fill_l1/refill above installed the line for this core
                self.hier.l1[core].data(key).expect("filled")[word]
            };
            return Some(MemResp {
                value,
                ready_at: t0 + latency,
            });
        }

        // Remote clean copy? Cache-to-cache transfer through L2 pricing.
        for c in 0..self.hier.l1.len() {
            if c != core && self.hier.l1[c].contains(key) {
                let latency = self.cfg.l1.latency + self.cfg.l2.latency;
                self.cores.core_mut(core).time = t0 + latency;
                let mut buf = std::mem::take(&mut self.line_buf);
                buf.clear();
                // gsdram-lint: allow(D4) contains(key) held on the enclosing branch condition
                buf.extend_from_slice(self.hier.l1[c].data(key).expect("resident"));
                self.hier
                    .fill_l1(core, key, &buf, &mut self.wb, &mut self.events);
                self.line_buf = buf;
                self.drain_writebacks(t0);
                let value = if let Some(v) = store {
                    self.invalidate_overlaps_on_store(core, key, t0);
                    self.hier.l1[core].probe(key, true);
                    // gsdram-lint: allow(D4) fill_l1/refill above installed the line for this core
                    let d = self.hier.l1[core].data_mut(key).expect("filled");
                    d[word] = v;
                    v
                } else {
                    // gsdram-lint: allow(D4) fill_l1/refill above installed the line for this core
                    self.hier.l1[core].data(key).expect("filled")[word]
                };
                return Some(MemResp {
                    value,
                    ready_at: t0 + latency,
                });
            }
        }

        // DRAM. Attach to an existing outstanding request if any.
        let miss_time = t0 + self.cfg.l1.latency + self.cfg.l2.latency;
        let waiter = Waiter { core, req };
        self.cores.core_mut(core).waiting = true;
        if self.bridge.attach_waiter(key, waiter) {
            return None;
        }
        self.flush_overlaps_before_fetch(key, miss_time);
        self.bridge.enqueue_fetch(
            key,
            info.shuffle,
            true,
            vec![waiter],
            miss_time,
            &mut self.events,
        );
        None
    }
}
