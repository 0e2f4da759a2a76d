//! The §4.1 coherence engine: pattern-overlap tracking plus the
//! Dirty-Block-Index fast path.
//!
//! Cache lines fetched with different pattern IDs may partially overlap
//! in memory. The paper keeps them coherent with two rules, both
//! implemented here against the [cache hierarchy](crate::hier):
//!
//! 1. **flush-before-fetch** — before a line is fetched from DRAM,
//!    dirty overlapping lines of the page's other pattern are flushed;
//! 2. **invalidate-on-store** — a store invalidates the (at most
//!    `chips`) overlapping other-pattern lines everywhere.
//!
//! The engine owns the [`DirtyBlockIndex`], a conservative per-(DRAM
//! row, pattern) dirty-line superset that answers the common
//! "no dirty overlap" case without touching the caches. Flushed lines
//! are appended to the caller's writeback list in flush order; the
//! machine forwards them to the [DRAM bridge](crate::bridge).

use gsdram_cache::cache::{EvictedLine, LineKey};
use gsdram_cache::dbi::DirtyBlockIndex;
use gsdram_cache::overlap::OverlapCalc;
use gsdram_core::port::{EventHub, SimEvent};
use gsdram_core::PatternId;

use crate::config::{GatherSupport, SystemConfig};
use crate::hier::CacheHier;
use crate::machine::Machine;
use crate::page::PageTable;

/// The §4.1 coherence engine. See the [module docs](self).
#[derive(Debug)]
pub struct CoherenceEngine {
    /// Overlap sets between pattern-tagged lines.
    pub(crate) overlap: OverlapCalc,
    /// Dirty-Block Index (§4.1): per-(DRAM row, pattern) dirty bitmaps,
    /// the fast path for the flush-before-fetch coherence check. Kept as
    /// a conservative superset of the caches' dirty lines; bits clear
    /// when data reaches the DRAM module.
    pub(crate) dbi: DirtyBlockIndex,
    gather: GatherSupport,
}

impl CoherenceEngine {
    pub(crate) fn new(cfg: &SystemConfig) -> Self {
        CoherenceEngine {
            overlap: OverlapCalc::new(cfg.gsdram.clone(), cfg.l2.line_bytes as u64, 128),
            dbi: DirtyBlockIndex::table1(),
            gather: cfg.gather,
        }
    }

    /// A line's data reached the DRAM module: clear its DBI dirty bit.
    pub(crate) fn mark_clean(&mut self, key: LineKey) {
        self.dbi.mark_clean(key);
    }

    /// §4.1 rule 1: before fetching `key` from DRAM, flush dirty
    /// overlapping lines of the page's other pattern from all caches.
    /// Flushed lines are appended to `wb` in flush order.
    pub(crate) fn flush_overlaps_before_fetch(
        &mut self,
        pages: &PageTable,
        hier: &mut CacheHier,
        key: LineKey,
        wb: &mut Vec<EvictedLine>,
        events: &mut EventHub,
    ) {
        let info = pages.info(key.addr);
        // Coherence engages whenever the page supports an alternate
        // pattern — whether gathers come from the shuffle/CTL datapath
        // (GS-DRAM) or from controller-side assembly (Impulse).
        let sem = self.gather.addr_semantics(info.shuffle, info.alt_pattern);
        if !sem || info.alt_pattern.is_default() {
            return;
        }
        let other = if key.pattern.is_default() {
            info.alt_pattern
        } else {
            PatternId::DEFAULT
        };
        // §4.1 fast path: one Dirty-Block-Index row lookup rules out the
        // common no-dirty-overlap case without touching the caches.
        if !self.dbi.row_has_dirty(key.addr, other) {
            return;
        }
        for okey in self.overlap.overlapping_lines(key, other, sem) {
            if !self.dbi.may_be_dirty(okey) {
                continue;
            }
            // Only *dirty* overlapping lines must reach DRAM before the
            // fetch; clean copies are consistent and may stay cached
            // (§4.1: "check if there are any dirty cache lines ... which
            // have a partial overlap with the cache line being fetched").
            // Flush order matters: an L2 dirty copy is always older than
            // an L1 dirty copy of the same line, so L2 goes first and a
            // flushed L1 line additionally drops any stale L2 copy.
            if let Some(ev) = hier.l2.take_if_dirty(okey) {
                events.emit(|| SimEvent::OverlapFlush {
                    addr: okey.addr,
                    pattern: okey.pattern,
                    store: false,
                });
                wb.push(ev);
            }
            let mut l1_was_dirty = false;
            for l1 in &mut hier.l1 {
                if let Some(ev) = l1.take_if_dirty(okey) {
                    events.emit(|| SimEvent::OverlapFlush {
                        addr: okey.addr,
                        pattern: okey.pattern,
                        store: false,
                    });
                    wb.push(ev);
                    l1_was_dirty = true;
                }
            }
            if l1_was_dirty {
                hier.l2.invalidate(okey);
            }
        }
    }

    /// §4.1 rule 2: a store to `key` invalidates overlapping lines of
    /// the other pattern everywhere (at most `chips` lines — §4.4), plus
    /// same-key copies in other cores' L1s. Dirty casualties are
    /// appended to `wb` in invalidation order.
    pub(crate) fn invalidate_overlaps_on_store(
        &mut self,
        pages: &PageTable,
        hier: &mut CacheHier,
        core: usize,
        key: LineKey,
        wb: &mut Vec<EvictedLine>,
        events: &mut EventHub,
    ) {
        // Every store routes through here: record the dirtied line.
        self.dbi.mark_dirty(key);
        // Same-key copies in other L1s (read-exclusive upgrade).
        for c in 0..hier.l1.len() {
            if c != core {
                if let Some(ev) = hier.l1[c].invalidate(key) {
                    if ev.dirty {
                        // Should not happen (two dirty copies), but stay safe.
                        wb.push(ev);
                    }
                }
            }
        }
        let info = pages.info(key.addr);
        let sem = self.gather.addr_semantics(info.shuffle, info.alt_pattern);
        if !sem || info.alt_pattern.is_default() {
            return;
        }
        let other = if key.pattern.is_default() {
            info.alt_pattern
        } else {
            PatternId::DEFAULT
        };
        for okey in self.overlap.overlapping_lines(key, other, sem) {
            // L2 before L1: an L2 dirty copy is older than an L1 dirty
            // copy of the same line, so the L1 data must reach DRAM last.
            if let Some(ev) = hier.l2.invalidate(okey) {
                events.emit(|| SimEvent::OverlapFlush {
                    addr: okey.addr,
                    pattern: okey.pattern,
                    store: true,
                });
                if ev.dirty {
                    wb.push(ev);
                }
            }
            for c in 0..hier.l1.len() {
                if let Some(ev) = hier.l1[c].invalidate(okey) {
                    events.emit(|| SimEvent::OverlapFlush {
                        addr: okey.addr,
                        pattern: okey.pattern,
                        store: true,
                    });
                    if ev.dirty {
                        wb.push(ev);
                    }
                }
            }
        }
    }
}

impl Machine {
    /// [`CoherenceEngine::flush_overlaps_before_fetch`] against this
    /// machine's hierarchy, immediately writing back the flushed lines
    /// at `at_cpu`.
    pub(crate) fn flush_overlaps_before_fetch(&mut self, key: LineKey, at_cpu: u64) {
        self.coherence.flush_overlaps_before_fetch(
            &self.pages,
            &mut self.hier,
            key,
            &mut self.wb,
            &mut self.events,
        );
        self.drain_writebacks(at_cpu);
    }

    /// [`CoherenceEngine::invalidate_overlaps_on_store`] against this
    /// machine's hierarchy, immediately writing back dirty casualties
    /// at `at_cpu`.
    pub(crate) fn invalidate_overlaps_on_store(&mut self, core: usize, key: LineKey, at_cpu: u64) {
        self.coherence.invalidate_overlaps_on_store(
            &self.pages,
            &mut self.hier,
            core,
            key,
            &mut self.wb,
            &mut self.events,
        );
        self.drain_writebacks(at_cpu);
    }
}
