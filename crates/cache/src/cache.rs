//! Pattern-ID-aware set-associative caches (paper §4.1).
//!
//! GS-DRAM keeps ordinary, non-sectored caches; the only change is that
//! each tag is extended with the `p`-bit pattern ID the line was fetched
//! with ("less than 0.6% cache area cost" — §4.4). Two cache lines with
//! the same address but different pattern IDs are distinct entries that
//! may *partially overlap* in memory; the coherence rules for that live
//! in [`crate::overlap`] and the system crate.

use gsdram_core::stats::{ReportStats, StatsNode};
use gsdram_core::{cast, PatternId};

/// Identity of a cached line: the line-aligned address plus the pattern
/// ID it was gathered with (§4.1 "each cache line can be uniquely
/// identified using the cache line address and the pattern ID").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LineKey {
    /// Line-aligned byte address.
    pub addr: u64,
    /// Pattern the line was fetched with.
    pub pattern: PatternId,
}

impl LineKey {
    /// Key for `addr` rounded down to a line boundary.
    pub fn new(addr: u64, line_bytes: u64, pattern: PatternId) -> Self {
        LineKey {
            addr: addr / line_bytes * line_bytes,
            pattern,
        }
    }
}

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Hit latency in CPU cycles.
    pub latency: u64,
}

impl CacheConfig {
    /// Table 1 L1: 32 KB, 8-way, 64 B lines.
    pub fn l1_32k() -> Self {
        CacheConfig {
            size_bytes: 32 * 1024,
            assoc: 8,
            line_bytes: 64,
            latency: 3,
        }
    }

    /// Table 1 L2: 2 MB, 8-way, 64 B lines.
    pub fn l2_2m() -> Self {
        CacheConfig {
            size_bytes: 2 * 1024 * 1024,
            assoc: 8,
            line_bytes: 64,
            latency: 12,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.assoc * self.line_bytes)
    }

    /// 8-byte words per line.
    pub fn words_per_line(&self) -> usize {
        self.line_bytes / 8
    }
}

/// Hit/miss statistics for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Lines evicted by fills.
    pub evictions: u64,
    /// Dirty lines written back (by eviction or invalidation).
    pub writebacks: u64,
    /// Lines removed by explicit invalidation.
    pub invalidations: u64,
}

impl ReportStats for CacheStats {
    fn stats_node(&self, name: &str) -> StatsNode {
        StatsNode::new(name)
            .counter("hits", self.hits)
            .counter("misses", self.misses)
            .counter("evictions", self.evictions)
            .counter("writebacks", self.writebacks)
            .counter("invalidations", self.invalidations)
            .gauge("miss_rate", self.miss_rate())
    }
}

impl CacheStats {
    /// Miss ratio over all lookups.
    // gsdram-lint: allow-block(D5) report-only ratio; never feeds simulated timing
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// A line pushed out of the cache, with its data if dirty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvictedLine {
    /// Identity of the evicted line.
    pub key: LineKey,
    /// Whether it held modified data that must be written back.
    pub dirty: bool,
    /// The line's words. Empty for a clean victim of
    /// [`SetAssocCache::install`], whose buffer the new line took over.
    pub data: Vec<u64>,
}

/// How [`SetAssocCache::install`] marks the line it installs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fill {
    /// A clean copy: a refill from the next level or from DRAM.
    Clean,
    /// A dirty copy handed down by a writeback; counts nothing.
    Dirty,
    /// A write-allocate store miss: the line is installed and then
    /// written, so it is dirty, most recently used, and the store
    /// counts as a hit (the miss was counted by the lookup before).
    Store,
}

#[derive(Debug, Clone)]
struct Slot {
    key: LineKey,
    dirty: bool,
    lru: u64,
    data: Vec<u64>,
}

impl Slot {
    fn evicted(self) -> EvictedLine {
        EvictedLine {
            key: self.key,
            dirty: self.dirty,
            data: self.data,
        }
    }
}

/// An LRU set-associative write-back, write-allocate cache with
/// pattern-extended tags.
///
/// ```
/// use gsdram_cache::cache::{CacheConfig, LineKey, SetAssocCache};
/// use gsdram_core::PatternId;
/// let mut c = SetAssocCache::new(CacheConfig::l1_32k());
/// let key = LineKey::new(0x1000, 64, PatternId(7));
/// assert!(c.lookup(key, false).is_none());
/// c.fill_from(key, &[5; 8]);
/// assert_eq!(c.lookup(key, false).map(|line| line[0]), Some(5));
/// // Same address under the default pattern is a different line.
/// assert!(c.lookup(LineKey::new(0x1000, 64, PatternId(0)), false).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    cfg: CacheConfig,
    sets: Vec<Vec<Slot>>,
    /// log2 of the line size: a key's line index is `addr >> line_shift`.
    line_shift: u32,
    lru_gen: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// An empty cache of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if the line size is not a power of two or the
    /// configuration does not divide into a whole power-of-two number of
    /// sets.
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        assert!(
            cfg.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "set count must be a power of two"
        );
        SetAssocCache {
            cfg,
            sets: vec![Vec::with_capacity(cfg.assoc); sets],
            line_shift: cfg.line_bytes.trailing_zeros(),
            lru_gen: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn set_index(&self, key: LineKey) -> usize {
        // Both counts are powers of two (asserted in `new`): the set is
        // the low bits of the line index.
        cast::to_usize((key.addr >> self.line_shift) & cast::widen(self.sets.len() - 1))
    }

    /// The set and way holding `key`, if resident.
    fn find(&self, key: LineKey) -> Option<(usize, usize)> {
        let set = self.set_index(key);
        let way = self.sets[set].iter().position(|s| s.key == key)?;
        Some((set, way))
    }

    /// Counts a hit on the slot at `(set, way)`: makes it most recently
    /// used, dirties it on a write, and returns its words.
    fn touch(&mut self, (set, way): (usize, usize), write: bool) -> &mut [u64] {
        self.lru_gen += 1;
        self.stats.hits += 1;
        let slot = &mut self.sets[set][way];
        slot.lru = self.lru_gen;
        slot.dirty |= write;
        &mut slot.data
    }

    /// Looks up `key`, counting a hit or a miss. On a hit the line
    /// becomes most recently used (and dirty if `write`) and its words
    /// are returned.
    pub fn lookup(&mut self, key: LineKey, write: bool) -> Option<&mut [u64]> {
        match self.find(key) {
            Some(at) => Some(self.touch(at, write)),
            None => {
                self.lru_gen += 1;
                self.stats.misses += 1;
                None
            }
        }
    }

    /// A read [`SetAssocCache::lookup`] for a line that may have
    /// arrived by another route: a hit counts as one, a miss leaves no
    /// trace.
    pub fn hit(&mut self, key: LineKey) -> Option<&mut [u64]> {
        let at = self.find(key)?;
        Some(self.touch(at, false))
    }

    /// [`SetAssocCache::lookup`] reduced to hit-or-miss.
    pub fn probe(&mut self, key: LineKey, write: bool) -> bool {
        self.lookup(key, write).is_some()
    }

    /// Whether `key` is present, without touching LRU or statistics.
    pub fn contains(&self, key: LineKey) -> bool {
        self.find(key).is_some()
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// Whether no line is resident.
    pub fn is_empty(&self) -> bool {
        self.sets.iter().all(Vec::is_empty)
    }

    /// Immutable view of a resident line's words (no LRU/stat effects).
    pub fn data(&self, key: LineKey) -> Option<&[u64]> {
        let (set, way) = self.find(key)?;
        Some(&self.sets[set][way].data)
    }

    /// Mutable view of a resident line's words; marks it dirty (no
    /// LRU/stat effects).
    pub fn data_mut(&mut self, key: LineKey) -> Option<&mut [u64]> {
        let (set, way) = self.find(key)?;
        let slot = &mut self.sets[set][way];
        slot.dirty = true;
        Some(&mut slot.data)
    }

    /// Installs a copy of `data` as `key`, marked as `fill` says,
    /// evicting the LRU way if the set is full. Returns the installed
    /// words and the eviction victim if any: a dirty victim keeps its
    /// words for the writeback, a clean one hands its buffer to the new
    /// line and comes back without words.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly one line of words, or the key is
    /// already resident (a fill must follow a miss).
    pub fn install(
        &mut self,
        key: LineKey,
        data: &[u64],
        fill: Fill,
    ) -> (&mut [u64], Option<EvictedLine>) {
        assert_eq!(
            data.len(),
            self.cfg.words_per_line(),
            "fill data must be one line"
        );
        self.lru_gen += 1;
        let set_idx = self.set_index(key);
        let (dirty, lru_gen) = (fill != Fill::Clean, self.lru_gen);
        let set = &mut self.sets[set_idx];
        // One pass over the set both rules out a resident copy and finds
        // the least recently used way, which a full set gives up.
        let mut lru: Option<(u64, usize)> = None;
        for (way, s) in set.iter().enumerate() {
            assert!(s.key != key, "double fill of {key:?}");
            if lru.is_none_or(|(oldest, _)| s.lru < oldest) {
                lru = Some((s.lru, way));
            }
        }
        let lru_way = lru
            .map(|(_, way)| way)
            .filter(|_| set.len() >= self.cfg.assoc);
        let (way, victim) = match lru_way {
            Some(way) => {
                let slot = &mut set[way];
                self.stats.evictions += 1;
                self.stats.writebacks += u64::from(slot.dirty);
                let words = if slot.dirty {
                    std::mem::replace(&mut slot.data, data.to_vec())
                } else {
                    slot.data.copy_from_slice(data);
                    Vec::new()
                };
                let victim = EvictedLine {
                    key: slot.key,
                    dirty: slot.dirty,
                    data: words,
                };
                (slot.key, slot.dirty, slot.lru) = (key, dirty, lru_gen);
                (way, Some(victim))
            }
            None => {
                set.push(Slot {
                    key,
                    dirty,
                    lru: lru_gen,
                    data: data.to_vec(),
                });
                (set.len() - 1, None)
            }
        };
        if fill == Fill::Store {
            return (self.touch((set_idx, way), true), victim);
        }
        (&mut self.sets[set_idx][way].data, victim)
    }

    /// Installs a clean copy of `data` as `key`; returns the eviction
    /// victim, if any. [`SetAssocCache::install`] with [`Fill::Clean`].
    ///
    /// # Panics
    ///
    /// As [`SetAssocCache::install`].
    pub fn fill_from(&mut self, key: LineKey, data: &[u64]) -> Option<EvictedLine> {
        self.install(key, data, Fill::Clean).1
    }

    /// Removes the slot at `(set, way)`, counting an invalidation (and a
    /// writeback when dirty).
    fn remove(&mut self, (set, way): (usize, usize)) -> EvictedLine {
        let victim = self.sets[set].swap_remove(way);
        self.stats.invalidations += 1;
        self.stats.writebacks += u64::from(victim.dirty);
        victim.evicted()
    }

    /// Removes `key` if present; returns it (for writeback when dirty).
    pub fn invalidate(&mut self, key: LineKey) -> Option<EvictedLine> {
        let at = self.find(key)?;
        Some(self.remove(at))
    }

    /// Removes `key` if present *and dirty*, counting exactly as
    /// [`SetAssocCache::invalidate`] does; a clean copy stays.
    pub fn take_if_dirty(&mut self, key: LineKey) -> Option<EvictedLine> {
        let at = self
            .find(key)
            .filter(|&(set, way)| self.sets[set][way].dirty)?;
        Some(self.remove(at))
    }

    /// Removes every dirty line, appending it to `out` in set order and
    /// way order within a set, counting each as
    /// [`SetAssocCache::invalidate`] does. Clean lines stay, in order.
    pub fn drain_dirty_into(&mut self, out: &mut Vec<EvictedLine>) {
        for set in &mut self.sets {
            let mut way = 0;
            while way < set.len() {
                if set[way].dirty {
                    self.stats.invalidations += 1;
                    self.stats.writebacks += 1;
                    out.push(set.remove(way).evicted());
                } else {
                    way += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 4 sets × 2 ways × 64 B = 512 B.
        SetAssocCache::new(CacheConfig {
            size_bytes: 512,
            assoc: 2,
            line_bytes: 64,
            latency: 1,
        })
    }

    fn key(addr: u64) -> LineKey {
        LineKey::new(addr, 64, PatternId(0))
    }

    #[test]
    fn key_is_line_aligned() {
        assert_eq!(key(0x1009).addr, 0x1000);
        assert_eq!(key(0x103f).addr, 0x1000);
        assert_eq!(key(0x1040).addr, 0x1040);
    }

    #[test]
    fn set_index_is_the_line_index_modulo_the_set_count() {
        // 16 KB, 4-way, 128 B lines: 32 sets.
        let c = SetAssocCache::new(CacheConfig {
            size_bytes: 16 * 1024,
            assoc: 4,
            line_bytes: 128,
            latency: 1,
        });
        assert_eq!(c.sets.len(), 32);
        let mut rng = gsdram_core::rng::SplitMix(0x5E7);
        let fixed = [0, 127, 128, 4095, 4096, 0x1234_5678, u64::MAX];
        for addr in fixed.into_iter().chain((0..4096).map(|_| rng.next_u64())) {
            let key = LineKey::new(addr, 128, PatternId(3));
            assert_eq!(
                c.set_index(key),
                cast::to_usize(addr / 128 % 32),
                "{addr:#x}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "line size must be a power of two")]
    fn rejects_a_line_size_that_is_not_a_power_of_two() {
        let _ = SetAssocCache::new(CacheConfig {
            size_bytes: 96 * 4 * 32,
            assoc: 4,
            line_bytes: 96,
            latency: 1,
        });
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny();
        assert!(!c.probe(key(0), false));
        c.fill_from(key(0), &[1; 8]);
        assert!(c.probe(key(0), false));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.data(key(0)).unwrap(), &[1; 8]);
    }

    #[test]
    fn pattern_distinguishes_lines() {
        let mut c = tiny();
        let a = LineKey::new(0, 64, PatternId(0));
        let b = LineKey::new(0, 64, PatternId(7));
        c.fill_from(a, &[1; 8]);
        c.fill_from(b, &[2; 8]);
        assert_eq!(c.data(a).unwrap(), &[1; 8]);
        assert_eq!(c.data(b).unwrap(), &[2; 8]);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Lines mapping to set 0: addresses 0, 256, 512 (4 sets × 64 B).
        c.fill_from(key(0), &[0; 8]);
        c.fill_from(key(256), &[1; 8]);
        c.probe(key(0), false); // 0 becomes MRU
        let ev = c.fill_from(key(512), &[2; 8]).expect("must evict");
        assert_eq!(ev.key, key(256));
        assert!(c.contains(key(0)));
        assert!(c.contains(key(512)));
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().writebacks, 0);
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        c.fill_from(key(0), &[0; 8]);
        c.probe(key(0), true); // dirty
        c.fill_from(key(256), &[1; 8]);
        let ev = c.fill_from(key(512), &[2; 8]).expect("must evict");
        assert_eq!(ev.key, key(0));
        assert!(ev.dirty);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn write_probe_marks_dirty() {
        let mut c = tiny();
        c.fill_from(key(0), &[0; 8]);
        assert!(c.take_if_dirty(key(0)).is_none());
        c.probe(key(0), true);
        assert!(c.take_if_dirty(key(0)).is_some());
    }

    #[test]
    fn data_mut_marks_dirty() {
        let mut c = tiny();
        c.fill_from(key(0), &[0; 8]);
        c.data_mut(key(0)).unwrap()[3] = 99;
        assert_eq!(c.data(key(0)).unwrap()[3], 99);
        assert!(c.take_if_dirty(key(0)).is_some());
    }

    #[test]
    fn lookup_counts_hits_and_misses() {
        let mut c = tiny();
        assert!(c.lookup(key(0), false).is_none());
        c.fill_from(key(0), &[4; 8]);
        c.lookup(key(0), true).unwrap()[1] = 9;
        assert_eq!(c.lookup(key(0), false).unwrap()[..2], [4, 9]);
        assert!(c.lookup(key(64), false).is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (2, 2));
        assert!(c.take_if_dirty(key(0)).is_some(), "a write lookup dirties");
    }

    #[test]
    fn hit_counts_only_hits() {
        let mut c = tiny();
        assert!(c.hit(key(0)).is_none());
        c.fill_from(key(0), &[3; 8]);
        assert_eq!(c.hit(key(0)).unwrap()[0], 3);
        assert_eq!((c.stats().hits, c.stats().misses), (1, 0));
    }

    #[test]
    fn install_marks_as_asked() {
        let mut c = tiny();
        let (line, victim) = c.install(key(0), &[1; 8], Fill::Store);
        line[2] = 5;
        assert!(victim.is_none());
        c.install(key(64), &[2; 8], Fill::Dirty);
        c.install(key(128), &[3; 8], Fill::Clean);
        assert_eq!((c.stats().hits, c.stats().misses), (1, 0));
        assert_eq!(c.take_if_dirty(key(0)).unwrap().data[2], 5);
        assert_eq!(c.take_if_dirty(key(64)).unwrap().data, vec![2; 8]);
        assert!(c.take_if_dirty(key(128)).is_none());
    }

    #[test]
    fn store_install_is_most_recently_used() {
        let mut c = tiny();
        c.fill_from(key(0), &[0; 8]);
        c.install(key(256), &[1; 8], Fill::Store);
        c.probe(key(0), false); // 0 becomes MRU again
        let ev = c.fill_from(key(512), &[2; 8]).expect("must evict");
        assert_eq!(ev.key, key(256));
        assert!(ev.dirty);
    }

    #[test]
    fn take_if_dirty_leaves_clean_lines_and_counts_like_invalidate() {
        let mut c = tiny();
        c.fill_from(key(0), &[1; 8]);
        c.fill_from(key(64), &[2; 8]);
        c.probe(key(64), true);
        assert!(c.take_if_dirty(key(0)).is_none());
        assert!(c.take_if_dirty(key(128)).is_none());
        assert!(c.contains(key(0)));
        assert_eq!(c.stats().invalidations, 0);
        let ev = c.take_if_dirty(key(64)).unwrap();
        assert_eq!((ev.key, ev.dirty, ev.data), (key(64), true, vec![2; 8]));
        assert!(!c.contains(key(64)));

        let mut d = tiny();
        d.fill_from(key(64), &[2; 8]);
        d.probe(key(64), true);
        d.invalidate(key(64));
        assert_eq!(c.stats().invalidations, d.stats().invalidations);
        assert_eq!(c.stats().writebacks, d.stats().writebacks);
    }

    #[test]
    fn drain_dirty_into_returns_set_then_way_order() {
        let mut c = tiny();
        // Set 0 gets 256 then 0; set 1 gets 64; set 2 gets 128 (clean).
        for (a, v) in [(256, 1), (0, 2), (64, 3), (128, 4)] {
            c.fill_from(key(a), &[v; 8]);
        }
        for a in [0, 64, 256] {
            c.probe(key(a), true);
        }
        let mut out = Vec::new();
        c.drain_dirty_into(&mut out);
        let order: Vec<(u64, u64)> = out.iter().map(|e| (e.key.addr, e.data[0])).collect();
        assert_eq!(order, vec![(256, 1), (0, 2), (64, 3)]);
        assert!(out.iter().all(|e| e.dirty));
        assert_eq!(c.len(), 1);
        assert!(c.contains(key(128)));
        assert_eq!(c.stats().invalidations, 3);
        assert_eq!(c.stats().writebacks, 3);
        c.drain_dirty_into(&mut out);
        assert_eq!(out.len(), 3, "a drained cache is clean");

        // Way order within one 4-way set, dirty lines on both sides of
        // a clean one.
        let mut one_set = SetAssocCache::new(CacheConfig {
            size_bytes: 256,
            assoc: 4,
            line_bytes: 64,
            latency: 1,
        });
        for a in [0, 64, 128, 192] {
            one_set.fill_from(key(a), &[a; 8]);
        }
        for a in [0, 128, 192] {
            one_set.probe(key(a), true);
        }
        let mut out = Vec::new();
        one_set.drain_dirty_into(&mut out);
        let order: Vec<u64> = out.iter().map(|e| e.key.addr).collect();
        assert_eq!(order, vec![0, 128, 192]);
    }

    #[test]
    fn invalidate_returns_dirty_line() {
        let mut c = tiny();
        c.fill_from(key(0), &[7; 8]);
        c.probe(key(0), true);
        let ev = c.invalidate(key(0)).unwrap();
        assert!(ev.dirty);
        assert_eq!(ev.data, vec![7; 8]);
        assert!(!c.contains(key(0)));
        assert!(c.invalidate(key(0)).is_none());
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn table1_shapes() {
        let l1 = CacheConfig::l1_32k();
        assert_eq!(l1.sets(), 64);
        assert_eq!(l1.words_per_line(), 8);
        let l2 = CacheConfig::l2_2m();
        assert_eq!(l2.sets(), 4096);
    }

    #[test]
    fn miss_rate_computation() {
        let mut c = tiny();
        c.probe(key(0), false);
        c.fill_from(key(0), &[0; 8]);
        c.probe(key(0), false);
        assert!((c.stats().miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn len_counts_resident_lines() {
        let mut c = tiny();
        assert!(c.is_empty());
        c.fill_from(key(0), &[0; 8]);
        c.fill_from(key(64), &[0; 8]);
        assert_eq!(c.len(), 2);
        c.invalidate(key(0));
        assert_eq!(c.len(), 1);
    }
}
