//! Model-based property tests: the set-associative cache against an
//! abstract reference (per-set LRU lists over a key→data map), plus
//! prefetcher and Dirty-Block-Index invariants. Cases come from a
//! deterministic PRNG ([`gsdram_core::rng::SplitMix`]) instead of
//! `proptest`, keeping the workspace dependency-free.

use gsdram_cache::cache::{CacheConfig, CacheStats, LineKey, SetAssocCache};
use gsdram_cache::dbi::DirtyBlockIndex;
use gsdram_cache::prefetch::StridePrefetcher;
use gsdram_core::rng::SplitMix;
use gsdram_core::PatternId;
use std::collections::HashMap;

/// The abstract cache: per-set most-recent-first key lists + contents,
/// plus the counters the real cache must report.
struct RefCacheModel {
    cfg: CacheConfig,
    sets: Vec<Vec<LineKey>>, // MRU first
    data: HashMap<LineKey, (Vec<u64>, bool)>,
    stats: CacheStats,
}

impl RefCacheModel {
    fn new(cfg: CacheConfig) -> Self {
        RefCacheModel {
            cfg,
            sets: vec![Vec::new(); cfg.sets()],
            data: HashMap::new(),
            stats: CacheStats::default(),
        }
    }

    fn set_of(&self, key: LineKey) -> usize {
        ((key.addr / self.cfg.line_bytes as u64) % self.sets.len() as u64) as usize
    }

    fn probe(&mut self, key: LineKey, write: bool) -> bool {
        let s = self.set_of(key);
        if let Some(pos) = self.sets[s].iter().position(|k| *k == key) {
            let k = self.sets[s].remove(pos);
            self.sets[s].insert(0, k);
            if write {
                self.data.get_mut(&key).expect("resident").1 = true;
            }
            self.stats.hits += 1;
            true
        } else {
            self.stats.misses += 1;
            false
        }
    }

    fn fill(&mut self, key: LineKey, data: Vec<u64>) -> Option<(LineKey, bool, Vec<u64>)> {
        let s = self.set_of(key);
        let victim = if self.sets[s].len() == self.cfg.assoc {
            let v = self.sets[s].pop().expect("full set");
            let (d, dirty) = self.data.remove(&v).expect("resident");
            self.stats.evictions += 1;
            self.stats.writebacks += dirty as u64;
            Some((v, dirty, d))
        } else {
            None
        };
        self.sets[s].insert(0, key);
        self.data.insert(key, (data, false));
        victim
    }

    fn invalidate(&mut self, key: LineKey) -> Option<(LineKey, bool, Vec<u64>)> {
        let s = self.set_of(key);
        let pos = self.sets[s].iter().position(|k| *k == key)?;
        self.sets[s].remove(pos);
        let (d, dirty) = self.data.remove(&key).expect("resident");
        self.stats.invalidations += 1;
        self.stats.writebacks += dirty as u64;
        Some((key, dirty, d))
    }

    fn take_if_dirty(&mut self, key: LineKey) -> Option<(LineKey, bool, Vec<u64>)> {
        if self.data.get(&key)?.1 {
            self.invalidate(key)
        } else {
            None
        }
    }
}

#[derive(Debug, Clone)]
enum CacheOp {
    Probe {
        line: u8,
        pattern: bool,
        write: bool,
    },
    Fill {
        line: u8,
        pattern: bool,
    },
    Invalidate {
        line: u8,
        pattern: bool,
    },
    Lookup {
        line: u8,
        pattern: bool,
        write: bool,
    },
    TakeIfDirty {
        line: u8,
        pattern: bool,
    },
    DrainDirty,
    WriteData {
        line: u8,
        pattern: bool,
        value: u64,
    },
}

fn random_ops(rng: &mut SplitMix) -> Vec<CacheOp> {
    let n = rng.range(1, 300) as usize;
    (0..n)
        .map(|_| {
            let line = rng.below(256) as u8;
            let pattern = rng.flip();
            match rng.below(8) {
                0 => CacheOp::Probe {
                    line,
                    pattern,
                    write: rng.flip(),
                },
                1 | 2 => CacheOp::Fill { line, pattern },
                3 => CacheOp::Invalidate { line, pattern },
                4 => CacheOp::Lookup {
                    line,
                    pattern,
                    write: rng.flip(),
                },
                5 => CacheOp::TakeIfDirty { line, pattern },
                6 if rng.below(8) == 0 => CacheOp::DrainDirty,
                _ => CacheOp::WriteData {
                    line,
                    pattern,
                    value: rng.next_u64(),
                },
            }
        })
        .collect()
}

fn key_of(line: u8, pattern: bool) -> LineKey {
    LineKey::new(
        line as u64 * 64,
        64,
        if pattern { PatternId(7) } else { PatternId(0) },
    )
}

/// The real cache behaves exactly like the abstract LRU model: same
/// hits, same eviction victims, same data, same dirty bits, same
/// counters. Eviction by a fill returns a dirty victim's words and a
/// clean victim's none (its buffer holds the new line).
#[test]
fn cache_matches_reference_model() {
    let mut rng = SplitMix(0xCAC1);
    for case in 0..128 {
        let ops = random_ops(&mut rng);
        // Tiny cache so evictions are frequent: 4 sets × 2 ways.
        let cfg = CacheConfig {
            size_bytes: 512,
            assoc: 2,
            line_bytes: 64,
            latency: 1,
        };
        let mut real = SetAssocCache::new(cfg);
        let mut model = RefCacheModel::new(cfg);
        let mut fill_counter = 0u64;
        for op in ops {
            match op {
                CacheOp::Probe {
                    line,
                    pattern,
                    write,
                } => {
                    let key = key_of(line, pattern);
                    assert_eq!(
                        real.probe(key, write),
                        model.probe(key, write),
                        "probe {key:?}"
                    );
                }
                CacheOp::Fill { line, pattern } => {
                    let key = key_of(line, pattern);
                    if real.contains(key) {
                        continue; // double fill is a caller error by contract
                    }
                    fill_counter += 1;
                    let data = vec![fill_counter; 8];
                    let r = real.fill_from(key, &data);
                    assert_eq!(real.data(key), Some(&data[..]), "installed words");
                    let m = model.fill(key, data);
                    match (r, m) {
                        (None, None) => {}
                        (Some(re), Some((mk, mdirty, mdata))) => {
                            assert_eq!(re.key, mk, "victim identity");
                            assert_eq!(re.dirty, mdirty, "victim dirty bit");
                            // A dirty victim carries its words for the
                            // writeback; a clean one gave its buffer to
                            // the new line and carries none.
                            if mdirty {
                                assert_eq!(re.data, mdata, "dirty victim data");
                            } else {
                                assert!(re.data.is_empty(), "clean victim words");
                            }
                        }
                        (r, m) => {
                            panic!(
                                "case {case}: eviction mismatch: {r:?} vs {:?}",
                                m.map(|x| x.0)
                            )
                        }
                    }
                }
                CacheOp::Invalidate { line, pattern } => {
                    let key = key_of(line, pattern);
                    let r = real.invalidate(key);
                    let m = model.invalidate(key);
                    assert_eq!(r.is_some(), m.is_some(), "invalidate {key:?}");
                    if let (Some(re), Some((_, mdirty, mdata))) = (r, m) {
                        assert_eq!(re.dirty, mdirty);
                        assert_eq!(re.data, mdata);
                    }
                }
                CacheOp::Lookup {
                    line,
                    pattern,
                    write,
                } => {
                    let key = key_of(line, pattern);
                    let r = real.lookup(key, write).map(|d| d.to_vec());
                    let m = model.probe(key, write).then(|| model.data[&key].0.clone());
                    assert_eq!(r, m, "lookup {key:?}");
                }
                CacheOp::TakeIfDirty { line, pattern } => {
                    let key = key_of(line, pattern);
                    let r = real.take_if_dirty(key);
                    let m = model.take_if_dirty(key);
                    assert_eq!(
                        r.map(|e| (e.key, e.dirty, e.data)),
                        m,
                        "take_if_dirty {key:?}"
                    );
                }
                CacheOp::DrainDirty => {
                    let mut out = Vec::new();
                    real.drain_dirty_into(&mut out);
                    let sets: Vec<usize> = out.iter().map(|e| model.set_of(e.key)).collect();
                    assert!(sets.is_sorted(), "drain must go set by set: {sets:?}");
                    let mut want: Vec<LineKey> = model
                        .data
                        .iter()
                        .filter(|(_, (_, dirty))| *dirty)
                        .map(|(k, _)| *k)
                        .collect();
                    want.sort_by_key(|k| (model.set_of(*k), *k));
                    let mut got: Vec<LineKey> = out.iter().map(|e| e.key).collect();
                    got.sort_by_key(|k| (model.set_of(*k), *k));
                    assert_eq!(got, want, "drained keys");
                    for e in out {
                        let m = model.invalidate(e.key).expect("model resident");
                        assert_eq!((e.dirty, e.data), (m.1, m.2), "drained {:?}", e.key);
                    }
                }
                CacheOp::WriteData {
                    line,
                    pattern,
                    value,
                } => {
                    let key = key_of(line, pattern);
                    if let Some(d) = real.data_mut(key) {
                        d[3] = value;
                        model.data.get_mut(&key).expect("model resident").0[3] = value;
                        model.data.get_mut(&key).expect("model resident").1 = true;
                    } else {
                        assert!(!model.data.contains_key(&key));
                    }
                }
            }
            assert_eq!(real.stats(), model.stats, "case {case}: counters");
            // Residency agrees after every step.
            for l in 0..=255u8 {
                for p in [false, true] {
                    let key = key_of(l, p);
                    assert_eq!(
                        real.contains(key),
                        model.data.contains_key(&key),
                        "residency of {key:?}"
                    );
                }
            }
        }
        // Stats sanity: the cache never holds more lines than capacity.
        let cap = cfg.sets() * cfg.assoc;
        assert!(real.len() <= cap);
        assert_eq!(real.len(), model.data.len());
    }
}

/// Prefetcher never emits the line it was trained on, never emits more
/// than `degree` lines, and always emits line-aligned addresses.
#[test]
fn prefetcher_output_bounds() {
    let mut rng = SplitMix(0xCAC2);
    for _ in 0..128 {
        let n = rng.range(1, 100) as usize;
        let mut p = StridePrefetcher::degree4();
        let mut out = Vec::new();
        let mut addr: i64 = 1 << 20;
        for _ in 0..n {
            let pc = rng.below(8);
            let stride = rng.range_i64(-512, 512);
            addr = (addr + stride).max(0);
            p.observe_into(pc, addr as u64, &mut out);
            assert!(out.len() <= 4, "degree bound");
            let cur_line = (addr as u64) / 64 * 64;
            assert!(out.iter().all(|&a| a != cur_line), "self-prefetch");
            assert!(out.iter().all(|&a| a % 64 == 0), "line alignment");
        }
    }
}

/// DBI: mark/clear tracks an exact reference set; row queries are
/// precise when maintained exactly.
#[test]
fn dbi_matches_reference_set() {
    let mut rng = SplitMix(0xCAC3);
    for _ in 0..128 {
        let n = rng.range(1, 200) as usize;
        let mut dbi = DirtyBlockIndex::table1();
        let mut reference: std::collections::HashSet<LineKey> = Default::default();
        for _ in 0..n {
            let line = rng.below(64) as u8;
            let pattern = rng.flip();
            let dirty = rng.flip();
            let key = key_of(line, pattern);
            if dirty {
                dbi.mark_dirty(key);
                reference.insert(key);
            } else {
                dbi.mark_clean(key);
                reference.remove(&key);
            }
            assert_eq!(dbi.may_be_dirty(key), reference.contains(&key));
        }
        // Row-level query agrees with the reference per pattern.
        for p in [PatternId(0), PatternId(7)] {
            let any_ref = reference.iter().any(|k| k.pattern == p && k.addr < 8192);
            assert_eq!(dbi.row_has_dirty(0, p), any_ref, "{p:?}");
        }
    }
}
