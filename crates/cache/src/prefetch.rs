//! PC-based stride prefetcher (paper §5.1).
//!
//! The analytics evaluation uses "a PC-based stride prefetcher \[6\]
//! (with prefetching degree of 4 \[44\]) that prefetches data into the L2
//! cache". This is the classic Baer–Chen reference-prediction table:
//! direct-mapped on the load PC, tracking the last address and stride
//! with a small confidence counter.

use gsdram_core::cast;
use gsdram_core::stats::{ReportStats, StatsNode};

/// One reference-prediction-table entry.
#[derive(Debug, Clone, Copy)]
struct Entry {
    pc: u64,
    last_addr: u64,
    stride: i64,
    confidence: u8,
}

/// Statistics for the prefetcher.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchStats {
    /// Training observations.
    pub observations: u64,
    /// Prefetch addresses emitted.
    pub issued: u64,
}

impl ReportStats for PrefetchStats {
    fn stats_node(&self, name: &str) -> StatsNode {
        StatsNode::new(name)
            .counter("observations", self.observations)
            .counter("issued", self.issued)
    }
}

/// A PC-indexed stride prefetcher with configurable degree.
///
/// ```
/// use gsdram_cache::prefetch::StridePrefetcher;
/// let mut p = StridePrefetcher::degree4();
/// let mut lines = Vec::new();
/// p.observe_into(0x400, 0, &mut lines);
/// p.observe_into(0x400, 64, &mut lines);    // stride learned...
/// p.observe_into(0x400, 128, &mut lines);   // ...and confirmed
/// assert_eq!(lines, vec![192, 256, 320, 384]);
/// ```
#[derive(Debug, Clone)]
pub struct StridePrefetcher {
    table: Vec<Option<Entry>>,
    degree: usize,
    /// log2 of the line size.
    line_shift: u32,
    stats: PrefetchStats,
}

impl StridePrefetcher {
    /// The paper's configuration: degree 4, 256-entry table, 64 B lines.
    pub fn degree4() -> Self {
        Self::new(4, 256, 64)
    }

    /// A prefetcher with the given degree, table size and line size.
    ///
    /// # Panics
    ///
    /// Panics if `entries` or `line_bytes` is not a power of two or
    /// `degree` is zero.
    pub fn new(degree: usize, entries: usize, line_bytes: u64) -> Self {
        assert!(entries.is_power_of_two() && degree > 0);
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        StridePrefetcher {
            table: vec![None; entries],
            degree,
            line_shift: line_bytes.trailing_zeros(),
            stats: PrefetchStats::default(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> PrefetchStats {
        self.stats
    }

    /// Trains on a demand access `(pc, addr)` and writes the *line*
    /// addresses to prefetch into `out`, cleared first (empty until the
    /// stride is confident). A caller-owned buffer keeps the miss path
    /// allocation-free.
    ///
    /// Only distinct lines ahead of the access are written, so a unit-
    /// stride stream prefetches `degree` upcoming lines, not duplicates
    /// of the current one.
    pub fn observe_into(&mut self, pc: u64, addr: u64, out: &mut Vec<u64>) {
        self.stats.observations += 1;
        let idx = cast::to_usize(pc) & (self.table.len() - 1);
        out.clear();
        match &mut self.table[idx] {
            Some(e) if e.pc == pc => {
                let stride = cast::signed(addr) - cast::signed(e.last_addr);
                if stride == e.stride && stride != 0 {
                    e.confidence = e.confidence.saturating_add(1).min(4);
                } else {
                    e.stride = stride;
                    e.confidence = 1;
                }
                e.last_addr = addr;
                if e.confidence >= 2 {
                    let cur_line = addr >> self.line_shift;
                    let mut seen_last = cur_line;
                    let degree = cast::signed(cast::widen(self.degree));
                    for d in 1..=degree {
                        let target = cast::signed(addr) + e.stride * d;
                        if target < 0 {
                            break;
                        }
                        let line = cast::unsigned(target) >> self.line_shift;
                        if line != seen_last {
                            out.push(line << self.line_shift);
                            seen_last = line;
                        }
                    }
                }
            }
            _ => {
                self.table[idx] = Some(Entry {
                    pc,
                    last_addr: addr,
                    stride: 0,
                    confidence: 0,
                });
            }
        }
        self.stats.issued += cast::widen(out.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl StridePrefetcher {
        fn observe(&mut self, pc: u64, addr: u64) -> Vec<u64> {
            let mut out = Vec::new();
            self.observe_into(pc, addr, &mut out);
            out
        }
    }

    #[test]
    fn needs_training_before_issuing() {
        let mut p = StridePrefetcher::degree4();
        assert!(p.observe(0x400, 0).is_empty());
        assert!(p.observe(0x400, 64).is_empty()); // first stride observation
        let pf = p.observe(0x400, 128); // stride confirmed
        assert_eq!(pf, vec![192, 256, 320, 384]);
    }

    #[test]
    fn stride_change_resets_confidence() {
        let mut p = StridePrefetcher::degree4();
        p.observe(0x400, 0);
        p.observe(0x400, 64);
        p.observe(0x400, 128);
        assert!(p.observe(0x400, 1000).is_empty(), "broken stride");
        assert!(p.observe(0x400, 2000).is_empty(), "retraining");
        assert!(!p.observe(0x400, 3000).is_empty(), "new stride confirmed");
    }

    #[test]
    fn sub_line_strides_prefetch_distinct_lines() {
        // An 8-byte-stride stream must not emit four copies of the same
        // line.
        let mut p = StridePrefetcher::degree4();
        p.observe(0x400, 0);
        p.observe(0x400, 8);
        let pf = p.observe(0x400, 16);
        assert!(pf.len() <= 1, "{pf:?}");
    }

    #[test]
    fn big_strides_prefetch_degree_lines() {
        let mut p = StridePrefetcher::degree4();
        p.observe(0x400, 0);
        p.observe(0x400, 512);
        let pf = p.observe(0x400, 1024);
        assert_eq!(pf, vec![1536, 2048, 2560, 3072]);
    }

    #[test]
    fn different_pcs_do_not_interfere() {
        let mut p = StridePrefetcher::degree4();
        p.observe(0x400, 0);
        p.observe(0x401, 100_000);
        p.observe(0x400, 64);
        p.observe(0x401, 100_064);
        // 0x400's stream is still confident despite interleaving.
        let pf = p.observe(0x400, 128);
        assert!(!pf.is_empty());
    }

    #[test]
    fn zero_stride_never_prefetches() {
        let mut p = StridePrefetcher::degree4();
        for _ in 0..10 {
            assert!(p.observe(0x400, 64).is_empty());
        }
    }

    #[test]
    fn stats_count_observations_and_issues() {
        let mut p = StridePrefetcher::degree4();
        p.observe(0x400, 0);
        p.observe(0x400, 64);
        p.observe(0x400, 128);
        let s = p.stats();
        assert_eq!(s.observations, 3);
        assert_eq!(s.issued, 4);
    }
}
