//! `pattmalloc` and per-page pattern metadata (paper §4.3).
//!
//! The OS associates each virtual page with a *shuffle flag* and one
//! *alternate pattern ID*. Applications allocate pattern-capable memory
//! with `pattmalloc(size, SHUFFLE, pattern)`; any access to such a page
//! may use the zero pattern or the page's alternate pattern — the
//! restriction that keeps cache coherence simple (§4.1).

use core::fmt;
use gsdram_core::PatternId;

/// Metadata attached to a page-table entry (§4.4: "each page table entry
/// and TLB entry stores the shuffle flag and the alternate pattern ID").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageInfo {
    /// Whether the memory controller shuffles lines of this page (§3.2).
    pub shuffle: bool,
    /// The one non-zero pattern this page may be accessed with.
    pub alt_pattern: PatternId,
}

impl PageInfo {
    /// Plain memory: no shuffling, only the default pattern.
    pub fn plain() -> Self {
        PageInfo {
            shuffle: false,
            alt_pattern: PatternId::DEFAULT,
        }
    }

    /// Whether `pattern` is legal on this page.
    pub fn allows(&self, pattern: PatternId) -> bool {
        pattern.is_default() || pattern == self.alt_pattern
    }
}

/// Error for accesses violating the two-patterns-per-page restriction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatternNotAllowed {
    /// Offending address.
    pub addr: u64,
    /// Offending pattern.
    pub pattern: PatternId,
}

impl fmt::Display for PatternNotAllowed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pattern {} not allowed at address {:#x} (page allows only the default and its alternate pattern)",
            self.pattern.0, self.addr
        )
    }
}

impl std::error::Error for PatternNotAllowed {}

/// log2 of the page size.
const PAGE_SHIFT: u32 = 12;

/// Page size in bytes (4 KB).
const PAGE_BYTES: u64 = 1 << PAGE_SHIFT;

/// A bump allocator over the simulated physical memory that implements
/// `pattmalloc`: every allocation is row-aligned and its pages carry the
/// requested shuffle flag and alternate pattern.
///
/// ```
/// use gsdram_system::page::PageTable;
/// use gsdram_core::PatternId;
/// let mut pt = PageTable::new(1 << 20, 8192);
/// let base = pt.pattmalloc(64 * 64, true, PatternId(7));
/// assert!(pt.check(base, PatternId(7)).is_ok());   // alternate pattern
/// assert!(pt.check(base, PatternId(0)).is_ok());   // default pattern
/// assert!(pt.check(base, PatternId(3)).is_err());  // anything else faults
/// ```
#[derive(Debug, Clone)]
pub struct PageTable {
    row_bytes: u64,
    capacity: u64,
    next_free: u64,
    pages: Vec<PageInfo>,
}

impl PageTable {
    /// A page table over `capacity` bytes with 4 KB pages; allocations
    /// align to `row_bytes` (so column 0 of a row is element 0 of the
    /// allocation).
    pub fn new(capacity: u64, row_bytes: u64) -> Self {
        let pages = (capacity >> PAGE_SHIFT) as usize;
        PageTable {
            row_bytes,
            capacity,
            next_free: 0,
            pages: vec![PageInfo::plain(); pages],
        }
    }

    /// Plain `malloc`: row-aligned allocation with default-pattern-only
    /// pages.
    ///
    /// # Panics
    ///
    /// Panics if the simulated memory is exhausted.
    pub fn malloc(&mut self, bytes: u64) -> u64 {
        self.pattmalloc(bytes, false, PatternId::DEFAULT)
    }

    /// `pattmalloc(size, shuffle, pattern)` of §4.3.
    ///
    /// # Panics
    ///
    /// Panics if the simulated memory is exhausted.
    pub fn pattmalloc(&mut self, bytes: u64, shuffle: bool, pattern: PatternId) -> u64 {
        let base = self.next_free.div_ceil(self.row_bytes) * self.row_bytes;
        let end = base + bytes;
        assert!(
            end <= self.capacity,
            "simulated memory exhausted ({end} > {})",
            self.capacity
        );
        self.next_free = end;
        let info = PageInfo {
            shuffle,
            alt_pattern: pattern,
        };
        let first = (base >> PAGE_SHIFT) as usize;
        let last = (end.div_ceil(PAGE_BYTES) as usize).min(self.pages.len());
        for p in &mut self.pages[first..last] {
            *p = info;
        }
        base
    }

    /// Page metadata for `addr`.
    pub fn info(&self, addr: u64) -> PageInfo {
        let idx = (addr >> PAGE_SHIFT) as usize;
        self.pages.get(idx).copied().unwrap_or_else(PageInfo::plain)
    }

    /// Validates an access.
    ///
    /// # Errors
    ///
    /// Returns [`PatternNotAllowed`] when `pattern` is neither the
    /// default nor the page's alternate.
    pub fn check(&self, addr: u64, pattern: PatternId) -> Result<PageInfo, PatternNotAllowed> {
        let info = self.info(addr);
        if info.allows(pattern) {
            Ok(info)
        } else {
            Err(PatternNotAllowed { addr, pattern })
        }
    }

    /// Bytes allocated so far.
    pub fn allocated(&self) -> u64 {
        self.next_free
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattmalloc_sets_page_metadata() {
        let mut pt = PageTable::new(1 << 20, 8192);
        let base = pt.pattmalloc(100_000, true, PatternId(7));
        assert_eq!(base % 8192, 0);
        let info = pt.info(base + 50_000);
        assert!(info.shuffle);
        assert_eq!(info.alt_pattern, PatternId(7));
        assert!(pt.check(base, PatternId(7)).is_ok());
        assert!(pt.check(base, PatternId(0)).is_ok());
        let err = pt.check(base, PatternId(3)).unwrap_err();
        assert_eq!(err.pattern, PatternId(3));
        assert!(err.to_string().contains("not allowed"));
    }

    #[test]
    fn plain_malloc_rejects_nonzero_patterns() {
        let mut pt = PageTable::new(1 << 20, 8192);
        let base = pt.malloc(4096);
        assert!(pt.check(base, PatternId(0)).is_ok());
        assert!(pt.check(base, PatternId(1)).is_err());
    }

    #[test]
    fn allocations_are_disjoint_and_row_aligned() {
        let mut pt = PageTable::new(1 << 20, 8192);
        let a = pt.pattmalloc(100, true, PatternId(7));
        let b = pt.pattmalloc(100, false, PatternId(0));
        assert!(b >= a + 100);
        assert_eq!(b % 8192, 0);
        // Page metadata of the two allocations differs.
        assert!(pt.info(a).shuffle);
        assert!(!pt.info(b).shuffle);
        assert!(pt.allocated() >= 8192 + 100);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn exhaustion_panics() {
        let mut pt = PageTable::new(16384, 8192);
        pt.malloc(16384);
        pt.malloc(1);
    }

    #[test]
    fn info_reads_the_page_of_every_byte() {
        // Three allocations of different metadata and odd sizes, packed
        // against page boundaries by a one-page row alignment.
        let mut pt = PageTable::new(64 * PAGE_BYTES, PAGE_BYTES);
        let a = pt.pattmalloc(3 * PAGE_BYTES - 8, true, PatternId(7));
        let b = pt.pattmalloc(PAGE_BYTES + 1, false, PatternId(3));
        let c = pt.malloc(5 * PAGE_BYTES);
        assert_eq!((a, b, c), (0, 3 * PAGE_BYTES, 5 * PAGE_BYTES));
        let want = |addr: u64| match addr / 4096 {
            0..=2 => (true, PatternId(7)),
            3 | 4 => (false, PatternId(3)),
            _ => (false, PatternId::DEFAULT),
        };
        for addr in (0..12 * PAGE_BYTES)
            .step_by(8)
            .chain([64 * PAGE_BYTES, u64::MAX])
        {
            let info = pt.info(addr);
            assert_eq!((info.shuffle, info.alt_pattern), want(addr), "{addr:#x}");
        }
    }

    #[test]
    fn page_info_allows() {
        let p = PageInfo {
            shuffle: true,
            alt_pattern: PatternId(7),
        };
        assert!(p.allows(PatternId(0)));
        assert!(p.allows(PatternId(7)));
        assert!(!p.allows(PatternId(1)));
        assert!(PageInfo::plain().allows(PatternId(0)));
    }
}
