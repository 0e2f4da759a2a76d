//! # gsdram-cache
//!
//! Pattern-ID-aware cache structures for the GS-DRAM end-to-end system
//! (paper §4.1, §5.1):
//!
//! * [`cache`] — ordinary (non-sectored) LRU set-associative caches whose
//!   tags carry the pattern ID a line was gathered with;
//! * [`overlap`] — the overlap sets behind the paper's two-patterns-per-
//!   page coherence scheme (flush-before-fetch, invalidate-on-write);
//! * [`prefetch`] — the PC-based stride prefetcher (degree 4) used in
//!   the analytics evaluation;
//! * [`sectored`] — the sectored-cache alternative §4.1 rejects, for
//!   quantitative comparison;
//! * [`dbi`] — the Dirty-Block Index accelerating the coherence flush
//!   check.
//!
//! ```
//! use gsdram_cache::cache::{CacheConfig, LineKey, SetAssocCache};
//! use gsdram_cache::overlap::OverlapCalc;
//! use gsdram_core::{GsDramConfig, PatternId};
//!
//! let mut l1 = SetAssocCache::new(CacheConfig::l1_32k());
//! let tuple = LineKey::new(0x40, 64, PatternId(0));
//! l1.fill_from(tuple, &[0; 8]);
//!
//! // A stride-8 gathered line overlapping that tuple:
//! let calc = OverlapCalc::new(GsDramConfig::gs_dram_8_3_3(), 64, 128);
//! let fields = calc.overlapping_lines(tuple, PatternId(7), true);
//! assert_eq!(fields.len(), 8);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod dbi;
pub mod overlap;
pub mod prefetch;
pub mod sectored;
