//! Selective projection: `SELECT * FROM t WHERE field[c] < threshold`.
//!
//! A data-dependent query the paper's HTAP motivation implies but does
//! not evaluate: scan one column, and fetch the *full tuple* only for
//! matching rows. GS-DRAM accelerates the scan phase (gathered column
//! lines) while the row-store layout keeps the fetch phase one line per
//! match — so, unlike pure analytics, the benefit shrinks as
//! selectivity grows and the tuple fetches dominate. The
//! `extension_filter` harness sweeps that crossover.
//!
//! Unlike the other workloads, the op stream here is *data dependent*:
//! the program decides whether to fetch a tuple based on the value each
//! scan load returns (via [`Program::on_load_value`]).

use gsdram_core::PatternId;
use gsdram_system::ops::{Op, Program};

use crate::common::{load, pattload};
use crate::imdb::{Layout, Table};

/// State machine for the filter query.
#[derive(Debug)]
pub struct FilterQuery {
    table: Table,
    field: usize,
    threshold: u64,
    /// Tuple index the scan will read next.
    scan_next: u64,
    /// Pending tuple fetches (indices that matched).
    fetch_queue: Vec<u64>,
    /// Which field of the pending fetch is next (0..8).
    fetch_field: usize,
    /// Value of the last scan load, set by `on_load_value`.
    awaiting_value: bool,
    matches: u64,
    sum_of_matches: u64,
}

impl FilterQuery {
    /// A query over `table` selecting tuples whose `field` value is
    /// below `threshold`. With the table's `t*8 + f` initialisation,
    /// `threshold = s * 8` yields selectivity `s / tuples`.
    pub fn new(table: Table, field: usize, threshold: u64) -> Self {
        FilterQuery {
            table,
            field,
            threshold,
            scan_next: 0,
            fetch_queue: Vec::new(),
            fetch_field: 0,
            awaiting_value: false,
            matches: 0,
            sum_of_matches: 0,
        }
    }

    /// Number of matching tuples found.
    pub fn matches(&self) -> u64 {
        self.matches
    }

    fn scan_op(&mut self) -> Op {
        let t = self.scan_next;
        self.scan_next += 1;
        self.awaiting_value = true;
        match self.table.layout {
            Layout::GsDram => {
                // Figure 8 addressing: gathered line of field `field`
                // covering tuple group t & !7, word t % 8.
                let group = t & !7;
                pattload(
                    0x800 + self.field as u64,
                    self.table.base + (group + self.field as u64) * 64 + (t % 8) * 8,
                    PatternId(7),
                )
            }
            _ => load(
                0x800 + self.field as u64,
                self.table.field_addr(t, self.field),
            ),
        }
    }
}

impl Program for FilterQuery {
    fn next_op(&mut self) -> Option<Op> {
        // Drain pending tuple fetches first (projection of matches).
        if let Some(&t) = self.fetch_queue.first() {
            let f = self.fetch_field;
            self.fetch_field += 1;
            if self.fetch_field == 8 {
                self.fetch_field = 0;
                self.fetch_queue.remove(0);
            }
            return Some(load(0x900 + f as u64, self.table.field_addr(t, f)));
        }
        if self.scan_next < self.table.tuples {
            return Some(self.scan_op());
        }
        None
    }

    fn on_load_value(&mut self, value: u64) {
        if self.awaiting_value {
            self.awaiting_value = false;
            let scanned = self.scan_next - 1;
            if value < self.threshold {
                self.matches += 1;
                self.fetch_queue.push(scanned);
            }
        } else {
            // A projection load of a matching tuple.
            self.sum_of_matches = self.sum_of_matches.wrapping_add(value);
        }
    }

    fn progress(&self) -> u64 {
        self.matches
    }

    fn result(&self) -> u64 {
        self.sum_of_matches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsdram_system::config::SystemConfig;
    use gsdram_system::machine::{Machine, StopWhen};

    fn run(layout: Layout, tuples: u64, threshold: u64) -> (gsdram_system::RunReport, u64) {
        let mut m = Machine::new(SystemConfig::table1(1, 16 << 20));
        let table = Table::create(&mut m, layout, tuples);
        let mut q = FilterQuery::new(table, 0, threshold);
        let r = {
            let mut programs: Vec<&mut dyn Program> = vec![&mut q];
            m.run(&mut programs, StopWhen::AllDone)
        };
        let matches = q.matches();
        (r, matches)
    }

    #[test]
    fn finds_exactly_the_matching_tuples() {
        // field 0 of tuple t is 8t; threshold 8s matches tuples 0..s.
        for layout in Layout::ALL {
            let (r, matches) = run(layout, 512, 8 * 100);
            assert_eq!(matches, 100, "{}", layout.label());
            // Σ over matching tuples of Σ_f (8t + f) = Σ_t (64t + 28).
            let want: u64 = (0..100u64).map(|t| 64 * t + 28).sum();
            assert_eq!(r.results[0], want, "{}", layout.label());
        }
    }

    #[test]
    fn zero_selectivity_is_a_pure_scan() {
        let (row, m0) = run(Layout::RowStore, 1024, 0);
        let (gs, m1) = run(Layout::GsDram, 1024, 0);
        assert_eq!(m0, 0);
        assert_eq!(m1, 0);
        // Scan-only: GS touches 8x fewer lines.
        assert_eq!(row.dram.reads, 1024);
        assert_eq!(gs.dram.reads, 128);
        assert!(gs.cpu_cycles < row.cpu_cycles);
    }

    #[test]
    fn full_selectivity_converges_to_row_store() {
        // When every tuple matches, the projection fetches dominate and
        // the layouts converge (GS still pays its scan lines).
        let (row, _) = run(Layout::RowStore, 512, u64::MAX);
        let (gs, _) = run(Layout::GsDram, 512, u64::MAX);
        let ratio = gs.cpu_cycles as f64 / row.cpu_cycles as f64;
        assert!(ratio < 1.30, "ratio {ratio}");
    }

    #[test]
    fn benefit_shrinks_with_selectivity() {
        let speedup = |threshold| {
            let (row, _) = run(Layout::RowStore, 1024, threshold);
            let (gs, _) = run(Layout::GsDram, 1024, threshold);
            row.cpu_cycles as f64 / gs.cpu_cycles as f64
        };
        let low = speedup(8 * 16); // ~1.6% selectivity
        let high = speedup(8 * 768); // 75% selectivity
        assert!(low > high, "low-selectivity speedup {low} !> {high}");
        assert!(low > 1.5);
    }
}
