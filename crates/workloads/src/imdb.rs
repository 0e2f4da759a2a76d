//! The in-memory database workload (paper §5.1).
//!
//! One table of `tuples` tuples, each with eight 8-byte fields, exactly
//! one cache line per tuple. Three storage mechanisms are compared:
//!
//! * **Row Store** — tuple-major; transactions touch one line, analytics
//!   touch every line;
//! * **Column Store** — field-major arrays; analytics stream one array,
//!   transactions touch one line per field;
//! * **GS-DRAM** — physically a row store allocated with
//!   `pattmalloc(…, SHUFFLE, 7)`; transactions use pattern 0, analytics
//!   use `pattload` with pattern 7 (stride 8) to gather one field of
//!   eight tuples per cache line (the Figure 8 loop structure).

use gsdram_core::PatternId;
use gsdram_system::ops::Op;
use gsdram_system::Machine;

use crate::common::{gathered_field_scan, load, store, IterProgram, Nest, SplitMix};

/// Fields per tuple (the paper's 64-byte tuples).
pub const FIELDS: usize = 8;

/// The three storage mechanisms of §5.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Tuple-major (one tuple per cache line).
    RowStore,
    /// Field-major (one array per field).
    ColumnStore,
    /// Tuple-major over GS-DRAM with the stride-8 alternate pattern.
    GsDram,
}

impl Layout {
    /// All three mechanisms, in the paper's presentation order.
    pub const ALL: [Layout; 3] = [Layout::RowStore, Layout::ColumnStore, Layout::GsDram];

    /// Display label matching the paper's legends.
    pub fn label(&self) -> &'static str {
        match self {
            Layout::RowStore => "Row Store",
            Layout::ColumnStore => "Column Store",
            Layout::GsDram => "GS-DRAM",
        }
    }
}

/// A table resident in the simulated machine.
#[derive(Debug, Clone, Copy)]
pub struct Table {
    /// Storage mechanism.
    pub layout: Layout,
    /// Number of tuples.
    pub tuples: u64,
    /// Base physical address.
    pub base: u64,
}

impl Table {
    /// Allocates and initialises a table. Field `f` of tuple `t` holds
    /// `t * 8 + f`, so column sums are analytically checkable.
    pub fn create(m: &mut Machine, layout: Layout, tuples: u64) -> Table {
        let bytes = tuples * 64;
        let base = match layout {
            Layout::RowStore | Layout::ColumnStore => m.malloc(bytes),
            Layout::GsDram => m.pattmalloc(bytes, true, PatternId(7)),
        };
        let table = Table {
            layout,
            tuples,
            base,
        };
        match layout {
            Layout::RowStore | Layout::GsDram => {
                // One tuple is one line: write it with a single scatter.
                let mut line = [0u64; FIELDS];
                for t in 0..tuples {
                    for (f, w) in (0u64..).zip(&mut line) {
                        *w = t * 8 + f;
                    }
                    m.poke_line(table.field_addr(t, 0), &line);
                }
            }
            Layout::ColumnStore => {
                for t in 0..tuples {
                    for f in 0..FIELDS as u64 {
                        m.poke(table.field_addr(t, f as usize), t * 8 + f);
                    }
                }
            }
        }
        table
    }

    /// Physical address of field `f` of tuple `t`.
    pub fn field_addr(&self, t: u64, f: usize) -> u64 {
        match self.layout {
            Layout::RowStore | Layout::GsDram => self.base + t * 64 + f as u64 * 8,
            Layout::ColumnStore => self.base + f as u64 * (self.tuples * 8) + t * 8,
        }
    }

    /// The expected sum of field `f` over all tuples (for verification):
    /// `Σ_t (t*8 + f)`.
    pub fn expected_column_sum(&self, f: usize) -> u64 {
        let n = self.tuples;
        (n * (n - 1) / 2).wrapping_mul(8).wrapping_add(n * f as u64)
    }
}

/// A transaction mix: how many fields are read-only, write-only and
/// read-write per transaction (the x-axis labels of Figure 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnSpec {
    /// Fields read.
    pub read_only: usize,
    /// Fields written.
    pub write_only: usize,
    /// Fields read then written.
    pub read_write: usize,
}

impl TxnSpec {
    /// The eight workloads of Figure 9, sorted by total fields accessed.
    pub const FIGURE9: [TxnSpec; 8] = [
        TxnSpec {
            read_only: 1,
            write_only: 0,
            read_write: 1,
        },
        TxnSpec {
            read_only: 2,
            write_only: 1,
            read_write: 0,
        },
        TxnSpec {
            read_only: 0,
            write_only: 2,
            read_write: 2,
        },
        TxnSpec {
            read_only: 2,
            write_only: 4,
            read_write: 0,
        },
        TxnSpec {
            read_only: 5,
            write_only: 0,
            read_write: 1,
        },
        TxnSpec {
            read_only: 2,
            write_only: 0,
            read_write: 4,
        },
        TxnSpec {
            read_only: 6,
            write_only: 1,
            read_write: 0,
        },
        TxnSpec {
            read_only: 4,
            write_only: 2,
            read_write: 2,
        },
    ];

    /// Label like "1-0-1" used on the Figure 9 x-axis.
    pub fn label(&self) -> String {
        format!("{}-{}-{}", self.read_only, self.write_only, self.read_write)
    }

    /// Total fields touched.
    pub fn fields(&self) -> usize {
        self.read_only + self.write_only + self.read_write
    }
}

/// Builds the transaction program: `count` transactions, each on a
/// uniformly random tuple, touching distinct random fields per the spec
/// (§5.1 "each transaction operates on a randomly-chosen tuple").
/// Transactions use the default pattern on every layout. Pass
/// `u64::MAX` for an endless HTAP thread.
pub fn transactions(table: Table, spec: TxnSpec, count: u64, seed: u64) -> IterProgram {
    let mut rng = SplitMix(seed);
    let per_txn = spec.fields();
    assert!(per_txn <= FIELDS, "at most 8 fields per transaction");
    IterProgram::units(count, move |_, ops| {
        let t = rng.below(table.tuples);
        // Choose `per_txn` distinct fields, drawn as `Vec::swap_remove`
        // over `0..FIELDS` would draw them.
        let mut fields = [0usize; FIELDS];
        let mut available: [usize; FIELDS] = std::array::from_fn(|f| f);
        for (taken, slot) in fields.iter_mut().take(per_txn).enumerate() {
            let last = FIELDS - 1 - taken;
            let i = rng.below(last as u64 + 1) as usize;
            *slot = available[i];
            available[i] = available[last];
        }
        for (idx, &f) in fields[..per_txn].iter().enumerate() {
            let (addr, pc) = (table.field_addr(t, f), idx as u64);
            if idx < spec.read_only {
                ops.push(load(0x100 + pc, addr));
            } else if idx < spec.read_only + spec.write_only {
                ops.push(store(0x200 + pc, addr, rng.next_u64()));
            } else {
                ops.push(load(0x300 + pc, addr));
                ops.push(store(0x400 + pc, addr, rng.next_u64()));
            }
            ops.push(Op::Compute(10)); // per-field predicate/marshalling work
        }
        // Transaction prologue/epilogue: index lookup, locking, commit
        // bookkeeping (calibrates the memory share of a transaction to
        // the paper's Figure 9 ratios).
        ops.push(Op::Compute(150));
    })
}

/// Builds the analytics program: the sum of `columns` fields over the
/// whole table (§5.1). Loop structure per layout:
///
/// * Row Store: tuple-major — one line per tuple covers all requested
///   fields;
/// * Column Store: field-major streaming over each column array;
/// * GS-DRAM: the Figure 8 structure — for each group of 8 tuples, one
///   `pattload` line per field gathered with pattern 7.
pub fn analytics(table: Table, columns: &[usize]) -> IterProgram {
    let tuples = table.tuples as usize;
    let nests = match table.layout {
        Layout::RowStore => {
            let mut nest = Nest::new(&[tuples]);
            for &f in columns {
                nest.op(|[t, ..]| load(0x500 + f as u64, table.field_addr(t as u64, f)));
            }
            nest.op(|_| Op::Compute(1));
            vec![nest]
        }
        Layout::ColumnStore => columns
            .iter()
            .map(|&f| {
                let mut nest = Nest::new(&[tuples]);
                nest.op(|[t, ..]| load(0x600 + f as u64, table.field_addr(t as u64, f)))
                    .op(|_| Op::Compute(1));
                nest
            })
            .collect(),
        Layout::GsDram => columns
            .iter()
            .map(|&f| gathered_field_scan(0x700 + f as u64, table.base, table.tuples, f))
            .collect(),
    };
    IterProgram::nests(nests)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsdram_system::config::SystemConfig;
    use gsdram_system::machine::StopWhen;
    use gsdram_system::ops::Program;

    fn machine() -> Machine {
        Machine::new(SystemConfig::table1(1, 16 << 20))
    }

    #[test]
    fn field_addresses_by_layout() {
        let row = Table {
            layout: Layout::RowStore,
            tuples: 100,
            base: 0,
        };
        assert_eq!(row.field_addr(3, 2), 3 * 64 + 16);
        let col = Table {
            layout: Layout::ColumnStore,
            tuples: 100,
            base: 0,
        };
        assert_eq!(col.field_addr(3, 2), 2 * 800 + 24);
        let gs = Table {
            layout: Layout::GsDram,
            tuples: 100,
            base: 4096,
        };
        assert_eq!(gs.field_addr(3, 2), 4096 + 3 * 64 + 16);
    }

    #[test]
    fn analytics_sums_are_correct_on_all_layouts() {
        for layout in Layout::ALL {
            let mut m = machine();
            let table = Table::create(&mut m, layout, 256);
            let mut p = analytics(table, &[2]);
            let r = {
                let mut programs: Vec<&mut dyn Program> = vec![&mut p];
                m.run(&mut programs, StopWhen::AllDone)
            };
            assert_eq!(
                r.results[0],
                table.expected_column_sum(2),
                "{} column sum",
                layout.label()
            );
        }
    }

    #[test]
    fn gsdram_analytics_fetches_fewer_lines_than_row_store() {
        let run = |layout| {
            let mut m = machine();
            let table = Table::create(&mut m, layout, 1024);
            let mut p = analytics(table, &[0]);
            let mut programs: Vec<&mut dyn Program> = vec![&mut p];
            m.run(&mut programs, StopWhen::AllDone)
        };
        let row = run(Layout::RowStore);
        let gs = run(Layout::GsDram);
        // 8× fewer cache lines (one gathered line covers 8 tuples).
        assert_eq!(row.dram.reads, 1024);
        assert_eq!(gs.dram.reads, 128);
        assert!(gs.cpu_cycles < row.cpu_cycles);
    }

    #[test]
    fn transactions_complete_and_count() {
        let mut m = machine();
        let table = Table::create(&mut m, Layout::RowStore, 1024);
        let spec = TxnSpec {
            read_only: 1,
            write_only: 1,
            read_write: 1,
        };
        let mut p = transactions(table, spec, 50, 7);
        let r = {
            let mut programs: Vec<&mut dyn Program> = vec![&mut p];
            m.run(&mut programs, StopWhen::AllDone)
        };
        assert_eq!(r.progress[0], 50);
        assert!(r.mem_ops >= 50 * 4); // 1 RO + 1 WO + (1+1) RW per txn
    }

    #[test]
    fn transaction_progress_moves_only_on_its_last_op() {
        let table = Table {
            layout: Layout::RowStore,
            tuples: 1024,
            base: 0,
        };
        // 4-2-2: 4×(load, compute) + 2×(store, compute) +
        // 2×(load, store, compute) + the commit compute = 19 ops.
        let mut p = transactions(table, TxnSpec::FIGURE9[7], 20, 3);
        let (mut ops, mut progress) = (0, 0);
        while let Some(op) = p.next_op() {
            ops += 1;
            let last = ops % 19 == 0;
            assert_eq!(last, op == Op::Compute(150), "op {ops}: {op:?}");
            progress += u64::from(last);
            assert_eq!(p.progress(), progress, "op {ops}");
        }
        assert_eq!((ops, progress), (20 * 19, 20));
    }

    #[test]
    fn column_store_transactions_touch_more_lines() {
        let run = |layout| {
            let mut m = machine();
            let table = Table::create(&mut m, layout, 4096);
            let spec = TxnSpec {
                read_only: 4,
                write_only: 2,
                read_write: 2,
            };
            let mut p = transactions(table, spec, 200, 11);
            let mut programs: Vec<&mut dyn Program> = vec![&mut p];
            m.run(&mut programs, StopWhen::AllDone)
        };
        let row = run(Layout::RowStore);
        let col = run(Layout::ColumnStore);
        assert!(
            col.dram.reads > row.dram.reads * 3,
            "col {} !>> row {}",
            col.dram.reads,
            row.dram.reads
        );
        assert!(col.cpu_cycles > row.cpu_cycles);
    }

    #[test]
    fn gsdram_transactions_match_row_store_line_counts() {
        let run = |layout| {
            let mut m = machine();
            let table = Table::create(&mut m, layout, 4096);
            let spec = TxnSpec {
                read_only: 2,
                write_only: 1,
                read_write: 0,
            };
            let mut p = transactions(table, spec, 200, 13);
            let mut programs: Vec<&mut dyn Program> = vec![&mut p];
            m.run(&mut programs, StopWhen::AllDone)
        };
        let row = run(Layout::RowStore);
        let gs = run(Layout::GsDram);
        // Same tuple-major accesses; DRAM read counts match exactly.
        assert_eq!(row.dram.reads, gs.dram.reads);
    }

    #[test]
    fn figure9_specs_are_sorted_by_total_fields() {
        let totals: Vec<usize> = TxnSpec::FIGURE9.iter().map(|s| s.fields()).collect();
        let mut sorted = totals.clone();
        sorted.sort_unstable();
        assert_eq!(totals, sorted);
        assert_eq!(TxnSpec::FIGURE9[0].label(), "1-0-1");
        assert_eq!(TxnSpec::FIGURE9[7].label(), "4-2-2");
    }

    #[test]
    fn expected_column_sum_formula() {
        let t = Table {
            layout: Layout::RowStore,
            tuples: 4,
            base: 0,
        };
        // Σ_t (8t + f) for t in 0..4, f = 1: 1 + 9 + 17 + 25 = 52.
        assert_eq!(t.expected_column_sum(1), 52);
    }
}
