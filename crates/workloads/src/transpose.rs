//! Matrix transpose: an out-of-place layout conversion built on
//! gather + scatter.
//!
//! Transposition is the archetypal non-unit-stride kernel (the paper's
//! graphics examples — §5.3 — are packed-object reshapes of the same
//! form). With the source stored in contiguous 8×8 tiles on GS-DRAM, a
//! pattern-7 `pattload` returns one tile *column* — which is one
//! destination *row* segment — so each 8-element group costs one
//! gathered load plus eight contiguous stores, against eight scattered
//! loads for the row-major baseline.

use gsdram_core::PatternId;
use gsdram_system::ops::Op;
use gsdram_system::Machine;

use crate::common::{load, pattload, store, Index, IterProgram, Nest};

/// Source-matrix storage for the transpose kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransposeLayout {
    /// Row-major source: column reads are scattered scalar loads.
    RowMajor,
    /// 8×8-tiled source on GS-DRAM: column reads are pattern-7 gathers.
    GsDram,
}

impl TransposeLayout {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            TransposeLayout::RowMajor => "Row-major",
            TransposeLayout::GsDram => "GS-DRAM (tiled)",
        }
    }
}

/// An allocated transpose problem: `dst = src^T`, both n×n of u64.
#[derive(Debug, Clone, Copy)]
pub struct Transpose {
    /// Source layout.
    pub layout: TransposeLayout,
    /// Matrix dimension.
    pub n: usize,
    src: u64,
    dst: u64,
}

impl Transpose {
    /// Allocates and initialises `src[i][j] = i * n + j`.
    ///
    /// # Panics
    ///
    /// Panics unless `n` is a multiple of 8.
    pub fn create(m: &mut Machine, layout: TransposeLayout, n: usize) -> Transpose {
        assert!(n.is_multiple_of(8), "n must be a multiple of 8");
        let bytes = (n * n * 8) as u64;
        let src = match layout {
            TransposeLayout::RowMajor => m.malloc(bytes),
            TransposeLayout::GsDram => m.pattmalloc(bytes, true, PatternId(7)),
        };
        let dst = m.malloc(bytes);
        let t = Transpose {
            layout,
            n,
            src,
            dst,
        };
        for i in 0..n {
            for j in 0..n {
                m.poke(t.src_addr(i, j), (i * n + j) as u64);
            }
        }
        t
    }

    /// Address of `src[i][j]` under the layout.
    pub fn src_addr(&self, i: usize, j: usize) -> u64 {
        match self.layout {
            TransposeLayout::RowMajor => self.src + ((i * self.n + j) * 8) as u64,
            TransposeLayout::GsDram => {
                let tiles_per_row = self.n / 8;
                let tile = (i / 8) * tiles_per_row + (j / 8);
                self.src + (tile * 512 + (i % 8) * 64 + (j % 8) * 8) as u64
            }
        }
    }

    /// Address of `dst[i][j]` (always row-major).
    pub fn dst_addr(&self, i: usize, j: usize) -> u64 {
        self.dst + ((i * self.n + j) * 8) as u64
    }

    /// The `pattload` address gathering tile column `j` entry `i` of the
    /// tiled source (Figure 8 arithmetic).
    fn gather_addr(&self, i: usize, j: usize) -> u64 {
        let tiles_per_row = self.n / 8;
        let tile = (i / 8) * tiles_per_row + (j / 8);
        self.src + (tile * 512 + (j % 8) * 64 + (i % 8) * 8) as u64
    }
}

/// Builds the transpose program. For each destination row `j`, each
/// 8-element group `i0..i0+8` reads `src[i0..i0+8][j]` (a source
/// column segment) and stores it contiguously into `dst[j][i0..]`.
pub fn program(t: Transpose) -> IterProgram {
    let n = t.n;
    // Destination row `j`, split into `j / 8` and `j % 8` (the tiled
    // gather address takes both), then the group `i0 = 8s`.
    let mut nest = Nest::new(&[n / 8, 8, n / 8]);
    let j = |[jh, jl, ..]: Index| 8 * jh + jl;
    for k in 0..8 {
        let i = |[_, _, s, ..]: Index| 8 * s + k;
        nest.op(|x| match t.layout {
            TransposeLayout::RowMajor => load(0xE00, t.src_addr(i(x), j(x))),
            TransposeLayout::GsDram => pattload(0xE10, t.gather_addr(i(x), j(x)), PatternId(7)),
        })
        // The machine's functional path overwrites the stored value
        // with the loaded one only in real code; here the program
        // stores the known source value so the result is verifiable.
        .op(|x| store(0xE20, t.dst_addr(j(x), i(x)), (i(x) * n + j(x)) as u64));
    }
    nest.op(|_| Op::Compute(2));
    IterProgram::nests(vec![nest])
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsdram_system::config::SystemConfig;
    use gsdram_system::machine::StopWhen;
    use gsdram_system::ops::Program;

    fn run(layout: TransposeLayout, n: usize) -> (gsdram_system::RunReport, Machine, Transpose) {
        let mut m = Machine::new(SystemConfig::table1(1, 16 << 20));
        let t = Transpose::create(&mut m, layout, n);
        let mut p = program(t);
        let r = {
            let mut programs: Vec<&mut dyn Program> = vec![&mut p];
            m.run(&mut programs, StopWhen::AllDone)
        };
        (r, m, t)
    }

    #[test]
    fn result_is_the_transpose() {
        for layout in [TransposeLayout::RowMajor, TransposeLayout::GsDram] {
            let (_, mut m, t) = run(layout, 32);
            m.drain_caches();
            for i in 0..32 {
                for j in 0..32 {
                    assert_eq!(
                        m.peek(t.dst_addr(j, i)),
                        (i * 32 + j) as u64,
                        "{} dst[{j}][{i}]",
                        t.layout.label()
                    );
                }
            }
        }
    }

    #[test]
    fn gathers_match_source_columns() {
        // The loaded values (summed) must be identical across layouts:
        // both read every source element exactly once.
        let (a, _, _) = run(TransposeLayout::RowMajor, 64);
        let (b, _, _) = run(TransposeLayout::GsDram, 64);
        assert_eq!(a.results[0], b.results[0]);
    }

    #[test]
    fn gsdram_wins_once_the_matrix_exceeds_the_caches() {
        // The row-major column walk (stride 2 KB) set-conflicts in L1
        // and, once the matrix outgrows L2, re-misses to DRAM every
        // sweep; the tiled gather reads each source line exactly once.
        // A reduced hierarchy (8 KB L1 / 256 KB L2) provokes this at
        // n = 256 (512 KB source) to keep the test fast.
        let run_small = |layout| {
            let mut cfg = SystemConfig::table1(1, 16 << 20);
            cfg.l1.size_bytes = 8 * 1024;
            cfg.l2.size_bytes = 256 * 1024;
            let mut m = Machine::new(cfg);
            let t = Transpose::create(&mut m, layout, 256);
            let mut p = program(t);
            let mut programs: Vec<&mut dyn Program> = vec![&mut p];
            m.run(&mut programs, StopWhen::AllDone)
        };
        let row = run_small(TransposeLayout::RowMajor);
        let gs = run_small(TransposeLayout::GsDram);
        assert!(
            gs.l1[0].misses * 2 < row.l1[0].misses,
            "gs {} row {}",
            gs.l1[0].misses,
            row.l1[0].misses
        );
        assert!(
            gs.dram.reads * 2 < row.dram.reads,
            "gs {} row {}",
            gs.dram.reads,
            row.dram.reads
        );
        assert!(
            gs.cpu_cycles < row.cpu_cycles,
            "gs {} row {}",
            gs.cpu_cycles,
            row.cpu_cycles
        );
    }
}
