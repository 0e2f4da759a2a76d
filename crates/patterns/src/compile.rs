//! Compilation: a materialized [`AccessStream`] becomes machine state
//! (allocations + initial data) and an op-stream [`IterProgram`]
//! driving the full machine, under one of two layouts.
//!
//! The gather addressing generalizes the hand-written workloads: for
//! word index `w` and gather stride `Q`, the pattern-`(Q−1)` address
//! of `w` is
//!
//! ```text
//! base + (w / 8Q)·64Q + (w mod Q)·64 + ((w / Q) mod 8)·8
//! ```
//!
//! which reduces to `kvstore::key_gather_addr` at `Q = 2` and the
//! graph scan's gathered address at `Q = 8`. Eight conforming
//! accesses share one gathered line, so the cache turns them into one
//! DRAM fill plus seven hits — the mechanism's entire win, measured
//! rather than asserted.

use gsdram_core::PatternId;
use gsdram_system::ops::Op;
use gsdram_system::Machine;
use gsdram_workloads::common::{load, pattload, IterProgram};

use crate::spec::{AccessOp, PatternSpec};
use crate::stream::{materialize, AccessStream};

/// How the data array is stored and addressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternLayout {
    /// Plain row layout: every access is an ordinary load/store.
    Row,
    /// GS-DRAM: conforming strided accesses use pattern-`(Q−1)`
    /// gathered ops. When the spec's stream has no usable gather
    /// stride (`Q = 1`) this compiles identically to
    /// [`Row`](PatternLayout::Row) — the
    /// collapse the non-power-of-2 and indirect specs demonstrate.
    GsDram,
}

impl PatternLayout {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            PatternLayout::Row => "row",
            PatternLayout::GsDram => "gs-dram",
        }
    }
}

/// Base addresses of a created pattern dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatternData {
    /// Data array base (word `w` lives at `base + 8w`).
    pub base: u64,
    /// Index array base for indirect streams (0 otherwise).
    pub idx_base: u64,
}

/// Plain byte address of word `w`.
fn plain_addr(base: u64, w: u64) -> u64 {
    base + w * 8
}

/// Pattern-`(Q−1)` gathered byte address of word `w` (see the module
/// docs for the derivation).
fn gathered_addr(base: u64, w: u64, q: u64) -> u64 {
    base + (w / (8 * q)) * (64 * q) + (w % q) * 64 + ((w / q) % 8) * 8
}

/// A spec compiled against its materialized stream: the one object
/// that creates machine state, emits the op stream, and predicts the
/// verified results — all from the same index vector, so they cannot
/// drift.
#[derive(Debug, Clone)]
pub struct Compiled {
    spec: PatternSpec,
    stream: AccessStream,
}

impl Compiled {
    /// Materializes `spec`'s stream.
    pub fn new(spec: PatternSpec) -> Compiled {
        let stream = materialize(&spec);
        Compiled { spec, stream }
    }

    /// The spec this was compiled from.
    pub fn spec(&self) -> &PatternSpec {
        &self.spec
    }

    /// The materialized stream.
    pub fn stream(&self) -> &AccessStream {
        &self.stream
    }

    /// Number of accesses.
    pub fn count(&self) -> u64 {
        self.stream.indices.len() as u64
    }

    /// See [`PatternSpec::mem_bytes_hint`].
    pub fn mem_bytes_hint(&self) -> usize {
        self.spec.mem_bytes_hint()
    }

    /// Allocates and initialises the dataset: word `w` holds `w`, and
    /// for indirect streams the index array holds the stream itself.
    /// Under [`PatternLayout::GsDram`] with a usable gather stride the
    /// data page is `pattmalloc`ed with the alternate pattern `Q − 1`.
    pub fn create(&self, m: &mut Machine, layout: PatternLayout) -> PatternData {
        let bytes = self.spec.elements * 8;
        let base = if layout == PatternLayout::GsDram && self.stream.q >= 2 {
            m.pattmalloc(bytes, true, PatternId((self.stream.q - 1) as u8))
        } else {
            m.malloc(bytes)
        };
        for w in 0..self.spec.elements {
            m.poke(plain_addr(base, w), w);
        }
        let idx_base = if self.stream.indirect {
            let idx_base = m.malloc(self.count() * 8);
            for (t, w) in self.stream.indices.iter().enumerate() {
                m.poke(idx_base + 8 * t as u64, *w);
            }
            idx_base
        } else {
            0
        };
        PatternData { base, idx_base }
    }

    /// The op stream, one unit per access: an optional index-array
    /// load (indirect streams), the data access, and one compute op.
    /// Conforming accesses gather under
    /// [`PatternLayout::GsDram`]; everything else is a plain op.
    pub fn program(&self, layout: PatternLayout, data: PatternData) -> IterProgram {
        let q = self.stream.q;
        let op = self.spec.op;
        let gather_on = layout == PatternLayout::GsDram && q >= 2;
        let stream = self.stream.clone();
        IterProgram::units(self.count(), move |t, ops| {
            let i = t as usize;
            let w = stream.indices[i];
            if stream.indirect {
                ops.push(load(0xE00, data.idx_base + 8 * t));
            }
            let (addr, pattern, pc_off) = if gather_on && stream.conforms[i] {
                (gathered_addr(data.base, w, q), PatternId((q - 1) as u8), 1)
            } else {
                (plain_addr(data.base, w), PatternId(0), 0)
            };
            ops.push(match op {
                AccessOp::Gather => pattload(0xE01 + pc_off, addr, pattern),
                AccessOp::Scatter => Op::Store {
                    pc: 0xE03 + pc_off,
                    addr,
                    pattern,
                    value: t + 1,
                },
            });
            ops.push(Op::Compute(1));
        })
    }

    /// The checksum the program must report: every load folds its
    /// value, word `w` initially holds `w`, and the index array holds
    /// the stream — so gathers sum the accessed indices (twice for
    /// indirect streams, once for the index load and once for the
    /// data load), and scatters sum only the index loads.
    pub fn expected_sum(&self) -> u64 {
        let data: u64 = match self.spec.op {
            AccessOp::Gather => self
                .stream
                .indices
                .iter()
                .fold(0u64, |a, w| a.wrapping_add(*w)),
            AccessOp::Scatter => 0,
        };
        let idx: u64 = if self.stream.indirect {
            self.stream
                .indices
                .iter()
                .fold(0u64, |a, w| a.wrapping_add(*w))
        } else {
            0
        };
        data.wrapping_add(idx)
    }

    /// Expected progress units (one per access).
    pub fn expected_units(&self) -> u64 {
        self.count()
    }

    /// For scatters: the final `(plain address, value)` of every
    /// written word under last-writer-wins — access `t` stores
    /// `t + 1`, so duplicate addresses must end with the latest tag.
    /// Empty for gathers.
    pub fn expected_finals(&self, data: PatternData) -> Vec<(u64, u64)> {
        if self.spec.op != AccessOp::Scatter {
            return Vec::new();
        }
        let mut writes: Vec<(u64, u64)> = self
            .stream
            .indices
            .iter()
            .enumerate()
            .map(|(t, w)| (*w, t as u64 + 1))
            .collect();
        writes.sort_unstable();
        let mut finals = Vec::new();
        for (i, (w, tag)) in writes.iter().enumerate() {
            let last_of_run = writes.get(i + 1).map(|(nw, _)| nw != w).unwrap_or(true);
            if last_of_run {
                finals.push((plain_addr(data.base, *w), *tag));
            }
        }
        finals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsdram_system::config::SystemConfig;
    use gsdram_system::machine::{RunReport, StopWhen};
    use gsdram_system::ops::Program;

    fn run(text: &str, layout: PatternLayout) -> (RunReport, Compiled, Machine, PatternData) {
        let c = Compiled::new(PatternSpec::parse(text).unwrap());
        let mut m = Machine::new(SystemConfig::table1(1, c.mem_bytes_hint()));
        let data = c.create(&mut m, layout);
        let mut p = c.program(layout, data);
        let r = {
            let mut programs: Vec<&mut dyn Program> = vec![&mut p];
            m.run(&mut programs, StopWhen::AllDone)
        };
        (r, c, m, data)
    }

    fn verify(text: &str, layout: PatternLayout) -> RunReport {
        let (r, c, mut m, data) = run(text, layout);
        assert_eq!(r.progress[0], c.expected_units(), "progress: {text}");
        assert_eq!(r.results[0], c.expected_sum(), "checksum: {text}");
        m.drain_caches();
        for (addr, want) in c.expected_finals(data) {
            assert_eq!(m.peek(addr), want, "final at {addr:#x}: {text}");
        }
        r
    }

    #[test]
    fn gathered_addr_matches_hand_written_workloads() {
        // kvstore: key i is word 2i, gathered at base + (i/8)·128 + (i%8)·8.
        for i in 0..64u64 {
            assert_eq!(gathered_addr(0, 2 * i, 2), (i / 8) * 128 + (i % 8) * 8);
        }
        // graph: field f of node v is word 8v+f, gathered at
        // base + (8·(v/8) + f)·64 + 8·(v%8).
        for v in 0..64u64 {
            for f in 0..8u64 {
                assert_eq!(
                    gathered_addr(0, 8 * v + f, 8),
                    (8 * (v / 8) + f) * 64 + 8 * (v % 8)
                );
            }
        }
    }

    #[test]
    fn stride8_gather_wins_8x_on_dram_reads() {
        let text = r#"{"elements": 32768, "pattern": {"type": "stride", "stride": 8}}"#;
        let row = verify(text, PatternLayout::Row);
        let gs = verify(text, PatternLayout::GsDram);
        // 4096 accesses: one line fill each in row layout, one per
        // eight in GS-DRAM.
        assert_eq!(row.dram.reads, 4096);
        assert_eq!(gs.dram.reads, 512);
        assert!(gs.cpu_cycles < row.cpu_cycles);
    }

    #[test]
    fn odd_stride_collapses_to_row() {
        let text = r#"{"elements": 32768, "pattern": {"type": "stride", "stride": 7}}"#;
        let row = verify(text, PatternLayout::Row);
        let gs = verify(text, PatternLayout::GsDram);
        // Q = 1: the layouts compile identically.
        assert_eq!(row.cpu_cycles, gs.cpu_cycles);
        assert_eq!(row.dram.reads, gs.dram.reads);
    }

    #[test]
    fn mostly_stride_verifies_on_both_layouts() {
        let text = r#"{"elements": 32768, "seed": 3,
            "pattern": {"type": "mostly-stride", "stride": 8, "deviate_pct": 20}}"#;
        let row = verify(text, PatternLayout::Row);
        let gs = verify(text, PatternLayout::GsDram);
        assert!(gs.cpu_cycles < row.cpu_cycles);
    }

    #[test]
    fn scatter_with_duplicates_lands_last_writer() {
        let text = r#"{"elements": 4096, "op": "scatter", "seed": 11,
            "pattern": {"type": "indirect", "count": 2048, "dup_pct": 50}}"#;
        verify(text, PatternLayout::Row);
        verify(text, PatternLayout::GsDram);
    }

    #[test]
    fn gathered_scatter_verifies() {
        let text = r#"{"elements": 32768, "op": "scatter",
            "pattern": {"type": "stride", "stride": 8}}"#;
        let row = verify(text, PatternLayout::Row);
        let gs = verify(text, PatternLayout::GsDram);
        assert!(gs.cpu_cycles < row.cpu_cycles);
    }

    #[test]
    fn window_and_gap_streams_verify() {
        for text in [
            r#"{"elements": 4096, "pattern": {"type": "window-random", "window": 512}}"#,
            r#"{"elements": 4096, "pattern": {"type": "stride-gap", "block": 16, "gap": 48}}"#,
            r#"{"elements": 4096, "pattern": {"type": "indirect", "count": 1024}}"#,
        ] {
            verify(text, PatternLayout::Row);
            verify(text, PatternLayout::GsDram);
        }
    }
}
