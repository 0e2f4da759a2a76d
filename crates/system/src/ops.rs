//! The instruction-level interface between workloads and the machine:
//! `pattload`/`pattstore` (paper §4.2) plus plain compute batches.

use gsdram_core::PatternId;

/// One dynamic operation of a simulated program.
///
/// `Load`/`Store` with a non-zero pattern model the paper's
/// `pattload reg, addr, patt` / `pattstore reg, addr, patt`
/// instructions; with [`PatternId::DEFAULT`] they are ordinary loads and
/// stores. `Load16` is the 16-byte (xmm) variant the paper uses for SIMD
/// (§5: "gather with a specific pattern into either the rax register
/// (8 bytes) or the xmm0 register (16 bytes)").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// 8-byte load. `pc` identifies the static instruction (for the
    /// stride prefetcher); `addr` is the byte address.
    Load {
        /// Static instruction address.
        pc: u64,
        /// Byte address accessed.
        addr: u64,
        /// Access pattern.
        pattern: PatternId,
    },
    /// 16-byte SIMD load (two adjacent words of the — possibly
    /// gathered — cache line).
    Load16 {
        /// Static instruction address.
        pc: u64,
        /// Byte address accessed (16-byte aligned).
        addr: u64,
        /// Access pattern.
        pattern: PatternId,
    },
    /// 8-byte store of `value`.
    Store {
        /// Static instruction address.
        pc: u64,
        /// Byte address accessed.
        addr: u64,
        /// Access pattern.
        pattern: PatternId,
        /// Value written.
        value: u64,
    },
    /// `cycles` of non-memory work (ALU/branch/SIMD arithmetic),
    /// batched.
    Compute(u32),
}

/// A simulated program: a lazy stream of [`Op`]s plus hooks for
/// data-dependent behaviour and progress reporting.
pub trait Program {
    /// The next operation, or `None` when the program finishes. Programs
    /// may be endless (e.g. the HTAP transaction thread, which the
    /// machine stops when the analytics core completes).
    fn next_op(&mut self) -> Option<Op>;

    /// Called with the value produced by each completed `Load` (and the
    /// low word of each `Load16`), letting programs fold loaded data
    /// (e.g. the analytics sum).
    fn on_load_value(&mut self, _value: u64) {}

    /// Completed work units (e.g. transactions) — read by the harness
    /// for throughput metrics.
    fn progress(&self) -> u64 {
        0
    }

    /// A final checksum for functional verification (e.g. the computed
    /// column sum).
    fn result(&self) -> u64 {
        0
    }
}

/// A borrowed program is a program, so wrappers that own their inner
/// program (e.g. [`TraceRecorder`](crate::trace::TraceRecorder)) can
/// also wrap a `&mut dyn Program`.
impl<P: Program + ?Sized> Program for &mut P {
    fn next_op(&mut self) -> Option<Op> {
        (**self).next_op()
    }

    fn on_load_value(&mut self, value: u64) {
        (**self).on_load_value(value);
    }

    fn progress(&self) -> u64 {
        (**self).progress()
    }

    fn result(&self) -> u64 {
        (**self).result()
    }
}

/// A program built from a fixed op vector (testing convenience).
#[derive(Debug, Clone)]
pub struct ScriptedProgram {
    ops: std::vec::IntoIter<Op>,
    values: Vec<u64>,
    done_units: u64,
}

impl ScriptedProgram {
    /// A program that plays back `ops`.
    pub fn new(ops: Vec<Op>) -> Self {
        ScriptedProgram {
            ops: ops.into_iter(),
            values: Vec::new(),
            done_units: 0,
        }
    }

    /// Values observed by loads, in order.
    pub fn loaded_values(&self) -> &[u64] {
        &self.values
    }
}

impl Program for ScriptedProgram {
    fn next_op(&mut self) -> Option<Op> {
        let op = self.ops.next();
        if op.is_some() {
            self.done_units += 1;
        }
        op
    }

    fn on_load_value(&mut self, value: u64) {
        self.values.push(value);
    }

    fn progress(&self) -> u64 {
        self.done_units
    }

    fn result(&self) -> u64 {
        self.values.iter().fold(0u64, |a, b| a.wrapping_add(*b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_program_plays_back() {
        let mut p = ScriptedProgram::new(vec![
            Op::Compute(3),
            Op::Load {
                pc: 1,
                addr: 64,
                pattern: PatternId(0),
            },
        ]);
        assert_eq!(p.next_op(), Some(Op::Compute(3)));
        p.on_load_value(42);
        assert!(p.next_op().is_some());
        assert_eq!(p.next_op(), None);
        assert_eq!(p.progress(), 2);
        assert_eq!(p.result(), 42);
        assert_eq!(p.loaded_values(), &[42]);
    }
}
