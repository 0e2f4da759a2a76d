//! Shared workload plumbing: op streams as programs.
//!
//! Every generated workload is an [`IterProgram`] that hands out a
//! reusable batch of ops, refilled one unit at a time. A value-
//! independent stream is a list of [`Nest`]s: affine loop nests
//! declared as data (Spatter's pattern model). A stream drawn from an
//! RNG is a unit generator that writes one transaction, lookup or
//! update per call. Either way a running program never allocates.

use gsdram_core::PatternId;
use gsdram_system::ops::{Op, Program};

/// Most loop levels a [`Nest`] may have.
pub const MAX_DEPTH: usize = 8;

/// A nest's loop indices, outermost first.
pub type Index = [usize; MAX_DEPTH];

/// A plain 8-byte load.
pub fn load(pc: u64, addr: u64) -> Op {
    pattload(pc, addr, PatternId::DEFAULT)
}

/// An 8-byte `pattload` under `pattern`.
pub fn pattload(pc: u64, addr: u64, pattern: PatternId) -> Op {
    Op::Load { pc, addr, pattern }
}

/// A plain 8-byte store of `value`.
pub fn store(pc: u64, addr: u64, value: u64) -> Op {
    Op::Store {
        pc,
        addr,
        pattern: PatternId::DEFAULT,
        value,
    }
}

/// One op of a nest's body: the op at the all-zero index, and what one
/// step of each level adds to its address and to a store's value.
#[derive(Debug, Clone, Copy)]
struct Template {
    op: Op,
    addr: [u64; MAX_DEPTH],
    value: [u64; MAX_DEPTH],
}

/// An op's address and a store's value (0 where it has none).
fn operands(op: Op) -> (u64, u64) {
    match op {
        Op::Load { addr, .. } | Op::Load16 { addr, .. } => (addr, 0),
        Op::Store { addr, value, .. } => (addr, value),
        Op::Compute(_) => (0, 0),
    }
}

impl Template {
    /// Fits `f` from its ops at the origin and at each unit vector.
    fn fit(f: impl Fn(Index) -> Op) -> Template {
        let op = f([0; MAX_DEPTH]);
        let (a0, v0) = operands(op);
        let mut t = Template {
            op,
            addr: [0; MAX_DEPTH],
            value: [0; MAX_DEPTH],
        };
        for l in 0..MAX_DEPTH {
            let mut unit = [0; MAX_DEPTH];
            unit[l] = 1;
            let (a, v) = operands(f(unit));
            t.addr[l] = a.wrapping_sub(a0);
            t.value[l] = v.wrapping_sub(v0);
        }
        t
    }

    fn at(&self, idx: &Index) -> Op {
        let step = |steps: &[u64; MAX_DEPTH]| {
            (steps.iter().zip(idx))
                .fold(0u64, |a, (&s, &i)| a.wrapping_add(s.wrapping_mul(i as u64)))
        };
        let mut op = self.op;
        match &mut op {
            Op::Load { addr, .. } | Op::Load16 { addr, .. } => {
                *addr = addr.wrapping_add(step(&self.addr))
            }
            Op::Store { addr, value, .. } => {
                *addr = addr.wrapping_add(step(&self.addr));
                *value = value.wrapping_add(step(&self.value));
            }
            Op::Compute(_) => {}
        }
        op
    }
}

/// An affine loop nest: up to [`MAX_DEPTH`] levels, outermost first,
/// emitting one body of ops per innermost iteration.
#[derive(Debug, Clone)]
pub struct Nest {
    counts: Index,
    depth: usize,
    body: Vec<Template>,
    idx: Index,
    live: bool,
}

impl Nest {
    /// An empty-bodied nest over `counts`.
    ///
    /// # Panics
    ///
    /// Panics with more than [`MAX_DEPTH`] levels.
    pub fn new(counts: &[usize]) -> Nest {
        assert!(counts.len() <= MAX_DEPTH, "at most {MAX_DEPTH} levels");
        let mut padded = [1; MAX_DEPTH];
        padded[..counts.len()].copy_from_slice(counts);
        Nest {
            counts: padded,
            depth: counts.len(),
            body: Vec::new(),
            idx: [0; MAX_DEPTH],
            live: counts.iter().all(|&c| c > 0),
        }
    }

    /// Appends the op `f` builds from the loop indices. Its address,
    /// and a store's value, must be affine in the indices (split a
    /// level that `f` divides, as GEMM splits `j` into `j / 8` and
    /// `j % 8`); nothing else about it may depend on them.
    pub fn op(&mut self, f: impl Fn(Index) -> Op) -> &mut Nest {
        let t = Template::fit(&f);
        let probe = std::array::from_fn(|l| 8 * l + 9);
        assert_eq!(t.at(&probe), f(probe), "op not affine in the indices");
        self.body.push(t);
        self
    }

    /// Writes the next iteration's body into `out` and advances; false
    /// once every iteration ran.
    fn fill(&mut self, out: &mut Vec<Op>) -> bool {
        if !self.live {
            return false;
        }
        out.extend(self.body.iter().map(|t| t.at(&self.idx)));
        self.live = false;
        for l in (0..self.depth).rev() {
            self.idx[l] += 1;
            if self.idx[l] < self.counts[l] {
                self.live = true;
                break;
            }
            self.idx[l] = 0;
        }
        true
    }
}

/// The Figure 8 field scan of `records` 64-byte records at `base` on
/// GS-DRAM: per group of eight records, eight pattern-7 `pattload`s
/// (`arr[8g + field] + 8k` gathers field `field` of record `8g + k`,
/// §4.3), each followed by one compute op.
pub fn gathered_field_scan(pc: u64, base: u64, records: u64, field: usize) -> Nest {
    let mut nest = Nest::new(&[records as usize / 8]);
    for k in 0..8 {
        nest.op(|[g, ..]| pattload(pc, base + (8 * g + field) as u64 * 64 + 8 * k, PatternId(7)))
            .op(|_| Op::Compute(1));
    }
    nest
}

/// Writes the next unit into the batch; false once the stream ended.
type Refill = Box<dyn FnMut(&mut Vec<Op>) -> bool>;

/// A [`Program`] that hands out a reusable batch of ops, refilled one
/// unit at a time, folding loaded values into a checksum.
pub struct IterProgram {
    batch: Vec<Op>,
    next: usize,
    refill: Refill,
    /// Whether each refill is a unit of progress, counted when its
    /// last op is handed out.
    counts_units: bool,
    units: u64,
    sum: u64,
}

impl std::fmt::Debug for IterProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IterProgram")
            .field("sum", &self.sum)
            .field("units", &self.units)
            .finish_non_exhaustive()
    }
}

impl IterProgram {
    fn new(refill: Refill, counts_units: bool) -> IterProgram {
        IterProgram {
            batch: Vec::new(),
            next: 0,
            refill,
            counts_units,
            units: 0,
            sum: 0,
        }
    }

    /// Runs `nests` one after another.
    pub fn nests(mut nests: Vec<Nest>) -> IterProgram {
        let mut at = 0;
        let refill = move |out: &mut Vec<Op>| {
            while let Some(nest) = nests.get_mut(at) {
                if nest.fill(out) {
                    return true;
                }
                at += 1;
            }
            false
        };
        IterProgram::new(Box::new(refill), false)
    }

    /// Runs `count` units of progress, unit `i` written by
    /// `unit(i, batch)`.
    pub fn units(count: u64, mut unit: impl FnMut(u64, &mut Vec<Op>) + 'static) -> IterProgram {
        let mut done = 0;
        let refill = move |out: &mut Vec<Op>| {
            if done == count {
                return false;
            }
            unit(done, out);
            done += 1;
            true
        };
        IterProgram::new(Box::new(refill), true)
    }
}

impl Program for IterProgram {
    fn next_op(&mut self) -> Option<Op> {
        while self.next == self.batch.len() {
            self.batch.clear();
            self.next = 0;
            if !(self.refill)(&mut self.batch) {
                return None;
            }
        }
        let op = self.batch[self.next];
        self.next += 1;
        if self.counts_units && self.next == self.batch.len() {
            self.units += 1;
        }
        Some(op)
    }

    fn on_load_value(&mut self, value: u64) {
        self.sum = self.sum.wrapping_add(value);
    }

    fn progress(&self) -> u64 {
        self.units
    }

    fn result(&self) -> u64 {
        self.sum
    }
}

/// The deterministic generator workloads use, re-exported from
/// [`gsdram_core::rng`] so every crate shares one implementation.
pub use gsdram_core::rng::SplitMix;

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(p: &mut IterProgram) -> Vec<Op> {
        std::iter::from_fn(|| p.next_op()).collect()
    }

    /// A random op whose address and value are random affine maps of
    /// the indices, spelled as plain dot products.
    fn random_op(rng: &mut SplitMix) -> impl Fn(Index) -> Op {
        let (kind, pc) = (rng.below(4), rng.below(1 << 12));
        let pattern = PatternId(rng.below(8) as u8);
        let mut affine = || -> (u64, [u64; MAX_DEPTH]) {
            (rng.next_u64(), std::array::from_fn(|_| rng.next_u64()))
        };
        let (addr, value) = (affine(), affine());
        let dot = |(base, coef): (u64, [u64; MAX_DEPTH]), x: Index| {
            (0..MAX_DEPTH).fold(base, |a, l| {
                a.wrapping_add(coef[l].wrapping_mul(x[l] as u64))
            })
        };
        move |x| match kind {
            0 => Op::Load {
                pc,
                addr: dot(addr, x),
                pattern,
            },
            1 => Op::Load16 {
                pc,
                addr: dot(addr, x),
                pattern,
            },
            2 => Op::Store {
                pc,
                addr: dot(addr, x),
                pattern,
                value: dot(value, x),
            },
            _ => Op::Compute(pc as u32),
        }
    }

    #[test]
    fn nest_matches_nested_for_loops() {
        let mut rng = SplitMix(0x5eed);
        for case in 0..300 {
            let depth = 1 + rng.below(MAX_DEPTH as u64) as usize;
            // Counts 0..=3, kept to at most 256 iterations per case.
            let mut counts = [1; MAX_DEPTH];
            let mut iters = 1;
            for c in counts.iter_mut().take(depth) {
                *c = rng.below(4) as usize;
                if iters * *c > 256 {
                    *c = 1;
                }
                iters *= (*c).max(1);
            }
            let body: Vec<_> = (0..1 + rng.below(26))
                .map(|_| random_op(&mut rng))
                .collect();
            let mut nest = Nest::new(&counts[..depth]);
            for f in &body {
                nest.op(f);
            }
            let mut want = Vec::new();
            for a in 0..counts[0] {
                for b in 0..counts[1] {
                    for c in 0..counts[2] {
                        for d in 0..counts[3] {
                            for e in 0..counts[4] {
                                for f in 0..counts[5] {
                                    for g in 0..counts[6] {
                                        for h in 0..counts[7] {
                                            let x = [a, b, c, d, e, f, g, h];
                                            want.extend(body.iter().map(|op| op(x)));
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
            // Two nests in a row: the second starts where the first
            // ended.
            let mut p = IterProgram::nests(vec![nest.clone(), nest]);
            want.extend_from_within(..);
            assert_eq!(drain(&mut p), want, "case {case}: counts {counts:?}");
            assert_eq!(p.progress(), 0);
        }
    }

    #[test]
    #[should_panic(expected = "not affine")]
    fn nest_rejects_a_divided_level() {
        Nest::new(&[16]).op(|[j, ..]| Op::Load {
            pc: 0,
            addr: 64 * (j / 8) as u64,
            pattern: PatternId(0),
        });
    }

    #[test]
    fn units_count_when_their_last_op_is_handed_out() {
        let mut p = IterProgram::units(3, |i, ops| {
            ops.extend((0..=i).map(|_| Op::Compute(1)));
        });
        let mut seen = Vec::new();
        while p.next_op().is_some() {
            seen.push(p.progress());
        }
        assert_eq!(seen, [1, 1, 2, 2, 2, 3]);
    }

    #[test]
    fn loaded_values_fold_into_the_result() {
        let mut p = IterProgram::nests(vec![Nest::new(&[2])]);
        assert!(p.next_op().is_none());
        p.on_load_value(5);
        p.on_load_value(7);
        assert_eq!(p.result(), 12);
    }

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix(42);
        let mut b = SplitMix(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix(1);
        for _ in 0..100 {
            assert!(c.below(10) < 10);
        }
    }
}
