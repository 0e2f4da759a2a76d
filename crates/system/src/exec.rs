//! The core scheduler: per-core execution state and the event loop that
//! interleaves N in-order cores with the memory system.
//!
//! Each core owns a local clock; the scheduler always steps the
//! earliest runnable (not done, not waiting on DRAM) core, ties going to
//! the lower core index, bringing the memory system up to that core's
//! time first so completions that wake an earlier core are never
//! missed. The pick is kept across ops (a `Turn`) and made again only
//! when it can change: after a delivery, when the running core blocks
//! or finishes, or when its clock passes the next runnable core's.
//! Memory operations leave the core through the port types of
//! [`gsdram_core::port`]: the scheduler translates each [`Op`] into a
//! [`MemReq`] and hands it to the access path in [`crate::hier`].

use gsdram_core::port::{MemReq, ReqKind};

use crate::machine::Machine;
use crate::ops::{Op, Program};

/// When a [`Machine::run`] ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopWhen {
    /// All programs have returned `None`.
    AllDone,
    /// The given core's program finished (other cores are cut off there —
    /// the HTAP methodology of §5.1).
    CoreDone(usize),
}

/// One in-order core's execution state.
#[derive(Debug, Clone)]
pub(crate) struct CoreState {
    /// The core's local clock in CPU cycles.
    pub(crate) time: u64,
    /// Whether the core is blocked on an outstanding DRAM fetch.
    pub(crate) waiting: bool,
    /// Whether the core's program has finished.
    pub(crate) done: bool,
    /// Operations executed.
    pub(crate) ops: u64,
    /// Memory operations executed.
    pub(crate) mem_ops: u64,
}

/// The set of in-order cores, with the scheduling queries the run loop
/// needs.
#[derive(Debug)]
pub struct CoreSet {
    cores: Vec<CoreState>,
}

impl CoreSet {
    pub(crate) fn new(n: usize) -> Self {
        CoreSet {
            cores: (0..n)
                .map(|_| CoreState {
                    time: 0,
                    waiting: false,
                    done: false,
                    ops: 0,
                    mem_ops: 0,
                })
                .collect(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.cores.len()
    }

    pub(crate) fn core(&self, i: usize) -> &CoreState {
        &self.cores[i]
    }

    pub(crate) fn core_mut(&mut self, i: usize) -> &mut CoreState {
        &mut self.cores[i]
    }

    pub(crate) fn iter(&self) -> std::slice::Iter<'_, CoreState> {
        self.cores.iter()
    }

    /// Aligns every core to the latest local clock (consecutive `run`s
    /// share one machine) and clears waiting/done flags. Returns the
    /// common start time.
    pub(crate) fn start(&mut self) -> u64 {
        let start = self.cores.iter().map(|c| c.time).max().unwrap_or(0);
        for c in &mut self.cores {
            c.time = start;
            c.waiting = false;
            c.done = false;
        }
        start
    }

    /// The earliest runnable core and its local time.
    pub(crate) fn pick_runnable(&self) -> Option<(usize, u64)> {
        self.cores
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.done && !c.waiting)
            .min_by_key(|(_, c)| c.time)
            .map(|(i, c)| (i, c.time))
    }

    /// The earliest runnable core as a [`Turn`]: the same core
    /// [`pick_runnable`](Self::pick_runnable) returns (least clock,
    /// then least index), with the runner-up's `(time, index)`.
    pub(crate) fn pick_turn(&self) -> Option<Turn> {
        let mut best: Option<(u64, usize)> = None;
        let mut rival: Option<(u64, usize)> = None;
        for (i, c) in self.cores.iter().enumerate() {
            if c.done || c.waiting {
                continue;
            }
            let key = (c.time, i);
            if best.is_none_or(|b| key < b) {
                rival = best;
                best = Some(key);
            } else if rival.is_none_or(|r| key < r) {
                rival = Some(key);
            }
        }
        best.map(|(_, core)| Turn { core, rival })
    }

    /// Whether the run has reached `stop`.
    fn stopped(&self, stop: StopWhen) -> bool {
        match stop {
            StopWhen::AllDone => self.all_done(),
            StopWhen::CoreDone(i) => self.cores[i].done,
        }
    }

    pub(crate) fn all_done(&self) -> bool {
        self.cores.iter().all(|c| c.done)
    }

    /// Whether any core can make progress without a DRAM completion.
    pub(crate) fn any_ready(&self) -> bool {
        self.cores.iter().any(|c| !c.done && !c.waiting)
    }

    /// The exact next CPU cycle a core's state can change on its own:
    /// the earliest runnable core's local clock. Waiting cores change
    /// state only through memory completions, which the bridge horizon
    /// covers (time-skip contract of `gsdram_core::time`).
    pub(crate) fn next_ready_time(&self) -> Option<u64> {
        self.pick_runnable().map(|(_, t)| t)
    }
}

/// The running core's turn: the core [`CoreSet::pick_runnable`] would
/// pick, kept while no other core can overtake it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Turn {
    /// The running core.
    core: usize,
    /// The next runnable core's `(time, index)`, `None` when it runs
    /// alone. Only a delivery changes another core's state, so the
    /// running core keeps its turn while `(time, core) < rival`.
    rival: Option<(u64, usize)>,
}

impl Turn {
    /// Whether `core`, runnable at `time`, still precedes every other
    /// runnable core.
    fn keeps(&self, time: u64) -> bool {
        self.rival.is_none_or(|r| (time, self.core) < r)
    }
}

impl Machine {
    /// Runs `programs` (one per core) until `stop`, returning the
    /// measurements. Statistics are cumulative per machine; use a fresh
    /// machine per measured configuration.
    ///
    /// # Panics
    ///
    /// Panics if `programs.len()` differs from the configured core
    /// count, or a program accesses a page with a disallowed pattern.
    pub fn run(
        &mut self,
        programs: &mut [&mut dyn Program],
        stop: StopWhen,
    ) -> crate::report::RunReport {
        assert_eq!(programs.len(), self.cores.len(), "one program per core");
        let start = self.start_run();
        if !self.cores.stopped(stop) {
            self.run_turns(programs, stop);
        }
        self.bridge.catch_up_all(&mut self.events);
        self.report(stop, start, programs)
    }

    /// Starts a run on a machine that may have run before: aligns the
    /// core clocks (see [`CoreSet::start`]) and detaches the waiters of
    /// fetches still in flight, which can only belong to a core an
    /// earlier `StopWhen::CoreDone` cut off. Returns the start time.
    fn start_run(&mut self) -> u64 {
        self.bridge.forget_waiters();
        self.cores.start()
    }

    /// The run loop: every op (the final `None` included) first syncs
    /// memory to its core's clock, exactly once; a sync with nothing
    /// due is one compare (see [`Machine::sync_memory`]). The pick is
    /// made again only when it can change — after a delivery, when the
    /// running core blocks or finishes, or when its clock passes the
    /// rival's — and `stop` is checked only when a core finishes, the
    /// one event that can reach it. Channels a quiet sync left behind
    /// catch up before the report reads them.
    fn run_turns(&mut self, programs: &mut [&mut dyn Program], stop: StopWhen) {
        let mut turn = self.cores.pick_turn();
        loop {
            let Some(Turn { core: picked, .. }) = turn else {
                // Every unfinished core waits on DRAM.
                self.advance_until_completion(programs);
                turn = self.cores.pick_turn();
                continue;
            };
            // A delivered completion may wake an earlier core: re-pick.
            if self.sync_memory(self.cores.core(picked).time, programs) {
                turn = self.cores.pick_turn();
            }
            let i = turn.map_or(picked, |t| t.core);
            let Some(op) = programs[i].next_op() else {
                self.cores.core_mut(i).done = true;
                if self.cores.stopped(stop) {
                    return;
                }
                turn = self.cores.pick_turn();
                continue;
            };
            self.execute(i, op, programs);
            let core = self.cores.core(i);
            if core.waiting || !turn.is_some_and(|t| t.keeps(core.time)) {
                turn = self.cores.pick_turn();
            }
        }
    }

    /// Executes one op on core `i` at its clock: the issue slot, then
    /// the compute delay or the memory access (a load's value goes
    /// back to the program when it completes synchronously).
    fn execute(&mut self, i: usize, op: Op, programs: &mut [&mut dyn Program]) {
        let core = self.cores.core_mut(i);
        core.ops += 1;
        // gsdram-lint: allow(D7) the issue slot spends one cycle of dispatch bandwidth per op; it is not a stepped simulation clock
        core.time += 1; // issue slot
        let (pc, addr, pattern, kind) = match op {
            Op::Compute(c) => {
                core.time += c as u64;
                return;
            }
            Op::Load { pc, addr, pattern } => (pc, addr, pattern, ReqKind::Load),
            Op::Load16 { pc, addr, pattern } => (pc, addr, pattern, ReqKind::LoadWide),
            Op::Store {
                pc,
                addr,
                pattern,
                value,
            } => (pc, addr, pattern, ReqKind::Store(value)),
        };
        let req = MemReq {
            pc,
            addr,
            pattern,
            kind,
        };
        let load = req.store_value().is_none();
        if let Some(resp) = self.access(i, req) {
            if load {
                programs[i].on_load_value(resp.value);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    //! The run loop against a reference that picks before and after
    //! every sync, advances every channel at every sync, and checks the
    //! stop condition on every iteration.

    use gsdram_core::rng::SplitMix;
    use gsdram_core::stats::ReportStats;
    use gsdram_core::{cast, PatternId};
    use gsdram_dram::controller::RowPolicy;

    use super::*;
    use crate::config::SystemConfig;
    use crate::ops::ScriptedProgram;
    use crate::report::RunReport;

    impl Machine {
        /// The straightforward loop: stop check, pick, full sync (every
        /// channel advanced, quiet or not), pick again, one op — every
        /// iteration.
        fn run_reference(
            &mut self,
            programs: &mut [&mut dyn Program],
            stop: StopWhen,
        ) -> RunReport {
            assert_eq!(programs.len(), self.cores.len(), "one program per core");
            let start = self.start_run();
            loop {
                if self.cores.stopped(stop) {
                    break;
                }
                let Some((i, t)) = self.cores.pick_runnable() else {
                    if self.cores.all_done() {
                        break;
                    }
                    self.advance_until_completion(programs);
                    continue;
                };
                self.sync_all(t, programs);
                let i = self.cores.pick_runnable().map_or(i, |(i, _)| i);
                match programs[i].next_op() {
                    None => self.cores.core_mut(i).done = true,
                    Some(op) => self.execute(i, op, programs),
                }
            }
            self.report(stop, start, programs)
        }
    }

    const LINES: u64 = 256;

    /// One core's ops over a plain region at `plain` and a shuffled
    /// pattern-7 region at `shuffled` (both `LINES` lines): loads, wide
    /// loads and stores of both patterns, and computes: short ones (zero
    /// included, so clocks tie) and long ones that idle the memory.
    fn script(rng: &mut SplitMix, plain: u64, shuffled: u64) -> Vec<Op> {
        let n = rng.range(1, 160);
        (0..n)
            .map(|k| {
                let alt = rng.below(3) == 0;
                let (base, pattern) = match (alt, rng.flip()) {
                    (true, _) => (shuffled, PatternId(7)),
                    (false, true) => (shuffled, PatternId::DEFAULT),
                    (false, false) => (plain, PatternId::DEFAULT),
                };
                let addr = base + rng.below(LINES) * 64 + rng.below(8) * 8;
                let pc = 1 + k % 5;
                match rng.below(8) {
                    0..=2 => Op::Load { pc, addr, pattern },
                    3 => Op::Load16 {
                        pc,
                        addr: addr & !15,
                        pattern,
                    },
                    4 | 5 => Op::Store {
                        pc,
                        addr,
                        pattern,
                        value: rng.next_u64(),
                    },
                    6 => Op::Compute(cast::to_u32(rng.below(4))),
                    // Long enough for an idle rank to power down.
                    _ => Op::Compute(cast::to_u32(rng.below(400))),
                }
            })
            .collect()
    }

    /// Stats JSON and every program's loaded values after one run.
    fn outcome(
        m: &mut Machine,
        scripts: &[Vec<Op>],
        stop: StopWhen,
        reference: bool,
    ) -> (String, Vec<Vec<u64>>) {
        let mut progs: Vec<ScriptedProgram> = scripts
            .iter()
            .map(|s| ScriptedProgram::new(s.clone()))
            .collect();
        let report = {
            let mut programs: Vec<&mut dyn Program> =
                progs.iter_mut().map(|p| p as &mut dyn Program).collect();
            if reference {
                m.run_reference(&mut programs, stop)
            } else {
                m.run(&mut programs, stop)
            }
        };
        let values = progs.iter().map(|p| p.loaded_values().to_vec()).collect();
        (report.stats_node("run").to_json(), values)
    }

    fn machine(cores: usize, seed: u64) -> (Machine, u64, u64) {
        let mut cfg = SystemConfig::table1(cores, 1 << 20);
        if seed.is_multiple_of(3) {
            cfg = cfg.with_prefetch();
        }
        if seed.is_multiple_of(5) {
            cfg = cfg.with_channels(2);
        }
        if seed % 7 == 1 {
            cfg = cfg.with_channels(4);
        }
        if seed % 4 == 3 {
            cfg.controller.row_policy = RowPolicy::Closed;
        }
        let mut m = Machine::new(cfg);
        let plain = m.malloc(LINES * 64);
        let shuffled = m.pattmalloc(LINES * 64, true, PatternId(7));
        for w in 0..LINES * 8 {
            m.poke(plain + w * 8, w);
            m.poke(shuffled + w * 8, !w);
        }
        (m, plain, shuffled)
    }

    /// The run loop, which skips quiet syncs and lets channels lag,
    /// reports exactly what the reference reports: every count,
    /// latency and energy leaf, on one to four cores, one, two or four
    /// channels, and both row policies.
    #[test]
    fn run_matches_the_reference_loop() {
        for seed in 0..240u64 {
            let cores = 1 + cast::to_usize(seed % 4);
            let stop = if seed.is_multiple_of(2) {
                StopWhen::AllDone
            } else {
                StopWhen::CoreDone(cast::to_usize((seed / 2) % cast::widen(cores)))
            };
            let (mut fast, plain, shuffled) = machine(cores, seed);
            let (mut slow, _, _) = machine(cores, seed);
            let mut rng = SplitMix(seed);
            // A second run on the same machine starts from aligned
            // clocks and warm caches. After a `CoreDone` cut-off it also
            // starts with the cut-off cores' fetches still in flight:
            // they fill the L2 but finish nothing in the new programs.
            for run in 0..2 {
                let scripts: Vec<Vec<Op>> = (0..cores)
                    .map(|_| script(&mut rng, plain, shuffled))
                    .collect();
                let got = outcome(&mut fast, &scripts, stop, false);
                let want = outcome(&mut slow, &scripts, stop, true);
                assert_eq!(got, want, "seed {seed}, run {run}, {cores} cores, {stop:?}");
            }
        }
    }

    /// Background energy does not depend on how often memory is synced:
    /// one load followed by 4,000 cycles of compute, as one op or as
    /// 4,000 ops, charges the same background energy and power-down
    /// cycles, through both loops and under both row policies.
    #[test]
    fn background_energy_does_not_depend_on_the_op_count() {
        for policy in [RowPolicy::Closed, RowPolicy::Open] {
            let mut seen = Vec::new();
            for ops in [1, 4000] {
                for reference in [false, true] {
                    let mut cfg = SystemConfig::table1(1, 1 << 20);
                    cfg.controller.row_policy = policy;
                    let mut m = Machine::new(cfg);
                    let addr = m.malloc(64);
                    let mut script = vec![Op::Load {
                        pc: 1,
                        addr,
                        pattern: PatternId::DEFAULT,
                    }];
                    let compute = if ops == 1 { 3999 } else { 0 };
                    script.extend((0..ops).map(|_| Op::Compute(compute)));
                    let mut p = ScriptedProgram::new(script);
                    let mut programs: Vec<&mut dyn Program> = vec![&mut p];
                    let r = if reference {
                        m.run_reference(&mut programs, StopWhen::AllDone)
                    } else {
                        m.run(&mut programs, StopWhen::AllDone)
                    };
                    assert_eq!(r.cpu_cycles, 4148, "{policy:?}");
                    let bg = r.dram_energy.background_nj.to_bits();
                    seen.push((bg, m.bridge.powerdown_cycles()));
                }
            }
            assert!(seen.iter().all(|s| *s == seen[0]), "{policy:?}: {seen:?}");
            // A closed row leaves the rank idle long enough to power down.
            assert_eq!(seen[0].1 > 0, policy == RowPolicy::Closed, "{policy:?}");
        }
    }
}
