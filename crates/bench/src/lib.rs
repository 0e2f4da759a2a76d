//! # gsdram-bench
//!
//! The experiment engine: declarative run specs ([`spec`]), a registry
//! mapping every figure/ablation/extension of DESIGN.md §5–§6 to its
//! specs ([`experiments`]), a parallel sweep runner ([`sweep`]), shared
//! command-line parsing ([`args`]), and registry listing and "did you
//! mean" errors ([`listing`]).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod args;
pub mod experiments;
pub mod listing;
pub mod spec;
pub mod sweep;

use gsdram_system::config::SystemConfig;
use gsdram_system::machine::{Machine, RunReport, StopWhen};
use gsdram_system::ops::Program;

/// Builds the Table 1 machine with `cores` cores and `mem` bytes of
/// simulated memory, optionally with the stride prefetcher.
pub fn table1_machine(cores: usize, mem: usize, prefetch: bool) -> Machine {
    let cfg = SystemConfig::table1(cores, mem);
    let cfg = if prefetch { cfg.with_prefetch() } else { cfg };
    Machine::new(cfg)
}

/// Runs a single program to completion on `m`.
pub fn run_single(m: &mut Machine, p: &mut dyn Program) -> RunReport {
    let mut programs: Vec<&mut dyn Program> = vec![p];
    m.run(&mut programs, StopWhen::AllDone)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsdram_system::ops::{Op, ScriptedProgram};

    #[test]
    fn machine_and_run_helpers_work() {
        let mut m = table1_machine(1, 1 << 20, false);
        let base = m.malloc(4096);
        let mut p = ScriptedProgram::new(vec![Op::Load {
            pc: 1,
            addr: base,
            pattern: gsdram_core::PatternId(0),
        }]);
        let r = run_single(&mut m, &mut p);
        assert!(r.cpu_cycles > 0);
    }
}
