//! Property-style tests: the controller never emits a command sequence
//! that violates DDR3 timing, under arbitrary request streams.
//!
//! The checker below re-derives the JEDEC rules independently of the
//! `Rank` state machine, so a bug in the controller's bookkeeping
//! cannot hide itself. Cases come from a deterministic PRNG
//! ([`gsdram_core::rng::SplitMix`]) instead of `proptest`, keeping the
//! workspace dependency-free and failures bit-reproducible.

use gsdram_core::rng::SplitMix;
use gsdram_core::PatternId;
use gsdram_dram::command::TimedCommand;
use gsdram_dram::controller::{
    AccessKind, ControllerConfig, MemController, MemRequest, RowPolicy, SchedPolicy,
};
use gsdram_dram::mapping::AddressMap;
use gsdram_dram::timing::TimingParams;
use gsdram_dram::verify::check_trace;

fn run_stream(
    reqs: Vec<(u64, bool, u64)>,
    policy: SchedPolicy,
    refresh: bool,
    ranks: usize,
    row_policy: RowPolicy,
) -> (Vec<TimedCommand>, usize) {
    let mut mc = MemController::new(ControllerConfig {
        policy,
        refresh,
        ranks,
        row_policy,
        ..ControllerConfig::default()
    });
    mc.enable_trace();
    let map = AddressMap::with_ranks(
        64,
        128,
        8,
        ranks as u64,
        gsdram_dram::mapping::Interleave::ColumnFirst,
    );
    let n = reqs.len();
    for (i, (addr, is_write, gap)) in reqs.into_iter().enumerate() {
        let at = mc.now() + gap;
        mc.enqueue(
            MemRequest {
                id: i as u64,
                loc: map.decompose(addr % (1 << 26)),
                pattern: PatternId((addr % 8) as u8),
                kind: if is_write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
            },
            at,
        );
    }
    let end = mc.drain();
    let mut done = Vec::new();
    mc.take_completions_into(end, &mut done);
    (mc.trace().unwrap().to_vec(), done.len().min(n))
}

/// Every command trace the controller produces passes the independent
/// JEDEC replay checker, and every request completes — across both
/// schedulers, both row policies, 1–2 ranks, refresh on/off.
#[test]
fn traces_obey_ddr3_timing() {
    let mut rng = SplitMix(0xD3A1);
    for case in 0..64 {
        let n = rng.range(1, 120) as usize;
        let reqs: Vec<(u64, bool, u64)> = (0..n)
            .map(|_| (rng.next_u64(), rng.flip(), rng.below(200)))
            .collect();
        let policy = if rng.flip() {
            SchedPolicy::FrFcfs
        } else {
            SchedPolicy::Fcfs
        };
        let row_policy = if rng.flip() {
            RowPolicy::Closed
        } else {
            RowPolicy::Open
        };
        let refresh = rng.flip();
        let ranks = if rng.flip() { 2 } else { 1 };
        let (trace, completed) = run_stream(reqs, policy, refresh, ranks, row_policy);
        assert_eq!(completed, n, "case {case}: all requests must complete");
        if let Err(e) = check_trace(&trace, &TimingParams::ddr3_1600(), 8) {
            panic!("case {case}: timing violation: {e}");
        }
    }
}

/// Read latency never falls below the physical minimum (CL + burst).
#[test]
fn latencies_are_physical() {
    let mut rng = SplitMix(0xD3A2);
    for _ in 0..64 {
        let n = rng.range(1, 60) as usize;
        let addrs: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
        let map = AddressMap::table1();
        let mut mc = MemController::new(ControllerConfig {
            refresh: false,
            ..ControllerConfig::default()
        });
        for (i, a) in addrs.iter().enumerate() {
            mc.enqueue(
                MemRequest {
                    id: i as u64,
                    loc: map.decompose(a % (1 << 26)),
                    pattern: PatternId(0),
                    kind: AccessKind::Read,
                },
                0,
            );
        }
        let end = mc.drain();
        let mut done = Vec::new();
        mc.take_completions_into(end, &mut done);
        let t = TimingParams::ddr3_1600();
        for c in &done {
            assert!(c.at >= t.cl + t.burst);
        }
    }
}
