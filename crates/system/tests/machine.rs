//! Behavioural tests of the composed machine through its public API
//! (moved out of the old `machine.rs` unit-test module when the
//! monolith was split into components).

use gsdram_core::port::{CacheLevel, SimEvent};
use gsdram_core::PatternId;
use gsdram_system::config::SystemConfig;
use gsdram_system::machine::{Machine, RunReport, StopWhen};
use gsdram_system::ops::{Op, Program, ScriptedProgram};

fn small_machine(cores: usize) -> Machine {
    Machine::new(SystemConfig::table1(cores, 4 << 20))
}

fn run_one(m: &mut Machine, p: &mut ScriptedProgram) -> RunReport {
    let mut programs: Vec<&mut dyn Program> = vec![p];
    m.run(&mut programs, StopWhen::AllDone)
}

#[test]
fn load_returns_poked_value() {
    let mut m = small_machine(1);
    let base = m.malloc(4096);
    m.poke(base + 24, 777);
    let mut p = ScriptedProgram::new(vec![Op::Load {
        pc: 1,
        addr: base + 24,
        pattern: PatternId(0),
    }]);
    let r = run_one(&mut m, &mut p);
    assert_eq!(p.loaded_values(), &[777]);
    assert!(r.cpu_cycles > 0);
    assert_eq!(r.mem_ops, 1);
}

#[test]
fn store_then_load_round_trips() {
    let mut m = small_machine(1);
    let base = m.malloc(4096);
    let mut p = ScriptedProgram::new(vec![
        Op::Store {
            pc: 1,
            addr: base + 8,
            pattern: PatternId(0),
            value: 31415,
        },
        Op::Load {
            pc: 2,
            addr: base + 8,
            pattern: PatternId(0),
        },
    ]);
    run_one(&mut m, &mut p);
    assert_eq!(p.loaded_values(), &[31415]);
    // After draining, DRAM holds the stored value too.
    m.drain_caches();
    assert_eq!(m.peek(base + 8), 31415);
}

#[test]
fn pattern_load_gathers_strided_fields() {
    let mut m = small_machine(1);
    // Eight 8-field tuples; gather field 0 of all of them (pattern 7).
    let base = m.pattmalloc(8 * 64, true, PatternId(7));
    for t in 0..8u64 {
        for f in 0..8u64 {
            m.poke(base + t * 64 + f * 8, t * 100 + f);
        }
    }
    let ops: Vec<Op> = (0..8u64)
        .map(|k| Op::Load {
            pc: 1,
            addr: base + 8 * k,
            pattern: PatternId(7),
        })
        .collect();
    let mut p = ScriptedProgram::new(ops);
    let r = run_one(&mut m, &mut p);
    let want: Vec<u64> = (0..8).map(|t| t * 100).collect();
    assert_eq!(p.loaded_values(), &want[..]);
    // All eight values came from ONE DRAM read (7 L1 hits).
    assert_eq!(r.dram.reads, 1);
    assert_eq!(r.l1[0].hits, 7);
}

#[test]
fn second_access_hits_cache() {
    let mut m = small_machine(1);
    let base = m.malloc(4096);
    let mut p = ScriptedProgram::new(vec![
        Op::Load {
            pc: 1,
            addr: base,
            pattern: PatternId(0),
        },
        Op::Load {
            pc: 2,
            addr: base + 32,
            pattern: PatternId(0),
        },
    ]);
    let r = run_one(&mut m, &mut p);
    assert_eq!(r.dram.reads, 1);
    assert_eq!(r.l1[0].hits, 1);
    assert_eq!(r.l1[0].misses, 1);
}

#[test]
fn store_invalidates_overlapping_gathered_line() {
    let mut m = small_machine(1);
    let base = m.pattmalloc(8 * 64, true, PatternId(7));
    for t in 0..8u64 {
        m.poke(base + t * 64, 1000 + t);
    }
    let mut p = ScriptedProgram::new(vec![
        // Fetch the gathered field-0 line.
        Op::Load {
            pc: 1,
            addr: base,
            pattern: PatternId(7),
        },
        // Modify field 0 of tuple 3 through the default pattern.
        Op::Store {
            pc: 2,
            addr: base + 3 * 64,
            pattern: PatternId(0),
            value: 55,
        },
        // Re-read the gathered line: must see the new value.
        Op::Load {
            pc: 3,
            addr: base + 3 * 8,
            pattern: PatternId(7),
        },
    ]);
    run_one(&mut m, &mut p);
    assert_eq!(p.loaded_values(), &[1000, 55]);
}

#[test]
fn gathered_store_scatters_to_memory() {
    let mut m = small_machine(1);
    let base = m.pattmalloc(8 * 64, true, PatternId(7));
    // pattstore field 0 of tuple k via the gathered line.
    let ops: Vec<Op> = (0..8u64)
        .map(|k| Op::Store {
            pc: 1,
            addr: base + 8 * k,
            pattern: PatternId(7),
            value: 90 + k,
        })
        .collect();
    let mut p = ScriptedProgram::new(ops);
    run_one(&mut m, &mut p);
    m.drain_caches();
    for t in 0..8u64 {
        assert_eq!(m.peek(base + t * 64), 90 + t, "tuple {t} field 0");
    }
}

#[test]
fn compute_ops_advance_time_without_memory() {
    let mut m = small_machine(1);
    let mut p = ScriptedProgram::new(vec![Op::Compute(100), Op::Compute(100)]);
    let r = run_one(&mut m, &mut p);
    assert_eq!(r.cpu_cycles, 202); // 2 issue slots + 200 compute
    assert_eq!(r.mem_ops, 0);
    assert_eq!(r.dram.reads, 0);
}

#[test]
#[should_panic(expected = "not allowed")]
fn disallowed_pattern_faults() {
    let mut m = small_machine(1);
    let base = m.malloc(4096);
    let mut p = ScriptedProgram::new(vec![Op::Load {
        pc: 1,
        addr: base,
        pattern: PatternId(7),
    }]);
    run_one(&mut m, &mut p);
}

#[test]
fn two_cores_share_data_coherently() {
    let mut m = small_machine(2);
    let base = m.malloc(4096);
    m.poke(base, 1);
    // Core 0 stores 42; core 1 spins on compute then loads.
    let mut p0 = ScriptedProgram::new(vec![Op::Store {
        pc: 1,
        addr: base,
        pattern: PatternId(0),
        value: 42,
    }]);
    let mut p1 = ScriptedProgram::new(vec![
        Op::Compute(5000),
        Op::Load {
            pc: 2,
            addr: base,
            pattern: PatternId(0),
        },
    ]);
    {
        let mut programs: Vec<&mut dyn Program> = vec![&mut p0, &mut p1];
        m.run(&mut programs, StopWhen::AllDone);
    }
    assert_eq!(p1.loaded_values(), &[42]);
}

#[test]
fn prefetcher_reduces_miss_latency_for_streams() {
    let stream: Vec<Op> = (0..512u64)
        .map(|i| Op::Load {
            pc: 7,
            addr: i * 64,
            pattern: PatternId(0),
        })
        .collect();

    let mut plain = Machine::new(SystemConfig::table1(1, 4 << 20));
    plain.malloc(512 * 64);
    let mut p = ScriptedProgram::new(stream.clone());
    let r_plain = run_one(&mut plain, &mut p);

    let mut pf = Machine::new(SystemConfig::table1(1, 4 << 20).with_prefetch());
    pf.malloc(512 * 64);
    let mut p = ScriptedProgram::new(stream);
    let r_pf = run_one(&mut pf, &mut p);

    assert!(
        r_pf.cpu_cycles < r_plain.cpu_cycles,
        "prefetch {} !< plain {}",
        r_pf.cpu_cycles,
        r_plain.cpu_cycles
    );
}

#[test]
fn impulse_gather_is_correct_but_costs_one_read_per_line() {
    // §7: the Impulse baseline returns the same gathered data, but
    // the controller→DRAM traffic is one read per covered line.
    let mut m = Machine::new(SystemConfig::table1(1, 4 << 20).with_impulse());
    // Commodity module: no shuffling; the controller gathers.
    let base = m.pattmalloc(8 * 64, false, PatternId(7));
    for t in 0..8u64 {
        m.poke(base + t * 64, 300 + t); // field 0 of tuple t
    }
    let ops: Vec<Op> = (0..8u64)
        .map(|k| Op::Load {
            pc: 1,
            addr: base + 8 * k,
            pattern: PatternId(7),
        })
        .collect();
    let mut p = ScriptedProgram::new(ops);
    let r = run_one(&mut m, &mut p);
    let want: Vec<u64> = (0..8).map(|t| 300 + t).collect();
    assert_eq!(p.loaded_values(), &want[..]);
    // Eight DRAM reads for the single gathered line (vs 1 for GS).
    assert_eq!(r.dram.reads, 8);
    assert_eq!(r.l1[0].hits, 7, "cache still sees one gathered line");
}

#[test]
fn impulse_scatter_writes_back_every_covered_line() {
    let mut m = Machine::new(SystemConfig::table1(1, 4 << 20).with_impulse());
    let base = m.pattmalloc(8 * 64, false, PatternId(7));
    let ops: Vec<Op> = (0..8u64)
        .map(|k| Op::Store {
            pc: 1,
            addr: base + 8 * k,
            pattern: PatternId(7),
            value: 60 + k,
        })
        .collect();
    let mut p = ScriptedProgram::new(ops);
    run_one(&mut m, &mut p);
    m.drain_caches();
    for t in 0..8u64 {
        assert_eq!(m.peek(base + t * 64), 60 + t, "tuple {t} field 0");
    }
}

#[test]
fn gsdram_gather_beats_impulse_on_dram_traffic() {
    let run = |impulse: bool| {
        let cfg = SystemConfig::table1(1, 4 << 20);
        let cfg = if impulse { cfg.with_impulse() } else { cfg };
        let mut m = Machine::new(cfg);
        let base = m.pattmalloc(64 * 64, !impulse, PatternId(7));
        let ops: Vec<Op> = (0..8u64)
            .flat_map(|g| {
                (0..8u64).map(move |k| Op::Load {
                    pc: 1,
                    addr: base + g * 8 * 64 + 8 * k,
                    pattern: PatternId(7),
                })
            })
            .collect();
        let mut p = ScriptedProgram::new(ops);
        run_one(&mut m, &mut p)
    };
    let gs = run(false);
    let imp = run(true);
    assert!(
        imp.dram.reads >= 6 * gs.dram.reads,
        "imp {} gs {}",
        imp.dram.reads,
        gs.dram.reads
    );
    assert!(imp.cpu_cycles > gs.cpu_cycles);
}

#[test]
fn two_channels_speed_up_bank_parallel_streams() {
    // Two interleaved row-streaming scans: with two channels the
    // streams proceed in parallel.
    let stream: Vec<Op> = (0..512u64)
        .map(|i| Op::Load {
            pc: 7,
            addr: i * 8192,
            pattern: PatternId(0),
        })
        .collect();
    let run = |channels: usize| {
        let mut m = Machine::new(SystemConfig::table1(1, 8 << 20).with_channels(channels));
        m.malloc(512 * 8192);
        let mut p = ScriptedProgram::new(stream.clone());
        run_one(&mut m, &mut p).cpu_cycles
    };
    let one = run(1);
    let two = run(2);
    assert!(two <= one, "2 channels {two} !<= 1 channel {one}");
}

#[test]
fn multi_channel_is_functionally_identical() {
    // Gathers, stores and coherence behave identically on 1, 2 and
    // 4 channels — lines never span channels.
    let run = |channels: usize| {
        let mut m = Machine::new(SystemConfig::table1(1, 8 << 20).with_channels(channels));
        // Enough tuples to spread over several DRAM rows.
        let base = m.pattmalloc(1024 * 64, true, PatternId(7));
        for t in 0..1024u64 {
            m.poke(base + t * 64, 5000 + t);
        }
        let mut ops = Vec::new();
        for grp in (0..128u64).step_by(7) {
            for k in 0..8u64 {
                ops.push(Op::Load {
                    pc: 1,
                    addr: base + grp * 8 * 64 + 8 * k,
                    pattern: PatternId(7),
                });
            }
            ops.push(Op::Store {
                pc: 2,
                addr: base + grp * 8 * 64,
                pattern: PatternId(0),
                value: grp,
            });
        }
        let mut p = ScriptedProgram::new(ops);
        let r = run_one(&mut m, &mut p);
        m.drain_caches();
        let image: Vec<u64> = (0..1024).map(|t| m.peek(base + t * 64)).collect();
        (r.results[0], image)
    };
    let (sum1, img1) = run(1);
    let (sum2, img2) = run(2);
    let (sum4, img4) = run(4);
    assert_eq!(sum1, sum2);
    assert_eq!(sum1, sum4);
    assert_eq!(img1, img2);
    assert_eq!(img1, img4);
}

#[test]
fn htap_style_stop_cuts_off_other_core() {
    let mut m = small_machine(2);
    m.malloc(4096);
    let mut p0 = ScriptedProgram::new(vec![Op::Compute(10)]);
    // Endless-ish second program.
    let mut p1 = ScriptedProgram::new(vec![Op::Compute(1); 100_000]);
    let r = {
        let mut programs: Vec<&mut dyn Program> = vec![&mut p0, &mut p1];
        m.run(&mut programs, StopWhen::CoreDone(0))
    };
    assert!(r.cpu_cycles <= 20);
    assert!(r.progress[1] < 100_000, "core 1 must be cut off");
}

#[test]
fn observer_sees_component_events_and_detaches_cleanly() {
    use std::cell::RefCell;
    use std::rc::Rc;

    let mut m = small_machine(1);
    let base = m.pattmalloc(8 * 64, true, PatternId(7));
    for t in 0..8u64 {
        m.poke(base + t * 64, 100 + t);
    }
    let seen: Rc<RefCell<Vec<SimEvent>>> = Rc::default();
    let log = Rc::clone(&seen);
    assert!(m
        .attach_observer(Box::new(move |ev: &SimEvent| log.borrow_mut().push(*ev)))
        .is_none());

    // Gather the field-0 line, then dirty it through the default
    // pattern, then re-gather: exercises fills, DRAM traffic and the
    // §4.1 overlap machinery in one run.
    let mut p = ScriptedProgram::new(vec![
        Op::Load {
            pc: 1,
            addr: base,
            pattern: PatternId(7),
        },
        Op::Store {
            pc: 2,
            addr: base + 3 * 64,
            pattern: PatternId(0),
            value: 5,
        },
        Op::Load {
            pc: 3,
            addr: base + 3 * 8,
            pattern: PatternId(7),
        },
    ]);
    run_one(&mut m, &mut p);
    assert_eq!(p.loaded_values(), &[100, 5]);

    {
        let events = seen.borrow();
        let has = |f: &dyn Fn(&SimEvent) -> bool| events.iter().any(f);
        assert!(
            has(&|e| matches!(
                e,
                SimEvent::CacheFill {
                    level: CacheLevel::L1,
                    core: Some(0),
                    ..
                }
            )),
            "observer must see L1 fills"
        );
        assert!(
            has(&|e| matches!(
                e,
                SimEvent::CacheFill {
                    level: CacheLevel::L2,
                    ..
                }
            )),
            "observer must see L2 fills"
        );
        assert!(
            has(&|e| matches!(e, SimEvent::OverlapFlush { store: true, .. })),
            "observer must see the store's overlap invalidation"
        );
        assert!(
            has(&|e| matches!(e, SimEvent::DramEnqueue { write: false, .. })),
            "observer must see DRAM fetch enqueues"
        );
        assert!(
            has(&|e| matches!(e, SimEvent::DramComplete { .. })),
            "observer must see DRAM completions"
        );
        // Enqueues and completions pair up by id.
        for e in events.iter() {
            if let SimEvent::DramComplete { id, .. } = e {
                assert!(
                    events
                        .iter()
                        .any(|q| matches!(q, SimEvent::DramEnqueue { id: qid, .. } if qid == id)),
                    "completion {id} without a matching enqueue"
                );
            }
        }
    }

    // Detaching returns the sink and stops delivery.
    let before = seen.borrow().len();
    assert!(m.detach_observer().is_some());
    let mut p2 = ScriptedProgram::new(vec![Op::Load {
        pc: 9,
        addr: base,
        pattern: PatternId(0),
    }]);
    run_one(&mut m, &mut p2);
    assert_eq!(seen.borrow().len(), before, "no events after detach");
}

#[test]
fn observed_run_is_bit_identical_to_unobserved() {
    let run = |observe: bool| {
        let mut m = small_machine(1);
        if observe {
            m.attach_observer(Box::new(|_: &SimEvent| {}));
        }
        let base = m.pattmalloc(64 * 64, true, PatternId(7));
        for t in 0..64u64 {
            m.poke(base + t * 64, t);
        }
        let mut ops = Vec::new();
        for g in 0..8u64 {
            for k in 0..8u64 {
                ops.push(Op::Load {
                    pc: 1,
                    addr: base + g * 8 * 64 + 8 * k,
                    pattern: PatternId(7),
                });
            }
            ops.push(Op::Store {
                pc: 2,
                addr: base + g * 8 * 64,
                pattern: PatternId(0),
                value: g,
            });
        }
        let mut p = ScriptedProgram::new(ops);
        let r = run_one(&mut m, &mut p);
        (r.cpu_cycles, r.dram.reads, r.dram.writes, r.l2.hits)
    };
    assert_eq!(run(false), run(true));
}

#[test]
fn collector_attached_run_matches_unobserved_report_json() {
    // The full telemetry collector is the heaviest realistic observer;
    // attaching it must leave the report's JSON byte-identical — the
    // same invariant the CI determinism job checks on whole figures.
    use gsdram_core::stats::ReportStats;
    use gsdram_telemetry::Collector;

    let run = |collector: Option<&Collector>| {
        let mut m = small_machine(2);
        if let Some(c) = collector {
            m.attach_observer(c.sink());
        }
        let base = m.pattmalloc(64 * 64, true, PatternId(7));
        for t in 0..64u64 {
            m.poke(base + t * 64, t);
        }
        let mut a = ScriptedProgram::new(
            (0..32u64)
                .map(|i| Op::Load {
                    pc: 1,
                    addr: base + (i % 8) * 8 * 64 + 8 * (i / 8),
                    pattern: PatternId(7),
                })
                .collect(),
        );
        let mut b = ScriptedProgram::new(
            (0..32u64)
                .map(|i| Op::Store {
                    pc: 2,
                    addr: base + (i * 136) % (64 * 64),
                    pattern: PatternId(0),
                    value: i,
                })
                .collect(),
        );
        let mut programs: Vec<&mut dyn Program> = vec![&mut a, &mut b];
        let r = m.run(&mut programs, StopWhen::AllDone);
        r.stats_node("run").to_json()
    };

    let collector = Collector::new();
    let observed = run(Some(&collector));
    let unobserved = run(None);
    assert_eq!(observed, unobserved, "observation must not perturb the run");

    // And the collector actually captured the DRAM side.
    let t = collector.snapshot();
    assert!(t.total_events() > 0);
    let lat = t.read_latency(0).expect("channel 0 latency histogram");
    assert!(lat.count() > 0, "reads must be recorded");
    assert!(t.patterns().any(|(p, _)| p == 7), "pattern-7 stats present");
    assert!(t.banks().next().is_some(), "per-bank stats present");
}

#[test]
fn report_exposes_unconditional_dram_histograms() {
    let mut m = small_machine(1);
    let base = m.malloc(1 << 16);
    let mut p = ScriptedProgram::new(
        (0..64u64)
            .map(|i| Op::Load {
                pc: 1,
                addr: base + (i * 4160) % (1 << 16),
                pattern: PatternId(0),
            })
            .collect(),
    );
    let r = run_one(&mut m, &mut p);
    // One histogram pair per channel, populated without any observer.
    assert_eq!(r.dram_read_latency.len(), r.dram_queue_depth.len());
    let reads: u64 = r.dram_read_latency.iter().map(|h| h.count()).sum();
    assert_eq!(reads, r.dram.reads);
    let lat_sum: u64 = r.dram_read_latency.iter().map(|h| h.sum()).sum();
    assert_eq!(lat_sum, r.dram.total_read_latency);
    // The stats tree carries them under dram_hist/.
    use gsdram_core::stats::ReportStats;
    let node = r.stats_node("run");
    assert_eq!(
        node.counter_at("dram_hist/read_latency_ch0/count"),
        Some(r.dram_read_latency[0].count())
    );
    assert!(node.counter_at("dram_hist/queue_depth_ch0/count").is_some());
}

/// A multi-channel workload whose loads and stores spread over many
/// DRAM rows (and hence all channels under the row-granularity
/// interleave).
fn channel_spread_ops(base: u64) -> Vec<Op> {
    let mut ops = Vec::new();
    for i in 0..384u64 {
        ops.push(Op::Load {
            pc: 1,
            addr: base + (i * 8192 + (i % 7) * 64) % (6 << 20),
            pattern: PatternId(0),
        });
        if i % 3 == 0 {
            ops.push(Op::Store {
                pc: 2,
                addr: base + (i * 16384) % (6 << 20),
                pattern: PatternId(0),
                value: i,
            });
        }
    }
    ops
}

#[test]
fn per_channel_stats_merge_exactly_to_totals() {
    use gsdram_core::stats::ReportStats;
    let mut m = Machine::new(SystemConfig::table1(1, 8 << 20).with_channels(4));
    let base = m.malloc(6 << 20);
    let mut p = ScriptedProgram::new(channel_spread_ops(base));
    let r = run_one(&mut m, &mut p);

    assert_eq!(r.dram_channels.len(), 4);
    // Folding the per-channel counters reproduces the merged totals
    // exactly — nothing double-counted, nothing dropped.
    let mut dram = gsdram_dram::controller::ControllerStats::default();
    let mut energy = gsdram_dram::energy::EnergyBreakdown::default();
    let mut reads = 0u64;
    let mut writes = 0u64;
    for ch in &r.dram_channels {
        dram.merge(&ch.dram);
        energy.merge(&ch.energy);
        reads += ch.load.reads;
        writes += ch.load.writes;
    }
    assert_eq!(dram, r.dram);
    assert_eq!(energy, r.dram_energy);
    assert_eq!(reads, r.dram.reads, "routed reads == serviced reads");
    assert_eq!(writes, r.dram.writes, "routed writes == serviced writes");
    // More than one channel actually saw traffic.
    let busy = r.dram_channels.iter().filter(|c| c.dram.reads > 0).count();
    assert!(busy >= 2, "workload must spread over channels, got {busy}");

    // The stats tree exposes the per-channel subtree…
    let node = r.stats_node("run");
    assert_eq!(
        node.counter_at("dram_channels/ch0/enq_reads"),
        Some(r.dram_channels[0].load.reads)
    );
    assert!(node.counter_at("dram_channels/ch3/dram/reads").is_some());

    // …and a single-channel run must NOT have one (frozen baselines).
    let mut m1 = Machine::new(SystemConfig::table1(1, 8 << 20));
    let mut p1 = ScriptedProgram::new(channel_spread_ops(m1.malloc(6 << 20)));
    let r1 = run_one(&mut m1, &mut p1);
    assert_eq!(r1.dram_channels.len(), 1);
    let json = r1.stats_node("run").to_json_pretty();
    assert!(
        !json.contains("dram_channels"),
        "single-channel reports must stay channel-subtree-free"
    );
}
