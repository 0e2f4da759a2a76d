//! Micro-benchmarks for the memory-system substrates: cache probes and
//! fills, overlap computation, the stride prefetcher, and the FR-FCFS
//! DRAM controller servicing request streams.

use gsdram_bench::micro::{black_box, Runner};
use gsdram_cache::cache::{CacheConfig, LineKey, SetAssocCache};
use gsdram_cache::dbi::DirtyBlockIndex;
use gsdram_cache::overlap::OverlapCalc;
use gsdram_cache::prefetch::StridePrefetcher;
use gsdram_cache::sectored::SectoredCache;
use gsdram_core::{GsDramConfig, PatternId};
use gsdram_dram::controller::{AccessKind, ControllerConfig, MemController, MemRequest};
use gsdram_dram::mapping::AddressMap;

fn bench_cache(r: &Runner) {
    let mut l1 = SetAssocCache::new(CacheConfig::l1_32k());
    for i in 0..512u64 {
        l1.fill(LineKey::new(i * 64, 64, PatternId(0)), vec![i; 8]);
    }
    let mut i = 0u64;
    r.bench("l1 probe hit", || {
        i = (i + 1) & 511;
        black_box(l1.probe(LineKey::new(i * 64, 64, PatternId(0)), false));
    });
    // fill() asserts keys are fresh, so the counter keeps climbing
    // across calibration rounds.
    let mut i = 512u64;
    r.bench("l1 fill+evict", || {
        i += 1;
        black_box(l1.fill(LineKey::new(i * 64, 64, PatternId(0)), vec![0; 8]));
    });
}

fn bench_overlap(r: &Runner) {
    let calc = OverlapCalc::new(GsDramConfig::gs_dram_8_3_3(), 64, 128);
    let mut col = 0u64;
    r.bench("overlapping_lines tuple->fields", || {
        col = (col + 1) & 127;
        let key = LineKey {
            addr: col * 64,
            pattern: PatternId(0),
        };
        black_box(calc.overlapping_lines(key, PatternId(7), true));
    });
}

fn bench_prefetcher(r: &Runner) {
    let mut p = StridePrefetcher::degree4();
    let mut out = Vec::new();
    let mut addr = 0u64;
    r.bench("stride prefetcher observe", || {
        addr += 64;
        p.observe_into(0x400, addr, &mut out);
        black_box(&out);
    });
}

fn bench_dbi(r: &Runner) {
    let mut dbi = DirtyBlockIndex::table1();
    for i in 0..256u64 {
        dbi.mark_dirty(LineKey::new(i * 64 * 17 % (1 << 20), 64, PatternId(0)));
    }
    let mut a = 0u64;
    r.bench("dbi row_has_dirty", || {
        a = (a + 8192) % (1 << 20);
        black_box(dbi.row_has_dirty(a, PatternId(0)));
    });
}

fn bench_sectored(r: &Runner) {
    let mut sc = SectoredCache::new(CacheConfig::l1_32k());
    let mut a = 0u64;
    r.bench("sectored fill+probe", || {
        a += 72;
        if !sc.probe(a, false) {
            black_box(sc.fill_sector(a, a));
        }
    });
}

fn bench_planner(r: &Runner) {
    let cfg = GsDramConfig::gs_dram_8_3_3();
    r.bench("plan_stride stride 3 x64", || {
        black_box(gsdram_core::plan::plan_stride(&cfg, 128, 0, 3, 64));
    });
}

fn bench_controller(r: &Runner) {
    let map = AddressMap::table1();
    let mut done = Vec::new();
    r.bench("controller 64-request stream", || {
        let mut mc = MemController::new(ControllerConfig::default());
        for i in 0..64u64 {
            mc.enqueue(
                MemRequest {
                    id: i,
                    loc: map.decompose(i * 64 * 131),
                    pattern: PatternId(0),
                    kind: if i % 4 == 0 {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    },
                },
                i,
            );
        }
        let end = mc.drain();
        done.clear();
        mc.take_completions_into(end, &mut done);
        black_box(done.len());
    });
}

fn main() {
    let r = Runner::from_env();
    bench_cache(&r);
    bench_overlap(&r);
    bench_prefetcher(&r);
    bench_dbi(&r);
    bench_sectored(&r);
    bench_planner(&r);
    bench_controller(&r);
}
