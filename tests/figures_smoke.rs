//! Small-scale smoke tests asserting the *shape* of every paper figure
//! (the full-scale numbers come from `gsdram-sim sweep <name>`; see
//! EXPERIMENTS.md).

use gsdram::system::config::SystemConfig;
use gsdram::system::machine::{Machine, StopWhen};
use gsdram::system::ops::Program;
use gsdram::workloads::gemm::{program, Gemm, GemmVariant};
use gsdram::workloads::imdb::{analytics, transactions, Layout, Table, TxnSpec};

fn run_imdb(
    layout: Layout,
    prefetch: bool,
    tuples: u64,
    build: impl Fn(Table) -> gsdram::workloads::common::IterProgram,
) -> gsdram::system::RunReport {
    let cfg = SystemConfig::table1(1, (tuples as usize * 64) * 2);
    let cfg = if prefetch { cfg.with_prefetch() } else { cfg };
    let mut m = Machine::new(cfg);
    let table = Table::create(&mut m, layout, tuples);
    let mut p = build(table);
    let mut programs: Vec<&mut dyn Program> = vec![&mut p];
    m.run(&mut programs, StopWhen::AllDone)
}

/// Figure 9 shape: GS-DRAM ≈ Row Store; Column Store clearly worse and
/// degrading with the number of fields.
#[test]
fn figure9_shape() {
    let spec_small = TxnSpec {
        read_only: 1,
        write_only: 0,
        read_write: 1,
    };
    let spec_large = TxnSpec {
        read_only: 4,
        write_only: 2,
        read_write: 2,
    };
    let cycles = |layout, spec| {
        run_imdb(layout, false, 16 * 1024, |t| transactions(t, spec, 500, 42)).cpu_cycles as f64
    };
    for spec in [spec_small, spec_large] {
        let row = cycles(Layout::RowStore, spec);
        let col = cycles(Layout::ColumnStore, spec);
        let gs = cycles(Layout::GsDram, spec);
        assert!((gs / row - 1.0).abs() < 0.05, "GS must match Row Store");
        assert!(col > 1.3 * gs, "Column Store must lag GS");
    }
    // Column Store degrades with more fields; Row Store stays flat.
    let col_s = cycles(Layout::ColumnStore, spec_small);
    let col_l = cycles(Layout::ColumnStore, spec_large);
    assert!(col_l > 1.5 * col_s);
    let row_s = cycles(Layout::RowStore, spec_small);
    let row_l = cycles(Layout::RowStore, spec_large);
    assert!(row_l < 1.4 * row_s);
}

/// Figure 10 shape: GS-DRAM ≈ Column Store, both well ahead of Row
/// Store; prefetching improves everyone.
#[test]
fn figure10_shape() {
    let cycles =
        |layout, pref| run_imdb(layout, pref, 32 * 1024, |t| analytics(t, &[0])).cpu_cycles as f64;
    for pref in [false, true] {
        let row = cycles(Layout::RowStore, pref);
        let col = cycles(Layout::ColumnStore, pref);
        let gs = cycles(Layout::GsDram, pref);
        assert!(
            (gs / col - 1.0).abs() < 0.2,
            "GS must track Column Store (pref={pref})"
        );
        assert!(row > 1.8 * gs, "Row Store must lag GS (pref={pref})");
    }
    for layout in Layout::ALL {
        assert!(
            cycles(layout, true) < cycles(layout, false),
            "{:?}: prefetching must help",
            layout
        );
    }
}

/// Figure 11 shape: under HTAP with prefetching, GS-DRAM matches the
/// Column Store's analytics latency and beats Row Store's transaction
/// throughput.
#[test]
fn figure11_shape() {
    // The table must exceed the 2 MB L2 for the analytics stream to
    // generate the DRAM pressure behind the starvation effect.
    let tuples = 128 * 1024u64;
    let run = |layout| {
        let cfg = SystemConfig::table1(2, (tuples as usize * 64) * 2).with_prefetch();
        let mut m = Machine::new(cfg);
        let table = Table::create(&mut m, layout, tuples);
        let mut anal = analytics(table, &[0]);
        let spec = TxnSpec {
            read_only: 1,
            write_only: 1,
            read_write: 0,
        };
        let mut txn = transactions(table, spec, u64::MAX, 99);
        let r = {
            let mut programs: Vec<&mut dyn Program> = vec![&mut anal, &mut txn];
            m.run(&mut programs, StopWhen::CoreDone(0))
        };
        let thr = r.progress[1] as f64 / (r.cpu_cycles as f64);
        (r.cpu_cycles as f64, thr)
    };
    let (row_t, row_thr) = run(Layout::RowStore);
    let (col_t, col_thr) = run(Layout::ColumnStore);
    let (gs_t, gs_thr) = run(Layout::GsDram);
    assert!(gs_t < 0.5 * row_t, "analytics: GS must beat Row Store");
    assert!(
        (gs_t / col_t - 1.0).abs() < 0.25,
        "analytics: GS tracks Column Store"
    );
    assert!(
        gs_thr > row_thr,
        "throughput: GS must beat the starved Row Store"
    );
    assert!(gs_thr > col_thr, "throughput: GS must beat Column Store");
}

/// Figure 12 shape: energy — GS ≈ Row for transactions (Column ≥ 2×);
/// GS ≈ Column for analytics (Row ≥ 2×).
#[test]
fn figure12_energy_shape() {
    let spec = TxnSpec {
        read_only: 2,
        write_only: 1,
        read_write: 0,
    };
    let txn_e = |layout| {
        run_imdb(layout, false, 16 * 1024, |t| transactions(t, spec, 500, 42))
            .energy
            .total_mj()
    };
    let row = txn_e(Layout::RowStore);
    let col = txn_e(Layout::ColumnStore);
    let gs = txn_e(Layout::GsDram);
    assert!((gs / row - 1.0).abs() < 0.1);
    assert!(col > 1.5 * gs);

    let anal_e = |layout| {
        run_imdb(layout, true, 32 * 1024, |t| analytics(t, &[0]))
            .energy
            .total_mj()
    };
    let row = anal_e(Layout::RowStore);
    let col = anal_e(Layout::ColumnStore);
    let gs = anal_e(Layout::GsDram);
    assert!((gs / col - 1.0).abs() < 0.2);
    assert!(row > 1.8 * gs);
}

/// Figure 13 shape: GS-DRAM beats the tiled+SIMD baseline by a margin
/// in the paper's neighbourhood (~10%), and tiling beats naive.
#[test]
fn figure13_shape() {
    let run = |variant| {
        let mut m = Machine::new(SystemConfig::table1(1, 16 << 20));
        let g = Gemm::create(&mut m, 64, variant);
        g.init(&mut m);
        let (mut p, _) = program(g, None);
        let mut programs: Vec<&mut dyn Program> = vec![&mut p];
        m.run(&mut programs, StopWhen::AllDone).cpu_cycles as f64
    };
    let naive = run(GemmVariant::Naive);
    let simd = run(GemmVariant::TiledSimd { tile: 32 });
    let gs = run(GemmVariant::GsDram { tile: 32 });
    assert!(simd < 0.7 * naive, "tiling must beat naive");
    let gain = 1.0 - gs / simd;
    assert!(
        gain > 0.03 && gain < 0.30,
        "GS gain {gain} outside plausible band"
    );
}
