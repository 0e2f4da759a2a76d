//! The peak-resident-set reset, alone in its own test process so no
//! concurrent test moves the reading.

use gsdram_benchmark::host::{peak_rss_kib, reset_peak_rss};

#[test]
fn peak_rss_reset_forgets_a_freed_allocation() {
    const MIB: usize = 1 << 20;
    let before = peak_rss_kib().expect("VmHWM readable");
    let block = vec![1u8; 64 * MIB];
    std::hint::black_box(&block);
    let peak = peak_rss_kib().unwrap();
    assert!(peak >= before + 60 * 1024, "{before} -> {peak}");
    drop(block);
    assert!(reset_peak_rss(), "clear_refs rejected the reset");
    let after = peak_rss_kib().unwrap();
    assert!(after + 60 * 1024 <= peak, "{peak} -> {after}");
}
