//! The host side of a measurement: the frozen reference probe that
//! normalises every timing, the process's peak resident set, and the
//! hardware-thread count stamped on every result.
//!
//! A shared host drifts: the same binary can read 20% apart between
//! two sets of runs. The probe measures how fast the host's core is
//! running right now, and each repetition's timings are rescaled to
//! what they would read on the reference host.
//!
//! The probe is a dependent chain of integer multiply, add, xor and
//! shift. Pointer chases were measured and rejected: normalising by a
//! chase over a 4 MiB table (L3-bound), whose own noise follows other
//! tenants' cache traffic, raised the repetition-to-repetition
//! variation of `scan` from 10.5% to 16.3%, and chases resident in L1,
//! L2 or DRAM did no better than the integer chain, which tracked the
//! simulator best (correlation 0.4 to 0.6) and lowered the variation on
//! `scan`, `gemm` and `htap` alike.

use std::hint::black_box;
use std::time::Instant;

/// The probe's time, in seconds, on the reference host (Intel Xeon,
/// 2 hardware threads) when the probe was frozen; later runs there
/// read 0.101 to 0.14 s as the host's load changed. A timing measured
/// next to a probe that took `ref_s` is reported as
/// `raw * REF_NOMINAL_S / ref_s`.
///
/// The probe is frozen: changing this constant, [`PROBE_STEPS`] or
/// [`reference_probe`] resets every committed baseline.
pub const REF_NOMINAL_S: f64 = 0.108;

/// Dependent steps per probe.
const PROBE_STEPS: u64 = 60_000_000;

/// Runs the reference probe once and returns its wall time in seconds.
pub fn reference_probe() -> f64 {
    let start = Instant::now();
    let mut x = black_box(0x6773_6472_616d_2d72u64);
    for i in 0..PROBE_STEPS {
        x = x.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(i) ^ (x >> 17);
    }
    black_box(x);
    start.elapsed().as_secs_f64()
}

/// How much slower than the reference host the host ran, judged by a
/// probe that took `ref_s` (above 1 when slower).
pub fn slowdown(ref_s: f64) -> f64 {
    ref_s / REF_NOMINAL_S
}

/// A host time measured next to a probe of `ref_s`, rescaled to the
/// reference host.
pub fn normalise_time(raw_s: f64, ref_s: f64) -> f64 {
    raw_s / slowdown(ref_s)
}

/// A per-host-second rate measured next to a probe of `ref_s`,
/// rescaled to the reference host.
pub fn normalise_rate(raw_per_s: f64, ref_s: f64) -> f64 {
    raw_per_s * slowdown(ref_s)
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Resets the process's peak resident set (`VmHWM`) to its current
/// resident set, so the next reading covers only what follows. Returns
/// whether the kernel accepted the reset; without it the reading covers
/// the whole process.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The process's peak resident set (`VmHWM`) in KiB, if the kernel
/// reports it.
pub fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}
