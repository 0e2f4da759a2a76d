//! DDR timing parameters.
//!
//! All values are in memory-controller clock cycles (the DDR command
//! clock; 800 MHz / tCK = 1.25 ns for DDR3-1600). The evaluated system
//! (paper Table 1) uses DDR3-1600 with one channel, one rank and eight
//! banks; [`TimingPack`] names the pluggable parameter sets reachable
//! from the CLI (`--timing`), with the paper's DDR3 pack as the
//! default and a DDR4-2400-shaped pack for forward-looking sweeps.

use crate::energy::PowerParams;

/// A memory-clock cycle count.
pub type Cycles = u64;

/// JEDEC-style timing constraints for a DDR3 device, in command-clock
/// cycles.
///
/// The preset [`TimingParams::ddr3_1600`] corresponds to an 11-11-11
/// DDR3-1600 part (2 Gb x8), the configuration of paper Table 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimingParams {
    /// Clock period in picoseconds (1250 for DDR3-1600).
    pub tck_ps: u64,
    /// CAS (read) latency: READ to first data.
    pub cl: Cycles,
    /// CAS write latency: WRITE to first data.
    pub cwl: Cycles,
    /// ACTIVATE to internal READ/WRITE delay.
    pub rcd: Cycles,
    /// PRECHARGE to ACTIVATE delay.
    pub rp: Cycles,
    /// ACTIVATE to PRECHARGE minimum.
    pub ras: Cycles,
    /// ACTIVATE to ACTIVATE (same bank): `ras + rp`.
    pub rc: Cycles,
    /// Data burst duration on the bus (BL8 on a DDR bus = 4 cycles).
    pub burst: Cycles,
    /// Column-command to column-command minimum spacing.
    pub ccd: Cycles,
    /// READ to PRECHARGE minimum.
    pub rtp: Cycles,
    /// End of write burst to READ (write-to-read turnaround).
    pub wtr: Cycles,
    /// End of write burst to PRECHARGE (write recovery).
    pub wr: Cycles,
    /// ACTIVATE to ACTIVATE across banks of a rank.
    pub rrd: Cycles,
    /// Four-activate window: at most 4 ACTs per rank in this window.
    pub faw: Cycles,
    /// REFRESH command duration (all banks busy).
    pub rfc: Cycles,
    /// Average refresh interval (one REFRESH every `refi`).
    pub refi: Cycles,
    /// Read-to-write bus turnaround gap.
    pub rtw: Cycles,
    /// Rank-to-rank data-bus turnaround (bursts from different ranks).
    pub rtrs: Cycles,
}

impl TimingParams {
    /// DDR3-1600 (11-11-11), 2 Gb x8 devices — the Table 1 memory system.
    pub fn ddr3_1600() -> Self {
        TimingParams {
            tck_ps: 1250,
            cl: 11,
            cwl: 8,
            rcd: 11,
            rp: 11,
            ras: 28,
            rc: 39,
            burst: 4,
            ccd: 4,
            rtp: 6,
            wtr: 6,
            wr: 12,
            rrd: 5,
            faw: 24,
            rfc: 128,   // 160 ns at 800 MHz (2 Gb device)
            refi: 6240, // 7.8 us at 800 MHz
            rtw: 2,
            rtrs: 2,
        }
    }

    /// DDR4-2400 (17-17-17), 8 Gb x8 devices — a DDR4-shaped pack for
    /// scaling studies beyond the paper's testbed. The command clock
    /// runs at 1200 MHz (tCK = 833 ps), so absolute latencies are in
    /// the same ballpark as DDR3-1600 while bandwidth is 1.5×.
    pub fn ddr4_2400() -> Self {
        TimingParams {
            tck_ps: 833,
            cl: 17,
            cwl: 12,
            rcd: 17,
            rp: 17,
            ras: 39,
            rc: 56,
            burst: 4,
            ccd: 6,
            rtp: 9,
            wtr: 9,
            wr: 18,
            rrd: 6,
            faw: 26,
            rfc: 420,   // 350 ns at 1200 MHz (8 Gb device)
            refi: 9360, // 7.8 us at 1200 MHz
            rtw: 2,
            rtrs: 2,
        }
    }

    /// Converts a cycle count to nanoseconds.
    // gsdram-lint: allow-block(D5) report-axis unit conversion; never feeds simulated timing
    pub fn cycles_to_ns(&self, cycles: Cycles) -> f64 {
        cycles as f64 * self.tck_ps as f64 / 1000.0
    }

    /// Row-hit read latency: READ issue to last data beat.
    pub fn row_hit_read(&self) -> Cycles {
        self.cl + self.burst
    }

    /// Row-miss (closed-row) read latency: ACT + RCD + CL + burst.
    pub fn row_miss_read(&self) -> Cycles {
        self.rcd + self.cl + self.burst
    }

    /// Row-conflict read latency: PRE + RP + ACT path + read.
    pub fn row_conflict_read(&self) -> Cycles {
        self.rp + self.rcd + self.cl + self.burst
    }

    /// Validates internal consistency of the parameter set.
    pub fn validate(&self) -> Result<(), String> {
        if self.rc < self.ras + self.rp {
            return Err(format!(
                "tRC {} < tRAS {} + tRP {}",
                self.rc, self.ras, self.rp
            ));
        }
        if self.refi <= self.rfc {
            return Err("tREFI must exceed tRFC".to_string());
        }
        if self.burst == 0 || self.cl == 0 {
            return Err("burst and CL must be nonzero".to_string());
        }
        Ok(())
    }
}

impl Default for TimingParams {
    fn default() -> Self {
        Self::ddr3_1600()
    }
}

/// A named, pluggable timing parameter set selectable via `--timing`.
///
/// A pack bundles the JEDEC constraint table with the CPU-to-memory
/// clock ratio it implies, so swapping packs re-times the whole
/// machine consistently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TimingPack {
    /// The paper's Table 1 memory: DDR3-1600 (11-11-11), 800 MHz
    /// command clock.
    #[default]
    Ddr3_1600,
    /// A DDR4-2400-shaped part (17-17-17), 1200 MHz command clock.
    Ddr4_2400,
}

impl TimingPack {
    /// Every pack with its CLI label and a one-line note, in listing
    /// order.
    pub const VARIANTS: [(TimingPack, &'static str, &'static str); 2] = [
        (
            TimingPack::Ddr3_1600,
            "ddr3-1600",
            "paper-2015 baseline (Table 1, 11-11-11)",
        ),
        (
            TimingPack::Ddr4_2400,
            "ddr4-2400",
            "DDR4-shaped pack (17-17-17)",
        ),
    ];

    /// Parses a pack name as accepted by the `--timing` flag
    /// (`paper-2015` is an alias for the DDR3 baseline).
    pub fn parse(s: &str) -> Option<TimingPack> {
        match s {
            "ddr3-1600" | "ddr3" | "paper-2015" => Some(TimingPack::Ddr3_1600),
            "ddr4-2400" | "ddr4" => Some(TimingPack::Ddr4_2400),
            _ => None,
        }
    }

    /// Canonical label, stable across runs (used in run ids and the
    /// machine description line).
    pub fn label(&self) -> &'static str {
        match self {
            TimingPack::Ddr3_1600 => "ddr3-1600",
            TimingPack::Ddr4_2400 => "ddr4-2400",
        }
    }

    /// The constraint table for this pack.
    pub fn params(&self) -> TimingParams {
        match self {
            TimingPack::Ddr3_1600 => TimingParams::ddr3_1600(),
            TimingPack::Ddr4_2400 => TimingParams::ddr4_2400(),
        }
    }

    /// The device power parameters for this pack.
    pub fn power(&self) -> PowerParams {
        match self {
            TimingPack::Ddr3_1600 => PowerParams::ddr3_1600_x8(),
            TimingPack::Ddr4_2400 => PowerParams::ddr4_2400_x8(),
        }
    }

    /// CPU cycles per memory-command cycle for a 4 GHz core: 5 for the
    /// 800 MHz DDR3 clock (the paper's ratio), 3 for the 1200 MHz DDR4
    /// clock (3.33 rounded down — the simulator keeps integer ratios).
    pub fn cpu_per_mem(&self) -> u64 {
        match self {
            TimingPack::Ddr3_1600 => 5,
            TimingPack::Ddr4_2400 => 3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddr3_1600_is_consistent() {
        let t = TimingParams::ddr3_1600();
        t.validate().unwrap();
        assert_eq!(t.rc, t.ras + t.rp);
    }

    #[test]
    fn latency_helpers_order() {
        let t = TimingParams::ddr3_1600();
        assert!(t.row_hit_read() < t.row_miss_read());
        assert!(t.row_miss_read() < t.row_conflict_read());
        assert_eq!(t.row_hit_read(), 15);
        assert_eq!(t.row_conflict_read(), 11 + 11 + 11 + 4);
    }

    #[test]
    fn cycle_conversion() {
        let t = TimingParams::ddr3_1600();
        assert!((t.cycles_to_ns(8) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn ddr4_2400_is_consistent() {
        let t = TimingParams::ddr4_2400();
        t.validate().unwrap();
        assert_eq!(t.rc, t.ras + t.rp);
        // Faster clock: same-ballpark absolute latency, higher cycle
        // counts than DDR3.
        assert!(t.cl > TimingParams::ddr3_1600().cl);
        assert!(t.tck_ps < TimingParams::ddr3_1600().tck_ps);
    }

    #[test]
    fn timing_pack_parse_labels() {
        for (p, label, _) in TimingPack::VARIANTS {
            assert_eq!(TimingPack::parse(label), Some(p));
            assert_eq!(p.label(), label);
            p.params().validate().unwrap();
            assert!(p.cpu_per_mem() > 0);
        }
        assert_eq!(TimingPack::parse("paper-2015"), Some(TimingPack::Ddr3_1600));
        assert_eq!(TimingPack::parse("nonsense"), None);
        assert_eq!(TimingPack::default(), TimingPack::Ddr3_1600);
    }

    #[test]
    fn validation_catches_bad_params() {
        let mut t = TimingParams::ddr3_1600();
        t.rc = 10;
        assert!(t.validate().is_err());
        let mut t = TimingParams::ddr3_1600();
        t.refi = 10;
        assert!(t.validate().is_err());
        let mut t = TimingParams::ddr3_1600();
        t.burst = 0;
        assert!(t.validate().is_err());
    }
}
