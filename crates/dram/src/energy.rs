//! DRAM energy model in the style of DRAMPower / Micron TN-41-01.
//!
//! The paper estimates DRAM energy with DRAMPower (§5.1); we implement
//! the same IDD-current methodology: every command contributes a charge
//! term `(IDD_op − IDD_background) × VDD × duration`, and background
//! standby power accrues with time, split between active (some bank
//! open) and precharged (all banks closed) states.
//!
//! Currents are per chip; a rank multiplies by the chip count. The
//! defaults are representative of a 2 Gb x8 DDR3-1600 device.

use crate::timing::{Cycles, TimingParams};
use gsdram_core::stats::{ReportStats, StatsNode};

/// IDD currents (mA) and supply voltage for one DRAM chip.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerParams {
    /// Supply voltage in volts.
    pub vdd: f64,
    /// One-bank ACTIVATE-PRECHARGE current.
    pub idd0: f64,
    /// Precharge standby current.
    pub idd2n: f64,
    /// Active standby current.
    pub idd3n: f64,
    /// Read burst current.
    pub idd4r: f64,
    /// Write burst current.
    pub idd4w: f64,
    /// Refresh current.
    pub idd5: f64,
    /// Precharge power-down current (CKE low).
    pub idd2p: f64,
    /// Idle cycles before the controller drops into precharge
    /// power-down.
    pub powerdown_threshold: u64,
    /// I/O + termination energy per bit transferred (pJ/bit).
    pub io_pj_per_bit: f64,
    /// Number of chips in the rank.
    pub chips: usize,
}

impl PowerParams {
    /// Representative 2 Gb x8 DDR3-1600 device in an 8-chip rank.
    pub fn ddr3_1600_x8() -> Self {
        PowerParams {
            vdd: 1.5,
            idd0: 70.0,
            idd2n: 42.0,
            idd3n: 45.0,
            idd4r: 180.0,
            idd4w: 185.0,
            idd5: 215.0,
            idd2p: 12.0,
            powerdown_threshold: 30,
            io_pj_per_bit: 6.0,
            chips: 8,
        }
    }

    /// Representative 8 Gb x8 DDR4-2400 device in an 8-chip rank:
    /// lower VDD and standby currents than DDR3, larger refresh
    /// current for the denser die. Paired with
    /// [`TimingParams::ddr4_2400`](crate::timing::TimingParams::ddr4_2400).
    pub fn ddr4_2400_x8() -> Self {
        PowerParams {
            vdd: 1.2,
            idd0: 55.0,
            idd2n: 34.0,
            idd3n: 38.0,
            idd4r: 140.0,
            idd4w: 145.0,
            idd5: 190.0,
            idd2p: 10.0,
            powerdown_threshold: 30,
            io_pj_per_bit: 4.5,
            chips: 8,
        }
    }
}

impl Default for PowerParams {
    fn default() -> Self {
        Self::ddr3_1600_x8()
    }
}

/// Accumulated DRAM energy, in nanojoules, per rank.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// ACTIVATE + PRECHARGE pair energy.
    pub activation_nj: f64,
    /// Read burst energy.
    pub read_nj: f64,
    /// Write burst energy.
    pub write_nj: f64,
    /// Refresh energy.
    pub refresh_nj: f64,
    /// Background standby energy (active + precharged).
    pub background_nj: f64,
    /// I/O and termination energy.
    pub io_nj: f64,
}

impl ReportStats for EnergyBreakdown {
    fn stats_node(&self, name: &str) -> StatsNode {
        StatsNode::new(name)
            .gauge("activation_nj", self.activation_nj)
            .gauge("read_nj", self.read_nj)
            .gauge("write_nj", self.write_nj)
            .gauge("refresh_nj", self.refresh_nj)
            .gauge("background_nj", self.background_nj)
            .gauge("io_nj", self.io_nj)
            .gauge("total_mj", self.total_mj())
    }
}

impl EnergyBreakdown {
    /// Folds another rank's energy into this one — the one aggregation
    /// point for multi-channel/multi-rank totals.
    pub fn merge(&mut self, other: &Self) {
        self.activation_nj += other.activation_nj;
        self.read_nj += other.read_nj;
        self.write_nj += other.write_nj;
        self.refresh_nj += other.refresh_nj;
        self.background_nj += other.background_nj;
        self.io_nj += other.io_nj;
    }

    /// Total energy in nanojoules.
    pub fn total_nj(&self) -> f64 {
        self.activation_nj
            + self.read_nj
            + self.write_nj
            + self.refresh_nj
            + self.background_nj
            + self.io_nj
    }

    /// Total energy in millijoules.
    pub fn total_mj(&self) -> f64 {
        self.total_nj() * 1e-6
    }
}

/// A meter's per-command charges, each evaluated once at construction.
#[derive(Debug, Clone)]
struct Charges {
    /// One ACTIVATE-PRECHARGE pair.
    activate: f64,
    /// One read burst, I/O excluded.
    read: f64,
    /// One write burst, I/O excluded.
    write: f64,
    /// One all-bank refresh.
    refresh: f64,
}

/// The charge of `cycles` memory cycles at `current_ma` per chip, in
/// nJ: mA × V × ns = pJ, over the whole rank, divided by 1000.
fn charge_nj(power: &PowerParams, timing: &TimingParams, current_ma: f64, cycles: Cycles) -> f64 {
    let ns = timing.cycles_to_ns(cycles);
    current_ma * power.vdd * ns * power.chips as f64 / 1000.0
}

/// Energy meter fed by the memory controller as it issues commands and
/// advances time.
///
/// Background energy is kept as integer cycle counts per power state
/// and charged only when [`breakdown`](Self::breakdown) is read, and an
/// idle run carries across accrual calls (DRAMPower charges power-down
/// per idle interval). So the reported energy does not depend on where
/// or how often the controller accrues.
#[derive(Debug, Clone)]
pub struct EnergyMeter {
    power: PowerParams,
    timing: TimingParams,
    charges: Charges,
    /// Command energy; `background_nj` is filled in by `breakdown`.
    acc: EnergyBreakdown,
    /// Cycles spent with at least one bank active / all precharged.
    active_cycles: Cycles,
    precharged_cycles: Cycles,
    /// Cycles spent in precharge power-down.
    powerdown_cycles: Cycles,
    /// Length of the current idle run: the rank powers down once it
    /// reaches [`PowerParams::powerdown_threshold`].
    idle_run: Cycles,
}

impl EnergyMeter {
    /// A meter for the given device parameters.
    pub fn new(power: PowerParams, timing: TimingParams) -> Self {
        let (p, t) = (&power, &timing);
        let charges = Charges {
            // Micron TN-41-01: E = (IDD0·tRC − IDD3N·tRAS − IDD2N·(tRC−tRAS))·VDD
            activate: charge_nj(p, t, p.idd0, t.rc)
                - charge_nj(p, t, p.idd3n, t.ras)
                - charge_nj(p, t, p.idd2n, t.rc - t.ras),
            read: charge_nj(p, t, p.idd4r - p.idd3n, t.burst),
            write: charge_nj(p, t, p.idd4w - p.idd3n, t.burst),
            refresh: charge_nj(p, t, p.idd5 - p.idd2n, t.rfc),
        };
        EnergyMeter {
            power,
            timing,
            charges,
            acc: EnergyBreakdown::default(),
            active_cycles: 0,
            precharged_cycles: 0,
            powerdown_cycles: 0,
            idle_run: 0,
        }
    }

    /// Records one ACTIVATE-PRECHARGE pair (charged at ACT issue).
    pub fn on_activate(&mut self) {
        self.acc.activation_nj += self.charges.activate;
    }

    /// Records one read burst of `bytes` bytes.
    pub fn on_read(&mut self, bytes: u64) {
        self.acc.read_nj += self.charges.read;
        self.acc.io_nj += self.power.io_pj_per_bit * (bytes * 8) as f64 / 1000.0;
    }

    /// Records one write burst of `bytes` bytes.
    pub fn on_write(&mut self, bytes: u64) {
        self.acc.write_nj += self.charges.write;
        self.acc.io_nj += self.power.io_pj_per_bit * (bytes * 8) as f64 / 1000.0;
    }

    /// Records one all-bank refresh. The rank leaves power-down to
    /// refresh, so the refresh ends any idle run.
    pub fn on_refresh(&mut self) {
        self.acc.refresh_nj += self.charges.refresh;
        self.idle_run = 0;
    }

    /// Accrues `cycles` of standby spent with (`active`) or without a
    /// bank open while requests are queued; ends any idle run.
    pub fn on_elapsed(&mut self, cycles: Cycles, active: bool) {
        if active {
            self.active_cycles += cycles;
        } else {
            self.precharged_cycles += cycles;
        }
        self.idle_run = 0;
    }

    /// Accrues an *idle* gap (no requests queued, all banks
    /// precharged), continuing the current idle run: its first
    /// [`PowerParams::powerdown_threshold`] cycles are precharged
    /// standby, the rest precharge power-down (IDD2P). This is an
    /// energy-only model: the wake-up latency (tXP, a few cycles) is
    /// folded into the threshold rather than charged to the next
    /// request.
    pub fn on_idle_gap(&mut self, cycles: Cycles) {
        let left = self.power.powerdown_threshold.saturating_sub(self.idle_run);
        let standby = cycles.min(left);
        self.precharged_cycles += standby;
        self.powerdown_cycles += cycles - standby;
        self.idle_run = self.idle_run.saturating_add(cycles);
    }

    /// Cycles spent in precharge power-down.
    pub fn powerdown_cycles(&self) -> Cycles {
        self.powerdown_cycles
    }

    /// The energy accumulated so far: command charges as recorded,
    /// background charged over the standby and power-down counts.
    pub fn breakdown(&self) -> EnergyBreakdown {
        let (p, t) = (&self.power, &self.timing);
        EnergyBreakdown {
            background_nj: charge_nj(p, t, p.idd3n, self.active_cycles)
                + charge_nj(p, t, p.idd2n, self.precharged_cycles)
                + charge_nj(p, t, p.idd2p, self.powerdown_cycles),
            ..self.acc
        }
    }

    /// Cycles spent in (active, precharged) standby.
    pub fn standby_cycles(&self) -> (Cycles, Cycles) {
        (self.active_cycles, self.precharged_cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meter() -> EnergyMeter {
        EnergyMeter::new(PowerParams::ddr3_1600_x8(), TimingParams::ddr3_1600())
    }

    /// Background energy is [`charge_nj`] over the three cycle counts,
    /// bit for bit, and every command charge is its formula's value,
    /// for both device packs.
    #[test]
    fn background_is_the_charge_of_the_cycle_counts() {
        let packs = [
            (PowerParams::ddr3_1600_x8(), TimingParams::ddr3_1600()),
            (PowerParams::ddr4_2400_x8(), TimingParams::ddr4_2400()),
        ];
        for (p, t) in packs {
            let charge = |current_ma: f64, cycles: Cycles| charge_nj(&p, &t, current_ma, cycles);
            let mut m = EnergyMeter::new(p.clone(), t.clone());
            for gap in [1, 29, 30, 63, 64, 93, 94, 95, 5_000] {
                m.on_idle_gap(gap);
                m.on_elapsed(gap + 1, true);
                m.on_elapsed(gap + 2, false);
                m.on_refresh();
                m.on_idle_gap(gap);
                let (active, precharged) = m.standby_cycles();
                let want = charge(p.idd3n, active)
                    + charge(p.idd2n, precharged)
                    + charge(p.idd2p, m.powerdown_cycles());
                assert_eq!(
                    m.breakdown().background_nj.to_bits(),
                    want.to_bits(),
                    "{gap}"
                );
            }
            let activate =
                charge(p.idd0, t.rc) - charge(p.idd3n, t.ras) - charge(p.idd2n, t.rc - t.ras);
            assert_eq!(m.charges.activate.to_bits(), activate.to_bits());
            let read = charge(p.idd4r - p.idd3n, t.burst);
            assert_eq!(m.charges.read.to_bits(), read.to_bits());
            let write = charge(p.idd4w - p.idd3n, t.burst);
            assert_eq!(m.charges.write.to_bits(), write.to_bits());
            let refresh = charge(p.idd5 - p.idd2n, t.rfc);
            assert_eq!(m.charges.refresh.to_bits(), refresh.to_bits());
        }
    }

    /// Splitting an idle run over many accrual calls charges exactly
    /// what one call does: the threshold counts from the run's start,
    /// not from each call.
    #[test]
    fn an_idle_run_is_charged_the_same_however_it_is_split() {
        let threshold = PowerParams::default().powerdown_threshold;
        let mut whole = meter();
        whole.on_idle_gap(1_000);
        for step in [1, 7, threshold, threshold + 1, 999] {
            let mut split = meter();
            let mut left = 1_000;
            while left > 0 {
                let c = left.min(step);
                split.on_idle_gap(c);
                left -= c;
            }
            assert_eq!(split.standby_cycles(), whole.standby_cycles(), "{step}");
            assert_eq!(split.powerdown_cycles(), whole.powerdown_cycles(), "{step}");
            assert_eq!(split.breakdown(), whole.breakdown(), "{step}");
        }
        assert_eq!(whole.standby_cycles(), (0, threshold));
        // Any non-idle accrual or a refresh starts a fresh run.
        for end_run in [
            |m: &mut EnergyMeter| m.on_elapsed(1, false),
            |m: &mut EnergyMeter| m.on_refresh(),
        ] {
            let mut m = meter();
            m.on_idle_gap(100);
            end_run(&mut m);
            m.on_idle_gap(100);
            assert_eq!(m.powerdown_cycles(), 2 * (100 - threshold));
        }
    }

    #[test]
    fn activation_energy_is_positive() {
        let mut m = meter();
        m.on_activate();
        let e = m.breakdown();
        assert!(e.activation_nj > 0.0, "{:?}", e);
        assert_eq!(e.total_nj(), e.activation_nj);
    }

    #[test]
    fn read_and_write_include_io() {
        let mut m = meter();
        m.on_read(64);
        let r = m.breakdown();
        assert!(r.read_nj > 0.0);
        assert!((r.io_nj - 6.0 * 512.0 / 1000.0).abs() < 1e-9);
        let mut m = meter();
        m.on_write(64);
        assert!(m.breakdown().write_nj > 0.0);
    }

    #[test]
    fn background_active_exceeds_precharged() {
        let mut a = meter();
        a.on_elapsed(1000, true);
        let mut p = meter();
        p.on_elapsed(1000, false);
        assert!(a.breakdown().background_nj > p.breakdown().background_nj);
        assert_eq!(a.standby_cycles(), (1000, 0));
        assert_eq!(p.standby_cycles(), (0, 1000));
    }

    #[test]
    fn refresh_energy_scales_with_trfc() {
        let mut m = meter();
        m.on_refresh();
        assert!(m.breakdown().refresh_nj > 0.0);
    }

    #[test]
    fn energy_magnitudes_are_physical() {
        // An activate on an 8-chip DDR3 rank is on the order of
        // tens of nanojoules; a read burst a few nJ.
        let mut m = meter();
        m.on_activate();
        let act = m.breakdown().activation_nj;
        assert!(act > 1.0 && act < 100.0, "activation {act} nJ");
        let mut m = meter();
        m.on_read(64);
        let rd = m.breakdown().read_nj + m.breakdown().io_nj;
        assert!(rd > 0.5 && rd < 50.0, "read {rd} nJ");
    }

    #[test]
    fn powerdown_saves_background_energy() {
        let mut idle = meter();
        idle.on_idle_gap(10_000);
        let mut standby = meter();
        standby.on_elapsed(10_000, false);
        assert!(
            idle.breakdown().background_nj < 0.5 * standby.breakdown().background_nj,
            "power-down must cut idle energy substantially"
        );
        assert!(idle.powerdown_cycles() > 9_000);
        // Short gaps never enter power-down.
        let mut short = meter();
        short.on_idle_gap(20);
        assert_eq!(short.powerdown_cycles(), 0);
    }

    #[test]
    fn breakdown_merge_sums_every_component() {
        let mut m = meter();
        m.on_activate();
        m.on_read(64);
        let a = m.breakdown();
        let mut n = meter();
        n.on_write(64);
        n.on_refresh();
        n.on_elapsed(100, false);
        let b = n.breakdown();
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.activation_nj, a.activation_nj + b.activation_nj);
        assert_eq!(merged.read_nj, a.read_nj + b.read_nj);
        assert_eq!(merged.write_nj, a.write_nj + b.write_nj);
        assert_eq!(merged.refresh_nj, a.refresh_nj + b.refresh_nj);
        assert_eq!(merged.background_nj, a.background_nj + b.background_nj);
        assert_eq!(merged.io_nj, a.io_nj + b.io_nj);
        // Merging the default is the identity.
        let before = merged;
        merged.merge(&EnergyBreakdown::default());
        assert_eq!(merged, before);
    }

    #[test]
    fn totals_sum_components() {
        let mut m = meter();
        m.on_activate();
        m.on_read(64);
        m.on_write(64);
        m.on_refresh();
        m.on_elapsed(100, true);
        let b = m.breakdown();
        let sum =
            b.activation_nj + b.read_nj + b.write_nj + b.refresh_nj + b.background_nj + b.io_nj;
        assert!((b.total_nj() - sum).abs() < 1e-12);
        assert!((b.total_mj() - sum * 1e-6).abs() < 1e-18);
    }
}
