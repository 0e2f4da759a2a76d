//! System configuration (paper Table 1).

use gsdram_cache::cache::CacheConfig;
use gsdram_core::{GsDramConfig, PatternId};
use gsdram_dram::controller::{ControllerConfig, SchedPolicy};
use gsdram_dram::mapping::MapHash;
use gsdram_dram::timing::TimingPack;

/// How strided gathers are realised by the memory system (the §7
/// related-work axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GatherSupport {
    /// GS-DRAM: in-DRAM address translation — one column command per
    /// gathered line (the paper's proposal).
    GsDram,
    /// Impulse-style (Carter et al., HPCA'99): the memory controller
    /// assembles the gathered line from ordinary reads of every cache
    /// line it touches. Saves controller→processor bandwidth and cache
    /// space, but the controller→DRAM traffic is unchanged (§7: with
    /// commodity modules "Impulse cannot mitigate the wasted memory
    /// bandwidth consumption between the memory controller and DRAM").
    Impulse,
}

impl GatherSupport {
    /// Which word-address semantics a line of `pattern` uses on a page
    /// whose shuffle flag is `shuffled`: under GS-DRAM the hardware
    /// shuffle/CTL path (the page's flag); under Impulse the controller
    /// gathers the application-level stride regardless of the
    /// (commodity, unshuffled) module layout.
    pub(crate) fn addr_semantics(self, shuffled: bool, pattern: PatternId) -> bool {
        shuffled || (self == GatherSupport::Impulse && !pattern.is_default())
    }
}

/// Full-system parameters. The default reproduces Table 1:
///
/// | Component | Setting |
/// |---|---|
/// | Processor | 1–2 cores, in-order, 4 GHz |
/// | L1-D | private, 32 KB, 8-way, LRU |
/// | L2 | shared, 2 MB, 8-way, LRU |
/// | Memory | DDR3-1600, 1 channel, 1 rank, 8 banks |
/// | Policy | open row, FR-FCFS |
/// | Substrate | GS-DRAM(8,3,3) |
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Number of in-order cores.
    pub cores: usize,
    /// CPU clock in GHz (used with the DRAM clock for cycle conversion).
    // gsdram-lint: allow(D5) report axis only; cycle conversion uses integer cpu_per_mem
    pub cpu_ghz: f64,
    /// CPU cycles per memory-controller cycle (4 GHz / 800 MHz = 5).
    pub cpu_per_mem: u64,
    /// Private L1 data cache shape.
    pub l1: CacheConfig,
    /// Shared L2 shape.
    pub l2: CacheConfig,
    /// Memory controller and DDR3 parameters.
    pub controller: ControllerConfig,
    /// GS-DRAM substrate parameters.
    pub gsdram: GsDramConfig,
    /// Modelled physical memory capacity in bytes.
    pub memory_bytes: usize,
    /// Whether the PC-based stride prefetcher (degree 4, into L2) runs.
    pub prefetch: bool,
    /// Extra CPU cycles to shuffle/unshuffle a line at the memory
    /// controller (§3.6: one cycle per stage; 3 for GS-DRAM(8,3,3)).
    pub shuffle_latency: u64,
    /// How non-unit-stride gathers are realised.
    pub gather: GatherSupport,
    /// Independent DRAM channels. Lines interleave across channels at
    /// DRAM-row granularity, so a gathered line never spans channels
    /// (the simple end of the §4.2 interleaving discussion).
    pub channels: usize,
    /// XOR-stage preset of the physical-address map (Table 1 uses the
    /// direct map; the hash stages are ablation axes).
    pub mapping: MapHash,
}

impl SystemConfig {
    /// The Table 1 system with the given core count and memory size.
    pub fn table1(cores: usize, memory_bytes: usize) -> Self {
        SystemConfig {
            cores,
            // gsdram-lint: allow(D5) report axis only; cycle conversion uses integer cpu_per_mem
            cpu_ghz: 4.0,
            cpu_per_mem: 5,
            l1: CacheConfig::l1_32k(),
            l2: CacheConfig::l2_2m(),
            controller: ControllerConfig::default(),
            gsdram: GsDramConfig::gs_dram_8_3_3(),
            memory_bytes,
            prefetch: false,
            shuffle_latency: 3,
            gather: GatherSupport::GsDram,
            channels: 1,
            mapping: MapHash::Direct,
        }
    }

    /// Enables the stride prefetcher (the "with prefetching"
    /// configurations of §5.1).
    pub fn with_prefetch(mut self) -> Self {
        self.prefetch = true;
        self
    }

    /// Switches gather support to the Impulse-style memory-controller
    /// baseline (§7 comparison).
    pub fn with_impulse(mut self) -> Self {
        self.gather = GatherSupport::Impulse;
        self
    }

    /// Uses `ranks` DRAM ranks on the channel (Table 1 uses one; §4.2
    /// discusses interleaving gathered lines across ranks).
    pub fn with_ranks(mut self, ranks: usize) -> Self {
        self.controller.ranks = ranks;
        self
    }

    /// Uses `channels` independent DRAM channels (Table 1 uses one).
    pub fn with_channels(mut self, channels: usize) -> Self {
        self.channels = channels.max(1);
        self
    }

    /// Uses scheduling policy `sched` at every memory controller
    /// (Table 1 uses FR-FCFS).
    pub fn with_sched(mut self, sched: SchedPolicy) -> Self {
        self.controller.policy = sched;
        self
    }

    /// Uses XOR-stage preset `mapping` in the physical-address map
    /// (Table 1 uses the direct map).
    pub fn with_mapping(mut self, mapping: MapHash) -> Self {
        self.mapping = mapping;
        self
    }

    /// Re-times the memory system with a named [`TimingPack`]: the
    /// constraint table, the device power parameters and the CPU:memory
    /// clock ratio swap together.
    pub fn with_timing(mut self, pack: TimingPack) -> Self {
        self.controller.timing = pack.params();
        self.controller.power = pack.power();
        self.cpu_per_mem = pack.cpu_per_mem();
        self
    }

    /// Seconds represented by `cpu_cycles`.
    // gsdram-lint: allow-block(D5) report-axis unit conversion; never feeds simulated timing
    pub fn seconds(&self, cpu_cycles: u64) -> f64 {
        cpu_cycles as f64 / (self.cpu_ghz * 1e9)
    }

    /// Bytes per DRAM row (line size × columns per row).
    pub fn row_bytes(&self) -> u64 {
        self.l2.line_bytes as u64 * 128
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::table1(1, 128 << 20)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper() {
        let c = SystemConfig::table1(2, 64 << 20);
        assert_eq!(c.cores, 2);
        assert_eq!(c.l1.size_bytes, 32 * 1024);
        assert_eq!(c.l2.size_bytes, 2 * 1024 * 1024);
        assert_eq!(c.l1.assoc, 8);
        assert_eq!(c.gsdram.chips(), 8);
        assert_eq!(c.cpu_per_mem, 5);
        assert!(!c.prefetch);
        assert!(c.clone().with_prefetch().prefetch);
        assert_eq!(c.gather, GatherSupport::GsDram);
        assert_eq!(c.clone().with_impulse().gather, GatherSupport::Impulse);
    }

    #[test]
    fn sched_and_mapping_builders() {
        let c = SystemConfig::default();
        assert_eq!(c.controller.policy, SchedPolicy::FrFcfs);
        assert_eq!(c.mapping, MapHash::Direct);
        let c = c
            .with_sched(SchedPolicy::FrFcfsCap { cap: 8 })
            .with_mapping(MapHash::XorBank);
        assert_eq!(c.controller.policy, SchedPolicy::FrFcfsCap { cap: 8 });
        assert_eq!(c.mapping, MapHash::XorBank);
    }

    #[test]
    fn timing_pack_swaps_clock_ratio_with_constraints() {
        let c = SystemConfig::default().with_timing(TimingPack::Ddr4_2400);
        assert_eq!(c.cpu_per_mem, 3);
        assert_eq!(c.controller.timing.tck_ps, 833);
        assert_eq!(c.controller.power.vdd, 1.2);
        let back = SystemConfig::default().with_timing(TimingPack::Ddr3_1600);
        assert_eq!(back.cpu_per_mem, 5);
        assert_eq!(
            back.controller.power,
            SystemConfig::default().controller.power
        );
        assert_eq!(
            back.controller.timing,
            SystemConfig::default().controller.timing,
            "the DDR3 pack is the default"
        );
    }

    #[test]
    fn cycle_conversions() {
        let c = SystemConfig::default();
        assert!((c.seconds(4_000_000_000) - 1.0).abs() < 1e-12);
    }
}
