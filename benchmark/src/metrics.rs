//! The metric table: every number the benchmark reports, with its unit,
//! its direction and (for end-to-end metrics) the share by which it may
//! worsen before a change counts as a regression. `BENCHMARK.json`
//! mirrors this table; a test keeps the two equal.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// How much worse `new` is than `base`, as a share of `base`
    /// (negative when better).
    pub fn worsening(self, base: f64, new: f64) -> f64 {
        let delta = (new - base) / base.abs();
        match self {
            Better::Higher => -delta,
            Better::Lower => delta,
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Allowed worsening as a share of the baseline median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the simulator sees, measured with tracing off.
pub const END_TO_END: [Metric; 4] = [
    e2e("mem_ops_per_s", "ops/s", Higher, 0.15),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.05),
    e2e("gs_speedup", "x", Higher, 0.03),
];

/// One layer each, measured from outside the simulator by the traced
/// run (see `README.md` for which end-to-end metric each should move).
pub const PER_LAYER: [Metric; 37] = [
    // op generation
    layer("workloads.self_s", "s", Lower),
    layer("workloads.ns_per_op", "ns", Lower),
    // L1/L2 probe and fill
    layer("cache.replay_s", "s", Lower),
    layer("cache.ns_per_access", "ns", Lower),
    layer("cache.replay_l1_match", "fraction", Higher),
    // controller and scheduler
    layer("dram.replay_s", "s", Lower),
    layer("dram.ns_per_request", "ns", Lower),
    layer("dram.replay_match", "fraction", Higher),
    // GS-DRAM functional datapath
    layer("module.replay_s", "s", Lower),
    layer("module.ns_per_line", "ns", Lower),
    // exec, hierarchy glue, coherence, bridge
    layer("system.run_s", "s", Lower),
    layer("system.self_s", "s", Lower),
    layer("system.residual_s", "s", Lower),
    // set-up
    layer("setup.machine_s", "s", Lower),
    layer("setup.data_s", "s", Lower),
    layer("setup.program_s", "s", Lower),
    // deterministic counts: a pure speed change moves none of these
    layer("exec.ops", "count", Lower),
    layer("exec.mem_ops", "count", Lower),
    layer("exec.sim_cycles", "cycles", Lower),
    layer("cache.l1_hit_rate", "fraction", Higher),
    layer("cache.l2_hit_rate", "fraction", Higher),
    layer("prefetch.issued", "count", Lower),
    layer("coherence.overlap_flushes", "count", Lower),
    layer("coherence.dbi_row_queries", "count", Lower),
    layer("bridge.enqueues", "count", Lower),
    layer("dram.reads", "count", Lower),
    layer("dram.writes", "count", Lower),
    layer("dram.activates", "count", Lower),
    layer("dram.row_hit_rate", "fraction", Higher),
    layer("dram.read_latency_p50", "cycles", Lower),
    layer("dram.read_latency_p99", "cycles", Lower),
    layer("dram.queue_depth_p99", "count", Lower),
    layer("dram.sched_decisions", "count", Lower),
    // diagnostics
    layer("trace.events", "count", Lower),
    layer("trace.overhead_frac", "fraction", Lower),
    layer("host.ref_s", "s", Lower),
    layer("host.raw_mem_ops_per_s", "ops/s", Higher),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&Metric> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for (i, m) in all.iter().enumerate() {
            assert!(m.name.len() <= 64, "{}", m.name);
            assert!(m.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
            assert!(m.unit.len() <= 16);
            assert!(
                all[..i].iter().all(|o| o.name != m.name),
                "{} twice",
                m.name
            );
        }
        // `setup_s` carries the largest bound, and none exceeds 25%.
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        for m in &END_TO_END {
            assert!(m.bound.unwrap() <= setup.bound.unwrap() && m.bound.unwrap() <= 0.25);
        }
    }

    #[test]
    fn worsening_respects_direction() {
        assert!((Higher.worsening(100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!((Lower.worsening(100.0, 90.0) + 0.1).abs() < 1e-12);
    }
}
