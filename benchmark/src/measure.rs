//! The untraced run, which gives the end-to-end metrics, and the
//! repetition loop both modes share.

use std::time::Instant;

use crate::host;
use crate::sample::median;
use crate::workload::{Gate, Side, Workload};

/// Repetitions every untraced run makes, however short `--seconds`.
pub const MIN_REPS: usize = 3;

/// What one invocation measured on one workload.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Workload name.
    pub workload: String,
    /// The `--seed` given.
    pub seed: u64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Repetitions that completed and entered the medians.
    pub reps: usize,
    /// Simulations (and replays) attempted.
    pub attempted: u64,
    /// Of those, the ones that failed.
    pub failed: u64,
    /// `(metric, value)` in table order.
    pub metrics: Vec<(&'static str, f64)>,
    /// The per-repetition values behind each median.
    pub samples: Vec<(&'static str, Vec<f64>)>,
}

impl Outcome {
    /// Every run passed its checks and at least one repetition counted.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.reps > 0
    }

    /// The value of `metric`, if reported.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Reports the median of `samples` as `name`, keeping the samples.
    pub(crate) fn push_median(&mut self, name: &'static str, samples: Vec<f64>) {
        self.metrics.push((name, median(&samples)));
        self.samples.push((name, samples));
    }
}

/// Calls `rep` until `seconds` have passed, and at least `min_reps`
/// times. It stops before a repetition of average length would overrun
/// `seconds`, so a run ends close to its budget. Failed repetitions
/// (`None`) count towards the time but not the result.
pub fn repeat<T>(seconds: f64, min_reps: usize, mut rep: impl FnMut() -> Option<T>) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    let mut tries = 0usize;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if tries >= min_reps && elapsed * (tries + 1) as f64 / tries as f64 > seconds {
            return out;
        }
        tries += 1;
        if let Some(v) = rep() {
            out.push(v);
        }
    }
}

/// One untraced repetition: both sides, set up and run.
#[derive(Debug, Clone, Copy)]
struct Rep {
    ref_s: f64,
    setup_s: f64,
    run_s: f64,
    mem_ops: u64,
    cycles: [u64; 2],
}

/// Runs one repetition. `probe` holds the reference probe taken just
/// before it and is replaced by one taken just after; the repetition's
/// timings are normalised by the mean of the two.
fn rep(w: &Workload, gate: &mut Gate, probe: &mut f64) -> Option<Rep> {
    let sides = Side::BOTH.map(|side| gate.simulate(side.label(), side, || w.run(side)));
    let before = std::mem::replace(probe, host::reference_probe());
    let [Some((row, row_setup)), Some((gs, gs_setup))] = sides else {
        return None;
    };
    Some(Rep {
        ref_s: (before + *probe) / 2.0,
        setup_s: row_setup.total_s() + gs_setup.total_s(),
        run_s: row.run_s() + gs.run_s(),
        mem_ops: row.report.mem_ops + gs.report.mem_ops,
        cycles: [row.report.cpu_cycles, gs.report.cpu_cycles],
    })
}

/// Measures `w`'s end-to-end metrics for about `seconds`, after one
/// warm-up repetition that only sets each side's reference digest.
pub fn run(name: &str, w: &Workload, seed: u64, seconds: f64) -> Outcome {
    host::reset_peak_rss();
    let mut gate = Gate::new(name);
    let mut probe = host::reference_probe();
    let _ = rep(w, &mut gate, &mut probe);
    let reps = repeat(seconds, MIN_REPS, || rep(w, &mut gate, &mut probe));
    let peak_mib = host::peak_rss_kib().map_or(f64::NAN, |kib| kib as f64 / 1024.0);

    let mut o = Outcome {
        workload: name.to_string(),
        seed,
        trace: false,
        reps: reps.len(),
        attempted: gate.attempted,
        failed: gate.failed,
        metrics: Vec::new(),
        samples: Vec::new(),
    };
    o.push_median(
        "mem_ops_per_s",
        reps.iter()
            .map(|r| host::normalise_rate(r.mem_ops as f64 / r.run_s, r.ref_s))
            .collect(),
    );
    o.push_median(
        "setup_s",
        reps.iter()
            .map(|r| host::normalise_time(r.setup_s, r.ref_s))
            .collect(),
    );
    o.metrics.push(("peak_rss_mib", peak_mib));
    // The digest gate makes every repetition's cycle counts identical.
    let speedup = reps
        .first()
        .map_or(f64::NAN, |r| r.cycles[0] as f64 / r.cycles[1] as f64);
    o.metrics.push(("gs_speedup", speedup));
    o.samples
        .push(("host.ref_s", reps.iter().map(|r| r.ref_s).collect()));
    o
}
