//! The traced run, which gives the per-layer metrics from outside the
//! simulator. Each repetition runs every side four ways:
//!
//! 0. untraced, as the end-to-end run does (the baseline timing);
//! 1. with each program wrapped in a timer: calls into the workload's
//!    op generator are timed and summed (one aggregate span, not one
//!    per call), less the calibrated cost of the timer itself;
//! 2. with an event recorder attached and each program wrapped in an
//!    access recorder;
//! 3. replaying pass 2's traffic into the cache, DRAM-controller and
//!    GS-DRAM-module APIs on their own ([`crate::replay`]).
//!
//! Passes 0–2 are simulations whose stats digests must all equal the
//! side's reference; the deterministic counts come from pass 0. Spans
//! are kept in memory and written out at the end of the run.

use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use gsdram_cache::cache::LineKey;
use gsdram_core::json::Json;
use gsdram_core::port::SimEvent;
use gsdram_dram::controller::ControllerStats;
use gsdram_system::machine::RunReport;
use gsdram_system::ops::{Op, Program};
use gsdram_telemetry::Histogram;
use gsdram_workloads::common::IterProgram;

use crate::host;
use crate::measure::{repeat, Outcome};
use crate::replay::{self, Access, Enqueue};
use crate::workload::{Gate, Side, Workload};

/// One timed interval. Times are nanoseconds since the run started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What the interval covers.
    pub name: String,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// For an aggregate span, the calls it sums (its end is then
    /// `start + summed time`); 1 otherwise.
    pub count: u64,
}

/// The spans of one run, in the order they were opened.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    list: Vec<Span>,
}

impl Spans {
    /// An empty span list whose clock starts now.
    fn new() -> Self {
        Spans {
            origin: Instant::now(),
            list: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished interval and returns its index.
    fn add(&mut self, name: &str, parent: Option<usize>, start: Instant, end: Instant) -> usize {
        self.add_aggregate(name, parent, start, self.ns(end) - self.ns(start), 1)
    }

    /// Records `count` calls totalling `total_ns`, starting at `start`.
    fn add_aggregate(
        &mut self,
        name: &str,
        parent: Option<usize>,
        start: Instant,
        total_ns: u64,
        count: u64,
    ) -> usize {
        let start = self.ns(start);
        self.list.push(Span {
            name: name.to_string(),
            start,
            end: start + total_ns,
            parent,
            count,
        });
        self.list.len() - 1
    }

    /// Moves span `id`'s end to `end`.
    fn close(&mut self, id: usize, end: Instant) {
        self.list[id].end = self.ns(end);
    }

    /// The recorded spans.
    pub fn list(&self) -> &[Span] {
        &self.list
    }

    /// `[{"name", "start", "end", "parent", "count"}, ...]`.
    pub fn to_json(&self) -> Json {
        let num = |v: u64| Json::Num(v as f64);
        Json::Arr(
            self.list
                .iter()
                .map(|s| {
                    Json::Obj(vec![
                        ("name".into(), Json::Str(s.name.clone())),
                        ("start".into(), num(s.start)),
                        ("end".into(), num(s.end)),
                        (
                            "parent".into(),
                            s.parent.map_or(Json::Null, |p| num(p as u64)),
                        ),
                        ("count".into(), num(s.count)),
                    ])
                })
                .collect(),
        )
    }
}

/// The mean interval a back-to-back `Instant` pair measures around no
/// work: the bias each timed call carries.
fn timer_bias_ns() -> f64 {
    const N: u32 = 200_000;
    let mut total = 0u128;
    for _ in 0..N {
        let t = Instant::now();
        black_box(());
        total += t.elapsed().as_nanos();
    }
    total as f64 / f64::from(N)
}

/// A program whose every call is timed.
struct Timed<'a> {
    inner: &'a mut IterProgram,
    ns: u64,
    calls: u64,
}

impl Timed<'_> {
    fn time<T>(&mut self, f: impl FnOnce(&mut IterProgram) -> T) -> T {
        let t = Instant::now();
        let v = f(self.inner);
        self.ns += t.elapsed().as_nanos() as u64;
        self.calls += 1;
        v
    }
}

impl Program for Timed<'_> {
    fn next_op(&mut self) -> Option<Op> {
        self.time(|p| p.next_op())
    }

    fn on_load_value(&mut self, value: u64) {
        self.time(|p| p.on_load_value(value))
    }

    fn progress(&self) -> u64 {
        self.inner.progress()
    }

    fn result(&self) -> u64 {
        self.inner.result()
    }
}

/// A program that logs every memory op it hands the machine.
struct Recorded<'a> {
    inner: &'a mut IterProgram,
    core: u8,
    log: &'a RefCell<Vec<Access>>,
}

impl Program for Recorded<'_> {
    fn next_op(&mut self) -> Option<Op> {
        let op = self.inner.next_op();
        let access = match op {
            Some(Op::Load { addr, pattern, .. } | Op::Load16 { addr, pattern, .. }) => {
                Some((addr, pattern, false))
            }
            Some(Op::Store { addr, pattern, .. }) => Some((addr, pattern, true)),
            _ => None,
        };
        if let Some((addr, pattern, store)) = access {
            self.log.borrow_mut().push(Access {
                core: self.core,
                store,
                key: LineKey::new(addr, 64, pattern),
            });
        }
        op
    }

    fn on_load_value(&mut self, value: u64) {
        self.inner.on_load_value(value)
    }

    fn progress(&self) -> u64 {
        self.inner.progress()
    }

    fn result(&self) -> u64 {
        self.inner.result()
    }
}

/// What the event recorder keeps.
#[derive(Debug, Default)]
struct EventLog {
    events: u64,
    overlap_flushes: u64,
    enqueues: Vec<Enqueue>,
    completed: Vec<(u64, u64)>,
}

impl EventLog {
    fn on_event(&mut self, ev: &SimEvent) {
        self.events += 1;
        match *ev {
            SimEvent::OverlapFlush { .. } => self.overlap_flushes += 1,
            SimEvent::DramEnqueue {
                id,
                channel,
                addr,
                pattern,
                write,
                at_mem,
            } => self.enqueues.push(Enqueue {
                id,
                channel,
                addr,
                pattern,
                write,
                at: at_mem,
                shuffled: false,
            }),
            SimEvent::DramComplete { id, at_mem } => self.completed.push((id, at_mem)),
            _ => {}
        }
    }
}

/// Everything one traced repetition measured, summed over both sides.
/// Times are raw host seconds.
#[derive(Debug, Default)]
struct Rep {
    ref_s: f64,
    setup: [f64; 3],
    run_s: f64,
    recorded_run_s: f64,
    program_s: f64,
    cache_s: f64,
    dram_s: f64,
    module_s: f64,
    accesses: u64,
    requests: u64,
    completed: u64,
    replay_l1_hits: u64,
    replay_dram_matched: u64,
    events: u64,
    overlap_flushes: u64,
    reports: Vec<RunReport>,
}

/// Runs one side four ways and folds what it measured into `r`.
fn side(
    w: &Workload,
    s: Side,
    gate: &mut Gate,
    spans: &mut Spans,
    parent: usize,
    bias_ns: f64,
    r: &mut Rep,
) -> Option<()> {
    let cfg = w.config();
    let label = s.label();
    let node = spans.add(label, Some(parent), Instant::now(), Instant::now());

    // Pass 0: untraced.
    let (run, setup) = gate.simulate(label, s, || w.run(s))?;
    let [t0, t1, t2, t3] = setup.stamps;
    spans.add("setup.machine", Some(node), t0, t1);
    spans.add("setup.data", Some(node), t1, t2);
    spans.add("setup.program", Some(node), t2, t3);
    spans.add("system.run", Some(node), run.span.0, run.span.1);
    r.setup[0] += setup.machine_s();
    r.setup[1] += setup.data_s();
    r.setup[2] += setup.program_s();
    r.run_s += run.run_s();
    r.reports.push(run.report);

    // Pass 1: timed op generation.
    let (run, (ns, calls)) = gate.simulate(&format!("{label}/timed"), s, || {
        let mut inst = w.setup(s);
        let (run, timers) = inst.run_through(|_, p| Timed {
            inner: p,
            ns: 0,
            calls: 0,
        })?;
        let totals = timers
            .iter()
            .fold((0u64, 0u64), |(ns, calls), t| (ns + t.ns, calls + t.calls));
        Ok((run, totals))
    })?;
    let self_ns = (ns as f64 - calls as f64 * bias_ns).max(0.0);
    let p1 = spans.add("pass1.run", Some(node), run.span.0, run.span.1);
    spans.add_aggregate(
        "workloads.program",
        Some(p1),
        run.span.0,
        self_ns as u64,
        calls,
    );
    r.program_s += self_ns * 1e-9;

    // Pass 2: recorded traffic.
    let (run, (accesses, log)) = gate.simulate(&format!("{label}/recorded"), s, || {
        let mut inst = w.setup(s);
        let log = Rc::new(RefCell::new(EventLog::default()));
        let sink = Rc::clone(&log);
        inst.machine.attach_observer(Box::new(move |ev: &SimEvent| {
            sink.borrow_mut().on_event(ev)
        }));
        let accesses = RefCell::new(Vec::new());
        let (run, _) = inst.run_through(|core, p| Recorded {
            inner: p,
            core: core as u8,
            log: &accesses,
        })?;
        drop(inst.machine.detach_observer());
        let mut log = Rc::try_unwrap(log)
            .map_err(|_| "event log still shared".to_string())?
            .into_inner();
        let pages = inst.machine.page_table_mut();
        for e in &mut log.enqueues {
            e.shuffled = pages.info(e.addr).shuffle;
        }
        Ok((run, (accesses.into_inner(), log)))
    })?;
    spans.add("pass2.run", Some(node), run.span.0, run.span.1);
    r.recorded_run_s += run.run_s();
    r.events += log.events;
    r.overlap_flushes += log.overlap_flushes;

    // Pass 3: replays, each timed inside (its loop alone) and spanned
    // outside (with its set-up).
    let t0 = Instant::now();
    let cache = gate.guard(&format!("{label}/replay.cache"), || {
        Ok(replay::cache(&cfg, &accesses))
    })?;
    let t1 = Instant::now();
    let dram = gate.guard(&format!("{label}/replay.dram"), || {
        Ok(replay::dram(&cfg, &log.enqueues, &log.completed))
    })?;
    let t2 = Instant::now();
    let module_s = gate.guard(&format!("{label}/replay.module"), || {
        Ok(replay::module(&cfg, &log.enqueues))
    })?;
    let t3 = Instant::now();
    spans.add("replay.cache", Some(node), t0, t1);
    spans.add("replay.dram", Some(node), t1, t2);
    spans.add("replay.module", Some(node), t2, t3);
    spans.close(node, t3);
    r.cache_s += cache.secs;
    r.dram_s += dram.secs;
    r.module_s += module_s;
    r.accesses += accesses.len() as u64;
    r.requests += log.enqueues.len() as u64;
    r.completed += log.completed.len() as u64;
    r.replay_l1_hits += cache.matched;
    r.replay_dram_matched += dram.matched;
    Some(())
}

/// One traced repetition, bracketed by reference probes as the
/// untraced run's are (see [`crate::measure`]).
fn rep(
    w: &Workload,
    gate: &mut Gate,
    spans: &mut Spans,
    bias_ns: f64,
    probe: &mut f64,
) -> Option<Rep> {
    let start = Instant::now();
    let node = spans.add("rep", None, start, start);
    let mut r = Rep::default();
    let done = Side::BOTH
        .into_iter()
        .all(|s| side(w, s, gate, spans, node, bias_ns, &mut r).is_some());
    let t = Instant::now();
    let before = std::mem::replace(probe, host::reference_probe());
    spans.add("host.probe", Some(node), t, Instant::now());
    spans.close(node, Instant::now());
    r.ref_s = (before + *probe) / 2.0;
    done.then_some(r)
}

/// Measures `w`'s per-layer metrics for about `seconds` (at least one
/// repetition), returning them with the spans.
pub fn run(name: &str, w: &Workload, seed: u64, seconds: f64) -> (Outcome, Spans) {
    let bias_ns = timer_bias_ns();
    let mut spans = Spans::new();
    let mut gate = Gate::new(name);
    let mut probe = host::reference_probe();
    let reps = repeat(seconds, 1, || {
        rep(w, &mut gate, &mut spans, bias_ns, &mut probe)
    });
    let mut o = Outcome {
        workload: name.to_string(),
        seed,
        trace: true,
        reps: reps.len(),
        attempted: gate.attempted,
        failed: gate.failed,
        metrics: Vec::new(),
        samples: Vec::new(),
    };
    if !reps.is_empty() {
        layer_metrics(&mut o, &reps);
    }
    (o, spans)
}

/// The per-layer metrics: medians over repetitions of each
/// host-normalised time, and the deterministic counts of the first
/// repetition (the digest gate makes every repetition's equal).
fn layer_metrics(o: &mut Outcome, reps: &[Rep]) {
    let first = &reps[0];
    let norm = |f: &dyn Fn(&Rep) -> f64| -> Vec<f64> {
        reps.iter()
            .map(|r| host::normalise_time(f(r), r.ref_s))
            .collect()
    };
    let ops: u64 = first.reports.iter().map(|r| r.ops).sum();
    let per = |n: u64| 1e9 / n.max(1) as f64;

    o.push_median("workloads.self_s", norm(&|r| r.program_s));
    o.push_median("workloads.ns_per_op", norm(&|r| r.program_s * per(ops)));
    o.push_median("cache.replay_s", norm(&|r| r.cache_s));
    o.push_median(
        "cache.ns_per_access",
        norm(&|r| r.cache_s * per(r.accesses)),
    );
    let machine_l1_hits: u64 = first
        .reports
        .iter()
        .flat_map(|r| r.l1.iter())
        .map(|s| s.hits)
        .sum();
    o.metrics.push((
        "cache.replay_l1_match",
        ratio(first.replay_l1_hits, machine_l1_hits),
    ));
    o.push_median("dram.replay_s", norm(&|r| r.dram_s));
    o.push_median("dram.ns_per_request", norm(&|r| r.dram_s * per(r.requests)));
    o.metrics.push((
        "dram.replay_match",
        ratio(first.replay_dram_matched, first.completed),
    ));
    o.push_median("module.replay_s", norm(&|r| r.module_s));
    o.push_median(
        "module.ns_per_line",
        norm(&|r| r.module_s * per(r.requests)),
    );
    o.push_median("system.run_s", norm(&|r| r.run_s));
    o.push_median("system.self_s", norm(&|r| r.run_s - r.program_s));
    o.push_median(
        "system.residual_s",
        norm(&|r| r.run_s - r.program_s - r.cache_s - r.dram_s - r.module_s),
    );
    o.push_median("setup.machine_s", norm(&|r| r.setup[0]));
    o.push_median("setup.data_s", norm(&|r| r.setup[1]));
    o.push_median("setup.program_s", norm(&|r| r.setup[2]));

    let sum = |f: &dyn Fn(&RunReport) -> u64| -> u64 { first.reports.iter().map(f).sum() };
    let count = |v: u64| v as f64;
    let l1_all = sum(&|r| r.l1.iter().map(|s| s.hits + s.misses).sum());
    let mut dram = ControllerStats::default();
    let (mut latency, mut depth) = (Histogram::new(), Histogram::new());
    for r in &first.reports {
        dram.merge(&r.dram);
        r.dram_read_latency.iter().for_each(|h| latency.merge(h));
        r.dram_queue_depth.iter().for_each(|h| depth.merge(h));
    }
    let counts = [
        ("exec.ops", count(ops)),
        ("exec.mem_ops", count(sum(&|r| r.mem_ops))),
        ("exec.sim_cycles", count(sum(&|r| r.cpu_cycles))),
        ("cache.l1_hit_rate", ratio(machine_l1_hits, l1_all)),
        (
            "cache.l2_hit_rate",
            ratio(sum(&|r| r.l2.hits), sum(&|r| r.l2.hits + r.l2.misses)),
        ),
        (
            "prefetch.issued",
            count(sum(&|r| r.prefetch.iter().map(|p| p.issued).sum())),
        ),
        ("coherence.overlap_flushes", count(first.overlap_flushes)),
        (
            "coherence.dbi_row_queries",
            count(sum(&|r| r.dbi.row_queries)),
        ),
        (
            "bridge.enqueues",
            count(sum(&|r| {
                r.dram_channels
                    .iter()
                    .map(|c| c.load.reads + c.load.writes)
                    .sum()
            })),
        ),
        ("dram.reads", count(dram.reads)),
        ("dram.writes", count(dram.writes)),
        ("dram.activates", count(dram.activates)),
        ("dram.row_hit_rate", dram.row_hit_rate()),
        ("dram.read_latency_p50", count(latency.quantile(0.50))),
        ("dram.read_latency_p99", count(latency.quantile(0.99))),
        ("dram.queue_depth_p99", count(depth.quantile(0.99))),
        ("dram.sched_decisions", count(dram.engine_decisions())),
        ("trace.events", count(first.events)),
    ];
    o.metrics.extend(counts);
    o.push_median(
        "trace.overhead_frac",
        reps.iter()
            .map(|r| r.recorded_run_s / r.run_s - 1.0)
            .collect(),
    );
    o.push_median("host.ref_s", reps.iter().map(|r| r.ref_s).collect());
    let mem_ops = sum(&|r| r.mem_ops) as f64;
    o.push_median(
        "host.raw_mem_ops_per_s",
        reps.iter().map(|r| mem_ops / r.run_s).collect(),
    );
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        1.0
    } else {
        num as f64 / den as f64
    }
}
