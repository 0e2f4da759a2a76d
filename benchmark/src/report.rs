//! What a run prints and saves: the one-line summary that ends
//! standard output, a human-readable table, and the JSON record
//! `compare` reads.

use gsdram_core::json::Json;

use crate::measure::Outcome;
use crate::metrics::{Metric, END_TO_END, PER_LAYER};

/// The table rows an outcome reports: every end-to-end metric for an
/// untraced run, every per-layer metric for a traced one.
fn reported(o: &Outcome) -> &'static [Metric] {
    if o.trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

fn value(o: &Outcome, m: &Metric) -> f64 {
    o.metric(m.name).unwrap_or(f64::NAN)
}

/// The summary line: `{"correct", "attempted", "failed", "metrics":
/// {name: {"value", "unit"}}}`. With more than one workload, metric
/// names are prefixed `workload/`.
pub fn summary(outcomes: &[Outcome]) -> Json {
    let prefix = outcomes.len() > 1;
    let mut members = Vec::new();
    for o in outcomes {
        for m in reported(o) {
            let name = if prefix {
                format!("{}/{}", o.workload, m.name)
            } else {
                m.name.to_string()
            };
            members.push((
                name,
                Json::Obj(vec![
                    ("value".into(), Json::Num(value(o, m))),
                    ("unit".into(), Json::Str(m.unit.into())),
                ]),
            ));
        }
    }
    let sum = |f: fn(&Outcome) -> u64| Json::Num(outcomes.iter().map(f).sum::<u64>() as f64);
    Json::Obj(vec![
        (
            "correct".into(),
            Json::Bool(!outcomes.is_empty() && outcomes.iter().all(Outcome::correct)),
        ),
        ("attempted".into(), sum(|o| o.attempted)),
        ("failed".into(), sum(|o| o.failed)),
        ("metrics".into(), Json::Obj(members)),
    ])
}

/// One outcome as a human-readable table.
pub fn table(o: &Outcome) -> String {
    let mut out = format!(
        "{} ({}, seed {}): {} repetitions, {} runs, {} failed\n",
        o.workload,
        if o.trace { "traced" } else { "untraced" },
        o.seed,
        o.reps,
        o.attempted,
        o.failed
    );
    for m in reported(o) {
        out.push_str(&format!(
            "  {:<28} {:>16.6} {}\n",
            m.name,
            value(o, m),
            m.unit
        ));
    }
    out
}

/// The record `--out` appends and `compare` reads: the summary's
/// fields plus the workload, seed, host thread count, and the
/// per-repetition samples behind each median.
pub fn record(o: &Outcome, nproc: usize) -> Json {
    let num = |v: f64| Json::Num(v);
    Json::Obj(vec![
        ("workload".into(), Json::Str(o.workload.clone())),
        ("seed".into(), num(o.seed as f64)),
        ("trace".into(), Json::Bool(o.trace)),
        ("nproc".into(), num(nproc as f64)),
        ("reps".into(), num(o.reps as f64)),
        ("correct".into(), Json::Bool(o.correct())),
        ("attempted".into(), num(o.attempted as f64)),
        ("failed".into(), num(o.failed as f64)),
        (
            "metrics".into(),
            Json::Obj(
                o.metrics
                    .iter()
                    .map(|&(n, v)| (n.to_string(), num(v)))
                    .collect(),
            ),
        ),
        (
            "samples".into(),
            Json::Obj(
                o.samples
                    .iter()
                    .map(|(n, v)| {
                        (
                            n.to_string(),
                            Json::Arr(v.iter().copied().map(num).collect()),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}
