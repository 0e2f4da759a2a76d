//! `compare A B`: per-workload medians and quartiles of two sets of
//! untraced runs, and each end-to-end metric's worsening from A to B
//! against its bound.

use gsdram_core::json::Json;

use crate::metrics::END_TO_END;
use crate::sample::{median, quartiles};

/// The parts of a saved record that `compare` reads.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Whether the record came from a traced run.
    pub trace: bool,
    /// `(metric, value)` pairs.
    pub metrics: Vec<(String, f64)>,
}

/// Parses a file of records, one JSON object per line (blank lines
/// are skipped).
pub fn parse(text: &str) -> Result<Vec<Record>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, line)| {
            let bad = |what: &str| format!("line {}: {what}", i + 1);
            let v = Json::parse(line).map_err(|e| bad(&e.to_string()))?;
            let workload = v
                .get("workload")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("no workload"))?;
            let trace = matches!(v.get("trace"), Some(Json::Bool(true)));
            let metrics = v
                .get("metrics")
                .and_then(Json::as_object)
                .ok_or_else(|| bad("no metrics"))?
                .iter()
                .filter_map(|(k, m)| Some((k.clone(), m.as_f64()?)))
                .collect();
            Ok(Record {
                workload: workload.to_string(),
                trace,
                metrics,
            })
        })
        .collect()
}

/// The values of `metric` over the untraced records of `workload`.
fn values(records: &[Record], workload: &str, metric: &str) -> Vec<f64> {
    records
        .iter()
        .filter(|r| !r.trace && r.workload == workload)
        .filter_map(|r| r.metrics.iter().find(|(k, _)| k == metric).map(|&(_, v)| v))
        .collect()
}

/// Compares run set `b` against baseline `a`: one line per workload
/// and end-to-end metric. Returns the report and whether every metric
/// of every workload in `a` stayed within its bound in `b`.
pub fn compare(a: &[Record], b: &[Record]) -> (String, bool) {
    let mut workloads: Vec<&str> = Vec::new();
    for r in a.iter().filter(|r| !r.trace) {
        if !workloads.contains(&r.workload.as_str()) {
            workloads.push(&r.workload);
        }
    }
    let mut out = format!(
        "{:<9} {:<14} {:>40} {:>40} {:>8} {:>6}\n",
        "workload", "metric", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "worse", "bound"
    );
    let mut ok = !workloads.is_empty();
    let cell = |v: &[f64]| {
        let [q1, _, q3] = quartiles(v);
        format!("{:.5e} [{:.4e}, {:.4e}] ({})", median(v), q1, q3, v.len())
    };
    for w in workloads {
        for m in &END_TO_END {
            let bound = m.bound.unwrap_or(0.0);
            let (va, vb) = (values(a, w, m.name), values(b, w, m.name));
            let worse = m.better.worsening(median(&va), median(&vb));
            // A NaN (missing metric) fails too.
            let pass = worse <= bound;
            ok &= pass;
            out.push_str(&format!(
                "{:<9} {:<14} {:>40} {:>40} {:>7.2}% {:>5.1}% {}\n",
                w,
                m.name,
                cell(&va),
                cell(&vb),
                worse * 100.0,
                bound * 100.0,
                if pass { "ok" } else { "WORSE" }
            ));
        }
    }
    (out, ok)
}
