//! `gsdram-benchmark`: see `README.md`.

use std::io::Write as _;
use std::process::ExitCode;

use gsdram_benchmark::measure::{self, Outcome};
use gsdram_benchmark::workload::{Workload, DEFAULT_SEED, NAMES};
use gsdram_benchmark::{compare, host, report, trace};

const USAGE: &str = "usage:
  gsdram-benchmark run     [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
  gsdram-benchmark trace   [--workload NAME|all] [--seed N] [--seconds S] [--out FILE]
  gsdram-benchmark compare A.jsonl B.jsonl
workloads: scan, htap, gemm, scan_4ch (default: all)";

/// Seconds each workload measures when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 25.0;

/// Where a traced run writes its spans, relative to the working
/// directory.
const SPANS_DIR: &str = ".bench_out";

/// Checked command-line options of `run` and `trace`.
struct Options {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

fn parse_options(args: &[String], trace: bool) -> Result<Options, String> {
    let mut o = Options {
        workloads: NAMES.to_vec(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" if value == "all" => o.workloads = NAMES.to_vec(),
            "--workload" => {
                let name = NAMES.iter().find(|&&n| n == value).ok_or_else(bad)?;
                o.workloads = vec![name];
            }
            "--seed" => o.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                o.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                o.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => o.out = Some(value.to_string()),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(o)
}

fn measure(o: &Options) -> Result<Vec<Outcome>, String> {
    let nproc = host::nproc();
    println!(
        "gsdram-benchmark: nproc={nproc}, single-threaded, seconds={}",
        o.seconds
    );
    let mut outcomes = Vec::new();
    for &name in &o.workloads {
        let w = Workload::named(name, o.seed).expect("names come from NAMES");
        let outcome = if o.trace {
            let (outcome, spans) = trace::run(name, &w, o.seed, o.seconds);
            std::fs::create_dir_all(SPANS_DIR)
                .and_then(|()| {
                    std::fs::write(
                        format!("{SPANS_DIR}/spans-{name}.json"),
                        spans.to_json().to_json_string() + "\n",
                    )
                })
                .map_err(|e| format!("writing spans: {e}"))?;
            outcome
        } else {
            measure::run(name, &w, o.seed, o.seconds)
        };
        print!("{}", report::table(&outcome));
        if let Some(path) = &o.out {
            let line = report::record(&outcome, nproc).to_json_string() + "\n";
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .and_then(|mut f| f.write_all(line.as_bytes()))
                .map_err(|e| format!("writing {path}: {e}"))?;
        }
        outcomes.push(outcome);
    }
    Ok(outcomes)
}

fn compare_files(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("compare needs two record files".into());
    };
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| compare::parse(&t).map_err(|e| format!("{p}: {e}")))
    };
    let (text, ok) = compare::compare(&read(a)?, &read(b)?);
    print!("{text}");
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some(cmd @ ("run" | "trace")) => parse_options(&args[1..], cmd == "trace")
            .and_then(|o| measure(&o))
            .map(|outcomes| {
                println!("{}", report::summary(&outcomes).to_json_string());
                outcomes.iter().all(Outcome::correct)
            }),
        Some("compare") => compare_files(&args[1..]),
        _ => Err("missing command".into()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("gsdram-benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
