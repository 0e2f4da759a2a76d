//! Chrome trace-event JSON export.
//!
//! [`chrome_trace`] turns one or more [`Telemetry`] captures into the
//! Chrome trace-event format (the `{"traceEvents":[...]}` object
//! flavour), loadable in Perfetto (`ui.perfetto.dev`) or
//! `chrome://tracing`:
//!
//! * every retained [`SimEvent::DramService`] becomes a complete
//!   (`"ph":"X"`) slice on the channel's track, spanning arrival to
//!   data-burst completion;
//! * every retained [`SimEvent::DramCommand`] and
//!   [`SimEvent::GatherSplit`] becomes an instant (`"ph":"i"`) event;
//! * the queue occupancy timeline becomes counter (`"ph":"C"`) events.
//!
//! Timestamps: one trace microsecond per memory-controller cycle, so
//! displayed durations are DDR3-1600 cycle counts read as µs. Cache
//! events carry no timestamp and are omitted here (their counts appear
//! in the stats tree instead). Events are emitted sorted by timestamp
//! (stable on ties), so the output's `ts` sequence is monotone
//! non-decreasing — a property `gsdram-trace-check` verifies.
//!
//! The writer is hand-rolled in the same dep-free style as the
//! `gsdram-core::stats` codec; output is deterministic for identical
//! captures.
//!
//! [`SimEvent::DramService`]: gsdram_core::port::SimEvent::DramService
//! [`SimEvent::DramCommand`]: gsdram_core::port::SimEvent::DramCommand
//! [`SimEvent::GatherSplit`]: gsdram_core::port::SimEvent::GatherSplit

use std::fmt::Write as _;

use gsdram_core::port::{DramCmdKind, RowOutcome, SimEvent};

use crate::collector::Telemetry;

/// One pre-rendered trace event, sortable by timestamp.
struct Entry {
    ts: u64,
    seq: usize,
    json: String,
}

fn escape(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn cmd_name(kind: DramCmdKind) -> &'static str {
    match kind {
        DramCmdKind::Activate => "ACT",
        DramCmdKind::Precharge => "PRE",
        DramCmdKind::Read => "READ",
        DramCmdKind::Write => "WRITE",
        DramCmdKind::Refresh => "REF",
    }
}

fn outcome_name(outcome: RowOutcome) -> &'static str {
    match outcome {
        RowOutcome::Hit => "hit",
        RowOutcome::Closed => "closed",
        RowOutcome::Conflict => "conflict",
    }
}

/// Renders `runs` — `(run id, telemetry)` pairs — as one Chrome
/// trace-event JSON document. Each run becomes one process (`pid` =
/// run index); each DRAM channel one thread within it.
pub fn chrome_trace(runs: &[(&str, &Telemetry)]) -> String {
    let mut entries: Vec<Entry> = Vec::new();
    let mut seq = 0usize;
    let mut push = |entries: &mut Vec<Entry>, ts: u64, json: String| {
        entries.push(Entry { ts, seq, json });
        seq += 1;
    };

    for (pid, (run_id, t)) in runs.iter().enumerate() {
        // Process/thread naming metadata (ts 0, sorts first).
        let mut meta = String::new();
        let _ = write!(
            meta,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"ts\":0,\"args\":{{\"name\":"
        );
        escape(&mut meta, run_id);
        meta.push_str("}}");
        push(&mut entries, 0, meta);
        for ch in 0..t.channels().max(1) {
            let mut meta = String::new();
            let _ = write!(
                meta,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{ch},\"ts\":0,\"args\":{{\"name\":\"dram ch{ch}\"}}}}"
            );
            push(&mut entries, 0, meta);
        }

        for ev in t.events() {
            match *ev {
                SimEvent::DramService {
                    id,
                    channel,
                    bank,
                    pattern,
                    write,
                    outcome,
                    queue_depth,
                    arrived_at_mem,
                    done_at_mem,
                } => {
                    let dur = done_at_mem.saturating_sub(arrived_at_mem);
                    let name = if write { "write" } else { "read" };
                    let mut j = String::new();
                    let _ = write!(
                        j,
                        "{{\"name\":\"{name}\",\"cat\":\"dram\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{channel},\"ts\":{arrived_at_mem},\"dur\":{dur},\"args\":{{\"id\":{id},\"bank\":{bank},\"pattern\":{},\"row\":\"{}\",\"queue_depth\":{queue_depth}}}}}",
                        pattern.0,
                        outcome_name(outcome)
                    );
                    push(&mut entries, arrived_at_mem, j);
                }
                SimEvent::DramCommand {
                    channel,
                    rank,
                    bank,
                    kind,
                    at_mem,
                } => {
                    let mut j = String::new();
                    let _ = write!(
                        j,
                        "{{\"name\":\"{}\",\"cat\":\"cmd\",\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\"tid\":{channel},\"ts\":{at_mem},\"args\":{{\"rank\":{rank},\"bank\":{}}}}}",
                        cmd_name(kind),
                        bank.map_or(-1i64, |b| b as i64)
                    );
                    push(&mut entries, at_mem, j);
                }
                SimEvent::GatherSplit {
                    addr,
                    pattern,
                    subs,
                    at_mem,
                } => {
                    let mut j = String::new();
                    let _ = write!(
                        j,
                        "{{\"name\":\"gather split\",\"cat\":\"dram\",\"ph\":\"i\",\"s\":\"p\",\"pid\":{pid},\"tid\":0,\"ts\":{at_mem},\"args\":{{\"addr\":{addr},\"pattern\":{},\"subs\":{subs}}}}}",
                        pattern.0
                    );
                    push(&mut entries, at_mem, j);
                }
                // Queue depth comes from the occupancy timeline below;
                // cache events carry no timestamp and are counted in
                // the stats tree instead.
                _ => {}
            }
        }

        for ch in 0..t.channels() {
            for (at, depth) in t.occupancy(ch) {
                let mut j = String::new();
                let _ = write!(
                    j,
                    "{{\"name\":\"queue ch{ch}\",\"cat\":\"dram\",\"ph\":\"C\",\"pid\":{pid},\"tid\":{ch},\"ts\":{at},\"args\":{{\"depth\":{depth}}}}}"
                );
                push(&mut entries, at, j);
            }
        }
    }

    entries.sort_by_key(|e| (e.ts, e.seq));

    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&e.json);
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsdram_core::json::Json;
    use gsdram_core::PatternId;

    fn capture() -> Telemetry {
        let mut t = Telemetry::with_capacity(64);
        t.on_event(&SimEvent::DramEnqueue {
            id: 1,
            channel: 0,
            addr: 64,
            pattern: PatternId(7),
            write: false,
            at_mem: 10,
        });
        t.on_event(&SimEvent::DramCommand {
            channel: 0,
            rank: 0,
            bank: Some(3),
            kind: DramCmdKind::Activate,
            at_mem: 11,
        });
        t.on_event(&SimEvent::DramService {
            id: 1,
            channel: 0,
            bank: 3,
            pattern: PatternId(7),
            write: false,
            outcome: RowOutcome::Closed,
            queue_depth: 1,
            arrived_at_mem: 10,
            done_at_mem: 40,
        });
        t.on_event(&SimEvent::DramComplete { id: 1, at_mem: 40 });
        t
    }

    #[test]
    fn trace_parses_and_timestamps_are_monotone() {
        let t = capture();
        let text = chrome_trace(&[("demo", &t)]);
        let doc = Json::parse(&text).expect("well-formed JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents array");
        assert!(events.len() >= 4);
        let mut last = 0.0f64;
        for e in events {
            let ts = e.get("ts").and_then(Json::as_f64).expect("ts");
            assert!(ts >= last, "timestamps must be monotone non-decreasing");
            last = ts;
            assert!(e.get("ph").and_then(Json::as_str).is_some());
            assert!(e.get("pid").and_then(Json::as_f64).is_some());
        }
        // The service slice is present with its duration.
        let slice = events
            .iter()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .expect("one X slice");
        assert_eq!(slice.get("dur").and_then(Json::as_f64), Some(30.0));
        assert_eq!(
            slice
                .get("args")
                .and_then(|a| a.get("row"))
                .and_then(Json::as_str),
            Some("closed")
        );
    }

    #[test]
    fn identical_captures_render_identically() {
        let a = chrome_trace(&[("x", &capture())]);
        let b = chrome_trace(&[("x", &capture())]);
        assert_eq!(a, b);
    }
}
