//! # gsdram-telemetry
//!
//! Telemetry for the GS-DRAM simulator: the first-class consumer of the
//! [`SimEvent`] observer contract defined in `gsdram-core::port`.
//!
//! The paper's evaluation (§5) turns on *where* a gather's latency goes
//! — chip conflicts, row-buffer hits vs. misses, bank queueing — and an
//! aggregate mean cannot show that. This crate provides:
//!
//! * [`hist`] — log-bucketed (HDR-style) [`Histogram`]s with exact
//!   merge: element-wise bucket addition, so merging per-channel
//!   histograms is bit-identical to having recorded one stream;
//! * [`collector`] — a [`Collector`] that attaches to a machine via
//!   `Machine::attach_observer` and keeps a bounded ring of raw events
//!   plus a per-channel DRAM queue occupancy timeline;
//! * [`chrome`] — an exporter to Chrome trace-event JSON, loadable in
//!   Perfetto (`ui.perfetto.dev`) or `chrome://tracing`.
//!
//! Counts and histograms have one home: the run's report and stats
//! tree. The memory controller fills the per-channel read-latency and
//! queue-depth histograms whether or not a collector is attached.
//!
//! Generic JSON parsing lives in `gsdram_core::json` (promoted out of
//! this crate so downstream crates don't reach into telemetry for a
//! codec); the `gsdram-trace-check` binary and the trace tests use it.
//!
//! Everything here is observation-only: attaching a collector never
//! changes simulated timing, and the figure JSON of an observed run is
//! byte-identical to an unobserved one (a property the system and
//! bench test suites pin).
//!
//! ```
//! use gsdram_core::port::{EventHub, SimEvent, RowOutcome};
//! use gsdram_core::PatternId;
//! use gsdram_telemetry::Collector;
//!
//! let collector = Collector::with_capacity(1024);
//! let mut hub = EventHub::new();
//! hub.attach(collector.sink());
//! hub.emit(|| SimEvent::DramService {
//!     id: 1, channel: 0, bank: 3, pattern: PatternId(7), write: false,
//!     outcome: RowOutcome::Hit, queue_depth: 2,
//!     arrived_at_mem: 100, done_at_mem: 130,
//! });
//! let t = collector.snapshot();
//! assert_eq!((t.total_events(), t.channels()), (1, 1));
//! assert!(matches!(t.events().next(), Some(SimEvent::DramService { bank: 3, .. })));
//! ```
//!
//! [`SimEvent`]: gsdram_core::port::SimEvent
//! [`Histogram`]: hist::Histogram
//! [`Collector`]: collector::Collector

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chrome;
pub mod collector;
pub mod hist;

pub use chrome::chrome_trace;
pub use collector::{Collector, Telemetry, DEFAULT_CAPACITY};
pub use hist::Histogram;
