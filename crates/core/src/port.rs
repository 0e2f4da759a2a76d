//! Port-level message types and the simulation observer contract.
//!
//! The end-to-end simulator (the `gsdram-system` crate) is built from
//! composable components — core scheduler, cache hierarchy, coherence
//! engine, DRAM bridge — that exchange typed messages across *ports*
//! (Gem5-style): a core presents a [`MemReq`] to the hierarchy and
//! eventually receives a [`MemResp`]; everything in between is a
//! component concern.
//!
//! Alongside the request/response types, this module defines the
//! [`SimEvent`] observer contract: every component announces its
//! externally meaningful actions (cache fills and evictions, coherence
//! overlap flushes, DRAM enqueues, commands, request service and
//! completions) through an
//! [`EventHub`]. Tracers and profilers attach at the hub instead of
//! being threaded through component code, and when nothing is attached
//! the hub is a single branch on `None` — events are constructed lazily,
//! so an unobserved simulation pays no allocation or formatting cost.

use crate::PatternId;

/// What a [`MemReq`] does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqKind {
    /// 8-byte load (`pattload` into a 64-bit register).
    Load,
    /// 16-byte SIMD load (`pattload` into an xmm register).
    LoadWide,
    /// 8-byte store of the carried value (`pattstore`).
    Store(u64),
}

/// A typed request a core presents to the memory hierarchy's port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemReq {
    /// Static instruction address (stride-prefetcher training key).
    pub pc: u64,
    /// Byte address accessed.
    pub addr: u64,
    /// Access pattern the line is gathered with.
    pub pattern: PatternId,
    /// Load / wide load / store.
    pub kind: ReqKind,
}

impl MemReq {
    /// The stored value, for store requests.
    pub fn store_value(&self) -> Option<u64> {
        match self.kind {
            ReqKind::Store(v) => Some(v),
            _ => None,
        }
    }

    /// Whether this is a 16-byte SIMD load.
    pub fn is_wide(&self) -> bool {
        matches!(self.kind, ReqKind::LoadWide)
    }

    /// The 8-byte word this request touches within its line.
    pub fn word_index(&self, line_bytes: u64) -> usize {
        ((self.addr % line_bytes) / 8) as usize
    }
}

/// The completion a port eventually returns for a [`MemReq`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemResp {
    /// The value loaded (for stores, the value written).
    pub value: u64,
    /// CPU cycle the requesting core may consume the value.
    pub ready_at: u64,
}

/// Which cache level a [`SimEvent`] refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheLevel {
    /// A private per-core L1.
    L1,
    /// The shared L2.
    L2,
}

/// The kind of a DRAM command, as seen by observers.
///
/// This is the telemetry-facing mirror of the controller's internal
/// command type: enough to classify bus activity without exposing the
/// timing machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DramCmdKind {
    /// ACTIVATE: open a row into the bank's row buffer.
    Activate,
    /// PRECHARGE: close the bank's open row.
    Precharge,
    /// READ column command (a GS-DRAM gather is one of these).
    Read,
    /// WRITE column command.
    Write,
    /// All-bank REFRESH.
    Refresh,
}

/// Which back-end engine decision a [`SimEvent::SchedDecision`]
/// reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedDecisionKind {
    /// A younger row hit was serviced while an older request waited.
    RowHitBypass,
    /// A starvation cap forced the oldest request to be serviced.
    StarvationPromotion,
    /// A batch scheduler's bank cursor rotated onward.
    BatchRotation,
    /// The write queue hit the high watermark: drain mode started.
    DrainEnter,
    /// The write queue shrank to the low watermark: drain mode ended.
    DrainExit,
}

/// How a column command found the bank's row buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowOutcome {
    /// The needed row was already open.
    Hit,
    /// The bank was precharged; one ACTIVATE sufficed.
    Closed,
    /// Another row was open; PRECHARGE + ACTIVATE were needed.
    Conflict,
}

/// One externally meaningful action of a simulator component.
///
/// Addresses are line-aligned byte addresses; `pattern` is the pattern
/// the line was gathered with; times are in the clock domain of the
/// emitting component (CPU cycles at the caches, memory-controller
/// cycles at the DRAM bridge).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimEvent {
    /// A line was installed into a cache.
    CacheFill {
        /// Which level was filled.
        level: CacheLevel,
        /// The owning core for L1 fills; `None` for the shared L2.
        core: Option<usize>,
        /// Line-aligned byte address.
        addr: u64,
        /// Pattern the line was gathered with.
        pattern: PatternId,
    },
    /// A fill pushed a victim line out of a cache.
    CacheEvict {
        /// Which level evicted.
        level: CacheLevel,
        /// The owning core for L1 evictions; `None` for the shared L2.
        core: Option<usize>,
        /// Line-aligned byte address of the victim.
        addr: u64,
        /// Pattern of the victim.
        pattern: PatternId,
        /// Whether the victim held modified data.
        dirty: bool,
    },
    /// The §4.1 coherence engine forced an overlapping line of the
    /// other pattern out of a cache: a dirty line flushed ahead of a
    /// fetch, or any resident copy invalidated by a store. A dirty
    /// casualty's writeback shows up as a following [`DramEnqueue`].
    ///
    /// [`DramEnqueue`]: SimEvent::DramEnqueue
    OverlapFlush {
        /// Line-aligned byte address of the flushed line.
        addr: u64,
        /// Pattern of the flushed line.
        pattern: PatternId,
        /// `true` when triggered by a store's overlap invalidation,
        /// `false` for a flush ahead of a fetch.
        store: bool,
    },
    /// A sub-request entered a memory controller's queues.
    DramEnqueue {
        /// The controller-level request id.
        id: u64,
        /// Channel the request was routed to.
        channel: usize,
        /// Channel-local byte address of the line.
        addr: u64,
        /// Pattern rode on the column command.
        pattern: PatternId,
        /// `true` for writebacks, `false` for fetches.
        write: bool,
        /// Arrival time in memory-controller cycles.
        at_mem: u64,
    },
    /// A memory controller finished a sub-request's data burst.
    DramComplete {
        /// The controller-level request id.
        id: u64,
        /// Completion time in memory-controller cycles.
        at_mem: u64,
    },
    /// A memory controller put one command on the command bus.
    DramCommand {
        /// Channel whose controller issued the command.
        channel: usize,
        /// Rank the command targets.
        rank: usize,
        /// Target bank; `None` for the all-bank REFRESH.
        bank: Option<usize>,
        /// What was issued.
        kind: DramCmdKind,
        /// Issue time in memory-controller cycles.
        at_mem: u64,
    },
    /// A column command retired a queued request: the one event that
    /// carries a request's whole service story (row-buffer outcome,
    /// queue pressure at issue, end-to-end latency).
    DramService {
        /// The controller-level request id.
        id: u64,
        /// Channel that served the request.
        channel: usize,
        /// Bank the column command targeted.
        bank: usize,
        /// Pattern carried on the column command.
        pattern: PatternId,
        /// `true` for writebacks, `false` for reads.
        write: bool,
        /// How the request found the row buffer.
        outcome: RowOutcome,
        /// Controller queue occupancy (reads + writes) when the column
        /// command issued, this request included.
        queue_depth: u32,
        /// Arrival time at the controller, memory cycles.
        arrived_at_mem: u64,
        /// Data-burst completion time, memory cycles.
        done_at_mem: u64,
    },
    /// A memory controller's scheduling or write-drain engine took a
    /// fairness/mode decision: a row hit bypassed an older request, a
    /// starvation cap promoted the oldest request, a batch cursor
    /// rotated, or write-drain mode flipped. The default FR-FCFS
    /// configuration takes none of these, so traces of baseline runs
    /// are unchanged.
    SchedDecision {
        /// Channel whose controller took the decision.
        channel: usize,
        /// Which decision was taken.
        kind: SchedDecisionKind,
        /// Decision time in memory-controller cycles.
        at_mem: u64,
    },
    /// A logical gather could not be served by one column command and
    /// was split into multiple per-line sub-requests — the Impulse
    /// baseline's chip conflicts (paper §3). Each sub-request beyond
    /// the first is one conflict.
    GatherSplit {
        /// Line-aligned byte address of the logical access.
        addr: u64,
        /// Pattern of the logical access.
        pattern: PatternId,
        /// Number of sub-requests the access expanded into (≥ 2).
        subs: u32,
        /// Expansion time in memory-controller cycles.
        at_mem: u64,
    },
}

/// An observer of [`SimEvent`]s.
///
/// Implementations are attached to a machine through its [`EventHub`];
/// they see every event in program order, single-threaded.
pub trait EventSink {
    /// Called once per emitted event.
    fn on_event(&mut self, ev: &SimEvent);
}

impl<F: FnMut(&SimEvent)> EventSink for F {
    fn on_event(&mut self, ev: &SimEvent) {
        self(ev)
    }
}

/// The per-machine event distribution point.
///
/// Components hold no observer state of their own; they are handed a
/// `&mut EventHub` and call [`EventHub::emit`] with a closure that
/// builds the event. With no sink attached the closure is never run, so
/// the cost of an unobserved simulation is one `Option` branch per
/// emission site.
#[derive(Default)]
pub struct EventHub {
    sink: Option<Box<dyn EventSink>>,
}

impl std::fmt::Debug for EventHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventHub")
            .field("attached", &self.sink.is_some())
            .finish()
    }
}

impl EventHub {
    /// A hub with nothing attached.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches `sink`, replacing (and returning) any previous one.
    pub fn attach(&mut self, sink: Box<dyn EventSink>) -> Option<Box<dyn EventSink>> {
        self.sink.replace(sink)
    }

    /// Detaches and returns the current sink, if any.
    pub fn detach(&mut self) -> Option<Box<dyn EventSink>> {
        self.sink.take()
    }

    /// Emits the event built by `make` to the attached sink, if any.
    /// `make` is only invoked when a sink is attached.
    #[inline]
    pub fn emit(&mut self, make: impl FnOnce() -> SimEvent) {
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.on_event(&make());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn unattached_hub_never_builds_events() {
        let mut hub = EventHub::new();
        hub.emit(|| panic!("event must not be constructed without a sink"));
    }

    #[test]
    fn attached_sink_sees_events_in_order() {
        let seen: Rc<RefCell<Vec<SimEvent>>> = Rc::default();
        let log = Rc::clone(&seen);
        let mut hub = EventHub::new();
        hub.attach(Box::new(move |ev: &SimEvent| log.borrow_mut().push(*ev)));
        hub.emit(|| SimEvent::DramComplete { id: 1, at_mem: 10 });
        hub.emit(|| SimEvent::DramComplete { id: 2, at_mem: 20 });
        let seen = seen.borrow();
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0], SimEvent::DramComplete { id: 1, at_mem: 10 });
        assert_eq!(seen[1], SimEvent::DramComplete { id: 2, at_mem: 20 });
    }

    #[test]
    fn detach_stops_delivery() {
        let seen: Rc<RefCell<Vec<SimEvent>>> = Rc::default();
        let log = Rc::clone(&seen);
        let mut hub = EventHub::new();
        hub.attach(Box::new(move |ev: &SimEvent| log.borrow_mut().push(*ev)));
        hub.emit(|| SimEvent::DramComplete { id: 1, at_mem: 1 });
        assert!(hub.detach().is_some());
        hub.emit(|| SimEvent::DramComplete { id: 2, at_mem: 2 });
        assert_eq!(seen.borrow().len(), 1);
    }

    #[test]
    fn mem_req_accessors() {
        let req = MemReq {
            pc: 1,
            addr: 0x1018,
            pattern: PatternId(7),
            kind: ReqKind::Store(99),
        };
        assert_eq!(req.store_value(), Some(99));
        assert!(!req.is_wide());
        assert_eq!(req.word_index(64), 3);
        let load = MemReq {
            kind: ReqKind::LoadWide,
            ..req
        };
        assert_eq!(load.store_value(), None);
        assert!(load.is_wide());
    }
}
