//! The telemetry collector: an [`EventSink`] that keeps what only the
//! [`SimEvent`] stream can give.
//!
//! A [`Collector`] is a cheap shared handle (the machine owns one clone
//! inside its event hub, the caller keeps another to read results). It
//! feeds a [`Telemetry`], which keeps:
//!
//! * a bounded ring buffer of raw events (oldest dropped first, with a
//!   drop counter — telemetry never grows without bound);
//! * a bounded per-channel DRAM queue occupancy timeline.
//!
//! Counts and histograms (row outcomes, read latency, queue depth,
//! scheduler decisions) are not kept here: the run's own report holds
//! them, computed as the simulator retires each request.
//!
//! Collection is observation-only: the collector sees events *after*
//! all timing decisions are made, so an observed run simulates exactly
//! like an unobserved one.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use gsdram_core::port::{EventSink, SimEvent};

/// Default ring-buffer capacity (raw events and, per channel,
/// occupancy samples).
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// What one collector gathered. Plain data: `Clone + Send`, so sweep
/// workers can ship snapshots back to the parent thread.
#[derive(Debug, Clone)]
pub struct Telemetry {
    capacity: usize,
    /// Most recent raw events, oldest first.
    events: VecDeque<SimEvent>,
    /// Events pushed out of the ring.
    dropped: u64,
    /// Every event ever seen (kept + dropped).
    total_events: u64,
    /// Per-channel `(at_mem, depth)` occupancy samples, oldest dropped
    /// first past `capacity`.
    occupancy: Vec<VecDeque<(u64, u32)>>,
    /// Running queue depth per channel (from enqueue/complete events).
    depth_now: Vec<u32>,
    /// Channel of each in-flight request id (completions do not carry
    /// the channel).
    inflight: BTreeMap<u64, usize>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }
}

impl Telemetry {
    /// An empty telemetry store whose ring buffers keep at most
    /// `capacity` entries (0 keeps only the counts).
    pub fn with_capacity(capacity: usize) -> Self {
        Telemetry {
            capacity,
            events: VecDeque::new(),
            dropped: 0,
            total_events: 0,
            occupancy: Vec::new(),
            depth_now: Vec::new(),
            inflight: BTreeMap::new(),
        }
    }

    fn grow_channel(&mut self, ch: usize) {
        if ch >= self.occupancy.len() {
            self.occupancy.resize_with(ch + 1, VecDeque::new);
            self.depth_now.resize(ch + 1, 0);
        }
    }

    fn sample_occupancy(&mut self, ch: usize, at: u64) {
        let depth = self.depth_now[ch];
        let lane = &mut self.occupancy[ch];
        if self.capacity == 0 {
            return;
        }
        if lane.len() == self.capacity {
            lane.pop_front();
        }
        lane.push_back((at, depth));
    }

    /// Folds one event into the store.
    pub fn on_event(&mut self, ev: &SimEvent) {
        self.total_events += 1;
        if self.capacity > 0 {
            if self.events.len() == self.capacity {
                self.events.pop_front();
                self.dropped += 1;
            }
            self.events.push_back(*ev);
        } else {
            self.dropped += 1;
        }
        match *ev {
            SimEvent::DramEnqueue {
                id,
                channel,
                at_mem,
                ..
            } => {
                self.grow_channel(channel);
                self.depth_now[channel] += 1;
                self.inflight.insert(id, channel);
                self.sample_occupancy(channel, at_mem);
            }
            SimEvent::DramComplete { id, at_mem } => {
                if let Some(ch) = self.inflight.remove(&id) {
                    self.depth_now[ch] = self.depth_now[ch].saturating_sub(1);
                    self.sample_occupancy(ch, at_mem);
                }
            }
            SimEvent::DramService { channel, .. } => self.grow_channel(channel),
            // Retained in the ring only; their counts live in the run's
            // stats tree.
            SimEvent::DramCommand { .. }
            | SimEvent::GatherSplit { .. }
            | SimEvent::SchedDecision { .. }
            | SimEvent::CacheFill { .. }
            | SimEvent::CacheEvict { .. }
            | SimEvent::OverlapFlush { .. } => {}
        }
    }

    /// The retained raw events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &SimEvent> {
        self.events.iter()
    }

    /// Events pushed out of the ring buffer.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Every event ever seen (retained + dropped).
    pub fn total_events(&self) -> u64 {
        self.total_events
    }

    /// Channels any DRAM request event has touched.
    pub fn channels(&self) -> usize {
        self.occupancy.len()
    }

    /// `(at_mem, depth)` occupancy samples of channel `ch`, oldest
    /// first (a bounded window of the most recent samples).
    pub fn occupancy(&self, ch: usize) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.occupancy.get(ch).into_iter().flatten().copied()
    }
}

/// A shared handle to a [`Telemetry`] store that can hand out
/// [`EventSink`] boxes for `Machine::attach_observer`.
///
/// `attach_observer` takes ownership of its sink, so the collector
/// clones an inner `Rc` into the sink closure and keeps another clone
/// for the caller to read results from ([`Collector::snapshot`]).
#[derive(Debug, Clone, Default)]
pub struct Collector {
    inner: Rc<RefCell<Telemetry>>,
}

impl Collector {
    /// A collector with the default ring capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// A collector whose ring buffers keep at most `capacity` entries.
    pub fn with_capacity(capacity: usize) -> Self {
        Collector {
            inner: Rc::new(RefCell::new(Telemetry::with_capacity(capacity))),
        }
    }

    /// A boxed sink feeding this collector — pass to
    /// `Machine::attach_observer` (or any `EventHub::attach`).
    pub fn sink(&self) -> Box<dyn EventSink> {
        let inner = Rc::clone(&self.inner);
        Box::new(move |ev: &SimEvent| inner.borrow_mut().on_event(ev))
    }

    /// A copy of everything collected so far.
    pub fn snapshot(&self) -> Telemetry {
        self.inner.borrow().clone()
    }

    /// Consumes the handle, returning the collected telemetry without
    /// copying when this was the last handle (falls back to a clone if
    /// a sink is still alive).
    pub fn into_telemetry(self) -> Telemetry {
        match Rc::try_unwrap(self.inner) {
            Ok(cell) => cell.into_inner(),
            Err(rc) => rc.borrow().clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsdram_core::port::{EventHub, RowOutcome};
    use gsdram_core::PatternId;

    fn service(id: u64, ch: usize, bank: usize, outcome: RowOutcome, lat: u64) -> SimEvent {
        SimEvent::DramService {
            id,
            channel: ch,
            bank,
            pattern: PatternId(7),
            write: false,
            outcome,
            queue_depth: 3,
            arrived_at_mem: 1000,
            done_at_mem: 1000 + lat,
        }
    }

    #[test]
    fn ring_buffer_is_bounded_and_counts_drops() {
        let mut t = Telemetry::with_capacity(4);
        for id in 0..10 {
            t.on_event(&SimEvent::DramComplete { id, at_mem: id });
        }
        assert_eq!(t.events().count(), 4);
        assert_eq!(t.dropped(), 6);
        assert_eq!(t.total_events(), 10);
        // The retained window is the most recent events.
        let first = t.events().next().unwrap();
        assert_eq!(*first, SimEvent::DramComplete { id: 6, at_mem: 6 });
    }

    #[test]
    fn service_events_are_retained_and_name_their_channel() {
        let c = Collector::with_capacity(128);
        let mut hub = EventHub::new();
        hub.attach(c.sink());
        hub.emit(|| service(1, 0, 2, RowOutcome::Closed, 30));
        hub.emit(|| service(2, 0, 2, RowOutcome::Hit, 10));
        hub.emit(|| service(5, 1, 0, RowOutcome::Hit, 12));
        let t = c.snapshot();
        assert_eq!(t.channels(), 2);
        assert_eq!(t.total_events(), 3);
        assert_eq!(
            *t.events().last().unwrap(),
            service(5, 1, 0, RowOutcome::Hit, 12)
        );
        // Service alone samples no occupancy: only enqueue/complete
        // move the queue.
        assert_eq!(t.occupancy(1).count(), 0);
    }

    #[test]
    fn occupancy_timeline_tracks_enqueue_and_complete() {
        let mut t = Telemetry::with_capacity(16);
        for id in 0..3u64 {
            t.on_event(&SimEvent::DramEnqueue {
                id,
                channel: 0,
                addr: 0,
                pattern: PatternId(0),
                write: false,
                at_mem: 10 + id,
            });
        }
        t.on_event(&SimEvent::DramComplete { id: 0, at_mem: 50 });
        let samples: Vec<(u64, u32)> = t.occupancy(0).collect();
        assert_eq!(samples.len(), 4);
        assert_eq!(samples[2], (12, 3));
        assert_eq!(samples[3], (50, 2));
    }

    #[test]
    fn zero_capacity_keeps_counts_only() {
        let mut t = Telemetry::with_capacity(0);
        t.on_event(&SimEvent::GatherSplit {
            addr: 0,
            pattern: PatternId(7),
            subs: 8,
            at_mem: 5,
        });
        t.on_event(&SimEvent::DramEnqueue {
            id: 0,
            channel: 2,
            addr: 0,
            pattern: PatternId(0),
            write: false,
            at_mem: 6,
        });
        assert_eq!(t.total_events(), 2);
        assert_eq!(t.dropped(), 2);
        assert_eq!(t.events().count(), 0);
        assert_eq!(t.channels(), 3);
        assert_eq!(t.occupancy(2).count(), 0);
    }
}
