//! Pass 3 of the traced run: the traffic recorded in pass 2, replayed
//! into each lower layer's public API on its own, so each layer's host
//! cost is measured apart from the rest of the machine.
//!
//! A replay exercises the same code the machine runs for that layer
//! but not the glue around it, so it estimates the layer's share of a
//! run rather than reproducing it exactly; each replay also reports how
//! closely it reproduced the machine (`*_match`).

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use gsdram_cache::cache::{LineKey, SetAssocCache};
use gsdram_cache::overlap::OverlapCalc;
use gsdram_core::{Geometry, GsModule, PatternId, RowId};
use gsdram_dram::controller::{AccessKind, Completion, MemController, MemRequest};
use gsdram_dram::mapping::{AddressMap, Interleave};
use gsdram_system::config::SystemConfig;

/// Columns (cache lines) per DRAM row, as the machine's bridge uses.
const COLS_PER_ROW: u64 = 128;

/// One memory operation a core issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Issuing core.
    pub core: u8,
    /// Whether it was a store.
    pub store: bool,
    /// The line touched.
    pub key: LineKey,
}

/// One sub-request the bridge handed a memory controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Enqueue {
    /// Controller-level request id.
    pub id: u64,
    /// Channel it was routed to.
    pub channel: usize,
    /// Line address.
    pub addr: u64,
    /// Pattern on the column command.
    pub pattern: PatternId,
    /// Writeback rather than fetch.
    pub write: bool,
    /// Arrival, memory cycles.
    pub at: u64,
    /// Whether the line's page is shuffled (the module datapath needs it).
    pub shuffled: bool,
}

/// Host seconds a replay took, and how many of its outcomes matched
/// the machine's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Replay {
    /// Host seconds of the replay loop alone.
    pub secs: f64,
    /// Outcomes that matched the recorded run.
    pub matched: u64,
}

/// Replays the access stream through fresh L1s and an L2 with the
/// machine's demand-path probe/fill order: L1 probe, then L2 probe,
/// then a remote L1, then a fill from memory into L2 and L1; a store
/// that missed probes its new L1 line once more, and a store
/// invalidates other cores' copies. Prefetches and coherence
/// invalidations are not replayed. `matched` counts replay L1 hits.
pub fn cache(cfg: &SystemConfig, accesses: &[Access]) -> Replay {
    let mut l1: Vec<SetAssocCache> = (0..cfg.cores).map(|_| SetAssocCache::new(cfg.l1)).collect();
    let mut l2 = SetAssocCache::new(cfg.l2);
    let line = vec![0u64; cfg.l1.words_per_line()];
    let start = Instant::now();
    for a in accesses {
        let core = usize::from(a.core);
        let key = a.key;
        if !l1[core].probe(key, a.store) {
            if !l2.probe(key, false) && !l1.iter().any(|c| c.contains(key)) {
                l2.fill_from(key, &line);
            }
            if let Some(victim) = l1[core].fill_from(key, &line) {
                if victim.dirty && l2.data_mut(victim.key).is_none() {
                    l2.fill_from(victim.key, &victim.data);
                    l2.data_mut(victim.key);
                }
            }
            if a.store {
                l1[core].probe(key, true);
            }
        }
        if a.store {
            for (c, other) in l1.iter_mut().enumerate() {
                if c != core {
                    other.invalidate(key);
                }
            }
        }
    }
    let secs = start.elapsed().as_secs_f64();
    Replay {
        secs,
        matched: l1.iter().map(|c| c.stats().hits).sum(),
    }
}

/// The machine's physical-address map for `cfg`, built the way its
/// DRAM bridge builds it.
fn address_map(cfg: &SystemConfig) -> AddressMap {
    AddressMap::with_shape(
        cfg.l2.line_bytes as u64,
        COLS_PER_ROW,
        cfg.controller.banks as u64,
        cfg.controller.ranks as u64,
        cfg.channels.max(1) as u64,
        Interleave::ColumnFirst,
    )
    .with_hash(cfg.mapping)
}

/// Feeds the recorded enqueues into fresh memory controllers, one per
/// channel. Before each enqueue a controller advances only to the
/// earliest arrival still to come on its channel, so it never runs
/// past a request the machine had already handed it; an arrival
/// earlier than the controller's clock is clamped to it. `matched`
/// counts `completed` entries `(id, cycle)` the replay reproduced.
pub fn dram(cfg: &SystemConfig, enqueues: &[Enqueue], completed: &[(u64, u64)]) -> Replay {
    let map = address_map(cfg);
    let mut ctrls: Vec<MemController> = (0..cfg.channels.max(1))
        .map(|ch| {
            let mut c = MemController::new(cfg.controller.clone());
            c.set_channel(ch);
            c
        })
        .collect();
    let mut advance_to = vec![0u64; enqueues.len()];
    let mut earliest = vec![u64::MAX; ctrls.len()];
    for (e, slot) in enqueues.iter().zip(advance_to.iter_mut()).rev() {
        earliest[e.channel] = earliest[e.channel].min(e.at);
        *slot = earliest[e.channel];
    }
    let mut done: Vec<Completion> = Vec::with_capacity(enqueues.len());

    let start = Instant::now();
    for (e, &to) in enqueues.iter().zip(&advance_to) {
        let c = &mut ctrls[e.channel];
        if to > c.now() {
            c.advance(to);
            c.take_completions_into(u64::MAX, &mut done);
        }
        let req = MemRequest {
            id: e.id,
            loc: map.decompose(e.addr),
            pattern: e.pattern,
            kind: if e.write {
                AccessKind::Write
            } else {
                AccessKind::Read
            },
        };
        let at = e.at.max(c.now());
        c.enqueue(req, at);
    }
    for c in &mut ctrls {
        c.drain();
        c.take_completions_into(u64::MAX, &mut done);
    }
    let secs = start.elapsed().as_secs_f64();

    let replayed: HashMap<u64, u64> = done.iter().map(|c| (c.id, c.at)).collect();
    let matched = completed
        .iter()
        .filter(|(id, at)| replayed.get(id) == Some(at))
        .count() as u64;
    Replay { secs, matched }
}

/// Moves every enqueued line through a fresh GS-DRAM module the way
/// the bridge does: word addresses from the overlap calculator, then
/// one element read (fetch) or write (writeback) per word. Returns
/// the host seconds of the loop.
pub fn module(cfg: &SystemConfig, enqueues: &[Enqueue]) -> f64 {
    let line_bytes = cfg.l2.line_bytes as u64;
    let rows = cfg.memory_bytes / (line_bytes * COLS_PER_ROW) as usize;
    let geom = Geometry::ddr3_row(&cfg.gsdram, rows.max(1)).expect("machine geometry is valid");
    let mut module = GsModule::new(cfg.gsdram.clone(), geom);
    let mut overlap = OverlapCalc::new(cfg.gsdram.clone(), line_bytes, COLS_PER_ROW);
    let row_bytes = overlap.row_bytes();
    let chips = cfg.gsdram.chips();
    let mut addrs = Vec::new();
    let mut fold = 0u64;

    let start = Instant::now();
    for e in enqueues {
        let key = LineKey {
            addr: e.addr,
            pattern: e.pattern,
        };
        overlap.word_addresses_into(key, e.shuffled, &mut addrs);
        for &a in &addrs {
            let row = RowId((a / row_bytes) as u32);
            let off = a % row_bytes;
            let element = (off / line_bytes) as usize * chips + ((off % line_bytes) / 8) as usize;
            if e.write {
                module
                    .write_element(row, element, e.shuffled, a)
                    .expect("recorded line lies in modelled memory");
            } else {
                fold ^= module
                    .read_element(row, element, e.shuffled)
                    .expect("recorded line lies in modelled memory");
            }
        }
    }
    let secs = start.elapsed().as_secs_f64();
    black_box(fold);
    secs
}
