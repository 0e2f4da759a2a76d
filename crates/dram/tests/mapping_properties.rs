//! Property tests for the XOR-matrix address-map pipeline: every
//! configuration of interleave × channel count × rank count × stage
//! preset must be a bijection between line addresses and DRAM
//! coordinates, with `compose` the exact inverse of `decompose` —
//! and a controller pair fed through a 2-channel map must observe
//! identical state whether time is leapt or stepped.
//!
//! Small line spaces are checked exhaustively; a large sparse space is
//! checked with a deterministic PRNG ([`gsdram_core::rng::SplitMix`])
//! so the workspace stays dependency-free and failures reproduce
//! bit-for-bit.

use std::collections::BTreeSet;

use gsdram_core::port::EventHub;
use gsdram_core::rng::SplitMix;
use gsdram_core::PatternId;
use gsdram_core::{ColumnId, RowId};
use gsdram_dram::controller::{AccessKind, ControllerConfig, MemController, MemRequest};
use gsdram_dram::mapping::{AddressMap, DramLocation, Interleave, MapHash, XorStage};

/// One swept geometry: the arguments of [`AddressMap::with_shape`] and
/// the preset applied with [`AddressMap::with_hash`].
#[derive(Debug, Clone, Copy)]
struct Shape {
    line_bytes: u64,
    cols: u64,
    banks: u64,
    ranks: u64,
    channels: u64,
    interleave: Interleave,
    hash: MapHash,
}

impl Shape {
    fn map(&self) -> AddressMap {
        AddressMap::with_shape(
            self.line_bytes,
            self.cols,
            self.banks,
            self.ranks,
            self.channels,
            self.interleave,
        )
        .with_hash(self.hash)
    }
}

/// The geometry sweep: channels × ranks ∈ {1,2,4} each, both
/// interleaves, every XOR-stage preset, over a deliberately small
/// geometry (16 lines per row, 8 banks, so exhaustive sweeps stay
/// instant).
fn all_shapes() -> Vec<Shape> {
    let mut v = Vec::new();
    for interleave in [Interleave::ColumnFirst, Interleave::BankFirst] {
        for channels in [1u64, 2, 4] {
            for ranks in [1u64, 2, 4] {
                for (hash, _, _) in MapHash::VARIANTS {
                    v.push(Shape {
                        line_bytes: 64,
                        cols: 16,
                        banks: 8,
                        ranks,
                        channels,
                        interleave,
                        hash,
                    });
                }
            }
        }
    }
    v
}

fn all_maps() -> Vec<AddressMap> {
    all_shapes().iter().map(Shape::map).collect()
}

/// The address map as a chain of divisions and remainders — the form
/// it takes for any coordinate counts — followed by the preset XOR
/// stages, each keyed on the raw row: an independent reference for
/// the shift-and-mask path.
fn reference_decompose(s: &Shape, addr: u64) -> DramLocation {
    let line = addr / s.line_bytes;
    let (channel, rank, bank, row, col) = match s.interleave {
        Interleave::ColumnFirst => {
            let rest = line / s.cols;
            let rest2 = rest / s.channels;
            let rest3 = rest2 / s.banks;
            (
                rest % s.channels,
                rest3 % s.ranks,
                rest2 % s.banks,
                rest3 / s.ranks,
                line % s.cols,
            )
        }
        Interleave::BankFirst => {
            let rest = line / s.banks;
            let rest2 = rest / s.ranks;
            let rest3 = rest2 / s.channels;
            (
                rest2 % s.channels,
                rest % s.ranks,
                line % s.banks,
                rest3 / s.cols,
                rest3 % s.cols,
            )
        }
    };
    let log2 = |n: u64| n.trailing_zeros();
    let (bank_bits, rank_bits, channel_bits) = (log2(s.banks), log2(s.ranks), log2(s.channels));
    let (hash_bank, hash_rank, hash_channel) = match s.hash {
        MapHash::Direct => (false, false, false),
        MapHash::XorBank => (true, false, false),
        MapHash::XorRank => (false, true, false),
        MapHash::XorChannel => (false, false, true),
        MapHash::XorAll => (true, true, true),
    };
    let stage = |on: bool, bits: u32, shift: u32, index: u64| {
        if on {
            XorStage::shifted(bits, shift).apply(index, row)
        } else {
            index
        }
    };
    DramLocation {
        channel: stage(hash_channel, channel_bits, bank_bits + rank_bits, channel) as usize,
        rank: stage(hash_rank, rank_bits, bank_bits, rank) as usize,
        bank: stage(hash_bank, bank_bits, 0, bank) as usize,
        row: RowId(row as u32),
        col: ColumnId(col as u32),
    }
}

/// The shift-and-mask map equals the division reference on every
/// swept shape (plus Table 1-sized rows and 128-byte lines), both ways:
/// `decompose` gives the reference coordinates and `compose` inverts
/// them.
#[test]
fn shift_path_matches_the_division_reference() {
    let mut shapes = all_shapes();
    for s in all_shapes().iter().filter(|s| s.ranks < 4) {
        shapes.push(Shape { cols: 128, ..*s });
        shapes.push(Shape {
            line_bytes: 128,
            cols: 64,
            banks: 16,
            ..*s
        });
    }
    let mut rng = SplitMix(0xD1_71DE);
    for s in &shapes {
        let map = s.map();
        let exhaustive = (0..8192u64).map(|line| line * s.line_bytes + line % s.line_bytes);
        let sparse = (0..2048).map(|_| rng.next_u64() % (1 << 37));
        for addr in exhaustive.chain(sparse) {
            let want = reference_decompose(s, addr);
            assert_eq!(map.decompose(addr), want, "{s:?} at {addr:#x}");
            assert_eq!(
                map.compose(want),
                addr / s.line_bytes * s.line_bytes,
                "{s:?}"
            );
        }
    }
}

fn describe(map: &AddressMap) -> String {
    format!("{map:?}")
}

/// decompose∘compose is the identity over an exhaustive window of line
/// addresses, and the resulting coordinates never collide — the map is
/// a bijection line ↔ (channel, rank, bank, row, col) for every
/// channels × ranks × stage combination.
#[test]
fn exhaustive_round_trip_and_bijectivity() {
    // 16 cols × 8 banks × 4 ranks × 4 channels × 4 rows = 8192 lines
    // covers several full rows of the largest shape.
    const LINES: u64 = 8192;
    for map in all_maps() {
        let mut seen = BTreeSet::new();
        for line in 0..LINES {
            let addr = line * map.line_bytes();
            let loc = map.decompose(addr);
            assert_eq!(
                map.compose(loc),
                addr,
                "{}: compose∘decompose at line {line}",
                describe(&map)
            );
            assert!(
                seen.insert((loc.channel, loc.rank, loc.bank, loc.row.0, loc.col.0)),
                "{}: line {line} collides at {loc:?}",
                describe(&map)
            );
        }
        assert_eq!(seen.len() as u64, LINES);
    }
}

/// Interior byte addresses decompose to the same location as the
/// line's first byte, and composing returns that first byte.
#[test]
fn interior_bytes_round_trip_to_line_base() {
    for map in all_maps() {
        for line in [0u64, 1, 17, 255, 1023] {
            let base = line * map.line_bytes();
            for off in [1u64, 7, 63] {
                let loc = map.decompose(base + off);
                assert_eq!(loc, map.decompose(base), "{}", describe(&map));
                assert_eq!(map.compose(loc), base, "{}", describe(&map));
            }
        }
    }
}

/// Each preset stage only permutes its own coordinate: every other
/// coordinate is identical to the direct map's.
#[test]
fn each_stage_permutes_only_its_coordinate() {
    for interleave in [Interleave::ColumnFirst, Interleave::BankFirst] {
        let direct = AddressMap::with_shape(64, 16, 8, 4, 4, interleave);
        for line in 0..16384u64 {
            let addr = line * 64;
            let d = direct.decompose(addr);
            let b = direct.with_hash(MapHash::XorBank).decompose(addr);
            assert_eq!(
                (d.channel, d.rank, d.row, d.col),
                (b.channel, b.rank, b.row, b.col)
            );
            let r = direct.with_hash(MapHash::XorRank).decompose(addr);
            assert_eq!(
                (d.channel, d.bank, d.row, d.col),
                (r.channel, r.bank, r.row, r.col)
            );
            let c = direct.with_hash(MapHash::XorChannel).decompose(addr);
            assert_eq!(
                (d.rank, d.bank, d.row, d.col),
                (c.rank, c.bank, c.row, c.col)
            );
        }
    }
}

/// The bank stage is a per-row permutation: keys that saw every bank
/// under the direct map still see every bank hashed — never a
/// collision, never a partial set.
#[test]
fn xor_stage_is_a_per_row_bank_permutation() {
    for interleave in [Interleave::ColumnFirst, Interleave::BankFirst] {
        for ranks in [1u64, 2] {
            let direct = AddressMap::with_ranks(64, 16, 8, ranks, interleave);
            let hashed = direct.with_hash(MapHash::XorBank);
            let mut banks_by_key: std::collections::BTreeMap<_, BTreeSet<usize>> =
                Default::default();
            for line in 0..4096u64 {
                let addr = line * 64;
                let d = direct.decompose(addr);
                let h = hashed.decompose(addr);
                assert_eq!((d.rank, d.row, d.col), (h.rank, h.row, h.col));
                banks_by_key
                    .entry((h.rank, h.row.0, h.col.0))
                    .or_default()
                    .insert(h.bank);
            }
            // Keys that saw every bank under the direct map must still
            // see every bank hashed — a permutation, never a collision.
            for ((rank, row, col), banks) in banks_by_key {
                assert!(
                    banks.len() == 8 || banks.len() == 1,
                    "(r{rank} row{row} col{col}): partial bank set {banks:?}"
                );
            }
        }
    }
}

/// Arbitrary mask matrices — including the Sudoku-style fold that
/// reads every key bit — keep the map bijective: any XOR stage is an
/// involution on its coordinate, so `with_stages` never needs to
/// vet the matrices beyond the power-of-two counts.
#[test]
fn custom_stage_matrices_stay_bijective() {
    let stages = [
        XorStage::fold(3),
        XorStage::from_masks(3, &[0b1011, 0b100, 0b11_0001]),
        XorStage::shifted(3, 7),
    ];
    for bank_stage in stages {
        for channel_stage in [XorStage::identity(0), XorStage::fold(1)] {
            let map = AddressMap::with_shape(64, 16, 8, 2, 2, Interleave::ColumnFirst).with_stages(
                channel_stage,
                XorStage::fold(1),
                bank_stage,
            );
            let mut seen = BTreeSet::new();
            for line in 0..4096u64 {
                let addr = line * 64;
                let loc = map.decompose(addr);
                assert_eq!(map.compose(loc), addr, "{}", describe(&map));
                assert!(seen.insert((loc.channel, loc.rank, loc.bank, loc.row.0, loc.col.0)));
            }
        }
    }
}

/// Randomised round-trip over a large, sparse line space (beyond the
/// exhaustive window, including u32-row-sized addresses).
#[test]
fn randomized_round_trip_over_large_space() {
    let mut rng = SplitMix(0xD15EA5E);
    for map in all_maps() {
        for _ in 0..2048 {
            // Up to ~2^31 lines: rows stay within RowId's u32 space
            // for every shape above.
            let line = rng.next_u64() % (1 << 31);
            let addr = line * map.line_bytes();
            assert_eq!(
                map.compose(map.decompose(addr)),
                addr,
                "{}: line {line}",
                describe(&map)
            );
        }
    }
}

/// Table 1's map (the default machine) must stay direct-mapped: the
/// hash stages are opt-in, so frozen figure output cannot shift.
#[test]
fn table1_has_no_hash_stage() {
    let t = AddressMap::table1();
    assert_eq!(t, t.with_hash(MapHash::Direct));
    for line in 0..1024u64 {
        let addr = line * t.line_bytes();
        assert_eq!(t.compose(t.decompose(addr)), addr);
    }
}

/// A single-channel map decomposes identically to the pre-channel
/// mapping: adding the channel coordinate cannot move a byte of any
/// frozen single-channel figure.
#[test]
fn single_channel_shape_matches_legacy_map() {
    for interleave in [Interleave::ColumnFirst, Interleave::BankFirst] {
        for ranks in [1u64, 2, 4] {
            let wide = AddressMap::with_shape(64, 128, 8, ranks, 1, interleave);
            let legacy = AddressMap::with_ranks(64, 128, 8, ranks, interleave);
            let mut rng = SplitMix(0xC0FFEE);
            for _ in 0..2048 {
                let addr = (rng.next_u64() % (1 << 31)) * 64;
                let a = wide.decompose(addr);
                let b = legacy.decompose(addr);
                assert_eq!(a.channel, 0);
                assert_eq!(
                    (a.rank, a.bank, a.row, a.col),
                    (b.rank, b.bank, b.row, b.col)
                );
            }
        }
    }
}

type Observed = (Vec<(u64, u64)>, String, u64);

/// Runs a seeded request stream through a 2-channel controller pair —
/// requests scattered by a 2-channel map — advancing both controllers
/// through `observe`, either leaping straight to each observation
/// point or stepping through every intermediate next-event horizon.
fn run_pair(step_through_events: bool, reqs: &[(u64, bool, u64)], observe: &[u64]) -> Observed {
    let map = AddressMap::with_shape(64, 128, 8, 1, 2, Interleave::ColumnFirst)
        .with_hash(MapHash::XorBank);
    let mut ctls: Vec<MemController> = (0..2)
        .map(|ch| {
            let mut c = MemController::new(ControllerConfig::default());
            c.set_channel(ch);
            c
        })
        .collect();
    let mut events = EventHub::new();
    let mut done = Vec::new();
    let mut next = 0usize;
    for &t in observe {
        while next < reqs.len() && reqs[next].2 <= t {
            let (addr, is_write, at) = reqs[next];
            let loc = map.decompose(addr);
            ctls[loc.channel].enqueue(
                MemRequest {
                    id: next as u64,
                    loc,
                    pattern: PatternId((addr % 8) as u8),
                    kind: if is_write {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    },
                },
                at,
            );
            next += 1;
        }
        for c in ctls.iter_mut() {
            if step_through_events {
                // Walk one next-event horizon at a time.
                while let Some(e) = c.next_event() {
                    if e >= t {
                        break;
                    }
                    c.advance_observed(e, &mut events);
                }
            }
            c.advance_observed(t, &mut events);
            c.take_completions_into(t, &mut done);
        }
    }
    let stats = format!("{:?} {:?}", ctls[0].stats(), ctls[1].stats());
    (
        done.iter().map(|c| (c.id, c.at)).collect(),
        stats,
        ctls[0].now().max(ctls[1].now()),
    )
}

/// Randomized leap ≡ step differential for a 2-channel controller
/// pair: landing directly on each observation point must observe the
/// same completions, statistics and clocks as stepping through every
/// intermediate next-event horizon on both channels.
#[test]
fn two_channel_pair_leap_equals_step() {
    let mut rng = SplitMix(0x5EED_2CE1);
    for case in 0..16 {
        let n = rng.range(10, 120) as usize;
        let mut arrival = 0u64;
        let reqs: Vec<(u64, bool, u64)> = (0..n)
            .map(|_| {
                arrival += rng.below(200);
                (rng.next_u64() % (1 << 26), rng.flip(), arrival)
            })
            .collect();
        let mut observe: Vec<u64> = (0..rng.range(4, 24))
            .map(|_| rng.below(arrival + 20_000))
            .collect();
        observe.sort_unstable();
        observe.push(arrival + 100_000);
        let leap = run_pair(false, &reqs, &observe);
        let step = run_pair(true, &reqs, &observe);
        assert_eq!(leap, step, "case {case}: leap and step worlds diverged");
    }
}
