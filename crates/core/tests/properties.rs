//! Property-style tests for the GS-DRAM core invariants (DESIGN.md §7).
//!
//! The workspace builds without external crates, so instead of
//! `proptest` these run each property over a deterministic
//! pseudo-random case stream ([`gsdram_core::rng::SplitMix`]) — same
//! coverage breadth, bit-reproducible failures.

use gsdram_core::analysis::{chip_conflicts, MappingScheme};
use gsdram_core::ecc::{decode, encode, Decode};
use gsdram_core::rng::SplitMix;
use gsdram_core::shuffle::{shuffle_line, ShuffleFn};
use gsdram_core::{
    gather_slots, gathered_elements, ColumnId, Geometry, GsDramConfig, GsModule, PatternId, RowId,
};

const CASES: usize = 200;

/// The valid `GS-DRAM(c,s,p)` configurations we care about.
fn configs() -> Vec<GsDramConfig> {
    vec![
        GsDramConfig::gs_dram_4_2_2(),
        GsDramConfig::gs_dram_8_3_3(),
        GsDramConfig::new(16, 4, 4).unwrap(),
        GsDramConfig::new(8, 2, 3).unwrap(),
        GsDramConfig::new(8, 3, 6).unwrap(), // §6.2 wide pattern IDs
    ]
}

fn pick_config(rng: &mut SplitMix) -> GsDramConfig {
    let all = configs();
    let i = rng.below(all.len() as u64) as usize;
    all[i].clone()
}

/// The shuffle network is an involution for every control input, and a
/// permutation (never loses or duplicates words).
#[test]
fn shuffle_is_an_involutive_permutation() {
    let mut rng = SplitMix(0x5701);
    for _ in 0..CASES {
        let line = rng.words(8);
        let control = rng.below(8) as u8;
        let mut work = line.clone();
        shuffle_line(&mut work, 3, control);
        let mut sorted_shuffled = work.clone();
        shuffle_line(&mut work, 3, control);
        assert_eq!(work, line, "involution under control {control}");
        let mut sorted_orig = line.clone();
        sorted_shuffled.sort_unstable();
        sorted_orig.sort_unstable();
        assert_eq!(
            sorted_shuffled, sorted_orig,
            "permutation under control {control}"
        );
    }
}

/// Every gather reads each chip exactly once — the property that lets a
/// single READ command fetch the whole pattern (paper §3).
#[test]
fn gather_touches_each_chip_once() {
    let mut rng = SplitMix(0x5702);
    for _ in 0..CASES {
        let cfg = pick_config(&mut rng);
        let pattern = PatternId(rng.below(256) as u8 & cfg.max_pattern());
        let col = ColumnId(rng.below(128) as u32);
        let slots = gather_slots(&cfg, pattern, col, true);
        let mut chips: Vec<u8> = slots.iter().map(|s| s.chip).collect();
        chips.sort_unstable();
        assert_eq!(chips, (0..cfg.chips() as u8).collect::<Vec<u8>>());
    }
}

/// Gathered elements are distinct and in strictly ascending assembly
/// order.
#[test]
fn gathered_elements_strictly_ascend() {
    let mut rng = SplitMix(0x5703);
    for _ in 0..CASES {
        let cfg = pick_config(&mut rng);
        let pattern = PatternId(rng.below(256) as u8 & cfg.max_pattern());
        let col = ColumnId(rng.below(128) as u32);
        let e = gathered_elements(&cfg, pattern, col, true);
        assert!(e.windows(2).all(|w| w[0] < w[1]), "{e:?}");
    }
}

/// Pattern `2^k − 1` gathers exactly the aligned stride-`2^k` group
/// containing the issued column's elements, with zero chip conflicts.
/// Requires `k ≤ shuffle_stages` — §3.5: the stage count (with the
/// pattern width) determines which patterns gather efficiently.
#[test]
fn stride_patterns_gather_strides() {
    let mut rng = SplitMix(0x5704);
    for _ in 0..CASES {
        let cfg = pick_config(&mut rng);
        let k = rng.below(4) as u32;
        let col = ColumnId(rng.below(16) as u32);
        if k > cfg.pattern_bits() as u32
            || k > cfg.shuffle_stages() as u32
            || (1u32 << k) > cfg.chips() as u32 * 16
        {
            continue;
        }
        let stride = 1usize << k;
        let pattern = PatternId((stride - 1) as u8);
        let e = gathered_elements(&cfg, pattern, col, true);
        let gaps: Vec<usize> = e.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(
            gaps.iter().all(|&g| g == stride),
            "stride {stride} gaps {gaps:?}"
        );
        assert_eq!(chip_conflicts(&cfg, MappingScheme::Shuffled, &e), 0);
    }
}

/// Scatter followed by gather with the same (pattern, col) returns the
/// written line bit-for-bit, and leaves all other elements of the row
/// untouched.
/// The line-major module's one-command gather and scatter agree with the
/// element oracle (`gathered_elements` + `read_element`/`write_element`)
/// for every pattern, column and shuffle flag, and a scatter touches
/// nothing but its gathered elements.
#[test]
fn line_path_matches_element_oracle() {
    let cases = [
        GsDramConfig::gs_dram_4_2_2(),
        GsDramConfig::gs_dram_8_3_3(),
        GsDramConfig::new(8, 3, 6).unwrap(), // §6.2 wide pattern IDs
    ];
    for cfg in cases {
        let geom = Geometry::new(&cfg, 2, 16.max(1 << cfg.pattern_bits())).unwrap();
        let elements = geom.cols_per_row() * cfg.chips();
        let background = |row: u32, e: usize| (u64::from(row) << 32) | e as u64;
        for shuffled in [false, true] {
            let mut m = GsModule::new(cfg.clone(), geom);
            let fill = |m: &mut GsModule| {
                for row in 0..2 {
                    for e in 0..elements {
                        m.write_element(RowId(row), e, shuffled, background(row, e))
                            .unwrap();
                    }
                }
            };
            fill(&mut m);
            let mut out = vec![u64::MAX; 3]; // stale contents must be cleared
            for pattern in cfg.patterns() {
                for col in 0..geom.cols_per_row() as u32 {
                    let (row, col) = (RowId(1), ColumnId(col));
                    let elems = gathered_elements(&cfg, pattern, col, shuffled);
                    let want: Vec<u64> = elems
                        .iter()
                        .map(|&e| m.read_element(row, e, shuffled).unwrap())
                        .collect();
                    m.read_line_into(row, col, pattern, shuffled, &mut out)
                        .unwrap();
                    let ctx = format!(
                        "{cfg:?} pattern {} col {} shuffled {shuffled}",
                        pattern.0, col.0
                    );
                    assert_eq!(out, want, "gather: {ctx}");

                    let line: Vec<u64> = (0..cfg.chips() as u64).map(|k| 0xF000 + k).collect();
                    m.write_line(row, col, pattern, shuffled, &line).unwrap();
                    for r in 0..2 {
                        for e in 0..elements {
                            let got = m.read_element(RowId(r), e, shuffled).unwrap();
                            let want = match elems.iter().position(|&g| g == e) {
                                Some(k) if r == row.0 => line[k],
                                _ => background(r, e),
                            };
                            assert_eq!(got, want, "scatter: {ctx}, row {r} element {e}");
                        }
                    }
                    fill(&mut m);
                }
            }
        }
    }
}

#[test]
fn scatter_gather_round_trip() {
    let mut rng = SplitMix(0x5705);
    for _ in 0..CASES {
        let cfg = pick_config(&mut rng);
        let pattern = PatternId(rng.below(256) as u8 & cfg.max_pattern());
        let col = ColumnId(rng.below(16) as u32);
        let row = RowId(rng.below(2) as u32);
        let shuffled = rng.flip();
        let line16 = rng.words(16);
        let geom = Geometry::new(&cfg, 2, 16.max(1 << cfg.pattern_bits())).unwrap();
        let mut m = GsModule::new(cfg.clone(), geom);
        // Background fill so we can detect stray writes.
        for e in 0..geom.cols_per_row() * cfg.chips() {
            m.write_element(row, e, shuffled, 0xAAAA_0000 + e as u64)
                .unwrap();
        }
        let line = &line16[..cfg.chips()];
        m.write_line(row, col, pattern, shuffled, line).unwrap();
        let back = m.read_line(row, col, pattern, shuffled).unwrap();
        assert_eq!(&back, line);
        // Untouched elements keep the background value.
        let touched = gathered_elements(&cfg, pattern, col, shuffled);
        for e in 0..geom.cols_per_row() * cfg.chips() {
            if !touched.contains(&e) {
                assert_eq!(
                    m.read_element(row, e, shuffled).unwrap(),
                    0xAAAA_0000 + e as u64,
                    "element {e} was clobbered"
                );
            }
        }
    }
}

/// Two gathers of *different* columns under the *same* pattern never
/// overlap (they partition the row) — the property that keeps
/// same-pattern cache lines disjoint (§4.1).
#[test]
fn same_pattern_gathers_are_disjoint() {
    let mut rng = SplitMix(0x5706);
    for _ in 0..CASES {
        let cfg = pick_config(&mut rng);
        let pattern = PatternId(rng.below(256) as u8 & cfg.max_pattern());
        let c1 = rng.below(16) as u32;
        let c2 = rng.below(16) as u32;
        if c1 == c2 {
            continue;
        }
        let a = gathered_elements(&cfg, pattern, ColumnId(c1), true);
        let b = gathered_elements(&cfg, pattern, ColumnId(c2), true);
        assert!(a.iter().all(|e| !b.contains(e)));
    }
}

/// §6.1 programmable shuffling: the XOR-fold variant (like the default)
/// gathers every power-of-two stride conflict-free — the fold only
/// changes *which* word each chip holds, uniformly per column.
#[test]
fn xor_fold_shuffle_still_gathers_strides() {
    let mut rng = SplitMix(0x5707);
    for _ in 0..CASES {
        let k = rng.below(4) as u32;
        let col = ColumnId(rng.below(64) as u32);
        let groups = rng.range(1, 4) as u8;
        let cfg = GsDramConfig::with_shuffle_fn(8, 3, 3, ShuffleFn::XorFold { groups }).unwrap();
        let stride = 1usize << k;
        let pattern = PatternId((stride - 1) as u8);
        let e = gathered_elements(&cfg, pattern, col, true);
        let gaps: Vec<usize> = e.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(
            gaps.iter().all(|&g| g == stride),
            "stride {stride} gaps {gaps:?}"
        );
    }
}

/// Round-tripping a module through scatter/gather works for every
/// programmable shuffle function.
#[test]
fn round_trip_under_programmable_shuffles() {
    let mut rng = SplitMix(0x5708);
    for _ in 0..CASES {
        let pattern = PatternId(rng.below(8) as u8);
        let col = ColumnId(rng.below(16) as u32);
        let line = rng.words(8);
        let f = match rng.below(3) {
            0 => ShuffleFn::LowBits,
            1 => ShuffleFn::Masked { mask: 0b101 },
            _ => ShuffleFn::XorFold { groups: 2 },
        };
        let cfg = GsDramConfig::with_shuffle_fn(8, 3, 3, f).unwrap();
        let geom = Geometry::new(&cfg, 1, 16).unwrap();
        let mut m = GsModule::new(cfg, geom);
        m.write_line(RowId(0), col, pattern, true, &line).unwrap();
        let back = m.read_line(RowId(0), col, pattern, true).unwrap();
        assert_eq!(back, line);
    }
}

/// SEC-DED: every single-bit corruption of any codeword is corrected to
/// the original data; every double-bit data corruption is detected.
#[test]
fn secded_corrects_singles_detects_doubles() {
    let mut rng = SplitMix(0x5709);
    for _ in 0..CASES {
        let data = rng.next_u64();
        let b1 = rng.below(72) as u32;
        let b2 = rng.below(64) as u32;
        let check = encode(data);
        // Single flip anywhere in the 72-bit codeword.
        let (d1, c1) = if b1 < 64 {
            (data ^ (1u64 << b1), check)
        } else {
            (data, check ^ (1u8 << (b1 - 64)))
        };
        match decode(d1, c1) {
            Decode::Corrected(v) => assert_eq!(v, data),
            Decode::Clean(_) => panic!("flip must be noticed"),
            Decode::DoubleError => panic!("single flip flagged double"),
        }
        // Double flip within the data bits.
        let b1d = b1 % 64;
        if b1d == b2 {
            continue;
        }
        let d2 = data ^ (1u64 << b1d) ^ (1u64 << b2);
        assert_eq!(decode(d2, check), Decode::DoubleError);
    }
}

/// All shuffle functions produce controls within the stage width, so
/// the programmable variants (§6.1) remain legal datapath inputs.
#[test]
fn shuffle_fn_controls_fit_stage_width() {
    let mut rng = SplitMix(0x570A);
    for _ in 0..CASES {
        let col = ColumnId(rng.next_u64() as u32);
        let stages = rng.range(1, 4) as u8;
        for f in [
            ShuffleFn::Identity,
            ShuffleFn::LowBits,
            ShuffleFn::Masked { mask: 0b101 },
            ShuffleFn::XorFold { groups: 3 },
        ] {
            let c = f.control(col, stages);
            assert!(c < (1 << stages), "{f:?} produced {c}");
        }
    }
}
