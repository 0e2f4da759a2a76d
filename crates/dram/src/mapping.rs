//! Physical address to DRAM-coordinate mapping.
//!
//! The map is structured as a pipeline of *component functions* in the
//! Sudoku sense: every stage is a bijection on the line space, so the
//! composed map stays invertible by running the stages' inverses in
//! reverse order. The pipeline has two kinds of stage:
//!
//! 1. the interleave *split* ([`Interleave`]) — bit-field extraction
//!    turning a line index into raw `(channel, rank, bank, row, col)`
//!    coordinates. Every count is a power of two (the constructors
//!    assert it), so each coordinate is a contiguous field of the line
//!    index and the split is shifts and masks, never a division;
//! 2. three XOR-matrix stages ([`XorStage`]) — one each for the
//!    channel, rank and bank index. A stage is a GF(2)-linear
//!    component function: output bit `i` of the index is the input bit
//!    XOR the parity of `row & masks[i]`. Because the row is left
//!    untouched, every stage is an involution on its own coordinate
//!    and the composed map stays bijective for *any* mask matrix.
//!
//! [`AddressMap::decompose`] runs split-then-stages;
//! [`AddressMap::compose`] runs the same stages (each is its own
//! inverse) then the interleave combine. [`MapHash`] names the
//! preset mask matrices reachable from the CLI (`--mapping`); the
//! classic controller hash `bank ^= row & (banks-1)` is the
//! [`MapHash::XorBank`] preset. The default [`AddressMap::table1`]
//! uses identity stages everywhere, matching the paper's Table 1
//! system (1 channel × 1 rank × 8 banks).

use crate::command::BankId;
use gsdram_core::{cast, ColumnId, RowId};

/// Widest XOR-stage output supported: up to 2^8 channels, ranks or
/// banks — far above any config the simulator accepts.
pub const MAX_INDEX_BITS: usize = 8;

/// Where a cache line lives in the DRAM hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramLocation {
    /// Channel index within the system.
    pub channel: usize,
    /// Rank index within the channel.
    pub rank: usize,
    /// Bank index within the rank.
    pub bank: BankId,
    /// Row within the bank.
    pub row: RowId,
    /// Cache-line column within the row.
    pub col: ColumnId,
}

/// Which coordinate consecutive cache lines walk first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interleave {
    /// Consecutive lines fill the columns of one row before striping
    /// across channels, then banks (row-streaming scans enjoy
    /// row-buffer hits — the open-row-friendly mapping the paper's
    /// HTAP analysis assumes — while whole-row blocks still spread
    /// over every channel).
    ColumnFirst,
    /// Consecutive lines stripe across banks (maximises bank-level
    /// parallelism at the cost of row locality).
    BankFirst,
}

/// One XOR-matrix component function: a keyed permutation of a small
/// index (channel, rank or bank), applied after the interleave split.
///
/// Output bit `i` is `index[i] ^ parity(key & masks[i])` where the key
/// is the (unhashed) row index. The key is never modified, so the
/// stage is an involution — applying it twice with the same key is the
/// identity — and therefore bijective on the index space for every
/// mask matrix. This is the Sudoku/DReAM shape: swapping matrices
/// swaps mappings without touching the split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XorStage {
    bits: u32,
    masks: [u64; MAX_INDEX_BITS],
}

impl XorStage {
    /// The identity stage over a `bits`-wide index (all masks zero).
    pub fn identity(bits: u32) -> Self {
        Self::from_masks(bits, &[])
    }

    /// The classic controller hash: XOR the low `bits` key bits into
    /// the index (`masks[i] = 1 << i`), i.e. `index ^ (key & mask)`.
    pub fn low_bits(bits: u32) -> Self {
        Self::shifted(bits, 0)
    }

    /// Like [`low_bits`](Self::low_bits) but reading the key window
    /// starting at bit `shift`: `masks[i] = 1 << (shift + i)`. Used to
    /// give the channel, rank and bank stages disjoint row bit-fields.
    pub fn shifted(bits: u32, shift: u32) -> Self {
        let mut masks = [0u64; MAX_INDEX_BITS];
        for (i, m) in masks.iter_mut().enumerate().take(cast::index(bits)) {
            let b = shift + cast::len_to_u32(i);
            if b < u64::BITS {
                *m = 1 << b;
            }
        }
        Self::from_masks(bits, &masks[..cast::index(bits)])
    }

    /// The Sudoku-style fold: chop the whole 64-bit key into
    /// `bits`-wide chunks and XOR them all into the index, so *every*
    /// key bit disturbs the permutation (`masks[i]` selects key bits
    /// `i, i+bits, i+2*bits, …`).
    pub fn fold(bits: u32) -> Self {
        let mut masks = [0u64; MAX_INDEX_BITS];
        for (i, m) in masks.iter_mut().enumerate().take(cast::index(bits)) {
            let mut b = cast::len_to_u32(i);
            while b < u64::BITS {
                *m |= 1 << b;
                b += bits;
            }
        }
        Self::from_masks(bits, &masks[..cast::index(bits)])
    }

    /// A stage from an explicit mask matrix (`masks[i]` keys output
    /// bit `i`; missing rows are zero).
    ///
    /// # Panics
    ///
    /// Panics if `bits` exceeds [`MAX_INDEX_BITS`] or more than `bits`
    /// masks are given.
    pub fn from_masks(bits: u32, rows: &[u64]) -> Self {
        assert!(
            cast::index(bits) <= MAX_INDEX_BITS,
            "XOR stage supports at most {MAX_INDEX_BITS} index bits, got {bits}"
        );
        assert!(rows.len() <= cast::index(bits));
        let mut masks = [0u64; MAX_INDEX_BITS];
        masks[..rows.len()].copy_from_slice(rows);
        XorStage { bits, masks }
    }

    /// True when every mask is zero (the stage is a no-op).
    pub fn is_identity(&self) -> bool {
        self.masks.iter().all(|&m| m == 0)
    }

    /// Applies the stage: `index` XOR the mask-parity column keyed on
    /// `key`. An involution in `index`, hence its own inverse.
    pub fn apply(&self, index: u64, key: u64) -> u64 {
        let mut out = index;
        for (i, &mask) in self.masks.iter().enumerate().take(cast::index(self.bits)) {
            out ^= u64::from((key & mask).count_ones() & 1) << cast::len_to_u32(i);
        }
        out
    }
}

/// Preset XOR-matrix pipelines selectable via `--mapping`. Each
/// variant names which coordinate stages are non-identity; the row
/// bit-fields feeding the three stages are disjoint (bank reads the
/// low row bits, rank the next field, channel the one above), so the
/// presets compose freely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapHash {
    /// Identity everywhere: coordinates come straight from the split.
    Direct,
    /// XOR the low `log2(banks)` row bits into the bank index. Rows
    /// that would pile onto one bank under the direct map spread
    /// across banks; within a row nothing changes. Self-inverse.
    XorBank,
    /// XOR a row bit-field into the rank index (row-crossing streams
    /// alternate ranks, hiding tRTRS behind rank parallelism).
    XorRank,
    /// XOR a row bit-field into the channel index (row-crossing
    /// streams alternate channels).
    XorChannel,
    /// All three stages at once, each on its own row bit-field.
    XorAll,
}

impl MapHash {
    /// Every preset with its CLI label and a one-line note, in
    /// listing order.
    pub const VARIANTS: [(MapHash, &'static str, &'static str); 5] = [
        (
            MapHash::Direct,
            "direct",
            "identity stages (Table 1 default)",
        ),
        (
            MapHash::XorBank,
            "xor-bank",
            "low row bits XOR into the bank",
        ),
        (
            MapHash::XorRank,
            "xor-rank",
            "row bit-field XOR into the rank",
        ),
        (
            MapHash::XorChannel,
            "xor-channel",
            "row bit-field XOR into the channel",
        ),
        (MapHash::XorAll, "xor-all", "bank + rank + channel stages"),
    ];

    /// Parses a preset name as accepted by the `--mapping` flag.
    pub fn parse(s: &str) -> Option<MapHash> {
        match s {
            "direct" => Some(MapHash::Direct),
            "xor-bank" | "xorbank" | "xor" => Some(MapHash::XorBank),
            "xor-rank" | "xorrank" => Some(MapHash::XorRank),
            "xor-channel" | "xorchannel" => Some(MapHash::XorChannel),
            "xor-all" | "xorall" => Some(MapHash::XorAll),
            _ => None,
        }
    }

    /// Canonical label, stable across runs (used in run ids and the
    /// machine description line).
    pub fn label(&self) -> &'static str {
        match self {
            MapHash::Direct => "direct",
            MapHash::XorBank => "xor-bank",
            MapHash::XorRank => "xor-rank",
            MapHash::XorChannel => "xor-channel",
            MapHash::XorAll => "xor-all",
        }
    }
}

/// One coordinate's bit-field within the line index: `bits` wide,
/// starting at bit `shift`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Field {
    shift: u32,
    bits: u32,
}

impl Field {
    /// The coordinate stored in `line`.
    fn get(self, line: u64) -> u64 {
        (line >> self.shift) & ((1 << self.bits) - 1)
    }

    /// `value` placed in this field of an otherwise zero line index.
    fn put(self, value: u64) -> u64 {
        value << self.shift
    }
}

/// Stacks four power-of-two coordinate counts into adjacent fields,
/// lowest first; returns the fields and the row field's shift (the row
/// takes every bit above them).
fn stack(counts: [u64; 4]) -> ([Field; 4], u32) {
    let mut shift = 0;
    let fields = counts.map(|count| {
        let f = Field {
            shift,
            bits: count.trailing_zeros(),
        };
        shift += f.bits;
        f
    });
    (fields, shift)
}

/// Maps byte addresses to (channel, rank, bank, row, column)
/// coordinates.
///
/// ```
/// use gsdram_dram::mapping::{AddressMap, Interleave};
/// let m = AddressMap::new(64, 128, 8, Interleave::ColumnFirst);
/// let a = m.decompose(0);
/// let b = m.decompose(64);
/// assert_eq!(a.bank, b.bank);
/// assert_eq!(a.row, b.row);
/// assert_eq!(b.col.0, a.col.0 + 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressMap {
    /// log2 of the line size in bytes.
    line_shift: u32,
    col: Field,
    channel: Field,
    bank: Field,
    rank: Field,
    /// The row is every line-index bit from here up.
    row_shift: u32,
    channel_stage: XorStage,
    rank_stage: XorStage,
    bank_stage: XorStage,
}

impl AddressMap {
    /// A map for lines of `line_bytes`, rows of `cols_per_row` lines and
    /// `banks` banks (one rank, one channel).
    ///
    /// # Panics
    ///
    /// Panics if any parameter is not a power of two.
    pub fn new(line_bytes: u64, cols_per_row: u64, banks: u64, interleave: Interleave) -> Self {
        Self::with_shape(line_bytes, cols_per_row, banks, 1, 1, interleave)
    }

    /// A map over `ranks` ranks: the rank index varies just above the
    /// bank bits (whichever interleave is chosen).
    ///
    /// # Panics
    ///
    /// Panics if any parameter is not a power of two.
    pub fn with_ranks(
        line_bytes: u64,
        cols_per_row: u64,
        banks: u64,
        ranks: u64,
        interleave: Interleave,
    ) -> Self {
        Self::with_shape(line_bytes, cols_per_row, banks, ranks, 1, interleave)
    }

    /// The full geometry: `channels` channels of `ranks` ranks of
    /// `banks` banks. Under [`Interleave::ColumnFirst`] the channel
    /// index varies just above the column bits — consecutive DRAM-row
    /// blocks stripe round-robin over channels, so single-channel maps
    /// are bit-identical to the pre-channel mapping.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is not a power of two: every coordinate
    /// is a bit-field of the line index.
    pub fn with_shape(
        line_bytes: u64,
        cols_per_row: u64,
        banks: u64,
        ranks: u64,
        channels: u64,
        interleave: Interleave,
    ) -> Self {
        for (what, count) in [
            ("line size", line_bytes),
            ("column count", cols_per_row),
            ("bank count", banks),
            ("rank count", ranks),
            ("channel count", channels),
        ] {
            assert!(
                count.is_power_of_two(),
                "address map needs a power-of-two {what}, got {count}"
            );
        }
        let (col, channel, bank, rank, row_shift) = match interleave {
            Interleave::ColumnFirst => {
                let ([col, channel, bank, rank], row) =
                    stack([cols_per_row, channels, banks, ranks]);
                (col, channel, bank, rank, row)
            }
            Interleave::BankFirst => {
                let ([bank, rank, channel, col], row) =
                    stack([banks, ranks, channels, cols_per_row]);
                (col, channel, bank, rank, row)
            }
        };
        AddressMap {
            line_shift: line_bytes.trailing_zeros(),
            col,
            channel,
            bank,
            rank,
            row_shift,
            channel_stage: XorStage::identity(0),
            rank_stage: XorStage::identity(0),
            bank_stage: XorStage::identity(0),
        }
    }

    /// The same map with the given preset XOR stages appended. The
    /// bank stage reads row bits `[0, log2(banks))`, the rank stage
    /// the next `log2(ranks)` bits, the channel stage the
    /// `log2(channels)` above those — disjoint key fields, so
    /// [`MapHash::XorAll`] decorrelates all three coordinates. Every
    /// count is a power of two, so each mask covers exactly its index
    /// space and the map stays bijective.
    pub fn with_hash(mut self, hash: MapHash) -> Self {
        let (want_bank, want_rank, want_channel) = match hash {
            MapHash::Direct => (false, false, false),
            MapHash::XorBank => (true, false, false),
            MapHash::XorRank => (false, true, false),
            MapHash::XorChannel => (false, false, true),
            MapHash::XorAll => (true, true, true),
        };
        let (bank_bits, rank_bits, channel_bits) =
            (self.bank.bits, self.rank.bits, self.channel.bits);
        // Identity stages stay `identity(0)` so a `Direct` hash leaves
        // the map equal to one that never saw `with_hash` at all.
        if want_bank {
            self.bank_stage = XorStage::low_bits(bank_bits);
        }
        if want_rank {
            self.rank_stage = XorStage::shifted(rank_bits, bank_bits);
        }
        if want_channel {
            self.channel_stage = XorStage::shifted(channel_bits, bank_bits + rank_bits);
        }
        self
    }

    /// The same map with explicit per-coordinate stages — the DReAM
    /// hook: any mask matrices keep the map bijective, so runtime
    /// remapping only needs to swap stages.
    pub fn with_stages(mut self, channel: XorStage, rank: XorStage, bank: XorStage) -> Self {
        self.channel_stage = channel;
        self.rank_stage = rank;
        self.bank_stage = bank;
        self
    }

    /// The Table 1 system: 64-byte lines, 8 KB rows (128 lines), 8 banks,
    /// one rank, one channel, column-first interleave, identity stages.
    pub fn table1() -> Self {
        Self::new(64, 128, 8, Interleave::ColumnFirst)
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        1 << self.line_shift
    }

    /// Channel count.
    pub fn channels(&self) -> u64 {
        1 << self.channel.bits
    }

    /// The cache-line index of a byte address.
    pub fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// The raw interleave split, before any XOR stage: line index to
    /// `(channel, rank, bank, row, col)`.
    fn split(&self, line: u64) -> (u64, u64, u64, u64, u64) {
        (
            self.channel.get(line),
            self.rank.get(line),
            self.bank.get(line),
            line >> self.row_shift,
            self.col.get(line),
        )
    }

    /// Inverse of [`split`](Self::split): coordinates back to the line
    /// index.
    fn combine(&self, channel: u64, rank: u64, bank: u64, row: u64, col: u64) -> u64 {
        (row << self.row_shift)
            | self.rank.put(rank)
            | self.bank.put(bank)
            | self.channel.put(channel)
            | self.col.put(col)
    }

    /// DRAM coordinates of the cache line containing `addr`: the
    /// interleave split followed by the three XOR stages, each keyed
    /// on the raw row index.
    pub fn decompose(&self, addr: u64) -> DramLocation {
        let line = self.line_of(addr);
        let (channel, rank, bank, row, col) = self.split(line);
        let channel = self.channel_stage.apply(channel, row);
        let rank = self.rank_stage.apply(rank, row);
        let bank = self.bank_stage.apply(bank, row);
        DramLocation {
            channel: cast::to_usize(channel),
            rank: cast::to_usize(rank),
            bank: cast::to_usize(bank),
            row: RowId(cast::to_u32(row)),
            col: ColumnId(cast::to_u32(col)),
        }
    }

    /// Inverse of [`decompose`](Self::decompose): the first byte address
    /// of a location's line — the XOR stages again (each is its own
    /// inverse) followed by the interleave combine.
    pub fn compose(&self, loc: DramLocation) -> u64 {
        let row = u64::from(loc.row.0);
        let channel = self.channel_stage.apply(cast::widen(loc.channel), row);
        let rank = self.rank_stage.apply(cast::widen(loc.rank), row);
        let bank = self.bank_stage.apply(cast::widen(loc.bank), row);
        let line = self.combine(channel, rank, bank, row, u64::from(loc.col.0));
        line << self.line_shift
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_first_keeps_scans_in_row() {
        let m = AddressMap::table1();
        let locs: Vec<_> = (0..128u64).map(|i| m.decompose(i * 64)).collect();
        assert!(locs.iter().all(|l| l.bank == 0 && l.row == RowId(0)));
        assert_eq!(locs[127].col, ColumnId(127));
        // Line 128 spills into the next bank, same row index.
        let next = m.decompose(128 * 64);
        assert_eq!(next.bank, 1);
        assert_eq!(next.col, ColumnId(0));
    }

    #[test]
    fn bank_first_stripes() {
        let m = AddressMap::new(64, 128, 8, Interleave::BankFirst);
        for i in 0..8u64 {
            assert_eq!(m.decompose(i * 64).bank, i as usize);
        }
        assert_eq!(m.decompose(8 * 64).bank, 0);
        assert_eq!(m.decompose(8 * 64).col, ColumnId(1));
    }

    #[test]
    fn channels_split_at_row_granularity() {
        // Under ColumnFirst the channel bit sits just above the
        // column bits: whole DRAM-row blocks alternate channels, and
        // the per-channel coordinates match a channel-less map over
        // the surviving row blocks.
        let m = AddressMap::with_shape(64, 128, 8, 1, 2, Interleave::ColumnFirst);
        let one = AddressMap::table1();
        let row_bytes = 128 * 64;
        for blk in 0..16u64 {
            for off in [0u64, 64, 4032] {
                let a = blk * row_bytes + off;
                let loc = m.decompose(a);
                assert_eq!(loc.channel, cast::to_usize(blk % 2), "addr {a}");
                let local = one.decompose((blk / 2) * row_bytes + off);
                assert_eq!(
                    (loc.rank, loc.bank, loc.row, loc.col),
                    (local.rank, local.bank, local.row, local.col),
                    "addr {a}"
                );
            }
        }
    }

    #[test]
    fn single_channel_matches_channel_less_map() {
        let with = AddressMap::with_shape(64, 128, 8, 2, 1, Interleave::ColumnFirst);
        let without = AddressMap::with_ranks(64, 128, 8, 2, Interleave::ColumnFirst);
        for line in [0u64, 1, 127, 128, 1023, 999_999] {
            let a = with.decompose(line * 64);
            let b = without.decompose(line * 64);
            assert_eq!(a.channel, 0);
            assert_eq!(
                (a.rank, a.bank, a.row, a.col),
                (b.rank, b.bank, b.row, b.col),
                "{line}"
            );
        }
    }

    #[test]
    fn compose_inverts_decompose() {
        for interleave in [Interleave::ColumnFirst, Interleave::BankFirst] {
            let m = AddressMap::with_shape(64, 128, 8, 2, 4, interleave);
            for line in [0u64, 1, 127, 128, 1023, 999_999] {
                let addr = line * 64;
                assert_eq!(m.compose(m.decompose(addr)), addr, "{interleave:?} {line}");
            }
        }
    }

    #[test]
    fn xor_bank_hash_permutes_banks_per_row() {
        let m = AddressMap::table1().with_hash(MapHash::XorBank);
        // Row 0: the XOR mask is 0, identical to the direct map.
        assert_eq!(m.decompose(0), AddressMap::table1().decompose(0));
        // One full row group later (row 1), bank 0 hashes to bank 1.
        let row1 = 128 * 64 * 8; // cols * line * banks
        let direct = AddressMap::table1().decompose(row1);
        let hashed = m.decompose(row1);
        assert_eq!(direct.row, RowId(1));
        assert_eq!(direct.bank, 0);
        assert_eq!(hashed.bank, 1);
        assert_eq!((hashed.row, hashed.col), (direct.row, direct.col));
        // The stage is an involution: compose inverts decompose.
        for line in [0u64, 1, 127, 128, 1023, 999_999] {
            assert_eq!(m.compose(m.decompose(line * 64)), line * 64, "{line}");
        }
    }

    #[test]
    fn xor_stage_constructors_are_involutions() {
        let stages = [
            XorStage::identity(3),
            XorStage::low_bits(3),
            XorStage::shifted(3, 5),
            XorStage::fold(3),
            XorStage::from_masks(3, &[0b101, 0b1, 0b11010]),
        ];
        for (si, s) in stages.iter().enumerate() {
            for key in [0u64, 1, 5, 0xDEAD_BEEF, u64::MAX] {
                for idx in 0..8u64 {
                    assert_eq!(s.apply(s.apply(idx, key), key), idx, "stage {si} key {key}");
                    assert!(s.apply(idx, key) < 8, "stage {si} stays in range");
                }
            }
        }
        assert!(XorStage::identity(3).is_identity());
        assert!(!XorStage::low_bits(3).is_identity());
    }

    #[test]
    fn fold_uses_high_key_bits() {
        // The fold stage reacts to key bits far above the low field
        // the classic hash reads.
        let fold = XorStage::fold(3);
        let low = XorStage::low_bits(3);
        let high_key = 1u64 << 40;
        assert_eq!(low.apply(0, high_key), 0);
        assert_ne!(fold.apply(0, high_key), 0);
    }

    #[test]
    fn map_hash_parse_labels() {
        for (h, label, _) in MapHash::VARIANTS {
            assert_eq!(MapHash::parse(label), Some(h));
            assert_eq!(h.label(), label);
        }
        assert_eq!(MapHash::parse("nonsense"), None);
    }

    #[test]
    #[should_panic(expected = "power-of-two bank count")]
    fn constructor_rejects_odd_bank_counts() {
        let _ = AddressMap::new(64, 128, 6, Interleave::ColumnFirst);
    }

    #[test]
    #[should_panic(expected = "power-of-two channel count")]
    fn constructor_rejects_odd_channel_counts() {
        let _ = AddressMap::with_shape(64, 128, 8, 1, 3, Interleave::ColumnFirst);
    }

    #[test]
    fn sub_line_addresses_share_a_location() {
        let m = AddressMap::table1();
        assert_eq!(m.decompose(64), m.decompose(65));
        assert_eq!(m.decompose(64), m.decompose(127));
        assert_ne!(m.decompose(64), m.decompose(128));
    }
}
