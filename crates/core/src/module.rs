//! Functional model of a GS-DRAM module: line-major word storage plus
//! the gather/scatter datapath (shuffle network + per-chip CTL) of §3.4.
//!
//! The module stores data exactly as the hardware would: chip `i` holds
//! one 8-byte word per (row, column). The memory-controller-side shuffle
//! decides *which* word of a written line lands on which chip; the
//! per-chip CTL decides *which column* each chip touches for a given
//! (pattern, column) command. This model is the ground truth the timing
//! simulator and the end-to-end system build on.

use crate::ctl::{ctl_bank, ctl_for, ColumnTranslationLogic, CommandKind};
use crate::error::AccessError;
use crate::{ChipId, ColumnId, Geometry, GsDramConfig, PatternId, RowId};

/// Where one word of a gathered cache line comes from, and which logical
/// element of the row it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatherSlot {
    /// Chip supplying the word.
    pub chip: u8,
    /// Column that chip accesses (after CTL translation).
    pub chip_col: u32,
    /// Logical element index within the row buffer: element `e` is the
    /// `e mod chips`-th word of the line at column `e / chips`
    /// (the circled indices of Figure 7).
    pub element: usize,
}

/// Computes, for a column command `(pattern, col)`, the slot each chip
/// contributes — sorted by logical element index, which is the order the
/// memory controller assembles the gathered cache line in.
///
/// `shuffled` is the per-data-structure shuffle flag (§4.3): when clear,
/// lines were stored with the trivial word-`i`-to-chip-`i` mapping.
///
/// The returned slots always form a permutation of the chips (each chip
/// is read exactly once — the defining property that makes the gather a
/// single READ).
pub fn gather_slots(
    cfg: &GsDramConfig,
    pattern: PatternId,
    col: ColumnId,
    shuffled: bool,
) -> Vec<GatherSlot> {
    let ctls = ctl_bank(cfg);
    let mut slots: Vec<GatherSlot> = ctls
        .iter()
        .map(|ctl| slot_for_chip(cfg, ctl, pattern, col, shuffled))
        .collect();
    slots.sort_by_key(|s| s.element);
    slots
}

fn slot_for_chip(
    cfg: &GsDramConfig,
    ctl: &ColumnTranslationLogic,
    pattern: PatternId,
    col: ColumnId,
    shuffled: bool,
) -> GatherSlot {
    let chip_col = ctl.translate(CommandKind::Read, pattern, col);
    let chip = ctl.chip().0;
    // Invert the write-time shuffle to learn which logical word of the
    // line at `chip_col` this chip holds: the shuffle routed word w to
    // chip w XOR f(col), so chip i holds word i XOR f(col).
    let word = if shuffled {
        let control = cfg.shuffle_fn().control(chip_col, cfg.shuffle_stages());
        (chip ^ control) as usize
    } else {
        chip as usize
    };
    GatherSlot {
        chip,
        chip_col: chip_col.0,
        element: chip_col.0 as usize * cfg.chips() + word,
    }
}

/// The logical element indices a `(pattern, col)` access gathers, in
/// assembly order — the row of Figure 7 for this pattern/column pair.
///
/// ```
/// use gsdram_core::{gathered_elements, GsDramConfig, ColumnId, PatternId};
/// let cfg = GsDramConfig::gs_dram_4_2_2();
/// // Figure 7, pattern 3 (stride 4), column 0: elements 0 4 8 12.
/// assert_eq!(
///     gathered_elements(&cfg, PatternId(3), ColumnId(0), true),
///     vec![0, 4, 8, 12]
/// );
/// ```
pub fn gathered_elements(
    cfg: &GsDramConfig,
    pattern: PatternId,
    col: ColumnId,
    shuffled: bool,
) -> Vec<usize> {
    let mut out = Vec::with_capacity(cfg.chips());
    gathered_elements_into(cfg, pattern, col, shuffled, &mut out);
    out
}

/// [`gathered_elements`] into a caller-provided buffer (cleared first):
/// the allocation-free form the simulator's per-access line path uses.
pub fn gathered_elements_into(
    cfg: &GsDramConfig,
    pattern: PatternId,
    col: ColumnId,
    shuffled: bool,
    out: &mut Vec<usize>,
) {
    out.clear();
    for i in 0..cfg.chips() as u8 {
        let ctl = ctl_for(cfg, ChipId(i));
        out.push(slot_for_chip(cfg, &ctl, pattern, col, shuffled).element);
    }
    // Same-pattern gathers partition the row into disjoint element sets,
    // so ascending element order is exactly the assembly order.
    out.sort_unstable();
}

/// The inverse of [`gathered_elements`]: the column ID whose
/// `(pattern, col)` gather includes logical element `element` of a row.
///
/// Same-pattern gathers partition the row, so this column is unique. The
/// cache-coherence machinery of §4.1 uses it to enumerate the lines of
/// the *other* pattern that overlap a modified line.
///
/// ```
/// use gsdram_core::{column_containing, gathered_elements, GsDramConfig, ColumnId, PatternId};
/// let cfg = GsDramConfig::gs_dram_8_3_3();
/// for e in 0..64 {
///     let col = column_containing(&cfg, PatternId(7), e, true);
///     assert!(gathered_elements(&cfg, PatternId(7), col, true).contains(&e));
/// }
/// ```
pub fn column_containing(
    cfg: &GsDramConfig,
    pattern: PatternId,
    element: usize,
    shuffled: bool,
) -> ColumnId {
    let chips = cfg.chips();
    let col = ColumnId((element / chips) as u32);
    let word = element % chips;
    // The chip holding this element.
    let chip = if shuffled {
        word ^ cfg.shuffle_fn().control(col, cfg.shuffle_stages()) as usize
    } else {
        word
    };
    // CTL: chip_col = (chip_id_reg & pattern) ^ issued_col, so
    // issued_col = (chip_id_reg & pattern) ^ chip_col.
    let ctls = ctl_bank(cfg);
    ctls[chip].translate(CommandKind::Read, pattern, col)
}

/// A functional GS-DRAM module: `chips` 8-byte words per (row, column),
/// stored line-major.
///
/// All accesses go through the same shuffle + CTL datapath the paper
/// specifies, so reads with non-zero patterns return exactly what the
/// proposed hardware would.
///
/// ```
/// use gsdram_core::{GsModule, GsDramConfig, Geometry, RowId, ColumnId, PatternId};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cfg = GsDramConfig::gs_dram_4_2_2();
/// let geom = Geometry::new(&cfg, 1, 16)?;
/// let mut m = GsModule::new(cfg, geom);
/// // Store four 4-field tuples (Figure 1), one per cache line.
/// for t in 0..4u64 {
///     let tuple: Vec<u64> = (0..4).map(|f| t * 10 + f).collect();
///     m.write_line(RowId(0), ColumnId(t as u32), PatternId(0), true, &tuple)?;
/// }
/// // One READ with pattern 3 gathers the first field of all four tuples.
/// let field0 = m.read_line(RowId(0), ColumnId(0), PatternId(3), true)?;
/// assert_eq!(field0, vec![0, 10, 20, 30]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GsModule {
    cfg: GsDramConfig,
    geom: Geometry,
    /// `words[(row * cols_per_row + col) * chips + chip]` = the 8-byte
    /// word chip `chip` holds at that location. One column's chip words
    /// are adjacent, and the zeroed allocation is only backed by host
    /// memory as it is written.
    words: Vec<u64>,
}

/// Most chips a rank can have: chip IDs are 8-bit.
const MAX_CHIPS: usize = 1 << u8::BITS;

impl GsModule {
    /// Creates a zero-filled module with the given configuration and
    /// geometry.
    pub fn new(cfg: GsDramConfig, geom: Geometry) -> Self {
        let words = vec![0u64; geom.rows() * geom.cols_per_row() * cfg.chips()];
        GsModule { cfg, geom, words }
    }

    /// The module's configuration.
    pub fn config(&self) -> &GsDramConfig {
        &self.cfg
    }

    /// The module's geometry.
    pub fn geometry(&self) -> Geometry {
        self.geom
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.cfg.chips() * 8 * self.geom.rows() * self.geom.cols_per_row()
    }

    fn check(&self, row: RowId, col: ColumnId, pattern: PatternId) -> Result<(), AccessError> {
        if row.0 as usize >= self.geom.rows() {
            return Err(AccessError::RowOutOfRange {
                row: row.0,
                rows: self.geom.rows(),
            });
        }
        if col.0 as usize >= self.geom.cols_per_row() {
            return Err(AccessError::ColumnOutOfRange {
                col: col.0,
                cols: self.geom.cols_per_row(),
            });
        }
        if pattern.0 > self.cfg.max_pattern() {
            return Err(AccessError::PatternTooWide {
                pattern: pattern.0,
                bits: self.cfg.pattern_bits(),
            });
        }
        Ok(())
    }

    /// Index of chip 0's word at `(row, col)`; chip `i`'s word follows
    /// at `+ i`.
    fn line_base(&self, row: RowId, col: u32) -> usize {
        (row.0 as usize * self.geom.cols_per_row() + col as usize) * self.cfg.chips()
    }

    /// The shuffle control of the line at `col`: the chip holding word
    /// `w` of that line is `w ^ control`.
    fn control(&self, col: ColumnId, shuffled: bool) -> usize {
        if shuffled {
            self.cfg
                .shuffle_fn()
                .control(col, self.cfg.shuffle_stages()) as usize
        } else {
            0
        }
    }

    /// Calls `f(k, index)` for each word `k` of the `(pattern, col)`
    /// column command on `row`, in assembly order, with the storage index
    /// of the chip word it moves. The caller has run [`Self::check`].
    fn for_each_slot(
        &self,
        row: RowId,
        col: ColumnId,
        pattern: PatternId,
        shuffled: bool,
        mut f: impl FnMut(usize, usize),
    ) {
        let chips = self.cfg.chips();
        if pattern.is_default() {
            // Every chip reads `col`: word `w` sits on chip `w ^ control`.
            let base = self.line_base(row, col.0);
            let control = self.control(col, shuffled);
            for w in 0..chips {
                f(w, base + (w ^ control));
            }
            return;
        }
        // Sort the chips by the element they supply: column first, then
        // word. Chip and word are below `MAX_CHIPS`, so both pack into the
        // low 16 bits of the key beneath the column.
        let mut order = [0u64; MAX_CHIPS];
        let order = &mut order[..chips];
        for (chip, key) in order.iter_mut().enumerate() {
            let ctl = ctl_for(&self.cfg, ChipId(chip as u8));
            let chip_col = ctl.translate(CommandKind::Read, pattern, col);
            let word = chip ^ self.control(chip_col, shuffled);
            *key = (u64::from(chip_col.0) << 16) | ((word as u64) << 8) | chip as u64;
        }
        order.sort_unstable();
        for (k, key) in order.iter().enumerate() {
            let chip_col = (key >> 16) as u32;
            f(k, self.line_base(row, chip_col) + (key & 0xff) as usize);
        }
    }

    /// Reads a (possibly gathered) cache line with one column command.
    ///
    /// Returns the `chips` words in logical element order — the order
    /// the memory controller's reassembly network produces (Figure 7's
    /// ascending circles).
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] for out-of-range row/column or a pattern
    /// wider than the configured pattern-ID width.
    pub fn read_line(
        &self,
        row: RowId,
        col: ColumnId,
        pattern: PatternId,
        shuffled: bool,
    ) -> Result<Vec<u64>, AccessError> {
        let mut out = Vec::with_capacity(self.cfg.chips());
        self.read_line_into(row, col, pattern, shuffled, &mut out)?;
        Ok(out)
    }

    /// [`read_line`](Self::read_line) into a caller-provided buffer
    /// (cleared first): the allocation-free gather the simulator's line
    /// path uses.
    ///
    /// # Errors
    ///
    /// As [`read_line`](Self::read_line); `out` is left empty.
    pub fn read_line_into(
        &self,
        row: RowId,
        col: ColumnId,
        pattern: PatternId,
        shuffled: bool,
        out: &mut Vec<u64>,
    ) -> Result<(), AccessError> {
        out.clear();
        self.check(row, col, pattern)?;
        out.resize(self.cfg.chips(), 0);
        self.for_each_slot(row, col, pattern, shuffled, |k, i| out[k] = self.words[i]);
        Ok(())
    }

    /// Writes (possibly scattering) a cache line with one column command.
    ///
    /// `line` is in logical element order; the controller routes word `k`
    /// to the chip/column that holds the `k`-th gathered element, so a
    /// subsequent [`read_line`](Self::read_line) with the same pattern
    /// returns exactly `line`.
    ///
    /// # Errors
    ///
    /// As [`read_line`](Self::read_line), plus
    /// [`AccessError::WrongLineLength`] if `line.len() != chips`.
    pub fn write_line(
        &mut self,
        row: RowId,
        col: ColumnId,
        pattern: PatternId,
        shuffled: bool,
        line: &[u64],
    ) -> Result<(), AccessError> {
        self.check(row, col, pattern)?;
        if line.len() != self.cfg.chips() {
            return Err(AccessError::WrongLineLength {
                got: line.len(),
                expected: self.cfg.chips(),
            });
        }
        let mut words = std::mem::take(&mut self.words);
        self.for_each_slot(row, col, pattern, shuffled, |k, i| words[i] = line[k]);
        self.words = words;
        Ok(())
    }

    /// Reads one logical element of a row directly (test/initialisation
    /// convenience; the hardware path is [`read_line`](Self::read_line)).
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] for out-of-range row/element.
    pub fn read_element(
        &self,
        row: RowId,
        element: usize,
        shuffled: bool,
    ) -> Result<u64, AccessError> {
        let i = self.element_index(row, element, shuffled)?;
        Ok(self.words[i])
    }

    /// Writes one logical element of a row directly.
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] for out-of-range row/element.
    pub fn write_element(
        &mut self,
        row: RowId,
        element: usize,
        shuffled: bool,
        value: u64,
    ) -> Result<(), AccessError> {
        let i = self.element_index(row, element, shuffled)?;
        self.words[i] = value;
        Ok(())
    }

    /// Storage index of logical element `element` of `row`: word
    /// `element % chips` of the line at column `element / chips`.
    fn element_index(
        &self,
        row: RowId,
        element: usize,
        shuffled: bool,
    ) -> Result<usize, AccessError> {
        let chips = self.cfg.chips();
        let col = ColumnId((element / chips) as u32);
        self.check(row, col, PatternId::DEFAULT)?;
        Ok(self.line_base(row, col.0) + ((element % chips) ^ self.control(col, shuffled)))
    }

    /// The word chip `chip` holds at `(row, col)` (for tests and
    /// chip-conflict inspection).
    ///
    /// # Panics
    ///
    /// Panics if `chip`, `row` or `col` lies outside the module.
    pub fn chip_word(&self, chip: u8, row: RowId, col: ColumnId) -> u64 {
        assert!(
            usize::from(chip) < self.cfg.chips()
                && (row.0 as usize) < self.geom.rows()
                && (col.0 as usize) < self.geom.cols_per_row(),
            "chip {chip}, row {}, column {} outside the module",
            row.0,
            col.0
        );
        self.words[self.line_base(row, col.0) + usize::from(chip)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn module_4_2_2() -> GsModule {
        let cfg = GsDramConfig::gs_dram_4_2_2();
        let geom = Geometry::new(&cfg, 2, 16).unwrap();
        GsModule::new(cfg, geom)
    }

    /// Fills row 0 with elements 0..cols*chips (the logical row buffer of
    /// Figure 7) via ordinary pattern-0 writes.
    fn fill_row(m: &mut GsModule, row: RowId) {
        let c = m.config().chips();
        for col in 0..m.geometry().cols_per_row() as u32 {
            let line: Vec<u64> = (0..c as u64).map(|w| col as u64 * c as u64 + w).collect();
            m.write_line(row, ColumnId(col), PatternId(0), true, &line)
                .unwrap();
        }
    }

    #[test]
    fn figure7_all_sixteen_gathers() {
        // The full Figure 7 table for GS-DRAM(4,2,2), columns 0..3.
        let expected: [[[u64; 4]; 4]; 4] = [
            // Pattern 0 (stride 1)
            [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11], [12, 13, 14, 15]],
            // Pattern 1 (stride 2)
            [[0, 2, 4, 6], [1, 3, 5, 7], [8, 10, 12, 14], [9, 11, 13, 15]],
            // Pattern 2 (stride 1,7). Note: the paper's Figure 7 prints
            // the same four sets ordered by leading element (its col-1 and
            // col-2 rows swapped); the CTL equation (chip & 2) ^ col makes
            // column 1 read chip-columns {1,3}, which hold elements
            // {4..7, 12..15} — so this ordering is the mechanically
            // consistent one. See EXPERIMENTS.md.
            [[0, 1, 8, 9], [4, 5, 12, 13], [2, 3, 10, 11], [6, 7, 14, 15]],
            // Pattern 3 (stride 4)
            [[0, 4, 8, 12], [1, 5, 9, 13], [2, 6, 10, 14], [3, 7, 11, 15]],
        ];
        let mut m = module_4_2_2();
        fill_row(&mut m, RowId(0));
        for (p, cols) in expected.iter().enumerate() {
            for (c, want) in cols.iter().enumerate() {
                let got = m
                    .read_line(RowId(0), ColumnId(c as u32), PatternId(p as u8), true)
                    .unwrap();
                assert_eq!(got, want.to_vec(), "pattern {p} col {c}");
            }
        }
    }

    #[test]
    fn default_pattern_round_trip() {
        let mut m = module_4_2_2();
        let line = vec![11, 22, 33, 44];
        m.write_line(RowId(1), ColumnId(5), PatternId(0), true, &line)
            .unwrap();
        let back = m
            .read_line(RowId(1), ColumnId(5), PatternId(0), true)
            .unwrap();
        assert_eq!(back, line);
    }

    #[test]
    fn scatter_with_pattern_then_gather() {
        // Scatter four values with pattern 3 (stride 4), then confirm the
        // elements landed at strided positions readable via pattern 0.
        let mut m = module_4_2_2();
        fill_row(&mut m, RowId(0));
        m.write_line(
            RowId(0),
            ColumnId(0),
            PatternId(3),
            true,
            &[100, 104, 108, 112],
        )
        .unwrap();
        assert_eq!(
            m.read_line(RowId(0), ColumnId(0), PatternId(3), true)
                .unwrap(),
            vec![100, 104, 108, 112]
        );
        // Elements 0,4,8,12 were rewritten; their neighbours untouched.
        for (e, want) in [
            (0usize, 100u64),
            (4, 104),
            (8, 108),
            (12, 112),
            (1, 1),
            (5, 5),
        ] {
            assert_eq!(
                m.read_element(RowId(0), e, true).unwrap(),
                want,
                "element {e}"
            );
        }
    }

    #[test]
    fn element_access_agrees_with_line_access() {
        let mut m = module_4_2_2();
        for e in 0..16 {
            m.write_element(RowId(0), e, true, 1000 + e as u64).unwrap();
        }
        for col in 0..4u32 {
            let line = m
                .read_line(RowId(0), ColumnId(col), PatternId(0), true)
                .unwrap();
            let want: Vec<u64> = (0..4).map(|w| 1000 + col as u64 * 4 + w).collect();
            assert_eq!(line, want);
        }
    }

    #[test]
    fn unshuffled_structures_still_round_trip_pattern_zero() {
        let mut m = module_4_2_2();
        let line = vec![7, 8, 9, 10];
        m.write_line(RowId(0), ColumnId(3), PatternId(0), false, &line)
            .unwrap();
        assert_eq!(
            m.read_line(RowId(0), ColumnId(3), PatternId(0), false)
                .unwrap(),
            line
        );
    }

    #[test]
    fn each_gather_touches_every_chip_exactly_once() {
        let cfg = GsDramConfig::gs_dram_8_3_3();
        for p in 0..8u8 {
            for c in 0..16u32 {
                let slots = gather_slots(&cfg, PatternId(p), ColumnId(c), true);
                let mut chips: Vec<u8> = slots.iter().map(|s| s.chip).collect();
                chips.sort_unstable();
                assert_eq!(chips, (0..8).collect::<Vec<u8>>(), "pattern {p} col {c}");
            }
        }
    }

    #[test]
    fn stride_patterns_gather_strided_elements() {
        // For pattern 2^k − 1, the gathered elements of GS-DRAM(8,3,3)
        // form an arithmetic sequence with stride 2^k.
        let cfg = GsDramConfig::gs_dram_8_3_3();
        for k in 0..=3u32 {
            let stride = 1usize << k;
            let p = PatternId((stride - 1) as u8);
            let e = gathered_elements(&cfg, p, ColumnId(0), true);
            let want: Vec<usize> = (0..8).map(|i| i * stride).collect();
            assert_eq!(e, want, "stride {stride}");
        }
    }

    #[test]
    fn access_validation() {
        let m = module_4_2_2();
        assert!(matches!(
            m.read_line(RowId(9), ColumnId(0), PatternId(0), true),
            Err(AccessError::RowOutOfRange { row: 9, rows: 2 })
        ));
        assert!(matches!(
            m.read_line(RowId(0), ColumnId(99), PatternId(0), true),
            Err(AccessError::ColumnOutOfRange { col: 99, cols: 16 })
        ));
        assert!(matches!(
            m.read_line(RowId(0), ColumnId(0), PatternId(4), true),
            Err(AccessError::PatternTooWide {
                pattern: 4,
                bits: 2
            })
        ));
        let mut m = module_4_2_2();
        assert!(matches!(
            m.write_line(RowId(0), ColumnId(0), PatternId(0), true, &[1, 2]),
            Err(AccessError::WrongLineLength {
                got: 2,
                expected: 4
            })
        ));
    }

    #[test]
    fn capacity_accounts_all_chips() {
        let m = module_4_2_2();
        assert_eq!(m.capacity_bytes(), 4 * 8 * 2 * 16);
        assert_eq!(m.chip_word(3, RowId(1), ColumnId(15)), 0);
    }
}
