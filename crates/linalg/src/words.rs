//! Occupancy-word row index and the two CF row kernels that walk it.
//!
//! The streaming kernels in [`mod@crate::pearson`] walk two sorted column
//! lists element-at-a-time: every merge step is a data-dependent three-way
//! branch, and on real rating rows (a profile meets about one neighbour
//! item per few columns) the CPU mispredicts its way through the
//! intersection. This module splits the work between the two sides of a
//! CF weight:
//!
//! * **Row side** — [`RowWords`], an index of 64-column **occupancy words**
//!   over a sparse row's sorted columns: per occupied 64-column block, the
//!   block id, a `u64` occupancy mask and the offset (`base`) of the block's
//!   first entry in the row's CSR values. It stores no second copy of the
//!   values: the `k`-th set bit of a word is CSR value `base + k`. This is
//!   the word-container idea of Roaring bitmaps (Lemire et al., *Software:
//!   Practice and Experience*, 2018) applied to CF rows.
//! * **Request side** — [`RequestView`], a direct-indexed view of one
//!   request, built once per component leg into reused storage: per block,
//!   the profile's occupancy word and its values by column, and the target
//!   list's occupancy word and each target's slot (rank) by column.
//!
//! A kernel then walks the row's words in order, looks the request's word
//! up **by block id** (no merge, no compare branches), and visits the set
//! bits of `view_word & row_word`. The request-side value is read by
//! column; the row-side value by rank, `base + popcount(mask & below)`,
//! with a fast path for full words where the rank is the bit itself.
//!
//! # Bit-identity contract
//!
//! Both kernels visit the matched pairs in **ascending column order** — the
//! order the scalar two-pointer merge finds them — and hand them to the
//! same per-match arithmetic: [`pearson_on_view`] folds them through the
//! shared [`WelfordPair`] with the finish conventions of
//! [`crate::pearson_on_common`], and [`for_each_target_slot`] leaves the
//! per-slot expression to the caller. The layout changes how
//! intersections are *found*, never the floating-point operation sequence,
//! so the kernels are bit-identical to the scalar ones by construction and
//! the allocating oracle [`crate::pearson_on_common_alloc`] pins them
//! byte-for-byte in the differential proptests.
//!
//! The Welford recurrence is a serial dependence (`mean` feeds the next
//! delta), so the fold itself cannot be split across lanes without
//! reassociating. Everything here is stable, `unsafe`-free Rust (the
//! workspace forbids `unsafe`); there are no intrinsics to audit.

use crate::pearson::WelfordPair;

/// Columns per occupancy word. Word `block` covers columns
/// `[block * WORD_BITS, (block + 1) * WORD_BITS)`.
pub const WORD_BITS: usize = 64;

/// One occupied 64-column block of a sparse row.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OccupancyWord {
    /// Block id (`col / WORD_BITS`).
    pub block: u32,
    /// Position in the row's CSR values of the block's first entry.
    pub base: u32,
    /// Bit `j` set ⇔ column `block * WORD_BITS + j` is stored.
    pub mask: u64,
}

impl OccupancyWord {
    /// Visit the set bits of `other & self.mask` in ascending order as
    /// `(bit, pos)`, where `pos` is the entry's position in the row's CSR
    /// values. A full word ranks by the bit itself; otherwise by
    /// `base + popcount(mask & below)`.
    #[inline(always)]
    fn for_each_common(&self, other: u64, mut f: impl FnMut(usize, usize)) {
        let mut m = other & self.mask;
        let base = self.base as usize;
        if self.mask == u64::MAX {
            while m != 0 {
                let bit = m.trailing_zeros() as usize & (WORD_BITS - 1);
                f(bit, base + bit);
                m &= m - 1;
            }
        } else {
            while m != 0 {
                let bit = m.trailing_zeros() as usize & (WORD_BITS - 1);
                let below = self.mask & ((1u64 << bit) - 1);
                f(bit, base + below.count_ones() as usize);
                m &= m - 1;
            }
        }
    }
}

/// The occupancy-word index of one sparse row: one [`OccupancyWord`] per
/// occupied 64-column block, ascending by block id. The values stay in the
/// row's CSR storage; every kernel takes them alongside the index.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RowWords {
    words: Vec<OccupancyWord>,
}

impl RowWords {
    /// Index a strictly ascending column list (the [`crate::SparseMatrix`]
    /// / `SparseRow` invariant).
    pub fn from_sorted(cols: &[u32]) -> Self {
        debug_assert!(cols.windows(2).all(|w| w[0] < w[1]), "cols not sorted");
        let mut words: Vec<OccupancyWord> = Vec::new();
        for (pos, &c) in cols.iter().enumerate() {
            let block = c / WORD_BITS as u32;
            let bit = c % WORD_BITS as u32;
            match words.last_mut() {
                Some(w) if w.block == block => w.mask |= 1 << bit,
                _ => words.push(OccupancyWord {
                    block,
                    base: pos as u32,
                    mask: 1 << bit,
                }),
            }
        }
        RowWords { words }
    }

    /// The occupied words, ascending by block id.
    pub fn words(&self) -> &[OccupancyWord] {
        &self.words
    }

    /// Number of indexed columns (total set mask bits).
    pub fn nnz(&self) -> usize {
        self.words
            .iter()
            .map(|w| w.mask.count_ones() as usize)
            .sum()
    }

    /// The indexed columns, ascending — the CSR column list this index was
    /// built from.
    pub fn cols(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().flat_map(|w| {
            let mut m = w.mask;
            std::iter::from_fn(move || {
                (m != 0).then(|| {
                    let bit = m.trailing_zeros();
                    m &= m - 1;
                    w.block * WORD_BITS as u32 + bit
                })
            })
        })
    }
}

/// One 64-column block of a [`RequestView`].
#[derive(Clone, Copy, Debug)]
struct ViewBlock {
    /// Profile occupancy word.
    profile: u64,
    /// Target occupancy word.
    targets: u64,
    /// Profile value by bit; meaningful only where `profile` has the bit.
    x: [f64; WORD_BITS],
    /// Target slot (rank in the sorted target list) by bit; meaningful
    /// only where `targets` has the bit.
    slot: [u32; WORD_BITS],
}

const EMPTY_BLOCK: ViewBlock = ViewBlock {
    profile: 0,
    targets: 0,
    x: [0.0; WORD_BITS],
    slot: [0; WORD_BITS],
};

/// A direct-indexed view of one request: its profile (values by column)
/// and its sorted target list (slots by column), as occupancy words over
/// the columns `0..width`.
///
/// Built once per component leg by [`rebuild`](Self::rebuild) into reused
/// storage: a rebuild at an unchanged width only rewrites the occupancy
/// words and the entries it sets, so a warm leg allocates nothing. Values
/// and slots left behind by an earlier request are never read — a kernel
/// only reads a column whose bit the current request set.
///
/// Storage is direct-indexed: 784 bytes per 64 columns of width, whatever
/// the request's size. That is a few KiB at the deployments' item counts
/// (hundreds of columns); a catalog of tens of thousands of items would
/// want the blocks stored only where the request has entries.
#[derive(Clone, Debug, Default)]
pub struct RequestView {
    blocks: Vec<ViewBlock>,
}

impl RequestView {
    /// A fresh view of `(cols, vals)` and `targets` (see
    /// [`rebuild`](Self::rebuild)).
    pub fn build(width: usize, cols: &[u32], vals: &[f64], targets: &[u32]) -> Self {
        let mut view = Self::default();
        view.rebuild(width, cols, vals, targets);
        view
    }

    /// Reset the view to the profile `(cols, vals)` and the target list
    /// `targets`, both strictly ascending, over the columns `0..width`.
    ///
    /// Entries at columns `>= width` are left out: a row whose columns all
    /// lie below `width` (every row of a store with `feature_dim <= width`)
    /// can never match them, so the kernels give the same bits as the
    /// scalar merges over the full lists.
    pub fn rebuild(&mut self, width: usize, cols: &[u32], vals: &[f64], targets: &[u32]) {
        debug_assert_eq!(cols.len(), vals.len());
        debug_assert!(cols.windows(2).all(|w| w[0] < w[1]), "cols not sorted");
        debug_assert!(
            targets.windows(2).all(|w| w[0] < w[1]),
            "targets not sorted"
        );
        let n_blocks = width.div_ceil(WORD_BITS);
        self.blocks.resize(n_blocks, EMPTY_BLOCK);
        for b in &mut self.blocks {
            b.profile = 0;
            b.targets = 0;
        }
        for (&c, &v) in cols.iter().zip(vals) {
            if (c as usize) >= width {
                break;
            }
            let (block, bit) = (c as usize / WORD_BITS, c as usize % WORD_BITS);
            let b = &mut self.blocks[block];
            b.profile |= 1 << bit;
            b.x[bit] = v;
        }
        for (slot, &c) in targets.iter().enumerate() {
            if (c as usize) >= width {
                break;
            }
            let (block, bit) = (c as usize / WORD_BITS, c as usize % WORD_BITS);
            let b = &mut self.blocks[block];
            b.targets |= 1 << bit;
            b.slot[bit] = slot as u32;
        }
    }
}

/// Pearson correlation over the intersection of a request's profile and
/// one indexed row (`row` over the CSR values `vals`). Returns
/// `(weight, common)`.
///
/// Bit-identical to [`crate::pearson_on_common`]`(profile, row)`: the
/// profile side is `x`, the row side `y`, and the pairs fold through
/// [`WelfordPair`] in ascending column order (see the module docs).
pub fn pearson_on_view(view: &RequestView, row: &RowWords, vals: &[f64]) -> (f64, usize) {
    debug_assert_eq!(row.nnz(), vals.len());
    let mut w = WelfordPair::new();
    for word in &row.words {
        let Some(b) = view.blocks.get(word.block as usize) else {
            break;
        };
        word.for_each_common(b.profile, |bit, pos| w.push(b.x[bit], vals[pos]));
    }
    w.finish()
}

/// Visit every `(slot, value)` where a column of the indexed row (`row`
/// over the CSR values `vals`) is one of the request's targets, in
/// ascending column order; `slot` is the column's rank in the sorted
/// target list the view was built from.
///
/// The row-side form of the two-pointer scan in the recommender's
/// `accumulate_neighbor`: the caller owns the per-slot arithmetic, so the
/// floating-point operation sequence — and thus bit-identity with the
/// scalar merge — is entirely in the caller's hands.
pub fn for_each_target_slot(
    view: &RequestView,
    row: &RowWords,
    vals: &[f64],
    mut f: impl FnMut(usize, f64),
) {
    debug_assert_eq!(row.nnz(), vals.len());
    for word in &row.words {
        let Some(b) = view.blocks.get(word.block as usize) else {
            break;
        };
        word.for_each_common(b.targets, |bit, pos| f(b.slot[bit] as usize, vals[pos]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pearson::{pearson_on_common, pearson_on_common_alloc};

    fn row(pairs: &[(u32, f64)]) -> (Vec<u32>, Vec<f64>) {
        (
            pairs.iter().map(|&(c, _)| c).collect(),
            pairs.iter().map(|&(_, v)| v).collect(),
        )
    }

    fn width(a: &[u32], b: &[u32]) -> usize {
        a.iter().chain(b).max().map_or(0, |&m| m as usize + 1)
    }

    #[test]
    fn from_sorted_round_trips_columns_and_bases() {
        let cols = [0u32, 3, 63, 64, 65, 200];
        let w = RowWords::from_sorted(&cols);
        assert_eq!(w.nnz(), 6);
        assert_eq!(w.words().len(), 3); // blocks 0, 1, 3
        assert_eq!(
            w.words()
                .iter()
                .map(|w| (w.block, w.base))
                .collect::<Vec<_>>(),
            vec![(0, 0), (1, 3), (3, 5)]
        );
        assert_eq!(w.cols().collect::<Vec<_>>(), cols);
    }

    #[test]
    fn empty_row_is_empty() {
        let w = RowWords::from_sorted(&[]);
        assert_eq!(w.nnz(), 0);
        assert!(w.words().is_empty());
        assert_eq!(w.cols().count(), 0);
    }

    #[test]
    fn view_pearson_is_bit_identical_to_scalar() {
        let (ca, va) = row(&[(0, 1.0), (2, 4.5), (3, 2.0), (5, 5.0), (8, 3.0), (9, 0.5)]);
        let (cb, vb) = row(&[(1, 2.0), (2, 1.0), (3, 4.0), (4, 9.0), (5, 2.0), (9, 4.5)]);
        let view = RequestView::build(width(&ca, &cb), &ca, &va, &[]);
        let (ws, ns) = pearson_on_common(&ca, &va, &cb, &vb);
        let (wv, nv) = pearson_on_view(&view, &RowWords::from_sorted(&cb), &vb);
        assert_eq!(ns, nv);
        assert_eq!(ws.to_bits(), wv.to_bits());
    }

    #[test]
    fn full_word_fast_path_is_bit_identical() {
        // Two rows dense over the same 128 columns: every row word is full.
        let ca: Vec<u32> = (0..128).collect();
        let va: Vec<f64> = (0..128).map(|i| (i % 5) as f64 + 1.0).collect();
        let vb: Vec<f64> = (0..128).map(|i| 5.0 - (i % 4) as f64).collect();
        let view = RequestView::build(128, &ca, &va, &[]);
        let (ws, ns) = pearson_on_common(&ca, &va, &ca, &vb);
        let (wv, nv) = pearson_on_view(&view, &RowWords::from_sorted(&ca), &vb);
        assert_eq!(ns, nv);
        assert_eq!(ws.to_bits(), wv.to_bits());
    }

    #[test]
    fn view_agrees_with_allocating_oracle() {
        let (ca, va) = row(&[(0, 1.0), (2, 4.5), (3, 2.0), (5, 5.0), (8, 3.0)]);
        let (cb, vb) = row(&[(2, 1.0), (3, 4.0), (5, 2.0), (8, 4.5), (12, 7.0)]);
        let view = RequestView::build(width(&ca, &cb), &ca, &va, &[]);
        let (wv, nv) = pearson_on_view(&view, &RowWords::from_sorted(&cb), &vb);
        let (wo, no) = pearson_on_common_alloc(&ca, &va, &cb, &vb);
        assert_eq!(nv, no);
        assert_eq!(wv.to_bits(), wo.to_bits());
    }

    #[test]
    fn empty_intersection_gives_zero() {
        let view = RequestView::build(128, &[0, 1], &[1.0, 2.0], &[]);
        let w = RowWords::from_sorted(&[64, 65]);
        assert_eq!(pearson_on_view(&view, &w, &[1.0, 2.0]), (0.0, 0));
    }

    #[test]
    fn columns_past_the_view_width_never_match() {
        let view = RequestView::build(64, &[1, 2, 70], &[1.0, 2.0, 3.0], &[2, 90]);
        let w = RowWords::from_sorted(&[1, 2, 70, 90]);
        let vals = [4.0, 1.0, 9.0, 9.0];
        let (wv, nv) = pearson_on_view(&view, &w, &vals);
        assert_eq!(nv, 2);
        let (ws, _) = pearson_on_common(&[1, 2], &[1.0, 2.0], &[1, 2], &[4.0, 1.0]);
        assert_eq!(wv.to_bits(), ws.to_bits());
        let mut seen = Vec::new();
        for_each_target_slot(&view, &w, &vals, |slot, v| seen.push((slot, v)));
        assert_eq!(seen, vec![(0, 1.0)]);
    }

    #[test]
    fn target_slots_match_positions() {
        let cols = [2u32, 5, 7, 8, 16, 17, 30, 64, 127, 128];
        let vals: Vec<f64> = cols.iter().map(|&c| c as f64).collect();
        let view = RequestView::build(129, &[], &[], &cols);
        let mut seen = Vec::new();
        for_each_target_slot(&view, &RowWords::from_sorted(&cols), &vals, |slot, v| {
            seen.push((slot, v))
        });
        let expect: Vec<(usize, f64)> = vals.iter().enumerate().map(|(i, &v)| (i, v)).collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn rebuild_forgets_the_previous_request() {
        let mut view = RequestView::build(256, &[1, 100, 200], &[5.0, 1.0, 2.0], &[3, 150]);
        view.rebuild(256, &[4, 5], &[1.0, 3.0], &[7]);
        let w = RowWords::from_sorted(&[1, 3, 4, 5, 7, 100, 150, 200]);
        let vals = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        assert_eq!(pearson_on_view(&view, &w, &vals).1, 2);
        let mut seen = Vec::new();
        for_each_target_slot(&view, &w, &vals, |slot, v| seen.push((slot, v)));
        assert_eq!(seen, vec![(0, 5.0)]);
    }
}
