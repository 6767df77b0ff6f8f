//! Datasets as the synopsis pipeline sees them.
//!
//! Both of the paper's services reduce to the same shape: a component's
//! subset of input data is a collection of **sparse feature rows** —
//! a user's item→rating vector in the recommender, a web page's term→count
//! vector in the search engine (the paper's step 1 explicitly converts text
//! to such numeric vectors). [`RowStore`] stores those rows mutably so that
//! synopsis *updating* can add and change points in place.

use at_linalg::sparse::{SparseMatrix, SparseMatrixBuilder};
use at_linalg::{RowStats, RowWords};

/// How a group of original rows is folded into one aggregated data point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggregationMode {
    /// Numeric datasets: per-column mean over the rows that have the column
    /// (paper: an aggregated user's rating on item *i* is the average rating
    /// of its members who rated *i*).
    Mean,
    /// Text datasets: merge — per-column sum (paper: an aggregated web page
    /// "contains all the contents" of its member pages).
    Merge,
}

/// A mutable collection of sparse feature rows, keyed by dense point ids
/// `0..len` (u64 for R-tree compatibility).
///
/// Each row's [`RowStats`] (sum/mean/nnz) is cached alongside it and kept
/// current by [`push_row`](RowStore::push_row) /
/// [`replace_row`](RowStore::replace_row), so the per-request serving path
/// reads a neighbour's mean in `O(1)` instead of rescanning its values.
/// A [`RowWords`] occupancy-word index of every row is kept the same way
/// (built at push/replace time, never on the serving path): the CF row
/// kernels walk its 64-column words against the request view and read the
/// values straight from the row's CSR storage, so the index holds no second
/// copy of them.
#[derive(Clone, Debug, Default)]
pub struct RowStore {
    feature_dim: usize,
    rows: Vec<SparseRow>,
    stats: Vec<RowStats>,
    words: Vec<RowWords>,
}

/// One sparse row: parallel `(cols, vals)` with `cols` sorted ascending.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SparseRow {
    pub cols: Vec<u32>,
    pub vals: Vec<f64>,
}

impl SparseRow {
    /// Build from unsorted pairs; sorts and keeps the last duplicate.
    pub fn from_pairs(mut pairs: Vec<(u32, f64)>) -> Self {
        pairs.sort_by_key(|&(c, _)| c);
        let mut cols = Vec::with_capacity(pairs.len());
        let mut vals = Vec::with_capacity(pairs.len());
        for (c, v) in pairs {
            if cols.last() == Some(&c) {
                *vals.last_mut().expect("parallel vecs") = v;
            } else {
                cols.push(c);
                vals.push(v);
            }
        }
        SparseRow { cols, vals }
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// Value at column `c`, if stored.
    pub fn get(&self, c: u32) -> Option<f64> {
        self.cols.binary_search(&c).ok().map(|i| self.vals[i])
    }

    /// Iterate `(col, val)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.cols.iter().copied().zip(self.vals.iter().copied())
    }
}

impl RowStore {
    /// Empty store whose rows index columns `0..feature_dim`.
    pub fn new(feature_dim: usize) -> Self {
        RowStore {
            feature_dim,
            rows: Vec::new(),
            stats: Vec::new(),
            words: Vec::new(),
        }
    }

    /// Number of rows (data points).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Feature-space dimensionality (number of columns).
    pub fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    /// Append a row, returning its id.
    ///
    /// # Panics
    /// Panics if any column is out of range.
    pub fn push_row(&mut self, row: SparseRow) -> u64 {
        for &c in &row.cols {
            assert!(
                (c as usize) < self.feature_dim,
                "push_row: column {c} >= feature_dim {}",
                self.feature_dim
            );
        }
        self.stats.push(RowStats::of(&row.vals));
        self.words.push(RowWords::from_sorted(&row.cols));
        self.rows.push(row);
        (self.rows.len() - 1) as u64
    }

    /// Replace row `id` in place (a data point whose "feature attributes or
    /// contents change", paper §2.2).
    ///
    /// # Panics
    /// Panics if `id` is out of range or a column is out of range.
    pub fn replace_row(&mut self, id: u64, row: SparseRow) {
        for &c in &row.cols {
            assert!(
                (c as usize) < self.feature_dim,
                "replace_row: column {c} >= feature_dim {}",
                self.feature_dim
            );
        }
        let slot = self
            .rows
            .get_mut(id as usize)
            .unwrap_or_else(|| panic!("replace_row: id {id} out of range"));
        self.stats[id as usize] = RowStats::of(&row.vals);
        self.words[id as usize] = RowWords::from_sorted(&row.cols);
        *slot = row;
    }

    /// Borrow row `id`.
    ///
    /// # Panics
    /// Panics if out of range.
    pub fn row(&self, id: u64) -> &SparseRow {
        &self.rows[id as usize]
    }

    /// Cached stats (sum/mean/nnz) of row `id`, maintained by
    /// [`push_row`](Self::push_row) / [`replace_row`](Self::replace_row).
    ///
    /// # Panics
    /// Panics if out of range.
    pub fn row_stats(&self, id: u64) -> RowStats {
        self.stats[id as usize]
    }

    /// Occupancy-word index of row `id` (over the values of
    /// [`row`](Self::row)), maintained like [`row_stats`](Self::row_stats):
    /// the serving path reads it without rebuilding anything.
    ///
    /// # Panics
    /// Panics if out of range.
    pub fn row_words(&self, id: u64) -> &RowWords {
        &self.words[id as usize]
    }

    /// All row ids (`0..len`).
    pub fn ids(&self) -> impl Iterator<Item = u64> + '_ {
        0..self.rows.len() as u64
    }

    /// Convert to CSR for SVD training.
    pub fn to_csr(&self) -> SparseMatrix {
        let mut b = SparseMatrixBuilder::new(self.rows.len(), self.feature_dim);
        for (r, row) in self.rows.iter().enumerate() {
            for (c, v) in row.iter() {
                b.push(r, c, v);
            }
        }
        b.build()
    }

    /// Aggregate `members`' rows into one row under `mode`. Column order of
    /// the result is sorted ascending; empty member list gives an empty row.
    pub fn aggregate(&self, members: &[u64], mode: AggregationMode) -> SparseRow {
        // Merge member rows column-wise: (sum, count) per column.
        let mut acc: std::collections::BTreeMap<u32, (f64, u32)> =
            std::collections::BTreeMap::new();
        for &id in members {
            for (c, v) in self.rows[id as usize].iter() {
                let e = acc.entry(c).or_insert((0.0, 0));
                e.0 += v;
                e.1 += 1;
            }
        }
        let mut cols = Vec::with_capacity(acc.len());
        let mut vals = Vec::with_capacity(acc.len());
        for (c, (sum, count)) in acc {
            cols.push(c);
            vals.push(match mode {
                AggregationMode::Mean => sum / count as f64,
                AggregationMode::Merge => sum,
            });
        }
        SparseRow { cols, vals }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> RowStore {
        let mut s = RowStore::new(5);
        s.push_row(SparseRow::from_pairs(vec![(0, 4.0), (2, 2.0)]));
        s.push_row(SparseRow::from_pairs(vec![(0, 2.0), (1, 3.0)]));
        s.push_row(SparseRow::from_pairs(vec![(2, 4.0), (4, 1.0)]));
        s
    }

    #[test]
    fn push_assigns_sequential_ids() {
        let mut s = RowStore::new(3);
        assert_eq!(s.push_row(SparseRow::default()), 0);
        assert_eq!(s.push_row(SparseRow::default()), 1);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn from_pairs_sorts_and_dedups() {
        let r = SparseRow::from_pairs(vec![(3, 1.0), (1, 2.0), (3, 9.0)]);
        assert_eq!(r.cols, vec![1, 3]);
        assert_eq!(r.vals, vec![2.0, 9.0]);
        assert_eq!(r.get(3), Some(9.0));
        assert_eq!(r.get(0), None);
    }

    #[test]
    fn row_stats_cache_tracks_mutations() {
        let mut s = store();
        let st = s.row_stats(0);
        assert_eq!(st.nnz, 2);
        assert_eq!(st.sum, 6.0);
        assert_eq!(st.mean(), 3.0);
        s.replace_row(0, SparseRow::from_pairs(vec![(1, 9.0)]));
        let st = s.row_stats(0);
        assert_eq!((st.nnz, st.sum), (1, 9.0));
        let id = s.push_row(SparseRow::from_pairs(vec![(0, 1.0), (3, 2.0), (4, 3.0)]));
        assert_eq!(s.row_stats(id).mean(), 2.0);
    }

    #[test]
    fn word_index_tracks_mutations() {
        let mut s = store();
        let decoded = |s: &RowStore, id: u64| {
            let cols: Vec<u32> = s.row_words(id).cols().collect();
            (cols, s.row(id).vals.clone())
        };
        assert_eq!(decoded(&s, 0), (vec![0, 2], vec![4.0, 2.0]));
        s.replace_row(0, SparseRow::from_pairs(vec![(1, 9.0), (4, 3.0)]));
        assert_eq!(decoded(&s, 0), (vec![1, 4], vec![9.0, 3.0]));
        let id = s.push_row(SparseRow::from_pairs(vec![(3, 7.0)]));
        assert_eq!(decoded(&s, id), (vec![3], vec![7.0]));
    }

    #[test]
    fn replace_row_updates_in_place() {
        let mut s = store();
        s.replace_row(1, SparseRow::from_pairs(vec![(4, 9.0)]));
        assert_eq!(s.row(1).get(4), Some(9.0));
        assert_eq!(s.row(1).nnz(), 1);
        assert_eq!(s.len(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn replace_missing_row_panics() {
        let mut s = store();
        s.replace_row(99, SparseRow::default());
    }

    #[test]
    #[should_panic(expected = "feature_dim")]
    fn push_out_of_range_column_panics() {
        let mut s = RowStore::new(2);
        s.push_row(SparseRow::from_pairs(vec![(5, 1.0)]));
    }

    #[test]
    fn aggregate_mean_averages_present_values() {
        let s = store();
        // col 0: rows 0 and 1 -> mean(4, 2) = 3; col 2: rows 0 and 2 -> 3.
        let agg = s.aggregate(&[0, 1, 2], AggregationMode::Mean);
        assert_eq!(agg.get(0), Some(3.0));
        assert_eq!(agg.get(1), Some(3.0)); // only row 1
        assert_eq!(agg.get(2), Some(3.0));
        assert_eq!(agg.get(4), Some(1.0));
    }

    #[test]
    fn aggregate_merge_sums() {
        let s = store();
        let agg = s.aggregate(&[0, 2], AggregationMode::Merge);
        assert_eq!(agg.get(2), Some(6.0));
        assert_eq!(agg.get(0), Some(4.0));
        assert_eq!(agg.get(4), Some(1.0));
    }

    #[test]
    fn aggregate_empty_members() {
        let s = store();
        let agg = s.aggregate(&[], AggregationMode::Mean);
        assert_eq!(agg.nnz(), 0);
    }

    #[test]
    fn to_csr_roundtrip() {
        let s = store();
        let m = s.to_csr();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 5);
        assert_eq!(m.nnz(), 6);
        assert_eq!(m.get(0, 2), Some(2.0));
    }
}
