//! The synopsis itself: the set of aggregated data points.

use crate::dataset::{AggregationMode, SparseRow};
use at_linalg::{RowStats, RowWords};
use at_rtree::NodeId;

/// One aggregated data point: the folded information of a group of similar
/// original data points (one R-tree node at the synopsis depth).
#[derive(Clone, Debug)]
pub struct AggregatedPoint {
    /// The R-tree node this point was cut from (the index-file key).
    pub node: NodeId,
    /// Aggregated information (mean or merged sparse row).
    pub info: SparseRow,
    /// How many original points it aggregates.
    pub member_count: usize,
}

/// A component's synopsis: aggregated data points keyed by R-tree node.
///
/// Paper §2.1: "The synopsis consists of multiple aggregated data points,
/// each aggregates the information of multiple similar data points in the
/// subset." It is deliberately small (≈100× smaller than the subset) so a
/// component can always process it quickly.
///
/// Each point's [`RowStats`] (sum/mean/nnz of its aggregated row) is cached
/// at [`upsert`](Synopsis::upsert) time — the per-request path reads the
/// aggregated neighbour's mean in `O(1)` instead of rescanning its values,
/// and incremental synopsis updates refresh the cache automatically because
/// they go through `upsert`/`remove`.
///
/// Storage is a `Vec` kept sorted by node id: the per-request path iterates
/// every point once per component, so [`iter`](Synopsis::iter) /
/// [`iter_with_stats`](Synopsis::iter_with_stats) must be allocation- and
/// sort-free. Mutation (binary search + shift on upsert/remove) pays the
/// `O(m)` cost instead, on the offline/update path where it belongs.
#[derive(Clone, Debug)]
pub struct Synopsis {
    mode: AggregationMode,
    /// `(point, stats)` entries sorted ascending by `point.node`.
    points: Vec<(AggregatedPoint, RowStats)>,
    /// Occupancy-word index of each point's row (over its CSR values),
    /// index-parallel to `points` and maintained by the same
    /// `upsert`/`remove` mutations.
    words: Vec<RowWords>,
}

impl Synopsis {
    /// Empty synopsis with the given aggregation mode.
    pub fn new(mode: AggregationMode) -> Self {
        Synopsis {
            mode,
            points: Vec::new(),
            words: Vec::new(),
        }
    }

    fn position(&self, node: NodeId) -> Result<usize, usize> {
        self.points.binary_search_by_key(&node, |(p, _)| p.node)
    }

    /// Aggregation mode (mean for numeric data, merge for text).
    pub fn mode(&self) -> AggregationMode {
        self.mode
    }

    /// Number of aggregated data points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the synopsis holds no aggregated points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Total stored entries across all aggregated rows (a size proxy for
    /// the "sufficiently small" requirement).
    pub fn total_entries(&self) -> usize {
        self.points.iter().map(|(p, _)| p.info.nnz()).sum()
    }

    /// The aggregated point cut from `node`, if present.
    pub fn point(&self, node: NodeId) -> Option<&AggregatedPoint> {
        self.position(node).ok().map(|i| &self.points[i].0)
    }

    /// The aggregated point of `node` together with its cached row stats.
    pub fn point_with_stats(&self, node: NodeId) -> Option<(&AggregatedPoint, RowStats)> {
        self.position(node).ok().map(|i| {
            let (p, s) = &self.points[i];
            (p, *s)
        })
    }

    /// Insert or replace the aggregated point for `node`, refreshing its
    /// cached row stats and word index.
    pub fn upsert(&mut self, point: AggregatedPoint) {
        let stats = RowStats::of(&point.info.vals);
        let words = RowWords::from_sorted(&point.info.cols);
        match self.position(point.node) {
            Ok(i) => {
                self.points[i] = (point, stats);
                self.words[i] = words;
            }
            Err(i) => {
                self.points.insert(i, (point, stats));
                self.words.insert(i, words);
            }
        }
    }

    /// Remove the point of a node that no longer exists at the synopsis
    /// depth; returns whether it was present.
    pub fn remove(&mut self, node: NodeId) -> bool {
        match self.position(node) {
            Ok(i) => {
                self.points.remove(i);
                self.words.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// Iterate aggregated points in deterministic (node-id) order.
    /// Allocation-free: this runs once per request per component.
    pub fn iter(&self) -> impl Iterator<Item = &AggregatedPoint> {
        self.points.iter().map(|(p, _)| p)
    }

    /// Iterate aggregated points with their cached row stats, in
    /// deterministic (node-id) order. Allocation-free, like [`iter`](Self::iter).
    pub fn iter_with_stats(&self) -> impl Iterator<Item = (&AggregatedPoint, RowStats)> {
        self.points.iter().map(|(p, s)| (p, *s))
    }

    /// The batch-iteration hook: every aggregated point with its cached
    /// stats as one contiguous slice (node-id order).
    ///
    /// Batched serving makes **one** pass over this slice per component
    /// per batch, sharing each point (and its hot cache lines) across all
    /// requests of the batch; contiguous indexed access also lets callers
    /// chunk the pass (e.g. blocking points × requests) where the
    /// streaming iterators above can only run front to back once.
    pub fn points_with_stats(&self) -> &[(AggregatedPoint, RowStats)] {
        &self.points
    }

    /// Occupancy-word index of every aggregated row, index-parallel to
    /// [`points_with_stats`](Self::points_with_stats) (same node-id order,
    /// same length). The batch pass zips the two slices so each point's
    /// words ride along with its stats.
    pub fn points_words(&self) -> &[RowWords] {
        &self.words
    }

    /// The aggregated point of `node` with its position in
    /// [`points_with_stats`](Self::points_with_stats), its cached stats
    /// **and** its word index — the stage-2 improvement path backs a point
    /// out of the running accumulators through the same kernels it was
    /// folded in with, and finds the point's stage-1 results by position.
    pub fn point_full(
        &self,
        node: NodeId,
    ) -> Option<(usize, &AggregatedPoint, RowStats, &RowWords)> {
        self.position(node).ok().map(|i| {
            let (p, s) = &self.points[i];
            (i, p, *s, &self.words[i])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(i: u32, count: usize) -> AggregatedPoint {
        AggregatedPoint {
            node: NodeId::from_index(i),
            info: SparseRow::from_pairs(vec![(0, i as f64)]),
            member_count: count,
        }
    }

    #[test]
    fn upsert_and_lookup() {
        let mut s = Synopsis::new(AggregationMode::Mean);
        s.upsert(pt(3, 10));
        assert_eq!(s.len(), 1);
        assert_eq!(s.point(NodeId::from_index(3)).unwrap().member_count, 10);
        s.upsert(pt(3, 20));
        assert_eq!(s.len(), 1, "upsert replaces");
        assert_eq!(s.point(NodeId::from_index(3)).unwrap().member_count, 20);
    }

    #[test]
    fn remove_reports_presence() {
        let mut s = Synopsis::new(AggregationMode::Merge);
        s.upsert(pt(1, 1));
        assert!(s.remove(NodeId::from_index(1)));
        assert!(!s.remove(NodeId::from_index(1)));
        assert!(s.is_empty());
    }

    #[test]
    fn iter_is_sorted_by_node() {
        let mut s = Synopsis::new(AggregationMode::Mean);
        for i in [5u32, 1, 9, 3] {
            s.upsert(pt(i, 1));
        }
        let order: Vec<u32> = s.iter().map(|p| p.node.index()).collect();
        assert_eq!(order, vec![1, 3, 5, 9]);
    }

    #[test]
    fn upsert_refreshes_cached_stats() {
        let mut s = Synopsis::new(AggregationMode::Mean);
        s.upsert(AggregatedPoint {
            node: NodeId::from_index(7),
            info: SparseRow::from_pairs(vec![(0, 2.0), (1, 4.0)]),
            member_count: 3,
        });
        let (_, stats) = s.point_with_stats(NodeId::from_index(7)).unwrap();
        assert_eq!((stats.nnz, stats.sum), (2, 6.0));
        assert_eq!(stats.mean(), 3.0);
        // Replacing the point must replace the cached stats with it.
        s.upsert(AggregatedPoint {
            node: NodeId::from_index(7),
            info: SparseRow::from_pairs(vec![(2, 9.0)]),
            member_count: 1,
        });
        let (_, stats) = s.point_with_stats(NodeId::from_index(7)).unwrap();
        assert_eq!((stats.nnz, stats.sum), (1, 9.0));
        let with_stats: Vec<_> = s.iter_with_stats().collect();
        assert_eq!(with_stats.len(), 1);
        assert_eq!(with_stats[0].1.mean(), 9.0);
    }

    #[test]
    fn points_with_stats_matches_streaming_iteration() {
        let mut s = Synopsis::new(AggregationMode::Mean);
        for i in [8u32, 2, 5] {
            s.upsert(pt(i, i as usize));
        }
        let slice = s.points_with_stats();
        assert_eq!(slice.len(), s.len());
        for ((p_it, st_it), (p_sl, st_sl)) in s.iter_with_stats().zip(slice) {
            assert_eq!(p_it.node, p_sl.node);
            assert_eq!(st_it.sum, st_sl.sum);
            assert_eq!(st_it.nnz, st_sl.nnz);
        }
    }

    #[test]
    fn word_slice_stays_parallel_through_mutations() {
        let mut s = Synopsis::new(AggregationMode::Mean);
        for i in [5u32, 1, 9, 3] {
            s.upsert(pt(i, 1));
        }
        assert!(s.remove(NodeId::from_index(3)));
        s.upsert(pt(7, 2));
        let points = s.points_with_stats();
        let words = s.points_words();
        assert_eq!(points.len(), words.len());
        for ((p, _), w) in points.iter().zip(words) {
            assert_eq!(w.cols().collect::<Vec<_>>(), p.info.cols);
        }
        let (i, p, _, w) = s.point_full(NodeId::from_index(7)).unwrap();
        assert_eq!(p.member_count, 2);
        assert_eq!(points[i].0.node, NodeId::from_index(7));
        assert_eq!(w.cols().collect::<Vec<_>>(), p.info.cols);
    }

    #[test]
    fn total_entries_sums_rows() {
        let mut s = Synopsis::new(AggregationMode::Mean);
        s.upsert(AggregatedPoint {
            node: NodeId::from_index(0),
            info: SparseRow::from_pairs(vec![(0, 1.0), (3, 1.0)]),
            member_count: 2,
        });
        s.upsert(pt(1, 1));
        assert_eq!(s.total_entries(), 3);
    }
}
