//! Pearson's correlation coefficient.
//!
//! In the paper's CF recommender, the weight between an active user and a
//! neighbourhood user is Pearson's correlation computed over the items both
//! users have rated (§3.2), and the same weight against *aggregated* users
//! is the correlation estimate `c_i` of Algorithm 1.
//!
//! # Hot-path invariants
//!
//! [`pearson_on_common`] sits on the per-request serving path: every
//! synopsis weight and every exact neighbour weight goes through it, so it
//! must be **allocation-free and single-pass**. The intersection of the two
//! sorted column slices is consumed by a streaming merge that folds each
//! co-rated pair into Welford running moments — no intermediate `xs`/`ys`
//! vectors, no second pass over the common values. The allocating two-pass
//! formulation is retained as [`pearson_on_common_alloc`] strictly as the
//! differential-test oracle and the benchmark baseline; serving code must
//! never call it.

/// The shared Welford pair-moment accumulator: running means, second
/// moments and co-moment of a stream of `(x, y)` pairs, folded one pair at
/// a time in the numerically stable post-update-delta form.
///
/// Every Pearson kernel in this crate — dense [`pearson`], streaming
/// [`pearson_on_common`], and the occupancy-word kernel
/// [`crate::pearson_on_view`] — funnels matched pairs through
/// [`push`](Self::push) in ascending column order and ends with
/// [`finish`](Self::finish). One recurrence, one op order: kernels that
/// visit the same pairs in the same order are bit-identical by
/// construction, which is what lets the word layout swap in under the
/// differential oracle without moving a single result bit.
#[derive(Clone, Copy, Debug, Default)]
pub struct WelfordPair {
    n: usize,
    mean_x: f64,
    mean_y: f64,
    m2x: f64,
    m2y: f64,
    cxy: f64,
}

impl WelfordPair {
    /// Fresh accumulator (zero pairs seen).
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one `(x, y)` pair into the running moments.
    #[inline(always)]
    pub fn push(&mut self, x: f64, y: f64) {
        self.n += 1;
        // Through i64: x86-64 converts a signed integer to f64 in one
        // instruction but an unsigned one in several, and the value is the
        // same (exact) for any count below 2^53.
        let inv = 1.0 / (self.n as i64 as f64);
        let dx = x - self.mean_x;
        let dy = y - self.mean_y;
        self.mean_x += dx * inv;
        self.mean_y += dy * inv;
        // Post-update deltas: Welford's numerically stable form.
        let dx2 = x - self.mean_x;
        let dy2 = y - self.mean_y;
        self.m2x += dx * dx2;
        self.m2y += dy * dy2;
        self.cxy += dx * dy2;
    }

    /// `(weight, pairs)` under the CF conventions: `0.0` for fewer than two
    /// pairs or a zero-variance side, clamped to `[-1, 1]` otherwise.
    #[inline]
    pub fn finish(self) -> (f64, usize) {
        if self.n < 2 || self.m2x <= 0.0 || self.m2y <= 0.0 {
            (0.0, self.n)
        } else {
            (
                (self.cxy / (self.m2x.sqrt() * self.m2y.sqrt())).clamp(-1.0, 1.0),
                self.n,
            )
        }
    }
}

/// Pearson correlation of two equal-length samples.
///
/// Returns `0.0` when either sample has zero variance (the convention used
/// by CF systems: a flat co-rater carries no similarity signal) or when
/// fewer than two pairs exist.
///
/// Single pass: pairs fold through the same [`WelfordPair`] recurrence as
/// [`pearson_on_common`], so gathering an intersection and calling this
/// (what [`pearson_on_common_alloc`] does) yields **bit-identical** results
/// to streaming the intersection directly — which is what makes the
/// allocating formulation a byte-exact differential oracle for every
/// streaming/word kernel variant. A constant side still gives exactly
/// `0.0`: Welford's `m2` is exactly zero for constant input.
///
/// # Panics
/// Panics if `a.len() != b.len()`.
pub fn pearson(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "pearson: length mismatch");
    let mut w = WelfordPair::new();
    for (&x, &y) in a.iter().zip(b) {
        w.push(x, y);
    }
    w.finish().0
}

/// Pearson correlation over the *intersection* of two sparse rating rows.
///
/// `(cols_a, vals_a)` and `(cols_b, vals_b)` are parallel slices with
/// `cols_*` sorted ascending (the invariant of
/// [`crate::SparseMatrix`] rows). Returns `(weight, common)` where `common`
/// is the number of co-rated items; weight is `0.0` when `common < 2`.
///
/// This is the exact CF weight of the paper: "the weight (similarity)
/// between user u and any neighbourhood user who has rated the same item".
///
/// Single-pass streaming merge: co-rated pairs are folded into Welford
/// running moments (mean, co-moment, second moments) as the merge advances,
/// so the call performs **no heap allocation** and touches each input entry
/// at most once.
pub fn pearson_on_common(
    cols_a: &[u32],
    vals_a: &[f64],
    cols_b: &[u32],
    vals_b: &[f64],
) -> (f64, usize) {
    debug_assert_eq!(cols_a.len(), vals_a.len());
    debug_assert_eq!(cols_b.len(), vals_b.len());
    let mut w = WelfordPair::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < cols_a.len() && j < cols_b.len() {
        match cols_a[i].cmp(&cols_b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                w.push(vals_a[i], vals_b[j]);
                i += 1;
                j += 1;
            }
        }
    }
    w.finish()
}

/// The pre-streaming, allocating formulation of [`pearson_on_common`]:
/// materialises the intersection into two vectors, then runs the dense
/// [`pearson`] over them.
///
/// Kept **only** as the differential-test oracle (the streaming and
/// occupancy-word kernels must agree with it **bit-for-bit** on random
/// sparse rows — gather + fold and stream + fold share the
/// [`WelfordPair`] recurrence, so the op sequences coincide) and as the
/// "before" baseline of the hot-path benchmarks. Not for serving-path use.
pub fn pearson_on_common_alloc(
    cols_a: &[u32],
    vals_a: &[f64],
    cols_b: &[u32],
    vals_b: &[f64],
) -> (f64, usize) {
    debug_assert_eq!(cols_a.len(), vals_a.len());
    debug_assert_eq!(cols_b.len(), vals_b.len());
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < cols_a.len() && j < cols_b.len() {
        match cols_a[i].cmp(&cols_b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                xs.push(vals_a[i]);
                ys.push(vals_b[j]);
                i += 1;
                j += 1;
            }
        }
    }
    let common = xs.len();
    if common < 2 {
        (0.0, common)
    } else {
        (pearson(&xs, &ys), common)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_positive_correlation() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_negative_correlation() {
        let a = [1.0, 2.0, 3.0];
        let b = [3.0, 2.0, 1.0];
        assert!((pearson(&a, &b) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_variance_gives_zero() {
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
        assert_eq!(pearson(&[1.0, 2.0, 3.0], &[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn too_few_pairs_gives_zero() {
        assert_eq!(pearson(&[1.0], &[2.0]), 0.0);
        assert_eq!(pearson(&[], &[]), 0.0);
    }

    #[test]
    fn uncorrelated_is_near_zero() {
        // A symmetric pattern with zero covariance.
        let a = [1.0, 2.0, 1.0, 2.0];
        let b = [1.0, 1.0, 2.0, 2.0];
        assert!(pearson(&a, &b).abs() < 1e-12);
    }

    #[test]
    fn result_is_clamped() {
        let a = [1e-8, 2e-8, 3e-8];
        let b = [1e-8, 2e-8, 3e-8];
        let r = pearson(&a, &b);
        assert!((-1.0..=1.0).contains(&r));
    }

    #[test]
    fn common_intersection_basic() {
        // User A rated items 1,2,3; user B rated 2,3,4. Common = {2,3}.
        let (w, n) = pearson_on_common(&[1, 2, 3], &[5.0, 1.0, 2.0], &[2, 3, 4], &[2.0, 4.0, 1.0]);
        assert_eq!(n, 2);
        // Two points always correlate perfectly (here positively: 1<2, 2<4).
        assert!((w - 1.0).abs() < 1e-12);
    }

    #[test]
    fn no_overlap_gives_zero_weight() {
        let (w, n) = pearson_on_common(&[1, 2], &[1.0, 2.0], &[3, 4], &[1.0, 2.0]);
        assert_eq!(n, 0);
        assert_eq!(w, 0.0);
    }

    #[test]
    fn single_common_item_gives_zero_weight() {
        let (w, n) = pearson_on_common(&[1], &[5.0], &[1], &[5.0]);
        assert_eq!(n, 1);
        assert_eq!(w, 0.0);
    }

    #[test]
    fn intersection_matches_dense_pearson() {
        let cols_a = [0u32, 1, 2, 3, 5];
        let vals_a = [1.0, 4.0, 2.0, 5.0, 3.0];
        let cols_b = [1u32, 2, 3, 4, 5];
        let vals_b = [2.0, 1.0, 4.0, 9.0, 2.0];
        let (w, n) = pearson_on_common(&cols_a, &vals_a, &cols_b, &vals_b);
        assert_eq!(n, 4); // items 1,2,3,5
        let dense = pearson(&[4.0, 2.0, 5.0, 3.0], &[2.0, 1.0, 4.0, 2.0]);
        assert!((w - dense).abs() < 1e-12);
    }

    #[test]
    fn streaming_constant_side_gives_zero() {
        // A constant common side must yield exactly 0 (Welford's m2 is
        // exactly zero for constant input, not merely tiny).
        let cols = [0u32, 1, 2, 3];
        let (w, n) = pearson_on_common(&cols, &[2.5; 4], &cols, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(n, 4);
        assert_eq!(w, 0.0);
    }

    #[test]
    fn streaming_matches_allocating_oracle() {
        let cols_a = [0u32, 2, 3, 5, 8, 9];
        let vals_a = [1.0, 4.5, 2.0, 5.0, 3.0, 0.5];
        let cols_b = [1u32, 2, 3, 4, 5, 9];
        let vals_b = [2.0, 1.0, 4.0, 9.0, 2.0, 4.5];
        let (ws, ns) = pearson_on_common(&cols_a, &vals_a, &cols_b, &vals_b);
        let (wa, na) = pearson_on_common_alloc(&cols_a, &vals_a, &cols_b, &vals_b);
        assert_eq!(ns, na);
        assert!((ws - wa).abs() < 1e-12, "{ws} vs {wa}");
    }

    #[test]
    fn allocating_oracle_is_bit_identical_to_streaming() {
        // Since the dense `pearson` became the same single-pass Welford
        // fold as the streaming merge, gather-then-fold and stream-fold run
        // the identical op sequence: the oracle is byte-exact, which is the
        // property the occupancy-word kernel proptests lean on.
        let cols_a = [0u32, 2, 3, 5, 8, 9, 11, 13];
        let vals_a = [1.0, 4.5, 2.0, 5.0, 3.0, 0.5, 2.25, 1.75];
        let cols_b = [1u32, 2, 3, 4, 5, 9, 11, 13];
        let vals_b = [2.0, 1.0, 4.0, 9.0, 2.0, 4.5, 0.125, 3.5];
        let (ws, ns) = pearson_on_common(&cols_a, &vals_a, &cols_b, &vals_b);
        let (wa, na) = pearson_on_common_alloc(&cols_a, &vals_a, &cols_b, &vals_b);
        assert_eq!(ns, na);
        assert_eq!(ws.to_bits(), wa.to_bits());
    }

    #[test]
    fn dense_welford_keeps_conventions() {
        // Satellite regression: the single-pass rewrite keeps the clamp and
        // zero-variance conventions of the two-pass form bit-compatible.
        assert_eq!(
            pearson(&[2.5, 2.5, 2.5], &[1.0, 2.0, 3.0]).to_bits(),
            0.0f64.to_bits()
        );
        assert_eq!(pearson(&[7.0], &[3.0]).to_bits(), 0.0f64.to_bits());
        let r = pearson(&[1.0, 2.0, 3.0, 4.0], &[2.0, 4.0, 6.0, 8.0]);
        assert!(r <= 1.0 && (r - 1.0).abs() < 1e-12);
    }
}
