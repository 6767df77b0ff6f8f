//! Property-based tests for the numeric substrate.

use at_linalg::stats::{mean, percentile, variance, Percentiles, StreamingStats};
use at_linalg::{
    for_each_target_slot, pearson, pearson_on_common, pearson_on_common_alloc, pearson_on_view,
    RequestView, RowWords,
};
use proptest::prelude::*;

/// Build one sorted sparse row from a dense mask: entry `i` is present when
/// `mask[i]` is true, with value `vals[i]`.
fn sparse_row(mask: &[bool], vals: &[f64]) -> (Vec<u32>, Vec<f64>) {
    let mut cols = Vec::new();
    let mut out = Vec::new();
    for (i, (&m, &v)) in mask.iter().zip(vals).enumerate() {
        if m {
            cols.push(i as u32);
            out.push(v);
        }
    }
    (cols, out)
}

/// The occupancy-word weight kernel over `(ca, va)` as the request profile
/// and `(cb, vb)` as the indexed row, with the view covering every column
/// either side stores.
fn view_pearson(ca: &[u32], va: &[f64], cb: &[u32], vb: &[f64]) -> (f64, usize) {
    let width = ca.iter().chain(cb).max().map_or(0, |&m| m as usize + 1);
    let view = RequestView::build(width, ca, va, &[]);
    pearson_on_view(&view, &RowWords::from_sorted(cb), vb)
}

/// Classic two-pointer merge of a sorted row against a sorted target list:
/// `(target slot, value bits)` per match, in ascending column order.
fn two_pointer_slots(cr: &[u32], vr: &[f64], ct: &[u32]) -> Vec<(usize, u64)> {
    let mut want = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < cr.len() && j < ct.len() {
        match cr[i].cmp(&ct[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                want.push((j, vr[i].to_bits()));
                i += 1;
                j += 1;
            }
        }
    }
    want
}

/// Columns a word kernel handles specially: both sides of the 64- and
/// 128-column word boundaries.
const EDGE_COLS: [u32; 8] = [0, 1, 62, 63, 64, 65, 127, 128];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn percentile_is_monotone_in_p(xs in prop::collection::vec(-1e6f64..1e6, 1..200),
                                   p1 in 0.0f64..100.0, p2 in 0.0f64..100.0) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        prop_assert!(percentile(&xs, lo) <= percentile(&xs, hi) + 1e-9);
    }

    #[test]
    fn percentile_bounded_by_min_max(xs in prop::collection::vec(-1e6f64..1e6, 1..200),
                                     p in 0.0f64..100.0) {
        let v = percentile(&xs, p);
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(v >= min - 1e-9 && v <= max + 1e-9);
    }

    #[test]
    fn percentiles_struct_agrees_with_function(xs in prop::collection::vec(-1e3f64..1e3, 1..100),
                                               p in 0.0f64..100.0) {
        let s = Percentiles::new(xs.clone());
        prop_assert!((s.get(p) - percentile(&xs, p)).abs() < 1e-9);
    }

    #[test]
    fn streaming_stats_match_batch(xs in prop::collection::vec(-1e3f64..1e3, 2..200)) {
        let mut s = StreamingStats::new();
        for &x in &xs {
            s.push(x);
        }
        prop_assert!((s.mean() - mean(&xs)).abs() < 1e-6);
        prop_assert!((s.variance() - variance(&xs)).abs() < 1e-4 * (1.0 + variance(&xs)));
    }

    #[test]
    fn streaming_merge_is_order_independent(xs in prop::collection::vec(-1e3f64..1e3, 2..100),
                                            cut in 1usize..99) {
        let cut = cut.min(xs.len() - 1);
        let mut a = StreamingStats::new();
        let mut b = StreamingStats::new();
        for &x in &xs[..cut] { a.push(x); }
        for &x in &xs[cut..] { b.push(x); }
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        prop_assert!((ab.mean() - ba.mean()).abs() < 1e-9);
        prop_assert!((ab.variance() - ba.variance()).abs() < 1e-6);
        prop_assert_eq!(ab.count(), ba.count());
    }

    #[test]
    fn pearson_is_symmetric_and_bounded(pairs in prop::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 2..60)) {
        let (a, b): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
        let ab = pearson(&a, &b);
        let ba = pearson(&b, &a);
        prop_assert!((ab - ba).abs() < 1e-12);
        prop_assert!((-1.0..=1.0).contains(&ab));
    }

    #[test]
    fn pearson_invariant_to_affine_transform(pairs in prop::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 3..60),
                                             scale in 0.1f64..10.0, shift in -50.0f64..50.0) {
        let (a, b): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
        let a2: Vec<f64> = a.iter().map(|x| x * scale + shift).collect();
        let r1 = pearson(&a, &b);
        let r2 = pearson(&a2, &b);
        prop_assert!((r1 - r2).abs() < 1e-6, "{} vs {}", r1, r2);
    }

    #[test]
    fn streaming_pearson_equals_allocating_on_random_sparse_rows(
        entries in prop::collection::vec((0u32..2, 0u32..2, 0.5f64..5.0, 0.5f64..5.0), 0..80),
    ) {
        // Random presence masks produce arbitrary partial overlap between
        // the two rows (including empty and single-item intersections).
        let mask_a: Vec<bool> = entries.iter().map(|e| e.0 == 1).collect();
        let mask_b: Vec<bool> = entries.iter().map(|e| e.1 == 1).collect();
        let vals_a: Vec<f64> = entries.iter().map(|e| e.2).collect();
        let vals_b: Vec<f64> = entries.iter().map(|e| e.3).collect();
        let (ca, va) = sparse_row(&mask_a, &vals_a);
        let (cb, vb) = sparse_row(&mask_b, &vals_b);
        let (w_stream, n_stream) = pearson_on_common(&ca, &va, &cb, &vb);
        let (w_alloc, n_alloc) = pearson_on_common_alloc(&ca, &va, &cb, &vb);
        prop_assert_eq!(n_stream, n_alloc);
        prop_assert!((w_stream - w_alloc).abs() < 1e-9,
                     "streaming {} vs allocating {}", w_stream, w_alloc);
    }

    #[test]
    fn streaming_pearson_bounded_and_symmetric(
        entries in prop::collection::vec((0u32..2, 0u32..2, -100.0f64..100.0, -100.0f64..100.0), 0..60),
    ) {
        let mask_a: Vec<bool> = entries.iter().map(|e| e.0 == 1).collect();
        let mask_b: Vec<bool> = entries.iter().map(|e| e.1 == 1).collect();
        let vals_a: Vec<f64> = entries.iter().map(|e| e.2).collect();
        let vals_b: Vec<f64> = entries.iter().map(|e| e.3).collect();
        let (ca, va) = sparse_row(&mask_a, &vals_a);
        let (cb, vb) = sparse_row(&mask_b, &vals_b);
        let (ab, n1) = pearson_on_common(&ca, &va, &cb, &vb);
        let (ba, n2) = pearson_on_common(&cb, &vb, &ca, &va);
        prop_assert_eq!(n1, n2);
        prop_assert!((-1.0..=1.0).contains(&ab));
        prop_assert!((ab - ba).abs() < 1e-9);
    }

    #[test]
    fn sparse_pearson_equals_dense_on_full_overlap(vals in prop::collection::vec((0.0f64..5.0, 0.0f64..5.0), 2..40)) {
        let cols: Vec<u32> = (0..vals.len() as u32).collect();
        let (a, b): (Vec<f64>, Vec<f64>) = vals.into_iter().unzip();
        let (w, common) = pearson_on_common(&cols, &a, &cols, &b);
        prop_assert_eq!(common, cols.len());
        prop_assert!((w - pearson(&a, &b)).abs() < 1e-12);
    }

    // ---- occupancy-word kernel differentials ---------------------------------
    //
    // The word kernel must be *bit*-identical (`to_bits`) to the allocating
    // oracle, which the streaming kernel is itself pinned to. Column gaps
    // of 1..6 walk intersections across 64-wide word boundaries at every
    // alignment; `zero_var_a` forces constant (zero-variance) rows and
    // `nan_at` injects a NaN score to pin NaN propagation.

    #[test]
    fn word_kernel_bit_matches_oracle(
        entries in prop::collection::vec((0u32..2, 0u32..2, 1u32..6, 0.5f64..5.0, 0.5f64..5.0), 0..120),
        zero_var_a in 0u32..2,
        // Indices >= 120 never match an entry, so half the draws inject no NaN.
        nan_at in 0usize..240,
    ) {
        let mut col = 0u32;
        let (mut ca, mut va) = (Vec::new(), Vec::new());
        let (mut cb, mut vb) = (Vec::new(), Vec::new());
        for (i, &(pa, pb, gap, x, y)) in entries.iter().enumerate() {
            col += gap;
            let mut x = if zero_var_a == 1 { 2.5 } else { x };
            if nan_at == i {
                x = f64::NAN;
            }
            if pa == 1 {
                ca.push(col);
                va.push(x);
            }
            if pb == 1 {
                cb.push(col);
                vb.push(y);
            }
        }
        let (w_oracle, n_oracle) = pearson_on_common_alloc(&ca, &va, &cb, &vb);
        let variants = [
            ("streaming", pearson_on_common(&ca, &va, &cb, &vb)),
            ("words", view_pearson(&ca, &va, &cb, &vb)),
        ];
        for (name, (w, n)) in variants {
            prop_assert_eq!(n, n_oracle, "{}: common count", name);
            prop_assert_eq!(w.to_bits(), w_oracle.to_bits(),
                            "{}: {} vs oracle {}", name, w, w_oracle);
        }
    }

    #[test]
    fn word_kernel_bit_matches_oracle_at_word_edges(
        // Per column of 0..192: present in a / in b, and both values.
        entries in prop::collection::vec((0u32..4, 0u32..4, 0.5f64..5.0, 0.5f64..5.0), 192),
        // 0: random presence; 1: every column present (full words); 2: only
        // the word-edge columns present.
        shape_a in 0u32..3,
        shape_b in 0u32..3,
        zero_var in 0u32..3,
        nan_at in 0usize..384,
    ) {
        let present = |shape: u32, draw: u32, c: u32| match shape {
            0 => draw == 0,
            1 => true,
            _ => EDGE_COLS.contains(&c),
        };
        let (mut ca, mut va) = (Vec::new(), Vec::new());
        let (mut cb, mut vb) = (Vec::new(), Vec::new());
        for (c, &(da, db, x, y)) in entries.iter().enumerate() {
            let c = c as u32;
            let x = if nan_at == c as usize { f64::NAN } else if zero_var == 1 { 2.5 } else { x };
            let y = if zero_var == 2 { 4.0 } else { y };
            if present(shape_a, da, c) {
                ca.push(c);
                va.push(x);
            }
            if present(shape_b, db, c) {
                cb.push(c);
                vb.push(y);
            }
        }
        let (w_oracle, n_oracle) = pearson_on_common_alloc(&ca, &va, &cb, &vb);
        let (w, n) = view_pearson(&ca, &va, &cb, &vb);
        prop_assert_eq!(n, n_oracle);
        prop_assert_eq!(w.to_bits(), w_oracle.to_bits(), "{} vs oracle {}", w, w_oracle);
    }

    #[test]
    fn empty_and_disjoint_intersections_are_exactly_zero(
        cols_a in prop::collection::vec(1u32..6, 0..40),
        cols_b in prop::collection::vec(1u32..6, 0..40),
    ) {
        // Make the rows provably disjoint: evens for `a`, odds for `b`.
        let mut col = 0u32;
        let ca: Vec<u32> = cols_a.iter().map(|&g| { col += g; col * 2 }).collect();
        let mut col = 0u32;
        let cb: Vec<u32> = cols_b.iter().map(|&g| { col += g; col * 2 + 1 }).collect();
        let va = vec![1.5; ca.len()];
        let vb = vec![2.5; cb.len()];
        let (w, n) = view_pearson(&ca, &va, &cb, &vb);
        prop_assert_eq!(n, 0);
        prop_assert_eq!(w.to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn row_words_round_trip_sorted_columns(
        entries in prop::collection::vec(1u32..9, 0..100),
    ) {
        let mut col = 0u32;
        let cols: Vec<u32> = entries.iter().map(|&gap| { col += gap; col }).collect();
        let row = RowWords::from_sorted(&cols);
        prop_assert_eq!(row.nnz(), cols.len());
        prop_assert_eq!(row.cols().collect::<Vec<_>>(), cols.clone());
        // Each word's base is the CSR position of its first column.
        let mut pos = 0usize;
        for w in row.words() {
            prop_assert_eq!(w.base as usize, pos);
            pos += w.mask.count_ones() as usize;
        }
    }

    #[test]
    fn target_walk_matches_two_pointer_reference(
        entries in prop::collection::vec((0u32..2, 0u32..2, 1u32..6, -10.0f64..10.0), 0..100),
        full_row in 0u32..2,
    ) {
        let mut col = 0u32;
        let (mut cr, mut vr) = (Vec::new(), Vec::new());
        let mut ct = Vec::new();
        for &(pr, pt, gap, v) in &entries {
            // A full row stores every column up to the last, so its words
            // are full wherever it spans a whole 64-column block.
            let first = col + 1;
            col += gap;
            if full_row == 1 {
                for c in first..=col {
                    cr.push(c);
                    vr.push(v + c as f64);
                }
            } else if pr == 1 {
                cr.push(col);
                vr.push(v);
            }
            if pt == 1 {
                ct.push(col);
            }
        }
        let want = two_pointer_slots(&cr, &vr, &ct);
        let view = RequestView::build(col as usize + 1, &[], &[], &ct);
        let mut got: Vec<(usize, u64)> = Vec::new();
        for_each_target_slot(&view, &RowWords::from_sorted(&cr), &vr, |slot, v| {
            got.push((slot, v.to_bits()))
        });
        prop_assert_eq!(got, want);
    }

    #[test]
    fn recycled_view_matches_fresh_view(
        first in prop::collection::vec((0u32..2, 0u32..2, 0.5f64..5.0), 200),
        second in prop::collection::vec((0u32..2, 0u32..2, 0.5f64..5.0), 200),
        row in prop::collection::vec((0u32..2, 0.5f64..5.0), 200),
    ) {
        let side = |draws: &[(u32, u32, f64)]| {
            let mut prof = (Vec::new(), Vec::new());
            let mut targets = Vec::new();
            for (c, &(p, t, v)) in draws.iter().enumerate() {
                if p == 1 {
                    prof.0.push(c as u32);
                    prof.1.push(v);
                } else if t == 1 {
                    targets.push(c as u32);
                }
            }
            (prof, targets)
        };
        let ((ca, va), ta) = side(&first);
        let ((cb, vb), tb) = side(&second);
        let (cr, vr): (Vec<u32>, Vec<f64>) = row
            .iter()
            .enumerate()
            .filter(|(_, &(p, _))| p == 1)
            .map(|(c, &(_, v))| (c as u32, v))
            .unzip();
        let words = RowWords::from_sorted(&cr);
        let mut recycled = RequestView::build(200, &ca, &va, &ta);
        recycled.rebuild(200, &cb, &vb, &tb);
        let fresh = RequestView::build(200, &cb, &vb, &tb);
        let (wr, nr) = pearson_on_view(&recycled, &words, &vr);
        let (wf, nf) = pearson_on_view(&fresh, &words, &vr);
        prop_assert_eq!(nr, nf);
        prop_assert_eq!(wr.to_bits(), wf.to_bits());
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for_each_target_slot(&recycled, &words, &vr, |s, v| got.push((s, v.to_bits())));
        for_each_target_slot(&fresh, &words, &vr, |s, v| want.push((s, v.to_bits())));
        prop_assert_eq!(got, want);
    }
}
