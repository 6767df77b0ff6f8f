//! AccuracyTrader adapter for the CF recommender.
//!
//! Maps the paper's recommender semantics onto the [`ApproximateService`]
//! hooks:
//!
//! * **Correlation estimate** `c_i` — the Pearson weight between the active
//!   user and an *aggregated user* (ranked by magnitude: the paper calls an
//!   original user highly related when its weight is > 0.8 or < −0.8).
//! * **Initial result** — the weighted-average prediction computed over the
//!   aggregated users, each standing in for `member_count` originals.
//! * **Improvement** — replace one aggregated user's estimated contribution
//!   with the exact contributions of its member users.

use at_core::{ApproximateService, ComposableService, Correlation, Ctx};
use at_linalg::{RequestView, RowWords};
use at_rtree::NodeId;

use crate::predict::{accumulate_neighbor_view, user_weight, user_weight_view, PredictionAcc};
use crate::ratings::ActiveUser;

/// One component leg's output: the per-target prediction sums, plus the
/// scratch every stage of that leg reuses.
///
/// Stage 1 builds the request's [`RequestView`] here once, and records the
/// signed weight of every aggregated user; each stage-2 `improve` of the
/// same leg then reads both instead of rebuilding the view or re-weighing
/// the aggregated user it backs out. Outputs are pooled like any service
/// output (`at_core::OutputPool`), so a recycled `CfOutput` keeps the
/// storage of its view and weight table and a warm leg allocates nothing.
///
/// Equality compares the prediction sums only: the view and the weights
/// are derived from the request and the component's synopsis.
#[derive(Clone, Debug, Default)]
pub struct CfOutput {
    /// One partial sum per target, parallel to `ActiveUser::targets`.
    pub acc: Vec<PredictionAcc>,
    /// The request's view over the component's columns.
    view: RequestView,
    /// Signed stage-1 weight of each aggregated user, by synopsis position.
    weights: Vec<f64>,
}

impl PartialEq for CfOutput {
    fn eq(&self, other: &Self) -> bool {
        self.acc == other.acc
    }
}

/// Bare prediction sums (no view, no stage-1 weights) — for composing
/// partial sums that were computed elsewhere.
impl From<Vec<PredictionAcc>> for CfOutput {
    fn from(acc: Vec<PredictionAcc>) -> Self {
        CfOutput {
            acc,
            ..CfOutput::default()
        }
    }
}

/// The user-based CF service, AccuracyTrader-enabled.
///
/// The per-request path computes each neighbour's Pearson weight **exactly
/// once** (it serves both as the correlation estimate and the prediction
/// weight, and stage 2 reuses the stage-1 weight of the aggregated user it
/// backs out) and reads neighbour means from the stores' cached
/// [`at_linalg::RowStats`] — no per-neighbour allocation or value rescans.
/// Both kernels ([`user_weight_view`] / [`accumulate_neighbor_view`]) walk
/// the stores' occupancy-word indexes against the request view in the
/// leg's [`CfOutput`] — bit-identical to the scalar merges, so the layout
/// is purely a perf decision.
///
/// Batch-aware: `process_synopsis_batch` makes **one** pass over the
/// synopsis shared by every request of a batch (aggregated users outer,
/// requests inner — bit-identical to the per-request pass), cache-tiled
/// over the request dimension so a tile's views and accumulators stay
/// L1-resident across the whole synopsis stream, and
/// `process_synopsis_into` resets recycled outputs in place so pooled
/// serving allocates nothing for outputs.
#[derive(Clone, Copy, Debug, Default)]
pub struct CfService;

/// Reset a (possibly recycled) output for `req` on the component of `ctx`:
/// one zeroed slot per target, the request's view, no stage-1 weights.
///
/// The view covers the columns up to the request's last profile or target
/// column, capped at the component's feature dimension: no stored row has
/// a column past either bound that the request could match.
fn reset_output(out: &mut CfOutput, ctx: Ctx<'_>, req: &ActiveUser) {
    out.acc.clear();
    out.acc.resize(req.targets.len(), PredictionAcc::default());
    let last = req.profile.cols.last().max(req.targets.last());
    let width = last
        .map_or(0, |&c| c as usize + 1)
        .min(ctx.dataset.feature_dim());
    out.view
        .rebuild(width, &req.profile.cols, &req.profile.vals, &req.targets);
    out.weights.clear();
}

/// Process one aggregated user for one request: record its weight, push
/// its correlation estimate and fold its estimated contribution into the
/// accumulator. The single op sequence shared by the per-request and
/// batched stage-1 passes, so both produce bit-identical results.
fn synopsis_step(
    p: &at_synopsis::AggregatedPoint,
    words: &RowWords,
    stats: at_linalg::RowStats,
    corr: &mut Vec<Correlation>,
    out: &mut CfOutput,
) {
    // One weight per aggregated user: it is both the correlation
    // estimate c_i and the prediction weight.
    let (w, _) = user_weight_view(&out.view, words, &p.info.vals);
    out.weights.push(w);
    corr.push(Correlation {
        node: p.node,
        score: w.abs(),
    });
    accumulate_neighbor_view(
        &out.view,
        words,
        &p.info.vals,
        w,
        stats.mean(),
        p.member_count as f64,
        &mut out.acc,
    );
}

impl ApproximateService for CfService {
    type Request = ActiveUser;
    type Output = CfOutput;

    fn process_synopsis(
        &self,
        ctx: Ctx<'_>,
        req: &ActiveUser,
        corr: &mut Vec<Correlation>,
    ) -> Self::Output {
        let mut out = CfOutput::default();
        self.process_synopsis_into(ctx, req, corr, &mut out);
        out
    }

    fn process_synopsis_into(
        &self,
        ctx: Ctx<'_>,
        req: &ActiveUser,
        corr: &mut Vec<Correlation>,
        out: &mut Self::Output,
    ) {
        reset_output(out, ctx, req);
        let synopsis = ctx.store.synopsis();
        corr.reserve(synopsis.len());
        out.weights.reserve(synopsis.len());
        for ((p, stats), words) in synopsis
            .points_with_stats()
            .iter()
            .zip(synopsis.points_words())
        {
            synopsis_step(p, words, *stats, corr, out);
        }
    }

    fn process_synopsis_batch(
        &self,
        ctx: Ctx<'_>,
        reqs: &[ActiveUser],
        corrs: &mut [Vec<Correlation>],
        outs: &mut Vec<Self::Output>,
    ) {
        let synopsis = ctx.store.synopsis();
        let points = synopsis.points_with_stats();
        let words = synopsis.points_words();
        at_core::prepare_outputs(
            outs,
            reqs.len(),
            |out, i| reset_output(out, ctx, &reqs[i]),
            // Pool-miss fallback: runs once per buffer ever in flight; warm
            // batches take the reset branch.
            |i| {
                let mut out = CfOutput::default();
                reset_output(&mut out, ctx, &reqs[i]);
                out
            },
        );
        for (corr, out) in corrs.iter_mut().zip(outs.iter_mut()) {
            corr.reserve(points.len());
            out.weights.reserve(points.len());
        }
        // Cache-tiled pass: requests are cut into tiles sized once per
        // batch (from the batch width and the mean aggregated-row nnz) so
        // one tile's views and accumulators stay L1-resident while the
        // whole synopsis streams past; within a tile the loop is still
        // points-outer/requests-inner, so every request sees every point
        // in node-id order and the per-request op order matches
        // `process_synopsis_into` exactly — tiling moves no FP bits.
        let total_nnz: usize = points.iter().map(|(_, s)| s.nnz).sum();
        let tile = at_core::batch_tile_span(reqs.len(), total_nnz / points.len().max(1));
        let mut start = 0usize;
        while start < reqs.len() {
            let end = (start + tile).min(reqs.len());
            for ((p, stats), pw) in points.iter().zip(words) {
                for (corr, out) in corrs[start..end]
                    .iter_mut()
                    .zip(outs[start..end].iter_mut())
                {
                    synopsis_step(p, pw, *stats, corr, out);
                }
            }
            start = end;
        }
    }

    /// Reads the view and stage-1 weights that stage 1 left in `out`, so
    /// `out` must come from `process_synopsis*` for `req` on this
    /// component (as the Algorithm 1 drivers guarantee).
    fn improve(
        &self,
        ctx: Ctx<'_>,
        _req: &ActiveUser,
        out: &mut Self::Output,
        node: NodeId,
        members: &[u64],
    ) {
        // Back out the aggregated user's estimated contribution, with the
        // weight stage 1 gave it...
        if let Some((i, p, stats, words)) = ctx.store.synopsis().point_full(node) {
            let w = match out.weights.get(i) {
                Some(&w) => w,
                None => user_weight_view(&out.view, words, &p.info.vals).0,
            };
            accumulate_neighbor_view(
                &out.view,
                words,
                &p.info.vals,
                w,
                stats.mean(),
                -(p.member_count as f64),
                &mut out.acc,
            );
        }
        // ...and put in the exact contributions of its original users.
        for &m in members {
            let (words, vals) = (ctx.dataset.row_words(m), &ctx.dataset.row(m).vals);
            let (w, _) = user_weight_view(&out.view, words, vals);
            accumulate_neighbor_view(
                &out.view,
                words,
                vals,
                w,
                ctx.dataset.row_stats(m).mean(),
                1.0,
                &mut out.acc,
            );
        }
    }

    fn process_exact(&self, ctx: Ctx<'_>, req: &ActiveUser) -> Self::Output {
        let mut out = CfOutput::default();
        reset_output(&mut out, ctx, req);
        for id in ctx.dataset.ids() {
            let (words, vals) = (ctx.dataset.row_words(id), &ctx.dataset.row(id).vals);
            let (w, _) = user_weight_view(&out.view, words, vals);
            accumulate_neighbor_view(
                &out.view,
                words,
                vals,
                w,
                ctx.dataset.row_stats(id).mean(),
                1.0,
                &mut out.acc,
            );
        }
        out
    }
}

impl ComposableService for CfService {
    type Response = Vec<f64>;

    /// Merge per-component partial sums into final predictions (one per
    /// target), using the active user's mean as the baseline — the paper's
    /// composing component for the recommender.
    fn compose(&self, req: &ActiveUser, parts: &[CfOutput]) -> Vec<f64> {
        let mut total = vec![PredictionAcc::default(); req.targets.len()];
        for part in parts {
            assert_eq!(
                part.acc.len(),
                total.len(),
                "component output arity mismatch"
            );
            for (t, p) in total.iter_mut().zip(&part.acc) {
                t.merge(p);
            }
        }
        let mean = req.mean_rating();
        total.iter().map(|a| a.predict(mean)).collect()
    }
}

/// Figure 4(a) analysis: rank aggregated users by |weight| to `req`, split
/// into `n_sections`, and return each section's percentage of *original*
/// users that are highly related (|weight| > `threshold`, paper: 0.8).
pub fn section_relatedness(
    ctx: Ctx<'_>,
    req: &ActiveUser,
    threshold: f64,
    n_sections: usize,
) -> Vec<f64> {
    let service = CfService;
    let mut corr = Vec::new();
    service.process_synopsis(ctx, req, &mut corr);
    let ranked = at_core::rank(corr);
    let sections = at_core::sections(&ranked, n_sections);
    sections
        .iter()
        .map(|sec| {
            let mut related = 0usize;
            let mut total = 0usize;
            for c in *sec {
                let members = ctx.store.index().members(c.node).expect("indexed node");
                for &m in members {
                    let (w, _) = user_weight(&req.profile, ctx.dataset.row(m));
                    if w.abs() > threshold {
                        related += 1;
                    }
                    total += 1;
                }
            }
            if total == 0 {
                0.0
            } else {
                related as f64 / total as f64 * 100.0
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ratings::rating_matrix;
    use at_core::{Component, ExecutionPolicy};
    use at_linalg::svd::SvdConfig;
    use at_synopsis::{AggregationMode, SparseRow, SynopsisConfig};
    use at_workloads::{RatingsConfig, RatingsDataset};
    use std::time::Instant;

    fn component() -> (Component<CfService>, RatingsDataset) {
        let data = RatingsDataset::generate(RatingsConfig {
            n_users: 300,
            n_items: 80,
            ratings_per_user: 30,
            ..RatingsConfig::small()
        });
        let matrix = rating_matrix(300, 80, &data.ratings);
        let cfg = SynopsisConfig {
            svd: SvdConfig::default().with_epochs(25),
            size_ratio: 15,
            ..SynopsisConfig::default()
        };
        let (c, _) = Component::build(matrix, AggregationMode::Mean, cfg, CfService);
        (c, data)
    }

    fn compose(req: &ActiveUser, parts: &[CfOutput]) -> Vec<f64> {
        CfService.compose(req, parts)
    }

    fn active(data: &RatingsDataset, user: u32, targets: Vec<u32>) -> ActiveUser {
        let pairs: Vec<(u32, f64)> = data
            .ratings
            .iter()
            .filter(|r| r.user == user && !targets.contains(&r.item))
            .map(|r| (r.item, r.stars))
            .collect();
        ActiveUser::new(SparseRow::from_pairs(pairs), targets)
    }

    #[test]
    fn full_budget_matches_exact() {
        let (c, data) = component();
        let req = active(&data, 3, vec![1, 5, 9]);
        let approx = c.execute(&req, &ExecutionPolicy::budgeted(usize::MAX), Instant::now());
        let exact = c.execute(&req, &ExecutionPolicy::Exact, Instant::now());
        let pa = compose(&req, &[approx.output]);
        let pe = compose(&req, &[exact.output]);
        for (a, e) in pa.iter().zip(&pe) {
            assert!(
                (a - e).abs() < 1e-6,
                "fully-improved approx must equal exact: {a} vs {e}"
            );
        }
    }

    #[test]
    fn zero_budget_predictions_are_plausible() {
        let (c, data) = component();
        let req = active(&data, 10, vec![2, 4]);
        let o = c.execute(&req, &ExecutionPolicy::SynopsisOnly, Instant::now());
        let preds = compose(&req, &[o.output]);
        for p in preds {
            assert!((1.0..=5.0).contains(&p));
        }
    }

    #[test]
    fn more_budget_reduces_error_vs_exact() {
        let (c, data) = component();
        // Average |approx - exact| over several users and targets must not
        // increase with budget.
        let mut err_by_budget = Vec::new();
        for budget in [0usize, 2, usize::MAX] {
            let mut err = 0.0;
            let mut n = 0;
            for user in [1u32, 7, 21, 40] {
                let req = active(&data, user, vec![0, 3, 6]);
                let approx = compose(
                    &req,
                    &[
                        c.execute(&req, &ExecutionPolicy::budgeted(budget), Instant::now())
                            .output,
                    ],
                );
                let exact = compose(
                    &req,
                    &[c.execute(&req, &ExecutionPolicy::Exact, Instant::now())
                        .output],
                );
                for (a, e) in approx.iter().zip(&exact) {
                    err += (a - e).abs();
                    n += 1;
                }
            }
            err_by_budget.push(err / n as f64);
        }
        assert!(
            err_by_budget[2] <= err_by_budget[0] + 1e-9,
            "error must shrink with budget: {err_by_budget:?}"
        );
        assert!(err_by_budget[2] < 1e-9, "full budget must be exact");
    }

    #[test]
    fn correlations_are_weight_magnitudes() {
        let (c, data) = component();
        let req = active(&data, 5, vec![0]);
        let svc = CfService;
        let mut corr = Vec::new();
        svc.process_synopsis(c.ctx(), &req, &mut corr);
        assert_eq!(corr.len(), c.store().synopsis().len());
        for cr in &corr {
            assert!((0.0..=1.0).contains(&cr.score), "|w| out of range");
        }
    }

    #[test]
    fn section_relatedness_decreases_with_rank() {
        // Needs a fine-grained synopsis: with only ~3 aggregated points,
        // sections would be degenerate. size_ratio 6 -> ~26 groups here.
        let data = RatingsDataset::generate(RatingsConfig {
            n_users: 300,
            n_items: 80,
            ratings_per_user: 30,
            ..RatingsConfig::small()
        });
        let matrix = rating_matrix(300, 80, &data.ratings);
        let cfg = SynopsisConfig {
            svd: SvdConfig::default().with_epochs(25),
            size_ratio: 6,
            ..SynopsisConfig::default()
        };
        let (c, _) = Component::build(matrix, AggregationMode::Mean, cfg, CfService);
        assert!(c.store().synopsis().len() >= 12, "need enough groups");
        // Average over several active users like the paper's 1000.
        let mut first = 0.0;
        let mut last = 0.0;
        let mut n = 0;
        for user in (0..60u32).step_by(5) {
            let req = active(&data, user, vec![0]);
            let sec = section_relatedness(c.ctx(), &req, 0.5, 4);
            first += sec[0];
            last += sec[3];
            n += 1;
        }
        first /= n as f64;
        last /= n as f64;
        assert!(
            first > last,
            "top-ranked sections must hold more related users: first {first}% vs last {last}%"
        );
    }

    #[test]
    fn batched_stage1_is_bit_identical_to_per_request() {
        let (c, data) = component();
        let svc = CfService;
        let reqs: Vec<ActiveUser> = [(3u32, vec![1, 5]), (10, vec![2]), (21, vec![0, 3, 6])]
            .into_iter()
            .map(|(u, t)| active(&data, u, t))
            .collect();
        let mut corrs = vec![Vec::new(); reqs.len()];
        // Seed one recycled buffer (stale contents) to prove the reset.
        let mut outs = vec![CfOutput::from(vec![
            PredictionAcc { num: 9.0, den: 9.0 };
            7
        ])];
        svc.process_synopsis_batch(c.ctx(), &reqs, &mut corrs, &mut outs);
        assert_eq!(outs.len(), reqs.len());
        for ((req, corr), out) in reqs.iter().zip(&corrs).zip(&outs) {
            let mut want_corr = Vec::new();
            let want_out = svc.process_synopsis(c.ctx(), req, &mut want_corr);
            assert_eq!(corr.len(), want_corr.len());
            for (a, b) in corr.iter().zip(&want_corr) {
                assert_eq!(a.node, b.node);
                assert_eq!(
                    a.score.to_bits(),
                    b.score.to_bits(),
                    "scores must be bit-identical"
                );
            }
            assert_eq!(out.acc.len(), want_out.acc.len());
            for (a, b) in out.acc.iter().zip(&want_out.acc) {
                assert_eq!(a.num.to_bits(), b.num.to_bits());
                assert_eq!(a.den.to_bits(), b.den.to_bits());
            }
        }
    }

    #[test]
    fn recycled_output_gives_the_new_requests_bits() {
        let (c, data) = component();
        let policy = ExecutionPolicy::budgeted(4);
        let pool = at_core::OutputPool::new();
        // Request A spans more columns than B, so A leaves view entries
        // behind that B's columns never cover.
        let a = active(&data, 3, vec![1, 5, 79]);
        let b = active(&data, 40, vec![2, 6]);
        let first = c.execute_pooled(&a, &policy, Instant::now(), &pool);
        pool.put(first.output);
        let recycled = c.execute_pooled(&b, &policy, Instant::now(), &pool);
        assert_eq!(pool.reuses(), 1, "B must run on A's recycled output");
        let fresh = c.execute(&b, &policy, Instant::now());
        assert_eq!(recycled.sets_processed, fresh.sets_processed);
        assert_eq!(recycled.output.acc.len(), fresh.output.acc.len());
        for (r, f) in recycled.output.acc.iter().zip(&fresh.output.acc) {
            assert_eq!(r.num.to_bits(), f.num.to_bits());
            assert_eq!(r.den.to_bits(), f.den.to_bits());
        }
    }

    #[test]
    fn compose_merges_components() {
        let (c, data) = component();
        let req = active(&data, 2, vec![1]);
        let exact = c
            .execute(&req, &ExecutionPolicy::Exact, Instant::now())
            .output;
        // Splitting one component's output into two halves then composing
        // must equal composing the whole.
        let whole = compose(&req, std::slice::from_ref(&exact));
        let half: Vec<PredictionAcc> = exact
            .acc
            .iter()
            .map(|a| PredictionAcc {
                num: a.num / 2.0,
                den: a.den / 2.0,
            })
            .collect();
        let split = compose(&req, &[half.clone().into(), half.into()]);
        assert!((whole[0] - split[0]).abs() < 1e-9);
    }
}
