//! Pre-optimisation replicas of the serving hot path, kept as the
//! **"before"** side of the hot-path benchmarks (`BENCH_hotpath.json` and
//! `cargo bench -p at-bench --bench hotpath`).
//!
//! Two deliberate regressions are reproduced here so the perf trajectory
//! keeps an honest baseline:
//!
//! * [`AllocCfService`] — the PR-1 CF adapter behaviour: every Pearson
//!   weight allocates two intersection vectors
//!   ([`at_linalg::pearson_on_common_alloc`]), each synopsis weight is
//!   computed twice (once for the correlation estimate, once inside the
//!   accumulator), neighbour means are rescanned per request, and targets
//!   are found by per-target binary search.
//! * [`execute_eager`] — the eager driver: a full `O(m log m)`
//!   [`at_core::rank`] sort regardless of how many sets the budget will
//!   consume.
//!
//! Serving code must never use this module; it exists to be measured
//! against.

use std::time::Instant;

use at_core::{rank, ApproximateService, Component, Correlation, Ctx, Outcome};
use at_linalg::pearson_on_common_alloc;
use at_recommender::{ActiveUser, PredictionAcc};
use at_rtree::NodeId;
use at_synopsis::SparseRow;

/// Two synthetic sparse rating rows with ~2/3 overlap — the shape of one
/// CF weight computation. Shared by the criterion bench and the `hotpath`
/// binary so the recorded trajectory and the interactive bench always
/// measure the same workload.
///
/// Both column lists are strictly ascending, the contract of every sparse
/// kernel: `cols_a` takes two of every three columns, and `cols_b` is
/// `cols_a` with two of every six entries moved one column up (an odd
/// entry sits two below the next one, so the move never collides).
pub fn pearson_inputs(nnz: usize) -> (Vec<u32>, Vec<f64>, Vec<u32>, Vec<f64>) {
    let cols_a: Vec<u32> = (0..nnz as u32).map(|i| i * 3 / 2).collect();
    let cols_b: Vec<u32> = (0..nnz as u32)
        .map(|i| i * 3 / 2 + u32::from(i % 6 == 1 || i % 6 == 3))
        .collect();
    let vals_a: Vec<f64> = (0..nnz).map(|i| 1.0 + (i % 5) as f64).collect();
    let vals_b: Vec<f64> = (0..nnz).map(|i| 5.0 - (i % 4) as f64).collect();
    (cols_a, vals_a, cols_b, vals_b)
}

/// `m` correlations with a pseudo-random (Knuth-hash) score distribution —
/// the input shape of the ranking microbenches.
pub fn synthetic_correlations(m: usize) -> Vec<Correlation> {
    (0..m)
        .map(|i| Correlation {
            node: NodeId::from_index(i as u32),
            score: ((i * 2654435761) % 1000) as f64 / 1000.0,
        })
        .collect()
}

/// The allocating Pearson weight with the CF minimum-common-items rule.
fn weight_alloc(active: &SparseRow, neighbor: &SparseRow) -> f64 {
    let (w, common) =
        pearson_on_common_alloc(&active.cols, &active.vals, &neighbor.cols, &neighbor.vals);
    if common < at_recommender::predict::MIN_COMMON_ITEMS {
        0.0
    } else {
        w
    }
}

/// The PR-1 accumulator: recomputes the weight and the neighbour mean on
/// every call, and binary-searches the neighbour row once per target.
fn accumulate_alloc(
    active: &ActiveUser,
    neighbor: &SparseRow,
    multiplier: f64,
    acc: &mut [PredictionAcc],
) {
    let w = weight_alloc(&active.profile, neighbor);
    if w == 0.0 || neighbor.vals.is_empty() {
        return;
    }
    let neighbor_mean = neighbor.vals.iter().sum::<f64>() / neighbor.vals.len() as f64;
    for (t, a) in active.targets.iter().zip(acc.iter_mut()) {
        if let Some(r) = neighbor.get(*t) {
            a.num += w * (r - neighbor_mean) * multiplier;
            a.den += w.abs() * multiplier;
        }
    }
}

/// The CF service as it behaved before the zero-allocation pass — a
/// drop-in [`ApproximateService`] over the same component state, so the
/// benchmarks replay identical requests through old and new code paths.
#[derive(Clone, Copy, Debug, Default)]
pub struct AllocCfService;

impl ApproximateService for AllocCfService {
    type Request = ActiveUser;
    type Output = Vec<PredictionAcc>;

    fn process_synopsis(
        &self,
        ctx: Ctx<'_>,
        req: &ActiveUser,
        corr: &mut Vec<Correlation>,
    ) -> Self::Output {
        let mut acc = vec![PredictionAcc::default(); req.targets.len()];
        for p in ctx.store.synopsis().iter() {
            // Weight computed once here...
            let w = weight_alloc(&req.profile, &p.info);
            corr.push(Correlation {
                node: p.node,
                score: w.abs(),
            });
            // ...and a second time inside the accumulator (the PR-1 bug).
            accumulate_alloc(req, &p.info, p.member_count as f64, &mut acc);
        }
        acc
    }

    fn improve(
        &self,
        ctx: Ctx<'_>,
        req: &ActiveUser,
        out: &mut Self::Output,
        node: NodeId,
        members: &[u64],
    ) {
        if let Some(p) = ctx.store.synopsis().point(node) {
            accumulate_alloc(req, &p.info, -(p.member_count as f64), out);
        }
        for &m in members {
            accumulate_alloc(req, ctx.dataset.row(m), 1.0, out);
        }
    }

    fn process_exact(&self, ctx: Ctx<'_>, req: &ActiveUser) -> Self::Output {
        let mut acc = vec![PredictionAcc::default(); req.targets.len()];
        for id in ctx.dataset.ids() {
            accumulate_alloc(req, ctx.dataset.row(id), 1.0, &mut acc);
        }
        acc
    }
}

/// The eager budgeted driver: stage 1 into a fresh vector, a full
/// `O(m log m)` sort, then the same best-first improvement loop —
/// `Algorithm1::execute` before lazy ranking. Deterministic (no deadline),
/// so before/after replays process identical sets.
pub fn execute_eager<C: ApproximateService, S: ApproximateService>(
    component: &Component<C>,
    service: &S,
    req: &S::Request,
    sets: usize,
) -> Outcome<S::Output> {
    let ctx = component.ctx();
    let mut corr = Vec::new();
    let mut out = service.process_synopsis(ctx, req, &mut corr);
    let total = corr.len();
    let ranked = rank(corr);
    let mut processed = 0usize;
    let mut skipped = 0usize;
    for c in &ranked {
        if processed >= sets {
            break;
        }
        match ctx.store.index().members(c.node) {
            Some(members) => {
                service.improve(ctx, req, &mut out, c.node, members);
                processed += 1;
            }
            None => skipped += 1,
        }
    }
    Outcome {
        output: out,
        sets_processed: processed,
        sets_total: total,
        sets_skipped: skipped,
    }
}

/// Replay `requests` against every component under a deterministic set
/// budget using the **current** lazy/streaming path; returns elapsed
/// seconds (outputs are black-boxed).
pub fn replay_current(deployment: &crate::deployments::RecDeployment, budget: usize) -> f64 {
    let policy = at_core::ExecutionPolicy::budgeted(budget);
    let t = Instant::now();
    for req in &deployment.requests {
        for c in deployment.service.components() {
            std::hint::black_box(c.execute(&req.active, &policy, Instant::now()));
        }
    }
    t.elapsed().as_secs_f64()
}

/// Replay `requests` using the **baseline** eager-sort + allocating path
/// over the same components; returns elapsed seconds.
pub fn replay_baseline(deployment: &crate::deployments::RecDeployment, budget: usize) -> f64 {
    let svc = AllocCfService;
    let t = Instant::now();
    for req in &deployment.requests {
        for c in deployment.service.components() {
            std::hint::black_box(execute_eager(c, &svc, &req.active, budget));
        }
    }
    t.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployments::{build_recommender, DeployScale};
    use at_core::{ComposableService, ExecutionPolicy};
    use at_recommender::CfService;

    /// Every sparse kernel assumes strictly ascending columns; on input
    /// that breaks it the kernels disagree, so the bench input must keep it.
    #[test]
    fn pearson_inputs_are_strictly_ascending_and_kernels_agree() {
        for nnz in [16usize, 128, 200, 1024] {
            let (ca, va, cb, vb) = pearson_inputs(nnz);
            assert_eq!((ca.len(), cb.len()), (nnz, nnz));
            assert!(ca.windows(2).all(|w| w[0] < w[1]), "cols_a at nnz {nnz}");
            assert!(cb.windows(2).all(|w| w[0] < w[1]), "cols_b at nnz {nnz}");
            let width = (ca[nnz - 1].max(cb[nnz - 1]) + 1) as usize;
            let view = at_linalg::RequestView::build(width, &ca, &va, &[]);
            let words = at_linalg::RowWords::from_sorted(&cb);
            let (ws, ns) = at_linalg::pearson_on_common(&ca, &va, &cb, &vb);
            let (wv, nv) = at_linalg::pearson_on_view(&view, &words, &vb);
            assert_eq!(ns, nv, "common count at nnz {nnz}");
            assert_eq!(ws.to_bits(), wv.to_bits(), "weight at nnz {nnz}");
        }
    }

    /// The baseline must be *faithful*: same predictions as the current
    /// path under the same budget, or the benchmark compares apples to
    /// oranges.
    #[test]
    fn baseline_predictions_match_current_path() {
        let d = build_recommender(DeployScale::quick());
        let policy = ExecutionPolicy::budgeted(5);
        for req in d.requests.iter().take(6) {
            let current: Vec<_> = d
                .service
                .components()
                .iter()
                .map(|c| c.execute(&req.active, &policy, Instant::now()).output)
                .collect();
            let baseline: Vec<_> = d
                .service
                .components()
                .iter()
                .map(|c| {
                    execute_eager(c, &AllocCfService, &req.active, 5)
                        .output
                        .into()
                })
                .collect();
            let pc = CfService.compose(&req.active, &current);
            let pb = CfService.compose(&req.active, &baseline);
            for (a, b) in pc.iter().zip(&pb) {
                assert!((a - b).abs() < 1e-9, "current {a} vs baseline {b}");
            }
        }
    }
}
