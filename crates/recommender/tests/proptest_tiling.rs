//! Property test: the cache-tiled batched stage-1 pass must be bit-identical
//! to the per-request pass at *every* batch width — including widths that
//! span several tiles and widths that leave a ragged final tile.
//!
//! The component is built once (SVD training dominates the cost) and shared
//! across cases; each case draws a fresh random batch against it.

use std::sync::OnceLock;

use at_core::{ApproximateService, Component};
use at_linalg::svd::SvdConfig;
use at_recommender::{rating_matrix, ActiveUser, CfOutput, CfService};
use at_synopsis::{AggregationMode, SparseRow, SynopsisConfig};
use at_workloads::{RatingsConfig, RatingsDataset};
use proptest::prelude::*;

static FIXTURE: OnceLock<(Component<CfService>, RatingsDataset)> = OnceLock::new();

fn fixture() -> &'static (Component<CfService>, RatingsDataset) {
    FIXTURE.get_or_init(|| {
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
    })
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn tiled_batch_is_bit_identical_to_per_request(
        users in prop::collection::vec((0u32..300, 0u32..80), 1..48),
    ) {
        let (c, data) = fixture();
        let svc = CfService;
        let reqs: Vec<ActiveUser> = users
            .iter()
            .map(|&(u, t)| active(data, u, vec![t, (t + 13) % 80]))
            .collect();
        let mut corrs = vec![Vec::new(); reqs.len()];
        let mut outs: Vec<CfOutput> = Vec::new();
        svc.process_synopsis_batch(c.ctx(), &reqs, &mut corrs, &mut outs);
        prop_assert_eq!(outs.len(), reqs.len());
        for ((req, corr), out) in reqs.iter().zip(&corrs).zip(&outs) {
            let mut want_corr = Vec::new();
            let want_out = svc.process_synopsis(c.ctx(), req, &mut want_corr);
            prop_assert_eq!(corr.len(), want_corr.len());
            for (a, b) in corr.iter().zip(&want_corr) {
                prop_assert_eq!(a.node, b.node);
                prop_assert_eq!(a.score.to_bits(), b.score.to_bits());
            }
            prop_assert_eq!(out.acc.len(), want_out.acc.len());
            for (a, b) in out.acc.iter().zip(&want_out.acc) {
                prop_assert_eq!(a.num.to_bits(), b.num.to_bits());
                prop_assert_eq!(a.den.to_bits(), b.den.to_bits());
            }
        }
    }
}
