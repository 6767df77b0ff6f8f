//! Inputs and set-up of the CF deployment.
//!
//! Inputs (ratings and the request pool) are generated before any clock
//! starts; set-up is what the deployment does with them: partition the
//! rows, run the offline synopsis pipeline per component, and wrap the
//! components into a fan-out service. The deployment uses the full shape,
//! 12 components of 400 rows each.

use std::time::{Duration, Instant};

use at_core::{partition_rows, Component, FanOutService};
use at_linalg::svd::SvdConfig;
use at_recommender::{rating_matrix, ActiveUser, CfService};
use at_synopsis::{AggregationMode, SparseRow, SynopsisConfig};
use at_workloads::{RatingsConfig, RatingsDataset};

/// Parallel components per deployment.
pub const N_COMPONENTS: usize = 12;
/// Rows (users or pages) per component.
pub const ROWS_PER_COMPONENT: usize = 400;
/// CF item columns.
pub const N_COLUMNS: usize = 240;
/// Held-out active users the recommender workloads draw requests from.
pub const REC_POOL: usize = 20_000;
/// Seed of the deployed data and the request pool. Fixed, so every run
/// serves the same data and the run seed only picks the requests and
/// their arrival instants: a change in data would otherwise move the
/// accuracy and latency figures more than most code changes do.
pub const DATA_SEED: u64 = 7;

/// The offline pipeline's configuration.
fn synopsis_config() -> SynopsisConfig {
    SynopsisConfig {
        svd: SvdConfig::default().with_epochs(30).with_seed(DATA_SEED),
        size_ratio: 12,
        ..SynopsisConfig::default()
    }
}

/// A held-out CF request with its ground truth.
#[derive(Clone, Debug)]
pub struct RecRequest {
    /// Profile (the user's training ratings) and prediction targets.
    pub active: ActiveUser,
    /// Actual ratings of `active.targets`, in target order.
    pub actual: Vec<f64>,
}

/// Generated recommender inputs: the rows to deploy and the request pool.
pub struct RecInputs {
    rows: Vec<SparseRow>,
    /// Held-out users: none of them is a row of the deployment.
    pub pool: Vec<RecRequest>,
}

/// Time spent in each part of one set-up.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Generated rows to a ready service (partition + every build).
    pub total: Duration,
    /// Synopsis pipeline: SVD reduction and aggregation, summed over
    /// components.
    pub synopsis: Duration,
    /// Index structures: the R-tree and index file, summed over
    /// components.
    pub index: Duration,
}

/// Aggregated points per component, in component order.
pub fn synopsis_sizes<S>(service: &FanOutService<S>) -> Vec<usize>
where
    S: at_core::ApproximateService + Sync,
    S::Request: Sync,
    S::Output: Send,
{
    service
        .components()
        .iter()
        .map(|c| c.store().synopsis().len())
        .collect()
}

impl RecInputs {
    /// Ratings for the deployment's users plus a disjoint pool of held-out
    /// users whose 80% split is the profile and 20% the targets.
    pub fn generate() -> Self {
        let seed = DATA_SEED;
        let n_users = N_COMPONENTS * ROWS_PER_COMPONENT;
        let data = RatingsDataset::generate(RatingsConfig {
            n_users: n_users + REC_POOL,
            n_items: N_COLUMNS,
            ratings_per_user: N_COLUMNS / 3,
            noise: 0.3,
            seed,
            ..RatingsConfig::default()
        });
        let (deployed, held): (Vec<_>, Vec<_>) = data
            .ratings
            .iter()
            .copied()
            .partition(|r| (r.user as usize) < n_users);
        let matrix = rating_matrix(n_users, N_COLUMNS, &deployed);
        let rows = matrix.ids().map(|id| matrix.row(id).clone()).collect();

        let held = RatingsDataset {
            ratings: held,
            ..data
        };
        let (train, holdout) = held.holdout_split(0.8, seed ^ 0x51);
        let mut profiles: Vec<Vec<(u32, f64)>> = vec![Vec::new(); REC_POOL];
        let mut targets: Vec<Vec<(u32, f64)>> = vec![Vec::new(); REC_POOL];
        for r in &train {
            profiles[r.user as usize - n_users].push((r.item, r.stars));
        }
        for r in &holdout {
            targets[r.user as usize - n_users].push((r.item, r.stars));
        }
        let pool = profiles
            .into_iter()
            .zip(targets)
            .filter(|(p, t)| p.len() >= 4 && !t.is_empty())
            .map(|(profile, mut held)| {
                held.sort_by_key(|&(i, _)| i);
                RecRequest {
                    active: ActiveUser::new(
                        SparseRow::from_pairs(profile),
                        held.iter().map(|&(i, _)| i).collect(),
                    ),
                    actual: held.iter().map(|&(_, s)| s).collect(),
                }
            })
            .collect();
        RecInputs { rows, pool }
    }

    /// Set up the CF deployment from the generated rows.
    pub fn setup(&self) -> (FanOutService<CfService>, SetupTimes) {
        let start = Instant::now();
        let subsets =
            partition_rows(N_COLUMNS, self.rows.clone(), N_COMPONENTS).expect("N_COMPONENTS >= 1");
        let mut times = SetupTimes::default();
        let config = synopsis_config();
        let components = subsets
            .into_iter()
            .map(|subset| {
                let (c, report) =
                    Component::build(subset, AggregationMode::Mean, config, CfService);
                times.synopsis += report.reduce_time + report.aggregate_time;
                times.index += report.organize_time;
                c
            })
            .collect();
        let service = FanOutService::from_components(components);
        times.total = start.elapsed();
        (service, times)
    }

    /// A fresh row for update batches: a copy of deployed row `i`
    /// (modulo the row count) with its ratings rotated one item along, so
    /// it moves in the latent space.
    pub fn shifted_row(&self, i: usize) -> SparseRow {
        let row = &self.rows[i % self.rows.len()];
        let pairs = row
            .iter()
            .map(|(c, v)| ((c + 1) % N_COLUMNS as u32, v))
            .collect();
        SparseRow::from_pairs(pairs)
    }
}
