//! Accuracy loss against exact processing, the paper's second metric.
//!
//! Each served response is paired with the exact response to the same
//! request on the same data state, computed outside the timed region.

/// CF: RMSE of served and of exact predictions against the held-out
/// ratings, pooled over every target of every sampled request.
#[derive(Default)]
pub struct RecAccuracy {
    served: Vec<f64>,
    exact: Vec<f64>,
    actual: Vec<f64>,
}

impl RecAccuracy {
    /// Add one request: its served and exact predictions and the actual
    /// ratings, all in target order.
    pub fn add(&mut self, served: &[f64], exact: &[f64], actual: &[f64]) {
        assert!(
            served.len() == actual.len() && exact.len() == actual.len(),
            "one prediction per target"
        );
        self.served.extend_from_slice(served);
        self.exact.extend_from_slice(exact);
        self.actual.extend_from_slice(actual);
    }

    /// Targets added so far.
    pub fn samples(&self) -> usize {
        self.actual.len()
    }

    /// `at_recommender::accuracy_loss_pct` of served RMSE over exact RMSE.
    pub fn loss_pct(&self) -> f64 {
        at_recommender::accuracy_loss_pct(
            at_recommender::rmse(&self.exact, &self.actual),
            at_recommender::rmse(&self.served, &self.actual),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use at_core::{partition_rows, ExecutionPolicy, FanOutService};
    use at_recommender::{rating_matrix, ActiveUser, CfService};
    use at_synopsis::{AggregationMode, SparseRow, SynopsisConfig};
    use at_workloads::{RatingsConfig, RatingsDataset};

    fn config() -> SynopsisConfig {
        SynopsisConfig {
            size_ratio: 10,
            ..SynopsisConfig::default()
        }
    }

    /// A three-component CF deployment over 300 users and 30 held-out
    /// requests with their actual ratings.
    fn toy_rec() -> (FanOutService<CfService>, Vec<(ActiveUser, Vec<f64>)>) {
        let data = RatingsDataset::generate(RatingsConfig {
            n_users: 330,
            ..RatingsConfig::small()
        });
        let (deployed, held): (Vec<_>, Vec<_>) =
            data.ratings.iter().copied().partition(|r| r.user < 300);
        let matrix = rating_matrix(300, data.config.n_items, &deployed);
        let rows = matrix.ids().map(|id| matrix.row(id).clone()).collect();
        let subsets = partition_rows(data.config.n_items, rows, 3).expect("3 components");
        let service = FanOutService::build(subsets, AggregationMode::Mean, config(), || CfService);
        let requests = (300..330u32)
            .map(|u| {
                let mine: Vec<_> = held.iter().filter(|r| r.user == u).collect();
                let (profile, targets) = mine.split_at(mine.len() * 4 / 5);
                let active = ActiveUser::new(
                    SparseRow::from_pairs(profile.iter().map(|r| (r.item, r.stars)).collect()),
                    targets.iter().map(|r| r.item).collect(),
                );
                let mut actual: Vec<(u32, f64)> =
                    targets.iter().map(|r| (r.item, r.stars)).collect();
                actual.sort_by_key(|&(i, _)| i);
                (active, actual.into_iter().map(|(_, s)| s).collect())
            })
            .collect();
        (service, requests)
    }

    fn rec_loss(policy: ExecutionPolicy) -> f64 {
        let (service, requests) = toy_rec();
        let mut acc = RecAccuracy::default();
        for (active, actual) in &requests {
            let served = service.serve(active, &policy).response;
            let exact = service.serve(active, &ExecutionPolicy::Exact).response;
            acc.add(&served, &exact, actual);
        }
        assert!(acc.samples() > 30);
        acc.loss_pct()
    }

    #[test]
    fn rec_loss_is_zero_at_full_work_and_positive_from_the_synopsis() {
        assert_eq!(rec_loss(ExecutionPolicy::budgeted(usize::MAX)), 0.0);
        assert!(rec_loss(ExecutionPolicy::SynopsisOnly) > 0.0);
    }

    #[test]
    fn rec_loss_compares_served_against_exact_not_the_reverse() {
        let mut acc = RecAccuracy::default();
        // Served predictions are off by one star, exact ones are right.
        acc.add(&[2.0, 4.0], &[3.0, 5.0], &[3.0, 5.0]);
        assert_eq!(acc.loss_pct(), 100.0);
        let mut acc = RecAccuracy::default();
        acc.add(&[3.0, 5.0], &[2.0, 4.0], &[3.0, 5.0]);
        assert_eq!(acc.loss_pct(), 0.0);
    }
}
