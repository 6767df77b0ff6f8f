//! # at-recommender
//!
//! The user-based collaborative-filtering recommender of the AccuracyTrader
//! reproduction (Han et al., ICPP 2016, §3.2), with its AccuracyTrader
//! adapter:
//!
//! * [`ratings`] — rating-matrix construction and the [`ActiveUser`] request.
//! * [`predict`] — Pearson weights and weighted-average prediction with
//!   mergeable partial sums (for fan-out composition).
//! * [`mod@rmse`] — RMSE and the paper's accuracy-loss percentage.
//! * [`adapter`] — [`CfService`]: the [`at_core::ApproximateService`] +
//!   [`at_core::ComposableService`] implementation (per-component partial
//!   sums composed into final predictions) plus the Figure-4(a)
//!   section-relatedness analysis.

pub mod adapter;
pub mod predict;
pub mod ratings;
pub mod rmse;
pub mod topn;

pub use adapter::{section_relatedness, CfOutput, CfService};
pub use predict::{
    accumulate_neighbor, predict_partial, user_weight, weigh_and_accumulate, PredictionAcc,
};
pub use ratings::{rating_matrix, ActiveUser};
pub use rmse::{accuracy_loss_pct, rmse};
pub use topn::{recommend_top_n, Recommendation};
