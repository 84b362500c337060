//! # lottery-stats
//!
//! Measurement substrate for the lottery-scheduling reproduction: streaming
//! summary statistics, histograms, windowed progress series, the
//! binomial/geometric expectations of Section 2 of the paper, and
//! plain-text table rendering for the experiment harness.

pub mod dist;
pub mod histogram;
pub mod series;
pub mod summary;
pub mod table;

pub use histogram::Histogram;
pub use series::ProgressSeries;
pub use summary::{LazySummary, Summary};
