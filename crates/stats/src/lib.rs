//! # lumos-stats
//!
//! Statistics substrate for the `lumos-rs` workspace: everything the
//! characterization analyses, trace generators, simulator, and prediction
//! models need, implemented from scratch:
//!
//! * [`rng::Rng`] — deterministic xoshiro256++ PRNG seeded via SplitMix64,
//! * [`dist`] — inverse-transform / Box–Muller samplers (exponential,
//!   log-normal, Pareto, uniform, discrete, mixtures),
//! * [`ecdf::Ecdf`] — empirical CDFs with interpolated quantiles,
//! * [`mod@quantile`] — type-7 quantiles on slices,
//! * [`kde`] — Gaussian kernel density estimates (violin plots, Figs. 1a & 11),
//! * [`summary::Summary`] — Welford streaming moments,
//! * [`streaming::QuantileBank`] — P² streaming quantiles (O(1) memory),
//! * [`correlation`] — Pearson and Spearman coefficients,
//! * [`fairness`] — Jain's fairness index over per-tenant allocations.
//!
//! All randomness in the workspace flows through [`rng::Rng`] so that a
//! `u64` seed fully determines every trace, simulation, and model fit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod correlation;
pub mod dist;
pub mod ecdf;
pub mod fairness;
pub mod kde;
pub mod quantile;
pub mod rng;
pub mod streaming;
pub mod summary;

pub use dist::{Discrete, Exponential, LogNormal, Mixture, Pareto, Sampler, Uniform};
pub use ecdf::Ecdf;
pub use fairness::jain_index;
pub use kde::ViolinSummary;
pub use quantile::{median, quantile, quantiles};
pub use rng::Rng;
pub use streaming::QuantileBank;
pub use summary::Summary;
