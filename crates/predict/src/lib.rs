//! # lumos-predict
//!
//! Use Case 1 of the paper (§VI.A): **job runtime prediction with elapsed
//! time**. The observation behind it is Fig. 11 — per user, the runtime
//! distributions of Passed / Failed / Killed jobs separate sharply, so a
//! job's *elapsed* time carries strong information about its remaining
//! runtime: once a job has outlived the early-failure mode, it will most
//! likely run to the next mode.
//!
//! Implemented from scratch:
//!
//! * [`models::Last2`] — Tsafrir-style mean of the user's last two runtimes,
//! * [`models::LinearRegression`] — ridge OLS via normal equations,
//! * [`models::Tobit`] — censored Gaussian regression (killed-at-walltime
//!   jobs are right-censored observations) fit by EM (impute the censored
//!   targets, refit by OLS, re-estimate σ),
//! * [`models::Gbt`] — gradient-boosted regression trees (the paper's
//!   XGBoost stand-in),
//! * [`models::Mlp`] — a small feed-forward network.
//!
//! For serving, [`online`] provides *streaming* predictors
//! ([`Predictor`]): the Last2 model in incremental form plus a
//! pass-through "user" provider, with serializable state so `lumos-serve`
//! can checkpoint them and rebuild them deterministically during crash
//! recovery. The batch walltime providers in [`walltime`] delegate to them.
//!
//! The evaluation harness ([`eval`]) reproduces Fig. 12: every model is
//! scored with and without the elapsed-time feature at elapsed points of
//! 1/8, 1/4, and 1/2 of the system's mean runtime, on *Prediction Accuracy*
//! (`min(r, p) / max(r, p)`, higher better) and *Underestimate Rate*
//! (`P(p < r)`, lower better).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataset;
pub mod eval;
mod linalg;
pub mod metrics;
pub mod models;
pub mod online;
pub mod walltime;

pub use dataset::{Dataset, Instance};
pub use eval::{evaluate_trace, Fig12Row, ModelKind};
pub use metrics::{accuracy, underestimate_rate, PredictionScore};
pub use online::{Last2Online, Predictor, PredictorConfig, UserOnline};
