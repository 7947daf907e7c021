//! # lumos-sim
//!
//! Discrete-event cluster scheduling simulator — the Rust equivalent of the
//! SchedGym simulator the paper uses for its scheduling experiments (§II.C,
//! §VI.B).
//!
//! The model is the classic rigid-job one: a machine is a pool of
//! interchangeable resource units (cores or GPUs), optionally split into
//! isolated virtual clusters (Philly); each job needs `procs` units for
//! `runtime` seconds; the scheduler orders the waiting queue with a
//! [`Policy`], starts the head when it fits, and opportunistically
//! *backfills* later jobs under an EASY or conservative discipline, with
//! optional **relaxed** and **adaptive-relaxed** reservation handling
//! (paper §VI.B, Eq. 1).
//!
//! Entry points: [`simulate`], which replays a [`Trace`] and returns the
//! jobs with observed waits plus scheduling metrics (`util`, `wait`,
//! `bsld`, `violation`) and a utilization timeline (Fig. 3); and
//! [`SimSession`], the same engine driven incrementally (submit jobs one
//! at a time, advance virtual time explicitly) for online serving. What
//! a session's scheduling passes did — passes, starts, conservative
//! pairs and rebuilds — is counted as [`PassCounts`]
//! ([`SimSession::counts`]).
//!
//! [`Trace`]: lumos_core::Trace

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backfill;
pub mod cluster;
pub mod counts;
pub mod metrics;
pub mod policy;
pub mod profile;
#[cfg(test)]
mod reference;
pub mod session;
pub mod simulator;
pub mod tenant;

pub use backfill::{Backfill, Relax};
pub use counts::{PassCounts, Rebuilds};
pub use metrics::{SimMetrics, UtilizationTimeline};
pub use policy::Policy;
pub use session::{
    JobState, SessionSnapshot, SessionState, SimEvent, SimSession, StateDelta, Submission,
};
pub use simulator::{simulate, simulate_with_walltimes, SimConfig, SimResult};
pub use tenant::{TenantCounts, TenantId, TenantSpec, TenantTable, TenantUsage};
