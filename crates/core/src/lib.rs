//! # lumos-core
//!
//! Core data model for the `lumos-rs` cross-system job characterization and
//! scheduling suite — a Rust reproduction of *"Cross-System Analysis of Job
//! Characterization and Scheduling in Large-Scale Computing Clusters"*
//! (Zhang et al., IPPS 2024).
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace:
//!
//! * [`Job`] — a single execution instance (submit time, resources, runtime,
//!   exit status, owning user),
//! * [`JobStatus`] — the Passed / Failed / Killed trichotomy of paper §IV,
//! * [`SystemSpec`] — the static description of a cluster (Mira, Theta,
//!   Blue Waters, Philly, Helios, or any user-supplied system),
//! * [`Trace`] — an ordered collection of jobs bound to a system,
//! * the size / length / queue categorisation rules of paper §III,
//! * time helpers (epoch seconds, hour-of-day with timezone offsets).
//!
//! Everything is plain data: no I/O, no randomness, no scheduling logic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod categories;
pub mod error;
pub mod job;
pub mod system;
pub mod time;
pub mod trace;

pub use categories::{LengthClass, QueueClass, RequestClass, RuntimeClass, SizeClass};
pub use error::{CoreError, Result};
pub use job::{Job, JobStatus, UserId};
pub use system::{ResourceKind, SystemId, SystemKind, SystemSpec};
pub use time::{hour_of_day, Duration, Timestamp, DAY, HOUR};
pub use trace::Trace;
