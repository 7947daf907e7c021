//! # lumos-serve
//!
//! An online scheduling service wrapped around the incremental simulation
//! core ([`lumos_sim::SimSession`]). Clients talk newline-delimited JSON
//! over TCP (and optionally stdin): submit jobs, cancel them, query their
//! lifecycle, read live metrics, advance virtual time, and shut the
//! service down with a graceful drain.
//!
//! Because the online path and batch replay ([`lumos_sim::simulate`])
//! share one event loop, a server fed an arrival sequence reports — in
//! its shutdown response — exactly the metrics a batch replay of that
//! sequence produces. The service is therefore also a testbed: point a
//! load generator at it (see `examples/serve_load.rs`) and the answers
//! are reproducible.
//!
//! With [`ServeConfig::journal`] set, the server is **durable**: every
//! accepted mutation is written ahead to a checksummed journal
//! ([`journal`]) and a restart replays it back to the exact pre-crash
//! state ([`recovery`]) — the determinism of the simulation core makes
//! replayed state and metrics byte-identical to an uninterrupted run.
//!
//! With [`ServeConfig::predictor`] set, the scheduler plans with a
//! streaming walltime predictor ([`lumos_predict::Predictor`]) instead of
//! the clients' requested walltimes; predictor state is checkpointed in
//! rotation snapshots and reconstructed by journal replay, so the
//! durability guarantee covers prediction too.
//!
//! ```no_run
//! use lumos_core::SystemSpec;
//! use lumos_serve::{ServeConfig, Server};
//!
//! let config = ServeConfig::new(SystemSpec::theta());
//! let server = Server::bind("127.0.0.1:7421", config).unwrap();
//! server.run(false).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod core;
pub mod journal;
pub mod metrics;
pub mod protocol;
pub mod recovery;
pub mod replication;
pub mod server;
mod store;

pub use journal::{FsyncPolicy, Journal, JournalConfig, JournalRecord};
pub use lumos_predict::{Predictor, PredictorConfig};
pub use metrics::LiveMetrics;
pub use protocol::{PredictionStats, ReplicationStats, Request, Response, ServeStats, SubmitSpec};
pub use recovery::{recover, Recovered};
pub use server::{Replication, ServeConfig, Server};
