//! # lumos-cli
//!
//! The experiments behind the `lumos` binary: the functions that
//! regenerate the paper's tables and figures. `src/main.rs` holds the
//! table of experiments that names them, parses arguments and writes
//! files; nothing else runs them.
//!
//! Each experiment is a pure function of `(seed, span_days)`; the returned
//! structures serialize to JSON (the CLI's report format) and render to
//! aligned text (the CLI's stdout format).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod feedback;
pub mod fig12;
pub mod render;
pub mod table2;

use lumos_analysis::SystemAnalysis;
use lumos_core::Trace;

/// Default deterministic seed (`--seed`).
pub const DEFAULT_SEED: u64 = 2024;

/// Default trace window in days (`--days`). Long enough for diurnal structure and
/// queue buildup, short enough to regenerate in seconds.
pub const DEFAULT_DAYS: u32 = 2;

/// Generates the five-system synthetic suite.
#[must_use]
pub fn suite(seed: u64, days: u32) -> Vec<Trace> {
    lumos_traces::generate_paper_suite(seed, days)
}

/// Generates and fully analyzes the suite (replays included).
#[must_use]
pub fn analyzed_suite(seed: u64, days: u32) -> Vec<SystemAnalysis> {
    let traces = suite(seed, days);
    lumos_analysis::analyze_suite(&traces)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_five_systems() {
        let s = suite(1, 1);
        assert_eq!(s.len(), 5);
    }
}
