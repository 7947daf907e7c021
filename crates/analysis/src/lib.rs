//! # lumos-analysis
//!
//! The cross-system characterization engine: one module per paper figure.
//!
//! | Module | Paper content |
//! |---|---|
//! | [`geometry`] | Fig. 1 — runtime / arrival / resource geometries |
//! | [`domination`] | Fig. 2 — core-hour domination by size & length class |
//! | [`utilization`] | Fig. 3 — utilization timelines |
//! | [`waiting`] | Figs. 4–5 — waiting & turnaround CDFs, waits by class |
//! | [`failures`] | Figs. 6–7 — status distributions and their geometry correlations |
//! | [`user_groups`] | Fig. 8 — per-user resource-configuration groups |
//! | [`submission`] | Figs. 9–10 — queue-length-conditioned submission behaviour |
//! | [`user_failures`] | Fig. 11 — per-user runtime violins by status |
//! | [`report`] | Table I — dataset overview |
//! | [`takeaways`] | the paper's eight takeaways, evaluated on data |
//!
//! The umbrella entry point is [`analyze_system`] / [`analyze_suite`], which
//! replay each trace through `lumos-sim` (the traces carry no observed
//! waits) and run every per-figure analysis.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod domination;
pub mod failures;
pub mod geometry;
pub mod periodicity;
pub mod report;
pub mod submission;
pub mod takeaways;
pub mod user_failures;
pub mod user_groups;
pub mod utilization;
pub mod waiting;

use lumos_core::Trace;
use lumos_sim::{simulate, SimConfig};
use rayon::prelude::*;
use serde::Serialize;

/// Everything the paper reports about one system, computed from one trace.
#[derive(Debug, Clone, Serialize)]
pub struct SystemAnalysis {
    /// System name.
    pub system: String,
    /// Table I row.
    pub overview: report::OverviewRow,
    /// Fig. 1a.
    pub runtime: geometry::RuntimeGeometry,
    /// Fig. 1b.
    pub arrival: geometry::ArrivalGeometry,
    /// Fig. 1c.
    pub resources: geometry::ResourceGeometry,
    /// Fig. 2.
    pub domination: domination::Domination,
    /// Fig. 3.
    pub utilization: utilization::Utilization,
    /// Figs. 4–5.
    pub waiting: waiting::WaitingAnalysis,
    /// Figs. 6–7.
    pub failures: failures::FailureAnalysis,
    /// Fig. 8.
    pub user_groups: user_groups::GroupCurve,
    /// Figs. 9–10.
    pub submission: submission::SubmissionBehaviour,
    /// Fig. 11.
    pub user_failures: Vec<user_failures::UserStatusViolins>,
}

/// Replays `trace` with the given scheduler configuration and runs every
/// per-figure analysis on the result.
#[must_use]
pub(crate) fn analyze_system_with(trace: &Trace, sim: &SimConfig) -> SystemAnalysis {
    let result = simulate(trace, sim);
    // Rebuild a trace whose jobs carry the observed waits, for the
    // wait-dependent analyses.
    let replayed =
        Trace::new(trace.system.clone(), result.jobs.clone()).expect("replay preserves validity");

    SystemAnalysis {
        system: trace.system.name.clone(),
        overview: report::overview(trace),
        runtime: geometry::runtime_geometry(trace),
        arrival: geometry::arrival_geometry(trace),
        resources: geometry::resource_geometry(trace),
        domination: domination::domination(trace),
        utilization: utilization::utilization(&result, 48),
        waiting: waiting::waiting_analysis(&replayed),
        failures: failures::failure_analysis(trace),
        user_groups: user_groups::group_curve(trace, 20),
        submission: submission::submission_behaviour(&replayed),
        user_failures: user_failures::top_user_violins(trace, 3),
    }
}

/// `analyze_system_with` under the default scheduler (FCFS + strict EASY,
/// virtual clusters honoured) — the configuration the paper's observational
/// sections correspond to.
#[must_use]
pub fn analyze_system(trace: &Trace) -> SystemAnalysis {
    analyze_system_with(trace, &SimConfig::default())
}

/// Analyzes many systems in parallel (rayon), preserving input order.
#[must_use]
pub fn analyze_suite(traces: &[Trace]) -> Vec<SystemAnalysis> {
    traces.par_iter().map(analyze_system).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumos_core::SystemId;
    use lumos_traces::{systems, Generator, GeneratorConfig};

    #[test]
    fn analyze_system_produces_complete_output() {
        let trace = Generator::new(
            systems::profile_for(SystemId::Helios),
            GeneratorConfig {
                seed: 1,
                span_days: 1,
                ..GeneratorConfig::default()
            },
        )
        .generate();
        let a = analyze_system(&trace);
        assert_eq!(a.system, "Helios");
        assert!(a.overview.job_count > 100);
        assert!(a.runtime.median > 0.0);
        assert!(!a.user_failures.is_empty());
        // The analysis serializes (CLI contract).
        let json = serde_json::to_string(&a).unwrap();
        assert!(json.len() > 1_000);
    }
}
