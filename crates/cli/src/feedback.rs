//! Queue-feedback ablation (DESIGN.md §4.1).
//!
//! With feedback disabled, users submit the same mix regardless of
//! congestion — the Figs. 9–10 gradients flatten, demonstrating that the
//! behavioural coupling is load-bearing.

use lumos_analysis::analyze_system;
use lumos_core::SystemId;
use lumos_traces::{systems, Generator, GeneratorConfig};

/// Share of minimal-resource requests under a long queue minus the share
/// under a short queue, on a Philly trace generated with queue feedback on
/// or off. `None` when either queue class saw no submissions.
#[must_use]
pub fn minimal_gradient(seed: u64, days: u32, feedback: bool) -> Option<f64> {
    let trace = Generator::new(
        systems::profile_for(SystemId::Philly),
        GeneratorConfig {
            seed,
            span_days: days,
            queue_feedback: feedback,
            ..GeneratorConfig::default()
        },
    )
    .generate();
    let shares = analyze_system(&trace).submission.request_shares;
    match (shares[0], shares[2]) {
        (Some(short), Some(long)) => Some(long[0] - short[0]),
        _ => None,
    }
}
