//! Text rendering of the regenerated tables and figures (the CLI's stdout
//! format). Numbers are meant to be compared to the paper's by *shape*:
//! orderings, factors, crossovers — not absolute values (see
//! EXPERIMENTS.md).

use std::fmt::Write as _;

use lumos_analysis::{takeaways, SystemAnalysis};

use lumos_sim::SimMetrics;

use crate::fig12::Fig12System;
use crate::table2::Table2Row;

/// Renders Fig. 1 headline numbers per system.
#[must_use]
pub fn fig1(analyses: &[SystemAnalysis]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:>12} {:>12} {:>14} {:>12} {:>10} {:>10}",
        "System", "med runtime", "med gap", "hourly max/min", "med procs", "1-unit %", ">1k %"
    );
    for a in analyses {
        let _ = writeln!(
            out,
            "{:<14} {:>11.0}s {:>11.1}s {:>14} {:>12.0} {:>9.1}% {:>9.1}%",
            a.system,
            a.runtime.median,
            a.arrival.median_interval,
            a.arrival
                .hourly_max_min_ratio
                .map_or_else(|| "n/a".into(), |r| format!("{r:.1}x")),
            a.resources.median_procs,
            a.resources.single_unit_share * 100.0,
            a.resources.over_1000_share * 100.0,
        );
    }
    out
}

/// Renders Fig. 2 (core-hour domination).
#[must_use]
pub fn fig2(analyses: &[SystemAnalysis]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8}  (core-hour shares)",
        "System", "small", "middle", "large", "short", "middle", "long"
    );
    for a in analyses {
        let s = a.domination.by_size;
        let l = a.domination.by_length;
        let _ = writeln!(
            out,
            "{:<14} {:>7.1}% {:>7.1}% {:>7.1}% | {:>7.1}% {:>7.1}% {:>7.1}%  dom: {:?}/{:?}",
            a.system,
            s[0] * 100.0,
            s[1] * 100.0,
            s[2] * 100.0,
            l[0] * 100.0,
            l[1] * 100.0,
            l[2] * 100.0,
            a.domination.dominant_size,
            a.domination.dominant_length,
        );
    }
    out
}

/// Renders Fig. 3 (utilization).
#[must_use]
pub fn fig3(analyses: &[SystemAnalysis]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:>10} {:>12} {:>14}",
        "System", "util", "mean util", "time >80%"
    );
    for a in analyses {
        let _ = writeln!(
            out,
            "{:<14} {:>9.1}% {:>11.1}% {:>13.1}%",
            a.system,
            a.utilization.window_util * 100.0,
            a.utilization.mean * 100.0,
            a.utilization.time_above_80 * 100.0,
        );
    }
    out
}

/// Renders Figs. 4–5 (waiting).
#[must_use]
pub fn fig4_fig5(analyses: &[SystemAnalysis]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:>10} {:>10} {:>9} {:>9}  longest-waiting size/length",
        "System", "mean wait", "med wait", "<10s", ">1.5h"
    );
    for a in analyses {
        let _ = writeln!(
            out,
            "{:<14} {:>9.0}s {:>9.0}s {:>8.1}% {:>8.1}%  {} / {}",
            a.system,
            a.waiting.mean_wait,
            a.waiting.median_wait,
            a.waiting.under_10s_share * 100.0,
            a.waiting.over_90min_share * 100.0,
            a.waiting.longest_waiting_size.map_or("–", |c| c.label()),
            a.waiting.longest_waiting_length.map_or("–", |c| c.label()),
        );
    }
    out
}

/// Renders Figs. 6–7 (failures).
#[must_use]
pub fn fig6_fig7(analyses: &[SystemAnalysis]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:>24} {:>24}  long-job kill rate",
        "System", "counts P/F/K (%)", "core-hours P/F/K (%)"
    );
    for a in analyses {
        let c = a.failures.overall.count_shares;
        let h = a.failures.overall.core_hour_shares;
        let long_kill = a.failures.by_length[2]
            .map_or_else(|| "n/a".into(), |row| format!("{:.0}%", row[2] * 100.0));
        let _ = writeln!(
            out,
            "{:<14} {:>7.1}/{:>5.1}/{:>5.1} {:>12.1}/{:>5.1}/{:>5.1}  {}",
            a.system,
            c[0] * 100.0,
            c[1] * 100.0,
            c[2] * 100.0,
            h[0] * 100.0,
            h[1] * 100.0,
            h[2] * 100.0,
            long_kill,
        );
    }
    out
}

/// Renders Fig. 8 (resource-configuration groups).
#[must_use]
pub fn fig8(analyses: &[SystemAnalysis]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:>6} {:>8} {:>8} {:>8}",
        "System", "users", "top-1", "top-3", "top-10"
    );
    for a in analyses {
        let c = &a.user_groups.cumulative;
        let _ = writeln!(
            out,
            "{:<14} {:>6} {:>7.1}% {:>7.1}% {:>7.1}%",
            a.system,
            a.user_groups.users,
            c[0] * 100.0,
            c[2] * 100.0,
            c[9] * 100.0,
        );
    }
    out
}

/// Renders Figs. 9–10 (queue-conditioned submissions).
#[must_use]
pub fn fig9_fig10(analyses: &[SystemAnalysis]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:>9} | minimal-request share S/M/L queue | mean runtime S/M/L queue",
        "System", "max queue"
    );
    for a in analyses {
        let fmt_req = |qc: usize| {
            a.submission.request_shares[qc]
                .map_or_else(|| "  n/a".into(), |s| format!("{:>4.0}%", s[0] * 100.0))
        };
        let fmt_rt = |qc: usize| {
            a.submission.mean_runtime[qc].map_or_else(|| "    n/a".into(), |r| format!("{r:>6.0}s"))
        };
        let _ = writeln!(
            out,
            "{:<14} {:>9} |      {} {} {}        | {} {} {}",
            a.system,
            a.submission.max_queue,
            fmt_req(0),
            fmt_req(1),
            fmt_req(2),
            fmt_rt(0),
            fmt_rt(1),
            fmt_rt(2),
        );
    }
    out
}

/// Renders Fig. 11 (per-user status violins).
#[must_use]
pub fn fig11(analyses: &[SystemAnalysis]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:>6} {:>7} | median runtime Passed/Failed/Killed",
        "System", "user", "jobs"
    );
    for a in analyses {
        for u in &a.user_failures {
            let med = |i: usize| u.medians[i].map_or_else(|| "n/a".into(), |m| format!("{m:.0}s"));
            let _ = writeln!(
                out,
                "{:<14} U{:<5} {:>7} | {} / {} / {}",
                a.system,
                u.user,
                u.jobs,
                med(0),
                med(1),
                med(2),
            );
        }
    }
    out
}

/// Renders Fig. 12 (prediction).
#[must_use]
pub fn fig12(results: &[Fig12System]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:<8} {:>7} | {:>22} | {:>22}",
        "System", "model", "elapsed", "underest without→with", "accuracy without→with"
    );
    for sys in results {
        for r in &sys.rows {
            let _ = writeln!(
                out,
                "{:<14} {:<8} {:>6.3} | {:>9.3} → {:>9.3} | {:>9.3} → {:>9.3}",
                sys.system,
                r.model.name(),
                r.elapsed_frac,
                r.without.underestimate_rate,
                r.with_elapsed.underestimate_rate,
                r.without.accuracy,
                r.with_elapsed.accuracy,
            );
        }
    }
    out
}

/// Renders Table II.
#[must_use]
pub fn table2(rows: &[Table2Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:<10} {:>12} {:>12} {:>9}",
        "Trace", "Metric", "Relaxed", "Adaptive", "Improved"
    );
    for r in rows {
        let lines: [(&str, f64, f64); 4] = [
            ("wait", r.relaxed.mean_wait, r.adaptive.mean_wait),
            ("bsld", r.relaxed.mean_bsld, r.adaptive.mean_bsld),
            ("util", r.relaxed.util, r.adaptive.util),
            ("violation", r.relaxed.violation, r.adaptive.violation),
        ];
        for (metric, rel, ada) in lines {
            let _ = writeln!(
                out,
                "{:<14} {:<10} {:>12.2} {:>12.2} {:>8.1}%",
                r.system,
                metric,
                rel,
                ada,
                r.improvement(metric),
            );
        }
    }
    out
}

/// Renders the relaxation-factor sweep (`table2::relax_ablation`).
#[must_use]
pub fn relax_ablation(sweep: &[(String, SimMetrics)]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:>12} {:>8} {:>8} {:>12} {:>10}",
        "variant", "mean wait", "bsld", "util", "violation", "violated"
    );
    for (name, m) in sweep {
        let _ = writeln!(
            out,
            "{:<14} {:>11.0}s {:>8.2} {:>7.1}% {:>11.1}s {:>10}",
            name,
            m.mean_wait,
            m.mean_bsld,
            m.util * 100.0,
            m.violation,
            m.violated_jobs,
        );
    }
    out
}

/// Renders the planning-walltime sweep (`fig12::walltime_ablation`).
#[must_use]
pub fn walltime_ablation(sweep: &[(String, SimMetrics)]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:>12} {:>10} {:>8} {:>12}",
        "estimates", "mean wait", "bsld", "util", "p90 wait"
    );
    for (name, m) in sweep {
        let _ = writeln!(
            out,
            "{:<16} {:>11.0}s {:>10.2} {:>7.1}% {:>11.0}s",
            name,
            m.mean_wait,
            m.mean_bsld,
            m.util * 100.0,
            m.p90_wait,
        );
    }
    out
}

/// Renders the queue-feedback ablation (`feedback::minimal_gradient` with
/// feedback on, then off).
#[must_use]
pub fn feedback_ablation(with: Option<f64>, without: Option<f64>) -> String {
    let show = |g: Option<f64>| g.map_or_else(|| "–".to_string(), |g| g.to_string());
    format!(
        "minimal-request share gradient (long queue − short queue):\n\
         \x20 with feedback    : {}\n\
         \x20 without feedback : {}\n",
        show(with),
        show(without)
    )
}

/// Renders the eight takeaways checklist.
#[must_use]
pub fn takeaway_report(analyses: &[SystemAnalysis]) -> String {
    let mut out = String::new();
    for t in takeaways::evaluate(analyses) {
        let _ = writeln!(
            out,
            "[{}] T{}: {}\n      {}",
            if t.holds { "ok" } else { "??" },
            t.id,
            t.title,
            t.evidence
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_do_not_panic_on_real_suite() {
        let analyses = crate::analyzed_suite(1, 1);
        for text in [
            fig1(&analyses),
            fig2(&analyses),
            fig3(&analyses),
            fig4_fig5(&analyses),
            fig6_fig7(&analyses),
            fig8(&analyses),
            fig9_fig10(&analyses),
            fig11(&analyses),
            takeaway_report(&analyses),
        ] {
            assert!(text.contains("Mira") || text.contains("T1") || text.contains("ok"));
        }
    }
}
