//! What a workload hands back to `main`.

/// Measurements and verification results of one run.
#[derive(Default)]
pub struct Outcome {
    /// Ops attempted (replays, pipeline passes or served commands).
    pub attempted: u64,
    /// Ops that failed: a refused or wrong reply, a result that differs
    /// from its reference. A failed op enters no latency figure.
    pub failed: u64,
    /// Failed run-level checks; any makes the run incorrect.
    pub problems: Vec<String>,
    /// `(name from the metric table, value)`.
    pub metrics: Vec<(&'static str, f64)>,
    /// Context printed above the metrics (sample counts, sizes).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn note(&mut self, text: String) {
        self.notes.push(text);
    }

    /// Records `what` as a problem unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// The five end-to-end metrics every workload reports. Work rate and
    /// CPU are those of the fastest repetition; see [`Reps::best_wall`].
    ///
    /// [`Reps::best_wall`]: crate::util::Reps::best_wall
    pub fn set_end_to_end(
        &mut self,
        work_per_rep: f64,
        reps: &crate::util::Reps,
        op_p50_ms: f64,
        setup_s: f64,
    ) {
        let range = |values: &[f64]| {
            let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = values.iter().copied().fold(0.0, f64::max);
            format!("{lo:.4} to {hi:.4}")
        };
        self.note(format!(
            "repetitions: wall {} s, median {:.4}; CPU {} s",
            range(&reps.wall),
            reps.median_wall(),
            range(&reps.cpu)
        ));
        self.set("work_per_s", work_per_rep / reps.best_wall());
        self.set("op_p50_ms", op_p50_ms);
        self.set("cpu_s", reps.best_cpu());
        self.set("peak_rss_mb", reps.peak_rss_mb);
        self.set("setup_s", setup_s);
    }
}
