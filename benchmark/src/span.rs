//! In-memory spans around the calls into each layer.
//!
//! The traced run wraps every call into a crate in a span; nothing is
//! written until the run ends. A disabled tracer costs one branch per
//! call, so the untraced run goes through the same code.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::util::median;

/// Raw spans of ops below this id are written out; the rest only count
/// towards the per-name statistics.
const RAW_SPAN_OPS: u32 = 10_000;

const NO_PARENT: u32 = u32::MAX;

/// One timed call (or batch of calls) into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The op (repetition, round or request) this span belongs to.
    pub op: u32,
    /// Index of the span that was open when this one began.
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls the span covers (a round of 64 commands is one span).
    pub units: u32,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over all spans.
#[derive(Debug, Clone, PartialEq)]
pub struct NameStats {
    pub count: u64,
    pub units: u64,
    pub total_ns: u64,
    /// Total minus the time covered by child spans.
    pub self_ns: u64,
    pub p50_ns: f64,
}

impl NameStats {
    /// Self time per covered call.
    pub fn self_ns_per_unit(&self) -> f64 {
        self.self_ns as f64 / self.units.max(1) as f64
    }
}

/// Handle for an open span.
#[derive(Clone, Copy)]
pub struct Open(u32);

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, op: u32) -> Open {
        if !self.enabled {
            return Open(NO_PARENT);
        }
        let index = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(index);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
            units: 1,
        });
        Open(index)
    }

    /// Closes `open`, which covered `units` calls.
    ///
    /// # Panics
    /// Panics when spans are closed out of order.
    pub fn end(&mut self, open: Open, units: u32) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(open.0), "spans close innermost first");
        let span = &mut self.spans[open.0 as usize];
        span.end_ns = end_ns;
        span.units = units;
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total, self time and median per span name.
    pub fn stats(&self) -> BTreeMap<&'static str, NameStats> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_PARENT {
                covered[span.parent as usize] += span.duration();
            }
        }
        let mut durations: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut stats: BTreeMap<&'static str, NameStats> = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            let entry = stats.entry(span.name).or_insert(NameStats {
                count: 0,
                units: 0,
                total_ns: 0,
                self_ns: 0,
                p50_ns: 0.0,
            });
            entry.count += 1;
            entry.units += u64::from(span.units);
            entry.total_ns += span.duration();
            entry.self_ns += span.duration().saturating_sub(covered);
            durations
                .entry(span.name)
                .or_default()
                .push(span.duration() as f64);
        }
        for (name, mut values) in durations {
            stats.get_mut(name).expect("same keys").p50_ns = median(&mut values);
        }
        stats
    }

    /// Share of the traced time that went into tracing: the spans taken
    /// times what one span costs (timed here, on a tracer of its own),
    /// over the time under root spans. Two runs of the same calls differ
    /// by more than this from one minute to the next, so the difference
    /// of a traced and an untraced run would report the host.
    pub fn overhead_frac(&self) -> f64 {
        const PAIRS: u32 = 200_000;
        let mut probe = Tracer::new(true);
        let t0 = Instant::now();
        for op in 0..PAIRS {
            let open = probe.begin("probe", op);
            probe.end(open, 1);
        }
        let ns_per_span = t0.elapsed().as_nanos() as f64 / f64::from(PAIRS);
        let traced_ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == NO_PARENT)
            .map(Span::duration)
            .sum();
        self.spans.len() as f64 * ns_per_span / traced_ns.max(1) as f64
    }

    /// Durations in seconds of every span called `name`, in start order.
    pub fn seconds_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration() as f64 / 1e9)
            .collect()
    }

    /// Median in ms of the spans called `name`, if there are any.
    pub fn median_ms(&self, name: &str) -> Option<f64> {
        let mut ms: Vec<f64> = self.seconds_of(name).iter().map(|s| s * 1e3).collect();
        (!ms.is_empty()).then(|| median(&mut ms))
    }

    /// The trace file: per-name statistics, then the raw spans of the
    /// first [`RAW_SPAN_OPS`] ops.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!("{{\n  \"workload\": \"{workload}\",\n  \"seed\": {seed},\n");
        out.push_str("  \"names\": {\n");
        let stats = self.stats();
        for (i, (name, s)) in stats.iter().enumerate() {
            out.push_str(&format!(
                "    \"{name}\": {{\"count\": {}, \"units\": {}, \"total_ns\": {}, \
                 \"self_ns\": {}, \"p50_ns\": {}}}{}\n",
                s.count,
                s.units,
                s.total_ns,
                s.self_ns,
                s.p50_ns,
                if i + 1 < stats.len() { "," } else { "" }
            ));
        }
        out.push_str("  },\n  \"spans\": [\n");
        let raw: Vec<(usize, &Span)> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.op < RAW_SPAN_OPS)
            .collect();
        for (i, (index, s)) in raw.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            out.push_str(&format!(
                "    {{\"id\": {index}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"units\": {}}}{}\n",
                s.name,
                s.op,
                s.start_ns,
                s.end_ns,
                s.units,
                if i + 1 < raw.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracer with hand-placed spans: timings under test must not
    /// depend on the clock.
    fn tracer_with(spans: Vec<Span>) -> Tracer {
        let mut t = Tracer::new(true);
        t.spans = spans;
        t
    }

    fn span(name: &'static str, parent: u32, start_ns: u64, end_ns: u64, units: u32) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start_ns,
            end_ns,
            units,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let t = tracer_with(vec![
            span("round", NO_PARENT, 0, 1_000, 1),
            span("parse", 0, 100, 400, 64),
            span("apply", 0, 400, 900, 64),
            span("pass", 2, 500, 700, 1),
        ]);
        let stats = t.stats();
        assert_eq!(stats["round"].self_ns, 1_000 - 300 - 500);
        assert_eq!(stats["parse"].self_ns, 300);
        // Only direct children are subtracted: `pass` comes off `apply`,
        // not off `round` a second time.
        assert_eq!(stats["apply"].self_ns, 500 - 200);
        assert_eq!(stats["pass"].self_ns, 200);
        assert_eq!(stats["parse"].units, 64);
        assert!((stats["parse"].self_ns_per_unit() - 300.0 / 64.0).abs() < 1e-9);
        let selves: u64 = stats.values().map(|s| s.self_ns).sum();
        assert_eq!(selves, 1_000, "self times partition the root span");
    }

    #[test]
    fn begin_end_nest_and_record_parents() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", 7);
        let inner = t.begin("inner", 7);
        t.end(inner, 3);
        t.end(outer, 1);
        assert_eq!(t.spans()[0].parent, NO_PARENT);
        assert_eq!(t.spans()[1].parent, 0);
        assert_eq!(t.spans()[1].units, 3);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        let json = t.to_json("w", 1);
        assert!(json.contains("\"inner\"") && json.contains("\"parent\": 0"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let open = t.begin("x", 0);
        t.end(open, 1);
        assert!(t.spans().is_empty());
        assert!(t.median_ms("x").is_none());
    }
}
