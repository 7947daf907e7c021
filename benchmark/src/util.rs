//! Order statistics, process counters and the output digest.

use std::time::Instant;

/// Median of `values` (mean of the two middle values for an even count).
/// Sorts in place.
///
/// # Panics
/// Panics on an empty slice or a NaN.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest value with
/// at least `p` of the samples at or below it.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of nothing");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The smallest of `values`: the repetition the host disturbed least.
pub fn best(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` of Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// User + system CPU seconds of this process, all threads, ended ones
/// included, to the nanosecond. (`/proc/self/stat` counts in 10 ms ticks:
/// too coarse for a repetition of 60 ms.)
pub fn cpu_seconds() -> f64 {
    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `now` is a live, writable `timespec` of the layout 64-bit
    // Linux declares, which is all `clock_gettime` asks of its pointer;
    // the call writes it and keeps nothing.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut now) };
    assert_eq!(status, 0, "the process CPU clock is always there on Linux");
    now.tv_sec as f64 + now.tv_nsec as f64 / 1e9
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("VmHWM line");
    let kb: f64 = line
        .split_ascii_whitespace()
        .nth(1)
        .expect("VmHWM value")
        .parse()
        .expect("VmHWM kB");
    kb / 1024.0
}

/// FNV-1a over bytes: the digest that must repeat across repetitions.
#[derive(Clone, Copy)]
pub struct Digest(pub u64);

impl Digest {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn i64(&mut self, v: i64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Set-up timings of one run. The first round builds the inputs the run
/// uses; the rest follow the repetitions, so that the process reaches its
/// first repetition, and the peak RSS read after it, by the same
/// allocations in every run.
pub struct Setup {
    rounds: Vec<f64>,
}

impl Setup {
    /// Builds the inputs and times that as the first round.
    pub fn first<I>(build: &mut impl FnMut() -> I) -> (Self, I) {
        let t0 = Instant::now();
        let inputs = build();
        let rounds = vec![t0.elapsed().as_secs_f64()];
        (Self { rounds }, inputs)
    }

    /// Builds the inputs again, until there are three rounds and a second
    /// of set-up in all: a 30 ms set-up is then a median of thirty
    /// rounds, not one noisy reading. Returns the median round in seconds
    /// and the number of rounds.
    pub fn finish<I>(mut self, build: &mut impl FnMut() -> I) -> (f64, usize) {
        while self.rounds.len() < 3 || self.rounds.iter().sum::<f64>() < 1.0 {
            let t0 = Instant::now();
            std::hint::black_box(build());
            self.rounds.push(t0.elapsed().as_secs_f64());
        }
        (median(&mut self.rounds), self.rounds.len())
    }
}

/// Wall and CPU seconds of the measured part of each repetition of one
/// fixed scenario.
pub struct Reps {
    pub wall: Vec<f64>,
    pub cpu: Vec<f64>,
    /// `VmHWM` after the first repetition: what one set-up and one
    /// repetition need. Later repetitions and set-up rounds vary in number
    /// with the host's speed, and the heap's high-water mark with them.
    /// `paper-characterize` puts its own reading here, taken before the
    /// pool's workers start.
    pub peak_rss_mb: f64,
}

impl Reps {
    pub fn median_wall(&self) -> f64 {
        median(&mut self.wall.clone())
    }

    /// Wall seconds of the fastest repetition. What a shared host adds to
    /// a repetition (stolen cycles, write-back, page reclaim) it only ever
    /// adds, so the fastest one is the closest to what the program costs:
    /// identical `serve-longrun` repetitions took 0.87 s to 1.86 s in one
    /// run while the fastest of each run stayed within 0.865 s to 0.897 s.
    pub fn best_wall(&self) -> f64 {
        best(&self.wall)
    }

    /// CPU seconds of the repetition that took the least CPU.
    pub fn best_cpu(&self) -> f64 {
        best(&self.cpu)
    }
}

/// Times the part of a repetition that counts; starting and stopping a
/// server around it does not.
#[derive(Default)]
pub struct Stopwatch {
    wall: f64,
    cpu: f64,
}

impl Stopwatch {
    pub fn measure<T>(&mut self, measured: impl FnOnce() -> T) -> T {
        let cpu0 = cpu_seconds();
        let t0 = Instant::now();
        let result = measured();
        self.wall += t0.elapsed().as_secs_f64();
        self.cpu += cpu_seconds() - cpu0;
        result
    }
}

/// Fewest repetitions a run reports a median over.
pub const MIN_REPS: usize = 3;

/// Repeats `op` until `seconds` have passed and [`MIN_REPS`] are done, or
/// `op` returns `false` because its inputs are used up.
pub fn repeat(seconds: f64, op: impl FnMut(usize, &mut Stopwatch) -> bool) -> Reps {
    repeat_at_least(MIN_REPS, seconds, op)
}

/// [`repeat`] with another floor on the repetitions.
pub fn repeat_at_least(
    min_reps: usize,
    seconds: f64,
    mut op: impl FnMut(usize, &mut Stopwatch) -> bool,
) -> Reps {
    let begun = Instant::now();
    let mut reps = Reps {
        wall: Vec::new(),
        cpu: Vec::new(),
        peak_rss_mb: 0.0,
    };
    let mut more = true;
    while more && (reps.wall.len() < min_reps || begun.elapsed().as_secs_f64() < seconds) {
        let mut stopwatch = Stopwatch::default();
        more = op(reps.wall.len(), &mut stopwatch);
        if reps.wall.is_empty() {
            reps.peak_rss_mb = peak_rss_mb();
        }
        reps.wall.push(stopwatch.wall);
        reps.cpu.push(stopwatch.cpu);
    }
    reps
}

/// Median of `f`'s timings in seconds: up to `max_rounds` rounds, fewer
/// once `budget_s` is spent, at least one.
pub fn median_seconds(budget_s: f64, max_rounds: usize, mut f: impl FnMut()) -> f64 {
    let begun = Instant::now();
    let mut rounds = Vec::new();
    while rounds.is_empty()
        || (rounds.len() < max_rounds && begun.elapsed().as_secs_f64() < budget_s)
    {
        let t0 = Instant::now();
        f();
        rounds.push(t0.elapsed().as_secs_f64());
    }
    median(&mut rounds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_picks_the_middle() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut [7.0]), 7.0);
        // One hiccup does not move it.
        assert_eq!(median(&mut [1.0, 1.0, 1.0, 1.0, 900.0]), 1.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[5.0], 0.99), 5.0);
        // 1000 samples: p99 leaves ten beyond it.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 990.0);
    }

    #[test]
    fn digest_depends_on_order() {
        let mut a = Digest::new();
        a.i64(1);
        a.i64(2);
        let mut b = Digest::new();
        b.i64(2);
        b.i64(1);
        assert_ne!(a.0, b.0);
    }

    #[test]
    fn process_counters_read() {
        assert!(peak_rss_mb() > 0.5);
        let before = cpu_seconds();
        let mut x = 1u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let spent = cpu_seconds() - before;
        assert!(spent > 0.0 && spent < 30.0, "{spent}");
    }

    #[test]
    fn best_is_the_fastest_repetition() {
        let reps = Reps {
            wall: vec![1.4, 0.9, 1.8],
            cpu: vec![1.3, 0.95, 0.8],
            peak_rss_mb: 1.0,
        };
        assert_eq!(reps.best_wall(), 0.9);
        assert_eq!(reps.best_cpu(), 0.8);
        assert_eq!(reps.median_wall(), 1.4);
    }
}
