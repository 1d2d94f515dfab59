//! The benchmark's own statistics: percentiles with a tail-size rule, and
//! the two per-job clocks (host latency and simulated wait).

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; otherwise the median alone is reported.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Linear-interpolated quantile `q` (in `[0, 1]`) of unsorted samples.
/// `None` for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of unsorted samples (`None` when empty).
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// How many samples lie strictly beyond the `q` quantile of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    ((n as f64) * (1.0 - q)).floor() as usize
}

/// A tail percentile, or why it cannot be reported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tail {
    /// The percentile: at least [`MIN_TAIL_SAMPLES`] samples lie beyond it.
    Percentile(f64),
    /// Too few samples for that percentile; the median is reported alone.
    MedianOnly(f64),
}

impl Tail {
    /// The number reported, whichever of the two it is.
    pub fn value(self) -> f64 {
        match self {
            Tail::Percentile(v) | Tail::MedianOnly(v) => v,
        }
    }
}

/// The `q` percentile under the tail-size rule (`None` when empty).
pub fn tail(samples: &[f64], q: f64) -> Option<Tail> {
    if samples_beyond(samples.len(), q) >= MIN_TAIL_SAMPLES {
        quantile(samples, q).map(Tail::Percentile)
    } else {
        median(samples).map(Tail::MedianOnly)
    }
}

/// Simulated wait of one job: the cycles from the cycle it was enqueued in
/// to the cycle that made it terminal, counting that cycle. A job enqueued
/// before tick `k` and terminal after the same tick waited 1 cycle.
pub fn wait_cycles(enqueue_tick: u64, terminal_tick: u64) -> u64 {
    debug_assert!(terminal_tick >= enqueue_tick);
    terminal_tick + 1 - enqueue_tick
}

/// Per-job clocks of one round. A job's host latency runs from the start of
/// its `enqueue` call to the end of the `tick()` after which the watch log
/// first shows it terminal; its wait runs over the same span in cycles.
#[derive(Debug, Default)]
pub struct JobClocks {
    /// Host instant (seconds since the round's epoch) each enqueue started.
    enqueue_start: Vec<f64>,
    /// Tick number of the first tick after each job's enqueue.
    enqueue_tick: Vec<u64>,
    /// Latency in host seconds, once terminal.
    latency_s: Vec<Option<f64>>,
    /// Wait in cycles, once terminal.
    wait: Vec<Option<u64>>,
}

impl JobClocks {
    /// Clocks for `jobs` jobs, none enqueued yet.
    pub fn new(jobs: usize) -> Self {
        JobClocks {
            enqueue_start: vec![f64::NAN; jobs],
            enqueue_tick: vec![0; jobs],
            latency_s: vec![None; jobs],
            wait: vec![None; jobs],
        }
    }

    /// Job `job` was enqueued starting at host time `start_s`, before tick
    /// number `next_tick` ran.
    pub fn enqueued(&mut self, job: usize, start_s: f64, next_tick: u64) {
        self.enqueue_start[job] = start_s;
        self.enqueue_tick[job] = next_tick;
    }

    /// The watch log shows job `job` terminal after tick `tick`, whose call
    /// returned at host time `tick_end_s`. Only the first report counts.
    pub fn terminal(&mut self, job: usize, tick: u64, tick_end_s: f64) {
        if self.wait[job].is_none() {
            self.latency_s[job] = Some(tick_end_s - self.enqueue_start[job]);
            self.wait[job] = Some(wait_cycles(self.enqueue_tick[job], tick));
        }
    }

    /// Latencies in milliseconds of the terminal jobs.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.latency_s.iter().flatten().map(|s| s * 1e3).collect()
    }

    /// Waits in cycles of the terminal jobs.
    pub fn waits(&self) -> Vec<f64> {
        self.wait.iter().flatten().map(|&w| w as f64).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let samples = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&samples, 0.0), Some(1.0));
        assert_eq!(quantile(&samples, 1.0), Some(4.0));
        assert_eq!(median(&samples), Some(2.5));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 999 samples leave 9 beyond the 99th percentile: median only.
        let short: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(samples_beyond(short.len(), 0.99), 9);
        assert_eq!(tail(&short, 0.99), Some(Tail::MedianOnly(499.0)));
        // 1,000 samples leave exactly 10 beyond it: the percentile.
        let long: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(samples_beyond(long.len(), 0.99), 10);
        match tail(&long, 0.99) {
            Some(Tail::Percentile(v)) => assert!((v - 989.01).abs() < 1e-9),
            other => panic!("expected a percentile, got {other:?}"),
        }
    }

    #[test]
    fn median_is_reported_even_for_tiny_samples() {
        assert_eq!(tail(&[7.0], 0.5), Some(Tail::MedianOnly(7.0)));
        // The median itself needs 20 samples to count as a percentile.
        let twenty: Vec<f64> = (0..20).map(f64::from).collect();
        assert!(matches!(tail(&twenty, 0.5), Some(Tail::Percentile(_))));
        assert_eq!(tail(&[], 0.5), None);
    }

    #[test]
    fn wait_is_counted_from_one() {
        assert_eq!(wait_cycles(5, 5), 1);
        assert_eq!(wait_cycles(5, 9), 5);
    }

    #[test]
    fn latency_ends_at_the_tick_after_which_the_job_was_terminal() {
        let mut clocks = JobClocks::new(2);
        clocks.enqueued(0, 1.0, 1);
        clocks.enqueued(1, 1.5, 2);
        assert!(clocks.waits().is_empty());
        // Job 0 is terminal after tick 2, which returned at t = 3.0 s.
        clocks.terminal(0, 2, 3.0);
        // A later sighting of the same job does not move its end.
        clocks.terminal(0, 3, 4.0);
        clocks.terminal(1, 2, 3.0);
        assert_eq!(clocks.latencies_ms(), vec![2000.0, 1500.0]);
        assert_eq!(clocks.waits(), vec![2.0, 1.0]);
    }
}
