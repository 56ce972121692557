//! Power metering and energy integration.
//!
//! [`PowerMeter`] stands in for the paper's Watts Up! wall meter: it
//! receives (duration, watts) samples and can report the average over the
//! whole run or over a recent window (the BMC uses the windowed view for
//! its control loop), and the joules it has accumulated — the paper's
//! "Computed Energy Consumption" column is average power × execution
//! time, which [`PowerMeter::energy_j`] reproduces exactly for piecewise-
//! constant power.

use std::collections::VecDeque;

/// Exact window-sum refresh cadence, in evictions. Incremental
/// add/subtract of `window_sum_ws`/`window_dur_s` accumulates one rounding
/// error per sample; re-deriving both from the deque every `RECOMPUTE_EVICTIONS`
/// pops bounds the drift to ~8k ulps — far inside the 1e-9 regression
/// tolerance — while staying off the golden-sweep paths (those runs evict a
/// few thousand times total, so their arithmetic is bit-identical to the
/// pure incremental scheme).
const RECOMPUTE_EVICTIONS: u32 = 8192;

/// Time-weighted power averaging.
#[derive(Clone, Debug)]
pub struct PowerMeter {
    window_s: f64,
    samples: VecDeque<(f64, f64)>, // (duration_s, watts)
    window_sum_ws: f64,
    window_dur_s: f64,
    total_ws: f64,
    total_s: f64,
    evictions_since_recompute: u32,
}

impl PowerMeter {
    /// `window_s` bounds the "recent" view used by the control loop.
    pub fn new(window_s: f64) -> Self {
        assert!(window_s > 0.0);
        PowerMeter {
            window_s,
            samples: VecDeque::new(),
            window_sum_ws: 0.0,
            window_dur_s: 0.0,
            total_ws: 0.0,
            total_s: 0.0,
            evictions_since_recompute: 0,
        }
    }

    /// Record `watts` sustained for `duration_s`.
    pub fn record(&mut self, duration_s: f64, watts: f64) {
        debug_assert!(duration_s >= 0.0 && watts >= 0.0);
        if duration_s == 0.0 {
            return;
        }
        self.total_ws += duration_s * watts;
        self.total_s += duration_s;

        let mut d = duration_s;
        if d >= self.window_s {
            // The sample alone spans the whole window: everything older is
            // already out of view, and only the trailing `window_s` of the
            // sample itself belongs in the windowed average. (Previously
            // the full oversized sample was retained, biasing
            // `window_avg_w()` toward stale power.)
            self.samples.clear();
            self.window_sum_ws = 0.0;
            self.window_dur_s = 0.0;
            self.evictions_since_recompute = 0;
            d = self.window_s;
        }
        // Split long samples into quarter-window chunks so eviction—which
        // pops whole samples—can trim the window edge at sub-window
        // granularity instead of throwing away a whole oversized sample.
        let chunk = self.window_s * 0.25;
        while d > chunk {
            self.push_sample(chunk, watts);
            d -= chunk;
        }
        self.push_sample(d, watts);

        while self.window_dur_s > self.window_s && self.samples.len() > 1 {
            let (d, w) = self.samples.pop_front().expect("non-empty");
            self.window_sum_ws -= d * w;
            self.window_dur_s -= d;
            self.evictions_since_recompute += 1;
        }
        if self.evictions_since_recompute >= RECOMPUTE_EVICTIONS {
            self.window_sum_ws = self.samples.iter().map(|&(d, w)| d * w).sum();
            self.window_dur_s = self.samples.iter().map(|&(d, _)| d).sum();
            self.evictions_since_recompute = 0;
        }
    }

    fn push_sample(&mut self, duration_s: f64, watts: f64) {
        self.samples.push_back((duration_s, watts));
        self.window_sum_ws += duration_s * watts;
        self.window_dur_s += duration_s;
    }

    /// From-scratch window average straight off the retained samples,
    /// bypassing the incremental sums. Reference value for drift tests.
    pub fn recomputed_window_avg_w(&self) -> f64 {
        let dur: f64 = self.samples.iter().map(|&(d, _)| d).sum();
        if dur == 0.0 {
            return 0.0;
        }
        let sum: f64 = self.samples.iter().map(|&(d, w)| d * w).sum();
        sum / dur
    }

    /// Time-weighted average over the recent window.
    pub fn window_avg_w(&self) -> f64 {
        if self.window_dur_s == 0.0 {
            0.0
        } else {
            self.window_sum_ws / self.window_dur_s
        }
    }

    /// Time-weighted average over the entire recording.
    pub fn run_avg_w(&self) -> f64 {
        if self.total_s == 0.0 {
            0.0
        } else {
            self.total_ws / self.total_s
        }
    }

    /// Total recorded time in seconds.
    pub fn total_s(&self) -> f64 {
        self.total_s
    }

    /// Energy over the entire recording, in joules: the sum of
    /// `duration_s × watts` over every sample, in recording order.
    pub fn energy_j(&self) -> f64 {
        self.total_ws
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_average_is_time_weighted() {
        let mut m = PowerMeter::new(10.0);
        m.record(1.0, 100.0);
        m.record(3.0, 200.0);
        assert!((m.run_avg_w() - 175.0).abs() < 1e-12);
        assert_eq!(m.total_s(), 4.0);
    }

    #[test]
    fn window_forgets_old_samples() {
        let mut m = PowerMeter::new(2.0);
        m.record(5.0, 100.0); // will be evicted once newer data arrives
        m.record(2.0, 200.0);
        assert!((m.window_avg_w() - 200.0).abs() < 1e-12);
        assert!((m.run_avg_w() - (5.0 * 100.0 + 2.0 * 200.0) / 7.0).abs() < 1e-12);
    }

    #[test]
    fn oversized_sample_does_not_bias_the_window() {
        // A sample longer than the window must contribute only its trailing
        // `window_s`; the BMC caps on this value, so stale power leaking in
        // was a control-loop bug.
        let mut m = PowerMeter::new(0.1);
        m.record(0.5, 300.0);
        assert!((m.window_avg_w() - 300.0).abs() < 1e-12);

        // Mixed case: 1 s of the old 100 W epoch is still inside a 2 s
        // window after 1 s at 200 W arrives → time-weighted 150 W.
        let mut m = PowerMeter::new(2.0);
        m.record(5.0, 100.0);
        m.record(1.0, 200.0);
        assert!((m.window_avg_w() - 150.0).abs() < 1e-12, "got {}", m.window_avg_w());
        assert!((m.run_avg_w() - (5.0 * 100.0 + 1.0 * 200.0) / 6.0).abs() < 1e-12);
    }

    #[test]
    fn window_average_does_not_drift_over_millions_of_records() {
        // Regression for incremental-sum drift: after >1e6 records the
        // rolling `window_sum_ws`/`window_dur_s` must still agree with a
        // from-scratch recomputation off the deque to 1e-9.
        let mut m = PowerMeter::new(0.01);
        let mut state: u64 = 0x9e3779b97f4a7c15;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut worst: f64 = 0.0;
        for i in 0..1_200_000u64 {
            let d = 1e-5 + (rng() % 1000) as f64 * 4e-8; // 10–50 µs ticks
            let w = 100.0 + (rng() % 6000) as f64 * 0.01; // 100–160 W
            m.record(d, w);
            if i % 100_000 == 0 {
                worst = worst.max((m.window_avg_w() - m.recomputed_window_avg_w()).abs());
            }
        }
        worst = worst.max((m.window_avg_w() - m.recomputed_window_avg_w()).abs());
        assert!(worst < 1e-9, "window average drifted by {worst}");
    }

    #[test]
    fn empty_meter_reads_zero() {
        let m = PowerMeter::new(1.0);
        assert_eq!(m.window_avg_w(), 0.0);
        assert_eq!(m.run_avg_w(), 0.0);
    }

    #[test]
    fn energy_equals_avg_power_times_time() {
        // The identity the paper uses: energy = power × execution time.
        let mut m = PowerMeter::new(100.0);
        for (d, w) in [(2.0, 150.0), (3.0, 130.0), (1.0, 160.0)] {
            m.record(d, w);
        }
        assert!((m.energy_j() - m.run_avg_w() * m.total_s()).abs() < 1e-9);
    }
}
