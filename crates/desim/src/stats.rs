//! Statistics helpers used across the simulator: time-weighted means.

use crate::time::VirtualTime;

/// Accumulates the time integral of a piecewise-constant signal.
///
/// Call [`record`](TimeWeighted::record) *with the value that has been in
/// effect since the previous record* each time the signal changes; query the
/// mean with [`mean_until`](TimeWeighted::mean_until), supplying the value in
/// effect since the last change.
#[derive(Debug, Clone, Default)]
pub struct TimeWeighted {
    integral: f64,
    last_change: VirtualTime,
}

impl TimeWeighted {
    /// Fresh accumulator starting at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// The signal held `value` from the previous change until `now`.
    pub fn record(&mut self, now: VirtualTime, value: f64) {
        let dt = now.duration_since(self.last_change).as_secs_f64();
        self.integral += value * dt;
        self.last_change = now;
    }

    /// Integral of the signal over `[0, now]`, where `current` is the value
    /// in effect since the last recorded change.
    pub fn integral_until(&self, now: VirtualTime, current: f64) -> f64 {
        self.integral + current * now.duration_since(self.last_change).as_secs_f64()
    }

    /// Time-average of the signal over `[0, now]`; zero when `now == 0`.
    pub fn mean_until(&self, now: VirtualTime, current: f64) -> f64 {
        let span = now.as_secs_f64();
        if span == 0.0 {
            0.0
        } else {
            self.integral_until(now, current) / span
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_weighted_piecewise_mean() {
        let mut tw = TimeWeighted::new();
        // value 2 on [0s, 1s), 4 on [1s, 3s), then 0
        tw.record(VirtualTime(1_000_000_000), 2.0);
        tw.record(VirtualTime(3_000_000_000), 4.0);
        // integral = 2 + 8 = 10 over 5s
        let mean = tw.mean_until(VirtualTime(5_000_000_000), 0.0);
        assert!((mean - 2.0).abs() < 1e-12, "mean = {mean}");
    }

    #[test]
    fn time_weighted_zero_span() {
        let tw = TimeWeighted::new();
        assert_eq!(tw.mean_until(VirtualTime::ZERO, 7.0), 0.0);
    }
}
