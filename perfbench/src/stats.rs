//! Order statistics used by the report: medians of host timings and the
//! censored job-turnaround percentiles.

/// Nearest-rank percentile (`q` in `[0, 1]`) of `values`. Returns `None`
/// for an empty slice. Nearest rank picks an observed sample, so moving
/// any one sample down can never move the result up.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median by nearest rank (the lower middle value for even counts).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5).unwrap_or(0.0)
}

/// Turnaround of one job in simulated seconds, censored at the horizon: a
/// job that has not completed by `horizon_s` counts as `horizon_s` minus
/// its submit time. A completion at or before the horizon therefore never
/// reads longer than the censored value, so mending a fault can only lower
/// the percentiles built from these samples.
pub fn censored_turnaround(submit_s: f64, completed_s: Option<f64>, horizon_s: f64) -> f64 {
    match completed_s {
        Some(done) if done <= horizon_s => done - submit_s,
        _ => horizon_s - submit_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small deterministic generator so the property runs without extra
    /// dependencies.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> f64 {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (self.0 >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 0.5), Some(3.0));
        assert_eq!(percentile(&v, 0.9), Some(5.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[2.0, 1.0]), 1.0);
    }

    #[test]
    fn censoring_caps_unfinished_jobs_at_the_horizon() {
        assert_eq!(censored_turnaround(100.0, Some(400.0), 1000.0), 300.0);
        assert_eq!(censored_turnaround(100.0, None, 1000.0), 900.0);
        assert_eq!(censored_turnaround(100.0, Some(2000.0), 1000.0), 900.0);
    }

    /// Moving any one job's completion earlier (or completing a job that
    /// was censored) never raises p50 or p90.
    #[test]
    fn earlier_completion_never_raises_p50_or_p90() {
        let mut rng = Lcg(7);
        let horizon = 10_000.0;
        for case in 0..500 {
            let n = 1 + case % 60;
            let jobs: Vec<(f64, Option<f64>)> = (0..n)
                .map(|_| {
                    let submit = rng.next() * 5_000.0;
                    let done = (rng.next() < 0.8).then(|| submit + rng.next() * 6_000.0);
                    (submit, done)
                })
                .collect();
            let samples = |jobs: &[(f64, Option<f64>)]| -> Vec<f64> {
                jobs.iter()
                    .map(|&(s, d)| censored_turnaround(s, d, horizon))
                    .collect()
            };
            let before = samples(&jobs);
            let k = (rng.next() * n as f64) as usize % n;
            let mut moved = jobs.clone();
            let (submit, done) = moved[k];
            let latest = done.unwrap_or(horizon).min(horizon);
            moved[k].1 = Some(submit + (latest - submit) * rng.next());
            let after = samples(&moved);
            for q in [0.5, 0.9] {
                assert!(
                    percentile(&after, q) <= percentile(&before, q),
                    "case {case}: q={q} rose"
                );
            }
        }
    }
}
