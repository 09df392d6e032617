//! The benchmark's arithmetic: tail percentiles, due-time latency, queue
//! wait and the attribution sum. Kept free of I/O so the unit tests below
//! pin every rule the reports rely on.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The highest reported tail percentile.
pub const MAX_TAIL_PERCENTILE: f64 = 99.0;

/// Index into an ascending sample of `n` values of the tail statistic: the
/// highest percentile, at most p99, that leaves at least [`MIN_BEYOND`]
/// samples beyond it (nearest-rank). A sample too small for any such
/// percentile above the median reports its maximum instead.
pub fn tail_index(n: usize) -> usize {
    assert!(n > 0, "a tail needs at least one sample");
    let p99_rank = (n as f64 * MAX_TAIL_PERCENTILE / 100.0).ceil() as usize;
    let rank = p99_rank.min(n.saturating_sub(MIN_BEYOND));
    if rank < n.div_ceil(2) {
        return n - 1;
    }
    rank - 1
}

/// Nearest-rank percentile `p` of an ascending sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "a percentile needs at least one sample");
    let rank = (sorted.len() as f64 * p / 100.0).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median, tail and sample count of one set of timings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail: f64,
    /// Which percentile `tail` is (99 whenever `n >= 1000`).
    pub tail_percentile: f64,
    pub max: f64,
}

impl Summary {
    /// `None` for an empty sample.
    pub fn of(mut values: Vec<f64>) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        values.sort_by(f64::total_cmp);
        let n = values.len();
        let t = tail_index(n);
        Some(Summary {
            n,
            p50: percentile(&values, 50.0),
            tail: values[t],
            tail_percentile: 100.0 * (t + 1) as f64 / n as f64,
            max: values[n - 1],
        })
    }
}

/// Latency of an open-loop request, measured from when it was *due*, not
/// from when the generator got round to sending it: a stall delays every
/// request scheduled behind it, and that wait belongs to the system.
/// A request that never completed has no latency (it counts as failed).
pub fn due_latency_ns(due_ns: u64, done_ns: Option<u64>) -> Option<u64> {
    done_ns.map(|done| done.saturating_sub(due_ns))
}

/// How late the generator handed a request over, in ns (0 when on time).
pub fn lag_ns(due_ns: u64, sent_ns: u64) -> u64 {
    sent_ns.saturating_sub(due_ns)
}

/// Queue wait of one request: its sojourn in the runtime (from the return
/// of `submit` to the reply leaving the shard) minus the time the same
/// request takes in a serial replay. Clamped at zero — a replay that ran
/// slower than the live shard leaves no measurable wait, and the surplus
/// shows up as a negative attribution gap instead.
pub fn queue_wait_ns(sojourn_ns: u64, serial_service_ns: u64) -> u64 {
    sojourn_ns.saturating_sub(serial_service_ns)
}

/// The per-request parts the traced run measures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Parts {
    pub decode_ns: u64,
    pub dispatch_ns: u64,
    pub queue_wait_ns: u64,
    pub service_ns: u64,
    pub encode_ns: u64,
}

impl Parts {
    pub fn sum(&self) -> u64 {
        self.decode_ns + self.dispatch_ns + self.queue_wait_ns + self.service_ns + self.encode_ns
    }
}

/// Share of the measured whole (line read to reply encoded, summed over
/// requests) that the parts do not account for. Positive: time between the
/// measured parts; negative: parts overlap or the serial replay ran slower
/// than the live shard.
pub fn attribution_gap_frac(parts: &[Parts], whole_ns: &[u64]) -> f64 {
    let whole: u64 = whole_ns.iter().sum();
    if whole == 0 {
        return 0.0;
    }
    let covered: u64 = parts.iter().map(Parts::sum).sum();
    (whole as f64 - covered as f64) / whole as f64
}

/// Splits timestamped samples into `k` equal windows of `[t0, t1]`, applies
/// `f` to each non-empty window's values (with the window length in
/// seconds) and returns the median of the results. A hiccup of the host
/// then spoils one window instead of the whole run's figure.
pub fn windowed_median(
    samples: &[(u64, f64)],
    t0: u64,
    t1: u64,
    k: usize,
    f: impl Fn(&[f64], f64) -> f64,
) -> Option<f64> {
    let span = t1.saturating_sub(t0).max(1);
    let mut windows: Vec<Vec<f64>> = vec![Vec::new(); k];
    for &(t, v) in samples {
        let w = ((t.saturating_sub(t0) as u128 * k as u128) / span as u128) as usize;
        windows[w.min(k - 1)].push(v);
    }
    let window_s = span as f64 / k as f64 / 1e9;
    let results: Vec<f64> = windows
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| f(w, window_s))
        .collect();
    (!results.is_empty()).then(|| median(&results))
}

/// Splits an ordered sample into `k` runs of (nearly) equal length, applies
/// `f` to each and returns the median of the results.
pub fn chunked_median(values: &[f64], k: usize, f: impl Fn(&[f64]) -> f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let k = k.clamp(1, values.len());
    let results: Vec<f64> = (0..k)
        .map(|i| f(&values[i * values.len() / k..(i + 1) * values.len() / k]))
        .collect();
    Some(median(&results))
}

/// Median of a small sample (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "a median needs at least one value");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_p99_once_ten_samples_lie_beyond_it() {
        // 1000 samples: p99 is rank 990, leaving exactly 10 beyond.
        assert_eq!(tail_index(1000), 989);
        let sample: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(sample).unwrap();
        assert_eq!(s.tail, 990.0);
        assert_eq!(s.tail_percentile, 99.0);
        assert_eq!(s.n - (tail_index(s.n) + 1), 10);
    }

    #[test]
    fn tail_drops_below_p99_when_the_sample_is_small() {
        // 200 samples: p99 (rank 198) would leave 2 beyond; the rule walks
        // down to rank 190, the highest with 10 beyond (p95).
        assert_eq!(tail_index(200), 189);
        let s = Summary::of((1..=200).map(f64::from).collect()).unwrap();
        assert_eq!(s.tail, 190.0);
        assert!((s.tail_percentile - 95.0).abs() < 1e-9);
        for n in 20..3000 {
            let beyond = n - (tail_index(n) + 1);
            assert!(beyond >= MIN_BEYOND, "n={n}: {beyond} beyond");
            // Highest such percentile: one rank higher would break the rule
            // unless the p99 cap is what binds.
            let capped = (n as f64 * 0.99).ceil() as usize == tail_index(n) + 1;
            assert!(capped || beyond == MIN_BEYOND, "n={n}");
        }
    }

    #[test]
    fn tiny_samples_report_the_maximum() {
        // Until 10 samples beyond the tail leave it at or above the median,
        // the maximum stands in for the tail.
        assert_eq!(tail_index(1), 0);
        assert_eq!(tail_index(10), 9);
        assert_eq!(tail_index(16), 15);
        assert_eq!(tail_index(19), 18);
        assert_eq!(tail_index(20), 9);
        assert!(tail_index(21) + 1 >= 21usize.div_ceil(2));
        let s = Summary::of(vec![3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.p50, s.tail, s.max), (2.0, 3.0, 3.0));
    }

    #[test]
    fn due_time_latency_charges_a_stall_to_every_request_behind_it() {
        // Requests due every 1 ms; the system stalls for 50 ms on the
        // first one, so the generator (blocked behind it) sends the rest
        // late and they complete right after being sent.
        let due: Vec<u64> = (0..10).map(|i| i * 1_000_000).collect();
        let sent: Vec<u64> = due
            .iter()
            .map(|&d| if d == 0 { 0 } else { 50_000_000 + d / 100 })
            .collect();
        let done: Vec<u64> = sent.iter().map(|&s| s.max(50_000_000) + 100_000).collect();
        let from_due: Vec<u64> = due
            .iter()
            .zip(&done)
            .map(|(&d, &c)| due_latency_ns(d, Some(c)).unwrap())
            .collect();
        let from_sent: Vec<u64> = sent.iter().zip(&done).map(|(&s, &c)| c - s).collect();
        // Measured from the send, the stall hides behind the generator.
        assert!(from_sent[1..].iter().all(|&l| l <= 100_000));
        // Measured from the due time, each later request waited out the
        // rest of the stall.
        for (i, &l) in from_due.iter().enumerate() {
            assert!(l >= 50_000_000 - due[i], "request {i}: {l}");
        }
        assert!(lag_ns(due[5], sent[5]) > 40_000_000);
        assert_eq!(lag_ns(10, 5), 0);
        assert_eq!(due_latency_ns(5, None), None);
    }

    #[test]
    fn queue_wait_is_sojourn_minus_serial_service_and_never_negative() {
        assert_eq!(queue_wait_ns(10_000, 4_000), 6_000);
        assert_eq!(queue_wait_ns(4_000, 10_000), 0);
    }

    #[test]
    fn attribution_sums_the_parts_against_the_whole() {
        let parts = [
            Parts {
                decode_ns: 10,
                dispatch_ns: 5,
                queue_wait_ns: 40,
                service_ns: 30,
                encode_ns: 5,
            },
            Parts {
                decode_ns: 10,
                dispatch_ns: 5,
                queue_wait_ns: 0,
                service_ns: 70,
                encode_ns: 5,
            },
        ];
        assert_eq!(parts[0].sum(), 90);
        // 200 measured, 180 covered: 10% unattributed.
        let gap = attribution_gap_frac(&parts, &[100, 100]);
        assert!((gap - 0.1).abs() < 1e-12);
        // Parts that overrun the whole give a negative gap.
        assert!(attribution_gap_frac(&parts, &[80, 80]) < 0.0);
        assert_eq!(attribution_gap_frac(&[], &[]), 0.0);
    }

    #[test]
    fn windowed_median_ignores_one_spoiled_window() {
        // Five 1 s windows of 100 samples each; window 2 has a stall.
        let samples: Vec<(u64, f64)> = (0..500u64)
            .map(|i| {
                (
                    i * 10_000_000,
                    if (200..300).contains(&i) { 50.0 } else { 1.0 },
                )
            })
            .collect();
        let p99 = |v: &[f64], _: f64| Summary::of(v.to_vec()).unwrap().tail;
        let m = windowed_median(&samples, 0, 5_000_000_000, 5, p99).unwrap();
        assert_eq!(m, 1.0);
        // Per-window rates: 100 samples per second in every window.
        let rate = |v: &[f64], secs: f64| v.len() as f64 / secs;
        let r = windowed_median(&samples, 0, 5_000_000_000, 5, rate).unwrap();
        assert!((r - 100.0).abs() < 1e-9);
        assert_eq!(windowed_median(&[], 0, 1, 3, rate), None);
    }

    #[test]
    fn chunked_median_weighs_runs_of_equal_length() {
        // 10 values in 5 runs of 2; one run is slow.
        let v = [1.0, 1.0, 9.0, 9.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        let max = |run: &[f64]| run.iter().cloned().fold(0.0, f64::max);
        assert_eq!(chunked_median(&v, 5, max), Some(1.0));
        assert_eq!(chunked_median(&v[..3], 5, max), Some(1.0));
        assert_eq!(chunked_median(&[], 5, max), None);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
