//! Order statistics and process probes.

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Percentiles in thousandths of a percent, from the median upward.
const PERCENTILES_MILLI: [u64; 6] = [50_000, 90_000, 99_000, 99_900, 99_990, 99_999];

/// Samples of `n` that lie strictly beyond the nearest-rank value of
/// the percentile `p_milli` (thousandths of a percent).
fn beyond(n: u64, p_milli: u64) -> u64 {
    let rank = (n * p_milli).div_ceil(100_000);
    n - rank
}

/// The highest percentile (in thousandths of a percent) that still has
/// at least ten samples beyond it, or `None` below ten samples past
/// the median.
pub fn tail_percentile_milli(n: u64) -> Option<u64> {
    PERCENTILES_MILLI.iter().rev().copied().find(|&p| beyond(n, p) >= 10)
}

/// Nearest-rank percentile of sorted `values` (`p_milli` in thousandths
/// of a percent).
pub fn percentile_sorted(values: &[u64], p_milli: u64) -> u64 {
    let n = values.len() as u64;
    let rank = (n * p_milli).div_ceil(100_000).max(1);
    values[(rank - 1) as usize]
}

/// User + system CPU seconds this process has used, every thread
/// (including exited ones) counted, at microsecond resolution.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_s() -> f64 {
    // `struct rusage` on 64-bit Linux: two `struct timeval`s (seconds,
    // microseconds; two longs each) followed by fourteen longs.
    extern "C" {
        fn getrusage(who: i32, usage: *mut [i64; 18]) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = [0i64; 18];
    // SAFETY: `usage` is a writable buffer of exactly the size and
    // alignment of `struct rusage` on this target, and getrusage writes
    // only within it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc != 0 {
        return f64::NAN;
    }
    (usage[0] + usage[2]) as f64 + (usage[1] + usage[3]) as f64 / 1e6
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn process_cpu_s() -> f64 {
    f64::NAN
}

/// Peak resident set size of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    hsp_obs::read_memory().peak_estimate_bytes().map_or(f64::NAN, |b| b as f64 / (1 << 20) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile_milli(19), None);
        assert_eq!(tail_percentile_milli(20), Some(50_000));
        assert_eq!(tail_percentile_milli(99), Some(50_000));
        assert_eq!(tail_percentile_milli(100), Some(90_000));
        assert_eq!(tail_percentile_milli(999), Some(90_000));
        assert_eq!(tail_percentile_milli(1_000), Some(99_000));
        assert_eq!(tail_percentile_milli(9_999), Some(99_000));
        assert_eq!(tail_percentile_milli(10_000), Some(99_900));
        assert_eq!(tail_percentile_milli(100_000), Some(99_990));
        assert_eq!(tail_percentile_milli(1_000_000), Some(99_999));
        for n in [20, 100, 1_000, 1_632, 11_616, 102_534] {
            let p = tail_percentile_milli(n).expect("enough samples");
            assert!(beyond(n, p) >= 10, "n={n} p={p}");
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=1_000).collect();
        assert_eq!(percentile_sorted(&v, 50_000), 500);
        assert_eq!(percentile_sorted(&v, 99_000), 990);
        assert_eq!(percentile_sorted(&[7], 99_000), 7);
        // Exactly ten samples (991..=1000) lie beyond the 99th.
        assert_eq!(v.iter().filter(|&&x| x > percentile_sorted(&v, 99_000)).count(), 10);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn cpu_probe_counts_work_done_on_other_threads() {
        let before = process_cpu_s();
        std::thread::spawn(|| {
            let started = std::time::Instant::now();
            let mut x = 0u64;
            while started.elapsed().as_millis() < 50 {
                x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(1));
            }
        })
        .join()
        .expect("spinner");
        let spent = process_cpu_s() - before;
        assert!(spent >= 0.03, "cpu {spent}");
    }
}
