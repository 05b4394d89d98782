//! Small statistics and process-resource helpers.

/// Nearest-rank percentile (`p` in `[0, 1]`); 0 for an empty sample.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (p * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Median of a non-empty sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// A memory figure of this process in MB, such as `VmRSS` (resident now) or
/// `VmHWM` (the resident high-water mark), from `/proc/self/status`.
pub fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .unwrap_or_else(|| panic!("{field} in /proc/self/status"));
    kb / 1024.0
}

/// Resets `VmHWM` to the current resident size (Linux 4.0 and later), so a
/// later reading is the peak from now on.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}
