//! Host-side measurements: process memory from procfs and order
//! statistics over a handful of repetitions.

/// Reads a `kB` field of `/proc/self/status` and returns it in MiB.
fn status_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim_start_matches(':').split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("{field} missing from /proc/self/status"));
    kb / 1024.0
}

/// Peak resident set of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM")
}

/// Current resident set of this process (`VmRSS`), MiB.
pub fn rss_mib() -> f64 {
    status_mib("VmRSS")
}

/// Touches and frees `mib` MiB. The parent calls it before it starts a
/// child, never the child itself, whose `VmHWM` it would raise.
///
/// On the sandbox this was sized on, guest memory that has been idle for
/// a few seconds is reclaimed by the host, and the first touch afterwards
/// costs up to ten times a normal page fault (README, *Oddities*) — the
/// 1.1 GiB cell then takes 9–13 s instead of 5.5 s. Touching as much as
/// the previous repetition peaked at pays that once, outside every
/// metric; the freed pages go back to the guest kernel still backed by
/// the host, and the repetition's own faults on them cost what they would
/// on a real machine.
pub fn prefault(mib: usize) {
    let mut block = vec![0u8; mib << 20];
    for page in block.chunks_mut(4096) {
        page[0] = 1;
    }
    std::hint::black_box(&block);
}

/// Median of `values` (mean of the two middle values when even).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in measurements"));
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
    fn median_handles_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn procfs_fields_parse() {
        assert!(peak_rss_mib() >= rss_mib() * 0.5);
        assert!(rss_mib() > 0.0);
    }
}
