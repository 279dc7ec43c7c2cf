//! Order statistics, a least-squares slope, and `/proc/self` readers.

use std::time::Duration;

/// Milliseconds as a float, keeping sub-millisecond digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds as a float.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The `q`-quantile (`0.0..=1.0`) by linear interpolation between order
/// statistics; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The arithmetic mean; 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Distance between the first and third quartile as a share of the median,
/// with quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the "exclusive" method) — the spread the acceptance check uses.
pub fn iqr_share(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let pos = (i * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    let med = median(&v);
    if med == 0.0 {
        0.0
    } else {
        (cut(3) - cut(1)) / med.abs()
    }
}

/// Least-squares slope of `ys` against their indices `0, 1, 2, ...`.
pub fn slope(ys: &[f64]) -> f64 {
    let n = ys.len() as f64;
    if ys.len() < 2 {
        return 0.0;
    }
    let mean_x = (n - 1.0) / 2.0;
    let mean_y = mean(ys);
    let mut num = 0.0;
    let mut den = 0.0;
    for (i, y) in ys.iter().enumerate() {
        let dx = i as f64 - mean_x;
        num += dx * (y - mean_y);
        den += dx * dx;
    }
    num / den
}

/// Kernel clock ticks per second for `/proc/self/stat` times. There is no
/// `libc` in the vendored build, so `sysconf(_SC_CLK_TCK)` is out of reach;
/// 100 is the value on every Linux configuration this repository targets.
const CLK_TCK: f64 = 100.0;

/// Process CPU time (user + system, all threads, exited ones included) in
/// milliseconds, from `/proc/self/stat`. 0 where `/proc` is missing.
pub fn cpu_ms() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else { return 0.0 };
    // The command name may hold spaces; fields are counted after its ')'.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else { return 0.0 };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the ')' the state is field 0, so utime/stime (14/15 in proc(5)'s
    // 1-based numbering) are at 11 and 12.
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) * 1e3 / CLK_TCK
}

/// A numeric field of `/proc/self/status` (`VmHWM`, `VmRSS`, `Threads`, ...),
/// in the file's own unit (kB for memory fields). 0 when absent.
pub fn status_field(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status").map_or(0.0, |s| field_of(&s, key))
}

fn field_of(status: &str, key: &str) -> f64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

/// Voluntary context switches summed over the threads alive right now.
/// Threads that already exited are not counted: the kernel keeps no
/// per-process total.
pub fn voluntary_ctx_switches() -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else { return 0.0 };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("status")).ok())
        .map(|s| field_of(&s, "voluntary_ctxt_switches"))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn iqr_share_matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn slope_of_a_line_is_its_gradient() {
        let ys: Vec<f64> = (0..20).map(|i| 3.0 + 0.25 * f64::from(i)).collect();
        assert!((slope(&ys) - 0.25).abs() < 1e-12);
        assert_eq!(slope(&[1.0]), 0.0);
    }

    #[test]
    fn status_fields_parse() {
        let s = "Name:\tx\nVmHWM:\t  1234 kB\nThreads:\t7\nvoluntary_ctxt_switches:\t42\n";
        assert_eq!(field_of(s, "VmHWM"), 1234.0);
        assert_eq!(field_of(s, "Threads"), 7.0);
        assert_eq!(field_of(s, "voluntary_ctxt_switches"), 42.0);
        assert_eq!(field_of(s, "Missing"), 0.0);
    }
}
