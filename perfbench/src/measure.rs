//! Small measurement helpers: order statistics, the failure-rate bound,
//! resident memory, seed mixing and the hand-rolled JSON the result
//! records are written in.

/// One named measurement with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile `q` in `[0, 1]` of `values` (0 for an empty
/// slice).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Mean of `values` (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().fold(0.0, |a, b| a + b) / values.len() as f64
    }
}

/// One-sided 95% upper confidence bound on the failure rate, in parts
/// per million, after `failed` failures among `checked` distinct
/// requests (Poisson model: the rate `λ/checked` with
/// `P(X ≤ failed; λ) = 0.05`). With no failure this is the "rule of
/// three", `2.996e6 / checked`; it is never 0, and one failure raises it
/// by more than half.
pub fn failed_ppm_bound(failed: u64, checked: u64) -> f64 {
    let cdf = |lambda: f64| {
        let mut term = (-lambda).exp();
        let mut sum = term;
        for i in 1..=failed {
            term *= lambda / i as f64;
            sum += term;
        }
        sum
    };
    let (mut lo, mut hi) = (0.0f64, 10.0 + 4.0 * failed as f64);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if cdf(mid) > 0.05 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi / checked.max(1) as f64 * 1e6
}

/// Resident high-water mark of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64 finaliser over `(seed, a, b)`: decorrelated per-request
/// seeds from one workload seed.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(b.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Formats a finite number for JSON with all its digits (`{}` is the
/// shortest representation that round-trips).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// A JSON string literal of `s`.
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", rnnasip_bench::json::escape(s))
}

/// `{"name": {"value": v, "unit": "u"}, ...}` in the given order.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(percentile(&v, 0.99), 5.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn failure_bound_is_the_rule_of_three_without_failures() {
        let b = failed_ppm_bound(0, 1_000_000);
        assert!((b - 2.9957).abs() < 1e-3, "{b}");
        assert!(failed_ppm_bound(1, 1_000_000) > 1.5 * b);
        assert!(failed_ppm_bound(0, 1000) > failed_ppm_bound(0, 2000));
    }

    #[test]
    fn json_escapes_and_formats() {
        assert_eq!(json_str("a\"b"), "\"a\\\"b\"");
        assert_eq!(json_num(1.5), "1.5");
        assert_eq!(json_num(f64::NAN), "null");
        let m = [Metric {
            name: "x",
            value: 2.0,
            unit: "s",
        }];
        assert_eq!(metrics_json(&m), "{\"x\": {\"value\": 2, \"unit\": \"s\"}}");
    }
}
