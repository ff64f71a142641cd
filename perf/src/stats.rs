//! Order statistics for timing samples and for comparing runs.
//!
//! Timings are reported as a median plus the highest percentile that
//! still has at least [`TAIL_MIN_BEYOND`] samples beyond it, together
//! with the sample count, so a tail number is never read off a handful
//! of samples.

use cfaopc_eval::Json;

/// A tail percentile is reported only when at least this many samples
/// lie beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const TAIL_CANDIDATES: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Median of `values` (mean of the two middle samples for an even
/// count). Returns `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Arithmetic mean of `values`. Returns `None` for an empty slice.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// Nearest-rank percentile: the smallest sample with at least `p` % of
/// the samples at or below it. Returns `None` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    Some(sorted[nearest_rank(n, p) - 1])
}

fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// The highest of the candidate percentiles with at least
/// [`TAIL_MIN_BEYOND`] samples above its rank, as `(p, value)`.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    let p = TAIL_CANDIDATES
        .into_iter()
        .find(|&p| n.saturating_sub(nearest_rank(n.max(1), p)) >= TAIL_MIN_BEYOND)?;
    Some((p, percentile(values, p)?))
}

/// Quartiles exactly as Python's `statistics.quantiles(values, n=4)`
/// computes them (the default `exclusive` method). One sample yields
/// that sample three times; an empty slice yields `None`.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values);
    let ld = data.len();
    match ld {
        0 => return None,
        1 => return Some([data[0]; 3]),
        _ => {}
    }
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    Some(out)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// A timing distribution as the benchmark reports it.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The highest percentile with enough samples beyond it, if any.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarizes `values`; `None` when there are no samples.
    pub fn of(values: &[f64]) -> Option<Summary> {
        Some(Summary {
            n: values.len(),
            p50: median(values)?,
            tail: tail(values),
        })
    }

    /// The summary as a JSON object (`tail_p` and `tail` are null when
    /// too few samples exist).
    pub fn to_json(&self) -> Json {
        let (tail_p, tail) = match self.tail {
            Some((p, v)) => (Json::Num(p), Json::Num(v)),
            None => (Json::Null, Json::Null),
        };
        Json::Obj(vec![
            ("n".into(), Json::Num(self.n as f64)),
            ("p50".into(), Json::Num(self.p50)),
            ("tail_p".into(), tail_p),
            ("tail".into(), tail),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(mean(&[3.0, 1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 90.0), Some(7.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p95 leaves 5 beyond, p90 leaves exactly 10.
        assert_eq!(tail(&v), Some((90.0, 90.0)));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((99.0, 990.0)));
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v), Some((50.0, 10.0)));
        assert_eq!(tail(&[1.0; 19]), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 3, 7], n=4) == [1.0, 3.0, 7.0]
        assert_eq!(quartiles(&[7.0, 1.0, 3.0]), Some([1.0, 3.0, 7.0]));
        assert_eq!(quartiles(&[5.0]), Some([5.0; 3]));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn summary_reports_count_and_tail() {
        let v: Vec<f64> = (1..=12).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!(s.n, 12);
        assert_eq!(s.p50, 6.5);
        assert_eq!(s.tail, None);
        assert!(Summary::of(&[]).is_none());
    }
}
