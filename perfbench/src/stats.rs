//! Order statistics and the reconciliation arithmetic the benchmark
//! reports with.

/// The median of `samples` (the mean of the two middle values for an
/// even count); 0 for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of `samples`: the
/// smallest sample with at least `p`% of the samples at or below it; 0
/// for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    let sorted = sorted(samples);
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many of `n` samples lie strictly above the nearest-rank `p`-th
/// percentile — the tail a percentile rests on. A percentile is reported
/// as resolved only when at least ten samples lie beyond it.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    n - rank.min(n)
}

/// `total / count`, or 0 when nothing was counted.
pub fn per(total: f64, count: usize) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// An end-to-end total split into named parts plus the unexplained
/// residual, so that the parts and the residual add up to the total.
#[derive(Debug, Clone, PartialEq)]
pub struct Reconciliation {
    /// The end-to-end total the parts explain.
    pub total: f64,
    /// Named parts, in the order given.
    pub parts: Vec<(String, f64)>,
    /// `total` minus the sum of the parts (negative when the parts
    /// over-explain the total).
    pub residual: f64,
}

impl Reconciliation {
    /// Splits `total` into `parts` and the residual.
    pub fn new(total: f64, parts: Vec<(String, f64)>) -> Self {
        let explained: f64 = parts.iter().map(|(_, v)| v).sum();
        Reconciliation {
            total,
            residual: total - explained,
            parts,
        }
    }

    /// The share of the total a value represents, in percent.
    pub fn pct(&self, value: f64) -> f64 {
        if self.total == 0.0 {
            0.0
        } else {
            100.0 * value / self.total
        }
    }

    /// Whether the parts plus the residual give back the total within a
    /// relative `tolerance`.
    #[cfg(test)]
    pub fn balances(&self, tolerance: f64) -> bool {
        let sum: f64 = self.parts.iter().map(|(_, v)| v).sum::<f64>() + self.residual;
        (sum - self.total).abs() <= tolerance * self.total.abs().max(f64::MIN_POSITIVE)
    }

    /// The table as text lines: each part and the residual with its
    /// share of the total, `scale` converting seconds to `unit`.
    pub fn table(&self, title: &str, scale: f64, unit: &str) -> Vec<String> {
        let mut lines = vec![format!(
            "reconcile {title}: total {:.3} {unit}",
            self.total * scale
        )];
        for (name, value) in &self.parts {
            lines.push(format!(
                "  {name:<28} {:>12.3} {unit} {:>6.1}%",
                value * scale,
                self.pct(*value)
            ));
        }
        lines.push(format!(
            "  {:<28} {:>12.3} {unit} {:>6.1}%",
            "residual",
            self.residual * scale,
            self.pct(self.residual)
        ));
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn median_ignores_input_order() {
        let a = [9.0, 2.0, 7.0, 4.0, 5.0];
        let mut b = a;
        b.reverse();
        assert_eq!(median(&a), median(&b));
        assert_eq!(median(&a), 5.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), 50.0);
        assert_eq!(percentile(&samples, 90.0), 90.0);
        assert_eq!(percentile(&samples, 100.0), 100.0);
        assert_eq!(percentile(&samples, 0.5), 1.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert_eq!(percentile(&[], 90.0), 0.0);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 90.0), 9.0);
    }

    #[test]
    fn tail_sample_counts() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert_eq!(samples_beyond(250, 90.0), 25);
        assert_eq!(samples_beyond(10, 90.0), 1);
        assert_eq!(samples_beyond(0, 90.0), 0);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn zero_percentile_is_rejected() {
        percentile(&[1.0], 0.0);
    }

    #[test]
    fn per_guards_empty_counts() {
        assert_eq!(per(10.0, 4), 2.5);
        assert_eq!(per(10.0, 0), 0.0);
    }

    #[test]
    fn reconciliation_residual_closes_the_total() {
        let r = Reconciliation::new(10.0, vec![("a".into(), 6.0), ("b".into(), 3.0)]);
        assert_eq!(r.residual, 1.0);
        assert!(r.balances(1e-12));
        assert_eq!(r.pct(6.0), 60.0);
        let over = Reconciliation::new(5.0, vec![("a".into(), 6.0)]);
        assert_eq!(over.residual, -1.0);
        assert!(over.balances(1e-12));
        let lines = r.table("t", 1e3, "ms");
        assert_eq!(lines.len(), 4);
        assert!(lines[3].contains("residual"));
    }

    #[test]
    fn reconciliation_detects_a_mismatch() {
        let mut r = Reconciliation::new(10.0, vec![("a".into(), 6.0)]);
        r.residual = 1.0;
        assert!(!r.balances(1e-9));
        assert_eq!(Reconciliation::new(0.0, vec![]).pct(1.0), 0.0);
    }
}
