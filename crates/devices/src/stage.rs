//! Per-stage wall-clock seconds, shared by every device model.

/// Seconds spent in each of the four preprocessing tasks (the unit of every
/// latency-breakdown figure).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageSecs {
    /// Edge ordering.
    pub ordering: f64,
    /// Data reshaping.
    pub reshaping: f64,
    /// Unique random selection.
    pub selecting: f64,
    /// Subgraph reindexing.
    pub reindexing: f64,
}

impl StageSecs {
    /// Total preprocessing seconds.
    pub fn total(&self) -> f64 {
        self.ordering + self.reshaping + self.selecting + self.reindexing
    }

    /// Element-wise addition.
    pub fn add(&self, other: &StageSecs) -> StageSecs {
        StageSecs {
            ordering: self.ordering + other.ordering,
            reshaping: self.reshaping + other.reshaping,
            selecting: self.selecting + other.selecting,
            reindexing: self.reindexing + other.reindexing,
        }
    }

    /// Element-wise scaling.
    pub fn scale(&self, factor: f64) -> StageSecs {
        StageSecs {
            ordering: self.ordering * factor,
            reshaping: self.reshaping * factor,
            selecting: self.selecting * factor,
            reindexing: self.reindexing * factor,
        }
    }

    /// The stages as `(name, seconds)` pairs in pipeline order.
    pub fn as_pairs(&self) -> [(&'static str, f64); 4] {
        [
            ("ordering", self.ordering),
            ("reshaping", self.reshaping),
            ("selecting", self.selecting),
            ("reindexing", self.reindexing),
        ]
    }

    /// Percentage share of each stage in the total, in pipeline order.
    /// Returns zeros for an all-zero breakdown.
    pub fn shares_pct(&self) -> [f64; 4] {
        let total = self.total();
        if total <= 0.0 {
            return [0.0; 4];
        }
        [
            self.ordering / total * 100.0,
            self.reshaping / total * 100.0,
            self.selecting / total * 100.0,
            self.reindexing / total * 100.0,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StageSecs {
        StageSecs {
            ordering: 1.0,
            reshaping: 2.0,
            selecting: 3.0,
            reindexing: 4.0,
        }
    }

    #[test]
    fn total_and_add_and_scale() {
        let s = sample();
        assert_eq!(s.total(), 10.0);
        assert_eq!(s.add(&s).total(), 20.0);
        assert_eq!(s.scale(0.5).total(), 5.0);
    }

    #[test]
    fn shares_sum_to_hundred() {
        let shares = sample().shares_pct();
        let sum: f64 = shares.iter().sum();
        assert!((sum - 100.0).abs() < 1e-9);
        assert_eq!(shares[3], 40.0);
    }

    #[test]
    fn zero_breakdown_has_zero_shares() {
        assert_eq!(StageSecs::default().shares_pct(), [0.0; 4]);
    }

    #[test]
    fn pairs_are_in_pipeline_order() {
        let names: Vec<&str> = sample().as_pairs().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["ordering", "reshaping", "selecting", "reindexing"]);
    }
}
