//! The per-tenant latency EWMA — one predictor for SLO gating and hedge
//! triggering.
//!
//! The simulator's [`SchedKind::SloAware`](super::SchedKind::SloAware)
//! reconfiguration gate and its hedged-dispatch trigger both need the
//! same estimate: "what is this tenant's p99 end-to-end latency right
//! now?". A run keeps one instance fed by every completion, so a gate
//! decision and a hedge decision made at the same instant read the same
//! prediction.

/// EWMA smoothing factor for the per-tenant latency tracker (~the last
/// dozen requests dominate the estimate).
pub const EWMA_ALPHA: f64 = 0.15;
/// Standard-normal z-score of the 99th percentile: the predicted p99 is
/// `mean + Z_P99 · stddev` of the EWMA-tracked latency distribution.
pub const Z_P99: f64 = 2.326;

/// Per-tenant exponentially weighted latency statistics with a p99
/// projection.
///
/// Tracks an EWMA of the observed end-to-end latency and of the squared
/// deviation from that mean; [`predicted_p99`](Self::predicted_p99) is
/// `mean + Z_P99 · stddev`. A tenant with no observation yet is *cold*
/// ([`is_warm`](Self::is_warm) is `false`) and predicts `0.0` — callers
/// decide what cold means (the SLO gate stays open, the hedge trigger
/// stays closed).
#[derive(Debug, Clone)]
pub struct LatencyPredictor {
    /// Per-tenant EWMA of end-to-end latency.
    mean: Vec<f64>,
    /// Per-tenant EWMA of squared deviation from the mean.
    var: Vec<f64>,
    /// Observation count per tenant (0 = cold).
    samples: Vec<u64>,
}

impl LatencyPredictor {
    /// A cold predictor for `tenants` tenants.
    ///
    /// # Panics
    ///
    /// Panics if `tenants` is zero.
    pub fn new(tenants: usize) -> Self {
        assert!(tenants > 0, "need at least one tenant");
        LatencyPredictor {
            mean: vec![0.0; tenants],
            var: vec![0.0; tenants],
            samples: vec![0; tenants],
        }
    }

    /// Feeds one completed request's end-to-end latency into the
    /// tenant's EWMA. The first observation seeds the mean directly
    /// (variance zero); later ones apply the standard EWMA update.
    pub fn observe(&mut self, tenant: usize, total_secs: f64) {
        if self.samples[tenant] == 0 {
            self.mean[tenant] = total_secs;
            self.var[tenant] = 0.0;
        } else {
            let dev = total_secs - self.mean[tenant];
            self.mean[tenant] += EWMA_ALPHA * dev;
            self.var[tenant] = (1.0 - EWMA_ALPHA) * (self.var[tenant] + EWMA_ALPHA * dev * dev);
        }
        self.samples[tenant] += 1;
    }

    /// The tenant's current predicted p99 in seconds (0 while cold).
    pub fn predicted_p99(&self, tenant: usize) -> f64 {
        if self.samples[tenant] == 0 {
            0.0
        } else {
            self.mean[tenant] + Z_P99 * self.var[tenant].max(0.0).sqrt()
        }
    }

    /// True once the tenant has at least one observation.
    pub fn is_warm(&self, tenant: usize) -> bool {
        self.samples[tenant] > 0
    }

    /// Observations recorded for the tenant so far.
    pub fn samples(&self, tenant: usize) -> u64 {
        self.samples[tenant]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_predictor_predicts_zero() {
        let p = LatencyPredictor::new(2);
        assert!(!p.is_warm(0));
        assert_eq!(p.samples(1), 0);
        assert_eq!(p.predicted_p99(0), 0.0);
    }

    #[test]
    fn first_observation_seeds_the_mean() {
        let mut p = LatencyPredictor::new(1);
        p.observe(0, 0.5);
        assert!(p.is_warm(0));
        assert_eq!(p.samples(0), 1);
        // Variance is zero after one sample, so p99 == mean.
        assert!((p.predicted_p99(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn steady_traffic_converges_and_a_tail_raises_the_prediction() {
        let mut p = LatencyPredictor::new(1);
        for _ in 0..50 {
            p.observe(0, 0.1);
        }
        assert!(p.predicted_p99(0) < 0.2);
        for _ in 0..20 {
            p.observe(0, 3.0);
        }
        assert!(p.predicted_p99(0) > 1.0, "EWMA follows the degradation");
    }

    #[test]
    fn tenants_are_independent() {
        let mut p = LatencyPredictor::new(2);
        for _ in 0..30 {
            p.observe(0, 1.0);
        }
        assert!(p.predicted_p99(0) > 0.5);
        assert!(!p.is_warm(1));
        assert_eq!(p.predicted_p99(1), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one tenant")]
    fn zero_tenants_are_rejected() {
        LatencyPredictor::new(0);
    }
}
