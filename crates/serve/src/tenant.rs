//! Tenants and their arrival processes.
//!
//! A tenant binds a Table II dataset, sampling parameters and a GNN spec to
//! a seeded arrival process. Tenants optionally *drift*: their graph grows
//! at the dataset's Table II daily rate (§III-A), shifting the workload the
//! cost model sees — which is what makes dispatch-policy choices matter
//! under sustained load.

use agnn_algo::pipeline::SampleParams;
use agnn_cost::Workload;
use agnn_gnn::models::GnnSpec;
use agnn_graph::datasets::Dataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seconds per simulated day (drift rates are quoted per day).
pub const SECS_PER_DAY: f64 = 86_400.0;

/// When requests arrive, in simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Homogeneous Poisson arrivals at `rate_rps` requests per second.
    Poisson {
        /// Mean arrival rate, requests per second.
        rate_rps: f64,
    },
    /// Sinusoidally-modulated Poisson arrivals — the day/night traffic
    /// cycle of a consumer service. Instantaneous rate:
    /// `mean_rps * (1 + amplitude * sin(2π (t + phase_secs) / period_secs))`.
    Diurnal {
        /// Mean arrival rate, requests per second.
        mean_rps: f64,
        /// Peak-to-mean modulation in `[0, 1)`.
        amplitude: f64,
        /// Cycle length in simulated seconds (86 400 for a day).
        period_secs: f64,
        /// Phase offset in seconds (shifts tenants' peaks apart).
        phase_secs: f64,
    },
}

impl ArrivalProcess {
    /// The instantaneous rate at simulated time `now`.
    pub fn rate_at(&self, now: f64) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate_rps } => rate_rps,
            ArrivalProcess::Diurnal {
                mean_rps,
                amplitude,
                period_secs,
                phase_secs,
            } => {
                let angle = std::f64::consts::TAU * (now + phase_secs) / period_secs;
                mean_rps * (1.0 + amplitude * angle.sin())
            }
        }
    }

    /// The peak instantaneous rate — the thinning envelope of
    /// [`next_after`](ArrivalProcess::next_after).
    pub fn peak_rate(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate_rps } => rate_rps,
            ArrivalProcess::Diurnal {
                mean_rps,
                amplitude,
                ..
            } => mean_rps * (1.0 + amplitude),
        }
    }

    /// Panics unless the process can generate arrivals: a positive,
    /// finite peak rate and, for [`ArrivalProcess::Diurnal`], an
    /// amplitude in `[0, 1)`, a positive finite period and a finite phase
    /// (a zero period or a NaN phase makes every rate NaN, and thinning
    /// would then reject forever).
    pub(crate) fn assert_valid(&self) {
        if let ArrivalProcess::Diurnal {
            amplitude,
            period_secs,
            phase_secs,
            ..
        } = *self
        {
            assert!(
                (0.0..1.0).contains(&amplitude),
                "amplitude {amplitude} must be in [0, 1)"
            );
            assert!(
                period_secs > 0.0 && period_secs.is_finite(),
                "diurnal period must be positive and finite, got {period_secs}"
            );
            assert!(
                phase_secs.is_finite(),
                "diurnal phase must be finite, got {phase_secs}"
            );
        }
        let peak = self.peak_rate();
        assert!(
            peak > 0.0 && peak.is_finite(),
            "arrival rate must be positive and finite, got a peak of {peak}"
        );
    }

    /// Draws the next arrival after `now` (Lewis–Shedler thinning for the
    /// non-homogeneous case), deterministic in `rng`.
    ///
    /// # Panics
    ///
    /// Panics if the process rate is not positive or the diurnal amplitude
    /// is not in `[0, 1)`.
    pub fn next_after(&self, now: f64, rng: &mut StdRng) -> f64 {
        if let ArrivalProcess::Diurnal { amplitude, .. } = *self {
            assert!(
                (0.0..1.0).contains(&amplitude),
                "amplitude {amplitude} must be in [0, 1)"
            );
        }
        let peak = self.peak_rate();
        assert!(peak > 0.0, "arrival rate must be positive");
        let mut t = now;
        loop {
            // Exponential inter-arrival at the envelope rate.
            let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
            t -= u.ln() / peak;
            // Accept with probability rate(t)/peak.
            if rng.gen::<f64>() * peak <= self.rate_at(t) {
                return t;
            }
        }
    }
}

/// How a tenant's graph evolves over simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Drift {
    /// The graph is frozen at its day-0 size.
    Static,
    /// Edges grow `daily_pct` percent per day, nodes at `node_share` of the
    /// edge rate (social/e-commerce graphs densify: nodes grow slower).
    Growth {
        /// Daily edge growth, in percent.
        daily_pct: f64,
        /// Node growth as a fraction of the edge rate, in `[0, 1]`.
        node_share: f64,
    },
}

impl Drift {
    /// Growth at the dataset's Table II daily rate, or [`Drift::Static`]
    /// when the paper records none.
    pub fn table_ii(dataset: Dataset) -> Drift {
        match dataset.spec().daily_growth_pct {
            Some(daily_pct) => Drift::Growth {
                daily_pct,
                node_share: 0.35,
            },
            None => Drift::Static,
        }
    }

    /// Edge/node multipliers at simulated time `now`.
    fn factors_at(&self, now: f64) -> (f64, f64) {
        match *self {
            Drift::Static => (1.0, 1.0),
            Drift::Growth {
                daily_pct,
                node_share,
            } => {
                let days = now / SECS_PER_DAY;
                let edge = (1.0 + daily_pct / 100.0).powf(days);
                let node = (1.0 + daily_pct / 100.0 * node_share).powf(days);
                (edge, node)
            }
        }
    }
}

/// One tenant of the serving deployment.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Display name ("feed-ranker", "fraud-screen", …).
    pub name: String,
    /// The Table II dataset backing the tenant's graph.
    pub dataset: Dataset,
    /// Down-scaling factor for the graph (1 = full Table II size).
    pub scale: u64,
    /// Sampling parameters of the tenant's queries.
    pub params: SampleParams,
    /// The GNN the sampled subgraphs feed.
    pub gnn: GnnSpec,
    /// Inference nodes per request.
    pub batch: u64,
    /// The tenant's arrival process.
    pub arrival: ArrivalProcess,
    /// How the tenant's graph drifts over the horizon.
    pub drift: Drift,
    /// Fair-queueing weight ([`crate::sched::SchedKind::WeightedFair`]):
    /// the tenant's share of dispatch service relative to other tenants.
    /// Must be positive and finite; 1.0 = an equal share.
    pub weight: f64,
    /// End-to-end p99 latency budget in seconds. Under
    /// [`crate::sched::SchedKind::SloAware`] the run's reconfiguration
    /// gate compares the tenant's predicted p99 with it (when `None`,
    /// [`crate::sched::SchedKind::FALLBACK_SLO_SECS`] applies). Whenever
    /// set, it also drives the per-tenant `slo_violations` counter in
    /// [`crate::metrics::TenantStats`] — which is recorded under *every*
    /// scheduler, so SLO attainment is comparable across policies.
    pub slo_secs: Option<f64>,
    /// Client abandonment deadline in seconds from arrival. When set, the
    /// lifecycle honors it: queued requests past their deadline are
    /// expired at scan time, not-yet-started pipeline stages are aborted,
    /// and completions slower than the deadline count as
    /// [`crate::metrics::RequestOutcome::ServedLate`] wasted work instead
    /// of goodput. `None` (the default) disables every deadline code path
    /// for this tenant.
    pub deadline_secs: Option<f64>,
}

impl TenantSpec {
    /// A tenant at Table II scale with Table III sampling, Poisson traffic
    /// and the dataset's recorded drift.
    pub fn new(name: impl Into<String>, dataset: Dataset, rate_rps: f64) -> Self {
        TenantSpec {
            name: name.into(),
            dataset,
            scale: 1,
            params: SampleParams::new(10, 2),
            gnn: GnnSpec::table_iii_default(),
            batch: 3_000,
            arrival: ArrivalProcess::Poisson { rate_rps },
            drift: Drift::table_ii(dataset),
            weight: 1.0,
            slo_secs: None,
            deadline_secs: None,
        }
    }

    /// The adversarial bursty-aggressor serving mix shared by the CI
    /// `wfq_burst` scenario, the scheduler fairness tests and the example
    /// fairness table: two well-behaved *victim* tenants offering steady
    /// Poisson traffic at `victim_rps` each, plus one **aggressor** whose
    /// near-total-amplitude diurnal bursts (`burst_rps` mean over
    /// `period_secs`, amplitude 0.98) periodically offer several times
    /// the pool's capacity. The aggressor's Taobao-scale graph also
    /// drifts at the Table II daily rate, so its bitstream choice keeps
    /// shifting — the trace where a shared FIFO queue lets one tenant's
    /// burst starve everyone ([`crate::sched::SchedKind::Fifo`]) and
    /// per-tenant quotas + deficit round robin do not
    /// ([`crate::sched::SchedKind::WeightedFair`]). Victims carry 4×
    /// fair-queueing weight (the operator values interactive traffic over
    /// the batch-y aggressor — and the aggressor's individual requests
    /// are several times more expensive, so equal per-request shares
    /// would still under-serve the victims) and a 1 s SLO budget so
    /// violation counts surface the damage.
    pub fn bursty_aggressor(victim_rps: f64, burst_rps: f64, period_secs: f64) -> Vec<TenantSpec> {
        let mut victim_feed = TenantSpec::new("victim-feed", Dataset::Movie, victim_rps);
        victim_feed.weight = 4.0;
        victim_feed.slo_secs = Some(1.0);
        let mut victim_fraud = TenantSpec::new("victim-fraud", Dataset::Fraud, victim_rps);
        victim_fraud.weight = 4.0;
        victim_fraud.slo_secs = Some(1.0);
        let mut aggressor = TenantSpec::new("aggressor", Dataset::Taobao, 0.0);
        aggressor.arrival = ArrivalProcess::Diurnal {
            mean_rps: burst_rps,
            amplitude: 0.98,
            period_secs,
            phase_secs: 0.0,
        };
        vec![victim_feed, victim_fraud, aggressor]
    }

    /// The memory-pressured serving mix shared by the CI `pipelined_drift`
    /// scenario, the pipelining integration test and the example headline:
    /// six Taobao-scale e-commerce regions (3.2 GB graphs, Table II drift)
    /// with evenly offset diurnal peaks of `mean_rps` each over
    /// `period_secs`. Their combined working set outgrows one board's DRAM
    /// graph budget, so LRU eviction forces the recurring cold re-uploads
    /// that staged pipelining hides behind fabric compute — keeping the
    /// gate, the test and the demo provably on the same trace.
    pub fn taobao_regions(mean_rps: f64, period_secs: f64) -> Vec<TenantSpec> {
        let names = ["tb-apac", "tb-eu", "tb-na", "tb-latam", "tb-mea", "tb-cn"];
        names
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let mut t = TenantSpec::new(*name, Dataset::Taobao, 0.0);
                t.arrival = ArrivalProcess::Diurnal {
                    mean_rps,
                    amplitude: 0.9,
                    period_secs,
                    phase_secs: period_secs * i as f64 / names.len() as f64,
                };
                t
            })
            .collect()
    }

    /// The skewed-load serving mix shared by the cross-board-migration
    /// comparison in `tests/serve_traffic.rs` and the example headline:
    /// one hot Taobao-scale region whose diurnal peak (`hot_mean_rps`
    /// mean, 0.9 amplitude over `period_secs`) saturates whichever board
    /// holds its bitstream, plus two light Poisson background tenants.
    /// Under `BitstreamAffine` placement the hot tenant's requests wait
    /// for that one busy board while its peers idle — exactly the
    /// behavior `MigratePolicy::SplitHot` exists to beat.
    pub fn skewed_hotspot(hot_mean_rps: f64, period_secs: f64) -> Vec<TenantSpec> {
        let mut hot = TenantSpec::new("hot-feed", Dataset::Taobao, 0.0);
        hot.arrival = ArrivalProcess::Diurnal {
            mean_rps: hot_mean_rps,
            amplitude: 0.9,
            period_secs,
            phase_secs: 0.0,
        };
        vec![
            hot,
            TenantSpec::new("bg-movies", Dataset::Movie, 0.5),
            TenantSpec::new("bg-papers", Dataset::Arxiv, 0.5),
        ]
    }

    /// The duplicate-heavy serving mix shared by the CI `cache_replay`
    /// scenario, the result-cache integration tests and the example
    /// cache table: three dashboard-style tenants re-issuing the *same*
    /// query against citation graphs the paper records no drift for
    /// ([`Drift::Static`] per Table II — Physics, Collab and Arxiv).
    /// Every request of a tenant is workload-identical, so once one
    /// completion fills the tenant's [`crate::cache::ResultCache`] entry
    /// it stays fresh forever; the offered rate is several times one
    /// board's service rate, so without the cache the queue (and p99)
    /// grows — exactly the recomputation the cache exists to delete.
    /// With [`crate::cache::CacheKind::Off`] the mix is an ordinary
    /// over-subscribed static-graph trace.
    pub fn replay_heavy(rate_rps: f64) -> Vec<TenantSpec> {
        vec![
            TenantSpec::new("dash-physics", Dataset::Physics, rate_rps),
            TenantSpec::new("dash-collab", Dataset::Collab, rate_rps),
            TenantSpec::new("dash-arxiv", Dataset::Arxiv, rate_rps),
        ]
    }

    /// Base (day-0) node and edge counts after down-scaling.
    pub fn base_size(&self) -> (u64, u64) {
        let spec = self.dataset.spec();
        (
            (spec.nodes / self.scale).max(16),
            (spec.edges / self.scale).max(64),
        )
    }

    /// The cost-model workload the tenant presents at simulated time `now`,
    /// quantized to `step_secs` buckets so downstream bitstream-choice
    /// caches stay effective under drift.
    pub fn workload_at(&self, now: f64, step_secs: f64) -> Workload {
        let bucket = if step_secs > 0.0 {
            (now / step_secs).floor() * step_secs
        } else {
            now
        };
        let (n0, e0) = self.base_size();
        let (edge_f, node_f) = self.drift.factors_at(bucket);
        Workload::new(
            (n0 as f64 * node_f) as u64,
            (e0 as f64 * edge_f) as u64,
            self.batch,
            self.params.k as u64,
            self.params.layers,
        )
    }

    /// The drift bucket index at `now` (changes invalidate cached
    /// bitstream choices).
    pub fn drift_bucket(&self, now: f64, step_secs: f64) -> u64 {
        match self.drift {
            Drift::Static => 0,
            Drift::Growth { .. } if step_secs > 0.0 => (now / step_secs) as u64,
            Drift::Growth { .. } => now.to_bits(),
        }
    }

    /// The per-tenant RNG driving this tenant's arrivals, derived from the
    /// deployment seed so arrival streams are independent of dispatch
    /// order.
    pub fn arrival_rng(&self, deployment_seed: u64, index: usize) -> StdRng {
        StdRng::seed_from_u64(
            deployment_seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_interarrivals_match_rate() {
        let process = ArrivalProcess::Poisson { rate_rps: 50.0 };
        let mut rng = StdRng::seed_from_u64(1);
        let mut t = 0.0;
        let n = 20_000;
        for _ in 0..n {
            t = process.next_after(t, &mut rng);
        }
        let mean_gap = t / n as f64;
        assert!((mean_gap - 0.02).abs() < 0.002, "mean gap {mean_gap}");
    }

    #[test]
    fn diurnal_rate_oscillates_around_mean() {
        let process = ArrivalProcess::Diurnal {
            mean_rps: 10.0,
            amplitude: 0.8,
            period_secs: 1_000.0,
            phase_secs: 0.0,
        };
        assert!((process.rate_at(250.0) - 18.0).abs() < 1e-9, "peak at T/4");
        assert!(
            (process.rate_at(750.0) - 2.0).abs() < 1e-9,
            "trough at 3T/4"
        );
        assert!((process.rate_at(0.0) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn diurnal_arrivals_cluster_at_peak() {
        let process = ArrivalProcess::Diurnal {
            mean_rps: 5.0,
            amplitude: 0.9,
            period_secs: 1_000.0,
            phase_secs: 0.0,
        };
        let mut rng = StdRng::seed_from_u64(2);
        let mut t = 0.0;
        let (mut first_half, mut second_half) = (0u32, 0u32);
        while t < 10_000.0 {
            t = process.next_after(t, &mut rng);
            if (t % 1_000.0) < 500.0 {
                first_half += 1;
            } else {
                second_half += 1;
            }
        }
        assert!(
            first_half > second_half * 2,
            "rising half {first_half} vs falling half {second_half}"
        );
    }

    #[test]
    fn arrivals_are_deterministic_in_the_seed() {
        let tenant = TenantSpec::new("t", Dataset::Arxiv, 10.0);
        let sample = |seed| {
            let mut rng = tenant.arrival_rng(seed, 0);
            let mut t = 0.0;
            (0..100)
                .map(|_| {
                    t = tenant.arrival.next_after(t, &mut rng);
                    t
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(sample(7), sample(7));
        assert_ne!(sample(7), sample(8));
    }

    #[test]
    fn drift_grows_the_workload() {
        let mut tenant = TenantSpec::new("tb", Dataset::Taobao, 1.0);
        tenant.scale = 1_000;
        let day0 = tenant.workload_at(0.0, 3_600.0);
        let day30 = tenant.workload_at(30.0 * SECS_PER_DAY, 3_600.0);
        assert!(day30.edges > day0.edges, "TB grows 0.95%/day");
        // ~ (1.0095)^30 ≈ 1.33x.
        let ratio = day30.edges as f64 / day0.edges as f64;
        assert!((1.25..1.45).contains(&ratio), "30-day growth {ratio}");
    }

    #[test]
    fn static_datasets_do_not_drift() {
        let tenant = TenantSpec::new("ax", Dataset::Arxiv, 1.0);
        assert_eq!(tenant.drift, Drift::Static);
        let a = tenant.workload_at(0.0, 3_600.0);
        let b = tenant.workload_at(100.0 * SECS_PER_DAY, 3_600.0);
        assert_eq!(a.edges, b.edges);
        assert_eq!(tenant.drift_bucket(1e9, 3_600.0), 0);
    }

    #[test]
    fn home_board_hashes_unless_pinned() {
        use crate::pool::PlacementPolicy;
        use crate::sim::{simulate, ServeConfig};
        // Under `TenantAffine` a tenant's home board is its index modulo
        // the pool size: of 6 tenants on 4 boards, tenant 5 wraps onto
        // board 1 beside tenant 1, and a single board absorbs all.
        let tenants: Vec<TenantSpec> = (0..6)
            .map(|i| TenantSpec::new(format!("t{i}"), Dataset::Movie, 10.0))
            .collect();
        for boards in [4, 1] {
            let report = simulate(
                tenants.clone(),
                ServeConfig {
                    seed: 5,
                    total_requests: 600,
                    boards,
                    placement: PlacementPolicy::TenantAffine,
                    ..ServeConfig::default()
                },
            );
            assert!(report.tenants[5].completed() > 0, "tenant 5 is served");
            let board = &report.boards[5 % boards];
            if boards == 4 {
                assert_eq!(
                    board.completed,
                    report.tenants[1].completed() + report.tenants[5].completed(),
                    "board 1 serves exactly tenants 1 and 5"
                );
            } else {
                assert_eq!(
                    board.completed,
                    report.completed(),
                    "single board absorbs all"
                );
            }
        }
    }

    #[test]
    fn tenants_default_to_equal_weight_and_no_slo() {
        let tenant = TenantSpec::new("t", Dataset::Movie, 1.0);
        assert_eq!(tenant.weight, 1.0);
        assert_eq!(tenant.slo_secs, None);
        assert_eq!(tenant.deadline_secs, None, "deadlines are opt-in");
    }

    #[test]
    fn bursty_aggressor_fixture_is_adversarial_by_construction() {
        let tenants = TenantSpec::bursty_aggressor(2.0, 40.0, 900.0);
        assert_eq!(tenants.len(), 3);
        let (feed, fraud, aggressor) = (&tenants[0], &tenants[1], &tenants[2]);
        assert_eq!(feed.name, "victim-feed");
        assert_eq!(fraud.name, "victim-fraud");
        assert_eq!(aggressor.name, "aggressor");
        // Victims: steady Poisson load, 4x fair-queueing weight, a 1 s SLO.
        for victim in [feed, fraud] {
            assert_eq!(
                victim.arrival,
                ArrivalProcess::Poisson { rate_rps: 2.0 },
                "{}",
                victim.name
            );
            assert_eq!(victim.weight, 4.0);
            assert_eq!(victim.slo_secs, Some(1.0));
        }
        // The aggressor: near-total-amplitude bursts at many times the
        // victims' rate, unit weight, a drifting Taobao-scale graph.
        match aggressor.arrival {
            ArrivalProcess::Diurnal {
                mean_rps,
                amplitude,
                period_secs,
                ..
            } => {
                assert_eq!(mean_rps, 40.0);
                assert_eq!(amplitude, 0.98);
                assert_eq!(period_secs, 900.0);
            }
            other => panic!("aggressor must burst, got {other:?}"),
        }
        assert_eq!(aggressor.weight, 1.0);
        assert_ne!(aggressor.drift, Drift::Static, "the aggressor drifts");
        // Burst peak offers far more than the victims combined.
        assert!(aggressor.arrival.rate_at(225.0) > 70.0);
    }

    #[test]
    fn workload_quantization_is_stable_within_a_bucket() {
        let tenant = TenantSpec::new("tb", Dataset::Taobao, 1.0);
        let a = tenant.workload_at(100.0, 3_600.0);
        let b = tenant.workload_at(3_599.0, 3_600.0);
        assert_eq!(a, b, "same drift bucket, same workload");
    }
}
