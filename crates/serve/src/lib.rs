//! Discrete-event, multi-tenant traffic scheduling for the AutoGNN runtime.
//!
//! The paper's runtime (`agnn_core::runtime::AutoGnn`) serves one request
//! at a time; a production deployment sees sustained, mixed, time-varying
//! load from many applications sharing one accelerator. This crate closes
//! that gap with a fully simulated serving layer:
//!
//! - [`tenant`] — tenants bind a Table II dataset, sampling parameters and
//!   a GNN spec to a seeded arrival process (homogeneous Poisson or a
//!   diurnal sinusoid via Lewis–Shedler thinning), with optional
//!   Table II-rate workload drift;
//! - [`pool`] — a [`pool::BoardPool`] of N simulated accelerators, each
//!   its programmed bitstream config plus its own
//!   reconfiguration clock, capacity-bounded resident-graph memory (LRU
//!   eviction at the §V-B DRAM budget) and **two in-flight slots** — the
//!   PCIe DMA engine and the reconfigurable fabric — fed by the shared
//!   admission queue through a pluggable [`pool::PlacementPolicy`]
//!   (`TenantAffine`, `LeastLoaded`, `BitstreamAffine`). A
//!   [`pool::MigratePolicy`] additionally lets graphs move **between**
//!   boards over the PCIe switch
//!   ([`agnn_hw::shell::PcieSwitchModel`]): DRAM-evicted tenants
//!   rehydrate from a peer still holding their graph instead of
//!   re-crossing the host link, and hot tenants split onto idle boards
//!   once their affine board's queue outgrows a threshold;
//! - [`sched`] — the pluggable admission/dispatch scheduler: a
//!   [`sched::SchedPolicy`] trait owning enqueue/drop/pick decisions,
//!   with [`sched::Fifo`] (the bounded arrival-order queue, bit-for-bit
//!   the pre-refactor schedules — every golden digest holds) and
//!   [`sched::WeightedFair`] (deficit round robin over per-tenant queues
//!   with [`tenant::TenantSpec::weight`] shares and per-tenant quotas, so
//!   one bursty aggressor can no longer starve the other tenants).
//!   [`sched::SchedKind::SloAware`] queues FIFO and gates bitstream
//!   reconfiguration on a tenant's predicted p99
//!   ([`sched::LatencyPredictor`]) against its SLO budget — stalls
//!   nobody's tail needs stop being paid;
//! - [`engine`] — the simulation mechanics: a binary-heap
//!   [`engine::EventQueue`] popping events in `(time, push-order)`
//!   order, a [`engine::Slab`] arena holding in-flight request state
//!   behind 4-byte handles and per-tenant arrival streams
//!   ([`engine::ArrivalSource`]) — see `docs/ARCHITECTURE.md`;
//! - [`sim`] — the discrete-event scheduler itself, with drop
//!   accounting and pluggable [`sim::DispatchPolicy`] — strict FIFO
//!   versus a *reconfig-aware* policy that serves same-bitstream requests
//!   together to amortize `ReconfigEvent` stalls (§V-B's cost-model
//!   decision, lifted from one request to a traffic stream). With
//!   [`sim::ServeConfig::overlap`] the request lifecycle is
//!   **pipelined**: a board ingests the next request's graph delta
//!   (double-buffered, [`agnn_hw::shell::DELTA_BUFFERS`]) and streams
//!   finished subgraphs out while its fabric preprocesses — upload time
//!   leaves the dispatch critical path. Tenants can carry **deadlines**
//!   ([`tenant::TenantSpec::deadline_secs`]): dead requests expire at the
//!   queue scan, and a dispatched-but-not-started stage aborts and
//!   releases its board slot. [`sim::HedgeKind::Latency`] re-offers a
//!   stalled queue-front request to a second board and cancels the
//!   loser. Every serving knob is a field of one [`sim::ServeConfig`],
//!   whose [`validate`](sim::ServeConfig::validate) rejects the
//!   combinations the simulator cannot run;
//! - [`cache`] — the subgraph result cache: entries keyed on request
//!   identity `(tenant, drift bucket, seed)`, invalidated by accumulated
//!   graph-delta bytes ([`cache::CacheKind::Delta`]) and degraded to
//!   partial hits when the source graph is no longer board-resident;
//!   duplicate in-flight requests coalesce onto one primary and complete
//!   off its `ServiceDone` (hit-under-miss). [`cache::CacheKind::Off`]
//!   is the default and replays the uncached schedule bit-for-bit;
//! - [`metrics`] — deterministic latency histograms (p50/p95/p99/max),
//!   per-lifecycle-stage breakdowns ([`metrics::StageHistograms`]),
//!   per-tenant queue-wait distributions, drop and SLO-violation
//!   counters, a pipeline-overlap ratio, throughput, queue-depth
//!   maximum and mean, per-board breakdowns, an order-sensitive event-trace
//!   digest for reproducibility checks, an exact five-way stall
//!   attribution of every completed request's latency
//!   ([`metrics::StallBreakdown`]), the simulator's own speed
//!   ([`metrics::SimPerf`]) and a byte-stable JSON rendering
//!   ([`metrics::TrafficReport::to_json`]);
//! - [`trace`] — flight-recorder tracing: the event loop narrates
//!   per-request lifecycle spans, board-resource occupancy, counter
//!   samples and completed requests into a [`trace::TraceSink`]
//!   ([`sim::TrafficSim::run_traced`]), with a zero-cost
//!   [`trace::NullSink`] default (bit-for-bit the untraced run), a
//!   bounded [`trace::FlightRecorder`] ring for post-mortem queries, and
//!   a [`trace::ChromeTraceWriter`] exporting Perfetto /
//!   `chrome://tracing` JSON with per-board resource tracks and
//!   per-request flow arrows.
//!
//! Every price the scheduler pays — upload delta, per-stage preprocessing,
//! subgraph hand-off, ICAP stall, GPU inference tail — comes from the same
//! calibrated models the runtime uses, priced analytically (the fabric
//! pass through [`pool::BoardPool::stage_secs`], memoized per drift
//! bucket; the PCIe legs as bytes over link bandwidth), so a hundred
//! thousand requests replay in well under a second.
//!
//! # CI perf gate
//!
//! The serving numbers are kept honest by CI (`.github/workflows/ci.yml`,
//! job `bench-smoke`): every push replays a small seeded scenario sweep
//! through `cargo run -p agnn-bench --bin bench_smoke`, uploads the
//! resulting `BENCH_serving.json` artifact (built from
//! [`metrics::TrafficReport::to_json`]), and fails the job unless every
//! gated scenario reproduces the checked-in baseline
//! `ci/bench_serving_baseline.json` exactly — p99, reconfiguration
//! count, host-upload bytes, trace digest and the fairness, deadline and
//! cache members alike. The gate holds no wall-clock member: the
//! simulator's own speed ([`metrics::SimPerf`]) is reported, and judged
//! by the repository benchmark (`perfbench/`) from repeated long runs.
//! Intentional changes update the baseline in the same PR:
//!
//! ```text
//! cargo run --release -p agnn-bench --bin bench_smoke -- \
//!     --write-baseline ci/bench_serving_baseline.json
//! ```
//!
//! # Examples
//!
//! ```
//! use agnn_graph::datasets::Dataset;
//! use agnn_serve::sim::{simulate, DispatchPolicy, ServeConfig};
//! use agnn_serve::tenant::TenantSpec;
//!
//! let tenants = vec![
//!     TenantSpec::new("feed", Dataset::Movie, 40.0),
//!     TenantSpec::new("ads", Dataset::StackOverflow, 40.0),
//! ];
//! let config = ServeConfig {
//!     seed: 7,
//!     total_requests: 500,
//!     policy: DispatchPolicy::ReconfigAware,
//!     ..ServeConfig::default()
//! };
//! let report = simulate(tenants, config);
//! assert_eq!(report.completed() + report.dropped(), 500);
//! assert!(report.throughput_rps() > 0.0);
//! ```
#![warn(missing_docs)]

pub mod cache;
pub mod engine;
pub mod metrics;
pub mod pool;
pub mod sched;
pub mod sim;
pub mod tenant;
pub mod trace;

pub use cache::{CacheKind, CacheStats, ResultCache};
pub use engine::{ArrivalSource, EventQueue, Slab};
pub use metrics::{
    BoardStats, CompletedRequest, LatencyHistogram, OutcomeCounts, RequestLatency, RequestOutcome,
    SimPerf, StageHistograms, StallBreakdown, TenantStats, TrafficReport,
};
pub use pool::{BoardPool, MigratePolicy, MigrationTransfer, PlacementPolicy};
pub use sched::{LatencyPredictor, SchedKind, SchedPolicy, Scheduler};
pub use sim::{simulate, ConfigError, DispatchPolicy, HedgeKind, ServeConfig, TrafficSim};
pub use tenant::{ArrivalProcess, Drift, TenantSpec};
pub use trace::{ChromeTraceWriter, FlightRecorder, NullSink, TraceSink};

#[cfg(test)]
mod tests {
    use super::*;
    use agnn_graph::datasets::Dataset;

    fn mixed_tenants(rate: f64) -> Vec<TenantSpec> {
        vec![
            TenantSpec::new("feed", Dataset::Movie, rate),
            TenantSpec::new("search", Dataset::StackOverflow, rate),
            TenantSpec::new("papers", Dataset::Arxiv, rate),
        ]
    }

    #[test]
    fn same_seed_produces_identical_reports() {
        let cfg = ServeConfig {
            seed: 42,
            total_requests: 2_000,
            ..ServeConfig::default()
        };
        let a = simulate(mixed_tenants(25.0), cfg);
        let b = simulate(mixed_tenants(25.0), cfg);
        assert_eq!(a.trace_digest, b.trace_digest, "identical event traces");
        assert_eq!(a, b, "identical full reports");
    }

    #[test]
    fn different_seeds_produce_different_traces() {
        let mk = |seed| {
            let cfg = ServeConfig {
                seed,
                total_requests: 1_000,
                ..ServeConfig::default()
            };
            simulate(mixed_tenants(25.0), cfg)
        };
        assert_ne!(mk(1).trace_digest, mk(2).trace_digest);
    }

    #[test]
    fn every_offered_request_is_completed_or_dropped() {
        let cfg = ServeConfig {
            seed: 3,
            total_requests: 3_000,
            queue_capacity: 4, // tiny queue under heavy load: forces drops
            ..ServeConfig::default()
        };
        let report = simulate(mixed_tenants(200.0), cfg);
        assert_eq!(
            report.completed() + report.dropped(),
            3_000,
            "no request silently lost"
        );
        let outcomes = report.outcomes();
        assert_eq!(
            outcomes.arrival_terminal(),
            3_000,
            "every arrival reaches exactly one terminal outcome"
        );
        assert_eq!(
            outcomes.served,
            report.completed(),
            "no deadline: all on time"
        );
        assert_eq!(outcomes.served_late, 0);
        assert_eq!(outcomes.expired_in_queue, 0);
        assert_eq!(outcomes.aborted, 0);
        assert_eq!(outcomes.hedge_loser, 0, "hedging is off by default");
        assert!(report.dropped() > 0, "overload must surface as drops");
        assert!(report.queue_depth.max_depth() <= 4, "queue bound respected");
    }

    #[test]
    fn light_load_drops_nothing() {
        let cfg = ServeConfig {
            seed: 4,
            total_requests: 300,
            ..ServeConfig::default()
        };
        let report = simulate(mixed_tenants(0.5), cfg);
        assert_eq!(report.dropped(), 0);
        assert_eq!(report.completed(), 300);
        for t in &report.tenants {
            assert!(t.completed() > 0, "{} saw no traffic", t.name);
            assert!(t.latency.quantile(0.5) > 0.0);
        }
    }

    #[test]
    fn reconfig_aware_reconfigures_strictly_less_on_mixed_traffic() {
        // Interaction (MV) vs social (SO) tenants prefer different
        // bitstreams; interleaved arrivals make FIFO thrash the ICAP.
        let mk = |policy| {
            let cfg = ServeConfig {
                seed: 11,
                total_requests: 2_000,
                policy,
                ..ServeConfig::default()
            };
            simulate(mixed_tenants(30.0), cfg)
        };
        let fifo = mk(DispatchPolicy::Fifo);
        let aware = mk(DispatchPolicy::ReconfigAware);
        assert!(
            fifo.reconfigs > 0,
            "mixed tenants must trigger reconfigurations under FIFO"
        );
        assert!(
            aware.reconfigs < fifo.reconfigs,
            "batching same-bitstream requests must save reconfigurations: \
             aware {} vs fifo {}",
            aware.reconfigs,
            fifo.reconfigs
        );
        assert_eq!(
            aware.completed() + aware.dropped(),
            fifo.completed() + fifo.dropped(),
            "both policies face the same offered load"
        );
    }

    #[test]
    fn single_tenant_reconfigures_at_most_once() {
        let tenants = vec![TenantSpec::new("only", Dataset::Movie, 10.0)];
        let report = simulate(
            tenants,
            ServeConfig {
                seed: 5,
                total_requests: 500,
                ..ServeConfig::default()
            },
        );
        assert!(
            report.reconfigs <= 1,
            "a stable workload settles after one switch, saw {}",
            report.reconfigs
        );
        assert_eq!(report.completed(), 500);
    }

    #[test]
    fn report_printing_is_well_formed() {
        let report = simulate(
            mixed_tenants(5.0),
            ServeConfig {
                seed: 6,
                total_requests: 200,
                ..ServeConfig::default()
            },
        );
        let text = report.to_string();
        assert!(text.contains("TOTAL"));
        assert!(text.contains("throughput"));
        for t in &report.tenants {
            assert!(text.contains(&t.name));
        }
    }

    #[test]
    fn pool_report_prints_per_board_lines() {
        let report = simulate(
            mixed_tenants(30.0),
            ServeConfig {
                seed: 6,
                total_requests: 400,
                boards: 3,
                ..ServeConfig::default()
            },
        );
        let text = report.to_string();
        assert!(text.contains("board 0:"));
        assert!(text.contains("board 2:"));
        assert_eq!(report.boards.len(), 3);
    }

    #[test]
    fn board_completions_sum_to_total_for_every_placement() {
        for placement in [
            PlacementPolicy::TenantAffine,
            PlacementPolicy::LeastLoaded,
            PlacementPolicy::BitstreamAffine,
        ] {
            let report = simulate(
                mixed_tenants(60.0),
                ServeConfig {
                    seed: 12,
                    total_requests: 1_500,
                    boards: 4,
                    placement,
                    policy: DispatchPolicy::ReconfigAware,
                    ..ServeConfig::default()
                },
            );
            let per_board: u64 = report.boards.iter().map(|b| b.completed).sum();
            assert_eq!(
                per_board,
                report.completed(),
                "{}: board counts must sum to the total",
                placement.name()
            );
            let per_board_reconfigs: u64 = report.boards.iter().map(|b| b.reconfigs).sum();
            assert_eq!(per_board_reconfigs, report.reconfigs);
        }
    }

    #[test]
    fn more_boards_never_serve_fewer_requests() {
        // Heavy load over a small queue: extra boards drain faster, so
        // completions are monotone in pool size on the same arrival trace.
        let mk = |boards| {
            let cfg = ServeConfig {
                seed: 9,
                total_requests: 2_000,
                queue_capacity: 16,
                boards,
                policy: DispatchPolicy::ReconfigAware,
                placement: PlacementPolicy::BitstreamAffine,
                ..ServeConfig::default()
            };
            simulate(mixed_tenants(120.0), cfg)
        };
        let one = mk(1);
        let four = mk(4);
        assert_eq!(one.completed() + one.dropped(), 2_000);
        assert_eq!(four.completed() + four.dropped(), 2_000);
        assert!(
            four.completed() >= one.completed(),
            "4 boards {} vs 1 board {}",
            four.completed(),
            one.completed()
        );
    }

    #[test]
    fn tenant_affine_pins_every_tenant_to_its_home_board() {
        // A tenant's home board is its index modulo the pool size: with
        // 3 tenants, 3 boards give each its own, 2 boards put tenants 0
        // and 2 on board 0, and 1 board absorbs all.
        for boards in [3, 2, 1] {
            let report = simulate(
                mixed_tenants(20.0),
                ServeConfig {
                    seed: 21,
                    total_requests: 1_200,
                    boards,
                    placement: PlacementPolicy::TenantAffine,
                    ..ServeConfig::default()
                },
            );
            assert_eq!(report.completed() + report.dropped(), 1_200);
            for (b, board) in report.boards.iter().enumerate() {
                let homed: u64 = (0..report.tenants.len())
                    .filter(|t| t % boards == b)
                    .map(|t| report.tenants[t].completed())
                    .sum();
                assert_eq!(
                    board.completed, homed,
                    "{boards} boards: board {b} serves exactly its homed tenants' load"
                );
            }
            if boards == 3 {
                // Each board only ever sees one tenant's bitstream, so
                // after the initial switch no board reconfigures.
                for (b, board) in report.boards.iter().enumerate() {
                    assert!(
                        board.reconfigs <= 1,
                        "board {b} serves one tenant, saw {} reconfigs",
                        board.reconfigs
                    );
                }
            }
        }
    }

    /// The knob ledger in `docs/ARCHITECTURE.md` has exactly one row per
    /// `ServeConfig` field, and no field row names a field that does
    /// not exist. A field row's first cell is the bare field name; a
    /// variant row's is `Enum::Variant`.
    #[test]
    fn knob_ledger_has_one_row_per_serve_config_field() {
        let doc = include_str!("../../../docs/ARCHITECTURE.md");
        let (_, ledger) = doc
            .split_once("### The knob ledger")
            .expect("ledger section");
        let ledger = ledger.split("\n## ").next().unwrap_or_default();
        let rows: Vec<&str> = ledger
            .lines()
            .filter_map(|line| line.strip_prefix("| `")?.split_once("` |"))
            .map(|(knob, _)| knob)
            .filter(|knob| knob.chars().all(|c| c.is_ascii_lowercase() || c == '_'))
            .collect();
        // Top-level fields are the lines indented exactly one level.
        let debug = format!("{:#?}", ServeConfig::default());
        let fields: Vec<&str> = debug
            .lines()
            .filter_map(|line| line.strip_prefix("    "))
            .filter(|line| !line.starts_with(' '))
            .filter_map(|line| line.split_once(':'))
            .map(|(name, _)| name)
            .collect();
        assert!(fields.contains(&"seed"), "{debug}");
        for field in &fields {
            let count = rows.iter().filter(|row| *row == field).count();
            assert_eq!(count, 1, "ledger rows for `{field}`");
        }
        for row in &rows {
            assert!(fields.contains(row), "ledger row `{row}` names no field");
        }
    }

    #[test]
    fn serve_config_presets_share_one_base() {
        // Every preset is a struct update over `Default`, so knobs cannot
        // silently diverge between constructors.
        let aware = ServeConfig::reconfig_aware();
        assert_eq!(aware.policy, DispatchPolicy::ReconfigAware);
        assert_eq!(
            ServeConfig {
                policy: DispatchPolicy::Fifo,
                ..aware
            },
            ServeConfig::default(),
            "reconfig_aware differs from the default only in the dispatch policy"
        );
        let pipelined = ServeConfig::pipelined();
        assert!(pipelined.overlap);
        assert_eq!(
            ServeConfig {
                overlap: false,
                ..pipelined
            },
            aware,
            "pipelined differs from reconfig_aware only in overlap"
        );
        assert!(!ServeConfig::default().overlap, "serial is the default");
        for preset in [
            ServeConfig::default(),
            aware,
            pipelined,
            ServeConfig::weighted_fair(),
            ServeConfig::slo_aware(),
        ] {
            assert_eq!(preset.validate(), Ok(()), "{preset:?}");
        }
    }

    #[test]
    fn builder_rejects_documented_incompatible_combos() {
        let base = ServeConfig::default();
        let cases = [
            // Hedging re-offers work to a *second* board: a pool of one
            // has nowhere to hedge.
            (
                ServeConfig {
                    hedge: HedgeKind::latency(),
                    ..base
                },
                ConfigError::HedgeNeedsPool { boards: 1 },
            ),
            // Hedging prices both legs at dispatch, which only the serial
            // lifecycle exposes.
            (
                ServeConfig {
                    boards: 2,
                    overlap: true,
                    hedge: HedgeKind::latency(),
                    ..base
                },
                ConfigError::HedgeNeedsSerial,
            ),
            (
                ServeConfig {
                    boards: 2,
                    hedge: HedgeKind::Latency { factor: -1.0 },
                    ..base
                },
                ConfigError::NonPositiveHedgeFactor { factor: -1.0 },
            ),
            (ServeConfig { boards: 0, ..base }, ConfigError::ZeroBoards),
            (
                ServeConfig {
                    queue_capacity: 0,
                    ..base
                },
                ConfigError::ZeroQueueCapacity,
            ),
            // A zero quota refuses every arrival: caught here, not by a
            // panic inside the run.
            (
                ServeConfig {
                    scheduler: SchedKind::WeightedFair {
                        per_tenant_quota: 0,
                    },
                    ..base
                },
                ConfigError::ZeroTenantQuota,
            ),
            // `gain >= NaN` is false: every reconfiguration would be refused.
            (
                ServeConfig {
                    min_gain: f64::NAN,
                    ..base
                },
                ConfigError::NanKnob { knob: "min_gain" },
            ),
            // A NaN step makes every arrival its own drift bucket.
            (
                ServeConfig {
                    drift_step_secs: f64::NAN,
                    ..base
                },
                ConfigError::NanKnob {
                    knob: "drift_step_secs",
                },
            ),
            // A NaN delta budget rounds to zero bytes: any graph change
            // would invalidate the entry.
            (
                ServeConfig {
                    cache: CacheKind::Delta {
                        max_delta_frac: f64::NAN,
                    },
                    ..base
                },
                ConfigError::NanKnob { knob: "cache" },
            ),
        ];
        for (cfg, expected) in cases {
            // Debug form, because a NaN payload never compares equal.
            assert_eq!(
                format!("{:?}", cfg.validate()),
                format!("{:?}", Err::<(), _>(expected))
            );
        }
        // Each error renders a human-readable explanation.
        let err = ServeConfig {
            hedge: HedgeKind::latency(),
            ..base
        }
        .validate()
        .unwrap_err();
        assert!(err.to_string().contains("2 boards"), "{err}");
        // The valid combo passes.
        let cfg = ServeConfig {
            boards: 2,
            hedge: HedgeKind::latency(),
            ..base
        };
        assert_eq!(cfg.validate(), Ok(()));
        // A zero or negative drift step is continuous drift, not an error.
        for step in [0.0, -1.0] {
            let cfg = ServeConfig {
                drift_step_secs: step,
                ..base
            };
            assert_eq!(cfg.validate(), Ok(()));
        }
    }

    #[test]
    fn pipelined_mode_conserves_requests_and_overlaps() {
        let mk = |overlap| {
            let cfg = ServeConfig {
                seed: 14,
                total_requests: 2_000,
                boards: 2,
                overlap,
                ..ServeConfig::reconfig_aware()
            };
            simulate(mixed_tenants(60.0), cfg)
        };
        let serial = mk(false);
        let pipelined = mk(true);
        assert_eq!(
            pipelined.completed() + pipelined.dropped(),
            2_000,
            "pipelined mode loses no request"
        );
        assert_eq!(serial.completed() + serial.dropped(), 2_000);
        assert_eq!(serial.overlap_secs, 0.0, "serial never overlaps");
        assert_eq!(serial.dma_secs(), 0.0, "serial folds DMA into busy time");
        assert!(
            pipelined.dma_secs() > 0.0,
            "pipelined runs charge the DMA clock"
        );
        assert!(pipelined.overlap_secs >= 0.0);
        assert!(pipelined.pipeline_overlap_ratio() <= 1.0);
        // Per-stage histograms cover every completion in both modes.
        for r in [&serial, &pipelined] {
            assert_eq!(r.stages.ingest.count(), r.completed());
            assert_eq!(r.stages.preprocess.count(), r.completed());
            assert_eq!(r.stages.compute.count(), r.completed());
        }
    }

    #[test]
    fn rerunning_one_simulator_is_deterministic() {
        let cfg = ServeConfig {
            seed: 33,
            total_requests: 800,
            boards: 2,
            placement: PlacementPolicy::BitstreamAffine,
            policy: DispatchPolicy::ReconfigAware,
            ..ServeConfig::default()
        };
        let mut sim = TrafficSim::new(mixed_tenants(40.0), cfg);
        let a = sim.run();
        let b = sim.run();
        assert_eq!(a, b, "the pool resets between runs");
    }
}
