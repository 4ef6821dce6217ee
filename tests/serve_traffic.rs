//! Integration tests of the serving layer against the full runtime stack:
//! determinism, backpressure accounting, the FIFO vs reconfig-aware policy
//! comparison on a drift-heavy multi-tenant trace, board-pool sharding
//! (including the pinned PR 1 golden digests a single-board pool must
//! reproduce bit-for-bit), and property tests over arbitrary pool sizes
//! and placement policies.

use agnn_graph::datasets::Dataset;
use agnn_serve::metrics::SimPerf;
use agnn_serve::pool::{MigratePolicy, PlacementPolicy};
use agnn_serve::sched::SchedKind;
use agnn_serve::sim::{simulate, DispatchPolicy, HedgeKind, ServeConfig, TrafficSim};
use agnn_serve::tenant::{ArrivalProcess, TenantSpec};
use agnn_serve::trace::{CounterSample, NullSink, Span, SpanKind, TraceSink, Track};
use agnn_serve::{
    ArrivalSource, CacheKind, ChromeTraceWriter, CompletedRequest, FlightRecorder, RequestOutcome,
    StallBreakdown, TrafficReport,
};
use proptest::prelude::*;

/// Tenants with offset diurnal peaks: the dominant tenant — and with it
/// the cost-model-optimal bitstream — rotates through the cycle.
fn drift_heavy_tenants() -> Vec<TenantSpec> {
    let period = 600.0;
    let diurnal = |mean_rps: f64, phase_frac: f64| ArrivalProcess::Diurnal {
        mean_rps,
        amplitude: 0.9,
        period_secs: period,
        phase_secs: period * phase_frac,
    };
    let mut movies = TenantSpec::new("movies", Dataset::Movie, 0.0);
    movies.arrival = diurnal(12.0, 0.0);
    let mut feed = TenantSpec::new("feed", Dataset::StackOverflow, 0.0);
    feed.arrival = diurnal(12.0, 0.5);
    let mut fraud = TenantSpec::new("fraud", Dataset::Fraud, 0.0);
    fraud.arrival = diurnal(6.0, 0.25);
    vec![movies, feed, fraud]
}

/// `tenants` with every tenant's client-abandonment deadline set to
/// `secs`.
fn with_deadline(mut tenants: Vec<TenantSpec>, secs: Option<f64>) -> Vec<TenantSpec> {
    for tenant in &mut tenants {
        tenant.deadline_secs = secs;
    }
    tenants
}

/// One draw of the conservation property's request lifecycle over the
/// drift-heavy tenants and `cfg`'s pool. `pick % 3` sets no deadline, a
/// tight one (0.5 s: expiry and aborts) or a loose one (5 s: the
/// served-late split) on every tenant; `pick >= 3` hedges wherever
/// hedging can run, a serial pool of two or more boards.
fn lifecycle_case(cfg: ServeConfig, pick: u32) -> (Vec<TenantSpec>, ServeConfig) {
    let deadline = match pick % 3 {
        0 => None,
        1 => Some(0.5),
        _ => Some(5.0),
    };
    let hedge = if pick >= 3 && cfg.boards >= 2 && !cfg.overlap {
        HedgeKind::latency()
    } else {
        HedgeKind::Off
    };
    let tenants = with_deadline(drift_heavy_tenants(), deadline);
    (tenants, ServeConfig { hedge, ..cfg })
}

/// One draw of the tracing property's run over `base`. Migrating draws
/// use the memory-pressured regions and the pipelined lifecycle. The
/// hedged arm is serial by construction (a pipelined leg cannot be
/// cancelled), so it needs a second board to hedge to, and every tenant
/// carries a 2 s deadline.
fn tracing_case(base: ServeConfig, overlap: bool, hedged: bool) -> (Vec<TenantSpec>, ServeConfig) {
    let migrating = base.migrate != MigratePolicy::Off;
    let tenants = if migrating {
        TenantSpec::taobao_regions(4.0, 900.0)
    } else {
        drift_heavy_tenants()
    };
    if hedged {
        let cfg = ServeConfig {
            boards: base.boards.max(2),
            placement: PlacementPolicy::BitstreamAffine,
            overlap: false,
            hedge: HedgeKind::latency(),
            ..base
        };
        (with_deadline(tenants, Some(2.0)), cfg)
    } else {
        let overlap = overlap || migrating;
        (tenants, ServeConfig { overlap, ..base })
    }
}

/// A sink that keeps every completed request the run narrates and
/// forwards its spans and counters to `inner`.
#[derive(Default)]
struct Completions<S> {
    inner: S,
    log: Vec<CompletedRequest>,
}

impl<S: TraceSink> TraceSink for Completions<S> {
    fn span(&mut self, span: Span) {
        self.inner.span(span);
    }

    fn counter(&mut self, sample: CounterSample) {
        self.inner.counter(sample);
    }

    fn complete(&mut self, request: CompletedRequest) {
        self.log.push(request);
    }
}

/// Runs `tenants` under `cfg` and returns the report with every
/// completion the run narrated, in completion order.
fn run_logged(
    tenants: Vec<TenantSpec>,
    cfg: ServeConfig,
) -> (TrafficReport, Vec<CompletedRequest>) {
    let mut sink = Completions::<NullSink>::default();
    let report = TrafficSim::new(tenants, cfg).run_traced(&mut sink);
    (report, sink.log)
}

/// The cancelled spans on the queue track: one per expired, aborted or
/// hedged-away request.
fn queue_cancellations(recorder: &FlightRecorder) -> u64 {
    recorder
        .spans()
        .filter(|s| s.track == Track::Queue && s.kind == SpanKind::Cancelled)
        .count() as u64
}

/// Each tenant's offered arrivals in a run of `total` requests (at least
/// one per tenant), counted apart from the simulator's bookkeeping: a
/// run primes one arrival per tenant, then draws a tenant's next arrival
/// each time one of its arrivals fires, in time order.
fn offered_per_tenant(tenants: &[TenantSpec], seed: u64, total: u64) -> Vec<u64> {
    let mut source = ArrivalSource::new(tenants, seed);
    let mut offered = vec![1; tenants.len()];
    for _ in tenants.len() as u64..total {
        let fires = (0..tenants.len())
            .min_by(|&a, &b| source.peek(a).total_cmp(&source.peek(b)))
            .expect("at least one tenant");
        source.next(fires);
        offered[fires] += 1;
    }
    offered
}

#[test]
fn replay_is_deterministic_end_to_end() {
    let cfg = ServeConfig {
        seed: 99,
        total_requests: 20_000,
        policy: DispatchPolicy::ReconfigAware,
        ..ServeConfig::default()
    };
    let a = simulate(drift_heavy_tenants(), cfg);
    let b = simulate(drift_heavy_tenants(), cfg);
    assert_eq!(a.trace_digest, b.trace_digest);
    assert_eq!(
        a, b,
        "full reports identical: same percentiles, drops, reconfigs"
    );
    // And the percentile report itself is stable text.
    assert_eq!(a.to_string(), b.to_string());
}

#[test]
fn backpressure_is_fully_accounted() {
    let cfg = ServeConfig {
        seed: 17,
        total_requests: 10_000,
        queue_capacity: 8,
        ..ServeConfig::default()
    };
    let report = simulate(drift_heavy_tenants(), cfg);
    assert_eq!(report.completed() + report.dropped(), 10_000);
    assert!(report.dropped() > 0, "tiny queue under load must drop");
    assert!(report.queue_depth.max_depth() <= 8);
    // Each tenant's completions and refusals account for exactly the
    // arrivals its own stream offered, counted apart from the simulator.
    let offered = offered_per_tenant(&drift_heavy_tenants(), 17, 10_000);
    for (t, offered) in report.tenants.iter().zip(offered) {
        assert_eq!(t.completed() + t.dropped(), offered, "{}", t.name);
    }
}

/// With deadlines on, arrivals also end expired in the queue (or
/// aborted), so the drop rate divides refusals by every arrival, not by
/// completions plus refusals alone — per tenant and in the TOTAL row.
#[test]
fn drop_rate_counts_expired_arrivals() {
    let cfg = ServeConfig {
        seed: 17,
        total_requests: 10_000,
        queue_capacity: 8,
        ..ServeConfig::default()
    };
    let report = simulate(with_deadline(drift_heavy_tenants(), Some(0.5)), cfg);
    assert!(report.dropped() > 0, "tiny queue under load must drop");
    assert!(report.expired_in_queue() > 0, "tight deadline must expire");
    for t in &report.tenants {
        let want = t.dropped() as f64 / t.arrivals() as f64;
        assert_eq!(t.drop_rate().to_bits(), want.to_bits(), "{}", t.name);
    }
    let arrivals = report.outcomes().arrival_terminal();
    assert_eq!(arrivals, 10_000);
    assert!(report.completed() + report.dropped() < arrivals);
    let total = format!(
        "{:>7.2}%",
        report.dropped() as f64 / arrivals as f64 * 100.0
    );
    let row = report
        .to_string()
        .lines()
        .find(|l| l.starts_with("TOTAL"))
        .map(str::to_owned)
        .expect("TOTAL row");
    assert!(row.contains(&total), "{row} lacks {total}");
}

#[test]
fn reconfig_aware_beats_fifo_on_p99_under_drift() {
    let mk = |policy| {
        let cfg = ServeConfig {
            seed: 7,
            total_requests: 30_000,
            queue_capacity: 512,
            policy,
            ..ServeConfig::default()
        };
        simulate(drift_heavy_tenants(), cfg)
    };
    let fifo = mk(DispatchPolicy::Fifo);
    let aware = mk(DispatchPolicy::ReconfigAware);

    assert!(
        aware.reconfigs < fifo.reconfigs,
        "strictly fewer reconfigurations: {} vs {}",
        aware.reconfigs,
        fifo.reconfigs
    );
    let fifo_p99 = fifo.overall_latency().quantile(0.99);
    let aware_p99 = aware.overall_latency().quantile(0.99);
    assert!(
        aware_p99 < fifo_p99,
        "p99 must improve: {aware_p99} vs {fifo_p99}"
    );
    assert!(
        aware.throughput_rps() >= fifo.throughput_rps(),
        "amortizing stalls cannot lose throughput: {} vs {}",
        aware.throughput_rps(),
        fifo.throughput_rps()
    );
}

/// Golden values captured from the PR 1 single-board simulator (commit
/// `13c5e52`, before the board-pool refactor) on the drift-heavy trace:
/// seed 99, 5 000 requests, default queue. A single-board pool must
/// reproduce them **bit-for-bit** — same event-trace digest, same
/// completion/drop/reconfiguration counts — or pool numbers stop being
/// comparable across the perf trajectory.
#[test]
fn single_board_pool_reproduces_pr1_metrics_bit_for_bit() {
    struct Golden {
        policy: DispatchPolicy,
        placement: PlacementPolicy,
        digest: u64,
        completed: u64,
        dropped: u64,
        reconfigs: u64,
    }
    let goldens = [
        Golden {
            policy: DispatchPolicy::Fifo,
            placement: PlacementPolicy::LeastLoaded,
            digest: 0x0A50_3A29_FBBB_3279,
            completed: 1_280,
            dropped: 3_720,
            reconfigs: 756,
        },
        Golden {
            policy: DispatchPolicy::ReconfigAware,
            placement: PlacementPolicy::LeastLoaded,
            digest: 0x7A80_395C_B156_02F6,
            completed: 5_000,
            dropped: 0,
            reconfigs: 549,
        },
        // With one board, BitstreamAffine degenerates to the PR 1
        // reconfig-aware queue scan exactly.
        Golden {
            policy: DispatchPolicy::ReconfigAware,
            placement: PlacementPolicy::BitstreamAffine,
            digest: 0x7A80_395C_B156_02F6,
            completed: 5_000,
            dropped: 0,
            reconfigs: 549,
        },
    ];
    for g in goldens {
        let report = simulate(
            drift_heavy_tenants(),
            ServeConfig {
                seed: 99,
                total_requests: 5_000,
                policy: g.policy,
                placement: g.placement,
                ..ServeConfig::default()
            },
        );
        let label = format!("{:?}/{}", g.policy, g.placement.name());
        assert_eq!(
            report.trace_digest, g.digest,
            "{label}: PR 1 trace digest must reproduce bit-for-bit"
        );
        assert_eq!(report.completed(), g.completed, "{label}");
        assert_eq!(report.dropped(), g.dropped, "{label}");
        assert_eq!(report.reconfigs, g.reconfigs, "{label}");
        assert_eq!(report.boards.len(), 1);
        assert_eq!(report.boards[0].completed, g.completed, "{label}");
    }
}

/// The lifecycle paths no sweep scenario or PR 1 golden reaches, pinned
/// at their recorded schedule and narration: hedged serial dispatch (with
/// and without the result cache, whose coalesced arrivals expire with
/// their primary) and pipelined stage aborts under weighted fair queueing
/// with peer migration. Each row pins the event digest, the counts that
/// prove the path ran, and an FNV-1a hash of the run's Perfetto document,
/// so a re-ordered event or a dropped or re-timed span fails here.
#[test]
fn hedge_and_abort_paths_reproduce_pinned_digests() {
    struct Pinned {
        label: &'static str,
        cfg: ServeConfig,
        deadline_secs: f64,
        digest: u64,
        narration: u64,
        hedges: u64,
        expired: u64,
        aborted: u64,
    }
    let base = ServeConfig {
        seed: 7,
        total_requests: 3_000,
        boards: 2,
        ..ServeConfig::reconfig_aware()
    };
    let hedged = |cache| ServeConfig {
        placement: PlacementPolicy::BitstreamAffine,
        cache,
        hedge: HedgeKind::latency(),
        ..base
    };
    let pinned = [
        Pinned {
            label: "hedged, cached",
            cfg: hedged(CacheKind::delta()),
            deadline_secs: 0.5,
            digest: 0xB985_8970_625E_12A6,
            narration: 0x251D_AB99_9634_E432,
            hedges: 2,
            expired: 5,
            aborted: 0,
        },
        Pinned {
            label: "hedged",
            cfg: hedged(CacheKind::Off),
            deadline_secs: 2.0,
            digest: 0x5926_44C4_BA75_7696,
            narration: 0x8C37_CA2C_48CD_B89A,
            hedges: 7,
            expired: 2_147,
            aborted: 0,
        },
        Pinned {
            label: "pipelined aborts",
            cfg: ServeConfig {
                overlap: true,
                scheduler: SchedKind::weighted_fair(),
                migrate: MigratePolicy::PeerRehydrate,
                ..base
            },
            deadline_secs: 0.5,
            digest: 0xDFB2_888A_2DE5_21A0,
            narration: 0xC350_376B_5190_179A,
            hedges: 0,
            expired: 853,
            aborted: 407,
        },
    ];
    for p in pinned {
        let tenants = with_deadline(
            TenantSpec::taobao_regions(4.0, 900.0),
            Some(p.deadline_secs),
        );
        let names = tenants.iter().map(|t| t.name.clone()).collect();
        let mut writer = ChromeTraceWriter::with_tenant_names(names);
        let report = TrafficSim::new(tenants, p.cfg).run_traced(&mut writer);
        let narration = fnv1a(writer.finish().as_bytes());
        let label = p.label;
        assert_eq!(report.hedges(), p.hedges, "{label}: hedges");
        assert_eq!(report.expired_in_queue(), p.expired, "{label}: expired");
        assert_eq!(report.aborted(), p.aborted, "{label}: aborted");
        assert_eq!(report.trace_digest, p.digest, "{label}: trace digest");
        assert_eq!(narration, p.narration, "{label}: narration hash");
    }
}

/// FNV-1a over `bytes`, the hash the narration and report pins record.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325_u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// One latency predictor feeds both the SLO reconfiguration gate and the
/// hedge trigger: a serial SLO-aware run with hedging, pinned at its
/// recorded digest and report bytes (`sim` zeroed). The run hedges, and
/// the gate holds most reconfigurations that the same run under `Fifo`
/// pays, so both consumers read the predictor here.
#[test]
fn slo_gate_and_hedging_share_one_predictor() {
    let mut tenants = with_deadline(drift_heavy_tenants(), Some(2.0));
    tenants[0].slo_secs = Some(0.3);
    tenants[2].slo_secs = Some(5.0);
    let cfg = |scheduler| ServeConfig {
        seed: 1,
        total_requests: 3_000,
        boards: 2,
        placement: PlacementPolicy::BitstreamAffine,
        hedge: HedgeKind::latency(),
        scheduler,
        ..ServeConfig::reconfig_aware()
    };
    let mut report = simulate(tenants.clone(), cfg(SchedKind::SloAware));
    report.sim = SimPerf::default();
    assert_eq!(report.hedges(), 49, "hedges");
    assert_eq!(report.reconfigs, 4, "reconfigs");
    assert_eq!(report.trace_digest, 0xB6D2_7562_D8C2_680E, "trace digest");
    assert_eq!(fnv1a(report.to_json().as_bytes()), 0x001D_2133_92A7_1125);
    let ungated = simulate(tenants, cfg(SchedKind::Fifo));
    assert!(
        ungated.reconfigs > 100 * report.reconfigs,
        "the gate must have closed: {} vs {}",
        report.reconfigs,
        ungated.reconfigs
    );
}

/// A simulator over one tenant whose arrival process is `arrival`,
/// constructed and never run.
fn construct_with_arrivals(arrival: ArrivalProcess) -> TrafficSim {
    let mut tenant = TenantSpec::new("feed", Dataset::Movie, 1.0);
    tenant.arrival = arrival;
    TrafficSim::new(vec![tenant], ServeConfig::default())
}

fn diurnal(mean_rps: f64, amplitude: f64, period_secs: f64) -> ArrivalProcess {
    ArrivalProcess::Diurnal {
        mean_rps,
        amplitude,
        period_secs,
        phase_secs: 0.0,
    }
}

#[test]
#[should_panic(expected = "arrival rate must be positive and finite")]
fn construction_rejects_a_zero_arrival_rate() {
    construct_with_arrivals(ArrivalProcess::Poisson { rate_rps: 0.0 });
}

#[test]
#[should_panic(expected = "arrival rate must be positive and finite")]
fn construction_rejects_a_negative_arrival_rate() {
    construct_with_arrivals(ArrivalProcess::Poisson { rate_rps: -1.0 });
}

#[test]
#[should_panic(expected = "arrival rate must be positive and finite")]
fn construction_rejects_a_nan_arrival_rate() {
    construct_with_arrivals(ArrivalProcess::Poisson { rate_rps: f64::NAN });
}

#[test]
#[should_panic(expected = "arrival rate must be positive and finite")]
fn construction_rejects_an_infinite_arrival_rate() {
    construct_with_arrivals(diurnal(f64::INFINITY, 0.5, 600.0));
}

#[test]
#[should_panic(expected = "must be in [0, 1)")]
fn construction_rejects_a_diurnal_amplitude_of_one() {
    construct_with_arrivals(diurnal(10.0, 1.0, 600.0));
}

#[test]
#[should_panic(expected = "diurnal period must be positive and finite")]
fn construction_rejects_a_zero_diurnal_period() {
    construct_with_arrivals(diurnal(10.0, 0.5, 0.0));
}

/// `validate()` is the only check a struct literal meets, and
/// `TrafficSim::new` runs it: hedging on a one-board pool never reaches
/// `run()`.
#[test]
#[should_panic(expected = "invalid ServeConfig")]
fn construction_rejects_an_invalid_config_literal() {
    let hedged_single_board = ServeConfig {
        hedge: HedgeKind::latency(),
        ..ServeConfig::default()
    };
    let tenant = TenantSpec::new("feed", Dataset::Movie, 1.0);
    TrafficSim::new(vec![tenant], hedged_single_board);
}

/// Weighted fair queueing would reject the weight inside `run()`;
/// construction rejects it first, under any scheduler.
#[test]
#[should_panic(expected = "tenant weight must be positive and finite")]
fn construction_rejects_a_zero_tenant_weight() {
    let mut tenant = TenantSpec::new("feed", Dataset::Movie, 1.0);
    tenant.weight = 0.0;
    TrafficSim::new(vec![tenant], ServeConfig::weighted_fair());
}

/// A NaN budget would never trip the SLO gate or the violation count;
/// construction rejects it, under any scheduler.
#[test]
#[should_panic(expected = "tenant SLO budget must be positive and finite")]
fn construction_rejects_a_nan_slo_budget() {
    let mut tenant = TenantSpec::new("feed", Dataset::Movie, 1.0);
    tenant.slo_secs = Some(f64::NAN);
    TrafficSim::new(vec![tenant], ServeConfig::slo_aware());
}

/// A deadline must be a positive, finite number of seconds. Deadlines
/// are set per tenant only, so this construction check is the one
/// deadline check.
#[test]
#[should_panic(expected = "tenant deadline must be positive and finite")]
fn construction_rejects_a_zero_tenant_deadline() {
    let mut tenant = TenantSpec::new("feed", Dataset::Movie, 1.0);
    tenant.deadline_secs = Some(0.0);
    TrafficSim::new(vec![tenant], ServeConfig::default());
}

/// A negative budget is rejected at construction too.
#[test]
#[should_panic(expected = "tenant SLO budget must be positive and finite")]
fn non_positive_budgets_are_rejected() {
    let mut tenant = TenantSpec::new("feed", Dataset::Movie, 1.0);
    tenant.slo_secs = Some(-1.0);
    TrafficSim::new(vec![tenant], ServeConfig::slo_aware());
}

/// The NullSink digest-equivalence invariant at its sharpest: running the
/// PR 1 golden configuration with a [`FlightRecorder`] attached must
/// still reproduce the pinned digest bit-for-bit — tracing observes the
/// schedule, it never becomes part of it — while the recorder holds a
/// queryable per-request timeline of the very same run.
#[test]
fn flight_recorder_reproduces_the_golden_digest_while_recording() {
    let cfg = ServeConfig {
        seed: 99,
        total_requests: 5_000,
        policy: DispatchPolicy::Fifo,
        placement: PlacementPolicy::LeastLoaded,
        ..ServeConfig::default()
    };
    let mut sink = Completions::<FlightRecorder>::default();
    let report = TrafficSim::new(drift_heavy_tenants(), cfg).run_traced(&mut sink);
    let recorder = &sink.inner;
    assert_eq!(
        report.trace_digest, 0x0A50_3A29_FBBB_3279,
        "the golden digest must survive tracing bit-for-bit"
    );
    assert_eq!(report.completed(), 1_280);
    assert_eq!(report.dropped(), 3_720);
    assert_eq!(report.reconfigs, 756);

    // The recorder saw the whole run: every dispatched (== completed)
    // request got a queue span, and the serial lifecycle put its ingest,
    // preprocess and hand-off on the single board's resource tracks.
    assert_eq!(recorder.dropped_spans(), 0, "default ring holds a 5k run");
    let queue_spans = recorder
        .spans()
        .filter(|s| s.kind == SpanKind::Queue)
        .count() as u64;
    assert_eq!(
        queue_spans,
        report.completed(),
        "one queue span per dispatch"
    );
    let first = recorder.spans_for_request(0);
    assert!(
        first.len() >= 4,
        "request 0 must carry queue + ingest + preprocess + hand-off, got {first:?}"
    );
    // Stall attribution and the trace agree on what the run did: the
    // aggregate reconfig stall is exactly the report's counter.
    assert!(
        report.stall.reconfig_secs > 0.0,
        "756 reconfigs stall somewhere"
    );
    assert!(
        (report.stall.total() - sink.log.iter().map(|r| r.latency.total()).sum::<f64>()).abs()
            < 1e-6,
        "attribution covers every completed request end to end"
    );
}

/// Completions are narrated, not kept in the report: on a run with
/// deadlines, the delta cache and peer rehydration on, a collecting sink
/// receives exactly one record per completion, split per tenant and into
/// on-time and late outcomes as the report counts them, while the report
/// itself renders byte for byte as the untraced run's.
#[test]
fn completions_narrate_through_the_sink_without_perturbing_the_report() {
    let tenants = with_deadline(TenantSpec::taobao_regions(4.0, 900.0), Some(0.3));
    // Buckets advance every 0.25 s against a near-zero staleness budget,
    // so entries keep going stale and evicted graphs rehydrate from peers.
    let cfg = ServeConfig {
        seed: 4_242,
        total_requests: 3_000,
        queue_capacity: 512,
        boards: 4,
        migrate: MigratePolicy::PeerRehydrate,
        drift_step_secs: 0.25,
        cache: CacheKind::Delta {
            max_delta_frac: 1e-9,
        },
        ..ServeConfig::pipelined()
    };
    let mut untraced = simulate(tenants.clone(), cfg);
    let (mut traced, log) = run_logged(tenants, cfg);
    assert!(traced.migrations() > 0, "peer rehydration must fire");
    assert!(traced.cache.hits > 0, "the delta cache must serve hits");

    assert_eq!(log.len() as u64, traced.completed());
    for (tenant, stats) in traced.tenants.iter().enumerate() {
        let count = |outcome| {
            log.iter()
                .filter(|r| r.tenant == tenant && r.outcome == outcome)
                .count() as u64
        };
        assert_eq!(
            count(RequestOutcome::Served),
            stats.outcomes.served,
            "{}",
            stats.name
        );
        assert_eq!(
            count(RequestOutcome::ServedLate),
            stats.outcomes.served_late,
            "{}",
            stats.name
        );
    }
    let outcomes = traced.outcomes();
    assert!(
        outcomes.served > 0 && outcomes.served_late > 0,
        "{outcomes:?}"
    );
    assert!(log.iter().all(|r| r.latency.total() > 0.0));

    untraced.sim = SimPerf::default();
    traced.sim = SimPerf::default();
    assert_eq!(traced.to_json(), untraced.to_json());
}

#[test]
fn bitstream_affine_pool_beats_single_board_on_the_drift_heavy_trace() {
    let base = ServeConfig {
        seed: 7,
        total_requests: 20_000,
        queue_capacity: 512,
        policy: DispatchPolicy::ReconfigAware,
        ..ServeConfig::default()
    };
    let single = simulate(drift_heavy_tenants(), base);
    let pool = simulate(
        drift_heavy_tenants(),
        ServeConfig {
            boards: 4,
            placement: PlacementPolicy::BitstreamAffine,
            ..base
        },
    );
    assert!(
        pool.reconfigs < single.reconfigs / 10,
        "4 affine boards must eliminate most reconfigurations: {} vs {}",
        pool.reconfigs,
        single.reconfigs
    );
    let single_p99 = single.overall_latency().quantile(0.99);
    let pool_p99 = pool.overall_latency().quantile(0.99);
    assert!(
        pool_p99 < single_p99,
        "pool p99 {pool_p99} must beat single-board {single_p99}"
    );
    assert_eq!(
        pool.completed() + pool.dropped(),
        single.completed() + single.dropped(),
        "same offered load either way"
    );
}

/// FIFO promises strict arrival order, so `BitstreamAffine` placement
/// must not let the affinity scan overtake the queue front: on one board
/// it must produce exactly the `LeastLoaded` FIFO schedule (placement
/// degenerates to "which board", and there is only one).
#[test]
fn bitstream_affine_under_fifo_preserves_arrival_order() {
    let base = ServeConfig {
        seed: 99,
        total_requests: 5_000,
        policy: DispatchPolicy::Fifo,
        ..ServeConfig::default()
    };
    let fifo = simulate(drift_heavy_tenants(), base);
    let affine = simulate(
        drift_heavy_tenants(),
        ServeConfig {
            placement: PlacementPolicy::BitstreamAffine,
            ..base
        },
    );
    assert_eq!(
        affine.trace_digest, fifo.trace_digest,
        "affinity routing must not reorder a FIFO queue"
    );
}

/// With more tenants than boards, a home board multiplexes several
/// bitstreams, so `TenantAffine` placement must still route request
/// selection through the dispatch policy: reconfig-aware batching has to
/// produce a different (cheaper) schedule than FIFO on the same trace.
#[test]
fn tenant_affine_respects_the_dispatch_policy_when_tenants_share_a_board() {
    let base = ServeConfig {
        seed: 31,
        total_requests: 8_000,
        queue_capacity: 512,
        boards: 2, // 3 tenants: movies and fraud share home board 0
        placement: PlacementPolicy::TenantAffine,
        ..ServeConfig::default()
    };
    let fifo = simulate(
        drift_heavy_tenants(),
        ServeConfig {
            policy: DispatchPolicy::Fifo,
            ..base
        },
    );
    let aware = simulate(
        drift_heavy_tenants(),
        ServeConfig {
            policy: DispatchPolicy::ReconfigAware,
            ..base
        },
    );
    assert_ne!(
        aware.trace_digest, fifo.trace_digest,
        "reconfig-aware under TenantAffine must not degenerate to FIFO"
    );
    assert!(
        aware.reconfigs < fifo.reconfigs,
        "same-bitstream batching must cut reconfigurations on a shared home board: {} vs {}",
        aware.reconfigs,
        fifo.reconfigs
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Pipelining is a scheduling change, not a semantic one: for any
    /// seed, pool size, placement and dispatch policy, the pipelined
    /// scheduler serves exactly the same request set as the serial one
    /// (served + dropped == arrivals; on a drop-free queue the identical
    /// (tenant, arrival) multiset). On an *order-preserving* schedule
    /// (FIFO dispatch, one board) pipelining additionally dominates
    /// request by request: no individual latency gets worse. Adaptive
    /// placement/dispatch legitimately re-route requests once stage
    /// timings shift (a board frees earlier, so a different board/request
    /// pairing wins), trading individual requests for aggregate gains —
    /// so the per-request bound is asserted exactly where it is a
    /// theorem.
    #[test]
    fn pipelined_mode_serves_the_same_requests_no_slower(
        seed in proptest::any::<u64>(),
        boards in 1usize..5,
        placement_pick in 0u32..3,
        fifo in proptest::any::<bool>(),
    ) {
        let placement = match placement_pick {
            0 => PlacementPolicy::TenantAffine,
            1 => PlacementPolicy::LeastLoaded,
            _ => PlacementPolicy::BitstreamAffine,
        };
        let policy = if fifo {
            DispatchPolicy::Fifo
        } else {
            DispatchPolicy::ReconfigAware
        };
        let total = 500;
        let mk = |overlap| {
            let cfg = ServeConfig {
                seed,
                total_requests: total,
                // Deep enough that neither mode drops: the served sets
                // are then comparable request by request.
                queue_capacity: 2_048,
                boards,
                placement,
                policy,
                overlap,
                ..ServeConfig::default()
            };
            run_logged(drift_heavy_tenants(), cfg)
        };
        let (serial, serial_log) = mk(false);
        let (pipelined, pipelined_log) = mk(true);
        prop_assert_eq!(serial.completed() + serial.dropped(), total);
        prop_assert_eq!(pipelined.completed() + pipelined.dropped(), total);
        prop_assert_eq!(serial.dropped(), 0, "queue sized to avoid drops");
        prop_assert_eq!(pipelined.dropped(), 0);

        // Identical served multiset: key each request by its arrival
        // (arrival streams are scheduling-independent, so the bits match).
        let key = |r: &CompletedRequest| {
            ((r.tenant, r.arrival_secs.to_bits()), r.latency.total())
        };
        let mut serial_log: Vec<_> = serial_log.iter().map(key).collect();
        let mut pipelined_log: Vec<_> = pipelined_log.iter().map(key).collect();
        serial_log.sort_by_key(|entry| entry.0);
        pipelined_log.sort_by_key(|entry| entry.0);
        prop_assert_eq!(serial_log.len(), pipelined_log.len());
        let order_preserving = boards == 1 && fifo;
        for (s, p) in serial_log.iter().zip(&pipelined_log) {
            prop_assert_eq!(s.0, p.0, "same request set in both modes");
            if order_preserving {
                prop_assert!(
                    p.1 <= s.1 + 1e-9,
                    "request (tenant {}, arrival {}) slower pipelined: {} vs {} \
                     (seed {seed} placement {})",
                    s.0.0,
                    f64::from_bits(s.0.1),
                    p.1,
                    s.1,
                    placement.name(),
                );
            }
        }
    }

    /// Migration is a transport change, not a semantic one: for any seed,
    /// pool size, placement and migration flavor, enabling migration on
    /// the memory-pressured trace serves the identical request multiset
    /// as `MigratePolicy::Off` (keyed by scheduling-independent arrivals,
    /// on a drop-free queue). Byte accounting conserves: every served
    /// request's graph arrived from exactly one source per byte — the
    /// per-request host/switch splits sum to the pool totals, every
    /// migration moved switch bytes, and `Off` never touches the switch.
    #[test]
    fn migration_serves_the_same_multiset_and_conserves_bytes(
        seed in proptest::any::<u64>(),
        boards in 2usize..5,
        placement_pick in 0u32..3,
        split in proptest::any::<bool>(),
    ) {
        let placement = match placement_pick {
            0 => PlacementPolicy::TenantAffine,
            1 => PlacementPolicy::LeastLoaded,
            _ => PlacementPolicy::BitstreamAffine,
        };
        let migrate = if split {
            MigratePolicy::SplitHot
        } else {
            MigratePolicy::PeerRehydrate
        };
        let total = 400;
        let mk = |migrate| {
            let cfg = ServeConfig {
                seed,
                total_requests: total,
                // Deep enough that neither mode drops: the served
                // multisets are then directly comparable.
                queue_capacity: 4_096,
                boards,
                placement,
                migrate,
                ..ServeConfig::pipelined()
            };
            run_logged(TenantSpec::taobao_regions(4.0, 900.0), cfg)
        };
        let (off, off_log) = mk(MigratePolicy::Off);
        let (on, on_log) = mk(migrate);
        prop_assert_eq!(off.dropped(), 0, "queue sized to avoid drops");
        prop_assert_eq!(on.dropped(), 0);
        prop_assert_eq!(off.completed(), total);
        prop_assert_eq!(on.completed(), total);

        // Identical served multiset: arrivals are scheduling-independent.
        let key = |r: &CompletedRequest| (r.tenant, r.arrival_secs.to_bits());
        let mut off_keys: Vec<_> = off_log.iter().map(key).collect();
        let mut on_keys: Vec<_> = on_log.iter().map(key).collect();
        off_keys.sort_unstable();
        on_keys.sort_unstable();
        prop_assert_eq!(off_keys, on_keys, "same requests served either way");

        // Off never touches the switch; per-request splits sum to the
        // pool totals on both sides.
        prop_assert_eq!(off.switch_bytes(), 0);
        prop_assert_eq!(off.migrations(), 0);
        prop_assert!(off_log.iter().all(|r| r.switch_bytes == 0));
        for (report, log) in [(&off, &off_log), (&on, &on_log)] {
            let host: u64 = log.iter().map(|r| r.host_bytes).sum();
            let switch: u64 = log.iter().map(|r| r.switch_bytes).sum();
            prop_assert_eq!(host, report.host_upload_bytes(), "host bytes conserve");
            prop_assert_eq!(switch, report.switch_bytes(), "switch bytes conserve");
        }
        let migrated = on_log.iter().filter(|r| r.switch_bytes > 0).count() as u64;
        prop_assert_eq!(
            migrated,
            on.migrations(),
            "every migration moved bytes over the switch, and nothing else did"
        );
    }

    /// Conservation: for any seed, pool size, placement policy, dispatch
    /// policy, queue bound, deadline and hedging mode, every offered
    /// request reaches exactly one arrival-terminal outcome — served,
    /// served late, expired in queue, aborted or dropped at admission —
    /// nothing is silently lost, each tenant's outcomes count exactly the
    /// arrivals its stream offered, and the per-board breakdown sums to
    /// the completions.
    #[test]
    fn every_arrival_reaches_one_terminal_outcome_for_any_pool(
        seed in proptest::any::<u64>(),
        boards in 1usize..6,
        placement_pick in 0u32..3,
        scheduler_pick in 0u32..3,
        fifo in proptest::any::<bool>(),
        queue_capacity in 2usize..48,
        // deadline (none / tight / loose) × hedging (off / on) in one pick.
        lifecycle_pick in 0u32..6,
        overlap in proptest::any::<bool>(),
    ) {
        let placement = match placement_pick {
            0 => PlacementPolicy::TenantAffine,
            1 => PlacementPolicy::LeastLoaded,
            _ => PlacementPolicy::BitstreamAffine,
        };
        let scheduler = match scheduler_pick {
            0 => SchedKind::Fifo,
            // A quota *below* the aggregate capacity, so the per-tenant
            // drop path is exercised too.
            1 => SchedKind::WeightedFair { per_tenant_quota: 8 },
            _ => SchedKind::SloAware,
        };
        let policy = if fifo {
            DispatchPolicy::Fifo
        } else {
            DispatchPolicy::ReconfigAware
        };
        let total = 600;
        let (tenants, cfg) = lifecycle_case(
            ServeConfig {
                seed,
                total_requests: total,
                queue_capacity,
                boards,
                placement,
                policy,
                scheduler,
                overlap,
                ..ServeConfig::default()
            },
            lifecycle_pick,
        );
        let (deadline, hedge_on) = (tenants[0].deadline_secs, cfg.hedge.enabled());
        let offered = offered_per_tenant(&tenants, seed, total);
        let report = simulate(tenants, cfg);
        let outcomes = report.outcomes();
        prop_assert_eq!(
            outcomes.arrival_terminal(),
            total,
            "conservation violated: boards={} placement={} scheduler={} \
             deadline={:?} hedge={} overlap={} seed={}",
            boards,
            placement.name(),
            scheduler.name(),
            deadline,
            hedge_on,
            overlap,
            seed
        );
        if !hedge_on {
            prop_assert_eq!(outcomes.hedge_loser, 0);
        }
        if deadline.is_none() {
            prop_assert_eq!(outcomes.served_late, 0);
            prop_assert_eq!(outcomes.expired_in_queue, 0);
            prop_assert_eq!(outcomes.aborted, 0);
            prop_assert_eq!(report.wasted_work_bytes, 0);
            prop_assert_eq!(report.wasted_secs, 0.0);
        }
        if !overlap {
            // Stage aborts only exist in the pipelined lifecycle — the
            // serial one holds the board through the whole request.
            prop_assert_eq!(outcomes.aborted, 0);
        }
        // Each tenant's outcomes partition exactly the arrivals its own
        // stream offered, so a drop, expiry or completion is never
        // attributed to the wrong tenant (WFQ's per-tenant quota refusals
        // included).
        for (t, &offered) in report.tenants.iter().zip(&offered) {
            prop_assert_eq!(t.arrivals(), offered, "{} outcomes vs its offered arrivals", &t.name);
        }
        for t in &report.tenants {
            prop_assert_eq!(t.latency.count(), t.completed(), "one sample per completion");
            prop_assert_eq!(
                t.goodput_latency.count(),
                t.outcomes.served,
                "goodput histogram holds exactly the on-time completions"
            );
        }
        let per_board: u64 = report.boards.iter().map(|b| b.completed).sum();
        prop_assert_eq!(per_board, report.completed());
        prop_assert_eq!(report.boards.len(), boards);
        prop_assert!(report.queue_depth.max_depth() <= queue_capacity);
    }

    /// The Fifo-equivalence invariant over the scheduler seam, from the
    /// other side: with a single tenant there is nothing to arbitrate, so
    /// weighted fair queueing (quota == the aggregate bound) must
    /// reproduce the `SchedKind::Fifo` schedule bit-for-bit for any seed,
    /// pool size and queue bound.
    #[test]
    fn wfq_with_one_tenant_degenerates_to_fifo(
        seed in proptest::any::<u64>(),
        boards in 1usize..4,
        queue_capacity in 2usize..32,
    ) {
        let tenants = || vec![TenantSpec::new("solo", Dataset::Taobao, 30.0)];
        let mk = |scheduler| {
            let cfg = ServeConfig {
                seed,
                total_requests: 400,
                queue_capacity,
                boards,
                policy: DispatchPolicy::Fifo,
                scheduler,
                ..ServeConfig::default()
            };
            simulate(tenants(), cfg)
        };
        let fifo = mk(SchedKind::Fifo);
        let wfq = mk(SchedKind::WeightedFair { per_tenant_quota: queue_capacity });
        prop_assert_eq!(fifo.trace_digest, wfq.trace_digest);
        prop_assert_eq!(fifo, wfq);
    }

    /// Stall attribution is an exact partition, not an estimate: for any
    /// seed, pool size, placement, scheduler, migration flavor, result
    /// cache and lifecycle mode, every completed request's six stall
    /// components (queue-wait / reconfig / DMA / fabric / hand-off /
    /// cache) sum to its end-to-end latency, and the report's aggregate
    /// breakdown is the sum of the per-request ones.
    #[test]
    fn stall_attribution_partitions_every_latency_exactly(
        seed in proptest::any::<u64>(),
        boards in 1usize..5,
        placement_pick in 0u32..3,
        scheduler_pick in 0u32..3,
        migrate_pick in 0u32..3,
        cache_pick in 0u32..3,
        overlap in proptest::any::<bool>(),
    ) {
        let placement = match placement_pick {
            0 => PlacementPolicy::TenantAffine,
            1 => PlacementPolicy::LeastLoaded,
            _ => PlacementPolicy::BitstreamAffine,
        };
        let scheduler = match scheduler_pick {
            0 => SchedKind::Fifo,
            1 => SchedKind::WeightedFair { per_tenant_quota: 8 },
            _ => SchedKind::SloAware,
        };
        let migrate = match migrate_pick {
            0 => MigratePolicy::Off,
            1 => MigratePolicy::PeerRehydrate,
            _ => MigratePolicy::SplitHot,
        };
        let cache = match cache_pick {
            0 => CacheKind::Off,
            1 => CacheKind::Exact,
            _ => CacheKind::delta(),
        };
        // Migration only fires under memory pressure and the staged
        // lifecycle; the drift trace covers the reconfig-stall side.
        let (tenants, overlap) = if migrate_pick == 0 {
            (drift_heavy_tenants(), overlap)
        } else {
            (TenantSpec::taobao_regions(4.0, 900.0), true)
        };
        let (report, log) = run_logged(
            tenants,
            ServeConfig {
                seed,
                total_requests: 400,
                queue_capacity: 64,
                boards,
                placement,
                scheduler,
                migrate,
                cache,
                overlap,
                ..ServeConfig::reconfig_aware()
            },
        );
        let mut sum = StallBreakdown::default();
        for r in &log {
            let b = StallBreakdown::of(&r.latency);
            prop_assert!(
                (b.total() - r.latency.total()).abs() <= 1e-9,
                "six components must sum to the end-to-end latency: \
                 {} vs {} (tenant {}, arrival {}, seed {seed})",
                b.total(),
                r.latency.total(),
                r.tenant,
                r.arrival_secs
            );
            sum.accumulate(&b);
        }
        for (label, got, want) in [
            ("queue", report.stall.queue_secs, sum.queue_secs),
            ("reconfig", report.stall.reconfig_secs, sum.reconfig_secs),
            ("dma", report.stall.dma_secs, sum.dma_secs),
            ("fabric", report.stall.fabric_secs, sum.fabric_secs),
            ("handoff", report.stall.handoff_secs, sum.handoff_secs),
            ("cache", report.stall.cache_secs, sum.cache_secs),
        ] {
            prop_assert!(
                (got - want).abs() <= 1e-6 * (1.0 + want.abs()),
                "aggregate {label} must equal the per-request sum: {got} vs {want}"
            );
        }
    }

    /// Tracing is observation, not participation: for any seed, pool
    /// size, scheduler, result cache, migration flavor and lifecycle
    /// mode — and for a serial pool of two or more boards with a
    /// deadline and hedged dispatch armed — running with a
    /// [`FlightRecorder`] attached yields the identical report — trace
    /// digest included — as the untraced run; and on every
    /// board-resource track (DMA, fabric, ICAP) the recorded spans never
    /// overlap, because each track is one physical resource serving one
    /// request at a time. (The queue track aggregates all waiting
    /// requests, so its spans overlap by design and are excluded.)
    #[test]
    fn tracing_observes_without_perturbing_and_tracks_never_overlap(
        seed in proptest::any::<u64>(),
        boards in 1usize..5,
        scheduler_pick in 0u32..3,
        cache_on in proptest::any::<bool>(),
        migrate_pick in 0u32..3,
        overlap in proptest::any::<bool>(),
        hedged in proptest::any::<bool>(),
    ) {
        let scheduler = match scheduler_pick {
            0 => SchedKind::Fifo,
            1 => SchedKind::weighted_fair(),
            _ => SchedKind::SloAware,
        };
        let cache = if cache_on { CacheKind::delta() } else { CacheKind::Off };
        let migrate = match migrate_pick {
            0 => MigratePolicy::Off,
            1 => MigratePolicy::PeerRehydrate,
            _ => MigratePolicy::SplitHot,
        };
        let base = ServeConfig {
            seed,
            total_requests: 400,
            queue_capacity: 256,
            boards,
            scheduler,
            cache,
            migrate,
            ..ServeConfig::reconfig_aware()
        };
        let (tenants, cfg) = tracing_case(base, overlap, hedged);
        let boards = cfg.boards;
        let untraced = simulate(tenants.clone(), cfg);
        let mut recorder = FlightRecorder::default();
        let traced = TrafficSim::new(tenants, cfg).run_traced(&mut recorder);
        prop_assert_eq!(
            untraced.trace_digest,
            traced.trace_digest,
            "digest-equivalence: the sink must not perturb the schedule"
        );
        prop_assert_eq!(&untraced, &traced, "sinks are write-only");
        prop_assert_eq!(recorder.dropped_spans(), 0, "ring sized for the run");

        let mut by_track: std::collections::BTreeMap<Track, Vec<(f64, f64)>> =
            std::collections::BTreeMap::new();
        for span in recorder.spans() {
            prop_assert!(
                span.end_secs >= span.begin_secs,
                "spans run forward: {span:?}"
            );
            if let Track::Board { .. } = span.track {
                by_track
                    .entry(span.track)
                    .or_default()
                    .push((span.begin_secs, span.end_secs));
            }
        }
        prop_assert!(!by_track.is_empty(), "a 400-request run must emit spans");
        for (track, mut spans) in by_track {
            spans.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
            for pair in spans.windows(2) {
                prop_assert!(
                    pair[1].0 >= pair[0].1 - 1e-9,
                    "{track:?}: span starting at {} overlaps one ending at {} \
                     (seed {seed}, boards {boards})",
                    pair[1].0,
                    pair[0].1
                );
            }
        }
    }

    /// The result cache's off switch is total: for any seed, pool size,
    /// placement, scheduler and migration combo, a run with
    /// [`CacheKind::Off`] spelled out is **byte-identical** — same trace
    /// digest, same report struct, same rendered JSON — to the default
    /// configuration's run, and its cache counters never move. This is
    /// the same gating contract `SchedKind`/`MigratePolicy` honor: the
    /// golden-digest pins above stay comparable across the perf
    /// trajectory because `Off` adds no schedule perturbation at all.
    #[test]
    fn cache_off_serves_a_byte_identical_report_for_any_combo(
        seed in proptest::any::<u64>(),
        boards in 1usize..5,
        placement_pick in 0u32..3,
        scheduler_pick in 0u32..3,
        migrate_pick in 0u32..3,
        overlap in proptest::any::<bool>(),
    ) {
        let placement = match placement_pick {
            0 => PlacementPolicy::TenantAffine,
            1 => PlacementPolicy::LeastLoaded,
            _ => PlacementPolicy::BitstreamAffine,
        };
        let scheduler = match scheduler_pick {
            0 => SchedKind::Fifo,
            1 => SchedKind::WeightedFair { per_tenant_quota: 8 },
            _ => SchedKind::SloAware,
        };
        let migrate = match migrate_pick {
            0 => MigratePolicy::Off,
            1 => MigratePolicy::PeerRehydrate,
            _ => MigratePolicy::SplitHot,
        };
        let tenants = || if migrate_pick == 0 {
            drift_heavy_tenants()
        } else {
            TenantSpec::taobao_regions(4.0, 900.0)
        };
        let overlap = overlap || migrate_pick != 0;
        let cfg = ServeConfig {
            seed,
            total_requests: 400,
            queue_capacity: 64,
            boards,
            placement,
            scheduler,
            migrate,
            overlap,
            ..ServeConfig::reconfig_aware()
        };
        let default_cache = simulate(tenants(), cfg);
        let explicit_off = simulate(
            tenants(),
            ServeConfig { cache: CacheKind::Off, ..cfg },
        );
        prop_assert_eq!(default_cache.trace_digest, explicit_off.trace_digest);
        prop_assert_eq!(&default_cache, &explicit_off);
        // Byte-identical rendered reports, modulo the two fields that
        // measure the host machine rather than the simulation
        // (`sim_wall_secs` is real elapsed wall clock and
        // `sim_events_per_sec` is derived from it).
        let scrub = |json: String| {
            let mut out = json;
            for field in ["\"sim_wall_secs\":", "\"sim_events_per_sec\":"] {
                let (head, tail) = out.split_once(field).expect("field present");
                let (_, rest) = tail.split_once(',').expect("not the last field");
                out = format!("{head}{field}<wall>,{rest}");
            }
            out
        };
        prop_assert_eq!(scrub(default_cache.to_json()), scrub(explicit_off.to_json()));
        prop_assert_eq!(explicit_off.cache.lookups(), 0, "Off never consults the cache");
        prop_assert_eq!(explicit_off.cache.coalesced, 0);
        prop_assert_eq!(explicit_off.cache.invalidations, 0);
        for t in &explicit_off.tenants {
            prop_assert_eq!(
                t.cache_hits + t.cache_partial_hits + t.cache_misses + t.cache_coalesced,
                0,
                "Off never classifies a request"
            );
        }
    }

    /// No stale serve: with delta-driven invalidation on, every cache hit
    /// was served from an entry whose accumulated source-graph delta was
    /// within the configured `max_delta_frac` of the graph's size at
    /// build time — for any seed, pool size, scheduler and budget. The
    /// report records the *worst* delta fraction any hit was served at,
    /// so the bound is checked at its tightest point. Request accounting
    /// also stays conservative: classified requests equal completions.
    #[test]
    fn delta_invalidation_never_serves_beyond_its_budget(
        seed in proptest::any::<u64>(),
        boards in 1usize..4,
        scheduler_pick in 0u32..3,
        frac_mil in 1u64..200,
    ) {
        let scheduler = match scheduler_pick {
            0 => SchedKind::Fifo,
            1 => SchedKind::WeightedFair { per_tenant_quota: 8 },
            _ => SchedKind::SloAware,
        };
        let max_delta_frac = frac_mil as f64 / 1000.0;
        let report = simulate(
            drift_heavy_tenants(),
            ServeConfig {
                seed,
                total_requests: 600,
                queue_capacity: 64,
                boards,
                scheduler,
                cache: CacheKind::Delta { max_delta_frac },
                ..ServeConfig::reconfig_aware()
            },
        );
        prop_assert!(
            report.cache.max_served_delta_frac <= max_delta_frac + 1e-12,
            "a hit was served at delta fraction {} against a budget of {} (seed {seed})",
            report.cache.max_served_delta_frac,
            max_delta_frac
        );
        // Every completion was classified exactly once: full hits and
        // drained waiters at arrival, partial hits and misses at
        // dispatch; drops are never classified.
        let classified = report.cache.hits
            + report.cache.partial_hits
            + report.cache.misses
            + report.cache.coalesced;
        prop_assert_eq!(classified, report.completed(), "classification partitions completions");
        for t in &report.tenants {
            prop_assert_eq!(
                t.cache_hits + t.cache_partial_hits + t.cache_misses + t.cache_coalesced,
                t.completed(),
                "per-tenant classification partitions completions"
            );
        }
    }

    /// The deadline machinery's off switch, from the other side: an
    /// *unreachable* deadline must change nothing. Setting
    /// a 1e6 s deadline on every tenant arms every deadline code path — the
    /// expiry scan runs on each event, every completion takes the
    /// served/served-late split, pipelined dispatch schedules an abort
    /// event per request — yet no deadline ever fires, so the run must
    /// match the deadline-free one: same trace digest, same report
    /// struct, same rendered JSON. (`sim_events` is scrubbed along with
    /// the host-clock fields: the armed pipelined run pops its deferred
    /// no-op abort events, which the event counter sees and the schedule
    /// does not.)
    #[test]
    fn an_unreachable_deadline_reproduces_the_deadline_free_run(
        seed in proptest::any::<u64>(),
        boards in 1usize..5,
        placement_pick in 0u32..3,
        scheduler_pick in 0u32..3,
        overlap in proptest::any::<bool>(),
    ) {
        let placement = match placement_pick {
            0 => PlacementPolicy::TenantAffine,
            1 => PlacementPolicy::LeastLoaded,
            _ => PlacementPolicy::BitstreamAffine,
        };
        let scheduler = match scheduler_pick {
            0 => SchedKind::Fifo,
            1 => SchedKind::WeightedFair { per_tenant_quota: 8 },
            _ => SchedKind::SloAware,
        };
        let cfg = ServeConfig {
            seed,
            total_requests: 400,
            queue_capacity: 64,
            boards,
            placement,
            scheduler,
            overlap,
            ..ServeConfig::reconfig_aware()
        };
        let free = simulate(drift_heavy_tenants(), cfg);
        let armed = simulate(with_deadline(drift_heavy_tenants(), Some(1e6)), cfg);
        prop_assert_eq!(
            free.trace_digest,
            armed.trace_digest,
            "an unreachable deadline must not perturb the schedule \
             (seed {}, boards {}, overlap {})",
            seed,
            boards,
            overlap
        );
        prop_assert_eq!(&free, &armed);
        let scrub = |json: String| {
            let mut out = json;
            for field in [
                "\"sim_wall_secs\":",
                "\"sim_events\":",
                "\"sim_events_per_sec\":",
            ] {
                let (head, tail) = out.split_once(field).expect("field present");
                let (_, rest) = tail.split_once(',').expect("not the last field");
                out = format!("{head}{field}<host>,{rest}");
            }
            out
        };
        prop_assert_eq!(scrub(free.to_json()), scrub(armed.to_json()));
        // The armed run classified everything as on time.
        let outcomes = armed.outcomes();
        prop_assert_eq!(outcomes.served, armed.completed());
        prop_assert_eq!(outcomes.served_late, 0);
        prop_assert_eq!(outcomes.expired_in_queue, 0);
        prop_assert_eq!(outcomes.aborted, 0);
        prop_assert_eq!(armed.wasted_work_bytes, 0);
        prop_assert_eq!(armed.wasted_secs, 0.0);
    }

    /// Hedging is a dispatch-time race, not a semantic change: on a
    /// drop-free queue, for any seed, pool size, placement and trigger
    /// factor, the hedged run serves exactly the same request multiset as
    /// the unhedged run — no request is lost, none completes twice — and
    /// every launched hedge pairs with exactly one cancelled loser leg.
    #[test]
    fn hedging_preserves_the_served_multiset_and_never_double_serves(
        seed in proptest::any::<u64>(),
        boards in 2usize..5,
        placement_pick in 0u32..3,
        factor_tenths in 1u64..30,
    ) {
        let placement = match placement_pick {
            0 => PlacementPolicy::TenantAffine,
            1 => PlacementPolicy::LeastLoaded,
            _ => PlacementPolicy::BitstreamAffine,
        };
        let total = 400;
        let mk = |hedge| {
            let cfg = ServeConfig {
                seed,
                total_requests: total,
                // Deep enough that neither run drops: the served
                // multisets are then directly comparable.
                queue_capacity: 2_048,
                boards,
                placement,
                policy: DispatchPolicy::ReconfigAware,
                hedge,
                ..ServeConfig::default()
            };
            let mut sink = Completions::<FlightRecorder>::default();
            let report = TrafficSim::new(drift_heavy_tenants(), cfg).run_traced(&mut sink);
            (report, sink)
        };
        let (unhedged, unhedged_sink) = mk(HedgeKind::Off);
        let (hedged, hedged_sink) = mk(HedgeKind::Latency {
            factor: factor_tenths as f64 / 10.0,
        });
        prop_assert_eq!(unhedged.dropped(), 0, "queue sized to avoid drops");
        prop_assert_eq!(hedged.dropped(), 0);
        prop_assert_eq!(unhedged.completed(), total);
        prop_assert_eq!(
            hedged.completed(),
            total,
            "hedging must neither lose a request nor complete one twice \
             (seed {}, boards {}, factor {})",
            seed,
            boards,
            factor_tenths as f64 / 10.0
        );
        prop_assert_eq!(hedged_sink.log.len() as u64, total, "one completion per request");
        // Identical served multiset: arrivals are scheduling-independent.
        let key = |r: &CompletedRequest| (r.tenant, r.arrival_secs.to_bits());
        let mut unhedged_keys: Vec<_> = unhedged_sink.log.iter().map(key).collect();
        let mut hedged_keys: Vec<_> = hedged_sink.log.iter().map(key).collect();
        unhedged_keys.sort_unstable();
        hedged_keys.sort_unstable();
        prop_assert_eq!(unhedged_keys, hedged_keys, "same requests served either way");
        // Every launched hedge cancelled exactly one leg; the winner
        // completed. No deadline and no cache: each queue-track
        // cancellation narrated is one hedge race.
        let outcomes = hedged.outcomes();
        prop_assert_eq!(outcomes.arrival_terminal(), total);
        prop_assert_eq!(hedged_sink.inner.dropped_spans(), 0, "ring sized for the run");
        prop_assert_eq!(outcomes.hedge_loser, queue_cancellations(&hedged_sink.inner));
        prop_assert_eq!(unhedged.hedges(), 0);
        prop_assert_eq!(queue_cancellations(&unhedged_sink.inner), 0);
        // No deadline anywhere: hedging alone never writes a late split.
        prop_assert_eq!(outcomes.served, total);
    }
}

/// The tentpole headline at test scale: on the bursty-aggressor trace
/// ([`TenantSpec::bursty_aggressor`] — two steady interactive victims plus
/// one tenant whose diurnal bursts offer several times the pool's
/// capacity) a shared FIFO queue lets the aggressor's backlog starve the
/// victims, while weighted fair queueing (per-tenant quotas + deficit
/// round robin) holds each victim's p99 within ~2× of its *isolated* run
/// — the latency it would see with the aggressor absent entirely.
#[test]
fn wfq_bounds_victim_p99_under_a_bursty_aggressor() {
    // `weighted_fair()` pins strict dispatch + overlap; swap only the
    // scheduler so the compared runs differ in nothing else.
    let config = |scheduler| ServeConfig {
        seed: 4_242,
        total_requests: 6_000,
        queue_capacity: 512,
        boards: 2,
        scheduler,
        ..ServeConfig::weighted_fair()
    };
    let fifo = simulate(
        TenantSpec::bursty_aggressor(2.0, 40.0, 900.0),
        config(SchedKind::Fifo),
    );
    let wfq = simulate(
        TenantSpec::bursty_aggressor(2.0, 40.0, 900.0),
        config(SchedKind::weighted_fair()),
    );
    // The isolated comparator: victims alone on the same pool.
    let isolated = simulate(
        TenantSpec::bursty_aggressor(2.0, 40.0, 900.0)
            .into_iter()
            .take(2)
            .collect(),
        config(SchedKind::Fifo),
    );
    for v in 0..2 {
        let name = &wfq.tenants[v].name;
        let iso_p99 = isolated.tenants[v].latency.quantile(0.99);
        let wfq_p99 = wfq.tenants[v].latency.quantile(0.99);
        let fifo_p99 = fifo.tenants[v].latency.quantile(0.99);
        // ~2.2x observed; the gap to 1x is head-of-line blocking behind
        // the one aggressor request already in service (no preemption),
        // which no admission policy can remove. The CI `wfq_burst` gate
        // pins the exact value +/-20%; this bound guards the semantics.
        assert!(
            wfq_p99 < iso_p99 * 2.5,
            "{name}: WFQ must hold the victim near its isolated tail: \
             {wfq_p99} vs isolated {iso_p99}"
        );
        assert!(
            fifo_p99 > wfq_p99 * 10.0,
            "{name}: FIFO must blow the victim tail up by an order of \
             magnitude where WFQ does not: {fifo_p99} vs {wfq_p99}"
        );
        assert_eq!(
            wfq.tenants[v].dropped(),
            0,
            "{name}: the aggressor's burst cannot evict a victim's backlog"
        );
        assert!(
            fifo.tenants[v].dropped() > 0,
            "{name}: the shared FIFO queue drops victim traffic"
        );
        assert!(
            wfq.tenants[v].slo_violations < fifo.tenants[v].slo_violations,
            "{name}: fair queueing must improve SLO attainment"
        );
    }
    // The aggressor pays: its quota caps its backlog, so it drops more —
    // but per-tenant accounting still conserves every request.
    assert!(wfq.tenants[2].dropped() > fifo.tenants[2].dropped());
    assert_eq!(wfq.completed() + wfq.dropped(), 6_000);
    // Determinism of the WFQ event model.
    let again = simulate(
        TenantSpec::bursty_aggressor(2.0, 40.0, 900.0),
        config(SchedKind::weighted_fair()),
    );
    assert_eq!(again.trace_digest, wfq.trace_digest);
    assert_eq!(again, wfq);
}

/// The deadline tentpole headline at test scale — the CI `deadline_burst`
/// scenario replays exactly this comparison's enforcement side. On the
/// bursty-aggressor trace the two interactive victims carry a 2 s
/// deadline. A deadline-oblivious server works through the backlogged
/// victim requests long after their clients gave up — board seconds and
/// upload bytes spent serving corpses. Enforcement (in-queue expiry plus
/// hedged dispatch on the two-board pool) drops the dead backlog at scan
/// time instead, so the victims' *on-time* tail collapses to the deadline
/// budget and the pool writes off far less work than the oblivious run
/// silently burned.
#[test]
fn deadline_enforcement_beats_oblivious_serving_on_the_bursty_trace() {
    let deadline = 2.0;
    // Aggressor mean 8 rps on a two-board pool: bursts overload the pool
    // (victim waits blow past the deadline), troughs drain it (victims
    // serve on time) — both sides of the 2 s boundary stay populated.
    let tenants = |with_deadline: bool| {
        let mut tenants = TenantSpec::bursty_aggressor(2.0, 8.0, 900.0);
        if with_deadline {
            for victim in &mut tenants[..2] {
                victim.deadline_secs = Some(deadline);
            }
        }
        tenants
    };
    let config = |hedge| ServeConfig {
        seed: 4_242,
        total_requests: 6_000,
        queue_capacity: 512,
        boards: 2,
        policy: DispatchPolicy::ReconfigAware,
        hedge,
        ..ServeConfig::default()
    };
    let (oblivious, oblivious_log) = run_logged(tenants(false), config(HedgeKind::Off));
    let enforced = simulate(tenants(true), config(HedgeKind::latency()));

    // Both runs face the same 6 000 arrivals; enforcement re-partitions
    // them across the typed outcomes instead of losing any.
    assert_eq!(oblivious.completed() + oblivious.dropped(), 6_000);
    assert_eq!(enforced.outcomes().arrival_terminal(), 6_000);
    assert!(
        enforced.expired_in_queue() > 100,
        "the aggressor's bursts must push victim queue waits past 2 s, \
         expired only {}",
        enforced.expired_in_queue()
    );

    // Victim goodput-p99: the on-time tail under enforcement beats the
    // tail the oblivious run made those clients wait for.
    for v in 0..2 {
        let name = &enforced.tenants[v].name;
        let oblivious_p99 = oblivious.tenants[v].latency.quantile(0.99);
        let goodput_p99 = enforced.tenants[v].goodput_latency.quantile(0.99);
        assert!(
            goodput_p99 <= deadline,
            "{name}: on-time completions sit inside the budget by \
             construction: {goodput_p99}"
        );
        assert!(
            goodput_p99 < oblivious_p99,
            "{name}: enforcement must beat the oblivious victim tail: \
             {goodput_p99} vs {oblivious_p99}"
        );
        assert!(
            enforced.tenants[v].outcomes.served > 50,
            "{name}: trough-time victim traffic still serves on time, got {}",
            enforced.tenants[v].outcomes.served
        );
    }

    // Wasted work: the oblivious run does not *measure* waste, but it
    // pays it — every victim completion past the deadline held its board
    // for a client that had already given up. Enforcement's ledger (late
    // serves + aborts + hedge losers) must come in under that silent
    // burn, in board-seconds and in bytes.
    let (oblivious_dead_secs, oblivious_dead_bytes) = oblivious_log
        .iter()
        .filter(|r| r.tenant < 2 && r.latency.total() > deadline)
        .map(|r| (r.latency.board_secs(), r.host_bytes + r.switch_bytes))
        .fold((0.0_f64, 0_u64), |(s, b), (ds, db)| (s + ds, b + db));
    assert!(
        oblivious_dead_secs > 10.0,
        "the oblivious run must burn real board time on dead victim \
         requests, got {oblivious_dead_secs}"
    );
    assert!(
        enforced.wasted_secs < oblivious_dead_secs,
        "enforcement must write off less board time than oblivious \
         serving burned: {} vs {}",
        enforced.wasted_secs,
        oblivious_dead_secs
    );
    assert!(
        enforced.wasted_work_bytes <= oblivious_dead_bytes,
        "enforcement must move no more dead bytes than oblivious serving: \
         {} vs {}",
        enforced.wasted_work_bytes,
        oblivious_dead_bytes
    );

    // Determinism through the deadline + hedge event plumbing.
    let again = simulate(tenants(true), config(HedgeKind::latency()));
    assert_eq!(again.trace_digest, enforced.trace_digest);
    assert_eq!(again, enforced);
}

/// The hedged-dispatch headline at test scale: under `TenantAffine`
/// placement a hot tenant's requests wait for their busy home board —
/// which a co-homed tenant with a *different* bitstream keeps stalling
/// with ICAP reconfigurations — while the second board sits nearly idle.
/// Once a request's wait outruns the tenant's predicted p99, hedged
/// dispatch races a second leg on that idle board (host ingest onto its
/// current bitstream, no reconfiguration) and keeps the faster leg: the
/// hot tenant's tail improves, the loser legs land in the waste ledger,
/// and not one request is lost or double-served.
#[test]
fn hedged_dispatch_cuts_the_tail_of_an_affinity_stalled_tenant() {
    let tenants = || {
        vec![
            TenantSpec::new("hot", Dataset::Movie, 15.0),
            TenantSpec::new("cold", Dataset::StackOverflow, 0.3),
            TenantSpec::new("mixer", Dataset::Arxiv, 1.5),
        ]
    };
    let total = 4_000;
    let mk = |hedge| {
        let cfg = ServeConfig {
            seed: 4_242,
            total_requests: total,
            queue_capacity: 256,
            boards: 2,
            placement: PlacementPolicy::TenantAffine,
            hedge,
            ..ServeConfig::default()
        };
        let mut recorder = FlightRecorder::default();
        let report = TrafficSim::new(tenants(), cfg).run_traced(&mut recorder);
        (report, recorder)
    };
    let (unhedged, _) = mk(HedgeKind::Off);
    let (hedged, recorder) = mk(HedgeKind::Latency { factor: 0.5 });
    assert_eq!(unhedged.completed(), total);
    assert_eq!(hedged.completed(), total, "hedging loses no request");
    assert_eq!(hedged.outcomes().arrival_terminal(), total);
    assert!(
        hedged.hedges() > 100,
        "affinity stalls must trigger real hedging, got {}",
        hedged.hedges()
    );
    // No deadline and no cache: each queue-track cancellation narrated
    // is one hedge race, and each race cancels exactly one loser leg.
    assert_eq!(recorder.dropped_spans(), 0, "default ring holds a 4k run");
    assert_eq!(
        hedged.outcomes().hedge_loser,
        queue_cancellations(&recorder),
        "every hedge cancels exactly one loser leg"
    );
    let unhedged_p99 = unhedged.tenants[0].latency.quantile(0.99);
    let hedged_p99 = hedged.tenants[0].latency.quantile(0.99);
    assert!(
        hedged_p99 < unhedged_p99,
        "the hedged hot-tenant tail must improve: {hedged_p99} vs {unhedged_p99}"
    );
    assert!(
        hedged.wasted_secs > 0.0,
        "loser legs must land in the waste ledger"
    );
    assert_eq!(unhedged.hedges(), 0);
    assert_eq!(unhedged.wasted_secs, 0.0, "no hedging, no waste");
    // Determinism through the hedge event plumbing.
    let (again, _) = mk(HedgeKind::Latency { factor: 0.5 });
    assert_eq!(again.trace_digest, hedged.trace_digest);
    assert_eq!(again, hedged);
}

/// The SLO-gating headline at test scale: on the drift-heavy trace the
/// per-request gain threshold keeps reprogramming the fabric as the
/// dominant tenant rotates, but every tenant is comfortably inside a 1 s
/// p99 budget — so the SLO-aware scheduler stops paying those stalls and
/// the tail *improves* (the stalls were the tail).
#[test]
fn slo_gate_cuts_reconfigs_at_a_no_worse_tail() {
    // Built on the `slo_aware()` preset (SLO gate over the pipelined
    // reconfig-aware deployment); the ungated comparator swaps only the
    // scheduler, so the preset's composition itself is what is pinned.
    let config = |scheduler| ServeConfig {
        seed: 7,
        total_requests: 10_000,
        queue_capacity: 512,
        scheduler,
        ..ServeConfig::slo_aware()
    };
    let ungated = simulate(drift_heavy_tenants(), config(SchedKind::Fifo));
    let gated = simulate(drift_heavy_tenants(), config(SchedKind::SloAware));
    assert!(
        ungated.reconfigs > 100,
        "the drift trace must thrash the ICAP for the gate to matter, saw {}",
        ungated.reconfigs
    );
    assert!(
        gated.reconfigs < ungated.reconfigs / 10,
        "the SLO gate must eliminate most reconfigurations: {} vs {}",
        gated.reconfigs,
        ungated.reconfigs
    );
    let ungated_p99 = ungated.overall_latency().quantile(0.99);
    let gated_p99 = gated.overall_latency().quantile(0.99);
    assert!(
        gated_p99 <= ungated_p99,
        "a no-worse tail is the gate's contract: {gated_p99} vs {ungated_p99}"
    );
    assert_eq!(
        gated.completed() + gated.dropped(),
        ungated.completed() + ungated.dropped(),
        "both face the same offered load"
    );
    // Determinism of the SLO-aware event model.
    let again = simulate(drift_heavy_tenants(), config(SchedKind::SloAware));
    assert_eq!(again.trace_digest, gated.trace_digest);
    assert_eq!(again, gated);
}

/// The tentpole headline at test scale: on a memory-pressured pool
/// ([`TenantSpec::taobao_regions`] — graphs outgrow the board DRAM budget,
/// so LRU eviction forces recurring ~128 ms cold re-uploads) the pipelined
/// scheduler hides that ingest behind compute and wins on tail latency
/// without changing the offered load.
#[test]
fn pipelined_mode_beats_serial_under_memory_pressure() {
    let mk = |overlap| {
        let cfg = ServeConfig {
            seed: 7,
            total_requests: 6_000,
            queue_capacity: 512,
            boards: 4,
            overlap,
            ..ServeConfig::reconfig_aware()
        };
        simulate(TenantSpec::taobao_regions(4.0, 900.0), cfg)
    };
    let serial = mk(false);
    let pipelined = mk(true);
    assert_eq!(serial.completed() + serial.dropped(), 6_000);
    assert_eq!(pipelined.completed() + pipelined.dropped(), 6_000);
    assert!(
        serial.evictions() > 100,
        "the working set must thrash DRAM for this trace to mean anything, saw {}",
        serial.evictions()
    );
    assert_eq!(serial.overlap_secs, 0.0);
    assert!(
        pipelined.pipeline_overlap_ratio() > 0.2,
        "a meaningful share of DMA time must hide under compute, got {}",
        pipelined.pipeline_overlap_ratio()
    );
    let serial_p99 = serial.overall_latency().quantile(0.99);
    let pipelined_p99 = pipelined.overall_latency().quantile(0.99);
    assert!(
        pipelined_p99 < serial_p99,
        "pipelining must cut the tail: {pipelined_p99} vs {serial_p99}"
    );
    assert!(pipelined.completed() >= serial.completed());
    // Determinism of the pipelined event model.
    let again = mk(true);
    assert_eq!(again.trace_digest, pipelined.trace_digest);
    assert_eq!(again, pipelined);
}

/// The rehydration headline at test scale: on the memory-pressured trace
/// ([`TenantSpec::taobao_regions`], graphs outgrow board DRAM, LRU
/// eviction forces recurring cold re-uploads), letting evicted tenants
/// pull their graph from a peer board over the PCIe switch instead of the
/// host link must slash host re-upload traffic — the ≥ 40 % acceptance
/// bar, with a wide margin — without hurting the tail.
#[test]
fn rehydration_cuts_host_reuploads_under_memory_pressure() {
    // The CI smoke seed: the gated `migration_drift` scenario replays
    // exactly this comparison's migration side.
    let mk = |migrate| {
        let cfg = ServeConfig {
            seed: 4_242,
            total_requests: 6_000,
            queue_capacity: 512,
            boards: 4,
            migrate,
            ..ServeConfig::pipelined()
        };
        simulate(TenantSpec::taobao_regions(4.0, 900.0), cfg)
    };
    let off = mk(MigratePolicy::Off);
    let rehydrated = mk(MigratePolicy::PeerRehydrate);
    assert_eq!(off.completed() + off.dropped(), 6_000);
    assert_eq!(rehydrated.completed() + rehydrated.dropped(), 6_000);
    assert_eq!(off.migrations(), 0, "Off never consults peers");
    assert_eq!(off.switch_bytes(), 0);
    assert!(
        off.evictions() > 100,
        "the trace must thrash DRAM, saw {} evictions",
        off.evictions()
    );
    assert!(
        rehydrated.migrations() > 100,
        "evicted tenants must rehydrate from peers, saw {}",
        rehydrated.migrations()
    );
    assert!(
        rehydrated.switch_bytes() > 0,
        "rehydration must move bytes over the switch"
    );
    let (host_off, host_mig) = (off.host_upload_bytes(), rehydrated.host_upload_bytes());
    assert!(
        (host_mig as f64) < host_off as f64 * 0.6,
        "migration must cut host re-upload bytes by at least 40 %: {host_mig} vs {host_off}"
    );
    let off_p99 = off.overall_latency().quantile(0.99);
    let mig_p99 = rehydrated.overall_latency().quantile(0.99);
    assert!(
        mig_p99 < off_p99,
        "switch-bandwidth rehydration must also cut the tail here: {mig_p99} vs {off_p99}"
    );
    // Determinism of the migration event model.
    let again = mk(MigratePolicy::PeerRehydrate);
    assert_eq!(again.trace_digest, rehydrated.trace_digest);
    assert_eq!(again, rehydrated);
}

/// The splitting headline at test scale: under `TenantAffine` placement
/// the pressured trace piles each region's diurnal peak onto its home
/// board while other boards idle; `SplitHot` spills the backlog onto an
/// idle board (migrating the graph in over the switch) once the queue
/// outgrows its threshold.
#[test]
fn split_hot_beats_waiting_for_a_busy_home_board() {
    let mk = |migrate| {
        let cfg = ServeConfig {
            seed: 7,
            total_requests: 6_000,
            queue_capacity: 512,
            boards: 4,
            placement: PlacementPolicy::TenantAffine,
            migrate,
            ..ServeConfig::pipelined()
        };
        simulate(TenantSpec::taobao_regions(4.0, 900.0), cfg)
    };
    let off = mk(MigratePolicy::Off);
    let split = mk(MigratePolicy::SplitHot);
    let off_p99 = off.overall_latency().quantile(0.99);
    let split_p99 = split.overall_latency().quantile(0.99);
    assert!(
        split_p99 < off_p99 / 2.0,
        "splitting a hot tenant must slash the waiting tail: {split_p99} vs {off_p99}"
    );
    assert!(
        split.dropped() < off.dropped(),
        "relieved queues must drop less: {} vs {}",
        split.dropped(),
        off.dropped()
    );
    assert!(
        split.migrations() > 0,
        "splits must actually migrate graphs"
    );
    assert!(split.completed() > off.completed());
}

/// The ISSUE's skewed-load comparison: one hot tenant under
/// `BitstreamAffine` placement waits for the single busy board holding
/// its bitstream (the PR 2 restraint that usually pays); `SplitHot` must
/// beat that wait-for-busy-board behavior once the backlog builds.
#[test]
fn split_hot_beats_bitstream_affine_waiting_under_skewed_load() {
    let mk = |migrate| {
        let cfg = ServeConfig {
            seed: 7,
            total_requests: 10_000,
            queue_capacity: 512,
            boards: 4,
            placement: PlacementPolicy::BitstreamAffine,
            migrate,
            ..ServeConfig::pipelined()
        };
        simulate(TenantSpec::skewed_hotspot(12.0, 900.0), cfg)
    };
    let wait = mk(MigratePolicy::Off);
    let split = mk(MigratePolicy::SplitHot);
    let wait_p99 = wait.overall_latency().quantile(0.99);
    let split_p99 = split.overall_latency().quantile(0.99);
    assert!(
        split_p99 < wait_p99 / 2.0,
        "splitting must beat wait-for-busy-board: {split_p99} vs {wait_p99}"
    );
    assert!(
        split.throughput_rps() >= wait.throughput_rps(),
        "borrowed boards cannot lose throughput: {} vs {}",
        split.throughput_rps(),
        wait.throughput_rps()
    );
    assert!(split.dropped() <= wait.dropped());
    assert!(
        split.migrations() > 0,
        "the hot graph must migrate onto borrowed boards"
    );
    assert!(
        split.reconfigs >= wait.reconfigs,
        "splitting pays reconfigurations as its price — that is the trade"
    );
}

/// With a single board there is no peer to pull from, so every migration
/// policy must degenerate to the host-only schedule bit-for-bit.
#[test]
fn migration_without_peers_is_the_host_schedule_bit_for_bit() {
    let mk = |migrate| {
        let cfg = ServeConfig {
            seed: 11,
            total_requests: 3_000,
            queue_capacity: 512,
            boards: 1,
            migrate,
            ..ServeConfig::pipelined()
        };
        simulate(TenantSpec::taobao_regions(4.0, 900.0), cfg)
    };
    let off = mk(MigratePolicy::Off);
    let rehydrated = mk(MigratePolicy::PeerRehydrate);
    assert_eq!(off.trace_digest, rehydrated.trace_digest);
    assert_eq!(off, rehydrated);
    assert_eq!(rehydrated.migrations(), 0);
}

#[test]
fn serving_prices_match_the_runtime_models() {
    // One light-load tenant: per-request latency must be dominated by the
    // same analytic stage seconds the runtime would report, not by queueing.
    let tenants = vec![TenantSpec::new("solo", Dataset::Physics, 0.2)];
    let report = simulate(
        tenants,
        ServeConfig {
            seed: 1,
            total_requests: 50,
            ..ServeConfig::default()
        },
    );
    assert_eq!(report.completed(), 50);
    let stats = &report.tenants[0];
    // Board time accumulated but light load means no queueing backlog:
    // latency p50 stays close to the mean service time.
    assert!(stats.board_secs > 0.0);
    let mean_service = stats.board_secs / stats.completed() as f64;
    let p50 = stats.latency.quantile(0.5);
    assert!(
        p50 < mean_service * 10.0,
        "p50 {p50} should be near service time {mean_service}"
    );
}

/// The cache headline at test scale: on the duplicate-heavy
/// [`TenantSpec::replay_heavy`] trace (static citation graphs, every
/// request of a tenant workload-identical) the result cache serves the
/// replays out of its entries — high hit-rate, a large cut in p99 and in
/// board recompute-seconds — while `CacheKind::Off` pays full price for
/// every duplicate. The cache never invents or loses work: completions
/// plus drops still equal the offered load, and every completion is
/// classified exactly once.
#[test]
fn result_cache_cuts_p99_and_recompute_on_the_replay_heavy_trace() {
    let total = 6_000;
    let mk = |cache| {
        let cfg = ServeConfig {
            seed: 21,
            total_requests: total,
            queue_capacity: 256,
            cache,
            ..ServeConfig::reconfig_aware()
        };
        simulate(TenantSpec::replay_heavy(3.0), cfg)
    };
    let off = mk(CacheKind::Off);
    let cached = mk(CacheKind::delta());
    assert_eq!(off.completed() + off.dropped(), total);
    assert_eq!(cached.completed() + cached.dropped(), total);
    assert_eq!(
        cached.cache.hits
            + cached.cache.partial_hits
            + cached.cache.misses
            + cached.cache.coalesced,
        cached.completed(),
        "every completion is classified exactly once"
    );
    assert!(
        cached.cache.hit_rate() > 0.5,
        "static replays must mostly hit: rate {}",
        cached.cache.hit_rate()
    );
    assert!(
        cached.cache.recompute_secs_saved > 0.0,
        "hits must bank the recompute they skipped"
    );
    let off_p99 = off.overall_latency().quantile(0.99);
    let cached_p99 = cached.overall_latency().quantile(0.99);
    assert!(
        cached_p99 < off_p99 * 0.7,
        "the cache must cut p99 by at least 30 % here: {cached_p99} vs {off_p99}"
    );
    // Determinism through the cache event plumbing.
    let again = mk(CacheKind::delta());
    assert_eq!(again.trace_digest, cached.trace_digest);
    assert_eq!(again, cached);
}

/// Invalidation does its job on the drift-heavy migration shape: the
/// Taobao regions all grow at the Table II daily rate, so with
/// per-request-scale drift buckets and a tight delta budget every bucket
/// transition burns the accumulated delta past the entry's allowance —
/// the hit-rate collapses toward zero and the invalidation counter
/// records the churn. No stale entry survives to be served (the
/// no-stale proptest bounds the fraction; this pins the direction the
/// headline claims).
#[test]
fn drift_drives_the_hit_rate_toward_zero() {
    let report = simulate(
        TenantSpec::taobao_regions(4.0, 900.0),
        ServeConfig {
            seed: 21,
            total_requests: 4_000,
            queue_capacity: 256,
            // Buckets advance faster than any tenant re-offers a request,
            // and the budget is below one bucket's delta bytes, so nearly
            // every lookup sees a graph drifted past its entry's budget.
            drift_step_secs: 0.25,
            cache: CacheKind::Delta {
                max_delta_frac: 1e-9,
            },
            overlap: true,
            ..ServeConfig::reconfig_aware()
        },
    );
    assert!(
        report.cache.hit_rate() < 0.05,
        "a tight budget under drift must kill nearly every entry: rate {}",
        report.cache.hit_rate()
    );
    assert!(
        report.cache.invalidations > 0,
        "the churn must be visible as invalidations"
    );
}

/// Hit-under-miss coalescing preserves the served-request multiset even
/// when the admission queue is drop-tight: a parked duplicate completes
/// off its primary's `ServiceDone` without ever occupying a queue slot,
/// so coalesced + completed + dropped still accounts for every arrival,
/// per tenant, and the coalesced waiters' latencies land in the same
/// histograms as everyone else's.
#[test]
fn coalescing_preserves_the_served_multiset_under_drops() {
    let total = 3_000;
    let report = simulate(
        TenantSpec::taobao_regions(4.0, 900.0),
        ServeConfig {
            seed: 33,
            total_requests: total,
            // Tight queue + per-request-scale drift buckets: every bucket
            // spawns a fresh primary (Exact entries die on the next
            // bucket) so the 4-deep queue overflows, while same-bucket
            // duplicates keep parking on their in-flight primary.
            queue_capacity: 4,
            drift_step_secs: 0.5,
            cache: CacheKind::Exact,
            ..ServeConfig::default()
        },
    );
    assert_eq!(
        report.completed() + report.dropped(),
        total,
        "arrivals partition into completions and drops"
    );
    for t in &report.tenants {
        assert_eq!(
            t.completed() + t.dropped(),
            t.cache_hits + t.cache_partial_hits + t.cache_misses + t.cache_coalesced + t.dropped(),
            "per-tenant: every non-dropped arrival is classified once"
        );
        assert_eq!(
            t.latency.count(),
            t.completed(),
            "every completion (waiters included) lands in the histogram"
        );
    }
    assert!(
        report.cache.coalesced > 0,
        "the replay trace must actually coalesce duplicates"
    );
    assert!(
        report.dropped() > 0,
        "the 4-deep queue must drop under this load"
    );
}
