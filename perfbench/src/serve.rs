//! The serving-simulator workload: repeated `TrafficSim::run` replays of
//! one seeded deployment.
//!
//! The untraced run times each replay and checks its outcome partition
//! and trace digest. The traced run times a replay, a `run_traced` with a
//! counting sink, and component replays of the simulator's layers
//! (arrivals, event queue, scheduler, pool pricing, configuration
//! choice) on the workload's own generated inputs; each layer's share of
//! the replay is its time per call times a call count derived from the
//! report, and the remainder is the event loop's residual.

use std::hint::black_box;
use std::time::Instant;

use agnn_cost::{BitstreamLibrary, CostModel, ReconfigPolicy, Workload};
use agnn_hw::floorplan::Floorplan;
use agnn_hw::HwConfig;
use agnn_serve::sched::Request;
use agnn_serve::trace::{CounterSample, Span, TraceSink};
use agnn_serve::{
    ArrivalSource, BoardPool, EventQueue, SchedPolicy, ServeConfig, TenantSpec, TrafficReport,
    TrafficSim,
};

use crate::ledger::Ledger;
use crate::report::{peak_rss_mb, Checks, Metrics};
use crate::stats::{median, percentile, samples_beyond, Reconciliation};

/// One serving workload: a tenant mix and a deployment.
#[derive(Debug, Clone, Copy)]
pub struct Deployment {
    /// Workload name.
    pub name: &'static str,
    /// Simulated requests per replay.
    pub requests: u64,
    /// The tenant mix.
    pub tenants: fn() -> Vec<TenantSpec>,
    /// The deployment under a seed and request count.
    pub config: fn(u64, u64) -> ServeConfig,
}

/// The million-request replay: six Taobao regions on four pipelined
/// boards with peer rehydration, FIFO reconfig-aware, cache off.
pub const REPLAY: Deployment = Deployment {
    name: "serve_replay",
    requests: 1_000_000,
    tenants: agnn_bench::million::tenants,
    config: agnn_bench::million::config,
};

/// One set-up takes microseconds, so set-ups are timed in blocks of
/// `SETUP_BLOCK`, one block before the first replay and one after each
/// replay; the median over blocks of the time per set-up is reported.
const SETUP_BLOCK: usize = 200;

/// Most calls one component replay makes; larger counts are scaled from
/// the per-call time.
const REPLAY_CALLS: usize = 200_000;

fn build(d: &Deployment, seed: u64) -> TrafficSim {
    TrafficSim::new((d.tenants)(), (d.config)(seed, d.requests))
}

/// Checks a replay's outcome partition and its digest against the first
/// replay's.
fn check_report(d: &Deployment, report: &TrafficReport, digest: u64, checks: &mut Checks) {
    let o = report.outcomes();
    checks.check(
        o.served + o.served_late + o.expired_in_queue + o.aborted + o.dropped_at_admission
            == d.requests,
        &format!("{}: outcome partition sums to the arrivals", d.name),
    );
    checks.check(
        report.trace_digest == digest,
        &format!("{}: trace digest repeats across replays", d.name),
    );
}

/// The simulated statistics a simulator-speed change must leave as
/// they are.
fn print_fingerprint(d: &Deployment, report: &TrafficReport) {
    let latency = report.overall_latency();
    let s = &report.stall;
    println!(
        "fingerprint {} (modelled by the simulator, not validated by this benchmark): \
         requests={} p50_s={:.9e} p99_s={:.9e} stall_s{{queue={:.6e},reconfig={:.6e},dma={:.6e},\
         fabric={:.6e},handoff={:.6e},cache={:.6e}}} trace_digest={:#018x}",
        d.name,
        d.requests,
        latency.quantile(0.5),
        latency.quantile(0.99),
        s.queue_secs,
        s.reconfig_secs,
        s.dma_secs,
        s.fabric_secs,
        s.handoff_secs,
        s.cache_secs,
        report.trace_digest,
    );
}

/// Untraced run: end-to-end metrics of repeated replays.
pub fn run_untraced(d: &Deployment, seed: u64, seconds: f64, checks: &mut Checks) -> Metrics {
    let setup_block = || {
        let start = Instant::now();
        for _ in 0..SETUP_BLOCK {
            black_box(build(d, seed));
        }
        start.elapsed().as_secs_f64() / SETUP_BLOCK as f64
    };
    let mut setup = vec![setup_block()];
    let mut sim = build(d, seed);
    let first = sim.run();
    check_report(d, &first, first.trace_digest, checks);
    print_fingerprint(d, &first);

    let mut secs = Vec::new();
    let loop_start = Instant::now();
    while secs.is_empty() || loop_start.elapsed().as_secs_f64() < seconds {
        let start = Instant::now();
        let report = sim.run();
        secs.push(start.elapsed().as_secs_f64());
        check_report(d, &report, first.trace_digest, checks);
        setup.push(setup_block());
    }
    println!(
        "{}: {} replays of {} simulated requests ({} beyond p90)",
        d.name,
        secs.len(),
        d.requests,
        samples_beyond(secs.len(), 90.0)
    );
    Metrics::from([
        ("request_ms_p50", median(&secs) * 1e3),
        ("request_ms_p90", percentile(&secs, 90.0) * 1e3),
        (
            "requests_per_s",
            (d.requests * secs.len() as u64) as f64 / secs.iter().sum::<f64>(),
        ),
        ("setup_s", median(&setup)),
        ("peak_rss_mb", peak_rss_mb()),
    ])
}

/// A sink that only counts the spans the event loop narrates.
#[derive(Debug, Default)]
struct CountingSink {
    spans: u64,
}

impl TraceSink for CountingSink {
    fn span(&mut self, _span: Span) {
        self.spans += 1;
    }

    fn counter(&mut self, _sample: CounterSample) {}
}

/// The workload's own generated inputs for the component replays: the
/// first arrivals in simulated-time order.
struct Inputs {
    tenants: Vec<TenantSpec>,
    config: ServeConfig,
    /// `(tenant, arrival time)` in time order.
    arrivals: Vec<(usize, f64)>,
    /// Each arrival's cost-model workload at its drift bucket.
    workloads: Vec<Workload>,
}

impl Inputs {
    fn new(d: &Deployment, seed: u64, calls: usize) -> Self {
        let tenants = (d.tenants)();
        let config = (d.config)(seed, d.requests);
        let mut source = ArrivalSource::new(&tenants, seed);
        let arrivals: Vec<(usize, f64)> = (0..calls)
            .map(|_| {
                let tenant = (0..tenants.len())
                    .min_by(|&a, &b| source.peek(a).total_cmp(&source.peek(b)))
                    .expect("at least one tenant");
                (tenant, source.next(tenant))
            })
            .collect();
        let workloads = arrivals
            .iter()
            .map(|&(t, at)| tenants[t].workload_at(at, config.drift_step_secs))
            .collect();
        Inputs {
            tenants,
            config,
            arrivals,
            workloads,
        }
    }

    /// Calendar-queue bucket width, sized as the simulator sizes it.
    fn queue_width(&self) -> f64 {
        let peak: f64 = self.tenants.iter().map(|t| t.arrival.peak_rate()).sum();
        (1.0 / (4.0 * peak)).clamp(1e-6, 1.0)
    }
}

/// Seconds per call of `calls` calls of `work`, inside span `name`.
fn per_call(
    ledger: &mut Ledger,
    name: &'static str,
    cycle: u64,
    calls: usize,
    work: impl FnOnce(),
) -> f64 {
    let span = ledger.open(name, cycle);
    work();
    ledger.close(span);
    let secs = ledger.spans()[span].duration_ns() as f64 * 1e-9;
    secs / calls.max(1) as f64
}

/// Per-call seconds of each component replay, in reconciliation order.
fn replay_components(ledger: &mut Ledger, cycle: u64, inputs: &Inputs, depth: usize) -> [f64; 6] {
    let root = ledger.open("replay", cycle);
    let calls = inputs.arrivals.len();
    let tenants = &inputs.tenants;
    let cfg = inputs.config;

    let arrivals = per_call(ledger, "serve.arrivals", cycle, calls, || {
        let mut source = ArrivalSource::new(tenants, cfg.seed);
        let mut sum = 0.0;
        for &(tenant, _) in &inputs.arrivals {
            sum += source.next(tenant);
        }
        black_box(sum);
    });

    // Hold model: a queue of pending events, each op a pop plus a push.
    let held = (tenants.len() + 2 * cfg.boards).min(calls);
    let queue = per_call(ledger, "serve.queue", cycle, calls - held, || {
        let mut queue = EventQueue::with_width(inputs.queue_width());
        for (i, &(_, at)) in inputs.arrivals[..held].iter().enumerate() {
            queue.push(at, i);
        }
        for (i, &(_, at)) in inputs.arrivals.iter().enumerate().skip(held) {
            black_box(queue.pop());
            queue.push(at, i);
        }
        black_box(queue.len());
    });

    // Admit every arrival and dispatch the scheduler's pick whenever the
    // queue exceeds the run's mean depth.
    let sched = per_call(ledger, "serve.sched", cycle, calls, || {
        let mut sched = cfg.scheduler.instantiate(tenants, cfg.queue_capacity);
        for &(tenant, at) in &inputs.arrivals {
            sched.admit(Request {
                tenant,
                arrival_secs: at,
            });
            while sched.len() > depth {
                black_box(sched.scan().len());
                black_box(sched.take(0));
            }
        }
    });

    let mut pool = BoardPool::new(
        cfg.boards,
        tenants[0].params,
        ReconfigPolicy {
            min_gain: cfg.min_gain,
        },
        tenants.len(),
    );
    let price = per_call(ledger, "serve.pool.price", cycle, calls, || {
        for (i, w) in inputs.workloads.iter().enumerate() {
            black_box(pool.stage_secs(i % cfg.boards, w));
        }
    });

    // Alternate one board between the library's two extreme bitstreams.
    let library = BitstreamLibrary::for_floorplan(&Floorplan::vpk180());
    let (upe, scr) = (library.upe_variants(), library.scr_variants());
    let configs = [
        HwConfig {
            upe: upe[0],
            scr: scr[0],
        },
        HwConfig {
            upe: upe[upe.len() - 1],
            scr: scr[scr.len() - 1],
        },
    ];
    let reconfigure = per_call(ledger, "serve.pool.reconfigure", cycle, calls, || {
        for i in 0..calls {
            black_box(pool.apply_reconfigure(0, configs[i % 2]));
        }
    });

    let choose = per_call(ledger, "cost.choose_config", cycle, calls, || {
        for w in &inputs.workloads {
            black_box(CostModel.choose_config(w, &library));
        }
    });
    ledger.close(root);
    [arrivals, queue, sched, price, reconfigure, choose]
}

/// Traced run: the replay's wall time split into component shares, the
/// tracing overhead of `run_traced`, and the report's exact counts.
pub fn run_traced(
    d: &Deployment,
    seed: u64,
    seconds: f64,
    checks: &mut Checks,
    ledger: &mut Ledger,
) -> Metrics {
    let setup = ledger.open("setup", 0);
    let mut sim = ledger.time("serve.new", 0, || build(d, seed));
    ledger.close(setup);
    let first = sim.run();
    check_report(d, &first, first.trace_digest, checks);
    print_fingerprint(d, &first);
    let calls = (d.requests as usize).min(REPLAY_CALLS);
    let inputs = Inputs::new(d, seed, calls);
    let depth = (first.queue_depth.mean_depth(first.duration_secs).round() as usize).max(1);

    let mut run_secs = Vec::new();
    let mut traced_secs = Vec::new();
    let mut components: [Vec<f64>; 6] = Default::default();
    let mut sink = CountingSink::default();
    let loop_start = Instant::now();
    let mut cycle = 0u64;
    while run_secs.is_empty() || loop_start.elapsed().as_secs_f64() < seconds {
        let span = ledger.open("serve.run", cycle);
        let report = sim.run();
        ledger.close(span);
        run_secs.push(ledger.spans()[span].duration_ns() as f64 * 1e-9);
        check_report(d, &report, first.trace_digest, checks);

        sink = CountingSink::default();
        let span = ledger.open("serve.run_traced", cycle);
        let traced = sim.run_traced(&mut sink);
        ledger.close(span);
        traced_secs.push(ledger.spans()[span].duration_ns() as f64 * 1e-9);
        check_report(d, &traced, first.trace_digest, checks);

        for (samples, secs) in components
            .iter_mut()
            .zip(replay_components(ledger, cycle, &inputs, depth))
        {
            samples.push(secs);
        }
        cycle += 1;
    }

    let arrivals = d.requests as f64;
    let events = first.sim.events as f64;
    let reconfigs = first.reconfigs as f64;
    // The simulator memoizes configuration choice per tenant drift
    // bucket, so each tenant pays one call per bucket its requests span.
    // Fabric pricing is memoized per (bucket, board configuration), so
    // the bucket count is a lower bound on its calls and the pricing
    // share is a lower bound too.
    let buckets: f64 = inputs
        .tenants
        .iter()
        .map(|t| (t.drift_bucket(first.duration_secs, inputs.config.drift_step_secs) + 1) as f64)
        .sum();
    let per_call: Vec<f64> = components.iter().map(|c| median(c)).collect();
    let shares = [
        ("serve.arrivals", per_call[0] * arrivals),
        ("serve.queue", per_call[1] * events),
        ("serve.sched", per_call[2] * arrivals),
        ("serve.pool.price", per_call[3] * buckets),
        ("serve.pool.reconfigure", per_call[4] * reconfigs),
        ("cost.choose_config", per_call[5] * buckets),
    ];
    let run_s = median(&run_secs);
    let estimate = Reconciliation::new(
        run_s,
        shares.iter().map(|&(n, v)| (n.to_string(), v)).collect(),
    );
    for line in estimate.table(
        &format!(
            "{} replay (estimated shares, {} cycles)",
            d.name,
            run_secs.len()
        ),
        1e3,
        "ms",
    ) {
        println!("{line}");
    }

    let cache = first.cache;
    let setup = ledger.layer_secs("setup");
    Metrics::from([
        ("serve.new_us", setup["serve.new"] * 1e6),
        ("serve.run_s", run_s),
        ("serve.engine.events", events),
        ("serve.engine.ns_per_event", run_s / events * 1e9),
        ("serve.arrivals.ns_per_call", per_call[0] * 1e9),
        ("serve.arrivals.share_s", shares[0].1),
        ("serve.queue.ns_per_op", per_call[1] * 1e9),
        ("serve.queue.share_s", shares[1].1),
        ("serve.sched.ns_per_op", per_call[2] * 1e9),
        ("serve.sched.share_s", shares[2].1),
        ("serve.pool.price_ns_per_call", per_call[3] * 1e9),
        ("serve.pool.price_share_s", shares[3].1),
        ("serve.pool.reconfig_ns_per_call", per_call[4] * 1e9),
        ("serve.pool.reconfig_share_s", shares[4].1),
        ("cost.choose_config_us", per_call[5] * 1e6),
        ("cost.choose_config_share_s", shares[5].1),
        ("serve.tenant_drift_buckets", buckets),
        ("serve.loop.residual_s", estimate.residual),
        ("serve.trace.overhead_s", median(&traced_secs) - run_s),
        ("serve.trace.spans", sink.spans as f64),
        ("serve.arrivals", arrivals),
        ("serve.completed", first.completed() as f64),
        ("serve.dropped", first.dropped() as f64),
        ("serve.expired_in_queue", first.expired_in_queue() as f64),
        ("serve.aborted", first.aborted() as f64),
        ("serve.hedges", first.hedges() as f64),
        ("serve.reconfigs", reconfigs),
        ("serve.migrations", first.migrations() as f64),
        ("serve.evictions", first.evictions() as f64),
        ("serve.host_bytes", first.host_upload_bytes() as f64),
        ("serve.switch_bytes", first.switch_bytes() as f64),
        (
            "serve.cache_lookups",
            (cache.hits + cache.partial_hits + cache.misses) as f64,
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(d: Deployment) -> Deployment {
        Deployment {
            requests: 3_000,
            ..d
        }
    }

    #[test]
    fn tiny_untraced_passes_every_check() {
        let mut checks = Checks::default();
        let m = run_untraced(&tiny(REPLAY), 1, 0.02, &mut checks);
        assert_eq!(checks.failed, 0);
        assert!(checks.attempted >= 4);
        for (name, _) in crate::report::END_TO_END {
            assert!(m[name] > 0.0, "{name} is {}", m[name]);
        }
    }

    #[test]
    fn tiny_traced_shares_reconcile() {
        let mut checks = Checks::default();
        let mut ledger = Ledger::new();
        let m = run_traced(&tiny(REPLAY), 2, 0.02, &mut checks, &mut ledger);
        assert_eq!(checks.failed, 0);
        let shares: f64 = [
            "serve.arrivals.share_s",
            "serve.queue.share_s",
            "serve.sched.share_s",
            "serve.pool.price_share_s",
            "serve.pool.reconfig_share_s",
            "cost.choose_config_share_s",
        ]
        .iter()
        .map(|n| m[n])
        .sum();
        assert!((shares + m["serve.loop.residual_s"] - m["serve.run_s"]).abs() < 1e-9);
        assert_eq!(m["serve.arrivals"], 3_000.0);
        assert!(m["serve.engine.events"] > 0.0 && m["serve.trace.spans"] > 0.0);
        assert_eq!(m["serve.cache_lookups"], 0.0);
    }

    #[test]
    fn component_inputs_follow_simulated_time() {
        let inputs = Inputs::new(&tiny(REPLAY), 9, 500);
        assert_eq!(inputs.arrivals.len(), 500);
        assert!(inputs.arrivals.windows(2).all(|w| w[0].1 <= w[1].1));
        let again = Inputs::new(&tiny(REPLAY), 9, 500);
        assert_eq!(inputs.arrivals, again.arrivals);
    }
}
