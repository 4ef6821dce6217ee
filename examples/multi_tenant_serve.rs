//! Multi-tenant serving under production-style load: four applications —
//! a movie recommender, a feed ranker, a fraud screen and a citation
//! explorer — share simulated VPK180s through the AutoGNN runtime.
//! Offset diurnal peaks make the dominant tenant (and therefore the
//! cost-model-optimal bitstream) drift through the day, which is exactly
//! the regime where §V-B's reconfiguration decision helps or hurts: the
//! FIFO scheduler pays an ICAP stall almost every time the mix shifts,
//! while the reconfig-aware scheduler serves same-bitstream requests
//! together and amortizes it.
//!
//! The second half shards the same trace across a **board pool**: four
//! boards behind one admission queue, with `BitstreamAffine` placement
//! routing each request to a board already holding its optimal bitstream.
//! That turns almost every reconfiguration into a routing decision and
//! beats the single board on the tail.
//!
//! The third act pipelines the request lifecycle itself (`overlap`): on a
//! memory-pressured pool — six Taobao-scale e-commerce regions whose
//! 3.2 GB graphs outgrow each board's DRAM, so LRU eviction forces
//! recurring cold re-uploads — the staged scheduler ingests the next
//! request's graph (double-buffered) and streams finished subgraphs out
//! while the fabric preprocesses, taking upload time off the dispatch
//! critical path.
//!
//! The fourth act migrates graphs **between boards** over the PCIe
//! switch: a DRAM-evicted tenant rehydrates from a peer board still
//! holding its graph instead of re-crossing the host link (slashing host
//! upload traffic), and a hot tenant whose home board's queue outgrows a
//! threshold proactively splits onto an idle board instead of waiting
//! (slashing the tail).
//!
//! The fifth act turns on the **result cache**: on a duplicate-heavy
//! dashboard trace (three tenants replaying the identical query against
//! static citation graphs) a fresh, board-resident entry serves repeats
//! at lookup cost, duplicates of an in-flight request coalesce onto it,
//! and delta-driven invalidation keeps drifting graphs honest — the
//! cache-stats table prints hit-rate, coalesced count and the
//! recompute-seconds the pool never had to spend.
//!
//! The finale swaps the **scheduler**: on a bursty-aggressor trace (two
//! steady interactive victims plus one tenant whose bursts offer several
//! times the pool's capacity) the shared FIFO queue lets the aggressor
//! starve everyone, weighted fair queueing (per-tenant quotas + deficit
//! round robin) holds the victims near their isolated latency, and the
//! SLO-aware gate stops paying reconfigurations nobody's tail needs.
//!
//! ```text
//! cargo run --release --example multi_tenant_serve
//! # just the scheduler fairness act, one policy:
//! cargo run --release --example multi_tenant_serve -- --scheduler wfq
//! # just the result-cache act, one cache mode vs off:
//! cargo run --release --example multi_tenant_serve -- --cache delta
//! # same, plus a Perfetto / chrome://tracing dump of the run
//! # (load the file at https://ui.perfetto.dev):
//! cargo run --release --example multi_tenant_serve -- \
//!     --scheduler wfq --trace-out wfq_trace.json
//! ```
//!
//! `--trace-out` without `--scheduler` traces the weighted-fair run.
//! Every focused run also prints the report's **stall attribution** —
//! the end-to-end latency of all completed requests partitioned into
//! queue-wait / reconfig / DMA / fabric / hand-off / cache — next to the
//! fairness table, so "which stage eats the latency under this
//! scheduler" is readable without opening the trace.

use agnn_graph::datasets::Dataset;
use agnn_serve::pool::{MigratePolicy, PlacementPolicy};
use agnn_serve::sched::SchedKind;
use agnn_serve::sim::{simulate, DispatchPolicy, ServeConfig, TrafficSim};
use agnn_serve::tenant::{ArrivalProcess, TenantSpec};
use agnn_serve::{CacheKind, ChromeTraceWriter, TrafficReport};

/// One simulated "day" of the demo, compressed to keep the replay short.
const PERIOD_SECS: f64 = 900.0;

fn tenants() -> Vec<TenantSpec> {
    let diurnal = |mean_rps: f64, phase_frac: f64| ArrivalProcess::Diurnal {
        mean_rps,
        amplitude: 0.9,
        period_secs: PERIOD_SECS,
        phase_secs: PERIOD_SECS * phase_frac,
    };
    let mut movies = TenantSpec::new("movies", Dataset::Movie, 0.0);
    movies.arrival = diurnal(14.0, 0.00);
    let mut feed = TenantSpec::new("feed", Dataset::StackOverflow, 0.0);
    feed.arrival = diurnal(14.0, 0.50); // peaks opposite the recommender
    let mut fraud = TenantSpec::new("fraud", Dataset::Fraud, 0.0);
    fraud.arrival = diurnal(8.0, 0.25);
    let mut papers = TenantSpec::new("papers", Dataset::Arxiv, 0.0);
    papers.arrival = diurnal(6.0, 0.75);
    vec![movies, feed, fraud, papers]
}

fn p99(r: &TrafficReport) -> f64 {
    r.overall_latency().quantile(0.99)
}

fn p50(r: &TrafficReport) -> f64 {
    r.overall_latency().quantile(0.50)
}

const USAGE: &str = "usage: multi_tenant_serve [--scheduler fifo|wfq|slo] \
                     [--cache off|exact|delta] [--trace-out <file>]";

/// Parsed command line: an optional scheduler restricting the run to the
/// fairness act, an optional cache mode restricting it to the cache act,
/// and an optional Perfetto trace destination.
struct Flags {
    scheduler: Option<SchedKind>,
    cache: Option<CacheKind>,
    trace_out: Option<String>,
}

/// Parses `--scheduler fifo|wfq|slo`, `--cache off|exact|delta` and
/// `--trace-out <file>`. A scheduler (or `--trace-out` alone, which
/// defaults it to weighted-fair) selects the focused fairness act;
/// `--cache` selects the focused result-cache act; no flags play the
/// full demo.
fn parse_flags() -> Flags {
    let mut flags = Flags {
        scheduler: None,
        cache: None,
        trace_out: None,
    };
    let mut args = std::env::args().skip(1);
    let fail = |message: String| -> ! {
        eprintln!("{message}\n{USAGE}");
        std::process::exit(2);
    };
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--scheduler" => match args.next().as_deref() {
                Some("fifo") => flags.scheduler = Some(SchedKind::Fifo),
                Some("wfq") => flags.scheduler = Some(SchedKind::weighted_fair()),
                Some("slo") => flags.scheduler = Some(SchedKind::SloAware),
                other => fail(format!(
                    "--scheduler must be fifo|wfq|slo, got {:?}",
                    other.unwrap_or("<missing>")
                )),
            },
            "--cache" => match args.next().as_deref() {
                Some("off") => flags.cache = Some(CacheKind::Off),
                Some("exact") => flags.cache = Some(CacheKind::Exact),
                Some("delta") => flags.cache = Some(CacheKind::delta()),
                other => fail(format!(
                    "--cache must be off|exact|delta, got {:?}",
                    other.unwrap_or("<missing>")
                )),
            },
            "--trace-out" => match args.next() {
                Some(path) => flags.trace_out = Some(path),
                None => fail("--trace-out requires a file path".to_string()),
            },
            other => fail(format!("unknown flag {other}")),
        }
    }
    flags
}

/// Prints the per-tenant fairness table of one bursty-aggressor run.
fn fairness_table(label: &str, r: &TrafficReport) {
    println!("\n--- bursty aggressor, scheduler = {label} ---");
    println!(
        "{:<14} {:>9} {:>8} {:>8} {:>13} {:>10} {:>9}",
        "tenant", "completed", "dropped", "drop%", "q-wait p99(ms)", "p99(ms)", "slo-viol"
    );
    for t in &r.tenants {
        println!(
            "{:<14} {:>9} {:>8} {:>7.2}% {:>13.1} {:>10.1} {:>9}",
            t.name,
            t.completed(),
            t.dropped(),
            t.drop_rate() * 100.0,
            t.queue_wait.quantile(0.99) * 1e3,
            t.latency.quantile(0.99) * 1e3,
            t.slo_violations,
        );
    }
    println!(
        "reconfigs {} | overall p99 {:.1} ms | {:.1} req/s",
        r.reconfigs,
        r.overall_latency().quantile(0.99) * 1e3,
        r.throughput_rps(),
    );
}

/// Prints the aggregate stall attribution of one run: the end-to-end
/// latency of every completed request, partitioned *exactly* into the
/// six lifecycle components ([`agnn_serve::StallBreakdown`] — the six
/// always sum to the total, which is what makes the percentages
/// trustworthy).
fn stall_table(r: &TrafficReport) {
    let s = &r.stall;
    let total = s.total();
    if total <= 0.0 {
        return;
    }
    println!(
        "stall attribution ({total:.1} request-seconds across {} completed):",
        r.completed()
    );
    for (name, secs) in [
        ("queue-wait", s.queue_secs),
        ("reconfig", s.reconfig_secs),
        ("dma", s.dma_secs),
        ("fabric", s.fabric_secs),
        ("hand-off", s.handoff_secs),
        ("cache", s.cache_secs),
    ] {
        println!(
            "  {name:<10} {secs:>10.1} s  {:>5.1}%",
            secs / total * 100.0
        );
    }
}

/// Prints the cache-stats table of one run: classification counters,
/// hit-rate, coalesced duplicates and the recompute-seconds the boards
/// never had to spend.
fn cache_table(label: &str, r: &TrafficReport) {
    let c = &r.cache;
    println!("\n--- replay-heavy dashboards, cache = {label} ---");
    println!(
        "{:<14} {:>9} {:>8} {:>9} {:>8} {:>8} {:>9}",
        "tenant", "completed", "hits", "partial", "misses", "coalesc", "p99(ms)"
    );
    for t in &r.tenants {
        println!(
            "{:<14} {:>9} {:>8} {:>9} {:>8} {:>8} {:>9.1}",
            t.name,
            t.completed(),
            t.cache_hits,
            t.cache_partial_hits,
            t.cache_misses,
            t.cache_coalesced,
            t.latency.quantile(0.99) * 1e3,
        );
    }
    println!(
        "hit-rate {:.1}% | {} coalesced | {} invalidations | {:.1} s recompute saved | \
         overall p99 {:.1} ms",
        c.hit_rate() * 100.0,
        c.coalesced,
        c.invalidations,
        c.recompute_secs_saved,
        p99(r) * 1e3,
    );
}

/// The result-cache act: the duplicate-heavy dashboard trace
/// ([`TenantSpec::replay_heavy`] — static citation graphs, every request
/// of a tenant workload-identical) replayed with the cache off and in
/// the requested mode(s), with the cache-stats and stall tables for
/// each. The off run is the yardstick the hit-rate and p99 deltas are
/// quoted against.
fn cache_act(seed: u64, requests: u64, only: Option<CacheKind>) {
    let run = |cache| {
        simulate(
            TenantSpec::replay_heavy(3.0),
            ServeConfig {
                seed,
                total_requests: requests,
                queue_capacity: 512,
                cache,
                ..ServeConfig::reconfig_aware()
            },
        )
    };
    let off = run(CacheKind::Off);
    cache_table(CacheKind::Off.name(), &off);
    stall_table(&off);
    let kinds = match only {
        Some(CacheKind::Off) => vec![],
        Some(kind) => vec![kind],
        None => vec![CacheKind::Exact, CacheKind::delta()],
    };
    for kind in kinds {
        let r = run(kind);
        cache_table(kind.name(), &r);
        stall_table(&r);
        assert!(
            r.cache.hit_rate() > 0.5,
            "static replays must mostly hit: rate {}",
            r.cache.hit_rate()
        );
        assert!(
            p99(&r) < p99(&off),
            "the cache must cut p99 on the replay trace: {} vs {}",
            p99(&r),
            p99(&off)
        );
        println!(
            "\n{} cache cut p99 by {:.0}% at a {:.1}% hit-rate and saved {:.1} s of recompute",
            kind.name(),
            (1.0 - p99(&r) / p99(&off)) * 100.0,
            r.cache.hit_rate() * 100.0,
            r.cache.recompute_secs_saved,
        );
    }
}

/// The scheduler fairness act: the bursty-aggressor trace under the
/// requested scheduler(s), with the victims' isolated run as the
/// yardstick. With `trace_out` set (focused mode only), the run is
/// replayed through a [`ChromeTraceWriter`] and the Perfetto JSON lands
/// at that path.
fn scheduler_act(
    seed: u64,
    requests: u64,
    period_secs: f64,
    only: Option<SchedKind>,
    trace_out: Option<&str>,
) {
    let burst = || TenantSpec::bursty_aggressor(2.0, 40.0, period_secs);
    // Strict scan-order dispatch: the fair schedule *is* the order.
    let config = |scheduler| ServeConfig {
        seed,
        total_requests: requests,
        queue_capacity: 512,
        boards: 2,
        scheduler,
        ..ServeConfig::weighted_fair()
    };
    let isolated = simulate(
        burst().into_iter().take(2).collect(),
        config(SchedKind::Fifo),
    );
    println!(
        "\nisolated victims (aggressor absent): feed p99 {:.1} ms | fraud p99 {:.1} ms",
        isolated.tenants[0].latency.quantile(0.99) * 1e3,
        isolated.tenants[1].latency.quantile(0.99) * 1e3,
    );

    let kinds: Vec<SchedKind> = match only {
        Some(kind) => vec![kind],
        None => vec![
            SchedKind::Fifo,
            SchedKind::weighted_fair(),
            SchedKind::SloAware,
        ],
    };
    let mut runs = Vec::new();
    for kind in &kinds {
        let mix = burst();
        let r = if let Some(path) = trace_out {
            // The traced replay is the identical simulation — sinks are
            // write-only, so the fairness numbers below are unchanged.
            let names = mix.iter().map(|t| t.name.clone()).collect();
            let mut writer = ChromeTraceWriter::with_tenant_names(names);
            let r = TrafficSim::new(mix, config(*kind)).run_traced(&mut writer);
            let events = writer.event_count();
            if let Err(e) = std::fs::write(path, writer.finish()) {
                eprintln!("writing {path}: {e}");
                std::process::exit(1);
            }
            println!(
                "wrote Perfetto trace to {path} ({events} events — load at \
                 https://ui.perfetto.dev or chrome://tracing)"
            );
            r
        } else {
            simulate(mix, config(*kind))
        };
        fairness_table(kind.name(), &r);
        stall_table(&r);
        runs.push((*kind, r));
    }

    if only.is_none() {
        let by = |name: &str| &runs.iter().find(|(k, _)| k.name() == name).unwrap().1;
        let (fifo, wfq) = (by("fifo"), by("wfq"));
        for v in 0..2 {
            let iso = isolated.tenants[v].latency.quantile(0.99);
            let fair = wfq.tenants[v].latency.quantile(0.99);
            let shared = fifo.tenants[v].latency.quantile(0.99);
            // ~2.2x observed; the residue is head-of-line blocking behind
            // the aggressor request already in service (no preemption).
            assert!(
                fair < iso * 2.5,
                "WFQ must hold {} within ~2x of its isolated p99: {fair} vs {iso}",
                wfq.tenants[v].name
            );
            assert!(
                shared > fair * 10.0,
                "FIFO must blow the victim tail up where WFQ does not"
            );
            assert_eq!(wfq.tenants[v].dropped(), 0, "quotas protect victim backlog");
        }
        println!(
            "\nWFQ held victim p99 within {:.1}x / {:.1}x of the isolated run \
             (FIFO: {:.0}x / {:.0}x) and cut victim drops {} -> 0",
            wfq.tenants[0].latency.quantile(0.99) / isolated.tenants[0].latency.quantile(0.99),
            wfq.tenants[1].latency.quantile(0.99) / isolated.tenants[1].latency.quantile(0.99),
            fifo.tenants[0].latency.quantile(0.99) / isolated.tenants[0].latency.quantile(0.99),
            fifo.tenants[1].latency.quantile(0.99) / isolated.tenants[1].latency.quantile(0.99),
            fifo.tenants[0].dropped() + fifo.tenants[1].dropped(),
        );
    }
}

fn main() {
    const SEED: u64 = 2_026;
    const REQUESTS: u64 = 120_000;
    let flags = parse_flags();
    if let Some(kind) = flags.cache {
        // Focused mode: just the result-cache act, one mode vs off.
        println!(
            "replaying {REQUESTS} duplicate-heavy dashboard requests (seed {SEED}, cache {})",
            kind.name()
        );
        cache_act(SEED, REQUESTS, Some(kind));
        return;
    }
    if flags.scheduler.is_some() || flags.trace_out.is_some() {
        // Focused mode: just the fairness act under one scheduler
        // (`--trace-out` alone traces the weighted-fair run).
        let kind = flags.scheduler.unwrap_or_else(SchedKind::weighted_fair);
        println!(
            "replaying {REQUESTS} bursty-aggressor requests (seed {SEED}, scheduler {})",
            kind.name()
        );
        scheduler_act(
            SEED,
            REQUESTS,
            PERIOD_SECS,
            Some(kind),
            flags.trace_out.as_deref(),
        );
        return;
    }
    let config = |policy| ServeConfig {
        seed: SEED,
        total_requests: REQUESTS,
        queue_capacity: 512,
        policy,
        ..ServeConfig::default()
    };

    println!(
        "replaying {REQUESTS} requests across {} tenants (seed {SEED})\n",
        tenants().len()
    );

    let fifo = simulate(tenants(), config(DispatchPolicy::Fifo));
    println!("--- FIFO dispatch, 1 board ---");
    print!("{fifo}");

    let aware = simulate(tenants(), config(DispatchPolicy::ReconfigAware));
    println!("\n--- reconfig-aware dispatch, 1 board ---");
    print!("{aware}");

    println!("\n--- comparison (1 board) ---");
    println!(
        "p50 {:.1} ms -> {:.1} ms | p99 {:.1} ms -> {:.1} ms | reconfigs {} -> {}",
        p50(&fifo) * 1e3,
        p50(&aware) * 1e3,
        p99(&fifo) * 1e3,
        p99(&aware) * 1e3,
        fifo.reconfigs,
        aware.reconfigs,
    );

    // Reproducibility: the replay is bit-stable under the fixed seed.
    let again = simulate(tenants(), config(DispatchPolicy::Fifo));
    assert_eq!(
        again.trace_digest, fifo.trace_digest,
        "deterministic replay"
    );

    // The drift-heavy trace is where bitstream-aware scheduling pays.
    assert!(
        aware.reconfigs < fifo.reconfigs,
        "reconfig-aware must amortize reconfigurations"
    );
    assert!(
        p99(&aware) < p99(&fifo),
        "reconfig-aware must beat FIFO on p99 under drift: {} vs {}",
        p99(&aware),
        p99(&fifo)
    );
    println!(
        "\nreconfig-aware dispatch cut p99 by {:.0}% and reconfigurations by {:.0}%",
        (1.0 - p99(&aware) / p99(&fifo)) * 100.0,
        (1.0 - aware.reconfigs as f64 / fifo.reconfigs as f64) * 100.0,
    );

    // ----- Board-pool sharding: the same trace, four boards ------------

    // Four real boards behind one admission queue: BitstreamAffine
    // placement routes each request to a board already programmed with
    // its optimal bitstream, so the pool pins bitstreams to boards
    // instead of time-multiplexing one.
    let pool = simulate(
        tenants(),
        ServeConfig {
            boards: 4,
            placement: PlacementPolicy::BitstreamAffine,
            ..config(DispatchPolicy::ReconfigAware)
        },
    );
    println!("\n--- reconfig-aware dispatch, 4-board pool, BitstreamAffine ---");
    print!("{pool}");

    println!("\n--- comparison (sharding) ---");
    for (name, r) in [("1 board     ", &aware), ("4-board pool", &pool)] {
        println!(
            "{name}: p99 {:>7.1} ms | reconfigs {:>6} | stall {:>7.1} s",
            p99(r) * 1e3,
            r.reconfigs,
            r.reconfig_secs,
        );
    }

    // The headline: sharding with bitstream affinity eliminates most
    // reconfigurations and beats the single-board baseline on p99.
    assert!(
        pool.reconfigs < aware.reconfigs,
        "4 affine boards must reconfigure strictly less than one board: {} vs {}",
        pool.reconfigs,
        aware.reconfigs
    );
    assert!(
        p99(&pool) < p99(&aware),
        "4 affine boards must beat one board on p99: {} vs {}",
        p99(&pool),
        p99(&aware)
    );
    println!(
        "\n4-board BitstreamAffine pool eliminated {:.2}% of reconfigurations and cut p99 by {:.0}% vs one board",
        (1.0 - pool.reconfigs as f64 / aware.reconfigs as f64) * 100.0,
        (1.0 - p99(&pool) / p99(&aware)) * 100.0,
    );

    // ----- Staged pipelining: serial vs overlapped lifecycle -----------

    // Six Taobao-scale regions (3.2 GB each) outgrow a board's ~15 GB
    // DRAM graph budget, so tenant residency thrashes: LRU eviction makes
    // every few requests pay a ~128 ms cold re-upload. That recurring
    // ingest is what the pipelined scheduler hides behind fabric compute.
    let heavy = |overlap| {
        simulate(
            TenantSpec::taobao_regions(4.0, PERIOD_SECS),
            ServeConfig {
                seed: SEED,
                total_requests: REQUESTS,
                queue_capacity: 512,
                boards: 4,
                overlap,
                ..ServeConfig::reconfig_aware()
            },
        )
    };
    let serial = heavy(false);
    println!("\n--- memory-pressured pool (6x Taobao regions), serial lifecycle ---");
    print!("{serial}");
    let pipelined = heavy(true);
    println!("\n--- memory-pressured pool, pipelined lifecycle (overlap=true) ---");
    print!("{pipelined}");

    println!("\n--- comparison (staged pipelining) ---");
    for (name, r) in [("serial   ", &serial), ("pipelined", &pipelined)] {
        println!(
            "{name}: p50 {:>7.1} ms | p99 {:>8.1} ms | {:>5.1} req/s | dropped {:>5} | evictions {:>4} | overlap {:>4.0}%",
            p50(r) * 1e3,
            p99(r) * 1e3,
            r.throughput_rps(),
            r.dropped(),
            r.evictions(),
            r.pipeline_overlap_ratio() * 100.0,
        );
    }

    assert!(
        serial.evictions() > 1_000,
        "the heavy mix must thrash board DRAM, saw {} evictions",
        serial.evictions()
    );
    assert!(
        p99(&pipelined) < p99(&serial),
        "pipelining must cut the tail under memory pressure: {} vs {}",
        p99(&pipelined),
        p99(&serial)
    );
    assert!(
        pipelined.throughput_rps() >= serial.throughput_rps(),
        "hiding ingest behind compute cannot lose throughput"
    );
    println!(
        "\npipelined ingest cut p99 by {:.0}% and hid {:.0}% of DMA time behind fabric compute \
         ({} cold re-uploads from DRAM eviction)",
        (1.0 - p99(&pipelined) / p99(&serial)) * 100.0,
        pipelined.pipeline_overlap_ratio() * 100.0,
        pipelined.evictions(),
    );

    // ----- Cross-board migration over the PCIe switch ------------------

    // Act 1: rehydration. Same memory-pressured pipelined pool, but a
    // DRAM-evicted tenant now pulls its graph from a peer board still
    // holding a copy — board-to-board at switch bandwidth — instead of
    // re-uploading 3.2 GB from the host.
    let rehydrated = simulate(
        TenantSpec::taobao_regions(4.0, PERIOD_SECS),
        ServeConfig {
            seed: SEED,
            total_requests: REQUESTS,
            queue_capacity: 512,
            boards: 4,
            migrate: MigratePolicy::PeerRehydrate,
            ..ServeConfig::pipelined()
        },
    );
    println!("\n--- memory-pressured pool, pipelined + PeerRehydrate ---");
    print!("{rehydrated}");

    println!("\n--- comparison (rehydration over the switch) ---");
    for (name, r) in [
        ("host re-upload", &pipelined),
        ("peer rehydrate", &rehydrated),
    ] {
        println!(
            "{name}: p50 {:>6.1} ms | p99 {:>6.1} ms | host uploads {:>8.1} GB | switch {:>8.1} GB | {:>4} migrations",
            p50(r) * 1e3,
            p99(r) * 1e3,
            r.host_upload_bytes() as f64 / 1e9,
            r.switch_bytes() as f64 / 1e9,
            r.migrations(),
        );
    }
    assert!(
        rehydrated.migrations() > 1_000,
        "evicted tenants must rehydrate from peers, saw {}",
        rehydrated.migrations()
    );
    assert!(
        (rehydrated.host_upload_bytes() as f64) < pipelined.host_upload_bytes() as f64 * 0.6,
        "rehydration must cut host re-upload bytes by at least 40%: {} vs {}",
        rehydrated.host_upload_bytes(),
        pipelined.host_upload_bytes(),
    );
    assert!(
        p99(&rehydrated) <= p99(&pipelined) && p50(&rehydrated) <= p50(&pipelined),
        "switch-bandwidth ingest cannot be slower than the host link"
    );

    // Act 2: splitting. Under TenantAffine placement each region's
    // diurnal peak piles onto its home board while other boards idle;
    // SplitHot spills the backlog onto an idle board (migrating the
    // graph over the switch) once the queue outgrows its threshold.
    let affine = |migrate| {
        simulate(
            TenantSpec::taobao_regions(4.0, PERIOD_SECS),
            ServeConfig {
                seed: SEED,
                total_requests: REQUESTS,
                queue_capacity: 512,
                boards: 4,
                placement: PlacementPolicy::TenantAffine,
                migrate,
                ..ServeConfig::pipelined()
            },
        )
    };
    let waiting = affine(MigratePolicy::Off);
    let split = affine(MigratePolicy::SplitHot);
    println!("\n--- comparison (hot-tenant splitting, TenantAffine placement) ---");
    for (name, r) in [
        ("wait for home board", &waiting),
        ("split when hot     ", &split),
    ] {
        println!(
            "{name}: p50 {:>8.1} ms | p99 {:>8.1} ms | {:>4.1} req/s | dropped {:>5} | {:>3} migrations",
            p50(r) * 1e3,
            p99(r) * 1e3,
            r.throughput_rps(),
            r.dropped(),
            r.migrations(),
        );
    }
    assert!(
        p99(&split) < p99(&waiting) / 2.0,
        "splitting a hot tenant must slash the waiting tail: {} vs {}",
        p99(&split),
        p99(&waiting)
    );
    assert!(split.dropped() < waiting.dropped());
    assert!(split.migrations() > 0, "splits must migrate graphs");
    println!(
        "\ncross-board migration cut host uploads by {:.0}% under memory pressure \
         (rehydrating {} evictions at switch bandwidth), and splitting hot tenants \
         cut the affine-placement p99 by {:.0}% at {} fewer drops",
        (1.0 - rehydrated.host_upload_bytes() as f64 / pipelined.host_upload_bytes() as f64)
            * 100.0,
        rehydrated.migrations(),
        (1.0 - p99(&split) / p99(&waiting)) * 100.0,
        waiting.dropped() - split.dropped(),
    );

    // ----- Result cache: replay-heavy dashboards, off vs exact vs delta

    cache_act(SEED, REQUESTS, None);

    // ----- Scheduler fairness: FIFO vs WFQ vs SLO-aware ----------------

    scheduler_act(SEED, REQUESTS, PERIOD_SECS, None, None);
}
