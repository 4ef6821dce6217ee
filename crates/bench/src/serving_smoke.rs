//! The seeded serving scenario sweep behind CI's `bench-smoke` job.
//!
//! Ten named scenarios at ~6 000 requests each, plus the seven-cell
//! `grid_sweep` family (`grid_cases`: pool size × scheduler × result
//! cache at [`GRID_REQUESTS`] per cell), run serially by [`run_all`].
//! The whole batch takes a few tens of milliseconds on one core, so it
//! needs no thread pool.
//!
//! The first three sweep scenarios replay the same drift-heavy,
//! offset-diurnal trace:
//!
//! 1. `single_board_reconfig_aware` — the PR 1 baseline: one VPK180,
//!    reconfig-aware dispatch;
//! 2. `pool4_least_loaded` — four boards, utilization-greedy placement
//!    (drains fast, still thrashes the ICAP);
//! 3. `pool4_bitstream_affine` — four boards with bitstream-affine
//!    placement, a configuration the perf gate protects.
//!
//! The next two guard the staged pipeline and cross-board migration:
//!
//! 4. `pipelined_drift` — four boards in `overlap` mode on a
//!    memory-pressured mix (six Taobao-scale regions whose graphs outgrow
//!    each board's DRAM, so LRU eviction forces recurring cold
//!    re-uploads). The gate protects the overlap-mode tail and reconfig
//!    count, so a regression in the DMA/fabric pipeline fails CI.
//! 5. `migration_drift` — the same memory-pressured trace with
//!    [`MigratePolicy::PeerRehydrate`]: evicted tenants rehydrate from
//!    peer boards over the PCIe switch instead of the host link. The gate
//!    protects its p99 **and its `host_upload_bytes`** — the byte saving
//!    is the scenario's whole point, so quietly re-uploading from the
//!    host again must fail CI even if the tail absorbs it.
//!
//! The last three guard the scheduler subsystem
//! (`crates/serve/src/sched/`):
//!
//! 6. `fifo_burst` — the bursty-aggressor trace
//!    ([`TenantSpec::bursty_aggressor`]) through the shared FIFO queue:
//!    the aggressor's bursts starve the two victim tenants. Gated so the
//!    *contrast* stays honest (if FIFO stopped failing the victims, the
//!    wfq headline would be hollow).
//! 7. `wfq_burst` — the same trace under
//!    [`SchedKind::weighted_fair`]: per-tenant quotas plus deficit round
//!    robin. The gate protects **`victim_p99_secs`** (the worse of the
//!    two victims' p99 — the fairness headline) and **`tenant_drops`**
//!    (victims must keep dropping zero), alongside p99/reconfigs.
//! 8. `slo_drift` — the drift-heavy trace with [`SchedKind::slo_aware`]:
//!    reconfigurations happen only when a tenant's predicted p99 clears
//!    its SLO budget. The gate protects its reconfig count (the cut is
//!    the point) and its p99 (the cut must not cost the tail).
//!
//! The ninth guards the result cache (`crates/serve/src/cache/`):
//!
//! 9. `cache_replay` — the duplicate-heavy dashboard trace
//!    ([`TenantSpec::replay_heavy`]) with the delta-invalidation cache
//!    ([`CacheKind::delta`]) on two boards. The gate protects its p99 and
//!    its **`hit_rate`** and **`recompute_secs_saved`**: a cache that
//!    silently stops hitting keeps a fine tail on this light trace, so
//!    the tail alone would hide the regression.
//!
//! The last scenario guards the deadline-aware request lifecycle
//! (`ServeConfig::default_deadline_secs` / `TenantSpec::deadline_secs`):
//!
//! 10. `deadline_burst` — a gentler bursty-aggressor trace (mean 8 rps,
//!     so the two-board pool oscillates between overload and drain)
//!     with a 2 s deadline on both victim tenants and hedged dispatch
//!     armed. Armed is not exercised: under `LeastLoaded` placement a
//!     request only waits while every board is busy, and the board a
//!     completion frees goes to the queue, so no waiting request ever
//!     finds a second free board and the row reports `hedges: 0`. The
//!     hedge race and stage aborts are pinned by
//!     `hedge_and_abort_paths_reproduce_pinned_digests` in
//!     `tests/serve_traffic.rs` instead. The gate protects **`victim_goodput_p99_secs`** (the
//!     worse victims' p99 over *on-time* completions only — the whole
//!     point of enforcement is that this number sits inside the
//!     deadline while the oblivious tail blows out to tens of seconds),
//!     **`wasted_work_bytes`** (bytes moved for requests that then
//!     expired, were aborted or lost their hedge race — pinned at zero
//!     on this DRAM-resident trace, so enforcement silently starting to
//!     move dead bytes fails CI) and **`wasted_secs`** (board time the
//!     ledger writes off, dominated by completions that crossed their
//!     deadline in service).
//!
//! `gated_members` names each gated member of a scenario row once.
//! [`render_baseline_json`] writes those members as the checked-in
//! baseline's rows, which [`crate::perfgate::gate`] compares exactly
//! (`sim_events_per_sec`, host wall clock, against a floor);
//! [`render_json`] emits the `BENCH_serving.json` artifact, whose rows
//! add the configuration echo and the full embedded report.
//! [`perfetto_trace`] replays one named case with a
//! [`ChromeTraceWriter`] attached for the `--trace-out` flag.

use agnn_graph::datasets::Dataset;
use agnn_serve::metrics::{json_f64, json_str};
use agnn_serve::pool::{MigratePolicy, PlacementPolicy};
use agnn_serve::sched::SchedKind;
use agnn_serve::sim::{simulate, HedgeKind, ServeConfig, TrafficSim};
use agnn_serve::tenant::{ArrivalProcess, TenantSpec};
use agnn_serve::{CacheKind, ChromeTraceWriter, TrafficReport};

/// Deployment seed of the sweep (fixed: the artifact must be reproducible).
pub const SMOKE_SEED: u64 = 4_242;
/// Offered load per sweep scenario.
pub const SMOKE_REQUESTS: u64 = 6_000;
/// Offered load per `grid_sweep` cell — deliberately lighter than
/// [`SMOKE_REQUESTS`]: the cells ride the same CI job as the sweep, and
/// the family's value is breadth (every distinct pool-size × scheduler ×
/// cache outcome gated), not per-cell depth.
pub const GRID_REQUESTS: u64 = 1_500;
/// Minimum simulated event count for a baseline row to carry
/// `sim_events_per_sec`: below this the run finishes in well under a
/// millisecond of host wall clock, so its events-per-second is timer
/// noise and gating on it would flake. Sits between the largest
/// `grid_sweep` cell (~3 000 events) and the smallest sweep scenario
/// (~10 000) — the event count is seed-deterministic, so the split
/// never varies between hosts.
pub const SPEED_GATE_MIN_EVENTS: u64 = 10_000;

/// Victim tenants of the bursty-aggressor scenarios (the fairness gate
/// tracks their tail and drops by name).
pub const BURST_VICTIMS: &[&str] = &["victim-feed", "victim-fraud"];

/// Per-request latency budget of the `deadline_burst` victims.
pub const DEADLINE_SECS: f64 = 2.0;

/// One scenario of the sweep.
#[derive(Debug)]
pub struct Scenario {
    /// Stable scenario identifier — the gate joins baseline and run on it.
    pub name: &'static str,
    /// The exact simulation configuration the scenario ran (boards,
    /// placement, migration, scheduler, …) — stored whole so reported
    /// knobs can never drift from the knobs actually simulated.
    pub config: ServeConfig,
    /// Tenant names whose tail the fairness gate protects (empty for
    /// scenarios without an adversarial mix).
    pub victims: &'static [&'static str],
    /// The per-request latency budget the scenario's victims enforce
    /// (`None` for deadline-oblivious scenarios) — set on the victim
    /// [`TenantSpec`]s and echoed here so the renderers know which rows
    /// carry the deadline-lifecycle members.
    pub deadline_secs: Option<f64>,
    /// The simulation report.
    pub report: TrafficReport,
}

impl Scenario {
    /// The worse p99 across the scenario's victim tenants, if any.
    pub fn victim_p99_secs(&self) -> Option<f64> {
        self.report
            .tenants
            .iter()
            .filter(|t| self.victims.contains(&t.name.as_str()))
            .map(|t| t.latency.quantile(0.99))
            .reduce(f64::max)
    }

    /// The worse *goodput* p99 across the scenario's victim tenants —
    /// the tail over on-time completions only, the number deadline
    /// enforcement exists to bound. `None` without victims or deadlines.
    pub fn victim_goodput_p99_secs(&self) -> Option<f64> {
        self.deadline_secs?;
        self.report
            .tenants
            .iter()
            .filter(|t| self.victims.contains(&t.name.as_str()))
            .map(|t| t.goodput_latency.quantile(0.99))
            .reduce(f64::max)
    }

    /// Per-tenant drop counts as a deterministic JSON object (tenant
    /// declaration order), for scenarios with victims.
    fn tenant_drops_json(&self) -> String {
        let rows: Vec<String> = self
            .report
            .tenants
            .iter()
            .map(|t| format!("{}:{}", json_str(&t.name), t.dropped))
            .collect();
        format!("{{{}}}", rows.join(","))
    }
}

/// The drift-heavy trace: three tenants with offset diurnal peaks, so the
/// dominant tenant — and the cost-model-optimal bitstream — rotates.
fn smoke_tenants() -> Vec<TenantSpec> {
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

/// The memory-pressured trace behind `pipelined_drift`
/// ([`TenantSpec::taobao_regions`]): six Taobao-scale e-commerce regions
/// whose combined working set outgrows a board's ~15 GB DRAM budget, so
/// LRU eviction forces recurring cold re-uploads — the ingest traffic the
/// pipelined scheduler hides behind fabric compute.
fn pressured_tenants() -> Vec<TenantSpec> {
    TenantSpec::taobao_regions(4.0, 900.0)
}

/// The bursty-aggressor trace behind the scheduler scenarios
/// ([`TenantSpec::bursty_aggressor`]): two steady interactive victims
/// plus one tenant whose diurnal bursts offer several times the pool's
/// capacity.
fn burst_tenants() -> Vec<TenantSpec> {
    TenantSpec::bursty_aggressor(2.0, 40.0, 900.0)
}

/// The trace behind `deadline_burst`: the bursty-aggressor shape at a
/// gentler mean (8 rps), so the two-board pool oscillates — bursts blow
/// victim queue waits past the deadline, troughs drain and serve on
/// time — and both sides of the 2 s boundary stay populated. The victims
/// carry the [`DEADLINE_SECS`] budget; the aggressor stays best-effort.
fn deadline_tenants() -> Vec<TenantSpec> {
    let mut tenants = TenantSpec::bursty_aggressor(2.0, 8.0, 900.0);
    for victim in &mut tenants[..2] {
        victim.deadline_secs = Some(DEADLINE_SECS);
    }
    tenants
}

/// The duplicate-heavy trace behind `cache_replay`
/// ([`TenantSpec::replay_heavy`]): three dashboard tenants re-offering
/// the identical query against static graphs, so almost every request
/// after each tenant's first is cache-servable.
fn replay_tenants() -> Vec<TenantSpec> {
    TenantSpec::replay_heavy(3.0)
}

/// One sweep case before simulation: stable name, tenant mix, full
/// configuration, the victim tenants the fairness gate tracks and the
/// victim deadline (when the case enforces one).
type SweepCase = (
    &'static str,
    Vec<TenantSpec>,
    ServeConfig,
    &'static [&'static str],
    Option<f64>,
);

/// [`sweep_cases`] plus the [`grid_cases`] family, in artifact order —
/// what `bench_smoke` simulates.
fn all_cases() -> Vec<SweepCase> {
    let mut cases = sweep_cases();
    cases.extend(grid_cases());
    cases
}

/// The `grid_sweep` family over the drift-heavy trace at
/// [`GRID_REQUESTS`] per cell. The sweep's named scenarios each probe one
/// subsystem in isolation; the grid gates the *interactions* (an SLO
/// gate that only regresses on a four-board pool has no dedicated
/// scenario, but it has a cell). The full `{1, 4}` boards ×
/// `{fifo, wfq, slo}` × `{off, delta}` cache grid has only seven
/// distinct trace digests: on one board wfq replays fifo, and with the
/// delta cache on, all three schedulers replay one trace per pool size.
/// The family keeps one cell per distinct outcome, boards-major, and the
/// artifact rows follow this order.
fn grid_cases() -> Vec<SweepCase> {
    let cell = |name, boards, scheduler, cache| -> SweepCase {
        let config = ServeConfig::reconfig_aware()
            .to_builder()
            .seed(SMOKE_SEED)
            .total_requests(GRID_REQUESTS)
            .queue_capacity(512)
            .boards(boards)
            .scheduler(scheduler)
            .cache(cache)
            .build()
            .expect("grid cell config is valid");
        (name, smoke_tenants(), config, &[], None)
    };
    vec![
        cell("grid_b1_fifo_off", 1, SchedKind::Fifo, CacheKind::Off),
        cell("grid_b1_fifo_delta", 1, SchedKind::Fifo, CacheKind::delta()),
        cell("grid_b1_slo_off", 1, SchedKind::slo_aware(), CacheKind::Off),
        cell("grid_b4_fifo_off", 4, SchedKind::Fifo, CacheKind::Off),
        cell("grid_b4_fifo_delta", 4, SchedKind::Fifo, CacheKind::delta()),
        cell(
            "grid_b4_wfq_off",
            4,
            SchedKind::weighted_fair(),
            CacheKind::Off,
        ),
        cell("grid_b4_slo_off", 4, SchedKind::slo_aware(), CacheKind::Off),
    ]
}

/// The sweep's case list — the single source of truth shared by
/// [`run_sweep`] (which simulates every case) and [`perfetto_trace`]
/// (which replays one named case with a trace sink attached).
fn sweep_cases() -> Vec<SweepCase> {
    let base = || {
        ServeConfig::reconfig_aware()
            .to_builder()
            .seed(SMOKE_SEED)
            .total_requests(SMOKE_REQUESTS)
            .queue_capacity(512)
    };
    // The burst scenarios dispatch in strict scan order on two boards:
    // the fair schedule *is* the scan order (see
    // `ServeConfig::weighted_fair`), and the FIFO comparator runs the
    // identical configuration so the contrast isolates the scheduler.
    let burst = || {
        ServeConfig::weighted_fair()
            .to_builder()
            .seed(SMOKE_SEED)
            .total_requests(SMOKE_REQUESTS)
            .queue_capacity(512)
            .boards(2)
    };
    let built = |b: agnn_serve::ServeConfigBuilder| b.build().expect("sweep case config is valid");
    vec![
        (
            "single_board_reconfig_aware",
            smoke_tenants(),
            built(base().boards(1)),
            &[][..],
            None,
        ),
        (
            "pool4_least_loaded",
            smoke_tenants(),
            built(base().boards(4)),
            &[],
            None,
        ),
        (
            "pool4_bitstream_affine",
            smoke_tenants(),
            built(base().boards(4).placement(PlacementPolicy::BitstreamAffine)),
            &[],
            None,
        ),
        (
            "pipelined_drift",
            pressured_tenants(),
            built(base().boards(4).overlap(true)),
            &[],
            None,
        ),
        (
            "migration_drift",
            pressured_tenants(),
            // PeerRehydrate, deliberately: under LeastLoaded placement
            // there is no wait-for-affine-board state, so the SplitHot
            // overflow path can never fire — labeling the row split_hot
            // would advertise coverage the gate does not have. The split
            // path is pinned by `tests/serve_traffic.rs` instead.
            built(
                base()
                    .boards(4)
                    .overlap(true)
                    .migrate(MigratePolicy::PeerRehydrate),
            ),
            &[],
            None,
        ),
        (
            "fifo_burst",
            burst_tenants(),
            built(burst().scheduler(SchedKind::Fifo)),
            BURST_VICTIMS,
            None,
        ),
        (
            "wfq_burst",
            burst_tenants(),
            built(burst()),
            BURST_VICTIMS,
            None,
        ),
        (
            "slo_drift",
            smoke_tenants(),
            built(base().boards(1).scheduler(SchedKind::slo_aware())),
            &[],
            None,
        ),
        (
            "cache_replay",
            replay_tenants(),
            built(base().boards(2).cache(CacheKind::delta())),
            &[],
            None,
        ),
        (
            "deadline_burst",
            deadline_tenants(),
            // Serial two-board pool, hedged dispatch armed: the same
            // configuration `tests/serve_traffic.rs` validates against
            // its deadline-oblivious twin. Under `LeastLoaded` no hedge
            // ever launches (`hedges: 0`); the hedged paths are pinned in
            // `tests/serve_traffic.rs`.
            built(base().boards(2).hedge(HedgeKind::latency())),
            BURST_VICTIMS,
            Some(DEADLINE_SECS),
        ),
    ]
}

/// Simulates `cases` one after another, in case order.
fn run_cases(cases: Vec<SweepCase>) -> Vec<Scenario> {
    cases
        .into_iter()
        .map(|(name, tenants, config, victims, deadline_secs)| Scenario {
            name,
            config,
            victims,
            deadline_secs,
            report: simulate(tenants, config),
        })
        .collect()
}

/// Runs the ten named sweep scenarios (deterministic in [`SMOKE_SEED`]).
pub fn run_sweep() -> Vec<Scenario> {
    run_cases(sweep_cases())
}

/// Runs the sweep **plus** the grid family — `bench_smoke`'s workload.
/// Scenario order is sweep rows then grid cells.
pub fn run_all() -> Vec<Scenario> {
    run_cases(all_cases())
}

/// Replays the named sweep case with a [`ChromeTraceWriter`] attached and
/// returns the Perfetto / `chrome://tracing` JSON document, or `None` for
/// an unknown scenario name.
///
/// The replay is the *identical* simulation [`run_all`] ran — same seed,
/// same configuration — so the trace's spans line up with the gated
/// numbers in `BENCH_serving.json` (sinks are write-only; see
/// [`TrafficSim::run_traced`]).
pub fn perfetto_trace(scenario_name: &str) -> Option<String> {
    let (_, tenants, config, ..) = all_cases()
        .into_iter()
        .find(|(name, ..)| *name == scenario_name)?;
    let names = tenants.iter().map(|t| t.name.clone()).collect();
    let mut writer = ChromeTraceWriter::with_tenant_names(names);
    TrafficSim::new(tenants, config).run_traced(&mut writer);
    Some(writer.finish())
}

/// The gated members of one scenario row, `name` first: `p99_secs`,
/// `reconfigs`, `host_upload_bytes` and `trace_digest` on every row, plus
/// `victim_p99_secs` and `tenant_drops` on scenarios with victims, plus
/// `victim_goodput_p99_secs`, `wasted_work_bytes` and `wasted_secs` on
/// scenarios enforcing a deadline, plus `hit_rate` and
/// `recompute_secs_saved` on scenarios with the result cache enabled,
/// plus `sim_events_per_sec` on rows of at least
/// [`SPEED_GATE_MIN_EVENTS`] simulated events.
///
/// `trace_digest` (the order-sensitive event digest, written as
/// [`TrafficReport::to_json`] writes it) pins the whole schedule: a
/// change that reorders or re-times events fails the gate even where the
/// headline numbers still agree.
///
/// `sim_events_per_sec` is the one member measured in *host* wall clock:
/// the checked-in value captures the writer's machine, and the gate
/// compares it against a floor at the generous
/// [`crate::perfgate::SIM_SPEED_TOLERANCE`] instead of exactly. A run
/// below the event threshold (every `grid_sweep` cell) finishes in well
/// under a millisecond, so its events-per-second is timer noise and the
/// row omits the member. The event count is seed-deterministic, so which
/// rows carry the member never varies between hosts.
fn gated_members(s: &Scenario) -> String {
    let mut row = format!(
        concat!(
            "\"name\":{},\"p99_secs\":{},\"reconfigs\":{},\"host_upload_bytes\":{},",
            "\"trace_digest\":{}"
        ),
        json_str(s.name),
        json_f64(s.report.overall_latency().quantile(0.99)),
        s.report.reconfigs,
        s.report.host_upload_bytes(),
        json_str(&format!("{:#018x}", s.report.trace_digest)),
    );
    if let Some(victim_p99) = s.victim_p99_secs() {
        row += &format!(
            ",\"victim_p99_secs\":{},\"tenant_drops\":{}",
            json_f64(victim_p99),
            s.tenant_drops_json(),
        );
    }
    if let Some(goodput_p99) = s.victim_goodput_p99_secs() {
        row += &format!(
            ",\"victim_goodput_p99_secs\":{},\"wasted_work_bytes\":{},\"wasted_secs\":{}",
            json_f64(goodput_p99),
            s.report.wasted_work_bytes,
            json_f64(s.report.wasted_secs),
        );
    }
    if s.config.cache.enabled() {
        row += &format!(
            ",\"hit_rate\":{},\"recompute_secs_saved\":{}",
            json_f64(s.report.cache.hit_rate()),
            json_f64(s.report.cache.recompute_secs_saved),
        );
    }
    if s.report.sim.events >= SPEED_GATE_MIN_EVENTS {
        row += &format!(
            ",\"sim_events_per_sec\":{}",
            json_f64(s.report.sim.events_per_sec())
        );
    }
    row
}

/// Renders the scenarios as the `BENCH_serving.json` document
/// (`agnn-bench-serving/v8`): each row is the scenario's gated members,
/// the configuration it ran (including its own offered load, `requests`
/// — sweep rows and grid cells differ) and the full per-tenant/per-board
/// report for trajectory archaeology.
pub fn render_json(scenarios: &[Scenario]) -> String {
    let rows: Vec<String> = scenarios
        .iter()
        .map(|s| {
            format!(
                concat!(
                    "{{{gated},\"requests\":{requests},\"boards\":{boards},",
                    "\"placement\":{placement},\"migrate\":{migrate},",
                    "\"scheduler\":{scheduler},\"cache\":{cache},\"report\":{report}}}"
                ),
                gated = gated_members(s),
                requests = s.config.total_requests,
                boards = s.config.boards,
                placement = json_str(s.config.placement.name()),
                migrate = json_str(s.config.migrate.name()),
                scheduler = json_str(s.config.scheduler.name()),
                cache = json_str(s.config.cache.name()),
                report = s.report.to_json(),
            )
        })
        .collect();
    format!(
        concat!(
            "{{\"schema\":\"agnn-bench-serving/v8\",\"seed\":{seed},",
            "\"total_requests\":{requests},\"scenarios\":[{rows}]}}"
        ),
        seed = SMOKE_SEED,
        requests = SMOKE_REQUESTS,
        rows = rows.join(",")
    )
}

/// Renders only the gated members (see `gated_members`), one scenario
/// per line — the compact form checked in as the baseline, and the form
/// `bench_smoke --baseline` re-renders a run in to compare against it.
pub fn render_baseline_json(scenarios: &[Scenario]) -> String {
    let rows: Vec<String> = scenarios
        .iter()
        .map(|s| format!("\n  {{{}}}", gated_members(s)))
        .collect();
    format!(
        "{{\"schema\":\"agnn-bench-serving-baseline/v7\",\"seed\":{},\"scenarios\":[{}\n]}}\n",
        SMOKE_SEED,
        rows.join(",")
    )
}

/// Renders the per-scenario timing table (`BENCH_timing.md`): one
/// markdown row per scenario with the simulator's self-metrics — offered
/// load, events processed, host wall clock and throughput. The CI job
/// uploads it as an artifact so "which scenario got slow" needs no local
/// rebuild.
pub fn render_timing_table(scenarios: &[Scenario]) -> String {
    let mut out = String::from(
        "| scenario | requests | sim events | sim wall (s) | events/s |\n\
         |---|---:|---:|---:|---:|\n",
    );
    for s in scenarios {
        out.push_str(&format!(
            "| {} | {} | {} | {:.3} | {:.3e} |\n",
            s.name,
            s.config.total_requests,
            s.report.sim.events,
            s.report.sim.wall_secs,
            s.report.sim.events_per_sec(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perfgate;

    /// The named scenario of `sweep`.
    fn by_name<'a>(sweep: &'a [Scenario], name: &str) -> &'a Scenario {
        sweep
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("scenario {name}"))
    }

    #[test]
    fn sweep_is_deterministic_and_json_parses() {
        let mut a = run_sweep();
        let mut b = run_sweep();
        // Before zeroing: the live sweep must actually carry the sim
        // self-metrics the gate consumes.
        for s in &a {
            assert!(s.report.sim.events > 0, "{}", s.name);
            assert!(s.report.sim.wall_secs > 0.0, "{}", s.name);
            assert!(s.report.sim.events_per_sec() > 0.0, "{}", s.name);
        }
        // The sim self-metrics (wall clock) are the artifact's only
        // non-deterministic bytes; zero them on both sides so the rest
        // of the document byte-compares.
        for s in a.iter_mut().chain(b.iter_mut()) {
            s.report.sim = agnn_serve::SimPerf::default();
        }
        assert_eq!(render_json(&a), render_json(&b), "byte-identical artifacts");
        let doc = perfgate::parse(&render_json(&a)).expect("artifact parses");
        let artifact_rows = doc
            .get("scenarios")
            .and_then(perfgate::Json::as_arr)
            .expect("artifact rows");
        assert_eq!(artifact_rows.len(), 10);
        let baseline = perfgate::parse(&render_baseline_json(&a)).expect("baseline parses");
        // A second run reproduces the baseline exactly.
        let again = perfgate::parse(&render_baseline_json(&b)).expect("baseline parses");
        let outcome = perfgate::gate(&baseline, &again).unwrap();
        assert!(outcome.passed(), "{outcome:?}");
        // Every artifact row carries its baseline row's members verbatim.
        let baseline_rows = baseline.get("scenarios").and_then(perfgate::Json::as_arr);
        for (art, base) in artifact_rows
            .iter()
            .zip(baseline_rows.expect("baseline rows"))
        {
            for (key, value) in base.as_obj().expect("baseline row") {
                assert_eq!(art.get(key), Some(value), "{key}");
            }
        }
    }

    /// The `--trace-out` path: replaying a sweep case with the Chrome
    /// writer attached yields a dense, parseable Perfetto document whose
    /// gated numbers match the sweep's (sinks are write-only).
    #[test]
    fn perfetto_trace_replays_a_scenario_and_parses() {
        assert!(perfetto_trace("no_such_scenario").is_none());
        let trace = perfetto_trace("migration_drift").expect("known scenario");
        let doc = perfgate::parse(&trace).expect("trace is valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(perfgate::Json::as_arr)
            .expect("traceEvents array");
        assert!(
            events.len() > 1_000,
            "a {SMOKE_REQUESTS}-request replay must emit a dense trace, got {} events",
            events.len()
        );
        let phase = |e: &perfgate::Json| {
            e.get("ph")
                .and_then(perfgate::Json::as_str)
                .map(str::to_string)
        };
        let phases: std::collections::BTreeSet<String> = events.iter().filter_map(phase).collect();
        for required in ["X", "M", "C", "s", "t", "f"] {
            assert!(
                phases.contains(required),
                "trace must carry '{required}' events (spans, metadata, \
                 counters and flow arrows), got {phases:?}"
            );
        }
    }

    #[test]
    fn pipelined_scenario_actually_pipelines() {
        let sweep = run_sweep();
        let pipelined = by_name(&sweep, "pipelined_drift");
        assert!(
            pipelined.report.pipeline_overlap_ratio() > 0.2,
            "the gated scenario must exercise DMA/fabric overlap, got {}",
            pipelined.report.pipeline_overlap_ratio()
        );
        assert!(
            pipelined.report.evictions() > 100,
            "the memory-pressured mix must thrash DRAM, got {} evictions",
            pipelined.report.evictions()
        );
        // Serial scenarios never report pipeline activity (the burst
        // scenarios run the pipelined lifecycle, so they are excluded).
        for s in sweep.iter().filter(|s| {
            matches!(
                s.name,
                "single_board_reconfig_aware"
                    | "pool4_least_loaded"
                    | "pool4_bitstream_affine"
                    | "slo_drift"
                    | "cache_replay"
                    | "deadline_burst"
            )
        }) {
            assert_eq!(s.report.pipeline_overlap_ratio(), 0.0, "{}", s.name);
        }
    }

    #[test]
    fn migration_scenario_actually_migrates_and_saves_host_bytes() {
        let sweep = run_sweep();
        let pipelined = by_name(&sweep, "pipelined_drift");
        let migrated = by_name(&sweep, "migration_drift");
        assert!(
            migrated.report.migrations() > 100,
            "the gated scenario must exercise peer rehydration, got {}",
            migrated.report.migrations()
        );
        assert!(
            (migrated.report.host_upload_bytes() as f64)
                < pipelined.report.host_upload_bytes() as f64 * 0.6,
            "migration must save >= 40 % of host upload bytes: {} vs {}",
            migrated.report.host_upload_bytes(),
            pipelined.report.host_upload_bytes(),
        );
        assert!(
            migrated.report.overall_latency().quantile(0.99)
                <= pipelined.report.overall_latency().quantile(0.99),
            "rehydration at switch bandwidth cannot hurt the tail"
        );
        // Every non-migration scenario stays off the switch.
        for s in sweep.iter().filter(|s| s.name != "migration_drift") {
            assert_eq!(s.report.migrations(), 0, "{}", s.name);
            assert_eq!(s.report.switch_bytes(), 0, "{}", s.name);
        }
    }

    /// The ISSUE's acceptance criterion: the gated `wfq_burst` scenario
    /// must show WFQ bounding victim p99 under the bursty-aggressor trace
    /// where `fifo_burst` does not — and the victims must drop nothing
    /// under WFQ while FIFO sheds their traffic.
    #[test]
    fn wfq_burst_bounds_the_victim_tail_where_fifo_does_not() {
        let sweep = run_sweep();
        let fifo = by_name(&sweep, "fifo_burst");
        let wfq = by_name(&sweep, "wfq_burst");
        let (fifo_victim, wfq_victim) = (
            fifo.victim_p99_secs().expect("fifo_burst tracks victims"),
            wfq.victim_p99_secs().expect("wfq_burst tracks victims"),
        );
        assert!(
            fifo_victim > wfq_victim * 10.0,
            "FIFO must blow the victim tail up by an order of magnitude \
             where WFQ bounds it: {fifo_victim} vs {wfq_victim}"
        );
        for victim in BURST_VICTIMS {
            let drops = |s: &Scenario| {
                s.report
                    .tenants
                    .iter()
                    .find(|t| t.name == *victim)
                    .map(|t| t.dropped)
                    .expect("victim tenant present")
            };
            assert_eq!(drops(wfq), 0, "{victim}: quotas protect the backlog");
            assert!(drops(fifo) > 0, "{victim}: the shared queue sheds traffic");
        }
        // Both burst scenarios face the identical offered load; WFQ's
        // aggregate drop count sums its per-tenant counts.
        for s in [fifo, wfq] {
            let tenant_drops: u64 = s.report.tenants.iter().map(|t| t.dropped).sum();
            assert_eq!(s.report.dropped(), tenant_drops, "{}", s.name);
        }
    }

    /// The SLO-gating headline in the sweep: `slo_drift` must cut the
    /// single-board reconfiguration count by an order of magnitude at a
    /// no-worse tail.
    #[test]
    fn slo_drift_cuts_reconfigs_at_a_no_worse_tail() {
        let sweep = run_sweep();
        let ungated = by_name(&sweep, "single_board_reconfig_aware");
        let gated = by_name(&sweep, "slo_drift");
        assert!(
            gated.report.reconfigs < ungated.report.reconfigs / 10,
            "the SLO gate must eliminate most reconfigurations: {} vs {}",
            gated.report.reconfigs,
            ungated.report.reconfigs
        );
        assert!(
            gated.report.overall_latency().quantile(0.99)
                <= ungated.report.overall_latency().quantile(0.99),
            "a no-worse tail is the gate's contract"
        );
    }

    #[test]
    fn affine_pool_dominates_the_single_board_in_the_sweep() {
        let sweep = run_sweep();
        let single = by_name(&sweep, "single_board_reconfig_aware");
        let affine = by_name(&sweep, "pool4_bitstream_affine");
        assert!(
            affine.report.reconfigs < single.report.reconfigs,
            "the gated configuration must hold its headline: {} vs {}",
            affine.report.reconfigs,
            single.report.reconfigs
        );
        assert!(
            affine.report.overall_latency().quantile(0.99)
                < single.report.overall_latency().quantile(0.99)
        );
        // Every scenario faces the same offered load: each arrival lands
        // in exactly one terminal outcome (served, served late, expired,
        // aborted or dropped at admission — the last three only exist on
        // the deadline scenario).
        for s in &sweep {
            assert_eq!(
                s.report.outcomes().arrival_terminal(),
                SMOKE_REQUESTS,
                "{}",
                s.name
            );
        }
    }

    /// The ISSUE's acceptance criterion for the result cache: on the
    /// duplicate-heavy replay trace the gated `cache_replay` scenario
    /// must cut p99 by >= 30 % against its cache-off twin, at an honest
    /// hit-rate the gate can floor.
    #[test]
    fn cache_replay_cuts_the_tail_against_its_off_twin() {
        let sweep = run_sweep();
        let cached = by_name(&sweep, "cache_replay");
        // The off twin: the identical deployment with the cache disabled
        // (every other knob byte-identical, so the contrast isolates the
        // cache).
        let off = simulate(
            replay_tenants(),
            cached
                .config
                .to_builder()
                .cache(CacheKind::Off)
                .build()
                .expect("off twin config is valid"),
        );
        let (cached_p99, off_p99) = (
            cached.report.overall_latency().quantile(0.99),
            off.overall_latency().quantile(0.99),
        );
        assert!(
            cached_p99 < off_p99 * 0.7,
            "the cache must cut replay p99 by >= 30 %: {cached_p99} vs {off_p99}"
        );
        // The gated hit-rate is honest: most requests classified at the
        // cache actually hit, and the saving the gate floors is real.
        assert!(
            cached.report.cache.hit_rate() > 0.5,
            "hit-rate {}",
            cached.report.cache.hit_rate()
        );
        assert!(cached.report.cache.recompute_secs_saved > 0.0);
        // Classification conservation: every completion is exactly one of
        // hit / partial / miss / coalesced.
        let s = cached.report.cache;
        assert_eq!(
            s.hits + s.partial_hits + s.misses + s.coalesced,
            cached.report.completed(),
        );
        // The off twin never consults the cache — the Off artifact rows
        // must not grow cache members (`render_json` keys off the config).
        assert_eq!(off.cache.lookups(), 0);
        assert_eq!(off.cache.coalesced, 0);
    }

    /// The ISSUE's acceptance criterion for the deadline lifecycle: the
    /// gated `deadline_burst` scenario must beat its deadline-oblivious
    /// twin — same seed, same configuration, same trace shape, deadlines
    /// stripped — on the victims' goodput tail, and its waste ledger
    /// must record real written-off board time without moving a single
    /// dead byte on this DRAM-resident trace.
    #[test]
    fn deadline_burst_beats_its_oblivious_twin() {
        let sweep = run_sweep();
        let enforced = by_name(&sweep, "deadline_burst");
        // The twin: deadlines live on the TenantSpecs, so the identical
        // ServeConfig replays the identical trace without enforcement.
        let twin = simulate(
            TenantSpec::bursty_aggressor(2.0, 8.0, 900.0),
            enforced.config,
        );
        assert_eq!(twin.completed() + twin.dropped(), SMOKE_REQUESTS);
        assert_eq!(twin.expired_in_queue(), 0, "no deadlines, no expiry");
        assert_eq!(twin.wasted_secs, 0.0, "no deadlines, no waste ledger");

        // Enforcement re-partitions the same arrivals: a populated
        // expiry count and a goodput tail inside the budget.
        assert!(
            enforced.report.expired_in_queue() > 100,
            "bursts must push victim waits past the deadline, expired {}",
            enforced.report.expired_in_queue()
        );
        let goodput_p99 = enforced
            .victim_goodput_p99_secs()
            .expect("deadline scenario tracks victim goodput");
        let twin_victim_p99 = twin
            .tenants
            .iter()
            .filter(|t| BURST_VICTIMS.contains(&t.name.as_str()))
            .map(|t| t.latency.quantile(0.99))
            .fold(0.0_f64, f64::max);
        assert!(
            goodput_p99 <= DEADLINE_SECS,
            "on-time completions sit inside the budget: {goodput_p99}"
        );
        assert!(
            twin_victim_p99 > DEADLINE_SECS * 2.0,
            "the oblivious twin must blow the victim tail the gate \
             quotes enforcement against: {twin_victim_p99}"
        );
        assert!(goodput_p99 < twin_victim_p99);

        // The waste ledger: board time written off (completions that
        // crossed their deadline in service) but zero dead bytes — the
        // victims' graphs are DRAM-resident, so the gated
        // `wasted_work_bytes` of this scenario is a stays-zero floor.
        assert!(
            enforced.report.wasted_secs > 0.0,
            "late serves must land in the ledger"
        );
        assert_eq!(enforced.report.wasted_work_bytes, 0);
    }

    /// The `grid_sweep` family: every cell present in stable order,
    /// deterministic, conserving its offered load, distinct from every
    /// other cell, and reproducing its own baseline exactly.
    #[test]
    fn grid_family_is_deterministic_and_gates_against_itself() {
        let mut grid = run_cases(grid_cases());
        let mut again = run_cases(grid_cases());
        // Grid rows carry no wall-clock member, so two live runs compare
        // exactly.
        let baseline = perfgate::parse(&render_baseline_json(&grid)).expect("grid baseline parses");
        let rerun = perfgate::parse(&render_baseline_json(&again)).expect("grid baseline parses");
        let outcome = perfgate::gate(&baseline, &rerun).unwrap();
        assert!(outcome.passed(), "{outcome:?}");
        for s in grid.iter_mut().chain(again.iter_mut()) {
            s.report.sim = agnn_serve::SimPerf::default();
        }
        assert_eq!(render_json(&grid), render_json(&again));
        for s in &grid {
            assert_eq!(s.config.total_requests, GRID_REQUESTS, "{}", s.name);
            assert_eq!(
                s.report.outcomes().arrival_terminal(),
                GRID_REQUESTS,
                "{}",
                s.name
            );
        }
        // Every cell earns its row: no two cells replay the same trace.
        let digests: std::collections::BTreeSet<u64> =
            grid.iter().map(|s| s.report.trace_digest).collect();
        assert_eq!(digests.len(), grid.len(), "cells collapsed: {digests:?}");
    }

    /// The checked-in baseline is fresh: a run reproduces every
    /// deterministic member. (The speed floor is left to the release
    /// build CI gates; a test build's events/s says nothing.)
    #[test]
    fn checked_in_baseline_reproduces_exactly() {
        let text = include_str!("../../../ci/bench_serving_baseline.json");
        let checked_in = perfgate::parse(text).expect("checked-in baseline parses");
        let run = perfgate::parse(&render_baseline_json(&run_all())).expect("run parses");
        let outcome = perfgate::gate(&checked_in, &run).unwrap();
        assert!(
            outcome.mismatches.is_empty(),
            "stale ci/bench_serving_baseline.json — refresh it with \
             `bench_smoke --write-baseline`: {:#?}",
            outcome.mismatches
        );
    }

    /// FNV-1a over `bytes` (the same hash the simulator's event digest
    /// uses, over bytes instead of words).
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }

    /// The narration is pinned, not just the schedule: every sweep
    /// scenario's Perfetto document hashes to its recorded value, so a
    /// dropped, re-timed or re-labelled span or counter sample fails here
    /// even when the trace digest and every gated number still agree.
    /// `deadline_burst` narrates in-queue expiry as `Cancelled` spans (it
    /// launches no hedge), `cache_replay` the cache-hit counters,
    /// `migration_drift` the outbound switch legs.
    #[test]
    fn sweep_narration_is_pinned() {
        const PINNED: [(&str, u64); 10] = [
            ("single_board_reconfig_aware", 0xE1A0_0868_3F90_93DE),
            ("pool4_least_loaded", 0x12C0_81F1_F95E_42E1),
            ("pool4_bitstream_affine", 0x0444_3BA2_A291_9F99),
            ("pipelined_drift", 0xDEB5_A0E8_89EA_9FB9),
            ("migration_drift", 0x0157_1331_D215_F29F),
            ("fifo_burst", 0x4F9F_1614_2E56_DE6F),
            ("wfq_burst", 0x61DB_E84E_BB20_8AA2),
            ("slo_drift", 0xE6E9_84E4_7E86_AC26),
            ("cache_replay", 0x1436_B881_E1E8_74F7),
            ("deadline_burst", 0x1A59_C54D_0305_FF4B),
        ];
        let names: Vec<&str> = sweep_cases().iter().map(|case| case.0).collect();
        assert_eq!(
            names,
            PINNED.map(|(name, _)| name),
            "sweep scenarios changed"
        );
        let run: Vec<(&str, u64)> = PINNED
            .iter()
            .map(|&(name, _)| {
                let trace = perfetto_trace(name).expect("sweep scenario");
                // The paths the pins are meant to cover do narrate.
                let expect = match name {
                    "deadline_burst" => Some("\"cancelled\""),
                    "cache_replay" => Some("\"cache_hits\""),
                    "migration_drift" => Some("\"migrate_out\""),
                    _ => None,
                };
                if let Some(needle) = expect {
                    assert!(trace.contains(needle), "{name} narrates no {needle}");
                }
                (name, fnv1a(trace.as_bytes()))
            })
            .collect();
        for (&(name, pinned), &(_, hash)) in PINNED.iter().zip(&run) {
            assert_eq!(
                hash, pinned,
                "{name}: narration hash {hash:#018x}, pinned {pinned:#018x} (all: {run:#x?})"
            );
        }
    }

    /// The timing table carries one row per scenario in batch order.
    #[test]
    fn timing_table_has_one_row_per_scenario() {
        let grid = run_cases(grid_cases());
        let table = render_timing_table(&grid);
        assert_eq!(table.lines().count(), 2 + grid.len(), "{table}");
        for s in &grid {
            assert!(table.contains(&format!("| {} |", s.name)), "{}", s.name);
        }
    }
}
