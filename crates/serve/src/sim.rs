//! The discrete-event traffic simulator.
//!
//! # Event model
//!
//! A binary-heap event queue ([`crate::engine::EventQueue`]) advances
//! simulated time (`now: f64` seconds; ties broken by a monotone
//! push-order sequence number, so replays are bit-stable). In-flight
//! request state lives in a [`crate::engine::Slab`] arena and events
//! carry 4-byte handles; each tenant's arrival stream
//! ([`crate::engine::ArrivalSource`]) draws its next arrival on demand
//! — the inner loop performs no heap allocation in steady state. A
//! request has one record, its `Visit`, in one slab from dispatch (or a
//! cache hit at arrival) to its `ServiceDone`; a hedge leg is a copy of
//! it on the second board, and its latency is read off it in one place
//! for both lifecycles. Seven event kinds drive the simulation:
//!
//! - **`Arrival`** — a tenant's request arrives. It is offered to the
//!   configured [`crate::sched::SchedPolicy`] (refusals — shared queue
//!   full, or a per-tenant quota exhausted — are dropped and counted per
//!   tenant, never silently lost) and schedules the tenant's next arrival
//!   while offered load remains.
//! - **`IngestDone`** (pipelined mode only) — a request's graph-delta
//!   upload finished on a board's DMA engine. The request enters the
//!   fabric if it is idle, otherwise parks in the board's staging buffer.
//! - **`FabricDone`** (pipelined mode only) — a board's fabric finished
//!   preprocessing a request. The subgraph hand-off queues for the DMA
//!   engine, and any staged request acquires the fabric immediately.
//! - **`MigrationDone`** — the outbound switch leg of a cross-board
//!   migration finished: the **source** board's DMA engine stops reading
//!   the graph out of its DRAM and frees (in pipelined mode it
//!   immediately drains any waiting hand-off). The destination side needs
//!   no event of its own — the migration is just an ingest whose transfer
//!   time prices the switch leg plus any host top-up, so the existing
//!   `IngestDone`/`ServiceDone` flow completes it.
//! - **`ServiceDone`** — a request completed (in serial mode: the whole
//!   reconfig + upload + preprocess + hand-off interval; in pipelined
//!   mode: the hand-off transfer). Latency is recorded and the board slot
//!   frees.
//! - **`DeadlineExpired`** (deadline-carrying tenants, pipelined mode) —
//!   a dispatched request's deadline passed while a pipeline stage it
//!   needs had not started: its staging-buffer or hand-off slot is
//!   abandoned and the board capacity frees immediately.
//! - **`HedgeWon`** ([`HedgeKind::Latency`] only) — the faster leg of a
//!   hedged dispatch completed; the losing board's engines free without
//!   counting a completion.
//!
//! # The request deadline lifecycle
//!
//! [`crate::tenant::TenantSpec::deadline_secs`] (set per tenant) models
//! client abandonment. With any deadline configured the lifecycle
//! gains three cut points, each strictly *after* the deadline instant
//! (completing or dispatching exactly at the deadline still counts):
//!
//! 1. **In-queue expiry** — at every event the scheduler drops queued
//!    requests whose deadline has passed
//!    ([`crate::sched::SchedPolicy::expire`]); they count as
//!    [`RequestOutcome::ExpiredInQueue`] and cost no board work.
//! 2. **Stage abort** (pipelined mode) — a dispatched request still
//!    waiting in a staging buffer or hand-off queue past its deadline is
//!    abandoned ([`RequestOutcome::Aborted`]), releasing the slot; a
//!    *started* stage — an in-flight ingest, a running fabric pass, a
//!    paid reconfiguration — always runs to completion.
//! 3. **Served late** — a completion strictly past its deadline counts
//!    as [`RequestOutcome::ServedLate`]: throughput, but not goodput,
//!    and its whole board visit lands in the wasted-work ledger.
//!
//! **Hedged dispatch** ([`ServeConfig::hedge`], serial mode) reads the
//! run's one [`crate::sched::LatencyPredictor`]: once a dispatched request's
//! queue wait exceeds `factor ×` its tenant's predicted p99, the request
//! is priced on a second free board as well — host ingest onto that
//! board's *current* bitstream, no reconfiguration — and the faster leg
//! wins (ties keep the placement pick). The loser's board stays occupied
//! until the winner completes (a started reconfiguration still drains)
//! and then frees via `HedgeWon`; the cancelled leg counts as
//! [`RequestOutcome::HedgeLoser`] and its work is wasted. Only the
//! winner's completion fills the result cache.
//!
//! With no deadline anywhere and hedging off, **none** of these code
//! paths run: the schedule, every golden trace digest and every CI
//! baseline row reproduce bit-for-bit (the deadline Off-equivalence
//! invariant, proptested in `tests/serve_traffic.rs`).
//!
//! # Cross-board migration
//!
//! With [`ServeConfig::migrate`] enabled, a migration is an **ingest
//! whose source is a peer board's DRAM**: when a request lands on a board
//! where its tenant's graph is not resident and some peer still holds a
//! copy (with an idle DMA engine), the warm prefix crosses the PCIe
//! switch at peer-to-peer bandwidth
//! ([`agnn_hw::shell::PcieSwitchModel`]) and only growth the peer never
//! saw re-crosses the host link. The transfer is priced on **both**
//! boards' DMA resources — the destination's for the whole ingest, the
//! source's for the switch leg (released by `MigrationDone`) — and
//! pipelines behind each fabric like any other ingest.
//! [`MigratePolicy::PeerRehydrate`] enables exactly that rehydration
//! path; [`MigratePolicy::SplitHot`] additionally lets the front request
//! claim an idle board (a `Placement::Migrating` outcome) once every
//! affine board is busy and the queue outgrows a threshold, so a hot
//! tenant splits across boards instead of serializing on one.
//! [`MigratePolicy::Off`] never consults peers and reproduces the
//! pre-migration schedules bit-for-bit.
//!
//! # The two board slots
//!
//! Every [`BoardPool`] board exposes two in-flight slots mirroring the
//! VPK180 shell's independent engines: the **DMA slot** (PCIe — at most
//! one transfer in flight, an ingest or a subgraph hand-off) and the
//! **fabric slot** (UPE + SCR — at most one request preprocessing;
//! reconfiguration stalls are charged here, at fabric acquisition).
//!
//! With [`ServeConfig::overlap`] **off** (the default), a dispatched
//! request holds both slots for its whole staged timeline — stages run
//! back to back, exactly the monolithic `AutoGnn::serve` lifecycle.
//!
//! With `overlap` **on**, the slots are scheduled independently: a board
//! admits the next request's ingest as soon as its DMA engine frees, so a
//! graph delta lands in the second staging buffer
//! ([`agnn_hw::shell::DELTA_BUFFERS`]) while the previous batch occupies
//! the fabric, and the finished subgraph streams out under the next
//! request's preprocessing. The admission queue and the dispatch/placement
//! policies are untouched — only the meaning of "board free" narrows from
//! "fully idle" to "can accept an ingest". Each board owns the requests
//! in its slots — the one ingesting, the staging FIFO, the one in the
//! fabric and the hand-off FIFO — so admission reads the queues
//! themselves and a stage abort is one [`BoardPool`] call.
//!
//! # The scheduler seam
//!
//! The admission queue lives behind [`crate::sched::SchedPolicy`]
//! ([`ServeConfig::scheduler`] picks the implementation). The scheduler
//! owns exactly two decisions:
//!
//! 1. **Admission** — an `Arrival` calls `admit`; a refusal is the drop
//!    path (counted against the arriving tenant).
//! 2. **Offer order** — each dispatch pass calls `scan` and hands the
//!    ordered view to placement (`Placer::select`) and the
//!    [`DispatchPolicy`]; the chosen *scan position* is then removed with
//!    `take`. Under [`crate::sched::SchedKind::Fifo`] the scan order is
//!    arrival order, so placement/dispatch see exactly the pre-refactor
//!    queue; under weighted fair queueing the order is the deficit-round-
//!    robin fair schedule — placement reads the scheduler's preference as
//!    a hint and the dispatch policy may still batch around it (the
//!    scheduler charges the picked tenant's deficit).
//!
//! The run owns the rest. It keeps one [`crate::sched::LatencyPredictor`],
//! fed by every completion whenever a reader needs it, and that one
//! predictor drives both the hedge trigger and the **reconfiguration
//! gate**: before a board pays an ICAP stall (serial dispatch, or fabric
//! acquisition in pipelined mode), `Run::fabric_pass` consults the gate,
//! which [`crate::sched::SchedKind::SloAware`] closes while the tenant is
//! warm and its predicted p99 is within its SLO budget. Every other
//! scheduler leaves it open.
//!
//! **The Fifo-equivalence invariant:** with the default
//! [`crate::sched::SchedKind::Fifo`] every one of those calls maps
//! one-to-one onto the old baked-in `VecDeque` operation (admit =
//! bounded `push_back`, scan = the queue itself, take = `remove`) and the
//! gate stays open — so every golden trace digest from PR 1–4 reproduces
//! bit-for-bit, and the CI perf baselines survive the refactor
//! unchanged. `tests/serve_traffic.rs` pins this.
//!
//! # Why a 1-board serial pool is the PR 1 simulator
//!
//! In serial mode the two slots are held and released together, so a
//! single-board pool performs exactly the PR 1 sequence of
//! dispatch/complete events with identical prices — the same schedule,
//! latencies and trace digest bit-for-bit (pinned in
//! `tests/serve_traffic.rs`). Perf numbers therefore stay comparable
//! across the whole trajectory, which is what the CI `bench-smoke` gate
//! relies on.
//!
//! # Tracing
//!
//! [`TrafficSim::run_traced`] narrates the run into a
//! [`crate::trace::TraceSink`] as complete spans — the simulator is
//! analytic, so a stage's begin and end are both known when it is
//! scheduled. The span model (one track per board resource, a queue
//! track, counters for queue depth and residency) lives in
//! [`crate::trace`]. The event loop is a thin driver over one run state
//! (`Run`): one handler per event kind plus a dispatch pass, all of
//! them narrating through the same two helpers (`Run::span`,
//! `Run::counter`) plus the completion record in `Run::complete`, all
//! guarded by `enabled()` so they compile out under
//! [`crate::trace::NullSink`]. The emission sites are:
//!
//! - **`Run::dispatch`** — the queue-depth sample after the take; its
//!   shared prefix `begin_visit` draws the fresh per-run request id,
//!   closes the queue span (arrival → dispatch), narrates a migration's
//!   outbound DMA leg on the source board and samples the board's
//!   resident DRAM bytes;
//! - **`dispatch_serial`** — the winning visit's whole back-to-back
//!   reconfig/ingest/preprocess/hand-off timeline at once;
//! - **`race`** (serial, hedged) — the cancelled leg as one `Cancelled`
//!   span, with a wasted-work sample;
//! - **`dispatch_pipelined`** — the DMA ingest span;
//! - **`start_fabric`** (pipelined, from `on_ingest_done` and
//!   `on_fabric_done`) — the ICAP stall and preprocessing spans;
//! - **`start_handoff`** (pipelined) — the DMA hand-off span;
//! - **`on_arrival`** — queue-depth samples on admission and cache-hit
//!   samples on a full hit (partial hits are sampled in `begin_visit`);
//! - **`expire`** and **`on_deadline_expired`** — a `Cancelled` span per
//!   expired or aborted request, then a queue-depth or wasted-work
//!   sample; **`on_service_done`** samples the wasted-work ledger after
//!   a late completion;
//! - **`Run::complete`** — one [`crate::CompletedRequest`] per
//!   completion, on time or late, through
//!   [`crate::trace::TraceSink::complete`]; the report keeps only
//!   aggregates.
//!
//! Sinks are write-only, so tracing cannot perturb the schedule: a run
//! with any sink produces bit-for-bit the [`crate::trace::NullSink`]
//! report and the pinned golden digests (the digest-equivalence
//! invariant, proptested in `tests/serve_traffic.rs`). [`TrafficSim::run`]
//! itself measures the event loop — wall-clock seconds and events
//! processed land in [`TrafficReport::sim`] as observability.
//!
//! Every per-request price — upload delta, preprocessing, hand-off,
//! reconfiguration stall, inference tail — comes from the same models
//! `AutoGnn::serve` uses, priced analytically so the simulator replays
//! hundreds of thousands of requests in milliseconds. The fabric pass is
//! [`BoardPool::stage_secs`] under the board's configuration, memoized
//! per drift bucket in `CostMemo`; the ingest and hand-off legs divide
//! their bytes by the shell's PCIe (or switch) bandwidth; the stall is
//! [`BoardPool::apply_reconfigure`]'s, once `CostMemo` approves it.

use std::time::Instant;

use agnn_cost::{CostModel, ReconfigPolicy, Workload};
use agnn_gnn::timing::GpuInferenceModel;
use agnn_hw::shell::{PcieModel, PcieSwitchModel};
use agnn_hw::HwConfig;
use fxhash::FxHashMap;

use crate::cache::{CacheKind, CacheStats, ResultCache, CACHE_LOOKUP_SECS};
use crate::engine::{ArrivalSource, EventQueue, Handle, Slab};
use crate::metrics::{
    CompletedRequest, RequestLatency, RequestOutcome, StallBreakdown, TenantStats, TrafficReport,
};
use crate::pool::{BoardPool, MigratePolicy, PlacementPolicy};
use crate::sched::{LatencyPredictor, Request, SchedKind, SchedPolicy, Scheduler};
use crate::tenant::TenantSpec;
use crate::trace::{
    BoardResource, CounterKind, CounterSample, NullSink, Span, SpanKind, TraceSink, Track,
};

/// How the scheduler picks the next request and pays reconfigurations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DispatchPolicy {
    /// Strict arrival order; the runtime's per-request threshold policy
    /// decides reconfigurations — interleaved tenants with different
    /// optimal bitstreams thrash the ICAP.
    Fifo,
    /// Serves queued requests whose optimal bitstream matches the one
    /// currently programmed first (in arrival order), switching only when
    /// none match — amortizing each `ReconfigEvent` over a whole batch. A
    /// starvation guard dispatches the front request once it has waited
    /// [`DispatchPolicy::STARVATION_GUARD_SECS`].
    ReconfigAware,
}

impl DispatchPolicy {
    /// Longest a request may be overtaken under
    /// [`DispatchPolicy::ReconfigAware`] before it is served anyway.
    pub const STARVATION_GUARD_SECS: f64 = 30.0;
}

/// When (if ever) a long-waiting request is hedged onto a second board.
/// Gated exactly like [`CacheKind`] / [`MigratePolicy`]:
/// [`HedgeKind::Off`] is the default and reproduces the unhedged
/// schedules bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum HedgeKind {
    /// Never hedge. The golden-digest default.
    #[default]
    Off,
    /// Once a dispatched request's queue wait exceeds `factor ×` its
    /// tenant's predicted p99 latency (the shared
    /// [`LatencyPredictor`] EWMA; a cold tenant never triggers), price
    /// the request on a second free board too and keep the faster leg.
    /// Requires a ≥2-board pool and serial mode —
    /// [`ServeConfig::validate`] rejects anything else.
    Latency {
        /// Hedge-trigger multiple of the predicted p99 (must be positive
        /// and finite).
        factor: f64,
    },
}

impl HedgeKind {
    /// The latency-hedging preset: a second leg once the wait exceeds
    /// 1× the predicted p99.
    pub fn latency() -> Self {
        HedgeKind::Latency { factor: 1.0 }
    }

    /// `true` unless hedging is [`HedgeKind::Off`].
    pub fn enabled(&self) -> bool {
        *self != HedgeKind::Off
    }

    /// Stable lowercase identifier (CLI flags, report rows).
    pub fn name(&self) -> &'static str {
        match self {
            HedgeKind::Off => "off",
            HedgeKind::Latency { .. } => "latency",
        }
    }
}

/// Why [`ServeConfig::validate`] rejected a configuration. Every variant
/// names a value or combination the simulator cannot run, so a caller
/// can surface it as a typed error before [`TrafficSim::new`] panics on
/// it, and no valid configuration panics mid-run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// The pool must hold at least one board.
    ZeroBoards,
    /// The admission queue must hold at least one request.
    ZeroQueueCapacity,
    /// Hedged dispatch re-offers a request to a *second* board; a pool
    /// of fewer than two boards has nowhere to hedge to.
    HedgeNeedsPool {
        /// The configured board count.
        boards: usize,
    },
    /// Hedged dispatch prices whole serial board visits and cancels the
    /// slower one; the pipelined lifecycle splits a visit across
    /// independently scheduled stage events, where a leg cannot be
    /// atomically cancelled. Hedging therefore requires `overlap: false`.
    HedgeNeedsSerial,
    /// A hedge trigger factor must be a positive, finite multiple.
    NonPositiveHedgeFactor {
        /// The rejected value.
        factor: f64,
    },
    /// A weighted-fair scheduler whose per-tenant quota is zero would
    /// refuse every arrival.
    ZeroTenantQuota,
    /// A knob that takes any number was set to NaN: a NaN `min_gain`
    /// would silently disable every reconfiguration, a NaN
    /// `drift_step_secs` would give each arrival its own drift bucket,
    /// and a NaN [`CacheKind::Delta`] budget would invalidate a cache
    /// entry on any graph change.
    NanKnob {
        /// The [`ServeConfig`] field holding the NaN.
        knob: &'static str,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroBoards => write!(f, "the pool must hold at least one board"),
            ConfigError::ZeroQueueCapacity => write!(f, "queue capacity must be positive"),
            ConfigError::HedgeNeedsPool { boards } => write!(
                f,
                "hedged dispatch needs at least 2 boards to re-offer to (got {boards})"
            ),
            ConfigError::HedgeNeedsSerial => write!(
                f,
                "hedged dispatch requires serial mode (overlap: false): a pipelined \
                 leg cannot be cancelled atomically"
            ),
            ConfigError::NonPositiveHedgeFactor { factor } => {
                write!(f, "hedge factor must be positive and finite, got {factor}")
            }
            ConfigError::ZeroTenantQuota => {
                write!(f, "weighted-fair per-tenant quota must be positive")
            }
            ConfigError::NanKnob { knob } => write!(f, "{knob} must be a number, got NaN"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Deployment seed: drives every arrival stream.
    pub seed: u64,
    /// Admission-queue capacity; arrivals beyond it are dropped.
    pub queue_capacity: usize,
    /// Dispatch policy (which queued request a board serves next).
    pub policy: DispatchPolicy,
    /// Admission/dispatch scheduler: the bounded FIFO queue
    /// ([`SchedKind::Fifo`], bit-for-bit the pre-refactor schedules),
    /// weighted fair queueing with per-tenant quotas
    /// ([`SchedKind::WeightedFair`]), or the FIFO queue plus the run's
    /// SLO-driven reconfiguration gate ([`SchedKind::SloAware`]).
    pub scheduler: SchedKind,
    /// Number of simulated boards in the pool.
    pub boards: usize,
    /// Placement policy (which board an admitted request runs on).
    pub placement: PlacementPolicy,
    /// Cross-board migration policy: whether a cold tenant's graph may be
    /// pulled from a peer board's DRAM over the PCIe switch (and whether
    /// a hot tenant may proactively split across boards).
    /// [`MigratePolicy::Off`] reproduces the pre-migration schedules
    /// bit-for-bit.
    pub migrate: MigratePolicy,
    /// Pipeline boards' DMA against fabric compute: ingest the next
    /// request (double-buffered graph deltas) and stream finished
    /// subgraphs out while the fabric preprocesses. `false` replays the
    /// serial staged lifecycle bit-for-bit against the PR 1/PR 2 digests.
    pub overlap: bool,
    /// Offered load: total arrivals generated before the queue drains.
    pub total_requests: u64,
    /// Drift quantization step in simulated seconds (bitstream choices are
    /// re-evaluated once per step per tenant).
    pub drift_step_secs: f64,
    /// Minimum predicted relative gain before a reconfiguration is paid.
    pub min_gain: f64,
    /// Result-cache policy ([`crate::cache`]): cached subgraph results
    /// are served at lookup cost while fresh (delta-driven invalidation)
    /// and duplicate in-flight requests coalesce. [`CacheKind::Off`]
    /// (the default) reproduces the uncached schedules bit-for-bit.
    pub cache: CacheKind,
    /// Hedged-dispatch policy (see the [module docs](self)).
    /// [`HedgeKind::Off`] (the default) reproduces the unhedged
    /// schedules bit-for-bit.
    pub hedge: HedgeKind,
}

impl ServeConfig {
    /// Checks the values and knob combinations the simulator cannot run.
    /// [`TrafficSim::new`] runs the same check and panics on its error,
    /// so call this first to get a typed [`ConfigError`] instead:
    ///
    /// ```
    /// use agnn_serve::{ConfigError, HedgeKind, ServeConfig};
    ///
    /// // Hedging needs a second board to re-offer to.
    /// let one_board = ServeConfig { hedge: HedgeKind::latency(), ..ServeConfig::default() };
    /// assert_eq!(one_board.validate(), Err(ConfigError::HedgeNeedsPool { boards: 1 }));
    /// assert!(ServeConfig { boards: 2, ..one_board }.validate().is_ok());
    /// ```
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.boards == 0 {
            return Err(ConfigError::ZeroBoards);
        }
        if self.queue_capacity == 0 {
            return Err(ConfigError::ZeroQueueCapacity);
        }
        if matches!(
            self.scheduler,
            SchedKind::WeightedFair {
                per_tenant_quota: 0
            }
        ) {
            return Err(ConfigError::ZeroTenantQuota);
        }
        for (knob, value) in [
            ("min_gain", self.min_gain),
            ("drift_step_secs", self.drift_step_secs),
            ("cache", self.cache.max_delta_frac()),
        ] {
            if value.is_nan() {
                return Err(ConfigError::NanKnob { knob });
            }
        }
        if let HedgeKind::Latency { factor } = self.hedge {
            if !(factor > 0.0 && factor.is_finite()) {
                return Err(ConfigError::NonPositiveHedgeFactor { factor });
            }
            if self.overlap {
                return Err(ConfigError::HedgeNeedsSerial);
            }
            if self.boards < 2 {
                return Err(ConfigError::HedgeNeedsPool {
                    boards: self.boards,
                });
            }
        }
        Ok(())
    }

    /// The reconfig-aware deployment preset (30-second starvation guard).
    ///
    /// ```
    /// use agnn_serve::{DispatchPolicy, ServeConfig};
    ///
    /// let cfg = ServeConfig::reconfig_aware();
    /// assert_eq!(cfg.policy, DispatchPolicy::ReconfigAware);
    /// // Dispatch policy is the *only* departure from the default.
    /// assert_eq!(
    ///     ServeConfig { policy: DispatchPolicy::Fifo, ..cfg },
    ///     ServeConfig::default(),
    /// );
    /// ```
    pub fn reconfig_aware() -> Self {
        ServeConfig {
            policy: DispatchPolicy::ReconfigAware,
            ..Self::default()
        }
    }

    /// The pipelined preset: reconfig-aware dispatch with DMA/fabric
    /// overlap enabled.
    ///
    /// ```
    /// use agnn_serve::ServeConfig;
    ///
    /// let cfg = ServeConfig::pipelined();
    /// assert!(cfg.overlap);
    /// assert_eq!(ServeConfig { overlap: false, ..cfg }, ServeConfig::reconfig_aware());
    /// ```
    pub fn pipelined() -> Self {
        ServeConfig {
            overlap: true,
            ..Self::reconfig_aware()
        }
    }

    /// The weighted-fair preset: deficit-round-robin per-tenant queues
    /// with the default quota ([`SchedKind::weighted_fair`]) over the
    /// pipelined lifecycle, dispatched in **strict scan order**
    /// ([`DispatchPolicy::Fifo`]). Strict order is deliberate: the fair
    /// schedule *is* the scan order, and reconfig-aware batching would
    /// override it — letting a board serve the aggressor's matching
    /// bitstream for up to its starvation guard while victims wait, which
    /// is exactly the isolation WFQ exists to provide.
    ///
    /// ```
    /// use agnn_serve::{DispatchPolicy, SchedKind, ServeConfig};
    ///
    /// let cfg = ServeConfig::weighted_fair();
    /// assert_eq!(cfg.scheduler, SchedKind::weighted_fair());
    /// assert_eq!(cfg.policy, DispatchPolicy::Fifo); // strict scan order
    /// assert!(cfg.overlap); // rides on the pipelined lifecycle
    /// ```
    pub fn weighted_fair() -> Self {
        ServeConfig {
            scheduler: SchedKind::weighted_fair(),
            policy: DispatchPolicy::Fifo,
            ..Self::pipelined()
        }
    }

    /// The SLO-aware preset: FIFO-order queueing whose reconfigurations
    /// are gated on predicted p99 vs the tenants' SLO budgets
    /// ([`SchedKind::SloAware`]), on top of the pipelined deployment.
    ///
    /// ```
    /// use agnn_serve::{SchedKind, ServeConfig};
    ///
    /// let cfg = ServeConfig::slo_aware();
    /// assert_eq!(cfg.scheduler, SchedKind::SloAware);
    /// assert_eq!(ServeConfig { scheduler: SchedKind::Fifo, ..cfg }, ServeConfig::pipelined());
    /// ```
    pub fn slo_aware() -> Self {
        ServeConfig {
            scheduler: SchedKind::SloAware,
            ..Self::pipelined()
        }
    }
}

/// Every knob at its deployment default; the presets are struct updates
/// over it, so a call site spells a configuration as
/// `ServeConfig { boards: 4, ..ServeConfig::pipelined() }`.
impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            seed: 0,
            queue_capacity: 256,
            policy: DispatchPolicy::Fifo,
            scheduler: SchedKind::Fifo,
            boards: 1,
            placement: PlacementPolicy::LeastLoaded,
            migrate: MigratePolicy::Off,
            overlap: false,
            total_requests: 10_000,
            drift_step_secs: 3_600.0,
            min_gain: 0.10,
            cache: CacheKind::Off,
            hedge: HedgeKind::Off,
        }
    }
}

/// The one record of a request from dispatch (or a cache hit at
/// arrival) to its `ServiceDone`. The shared dispatch prefix
/// ([`Run::begin_visit`]) prices its ingest and hand-off in both modes;
/// serial dispatch prices the remaining stages at once (a hedge leg is a
/// copy on the second board), while in pipelined mode the record waits
/// in the slab and its timestamps accumulate as stages complete.
#[derive(Debug, Clone, Copy)]
struct Visit {
    tenant: usize,
    board: usize,
    /// Per-run monotone request id linking this request's trace spans.
    trace_id: u64,
    arrival_secs: f64,
    dispatch_secs: f64,
    workload: Workload,
    best: HwConfig,
    /// Hand-off transfer and inference seconds, priced at dispatch (pure
    /// in the dispatch-time workload) so the hand-off stage runs no
    /// cost-model work.
    download_secs: f64,
    inference_secs: f64,
    upload_secs: f64,
    /// Stage timestamps. Serial visits leave all four at the ingest
    /// end, so their stage wait is exactly `+0.0`.
    ingest_done_secs: f64,
    fabric_start_secs: f64,
    fabric_done_secs: f64,
    handoff_start_secs: f64,
    reconfig_secs: f64,
    preprocess_secs: f64,
    host_bytes: u64,
    switch_bytes: u64,
    /// Cache bookkeeping, all inert when the run's cache is `Off`:
    /// drift bucket / graph size / delta-counter snapshot at dispatch
    /// (the entry this completion will fill), the preprocessing cost the
    /// entry records, and whether this board visit is a partial hit
    /// (fabric pass skipped against a fresh entry).
    bucket: u64,
    graph_bytes: u64,
    cum_delta: u64,
    entry_preprocess_secs: f64,
    partial: bool,
    /// Served from the cache at arrival: the request held no board slot,
    /// so its completion frees nothing and fills nothing.
    cached: bool,
}

impl Visit {
    /// Charges a priced fabric pass: the stall and preprocessing seconds,
    /// which are also what the cache entry this visit refills records.
    fn charge(&mut self, pass: FabricPass) {
        self.reconfig_secs = pass.reconfig_secs;
        self.preprocess_secs = pass.preprocess_secs;
        self.entry_preprocess_secs = pass.preprocess_secs;
    }

    fn tag(&self) -> Tag {
        Tag {
            tenant: self.tenant,
            request: self.trace_id,
        }
    }

    /// When a serial visit ends: its stages run back to back from
    /// dispatch.
    fn serial_done(&self) -> f64 {
        self.dispatch_secs
            + self.reconfig_secs
            + self.upload_secs
            + self.preprocess_secs
            + self.download_secs
    }

    /// The request's latency components, for either lifecycle.
    fn latency(&self) -> RequestLatency {
        RequestLatency {
            queue_secs: self.dispatch_secs - self.arrival_secs,
            reconfig_secs: self.reconfig_secs,
            upload_secs: self.upload_secs,
            stage_wait_secs: (self.fabric_start_secs - self.ingest_done_secs)
                + (self.handoff_start_secs - self.fabric_done_secs),
            preprocess_secs: self.preprocess_secs,
            download_secs: self.download_secs,
            inference_secs: self.inference_secs,
            cache_secs: if self.cached { CACHE_LOOKUP_SECS } else { 0.0 },
        }
    }
}

/// A priced fabric pass ([`Run::fabric_pass`]).
#[derive(Debug, Clone, Copy)]
struct FabricPass {
    reconfig_secs: f64,
    preprocess_secs: f64,
}

/// The request a span narrates: its tenant and per-run trace id.
#[derive(Debug, Clone, Copy)]
struct Tag {
    tenant: usize,
    request: u64,
}

/// Queued event payloads. Kept small on purpose: the [`Visit`] record
/// lives in a [`Slab`] and events carry its 4-byte handle, and boards and
/// tenants travel as `u32`, so the payload is 16 bytes and a queue entry
/// (with its 16-byte key) is 32 — every heap sift moves half a cache line.
#[derive(Debug, Clone, Copy, PartialEq)]
enum EventKind {
    /// A request of `tenant` arrives.
    Arrival { tenant: u32 },
    /// Board `board` finished a graph-delta ingest (pipelined mode).
    IngestDone { board: u32 },
    /// Board `board`'s fabric finished preprocessing (pipelined mode).
    FabricDone { board: u32 },
    /// Board `board`'s **outbound** switch leg of a migration finished:
    /// its DMA engine stops reading the graph out of DRAM and frees.
    MigrationDone { board: u32 },
    /// A request completed; its [`Visit`] record is in the slab.
    ServiceDone { visit: Handle },
    /// A dispatched request's deadline passed (pipelined mode): abort it
    /// if a stage it needs has not started — it still waits in its
    /// board's staging buffer or hand-off queue. `tag` is the request's
    /// trace id: slab slots recycle (the arena is not generational), so
    /// an event whose handle is vacant or holds a different request by
    /// pop time must not fire.
    DeadlineExpired { visit: Handle, tag: u64 },
    /// The faster leg of `tenant`'s hedged dispatch completed (and any
    /// reconfiguration the losing leg started has drained): board
    /// `board`'s engines — held by the cancelled leg — free without
    /// counting a completion.
    HedgeWon { board: u32, tenant: u32 },
}

// Pins the queue entry at 32 bytes: a wider payload would grow every
// entry the heap moves to 48.
const _: () = assert!(EventQueue::<EventKind>::ENTRY_BYTES == 32);

/// `index` (a board or tenant) as an event payload field.
fn event_id(index: usize) -> u32 {
    u32::try_from(index).expect("board and tenant indices fit in u32")
}

/// The 64-bit FNV prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// `FNV_PRIME^k` (wrapping) for `k` in `0..=8`: folding `k` zero bytes
/// into an FNV-1a state is one multiply by `FNV_PRIME_POW[k]`.
const FNV_PRIME_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < 9 {
        pow[k] = pow[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    pow
};

/// FNV-1a accumulator for the order-sensitive event-trace digest.
#[derive(Debug, Clone, Copy)]
struct TraceDigest(u64);

impl TraceDigest {
    fn new() -> Self {
        TraceDigest(0xCBF2_9CE4_8422_2325)
    }

    /// Hashes `word`'s eight little-endian bytes. XOR with a zero byte is
    /// the identity, so the word's high zero bytes fold into one multiply
    /// by a power of the prime — a one-byte tag, tenant or board word
    /// costs a single multiply instead of eight — and the hash is the
    /// byte-at-a-time FNV-1a's exactly.
    fn push(&mut self, word: u64) {
        if word <= 0xFF {
            self.0 = (self.0 ^ word).wrapping_mul(FNV_PRIME_POW[8]);
            return;
        }
        let mut h = self.0;
        let mut rest = word;
        let mut zero_bytes = 8;
        while rest != 0 {
            h = (h ^ (rest & 0xFF)).wrapping_mul(FNV_PRIME);
            rest >>= 8;
            zero_bytes -= 1;
        }
        self.0 = h.wrapping_mul(FNV_PRIME_POW[zero_bytes]);
    }

    /// Pushes one step's words in order.
    fn push_all(&mut self, words: &[u64]) {
        for &word in words {
            self.push(word);
        }
    }
}

/// The multi-tenant traffic simulator over a board pool.
#[derive(Debug)]
pub struct TrafficSim {
    tenants: Vec<TenantSpec>,
    config: ServeConfig,
    pool: BoardPool,
}

impl TrafficSim {
    /// A simulator over `tenants` with `config`. The board pool is built
    /// here and reset to its default configs at the start of every
    /// [`run`](TrafficSim::run), so one simulator can replay many
    /// deterministic simulations.
    ///
    /// # Panics
    ///
    /// Panics if `tenants` is empty, any tenant's arrival process cannot
    /// generate arrivals (a peak rate that is not positive and finite, a
    /// diurnal amplitude outside `[0, 1)`, a diurnal period that is not
    /// positive and finite, or a non-finite phase), any tenant deadline,
    /// weight or SLO budget is not a positive finite number, or the
    /// config fails [`ServeConfig::validate`] — a zero board count, queue
    /// capacity or weighted-fair quota, a non-positive hedge factor, a
    /// NaN knob, or an incompatible combination (call
    /// [`validate`](ServeConfig::validate) first to get the same rules as
    /// a typed [`ConfigError`]). A run never panics on its inputs.
    pub fn new(tenants: Vec<TenantSpec>, config: ServeConfig) -> Self {
        assert!(!tenants.is_empty(), "need at least one tenant");
        if let Err(err) = config.validate() {
            panic!("invalid ServeConfig: {err}");
        }
        for tenant in &tenants {
            tenant.arrival.assert_valid();
            if let Some(secs) = tenant.deadline_secs {
                assert!(
                    secs > 0.0 && secs.is_finite(),
                    "tenant deadline must be positive and finite, got {secs}"
                );
            }
            let weight = tenant.weight;
            assert!(
                weight > 0.0 && weight.is_finite(),
                "tenant weight must be positive and finite, got {weight}"
            );
            if let Some(secs) = tenant.slo_secs {
                assert!(
                    secs > 0.0 && secs.is_finite(),
                    "tenant SLO budget must be positive and finite, got {secs}"
                );
            }
        }
        let pool = BoardPool::new(
            config.boards,
            tenants[0].params,
            ReconfigPolicy {
                min_gain: config.min_gain,
            },
            tenants.len(),
        );
        TrafficSim {
            tenants,
            config,
            pool,
        }
    }

    /// Number of boards in the pool.
    pub fn pool_size(&self) -> usize {
        self.pool.size()
    }

    /// Runs the simulation to completion and reports. Takes `&mut self`
    /// because the pool carries mutable per-board state (bitstreams,
    /// residency, busy slots); the pool is reset first, so repeated runs
    /// of the same simulator are identical.
    ///
    /// This is the fast path: the loop is monomorphized over
    /// [`NullSink`], whose `enabled()` is a constant `false`, so every
    /// span/counter emission compiles out.
    ///
    /// ```
    /// use agnn_graph::datasets::Dataset;
    /// use agnn_serve::sim::{ServeConfig, TrafficSim};
    /// use agnn_serve::tenant::TenantSpec;
    ///
    /// let tenants = vec![TenantSpec::new("feed", Dataset::Movie, 20.0)];
    /// let mut sim = TrafficSim::new(
    ///     tenants,
    ///     ServeConfig {
    ///         total_requests: 200,
    ///         ..ServeConfig::default()
    ///     },
    /// );
    /// let a = sim.run();
    /// let b = sim.run(); // the pool resets: repeated runs are identical
    /// assert_eq!(a.completed() + a.dropped(), 200);
    /// assert_eq!(a.trace_digest, b.trace_digest);
    /// ```
    pub fn run(&mut self) -> TrafficReport {
        self.run_traced_impl(&mut NullSink)
    }

    /// [`run`](TrafficSim::run) with the event loop narrating spans and
    /// counters into `sink` (see the [module docs](self) for the emission
    /// sites). Sinks are write-only, so the report — digest included — is
    /// bit-for-bit the untraced run's.
    ///
    /// ```
    /// use agnn_graph::datasets::Dataset;
    /// use agnn_serve::sim::{ServeConfig, TrafficSim};
    /// use agnn_serve::tenant::TenantSpec;
    /// use agnn_serve::trace::FlightRecorder;
    ///
    /// let tenants = vec![TenantSpec::new("feed", Dataset::Movie, 20.0)];
    /// let cfg = ServeConfig {
    ///     total_requests: 200,
    ///     ..ServeConfig::default()
    /// };
    /// let mut recorder = FlightRecorder::with_capacity(10_000);
    /// let traced = TrafficSim::new(tenants.clone(), cfg).run_traced(&mut recorder);
    /// // The digest-equivalence invariant: tracing never perturbs.
    /// let untraced = TrafficSim::new(tenants, cfg).run();
    /// assert_eq!(traced.trace_digest, untraced.trace_digest);
    /// assert!(recorder.spans().count() > 0);
    /// ```
    pub fn run_traced(&mut self, sink: &mut dyn TraceSink) -> TrafficReport {
        self.run_traced_impl(sink)
    }

    /// The event loop, generic over the sink so [`run`](TrafficSim::run)
    /// monomorphizes tracing away while
    /// [`run_traced`](TrafficSim::run_traced) keeps dynamic sinks. A thin
    /// driver: it pops an event, runs the in-queue expiry pass, hands the
    /// event to its [`Run`] handler and then, unless the handler reports
    /// that the event left nothing new to place, a dispatch pass.
    fn run_traced_impl<S: TraceSink + ?Sized>(&mut self, sink: &mut S) -> TrafficReport {
        let wall_start = Instant::now();
        let TrafficSim {
            tenants,
            config,
            pool,
        } = self;
        let mut run = Run::new(tenants, pool, config, sink);
        while let Some((now, kind)) = run.queue.pop() {
            run.report.sim.events += 1;
            run.expire(now);
            let dispatch = match kind {
                EventKind::Arrival { tenant } => run.on_arrival(now, tenant as usize),
                EventKind::IngestDone { board } => run.on_ingest_done(now, board as usize),
                EventKind::FabricDone { board } => run.on_fabric_done(now, board as usize),
                EventKind::MigrationDone { board } => run.on_migration_done(now, board as usize),
                EventKind::ServiceDone { visit } => run.on_service_done(now, visit),
                EventKind::DeadlineExpired { visit, tag } => {
                    run.on_deadline_expired(now, visit, tag)
                }
                EventKind::HedgeWon { board, tenant } => {
                    run.on_hedge_won(now, board as usize, tenant as usize)
                }
            };
            if dispatch {
                run.dispatch(now);
            }
        }
        run.finish(wall_start)
    }
}

/// The board track of `board`'s `resource`.
fn on_board(board: usize, resource: BoardResource) -> Track {
    Track::Board { board, resource }
}

/// One simulation in flight: everything the event handlers share. The
/// [`TrafficSim`] driver pops events and calls one `on_*` handler per
/// [`EventKind`], then [`dispatch`](Run::dispatch); each handler updates
/// the three channels a step touches — the schedule (queue, pool,
/// scheduler), the tallies (the [`TrafficReport`] under construction,
/// digest) and the narration ([`span`](Run::span),
/// [`counter`](Run::counter), both no-ops under [`NullSink`]) — in the
/// order the golden digests pin.
struct Run<'a, S: TraceSink + ?Sized> {
    tenants: &'a [TenantSpec],
    pool: &'a mut BoardPool,
    cfg: &'a ServeConfig,
    sink: &'a mut S,
    /// Multi-board (or pipelined) runs tag reconfiguration and
    /// completion digest words with the board index; the single-board
    /// serial layout is frozen so PR 1 digests stay reproducible.
    tag_boards: bool,
    pcie: PcieModel,
    switch: PcieSwitchModel,
    queue: EventQueue<EventKind>,
    /// Every request between dispatch (or a cache hit) and its
    /// `ServiceDone`.
    visits: Slab<Visit>,
    /// Independent seeded arrival streams (schedule-independent).
    arrivals: ArrivalSource,
    /// Arrivals generated so far (the offered load stops at
    /// [`ServeConfig::total_requests`]).
    offered: u64,
    /// The pluggable admission/dispatch scheduler (see the module
    /// docs' "scheduler seam"): `Fifo` is the pre-refactor bounded
    /// queue bit-for-bit. The enum form keeps the per-event
    /// admit/scan/take calls statically dispatched.
    sched: Scheduler,
    /// Per-tenant deadlines ([`TenantSpec::deadline_secs`]); completions
    /// strictly past them count as served-late, not goodput.
    deadlines: Vec<Option<f64>>,
    /// Whether any tenant carries a deadline. With none the expiry
    /// pass, the abort events and the served-late split are all
    /// skipped — the deadline Off-equivalence invariant.
    deadlines_on: bool,
    /// Whether [`SchedKind::SloAware`]'s reconfiguration gate is in
    /// force ([`slo_gate_closed`](Run::slo_gate_closed)).
    slo_gated: bool,
    /// Whether completions feed `predictor`: only its two readers, the
    /// SLO gate and the hedge trigger, need it.
    predicting: bool,
    /// The one per-tenant latency EWMA, read by the SLO gate and the
    /// hedge trigger alike.
    predictor: LatencyPredictor,
    /// Scratch for the expiry pass, reused across events.
    expired: Vec<Request>,
    /// Pure cost-model results (workloads, library-optimal configs,
    /// expansion sums, fabric reports, reconfig verdicts), memoized
    /// per tenant drift bucket — speed only, never the schedule (see
    /// [`CostMemo`]).
    memo: CostMemo,
    /// The subgraph result cache ([`crate::cache`]). With `Off` every
    /// touch is skipped, so the uncached schedule — and every golden
    /// digest — replays bit-for-bit.
    cache: ResultCache,
    /// The report the run tallies into as it goes; [`finish`](Run::finish)
    /// adds what only the drained pool and cache know.
    report: TrafficReport,
    digest: TraceDigest,
    /// The monotone request id spans carry — it never feeds back into
    /// the schedule.
    next_trace_id: u64,
}

impl<'a, S: TraceSink + ?Sized> Run<'a, S> {
    /// Resets the pool and primes the queue with every tenant's first
    /// arrival.
    fn new(
        tenants: &'a [TenantSpec],
        pool: &'a mut BoardPool,
        cfg: &'a ServeConfig,
        sink: &'a mut S,
    ) -> Self {
        pool.reset();
        let deadlines: Vec<Option<f64>> = tenants.iter().map(|t| t.deadline_secs).collect();
        let slo_gated = cfg.scheduler == SchedKind::SloAware;
        let mut run = Run {
            tag_boards: pool.size() > 1 || cfg.overlap,
            pcie: pool.pcie(),
            switch: pool.switch(),
            queue: EventQueue::new(),
            visits: Slab::with_capacity(4 * pool.size()),
            arrivals: ArrivalSource::new(tenants, cfg.seed),
            offered: 0,
            sched: cfg.scheduler.instantiate(tenants, cfg.queue_capacity),
            deadlines_on: deadlines.iter().any(Option::is_some),
            deadlines,
            slo_gated,
            predicting: slo_gated || cfg.hedge.enabled(),
            predictor: LatencyPredictor::new(tenants.len()),
            expired: Vec::new(),
            memo: CostMemo::new(tenants.len(), cfg.drift_step_secs),
            cache: ResultCache::new(cfg.cache, tenants.len()),
            report: TrafficReport {
                tenants: tenants
                    .iter()
                    .map(|t| TenantStats {
                        name: t.name.clone(),
                        ..TenantStats::default()
                    })
                    .collect(),
                ..TrafficReport::default()
            },
            digest: TraceDigest::new(),
            next_trace_id: 0,
            tenants,
            pool,
            cfg,
            sink,
        };
        for tenant in 0..tenants.len() {
            run.offer_next(tenant);
        }
        run
    }

    /// The report of a drained run, once conservation holds: no request
    /// is left in flight and every board is idle. The pool-wide counts
    /// are sums of what the boards and tenants tallied.
    fn finish(self, wall_start: Instant) -> TrafficReport {
        assert!(
            self.visits.is_empty(),
            "a request is still in flight at drain"
        );
        self.pool.assert_drained();
        let mut report = self.report;
        report.boards = self.pool.stats();
        report.reconfigs = report.boards.iter().map(|b| b.reconfigs).sum();
        let sum = |count: fn(&TenantStats) -> u64| report.tenants.iter().map(count).sum();
        report.cache = CacheStats {
            hits: sum(|t| t.cache_hits),
            partial_hits: sum(|t| t.cache_partial_hits),
            misses: sum(|t| t.cache_misses),
            coalesced: sum(|t| t.cache_coalesced),
            ..self.cache.stats()
        };
        report.sim.wall_secs = wall_start.elapsed().as_secs_f64();
        report.trace_digest = self.digest.0;
        report
    }

    // ---- narration: every span and counter sample is emitted here ----

    /// Narrates one complete span of the request `tag` names.
    fn span(&mut self, track: Track, kind: SpanKind, tag: Tag, begin_secs: f64, end_secs: f64) {
        if self.sink.enabled() {
            self.sink.span(Span {
                track,
                kind,
                tenant: tag.tenant,
                request: tag.request,
                begin_secs,
                end_secs,
            });
        }
    }

    /// Narrates one counter sample.
    fn counter(&mut self, kind: CounterKind, time_secs: f64, value: f64) {
        if self.sink.enabled() {
            self.sink.counter(CounterSample {
                kind,
                time_secs,
                value,
            });
        }
    }

    /// Records the admission queue's depth after it changed at `now`.
    fn sample_depth(&mut self, now: f64) {
        self.report.queue_depth.record(now, self.sched.len());
        self.counter(CounterKind::QueueDepth, now, self.sched.len() as f64);
    }

    /// Samples the running cache-hit count (full plus partial hits).
    fn sample_cache_hits(&mut self, now: f64) {
        if self.sink.enabled() {
            let tenants = self.report.tenants.iter();
            let hits: u64 = tenants.map(|t| t.cache_hits + t.cache_partial_hits).sum();
            self.counter(CounterKind::CacheHits, now, hits as f64);
        }
    }

    /// Samples the wasted-work ledger's byte total.
    fn sample_wasted(&mut self, time_secs: f64) {
        let bytes = self.report.wasted_work_bytes as f64;
        self.counter(CounterKind::WastedWork, time_secs, bytes);
    }

    // ---- shared steps ----

    /// Keeps `tenant`'s stream flowing while offered load remains.
    fn offer_next(&mut self, tenant: usize) {
        if self.offered < self.cfg.total_requests {
            let at = self.arrivals.next(tenant);
            let tenant = event_id(tenant);
            self.queue.push(at, EventKind::Arrival { tenant });
            self.offered += 1;
        }
    }

    /// A fresh per-run request id for one of `tenant`'s requests.
    fn next_tag(&mut self, tenant: usize) -> Tag {
        let request = self.next_trace_id;
        self.next_trace_id += 1;
        Tag { tenant, request }
    }

    /// Counts one of `tenant`'s requests as expired in the queue.
    fn record_expired(&mut self, tenant: usize) {
        self.report.tenants[tenant]
            .outcomes
            .record(RequestOutcome::ExpiredInQueue);
        self.digest.push_all(&[0xE1, tenant as u64]);
    }

    /// Expires the arrivals coalesced onto a primary that will now never
    /// complete (it expired in the queue or its stage was aborted):
    /// nothing else would ever complete them.
    fn cancel_waiters(&mut self, tenant: usize, arrival_secs: f64) {
        if self.cache.enabled() {
            for _waiter in self.cache.cancel(tenant, arrival_secs) {
                self.record_expired(tenant);
            }
        }
    }

    /// Tallies one of `tenant`'s completions into the report and the
    /// latency predictor, narrates it to the sink, and returns its
    /// outcome.
    fn complete(
        &mut self,
        tenant: usize,
        arrival_secs: f64,
        latency: RequestLatency,
        host_bytes: u64,
        switch_bytes: u64,
    ) -> RequestOutcome {
        let total = latency.total();
        if self.predicting {
            self.predictor.observe(tenant, total);
        }
        // Strictly past the deadline only: completing at the exact
        // instant is still goodput (the same boundary in-queue expiry
        // uses). SLO violations are counted under every scheduler.
        let late = self.deadlines[tenant].is_some_and(|d| total > d);
        let violated = self.tenants[tenant].slo_secs.is_some_and(|b| total > b);
        let outcome = if late {
            RequestOutcome::ServedLate
        } else {
            RequestOutcome::Served
        };
        let report = &mut self.report;
        let t = &mut report.tenants[tenant];
        t.outcomes.record(outcome);
        t.latency.record(total);
        if !late {
            t.goodput_latency.record(total);
        }
        t.queue_wait.record(latency.queue_secs);
        if violated {
            t.slo_violations += 1;
        }
        t.board_secs += latency.board_secs();
        if late {
            // A completion the client abandoned is pure wasted work:
            // the whole board visit and every byte it moved.
            report.wasted_secs += latency.board_secs();
            report.wasted_work_bytes += host_bytes + switch_bytes;
        }
        report.stages.record(&latency);
        report.stall.accumulate(&StallBreakdown::of(&latency));
        if self.sink.enabled() {
            self.sink.complete(CompletedRequest {
                tenant,
                arrival_secs,
                latency,
                host_bytes,
                switch_bytes,
                outcome,
            });
        }
        outcome
    }

    /// [`SchedKind::SloAware`]'s reconfiguration gate: closed while
    /// `tenant` is warm and its predicted p99 is within its SLO budget,
    /// so steady in-budget traffic stops paying ICAP stalls and the
    /// fabric reprograms only when a tenant is about to miss. A cold
    /// tenant always passes: a fresh deployment needs its first
    /// configuration. Every other scheduler never closes it.
    fn slo_gate_closed(&self, tenant: usize) -> bool {
        let budget = || {
            self.tenants[tenant]
                .slo_secs
                .unwrap_or(SchedKind::FALLBACK_SLO_SECS)
        };
        self.slo_gated
            && self.predictor.is_warm(tenant)
            && self.predictor.predicted_p99(tenant) <= budget()
    }

    /// A DMA transfer on `board` over `[now, end]` that starts while the
    /// fabric is busy is pipeline overlap. (The symmetric case — the
    /// fabric starting under a transfer — is accounted in
    /// [`start_fabric`](Run::start_fabric).)
    fn dma_overlap(&mut self, board: usize, now: f64, end: f64) {
        if !self.pool.fabric_free(board) {
            self.report.overlap_secs += (end.min(self.pool.fabric_until(board)) - now).max(0.0);
        }
    }

    /// Prices a fabric pass of `tenant`'s `workload` on `board`: the
    /// deferred reconfiguration toward `best` — unless the SLO gate
    /// ([`slo_gate_closed`](Run::slo_gate_closed)) withholds it — then
    /// preprocessing under the resulting configuration. A partial cache
    /// hit reuses the cached fabric output and prices neither (callers
    /// skip it), so the visit keeps the saved cost it copied out of the
    /// entry; otherwise the entry this visit refills saves future hits
    /// the pass just paid.
    fn fabric_pass(
        &mut self,
        tenant: usize,
        workload: &Workload,
        best: HwConfig,
        board: usize,
    ) -> FabricPass {
        let mut reconfig_secs = 0.0;
        if !self.slo_gate_closed(tenant) {
            if let Some(stall) = self
                .memo
                .maybe_reconfigure(tenant, workload, best, self.pool, board)
            {
                reconfig_secs = stall;
                self.report.reconfig_secs += stall;
                self.report.tenants[tenant].reconfigs += 1;
                self.digest.push(0x2C);
                if self.tag_boards {
                    self.digest.push(board as u64);
                }
            }
        }
        FabricPass {
            reconfig_secs,
            preprocess_secs: self.memo.fabric_secs(tenant, workload, self.pool, board),
        }
    }

    // ---- event handlers: `expire` runs before each `on_*`, which returns
    // whether a dispatch pass follows ----

    /// In-queue expiry: before handling the event, drop every queued
    /// request whose deadline has (strictly) passed — it can no longer
    /// dispatch, so no board work is wasted on it. Coalesced duplicates
    /// parked on an expired primary expire with it.
    fn expire(&mut self, now: f64) {
        if !self.deadlines_on {
            return;
        }
        let mut expired = std::mem::take(&mut self.expired);
        self.sched.expire(now, &self.deadlines, &mut expired);
        let any = !expired.is_empty();
        for rq in expired.drain(..) {
            self.record_expired(rq.tenant);
            let tag = self.next_tag(rq.tenant);
            self.span(Track::Queue, SpanKind::Cancelled, tag, rq.arrival_secs, now);
            self.cancel_waiters(rq.tenant, rq.arrival_secs);
        }
        self.expired = expired;
        if any {
            self.sample_depth(now);
        }
    }

    /// A request of `tenant` arrives: the cache consult, then bounded
    /// admission.
    fn on_arrival(&mut self, now: f64, tenant: usize) -> bool {
        self.digest.push_all(&[0xA1, tenant as u64, now.to_bits()]);
        self.offer_next(tenant);
        // The cache consult, before the request ever queues: a fresh
        // entry whose graph is still board-resident completes at lookup
        // cost without a board slot; a duplicate of an in-flight request
        // parks on that primary (hit-under-miss). Only the cache reads
        // the drift bucket here.
        let mut cache_bucket = None;
        if self.cache.enabled() {
            let costs = self
                .memo
                .bucket_costs(tenant, &self.tenants[tenant], now, self.pool);
            let bucket = costs.bucket;
            cache_bucket = Some(bucket);
            self.cache.observe(tenant, bucket, costs.coo_bytes);
            let resident = self.pool.resident_boards(tenant).next().is_some();
            if self.cache.full_hit(tenant, bucket, resident).is_some() {
                self.report.tenants[tenant].cache_hits += 1;
                self.digest.push_all(&[0xCA, tenant as u64]);
                self.sample_cache_hits(now);
                // Served at lookup cost: no board stage runs and no trace
                // id is drawn (it narrates no span), so the stage fields
                // stay zero and `workload`/`best` are never priced.
                let visit = self.visits.insert(Visit {
                    tenant,
                    board: 0,
                    trace_id: u64::MAX,
                    arrival_secs: now,
                    dispatch_secs: now,
                    workload: costs.workload,
                    best: self.pool.config(0),
                    download_secs: 0.0,
                    inference_secs: 0.0,
                    upload_secs: 0.0,
                    ingest_done_secs: 0.0,
                    fabric_start_secs: 0.0,
                    fabric_done_secs: 0.0,
                    handoff_start_secs: 0.0,
                    reconfig_secs: 0.0,
                    preprocess_secs: 0.0,
                    host_bytes: 0,
                    switch_bytes: 0,
                    bucket,
                    graph_bytes: 0,
                    cum_delta: 0,
                    entry_preprocess_secs: 0.0,
                    partial: false,
                    cached: true,
                });
                self.queue
                    .push(now + CACHE_LOOKUP_SECS, EventKind::ServiceDone { visit });
                return false;
            }
            if self.cache.park(tenant, bucket, now) {
                self.report.tenants[tenant].cache_coalesced += 1;
                self.digest.push_all(&[0xC0, tenant as u64]);
                return false;
            }
        }
        // Bounded admission: the scheduler's refusal (shared queue full,
        // or a per-tenant quota exhausted) is the drop path — counted,
        // never silently lost.
        if !self.sched.admit(Request {
            tenant,
            arrival_secs: now,
        }) {
            self.report.tenants[tenant]
                .outcomes
                .record(RequestOutcome::DroppedAtAdmission);
            self.digest.push(0xD0);
            return false;
        }
        if let Some(bucket) = cache_bucket {
            // Admitted: duplicate arrivals of the same bucket may now
            // coalesce onto this primary until its completion fills the
            // cache. (Dropped arrivals never register, so waiters cannot
            // be orphaned.)
            self.cache.register(tenant, bucket, now);
        }
        self.sample_depth(now);
        true
    }

    /// Board `board` finished a graph-delta ingest (pipelined mode): the
    /// request enters the fabric if it is idle, otherwise parks in the
    /// staging buffer, and the freed DMA engine drains any waiting
    /// hand-off.
    fn on_ingest_done(&mut self, now: f64, board: usize) -> bool {
        let rq = self.visits.get_mut(self.pool.end_ingest(board));
        rq.ingest_done_secs = now;
        let tenant = rq.tenant;
        self.digest.push_all(&[0x16, tenant as u64, board as u64]);
        self.start_fabric(board, now);
        self.start_handoff(board, now);
        true
    }

    /// Board `board`'s fabric finished preprocessing (pipelined mode):
    /// the hand-off queues for the DMA engine, and the earliest staged
    /// request acquires the fabric immediately.
    fn on_fabric_done(&mut self, now: f64, board: usize) -> bool {
        let rq = self.visits.get_mut(self.pool.end_fabric(board));
        rq.fabric_done_secs = now;
        let tenant = rq.tenant;
        self.digest.push_all(&[0xFB, tenant as u64, board as u64]);
        self.start_handoff(board, now);
        self.start_fabric(board, now);
        true
    }

    /// The outbound switch leg of a migration finished: the source
    /// board's DMA engine stops streaming the graph out and frees.
    fn on_migration_done(&mut self, now: f64, board: usize) -> bool {
        self.pool.release_dma(board);
        self.digest.push_all(&[0x37, board as u64]);
        if self.cfg.overlap {
            self.start_handoff(board, now);
        }
        true
    }

    /// A request completed: record its latency and outcome, free its
    /// board, and refill its cache entry.
    fn on_service_done(&mut self, now: f64, visit: Handle) -> bool {
        let rq = self.visits.remove(visit);
        let (tenant, board, latency) = (rq.tenant, rq.board, rq.latency());
        let outcome = self.complete(
            tenant,
            rq.arrival_secs,
            latency,
            rq.host_bytes,
            rq.switch_bytes,
        );
        if outcome == RequestOutcome::ServedLate {
            self.sample_wasted(now);
        }
        self.digest
            .push_all(&[0x5D, tenant as u64, latency.total().to_bits()]);
        if rq.cached {
            // A cache-served completion never held a board: nothing to
            // release, no entry to refill.
            self.report.duration_secs = now;
            return false;
        }
        if self.tag_boards {
            self.digest.push(board as u64);
        }
        if self.cfg.overlap {
            self.pool.end_handoff(board);
            self.start_handoff(board, now);
        } else {
            self.pool.release(board);
        }
        self.report.duration_secs = now;
        if self.cache.enabled() {
            // Refill the tenant's cache entry from this board-served
            // completion and drain any arrivals that coalesced onto it
            // while it was in flight. The entry's service cost
            // substitutes the *paid* preprocess share with the entry's
            // own (a partial hit paid 0 but reuses an entry worth
            // `saved`).
            let service_secs = latency.board_secs() - latency.preprocess_secs
                + rq.entry_preprocess_secs
                + latency.inference_secs;
            let waiters = self.cache.fill(
                tenant,
                rq.bucket,
                rq.graph_bytes,
                rq.cum_delta,
                rq.entry_preprocess_secs,
                service_secs,
                rq.arrival_secs,
            );
            for waited_since in waiters {
                let wl = RequestLatency {
                    cache_secs: now - waited_since,
                    ..RequestLatency::default()
                };
                self.complete(tenant, waited_since, wl, 0, 0);
                self.digest
                    .push_all(&[0xCE, tenant as u64, wl.total().to_bits()]);
            }
        }
        true
    }

    /// A dispatched request's deadline passed (pipelined mode): abort it
    /// if it still waits on a stage that has not started.
    fn on_deadline_expired(&mut self, now: f64, handle: Handle, tag: u64) -> bool {
        // Tag guard against slab recycling: only a live payload whose
        // trace id matches is still this request — anything else means
        // it already completed (or aborted) and the slot moved on.
        let Some(board) = self
            .visits
            .try_get(handle)
            .filter(|rq| rq.trace_id == tag)
            .map(|rq| rq.board)
        else {
            return false;
        };
        // A started stage always runs to completion: only a request
        // still *waiting* — in the staging buffer for the fabric, or in
        // the hand-off queue for the DMA engine — can be abandoned.
        if !self.pool.abort(board, handle) {
            return false;
        }
        let rq = self.visits.remove(handle);
        self.report.tenants[rq.tenant]
            .outcomes
            .record(RequestOutcome::Aborted);
        // The abort writes off everything the board already paid: the
        // ingest, plus the reconfiguration and fabric pass once the
        // hand-off was queued.
        self.report.wasted_secs += rq.upload_secs + rq.reconfig_secs + rq.preprocess_secs;
        self.report.wasted_work_bytes += rq.host_bytes + rq.switch_bytes;
        self.digest
            .push_all(&[0xAB, rq.tenant as u64, board as u64]);
        self.span(
            Track::Queue,
            SpanKind::Cancelled,
            rq.tag(),
            rq.dispatch_secs,
            now,
        );
        self.sample_wasted(now);
        // The abort orphans the in-flight primary: its coalesced
        // duplicates expire with it.
        self.cancel_waiters(rq.tenant, rq.arrival_secs);
        // The freed staging slot may let the board accept a queued
        // request.
        true
    }

    /// The faster leg of `tenant`'s hedged dispatch completed: the
    /// cancelled leg's board frees. Both engines were held as one serial
    /// visit, but `release` would also count a completion the loser
    /// never made.
    fn on_hedge_won(&mut self, now: f64, board: usize, tenant: usize) -> bool {
        self.pool.release_dma(board);
        self.pool.release_fabric(board);
        self.report.tenants[tenant]
            .outcomes
            .record(RequestOutcome::HedgeLoser);
        self.digest.push_all(&[0x4F, tenant as u64, board as u64]);
        self.report.duration_secs = now;
        true
    }

    // ---- dispatch ----

    /// Dispatches while boards are free and work waits. Each pass offers
    /// the scheduler's scan order to placement; placement and the
    /// dispatch policy pick the (request, board) pair.
    fn dispatch(&mut self, now: f64) {
        while self.pool.any_free() && !self.sched.is_empty() {
            let placer = Placer {
                tenants: self.tenants,
                cfg: self.cfg,
                queue: self.sched.scan(),
                memo: &mut self.memo,
                pool: self.pool,
                now,
            };
            let Some(placement) = placer.select() else {
                break;
            };
            let (position, board) = match placement {
                Placement::Serve { position, board } => (position, board),
                Placement::Migrating { position, board } => {
                    // SplitHot overflow: the queue outgrew its threshold
                    // with every affine board busy, so the front request
                    // claims an idle board instead.
                    self.digest.push_all(&[0x51, board as u64]);
                    (position, board)
                }
            };
            let request = self.sched.take(position);
            self.sample_depth(now);
            let rq = self.begin_visit(request, board, now);
            if self.cfg.overlap {
                self.dispatch_pipelined(rq, now);
            } else {
                self.dispatch_serial(rq, now);
            }
        }
    }

    /// The dispatch prefix both lifecycles share: the request's trace id
    /// and queue span, its memoized costs, its classification against
    /// the result cache, and its ingest source — the upload delta, or a
    /// migration from a peer board's DRAM.
    fn begin_visit(&mut self, request: Request, board: usize, now: f64) -> Visit {
        let Request {
            tenant,
            arrival_secs,
        } = request;
        // The request id its spans share; the queue span closes here
        // (arrival → dispatch — the admission scheduler's share of the
        // latency, cf. the sched module docs).
        let tag = self.next_tag(tenant);
        self.span(Track::Queue, SpanKind::Queue, tag, arrival_secs, now);
        let costs = self
            .memo
            .bucket_costs(tenant, &self.tenants[tenant], now, self.pool);
        let (bucket, coo_bytes) = (costs.bucket, costs.coo_bytes);

        // Classify the dispatch against the result cache: a fresh entry
        // lets this request skip preprocessing (partial hit — residency
        // lapsed between arrival and dispatch or the entry landed while
        // this request queued); otherwise it is the miss that will refill
        // the entry at completion.
        let (saved, cum_delta) = if self.cache.enabled() {
            self.cache.observe(tenant, bucket, coo_bytes);
            let saved = self.cache.serve_partial(tenant, bucket);
            if saved.is_some() {
                self.report.tenants[tenant].cache_partial_hits += 1;
                self.digest.push_all(&[0xCF, tenant as u64, board as u64]);
                self.sample_cache_hits(now);
            } else {
                self.report.tenants[tenant].cache_misses += 1;
            }
            (saved, self.cache.cum_delta(tenant))
        } else {
            (None, 0)
        };

        // The ingest source: a cold tenant pulls its graph from a peer
        // board's DRAM over the PCIe switch when the policy allows and an
        // idle-DMA peer holds a copy; everything else (warm or no peer)
        // ingests from the host as before.
        let source = if self.cfg.migrate.pulls_from_peers()
            && self.pool.resident_bytes(board, tenant) == 0
        {
            self.pool.peer_source(tenant, board)
        } else {
            None
        };
        let (host_bytes, switch_bytes, switch_secs) = match source {
            Some(source) => {
                let transfer = self.pool.migrate_ingest(board, source, tenant, coo_bytes);
                let switch_secs = self.switch.transfer_secs(transfer.switch_bytes);
                let done = now + switch_secs;
                // The outbound leg holds the source board's DMA engine
                // until `MigrationDone` releases it.
                self.pool.occupy_dma(source, now, done);
                if self.cfg.overlap {
                    self.dma_overlap(source, now, done);
                }
                self.digest
                    .push_all(&[0x39, tenant as u64, board as u64, source as u64]);
                let track = on_board(source, BoardResource::Dma);
                self.span(track, SpanKind::MigrateOut, tag, now, done);
                self.queue.push(
                    done,
                    EventKind::MigrationDone {
                        board: event_id(source),
                    },
                );
                (transfer.host_bytes, transfer.switch_bytes, switch_secs)
            }
            None => (self.pool.upload_delta(board, tenant, coo_bytes), 0, 0.0),
        };
        // Residency moved (upload delta or migrated prefix): sample the
        // board's DRAM occupancy.
        if self.sink.enabled() {
            let bytes = self.pool.resident_total_bytes(board) as f64;
            self.counter(CounterKind::ResidentBytes { board }, now, bytes);
        }

        // The ingest leg prices the host bytes; a migration adds its
        // switch leg on top (the peer prefix crossing board-to-board).
        let upload_secs = switch_secs + self.pcie.transfer_secs(host_bytes);
        let ingest_done_secs = now + upload_secs;
        Visit {
            tenant,
            board,
            trace_id: tag.request,
            arrival_secs,
            dispatch_secs: now,
            workload: costs.workload,
            best: costs.best,
            download_secs: costs.download_secs,
            inference_secs: costs.inference_secs,
            upload_secs,
            ingest_done_secs,
            fabric_start_secs: ingest_done_secs,
            fabric_done_secs: ingest_done_secs,
            handoff_start_secs: ingest_done_secs,
            reconfig_secs: 0.0,
            preprocess_secs: 0.0,
            host_bytes,
            switch_bytes,
            bucket,
            graph_bytes: coo_bytes,
            cum_delta,
            entry_preprocess_secs: saved.unwrap_or(0.0),
            partial: saved.is_some(),
            cached: false,
        }
    }

    /// Pipelined dispatch: occupy only the DMA engine; the fabric (and
    /// the reconfiguration decision) waits until the delta has landed.
    fn dispatch_pipelined(&mut self, rq: Visit, now: f64) {
        let (board, done) = (rq.board, rq.ingest_done_secs);
        let handle = self.visits.insert(rq);
        self.pool.start_ingest(board, handle, now, done);
        self.dma_overlap(board, now, done);
        self.digest
            .push_all(&[0x1D, rq.tenant as u64, board as u64]);
        let track = on_board(board, BoardResource::Dma);
        self.span(track, SpanKind::Ingest, rq.tag(), now, done);
        self.queue.push(
            done,
            EventKind::IngestDone {
                board: event_id(board),
            },
        );
        if let Some(d) = self.deadlines[rq.tenant] {
            // Stage-abort alarm: if the request still waits on an
            // unstarted stage when this pops, its slot is abandoned.
            // Tagged with the trace id so a recycled slab slot cannot be
            // mis-aborted.
            self.queue.push(
                rq.arrival_secs + d,
                EventKind::DeadlineExpired {
                    visit: handle,
                    tag: rq.trace_id,
                },
            );
        }
    }

    /// Serial dispatch: the board pays every stage back to back and both
    /// slots stay held — the PR 1/PR 2 schedule bit-for-bit. The
    /// lifecycle is priced analytically under the board's (possibly new)
    /// configuration: the PCIe legs are divisions, the fabric report
    /// comes from the memo. A partial cache hit still ingests the delta
    /// and hands the subgraph off but skips the fabric pass.
    fn dispatch_serial(&mut self, mut rq: Visit, now: f64) {
        if !rq.partial {
            let pass = self.fabric_pass(rq.tenant, &rq.workload, rq.best, rq.board);
            rq.charge(pass);
        }
        let win = match self.hedge_board(&rq, now) {
            Some(second) => self.race(rq, second, now),
            None => rq,
        };
        let done = win.serial_done();
        self.pool.occupy(win.board, now, done);
        // Serial mode runs the stages back to back under both slots, so
        // the whole timeline is known at dispatch: ICAP stall, then the
        // DMA ingest, the fabric pass, and the hand-off closing at
        // `done`. Only the winning leg is narrated; a cancelled hedge
        // leg appears as one `Cancelled` span (see [`race`](Run::race)).
        if self.sink.enabled() {
            use BoardResource::{Dma, Fabric, Icap};
            let tag = win.tag();
            let on = |resource| on_board(win.board, resource);
            let ingest_at = now + win.reconfig_secs;
            let fabric_at = ingest_at + win.upload_secs;
            let pass_end = fabric_at + win.preprocess_secs;
            let handoff_at = done - win.download_secs;
            if win.reconfig_secs > 0.0 {
                self.span(on(Icap), SpanKind::Reconfig, tag, now, ingest_at);
            }
            self.span(on(Dma), SpanKind::Ingest, tag, ingest_at, fabric_at);
            self.span(on(Fabric), SpanKind::Preprocess, tag, fabric_at, pass_end);
            self.span(on(Dma), SpanKind::Handoff, tag, handoff_at, done);
        }
        let visit = self.visits.insert(win);
        self.queue.push(done, EventKind::ServiceDone { visit });
    }

    /// The board a hedged dispatch re-offers `rq` to: once its queue
    /// wait has outrun its tenant's predicted tail, a second free board
    /// (see the module docs). `Off` — the default — never hedges.
    fn hedge_board(&self, rq: &Visit, now: f64) -> Option<usize> {
        let HedgeKind::Latency { factor } = self.cfg.hedge else {
            return None;
        };
        let wait = now - rq.arrival_secs;
        if self.predictor.is_warm(rq.tenant)
            && wait > factor * self.predictor.predicted_p99(rq.tenant)
        {
            self.pool.free_indices().find(|&b| b != rq.board)
        } else {
            None
        }
    }

    /// Races the priced `primary` visit against a hedge leg on board
    /// `second` and returns the winning visit; the loser's board stays
    /// occupied until it can free. The hedge leg ingests from the host
    /// onto the second board's *current* bitstream — no reconfiguration,
    /// no migration: the bet is a cheap second chance, not a second ICAP
    /// switch.
    fn race(&mut self, primary: Visit, second: usize, now: f64) -> Visit {
        let tenant = primary.tenant;
        self.digest.push_all(&[0x4E, tenant as u64, second as u64]);
        let host_bytes = self.pool.upload_delta(second, tenant, primary.graph_bytes);
        let preprocess_secs = self
            .memo
            .fabric_secs(tenant, &primary.workload, self.pool, second);
        let hedge = Visit {
            board: second,
            reconfig_secs: 0.0,
            upload_secs: self.pcie.transfer_secs(host_bytes),
            preprocess_secs,
            host_bytes,
            switch_bytes: 0,
            entry_preprocess_secs: preprocess_secs,
            ..primary
        };
        // Ties keep the primary — placement picked it.
        let (win, lose) = if hedge.serial_done() < primary.serial_done() {
            (hedge, primary)
        } else {
            (primary, hedge)
        };
        // A losing primary's *started* reconfiguration still runs to
        // completion, so its board frees only once both the cancellation
        // and the ICAP stall have passed.
        let free_at = win.serial_done().max(now + lose.reconfig_secs);
        self.report.wasted_secs += free_at - now;
        self.report.wasted_work_bytes += lose.host_bytes + lose.switch_bytes;
        self.pool.occupy(lose.board, now, free_at);
        self.queue.push(
            free_at,
            EventKind::HedgeWon {
                board: event_id(lose.board),
                tenant: event_id(tenant),
            },
        );
        self.span(Track::Queue, SpanKind::Cancelled, win.tag(), now, free_at);
        self.sample_wasted(free_at);
        win
    }

    /// Moves the front staged request into board `board`'s fabric at
    /// `now` if the fabric is idle: prices its fabric pass
    /// ([`fabric_pass`](Run::fabric_pass)) into its slab record and
    /// schedules `FabricDone`.
    fn start_fabric(&mut self, board: usize, now: f64) {
        let Some(handle) = self.pool.next_staged(board) else {
            return;
        };
        let rq = self.visits.get(handle);
        if !rq.partial {
            let (tenant, workload, best) = (rq.tenant, rq.workload, rq.best);
            let pass = self.fabric_pass(tenant, &workload, best, board);
            self.visits.get_mut(handle).charge(pass);
        }
        let rq = self.visits.get_mut(handle);
        rq.fabric_start_secs = now;
        let (tag, reconfig_secs) = (rq.tag(), rq.reconfig_secs);
        let stall_end = now + reconfig_secs;
        let done = stall_end + rq.preprocess_secs;
        self.pool.start_fabric(board, handle, now, done);
        if reconfig_secs > 0.0 {
            let track = on_board(board, BoardResource::Icap);
            self.span(track, SpanKind::Reconfig, tag, now, stall_end);
        }
        let track = on_board(board, BoardResource::Fabric);
        self.span(track, SpanKind::Preprocess, tag, stall_end, done);
        // The fabric starting under an in-flight DMA transfer is
        // pipeline overlap (the symmetric case is `Run::dma_overlap`).
        if !self.pool.dma_free(board) {
            self.report.overlap_secs += (done.min(self.pool.dma_until(board)) - now).max(0.0);
        }
        self.queue.push(
            done,
            EventKind::FabricDone {
                board: event_id(board),
            },
        );
    }

    /// Starts the next queued subgraph hand-off on board `board`'s DMA
    /// engine if it is idle, scheduling the request's `ServiceDone`. The
    /// transfer and inference tail were priced into the [`Visit`] record
    /// at dispatch, so this path performs no cost-model work.
    fn start_handoff(&mut self, board: usize, now: f64) {
        let Some(visit) = self.pool.next_handoff(board) else {
            return;
        };
        let rq = self.visits.get_mut(visit);
        rq.handoff_start_secs = now;
        let (done, tag) = (now + rq.download_secs, rq.tag());
        self.pool.occupy_dma(board, now, done);
        let track = on_board(board, BoardResource::Dma);
        self.span(track, SpanKind::Handoff, tag, now, done);
        self.dma_overlap(board, now, done);
        self.queue.push(done, EventKind::ServiceDone { visit });
    }
}

/// Where (and how) the next dispatch lands.
enum Placement {
    /// Serve queue `position` on `board` — the request's placement-policy
    /// pick, ingesting from the host or a warm local copy.
    Serve { position: usize, board: usize },
    /// [`MigratePolicy::SplitHot`] overflow: serve queue `position` on
    /// idle `board` even though the request's affine/home board is busy —
    /// the tenant's graph migrates in from a peer when one holds a copy.
    Migrating { position: usize, board: usize },
}

/// What one placement decision reads: the scheduler's scan order —
/// arrival order under [`SchedKind::Fifo`], the deficit-round-robin fair
/// order under [`SchedKind::WeightedFair`] — plus the run state placement
/// consults. Placement reads the scheduler's preference as a hint and
/// positions index back into the scan, which the scheduler rebuilds per
/// call, so a dispatch pass takes it once.
struct Placer<'r> {
    tenants: &'r [TenantSpec],
    cfg: &'r ServeConfig,
    queue: &'r [Request],
    memo: &'r mut CostMemo,
    pool: &'r BoardPool,
    now: f64,
}

impl Placer<'_> {
    /// The library-optimal configuration for `request`'s tenant now.
    fn best(&mut self, request: &Request) -> HwConfig {
        let spec = &self.tenants[request.tenant];
        self.memo
            .bucket_costs(request.tenant, spec, self.now, self.pool)
            .best
    }

    /// Picks the next dispatch, or `None` when no placement is currently
    /// possible (e.g. every home board of every queued request is busy
    /// under [`PlacementPolicy::TenantAffine`] and the migration policy
    /// keeps them waiting).
    fn select(mut self) -> Option<Placement> {
        let queue = self.queue;
        match self.cfg.placement {
            // The home board of the earliest-arrived dispatchable request
            // serves; the dispatch policy then picks among the requests
            // homed to that board (a home board never serves foreign
            // tenants, so the reconfig-aware scan is restricted to its
            // own backlog).
            PlacementPolicy::TenantAffine => {
                let boards = self.pool.size();
                let home = |r: &Request| r.tenant % boards;
                let Some(board) = queue.iter().map(home).find(|&home| self.pool.is_free(home))
                else {
                    // Every home board is busy: wait, unless the queue
                    // has outgrown the SplitHot threshold.
                    return self.split_overflow();
                };
                let position = self.pick_for_board(board, |r| home(r) == board)?;
                Some(Placement::Serve { position, board })
            }
            // The least-loaded free board serves; its dispatch policy
            // picks the request — with one board this is exactly the PR 1
            // scheduler.
            PlacementPolicy::LeastLoaded => {
                let board = self.pool.least_loaded_free()?;
                let position = self.pick_for_board(board, |_| true)?;
                Some(Placement::Serve { position, board })
            }
            // Route a request to a board already holding its bitstream. A
            // request whose bitstream lives on a *busy* board waits for it
            // (bounded by the starvation guard) instead of reprogramming
            // an idle board — that restraint is what turns
            // reconfigurations into routing decisions. Only a bitstream no
            // board holds claims the least-loaded free board and pays one
            // switch.
            PlacementPolicy::BitstreamAffine => {
                let starvation_guard_secs = match self.cfg.policy {
                    // FIFO promises strict arrival order, so the affinity
                    // scan must not overtake: placement only picks the
                    // front request's board (a zero starvation bound).
                    DispatchPolicy::Fifo => 0.0,
                    DispatchPolicy::ReconfigAware => DispatchPolicy::STARVATION_GUARD_SECS,
                };
                let front = &queue[0];
                if self.now - front.arrival_secs >= starvation_guard_secs {
                    let front_best = self.best(front);
                    let board = self
                        .pool
                        .free_with_config(front_best)
                        .or_else(|| self.pool.least_loaded_free())?;
                    return Some(Placement::Serve { position: 0, board });
                }
                // Pass 1: the earliest request whose optimal bitstream is
                // already programmed on a free board (with one board this
                // is exactly the PR 1 reconfig-aware queue scan).
                for (position, r) in queue.iter().enumerate() {
                    let best = self.best(r);
                    if let Some(board) = self.pool.free_with_config(best) {
                        return Some(Placement::Serve { position, board });
                    }
                }
                // Pass 2: the earliest request whose bitstream no board
                // holds claims the least-loaded free board.
                for (position, r) in queue.iter().enumerate() {
                    let best = self.best(r);
                    if !self.pool.any_with_config(best) {
                        let board = self.pool.least_loaded_free()?;
                        return Some(Placement::Serve { position, board });
                    }
                }
                // Every queued bitstream is held by a busy board: wait for
                // it — unless the queue has outgrown the SplitHot
                // threshold, in which case the hot tenant splits onto an
                // idle board.
                self.split_overflow()
            }
        }
    }

    /// The SplitHot fallback when every queued request is waiting for a
    /// busy affine/home board: once the queue outgrows the policy
    /// threshold, the front request claims the least-loaded free board
    /// as a [`Placement::Migrating`] dispatch instead of waiting.
    fn split_overflow(&self) -> Option<Placement> {
        let threshold = self.cfg.migrate.split_threshold()?;
        if self.queue.len() < threshold {
            return None;
        }
        let board = self.pool.least_loaded_free()?;
        Some(Placement::Migrating { position: 0, board })
    }

    /// The queue position `board` serves next under the configured
    /// dispatch policy (PR 1's pick, parameterized by the board's
    /// bitstream), scanning only requests `eligible` admits —
    /// `TenantAffine` placement restricts the scan to the board's own
    /// tenants, everything else passes all. `None` when no queued request
    /// is eligible.
    fn pick_for_board(
        &mut self,
        board: usize,
        eligible: impl Fn(&Request) -> bool,
    ) -> Option<usize> {
        let queue = self.queue;
        let front_pos = queue.iter().position(&eligible)?;
        match self.cfg.policy {
            DispatchPolicy::Fifo => Some(front_pos),
            DispatchPolicy::ReconfigAware => {
                if self.now - queue[front_pos].arrival_secs >= DispatchPolicy::STARVATION_GUARD_SECS
                {
                    return Some(front_pos);
                }
                let current = self.pool.config(board);
                queue
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| eligible(r))
                    .find(|(_, r)| self.best(r) == current)
                    .map(|(position, _)| position)
                    .or(Some(front_pos))
            }
        }
    }
}

/// Entries kept per tenant in the [`CostMemo`] keyed caches. In-flight
/// requests from older drift buckets are bounded by the pipeline depth
/// (at most a few per board), so a small cap never thrashes; eviction
/// only costs a recompute, never correctness.
const COST_MEMO_CAP: usize = 16;

/// The drift-bucket row of one tenant's memoized pure costs, copied out
/// by value at dispatch.
#[derive(Debug, Clone, Copy)]
struct BucketCosts {
    /// The drift bucket ([`TenantSpec::drift_bucket`]) these costs
    /// belong to.
    bucket: u64,
    /// The bucket's workload (what [`TenantSpec::workload_at`] returns
    /// for any `now` inside the bucket).
    workload: Workload,
    /// [`Workload::coo_bytes`] — the full-graph upload size.
    coo_bytes: u64,
    /// The hand-off transfer's seconds: [`Workload::subgraph_bytes`]
    /// over the boards' PCIe link.
    download_secs: f64,
    /// [`GpuInferenceModel::analytic_inference_secs`] under the tenant's
    /// GNN for this bucket's subgraph.
    inference_secs: f64,
    /// The library-optimal configuration ([`CostModel::choose_config`]),
    /// which the dispatch scan re-reads for every queued request inside
    /// a drift step. Sound pool-wide: all boards search the same
    /// bitstream library.
    best: HwConfig,
}

/// One tenant's memo: the current drift-bucket row plus small keyed
/// caches for config-dependent results (which must key on the *request's*
/// workload — a pipelined request can reach the fabric after its tenant
/// drifted into a newer bucket).
#[derive(Debug)]
struct TenantMemo {
    /// The current drift bucket's costs and the simulated time (as
    /// `f64` bits) they were last looked up at (`None` until first
    /// touched). The bucket is a pure function of the time, so a lookup
    /// at the same instant — every queued request of a tenant in one
    /// dispatch pass, the arrival and dispatch of an unqueued request —
    /// skips [`TenantSpec::drift_bucket`].
    bucket: Option<(u64, BucketCosts)>,
    /// The last [`fabric_secs`](CostMemo::fabric_secs) key and value,
    /// checked before hashing: consecutive fabric passes of a tenant
    /// mostly repeat it.
    last_stage: Option<(Workload, HwConfig, f64)>,
    /// `(workload, config) → fabric preprocessing seconds` (the
    /// [`BoardPool::stage_secs`] total). An
    /// [`FxHashMap`] — the multiply-rotate hash is deterministic across
    /// processes (no `RandomState` seed) and a fraction of SipHash's cost
    /// on these small `Copy` keys, and the map is only ever probed by
    /// key, never iterated, so hash order cannot leak into the schedule.
    stages: FxHashMap<(Workload, HwConfig), f64>,
    /// `(workload, current, best) → should-reconfigure verdict`. Same
    /// [`FxHashMap`] rationale as `stages`.
    verdicts: FxHashMap<(Workload, HwConfig, HwConfig), bool>,
}

/// Memo of the pure cost-model quantities the event loop re-derives on
/// every dispatch: the drift-bucket workload (`powf` drift factors), the
/// neighborhood-expansion sums behind `subgraph_*`, the analytic fabric
/// report, and the reconfiguration-policy estimates. Every cached value
/// is the exact number the underlying call would produce for the same
/// inputs, so the memo moves wall-clock only — the schedule, latencies
/// and trace digest are untouched (the golden-digest pins in
/// `tests/serve_traffic.rs` hold through it).
#[derive(Debug)]
struct CostMemo {
    step_secs: f64,
    inference: GpuInferenceModel,
    rows: Vec<TenantMemo>,
}

impl CostMemo {
    fn new(tenant_count: usize, step_secs: f64) -> Self {
        CostMemo {
            step_secs,
            inference: GpuInferenceModel::default(),
            rows: (0..tenant_count)
                .map(|_| TenantMemo {
                    bucket: None,
                    last_stage: None,
                    stages: FxHashMap::default(),
                    verdicts: FxHashMap::default(),
                })
                .collect(),
        }
    }

    /// The memoized drift-bucket row for `tenant` at `now`, rebuilt on a
    /// bucket miss (one workload construction, two expansion passes and
    /// one library search per tenant per drift step, instead of per
    /// dispatch). The bucket itself is derived once per tenant and
    /// simulated instant.
    fn bucket_costs(
        &mut self,
        index: usize,
        tenant: &TenantSpec,
        now: f64,
        pool: &BoardPool,
    ) -> BucketCosts {
        let at = now.to_bits();
        let row = &mut self.rows[index];
        if let Some((looked_up, costs)) = row.bucket {
            if looked_up == at {
                return costs;
            }
        }
        let bucket = tenant.drift_bucket(now, self.step_secs);
        match row.bucket {
            Some((_, costs)) if costs.bucket == bucket => {
                row.bucket = Some((at, costs));
                costs
            }
            _ => {
                let workload = tenant.workload_at(now, self.step_secs);
                let costs = BucketCosts {
                    bucket,
                    workload,
                    coo_bytes: workload.coo_bytes(),
                    download_secs: pool.pcie().transfer_secs(workload.subgraph_bytes()),
                    inference_secs: self.inference.analytic_inference_secs(
                        &tenant.gnn,
                        workload.subgraph_nodes(),
                        workload.subgraph_edges(),
                    ),
                    best: CostModel.choose_config(&workload, pool.library()),
                };
                row.bucket = Some((at, costs));
                costs
            }
        }
    }

    /// [`BoardPool::stage_secs`] under board `board`'s current
    /// configuration, memoized per
    /// `(workload, config)` — sound pool-wide because every board shares
    /// one fabric timing model.
    fn fabric_secs(
        &mut self,
        index: usize,
        workload: &Workload,
        pool: &BoardPool,
        board: usize,
    ) -> f64 {
        let config = pool.config(board);
        let row = &mut self.rows[index];
        if let Some((w, c, secs)) = row.last_stage {
            if w == *workload && c == config {
                return secs;
            }
        }
        let secs = match row.stages.get(&(*workload, config)) {
            Some(&secs) => secs,
            None => {
                let secs = pool.stage_secs(board, workload);
                if row.stages.len() >= COST_MEMO_CAP {
                    // Wholesale clear instead of per-entry LRU: the cap is
                    // only reached when a tenant straddles a drift
                    // boundary, and every evicted value is an exact
                    // recompute away.
                    row.stages.clear();
                }
                row.stages.insert((*workload, config), secs);
                secs
            }
        };
        row.last_stage = Some((*workload, config, secs));
        secs
    }

    /// Reprograms board `board` to `best` when it differs from the
    /// board's configuration and [`ReconfigPolicy::should_reconfigure`]
    /// approves, returning the stall seconds. The verdict is memoized per
    /// `(workload, current, best)`; only a `true` verdict touches the
    /// board (through [`BoardPool::apply_reconfigure`]).
    fn maybe_reconfigure(
        &mut self,
        index: usize,
        workload: &Workload,
        best: HwConfig,
        pool: &mut BoardPool,
        board: usize,
    ) -> Option<f64> {
        let current = pool.config(board);
        if best == current {
            return None;
        }
        let row = &mut self.rows[index];
        let verdict = match row.verdicts.get(&(*workload, current, best)) {
            Some(&verdict) => verdict,
            None => {
                let verdict = pool.policy().should_reconfigure(workload, current, best);
                if row.verdicts.len() >= COST_MEMO_CAP {
                    row.verdicts.clear();
                }
                row.verdicts.insert((*workload, current, best), verdict);
                verdict
            }
        };
        verdict.then(|| pool.apply_reconfigure(board, best))
    }
}

/// Runs one simulation over `tenants` with `config`.
pub fn simulate(tenants: Vec<TenantSpec>, config: ServeConfig) -> TrafficReport {
    let mut sim = TrafficSim::new(tenants, config);
    sim.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use agnn_graph::datasets::Dataset;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Whether each tenant's SLO gate is closed once a fresh run over
    /// tenants with SLO `budgets`, under `scheduler` with hedging on, has
    /// completed requests of the given `(tenant, latency seconds)`.
    fn gate_after(
        scheduler: SchedKind,
        budgets: &[Option<f64>],
        completions: &[(usize, f64)],
    ) -> Vec<bool> {
        let tenants = budgets
            .iter()
            .map(|&slo_secs| TenantSpec {
                slo_secs,
                ..TenantSpec::new("t", Dataset::Movie, 1.0)
            })
            .collect();
        let cfg = ServeConfig {
            scheduler,
            boards: 2,
            hedge: HedgeKind::latency(),
            ..ServeConfig::default()
        };
        let mut sim = TrafficSim::new(tenants, cfg);
        let TrafficSim {
            tenants,
            config,
            pool,
        } = &mut sim;
        let mut sink = NullSink;
        let mut run = Run::new(tenants, pool, config, &mut sink);
        for &(tenant, secs) in completions {
            let latency = RequestLatency {
                preprocess_secs: secs,
                ..RequestLatency::default()
            };
            run.complete(tenant, 0.0, latency, 0, 0);
        }
        (0..budgets.len()).map(|t| run.slo_gate_closed(t)).collect()
    }

    /// `n` completions of `tenant` at `secs` each.
    fn steady(tenant: usize, secs: f64, n: usize) -> Vec<(usize, f64)> {
        vec![(tenant, secs); n]
    }

    #[test]
    fn cold_tenants_always_pass_the_gate() {
        let gate = gate_after(SchedKind::SloAware, &[Some(1.0), Some(1.0)], &[]);
        assert_eq!(gate, [false, false]);
    }

    #[test]
    fn within_budget_traffic_closes_the_gate() {
        let gate = gate_after(SchedKind::SloAware, &[Some(1.0)], &steady(0, 0.1, 50));
        assert_eq!(gate, [true], "comfortably inside the SLO");
        // A tenant declaring no budget is held to the fallback.
        let gate = gate_after(SchedKind::SloAware, &[None], &steady(0, 0.1, 50));
        assert_eq!(gate, [true]);
        let gate = gate_after(SchedKind::SloAware, &[None], &steady(0, 1.5, 50));
        assert_eq!(gate, [false], "above the 1 s fallback budget");
    }

    #[test]
    fn a_building_tail_reopens_the_gate() {
        let mut completions = steady(0, 0.5, 20);
        let gate = gate_after(SchedKind::SloAware, &[Some(1.0)], &completions);
        assert_eq!(gate, [true]);
        completions.extend(steady(0, 3.0, 20));
        let gate = gate_after(SchedKind::SloAware, &[Some(1.0)], &completions);
        assert_eq!(gate, [false], "SLO breach reopens the gate");
    }

    #[test]
    fn budgets_are_per_tenant() {
        let mut completions = steady(0, 1.0, 30);
        completions.extend(steady(1, 1.0, 30));
        let gate = gate_after(SchedKind::SloAware, &[Some(0.2), Some(5.0)], &completions);
        assert_eq!(gate, [false, true], "1 s breaches 0.2 s but clears 5 s");
    }

    /// Hedging warms the one predictor under every scheduler, but only
    /// `SloAware` reads it as a gate.
    #[test]
    fn fifo_never_gates_reconfigurations() {
        for scheduler in [SchedKind::Fifo, SchedKind::weighted_fair()] {
            let gate = gate_after(scheduler, &[Some(1.0)], &steady(0, 0.1, 50));
            assert_eq!(gate, [false], "{scheduler:?}");
        }
    }

    /// The reference FNV-1a: one XOR and one multiply per little-endian
    /// byte of the word.
    fn fnv1a_bytewise(state: u64, word: u64) -> u64 {
        word.to_le_bytes().iter().fold(state, |h, &byte| {
            (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME)
        })
    }

    /// Pushes `word` onto a digest at `state` and checks it against the
    /// reference, returning the new state.
    fn check_push(state: u64, word: u64) -> u64 {
        let mut digest = TraceDigest(state);
        digest.push(word);
        assert_eq!(digest.0, fnv1a_bytewise(state, word), "word {word:#x}");
        digest.0
    }

    #[test]
    fn digest_push_equals_bytewise_fnv1a() {
        let mut state = TraceDigest::new().0;
        for word in 0..1u64 << 16 {
            state = check_push(state, word);
        }
        for bit in 0..64 {
            state = check_push(state, 1 << bit);
        }
        let mut rng = StdRng::seed_from_u64(0xF17A);
        for _ in 0..100_000 {
            // Random words of every byte length, and random f64 bits.
            let word: u64 = rng.gen();
            let bytes = rng.gen_range(0..9u32);
            let word = if bytes == 8 {
                word
            } else {
                word & ((1 << (8 * bytes)) - 1)
            };
            state = check_push(state, word);
            state = check_push(state, rng.gen::<f64>().to_bits());
        }
        for word in [u64::MAX, 0xFF, 0x100, 1 << 63] {
            check_push(state, word);
        }
    }
}
