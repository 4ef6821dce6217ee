//! The subgraph result cache: delta-driven invalidation and in-flight
//! request coalescing.
//!
//! The cost model prices every request as if its sampled subgraph had to
//! be rebuilt from scratch, yet serving traffic is heavily repetitive:
//! inside one drift bucket a tenant's requests are *identical* — same
//! graph snapshot, same sampling parameters, same batch — so the
//! preprocessing work (and for a warm graph, the whole board visit) can
//! be reused. This module turns that static per-request pricing into an
//! online recompute-vs-reuse decision at the scheduler seam:
//!
//! - **Key.** A cached result is keyed on request identity — `(tenant,
//!   workload drift bucket, deployment seed)`. The simulator runs one
//!   seed per [`ResultCache`], so the cache keys on `(tenant, bucket)`
//!   with one live entry per tenant (a tenant's buckets are monotone;
//!   an older bucket can never be requested again).
//! - **Freshness.** An entry is validated against the *graph it was
//!   sampled from*, not the bucket counter: invalidation is driven by
//!   the graph-delta bytes accumulated since the entry was built.
//!   [`CacheKind::Exact`] demands the identical bucket (zero delta);
//!   [`CacheKind::Delta`] tolerates staleness up to `max_delta_frac` of
//!   the entry's graph size, so slow drift keeps serving from cache
//!   while fast drift (the `migration_drift` shape) blows the budget
//!   immediately and drives the hit rate to zero.
//! - **Full vs partial hits.** A fresh entry is a **full hit** only when
//!   [`crate::pool::BoardPool::resident_boards`] shows the source graph
//!   still warm on some board — the cached subgraph can be returned at
//!   [`CACHE_LOOKUP_SECS`] without occupying a board slot. A fresh entry
//!   whose graph has been evicted everywhere degrades to a **partial
//!   hit**: the request queues and pays its ingest, but skips the fabric
//!   preprocessing pass (and the reconfiguration the pass would force).
//! - **Coalescing (hit-under-miss).** While a tenant's request is in
//!   flight, duplicate arrivals of the same bucket park on the primary
//!   instead of queueing: they complete off the primary's `ServiceDone`
//!   event, the same multi-request event plumbing `MigrationDone` uses.
//!
//! [`CacheKind::Off`] (the default) disables every code path above; an
//! `Off` run replays the pre-cache schedule bit-for-bit — every golden
//! trace digest and CI baseline row is pinned through it.
//!
//! The cache is wired into [`crate::sim`] at three points: admission
//! (full hit / coalesce, before the request ever reaches
//! [`crate::sched::SchedPolicy::admit`]), dispatch (partial-hit
//! classification) and completion (entry fill + waiter drain). The run
//! counts hits, partial hits, misses and coalesced requests per tenant in
//! [`crate::metrics::TenantStats`]; [`crate::metrics::TrafficReport::cache`]
//! holds their sums beside the counters only the cache knows.

/// Simulated seconds a full cache hit costs end to end: the lookup plus
/// returning the cached subgraph from host memory. Deliberately orders of
/// magnitude below any board visit — a full hit never touches a board.
pub const CACHE_LOOKUP_SECS: f64 = 100e-6;

/// Result-cache policy, gated exactly like
/// [`crate::sched::SchedKind`] / [`crate::pool::MigratePolicy`]:
/// [`CacheKind::Off`] is the default and reproduces the pre-cache
/// schedules bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum CacheKind {
    /// No caching: every request recomputes. The golden-digest default.
    #[default]
    Off,
    /// Serve a cached result only for the *identical* drift bucket the
    /// entry was built in — exact workload identity, zero tolerated
    /// graph delta.
    Exact,
    /// Serve a cached result while the graph-delta bytes accumulated
    /// since the entry was built stay within `max_delta_frac` of the
    /// entry's graph size — bounded-staleness reuse across drift
    /// buckets. `0.0` is not [`CacheKind::Exact`]: it tolerates no
    /// changed byte, but keeps serving across a drift-bucket change
    /// that leaves the graph's bytes unchanged, where `Exact`
    /// invalidates.
    Delta {
        /// Tolerated accumulated delta, as a fraction of the entry's
        /// source-graph size (e.g. `0.05` = 5 % of the graph may have
        /// changed before the entry is invalidated).
        max_delta_frac: f64,
    },
}

impl CacheKind {
    /// The delta-invalidation preset: entries survive up to 5 % of
    /// accumulated graph change.
    pub fn delta() -> Self {
        CacheKind::Delta {
            max_delta_frac: 0.05,
        }
    }

    /// `true` unless the cache is [`CacheKind::Off`].
    pub fn enabled(&self) -> bool {
        *self != CacheKind::Off
    }

    /// Stable lowercase identifier (CLI flags, report rows).
    pub fn name(&self) -> &'static str {
        match self {
            CacheKind::Off => "off",
            CacheKind::Exact => "exact",
            CacheKind::Delta { .. } => "delta",
        }
    }

    /// The tolerated delta fraction: 0 for [`CacheKind::Exact`] (and
    /// [`CacheKind::Off`], which never serves), the configured budget
    /// for [`CacheKind::Delta`].
    pub fn max_delta_frac(&self) -> f64 {
        match *self {
            CacheKind::Off | CacheKind::Exact => 0.0,
            CacheKind::Delta { max_delta_frac } => max_delta_frac,
        }
    }
}

/// Aggregate cache counters of one run, reported in
/// [`crate::metrics::TrafficReport::cache`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CacheStats {
    /// Requests served entirely from cache at admission
    /// ([`CACHE_LOOKUP_SECS`], no board slot).
    pub hits: u64,
    /// Dispatched requests that skipped preprocessing against a fresh
    /// entry whose graph was no longer board-resident.
    pub partial_hits: u64,
    /// Dispatched requests that recomputed in full.
    pub misses: u64,
    /// Entries discarded because their accumulated graph delta outgrew
    /// the freshness budget.
    pub invalidations: u64,
    /// Duplicate in-flight arrivals parked on a primary request and
    /// completed off its `ServiceDone` (hit-under-miss).
    pub coalesced: u64,
    /// Board + inference seconds reuse avoided: full service time for
    /// every full hit and coalesced request, the preprocessing pass for
    /// every partial hit.
    pub recompute_secs_saved: f64,
    /// The largest accumulated-delta fraction any served (full or
    /// partial) hit carried — by construction never above the configured
    /// `max_delta_frac`, which is what the no-stale-serve property test
    /// asserts.
    pub max_served_delta_frac: f64,
}

impl CacheStats {
    /// Cache decisions taken: every request classified at the cache
    /// (full hits, partial hits, misses). Coalesced requests parked on a
    /// primary before reaching a decision and are excluded.
    pub fn lookups(&self) -> u64 {
        self.hits + self.partial_hits + self.misses
    }

    /// `(hits + partial_hits) / lookups`, 0 when the cache saw no
    /// traffic.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            0.0
        } else {
            (self.hits + self.partial_hits) as f64 / lookups as f64
        }
    }
}

/// One cached result: what was computed, from which graph snapshot, and
/// what recomputing it would cost.
#[derive(Debug, Clone, Copy)]
struct Entry {
    /// Drift bucket the entry was built in ([`CacheKind::Exact`]'s key).
    bucket: u64,
    /// Source-graph size (COO bytes) at build — the denominator of the
    /// delta-fraction freshness check.
    graph_bytes: u64,
    /// The tenant's accumulated delta counter when the subgraph was
    /// sampled (at dispatch of the filling request).
    cum_delta: u64,
    /// The fabric pass a partial hit skips.
    preprocess_secs: f64,
    /// The board + inference seconds a full hit (or coalesced waiter)
    /// avoids.
    service_secs: f64,
}

/// A primary request in flight between admission and `ServiceDone`,
/// identified by its arrival time (arrival streams never repeat a
/// timestamp within a tenant). Duplicate arrivals of the same bucket
/// park in `waiters`.
#[derive(Debug)]
struct Pending {
    arrival_bits: u64,
    bucket: u64,
    waiters: Vec<f64>,
}

/// Per-tenant cache state.
#[derive(Debug, Default)]
struct TenantCache {
    entry: Option<Entry>,
    /// Graph-delta bytes accumulated across every observed bucket
    /// transition since the run started.
    cum_delta: u64,
    /// Last observed `(bucket, coo_bytes)` — the reference point the
    /// next transition's delta is measured against.
    last: Option<(u64, u64)>,
    /// In-flight primaries, oldest first (a bucket change mid-flight can
    /// leave more than one outstanding).
    pending: Vec<Pending>,
}

/// The per-run subgraph result cache (see the [module docs](self) for
/// the lifecycle). Its [`CacheStats`] hold what only the cache sees —
/// invalidations, recompute saved, the largest served delta; the hit,
/// partial-hit, miss and coalesced counts are the caller's, read off each
/// call's return value.
#[derive(Debug)]
pub struct ResultCache {
    kind: CacheKind,
    rows: Vec<TenantCache>,
    stats: CacheStats,
}

impl ResultCache {
    /// An empty cache for `tenant_count` tenants under `kind`.
    pub fn new(kind: CacheKind, tenant_count: usize) -> Self {
        ResultCache {
            kind,
            rows: (0..tenant_count).map(|_| TenantCache::default()).collect(),
            stats: CacheStats::default(),
        }
    }

    /// `true` unless the policy is [`CacheKind::Off`].
    pub fn enabled(&self) -> bool {
        self.kind.enabled()
    }

    /// The run's invalidation and reuse counters so far; the hit,
    /// partial-hit, miss and coalesced counts stay zero here.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Records the tenant's current graph size: a bucket transition
    /// accumulates `|coo_bytes − previous|` into the tenant's delta
    /// counter. Deterministic — the sizes come from the drift model, not
    /// the schedule. Call on every cache touch so the counter tracks the
    /// drift the traffic actually exposes.
    pub fn observe(&mut self, tenant: usize, bucket: u64, coo_bytes: u64) {
        let row = &mut self.rows[tenant];
        match row.last {
            Some((last_bucket, last_bytes)) if last_bucket != bucket => {
                row.cum_delta += coo_bytes.abs_diff(last_bytes);
                row.last = Some((bucket, coo_bytes));
            }
            None => row.last = Some((bucket, coo_bytes)),
            _ => {}
        }
    }

    /// The tenant's accumulated delta counter (snapshotted into the
    /// completion record at dispatch, so the filled entry's freshness is
    /// measured from the graph the subgraph was actually sampled from).
    pub fn cum_delta(&self, tenant: usize) -> u64 {
        self.rows[tenant].cum_delta
    }

    /// The freshness check: `Some(delta_frac)` when the tenant's entry
    /// may still be served at `bucket`, `None` otherwise. A stale entry
    /// is discarded here (counted once as an invalidation).
    fn freshness(&mut self, tenant: usize, bucket: u64) -> Option<f64> {
        let cum_delta = self.rows[tenant].cum_delta;
        let entry = self.rows[tenant].entry.as_ref()?;
        let fresh = match self.kind {
            CacheKind::Off => false,
            CacheKind::Exact => entry.bucket == bucket,
            CacheKind::Delta { .. } => {
                cum_delta - entry.cum_delta
                    <= (self.kind.max_delta_frac() * entry.graph_bytes as f64) as u64
            }
        };
        if fresh {
            let delta = cum_delta - entry.cum_delta;
            Some(delta as f64 / entry.graph_bytes.max(1) as f64)
        } else {
            self.rows[tenant].entry = None;
            self.stats.invalidations += 1;
            None
        }
    }

    /// Admission-time full-hit check: `Some(service_secs_saved)` when a
    /// fresh entry exists **and** the source graph is still resident on
    /// some board, so the request completes at [`CACHE_LOOKUP_SECS`]
    /// without queueing. A fresh-but-evicted entry returns `None` and is
    /// kept for the partial-hit path at dispatch.
    pub fn full_hit(&mut self, tenant: usize, bucket: u64, resident: bool) -> Option<f64> {
        let frac = self.freshness(tenant, bucket)?;
        if !resident {
            return None;
        }
        let saved = self.rows[tenant].entry.as_ref().map(|e| e.service_secs)?;
        self.stats.recompute_secs_saved += saved;
        self.stats.max_served_delta_frac = self.stats.max_served_delta_frac.max(frac);
        Some(saved)
    }

    /// Parks a duplicate arrival on the oldest in-flight primary of the
    /// same bucket (hit-under-miss). `true` when parked — the request
    /// never queues and completes off the primary's `ServiceDone`.
    pub fn park(&mut self, tenant: usize, bucket: u64, arrival_secs: f64) -> bool {
        let row = &mut self.rows[tenant];
        let Some(primary) = row.pending.iter_mut().find(|p| p.bucket == bucket) else {
            return false;
        };
        primary.waiters.push(arrival_secs);
        true
    }

    /// Registers an admitted request as an in-flight primary — duplicate
    /// arrivals of the same bucket can now [`park`](Self::park) on it
    /// until its completion [`fill`](Self::fill)s the cache. Only
    /// admitted requests register: a dropped arrival must never orphan
    /// waiters.
    pub fn register(&mut self, tenant: usize, bucket: u64, arrival_secs: f64) {
        self.rows[tenant].pending.push(Pending {
            arrival_bits: arrival_secs.to_bits(),
            bucket,
            waiters: Vec::new(),
        });
    }

    /// Dispatch-time classification: `Some(preprocess_secs_saved)` when
    /// a fresh entry lets this board visit skip the fabric pass (a
    /// partial hit), `None` on a full recompute (a miss). Freshness is
    /// re-checked *here*, at serve time — drift while the request was
    /// queued invalidates, so a stale result is never served.
    pub fn serve_partial(&mut self, tenant: usize, bucket: u64) -> Option<f64> {
        let frac = self.freshness(tenant, bucket)?;
        let saved = self.rows[tenant]
            .entry
            .as_ref()
            .map(|e| e.preprocess_secs)?;
        self.stats.recompute_secs_saved += saved;
        self.stats.max_served_delta_frac = self.stats.max_served_delta_frac.max(frac);
        Some(saved)
    }

    /// Completion-time fill: (re)builds the tenant's entry from the
    /// completed request and drains every waiter parked on it, returning
    /// their arrival times (the simulator completes each at the
    /// primary's `ServiceDone` instant). `cum_delta` is the counter
    /// snapshotted at the filling request's dispatch — the graph its
    /// subgraph was sampled from.
    #[allow(clippy::too_many_arguments)]
    pub fn fill(
        &mut self,
        tenant: usize,
        bucket: u64,
        graph_bytes: u64,
        cum_delta: u64,
        preprocess_secs: f64,
        service_secs: f64,
        arrival_secs: f64,
    ) -> Vec<f64> {
        let row = &mut self.rows[tenant];
        row.entry = Some(Entry {
            bucket,
            graph_bytes,
            cum_delta,
            preprocess_secs,
            service_secs,
        });
        let arrival_bits = arrival_secs.to_bits();
        let waiters = match row
            .pending
            .iter()
            .position(|p| p.arrival_bits == arrival_bits)
        {
            Some(i) => row.pending.remove(i).waiters,
            None => Vec::new(),
        };
        self.stats.recompute_secs_saved += service_secs * waiters.len() as f64;
        waiters
    }

    /// Cancellation-time drain: removes the in-flight primary registered
    /// at `arrival_secs` — its request expired in queue or was aborted,
    /// so no completion will ever [`fill`](Self::fill) from it — and
    /// returns the arrival times of every waiter parked on it. The
    /// simulator expires those waiters alongside their primary (they
    /// were admitted as coalesced duplicates of a request that died, and
    /// nothing else will complete them). No-op `Vec::new()` when the
    /// primary is unknown.
    pub fn cancel(&mut self, tenant: usize, arrival_secs: f64) -> Vec<f64> {
        let row = &mut self.rows[tenant];
        let arrival_bits = arrival_secs.to_bits();
        match row
            .pending
            .iter()
            .position(|p| p.arrival_bits == arrival_bits)
        {
            Some(i) => row.pending.remove(i).waiters,
            None => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_is_the_default_and_disabled() {
        assert_eq!(CacheKind::default(), CacheKind::Off);
        assert!(!CacheKind::Off.enabled());
        assert!(CacheKind::Exact.enabled());
        assert!(CacheKind::delta().enabled());
        assert_eq!(CacheKind::Off.name(), "off");
        assert_eq!(CacheKind::Exact.name(), "exact");
        assert_eq!(CacheKind::delta().name(), "delta");
        assert_eq!(CacheKind::Exact.max_delta_frac(), 0.0);
        assert_eq!(CacheKind::delta().max_delta_frac(), 0.05);
        assert!(!ResultCache::new(CacheKind::Off, 1).enabled());
    }

    #[test]
    fn exact_entries_serve_their_bucket_and_die_on_the_next() {
        let mut cache = ResultCache::new(CacheKind::Exact, 1);
        cache.observe(0, 7, 1_000);
        assert!(cache.full_hit(0, 7, true).is_none(), "nothing cached yet");
        cache.fill(0, 7, 1_000, 0, 2.0, 5.0, 0.5);
        assert_eq!(cache.full_hit(0, 7, true), Some(5.0), "same bucket hits");
        assert_eq!(
            cache.full_hit(0, 7, false),
            None,
            "evicted graph degrades the hit"
        );
        assert_eq!(cache.serve_partial(0, 7), Some(2.0), "…to a partial");
        cache.observe(0, 8, 1_100);
        assert!(cache.full_hit(0, 8, true).is_none(), "bucket moved: stale");
        let stats = cache.stats();
        assert_eq!(stats.invalidations, 1);
        assert!((stats.recompute_secs_saved - 7.0).abs() < 1e-12);
    }

    #[test]
    fn delta_budget_tolerates_slow_drift_and_kills_fast_drift() {
        let mut cache = ResultCache::new(
            CacheKind::Delta {
                max_delta_frac: 0.10,
            },
            1,
        );
        cache.observe(0, 0, 10_000);
        cache.fill(0, 0, 10_000, 0, 2.0, 5.0, 0.5);
        // 5 % drift: inside the 10 % budget, still served across buckets.
        cache.observe(0, 1, 10_500);
        assert_eq!(cache.full_hit(0, 1, true), Some(5.0));
        let frac = cache.stats().max_served_delta_frac;
        assert!((frac - 0.05).abs() < 1e-12, "served at 5 % delta: {frac}");
        // Another 10 %: the accumulated 15 % blows the budget.
        cache.observe(0, 2, 11_500);
        assert!(cache.full_hit(0, 2, true).is_none());
        assert_eq!(cache.stats().invalidations, 1);
        assert!(cache.serve_partial(0, 2).is_none(), "stays dead once gone");
        assert_eq!(cache.stats().invalidations, 1, "a miss invalidates nothing");
        assert!(
            cache.stats().max_served_delta_frac <= 0.10,
            "no served hit ever exceeded the budget"
        );
    }

    #[test]
    fn coalescing_parks_on_the_primary_and_drains_at_fill() {
        let mut cache = ResultCache::new(CacheKind::Exact, 2);
        assert!(
            !cache.park(0, 3, 1.0),
            "no in-flight primary: nothing to park on"
        );
        cache.register(0, 3, 0.5);
        assert!(cache.park(0, 3, 1.0));
        assert!(cache.park(0, 3, 1.5));
        assert!(!cache.park(0, 4, 2.0), "a different bucket never coalesces");
        assert!(!cache.park(1, 3, 2.0), "tenants never share primaries");
        let waiters = cache.fill(0, 3, 1_000, 0, 2.0, 5.0, 0.5);
        assert_eq!(waiters, vec![1.0, 1.5]);
        assert!((cache.stats().recompute_secs_saved - 10.0).abs() < 1e-12);
        assert!(
            cache.fill(0, 3, 1_000, 0, 2.0, 5.0, 0.5).is_empty(),
            "a drained primary is gone"
        );
    }

    #[test]
    fn cancel_drains_the_primary_and_its_waiters() {
        let mut cache = ResultCache::new(CacheKind::Exact, 1);
        cache.register(0, 3, 0.5);
        assert!(cache.park(0, 3, 1.0));
        assert!(cache.park(0, 3, 1.5));
        assert_eq!(cache.cancel(0, 0.5), vec![1.0, 1.5]);
        assert!(
            !cache.park(0, 3, 2.0),
            "a cancelled primary no longer coalesces"
        );
        assert!(
            cache.fill(0, 3, 1_000, 0, 2.0, 5.0, 0.5).is_empty(),
            "a cancelled primary cannot be drained again"
        );
        assert!(cache.cancel(0, 9.0).is_empty(), "unknown primary: no-op");
    }

    #[test]
    fn observe_accumulates_transition_deltas() {
        let mut cache = ResultCache::new(CacheKind::delta(), 1);
        cache.observe(0, 0, 1_000);
        cache.observe(0, 0, 1_000); // same bucket: no delta
        assert_eq!(cache.cum_delta(0), 0);
        cache.observe(0, 1, 1_300);
        cache.observe(0, 3, 1_200); // shrink still counts as change
        assert_eq!(cache.cum_delta(0), 400);
    }

    #[test]
    fn stats_accumulate_and_rate_is_guarded() {
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        let stats = CacheStats {
            hits: 4,
            partial_hits: 1,
            misses: 4,
            coalesced: 2,
            ..CacheStats::default()
        };
        assert_eq!(stats.lookups(), 9, "coalesced requests are no lookups");
        assert!((stats.hit_rate() - 5.0 / 9.0).abs() < 1e-12);
    }
}
