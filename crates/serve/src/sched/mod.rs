//! The pluggable admission/dispatch scheduler.
//!
//! PR 1–4 baked the admission queue into the simulator as a single
//! FIFO-bounded `VecDeque`: one bursty tenant could fill the shared queue
//! and starve everyone else, and every dispatch paid whatever
//! reconfiguration the cost model asked for. This module extracts that
//! core into a [`SchedPolicy`] trait owning the three decisions the event
//! loop delegates:
//!
//! - **enqueue/drop** ([`SchedPolicy::admit`]) — whether an arriving
//!   request is queued or refused (per-tenant quotas live here);
//! - **pick order** ([`SchedPolicy::scan`] / [`SchedPolicy::take`]) — the
//!   order in which queued requests are offered to placement/dispatch;
//! - **reconfiguration gating** ([`SchedPolicy::allow_reconfig`]) —
//!   whether a dispatch may pay an ICAP stall right now.
//!
//! Three policies implement it:
//!
//! - [`queue::Fifo`] — the pre-refactor scheduler, **bit-for-bit**: one
//!   bounded queue in arrival order, drop on overflow, reconfigure
//!   whenever the cost model clears its gain threshold. Every golden
//!   trace digest pinned in `tests/serve_traffic.rs` is reproduced
//!   exactly (the *Fifo-equivalence invariant* — see below).
//! - [`wfq::WeightedFair`] — deficit-round-robin over per-tenant queues
//!   with per-tenant weights ([`crate::tenant::TenantSpec::weight`]) and
//!   a per-tenant quota, under a bounded aggregate depth. A bursty
//!   aggressor can only ever occupy its quota and its weight's share of
//!   service; victims keep their latency.
//! - [`slo::SloAware`] — FIFO order plus a per-tenant latency EWMA: a
//!   dispatch may only trigger a bitstream reconfiguration when the
//!   tenant's predicted p99 (EWMA mean + z·stddev, queueing included)
//!   exceeds its SLO budget, so steady within-budget traffic stops paying
//!   ICAP stalls.
//!
//! # The Fifo-equivalence invariant
//!
//! [`SchedKind::Fifo`] must schedule **identically** to the pre-refactor
//! `VecDeque` path: same admissions, same drops, same scan order offered
//! to placement, `allow_reconfig` always true. The simulator's
//! event loop was refactored so that, under `Fifo`, every operation maps
//! one-to-one onto the old queue ops — which is why the PR 1–4 golden
//! digests (and the CI perf baselines) survive this refactor unchanged.
//!
//! # Tracing the scheduler's share of latency
//!
//! The queue-wait interval this module controls — [`SchedPolicy::admit`]
//! to [`SchedPolicy::take`] — is exactly the queue span the event loop
//! emits into a [`crate::trace::TraceSink`]
//! ([`crate::trace::SpanKind::Queue`] on [`crate::trace::Track::Queue`],
//! emitted by `sim.rs` at dispatch), and the `queue_secs` component of
//! the report's stall attribution ([`crate::metrics::StallBreakdown`]).
//! Comparing that component across [`SchedKind`]s is how "the scheduler
//! is (not) the bottleneck" is read off a report.
//!
//! # Scan/take contract
//!
//! [`SchedPolicy::scan`] returns the queued requests in the policy's
//! offer order; [`SchedPolicy::take`] removes by *scan position* and must
//! be called before any other mutation invalidates the mapping (the event
//! loop always scans and takes back to back). Position 0 is the request
//! the policy most wants served; a dispatch policy that picks a later
//! position (reconfig-aware batching) is overriding the scheduler, and
//! the policy accounts for it (WFQ charges the tenant's deficit).

pub mod predictor;
pub mod queue;
pub mod slo;
pub mod wfq;

use crate::metrics::RequestLatency;
use crate::tenant::TenantSpec;

pub use predictor::LatencyPredictor;
pub use queue::Fifo;
pub use slo::SloAware;
pub use wfq::WeightedFair;

/// One admitted request waiting for dispatch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Tenant index (declaration order).
    pub tenant: usize,
    /// Arrival time in simulated seconds.
    pub arrival_secs: f64,
}

/// The scheduler's enqueue/drop/pick/reconfig-gate decisions, extracted
/// from the event loop (see the [module docs](self)).
pub trait SchedPolicy {
    /// Stable lowercase identifier used in reports and benchmark IDs.
    fn name(&self) -> &'static str;

    /// Offers an arriving request; `false` means it is dropped (queue
    /// full, or the tenant's quota exhausted) — the caller accounts the
    /// drop.
    fn admit(&mut self, request: Request) -> bool;

    /// Number of queued requests.
    fn len(&self) -> usize;

    /// True when nothing is queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The queued requests in the policy's offer order (position 0 is the
    /// scheduler's preferred next pick). Valid until the next mutation.
    fn scan(&mut self) -> &[Request];

    /// Removes and returns the request at `position` of the **most
    /// recent** [`scan`](SchedPolicy::scan) order.
    fn take(&mut self, position: usize) -> Request;

    /// Removes every queued request whose deadline has passed —
    /// `now - arrival_secs > deadlines[tenant]`, where `deadlines` is
    /// indexed by tenant and `None` entries never expire — appending
    /// them to `expired` (reused across calls so the hot loop never
    /// allocates). Policy bookkeeping must match a hypothetical take of
    /// each dead request **without charging service** for it: an
    /// expired request consumed nothing, so a WFQ tenant's deficit is
    /// untouched unless the expiry drains its queue (which resets it,
    /// like any drain). The event loop only calls this when some tenant
    /// actually carries a deadline, so deadline-free runs never touch
    /// the path — the deadline Off-equivalence invariant. The default
    /// removes nothing (correct only for a policy holding no queue);
    /// every bundled policy overrides it.
    fn expire(&mut self, now: f64, deadlines: &[Option<f64>], expired: &mut Vec<Request>) {
        let _ = (now, deadlines, expired);
    }

    /// Whether a dispatch for `tenant` may pay a bitstream
    /// reconfiguration right now. The default never gates — exactly the
    /// pre-refactor behavior.
    fn allow_reconfig(&self, tenant: usize, now: f64) -> bool {
        let _ = (tenant, now);
        true
    }

    /// Observes a completed request (latency feedback for SLO tracking).
    fn on_complete(&mut self, tenant: usize, latency: &RequestLatency, now: f64) {
        let _ = (tenant, latency, now);
    }
}

/// Which scheduler a simulation runs — the `Copy` configuration form of
/// the [`SchedPolicy`] implementations ([`SchedKind::instantiate`]
/// builds one).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum SchedKind {
    /// The pre-refactor bounded FIFO queue, bit-for-bit (the
    /// Fifo-equivalence invariant pins every golden trace digest).
    #[default]
    Fifo,
    /// Deficit-round-robin weighted fair queueing over per-tenant queues
    /// (weights from [`TenantSpec::weight`]), each tenant bounded by
    /// `per_tenant_quota` inside the aggregate queue capacity.
    WeightedFair {
        /// Most requests one tenant may hold queued; arrivals beyond it
        /// are dropped *for that tenant only* — a burst cannot evict
        /// other tenants' backlog.
        per_tenant_quota: usize,
    },
    /// FIFO order plus SLO-driven reconfiguration gating: a dispatch may
    /// only reprogram the fabric when the tenant's predicted p99 (latency
    /// EWMA + z·stddev) exceeds its SLO budget
    /// ([`TenantSpec::slo_secs`], falling back to `default_slo_secs`).
    SloAware {
        /// SLO budget for tenants that do not declare their own.
        default_slo_secs: f64,
    },
}

/// The instantiated scheduler as a closed enum — the event loop's
/// devirtualized form of [`SchedPolicy`].
///
/// The hot dispatch loop calls `admit`/`scan`/`take`/`len` on every
/// event; routing those through a `Box<dyn SchedPolicy>` pays an
/// indirect call each time. This enum makes the dispatch a jump table
/// the compiler can inline through ([`SchedKind::instantiate`] builds
/// it). Behavior is identical — every method forwards to the same policy
/// implementation.
#[derive(Debug)]
pub enum Scheduler {
    /// The bounded arrival-order queue ([`queue::Fifo`]).
    Fifo(Fifo),
    /// Deficit-round-robin fair queueing ([`wfq::WeightedFair`]).
    WeightedFair(WeightedFair),
    /// SLO-gated FIFO ([`slo::SloAware`]).
    SloAware(SloAware),
}

impl SchedPolicy for Scheduler {
    #[inline]
    fn name(&self) -> &'static str {
        match self {
            Scheduler::Fifo(s) => s.name(),
            Scheduler::WeightedFair(s) => s.name(),
            Scheduler::SloAware(s) => s.name(),
        }
    }

    #[inline]
    fn admit(&mut self, request: Request) -> bool {
        match self {
            Scheduler::Fifo(s) => s.admit(request),
            Scheduler::WeightedFair(s) => s.admit(request),
            Scheduler::SloAware(s) => s.admit(request),
        }
    }

    #[inline]
    fn len(&self) -> usize {
        match self {
            Scheduler::Fifo(s) => s.len(),
            Scheduler::WeightedFair(s) => s.len(),
            Scheduler::SloAware(s) => s.len(),
        }
    }

    #[inline]
    fn scan(&mut self) -> &[Request] {
        match self {
            Scheduler::Fifo(s) => s.scan(),
            Scheduler::WeightedFair(s) => s.scan(),
            Scheduler::SloAware(s) => s.scan(),
        }
    }

    #[inline]
    fn take(&mut self, position: usize) -> Request {
        match self {
            Scheduler::Fifo(s) => s.take(position),
            Scheduler::WeightedFair(s) => s.take(position),
            Scheduler::SloAware(s) => s.take(position),
        }
    }

    #[inline]
    fn expire(&mut self, now: f64, deadlines: &[Option<f64>], expired: &mut Vec<Request>) {
        match self {
            Scheduler::Fifo(s) => s.expire(now, deadlines, expired),
            Scheduler::WeightedFair(s) => s.expire(now, deadlines, expired),
            Scheduler::SloAware(s) => s.expire(now, deadlines, expired),
        }
    }

    #[inline]
    fn allow_reconfig(&self, tenant: usize, now: f64) -> bool {
        match self {
            Scheduler::Fifo(s) => s.allow_reconfig(tenant, now),
            Scheduler::WeightedFair(s) => s.allow_reconfig(tenant, now),
            Scheduler::SloAware(s) => s.allow_reconfig(tenant, now),
        }
    }

    #[inline]
    fn on_complete(&mut self, tenant: usize, latency: &RequestLatency, now: f64) {
        match self {
            Scheduler::Fifo(s) => s.on_complete(tenant, latency, now),
            Scheduler::WeightedFair(s) => s.on_complete(tenant, latency, now),
            Scheduler::SloAware(s) => s.on_complete(tenant, latency, now),
        }
    }
}

impl SchedKind {
    /// The weighted-fair preset: a 64-request per-tenant quota — deep
    /// enough to absorb a diurnal swell, shallow enough that one tenant
    /// can never own a 512-deep aggregate queue.
    pub fn weighted_fair() -> Self {
        SchedKind::WeightedFair {
            per_tenant_quota: 64,
        }
    }

    /// The SLO-aware preset: a 1-second default p99 budget (interactive
    /// serving; tenants override via [`TenantSpec::slo_secs`]).
    pub fn slo_aware() -> Self {
        SchedKind::SloAware {
            default_slo_secs: 1.0,
        }
    }

    /// Stable lowercase identifier used in reports and benchmark IDs.
    pub fn name(&self) -> &'static str {
        match self {
            SchedKind::Fifo => "fifo",
            SchedKind::WeightedFair { .. } => "wfq",
            SchedKind::SloAware { .. } => "slo",
        }
    }

    /// Instantiates the scheduler for a deployment of `tenants` under an
    /// aggregate queue bound of `capacity`: the [`Scheduler`] enum the
    /// event loop dispatches on statically.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero, a weighted-fair quota is zero, or a
    /// tenant weight / SLO budget is not positive and finite.
    pub fn instantiate(&self, tenants: &[TenantSpec], capacity: usize) -> Scheduler {
        assert!(capacity > 0, "queue capacity must be positive");
        match *self {
            SchedKind::Fifo => Scheduler::Fifo(Fifo::new(capacity)),
            SchedKind::WeightedFair { per_tenant_quota } => {
                Scheduler::WeightedFair(WeightedFair::new(
                    tenants.iter().map(|t| t.weight).collect(),
                    capacity,
                    per_tenant_quota,
                ))
            }
            SchedKind::SloAware { default_slo_secs } => Scheduler::SloAware(SloAware::new(
                tenants
                    .iter()
                    .map(|t| t.slo_secs.unwrap_or(default_slo_secs))
                    .collect(),
                capacity,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agnn_graph::datasets::Dataset;

    fn tenants(n: usize) -> Vec<TenantSpec> {
        (0..n)
            .map(|i| TenantSpec::new(format!("t{i}"), Dataset::Movie, 1.0))
            .collect()
    }

    #[test]
    fn kind_names_and_presets_are_stable() {
        assert_eq!(SchedKind::default(), SchedKind::Fifo);
        assert_eq!(SchedKind::Fifo.name(), "fifo");
        assert_eq!(SchedKind::weighted_fair().name(), "wfq");
        assert_eq!(SchedKind::slo_aware().name(), "slo");
        assert_eq!(
            SchedKind::weighted_fair(),
            SchedKind::WeightedFair {
                per_tenant_quota: 64
            }
        );
        assert_eq!(
            SchedKind::slo_aware(),
            SchedKind::SloAware {
                default_slo_secs: 1.0
            }
        );
    }

    #[test]
    fn build_instantiates_each_policy() {
        let ts = tenants(3);
        for kind in [
            SchedKind::Fifo,
            SchedKind::weighted_fair(),
            SchedKind::slo_aware(),
        ] {
            let mut sched = kind.instantiate(&ts, 8);
            assert_eq!(sched.name(), kind.name());
            assert!(sched.is_empty());
            assert!(sched.admit(Request {
                tenant: 0,
                arrival_secs: 0.0
            }));
            assert_eq!(sched.len(), 1);
            assert_eq!(sched.scan().len(), 1);
            let rq = sched.take(0);
            assert_eq!(rq.tenant, 0);
            assert!(sched.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "queue capacity")]
    fn zero_capacity_is_rejected() {
        SchedKind::Fifo.instantiate(&tenants(1), 0);
    }
}
