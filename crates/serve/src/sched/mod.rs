//! The pluggable admission/dispatch scheduler.
//!
//! PR 1–4 baked the admission queue into the simulator as a single
//! FIFO-bounded `VecDeque`: one bursty tenant could fill the shared queue
//! and starve everyone else. This module extracts that core into a
//! [`SchedPolicy`] trait owning the two queue decisions the event loop
//! delegates:
//!
//! - **enqueue/drop** ([`SchedPolicy::admit`]) — whether an arriving
//!   request is queued or refused (per-tenant quotas live here);
//! - **pick order** ([`SchedPolicy::scan`] / [`SchedPolicy::take`]) — the
//!   order in which queued requests are offered to placement/dispatch.
//!
//! Two policies implement it:
//!
//! - [`queue::Fifo`] — the pre-refactor scheduler, **bit-for-bit**: one
//!   bounded queue in arrival order, drop on overflow. Every golden
//!   trace digest pinned in `tests/serve_traffic.rs` is reproduced
//!   exactly (the *Fifo-equivalence invariant* — see below).
//! - [`wfq::WeightedFair`] — deficit-round-robin over per-tenant queues
//!   with per-tenant weights ([`crate::tenant::TenantSpec::weight`]) and
//!   a per-tenant quota, under a bounded aggregate depth. A bursty
//!   aggressor can only ever occupy its quota and its weight's share of
//!   service; victims keep their latency.
//!
//! [`SchedKind::SloAware`] queues through [`queue::Fifo`]; what sets it
//! apart is the reconfiguration gate, which the simulator's run state owns
//! together with the one [`LatencyPredictor`] feeding it and the hedge
//! trigger (see `crate::sim`, "The scheduler seam"): a queue decides
//! order, the run decides what a dispatch may pay.
//!
//! # The Fifo-equivalence invariant
//!
//! [`SchedKind::Fifo`] must schedule **identically** to the pre-refactor
//! `VecDeque` path: same admissions, same drops, same scan order offered
//! to placement. The simulator's event loop was refactored so that,
//! under `Fifo`, every operation maps one-to-one onto the old queue ops —
//! which is why the PR 1–4 golden digests (and the CI perf baselines)
//! survive this refactor unchanged.
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
pub mod wfq;

use crate::tenant::TenantSpec;

pub use predictor::LatencyPredictor;
pub use queue::Fifo;
pub use wfq::WeightedFair;

/// One admitted request waiting for dispatch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Tenant index (declaration order).
    pub tenant: usize,
    /// Arrival time in simulated seconds.
    pub arrival_secs: f64,
}

/// The scheduler's enqueue/drop/pick decisions, extracted from the event
/// loop (see the [module docs](self)).
pub trait SchedPolicy {
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
    /// FIFO queueing plus SLO-driven reconfiguration gating: a dispatch
    /// may not reprogram the fabric while the tenant is warm and its
    /// predicted p99 ([`LatencyPredictor`]) is within its SLO budget
    /// ([`TenantSpec::slo_secs`], falling back to
    /// [`SchedKind::FALLBACK_SLO_SECS`]). The simulator's run state
    /// applies the gate; the queue is [`Fifo`].
    SloAware,
}

/// The instantiated scheduler as a closed enum — the event loop's
/// devirtualized form of [`SchedPolicy`].
///
/// The hot dispatch loop calls `admit`/`scan`/`take`/`len` on every
/// event; routing those through a `Box<dyn SchedPolicy>` pays an
/// indirect call each time. This enum makes the dispatch a jump table
/// the compiler can inline through ([`SchedKind::instantiate`] builds
/// it). Behavior is identical — every method forwards to the same policy
/// implementation. The larger weighted-fair state is boxed, so the
/// enum stays the size of a FIFO queue plus a tag.
#[derive(Debug)]
pub enum Scheduler {
    /// The bounded arrival-order queue ([`queue::Fifo`]).
    Fifo(Fifo),
    /// Deficit-round-robin fair queueing ([`wfq::WeightedFair`]).
    WeightedFair(Box<WeightedFair>),
}

impl SchedPolicy for Scheduler {
    #[inline]
    fn admit(&mut self, request: Request) -> bool {
        match self {
            Scheduler::Fifo(s) => s.admit(request),
            Scheduler::WeightedFair(s) => s.admit(request),
        }
    }

    #[inline]
    fn len(&self) -> usize {
        match self {
            Scheduler::Fifo(s) => s.len(),
            Scheduler::WeightedFair(s) => s.len(),
        }
    }

    #[inline]
    fn scan(&mut self) -> &[Request] {
        match self {
            Scheduler::Fifo(s) => s.scan(),
            Scheduler::WeightedFair(s) => s.scan(),
        }
    }

    #[inline]
    fn take(&mut self, position: usize) -> Request {
        match self {
            Scheduler::Fifo(s) => s.take(position),
            Scheduler::WeightedFair(s) => s.take(position),
        }
    }

    #[inline]
    fn expire(&mut self, now: f64, deadlines: &[Option<f64>], expired: &mut Vec<Request>) {
        match self {
            Scheduler::Fifo(s) => s.expire(now, deadlines, expired),
            Scheduler::WeightedFair(s) => s.expire(now, deadlines, expired),
        }
    }
}

impl SchedKind {
    /// The [`SchedKind::SloAware`] p99 budget of a tenant that declares
    /// none: one second (interactive serving; tenants override it via
    /// [`TenantSpec::slo_secs`]).
    pub const FALLBACK_SLO_SECS: f64 = 1.0;

    /// The weighted-fair preset: a 64-request per-tenant quota — deep
    /// enough to absorb a diurnal swell, shallow enough that one tenant
    /// can never own a 512-deep aggregate queue.
    pub fn weighted_fair() -> Self {
        SchedKind::WeightedFair {
            per_tenant_quota: 64,
        }
    }

    /// Stable lowercase identifier used in reports and benchmark IDs.
    pub fn name(&self) -> &'static str {
        match self {
            SchedKind::Fifo => "fifo",
            SchedKind::WeightedFair { .. } => "wfq",
            SchedKind::SloAware => "slo",
        }
    }

    /// Instantiates the scheduler for a deployment of `tenants` under an
    /// aggregate queue bound of `capacity`: the [`Scheduler`] enum the
    /// event loop dispatches on statically.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero, a weighted-fair quota is zero, or a
    /// tenant weight is not positive and finite.
    pub fn instantiate(&self, tenants: &[TenantSpec], capacity: usize) -> Scheduler {
        assert!(capacity > 0, "queue capacity must be positive");
        match *self {
            SchedKind::Fifo | SchedKind::SloAware => Scheduler::Fifo(Fifo::new(capacity)),
            SchedKind::WeightedFair { per_tenant_quota } => {
                Scheduler::WeightedFair(Box::new(WeightedFair::new(
                    tenants.iter().map(|t| t.weight).collect(),
                    capacity,
                    per_tenant_quota,
                )))
            }
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
        assert_eq!(SchedKind::SloAware.name(), "slo");
        assert_eq!(
            SchedKind::weighted_fair(),
            SchedKind::WeightedFair {
                per_tenant_quota: 64
            }
        );
        assert_eq!(SchedKind::FALLBACK_SLO_SECS, 1.0);
    }

    #[test]
    fn build_instantiates_each_policy() {
        let ts = tenants(3);
        for kind in [
            SchedKind::Fifo,
            SchedKind::weighted_fair(),
            SchedKind::SloAware,
        ] {
            let mut sched = kind.instantiate(&ts, 8);
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
    fn queueing_behavior_is_fifo() {
        let mut s = SchedKind::SloAware.instantiate(&tenants(1), 2);
        let rq = |arrival_secs| Request {
            tenant: 0,
            arrival_secs,
        };
        assert!(s.admit(rq(1.0)));
        assert!(s.admit(rq(2.0)));
        assert!(!s.admit(rq(3.0)));
        assert_eq!(s.scan().len(), 2);
        assert_eq!(s.take(0).arrival_secs, 1.0);
    }

    #[test]
    #[should_panic(expected = "queue capacity")]
    fn zero_capacity_is_rejected() {
        SchedKind::Fifo.instantiate(&tenants(1), 0);
    }
}
