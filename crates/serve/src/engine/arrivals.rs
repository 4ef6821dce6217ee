//! Per-tenant arrival streams.
//!
//! Arrival streams are **schedule-independent**: tenant `i`'s stream is
//! `t₀ = next_after(0, rngᵢ)`, `tₖ₊₁ = next_after(tₖ, rngᵢ)` with
//! `rngᵢ` derived only from the deployment seed
//! ([`TenantSpec::arrival_rng`]) — nothing the scheduler or the boards
//! do can perturb it. Each stream holds only its next arrival and draws
//! the one after when that arrival is consumed.

use rand::rngs::StdRng;

use crate::tenant::{ArrivalProcess, TenantSpec};

/// One tenant's arrival stream.
#[derive(Debug)]
struct Stream {
    arrival: ArrivalProcess,
    rng: StdRng,
    /// The next arrival time, already drawn.
    next: f64,
}

/// The pool of per-tenant arrival streams backing a simulation run —
/// the load every board reacts to.
#[derive(Debug)]
pub struct ArrivalSource {
    streams: Vec<Stream>,
}

impl ArrivalSource {
    /// Builds one stream per tenant from the deployment seed, drawing
    /// each tenant's first arrival.
    pub fn new(tenants: &[TenantSpec], seed: u64) -> Self {
        let streams = tenants
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let mut rng = t.arrival_rng(seed, i);
                let next = t.arrival.next_after(0.0, &mut rng);
                Stream {
                    arrival: t.arrival,
                    rng,
                    next,
                }
            })
            .collect();
        ArrivalSource { streams }
    }

    /// Consumes and returns `tenant`'s next arrival time. Infinite
    /// stream — the caller (the event loop's offered-load counter)
    /// decides when to stop consuming.
    #[inline]
    pub fn next(&mut self, tenant: usize) -> f64 {
        let s = &mut self.streams[tenant];
        let at = s.next;
        s.next = s.arrival.next_after(at, &mut s.rng);
        at
    }

    /// `tenant`'s next arrival time without consuming it.
    pub fn peek(&self, tenant: usize) -> f64 {
        self.streams[tenant].next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agnn_graph::datasets::Dataset;

    fn tenants() -> Vec<TenantSpec> {
        vec![
            TenantSpec::new("a", Dataset::Movie, 3.0),
            TenantSpec::new("b", Dataset::Arxiv, 1.0),
        ]
    }

    /// The digest-preserving property: the source yields exactly the
    /// `next_after` chain from the tenant's seeded generator, draw for
    /// draw.
    #[test]
    fn batched_stream_equals_on_demand_generation() {
        let ts = tenants();
        let mut src = ArrivalSource::new(&ts, 42);
        for (i, t) in ts.iter().enumerate() {
            let mut rng = t.arrival_rng(42, i);
            let mut at = 0.0;
            for k in 0..199 {
                at = t.arrival.next_after(at, &mut rng);
                let got = src.next(i);
                assert_eq!(got.to_bits(), at.to_bits(), "tenant {i} draw {k}");
            }
        }
    }

    #[test]
    fn peek_does_not_consume_and_next_tick_is_the_min() {
        let ts = tenants();
        let mut src = ArrivalSource::new(&ts, 7);
        let (a, b) = (src.peek(0), src.peek(1));
        assert_eq!(src.peek(0).to_bits(), a.to_bits(), "peek is idempotent");
        assert_eq!(src.next(0).to_bits(), a.to_bits());
        assert!(src.peek(0) > a, "arrivals strictly increase");
        assert_eq!(
            src.peek(1).to_bits(),
            b.to_bits(),
            "streams are independent"
        );
    }
}
