//! The simulation engine: the event queue, the slab arena and the
//! arrival streams the event loop drives.
//!
//! `sim.rs` owns the *semantics* of a serving simulation — what an
//! arrival, an ingest or a migration means. This module owns the
//! *mechanics* that make replaying millions of them cheap:
//!
//! - [`queue::EventQueue`] — a binary heap popping events in exact
//!   global `(time, push-order)` order (the same-timestamp contract
//!   every golden trace digest depends on).
//! - [`slab::Slab`] — a `u32`-handle arena for in-flight request state,
//!   so queue nodes carry 4-byte handles instead of ~120-byte payloads
//!   and the steady-state loop recycles slots instead of allocating.
//! - [`arrivals::ArrivalSource`] — per-tenant arrival streams, each
//!   holding its next arrival and drawing the following one on demand.
//!
//! The simulator is **analytic**: a stage's duration is priced in
//! closed form when it starts and its completion is scheduled into the
//! [`queue::EventQueue`]. The event loop in `sim.rs` stays a thin driver:
//! pop the next event, apply its semantics to the boards, push the events
//! they schedule. See `docs/ARCHITECTURE.md` for the full narrative.

pub mod arrivals;
pub mod queue;
pub mod slab;

pub use arrivals::ArrivalSource;
pub use queue::EventQueue;
pub use slab::{Handle, Slab};
