//! A pool of simulated accelerator boards behind one admission queue.
//!
//! PR 1's `agnn-serve` time-multiplexed a single VPK180, so every shift in
//! the tenant mix forced an ICAP stall. A [`BoardPool`] holds N boards,
//! each with its **own** bitstream state, reconfiguration clock, resident
//! graph memory and — since the staged-lifecycle refactor — **two
//! in-flight slots** mirroring the board's independent resources:
//!
//! - the **DMA slot** (PCIe engine pair): at most one transfer in flight —
//!   a graph-delta ingest or a subgraph hand-off;
//! - the **fabric slot** (UPE + SCR regions): at most one request
//!   preprocessing (reconfiguration stalls are charged here, at fabric
//!   acquisition).
//!
//! A serial scheduler occupies both slots for the whole request
//! ([`BoardPool::occupy`] / [`BoardPool::release`] — exactly the PR 2
//! board, bit-for-bit); a pipelined scheduler drives the slots separately
//! so one request's ingest lands while another computes (the staging depth
//! comes from [`agnn_hw::shell::DELTA_BUFFERS`]: one request may sit
//! ingested-but-waiting per board).
//!
//! In pipelined mode each board is also the only owner of the requests
//! in its slots: the simulator's slab handles of the request being
//! ingested, the staging FIFO, the request in the fabric and the
//! hand-off FIFO live on the board, and only the board's own methods move
//! a handle from one to the next (`start_ingest` → `end_ingest` →
//! `next_staged` → `start_fabric` → `end_fabric` → `next_handoff`).
//! Admission reads those queues directly, and a stage abort
//! (`BoardPool::abort`) removes a handle from whichever queue holds it.
//!
//! Residency is **capacity-bounded**: each board's DRAM holds at most
//! [`AutoGnn::dram_graph_capacity`] bytes of resident graphs (§V-B — the
//! 15 GB left after bitstream staging). When a tenant mix outgrows that,
//! the least-recently-served tenant is evicted and its next request pays a
//! full re-upload — which is exactly the recurring ingest traffic that
//! staged pipelining hides behind fabric compute.
//!
//! The admission queue — owned by the pluggable scheduler
//! ([`crate::sched::SchedPolicy`]), which decides admission, offer order
//! and reconfiguration gating — feeds the pool through a pluggable
//! [`PlacementPolicy`]. Placement scans the scheduler's offer order, so a
//! fair-queueing scheduler's preference arrives here as a hint: the same
//! scan that used to be "earliest arrival first" becomes "most underserved
//! tenant first" without the policies below changing:
//!
//! - [`PlacementPolicy::TenantAffine`] — each tenant has a home board
//!   (pinned, or tenant index hashed over the pool); requests wait for it.
//!   Perfect residency and bitstream locality, but a hot tenant cannot
//!   borrow idle boards.
//! - [`PlacementPolicy::LeastLoaded`] — the free board with the least
//!   accumulated busy time serves next; the board's dispatch policy picks
//!   the request. Best raw utilization, no bitstream locality.
//! - [`PlacementPolicy::BitstreamAffine`] — route a request to a free
//!   board **already holding its optimal bitstream**, falling back to
//!   least-loaded; on a pool this turns most reconfigurations into routing
//!   decisions. With one board it degenerates to PR 1's reconfig-aware
//!   queue scan exactly.
//!
//! A single-board pool in serial mode is bit-for-bit identical to the PR 1
//! simulator (`tests/serve_traffic.rs` pins the PR 1 trace digests), so
//! pool runs stay comparable across the whole perf trajectory — which is
//! what the CI `bench-smoke` gate (see [`crate`] docs) relies on.

use std::collections::VecDeque;

use agnn_algo::pipeline::SampleParams;
use agnn_core::runtime::AutoGnn;
use agnn_cost::{BitstreamLibrary, ReconfigPolicy, Workload};
use agnn_hw::engine::ReconfigEvent;
use agnn_hw::shell::DELTA_BUFFERS;
use agnn_hw::HwConfig;

use crate::engine::Handle;
use crate::metrics::BoardStats;

/// Requests a board can hold ingested-but-not-computing: one delta buffer
/// feeds the fabric while the other fills over DMA.
pub const STAGING_DEPTH: usize = DELTA_BUFFERS - 1;

/// How the pool routes an admitted request to a board.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementPolicy {
    /// Requests only run on their tenant's home board
    /// ([`crate::tenant::TenantSpec::home_board`]); they queue while it is
    /// busy even if other boards idle.
    TenantAffine,
    /// The free board with the least accumulated busy time serves next;
    /// the dispatch policy picks which queued request it takes.
    #[default]
    LeastLoaded,
    /// Prefer a free board whose programmed bitstream already matches the
    /// request's cost-model optimum; fall back to least-loaded when no
    /// queued request matches any free board.
    BitstreamAffine,
}

impl PlacementPolicy {
    /// Stable lowercase identifier used in reports and benchmark IDs.
    pub fn name(&self) -> &'static str {
        match self {
            PlacementPolicy::TenantAffine => "tenant_affine",
            PlacementPolicy::LeastLoaded => "least_loaded",
            PlacementPolicy::BitstreamAffine => "bitstream_affine",
        }
    }
}

/// Whether (and when) a tenant's graph may cross the PCIe switch from a
/// peer board's DRAM instead of re-crossing the host link.
///
/// A migration is an `Ingest` stage whose source is another board: the
/// warm prefix moves board-to-board at switch bandwidth
/// ([`agnn_hw::shell::PcieSwitchModel`]), only growth the peer never saw
/// comes from the host, and the transfer occupies **both** boards' DMA
/// engines (pipelinable behind each fabric like any other ingest).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MigratePolicy {
    /// No cross-board transfers: every cold ingest re-uploads from the
    /// host and requests wait for their affine board. Reproduces the
    /// pre-migration schedules bit-for-bit.
    #[default]
    Off,
    /// A tenant dispatched to a board where its graph is not resident
    /// pulls it from the peer board holding the largest copy (when that
    /// peer's DMA engine is idle) — DRAM-evicted tenants rehydrate at
    /// switch bandwidth.
    PeerRehydrate,
    /// [`MigratePolicy::PeerRehydrate`], plus proactive splitting: when
    /// every queued request is waiting for a busy affine/home board and
    /// the queue has grown past `queue_threshold`, the front request
    /// claims the least-loaded free board and its tenant's graph migrates
    /// there — a hot tenant splits across boards instead of serializing
    /// on one.
    SplitHot {
        /// Queue depth beyond which waiting-for-affinity gives way to
        /// splitting.
        queue_threshold: usize,
    },
}

impl MigratePolicy {
    /// The splitting preset with an 8-request queue threshold: early
    /// enough that a hot tenant spills before its backlog snowballs, deep
    /// enough that a single slow request does not scatter bitstreams.
    pub fn split_hot() -> Self {
        MigratePolicy::SplitHot { queue_threshold: 8 }
    }

    /// Stable lowercase identifier used in reports and benchmark IDs.
    pub fn name(&self) -> &'static str {
        match self {
            MigratePolicy::Off => "off",
            MigratePolicy::PeerRehydrate => "peer_rehydrate",
            MigratePolicy::SplitHot { .. } => "split_hot",
        }
    }

    /// Whether cold ingests may source from peer boards at all.
    pub fn pulls_from_peers(&self) -> bool {
        !matches!(self, MigratePolicy::Off)
    }

    /// The queue depth that triggers a proactive split, if enabled.
    pub fn split_threshold(&self) -> Option<usize> {
        match *self {
            MigratePolicy::SplitHot { queue_threshold } => Some(queue_threshold),
            _ => None,
        }
    }
}

/// Byte split of one migration ingest: the warm prefix that crossed the
/// PCIe switch and the growth that still came from the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationTransfer {
    /// Bytes pulled from the peer board's DRAM over the switch.
    pub switch_bytes: u64,
    /// Bytes the peer never held, uploaded from the host.
    pub host_bytes: u64,
}

/// Per-tenant residency on one board's DRAM.
#[derive(Debug, Clone, Copy, Default)]
struct Residency {
    /// Graph bytes resident for this tenant.
    bytes: u64,
    /// LRU tick of the tenant's last upload (0 = never touched).
    touched: u64,
}

/// One simulated board: a forked [`AutoGnn`] runtime plus the pool-side
/// serving state the simulator tracks for it.
#[derive(Debug)]
struct Board {
    runtime: AutoGnn,
    /// A PCIe transfer (ingest or hand-off) is in flight.
    dma_busy: bool,
    /// Simulated second the in-flight DMA transfer completes (stale once
    /// `dma_busy` clears; overlap accounting reads it only while busy).
    dma_until: f64,
    /// The fabric is preprocessing (or reprogramming).
    fabric_busy: bool,
    /// Simulated second the fabric frees (stale once `fabric_busy`
    /// clears).
    fabric_until: f64,
    /// [`Board::can_accept`], refreshed by [`BoardPool`] on every slot
    /// and queue change.
    accepting: bool,
    /// The pipelined request whose graph delta is crossing the DMA engine.
    ingesting: Option<Handle>,
    /// Ingested requests waiting for the fabric, at most
    /// [`STAGING_DEPTH`] (the delta buffers not currently being filled).
    staged: VecDeque<Handle>,
    /// The pipelined request the fabric is preprocessing.
    in_fabric: Option<Handle>,
    /// Preprocessed requests whose subgraph hand-off waits for the DMA
    /// engine.
    handoffs: VecDeque<Handle>,
    /// Fabric occupancy (reconfig + preprocess; in serial mode the whole
    /// request interval, as in PR 2).
    busy_secs: f64,
    /// DMA-engine occupancy (pipelined mode only; serial folds transfers
    /// into `busy_secs`).
    dma_secs: f64,
    completed: u64,
    reconfigs: u64,
    reconfig_secs: f64,
    /// Tenants evicted from this board's DRAM to make room.
    evictions: u64,
    /// Requests this board served by pulling the graph from a peer board.
    migrations: u64,
    /// Bytes this board pulled in over the PCIe switch.
    switch_bytes: u64,
    /// Bytes this board ingested from the host.
    host_bytes: u64,
    /// Graph bytes resident on this board, per tenant — each board has its
    /// own DDR, so residency (and therefore upload deltas) is per board.
    /// Invariant: a slot is either `Residency::default()` (not resident)
    /// or has `bytes > 0` — [`BoardPool::resident_boards`] relies on it.
    resident: Vec<Residency>,
    resident_total: u64,
    lru_clock: u64,
}

impl Board {
    fn new(runtime: AutoGnn, tenant_count: usize) -> Self {
        Board {
            runtime,
            dma_busy: false,
            dma_until: 0.0,
            fabric_busy: false,
            fabric_until: 0.0,
            accepting: true,
            ingesting: None,
            staged: VecDeque::new(),
            in_fabric: None,
            handoffs: VecDeque::new(),
            busy_secs: 0.0,
            dma_secs: 0.0,
            completed: 0,
            reconfigs: 0,
            reconfig_secs: 0.0,
            evictions: 0,
            migrations: 0,
            switch_bytes: 0,
            host_bytes: 0,
            resident: vec![Residency::default(); tenant_count],
            resident_total: 0,
            lru_clock: 0,
        }
    }

    /// Whether the board can accept a new request's ingest: DMA engine
    /// idle, a staging buffer free, and no subgraph hand-off queued for
    /// the engine. In serial mode the queues stay empty, so this is
    /// exactly the single-slot "not busy" predicate.
    fn can_accept(&self) -> bool {
        !self.dma_busy && self.staged.len() < STAGING_DEPTH && self.handoffs.is_empty()
    }

    /// Removes `tenant` from this board's DRAM entirely, returning the
    /// bytes freed. The slot goes back to `Residency::default()` — bytes
    /// *and* LRU stamp — so residency bookkeeping stays exact: a tenant
    /// evicted from its only resident board no longer appears anywhere.
    fn evict_tenant(&mut self, tenant: usize) -> u64 {
        let freed = self.resident[tenant].bytes;
        self.resident_total -= freed;
        self.resident[tenant] = Residency::default();
        freed
    }

    /// Sets `tenant`'s resident graph to `coo_bytes`, evicting the
    /// least-recently-served *other* tenants until it fits under
    /// `capacity`. Returns the growth delta (bytes not yet resident).
    fn place_resident(&mut self, tenant: usize, coo_bytes: u64, capacity: u64) -> u64 {
        self.lru_clock += 1;
        let slot = &mut self.resident[tenant];
        let delta = coo_bytes.saturating_sub(slot.bytes);
        // Residency tracks the current graph size exactly (a shrinking
        // graph releases DRAM, as in PR 2); only growth crosses a link.
        self.resident_total = self.resident_total - slot.bytes + coo_bytes;
        if coo_bytes == 0 {
            // A graph shrunk to nothing is *not resident*: clearing the
            // LRU stamp too keeps `resident_boards` exact (a stale stamp
            // used to keep the tenant visible in residency bookkeeping).
            *slot = Residency::default();
        } else {
            slot.bytes = coo_bytes;
            slot.touched = self.lru_clock;
        }
        while self.resident_total > capacity {
            let victim = self
                .resident
                .iter()
                .enumerate()
                .filter(|(t, r)| *t != tenant && r.bytes > 0)
                .min_by_key(|(_, r)| r.touched)
                .map(|(t, _)| t);
            let Some(victim) = victim else {
                // Only the uploading tenant is resident; an oversized
                // single graph is the shell's capacity panic, not ours.
                break;
            };
            self.evict_tenant(victim);
            self.evictions += 1;
        }
        delta
    }
}

/// N simulated boards with independent bitstream state, fed by one
/// admission queue.
#[derive(Debug)]
pub struct BoardPool {
    boards: Vec<Board>,
    /// Boards whose `Board::accepting` is set, so the dispatch loop's
    /// per-event "any board free?" test reads one counter.
    accepting_count: usize,
    tenant_count: usize,
    /// Per-board DRAM budget for resident graphs.
    graph_capacity: u64,
}

impl BoardPool {
    /// A pool of `size` pristine boards serving `tenant_count` tenants,
    /// all running `params` under `policy`.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn new(
        size: usize,
        params: SampleParams,
        policy: ReconfigPolicy,
        tenant_count: usize,
    ) -> Self {
        assert!(size > 0, "pool must hold at least one board");
        let prototype = AutoGnn::with_policy(params, policy);
        let graph_capacity = prototype.dram_graph_capacity();
        let mut boards = Vec::with_capacity(size);
        for _ in 1..size {
            boards.push(Board::new(prototype.fork(), tenant_count));
        }
        boards.push(Board::new(prototype, tenant_count));
        BoardPool {
            accepting_count: size,
            boards,
            tenant_count,
            graph_capacity,
        }
    }

    /// Number of boards.
    pub fn size(&self) -> usize {
        self.boards.len()
    }

    /// Restores every board to factory state (fresh bitstream, empty
    /// memory, zeroed counters) so one pool replays many simulations.
    pub fn reset(&mut self) {
        for board in &mut self.boards {
            *board = Board::new(board.runtime.fork(), self.tenant_count);
        }
        self.accepting_count = self.boards.len();
    }

    /// Re-derives board `index`'s admission flag after its slots or
    /// queues changed.
    fn refresh(&mut self, index: usize) {
        let board = &mut self.boards[index];
        let accepting = board.can_accept();
        if accepting != board.accepting {
            board.accepting = accepting;
            if accepting {
                self.accepting_count += 1;
            } else {
                self.accepting_count -= 1;
            }
        }
    }

    /// The bitstream library the cost model searches — identical on every
    /// board, so bitstream-choice caches can be shared pool-wide.
    pub fn library(&self) -> &BitstreamLibrary {
        self.boards[0].runtime.library()
    }

    /// The reconfiguration policy in force (same on every board).
    pub fn policy(&self) -> ReconfigPolicy {
        self.boards[0].runtime.policy()
    }

    /// The PCIe link model of the boards' shells (identical on every
    /// board) — per-stage transfer pricing routes through it.
    pub fn pcie(&self) -> agnn_hw::shell::PcieModel {
        self.boards[0].runtime.pcie()
    }

    /// The configuration currently programmed on board `index`.
    pub fn config(&self, index: usize) -> HwConfig {
        self.boards[index].runtime.config()
    }

    /// Whether board `index` can admit a new request (see
    /// `Board::can_accept`); in serial mode this is exactly "not busy".
    pub fn is_free(&self, index: usize) -> bool {
        let board = &self.boards[index];
        debug_assert_eq!(board.accepting, board.can_accept(), "board {index}");
        board.accepting
    }

    /// True when at least one board can admit a request.
    pub fn any_free(&self) -> bool {
        debug_assert_eq!(
            self.accepting_count,
            self.boards.iter().filter(|b| b.can_accept()).count()
        );
        self.accepting_count > 0
    }

    /// Indices of admission-ready boards, in board order.
    pub fn free_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.boards
            .iter()
            .enumerate()
            .filter(|(_, b)| b.accepting)
            .map(|(i, _)| i)
    }

    /// The admission-ready board with the least accumulated busy time
    /// (ties broken by the lowest index), or `None` when every board is
    /// busy.
    pub fn least_loaded_free(&self) -> Option<usize> {
        self.free_indices().min_by(|&a, &b| {
            self.boards[a]
                .busy_secs
                .total_cmp(&self.boards[b].busy_secs)
        })
    }

    /// The first admission-ready board already programmed with `config`.
    pub fn free_with_config(&self, config: HwConfig) -> Option<usize> {
        self.free_indices().find(|&i| self.config(i) == config)
    }

    /// True when any board — busy or free — is programmed with `config`.
    /// `BitstreamAffine` placement uses this to wait for a busy board
    /// holding the right bitstream instead of reprogramming another one.
    pub fn any_with_config(&self, config: HwConfig) -> bool {
        (0..self.boards.len()).any(|i| self.config(i) == config)
    }

    /// Reprograms board `index` to `best` unconditionally and charges the
    /// board's reconfiguration counters, returning the stall seconds. The
    /// decision lives with the caller: the simulator asks
    /// [`ReconfigPolicy::should_reconfigure`] through a per-tenant memo of
    /// its verdicts (pure in the workload and the config pair), so repeated
    /// dispatches of one drift bucket skip the cost-model estimates.
    pub fn apply_reconfigure(&mut self, index: usize, best: HwConfig) -> f64 {
        let board = &mut self.boards[index];
        let ReconfigEvent { seconds, .. } = board.runtime.force_reconfigure(best);
        board.reconfigs += 1;
        board.reconfig_secs += seconds;
        seconds
    }

    /// Analytic preprocessing seconds for `workload` under board `index`'s
    /// current configuration.
    pub fn stage_secs(&self, index: usize, workload: &Workload) -> f64 {
        self.boards[index]
            .runtime
            .analytic_stage_secs(workload)
            .total()
    }

    /// Updates tenant residency on board `index` to `coo_bytes` and
    /// returns the upload delta (0 when the graph is already resident).
    ///
    /// Residency is bounded by the board's DRAM graph capacity: when the
    /// upload would overflow it, the least-recently-served *other* tenants
    /// are evicted (deterministically, oldest upload first) until the
    /// graph fits — their next request pays a full cold re-upload.
    pub fn upload_delta(&mut self, index: usize, tenant: usize, coo_bytes: u64) -> u64 {
        let capacity = self.graph_capacity;
        let board = &mut self.boards[index];
        let delta = board.place_resident(tenant, coo_bytes, capacity);
        board.host_bytes += delta;
        delta
    }

    /// Ingests `tenant`'s graph onto board `dest` **from board `source`'s
    /// DRAM**: the warm prefix the peer holds crosses the PCIe switch,
    /// only growth the peer never saw comes from the host, and `dest`'s
    /// residency is updated exactly as a host upload would (same LRU
    /// eviction under the DRAM budget). The source keeps its copy — a
    /// migration is a read, so a hot tenant can split across boards.
    ///
    /// Callers price the returned byte split on both boards' DMA engines
    /// and must hold `source`'s engine for the switch leg.
    pub fn migrate_ingest(
        &mut self,
        dest: usize,
        source: usize,
        tenant: usize,
        coo_bytes: u64,
    ) -> MigrationTransfer {
        debug_assert_ne!(dest, source, "a board cannot migrate from itself");
        let peer_bytes = self.boards[source].resident[tenant].bytes;
        debug_assert!(peer_bytes > 0, "migration source holds no copy");
        let dest_bytes = self.boards[dest].resident[tenant].bytes;
        let (switch_bytes, host_bytes) =
            agnn_hw::shell::peer_transfer_split(coo_bytes, peer_bytes, dest_bytes);
        let capacity = self.graph_capacity;
        let board = &mut self.boards[dest];
        board.place_resident(tenant, coo_bytes, capacity);
        board.migrations += 1;
        board.switch_bytes += switch_bytes;
        board.host_bytes += host_bytes;
        MigrationTransfer {
            switch_bytes,
            host_bytes,
        }
    }

    /// Graph bytes board `index` holds for `tenant` (0 = not resident).
    pub fn resident_bytes(&self, index: usize, tenant: usize) -> u64 {
        self.boards[index].resident[tenant].bytes
    }

    /// Total graph bytes resident in board `index`'s DRAM across all
    /// tenants — the trace residency counter samples this at dispatch.
    pub fn resident_total_bytes(&self, index: usize) -> u64 {
        self.boards[index].resident_total
    }

    /// Boards whose DRAM still holds a copy of `tenant`'s graph, in board
    /// order. Exact: a tenant evicted from (or shrunk to nothing on) its
    /// only resident board appears nowhere.
    pub fn resident_boards(&self, tenant: usize) -> impl Iterator<Item = usize> + '_ {
        self.boards
            .iter()
            .enumerate()
            .filter(move |(_, b)| b.resident[tenant].bytes > 0)
            .map(|(i, _)| i)
    }

    /// The best migration source for `tenant` onto board `dest`: among
    /// peers holding a copy **whose DMA engine is idle** (the switch leg
    /// occupies it), the one with the most resident bytes, ties broken by
    /// the lowest index. `None` when no usable peer exists.
    pub fn peer_source(&self, tenant: usize, dest: usize) -> Option<usize> {
        self.boards
            .iter()
            .enumerate()
            .filter(|(i, b)| *i != dest && !b.dma_busy && b.resident[tenant].bytes > 0)
            .max_by(|(ai, a), (bi, b)| {
                a.resident[tenant]
                    .bytes
                    .cmp(&b.resident[tenant].bytes)
                    .then(bi.cmp(ai))
            })
            .map(|(i, _)| i)
    }

    /// The PCIe switch model connecting the boards (identical on every
    /// board's shell) — migration transfer pricing routes through it.
    pub fn switch(&self) -> agnn_hw::shell::PcieSwitchModel {
        self.boards[0].runtime.pcie_switch()
    }

    /// Marks board `index` fully busy until `done` — the **serial** path:
    /// both slots held for the whole request, exactly the PR 2 board.
    pub fn occupy(&mut self, index: usize, now: f64, done: f64) {
        let board = &mut self.boards[index];
        debug_assert!(!board.dma_busy, "board {index} double-dispatched");
        board.dma_busy = true;
        board.fabric_busy = true;
        board.busy_secs += (done - now).max(0.0);
        self.refresh(index);
    }

    /// Marks board `index` fully free again (serial service completion).
    pub fn release(&mut self, index: usize) {
        let board = &mut self.boards[index];
        debug_assert!(board.dma_busy, "board {index} released while idle");
        board.dma_busy = false;
        board.fabric_busy = false;
        board.completed += 1;
        self.refresh(index);
    }

    /// Occupies board `index`'s DMA engine until `done` (a subgraph
    /// hand-off, or a migration's outbound switch leg).
    pub fn occupy_dma(&mut self, index: usize, now: f64, done: f64) {
        let board = &mut self.boards[index];
        debug_assert!(!board.dma_busy, "board {index} DMA double-booked");
        board.dma_busy = true;
        board.dma_until = done;
        board.dma_secs += (done - now).max(0.0);
        self.refresh(index);
    }

    /// Frees board `index`'s DMA engine.
    pub fn release_dma(&mut self, index: usize) {
        debug_assert!(self.boards[index].dma_busy);
        self.boards[index].dma_busy = false;
        self.refresh(index);
    }

    /// Whether board `index`'s DMA engine is idle.
    pub fn dma_free(&self, index: usize) -> bool {
        !self.boards[index].dma_busy
    }

    /// When board `index`'s in-flight DMA transfer completes (meaningful
    /// only while an [`occupy_dma`](BoardPool::occupy_dma) transfer is in
    /// flight; the serial [`occupy`](BoardPool::occupy) leaves it as is).
    pub fn dma_until(&self, index: usize) -> f64 {
        self.boards[index].dma_until
    }

    /// Frees board `index`'s fabric.
    pub fn release_fabric(&mut self, index: usize) {
        debug_assert!(self.boards[index].fabric_busy);
        self.boards[index].fabric_busy = false;
    }

    /// Whether board `index`'s fabric is idle.
    pub fn fabric_free(&self, index: usize) -> bool {
        !self.boards[index].fabric_busy
    }

    /// When board `index`'s fabric frees (meaningful only while a
    /// pipelined fabric pass runs; the serial [`occupy`](BoardPool::occupy)
    /// leaves it as is).
    pub fn fabric_until(&self, index: usize) -> f64 {
        self.boards[index].fabric_until
    }

    /// Starts `handle`'s graph-delta ingest on board `index`'s DMA
    /// engine, in flight until `done` (pipelined mode).
    pub(crate) fn start_ingest(&mut self, index: usize, handle: Handle, now: f64, done: f64) {
        self.occupy_dma(index, now, done);
        self.boards[index].ingesting = Some(handle);
    }

    /// Ends board `index`'s ingest: the DMA engine frees and the landed
    /// request joins the back of the staging FIFO. Returns its handle.
    pub(crate) fn end_ingest(&mut self, index: usize) -> Handle {
        self.release_dma(index);
        let board = &mut self.boards[index];
        let handle = board
            .ingesting
            .take()
            .expect("ingest completion without an ingest in flight");
        // Admission required a free staging buffer, and nothing else
        // fills one while the ingest runs.
        debug_assert!(board.staged.len() < STAGING_DEPTH, "staging buffer overrun");
        board.staged.push_back(handle);
        self.refresh(index);
        handle
    }

    /// Takes the front of board `index`'s staging FIFO when the fabric is
    /// idle.
    pub(crate) fn next_staged(&mut self, index: usize) -> Option<Handle> {
        let board = &mut self.boards[index];
        if board.fabric_busy {
            return None;
        }
        let handle = board.staged.pop_front();
        self.refresh(index);
        handle
    }

    /// Occupies board `index`'s fabric with `handle` until `done`
    /// (reconfiguration stall + preprocessing).
    pub(crate) fn start_fabric(&mut self, index: usize, handle: Handle, now: f64, done: f64) {
        let board = &mut self.boards[index];
        debug_assert!(!board.fabric_busy, "board {index} fabric double-booked");
        board.fabric_busy = true;
        board.fabric_until = done;
        board.busy_secs += (done - now).max(0.0);
        board.in_fabric = Some(handle);
    }

    /// Ends board `index`'s fabric pass: the fabric frees and the request
    /// joins the back of the hand-off FIFO. Returns its handle.
    pub(crate) fn end_fabric(&mut self, index: usize) -> Handle {
        self.release_fabric(index);
        let board = &mut self.boards[index];
        let handle = board
            .in_fabric
            .take()
            .expect("fabric completion without a request in the fabric");
        board.handoffs.push_back(handle);
        self.refresh(index);
        handle
    }

    /// Takes the front of board `index`'s hand-off FIFO when the DMA
    /// engine is idle; the caller occupies the engine for the transfer.
    pub(crate) fn next_handoff(&mut self, index: usize) -> Option<Handle> {
        let board = &mut self.boards[index];
        if board.dma_busy {
            return None;
        }
        let handle = board.handoffs.pop_front();
        self.refresh(index);
        handle
    }

    /// Ends board `index`'s hand-off transfer: the DMA engine frees and
    /// the board counts one completed request (pipelined mode; the serial
    /// path counts inside [`BoardPool::release`]).
    pub(crate) fn end_handoff(&mut self, index: usize) {
        self.release_dma(index);
        self.boards[index].completed += 1;
    }

    /// Abandons `handle` if it still waits in board `index`'s staging or
    /// hand-off FIFO, returning whether it did. A started stage (ingest,
    /// fabric pass, hand-off transfer) always runs to completion.
    pub(crate) fn abort(&mut self, index: usize, handle: Handle) -> bool {
        let board = &mut self.boards[index];
        let aborted = [&mut board.staged, &mut board.handoffs]
            .into_iter()
            .any(|queue| match queue.iter().position(|&h| h == handle) {
                Some(i) => queue.remove(i).is_some(),
                None => false,
            });
        self.refresh(index);
        aborted
    }

    /// Panics unless every board's DMA and fabric slots are free and its
    /// pipeline queues are empty — the state a drained run must leave.
    pub(crate) fn assert_drained(&self) {
        for (i, b) in self.boards.iter().enumerate() {
            assert!(
                !b.dma_busy && !b.fabric_busy,
                "board {i}: a slot is still held at drain"
            );
            assert!(
                b.ingesting.is_none()
                    && b.staged.is_empty()
                    && b.in_fabric.is_none()
                    && b.handoffs.is_empty(),
                "board {i}: a request is still queued at drain"
            );
        }
    }

    /// Per-board statistics snapshot, in board order.
    pub fn stats(&self) -> Vec<BoardStats> {
        self.boards
            .iter()
            .map(|b| BoardStats {
                completed: b.completed,
                reconfigs: b.reconfigs,
                reconfig_secs: b.reconfig_secs,
                busy_secs: b.busy_secs,
                dma_secs: b.dma_secs,
                evictions: b.evictions,
                migrations: b.migrations,
                switch_bytes: b.switch_bytes,
                host_bytes: b.host_bytes,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(size: usize) -> BoardPool {
        BoardPool::new(size, SampleParams::new(10, 2), ReconfigPolicy::default(), 3)
    }

    #[test]
    fn boards_start_free_and_identically_configured() {
        let pool = pool(4);
        assert_eq!(pool.size(), 4);
        assert!(pool.any_free());
        assert_eq!(pool.free_indices().count(), 4);
        for i in 1..4 {
            assert_eq!(pool.config(i), pool.config(0));
        }
    }

    #[test]
    fn least_loaded_breaks_ties_by_index_and_tracks_busy_time() {
        let mut pool = pool(3);
        assert_eq!(pool.least_loaded_free(), Some(0));
        pool.occupy(0, 0.0, 10.0);
        assert_eq!(pool.least_loaded_free(), Some(1));
        pool.release(0);
        // Board 0 now carries 10 busy seconds; 1 and 2 are still at zero.
        assert_eq!(pool.least_loaded_free(), Some(1));
        pool.occupy(1, 0.0, 1.0);
        pool.occupy(2, 0.0, 1.0);
        pool.release(1);
        pool.release(2);
        assert_eq!(pool.least_loaded_free(), Some(1), "1 < 10 busy secs");
    }

    #[test]
    fn residency_is_per_board() {
        let mut pool = pool(2);
        assert_eq!(pool.upload_delta(0, 1, 1_000), 1_000, "cold on board 0");
        assert_eq!(pool.upload_delta(0, 1, 1_000), 0, "resident on board 0");
        assert_eq!(pool.upload_delta(1, 1, 1_000), 1_000, "cold on board 1");
        assert_eq!(pool.upload_delta(0, 1, 1_500), 500, "delta only");
    }

    #[test]
    fn reset_restores_factory_state() {
        let mut pool = pool(2);
        pool.occupy(0, 0.0, 5.0);
        pool.release(0);
        pool.upload_delta(1, 0, 2_000);
        pool.reset();
        assert_eq!(pool.stats()[0].completed, 0);
        assert_eq!(pool.stats()[0].busy_secs, 0.0);
        assert_eq!(pool.upload_delta(1, 0, 2_000), 2_000, "memory evicted");
    }

    #[test]
    #[should_panic(expected = "at least one board")]
    fn zero_boards_is_rejected() {
        pool(0);
    }

    #[test]
    fn placement_policy_names_are_stable() {
        assert_eq!(PlacementPolicy::TenantAffine.name(), "tenant_affine");
        assert_eq!(PlacementPolicy::LeastLoaded.name(), "least_loaded");
        assert_eq!(PlacementPolicy::BitstreamAffine.name(), "bitstream_affine");
        assert_eq!(PlacementPolicy::default(), PlacementPolicy::LeastLoaded);
    }

    /// Ingests request `handle` on board 0 over `[now, done]` and lands it
    /// in the staging FIFO.
    fn ingest(pool: &mut BoardPool, handle: Handle, now: f64, done: f64) {
        pool.start_ingest(0, handle, now, done);
        assert_eq!(pool.end_ingest(0), handle);
    }

    #[test]
    fn dma_and_fabric_slots_are_independent() {
        let mut pool = pool(1);
        pool.start_ingest(0, 7, 0.0, 1.0);
        assert!(!pool.is_free(0), "DMA in flight blocks admission");
        assert!(pool.fabric_free(0), "fabric still idle");
        assert_eq!(pool.dma_until(0), 1.0);
        assert_eq!(pool.end_ingest(0), 7);
        assert_eq!(pool.next_staged(0), Some(7), "an idle fabric takes it");
        pool.start_fabric(0, 7, 1.0, 3.0);
        assert!(pool.is_free(0), "fabric compute does not block ingest");
        assert!(pool.dma_free(0));
        assert_eq!(pool.fabric_until(0), 3.0);
        pool.start_ingest(0, 8, 1.0, 2.0);
        assert!(!pool.is_free(0));
        // Each engine keeps its own horizon: overlap accounting reads both.
        assert_eq!(pool.dma_until(0), 2.0);
        assert_eq!(pool.fabric_until(0), 3.0);
        assert_eq!(pool.end_ingest(0), 8);
        assert_eq!(pool.next_staged(0), None, "a busy fabric leaves it staged");
        assert!(!pool.is_free(0), "staging buffer full blocks admission");
        assert_eq!(pool.end_fabric(0), 7);
        assert_eq!(pool.next_staged(0), Some(8), "the freed fabric takes it");
        let stats = pool.stats();
        assert_eq!(stats[0].dma_secs, 2.0, "uploads charged to the DMA clock");
        assert_eq!(stats[0].busy_secs, 2.0, "fabric interval charged");
    }

    #[test]
    fn pending_handoffs_block_admission() {
        let mut pool = pool(1);
        ingest(&mut pool, 3, 0.0, 1.0);
        assert_eq!(pool.next_staged(0), Some(3));
        pool.start_fabric(0, 3, 1.0, 2.0);
        assert_eq!(pool.end_fabric(0), 3);
        assert!(!pool.is_free(0), "queued hand-off owns the DMA engine next");
        pool.occupy_dma(0, 2.0, 2.5);
        assert_eq!(pool.next_handoff(0), None, "waits for the busy engine");
        pool.release_dma(0);
        assert_eq!(pool.next_handoff(0), Some(3));
        pool.occupy_dma(0, 2.5, 3.0);
        assert!(!pool.is_free(0), "the hand-off transfer holds the engine");
        pool.end_handoff(0);
        assert!(pool.is_free(0));
        assert_eq!(pool.stats()[0].completed, 1);
        pool.assert_drained();
    }

    #[test]
    fn aborting_a_waiting_request_restores_admission() {
        let mut pool = pool(1);
        ingest(&mut pool, 0, 0.0, 1.0);
        assert_eq!(pool.next_staged(0), Some(0));
        pool.start_fabric(0, 0, 1.0, 5.0);
        ingest(&mut pool, 1, 1.0, 2.0);
        assert!(!pool.is_free(0), "request 1 fills the staging buffer");
        assert!(!pool.abort(0, 9), "an absent handle is not aborted");
        assert!(!pool.abort(0, 0), "a started fabric pass runs on");
        assert!(!pool.is_free(0), "a missed abort changes nothing");
        assert!(pool.abort(0, 1), "a staged request is abandoned");
        assert!(pool.is_free(0));
        assert_eq!(pool.end_fabric(0), 0);
        assert!(!pool.is_free(0), "request 0's hand-off is queued");
        assert!(pool.abort(0, 0), "a queued hand-off is abandoned");
        assert!(pool.is_free(0));
        assert!(!pool.abort(0, 0), "an aborted request is gone");
        pool.assert_drained();
    }

    #[test]
    fn residency_is_capacity_bounded_with_lru_eviction() {
        let mut pool = BoardPool::new(
            1,
            SampleParams::new(10, 2),
            ReconfigPolicy::default(),
            4, // tenants
        );
        let cap = pool.graph_capacity;
        let third = cap / 3;
        assert_eq!(pool.upload_delta(0, 0, third), third);
        assert_eq!(pool.upload_delta(0, 1, third), third);
        assert_eq!(pool.upload_delta(0, 2, third), third);
        // A fourth tenant overflows: tenant 0 (least recently served) is
        // evicted to make room.
        assert_eq!(pool.upload_delta(0, 3, third), third);
        assert_eq!(pool.stats()[0].evictions, 1);
        assert_eq!(
            pool.upload_delta(0, 0, third),
            third,
            "evicted tenant pays a full cold re-upload"
        );
        // ... which in turn evicted tenant 1, the next-oldest.
        assert_eq!(pool.stats()[0].evictions, 2);
        assert_eq!(pool.upload_delta(0, 2, third), 0, "tenant 2 still warm");
    }

    #[test]
    fn shrinking_graphs_release_dram() {
        let mut pool = BoardPool::new(
            1,
            SampleParams::new(10, 2),
            ReconfigPolicy::default(),
            2, // tenants
        );
        let cap = pool.graph_capacity;
        assert_eq!(pool.upload_delta(0, 0, cap), cap);
        // Tenant 0 shrinks to a quarter: nothing crosses PCIe, but the
        // freed DRAM lets tenant 1 become resident without any eviction.
        assert_eq!(pool.upload_delta(0, 0, cap / 4), 0);
        assert_eq!(pool.upload_delta(0, 1, cap / 2), cap / 2);
        assert_eq!(pool.stats()[0].evictions, 0);
        assert_eq!(pool.upload_delta(0, 0, cap / 4), 0, "still resident");
    }

    #[test]
    fn small_working_sets_never_evict() {
        let mut pool = pool(1);
        for round in 0..10 {
            for tenant in 0..3 {
                pool.upload_delta(0, tenant, 1_000_000 + round * 1_000);
            }
        }
        assert_eq!(pool.stats()[0].evictions, 0);
    }

    /// Regression (satellite fix): residency bookkeeping must be exact on
    /// *every* path — LRU eviction, a graph shrinking to nothing, and
    /// reset. A tenant evicted from its only resident board must appear
    /// on no board at all.
    #[test]
    fn resident_boards_is_exact_across_eviction_paths() {
        let mut pool = BoardPool::new(2, SampleParams::new(10, 2), ReconfigPolicy::default(), 3);
        let third = pool.graph_capacity / 3;
        assert_eq!(pool.resident_boards(0).count(), 0, "pristine pool");

        pool.upload_delta(0, 0, third);
        pool.upload_delta(1, 0, third);
        assert_eq!(pool.resident_boards(0).collect::<Vec<_>>(), vec![0, 1]);

        // LRU pressure on board 0 evicts tenant 0 there; board 1's copy
        // survives, so the tenant is resident on exactly one board.
        pool.upload_delta(0, 1, third);
        pool.upload_delta(0, 2, third * 2);
        assert_eq!(pool.stats()[0].evictions, 1);
        assert_eq!(pool.resident_boards(0).collect::<Vec<_>>(), vec![1]);
        assert_eq!(pool.resident_bytes(0, 0), 0);

        // The shrink-to-zero path: a zero-byte graph is *not* resident
        // (the stale-LRU-stamp path that used to keep it visible).
        pool.upload_delta(1, 0, 0);
        assert_eq!(
            pool.resident_boards(0).count(),
            0,
            "evicted from its only resident board, the tenant must vanish"
        );
        assert_eq!(pool.upload_delta(1, 0, third), third, "cold re-upload");

        pool.reset();
        for tenant in 0..3 {
            assert_eq!(pool.resident_boards(tenant).count(), 0);
        }
    }

    #[test]
    fn migrate_ingest_splits_bytes_and_keeps_the_source_copy() {
        let mut pool = BoardPool::new(3, SampleParams::new(10, 2), ReconfigPolicy::default(), 2);
        pool.upload_delta(0, 0, 1_000_000);
        assert_eq!(pool.peer_source(0, 1), Some(0));

        // The graph grew to 1.2 MB since board 0 ingested it: the warm
        // 1 MB crosses the switch, only the growth hits the host.
        let transfer = pool.migrate_ingest(1, 0, 0, 1_200_000);
        assert_eq!(
            transfer,
            MigrationTransfer {
                switch_bytes: 1_000_000,
                host_bytes: 200_000,
            }
        );
        assert_eq!(pool.resident_bytes(1, 0), 1_200_000, "dest fully warm");
        assert_eq!(
            pool.resident_bytes(0, 0),
            1_000_000,
            "source keeps its copy"
        );
        assert_eq!(pool.resident_boards(0).collect::<Vec<_>>(), vec![0, 1]);

        let stats = pool.stats();
        assert_eq!(stats[1].migrations, 1);
        assert_eq!(stats[1].switch_bytes, 1_000_000);
        assert_eq!(stats[1].host_bytes, 200_000);
        assert_eq!(stats[0].migrations, 0, "source-side counters untouched");

        // The bigger copy wins the source election; a busy DMA disqualifies.
        assert_eq!(pool.peer_source(0, 2), Some(1), "largest copy preferred");
        pool.occupy_dma(1, 0.0, 1.0);
        assert_eq!(pool.peer_source(0, 2), Some(0), "busy DMA disqualifies");
        pool.occupy_dma(0, 0.0, 1.0);
        assert_eq!(pool.peer_source(0, 2), None, "no idle peer, no source");
    }

    #[test]
    fn migrate_policy_names_and_presets_are_stable() {
        assert_eq!(MigratePolicy::default(), MigratePolicy::Off);
        assert_eq!(MigratePolicy::Off.name(), "off");
        assert_eq!(MigratePolicy::PeerRehydrate.name(), "peer_rehydrate");
        assert_eq!(MigratePolicy::split_hot().name(), "split_hot");
        assert!(!MigratePolicy::Off.pulls_from_peers());
        assert!(MigratePolicy::PeerRehydrate.pulls_from_peers());
        assert_eq!(MigratePolicy::Off.split_threshold(), None);
        assert_eq!(MigratePolicy::PeerRehydrate.split_threshold(), None);
        assert_eq!(MigratePolicy::split_hot().split_threshold(), Some(8));
    }

    #[test]
    fn host_bytes_accumulate_on_the_host_path_only() {
        let mut pool = pool(2);
        pool.upload_delta(0, 0, 500_000);
        pool.upload_delta(0, 0, 600_000); // +100k delta
        assert_eq!(pool.stats()[0].host_bytes, 600_000);
        assert_eq!(pool.stats()[0].switch_bytes, 0);
        let transfer = pool.migrate_ingest(1, 0, 0, 600_000);
        assert_eq!(transfer.host_bytes, 0, "peer holds the whole graph");
        assert_eq!(pool.stats()[1].host_bytes, 0);
        assert_eq!(pool.stats()[1].switch_bytes, 600_000);
        assert!(pool.switch().bandwidth > pool.pcie().bandwidth);
    }
}
