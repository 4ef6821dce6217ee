//! The UPE and SCR kernels: controllers, scheduling and cycle accounting.
//!
//! The UPE kernel (Fig. 12a) couples a controller, a scoreboard scheduler
//! and a scratchpad around `n` identical UPEs; the SCR kernel (Fig. 13a)
//! couples the *reshaper* and *reindexer* controllers around `n` SCR slots
//! and an SRAM mapping bank.
//!
//! # Fidelity: accounting plus oracle
//!
//! Each kernel runs one path: the golden functional algorithm for its
//! output, plus a pure accounting of cycles and passes. Cycles and passes
//! depend only on counts, never on how the host found the result:
//!
//! - Edge ordering charges them through one function, [`sort_accounting`],
//!   from the chunk run lengths and maxima. [`UpeKernel::sort_edges`]
//!   orders an edge array with one O(E + V) counting transposition
//!   ([`order_edges_counting_with_max`]).
//! - Reshaping charges them through one function, [`reshape_accounting`],
//!   from the pointer array alone: the SCR window's progress over the
//!   sorted destinations follows from each target's pointer.
//! - Conversion runs both stages on a COO edge list without materializing
//!   the sorted edges, and splits accounting from materialization. One
//!   counting read over the edges yields the chunk runs and the pointer
//!   array (the destination counts' prefix sums), which are all the two
//!   accounting functions need. [`convert`] also
//!   counts each source in that read and then places every list with a
//!   counting transposition that writes the CSC `indices` directly.
//!   [`FrontierLists`] charges the same cost from the same read but builds
//!   only the lists the sampler asks for, hop by hop, with the same
//!   transposition over just the edges it gathers.
//! - Selection charges each pool from its length and draw count, without
//!   reading the pool contents.
//! - Reindexing charges each lookup from the number of mappings held, and
//!   finds a VID's mapping in a hash index.
//!
//! The structural fidelity lives apart, in [`crate::oracle`]: it replays
//! every chunk sort on the UPE radix network, the merge tree, every SCR
//! window through the adder tree, every draw through the one-hot
//! extraction network and every lookup through the filter tree, and
//! derives the same outputs, cycles and passes from what it evaluated.
//! Nothing on the simulation path calls it; the tests that compare the two
//! fidelities hold every accounting function to its replay.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use agnn_algo::ordering::order_edges_counting_with_max;
use agnn_algo::pipeline::{NeighborLists, PoolRecord};
use agnn_algo::reindex::ReindexResult;
use agnn_algo::reshape::pointer_array_sequential;
use agnn_graph::{Csc, Edge, Vid};

use crate::config::{ScrConfig, UpeConfig};

/// The one simulation path; see the module docs. Only the `with_fidelity`
/// constructors take it, and the repository benchmark (`perfbench/`) is
/// their only caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fidelity {
    /// Golden functional output plus count-based cycle accounting.
    #[default]
    Fast,
}

/// Cascaded set-partition stages the radix datapath evaluates per cycle.
///
/// A width-64 partition network is shallow enough at the 300 MHz kernel
/// clock to chain several stages per cycle; 16 binary-radix stages per cycle
/// makes in-chunk sorting a small fraction of merge time, matching the cost
/// model's decision to account only merge rounds (Table I).
pub const RADIX_STAGES_PER_CYCLE: u32 = 16;

/// Outcome of an edge-ordering run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortRun {
    /// Edges sorted by (dst, src).
    pub sorted: Vec<Edge>,
    /// Kernel cycles consumed.
    pub cycles: u64,
    /// Set-partition network passes issued.
    pub upe_passes: u64,
}

/// Outcome of a selection run over one layer of pools.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectRun {
    /// Kernel cycles consumed (makespan across UPEs).
    pub cycles: u64,
    /// One-hot extraction passes issued.
    pub upe_passes: u64,
}

/// Greedy list scheduling: assign jobs in order to the earliest-free worker
/// and return the makespan — the scoreboard scheduler's behaviour ("using a
/// scoreboard to track the status of each UPE (busy or idle) and assign
/// input data accordingly", §IV-C).
///
/// Workers sit in a min-heap of free times, so each job costs O(log
/// workers). Which of several equally free workers takes a job does not
/// change the multiset of free times, so the makespan is exact.
pub fn schedule_makespan(job_cycles: impl IntoIterator<Item = u64>, workers: usize) -> u64 {
    assert!(workers > 0, "scheduler needs at least one worker");
    let mut free_at: BinaryHeap<Reverse<u64>> = std::iter::repeat_n(Reverse(0), workers).collect();
    let mut makespan = 0;
    for job in job_cycles {
        let mut earliest = free_at.peek_mut().expect("non-empty worker set");
        earliest.0 += job;
        makespan = makespan.max(earliest.0);
    }
    makespan
}

/// Cycle and pass accounting of an edge-ordering run (Fig. 15), from the
/// chunk runs alone: `chunks` yields each chunk's `(len, max_key)` in input
/// order. Returns `(cycles, upe_passes)`.
///
/// - chunk sort: `ceil(significant_bits / RADIX_STAGES_PER_CYCLE)` cycles
///   per chunk for the largest key's significant bits, scheduled across
///   UPEs; a chunk of two or more keys issues one zero-pass and one
///   one-pass per significant bit of its own max key;
/// - merge rounds: jobs emit `width/2` elements per cycle per UPE (Table
///   I's merge rate). While a round has at least as many merge jobs as
///   UPEs, rounds run back to back with full parallelism and a barrier
///   between rounds (the controller synchronizes rounds). Once jobs drop
///   below the UPE count, the controller chains the remaining merge tree as
///   a pipelined cascade whose throughput is the root merger's `width/2`
///   elements per cycle, charged once.
///
/// # Panics
///
/// Panics if [`UpeConfig::new`] rejects `config`'s fields, which are public
/// and so may skip it (no UPE would take a chunk).
pub fn sort_accounting(
    config: UpeConfig,
    chunks: impl IntoIterator<Item = (usize, u64)>,
) -> (u64, u64) {
    let config = UpeConfig::new(config.count, config.width);
    let significant_bits = |max: u64| 64 - max.leading_zeros();
    let mut runs = Vec::new();
    let mut max_key = 0u64;
    let mut upe_passes = 0u64;
    for (len, max) in chunks {
        if len > 1 {
            upe_passes += 2 * u64::from(significant_bits(max));
        }
        max_key = max_key.max(max);
        runs.push(len as u64);
    }
    let chunk_sort_cycles = u64::from(significant_bits(max_key).div_ceil(RADIX_STAGES_PER_CYCLE));
    // Equal jobs under greedy list scheduling: every UPE takes one chunk
    // per wave, so the makespan is the wave count times the chunk cost.
    let mut cycles = (runs.len() as u64).div_ceil(config.count as u64) * chunk_sort_cycles;

    let half = (config.width / 2) as u64;
    while runs.len() > 1 {
        if runs.len() / 2 < config.count {
            // Job counts only shrink from here: the cascade covers the rest.
            cycles += runs.iter().sum::<u64>().div_ceil(half);
            break;
        }
        let jobs = runs
            .chunks_exact(2)
            .map(|pair| (pair[0] + pair[1]).div_ceil(half));
        cycles += schedule_makespan(jobs, config.count);
        runs = runs.chunks(2).map(|pair| pair.iter().sum()).collect();
    }
    (cycles, upe_passes)
}

/// The UPE kernel: `config.count` UPEs of `config.width` behind a scoreboard
/// scheduler.
#[derive(Debug, Clone)]
pub struct UpeKernel {
    config: UpeConfig,
}

impl UpeKernel {
    /// Creates a kernel.
    ///
    /// # Panics
    ///
    /// Panics if [`UpeConfig::new`] rejects `config`'s fields, which are
    /// public and so may skip it.
    pub fn new(config: UpeConfig) -> Self {
        UpeKernel {
            config: UpeConfig::new(config.count, config.width),
        }
    }

    /// [`UpeKernel::new`]; perfbench is its only caller.
    pub fn with_fidelity(config: UpeConfig, _: Fidelity) -> Self {
        Self::new(config)
    }

    /// The kernel configuration.
    pub fn config(&self) -> UpeConfig {
        self.config
    }

    /// Edge ordering (Fig. 15): concatenate VID pairs into 64-bit keys,
    /// split into width-sized chunks, radix-sort each chunk on a UPE, then
    /// merge chunk runs round by round (Algorithm 1) and deconcatenate.
    ///
    /// Cycles and passes come from [`sort_accounting`] over the chunk
    /// lengths and maxima. The one scan over `edges` that reads those also
    /// finds the largest VID, and the sorted edges come from
    /// [`order_edges_counting_with_max`], so the host reads the edges once
    /// before sorting them. [`oracle::replay_sort`](crate::oracle::replay_sort)
    /// replays the UPE network and the merge tree instead.
    pub fn sort_edges(&self, edges: &[Edge]) -> SortRun {
        let width = self.config.width.max(1);
        let (mut max_key, mut max_src) = (0u64, 0u32);
        // Collected before the accounting consumes it, so the scan is a loop
        // of its own that the compiler vectorizes for wide chunks.
        let chunks: Vec<(usize, u64)> = edges
            .chunks(width)
            .map(|chunk| {
                let mut chunk_max = 0;
                for e in chunk {
                    chunk_max = chunk_max.max(e.sort_key());
                    max_src = max_src.max(e.src.0);
                }
                max_key = max_key.max(chunk_max);
                (chunk.len(), chunk_max)
            })
            .collect();
        let (cycles, upe_passes) = sort_accounting(self.config, chunks);
        // The largest key carries the largest destination in its high word.
        let max_vid = (!edges.is_empty()).then(|| Vid(max_src.max((max_key >> 32) as u32)));
        SortRun {
            sorted: order_edges_counting_with_max(edges, max_vid),
            cycles,
            upe_passes,
        }
    }

    /// Uni-random selection for one layer: each pool record is one UPE job
    /// costing one cycle per draw (one-hot extraction, Fig. 16) plus
    /// `ceil(pool_len / width)` cycles for the final bitmap partition that
    /// extracts the sampled neighborhood; jobs are scheduled across UPEs.
    ///
    /// Cycles and passes come from each record's `pool_len` and draw count
    /// alone. `_pool_values` is unread: it stays for perfbench, its only
    /// caller that passes pool contents; pass `&[]`.
    /// [`oracle::replay_select`](crate::oracle::replay_select) replays the
    /// draws through the one-hot extraction network instead.
    pub fn select_layer(&self, pools: &[PoolRecord], _pool_values: &[Vec<u64>]) -> SelectRun {
        let width = self.config.width as u64;
        let job_cycles: Vec<u64> = pools
            .iter()
            .map(|record| {
                let draws = record.positions.len() as u64;
                draws + u64::from(record.pool_len).div_ceil(width).max(1)
            })
            .collect();
        SelectRun {
            upe_passes: job_cycles.iter().sum(),
            cycles: schedule_makespan(job_cycles, self.config.count),
        }
    }
}

/// Outcome of a reshaping run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReshapeRun {
    /// The CSC pointer array (`num_vertices + 1` entries).
    pub pointers: Vec<u32>,
    /// Kernel cycles consumed.
    pub cycles: u64,
    /// Comparator-window evaluations issued.
    pub scr_passes: u64,
}

/// The SCR reshaper: builds the CSC pointer array from the sorted
/// destination array with the dual-counter window algorithm of §IV-C.
#[derive(Debug, Clone)]
pub struct Reshaper {
    config: ScrConfig,
}

impl Reshaper {
    /// Creates a reshaper.
    ///
    /// # Panics
    ///
    /// Panics if [`ScrConfig::new`] rejects `config`'s fields.
    pub fn new(config: ScrConfig) -> Self {
        Reshaper {
            config: ScrConfig::new(config.slots, config.width),
        }
    }

    /// [`Reshaper::new`]; perfbench is its only caller.
    pub fn with_fidelity(config: ScrConfig, _: Fidelity) -> Self {
        Self::new(config)
    }

    /// The kernel configuration.
    pub fn config(&self) -> ScrConfig {
        self.config
    }

    /// Builds the pointer array. Per cycle, every SCR slot evaluates one
    /// target VID against the current window of `width` sorted destinations;
    /// a target completes when the window proves its count ("whenever a
    /// target VID meets a COO element with a value strictly larger than
    /// itself"), and window elements below the current target are consumed,
    /// fetching the next COO segment (§IV-C).
    ///
    /// The pointers are `sorted_dsts` counted per vertex, and cycles and
    /// passes come from [`reshape_accounting`] over them.
    /// [`oracle::replay_windows`](crate::oracle::replay_windows) replays
    /// every window through the SCR adder tree instead.
    ///
    /// # Panics
    ///
    /// Panics if a destination is not below `num_vertices`, and (in debug
    /// builds) if `sorted_dsts` is not sorted.
    pub fn build_pointers(&self, num_vertices: usize, sorted_dsts: &[Vid]) -> ReshapeRun {
        debug_assert!(sorted_dsts.windows(2).all(|w| w[0] <= w[1]));
        assert!(
            sorted_dsts.last().is_none_or(|d| d.index() < num_vertices),
            "destination out of range for {num_vertices} vertices"
        );
        let pointers = pointer_array_sequential(num_vertices, sorted_dsts);
        let (cycles, scr_passes) = reshape_accounting(self.config, &pointers);
        ReshapeRun {
            pointers,
            cycles,
            scr_passes,
        }
    }
}

/// Cycle and pass accounting of a reshaping run (§IV-C), from the pointer
/// array alone. Returns `(cycles, scr_passes)`.
///
/// It walks the reshaper's windows without the destinations: `pointers[t]` counts the sorted destinations below `t`, so
/// the window `[consumed, window_end)` holds `clamp(pointers[t] - consumed,
/// 0, len)` of them, and its last element is at least `t` exactly when
/// `pointers[t] < window_end`.
///
/// # Panics
///
/// Panics if `pointers` is empty, or if [`ScrConfig::new`] rejects
/// `config`'s fields (with no slot, no target would ever finish).
pub fn reshape_accounting(config: ScrConfig, pointers: &[u32]) -> (u64, u64) {
    let config = ScrConfig::new(config.slots, config.width);
    let total = *pointers.last().expect("a pointer array is never empty") as usize;
    let num_vertices = pointers.len() - 1;
    let mut cycles = 0u64;
    let mut scr_passes = 0u64;
    let mut consumed = 0usize; // COO elements already consumed
    let mut target = 0usize; // next pointer entry to finalize
    while target <= num_vertices {
        cycles += 1;
        let window_end = (consumed + config.width).min(total);
        let window_is_last = window_end == total;
        // Slots take consecutive targets until one is not yet proven.
        let mut finished = 0usize;
        let slot_targets = target..(target + config.slots).min(num_vertices + 1);
        for &below_t in &pointers[slot_targets] {
            scr_passes += 1;
            if !(window_is_last || (below_t as usize) < window_end) {
                break;
            }
            finished += 1;
        }
        target += finished;
        if target > num_vertices {
            break;
        }
        consumed = if finished == 0 {
            // Whole window below the pending target: consume it all.
            window_end
        } else {
            (pointers[target] as usize).clamp(consumed, window_end)
        };
    }
    (cycles, scr_passes)
}

/// What a COO→CSC conversion charges: edge ordering on the UPE kernel, then
/// data reshaping on the SCR reshaper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvertCost {
    /// Edge-ordering cycles (UPE kernel).
    pub ordering_cycles: u64,
    /// Set-partition network passes issued.
    pub upe_passes: u64,
    /// Data-reshaping cycles (SCR reshaper).
    pub reshaping_cycles: u64,
    /// Comparator-window evaluations issued.
    pub scr_passes: u64,
}

impl ConvertCost {
    /// The cost of converting a graph, from what its counting read yields:
    /// each UPE-width chunk's `(len, max_key)` for [`sort_accounting`] and
    /// the CSC pointer array for [`reshape_accounting`].
    fn of(
        upe: UpeConfig,
        scr: ScrConfig,
        chunks: impl IntoIterator<Item = (usize, u64)>,
        pointers: &[u32],
    ) -> Self {
        let (ordering_cycles, upe_passes) = sort_accounting(upe, chunks);
        let (reshaping_cycles, scr_passes) = reshape_accounting(scr, pointers);
        ConvertCost {
            ordering_cycles,
            upe_passes,
            reshaping_cycles,
            scr_passes,
        }
    }
}

/// Outcome of a COO→CSC conversion run: edge ordering, then data
/// reshaping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConvertRun {
    /// The converted graph.
    pub csc: Csc,
    /// What the conversion charges.
    pub cost: ConvertCost,
}

/// The counting read every conversion starts with: one pass over `edges`
/// in `width`-sized chunks that collects each chunk's length and largest
/// key, counts the edges of each destination and hands each edge to
/// `visit`, which range-checks its source. Returns the chunk runs and the
/// CSC pointer array (the destination counts' prefix sums, `num_vertices +
/// 1` entries).
///
/// # Panics
///
/// Panics if a destination is not below `num_vertices` or the edge count
/// does not fit a `u32` pointer.
fn count_edges(
    width: usize,
    num_vertices: usize,
    edges: &[Edge],
    mut visit: impl FnMut(&Edge),
) -> (Vec<(usize, u64)>, Vec<u32>) {
    assert!(
        u32::try_from(edges.len()).is_ok(),
        "{} edges overflow a u32 pointer array",
        edges.len()
    );
    // Counts land one slot up, so the prefix sums below turn them into
    // each destination's first offset.
    let mut pointers = vec![0u32; num_vertices + 1];
    let chunks: Vec<(usize, u64)> = edges
        .chunks(width)
        .map(|chunk| {
            let mut chunk_max = 0;
            for e in chunk {
                chunk_max = chunk_max.max(e.sort_key());
                pointers[e.dst.index() + 1] += 1;
                visit(e);
            }
            (chunk.len(), chunk_max)
        })
        .collect();
    for v in 1..pointers.len() {
        pointers[v] += pointers[v - 1];
    }
    (chunks, pointers)
}

/// The counting transposition that places every neighbor list, in
/// [`convert`] and in [`FrontierLists`] alike: appends the lists of
/// `edges`' destinations to `indices`. On entry `src_heads[s + 1]` counts
/// the `edges` of source `s` (one slot per source plus one), and
/// `dst_heads[d]` is the offset where destination `d`'s list starts, at or
/// past the current end of `indices`. A stable scatter groups the destinations
/// by source, then a walk over the sources in order writes each source into
/// its destination's next slot, so every list's sources arrive in ascending
/// order. Each `dst_heads[d]` of an edge's destination is left at its
/// list's end.
fn transpose(
    edges: &[Edge],
    mut src_heads: Vec<u32>,
    dst_heads: &mut [u32],
    indices: &mut Vec<Vid>,
) {
    for v in 1..src_heads.len() {
        src_heads[v] += src_heads[v - 1];
    }
    let mut dsts_by_src = vec![0u32; edges.len()];
    for e in edges {
        let head = &mut src_heads[e.src.index()];
        dsts_by_src[*head as usize] = e.dst.0;
        *head += 1;
    }
    // Grown only after the scatter: grown before it, a 300k-edge
    // conversion ran ~10% slower (2-vCPU x86 host).
    indices.resize(indices.len() + edges.len(), Vid(0));
    // Each source's head now sits at its end, which is the next source's
    // start.
    let num_sources = src_heads.len() - 1;
    let mut start = 0;
    for (src, &end) in src_heads[..num_sources].iter().enumerate() {
        for &dst in &dsts_by_src[start as usize..end as usize] {
            let head = &mut dst_heads[dst as usize];
            indices[*head as usize] = Vid(src as u32);
            *head += 1;
        }
        start = end;
    }
}

/// COO→CSC conversion (§II-B): edge ordering on `upe`, then data reshaping
/// on `reshaper`, over the `num_vertices` vertices `edges` connects.
///
/// The counting read over `edges` also counts each source's edges, and
/// both stages are charged from what it yields. The
/// counting transposition then writes every source VID straight into its
/// destination's CSC slot. The result equals [`UpeKernel::sort_edges`]
/// followed by [`Reshaper::build_pointers`] on the sorted destinations,
/// cycles and passes included, without building the sorted edge array.
///
/// # Panics
///
/// Panics if an endpoint is not below `num_vertices` or the edge count does
/// not fit a `u32` pointer.
pub fn convert(
    upe: &UpeKernel,
    reshaper: &Reshaper,
    num_vertices: usize,
    edges: &[Edge],
) -> ConvertRun {
    let mut src_counts = vec![0u32; num_vertices + 1];
    let (chunks, mut pointers) = count_edges(upe.config.width, num_vertices, edges, |e| {
        src_counts[e.src.index() + 1] += 1;
    });
    let cost = ConvertCost::of(upe.config, reshaper.config, chunks, &pointers);
    let mut indices = Vec::new();
    transpose(
        edges,
        src_counts,
        &mut pointers[..num_vertices],
        &mut indices,
    );
    // Each destination's head now sits at its end, the next destination's
    // start: shift the heads back one slot.
    pointers.copy_within(..num_vertices, 1);
    pointers[0] = 0;
    ConvertRun {
        csc: Csc::new(pointers, indices).expect("conversion output satisfies CSC invariants"),
        cost,
    }
}

/// The `FrontierLists::ends` entry of a vertex whose list is not built.
const UNBUILT: u32 = u32::MAX;
/// The `FrontierLists::ends` entry of a vertex whose in-edges the current
/// read gathers.
const PENDING: u32 = u32::MAX - 1;

/// A graph's neighbor lists, built only for the vertices the sampler
/// reaches, while the conversion of the whole graph is charged in full.
///
/// [`FrontierLists::new`] makes the counting read [`convert`] starts with:
/// it yields the whole conversion's [`ConvertCost`] and the pointer array,
/// hence every vertex's in-degree, and gathers the batch's in-edges on the
/// way. Before each later hop, [`NeighborLists::prepare`] gathers the
/// in-edges of the frontier's vertices whose lists are not built yet in one
/// more read, stopping once it holds them all. Gathered edges are placed by
/// the same counting transposition [`convert`] runs, so each list equals
/// the full CSC's. No buffer is sized by the graph's edge count: only the
/// gathered edges are copied.
#[derive(Debug)]
pub struct FrontierLists<'a> {
    edges: &'a [Edge],
    /// The whole graph's CSC pointer array.
    pointers: Vec<u32>,
    /// Per vertex: the end of its list in `indices`, or `UNBUILT`, or
    /// `PENDING` while a read gathers its in-edges.
    ends: Vec<u32>,
    /// The built lists, one after another in build order.
    indices: Vec<Vid>,
}

impl<'a> FrontierLists<'a> {
    /// Charges the conversion of the `num_vertices`-vertex graph `edges` on
    /// `upe` and `reshaper`, and builds the lists of `batch` in the same
    /// read.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint or a batch vertex is not below `num_vertices`,
    /// or the edge count does not fit a `u32` list offset below the
    /// sentinels.
    pub fn new(
        upe: &UpeKernel,
        reshaper: &Reshaper,
        num_vertices: usize,
        edges: &'a [Edge],
        batch: &[Vid],
    ) -> (Self, ConvertCost) {
        assert!(
            edges.len() < PENDING as usize,
            "{} edges overflow a u32 list offset",
            edges.len()
        );
        let mut ends = vec![UNBUILT; num_vertices];
        let pending = mark_pending(&mut ends, batch);
        let mut gathered = Vec::new();
        let mut max_src = 0;
        let (chunks, pointers) = count_edges(upe.config.width, num_vertices, edges, |e| {
            max_src = max_src.max(e.src.0);
            if ends[e.dst.index()] == PENDING {
                gathered.push(*e);
            }
        });
        assert!(
            edges.is_empty() || (max_src as usize) < num_vertices,
            "source {max_src} out of range for {num_vertices} vertices"
        );
        let cost = ConvertCost::of(upe.config, reshaper.config, chunks, &pointers);
        let mut lists = FrontierLists {
            edges,
            pointers,
            ends,
            indices: Vec::new(),
        };
        lists.place(&pending, &gathered);
        (lists, cost)
    }

    /// In-degree of `v` in the whole graph.
    fn degree(&self, v: Vid) -> u32 {
        self.pointers[v.index() + 1] - self.pointers[v.index()]
    }

    /// Appends the lists of the `pending` vertices to `indices` from
    /// `gathered`, exactly their in-edges.
    fn place(&mut self, pending: &[Vid], gathered: &[Edge]) {
        let mut end = self.indices.len() as u32;
        for &v in pending {
            // The list's start; the transposition advances it to its end.
            self.ends[v.index()] = end;
            end += self.degree(v);
        }
        debug_assert_eq!(self.indices.len() + gathered.len(), end as usize);
        if gathered.is_empty() {
            return;
        }
        let mut src_counts = vec![0u32; self.ends.len() + 1];
        for e in gathered {
            src_counts[e.src.index() + 1] += 1;
        }
        transpose(gathered, src_counts, &mut self.ends, &mut self.indices);
    }
}

/// Marks each vertex of `frontier` whose list is not built as pending and
/// returns those vertices, each once, in frontier order.
///
/// # Panics
///
/// Panics if a frontier vertex is out of range.
fn mark_pending(ends: &mut [u32], frontier: &[Vid]) -> Vec<Vid> {
    let num_vertices = ends.len();
    frontier
        .iter()
        .copied()
        .filter(|v| {
            let end = ends
                .get_mut(v.index())
                .unwrap_or_else(|| panic!("vertex {v} out of range for {num_vertices} vertices"));
            let unbuilt = *end == UNBUILT;
            if unbuilt {
                *end = PENDING;
            }
            unbuilt
        })
        .collect()
}

impl NeighborLists for FrontierLists<'_> {
    fn prepare(&mut self, frontier: &[Vid]) {
        let pending = mark_pending(&mut self.ends, frontier);
        let wanted: usize = pending.iter().map(|&v| self.degree(v) as usize).sum();
        let mut gathered = Vec::with_capacity(wanted);
        if wanted > 0 {
            for e in self.edges {
                if self.ends[e.dst.index()] == PENDING {
                    gathered.push(*e);
                    if gathered.len() == wanted {
                        break;
                    }
                }
            }
        }
        self.place(&pending, &gathered);
    }

    /// # Panics
    ///
    /// Panics if `v`'s list was not prepared.
    fn neighbors(&self, v: Vid) -> &[Vid] {
        let end = self.ends[v.index()];
        assert!(end < PENDING, "the list of vertex {v} was not prepared");
        &self.indices[(end - self.degree(v)) as usize..end as usize]
    }
}

/// Outcome of a reindexing run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReindexRun {
    /// The first-appearance renumbering.
    pub result: ReindexResult,
    /// Kernel cycles consumed.
    pub cycles: u64,
    /// Comparator-window evaluations issued.
    pub scr_passes: u64,
    /// Peak SRAM mapping entries used.
    pub peak_mappings: usize,
}

/// The SCR reindexer: first-appearance renumbering backed by an SRAM mapping
/// bank searched by the filter tree (Fig. 13c).
#[derive(Debug, Clone)]
pub struct Reindexer {
    config: ScrConfig,
}

impl Reindexer {
    /// Default SRAM mapping capacity (entries). Generous for sampled
    /// subgraphs: a 2-layer, k = 10, b = 3000 workload touches ≈ 333 K
    /// uniques at most.
    pub const DEFAULT_SRAM_CAPACITY: usize = 1 << 20;

    /// Creates a reindexer.
    ///
    /// # Panics
    ///
    /// Panics if [`ScrConfig::new`] rejects `config`'s fields.
    pub fn new(config: ScrConfig) -> Self {
        Reindexer {
            config: ScrConfig::new(config.slots, config.width),
        }
    }

    /// [`Reindexer::new`]; perfbench is its only caller.
    pub fn with_fidelity(config: ScrConfig, _: Fidelity) -> Self {
        Self::new(config)
    }

    /// The kernel configuration.
    pub fn config(&self) -> ScrConfig {
        self.config
    }

    /// Processes a VID stream. The SRAM mapping store is organized as
    /// parallel banks, each fronted by one comparator window; every bank is
    /// searched concurrently and the filter trees' results OR together, so
    /// a lookup completes in one cycle for any map that fits the SRAM
    /// (§IV-C's single-cycle claim, realized with banked comparators). A
    /// miss additionally costs one insert cycle ("the reindexer increments
    /// the counter, assigns it as the new VID, and stores the input target
    /// and the counter value as a new mapping pair").
    ///
    /// Cycles, the banks searched (hence `scr_passes`) and `peak_mappings`
    /// follow from the number of mappings held, so the host finds a mapping
    /// in a hash index from old to new VID, O(1) per input.
    /// [`oracle::replay_reindex`](crate::oracle::replay_reindex) searches
    /// the mapping bank through the filter tree instead.
    ///
    /// # Panics
    ///
    /// Panics if the mapping bank exceeds [`Self::DEFAULT_SRAM_CAPACITY`].
    pub fn reindex(&self, stream: &[Vid]) -> ReindexRun {
        let window = self.config.width * self.config.slots;
        let mut index: HashMap<u32, u32> = HashMap::new();
        let mut new_ids = Vec::with_capacity(stream.len());
        let mut new_to_old = Vec::new();
        let mut cycles = 0u64;
        let mut scr_passes = 0u64;

        for &old in stream {
            let banks = new_to_old.len().div_ceil(window).max(1) as u64;
            cycles += 1; // banked search: one cycle per lookup
            scr_passes += banks * self.config.slots as u64;
            match index.get(&old.0) {
                Some(&renumbered) => new_ids.push(Vid(renumbered)),
                None => {
                    let fresh = new_to_old.len() as u32;
                    assert!(
                        new_to_old.len() < Self::DEFAULT_SRAM_CAPACITY,
                        "reindexer SRAM bank overflow at {} mappings",
                        new_to_old.len()
                    );
                    index.insert(old.0, fresh);
                    new_to_old.push(old);
                    new_ids.push(Vid(fresh));
                    cycles += 1; // insert
                }
            }
        }

        ReindexRun {
            peak_mappings: new_to_old.len(),
            result: ReindexResult {
                new_ids,
                new_to_old,
            },
            cycles,
            scr_passes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use crate::HwConfig;
    use agnn_algo::ordering::order_edges_std;
    use agnn_algo::reindex::reindex_hashmap;
    use agnn_graph::datasets::Dataset;
    use agnn_graph::{generate, Coo};
    use proptest::prelude::*;

    fn upe_kernel(count: usize, width: usize) -> UpeKernel {
        UpeKernel::new(UpeConfig::new(count, width))
    }

    /// The scoreboard as a linear scan over every worker per job: the
    /// reference the heap-based [`schedule_makespan`] must reproduce.
    fn schedule_makespan_linear(job_cycles: &[u64], workers: usize) -> u64 {
        let mut free_at = vec![0u64; workers];
        for &job in job_cycles {
            let worker = (0..workers)
                .min_by_key(|&w| free_at[w])
                .expect("non-empty worker set");
            free_at[worker] += job;
        }
        free_at.into_iter().max().unwrap_or(0)
    }

    #[test]
    fn scheduler_balances_jobs() {
        assert_eq!(schedule_makespan([4, 4, 4, 4], 2), 8);
        assert_eq!(schedule_makespan([8, 1, 1, 1], 2), 8);
        assert_eq!(schedule_makespan(std::iter::empty(), 3), 0);
        assert_eq!(schedule_makespan([5], 10), 5);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn scheduler_rejects_zero_workers() {
        schedule_makespan([1], 0);
    }

    #[test]
    fn sort_edges_matches_golden_model_both_fidelities() {
        // A small power-law graph, then the five graphs of the
        // `preprocess_convert` benchmark scaled to ~5k edges, so each
        // category's hub skew reaches the ordering.
        let mut graphs = vec![("power_law", generate::power_law(80, 600, 0.9, 7))];
        for abbrev in ["PH", "YL", "RD", "AM", "TB"] {
            let dataset = Dataset::from_abbrev(abbrev).expect("known dataset");
            let scale = dataset.scale_for_max_edges(5_000);
            graphs.push((abbrev, dataset.generate_scaled(scale, 11)));
        }
        // The kernel's accounting and the oracle's UPE replay agree.
        for (name, g) in &graphs {
            let run = upe_kernel(4, 16).sort_edges(g.edges());
            assert_eq!(run.sorted, order_edges_std(g.edges()), "{name}");
            assert!(run.cycles > 0);
            let replay = oracle::replay_sort(UpeConfig::new(4, 16), g.edges());
            assert_eq!(replay, run, "{name}");
        }
    }

    #[test]
    fn sort_accounting_is_pinned() {
        // (count, width, edges, cycles, upe_passes) of Fast `sort_edges` on
        // `power_law(5_000, edges, 0.9, edges)`, recorded from the
        // element-by-element merge-tree implementation this accounting
        // replaced. Cells cover n = 0, 1, n < width and n not divisible by
        // width, with parallel merge rounds and the cascade.
        const PINNED: [(usize, usize, usize, u64, u64); 19] = [
            (1, 2, 0, 0, 0),
            (1, 2, 1, 3, 0),
            (1, 2, 13, 59, 508),
            (1, 2, 2_007, 23_052, 82_400),
            (4, 16, 0, 0, 0),
            (4, 16, 1, 3, 0),
            (4, 16, 15, 3, 88),
            (4, 16, 83, 17, 532),
            (4, 16, 16_007, 6_830, 88_788),
            (64, 64, 0, 0, 0),
            (64, 64, 1, 3, 0),
            (64, 64, 63, 3, 90),
            (64, 64, 323, 14, 538),
            (64, 64, 64_007, 2_145, 89_874),
            (240, 64, 0, 0, 0),
            (240, 64, 1, 3, 0),
            (240, 64, 63, 3, 90),
            (240, 64, 323, 14, 538),
            (240, 64, 64_007, 2_044, 89_874),
        ];
        for (count, width, n, cycles, upe_passes) in PINNED {
            let g = generate::power_law(5_000, n, 0.9, n as u64);
            let run = upe_kernel(count, width).sort_edges(g.edges());
            assert_eq!(
                (run.cycles, run.upe_passes),
                (cycles, upe_passes),
                "count {count}, width {width}, edges {n}"
            );
            assert_eq!(run.sorted, order_edges_std(g.edges()));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn fidelities_agree_on_cycles(
            edges in proptest::collection::vec((0u32..3_000, 0u32..3_000), 0..400),
            count in 1usize..=8,
            width_log2 in 1u32..=6,
            slots in 1usize..=8,
            scr_width_log2 in 1u32..=6,
        ) {
            // 3,000 vertices for at most 400 edges: the VIDs are sparse.
            let edges: Vec<Edge> = edges
                .into_iter()
                .map(|(src, dst)| Edge::new(Vid(src), Vid(dst)))
                .collect();
            // The kernels' accounting against the oracle's replay.
            let upe = UpeConfig::new(count, 1 << width_log2);
            let fast = UpeKernel::new(upe).sort_edges(&edges);
            prop_assert_eq!(&fast.sorted, &order_edges_std(&edges));
            prop_assert_eq!(&oracle::replay_sort(upe, &edges), &fast);

            // Conversion equals ordering followed by reshaping, in the
            // kernels and in the oracle.
            let scr = ScrConfig::new(slots, 1 << scr_width_log2);
            let dsts: Vec<Vid> = fast.sorted.iter().map(|e| e.dst).collect();
            let reshape = Reshaper::new(scr).build_pointers(3_000, &dsts);
            let srcs: Vec<Vid> = fast.sorted.iter().map(|e| e.src).collect();
            let expected = ConvertRun {
                csc: Csc::new(reshape.pointers, srcs).expect("valid CSC"),
                cost: ConvertCost {
                    ordering_cycles: fast.cycles,
                    upe_passes: fast.upe_passes,
                    reshaping_cycles: reshape.cycles,
                    scr_passes: reshape.scr_passes,
                },
            };
            let run = convert(&UpeKernel::new(upe), &Reshaper::new(scr), 3_000, &edges);
            prop_assert_eq!(&run, &expected);
            prop_assert_eq!(oracle::convert(HwConfig { upe, scr }, 3_000, &edges), expected);
        }

        #[test]
        fn prop_heap_scheduler_matches_linear_scan(
            jobs in proptest::collection::vec(0u64..1_000, 0..300),
            workers in 1usize..=64,
        ) {
            prop_assert_eq!(
                schedule_makespan(jobs.iter().copied(), workers),
                schedule_makespan_linear(&jobs, workers)
            );
        }
    }

    #[test]
    fn sort_empty_and_single() {
        let kernel = upe_kernel(2, 8);
        let one = [Edge::new(Vid(3), Vid(1))];
        for edges in [&[][..], &one] {
            let run = kernel.sort_edges(edges);
            assert_eq!(run.sorted, edges.to_vec());
            assert_eq!(oracle::replay_sort(kernel.config(), edges), run);
        }
    }

    #[test]
    fn more_upes_reduce_sort_cycles() {
        let g = generate::power_law(200, 4_000, 0.8, 5);
        let few = upe_kernel(2, 64).sort_edges(g.edges());
        let many = upe_kernel(32, 64).sort_edges(g.edges());
        assert!(many.cycles < few.cycles);
    }

    #[test]
    fn wider_upes_reduce_sort_cycles() {
        let g = generate::power_law(200, 4_000, 0.8, 5);
        let narrow = upe_kernel(8, 16).sort_edges(g.edges());
        let wide = upe_kernel(8, 256).sort_edges(g.edges());
        assert!(wide.cycles < narrow.cycles);
    }

    #[test]
    fn select_layer_counts_draws_and_replays_extractions() {
        let pools = vec![
            PoolRecord {
                parents: vec![Vid(0)],
                pool_len: 5,
                positions: vec![4, 0, 2],
            },
            PoolRecord {
                parents: vec![Vid(1)],
                pool_len: 3,
                positions: vec![1],
            },
        ];
        let values = vec![vec![10, 11, 12, 13, 14], vec![20, 21, 22]];
        // The kernel reads no pool contents.
        let kernel = upe_kernel(1, 8);
        let run = kernel.select_layer(&pools, &[]);
        // Pool 1: 3 draws + 1 extraction; pool 2: 1 draw + 1 extraction.
        assert_eq!(run.cycles, 6);
        assert_eq!(run.upe_passes, 6);
        // The oracle replays every draw through the one-hot extraction
        // network against the contents.
        assert_eq!(oracle::replay_select(kernel.config(), &pools, &values), run);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prop_select_layer_matches_extraction_replay(
            pools in proptest::collection::vec(
                (0u32..40, proptest::collection::vec(any::<u32>(), 0..6)),
                0..20,
            ),
            count in 1usize..=8,
            width_log2 in 1u32..=6,
        ) {
            // Pools of up to 40 values, empty ones included (a parent with
            // no in-neighbors), with draws inside each pool.
            let records: Vec<PoolRecord> = pools
                .iter()
                .enumerate()
                .map(|(i, (pool_len, draws))| PoolRecord {
                    parents: vec![Vid::from_index(i)],
                    pool_len: *pool_len,
                    positions: match pool_len {
                        0 => Vec::new(),
                        _ => draws.iter().map(|draw| draw % pool_len).collect(),
                    },
                })
                .collect();
            let values: Vec<Vec<u64>> = records
                .iter()
                .enumerate()
                .map(|(i, record)| (0..u64::from(record.pool_len)).map(|v| (v << 8) | i as u64).collect())
                .collect();
            let upe = UpeConfig::new(count, 1 << width_log2);
            let run = UpeKernel::new(upe).select_layer(&records, &[]);
            prop_assert_eq!(oracle::replay_select(upe, &records, &values), run);
        }
    }

    #[test]
    fn select_layer_parallelizes_across_upes() {
        let pools: Vec<PoolRecord> = (0..8)
            .map(|i| PoolRecord {
                parents: vec![Vid(i)],
                pool_len: 4,
                positions: vec![0, 1],
            })
            .collect();
        let values: Vec<Vec<u64>> = (0..8).map(|_| vec![1, 2, 3, 4]).collect();
        let serial = upe_kernel(1, 8).select_layer(&pools, &values);
        let parallel = upe_kernel(8, 8).select_layer(&pools, &values);
        assert_eq!(serial.cycles, 8 * 3);
        assert_eq!(parallel.cycles, 3);
    }

    #[test]
    fn convert_matches_golden_models_on_edge_cases() {
        let coo = |num_vertices, pairs: &[(u32, u32)]| {
            Coo::from_pairs(num_vertices, pairs.iter().copied()).expect("valid COO")
        };
        let cases = [
            ("empty graph", coo(0, &[])),
            ("isolated vertices", coo(4, &[])),
            ("one edge", coo(9, &[(7, 3)])),
            (
                "duplicate edges",
                coo(4, &[(2, 1), (0, 3), (2, 1), (2, 1), (0, 3)]),
            ),
            // More vertices than edges, with VIDs spread over the range.
            (
                "sparse VIDs",
                coo(5_000, &[(4_999, 17), (0, 4_999), (17, 17), (3_210, 0)]),
            ),
        ];
        let config = HwConfig {
            upe: UpeConfig::new(2, 4),
            scr: ScrConfig::new(2, 4),
        };
        for (name, coo) in cases {
            let upe = UpeKernel::new(config.upe);
            let run = convert(
                &upe,
                &Reshaper::new(config.scr),
                coo.num_vertices(),
                coo.edges(),
            );
            assert_eq!(run.csc, Csc::from_coo(&coo), "{name}");
            assert_eq!(
                run.csc.to_coo().edges(),
                order_edges_std(coo.edges()),
                "{name}"
            );
            let replay = oracle::convert(config, coo.num_vertices(), coo.edges());
            assert_eq!(replay, run, "{name}");
        }
    }

    /// Converts `coo` in full and on demand under `config`, building the
    /// lists of `frontiers[0]` in the counting read and preparing each
    /// later frontier in turn. The on-demand cost must equal the full
    /// conversion's, and after each step every vertex built so far must
    /// hold its CSC list.
    fn check_frontier_lists(name: &str, coo: &Coo, config: HwConfig, frontiers: &[Vec<Vid>]) {
        let (upe, reshaper) = (UpeKernel::new(config.upe), Reshaper::new(config.scr));
        let n = coo.num_vertices();
        let csc = Csc::from_coo(coo);
        let full = convert(&upe, &reshaper, n, coo.edges());
        assert_eq!(full.csc, csc, "{name}");
        let (batch, later) = frontiers
            .split_first()
            .map_or((&[][..], &[][..]), |(b, l)| (&b[..], l));
        let (mut lists, cost) = FrontierLists::new(&upe, &reshaper, n, coo.edges(), batch);
        assert_eq!(cost, full.cost, "{name}");
        let mut built: Vec<Vid> = batch.to_vec();
        let check = |lists: &FrontierLists<'_>, built: &[Vid]| {
            for &v in built {
                assert_eq!(lists.neighbors(v), csc.neighbors(v), "{name}: vertex {v}");
            }
        };
        check(&lists, &built);
        for frontier in later {
            lists.prepare(frontier);
            built.extend_from_slice(frontier);
            check(&lists, &built);
        }
        // No buffer sized by the edge count: only the lists built.
        let distinct: std::collections::HashSet<Vid> = built.iter().copied().collect();
        let built_len: usize = distinct.iter().map(|&v| csc.neighbors(v).len()).sum();
        assert_eq!(lists.indices.len(), built_len, "{name}");
    }

    #[test]
    fn frontier_lists_match_csc_on_edge_cases() {
        let coo = |num_vertices, pairs: &[(u32, u32)]| {
            Coo::from_pairs(num_vertices, pairs.iter().copied()).expect("valid COO")
        };
        let config = HwConfig {
            upe: UpeConfig::new(2, 4),
            scr: ScrConfig::new(2, 4),
        };
        let hub: Vec<(u32, u32)> = (0..40)
            .map(|i| (i % 9, 3))
            .chain([(3, 1), (8, 1)])
            .collect();
        let cases: [(&str, Coo, Vec<Vec<Vid>>); 5] = [
            ("empty graph", coo(0, &[]), vec![]),
            (
                "isolated vertices",
                coo(4, &[]),
                vec![vec![Vid(2)], vec![Vid(0), Vid(2)]],
            ),
            (
                "duplicate edges",
                coo(4, &[(2, 1), (0, 3), (2, 1), (2, 1), (0, 3)]),
                vec![vec![Vid(1)], vec![Vid(1), Vid(3), Vid(3)], vec![]],
            ),
            // The batch's lists, then a later frontier's, hold most edges.
            (
                "hub in the batch",
                coo(9, &hub),
                vec![vec![Vid(3)], vec![Vid(1)]],
            ),
            (
                "hub in a later hop",
                coo(9, &hub),
                vec![vec![Vid(1)], vec![Vid(3), Vid(8)]],
            ),
        ];
        for (name, coo, frontiers) in cases {
            check_frontier_lists(name, &coo, config, &frontiers);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn frontier_lists_reject_an_out_of_range_source() {
        // The batch's lists hold no edge of source 7, and the counting read
        // still checks it.
        let edges = [Edge::new(Vid(7), Vid(1))];
        let config = HwConfig::vpk180_default();
        FrontierLists::new(
            &UpeKernel::new(config.upe),
            &Reshaper::new(config.scr),
            4,
            &edges,
            &[Vid(0)],
        );
    }

    #[test]
    #[should_panic(expected = "was not prepared")]
    fn frontier_lists_reject_an_unprepared_read() {
        let coo = Coo::from_pairs(3, [(0, 1), (1, 2)]).expect("valid COO");
        let config = HwConfig::vpk180_default();
        let (lists, _) = FrontierLists::new(
            &UpeKernel::new(config.upe),
            &Reshaper::new(config.scr),
            3,
            coo.edges(),
            &[Vid(1)],
        );
        lists.neighbors(Vid(2));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_frontier_lists_match_csc_and_convert(
            num_vertices in 0usize..60,
            pairs in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..300),
            shape in 0u32..4,
            frontiers in proptest::collection::vec(
                proptest::collection::vec(any::<u32>(), 0..8),
                0..5,
            ),
            count in 1usize..=8,
            width_log2 in 1u32..=6,
            slots in 1usize..=8,
            scr_width_log2 in 1u32..=6,
        ) {
            // Edges as drawn; with most of them on one hub destination;
            // with each edge repeated (multi-edges); or none, leaving every
            // vertex isolated. Frontier VIDs repeat within and across hops.
            let n = num_vertices as u32;
            let mut pairs: Vec<(u32, u32)> = if n == 0 {
                Vec::new()
            } else {
                pairs.iter().map(|&(src, dst)| (src % n, dst % n)).collect()
            };
            match shape {
                0 => {}
                1 => {
                    for (i, pair) in pairs.iter_mut().enumerate() {
                        if i % 5 != 0 {
                            pair.1 = n / 2;
                        }
                    }
                }
                2 => pairs = pairs.iter().flat_map(|&pair| [pair, pair]).collect(),
                _ => pairs.clear(),
            }
            let coo = Coo::from_pairs(num_vertices, pairs).expect("valid COO");
            let frontiers: Vec<Vec<Vid>> = frontiers
                .iter()
                .map(|frontier| match n {
                    0 => Vec::new(),
                    _ => frontier.iter().map(|&v| Vid(v % n)).collect(),
                })
                .collect();
            let config = HwConfig {
                upe: UpeConfig::new(count, 1 << width_log2),
                scr: ScrConfig::new(slots, 1 << scr_width_log2),
            };
            check_frontier_lists("random graph", &coo, config, &frontiers);
        }
    }

    #[test]
    fn reshaper_matches_golden_pointer_array() {
        let g = generate::power_law(64, 800, 1.0, 9);
        let mut dsts: Vec<Vid> = g.edges().iter().map(|e| e.dst).collect();
        dsts.sort_unstable();
        let config = ScrConfig::new(2, 16);
        let run = Reshaper::new(config).build_pointers(64, &dsts);
        assert_eq!(run.pointers, pointer_array_sequential(64, &dsts));
        assert_eq!(oracle::replay_windows(config, 64, &dsts), run);
    }

    #[test]
    fn reshaper_cycle_count_tracks_table_i_bound() {
        // cycles ~ max(n / slots, e / width) for uniform data (Table I).
        let g = generate::uniform(256, 4_096, 2);
        let mut dsts: Vec<Vid> = g.edges().iter().map(|e| e.dst).collect();
        dsts.sort_unstable();
        let reshaper = Reshaper::new(ScrConfig::new(4, 64));
        let run = reshaper.build_pointers(256, &dsts);
        let bound = 4_096u64 / 64; // the edge-side term binds here
        assert!(
            run.cycles >= bound && run.cycles < bound * 3,
            "cycles {} vs bound {bound}",
            run.cycles
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn upe_kernel_rejects_a_hand_built_width() {
        UpeKernel::new(UpeConfig { count: 2, width: 3 });
    }

    #[test]
    #[should_panic(expected = "slot count must be positive")]
    fn reshape_accounting_rejects_a_hand_built_zero_slot_config() {
        reshape_accounting(ScrConfig { slots: 0, width: 8 }, &[0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "UPE count must be positive")]
    fn sort_accounting_rejects_a_hand_built_zero_count_config() {
        sort_accounting(UpeConfig { count: 0, width: 8 }, [(8, 255)]);
    }

    #[test]
    #[should_panic(expected = "slot count must be positive")]
    fn reshaper_rejects_a_hand_built_zero_slot_config() {
        // Zero slots would never finish a target, so the window walk would
        // not terminate.
        Reshaper::new(ScrConfig { slots: 0, width: 8 });
    }

    #[test]
    fn reshaper_handles_empty_graph() {
        let reshaper = Reshaper::new(ScrConfig::new(1, 8));
        let run = reshaper.build_pointers(5, &[]);
        assert_eq!(run.pointers, vec![0; 6]);
    }

    #[test]
    fn reshaper_handles_hub_vertex() {
        // One destination owning every edge exercises the consume-window
        // path where no target finishes for many cycles.
        let dsts = vec![Vid(3); 100];
        let config = ScrConfig::new(1, 8);
        let run = Reshaper::new(config).build_pointers(5, &dsts);
        assert_eq!(run.pointers, vec![0, 0, 0, 0, 100, 100]);
        assert_eq!(oracle::replay_windows(config, 5, &dsts), run);
    }

    #[test]
    fn more_slots_help_pointer_heavy_graphs() {
        // Low-degree graph: many vertices, few edges per vertex — the AX
        // pattern of Fig. 23a where slot count matters.
        let g = generate::uniform(2_048, 4_096, 3);
        let mut dsts: Vec<Vid> = g.edges().iter().map(|e| e.dst).collect();
        dsts.sort_unstable();
        let one = Reshaper::new(ScrConfig::new(1, 256)).build_pointers(2_048, &dsts);
        let eight = Reshaper::new(ScrConfig::new(8, 256)).build_pointers(2_048, &dsts);
        assert!(eight.cycles * 2 < one.cycles);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_reshape_accounting_matches_window_replay(
            drawn in proptest::collection::vec(0usize..12, 0..120),
            shape in 0u32..4,
            hub in any::<u32>(),
            hub_degree in 0usize..3_000,
            isolated in 0usize..40,
            slots in 1usize..=64,
            width_log2 in 1u32..=10,
        ) {
            // Degree sequences as drawn, with every edge on one hub, with
            // trailing isolated vertices, or with no edges at all; an empty
            // draw is a graph of no vertices.
            let mut degrees = drawn;
            match shape {
                0 => {}
                1 => {
                    let hub = hub as usize % degrees.len().max(1);
                    for (v, degree) in degrees.iter_mut().enumerate() {
                        *degree = if v == hub { hub_degree } else { 0 };
                    }
                }
                2 => degrees.extend(std::iter::repeat_n(0, isolated)),
                _ => degrees.iter_mut().for_each(|degree| *degree = 0),
            }
            let sorted_dsts: Vec<Vid> = degrees
                .iter()
                .enumerate()
                .flat_map(|(v, &degree)| std::iter::repeat_n(Vid::from_index(v), degree))
                .collect();
            let config = ScrConfig::new(slots, 1 << width_log2);
            let replay = oracle::replay_windows(config, degrees.len(), &sorted_dsts);
            let pointers = pointer_array_sequential(degrees.len(), &sorted_dsts);
            let (cycles, scr_passes) = reshape_accounting(config, &pointers);
            let expected = ReshapeRun { pointers, cycles, scr_passes };
            prop_assert_eq!(&replay, &expected);
            prop_assert_eq!(Reshaper::new(config).build_pointers(degrees.len(), &sorted_dsts), expected);
        }
    }

    #[test]
    fn reindexer_matches_golden_model_both_fidelities() {
        let stream: Vec<Vid> = [5u32, 9, 5, 1, 9, 9, 2, 5].into_iter().map(Vid).collect();
        let config = ScrConfig::new(2, 4);
        let run = Reindexer::new(config).reindex(&stream);
        assert_eq!(run.result, reindex_hashmap(&stream));
        assert_eq!(run.peak_mappings, 4);
        assert_eq!(oracle::replay_reindex(config, &stream), run);
    }

    #[test]
    fn reindexer_charges_insert_cycles() {
        let reindexer = Reindexer::new(ScrConfig::new(1, 8));
        // All distinct: each input costs 1 lookup + 1 insert.
        let stream: Vec<Vid> = (0..5).map(Vid).collect();
        let run = reindexer.reindex(&stream);
        assert_eq!(run.cycles, 10);
        // All duplicates after the first: 1 lookup each, single insert.
        let dup = vec![Vid(7); 5];
        let run = reindexer.reindex(&dup);
        assert_eq!(run.cycles, 5 + 1);
    }

    #[test]
    fn reindexer_bank_count_grows_with_mapping_size() {
        // Lookups stay single-cycle (banked search), but the comparator
        // work — scr_passes — grows with the number of occupied banks.
        let narrow = Reindexer::new(ScrConfig::new(1, 2));
        let stream: Vec<Vid> = (0..64).map(Vid).collect();
        let run = narrow.reindex(&stream);
        assert_eq!(run.cycles, 64 + 64, "one lookup + one insert per input");
        let expected_bank_exams: u64 = (0..64u64).map(|i| i.div_ceil(2).max(1)).sum();
        assert_eq!(run.scr_passes, expected_bank_exams);
    }

    #[test]
    fn reindexer_empty_stream() {
        let run = Reindexer::new(ScrConfig::new(1, 8)).reindex(&[]);
        assert_eq!(run.cycles, 0);
        assert_eq!(run.result.num_unique(), 0);
        assert_eq!(oracle::replay_reindex(ScrConfig::new(1, 8), &[]), run);
    }

    /// A deterministic stream of `len` VIDs drawn from `uniques` values
    /// spread over the `u32` range, so later inputs mostly repeat.
    fn repeating_stream(len: u64, uniques: u64, seed: u64) -> Vec<Vid> {
        (0..len)
            .map(|i| {
                let pick = (i ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) % uniques;
                Vid((pick.wrapping_mul(2_654_435_761) % (1 << 32)) as u32)
            })
            .collect()
    }

    #[test]
    fn reindex_accounting_is_pinned() {
        // (slots, width, stream, cycles, scr_passes, peak_mappings) of
        // `reindex`, recorded from the linear-search Fast reindexer this
        // hash index replaced. The last two streams hold more mappings than
        // one `slots * width` window, so lookups search several banks.
        let pinned: [(usize, usize, Vec<Vid>, u64, u64, usize); 5] = [
            (1, 8, Vec::new(), 0, 0, 0),
            (
                2,
                4,
                [5u32, 9, 5, 1, 9, 9, 2, 5].map(Vid).to_vec(),
                12,
                16,
                4,
            ),
            (1, 8, vec![Vid(u32::MAX); 50], 51, 50, 1),
            (2, 8, repeating_stream(3_000, 120, 3), 3_120, 33_832, 120),
            (
                4,
                64,
                repeating_stream(20_000, 1_500, 5),
                21_500,
                426_960,
                1_500,
            ),
        ];
        for (slots, width, stream, cycles, scr_passes, peak_mappings) in pinned {
            let run = Reindexer::new(ScrConfig::new(slots, width)).reindex(&stream);
            assert_eq!(
                (run.cycles, run.scr_passes, run.peak_mappings),
                (cycles, scr_passes, peak_mappings),
                "slots {slots}, width {width}, {} inputs",
                stream.len()
            );
            assert_eq!(run.result, reindex_hashmap(&stream));
        }
    }

    #[test]
    #[should_panic(expected = "SRAM bank overflow")]
    fn reindexer_rejects_more_mappings_than_sram_holds() {
        let stream: Vec<Vid> = (0..=Reindexer::DEFAULT_SRAM_CAPACITY as u32)
            .map(Vid)
            .collect();
        Reindexer::new(ScrConfig::new(1, 8)).reindex(&stream);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prop_reindex_fidelities_match_hashmap(
            raw in proptest::collection::vec((any::<u32>(), 0u32..4), 0..300),
            uniques in 1u32..80,
            slots in 1usize..=3,
            width_log2 in 1u32..=3,
        ) {
            // Most inputs come from a few VIDs spread up to `u32::MAX`, so
            // they repeat; one in four is drawn from the whole range.
            let stream: Vec<Vid> = raw
                .iter()
                .map(|&(vid, pick)| {
                    Vid(if pick == 0 { vid } else { u32::MAX - (vid % uniques) * 7_919 })
                })
                .collect();
            let config = ScrConfig::new(slots, 1 << width_log2);
            let run = Reindexer::new(config).reindex(&stream);
            prop_assert_eq!(&run.result, &reindex_hashmap(&stream));
            prop_assert_eq!(oracle::replay_reindex(config, &stream), run);
        }
    }
}
