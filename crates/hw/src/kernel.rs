//! The UPE and SCR kernels: controllers, scheduling and cycle accounting.
//!
//! The UPE kernel (Fig. 12a) couples a controller, a scoreboard scheduler
//! and a scratchpad around `n` identical UPEs; the SCR kernel (Fig. 13a)
//! couples the *reshaper* and *reindexer* controllers around `n` SCR slots
//! and an SRAM mapping bank.
//!
//! # Fidelity
//!
//! Each kernel runs in one of two fidelities with **identical cycle
//! accounting and identical functional output**:
//!
//! - [`Fidelity::Structural`] evaluates every prefix-sum/relocation network
//!   layer and every comparator/reducer tree explicitly (and asserts the
//!   result against the software model) — used by the verification tests;
//! - [`Fidelity::Fast`] computes the same result with plain software
//!   operations in host time linear in its input — used for large
//!   experiment sweeps and paper-scale requests.
//!
//! Cycles and passes depend only on counts, never on how the host found
//! the result, so each kernel charges them the same way in both fidelities:
//!
//! - Edge ordering charges them through one function, [`sort_accounting`],
//!   from the chunk run lengths and maxima. One scan over the edges yields
//!   those and the largest VID, and the sorted edges come from one O(E + V)
//!   counting transposition ([`order_edges_counting_with_max`]). Fast stops
//!   there; Structural also replays every chunk sort on the UPE network and
//!   the whole merge tree, and asserts both the merged keys and the pass
//!   count against that ordering and the accounting.
//! - Selection charges each pool from its length and draw count. Only
//!   Structural reads the pool contents, to replay each draw through the
//!   one-hot extraction network.
//! - Reindexing charges each lookup from the number of mappings held. Fast
//!   finds a VID's mapping in a hash index; Structural searches the mapping
//!   bank window by window through the filter tree and asserts the result
//!   against a linear search.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use agnn_algo::ordering::order_edges_counting_with_max;
use agnn_algo::pipeline::PoolRecord;
use agnn_algo::reindex::ReindexResult;
use agnn_algo::sort::tree_merge;
use agnn_graph::{Edge, Vid};

use crate::config::{ScrConfig, UpeConfig};
use crate::scr::Scr;
use crate::upe::Upe;

/// Simulation fidelity; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fidelity {
    /// Gate-level network evaluation with golden-model assertions.
    Structural,
    /// Software-equivalent computation, identical outputs and cycles.
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
pub fn sort_accounting(
    config: UpeConfig,
    chunks: impl IntoIterator<Item = (usize, u64)>,
) -> (u64, u64) {
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
    let mut cycles = schedule_makespan(runs.iter().map(|_| chunk_sort_cycles), config.count);

    let half = (config.width / 2).max(1) as u64;
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
    upe: Upe,
    fidelity: Fidelity,
}

impl UpeKernel {
    /// Creates a kernel in [`Fidelity::Fast`].
    pub fn new(config: UpeConfig) -> Self {
        Self::with_fidelity(config, Fidelity::Fast)
    }

    /// Creates a kernel with an explicit fidelity.
    pub fn with_fidelity(config: UpeConfig, fidelity: Fidelity) -> Self {
        UpeKernel {
            config,
            upe: Upe::new(config.width),
            fidelity,
        }
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
    /// [`order_edges_counting_with_max`] in both fidelities, so the host
    /// reads the edges once before sorting them. [`Fidelity::Structural`]
    /// also replays every chunk sort on the UPE network and the merge tree
    /// ([`tree_merge`]), and asserts that the merged keys equal that
    /// ordering and that the replayed passes equal the accounting.
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
        let sorted = order_edges_counting_with_max(edges, max_vid);
        if self.fidelity == Fidelity::Structural {
            let (merged, passes) = self.replay_sort(edges);
            let keys = sorted.iter().map(|e| e.sort_key());
            assert!(keys.eq(merged), "UPE merge tree diverged");
            assert_eq!(passes, upe_passes, "UPE pass count diverged");
        }
        SortRun {
            sorted,
            cycles,
            upe_passes,
        }
    }

    /// Structural replay of edge ordering: each chunk's keys through the UPE
    /// radix network, then the chunk runs through the merge tree. Returns
    /// the merged keys and the partition passes issued.
    fn replay_sort(&self, edges: &[Edge]) -> (Vec<u64>, u64) {
        let mut passes = 0u64;
        let runs = edges
            .chunks(self.config.width.max(1))
            .map(|chunk| {
                let keys: Vec<u64> = chunk.iter().map(|e| e.sort_key()).collect();
                let (sorted, bits) = self.upe.radix_sort_chunk(&keys);
                passes += bits * 2; // zero-pass + one-pass per bit
                let mut expected = keys;
                expected.sort_unstable();
                assert_eq!(sorted, expected, "UPE chunk sort diverged");
                sorted
            })
            .collect();
        (tree_merge(runs).0, passes)
    }

    /// Uni-random selection for one layer: each pool record is one UPE job
    /// costing one cycle per draw (one-hot extraction, Fig. 16) plus
    /// `ceil(pool_len / width)` cycles for the final bitmap partition that
    /// extracts the sampled neighborhood; jobs are scheduled across UPEs.
    ///
    /// Cycles and passes come from each record's `pool_len` and draw count
    /// alone. `pool_values` holds each pool's contents packed into the
    /// UPE's 64-bit lanes, one entry per record, and only
    /// [`Fidelity::Structural`] reads it: it replays every recorded draw
    /// through the one-hot extraction network against those contents.
    /// [`Fidelity::Fast`] ignores it, so a Fast caller may pass `&[]`.
    ///
    /// # Panics
    ///
    /// In [`Fidelity::Structural`], panics if `pool_values` does not hold
    /// one pool of `pool_len` values per record.
    pub fn select_layer(&self, pools: &[PoolRecord], pool_values: &[Vec<u64>]) -> SelectRun {
        let width = self.config.width as u64;
        let job_cycles: Vec<u64> = pools
            .iter()
            .map(|record| {
                let draws = record.positions.len() as u64;
                draws + u64::from(record.pool_len).div_ceil(width).max(1)
            })
            .collect();
        if self.fidelity == Fidelity::Structural {
            self.replay_select(pools, pool_values);
        }
        SelectRun {
            upe_passes: job_cycles.iter().sum(),
            cycles: schedule_makespan(job_cycles, self.config.count),
        }
    }

    /// Structural replay of selection: every recorded draw through the
    /// one-hot extraction network, against the pool contents.
    fn replay_select(&self, pools: &[PoolRecord], pool_values: &[Vec<u64>]) {
        assert_eq!(pools.len(), pool_values.len(), "one pool per record");
        let width = self.config.width;
        for (record, values) in pools.iter().zip(pool_values) {
            assert_eq!(record.pool_len as usize, values.len(), "pool length");
            for &position in &record.positions {
                // Chunk the pool to the UPE width and extract within the
                // chunk holding the drawn position.
                let chunk_start = position as usize / width * width;
                let chunk_end = (chunk_start + width).min(values.len());
                let extracted = self.upe.extract_one_hot(
                    &values[chunk_start..chunk_end],
                    position as usize - chunk_start,
                );
                assert_eq!(
                    extracted, values[position as usize],
                    "one-hot extraction diverged"
                );
            }
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
    scr: Scr,
    fidelity: Fidelity,
}

impl Reshaper {
    /// Creates a reshaper in [`Fidelity::Fast`].
    pub fn new(config: ScrConfig) -> Self {
        Self::with_fidelity(config, Fidelity::Fast)
    }

    /// Creates a reshaper with an explicit fidelity.
    pub fn with_fidelity(config: ScrConfig, fidelity: Fidelity) -> Self {
        Reshaper {
            config,
            scr: Scr::new(config.width),
            fidelity,
        }
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
    /// # Panics
    ///
    /// Panics (in debug builds) if `sorted_dsts` is not sorted.
    pub fn build_pointers(&self, num_vertices: usize, sorted_dsts: &[Vid]) -> ReshapeRun {
        debug_assert!(sorted_dsts.windows(2).all(|w| w[0] <= w[1]));
        let width = self.config.width;
        let slots = self.config.slots;
        let total = sorted_dsts.len();
        let mut pointers = vec![0u32; num_vertices + 1];
        let mut cycles = 0u64;
        let mut scr_passes = 0u64;
        let mut consumed = 0usize; // COO elements already consumed
        let mut target = 0usize; // next pointer entry to finalize

        while target <= num_vertices {
            cycles += 1;
            let window_end = (consumed + width).min(total);
            let window = &sorted_dsts[consumed..window_end];
            let window_is_last = window_end == total;

            // Each slot evaluates one consecutive target this cycle.
            let mut finished = 0usize;
            for slot in 0..slots {
                let t = target + slot;
                if t > num_vertices {
                    break;
                }
                scr_passes += 1;
                let in_window = self.count_below(window, t as u32);
                // The count is final once the window shows an element >= t
                // or the COO is exhausted.
                let proven = window_is_last || window.last().is_some_and(|&d| d.index() >= t);
                if proven {
                    pointers[t] = consumed as u32 + in_window;
                    finished += 1;
                } else {
                    break;
                }
            }
            target += finished;
            // Consume window elements strictly below the current target —
            // they "can no longer contribute to the remaining targets".
            let consumable = window.partition_point(|&d| d.index() < target);
            if finished == 0 {
                // Whole window below the pending target: consume it all.
                consumed = window_end;
            } else {
                consumed += consumable;
            }
        }

        ReshapeRun {
            pointers,
            cycles,
            scr_passes,
        }
    }

    fn count_below(&self, window: &[Vid], target: u32) -> u32 {
        match self.fidelity {
            Fidelity::Structural => {
                let raw: Vec<u32> = window.iter().map(|v| v.0).collect();
                let counted = self.scr.count_less_than(&raw, target);
                let expected = window.partition_point(|&d| d.0 < target) as u32;
                assert_eq!(counted, expected, "SCR adder tree diverged");
                counted
            }
            Fidelity::Fast => window.partition_point(|&d| d.0 < target) as u32,
        }
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
    scr: Scr,
    fidelity: Fidelity,
    sram_capacity: usize,
}

impl Reindexer {
    /// Default SRAM mapping capacity (entries). Generous for sampled
    /// subgraphs: a 2-layer, k = 10, b = 3000 workload touches ≈ 333 K
    /// uniques at most.
    pub const DEFAULT_SRAM_CAPACITY: usize = 1 << 20;

    /// Creates a reindexer in [`Fidelity::Fast`].
    pub fn new(config: ScrConfig) -> Self {
        Self::with_fidelity(config, Fidelity::Fast)
    }

    /// Creates a reindexer with an explicit fidelity.
    pub fn with_fidelity(config: ScrConfig, fidelity: Fidelity) -> Self {
        Reindexer {
            config,
            scr: Scr::new(config.width),
            fidelity,
            sram_capacity: Self::DEFAULT_SRAM_CAPACITY,
        }
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
    /// follow from the number of mappings held, so the fidelities differ
    /// only in how the host finds a mapping. [`Fidelity::Fast`] keeps a hash
    /// index from old to new VID, O(1) per input. [`Fidelity::Structural`]
    /// keeps the `(old, new)` pairs in insertion order, evaluates the filter
    /// tree window by window to verify the datapath, and asserts its result
    /// against a linear search.
    ///
    /// # Panics
    ///
    /// Panics if the mapping bank exceeds the SRAM capacity.
    pub fn reindex(&self, stream: &[Vid]) -> ReindexRun {
        let window = self.config.width * self.config.slots;
        let mut index: HashMap<u32, u32> = HashMap::new();
        let mut mappings: Vec<(u32, u32)> = Vec::new();
        let mut new_ids = Vec::with_capacity(stream.len());
        let mut new_to_old = Vec::new();
        let mut cycles = 0u64;
        let mut scr_passes = 0u64;

        for &old in stream {
            let banks = new_to_old.len().div_ceil(window).max(1) as u64;
            cycles += 1; // banked search: one cycle per lookup
            scr_passes += banks * self.config.slots as u64;
            let hit = match self.fidelity {
                Fidelity::Structural => self.filter_lookup(&mappings, old.0),
                Fidelity::Fast => index.get(&old.0).copied(),
            };
            match hit {
                Some(renumbered) => new_ids.push(Vid(renumbered)),
                None => {
                    let fresh = new_to_old.len() as u32;
                    assert!(
                        new_to_old.len() < self.sram_capacity,
                        "reindexer SRAM bank overflow at {} mappings",
                        new_to_old.len()
                    );
                    match self.fidelity {
                        Fidelity::Structural => mappings.push((old.0, fresh)),
                        Fidelity::Fast => {
                            index.insert(old.0, fresh);
                        }
                    }
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

    /// Structural lookup: the filter tree over each `width`-pair window of
    /// the mapping bank, asserted against a linear search.
    fn filter_lookup(&self, mappings: &[(u32, u32)], old: u32) -> Option<u32> {
        let found = mappings
            .chunks(self.config.width)
            .find_map(|chunk| self.scr.filter_lookup(chunk, old));
        let expected = mappings.iter().find(|&&(o, _)| o == old).map(|&(_, r)| r);
        assert_eq!(found, expected, "SCR filter tree diverged");
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agnn_algo::ordering::order_edges_std;
    use agnn_algo::reindex::reindex_hashmap;
    use agnn_algo::reshape::pointer_array_sequential;
    use agnn_graph::datasets::Dataset;
    use agnn_graph::generate;
    use proptest::prelude::*;

    fn upe_kernel(count: usize, width: usize, fidelity: Fidelity) -> UpeKernel {
        UpeKernel::with_fidelity(UpeConfig::new(count, width), fidelity)
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
        for (name, g) in &graphs {
            let expected = order_edges_std(g.edges());
            for fidelity in [Fidelity::Fast, Fidelity::Structural] {
                let run = upe_kernel(4, 16, fidelity).sort_edges(g.edges());
                assert_eq!(run.sorted, expected, "{name} {fidelity:?}");
                assert!(run.cycles > 0);
            }
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
            let run = upe_kernel(count, width, Fidelity::Fast).sort_edges(g.edges());
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
        ) {
            let edges: Vec<Edge> = edges
                .into_iter()
                .map(|(src, dst)| Edge::new(Vid(src), Vid(dst)))
                .collect();
            let width = 1 << width_log2;
            let fast = upe_kernel(count, width, Fidelity::Fast).sort_edges(&edges);
            let structural = upe_kernel(count, width, Fidelity::Structural).sort_edges(&edges);
            prop_assert_eq!(&fast.sorted, &order_edges_std(&edges));
            prop_assert_eq!(fast, structural);
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
        let kernel = upe_kernel(2, 8, Fidelity::Structural);
        assert!(kernel.sort_edges(&[]).sorted.is_empty());
        let one = [Edge::new(Vid(3), Vid(1))];
        assert_eq!(kernel.sort_edges(&one).sorted, one.to_vec());
    }

    #[test]
    fn more_upes_reduce_sort_cycles() {
        let g = generate::power_law(200, 4_000, 0.8, 5);
        let few = upe_kernel(2, 64, Fidelity::Fast).sort_edges(g.edges());
        let many = upe_kernel(32, 64, Fidelity::Fast).sort_edges(g.edges());
        assert!(many.cycles < few.cycles);
    }

    #[test]
    fn wider_upes_reduce_sort_cycles() {
        let g = generate::power_law(200, 4_000, 0.8, 5);
        let narrow = upe_kernel(8, 16, Fidelity::Fast).sort_edges(g.edges());
        let wide = upe_kernel(8, 256, Fidelity::Fast).sort_edges(g.edges());
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
        let kernel = upe_kernel(1, 8, Fidelity::Structural);
        let run = kernel.select_layer(&pools, &values);
        // Pool 1: 3 draws + 1 extraction; pool 2: 1 draw + 1 extraction.
        assert_eq!(run.cycles, 6);
        assert_eq!(run.upe_passes, 6);
        // Fast reads no pool contents.
        assert_eq!(
            upe_kernel(1, 8, Fidelity::Fast).select_layer(&pools, &[]),
            run
        );
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
        let serial = upe_kernel(1, 8, Fidelity::Fast).select_layer(&pools, &values);
        let parallel = upe_kernel(8, 8, Fidelity::Fast).select_layer(&pools, &values);
        assert_eq!(serial.cycles, 8 * 3);
        assert_eq!(parallel.cycles, 3);
    }

    #[test]
    fn reshaper_matches_golden_pointer_array() {
        let g = generate::power_law(64, 800, 1.0, 9);
        let mut dsts: Vec<Vid> = g.edges().iter().map(|e| e.dst).collect();
        dsts.sort_unstable();
        let expected = pointer_array_sequential(64, &dsts);
        for fidelity in [Fidelity::Fast, Fidelity::Structural] {
            let reshaper = Reshaper::with_fidelity(ScrConfig::new(2, 16), fidelity);
            let run = reshaper.build_pointers(64, &dsts);
            assert_eq!(run.pointers, expected, "{fidelity:?}");
        }
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
        let reshaper = Reshaper::with_fidelity(ScrConfig::new(1, 8), Fidelity::Structural);
        let run = reshaper.build_pointers(5, &dsts);
        assert_eq!(run.pointers, vec![0, 0, 0, 0, 100, 100]);
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

    #[test]
    fn reindexer_matches_golden_model_both_fidelities() {
        let stream: Vec<Vid> = [5u32, 9, 5, 1, 9, 9, 2, 5].into_iter().map(Vid).collect();
        let expected = reindex_hashmap(&stream);
        for fidelity in [Fidelity::Fast, Fidelity::Structural] {
            let reindexer = Reindexer::with_fidelity(ScrConfig::new(2, 4), fidelity);
            let run = reindexer.reindex(&stream);
            assert_eq!(run.result, expected, "{fidelity:?}");
            assert_eq!(run.peak_mappings, 4);
        }
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
        let structural = Reindexer::with_fidelity(ScrConfig::new(1, 8), Fidelity::Structural);
        assert_eq!(structural.reindex(&[]), run);
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
            let run = |fidelity| Reindexer::with_fidelity(config, fidelity).reindex(&stream);
            let (fast, structural) = (run(Fidelity::Fast), run(Fidelity::Structural));
            prop_assert_eq!(&fast.result, &reindex_hashmap(&stream));
            prop_assert_eq!(fast, structural);
        }
    }
}
