//! The structural datapath as a test oracle.
//!
//! The kernels ([`crate::kernel`]) run one path: golden functional output
//! plus count-based cycle accounting. This module models the same stages a
//! second way, at the level §IV-C describes the hardware: every chunk sort
//! through the UPE radix network and the merge tree round by round (Fig. 15),
//! every draw through the one-hot extraction network (Fig. 16), every SCR
//! window through the adder tree and every mapping lookup through the filter
//! tree (Fig. 13). Each replay derives its output, cycles and passes from
//! what it evaluated, and asserts each datapath result against a plain
//! software computation.
//!
//! Nothing on the simulation path calls this module. Tests assert that each
//! replay equals its kernel, and that [`preprocess`] equals
//! [`AutoGnnEngine::preprocess`](crate::engine::AutoGnnEngine::preprocess)
//! in output and report. The replays cost far more host time than the
//! kernels: the radix network alone evaluates `log2(width)` adder and
//! routing layers per key bit per chunk.
//!
//! # Examples
//!
//! ```
//! use agnn_algo::pipeline::SampleParams;
//! use agnn_graph::{generate, Vid};
//! use agnn_hw::{engine::AutoGnnEngine, oracle, HwConfig, ScrConfig, UpeConfig};
//!
//! let config = HwConfig {
//!     upe: UpeConfig::new(4, 16),
//!     scr: ScrConfig::new(2, 32),
//! };
//! let coo = generate::power_law(100, 600, 0.8, 1);
//! let params = SampleParams::new(4, 2);
//! let engine = AutoGnnEngine::new(config).preprocess(&coo, &[Vid(0)], &params, 7);
//! assert_eq!(oracle::preprocess(config, &coo, &[Vid(0)], &params, 7), engine);
//! ```

use std::collections::HashMap;

use agnn_algo::pipeline::{
    self, PoolRecord, PreprocessOutput, PreprocessStats, SampleParams, SampledSubgraph,
    SelectionStrategy,
};
use agnn_algo::reindex::ReindexResult;
use agnn_algo::sort::{merge_sorted, tree_merge};
use agnn_graph::{Coo, Csc, Edge, Vid};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::{HwConfig, ScrConfig, UpeConfig};
use crate::engine::{charge_conversion, reindexing_dram_bytes, selecting_dram_bytes, EngineRun};
use crate::kernel::{
    schedule_makespan, ConvertCost, ConvertRun, ReindexRun, Reindexer, ReshapeRun, SelectRun,
    SortRun, RADIX_STAGES_PER_CYCLE,
};
use crate::metrics::HwReport;
use crate::scr::Scr;
use crate::upe::Upe;

/// Edge ordering (Fig. 15) on the UPE datapath: each width-sized chunk of
/// keys through the radix network, then the chunk runs through the merge
/// tree round by round, and the merged keys deconcatenated into edges.
///
/// Every chunk sort runs as many radix stages as the largest key has
/// significant bits, [`RADIX_STAGES_PER_CYCLE`] per cycle, with the chunks
/// scheduled across UPEs. A chunk of two or more keys issues one zero-pass
/// and one one-pass per significant bit of its own largest key. While a
/// merge round has at least as many jobs as UPEs, each job emits `width/2`
/// elements per cycle and the round ends at a barrier; after that the rest
/// of the tree streams as one cascade at the root merger's `width/2`
/// elements per cycle.
///
/// # Panics
///
/// Panics if a chunk sort diverges from a software sort.
pub fn replay_sort(config: UpeConfig, edges: &[Edge]) -> SortRun {
    let upe = Upe::new(config.width);
    let mut upe_passes = 0u64;
    let mut runs: Vec<Vec<u64>> = edges
        .chunks(config.width)
        .map(|chunk| {
            let keys: Vec<u64> = chunk.iter().map(|e| e.sort_key()).collect();
            let (sorted, bits) = upe.radix_sort_chunk(&keys);
            upe_passes += bits * 2; // zero-pass + one-pass per bit
            let mut expected = keys;
            expected.sort_unstable();
            assert_eq!(sorted, expected, "UPE chunk sort diverged");
            sorted
        })
        .collect();

    let max_key = runs.iter().filter_map(|run| run.last()).max().copied();
    let key_bits = 64 - max_key.unwrap_or(0).leading_zeros();
    let chunk_cycles = u64::from(key_bits.div_ceil(RADIX_STAGES_PER_CYCLE));
    let mut cycles = schedule_makespan(vec![chunk_cycles; runs.len()], config.count);

    let half = (config.width / 2) as u64;
    while runs.len() > 1 {
        if runs.len() / 2 < config.count {
            let total: usize = runs.iter().map(Vec::len).sum();
            cycles += (total as u64).div_ceil(half);
            runs = vec![tree_merge(runs).0];
            break;
        }
        let mut jobs = Vec::new();
        let mut merged = Vec::with_capacity(runs.len().div_ceil(2));
        let mut round = runs.into_iter();
        while let Some(a) = round.next() {
            match round.next() {
                Some(b) => {
                    jobs.push(((a.len() + b.len()) as u64).div_ceil(half));
                    merged.push(merge_sorted(&a, &b));
                }
                None => merged.push(a),
            }
        }
        cycles += schedule_makespan(jobs, config.count);
        runs = merged;
    }

    SortRun {
        sorted: runs
            .pop()
            .unwrap_or_default()
            .into_iter()
            .map(Edge::from_sort_key)
            .collect(),
        cycles,
        upe_passes,
    }
}

/// Uni-random selection for one layer (Fig. 16): every recorded draw
/// through the one-hot extraction network, within the width-sized chunk of
/// its pool that holds the drawn position. `pool_values` holds each
/// record's pool packed into the UPE's 64-bit lanes ([`pool_contents`]).
///
/// Each record is one UPE job: one cycle per extraction, then one bitmap
/// partition pass per chunk of its pool (one for an empty pool), with the
/// jobs scheduled across UPEs.
///
/// # Panics
///
/// Panics if `pool_values` does not hold one pool of `pool_len` values per
/// record, or if an extraction diverges from indexing the pool.
pub fn replay_select(
    config: UpeConfig,
    pools: &[PoolRecord],
    pool_values: &[Vec<u64>],
) -> SelectRun {
    assert_eq!(pools.len(), pool_values.len(), "one pool per record");
    let upe = Upe::new(config.width);
    let job_cycles: Vec<u64> = pools
        .iter()
        .zip(pool_values)
        .map(|(record, values)| {
            assert_eq!(record.pool_len as usize, values.len(), "pool length");
            let chunks: Vec<&[u64]> = values.chunks(config.width).collect();
            for &position in &record.positions {
                let position = position as usize;
                let chunk = chunks[position / config.width];
                let extracted = upe.extract_one_hot(chunk, position % config.width);
                assert_eq!(extracted, values[position], "one-hot extraction diverged");
            }
            record.positions.len() as u64 + chunks.len().max(1) as u64
        })
        .collect();
    SelectRun {
        upe_passes: job_cycles.iter().sum(),
        cycles: schedule_makespan(job_cycles, config.count),
    }
}

/// A pool record's contents packed into the UPE's 64-bit lanes: the
/// parent's neighbors for node-wise selection, and `(src << 32) | parent`
/// for every neighbor of every parent for layer-wise selection.
pub fn pool_contents(csc: &Csc, strategy: SelectionStrategy, parents: &[Vid]) -> Vec<u64> {
    match strategy {
        SelectionStrategy::NodeWise => {
            debug_assert_eq!(parents.len(), 1);
            csc.neighbors(parents[0])
                .iter()
                .map(|s| u64::from(s.0))
                .collect()
        }
        SelectionStrategy::LayerWise => parents
            .iter()
            .flat_map(|&parent| {
                csc.neighbors(parent)
                    .iter()
                    .map(move |s| (u64::from(s.0) << 32) | u64::from(parent.0))
            })
            .collect(),
    }
}

/// Data reshaping (§IV-C) on the SCR reshaper: the dual-counter window walk
/// over the sorted destinations. Per cycle, every slot evaluates one target
/// VID, counting the window's destinations below it through the adder
/// tree; a target completes once the window proves its count, and window
/// elements below the current target are consumed.
///
/// # Panics
///
/// Panics if an adder-tree count diverges from a binary search, or if
/// [`ScrConfig::new`] rejects `config`'s fields (with no slot, no target
/// would ever finish).
pub fn replay_windows(config: ScrConfig, num_vertices: usize, sorted_dsts: &[Vid]) -> ReshapeRun {
    let config = ScrConfig::new(config.slots, config.width);
    let scr = Scr::new(config.width);
    let total = sorted_dsts.len();
    let mut pointers = vec![0u32; num_vertices + 1];
    let mut cycles = 0u64;
    let mut scr_passes = 0u64;
    let mut consumed = 0usize; // COO elements already consumed
    let mut target = 0usize; // next pointer entry to finalize

    while target <= num_vertices {
        cycles += 1;
        let window_end = (consumed + config.width).min(total);
        let window = &sorted_dsts[consumed..window_end];
        let window_is_last = window_end == total;

        // Each slot evaluates one consecutive target this cycle.
        let mut finished = 0usize;
        for slot in 0..config.slots {
            let t = target + slot;
            if t > num_vertices {
                break;
            }
            scr_passes += 1;
            let in_window = count_below(&scr, window, t as u32);
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

/// Destinations in `window` below `target`, counted by the SCR adder tree
/// and asserted against a binary search.
fn count_below(scr: &Scr, window: &[Vid], target: u32) -> u32 {
    let raw: Vec<u32> = window.iter().map(|v| v.0).collect();
    let counted = scr.count_less_than(&raw, target);
    let expected = window.partition_point(|&d| d.0 < target) as u32;
    assert_eq!(counted, expected, "SCR adder tree diverged");
    counted
}

/// COO→CSC conversion (§II-B): [`replay_sort`] on `config.upe`, then
/// [`replay_windows`] on `config.scr` over the sorted destinations.
///
/// # Panics
///
/// Panics if a replay diverges from its software check.
pub fn convert(config: HwConfig, num_vertices: usize, edges: &[Edge]) -> ConvertRun {
    let sort = replay_sort(config.upe, edges);
    let (indices, dsts): (Vec<Vid>, Vec<Vid>) = sort.sorted.iter().map(|e| (e.src, e.dst)).unzip();
    let reshape = replay_windows(config.scr, num_vertices, &dsts);
    ConvertRun {
        csc: Csc::new(reshape.pointers, indices).expect("replayed conversion is a valid CSC"),
        cost: ConvertCost {
            ordering_cycles: sort.cycles,
            upe_passes: sort.upe_passes,
            reshaping_cycles: reshape.cycles,
            scr_passes: reshape.scr_passes,
        },
    }
}

/// Subgraph reindexing (Fig. 13c) on the SCR reindexer: the `(old, new)`
/// pairs sit in insertion order in the SRAM mapping bank, and each input
/// is looked up through the filter tree, one `width`-pair window at a time.
///
/// The bank is split into banks of `slots * width` pairs searched
/// concurrently, so a lookup takes one cycle and `slots` filter-tree
/// evaluations per occupied bank (one bank when empty); a miss takes one
/// more cycle to insert its mapping.
///
/// # Panics
///
/// Panics if a filter-tree lookup diverges from a linear search, or if the
/// mappings exceed [`Reindexer::DEFAULT_SRAM_CAPACITY`].
pub fn replay_reindex(config: ScrConfig, stream: &[Vid]) -> ReindexRun {
    let scr = Scr::new(config.width);
    let bank = config.width * config.slots;
    let mut mappings: Vec<(u32, u32)> = Vec::new();
    let mut new_ids = Vec::with_capacity(stream.len());
    let mut new_to_old = Vec::new();
    let mut cycles = 0u64;
    let mut scr_passes = 0u64;

    for &old in stream {
        cycles += 1;
        scr_passes += (mappings.len().div_ceil(bank).max(1) * config.slots) as u64;
        match filter_lookup(&scr, &mappings, old.0) {
            Some(renumbered) => new_ids.push(Vid(renumbered)),
            None => {
                let fresh = mappings.len() as u32;
                assert!(
                    mappings.len() < Reindexer::DEFAULT_SRAM_CAPACITY,
                    "reindexer SRAM bank overflow at {} mappings",
                    mappings.len()
                );
                mappings.push((old.0, fresh));
                new_to_old.push(old);
                new_ids.push(Vid(fresh));
                cycles += 1; // insert
            }
        }
    }

    ReindexRun {
        peak_mappings: mappings.len(),
        result: ReindexResult {
            new_ids,
            new_to_old,
        },
        cycles,
        scr_passes,
    }
}

/// The filter tree over each `width`-pair window of the mapping bank,
/// asserted against a linear search.
fn filter_lookup(scr: &Scr, mappings: &[(u32, u32)], old: u32) -> Option<u32> {
    let found = mappings
        .chunks(scr.width())
        .find_map(|chunk| scr.filter_lookup(chunk, old));
    let expected = mappings.iter().find(|&&(o, _)| o == old).map(|&(_, r)| r);
    assert_eq!(found, expected, "SCR filter tree diverged");
    found
}

/// The preprocessing workflow of Fig. 14 built from the replays: [`convert`]
/// on the full graph, the golden [`pipeline::sample`] under `seed`,
/// [`replay_select`] on each layer's pools, [`replay_reindex`] on the node
/// stream and [`convert`] on the renumbered subgraph. DRAM bytes come from
/// the engine's traffic model.
///
/// # Panics
///
/// Panics if a replay diverges from its software check, or if a batch node
/// is out of range for `coo`.
pub fn preprocess(
    config: HwConfig,
    coo: &Coo,
    batch: &[Vid],
    params: &SampleParams,
    seed: u64,
) -> EngineRun {
    let mut report = HwReport::default();
    let csc = convert_into(config, coo.num_vertices(), coo.edges(), &mut report);

    let mut rng = StdRng::seed_from_u64(seed);
    let trace = pipeline::sample(&csc, batch, params, &mut rng);
    for layer in &trace.layers {
        let pool_values: Vec<Vec<u64>> = layer
            .iter()
            .map(|record| pool_contents(&csc, params.strategy, &record.parents))
            .collect();
        let run = replay_select(config.upe, layer, &pool_values);
        report.cycles.selecting += run.cycles;
        report.upe_passes += run.upe_passes;
    }
    report.dram_bytes.selecting += selecting_dram_bytes(trace.pool_elements, trace.selections);

    let reindex = replay_reindex(config.scr, &trace.node_stream);
    let new_to_old = reindex.result.new_to_old;
    report.cycles.reindexing += reindex.cycles;
    report.dram_bytes.reindexing +=
        reindexing_dram_bytes(trace.node_stream.len(), new_to_old.len());
    report.scr_passes += reindex.scr_passes;

    let old_to_new: HashMap<Vid, Vid> = new_to_old
        .iter()
        .enumerate()
        .map(|(new, &old)| (old, Vid::from_index(new)))
        .collect();
    let sub_edges: Vec<Edge> = trace
        .edges
        .iter()
        .map(|e| Edge::new(old_to_new[&e.src], old_to_new[&e.dst]))
        .collect();
    let sub_csc = convert_into(config, new_to_old.len(), &sub_edges, &mut report);

    let stats = PreprocessStats {
        edges_ordered: coo.num_edges(),
        pointer_entries: coo.num_vertices() + 1,
        selections: trace.selections,
        pool_elements: trace.pool_elements,
        reindex_inputs: trace.node_stream.len(),
        subgraph_edges: sub_csc.num_edges(),
        subgraph_nodes: sub_csc.num_vertices(),
    };
    let subgraph = SampledSubgraph {
        csc: sub_csc,
        batch_new: batch.iter().map(|b| old_to_new[b]).collect(),
        new_to_old,
    };
    EngineRun {
        output: PreprocessOutput { subgraph, stats },
        report,
    }
}

/// [`convert`], charging both stages' cycles, passes and DRAM bytes to
/// `report`.
fn convert_into(
    config: HwConfig,
    num_vertices: usize,
    edges: &[Edge],
    report: &mut HwReport,
) -> Csc {
    let run = convert(config, num_vertices, edges);
    charge_conversion(report, config.upe, num_vertices, edges.len(), run.cost);
    run.csc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "slot count must be positive")]
    fn replay_windows_rejects_a_hand_built_zero_slot_config() {
        replay_windows(ScrConfig { slots: 0, width: 8 }, 2, &[Vid(0), Vid(1)]);
    }

    #[test]
    #[should_panic(expected = "one pool per record")]
    fn replay_select_needs_one_pool_per_record() {
        let record = PoolRecord {
            parents: vec![Vid(0)],
            pool_len: 2,
            positions: vec![1],
        };
        replay_select(UpeConfig::new(1, 4), &[record], &[]);
    }

    #[test]
    #[should_panic(expected = "pool length")]
    fn replay_select_checks_pool_lengths() {
        let record = PoolRecord {
            parents: vec![Vid(0)],
            pool_len: 3,
            positions: vec![1],
        };
        replay_select(UpeConfig::new(1, 4), &[record], &[vec![7, 8]]);
    }

    #[test]
    fn layer_wise_pools_pack_source_over_parent() {
        let coo = Coo::from_pairs(4, [(2, 0), (3, 0), (1, 3)]).expect("valid COO");
        let csc = Csc::from_coo(&coo);
        assert_eq!(
            pool_contents(&csc, SelectionStrategy::LayerWise, &[Vid(0), Vid(3)]),
            vec![2 << 32, 3 << 32, (1 << 32) | 3]
        );
        assert_eq!(
            pool_contents(&csc, SelectionStrategy::NodeWise, &[Vid(0)]),
            vec![2, 3]
        );
    }
}
