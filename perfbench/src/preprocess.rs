//! The paper-pipeline workloads: one closed-loop client calling
//! `AutoGnn::serve` back to back over a rotation of scaled Table II
//! graphs.
//!
//! The untraced run times each `AutoGnn::serve` call and checks its
//! output against the software reference `agnn_algo::pipeline::preprocess`.
//! The traced run drives the same requests stage by stage through the
//! public `core`, `cost`, `hw` and `algo` functions — mirroring
//! `AutoGnnEngine::preprocess` — with a span around every call, and
//! checks that this replay reproduces both `AutoGnnEngine::preprocess`
//! (output and `HwReport`) and `AutoGnn::serve` (output and modelled
//! seconds) exactly.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use agnn_algo::pipeline::{
    self, PreprocessOutput, PreprocessStats, SampleParams, SampledSubgraph, SelectionStrategy,
};
use agnn_core::runtime::AutoGnn;
use agnn_devices::fpga::FpgaModel;
use agnn_graph::datasets::Dataset;
use agnn_graph::{Coo, Csc, Edge, Vid};
use agnn_hw::engine::{ordering_dram_bytes, reshaping_dram_bytes, AutoGnnEngine, EngineRun};
use agnn_hw::kernel::{Fidelity, Reindexer, Reshaper, UpeKernel};
use agnn_hw::{HwConfig, HwReport, StageCycles};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::ledger::Ledger;
use crate::report::{peak_rss_mb, Checks, Metrics};
use crate::stats::{median, per, percentile, samples_beyond};

/// One preprocessing workload: the graphs a client rotates over and the
/// requests it sends.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Workload name.
    pub name: &'static str,
    /// Graphs in rotation order; request `i` targets `datasets[i % len]`.
    pub datasets: &'static [Dataset],
    /// Each graph is scaled down to at most this many edges.
    pub max_edges: u64,
    /// Target nodes per request (capped at the graph's node count).
    pub batch: usize,
    /// Sampling parameters of every request.
    pub params: SampleParams,
}

/// Full-graph conversion dominates: ~300k-edge graphs of four
/// categories, small batches, Table III sampling (k=10, 2 hops).
pub const CONVERT: Shape = Shape {
    name: "preprocess_convert",
    datasets: &[
        Dataset::Physics,
        Dataset::Yelp,
        Dataset::Reddit,
        Dataset::Amazon,
        Dataset::Taobao,
    ],
    max_edges: 300_000,
    batch: 16,
    params: SampleParams {
        k: 10,
        layers: 2,
        strategy: SelectionStrategy::NodeWise,
    },
};

/// Distinct requests an untraced run serves, in every pass; the
/// smallest count that puts ten requests beyond the nearest-rank p90.
const DISTINCT_REQUESTS: u64 = 100;

/// Set-up (graph generation plus service construction) is timed again
/// after every `SETUP_EVERY` servings, so its median samples the machine
/// across the whole run as the requests do.
const SETUP_EVERY: u64 = 10;

/// One request: which graph, which target nodes, which sampling seed.
#[derive(Debug, Clone)]
struct Request {
    graph: usize,
    batch: Vec<Vid>,
    seed: u64,
}

/// One graph of `shape` under the workload seed.
fn graph(shape: &Shape, dataset: &Dataset, seed: u64) -> Coo {
    dataset.generate_scaled(dataset.scale_for_max_edges(shape.max_edges), seed)
}

/// The graphs of `shape` under the workload seed.
fn graphs(shape: &Shape, seed: u64) -> Vec<Coo> {
    shape
        .datasets
        .iter()
        .map(|d| graph(shape, d, seed))
        .collect()
}

/// Request `index` of the seeded stream: a rotation over the graphs with
/// distinct random target nodes and a fresh sampling seed.
fn request(shape: &Shape, graphs: &[Coo], seed: u64, index: u64) -> Request {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ index);
    let graph = (index % graphs.len() as u64) as usize;
    let n = graphs[graph].num_vertices();
    let take = shape.batch.min(n);
    let mut nodes: Vec<u32> = (0..n as u32).collect();
    for i in 0..take {
        let j = rng.gen_range(i..n);
        nodes.swap(i, j);
    }
    Request {
        graph,
        batch: nodes[..take].iter().map(|&v| Vid(v)).collect(),
        seed: rng.gen(),
    }
}

/// The graphs and a fresh service, with the seconds it took to make them.
fn set_up(shape: &Shape, seed: u64) -> (Vec<Coo>, AutoGnn, f64) {
    let start = Instant::now();
    let graphs = graphs(shape, seed);
    let service = AutoGnn::new(shape.params);
    (graphs, service, start.elapsed().as_secs_f64())
}

/// Set-up timed again without keeping what it makes: each graph is
/// generated, timed and dropped in turn, so re-timing holds at most one
/// graph beside the run's own and barely moves its peak memory.
fn retime_set_up(shape: &Shape, seed: u64) -> f64 {
    let mut secs = 0.0;
    for dataset in shape.datasets {
        let start = Instant::now();
        let coo = black_box(graph(shape, dataset, seed));
        secs += start.elapsed().as_secs_f64();
        drop(coo);
    }
    let start = Instant::now();
    let service = black_box(AutoGnn::new(shape.params));
    secs += start.elapsed().as_secs_f64();
    drop(service);
    secs
}

/// Untraced run: end-to-end metrics of `AutoGnn::serve`, each serving
/// checked against the software reference.
///
/// The run serves the same [`DISTINCT_REQUESTS`] requests in passes until
/// `seconds` are spent. A request's time is the mean of its servings,
/// which spread over the whole run, so the percentiles across requests
/// describe the request mix rather than the moment a request happened to
/// be served: on a shared host the machine's speed drifts by tens of
/// percent within seconds.
pub fn run_untraced(shape: &Shape, seed: u64, seconds: f64, checks: &mut Checks) -> Metrics {
    let (graphs, mut service, first_setup) = set_up(shape, seed);
    let mut setup = vec![first_setup];
    let requests: Vec<Request> = (0..DISTINCT_REQUESTS)
        .map(|index| request(shape, &graphs, seed, index))
        .collect();
    for req in &requests[..graphs.len()] {
        service.evict_graph();
        black_box(service.serve(&graphs[req.graph], &req.batch, req.seed));
    }

    let mut request_secs = vec![0.0; requests.len()];
    let mut reference_secs = Vec::new();
    let mut served = 0u64;
    let mut passes = 0u32;
    let loop_start = Instant::now();
    // Stop at the pass boundary nearest to `seconds`.
    while passes == 0 || {
        let elapsed = loop_start.elapsed().as_secs_f64();
        elapsed + elapsed / f64::from(passes) / 2.0 < seconds
    } {
        for (index, req) in requests.iter().enumerate() {
            let coo = &graphs[req.graph];
            let start = Instant::now();
            service.evict_graph();
            let record = service.serve(coo, &req.batch, req.seed);
            request_secs[index] += start.elapsed().as_secs_f64();

            let start = Instant::now();
            let reference = pipeline::preprocess(coo, &req.batch, &shape.params, req.seed);
            reference_secs.push(start.elapsed().as_secs_f64());
            checks.check(
                record.output == reference,
                &format!(
                    "{} request {index} pass {passes}: AutoGnn::serve output equals the reference",
                    shape.name
                ),
            );
            served += 1;
            if served.is_multiple_of(SETUP_EVERY) {
                setup.push(retime_set_up(shape, seed));
            }
        }
        passes += 1;
    }

    drop(service);
    let fingerprint = fingerprint(shape, &graphs, seed, checks);
    fingerprint.print(shape.name);
    let total: f64 = request_secs.iter().sum();
    let mean_secs: Vec<f64> = request_secs.iter().map(|s| s / f64::from(passes)).collect();
    let p50 = median(&mean_secs);
    println!(
        "{}: {} distinct requests ({} beyond p90) served {passes} times each, {} set-ups; \
         reference_ms_p50 {:.3}, AutoGnn::serve takes {:.2}x the reference",
        shape.name,
        requests.len(),
        samples_beyond(requests.len(), 90.0),
        setup.len(),
        median(&reference_secs) * 1e3,
        p50 / median(&reference_secs)
    );
    Metrics::from([
        ("request_ms_p50", p50 * 1e3),
        ("request_ms_p90", percentile(&mean_secs, 90.0) * 1e3),
        ("requests_per_s", served as f64 / total),
        ("setup_s", median(&setup)),
        ("peak_rss_mb", peak_rss_mb()),
    ])
}

/// The modelled outputs of the first [`Fingerprint::REQUESTS`] requests
/// on a fresh service, plus their exact work counts.
#[derive(Debug, Default, Clone, PartialEq)]
struct Fingerprint {
    report: HwReport,
    modelled_secs: f64,
    stats: PreprocessStats,
    reconfigs: u64,
}

impl Fingerprint {
    /// Requests in the fixed prefix (two rotations).
    const REQUESTS: u64 = 10;

    fn print(&self, workload: &str) {
        let pairs = |s: &StageCycles| {
            s.as_pairs()
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(",")
        };
        println!(
            "fingerprint {workload} (modelled by the simulator, not validated by this benchmark): \
             requests={} cycles{{{}}} dram_bytes{{{}}} upe_passes={} scr_passes={} reconfigs={} \
             modelled_s_per_request={:.9e}",
            Self::REQUESTS,
            pairs(&self.report.cycles),
            pairs(&self.report.dram_bytes),
            self.report.upe_passes,
            self.report.scr_passes,
            self.reconfigs,
            self.modelled_secs / Self::REQUESTS as f64,
        );
    }

    fn counts(&self, metrics: &mut Metrics) {
        let s = &self.stats;
        metrics.insert("algo.selections", s.selections as f64);
        metrics.insert("algo.pool_elements", s.pool_elements as f64);
        metrics.insert("hw.reindex_inputs", s.reindex_inputs as f64);
        metrics.insert("hw.subgraph_edges", s.subgraph_edges as f64);
        metrics.insert("hw.upe_passes", self.report.upe_passes as f64);
        metrics.insert("hw.scr_passes", self.report.scr_passes as f64);
        metrics.insert("core.reconfigs", self.reconfigs as f64);
    }
}

/// Serves the fixed prefix on a fresh service and sums its modelled
/// cycles, DRAM bytes and seconds, checking each output against the
/// engine run under the configuration that served it.
fn fingerprint(shape: &Shape, graphs: &[Coo], seed: u64, checks: &mut Checks) -> Fingerprint {
    let mut service = AutoGnn::new(shape.params);
    let mut fp = Fingerprint::default();
    for index in 0..Fingerprint::REQUESTS {
        let req = request(shape, graphs, seed, index);
        let coo = &graphs[req.graph];
        service.evict_graph();
        let record = service.serve(coo, &req.batch, req.seed);
        let run = AutoGnnEngine::with_fidelity(record.config, Fidelity::Fast).preprocess(
            coo,
            &req.batch,
            &shape.params,
            req.seed,
        );
        checks.check(
            run.output == record.output,
            &format!("{} fingerprint request {index}: engine output", shape.name),
        );
        fp.report = fp.report.add(&run.report);
        fp.modelled_secs += record.total_secs();
        fp.reconfigs += u64::from(record.reconfig.is_some());
        let s = &record.output.stats;
        fp.stats.selections += s.selections;
        fp.stats.pool_elements += s.pool_elements;
        fp.stats.reindex_inputs += s.reindex_inputs;
        fp.stats.subgraph_edges += s.subgraph_edges;
    }
    fp
}

/// The `hw` kernels of one configuration, plus the engine the replay is
/// checked against.
struct Kernels {
    config: HwConfig,
    upe: UpeKernel,
    reshaper: Reshaper,
    reindexer: Reindexer,
    engine: AutoGnnEngine,
}

impl Kernels {
    fn new(config: HwConfig) -> Self {
        Kernels {
            config,
            upe: UpeKernel::with_fidelity(config.upe, Fidelity::Fast),
            reshaper: Reshaper::with_fidelity(config.scr, Fidelity::Fast),
            reindexer: Reindexer::with_fidelity(config.scr, Fidelity::Fast),
            engine: AutoGnnEngine::with_fidelity(config, Fidelity::Fast),
        }
    }
}

/// Spans under a traced request, in reconciliation order.
const REQUEST_LAYERS: &[&str] = &[
    "core.profile",
    "cost.preview",
    "core.reconfig",
    "core.ingest",
    "hw.sort_full",
    "hw.reshape",
    "algo.sample",
    "hw.select",
    "hw.reindex",
    "hw.sort_sub",
    "core.price",
    "core.compute",
];

/// Spans under a traced reference run, in reconciliation order.
const REFERENCE_LAYERS: &[&str] = &["algo.convert", "algo.sample", "algo.build_subgraph"];

/// Traced run: per-layer self times of the stage-by-stage replay, the
/// reference's stages, and the tracing overhead against an untraced
/// twin service fed the same requests.
pub fn run_traced(
    shape: &Shape,
    seed: u64,
    seconds: f64,
    checks: &mut Checks,
    ledger: &mut Ledger,
) -> Metrics {
    let setup = ledger.open("setup", 0);
    let graphs = ledger.time("graph.generate", 0, || graphs(shape, seed));
    let mut plain = ledger.time("core.new", 0, || AutoGnn::new(shape.params));
    ledger.close(setup);
    let mut traced = AutoGnn::new(shape.params);
    let warm = graphs.len() as u64;
    for index in 0..warm {
        let req = request(shape, &graphs, seed, index);
        for service in [&mut plain, &mut traced] {
            service.evict_graph();
            black_box(service.serve(&graphs[req.graph], &req.batch, req.seed));
        }
    }

    let fpga = FpgaModel::default();
    let mut kernels = Kernels::new(traced.config());
    let mut untraced_secs = Vec::new();
    let loop_start = Instant::now();
    let mut index = warm;
    while untraced_secs.is_empty() || loop_start.elapsed().as_secs_f64() < seconds {
        let req = request(shape, &graphs, seed, index);
        let coo = &graphs[req.graph];

        // The untraced twin: same state, same request.
        let start = Instant::now();
        plain.evict_graph();
        let record = plain.serve(coo, &req.batch, req.seed);
        untraced_secs.push(start.elapsed().as_secs_f64());

        // Build the kernels of the configuration the request will run
        // under before the timed request starts.
        let preview = traced.preview(&traced.workload_of(coo, &req.batch));
        let target = if preview.would_reconfigure {
            preview.best
        } else {
            preview.current
        };
        if kernels.config != target {
            kernels = Kernels::new(target);
        }

        let root = ledger.open("request", index);
        traced.evict_graph();
        let workload = ledger.time("core.profile", index, || {
            traced.workload_of(coo, &req.batch)
        });
        let preview = ledger.time("cost.preview", index, || traced.preview(&workload));
        let reconfig = preview.would_reconfigure.then(|| {
            ledger.time("core.reconfig", index, || {
                traced.force_reconfigure(preview.best)
            })
        });
        let ingest = ledger.time("core.ingest", index, || traced.ingest(coo));
        let run = replay(
            ledger,
            index,
            &kernels,
            coo,
            &req.batch,
            &shape.params,
            req.seed,
        );
        let stage_secs = ledger.time("core.price", index, || fpga.stage_secs(&run.report));
        let compute = ledger.time("core.compute", index, || {
            traced.compute(&run.output.subgraph)
        });
        ledger.close(root);

        let engine = kernels
            .engine
            .preprocess(coo, &req.batch, &shape.params, req.seed);
        checks.check(
            run == engine,
            &format!("{} request {index}: hw replay reproduces AutoGnnEngine::preprocess (output and HwReport)", shape.name),
        );
        checks.check(
            traced.config() == kernels.config
                && record.config == kernels.config
                && record.reconfig == reconfig
                && record.output == run.output
                && record.stage_secs == stage_secs
                && record.upload_secs == ingest.secs
                && record.download_secs == compute.secs,
            &format!(
                "{} request {index}: traced request reproduces AutoGnn::serve",
                shape.name
            ),
        );

        let root = ledger.open("reference", index);
        let csc = ledger.time("algo.convert", index, || pipeline::convert(coo));
        let mut rng = StdRng::seed_from_u64(req.seed);
        let trace = ledger.time("algo.sample", index, || {
            pipeline::sample(&csc, &req.batch, &shape.params, &mut rng)
        });
        let subgraph = ledger.time("algo.build_subgraph", index, || {
            pipeline::build_subgraph(&req.batch, &trace)
        });
        ledger.close(root);
        checks.check(
            subgraph == run.output.subgraph,
            &format!(
                "{} request {index}: reference equals the engine",
                shape.name
            ),
        );
        index += 1;
    }

    let n = untraced_secs.len();
    let request = ledger.reconcile("request", REQUEST_LAYERS);
    let reference = ledger.reconcile("reference", REFERENCE_LAYERS);
    for line in request.table(
        &format!("{} request ({n} traced requests)", shape.name),
        1e3,
        "ms",
    ) {
        println!("{line}");
    }
    for line in reference.table(&format!("{} reference", shape.name), 1e3, "ms") {
        println!("{line}");
    }

    let part = |r: &crate::stats::Reconciliation, name: &str| {
        r.parts
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let traced_ms = per(request.total, n) * 1e3;
    let untraced_ms = per(untraced_secs.iter().sum(), n) * 1e3;
    let mut metrics = Metrics::from([
        ("request.traced_ms", traced_ms),
        ("request.untraced_ms", untraced_ms),
        ("trace.overhead_ms", traced_ms - untraced_ms),
        ("core.residual_ms", per(request.residual, n) * 1e3),
        ("core.residual_pct", request.pct(request.residual)),
        (
            "algo.reference_ms_p50",
            median(&ledger.root_secs("reference")) * 1e3,
        ),
        (
            "algo.convert_ms",
            per(part(&reference, "algo.convert"), n) * 1e3,
        ),
        (
            "algo.ref_sample_ms",
            per(part(&reference, "algo.sample"), n) * 1e3,
        ),
        (
            "algo.build_subgraph_ms",
            per(part(&reference, "algo.build_subgraph"), n) * 1e3,
        ),
        (
            "algo.reference_residual_ms",
            per(reference.residual, n) * 1e3,
        ),
    ]);
    for (span, metric, scale) in [
        ("core.profile", "core.profile_us", 1e6),
        ("cost.preview", "cost.preview_us", 1e6),
        ("core.reconfig", "core.reconfig_us", 1e6),
        ("core.ingest", "core.ingest_us", 1e6),
        ("hw.sort_full", "hw.sort_full_ms", 1e3),
        ("hw.reshape", "hw.reshape_ms", 1e3),
        ("algo.sample", "algo.sample_ms", 1e3),
        ("hw.select", "hw.select_ms", 1e3),
        ("hw.reindex", "hw.reindex_ms", 1e3),
        ("hw.sort_sub", "hw.sort_sub_ms", 1e3),
        ("core.price", "core.price_us", 1e6),
        ("core.compute", "core.compute_us", 1e6),
    ] {
        metrics.insert(metric, per(part(&request, span), n) * scale);
    }
    for (span, metric) in [
        ("hw.sort_full", "hw.sort_full_pct"),
        ("hw.reshape", "hw.reshape_pct"),
        ("algo.sample", "algo.sample_pct"),
        ("hw.select", "hw.select_pct"),
        ("hw.reindex", "hw.reindex_pct"),
        ("hw.sort_sub", "hw.sort_sub_pct"),
        ("cost.preview", "cost.preview_pct"),
        ("core.ingest", "core.ingest_pct"),
        ("core.compute", "core.compute_pct"),
    ] {
        metrics.insert(metric, request.pct(part(&request, span)));
    }
    let setup = ledger.layer_secs("setup");
    metrics.insert("graph.generate_ms", setup["graph.generate"] * 1e3);
    metrics.insert("core.new_us", setup["core.new"] * 1e6);

    let fingerprint = fingerprint(shape, &graphs, seed, checks);
    fingerprint.print(shape.name);
    fingerprint.counts(&mut metrics);
    metrics
}

/// `AutoGnnEngine::preprocess` replayed through the public kernels with a
/// span around every kernel call; the glue between the calls (vector
/// copies, CSC validation, the renumbering map) is the request's own
/// self time.
fn replay(
    ledger: &mut Ledger,
    index: u64,
    kernels: &Kernels,
    coo: &Coo,
    batch: &[Vid],
    params: &SampleParams,
    seed: u64,
) -> EngineRun {
    let config = kernels.config;
    let mut cycles = StageCycles::default();
    let mut dram = StageCycles::default();
    let mut upe_passes = 0u64;
    let mut scr_passes = 0u64;

    // 1. Edge ordering on the full graph.
    let sort_run = ledger.time("hw.sort_full", index, || {
        kernels.upe.sort_edges(coo.edges())
    });
    cycles.ordering += sort_run.cycles;
    dram.ordering += ordering_dram_bytes(coo.num_edges(), config.upe.width, config.upe.count);
    upe_passes += sort_run.upe_passes;

    // 2. Data reshaping.
    let sorted_dsts: Vec<Vid> = sort_run.sorted.iter().map(|e| e.dst).collect();
    let indices: Vec<Vid> = sort_run.sorted.iter().map(|e| e.src).collect();
    let reshape_run = ledger.time("hw.reshape", index, || {
        kernels
            .reshaper
            .build_pointers(coo.num_vertices(), &sorted_dsts)
    });
    cycles.reshaping += reshape_run.cycles;
    dram.reshaping += reshaping_dram_bytes(coo.num_edges(), coo.num_vertices());
    scr_passes += reshape_run.scr_passes;
    let csc = Csc::new(reshape_run.pointers, indices).expect("reshaper output is a valid CSC");

    // 3. Uni-random selection: the shared sampling trace, replayed by the
    // UPE kernel layer by layer.
    let mut rng = StdRng::seed_from_u64(seed);
    let trace = ledger.time("algo.sample", index, || {
        pipeline::sample(&csc, batch, params, &mut rng)
    });
    for layer in &trace.layers {
        let pool_values: Vec<Vec<u64>> = layer
            .iter()
            .map(|record| pool_contents(&csc, params.strategy, &record.parents))
            .collect();
        let select_run = ledger.time("hw.select", index, || {
            kernels.upe.select_layer(layer, &pool_values)
        });
        cycles.selecting += select_run.cycles;
        upe_passes += select_run.upe_passes;
    }
    dram.selecting += 4 * trace.pool_elements as u64 + 4 * trace.selections as u64;

    // 4. Subgraph reindexing.
    let reindex_run = ledger.time("hw.reindex", index, || {
        kernels.reindexer.reindex(&trace.node_stream)
    });
    cycles.reindexing += reindex_run.cycles;
    dram.reindexing +=
        4 * trace.node_stream.len() as u64 + 8 * reindex_run.result.num_unique() as u64;
    scr_passes += reindex_run.scr_passes;

    // 5. Conversion of the sampled subgraph.
    let old_to_new: HashMap<Vid, Vid> = reindex_run
        .result
        .new_to_old
        .iter()
        .enumerate()
        .map(|(new, &old)| (old, Vid::from_index(new)))
        .collect();
    let sub_edges: Vec<Edge> = trace
        .edges
        .iter()
        .map(|e| Edge::new(old_to_new[&e.src], old_to_new[&e.dst]))
        .collect();
    let sub_nodes = reindex_run.result.num_unique();
    let sub_sort = ledger.time("hw.sort_sub", index, || kernels.upe.sort_edges(&sub_edges));
    cycles.ordering += sub_sort.cycles;
    dram.ordering += ordering_dram_bytes(sub_edges.len(), config.upe.width, config.upe.count);
    upe_passes += sub_sort.upe_passes;

    let sub_dsts: Vec<Vid> = sub_sort.sorted.iter().map(|e| e.dst).collect();
    let sub_srcs: Vec<Vid> = sub_sort.sorted.iter().map(|e| e.src).collect();
    let sub_reshape = ledger.time("hw.reshape", index, || {
        kernels.reshaper.build_pointers(sub_nodes, &sub_dsts)
    });
    cycles.reshaping += sub_reshape.cycles;
    dram.reshaping += reshaping_dram_bytes(sub_edges.len(), sub_nodes);
    scr_passes += sub_reshape.scr_passes;
    let sub_csc =
        Csc::new(sub_reshape.pointers, sub_srcs).expect("subgraph reshaper output is a valid CSC");

    let subgraph = SampledSubgraph {
        csc: sub_csc,
        new_to_old: reindex_run.result.new_to_old,
        batch_new: batch.iter().map(|b| old_to_new[b]).collect(),
    };
    let stats = PreprocessStats {
        edges_ordered: coo.num_edges(),
        pointer_entries: coo.num_vertices() + 1,
        selections: trace.selections,
        pool_elements: trace.pool_elements,
        reindex_inputs: trace.node_stream.len(),
        subgraph_edges: subgraph.csc.num_edges(),
        subgraph_nodes: subgraph.csc.num_vertices(),
    };
    EngineRun {
        output: PreprocessOutput { subgraph, stats },
        report: HwReport {
            cycles,
            dram_bytes: dram,
            upe_passes,
            scr_passes,
        },
    }
}

/// A selection pool's contents packed into the UPE's 64-bit lanes, as the
/// engine builds them.
fn pool_contents(csc: &Csc, strategy: SelectionStrategy, parents: &[Vid]) -> Vec<u64> {
    match strategy {
        SelectionStrategy::NodeWise => csc
            .neighbors(parents[0])
            .iter()
            .map(|s| u64::from(s.0))
            .collect(),
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

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(shape: Shape) -> Shape {
        Shape {
            max_edges: 3_000,
            batch: shape.batch.min(64),
            ..shape
        }
    }

    /// A tiny sampling-heavy shape: large batches over three hops.
    fn three_hop() -> Shape {
        Shape {
            name: "three_hop",
            batch: 64,
            params: SampleParams {
                layers: 3,
                ..CONVERT.params
            },
            ..tiny(CONVERT)
        }
    }

    #[test]
    fn requests_are_a_pure_function_of_the_seed() {
        let shape = three_hop();
        let g = graphs(&shape, 3);
        let a = request(&shape, &g, 3, 7);
        let b = request(&shape, &g, 3, 7);
        assert_eq!((a.graph, &a.batch, a.seed), (b.graph, &b.batch, b.seed));
        assert_ne!(request(&shape, &g, 4, 7).batch, a.batch);
        let mut distinct = a.batch.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), a.batch.len(), "target nodes are distinct");
        assert!(a
            .batch
            .iter()
            .all(|v| v.index() < g[a.graph].num_vertices()));
    }

    #[test]
    fn tiny_untraced_passes_every_check() {
        for shape in [tiny(CONVERT), three_hop()] {
            let mut checks = Checks::default();
            let m = run_untraced(&shape, 1, 0.05, &mut checks);
            assert_eq!(checks.failed, 0);
            assert!(checks.attempted > Fingerprint::REQUESTS);
            for (name, _) in crate::report::END_TO_END {
                assert!(m[name] > 0.0, "{name} is {}", m[name]);
            }
            assert!(m["request_ms_p90"] >= m["request_ms_p50"]);
        }
    }

    #[test]
    fn tiny_traced_replay_matches_the_engine_and_reconciles() {
        for shape in [tiny(CONVERT), three_hop()] {
            let mut checks = Checks::default();
            let mut ledger = Ledger::new();
            let m = run_traced(&shape, 2, 0.05, &mut checks, &mut ledger);
            assert_eq!(checks.failed, 0);
            let parts: f64 = REQUEST_LAYERS
                .iter()
                .map(|l| ledger.layer_secs("request").get(l).copied().unwrap_or(0.0))
                .sum();
            let total: f64 = ledger.root_secs("request").iter().sum();
            let n = ledger.root_secs("request").len();
            assert!(
                (parts * 1e3 / n as f64 + m["core.residual_ms"] - m["request.traced_ms"]).abs()
                    < 1e-6
            );
            assert!(total > 0.0 && m["hw.sort_full_ms"] > 0.0 && m["algo.reference_ms_p50"] > 0.0);
            assert!(m["algo.selections"] > 0.0 && m["hw.upe_passes"] > 0.0);
        }
    }

    #[test]
    fn fingerprint_repeats_for_a_seed() {
        let shape = tiny(CONVERT);
        let g = graphs(&shape, 5);
        let mut checks = Checks::default();
        let a = fingerprint(&shape, &g, 5, &mut checks);
        let b = fingerprint(&shape, &g, 5, &mut checks);
        assert_eq!(a, b);
        assert_eq!(checks.failed, 0);
        assert!(a.report.total_cycles() > 0 && a.modelled_secs > 0.0);
    }
}
