//! Cross-crate verification: the hardware simulator's functional output is
//! bit-identical to the software golden pipeline on every dataset class and
//! both selection strategies, and the engine's accounting equals the
//! structural replay of `agnn_hw::oracle`.

use agnn_algo::pipeline;
use agnn_hw::oracle;
use autognn::prelude::*;

fn scaled(dataset: Dataset, max_edges: u64, seed: u64) -> Coo {
    dataset.generate_scaled(dataset.scale_for_max_edges(max_edges), seed)
}

#[test]
fn engine_matches_software_on_every_dataset_class() {
    let params = SampleParams::new(10, 2);
    for dataset in [
        Dataset::Physics,       // citation: small, low degree
        Dataset::Movie,         // interaction: tiny n, huge degree
        Dataset::StackOverflow, // social: large, medium degree
        Dataset::Taobao,        // e-commerce: hub-dominated
    ] {
        let coo = scaled(dataset, 60_000, 1);
        let batch: Vec<Vid> = (0..20)
            .map(|i| Vid(i * (coo.num_vertices() as u32 / 21)))
            .collect();
        let golden = pipeline::preprocess(&coo, &batch, &params, 7);
        let mut engine = AutoGnnEngine::new(HwConfig::vpk180_default());
        let run = engine.preprocess(&coo, &batch, &params, 7);
        assert_eq!(run.output, golden, "{dataset}");
        // The sampled subgraph respects uniqueness: one row per distinct VID.
        let mut uniq = run.output.subgraph.new_to_old.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(
            uniq.len(),
            run.output.subgraph.new_to_old.len(),
            "{dataset}"
        );
    }
}

#[test]
fn structural_fidelity_matches_fast_on_a_real_workload() {
    let coo = scaled(Dataset::Arxiv, 8_000, 3);
    let params = SampleParams::new(5, 2);
    let batch: Vec<Vid> = (0..10).map(Vid).collect();
    let cfg = HwConfig {
        upe: UpeConfig::new(8, 32),
        scr: ScrConfig::new(4, 64),
    };
    // The engine's accounting against the oracle's structural replay.
    let fast = AutoGnnEngine::new(cfg).preprocess(&coo, &batch, &params, 5);
    let structural = oracle::preprocess(cfg, &coo, &batch, &params, 5);
    assert_eq!(fast.output, structural.output);
    assert_eq!(fast.report, structural.report);
}

#[test]
fn layer_wise_strategy_is_also_equivalent() {
    let coo = scaled(Dataset::Collab, 10_000, 9);
    let params = SampleParams::layer_wise(8, 2);
    let batch: Vec<Vid> = (0..6).map(Vid).collect();
    let golden = pipeline::preprocess(&coo, &batch, &params, 11);
    let mut engine = AutoGnnEngine::new(HwConfig::vpk180_default());
    let run = engine.preprocess(&coo, &batch, &params, 11);
    assert_eq!(run.output, golden);
}

#[test]
fn equivalence_holds_across_reconfigurations() {
    // Functional output must not depend on the hardware configuration.
    let coo = scaled(Dataset::Yelp, 12_000, 4);
    let params = SampleParams::new(6, 2);
    let batch: Vec<Vid> = (0..8).map(Vid).collect();
    let golden = pipeline::preprocess(&coo, &batch, &params, 13);
    let mut engine = AutoGnnEngine::new(HwConfig::vpk180_default());
    for (count, width, slots, scr_width) in [(4, 16, 1, 32), (16, 64, 8, 128), (2, 256, 2, 1024)] {
        engine.reconfigure(HwConfig {
            upe: UpeConfig::new(count, width),
            scr: ScrConfig::new(slots, scr_width),
        });
        let run = engine.preprocess(&coo, &batch, &params, 13);
        assert_eq!(
            run.output, golden,
            "config {count}x{width}/{slots}x{scr_width}"
        );
    }
}

#[test]
fn subgraph_feeds_gnn_inference_end_to_end() {
    let coo = scaled(Dataset::Fraud, 15_000, 8);
    let params = SampleParams::new(10, 2);
    let batch: Vec<Vid> = (0..12).map(Vid).collect();
    let mut engine = AutoGnnEngine::new(HwConfig::vpk180_default());
    let run = engine.preprocess(&coo, &batch, &params, 21);
    let features = FeatureTable::random(coo.num_vertices(), 16, 2);
    for model in GnnModel::ALL {
        let spec = GnnSpec::new(model, 2, 16, 16);
        let fwd = forward(&spec, &run.output.subgraph, &features, 3);
        assert_eq!(fwd.embeddings.rows(), batch.len(), "{}", model.name());
        assert!(fwd.embeddings.frobenius_norm().is_finite());
    }
}

#[test]
fn paper_default_request_matches_software_in_linear_time() {
    // The Table III request (2-layer GraphSAGE, k = 10, batch 3000) on a
    // 400k-edge graph: ~197k reindexer inputs over ~40k unique vertices,
    // which a reindexer searching its mappings linearly took minutes to
    // renumber in a debug build.
    let setup = EvalSetup::default();
    let params = setup.sample_params();
    let coo = agnn_graph::generate::uniform(40_000, 400_000, 6);
    let stride = coo.num_vertices() / setup.batch;
    let batch: Vec<Vid> = (0..setup.batch)
        .map(|i| Vid::from_index(i * stride))
        .collect();
    let golden = pipeline::preprocess(&coo, &batch, &params, 19);
    let run = AutoGnnEngine::new(HwConfig::vpk180_default()).preprocess(&coo, &batch, &params, 19);
    assert_eq!(run.output, golden);
    // One lookup per input plus one insert per unique vertex (§IV-C).
    let stats = &run.output.stats;
    assert_eq!(
        run.report.cycles.reindexing,
        (stats.reindex_inputs + stats.subgraph_nodes) as u64
    );
}

/// The summed engine report of a fixed request list: each of the five
/// `preprocess_convert` graphs, scaled to ~20k edges, under three kernel
/// configurations, each with its own request shape (node-wise, layer-wise,
/// empty batch). Each request's engine run must equal the oracle's.
fn pinned_request_report() -> agnn_hw::HwReport {
    let requests = [
        ((4, 16), (2, 32), SampleParams::new(10, 2), 16),
        ((64, 64), (8, 256), SampleParams::layer_wise(8, 2), 4),
        ((16, 512), (64, 64), SampleParams::new(5, 1), 0),
    ];
    let mut total = agnn_hw::HwReport::default();
    for (seed, abbrev) in (1u64..).zip(["PH", "YL", "RD", "AM", "TB"]) {
        let coo = scaled(
            Dataset::from_abbrev(abbrev).expect("known dataset"),
            20_000,
            seed,
        );
        let stride = coo.num_vertices() / 17;
        for ((count, width), (slots, scr_width), params, batch_len) in &requests {
            let cfg = HwConfig {
                upe: UpeConfig::new(*count, *width),
                scr: ScrConfig::new(*slots, *scr_width),
            };
            let batch: Vec<Vid> = (0..*batch_len)
                .map(|i| Vid::from_index(i * stride))
                .collect();
            let run = AutoGnnEngine::new(cfg).preprocess(&coo, &batch, params, seed * 31);
            let replay = oracle::preprocess(cfg, &coo, &batch, params, seed * 31);
            assert_eq!(replay, run, "{abbrev} under {cfg:?}");
            total = total.add(&run.report);
        }
    }
    total
}

#[test]
fn engine_report_is_pinned() {
    // Recorded from the engine that ordered edges into a sorted edge array
    // and rebuilt the pointer array with the reshaper's window replay; any
    // change to the conversion path must reproduce it bit for bit.
    let pinned = agnn_hw::HwReport {
        cycles: agnn_hw::StageCycles {
            ordering: 50_206,
            reshaping: 6_272,
            selecting: 3_379,
            reindexing: 6_818,
        },
        dram_bytes: agnn_hw::StageCycles {
            ordering: 4_870_592,
            reshaping: 1_249_768,
            selecting: 360_476,
            reindexing: 33_736,
        },
        upe_passes: 668_721,
        scr_passes: 59_068,
    };
    assert_eq!(pinned_request_report(), pinned);
}
