//! Cross-crate integration tests: the full pipeline from synthetic cloud to
//! accelerator reports.

use fractalcloud::accel::{Accelerator, DesignModel, DesignParams, GpuModel, Segments, Workload};
use fractalcloud::core::{block_fps, BppoConfig, Fractal, Pipeline, PipelineConfig, Workspace};
use fractalcloud::pnn::{InferenceConfig, ModelConfig, NetworkExecutor, OpTrace};
use fractalcloud::pointcloud::generate::{scene_cloud, SceneConfig};

#[test]
fn full_stack_pipeline_produces_consistent_reports() {
    let model = ModelConfig::pointnext_segmentation();
    let w = Workload::prepare(&model, 8192, 3);

    let gpu = GpuModel::titan_rtx().execute(&w);
    let fc = DesignModel::new(DesignParams::fractalcloud()).execute(&w);
    let pa = DesignModel::new(DesignParams::pointacc()).execute(&w);
    let cr = DesignModel::new(DesignParams::crescent()).execute(&w);

    // Everything runs and produces positive latency/energy.
    for r in [&gpu, &fc, &pa, &cr] {
        assert!(r.latency_ms() > 0.0, "{}", r.accelerator);
        assert!(r.energy_mj() > 0.0, "{}", r.accelerator);
        assert!(r.avg_power_w() > 0.0, "{}", r.accelerator);
    }

    // The paper's ordering at this scale: FC fastest, Crescent between
    // FC and PointAcc.
    assert!(fc.latency_ms() < cr.latency_ms());
    assert!(cr.latency_ms() < pa.latency_ms());

    // The accelerators run at milliwatt-to-watt power; the GPU at tens of
    // watts or more.
    assert!(fc.avg_power_w() < 3.0, "FC power {}", fc.avg_power_w());
    assert!(gpu.avg_power_w() > 10.0, "GPU power {}", gpu.avg_power_w());
}

#[test]
fn trace_and_segments_agree_on_structure() {
    for model in ModelConfig::table1() {
        let trace = OpTrace::build(&model, 4096);
        let segs = Segments::parse(&trace);
        assert_eq!(segs.abstraction.len(), model.stages.len(), "{}", model.notation);
        assert_eq!(segs.propagation.len(), model.propagation.len(), "{}", model.notation);
        // The segmented MACs must equal the trace MACs (nothing lost).
        let seg_macs: u64 = segs
            .stem
            .iter()
            .chain(segs.head.iter())
            .chain(segs.abstraction.iter().flat_map(|sa| sa.blocks.iter()))
            .chain(segs.propagation.iter().flat_map(|fp| fp.mlp.iter()))
            .map(|s| (s.rows * s.cin * s.cout) as u64)
            .sum::<u64>()
            + segs
                .abstraction
                .iter()
                .map(|sa| {
                    let mut macs = 0u64;
                    let mut cin = sa.cin as u64;
                    for &cout in &sa.mlp {
                        macs += (sa.n_out * sa.nsample) as u64 * cin * cout as u64;
                        cin = cout as u64;
                    }
                    macs
                })
                .sum::<u64>();
        assert_eq!(seg_macs, trace.total_macs(), "{}", model.notation);
    }
}

#[test]
fn functional_and_architectural_paths_share_the_partition_structure() {
    // The block sizes the accelerator model costs must be the block sizes
    // the functional BPPO actually produces.
    let cloud = scene_cloud(&SceneConfig::default(), 4096, 9);
    let model = ModelConfig::pointnext_segmentation();
    let w = Workload::prepare_with_threshold(&model, &cloud, 256);
    let fr = Fractal::with_threshold(256).build(&cloud).unwrap();
    let sizes: Vec<usize> = fr.partition.blocks.iter().map(|b| b.len()).collect();
    assert_eq!(w.fractal_blocks, sizes);

    // And the functional sampler works on that exact partition.
    let fps = block_fps(&cloud, &fr.partition, 0.25, &BppoConfig::default()).unwrap();
    assert_eq!(fps.indices.len(), 1024);
}

#[test]
fn network_executor_runs_every_table1_model_both_modes() {
    // Global search at every stage (`run`), and the block-parallel first
    // stage `INFER` serves (`run_with_stage1`).
    let n = 512;
    let cloud = scene_cloud(&SceneConfig::default(), n, 5);
    let mut ws = Workspace::default();
    for model in ModelConfig::table1() {
        let name = model.notation.clone();
        let rows = if model.task.has_propagation() { n } else { 1 };
        let classes = model.classes;
        let sa = &model.stages[0];
        let pipe = Pipeline::new(PipelineConfig::new(128, sa.sample_ratio, sa.radius, sa.nsample))
            .unwrap();
        let exec = NetworkExecutor::new(InferenceConfig::new(model, 77));
        let global = exec.run(&cloud, &mut ws).unwrap();
        let stage1 = pipe.run(&cloud, false).unwrap();
        let block = exec.run_with_stage1(&cloud, &stage1, &mut ws).unwrap();
        for out in [&global, &block] {
            assert_eq!(out.logits.len(), rows * classes, "{name}");
            assert!(out.logits.iter().all(|v| v.is_finite()), "{name}");
        }
        let mut seen = block.row_index.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..rows).collect::<Vec<_>>(), "{name}");
    }
}

#[test]
fn speedup_grows_with_scale_end_to_end() {
    let model = ModelConfig::pointnext_segmentation();
    let mut last = 0.0;
    for n in [2048usize, 8192, 33_000] {
        let w = Workload::prepare(&model, n, 1);
        let fc = DesignModel::new(DesignParams::fractalcloud()).execute(&w);
        let pa = DesignModel::new(DesignParams::pointacc()).execute(&w);
        let gap = fc.speedup_over(&pa);
        assert!(gap > last * 0.9, "gap should not collapse: {last} → {gap} at {n}");
        last = gap;
    }
    assert!(last > 4.0, "FC vs PointAcc at 33K must exceed 4×, got {last}");
}
