//! End-to-end semantic segmentation of an indoor scene: runs PointNeXt (s)
//! functionally (real arithmetic) with global search and with the
//! block-parallel first stage the serving engine runs, compares
//! predictions, then costs the same workload on the FractalCloud
//! accelerator model versus the GPU.
//!
//! ```text
//! cargo run --release --example indoor_segmentation
//! ```

use fractalcloud::accel::{Accelerator, DesignModel, DesignParams, GpuModel, Workload};
use fractalcloud::core::{Pipeline, PipelineConfig, Workspace};
use fractalcloud::pnn::{InferenceConfig, ModelConfig, NetworkExecutor};
use fractalcloud::pointcloud::generate::{scene_cloud, SceneConfig};
use fractalcloud::pointcloud::Error;

fn main() -> Result<(), Error> {
    let model = ModelConfig::pointnext_segmentation();
    println!("network: {} ({} abstraction stages)", model.notation, model.stages.len());

    // --- Functional inference on a small scene (real matmuls) ---
    let cloud = scene_cloud(&SceneConfig::default(), 2048, 7);
    let sa = &model.stages[0];
    let stage1 = Pipeline::new(PipelineConfig::new(256, sa.sample_ratio, sa.radius, sa.nsample))?
        .run(&cloud, false)?;
    let exec = NetworkExecutor::new(InferenceConfig::new(model.clone(), 1234));
    let mut ws = Workspace::default();
    let global = exec.run(&cloud, &mut ws)?;
    let block = exec.run_with_stage1(&cloud, &stage1, &mut ws)?;

    let mut global_pred = vec![0usize; cloud.len()];
    for (row, &oi) in global.row_index.iter().enumerate() {
        global_pred[oi] = global.predicted_class(row);
    }
    let mut agree = 0usize;
    for (row, &oi) in block.row_index.iter().enumerate() {
        if block.predicted_class(row) == global_pred[oi] {
            agree += 1;
        }
    }
    println!(
        "functional check @2K points: block-parallel predictions agree with \
         global search on {:.1}% of points (same untrained weights)",
        100.0 * agree as f64 / cloud.len() as f64
    );

    // --- Architectural cost at realistic scale ---
    let n = 33_000;
    let w = Workload::prepare(&model, n, 42);
    let gpu = GpuModel::titan_rtx().execute(&w);
    let fc = DesignModel::new(DesignParams::fractalcloud()).execute(&w);
    println!("\narchitectural cost @{n} points:");
    for r in [&gpu, &fc] {
        println!(
            "  {:<16} {:>9.2} ms  ({:>6.2} ms point ops, {:>6.2} ms MLPs)  {:>9.3} mJ",
            r.accelerator,
            r.latency_ms(),
            r.point_op_ms(),
            r.mlp_ms(),
            r.energy_mj()
        );
    }
    println!(
        "  FractalCloud speedup {:.1}×, energy saving {:.0}×",
        fc.speedup_over(&gpu),
        fc.energy_saving_over(&gpu)
    );
    Ok(())
}
