//! Table I: the evaluated networks and datasets.

use fractalcloud_bench::header;
use fractalcloud_pnn::{ModelConfig, Segments, Task};

fn main() {
    header("Table I", "evaluated networks and datasets");
    println!(
        "{:<14} {:<10} {:<18} {:<12} {:<8} {:>12} {:>10}",
        "model", "notation", "task", "dataset", "scene", "MACs @4K", "point-ops"
    );
    for m in ModelConfig::table1() {
        let (dataset, scene) = match m.task {
            Task::Classification => ("ModelNet40", "object"),
            Task::PartSegmentation => ("ShapeNet", "object"),
            Task::Segmentation => ("S3DIS", "indoor"),
        };
        let task = match m.task {
            Task::Classification => "classification",
            Task::PartSegmentation => "part segment.",
            Task::Segmentation => "segmentation",
        };
        let plan = Segments::new(&m, 4096).expect("Table I models are well-formed");
        println!(
            "{:<14} {:<10} {:<18} {:<12} {:<8} {:>11}M {:>10}",
            m.family,
            m.notation,
            task,
            dataset,
            scene,
            plan.total_macs() / 1_000_000,
            plan.point_ops()
        );
    }
    println!();
    println!("Datasets are synthetic equivalents (ModelNet40, ShapeNet and S3DIS");
    println!("do not ship with this repository): objects with surface-sampled");
    println!("points, indoor rooms with coplanar structure, dense clusters, and");
    println!("0.5-2.5% outliers.");
}
