//! Fig. 13: speedup and energy saving over the GPU for Mesorasi, PointAcc,
//! Crescent, and FractalCloud across the Table I workloads and input
//! scales — the paper's headline result.

use fractalcloud_bench::{
    format_value, header, large_scale_models, large_scales, quick, row_str, small_scale_workloads,
    FleetReports,
};

fn print_block(title: &str, runs: &[(String, FleetReports)]) {
    println!("--- {title} ---");
    row_str("workload", &runs.iter().map(|(l, _)| l.clone()).collect::<Vec<_>>());
    let names: Vec<&str> = runs[0].1.designs.iter().map(|r| r.accelerator.as_str()).collect();
    for (i, name) in names.iter().enumerate() {
        row_str(
            &format!("speedup {name}"),
            &runs.iter().map(|(_, f)| format_value(f.speedups()[i])).collect::<Vec<_>>(),
        );
    }
    for (i, name) in names.iter().enumerate() {
        row_str(
            &format!("energy-sav {name}"),
            &runs.iter().map(|(_, f)| format_value(f.energy_savings()[i])).collect::<Vec<_>>(),
        );
    }
    println!();
}

fn main() {
    header("Fig. 13", "speedup & energy saving vs GPU (higher is better)");

    // Small-scale: classification / part segmentation at 1K-4K.
    let runs: Vec<(String, FleetReports)> = small_scale_workloads()
        .iter()
        .map(|(m, n)| (format!("{}@{}", m.notation, n), FleetReports::run(m, *n)))
        .collect();
    print_block("small-scale inputs", &runs);

    // Large-scale: PNXt (s) and PVr (s) sweeps (the S3DIS-Test columns).
    for model in large_scale_models() {
        let runs: Vec<(String, FleetReports)> = large_scales()
            .iter()
            .map(|&n| (format!("{}K", n / 1024), FleetReports::run(&model, n)))
            .collect();
        print_block(&format!("{} on S3DIS-Test", model.notation), &runs);
    }

    if quick() {
        println!("(--quick: 131K/289K omitted)");
    }
    println!("Paper shape: small-scale FractalCloud ≈ 19× GPU and leads every");
    println!("baseline; at 131K-289K PointAcc/Mesorasi drop below 1× GPU,");
    println!("Crescent hovers near 1×, FractalCloud reaches 23-68× with");
    println!("energy savings in the 10²-10³ range.");
}
