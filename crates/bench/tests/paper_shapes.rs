//! Figure-shape asserts for the paper artefacts the models state once:
//! Table II's rows ([`DesignParams::table2`] and the shared units every
//! design is built with), Fig. 13's fleet at the `--quick` columns, and
//! Fig. 18's ablation ladder. Shapes the models do not reproduce are
//! recorded as measured gaps in ROADMAP item 6, not asserted here.

use fractalcloud_accel::sim::{Dma, SystolicConfig};
use fractalcloud_accel::{Accelerator, DesignModel, DesignParams, Workload};
use fractalcloud_bench::{
    large_scale_models, small_scale_workloads, sram_kb, FleetReports, LARGE_SCALES, QUICK_LARGE,
    SEED,
};
use fractalcloud_pnn::ModelConfig;

#[test]
fn table2_matches_paper() {
    let t = DesignParams::table2();
    let names: Vec<&str> = t.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(names, ["Mesorasi", "PointAcc", "Crescent", "FractalCloud"]);
    let sram: Vec<f64> = t.iter().map(|p| sram_kb(&p.sram)).collect();
    assert_eq!(sram, [1624.0, 274.0, 1622.8, 274.0]);
    let area: Vec<f64> = t.iter().map(|p| p.area_mm2).collect();
    assert_eq!(area, [4.59, 1.91, 4.75, 1.5]);
    assert!(area.iter().all(|&a| a >= area[3]), "FractalCloud is the smallest design");

    // The columns every design shares are the units it runs on: a 16×16
    // PE array at 1 GHz, over DDR4-2133's 17 GB/s.
    let pe = SystolicConfig::pe16x16();
    assert_eq!((pe.rows, pe.cols), (16, 16));
    let dma = Dma::at_1ghz();
    assert_eq!(dma.core_ghz(), 1.0);
    assert_eq!((dma.dram().config().peak_bandwidth() / 1e9).round(), 17.0);
}

/// Table II consistency: peak GOPS derives from the PE array at the clock.
#[test]
fn table2_peak_performance_consistency() {
    let ghz = Dma::at_1ghz().core_ghz();
    assert_eq!(SystolicConfig::pe16x16().peak_gops(ghz), 512.0);
}

/// Fig. 13 at every `--quick` column: FractalCloud's speedup and energy
/// saving over the GPU exceed every other Table II design's, and its
/// PNXt (s) speedup grows from 8K to 32K points.
#[test]
fn fig13_fractalcloud_leads_every_quick_column() {
    let large = &LARGE_SCALES[..QUICK_LARGE];
    let mut columns: Vec<(ModelConfig, usize)> = small_scale_workloads().into();
    for model in large_scale_models() {
        columns.extend(large.iter().map(|&n| (model.clone(), n)));
    }
    let mut pnxt = Vec::new();
    for (model, n) in &columns {
        let fleet = FleetReports::run(model, *n);
        let fc = fleet.designs.iter().position(|r| r.accelerator == "FractalCloud").unwrap();
        for (metric, values) in [("speedup", fleet.speedups()), ("energy", fleet.energy_savings())]
        {
            for (i, v) in values.iter().enumerate() {
                let who = &fleet.designs[i].accelerator;
                assert!(
                    i == fc || values[fc] > *v,
                    "{} @ {n}: FractalCloud {metric} {} vs {who} {v}",
                    model.notation,
                    values[fc]
                );
            }
        }
        if model.notation == ModelConfig::pointnext_segmentation().notation {
            pnxt.push(fleet.speedups()[fc]);
        }
    }
    assert_eq!(pnxt.len(), 2);
    assert!(pnxt[1] > pnxt[0], "PNXt (s) FractalCloud speedup 8K → 32K: {pnxt:?}");
}

/// Fig. 18's ladder: seven rungs from every optimisation off up to
/// FractalCloud's feature set, each rung enabling something new, and at the
/// bin's `--quick` size (PNXt (s), 33K points) every rung cuts latency and
/// energy — the paper's "every step is ≥1×".
#[test]
fn fig18_ladder_climbs_from_baseline_to_fractalcloud() {
    let ladder = DesignParams::ablation_ladder();
    let names: Vec<&str> = ladder.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(names, ["Baseline", "Baseline(Meso)", "+RSPU", "+BWS", "+BWG", "+BWI", "+BWGa"]);
    let top = DesignParams { name: "FractalCloud".into(), ..ladder[6].clone() };
    assert_eq!(top, DesignParams::fractalcloud());
    for pair in ladder.windows(2) {
        let renamed = DesignParams { name: pair[0].name.clone(), ..pair[1].clone() };
        assert_ne!(renamed, pair[0], "{} enables nothing", pair[1].name);
    }

    let w = Workload::prepare(&ModelConfig::pointnext_segmentation(), 33_000, SEED);
    let reports: Vec<_> = ladder.into_iter().map(|p| DesignModel::new(p).execute(&w)).collect();
    for pair in reports.windows(2) {
        let (below, rung) = (&pair[0], &pair[1]);
        assert!(rung.speedup_over(below) > 1.0, "{} is no faster", rung.accelerator);
        assert!(rung.energy_saving_over(below) > 1.0, "{} saves no energy", rung.accelerator);
    }
}
