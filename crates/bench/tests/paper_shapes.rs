//! Figure-shape asserts, read from the same figure functions the `figures`
//! binary prints: Table II's rows ([`DesignParams::table2`] and the shared
//! units every design is built with), Fig. 1's crossover, Figs. 3/14's
//! partition orderings, Fig. 4's bottleneck shift, Fig. 5's sort counts,
//! Fig. 13's fleet at the `--quick` columns, Figs. 15–18 and §VI-D.
//! Shapes the models do not reproduce are recorded as measured gaps in
//! ROADMAP item 6, not asserted here.
//!
//! The accuracy-proxy figures run on 4 096-point scenes: the orderings
//! below hold from 2K to 16K points, and the proxy is O(n·m).

use fractalcloud_accel::sim::{Dma, SystolicConfig};
use fractalcloud_accel::DesignParams;
use fractalcloud_bench::{
    discussion, fig1, fig13, fig14, fig15, fig16, fig17, fig18, fig3, fig4, fig5, sram_kb, Cell,
    SceneQuality, Section, Table,
};

/// The `--quick` large-scale columns (Figs. 1, 4 and 13).
const QUICK_LARGE: [usize; 2] = [8192, 33_000];

/// The scene size of the accuracy-proxy asserts.
const QUALITY_N: usize = 4096;

/// The section of `t` headed `heading`.
fn section<'a>(t: &'a Table, heading: &str) -> &'a Section {
    let found = t.sections.iter().find(|s| s.heading == heading);
    found.unwrap_or_else(|| panic!("{}: no section {heading:?}", t.title))
}

fn cells<'a>(s: &'a Section, label: &str) -> &'a [Cell] {
    let found = s.rows.iter().find(|(l, _)| l == label);
    &found.unwrap_or_else(|| panic!("section {:?} has no row {label:?}", s.heading)).1
}

fn number(c: &Cell) -> f64 {
    match c {
        Cell::Value(v) | Cell::Fixed(v, _) | Cell::Exact(v) => *v,
        Cell::Text(t) => panic!("a text cell {t:?} where a number is asserted"),
    }
}

/// The numbers of the row labelled `label`, in column order.
fn row(s: &Section, label: &str) -> Vec<f64> {
    cells(s, label).iter().map(number).collect()
}

/// The number in the row labelled `label`, column `column`.
fn value(s: &Section, label: &str, column: &str) -> f64 {
    let i = s.columns.iter().position(|c| c == column);
    let i = i.unwrap_or_else(|| panic!("section {:?} has no column {column:?}", s.heading));
    number(&cells(s, label)[i])
}

fn increasing(v: &[f64]) -> bool {
    v.windows(2).all(|w| w[1] > w[0])
}

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

/// Fig. 1: FractalCloud is faster than the global-search baseline at every
/// column, by a ratio that grows with n (1.48, 2.28, 3.46, 4.56× from 1K
/// to 33K), and moves less memory from 4K on. At 1K it moves more (0.34
/// vs 0.22 MB), so memory is asserted from 4K on.
#[test]
fn fig1_fractalcloud_latency_gap_grows_with_n() {
    let t = fig1(&QUICK_LARGE);
    let latency = section(&t, "latency (ms)");
    let (base, ours) = (row(latency, "base (global search)"), row(latency, "FractalCloud"));
    assert_eq!(latency.columns, ["1K", "4K", "16K", "33K"]);
    let ratio: Vec<f64> = base.iter().zip(&ours).map(|(b, o)| b / o).collect();
    assert!(ratio.iter().all(|&r| r > 1.0), "FractalCloud slower somewhere: {ratio:?}");
    assert!(increasing(&ratio), "latency ratio does not grow with n: {ratio:?}");

    let memory = section(&t, "memory access (MB)");
    let (base, ours) = (row(memory, "base (global search)"), row(memory, "FractalCloud"));
    for (i, n) in memory.columns.iter().enumerate().skip(1) {
        assert!(ours[i] < base[i], "{n}: FractalCloud {} MB vs base {} MB", ours[i], base[i]);
    }
}

/// Figs. 3 and 14 from one scene evaluation: uniform blocks lose more
/// accuracy than fractal ones; the kd-tree balances best (1.00), fractal
/// next, uniform worst; the kd-tree partitions slower than fractal; and
/// FractalCloud's sampling coverage is nearer the global one than PNNPU's.
/// The kd-tree's loss against fractal's is not asserted: it flips with the
/// scene size.
#[test]
fn fig3_and_fig14_order_the_partitions() {
    let scene = SceneQuality::evaluate(QUALITY_N);
    let f3 = fig3(&scene);
    let s = section(&f3, "");
    let loss = |who| value(s, "est. accuracy loss (pp)", who);
    assert!(loss("uniform") > loss("fractal"), "{} vs {}", loss("uniform"), loss("fractal"));
    let imbalance = |who| value(s, "imbalance (max/mean)", who);
    assert_eq!(imbalance("kd-tree"), 1.0);
    assert!(imbalance("kd-tree") <= imbalance("fractal"));
    assert!(imbalance("fractal") < imbalance("uniform"));
    let latency = |who| value(s, "partition latency (ms)", who);
    assert!(latency("kd-tree") > latency("fractal"));

    let f14 = fig14(&scene);
    let s = section(&f14, "");
    assert_eq!(value(s, "our proxy loss (pp)", "PNNPU"), loss("uniform"));
    assert_eq!(value(s, "our proxy loss (pp)", "FractalCloud"), loss("fractal"));
    let off = |who| (value(s, "coverage ratio", who) - 1.0).abs();
    assert!(off("FractalCloud") < off("PNNPU"), "{} vs {}", off("FractalCloud"), off("PNNPU"));
}

/// Fig. 4: the point-op share of GPU latency rises along the PNXt (s)
/// sweep (58 % → 93 % from 8K to 33K).
#[test]
fn fig4_point_op_share_rises_with_scale() {
    let t = fig4(&QUICK_LARGE);
    let share = row(section(&t, "PointNeXt (s) scale sweep"), "point-op share (%)");
    assert!(increasing(&share), "{share:?}");
}

/// Fig. 5: the kd-tree's sort counts are the paper's, exactly.
#[test]
fn fig5_kd_tree_sort_counts_match_the_paper() {
    let t = fig5();
    let s = section(&t, "");
    for (config, paper) in [("BS=64, 1K points", 15.0), ("BS=256, 289K points", 2047.0)] {
        assert_eq!(value(s, config, "paper sorts"), paper);
        assert_eq!(value(s, config, "kd sorts"), paper, "{config}");
    }
}

/// Fig. 13 at every `--quick` column: FractalCloud's speedup and energy
/// saving over the GPU exceed every other Table II design's, and its
/// PNXt (s) speedup grows from 8K to 33K points.
#[test]
fn fig13_fractalcloud_leads_every_quick_column() {
    let t = fig13(&QUICK_LARGE);
    let columns: usize = t.sections.iter().map(|s| s.columns.len()).sum();
    assert_eq!(columns, 9);
    for s in &t.sections {
        for metric in ["speedup", "energy-sav"] {
            let fc = row(s, &format!("{metric} FractalCloud"));
            for (label, _) in &s.rows {
                let Some(who) = label.strip_prefix(&format!("{metric} ")) else { continue };
                for (i, (v, n)) in row(s, label).iter().zip(&s.columns).enumerate() {
                    assert!(
                        who == "FractalCloud" || fc[i] > *v,
                        "{} @ {n}: FractalCloud {metric} {} vs {who} {v}",
                        s.heading,
                        fc[i]
                    );
                }
            }
        }
    }
    let pnxt = row(section(&t, "PNXt (s) on S3DIS-Test"), "speedup FractalCloud");
    assert!(pnxt[1] > pnxt[0], "PNXt (s) FractalCloud speedup 8K → 33K: {pnxt:?}");
}

/// Fig. 15: FractalCloud has the lowest total latency and energy, and point
/// ops are more than half of PointAcc's and of Crescent's latency.
#[test]
fn fig15_fractalcloud_is_fastest_and_cheapest() {
    let t = fig15();
    for heading in ["latency breakdown (ms)", "energy breakdown (mJ)"] {
        let s = section(&t, heading);
        let total = row(s, "total");
        let fc = value(s, "total", "FractalCloud");
        assert!(total.iter().all(|&v| v >= fc), "{heading}: {total:?}");
    }
    let latency = section(&t, "latency breakdown (ms)");
    for who in ["PointAcc", "Crescent"] {
        let share = value(latency, "point ops", who) / value(latency, "total", who);
        assert!(share > 0.5, "{who}: point ops are {share} of latency");
    }
}

/// Fig. 16: the kd-tree is the partitioning baseline (1.00), and fractal's
/// point-op speedup matches or beats octree's on every dataset.
#[test]
fn fig16_fractal_point_ops_beat_octree() {
    let t = fig16();
    let kd = row(section(&t, "partitioning speedup (normalized to kd-tree)"), "kd-tree");
    assert!(kd.iter().all(|&v| v == 1.0), "{kd:?}");
    let ops = section(&t, "point-operation speedup (normalized to uniform)");
    let (fractal, octree) = (row(ops, "fractal"), row(ops, "octree"));
    for (i, dataset) in ops.columns.iter().enumerate() {
        assert!(
            fractal[i] >= octree[i],
            "{dataset}: fractal {} vs octree {}",
            fractal[i],
            octree[i]
        );
    }
}

/// Fig. 17: the accuracy-proxy loss falls strictly as the threshold grows.
#[test]
fn fig17_proxy_loss_falls_with_threshold() {
    let t = fig17(QUALITY_N, QUALITY_N);
    let loss = row(section(&t, ""), "est. accuracy loss (pp)");
    assert!(loss.windows(2).all(|w| w[1] < w[0]), "{loss:?}");
}

/// Fig. 18's ladder: seven rungs from every optimisation off up to
/// FractalCloud's feature set, each rung enabling something new, and at the
/// `--quick` size (PNXt (s), 33K points) every rung cuts latency and
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

    let t = fig18(33_000);
    let s = &t.sections[0];
    assert_eq!(s.columns, names);
    // Cumulative over the baseline, so each rung beats the one below it.
    let speedup = row(s, "cum. speedup");
    let saving = row(s, "cum. energy saving");
    for (i, rung) in s.columns.iter().enumerate().skip(1) {
        assert!(speedup[i] > speedup[i - 1], "{rung} is no faster");
        assert!(saving[i] > saving[i - 1], "{rung} saves no energy");
    }
}

/// §VI-D: the fractal blocks' imbalance adds under 10 % to end-to-end
/// latency at 33K points (it adds 0.98 %).
#[test]
fn discussion_imbalance_costs_little_end_to_end() {
    let t = discussion(8192);
    let impact =
        row(section(&t, "imbalance effect (point-op makespan)"), "end-to-end latency impact (%)");
    assert!(impact[0] < 10.0, "{impact:?}");
}
