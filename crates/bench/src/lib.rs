//! The paper's figures and tables as data.
//!
//! Each function below regenerates one table or figure of the paper: it
//! runs the corresponding experiment on the simulator stack and returns the
//! measured series as a [`Table`], next to the paper's reported values in
//! its note, so agreement in *shape* (orderings, growth rates, crossovers)
//! can be read at a glance and asserted (`tests/paper_shapes.rs`). The
//! `figures` binary prints them.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod table;

pub use table::{Cell, Section, Table};

use fractalcloud_accel::analytic;
use fractalcloud_accel::sim::{
    Dma, FractalEngine, PhaseClass, Rspu, RspuConfig, SramConfig, SystolicConfig,
};
use fractalcloud_accel::{
    Accelerator, DesignModel, DesignParams, ExecutionReport, GpuModel, Workload,
};
use fractalcloud_core::{evaluate_quality, Fractal, QualityConfig};
use fractalcloud_pnn::{ModelConfig, Segments, Task};
use fractalcloud_pointcloud::generate::{scene_cloud, uniform_cube, DatasetKind, SceneConfig};
use fractalcloud_pointcloud::metrics::AccuracyProxy;
use fractalcloud_pointcloud::partition::{
    KdTreePartitioner, OctreePartitioner, Partition, Partitioner, UniformPartitioner,
};
use fractalcloud_pointcloud::PointCloud;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// The deterministic seed every figure uses.
const SEED: u64 = 42;

/// The fractal threshold (block size) of the paper's operating point.
const TH: usize = 256;

/// A point-count column label in the paper's units: `n / 1000` points, so
/// 33 000 reads "33K" and 1024 reads "1K".
fn points_label(n: usize) -> String {
    format!("{}K", n / 1000)
}

/// Table II's SRAM column: a buffer's capacity in KB, to 0.1 KB.
pub fn sram_kb(sram: &SramConfig) -> f64 {
    (sram.bytes as f64 * 10.0 / 1024.0).round() / 10.0
}

/// `Workload::prepare(model, n, SEED)`, prepared once per process for each
/// (model notation, `n`, seed): Figs. 1, 4, 13, 15, 17 and 18 read the same
/// PNXt (s) workloads, the 289K one a 0.17 s build (release, 2 vCPUs). A
/// key that is being prepared blocks only the callers that want that key.
fn workload(model: &ModelConfig, n: usize) -> &'static Workload {
    type Slots = Mutex<HashMap<(String, usize, u64), &'static OnceLock<Workload>>>;
    static PREPARED: OnceLock<Slots> = OnceLock::new();
    let slot = *PREPARED
        .get_or_init(Slots::default)
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .entry((model.notation.clone(), n, SEED))
        .or_insert_with(|| Box::leak(Box::default()));
    slot.get_or_init(|| Workload::prepare(model, n, SEED))
}

fn section(heading: &str, axis: &str, columns: Vec<String>) -> Section {
    Section { heading: heading.into(), axis: axis.into(), columns, rows: Vec::new() }
}

impl Section {
    fn with(mut self, label: impl Into<String>, cells: Vec<Cell>) -> Section {
        self.rows.push((label.into(), cells));
        self
    }
}

fn values(v: impl IntoIterator<Item = f64>) -> Vec<Cell> {
    v.into_iter().map(Cell::Value).collect()
}

fn text(t: &str) -> Cell {
    Cell::Text(t.into())
}

/// Fig. 1: memory access (MB) and inference latency (ms) of the original
/// baseline structure (global search, PointAcc-style) versus FractalCloud,
/// at 1K, 4K and 16K points and every `large` scale above 16K.
pub fn fig1(large: &[usize]) -> Table {
    let model = ModelConfig::pointnext_segmentation();
    let mut scales = vec![1024, 4096, 16_384];
    scales.extend(large.iter().filter(|&&n| n > 16_384));
    let reports: Vec<[ExecutionReport; 2]> = scales
        .iter()
        .map(|&n| {
            let w = workload(&model, n);
            [DesignParams::pointacc(), DesignParams::fractalcloud()]
                .map(|p| DesignModel::new(p).execute(w))
        })
        .collect();
    let columns: Vec<String> = scales.iter().map(|&n| points_label(n)).collect();
    let block = |heading: &str, metric: fn(&ExecutionReport) -> f64| {
        let series = |i: usize| values(reports.iter().map(|pair| metric(&pair[i])));
        section(heading, "points", columns.clone())
            .with("base (global search)", series(0))
            .with("FractalCloud", series(1))
    };
    Table {
        title: "Fig. 1: memory access (MB) and latency (ms): original vs FractalCloud".into(),
        sections: vec![
            block("memory access (MB)", |r| r.dram_bytes as f64 / 1e6),
            block("latency (ms)", ExecutionReport::latency_ms),
        ],
        note: "Paper shape: both curves grow ~quadratically for the baseline and\n\
               ~linearly for FractalCloud; the gap exceeds 100× at 289K points.",
    }
}

/// Figs. 3 and 14's shared measurement: PNNPU's uniform blocks and
/// FractalCloud's fractal blocks (threshold 256) on one indoor scene, each
/// with its accuracy proxy.
pub struct SceneQuality {
    cloud: PointCloud,
    uniform: Partition,
    fractal: Partition,
    /// With equal per-block sample allocation, as PNNPU's hardware assigns.
    uniform_proxy: AccuracyProxy,
    fractal_proxy: AccuracyProxy,
}

impl SceneQuality {
    /// Partitions an `n`-point scene both ways and evaluates both proxies.
    pub fn evaluate(n: usize) -> SceneQuality {
        let cloud = scene_cloud(&SceneConfig::default(), n, SEED);
        let uniform = UniformPartitioner::with_target_block_size(TH)
            .partition(&cloud)
            .expect("a generated scene partitions");
        let fractal = Fractal::with_threshold(TH)
            .build(&cloud)
            .expect("a generated scene partitions")
            .partition;
        let equal = QualityConfig { equal_allocation: true, ..QualityConfig::default() };
        let uniform_proxy = proxy(&cloud, &uniform, &equal);
        let fractal_proxy = proxy(&cloud, &fractal, &QualityConfig::default());
        SceneQuality { cloud, uniform, fractal, uniform_proxy, fractal_proxy }
    }
}

fn proxy(cloud: &PointCloud, partition: &Partition, config: &QualityConfig) -> AccuracyProxy {
    evaluate_quality(cloud, partition, config).expect("quality evaluates").proxy
}

/// Fig. 3: comparison of partitioning strategies — none (PointAcc), uniform
/// (PNNPU), KD-tree (Crescent), Fractal — on partition latency, balance,
/// and the accuracy proxy.
pub fn fig3(scene: &SceneQuality) -> Table {
    let n = scene.cloud.len();
    let engine = FractalEngine::new();
    let kd =
        KdTreePartitioner::new(TH).partition(&scene.cloud).expect("a generated scene partitions");
    let kd_loss = proxy(&scene.cloud, &kd, &QualityConfig::default()).estimated_accuracy_loss_pp();
    // 1 GHz: a million cycles is a millisecond.
    let ms = |cycles: u64| cycles as f64 / 1e6;
    let traversal_ms = |p: &Partition| ms(engine.traversal_partition(&p.cost).cycles);
    let imbalance = |p: &Partition| Cell::Value(p.balance().imbalance());
    let columns = ["baseline", "uniform", "kd-tree", "fractal"].map(String::from).into();
    let s = section("", "strategy", columns)
        .with(
            "partition latency (ms)",
            values([
                0.0,
                traversal_ms(&scene.uniform),
                ms(engine.kd_tree_partition(n as u64, TH as u64).cycles),
                traversal_ms(&scene.fractal),
            ]),
        )
        .with(
            "imbalance (max/mean)",
            vec![text("-"), imbalance(&scene.uniform), imbalance(&kd), imbalance(&scene.fractal)],
        )
        .with(
            "est. accuracy loss (pp)",
            values([
                0.0,
                scene.uniform_proxy.estimated_accuracy_loss_pp(),
                kd_loss,
                scene.fractal_proxy.estimated_accuracy_loss_pp(),
            ]),
        );
    Table {
        title: "Fig. 3: partitioning strategies: latency, balance, accuracy proxy".into(),
        sections: vec![s],
        note: "Paper (Fig. 3, PointNeXt on S3DIS): baseline 62.59% mIoU / no\n\
               partition; uniform 53.79% (−8.8pp), 0.03 ms; kd-tree 62.30%,\n\
               4.03 ms; fractal 62.03% (−0.6pp), 0.04 ms. Expected shape:\n\
               kd-tree strictly balanced but ~100× slower; uniform fastest but\n\
               imbalanced and inaccurate; fractal near-uniform speed, near-kd\n\
               balance, sub-1pp proxy loss.",
    }
}

/// Fig. 4: GPU inference latency and point-operation share across the
/// Table I workloads and the PointNeXt (s) sweep over `large` — the
/// bottleneck-shift motivation.
pub fn fig4(large: &[usize]) -> Table {
    let gpu = GpuModel::titan_rtx();
    let block =
        |heading: &str, axis: &str, columns: Vec<String>, runs: Vec<(&ModelConfig, usize)>| {
            let reports: Vec<ExecutionReport> =
                runs.iter().map(|&(m, n)| gpu.execute(workload(m, n))).collect();
            section(heading, axis, columns)
                .with("latency (ms)", values(reports.iter().map(|r| r.latency_ms())))
                .with(
                    "point-op share (%)",
                    reports
                        .iter()
                        .map(|r| Cell::Fixed(100.0 * r.point_op_ms() / r.latency_ms(), 0))
                        .collect(),
                )
        };
    let workloads = [
        (ModelConfig::pointnetpp_classification(), 1024),
        (ModelConfig::pointnext_classification(), 2048),
        (ModelConfig::pointnetpp_segmentation(), 4096),
        (ModelConfig::pointnext_segmentation(), 16_384),
        (ModelConfig::pointvector_segmentation(), 16_384),
    ];
    let representative = block(
        "representative scales",
        "workload",
        workloads.iter().map(|(m, n)| format!("{}@{}", m.notation, n)).collect(),
        workloads.iter().map(|(m, n)| (m, *n)).collect(),
    );
    let model = ModelConfig::pointnext_segmentation();
    let sweep = block(
        "PointNeXt (s) scale sweep",
        "points",
        large.iter().map(|&n| points_label(n)).collect(),
        large.iter().map(|&n| (&model, n)).collect(),
    );
    Table {
        title: "Fig. 4: GPU latency (ms) and point-op share across scales".into(),
        sections: vec![representative, sweep],
        note: "Paper shape: point-op share rises from ~30-45% at 1K-4K to 78%\n\
               at 16K and >97% at 131K-289K, while absolute latency grows\n\
               super-linearly (Fig. 4 reports 10⁰–10⁴ ms over this range).",
    }
}

/// Fig. 5: the workload structure of KD-tree construction (exclusive,
/// serial sorts) versus Fractal (inclusive traversals), at the paper's two
/// anchor configurations: block size 64 on 1K points, measured on both
/// implementations, and block size 256 on 289K points (the KD-tree's sort
/// count analytic, the fractal's measured).
pub fn fig5() -> Table {
    let cloud = uniform_cube(1024, SEED);
    let kd = KdTreePartitioner::new(64).partition(&cloud).expect("a cube partitions");
    let fr = Fractal::with_threshold(64).build(&cloud).expect("a cube partitions");
    let big = scene_cloud(&SceneConfig::default(), 289_000, SEED);
    let fr_big = Fractal::with_threshold(TH).build(&big).expect("a generated scene partitions");
    let counts = |c: [u64; 4]| c.iter().map(|&v| Cell::Exact(v as f64)).collect();
    let big_sorts = KdTreePartitioner::expected_sorts(289_000, TH);
    let columns =
        ["paper sorts", "kd sorts", "paper trav.", "fractal trav."].map(String::from).into();
    let s = section("", "config", columns)
        .with("BS=64, 1K points", counts([15, kd.cost.sort_invocations, 4, fr.iterations as u64]))
        .with("BS=256, 289K points", counts([2047, big_sorts, 11, fr_big.iterations as u64]));
    Table {
        title: "Fig. 5: KD-tree sorts vs Fractal traversals".into(),
        sections: vec![s],
        note: "Complexity: KD-tree O(n/BS) serial sorts; Fractal O(log2 n/BS)\n\
               traversals. Measured fractal iterations exceed the balanced bound\n\
               on skewed scenes (dense clusters split deeper): at 289K by far\n\
               more than the paper's count, a gap recorded in ROADMAP item 6.",
    }
}

/// Table I: the evaluated networks and datasets.
pub fn table1() -> Table {
    let columns = ["notation", "task", "dataset", "scene", "MACs @4K (M)", "point-ops"]
        .map(String::from)
        .into();
    let mut s = section("", "model", columns);
    for m in ModelConfig::table1() {
        let (task, dataset, scene) = match m.task {
            Task::Classification => ("classification", "ModelNet40", "object"),
            Task::PartSegmentation => ("part segment.", "ShapeNet", "object"),
            Task::Segmentation => ("segmentation", "S3DIS", "indoor"),
        };
        let plan = Segments::new(&m, 4096).expect("Table I models are well-formed");
        let cells = vec![
            Cell::Text(m.notation.clone()),
            text(task),
            text(dataset),
            text(scene),
            Cell::Exact((plan.total_macs() / 1_000_000) as f64),
            Cell::Exact(plan.point_ops() as f64),
        ];
        s = s.with(m.family, cells);
    }
    Table {
        title: "Table I: evaluated networks and datasets".into(),
        sections: vec![s],
        note: "Datasets are synthetic equivalents (ModelNet40, ShapeNet and S3DIS\n\
               do not ship with this repository): objects with surface-sampled\n\
               points, indoor rooms with coplanar structure, dense clusters, and\n\
               0.5-2.5% outliers.",
    }
}

/// Table II + Fig. 12: the evaluated hardware accelerators and the
/// FractalCloud chip summary, read from the designs the models run.
pub fn table2() -> Table {
    // The units `DesignModel::new` builds every design with.
    let pe = SystolicConfig::pe16x16();
    let ghz = Dma::at_1ghz().core_ghz();
    let columns =
        ["cores", "SRAM (KB)", "freq (GHz)", "area (mm²)", "DRAM", "tech (nm)", "peak GOPS"]
            .map(String::from)
            .into();
    let mut designs = section("", "accelerator", columns);
    for p in DesignParams::table2() {
        // The DRAM is `DramConfig::ddr4_2133`, which `Dma::at_1ghz` streams
        // from; the node is that of the 28 nm energy table every unit reads.
        let cells = vec![
            Cell::Text(format!("{}x{}", pe.rows, pe.cols)),
            Cell::Exact(sram_kb(&p.sram)),
            Cell::Exact(ghz),
            Cell::Exact(p.area_mm2),
            text("DDR4-2133"),
            Cell::Exact(28.0),
            Cell::Exact(pe.peak_gops(ghz)),
        ];
        designs = designs.with(p.name, cells);
    }
    // Die area, power and technology are Fig. 12's published layout
    // numbers; no model computes them.
    let fc = DesignParams::fractalcloud();
    let chip = section(
        "Fig. 12: FractalCloud chip summary (paper layout numbers)",
        "",
        vec![fc.name.clone()],
    )
    .with("die area (mm²)", vec![Cell::Exact(3.0)])
    .with("core area (mm²)", vec![Cell::Exact(fc.area_mm2)])
    .with("SRAM (KB)", vec![Cell::Exact(sram_kb(&fc.sram))])
    .with("frequency (GHz)", vec![Cell::Exact(ghz)])
    .with("avg power (W)", vec![Cell::Exact(0.58)])
    .with("technology", vec![text("TSMC 28nm")]);
    Table {
        title: "Table II: evaluated hardware accelerators".into(),
        sections: vec![designs, chip],
        note: "Every design runs on one PE array at one clock over one DRAM\n\
               (`DesignModel::new`); Fig. 12's die area, power and technology\n\
               are the paper's layout numbers, not modelled.",
    }
}

/// One workload executed on every Table II design plus the GPU.
struct FleetReports {
    gpu: ExecutionReport,
    /// [`DesignParams::table2`]'s designs, in its column order.
    designs: Vec<ExecutionReport>,
}

impl FleetReports {
    fn run(model: &ModelConfig, n: usize) -> FleetReports {
        let w = workload(model, n);
        FleetReports {
            gpu: GpuModel::titan_rtx().execute(w),
            designs: DesignParams::table2()
                .into_iter()
                .map(|p| DesignModel::new(p).execute(w))
                .collect(),
        }
    }
}

/// Fig. 13: speedup and energy saving over the GPU for Mesorasi, PointAcc,
/// Crescent, and FractalCloud across the Table I workloads at 1K–4K points
/// and the PNXt (s) and PVr (s) sweeps over `large` — the paper's headline
/// result.
pub fn fig13(large: &[usize]) -> Table {
    let block = |heading: String, runs: Vec<(String, FleetReports)>| {
        let columns = runs.iter().map(|(l, _)| l.clone()).collect();
        let mut s = section(&heading, "workload", columns);
        let names: Vec<String> = runs[0].1.designs.iter().map(|r| r.accelerator.clone()).collect();
        for (i, name) in names.iter().enumerate() {
            let speedups = runs.iter().map(|(_, f)| f.designs[i].speedup_over(&f.gpu));
            s = s.with(format!("speedup {name}"), values(speedups));
        }
        for (i, name) in names.iter().enumerate() {
            let savings = runs.iter().map(|(_, f)| f.designs[i].energy_saving_over(&f.gpu));
            s = s.with(format!("energy-sav {name}"), values(savings));
        }
        s
    };
    let small = [
        (ModelConfig::pointnetpp_classification(), 1024),
        (ModelConfig::pointnext_classification(), 2048),
        (ModelConfig::pointnetpp_part_segmentation(), 4096),
        (ModelConfig::pointnext_part_segmentation(), 4096),
        (ModelConfig::pointnetpp_segmentation(), 4096),
    ];
    let mut sections = vec![block(
        "small-scale inputs".into(),
        small
            .iter()
            .map(|(m, n)| (format!("{}@{}", m.notation, n), FleetReports::run(m, *n)))
            .collect(),
    )];
    for model in [ModelConfig::pointnext_segmentation(), ModelConfig::pointvector_segmentation()] {
        let runs = large.iter().map(|&n| (points_label(n), FleetReports::run(&model, n))).collect();
        sections.push(block(format!("{} on S3DIS-Test", model.notation), runs));
    }
    Table {
        title: "Fig. 13: speedup & energy saving vs GPU (higher is better)".into(),
        sections,
        note: "Paper shape: small-scale FractalCloud ≈ 19× GPU and leads every\n\
               baseline; at 131K-289K PointAcc/Mesorasi drop below 1× GPU,\n\
               Crescent hovers near 1×, FractalCloud reaches 23-68× with\n\
               energy savings in the 10²-10³ range.",
    }
}

/// Fig. 14: network-accuracy comparison across designs.
///
/// Networks are not retrained (no dataset or trained weights ship with this
/// repository); instead the figure reports the paper's published
/// accuracies alongside our *accuracy-proxy* estimates (neighbor recall /
/// sampling coverage → estimated loss, mapped by
/// `AccuracyProxy::estimated_accuracy_loss_pp`). The proxy is computed for
/// the designs whose loss comes from partition-induced search changes
/// (PNNPU, FractalCloud); Mesorasi's and Crescent's losses stem from
/// delayed aggregation and approximation, which are orthogonal to
/// partitioning and quoted from the paper.
pub fn fig14(scene: &SceneQuality) -> Table {
    let columns =
        ["Original", "Mesorasi", "Crescent", "PNNPU", "FractalCloud"].map(String::from).into();
    let quoted = |v: f64| Cell::Fixed(v, 1);
    // The original's value, Mesorasi's and Crescent's mark, PNNPU's and
    // FractalCloud's measurement.
    let ours = |original, mark, metric: fn(&AccuracyProxy) -> f64| {
        let measured = [&scene.uniform_proxy, &scene.fractal_proxy].map(|p| Cell::Value(metric(p)));
        [vec![original, text(mark), text(mark)], measured.into()].concat()
    };
    let s = section("", "design", columns)
        .with(
            "paper loss (pp)",
            vec![quoted(0.0), quoted(0.9), quoted(2.0), quoted(8.8), text("<0.7")],
        )
        .with(
            "our proxy loss (pp)",
            ours(quoted(0.0), "(quoted)", AccuracyProxy::estimated_accuracy_loss_pp),
        )
        .with("grouping recall", ours(Cell::Value(1.0), "-", |p| p.grouping_recall))
        .with("coverage ratio", ours(Cell::Value(1.0), "-", |p| p.sampling_coverage_ratio));
    Table {
        title: "Fig. 14: accuracy (proxy) comparison across designs".into(),
        sections: vec![s],
        note: "Paper (PointNeXt (s), mIoU): original 62.6, PNNPU 53.8 (−8.8pp),\n\
               FractalCloud 62.0 (−0.6pp). Expected shape: FractalCloud proxy\n\
               loss ≪ PNNPU proxy loss, both ordered as in the paper.\n\
               The proxy measures the numerical difference §VI-B names as the\n\
               loss mechanism (changed samples and neighbours), not mIoU.",
    }
}

/// Fig. 15: latency and energy breakdowns for PointAcc, Crescent, and
/// FractalCloud running PointNeXt (s) on a 33K-point scene.
pub fn fig15() -> Table {
    let n = 33_000;
    let w = workload(&ModelConfig::pointnext_segmentation(), n);
    let reports =
        [DesignParams::pointacc(), DesignParams::crescent(), DesignParams::fractalcloud()]
            .map(|p| DesignModel::new(p).execute(w));
    let designs: Vec<String> = reports.iter().map(|r| r.accelerator.clone()).collect();
    let series = |f: &dyn Fn(&ExecutionReport) -> f64| values(reports.iter().map(f));
    let latency = section("latency breakdown (ms)", "design", designs.clone())
        .with(
            "point ops",
            series(&|r| r.class_ms(PhaseClass::PointOp) + r.class_ms(PhaseClass::Partition)),
        )
        .with("  (partitioning)", series(&|r| r.class_ms(PhaseClass::Partition)))
        .with("MLPs", series(&|r| r.mlp_ms()))
        .with("total", series(&|r| r.latency_ms()));
    // pJ → mJ.
    let energy = section("energy breakdown (mJ)", "design", designs.clone())
        .with("compute", series(&|r| r.energy().compute_pj * 1e-9))
        .with("SRAM", series(&|r| r.energy().sram_pj * 1e-9))
        .with("DRAM", series(&|r| r.energy().dram_pj * 1e-9))
        .with("total", series(&|r| r.energy().total_pj() * 1e-9));
    let traffic = section("DRAM traffic (MB)", "design", designs)
        .with("bytes", series(&|r| r.dram_bytes as f64 / 1e6));
    Table {
        title: format!("Fig. 15: latency & energy breakdown, PNXt (s) @ {}", points_label(n)),
        sections: vec![latency, energy, traffic],
        note: "Paper (Fig. 15): point ops dominate PointAcc and Crescent\n\
               latency; FractalCloud total is ~16× lower. PointAcc's energy is\n\
               DRAM-heavy; Crescent trades DRAM for SRAM energy (1.6 MB buffer)\n\
               and lands near or above PointAcc's total; FractalCloud is ~10×\n\
               below both with a small-buffer, streamed-DRAM profile.\n\
               Measured: the orderings hold, the sizes do not. FractalCloud's\n\
               total is a few times below PointAcc's, not ~16×, and Crescent's\n\
               energy lands below PointAcc's (gaps recorded in ROADMAP item 6).",
    }
}

/// Mean neighbor-search expansion factor measured from the partition: the
/// ratio of a block's parent search-space population to its own population.
/// Binary trees give ≈2, octrees up to 8, self-only methods 1.
fn search_factor(p: &Partition) -> f64 {
    let mut acc = 0.0;
    for b in &p.blocks {
        let (first, end) = b.search;
        let space: usize = p.blocks[first..end].iter().map(|g| g.len()).sum();
        acc += space as f64 / b.len().max(1) as f64;
    }
    acc / p.blocks.len().max(1) as f64
}

/// Point-op cycles for one abstraction stage under a partition, on the
/// FractalCloud RSPU array (isolates the partition's effect). The neighbor
/// search pays the partition's own measured expansion factor.
fn point_op_cycles(p: &Partition, rspu: &Rspu) -> u64 {
    let sizes: Vec<usize> = p.blocks.iter().map(|b| b.len()).collect();
    let factor = search_factor(p);
    let (fps_t, fps_c) = analytic::block_fps(&sizes, 0.25, true);
    let (bq_t, bq_c) = analytic::block_neighbor(&sizes, 0.25, factor, 32);
    rspu.block_parallel_from_aggregate(&fps_t, &fps_c).cycles
        + rspu.block_parallel_from_aggregate(&bq_t, &bq_c).cycles
}

/// Fig. 16: partitioning speedup (dots, normalized to KD-tree) and point-
/// operation speedup (bars, normalized to uniform) for uniform, octree,
/// KD-tree, and Fractal across the three dataset families, at 16K points.
pub fn fig16() -> Table {
    let n = 16_384;
    let engine = FractalEngine::new();
    let rspu = Rspu::new(RspuConfig::fractalcloud());
    let datasets = [DatasetKind::ModelNet, DatasetKind::ShapeNet, DatasetKind::S3dis];
    let columns: Vec<String> = datasets.iter().map(|d| d.name().to_string()).collect();
    let mut sections = [
        "partitioning speedup (normalized to kd-tree)",
        "point-operation speedup (normalized to uniform)",
    ]
    .map(|heading| {
        let rows = ["uniform", "octree", "kd-tree", "fractal"].map(|p| (p.into(), Vec::new()));
        Section { rows: rows.into(), ..section(heading, "dataset", columns.clone()) }
    });
    for kind in datasets {
        let cloud = kind.generate(n, SEED);
        let partitions = [
            UniformPartitioner::with_target_block_size(TH).partition(&cloud),
            OctreePartitioner::new(TH).partition(&cloud),
            KdTreePartitioner::new(TH).partition(&cloud),
            Fractal::with_threshold(TH).build(&cloud).map(|f| f.partition),
        ]
        .map(|p| p.expect("a generated cloud partitions"));
        let kd_cycles = engine.kd_tree_partition(n as u64, TH as u64).cycles.max(1);
        let base_ops = point_op_cycles(&partitions[0], &rspu).max(1);
        for (i, p) in partitions.iter().enumerate() {
            let part_cycles = match i {
                2 => kd_cycles,
                _ => engine.traversal_partition(&p.cost).cycles.max(1),
            };
            let op_speedup = base_ops as f64 / point_op_cycles(p, &rspu).max(1) as f64;
            sections[0].rows[i].1.push(Cell::Value(kd_cycles as f64 / part_cycles as f64));
            sections[1].rows[i].1.push(Cell::Value(op_speedup));
        }
    }
    Table {
        title: "Fig. 16: partition speedup (vs kd-tree) & point-op speedup (vs uniform)".into(),
        sections: sections.into(),
        note: "Paper: fractal partitions 133× faster than kd-tree and 14.9×\n\
               faster than octree; its balanced blocks speed point operations\n\
               4.4× over uniform and 2.1× over octree. Expected shape: kd-class\n\
               balance, hence the best point-op column. Measured: fractal\n\
               partitions several times slower than uniform, and slower than\n\
               octree; its point ops lead only on ModelNet40 and ShapeNet, and\n\
               the kd-tree's lead on S3DIS (gaps recorded in ROADMAP item 6).",
    }
}

/// Fig. 17: the Fractal threshold (`th`) trade-off between hardware speedup
/// (PointNeXt (s) on an `n`-point scene) and network accuracy (the proxy on
/// a `quality_n`-point scene; the proxy is O(n·m)).
pub fn fig17(n: usize, quality_n: usize) -> Table {
    let model = ModelConfig::pointnext_segmentation();
    let cloud = scene_cloud(&SceneConfig::default(), n, SEED);
    let quality_cloud = scene_cloud(&SceneConfig::default(), quality_n, SEED);

    // The "no fractal" baseline: global ops on the same hardware, Fig. 18's
    // "+RSPU" rung.
    let rung = DesignParams::ablation_ladder().into_iter().find(|p| p.name == "+RSPU");
    let no_fractal = rung.expect("Fig. 18's +RSPU rung");
    let base = DesignModel::new(no_fractal).execute(workload(&model, n));

    let thresholds = [8usize, 64, 256, 512, 1024, 4096];
    let mut speedups = Vec::new();
    let mut point_speedups = Vec::new();
    let mut losses = Vec::new();
    for &th in &thresholds {
        let w = Workload::prepare_with_threshold(&model, &cloud, th);
        let fc = DesignModel::new(DesignParams::fractalcloud()).execute(&w);
        speedups.push(fc.speedup_over(&base));
        point_speedups.push(base.point_op_ms() / fc.point_op_ms());
        let part = Fractal::with_threshold(th)
            .build(&quality_cloud)
            .expect("a generated scene partitions")
            .partition;
        losses.push(
            proxy(&quality_cloud, &part, &QualityConfig::default()).estimated_accuracy_loss_pp(),
        );
    }
    let s = section("", "th", thresholds.iter().map(|t| t.to_string()).collect())
        .with("speedup vs no-fractal", values(speedups))
        .with("point-op speedup", values(point_speedups))
        .with("est. accuracy loss (pp)", values(losses));
    Table {
        title: "Fig. 17: threshold sweep: speedup vs accuracy proxy, PNXt (s)".into(),
        sections: vec![s],
        note: "Note: our FractalCloud model is MLP-bound at this scale, so the\n\
               end-to-end sensitivity to th is weaker than the paper's; the\n\
               point-op row isolates the effect the paper plots.\n\
               Paper: th=8 over-partitions (>8pp loss despite ~21× speedup);\n\
               th=4096 preserves accuracy but only ~4.6× speedup; th=256 is the\n\
               chosen operating point (~0.6pp, ~15×). Expected shape: speedup\n\
               decreases and accuracy improves monotonically with th.",
    }
}

/// Fig. 18: incremental ablation of the FractalCloud optimizations —
/// Baseline → +delayed-aggregation (Meso) → +RSPU (window check + reuse) →
/// +BWS → +BWG → +BWI → +BWGa — on PointNeXt (s) at `n` points.
pub fn fig18(n: usize) -> Table {
    let w = workload(&ModelConfig::pointnext_segmentation(), n);
    let reports: Vec<_> = DesignParams::ablation_ladder()
        .into_iter()
        .map(|p| DesignModel::new(p).execute(w))
        .collect();
    let base = &reports[0];
    let steps = reports.iter().map(|r| r.accelerator.clone()).collect();
    let s = section(&format!("PointNeXt (s) @ {n} points"), "step", steps)
        .with("latency (ms)", values(reports.iter().map(|r| r.latency_ms())))
        .with("cum. speedup", values(reports.iter().map(|r| r.speedup_over(base))))
        .with("cum. energy saving", values(reports.iter().map(|r| r.energy_saving_over(base))));
    Table {
        title: "Fig. 18: incremental speedup & energy savings of RSPU + BPPO".into(),
        sections: vec![s],
        note: "Paper: Meso ≈ 1.004×; +RSPU 1.37× (1.48× energy); +BWS 2.3×;\n\
               +BWG 2.2×; +BWI 20×; +BWGa 1.5× — compounding to ≈209× speedup\n\
               and 192× energy saving over the unoptimized baseline at 289K.\n\
               Expected shape: the block-wise interpolation step is the largest\n\
               single contributor; every step is ≥1×.",
    }
}

/// §VI-D discussion experiments: the asymptotic limit (PNXt (s) at
/// `asymptotic_n` points; the paper's is 1M) and the imbalance effect of
/// Fractal partitioning on a 33K-point scene.
pub fn discussion(asymptotic_n: usize) -> Table {
    let imbalance_n = 33_000;
    let model = ModelConfig::pointnext_segmentation();

    let cloud = scene_cloud(&SceneConfig::default(), asymptotic_n, SEED);
    let w = Workload::prepare_with_threshold(&model, &cloud, TH);
    let gpu = GpuModel::titan_rtx().execute(&w);
    let fc = DesignModel::new(DesignParams::fractalcloud()).execute(&w);
    let one = |cell: Cell| vec![cell];
    let asymptotic =
        section("asymptotic scaling, PNXt (s)", "points", vec![asymptotic_n.to_string()])
            .with("GPU latency (ms)", one(Cell::Fixed(gpu.latency_ms(), 0)))
            .with("FractalCloud latency (ms)", one(Cell::Fixed(fc.latency_ms(), 1)))
            .with("speedup over GPU", one(Cell::Fixed(fc.speedup_over(&gpu), 1)))
            .with("coords in DRAM (MB)", one(Cell::Fixed(asymptotic_n as f64 * 6.0 / 1e6, 1)));

    // Makespan of block FPS work with the real (partially imbalanced)
    // fractal blocks versus a hypothetical strictly balanced partition of
    // the same block count.
    let cloud = scene_cloud(&SceneConfig::default(), imbalance_n, SEED);
    let fr = Fractal::with_threshold(TH).build(&cloud).expect("a generated scene partitions");
    let sizes: Vec<usize> = fr.partition.blocks.iter().map(|b| b.len()).collect();
    let rspu = Rspu::new(RspuConfig::fractalcloud());
    let work = |sizes: &[usize]| -> u64 {
        let (total, critical) = analytic::block_fps(sizes, 0.25, true);
        rspu.block_parallel_from_aggregate(&total, &critical).cycles
    };
    let real = work(&sizes);
    let even = vec![imbalance_n / sizes.len(); sizes.len()];
    let overhead = 100.0 * (real as f64 / work(&even) as f64 - 1.0);
    // End-to-end impact scales by the point-op share of total latency.
    let w = Workload::prepare_with_threshold(&model, &cloud, TH);
    let fc = DesignModel::new(DesignParams::fractalcloud()).execute(&w);
    let share = fc.point_op_ms() / fc.latency_ms();
    let count = |v: Option<&usize>| one(Cell::Exact(*v.expect("a scene has blocks") as f64));
    let imbalance =
        section("imbalance effect (point-op makespan)", "scene", vec![points_label(imbalance_n)])
            .with("blocks", one(Cell::Exact(sizes.len() as f64)))
            .with("min block", count(sizes.iter().min()))
            .with("max block", count(sizes.iter().max()))
            .with("makespan vs strictly balanced (%)", one(Cell::Value(overhead)))
            .with("end-to-end latency impact (%)", one(Cell::Value(overhead * share)));
    Table {
        title: "§VI-D: asymptotic limit and imbalance effect".into(),
        sections: vec![asymptotic, imbalance],
        note: "Paper: 105.7× speedup over the GPU at 1M points, and a 24 GB DRAM\n\
               handles 3M-point PNXt. Partial imbalance adds only 3.0% (PointNeXt)\n\
               / 2.8% (PointVector) end-to-end latency because the threshold\n\
               bounds the largest block. Expected: single-digit percent end-to-end.",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::format_value;

    #[test]
    fn fleet_runs_a_small_workload() {
        let f = FleetReports::run(&ModelConfig::pointnetpp_classification(), 512);
        let s: Vec<f64> = f.designs.iter().map(|r| r.speedup_over(&f.gpu)).collect();
        assert!(s.iter().all(|&v| v > 0.0));
        // FractalCloud leads the fleet.
        assert!(s[3] >= s[0] && s[3] >= s[1] && s[3] >= s[2]);
    }

    #[test]
    fn formatting_is_compact() {
        assert_eq!(format_value(0.0), "0");
        assert_eq!(format_value(2.34159), "2.34");
        assert_eq!(format_value(27.4), "27.4");
        assert_eq!(format_value(1893.0), "1893");
    }

    #[test]
    fn point_labels_match_the_paper_columns() {
        let labels: Vec<String> = [1024, 4096, 8192, 16_384, 33_000, 131_000, 289_000]
            .into_iter()
            .map(points_label)
            .collect();
        assert_eq!(labels, ["1K", "4K", "8K", "16K", "33K", "131K", "289K"]);
    }
}
