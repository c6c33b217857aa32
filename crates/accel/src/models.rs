//! The parametric accelerator engine: one cost model, five designs.
//!
//! Every Table II accelerator differs along a small set of architectural
//! axes (partitioning method, block vs global point operations, window
//! check, data reuse, block parallelism, delayed aggregation, SRAM size).
//! [`DesignParams`] captures those axes; [`DesignModel::execute`] turns a
//! [`Workload`] into a phase [`Timeline`] by composing the unit models of
//! `fractalcloud-sim`.

use crate::analytic::{self, COORD_BYTES, SCALAR_BYTES};
use crate::device::{Accelerator, ExecutionReport};
use crate::workload::Workload;
use fractalcloud_dram::AccessPattern;
use fractalcloud_pnn::MlpShape;
use fractalcloud_pointcloud::ops::OpCounters;
use fractalcloud_sim::{
    Dma, DmaCost, EnergyBreakdown, EnergyCategory, EnergyTable, FractalEngine, FractalEngineConfig,
    Phase, PhaseClass, Rspu, RspuConfig, Sram, SramConfig, SramPattern, Systolic, SystolicConfig,
    Timeline,
};

/// Which partitioning a design performs before point operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionKind {
    /// No partitioning (PointAcc, Mesorasi).
    None,
    /// The fractal shape-aware method (FractalCloud).
    Fractal,
    /// KD-tree median splits (Crescent).
    KdTree,
    /// Space-uniform grid (PNNPU).
    Uniform,
}

/// The architectural axes of a design.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignParams {
    /// Display name.
    pub name: String,
    /// Partitioning strategy.
    pub partition: PartitionKind,
    /// Block-wise sampling (BWS). Crescent and Mesorasi do not support
    /// block-wise FPS; the paper equips them with PointAcc's global FPS
    /// engine (§VI-A), so only FractalCloud/PNNPU set this.
    pub block_sampling: bool,
    /// Block-wise grouping (BWG).
    pub block_grouping: bool,
    /// Block-wise interpolation (BWI).
    pub block_interpolation: bool,
    /// Block-wise gathering (BWGa): gathers confined to on-chip blocks.
    pub block_gathering: bool,
    /// Neighbor search spaces expand to the parent node.
    pub parent_expansion: bool,
    /// RSPU window-check skip for sampling.
    pub window_check: bool,
    /// Intra-block candidate reuse across centers (RSPU shared buffer).
    pub intra_block_reuse: bool,
    /// Point-unit array geometry (cores = inter-block parallelism).
    pub rspu: RspuConfig,
    /// Delayed aggregation (Mesorasi): grouped MLPs run pre-grouping.
    pub delayed_aggregation: bool,
    /// Global buffer configuration.
    pub sram: SramConfig,
    /// Core area (drives static power).
    pub area_mm2: f64,
    /// Memory layout lets block streams read sequentially (DFT order).
    pub streamed_layout: bool,
}

impl DesignParams {
    /// FractalCloud (the paper's design).
    pub fn fractalcloud() -> DesignParams {
        DesignParams {
            name: "FractalCloud".into(),
            partition: PartitionKind::Fractal,
            block_sampling: true,
            block_grouping: true,
            block_interpolation: true,
            block_gathering: true,
            parent_expansion: true,
            window_check: true,
            intra_block_reuse: true,
            rspu: RspuConfig::fractalcloud(),
            delayed_aggregation: true,
            sram: SramConfig::global_buffer_274k(),
            area_mm2: 1.5,
            streamed_layout: true,
        }
    }

    /// PointAcc (MICRO'21): global point ops, 274 KB buffer.
    pub fn pointacc() -> DesignParams {
        DesignParams {
            name: "PointAcc".into(),
            partition: PartitionKind::None,
            block_sampling: false,
            block_grouping: false,
            block_interpolation: false,
            block_gathering: false,
            parent_expansion: false,
            window_check: false,
            intra_block_reuse: false,
            rspu: RspuConfig { cores: 1, lanes: 32 },
            delayed_aggregation: false,
            sram: SramConfig::global_buffer_274k(),
            area_mm2: 1.91,
            streamed_layout: false,
        }
    }

    /// Crescent (ISCA'22): KD-tree partitioning, block-serial point ops,
    /// delayed aggregation, 1.6 MB buffer.
    pub fn crescent() -> DesignParams {
        DesignParams {
            name: "Crescent".into(),
            partition: PartitionKind::KdTree,
            block_sampling: false,
            block_grouping: true,
            block_interpolation: true,
            block_gathering: true,
            parent_expansion: true,
            window_check: false,
            intra_block_reuse: false,
            rspu: RspuConfig { cores: 1, lanes: 16 }, // block-serial
            delayed_aggregation: true,
            sram: SramConfig::crescent_1622k(),
            area_mm2: 4.75,
            streamed_layout: true,
        }
    }

    /// Mesorasi (MICRO'20): no partitioning, delayed aggregation, global
    /// point ops on a PointAcc-style FPS engine (per §VI-A the paper equips
    /// it with PointAcc's sampler).
    pub fn mesorasi() -> DesignParams {
        DesignParams {
            name: "Mesorasi".into(),
            partition: PartitionKind::None,
            block_sampling: false,
            block_grouping: false,
            block_interpolation: false,
            block_gathering: false,
            parent_expansion: false,
            window_check: false,
            intra_block_reuse: false,
            rspu: RspuConfig { cores: 1, lanes: 8 },
            delayed_aggregation: true,
            sram: SramConfig::mesorasi_1624k(),
            area_mm2: 4.59,
            streamed_layout: false,
        }
    }

    /// PNNPU (VLSI'21): uniform-grid partitioning, block processing without
    /// parent expansion.
    pub fn pnnpu() -> DesignParams {
        DesignParams {
            name: "PNNPU".into(),
            partition: PartitionKind::Uniform,
            block_sampling: true,
            block_grouping: true,
            block_interpolation: true,
            block_gathering: true,
            parent_expansion: false,
            window_check: false,
            intra_block_reuse: false,
            rspu: RspuConfig { cores: 8, lanes: 16 },
            delayed_aggregation: false,
            sram: SramConfig::global_buffer_274k(),
            area_mm2: 1.8,
            streamed_layout: false,
        }
    }

    /// Table II's designs, in column order: Mesorasi, PointAcc, Crescent,
    /// FractalCloud.
    pub fn table2() -> Vec<DesignParams> {
        vec![
            DesignParams::mesorasi(),
            DesignParams::pointacc(),
            DesignParams::crescent(),
            DesignParams::fractalcloud(),
        ]
    }

    /// Fig. 18's ablation ladder: FractalCloud's hardware with every
    /// optimisation off ("Baseline"), then one more enabled per rung —
    /// Mesorasi's delayed aggregation, the RSPU's window check and
    /// intra-block reuse, then block-wise sampling (on the fractal
    /// partition), grouping, interpolation and gathering. The last rung,
    /// "+BWGa", is [`DesignParams::fractalcloud`] under another name.
    pub fn ablation_ladder() -> Vec<DesignParams> {
        let mut p = DesignParams {
            partition: PartitionKind::None,
            block_sampling: false,
            block_grouping: false,
            block_interpolation: false,
            block_gathering: false,
            window_check: false,
            intra_block_reuse: false,
            delayed_aggregation: false,
            ..DesignParams::fractalcloud()
        };
        type Enable = fn(&mut DesignParams);
        let rungs: [(&str, Enable); 7] = [
            ("Baseline", |_| {}),
            ("Baseline(Meso)", |p| p.delayed_aggregation = true),
            ("+RSPU", |p| {
                p.window_check = true;
                p.intra_block_reuse = true;
            }),
            ("+BWS", |p| {
                p.partition = PartitionKind::Fractal;
                p.block_sampling = true;
            }),
            ("+BWG", |p| p.block_grouping = true),
            ("+BWI", |p| p.block_interpolation = true),
            ("+BWGa", |p| p.block_gathering = true),
        ];
        rungs
            .into_iter()
            .map(|(name, enable)| {
                enable(&mut p);
                DesignParams { name: name.into(), ..p.clone() }
            })
            .collect()
    }
}

/// A design bound to its unit models.
#[derive(Debug, Clone)]
pub struct DesignModel {
    params: DesignParams,
    sram: Sram,
    systolic: Systolic,
    rspu: Rspu,
    engine: FractalEngine,
    dma: Dma,
    table: EnergyTable,
}

impl DesignModel {
    /// Builds the unit models for a parameter set.
    pub fn new(params: DesignParams) -> DesignModel {
        let table = EnergyTable::tsmc28();
        DesignModel {
            sram: Sram::new(params.sram, table.clone()),
            systolic: Systolic::new(SystolicConfig::pe16x16(), table.clone()),
            rspu: Rspu::new(params.rspu, table.clone()),
            engine: FractalEngine::new(FractalEngineConfig::fractalcloud(), table.clone()),
            dma: Dma::at_1ghz(),
            table,
            params,
        }
    }

    /// The design parameters.
    pub fn params(&self) -> &DesignParams {
        &self.params
    }

    /// Usable on-chip capacity for streaming data (the rest holds weights,
    /// top-k state, and double buffers).
    fn sram_avail(&self) -> u64 {
        (self.params.sram.bytes as u64) * 3 / 4
    }

    fn seq_pattern(&self) -> AccessPattern {
        if self.params.streamed_layout {
            AccessPattern::Sequential
        } else {
            AccessPattern::Strided { granule: 1024 }
        }
    }

    /// Point-op phase: compute on the RSPU array + SRAM traffic + DRAM.
    #[allow(clippy::too_many_arguments)]
    fn point_phase(
        &self,
        name: String,
        compute_cycles: u64,
        compute_pj: f64,
        sram_bytes: u64,
        sram_pattern: SramPattern,
        dram: DmaCost,
        class: PhaseClass,
    ) -> Phase {
        // Bank ports demanded: every distance lane pulls 6 B/cycle, and a
        // bank port supplies `bank_width` bytes.
        let lanes = (self.params.rspu.cores * self.params.rspu.lanes).max(1);
        let accessors = (lanes * COORD_BYTES as usize)
            .div_ceil(self.params.sram.bank_width)
            .clamp(1, self.params.sram.banks);
        let sram_cost = self.sram.access(sram_bytes, sram_pattern, accessors);
        let mut energy = EnergyBreakdown::new();
        energy.add(EnergyCategory::Compute, compute_pj);
        energy.add(EnergyCategory::Sram, sram_cost.energy_pj);
        energy.add(EnergyCategory::Dram, dram.dram_energy_pj);
        energy.add(EnergyCategory::Noc, dram.bytes as f64 * self.table.noc_pj_per_byte_hop);
        Phase {
            name,
            class,
            compute_cycles: compute_cycles.max(sram_cost.cycles),
            dram_cycles: dram.core_cycles,
            overlapped: true,
            energy,
        }
    }

    /// MLP phase: systolic GEMM + activation streaming.
    fn mlp_phase(&self, name: String, shape: MlpShape) -> Phase {
        let g = self.systolic.gemm(shape.rows as u64, shape.cout as u64, shape.cin as u64);
        let act_bytes = shape.rows as u64 * (shape.cin + shape.cout) as u64 * SCALAR_BYTES;
        let weight_bytes = (shape.cin * shape.cout) as u64 * SCALAR_BYTES;
        let sram_cost = self.sram.access(act_bytes + weight_bytes, SramPattern::Sequential, 16);
        // Activations spill to DRAM when a layer's live set exceeds SRAM.
        let dram = if act_bytes > self.sram_avail() {
            self.dma.read(act_bytes + weight_bytes, AccessPattern::Sequential)
        } else {
            self.dma.read(weight_bytes, AccessPattern::Sequential)
        };
        let mut energy = EnergyBreakdown::new();
        energy.add(EnergyCategory::Compute, g.energy_pj);
        energy.add(EnergyCategory::Sram, sram_cost.energy_pj);
        energy.add(EnergyCategory::Dram, dram.dram_energy_pj);
        Phase {
            name,
            class: PhaseClass::Mlp,
            compute_cycles: g.cycles.max(sram_cost.cycles),
            dram_cycles: dram.core_cycles,
            overlapped: true,
            energy,
        }
    }

    /// Partition phase for this design's strategy, with its DMA bytes.
    fn partition_phase(&self, w: &Workload) -> Option<(Phase, u64)> {
        let p = &self.params;
        let working = w.n as u64 * COORD_BYTES;
        let (name, cycles, pj, dram_bytes) = match p.partition {
            PartitionKind::None => return None,
            PartitionKind::Fractal => {
                let c = self.engine.traversal_partition(&w.fractal_cost);
                // Each iteration streams the active points; off-chip only
                // when the cloud exceeds the buffer.
                let dram = if working > self.sram_avail() {
                    w.fractal_cost.traversal_elements * COORD_BYTES * 2
                } else {
                    working
                };
                ("fractal".to_string(), c.cycles, c.energy_pj, dram)
            }
            PartitionKind::Uniform => {
                let c = self.engine.traversal_partition(&w.uniform_cost);
                ("uniform-grid".to_string(), c.cycles, c.energy_pj, working)
            }
            PartitionKind::KdTree => {
                // The merge-network model (serial sorts, utilization decay
                // on the final passes), not the measured compare count,
                // which would assume every lane busy.
                let c = self.engine.kd_tree_partition(w.n as u64, w.threshold as u64);
                // Every sort pass streams keys + payload; off-chip once the
                // working set outgrows the buffer.
                let dram = if working * 2 > self.sram_avail() {
                    w.kd_cost.sorted_elements * 10 * 2
                } else {
                    working
                };
                ("kd-tree".to_string(), c.cycles, c.energy_pj, dram)
            }
        };
        let sram_bytes = match p.partition {
            PartitionKind::KdTree => w.kd_cost.sorted_elements * 10,
            PartitionKind::Fractal => w.fractal_cost.traversal_elements * COORD_BYTES,
            _ => working,
        };
        let dram = self.dma.read(dram_bytes, self.seq_pattern());
        let phase = self.point_phase(
            name,
            cycles,
            pj,
            sram_bytes,
            SramPattern::Sequential,
            dram,
            PhaseClass::Partition,
        );
        Some((phase, dram.bytes))
    }

    fn base_blocks<'w>(&self, w: &'w Workload) -> &'w [usize] {
        match self.params.partition {
            PartitionKind::Fractal => &w.fractal_blocks,
            PartitionKind::KdTree => &w.kd_blocks,
            PartitionKind::Uniform => &w.uniform_blocks,
            PartitionKind::None => &[],
        }
    }
}

impl Accelerator for DesignModel {
    fn name(&self) -> String {
        self.params.name.clone()
    }

    fn execute(&self, w: &Workload) -> ExecutionReport {
        let p = &self.params;
        let segs = &w.plan;
        let mut timeline = Timeline::new();
        let mut dram_total = 0u64;
        let avail = self.sram_avail();

        if let Some((phase, bytes)) = self.partition_phase(w) {
            dram_total += bytes;
            timeline.push(phase);
        }

        // Stem.
        for (i, &shape) in segs.stem.iter().enumerate() {
            timeline.push(self.mlp_phase(format!("stem{i}"), shape));
        }

        // ---- Abstraction stages ----
        for (s, sa) in segs.abstraction.iter().enumerate() {
            let rate = sa.n_out as f64 / sa.n_in as f64;
            let coord_working = sa.n_in as u64 * COORD_BYTES;
            let sizes = analytic::stage_block_sizes(self.base_blocks(w), 0.25, s as u32);
            let have_blocks = !sizes.is_empty();

            // -- Sampling --
            let (cost, sram_bytes, pattern, dram) = if p.block_sampling && have_blocks {
                let (total, critical) = analytic::block_fps(&sizes, rate, p.window_check);
                let cost = self.rspu.block_parallel_from_aggregate(&total, &critical);
                let dram = self.dma.read(coord_working, self.seq_pattern());
                (cost, total.distance_evals * COORD_BYTES, SramPattern::BankAligned, dram)
            } else {
                let counters = OpCounters::fps_model(sa.n_in, sa.n_out, p.window_check);
                let cost = self.rspu.global_op(&counters);
                // When the working set exceeds the buffer, every FPS
                // iteration re-streams the non-resident fraction — the
                // O(n²) DRAM traffic of §II-B (partial-fit: a larger buffer
                // keeps more of the cloud resident, which is exactly why
                // Crescent's 1.6 MB buffer degrades later than PointAcc's
                // 274 KB).
                let spill = coord_working.saturating_sub(avail);
                let bytes = coord_working + (sa.n_out.saturating_sub(1) as u64) * spill;
                let dram = self.dma.read(bytes, self.seq_pattern());
                // FPS scans candidates in address order: sequential SRAM.
                (cost, counters.distance_evals * COORD_BYTES, SramPattern::Sequential, dram)
            };
            dram_total += dram.bytes;
            timeline.push(self.point_phase(
                format!("sa{s}-fps"),
                cost.cycles,
                cost.energy_pj,
                sram_bytes,
                pattern,
                dram,
                PhaseClass::PointOp,
            ));

            // -- Grouping --
            let (cost, sram_bytes, pattern, dram) = if p.block_grouping && have_blocks {
                let factor = if p.parent_expansion { 2.0 } else { 1.0 };
                let (total, critical) = analytic::block_neighbor(&sizes, rate, factor, sa.nsample);
                let cost = self.rspu.block_parallel_from_aggregate(&total, &critical);
                let sram_bytes = if p.intra_block_reuse {
                    // Candidates loaded once per block, shared by centers.
                    (factor * sa.n_in as f64) as u64 * COORD_BYTES
                } else {
                    total.distance_evals * COORD_BYTES
                };
                let dram = self.dma.read(coord_working, self.seq_pattern());
                (cost, sram_bytes, SramPattern::BankAligned, dram)
            } else {
                let counters = OpCounters::neighbor_model(sa.n_in, sa.n_out, sa.nsample);
                let cost = self.rspu.global_op(&counters);
                let spill = coord_working.saturating_sub(avail);
                let tiles = (sa.n_out as u64).div_ceil(4096).saturating_sub(1);
                let bytes = coord_working + tiles * spill;
                let dram = self.dma.read(bytes, self.seq_pattern());
                // With RSPU-style reuse, a batch of centers (one per core)
                // shares each candidate fetch.
                let share = if p.intra_block_reuse { p.rspu.cores.max(1) as u64 } else { 1 };
                (cost, counters.distance_evals * COORD_BYTES / share, SramPattern::Sequential, dram)
            };
            dram_total += dram.bytes;
            timeline.push(self.point_phase(
                format!("sa{s}-group"),
                cost.cycles,
                cost.energy_pj,
                sram_bytes,
                pattern,
                dram,
                PhaseClass::PointOp,
            ));

            // -- MLP + gather (+ pool), order set by delayed aggregation --
            let gather_channels = if p.delayed_aggregation { sa.cout() } else { sa.cin };
            if p.delayed_aggregation {
                for (l, shape) in sa.grouped_mlp(sa.n_in).enumerate() {
                    timeline.push(self.mlp_phase(format!("sa{s}-mlp{l}"), shape));
                }
            }
            // Gather.
            let accesses = (sa.n_out * sa.nsample) as u64;
            let row_bytes = gather_channels as u64 * SCALAR_BYTES;
            let feature_table = sa.n_in as u64 * row_bytes;
            let gather_bytes = accesses * row_bytes;
            let (g_pattern, g_dram) = if p.block_gathering && have_blocks {
                // Block-wise gathering: blocks in their own banks, one
                // streamed feature pass off-chip.
                (SramPattern::BankAligned, self.dma.read(feature_table, self.seq_pattern()))
            } else if feature_table > avail {
                // Conventional gathering: random 64 B bursts per access.
                (SramPattern::Random, self.dma.read(accesses * 64, AccessPattern::Random))
            } else {
                (SramPattern::Random, self.dma.read(feature_table, self.seq_pattern()))
            };
            dram_total += g_dram.bytes;
            let g_cycles = accesses.div_ceil(self.params.rspu.cores.max(1) as u64 * 4);
            timeline.push(self.point_phase(
                format!("sa{s}-gather"),
                g_cycles,
                accesses as f64 * self.table.alu_fp16_pj,
                gather_bytes,
                g_pattern,
                g_dram,
                PhaseClass::PointOp,
            ));
            if !p.delayed_aggregation {
                for (l, shape) in sa.grouped_mlp(sa.n_out * sa.nsample).enumerate() {
                    timeline.push(self.mlp_phase(format!("sa{s}-mlp{l}"), shape));
                }
            }
            // Pool.
            let pool = self.systolic.max_pool(sa.n_out as u64, sa.nsample as u64, sa.cout() as u64);
            let mut energy = EnergyBreakdown::new();
            energy.add(EnergyCategory::Compute, pool.energy_pj);
            timeline.push(Phase {
                name: format!("sa{s}-pool"),
                class: PhaseClass::Mlp,
                compute_cycles: pool.cycles,
                dram_cycles: 0,
                overlapped: true,
                energy,
            });
            // Residual blocks.
            for (l, &shape) in sa.blocks.iter().enumerate() {
                timeline.push(self.mlp_phase(format!("sa{s}-block{l}"), shape));
            }
        }

        // ---- Propagation stages ----
        let n_stages = segs.abstraction.len();
        for (f, fp) in segs.propagation.iter().enumerate() {
            // The FP stage operating at target level `t` reuses the block
            // structure of abstraction stage `t`.
            let level = n_stages - 1 - f;
            let sizes = analytic::stage_block_sizes(self.base_blocks(w), 0.25, level as u32);
            let have_blocks = !sizes.is_empty();
            let coord_working = (fp.targets + fp.sources) as u64 * COORD_BYTES;

            let (cost, sram_bytes, pattern, dram) = if p.block_interpolation && have_blocks {
                let src_frac = fp.sources as f64 / fp.targets as f64;
                let factor = if p.parent_expansion { 2.0 * src_frac } else { src_frac };
                let (total, critical) =
                    analytic::block_neighbor(&sizes, 1.0, factor.max(1e-6), fp.k);
                let cost = self.rspu.block_parallel_from_aggregate(&total, &critical);
                let sram_bytes = if p.intra_block_reuse {
                    (factor * fp.targets as f64) as u64 * COORD_BYTES
                } else {
                    total.distance_evals * COORD_BYTES
                };
                let dram = self.dma.read(coord_working, self.seq_pattern());
                (cost, sram_bytes, SramPattern::BankAligned, dram)
            } else {
                let counters = OpCounters::neighbor_model(fp.sources, fp.targets, fp.k);
                let cost = self.rspu.global_op(&counters);
                let src_bytes = fp.sources as u64 * COORD_BYTES;
                let spill = src_bytes.saturating_sub(avail);
                let tiles = (fp.targets as u64).div_ceil(4096).saturating_sub(1);
                let bytes = coord_working + tiles * spill;
                let dram = self.dma.read(bytes, self.seq_pattern());
                let share = if p.intra_block_reuse { p.rspu.cores.max(1) as u64 } else { 1 };
                (cost, counters.distance_evals * COORD_BYTES / share, SramPattern::Sequential, dram)
            };
            dram_total += dram.bytes;
            timeline.push(self.point_phase(
                format!("fp{f}-interp"),
                cost.cycles,
                cost.energy_pj,
                sram_bytes,
                pattern,
                dram,
                PhaseClass::PointOp,
            ));

            // Interpolation gather: targets × k feature rows.
            let accesses = (fp.targets * fp.k) as u64;
            let row_bytes = fp.channels as u64 * SCALAR_BYTES;
            let table_bytes = fp.sources as u64 * row_bytes;
            let (g_pattern, g_dram) = if p.block_gathering && have_blocks {
                (SramPattern::BankAligned, self.dma.read(table_bytes, self.seq_pattern()))
            } else if table_bytes > avail {
                (SramPattern::Random, self.dma.read(accesses * 64, AccessPattern::Random))
            } else {
                (SramPattern::Random, self.dma.read(table_bytes, self.seq_pattern()))
            };
            dram_total += g_dram.bytes;
            timeline.push(self.point_phase(
                format!("fp{f}-gather"),
                accesses.div_ceil(self.params.rspu.cores.max(1) as u64 * 4),
                accesses as f64 * 3.0 * self.table.mac_fp16_pj, // idw weights
                accesses * row_bytes,
                g_pattern,
                g_dram,
                PhaseClass::PointOp,
            ));

            for (l, &shape) in fp.mlp.iter().enumerate() {
                timeline.push(self.mlp_phase(format!("fp{f}-mlp{l}"), shape));
            }
        }

        // ---- Head ----
        for (i, &shape) in segs.head.iter().enumerate() {
            timeline.push(self.mlp_phase(format!("head{i}"), shape));
        }

        // ---- Static energy over the whole run ----
        let total_cycles = timeline.total_cycles();
        let static_pj = self.table.static_mw_per_mm2 * p.area_mm2 * total_cycles as f64; // mW × ns = pJ (1 GHz)
        let mut energy = EnergyBreakdown::new();
        energy.add(EnergyCategory::Static, static_pj);
        timeline.push(Phase {
            name: "static".into(),
            class: PhaseClass::Other,
            compute_cycles: 0,
            dram_cycles: 0,
            overlapped: true,
            energy,
        });

        ExecutionReport {
            accelerator: p.name.clone(),
            timeline,
            freq_ghz: self.dma.core_ghz(),
            dram_bytes: dram_total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fractalcloud_pnn::ModelConfig;

    fn workload(n: usize) -> Workload {
        Workload::prepare(&ModelConfig::pointnext_segmentation(), n, 1)
    }

    #[test]
    fn all_designs_execute() {
        let w = workload(4096);
        for params in [
            DesignParams::fractalcloud(),
            DesignParams::pointacc(),
            DesignParams::crescent(),
            DesignParams::mesorasi(),
            DesignParams::pnnpu(),
        ] {
            let model = DesignModel::new(params);
            let r = model.execute(&w);
            assert!(r.latency_ms() > 0.0, "{}", r.accelerator);
            assert!(r.energy_mj() > 0.0, "{}", r.accelerator);
        }
    }

    #[test]
    fn fractalcloud_beats_pointacc_at_scale() {
        let w = workload(33_000);
        let fc = DesignModel::new(DesignParams::fractalcloud()).execute(&w);
        let pa = DesignModel::new(DesignParams::pointacc()).execute(&w);
        let speedup = fc.speedup_over(&pa);
        assert!(speedup > 4.0, "FC vs PointAcc at 33K: {speedup}×");
        assert!(fc.energy_saving_over(&pa) > 4.0);
    }

    #[test]
    fn fractalcloud_beats_crescent_at_scale() {
        let small = workload(8192);
        let big = workload(66_000);
        let gap_small = DesignModel::new(DesignParams::fractalcloud())
            .execute(&small)
            .speedup_over(&DesignModel::new(DesignParams::crescent()).execute(&small));
        let gap_big = DesignModel::new(DesignParams::fractalcloud())
            .execute(&big)
            .speedup_over(&DesignModel::new(DesignParams::crescent()).execute(&big));
        assert!(gap_small > 1.2, "FC vs Crescent at 8K: {gap_small}");
        assert!(gap_big > 2.0, "FC vs Crescent at 66K: {gap_big}");
        assert!(gap_big > gap_small, "gap must widen with scale");
    }

    #[test]
    fn crescent_close_to_fractalcloud_at_small_scale() {
        // §III-B: at 1K points Crescent is only ~20% slower.
        let w = Workload::prepare(&ModelConfig::pointnetpp_classification(), 1024, 2);
        let fc = DesignModel::new(DesignParams::fractalcloud()).execute(&w);
        let cr = DesignModel::new(DesignParams::crescent()).execute(&w);
        let gap = fc.speedup_over(&cr);
        assert!((1.0..4.0).contains(&gap), "small-scale Crescent gap should be modest, got {gap}×");
    }

    #[test]
    fn partition_dram_bytes_are_the_streamed_cloud_when_it_fits() {
        let w = Workload::prepare(&ModelConfig::pointnetpp_classification(), 1024, 2);
        for params in
            [DesignParams::fractalcloud(), DesignParams::crescent(), DesignParams::pnnpu()]
        {
            let name = params.name.clone();
            let (_, bytes) = DesignModel::new(params).partition_phase(&w).unwrap();
            assert_eq!(bytes, 1024 * COORD_BYTES, "{name}");
        }
        assert!(DesignModel::new(DesignParams::pointacc()).partition_phase(&w).is_none());
    }

    #[test]
    fn pointacc_point_ops_dominate_at_large_scale() {
        let w = workload(66_000);
        let pa = DesignModel::new(DesignParams::pointacc()).execute(&w);
        let share = pa.point_op_ms() / pa.latency_ms();
        assert!(share > 0.6, "point-op share {share}");
        // And the share grows with scale (Fig. 4's trend).
        let small = workload(4096);
        let pa_s = DesignModel::new(DesignParams::pointacc()).execute(&small);
        assert!(share > pa_s.point_op_ms() / pa_s.latency_ms());
    }

    #[test]
    fn fractalcloud_partition_overhead_is_tiny() {
        // §III-B: < 0.8% of latency.
        let w = workload(33_000);
        let fc = DesignModel::new(DesignParams::fractalcloud()).execute(&w);
        let frac = fc.class_ms(PhaseClass::Partition) / fc.latency_ms();
        assert!(frac < 0.02, "fractal partition share {frac}");
    }

    #[test]
    fn kd_partitioning_dwarfs_fractal_partitioning() {
        // Fig. 16: Fractal partitions orders of magnitude faster than the
        // KD-tree (133× in the paper).
        let w = workload(33_000);
        let cr = DesignModel::new(DesignParams::crescent()).execute(&w);
        let fc = DesignModel::new(DesignParams::fractalcloud()).execute(&w);
        let kd_ms = cr.class_ms(PhaseClass::Partition);
        let fr_ms = fc.class_ms(PhaseClass::Partition);
        assert!(kd_ms > 20.0 * fr_ms, "kd {kd_ms} ms should be ≫ fractal {fr_ms} ms");
    }

    #[test]
    fn crescent_trades_dram_for_sram_energy() {
        // Fig. 15(b): Crescent's 1.6 MB buffer cuts DRAM energy relative to
        // PointAcc but SRAM becomes a much larger share of its budget.
        let w = workload(33_000);
        let cr = DesignModel::new(DesignParams::crescent()).execute(&w);
        let pa = DesignModel::new(DesignParams::pointacc()).execute(&w);
        let cr_e = cr.energy();
        let pa_e = pa.energy();
        assert!(cr_e.dram_pj < pa_e.dram_pj, "Crescent must spill less");
        let cr_share = cr_e.sram_pj / cr_e.total_pj();
        let pa_share = pa_e.sram_pj / pa_e.total_pj();
        assert!(cr_share > pa_share, "SRAM share: Crescent {cr_share} vs PointAcc {pa_share}");
    }

    #[test]
    fn pointacc_dram_energy_dominates_its_breakdown() {
        let w = workload(66_000);
        let pa = DesignModel::new(DesignParams::pointacc()).execute(&w);
        let e = pa.energy();
        assert!(
            e.dram_pj > e.compute_pj,
            "global search must be DRAM-bound: dram {} vs compute {}",
            e.dram_pj,
            e.compute_pj
        );
    }

    #[test]
    fn ablation_ladder_is_monotone() {
        // Fig. 18's regression guard: enabling each BPPO feature must never
        // slow the design down, and the full ladder must deliver a large
        // cumulative gain.
        let w = workload(16_384);
        let ladder = DesignParams::ablation_ladder();
        let mut prev = DesignModel::new(ladder[0].clone()).execute(&w).latency_ms();
        let base = prev;
        for (i, p) in ladder.into_iter().skip(1).enumerate() {
            let lat = DesignModel::new(p).execute(&w).latency_ms();
            assert!(lat <= prev * 1.02, "ablation step {i} regressed: {prev} -> {lat} ms");
            prev = lat;
        }
        // At 16K the gain is modest (~3×); it reaches ~90× at 289K
        // (fig18_bppo_ablation). Monotonicity above is the real guard.
        assert!(base / prev > 2.5, "full ladder gain {} too small", base / prev);
    }

    #[test]
    fn scaling_gap_grows_with_input() {
        let small = workload(4096);
        let big = workload(65_536);
        let fc_s = DesignModel::new(DesignParams::fractalcloud()).execute(&small);
        let pa_s = DesignModel::new(DesignParams::pointacc()).execute(&small);
        let fc_b = DesignModel::new(DesignParams::fractalcloud()).execute(&big);
        let pa_b = DesignModel::new(DesignParams::pointacc()).execute(&big);
        let gap_small = fc_s.speedup_over(&pa_s);
        let gap_big = fc_b.speedup_over(&pa_b);
        assert!(
            gap_big > 2.0 * gap_small,
            "the FC advantage must grow with scale: {gap_small}× → {gap_big}×"
        );
    }
}
