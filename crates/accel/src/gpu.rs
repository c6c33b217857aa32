//! GPU reference model (TITAN RTX class) — the normalization baseline of
//! Fig. 13 and the platform of Fig. 4.
//!
//! The paper measures CUDA-optimized PNNs (Openpoints) on a TITAN RTX. We
//! substitute a roofline model with the device's public specifications plus
//! the two structural properties that dominate PNN behaviour on GPUs:
//!
//! 1. **FPS is latency-bound**: each of the `m` iterations is a dependent
//!    kernel (distance update + argmax reduction) paying launch/sync
//!    overhead, so small inputs are overhead-dominated and large inputs
//!    stream `O(n)` bytes per iteration.
//! 2. **Neighbor search / gather are parallel but uncoalesced**: brute-force
//!    `O(n²)` work at a fraction of peak FLOPs, gathers at a fraction of
//!    peak bandwidth.

use crate::device::{Accelerator, ExecutionReport};
use crate::energy::{EnergyBreakdown, EnergyCategory};
use crate::kernel::{Phase, PhaseClass, Timeline};
use crate::workload::Workload;
use fractalcloud_pnn::MlpShape;

/// TITAN RTX-class GPU parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Peak FP32 throughput in GFLOP/s.
    pub peak_gflops: f64,
    /// Peak memory bandwidth in GB/s.
    pub mem_gbps: f64,
    /// Per-kernel launch + sync overhead in microseconds.
    pub kernel_overhead_us: f64,
    /// Effective throughput of the single-kernel FPS loop in GFLOP/s (the
    /// standard CUDA implementation runs `m` dependent iterations inside
    /// one kernel with block-level parallelism only).
    pub fps_gflops: f64,
    /// Per-iteration synchronization cost inside the FPS kernel, µs.
    pub fps_iter_sync_us: f64,
    /// Idle (baseline) power in watts.
    pub idle_w: f64,
    /// Maximum additional active power in watts.
    pub active_w: f64,
    /// Achieved fraction of peak FLOPs for irregular point kernels.
    pub pointop_flop_eff: f64,
    /// Achieved fraction of peak bandwidth for coalesced streams.
    pub stream_eff: f64,
    /// Achieved fraction of peak bandwidth for random gathers.
    pub gather_eff: f64,
    /// Achieved fraction of peak FLOPs for dense MLP GEMMs.
    pub gemm_eff: f64,
}

impl GpuConfig {
    /// TITAN RTX (2018): 16.3 TFLOPS FP32, 672 GB/s GDDR6, 280 W TDP.
    pub fn titan_rtx() -> GpuConfig {
        GpuConfig {
            peak_gflops: 16_300.0,
            mem_gbps: 672.0,
            kernel_overhead_us: 60.0,
            fps_gflops: 40.0,
            fps_iter_sync_us: 0.3,
            idle_w: 10.0,
            active_w: 255.0,
            pointop_flop_eff: 0.08,
            stream_eff: 0.75,
            gather_eff: 0.12,
            gemm_eff: 0.45,
        }
    }
}

/// The GPU model.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuModel {
    config: GpuConfig,
}

impl GpuModel {
    /// A TITAN RTX model.
    pub fn titan_rtx() -> GpuModel {
        GpuModel { config: GpuConfig::titan_rtx() }
    }

    /// Creates a model from explicit parameters.
    pub fn new(config: GpuConfig) -> GpuModel {
        GpuModel { config }
    }

    /// Seconds for `flops` at `eff` fraction of peak.
    fn compute_s(&self, flops: f64, eff: f64) -> f64 {
        flops / (self.config.peak_gflops * 1e9 * eff)
    }

    /// Seconds for `bytes` at `eff` fraction of peak bandwidth.
    fn mem_s(&self, bytes: f64, eff: f64) -> f64 {
        bytes / (self.config.mem_gbps * 1e9 * eff)
    }

    /// Builds a phase from seconds + utilization (for power).
    fn phase(&self, name: String, class: PhaseClass, seconds: f64, utilization: f64) -> Phase {
        // Report in "cycles" of a virtual 1 GHz clock so Timeline math works.
        let cycles = (seconds * 1e9).ceil() as u64;
        let power_w = self.config.idle_w + self.config.active_w * utilization.clamp(0.0, 1.0);
        let energy_pj = power_w * seconds * 1e12;
        let mut energy = EnergyBreakdown::new();
        energy.add(EnergyCategory::Dram, energy_pj * 0.35);
        energy.add(EnergyCategory::Compute, energy_pj * 0.65);
        Phase { name, class, compute_cycles: cycles, dram_cycles: 0, overlapped: true, energy }
    }

    /// FPS kernel time: one kernel, `m − 1` internal dependent iterations.
    ///
    /// The pointnet2 CUDA kernel runs the whole FPS loop in one launch with
    /// a single thread block (the selection is a global argmax, so
    /// parallelism is limited): per iteration it updates `n` running
    /// distances and reduces, at `fps_gflops` effective throughput plus a
    /// block-sync cost.
    fn fps_s(&self, n: usize, m: usize) -> (f64, f64) {
        let c = &self.config;
        let iters = m.saturating_sub(1) as f64;
        let per_iter = (n as f64 * 8.0 / (c.fps_gflops * 1e9)).max(c.fps_iter_sync_us * 1e-6);
        let t = iters * per_iter + c.kernel_overhead_us * 1e-6;
        // One thread block busy out of ~72 SMs: very low device utilization.
        (t, 0.08)
    }

    /// Brute-force neighbor search time.
    fn neighbor_s(&self, centers: usize, candidates: usize) -> (f64, f64) {
        let flops = centers as f64 * candidates as f64 * 10.0;
        (
            self.compute_s(flops, self.config.pointop_flop_eff)
                + self.config.kernel_overhead_us * 1e-6,
            0.5,
        )
    }

    /// Gather time: random feature fetches.
    fn gather_s(&self, accesses: u64, row_bytes: u64) -> (f64, f64) {
        // Each access moves at least one 32 B sector.
        let bytes = accesses as f64 * (row_bytes.max(32)) as f64;
        (self.mem_s(bytes, self.config.gather_eff) + self.config.kernel_overhead_us * 1e-6, 0.4)
    }

    /// Dense MLP layer time: conv + norm + activation kernels in eager
    /// mode (Fig. 4's measurement platform is eager PyTorch), with GEMM
    /// efficiency that saturates with problem size — small layers cannot
    /// fill the device.
    fn mlp_s(&self, shape: MlpShape) -> (f64, f64) {
        let flops = 2.0 * shape.rows as f64 * shape.cin as f64 * shape.cout as f64;
        // Half-saturation at 100 MFLOP: a 1K-point layer runs at a few
        // percent of peak, a 289K-point layer near gemm_eff.
        let eff = self.config.gemm_eff * flops / (flops + 100e6);
        let bytes = (shape.rows * (shape.cin + shape.cout) * 4) as f64;
        let t =
            self.compute_s(flops, eff.max(0.005)).max(self.mem_s(bytes, self.config.stream_eff))
                + 3.0 * self.config.kernel_overhead_us * 1e-6;
        (t, (eff / self.config.gemm_eff).clamp(0.05, 0.9))
    }
}

impl Accelerator for GpuModel {
    fn name(&self) -> String {
        "GPU (TITAN RTX)".into()
    }

    fn execute(&self, w: &Workload) -> ExecutionReport {
        let segs = &w.plan;
        let mut timeline = Timeline::new();

        for (i, &shape) in segs.stem.iter().enumerate() {
            let (t, u) = self.mlp_s(shape);
            timeline.push(self.phase(format!("stem{i}"), PhaseClass::Mlp, t, u));
        }
        for (s, sa) in segs.abstraction.iter().enumerate() {
            let (t, u) = self.fps_s(sa.n_in, sa.n_out);
            timeline.push(self.phase(format!("sa{s}-fps"), PhaseClass::PointOp, t, u));
            let (t, u) = self.neighbor_s(sa.n_out, sa.n_in);
            timeline.push(self.phase(format!("sa{s}-group"), PhaseClass::PointOp, t, u));
            let (t, u) = self.gather_s((sa.n_out * sa.nsample) as u64, (sa.cin * 4) as u64);
            timeline.push(self.phase(format!("sa{s}-gather"), PhaseClass::PointOp, t, u));
            for (l, shape) in sa.grouped_mlp(sa.n_out * sa.nsample).enumerate() {
                let (t, u) = self.mlp_s(shape);
                timeline.push(self.phase(format!("sa{s}-mlp{l}"), PhaseClass::Mlp, t, u));
            }
            for (l, &shape) in sa.blocks.iter().enumerate() {
                let (t, u) = self.mlp_s(shape);
                timeline.push(self.phase(format!("sa{s}-block{l}"), PhaseClass::Mlp, t, u));
            }
        }
        for (f, fp) in segs.propagation.iter().enumerate() {
            let (t, u) = self.neighbor_s(fp.targets, fp.sources);
            timeline.push(self.phase(format!("fp{f}-knn"), PhaseClass::PointOp, t, u));
            let (t, u) = self.gather_s((fp.targets * fp.k) as u64, (fp.channels * 4) as u64);
            timeline.push(self.phase(format!("fp{f}-gather"), PhaseClass::PointOp, t, u));
            for (l, &shape) in fp.mlp.iter().enumerate() {
                let (t, u) = self.mlp_s(shape);
                timeline.push(self.phase(format!("fp{f}-mlp{l}"), PhaseClass::Mlp, t, u));
            }
        }
        for (i, &shape) in segs.head.iter().enumerate() {
            let (t, u) = self.mlp_s(shape);
            timeline.push(self.phase(format!("head{i}"), PhaseClass::Mlp, t, u));
        }

        ExecutionReport {
            accelerator: self.name(),
            timeline,
            freq_ghz: 1.0, // virtual 1 GHz: cycles are nanoseconds
            dram_bytes: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fractalcloud_pnn::ModelConfig;

    fn gpu_run(n: usize) -> ExecutionReport {
        let w = Workload::prepare(&ModelConfig::pointnext_segmentation(), n, 1);
        GpuModel::titan_rtx().execute(&w)
    }

    #[test]
    fn point_op_share_grows_like_fig4() {
        // Fig. 4 (PNXt on S3DIS-Test): point ops 78% at 16K, ≈99% at 289K.
        let small = gpu_run(16_384);
        let big = gpu_run(262_144);
        let share_small = small.point_op_ms() / small.latency_ms();
        let share_big = big.point_op_ms() / big.latency_ms();
        assert!((0.5..0.97).contains(&share_small), "16K point-op share {share_small}");
        assert!(share_big > 0.9, "289K point-op share {share_big}");
        assert!(share_big > share_small);
    }

    #[test]
    fn latency_grows_superlinearly() {
        let a = gpu_run(16_384).latency_ms();
        let b = gpu_run(65_536).latency_ms();
        // 4× points, ≥6× latency (approaching quadratic).
        assert!(b > 6.0 * a, "scaling {a} → {b}");
    }

    #[test]
    fn latency_magnitude_matches_fig4() {
        // Fig. 4 shows tens-to-hundreds of ms for PNXt(s) at 16K–66K.
        let ms = gpu_run(16_384).latency_ms();
        assert!((5.0..500.0).contains(&ms), "16K latency {ms} ms");
    }

    #[test]
    fn power_is_between_idle_and_tdp() {
        let r = gpu_run(32_768);
        let p = r.avg_power_w();
        assert!((10.0..280.0).contains(&p), "GPU power {p} W");
    }

    #[test]
    fn classification_is_fast_and_mlp_heavy_at_1k() {
        let w = Workload::prepare(&ModelConfig::pointnetpp_classification(), 1024, 1);
        let r = GpuModel::titan_rtx().execute(&w);
        let share = r.point_op_ms() / r.latency_ms();
        // Fig. 4: ~36% point ops at 1K.
        assert!((0.1..0.7).contains(&share), "1K point-op share {share}");
    }
}
