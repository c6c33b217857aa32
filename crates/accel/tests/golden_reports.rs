//! Golden-bits test: the cost reports of every Table I network at 4 096
//! points, on the five Table II designs and the GPU baseline, are pinned to
//! digests recorded before the accelerator models read the network's shape
//! plan directly. The model tests elsewhere only check orderings (faster,
//! cheaper, growing); only a recorded digest shows that a refactor of the
//! shape chain, a unit model or a phase's arithmetic left every number where
//! it was.

use fractalcloud_accel::{
    Accelerator, DesignModel, DesignParams, ExecutionReport, GpuModel, Workload,
};
use fractalcloud_pnn::ModelConfig;

/// FNV-1a (64-bit) over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

/// Folds one report into the digest: every phase's name, cycles and energy
/// bits, then the report's DRAM traffic.
fn fold(h: &mut Fnv, report: &ExecutionReport) {
    for phase in report.timeline.phases() {
        h.bytes(phase.name.as_bytes());
        h.u64(phase.compute_cycles);
        h.u64(phase.dram_cycles);
        h.u64(u64::from(phase.overlapped));
        let e = &phase.energy;
        for pj in [e.compute_pj, e.sram_pj, e.dram_pj, e.noc_pj, e.static_pj] {
            h.f64(pj);
        }
    }
    h.u64(report.dram_bytes);
}

/// The digest of `model`'s reports on the five designs and the GPU.
fn digest(model: &ModelConfig) -> u64 {
    let w = Workload::prepare(model, 4096, 1);
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for params in [
        DesignParams::fractalcloud(),
        DesignParams::pointacc(),
        DesignParams::crescent(),
        DesignParams::mesorasi(),
        DesignParams::pnnpu(),
    ] {
        fold(&mut h, &DesignModel::new(params).execute(&w));
    }
    fold(&mut h, &GpuModel::titan_rtx().execute(&w));
    h.0
}

#[test]
fn every_table1_report_matches_the_recorded_bits() {
    let golden: [(&str, u64); 7] = [
        ("PN++ (c)", 0x26d4_dc88_9704_e025),
        ("PNXt (c)", 0x8c91_4f96_4be1_0e10),
        ("PN++ (ps)", 0x9e79_3986_a48d_44bc),
        ("PNXt (ps)", 0x5931_d0f1_46d3_1cc8),
        ("PN++ (s)", 0x3a06_c6dd_b2fc_54f7),
        ("PNXt (s)", 0xe9d9_0636_65c4_a3fd),
        ("PVr (s)", 0xce1a_8961_9972_949b),
    ];
    let models = ModelConfig::table1();
    assert_eq!(models.len(), golden.len());
    for (model, (notation, want)) in models.iter().zip(golden) {
        assert_eq!(model.notation, notation);
        assert_eq!(digest(model), want, "{notation}: a report moved off the recorded bits");
    }
}
