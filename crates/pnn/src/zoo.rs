//! The PNN model zoo of Table I: PointNet++, PointNeXt, PointVector.
//!
//! Configurations follow the public reference implementations (Openpoints
//! for PointNeXt/PointVector, the original repo for PointNet++), expressed
//! with *sampling ratios* rather than absolute point counts so each network
//! scales from 1K to 289K inputs the way the paper's Fig. 4/13 sweeps do.

/// The task a network instance performs (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Task {
    /// Object classification (ModelNet40).
    Classification,
    /// Object part segmentation (ShapeNet).
    PartSegmentation,
    /// Scene semantic segmentation (S3DIS).
    Segmentation,
}

impl Task {
    /// The paper's notation suffix: (c), (ps), (s).
    pub fn suffix(&self) -> &'static str {
        match self {
            Task::Classification => "c",
            Task::PartSegmentation => "ps",
            Task::Segmentation => "s",
        }
    }

    /// True for tasks with propagation (feature-propagation) stages.
    pub fn has_propagation(&self) -> bool {
        !matches!(self, Task::Classification)
    }
}

/// One set-abstraction stage: sample → group → gather → MLP → pool.
#[derive(Debug, Clone, PartialEq)]
pub struct SetAbstraction {
    /// Fraction of incoming points kept by FPS (1/4 in all Table I nets).
    pub sample_ratio: f64,
    /// Ball-query radius, in normalized scene units.
    pub radius: f32,
    /// Neighbors gathered per center.
    pub nsample: usize,
    /// Pointwise-MLP channel widths applied to the grouped tensor.
    pub mlp: Vec<usize>,
    /// Residual MLP blocks appended after the reduction (PointNeXt
    /// InvResMLP / PointVector blocks; 0 for PointNet++).
    pub blocks: usize,
}

/// One feature-propagation stage: interpolate → concat skip → MLP.
#[derive(Debug, Clone, PartialEq)]
pub struct FeaturePropagation {
    /// Neighbors used by inverse-distance interpolation (always 3).
    pub k: usize,
    /// MLP widths applied after the skip concatenation.
    pub mlp: Vec<usize>,
}

/// A full network architecture.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelConfig {
    /// Family name ("PointNet++", "PointNeXt", "PointVector").
    pub family: &'static str,
    /// The paper's short notation, e.g. "PNXt (s)".
    pub notation: String,
    /// The task.
    pub task: Task,
    /// Input feature channels fed to the stem (xyz + color/height…).
    pub in_channels: usize,
    /// Stem MLP width (0 = no stem, PointNet++).
    pub stem_width: usize,
    /// Abstraction stages, outermost first.
    pub stages: Vec<SetAbstraction>,
    /// Propagation stages (empty for classification), innermost first.
    pub propagation: Vec<FeaturePropagation>,
    /// Classifier / per-point head widths.
    pub head: Vec<usize>,
    /// Output classes.
    pub classes: usize,
}

impl ModelConfig {
    /// PointNet++ (SSG) for classification — PN++ (c).
    pub fn pointnetpp_classification() -> ModelConfig {
        ModelConfig {
            family: "PointNet++",
            notation: "PN++ (c)".into(),
            task: Task::Classification,
            in_channels: 3,
            stem_width: 0,
            stages: vec![
                SetAbstraction {
                    sample_ratio: 0.25,
                    radius: 0.2,
                    nsample: 32,
                    mlp: vec![64, 64, 128],
                    blocks: 0,
                },
                SetAbstraction {
                    sample_ratio: 0.25,
                    radius: 0.4,
                    nsample: 64,
                    mlp: vec![128, 128, 256],
                    blocks: 0,
                },
                SetAbstraction {
                    sample_ratio: 0.25,
                    radius: 0.8,
                    nsample: 64,
                    mlp: vec![256, 512, 1024],
                    blocks: 0,
                },
            ],
            propagation: vec![],
            head: vec![512, 256],
            classes: 40,
        }
    }

    /// PointNet++ for part segmentation — PN++ (ps).
    pub fn pointnetpp_part_segmentation() -> ModelConfig {
        let mut m = ModelConfig::pointnetpp_segmentation();
        m.notation = "PN++ (ps)".into();
        m.task = Task::PartSegmentation;
        m.classes = 50;
        m
    }

    /// PointNet++ for semantic segmentation — PN++ (s).
    pub fn pointnetpp_segmentation() -> ModelConfig {
        ModelConfig {
            family: "PointNet++",
            notation: "PN++ (s)".into(),
            task: Task::Segmentation,
            in_channels: 6,
            stem_width: 0,
            stages: vec![
                SetAbstraction {
                    sample_ratio: 0.25,
                    radius: 0.1,
                    nsample: 32,
                    mlp: vec![32, 32, 64],
                    blocks: 0,
                },
                SetAbstraction {
                    sample_ratio: 0.25,
                    radius: 0.2,
                    nsample: 32,
                    mlp: vec![64, 64, 128],
                    blocks: 0,
                },
                SetAbstraction {
                    sample_ratio: 0.25,
                    radius: 0.4,
                    nsample: 32,
                    mlp: vec![128, 128, 256],
                    blocks: 0,
                },
                SetAbstraction {
                    sample_ratio: 0.25,
                    radius: 0.8,
                    nsample: 32,
                    mlp: vec![256, 256, 512],
                    blocks: 0,
                },
            ],
            propagation: vec![
                FeaturePropagation { k: 3, mlp: vec![256, 256] },
                FeaturePropagation { k: 3, mlp: vec![256, 256] },
                FeaturePropagation { k: 3, mlp: vec![256, 128] },
                FeaturePropagation { k: 3, mlp: vec![128, 128, 128] },
            ],
            head: vec![128],
            classes: 13,
        }
    }

    /// PointNeXt-S for classification — PNXt (c).
    pub fn pointnext_classification() -> ModelConfig {
        ModelConfig {
            family: "PointNeXt",
            notation: "PNXt (c)".into(),
            task: Task::Classification,
            in_channels: 3,
            stem_width: 32,
            stages: vec![
                SetAbstraction {
                    sample_ratio: 0.25,
                    radius: 0.15,
                    nsample: 32,
                    mlp: vec![64],
                    blocks: 1,
                },
                SetAbstraction {
                    sample_ratio: 0.25,
                    radius: 0.3,
                    nsample: 32,
                    mlp: vec![128],
                    blocks: 1,
                },
                SetAbstraction {
                    sample_ratio: 0.25,
                    radius: 0.6,
                    nsample: 32,
                    mlp: vec![256],
                    blocks: 1,
                },
                SetAbstraction {
                    sample_ratio: 0.25,
                    radius: 1.2,
                    nsample: 32,
                    mlp: vec![512],
                    blocks: 1,
                },
            ],
            propagation: vec![],
            head: vec![512, 256],
            classes: 40,
        }
    }

    /// PointNeXt-S for part segmentation — PNXt (ps).
    pub fn pointnext_part_segmentation() -> ModelConfig {
        let mut m = ModelConfig::pointnext_segmentation();
        m.notation = "PNXt (ps)".into();
        m.task = Task::PartSegmentation;
        m.classes = 50;
        m
    }

    /// PointNeXt-S for semantic segmentation — PNXt (s).
    pub fn pointnext_segmentation() -> ModelConfig {
        ModelConfig {
            family: "PointNeXt",
            notation: "PNXt (s)".into(),
            task: Task::Segmentation,
            in_channels: 7,
            stem_width: 32,
            stages: vec![
                SetAbstraction {
                    sample_ratio: 0.25,
                    radius: 0.1,
                    nsample: 32,
                    mlp: vec![64],
                    blocks: 1,
                },
                SetAbstraction {
                    sample_ratio: 0.25,
                    radius: 0.2,
                    nsample: 32,
                    mlp: vec![128],
                    blocks: 1,
                },
                SetAbstraction {
                    sample_ratio: 0.25,
                    radius: 0.4,
                    nsample: 32,
                    mlp: vec![256],
                    blocks: 1,
                },
                SetAbstraction {
                    sample_ratio: 0.25,
                    radius: 0.8,
                    nsample: 32,
                    mlp: vec![512],
                    blocks: 1,
                },
            ],
            propagation: vec![
                FeaturePropagation { k: 3, mlp: vec![256] },
                FeaturePropagation { k: 3, mlp: vec![128] },
                FeaturePropagation { k: 3, mlp: vec![64] },
                FeaturePropagation { k: 3, mlp: vec![32] },
            ],
            head: vec![32],
            classes: 13,
        }
    }

    /// PointVector-L for semantic segmentation — PVr (s).
    ///
    /// PointVector-L widens PointNeXt (base width 96 vs 32) and deepens the
    /// per-stage vector-representation blocks. We model its cost structure
    /// with equivalent widths/blocks calibrated so its tensor cost is ≈2×
    /// PointNeXt-S — the ratio the paper's Fig. 4 GPU latencies imply
    /// (documented substitution).
    pub fn pointvector_segmentation() -> ModelConfig {
        ModelConfig {
            family: "PointVector",
            notation: "PVr (s)".into(),
            task: Task::Segmentation,
            in_channels: 7,
            stem_width: 96,
            stages: vec![
                SetAbstraction {
                    sample_ratio: 0.25,
                    radius: 0.1,
                    nsample: 32,
                    mlp: vec![128],
                    blocks: 1,
                },
                SetAbstraction {
                    sample_ratio: 0.25,
                    radius: 0.2,
                    nsample: 32,
                    mlp: vec![256],
                    blocks: 2,
                },
                SetAbstraction {
                    sample_ratio: 0.25,
                    radius: 0.4,
                    nsample: 32,
                    mlp: vec![512],
                    blocks: 2,
                },
                SetAbstraction {
                    sample_ratio: 0.25,
                    radius: 0.8,
                    nsample: 32,
                    mlp: vec![512],
                    blocks: 1,
                },
            ],
            propagation: vec![
                FeaturePropagation { k: 3, mlp: vec![256] },
                FeaturePropagation { k: 3, mlp: vec![128] },
                FeaturePropagation { k: 3, mlp: vec![96] },
                FeaturePropagation { k: 3, mlp: vec![96] },
            ],
            head: vec![96],
            classes: 13,
        }
    }

    /// All seven Table I workloads, in the figure order of Fig. 13.
    pub fn table1() -> Vec<ModelConfig> {
        vec![
            ModelConfig::pointnetpp_classification(),
            ModelConfig::pointnext_classification(),
            ModelConfig::pointnetpp_part_segmentation(),
            ModelConfig::pointnext_part_segmentation(),
            ModelConfig::pointnetpp_segmentation(),
            ModelConfig::pointnext_segmentation(),
            ModelConfig::pointvector_segmentation(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_seven_workloads() {
        let t = ModelConfig::table1();
        assert_eq!(t.len(), 7);
        let notations: Vec<&str> = t.iter().map(|m| m.notation.as_str()).collect();
        assert_eq!(
            notations,
            vec![
                "PN++ (c)",
                "PNXt (c)",
                "PN++ (ps)",
                "PNXt (ps)",
                "PN++ (s)",
                "PNXt (s)",
                "PVr (s)"
            ]
        );
    }

    #[test]
    fn segmentation_models_have_symmetric_propagation() {
        for m in ModelConfig::table1() {
            if m.task.has_propagation() {
                assert_eq!(
                    m.stages.len(),
                    m.propagation.len(),
                    "{}: FP stages must mirror SA stages",
                    m.notation
                );
            } else {
                assert!(m.propagation.is_empty());
            }
        }
    }

    #[test]
    fn all_ratios_are_quarter() {
        for m in ModelConfig::table1() {
            for s in &m.stages {
                assert_eq!(s.sample_ratio, 0.25, "{}", m.notation);
            }
        }
    }

    #[test]
    fn radii_grow_with_depth() {
        for m in ModelConfig::table1() {
            for w in m.stages.windows(2) {
                assert!(w[1].radius > w[0].radius, "{}", m.notation);
            }
        }
    }

    #[test]
    fn pointvector_is_the_widest() {
        let pv = ModelConfig::pointvector_segmentation();
        let pn = ModelConfig::pointnext_segmentation();
        assert!(pv.stem_width > pn.stem_width);
        assert!(pv.stages[0].mlp[0] > pn.stages[0].mlp[0]);
    }

    #[test]
    fn task_suffixes() {
        assert_eq!(Task::Classification.suffix(), "c");
        assert_eq!(Task::PartSegmentation.suffix(), "ps");
        assert_eq!(Task::Segmentation.suffix(), "s");
    }
}
