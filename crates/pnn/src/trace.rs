//! Operation traces: the shape-level IR accelerator models execute.

use crate::zoo::{ModelConfig, Task};
use fractalcloud_pointcloud::ops::OpCounters;
use serde::{Deserialize, Serialize};

/// How an MLP's rows relate to the point structure — accelerator models use
/// this to apply delayed aggregation (Mesorasi): a `Grouped` MLP of
/// `centers × nsample` rows can be computed on the *ungrouped* `candidates`
/// points instead, then aggregated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MlpKind {
    /// Rows are a grouped neighbor tensor (`centers × nsample`).
    Grouped {
        /// Number of group centers.
        centers: usize,
        /// Neighbors per center.
        nsample: usize,
        /// Points the groups were drawn from (delayed-aggregation row
        /// count).
        candidates: usize,
    },
    /// Rows are per-point features.
    Pointwise,
    /// Head / classifier layers (pointwise; tagged so accelerator models
    /// can segment the trace unambiguously).
    Head,
}

/// One operation of a PNN inference, with full shape information.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PnnOp {
    /// Farthest point sampling: select `n_out` of `n_in` points.
    Sample {
        /// Points before sampling.
        n_in: usize,
        /// Points kept.
        n_out: usize,
    },
    /// Ball-query grouping: for `centers` centers, find `nsample` neighbors
    /// among `candidates` points within `radius`.
    Group {
        /// Number of query centers.
        centers: usize,
        /// Candidate pool size.
        candidates: usize,
        /// Neighbors per center.
        nsample: usize,
        /// Query radius.
        radius: f32,
    },
    /// Gather: resolve `rows × nsample` indices against `channels`-wide
    /// feature storage of `candidates` points.
    Gather {
        /// Number of center rows.
        rows: usize,
        /// Indices per row.
        nsample: usize,
        /// Feature channels moved per index.
        channels: usize,
        /// Size of the feature table being gathered from.
        candidates: usize,
    },
    /// Pointwise MLP layer: `rows × cin → rows × cout`.
    Mlp {
        /// Row count.
        rows: usize,
        /// Input channels.
        cin: usize,
        /// Output channels.
        cout: usize,
        /// Row structure (for delayed aggregation).
        kind: MlpKind,
    },
    /// Max-pool reduction over neighbor groups.
    MaxPool {
        /// Number of groups.
        groups: usize,
        /// Elements per group.
        size: usize,
        /// Channels.
        channels: usize,
    },
    /// KNN interpolation: `targets` points pull features from `sources`.
    Interpolate {
        /// Points being reconstructed.
        targets: usize,
        /// Sampled points providing features.
        sources: usize,
        /// Neighbors (3 in all Table I nets).
        k: usize,
        /// Channels interpolated.
        channels: usize,
    },
}

impl PnnOp {
    /// True for the point operations (sampling / neighbor search / gather);
    /// false for tensor computation. This is the Fig. 4 split.
    pub fn is_point_op(&self) -> bool {
        !matches!(self, PnnOp::Mlp { .. } | PnnOp::MaxPool { .. })
    }

    /// Multiply-accumulate count for tensor ops (0 for point ops).
    pub fn macs(&self) -> u64 {
        match self {
            PnnOp::Mlp { rows, cin, cout, .. } => (*rows as u64) * (*cin as u64) * (*cout as u64),
            _ => 0,
        }
    }
}

/// A complete inference trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpTrace {
    /// The network's notation, e.g. "PNXt (s)".
    pub notation: String,
    /// The task.
    pub task: Task,
    /// Input point count.
    pub n: usize,
    /// Operations in execution order.
    pub ops: Vec<PnnOp>,
}

impl OpTrace {
    /// Builds the trace of `model` on an `n`-point input.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn build(model: &ModelConfig, n: usize) -> OpTrace {
        assert!(n > 0, "input cloud must be non-empty");
        let mut ops = Vec::new();
        let mut points = n;
        let mut channels = model.in_channels;

        // Stem (PointNeXt/PointVector): pointwise MLP on the raw input.
        if model.stem_width > 0 {
            ops.push(PnnOp::Mlp {
                rows: points,
                cin: channels,
                cout: model.stem_width,
                kind: MlpKind::Pointwise,
            });
            channels = model.stem_width;
        }

        // Abstraction stages. Track per-stage point counts for skip links.
        let mut skip: Vec<(usize, usize)> = vec![(points, channels)];
        for sa in &model.stages {
            let n_out = ((points as f64) * sa.sample_ratio).round().max(1.0) as usize;
            ops.push(PnnOp::Sample { n_in: points, n_out });
            ops.push(PnnOp::Group {
                centers: n_out,
                candidates: points,
                nsample: sa.nsample,
                radius: sa.radius,
            });
            ops.push(PnnOp::Gather {
                rows: n_out,
                nsample: sa.nsample,
                channels: channels + 3, // features ++ relative coords
                candidates: points,
            });
            // Grouped MLP chain.
            let mut cin = channels + 3;
            let rows = n_out * sa.nsample;
            for &cout in &sa.mlp {
                ops.push(PnnOp::Mlp {
                    rows,
                    cin,
                    cout,
                    kind: MlpKind::Grouped {
                        centers: n_out,
                        nsample: sa.nsample,
                        candidates: points,
                    },
                });
                cin = cout;
            }
            ops.push(PnnOp::MaxPool { groups: n_out, size: sa.nsample, channels: cin });
            // Residual pointwise blocks (PointNeXt InvResMLP: expand ×4).
            for _ in 0..sa.blocks {
                ops.push(PnnOp::Mlp { rows: n_out, cin, cout: cin * 4, kind: MlpKind::Pointwise });
                ops.push(PnnOp::Mlp {
                    rows: n_out,
                    cin: cin * 4,
                    cout: cin,
                    kind: MlpKind::Pointwise,
                });
            }
            points = n_out;
            channels = cin;
            skip.push((points, channels));
        }

        // Propagation stages (segmentation): innermost-first.
        if model.task.has_propagation() {
            for (fp_idx, fp) in model.propagation.iter().enumerate() {
                // The skip source for FP stage i is abstraction level
                // len-2-i (mirror order).
                let (t_points, t_channels) = skip[skip.len() - 2 - fp_idx];
                ops.push(PnnOp::Interpolate {
                    targets: t_points,
                    sources: points,
                    k: fp.k,
                    channels,
                });
                let mut cin = channels + t_channels; // concat skip features
                for &cout in &fp.mlp {
                    ops.push(PnnOp::Mlp { rows: t_points, cin, cout, kind: MlpKind::Pointwise });
                    cin = cout;
                }
                points = t_points;
                channels = cin;
            }
        }

        // Head.
        let head_rows = if model.task.has_propagation() { points } else { 1 };
        let mut cin = channels;
        for &cout in &model.head {
            ops.push(PnnOp::Mlp { rows: head_rows, cin, cout, kind: MlpKind::Head });
            cin = cout;
        }
        ops.push(PnnOp::Mlp { rows: head_rows, cin, cout: model.classes, kind: MlpKind::Head });

        OpTrace { notation: model.notation.clone(), task: model.task, n, ops }
    }

    /// Total MACs across tensor ops.
    pub fn total_macs(&self) -> u64 {
        self.ops.iter().map(PnnOp::macs).sum()
    }

    /// Number of point operations.
    pub fn point_ops(&self) -> usize {
        self.ops.iter().filter(|o| o.is_point_op()).count()
    }

    /// The analytic distance-evaluation count of all *global-search* point
    /// operations (what PointAcc/Mesorasi/GPU execute) — the `O(n²)` terms of
    /// §II-B, from the closed forms the executable operations report
    /// ([`OpCounters::fps_model`], [`OpCounters::neighbor_model`]): what
    /// [`NetworkExecutor::run`](crate::NetworkExecutor::run) counts, exactly.
    pub fn global_distance_evals(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| match *op {
                PnnOp::Sample { n_in, n_out } => OpCounters::fps_model(n_in, n_out, false),
                PnnOp::Group { centers, candidates, nsample, .. } => {
                    OpCounters::neighbor_model(candidates, centers, nsample)
                }
                PnnOp::Interpolate { targets, sources, k, .. } => {
                    OpCounters::neighbor_model(sources, targets, k)
                }
                _ => OpCounters::new(),
            })
            .map(|work| work.distance_evals)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::ModelConfig;

    #[test]
    fn classification_trace_structure() {
        let m = ModelConfig::pointnetpp_classification();
        let t = OpTrace::build(&m, 1024);
        // 3 SA stages: sample+group+gather+3 mlp+pool = 7 ops each, plus
        // head 3 layers.
        assert_eq!(t.ops.len(), 3 * 7 + 3);
        assert!(matches!(t.ops[0], PnnOp::Sample { n_in: 1024, n_out: 256 }));
        // No interpolation in classification.
        assert!(!t.ops.iter().any(|o| matches!(o, PnnOp::Interpolate { .. })));
    }

    #[test]
    fn sampling_cascade_divides_by_four() {
        let m = ModelConfig::pointnext_segmentation();
        let t = OpTrace::build(&m, 4096);
        let samples: Vec<(usize, usize)> = t
            .ops
            .iter()
            .filter_map(|o| match o {
                PnnOp::Sample { n_in, n_out } => Some((*n_in, *n_out)),
                _ => None,
            })
            .collect();
        assert_eq!(samples, vec![(4096, 1024), (1024, 256), (256, 64), (64, 16)]);
    }

    #[test]
    fn propagation_mirrors_abstraction() {
        let m = ModelConfig::pointnetpp_segmentation();
        let t = OpTrace::build(&m, 4096);
        let interps: Vec<(usize, usize)> = t
            .ops
            .iter()
            .filter_map(|o| match o {
                PnnOp::Interpolate { targets, sources, .. } => Some((*targets, *sources)),
                _ => None,
            })
            .collect();
        assert_eq!(interps, vec![(64, 16), (256, 64), (1024, 256), (4096, 1024)]);
    }

    #[test]
    fn mlp_channel_chains_are_consistent() {
        for m in ModelConfig::table1() {
            let t = OpTrace::build(&m, 2048);
            // Every Grouped MLP chain starts right after its Gather with
            // cin = gather channels.
            let mut last_gather_channels = None;
            for op in &t.ops {
                match op {
                    PnnOp::Gather { channels, .. } => last_gather_channels = Some(*channels),
                    PnnOp::Mlp { cin, kind: MlpKind::Grouped { .. }, .. } => {
                        if let Some(gc) = last_gather_channels.take() {
                            assert_eq!(*cin, gc, "{}", m.notation);
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn global_point_op_work_is_quadratic() {
        let m = ModelConfig::pointnext_segmentation();
        let small = OpTrace::build(&m, 1024).global_distance_evals();
        let big = OpTrace::build(&m, 4096).global_distance_evals();
        let ratio = big as f64 / small as f64;
        assert!(
            (10.0..=20.0).contains(&ratio),
            "4× points should cost ≈16× global search, got {ratio}"
        );
    }

    /// Two derivations, one number: the trace's analytic global-search
    /// count is what the executor counts while running the same model.
    #[test]
    fn global_distance_evals_equal_the_executors_count() {
        use crate::{Aggregation, InferenceConfig, NetworkExecutor};
        use fractalcloud_pointcloud::generate::uniform_cube;
        for model in ModelConfig::table1() {
            let executor = NetworkExecutor::new(InferenceConfig {
                aggregation: Aggregation::Delayed,
                ..InferenceConfig::new(model.clone(), 3)
            });
            for n in [1024, 1500] {
                let run = executor.run(&uniform_cube(n, 5), &mut Default::default()).unwrap();
                assert_eq!(
                    OpTrace::build(&model, n).global_distance_evals(),
                    run.counters.distance_evals,
                    "{} at {n} points",
                    model.notation
                );
            }
        }
    }

    #[test]
    fn point_op_share_grows_with_scale() {
        // Fig. 4's core claim, in op-count form: point-op work grows
        // quadratically while MACs grow linearly.
        let m = ModelConfig::pointnext_segmentation();
        let t1 = OpTrace::build(&m, 1024);
        let t2 = OpTrace::build(&m, 16384);
        let r1 = t1.global_distance_evals() as f64 / t1.total_macs() as f64;
        let r2 = t2.global_distance_evals() as f64 / t2.total_macs() as f64;
        assert!(r2 > 8.0 * r1, "point-op share must grow: {r1} → {r2}");
    }

    #[test]
    fn classification_head_is_single_row() {
        let m = ModelConfig::pointnext_classification();
        let t = OpTrace::build(&m, 1024);
        let last = t.ops.last().unwrap();
        assert!(matches!(last, PnnOp::Mlp { rows: 1, cout: 40, .. }));
    }

    #[test]
    fn segmentation_head_is_per_point() {
        let m = ModelConfig::pointnext_segmentation();
        let t = OpTrace::build(&m, 4096);
        let last = t.ops.last().unwrap();
        assert!(matches!(last, PnnOp::Mlp { rows: 4096, cout: 13, .. }));
    }

    #[test]
    fn pointvector_has_more_macs_than_pointnext() {
        let pv = OpTrace::build(&ModelConfig::pointvector_segmentation(), 4096);
        let pn = OpTrace::build(&ModelConfig::pointnext_segmentation(), 4096);
        assert!(pv.total_macs() > 3 * pn.total_macs());
    }

    #[test]
    fn trace_is_deterministic() {
        let m = ModelConfig::pointnetpp_segmentation();
        assert_eq!(OpTrace::build(&m, 3000), OpTrace::build(&m, 3000));
    }
}
