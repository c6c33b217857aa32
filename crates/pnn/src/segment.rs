//! The network's shape plan: the stem → set-abstraction → feature-propagation
//! → head chain of a [`ModelConfig`] at a given input size, worked out once.
//! The executor materializes its layers by walking it, and accelerator
//! models cost it stage by stage (delayed aggregation, per-stage block
//! structure).

use crate::zoo::ModelConfig;
use fractalcloud_pointcloud::ops::OpCounters;
use fractalcloud_pointcloud::{Error, Result};

/// One MLP layer shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MlpShape {
    /// Rows.
    pub rows: usize,
    /// Input channels.
    pub cin: usize,
    /// Output channels.
    pub cout: usize,
}

/// A set-abstraction stage: sample → group → gather → MLP → pool → blocks.
#[derive(Debug, Clone, PartialEq)]
pub struct SaSegment {
    /// Points entering the stage.
    pub n_in: usize,
    /// Sampled centers.
    pub n_out: usize,
    /// Neighbors per center.
    pub nsample: usize,
    /// Ball-query radius.
    pub radius: f32,
    /// Channels entering (including the +3 relative coordinates).
    pub cin: usize,
    /// Grouped-MLP layer widths.
    pub mlp: Vec<usize>,
    /// Post-pool residual pointwise layers, in `(expand ×4, project back)`
    /// pairs.
    pub blocks: Vec<MlpShape>,
}

impl SaSegment {
    /// Output channel width of the stage: the last grouped-MLP width, or
    /// the entering width when the stage has no MLP.
    pub fn cout(&self) -> usize {
        self.mlp.last().copied().unwrap_or(self.cin)
    }

    /// The grouped-MLP chain run over `rows` rows: `centers × nsample` when
    /// gathered first, the `n_in` unique points under delayed aggregation.
    pub fn grouped_mlp(&self, rows: usize) -> impl Iterator<Item = MlpShape> + '_ {
        let cins = std::iter::once(self.cin).chain(self.mlp.iter().copied());
        cins.zip(&self.mlp).map(move |(cin, &cout)| MlpShape { rows, cin, cout })
    }
}

/// A feature-propagation stage: interpolate → concat skip → MLP.
#[derive(Debug, Clone, PartialEq)]
pub struct FpSegment {
    /// Points being reconstructed.
    pub targets: usize,
    /// Sampled points providing features.
    pub sources: usize,
    /// Interpolation neighbors.
    pub k: usize,
    /// Channels interpolated.
    pub channels: usize,
    /// Post-concat MLP layers.
    pub mlp: Vec<MlpShape>,
}

/// The shape plan of one network on an `n`-point input.
#[derive(Debug, Clone, PartialEq)]
pub struct Segments {
    /// Stem layer (pointwise, before the first sampling).
    pub stem: Option<MlpShape>,
    /// Abstraction stages, outermost first.
    pub abstraction: Vec<SaSegment>,
    /// Propagation stages, innermost first.
    pub propagation: Vec<FpSegment>,
    /// Head layers, the classifier last.
    pub head: Vec<MlpShape>,
}

impl Segments {
    /// The plan of `model` on an `n`-point input. Channel widths do not
    /// depend on `n`; row and point counts do.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyCloud`] when `n` is zero, and
    /// [`Error::InvalidParameter`] when the model has no set-abstraction
    /// stage, a stage groups zero neighbors, or a propagating task has more
    /// propagation stages than abstraction levels to skip-connect to.
    pub fn new(model: &ModelConfig, n: usize) -> Result<Segments> {
        if n == 0 {
            return Err(Error::EmptyCloud);
        }
        let invalid =
            |message: &str| Err(Error::InvalidParameter { name: "model", message: message.into() });
        if model.stages.is_empty() {
            return invalid("model has no set-abstraction stage");
        }
        if model.stages.iter().any(|sa| sa.nsample == 0) {
            return invalid("a set-abstraction stage groups zero neighbors");
        }
        let fp_stages = if model.task.has_propagation() { &model.propagation[..] } else { &[] };
        if fp_stages.len() > model.stages.len() {
            return invalid("more propagation stages than abstraction levels");
        }

        let mut points = n;
        let mut channels = model.in_channels;
        let stem = (model.stem_width > 0).then(|| {
            let shape = MlpShape { rows: n, cin: channels, cout: model.stem_width };
            channels = model.stem_width;
            shape
        });

        // Each abstraction level's point count and width, for the skip links.
        let mut skip = Vec::with_capacity(model.stages.len());
        let mut abstraction = Vec::with_capacity(model.stages.len());
        for sa in &model.stages {
            skip.push((points, channels));
            let n_out = ((points as f64) * sa.sample_ratio).round().max(1.0) as usize;
            let mut seg = SaSegment {
                n_in: points,
                n_out,
                nsample: sa.nsample,
                radius: sa.radius,
                cin: channels + 3, // features ++ relative coords
                mlp: sa.mlp.clone(),
                blocks: Vec::with_capacity(2 * sa.blocks),
            };
            // Residual pointwise blocks (PointNeXt InvResMLP: expand ×4).
            channels = seg.cout();
            for _ in 0..sa.blocks {
                seg.blocks.push(MlpShape { rows: n_out, cin: channels, cout: channels * 4 });
                seg.blocks.push(MlpShape { rows: n_out, cin: channels * 4, cout: channels });
            }
            abstraction.push(seg);
            points = n_out;
        }

        // Propagation, innermost first: each stage reconstructs the level
        // its mirror abstraction stage sampled.
        let mut propagation = Vec::with_capacity(fp_stages.len());
        for fp in fp_stages {
            let (targets, t_channels) = skip.pop().expect("validated above");
            let mut cin = channels + t_channels; // concat skip features
            let mlp = layers(targets, &mut cin, &fp.mlp);
            propagation.push(FpSegment { targets, sources: points, k: fp.k, channels, mlp });
            (points, channels) = (targets, cin);
        }

        let rows = if model.task.has_propagation() { points } else { 1 };
        let head = layers(rows, &mut channels, model.head.iter().chain([&model.classes]));
        Ok(Segments { stem, abstraction, propagation, head })
    }

    /// Total MACs across every MLP layer, the grouped chains at
    /// `centers × nsample` rows (gather-first).
    pub fn total_macs(&self) -> u64 {
        let grouped = self.abstraction.iter().flat_map(|sa| sa.grouped_mlp(sa.n_out * sa.nsample));
        let blocks = self.abstraction.iter().flat_map(|sa| sa.blocks.iter().copied());
        let fp = self.propagation.iter().flat_map(|fp| fp.mlp.iter().copied());
        self.stem
            .into_iter()
            .chain(grouped)
            .chain(blocks)
            .chain(fp)
            .chain(self.head.iter().copied())
            .map(|s| s.rows as u64 * s.cin as u64 * s.cout as u64)
            .sum()
    }

    /// Number of point operations: sample, group and gather per
    /// abstraction stage, one interpolation per propagation stage.
    pub fn point_ops(&self) -> usize {
        3 * self.abstraction.len() + self.propagation.len()
    }

    /// The analytic distance-evaluation count of all *global-search* point
    /// operations (what PointAcc/Mesorasi/GPU execute) — the `O(n²)` terms of
    /// §II-B, from the closed forms the executable operations report
    /// ([`OpCounters::fps_model`], [`OpCounters::neighbor_model`]): what
    /// [`NetworkExecutor::run`](crate::NetworkExecutor::run) counts, exactly.
    pub fn global_distance_evals(&self) -> u64 {
        let sa = self.abstraction.iter().flat_map(|sa| {
            [
                OpCounters::fps_model(sa.n_in, sa.n_out, false),
                OpCounters::neighbor_model(sa.n_in, sa.n_out, sa.nsample),
            ]
        });
        let fp = self
            .propagation
            .iter()
            .map(|fp| OpCounters::neighbor_model(fp.sources, fp.targets, fp.k));
        sa.chain(fp).map(|work| work.distance_evals).sum()
    }
}

/// Layers of output widths `couts` over `rows` rows, chained from `cin`
/// input channels; leaves `cin` at the last width.
fn layers<'a>(
    rows: usize,
    cin: &mut usize,
    couts: impl IntoIterator<Item = &'a usize>,
) -> Vec<MlpShape> {
    couts
        .into_iter()
        .map(|&cout| MlpShape { rows, cin: std::mem::replace(cin, cout), cout })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_pointnext_segmentation() {
        let s = Segments::new(&ModelConfig::pointnext_segmentation(), 4096).unwrap();
        assert!(s.stem.is_some());
        assert_eq!(s.abstraction.len(), 4);
        assert_eq!(s.propagation.len(), 4);
        // PNXt: 1 grouped layer + 1 InvResMLP block (2 layers) per stage.
        assert_eq!(s.abstraction[0].mlp, vec![64]);
        assert_eq!(s.abstraction[0].blocks.len(), 2);
        // Head: 1 hidden + classifier.
        assert_eq!(s.head.len(), 2);
        assert_eq!(s.head.last().unwrap().cout, 13);
        // FP chain reconstructs n.
        assert_eq!(s.propagation.last().unwrap().targets, 4096);
    }

    #[test]
    fn parses_classification_without_propagation() {
        let s = Segments::new(&ModelConfig::pointnetpp_classification(), 1024).unwrap();
        assert!(s.stem.is_none());
        assert_eq!(s.abstraction.len(), 3);
        assert!(s.propagation.is_empty());
        assert_eq!(s.head.len(), 3);
        assert_eq!(s.head.last().unwrap().cout, 40);
        assert_eq!(s.head[0].rows, 1);
    }

    #[test]
    fn classification_plan_structure() {
        let s = Segments::new(&ModelConfig::pointnetpp_classification(), 1024).unwrap();
        // 3 SA stages of sample + group + gather, then 3 head layers.
        assert_eq!(s.point_ops(), 3 * 3);
        assert_eq!(s.head.len(), 3);
        assert_eq!((s.abstraction[0].n_in, s.abstraction[0].n_out), (1024, 256));
        // No interpolation in classification.
        assert!(s.propagation.is_empty());
    }

    #[test]
    fn stage_shapes_chain() {
        let s = Segments::new(&ModelConfig::pointnetpp_segmentation(), 8192).unwrap();
        for w in s.abstraction.windows(2) {
            assert_eq!(w[0].n_out, w[1].n_in);
        }
        // FP targets mirror SA inputs.
        let sa_inputs: Vec<usize> = s.abstraction.iter().rev().map(|sa| sa.n_in).collect();
        let fp_targets: Vec<usize> = s.propagation.iter().map(|fp| fp.targets).collect();
        assert_eq!(sa_inputs, fp_targets);
    }

    #[test]
    fn all_table1_models_parse() {
        for m in ModelConfig::table1() {
            let s = Segments::new(&m, 2048).unwrap();
            assert_eq!(s.abstraction.len(), m.stages.len(), "{}", m.notation);
            assert_eq!(s.head.len(), m.head.len() + 1, "{}", m.notation);
        }
    }

    #[test]
    fn mlp_channel_chains_are_consistent() {
        for m in ModelConfig::table1() {
            let s = Segments::new(&m, 2048).unwrap();
            // Each stage, block, FP stage and the head take the width before
            // them (plus coordinates into a stage).
            let mut ch = s.stem.map_or(m.in_channels, |stem| stem.cout);
            for sa in &s.abstraction {
                assert_eq!(sa.cin, ch + 3, "{}", m.notation);
                for pair in sa.blocks.chunks_exact(2) {
                    assert_eq!((pair[0].cin, pair[1].cout), (sa.cout(), sa.cout()));
                }
                ch = sa.cout();
            }
            for fp in &s.propagation {
                assert_eq!(fp.channels, ch, "{}", m.notation);
                ch = fp.mlp.last().expect("Table I FP stages have an MLP").cout;
            }
            assert_eq!(s.head[0].cin, ch, "{}", m.notation);
        }
    }

    #[test]
    fn malformed_models_are_refused() {
        let invalid = |m: &ModelConfig| {
            matches!(Segments::new(m, 1024), Err(Error::InvalidParameter { name: "model", .. }))
        };
        let mut no_stage = ModelConfig::pointnetpp_classification();
        no_stage.stages.clear();
        assert!(invalid(&no_stage));

        let mut extra_fp = ModelConfig::pointnext_segmentation();
        extra_fp.propagation.push(extra_fp.propagation[0].clone());
        assert!(invalid(&extra_fp));
        // A classifier never propagates, so its propagation list is unread.
        let mut cls = ModelConfig::pointnext_classification();
        cls.propagation = extra_fp.propagation.clone();
        assert!(Segments::new(&cls, 1024).is_ok());

        let mut no_neighbors = ModelConfig::pointnetpp_segmentation();
        no_neighbors.stages[2].nsample = 0;
        assert!(invalid(&no_neighbors));

        let m = ModelConfig::pointnetpp_segmentation();
        assert!(matches!(Segments::new(&m, 0), Err(Error::EmptyCloud)));
    }

    #[test]
    fn empty_grouped_mlp_keeps_the_entering_width() {
        let mut m = ModelConfig::pointnetpp_classification();
        m.stages[0].mlp.clear();
        let s = Segments::new(&m, 1024).unwrap();
        assert_eq!(s.abstraction[0].cout(), s.abstraction[0].cin);
        assert_eq!(s.abstraction[1].cin, s.abstraction[0].cin + 3);
    }

    #[test]
    fn sampling_cascade_divides_by_four() {
        let s = Segments::new(&ModelConfig::pointnext_segmentation(), 4096).unwrap();
        let samples: Vec<(usize, usize)> =
            s.abstraction.iter().map(|sa| (sa.n_in, sa.n_out)).collect();
        assert_eq!(samples, vec![(4096, 1024), (1024, 256), (256, 64), (64, 16)]);
    }

    #[test]
    fn propagation_mirrors_abstraction() {
        let s = Segments::new(&ModelConfig::pointnetpp_segmentation(), 4096).unwrap();
        let interps: Vec<(usize, usize)> =
            s.propagation.iter().map(|fp| (fp.targets, fp.sources)).collect();
        assert_eq!(interps, vec![(64, 16), (256, 64), (1024, 256), (4096, 1024)]);
    }

    #[test]
    fn global_point_op_work_is_quadratic() {
        let m = ModelConfig::pointnext_segmentation();
        let small = Segments::new(&m, 1024).unwrap().global_distance_evals();
        let big = Segments::new(&m, 4096).unwrap().global_distance_evals();
        let ratio = big as f64 / small as f64;
        assert!(
            (10.0..=20.0).contains(&ratio),
            "4× points should cost ≈16× global search, got {ratio}"
        );
    }

    /// Two derivations, one number: the plan's analytic global-search
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
                    Segments::new(&model, n).unwrap().global_distance_evals(),
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
        let t1 = Segments::new(&m, 1024).unwrap();
        let t2 = Segments::new(&m, 16384).unwrap();
        let r1 = t1.global_distance_evals() as f64 / t1.total_macs() as f64;
        let r2 = t2.global_distance_evals() as f64 / t2.total_macs() as f64;
        assert!(r2 > 8.0 * r1, "point-op share must grow: {r1} → {r2}");
    }

    #[test]
    fn classification_head_is_single_row() {
        let s = Segments::new(&ModelConfig::pointnext_classification(), 1024).unwrap();
        assert_eq!(s.head.last().map(|h| (h.rows, h.cout)), Some((1, 40)));
    }

    #[test]
    fn segmentation_head_is_per_point() {
        let s = Segments::new(&ModelConfig::pointnext_segmentation(), 4096).unwrap();
        assert_eq!(s.head.last().map(|h| (h.rows, h.cout)), Some((4096, 13)));
    }

    #[test]
    fn pointvector_has_more_macs_than_pointnext() {
        let pv = Segments::new(&ModelConfig::pointvector_segmentation(), 4096).unwrap();
        let pn = Segments::new(&ModelConfig::pointnext_segmentation(), 4096).unwrap();
        assert!(pv.total_macs() > 3 * pn.total_macs());
    }

    #[test]
    fn plan_is_deterministic() {
        let m = ModelConfig::pointnetpp_segmentation();
        assert_eq!(Segments::new(&m, 3000).unwrap(), Segments::new(&m, 3000).unwrap());
    }
}
