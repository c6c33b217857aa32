//! Network inference executor with selectable aggregation schedule:
//! **eager** (gather-then-MLP, the PointNet++ baseline) or **delayed**
//! (MLP-then-aggregate, Mesorasi's delayed aggregation).
//!
//! Both schedules run the same Mesorasi-restructured layer form — a grouped
//! input row is the neighbor's features concatenated with its *absolute*
//! coordinates, so the per-row MLP value depends only on the unique point,
//! never on which centroid grouped it. That makes the two schedules exactly
//! interchangeable:
//!
//! * **Eager** materializes the `centers × nsample × cin` grouped matrix
//!   (duplicating every shared neighbor), runs the MLP chain over all
//!   grouped rows, then max-pools each neighborhood.
//! * **Delayed** runs the MLP chain once per *unique* level point and then
//!   max-aggregates MLP outputs over each centroid's neighbor index list —
//!   no feature-matrix materialization, `centers × nsample − n` rows of MLP
//!   work saved.
//!
//! Both schedules pool through the same fused
//! [`kernels::segmented_max_into`] primitive (eager over identity index
//! lists, delayed over the real neighbor lists), so their logits are
//! **bit-identical** on every kernel backend — asserted by the tests below.
//!
//! The executor runs entirely inside [`Workspace::infer`] scratch: a warmed
//! workspace executes a whole forward pass without heap allocation.
//!
//! It is also the paper's accuracy check (§VI-B): the same weights run with
//! global search ([`NetworkExecutor::run`]) and with a block-parallel first
//! stage ([`NetworkExecutor::run_with_stage1`], what `INFER` serves), and
//! the tests below compare the two predictions point by point.

use crate::layers::Linear;
use crate::zoo::ModelConfig;
use fractalcloud_core::{InferScratch, LevelMeta, PipelineOutput, Workspace};
use fractalcloud_pointcloud::kernels;
use fractalcloud_pointcloud::ops::{self, OpCounters};
use fractalcloud_pointcloud::{Error, PointCloud, Result};

/// Aggregation schedule of the set-abstraction stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregation {
    /// Gather-then-MLP: materialize the grouped feature matrix, run the MLP
    /// over every duplicated row, then pool (the PointNet++ baseline).
    Eager,
    /// MLP-then-aggregate: run the MLP once per unique point, then
    /// max-aggregate over neighbor index lists (Mesorasi).
    Delayed,
}

impl Aggregation {
    /// Canonical lowercase name (`eager` / `delayed`).
    pub fn name(self) -> &'static str {
        match self {
            Aggregation::Eager => "eager",
            Aggregation::Delayed => "delayed",
        }
    }

    /// Parses a schedule name (case-insensitive); `None` when unknown.
    pub fn from_name(name: &str) -> Option<Aggregation> {
        match name.trim().to_ascii_lowercase().as_str() {
            "eager" => Some(Aggregation::Eager),
            "delayed" => Some(Aggregation::Delayed),
            _ => None,
        }
    }

    /// Resolves the schedule from `FRACTALCLOUD_AGGREGATION` (unset or
    /// unrecognized values fall back to [`Aggregation::Delayed`], the
    /// optimized path).
    pub fn from_env() -> Aggregation {
        match std::env::var("FRACTALCLOUD_AGGREGATION") {
            Ok(v) => Aggregation::from_name(&v).unwrap_or(Aggregation::Delayed),
            Err(_) => Aggregation::Delayed,
        }
    }
}

/// Configuration of a [`NetworkExecutor`].
#[derive(Debug, Clone)]
pub struct InferenceConfig {
    /// The network to execute.
    pub model: ModelConfig,
    /// Weight seed; [`NetworkExecutor::new`] derives every layer's seed
    /// from it.
    pub seed: u64,
    /// Aggregation schedule of the set-abstraction stages.
    pub aggregation: Aggregation,
}

impl InferenceConfig {
    /// Creates a config with the schedule taken from
    /// [`Aggregation::from_env`].
    pub fn new(model: ModelConfig, seed: u64) -> InferenceConfig {
        InferenceConfig { model, seed, aggregation: Aggregation::from_env() }
    }
}

/// Result of one inference, with the work accounting attached.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InferOutput {
    /// Row-major `rows × classes` logits (1 row for classification, one per
    /// point for segmentation).
    pub logits: Vec<f32>,
    /// Number of classes (row width).
    pub classes: usize,
    /// Original-cloud index of each logit row (a single `0` for
    /// classification).
    pub row_index: Vec<usize>,
    /// Work performed, including the Mesorasi MACs-moved / MACs-saved and
    /// grouped-matrix gather-bytes accounting.
    pub counters: OpCounters,
}

impl InferOutput {
    /// The argmax class of row `r`.
    pub fn predicted_class(&self, r: usize) -> usize {
        let row = &self.logits[r * self.classes..(r + 1) * self.classes];
        row.iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

#[derive(Debug, Clone)]
struct StageWeights {
    mlp: Vec<Linear>,
    blocks: Vec<(Linear, Linear)>,
}

/// Runnable network executor with pre-materialized weights and a
/// selectable aggregation schedule.
///
/// Every layer's weights come from one seed chain in
/// [`NetworkExecutor::new`], so a given `(model, seed)` pair always denotes
/// the same network.
#[derive(Debug, Clone)]
pub struct NetworkExecutor {
    config: InferenceConfig,
    stem: Option<Linear>,
    stages: Vec<StageWeights>,
    props: Vec<Vec<Linear>>,
    head: Vec<Linear>,
    out: Linear,
}

impl NetworkExecutor {
    /// Materializes all layer weights for `config`.
    pub fn new(config: InferenceConfig) -> NetworkExecutor {
        let mut layer_seed = config.seed;
        let mut next = |cin: usize, cout: usize, relu: bool| {
            layer_seed =
                layer_seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            Linear::seeded(cin, cout, layer_seed, relu)
        };

        let model = &config.model;
        let mut ch = model.in_channels;
        let stem = if model.stem_width > 0 {
            let l = next(ch, model.stem_width, true);
            ch = model.stem_width;
            Some(l)
        } else {
            None
        };

        let mut stages = Vec::with_capacity(model.stages.len());
        let mut skip_ch = Vec::with_capacity(model.stages.len());
        for sa in &model.stages {
            skip_ch.push(ch);
            let mut cin = ch + 3;
            let mut mlp = Vec::with_capacity(sa.mlp.len());
            for &cout in &sa.mlp {
                mlp.push(next(cin, cout, true));
                cin = cout;
            }
            ch = cin;
            let mut blocks = Vec::with_capacity(sa.blocks);
            for _ in 0..sa.blocks {
                let up = next(ch, ch * 4, true);
                let down = next(ch * 4, ch, false);
                blocks.push((up, down));
            }
            stages.push(StageWeights { mlp, blocks });
        }

        let mut props = Vec::new();
        if model.task.has_propagation() {
            for fp in &model.propagation {
                let t_ch = skip_ch.pop().expect("skip per FP stage");
                let mut cin = ch + t_ch;
                let mut mlp = Vec::with_capacity(fp.mlp.len());
                for &cout in &fp.mlp {
                    mlp.push(next(cin, cout, true));
                    cin = cout;
                }
                ch = cin;
                props.push(mlp);
            }
        }

        let mut head = Vec::with_capacity(model.head.len());
        for &cout in &model.head {
            head.push(next(ch, cout, true));
            ch = cout;
        }
        let out = next(ch, model.classes, false);

        NetworkExecutor { config, stem, stages, props, head, out }
    }

    /// The executor's configuration.
    pub fn config(&self) -> &InferenceConfig {
        &self.config
    }

    /// Runs inference with global-search sampling and grouping at every
    /// stage (input features are the coordinates, zero-padded to the
    /// model's input channel count).
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyCloud`] for an empty cloud.
    pub fn run(&self, cloud: &PointCloud, ws: &mut Workspace) -> Result<InferOutput> {
        let mut out = InferOutput::default();
        self.run_into(cloud, ws, &mut out)?;
        Ok(out)
    }

    /// [`NetworkExecutor::run`] writing into a caller-owned output (whose
    /// buffers are reused), so a warmed `(ws, out)` pair performs no heap
    /// allocation.
    ///
    /// # Errors
    ///
    /// As [`NetworkExecutor::run`].
    pub fn run_into(
        &self,
        cloud: &PointCloud,
        ws: &mut Workspace,
        out: &mut InferOutput,
    ) -> Result<()> {
        self.run_internal(cloud, None, ws, out)
    }

    /// Runs inference reusing an already-computed first-stage sampling +
    /// grouping — the serving seam: a `PipelineOutput` produced by
    /// [`Pipeline::run_with_partition`](fractalcloud_core::Pipeline) over
    /// the same cloud (with `sample_rate`, `radius` and `neighbors` taken
    /// from the model's first set-abstraction stage) feeds stage 1
    /// directly, sharing the serving layer's partition cache. Deeper
    /// stages search globally over the already-reduced set, matching the
    /// paper's tree reuse at coarser levels.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyCloud`] for an empty cloud and
    /// [`Error::InvalidParameter`] when `stage1` does not match the model's
    /// first stage (wrong neighbor count, empty centers, out-of-range
    /// indices).
    pub fn run_with_stage1(
        &self,
        cloud: &PointCloud,
        stage1: &PipelineOutput,
        ws: &mut Workspace,
    ) -> Result<InferOutput> {
        let mut out = InferOutput::default();
        self.run_with_stage1_into(cloud, stage1, ws, &mut out)?;
        Ok(out)
    }

    /// [`NetworkExecutor::run_with_stage1`] writing into a caller-owned
    /// output.
    ///
    /// # Errors
    ///
    /// As [`NetworkExecutor::run_with_stage1`].
    pub fn run_with_stage1_into(
        &self,
        cloud: &PointCloud,
        stage1: &PipelineOutput,
        ws: &mut Workspace,
        out: &mut InferOutput,
    ) -> Result<()> {
        self.validate_stage1(cloud, stage1)?;
        self.run_internal(cloud, Some(stage1), ws, out)
    }

    fn validate_stage1(&self, cloud: &PointCloud, po: &PipelineOutput) -> Result<()> {
        let sa = self.config.model.stages.first().ok_or(Error::InvalidParameter {
            name: "stage1",
            message: "model has no set-abstraction stage to feed".into(),
        })?;
        if po.grouped.num != sa.nsample {
            return Err(Error::InvalidParameter {
                name: "stage1",
                message: format!(
                    "pipeline grouped {} neighbors per center but the model's first stage \
                     expects {}",
                    po.grouped.num, sa.nsample
                ),
            });
        }
        let c_cnt = po.grouped.center_indices.len();
        if c_cnt == 0 {
            return Err(Error::InvalidParameter {
                name: "stage1",
                message: "pipeline output has no centers".into(),
            });
        }
        if po.grouped.indices.len() != c_cnt * sa.nsample {
            return Err(Error::InvalidParameter {
                name: "stage1",
                message: format!(
                    "pipeline neighbor list holds {} indices, expected {} centers × {}",
                    po.grouped.indices.len(),
                    c_cnt,
                    sa.nsample
                ),
            });
        }
        let n = cloud.len();
        if po.grouped.center_indices.iter().chain(po.grouped.indices.iter()).any(|&i| i >= n) {
            return Err(Error::InvalidParameter {
                name: "stage1",
                message: "pipeline output indexes beyond the cloud".into(),
            });
        }
        Ok(())
    }

    fn run_internal(
        &self,
        cloud: &PointCloud,
        stage1: Option<&PipelineOutput>,
        ws: &mut Workspace,
        out: &mut InferOutput,
    ) -> Result<()> {
        if cloud.is_empty() {
            return Err(Error::EmptyCloud);
        }
        let mut counters = OpCounters::new();
        let model = &self.config.model;
        let backend = kernels::active_backend();

        let InferScratch {
            lvl_xs,
            lvl_ys,
            lvl_zs,
            lvl_feat,
            lvl_origin,
            lvl_meta,
            rows,
            feat_a,
            feat_b,
            pooled,
            centers,
            neighbors,
            counts,
            queries,
            dist,
            select,
        } = &mut ws.infer;

        // ---- Level 0: raw input (optionally through the stem) ----
        lvl_xs.clear();
        lvl_ys.clear();
        lvl_zs.clear();
        lvl_feat.clear();
        lvl_origin.clear();
        lvl_meta.clear();

        let n = cloud.len();
        lvl_xs.extend_from_slice(cloud.xs());
        lvl_ys.extend_from_slice(cloud.ys());
        lvl_zs.extend_from_slice(cloud.zs());
        lvl_origin.extend(0..n);

        let in_ch = model.in_channels;
        rows.clear();
        for i in 0..n {
            let xyz = [cloud.xs()[i], cloud.ys()[i], cloud.zs()[i]];
            rows.extend_from_slice(&xyz[..in_ch.min(3)]);
            rows.extend(std::iter::repeat_n(0.0, in_ch.saturating_sub(3)));
        }
        let mut ch0 = in_ch;
        if let Some(stem) = &self.stem {
            let span = mlp_span(0);
            stem.forward_into(rows, feat_a);
            span.done();
            std::mem::swap(rows, feat_a);
            ch0 = stem.cout;
        }
        lvl_feat.extend_from_slice(rows);
        lvl_meta.push(LevelMeta { coord_off: 0, len: n, feat_off: 0, channels: ch0 });

        // ---- Set abstraction ----
        for (s, (sa, sw)) in model.stages.iter().zip(&self.stages).enumerate() {
            let m = *lvl_meta.last().expect("level 0 exists");
            let c_cnt;
            let ch_out;
            {
                let xs = &lvl_xs[m.coord_off..m.coord_off + m.len];
                let ys = &lvl_ys[m.coord_off..m.coord_off + m.len];
                let zs = &lvl_zs[m.coord_off..m.coord_off + m.len];
                let feats = &lvl_feat[m.feat_off..m.feat_off + m.len * m.channels];
                let origin = &lvl_origin[m.coord_off..m.coord_off + m.len];
                let ch = m.channels;
                let n_in = m.len;

                // Sampling + grouping: pipeline-fed for the first stage in
                // serving mode, global search otherwise.
                match (s, stage1) {
                    (0, Some(po)) => {
                        centers.clear();
                        centers.extend_from_slice(&po.grouped.center_indices);
                        neighbors.clear();
                        neighbors.extend_from_slice(&po.grouped.indices);
                    }
                    _ => {
                        let n_out = ((n_in as f64) * sa.sample_ratio).round().max(1.0) as usize;
                        let m_samp = n_out.min(n_in);

                        // Whole-level spans (`aux = u32::MAX`), as the
                        // pipeline opens around its stage-1 halves.
                        let span = fractalcloud_obs::span(
                            fractalcloud_obs::SpanKind::BlockSample,
                            u32::MAX,
                        );
                        centers.clear();
                        ops::fps_into(backend, xs, ys, zs, m_samp, 0, dist, centers, |i| i);
                        span.done();
                        counters.merge(&OpCounters::fps_model(n_in, m_samp, false));

                        let span = fractalcloud_obs::span(
                            fractalcloud_obs::SpanKind::BlockGroup,
                            u32::MAX,
                        );
                        queries.clear();
                        queries.extend(centers.iter().map(|&i| [xs[i], ys[i], zs[i]]));
                        neighbors.clear();
                        // The hit counts land in `counts` and are overwritten
                        // below: pooling reads the padded rows. A center with
                        // no candidate at a finite distance (NaN or infinite
                        // coordinates) groups itself.
                        counts.clear();
                        ops::ball_query_into(
                            backend,
                            xs,
                            ys,
                            zs,
                            queries,
                            sa.radius,
                            sa.nsample,
                            0,
                            select,
                            neighbors,
                            counts,
                            |i| i,
                            |row| centers[row],
                        );
                        span.done();
                        counters.merge(&OpCounters::neighbor_model(
                            n_in,
                            centers.len(),
                            sa.nsample,
                        ));
                    }
                }
                c_cnt = centers.len();
                counts.clear();
                counts.resize(c_cnt, sa.nsample);

                // Grouped-row MLP + segmented max-pool, eager or delayed.
                let cin = ch + 3;
                match self.config.aggregation {
                    Aggregation::Eager => {
                        // Materialize the duplicated grouped matrix.
                        rows.clear();
                        rows.reserve(c_cnt * sa.nsample * cin);
                        for c in 0..c_cnt {
                            for j in 0..sa.nsample {
                                let ni = neighbors[c * sa.nsample + j];
                                rows.extend_from_slice(&feats[ni * ch..(ni + 1) * ch]);
                                rows.push(xs[ni]);
                                rows.push(ys[ni]);
                                rows.push(zs[ni]);
                            }
                        }
                        counters.gather_bytes += (rows.len() * std::mem::size_of::<f32>()) as u64;
                        counters.feature_reads += (c_cnt * sa.nsample) as u64;
                        let span = mlp_span(s);
                        mlp_chain(&sw.mlp, rows, feat_a);
                        span.done();
                        ch_out = sw.mlp.last().map(|l| l.cout).unwrap_or(cin);
                        // Pool the grouped rows through the same segmented
                        // kernel the delayed schedule uses, over identity
                        // index lists — shared reduction code keeps the two
                        // schedules bit-identical.
                        neighbors.clear();
                        neighbors.extend(0..c_cnt * sa.nsample);
                    }
                    Aggregation::Delayed => {
                        // One MLP row per *unique* level point.
                        rows.clear();
                        rows.reserve(n_in * cin);
                        for i in 0..n_in {
                            rows.extend_from_slice(&feats[i * ch..(i + 1) * ch]);
                            rows.push(xs[i]);
                            rows.push(ys[i]);
                            rows.push(zs[i]);
                        }
                        counters.feature_reads += n_in as u64;
                        let per_row = macs_per_row(&sw.mlp);
                        let moved = per_row * n_in as u64;
                        counters.macs_moved += moved;
                        counters.macs_saved +=
                            (per_row * (c_cnt * sa.nsample) as u64).saturating_sub(moved);
                        let span = mlp_span(s);
                        mlp_chain(&sw.mlp, rows, feat_a);
                        span.done();
                        ch_out = sw.mlp.last().map(|l| l.cout).unwrap_or(cin);
                    }
                }
                pooled.clear();
                pooled.resize(c_cnt * ch_out, 0.0);
                let agg_span =
                    fractalcloud_obs::span(fractalcloud_obs::SpanKind::Aggregate, s as u32);
                kernels::segmented_max_into_with(
                    backend, rows, ch_out, neighbors, counts, sa.nsample, pooled,
                );
                agg_span.done();
                counters.feature_reads += (c_cnt * sa.nsample) as u64;
                counters.writes += c_cnt as u64;

                // Residual blocks on the pooled features (identical in both
                // schedules — they operate post-aggregation).
                if !sw.blocks.is_empty() {
                    let span = mlp_span(s);
                    for (up, down) in &sw.blocks {
                        up.forward_into(pooled, feat_a);
                        down.forward_into(feat_a, feat_b);
                        for (p, e) in pooled.iter_mut().zip(feat_b.iter()) {
                            *p = (*p + e).max(0.0);
                        }
                    }
                    span.done();
                }

                // Stage the new level while the current one is still
                // borrowed: coordinates into `queries`, origins in place.
                queries.clear();
                for &ci in centers.iter().take(c_cnt) {
                    queries.push([xs[ci], ys[ci], zs[ci]]);
                }
                for c in centers.iter_mut() {
                    *c = origin[*c];
                }
            }

            // Append the new level to the pyramid.
            let coord_off = lvl_xs.len();
            let feat_off = lvl_feat.len();
            for q in queries.iter() {
                lvl_xs.push(q[0]);
                lvl_ys.push(q[1]);
                lvl_zs.push(q[2]);
            }
            lvl_origin.extend_from_slice(centers);
            lvl_feat.extend_from_slice(pooled);
            lvl_meta.push(LevelMeta { coord_off, len: c_cnt, feat_off, channels: ch_out });
        }

        // ---- Feature propagation ----
        // `pooled` holds the current features throughout (it ends the
        // abstraction loop as the deepest level's features).
        let s_cnt = model.stages.len();
        let has_prop = model.task.has_propagation();
        let mut cur_ch = lvl_meta.last().expect("level 0 exists").channels;
        if has_prop {
            for (i, (fp, pw)) in model.propagation.iter().zip(&self.props).enumerate() {
                let src = lvl_meta[s_cnt - i];
                let tgt = lvl_meta[s_cnt - 1 - i];
                let sxs = &lvl_xs[src.coord_off..src.coord_off + src.len];
                let sys = &lvl_ys[src.coord_off..src.coord_off + src.len];
                let szs = &lvl_zs[src.coord_off..src.coord_off + src.len];
                let t_ch = tgt.channels;
                let merged = cur_ch + t_ch;

                queries.clear();
                for t in tgt.coord_off..tgt.coord_off + tgt.len {
                    queries.push([lvl_xs[t], lvl_ys[t], lvl_zs[t]]);
                }

                // Merged rows: inverse-distance-weighted interpolation of
                // the source features, then the skip level's own features.
                rows.clear();
                rows.resize(tgt.len * merged, 0.0);
                let src_feat: &[f32] = pooled;
                // One interpolated row written per target.
                counters.merge(&OpCounters::neighbor_model(src.len, tgt.len, 1));
                counters.feature_reads += ops::interpolate_into(
                    backend,
                    sxs,
                    sys,
                    szs,
                    queries,
                    fp.k.max(1),
                    select,
                    |i| &src_feat[i * cur_ch..(i + 1) * cur_ch],
                    rows,
                    merged,
                    |_| {},
                    |_| {},
                );
                let tfeats = &lvl_feat[tgt.feat_off..tgt.feat_off + tgt.len * t_ch];
                for t in 0..tgt.len {
                    rows[t * merged + cur_ch..(t + 1) * merged]
                        .copy_from_slice(&tfeats[t * t_ch..(t + 1) * t_ch]);
                }

                let span = mlp_span(s_cnt);
                mlp_chain(pw, rows, feat_a);
                span.done();
                cur_ch = pw.last().map(|l| l.cout).unwrap_or(merged);
                std::mem::swap(pooled, rows);
            }
        }

        // ---- Head ----
        if !has_prop {
            // Global max over the remaining points → one row; the strict-`>`
            // select idiom matches the segmented kernel exactly.
            let last = *lvl_meta.last().expect("level 0 exists");
            rows.clear();
            rows.resize(cur_ch, f32::NEG_INFINITY);
            for r in 0..last.len {
                let frow = &pooled[r * cur_ch..(r + 1) * cur_ch];
                for (o, &v) in rows.iter_mut().zip(frow) {
                    *o = if v > *o { v } else { *o };
                }
            }
            std::mem::swap(pooled, rows);
        }
        let span = mlp_span(s_cnt);
        mlp_chain(&self.head, pooled, feat_a);
        self.out.forward_into(pooled, feat_b);
        span.done();

        out.logits.clear();
        out.logits.extend_from_slice(feat_b);
        out.classes = model.classes;
        out.row_index.clear();
        if has_prop {
            let cur = lvl_meta[s_cnt - model.propagation.len().min(s_cnt)];
            out.row_index.extend_from_slice(&lvl_origin[cur.coord_off..cur.coord_off + cur.len]);
        } else {
            out.row_index.push(0);
        }
        counters.writes += out.row_index.len() as u64;
        out.counters = counters;
        Ok(())
    }
}

/// Opens the flight-recorder span every dense-layer run sits in, so MLP time
/// is attributed wherever a `Linear` executes: the stage index for a stage's
/// MLP chain and residual blocks (the stem counts towards stage 0),
/// `stages.len()` for the feature-propagation chains, the head and the
/// output layer.
fn mlp_span(stage: usize) -> fractalcloud_obs::Span {
    fractalcloud_obs::span(fractalcloud_obs::SpanKind::StageMlp, stage as u32)
}

/// Runs `cur` through the layer chain, ping-ponging through `tmp`; the
/// result always lands back in `cur`.
fn mlp_chain(layers: &[Linear], cur: &mut Vec<f32>, tmp: &mut Vec<f32>) {
    for l in layers {
        l.forward_into(cur, tmp);
        std::mem::swap(cur, tmp);
    }
}

/// Multiply-accumulates one row performs across the whole chain.
fn macs_per_row(layers: &[Linear]) -> u64 {
    layers.iter().map(|l| (l.cin * l.cout) as u64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fractalcloud_core::{Pipeline, PipelineConfig};
    use fractalcloud_pointcloud::generate::{object_cloud, scene_cloud, ObjectKind, SceneConfig};
    use fractalcloud_pointcloud::kernels::{with_backend, Backend};

    fn exec(model: ModelConfig, agg: Aggregation) -> NetworkExecutor {
        NetworkExecutor::new(InferenceConfig { model, seed: 42, aggregation: agg })
    }

    fn run_agg(model: ModelConfig, agg: Aggregation, cloud: &PointCloud) -> InferOutput {
        let mut ws = Workspace::default();
        exec(model, agg).run(cloud, &mut ws).unwrap()
    }

    fn seeded(model: ModelConfig, seed: u64) -> NetworkExecutor {
        NetworkExecutor::new(InferenceConfig::new(model, seed))
    }

    fn run_global(ex: &NetworkExecutor, cloud: &PointCloud) -> InferOutput {
        ex.run(cloud, &mut Workspace::default()).unwrap()
    }

    /// Block mode as `INFER` serves it: a block-parallel first stage with the
    /// model's first set-abstraction parameters, global deeper stages.
    fn run_block(ex: &NetworkExecutor, cloud: &PointCloud, threshold: usize) -> InferOutput {
        let sa = &ex.config().model.stages[0];
        let cfg = PipelineConfig::new(threshold, sa.sample_ratio, sa.radius, sa.nsample);
        let po = Pipeline::new(cfg).unwrap().run(cloud, false).unwrap();
        ex.run_with_stage1(cloud, &po, &mut Workspace::default()).unwrap()
    }

    #[test]
    fn classification_produces_one_logit_row() {
        let ex = seeded(ModelConfig::pointnetpp_classification(), 42);
        let out = run_global(&ex, &object_cloud(ObjectKind::Chair, 512, 1));
        assert_eq!(out.logits.len(), 40);
        assert_eq!(out.row_index, [0]);
        assert!(out.logits.iter().all(|v| v.is_finite()));
        assert!(out.predicted_class(0) < 40);
    }

    #[test]
    fn segmentation_produces_per_point_logits() {
        let ex = seeded(ModelConfig::pointnext_segmentation(), 7);
        let out = run_global(&ex, &scene_cloud(&SceneConfig::default(), 1024, 2));
        assert_eq!(out.logits.len(), 1024 * 13);
        assert_eq!(out.row_index.len(), 1024);
        assert!(out.logits.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn block_mode_runs_and_matches_shapes() {
        let ex = seeded(ModelConfig::pointnext_segmentation(), 7);
        let out = run_block(&ex, &scene_cloud(&SceneConfig::default(), 1024, 3), 128);
        assert_eq!(out.logits.len(), 1024 * 13);
        // Every original point appears exactly once.
        let mut seen = out.row_index.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 1024);
    }

    #[test]
    fn block_and_global_agree_on_most_predictions() {
        // The accuracy argument (§VI-B): identical weights, block vs global
        // search — predictions agree for the large majority of points (the
        // paper reports < 0.7 pp accuracy change after retraining; without
        // retraining the margin is wider).
        let ex = seeded(ModelConfig::pointnetpp_segmentation(), 11);
        let cloud = scene_cloud(&SceneConfig::default(), 768, 5);
        let g = run_global(&ex, &cloud);
        let b = run_block(&ex, &cloud, 256);
        // Align rows through the original-cloud indices.
        let mut g_pred = vec![0usize; 768];
        for (r, &oi) in g.row_index.iter().enumerate() {
            g_pred[oi] = g.predicted_class(r);
        }
        let agree =
            b.row_index.iter().enumerate().filter(|&(r, &oi)| b.predicted_class(r) == g_pred[oi]);
        let frac = agree.count() as f64 / 768.0;
        assert!(frac > 0.7, "agreement {frac} too low");
    }

    #[test]
    fn deterministic_given_seed() {
        let cloud = object_cloud(ObjectKind::Sphere, 256, 9);
        let a = run_global(&seeded(ModelConfig::pointnetpp_classification(), 3), &cloud);
        let b = run_global(&seeded(ModelConfig::pointnetpp_classification(), 3), &cloud);
        assert_eq!(a.logits, b.logits);
    }

    #[test]
    fn different_seeds_differ() {
        let cloud = object_cloud(ObjectKind::Sphere, 256, 9);
        let a = run_global(&seeded(ModelConfig::pointnetpp_classification(), 1), &cloud);
        let b = run_global(&seeded(ModelConfig::pointnetpp_classification(), 2), &cloud);
        assert_ne!(a.logits, b.logits);
    }

    #[test]
    fn eager_and_delayed_are_bit_identical_classification() {
        let cloud = object_cloud(ObjectKind::Chair, 512, 1);
        let e = run_agg(ModelConfig::pointnetpp_classification(), Aggregation::Eager, &cloud);
        let d = run_agg(ModelConfig::pointnetpp_classification(), Aggregation::Delayed, &cloud);
        assert_eq!(e.logits, d.logits);
        assert_eq!(e.row_index, d.row_index);
        assert_eq!(e.classes, 40);
        assert!(e.logits.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn eager_and_delayed_are_bit_identical_segmentation() {
        let cloud = scene_cloud(&SceneConfig::default(), 768, 2);
        for model in [ModelConfig::pointnext_segmentation(), ModelConfig::pointnetpp_segmentation()]
        {
            let e = run_agg(model.clone(), Aggregation::Eager, &cloud);
            let d = run_agg(model, Aggregation::Delayed, &cloud);
            assert_eq!(e.logits, d.logits);
            assert_eq!(e.row_index, d.row_index);
            assert_eq!(e.row_index.len(), 768);
        }
    }

    #[test]
    fn outputs_are_bit_identical_across_backends() {
        let cloud = scene_cloud(&SceneConfig::default(), 512, 3);
        let model = ModelConfig::pointnetpp_segmentation;
        let base = with_backend(Backend::Scalar, || run_agg(model(), Aggregation::Delayed, &cloud));
        for b in [Backend::Soa, Backend::Avx2] {
            for agg in [Aggregation::Eager, Aggregation::Delayed] {
                let got = with_backend(b, || run_agg(model(), agg, &cloud));
                assert_eq!(base.logits, got.logits, "backend {b:?} aggregation {agg:?}");
                assert_eq!(base.row_index, got.row_index);
            }
        }
    }

    #[test]
    fn warm_rerun_is_identical() {
        let cloud = object_cloud(ObjectKind::Sphere, 300, 5);
        let ex = exec(ModelConfig::pointnetpp_classification(), Aggregation::Delayed);
        let mut ws = Workspace::default();
        let mut a = InferOutput::default();
        let mut b = InferOutput::default();
        ex.run_into(&cloud, &mut ws, &mut a).unwrap();
        ex.run_into(&cloud, &mut ws, &mut b).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn delayed_reports_moved_and_saved_macs() {
        let cloud = object_cloud(ObjectKind::Cylinder, 512, 7);
        let d = run_agg(ModelConfig::pointnetpp_classification(), Aggregation::Delayed, &cloud);
        assert!(d.counters.macs_moved > 0);
        assert!(d.counters.macs_saved > 0);
        assert_eq!(d.counters.gather_bytes, 0);
    }

    #[test]
    fn eager_reports_gather_traffic_not_saved_macs() {
        let cloud = object_cloud(ObjectKind::Cylinder, 512, 7);
        let e = run_agg(ModelConfig::pointnetpp_classification(), Aggregation::Eager, &cloud);
        assert!(e.counters.gather_bytes > 0);
        assert_eq!(e.counters.macs_moved, 0);
        assert_eq!(e.counters.macs_saved, 0);
    }

    #[test]
    fn stage1_pipeline_path_is_bit_identical_between_schedules() {
        let cloud = scene_cloud(&SceneConfig::default(), 1024, 9);
        let model = ModelConfig::pointnetpp_segmentation();
        let sa = &model.stages[0];
        let cfg = PipelineConfig::new(128, sa.sample_ratio, sa.radius, sa.nsample);
        let pipe = Pipeline::new(cfg).unwrap();
        let built = pipe.partition(&cloud).unwrap();
        let po = pipe.run_with_partition(&cloud, &built, false).unwrap();

        let mut ws = Workspace::default();
        let e =
            exec(model.clone(), Aggregation::Eager).run_with_stage1(&cloud, &po, &mut ws).unwrap();
        let d = exec(model, Aggregation::Delayed).run_with_stage1(&cloud, &po, &mut ws).unwrap();
        assert_eq!(e.logits, d.logits);
        assert_eq!(e.row_index, d.row_index);
        assert!(d.counters.macs_saved > 0);
        // Per-point rows cover the whole cloud exactly once.
        let mut seen = d.row_index.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 1024);
    }

    #[test]
    fn stage1_neighbor_count_mismatch_errors() {
        let cloud = scene_cloud(&SceneConfig::default(), 256, 4);
        let model = ModelConfig::pointnetpp_segmentation();
        let sa = &model.stages[0];
        let cfg = PipelineConfig::new(128, sa.sample_ratio, sa.radius, sa.nsample + 1);
        let po = Pipeline::new(cfg).unwrap().run(&cloud, false).unwrap();
        let mut ws = Workspace::default();
        let err = exec(model, Aggregation::Delayed).run_with_stage1(&cloud, &po, &mut ws);
        assert!(err.is_err());
    }

    #[test]
    fn empty_cloud_errors() {
        let ex = exec(ModelConfig::pointnetpp_classification(), Aggregation::Delayed);
        let mut ws = Workspace::default();
        assert!(ex.run(&PointCloud::new(), &mut ws).is_err());
    }

    #[test]
    fn empty_cloud_errors_in_both_modes() {
        let ex = seeded(ModelConfig::pointnetpp_classification(), 0);
        let empty = PointCloud::new();
        assert!(ex.run(&empty, &mut Workspace::default()).is_err());
        // Block mode fails at its block-parallel first stage.
        let sa = &ex.config().model.stages[0];
        let cfg = PipelineConfig::new(256, sa.sample_ratio, sa.radius, sa.nsample);
        assert!(Pipeline::new(cfg).unwrap().run(&empty, false).is_err());
    }

    #[test]
    fn aggregation_names_round_trip() {
        assert_eq!(Aggregation::from_name("eager"), Some(Aggregation::Eager));
        assert_eq!(Aggregation::from_name(" Delayed "), Some(Aggregation::Delayed));
        assert_eq!(Aggregation::from_name("bogus"), None);
        for a in [Aggregation::Eager, Aggregation::Delayed] {
            assert_eq!(Aggregation::from_name(a.name()), Some(a));
        }
    }
}
