//! Block-wise gathering (BWGa): feature retrieval with locality accounting.

use crate::bppo::{for_each_block, BlockParts, BppoConfig};
use crate::workspace::global_pool;
use fractalcloud_pointcloud::ops::OpCounters;
use fractalcloud_pointcloud::partition::Partition;
use fractalcloud_pointcloud::{Error, PointCloud, Result};

/// Locality classification of gather accesses (§IV-B, Block-Wise Gathering):
/// with Fractal, a block's gather touches only its search-space blocks, all
/// of which fit on-chip; conventional gathering touches arbitrary addresses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct GatherLocality {
    /// Accesses resolved inside the block's own points.
    pub own_block: u64,
    /// Accesses resolved in the parent search space (on-chip after the
    /// streamed parent load).
    pub parent_space: u64,
    /// Accesses outside the search space (require a DRAM round trip in the
    /// conventional design; zero by construction for block-wise operations).
    pub remote: u64,
}

impl GatherLocality {
    /// Fraction of accesses served on-chip (own block + parent space).
    pub fn on_chip_fraction(&self) -> f64 {
        let total = self.own_block + self.parent_space + self.remote;
        if total == 0 {
            1.0
        } else {
            (self.own_block + self.parent_space) as f64 / total as f64
        }
    }
}

/// Output of [`block_gather`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BlockGatherResult {
    /// Row-major `(rows × num) × channels` gathered features, rows in block
    /// order.
    pub data: Vec<f32>,
    /// Channels per gathered entry.
    pub channels: usize,
    /// Neighbor slots per row.
    pub num: usize,
    /// Work counters.
    pub counters: OpCounters,
    /// Locality classification of every access.
    pub locality: GatherLocality,
}

impl BlockParts for BlockGatherResult {
    fn absorb(&mut self, later: BlockGatherResult) {
        self.data.extend_from_slice(&later.data);
        self.counters.merge(&later.counters);
        self.locality.own_block += later.locality.own_block;
        self.locality.parent_space += later.locality.parent_space;
        self.locality.remote += later.locality.remote;
    }
}

/// Block-wise gathering: resolves `indices_per_block[b]` (row-major
/// `rows_b × num` neighbor indices, as produced by block-wise grouping for
/// block `b`) against the featured cloud, classifying each access by
/// locality.
///
/// Functionally identical to global
/// [`gather_features`](fractalcloud_pointcloud::ops::gather_features) on the
/// concatenated index list; the value of the block-wise form is the locality
/// structure, which the hardware model converts into on-chip traffic.
///
/// # Errors
///
/// Returns [`Error::ShapeMismatch`] if the block list length mismatches or
/// any block's indices are not a multiple of `num`;
/// [`Error::IndexOutOfBounds`] for invalid indices.
pub fn block_gather(
    cloud: &PointCloud,
    partition: &Partition,
    indices_per_block: &[Vec<usize>],
    num: usize,
    config: &BppoConfig,
) -> Result<BlockGatherResult> {
    if indices_per_block.len() != partition.blocks.len() {
        return Err(Error::ShapeMismatch {
            expected: partition.blocks.len(),
            actual: indices_per_block.len(),
        });
    }
    if num == 0 {
        return Err(Error::InvalidParameter { name: "num", message: "must be at least 1".into() });
    }
    for (b, idx) in indices_per_block.iter().enumerate() {
        if idx.len() % num != 0 {
            return Err(Error::InvalidParameter {
                name: "indices_per_block",
                message: format!("block {b}: {} indices not a multiple of num={num}", idx.len()),
            });
        }
        for &i in idx {
            if i >= cloud.len() {
                return Err(Error::IndexOutOfBounds { index: i, len: cloud.len() });
            }
        }
    }

    let channels = cloud.channels();
    let mut out = BlockGatherResult { channels, num, ..Default::default() };
    let mut ws = global_pool().checkout();
    for_each_block(partition.blocks.len(), config.parallel, &mut ws, &mut out, |b, ws, out| {
        // Membership scratch lives in the lane's workspace: sorted index
        // runs + binary search classify exactly like the tree sets they
        // replace, without per-block allocation.
        ws.own.clear();
        ws.own.extend_from_slice(&partition.blocks[b].indices);
        ws.own.sort_unstable();
        ws.space.clear();
        let (first, end) = partition.blocks[b].search;
        for block in &partition.blocks[first..end] {
            ws.space.extend_from_slice(&block.indices);
        }
        ws.space.sort_unstable();
        out.data.reserve(indices_per_block[b].len() * channels);
        for &i in &indices_per_block[b] {
            out.counters.feature_reads += 1;
            if ws.own.binary_search(&i).is_ok() {
                out.locality.own_block += 1;
            } else if ws.space.binary_search(&i).is_ok() {
                out.locality.parent_space += 1;
            } else {
                out.locality.remote += 1;
            }
            out.data.extend_from_slice(cloud.feature(i));
            out.counters.writes += 1;
        }
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bppo::{block_ball_query, block_fps, BppoConfig};
    use crate::fractal::Fractal;
    use fractalcloud_pointcloud::generate::{scene_cloud, with_random_features, SceneConfig};
    use fractalcloud_pointcloud::ops::gather_features;

    fn setup(n: usize, th: usize, seed: u64) -> (PointCloud, Partition, Vec<Vec<usize>>) {
        let cloud = with_random_features(scene_cloud(&SceneConfig::default(), n, seed), 8, seed);
        let part = Fractal::with_threshold(th).build(&cloud).unwrap().partition;
        let fps = block_fps(&cloud, &part, 0.25, &BppoConfig::sequential()).unwrap();
        let bq = block_ball_query(&cloud, &part, &fps.per_block, 0.6, 8, &BppoConfig::sequential())
            .unwrap();
        // Split the flat neighbor tensor back into per-block lists.
        let mut per_block = Vec::with_capacity(part.blocks.len());
        let mut row = 0usize;
        for centers in &fps.per_block {
            let rows = centers.len();
            per_block.push(bq.indices[row * 8..(row + rows) * 8].to_vec());
            row += rows;
        }
        (cloud, part, per_block)
    }

    #[test]
    fn bwga_matches_global_gather() {
        let (cloud, part, idx) = setup(1024, 128, 1);
        let flat: Vec<usize> = idx.iter().flatten().copied().collect();
        let global = gather_features(&cloud, &flat, 8).unwrap();
        let block = block_gather(&cloud, &part, &idx, 8, &BppoConfig::sequential()).unwrap();
        assert_eq!(global.data, block.data);
    }

    #[test]
    fn bwga_all_accesses_on_chip_for_block_wise_indices() {
        // Indices produced by block-wise grouping are inside the search
        // space by construction → zero remote accesses.
        let (cloud, part, idx) = setup(2048, 256, 2);
        let r = block_gather(&cloud, &part, &idx, 8, &BppoConfig::sequential()).unwrap();
        assert_eq!(r.locality.remote, 0);
        assert_eq!(r.locality.on_chip_fraction(), 1.0);
        assert!(r.locality.own_block > 0);
    }

    #[test]
    fn bwga_detects_remote_accesses_for_global_indices() {
        // Hand a block indices from the far end of the cloud: those are
        // remote (what conventional gathering does all the time).
        let (cloud, part, _) = setup(1024, 128, 3);
        let mut idx: Vec<Vec<usize>> = vec![Vec::new(); part.blocks.len()];
        let mut row: Vec<usize> = part.blocks.last().unwrap().indices
            [..8.min(part.blocks.last().unwrap().len())]
            .to_vec();
        while row.len() < 8 {
            row.push(row[0]);
        }
        idx[0] = row;
        let r = block_gather(&cloud, &part, &idx, 8, &BppoConfig::sequential()).unwrap();
        assert!(r.locality.remote > 0, "far-block accesses must classify remote");
        assert!(r.locality.on_chip_fraction() < 1.0);
    }

    #[test]
    fn bwga_parallel_equals_sequential() {
        let (cloud, part, idx) = setup(1024, 128, 4);
        let par = block_gather(&cloud, &part, &idx, 8, &BppoConfig::default()).unwrap();
        let seq = block_gather(&cloud, &part, &idx, 8, &BppoConfig::sequential()).unwrap();
        assert_eq!(par.data, seq.data);
        assert_eq!(par.locality, seq.locality);
    }

    #[test]
    fn bwga_validates_shapes() {
        let (cloud, part, mut idx) = setup(512, 128, 5);
        assert!(block_gather(&cloud, &part, &idx[..1], 8, &BppoConfig::default()).is_err());
        idx[0].push(0); // no longer a multiple of num
        assert!(block_gather(&cloud, &part, &idx, 8, &BppoConfig::default()).is_err());
        let bad = vec![vec![cloud.len()]; part.blocks.len()];
        assert!(block_gather(&cloud, &part, &bad, 1, &BppoConfig::default()).is_err());
    }

    #[test]
    fn on_chip_fraction_of_empty_is_one() {
        assert_eq!(GatherLocality::default().on_chip_fraction(), 1.0);
    }
}
