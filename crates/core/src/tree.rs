//! The fractal binary tree produced by partitioning.

use fractalcloud_pointcloud::{Aabb, Axis};
use serde::{Deserialize, Serialize};

/// Identifier of a node within a [`FractalTree`].
pub type NodeId = usize;

/// One node of the fractal binary tree (Fig. 6).
///
/// Internal nodes record the split plane; leaf nodes reference the final
/// block (the unit of block-parallel execution).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FractalNode {
    /// Tight bounding box of the node's points.
    pub aabb: Aabb,
    /// Number of points under this node.
    pub count: usize,
    /// Depth in the tree (root = 0).
    pub depth: usize,
    /// Parent node, `None` for the root.
    pub parent: Option<NodeId>,
    /// `(left, right)` children for internal nodes.
    pub children: Option<(NodeId, NodeId)>,
    /// Split axis and plane for internal nodes.
    pub split: Option<(Axis, f32)>,
    /// Index into the partition's block list when this node is a leaf.
    pub leaf_block: Option<usize>,
    /// Range `[start, end)` of this node's points in the DFT-ordered layout.
    pub range: (usize, usize),
}

impl FractalNode {
    /// True if the node is a leaf (a final block).
    pub fn is_leaf(&self) -> bool {
        self.children.is_none()
    }
}

/// The complete fractal tree: nodes plus the DFT leaf order.
///
/// Node 0 is always the root. Leaves appear in `leaves` in depth-first
/// (left-to-right) order, which is also their memory-layout order — the
/// property that makes neighbor-block access a *sequential* read (§IV-A).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FractalTree {
    nodes: Vec<FractalNode>,
    leaves: Vec<NodeId>,
}

impl FractalTree {
    /// Creates a tree from raw parts. Intended for the fractal builder; use
    /// [`crate::Fractal`] to construct trees from clouds.
    pub(crate) fn from_parts(nodes: Vec<FractalNode>, leaves: Vec<NodeId>) -> FractalTree {
        FractalTree { nodes, leaves }
    }

    /// The root node id (0), or `None` for an empty tree.
    pub fn root(&self) -> Option<NodeId> {
        if self.nodes.is_empty() {
            None
        } else {
            Some(0)
        }
    }

    /// All nodes, indexable by [`NodeId`].
    pub fn nodes(&self) -> &[FractalNode] {
        &self.nodes
    }

    /// A node by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &FractalNode {
        &self.nodes[id]
    }

    /// Leaf node ids in DFT order.
    pub fn leaves(&self) -> &[NodeId] {
        &self.leaves
    }

    /// Number of leaves (final blocks).
    pub fn num_leaves(&self) -> usize {
        self.leaves.len()
    }

    /// Maximum leaf depth.
    pub fn max_depth(&self) -> usize {
        self.leaves.iter().map(|&l| self.nodes[l].depth).max().unwrap_or(0)
    }

    /// The sibling of `id` (the other child of its parent), if any.
    pub fn sibling(&self, id: NodeId) -> Option<NodeId> {
        let parent = self.nodes[id].parent?;
        let (l, r) = self.nodes[parent].children.expect("parent is internal");
        Some(if l == id { r } else { l })
    }

    /// The leaf blocks under node `id` as the half-open run of block indices
    /// they occupy — contiguous, because leaves are numbered in DFT order:
    /// from the block of the leftmost leaf below `id` to the block after the
    /// rightmost. `O(depth)`, no allocation.
    pub(crate) fn leaf_run(&self, id: NodeId) -> (usize, usize) {
        let block = |side: fn((NodeId, NodeId)) -> NodeId| {
            let mut n = id;
            while let Some(children) = self.nodes[n].children {
                n = side(children);
            }
            self.nodes[n].leaf_block.expect("leaf has block")
        };
        (block(|(l, _)| l), block(|(_, r)| r) + 1)
    }

    /// The *search space* of leaf `id` for block-wise neighbor operations
    /// (§IV-B), as a run of block indices: the leaf itself at depth ≤ 1,
    /// otherwise every leaf block under its immediate parent.
    pub(crate) fn search_run(&self, id: NodeId) -> (usize, usize) {
        let node = &self.nodes[id];
        debug_assert!(node.is_leaf(), "search space is defined for leaves");
        match node.parent {
            Some(parent) if node.depth > 1 => self.leaf_run(parent),
            _ => self.leaf_run(id),
        }
    }

    /// Checks structural invariants; used by tests and debug assertions.
    /// Returns a human-readable violation if any.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes.is_empty() {
            return if self.leaves.is_empty() {
                Ok(())
            } else {
                Err("leaves without nodes".into())
            };
        }
        for (id, n) in self.nodes.iter().enumerate() {
            if let Some((l, r)) = n.children {
                if l >= self.nodes.len() || r >= self.nodes.len() {
                    return Err(format!("node {id}: child out of range"));
                }
                if self.nodes[l].parent != Some(id) || self.nodes[r].parent != Some(id) {
                    return Err(format!("node {id}: child parent link broken"));
                }
                if n.count != self.nodes[l].count + self.nodes[r].count {
                    return Err(format!("node {id}: count != sum of children"));
                }
                if n.split.is_none() {
                    return Err(format!("node {id}: internal node missing split"));
                }
                if n.leaf_block.is_some() {
                    return Err(format!("node {id}: internal node has leaf block"));
                }
                // DFT ranges: left occupies the front of the parent range.
                if self.nodes[l].range.0 != n.range.0
                    || self.nodes[l].range.1 != self.nodes[r].range.0
                    || self.nodes[r].range.1 != n.range.1
                {
                    return Err(format!("node {id}: children ranges do not tile parent"));
                }
            } else {
                if n.leaf_block.is_none() {
                    return Err(format!("node {id}: leaf missing block index"));
                }
                if !self.leaves.contains(&id) {
                    return Err(format!("node {id}: leaf not in DFT list"));
                }
            }
            if n.range.0 > n.range.1 {
                return Err(format!("node {id}: inverted range"));
            }
            if n.count != n.range.1 - n.range.0 {
                return Err(format!("node {id}: count != range width"));
            }
        }
        // DFT order: leaf ranges must be consecutive and increasing.
        let mut cursor = 0usize;
        for &l in &self.leaves {
            let r = self.nodes[l].range;
            if r.0 != cursor {
                return Err(format!("leaf {l}: range {r:?} breaks DFT contiguity at {cursor}"));
            }
            cursor = r.1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fractalcloud_pointcloud::Point3;

    /// Builds the Fig. 6 tree by hand: root(80) → B1(43)+B2(37);
    /// B1 → B3(19)+B4(24); B2 → B5(17)+B6(20).
    fn fig6_tree() -> FractalTree {
        let unit = Aabb::new(Point3::ORIGIN, Point3::splat(1.0));
        let mk = |count, depth, parent, children, split, leaf_block, range| FractalNode {
            aabb: unit,
            count,
            depth,
            parent,
            children,
            split,
            leaf_block,
            range,
        };
        let nodes = vec![
            mk(80, 0, None, Some((1, 2)), Some((Axis::X, 0.51)), None, (0, 80)),
            mk(43, 1, Some(0), Some((3, 4)), Some((Axis::Y, 0.41)), None, (0, 43)),
            mk(37, 1, Some(0), Some((5, 6)), Some((Axis::Y, 0.57)), None, (43, 80)),
            mk(19, 2, Some(1), None, None, Some(0), (0, 19)),
            mk(24, 2, Some(1), None, None, Some(1), (19, 43)),
            mk(17, 2, Some(2), None, None, Some(2), (43, 60)),
            mk(20, 2, Some(2), None, None, Some(3), (60, 80)),
        ];
        FractalTree::from_parts(nodes, vec![3, 4, 5, 6])
    }

    #[test]
    fn fig6_tree_validates() {
        fig6_tree().validate().unwrap();
    }

    #[test]
    fn sibling_lookup() {
        let t = fig6_tree();
        assert_eq!(t.sibling(3), Some(4));
        assert_eq!(t.sibling(4), Some(3));
        assert_eq!(t.sibling(1), Some(2));
        assert_eq!(t.sibling(0), None);
    }

    #[test]
    fn leaf_blocks_under_subtree_in_dft_order() {
        let t = fig6_tree();
        assert_eq!(t.leaf_run(0), (0, 4));
        assert_eq!(t.leaf_run(1), (0, 2));
        assert_eq!(t.leaf_run(2), (2, 4));
        assert_eq!(t.leaf_run(5), (2, 3));
    }

    #[test]
    fn search_space_follows_depth_rule() {
        let t = fig6_tree();
        // Depth-2 leaves search their parent: B3 searches {B3, B4} = B1.
        assert_eq!(t.search_run(3), (0, 2));
        assert_eq!(t.search_run(6), (2, 4));
        // B1 collapsed into a depth-1 leaf searches itself alone.
        let mut t = t;
        t.nodes[1].children = None;
        t.nodes[1].leaf_block = Some(0);
        assert_eq!(t.search_run(1), (0, 1));
    }

    #[test]
    fn validate_catches_broken_counts() {
        let mut t = fig6_tree();
        t.nodes[1].count = 44;
        assert!(t.validate().is_err());
    }

    #[test]
    fn validate_catches_broken_dft_ranges() {
        let mut t = fig6_tree();
        t.nodes[4].range = (20, 43);
        assert!(t.validate().is_err());
    }

    #[test]
    fn empty_tree_is_valid() {
        let t = FractalTree::default();
        t.validate().unwrap();
        assert_eq!(t.root(), None);
        assert_eq!(t.num_leaves(), 0);
    }

    #[test]
    fn max_depth_of_fig6_is_two() {
        assert_eq!(fig6_tree().max_depth(), 2);
    }
}
