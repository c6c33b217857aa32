//! Cross-crate property-based tests (proptest) over the core invariants.

use fractalcloud::core::{block_fps, block_sample_counts, BppoConfig, Fractal};
use fractalcloud::dram::{Controller, DramConfig, Request};
use fractalcloud::pointcloud::ops::{ball_query, farthest_point_sample, k_nearest_neighbors};
use fractalcloud::pointcloud::partition::{
    KdTreePartitioner, OctreePartitioner, Partitioner, UniformPartitioner,
};
use fractalcloud::pointcloud::{Point3, PointCloud};
use fractalcloud_oracle::WindowCheck;
use proptest::prelude::*;

fn arb_cloud(max_n: usize) -> impl Strategy<Value = PointCloud> {
    proptest::collection::vec((-100.0f32..100.0, -100.0f32..100.0, -50.0f32..50.0), 1..max_n)
        .prop_map(|v| {
            PointCloud::from_points(v.into_iter().map(|(x, y, z)| Point3::new(x, y, z)).collect())
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every partitioner produces an exact partition of the input, and the
    /// tree-based ones respect their thresholds.
    #[test]
    fn partitioners_are_exact((cloud, th) in (arb_cloud(400), 2usize..64)) {
        let n = cloud.len();
        let fr = Fractal::with_threshold(th).build(&cloud).unwrap();
        prop_assert!(fr.partition.is_exact_partition_of(n));
        fr.tree.validate().map_err(TestCaseError::fail)?;

        let kd = KdTreePartitioner::new(th).partition(&cloud).unwrap();
        prop_assert!(kd.is_exact_partition_of(n));
        prop_assert!(kd.blocks.iter().all(|b| b.len() <= th));

        let oc = OctreePartitioner::new(th).partition(&cloud).unwrap();
        prop_assert!(oc.is_exact_partition_of(n));

        let un = UniformPartitioner::with_target_block_size(th).partition(&cloud).unwrap();
        prop_assert!(un.is_exact_partition_of(n));
    }

    /// Fractal leaves are spatially disjoint from their siblings along the
    /// parent's split axis.
    #[test]
    fn fractal_split_separates_children(cloud in arb_cloud(300)) {
        let fr = Fractal::with_threshold(16).build(&cloud).unwrap();
        for node in fr.tree.nodes() {
            if let (Some((l, r)), Some((axis, mid))) = (node.children, node.split) {
                let left = fr.tree.node(l);
                let right = fr.tree.node(r);
                prop_assert!(left.aabb.max().coord(axis) <= mid + 1e-4);
                prop_assert!(right.aabb.min().coord(axis) >= mid - 1e-4);
            }
        }
    }

    /// Block FPS with th ≥ n equals global FPS from the same start.
    #[test]
    fn single_block_fps_equals_global(cloud in arb_cloud(200), rate in 0.1f64..0.9) {
        let fr = Fractal::with_threshold(cloud.len().max(1)).build(&cloud).unwrap();
        prop_assume!(fr.partition.blocks.len() == 1);
        let block = block_fps(&cloud, &fr.partition, rate, &BppoConfig::sequential()).unwrap();
        if !block.indices.is_empty() {
            let start = fr.partition.blocks[0].indices[0];
            let global = farthest_point_sample(&cloud, block.indices.len(), start).unwrap();
            prop_assert_eq!(block.indices, global.indices);
        }
    }

    /// Fixed-rate sample allocation always sums to the rounded target and
    /// never exceeds any block.
    #[test]
    fn sample_counts_invariants(
        sizes in proptest::collection::vec(1usize..500, 1..40),
        rate in 0.0f64..1.0,
    ) {
        let counts = block_sample_counts(&sizes, rate);
        let total: usize = sizes.iter().sum();
        let target = ((total as f64) * rate).round() as usize;
        prop_assert_eq!(counts.iter().sum::<usize>(), target);
        for (c, s) in counts.iter().zip(&sizes) {
            prop_assert!(c <= s);
        }
    }

    /// Ball query neighbors are within the radius (before padding) and KNN
    /// rows are sorted by distance.
    #[test]
    fn neighbor_search_contracts(cloud in arb_cloud(200), radius in 1.0f32..50.0) {
        let centers: Vec<Point3> = cloud.iter().take(8).collect();
        let bq = ball_query(&cloud, &centers, radius, 8).unwrap();
        for (c, &center) in centers.iter().enumerate() {
            for (slot, &i) in bq.row(c).iter().enumerate() {
                if slot < bq.found[c] {
                    prop_assert!(cloud.point(i).distance(center) <= radius + 1e-4);
                }
            }
        }
        let k = 4.min(cloud.len());
        let knn = k_nearest_neighbors(&cloud, &centers, k).unwrap();
        for c in 0..centers.len() {
            let d = knn.distance_row(c);
            for w in d.windows(2) {
                prop_assert!(w[0] <= w[1]);
            }
        }
    }

    /// The window check never reports more valid candidates than exist and
    /// the LOD always lands on a valid candidate.
    #[test]
    fn window_check_invariants(
        n in 1usize..300,
        marks in proptest::collection::vec(0usize..300, 0..64),
    ) {
        let mut wc = WindowCheck::new(n);
        for m in marks {
            if m < n {
                wc.mark_sampled(m);
            }
        }
        let mut count = 0;
        let mut pos = 0;
        while let Some(i) = wc.next_valid(pos) {
            prop_assert!(wc.is_valid(i));
            pos = i + 1;
            count += 1;
        }
        prop_assert_eq!(count, wc.valid_count());
    }

    /// The DRAM controller serves any in-range request trace to completion
    /// without protocol violations (Bank::issue panics on violations).
    #[test]
    fn dram_controller_protocol_holds(
        addrs in proptest::collection::vec(0u64..(1 << 28), 1..64),
        writes in proptest::collection::vec(any::<bool>(), 64),
    ) {
        let mut ctrl = Controller::new(DramConfig::ddr4_2133());
        let reqs: Vec<Request> = addrs
            .iter()
            .zip(&writes)
            .map(|(&a, &w)| Request { addr: a & !63, is_write: w, arrival: 0 })
            .collect();
        let r = ctrl.run_trace(&reqs);
        prop_assert_eq!(r.requests, reqs.len() as u64);
        prop_assert!(r.cycles > 0);
        let classified = r.row_hits + r.row_misses + r.row_conflicts;
        prop_assert_eq!(classified, reqs.len() as u64);
    }
}
