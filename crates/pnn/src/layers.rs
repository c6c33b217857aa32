//! The dense layer [`NetworkExecutor`](crate::NetworkExecutor) runs: seeded
//! weights, packed once, applied by the dispatched linear kernel.

use fractalcloud_parallel::{effective_budget, for_each_budget, lanes_for};
use fractalcloud_pointcloud::kernels;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Rows per register tile of [`kernels::linear_into`]: a lane's row range
/// is a whole number of tiles.
const TILE_ROWS: usize = 4;

/// A dense layer's multiply-accumulates per nanosecond on one lane, the
/// rate that turns [`Linear::macs`] into [`lanes_for`]'s work: the AVX2
/// kernel measures 28–44 GFLOP/s (`pnn.layers.linear_gflops`, 2 FLOPs per
/// MAC) on a 2-vCPU host as its speed drifts. At this rate a lane needs
/// 2¹⁸ MACs; below that a helper's hand-off costs more than its rows save
/// (a 1024 × 6 → 64 layer split in two ran slower than on one thread).
const MACS_PER_NS: u64 = 16;

/// A dense layer `y = relu(W·x + b)` with deterministic seeded weights.
///
/// The weights live only in the panel layout of
/// [`kernels::pack_linear_weights`]; the forward pass is
/// [`kernels::linear_into`] on the active kernel backend.
#[derive(Debug, Clone, PartialEq)]
pub struct Linear {
    /// Input width.
    pub cin: usize,
    /// Output width.
    pub cout: usize,
    packed: Vec<f32>,
    bias: Vec<f32>,
    relu: bool,
}

impl Linear {
    /// Creates a layer with Kaiming-ish uniform weights from `seed`.
    pub fn seeded(cin: usize, cout: usize, seed: u64, relu: bool) -> Linear {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x11ea5);
        let bound = (6.0 / (cin as f32)).sqrt();
        // Drawn in `cout × cin` row-major order (the seed → network mapping)
        // and written straight into the packed layout.
        let weights = (0..cin * cout).map(|_| rng.gen_range(-bound..bound));
        let packed = kernels::pack_linear_weights(weights, cin, cout);
        let bias = (0..cout).map(|_| rng.gen_range(-0.01..0.01)).collect();
        Linear { cin, cout, packed, bias, relu }
    }

    /// Applies the layer to a row-major `rows × cin` matrix, writing
    /// `rows × cout` into a caller-owned buffer (cleared and resized), so a
    /// warmed buffer performs no heap allocation.
    ///
    /// The rows are split into contiguous ranges of whole 4-row tiles
    /// over [`lanes_for`] the pass's [`Linear::macs`] at 16 per ns under
    /// [`fractalcloud_parallel::effective_budget`] — one lane per 2¹⁸
    /// multiply-accumulates, so small layers stay on the caller — and every
    /// range runs the kernel on the caller's backend. Each output element
    /// is computed in the same order whichever rows share a kernel call, so
    /// the result is bit-identical at every budget.
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` is not a multiple of `cin`.
    pub fn forward_into(&self, input: &[f32], out: &mut Vec<f32>) {
        assert_eq!(input.len() % self.cin, 0, "input width mismatch");
        let rows = input.len() / self.cin;
        out.clear();
        out.resize(rows * self.cout, 0.0);
        // Resolved here, so a `with_backend` override reaches helper lanes.
        let backend = kernels::active_backend();
        let kernel = |input: &[f32], out: &mut [f32]| {
            kernels::linear_into(backend, &self.packed, &self.bias, self.cin, self.relu, input, out)
        };
        let lanes = self.lanes(rows, effective_budget());
        if lanes <= 1 {
            return kernel(input, out);
        }
        let lane_rows = rows.div_ceil(TILE_ROWS).div_ceil(lanes) * TILE_ROWS;
        let ranges = input.chunks(lane_rows * self.cin).zip(out.chunks_mut(lane_rows * self.cout));
        for_each_budget(ranges, lanes, |(input, out)| kernel(input, out));
    }

    /// Lanes a pass over `rows` rows takes at `budget`: [`lanes_for`] its
    /// multiply-accumulates, at most one per 4-row tile (one or none: the
    /// caller runs the kernel itself).
    fn lanes(&self, rows: usize, budget: usize) -> usize {
        lanes_for(budget, self.macs(rows) / MACS_PER_NS).min(rows / TILE_ROWS)
    }

    /// Multiply-accumulates performed by a forward pass over `rows` rows.
    pub fn macs(&self, rows: usize) -> u64 {
        (rows * self.cin * self.cout) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn forward(l: &Linear, input: &[f32]) -> Vec<f32> {
        let mut out = Vec::new();
        l.forward_into(input, &mut out);
        out
    }

    #[test]
    fn linear_shapes_and_determinism() {
        let l = Linear::seeded(4, 8, 1, true);
        let out = forward(&l, &[0.5; 12]);
        assert_eq!(out.len(), 3 * 8);
        let l2 = Linear::seeded(4, 8, 1, true);
        assert_eq!(out, forward(&l2, &[0.5; 12]));
    }

    #[test]
    fn relu_clamps_negatives() {
        let l = Linear::seeded(2, 4, 3, true);
        let out = forward(&l, &[-10.0, -10.0]);
        assert!(out.iter().all(|&v| v >= 0.0));
        let l = Linear::seeded(2, 4, 3, false);
        let out = forward(&l, &[-10.0, -10.0]);
        assert!(out.iter().any(|&v| v < 0.0));
    }

    #[test]
    fn split_rows_are_bit_identical_at_every_budget() {
        use fractalcloud_parallel::with_budget;
        use fractalcloud_pointcloud::kernels::{with_backend, Backend};
        // Wide enough to split four ways; a ragged last tile.
        let l = Linear::seeded(64, 128, 5, true);
        let rows = 1027;
        let input: Vec<f32> =
            (0..rows * 64).map(|i| ((i * 37 % 101) as f32 - 50.0) / 25.0).collect();
        for backend in Backend::ALL {
            let at = |budget| with_budget(budget, || with_backend(backend, || forward(&l, &input)));
            let one: Vec<u32> = at(1).iter().map(|v| v.to_bits()).collect();
            for budget in [2, 3, 4, 64] {
                let split: Vec<u32> = at(budget).iter().map(|v| v.to_bits()).collect();
                assert!(split == one, "{backend:?}, budget {budget}");
            }
        }
    }

    #[test]
    fn lanes_at_every_served_classifier_shape_match_the_row_rule() {
        use crate::{ModelConfig, Segments};
        // Every dense layer of a delayed PN++ (c) request at the 1 024
        // points INFER serves objects at.
        let plan = Segments::new(&ModelConfig::pointnetpp_classification(), 1024).unwrap();
        let shapes: Vec<_> = plan
            .abstraction
            .iter()
            .flat_map(|sa| sa.grouped_mlp(sa.n_in).collect::<Vec<_>>())
            .chain(plan.head.iter().copied())
            .collect();
        for shape in shapes {
            let l = Linear::seeded(shape.cin, shape.cout, 0, true);
            for budget in 1..=8 {
                // The rule before `lanes_for`: min(budget, rows / 4,
                // MACs / 2¹⁸), one lane below two.
                let macs = shape.rows * shape.cin * shape.cout;
                let rule = budget.min(shape.rows / TILE_ROWS).min(macs >> 18).max(1);
                let lanes = l.lanes(shape.rows, budget).max(1);
                assert_eq!(lanes, rule, "{shape:?} at budget {budget}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn linear_checks_width() {
        let l = Linear::seeded(3, 2, 0, true);
        let _ = forward(&l, &[1.0; 4]);
    }
}
