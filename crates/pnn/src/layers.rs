//! The dense layer [`NetworkExecutor`](crate::NetworkExecutor) runs: seeded
//! weights, packed once, applied by the dispatched linear kernel.

use fractalcloud_pointcloud::kernels;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
    /// # Panics
    ///
    /// Panics if `input.len()` is not a multiple of `cin`.
    pub fn forward_into(&self, input: &[f32], out: &mut Vec<f32>) {
        assert_eq!(input.len() % self.cin, 0, "input width mismatch");
        out.clear();
        out.resize(input.len() / self.cin * self.cout, 0.0);
        kernels::linear_into(
            kernels::active_backend(),
            &self.packed,
            &self.bias,
            self.cin,
            self.relu,
            input,
            out,
        );
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
    #[should_panic(expected = "width mismatch")]
    fn linear_checks_width() {
        let l = Linear::seeded(3, 2, 0, true);
        let _ = forward(&l, &[1.0; 4]);
    }
}
