//! Minimal real-arithmetic neural layers for the CPU reference executor.

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

    /// Applies the layer to a row-major `rows × cin` matrix, producing
    /// `rows × cout`.
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` is not a multiple of `cin`.
    pub fn forward(&self, input: &[f32]) -> Vec<f32> {
        let mut out = Vec::new();
        self.forward_into(input, &mut out);
        out
    }

    /// [`Linear::forward`] writing into a caller-owned buffer (cleared and
    /// resized to `rows × cout`), so a warmed buffer performs no heap
    /// allocation. Results are bit-identical to [`Linear::forward`] — the
    /// allocating form calls this one.
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

/// Max-pools a row-major `(groups × size) × channels` tensor over the
/// `size` axis, producing `groups × channels`.
///
/// # Panics
///
/// Panics if the buffer does not match `groups × size × channels`.
pub fn max_pool(input: &[f32], groups: usize, size: usize, channels: usize) -> Vec<f32> {
    assert_eq!(input.len(), groups * size * channels, "pool shape mismatch");
    let mut out = vec![f32::NEG_INFINITY; groups * channels];
    for g in 0..groups {
        for s in 0..size {
            let row = &input[(g * size + s) * channels..(g * size + s + 1) * channels];
            let o = &mut out[g * channels..(g + 1) * channels];
            for (ov, rv) in o.iter_mut().zip(row) {
                *ov = ov.max(*rv);
            }
        }
    }
    out
}

/// Concatenates two row-major matrices with equal row counts along the
/// channel axis.
///
/// # Panics
///
/// Panics if row counts disagree.
pub fn concat_channels(a: &[f32], ca: usize, b: &[f32], cb: usize) -> Vec<f32> {
    let rows = a.len().checked_div(ca).unwrap_or(b.len() / cb.max(1));
    assert_eq!(rows * ca, a.len(), "lhs shape mismatch");
    assert_eq!(rows * cb, b.len(), "rhs shape mismatch");
    let mut out = Vec::with_capacity(rows * (ca + cb));
    for r in 0..rows {
        out.extend_from_slice(&a[r * ca..(r + 1) * ca]);
        out.extend_from_slice(&b[r * cb..(r + 1) * cb]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_shapes_and_determinism() {
        let l = Linear::seeded(4, 8, 1, true);
        let out = l.forward(&[0.5; 12]);
        assert_eq!(out.len(), 3 * 8);
        let l2 = Linear::seeded(4, 8, 1, true);
        assert_eq!(l.forward(&[0.5; 12]), l2.forward(&[0.5; 12]));
    }

    #[test]
    fn relu_clamps_negatives() {
        let l = Linear::seeded(2, 4, 3, true);
        let out = l.forward(&[-10.0, -10.0]);
        assert!(out.iter().all(|&v| v >= 0.0));
        let l = Linear::seeded(2, 4, 3, false);
        let out = l.forward(&[-10.0, -10.0]);
        assert!(out.iter().any(|&v| v < 0.0));
    }

    #[test]
    fn max_pool_picks_maxima() {
        // 1 group, 3 elements, 2 channels.
        let input = [1.0, 5.0, 3.0, 2.0, -1.0, 9.0];
        assert_eq!(max_pool(&input, 1, 3, 2), vec![3.0, 9.0]);
    }

    #[test]
    fn concat_interleaves_rows() {
        let a = [1.0, 2.0, 3.0, 4.0]; // 2×2
        let b = [9.0, 8.0]; // 2×1
        assert_eq!(concat_channels(&a, 2, &b, 1), vec![1.0, 2.0, 9.0, 3.0, 4.0, 8.0]);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn linear_checks_width() {
        let l = Linear::seeded(3, 2, 0, true);
        let _ = l.forward(&[1.0; 4]);
    }
}
