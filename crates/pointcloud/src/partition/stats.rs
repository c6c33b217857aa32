//! Balance statistics over partition block sizes.

/// Summary statistics of block populations.
///
/// The paper's discussion (§VI-D) centers on *imbalance*: both latency and
/// memory load are dominated by the largest block, so
/// [`BalanceStats::imbalance`] (max / mean) is the figure of merit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BalanceStats {
    /// Number of blocks.
    pub blocks: usize,
    /// Smallest block population.
    pub min: usize,
    /// Largest block population.
    pub max: usize,
    /// Mean block population.
    pub mean: f64,
    /// Population standard deviation of block sizes.
    pub std_dev: f64,
}

impl BalanceStats {
    /// Computes statistics from an iterator of block sizes.
    ///
    /// Returns a zeroed record for an empty iterator.
    pub fn from_sizes<I: IntoIterator<Item = usize>>(sizes: I) -> BalanceStats {
        let sizes: Vec<usize> = sizes.into_iter().collect();
        if sizes.is_empty() {
            return BalanceStats { blocks: 0, min: 0, max: 0, mean: 0.0, std_dev: 0.0 };
        }
        let min = *sizes.iter().min().expect("non-empty");
        let max = *sizes.iter().max().expect("non-empty");
        let mean = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        let var =
            sizes.iter().map(|&s| (s as f64 - mean).powi(2)).sum::<f64>() / sizes.len() as f64;
        BalanceStats { blocks: sizes.len(), min, max, mean, std_dev: var.sqrt() }
    }

    /// Imbalance factor `max / mean` (1.0 = strictly balanced).
    pub fn imbalance(&self) -> f64 {
        if self.mean == 0.0 {
            1.0
        } else {
            self.max as f64 / self.mean
        }
    }

    /// Coefficient of variation `σ / mean`.
    pub fn cv(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.std_dev / self.mean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_sizes_have_unit_imbalance() {
        let s = BalanceStats::from_sizes([20, 20, 20, 20]);
        assert_eq!(s.imbalance(), 1.0);
        assert_eq!(s.cv(), 0.0);
        assert_eq!(s.blocks, 4);
    }

    #[test]
    fn skewed_sizes_show_imbalance() {
        // Fig. 3(b)'s uniform partition example: 27/28/13/12.
        let s = BalanceStats::from_sizes([27, 28, 13, 12]);
        assert_eq!(s.min, 12);
        assert_eq!(s.max, 28);
        assert!((s.mean - 20.0).abs() < 1e-9);
        assert!((s.imbalance() - 1.4).abs() < 1e-9);
        assert!(s.cv() > 0.3);
    }

    #[test]
    fn fractal_example_is_moderately_balanced() {
        // Fig. 3(d): 19/24/17/20 — moderate balance (imbalance exactly 1.2).
        let s = BalanceStats::from_sizes([19, 24, 17, 20]);
        assert!(s.imbalance() <= 1.2 + 1e-9);
    }

    #[test]
    fn empty_input_is_zeroed() {
        let s = BalanceStats::from_sizes(std::iter::empty());
        assert_eq!(s.blocks, 0);
        assert_eq!(s.imbalance(), 1.0);
    }
}
