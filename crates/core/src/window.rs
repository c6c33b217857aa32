//! The RSPU window-check module (Fig. 11(c)).
//!
//! In standard FPS every iteration traverses all points, including points
//! that were already sampled and can never be selected again. The hardware
//! window-check filters the candidate stream with a sampling-status mask: a
//! lowest-one detector (LOD, a priority encoder) finds the next valid
//! candidate and skips the address generator past sampled entries.
//!
//! This module is a bit-exact functional model of that datapath, including
//! the windowed access pattern (the mask is consulted `window` bits at a
//! time, matching the hardware's mask-window register width).

/// Functional model of the RSPU window-check unit.
///
/// Bit `i` is **1 while point `i` is still a valid candidate** (unsampled),
/// 0 once sampled — matching Fig. 11(c) where 1s participate and 0s are
/// skipped.
///
/// # Examples
///
/// ```
/// use fractalcloud_core::WindowCheck;
///
/// let mut wc = WindowCheck::new(8);
/// wc.mark_sampled(0);
/// wc.mark_sampled(1);
/// assert_eq!(wc.next_valid(0), Some(2)); // LOD skips two sampled points
/// assert_eq!(wc.skipped_total(), 0);     // skips are counted on traversal
/// let visited: Vec<usize> = wc.iter_valid().collect();
/// assert_eq!(visited, vec![2, 3, 4, 5, 6, 7]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowCheck {
    words: Vec<u64>,
    len: usize,
    valid: usize,
    skipped: u64,
}

impl WindowCheck {
    /// Hardware mask-window width in bits (one 64-bit mask word per fetch).
    pub const WINDOW_BITS: usize = 64;

    /// Creates a mask of `len` candidates, all valid.
    pub fn new(len: usize) -> WindowCheck {
        let words = vec![u64::MAX; len.div_ceil(64)];
        let mut wc = WindowCheck { words, len, valid: len, skipped: 0 };
        // Clear the tail bits beyond `len`.
        if !len.is_multiple_of(64) {
            let last = wc.words.len() - 1;
            wc.words[last] = (1u64 << (len % 64)) - 1;
        }
        wc
    }

    /// Number of candidates tracked.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no candidates are tracked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of still-valid (unsampled) candidates.
    pub fn valid_count(&self) -> usize {
        self.valid
    }

    /// True if candidate `i` is still valid.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn is_valid(&self, i: usize) -> bool {
        assert!(i < self.len, "candidate {i} out of range {}", self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Marks candidate `i` as sampled (clears its bit). Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn mark_sampled(&mut self, i: usize) {
        assert!(i < self.len, "candidate {i} out of range {}", self.len);
        let w = &mut self.words[i / 64];
        let bit = 1u64 << (i % 64);
        if *w & bit != 0 {
            *w &= !bit;
            self.valid -= 1;
        }
    }

    /// The lowest-one detector: index of the first valid candidate at or
    /// after `from`, or `None`. This is the priority-encoder operation the
    /// hardware performs on the mask window.
    pub fn next_valid(&self, from: usize) -> Option<usize> {
        if from >= self.len {
            return None;
        }
        let mut wi = from / 64;
        // Mask off bits below `from` in the first word.
        let mut word = self.words[wi] & (u64::MAX << (from % 64));
        loop {
            if word != 0 {
                let i = wi * 64 + word.trailing_zeros() as usize;
                return if i < self.len { Some(i) } else { None };
            }
            wi += 1;
            if wi >= self.words.len() {
                return None;
            }
            word = self.words[wi];
        }
    }

    /// Iterates over valid candidates in index order, counting skipped
    /// (sampled) entries into the skip counter — one full filtered traversal,
    /// exactly what one FPS iteration performs with window-check enabled.
    pub fn iter_valid(&mut self) -> IterValid<'_> {
        IterValid { wc: self, pos: 0 }
    }

    /// Total candidates skipped across all traversals so far (the redundant
    /// work eliminated versus no-window-check hardware).
    pub fn skipped_total(&self) -> u64 {
        self.skipped
    }
}

/// Iterator over valid candidates; see [`WindowCheck::iter_valid`].
#[derive(Debug)]
pub struct IterValid<'a> {
    wc: &'a mut WindowCheck,
    pos: usize,
}

impl Iterator for IterValid<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let next = self.wc.next_valid(self.pos)?;
        // Entries jumped over were skipped candidates.
        self.wc.skipped += (next - self.pos) as u64;
        self.pos = next + 1;
        Some(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_valid_initially() {
        let wc = WindowCheck::new(100);
        assert_eq!(wc.valid_count(), 100);
        assert!(wc.is_valid(0));
        assert!(wc.is_valid(99));
    }

    #[test]
    fn tail_bits_are_clear() {
        let wc = WindowCheck::new(70);
        assert_eq!(wc.next_valid(69), Some(69));
        assert_eq!(wc.next_valid(70), None);
    }

    #[test]
    fn mark_sampled_is_idempotent() {
        let mut wc = WindowCheck::new(10);
        wc.mark_sampled(3);
        wc.mark_sampled(3);
        assert_eq!(wc.valid_count(), 9);
        assert!(!wc.is_valid(3));
    }

    #[test]
    fn lod_finds_first_one_across_words() {
        let mut wc = WindowCheck::new(200);
        for i in 0..130 {
            wc.mark_sampled(i);
        }
        assert_eq!(wc.next_valid(0), Some(130));
        assert_eq!(wc.next_valid(131), Some(131));
    }

    #[test]
    fn next_valid_none_when_exhausted() {
        let mut wc = WindowCheck::new(5);
        for i in 0..5 {
            wc.mark_sampled(i);
        }
        assert_eq!(wc.next_valid(0), None);
        assert_eq!(wc.valid_count(), 0);
    }

    #[test]
    fn traversal_skip_counting_matches_fps_pattern() {
        // 10 candidates, 4 sampled: a filtered traversal visits 6 and
        // skips 4 (if the tail is valid; trailing sampled entries are never
        // jumped over because iteration ends at the last valid index).
        let mut wc = WindowCheck::new(10);
        for i in [1, 2, 5, 7] {
            wc.mark_sampled(i);
        }
        let visited: Vec<usize> = wc.iter_valid().collect();
        assert_eq!(visited, vec![0, 3, 4, 6, 8, 9]);
        assert_eq!(wc.skipped_total(), 4);
    }

    #[test]
    fn skips_accumulate_over_traversals() {
        let mut wc = WindowCheck::new(8);
        wc.mark_sampled(0);
        let _ = wc.iter_valid().count();
        wc.mark_sampled(4);
        let _ = wc.iter_valid().count();
        assert_eq!(wc.skipped_total(), 1 + 2);
    }

    #[test]
    fn empty_mask() {
        let mut wc = WindowCheck::new(0);
        assert!(wc.is_empty());
        assert_eq!(wc.next_valid(0), None);
        assert_eq!(wc.iter_valid().count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn is_valid_bounds_checked() {
        let wc = WindowCheck::new(4);
        let _ = wc.is_valid(4);
    }
}
