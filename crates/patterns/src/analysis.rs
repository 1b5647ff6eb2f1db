//! Local pattern analysis — workflow step ① (Algorithm 2).
//!
//! Tiles the matrix into `p × p` submatrices, represents each occupied
//! submatrix as a bitmask, and builds the `(bitmask, frequency)` histogram
//! that drives template selection and the Fig. 2 / Fig. 3 observations.

use std::collections::HashMap;

use spasm_sparse::Coo;

use crate::grid::{GridSize, Mask};

/// Accumulates the per-submatrix occupancy masks of one contiguous triplet
/// range. Entries arrive in `(row, col)` order; within a submatrix-row band
/// they interleave across submatrix columns, so accumulate per `(block row,
/// block col)` in a map keyed by packed coordinates.
fn block_map_range(
    matrix: &Coo,
    size: GridSize,
    lo: usize,
    hi: usize,
) -> HashMap<(u32, u32), Mask> {
    let p = size.edge();
    let rows = &matrix.row_indices()[lo..hi];
    let cols = &matrix.col_indices()[lo..hi];
    let mut blocks: HashMap<(u32, u32), Mask> = HashMap::new();
    for (&r, &c) in rows.iter().zip(cols) {
        let key = (r / p, c / p);
        *blocks.entry(key).or_insert(0) |= 1 << size.bit(r % p, c % p);
    }
    blocks
}

/// Triplet count below which sharding costs more than it saves.
const PARALLEL_ANALYZE_THRESHOLD: usize = 1 << 14;

fn block_map(matrix: &Coo, size: GridSize) -> HashMap<(u32, u32), Mask> {
    use rayon::prelude::*;

    let nnz = matrix.nnz();
    let threads = rayon::current_num_threads();
    if threads < 2 || nnz < PARALLEL_ANALYZE_THRESHOLD {
        return block_map_range(matrix, size, 0, nnz);
    }
    // Contiguous shards; a submatrix straddling a shard boundary shows up
    // in two partial maps and its mask bits are OR-merged below.
    let shard_len = nnz.div_ceil(threads);
    let shards: Vec<HashMap<(u32, u32), Mask>> = (0..threads)
        .map(|i| (i * shard_len, ((i + 1) * shard_len).min(nnz)))
        .filter(|&(lo, hi)| lo < hi)
        .collect::<Vec<_>>()
        .into_par_iter()
        .map(|(lo, hi)| block_map_range(matrix, size, lo, hi))
        .collect();
    let mut merged: HashMap<(u32, u32), Mask> = HashMap::new();
    for shard in shards {
        for (key, mask) in shard {
            *merged.entry(key).or_insert(0) |= mask;
        }
    }
    merged
}

/// Frequency histogram of the local patterns occurring in a matrix.
///
/// # Examples
///
/// ```
/// use spasm_patterns::{GridSize, PatternHistogram};
/// use spasm_sparse::Coo;
///
/// # fn main() -> Result<(), spasm_sparse::SparseError> {
/// // Two occupied 4x4 submatrices: a diagonal and a lone cell.
/// let m = Coo::from_triplets(8, 8, vec![
///     (0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0), (3, 3, 1.0),
///     (5, 6, 2.0),
/// ])?;
/// let h = PatternHistogram::analyze(&m, GridSize::S4);
/// assert_eq!(h.total_blocks(), 2);
/// assert_eq!(h.distinct_patterns(), 2);
/// assert!(h.top_n_coverage(1) >= 0.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternHistogram {
    size: GridSize,
    freq: HashMap<Mask, u64>,
    total: u64,
}

impl PatternHistogram {
    /// Runs Algorithm 2 (`LP_ANALYSIS`): tiles `matrix` into `p × p`
    /// submatrices and histograms their occupancy bitmasks. Empty
    /// submatrices are skipped (the paper excludes the empty block).
    ///
    /// With more than one worker in the ambient thread budget, the
    /// triplet stream is sharded into contiguous ranges, each worker
    /// accumulates a private block map, and the shards are OR-merged by
    /// mask — bitwise OR is associative and commutative, so the histogram
    /// is identical to the serial one for every thread count.
    pub fn analyze(matrix: &Coo, size: GridSize) -> Self {
        let blocks = block_map(matrix, size);
        let mut freq: HashMap<Mask, u64> = HashMap::new();
        for mask in blocks.into_values() {
            *freq.entry(mask).or_insert(0) += 1;
        }
        let total = freq.values().sum();
        PatternHistogram { size, freq, total }
    }

    /// Builds a histogram directly from `(mask, frequency)` pairs — useful
    /// for tests and synthetic studies.
    ///
    /// # Panics
    ///
    /// Panics if a mask has bits outside the grid or is zero.
    pub fn from_counts(size: GridSize, counts: impl IntoIterator<Item = (Mask, u64)>) -> Self {
        let mut freq = HashMap::new();
        for (mask, f) in counts {
            assert_ne!(mask, 0, "empty block excluded from the histogram");
            assert_eq!(mask & !size.full_mask(), 0, "mask outside {size} grid");
            *freq.entry(mask).or_insert(0) += f;
        }
        let total = freq.values().sum();
        PatternHistogram { size, freq, total }
    }

    /// The grid size used for the analysis.
    pub fn size(&self) -> GridSize {
        self.size
    }

    /// Number of occupied submatrices observed.
    pub fn total_blocks(&self) -> u64 {
        self.total
    }

    /// Number of *distinct* local patterns observed.
    pub fn distinct_patterns(&self) -> usize {
        self.freq.len()
    }

    /// Iterates `(mask, frequency)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&Mask, &u64)> {
        self.freq.iter()
    }

    /// Frequency of one pattern (0 if never observed).
    pub fn frequency(&self, mask: Mask) -> u64 {
        self.freq.get(&mask).copied().unwrap_or(0)
    }

    /// The `n` most frequent patterns, ordered by descending frequency
    /// (ties broken by ascending mask for determinism).
    pub fn top_n(&self, n: usize) -> Vec<(Mask, u64)> {
        let mut all: Vec<(Mask, u64)> = self.freq.iter().map(|(&m, &f)| (m, f)).collect();
        all.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        all.truncate(n);
        all
    }

    /// Fraction of all observed blocks covered by the top `n` patterns —
    /// one point of the Fig. 3 CDF.
    pub fn top_n_coverage(&self, n: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let covered: u64 = self.top_n(n).iter().map(|&(_, f)| f).sum();
        covered as f64 / self.total as f64
    }

    /// The full CDF series of Fig. 3: coverage after the 1st, 2nd, …
    /// most-frequent pattern.
    pub fn coverage_cdf(&self) -> Vec<f64> {
        let mut all: Vec<u64> = self.freq.values().copied().collect();
        all.sort_unstable_by(|a, b| b.cmp(a));
        let mut acc = 0u64;
        all.iter()
            .map(|f| {
                acc += f;
                if self.total == 0 {
                    0.0
                } else {
                    acc as f64 / self.total as f64
                }
            })
            .collect()
    }

    /// Smallest `n` such that the top-n patterns cover at least `fraction`
    /// of all blocks ("n could be varying when we let the top-n patterns
    /// count up a certain portion", Section II-B).
    pub fn n_for_coverage(&self, fraction: f64) -> usize {
        let cdf = self.coverage_cdf();
        cdf.iter()
            .position(|&c| c >= fraction)
            .map_or(cdf.len(), |i| i + 1)
    }

    /// Restricts the histogram to its top-n patterns (the
    /// `subset_pfreq` of Algorithm 3).
    pub fn top_n_histogram(&self, n: usize) -> PatternHistogram {
        PatternHistogram::from_counts(self.size, self.top_n(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spasm_sparse::Coo;

    /// 8x8 matrix: a full 4x4 block at (0,0), a main diagonal in the (4..8,
    /// 4..8) submatrix, and a single entry in the (0..4, 4..8) submatrix.
    fn sample() -> Coo {
        let mut t = Vec::new();
        for r in 0..4u32 {
            for c in 0..4u32 {
                t.push((r, c, 1.0));
            }
        }
        for i in 0..4u32 {
            t.push((4 + i, 4 + i, 2.0));
        }
        t.push((0, 7, 3.0));
        Coo::from_triplets(8, 8, t).unwrap()
    }

    #[test]
    fn histogram_counts_blocks() {
        let h = PatternHistogram::analyze(&sample(), GridSize::S4);
        assert_eq!(h.total_blocks(), 3);
        assert_eq!(h.distinct_patterns(), 3);
        assert_eq!(h.frequency(0xFFFF), 1); // dense block
        let diag = GridSize::S4.mask_of([(0, 0), (1, 1), (2, 2), (3, 3)]);
        assert_eq!(h.frequency(diag), 1);
        let lone = GridSize::S4.mask_of([(0, 3)]);
        assert_eq!(h.frequency(lone), 1);
    }

    #[test]
    fn top_n_and_cdf() {
        let h =
            PatternHistogram::from_counts(GridSize::S4, [(0xFFFF, 50), (0x000F, 30), (0x0001, 20)]);
        assert_eq!(h.top_n(2), vec![(0xFFFF, 50), (0x000F, 30)]);
        assert!((h.top_n_coverage(1) - 0.5).abs() < 1e-12);
        assert!((h.top_n_coverage(2) - 0.8).abs() < 1e-12);
        let cdf = h.coverage_cdf();
        assert_eq!(cdf.len(), 3);
        assert!((cdf[2] - 1.0).abs() < 1e-12);
        assert_eq!(h.n_for_coverage(0.75), 2);
        assert_eq!(h.n_for_coverage(1.0), 3);
    }

    #[test]
    fn top_n_histogram_restricts() {
        let h =
            PatternHistogram::from_counts(GridSize::S4, [(0xFFFF, 50), (0x000F, 30), (0x0001, 20)]);
        let top = h.top_n_histogram(2);
        assert_eq!(top.total_blocks(), 80);
        assert_eq!(top.distinct_patterns(), 2);
        assert_eq!(top.frequency(0x0001), 0);
    }

    #[test]
    fn different_grid_sizes_see_different_patterns() {
        let h2 = PatternHistogram::analyze(&sample(), GridSize::S2);
        // The dense 4x4 block yields four full 2x2 blocks.
        assert_eq!(h2.frequency(GridSize::S2.full_mask()), 4);
    }

    #[test]
    fn empty_matrix_has_empty_histogram() {
        let h = PatternHistogram::analyze(&Coo::new(16, 16), GridSize::S4);
        assert_eq!(h.total_blocks(), 0);
        assert_eq!(h.coverage_cdf().len(), 0);
        assert_eq!(h.top_n_coverage(5), 0.0);
    }

    #[test]
    fn ties_break_deterministically() {
        let h = PatternHistogram::from_counts(GridSize::S4, [(0x2, 5), (0x1, 5)]);
        assert_eq!(h.top_n(2), vec![(0x1, 5), (0x2, 5)]);
    }
}
