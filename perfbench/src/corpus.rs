//! Generated inputs: matrices, request vectors, arrival schedules and
//! delta streams. Everything derives from the workload seed.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spasm_sparse::{Coo, Csr, DeltaOp, MatrixDelta, SpMv};
use spasm_workloads::{Scale, Workload};

/// The three matrices every workload runs, so the per-matrix layer
/// metrics exist on each of them.
pub const CORE: [&str; 3] = ["raefsky3", "tmt_sym", "mycielskian14"];

/// One corpus matrix at medium scale.
pub struct Matrix {
    pub name: &'static str,
    pub coo: Coo,
    pub csr: Csr,
}

impl Matrix {
    pub fn generate(name: &'static str) -> Matrix {
        let workload = Workload::from_name(name).expect("corpus names are suite workloads");
        let coo = workload.generate(Scale::Medium);
        let csr = Csr::from(&coo);
        Matrix { name, coo, csr }
    }

    pub fn nnz(&self) -> usize {
        self.csr.nnz()
    }
}

pub fn generate(names: &[&'static str]) -> Vec<Matrix> {
    names.iter().map(|n| Matrix::generate(n)).collect()
}

/// A stream of independent generators split from the workload seed.
pub fn rng(seed: u64, stream: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream)
}

/// `n` request vectors of length `cols`, entries uniform in [-1, 1).
pub fn vectors(rng: &mut SmallRng, cols: usize, n: usize) -> Vec<Vec<f32>> {
    (0..n)
        .map(|_| (0..cols).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .collect()
}

/// `y = A·x` on the CSR reference.
pub fn csr_product(csr: &Csr, x: &[f32]) -> Vec<f32> {
    let mut y = vec![0.0f32; csr.rows() as usize];
    csr.spmv(x, &mut y).expect("reference shapes match");
    y
}

/// The differential-test bound: `|got - want| <= 1e-3 · (1 + |want|)`.
pub fn within_bound(got: &[f32], want: &[f32]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| (g - w).abs() <= 1e-3 * (1.0 + w.abs()))
}

pub fn bit_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// One open-loop request: due time, matrix, and request vector index.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    pub due_us: u64,
    pub matrix: usize,
    pub vector: usize,
}

/// Poisson arrivals at `rate` per second over `seconds`; the matrix is
/// drawn with Zipf weight `1/(k+1)^skew` over `matrices`, the vector
/// uniformly from a pool of `pool`.
pub fn arrivals(
    rng: &mut SmallRng,
    rate: f64,
    seconds: f64,
    matrices: usize,
    skew: f64,
    pool: usize,
) -> Vec<Arrival> {
    let weights: Vec<f64> = (0..matrices)
        .map(|k| 1.0 / ((k + 1) as f64).powf(skew))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut out = Vec::new();
    let mut t = 0.0f64;
    loop {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        t += -u.ln() / rate;
        if t >= seconds {
            return out;
        }
        let mut pick = rng.gen_range(0.0..total);
        let mut matrix = matrices - 1;
        for (k, w) in weights.iter().enumerate() {
            if pick < *w {
                matrix = k;
                break;
            }
            pick -= w;
        }
        out.push(Arrival {
            due_us: (t * 1e6) as u64,
            matrix,
            vector: rng.gen_range(0..pool),
        });
    }
}

/// Applies a delta the delta layer accepted to a CSR copy, giving the
/// matrix version the plan holds afterwards.
pub fn apply_to_csr(csr: &Csr, delta: &MatrixDelta) -> Csr {
    let mut by_row: std::collections::BTreeMap<u32, Vec<DeltaOp>> = Default::default();
    for op in delta.ops() {
        by_row.entry(op.coord().0).or_default().push(*op);
    }
    let (rows, cols) = (csr.rows(), csr.cols());
    let (ptr, idx, val) = (csr.row_ptr(), csr.col_indices(), csr.values());
    let mut row_ptr = Vec::with_capacity(ptr.len());
    let mut col_idx = Vec::with_capacity(idx.len() + delta.len());
    let mut values = Vec::with_capacity(idx.len() + delta.len());
    row_ptr.push(0);
    for r in 0..rows {
        let span = ptr[r as usize]..ptr[r as usize + 1];
        match by_row.get(&r) {
            None => {
                col_idx.extend_from_slice(&idx[span.clone()]);
                values.extend_from_slice(&val[span]);
            }
            Some(ops) => {
                let mut cells: std::collections::BTreeMap<u32, f32> = idx[span.clone()]
                    .iter()
                    .copied()
                    .zip(val[span].iter().copied())
                    .collect();
                for op in ops {
                    match *op {
                        DeltaOp::Patch { col, value, .. } | DeltaOp::Insert { col, value, .. } => {
                            cells.insert(col, value);
                        }
                        DeltaOp::Delete { col, .. } => {
                            cells.remove(&col);
                        }
                    }
                }
                for (c, v) in cells {
                    col_idx.push(c);
                    values.push(v);
                }
            }
        }
        row_ptr.push(col_idx.len());
    }
    Csr::from_raw(rows, cols, row_ptr, col_idx, values).expect("a valid delta keeps CSR valid")
}

/// Moves a CSR copy to the matrix version `delta` produces: values-only
/// deltas patch in place, structural ones rebuild the arrays.
pub fn advance(csr: &mut Csr, delta: &MatrixDelta) {
    if delta.is_values_only() {
        for op in delta.ops() {
            if let DeltaOp::Patch { row, col, value } = *op {
                csr.patch_value(row, col, value);
            }
        }
    } else {
        *csr = apply_to_csr(csr, delta);
    }
}

/// Drops the ops of `delta` that touch a cell in `avoid`, so a
/// values-only stream stays valid whatever a structural stream beside it
/// has done.
pub fn without_cells(
    delta: &MatrixDelta,
    avoid: &std::collections::HashSet<(u32, u32)>,
) -> MatrixDelta {
    delta
        .ops()
        .iter()
        .filter(|op| !avoid.contains(&op.coord()))
        .copied()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_to_csr_matches_cellwise_edit() {
        let coo = Coo::from_triplets(4, 4, vec![(0, 0, 1.0), (1, 2, 2.0), (3, 3, 3.0)])
            .expect("triplets");
        let csr = Csr::from(&coo);
        let delta = MatrixDelta::new()
            .patch(0, 0, 5.0)
            .insert(1, 0, 4.0)
            .delete(3, 3);
        delta.validate(&csr).expect("valid delta");
        let next = apply_to_csr(&csr, &delta);
        assert_eq!(next.get(0, 0), Some(5.0));
        assert_eq!(next.get(1, 0), Some(4.0));
        assert_eq!(next.get(1, 2), Some(2.0));
        assert_eq!(next.get(3, 3), None);
        assert_eq!(next.nnz(), 3);
    }

    #[test]
    fn arrivals_follow_the_seed() {
        let a = arrivals(&mut rng(7, 1), 100.0, 1.0, 6, 1.0, 4);
        let b = arrivals(&mut rng(7, 1), 100.0, 1.0, 6, 1.0, 4);
        assert_eq!(a.len(), b.len());
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.due_us == y.due_us && x.matrix == y.matrix));
        assert!(a.windows(2).all(|w| w[0].due_us <= w[1].due_us));
        assert!(a.len() > 50 && a.len() < 150);
    }
}
