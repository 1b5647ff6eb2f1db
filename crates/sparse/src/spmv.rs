use crate::{Bsr, Coo, Csc, Csr, Dia, Ell, SparseError, Value};

/// Sparse matrix-vector multiplication, `y = A·x + y` (Equation 1 of the
/// paper).
///
/// Every storage format implements this trait; the CSR implementation is the
/// reference against which the SPASM encoder, decoder and hardware simulator
/// are validated.
pub trait SpMv {
    /// Accumulates `A·x` into `y`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if `x.len()` differs from
    /// the matrix column count or `y.len()` from the row count.
    fn spmv(&self, x: &[Value], y: &mut [Value]) -> Result<(), SparseError>;

    /// Convenience wrapper computing `A·x` into a fresh zero vector.
    ///
    /// # Errors
    ///
    /// Propagates the dimension check from [`SpMv::spmv`].
    fn spmv_alloc(&self, x: &[Value]) -> Result<Vec<Value>, SparseError>
    where
        Self: Shaped,
    {
        let mut y = vec![0.0; self.shape_rows() as usize];
        self.spmv(x, &mut y)?;
        Ok(y)
    }
}

/// Minimal shape accessor so [`SpMv::spmv_alloc`] can size its output.
pub trait Shaped {
    /// Number of rows.
    fn shape_rows(&self) -> u32;
    /// Number of columns.
    fn shape_cols(&self) -> u32;
}

fn check_dims(rows: u32, cols: u32, x: &[Value], y: &[Value]) -> Result<(), SparseError> {
    if x.len() != cols as usize {
        return Err(SparseError::DimensionMismatch {
            expected: cols as usize,
            actual: x.len(),
            operand: "x",
        });
    }
    if y.len() != rows as usize {
        return Err(SparseError::DimensionMismatch {
            expected: rows as usize,
            actual: y.len(),
            operand: "y",
        });
    }
    Ok(())
}

macro_rules! impl_shaped {
    ($($ty:ty),*) => {$(
        impl Shaped for $ty {
            fn shape_rows(&self) -> u32 { self.rows() }
            fn shape_cols(&self) -> u32 { self.cols() }
        }
    )*};
}
impl_shaped!(Coo, Csr, Csc, Bsr, Dia, Ell);

impl SpMv for Coo {
    fn spmv(&self, x: &[Value], y: &mut [Value]) -> Result<(), SparseError> {
        check_dims(self.rows(), self.cols(), x, y)?;
        for (r, c, v) in self.iter() {
            y[r as usize] += v * x[c as usize];
        }
        Ok(())
    }
}

/// The scalar CSR kernel over one contiguous row range: accumulates rows
/// `[first, first + out.len())` of `A·x` into `out`. Both the serial and the
/// parallel drivers funnel through here, so a row's accumulation order — and
/// therefore its rounding — is identical in both.
fn csr_row_range(csr: &Csr, x: &[Value], out: &mut [Value], first: usize) {
    let ptr = csr.row_ptr();
    let cols = csr.col_indices();
    let vals = csr.values();
    for (k, slot) in out.iter_mut().enumerate() {
        let r = first + k;
        let mut acc = 0.0;
        for i in ptr[r]..ptr[r + 1] {
            acc += vals[i] * x[cols[i] as usize];
        }
        *slot += acc;
    }
}

impl SpMv for Csr {
    fn spmv(&self, x: &[Value], y: &mut [Value]) -> Result<(), SparseError> {
        check_dims(self.rows(), self.cols(), x, y)?;
        csr_row_range(self, x, y, 0);
        Ok(())
    }
}

impl Csr {
    /// `y += A·x` with the rows partitioned into contiguous,
    /// **nnz-balanced** chunks that run on separate threads: chunk
    /// boundaries are found by binary search on `row_ptr` so each worker
    /// owns roughly `nnz / threads` non-zeros, which keeps power-law
    /// matrices (a few dense rows, many near-empty ones) from serialising
    /// behind one overloaded worker. Each chunk owns a disjoint `y` range,
    /// so no locks are needed, and each row is accumulated by the same
    /// scalar kernel as [`SpMv::spmv`] — the result is bit-for-bit
    /// identical to the serial product for any thread count.
    ///
    /// With a single worker in the ambient thread budget this is the
    /// serial kernel, run on the caller's thread.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] exactly as [`SpMv::spmv`]
    /// does.
    pub fn spmv_parallel(&self, x: &[Value], y: &mut [Value]) -> Result<(), SparseError> {
        check_dims(self.rows(), self.cols(), x, y)?;
        self.spmv_parallel_inner(x, y);
        Ok(())
    }

    fn spmv_parallel_inner(&self, x: &[Value], y: &mut [Value]) {
        let rows = y.len();
        let threads = rayon::current_num_threads();
        if threads < 2 || rows < 2 {
            csr_row_range(self, x, y, 0);
            return;
        }
        // Row boundaries where the cumulative non-zero count crosses each
        // worker's share; strictly increasing, so every chunk is non-empty
        // and runs of empty rows attach to one worker.
        let ptr = self.row_ptr();
        let nnz = ptr[rows];
        let parts = threads.min(rows);
        let mut bounds = Vec::with_capacity(parts + 1);
        bounds.push(0usize);
        for t in 1..parts {
            let target = nnz * t / parts;
            let b = ptr.partition_point(|&c| c < target).min(rows);
            if b > *bounds.last().expect("seeded with 0") && b < rows {
                bounds.push(b);
            }
        }
        bounds.push(rows);
        if bounds.len() < 3 {
            csr_row_range(self, x, y, 0);
            return;
        }
        let mut chunks: Vec<(usize, &mut [Value])> = Vec::with_capacity(bounds.len() - 1);
        let mut rest = y;
        for w in bounds.windows(2) {
            let (chunk, tail) = rest.split_at_mut(w[1] - w[0]);
            chunks.push((w[0], chunk));
            rest = tail;
        }
        std::thread::scope(|scope| {
            for (first, out) in chunks {
                scope.spawn(move || csr_row_range(self, x, out, first));
            }
        });
    }
}

impl SpMv for Csc {
    fn spmv(&self, x: &[Value], y: &mut [Value]) -> Result<(), SparseError> {
        check_dims(self.rows(), self.cols(), x, y)?;
        for c in 0..self.cols() {
            let xc = x[c as usize];
            for (r, v) in self.col(c) {
                y[r as usize] += v * xc;
            }
        }
        Ok(())
    }
}

impl SpMv for Bsr {
    fn spmv(&self, x: &[Value], y: &mut [Value]) -> Result<(), SparseError> {
        check_dims(self.rows(), self.cols(), x, y)?;
        self.spmv_into(x, y);
        Ok(())
    }
}

impl SpMv for Dia {
    fn spmv(&self, x: &[Value], y: &mut [Value]) -> Result<(), SparseError> {
        check_dims(self.rows(), self.cols(), x, y)?;
        self.spmv_into(x, y);
        Ok(())
    }
}

impl SpMv for Ell {
    fn spmv(&self, x: &[Value], y: &mut [Value]) -> Result<(), SparseError> {
        check_dims(self.rows(), self.cols(), x, y)?;
        self.spmv_into(x, y);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dense;

    fn sample() -> Coo {
        Coo::from_triplets(
            4,
            5,
            vec![
                (0, 0, 1.5),
                (0, 4, -2.0),
                (1, 2, 3.0),
                (2, 1, 0.5),
                (2, 3, 2.5),
                (3, 0, -1.0),
                (3, 4, 4.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn all_formats_agree_with_dense() {
        let coo = sample();
        let x: Vec<f32> = (0..5).map(|i| (i as f32) * 0.7 - 1.0).collect();
        let mut want = vec![0.25; 4];
        Dense::from(&coo).spmv_into(&x, &mut want);

        macro_rules! check {
            ($m:expr) => {{
                let mut y = vec![0.25; 4];
                $m.spmv(&x, &mut y).unwrap();
                for (a, b) in y.iter().zip(&want) {
                    assert!((a - b).abs() < 1e-5, "{a} vs {b}");
                }
            }};
        }
        check!(coo);
        check!(Csr::from(&coo));
        check!(Csc::from(&coo));
        check!(Bsr::from_coo(&coo, 2).unwrap());
        check!(Bsr::from_coo(&coo, 3).unwrap());
        check!(Dia::from_coo(&coo));
        check!(Ell::from_coo(&coo));
    }

    #[test]
    fn dimension_checks() {
        let coo = sample();
        let mut y = vec![0.0; 4];
        assert!(matches!(
            coo.spmv(&[0.0; 3], &mut y),
            Err(SparseError::DimensionMismatch { operand: "x", .. })
        ));
        let mut y_bad = vec![0.0; 2];
        assert!(matches!(
            coo.spmv(&[0.0; 5], &mut y_bad),
            Err(SparseError::DimensionMismatch { operand: "y", .. })
        ));
    }

    #[test]
    fn spmv_accumulates_rather_than_overwrites() {
        let coo = Coo::from_triplets(1, 1, vec![(0, 0, 2.0)]).unwrap();
        let mut y = vec![10.0];
        coo.spmv(&[3.0], &mut y).unwrap();
        assert_eq!(y, vec![16.0]);
    }

    #[test]
    fn spmv_alloc() {
        let coo = sample();
        let y = Csr::from(&coo).spmv_alloc(&[1.0; 5]).unwrap();
        assert_eq!(y.len(), 4);
        assert!((y[0] - (-0.5)).abs() < 1e-6);
    }
}
