//! Iterative solver: conjugate gradients on a block-structured SPD system
//! with *multiple right-hand sides* solved in lockstep, every batch of
//! A·p products running on the simulated SPASM accelerator in one
//! `execute_batch_into` call.
//!
//! This is the paper's amortisation argument (Section V-E4) made concrete
//! twice over: preprocessing is paid once and reused across thousands of
//! SpMVs, and within each iteration the batched execution pads x once,
//! streams the pre-decoded instance stream once per tile row for the whole
//! batch, and amortises accelerator initialisation across the right-hand
//! sides.
//!
//! ```text
//! cargo run --release -p spasm --example iterative_solver
//! ```

use spasm::Pipeline;
use spasm_sparse::Coo;

/// Right-hand sides solved in lockstep.
const K: usize = 4;

/// Builds a block-tridiagonal SPD matrix (4x4 blocks, diagonally
/// dominant).
fn spd_block_tridiagonal(nb: u32) -> Coo {
    let n = nb * 4;
    let mut t = Vec::new();
    for b in 0..nb {
        for r in 0..4u32 {
            for c in 0..4u32 {
                // Diagonal block: strongly diagonally dominant.
                let v = if r == c { 8.0 } else { -0.5 };
                t.push((b * 4 + r, b * 4 + c, v));
            }
            if b + 1 < nb {
                // Symmetric off-diagonal coupling (diagonal of the block).
                t.push((b * 4 + r, (b + 1) * 4 + r, -1.0));
                t.push(((b + 1) * 4 + r, b * 4 + r, -1.0));
            }
        }
    }
    Coo::from_triplets(n, n, t).expect("entries in bounds")
}

fn dot(a: &[f32], b: &[f32]) -> f64 {
    a.iter().zip(b).map(|(x, y)| *x as f64 * *y as f64).sum()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let a = spd_block_tridiagonal(512);
    let n = a.rows() as usize;
    println!(
        "SPD system: {}x{}, {} non-zeros, {K} right-hand sides",
        a.rows(),
        a.cols(),
        a.nnz()
    );

    let prep_start = std::time::Instant::now();
    let mut prepared = Pipeline::new().prepare(&a)?;
    let prep_wall = prep_start.elapsed();
    println!(
        "preprocessing: {:?} host time; selected {} @ tile {}",
        prep_wall, prepared.best.config.name, prepared.best.tile_size
    );

    // Solve A x_k = b_k for K right-hand sides with lockstep CG: one
    // batched A·p per iteration covers every system. Converged systems
    // keep riding the batch (the batch shape stays fixed, which keeps the
    // plan's scratch steady-state) but skip their scalar updates.
    let bs: Vec<Vec<f32>> = (0..K)
        .map(|k| {
            (0..n)
                .map(|i| (((i + 5 * k) % 17) as f32) * 0.125 + 1.0 + k as f32 * 0.25)
                .collect()
        })
        .collect();
    let mut xs = vec![vec![0.0f32; n]; K];
    let mut rs: Vec<Vec<f32>> = bs.clone(); // r = b - A*0
    let mut ps: Vec<Vec<f32>> = rs.clone();
    let mut rs_old: Vec<f64> = rs.iter().map(|r| dot(r, r)).collect();
    let mut done = [false; K];
    let mut iters = [0usize; K];
    let tol = 1e-5 * (n as f64).sqrt();

    // The pipeline built one execution plan at prepare time; every CG
    // iteration reuses it through `execute_batch_into`, which runs all K
    // products in a single batched pass and returns the cached report by
    // reference. `report.batch` prices the batch with initialisation paid
    // once instead of K times.
    let mut simulated_seconds = 0.0f64;
    let mut looped_equivalent_seconds = 0.0f64;
    let mut batched_iterations = 0usize;
    let mut aps = vec![vec![0.0f32; n]; K];
    for _ in 0..500 {
        if done.iter().all(|&d| d) {
            break;
        }
        for ap in aps.iter_mut() {
            ap.fill(0.0);
        }
        let exec = prepared.execute_batch_into(&ps, &mut aps)?;
        batched_iterations += 1;
        if let Some(batch) = exec.batch {
            simulated_seconds += batch.seconds;
            // What K independent single-vector runs would have cost.
            looped_equivalent_seconds += exec.seconds * K as f64;
        }

        for k in 0..K {
            if done[k] {
                continue;
            }
            let alpha = rs_old[k] / dot(&ps[k], &aps[k]);
            for i in 0..n {
                xs[k][i] += (alpha * ps[k][i] as f64) as f32;
                rs[k][i] -= (alpha * aps[k][i] as f64) as f32;
            }
            let rs_new = dot(&rs[k], &rs[k]);
            iters[k] += 1;
            if rs_new.sqrt() < tol {
                done[k] = true;
                continue;
            }
            let beta = rs_new / rs_old[k];
            for i in 0..n {
                ps[k][i] = rs[k][i] + (beta * ps[k][i] as f64) as f32;
            }
            rs_old[k] = rs_new;
        }
    }
    for (k, it) in iters.iter().enumerate() {
        println!("CG system {k}: converged in {it} iterations");
    }

    // Verify every solution residual with an independent host-side SpMV —
    // the row-partitioned parallel CSR kernel (bit-identical to the serial
    // one for every thread budget).
    let csr = spasm_sparse::Csr::from(&a);
    for k in 0..K {
        let mut ax = vec![0.0f32; n];
        csr.spmv_parallel(&xs[k], &mut ax)?;
        let resid = (ax
            .iter()
            .zip(&bs[k])
            .map(|(u, v)| ((u - v) as f64).powi(2))
            .sum::<f64>())
        .sqrt();
        println!("system {k}: final residual |Ax - b| = {resid:.3e}");
    }

    println!(
        "simulated accelerator time over {batched_iterations} batched SpMVs \
         ({} vector products): {:.3} ms batched vs {:.3} ms looped \
         ({:.2}x from batch amortisation) — preprocessing amortises across \
         iterations, initialisation across the batch",
        batched_iterations * K,
        simulated_seconds * 1e3,
        looped_equivalent_seconds * 1e3,
        looped_equivalent_seconds / simulated_seconds.max(1e-12),
    );
    Ok(())
}
