//! Differential tests: the SPASM pipeline and every storage format are
//! checked against the CSR reference kernel on randomized and adversarial
//! matrices.
//!
//! Two tolerance regimes:
//!
//! * **Pipeline vs CSR** — the simulator accumulates through 4-wide
//!   template FMAs in a different order than CSR, so results agree within
//!   `1e-3` (relative), the bound the paper's functional validation uses.
//! * **Format vs format** — every value is a small multiple of `0.25` and
//!   every `x` entry a small multiple of `0.5`, so all partial sums are
//!   exactly representable in `f32` and every format must agree with CSR
//!   *bit for bit*, regardless of accumulation order.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spasm::{IntegrityPolicy, Pipeline, PipelineOptions};
use spasm_format::SpasmMatrix;
use spasm_hw::Accelerator;
use spasm_sparse::{Bsr, Coo, Csc, Csr, Dia, Ell, SpMv};

/// Batch sizes every batched-equivalence assertion sweeps.
const BATCH_SIZES: [usize; 4] = [1, 2, 3, 8];

/// A family of distinct x vectors derived from the probe (multiples of
/// 0.25, so partial sums stay exactly representable).
fn probe_batch(cols: u32, batch: usize) -> Vec<Vec<f32>> {
    (0..batch)
        .map(|j| {
            (0..cols)
                .map(|i| (((i as usize + 3 * j) % 9) as f32) * 0.5 - 2.0 + j as f32 * 0.25)
                .collect()
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Asserts the prepared-plan path is *bit-identical* to the one-shot
/// simulator: same y bits (even though both differ from CSR within
/// tolerance) and an identical `ExecReport`.
fn assert_plan_matches_run(acc: &Accelerator, m: &SpasmMatrix, x: &[f32]) {
    let mut y_run = vec![0.25f32; m.rows() as usize];
    let run_report = acc.run(m, x, &mut y_run).unwrap();

    let mut plan = acc.prepare(m).unwrap();
    let mut y_plan = vec![0.25f32; m.rows() as usize];
    let plan_report = plan.run(x, &mut y_plan).unwrap().clone();

    assert_eq!(
        bits(&y_plan),
        bits(&y_run),
        "plan.run vs Accelerator::run on {}x{}",
        m.rows(),
        m.cols()
    );
    assert_eq!(plan_report, run_report, "ExecReport mismatch");

    // The batched entry point must be bit-identical to looping the
    // single-vector plan, for every batch size.
    for batch in BATCH_SIZES {
        let xs = probe_batch(m.cols(), batch);
        let mut want = vec![vec![0.25f32; m.rows() as usize]; batch];
        for (xj, yj) in xs.iter().zip(want.iter_mut()) {
            plan.run(xj, yj).unwrap();
        }
        let mut got = vec![vec![0.25f32; m.rows() as usize]; batch];
        let batch_report = plan.run_batch(&xs, &mut got).unwrap();
        assert_eq!(
            batch_report.batch.map(|b| b.vectors),
            Some(batch),
            "run_batch must stamp its batch size"
        );
        for (j, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                bits(g),
                bits(w),
                "run_batch vector {j}/{batch} vs looped plan.run on {}x{}",
                m.rows(),
                m.cols()
            );
        }
    }
}

/// Random triplets with exactly-representable values (multiples of 0.25).
fn random_coo(rng: &mut SmallRng, rows: u32, cols: u32, n_entries: usize) -> Coo {
    let t: Vec<(u32, u32, f32)> = (0..n_entries)
        .map(|_| {
            (
                rng.gen_range(0..rows),
                rng.gen_range(0..cols),
                rng.gen_range(1..=32) as f32 * 0.25,
            )
        })
        .collect();
    Coo::from_triplets(rows, cols, t).unwrap()
}

/// A deterministic x with entries that are small multiples of 0.5.
fn probe_x(cols: u32) -> Vec<f32> {
    (0..cols).map(|i| ((i % 9) as f32) * 0.5 - 2.0).collect()
}

/// Asserts `prepare().execute()` matches the CSR oracle within 1e-3.
fn assert_pipeline_matches_csr(m: &Coo) {
    let x = probe_x(m.cols());
    let mut want = vec![0.0f32; m.rows() as usize];
    Csr::from(m).spmv(&x, &mut want).unwrap();

    let mut prepared = Pipeline::new().prepare(m).unwrap();
    let mut got = vec![0.0f32; m.rows() as usize];
    prepared.execute(&x, &mut got).unwrap();
    for (r, (g, w)) in got.iter().zip(&want).enumerate() {
        assert!(
            (g - w).abs() <= 1e-3 * (1.0 + w.abs()),
            "row {r}: pipeline {g} vs CSR {w} ({}x{}, nnz {})",
            m.rows(),
            m.cols(),
            m.nnz()
        );
    }

    // The prepared plan must also be bit-identical to the one-shot
    // simulator on this matrix.
    assert_plan_matches_run(&prepared.accelerator(), &prepared.encoded, &x);
}

/// Asserts every format's SpMv output is bit-identical to CSR's.
fn assert_formats_match_csr_exactly(m: &Coo) {
    let x = probe_x(m.cols());
    let mut want = vec![0.0f32; m.rows() as usize];
    Csr::from(m).spmv(&x, &mut want).unwrap();
    let want_bits: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();

    macro_rules! check {
        ($name:literal, $fmt:expr) => {{
            let mut y = vec![0.0f32; m.rows() as usize];
            $fmt.spmv(&x, &mut y).unwrap();
            let got_bits: Vec<u32> = y.iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                got_bits,
                want_bits,
                "{} disagrees with CSR on {}x{} nnz {}",
                $name,
                m.rows(),
                m.cols(),
                m.nnz()
            );
        }};
    }
    check!("coo", m);
    check!("csc", Csc::from(m));
    check!("bsr2", Bsr::from_coo(m, 2).unwrap());
    check!("bsr4", Bsr::from_coo(m, 4).unwrap());
    check!("dia", Dia::from_coo(m));
    check!("ell", Ell::from_coo(m));
}

#[test]
fn random_rectangular_pipeline_matches_csr() {
    let mut rng = SmallRng::seed_from_u64(0xD1FF_0001);
    for (rows, cols) in [(24, 96), (96, 24), (60, 60), (132, 40)] {
        let m = random_coo(&mut rng, rows, cols, 220);
        assert_pipeline_matches_csr(&m);
    }
}

#[test]
fn random_rectangular_formats_match_csr_exactly() {
    let mut rng = SmallRng::seed_from_u64(0xD1FF_0002);
    for (rows, cols) in [(24, 96), (96, 24), (61, 47), (128, 128)] {
        let m = random_coo(&mut rng, rows, cols, 300);
        assert_formats_match_csr_exactly(&m);
    }
}

#[test]
fn empty_rows_and_columns() {
    // Entries confined to even rows and to a middle column band: odd rows
    // and the outer column bands are entirely empty.
    let mut rng = SmallRng::seed_from_u64(0xD1FF_0003);
    let (rows, cols) = (64u32, 80u32);
    let t: Vec<(u32, u32, f32)> = (0..240)
        .map(|_| {
            (
                rng.gen_range(0..rows / 2) * 2,
                rng.gen_range(cols / 4..cols / 2),
                rng.gen_range(1..=16) as f32 * 0.25,
            )
        })
        .collect();
    let m = Coo::from_triplets(rows, cols, t).unwrap();
    assert_pipeline_matches_csr(&m);
    assert_formats_match_csr_exactly(&m);
}

#[test]
fn single_element_matrices() {
    // A lone nonzero in each corner of a rectangular matrix.
    for (r, c) in [(0, 0), (0, 50), (37, 0), (37, 50)] {
        let m = Coo::from_triplets(38, 51, vec![(r, c, 2.75)]).unwrap();
        assert_pipeline_matches_csr(&m);
        assert_formats_match_csr_exactly(&m);
    }
}

#[test]
fn dense_block_matrices() {
    // Dense 4x4 blocks scattered on a coarse grid: the pipeline's best
    // case (the dense template covers each block with zero padding).
    let mut rng = SmallRng::seed_from_u64(0xD1FF_0004);
    let blocks = 24u32;
    let grid = 12u32; // 12x12 grid of 4x4 block slots
    let mut t = Vec::new();
    for _ in 0..blocks {
        let (br, bc) = (rng.gen_range(0..grid), rng.gen_range(0..grid));
        for r in 0..4u32 {
            for c in 0..4u32 {
                t.push((br * 4 + r, bc * 4 + c, rng.gen_range(1..=8) as f32 * 0.25));
            }
        }
    }
    let n = grid * 4;
    let m = Coo::from_triplets(n, n, t).unwrap();
    assert_pipeline_matches_csr(&m);
    assert_formats_match_csr_exactly(&m);
}

#[test]
fn anti_diagonal_matrices() {
    // The worst case for row-major blocking: every 4x4 submatrix on the
    // anti-diagonal holds a single scattered entry.
    for n in [16u32, 61, 96] {
        let t: Vec<(u32, u32, f32)> = (0..n)
            .map(|i| (i, n - 1 - i, ((i % 12) + 1) as f32 * 0.25))
            .collect();
        let m = Coo::from_triplets(n, n, t).unwrap();
        assert_pipeline_matches_csr(&m);
        assert_formats_match_csr_exactly(&m);
    }
}

#[test]
fn tall_and_wide_extremes() {
    // Single-row and single-column matrices exercise the degenerate tiling
    // edges of every format.
    let mut rng = SmallRng::seed_from_u64(0xD1FF_0005);
    let wide = random_coo(&mut rng, 1, 200, 40);
    assert_pipeline_matches_csr(&wide);
    assert_formats_match_csr_exactly(&wide);

    let tall = random_coo(&mut rng, 200, 1, 40);
    assert_pipeline_matches_csr(&tall);
    assert_formats_match_csr_exactly(&tall);
}

#[test]
fn accumulation_into_nonzero_y() {
    // `y = A·x + y` semantics: a pre-seeded y must be accumulated into,
    // identically by the pipeline (within tolerance) and all formats.
    let mut rng = SmallRng::seed_from_u64(0xD1FF_0006);
    let m = random_coo(&mut rng, 48, 48, 160);
    let x = probe_x(48);

    let mut want = vec![1.5f32; 48];
    Csr::from(&m).spmv(&x, &mut want).unwrap();

    let mut prepared = Pipeline::new().prepare(&m).unwrap();
    let mut got = vec![1.5f32; 48];
    prepared.execute(&x, &mut got).unwrap();
    for (g, w) in got.iter().zip(&want) {
        assert!((g - w).abs() <= 1e-3 * (1.0 + w.abs()), "{g} vs {w}");
    }

    let mut via_coo = vec![1.5f32; 48];
    m.spmv(&x, &mut via_coo).unwrap();
    assert_eq!(
        via_coo.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        want.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    );
}

#[test]
fn execute_batch_matches_looped_execute_under_every_policy() {
    // The framework's batched entry point must agree bit for bit with
    // looping execute_into — unverified and under the full verification
    // ladder alike.
    let mut rng = SmallRng::seed_from_u64(0xD1FF_0007);
    for policy in [
        IntegrityPolicy::off(),
        IntegrityPolicy::sampled(8, 7),
        IntegrityPolicy::full(),
    ] {
        let m = random_coo(&mut rng, 72, 72, 260);
        let opts = PipelineOptions::default().integrity(policy);
        let mut prepared = Pipeline::with_options(opts).prepare(&m).unwrap();
        for batch in BATCH_SIZES {
            let xs = probe_batch(m.cols(), batch);
            let mut want = vec![vec![0.5f32; 72]; batch];
            for (xj, yj) in xs.iter().zip(want.iter_mut()) {
                prepared.execute_into(xj, yj).unwrap();
            }
            let mut got = vec![vec![0.5f32; 72]; batch];
            prepared.execute_batch_into(&xs, &mut got).unwrap();
            for (j, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(bits(g), bits(w), "vector {j} of batch {batch}");
            }
            assert_eq!(prepared.batch_health().len(), batch);
        }
    }
}

/// Runs `f` under an explicit ambient worker budget (a budget of one
/// runs inline on the calling thread).
fn with_budget<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("vendored shim pool builder is infallible")
        .install(f)
}

/// The matrix zoo for the kernels-vs-reference differential: one representative of
/// each adversarial structure the suite above exercises individually.
fn dispatch_zoo() -> Vec<Coo> {
    let mut rng = SmallRng::seed_from_u64(0xD1FF_0009);
    let mut zoo = vec![
        random_coo(&mut rng, 96, 64, 420),
        random_coo(&mut rng, 1, 200, 40),
        random_coo(&mut rng, 200, 1, 40),
    ];
    // Anti-diagonal: scattered single-entry submatrices.
    zoo.push(
        Coo::from_triplets(
            61,
            61,
            (0..61u32)
                .map(|i| (i, 60 - i, ((i % 12) + 1) as f32 * 0.25))
                .collect(),
        )
        .unwrap(),
    );
    // Dense 4x4 blocks: long same-class instance runs.
    let mut t = Vec::new();
    for _ in 0..16 {
        let (br, bc) = (rng.gen_range(0..8u32), rng.gen_range(0..8u32));
        for r in 0..4u32 {
            for c in 0..4u32 {
                t.push((br * 4 + r, bc * 4 + c, rng.gen_range(1..=8) as f32 * 0.25));
            }
        }
    }
    zoo.push(Coo::from_triplets(32, 32, t).unwrap());
    zoo
}

#[test]
fn classed_dispatch_is_bit_identical_to_per_instance() {
    // The class-bucketed kernels must reproduce the per-instance enum walk
    // bit for bit, for every batch size and thread budget. The reference
    // walk (`ExecutionPlan::run_batch_reference`) is always scalar, so on
    // x86_64 this is also an SSE2-vs-scalar differential at the plan
    // level; the kernel-level comparison over every template mask lives
    // in the hw crate's `kernel` tests.
    for m in dispatch_zoo() {
        let n_rows = m.rows() as usize;
        let prepared = Pipeline::new().prepare(&m).unwrap();
        let acc = prepared.accelerator();
        for batch in [1usize, 2, 8, 64] {
            let xs = probe_batch(m.cols(), batch);

            // Scalar per-instance oracle (serial by construction).
            let mut oracle = acc.prepare(&prepared.encoded).unwrap();
            let mut want = vec![vec![0.25f32; n_rows]; batch];
            let want_rep = oracle.run_batch_reference(&xs, &mut want).unwrap().clone();

            for budget in [1usize, 2, 7] {
                let mut plan = acc.prepare(&prepared.encoded).unwrap();
                let mut got = vec![vec![0.25f32; n_rows]; batch];
                let got_rep =
                    with_budget(budget, || plan.run_batch(&xs, &mut got).cloned()).unwrap();
                assert_eq!(
                    got_rep, want_rep,
                    "the default executor and the reference must price the batch alike"
                );
                for (j, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        bits(g),
                        bits(w),
                        "classed vector {j}/{batch} at {budget} threads vs per-instance \
                         on {}x{} nnz {}",
                        m.rows(),
                        m.cols(),
                        m.nnz()
                    );
                }
            }
        }
    }
}

/// NaN payloads and infinities the non-finite differential draws from.
const NON_FINITE: [u32; 4] = [0x7fc0_0001, 0xffc1_2345, 0x7f80_0000, 0xff80_0000];

/// About a quarter non-finite, the rest small multiples of 0.25.
fn non_finite_draw(rng: &mut SmallRng) -> f32 {
    if rng.gen_range(0..4) == 0 {
        f32::from_bits(NON_FINITE[rng.gen_range(0..NON_FINITE.len())])
    } else {
        rng.gen_range(-8..=8) as f32 * 0.25
    }
}

/// `true` when every output pair has identical bits or is NaN on both
/// sides — which NaN payload an operation returns is unspecified.
fn agrees_up_to_nan_payload(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
}

/// 200×200 with 1 200 scattered entries: most 4×4 submatrices hold one
/// entry, so most template slots are padding.
fn scattered_non_finite(rng: &mut SmallRng) -> Coo {
    let t: Vec<(u32, u32, f32)> = (0..1200)
        .map(|_| {
            let (r, c) = (rng.gen_range(0..200), rng.gen_range(0..200));
            (r, c, non_finite_draw(rng))
        })
        .collect();
    Coo::from_triplets(200, 200, t).unwrap()
}

/// 200×200 built from 60 dense 4×4 blocks, which the templates cover
/// without padding: every product the datapath forms is one CSR forms too.
fn dense_blocks_non_finite(rng: &mut SmallRng) -> Coo {
    let mut t = Vec::new();
    for _ in 0..60 {
        let (br, bc) = (rng.gen_range(0..50u32), rng.gen_range(0..50u32));
        for k in 0..16u32 {
            t.push((br * 4 + k / 4, bc * 4 + k % 4, non_finite_draw(rng)));
        }
    }
    Coo::from_triplets(200, 200, t).unwrap()
}

#[test]
fn non_finite_inputs_pass_the_integrity_ladder_clean() {
    // NaN and ±inf in the matrix and in x are data, not corruption: the
    // class kernels may propagate a different NaN payload than the
    // reference walk, and the ladder must neither quarantine a tile row
    // nor fall back to golden CSR over it. The sampled policy also
    // cross-checks rows against CSR, which never multiplies a padded slot
    // (0 × inf is NaN), so it runs on padding-free matrices.
    let mut rng = SmallRng::seed_from_u64(0xD1FF_000A);
    for policy in [IntegrityPolicy::full(), IntegrityPolicy::sampled(16, 11)] {
        for _ in 0..6 {
            let m = if policy == IntegrityPolicy::full() {
                scattered_non_finite(&mut rng)
            } else {
                dense_blocks_non_finite(&mut rng)
            };
            let xs: Vec<Vec<f32>> = (0..3)
                .map(|_| (0..200).map(|_| non_finite_draw(&mut rng)).collect())
                .collect();
            let opts = PipelineOptions::default().integrity(policy);
            let mut prepared = Pipeline::with_options(opts).prepare(&m).unwrap();
            let mut oracle = prepared.accelerator().prepare(&prepared.encoded).unwrap();
            let mut want = vec![vec![0.0f32; 200]; xs.len()];
            oracle.run_batch_reference(&xs, &mut want).unwrap();

            for (j, x) in xs.iter().enumerate() {
                let mut y = vec![0.0f32; 200];
                let health = prepared.execute_into(x, &mut y).unwrap().health;
                assert_eq!(health.tile_rows_quarantined, 0, "{policy:?} vector {j}");
                assert!(!health.fallback, "{policy:?} vector {j}: {health:?}");
                assert!(
                    agrees_up_to_nan_payload(&y, &want[j]),
                    "{policy:?} vector {j} vs the reference walk"
                );
            }
            let mut got = vec![vec![0.0f32; 200]; xs.len()];
            prepared.execute_batch_into(&xs, &mut got).unwrap();
            for (j, health) in prepared.batch_health().iter().enumerate() {
                assert_eq!(
                    health.tile_rows_quarantined, 0,
                    "{policy:?} batch vector {j}"
                );
                assert!(!health.fallback, "{policy:?} batch vector {j}: {health:?}");
                assert!(
                    agrees_up_to_nan_payload(&got[j], &want[j]),
                    "{policy:?} batch vector {j} vs the reference walk"
                );
            }
        }
    }
}

#[cfg(feature = "fault-injection")]
#[test]
fn batched_fault_degrades_exactly_one_vector_to_csr() {
    use spasm_hw::fault::{FaultPlan, FaultSpec};

    // Faults targeted at batch vector 1: under a verifying policy with
    // fallback enabled, vector 1 must come back on the golden CSR path
    // while its siblings stay bit-identical to pristine plan output.
    let mut rng = SmallRng::seed_from_u64(0xD1FF_0008);
    let m = random_coo(&mut rng, 96, 96, 420);
    let opts = PipelineOptions::default().integrity(IntegrityPolicy::full());
    let mut prepared = Pipeline::with_options(opts).prepare(&m).unwrap();

    let batch = 3usize;
    let xs = probe_batch(m.cols(), batch);

    // Pristine reference: looped guarded execution without faults.
    let mut pristine = vec![vec![0.0f32; 96]; batch];
    for (xj, yj) in xs.iter().zip(pristine.iter_mut()) {
        prepared.execute_into(xj, yj).unwrap();
    }

    // The golden CSR products, which the degraded vector must match.
    let mut golden = vec![vec![0.0f32; 96]; batch];
    for (xj, yj) in xs.iter().zip(golden.iter_mut()) {
        prepared.golden().spmv(xj, yj).unwrap();
    }

    let spec = FaultSpec {
        encoding_flips: 3,
        value_flips: 3,
        ..FaultSpec::default()
    };
    let n_inst = prepared.plan.n_instances();
    prepared
        .plan
        .arm_faults_for_vector(FaultPlan::seeded(0xBAD_CAFE, &spec, n_inst), 1);

    let mut ys = vec![vec![0.0f32; 96]; batch];
    prepared.execute_batch_into(&xs, &mut ys).unwrap();

    let health = prepared.batch_health().to_vec();
    assert_eq!(health.len(), batch);
    assert!(
        health[1].faults_injected > 0,
        "the targeted vector must have been struck"
    );
    for (j, h) in health.iter().enumerate() {
        if j == 1 {
            continue;
        }
        assert_eq!(h.faults_injected, 0, "vector {j} must run pristine");
        assert!(!h.fallback, "vector {j} must not fall back");
        assert_eq!(bits(&ys[j]), bits(&pristine[j]), "vector {j} bits");
    }
    if health[1].fallback {
        // Unrepairable corruption: vector 1 was recomputed on the golden
        // CSR path, bit-identical to Csr::spmv.
        assert_eq!(bits(&ys[1]), bits(&golden[1]), "fallback vector bits");
    } else {
        // The ladder repaired every strike from the pristine stream.
        assert!(health[1].tile_rows_quarantined > 0);
        assert_eq!(bits(&ys[1]), bits(&pristine[1]), "repaired vector bits");
    }
    assert!(
        prepared.report().health.faults_injected > 0,
        "aggregate health must record the strikes"
    );
}
