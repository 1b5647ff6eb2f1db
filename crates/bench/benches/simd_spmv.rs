//! Class-kernel benchmark: the class-bucketed data-parallel executor
//! (`ExecutionPlan::run_batch`) against the per-instance enum walk of the
//! plan's reference module (`ExecutionPlan::run_batch_reference`) on the
//! same prepared plan. The reference walk is serial, so the executor is
//! timed on one worker too: the ratio measures the kernels, not the
//! thread fan-out.
//!
//! The comparison isolates what the PR-7 hot-loop restructuring buys:
//! branch-free per-class kernels over the SoA streams, contiguous 4-slot
//! value loads, hoisted x-gather selectors, and `LANE_BLOCK` batch-lane
//! fusion. On x86_64 the classed path runs the explicit SSE2 kernels;
//! the emitted JSON records which class kernel the target compiled so
//! scalar and SSE2 artifacts stay distinguishable.
//!
//! Both paths are asserted bit-identical before timing — the
//! classed executor stages per-instance outputs and scatters them in
//! stream order, so it is the same computation, not an approximation.
//! Results go to `BENCH_simd_spmv.json`.
//!
//! Run with `cargo bench -p spasm-bench --bench simd_spmv` (`--smoke`
//! for CI liveness).
//! `SPASM_BENCH_ASSERT=1` arms the batch-8 speedup floor.

use std::fmt::Write as _;
use std::time::Instant;

use spasm::{Parallelism, Pipeline, PipelineOptions};
use spasm_bench::timing::is_smoke;
use spasm_workloads::Workload;

/// The serving batch width the acceptance floor is measured at.
const BATCH: usize = 8;

/// Per-batch wall-clock of `iters` timed repetitions, in seconds.
fn time_batch(iters: u32, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
        std::hint::black_box(&mut f);
    }
    t0.elapsed().as_secs_f64() / f64::from(iters.max(1))
}

struct Row {
    workload: String,
    nnz: usize,
    per_instance_s: f64,
    classed_s: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.per_instance_s / self.classed_s.max(1e-12)
    }
}

fn main() {
    spasm_bench::smoke_from_args();
    let scale = spasm_bench::scale_from_args();
    println!(
        "classed-kernel SpMV | scale: {} | thread budget: {} | kernel: {}",
        spasm_bench::scale_name(scale),
        rayon::current_num_threads(),
        spasm_bench::kernel_name()
    );

    // Same structural cross-section as the other serving benches.
    let picks = [
        Workload::Raefsky3,
        Workload::C73,
        Workload::TmtSym,
        Workload::Cfd2,
    ];
    let iters: u32 = if is_smoke() { 1 } else { 50 };
    let serial = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("vendored shim pool builder is infallible");

    let mut rows: Vec<Row> = Vec::new();
    for w in picks {
        let m = w.generate(scale);
        let n_cols = m.cols() as usize;
        let n_rows = m.rows() as usize;

        let pipeline =
            Pipeline::with_options(PipelineOptions::default().parallelism(Parallelism::Auto));
        let prepared = pipeline.prepare(&m).expect("pipeline");
        let mut plan = prepared
            .accelerator()
            .prepare(&prepared.encoded)
            .expect("prepare");

        let xs: Vec<Vec<f32>> = (0..BATCH)
            .map(|j| {
                (0..n_cols)
                    .map(|i| (((i + 3 * j) % 9) as f32) * 0.5 - 2.0)
                    .collect()
            })
            .collect();

        // Bit-identity gate: the classed (on x86_64, SSE2) path must be
        // the same computation as the per-instance reference.
        let mut want = vec![vec![0.0f32; n_rows]; BATCH];
        plan.run_batch_reference(&xs, &mut want)
            .expect("run_batch_reference");
        let mut got = vec![vec![0.0f32; n_rows]; BATCH];
        plan.run_batch(&xs, &mut got).expect("run_batch");
        for (j, (g, ww)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                g.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                ww.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{w}: classed vector {j} diverged from the per-instance reference"
            );
        }

        let mut ys = vec![vec![0.0f32; n_rows]; BATCH];
        let per_instance_s = time_batch(iters, || {
            for y in ys.iter_mut() {
                y.fill(0.0);
            }
            plan.run_batch_reference(&xs, &mut ys)
                .expect("run_batch_reference");
        });
        let classed_s = serial.install(|| {
            time_batch(iters, || {
                for y in ys.iter_mut() {
                    y.fill(0.0);
                }
                plan.run_batch(&xs, &mut ys).expect("run_batch");
            })
        });

        let row = Row {
            workload: w.to_string(),
            nnz: m.nnz(),
            per_instance_s,
            classed_s,
        };
        println!(
            "{:<14} {:>9} nnz  per-instance {:>10.1} us/batch  classed {:>10.1} us/batch  {:>6.2}x",
            row.workload,
            row.nnz,
            row.per_instance_s * 1e6,
            row.classed_s * 1e6,
            row.speedup(),
        );
        rows.push(row);
    }

    let geomean = spasm_bench::geomean(rows.iter().map(Row::speedup));
    println!("geomean classed-kernel speedup at batch {BATCH}: {geomean:.2}x");
    // Opt-in floor (SPASM_BENCH_ASSERT=1): the restructured hot loop must
    // beat per-instance enum dispatch by >= 1.15x geomean at batch 8.
    spasm_bench::maybe_assert_speedup("simd_spmv classed-kernel batch-8 speedup", geomean, 1.15);

    // Hand-rolled JSON (no serde in the build environment).
    let mut json = String::from("{\n  \"bench\": \"simd_spmv\",\n");
    json.push_str(&spasm_bench::metadata_json());
    let _ = writeln!(json, "  \"smoke\": {},", is_smoke());
    let _ = writeln!(json, "  \"iters\": {iters},");
    let _ = writeln!(json, "  \"batch\": {BATCH},");
    let _ = writeln!(json, "  \"geomean_classed_speedup\": {geomean},");
    json.push_str("  \"workloads\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"workload\": \"{}\", \"nnz\": {}, \
             \"per_instance_per_batch_s\": {}, \"classed_per_batch_s\": {}, \
             \"speedup\": {}}}",
            r.workload,
            r.nnz,
            r.per_instance_s,
            r.classed_s,
            r.speedup()
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    // cargo bench runs with the package dir as cwd; anchor the artifact at
    // the workspace root where CI picks it up.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_simd_spmv.json");
    std::fs::write(out, &json).expect("write bench json");
    println!("wrote {out}");
}
