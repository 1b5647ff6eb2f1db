//! The three workloads. Each builds its inputs from the seed, sets up
//! the system several times (reporting the median), measures, checks
//! every output, and returns its metrics.
//!
//! Generator parameters live here as constants; `BENCHMARK.json` repeats
//! them in each workload's `why`.

use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use spasm::{explore_schedule, IntegrityPolicy, Parallelism, Pipeline, PipelineOptions, Prepared};
use spasm_format::{FormatError, MatrixFingerprint, SpasmMatrix, SubmatrixMap};
use spasm_hw::{Accelerator, ExecutionPlan};
use spasm_patterns::selection;
use spasm_serve::{ServerConfig, SpmvServer};
use spasm_sparse::{Csr, MatrixDelta};
use spasm_store::{save_v3, FrozenPlan, PlanBuffer};
use spasm_workloads::{changesets, ChangesetConfig};

use crate::corpus::{self, apply_to_csr, arrivals, csr_product, Matrix, CORE};
use crate::kernel::{
    self, timed_delta, DeltaRecord, KernelSamples, Outputs, Path, Resident, Served, SpmvUnit,
    Tally, POOL,
};
use crate::report::Metrics;
use crate::serving::{delta_stream, open_loop, Expect, LoopStats, ScheduledDelta, Versions};
use crate::stats::{geomean, mean, median, tail};
use crate::trace::{Tracer, NO_TAG};

/// Set-ups per run, half before the measured phases and half after
/// them; `setup_s` is their median.
const SETUP_REPS: usize = 12;
/// Latency limit of a solve step (one batch-1 execution).
const SOLVE_LIMIT_MS: f64 = 50.0;
/// Refresh deltas per matrix, applied between the kernel rounds of solve
/// and serve.
const REFRESH_DELTAS: usize = 40;
const SERVE_REFRESH_DELTAS: usize = 20;
/// Operations per values-only delta.
const VALUE_OPS: usize = 16;

/// The serve corpus: the core three plus three more medium matrices,
/// in Zipf rank order.
const SERVE_EXTRA: [&str; 3] = ["cfd2", "c-73", "Chebyshev4"];
const SERVE_RATE: f64 = 100.0;
/// The skew `loadgen` draws matrices with by default.
const SERVE_SKEW: f64 = 1.1;
const SERVE_LIMIT_MS: f64 = 100.0;

const UPDATE_RATE: f64 = 60.0;
const UPDATE_LIMIT_MS: f64 = 250.0;
/// Deltas per second beside the queries, round-robin over the three
/// matrices; every `STRUCTURAL_EVERY`th delta a matrix receives is
/// structural, the others values-only. With five values-only deltas to
/// one structural, the median delta is a values-only one and the tail a
/// structural one, each well inside its group.
const DELTA_RATE: f64 = 6.0;
const STRUCTURAL_EVERY: usize = 6;
/// Operations of successive structural deltas (cycled, so the traced
/// run can set splice cost against op count).
const STRUCTURAL_OPS: [usize; 3] = [4, 16, 64];
/// Request vectors per matrix in the update open loop (each matrix
/// version keeps one CSR reference output per vector).
const UPDATE_POOL: usize = 4;

/// Mean send lateness, as a share of the latency limit, past which an
/// open-loop run is invalid.
const LATE_SHARE: f64 = 0.05;

/// Share of `--seconds` the serve and update open loops run; the rest
/// runs kernel rounds on the resident plans (in serve, with the refresh
/// deltas between them).
const SERVE_LOOP_SHARE: f64 = 0.6;
const UPDATE_LOOP_SHARE: f64 = 0.7;

/// What one workload run produced.
pub struct Outcome {
    pub e2e: Metrics,
    pub layer: Metrics,
    pub tally: Tally,
    /// Set when the open-loop client fell behind its schedule.
    pub invalid: Option<String>,
    pub tracer: Tracer,
    pub deltas: Vec<DeltaRecord>,
}

/// Command-line parameters of a run.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn server_config() -> ServerConfig {
    ServerConfig {
        workers: workers(),
        ..ServerConfig::default()
    }
}

/// Set-up wall times of one run. A shared host's speed changes within
/// a run, so half the set-ups run before the measured phases and half
/// after them, and `setup_s` is the median of all of them.
#[derive(Default)]
struct SetupTimes(Vec<f64>);

impl SetupTimes {
    /// Sets up `SETUP_REPS / 2` times, dropping each result before the
    /// next set-up starts; returns the last result.
    fn run<T>(&mut self, mut f: impl FnMut() -> Result<T, String>) -> Result<T, String> {
        let mut last = None;
        for _ in 0..SETUP_REPS / 2 {
            drop(last.take());
            let t = Instant::now();
            last = Some(f()?);
            self.0.push(t.elapsed().as_secs_f64());
        }
        last.ok_or_else(|| "no set-up ran".to_string())
    }

    fn median(&self) -> f64 {
        median(&self.0)
    }
}

/// Stages ①–⑤ and the plan build, called one by one as
/// `Pipeline::prepare` calls them, each in its own span.
fn staged_prepare(
    coo: &spasm_sparse::Coo,
    k: usize,
    tracer: &mut Tracer,
) -> Result<SpasmMatrix, String> {
    let tag = k as u32;
    let options = PipelineOptions::default();
    let (map, histogram) = tracer.span("format.analyze", tag, 0, |_| {
        let map = SubmatrixMap::from_coo(coo);
        let histogram = map.histogram();
        (map, histogram)
    });
    let chosen = tracer.span("patterns.select", tag, 0, |_| {
        selection::select_template_set(&histogram, &options.candidates, options.top_n)
    });
    tracer
        .span("patterns.decompose", tag, 0, |_| {
            histogram.iter().try_for_each(|(mask, _)| {
                chosen
                    .table
                    .decompose(*mask)
                    .map(|_| ())
                    .ok_or(FormatError::UncoverablePattern { mask: *mask })
            })
        })
        .map_err(|e| e.to_string())?;
    let (best, _) = tracer
        .span("core.schedule", tag, 0, |_| {
            explore_schedule(&map, &chosen.table, &options.tile_sizes, &options.configs)
        })
        .map_err(|e| e.to_string())?;
    let encoded = tracer
        .span("format.encode", tag, 0, |_| {
            SpasmMatrix::encode(&map, &chosen.table, best.tile_size)
        })
        .map_err(|e| e.to_string())?;
    let plan: ExecutionPlan = tracer
        .span("hw.plan_build", tag, 0, |_| {
            Accelerator::new(best.config.clone()).prepare(&encoded)
        })
        .map_err(|e| e.to_string())?;
    black_box(plan.n_instances());
    Ok(encoded)
}

/// Traced runs: one staged prepare per matrix; each must encode to the
/// same content as the plan the workload serves.
fn staged_pass(
    mats: &[Matrix],
    keys: &[MatrixFingerprint],
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> Result<(), String> {
    if !tracer.is_on() {
        return Ok(());
    }
    for (k, (m, key)) in mats.iter().zip(keys).enumerate() {
        let encoded = staged_prepare(&m.coo, k, tracer)?;
        tally.check(encoded.fingerprint() == *key);
    }
    Ok(())
}

/// Model output and footprint of the resident plans, read before any
/// execution or delta.
fn plan_layer(plans: &mut impl Resident, mats: &[Matrix], layer: &mut Metrics) -> f64 {
    let (mut gflops, mut bytes, mut nnz) = (Vec::new(), 0usize, 0usize);
    for (k, m) in mats.iter().enumerate() {
        let Some((cycles, g, b)) = plans.with(k, |p| {
            let r = p.report();
            (
                r.cycles,
                r.gflops,
                p.plan.memory_bytes() + p.plan.mapped_bytes(),
            )
        }) else {
            continue;
        };
        if let Some(name) = per_matrix_name("hw.sim_cycles", m.name) {
            layer.insert(name, cycles as f64);
        }
        gflops.push(g);
        bytes += b;
        nnz += m.nnz();
    }
    layer.insert("hw.plan_bytes_per_nnz", bytes as f64 / nnz.max(1) as f64);
    let sim = geomean(&gflops);
    layer.insert("hw.sim_gflops", sim);
    sim
}

/// The listed per-matrix metric name for a core matrix.
fn per_matrix_name(prefix: &str, matrix: &str) -> Option<&'static str> {
    crate::report::PER_LAYER
        .iter()
        .map(|(n, _)| *n)
        .find(|n| n.strip_prefix(prefix).and_then(|r| r.strip_prefix('.')) == Some(matrix))
}

/// Kernel-round metrics: end-to-end over the whole corpus, per layer
/// for the core matrices.
fn kernel_metrics(
    samples: &[KernelSamples],
    mats: &[Matrix],
    csrs: &[&Csr],
    e2e: &mut Metrics,
    layer: &mut Metrics,
) {
    let (mut wall, mut cpu, mut wall8, mut cpu8) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut ratios, mut cpu_ratios, mut cpu8_ratios) = (Vec::new(), Vec::new(), Vec::new());
    let (mut paired, mut paired8) = (Vec::new(), Vec::new());
    let mut csr_wall = Vec::new();
    for ((s, m), csr) in samples.iter().zip(mats).zip(csrs) {
        let nnz = csr.nnz() as f64;
        let per_vector = POOL as f64 * nnz;
        wall.extend(s.batch1_ns.iter().map(|ns| ns / nnz));
        cpu.extend(s.batch1_cpu_ns.iter().map(|ns| ns / nnz));
        wall8.extend(s.batch8_ns.iter().map(|ns| ns / per_vector));
        cpu8.extend(s.batch8_cpu_ns.iter().map(|ns| ns / per_vector));
        csr_wall.extend(s.csr_ns.iter().map(|ns| ns / nnz));
        if !s.batch1_ns.is_empty() && !s.batch8_ns.is_empty() && !s.csr_ns.is_empty() {
            ratios.push(median(&s.batch1_ns) / median(&s.csr_ns));
            paired.push(median(&s.batch1_vs_csr));
            paired8.push(median(&s.batch8_vs_csr));
            cpu_ratios.push(median(&s.batch1_cpu_ns) / median(&s.csr_cpu_ns));
            cpu8_ratios.push(median(&s.batch8_cpu_ns) / POOL as f64 / median(&s.csr_cpu_ns));
        }
        for (prefix, v) in [
            ("hw.run_ns_per_nnz", median(&s.batch1_ns) / nnz),
            ("hw.batch8_ns_per_nnz", median(&s.batch8_ns) / per_vector),
            ("sparse.csr_ns_per_nnz", median(&s.csr_ns) / nnz),
            ("hw.run_cpu_ns_per_nnz", median(&s.batch1_cpu_ns) / nnz),
        ] {
            if let Some(name) = per_matrix_name(prefix, m.name) {
                layer.insert(name, v);
            }
        }
    }
    e2e.insert("spmv_ns_per_nnz_p50", median(&wall));
    e2e.insert("spmv_ns_per_nnz_p99", tail(&wall));
    e2e.insert("batch8_ns_per_nnz", median(&wall8));
    e2e.insert("spmv_vs_csr", geomean(&ratios));
    e2e.insert("csr_ns_per_nnz", median(&csr_wall));
    e2e.insert("spmv_cpu_ns_per_nnz", median(&cpu));
    e2e.insert("batch8_cpu_ns_per_nnz", median(&cpu8));
    e2e.insert("spmv_wall_vs_csr", geomean(&paired));
    e2e.insert("batch8_wall_vs_csr", geomean(&paired8));
    e2e.insert("spmv_cpu_vs_csr", geomean(&cpu_ratios));
    e2e.insert("batch8_cpu_vs_csr", geomean(&cpu8_ratios));
}

/// Kernel rounds over every resident plan until `seconds` pass, with
/// the deltas of `refresh`, if any, applied between rounds as they fall
/// due. Returns the batch-1 wall times (ms) of correct outputs and the
/// seconds the rounds took, without the deltas.
#[allow(clippy::too_many_arguments)]
fn kernel_loop(
    plans: &mut impl Resident,
    csrs: &[&Csr],
    xs: &[Vec<Vec<f32>>],
    refs: &mut [Vec<Vec<f32>>],
    seconds: f64,
    mut refresh: Option<&mut Refresh<'_>>,
    samples: &mut [KernelSamples],
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> (Vec<f64>, f64) {
    let mut outputs: Vec<Outputs> = csrs
        .iter()
        .map(|c| Outputs::new(c.rows() as usize))
        .collect();
    let mut batch1_ms = Vec::new();
    let start = Instant::now();
    let mut refresh_s = 0.0;
    let mut r = 0;
    while start.elapsed().as_secs_f64() < seconds {
        for k in 0..csrs.len() {
            if let Some(fresh) = refresh.as_deref_mut() {
                let t = Instant::now();
                let progress = start.elapsed().as_secs_f64() / seconds;
                fresh.apply_due(progress, plans, refs, tally, tracer);
                refresh_s += t.elapsed().as_secs_f64();
            }
            let ran = plans.with(k, |p| {
                kernel::round(
                    p,
                    csrs[k],
                    k,
                    &xs[k],
                    &refs[k],
                    r,
                    &mut outputs[k],
                    &mut samples[k],
                    tally,
                    tracer,
                )
            });
            match ran {
                Some(Some(ns)) => batch1_ms.push(ns / 1e6),
                Some(None) => {}
                None => tally.error(),
            }
        }
        r += 1;
    }
    (batch1_ms, start.elapsed().as_secs_f64() - refresh_s)
}

/// Serial reference outputs of every resident plan (untimed).
fn plan_references(
    plans: &mut impl Resident,
    shadows: &[&Csr],
    xs: &[Vec<Vec<f32>>],
    tally: &mut Tally,
) -> Result<Vec<Vec<Vec<f32>>>, String> {
    (0..shadows.len())
        .map(|k| {
            plans
                .with(k, |p| kernel::references(p, shadows[k], &xs[k], tally))
                .unwrap_or_else(|| Err(format!("matrix {k} is not resident")))
        })
        .collect()
}

/// Deltas applied between kernel rounds: `sequences[k]` to matrix `k`,
/// round-robin over the matrices, due evenly over the kernel phase so
/// they run at the host speeds the rounds see. After each delta the
/// matrix's reference outputs are rebuilt from the plan and checked
/// against CSR of the new version.
struct Refresh<'a> {
    mats: &'a [Matrix],
    xs: &'a [Vec<Vec<f32>>],
    /// `(matrix, delta)` in the order they fall due.
    queue: Vec<(usize, &'a MatrixDelta)>,
    next: usize,
    shadows: Vec<Csr>,
    records: Vec<DeltaRecord>,
    epoch: Instant,
}

impl<'a> Refresh<'a> {
    fn new(mats: &'a [Matrix], xs: &'a [Vec<Vec<f32>>], sequences: &'a [Vec<MatrixDelta>]) -> Self {
        let longest = sequences.iter().map(Vec::len).max().unwrap_or(0);
        let queue = (0..longest)
            .flat_map(|i| {
                sequences
                    .iter()
                    .enumerate()
                    .filter_map(move |(k, sequence)| sequence.get(i).map(|d| (k, d)))
            })
            .collect();
        Refresh {
            mats,
            xs,
            queue,
            next: 0,
            shadows: mats.iter().map(|m| m.csr.clone()).collect(),
            records: Vec::new(),
            epoch: Instant::now(),
        }
    }

    /// Applies every delta due by `progress` (0 to 1) through the phase.
    fn apply_due(
        &mut self,
        progress: f64,
        plans: &mut impl Resident,
        refs: &mut [Vec<Vec<f32>>],
        tally: &mut Tally,
        tracer: &mut Tracer,
    ) {
        let n = self.queue.len() as f64;
        while self.next < self.queue.len() && (self.next as f64 + 0.5) / n <= progress {
            let (k, delta) = self.queue[self.next];
            self.next += 1;
            match timed_delta(plans, k, delta, None, tracer, self.epoch) {
                Ok(rec) => {
                    tally.attempted += 1;
                    self.records.push(rec);
                    corpus::advance(&mut self.shadows[k], delta);
                    let shadow = &self.shadows[k];
                    match plans.with(k, |p| kernel::references(p, shadow, &self.xs[k], tally)) {
                        Some(Ok(fresh)) => refs[k] = fresh,
                        _ => tally.error(),
                    }
                }
                Err(e) => {
                    eprintln!("refresh: delta on {} failed: {e}", self.mats[k].name);
                    tally.error();
                }
            }
        }
    }

    /// Applies what is left, then checks one execution per matrix
    /// against CSR of the matrix the deltas produced.
    fn finish(
        mut self,
        plans: &mut impl Resident,
        refs: &mut [Vec<Vec<f32>>],
        tally: &mut Tally,
        tracer: &mut Tracer,
    ) -> Vec<DeltaRecord> {
        self.apply_due(f64::INFINITY, plans, refs, tally, tracer);
        let firsts: Vec<&[f32]> = self.xs.iter().map(|pool| pool[0].as_slice()).collect();
        kernel::final_check(plans, &self.shadows, &firsts, tally);
        self.records
    }
}

/// The unit refresh deltas are counted in: the geometric mean over
/// matrices of the median serial CSR SpMV of the kernel rounds they ran
/// between.
fn rounds_unit_ms(samples: &[KernelSamples]) -> f64 {
    let per_matrix: Vec<f64> = samples.iter().map(|s| median(&s.csr_ns) / 1e6).collect();
    geomean(&per_matrix)
}

/// The unit deltas beside the open loop are counted in: the geometric
/// mean over matrices of the median serial CSR SpMV timed after each
/// delta on that matrix.
fn calibrated_unit_ms(records: &[DeltaRecord]) -> f64 {
    let matrices = records.iter().map(|r| r.matrix + 1).max().unwrap_or(0);
    let per_matrix: Vec<f64> = (0..matrices)
        .map(|k| {
            let on_k: Vec<f64> = records
                .iter()
                .filter(|r| r.matrix == k)
                .map(|r| r.csr_ms)
                .collect();
            median(&on_k)
        })
        .collect();
    geomean(&per_matrix)
}

/// `delta_*` end-to-end metrics and the `core.*` delta layer metrics.
/// The gated metrics count each apply in `unit_ms`, a serial CSR SpMV
/// timed in the phase the deltas ran in. One unit for the whole run
/// keeps the distribution's shape, and it follows the host's speed over
/// that phase.
fn delta_metrics(records: &[DeltaRecord], unit_ms: f64, e2e: &mut Metrics, layer: &mut Metrics) {
    let all: Vec<f64> = records.iter().map(|r| r.ms).collect();
    e2e.insert("delta_p50_ms", median(&all));
    e2e.insert("delta_p99_ms", tail(&all));
    e2e.insert("delta_p50_spmvs", median(&all) / unit_ms);
    e2e.insert("delta_p99_spmvs", tail(&all) / unit_ms);
    for path in Path::ALL {
        let v: Vec<f64> = records
            .iter()
            .filter(|r| r.path == path)
            .map(|r| r.ms)
            .collect();
        let [p50, p99, count] = match path {
            Path::Patched => [
                "core.delta_ms.patched.p50",
                "core.delta_ms.patched.p99",
                "core.delta_ms.patched.count",
            ],
            Path::Spliced => [
                "core.delta_ms.spliced.p50",
                "core.delta_ms.spliced.p99",
                "core.delta_ms.spliced.count",
            ],
            Path::Reprepared => [
                "core.delta_ms.reprepared.p50",
                "core.delta_ms.reprepared.p99",
                "core.delta_ms.reprepared.count",
            ],
        };
        layer.insert(p50, median(&v));
        layer.insert(p99, tail(&v));
        layer.insert(count, v.len() as f64);
    }
    let golden: Vec<f64> = records.iter().map(|r| r.golden_ms).collect();
    let validate: Vec<f64> = records.iter().map(|r| r.validate_ms).collect();
    layer.insert("core.golden_ms.p50", median(&golden));
    layer.insert("core.golden_ms.p99", tail(&golden));
    layer.insert("sparse.delta_validate_ms.p50", median(&validate));
    layer.insert("sparse.delta_validate_ms.p99", tail(&validate));
    // The split of a structural splice: what the apply would spend
    // rebuilding the golden CSR, validating against it and re-keying
    // the catalog entry, and the rest.
    let spliced: Vec<&DeltaRecord> = records.iter().filter(|r| r.path == Path::Spliced).collect();
    let pick =
        |f: fn(&DeltaRecord) -> f64| median(&spliced.iter().map(|r| f(r)).collect::<Vec<_>>());
    layer.insert("core.splice_golden_ms", pick(|r| r.golden_ms));
    layer.insert("core.splice_validate_ms", pick(|r| r.validate_ms));
    layer.insert("core.splice_rekey_ms", pick(|r| r.rekey_ms));
    layer.insert(
        "core.splice_rest_ms",
        pick(|r| (r.ms - r.validate_ms - r.rekey_ms).max(0.0)),
    );
}

/// Per-layer metrics computed from spans.
fn span_layer(tracer: &Tracer, layer: &mut Metrics) {
    for (span, metric) in [
        ("format.analyze", "format.analyze_ms"),
        ("patterns.select", "patterns.select_ms"),
        ("patterns.decompose", "patterns.decompose_ms"),
        ("core.schedule", "core.schedule_ms"),
        ("format.encode", "format.encode_ms"),
        ("hw.plan_build", "hw.plan_build_ms"),
    ] {
        layer.insert(metric, tracer.durations_ms(span).iter().sum());
    }
    layer.insert("bench.spans", tracer.spans().len() as f64);
}

/// Open-loop metrics: end-to-end request latency and goodput, and the
/// serving layer.
fn loop_metrics(
    stats: &LoopStats,
    limit_ms: f64,
    server: &SpmvServer,
    e2e: &mut Metrics,
    layer: &mut Metrics,
) -> Option<String> {
    let done: Vec<f64> = stats.latency_ms.iter().flatten().copied().collect();
    e2e.insert("req_p50_ms", median(&done));
    e2e.insert("req_p99_ms", tail(&done));
    let good = done.iter().filter(|l| **l <= limit_ms).count();
    e2e.insert("goodput_rps", good as f64 / stats.wall_s.max(1e-9));
    layer.insert("serve.submit_us_p99", tail(&stats.submit_us));
    layer.insert("serve.queue_wait_ms_p50", median(&stats.queue_wait_ms));
    layer.insert("serve.queue_wait_ms_p99", tail(&stats.queue_wait_ms));
    layer.insert("serve.round_ms_p99", tail(&stats.round_ms));
    layer.insert(
        "serve.round_us_per_vector",
        1e3 * stats.round_ms.iter().sum::<f64>() / stats.round_vectors.max(1) as f64,
    );
    let log = server.batch_log();
    let sizes: Vec<f64> = log.iter().map(|b| b.request_ids.len() as f64).collect();
    layer.insert("serve.batch_size_mean", mean(&sizes));
    layer.insert("serve.rejected", stats.rejected as f64);
    layer.insert("serve.shed", stats.shed as f64);
    layer.insert("serve.degraded", stats.degraded as f64);
    layer.insert("bench.gen_late_ms_p99", tail(&stats.late_ms));
    layer.insert(
        "serve.busy_frac",
        stats.busy_ms / 1e3 / stats.wall_s.max(1e-9),
    );
    behind("request generator", &stats.late_ms, limit_ms)
}

/// A client fell behind its schedule when its sends were, on average,
/// later than `LATE_SHARE` of the latency limit, or when its tail send
/// was later than the whole limit. A send waits while the client's
/// previous server call runs; those stalls are the system's latency and
/// show in the request times, which run from the due time. Lateness that
/// builds up, or a tail past the limit, means the offered rate was not
/// offered.
fn behind(client: &str, late_ms: &[f64], limit_ms: f64) -> Option<String> {
    let (late, late_tail) = (mean(late_ms), tail(late_ms));
    if late > LATE_SHARE * limit_ms {
        Some(format!("the {client} sent {late:.2} ms late on average, past {LATE_SHARE} of the {limit_ms} ms limit"))
    } else if late_tail > limit_ms {
        Some(format!("the {client} sent its tail request {late_tail:.2} ms late, past the {limit_ms} ms limit"))
    } else {
        None
    }
}

fn outcome(
    run: Run,
    mut e2e: Metrics,
    mut layer: Metrics,
    tally: Tally,
    invalid: Option<String>,
    deltas: Vec<DeltaRecord>,
) -> Outcome {
    span_layer(&run.tracer, &mut layer);
    for (from, to) in [
        ("spmv_ns_per_nnz_p50", "hw.run_ns_per_nnz_p50"),
        ("spmv_ns_per_nnz_p99", "hw.run_ns_per_nnz_p99"),
        ("batch8_ns_per_nnz", "hw.batch8_ns_per_nnz"),
        ("spmv_vs_csr", "hw.run_vs_csr"),
        ("req_p50_ms", "bench.req_p50_ms"),
        ("req_p99_ms", "bench.req_p99_ms"),
        ("goodput_rps", "bench.goodput_rps"),
    ] {
        layer.insert(to, e2e[from]);
    }
    e2e.insert(
        "fail_frac",
        tally.failed() as f64 / tally.attempted.max(1) as f64,
    );
    layer.insert("bench.fail_frac", e2e["fail_frac"]);
    Outcome {
        e2e,
        layer,
        tally,
        invalid,
        tracer: run.tracer,
        deltas,
    }
}

/// `solve`: one caller, iterative SpMV on the core matrices.
pub fn solve(mut run: Run) -> Result<Outcome, String> {
    let mats = corpus::generate(&CORE);
    let mut rng = corpus::rng(run.seed, 1);
    let xs: Vec<Vec<Vec<f32>>> = mats
        .iter()
        .map(|m| corpus::vectors(&mut rng, m.csr.cols() as usize, POOL))
        .collect();
    let sequences: Vec<Vec<MatrixDelta>> = mats
        .iter()
        .enumerate()
        .map(|(k, m)| delta_sequence(m, k, run.seed, REFRESH_DELTAS, &STRUCTURAL_OPS))
        .collect();
    let (mut e2e, mut layer, mut tally) = (Metrics::new(), Metrics::new(), Tally::default());
    let tracer = &mut run.tracer;

    let prepare_all = |tracer: &mut Tracer| {
        tracer
            .span("setup.prepare", NO_TAG, 0, |tracer| {
                mats.iter()
                    .enumerate()
                    .map(|(k, m)| {
                        tracer.span("core.prepare", k as u32, 0, |_| {
                            Pipeline::new().prepare(&m.coo)
                        })
                    })
                    .collect::<Result<Vec<Prepared>, _>>()
            })
            .map_err(|e| e.to_string())
    };
    crate::mem::mark_baseline();
    let mut setups = SetupTimes::default();
    let mut plans = setups.run(|| prepare_all(tracer))?;
    let keys: Vec<MatrixFingerprint> = plans.iter().map(|p| p.encoded.fingerprint()).collect();
    staged_pass(&mats, &keys, &mut tally, tracer)?;
    let sim = plan_layer(&mut plans, &mats, &mut layer);
    e2e.insert("sim_gflops", sim);

    let csrs: Vec<&Csr> = mats.iter().map(|m| &m.csr).collect();
    let mut refs = plan_references(&mut plans, &csrs, &xs, &mut tally)?;
    let mut samples = vec![KernelSamples::default(); mats.len()];
    let mut fresh = Refresh::new(&mats, &xs, &sequences);
    let (batch1_ms, wall_s) = kernel_loop(
        &mut plans,
        &csrs,
        &xs,
        &mut refs,
        run.seconds,
        Some(&mut fresh),
        &mut samples,
        &mut tally,
        tracer,
    );
    let deltas = fresh.finish(&mut plans, &mut refs, &mut tally, tracer);
    kernel_metrics(&samples, &mats, &csrs, &mut e2e, &mut layer);
    e2e.insert("req_p50_ms", median(&batch1_ms));
    e2e.insert("req_p99_ms", tail(&batch1_ms));
    let good = batch1_ms.iter().filter(|l| **l <= SOLVE_LIMIT_MS).count();
    e2e.insert("goodput_rps", good as f64 / wall_s);
    delta_metrics(&deltas, rounds_unit_ms(&samples), &mut e2e, &mut layer);
    drop(plans);
    crate::mem::freeze_peak();
    setups.run(|| prepare_all(tracer).map(drop))?;
    e2e.insert("setup_s", setups.median());
    Ok(outcome(run, e2e, layer, tally, None, deltas))
}

/// `serve`: an open loop of Zipf-skewed requests against six plans
/// ingested as wire-v3 containers.
pub fn serve(mut run: Run) -> Result<Outcome, String> {
    let names: Vec<&'static str> = CORE.iter().chain(&SERVE_EXTRA).copied().collect();
    let mats = corpus::generate(&names);
    let mut rng = corpus::rng(run.seed, 2);
    let xs: Vec<Vec<Vec<f32>>> = mats
        .iter()
        .map(|m| corpus::vectors(&mut rng, m.csr.cols() as usize, POOL))
        .collect();
    let loop_s = run.seconds * SERVE_LOOP_SHARE;
    let schedule = arrivals(&mut rng, SERVE_RATE, loop_s, mats.len(), SERVE_SKEW, POOL);
    let sequences: Vec<Vec<MatrixDelta>> = mats
        .iter()
        .enumerate()
        .map(|(k, m)| delta_sequence(m, k, run.seed, SERVE_REFRESH_DELTAS, &[]))
        .collect();
    let (mut e2e, mut layer, mut tally) = (Metrics::new(), Metrics::new(), Tally::default());
    let tracer = &mut run.tracer;

    // Inputs: the corpus frozen to wire-v3 containers.
    let mut containers = Vec::new();
    let mut keys = Vec::new();
    for m in &mats {
        let p = Pipeline::new().prepare(&m.coo).map_err(|e| e.to_string())?;
        keys.push(p.encoded.fingerprint());
        containers.push(save_v3(&p.encoded, &p.plan).map_err(|e| e.to_string())?);
    }
    staged_pass(&mats, &keys, &mut tally, tracer)?;

    let ingest_all = |tracer: &mut Tracer| {
        let server = SpmvServer::new(server_config());
        let ingested = tracer
            .span("setup.ingest_wire", NO_TAG, 0, |tracer| {
                containers
                    .iter()
                    .enumerate()
                    .map(|(k, bytes)| {
                        tracer.span("serve.ingest_wire", k as u32, 0, |_| {
                            server.ingest_wire(bytes)
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()
            })
            .map_err(|e| e.to_string())?;
        Ok::<_, String>((server, ingested))
    };
    crate::mem::mark_baseline();
    let mut setups = SetupTimes::default();
    let (server, ingested) = setups.run(|| ingest_all(tracer))?;
    tally.check(ingested == keys);
    if tracer.is_on() {
        store_probe(&containers, &mut layer, tracer)?;
    }
    let key_cells: Vec<Mutex<MatrixFingerprint>> = keys.iter().map(|k| Mutex::new(*k)).collect();
    let mut plans = Served {
        server: &server,
        keys: &key_cells,
    };
    let sim = plan_layer(&mut plans, &mats, &mut layer);
    e2e.insert("sim_gflops", sim);
    let csrs: Vec<&Csr> = mats.iter().map(|m| &m.csr).collect();
    let mut refs = plan_references(&mut plans, &csrs, &xs, &mut tally)?;

    let epoch = Instant::now();
    let stats = open_loop(
        plans,
        &schedule,
        &xs,
        &Expect::Bits(&refs),
        epoch,
        &mut tally,
        tracer,
    );
    let invalid = loop_metrics(&stats, SERVE_LIMIT_MS, &server, &mut e2e, &mut layer);

    let mut samples = vec![KernelSamples::default(); mats.len()];
    let mut fresh = Refresh::new(&mats, &xs, &sequences);
    kernel_loop(
        &mut plans,
        &csrs,
        &xs,
        &mut refs,
        run.seconds - loop_s,
        Some(&mut fresh),
        &mut samples,
        &mut tally,
        tracer,
    );
    let deltas = fresh.finish(&mut plans, &mut refs, &mut tally, tracer);
    kernel_metrics(&samples, &mats, &csrs, &mut e2e, &mut layer);
    delta_metrics(&deltas, rounds_unit_ms(&samples), &mut e2e, &mut layer);
    drop(server);
    crate::mem::freeze_peak();
    setups.run(|| ingest_all(tracer).map(drop))?;
    e2e.insert("setup_s", setups.median());
    Ok(outcome(run, e2e, layer, tally, invalid, deltas))
}

/// Traced serve runs: the store layer's calls, made from outside in the
/// order wire-v3 ingest makes them (plus the explicit CRC `verify`).
/// Each metric is the median over passes of the corpus total.
fn store_probe(
    containers: &[Vec<u8>],
    layer: &mut Metrics,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let (mut open, mut verify, mut thaw) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..SETUP_REPS {
        let (mut o, mut v, mut t) = (0.0, 0.0, 0.0);
        for (k, bytes) in containers.iter().enumerate() {
            let tag = k as u32;
            let t0 = Instant::now();
            let frozen = tracer
                .span("store.open", tag, 0, |_| {
                    FrozenPlan::open(PlanBuffer::from_bytes(bytes))
                })
                .map_err(|e| e.to_string())?;
            let t1 = Instant::now();
            tracer
                .span("store.verify", tag, 0, |_| frozen.verify())
                .map_err(|e| e.to_string())?;
            let t2 = Instant::now();
            let restored = tracer.span("store.thaw", tag, 0, |_| -> Result<Prepared, String> {
                let encoded = frozen.matrix().map_err(|e| e.to_string())?;
                let plan = frozen.into_plan().map_err(|e| e.to_string())?;
                Prepared::restore(encoded, plan, Parallelism::Auto, IntegrityPolicy::off())
                    .map_err(|e| e.to_string())
            })?;
            let t3 = Instant::now();
            black_box(restored.plan.n_instances());
            o += ms(t1 - t0);
            v += ms(t2 - t1);
            t += ms(t3 - t2);
        }
        open.push(o);
        verify.push(v);
        thaw.push(t);
    }
    layer.insert("store.open_ms", median(&open));
    layer.insert("store.verify_ms", median(&verify));
    layer.insert("store.thaw_ms", median(&thaw));
    Ok(())
}

/// `count` deltas for matrix `k`, valid in order: unless
/// `structural_ops` is empty, every `STRUCTURAL_EVERY`th is structural
/// (inserts and deletes, `structural_ops` operations in turn); the others
/// are values-only `VALUE_OPS`-op patches that avoid every cell a
/// structural delta touches, so both kinds stay valid whatever the other
/// has done.
fn delta_sequence(
    m: &Matrix,
    k: usize,
    seed: u64,
    count: usize,
    structural_ops: &[usize],
) -> Vec<MatrixDelta> {
    let structural_count = if structural_ops.is_empty() {
        0
    } else {
        count / STRUCTURAL_EVERY
    };
    let structural: Vec<MatrixDelta> = (0..structural_count)
        .scan(m.coo.clone(), |coo, i| {
            let config = ChangesetConfig {
                deltas: 1,
                ops_per_delta: structural_ops[i % structural_ops.len()],
                tick_stride: 1,
                ..ChangesetConfig::default()
            }
            .structural_only();
            let (_, delta) = changesets(coo, seed ^ (0x200 + 16 * k as u64 + i as u64), &config)
                .pop()
                .expect("one delta requested");
            let next = apply_to_csr(&Csr::from(&*coo), &delta);
            *coo = spasm_sparse::Coo::from(&next);
            Some(delta)
        })
        .collect();
    let touched: std::collections::HashSet<(u32, u32)> = structural
        .iter()
        .flat_map(|d| d.ops().iter().map(|op| op.coord()))
        .collect();
    let values = changesets(
        &m.coo,
        seed ^ (0x300 + k as u64),
        &ChangesetConfig {
            deltas: count - structural_count,
            ops_per_delta: VALUE_OPS,
            tick_stride: 1,
            ..ChangesetConfig::default()
        }
        .values_only(),
    );
    let mut values = values
        .into_iter()
        .map(|(_, d)| corpus::without_cells(&d, &touched));
    let mut structural = structural.into_iter();
    (0..count)
        .map(|nth| {
            let next = if nth % STRUCTURAL_EVERY == STRUCTURAL_EVERY - 1 && structural_count > 0 {
                structural.next()
            } else {
                values.next()
            };
            next.expect("the sequence holds exactly `count` deltas")
        })
        .collect()
}

/// The update stream: `DELTA_RATE` deltas a second over `seconds`,
/// round-robin over the matrices, each matrix's in `delta_sequence`
/// order.
fn update_stream(mats: &[Matrix], seed: u64, seconds: f64) -> Vec<ScheduledDelta> {
    let total = (DELTA_RATE * seconds) as usize;
    let n = mats.len();
    let mut sequences: Vec<_> = mats
        .iter()
        .enumerate()
        .map(|(k, m)| {
            delta_sequence(
                m,
                k,
                seed,
                total / n + usize::from(k < total % n),
                &STRUCTURAL_OPS,
            )
            .into_iter()
        })
        .collect();
    (0..total)
        .map(|i| ScheduledDelta {
            due_us: ((i as f64 + 0.5) / DELTA_RATE * 1e6) as u64,
            matrix: i % n,
            delta: sequences[i % n].next().expect("each matrix gets its share"),
        })
        .collect()
}

/// `update`: queries beside a stream of values-only and structural
/// deltas on three resident matrices.
pub fn update(mut run: Run) -> Result<Outcome, String> {
    let mats = corpus::generate(&CORE);
    let mut rng = corpus::rng(run.seed, 3);
    let xs: Vec<Vec<Vec<f32>>> = mats
        .iter()
        .map(|m| corpus::vectors(&mut rng, m.csr.cols() as usize, POOL))
        .collect();
    let loop_s = run.seconds * UPDATE_LOOP_SHARE;
    let schedule = arrivals(&mut rng, UPDATE_RATE, loop_s, mats.len(), 0.0, UPDATE_POOL);
    let stream = update_stream(&mats, run.seed, loop_s);
    // CSR reference outputs of every matrix version the stream produces.
    let mut finals: Vec<Csr> = mats.iter().map(|m| m.csr.clone()).collect();
    let mut version_refs: Vec<Vec<Vec<Vec<f32>>>> = mats
        .iter()
        .zip(&xs)
        .map(|(m, pool)| {
            vec![pool[..UPDATE_POOL]
                .iter()
                .map(|x| csr_product(&m.csr, x))
                .collect()]
        })
        .collect();
    for d in &stream {
        let k = d.matrix;
        corpus::advance(&mut finals[k], &d.delta);
        let outs = xs[k][..UPDATE_POOL]
            .iter()
            .map(|x| csr_product(&finals[k], x))
            .collect();
        version_refs[k].push(outs);
    }
    let (mut e2e, mut layer, mut tally) = (Metrics::new(), Metrics::new(), Tally::default());
    let tracer = &mut run.tracer;

    let ingest_all = |tracer: &mut Tracer| {
        let server = SpmvServer::new(server_config());
        let keys = tracer
            .span("setup.ingest_coo", NO_TAG, 0, |tracer| {
                mats.iter()
                    .enumerate()
                    .map(|(k, m)| {
                        tracer.span("serve.ingest_coo", k as u32, 0, |_| {
                            server.ingest_coo(&m.coo)
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()
            })
            .map_err(|e| e.to_string())?;
        Ok::<_, String>((server, keys))
    };
    crate::mem::mark_baseline();
    let mut setups = SetupTimes::default();
    let (server, keys) = setups.run(|| ingest_all(tracer))?;
    staged_pass(&mats, &keys, &mut tally, tracer)?;
    let key_cells: Vec<Mutex<MatrixFingerprint>> = keys.iter().map(|k| Mutex::new(*k)).collect();
    let mut plans = Served {
        server: &server,
        keys: &key_cells,
    };
    let sim = plan_layer(&mut plans, &mats, &mut layer);
    e2e.insert("sim_gflops", sim);

    let versions = Versions::new(mats.len());
    let pool: Vec<Vec<Vec<f32>>> = xs.iter().map(|p| p[..UPDATE_POOL].to_vec()).collect();
    let expect = Expect::Versions(&version_refs, &versions);
    let csrs: Vec<&Csr> = mats.iter().map(|m| &m.csr).collect();
    let unit = SpmvUnit {
        csrs: &csrs,
        xs: &xs,
    };
    let epoch = Instant::now();
    let mut delta_tracer = tracer.fork(2);
    let mut delta_tally = Tally::default();
    let (stats, (records, delta_late)) = std::thread::scope(|scope| {
        let deltas = scope.spawn(|| {
            delta_stream(
                plans,
                &stream,
                &unit,
                &versions,
                epoch,
                &mut delta_tally,
                &mut delta_tracer,
            )
        });
        let stats = open_loop(plans, &schedule, &pool, &expect, epoch, &mut tally, tracer);
        (
            stats,
            deltas.join().expect("the delta stream does not panic"),
        )
    });
    tracer.absorb(delta_tracer);
    tally.attempted += delta_tally.attempted;
    tally.errors += delta_tally.errors;
    tally.wrong += delta_tally.wrong;
    let mut invalid = loop_metrics(&stats, UPDATE_LIMIT_MS, &server, &mut e2e, &mut layer);
    layer.insert("bench.delta_late_ms_p99", tail(&delta_late));
    layer.insert(
        "bench.delta_busy_frac",
        records.iter().map(|r| r.ms).sum::<f64>() / 1e3 / stats.wall_s.max(1e-9),
    );
    invalid = invalid.or_else(|| behind("delta stream", &delta_late, UPDATE_LIMIT_MS));
    // Queries due while an apply_delta held their matrix's plan lock.
    let blocked: Vec<f64> = schedule
        .iter()
        .zip(&stats.latency_ms)
        .filter(|(a, _)| {
            records
                .iter()
                .any(|r| r.matrix == a.matrix && r.start_us <= a.due_us && a.due_us < r.end_us)
        })
        .filter_map(|(_, l)| *l)
        .collect();
    layer.insert("serve.blocked_req_ms_p99", tail(&blocked));
    layer.insert("serve.blocked_req_count", blocked.len() as f64);

    // Kernel rounds on the updated plans, against their own serial
    // outputs (each checked against CSR of the final version).
    let final_refs: Vec<&Csr> = finals.iter().collect();
    let mut refs = plan_references(&mut plans, &final_refs, &xs, &mut tally)?;
    let mut samples = vec![KernelSamples::default(); mats.len()];
    kernel_loop(
        &mut plans,
        &final_refs,
        &xs,
        &mut refs,
        run.seconds - loop_s,
        None,
        &mut samples,
        &mut tally,
        tracer,
    );
    kernel_metrics(&samples, &mats, &final_refs, &mut e2e, &mut layer);
    delta_metrics(&records, calibrated_unit_ms(&records), &mut e2e, &mut layer);
    drop(server);
    crate::mem::freeze_peak();
    setups.run(|| ingest_all(tracer).map(drop))?;
    e2e.insert("setup_s", setups.median());
    Ok(outcome(run, e2e, layer, tally, invalid, records))
}
