//! Calls into the plan executor and the delta path, shared by every
//! workload: interleaved batch-1 / batch-8 / serial-CSR rounds, serial
//! reference outputs, and timed `apply_delta` with its traced split.

use std::hint::black_box;
use std::time::Instant;

use spasm::{DeltaOutcome, Prepared};
use spasm_format::MatrixFingerprint;
use spasm_serve::SpmvServer;
use spasm_sparse::{Csr, MatrixDelta, SpMv};

use crate::corpus::{bit_equal, csr_product, within_bound};
use crate::trace::Tracer;

/// Request vectors per matrix in the kernel rounds (the batch-8 call
/// uses all of them).
pub const POOL: usize = 8;

/// Operation tallies shared by every phase of a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    /// Calls that returned an error, or requests refused or shed.
    pub errors: u64,
    /// Outputs that failed the correctness check.
    pub wrong: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.errors + self.wrong
    }

    /// Counts one checked output.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.wrong += 1;
        }
    }

    pub fn error(&mut self) {
        self.attempted += 1;
        self.errors += 1;
    }
}

/// Host times of one matrix's kernel calls, in ns per call: wall time,
/// and the CPU time all of the process's threads spent in the call.
#[derive(Debug, Default, Clone)]
pub struct KernelSamples {
    pub batch1_ns: Vec<f64>,
    pub batch8_ns: Vec<f64>,
    pub csr_ns: Vec<f64>,
    pub batch1_cpu_ns: Vec<f64>,
    pub batch8_cpu_ns: Vec<f64>,
    pub csr_cpu_ns: Vec<f64>,
    /// Per round: batch-1 wall time, and batch-8 wall time per vector,
    /// each ÷ the serial CSR wall time of the same round. Calls a few
    /// milliseconds apart see the same host speed on the CPU serial CSR
    /// runs on, so the pair cancels that speed even when it changes
    /// within a run; it does not cancel a slowdown of the other CPU.
    pub batch1_vs_csr: Vec<f64>,
    pub batch8_vs_csr: Vec<f64>,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU time consumed so far by every thread of this process, in ns.
///
/// Unlike wall time, it excludes time the hypervisor took from this
/// machine's CPUs (steal), which on a shared host moves the wall time of
/// parallel calls by more than any bound the benchmark may set.
fn process_cpu_ns() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the whole call, and the clock id is one
    // Linux always provides; the call writes only through that pointer.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return f64::NAN;
    }
    ts.tv_sec as f64 * 1e9 + ts.tv_nsec as f64
}

/// Runs `f`, returning its result with its wall and CPU time in ns.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    let (wall, cpu) = (Instant::now(), process_cpu_ns());
    let out = f();
    let cpu_ns = process_cpu_ns() - cpu;
    (out, wall.elapsed().as_nanos() as f64, cpu_ns)
}

/// `y = A·x` from the plan with a one-thread budget: the serial batch-1
/// output every plan output must match bit for bit.
pub fn serial_output(p: &mut Prepared, x: &[f32]) -> Result<Vec<f32>, String> {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .map_err(|e| format!("{e:?}"))?;
    let mut y = vec![0.0f32; p.plan.rows() as usize];
    pool.install(|| p.plan.run(x, &mut y).map(|_| ()))
        .map_err(|e| e.to_string())?;
    Ok(y)
}

/// Serial reference outputs for `xs`, each checked against CSR.
pub fn references(
    p: &mut Prepared,
    csr: &Csr,
    xs: &[Vec<f32>],
    tally: &mut Tally,
) -> Result<Vec<Vec<f32>>, String> {
    let mut refs = Vec::with_capacity(xs.len());
    for x in xs {
        let y = serial_output(p, x)?;
        tally.check(within_bound(&y, &csr_product(csr, x)));
        refs.push(y);
    }
    Ok(refs)
}

/// Output vectors reused across rounds.
pub struct Outputs {
    y: Vec<f32>,
    ys: Vec<Vec<f32>>,
}

impl Outputs {
    pub fn new(rows: usize) -> Self {
        Outputs {
            y: vec![0.0; rows],
            ys: vec![vec![0.0; rows]; POOL],
        }
    }
}

/// One interleaved round on matrix `k`: batch-1 `execute_into` on
/// vector `round % POOL`, batch-8 `execute_batch_into` on the whole
/// pool, and serial `Csr::spmv`, in an order that rotates each round.
/// Outputs are checked after the timed calls. Returns the batch-1 wall
/// time in ns when that call succeeded and was correct.
#[allow(clippy::too_many_arguments)]
pub fn round(
    p: &mut Prepared,
    csr: &Csr,
    k: usize,
    xs: &[Vec<f32>],
    refs: &[Vec<f32>],
    round: usize,
    outputs: &mut Outputs,
    samples: &mut KernelSamples,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> Option<f64> {
    let tag = k as u32;
    let j = round % POOL;
    let mut batch1 = None;
    let (mut wall1, mut wall8, mut wall_csr) = (None, None, None);
    tracer.span("bench.round", tag, 0, |tracer| {
        for step in 0..3 {
            match (step + round) % 3 {
                0 => {
                    outputs.y.fill(0.0);
                    let (ok, ns, cpu) = tracer.span("hw.execute_into", tag, 0, |_| {
                        timed(|| p.execute_into(&xs[j], &mut outputs.y).is_ok())
                    });
                    if !ok {
                        tally.error();
                        continue;
                    }
                    samples.batch1_ns.push(ns);
                    samples.batch1_cpu_ns.push(cpu);
                    wall1 = Some(ns);
                    let correct = bit_equal(&outputs.y, &refs[j]);
                    tally.check(correct);
                    if correct {
                        batch1 = Some(ns);
                    }
                }
                1 => {
                    for y in &mut outputs.ys {
                        y.fill(0.0);
                    }
                    let (ok, ns, cpu) = tracer.span("hw.execute_batch_into", tag, 0, |_| {
                        timed(|| p.execute_batch_into(xs, &mut outputs.ys).is_ok())
                    });
                    if !ok {
                        for _ in 0..POOL {
                            tally.error();
                        }
                        continue;
                    }
                    samples.batch8_ns.push(ns);
                    samples.batch8_cpu_ns.push(cpu);
                    wall8 = Some(ns / POOL as f64);
                    for (y, want) in outputs.ys.iter().zip(refs) {
                        tally.check(bit_equal(y, want));
                    }
                }
                _ => {
                    outputs.y.fill(0.0);
                    let (ok, ns, cpu) = tracer.span("sparse.csr_spmv", tag, 0, |_| {
                        timed(|| csr.spmv(&xs[j], &mut outputs.y).is_ok())
                    });
                    black_box(&outputs.y);
                    if ok {
                        samples.csr_ns.push(ns);
                        samples.csr_cpu_ns.push(cpu);
                        wall_csr = Some(ns);
                    }
                }
            }
        }
    });
    if let (Some(one), Some(eight), Some(csr)) = (wall1, wall8, wall_csr) {
        samples.batch1_vs_csr.push(one / csr);
        samples.batch8_vs_csr.push(eight / csr);
    }
    batch1
}

/// Which path `apply_delta` took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    Patched,
    Spliced,
    Reprepared,
}

impl Path {
    pub const ALL: [Path; 3] = [Path::Patched, Path::Spliced, Path::Reprepared];

    pub fn name(self) -> &'static str {
        match self {
            Path::Patched => "patched",
            Path::Spliced => "spliced",
            Path::Reprepared => "reprepared",
        }
    }

    fn of(outcome: &DeltaOutcome) -> Path {
        match outcome {
            DeltaOutcome::Patched { .. } => Path::Patched,
            DeltaOutcome::Spliced { .. } => Path::Spliced,
            _ => Path::Reprepared,
        }
    }
}

/// One applied delta.
#[derive(Debug, Clone, Copy)]
pub struct DeltaRecord {
    pub matrix: usize,
    pub path: Path,
    /// Operations in the delta.
    pub ops: usize,
    /// Wall time of the `apply_delta` call.
    pub ms: f64,
    /// Deltas beside the open loop only: wall time of a serial
    /// `Csr::spmv` on the same matrix right after the call (fastest of
    /// three), from which the gated delta metrics take their unit; 0
    /// elsewhere.
    pub csr_ms: f64,
    /// Traced runs only: `Prepared::golden()` just before the apply,
    /// `MatrixDelta::validate` against it, and (for served plans) the
    /// content fingerprint the catalog re-keys the entry under, computed
    /// again after the apply.
    pub golden_ms: f64,
    pub validate_ms: f64,
    pub rekey_ms: f64,
    /// Call interval, µs since the open loop started (update workload).
    pub start_us: u64,
    pub end_us: u64,
}

/// Resident plans a delta can be applied to: owned by the caller
/// (solve) or held by a server's catalog (serve, update).
pub trait Resident {
    fn with<R>(&mut self, k: usize, f: impl FnOnce(&mut Prepared) -> R) -> Option<R>;
    fn apply(&mut self, k: usize, delta: &MatrixDelta) -> Result<DeltaOutcome, String>;
    /// Whether `apply` re-keys the plan under its new content
    /// fingerprint.
    fn rekeys(&self) -> bool;
}

impl Resident for Vec<Prepared> {
    fn rekeys(&self) -> bool {
        false
    }

    fn with<R>(&mut self, k: usize, f: impl FnOnce(&mut Prepared) -> R) -> Option<R> {
        self.get_mut(k).map(f)
    }

    fn apply(&mut self, k: usize, delta: &MatrixDelta) -> Result<DeltaOutcome, String> {
        self[k].apply_delta(delta).map_err(|e| e.to_string())
    }
}

/// Plans served by a [`SpmvServer`]; `keys` holds each matrix's current
/// catalog key, re-keyed after every applied delta.
#[derive(Clone, Copy)]
pub struct Served<'a> {
    pub server: &'a SpmvServer,
    pub keys: &'a [std::sync::Mutex<MatrixFingerprint>],
}

impl Served<'_> {
    pub fn key(&self, k: usize) -> MatrixFingerprint {
        *self.keys[k].lock().expect("key lock is never poisoned")
    }
}

impl Resident for Served<'_> {
    fn rekeys(&self) -> bool {
        true
    }

    fn with<R>(&mut self, k: usize, f: impl FnOnce(&mut Prepared) -> R) -> Option<R> {
        self.server.with_prepared(self.key(k), f)
    }

    fn apply(&mut self, k: usize, delta: &MatrixDelta) -> Result<DeltaOutcome, String> {
        let (key, outcome) = self
            .server
            .apply_delta(&self.key(k), delta)
            .map_err(|e| e.to_string())?;
        *self.keys[k].lock().expect("key lock is never poisoned") = key;
        Ok(outcome)
    }
}

/// Applies `delta` to matrix `k`, timing the call. Traced runs first
/// time `Prepared::golden()` and `MatrixDelta::validate` as separate
/// calls, which splits what the apply would otherwise spend on them.
pub fn timed_delta(
    plans: &mut impl Resident,
    k: usize,
    delta: &MatrixDelta,
    unit: Option<&SpmvUnit<'_>>,
    tracer: &mut Tracer,
    epoch: Instant,
) -> Result<DeltaRecord, String> {
    let tag = k as u32;
    let (mut golden_ms, mut validate_ms) = (0.0, 0.0);
    if tracer.is_on() {
        let t = Instant::now();
        tracer.span("core.golden", tag, 0, |_| {
            plans.with(k, |p| black_box(p.golden().nnz()))
        });
        golden_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let valid = tracer.span("sparse.delta_validate", tag, 0, |_| {
            plans.with(k, |p| delta.validate(p.golden()).is_ok())
        });
        validate_ms = t.elapsed().as_secs_f64() * 1e3;
        if valid != Some(true) {
            return Err(format!("delta for matrix {k} failed validation"));
        }
    }
    let start_us = epoch.elapsed().as_micros() as u64;
    let t = Instant::now();
    let outcome = tracer.span("core.apply_delta", tag, 0, |_| plans.apply(k, delta))?;
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let end_us = epoch.elapsed().as_micros() as u64;
    let mut rekey_ms = 0.0;
    if tracer.is_on() && plans.rekeys() {
        let t = Instant::now();
        tracer.span("format.fingerprint", tag, 0, |_| {
            plans.with(k, |p| black_box(p.encoded.fingerprint()))
        });
        rekey_ms = t.elapsed().as_secs_f64() * 1e3;
    }
    Ok(DeltaRecord {
        matrix: k,
        path: Path::of(&outcome),
        ops: delta.len(),
        ms,
        csr_ms: unit.map_or(0.0, |u| u.ms(k)),
        golden_ms,
        validate_ms,
        rekey_ms,
        start_us,
        end_us,
    })
}

/// Serial `Csr::spmv` on each matrix of the corpus as it was generated,
/// timed right after each delta that runs beside the open loop, where no
/// kernel rounds run to give the unit a delta's cost is counted in.
pub struct SpmvUnit<'a> {
    pub csrs: &'a [&'a Csr],
    pub xs: &'a [Vec<Vec<f32>>],
}

impl SpmvUnit<'_> {
    /// Fastest of three serial SpMVs on matrix `k`, in ms.
    pub fn ms(&self, k: usize) -> f64 {
        let csr = self.csrs[k];
        let mut y = vec![0.0f32; csr.rows() as usize];
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t = Instant::now();
            if csr.spmv(&self.xs[k][0], &mut y).is_err() {
                return f64::NAN;
            }
            best = best.min(t.elapsed().as_secs_f64() * 1e3);
            black_box(&y);
        }
        best
    }
}

/// After a run's deltas: one batch-1 execution per matrix, checked
/// against CSR of the matrix version the deltas produced.
pub fn final_check(plans: &mut impl Resident, shadows: &[Csr], xs: &[&[f32]], tally: &mut Tally) {
    for (k, (csr, x)) in shadows.iter().zip(xs).enumerate() {
        let mut y = vec![0.0f32; csr.rows() as usize];
        match plans.with(k, |p| p.execute_into(x, &mut y).map(|_| ())) {
            Some(Ok(())) => tally.check(within_bound(&y, &csr_product(csr, x))),
            _ => tally.error(),
        }
    }
}
