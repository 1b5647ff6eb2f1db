//! The open-loop client for the `serve` and `update` workloads, and the
//! delta stream that runs beside it in `update`.
//!
//! One client thread sends requests on a pre-generated schedule and
//! advances the server's `VirtualClock` to wall-clock µs since the loop
//! started, so the queue's `max_delay` coalescing happens in real time.
//! A request's latency runs from when it was due until the client call
//! that returned its completion returned. Output checks run while the
//! client waits for its next event, never inside a timed call.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use spasm::IntegrityPolicy;
use spasm_serve::{Completion, ServeError};
use spasm_sparse::MatrixDelta;

use crate::corpus::{bit_equal, within_bound, Arrival};
use crate::kernel::{timed_delta, DeltaRecord, Served, SpmvUnit, Tally};
use crate::trace::{Tracer, NO_TAG};

/// How served outputs are checked.
pub enum Expect<'a> {
    /// Bit-identical to the plan's serial batch-1 output:
    /// `refs[matrix][vector]`.
    Bits(&'a [Vec<Vec<f32>>]),
    /// Within the differential bound of `Csr::spmv` on some matrix
    /// version in force during the client call that returned the
    /// output: `refs[matrix][version][vector]`.
    Versions(&'a [Vec<Vec<Vec<f32>>>], &'a Versions),
}

/// Per-matrix version counters of the update stream: `started` is bumped
/// just before an `apply_delta` call, `done` just after it returns, so
/// every execution during a client call ran on a version between `done`
/// at the call's start and `started` at its end.
pub struct Versions {
    pub started: Vec<AtomicUsize>,
    pub done: Vec<AtomicUsize>,
}

impl Versions {
    pub fn new(matrices: usize) -> Self {
        Versions {
            started: (0..matrices).map(|_| AtomicUsize::new(0)).collect(),
            done: (0..matrices).map(|_| AtomicUsize::new(0)).collect(),
        }
    }

    fn snapshot(counters: &[AtomicUsize]) -> Vec<usize> {
        counters.iter().map(|c| c.load(Ordering::SeqCst)).collect()
    }
}

/// What the open loop measured.
#[derive(Debug, Default)]
pub struct LoopStats {
    /// Per scheduled request: latency in ms of a completed request, or
    /// `None` when it was refused, shed, failed or wrong.
    pub latency_ms: Vec<Option<f64>>,
    /// Lateness of each send against its schedule, in ms.
    pub late_ms: Vec<f64>,
    pub submit_us: Vec<f64>,
    pub queue_wait_ms: Vec<f64>,
    /// Client calls that executed batches: wall ms and vectors served.
    pub round_ms: Vec<f64>,
    pub round_vectors: u64,
    /// Wall ms the client spent inside server calls (`submit` and
    /// `advance_to`): the share of the loop the serving path was busy.
    pub busy_ms: f64,
    pub rejected: u64,
    pub shed: u64,
    pub degraded: u64,
    /// From the first due time to the last completion.
    pub wall_s: f64,
}

struct Pending {
    arrival: usize,
    y: Vec<f32>,
    lo: Vec<usize>,
    hi: Vec<usize>,
}

/// Client state: what is in flight and what is still to be checked.
struct Client<'a> {
    schedule: &'a [Arrival],
    expect: &'a Expect<'a>,
    epoch: Instant,
    stats: LoopStats,
    by_id: HashMap<u64, usize>,
    checks: VecDeque<Pending>,
}

impl Client<'_> {
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Version bounds: `done` before a call, `started` after it.
    fn versions(&self, started: bool) -> Vec<usize> {
        match self.expect {
            Expect::Versions(_, v) => {
                Versions::snapshot(if started { &v.started } else { &v.done })
            }
            Expect::Bits(_) => Vec::new(),
        }
    }

    /// Files the completions one client call returned; the call started
    /// with version bounds `lo` and took `call_ms`.
    fn file(&mut self, done: Vec<Completion>, lo: Vec<usize>, call_ms: f64, tally: &mut Tally) {
        let (hi, t_end) = (self.versions(true), self.now_us());
        let mut served = 0u64;
        for c in done {
            let Some(arrival) = self.by_id.remove(&c.id) else {
                continue;
            };
            match c.result {
                Ok(out) => {
                    served += 1;
                    self.stats.queue_wait_ms.push(out.queued_ticks as f64 / 1e3);
                    if out.degraded {
                        self.stats.degraded += 1;
                    }
                    let due = self.schedule[arrival].due_us;
                    self.stats.latency_ms[arrival] = Some(t_end.saturating_sub(due) as f64 / 1e3);
                    self.checks.push_back(Pending {
                        arrival,
                        y: out.y,
                        lo: lo.clone(),
                        hi: hi.clone(),
                    });
                }
                Err(ServeError::Rejected(_)) => {
                    self.stats.shed += 1;
                    tally.error();
                }
                Err(_) => tally.error(),
            }
        }
        if served > 0 {
            self.stats.round_ms.push(call_ms);
            self.stats.round_vectors += served;
        }
    }

    /// Checks the oldest unchecked output; `false` when none is left.
    fn check_one(&mut self, tally: &mut Tally) -> bool {
        let Some(p) = self.checks.pop_front() else {
            return false;
        };
        let a = self.schedule[p.arrival];
        let ok = match self.expect {
            Expect::Bits(refs) => bit_equal(&p.y, &refs[a.matrix][a.vector]),
            Expect::Versions(refs, _) => (p.lo[a.matrix]..=p.hi[a.matrix])
                .any(|v| within_bound(&p.y, &refs[a.matrix][v][a.vector])),
        };
        tally.check(ok);
        if !ok {
            self.stats.latency_ms[p.arrival] = None;
        }
        true
    }
}

/// Runs the schedule to completion against `plans.server`. Every
/// scheduled request counts once in `tally`: by its output check, or as
/// an error when it was refused, shed or failed.
pub fn open_loop(
    plans: Served<'_>,
    schedule: &[Arrival],
    pool: &[Vec<Vec<f32>>],
    expect: &Expect<'_>,
    epoch: Instant,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> LoopStats {
    let server = plans.server;
    let mut d = Client {
        schedule,
        expect,
        epoch,
        stats: LoopStats {
            latency_ms: vec![None; schedule.len()],
            ..LoopStats::default()
        },
        by_id: HashMap::new(),
        checks: VecDeque::new(),
    };
    let mut next = 0usize;
    loop {
        // Flush every group whose coalescing delay has passed.
        let (lo, t0) = (d.versions(false), Instant::now());
        let done = tracer.span("serve.advance_to", NO_TAG, 0, |_| {
            server.advance_to(d.now_us())
        });
        let call_ms = t0.elapsed().as_secs_f64() * 1e3;
        d.stats.busy_ms += call_ms;
        d.file(done, lo, call_ms, tally);

        // Send everything that is due.
        while next < schedule.len() && schedule[next].due_us <= d.now_us() {
            let a = schedule[next];
            d.stats
                .late_ms
                .push(d.now_us().saturating_sub(a.due_us) as f64 / 1e3);
            loop {
                let key = plans.key(a.matrix);
                let x = pool[a.matrix][a.vector].clone();
                let (lo, t0) = (d.versions(false), Instant::now());
                let sent = tracer.span("serve.submit", a.matrix as u32, next as u64 + 1, |_| {
                    server.submit(key, x, IntegrityPolicy::off())
                });
                let call_ms = t0.elapsed().as_secs_f64() * 1e3;
                d.stats.submit_us.push(call_ms * 1e3);
                d.stats.busy_ms += call_ms;
                match sent {
                    Ok((id, done)) => {
                        d.by_id.insert(id, next);
                        d.file(done, lo, call_ms, tally);
                    }
                    // A delta re-keyed the matrix after its key was read:
                    // follow the new key once the delta stream publishes it.
                    Err(ServeError::UnknownMatrix(_)) if wait_for_rekey(&plans, a.matrix, key) => {
                        continue
                    }
                    Err(ServeError::Rejected(_)) => {
                        d.stats.rejected += 1;
                        tally.error();
                    }
                    Err(_) => tally.error(),
                }
                break;
            }
            next += 1;
        }

        if next == schedule.len() && server.pending() == 0 {
            break;
        }

        // Wait for the next send or flush, checking outputs meanwhile.
        let wake = [schedule.get(next).map(|a| a.due_us), server.next_deadline()]
            .into_iter()
            .flatten()
            .min()
            .unwrap_or(0);
        loop {
            let now = d.now_us();
            if now >= wake {
                break;
            }
            if d.check_one(tally) {
                continue;
            }
            if wake - now > 200 {
                std::thread::sleep(Duration::from_micros(wake - now - 100));
            } else {
                std::thread::yield_now();
            }
        }
    }
    let first_due = schedule.first().map_or(0, |a| a.due_us);
    d.stats.wall_s = d.now_us().saturating_sub(first_due) as f64 / 1e6;
    while d.check_one(tally) {}
    d.stats
}

/// Waits (at most a second) for the delta stream to publish a new key
/// for matrix `k`; `false` if none appears, so the send fails instead.
fn wait_for_rekey(plans: &Served<'_>, k: usize, stale: spasm_format::MatrixFingerprint) -> bool {
    let until = Instant::now() + Duration::from_secs(1);
    while Instant::now() < until {
        if plans.key(k) != stale {
            return true;
        }
        std::thread::yield_now();
    }
    false
}

/// One delta of the update stream, due at `due_us` on matrix `matrix`.
pub struct ScheduledDelta {
    pub due_us: u64,
    pub matrix: usize,
    pub delta: MatrixDelta,
}

/// Applies the stream on its own schedule, beside the open loop.
pub fn delta_stream(
    mut plans: Served<'_>,
    stream: &[ScheduledDelta],
    unit: &SpmvUnit<'_>,
    versions: &Versions,
    epoch: Instant,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> (Vec<DeltaRecord>, Vec<f64>) {
    let mut records = Vec::with_capacity(stream.len());
    let mut late_ms = Vec::with_capacity(stream.len());
    for d in stream {
        loop {
            let now = epoch.elapsed().as_micros() as u64;
            if now >= d.due_us {
                late_ms.push((now - d.due_us) as f64 / 1e3);
                break;
            }
            std::thread::sleep(Duration::from_micros((d.due_us - now).min(1000)));
        }
        versions.started[d.matrix].fetch_add(1, Ordering::SeqCst);
        match timed_delta(&mut plans, d.matrix, &d.delta, Some(unit), tracer, epoch) {
            Ok(record) => {
                tally.attempted += 1;
                records.push(record);
            }
            Err(e) => {
                eprintln!("update: delta on matrix {} failed: {e}", d.matrix);
                tally.error();
            }
        }
        versions.done[d.matrix].fetch_add(1, Ordering::SeqCst);
    }
    (records, late_ms)
}
