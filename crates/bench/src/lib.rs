//! Shared plumbing for the figure/table harness binaries.
//!
//! Every binary accepts `--scale {small,medium,paper}` (default `medium`)
//! and regenerates one table or figure of the paper, printing the same
//! rows/series the paper reports. See DESIGN.md §5 for the experiment
//! index.

use spasm_workloads::{Scale, Workload};

/// Parses `--scale {small,medium,paper}` from the process arguments
/// (default: medium).
///
/// # Panics
///
/// Panics with a usage message on an unknown scale value.
pub fn scale_from_args() -> Scale {
    let args: Vec<String> = std::env::args().collect();
    match args.iter().position(|a| a == "--scale") {
        None => Scale::Medium,
        Some(i) => match args.get(i + 1).map(String::as_str) {
            Some("small") => Scale::Small,
            Some("medium") => Scale::Medium,
            Some("paper") => Scale::Paper,
            other => panic!(
                "usage: --scale {{small,medium,paper}} (got {:?})",
                other.unwrap_or("<missing>")
            ),
        },
    }
}

/// Parses `--smoke` from the process arguments and, when present, switches
/// the timing harness to single-iteration mode (see [`timing::set_smoke`]).
/// Returns whether smoke mode is active. CI runs every bench binary with
/// `--smoke` so they cannot bit-rot without paying a full measurement run.
pub fn smoke_from_args() -> bool {
    let smoke = std::env::args().any(|a| a == "--smoke");
    timing::set_smoke(smoke);
    if smoke {
        eprintln!("  [smoke] single-iteration mode: timings are not meaningful");
    }
    smoke
}

/// Whether the opt-in performance floors are armed (`SPASM_BENCH_ASSERT=1`
/// in the environment). Off by default so ordinary bench runs only report.
pub fn assertions_requested() -> bool {
    std::env::var("SPASM_BENCH_ASSERT").is_ok_and(|v| v == "1")
}

/// Opt-in speedup floor: when `SPASM_BENCH_ASSERT=1`, asserts the measured
/// `speedup` clears `floor`. Skipped (with a note on stderr) when the
/// assertions are not requested, when the harness runs in `--smoke` mode
/// (single-iteration timings are noise), or when the host has fewer than 4
/// cores — laptop-class CI runners produce unstable ratios that would make
/// the floor flaky.
///
/// # Panics
///
/// Panics when assertions are armed and the floor is not met.
pub fn maybe_assert_speedup(label: &str, speedup: f64, floor: f64) {
    if !assertions_requested() {
        return;
    }
    if timing::is_smoke() {
        eprintln!("  [assert] {label}: skipped in --smoke mode");
        return;
    }
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    if cores < 4 {
        eprintln!("  [assert] {label}: skipped on {cores}-core host (need >= 4)");
        return;
    }
    assert!(
        speedup >= floor,
        "{label}: measured speedup {speedup:.3}x below the {floor:.2}x floor"
    );
    eprintln!("  [assert] {label}: {speedup:.3}x >= {floor:.2}x floor — ok");
}

/// The host's core count as the benches see it.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The class kernel the target compiles: explicit SSE2 on x86_64 (where
/// it is baseline), scalar everywhere else.
pub fn kernel_name() -> &'static str {
    if cfg!(target_arch = "x86_64") {
        "sse2"
    } else {
        "scalar"
    }
}

/// JSON fragment recording the class kernel and the host core count —
/// spliced into every bench artifact so JSONs produced on different
/// targets and hosts (x86_64 vs other, laptop vs runner) are
/// distinguishable after the fact. The fragment is two complete
/// `"key": value,` lines, indented for a top-level object.
pub fn metadata_json() -> String {
    format!(
        "  \"kernel\": \"{}\",\n  \"cores\": {},\n",
        kernel_name(),
        host_cores()
    )
}

/// Human label for a scale.
pub fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Small => "small (~1/32 edge)",
        Scale::Medium => "medium (~1/8 edge)",
        Scale::Paper => "paper (Table II sizes)",
    }
}

/// Geometric mean (re-exported for harness summaries).
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    spasm_sparse::storage::geometric_mean(values)
}

/// Iterates the full Table II suite with a progress note on stderr.
pub fn for_each_workload(scale: Scale, mut f: impl FnMut(Workload, spasm_sparse::Coo)) {
    for w in Workload::ALL {
        eprintln!("  [gen] {w} ...");
        let m = w.generate(scale);
        f(w, m);
    }
}

/// Prints a horizontal rule sized to a table width.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// A tiny self-contained timing harness for the `harness = false` benches.
///
/// The environment cannot fetch `criterion`, so the benches measure with
/// `std::time::Instant` directly: one warm-up call calibrates an iteration
/// count that fills a ~200 ms window, then mean and minimum wall-clock are
/// reported. Minimums are the robust statistic to compare across runs.
pub mod timing {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};

    static SMOKE: AtomicBool = AtomicBool::new(false);

    /// Switches the harness to smoke mode: every [`bench`] runs exactly one
    /// measured iteration (after the warm-up call) instead of calibrating a
    /// ~200 ms window. For CI liveness checks, not for measurement.
    pub fn set_smoke(smoke: bool) {
        SMOKE.store(smoke, Ordering::SeqCst);
    }

    /// Whether smoke mode is active.
    pub fn is_smoke() -> bool {
        SMOKE.load(Ordering::SeqCst)
    }

    /// One benchmark result.
    #[derive(Debug, Clone)]
    pub struct Measurement {
        /// Benchmark label.
        pub label: String,
        /// Iterations measured (after one warm-up call).
        pub iters: u32,
        /// Mean wall-clock per iteration.
        pub mean: Duration,
        /// Minimum wall-clock over all iterations.
        pub min: Duration,
    }

    impl Measurement {
        /// `other`'s minimum divided by this one's — how many times faster
        /// `self` is.
        pub fn speedup_over(&self, other: &Measurement) -> f64 {
            other.min.as_secs_f64() / self.min.as_secs_f64().max(1e-12)
        }
    }

    /// Times `f`, prints one table row, and returns the measurement.
    pub fn bench<T>(label: &str, mut f: impl FnMut() -> T) -> Measurement {
        let t0 = Instant::now();
        std::hint::black_box(f());
        let once = t0.elapsed();
        let target = Duration::from_millis(200);
        let iters = if is_smoke() {
            1
        } else {
            (target.as_secs_f64() / once.as_secs_f64().max(1e-9)).clamp(1.0, 1000.0) as u32
        };

        let mut min = Duration::MAX;
        let mut total = Duration::ZERO;
        for _ in 0..iters {
            let t = Instant::now();
            std::hint::black_box(f());
            let d = t.elapsed();
            total += d;
            if d < min {
                min = d;
            }
        }
        let m = Measurement {
            label: label.to_string(),
            iters,
            mean: total / iters,
            min,
        };
        println!(
            "{:<44} {:>12.3?} mean {:>12.3?} min  ({:>4} iters)",
            m.label, m.mean, m.min, m.iters
        );
        m
    }

    /// Prints a `serial vs parallel` comparison line. On single-core
    /// machines the ratio hovers around 1.0 — the benches report, they do
    /// not assert.
    pub fn report_speedup(what: &str, serial: &Measurement, parallel: &Measurement) {
        println!(
            "  -> {what}: parallel is {:.2}x vs serial (min {:?} vs {:?})",
            parallel.speedup_over(serial),
            parallel.min,
            serial.min
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_passthrough() {
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn scale_names() {
        assert!(scale_name(Scale::Paper).contains("paper"));
    }

    #[test]
    fn metadata_fragment_reflects_build() {
        let md = metadata_json();
        let kernel = if cfg!(target_arch = "x86_64") {
            "sse2"
        } else {
            "scalar"
        };
        assert!(md.contains(&format!("\"kernel\": \"{kernel}\"")));
        assert!(md.contains(&format!("\"cores\": {}", host_cores())));
    }
}
