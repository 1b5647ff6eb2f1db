//! Resident-set accounting: `peak_rss_mb` counts what the program holds
//! beyond the benchmark's own inputs.
//!
//! [`single_arena`] runs first. By default glibc gives threads their own
//! malloc arenas, and which arena keeps a freed plan-sized buffer
//! resident depends on how the client, delta and worker threads
//! interleave: the peak of one workload moved between 94 and 132 MiB over
//! four runs. With one arena a freed block is reused by whichever thread
//! allocates next, and the peak stayed within 0.5 MiB.
//!
//! A workload calls [`mark_baseline`] once its inputs and reference
//! outputs exist and before set-up starts. That resets the kernel's
//! high-water mark (`VmHWM`) to the current resident set and records it,
//! so [`peak_above_baseline_mb`] is the peak the program's calls reached
//! above what the benchmark itself holds. [`freeze_peak`] ends the
//! window before the set-ups that follow the measured phases, whose
//! allocations land in a heap the run has fragmented.

use std::sync::atomic::{AtomicU64, Ordering};

/// Resident set at [`mark_baseline`], in KiB.
static BASELINE_KB: AtomicU64 = AtomicU64::new(0);
/// Peak at [`freeze_peak`], in KiB (0 until then).
static FROZEN_PEAK_KB: AtomicU64 = AtomicU64::new(0);

/// Limits glibc to one malloc arena for the whole process.
pub fn single_arena() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        const M_ARENA_MAX: i32 = -8;
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        // SAFETY: `mallopt` takes two integers and only changes the
        // allocator's tuning; it is called before any other thread starts.
        unsafe {
            mallopt(M_ARENA_MAX, 1);
        }
    }
}

/// A `/proc/self/status` field in KiB.
fn status_kb(field: &str) -> Option<u64> {
    std::fs::read_to_string("/proc/self/status")
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Resets the peak to the current resident set (writing `5` to
/// `/proc/self/clear_refs`) and records that set as the baseline.
/// Where the reset is refused, the earlier peak stays in the figure.
pub fn mark_baseline() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    BASELINE_KB.store(status_kb("VmRSS:").unwrap_or(0), Ordering::SeqCst);
}

/// Ends the window [`peak_above_baseline_mb`] reports.
pub fn freeze_peak() {
    FROZEN_PEAK_KB.store(status_kb("VmHWM:").unwrap_or(0), Ordering::SeqCst);
}

/// Peak resident set from [`mark_baseline`] to [`freeze_peak`] (or to
/// now, if the window was not ended), less the baseline, in MiB.
pub fn peak_above_baseline_mb() -> f64 {
    let peak = match FROZEN_PEAK_KB.load(Ordering::SeqCst) {
        0 => status_kb("VmHWM:").unwrap_or(0),
        frozen => frozen,
    };
    peak.saturating_sub(BASELINE_KB.load(Ordering::SeqCst)) as f64 / 1024.0
}
