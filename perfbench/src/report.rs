//! Metric names, units and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics with a regression bound (the `end_to_end` list of
/// `BENCHMARK.json`), reported by every workload's untraced run.
///
/// Kernel and delta times are gated as ratios to serial `Csr::spmv`
/// measured in the same run: on a shared host the machine's speed moves
/// every absolute time by up to 1.8×. The kernel ratios use the CPU time
/// the calls cost, because when the host slows one of two vCPUs the wall
/// time of a two-thread call doubles while serial CSR barely moves; the
/// wall-time ratios and the delta tail, which move with that, are printed
/// in [`UNGATED`].
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("spmv_cpu_vs_csr", "ratio"),
    ("batch8_cpu_vs_csr", "ratio"),
    ("delta_p50_spmvs", "csr_spmv"),
    ("peak_rss_mb", "MiB"),
];

/// End-to-end figures every run prints without a bound: the wall-time
/// kernel ratios and the delta tail (see [`END_TO_END`]), the absolute
/// wall and CPU times, simulated throughput (model output, which repeats
/// exactly for a seed), and the failure fraction (the result line's
/// `failed / attempted`). The traced run reports the main ones again as
/// per-layer metrics.
pub const UNGATED: [(&str, &str); 17] = [
    ("spmv_wall_vs_csr", "ratio"),
    ("batch8_wall_vs_csr", "ratio"),
    ("delta_p99_spmvs", "csr_spmv"),
    ("spmv_ns_per_nnz_p50", "ns/nnz"),
    ("spmv_ns_per_nnz_p99", "ns/nnz"),
    ("batch8_ns_per_nnz", "ns/nnz"),
    ("spmv_vs_csr", "ratio"),
    ("spmv_cpu_ns_per_nnz", "ns/nnz"),
    ("batch8_cpu_ns_per_nnz", "ns/nnz"),
    ("req_p50_ms", "ms"),
    ("req_p99_ms", "ms"),
    ("goodput_rps", "1/s"),
    ("delta_p50_ms", "ms"),
    ("delta_p99_ms", "ms"),
    ("sim_gflops", "GFLOP/s"),
    ("fail_frac", "fraction"),
    ("csr_ns_per_nnz", "ns/nnz"),
];

/// Per-layer metrics of the traced run (the `per_layer` list of
/// `BENCHMARK.json`). A layer a workload does not call reports 0.
pub const PER_LAYER: [(&str, &str); 67] = [
    ("format.analyze_ms", "ms"),
    ("patterns.select_ms", "ms"),
    ("patterns.decompose_ms", "ms"),
    ("core.schedule_ms", "ms"),
    ("format.encode_ms", "ms"),
    ("hw.plan_build_ms", "ms"),
    ("hw.run_ns_per_nnz_p50", "ns/nnz"),
    ("hw.run_ns_per_nnz_p99", "ns/nnz"),
    ("hw.batch8_ns_per_nnz", "ns/nnz"),
    ("hw.run_vs_csr", "ratio"),
    ("hw.run_cpu_ns_per_nnz.raefsky3", "ns/nnz"),
    ("hw.run_cpu_ns_per_nnz.tmt_sym", "ns/nnz"),
    ("hw.run_cpu_ns_per_nnz.mycielskian14", "ns/nnz"),
    ("hw.run_ns_per_nnz.raefsky3", "ns/nnz"),
    ("hw.run_ns_per_nnz.tmt_sym", "ns/nnz"),
    ("hw.run_ns_per_nnz.mycielskian14", "ns/nnz"),
    ("hw.batch8_ns_per_nnz.raefsky3", "ns/nnz"),
    ("hw.batch8_ns_per_nnz.tmt_sym", "ns/nnz"),
    ("hw.batch8_ns_per_nnz.mycielskian14", "ns/nnz"),
    ("sparse.csr_ns_per_nnz.raefsky3", "ns/nnz"),
    ("sparse.csr_ns_per_nnz.tmt_sym", "ns/nnz"),
    ("sparse.csr_ns_per_nnz.mycielskian14", "ns/nnz"),
    ("hw.sim_cycles.raefsky3", "count"),
    ("hw.sim_cycles.tmt_sym", "count"),
    ("hw.sim_cycles.mycielskian14", "count"),
    ("hw.sim_gflops", "GFLOP/s"),
    ("hw.plan_bytes_per_nnz", "B/nnz"),
    ("store.open_ms", "ms"),
    ("store.verify_ms", "ms"),
    ("store.thaw_ms", "ms"),
    ("bench.req_p50_ms", "ms"),
    ("bench.req_p99_ms", "ms"),
    ("bench.goodput_rps", "1/s"),
    ("serve.submit_us_p99", "us"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p99", "ms"),
    ("serve.round_ms_p99", "ms"),
    ("serve.round_us_per_vector", "us"),
    ("serve.batch_size_mean", "count"),
    ("serve.busy_frac", "fraction"),
    ("serve.rejected", "count"),
    ("serve.shed", "count"),
    ("serve.degraded", "count"),
    ("serve.blocked_req_ms_p99", "ms"),
    ("serve.blocked_req_count", "count"),
    ("core.delta_ms.patched.p50", "ms"),
    ("core.delta_ms.patched.p99", "ms"),
    ("core.delta_ms.patched.count", "count"),
    ("core.delta_ms.spliced.p50", "ms"),
    ("core.delta_ms.spliced.p99", "ms"),
    ("core.delta_ms.spliced.count", "count"),
    ("core.delta_ms.reprepared.p50", "ms"),
    ("core.delta_ms.reprepared.p99", "ms"),
    ("core.delta_ms.reprepared.count", "count"),
    ("core.golden_ms.p50", "ms"),
    ("core.golden_ms.p99", "ms"),
    ("sparse.delta_validate_ms.p50", "ms"),
    ("sparse.delta_validate_ms.p99", "ms"),
    ("core.splice_golden_ms", "ms"),
    ("core.splice_validate_ms", "ms"),
    ("core.splice_rekey_ms", "ms"),
    ("core.splice_rest_ms", "ms"),
    ("bench.gen_late_ms_p99", "ms"),
    ("bench.delta_late_ms_p99", "ms"),
    ("bench.delta_busy_frac", "fraction"),
    ("bench.fail_frac", "fraction"),
    ("bench.spans", "count"),
];

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// A number as JSON: all its digits, and `null` for a non-finite value.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// `{"name": {"value": v, "unit": u}, ...}` over `names`, in list order.
pub fn metrics_json(names: &[(&str, &str)], values: &Metrics) -> String {
    let mut out = String::from("{");
    for (i, (name, unit)) in names.iter().enumerate() {
        let v = values.get(name).copied().unwrap_or(0.0);
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(v)
        );
    }
    out.push('}');
    out
}

/// The result line the benchmark contract asks for.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}"
    )
}

/// A human-readable table of `names`.
pub fn table(names: &[(&str, &str)], values: &Metrics) -> String {
    let mut out = String::new();
    for (name, unit) in names {
        let v = values.get(name).copied().unwrap_or(0.0);
        let _ = writeln!(out, "  {name:<36} {v:>14.4} {unit}");
    }
    out
}

/// Reads `"name": {"value": v` pairs back from a metrics object written
/// by [`metrics_json`].
pub fn parse_metrics(text: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let mut rest = text;
    while let Some(at) = rest.find("{\"value\": ") {
        let head = &rest[..at];
        let name = head
            .rfind("\": ")
            .and_then(|end| head[..end].rfind('"').map(|start| &head[start + 1..end]));
        let tail = &rest[at + 10..];
        let stop = tail.find([',', '}']).unwrap_or(tail.len());
        if let (Some(name), Ok(v)) = (name, tail[..stop].trim().parse::<f64>()) {
            out.insert(name.to_string(), v);
        }
        rest = &tail[stop..];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(&UNGATED).chain(&PER_LAYER) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_ascii_alphanumeric())
            );
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
    }

    #[test]
    fn benchmark_json_lists_these_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let listed = |key: &str| -> Vec<String> {
            let start = text.find(&format!("\"{key}\"")).expect("key present");
            let end = text[start..].find(']').map_or(text.len(), |e| start + e);
            text[start..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("closing quote")].to_string())
                .collect()
        };
        let names = |list: &[(&str, &str)]| -> Vec<String> {
            list.iter().map(|(n, _)| n.to_string()).collect()
        };
        assert_eq!(listed("end_to_end"), names(&END_TO_END));
        assert_eq!(listed("per_layer"), names(&PER_LAYER));
    }

    #[test]
    fn metrics_round_trip() {
        let mut m = Metrics::new();
        m.insert("setup_s", 0.8125);
        m.insert("delta_p50_spmvs", 12.5);
        let json = metrics_json(&END_TO_END, &m);
        let back = parse_metrics(&json);
        assert_eq!(back["setup_s"], 0.8125);
        assert_eq!(back["delta_p50_spmvs"], 12.5);
        assert_eq!(back["spmv_cpu_vs_csr"], 0.0);
        assert_eq!(back.len(), END_TO_END.len());
    }
}
