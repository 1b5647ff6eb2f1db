//! SPASM-rs benchmark: three workloads against the public API of the
//! default release build.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <solve|serve|update> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
//! Earlier lines print every metric as a table. Each run also writes its
//! figures (and, when traced, its spans and per-layer self times) under
//! `perfbench/out/`. A traced run whose untraced twin (same workload and
//! seed) has already run reports the tracing overhead against it.
//!
//! Exit codes: 0 on success; 1 when an output was wrong or an operation
//! failed (the result line still prints, with `correct: false`); 2 on a
//! usage error or when the run could not complete; 3 when an open-loop
//! client fell behind its schedule, so its latencies are not valid.

mod corpus;
mod kernel;
mod mem;
mod report;
mod serving;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use report::{
    metrics_json, parse_metrics, result_line, table, Metrics, END_TO_END, PER_LAYER, UNGATED,
};
use trace::Tracer;
use workloads::{Outcome, Run};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {value} is outside (0, 600]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Writes the run's figures (and spans, when traced) under `out/`.
/// Returns the tracing-overhead lines when the untraced twin exists.
fn write_records(args: &Args, out: &Outcome) -> Result<String, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let stem = format!("{}-seed{}", args.workload, args.seed);
    let mut overhead = String::new();
    let mut record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"threads\": {},\n \"end_to_end\": {},\n \"ungated\": {}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        std::thread::available_parallelism().map_or(1, usize::from),
        metrics_json(&END_TO_END, &out.e2e),
        metrics_json(&UNGATED, &out.e2e),
    );
    if args.trace {
        let _ = write!(
            record,
            ",\n \"per_layer\": {}",
            metrics_json(&PER_LAYER, &out.layer)
        );
        let twin = dir.join(format!("{stem}-trace0.json"));
        if let Ok(text) = std::fs::read_to_string(&twin) {
            let start = text.find("\"end_to_end\"").unwrap_or(0);
            let end = text.find("\"ungated\"").unwrap_or(text.len());
            let untraced = parse_metrics(&text[start..end]);
            let mut pairs = Vec::new();
            for (name, _) in END_TO_END {
                if let (Some(&base), Some(&traced)) = (untraced.get(name), out.e2e.get(name)) {
                    if base != 0.0 {
                        let change = traced / base - 1.0;
                        let _ = writeln!(
                            overhead,
                            "  {name:<24} untraced {base:>12.4}  traced {traced:>12.4}  {:+.1}%",
                            100.0 * change
                        );
                        pairs.push(format!("\"{name}\": {change}"));
                    }
                }
            }
            let _ = write!(record, ",\n \"trace_overhead\": {{{}}}", pairs.join(", "));
        }
        let deltas: Vec<String> = out
            .deltas
            .iter()
            .map(|d| {
                format!(
                    "{{\"matrix\": {}, \"path\": \"{}\", \"ops\": {}, \"ms\": {}, \"csr_ms\": {}, \"golden_ms\": {}, \"validate_ms\": {}, \"rekey_ms\": {}}}",
                    d.matrix,
                    d.path.name(),
                    d.ops,
                    d.ms,
                    d.csr_ms,
                    d.golden_ms,
                    d.validate_ms,
                    d.rekey_ms
                )
            })
            .collect();
        let _ = write!(record, ",\n \"deltas\": [\n  {}\n ]", deltas.join(",\n  "));
        std::fs::write(
            dir.join(format!("{stem}.spans.jsonl")),
            out.tracer.to_jsonl(),
        )
        .map_err(|e| e.to_string())?;
        std::fs::write(
            dir.join(format!("{stem}.self_time.txt")),
            out.tracer.self_time_table(),
        )
        .map_err(|e| e.to_string())?;
    }
    record.push_str("\n}\n");
    let path = dir.join(format!("{stem}-trace{}.json", u8::from(args.trace)));
    std::fs::write(&path, record).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(overhead)
}

fn main() -> ExitCode {
    mem::single_arena();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <solve|serve|update> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        tracer: Tracer::new(args.trace, Instant::now(), 1),
    };
    let result = match args.workload.as_str() {
        "solve" => workloads::solve(run),
        "serve" => workloads::serve(run),
        "update" => workloads::update(run),
        other => Err(format!("unknown workload {other}")),
    };
    let mut out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    out.e2e.insert("peak_rss_mb", mem::peak_above_baseline_mb());

    let overhead = match write_records(&args, &out) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: cannot write records: {e}");
            return ExitCode::from(2);
        }
    };
    let tally = out.tally;
    println!(
        "{} seed {} ({} s{}): {} operations, {} errors, {} wrong",
        args.workload,
        args.seed,
        args.seconds,
        if args.trace { ", traced" } else { "" },
        tally.attempted,
        tally.errors,
        tally.wrong
    );
    print!(
        "{}{}",
        table(&END_TO_END, &out.e2e),
        table(&UNGATED, &out.e2e)
    );
    if args.trace {
        print!("per layer:\n{}", table(&PER_LAYER, &out.layer));
        eprint!("self time by span:\n{}", out.tracer.self_time_table());
        if !overhead.is_empty() {
            eprint!("tracing overhead against the untraced run of this seed:\n{overhead}");
        }
    }
    if let Some(why) = &out.invalid {
        eprintln!("perfbench: invalid run: {why}");
        return ExitCode::from(3);
    }
    let metrics: Metrics = if args.trace {
        out.layer.clone()
    } else {
        out.e2e.clone()
    };
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let correct = tally.wrong == 0;
    println!(
        "{}",
        result_line(
            correct,
            tally.attempted.max(1),
            tally.failed(),
            &metrics_json(names, &metrics)
        )
    );
    if tally.failed() > 0 {
        eprintln!(
            "perfbench: {} wrong outputs, {} failed operations",
            tally.wrong, tally.errors
        );
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
