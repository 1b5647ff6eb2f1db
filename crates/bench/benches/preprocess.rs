//! Benchmarks of the preprocessing stages (the cost side of Table VIII):
//! pattern analysis, template selection, decomposition-table construction,
//! Listing 1 vs the DP, schedule exploration — plus serial-vs-parallel
//! comparisons of the pipeline entry points (`prepare_set` over a batch of
//! Table II matrices, and `explore_schedule` over the default grid).
//!
//! Run with `cargo bench -p spasm-bench --bench preprocess`. Timing uses
//! the harness in `spasm_bench::timing` (no registry access for
//! criterion); speedups are reported, never asserted — on a single
//! hardware thread both sides time alike by design.

use spasm::{Parallelism, Pipeline, PipelineOptions};
use spasm_bench::timing::{bench, report_speedup};
use spasm_format::{SpasmMatrix, SubmatrixMap, TilingSummary};
use spasm_hw::{perf, HwConfig};
use spasm_patterns::selection::TopN;
use spasm_patterns::{
    find_best_decomp, select_template_set, DecompositionTable, GridSize, PatternHistogram,
    TemplateSet,
};
use spasm_workloads::{Scale, Workload};

fn bench_stages() {
    println!("== preprocessing stages (chebyshev4, small) ==");
    let m = Workload::Chebyshev4.generate(Scale::Small);
    let hist = PatternHistogram::analyze(&m, GridSize::S4);
    let candidates = TemplateSet::table_v_candidates();
    let map = SubmatrixMap::from_coo(&m);
    let outcome = select_template_set(&hist, &candidates, TopN::Coverage(0.95));

    bench("stage1_pattern_analysis", || {
        PatternHistogram::analyze(&m, GridSize::S4)
    });
    bench("stage1_submatrix_map", || SubmatrixMap::from_coo(&m));
    bench("stage2_template_selection", || {
        select_template_set(&hist, &candidates, TopN::Coverage(0.95))
    });
    bench("stage3_decomposition_table", || {
        DecompositionTable::build(&candidates[0])
    });
    bench("stage45_schedule_sweep", || {
        let mut best = u64::MAX;
        for tile in [256u32, 1024, 4096, 16384] {
            let s = TilingSummary::analyze(&map, &outcome.table, tile).unwrap();
            for cfg in HwConfig::shipped() {
                best = best.min(perf::estimate_cycles(&s, &cfg));
            }
        }
        best
    });
    bench("encode_stream", || {
        SpasmMatrix::encode(&map, &outcome.table, 1024).unwrap()
    });
}

fn bench_decomposition() {
    println!("\n== decomposition: Listing 1 vs DP ==");
    let set = TemplateSet::table_v_set(0);
    let masks: Vec<u16> = set.masks().collect();
    let table = DecompositionTable::build(&set);
    bench("listing1_exhaustive_one_pattern", || {
        find_best_decomp(0xBEEF, &masks)
    });
    bench("dp_lookup_one_pattern", || table.decompose(0xBEEF));
    bench("dp_all_65535_patterns", || {
        let mut acc = 0u64;
        for m in 1u16..=u16::MAX {
            acc += u64::from(table.instance_count(m).unwrap());
        }
        acc
    });
}

/// Serial vs parallel `prepare_set` over a batch of Table II matrices.
fn bench_prepare_set() {
    let batch: Vec<_> = [
        Workload::Mip1,
        Workload::C73,
        Workload::TmtSym,
        Workload::Chebyshev4,
        Workload::Raefsky3,
        Workload::Rim,
        Workload::Bbmat,
        Workload::Cfd2,
    ]
    .iter()
    .map(|w| w.generate(Scale::Small))
    .collect();
    println!(
        "\n== prepare_set over {} matrices (serial vs {} threads) ==",
        batch.len(),
        Parallelism::Auto.resolved_threads()
    );

    let serial_pipe =
        Pipeline::with_options(PipelineOptions::default().parallelism(Parallelism::Serial));
    let auto_pipe =
        Pipeline::with_options(PipelineOptions::default().parallelism(Parallelism::Auto));
    let serial = bench("prepare_set_serial", || {
        serial_pipe.prepare_set(&batch).unwrap()
    });
    let parallel = bench("prepare_set_parallel", || {
        auto_pipe.prepare_set(&batch).unwrap()
    });
    report_speedup("prepare_set", &serial, &parallel);
}

/// Serial vs parallel schedule exploration over the default grid.
fn bench_explore_schedule() {
    let m = Workload::Chebyshev4.generate(Scale::Small);
    let map = SubmatrixMap::from_coo(&m);
    let table = DecompositionTable::build(&TemplateSet::table_v_set(0));
    let tile_sizes = spasm::default_tile_sizes();
    let configs = HwConfig::shipped();
    println!(
        "\n== explore_schedule: {} tile sizes x {} configs ==",
        tile_sizes.len(),
        configs.len()
    );

    let run = |threads: usize| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("shim pool")
            .install(|| spasm::explore_schedule(&map, &table, &tile_sizes, &configs).unwrap())
    };
    let serial = bench("explore_schedule_serial", || run(1));
    let threads = Parallelism::Auto.resolved_threads().max(4);
    let parallel = bench("explore_schedule_parallel", || run(threads));
    report_speedup("explore_schedule", &serial, &parallel);
}

fn main() {
    spasm_bench::smoke_from_args();
    println!(
        "host threads: {} | thread budget: {}",
        std::thread::available_parallelism().map_or(1, usize::from),
        rayon::current_num_threads()
    );
    bench_stages();
    bench_decomposition();
    bench_prepare_set();
    bench_explore_schedule();
}
