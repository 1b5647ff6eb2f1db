//! Prepared execution plans: amortise per-run setup for repeated SpMV.
//!
//! [`crate::Accelerator::run`] rebuilds everything that depends only on
//! `(matrix, config)` on every call: the opcode LUT, the tile-row layout,
//! the LPT assignment, cycle pricing and fresh scratch vectors. Iterative
//! solvers and serving workloads run thousands of SpMVs against one
//! prepared matrix, so [`crate::Accelerator::prepare`] hoists all of that
//! into an [`ExecutionPlan`] built once:
//!
//! * the instance stream is pre-decoded into flat structure-of-arrays
//!   form — per instance, the padded-x segment base, the y offset within
//!   the owning tile row's window, a 1-byte opcode-class index into the
//!   compiled portfolio LUT, and the four value slots — so the hot loop
//!   never re-parses 32-bit position encodings or re-derives tile bases;
//! * each tile row's instance span is cut into fixed-size blocks whose
//!   indices are stably sorted by opcode class at prepare time, feeding
//!   the branch-free class kernels (see the `kernel` module) —
//!   bit-identical on every non-NaN output to the per-instance walk of
//!   the [`reference`] module (NaN payloads are unspecified, see
//!   `outputs_agree`), which stays as the verification oracle and as
//!   [`ExecutionPlan::run_batch_reference`] for differential tests and
//!   baselines;
//! * the tile-row layout (instance spans, disjoint y windows), per-tile
//!   lane statistics, [`TileJob`]s, the LPT assignment, per-group cycles,
//!   traffic and the full [`ExecReport`] are computed once — the report is
//!   a pure function of `(matrix, config)` (plus the health of the most
//!   recent execution), so [`ExecutionPlan::run`] returns a reference to
//!   the cached value;
//! * padded `x`/`y` scratch buffers are owned by the plan and reused, so
//!   a steady-state [`ExecutionPlan::run`] performs no heap allocation
//!   (asserted by the workspace's counting-allocator test).
//!
//! A plan is assembled in one place from a tile directory plus the frozen
//! stream sections ([`PlanParts`]): [`crate::Accelerator::prepare`]
//! decodes them from a matrix, [`ExecutionPlan::respliced`] splices them
//! from a predecessor plan, and [`ExecutionPlan::from_parts`] validates
//! them out of a (possibly hostile) wire-v3 buffer.
//!
//! # One executor
//!
//! Every entry point — [`ExecutionPlan::run`], [`ExecutionPlan::run_batch`],
//! [`ExecutionPlan::run_deferred`] and its quarantine retry — walks the
//! same (tile-row × vector) pairs, in pair order `p = r·batch + j`; a
//! single-vector run is the batch-1 case. Consecutive pairs of one tile
//! row are lane-blocked through the class kernels, so one instance walk
//! feeds up to [`ExecutionPlan::LANE_BLOCK`] vectors. The pairs are
//! chunked contiguously, balanced by instance count: one chunk runs
//! inline, several run on scoped threads when the ambient worker budget
//! (`rayon::current_num_threads` from the vendored shim — the same budget
//! `Parallelism` installs) allows. Every (tile row, vector) pair owns a
//! disjoint packed y window that is accumulated in stream order, so the
//! result is bit-identical for every batch size and thread count.
//!
//! # Batched serving
//!
//! [`ExecutionPlan::run_batch`] executes one prepared matrix against many
//! x-vectors in a single call — the serving shape of iterative solvers
//! with multiple right-hand sides and of SpMM-as-batched-SpMV inference.
//! All vectors are padded once into a strided scratch, and each tile row's
//! span of the SoA stream is applied to a block of vectors while its
//! instances are hot in cache. The per-vector output is bit-identical to
//! looped [`ExecutionPlan::run`] calls, and the cached report gains an
//! amortised [`BatchReport`] (initialisation and the matrix stream are
//! paid once per batch). The value stream itself is an `Arc<[f32]>` shared
//! with the owning [`SpasmMatrix`], so preparing several plans — or
//! cloning one per batch worker — does not duplicate the multi-GB buffer.
//!
//! # Integrity and fault tolerance
//!
//! Building a plan re-validates the stream beyond what the wire decoder
//! checks: the tile directory must tile the instance stream exactly
//! ([`IntegrityCheck::InstanceCount`]) and every position encoding must
//! address inside its tile, inside the padded operand buffers, and name a
//! template in the portfolio ([`IntegrityCheck::EncodingRange`]) — hostile
//! streams fail `prepare` with [`SimError::Integrity`] instead of
//! mis-executing.
//!
//! At run time, [`ExecutionPlan::run_deferred`] executes without touching
//! `y`, re-verifies selected tile rows against the pristine reference
//! walk, quarantines and re-executes rows that disagree, and returns a
//! [`HealthReport`]; [`ExecutionPlan::commit`] then folds the (healed)
//! result into `y`. Under the `fault-injection` cargo feature a seeded
//! [`crate::fault::FaultPlan`] can be armed on the plan to strike the
//! decode path deterministically: an armed plan runs its walk as one
//! chunk of 1-lane blocks, and each pair whose vector the plan strikes
//! re-decodes its instances from the raw (struck) encoding words.
//! Production builds carry none of that state.

use std::sync::Arc;

use spasm_format::SpasmMatrix;

use crate::config::HwConfig;
use crate::integrity::{HealthReport, IntegrityCheck, VerifyScope};
use crate::kernel::{self, BucketRef, ClassKernel, ClassRun, SoaRef};
use crate::pe::Pe;
use crate::sim::{BatchReport, ExecReport, SimError, Traffic};
use crate::stream::Stream;
use crate::timing::{self, TileJob};
use crate::valu::ValuOpcode;

#[cfg(feature = "fault-injection")]
use crate::fault::{Fault, FaultPlan};
#[cfg(feature = "fault-injection")]
use spasm_format::PositionEncoding;

mod reference;

/// Everything derivable from `(matrix, config)` alone, plus reusable
/// scratch — see the [module docs](self) for the full inventory.
///
/// Build one with [`crate::Accelerator::prepare`], then call
/// [`ExecutionPlan::run`] per SpMV. The output is bit-identical to
/// [`crate::Accelerator::run`] on the same matrix.
///
/// # Examples
///
/// ```
/// use spasm_format::{SpasmMatrix, SubmatrixMap};
/// use spasm_hw::{Accelerator, HwConfig};
/// use spasm_patterns::{DecompositionTable, TemplateSet};
/// use spasm_sparse::Coo;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let coo = Coo::from_triplets(4, 4, vec![(0, 0, 2.0), (3, 1, -1.0)])?;
/// let table = DecompositionTable::build(&TemplateSet::table_v_set(0));
/// let m = SpasmMatrix::encode(&SubmatrixMap::from_coo(&coo), &table, 4)?;
///
/// let acc = Accelerator::new(HwConfig::spasm_4_1());
/// let mut plan = acc.prepare(&m)?;
/// for _ in 0..3 {
///     let mut y = vec![0.0f32; 4];
///     let report = plan.run(&[1.0, 2.0, 3.0, 4.0], &mut y)?;
///     assert_eq!(y, vec![2.0, 0.0, 0.0, -2.0]);
///     assert!(report.cycles > 0);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ExecutionPlan {
    config: HwConfig,
    rows: u32,
    cols: u32,
    tile_size: u32,
    // Pre-decoded SoA instance stream, in stream (tile) order. `x_base[i]`
    // indexes a padded x vector; `y_base[i]` is relative to the owning
    // tile row's y window; `op_idx[i]` is the instance's template (opcode
    // class) — an index into the `lut`/`kernels` portfolio tables, 1 byte
    // per instance instead of a full decoded `ValuOpcode`; `values` holds
    // four slots per instance. All of these are immutable `Stream`s:
    // either owned (`prepare`) or zero-copy views into a mapped wire-v3
    // buffer (`ExecutionPlan::from_parts` via `spasm-store`).
    x_base: Stream<u32>,
    y_base: Stream<u32>,
    op_idx: Stream<u8>,
    // The compiled portfolio: one `ValuOpcode` per template (the PE's
    // opcode LUT) and the same opcodes predigested for the class kernels.
    lut: Vec<ValuOpcode>,
    kernels: Vec<ClassKernel>,
    // When owned, shared with the owning `SpasmMatrix` (and any sibling
    // plans): the stream is immutable after encoding, so plans clone the
    // `Arc`, not the buffer. Mapped plans read it straight from the
    // wire-v3 buffer.
    values: Stream<f32>,
    // Prepare-time pattern-class bucketing (see `crate::kernel`): per
    // `kernel::EXEC_BLOCK`-sized block of each tile row's instance span,
    // the instance indices stably sorted by class, plus the
    // run/block/row directory over them.
    bucket_idx: Stream<u32>,
    class_runs: Stream<ClassRun>,
    block_runs: Stream<u32>,
    row_blocks: Stream<u32>,
    // Per worked tile row: instance span in the stream, y window in the
    // padded output, the tile-row id, a prefix sum of instance counts for
    // balanced chunking, and a prefix sum of window lengths addressing the
    // packed output scratch `yb`.
    inst_ranges: Vec<(usize, usize)>,
    window_spans: Vec<(usize, usize)>,
    tile_row_ids: Vec<u32>,
    cum_instances: Vec<usize>,
    window_prefix: Vec<usize>,
    // Scheduling state, for introspection and the cached report.
    assignment: Vec<Vec<TileJob>>,
    report: ExecReport,
    // Reusable scratch, sized at build for one vector so a first `run`
    // does not allocate, and grown (then reused) by larger batches: `xb`
    // holds every padded x vector at stride `xstride()`; `yb` packs each
    // (tile-row, vector) window contiguously in pair order
    // (`window_prefix[r] * batch + j * window_len(r)`), so chunks of pairs
    // own contiguous ascending spans. `chunks` holds the fan-out's pair
    // boundaries, `vp` (sized to the largest window) the verification
    // oracle, and `stage` one `kernel::STAGE_STRIDE` stripe per chunk
    // worker for the class kernels.
    xb: Vec<f32>,
    yb: Vec<f32>,
    chunks: Vec<usize>,
    vp: Vec<f32>,
    stage: Vec<f32>,
    // Fault-injection state: the raw encoding words and per-instance tile
    // column bases let the executor re-decode struck pairs (against the
    // shared `lut`) as the hardware would after a bit flip.
    #[cfg(feature = "fault-injection")]
    enc_bits: Vec<u32>,
    #[cfg(feature = "fault-injection")]
    col_base: Vec<u32>,
    #[cfg(feature = "fault-injection")]
    armed: Option<ArmedFaults>,
    // Which batch lane single-vector executions act on behalf of, so a
    // fault plan armed for one vector of a batch strikes only that vector.
    #[cfg(feature = "fault-injection")]
    active_lane: usize,
}

/// Borrowed views of an [`ExecutionPlan`]'s immutable stream sections —
/// exactly the content wire v3 freezes (see [`ExecutionPlan::streams`]).
#[derive(Debug, Clone, Copy)]
pub struct PlanStreams<'a> {
    /// Per instance: base of its 4-wide x segment in the padded operand.
    pub x_base: &'a [u32],
    /// Per instance: y offset within the owning tile row's window.
    pub y_base: &'a [u32],
    /// Per instance: opcode class (template LUT index).
    pub op_idx: &'a [u8],
    /// Four value slots per instance.
    pub values: &'a [f32],
    /// Classed execution order (see [`ExecutionPlan::bucket_order`]).
    pub bucket_idx: &'a [u32],
    /// Class runs into `bucket_idx`, in block order.
    pub class_runs: &'a [ClassRun],
    /// Per block: prefix of run counts into `class_runs` (len blocks+1).
    pub block_runs: &'a [u32],
    /// Per tile row: prefix of block counts (len rows+1).
    pub row_blocks: &'a [u32],
}

/// One tile of a frozen plan's directory: the stream span it owns plus
/// its grid position. The wire-v3 TILES section stores exactly these
/// fields; everything else about the layout is derived from them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrozenTile {
    /// Tile-row index in the tiling grid.
    pub row: u32,
    /// Tile-column index in the tiling grid.
    pub col: u32,
    /// First instance of this tile in the stream.
    pub first_instance: usize,
    /// Instances this tile owns.
    pub n_instances: usize,
}

/// Everything a plan is assembled from: the shape and schedule inputs,
/// the tile directory, and the eight immutable stream sections (owned or
/// mapped — the plan executes identically either way).
/// [`ExecutionPlan::from_parts`] accepts them from untrusted sources.
#[derive(Debug)]
pub struct PlanParts {
    /// The hardware configuration the plan prices against.
    pub config: HwConfig,
    /// Matrix rows.
    pub rows: u32,
    /// Matrix columns.
    pub cols: u32,
    /// Tile edge length of the encoding.
    pub tile_size: u32,
    /// Structural nonzeros of the original matrix (for FLOP pricing).
    pub nnz: u64,
    /// The portfolio's template masks, in LUT order.
    pub template_masks: Vec<u16>,
    /// The tile directory, in stream order.
    pub tiles: Vec<FrozenTile>,
    /// Per instance: base of its 4-wide x segment in the padded operand.
    pub x_base: Stream<u32>,
    /// Per instance: y offset within the owning tile row's window.
    pub y_base: Stream<u32>,
    /// Per instance: opcode class (template LUT index).
    pub op_idx: Stream<u8>,
    /// Four value slots per instance.
    pub values: Stream<f32>,
    /// Classed execution order.
    pub bucket_idx: Stream<u32>,
    /// Class runs into `bucket_idx`, in block order.
    pub class_runs: Stream<ClassRun>,
    /// Per block: prefix of run counts into `class_runs`.
    pub block_runs: Stream<u32>,
    /// Per tile row: prefix of block counts.
    pub row_blocks: Stream<u32>,
    /// Raw 32-bit position-encoding words, one per instance. Required
    /// (`Some` with matching length) by builds with the `fault-injection`
    /// feature, whose executor re-decodes the raw stream; ignored
    /// otherwise.
    pub encodings: Option<Vec<u32>>,
}

impl ExecutionPlan {
    /// Builds the plan: validates the stream's structural invariants,
    /// pre-decodes it, lays out tile rows, runs the LPT assignment and
    /// prices the execution once.
    pub(crate) fn build(config: HwConfig, matrix: &SpasmMatrix) -> Result<Self, SimError> {
        let pe = Pe::new(matrix.template_masks())?;
        let xp_len = (matrix.cols() as usize).div_ceil(4) * 4;
        let yp_len = (matrix.rows() as usize).div_ceil(4) * 4;

        validate_stream(matrix, &pe, xp_len as u64, yp_len as u64)?;

        // Pre-decode every instance into SoA form.
        let tile_size = matrix.tile_size();
        let n = matrix.n_instances();
        let mut x_base = Vec::with_capacity(n);
        let mut y_base = Vec::with_capacity(n);
        let mut op_idx = Vec::with_capacity(n);
        let encodings = matrix.encodings();
        for tile in matrix.tiles() {
            let col_base = tile.tile_col * tile_size;
            for e in &encodings[tile.first_instance..tile.first_instance + tile.n_instances] {
                x_base.push(col_base + e.c_idx() * 4);
                y_base.push(e.r_idx() * 4);
                op_idx.push(e.t_idx());
            }
        }

        let values = Stream::owned(matrix.shared_values().clone());
        Self::from_matrix(config, matrix, x_base, y_base, op_idx, values)
    }

    /// Freezes a validated matrix's directory around an already-decoded
    /// SoA instance stream — bucketing it by class — and assembles the
    /// plan. Shared by [`ExecutionPlan::build`] and
    /// [`ExecutionPlan::respliced`], so both produce identical plans.
    ///
    /// `x_base`/`y_base`/`op_idx` must agree with `matrix`'s stream (the
    /// callers either decode them from it or splice spans that decode
    /// equal).
    fn from_matrix(
        config: HwConfig,
        matrix: &SpasmMatrix,
        x_base: Vec<u32>,
        y_base: Vec<u32>,
        op_idx: Vec<u8>,
        values: Stream<f32>,
    ) -> Result<Self, SimError> {
        let tiles: Vec<FrozenTile> = matrix
            .tiles()
            .iter()
            .map(|t| FrozenTile {
                row: t.tile_row,
                col: t.tile_col,
                first_instance: t.first_instance,
                n_instances: t.n_instances,
            })
            .collect();
        let ranges: Vec<(usize, usize)> = worked_rows(&tiles)
            .into_iter()
            .map(|(_, i0, i1)| (i0, i1))
            .collect();
        let (bucket_idx, class_runs, block_runs, row_blocks) =
            kernel::build_buckets(&ranges, &op_idx);
        // Fault-injection builds carry the raw encoding words so the
        // executor can re-decode struck pairs. These always come from the
        // (current) matrix — after a splice, CE/RE flags of untouched
        // tiles may have changed, so spans cannot be reused.
        let encodings = cfg!(feature = "fault-injection")
            .then(|| matrix.encodings().iter().map(|e| e.bits()).collect());
        Self::assemble(PlanParts {
            config,
            rows: matrix.rows(),
            cols: matrix.cols(),
            tile_size: matrix.tile_size(),
            nnz: matrix.nnz() as u64,
            template_masks: matrix.template_masks().to_vec(),
            tiles,
            x_base: Stream::from_vec(x_base),
            y_base: Stream::from_vec(y_base),
            op_idx: Stream::from_vec(op_idx),
            values,
            bucket_idx: Stream::from_vec(bucket_idx),
            class_runs: Stream::from_vec(class_runs),
            block_runs: Stream::from_vec(block_runs),
            row_blocks: Stream::from_vec(row_blocks),
            encodings,
        })
    }

    /// Assembles a plan around consistent parts: tile-row layout,
    /// compiled portfolio, LPT schedule, cycle pricing and scratch —
    /// everything derived from the directory and the streams. The one
    /// constructor core behind `build`, `respliced` and `from_parts`.
    ///
    /// The parts must satisfy every invariant [`ExecutionPlan::from_parts`]
    /// checks (its callers either establish them by construction or have
    /// just validated them).
    fn assemble(parts: PlanParts) -> Result<Self, SimError> {
        let PlanParts {
            config,
            rows,
            cols,
            tile_size,
            nnz,
            template_masks,
            tiles,
            x_base,
            y_base,
            op_idx,
            values,
            bucket_idx,
            class_runs,
            block_runs,
            row_blocks,
            encodings: _encodings,
        } = parts;
        let xp_len = (cols as usize).div_ceil(4) * 4;
        let yp_len = (rows as usize).div_ceil(4) * 4;
        let n = op_idx.len();

        // Tile-row layout: instance spans (tiles of a row are contiguous
        // in the stream) and disjoint y windows over the padded output.
        let row_spans = worked_rows(&tiles);
        let mut inst_ranges = Vec::with_capacity(row_spans.len());
        let mut window_spans = Vec::with_capacity(row_spans.len());
        let mut tile_row_ids = Vec::with_capacity(row_spans.len());
        let mut cum_instances = Vec::with_capacity(row_spans.len() + 1);
        let mut window_prefix = Vec::with_capacity(row_spans.len() + 1);
        cum_instances.push(0usize);
        window_prefix.push(0usize);
        for &(row, i0, i1) in &row_spans {
            inst_ranges.push((i0, i1));
            cum_instances.push(cum_instances[cum_instances.len() - 1] + (i1 - i0));
            let start = (row as usize) * tile_size as usize;
            let end = ((row as usize + 1) * tile_size as usize).min(yp_len);
            window_spans.push((start, end));
            window_prefix.push(window_prefix[window_prefix.len() - 1] + (end - start));
            tile_row_ids.push(row);
        }
        let max_window = window_spans
            .iter()
            .map(|&(start, end)| end - start)
            .max()
            .unwrap_or(0);

        // Compiled portfolio tables: the PE's opcode LUT (shared by the
        // reference walk and the faulted decoder) plus the class kernels.
        let lut = template_masks
            .iter()
            .map(|&m| ValuOpcode::compile(m))
            .collect::<Result<Vec<_>, _>>()?;
        let kernels: Vec<ClassKernel> =
            lut.iter().map(|&op| ClassKernel::from_opcode(op)).collect();

        // Timing: per-tile lane statistics for the LPT schedule, read back
        // from the SoA form (`y_base[i] / 4` is the instance's `r_idx`),
        // then the same assignment and cycle pricing the per-run simulator
        // used, computed once.
        let mut jobs = Vec::with_capacity(tiles.len());
        for t in &tiles {
            let mut lanes = [0usize; 16];
            for i in t.first_instance..t.first_instance + t.n_instances {
                lanes[(y_base[i] as usize / 4) % 16] += 1;
            }
            jobs.push(TileJob {
                tile_row: t.row,
                tile_col: t.col,
                n_instances: t.n_instances,
                max_lane_instances: timing::max_lane(&lanes),
            });
        }
        let worked_row_heights = row_spans
            .iter()
            .map(|&(row, _, _)| (rows - (row * tile_size).min(rows)).min(tile_size));
        let y_traffic = timing::y_bytes(worked_row_heights);
        let x_traffic = tiles.len() as u64 * u64::from(tile_size) * 4;
        let assignment = timing::lpt_assign(jobs, config.num_pe_groups, tile_size, &config);
        let per_group_cycles: Vec<u64> = assignment
            .iter()
            .map(|a| timing::group_cycles(a, tile_size, &config))
            .collect();
        let traffic = Traffic {
            matrix: 20 * n as u64,
            x: x_traffic,
            y: y_traffic,
        };
        let cycles = timing::total_cycles(&per_group_cycles, y_traffic, &config);
        let seconds = config.cycles_to_seconds(cycles);
        let flops = 2.0 * nnz as f64 + rows as f64;
        let gflops = flops / seconds / 1e9;
        let achieved_bandwidth_gbs = traffic.total() as f64 / seconds / 1e9;
        let compute_utilization = gflops / config.peak_gflops();
        let estimated_power_w = config.power_estimate_w(compute_utilization);
        let report = ExecReport {
            cycles,
            seconds,
            gflops,
            achieved_bandwidth_gbs,
            compute_utilization,
            bandwidth_utilization: achieved_bandwidth_gbs / config.bandwidth_gbs(),
            per_group_cycles,
            traffic,
            estimated_power_w,
            energy_j: estimated_power_w * seconds,
            health: HealthReport::default(),
            batch: None,
        };

        #[cfg(feature = "fault-injection")]
        let col_base = tiles
            .iter()
            .flat_map(|t| std::iter::repeat_n(t.col * tile_size, t.n_instances))
            .collect();
        let window_total = window_prefix[window_prefix.len() - 1];
        Ok(ExecutionPlan {
            rows,
            cols,
            tile_size,
            x_base,
            y_base,
            op_idx,
            lut,
            kernels,
            values,
            bucket_idx,
            class_runs,
            block_runs,
            row_blocks,
            inst_ranges,
            window_spans,
            tile_row_ids,
            cum_instances,
            window_prefix,
            assignment,
            report,
            xb: vec![0.0; xp_len],
            yb: vec![0.0; window_total],
            chunks: Vec::with_capacity(rayon::current_num_threads().max(1) + 1),
            vp: vec![0.0; max_window],
            stage: vec![0.0; kernel::STAGE_STRIDE],
            #[cfg(feature = "fault-injection")]
            enc_bits: _encodings.unwrap_or_default(),
            #[cfg(feature = "fault-injection")]
            col_base,
            #[cfg(feature = "fault-injection")]
            armed: None,
            #[cfg(feature = "fault-injection")]
            active_lane: 0,
            config,
        })
    }

    /// Replaces the plan's value stream copy-on-write: installs `values`
    /// (typically the buffer returned by `SpasmMatrix::patch_values`)
    /// under a bumped [`ExecutionPlan::version`].
    ///
    /// Clones of this plan — and executions already reading the old
    /// buffer — keep the previous values; only subsequent runs of *this*
    /// plan see the new ones. Works on mapped plans too (the value
    /// stream becomes owned; [`ExecutionPlan::memory_bytes`] reprices
    /// accordingly).
    ///
    /// # Errors
    ///
    /// [`SimError::Plan`] when `values` does not hold exactly four slots
    /// per instance; the plan is untouched.
    pub fn adopt_values(&mut self, values: Arc<[f32]>) -> Result<(), SimError> {
        if values.len() != self.values.len() {
            return Err(SimError::Plan("adopted value stream has the wrong length"));
        }
        let next = self.values.version() + 1;
        self.values = Stream::owned(values).with_version(next);
        Ok(())
    }

    /// The plan's content generation: 0 as prepared, bumped by every
    /// [`ExecutionPlan::adopt_values`] and [`ExecutionPlan::respliced`].
    pub fn version(&self) -> u64 {
        self.values.version()
    }

    /// Restamps the plan's content generation without touching its data.
    /// The update path uses this to keep version stamps monotonic when a
    /// drifting delta forces a full re-prepare (which otherwise builds a
    /// fresh plan at generation 0).
    pub fn restamp_version(&mut self, version: u64) {
        self.values = self.values.clone().with_version(version);
    }

    /// Builds the successor plan for a structurally spliced matrix,
    /// reusing this plan's decoded SoA spans for untouched tiles.
    ///
    /// `matrix` is the spliced encoding (`SpasmMatrix::spliced`),
    /// `old_tiles` the *pre-splice* tile directory (the plan itself keeps
    /// no directory), and `touched` the `(tile_row, tile_col)` keys of
    /// re-encoded tiles. Untouched tiles' x/y-base and opcode-class
    /// spans are copied from this plan verbatim — their decode is a pure
    /// function of tile-local content, which did not change; CE/RE
    /// boundary flags are not part of the SoA form, so global restamping
    /// does not invalidate the spans. Touched tiles are decoded from the
    /// new stream. Derived state (buckets, schedule, pricing, scratch)
    /// is rebuilt exactly as a fresh prepare would, so the result is
    /// bit-identical to preparing the mutated matrix from scratch, with
    /// the version bumped.
    ///
    /// # Errors
    ///
    /// [`SimError::Plan`] when the spliced matrix changed shape, tiling
    /// or portfolio; [`SimError::Integrity`] when its stream fails
    /// validation. The plan is untouched on error.
    pub fn respliced(
        &self,
        matrix: &SpasmMatrix,
        old_tiles: &[spasm_format::Tile],
        touched: &[(u32, u32)],
    ) -> Result<ExecutionPlan, SimError> {
        if matrix.rows() != self.rows
            || matrix.cols() != self.cols
            || matrix.tile_size() != self.tile_size
        {
            return Err(SimError::Plan("spliced matrix changed shape or tiling"));
        }
        if matrix.template_masks().len() != self.lut.len() {
            return Err(SimError::Plan("spliced matrix changed the portfolio"));
        }
        let pe = Pe::new(matrix.template_masks())?;
        let xp_len = (matrix.cols() as usize).div_ceil(4) * 4;
        let yp_len = (matrix.rows() as usize).div_ceil(4) * 4;
        validate_stream(matrix, &pe, xp_len as u64, yp_len as u64)?;

        let touched: std::collections::HashSet<(u32, u32)> = touched.iter().copied().collect();
        let tile_size = self.tile_size;
        let n = matrix.n_instances();
        let mut x_base = Vec::with_capacity(n);
        let mut y_base = Vec::with_capacity(n);
        let mut op_idx = Vec::with_capacity(n);
        let encodings = matrix.encodings();
        for tile in matrix.tiles() {
            let key = (tile.tile_row, tile.tile_col);
            let old_span = if touched.contains(&key) {
                None
            } else {
                old_tiles
                    .binary_search_by_key(&key, |t| (t.tile_row, t.tile_col))
                    .ok()
                    .map(|i| &old_tiles[i])
                    .filter(|ot| ot.n_instances == tile.n_instances)
            };
            match old_span {
                Some(ot) => {
                    // Splice: the old plan's SoA span decodes this
                    // tile's unchanged content.
                    let s = ot.first_instance..ot.first_instance + ot.n_instances;
                    x_base.extend_from_slice(&self.x_base[s.clone()]);
                    y_base.extend_from_slice(&self.y_base[s.clone()]);
                    op_idx.extend_from_slice(&self.op_idx[s]);
                }
                None => {
                    let col_base = tile.tile_col * tile_size;
                    for e in &encodings[tile.first_instance..tile.first_instance + tile.n_instances]
                    {
                        x_base.push(col_base + e.c_idx() * 4);
                        y_base.push(e.r_idx() * 4);
                        op_idx.push(e.t_idx());
                    }
                }
            }
        }

        let values =
            Stream::owned(matrix.shared_values().clone()).with_version(self.values.version() + 1);
        Self::from_matrix(self.config.clone(), matrix, x_base, y_base, op_idx, values)
    }

    /// Reassembles an executable plan from frozen parts — the wire-v3
    /// load path. The streams may be owned or mapped; either way the
    /// resulting plan executes bit-identically to one built by
    /// `prepare` from the same matrix.
    ///
    /// Every structural invariant `build` establishes by construction is
    /// checked here instead, because the parts may come from a hostile or
    /// corrupted buffer: tile-directory contiguity and bounds,
    /// per-instance x/y bases against the padded operand layout, opcode
    /// classes against the portfolio, and the full bucket directory
    /// (blocks partition each tile row, runs partition each block,
    /// indices are an in-block permutation agreeing with `op_idx`).
    /// Derived state (portfolio LUT, tile-row layout, LPT schedule,
    /// report, scratch) is then assembled by the same code `build` uses.
    ///
    /// # Errors
    ///
    /// [`SimError::Plan`] naming the violated invariant; never panics.
    pub fn from_parts(mut parts: PlanParts) -> Result<Self, SimError> {
        parts.config = parts.config.checked().map_err(SimError::Plan)?;
        let tile_size = parts.tile_size;
        if tile_size == 0 || !tile_size.is_multiple_of(4) {
            return Err(SimError::Plan("tile size must be a positive multiple of 4"));
        }
        if parts.template_masks.is_empty() || parts.template_masks.len() > 16 {
            return Err(SimError::Plan("portfolio must hold 1..=16 templates"));
        }
        let n = parts.op_idx.len();
        if parts.x_base.len() != n
            || parts.y_base.len() != n
            || parts.bucket_idx.len() != n
            || parts.values.len() != 4 * n
        {
            return Err(SimError::Plan("stream section lengths disagree"));
        }
        if parts.nnz > 4 * n as u64 {
            return Err(SimError::Plan("nnz exceeds the stream's value slots"));
        }
        let xp_len = (parts.cols as usize).div_ceil(4) * 4;
        let yp_len = (parts.rows as usize).div_ceil(4) * 4;
        let ts64 = u64::from(tile_size);

        // Tile directory: tiles the stream contiguously, strictly
        // ascending (row, col), every tile inside the matrix.
        let mut cursor = 0usize;
        let mut prev: Option<(u32, u32)> = None;
        for t in &parts.tiles {
            if t.first_instance != cursor {
                return Err(SimError::Plan("tile directory does not tile the stream"));
            }
            cursor = cursor
                .checked_add(t.n_instances)
                .filter(|&c| c <= n)
                .ok_or(SimError::Plan("tile instance counts overflow the stream"))?;
            if prev.is_some_and(|p| (t.row, t.col) <= p) {
                return Err(SimError::Plan("tile directory not strictly ascending"));
            }
            prev = Some((t.row, t.col));
            if u64::from(t.row) * ts64 >= u64::from(parts.rows)
                || u64::from(t.col) * ts64 >= u64::from(parts.cols)
            {
                return Err(SimError::Plan("tile outside the matrix"));
            }
        }
        if cursor != n {
            return Err(SimError::Plan("tile directory does not cover the stream"));
        }

        // Per-instance stream invariants, mirroring `validate_stream` on
        // the already-decoded SoA form (u64 math: hostile coordinates
        // cannot wrap).
        let x_base = &parts.x_base;
        let y_base = &parts.y_base;
        let op_idx = &parts.op_idx;
        let n_templates = parts.template_masks.len();
        for t in &parts.tiles {
            let col_base = u64::from(t.col) * ts64;
            let w_start = u64::from(t.row) * ts64;
            let w_end = (w_start + ts64).min(yp_len as u64);
            let wlen = w_end - w_start;
            for i in t.first_instance..t.first_instance + t.n_instances {
                let xb = u64::from(x_base[i]);
                if xb < col_base
                    || (xb - col_base) % 4 != 0
                    || xb + 4 > col_base + ts64
                    || xb + 4 > xp_len as u64
                {
                    return Err(SimError::Plan("instance x base outside its tile"));
                }
                let yb = u64::from(y_base[i]);
                if yb % 4 != 0 || yb + 4 > wlen {
                    return Err(SimError::Plan("instance y base outside its window"));
                }
                if usize::from(op_idx[i]) >= n_templates {
                    return Err(SimError::Plan("opcode class outside the portfolio"));
                }
            }
        }

        // Bucket directory: blocks partition each tile row, runs
        // partition each block with strictly ascending classes, and each
        // block's indices are a permutation of its instance span whose
        // classes agree with `op_idx`.
        let row_spans = worked_rows(&parts.tiles);
        let bucket_idx = &parts.bucket_idx;
        let class_runs = &parts.class_runs;
        let block_runs = &parts.block_runs;
        let row_blocks = &parts.row_blocks;
        if row_blocks.len() != row_spans.len() + 1 || row_blocks.first() != Some(&0) {
            return Err(SimError::Plan("row-block prefix has the wrong shape"));
        }
        for (r, &(_, i0, i1)) in row_spans.iter().enumerate() {
            let want = (i1 - i0).div_ceil(kernel::EXEC_BLOCK) as u32;
            if row_blocks[r + 1].checked_sub(row_blocks[r]) != Some(want) {
                return Err(SimError::Plan("row-block prefix disagrees with the layout"));
            }
        }
        let n_blocks = row_blocks.last().map_or(0, |&b| b as usize);
        if block_runs.len() != n_blocks + 1
            || block_runs.first() != Some(&0)
            || block_runs.last() != Some(&(class_runs.len() as u32))
            || block_runs.windows(2).any(|w| w[0] > w[1])
        {
            return Err(SimError::Plan("block-run prefix has the wrong shape"));
        }
        let mut seen = vec![u32::MAX; kernel::EXEC_BLOCK];
        let mut b = 0usize;
        for &(_, i0, i1) in &row_spans {
            let mut blk_i0 = i0;
            while blk_i0 < i1 {
                let blk_i1 = (blk_i0 + kernel::EXEC_BLOCK).min(i1);
                let mut cur = blk_i0 as u32;
                let mut last_class: Option<u32> = None;
                for run in block_runs[b] as usize..block_runs[b + 1] as usize {
                    let cr = class_runs[run];
                    if cr.start != cur || cr.end <= cr.start || cr.end as usize > blk_i1 {
                        return Err(SimError::Plan("class runs do not partition their block"));
                    }
                    cur = cr.end;
                    if cr.class as usize >= n_templates {
                        return Err(SimError::Plan(
                            "class run names a template outside the portfolio",
                        ));
                    }
                    if last_class.is_some_and(|lc| cr.class <= lc) {
                        return Err(SimError::Plan(
                            "class runs must strictly ascend within a block",
                        ));
                    }
                    last_class = Some(cr.class);
                    for &idx in &bucket_idx[cr.start as usize..cr.end as usize] {
                        let i = idx as usize;
                        if i < blk_i0 || i >= blk_i1 {
                            return Err(SimError::Plan("bucket index outside its block"));
                        }
                        if u32::from(op_idx[i]) != cr.class {
                            return Err(SimError::Plan(
                                "bucket index class disagrees with the stream",
                            ));
                        }
                        let slot = i - blk_i0;
                        if seen[slot] == b as u32 {
                            return Err(SimError::Plan("duplicate bucket index in a block"));
                        }
                        seen[slot] = b as u32;
                    }
                }
                if cur as usize != blk_i1 {
                    return Err(SimError::Plan("class runs do not cover their block"));
                }
                blk_i0 = blk_i1;
                b += 1;
            }
        }

        // Fault-injection builds re-decode the raw encoding words; they
        // are part of the frozen form there.
        #[cfg(feature = "fault-injection")]
        match &parts.encodings {
            None => {
                return Err(SimError::Plan(
                    "fault-injection builds need the encoding words",
                ))
            }
            Some(enc) if enc.len() != n => {
                return Err(SimError::Plan("encoding-word section length disagrees"))
            }
            Some(_) => {}
        }

        Self::assemble(parts)
    }

    /// The hardware configuration this plan was priced on.
    pub fn config(&self) -> &HwConfig {
        &self.config
    }

    /// Matrix rows.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Matrix columns.
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// The tile edge length of the encoded matrix.
    pub fn tile_size(&self) -> u32 {
        self.tile_size
    }

    /// Instances per execution block: the pattern-class bucketing (and
    /// kernel staging) granule of the class kernels.
    pub const EXEC_BLOCK: usize = kernel::EXEC_BLOCK;

    /// Batch vectors fused per instance walk by the class kernels.
    pub const LANE_BLOCK: usize = kernel::LANE_BLOCK;

    /// Template instances in the pre-decoded stream.
    pub fn n_instances(&self) -> usize {
        self.op_idx.len()
    }

    /// Worked tile rows (each owns a disjoint y window).
    pub fn n_tile_rows(&self) -> usize {
        self.inst_ranges.len()
    }

    /// The instance span of worked tile row `r` in the pre-decoded
    /// stream, if `r` is in range.
    pub fn instance_range(&self, r: usize) -> Option<(usize, usize)> {
        self.inst_ranges.get(r).copied()
    }

    /// The class kernels' execution order: instance indices, block-wise
    /// stably sorted by opcode class. Each
    /// [`ExecutionPlan::EXEC_BLOCK`]-aligned slice of a tile row's span
    /// is a permutation of the corresponding stream positions (the
    /// bucketing property test pins this down).
    pub fn bucket_order(&self) -> &[u32] {
        &self.bucket_idx
    }

    /// Per-instance opcode class: the template LUT index driving both the
    /// class kernels and the reference walk (1 byte per instance).
    pub fn opcode_classes(&self) -> &[u8] {
        &self.op_idx
    }

    /// The LPT tile-to-group assignment computed at prepare time.
    pub fn assignment(&self) -> &[Vec<TileJob>] {
        &self.assignment
    }

    /// The plan's flattened value stream when it is heap-owned — the same
    /// `Arc` as [`SpasmMatrix::shared_values`] of the matrix it was
    /// prepared from (shared, never copied; `tests/alloc_free.rs` asserts
    /// this). `None` for plans whose streams are mapped out of a wire-v3
    /// buffer (those own no value bytes at all).
    pub fn shared_values(&self) -> Option<&Arc<[f32]>> {
        self.values.as_owned()
    }

    /// The cached execution report — a pure function of `(matrix,
    /// config)` except for [`ExecReport::health`], which reflects the most
    /// recent execution (all-clean until a run observes otherwise).
    pub fn report(&self) -> &ExecReport {
        &self.report
    }

    /// Executes `y += A·x` against the prepared matrix, returning the
    /// cached report.
    ///
    /// Bit-identical to [`crate::Accelerator::run`] on the same matrix and
    /// configuration, for every thread budget. Performs no heap allocation
    /// at steady state when running serially (the parallel fan-out spawns
    /// scoped threads, which allocate their stacks).
    ///
    /// This is the unguarded path: armed faults (under the
    /// `fault-injection` feature) strike the execution and are *not*
    /// detected — use [`ExecutionPlan::run_deferred`] +
    /// [`ExecutionPlan::commit`] for verified execution.
    ///
    /// # Errors
    ///
    /// [`SimError::DimensionMismatch`] on operand length mismatches.
    pub fn run(&mut self, x: &[f32], y: &mut [f32]) -> Result<&ExecReport, SimError> {
        self.check_x(x)?;
        self.check_y(y)?;
        self.report.health = self.execute(&[x], self.single_lane());
        self.report.batch = None;
        self.commit_into(&mut [y]);
        Ok(&self.report)
    }

    /// Executes `ys[j] += A·xs[j]` for every vector of the batch in one
    /// call — the serving shape of multi-RHS solvers and
    /// SpMM-as-batched-SpMV inference.
    ///
    /// All x-vectors are padded once into a strided scratch; each tile
    /// row's span of the pre-decoded instance stream is then applied to
    /// blocks of vectors while it is hot in cache, instead of being
    /// re-streamed per vector. With a worker budget above one the fan-out
    /// chunks (tile-row × vector) pairs balanced by instance count, so a
    /// small matrix with a large batch still saturates threads. Each
    /// output is bit-identical to a looped [`ExecutionPlan::run`] over the
    /// same vectors, for every batch size and thread count, and the scratch
    /// is reused: after the first call at a given batch size the steady
    /// state performs no heap allocation (when running serially).
    ///
    /// On success the cached report carries a [`BatchReport`] with the
    /// amortised batch pricing (initialisation and the matrix stream are
    /// paid once per batch).
    ///
    /// Armed faults (under the `fault-injection` feature) strike batched
    /// execution exactly as they strike looped [`ExecutionPlan::run`]
    /// calls acting for each vector's lane: plans armed via
    /// `arm_faults_for_vector` strike only their target vector, and the
    /// report's injection counts sum over the struck vectors.
    ///
    /// # Errors
    ///
    /// As [`ExecutionPlan::check_batch`]: all shapes are validated up
    /// front, so on error no output vector has been touched.
    pub fn run_batch<X, Y>(&mut self, xs: &[X], ys: &mut [Y]) -> Result<&ExecReport, SimError>
    where
        X: AsRef<[f32]>,
        Y: AsMut<[f32]>,
    {
        self.check_batch(xs, ys)?;
        self.report.health = self.execute(xs, 0);
        self.commit_into(ys);
        self.stamp_batch(xs.len());
        Ok(&self.report)
    }

    /// Validates a batch's shapes against the plan, touching nothing.
    ///
    /// # Errors
    ///
    /// [`SimError::DimensionMismatch`] when `xs` and `ys` disagree in
    /// length (operand `"batch"`), or [`SimError::BatchDimensionMismatch`]
    /// naming the first offending vector index (x vectors checked before
    /// y vectors) when any individual vector has the wrong length.
    pub fn check_batch<X, Y>(&self, xs: &[X], ys: &mut [Y]) -> Result<(), SimError>
    where
        X: AsRef<[f32]>,
        Y: AsMut<[f32]>,
    {
        if xs.len() != ys.len() {
            return Err(SimError::DimensionMismatch {
                expected: xs.len(),
                actual: ys.len(),
                operand: "batch",
            });
        }
        for (j, x) in xs.iter().enumerate() {
            if x.as_ref().len() != self.cols as usize {
                return Err(SimError::BatchDimensionMismatch {
                    vector: j,
                    expected: self.cols as usize,
                    actual: x.as_ref().len(),
                    operand: "x",
                });
            }
        }
        for (j, y) in ys.iter_mut().enumerate() {
            if y.as_mut().len() != self.rows as usize {
                return Err(SimError::BatchDimensionMismatch {
                    vector: j,
                    expected: self.rows as usize,
                    actual: y.as_mut().len(),
                    operand: "y",
                });
            }
        }
        Ok(())
    }

    /// Stamps the cached report with amortised pricing for a
    /// `vectors`-sized batch. [`ExecutionPlan::run_batch`] does this
    /// itself; front-ends that drive a batch through the per-vector
    /// verified ladder call it once at the end so the report they hand out
    /// reflects the batch.
    pub fn stamp_batch(&mut self, vectors: usize) {
        let cycles = timing::batch_cycles(self.report.cycles, vectors);
        let seconds = self.config.cycles_to_seconds(cycles);
        let t = self.report.traffic;
        let div = vectors.max(1) as f64;
        self.report.batch = Some(BatchReport {
            vectors,
            cycles,
            seconds,
            amortised_cycles_per_vector: cycles as f64 / div,
            amortised_seconds_per_vector: seconds / div,
            traffic: Traffic {
                matrix: t.matrix,
                x: t.x * vectors as u64,
                y: t.y * vectors as u64,
            },
        });
    }

    /// Executes `A·x` into the plan's internal window buffer *without*
    /// touching `y`, then re-verifies the tile rows selected by `scope`
    /// against the pristine reference walk.
    ///
    /// Rows whose output disagrees are quarantined and re-executed once
    /// from the pristine stream (persistent lane faults remain in effect);
    /// the outcome is recorded in the returned [`HealthReport`]. Call
    /// [`ExecutionPlan::commit`] afterwards to fold the (healed) result
    /// into `y`, or discard it — e.g. to fall back to a golden path —
    /// by simply not committing.
    ///
    /// # Errors
    ///
    /// [`SimError::DimensionMismatch`] if `x` has the wrong length.
    pub fn run_deferred(
        &mut self,
        x: &[f32],
        scope: VerifyScope<'_>,
    ) -> Result<HealthReport, SimError> {
        self.check_x(x)?;
        let mut health = self.execute(&[x], self.single_lane());
        self.verify_and_heal(scope, &mut health);
        self.report.health = health;
        self.report.batch = None;
        Ok(health)
    }

    /// Folds the result of the last [`ExecutionPlan::run_deferred`] into
    /// `y` (`y += A·x`) and returns the cached report. Any execution in
    /// between replaces that result: all entry points share one scratch.
    ///
    /// # Errors
    ///
    /// [`SimError::DimensionMismatch`] if `y` has the wrong length.
    pub fn commit(&mut self, y: &mut [f32]) -> Result<&ExecReport, SimError> {
        self.check_y(y)?;
        self.commit_into(&mut [y]);
        Ok(&self.report)
    }

    /// The contribution `(A·x)[row]` computed by the last execution
    /// (zero for rows outside the matrix or in unworked tile rows).
    ///
    /// Meaningful between [`ExecutionPlan::run_deferred`] and the next
    /// execution; used for sampled residual cross-checks against a golden
    /// reference before committing.
    pub fn contribution(&self, row: usize) -> f32 {
        if row >= self.rows as usize {
            return 0.0;
        }
        self.tile_row_index_containing(row).map_or(0.0, |r| {
            self.yb[self.window_prefix[r] + row - self.window_spans[r].0]
        })
    }

    /// The index (into the plan's worked tile rows, as accepted by
    /// [`VerifyScope::TileRows`]) of the tile row whose y window contains
    /// output row `y_row`, if that row is worked.
    pub fn tile_row_index_containing(&self, y_row: usize) -> Option<usize> {
        let idx = self.window_spans.partition_point(|&(_, end)| end <= y_row);
        (idx < self.window_spans.len() && self.window_spans[idx].0 <= y_row).then_some(idx)
    }

    /// The matrix-level tile-row id of the worked tile row at `index`
    /// (as returned by [`ExecutionPlan::tile_row_index_containing`]).
    pub fn tile_row_id(&self, index: usize) -> Option<u32> {
        self.tile_row_ids.get(index).copied()
    }

    /// Overwrites the cached report's [`ExecReport::health`]. For
    /// front-ends that extend verification beyond the plan (e.g. residual
    /// cross-checks against a golden reference, or a fallback taken on the
    /// plan's behalf) so the report they hand out reflects the full story.
    pub fn annotate_health(&mut self, health: HealthReport) {
        self.report.health = health;
    }

    /// The *owned* resident size of this plan in bytes: the pre-decoded
    /// SoA stream (1-byte opcode classes plus the portfolio LUT), the
    /// pattern-class bucket directory, tile-row layout, scheduling state
    /// and reusable scratch (including the kernel staging stripes), plus
    /// the value stream — counting only heap-owned stream sections.
    /// Sections mapped out of a wire-v3 buffer are excluded here and
    /// reported by [`ExecutionPlan::mapped_bytes`] instead, so a cache
    /// can price owned memory and pinned file mappings separately.
    ///
    /// An owned value stream is `Arc`-shared with the owning matrix and
    /// any sibling plans, but it is counted here in full so the figure is
    /// a safe upper bound for cache budgeting — evicting the plan may or
    /// may not actually free those bytes depending on other holders.
    /// Buffer lengths (not capacities) are counted, and the x/y scratch
    /// `xb`/`yb` grows with the largest batch seen, so the figure can
    /// grow across calls.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        fn owned<T>(s: &Stream<T>) -> usize {
            if s.is_mapped() {
                0
            } else {
                std::mem::size_of_val(&**s)
            }
        }
        let f32s = self.xb.len() + self.yb.len() + self.vp.len() + self.stage.len();
        let bytes = size_of::<Self>()
            + f32s * size_of::<f32>()
            + owned(&self.values)
            + owned(&self.x_base)
            + owned(&self.y_base)
            + owned(&self.op_idx)
            + self.lut.len() * size_of::<ValuOpcode>()
            + self.kernels.len() * size_of::<ClassKernel>()
            + owned(&self.bucket_idx)
            + owned(&self.class_runs)
            + owned(&self.block_runs)
            + owned(&self.row_blocks)
            + self.inst_ranges.len() * size_of::<(usize, usize)>()
            + self.window_spans.len() * size_of::<(usize, usize)>()
            + self.tile_row_ids.len() * size_of::<u32>()
            + self.cum_instances.len() * size_of::<usize>()
            + self.window_prefix.len() * size_of::<usize>()
            + self.chunks.len() * size_of::<usize>()
            + self
                .assignment
                .iter()
                .map(|jobs| size_of::<Vec<TileJob>>() + jobs.len() * size_of::<TileJob>())
                .sum::<usize>();
        #[cfg(feature = "fault-injection")]
        let bytes =
            bytes + self.enc_bits.len() * size_of::<u32>() + self.col_base.len() * size_of::<u32>();
        bytes
    }

    /// Bytes this plan reads zero-copy out of a mapped wire-v3 buffer
    /// (0 for plans built by `prepare`). These bytes are pinned in the
    /// backing buffer, not owned by the plan; together with
    /// [`ExecutionPlan::memory_bytes`] they describe the plan's full
    /// working set.
    pub fn mapped_bytes(&self) -> usize {
        fn mapped<T>(s: &Stream<T>) -> usize {
            if s.is_mapped() {
                std::mem::size_of_val(&**s)
            } else {
                0
            }
        }
        mapped(&self.values)
            + mapped(&self.x_base)
            + mapped(&self.y_base)
            + mapped(&self.op_idx)
            + mapped(&self.bucket_idx)
            + mapped(&self.class_runs)
            + mapped(&self.block_runs)
            + mapped(&self.row_blocks)
    }

    /// Borrowed views of the plan's immutable stream sections — exactly
    /// the byte content wire v3 freezes. The `spasm-store` serialiser
    /// reads these; everything else about the plan (portfolio LUT,
    /// tile-row layout, schedule, scratch) is derived from them plus the
    /// tile directory at load time.
    pub fn streams(&self) -> PlanStreams<'_> {
        PlanStreams {
            x_base: &self.x_base,
            y_base: &self.y_base,
            op_idx: &self.op_idx,
            values: &self.values,
            bucket_idx: &self.bucket_idx,
            class_runs: &self.class_runs,
            block_runs: &self.block_runs,
            row_blocks: &self.row_blocks,
        }
    }

    fn check_x(&self, x: &[f32]) -> Result<(), SimError> {
        if x.len() != self.cols as usize {
            return Err(SimError::DimensionMismatch {
                expected: self.cols as usize,
                actual: x.len(),
                operand: "x",
            });
        }
        Ok(())
    }

    fn check_y(&self, y: &[f32]) -> Result<(), SimError> {
        if y.len() != self.rows as usize {
            return Err(SimError::DimensionMismatch {
                expected: self.rows as usize,
                actual: y.len(),
                operand: "y",
            });
        }
        Ok(())
    }

    /// Padded length of one x vector: the stride of `xb`.
    fn xstride(&self) -> usize {
        (self.cols as usize).div_ceil(4) * 4
    }

    /// The batch lane single-vector executions act for (always 0 without
    /// fault injection).
    fn single_lane(&self) -> usize {
        #[cfg(feature = "fault-injection")]
        return self.active_lane;
        #[cfg(not(feature = "fault-injection"))]
        0
    }

    /// Whether a fault plan is armed (never, without fault injection).
    fn is_armed(&self) -> bool {
        #[cfg(feature = "fault-injection")]
        return self.armed.is_some();
        #[cfg(not(feature = "fault-injection"))]
        false
    }

    /// Injection-level health of a pass whose vectors act for lanes
    /// `first_lane..first_lane + vectors`: what is armed on the plan,
    /// summed over the vectors it strikes, before any verification has
    /// looked at the output.
    #[cfg_attr(not(feature = "fault-injection"), allow(unused_variables))]
    fn injected_health(&self, first_lane: usize, vectors: usize) -> HealthReport {
        #[cfg(feature = "fault-injection")]
        if let Some(af) = &self.armed {
            let struck = (first_lane..first_lane + vectors)
                .filter(|&lane| af.strikes_lane(lane))
                .count() as u32;
            return HealthReport {
                faults_injected: af.applied * struck,
                stall_cycles: af.stall_cycles * u64::from(struck),
                ..HealthReport::default()
            };
        }
        HealthReport::default()
    }

    /// Pads every x vector into the strided scratch `xb` and zeroes the
    /// active region of the packed window scratch `yb`. Both buffers grow
    /// on first use at a larger batch and are reused afterwards; the pad
    /// lanes beyond each vector's `cols` entries are written zero at
    /// growth and never touched again (every accepted x has exactly
    /// `cols` entries), as the hardware's aligned buffers are.
    fn load<X: AsRef<[f32]>>(&mut self, xs: &[X]) {
        let xstride = self.xstride();
        let need_x = xstride * xs.len();
        if self.xb.len() < need_x {
            self.xb.resize(need_x, 0.0);
        }
        for (j, x) in xs.iter().enumerate() {
            let x = x.as_ref();
            self.xb[j * xstride..j * xstride + x.len()].copy_from_slice(x);
        }
        let need_y = self.window_prefix[self.window_prefix.len() - 1] * xs.len();
        if self.yb.len() < need_y {
            self.yb.resize(need_y, 0.0);
        }
        self.yb[..need_y].fill(0.0);
    }

    /// The one functional pass: pads `xs`, then walks every (tile-row ×
    /// vector) pair into the packed windows of `yb`, vector `j` acting for
    /// batch lane `first_lane + j`. Returns the pass's
    /// [injection-level health](ExecutionPlan::injected_health).
    ///
    /// Pairs are chunked contiguously in pair order, balanced by instance
    /// weight; each chunk owns one ascending span of `yb` (that is what
    /// the pair ordering of `yb`'s layout buys). One chunk runs inline;
    /// several run on scoped threads, each walking its pairs in order, so
    /// every window's accumulation sequence is the same for any chunking.
    /// An armed plan always runs one chunk.
    fn execute<X: AsRef<[f32]>>(&mut self, xs: &[X], first_lane: usize) -> HealthReport {
        let batch = xs.len();
        self.load(xs);
        let health = self.injected_health(first_lane, batch);
        let n_pairs = self.inst_ranges.len() * batch;
        if n_pairs == 0 {
            return health;
        }

        self.chunks.clear();
        self.chunks.push(0);
        let budget = rayon::current_num_threads();
        if !self.is_armed() && budget >= 2 && n_pairs >= 2 {
            let parts = budget.min(n_pairs);
            let total = self.cum_instances[self.cum_instances.len() - 1] * batch;
            let mut last_boundary = 0usize;
            for t in 1..parts {
                let target = total * t / parts;
                // Smallest pair whose cumulative weight reaches this
                // worker's share of the instance stream; clamped strictly
                // increasing.
                let (mut lo, mut hi) = (0usize, n_pairs);
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    let (r, j) = (mid / batch, mid % batch);
                    let w = batch * self.cum_instances[r]
                        + j * (self.cum_instances[r + 1] - self.cum_instances[r]);
                    if w < target {
                        lo = mid + 1;
                    } else {
                        hi = mid;
                    }
                }
                if lo > last_boundary && lo < n_pairs {
                    self.chunks.push(lo);
                    last_boundary = lo;
                }
            }
        }
        self.chunks.push(n_pairs);
        // One staging stripe per chunk worker (grown once per budget, so
        // the steady state at a fixed thread count does not allocate).
        let n_chunks = self.chunks.len() - 1;
        if self.stage.len() < n_chunks * kernel::STAGE_STRIDE {
            self.stage.resize(n_chunks * kernel::STAGE_STRIDE, 0.0);
        }

        let (walk, chunks, yb, stage) = self.split(batch, first_lane, true);
        let active = &mut yb[..walk.offset(n_pairs)];
        if n_chunks == 1 {
            walk.pairs(0, n_pairs, active, stage);
            return health;
        }
        std::thread::scope(|scope| {
            let mut rest = active;
            let mut stage_rest = stage;
            for w in chunks.windows(2) {
                let (p0, p1) = (w[0], w[1]);
                let (chunk_y, tail) = rest.split_at_mut(walk.offset(p1) - walk.offset(p0));
                rest = tail;
                let (chunk_stage, s_tail) = stage_rest.split_at_mut(kernel::STAGE_STRIDE);
                stage_rest = s_tail;
                scope.spawn(move || walk.pairs(p0, p1, chunk_y, chunk_stage));
            }
        });
        health
    }

    /// Splits `self` into the walk over its immutable streams (for a
    /// `batch`-vector pass, vector `j` acting for lane `first_lane + j`,
    /// with an armed plan's transient `stream_faults` on or off) and the
    /// mutable scratch the walk writes: `(walk, chunks, yb, stage)`.
    #[cfg_attr(not(feature = "fault-injection"), allow(unused_variables))]
    fn split(
        &mut self,
        batch: usize,
        first_lane: usize,
        stream_faults: bool,
    ) -> (Walk<'_>, &[usize], &mut [f32], &mut [f32]) {
        let xstride = self.xstride();
        // Under an armed plan every vector walks alone, so each pair can
        // be struck (or not) on its own.
        let lane_block = if self.is_armed() {
            1
        } else {
            kernel::LANE_BLOCK
        };
        let ExecutionPlan {
            x_base,
            y_base,
            kernels,
            values,
            bucket_idx,
            class_runs,
            block_runs,
            row_blocks,
            inst_ranges,
            window_spans,
            window_prefix,
            chunks,
            xb,
            yb,
            stage,
            ..
        } = self;
        #[cfg(feature = "fault-injection")]
        let strike = self.armed.as_ref().map(|faults| Strike {
            faults,
            stream_faults,
            first_lane,
            enc_bits: &self.enc_bits,
            col_base: &self.col_base,
            lut: &self.lut,
        });
        let walk = Walk {
            soa: SoaRef {
                x_base,
                y_base,
                values,
                kernels,
            },
            buckets: BucketRef {
                bucket_idx,
                class_runs,
                block_runs,
                row_blocks,
                inst_ranges,
            },
            window_spans,
            window_prefix,
            xb,
            xstride,
            batch,
            lane_block,
            #[cfg(feature = "fault-injection")]
            strike,
        };
        (walk, chunks, yb, stage)
    }

    /// Folds the packed windows of the last `ys.len()`-vector execution
    /// into the output vectors — including the `+= 0.0` on rows outside
    /// every worked window (which normalises a caller's `-0.0` to `+0.0`,
    /// as the hardware's full-length y write-back does), so every entry
    /// point commits identically.
    fn commit_into<Y: AsMut<[f32]>>(&self, ys: &mut [Y]) {
        let batch = ys.len();
        let rows = self.rows as usize;
        for y in ys.iter_mut() {
            let y = y.as_mut();
            let mut cursor = 0usize;
            for &(w0, w1) in &self.window_spans {
                for dst in &mut y[cursor..w0.min(rows)] {
                    *dst += 0.0;
                }
                cursor = cursor.max(w1.min(rows));
            }
            for dst in &mut y[cursor..] {
                *dst += 0.0;
            }
        }
        for (r, &(w0, w1)) in self.window_spans.iter().enumerate() {
            let wlen = w1 - w0;
            let base = self.window_prefix[r] * batch;
            let hi = w1.min(rows);
            for (j, y) in ys.iter_mut().enumerate() {
                let y = y.as_mut();
                let src = &self.yb[base + j * wlen..base + j * wlen + (hi - w0)];
                for (dst, s) in y[w0..hi].iter_mut().zip(src) {
                    *dst += *s;
                }
            }
        }
    }

    /// Re-verifies the selected tile rows against the pristine reference
    /// walk, quarantining and re-executing rows that disagree.
    fn verify_and_heal(&mut self, scope: VerifyScope<'_>, health: &mut HealthReport) {
        match scope {
            VerifyScope::None => {}
            VerifyScope::All => {
                for r in 0..self.inst_ranges.len() {
                    self.verify_row(r, health);
                }
            }
            VerifyScope::TileRows(rows) => {
                for &r in rows {
                    if r < self.inst_ranges.len() {
                        self.verify_row(r, health);
                    }
                }
            }
        }
    }

    /// Verifies one tile row's (batch-1) window against the pristine
    /// oracle — bit-for-bit, except that two NaNs agree; on mismatch,
    /// quarantines it and re-executes it once through the executor's walk
    /// with stream faults off (transient stream faults heal, persistent
    /// lane faults do not).
    fn verify_row(&mut self, r: usize, health: &mut HealthReport) {
        let (w0, w1) = self.window_spans[r];
        let (i0, i1) = self.inst_ranges[r];
        let wlen = w1 - w0;
        let at = self.window_prefix[r];
        health.tile_rows_verified += 1;

        // The oracle is always the per-instance reference walk — the class
        // kernels are bit-identical to it on every non-NaN output, so this
        // doubles as a kernel-vs-reference check on every verified row.
        let xstride = self.xstride();
        let oracle = &mut self.vp[..wlen];
        oracle.fill(0.0);
        reference::process_span(
            &self.x_base,
            &self.y_base,
            &self.op_idx,
            &self.lut,
            &self.values,
            &self.xb[..xstride],
            oracle,
            i0,
            i1,
        );
        if outputs_agree(&self.yb[at..at + wlen], &self.vp[..wlen]) {
            return;
        }
        health.tile_rows_quarantined += 1;

        // One-shot re-execution from the pristine stream. Transient faults
        // (in-flight bit flips) do not recur; persistent faults (a stuck
        // VALU lane) strike the retry too and stay uncorrected.
        let lane = self.single_lane();
        let (walk, _, yb, stage) = self.split(1, lane, false);
        let window = &mut yb[at..at + wlen];
        window.fill(0.0);
        walk.pairs(r, r + 1, window, &mut stage[..kernel::STAGE_STRIDE]);
        if outputs_agree(&self.yb[at..at + wlen], &self.vp[..wlen]) {
            health.tile_rows_corrected += 1;
        } else {
            health.tile_rows_uncorrected += 1;
            if health.first_failed_tile_row.is_none() {
                health.first_failed_tile_row = Some(self.tile_row_ids[r]);
            }
        }
    }
}

/// One pass of the executor over the plan's immutable streams: shared
/// views of the pre-decoded stream, bucket directory, window layout and
/// padded x vectors. `Copy`, so the fan-out moves it into scoped workers.
#[derive(Clone, Copy)]
struct Walk<'a> {
    soa: SoaRef<'a>,
    buckets: BucketRef<'a>,
    window_spans: &'a [(usize, usize)],
    window_prefix: &'a [usize],
    xb: &'a [f32],
    xstride: usize,
    batch: usize,
    // Vectors fused per kernel call: `kernel::LANE_BLOCK`, or 1 under an
    // armed plan.
    lane_block: usize,
    // The armed fault plan, if any, and what it needs to re-decode the
    // pairs it strikes.
    #[cfg(feature = "fault-injection")]
    strike: Option<Strike<'a>>,
}

impl Walk<'_> {
    /// Offset of pair `p`'s window in the packed scratch; `p == n_pairs`
    /// is the end of the active region.
    fn offset(&self, p: usize) -> usize {
        let (r, j) = (p / self.batch, p % self.batch);
        let base = self.window_prefix[r] * self.batch;
        if j == 0 {
            return base;
        }
        let (w0, w1) = self.window_spans[r];
        base + j * (w1 - w0)
    }

    /// Walks pairs `p0..p1` in order into `out`, the packed windows
    /// starting at pair `p0`. Consecutive pairs of one tile row form runs
    /// of consecutive vectors, each lane-blocked through the fused class
    /// kernel; every (row, vector) window is still produced in stream
    /// order, so chunk and lane-block boundaries cannot change any bits.
    /// The pairs an armed plan strikes re-decode their raw encoding words
    /// instead.
    fn pairs(&self, p0: usize, p1: usize, out: &mut [f32], stage: &mut [f32]) {
        let start = self.offset(p0);
        let batch = self.batch;
        let mut p = p0;
        while p < p1 {
            let r = p / batch;
            let (w0, w1) = self.window_spans[r];
            let wlen = w1 - w0;
            let jend = ((r + 1) * batch).min(p1) - r * batch;
            let mut j = p % batch;
            while j < jend {
                let lanes = self.lane_block.min(jend - j);
                let off = self.window_prefix[r] * batch + j * wlen - start;
                let windows = &mut out[off..off + lanes * wlen];
                #[cfg(feature = "fault-injection")]
                if let Some(s) = self
                    .strike
                    .filter(|s| s.faults.strikes_lane(s.first_lane + j))
                {
                    let (i0, i1) = self.buckets.inst_ranges[r];
                    let x = &self.xb[j * self.xstride..(j + 1) * self.xstride];
                    process_span_faulted(
                        s.faults,
                        s.stream_faults,
                        s.enc_bits,
                        s.col_base,
                        s.lut,
                        self.soa.values,
                        x,
                        windows,
                        i0,
                        i1,
                    );
                    j += 1;
                    continue;
                }
                kernel::execute_row_classed(
                    self.soa,
                    self.buckets,
                    r,
                    self.xb,
                    self.xstride,
                    j,
                    lanes,
                    windows,
                    wlen,
                    stage,
                );
                j += lanes;
            }
            p = r * batch + jend;
        }
    }
}

#[cfg(feature = "fault-injection")]
impl ExecutionPlan {
    /// Arms a seeded fault plan: subsequent executions strike the decode
    /// path with its faults (serially, deterministically). Replaces any
    /// previously armed plan. Only available under the `fault-injection`
    /// cargo feature.
    pub fn arm_faults(&mut self, plan: FaultPlan) {
        self.armed = Some(ArmedFaults::from_plan(plan));
    }

    /// Arms a seeded fault plan that strikes only executions on behalf of
    /// batch vector `vector`: in [`ExecutionPlan::run_batch`] exactly that
    /// vector of the batch is struck, the rest execute pristine. Front-ends
    /// driving a batch through the per-vector verified ladder select the
    /// vector with [`ExecutionPlan::set_active_lane`]. Replaces any
    /// previously armed plan.
    pub fn arm_faults_for_vector(&mut self, plan: FaultPlan, vector: usize) {
        let mut af = ArmedFaults::from_plan(plan);
        af.target = Some(vector);
        self.armed = Some(af);
    }

    /// Selects which batch lane subsequent single-vector executions act on
    /// behalf of, so faults armed with
    /// [`ExecutionPlan::arm_faults_for_vector`] strike only their vector.
    /// Lane 0 outside batched execution.
    pub fn set_active_lane(&mut self, lane: usize) {
        self.active_lane = lane;
    }

    /// The active batch lane (see [`ExecutionPlan::set_active_lane`]).
    pub fn active_lane(&self) -> usize {
        self.active_lane
    }

    /// Disarms fault injection; subsequent executions are pristine.
    pub fn disarm_faults(&mut self) {
        self.armed = None;
    }

    /// The currently armed fault plan, if any.
    pub fn armed_faults(&self) -> Option<&FaultPlan> {
        self.armed.as_ref().map(|af| &af.plan)
    }
}

/// A [`FaultPlan`] preprocessed for the executor: encoding xors merged per
/// instance and sorted, value flips sorted, lane masks and stall totals
/// folded.
#[cfg(feature = "fault-injection")]
#[derive(Debug, Clone)]
struct ArmedFaults {
    plan: FaultPlan,
    /// Merged per-instance encoding xor masks, sorted by instance.
    enc: Vec<(usize, u32)>,
    /// Value-slot bit flips `(instance, slot, bit)`, sorted.
    val: Vec<(usize, u8, u8)>,
    lane_zero: [bool; 4],
    stall_cycles: u64,
    applied: u32,
    /// `Some(v)`: strike only executions on behalf of batch vector `v`;
    /// `None`: strike every execution.
    target: Option<usize>,
}

#[cfg(feature = "fault-injection")]
impl ArmedFaults {
    fn from_plan(plan: FaultPlan) -> Self {
        let mut enc: Vec<(usize, u32)> = Vec::new();
        let mut val: Vec<(usize, u8, u8)> = Vec::new();
        let mut lane_zero = [false; 4];
        let mut stall_cycles = 0u64;
        for f in plan.faults() {
            match *f {
                Fault::EncodingFlip { instance, bit } => enc.push((instance, 1u32 << (bit % 32))),
                Fault::ValueFlip {
                    instance,
                    slot,
                    bit,
                } => val.push((instance, slot % 4, bit % 32)),
                Fault::LaneStuckZero { lane } => lane_zero[(lane as usize) % 4] = true,
                Fault::ChannelStall { cycles, .. } => stall_cycles += u64::from(cycles),
            }
        }
        enc.sort_unstable_by_key(|&(i, _)| i);
        let mut merged: Vec<(usize, u32)> = Vec::with_capacity(enc.len());
        for (i, mask) in enc {
            match merged.last_mut() {
                Some((j, acc)) if *j == i => *acc ^= mask,
                _ => merged.push((i, mask)),
            }
        }
        val.sort_unstable();
        let applied = plan.faults().len() as u32;
        ArmedFaults {
            plan,
            enc: merged,
            val,
            lane_zero,
            stall_cycles,
            applied,
            target: None,
        }
    }

    /// Whether this plan strikes executions on behalf of `lane`.
    fn strikes_lane(&self, lane: usize) -> bool {
        self.target.is_none_or(|t| t == lane)
    }

    /// The xor mask to apply to instance `i`'s encoding word (0 if the
    /// instance is not struck).
    fn enc_xor(&self, i: usize) -> u32 {
        match self.enc.binary_search_by_key(&i, |&(j, _)| j) {
            Ok(k) => self.enc[k].1,
            Err(_) => 0,
        }
    }

    /// Applies value-slot bit flips targeting instance `i`.
    fn apply_value_faults(&self, i: usize, v: &mut [f32; 4]) {
        let start = self.val.partition_point(|&(j, _, _)| j < i);
        for &(j, slot, bit) in &self.val[start..] {
            if j != i {
                break;
            }
            let s = slot as usize;
            v[s] = f32::from_bits(v[s].to_bits() ^ (1u32 << bit));
        }
    }
}

/// An armed fault plan as one walk applies it: the faults, whether the
/// transient stream faults strike (off for the quarantine retry, which
/// reads the pristine stream), the lane vector 0 acts for, and the raw
/// stream the faulted decoder reads.
#[cfg(feature = "fault-injection")]
#[derive(Clone, Copy)]
struct Strike<'a> {
    faults: &'a ArmedFaults,
    stream_faults: bool,
    first_lane: usize,
    enc_bits: &'a [u32],
    col_base: &'a [u32],
    lut: &'a [ValuOpcode],
}

/// `true` when the two windows agree: every output pair is bit-for-bit
/// identical or NaN on both sides. IEEE 754 (and Rust) leave the payload
/// an operation returns unspecified, so the class kernels and the
/// reference walk may propagate different NaN payloads from the same
/// inputs; every non-NaN output must still match exactly.
fn outputs_agree(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
}

/// The worked tile rows of a tile directory, in stream order: `(tile_row,
/// first instance, end instance)` per maximal run of same-row tiles.
fn worked_rows(tiles: &[FrozenTile]) -> Vec<(u32, usize, usize)> {
    let mut rows: Vec<(u32, usize, usize)> = Vec::new();
    for t in tiles {
        let end = t.first_instance + t.n_instances;
        match rows.last_mut() {
            Some((row, _, i1)) if *row == t.row => *i1 = end,
            _ => rows.push((t.row, t.first_instance, end)),
        }
    }
    rows
}

/// Validates the structural invariants the wire decoder cannot check
/// cheaply: the directory must tile the stream exactly and every encoding
/// must stay inside its tile, the padded operand buffers and the
/// portfolio.
fn validate_stream(
    matrix: &SpasmMatrix,
    pe: &Pe,
    xp_len: u64,
    yp_len: u64,
) -> Result<(), SimError> {
    let tile_size = u64::from(matrix.tile_size());
    let encodings = matrix.encodings();

    // Directory consistency: tiles partition the stream contiguously.
    let mut cursor = 0usize;
    let mut last_row = 0u32;
    for tile in matrix.tiles() {
        last_row = tile.tile_row;
        if tile.first_instance != cursor || tile.n_instances > encodings.len() - cursor {
            return Err(SimError::Integrity {
                tile_row: tile.tile_row,
                check: IntegrityCheck::InstanceCount,
            });
        }
        cursor += tile.n_instances;
    }
    if cursor != encodings.len() {
        return Err(SimError::Integrity {
            tile_row: last_row,
            check: IntegrityCheck::InstanceCount,
        });
    }

    // Encoding ranges, in u64 so hostile tile coordinates cannot wrap.
    let mut idx = 0usize;
    for tile in matrix.tiles() {
        let row_base = u64::from(tile.tile_row) * tile_size;
        let col_base = u64::from(tile.tile_col) * tile_size;
        let in_matrix = tile.n_instances == 0
            || (row_base < u64::from(matrix.rows()) && col_base < u64::from(matrix.cols()));
        if !in_matrix {
            return Err(SimError::Integrity {
                tile_row: tile.tile_row,
                check: IntegrityCheck::EncodingRange,
            });
        }
        for e in &encodings[idx..idx + tile.n_instances] {
            let c_end = u64::from(e.c_idx()) * 4 + 4;
            let r_end = u64::from(e.r_idx()) * 4 + 4;
            let ok = c_end <= tile_size
                && r_end <= tile_size
                && col_base + c_end <= xp_len
                && row_base + r_end <= yp_len
                && (e.t_idx() as usize) < pe.lut_len();
            if !ok {
                return Err(SimError::Integrity {
                    tile_row: tile.tile_row,
                    check: IntegrityCheck::EncodingRange,
                });
            }
        }
        idx += tile.n_instances;
    }
    Ok(())
}

/// The faulted hot loop: re-decodes each instance from its raw encoding
/// word (xor-struck when `stream_faults` is set), clamps all accesses the
/// way the hardware's address decoders would — out-of-range x reads load
/// zero, out-of-window y writes are dropped, out-of-portfolio template ids
/// wrap the LUT — applies value-slot flips and stuck-at-zero lanes.
#[cfg(feature = "fault-injection")]
#[allow(clippy::too_many_arguments)]
fn process_span_faulted(
    af: &ArmedFaults,
    stream_faults: bool,
    enc_bits: &[u32],
    col_base: &[u32],
    lut: &[ValuOpcode],
    values: &[f32],
    xp: &[f32],
    window: &mut [f32],
    i0: usize,
    i1: usize,
) {
    if lut.is_empty() {
        return;
    }
    for i in i0..i1 {
        let bits = if stream_faults {
            enc_bits[i] ^ af.enc_xor(i)
        } else {
            enc_bits[i]
        };
        let e = PositionEncoding::from_bits(bits);
        let c0 = col_base[i] as usize + e.c_idx() as usize * 4;
        let x_at = |k: usize| xp.get(k).copied().unwrap_or(0.0);
        let x_seg = [x_at(c0), x_at(c0 + 1), x_at(c0 + 2), x_at(c0 + 3)];
        let mut v = [
            values[4 * i],
            values[4 * i + 1],
            values[4 * i + 2],
            values[4 * i + 3],
        ];
        if stream_faults {
            af.apply_value_faults(i, &mut v);
        }
        let op = lut[e.t_idx() as usize % lut.len()];
        let mut out = op.execute(v, x_seg);
        for (lane, stuck) in af.lane_zero.iter().enumerate() {
            if *stuck {
                out[lane] = 0.0;
            }
        }
        let r0 = e.r_idx() as usize * 4;
        for (lane, contrib) in out.iter().enumerate() {
            if let Some(slot) = window.get_mut(r0 + lane) {
                *slot += *contrib;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{Accelerator, HwConfig, SimError, VerifyScope};
    use spasm_format::{SpasmMatrix, SubmatrixMap};
    use spasm_patterns::{DecompositionTable, TemplateSet};
    use spasm_sparse::Coo;

    fn encode(coo: &Coo, tile: u32) -> SpasmMatrix {
        let table = DecompositionTable::build(&TemplateSet::table_v_set(0));
        SpasmMatrix::encode(&SubmatrixMap::from_coo(coo), &table, tile).unwrap()
    }

    fn sample(n: u32) -> Coo {
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 2.0));
            t.push((i, (i * 7 + 3) % n, 0.5));
            if i + 1 < n {
                t.push((i + 1, i, -1.0));
            }
        }
        Coo::from_triplets(n, n, t).unwrap()
    }

    #[test]
    fn adopt_values_is_cow_with_version_bump() {
        let coo = sample(40);
        let mut m = encode(&coo, 16);
        let acc = Accelerator::new(HwConfig::spasm_4_1());
        let mut plan = acc.prepare(&m).unwrap();
        assert_eq!(plan.version(), 0);
        let in_flight = plan.clone();

        let x: Vec<f32> = (0..40).map(|i| (i as f32) * 0.25 - 4.0).collect();
        let mut before = vec![0.0f32; 40];
        plan.run(&x, &mut before).unwrap();

        // Wrong length refused, plan untouched.
        let bad: std::sync::Arc<[f32]> = vec![0.0f32; 3].into();
        assert!(matches!(plan.adopt_values(bad), Err(SimError::Plan(_))));
        assert_eq!(plan.version(), 0);

        let fresh = m.patch_values(&[(0, 0, 5.0)]).unwrap();
        plan.adopt_values(fresh).unwrap();
        assert_eq!(plan.version(), 1);

        // The updated plan matches a fresh prepare of the patched matrix
        // bit for bit; the in-flight clone still serves the old values.
        let mut fresh_plan = acc.prepare(&m).unwrap();
        let (mut got, mut want, mut old) = (vec![0.0f32; 40], vec![0.0f32; 40], vec![0.0f32; 40]);
        plan.run(&x, &mut got).unwrap();
        fresh_plan.run(&x, &mut want).unwrap();
        assert_eq!(bits(&got), bits(&want));
        let mut stale = in_flight;
        stale.run(&x, &mut old).unwrap();
        assert_eq!(bits(&old), bits(&before));
        assert_ne!(bits(&got), bits(&before));
    }

    #[test]
    fn respliced_matches_fresh_prepare_bit_for_bit() {
        let coo = sample(96);
        let m = encode(&coo, 32);
        let acc = Accelerator::new(HwConfig::spasm_4_1());
        let plan = acc.prepare(&m).unwrap();

        // Structural mutation: drop one entry, add two (one in a fresh
        // tile region).
        let mut t: Vec<_> = coo.iter().collect();
        t.retain(|&(r, c, _)| (r, c) != (5, 5));
        t.push((90, 2, 3.25));
        t.push((6, 60, -0.75));
        let mutated = Coo::from_triplets(96, 96, t).unwrap();
        let fresh_m = encode(&mutated, 32);

        // Replacement blocks for every changed submatrix.
        let (old_map, new_map) = (
            SubmatrixMap::from_coo(&coo),
            SubmatrixMap::from_coo(&mutated),
        );
        let mut reps = Vec::new();
        for nb in new_map.blocks() {
            let same = old_map
                .blocks()
                .iter()
                .any(|ob| (ob.sub_r, ob.sub_c) == (nb.sub_r, nb.sub_c) && ob == nb);
            if !same {
                reps.push(nb.clone());
            }
        }
        for ob in old_map.blocks() {
            if !new_map
                .blocks()
                .iter()
                .any(|nb| (nb.sub_r, nb.sub_c) == (ob.sub_r, ob.sub_c))
            {
                let mut gone = ob.clone();
                gone.mask = 0;
                gone.values = [0.0; 16];
                reps.push(gone);
            }
        }
        let table = DecompositionTable::build(&TemplateSet::table_v_set(0));
        let spliced_m = m.spliced(&reps, &table).unwrap();
        assert_eq!(spliced_m.to_bytes(), fresh_m.to_bytes());

        let spt = 32 / 4;
        let touched: Vec<(u32, u32)> = {
            let mut keys: Vec<_> = reps
                .iter()
                .map(|b| (b.sub_r / spt, b.sub_c / spt))
                .collect();
            keys.sort_unstable();
            keys.dedup();
            keys
        };
        let mut spliced_plan = plan.respliced(&spliced_m, m.tiles(), &touched).unwrap();
        assert_eq!(spliced_plan.version(), 1);

        let mut fresh_plan = acc.prepare(&fresh_m).unwrap();
        let x: Vec<f32> = (0..96).map(|i| ((i % 13) as f32) * 0.5 - 3.0).collect();
        let (mut got, mut want) = (vec![0.0f32; 96], vec![0.0f32; 96]);
        let got_rep = spliced_plan.run(&x, &mut got).unwrap().clone();
        let want_rep = fresh_plan.run(&x, &mut want).unwrap();
        assert_eq!(bits(&got), bits(&want));
        // Derived pricing state matches a fresh prepare too.
        assert_eq!(got_rep.cycles, want_rep.cycles);
        assert_eq!(got_rep.per_group_cycles, want_rep.per_group_cycles);
        assert_eq!(
            spliced_plan.memory_bytes(),
            fresh_plan.memory_bytes(),
            "memory repriced to the spliced stream"
        );
    }

    #[test]
    fn respliced_rejects_shape_changes() {
        let m = encode(&sample(40), 16);
        let acc = Accelerator::new(HwConfig::spasm_4_1());
        let plan = acc.prepare(&m).unwrap();
        let other = encode(&sample(44), 16);
        assert!(matches!(
            plan.respliced(&other, m.tiles(), &[]),
            Err(SimError::Plan(_))
        ));
    }

    #[test]
    fn plan_matches_run_bit_for_bit() {
        let coo = sample(100);
        let x: Vec<f32> = (0..100).map(|i| (i as f32) * 0.25 - 10.0).collect();
        for tile in [16u32, 64, 256] {
            let m = encode(&coo, tile);
            let acc = Accelerator::new(HwConfig::spasm_4_1());
            let mut want = vec![0.5f32; 100];
            let want_rep = acc.run(&m, &x, &mut want).unwrap();

            let mut plan = acc.prepare(&m).unwrap();
            let mut got = vec![0.5f32; 100];
            let got_rep = plan.run(&x, &mut got).unwrap();
            assert_eq!(
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "tile {tile}"
            );
            assert_eq!(*got_rep, want_rep, "tile {tile}");
            assert_eq!(*plan.report(), want_rep);
        }
    }

    #[test]
    fn plan_reuse_does_not_drift() {
        let coo = sample(64);
        let m = encode(&coo, 32);
        let acc = Accelerator::new(HwConfig::spasm_3_2());
        let mut plan = acc.prepare(&m).unwrap();
        let x: Vec<f32> = (0..64).map(|i| ((i % 9) as f32) * 0.5 - 2.0).collect();
        let mut first = vec![0.25f32; 64];
        plan.run(&x, &mut first).unwrap();
        for _ in 0..10 {
            let mut y = vec![0.25f32; 64];
            plan.run(&x, &mut y).unwrap();
            assert_eq!(
                y.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                first.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    fn bits(y: &[f32]) -> Vec<u32> {
        y.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn run_batch_matches_looped_run_bit_for_bit() {
        let coo = sample(100);
        for tile in [16u32, 64] {
            let m = encode(&coo, tile);
            let acc = Accelerator::new(HwConfig::spasm_4_1());
            for batch in [1usize, 2, 3, 8] {
                let xs: Vec<Vec<f32>> = (0..batch)
                    .map(|j| {
                        (0..100)
                            .map(|i| (i as f32) * 0.25 - 2.0 * j as f32)
                            .collect()
                    })
                    .collect();
                let mut plan = acc.prepare(&m).unwrap();
                let mut want: Vec<Vec<f32>> =
                    (0..batch).map(|j| vec![0.25 * j as f32; 100]).collect();
                for (x, y) in xs.iter().zip(want.iter_mut()) {
                    plan.run(x, y).unwrap();
                }
                let mut got: Vec<Vec<f32>> =
                    (0..batch).map(|j| vec![0.25 * j as f32; 100]).collect();
                let rep = plan.run_batch(&xs, &mut got).unwrap();
                let b = rep.batch.expect("batched run must stamp a BatchReport");
                assert_eq!(b.vectors, batch);
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(bits(g), bits(w), "tile {tile} batch {batch}");
                }
            }
        }
    }

    #[test]
    fn run_batch_validates_shapes_up_front() {
        let m = encode(&sample(16), 16);
        let mut plan = Accelerator::new(HwConfig::spasm_4_1()).prepare(&m).unwrap();
        let xs = vec![vec![1.0f32; 16], vec![2.0f32; 16]];
        // Batch length mismatch.
        let mut ys = vec![vec![0.0f32; 16]];
        assert!(matches!(
            plan.run_batch(&xs, &mut ys),
            Err(SimError::DimensionMismatch {
                operand: "batch",
                ..
            })
        ));
        // A bad vector in the middle: the error names it, nothing is
        // written.
        let xs_bad = vec![vec![1.0f32; 16], vec![2.0f32; 3]];
        let mut ys = vec![vec![0.5f32; 16], vec![0.5f32; 16]];
        assert!(matches!(
            plan.run_batch(&xs_bad, &mut ys),
            Err(SimError::BatchDimensionMismatch {
                vector: 1,
                expected: 16,
                actual: 3,
                operand: "x",
            })
        ));
        let mut ys_bad = vec![vec![0.5f32; 16], vec![0.5f32; 3]];
        assert!(matches!(
            plan.run_batch(&xs, &mut ys_bad),
            Err(SimError::BatchDimensionMismatch {
                vector: 1,
                operand: "y",
                ..
            })
        ));
        for y in ys.iter().chain(&ys_bad) {
            assert!(y.iter().all(|&v| v == 0.5), "partial write on error");
        }
    }

    #[test]
    fn memory_bytes_accounts_for_stream_and_scratch() {
        let m = encode(&sample(64), 32);
        let mut plan = Accelerator::new(HwConfig::spasm_4_1()).prepare(&m).unwrap();
        let base = plan.memory_bytes();
        // At minimum the shared value stream and the padded scratch are in
        // the figure.
        assert!(base >= m.values().len() * 4 + 2 * 64 * 4, "base = {base}");
        // Batched scratch grows on first use and is then accounted for.
        let xs = vec![vec![1.0f32; 64]; 4];
        let mut ys = vec![vec![0.0f32; 64]; 4];
        plan.run_batch(&xs, &mut ys).unwrap();
        assert!(plan.memory_bytes() > base);
    }

    #[test]
    fn run_batch_handles_empty_batch_and_empty_matrix() {
        let m = encode(&sample(16), 16);
        let mut plan = Accelerator::new(HwConfig::spasm_4_1()).prepare(&m).unwrap();
        let xs: Vec<Vec<f32>> = Vec::new();
        let mut ys: Vec<Vec<f32>> = Vec::new();
        let rep = plan.run_batch(&xs, &mut ys).unwrap();
        let b = rep.batch.unwrap();
        assert_eq!(b.vectors, 0);
        assert_eq!(b.cycles, crate::timing::INIT_CYCLES);

        let empty = encode(&Coo::new(8, 8), 8);
        let mut plan = Accelerator::new(HwConfig::spasm_4_1())
            .prepare(&empty)
            .unwrap();
        let xs = vec![vec![1.0f32; 8]; 3];
        let mut ys = vec![vec![0.0f32; 8]; 3];
        plan.run_batch(&xs, &mut ys).unwrap();
        assert!(ys.iter().all(|y| y.iter().all(|&v| v == 0.0)));
    }

    #[test]
    fn batch_report_amortises_init_and_matrix_traffic() {
        let m = encode(&sample(64), 32);
        let mut plan = Accelerator::new(HwConfig::spasm_4_1()).prepare(&m).unwrap();
        let single = plan.report().clone();
        let xs = vec![vec![1.0f32; 64]; 8];
        let mut ys = vec![vec![0.0f32; 64]; 8];
        let rep = plan.run_batch(&xs, &mut ys).unwrap().clone();
        let b = rep.batch.unwrap();
        assert_eq!(
            b.cycles,
            crate::timing::batch_cycles(single.cycles, 8),
            "batch pricing"
        );
        assert!(b.amortised_cycles_per_vector < single.cycles as f64);
        assert_eq!(b.traffic.matrix, single.traffic.matrix);
        assert_eq!(b.traffic.x, single.traffic.x * 8);
        assert_eq!(b.traffic.y, single.traffic.y * 8);
        // A subsequent single run clears the batch stamp.
        let mut y = vec![0.0f32; 64];
        let rep = plan.run(&vec![1.0f32; 64], &mut y).unwrap();
        assert!(rep.batch.is_none());
    }

    #[test]
    fn plan_shares_matrix_value_stream() {
        let m = encode(&sample(64), 32);
        let acc = Accelerator::new(HwConfig::spasm_4_1());
        let plan = acc.prepare(&m).unwrap();
        assert!(std::sync::Arc::ptr_eq(
            plan.shared_values()
                .expect("prepared plans own their values"),
            m.shared_values()
        ));
        let clone = plan.clone();
        assert!(std::sync::Arc::ptr_eq(
            clone.shared_values().expect("clone stays owned"),
            plan.shared_values().expect("original stays owned")
        ));
    }

    /// Runs `f` under a `threads`-wide worker budget.
    fn with_budget<R>(threads: usize, f: impl FnOnce() -> R) -> R {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(f)
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn targeted_faults_strike_exactly_one_batch_vector() {
        use crate::fault::{FaultPlan, FaultSpec};
        let coo = sample(64);
        let m = encode(&coo, 16);
        let acc = Accelerator::new(HwConfig::spasm_4_1());
        let xs: Vec<Vec<f32>> = (0..3)
            .map(|j| (0..64).map(|i| (i + j) as f32 * 0.5).collect())
            .collect();

        let mut clean_plan = acc.prepare(&m).unwrap();
        let mut clean = vec![vec![0.0f32; 64]; 3];
        clean_plan.run_batch(&xs, &mut clean).unwrap();

        let lanes_stuck = FaultSpec {
            lane_faults: 4,
            ..FaultSpec::default()
        };
        let mixed = FaultSpec {
            encoding_flips: 3,
            value_flips: 3,
            lane_faults: 1,
            channel_stalls: 2,
        };
        for budget in [1usize, 2, 7] {
            with_budget(budget, || {
                let mut plan = acc.prepare(&m).unwrap();
                plan.arm_faults_for_vector(
                    FaultPlan::seeded(9, &lanes_stuck, plan.n_instances()),
                    1,
                );
                let mut ys = vec![vec![0.0f32; 64]; 3];
                plan.run_batch(&xs, &mut ys).unwrap();
                assert_eq!(bits(&ys[0]), bits(&clean[0]), "lane 0 must stay pristine");
                assert_eq!(bits(&ys[2]), bits(&clean[2]), "lane 2 must stay pristine");
                assert_ne!(
                    bits(&ys[1]),
                    bits(&clean[1]),
                    "all-lane fault on the target must corrupt it"
                );
                assert_eq!(plan.active_lane(), 0, "lane restored after the batch");

                // Targeted and untargeted plans: the batch must reproduce
                // looped single-vector runs acting for each lane — output
                // bits and the summed injection health alike.
                for target in [Some(1usize), None] {
                    let faults = FaultPlan::seeded(11, &mixed, plan.n_instances());
                    match target {
                        Some(v) => plan.arm_faults_for_vector(faults, v),
                        None => plan.arm_faults(faults),
                    }
                    let mut batched = vec![vec![0.25f32; 64]; 3];
                    let health = plan.run_batch(&xs, &mut batched).unwrap().health;
                    let mut looped = vec![vec![0.25f32; 64]; 3];
                    let (mut injected, mut stalls) = (0u32, 0u64);
                    for (j, (x, y)) in xs.iter().zip(looped.iter_mut()).enumerate() {
                        plan.set_active_lane(j);
                        let h = plan.run(x, y).unwrap().health;
                        injected += h.faults_injected;
                        stalls += h.stall_cycles;
                    }
                    plan.set_active_lane(0);
                    for (j, (b, l)) in batched.iter().zip(&looped).enumerate() {
                        assert_eq!(
                            bits(b),
                            bits(l),
                            "{target:?} vector {j} at {budget} workers"
                        );
                    }
                    assert_eq!(health.faults_injected, injected, "{target:?} at {budget}");
                    assert_eq!(health.stall_cycles, stalls, "{target:?} at {budget}");
                    assert!(injected > 0);
                }
            });
        }
    }

    #[test]
    fn plan_checks_dimensions() {
        let m = encode(&sample(16), 16);
        let mut plan = Accelerator::new(HwConfig::spasm_3_2()).prepare(&m).unwrap();
        let mut y = vec![0.0f32; 16];
        assert!(matches!(
            plan.run(&[1.0; 4], &mut y),
            Err(SimError::DimensionMismatch { operand: "x", .. })
        ));
        let mut y_bad = vec![0.0f32; 4];
        assert!(matches!(
            plan.run(&[1.0; 16], &mut y_bad),
            Err(SimError::DimensionMismatch { operand: "y", .. })
        ));
    }

    #[test]
    fn plan_exposes_prepared_state() {
        let m = encode(&sample(64), 16);
        let cfg = HwConfig::spasm_4_1();
        let plan = Accelerator::new(cfg.clone()).prepare(&m).unwrap();
        assert_eq!(plan.config(), &cfg);
        assert_eq!(plan.rows(), 64);
        assert_eq!(plan.cols(), 64);
        assert_eq!(plan.tile_size(), 16);
        assert_eq!(plan.n_instances(), m.n_instances());
        assert_eq!(plan.assignment().len(), cfg.num_pe_groups as usize);
        assert!(plan.n_tile_rows() > 0);
    }

    #[test]
    fn empty_matrix_plan_runs() {
        let m = encode(&Coo::new(8, 8), 8);
        let mut plan = Accelerator::new(HwConfig::spasm_4_1()).prepare(&m).unwrap();
        let mut y = vec![0.0f32; 8];
        let rep = plan.run(&[1.0; 8], &mut y).unwrap().clone();
        assert_eq!(y, vec![0.0; 8]);
        assert_eq!(rep.cycles, crate::timing::INIT_CYCLES);
        assert_eq!(plan.n_tile_rows(), 0);
    }

    #[test]
    fn deferred_run_and_commit_match_run() {
        let coo = sample(100);
        let m = encode(&coo, 32);
        let acc = Accelerator::new(HwConfig::spasm_4_1());
        let x: Vec<f32> = (0..100).map(|i| (i as f32) * 0.25 - 10.0).collect();

        let mut plan = acc.prepare(&m).unwrap();
        let mut want = vec![0.5f32; 100];
        plan.run(&x, &mut want).unwrap();

        for scope in [VerifyScope::None, VerifyScope::All] {
            let mut got = vec![0.5f32; 100];
            let health = plan.run_deferred(&x, scope).unwrap();
            assert!(health.is_clean());
            assert_eq!(health.tile_rows_quarantined, 0);
            plan.commit(&mut got).unwrap();
            assert_eq!(
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
        // Pristine executions verify all rows, quarantine none.
        let h = plan.run_deferred(&x, VerifyScope::All).unwrap();
        assert_eq!(h.tile_rows_verified as usize, plan.n_tile_rows());
        assert_eq!(plan.report().health, h);
    }

    #[test]
    fn contribution_reads_last_deferred_result() {
        let coo = sample(64);
        let m = encode(&coo, 16);
        let mut plan = Accelerator::new(HwConfig::spasm_4_1()).prepare(&m).unwrap();
        let x = vec![1.0f32; 64];
        let mut want = vec![0.0f32; 64];
        plan.run(&x, &mut want).unwrap();
        plan.run_deferred(&x, VerifyScope::None).unwrap();
        for (r, w) in want.iter().enumerate() {
            assert_eq!(plan.contribution(r).to_bits(), w.to_bits());
        }
        assert_eq!(plan.contribution(10_000), 0.0);
    }

    #[test]
    fn single_vector_entry_points_agree_around_an_unworked_tile_row() {
        // 600x600 at tile 256: tile rows 0 and 2 are worked, tile row 1
        // (rows 256..512) holds no entries and owns no window.
        let mut t = Vec::new();
        for i in (0..256u32).chain(512..600) {
            t.push((i, i, 1.5));
            t.push((i, (i * 11 + 5) % 600, -0.75));
            t.push((i, 599 - i, 0.125));
        }
        let m = encode(&Coo::from_triplets(600, 600, t).unwrap(), 256);
        let acc = Accelerator::new(HwConfig::spasm_4_1());
        let x: Vec<f32> = (0..600).map(|i| ((i % 17) as f32) * 0.25 - 2.0).collect();
        for budget in [1usize, 2, 7] {
            with_budget(budget, || {
                let mut plan = acc.prepare(&m).unwrap();
                assert_eq!(plan.n_tile_rows(), 2);
                let mut via_run = vec![0.0f32; 600];
                plan.run(&x, &mut via_run).unwrap();

                plan.run_deferred(&x, VerifyScope::All).unwrap();
                let contributions: Vec<f32> = (0..600).map(|r| plan.contribution(r)).collect();
                let mut via_commit = vec![0.0f32; 600];
                plan.commit(&mut via_commit).unwrap();
                assert_eq!(bits(&contributions), bits(&via_commit), "{budget} workers");
                for r in (256..512).chain([600, 601, 10_000]) {
                    assert_eq!(plan.contribution(r).to_bits(), 0.0f32.to_bits(), "row {r}");
                }

                let mut via_batch = vec![vec![0.0f32; 600]];
                plan.run_batch(&[&x], &mut via_batch).unwrap();
                assert_eq!(bits(&via_run), bits(&via_commit), "{budget} workers");
                assert_eq!(bits(&via_run), bits(&via_batch[0]), "{budget} workers");
            });
        }
    }

    #[test]
    fn tile_row_lookup_covers_windows() {
        let coo = sample(100);
        let m = encode(&coo, 32);
        let plan = Accelerator::new(HwConfig::spasm_4_1()).prepare(&m).unwrap();
        // Every matrix row with work maps to a tile-row index, and the
        // sample matrix works every tile row.
        for y_row in 0..100usize {
            let idx = plan.tile_row_index_containing(y_row).unwrap();
            assert!(idx < plan.n_tile_rows());
            assert_eq!(idx, y_row / 32);
        }
        assert_eq!(plan.tile_row_index_containing(10_000), None);
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn transient_stream_faults_are_detected_and_corrected() {
        use crate::fault::{FaultPlan, FaultSpec};
        let coo = sample(128);
        let m = encode(&coo, 32);
        let acc = Accelerator::new(HwConfig::spasm_4_1());
        let x: Vec<f32> = (0..128).map(|i| (i as f32) * 0.125 - 4.0).collect();

        let mut plan = acc.prepare(&m).unwrap();
        let mut clean = vec![0.0f32; 128];
        plan.run(&x, &mut clean).unwrap();

        let spec = FaultSpec {
            encoding_flips: 3,
            value_flips: 3,
            ..FaultSpec::default()
        };
        for seed in 0..16u64 {
            plan.arm_faults(FaultPlan::seeded(seed, &spec, plan.n_instances()));
            let h = plan.run_deferred(&x, VerifyScope::All).unwrap();
            assert_eq!(h.faults_injected, 6, "seed {seed}");
            // Transient faults always heal: the retry reads the pristine
            // stream. (A fault may have no observable effect — e.g. a
            // CE/RE-bit flip — in which case nothing is quarantined.)
            assert_eq!(h.tile_rows_uncorrected, 0, "seed {seed}");
            assert_eq!(h.tile_rows_corrected, h.tile_rows_quarantined);
            let mut y = vec![0.0f32; 128];
            plan.commit(&mut y).unwrap();
            assert_eq!(
                y.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                clean.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "seed {seed}: healed output must be bit-identical to clean"
            );
        }
        plan.disarm_faults();
        assert!(plan.armed_faults().is_none());
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn persistent_lane_faults_stay_uncorrected() {
        use crate::fault::{FaultPlan, FaultSpec};
        let coo = sample(64);
        let m = encode(&coo, 16);
        let mut plan = Accelerator::new(HwConfig::spasm_4_1()).prepare(&m).unwrap();
        let x = vec![1.0f32; 64];
        let spec = FaultSpec {
            lane_faults: 4, // all four lanes stuck: corruption is certain
            ..FaultSpec::default()
        };
        plan.arm_faults(FaultPlan::seeded(9, &spec, plan.n_instances()));
        let h = plan.run_deferred(&x, VerifyScope::All).unwrap();
        assert!(h.tile_rows_quarantined > 0);
        assert_eq!(h.tile_rows_corrected, 0);
        assert_eq!(h.tile_rows_uncorrected, h.tile_rows_quarantined);
        assert!(h.needs_fallback());
        assert!(h.first_failed_tile_row.is_some());
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn unverified_run_reports_injection_but_not_detection() {
        use crate::fault::{FaultPlan, FaultSpec};
        let coo = sample(64);
        let m = encode(&coo, 64);
        let mut plan = Accelerator::new(HwConfig::spasm_4_1()).prepare(&m).unwrap();
        let spec = FaultSpec {
            channel_stalls: 2,
            ..FaultSpec::default()
        };
        plan.arm_faults(FaultPlan::seeded(3, &spec, plan.n_instances()));
        let x = vec![1.0f32; 64];
        let mut y = vec![0.0f32; 64];
        let rep = plan.run(&x, &mut y).unwrap();
        assert_eq!(rep.health.faults_injected, 2);
        assert!(rep.health.stall_cycles > 0);
        // Stalls are timing-only: the data is untouched.
        assert_eq!(rep.health.tile_rows_quarantined, 0);
    }

    #[test]
    fn verify_scope_rows_subset() {
        let coo = sample(100);
        let m = encode(&coo, 32);
        let mut plan = Accelerator::new(HwConfig::spasm_4_1()).prepare(&m).unwrap();
        let x = vec![1.0f32; 100];
        let h = plan
            .run_deferred(&x, VerifyScope::TileRows(&[0, 2, 99]))
            .unwrap();
        // Row 99 is out of range and ignored; 0 and 2 verify clean.
        assert_eq!(h.tile_rows_verified, 2);
        assert!(h.is_clean());
    }
}
