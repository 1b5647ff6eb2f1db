//! Class-bucketed, data-parallel instance kernels — the SIMD-width hot
//! loop behind [`crate::ExecutionPlan`]'s one executor.
//!
//! The per-instance reference loop (`process_span` in the plan's
//! `reference` module, `plan/reference.rs`, kept as the verification
//! oracle and as [`crate::ExecutionPlan::run_batch_reference`]) simulates
//! the 4-lane VALU with scalar software: every instance re-dispatches
//! through its [`ValuOpcode`]'s output-mux enum, so the compiler sees an
//! opaque, branchy body and the branch predictor sees an
//! instance-dependent template mix. This module restructures the loop so
//! the work is data-parallel without changing a single output bit:
//!
//! 1. **Pattern-class bucketing (prepare time).** Each tile row's instance
//!    range is cut into fixed [`EXEC_BLOCK`]-instance blocks, and every
//!    block's indices are stably sorted by opcode class (the `u8` template
//!    LUT index). Within one class run the whole VALU configuration —
//!    x-mux selectors and output-node routing — is loop-invariant, so the
//!    kernel body is branch-free and autovectorizable.
//!
//! 2. **Compute/scatter split (run time).** A class run computes each
//!    instance's 4-lane output into a block-local staging buffer (indexed
//!    by the instance's *original* stream position); a second pass then
//!    folds the staged outputs into the y window in original stream
//!    order. Each instance's output is a pure function of its operands —
//!    identical bits in any execution order — and the scatter replays the
//!    exact accumulation sequence of the reference loop, so every non-NaN
//!    output of the window — signed zeros included — is **bit-identical**
//!    to the reference loop. No FMA contraction is used anywhere (`a*b`
//!    and `+` stay separate IEEE ops), so no ULP bound is needed. Which
//!    NaN payload an operation returns is not fixed by IEEE 754 or Rust,
//!    so a NaN output is only guaranteed to be NaN on both paths; the
//!    plan's integrity ladder treats two NaNs as agreeing.
//!
//! 3. **Batch-lane fusion.** The kernels take a lane count: one walk of an
//!    instance's metadata (bucket index, x base, value quadruple, class
//!    selectors) feeds up to [`LANE_BLOCK`] batch vectors before moving
//!    on. The plan's executor processes consecutive vectors of a tile row
//!    in blocks of up to [`LANE_BLOCK`] (a single-vector run is one
//!    1-lane block), which keeps the staging buffer L1-resident (the
//!    vector-blocked layout the large-batch bench measures).
//!
//! On x86_64, where SSE2 is part of the baseline, the class kernel's
//! datapath is written with explicit SSE2 intrinsics — a 4-wide multiply,
//! the two pair adders and the total adder as shuffles+adds, mirroring
//! the hardware's 4 multipliers + 3 adders. Lane-wise `mulps`/`addps`
//! round exactly like their scalar counterparts and the pair/total nodes
//! are read from lanes whose operand order matches the scalar tree, so
//! every non-NaN output is bit-identical to the scalar kernel (asserted
//! over every compilable template mask in this module's tests). Other
//! targets run the scalar class kernel.

use crate::valu::{OutNode, ValuOpcode};

/// Instances per execution block: the bucketing (and the staging buffer)
/// granule. 256 instances × 4 lanes × [`LANE_BLOCK`] vectors × 4 bytes =
/// 32 KiB of staging per worker — L1-resident on anything current.
pub const EXEC_BLOCK: usize = 256;

/// Batch vectors fused per instance walk. Bounds the staging footprint;
/// larger batches are processed in lane blocks of this size.
pub const LANE_BLOCK: usize = 8;

/// Staging floats one worker needs for any (block × lane-block) tile.
pub(crate) const STAGE_STRIDE: usize = 4 * EXEC_BLOCK * LANE_BLOCK;

/// One class-sorted run inside an execution block: instances
/// `bucket_idx[start..end]` all dispatch through opcode class `class`.
///
/// `#[repr(C)]` with u32 fields only (12 bytes, no padding) so the runs
/// table can be serialised to — and mapped back from — a wire-v3 section
/// verbatim.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassRun {
    /// First index into `bucket_idx` (inclusive).
    pub start: u32,
    /// Last index into `bucket_idx` (exclusive).
    pub end: u32,
    /// Opcode class (template LUT index) of every instance in the run.
    pub class: u32,
}

/// A [`ValuOpcode`] predigested for the branch-free class kernels: the
/// x-mux selectors as `usize` offsets and the output muxes as indices
/// into the 8-entry node array `[p0, p1, p2, p3, p0+p1, p2+p3, Σp, 0]`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ClassKernel {
    col: [usize; 4],
    sel: [usize; 4],
}

impl ClassKernel {
    pub(crate) fn from_opcode(op: ValuOpcode) -> Self {
        let cs = op.col_selectors();
        let col = [
            cs[0] as usize,
            cs[1] as usize,
            cs[2] as usize,
            cs[3] as usize,
        ];
        let os = op.out_selectors();
        let mut sel = [7usize; 4];
        for (s, &o) in sel.iter_mut().zip(os.iter()) {
            *s = match o {
                OutNode::Product(i) => i as usize,
                OutNode::Pair01 => 4,
                OutNode::Pair23 => 5,
                OutNode::Total => 6,
                OutNode::Zero => 7,
            };
        }
        ClassKernel { col, sel }
    }
}

/// Borrowed view of the plan's pre-decoded SoA instance stream, shared by
/// every kernel call (Copy so the parallel fan-out can move it into
/// scoped workers).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SoaRef<'a> {
    pub x_base: &'a [u32],
    pub y_base: &'a [u32],
    pub values: &'a [f32],
    pub kernels: &'a [ClassKernel],
}

/// Borrowed view of the prepare-time bucketing: block-wise class-sorted
/// instance indices plus the run/block/row directory over them.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BucketRef<'a> {
    /// Instance indices, block-wise stably sorted by class.
    pub bucket_idx: &'a [u32],
    /// Class-sorted runs into `bucket_idx`, in block order.
    pub class_runs: &'a [ClassRun],
    /// Per block: prefix of run counts into `class_runs` (len blocks+1).
    pub block_runs: &'a [u32],
    /// Per tile row: prefix of block counts (len rows+1).
    pub row_blocks: &'a [u32],
    /// Per tile row: instance span in the stream.
    pub inst_ranges: &'a [(usize, usize)],
}

/// The owned bucketing tables `build_buckets` produces:
/// `(bucket_idx, class_runs, block_runs, row_blocks)` as described on
/// [`BucketRef`].
pub(crate) type Buckets = (Vec<u32>, Vec<ClassRun>, Vec<u32>, Vec<u32>);

/// The prepare-time bucketing pass: cuts each tile row's instance span
/// into [`EXEC_BLOCK`]-sized blocks and stably sorts each block's indices
/// by opcode class.
pub(crate) fn build_buckets(inst_ranges: &[(usize, usize)], op_idx: &[u8]) -> Buckets {
    let n: usize = inst_ranges.iter().map(|&(i0, i1)| i1 - i0).sum();
    let mut bucket_idx: Vec<u32> = Vec::with_capacity(n);
    let mut class_runs: Vec<ClassRun> = Vec::new();
    let mut block_runs: Vec<u32> = vec![0];
    let mut row_blocks: Vec<u32> = Vec::with_capacity(inst_ranges.len() + 1);
    row_blocks.push(0);
    let mut scratch: Vec<u32> = Vec::with_capacity(EXEC_BLOCK);
    let mut n_blocks = 0u32;
    for &(i0, i1) in inst_ranges {
        let mut b0 = i0;
        while b0 < i1 {
            let b1 = (b0 + EXEC_BLOCK).min(i1);
            scratch.clear();
            scratch.extend((b0..b1).map(|i| i as u32));
            // Stable: equal classes keep their stream order, so the
            // scatter pass (which walks the original order) and this pass
            // agree on which instance is which.
            scratch.sort_by_key(|&i| op_idx[i as usize]);
            let base = bucket_idx.len() as u32;
            let mut run_start = 0usize;
            for k in 1..=scratch.len() {
                let boundary = k == scratch.len()
                    || op_idx[scratch[k] as usize] != op_idx[scratch[run_start] as usize];
                if boundary {
                    class_runs.push(ClassRun {
                        start: base + run_start as u32,
                        end: base + k as u32,
                        class: u32::from(op_idx[scratch[run_start] as usize]),
                    });
                    run_start = k;
                }
            }
            bucket_idx.extend_from_slice(&scratch);
            block_runs.push(class_runs.len() as u32);
            n_blocks += 1;
            b0 = b1;
        }
        row_blocks.push(n_blocks);
    }
    (bucket_idx, class_runs, block_runs, row_blocks)
}

/// Executes tile row `r` for `lanes` batch vectors (`lanes == 1` is the
/// single-vector path) through the class-bucketed two-pass kernel.
///
/// * `xs` holds padded x vectors at stride `xstride`; the call reads lanes
///   `lane0..lane0 + lanes`.
/// * `windows` holds the `lanes` y windows back to back, each `wlen` long
///   (the packed batch layout; a single `run` passes its one window).
/// * `stage` must be at least [`STAGE_STRIDE`] floats; contents are
///   scratch, fully overwritten per block before being read.
///
/// The per-lane accumulation order into every y element is original
/// stream order — bit-identical to the per-instance reference loop.
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute_row_classed(
    soa: SoaRef<'_>,
    buckets: BucketRef<'_>,
    r: usize,
    xs: &[f32],
    xstride: usize,
    lane0: usize,
    lanes: usize,
    windows: &mut [f32],
    wlen: usize,
    stage: &mut [f32],
) {
    debug_assert!((1..=LANE_BLOCK).contains(&lanes));
    debug_assert!(stage.len() >= STAGE_STRIDE);
    debug_assert!(windows.len() >= lanes * wlen);
    let (i0, i1) = buckets.inst_ranges[r];
    let b_lo = buckets.row_blocks[r] as usize;
    let b_hi = buckets.row_blocks[r + 1] as usize;
    let mut blk_i0 = i0;
    for b in b_lo..b_hi {
        let blk_i1 = (blk_i0 + EXEC_BLOCK).min(i1);
        for run in buckets.block_runs[b] as usize..buckets.block_runs[b + 1] as usize {
            let ClassRun {
                start: s,
                end: e,
                class,
            } = buckets.class_runs[run];
            let kern = soa.kernels[class as usize];
            let idx = &buckets.bucket_idx[s as usize..e as usize];
            compute_run(kern, idx, soa, xs, xstride, lane0, lanes, blk_i0, stage);
        }
        scatter_block(soa.y_base, blk_i0, blk_i1, lanes, stage, windows, wlen);
        blk_i0 = blk_i1;
    }
}

/// Pass 2: folds the staged per-instance outputs into the y windows in
/// original stream order — the accumulation sequence the reference loop
/// uses, replayed exactly.
fn scatter_block(
    y_base: &[u32],
    blk_i0: usize,
    blk_i1: usize,
    lanes: usize,
    stage: &[f32],
    windows: &mut [f32],
    wlen: usize,
) {
    for (k, &yb) in y_base[blk_i0..blk_i1].iter().enumerate() {
        let r0 = yb as usize;
        let sbase = k * lanes * 4;
        for l in 0..lanes {
            let s = &stage[sbase + 4 * l..sbase + 4 * l + 4];
            let w = &mut windows[l * wlen + r0..l * wlen + r0 + 4];
            w[0] += s[0];
            w[1] += s[1];
            w[2] += s[2];
            w[3] += s[3];
        }
    }
}

/// Pass 1 on targets without the SSE2 body: the scalar class run.
#[cfg(not(target_arch = "x86_64"))]
use compute_run_scalar as compute_run;

/// Pass 1 (x86_64): one class run with the VALU datapath as explicit
/// SSE2 — `mulps` for the 4 multipliers, two shuffle+`addps` stages for
/// the pair and total adders. Only lanes whose operand order matches the
/// scalar tree are read back (lane 0 of the pair vector is `p0+p1`, lane
/// 2 is `p2+p3`, lane 0 of the total is `(p0+p1)+(p2+p3)`), so every
/// non-NaN output is bit-identical to `compute_run_scalar`.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
fn compute_run(
    kern: ClassKernel,
    idx: &[u32],
    soa: SoaRef<'_>,
    xs: &[f32],
    xstride: usize,
    lane0: usize,
    lanes: usize,
    blk_i0: usize,
    stage: &mut [f32],
) {
    #[allow(unsafe_code)]
    // SAFETY: every index is validated at prepare time (`validate_stream`):
    // `x_base[i] + 4 <= xstride` for all instances, `4 * i + 4 <=
    // values.len()`, and the caller sizes `xs` to at least `(lane0 +
    // lanes) * xstride` and `stage` to `STAGE_STRIDE` (debug-asserted
    // here and in `execute_row_classed`). SSE2 is baseline on x86_64.
    unsafe {
        use core::arch::x86_64::*;
        debug_assert!(xs.len() >= (lane0 + lanes) * xstride);
        let [c0, c1, c2, c3] = kern.col;
        let [s0, s1, s2, s3] = kern.sel;
        for &ii in idx {
            let i = ii as usize;
            debug_assert!(4 * i + 4 <= soa.values.len());
            let v = _mm_loadu_ps(soa.values.as_ptr().add(4 * i));
            let cb = soa.x_base[i] as usize;
            debug_assert!(cb + 4 <= xstride);
            let sbase = (i - blk_i0) * lanes * 4;
            for l in 0..lanes {
                let xp = xs.as_ptr().add((lane0 + l) * xstride + cb);
                // The 4-to-1 x muxes: a gather of the selected x element
                // per multiplier (selectors are loop-invariant).
                let xseg = _mm_set_ps(*xp.add(c3), *xp.add(c2), *xp.add(c1), *xp.add(c0));
                let p = _mm_mul_ps(v, xseg);
                // Pair adders: lane 0 = p0+p1, lane 2 = p2+p3 (the other
                // lanes have reversed operand order and are never read).
                let swapped = _mm_shuffle_ps::<0b10_11_00_01>(p, p);
                let pair = _mm_add_ps(p, swapped);
                // Total adder: lane 0 = (p0+p1) + (p2+p3).
                let cross = _mm_shuffle_ps::<0b01_00_11_10>(pair, pair);
                let total = _mm_add_ps(pair, cross);
                let mut nodes = [0.0f32; 8];
                _mm_storeu_ps(nodes.as_mut_ptr(), p);
                nodes[4] = _mm_cvtss_f32(pair);
                nodes[5] = _mm_cvtss_f32(cross);
                nodes[6] = _mm_cvtss_f32(total);
                let out = &mut stage[sbase + 4 * l..sbase + 4 * l + 4];
                out[0] = nodes[s0];
                out[1] = nodes[s1];
                out[2] = nodes[s2];
                out[3] = nodes[s3];
            }
        }
    }
}

/// Pass 1 (scalar): one class run, branch-free. All selector state is
/// loop-invariant, every access pattern is affine in the bucket index, and
/// the 8-node mux is an indexed load from a stack array — no enum
/// dispatch in the body, so the compiler is free to unroll and
/// autovectorize. The only kernel on targets other than x86_64; on x86_64
/// it is compiled for tests only, as the reference for the SSE2 body.
#[cfg(any(test, not(target_arch = "x86_64")))]
#[allow(clippy::too_many_arguments)]
fn compute_run_scalar(
    kern: ClassKernel,
    idx: &[u32],
    soa: SoaRef<'_>,
    xs: &[f32],
    xstride: usize,
    lane0: usize,
    lanes: usize,
    blk_i0: usize,
    stage: &mut [f32],
) {
    let [c0, c1, c2, c3] = kern.col;
    let [s0, s1, s2, s3] = kern.sel;
    for &ii in idx {
        let i = ii as usize;
        let cb = soa.x_base[i] as usize;
        let v0 = soa.values[4 * i];
        let v1 = soa.values[4 * i + 1];
        let v2 = soa.values[4 * i + 2];
        let v3 = soa.values[4 * i + 3];
        let sbase = (i - blk_i0) * lanes * 4;
        for l in 0..lanes {
            let x = &xs[(lane0 + l) * xstride + cb..(lane0 + l) * xstride + cb + 4];
            let p0 = v0 * x[c0];
            let p1 = v1 * x[c1];
            let p2 = v2 * x[c2];
            let p3 = v3 * x[c3];
            let pair01 = p0 + p1;
            let pair23 = p2 + p3;
            let total = pair01 + pair23;
            let nodes = [p0, p1, p2, p3, pair01, pair23, total, 0.0];
            let out = &mut stage[sbase + 4 * l..sbase + 4 * l + 4];
            out[0] = nodes[s0];
            out[1] = nodes[s1];
            out[2] = nodes[s2];
            out[3] = nodes[s3];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_kernel_digests_every_node_kind() {
        // Column template: four single products.
        let op = ValuOpcode::compile(0b0010_0010_0010_0010).unwrap();
        let k = ClassKernel::from_opcode(op);
        assert_eq!(k.col, [1, 1, 1, 1]);
        assert_eq!(k.sel, [0, 1, 2, 3]);
        // Row template: total into one row, zeros elsewhere.
        let op = ValuOpcode::compile(0b1111).unwrap();
        let k = ClassKernel::from_opcode(op);
        assert_eq!(k.col, [0, 1, 2, 3]);
        assert_eq!(k.sel, [6, 7, 7, 7]);
        // 2x2 block: the two pair nodes.
        let op = ValuOpcode::compile(0b0011_0011).unwrap();
        let k = ClassKernel::from_opcode(op);
        assert_eq!(k.sel, [4, 5, 7, 7]);
    }

    /// The SSE2 class kernel against the scalar one, over every template
    /// mask the VALU can compile, every lane count and a value set full of
    /// IEEE 754 edge cases: identical bits on every non-NaN output, and NaN
    /// exactly where the other kernel gives NaN (payloads may differ).
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sse2_kernel_matches_scalar_on_every_mask_and_lane_count() {
        const SPECIALS: [u32; 10] = [
            0x7fc0_0001,             // quiet NaN, payload 1
            0xffc1_2345,             // negative quiet NaN, payload 0x12345
            0x7f80_0001,             // signalling NaN
            0x0000_0000,             // +0.0
            0x8000_0000,             // -0.0
            0x7f80_0000,             // +inf
            0xff80_0000,             // -inf
            0x0000_0001,             // smallest subnormal
            0x3fc0_0000,             // 1.5
            (-3.25e38f32).to_bits(), // near -f32::MAX
        ];
        // Deterministic draws over SPECIALS; the multiplier spreads
        // consecutive slots across the whole set.
        let pick = |k: usize| f32::from_bits(SPECIALS[k * 7919 % 9973 % SPECIALS.len()]);
        const INSTANCES: usize = 16;
        let xstride = 4 * INSTANCES;
        let values: Vec<f32> = (0..4 * INSTANCES).map(pick).collect();
        let xs: Vec<f32> = (0..LANE_BLOCK * xstride).map(|k| pick(k + 1000)).collect();
        let x_base: Vec<u32> = (0..INSTANCES as u32).map(|i| 4 * i).collect();
        let y_base = vec![0u32; INSTANCES];
        let idx: Vec<u32> = (0..INSTANCES as u32).collect();

        let (mut masks, mut outputs, mut nans) = (0usize, 0usize, 0usize);
        let mut sse2 = vec![0.0f32; STAGE_STRIDE];
        let mut scalar = vec![0.0f32; STAGE_STRIDE];
        for mask in 1..=u16::MAX {
            let Ok(op) = ValuOpcode::compile(mask) else {
                continue;
            };
            masks += 1;
            let kern = ClassKernel::from_opcode(op);
            let kernels = [kern];
            let soa = SoaRef {
                x_base: &x_base,
                y_base: &y_base,
                values: &values,
                kernels: &kernels,
            };
            for lanes in 1..=LANE_BLOCK {
                let lane0 = (mask as usize) % (LANE_BLOCK - lanes + 1);
                compute_run(kern, &idx, soa, &xs, xstride, lane0, lanes, 0, &mut sse2);
                compute_run_scalar(kern, &idx, soa, &xs, xstride, lane0, lanes, 0, &mut scalar);
                let n = INSTANCES * lanes * 4;
                for (k, (a, b)) in sse2[..n].iter().zip(&scalar[..n]).enumerate() {
                    assert_eq!(
                        a.is_nan(),
                        b.is_nan(),
                        "mask {mask:#06x} lanes {lanes} slot {k}"
                    );
                    if a.is_nan() {
                        nans += 1;
                    } else {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "mask {mask:#06x} lanes {lanes} slot {k}: {a} vs {b}"
                        );
                    }
                }
                outputs += n;
            }
        }
        assert_eq!(masks, 1244, "every compilable 4-cell template mask");
        assert!(
            nans > 0 && nans < outputs,
            "the draw must mix NaN and non-NaN outputs"
        );
    }

    #[test]
    fn buckets_partition_blocks_and_sort_by_class() {
        // One row of 600 instances with interleaved classes 2,0,1,...
        let op_idx: Vec<u8> = (0..600u32).map(|i| ((i * 7 + 2) % 3) as u8).collect();
        let ranges = [(0usize, 600usize)];
        let (bucket_idx, class_runs, block_runs, row_blocks) = build_buckets(&ranges, &op_idx);
        assert_eq!(row_blocks, vec![0, 3]); // 256 + 256 + 88
        assert_eq!(bucket_idx.len(), 600);
        for b in 0..3usize {
            let (blk_i0, blk_i1) = (b * EXEC_BLOCK, ((b + 1) * EXEC_BLOCK).min(600));
            let mut seen: Vec<u32> = bucket_idx[blk_i0..blk_i1].to_vec();
            seen.sort_unstable();
            assert_eq!(
                seen,
                (blk_i0 as u32..blk_i1 as u32).collect::<Vec<_>>(),
                "block {b} must be a permutation of its instance range"
            );
            // Runs cover the block contiguously, classes ascending, and
            // indices inside a run ascending (stability).
            let runs = &class_runs[block_runs[b] as usize..block_runs[b + 1] as usize];
            let mut cursor = blk_i0 as u32;
            let mut last_class = None;
            for &ClassRun {
                start: s,
                end: e,
                class: c,
            } in runs
            {
                assert_eq!(s, cursor);
                assert!(e > s);
                cursor = e;
                assert!(last_class < Some(c), "classes must strictly ascend");
                last_class = Some(c);
                let run = &bucket_idx[s as usize..e as usize];
                assert!(run.windows(2).all(|w| w[0] < w[1]), "stable within class");
                assert!(run.iter().all(|&i| u32::from(op_idx[i as usize]) == c));
            }
            assert_eq!(cursor, blk_i1 as u32);
        }
    }
}
