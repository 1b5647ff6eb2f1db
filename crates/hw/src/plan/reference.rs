//! The per-instance reference walk: one enum-dispatched
//! [`ValuOpcode::execute`] per instance, accumulated in stream order — the
//! datapath the class kernels restructure, kept as the oracle they are
//! checked against.
//!
//! [`process_span`] re-computes every tile row
//! [`ExecutionPlan::run_deferred`] verifies, and
//! [`ExecutionPlan::run_batch_reference`] exposes the same walk as a
//! serial, scalar batch run for differential tests and baseline
//! benchmarks.

use super::ExecutionPlan;
use crate::integrity::HealthReport;
use crate::sim::{ExecReport, SimError};
use crate::valu::ValuOpcode;

impl ExecutionPlan {
    /// Executes `ys[j] += A·xs[j]` through the per-instance reference
    /// walk: serial, scalar, tile rows outermost and vectors innermost.
    ///
    /// Bit-identical to [`ExecutionPlan::run_batch`] — the class kernels
    /// replay this walk's accumulation order exactly — so differential
    /// tests use it as the oracle, and benchmarks as the baseline the
    /// kernels are measured against. It reuses the plan's pad and commit
    /// scratch (no per-call allocation at a fixed batch size), stamps the
    /// same [`BatchReport`](crate::BatchReport), and is never struck by
    /// armed faults.
    ///
    /// # Errors
    ///
    /// As [`ExecutionPlan::check_batch`]; on error no output is touched.
    pub fn run_batch_reference<X, Y>(
        &mut self,
        xs: &[X],
        ys: &mut [Y],
    ) -> Result<&ExecReport, SimError>
    where
        X: AsRef<[f32]>,
        Y: AsMut<[f32]>,
    {
        self.check_batch(xs, ys)?;
        let batch = xs.len();
        self.load(xs);
        let xstride = self.xstride();
        for (r, &(i0, i1)) in self.inst_ranges.iter().enumerate() {
            let (w0, w1) = self.window_spans[r];
            let wlen = w1 - w0;
            let base = self.window_prefix[r] * batch;
            for j in 0..batch {
                process_span(
                    &self.x_base,
                    &self.y_base,
                    &self.op_idx,
                    &self.lut,
                    &self.values,
                    &self.xb[j * xstride..(j + 1) * xstride],
                    &mut self.yb[base + j * wlen..base + (j + 1) * wlen],
                    i0,
                    i1,
                );
            }
        }
        self.commit_into(ys);
        self.report.health = HealthReport::default();
        self.stamp_batch(batch);
        Ok(&self.report)
    }
}

/// Instances `[i0, i1)` of one tile row, accumulated into the row's y
/// window in stream order. Pure SoA reads — the 1-byte class index
/// selects the opcode from the portfolio LUT.
#[allow(clippy::too_many_arguments)]
pub(super) fn process_span(
    x_base: &[u32],
    y_base: &[u32],
    op_idx: &[u8],
    lut: &[ValuOpcode],
    values: &[f32],
    xp: &[f32],
    window: &mut [f32],
    i0: usize,
    i1: usize,
) {
    for i in i0..i1 {
        let c0 = x_base[i] as usize;
        let x_seg = [xp[c0], xp[c0 + 1], xp[c0 + 2], xp[c0 + 3]];
        let v = [
            values[4 * i],
            values[4 * i + 1],
            values[4 * i + 2],
            values[4 * i + 3],
        ];
        let out = lut[op_idx[i] as usize].execute(v, x_seg);
        let r0 = y_base[i] as usize;
        // Same accumulation order as `Pe::process_instance`.
        window[r0] += out[0];
        window[r0 + 1] += out[1];
        window[r0 + 2] += out[2];
        window[r0 + 3] += out[3];
    }
}
