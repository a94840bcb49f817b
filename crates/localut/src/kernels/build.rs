//! Method-to-kernel construction — the single place a [`Method`] is
//! matched to a concrete [`LutKernel`] implementor.
//!
//! Everything above this point (the engine, the runtime executor)
//! dispatches through the trait; only construction needs to know which
//! struct realizes which design point, and that match lives here exactly
//! once.

use super::{BankKernel, LcKernel, LtcKernel, NaiveKernel, OpKernel, RcKernel, SharedLuts};
use crate::gemm::{GemmConfig, GemmDims, Method};
use crate::plan::{ExecutionPlan, Placement, Planner};
use crate::LocaLutError;
use quant::NumericFormat;
use std::sync::Arc;

impl BankKernel {
    /// Constructs the kernel `method` would use for a GEMM of `dims`,
    /// building shared LUT images once where the method uses them.
    ///
    /// For [`Method::LoCaLut`] the §V-A planner runs on the **full**
    /// dimensions, so every bank of a sharded run executes the same
    /// placement and packing degree the serial path would.
    ///
    /// # Errors
    ///
    /// Format, budget, or planning errors (see [`LocaLutError`]).
    pub fn build(
        cfg: &GemmConfig,
        method: Method,
        wf: NumericFormat,
        af: NumericFormat,
        dims: GemmDims,
    ) -> Result<Self, LocaLutError> {
        Self::build_with(cfg, method, wf, af, dims, |wf, af, p, _| {
            SharedLuts::build(wf, af, p)
        })
    }

    /// [`BankKernel::build`] with an injected LUT source: wherever the
    /// method needs shared images, `luts_for(wf, af, p, placement)` is
    /// asked for them instead of [`SharedLuts::build`]. This keeps the
    /// method dispatch and planning in exactly one place while letting a
    /// serving layer substitute a cache — the returned kernel is
    /// otherwise identical to `build`'s.
    ///
    /// # Errors
    ///
    /// Format, budget, or planning errors, plus whatever `luts_for`
    /// reports.
    pub fn build_with(
        cfg: &GemmConfig,
        method: Method,
        wf: NumericFormat,
        af: NumericFormat,
        dims: GemmDims,
        luts_for: impl FnMut(
            NumericFormat,
            NumericFormat,
            u32,
            Placement,
        ) -> Result<SharedLuts, LocaLutError>,
    ) -> Result<Self, LocaLutError> {
        Self::build_planned(cfg, method, wf, af, dims, luts_for, |dims, wf, af, k| {
            Planner::new(cfg.dpu.clone()).plan(dims, wf, af, k)
        })
    }

    /// [`BankKernel::build_with`] with the §V-A planning step injected as
    /// well: where [`Method::LoCaLut`] needs an [`ExecutionPlan`],
    /// `plan_for(dims, wf, af, k_slices)` is asked for it instead of
    /// running [`Planner::plan`] directly. A serving layer substitutes a
    /// memoized planner here; because planning is deterministic, a cached
    /// plan must equal a recomputed one and the returned kernel is
    /// identical to `build`'s.
    ///
    /// # Errors
    ///
    /// Format, budget, or planning errors, plus whatever `luts_for` or
    /// `plan_for` report.
    pub fn build_planned(
        cfg: &GemmConfig,
        method: Method,
        wf: NumericFormat,
        af: NumericFormat,
        dims: GemmDims,
        mut luts_for: impl FnMut(
            NumericFormat,
            NumericFormat,
            u32,
            Placement,
        ) -> Result<SharedLuts, LocaLutError>,
        plan_for: impl FnOnce(
            GemmDims,
            NumericFormat,
            NumericFormat,
            Option<u32>,
        ) -> Result<ExecutionPlan, LocaLutError>,
    ) -> Result<Self, LocaLutError> {
        match method {
            Method::NaivePim => Ok(BankKernel::new(NaiveKernel::new(cfg.dpu.clone(), wf, af))),
            Method::Ltc => Ok(BankKernel::new(LtcKernel::new(cfg.dpu.clone(), wf, af))),
            Method::Op => Ok(BankKernel::new(OpKernel::auto(cfg.dpu.clone(), wf, af)?)),
            Method::OpLc => Ok(BankKernel::new(LcKernel::auto(cfg.dpu.clone(), wf, af)?)),
            Method::OpLcRc => {
                let kernel = RcKernel::auto(cfg.dpu.clone(), wf, af)?;
                let luts = luts_for(wf, af, kernel.p(), Placement::BufferResident)?;
                Ok(BankKernel::with_shared_luts(kernel, luts))
            }
            Method::LoCaLut => {
                let plan = plan_for(dims, wf, af, Some(cfg.k_slices))?;
                let luts = luts_for(wf, af, plan.p, plan.placement)?;
                Ok(BankKernel {
                    kernel: Arc::from(plan.kernel(&cfg.dpu)?),
                    luts: Some(luts),
                })
            }
        }
    }
}
