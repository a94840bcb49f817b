//! The "OP+LC+RC" design point (§IV-B): canonical LUT + reordering LUT,
//! both buffer-resident.
//!
//! The software reorder of OP+LC collapses into a single reordering-LUT
//! access; a full lookup is the profiled 12-instruction composite
//! (`L_local`): index calc, reordering access, canonical access,
//! accumulate. This is also the buffer-resident arm of the §IV-D placement
//! decision.

use crate::capacity::{localut_bytes, max_p_localut};
use crate::codes::{ActivationPanel, PackedCodes};
use crate::gemm::{GemmDims, GemmResult, Method};
use crate::kernels::{
    charge_operand_input, charge_output, check_bands, gather_tiles, pad_code_for, require_integer,
    LutKernel, SharedLuts, N_TILE,
};
use crate::LocaLutError;
use pim_sim::{Category, Dpu, DpuConfig, Profile};
use quant::{NumericFormat, QMatrix};

/// The buffer-resident canonical + reordering LUT kernel.
#[derive(Debug, Clone)]
pub struct RcKernel {
    cfg: DpuConfig,
    wf: NumericFormat,
    af: NumericFormat,
    p: u32,
}

impl RcKernel {
    /// Creates the kernel with the largest `p` whose canonical + reordering
    /// LUTs both fit the WRAM LUT budget (§V-A: `p_local = 5` at W1A3).
    ///
    /// # Errors
    ///
    /// [`LocaLutError::BudgetExceeded`] when not even `p = 1` fits, or
    /// format errors.
    pub fn auto(
        cfg: DpuConfig,
        wf: NumericFormat,
        af: NumericFormat,
    ) -> Result<Self, LocaLutError> {
        require_integer(wf, af)?;
        let budget = cfg.wram_lut_budget();
        let p = max_p_localut(wf, af, budget);
        if p == 0 {
            return Err(LocaLutError::BudgetExceeded {
                required: localut_bytes(wf, af, 1).unwrap_or(u128::MAX),
                budget,
            });
        }
        Ok(RcKernel { cfg, wf, af, p })
    }

    /// Creates the kernel with an explicit packing degree.
    ///
    /// # Errors
    ///
    /// Format or degree errors.
    pub fn with_p(
        cfg: DpuConfig,
        wf: NumericFormat,
        af: NumericFormat,
        p: u32,
    ) -> Result<Self, LocaLutError> {
        require_integer(wf, af)?;
        if p == 0 {
            return Err(LocaLutError::InvalidPackingDegree(0));
        }
        Ok(RcKernel { cfg, wf, af, p })
    }

    /// The chosen packing degree.
    #[must_use]
    pub fn p(&self) -> u32 {
        self.p
    }

    fn lookups(&self, dims: GemmDims) -> u64 {
        dims.m as u64 * (dims.k as u64).div_ceil(u64::from(self.p)) * dims.n as u64
    }

    fn groups(&self, dims: GemmDims) -> u64 {
        (dims.k as u64).div_ceil(u64::from(self.p)) * dims.n as u64
    }

    /// One-time initialization cost: loading the canonical + reordering
    /// LUT images into WRAM (once at model load, §V-A — not per GEMM;
    /// Eq. 4 accordingly has no load term).
    #[must_use]
    pub fn setup_cost(&self) -> Profile {
        let mut dpu = Dpu::new(self.cfg.clone());
        let lut_bytes = localut_bytes(self.wf, self.af, self.p).unwrap_or(u128::MAX) as u64;
        dpu.charge_dram_stream(lut_bytes, Category::LutLoad);
        dpu.profile()
    }

    fn charge(&self, dims: GemmDims, dpu: &mut Dpu) {
        charge_operand_input(dpu, dims, self.wf.bits(), self.af.bits());
        // Permutation ids: one per group (p! ≤ 2^16 for p ≤ 8 → 2 bytes).
        dpu.charge_dram_stream(2 * self.groups(dims), Category::DataTransfer);
        // The profiled L_local composite per lookup.
        dpu.charge_lookup_accum(self.lookups(dims));
        charge_output(dpu, dims);
    }

    /// Analytic cost for the given dimensions.
    #[must_use]
    pub fn cost(&self, dims: GemmDims) -> Profile {
        let mut dpu = Dpu::new(self.cfg.clone());
        self.charge(dims, &mut dpu);
        dpu.profile()
    }

    /// Runs the GEMM through the canonical + reordering LUTs, building the
    /// LUT images locally.
    ///
    /// # Errors
    ///
    /// Shape, padding, or budget errors.
    pub fn run(&self, w: &QMatrix, a: &QMatrix) -> Result<GemmResult, LocaLutError> {
        // Validate operands before paying for the LUT build.
        self.validate_operands(w, a)?;
        let luts = SharedLuts::build(self.wf, self.af, self.p)?;
        self.run_with_luts(w, a, &luts)
    }

    /// Cheap operand checks shared by `run` and `run_with_luts`.
    fn validate_operands(&self, w: &QMatrix, a: &QMatrix) -> Result<GemmDims, LocaLutError> {
        let dims = GemmDims::of(w, a)?;
        if w.format() != self.wf || a.format() != self.af {
            return Err(LocaLutError::UnsupportedFormat(
                "operand formats differ from the kernel's configured formats",
            ));
        }
        pad_code_for(self.af, dims.k, self.p as usize)?;
        Ok(dims)
    }

    /// Runs the GEMM against prebuilt shared LUT images (see
    /// [`SharedLuts`]) — the entry point bank-parallel workers use so N
    /// banks share one read-only LUT build.
    ///
    /// The inner loops are blocked: both operands are bit-packed into
    /// group-major [`PackedCodes`] once, then each K-block resolves
    /// [`N_TILE`] activation columns to their canonical/reordering column
    /// slices (reused scratch, no per-group allocation) and one linear
    /// M-pass gathers the whole tile — contiguous packed-weight reads,
    /// contiguous output writes, and both LUT column slices hot in cache.
    ///
    /// # Errors
    ///
    /// Shape or padding errors, or [`LocaLutError::UnsupportedFormat`] when
    /// `luts` was built for a different `(wf, af, p)`.
    pub fn run_with_luts(
        &self,
        w: &QMatrix,
        a: &QMatrix,
        luts: &SharedLuts,
    ) -> Result<GemmResult, LocaLutError> {
        luts.check(self.wf, self.af, self.p)?;
        let dims = self.validate_operands(w, a)?;
        let pad = pad_code_for(self.af, dims.k, self.p as usize)?;
        let panel = ActivationPanel::resolve(a, self.p as usize, pad, luts.canonical())?;
        let weights = PackedCodes::pack_weight_rows(w, self.p as usize);
        self.run_with_panel(w, a, luts, &panel, &weights)
    }

    /// Runs against a pre-resolved [`ActivationPanel`] and prepacked
    /// weights (see [`LutKernel::run_with_panel`]) — the path banks of a
    /// sharded GEMM take, so the activation-side group resolution happens
    /// once per column band and the weight packing once per row band
    /// instead of once per bank.
    ///
    /// # Errors
    ///
    /// As [`RcKernel::run_with_luts`], plus
    /// [`LocaLutError::UnsupportedFormat`] when the panel's or the weight
    /// band's packed shape does not match the operands.
    pub fn run_with_panel(
        &self,
        w: &QMatrix,
        a: &QMatrix,
        luts: &SharedLuts,
        panel: &ActivationPanel,
        weights: &PackedCodes,
    ) -> Result<GemmResult, LocaLutError> {
        luts.check(self.wf, self.af, self.p)?;
        let dims = self.validate_operands(w, a)?;
        let p = self.p as usize;
        let pad = pad_code_for(self.af, dims.k, p)?;
        check_bands(panel, weights, (self.wf.bits(), self.af.bits()), p, dims)?;
        debug_assert_eq!(
            panel.packed(),
            &PackedCodes::pack_activation_columns(a, p, pad),
            "activation panel resolved from a different operand"
        );

        let values = gather_tiles(luts, panel, weights, dims, N_TILE);

        let mut dpu = Dpu::new(self.cfg.clone());
        self.charge(dims, &mut dpu);
        Ok(GemmResult {
            values,
            dims,
            profile: dpu.profile(),
        })
    }
}

impl LutKernel for RcKernel {
    fn method(&self) -> Method {
        Method::OpLcRc
    }

    fn p(&self) -> u32 {
        self.p
    }

    fn cost(&self, dims: GemmDims) -> Profile {
        RcKernel::cost(self, dims)
    }

    fn validate(&self, w: &QMatrix, a: &QMatrix) -> Result<GemmDims, LocaLutError> {
        self.validate_operands(w, a)
    }

    fn run(&self, w: &QMatrix, a: &QMatrix) -> Result<GemmResult, LocaLutError> {
        RcKernel::run(self, w, a)
    }

    fn run_with_luts(
        &self,
        w: &QMatrix,
        a: &QMatrix,
        luts: &SharedLuts,
    ) -> Result<GemmResult, LocaLutError> {
        RcKernel::run_with_luts(self, w, a, luts)
    }

    fn resolve_panel(
        &self,
        a: &QMatrix,
        luts: &SharedLuts,
    ) -> Result<Option<ActivationPanel>, LocaLutError> {
        luts.check(self.wf, self.af, self.p)?;
        let p = self.p as usize;
        let pad = pad_code_for(self.af, a.rows(), p)?;
        Ok(Some(ActivationPanel::resolve(a, p, pad, luts.canonical())?))
    }

    fn run_with_panel(
        &self,
        w: &QMatrix,
        a: &QMatrix,
        luts: &SharedLuts,
        panel: &ActivationPanel,
        weights: &PackedCodes,
    ) -> Result<GemmResult, LocaLutError> {
        RcKernel::run_with_panel(self, w, a, luts, panel, weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::reference_gemm;
    use crate::kernels::LcKernel;
    use quant::Quantizer;

    fn operands(
        m: usize,
        k: usize,
        n: usize,
        wf: NumericFormat,
        af: NumericFormat,
    ) -> (QMatrix, QMatrix) {
        let wdata: Vec<f32> = (0..m * k)
            .map(|i| ((i * 13 + 5) % 7) as f32 - 3.0)
            .collect();
        let adata: Vec<f32> = (0..k * n)
            .map(|i| ((i * 3 + 2) % 11) as f32 - 5.0)
            .collect();
        (
            Quantizer::symmetric(wf)
                .quantize_matrix(&wdata, m, k)
                .unwrap(),
            Quantizer::symmetric(af)
                .quantize_matrix(&adata, k, n)
                .unwrap(),
        )
    }

    #[test]
    fn auto_picks_paper_p_for_w1a3() {
        let k = RcKernel::auto(
            DpuConfig::upmem(),
            NumericFormat::Bipolar,
            NumericFormat::Int(3),
        )
        .unwrap();
        assert_eq!(k.p(), 5); // §V-A: p_local = 5 with LC (+RC).
    }

    #[test]
    fn run_matches_reference() {
        let (w, a) = operands(5, 10, 3, NumericFormat::Bipolar, NumericFormat::Int(3));
        let kernel = RcKernel::with_p(
            DpuConfig::upmem(),
            NumericFormat::Bipolar,
            NumericFormat::Int(3),
            5,
        )
        .unwrap();
        let out = kernel.run(&w, &a).unwrap();
        assert_eq!(out.values, reference_gemm::<i32>(&w, &a).unwrap());
    }

    #[test]
    fn ragged_k_matches_reference() {
        let (w, a) = operands(4, 11, 2, NumericFormat::Int(2), NumericFormat::Int(3));
        let kernel = RcKernel::with_p(
            DpuConfig::upmem(),
            NumericFormat::Int(2),
            NumericFormat::Int(3),
            4,
        )
        .unwrap();
        let out = kernel.run(&w, &a).unwrap();
        assert_eq!(out.values, reference_gemm::<i32>(&w, &a).unwrap());
    }

    #[test]
    fn wide_n_crosses_tile_boundaries() {
        // N beyond one N_TILE, with a ragged last tile, stays bit-exact.
        let (w, a) = operands(
            7,
            10,
            N_TILE * 2 + 3,
            NumericFormat::Int(2),
            NumericFormat::Int(3),
        );
        let kernel = RcKernel::with_p(
            DpuConfig::upmem(),
            NumericFormat::Int(2),
            NumericFormat::Int(3),
            5,
        )
        .unwrap();
        let out = kernel.run(&w, &a).unwrap();
        assert_eq!(out.values, reference_gemm::<i32>(&w, &a).unwrap());
    }

    #[test]
    fn run_profile_equals_cost() {
        let (w, a) = operands(4, 6, 2, NumericFormat::Int(2), NumericFormat::Int(2));
        let kernel = RcKernel::with_p(
            DpuConfig::upmem(),
            NumericFormat::Int(2),
            NumericFormat::Int(2),
            3,
        )
        .unwrap();
        let out = kernel.run(&w, &a).unwrap();
        assert_eq!(out.profile, kernel.cost(out.dims));
    }

    #[test]
    fn reordering_lut_beats_software_reordering() {
        // Fig. 9: OP+LC+RC recovers the overhead OP+LC added.
        let dims = GemmDims {
            m: 128,
            k: 125,
            n: 16,
        };
        let cfg = DpuConfig::upmem();
        let lc = LcKernel::with_p(
            cfg.clone(),
            NumericFormat::Bipolar,
            NumericFormat::Int(3),
            5,
        )
        .unwrap()
        .cost(dims);
        let rc = RcKernel::with_p(cfg, NumericFormat::Bipolar, NumericFormat::Int(3), 5)
            .unwrap()
            .cost(dims);
        assert!(rc.total_seconds() < lc.total_seconds());
    }

    #[test]
    fn reorder_access_fraction_is_small() {
        // §VI-G: the reordering LUT access is ~6.9% of the kernel.
        let kernel = RcKernel::with_p(
            DpuConfig::upmem(),
            NumericFormat::Bipolar,
            NumericFormat::Int(3),
            5,
        )
        .unwrap();
        let cost = kernel.cost(GemmDims {
            m: 768,
            k: 765,
            n: 128,
        });
        let frac = cost.fraction(Category::ReorderLookup);
        assert!((0.02..0.2).contains(&frac), "reorder fraction {frac}");
    }
}
