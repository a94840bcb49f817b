//! The full LoCaLUT kernel (§IV-C): DRAM-resident canonical + reordering
//! LUTs with **LUT slice streaming**.
//!
//! The LUTs are sized for the 64 MB bank (`p` up to `p_DRAM = 8` at W1A3);
//! for each activation group, only the group's canonical column and the
//! group's permutation column — one *slice pair* of `2^(bw·p)` entries —
//! stream into WRAM, where they are reused across all `M` weight rows
//! (input-stationary on the LUT slice). `k` slice pairs co-reside so the
//! weight matrix streams once per `k` groups instead of once per group.

use crate::capacity::{localut_bytes, slice_pair_bytes};
use crate::codes::{ActivationPanel, PackedCodes};
use crate::gemm::{GemmDims, GemmResult, Method};
use crate::kernels::{
    charge_output, check_bands, gather_tiles, pad_code_for, require_integer, LutKernel, SharedLuts,
};
use crate::LocaLutError;
use pim_sim::{Category, Dpu, DpuConfig, Profile};
use quant::{NumericFormat, QMatrix};

/// The slice-streaming LoCaLUT kernel.
#[derive(Debug, Clone)]
pub struct StreamingKernel {
    cfg: DpuConfig,
    wf: NumericFormat,
    af: NumericFormat,
    p: u32,
    k_slices: u32,
}

impl StreamingKernel {
    /// Creates the kernel at an explicit packing degree and slice count,
    /// validating the bank and WRAM budgets.
    ///
    /// # Errors
    ///
    /// * [`LocaLutError::BudgetExceeded`] when the full LUTs exceed the
    ///   bank LUT budget, or `k` slice pairs exceed the WRAM LUT budget.
    /// * Format or degree errors.
    pub fn new(
        cfg: DpuConfig,
        wf: NumericFormat,
        af: NumericFormat,
        p: u32,
        k_slices: u32,
    ) -> Result<Self, LocaLutError> {
        require_integer(wf, af)?;
        if p == 0 || k_slices == 0 {
            return Err(LocaLutError::InvalidPackingDegree(p.min(k_slices)));
        }
        let full = localut_bytes(wf, af, p).ok_or(LocaLutError::InvalidPackingDegree(p))?;
        let bank_budget = cfg.bank_lut_budget();
        if full > u128::from(bank_budget) {
            return Err(LocaLutError::BudgetExceeded {
                required: full,
                budget: bank_budget,
            });
        }
        let slice = slice_pair_bytes(wf, af, p).ok_or(LocaLutError::InvalidPackingDegree(p))?;
        let wram_budget = cfg.wram_lut_budget();
        let resident = u128::from(slice) * u128::from(k_slices);
        if resident > u128::from(wram_budget) {
            return Err(LocaLutError::BudgetExceeded {
                required: resident,
                budget: wram_budget,
            });
        }
        Ok(StreamingKernel {
            cfg,
            wf,
            af,
            p,
            k_slices,
        })
    }

    /// The packing degree.
    #[must_use]
    pub fn p(&self) -> u32 {
        self.p
    }

    /// The number of co-resident slice pairs (`k` of §IV-C).
    #[must_use]
    pub fn k_slices(&self) -> u32 {
        self.k_slices
    }

    fn groups(&self, dims: GemmDims) -> u64 {
        (dims.k as u64).div_ceil(u64::from(self.p)) * dims.n as u64
    }

    fn charge(&self, dims: GemmDims, dpu: &mut Dpu) {
        let groups = self.groups(dims);
        let slice_entries = 1u64 << (u32::from(self.wf.bits()) * self.p);
        let slice_bytes = slice_pair_bytes(self.wf, self.af, self.p).unwrap_or(u64::MAX);
        // Eq. 2 term 1: each group streams its slice pair once (L_D per
        // entry pair).
        dpu.charge_lut_pair_stream(groups * slice_entries, groups * slice_bytes);
        // Activations (+ 2-byte permutation ids per group) stream once; the
        // weight matrix streams once per k-batch of same-K-block groups.
        let weight_passes = (dims.n as u64).div_ceil(u64::from(self.k_slices));
        dpu.charge_dram_stream(
            dims.weight_bytes(self.wf.bits()) * weight_passes,
            Category::DataTransfer,
        );
        dpu.charge_dram_stream(
            dims.activation_bytes(self.af.bits()) + 2 * groups,
            Category::DataTransfer,
        );
        // Eq. 2 term 2: the L_local composite per (weight row, group).
        dpu.charge_lookup_accum(dims.m as u64 * groups);
        charge_output(dpu, dims);
    }

    /// Analytic cost for the given dimensions.
    #[must_use]
    pub fn cost(&self, dims: GemmDims) -> Profile {
        let mut dpu = Dpu::new(self.cfg.clone());
        self.charge(dims, &mut dpu);
        dpu.profile()
    }

    /// Runs the GEMM through DRAM-resident LUTs with slice streaming,
    /// building the LUT images locally.
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
    /// The inner loops are blocked with the §IV-C co-residency width:
    /// both operands are bit-packed into group-major [`PackedCodes`] once,
    /// each K-block resolves `k` activation columns' slice pairs at a time
    /// (reused scratch, no per-group allocation), and one linear M-pass
    /// gathers the whole batch — contiguous packed-weight reads and
    /// contiguous output writes.
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
    /// As [`StreamingKernel::run_with_luts`], plus
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

        // The N columns of each K-block go in batches of k groups: their
        // slice pairs co-reside in WRAM while the weight block streams
        // once per batch. Borrowing the slices is the functional model of
        // that stream; its cost is charged analytically.
        let values = gather_tiles(luts, panel, weights, dims, self.k_slices as usize);

        let mut dpu = Dpu::new(self.cfg.clone());
        self.charge(dims, &mut dpu);
        Ok(GemmResult {
            values,
            dims,
            profile: dpu.profile(),
        })
    }
}

impl LutKernel for StreamingKernel {
    fn method(&self) -> Method {
        Method::LoCaLut
    }

    fn p(&self) -> u32 {
        self.p
    }

    fn cost(&self, dims: GemmDims) -> Profile {
        StreamingKernel::cost(self, dims)
    }

    fn validate(&self, w: &QMatrix, a: &QMatrix) -> Result<GemmDims, LocaLutError> {
        self.validate_operands(w, a)
    }

    fn run(&self, w: &QMatrix, a: &QMatrix) -> Result<GemmResult, LocaLutError> {
        StreamingKernel::run(self, w, a)
    }

    fn run_with_luts(
        &self,
        w: &QMatrix,
        a: &QMatrix,
        luts: &SharedLuts,
    ) -> Result<GemmResult, LocaLutError> {
        StreamingKernel::run_with_luts(self, w, a, luts)
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
        StreamingKernel::run_with_panel(self, w, a, luts, panel, weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::reference_gemm;
    use quant::Quantizer;

    fn operands(
        m: usize,
        k: usize,
        n: usize,
        wf: NumericFormat,
        af: NumericFormat,
    ) -> (QMatrix, QMatrix) {
        let wdata: Vec<f32> = (0..m * k)
            .map(|i| ((i * 17 + 2) % 9) as f32 - 4.0)
            .collect();
        let adata: Vec<f32> = (0..k * n)
            .map(|i| ((i * 19 + 7) % 13) as f32 - 6.0)
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

    fn kernel(p: u32, k_slices: u32) -> StreamingKernel {
        StreamingKernel::new(
            DpuConfig::upmem(),
            NumericFormat::Bipolar,
            NumericFormat::Int(3),
            p,
            k_slices,
        )
        .unwrap()
    }

    #[test]
    fn run_matches_reference() {
        let (w, a) = operands(6, 12, 5, NumericFormat::Bipolar, NumericFormat::Int(3));
        let out = kernel(6, 2).run(&w, &a).unwrap();
        assert_eq!(out.values, reference_gemm::<i32>(&w, &a).unwrap());
    }

    #[test]
    fn ragged_k_and_odd_batches_match_reference() {
        let (w, a) = operands(4, 13, 7, NumericFormat::Int(2), NumericFormat::Int(3));
        let kern = StreamingKernel::new(
            DpuConfig::upmem(),
            NumericFormat::Int(2),
            NumericFormat::Int(3),
            5,
            3,
        )
        .unwrap();
        let out = kern.run(&w, &a).unwrap();
        assert_eq!(out.values, reference_gemm::<i32>(&w, &a).unwrap());
    }

    #[test]
    fn run_profile_equals_cost() {
        let (w, a) = operands(5, 12, 4, NumericFormat::Bipolar, NumericFormat::Int(3));
        let kern = kernel(6, 2);
        let out = kern.run(&w, &a).unwrap();
        assert_eq!(out.profile, kern.cost(out.dims));
    }

    #[test]
    fn p8_w1a3_is_accepted_by_bank_budget() {
        // §V-A: p_DRAM = 8 at W1A3.
        assert!(StreamingKernel::new(
            DpuConfig::upmem(),
            NumericFormat::Bipolar,
            NumericFormat::Int(3),
            8,
            2
        )
        .is_ok());
        assert!(matches!(
            StreamingKernel::new(
                DpuConfig::upmem(),
                NumericFormat::Bipolar,
                NumericFormat::Int(3),
                9,
                2
            ),
            Err(LocaLutError::BudgetExceeded { .. })
        ));
    }

    #[test]
    fn wram_limits_k_times_slice() {
        // W4A4 p=3 slice pair = 16 KiB → k=2 fits the 32 KiB budget, k=3
        // does not.
        let f4 = NumericFormat::Int(4);
        assert!(StreamingKernel::new(DpuConfig::upmem(), f4, f4, 3, 2).is_ok());
        assert!(StreamingKernel::new(DpuConfig::upmem(), f4, f4, 3, 3).is_err());
    }

    #[test]
    fn larger_k_reduces_weight_restreaming() {
        let dims = GemmDims {
            m: 256,
            k: 256,
            n: 64,
        };
        let k1 = kernel(6, 1).cost(dims);
        let k8 = kernel(6, 8).cost(dims);
        assert!(k8.seconds(Category::DataTransfer) < k1.seconds(Category::DataTransfer));
        assert!(k8.total_seconds() < k1.total_seconds());
    }

    #[test]
    fn lut_load_matches_eq2_term() {
        let kern = kernel(6, 2);
        let dims = GemmDims { m: 16, k: 12, n: 8 };
        let cost = kern.cost(dims);
        // groups = 2 * 8 = 16, slice entries = 2^6 = 64, L_D each.
        let expect = 16.0 * 64.0 * 1.36e-9;
        assert!((cost.seconds(Category::LutLoad) - expect).abs() < 1e-12);
    }

    #[test]
    fn zero_p_or_k_rejected() {
        let f = NumericFormat::Int(2);
        assert!(StreamingKernel::new(DpuConfig::upmem(), f, f, 0, 2).is_err());
        assert!(StreamingKernel::new(DpuConfig::upmem(), f, f, 2, 0).is_err());
    }
}
