//! The six GEMM kernels of the paper's evaluation (§VI-A).
//!
//! Every kernel is **functional + timed**: `run` computes the exact output
//! through the kernel's actual data structures (LUTs, bit-serial tables, or
//! plain MACs) while an analytic `cost` twin charges the identical event
//! counts for given dimensions. The two stay consistent by construction —
//! both call one private `charge` routine whose event counts depend only on
//! dimensions (the dataflows are data-independent) — and tests assert
//! `run(...).profile == cost(dims)`.
//!
//! | Kernel | Design point | Paper |
//! |---|---|---|
//! | [`NaiveKernel`]     | int MACs on the DPU            | "Naive PIM" |
//! | [`LtcKernel`]       | bit-serial runtime LUTs        | "LTC (PIM)" |
//! | [`OpKernel`]        | buffer-resident packed LUT     | "OP" (§III) |
//! | [`LcKernel`]        | + canonicalization, sw reorder | "OP+LC" (§IV-A) |
//! | [`RcKernel`]        | + reordering LUT               | "OP+LC+RC" (§IV-B) |
//! | [`StreamingKernel`] | + LUT slice streaming          | "LoCaLUT" (§IV-C) |
//!
//! All six arms implement one object-safe [`LutKernel`] trait — the single
//! dispatch surface every layer above uses. [`BankKernel`] is the
//! method-erased construct-once handle (an `Arc<dyn LutKernel>` plus the
//! optional [`SharedLuts`] images) that bank-parallel workers clone (the
//! `runtime` crate's executor is the one multi-threaded entry point).
//! Method-to-kernel construction lives in one place
//! ([`BankKernel::build`] and friends, in the `build` submodule) — there is
//! deliberately no per-method `match` anywhere else in this module.

mod build;
mod lc;
mod ltc;
mod naive;
mod op;
mod rc;
mod streaming;

pub use lc::LcKernel;
pub use ltc::LtcKernel;
pub use naive::NaiveKernel;
pub use op::OpKernel;
pub use rc::RcKernel;
pub use streaming::StreamingKernel;

use crate::canonical::CanonicalLut;
use crate::codes::{ActivationPanel, PackedCodes};
use crate::gemm::{GemmDims, GemmResult, Method};
use crate::reorder::{ReorderLut, ReorderWord, Storage};
use crate::LocaLutError;
use pim_sim::{Category, Dpu, Profile};
use quant::{NumericFormat, QMatrix};
use std::sync::Arc;

/// Guard against accidentally materializing astronomically large LUTs in
/// host memory during functional runs. All UPMEM-budget-feasible LUTs fit
/// comfortably (the largest, W1A3 at `p = 8`, is ~12 M entries). It also
/// caps a reordering LUT's `bits·p` at 26, so its entries fit `u32`.
pub const MAX_MATERIALIZED_ENTRIES: u64 = 1 << 26;

/// Width of the N-tile the blocked buffer-resident loops process per slice
/// resolution batch: 16 consecutive output columns share the same 64-byte
/// `i32` output cache line per row, and 16 resolved LUT column pairs stay
/// far below the WRAM-budget-sized slices' footprint.
pub const N_TILE: usize = 16;

/// Ensures both operand formats decode to exact integers.
pub(crate) fn require_integer(wf: NumericFormat, af: NumericFormat) -> Result<(), LocaLutError> {
    if !wf.is_integer() || !af.is_integer() {
        return Err(LocaLutError::UnsupportedFormat(
            "integer kernels require integer weight/activation formats",
        ));
    }
    Ok(())
}

/// The activation code that decodes to integer zero, used to pad `K` up to
/// a multiple of `p` (`None` for formats without a zero, e.g. bipolar).
pub(crate) fn zero_code(af: NumericFormat) -> Option<u16> {
    af.encode_int(0).ok().map(|c| c as u16)
}

/// Resolves the zero pad code or errors when `K % p != 0` and none exists.
pub(crate) fn pad_code_for(af: NumericFormat, k: usize, p: usize) -> Result<u16, LocaLutError> {
    let remainder = k % p;
    match zero_code(af) {
        Some(c) => Ok(c),
        None if remainder == 0 => Ok(0), // never used
        None => Err(LocaLutError::UnpaddableRemainder { remainder }),
    }
}

/// Charges the common operand input streams (weights + activations,
/// bank → WRAM) to [`Category::DataTransfer`].
pub(crate) fn charge_operand_input(dpu: &mut Dpu, dims: GemmDims, bw: u8, ba: u8) {
    dpu.charge_dram_stream(
        dims.weight_bytes(bw) + dims.activation_bytes(ba),
        Category::DataTransfer,
    );
}

/// Charges the output writeback (WRAM → bank).
pub(crate) fn charge_output(dpu: &mut Dpu, dims: GemmDims) {
    dpu.charge_dram_writeback(dims.output_bytes(), Category::OutputWriteback);
}

/// Validates that the two bands a `run_with_panel` call consumes — the
/// column band's [`ActivationPanel`] and the row band's packed weights,
/// both prepared outside the kernel — have the packed shape of the
/// operands `dims` at packing degree `p`.
pub(crate) fn check_bands(
    panel: &ActivationPanel,
    weights: &PackedCodes,
    (wbits, abits): (u8, u8),
    p: usize,
    dims: GemmDims,
) -> Result<(), LocaLutError> {
    let groups = dims.k.div_ceil(p);
    let fits = |packed: &PackedCodes, bits: u8, lanes: usize| {
        packed.bits() == bits
            && packed.p() == p
            && packed.groups() == groups
            && packed.lanes() == lanes
    };
    if !fits(panel.packed(), abits, dims.n) {
        return Err(LocaLutError::UnsupportedFormat(
            "activation panel shape does not match the operands",
        ));
    }
    if !fits(weights, wbits, dims.m) {
        return Err(LocaLutError::UnsupportedFormat(
            "packed weight band shape does not match the operands",
        ));
    }
    Ok(())
}

/// The blocked M-pass both canonicalized arms share. For each K-block,
/// `tile` activation columns at a time resolve their canonical/reordering
/// column pairs from the panel once, then one linear pass over the packed
/// weight rows gathers the whole `M × tile` output tile: contiguous
/// packed-weight reads, contiguous output writes, and both LUT column
/// slices hot in cache. The reordering entry width is matched once here,
/// never per element.
pub(crate) fn gather_tiles(
    luts: &SharedLuts,
    panel: &ActivationPanel,
    wpacked: &PackedCodes,
    dims: GemmDims,
    tile: usize,
) -> Vec<i32> {
    let canonical = luts.canonical();
    let rows = luts.reorder().rows() as usize;
    match luts.reorder().storage() {
        Storage::U8(e) => gather_typed(canonical, e, rows, panel, wpacked, dims, tile),
        Storage::U16(e) => gather_typed(canonical, e, rows, panel, wpacked, dims, tile),
        Storage::U32(e) => gather_typed(canonical, e, rows, panel, wpacked, dims, tile),
    }
}

fn gather_typed<T: ReorderWord>(
    canonical: &CanonicalLut<i32>,
    reorder: &[T],
    rows: usize,
    panel: &ActivationPanel,
    wpacked: &PackedCodes,
    dims: GemmDims,
    tile: usize,
) -> Vec<i32> {
    let mut values = vec![0i32; dims.m * dims.n];
    let mut cols: Vec<(&[i32], &[T])> = Vec::with_capacity(tile);
    for kb in 0..panel.packed().groups() {
        // Contiguous in m — the M-pass below is a linear scan.
        let wcol = wpacked.group(kb);
        for n0 in (0..dims.n).step_by(tile) {
            let n1 = dims.n.min(n0 + tile);
            // Hoist the tile's column pairs once per M-pass: one bounds
            // check per group instead of two checked 2D lookups per
            // element.
            cols.clear();
            for n in n0..n1 {
                let (col, perm_id) = panel.pair(kb, n);
                let start = perm_id as usize * rows;
                cols.push((canonical.column_slice(col), &reorder[start..start + rows]));
            }
            for m in 0..dims.m {
                // One packed-row load, then one reordering lookup and one
                // canonical lookup per tile column.
                let row = wcol[m] as usize;
                let out = &mut values[m * dims.n + n0..m * dims.n + n1];
                for (acc, &(canon_col, reord_col)) in out.iter_mut().zip(&cols) {
                    *acc += canon_col[reord_col[row].index()];
                }
            }
        }
    }
    values
}

/// The unified kernel interface every arm of the evaluation implements.
///
/// One GEMM kernel is four capabilities: identify itself
/// ([`method`](LutKernel::method), [`p`](LutKernel::p)), price a shape
/// ([`cost`](LutKernel::cost)), vet operands
/// ([`validate`](LutKernel::validate)), and execute
/// ([`run`](LutKernel::run) /
/// [`run_with_luts`](LutKernel::run_with_luts)). The trait is object-safe:
/// [`BankKernel`], the `runtime` executor, and the engine all dispatch
/// through `dyn LutKernel`, so a new design point plugs in by implementing
/// this trait — no dispatch site changes.
///
/// The functional/timed contract holds for every implementor:
/// `run(w, a)?.profile == cost(GemmDims::of(w, a)?)` exactly, and
/// `run_with_luts` is bit-identical to `run` in both values and profile.
pub trait LutKernel: std::fmt::Debug + Send + Sync {
    /// The evaluation method this kernel realizes.
    fn method(&self) -> Method;

    /// The packing degree (`1` for the LUT-free baselines, which consume
    /// operands one code at a time).
    fn p(&self) -> u32;

    /// Analytic cost for the given dimensions — the profile
    /// [`LutKernel::run`] charges for operands of the same shape.
    fn cost(&self, dims: GemmDims) -> Profile;

    /// Cheap operand checks (shape, formats, padding feasibility) shared
    /// by `run` and `run_with_luts`, returning the dimensions on success.
    ///
    /// # Errors
    ///
    /// Shape, format, or padding errors.
    fn validate(&self, w: &QMatrix, a: &QMatrix) -> Result<GemmDims, LocaLutError>;

    /// Runs the GEMM, building any LUT images locally.
    ///
    /// # Errors
    ///
    /// Shape, format, padding, or budget errors.
    fn run(&self, w: &QMatrix, a: &QMatrix) -> Result<GemmResult, LocaLutError>;

    /// Runs the GEMM against prebuilt shared LUT images. Arms without
    /// shared images (the baselines and the locally-built LUT arms)
    /// ignore `luts` and run as [`LutKernel::run`].
    ///
    /// # Errors
    ///
    /// Shape, format, or padding errors, or
    /// [`LocaLutError::UnsupportedFormat`] when `luts` was built for a
    /// different `(wf, af, p)` than the kernel needs.
    fn run_with_luts(
        &self,
        w: &QMatrix,
        a: &QMatrix,
        luts: &SharedLuts,
    ) -> Result<GemmResult, LocaLutError> {
        let _ = luts;
        self.run(w, a)
    }

    /// Resolves the shard-invariant activation panel this kernel can share
    /// across row-sharded banks, or `None` for arms without one (the
    /// LUT-free baselines and the software-reorder arms). Panels decouple
    /// the activation-side group resolution from the per-bank M-pass: a
    /// bank-parallel executor resolves each activation column band once
    /// and passes the panel to [`LutKernel::run_with_panel`] on every bank
    /// in the band.
    ///
    /// # Errors
    ///
    /// Shape, format, or padding errors.
    fn resolve_panel(
        &self,
        a: &QMatrix,
        luts: &SharedLuts,
    ) -> Result<Option<ActivationPanel>, LocaLutError> {
        let _ = (a, luts);
        Ok(None)
    }

    /// Runs against both shard-invariant bands: an activation panel
    /// previously resolved **from the same activation operand** by
    /// [`LutKernel::resolve_panel`], and `weights`, the weight operand
    /// packed at the kernel's degree
    /// (`PackedCodes::pack_weight_rows(w, p)`) — the row-band twin a
    /// bank-parallel executor packs once per weight row band. Both are
    /// trusted as the operands' packing (shapes are validated; values are
    /// the caller's contract). Bitwise identical to
    /// [`LutKernel::run_with_luts`] in values and profile. The default
    /// ignores both bands and runs `run_with_luts`.
    ///
    /// # Errors
    ///
    /// As [`LutKernel::run_with_luts`], plus
    /// [`LocaLutError::UnsupportedFormat`] when the panel's or the weight
    /// band's packed shape (bits, `p`, groups, lanes) does not match the
    /// operands.
    fn run_with_panel(
        &self,
        w: &QMatrix,
        a: &QMatrix,
        luts: &SharedLuts,
        panel: &ActivationPanel,
        weights: &PackedCodes,
    ) -> Result<GemmResult, LocaLutError> {
        let _ = (panel, weights);
        self.run_with_luts(w, a, luts)
    }
}

/// A read-only canonical + reordering LUT pair shared across workers.
///
/// Building the canonical LUT is the expensive host-side step of a kernel
/// launch (up to ~12 M entries at W1A3, `p = 8`). In the hardware model the
/// image is built once and broadcast to every bank (§V-A); this type is the
/// software twin: one build behind [`Arc`], cloned by reference into every
/// worker of a bank-parallel run.
///
/// # Examples
///
/// ```
/// use localut::kernels::SharedLuts;
/// use quant::NumericFormat;
///
/// let luts = SharedLuts::build(NumericFormat::Uint(1), NumericFormat::Int(3), 3)?;
/// assert_eq!(luts.p(), 3);
/// // Clones share the same LUT storage (cheap Arc bumps).
/// let worker_copy = luts.clone();
/// assert_eq!(worker_copy.canonical().cols(), luts.canonical().cols());
/// # Ok::<(), localut::LocaLutError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SharedLuts {
    canonical: Arc<CanonicalLut<i32>>,
    reorder: Arc<ReorderLut>,
    wf: NumericFormat,
    af: NumericFormat,
    p: u32,
}

impl SharedLuts {
    /// Builds the canonical + reordering LUT images for `(wf, af, p)`.
    ///
    /// # Errors
    ///
    /// LUT build errors ([`LocaLutError::BudgetExceeded`] when the
    /// materialization guard trips, format/degree errors).
    pub fn build(wf: NumericFormat, af: NumericFormat, p: u32) -> Result<Self, LocaLutError> {
        let canonical = CanonicalLut::<i32>::build(wf, af, p, MAX_MATERIALIZED_ENTRIES)?;
        let reorder = ReorderLut::build(wf.bits(), p, MAX_MATERIALIZED_ENTRIES)?;
        Ok(SharedLuts {
            canonical: Arc::new(canonical),
            reorder: Arc::new(reorder),
            wf,
            af,
            p,
        })
    }

    /// Reassembles a shared pair from already-materialized images (a
    /// persisted cache, a broadcast copy), validating that the two were
    /// built for one `(wf, af, p)` configuration.
    ///
    /// # Errors
    ///
    /// [`LocaLutError::UnsupportedFormat`] when the reordering LUT's
    /// `(bits, p)` does not match the canonical LUT's weight format and
    /// packing degree.
    pub fn from_parts(
        canonical: CanonicalLut<i32>,
        reorder: ReorderLut,
    ) -> Result<Self, LocaLutError> {
        Self::from_shared(Arc::new(canonical), Arc::new(reorder))
    }

    /// [`SharedLuts::from_parts`] over images that are already shared: a
    /// cache pairs one reordering image (keyed by `(wf.bits(), p)`) with
    /// every canonical image of that weight width and degree.
    ///
    /// # Errors
    ///
    /// As [`SharedLuts::from_parts`].
    pub fn from_shared(
        canonical: Arc<CanonicalLut<i32>>,
        reorder: Arc<ReorderLut>,
    ) -> Result<Self, LocaLutError> {
        if reorder.bits() != canonical.weight_format().bits() || reorder.p() != canonical.p() {
            return Err(LocaLutError::UnsupportedFormat(
                "reordering LUT shape does not match the canonical LUT's (wf, p)",
            ));
        }
        let (wf, af, p) = (
            canonical.weight_format(),
            canonical.activation_format(),
            canonical.p(),
        );
        Ok(SharedLuts {
            canonical,
            reorder,
            wf,
            af,
            p,
        })
    }

    /// Host bytes the materialized images occupy (canonical `i32` entries
    /// plus reordering entries at their stored width, see
    /// [`ReorderLut::resident_bytes`]). A pure function of the image
    /// dimensions, so identical for a fresh build and a disk restore of
    /// the same key. A cache that shares one reordering image between
    /// several pairs counts it once, not once per pair.
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        self.canonical.entry_count() * std::mem::size_of::<i32>() as u64
            + self.reorder.resident_bytes()
    }

    /// The shared canonical LUT.
    #[must_use]
    pub fn canonical(&self) -> &CanonicalLut<i32> {
        &self.canonical
    }

    /// The shared reordering LUT.
    #[must_use]
    pub fn reorder(&self) -> &ReorderLut {
        &self.reorder
    }

    /// The packing degree the LUTs were built for.
    #[must_use]
    pub fn p(&self) -> u32 {
        self.p
    }

    /// The weight format the LUTs were built for.
    #[must_use]
    pub fn weight_format(&self) -> NumericFormat {
        self.wf
    }

    /// The activation format the LUTs were built for.
    #[must_use]
    pub fn activation_format(&self) -> NumericFormat {
        self.af
    }

    /// Validates that the LUTs match a kernel's `(wf, af, p)` configuration.
    pub(crate) fn check(
        &self,
        wf: NumericFormat,
        af: NumericFormat,
        p: u32,
    ) -> Result<(), LocaLutError> {
        if self.wf != wf || self.af != af || self.p != p {
            return Err(LocaLutError::UnsupportedFormat(
                "shared LUTs were built for a different (format, format, p) configuration",
            ));
        }
        Ok(())
    }
}

/// A method-erased, construct-once bank kernel.
///
/// `GemmConfig::run` re-plans and rebuilds LUTs on every call; a parallel
/// runtime instead builds one `BankKernel` for the *full* GEMM dimensions
/// and hands a clone to every worker, so all banks execute the identical
/// plan against one [`SharedLuts`] image (clones only bump `Arc` counts).
///
/// The handle is a `dyn` [`LutKernel`] plus the optional shared images the
/// kernel runs against — [`BankKernel::run`] routes through
/// [`LutKernel::run_with_luts`] when images are attached and
/// [`LutKernel::run`] otherwise, and everything else delegates to the
/// trait. Construction from a [`Method`] lives in [`BankKernel::build`] /
/// [`BankKernel::build_with`] / [`BankKernel::build_planned`].
///
/// # Examples
///
/// ```
/// use localut::kernels::BankKernel;
/// use localut::{GemmConfig, GemmDims, Method};
/// use quant::NumericFormat;
///
/// let dims = GemmDims { m: 64, k: 36, n: 8 };
/// let bank = BankKernel::build(
///     &GemmConfig::upmem(), Method::LoCaLut,
///     NumericFormat::Int(2), NumericFormat::Int(3), dims)?;
/// assert_eq!(bank.method(), Method::LoCaLut);
/// assert!(bank.cost(dims).total_seconds() > 0.0);
/// # Ok::<(), localut::LocaLutError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BankKernel {
    kernel: Arc<dyn LutKernel>,
    luts: Option<SharedLuts>,
}

impl BankKernel {
    /// Wraps a kernel with no shared LUT images attached; it builds
    /// whatever images it needs locally on each run.
    pub fn new(kernel: impl LutKernel + 'static) -> Self {
        BankKernel {
            kernel: Arc::new(kernel),
            luts: None,
        }
    }

    /// Wraps a kernel together with prebuilt shared LUT images; every run
    /// routes through [`LutKernel::run_with_luts`] against them.
    pub fn with_shared_luts(kernel: impl LutKernel + 'static, luts: SharedLuts) -> Self {
        BankKernel {
            kernel: Arc::new(kernel),
            luts: Some(luts),
        }
    }

    /// The wrapped kernel, as the trait object every dispatch layer sees.
    #[must_use]
    pub fn kernel(&self) -> &dyn LutKernel {
        self.kernel.as_ref()
    }

    /// The attached shared LUT images, if any.
    #[must_use]
    pub fn shared_luts(&self) -> Option<&SharedLuts> {
        self.luts.as_ref()
    }

    /// The method this kernel realizes.
    #[must_use]
    pub fn method(&self) -> Method {
        self.kernel.method()
    }

    /// The kernel's packing degree.
    #[must_use]
    pub fn p(&self) -> u32 {
        self.kernel.p()
    }

    /// Runs the kernel on one operand tile, reusing the shared LUT images
    /// where the method has them.
    ///
    /// # Errors
    ///
    /// Shape, format, or padding errors.
    pub fn run(&self, w: &QMatrix, a: &QMatrix) -> Result<GemmResult, LocaLutError> {
        match &self.luts {
            Some(luts) => self.kernel.run_with_luts(w, a, luts),
            None => self.kernel.run(w, a),
        }
    }

    /// The analytic cost twin for a tile of `dims` (equals the profile
    /// [`BankKernel::run`] charges for operands of the same shape).
    #[must_use]
    pub fn cost(&self, dims: GemmDims) -> Profile {
        self.kernel.cost(dims)
    }

    /// Resolves the activation panel the wrapped kernel shares across
    /// row-sharded banks — `None` when no shared images are attached or
    /// the kernel has no panel form.
    ///
    /// # Errors
    ///
    /// Shape, format, or padding errors.
    pub fn resolve_panel(&self, a: &QMatrix) -> Result<Option<ActivationPanel>, LocaLutError> {
        match &self.luts {
            Some(luts) => self.kernel.resolve_panel(a, luts),
            None => Ok(None),
        }
    }

    /// Packs a weight row band once for every shard in it — the row-band
    /// twin of [`BankKernel::resolve_panel`]: `None` when no shared images
    /// are attached (the kernel then runs without bands).
    #[must_use]
    pub fn pack_weights(&self, w: &QMatrix) -> Option<PackedCodes> {
        self.luts
            .as_ref()
            .map(|_| PackedCodes::pack_weight_rows(w, self.p() as usize))
    }

    /// Runs one shard against its row band's packed weights (from
    /// [`BankKernel::pack_weights`]) and its column band's panel (from
    /// [`BankKernel::resolve_panel`]); falls back to [`BankKernel::run`]
    /// when either band is `None`. Bitwise identical to `run` in values
    /// and profile.
    ///
    /// # Errors
    ///
    /// Shape, format, or padding errors;
    /// [`LocaLutError::UnsupportedFormat`] when a band's packed shape does
    /// not match the operands.
    pub fn run_bands(
        &self,
        w: &QMatrix,
        a: &QMatrix,
        weights: Option<&PackedCodes>,
        panel: Option<&ActivationPanel>,
    ) -> Result<GemmResult, LocaLutError> {
        match (&self.luts, weights, panel) {
            (Some(luts), Some(weights), Some(panel)) => {
                self.kernel.run_with_panel(w, a, luts, panel, weights)
            }
            _ => self.run(w, a),
        }
    }

    /// [`BankKernel::run_bands`] with the weight band packed for this one
    /// call — for callers that run a tile once, with no row band to share.
    ///
    /// # Errors
    ///
    /// As [`BankKernel::run_bands`].
    pub fn run_panel(
        &self,
        w: &QMatrix,
        a: &QMatrix,
        panel: Option<&ActivationPanel>,
    ) -> Result<GemmResult, LocaLutError> {
        self.run_bands(w, a, self.pack_weights(w).as_ref(), panel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::GemmConfig;
    use quant::Quantizer;

    #[test]
    fn zero_code_per_format() {
        assert_eq!(zero_code(NumericFormat::Int(3)), Some(0));
        assert_eq!(zero_code(NumericFormat::Uint(2)), Some(0));
        assert_eq!(zero_code(NumericFormat::Bipolar), None);
    }

    #[test]
    fn pad_code_requires_zero_only_for_remainders() {
        assert!(pad_code_for(NumericFormat::Bipolar, 6, 3).is_ok());
        assert!(matches!(
            pad_code_for(NumericFormat::Bipolar, 7, 3),
            Err(LocaLutError::UnpaddableRemainder { remainder: 1 })
        ));
        assert_eq!(pad_code_for(NumericFormat::Int(3), 7, 3).unwrap(), 0);
    }

    #[test]
    fn require_integer_rejects_floats() {
        assert!(require_integer(NumericFormat::Int(2), NumericFormat::Int(3)).is_ok());
        assert!(require_integer(NumericFormat::Fp4, NumericFormat::Int(3)).is_err());
        assert!(require_integer(NumericFormat::Bipolar, NumericFormat::Fp8).is_err());
    }

    fn operands(m: usize, k: usize, n: usize) -> (QMatrix, QMatrix) {
        let wdata: Vec<f32> = (0..m * k)
            .map(|i| ((i * 13 + 5) % 7) as f32 - 3.0)
            .collect();
        let adata: Vec<f32> = (0..k * n)
            .map(|i| ((i * 3 + 2) % 11) as f32 - 5.0)
            .collect();
        (
            Quantizer::symmetric(NumericFormat::Int(2))
                .quantize_matrix(&wdata, m, k)
                .unwrap(),
            Quantizer::symmetric(NumericFormat::Int(3))
                .quantize_matrix(&adata, k, n)
                .unwrap(),
        )
    }

    #[test]
    fn shared_luts_reject_mismatched_kernels() {
        let luts = SharedLuts::build(NumericFormat::Int(2), NumericFormat::Int(3), 2).unwrap();
        let kernel = RcKernel::with_p(
            pim_sim::DpuConfig::upmem(),
            NumericFormat::Int(2),
            NumericFormat::Int(3),
            3, // p differs from the LUT build
        )
        .unwrap();
        let (w, a) = operands(2, 6, 2);
        assert!(matches!(
            kernel.run_with_luts(&w, &a, &luts),
            Err(LocaLutError::UnsupportedFormat(_))
        ));
    }

    #[test]
    fn run_with_luts_matches_run() {
        let (w, a) = operands(4, 9, 3);
        let kernel = RcKernel::with_p(
            pim_sim::DpuConfig::upmem(),
            NumericFormat::Int(2),
            NumericFormat::Int(3),
            3,
        )
        .unwrap();
        let luts = SharedLuts::build(NumericFormat::Int(2), NumericFormat::Int(3), 3).unwrap();
        let shared = kernel.run_with_luts(&w, &a, &luts).unwrap();
        let local = LutKernel::run(&kernel, &w, &a).unwrap();
        assert_eq!(shared, local);
    }

    #[test]
    fn bank_kernel_reports_method_and_p_for_every_arm() {
        let (w, a) = operands(4, 12, 3);
        let dims = GemmDims::of(&w, &a).unwrap();
        let cfg = GemmConfig::upmem();
        for method in Method::ALL {
            let bank = BankKernel::build(&cfg, method, w.format(), a.format(), dims).unwrap();
            // A LoCaLut plan that lands buffer-resident is realized by the
            // RC arm and reports itself as such (same contract as before
            // the trait unification).
            if method == Method::LoCaLut {
                assert!(matches!(bank.method(), Method::LoCaLut | Method::OpLcRc));
            } else {
                assert_eq!(bank.method(), method);
            }
            assert!(bank.p() >= 1, "{method}");
            // LUT images are attached exactly where the method shares them.
            assert_eq!(
                bank.shared_luts().is_some(),
                matches!(method, Method::OpLcRc | Method::LoCaLut),
                "{method}"
            );
            let out = bank.run(&w, &a).unwrap();
            assert_eq!(out.profile, bank.cost(dims), "{method}");
        }
    }

    #[test]
    fn trait_dispatch_matches_inherent_calls() {
        let (w, a) = operands(5, 10, 2);
        let kernel = RcKernel::with_p(
            pim_sim::DpuConfig::upmem(),
            NumericFormat::Int(2),
            NumericFormat::Int(3),
            2,
        )
        .unwrap();
        let erased: &dyn LutKernel = &kernel;
        assert_eq!(erased.method(), Method::OpLcRc);
        assert_eq!(erased.p(), 2);
        let dims = erased.validate(&w, &a).unwrap();
        let out = erased.run(&w, &a).unwrap();
        assert_eq!(out.profile, erased.cost(dims));
    }
}
