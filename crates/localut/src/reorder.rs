//! The reordering LUT (§IV-B): weight reordering as a single lookup.
//!
//! Canonicalization requires permuting the packed weight vector by the
//! activation's sorting permutation — unpack, permute, repack is expensive
//! on the feeble DPU core. The reordering LUT precomputes it: indexed by
//! the packed weight row and the sorting-permutation id (Lehmer rank), each
//! entry is the already-reordered packed weight row, ready to index the
//! canonical LUT. It has `p!` columns and `2^(bw·p)` rows.

use crate::packed::check_index_width;
use crate::perm::factorial;
use crate::LocaLutError;
use std::ops::BitOr;

/// A native unsigned integer reordering entries are stored in.
pub(crate) trait ReorderWord: Copy + BitOr<Output = Self> + Send + Sync + 'static {
    /// Truncates a packed row that fits the width.
    fn from_row(row: u64) -> Self;
    /// The entry as a canonical-LUT row index.
    fn index(self) -> usize;
    /// Appends the entry little-endian.
    fn write_le(self, out: &mut Vec<u8>);
    /// Reads one entry from exactly `size_of::<Self>()` little-endian bytes.
    fn read_le(bytes: &[u8]) -> Self;
}

macro_rules! reorder_word {
    ($($t:ty),*) => {$(
        impl ReorderWord for $t {
            fn from_row(row: u64) -> Self {
                row as $t
            }
            fn index(self) -> usize {
                self as usize
            }
            fn write_le(self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn read_le(bytes: &[u8]) -> Self {
                <$t>::from_le_bytes(bytes.try_into().expect("width-sized chunk"))
            }
        }
    )*};
}
reorder_word!(u8, u16, u32);

/// Column-major entries (`entries[perm_id * rows + row]`) in the narrowest
/// native integer that holds `bits·p` bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Storage {
    U8(Vec<u8>),
    U16(Vec<u16>),
    U32(Vec<u32>),
}

/// Which [`Storage`] arm holds `bits·p`-bit entries, or `None` past 32
/// bits (never reached under the kernels' materialization guard, which
/// caps `bits·p` at 26).
fn storage_width(bits: u8, p: u32) -> Option<usize> {
    match u32::from(bits) * p {
        0..=8 => Some(1),
        9..=16 => Some(2),
        17..=32 => Some(4),
        _ => None,
    }
}

/// A fully materialized reordering LUT.
///
/// Entries are held at the paper's representation: the narrowest native
/// integer (`u8`, `u16` or `u32`) that holds the `bits·p`-bit packed row,
/// so [`ReorderLut::resident_bytes`] equals
/// [`crate::capacity::reorder_lut_bytes`] whenever `ceil(bits·p/8)` is 1,
/// 2 or 4.
///
/// # Examples
///
/// ```
/// use localut::reorder::ReorderLut;
/// use localut::packed::{pack_index, unpack_index};
/// use localut::perm::{lehmer_rank, sort_permutation};
///
/// // Fig. 5: weights [0,0,1] under the sorting permutation of
/// // activations [3,0,2] reorder to [0,1,0] — in one lookup.
/// let lut = ReorderLut::build(1, 3, 1 << 16)?;
/// let perm_id = lehmer_rank(&sort_permutation(&[3, 0, 2]))?;
/// let reordered = lut.lookup(pack_index(&[0, 0, 1], 1), perm_id);
/// assert_eq!(unpack_index(reordered, 1, 3), vec![0, 1, 0]);
/// # Ok::<(), localut::LocaLutError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReorderLut {
    bits: u8,
    p: u32,
    rows: u64,
    cols: u64,
    entries: Storage,
}

impl ReorderLut {
    /// `(rows, cols)` of the `(bits, p)` shape, with its entry count.
    fn shape(bits: u8, p: u32) -> Result<(u64, u64, u128), LocaLutError> {
        check_index_width(bits, p)?;
        let rows = 1u64 << (u32::from(bits) * p);
        let cols = factorial(p).ok_or(LocaLutError::InvalidPackingDegree(p))?;
        Ok((rows, cols, u128::from(rows) * u128::from(cols)))
    }

    /// Precomputes the reordering LUT for `bits`-wide weight codes packed
    /// `p` at a time.
    ///
    /// # Errors
    ///
    /// * [`LocaLutError::IndexSpaceTooWide`] when the packed weight index
    ///   exceeds 32 bits.
    /// * [`LocaLutError::BudgetExceeded`] when `2^(bits·p) · p!` exceeds
    ///   `max_entries`.
    pub fn build(bits: u8, p: u32, max_entries: u64) -> Result<Self, LocaLutError> {
        let (rows, cols, total) = Self::shape(bits, p)?;
        if total > u128::from(max_entries) {
            return Err(LocaLutError::BudgetExceeded {
                required: total,
                budget: max_entries,
            });
        }
        let entries = match storage_width(bits, p) {
            Some(1) => Storage::U8(assemble(bits, p, rows, total)),
            Some(2) => Storage::U16(assemble(bits, p, rows, total)),
            Some(_) => Storage::U32(assemble(bits, p, rows, total)),
            None => return Err(LocaLutError::IndexSpaceTooWide { bits, p }),
        };
        Ok(ReorderLut {
            bits,
            p,
            rows,
            cols,
            entries,
        })
    }

    /// Reassembles a LUT from the bytes [`ReorderLut::to_le_bytes`]
    /// wrote (a persisted image). The shape and entry width are
    /// re-derived from `(bits, p)` exactly as [`ReorderLut::build`]
    /// derives them, and the allocation is sized by `bytes`, never by a
    /// claim; callers remain responsible for the entry *values*
    /// (persistence layers checksum them).
    ///
    /// # Errors
    ///
    /// * [`LocaLutError::IndexSpaceTooWide`] /
    ///   [`LocaLutError::InvalidPackingDegree`] as in `build`.
    /// * [`LocaLutError::UnsupportedFormat`] when `bytes.len()` does not
    ///   match the `2^(bits·p) · p!` shape at the stored width.
    pub fn from_le_bytes(bits: u8, p: u32, bytes: &[u8]) -> Result<Self, LocaLutError> {
        let (rows, cols, total) = Self::shape(bits, p)?;
        let width = storage_width(bits, p).ok_or(LocaLutError::IndexSpaceTooWide { bits, p })?;
        if total * width as u128 != bytes.len() as u128 {
            return Err(LocaLutError::UnsupportedFormat(
                "reordering LUT byte count does not match the (bits, p) shape",
            ));
        }
        let entries = match width {
            1 => Storage::U8(bytes.to_vec()),
            2 => Storage::U16(read_words(bytes)),
            _ => Storage::U32(read_words(bytes)),
        };
        Ok(ReorderLut {
            bits,
            p,
            rows,
            cols,
            entries,
        })
    }

    /// The entries column-major at their stored width, little-endian —
    /// the persisted form [`ReorderLut::from_le_bytes`] reads back.
    #[must_use]
    pub fn to_le_bytes(&self) -> Vec<u8> {
        fn write<T: ReorderWord>(words: &[T], width: usize) -> Vec<u8> {
            let mut out = Vec::with_capacity(words.len() * width);
            for &w in words {
                w.write_le(&mut out);
            }
            out
        }
        match &self.entries {
            Storage::U8(e) => e.clone(),
            Storage::U16(e) => write(e, 2),
            Storage::U32(e) => write(e, 4),
        }
    }

    /// The typed column-major entries, for the kernels' one width match
    /// per call.
    pub(crate) fn storage(&self) -> &Storage {
        &self.entries
    }

    /// The packing degree.
    #[must_use]
    pub fn p(&self) -> u32 {
        self.p
    }

    /// Weight code bitwidth.
    #[must_use]
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Number of packed weight rows, `2^(bits·p)`.
    #[must_use]
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Number of permutation columns, `p!`.
    #[must_use]
    pub fn cols(&self) -> u64 {
        self.cols
    }

    /// Total entry count.
    #[must_use]
    pub fn entry_count(&self) -> u64 {
        self.rows * self.cols
    }

    /// Bytes per entry when stored packed (`ceil(bits·p / 8)`).
    #[must_use]
    pub fn entry_bytes(&self) -> u64 {
        u64::from(u32::from(self.bits) * self.p).div_ceil(8)
    }

    /// Host bytes the entries occupy at their stored width (1, 2 or 4 per
    /// entry).
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        let width = match self.entries {
            Storage::U8(_) => 1,
            Storage::U16(_) => 2,
            Storage::U32(_) => 4,
        };
        self.entry_count() * width
    }

    /// Looks up the reordered packed weight row for a permutation id.
    ///
    /// # Panics
    ///
    /// Panics when an index is out of range.
    #[must_use]
    pub fn lookup(&self, row: u64, perm_id: u64) -> u64 {
        assert!(
            row < self.rows && perm_id < self.cols,
            "reordering LUT index out of range"
        );
        let i = (perm_id * self.rows + row) as usize;
        match &self.entries {
            Storage::U8(e) => u64::from(e[i]),
            Storage::U16(e) => u64::from(e[i]),
            Storage::U32(e) => u64::from(e[i]),
        }
    }
}

/// Decodes little-endian words; the length is the caller-checked byte
/// count over the width.
fn read_words<T: ReorderWord>(bytes: &[u8]) -> Vec<T> {
    bytes
        .chunks_exact(std::mem::size_of::<T>())
        .map(T::read_le)
        .collect()
}

/// Materializes every column at width `T`.
///
/// Each column is a fixed shuffle of the row index's `p` bit-fields
/// (`entry = Σ_j codes[perm[j]] << bits·j`). Going through
/// unpack/apply/pack would allocate twice per entry — ~20 M allocations at
/// `p = 8` — and dominate the host launch cost. Because the shuffle is
/// independent per field, the contributions of the low `h` and high
/// `p − h` input fields are precomputed into two small tables per column,
/// reducing each entry to two lookups and an OR.
fn assemble<T: ReorderWord>(bits: u8, p: u32, rows: u64, total: u128) -> Vec<T> {
    let bits_u = u32::from(bits);
    let mask = (1u64 << bits) - 1;
    let h = p / 2;
    let lo_bits = bits_u * h;
    let lo_rows = 1u64 << lo_bits;
    let field = |v: u64, src: usize, dst: u32| ((v >> (bits_u * src as u32)) & mask) << dst;
    let mut tlo = vec![T::from_row(0); lo_rows as usize];
    let mut thi = vec![T::from_row(0); (rows >> lo_bits) as usize];
    let mut dst_shift = vec![0u32; p as usize];
    let mut entries = vec![T::from_row(0); total as usize];
    // Columns go in Lehmer-rank order, which is lexicographic order:
    // stepping one permutation to the next replaces an allocating unrank
    // per column (half the build at `p = 8`).
    let mut perm: Vec<u8> = (0..p as u8).collect();
    for column in entries.chunks_exact_mut(rows as usize) {
        // dst_shift[src] is where input field `src` lands in the output.
        for (j, &src) in perm.iter().enumerate() {
            dst_shift[usize::from(src)] = bits_u * j as u32;
        }
        for (v, t) in tlo.iter_mut().enumerate() {
            let packed = dst_shift[..h as usize]
                .iter()
                .enumerate()
                .fold(0, |acc, (src, &dst)| acc | field(v as u64, src, dst));
            *t = T::from_row(packed);
        }
        for (v, t) in thi.iter_mut().enumerate() {
            let packed = dst_shift[h as usize..]
                .iter()
                .enumerate()
                .fold(0, |acc, (src, &dst)| acc | field(v as u64, src, dst));
            *t = T::from_row(packed);
        }
        for (block, &base) in column.chunks_exact_mut(lo_rows as usize).zip(thi.iter()) {
            for (entry, &lo) in block.iter_mut().zip(tlo.iter()) {
                *entry = base | lo;
            }
        }
        next_permutation(&mut perm);
    }
    entries
}

/// Steps `perm` to its lexicographic successor, the permutation whose
/// Lehmer rank ([`crate::perm::lehmer_rank`]) is one higher; the last
/// permutation is left as it is.
fn next_permutation(perm: &mut [u8]) {
    let Some(i) = perm.windows(2).rposition(|w| w[0] < w[1]) else {
        return;
    };
    let j = perm
        .iter()
        .rposition(|&x| x > perm[i])
        .expect("perm[i + 1] > perm[i]");
    perm.swap(i, j);
    perm[i + 1..].reverse();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packed::{pack_index, unpack_index};
    use crate::perm::{apply, lehmer_rank, lehmer_unrank, sort_permutation};

    #[test]
    fn shape_matches_formulas() {
        let lut = ReorderLut::build(1, 4, 1 << 20).unwrap();
        assert_eq!(lut.rows(), 16);
        assert_eq!(lut.cols(), 24); // 4!
        assert_eq!(lut.entry_count(), 384);
        assert_eq!(lut.entry_bytes(), 1); // 4 bits -> 1 byte
        let wide = ReorderLut::build(4, 3, 1 << 20).unwrap();
        assert_eq!(wide.entry_bytes(), 2); // 12 bits -> 2 bytes
    }

    #[test]
    fn identity_permutation_is_identity_map() {
        let lut = ReorderLut::build(2, 3, 1 << 20).unwrap();
        let id_rank = lehmer_rank(&[0, 1, 2]).unwrap();
        for row in 0..lut.rows() {
            assert_eq!(lut.lookup(row, id_rank), row);
        }
    }

    #[test]
    fn paper_fig5_example() {
        // Fig. 5: weights [0,0,1] with the sorting permutation of
        // activations [3,0,2] (perm [1,2,0]) reorder to [0,1,0].
        let lut = ReorderLut::build(1, 3, 1 << 16).unwrap();
        let a = [3u16, 0, 2];
        let perm = sort_permutation(&a);
        let perm_id = lehmer_rank(&perm).unwrap();
        let row = pack_index(&[0, 0, 1], 1);
        let reordered = lut.lookup(row, perm_id);
        assert_eq!(unpack_index(reordered, 1, 3), vec![0, 1, 0]);
    }

    /// `(bits, p)` points with `bits·p` in {4, 8, 12, 16, 20}: every
    /// storage width, including the 3-byte paper width held in `u32`.
    const WIDTH_POINTS: [(u8, u32); 5] = [(1, 4), (2, 4), (4, 3), (8, 2), (10, 2)];

    #[test]
    fn lookup_agrees_with_software_reorder_everywhere() {
        for (bits, p) in WIDTH_POINTS {
            let lut = ReorderLut::build(bits, p, 1 << 24).unwrap();
            for perm_id in 0..lut.cols() {
                let perm = lehmer_unrank(perm_id, p).unwrap();
                for row in 0..lut.rows() {
                    let codes = unpack_index(row, bits, p);
                    let expect = pack_index(&apply(&perm, &codes), bits);
                    assert_eq!(lut.lookup(row, perm_id), expect, "bits={bits} p={p}");
                }
            }
        }
    }

    #[test]
    fn entries_are_stored_at_the_narrowest_native_width() {
        for ((bits, p), width) in WIDTH_POINTS.into_iter().zip([1, 1, 2, 2, 4]) {
            let lut = ReorderLut::build(bits, p, 1 << 24).unwrap();
            assert_eq!(lut.resident_bytes(), lut.entry_count() * width);
        }
        assert!(matches!(
            ReorderLut::build(11, 3, u64::MAX),
            Err(LocaLutError::IndexSpaceTooWide { bits: 11, p: 3 })
        ));
    }

    #[test]
    fn le_bytes_roundtrip_at_every_width() {
        for (bits, p) in WIDTH_POINTS {
            let lut = ReorderLut::build(bits, p, 1 << 24).unwrap();
            let bytes = lut.to_le_bytes();
            assert_eq!(bytes.len() as u64, lut.resident_bytes());
            assert_eq!(ReorderLut::from_le_bytes(bits, p, &bytes).unwrap(), lut);
            assert!(ReorderLut::from_le_bytes(bits, p, &bytes[1..]).is_err());
        }
    }

    #[test]
    fn budget_guard() {
        let err = ReorderLut::build(1, 8, 1000).unwrap_err();
        assert!(matches!(err, LocaLutError::BudgetExceeded { .. }));
    }

    #[test]
    fn reordering_is_a_bijection_per_column() {
        // Each permutation column must be a bijection on packed rows.
        let lut = ReorderLut::build(2, 2, 1 << 16).unwrap();
        for perm_id in 0..lut.cols() {
            let mut seen = std::collections::HashSet::new();
            for row in 0..lut.rows() {
                assert!(seen.insert(lut.lookup(row, perm_id)));
            }
            assert_eq!(seen.len() as u64, lut.rows());
        }
    }
}
