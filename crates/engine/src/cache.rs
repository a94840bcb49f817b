//! The keyed LUT cache: one image per distinct dependency, shared by
//! every request that needs it.
//!
//! Building LUT images is the expensive host-side step of a LUT kernel
//! launch (up to ~12 M entries at W1A3, `p = 8`). A serving engine sees
//! the *same* configuration over and over — every repeated GEMM or
//! inference request at one bit-config re-derives the same plan — so the
//! engine builds each image once and hands out `Arc` clones from then on,
//! the software twin of the paper's one-time §V-A broadcast amortized
//! across a whole serving session instead of a single launch.
//!
//! The ledger holds two kinds of image, each keyed by exactly what it
//! depends on ([`ImageKey`]): a canonical image by `(wf, af, p)`, and a
//! reordering image by `(wf.bits(), p)` alone — §IV-B indexes it by
//! weight pattern and permutation id, never by activation format. W1A3
//! and W1A2 at one `p` therefore share one reordering image, and the
//! placement a kernel runs under keys nothing (both placements read the
//! same images). A request assembles its [`SharedLuts`] from the two
//! `Arc`s.
//!
//! Since the cache-lifecycle subsystem ([`crate::cachelife`]) the map is
//! no longer grow-only: an optional byte budget bounds residency with
//! deterministic LRU eviction ([`crate::cachelife::lru`]), and images
//! can be restored from an on-disk image store
//! ([`crate::cachelife::store`]) on engine construction. Neither moves a
//! simulated number — see the module docs of [`crate::cachelife`] for
//! the full determinism contract.

use crate::cachelife::lru::{Found, LruLedger};
use crate::lock_recover;
use localut::canonical::CanonicalLut;
use localut::kernels::{SharedLuts, MAX_MATERIALIZED_ENTRIES};
use localut::reorder::ReorderLut;
use localut::LocaLutError;
use quant::NumericFormat;
use std::sync::{Arc, Mutex, MutexGuard};

/// A request's LUT configuration: everything its [`SharedLuts`] pair
/// depends on, and the key of its canonical image
/// (`ImageKey::Canonical`). The reordering half is keyed by
/// [`LutKey::reorder_key`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LutKey {
    /// Weight format.
    pub wf: NumericFormat,
    /// Activation format.
    pub af: NumericFormat,
    /// Packing degree.
    pub p: u32,
}

impl LutKey {
    /// The key of the reordering image this configuration reads, shared
    /// by every activation format at the same weight width and degree.
    #[must_use]
    pub fn reorder_key(self) -> ImageKey {
        ImageKey::Reorder {
            bits: self.wf.bits(),
            p: self.p,
        }
    }
}

/// The key of one resident image: what the image depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ImageKey {
    /// A canonical image, a function of `(wf, af, p)`.
    Canonical(LutKey),
    /// A reordering image, a function of the weight width and `p` only.
    Reorder {
        /// Weight code bitwidth.
        bits: u8,
        /// Packing degree.
        p: u32,
    },
}

/// One resident image, shared by reference count.
#[derive(Debug, Clone)]
pub enum LutImage {
    /// A canonical LUT.
    Canonical(Arc<CanonicalLut<i32>>),
    /// A reordering LUT.
    Reorder(Arc<ReorderLut>),
}

impl LutImage {
    /// Builds the image `key` names.
    ///
    /// # Errors
    ///
    /// LUT build errors ([`LocaLutError::BudgetExceeded`] when the
    /// materialization guard trips, format/degree errors).
    pub fn build(key: ImageKey) -> Result<Self, LocaLutError> {
        Ok(match key {
            ImageKey::Canonical(LutKey { wf, af, p }) => LutImage::Canonical(Arc::new(
                CanonicalLut::build(wf, af, p, MAX_MATERIALIZED_ENTRIES)?,
            )),
            ImageKey::Reorder { bits, p } => LutImage::Reorder(Arc::new(ReorderLut::build(
                bits,
                p,
                MAX_MATERIALIZED_ENTRIES,
            )?)),
        })
    }

    /// Host bytes the image occupies: canonical entries at 4 B,
    /// reordering entries at their stored width.
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        match self {
            LutImage::Canonical(lut) => lut.entry_count() * std::mem::size_of::<i32>() as u64,
            LutImage::Reorder(lut) => lut.resident_bytes(),
        }
    }
}

/// Pairs one key's two images (their kinds follow their keys, and both
/// keys derive from one `(wf, af, p)`).
fn pair(canonical: &LutImage, reorder: &LutImage) -> SharedLuts {
    match (canonical, reorder) {
        (LutImage::Canonical(c), LutImage::Reorder(r)) => {
            SharedLuts::from_shared(Arc::clone(c), Arc::clone(r))
                .expect("a key's two images agree on (wf.bits(), p)")
        }
        _ => unreachable!("image kinds follow their keys"),
    }
}

/// Running counters of cache behavior (monotonic over the engine's life,
/// except `entries`/`resident_bytes`, which track current residency).
///
/// All of these are **host-side observables**: they appear in
/// [`crate::ServeReport`] and operator-facing output, never inside the
/// deterministic [`crate::ServeSummary`] or on simulated metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Requests served from an already-requested resident image.
    pub hits: u64,
    /// Requests that saw their key for the first time in this process —
    /// whether the image was then built (`misses - restored`) or already
    /// resident from a disk restore (`restored`).
    pub misses: u64,
    /// Resident images discarded by the byte-budget LRU policy.
    pub evictions: u64,
    /// Host bytes the resident images currently occupy, each distinct
    /// image counted once (never exceeds a configured budget).
    pub resident_bytes: u64,
    /// Lookups whose image build *failed* — neither a hit nor a miss, so
    /// without this counter a failing configuration would be invisible in
    /// the cache telemetry.
    pub failed_builds: u64,
    /// The subset of `misses` whose build was skipped because the image
    /// was restored from disk (the warm-start win, counted).
    pub restored: u64,
    /// Distinct images currently resident (canonical and reordering
    /// images each count one).
    pub entries: usize,
}

impl CacheStats {
    /// Total completed lookups (`hits + misses`; failed builds are
    /// counted separately in `failed_builds`).
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }
}

/// How one request's LUT lookup resolved (recorded on responses whose
/// method uses shared LUT images; LUT-free methods record nothing).
///
/// The outcome answers "was this `(wf, af, p)` requested before in this
/// serving process, and is its canonical image still resident?" — **not**
/// "was a build skipped": the first request for a disk-restored key
/// records a [`CacheOutcome::Miss`] (and bumps [`CacheStats::restored`]
/// instead of paying the build), and a request whose shared reordering
/// image was already resident still records a miss when its canonical
/// image was not, so responses stay bitwise identical between warm and
/// cold engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The images were already resident from a previous request.
    Hit,
    /// This was the first request for the key; the images were built (or
    /// adopted from a disk restore) and are now resident.
    Miss,
}

#[derive(Debug, Default)]
struct Inner {
    ledger: LruLedger,
    hits: u64,
    misses: u64,
    failed_builds: u64,
    restored: u64,
}

/// A thread-safe `LutKey → SharedLuts` cache over a ledger of distinct
/// images.
///
/// `SharedLuts` is internally `Arc`-backed, so a cached pair is cloned
/// out by reference-count bump — N concurrent requests read one image.
/// Builds run under the lock: two racing first requests for one key
/// would otherwise both pay the multi-megabyte build, and determinism of
/// the recorded hit/miss outcome matters more here than lock hold time
/// (the engine's batch path warms the cache serially for exactly that
/// reason).
#[derive(Debug, Default)]
pub(crate) struct LutCache {
    inner: Mutex<Inner>,
}

impl LutCache {
    /// An empty cache with an optional resident-byte budget.
    pub(crate) fn with_budget(budget: Option<u64>) -> Self {
        LutCache {
            inner: Mutex::new(Inner {
                ledger: LruLedger::new(budget),
                ..Inner::default()
            }),
        }
    }

    /// Locks the cache via [`lock_recover`]: a serving worker that
    /// panicked while holding the lock can only have left fully-built
    /// images behind (the ledger is mutated only *after* every build a
    /// lookup needs has succeeded), so the cached state is valid and
    /// every other server thread keeps serving. Before this, one
    /// panicking worker turned every later `submit` into a panic — a
    /// wedge, not a recovery.
    fn lock_inner(&self) -> MutexGuard<'_, Inner> {
        lock_recover(&self.inner)
    }

    /// Returns the shared images for `key`, building whichever of the two
    /// is not resident (unless a disk restore already staged it) and
    /// evicting back under the byte budget afterwards.
    ///
    /// The canonical image is touched first, then the reordering image,
    /// so a reordering image is always more recently used than every
    /// canonical image that reads it: LRU never evicts it while one of
    /// those is still resident.
    pub(crate) fn get_or_build(
        &self,
        key: LutKey,
    ) -> Result<(SharedLuts, CacheOutcome), LocaLutError> {
        let (canonical_key, reorder_key) = (ImageKey::Canonical(key), key.reorder_key());
        let mut inner = self.lock_inner();
        // Build whatever is missing before the ledger changes at all, so
        // a failed build leaves nothing half-inserted.
        let images = inner
            .ledger
            .resident_or_build(canonical_key)
            .and_then(|canonical| Ok((canonical, inner.ledger.resident_or_build(reorder_key)?)));
        let ((canonical, found), (reorder, _)) = match images {
            Ok(images) => images,
            Err(e) => {
                inner.failed_builds += 1;
                return Err(e);
            }
        };
        let luts = pair(&canonical, &reorder);
        inner.ledger.touch(canonical_key, canonical);
        inner.ledger.touch(reorder_key, reorder);
        inner.ledger.enforce_budget();
        let outcome = match found {
            Some(Found::Touched) => {
                inner.hits += 1;
                CacheOutcome::Hit
            }
            // First request for a restored key: the build is skipped,
            // but the response-visible outcome stays the cold engine's (a
            // miss), preserving bitwise-identical responses across warm
            // restarts.
            Some(Found::Restored) => {
                inner.misses += 1;
                inner.restored += 1;
                CacheOutcome::Miss
            }
            None => {
                inner.misses += 1;
                CacheOutcome::Miss
            }
        };
        Ok((luts, outcome))
    }

    /// Adopts disk-restored images in manifest order (untouched, evicted
    /// before anything a request has used, skipped when over budget).
    /// Returns how many images were kept resident.
    pub(crate) fn restore(&self, images: Vec<(ImageKey, LutImage)>) -> usize {
        let mut inner = self.lock_inner();
        images
            .into_iter()
            .filter(|(key, image)| inner.ledger.insert_restored(*key, image.clone()))
            .count()
    }

    /// Every resident image in the store's canonical order, for
    /// persistence.
    pub(crate) fn snapshot(&self) -> Vec<(ImageKey, LutImage)> {
        self.lock_inner().ledger.snapshot()
    }

    pub(crate) fn stats(&self) -> CacheStats {
        let inner = self.lock_inner();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.ledger.evictions(),
            resident_bytes: inner.ledger.resident_bytes(),
            failed_builds: inner.failed_builds,
            restored: inner.restored,
            entries: inner.ledger.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(af: NumericFormat, p: u32) -> LutKey {
        LutKey {
            wf: NumericFormat::Int(2),
            af,
            p,
        }
    }

    const A3: NumericFormat = NumericFormat::Int(3);
    const U3: NumericFormat = NumericFormat::Uint(3);

    fn canonical_bytes(key: LutKey) -> u64 {
        LutImage::build(ImageKey::Canonical(key))
            .unwrap()
            .resident_bytes()
    }

    #[test]
    fn second_lookup_hits_and_shares_the_image() {
        let cache = LutCache::default();
        let (first, o1) = cache.get_or_build(key(A3, 2)).unwrap();
        let (second, o2) = cache.get_or_build(key(A3, 2)).unwrap();
        assert_eq!((o1, o2), (CacheOutcome::Miss, CacheOutcome::Hit));
        // Same underlying images, not a rebuild.
        assert!(std::ptr::eq(first.canonical(), second.canonical()));
        assert!(std::ptr::eq(first.reorder(), second.reorder()));
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.entries, stats.evictions),
            (1, 1, 2, 0)
        );
        assert_eq!(stats.resident_bytes, first.resident_bytes());
        assert_eq!(stats.lookups(), 2);
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let cache = LutCache::default();
        cache.get_or_build(key(A3, 2)).unwrap();
        cache.get_or_build(key(A3, 3)).unwrap();
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 2, 4));
    }

    #[test]
    fn activation_formats_share_one_reordering_image() {
        let w1 = |af| LutKey {
            wf: NumericFormat::Bipolar,
            af,
            p: 3,
        };
        let cache = LutCache::default();
        let (w1a3, _) = cache.get_or_build(w1(A3)).unwrap();
        let before = cache.stats().resident_bytes;
        let (w1a2, outcome) = cache.get_or_build(w1(NumericFormat::Int(2))).unwrap();
        // A new (wf, af, p) is a miss, but only its canonical image is
        // built: the reordering image is the resident one.
        assert_eq!(outcome, CacheOutcome::Miss);
        assert!(std::ptr::eq(w1a3.reorder(), w1a2.reorder()));
        assert!(!std::ptr::eq(w1a3.canonical(), w1a2.canonical()));
        let stats = cache.stats();
        assert_eq!(
            stats.resident_bytes - before,
            canonical_bytes(w1(NumericFormat::Int(2)))
        );
        assert_eq!(stats.entries, 3);
    }

    #[test]
    fn reordering_images_outlive_the_canonical_images_that_read_them() {
        // Under every budget, after every request, each resident
        // canonical image's reordering image is resident too.
        let sequence = [key(A3, 2), key(U3, 2), key(A3, 3), key(A3, 2), key(U3, 3)];
        let total: u64 = sequence
            .iter()
            .map(|k| SharedLuts::build(k.wf, k.af, k.p).unwrap().resident_bytes())
            .sum();
        for budget in (1..=8).map(|eighths| total * eighths / 8) {
            let cache = LutCache::with_budget(Some(budget));
            for k in sequence {
                cache.get_or_build(k).unwrap();
                let resident: Vec<ImageKey> =
                    cache.snapshot().into_iter().map(|(k, _)| k).collect();
                for image in &resident {
                    if let ImageKey::Canonical(k) = image {
                        assert!(resident.contains(&k.reorder_key()), "budget {budget}");
                    }
                }
                assert!(cache.stats().resident_bytes <= budget);
            }
        }
    }

    #[test]
    fn poisoned_lock_recovers_instead_of_wedging() {
        let cache = LutCache::default();
        cache.get_or_build(key(A3, 2)).unwrap();
        // Poison the mutex the way a panicking serving worker would:
        // panic while holding the guard.
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| {
                let _guard = cache.inner.lock().unwrap();
                panic!("worker dies while holding the cache lock");
            });
            assert!(handle.join().is_err(), "the worker must have panicked");
        });
        assert!(cache.inner.is_poisoned());
        // The cache still serves — the resident images survive and new
        // keys still build — instead of panicking every caller.
        let (_, outcome) = cache.get_or_build(key(A3, 2)).unwrap();
        assert_eq!(outcome, CacheOutcome::Hit);
        cache.get_or_build(key(A3, 3)).unwrap();
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 4));
    }

    #[test]
    fn failed_builds_are_counted_but_not_cached() {
        let cache = LutCache::default();
        let bad = LutKey {
            wf: NumericFormat::Int(16),
            af: NumericFormat::Int(16),
            p: 8,
        };
        assert!(cache.get_or_build(bad).is_err());
        assert!(cache.get_or_build(bad).is_err());
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        // A failed build is neither a hit nor a miss — it is its own
        // counter, so the failing configuration stays visible.
        assert_eq!(stats.lookups(), 0);
        assert_eq!(stats.failed_builds, 2);
    }

    #[test]
    fn eviction_under_budget_pressure_rebuilds_on_refetch() {
        // Budget for exactly one pair: the second key (same weight width
        // and degree, so the same reordering image) evicts the first
        // key's canonical image, and refetching the first rebuilds it (a
        // miss, not an error).
        let probe = SharedLuts::build(NumericFormat::Int(2), A3, 2).unwrap();
        assert_eq!(canonical_bytes(key(A3, 2)), canonical_bytes(key(U3, 2)));
        let cache = LutCache::with_budget(Some(probe.resident_bytes()));
        let (first, _) = cache.get_or_build(key(A3, 2)).unwrap();
        cache.get_or_build(key(U3, 2)).unwrap();
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().entries, 2);
        let (again, outcome) = cache.get_or_build(key(A3, 2)).unwrap();
        assert_eq!(outcome, CacheOutcome::Miss);
        // The rebuild is bitwise identical to the evicted image, and the
        // shared reordering image was never evicted.
        assert_eq!(first.canonical(), again.canonical());
        assert!(std::ptr::eq(first.reorder(), again.reorder()));
        assert!(cache.stats().resident_bytes <= probe.resident_bytes());
    }

    #[test]
    fn restored_images_serve_first_request_as_miss_without_build() {
        let cache = LutCache::default();
        let k = key(A3, 2);
        let images = [ImageKey::Canonical(k), k.reorder_key()]
            .map(|image_key| (image_key, LutImage::build(image_key).unwrap()));
        assert_eq!(cache.restore(images.to_vec()), 2);
        let (luts, outcome) = cache.get_or_build(k).unwrap();
        // Cold-equivalent outcome, but the build was skipped.
        assert_eq!(outcome, CacheOutcome::Miss);
        assert_eq!(cache.stats().restored, 1);
        assert_eq!(cache.stats().misses, 1);
        let (_, second) = cache.get_or_build(k).unwrap();
        assert_eq!(second, CacheOutcome::Hit);
        assert_eq!(cache.stats().resident_bytes, luts.resident_bytes());
    }
}
