//! The byte-budgeted LRU ledger under the LUT cache.
//!
//! Single-threaded on purpose: [`crate::cache::LutCache`] owns the lock
//! and the hit/miss bookkeeping; this module owns residency. Entries are
//! individual images — canonical and reordering images alike — so a
//! reordering image shared by several `(wf, af, p)` keys is resident, and
//! charged, once. Every entry carries the logical tick of its last use
//! (a monotonic counter, not wall-clock, so eviction order is a pure
//! function of the lookup sequence) and its resident byte size. Whenever the ledger grows past
//! its budget, entries are evicted strictly in ascending last-use order
//! until it fits — including, in the degenerate case, the entry that was
//! just inserted (a single image larger than the whole budget is returned
//! to its requester but never kept resident, so `resident_bytes ≤ budget`
//! holds after *every* operation).
//!
//! Disk-restored entries are inserted *untouched* with ticks below every
//! live lookup's: they are evicted before any entry a request has
//! actually used, so budget pressure from a warm restore can never evict
//! an entry a cold engine would have kept — the warm/cold bitwise
//! contract of [`crate::cachelife`] depends on exactly this ordering.

use crate::cache::{ImageKey, LutImage};
use localut::LocaLutError;
use std::collections::HashMap;

#[derive(Debug)]
struct Entry {
    image: LutImage,
    bytes: u64,
    last_use: u64,
    /// False until a lookup first uses this image — i.e. still in the
    /// "restored from disk, never requested" state.
    touched: bool,
}

/// The state a resident image was found in by
/// [`LruLedger::resident_or_build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Found {
    /// Resident and previously requested: a true hit.
    Touched,
    /// Resident from a disk restore, never requested yet: counts as a
    /// miss on the response surface, but skips the build.
    Restored,
}

/// The budgeted `ImageKey → LutImage` map with LRU eviction.
#[derive(Debug, Default)]
pub(crate) struct LruLedger {
    map: HashMap<ImageKey, Entry>,
    budget: Option<u64>,
    resident_bytes: u64,
    tick: u64,
    evictions: u64,
}

impl LruLedger {
    pub(crate) fn new(budget: Option<u64>) -> Self {
        LruLedger {
            budget,
            ..LruLedger::default()
        }
    }

    /// The resident image for `key` and the state it was found in, or a
    /// freshly built image (`None`) that is not yet resident. Stamps no
    /// use (see [`LruLedger::touch`]).
    pub(crate) fn resident_or_build(
        &self,
        key: ImageKey,
    ) -> Result<(LutImage, Option<Found>), LocaLutError> {
        Ok(match self.map.get(&key) {
            Some(entry) if entry.touched => (entry.image.clone(), Some(Found::Touched)),
            Some(entry) => (entry.image.clone(), Some(Found::Restored)),
            None => (LutImage::build(key)?, None),
        })
    }

    /// Stamps a use of `key` (its last use is now), inserting `image`
    /// first when the key is not resident. Eviction waits for
    /// [`LruLedger::enforce_budget`], so one request can touch both of
    /// its images before either can be chosen as a victim.
    pub(crate) fn touch(&mut self, key: ImageKey, image: LutImage) {
        self.tick += 1;
        let entry = self.map.entry(key).or_insert_with(|| {
            let bytes = image.resident_bytes();
            self.resident_bytes += bytes;
            Entry {
                image,
                bytes,
                last_use: 0,
                touched: true,
            }
        });
        entry.last_use = self.tick;
        entry.touched = true;
    }

    /// Inserts a disk-restored image as untouched, in restore order,
    /// *without* consuming a lookup tick (restore ticks must stay below
    /// every live lookup's). An image that would push the ledger over
    /// budget is skipped rather than admitted-then-evicted, so a warm
    /// start never exceeds the budget and never counts phantom evictions.
    /// Returns whether the image was kept.
    pub(crate) fn insert_restored(&mut self, key: ImageKey, image: LutImage) -> bool {
        if self.map.contains_key(&key) {
            return false;
        }
        let bytes = image.resident_bytes();
        if let Some(budget) = self.budget {
            if self.resident_bytes + bytes > budget {
                return false;
            }
        }
        self.tick += 1;
        self.resident_bytes += bytes;
        self.map.insert(
            key,
            Entry {
                image,
                bytes,
                last_use: self.tick,
                touched: false,
            },
        );
        true
    }

    /// Evicts least-recently-used images until the budget is respected.
    pub(crate) fn enforce_budget(&mut self) {
        let Some(budget) = self.budget else { return };
        while self.resident_bytes > budget {
            // Ticks are unique, so the minimum is unambiguous and the
            // eviction order is deterministic for a given lookup sequence.
            let Some(victim) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_use)
                .map(|(k, _)| *k)
            else {
                return;
            };
            let entry = self.map.remove(&victim).expect("victim key just seen");
            self.resident_bytes -= entry.bytes;
            self.evictions += 1;
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    pub(crate) fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    pub(crate) fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Every resident image, sorted by the store's canonical key encoding
    /// so persistence output is byte-stable regardless of map iteration
    /// order.
    pub(crate) fn snapshot(&self) -> Vec<(ImageKey, LutImage)> {
        let mut images: Vec<(ImageKey, LutImage)> = self
            .map
            .iter()
            .map(|(k, e)| (*k, e.image.clone()))
            .collect();
        images.sort_by_key(|(k, _)| super::store::key_bytes(*k));
        images
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::LutKey;
    use quant::NumericFormat;

    fn key(p: u32) -> ImageKey {
        ImageKey::Canonical(LutKey {
            wf: NumericFormat::Int(2),
            af: NumericFormat::Int(3),
            p,
        })
    }

    /// A reordering image smaller than the p=3 canonical image.
    const SMALL: ImageKey = ImageKey::Reorder { bits: 2, p: 3 };

    fn image(key: ImageKey) -> LutImage {
        LutImage::build(key).unwrap()
    }

    fn bytes(key: ImageKey) -> u64 {
        image(key).resident_bytes()
    }

    fn resident(ledger: &LruLedger, key: ImageKey) -> bool {
        ledger.snapshot().iter().any(|(k, _)| *k == key)
    }

    /// Touches `key` and evicts, as one request does.
    fn request(ledger: &mut LruLedger, key: ImageKey) {
        ledger.touch(key, image(key));
        ledger.enforce_budget();
    }

    #[test]
    fn evicts_least_recently_used_first() {
        // Budget fits p=2 and p=3, but not SMALL on top of both.
        assert!(bytes(SMALL) < bytes(key(3)));
        let budget = bytes(key(2)) + bytes(key(3));
        let mut ledger = LruLedger::new(Some(budget));
        request(&mut ledger, key(2));
        request(&mut ledger, key(3));
        // Refresh p=2 so p=3 is now the LRU image.
        request(&mut ledger, key(2));
        request(&mut ledger, SMALL);
        assert_eq!(ledger.evictions(), 1);
        assert!(resident(&ledger, key(2)), "refreshed image survives");
        assert!(!resident(&ledger, key(3)), "LRU image was evicted");
        assert!(ledger.resident_bytes() <= budget);
    }

    #[test]
    fn oversized_image_is_returned_but_not_kept() {
        let mut ledger = LruLedger::new(Some(1));
        request(&mut ledger, key(2));
        assert_eq!(ledger.len(), 0);
        assert_eq!(ledger.resident_bytes(), 0);
        assert_eq!(ledger.evictions(), 1);
    }

    #[test]
    fn touch_marks_a_restored_image_used_without_recharging_it() {
        let mut ledger = LruLedger::new(None);
        assert!(ledger.insert_restored(key(2), image(key(2))));
        let found = |ledger: &LruLedger| ledger.resident_or_build(key(2)).unwrap().1;
        assert_eq!(found(&ledger), Some(Found::Restored));
        ledger.touch(key(2), image(key(2)));
        assert_eq!(found(&ledger), Some(Found::Touched));
        assert_eq!(ledger.resident_bytes(), bytes(key(2)));
    }

    #[test]
    fn restored_images_evict_before_touched_ones() {
        let budget = bytes(key(2)) + bytes(key(3));
        let mut ledger = LruLedger::new(Some(budget));
        assert!(ledger.insert_restored(key(3), image(key(3))));
        // A build that needs the space evicts the untouched restore, even
        // though the restore was inserted "more recently" than any lookup.
        request(&mut ledger, key(2));
        request(&mut ledger, SMALL);
        assert!(!resident(&ledger, key(3)), "restore evicted first");
        assert!(resident(&ledger, key(2)));
    }

    #[test]
    fn over_budget_restore_is_skipped_silently() {
        let mut ledger = LruLedger::new(Some(bytes(key(2))));
        assert!(ledger.insert_restored(key(2), image(key(2))));
        assert!(!ledger.insert_restored(key(3), image(key(3))));
        assert_eq!(ledger.evictions(), 0);
        assert_eq!(ledger.len(), 1);
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let mut ledger = LruLedger::new(None);
        request(&mut ledger, key(3));
        request(&mut ledger, SMALL);
        let snapshot = ledger.snapshot();
        assert_eq!(snapshot.len(), 2);
        let keys: Vec<_> = snapshot
            .iter()
            .map(|(k, _)| super::super::store::key_bytes(*k))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }
}
