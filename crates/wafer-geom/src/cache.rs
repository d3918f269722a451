//! Memoized eq. (4) dies-per-wafer evaluation.
//!
//! The row-packing sum dominates the per-cell cost of every sweep: a
//! Fig 8 surface, a partition search, or a Table 3 regeneration asks
//! for `N_ch` thousands of times, and many of those calls repeat the
//! same `(usable radius, die width, die height)` triple — most visibly
//! in the partition search, where the same die subsets recur across
//! hundreds of groupings, and across repeated surface/report passes.
//!
//! [`dies_per_wafer`] is a drop-in memoized front for
//! [`crate::maly::dies_per_wafer`]. The cache key is the *only* input
//! the formula reads — the usable radius and the two die edges — as
//! their exact `f64::to_bits`, the same discipline as the surface-tile
//! cache. Eq. (4) is a `floor` staircase, so two edges one ulp apart
//! can pack a different number of dies; any coarser key would let the
//! first of them answer for the second, and an answer would depend on
//! earlier traffic. With exact keys a hit is only ever the count the
//! kernel computes for these very inputs, so parallel and serial sweeps
//! observe identical values (see DESIGN.md, "Parallel execution &
//! determinism").
//!
//! The cache is process-global (`OnceLock`), sharded to keep lock
//! contention negligible under the parallel executor, and safe across
//! panics: a poisoned shard is recovered, not unwrapped.
//!
//! Each of the 16 shards holds at most 1,024 entries ([`MAX_ENTRIES`]
//! in all); a store that would overflow a full shard clears it first.
//! A hit returns exactly what the kernel computes, so what the memo
//! holds can change speed, never an answer, and its memory is bounded
//! whatever traffic a long-running process has seen.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use maly_units::DieCount;

use crate::{maly, DieDimensions, Wafer};

/// Calls answered from the memo. Diagnostic kind: concurrent sweeps can
/// race two misses on the same key that a serial run would split
/// hit/miss, so the totals are not thread-count-invariant.
static CACHE_HITS: maly_obs::Counter = maly_obs::Counter::diag("wafer_geom.cache.hits");
/// Calls that computed eq. (4) and stored the result.
static CACHE_MISSES: maly_obs::Counter = maly_obs::Counter::diag("wafer_geom.cache.misses");

/// Number of shards; a power of two so the selector is a mask.
const SHARDS: usize = 16;

/// Entries one shard holds before a store clears it. The largest
/// working set a committed bench repeats is the dense 112×96 Fig 8
/// surface, 10,752 dies, whose fullest shard holds 724 of them, so a
/// repeated sweep of that size stays all hits.
const SHARD_CAPACITY: usize = 1024;

/// Most entries the memo ever holds (16,384).
pub const MAX_ENTRIES: usize = SHARDS * SHARD_CAPACITY;

/// One memo key: the bits of `(usable radius, die width, die height)`
/// in centimeters.
type Key = (u64, u64, u64);

/// Multiply-rotate hasher for the fixed-shape integer key. The default
/// `HashMap` hasher (SipHash) is DoS-resistant but costs more than the
/// whole warm-hit budget of this memo; the key here is three trusted
/// in-process integers, so a two-instruction mix per word is enough.
/// Each `u64` word folds in as `state = (rotl(state, 5) ^ word) × φ64`
/// (the 64-bit golden-ratio constant), whose high and low halves are
/// both well distributed for hashbrown's control-byte scheme.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Fallback for non-u64 fields; the memo key never takes it.
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

type KeyMap = HashMap<Key, u32, BuildHasherDefault<KeyHasher>>;

type Shard = RwLock<KeyMap>;

static CACHE: OnceLock<Vec<Shard>> = OnceLock::new();

fn shards() -> &'static [Shard] {
    CACHE.get_or_init(|| (0..SHARDS).map(|_| Shard::default()).collect())
}

/// Read-locks a shard, recovering from poison: a panicked writer cannot
/// have left a torn entry, because `HashMap::insert` and `clear` of
/// plain integers are not observable mid-write through the lock.
fn read(shard: &Shard) -> RwLockReadGuard<'_, KeyMap> {
    shard.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-locks a shard, recovering from poison (see [`read`]).
fn write(shard: &Shard) -> RwLockWriteGuard<'_, KeyMap> {
    shard.write().unwrap_or_else(PoisonError::into_inner)
}

/// Inserts into a write-locked shard, first clearing it when the new
/// key would grow it past [`SHARD_CAPACITY`]. `clear` keeps the table's
/// allocation, so a full memo neither grows nor reallocates.
fn insert_bounded(map: &mut KeyMap, key: Key, value: u32) {
    if map.len() >= SHARD_CAPACITY && !map.contains_key(&key) {
        map.clear();
    }
    map.insert(key, value);
}

/// The memo key of `die` on a wafer whose usable radius has bits
/// `r_key`.
fn key_of(r_key: u64, die: &DieDimensions) -> Key {
    (
        r_key,
        die.width().value().to_bits(),
        die.height().value().to_bits(),
    )
}

fn shard_of(key: &Key) -> usize {
    // Cheap mix of the three coordinates; only distribution matters.
    let h = key
        .0
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(key.1.rotate_left(21))
        .wrapping_add(key.2.rotate_left(42));
    (h >> 58) as usize & (SHARDS - 1)
}

/// Memoized [`crate::maly::dies_per_wafer`]; bit-identical to the
/// direct call.
#[must_use]
pub fn dies_per_wafer(wafer: &Wafer, die: DieDimensions) -> DieCount {
    let key = key_of(wafer.usable_radius().value().to_bits(), &die);
    let shard = &shards()[shard_of(&key)];
    if let Some(&count) = read(shard).get(&key) {
        CACHE_HITS.incr();
        return DieCount::new(count);
    }
    let count = maly::dies_per_wafer(wafer, die);
    CACHE_MISSES.incr();
    insert_bounded(&mut write(shard), key, count.value());
    count
}

/// A batch element that missed the memo: its output slot, the key and
/// shard it was looked up under, and (once computed) its count.
struct Miss {
    slot: usize,
    shard: usize,
    key: Key,
    count: u32,
}

/// Batched memoized eq. (4): one pass of cache lookups over a λ-batch
/// of dies, with the misses computed through the batched row-sum kernel
/// ([`crate::maly::dies_per_wafer_batch`]) and stored back.
///
/// Composes the two layers: a warm sweep is pure lookups; a cold sweep
/// pays one batched kernel run instead of `n` scalar entries. Each
/// shard is locked once per batch for the lookups and, if the batch
/// missed in it, once more for the stores. Results are bit-identical
/// to calling [`dies_per_wafer`] per element.
#[must_use]
pub fn dies_per_wafer_batch(wafer: &Wafer, dies: &[DieDimensions]) -> Vec<DieCount> {
    let r_key = wafer.usable_radius().value().to_bits();
    // Miss slots hold a zero placeholder until the miss pass patches
    // them; a flat Vec<DieCount> keeps the warm path free of Option
    // repacking.
    let mut out: Vec<DieCount> = Vec::with_capacity(dies.len());
    let mut misses: Vec<Miss> = Vec::new();
    {
        // One read acquisition per shard for the whole batch, instead of
        // one per element: the lock round-trip otherwise costs as much
        // as the warm lookup it guards. Read guards never block each
        // other; writers wait only for this short hit pass.
        let guards: Vec<RwLockReadGuard<'_, KeyMap>> = shards().iter().map(read).collect();
        for (slot, die) in dies.iter().enumerate() {
            let key = key_of(r_key, die);
            let shard = shard_of(&key);
            if let Some(&count) = guards[shard].get(&key) {
                out.push(DieCount::new(count));
            } else {
                misses.push(Miss {
                    slot,
                    shard,
                    key,
                    count: 0,
                });
                out.push(DieCount::new(0));
            }
        }
    }
    CACHE_HITS.add((dies.len() - misses.len()) as u64);
    if misses.is_empty() {
        return out;
    }
    // Shard order groups the stores below; counts are per die, so the
    // order the kernel sees them in cannot change any of them.
    misses.sort_unstable_by_key(|m| m.shard);
    let miss_dies: Vec<DieDimensions> = misses.iter().map(|m| dies[m.slot]).collect();
    let computed = maly::dies_per_wafer_batch(wafer, &miss_dies);
    CACHE_MISSES.add(misses.len() as u64);
    for (m, count) in misses.iter_mut().zip(&computed) {
        m.count = count.value();
        out[m.slot] = *count;
    }
    for run in misses.chunk_by(|x, y| x.shard == y.shard) {
        let mut guard = write(&shards()[run[0].shard]);
        for m in run {
            insert_bounded(&mut guard, m.key, m.count);
        }
    }
    out
}

/// Memoized [`crate::maly::dies_per_wafer_best_orientation`]: both
/// orientations go through the shared cache, so a rotated request of
/// the same rectangle is already warm.
#[must_use]
pub fn dies_per_wafer_best_orientation(wafer: &Wafer, die: DieDimensions) -> DieCount {
    let as_drawn = dies_per_wafer(wafer, die);
    let rotated = dies_per_wafer(wafer, die.rotated());
    as_drawn.max(rotated)
}

/// Cache effectiveness counters (process lifetime totals, read from
/// the `maly-obs` registry) and the memo's current size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Calls answered from the cache.
    pub hits: u64,
    /// Calls that computed eq. (4) and stored the result.
    pub misses: u64,
    /// Entries held now, at most [`MAX_ENTRIES`].
    pub entries: usize,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]` (zero before any call).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Current hit/miss counters — a thin shim over the
/// `wafer_geom.cache.hits` / `wafer_geom.cache.misses` obs counters, so
/// the same totals appear here and in an exported trace — and the
/// number of entries the memo holds.
#[must_use]
pub fn stats() -> CacheStats {
    CacheStats {
        hits: CACHE_HITS.value(),
        misses: CACHE_MISSES.value(),
        entries: shards().iter().map(|shard| read(shard).len()).sum(),
    }
}

/// Empties every shard and resets the counters (for cold-start
/// benchmarks; correctness never requires clearing).
pub fn clear() {
    for shard in shards() {
        write(shard).clear();
    }
    CACHE_HITS.reset();
    CACHE_MISSES.reset();
}

#[cfg(test)]
mod tests {
    use super::*;
    use maly_units::{Centimeters, SquareCentimeters};

    #[test]
    fn cached_count_matches_direct_eq4() {
        let wafer = Wafer::six_inch();
        for area in [0.25, 1.0, 2.976, 4.785216] {
            let die = DieDimensions::square_with_area(SquareCentimeters::new(area).unwrap());
            assert_eq!(
                dies_per_wafer(&wafer, die),
                maly::dies_per_wafer(&wafer, die),
                "area {area}"
            );
            // Second call exercises the hit path; value must not change.
            assert_eq!(
                dies_per_wafer(&wafer, die),
                maly::dies_per_wafer(&wafer, die)
            );
        }
    }

    #[test]
    fn best_orientation_matches_direct() {
        let wafer = Wafer::six_inch();
        let die = DieDimensions::new(
            Centimeters::new(2.9).unwrap(),
            Centimeters::new(0.9).unwrap(),
        );
        assert_eq!(
            dies_per_wafer_best_orientation(&wafer, die),
            maly::dies_per_wafer_best_orientation(&wafer, die)
        );
    }

    #[test]
    fn edge_exclusion_changes_the_key() {
        // Same die, different usable radius: must not alias.
        let die = DieDimensions::square(Centimeters::new(1.0).unwrap());
        let full = dies_per_wafer(&Wafer::six_inch(), die);
        let excluded = dies_per_wafer(
            &Wafer::six_inch().edge_exclusion(Centimeters::new(0.5).unwrap()),
            die,
        );
        assert!(excluded < full);
    }

    #[test]
    fn nearby_but_distinct_dimensions_do_not_alias() {
        let wafer = Wafer::six_inch();
        let a = DieDimensions::square(Centimeters::new(1.0).unwrap());
        let b = DieDimensions::square(Centimeters::new(1.0001).unwrap());
        assert_eq!(dies_per_wafer(&wafer, a), maly::dies_per_wafer(&wafer, a));
        assert_eq!(dies_per_wafer(&wafer, b), maly::dies_per_wafer(&wafer, b));
    }

    #[test]
    fn batch_matches_scalar_and_warms_the_cache() {
        let wafer = Wafer::six_inch();
        let dies: Vec<DieDimensions> = (1..30)
            .map(|i| DieDimensions::square(Centimeters::new(0.17 * f64::from(i)).unwrap()))
            .collect();
        let cold = dies_per_wafer_batch(&wafer, &dies);
        for (die, got) in dies.iter().zip(&cold) {
            assert_eq!(*got, maly::dies_per_wafer(&wafer, *die), "die {die:?}");
        }
        // Second pass must be pure hits and identical.
        let before = stats();
        let warm = dies_per_wafer_batch(&wafer, &dies);
        let after = stats();
        assert_eq!(cold, warm);
        assert!(after.hits >= before.hits + dies.len() as u64);
    }

    #[test]
    fn batch_and_scalar_share_the_memo() {
        let wafer = Wafer::six_inch();
        let die = DieDimensions::square(Centimeters::new(0.77).unwrap());
        let scalar = dies_per_wafer(&wafer, die);
        let batch = dies_per_wafer_batch(&wafer, &[die, die]);
        assert_eq!(batch, vec![scalar, scalar]);
    }

    #[test]
    fn concurrent_lookups_agree() {
        let wafer = Wafer::six_inch();
        let reference: Vec<u32> = (1..40)
            .map(|i| {
                let die = DieDimensions::square(Centimeters::new(i as f64 * 0.1).unwrap());
                maly::dies_per_wafer(&wafer, die).value()
            })
            .collect();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for (i, want) in (1..40).zip(&reference) {
                        let die = DieDimensions::square(Centimeters::new(i as f64 * 0.1).unwrap());
                        assert_eq!(dies_per_wafer(&wafer, die).value(), *want);
                    }
                });
            }
        });
    }
}
