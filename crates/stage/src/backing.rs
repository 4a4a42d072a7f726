//! The capacity tier behind the burst buffer.
//!
//! Drained extents are stored at whole-extent granularity keyed by
//! `(path, stripe)`, mirroring the burst-buffer shard's index, so a drain is
//! a consistent snapshot of one extent and a stage-in restores it
//! byte-for-byte.
//!
//! Every stored extent carries a checksum computed at write-back time
//! ([`extent_checksum`]): the capacity tier is the cheaper, colder medium,
//! so silent corruption there is the operational hazard the
//! [`ScrubPipeline`](crate::scrub::ScrubPipeline) exists to catch. The
//! checksum is recomputed on every [`BackingStore::write_back_extent`], so a
//! legitimate rewrite (a fresh drain of a re-dirtied extent) can never be
//! mistaken for corruption.
//!
//! The tier stores and returns the shard's own [`Extent`] buffers: a drain
//! hands the snapshot's buffer over and a verified restore hands the same
//! buffer back, so neither copies the extent, and a replicated tier keeps one
//! buffer for all replicas. Isolation is copy-on-write (see
//! [`themis_fs::store`]): a shard write after the drain copies the shard's
//! side, and [`CapacityTier::corrupt_extent`] copies the tier's side before
//! flipping a bit, so injected corruption reaches neither the shard nor
//! another replica. Only the pinned `&[u8]`/`Vec<u8>` wrappers,
//! [`BackingStore::write_back`] and [`verified_read_back`], still copy.
//!
//! The checksum hashes eight independent 64-bit lanes, one
//! multiply-xor-rotate step per 8-byte word, then folds the lanes, an FNV-1a
//! pass over the sub-block tail and the length. Every step after an input
//! word is a bijection of the running state, so changing any one word (in
//! particular, flipping any one bit) always changes the sum. At ~44 µs/MiB
//! a write-back or verified read pays less for the sum than for copying the
//! extent.

use parking_lot::RwLock;
use std::collections::BTreeMap;
use themis_device::DeviceConfig;
use themis_fs::Extent;

/// Independent hash lanes in [`extent_checksum`]; one 64-byte block feeds
/// one little-endian `u64` word to each.
const LANES: usize = 8;

/// Odd (2⁶⁴/φ), so multiplying by it permutes `u64`.
const LANE_PRIME: u64 = 0x9e37_79b9_7f4a_7c15;

/// One lane step: xor, multiply by an odd constant, rotate. Each of the
/// three is a bijection of `u64`, so the step is a bijection of `state` for
/// every fixed `word` and of `word` for every fixed `state`.
fn lane_step(state: u64, word: u64) -> u64 {
    (state ^ word).wrapping_mul(LANE_PRIME).rotate_left(31)
}

/// Checksum of one extent's contents, computed at drain write-back time and
/// stored alongside the extent. It is an *integrity* check against silent
/// medium corruption (the scrubber's threat model), not a cryptographic one.
///
/// Construction: eight `u64` lanes, each seeded distinctly, absorb the
/// extent in 64-byte blocks — little-endian word `i` of every block goes to
/// lane `i` through one xor, multiply-by-odd, rotate step. The lanes are
/// then folded in order with the same step, the ragged tail (< 64 bytes)
/// runs through byte-wise FNV-1a, and the length is folded in last. The
/// lanes have no dependency on each other, so the CPU overlaps their
/// multiplies: ~44 µs/MiB (≈ 22 GiB/s) on one core of a 2-vCPU x86-64 host,
/// where byte-at-a-time FNV-1a over the whole extent takes ~1.4 ms/MiB.
///
/// **Changing any one word, or any one tail byte, always changes the sum.**
/// Every later step — the rest of that word's lane, the fold, each FNV tail
/// step and the length fold — is a bijection of the running state once the
/// other inputs are fixed, so two different states can never meet again.
/// A single flipped bit is such a change.
pub fn extent_checksum(data: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut lanes: [u64; LANES] = std::array::from_fn(|i| lane_step(OFFSET, i as u64));
    let mut blocks = data.chunks_exact(8 * LANES);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let mut bytes = [0u8; 8];
            bytes.copy_from_slice(word);
            *lane = lane_step(*lane, u64::from_le_bytes(bytes));
        }
    }
    let mut hash = lanes.into_iter().fold(OFFSET, lane_step);
    for byte in blocks.remainder() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(PRIME);
    }
    // Fold the length in so a truncation to a prefix with the same rolling
    // hash state (e.g. the empty extent) cannot collide with the original.
    hash ^= data.len() as u64;
    hash.wrapping_mul(PRIME)
}

/// A capacity-tier store that absorbs drained burst-buffer extents and
/// serves stage-in reads.
///
/// Implementations must be safe to share between the server core and
/// out-of-band inspection (tests, status reporting); the in-tree
/// [`CapacityTier`] uses interior locking. The [`device`](BackingStore::device)
/// configuration is the tier's *performance model* — the server charges drain
/// writes and stage-in reads against a
/// [`DeviceTimeline`](themis_device::DeviceTimeline) built from it, which is
/// what bounds drain throughput to capacity-tier speed.
pub trait BackingStore: Send + Sync {
    /// Short name for logs and status output (e.g. `"capacity"`).
    fn name(&self) -> &'static str;

    /// The device model of this tier (bandwidth, per-op overhead, workers).
    fn device(&self) -> DeviceConfig;

    /// Stores a full extent snapshot, keeping `data`'s buffer rather than a
    /// copy, and replaces any previous copy. The implementation records
    /// [`extent_checksum`]`(data)` alongside the extent so a scrubber can
    /// later verify the copy without trusting the medium.
    fn write_back_extent(&self, path: &str, stripe: u64, data: Extent);

    /// [`BackingStore::write_back_extent`] of a copy of `data`.
    fn write_back(&self, path: &str, stripe: u64, data: &[u8]) {
        self.write_back_extent(path, stripe, Extent::from(data.to_vec()));
    }

    /// The stored buffer of a full extent together with the checksum
    /// recorded at write-back time, atomically (data and checksum come from
    /// the same snapshot, so a concurrent rewrite can never produce a torn
    /// pair). `None` when the tier has no copy. A mismatch between
    /// [`extent_checksum`] of the returned data and the returned checksum
    /// means the stored bytes rotted after they were written.
    fn read_back_with_checksum(&self, path: &str, stripe: u64) -> Option<(Extent, u64)>;

    /// The first stored extent key strictly after `after` in `(path,
    /// stripe)` order (or the first key overall for `None`), with its
    /// length: the cursor primitive the scrub pipeline walks the tier with.
    fn next_extent_after(&self, after: Option<&(String, u64)>) -> Option<(String, u64, u64)>;

    /// Whether the tier holds a copy of the extent.
    fn contains(&self, path: &str, stripe: u64) -> bool;

    /// Drops every extent of `path` (unlink propagation), returning the
    /// bytes freed.
    fn remove_path(&self, path: &str) -> u64;

    /// Drops one extent, returning the bytes freed (`0` when absent).
    /// [`write_back_guarded`](crate::write_back_guarded) uses this to take
    /// back a write-back that delete-wins dropped, and the rebalance
    /// pipeline to prune a stale replica from a child the shard map no
    /// longer places it on.
    fn remove_extent(&self, path: &str, stripe: u64) -> u64;

    /// Downcast seam to the sharded router, for callers (the server's
    /// rebalance executor, the conformance harness) that need the reshard
    /// API — `None` for plain tiers, avoiding a blanket `Any` bound on the
    /// trait.
    fn as_sharded(&self) -> Option<&crate::shard::ShardedStore> {
        None
    }

    /// Total bytes stored in the tier.
    fn bytes_stored(&self) -> u64;

    /// Bytes stored for one path.
    fn bytes_for(&self, path: &str) -> u64;

    /// Number of extents stored.
    fn extent_count(&self) -> usize;
}

/// The tier's buffer of an extent, only if its stored bytes still match the
/// checksum recorded at write-back — the *verified* read every restore /
/// read-through path must use, and the one place raw tier reads are
/// judged. Serving an unverified tier copy would not just hand a client
/// corrupt bytes: the corrupt data would land in the burst buffer as a clean
/// resident copy, which the next scrub pass would then use as its repair
/// source — recomputing the checksum over the damaged bytes and laundering
/// the corruption past every future verification. `None` when the tier has
/// no copy *or* the copy fails verification; callers treat both as a miss,
/// and the scrub pass quarantines the damaged extent.
pub fn verified_extent(backing: &dyn BackingStore, path: &str, stripe: u64) -> Option<Extent> {
    let (data, stored) = backing.read_back_with_checksum(path, stripe)?;
    (extent_checksum(&data) == stored).then_some(data)
}

/// A copy of [`verified_extent`]'s buffer, for callers that need to own the
/// bytes.
pub fn verified_read_back(backing: &dyn BackingStore, path: &str, stripe: u64) -> Option<Vec<u8>> {
    verified_extent(backing, path, stripe).map(Extent::into_vec)
}

/// One stored extent: its buffer plus the checksum recorded at write-back.
type StoredExtent = (Extent, u64);

/// The tier's extents with their total length, kept under one lock so the
/// count moves with every insert, replace and remove.
#[derive(Debug, Default)]
struct Stored {
    /// `(path, stripe)` → stored extent.
    extents: BTreeMap<(String, u64), StoredExtent>,
    /// Sum of the stored extents' lengths.
    bytes: u64,
}

impl Stored {
    /// Stores `extent` under `key`, replacing any previous one.
    fn insert(&mut self, key: (String, u64), extent: StoredExtent) {
        self.bytes += extent.0.len() as u64;
        let old = self.extents.insert(key, extent);
        self.bytes -= old.map_or(0, |(e, _)| e.len() as u64);
    }

    /// Drops the extent under `key`, returning the bytes freed.
    fn remove(&mut self, key: &(String, u64)) -> u64 {
        let freed = self.extents.remove(key).map_or(0, |(e, _)| e.len() as u64);
        self.bytes -= freed;
        freed
    }
}

/// The in-tree capacity tier: an in-memory extent store whose speed is
/// described by a [`DeviceConfig`] (typically
/// [`DeviceConfig::capacity_hdd`], a disk-speed preset far below the
/// burst-buffer NVMe).
#[derive(Debug)]
pub struct CapacityTier {
    device: DeviceConfig,
    stored: RwLock<Stored>,
}

impl CapacityTier {
    /// Creates a tier whose performance is modelled by `device`.
    pub fn new(device: DeviceConfig) -> Self {
        CapacityTier {
            device,
            stored: RwLock::new(Stored::default()),
        }
    }

    /// The conventional disk-speed capacity tier
    /// ([`DeviceConfig::capacity_hdd`]).
    pub fn hdd() -> Self {
        CapacityTier::new(DeviceConfig::capacity_hdd())
    }

    /// Stores `data` with its write-back checksum `sum`, which the caller
    /// computes before the lock is taken: a deployment-wide tier is read by
    /// every server's restores and scrubs meanwhile.
    fn store(&self, path: &str, stripe: u64, data: Extent, sum: u64) {
        let key = (path.to_string(), stripe);
        self.stored.write().insert(key, (data, sum));
    }

    /// Fault injection for integrity testing: flips one bit of the stored
    /// extent at `byte_offset` **without** updating the recorded checksum —
    /// the silent medium corruption the scrubber exists to catch. Returns
    /// whether an extent was corrupted (`false` when the tier holds no copy
    /// or the offset is past its end). A buffer the tier shares with the
    /// shard or another replica is copied first, so only this tier's copy
    /// rots.
    ///
    /// This deliberately lives on the concrete [`CapacityTier`] rather than
    /// on [`BackingStore`]: production code paths have no reason to corrupt
    /// data, and keeping it off the trait keeps it out of the server's
    /// reach.
    pub fn corrupt_extent(&self, path: &str, stripe: u64, byte_offset: usize) -> bool {
        let mut stored = self.stored.write();
        match stored.extents.get_mut(&(path.to_string(), stripe)) {
            Some((data, _)) if byte_offset < data.len() => {
                data.make_mut()[byte_offset] ^= 0x40;
                true
            }
            _ => false,
        }
    }
}

impl BackingStore for CapacityTier {
    fn name(&self) -> &'static str {
        "capacity"
    }

    fn device(&self) -> DeviceConfig {
        self.device
    }

    fn write_back_extent(&self, path: &str, stripe: u64, data: Extent) {
        let sum = extent_checksum(&data);
        self.store(path, stripe, data, sum);
    }

    fn write_back(&self, path: &str, stripe: u64, data: &[u8]) {
        // Hash the caller's bytes, still in cache, rather than the copy: a
        // 1 MiB copy does not leave its destination cached, and hashing the
        // copy costs ~45 µs/MiB more on a 2-vCPU x86-64 host.
        let sum = extent_checksum(data);
        self.store(path, stripe, Extent::from(data.to_vec()), sum);
    }

    fn read_back_with_checksum(&self, path: &str, stripe: u64) -> Option<(Extent, u64)> {
        self.stored
            .read()
            .extents
            .get(&(path.to_string(), stripe))
            .map(|(data, sum)| (data.clone(), *sum))
    }

    fn next_extent_after(&self, after: Option<&(String, u64)>) -> Option<(String, u64, u64)> {
        use std::ops::Bound;
        let stored = self.stored.read();
        let lower = match after {
            Some(key) => Bound::Excluded(key.clone()),
            None => Bound::Unbounded,
        };
        stored
            .extents
            .range((lower, Bound::Unbounded))
            .next()
            .map(|((path, stripe), (data, _))| (path.clone(), *stripe, data.len() as u64))
    }

    fn contains(&self, path: &str, stripe: u64) -> bool {
        self.stored
            .read()
            .extents
            .contains_key(&(path.to_string(), stripe))
    }

    fn remove_extent(&self, path: &str, stripe: u64) -> u64 {
        self.stored.write().remove(&(path.to_string(), stripe))
    }

    fn remove_path(&self, path: &str) -> u64 {
        let mut stored = self.stored.write();
        let keys: Vec<(String, u64)> = stored
            .extents
            .range((path.to_string(), 0)..=(path.to_string(), u64::MAX))
            .map(|(k, _)| k.clone())
            .collect();
        keys.iter().map(|k| stored.remove(k)).sum()
    }

    fn bytes_stored(&self) -> u64 {
        self.stored.read().bytes
    }

    fn bytes_for(&self, path: &str) -> u64 {
        self.stored
            .read()
            .extents
            .range((path.to_string(), 0)..=(path.to_string(), u64::MAX))
            .map(|(_, (e, _))| e.len() as u64)
            .sum()
    }

    fn extent_count(&self) -> usize {
        self.stored.read().extents.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_back_read_back_roundtrip() {
        let tier = CapacityTier::hdd();
        tier.write_back("/ckpt", 0, &[7u8; 1024]);
        tier.write_back("/ckpt", 3, &[9u8; 512]);
        assert_eq!(
            verified_read_back(&tier, "/ckpt", 0).unwrap(),
            vec![7u8; 1024]
        );
        assert_eq!(
            verified_read_back(&tier, "/ckpt", 3).unwrap(),
            vec![9u8; 512]
        );
        assert!(verified_read_back(&tier, "/ckpt", 1).is_none());
        assert!(tier.contains("/ckpt", 3));
        assert_eq!(tier.bytes_stored(), 1536);
        assert_eq!(tier.bytes_for("/ckpt"), 1536);
        assert_eq!(tier.extent_count(), 2);
    }

    #[test]
    fn write_back_replaces_previous_snapshot() {
        let tier = CapacityTier::hdd();
        tier.write_back("/f", 0, &[1u8; 100]);
        tier.write_back("/f", 0, &[2u8; 50]);
        assert_eq!(verified_read_back(&tier, "/f", 0).unwrap(), vec![2u8; 50]);
        assert_eq!(tier.bytes_stored(), 50);
    }

    #[test]
    fn remove_path_frees_only_that_path() {
        let tier = CapacityTier::hdd();
        tier.write_back("/a", 0, &[1u8; 10]);
        tier.write_back("/a", 1, &[1u8; 20]);
        tier.write_back("/b", 0, &[1u8; 5]);
        assert_eq!(tier.remove_path("/a"), 30);
        assert_eq!(tier.bytes_stored(), 5);
        assert!(tier.contains("/b", 0));
    }

    #[test]
    fn device_preset_is_slower_than_burst_buffer() {
        let tier = CapacityTier::hdd();
        assert!(tier.device().combined_bw() < DeviceConfig::optane_ssd().combined_bw());
    }

    #[test]
    fn checksum_is_stored_at_write_back_and_detects_corruption() {
        let tier = CapacityTier::hdd();
        tier.write_back("/c", 0, &[7u8; 256]);
        let (data, stored) = tier.read_back_with_checksum("/c", 0).unwrap();
        assert_eq!(stored, extent_checksum(&data));
        // A rewrite recomputes the checksum, so legitimate re-drains can
        // never look like corruption.
        tier.write_back("/c", 0, &[8u8; 128]);
        let (data, stored) = tier.read_back_with_checksum("/c", 0).unwrap();
        assert_eq!(data, vec![8u8; 128]);
        assert_eq!(stored, extent_checksum(&data));
        // Injected corruption flips stored bytes behind the checksum's back.
        assert!(tier.corrupt_extent("/c", 0, 5));
        let (data, stored) = tier.read_back_with_checksum("/c", 0).unwrap();
        assert_ne!(stored, extent_checksum(&data));
        // Out-of-range and missing extents refuse to corrupt.
        assert!(!tier.corrupt_extent("/c", 0, 128));
        assert!(!tier.corrupt_extent("/missing", 0, 0));
    }

    #[test]
    fn extent_checksum_distinguishes_prefixes_and_single_flips() {
        assert_ne!(extent_checksum(b"abc"), extent_checksum(b"abd"));
        assert_ne!(extent_checksum(b"abc"), extent_checksum(b"ab"));
        assert_ne!(extent_checksum(&[]), extent_checksum(&[0u8]));
        assert_eq!(extent_checksum(b"abc"), extent_checksum(b"abc"));
    }

    /// Bytes `0, 1, 2, …` (mod 256): no two 8-byte words of a short buffer
    /// are equal, so every swap below really changes the input.
    fn counting(len: usize) -> Vec<u8> {
        (0..len).map(|i| i as u8).collect()
    }

    #[test]
    fn checksum_sees_every_bit_of_every_lane_and_the_tail() {
        // Two full blocks (every lane fed twice) plus a 13-byte FNV tail.
        let data = counting(2 * 64 + 13);
        let sum = extent_checksum(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(extent_checksum(&flipped), sum, "byte {byte} bit {bit}");
            }
        }
    }

    #[test]
    fn checksum_tells_which_lane_a_word_went_to() {
        let swapped = |len: usize, a: usize, b: usize| {
            let mut d = counting(len);
            for i in 0..8 {
                d.swap(8 * a + i, 8 * b + i);
            }
            assert_ne!(
                extent_checksum(&d),
                extent_checksum(&counting(len)),
                "{len} B, words {a} and {b}"
            );
        };
        // First and last lane of a lone block: every lane starts from its
        // own seed and the fold is ordered, so the lanes are not
        // interchangeable even before any earlier block tells them apart.
        swapped(64, 0, 7);
        // The same two lanes in the middle block of three.
        swapped(3 * 64, 8, 15);
        // Lane 2 of block 0 against lane 5 of block 2.
        swapped(3 * 64, 2, 16 + 5);
        // The same lane across blocks: order within a lane counts too.
        swapped(3 * 64, 3, 8 + 3);
    }

    #[test]
    fn checksum_separates_zero_runs_across_block_boundaries() {
        let sums: Vec<u64> = [0, 63, 64, 65, 128]
            .iter()
            .map(|&len| extent_checksum(&vec![0u8; len]))
            .collect();
        for (i, a) in sums.iter().enumerate() {
            for b in &sums[i + 1..] {
                assert_ne!(a, b, "{sums:x?}");
            }
        }
    }

    #[test]
    fn checksum_property_single_flips_and_truncations_change_the_sum() {
        use rand::rngs::SmallRng;
        use rand::{Rng, RngCore, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x5eed);
        for case in 0..256 {
            let mut data = vec![0u8; rng.gen_range(1..3 * 64 + 64)];
            rng.fill_bytes(&mut data);
            let sum = extent_checksum(&data);
            let mut flipped = data.clone();
            flipped[rng.gen_range(0..data.len())] ^= 1 << rng.gen_range(0..8u32);
            assert_ne!(extent_checksum(&flipped), sum, "case {case}: flip");
            let truncated = &data[..data.len() - 1];
            assert_ne!(extent_checksum(truncated), sum, "case {case}: truncate");
        }
    }

    #[test]
    fn bytes_stored_matches_a_recount_property() {
        // The running count must equal a recount of the stored extents after
        // any sequence of writes, replacements, single removals and path
        // removals.
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0xb17e5);
        for case in 0..64 {
            let tier = CapacityTier::hdd();
            for step in 0..200 {
                let path = ["/a", "/b", "/c"][rng.gen_range(0..3usize)];
                let stripe = rng.gen_range(0..6u64);
                match rng.gen_range(0..10) {
                    // Insert or replace, with a different length each time.
                    0..=5 => tier.write_back(path, stripe, &vec![7u8; rng.gen_range(0..300)]),
                    6..=8 => {
                        tier.remove_extent(path, stripe);
                    }
                    _ => {
                        tier.remove_path(path);
                    }
                }
                let recount: u64 = tier
                    .stored
                    .read()
                    .extents
                    .values()
                    .map(|(e, _)| e.len() as u64)
                    .sum();
                assert_eq!(tier.bytes_stored(), recount, "case {case} step {step}");
            }
        }
    }

    #[test]
    fn cow_corrupting_a_shared_buffer_copies_the_tiers_side() {
        // The tier keeps the buffer it is handed; fault injection must rot
        // only the tier's copy, never the holder that shares it.
        let tier = CapacityTier::hdd();
        let shared = Extent::from(vec![5u8; 256]);
        tier.write_back_extent("/s", 0, shared.clone());
        let (stored, _) = tier.read_back_with_checksum("/s", 0).unwrap();
        assert!(stored.shares_buffer(&shared));
        assert!(tier.corrupt_extent("/s", 0, 17));
        assert_eq!(shared, vec![5u8; 256], "corruption reached the sharer");
        assert!(verified_extent(&tier, "/s", 0).is_none());
        assert_eq!(tier.bytes_stored(), 256);
    }

    #[test]
    fn cursor_walks_every_extent_in_key_order() {
        let tier = CapacityTier::hdd();
        tier.write_back("/b", 1, &[1u8; 10]);
        tier.write_back("/a", 0, &[1u8; 20]);
        tier.write_back("/a", 2, &[1u8; 30]);
        let mut seen = Vec::new();
        let mut cursor: Option<(String, u64)> = None;
        while let Some((path, stripe, len)) = tier.next_extent_after(cursor.as_ref()) {
            cursor = Some((path.clone(), stripe));
            seen.push((path, stripe, len));
        }
        assert_eq!(
            seen,
            vec![
                ("/a".to_string(), 0, 20),
                ("/a".to_string(), 2, 30),
                ("/b".to_string(), 1, 10),
            ]
        );
    }
}
