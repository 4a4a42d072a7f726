//! The sharded, replicated capacity tier: a [`BackingStore`] *router* over
//! N child stores.
//!
//! Production burst buffers aggregate many heterogeneous backends rather
//! than one uniform tier. The router places every extent by the hash byte
//! of its `(path, stripe)` key into a [`ShardMap`] of byte ranges
//! (`"00-7f=0,80-ff=1"` assigns the lower half of the hash space to child
//! 0, the upper half to child 1) and replicates it onto `k` distinct
//! children (the range owner plus the next active children in index
//! order, wrapped with the same [`ring_slot`] helper the file-system
//! stripe map uses — one placement modulo, one truncation fix).
//!
//! Reads go through the **verified seam**: every replica is checked
//! against its write-back checksum, the first healthy copy wins, and any
//! replica that was missing or corrupt is repaired from the healthy copy
//! on the spot (*read-repair*). When every replica is corrupt the corrupt
//! pair is returned unlaundered, so [`verified_extent`] still reports a
//! miss and the scrub pass quarantines the extent instead of serving it.
//!
//! Replicas share one buffer: a write-back or a repair hands every child the
//! same [`Extent`], so k copies cost one buffer until fault injection on one
//! child copies that child's side (see [`CapacityTier::corrupt_extent`]).
//!
//! The shard map is *live*: backends can be added, retired (removed from
//! the map while their extents still serve reads) and ranges re-assigned
//! via [`ShardedStore::install_map`], which bumps a generation counter.
//! The [`RebalancePipeline`](crate::rebalance::RebalancePipeline) watches
//! that generation and migrates every misplaced extent — checksum-verified,
//! policy-arbitrated under [`TrafficClass::Rebalance`](crate::TrafficClass)
//! — until the tier is back to `k` replicas on exactly the desired
//! children.
//!
//! Lock discipline: the router clones the child `Arc`s out of its map lock
//! before touching any child tier, so no shim lock is ever held while a
//! child's lock is taken — the lock-order manifest stays empty and the
//! lockdep checker stays silent (see `crates/lint/lock_order.txt`).

use crate::backing::{extent_checksum, verified_extent, BackingStore, CapacityTier};
use parking_lot::RwLock;
use std::sync::Arc;
use themis_device::{DeviceConfig, DeviceModel};
use themis_fs::layout::ring_slot;
use themis_fs::Extent;
use themis_telemetry::{Counter, Gauge, MetricsRegistry, SeriesKey};

/// Hash byte of one extent key — the coordinate the [`ShardMap`] ranges
/// partition. FNV-1a over the path bytes with the stripe number folded in,
/// reduced to the low byte; deterministic across runs and targets.
pub fn shard_byte(path: &str, stripe: u64) -> u8 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for byte in path.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(PRIME);
    }
    for byte in stripe.to_le_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(PRIME);
    }
    // xor-fold so every input bit reaches the final byte.
    let folded = hash ^ (hash >> 32);
    (folded ^ (folded >> 16) ^ (folded >> 8)) as u8
}

/// One contiguous hash-byte range assigned to a child store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRange {
    /// First hash byte of the range (inclusive).
    pub lo: u8,
    /// Last hash byte of the range (inclusive).
    pub hi: u8,
    /// Index of the child store owning the range.
    pub child: usize,
}

/// A full partition of the hash-byte space `00..=ff` into child-owned
/// ranges — the `"00-7f=0,80-ff=1"` assignment idiom.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    ranges: Vec<ShardRange>,
}

impl ShardMap {
    /// Parses the textual range-map syntax: comma-separated
    /// `lo-hi=child` entries with two-digit hex bounds, e.g.
    /// `"00-7f=0,80-ff=1"`. The entries must partition `00..=ff` exactly —
    /// full coverage, no overlap — or parsing fails with a description.
    pub fn parse(text: &str) -> Result<ShardMap, String> {
        let mut ranges = Vec::new();
        for entry in text.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (span, child) = entry
                .split_once('=')
                .ok_or_else(|| format!("'{entry}': expected lo-hi=child"))?;
            let (lo, hi) = span
                .split_once('-')
                .ok_or_else(|| format!("'{entry}': expected a lo-hi hash-byte span"))?;
            let lo = u8::from_str_radix(lo.trim(), 16)
                .map_err(|_| format!("'{entry}': bad hex bound '{lo}'"))?;
            let hi = u8::from_str_radix(hi.trim(), 16)
                .map_err(|_| format!("'{entry}': bad hex bound '{hi}'"))?;
            let child: usize = child
                .trim()
                .parse()
                .map_err(|_| format!("'{entry}': bad child index '{child}'"))?;
            if lo > hi {
                return Err(format!("'{entry}': empty range ({lo:02x} > {hi:02x})"));
            }
            ranges.push(ShardRange { lo, hi, child });
        }
        ShardMap::from_ranges(ranges)
    }

    /// Builds a map from explicit ranges, validating the partition.
    pub fn from_ranges(mut ranges: Vec<ShardRange>) -> Result<ShardMap, String> {
        if ranges.is_empty() {
            return Err("a shard map needs at least one range".into());
        }
        ranges.sort_by_key(|r| r.lo);
        let mut expect = 0u16;
        for r in &ranges {
            if u16::from(r.lo) != expect {
                return Err(format!(
                    "hash bytes {expect:02x}-{:02x} are unassigned or doubly assigned",
                    r.lo.wrapping_sub(1)
                ));
            }
            expect = u16::from(r.hi) + 1;
        }
        if expect != 256 {
            return Err(format!("hash bytes {:02x}-ff are unassigned", expect));
        }
        Ok(ShardMap { ranges })
    }

    /// An even split of the hash space over children `0..n` (the last child
    /// absorbs the remainder).
    pub fn uniform(n: usize) -> ShardMap {
        let n = n.clamp(1, 256);
        let width = 256 / n;
        let ranges = (0..n)
            .map(|child| ShardRange {
                lo: (child * width) as u8,
                hi: if child == n - 1 {
                    0xff
                } else {
                    ((child + 1) * width - 1) as u8
                },
                child,
            })
            .collect();
        ShardMap { ranges }
    }

    /// Renders the map back to the `lo-hi=child` syntax it parses from.
    pub fn to_text(&self) -> String {
        self.ranges
            .iter()
            .map(|r| format!("{:02x}-{:02x}={}", r.lo, r.hi, r.child))
            .collect::<Vec<_>>()
            .join(",")
    }

    /// The ranges, sorted by lower bound.
    pub fn ranges(&self) -> &[ShardRange] {
        &self.ranges
    }

    /// The child owning hash byte `b`.
    pub fn owner_of(&self, b: u8) -> usize {
        self.ranges
            .iter()
            .find(|r| r.lo <= b && b <= r.hi)
            .map(|r| r.child)
            .expect("a validated map covers every hash byte")
    }

    /// The distinct child indices the map assigns at least one range to
    /// (*active* children — a retired backend no longer appears here), in
    /// ascending order.
    pub fn active_children(&self) -> Vec<usize> {
        let mut active: Vec<usize> = self.ranges.iter().map(|r| r.child).collect();
        active.sort_unstable();
        active.dedup();
        active
    }

    /// Highest child index the map references.
    pub fn max_child(&self) -> usize {
        self.ranges.iter().map(|r| r.child).max().unwrap_or(0)
    }

    /// The replica set for hash byte `b` at replication factor `k`: the
    /// range owner plus the next `k-1` active children in index order,
    /// wrapping with the same [`ring_slot`] modulo the stripe map uses.
    /// Clamped to the number of active children.
    pub fn replicas(&self, b: u8, k: usize) -> Vec<usize> {
        let active = self.active_children();
        let owner = self.owner_of(b);
        let pos = active
            .iter()
            .position(|c| *c == owner)
            .expect("the owner is by definition active");
        (0..k.max(1).min(active.len()))
            .map(|i| active[ring_slot(pos as u64 + i as u64, active.len())])
            .collect()
    }
}

/// Construction recipe for a [`ShardedStore`], config-file friendly: the
/// textual range map, the replication factor, and one [`DeviceConfig`] per
/// child backend (heterogeneous tiers are the point — e.g.
/// `capacity_hdd()` bulk children fronted by an `optane_ssd()` child).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSpec {
    /// Range map in the `"00-7f=0,80-ff=1"` syntax.
    pub map: String,
    /// Copies kept of every extent (clamped to the active child count).
    pub replication: usize,
    /// Device model of each child store, by child index.
    pub backends: Vec<DeviceConfig>,
}

impl ShardSpec {
    /// A two-backend spec splitting the hash space between a disk-speed
    /// bulk child and an NVMe-speed child, `k` copies of every extent.
    pub fn hdd_plus_ssd(replication: usize) -> ShardSpec {
        ShardSpec {
            map: "00-7f=0,80-ff=1".into(),
            replication,
            backends: vec![DeviceConfig::capacity_hdd(), DeviceConfig::optane_ssd()],
        }
    }

    /// Builds the router: one [`CapacityTier`] per backend, the parsed map,
    /// the replication factor.
    pub fn build(&self) -> Result<ShardedStore, String> {
        let map = ShardMap::parse(&self.map)?;
        if self.backends.is_empty() {
            return Err("a sharded tier needs at least one backend".into());
        }
        if map.max_child() >= self.backends.len() {
            return Err(format!(
                "map references child {} but only {} backends are configured",
                map.max_child(),
                self.backends.len()
            ));
        }
        let children: Vec<Arc<dyn BackingStore>> = self
            .backends
            .iter()
            .map(|d| Arc::new(CapacityTier::new(*d)) as Arc<dyn BackingStore>)
            .collect();
        Ok(ShardedStore::new(children, map, self.replication))
    }
}

/// The migration work one misplaced extent needs: copies onto missing
/// desired replicas, pruning from children that should no longer hold it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationPlan {
    /// Extent path.
    pub path: String,
    /// Extent stripe.
    pub stripe: u64,
    /// Extent size (planning-time; re-read verified at apply time).
    pub bytes: u64,
    /// Children that should hold a replica and currently do not.
    pub copy_to: Vec<usize>,
    /// Children holding a copy the current map no longer places there.
    pub remove_from: Vec<usize>,
}

/// What applying a [`MigrationPlan`] actually did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationOutcome {
    /// The extent was copied/pruned into its desired placement.
    Migrated {
        /// Bytes of the verified copy that was moved.
        bytes: u64,
        /// Replicas written.
        copies: usize,
        /// Stale copies removed.
        removed: usize,
    },
    /// The extent vanished before the move (deleted concurrently —
    /// delete-wins, nothing to migrate).
    Superseded,
    /// No replica verified against its checksum: the move was refused (a
    /// migration must never launder corruption) and the extent is left for
    /// the scrub pass to quarantine.
    Failed,
}

/// Placement audit of the whole tier at one instant — the conformance
/// oracle's "every range back to `k` replicas" check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlacementReport {
    /// Logical extents examined.
    pub extents: usize,
    /// Extents with fewer verified copies than the replication factor
    /// demands on their desired children.
    pub under_replicated: usize,
    /// Stale copies on children the map no longer places the extent on.
    pub stale_copies: usize,
}

impl PlacementReport {
    /// Whether the tier is fully converged on the current map.
    pub fn converged(&self) -> bool {
        self.under_replicated == 0 && self.stale_copies == 0
    }
}

/// Per-child lane labels for the registry (static, as [`SeriesKey`]
/// requires); children beyond the table share the last label.
const BACKEND_LANES: [&str; 8] = [
    "backend0", "backend1", "backend2", "backend3", "backend4", "backend5", "backend6", "backend7",
];

fn backend_lane(child: usize) -> &'static str {
    BACKEND_LANES[child.min(BACKEND_LANES.len() - 1)]
}

/// Per-child health/latency instruments, resolved once per child.
struct ChildTelemetry {
    write_extents: Counter,
    write_bytes: Counter,
    read_hits: Counter,
    corrupt_detected: Counter,
    repaired_extents: Counter,
    est_service_ns: themis_telemetry::Histogram,
    bytes_stored: Gauge,
}

/// Everything guarded by the router's map lock. Child `Arc`s are cloned
/// out before any child method is called (see the module docs on lock
/// discipline).
struct Inner {
    children: Vec<Arc<dyn BackingStore>>,
    map: ShardMap,
    replication: usize,
    generation: u64,
    telemetry: Vec<ChildTelemetry>,
    registry: Option<MetricsRegistry>,
}

impl Inner {
    fn intern_child(&mut self, child: usize) {
        let Some(registry) = &self.registry else {
            return;
        };
        while self.telemetry.len() <= child {
            let lane = backend_lane(self.telemetry.len());
            let key = SeriesKey::class(0, lane);
            self.telemetry.push(ChildTelemetry {
                write_extents: registry.counter(key, "write_extents"),
                write_bytes: registry.counter(key, "write_bytes"),
                read_hits: registry.counter(key, "read_hits"),
                corrupt_detected: registry.counter(key, "corrupt_detected"),
                repaired_extents: registry.counter(key, "repaired_extents"),
                est_service_ns: registry.histogram(key, "est_service_ns"),
                bytes_stored: registry.gauge(key, "bytes_stored"),
            });
        }
    }
}

/// The router itself. Implements [`BackingStore`] over the *logical*
/// keyspace (the union of its children with replicas deduplicated), so
/// every existing consumer — drain write-back, verified restore, the scrub
/// cursor — works against a sharded, replicated tier unchanged.
pub struct ShardedStore {
    /// Aggregate performance model the server charges tier I/O against:
    /// the slowest child at construction time (conservative — a replicated
    /// write is bounded by its slowest replica).
    device: DeviceConfig,
    inner: RwLock<Inner>,
}

/// A placement snapshot cloned out of the lock: child handles, map,
/// replication factor, generation.
type Snapshot = (Vec<Arc<dyn BackingStore>>, ShardMap, usize, u64);

impl ShardedStore {
    /// Builds a router over `children` with `map` and `replication` copies
    /// per extent. Panics if the map references a missing child.
    pub fn new(children: Vec<Arc<dyn BackingStore>>, map: ShardMap, replication: usize) -> Self {
        assert!(!children.is_empty(), "a sharded tier needs children");
        assert!(
            map.max_child() < children.len(),
            "shard map references child {} of {}",
            map.max_child(),
            children.len()
        );
        let device = children
            .iter()
            .map(|c| c.device())
            .min_by(|a, b| a.combined_bw().total_cmp(&b.combined_bw()))
            .expect("non-empty children");
        ShardedStore {
            device,
            inner: RwLock::new(Inner {
                children,
                map,
                replication: replication.max(1),
                generation: 0,
                telemetry: Vec::new(),
                registry: None,
            }),
        }
    }

    /// Attaches per-child health/latency series (`backendN` lanes:
    /// write/read/repair counters, an estimated-service-time histogram from
    /// each child's own device model, a stored-bytes gauge) to `registry`.
    /// Idempotent; children added later are interned on arrival.
    pub fn attach_telemetry(&self, registry: &MetricsRegistry) {
        let mut inner = self.inner.write();
        inner.registry = Some(registry.clone());
        let last = inner.children.len() - 1;
        inner.intern_child(last);
    }

    /// The current map generation; bumped by every [`Self::install_map`].
    /// The rebalance pipeline migrates whenever this moves past the
    /// generation it last converged on.
    pub fn generation(&self) -> u64 {
        self.inner.read().generation
    }

    /// The current map in its textual syntax.
    pub fn map_text(&self) -> String {
        self.inner.read().map.to_text()
    }

    /// The replication factor.
    pub fn replication(&self) -> usize {
        self.inner.read().replication
    }

    /// Total child stores (including retired ones still holding extents).
    pub fn child_count(&self) -> usize {
        self.inner.read().children.len()
    }

    /// Registers a new (empty) backend and returns its child index. The
    /// map is untouched — follow up with [`install_map`](Self::install_map)
    /// to route ranges at it.
    pub fn add_backend(&self, store: Arc<dyn BackingStore>) -> usize {
        let mut inner = self.inner.write();
        inner.children.push(store);
        let idx = inner.children.len() - 1;
        inner.intern_child(idx);
        idx
    }

    /// Installs a new map and replication factor, bumping the generation.
    /// A child absent from the new map is *retired*: its extents keep
    /// serving reads until the rebalance pass has moved them off. Returns
    /// the new generation, or an error if the map references a child that
    /// was never added.
    pub fn install_map(&self, map: ShardMap, replication: usize) -> Result<u64, String> {
        let mut inner = self.inner.write();
        if map.max_child() >= inner.children.len() {
            return Err(format!(
                "map references child {} but only {} exist",
                map.max_child(),
                inner.children.len()
            ));
        }
        inner.map = map;
        inner.replication = replication.max(1);
        inner.generation += 1;
        Ok(inner.generation)
    }

    fn snapshot(&self) -> Snapshot {
        let inner = self.inner.read();
        (
            inner.children.clone(),
            inner.map.clone(),
            inner.replication,
            inner.generation,
        )
    }

    /// Runs `f` with child `i`'s telemetry handles, if attached.
    fn with_telemetry(&self, child: usize, f: impl FnOnce(&ChildTelemetry)) {
        let inner = self.inner.read();
        if let Some(t) = inner.telemetry.get(child) {
            f(t);
        }
    }

    fn record_service(&self, child: usize, store: &dyn BackingStore, bytes: u64, write: bool) {
        self.with_telemetry(child, |t| {
            let kind = if write {
                themis_core::request::OpKind::Write
            } else {
                themis_core::request::OpKind::Read
            };
            let probe = themis_core::request::IoRequest::new(
                0,
                themis_core::entity::JobMeta::new(0u64, 0u32, 0u32, 1),
                kind,
                bytes.max(1),
                0,
            );
            t.est_service_ns
                .record(DeviceModel::new(store.device()).service_ns(&probe));
        });
    }

    /// The union-keyspace successor: the smallest child key strictly after
    /// `after`. Replicas collapse (same key); among children reporting the
    /// same key the largest length wins (lengths only diverge transiently
    /// mid-migration).
    fn union_next(
        children: &[Arc<dyn BackingStore>],
        after: Option<&(String, u64)>,
    ) -> Option<(String, u64, u64)> {
        let mut best: Option<(String, u64, u64)> = None;
        for child in children {
            if let Some((path, stripe, len)) = child.next_extent_after(after) {
                best = Some(match best.take() {
                    None => (path, stripe, len),
                    Some(b) => match (path.as_str(), stripe).cmp(&(b.0.as_str(), b.1)) {
                        std::cmp::Ordering::Less => (path, stripe, len),
                        std::cmp::Ordering::Equal => (b.0, b.1, b.2.max(len)),
                        std::cmp::Ordering::Greater => b,
                    },
                });
            }
        }
        best
    }

    /// Walks the logical extents of one path, summing `f` over them.
    fn fold_path(&self, path: &str, mut f: impl FnMut(u64)) {
        let (children, _, _, _) = self.snapshot();
        // `next_extent_after` excludes its bound, so probe stripe 0
        // explicitly before walking the strictly-after successors.
        if let Some(len) = children
            .iter()
            .filter_map(|c| c.read_back_with_checksum(path, 0))
            .map(|(d, _)| d.len() as u64)
            .max()
        {
            f(len);
        }
        let mut cursor = (path.to_string(), 0u64);
        while let Some((p, stripe, len)) = Self::union_next(&children, Some(&cursor)) {
            if p != path {
                break;
            }
            f(len);
            cursor = (p, stripe);
        }
    }

    /// One verified read with read-repair: every replica is checked, the
    /// first healthy copy is returned (and used to rewrite each missing or
    /// corrupt replica); with no healthy replica a corrupt pair is returned
    /// as-is so the caller's checksum verification fails honestly.
    fn read_repair(&self, path: &str, stripe: u64) -> Option<(Extent, u64)> {
        let (children, map, k, _) = self.snapshot();
        let replicas = map.replicas(shard_byte(path, stripe), k);
        let mut healthy: Option<Extent> = None;
        let mut corrupt: Option<(Extent, u64)> = None;
        let mut needs_repair: Vec<usize> = Vec::new();
        for &c in &replicas {
            match children[c].read_back_with_checksum(path, stripe) {
                Some((data, stored)) if extent_checksum(&data) == stored => {
                    if healthy.is_none() {
                        self.with_telemetry(c, |t| t.read_hits.inc());
                        self.record_service(c, children[c].as_ref(), data.len() as u64, false);
                        healthy = Some(data);
                    }
                }
                Some(pair) => {
                    self.with_telemetry(c, |t| t.corrupt_detected.inc());
                    corrupt = Some(pair);
                    needs_repair.push(c);
                }
                // A missing replica is only repairable if the extent exists
                // elsewhere; never treat it as damage.
                None => needs_repair.push(c),
            }
        }
        if healthy.is_none() {
            // Mid-migration the only clean copies may sit on children the
            // current map no longer selects (a just-retired backend, or a
            // range that moved before its extents did). Reads must not fail
            // while the rebalance pass is still chasing the map, so fall
            // back to any healthy copy anywhere and let the repair below
            // seed the desired replicas from it.
            for (c, child) in children.iter().enumerate() {
                if replicas.contains(&c) {
                    continue;
                }
                if let Some(data) = verified_extent(child.as_ref(), path, stripe) {
                    self.with_telemetry(c, |t| t.read_hits.inc());
                    self.record_service(c, child.as_ref(), data.len() as u64, false);
                    healthy = Some(data);
                    break;
                }
            }
        }
        match healthy {
            Some(data) => {
                for c in needs_repair {
                    children[c].write_back_extent(path, stripe, data.clone());
                    self.with_telemetry(c, |t| {
                        t.repaired_extents.inc();
                        t.bytes_stored.set(children[c].bytes_stored() as i64);
                    });
                }
                let sum = extent_checksum(&data);
                Some((data, sum))
            }
            None => corrupt,
        }
    }

    /// A checksum-clean copy from *any* child (not just current replicas —
    /// mid-migration the only copies may sit on retired children).
    fn any_verified_copy(
        children: &[Arc<dyn BackingStore>],
        path: &str,
        stripe: u64,
    ) -> Option<Extent> {
        children
            .iter()
            .find_map(|c| verified_extent(c.as_ref(), path, stripe))
    }

    /// The migration an extent needs under the current map, or `None` when
    /// it is already placed correctly (every desired replica present, no
    /// stray copies).
    pub fn migration_for(&self, path: &str, stripe: u64) -> Option<MigrationPlan> {
        let (children, map, k, _) = self.snapshot();
        let desired = map.replicas(shard_byte(path, stripe), k);
        let mut bytes = 0u64;
        let holders: Vec<usize> = (0..children.len())
            .filter(|&c| {
                if let Some((data, _)) = children[c].read_back_with_checksum(path, stripe) {
                    bytes = bytes.max(data.len() as u64);
                    true
                } else {
                    false
                }
            })
            .collect();
        if holders.is_empty() {
            return None; // nothing stored (or deleted) — nothing to move
        }
        let copy_to: Vec<usize> = desired
            .iter()
            .copied()
            .filter(|c| !holders.contains(c))
            .collect();
        let remove_from: Vec<usize> = holders
            .iter()
            .copied()
            .filter(|c| !desired.contains(c))
            .collect();
        if copy_to.is_empty() && remove_from.is_empty() {
            return None;
        }
        Some(MigrationPlan {
            path: path.to_string(),
            stripe,
            bytes,
            copy_to,
            remove_from,
        })
    }

    /// The first logical extent strictly after `cursor` that needs
    /// migration, with its plan — the rebalance pipeline's work source.
    pub fn next_misplaced_after(
        &self,
        cursor: Option<&(String, u64)>,
    ) -> Option<(String, u64, MigrationPlan)> {
        let (children, _, _, _) = self.snapshot();
        let mut cursor = cursor.cloned();
        while let Some((path, stripe, _)) = Self::union_next(&children, cursor.as_ref()) {
            if let Some(plan) = self.migration_for(&path, stripe) {
                return Some((path, stripe, plan));
            }
            cursor = Some((path, stripe));
        }
        None
    }

    /// Executes one migration: re-verify a source copy (any child), write
    /// the missing desired replicas, prune the stray copies. The plan's
    /// copy/prune sets are recomputed at apply time, so a stale plan (map
    /// changed again, extent rewritten or deleted since planning) degrades
    /// to the right thing instead of acting on old placement.
    pub fn apply_migration(&self, plan: &MigrationPlan) -> MigrationOutcome {
        let Some(fresh) = self.migration_for(&plan.path, plan.stripe) else {
            // Already converged (or deleted): nothing to do.
            let (children, _, _, _) = self.snapshot();
            return if children.iter().any(|c| c.contains(&plan.path, plan.stripe)) {
                MigrationOutcome::Migrated {
                    bytes: 0,
                    copies: 0,
                    removed: 0,
                }
            } else {
                MigrationOutcome::Superseded
            };
        };
        let (children, _, _, _) = self.snapshot();
        let Some(data) = Self::any_verified_copy(&children, &fresh.path, fresh.stripe) else {
            return MigrationOutcome::Failed;
        };
        let mut copies = 0usize;
        for &c in &fresh.copy_to {
            children[c].write_back_extent(&fresh.path, fresh.stripe, data.clone());
            copies += 1;
            self.record_service(c, children[c].as_ref(), data.len() as u64, true);
            self.with_telemetry(c, |t| {
                t.write_extents.inc();
                t.write_bytes.add(data.len() as u64);
                t.bytes_stored.set(children[c].bytes_stored() as i64);
            });
        }
        let mut removed = 0usize;
        for &c in &fresh.remove_from {
            if children[c].remove_extent(&fresh.path, fresh.stripe) > 0 {
                removed += 1;
                self.with_telemetry(c, |t| t.bytes_stored.set(children[c].bytes_stored() as i64));
            }
        }
        MigrationOutcome::Migrated {
            bytes: data.len() as u64,
            copies,
            removed,
        }
    }

    /// Audits every logical extent's placement against the current map —
    /// the conformance oracle's quiescence check.
    pub fn verify_placement(&self) -> PlacementReport {
        let (children, map, k, _) = self.snapshot();
        let mut report = PlacementReport::default();
        let mut cursor: Option<(String, u64)> = None;
        while let Some((path, stripe, _)) = Self::union_next(&children, cursor.as_ref()) {
            report.extents += 1;
            let desired = map.replicas(shard_byte(&path, stripe), k);
            let verified_desired = desired
                .iter()
                .filter(|&&c| verified_extent(children[c].as_ref(), &path, stripe).is_some())
                .count();
            if verified_desired < desired.len() {
                report.under_replicated += 1;
            }
            report.stale_copies += (0..children.len())
                .filter(|c| !desired.contains(c) && children[*c].contains(&path, stripe))
                .count();
            cursor = Some((path, stripe));
        }
        report
    }
}

impl BackingStore for ShardedStore {
    fn name(&self) -> &'static str {
        "sharded"
    }

    fn device(&self) -> DeviceConfig {
        self.device
    }

    fn write_back_extent(&self, path: &str, stripe: u64, data: Extent) {
        let (children, map, k, _) = self.snapshot();
        for c in map.replicas(shard_byte(path, stripe), k) {
            children[c].write_back_extent(path, stripe, data.clone());
            self.record_service(c, children[c].as_ref(), data.len() as u64, true);
            self.with_telemetry(c, |t| {
                t.write_extents.inc();
                t.write_bytes.add(data.len() as u64);
                t.bytes_stored.set(children[c].bytes_stored() as i64);
            });
        }
    }

    fn read_back_with_checksum(&self, path: &str, stripe: u64) -> Option<(Extent, u64)> {
        self.read_repair(path, stripe)
    }

    fn next_extent_after(&self, after: Option<&(String, u64)>) -> Option<(String, u64, u64)> {
        let (children, _, _, _) = self.snapshot();
        Self::union_next(&children, after)
    }

    fn contains(&self, path: &str, stripe: u64) -> bool {
        let (children, _, _, _) = self.snapshot();
        children.iter().any(|c| c.contains(path, stripe))
    }

    fn remove_path(&self, path: &str) -> u64 {
        // Logical bytes freed: the union size before removal, not the sum
        // over replicas (which would count every copy k times).
        let mut logical = 0u64;
        self.fold_path(path, |len| logical += len);
        let (children, _, _, _) = self.snapshot();
        for (c, child) in children.iter().enumerate() {
            if child.remove_path(path) > 0 {
                self.with_telemetry(c, |t| t.bytes_stored.set(child.bytes_stored() as i64));
            }
        }
        logical
    }

    fn as_sharded(&self) -> Option<&ShardedStore> {
        Some(self)
    }

    fn remove_extent(&self, path: &str, stripe: u64) -> u64 {
        let (children, _, _, _) = self.snapshot();
        let mut logical = 0u64;
        for (c, child) in children.iter().enumerate() {
            let freed = child.remove_extent(path, stripe);
            if freed > 0 {
                logical = logical.max(freed);
                self.with_telemetry(c, |t| t.bytes_stored.set(child.bytes_stored() as i64));
            }
        }
        logical
    }

    fn bytes_stored(&self) -> u64 {
        let (children, _, _, _) = self.snapshot();
        let mut total = 0u64;
        let mut cursor: Option<(String, u64)> = None;
        while let Some((path, stripe, len)) = Self::union_next(&children, cursor.as_ref()) {
            total += len;
            cursor = Some((path, stripe));
        }
        total
    }

    fn bytes_for(&self, path: &str) -> u64 {
        let mut total = 0u64;
        self.fold_path(path, |len| total += len);
        total
    }

    fn extent_count(&self) -> usize {
        let (children, _, _, _) = self.snapshot();
        let mut count = 0usize;
        let mut cursor: Option<(String, u64)> = None;
        while let Some((path, stripe, _)) = Self::union_next(&children, cursor.as_ref()) {
            count += 1;
            cursor = Some((path, stripe));
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backing::verified_read_back;

    fn two_child_store(k: usize) -> ShardedStore {
        ShardSpec::hdd_plus_ssd(k).build().expect("valid spec")
    }

    fn tier_children(store: &ShardedStore) -> Vec<Arc<dyn BackingStore>> {
        store.snapshot().0
    }

    #[test]
    fn map_parses_formats_and_validates() {
        let map = ShardMap::parse("00-7f=0,80-ff=1").unwrap();
        assert_eq!(map.to_text(), "00-7f=0,80-ff=1");
        assert_eq!(map.owner_of(0x00), 0);
        assert_eq!(map.owner_of(0x7f), 0);
        assert_eq!(map.owner_of(0x80), 1);
        assert_eq!(map.owner_of(0xff), 1);
        assert_eq!(map.active_children(), vec![0, 1]);
        // Gaps, overlaps and truncated coverage are rejected.
        assert!(ShardMap::parse("00-7e=0,80-ff=1").is_err());
        assert!(ShardMap::parse("00-80=0,80-ff=1").is_err());
        assert!(ShardMap::parse("00-7f=0").is_err());
        assert!(ShardMap::parse("garbage").is_err());
        // Uniform splits cover the space for any n.
        for n in 1..6 {
            let u = ShardMap::uniform(n);
            assert_eq!(u.active_children().len(), n);
            let reparsed = ShardMap::parse(&u.to_text()).unwrap();
            assert_eq!(reparsed, u);
        }
    }

    #[test]
    fn replicas_are_distinct_active_children_via_ring_slot() {
        let map = ShardMap::parse("00-3f=0,40-7f=2,80-ff=5").unwrap();
        assert_eq!(map.replicas(0x00, 2), vec![0, 2]);
        assert_eq!(map.replicas(0x50, 2), vec![2, 5]);
        // Wraps past the end of the active list.
        assert_eq!(map.replicas(0x90, 2), vec![5, 0]);
        // k clamps to the active child count.
        assert_eq!(map.replicas(0x00, 9), vec![0, 2, 5]);
    }

    #[test]
    fn writes_land_on_k_replicas_and_reads_dedupe() {
        let store = two_child_store(2);
        store.write_back("/f", 0, &[7u8; 100]);
        store.write_back("/f", 1, &[8u8; 50]);
        let children = tier_children(&store);
        // k=2 over 2 children: every extent sits on both.
        for c in &children {
            assert!(c.contains("/f", 0) && c.contains("/f", 1));
        }
        // Logical accounting counts each extent once, not per replica.
        assert_eq!(store.bytes_stored(), 150);
        assert_eq!(store.extent_count(), 2);
        assert_eq!(store.bytes_for("/f"), 150);
        assert_eq!(verified_read_back(&store, "/f", 0).unwrap(), vec![7u8; 100]);
        let (data, sum) = store.read_back_with_checksum("/f", 1).unwrap();
        assert_eq!(sum, extent_checksum(&data));
        // The logical cursor yields each key once.
        let mut seen = Vec::new();
        let mut cursor = None;
        while let Some((p, s, len)) = store.next_extent_after(cursor.as_ref()) {
            cursor = Some((p.clone(), s));
            seen.push((p, s, len));
        }
        assert_eq!(
            seen,
            vec![("/f".to_string(), 0, 100), ("/f".to_string(), 1, 50)]
        );
        // Logical removal reports union bytes, not replica-multiplied ones.
        assert_eq!(store.remove_path("/f"), 150);
        assert_eq!(store.bytes_stored(), 0);
    }

    #[test]
    fn read_repair_restores_a_lost_replica_from_the_healthy_one() {
        let store = two_child_store(2);
        store.write_back("/r", 3, &[5u8; 64]);
        let children = tier_children(&store);
        // Drop child 1's replica behind the router's back.
        assert_eq!(children[1].remove_extent("/r", 3), 64);
        assert!(!children[1].contains("/r", 3));
        // A verified read returns the healthy copy and repairs the hole.
        let data = verified_read_back(&store, "/r", 3).unwrap();
        assert_eq!(data, vec![5u8; 64]);
        assert!(children[1].contains("/r", 3));
        assert_eq!(
            store.verify_placement(),
            PlacementReport {
                extents: 1,
                under_replicated: 0,
                stale_copies: 0,
            }
        );
    }

    #[test]
    fn read_mid_migration_falls_back_to_a_retired_holder() {
        // Regression: a reshard that moves a range must not make its
        // not-yet-migrated extents unreadable. Write under one map, swap to
        // a map whose replica set no longer includes the holder, and the
        // verified read must still succeed — served from the stale child and
        // repaired onto the new one.
        let store = two_child_store(1);
        store.write_back("/mid", 0, &[7u8; 48]); // shard byte of ("/mid", 0) picks one child
        let holder = {
            let children = tier_children(&store);
            (0..2).find(|&c| children[c].contains("/mid", 0)).unwrap()
        };
        let other = 1 - holder;
        // New map routes everything to the child that does NOT hold it yet.
        let map = ShardMap::parse(&format!("00-ff={other}")).unwrap();
        store.install_map(map, 1).unwrap();
        let data = verified_read_back(&store, "/mid", 0).expect("stale holder must serve the read");
        assert_eq!(data, vec![7u8; 48]);
        // The read repaired the extent onto its desired replica.
        assert!(tier_children(&store)[other].contains("/mid", 0));
    }

    #[test]
    fn all_replicas_corrupt_is_reported_not_laundered() {
        let spec = ShardSpec::hdd_plus_ssd(2);
        let tiers: Vec<Arc<CapacityTier>> = spec
            .backends
            .iter()
            .map(|d| Arc::new(CapacityTier::new(*d)))
            .collect();
        let children: Vec<Arc<dyn BackingStore>> = tiers
            .iter()
            .map(|t| Arc::clone(t) as Arc<dyn BackingStore>)
            .collect();
        let store = ShardedStore::new(children, ShardMap::parse(&spec.map).unwrap(), 2);
        store.write_back("/c", 0, &[9u8; 32]);
        for t in &tiers {
            assert!(t.corrupt_extent("/c", 0, 1));
        }
        // The verified seam reports a miss; the raw read still surfaces the
        // corrupt pair so a scrub judge can quarantine it.
        assert!(verified_read_back(&store, "/c", 0).is_none());
        let (data, stored) = store.read_back_with_checksum("/c", 0).unwrap();
        assert_ne!(extent_checksum(&data), stored);
        // One corrupt + one healthy: the healthy copy wins and heals.
        let t0_corrupt = ShardSpec::hdd_plus_ssd(2);
        let tiers2: Vec<Arc<CapacityTier>> = t0_corrupt
            .backends
            .iter()
            .map(|d| Arc::new(CapacityTier::new(*d)))
            .collect();
        let children2: Vec<Arc<dyn BackingStore>> = tiers2
            .iter()
            .map(|t| Arc::clone(t) as Arc<dyn BackingStore>)
            .collect();
        let store2 = ShardedStore::new(children2, ShardMap::parse(&t0_corrupt.map).unwrap(), 2);
        store2.write_back("/c", 0, &[9u8; 32]);
        assert!(tiers2[0].corrupt_extent("/c", 0, 1));
        assert_eq!(verified_read_back(&store2, "/c", 0).unwrap(), vec![9u8; 32]);
        let (d0, s0) = tiers2[0].read_back_with_checksum("/c", 0).unwrap();
        assert_eq!(extent_checksum(&d0), s0, "corrupt replica was repaired");
    }

    #[test]
    fn cow_replicas_share_one_buffer_until_one_is_corrupted() {
        // A k = 2 drain hands both children the shard's buffer. Corrupting
        // one child must leave the other child and the shard untouched, and
        // read-repair must heal the corrupt child from the healthy one.
        let tiers = [CapacityTier::hdd(), CapacityTier::hdd()].map(Arc::new);
        let children: Vec<Arc<dyn BackingStore>> = tiers
            .iter()
            .map(|t| Arc::clone(t) as Arc<dyn BackingStore>)
            .collect();
        let store = ShardedStore::new(children, ShardMap::uniform(2), 2);
        let fs = themis_fs::BurstBufferFs::new(1);
        fs.create("/k2", 0).unwrap();
        fs.write_at("/k2", 0, &[0x5A; 4096], 1).unwrap();
        let (snapshot, _) = fs.claim_for_copy_on(0, "/k2", 0).unwrap();
        store.write_back_extent("/k2", 0, snapshot);
        let replica = |t: &CapacityTier| t.read_back_with_checksum("/k2", 0).unwrap().0;
        let resident = fs.resident_extent_on(0, "/k2", 0).unwrap();
        assert!(replica(&tiers[0]).shares_buffer(&resident));
        assert!(replica(&tiers[1]).shares_buffer(&resident));

        assert!(tiers[0].corrupt_extent("/k2", 0, 100));
        assert!(verified_extent(tiers[0].as_ref(), "/k2", 0).is_none());
        let healthy = verified_extent(tiers[1].as_ref(), "/k2", 0).expect("other child intact");
        assert!(
            healthy.shares_buffer(&resident),
            "the other child was copied"
        );
        assert_eq!(fs.read_at("/k2", 0, 4096).unwrap(), vec![0x5A; 4096]);

        // Read-repair serves the healthy buffer and rewrites the corrupt
        // child with it.
        assert_eq!(verified_extent(&store, "/k2", 0).unwrap(), vec![0x5A; 4096]);
        let healed = verified_extent(tiers[0].as_ref(), "/k2", 0).expect("read-repair healed");
        assert!(healed.shares_buffer(&healthy));
        assert!(store.verify_placement().converged());
    }

    #[test]
    fn reshard_yields_migrations_that_converge_the_placement() {
        let store = two_child_store(1);
        for stripe in 0..32u64 {
            store.write_back("/m", stripe, &[stripe as u8 + 1; 16]);
        }
        assert!(store.verify_placement().converged());
        assert!(store.next_misplaced_after(None).is_none());

        // Add a third backend, retire child 0, re-split — generation bumps.
        store.add_backend(Arc::new(CapacityTier::new(DeviceConfig::optane_ssd())));
        let gen = store
            .install_map(ShardMap::parse("00-7f=1,80-ff=2").unwrap(), 2)
            .unwrap();
        assert_eq!(gen, 1);
        let before = store.verify_placement();
        assert_eq!(before.extents, 32);
        assert!(!before.converged(), "a reshard must leave work: {before:?}");

        // Drain the migration work-list exactly as the pipeline would.
        let mut cursor: Option<(String, u64)> = None;
        let mut migrated = 0usize;
        while let Some((path, stripe, plan)) = store.next_misplaced_after(cursor.as_ref()) {
            match store.apply_migration(&plan) {
                MigrationOutcome::Migrated { bytes, .. } => {
                    assert_eq!(bytes, 16);
                    migrated += 1;
                }
                other => panic!("unexpected outcome {other:?}"),
            }
            cursor = Some((path, stripe));
        }
        assert!(migrated > 0);
        let after = store.verify_placement();
        assert!(after.converged(), "placement not converged: {after:?}");
        assert_eq!(after.extents, 32);
        // Child 0 is fully drained; every extent is byte-identical and at
        // k=2 on the two active children.
        let children = tier_children(&store);
        assert_eq!(children[0].extent_count(), 0);
        for stripe in 0..32u64 {
            assert_eq!(
                verified_read_back(&store, "/m", stripe).unwrap(),
                vec![stripe as u8 + 1; 16]
            );
            assert!(children[1].contains("/m", stripe));
            assert!(children[2].contains("/m", stripe));
        }
        assert_eq!(store.bytes_stored(), 32 * 16);
    }

    #[test]
    fn migration_refuses_to_launder_an_all_corrupt_extent() {
        let tiers: Vec<Arc<CapacityTier>> = vec![
            Arc::new(CapacityTier::new(DeviceConfig::capacity_hdd())),
            Arc::new(CapacityTier::new(DeviceConfig::optane_ssd())),
        ];
        let children: Vec<Arc<dyn BackingStore>> = tiers
            .iter()
            .map(|t| Arc::clone(t) as Arc<dyn BackingStore>)
            .collect();
        let store = ShardedStore::new(children, ShardMap::parse("00-ff=0").unwrap(), 1);
        store.write_back("/x", 0, &[1u8; 8]);
        assert!(tiers[0].corrupt_extent("/x", 0, 0));
        // Re-route everything to child 1: the only copy is corrupt.
        store
            .install_map(ShardMap::parse("00-ff=1").unwrap(), 1)
            .unwrap();
        let (_, _, plan) = store.next_misplaced_after(None).unwrap();
        assert_eq!(store.apply_migration(&plan), MigrationOutcome::Failed);
        // The corrupt copy stays where the scrub pass can find it.
        assert!(tiers[0].contains("/x", 0));
        assert!(!tiers[1].contains("/x", 0));
        // A deleted extent supersedes its plan instead of failing.
        store.write_back("/y", 0, &[2u8; 8]);
        store
            .install_map(ShardMap::parse("00-ff=0").unwrap(), 1)
            .unwrap();
        let plan = store.migration_for("/y", 0).unwrap();
        store.remove_path("/y");
        assert_eq!(store.apply_migration(&plan), MigrationOutcome::Superseded);
    }

    #[test]
    fn device_model_is_the_slowest_child() {
        let store = two_child_store(2);
        assert_eq!(
            store.device().combined_bw(),
            DeviceConfig::capacity_hdd().combined_bw()
        );
        assert_eq!(store.name(), "sharded");
    }

    #[test]
    fn telemetry_tracks_per_child_writes_and_repairs() {
        let registry = MetricsRegistry::new();
        let store = two_child_store(2);
        store.attach_telemetry(&registry);
        store.write_back("/t", 0, &[3u8; 128]);
        let children = tier_children(&store);
        children[0].remove_extent("/t", 0);
        let _ = verified_read_back(&store, "/t", 0);
        let snap = registry.snapshot(0);
        let writes: u64 = (0..2)
            .map(|c| snap.counter(0, 0, backend_lane(c), "write_extents"))
            .sum();
        assert_eq!(writes, 2, "one replica write per child");
        let repairs: u64 = (0..2)
            .map(|c| snap.counter(0, 0, backend_lane(c), "repaired_extents"))
            .sum();
        assert_eq!(repairs, 1, "the dropped replica was repaired on read");
        assert_eq!(snap.gauge(0, 0, backend_lane(1), "bytes_stored"), 128);
    }
}
