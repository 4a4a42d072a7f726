//! The per-server drain and restore pipelines: configuration, the status
//! snapshot, and the bookkeeping of extents in flight between the
//! burst-buffer shard and the capacity tier.
//!
//! The pipelines do not move bytes themselves — the server core (or the
//! simulator) reads the extent snapshot from the shard, charges the
//! burst-buffer and capacity devices, and writes to the
//! [`BackingStore`]. The pipelines' job is to
//! make that flow *policy-visible*: every drain is an ordinary
//! [`IoRequest`] under the drain job identity
//! ([`TrafficClass::Drain`]`.meta(server)`), admitted to the
//! server's [`PolicyEngine`](themis_core::engine::PolicyEngine) (wrapped in a
//! [`StagedEngine`](crate::engine::StagedEngine)), so drain bandwidth is
//! arbitrated exactly like foreground bandwidth.

use crate::backing::BackingStore;
use crate::class::TrafficClass;
use crate::lifecycle::{AdmitContext, ClassLifecycle, ClassQueue};
use serde::{Deserialize, Serialize};
use std::collections::{HashSet, VecDeque};
use themis_core::entity::JobMeta;
use themis_core::request::{IoRequest, OpKind};
use themis_device::DeviceConfig;
use themis_fs::Extent;
use themis_telemetry::{Counter, MetricsRegistry, SeriesKey};

/// Configuration of one server's drain pipeline.
///
/// Per-class weight and enablement knobs used to accrete here one field
/// pair per class (`scrub_weight` + `scrub_enabled`, …); they are unified
/// into the [`ClassWeights`](crate::class::ClassWeights) builder carried by
/// [`DrainConfig::classes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DrainConfig {
    /// When the shard's resident bytes exceed this watermark, clean (already
    /// drained) extents are evicted…
    pub high_watermark_bytes: u64,
    /// …until resident bytes fall back to this watermark. Eviction never
    /// touches dirty extents — data whose only copy is in the burst buffer
    /// is never dropped.
    pub low_watermark_bytes: u64,
    /// Per-class foreground:class weights and enablement. A weight of `8`
    /// means foreground traffic collectively receives 8× the device time of
    /// that class while both are backlogged; when the foreground goes idle,
    /// the class expands into the idle capacity (opportunity fairness,
    /// extended to every internal class). Enablement governs the classes
    /// whose pipelines synthesize traffic unprompted (scrub, rebalance,
    /// replicate); demand-driven drain/restore run regardless.
    pub classes: crate::class::ClassWeights,
    /// Pause between the end of one scrub pass over the capacity tier and
    /// the start of the next (virtual ns). `0` means back-to-back passes.
    pub scrub_interval_ns: u64,
    /// Maximum number of extents in flight between the shard and the
    /// capacity tier at once, per direction (pipelining depth).
    pub max_inflight: usize,
}

impl Default for DrainConfig {
    fn default() -> Self {
        DrainConfig {
            high_watermark_bytes: 768 << 20,
            low_watermark_bytes: 512 << 20,
            classes: crate::class::ClassWeights::default(),
            scrub_interval_ns: 1_000_000_000,
            max_inflight: 4,
        }
    }
}

impl DrainConfig {
    /// The per-class weights this configuration assigns the staged engine.
    pub fn class_weights(&self) -> crate::class::ClassWeights {
        self.classes
    }

    /// Validates the configuration: watermarks ordered, weights and
    /// pipelining depth non-zero.
    pub fn validate(&self) -> Result<(), String> {
        if self.low_watermark_bytes > self.high_watermark_bytes {
            return Err(format!(
                "low watermark {} exceeds high watermark {}",
                self.low_watermark_bytes, self.high_watermark_bytes
            ));
        }
        self.classes.validate()?;
        if self.max_inflight == 0 {
            return Err("max_inflight must be >= 1".to_string());
        }
        Ok(())
    }
}

/// Configuration of the whole staging subsystem on one server: the capacity
/// tier's device model plus the drain pipeline parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StagingConfig {
    /// Device model of the capacity tier absorbing drained extents. Used
    /// when `sharding` is `None`; a sharded tier models each child with
    /// its own device and charges tier I/O against the slowest of them.
    pub backing_device: DeviceConfig,
    /// Shard the capacity tier: build a
    /// [`ShardedStore`](crate::shard::ShardedStore) from this spec instead
    /// of a single [`CapacityTier`](crate::backing::CapacityTier).
    pub sharding: Option<crate::shard::ShardSpec>,
    /// Drain pipeline parameters.
    pub drain: DrainConfig,
    /// Durability demand: which writes owe an asynchronous replica (and
    /// which acks must wait for one). `None` means every write is
    /// `local_only` — no replica tier is modelled and the replicate class
    /// stays idle.
    pub durability: Option<themis_core::durability::DurabilitySpec>,
}

impl Default for StagingConfig {
    fn default() -> Self {
        StagingConfig {
            backing_device: DeviceConfig::capacity_hdd(),
            sharding: None,
            drain: DrainConfig::default(),
            durability: None,
        }
    }
}

/// A point-in-time snapshot of one server's staging state, reported through
/// the `DrainStatus` control-plane message.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DrainStatus {
    /// Bytes resident in the burst-buffer shard (clean + dirty).
    pub resident_bytes: u64,
    /// Bytes in dirty extents (not yet drained to the capacity tier).
    pub dirty_bytes: u64,
    /// Bytes stored in the capacity tier.
    pub backing_bytes: u64,
    /// Extents currently in flight between the shard and the capacity tier.
    pub inflight_extents: usize,
    /// Total bytes drained to the capacity tier since boot.
    pub drained_bytes: u64,
    /// Total drain operations completed since boot.
    pub drained_ops: u64,
    /// Total bytes reclaimed by watermark eviction since boot.
    pub evicted_bytes: u64,
    /// Total extents evicted since boot.
    pub evicted_extents: u64,
    /// Bytes of restore (stage-in) work admitted and not yet completed —
    /// the restore *backlog*. Clients and the harness read this to observe
    /// queue delay on the stage-in path: a read of evicted data lands behind
    /// this many policy-arbitrated bytes.
    pub pending_restore_bytes: u64,
    /// Total bytes restored from the capacity tier since boot.
    pub restored_bytes: u64,
    /// Total restore operations completed since boot.
    pub restored_ops: u64,
}

impl DrainStatus {
    /// Whether the shard is fully drained (no dirty bytes, nothing in
    /// flight).
    pub fn is_clean(&self) -> bool {
        self.dirty_bytes == 0 && self.inflight_extents == 0
    }

    /// Whether the restore pipeline is idle (no stage-in backlog).
    pub fn restore_idle(&self) -> bool {
        self.pending_restore_bytes == 0
    }
}

/// One extent travelling through the pipeline.
#[derive(Debug, Clone)]
pub struct InflightDrain {
    /// Path of the file the extent belongs to.
    pub path: String,
    /// Stripe index of the extent.
    pub stripe: u64,
    /// The extent's dirty generation: captured at admission, then replaced
    /// by the generation of the snapshot actually written back
    /// ([`DrainPipeline::snapshotted`]). The shard only marks the extent
    /// clean if the generation still matches at landing (a concurrent
    /// overwrite re-dirties it).
    pub generation: u64,
    /// Extent length at admission time.
    pub bytes: u64,
}

/// Per-server drain bookkeeping: the in-flight ledger, the keys it excludes
/// from re-admission, and the cumulative drain/eviction counters (lane
/// `"drain"` of the registry handed in at construction).
#[derive(Debug)]
pub struct DrainPipeline {
    config: DrainConfig,
    queue: ClassQueue<InflightDrain>,
    inflight_keys: HashSet<(String, u64)>,
    drained_bytes: Counter,
    drained_ops: Counter,
    evicted_bytes: Counter,
    evicted_extents: Counter,
}

impl DrainPipeline {
    /// Creates the pipeline of `server` under `config`, counting into
    /// `registry`.
    pub fn new(server: usize, config: DrainConfig, registry: &MetricsRegistry) -> Self {
        let key = SeriesKey::class(server, TrafficClass::Drain.name());
        DrainPipeline {
            config,
            queue: ClassQueue::new(TrafficClass::Drain, server, config.max_inflight),
            inflight_keys: HashSet::new(),
            drained_bytes: registry.counter(key, "drained_bytes"),
            drained_ops: registry.counter(key, "drained_ops"),
            evicted_bytes: registry.counter(key, "evicted_bytes"),
            evicted_extents: registry.counter(key, "evicted_extents"),
        }
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &DrainConfig {
        &self.config
    }

    /// The drain job identity of this server.
    pub fn meta(&self) -> JobMeta {
        self.queue.meta()
    }

    /// How many more drains may be admitted right now.
    pub fn admission_capacity(&self) -> usize {
        self.queue.capacity()
    }

    /// Extent keys currently in flight (excluded from re-admission).
    pub fn inflight_keys(&self) -> &HashSet<(String, u64)> {
        &self.inflight_keys
    }

    /// Whether any in-flight extent belongs to `path`.
    pub fn has_inflight_for(&self, path: &str) -> bool {
        self.inflight_keys.iter().any(|(p, _)| p == path)
    }

    /// Admits a drain of one extent: records it in flight and returns the
    /// [`IoRequest`] to feed to the policy engine. The request is a *read* of
    /// the burst-buffer device (the drain's cost on the contended resource);
    /// the matching capacity-tier write is charged by the caller when the
    /// read completes.
    pub fn admit(
        &mut self,
        seq: u64,
        path: String,
        stripe: u64,
        generation: u64,
        bytes: u64,
        now_ns: u64,
    ) -> IoRequest {
        self.inflight_keys.insert((path.clone(), stripe));
        let target = InflightDrain {
            path,
            stripe,
            generation,
            bytes,
        };
        self.queue.admit(seq, target, OpKind::Read, bytes, now_ns)
    }

    /// Looks up an in-flight drain by request sequence number.
    pub fn inflight(&self, seq: u64) -> Option<&InflightDrain> {
        self.queue.get(seq)
    }

    /// Records the dirty generation of the snapshot that was written back
    /// for `seq` — taken at service time, so it may be newer than the one
    /// seen at admission.
    pub fn snapshotted(&mut self, seq: u64, generation: u64) {
        if let Some(d) = self.queue.get_mut(seq) {
            d.generation = generation;
        }
    }

    /// Completes a drain that had nothing left to write when the engine
    /// released it (unlinked, truncated or already clean), accounting it
    /// like a landed one.
    pub fn complete(&mut self, seq: u64) -> Option<InflightDrain> {
        self.queue.remove(seq).map(|d| self.retire(d))
    }

    /// The next drain whose capacity-tier write finished at or before
    /// `now_ns`, removed from flight and accounted.
    pub fn pop_due(&mut self, now_ns: u64) -> Option<InflightDrain> {
        self.queue.pop_due(now_ns).map(|d| self.retire(d))
    }

    fn retire(&mut self, d: InflightDrain) -> InflightDrain {
        self.inflight_keys.remove(&(d.path.clone(), d.stripe));
        self.drained_bytes.add(d.bytes);
        self.drained_ops.inc();
        d
    }

    /// Accounts a watermark eviction of `bytes` across `extents` extents.
    pub fn record_eviction(&mut self, extents: u64, bytes: u64) {
        self.evicted_extents.add(extents);
        self.evicted_bytes.add(bytes);
    }

    /// Builds the staging status snapshot: this pipeline's counters, the
    /// restore side from `restore`, and the shard-side numbers neither
    /// pipeline tracks.
    pub fn status(
        &self,
        restore: &RestorePipeline,
        resident_bytes: u64,
        dirty_bytes: u64,
        backing_bytes: u64,
    ) -> DrainStatus {
        DrainStatus {
            resident_bytes,
            dirty_bytes,
            backing_bytes,
            inflight_extents: self.queue.len(),
            drained_bytes: self.drained_bytes.get(),
            drained_ops: self.drained_ops.get(),
            evicted_bytes: self.evicted_bytes.get(),
            evicted_extents: self.evicted_extents.get(),
            pending_restore_bytes: restore.pending_bytes(),
            restored_bytes: restore.restored_bytes.get(),
            restored_ops: restore.restored_ops.get(),
        }
    }
}

impl ClassLifecycle for DrainPipeline {
    /// Synthesizes a drain for the next dirty extent of this server's shard
    /// that is not already in flight.
    fn admit_next(&mut self, seq: u64, now_ns: u64, ctx: &AdmitContext<'_>) -> Option<IoRequest> {
        if self.queue.capacity() == 0 {
            return None;
        }
        let (path, stripe, generation, len) = ctx
            .fs
            .dirty_extents_on(self.queue.server(), 1, &self.inflight_keys)
            .pop()?;
        Some(self.admit(seq, path, stripe, generation, len.max(1), now_ns))
    }

    fn dispatched(&mut self, seq: u64, finish_ns: u64) {
        self.queue.dispatched(seq, finish_ns);
    }

    fn next_finish_ns(&self) -> Option<u64> {
        self.queue.next_finish_ns()
    }

    fn is_busy(&self) -> bool {
        !self.queue.is_empty()
    }
}

/// Writes one drained extent to the capacity tier, then re-probes that the
/// extent is still legitimate — the **delete-wins** rule for the
/// unlink/truncate-vs-drain race.
///
/// In a threaded deployment, a peer server can `unlink` or truncate the
/// path between the drain's `snapshot_extent_on` and this `write_back`:
/// both purge the shard extents *and* call [`BackingStore::remove_path`],
/// but a write-back that lands afterwards would resurrect a stale copy in
/// the shared tier — readable forever via stage-in even though the data is
/// gone. Probing *after* the write closes the window: whichever order the
/// two raced in, an extent that can no longer legitimately exist ends up
/// with no tier copy.
///
/// `still_valid` is the caller's probe; it must return `false` for both
/// races — the server probes `stat(path).size > stripe_start`, which a bare
/// existence check would not catch for truncate (the path survives, its
/// extents do not).
///
/// The tier keeps `data`'s buffer — the drain snapshot's, shared with the
/// shard — rather than a copy.
///
/// Returns `true` when the copy was kept, `false` when delete won and the
/// path's tier copies were dropped.
pub fn write_back_guarded(
    backing: &dyn BackingStore,
    path: &str,
    stripe: u64,
    data: Extent,
    still_valid: impl FnOnce() -> bool,
) -> bool {
    backing.write_back_extent(path, stripe, data);
    if still_valid() {
        true
    } else {
        backing.remove_path(path);
        false
    }
}

/// One extent travelling through the restore pipeline: where it must land
/// and how.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RestoreTarget {
    /// Shard (server index) the extent is restored onto.
    pub shard: usize,
    /// Path of the file the extent belongs to.
    pub path: String,
    /// Stripe index of the extent.
    pub stripe: u64,
    /// Extent length recorded at eviction time (the request's cost on the
    /// burst device).
    pub bytes: u64,
    /// Whether the extent re-enters the shard pinned dirty
    /// (restore-for-write) instead of clean (stage-in / read-through).
    pub pin_dirty: bool,
}

impl RestoreTarget {
    /// The `(shard, path, stripe)` key waiters subscribe to.
    pub fn key(&self) -> (usize, String, u64) {
        (self.shard, self.path.clone(), self.stripe)
    }
}

/// Per-server restore bookkeeping: the queue of extents waiting for
/// admission, the in-flight ledger, and cumulative stage-in counters (lane
/// `"restore"`).
///
/// Mirrors [`DrainPipeline`] for the opposite direction: the pipeline
/// decides *what* needs to come back and synthesizes the policy-visible
/// [`IoRequest`]s (under the [`TrafficClass::Restore`] identity); the server
/// core moves the bytes when the engine releases each request.
///
/// The backlog is **derived**, not stored: `requested_bytes` grows when a
/// restore is queued and `completed_bytes` grows (by the same admitted cost)
/// when it lands, so `pending = requested - completed` is non-negative in
/// *any* registry snapshot — per-writer `requested` is bumped first, and the
/// snapshot's sorted load order reads `completed_bytes` before
/// `requested_bytes` (the follower-sorts-first naming convention, see
/// `MetricsRegistry::snapshot`).
#[derive(Debug)]
pub struct RestorePipeline {
    waiting: VecDeque<RestoreTarget>,
    queue: ClassQueue<RestoreTarget>,
    /// Keys waiting or in flight, for deduplication: many waiters may need
    /// the same extent, which must be restored exactly once.
    pending_keys: HashSet<(usize, String, u64)>,
    requested_bytes: Counter,
    completed_bytes: Counter,
    restored_bytes: Counter,
    restored_ops: Counter,
}

impl RestorePipeline {
    /// Creates the restore pipeline of `server` admitting at most
    /// `max_inflight` extents at a time, counting into `registry`.
    pub fn new(server: usize, max_inflight: usize, registry: &MetricsRegistry) -> Self {
        let key = SeriesKey::class(server, TrafficClass::Restore.name());
        RestorePipeline {
            waiting: VecDeque::new(),
            queue: ClassQueue::new(TrafficClass::Restore, server, max_inflight),
            pending_keys: HashSet::new(),
            requested_bytes: registry.counter(key, "requested_bytes"),
            completed_bytes: registry.counter(key, "completed_bytes"),
            restored_bytes: registry.counter(key, "restored_bytes"),
            restored_ops: registry.counter(key, "restored_ops"),
        }
    }

    /// Whether `key`'s extent is already waiting or in flight.
    pub fn is_pending(&self, key: &(usize, String, u64)) -> bool {
        self.pending_keys.contains(key)
    }

    /// Enqueues a restore target. Deduplicates by `(shard, path, stripe)`;
    /// a pin-dirty request upgrades an already-pending clean restore (a
    /// writer is now waiting on it), never the reverse. Returns whether a
    /// new entry was queued.
    pub fn request(&mut self, target: RestoreTarget) -> bool {
        let key = target.key();
        if self.pending_keys.contains(&key) {
            if target.pin_dirty {
                let pending = self.waiting.iter_mut().chain(self.queue.targets_mut());
                for t in pending.filter(|t| t.key() == key) {
                    t.pin_dirty = true;
                }
            }
            return false;
        }
        self.pending_keys.insert(key);
        self.requested_bytes.add(target.bytes.max(1));
        self.waiting.push_back(target);
        true
    }

    /// Looks up an in-flight restore by request sequence number.
    pub fn inflight(&self, seq: u64) -> Option<&RestoreTarget> {
        self.queue.get(seq)
    }

    /// The next restore whose device charges finished at or before
    /// `now_ns`: removed from flight, its key released, and its debt retired
    /// at the *admitted* cost (matching `requested_bytes`' unit, so the
    /// derived backlog nets out exactly). The caller moves the bytes and
    /// reports the tier copy's true length through
    /// [`record_restored`](Self::record_restored).
    pub fn pop_due(&mut self, now_ns: u64) -> Option<RestoreTarget> {
        let target = self.queue.pop_due(now_ns)?;
        self.pending_keys.remove(&target.key());
        self.completed_bytes.add(target.bytes.max(1));
        Some(target)
    }

    /// Accounts one landed restore of `actual_bytes` (`0` when the tier no
    /// longer held a verifiable copy of the extent).
    pub fn record_restored(&mut self, actual_bytes: u64) {
        self.restored_bytes.add(actual_bytes);
        self.restored_ops.inc();
    }

    /// Bytes of restore work requested and not yet landed (waiting plus in
    /// flight) — the backlog surfaced as
    /// [`DrainStatus::pending_restore_bytes`]. Independently-maintained
    /// totals: saturate instead of trusting update order.
    pub fn pending_bytes(&self) -> u64 {
        let completed = self.completed_bytes.get();
        self.requested_bytes.get().saturating_sub(completed)
    }

    /// Total bytes restored since boot.
    pub fn restored_bytes(&self) -> u64 {
        self.restored_bytes.get()
    }
}

impl ClassLifecycle for RestorePipeline {
    /// Admits the next waiting restore — a *write* of the burst-buffer
    /// device (the restore's cost on the contended resource); the matching
    /// capacity-tier read is charged by the caller when the engine releases
    /// the request.
    fn admit_next(&mut self, seq: u64, now_ns: u64, _: &AdmitContext<'_>) -> Option<IoRequest> {
        if self.queue.capacity() == 0 {
            return None;
        }
        let target = self.waiting.pop_front()?;
        let bytes = target.bytes.max(1);
        Some(self.queue.admit(seq, target, OpKind::Write, bytes, now_ns))
    }

    fn dispatched(&mut self, seq: u64, finish_ns: u64) {
        self.queue.dispatched(seq, finish_ns);
    }

    fn next_finish_ns(&self) -> Option<u64> {
        self.queue.next_finish_ns()
    }

    fn is_busy(&self) -> bool {
        !self.waiting.is_empty() || !self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backing::CapacityTier;
    use themis_fs::BurstBufferFs;

    #[test]
    fn drain_identity_is_reserved_and_per_server() {
        let is_drain = |m: &JobMeta| TrafficClass::of(m.job) == Some(TrafficClass::Drain);
        let a = TrafficClass::Drain.meta(0);
        let b = TrafficClass::Drain.meta(3);
        assert!(is_drain(&a));
        assert!(is_drain(&b));
        assert_ne!(a.job, b.job);
        assert!(!is_drain(&JobMeta::new(1u64, 1u32, 1u32, 4)));
        // Ordinary job ids are far below the reserved range.
        assert!(!is_drain(&JobMeta::new(1u64 << 40, 1u32, 1u32, 4)));
    }

    #[test]
    fn config_validation() {
        let base = DrainConfig::default();
        assert!(base.validate().is_ok());
        let inverted = DrainConfig {
            low_watermark_bytes: base.high_watermark_bytes + 1,
            ..base
        };
        assert!(inverted.validate().is_err());
        for class in [
            TrafficClass::Drain,
            TrafficClass::Restore,
            TrafficClass::Scrub,
        ] {
            let zero_weight = DrainConfig {
                classes: base.classes.with_weight(class, 0),
                ..base
            };
            assert!(zero_weight.validate().is_err(), "{class}");
        }
        let zero_inflight = DrainConfig {
            max_inflight: 0,
            ..base
        };
        assert!(zero_inflight.validate().is_err());
        // The per-class weight builder carries every knob.
        let weights = DrainConfig {
            classes: base
                .classes
                .with_weight(TrafficClass::Drain, 6)
                .with_weight(TrafficClass::Restore, 3)
                .with_weight(TrafficClass::Scrub, 12),
            ..base
        }
        .class_weights();
        assert_eq!(weights.weight(TrafficClass::Drain), 6);
        assert_eq!(weights.weight(TrafficClass::Restore), 3);
        assert_eq!(weights.weight(TrafficClass::Scrub), 12);
    }

    #[test]
    fn restore_identity_is_a_distinct_reserved_class() {
        let d = TrafficClass::Drain.meta(2);
        let r = TrafficClass::Restore.meta(2);
        assert_eq!(TrafficClass::of(d.job), Some(TrafficClass::Drain));
        assert_eq!(TrafficClass::of(r.job), Some(TrafficClass::Restore));
        assert_eq!(
            TrafficClass::of(JobMeta::new(1u64, 1u32, 1u32, 4).job),
            None
        );
        assert_ne!(d.job, r.job);
    }

    #[test]
    fn restore_pipeline_dedups_upgrades_and_accounts() {
        let registry = MetricsRegistry::new();
        let (fs, tier) = (BurstBufferFs::new(1), CapacityTier::hdd());
        let ctx = AdmitContext {
            fs: &fs,
            backing: &tier,
            owns: &|_, _| true,
        };
        let mut p = RestorePipeline::new(1, 2, &registry);
        let clean = RestoreTarget {
            shard: 1,
            path: "/f".into(),
            stripe: 0,
            bytes: 1 << 20,
            pin_dirty: false,
        };
        assert!(p.request(clean.clone()));
        // A second request for the same extent dedups…
        assert!(!p.request(clean.clone()));
        // …and a pin-dirty request upgrades the queued entry in place.
        assert!(!p.request(RestoreTarget {
            pin_dirty: true,
            ..clean.clone()
        }));
        assert!(p.request(RestoreTarget {
            stripe: 1,
            ..clean.clone()
        }));
        assert!(p.request(RestoreTarget {
            stripe: 2,
            ..clean.clone()
        }));
        assert_eq!(p.pending_bytes(), 3 << 20);
        assert!(p.is_busy());
        // Admission respects the pipelining depth.
        let r0 = p.admit_next(10, 0, &ctx).expect("first admit");
        assert_eq!(r0.meta, TrafficClass::Restore.meta(1));
        // A restore's cost on the contended burst device is the write-back
        // of the extent into the shard.
        assert_eq!(r0.kind, OpKind::Write);
        assert_eq!(r0.bytes, 1 << 20);
        let _r1 = p.admit_next(11, 0, &ctx).expect("second admit");
        assert!(p.admit_next(12, 0, &ctx).is_none(), "depth 2 reached");
        // The upgraded pin survives into flight.
        assert!(p.inflight(10).unwrap().pin_dirty);
        assert_eq!(p.pending_bytes(), 3 << 20);
        // Nothing lands before the engine released it and its charges
        // finished; landing frees depth, re-allows the key, and accounts
        // actuals.
        assert!(p.pop_due(u64::MAX).is_none());
        p.dispatched(10, 500);
        assert_eq!(p.next_finish_ns(), Some(500));
        assert!(p.pop_due(499).is_none());
        let done = p.pop_due(500).unwrap();
        p.record_restored(1 << 20);
        assert_eq!(done.stripe, 0);
        assert_eq!(p.restored_bytes(), 1 << 20);
        assert!(!p.is_pending(&(1, "/f".to_string(), 0)));
        assert!(p.admit_next(12, 0, &ctx).is_some());
        let drain = DrainPipeline::new(1, DrainConfig::default(), &registry);
        let status = drain.status(&p, 0, 0, 0);
        assert_eq!(status.restored_ops, 1);
        assert_eq!(status.pending_restore_bytes, 2 << 20);
        assert!(!status.restore_idle());
        // The status is a view over the registry series, not a second count.
        let snap = registry.snapshot(0);
        assert_eq!(snap.counter(1, 0, "restore", "requested_bytes"), 3 << 20);
        assert_eq!(snap.counter(1, 0, "restore", "completed_bytes"), 1 << 20);
    }

    #[test]
    fn write_back_guarded_applies_delete_wins() {
        let tier = CapacityTier::hdd();
        // Normal drain: the path exists after the write-back, the copy
        // stays.
        assert!(write_back_guarded(
            &tier,
            "/live",
            0,
            Extent::from(vec![1u8; 64]),
            || true
        ));
        assert_eq!(tier.bytes_for("/live"), 64);
        // The race: an unlink lands between the drain's snapshot and its
        // write-back (the existence probe runs after the write and sees the
        // file gone). Delete must win — no stale copy survives in the tier,
        // including copies of *other* stripes written earlier.
        tier.write_back("/gone", 1, &[2u8; 32]);
        assert!(!write_back_guarded(
            &tier,
            "/gone",
            0,
            Extent::from(vec![2u8; 64]),
            || false
        ));
        assert_eq!(tier.bytes_for("/gone"), 0);
        assert!(!tier.contains("/gone", 0));
        assert!(!tier.contains("/gone", 1));
    }

    #[test]
    fn cow_overwrite_after_drain_leaves_the_tier_copy_intact() {
        // A drain hands the shard's buffer to the tier; a later 4 KiB
        // overwrite in the shard must copy the shard's side and leave the
        // tier's bytes — and the checksum computed over them — alone.
        let fs = BurstBufferFs::new(1);
        fs.create("/ckpt", 0).unwrap();
        let old: Vec<u8> = (0..1u32 << 20).map(|i| (i % 251) as u8).collect();
        fs.write_at("/ckpt", 0, &old, 1).unwrap();
        let tier = CapacityTier::hdd();
        let (snapshot, generation) = fs.snapshot_extent_on(0, "/ckpt", 0).unwrap();
        assert!(write_back_guarded(&tier, "/ckpt", 0, snapshot, || true));
        assert!(fs.mark_clean_on(0, "/ckpt", 0, generation));
        let drained = crate::backing::verified_extent(&tier, "/ckpt", 0).unwrap();
        let resident = fs.resident_extent_on(0, "/ckpt", 0).unwrap();
        assert!(drained.shares_buffer(&resident), "the drain copied");

        fs.write_at("/ckpt", 8192, &[0xEE; 4096], 2).unwrap();
        let drained = crate::backing::verified_extent(&tier, "/ckpt", 0)
            .expect("the tier copy still verifies after the shard overwrite");
        assert_eq!(drained, old, "the overwrite reached the tier's bytes");
        let resident = fs.resident_extent_on(0, "/ckpt", 0).unwrap();
        assert!(!drained.shares_buffer(&resident));
        assert_eq!(&resident[8192..12288], &[0xEE; 4096]);
        assert_eq!(resident[..8192], old[..8192]);
        assert_eq!(resident[12288..], old[12288..]);
    }

    #[test]
    fn admission_tracks_inflight_and_capacity() {
        let mut p = DrainPipeline::new(
            1,
            DrainConfig {
                max_inflight: 2,
                ..DrainConfig::default()
            },
            &MetricsRegistry::new(),
        );
        assert_eq!(p.admission_capacity(), 2);
        let r = p.admit(7, "/ckpt".into(), 0, 42, 1 << 20, 100);
        assert_eq!(r.seq, 7);
        assert_eq!(r.meta, TrafficClass::Drain.meta(1));
        assert_eq!(r.kind, OpKind::Read);
        assert_eq!(r.bytes, 1 << 20);
        assert_eq!(p.admission_capacity(), 1);
        assert!(p.inflight_keys().contains(&("/ckpt".to_string(), 0)));
        assert!(p.has_inflight_for("/ckpt"));
        let d = p.complete(7).unwrap();
        assert_eq!(d.generation, 42);
        assert_eq!(p.admission_capacity(), 2);
        assert!(!p.has_inflight_for("/ckpt"));
        assert!(p.complete(7).is_none());
        // A drain that was written back lands with the generation of the
        // snapshot actually written, once its capacity-tier write is done.
        p.admit(8, "/ckpt".into(), 1, 42, 1 << 20, 100);
        p.snapshotted(8, 43);
        p.dispatched(8, 900);
        assert!(p.pop_due(899).is_none());
        assert_eq!(p.pop_due(900).unwrap().generation, 43);
        assert!(!p.is_busy());
    }

    #[test]
    fn admit_next_walks_the_dirty_set_once_per_extent() {
        let fs = BurstBufferFs::new(1);
        fs.create_striped("/d", themis_fs::StripeConfig::new(1 << 20, 1), 0)
            .unwrap();
        fs.write_at("/d", 0, &[1u8; 3 << 20], 0).unwrap();
        let tier = CapacityTier::hdd();
        let ctx = AdmitContext {
            fs: &fs,
            backing: &tier,
            owns: &|_, _| true,
        };
        let config = DrainConfig {
            max_inflight: 2,
            ..DrainConfig::default()
        };
        let mut p = DrainPipeline::new(0, config, &MetricsRegistry::new());
        let r0 = p.admit_next(1, 0, &ctx).expect("first dirty extent");
        p.admit_next(2, 0, &ctx).expect("second dirty extent");
        assert_eq!((r0.kind, r0.bytes), (OpKind::Read, 1 << 20));
        assert_ne!(p.inflight(1).unwrap().stripe, p.inflight(2).unwrap().stripe);
        assert!(p.admit_next(3, 0, &ctx).is_none(), "depth 2 reached");
        // A freed slot is refilled, never with the extent still in flight.
        p.complete(1);
        assert!(p.admit_next(3, 0, &ctx).is_some());
        assert_ne!(p.inflight(3).unwrap().stripe, p.inflight(2).unwrap().stripe);
    }

    #[test]
    fn status_aggregates_counters() {
        let registry = MetricsRegistry::new();
        let restore = RestorePipeline::new(0, 4, &registry);
        let mut p = DrainPipeline::new(0, DrainConfig::default(), &registry);
        p.admit(1, "/a".into(), 0, 1, 100, 0);
        p.complete(1);
        p.record_eviction(2, 300);
        let s = p.status(&restore, 1_000, 400, 100);
        assert_eq!(s.drained_bytes, 100);
        assert_eq!(s.drained_ops, 1);
        assert_eq!(s.evicted_bytes, 300);
        assert_eq!(s.evicted_extents, 2);
        assert_eq!(s.resident_bytes, 1_000);
        assert!(!s.is_clean());
        assert!(p.status(&restore, 0, 0, 100).is_clean());
    }
}
