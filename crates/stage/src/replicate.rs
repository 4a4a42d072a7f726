//! The per-server durability pipeline: the bookkeeping of the copy-out
//! *debt* acknowledged durable writes create and the synthesis of the
//! policy-visible traffic that pays it down.
//!
//! Durability classes split a write's lifecycle from its guarantee: the
//! burst buffer acks against local NVMe, and a write whose
//! [`DurabilityMode`] owes one copy off the burst buffer is **drained
//! early**: its extents are copied to the shared capacity tier as ordinary
//! [`IoRequest`]s under the [`TrafficClass::Replicate`] identity, at the
//! replicate weight rather than the drain weight. There is no second store.
//! The capacity tier already outlives a burst server, and a sharded tier
//! keeps its own replicas.
//!
//! The pipeline does not move bytes itself. The server core executes a
//! released copy exactly as a drain of its extent: it claims the extent's
//! dirty generation on the shard the stripe maps to, writes it back to the
//! capacity tier under the delete-wins guard, and lands it by marking that
//! generation clean. The drain lane copies out the same extents, so the
//! shard lets each dirty generation be written back at most once, whichever
//! lane claims it first (`themis_fs::Shard::claim_for_copy`). A copy that
//! finds its generation claimed by the other lane is *held*
//! ([`ReplicatePipeline::hold`]) until that copy lands
//! ([`ReplicatePipeline::resolve_held`]). The pipeline's job is to make the
//! debt *policy-visible and observable*:
//!
//! * every queued byte of debt is surfaced as replication **lag**
//!   (`requested - completed`, saturating — the satellite-1 audit rule for
//!   independently-maintained totals);
//! * each copy is admitted through the staged engine's replicate lane, so
//!   the bandwidth early drains steal from foreground is bounded by
//!   [`ClassWeights`](crate::class::ClassWeights)' replicate weight exactly
//!   like drain/restore/scrub/rebalance;
//! * `sync` writes park their acks on the pipeline
//!   ([`ReplicatePipeline::record_sync_deferred`]) until their bytes are in
//!   the capacity tier, so a client never observes a success a burst-tier
//!   crash could still lose.

use crate::class::TrafficClass;
use crate::lifecycle::{AdmitContext, ClassLifecycle, ClassQueue};
use serde::{Deserialize, Serialize};
use std::collections::{HashSet, VecDeque};
use themis_core::durability::DurabilityMode;
use themis_core::request::{IoRequest, OpKind};
use themis_telemetry::{Counter, MetricsRegistry, SeriesKey};

/// One extent owing a copy off the burst buffer: where the copy comes from
/// and what debt it retires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaTarget {
    /// Path of the file the extent belongs to.
    pub path: String,
    /// Stripe index of the extent.
    pub stripe: u64,
    /// Extent length at enqueue time (the admitted cost on the burst
    /// device; the copy itself reads the extent's *current* bytes, so a
    /// grown extent still copies whole).
    pub bytes: u64,
    /// The durability mode that created the debt. `Sync` targets carry
    /// deferred acks the server releases on completion.
    pub mode: DurabilityMode,
    /// The `(generation, bytes)` of the snapshot this copy wrote back,
    /// once executed ([`ReplicatePipeline::copied`]); `None` before, and
    /// for a copy that wrote nothing.
    pub copied: Option<(u64, u64)>,
}

/// What a held copy finds when it looks at its extent again
/// ([`ReplicatePipeline::resolve_held`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtentState {
    /// Dirty, and another copy of its current generation is in flight.
    Claimed,
    /// Dirty and unclaimed: the other copy gave its claim back, or a newer
    /// write replaced its generation.
    Dirty,
    /// Clean: a copy of its latest generation landed in the capacity tier.
    Clean,
    /// The stripe no longer exists: the path was unlinked or truncated.
    Gone,
}

impl ReplicaTarget {
    /// The `(path, stripe)` key replication work deduplicates on.
    pub fn key(&self) -> (String, u64) {
        (self.path.clone(), self.stripe)
    }
}

/// A point-in-time snapshot of one server's replication state, reported
/// through the `ReplicateStatus` control-plane message.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplicateStatus {
    /// Whether a durability spec gave the pipeline work to do.
    pub enabled: bool,
    /// Extents queued for replication (debt not yet admitted).
    pub queued_extents: u64,
    /// Copies currently in flight.
    pub inflight: u64,
    /// Total bytes of copy-out debt enqueued since boot.
    pub requested_bytes: u64,
    /// Total bytes of copy-out debt retired since boot (at the admitted
    /// cost, success or failure — the unit matching `requested_bytes`).
    pub completed_bytes: u64,
    /// Replication lag: debt enqueued but not yet retired. Derived
    /// `requested - completed` saturating — independently-maintained totals
    /// saturate instead of trusting update order (the satellite-1 audit
    /// rule).
    pub lag_bytes: u64,
    /// Total bytes this lane wrote to the capacity tier since boot. Debt a
    /// drain paid first retires without adding here.
    pub replicated_bytes: u64,
    /// Total extents this lane wrote to the capacity tier since boot.
    pub replicated_extents: u64,
    /// Copies abandoned because their stripe was unlinked or truncated
    /// first.
    pub failed_replications: u64,
    /// `sync` write acks deferred until their bytes are in the capacity
    /// tier.
    pub sync_acks_deferred: u64,
    /// Deferred `sync` acks released once their bytes landed.
    pub sync_acks_released: u64,
}

impl ReplicateStatus {
    /// Whether the pipeline is fully caught up: no lag, nothing in flight,
    /// and no `sync` ack still parked.
    pub fn is_idle(&self) -> bool {
        self.lag_bytes == 0
            && self.inflight == 0
            && self.sync_acks_deferred == self.sync_acks_released
    }
}

/// Per-server durability bookkeeping: the queue of extents owing a copy,
/// the in-flight ledger, the copies held behind another lane's copy, and
/// the cumulative counters (lane `"replicate"` of the registry handed in at
/// construction).
///
/// The lag is **derived**, not stored: `replicate_completed_bytes` sorts
/// before `replicate_requested_bytes`, so a registry snapshot reads the
/// follower first and `requested - completed` is non-negative in any
/// snapshot (the follower-sorts-first naming convention, see
/// `MetricsRegistry::snapshot`).
#[derive(Debug)]
pub struct ReplicatePipeline {
    enabled: bool,
    waiting: VecDeque<ReplicaTarget>,
    queue: ClassQueue<ReplicaTarget>,
    /// Released copies that wrote nothing, waiting for the copy that holds
    /// their extent's claim to land.
    held: Vec<ReplicaTarget>,
    /// Keys waiting or admitted but not yet executed, for deduplication: a
    /// re-dirtied extent already owing a copy owes exactly one (the copy
    /// reads the latest bytes at execution time). A write after the copy
    /// executed owes a new one.
    pending_keys: HashSet<(String, u64)>,
    requested_bytes: Counter,
    completed_bytes: Counter,
    replicated_bytes: Counter,
    replicated_extents: Counter,
    failed_replications: Counter,
    sync_acks_deferred: Counter,
    sync_acks_released: Counter,
}

impl ReplicatePipeline {
    /// Creates the replication pipeline of `server`, admitting at most
    /// `max_inflight` copies at a time and counting into `registry`. A
    /// disabled pipeline accepts no debt — the server constructs it
    /// disabled when no durability spec demands replicas.
    pub fn new(
        server: usize,
        enabled: bool,
        max_inflight: usize,
        registry: &MetricsRegistry,
    ) -> Self {
        let key = SeriesKey::class(server, TrafficClass::Replicate.name());
        ReplicatePipeline {
            enabled,
            waiting: VecDeque::new(),
            queue: ClassQueue::new(TrafficClass::Replicate, server, max_inflight),
            held: Vec::new(),
            pending_keys: HashSet::new(),
            requested_bytes: registry.counter(key, "replicate_requested_bytes"),
            completed_bytes: registry.counter(key, "replicate_completed_bytes"),
            replicated_bytes: registry.counter(key, "replicate_replicated_bytes"),
            replicated_extents: registry.counter(key, "replicated_extents"),
            failed_replications: registry.counter(key, "failed_replications"),
            sync_acks_deferred: registry.counter(key, "sync_acks_deferred"),
            sync_acks_released: registry.counter(key, "sync_acks_released"),
        }
    }

    /// Whether a durability spec gave this pipeline work to do.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records the copy-out debt of one acknowledged write. Returns whether
    /// new debt was queued: `local_only` writes owe nothing, a disabled
    /// pipeline takes nothing, and an extent already owing a copy that has
    /// not executed yet owes exactly one (the copy reads the latest bytes
    /// when it executes).
    pub fn note_write(
        &mut self,
        path: impl Into<String>,
        stripe: u64,
        bytes: u64,
        mode: DurabilityMode,
    ) -> bool {
        if !self.enabled || !mode.replicates() {
            return false;
        }
        let path = path.into();
        let key = (path.clone(), stripe);
        if self.pending_keys.contains(&key) {
            // One pending copy suffices, but a sync write behind it must
            // still defer its ack on the *pending* copy — upgrade the mode
            // so status reporting reflects the strongest waiter.
            if mode.defers_ack() {
                let pending = self.waiting.iter_mut().chain(self.queue.targets_mut());
                for t in pending.filter(|t| t.key() == key) {
                    t.mode = DurabilityMode::Sync;
                }
            }
            return false;
        }
        let bytes = bytes.max(1);
        self.pending_keys.insert(key);
        self.requested_bytes.add(bytes);
        self.waiting.push_back(ReplicaTarget {
            path,
            stripe,
            bytes,
            mode,
            copied: None,
        });
        true
    }

    /// Looks up an in-flight copy by request sequence number.
    pub fn inflight(&self, seq: u64) -> Option<&ReplicaTarget> {
        self.queue.get(seq)
    }

    /// Records that the released copy `seq` wrote back the snapshot of
    /// `generation`, `bytes` long. It lands when its charges finish; a
    /// write from now on owes a new copy.
    pub fn copied(&mut self, seq: u64, generation: u64, bytes: u64) {
        if let Some(target) = self.queue.get_mut(seq) {
            target.copied = Some((generation, bytes));
            self.pending_keys.remove(&target.key());
        }
    }

    /// Holds the released copy `seq`, which found nothing to write: another
    /// copy holds its extent's claim, the extent is already clean, or it is
    /// gone. [`resolve_held`](Self::resolve_held) decides what it became.
    pub fn hold(&mut self, seq: u64) {
        if let Some(target) = self.queue.remove(seq) {
            self.pending_keys.remove(&target.key());
            self.held.push(target);
        }
    }

    /// The next copy whose capacity-tier write finished at or before
    /// `now_ns`: removed from flight and its debt retired at the admitted
    /// cost, so the caller can land it (mark its generation clean, account
    /// [`record_replicated`](Self::record_replicated), release `sync`
    /// acks).
    pub fn pop_due(&mut self, now_ns: u64) -> Option<ReplicaTarget> {
        let target = self.queue.pop_due(now_ns)?;
        if target.copied.is_none() {
            self.pending_keys.remove(&target.key());
        }
        self.completed_bytes.add(target.bytes);
        Some(target)
    }

    /// Looks at every held copy's extent again through `look` and settles
    /// the ones whose wait is over. A clean extent retires the debt
    /// without writing (a drain landed those bytes); a gone one retires it
    /// as a failed copy; a dirty, unclaimed one goes back to the front of
    /// the queue (or retires, when a later write's copy already waits);
    /// a claimed one stays held. Returns the keys of the retired copies —
    /// for those, every write so far is in the capacity tier or gone.
    pub fn resolve_held(
        &mut self,
        mut look: impl FnMut(&ReplicaTarget) -> ExtentState,
    ) -> Vec<(String, u64)> {
        let mut settled = Vec::new();
        for target in std::mem::take(&mut self.held) {
            match look(&target) {
                ExtentState::Claimed => {
                    self.held.push(target);
                    continue;
                }
                ExtentState::Dirty => {
                    if self.pending_keys.insert(target.key()) {
                        self.waiting.push_front(target);
                    } else {
                        self.completed_bytes.add(target.bytes);
                    }
                    continue;
                }
                ExtentState::Clean => {}
                ExtentState::Gone => self.record_failed(),
            }
            self.completed_bytes.add(target.bytes);
            settled.push(target.key());
        }
        settled
    }

    /// Accounts one copy this lane wrote to the capacity tier (`bytes` is
    /// the copy's true length).
    pub fn record_replicated(&mut self, bytes: u64) {
        self.replicated_bytes.add(bytes);
        self.replicated_extents.inc();
    }

    /// Accounts a copy abandoned because its source no longer exists — the
    /// debt is retired without a copy, and the failure is visible rather
    /// than hidden.
    pub fn record_failed(&mut self) {
        self.failed_replications.inc();
    }

    /// Accounts a `sync` write ack parked until its bytes land.
    pub fn record_sync_deferred(&mut self) {
        self.sync_acks_deferred.inc();
    }

    /// Accounts a parked `sync` ack released once its bytes landed.
    pub fn record_sync_released(&mut self) {
        self.sync_acks_released.inc();
    }

    /// Builds the status snapshot.
    pub fn status(&self) -> ReplicateStatus {
        let completed_bytes = self.completed_bytes.get();
        let requested_bytes = self.requested_bytes.get();
        ReplicateStatus {
            enabled: self.enabled,
            queued_extents: self.waiting.len() as u64,
            inflight: (self.queue.len() + self.held.len()) as u64,
            requested_bytes,
            completed_bytes,
            // Independently-maintained totals: saturate instead of trusting
            // update order (the satellite-1 audit rule).
            lag_bytes: requested_bytes.saturating_sub(completed_bytes),
            replicated_bytes: self.replicated_bytes.get(),
            replicated_extents: self.replicated_extents.get(),
            failed_replications: self.failed_replications.get(),
            sync_acks_deferred: self.sync_acks_deferred.get(),
            sync_acks_released: self.sync_acks_released.get(),
        }
    }
}

impl ClassLifecycle for ReplicatePipeline {
    /// Admits the next waiting copy — a *read* of the burst-buffer device
    /// (the copy's cost on the contended resource); the matching
    /// capacity-tier write is charged by the caller when the engine
    /// releases the request, exactly as for a drain.
    fn admit_next(&mut self, seq: u64, now_ns: u64, _: &AdmitContext<'_>) -> Option<IoRequest> {
        if self.queue.capacity() == 0 {
            return None;
        }
        let target = self.waiting.pop_front()?;
        let bytes = target.bytes;
        Some(self.queue.admit(seq, target, OpKind::Read, bytes, now_ns))
    }

    fn dispatched(&mut self, seq: u64, finish_ns: u64) {
        self.queue.dispatched(seq, finish_ns);
    }

    fn next_finish_ns(&self) -> Option<u64> {
        self.queue.next_finish_ns()
    }

    fn is_busy(&self) -> bool {
        !self.waiting.is_empty() || !self.queue.is_empty() || !self.held.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backing::CapacityTier;
    use themis_fs::BurstBufferFs;

    fn pipeline(server: usize, enabled: bool, max_inflight: usize) -> ReplicatePipeline {
        ReplicatePipeline::new(server, enabled, max_inflight, &MetricsRegistry::new())
    }

    fn admit(p: &mut ReplicatePipeline, seq: u64) -> Option<IoRequest> {
        let ctx = AdmitContext {
            fs: &BurstBufferFs::new(1),
            backing: &CapacityTier::hdd(),
            owns: &|_, _| true,
        };
        p.admit_next(seq, 0, &ctx)
    }

    /// Walks one admitted copy through release and landing.
    fn land(p: &mut ReplicatePipeline, seq: u64) -> ReplicaTarget {
        p.dispatched(seq, 0);
        p.pop_due(0).expect("released copy lands")
    }

    #[test]
    fn local_only_and_disabled_pipelines_take_no_debt() {
        let mut off = pipeline(0, false, 4);
        assert!(!off.note_write("/f", 0, 1 << 20, DurabilityMode::Sync));
        assert!(!off.is_busy());
        let mut on = pipeline(0, true, 4);
        assert!(!on.note_write("/f", 0, 1 << 20, DurabilityMode::LocalOnly));
        assert!(!on.is_busy());
        assert!(on.note_write("/f", 0, 1 << 20, DurabilityMode::LocalPlusOne));
        assert!(on.is_busy());
        assert_eq!(on.status().lag_bytes, 1 << 20);
    }

    #[test]
    fn dedup_keeps_one_copy_and_upgrades_to_sync() {
        let mut p = pipeline(1, true, 4);
        assert!(p.note_write("/f", 0, 1 << 20, DurabilityMode::LocalPlusOne));
        // The re-dirtied extent owes exactly one copy…
        assert!(!p.note_write("/f", 0, 1 << 20, DurabilityMode::LocalPlusOne));
        // …and a sync writer behind it upgrades the pending copy's mode.
        assert!(!p.note_write("/f", 0, 1 << 20, DurabilityMode::Sync));
        assert_eq!(p.status().lag_bytes, 1 << 20);
        let r = admit(&mut p, 10).expect("admit");
        assert_eq!(r.meta, TrafficClass::Replicate.meta(1));
        assert_eq!(r.kind, OpKind::Read);
        assert_eq!(p.inflight(10).unwrap().mode, DurabilityMode::Sync);
    }

    #[test]
    fn depth_limits_inflight_and_completion_retires_debt() {
        let mut p = pipeline(0, true, 2);
        for stripe in 0..3u64 {
            assert!(p.note_write("/ckpt", stripe, 1 << 20, DurabilityMode::LocalPlusOne));
        }
        assert!(admit(&mut p, 1).is_some());
        assert!(admit(&mut p, 2).is_some());
        assert!(admit(&mut p, 3).is_none(), "depth 2 reached");
        assert_eq!(p.status().lag_bytes, 3 << 20);
        let done = land(&mut p, 1);
        assert_eq!(done.path, "/ckpt");
        p.record_replicated(done.bytes);
        assert_eq!(p.status().lag_bytes, 2 << 20);
        // The retired key may be re-dirtied into new debt.
        assert!(p.note_write("/ckpt", done.stripe, 1 << 20, DurabilityMode::LocalPlusOne));
        // Depth freed: admission resumes.
        assert!(admit(&mut p, 3).is_some());
        let s = p.status();
        assert_eq!(s.requested_bytes, 4 << 20);
        assert_eq!(s.completed_bytes, 1 << 20);
        assert_eq!(s.lag_bytes, 3 << 20);
        assert_eq!(s.replicated_extents, 1);
        assert!(!s.is_idle());
    }

    #[test]
    fn failed_copies_retire_debt_without_replicas() {
        let mut p = pipeline(0, true, 4);
        p.note_write("/gone", 0, 1 << 20, DurabilityMode::LocalPlusOne);
        admit(&mut p, 1).unwrap();
        land(&mut p, 1);
        p.record_failed();
        let s = p.status();
        assert_eq!(s.lag_bytes, 0);
        assert_eq!(s.replicated_bytes, 0);
        assert_eq!(s.failed_replications, 1);
        assert!(s.is_idle());
    }

    #[test]
    fn sync_ack_parking_blocks_idle_until_released() {
        let mut p = pipeline(0, true, 4);
        p.note_write("/db", 0, 4096, DurabilityMode::Sync);
        p.record_sync_deferred();
        admit(&mut p, 1).unwrap();
        let done = land(&mut p, 1);
        assert!(done.mode.defers_ack());
        p.record_replicated(4096);
        assert!(!p.status().is_idle(), "parked ack still outstanding");
        p.record_sync_released();
        let s = p.status();
        assert_eq!(s.sync_acks_deferred, 1);
        assert_eq!(s.sync_acks_released, 1);
        assert!(s.is_idle());
    }

    #[test]
    fn a_write_after_the_copy_executed_owes_a_new_copy() {
        let mut p = pipeline(0, true, 4);
        assert!(p.note_write("/f", 0, 1 << 20, DurabilityMode::Sync));
        admit(&mut p, 1).unwrap();
        // Admitted but not executed: a second write folds into it.
        assert!(!p.note_write("/f", 0, 1 << 20, DurabilityMode::Sync));
        p.copied(1, 7, 1 << 20);
        assert_eq!(p.inflight(1).unwrap().copied, Some((7, 1 << 20)));
        // The snapshot is taken: a later write's bytes are not in it.
        assert!(p.note_write("/f", 0, 1 << 20, DurabilityMode::Sync));
        p.dispatched(1, 0);
        assert_eq!(p.pop_due(0).unwrap().copied, Some((7, 1 << 20)));
        assert!(!p.note_write("/f", 0, 1 << 20, DurabilityMode::Sync));
        assert_eq!(p.status().lag_bytes, 1 << 20);
    }

    #[test]
    fn held_copies_settle_on_what_their_extent_became() {
        let mut p = pipeline(0, true, 8);
        for (seq, stripe) in (1..=5).zip(0u64..) {
            p.note_write("/h", stripe, 100, DurabilityMode::LocalPlusOne);
            admit(&mut p, seq).unwrap();
            p.hold(seq);
        }
        // Held copies free their admission slot but are still owed.
        let s = p.status();
        assert_eq!((s.queued_extents, s.inflight, s.lag_bytes), (0, 5, 500));
        assert!(p.is_busy());
        // Stripe 4 was re-written while held: that write's copy waits.
        assert!(p.note_write("/h", 4, 100, DurabilityMode::LocalPlusOne));
        let states = [
            ExtentState::Claimed,
            ExtentState::Clean,
            ExtentState::Gone,
            ExtentState::Dirty,
            ExtentState::Dirty,
        ];
        let mut settled = p.resolve_held(|t| states[t.stripe as usize]);
        settled.sort();
        assert_eq!(settled, vec![("/h".to_string(), 1), ("/h".to_string(), 2)]);
        let s = p.status();
        // Stripe 0 still held; stripe 3 back in the queue ahead of stripe
        // 4's new copy, which covers the held one.
        assert_eq!((s.queued_extents, s.inflight), (2, 1));
        assert_eq!((s.replicated_extents, s.failed_replications), (0, 1));
        assert_eq!(s.requested_bytes - s.completed_bytes, 300);
        let next = admit(&mut p, 6).unwrap();
        assert_eq!(p.inflight(next.seq).unwrap().stripe, 3);
        // The claim holder landed: the last held copy retires unwritten.
        assert_eq!(p.resolve_held(|_| ExtentState::Clean).len(), 1);
        assert_eq!(p.status().inflight, 1, "only the re-admitted copy");
    }

    #[test]
    fn telemetry_mirrors_every_counter() {
        let registry = MetricsRegistry::new();
        let mut p = ReplicatePipeline::new(0, true, 4, &registry);
        p.note_write("/f", 0, 1000, DurabilityMode::Sync);
        p.record_sync_deferred();
        admit(&mut p, 1).unwrap();
        land(&mut p, 1);
        p.record_replicated(1000);
        p.record_sync_released();
        p.note_write("/f", 1, 500, DurabilityMode::LocalPlusOne);
        admit(&mut p, 2).unwrap();
        land(&mut p, 2);
        p.record_failed();
        let snap = registry.snapshot(0);
        let c = |name: &str| snap.counter(0, 0, "replicate", name);
        assert_eq!(c("replicate_requested_bytes"), 1500);
        assert_eq!(c("replicate_completed_bytes"), 1500);
        assert_eq!(c("replicate_replicated_bytes"), 1000);
        assert_eq!(c("replicated_extents"), 1);
        assert_eq!(c("failed_replications"), 1);
        assert_eq!(c("sync_acks_deferred"), 1);
        assert_eq!(c("sync_acks_released"), 1);
        // The registry view and the pipeline's own status agree.
        let s = p.status();
        assert_eq!(s.requested_bytes, 1500);
        assert_eq!(s.completed_bytes, 1500);
        assert_eq!(s.lag_bytes, 0);
    }
}
