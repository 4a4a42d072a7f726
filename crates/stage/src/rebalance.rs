//! The per-server rebalance pipeline: extent migration after a shard-map
//! change, admitted through the policy engine as
//! [`TrafficClass::Rebalance`] traffic —
//! the last reserved class.
//!
//! Where drain is driven by dirty foreground writes, restore by foreground
//! misses, and scrub by the pass timer, rebalance is driven by *placement*:
//! whenever the sharded capacity tier's map generation moves past the
//! generation this pipeline last converged on (a backend added, a backend
//! retired, ranges re-assigned, the replication factor changed), a
//! migration pass walks the tier's logical keyspace and synthesizes one
//! policy-visible [`IoRequest`] per misplaced extent. The server core
//! executes each migration through
//! [`ShardedStore::apply_migration`](crate::shard::ShardedStore::apply_migration)
//! when the engine releases the request, so every copy is re-verified
//! against its write-back checksum before it moves — a migration can heal
//! an under-replicated range but can never launder a corrupt extent past
//! the scrubber.
//!
//! The lane runs at the rebalance weight of
//! [`DrainConfig::classes`](crate::pipeline::DrainConfig::classes) against
//! the foreground like every other class: a reshard behind a busy
//! foreground costs the foreground a bounded share of device time and
//! expands into idle capacity when the foreground goes quiet.

use crate::class::TrafficClass;
use crate::lifecycle::{AdmitContext, ClassLifecycle, ClassQueue};
use crate::shard::{MigrationPlan, ShardedStore};
use serde::{Deserialize, Serialize};
use themis_core::request::{IoRequest, OpKind};
use themis_telemetry::{Counter, MetricsRegistry, SeriesKey};

/// A point-in-time snapshot of one server's rebalance state, reported
/// through the `RebalanceStatus` control-plane message.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RebalanceStatus {
    /// Whether automatic migration on shard-map changes is enabled.
    pub enabled: bool,
    /// Whether the tier behind this server is sharded at all (`false`
    /// means a plain single-backend tier: every other field stays zero).
    pub sharded: bool,
    /// The tier's current map generation.
    pub generation: u64,
    /// The generation the tier last fully converged on. Equal to
    /// `generation` when no migration is owed.
    pub converged_generation: u64,
    /// The current shard map in its textual `lo-hi=child` syntax.
    pub map: String,
    /// The configured replication factor.
    pub replication: usize,
    /// Whether a migration pass is currently in progress.
    pub pass_active: bool,
    /// Migrations admitted and not yet completed.
    pub inflight: usize,
    /// Bytes of migration work admitted since boot.
    pub requested_bytes: u64,
    /// Bytes whose migration completed since boot.
    pub migrated_bytes: u64,
    /// Bytes of admitted migrations that have not completed yet — derived
    /// as a saturating difference because the underlying counters are
    /// loaded independently (see `pending_restore_bytes` in `DrainStatus`
    /// for the same hazard).
    pub pending_bytes: u64,
    /// Extents whose placement this pipeline corrected since boot.
    pub migrated_extents: u64,
    /// Replica copies written by migrations since boot.
    pub copies_written: u64,
    /// Stale replicas pruned from retired placements since boot.
    pub removed_extents: u64,
    /// Migrations that found the extent already converged or deleted by the
    /// time they executed (delete-wins / a newer map took over).
    pub superseded_extents: u64,
    /// Migrations refused because no replica verified against its checksum
    /// (the extent is left in place for the scrubber to quarantine).
    pub failed_extents: u64,
    /// Completed migration passes since boot.
    pub passes_completed: u64,
}

impl RebalanceStatus {
    /// Whether the tier's placement matches its current map with no work
    /// in flight and nothing refused.
    pub fn is_converged(&self) -> bool {
        !self.pass_active
            && self.inflight == 0
            && self.generation == self.converged_generation
            && self.failed_extents == 0
    }
}

/// Per-server rebalance bookkeeping: the pass cursor over the sharded
/// tier's logical keyspace, the in-flight ledger, and the cumulative
/// migration counters (lane `"rebalance"` of the registry handed in at
/// construction).
///
/// Mirrors [`ScrubPipeline`](crate::scrub::ScrubPipeline): the pipeline
/// decides *what* to migrate and synthesizes the policy-visible requests
/// under the rebalance identity; the server core executes each migration
/// when the engine releases it.
#[derive(Debug)]
pub struct RebalancePipeline {
    enabled: bool,
    queue: ClassQueue<MigrationPlan>,
    /// Last key examined this pass; `None` at the start of a pass.
    cursor: Option<(String, u64)>,
    pass_active: bool,
    cursor_exhausted: bool,
    /// Generation the active pass is converging toward.
    target_generation: u64,
    /// Generation the tier last converged on.
    converged_generation: u64,
    /// A forced pass was demanded (heal scan) — runs even when `enabled`
    /// is false and even without a generation change.
    forced: bool,
    requested_bytes: Counter,
    migrated_bytes: Counter,
    migrated_extents: Counter,
    copies_written: Counter,
    removed_extents: Counter,
    superseded_extents: Counter,
    failed_extents: Counter,
    passes_completed: Counter,
}

impl RebalancePipeline {
    /// Creates the rebalance pipeline of `server`: `enabled` migrates
    /// automatically whenever the shard map's generation moves, admitting
    /// at most `max_inflight` migrations at a time, counting into
    /// `registry`.
    pub fn new(
        server: usize,
        enabled: bool,
        max_inflight: usize,
        registry: &MetricsRegistry,
    ) -> Self {
        let key = SeriesKey::class(server, TrafficClass::Rebalance.name());
        RebalancePipeline {
            enabled,
            queue: ClassQueue::new(TrafficClass::Rebalance, server, max_inflight),
            cursor: None,
            pass_active: false,
            cursor_exhausted: false,
            target_generation: 0,
            converged_generation: 0,
            forced: false,
            requested_bytes: registry.counter(key, "rebalance_requested_bytes"),
            migrated_bytes: registry.counter(key, "rebalance_migrated_bytes"),
            migrated_extents: registry.counter(key, "migrated_extents"),
            copies_written: registry.counter(key, "copies_written"),
            removed_extents: registry.counter(key, "removed_extents"),
            superseded_extents: registry.counter(key, "superseded_extents"),
            failed_extents: registry.counter(key, "failed_extents"),
            passes_completed: registry.counter(key, "passes_completed"),
        }
    }

    /// Whether automatic migration on map changes is enabled.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Demands a migration pass even without a generation change — the
    /// heal scan: a pass over a converged map re-replicates any range a
    /// lost replica left under-replicated.
    pub fn force_pass(&mut self) {
        self.forced = true;
    }

    /// Looks up an in-flight migration by request sequence number.
    pub fn inflight(&self, seq: u64) -> Option<&MigrationPlan> {
        self.queue.get(seq)
    }

    /// The next migration whose capacity-tier transfers finished at or
    /// before `now_ns`, removed from flight so the caller can apply it and
    /// record the outcome with one of the `record_*` methods.
    pub fn pop_due(&mut self, now_ns: u64) -> Option<MigrationPlan> {
        self.queue.pop_due(now_ns)
    }

    /// Records an executed migration (`bytes` moved, `copies` replicas
    /// written, `removed` stale replicas pruned).
    pub fn record_migrated(&mut self, bytes: u64, copies: usize, removed: usize) {
        self.migrated_bytes.add(bytes);
        self.migrated_extents.inc();
        self.copies_written.add(copies as u64);
        self.removed_extents.add(removed as u64);
    }

    /// Records a migration that found nothing left to do (the extent was
    /// deleted or a newer pass already converged it).
    pub fn record_superseded(&mut self) {
        self.superseded_extents.inc();
    }

    /// Records a migration refused because no replica verified — the
    /// extent stays put for the scrubber.
    pub fn record_failed(&mut self) {
        self.failed_extents.inc();
    }

    /// Finishes the pass if its cursor is exhausted and every in-flight
    /// migration has landed. The converged generation advances to the pass
    /// target; if the map moved again mid-pass, the next admission
    /// immediately starts a follow-up pass. Returns the generation
    /// converged on.
    pub fn finish_pass_if_idle(&mut self) -> Option<u64> {
        if !self.pass_active || !self.cursor_exhausted || !self.queue.is_empty() {
            return None;
        }
        self.pass_active = false;
        self.cursor = None;
        self.cursor_exhausted = false;
        self.converged_generation = self.converged_generation.max(self.target_generation);
        self.passes_completed.inc();
        Some(self.converged_generation)
    }

    /// Whether a pass still owes work for `store`'s current generation.
    pub fn owes_work(&self, store: &ShardedStore) -> bool {
        self.pass_active || (self.enabled && store.generation() > self.converged_generation)
    }

    /// Builds the status snapshot for the tier behind `store` (pass
    /// `None` for a plain, unsharded tier).
    pub fn status(&self, store: Option<&ShardedStore>) -> RebalanceStatus {
        let (sharded, generation, map, replication) = match store {
            Some(s) => (true, s.generation(), s.map_text(), s.replication()),
            None => (false, 0, String::new(), 0),
        };
        let migrated_bytes = self.migrated_bytes.get();
        let requested_bytes = self.requested_bytes.get();
        RebalanceStatus {
            enabled: self.enabled,
            sharded,
            generation,
            converged_generation: self.converged_generation,
            map,
            replication,
            pass_active: self.pass_active,
            inflight: self.queue.len(),
            requested_bytes,
            migrated_bytes,
            // Independently-maintained totals: saturate instead of trusting
            // update order (the satellite-1 audit rule).
            pending_bytes: requested_bytes.saturating_sub(migrated_bytes),
            migrated_extents: self.migrated_extents.get(),
            copies_written: self.copies_written.get(),
            removed_extents: self.removed_extents.get(),
            superseded_extents: self.superseded_extents.get(),
            failed_extents: self.failed_extents.get(),
            passes_completed: self.passes_completed.get(),
        }
    }
}

impl ClassLifecycle for RebalancePipeline {
    /// Admits the next misplaced extent this server owns, starting a pass
    /// first when the tier's generation has moved (or a heal pass was
    /// forced). The request is a *write* costed at the extent's length (the
    /// migration streams one verified copy through a policy-granted service
    /// slot; the matching capacity-tier transfers are charged by the caller
    /// when the engine releases the request). `None` on an unsharded tier,
    /// when no pass is due, the cursor is exhausted, or the pipelining
    /// depth is reached.
    ///
    /// `ctx.owns` decides which extents this server migrates (stripe →
    /// shard ownership, the same closure the scrubber uses), so a
    /// multi-server deployment migrates the shared tier exactly once.
    fn admit_next(&mut self, seq: u64, now_ns: u64, ctx: &AdmitContext<'_>) -> Option<IoRequest> {
        let store = ctx.backing.as_sharded()?;
        if !self.pass_active {
            let generation = store.generation();
            let due = self.forced || (self.enabled && generation > self.converged_generation);
            if !due {
                return None;
            }
            self.pass_active = true;
            self.cursor = None;
            self.cursor_exhausted = false;
            self.forced = false;
            self.target_generation = generation;
        }
        if self.cursor_exhausted || self.queue.capacity() == 0 {
            return None;
        }
        loop {
            let Some((path, stripe, plan)) = store.next_misplaced_after(self.cursor.as_ref())
            else {
                self.cursor_exhausted = true;
                return None;
            };
            self.cursor = Some((path.clone(), stripe));
            if !(ctx.owns)(&path, stripe) {
                continue;
            }
            let bytes = plan.bytes.max(1);
            self.requested_bytes.add(bytes);
            return Some(self.queue.admit(seq, plan, OpKind::Write, bytes, now_ns));
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backing::{BackingStore, CapacityTier};
    use crate::shard::{MigrationOutcome, ShardMap, ShardSpec};
    use std::sync::Arc;
    use themis_device::DeviceConfig;
    use themis_fs::BurstBufferFs;

    fn pipeline(server: usize, enabled: bool, max_inflight: usize) -> RebalancePipeline {
        RebalancePipeline::new(server, enabled, max_inflight, &MetricsRegistry::new())
    }

    fn admit(
        p: &mut RebalancePipeline,
        seq: u64,
        store: &ShardedStore,
        owns: &dyn Fn(&str, u64) -> bool,
    ) -> Option<IoRequest> {
        let ctx = AdmitContext {
            fs: &BurstBufferFs::new(1),
            backing: store,
            owns,
        };
        p.admit_next(seq, 0, &ctx)
    }

    /// Walks one admitted migration through release and landing.
    fn land(p: &mut RebalancePipeline, seq: u64) -> MigrationPlan {
        p.dispatched(seq, 0);
        p.pop_due(0).expect("released migration lands")
    }

    const ALL: &dyn Fn(&str, u64) -> bool = &|_, _| true;

    fn seeded_store(extents: u64) -> ShardedStore {
        let store = ShardSpec::hdd_plus_ssd(1).build().unwrap();
        for stripe in 0..extents {
            store.write_back("/ckpt", stripe, &[stripe as u8; 32]);
        }
        store
    }

    /// Drives the pipeline to quiescence against `store`, applying each
    /// migration exactly as the server core would. Returns the requests
    /// released.
    fn drain_pipeline(p: &mut RebalancePipeline, store: &ShardedStore) -> Vec<IoRequest> {
        let mut seq = 1u64;
        let mut released = Vec::new();
        loop {
            while let Some(req) = admit(p, seq, store, ALL) {
                let plan = land(p, req.seq);
                match store.apply_migration(&plan) {
                    MigrationOutcome::Migrated {
                        bytes,
                        copies,
                        removed,
                    } => p.record_migrated(bytes, copies, removed),
                    MigrationOutcome::Superseded => p.record_superseded(),
                    MigrationOutcome::Failed => p.record_failed(),
                }
                released.push(req);
                seq += 1;
            }
            if p.finish_pass_if_idle().is_none() || !p.owes_work(store) {
                break;
            }
        }
        released
    }

    #[test]
    fn idle_until_the_generation_moves_then_converges() {
        let store = seeded_store(16);
        let mut p = pipeline(0, true, 4);
        assert!(admit(&mut p, 1, &store, ALL).is_none());
        assert!(p.status(Some(&store)).is_converged());

        // Add a backend, retire child 0, double the replication.
        store.add_backend(Arc::new(CapacityTier::new(DeviceConfig::optane_ssd())));
        store
            .install_map(ShardMap::parse("00-7f=1,80-ff=2").unwrap(), 2)
            .unwrap();
        assert!(p.owes_work(&store));
        let released = drain_pipeline(&mut p, &store);
        assert!(!released.is_empty());
        assert!(released
            .iter()
            .all(|r| r.meta == TrafficClass::Rebalance.meta(0)));
        assert!(store.verify_placement().converged());
        let status = p.status(Some(&store));
        assert!(status.is_converged(), "{status:?}");
        assert_eq!(status.generation, 1);
        assert_eq!(status.converged_generation, 1);
        assert_eq!(status.migrated_extents, 16);
        assert_eq!(status.failed_extents, 0);
        assert_eq!(status.pending_bytes, 0);
        assert_eq!(status.passes_completed, 1);
        assert_eq!(status.map, "00-7f=1,80-ff=2");
        assert_eq!(status.replication, 2);
    }

    #[test]
    fn disabled_pipeline_only_moves_when_forced() {
        let store = seeded_store(4);
        let mut p = pipeline(0, false, 4);
        store
            .install_map(ShardMap::parse("00-ff=1").unwrap(), 1)
            .unwrap();
        assert!(admit(&mut p, 1, &store, ALL).is_none());
        assert!(!store.verify_placement().converged());
        // A forced heal pass migrates regardless of `enabled`.
        p.force_pass();
        drain_pipeline(&mut p, &store);
        assert!(store.verify_placement().converged());
    }

    #[test]
    fn ownership_filter_splits_the_work() {
        let store = seeded_store(16);
        store
            .install_map(ShardMap::parse("00-ff=1").unwrap(), 1)
            .unwrap();
        // Only extents hashed onto (retired) child 0 are misplaced; server
        // 0 owns the even stripes among them and its pass leaves the odd
        // ones for server 1's pipeline.
        let misplaced_even = (0..16u64)
            .filter(|s| s % 2 == 0 && crate::shard::shard_byte("/ckpt", *s) < 0x80)
            .count() as u64;
        assert!(misplaced_even > 0, "hash spread left nothing to migrate");
        let mut p0 = pipeline(0, true, 4);
        let mut seq = 1u64;
        loop {
            while let Some(req) = admit(&mut p0, seq, &store, &|_, s| s % 2 == 0) {
                let plan = land(&mut p0, req.seq);
                match store.apply_migration(&plan) {
                    MigrationOutcome::Migrated {
                        bytes,
                        copies,
                        removed,
                    } => p0.record_migrated(bytes, copies, removed),
                    MigrationOutcome::Superseded => p0.record_superseded(),
                    MigrationOutcome::Failed => p0.record_failed(),
                }
                seq += 1;
            }
            if p0.finish_pass_if_idle().is_some() {
                break;
            }
        }
        assert_eq!(p0.status(Some(&store)).migrated_extents, misplaced_even);
        assert!(!store.verify_placement().converged());
        let mut p1 = pipeline(1, true, 4);
        drain_pipeline(&mut p1, &store);
        assert!(store.verify_placement().converged());
    }

    #[test]
    fn depth_limits_inflight_and_busy_tracks_it() {
        let store = seeded_store(8);
        store
            .install_map(ShardMap::parse("00-ff=1").unwrap(), 1)
            .unwrap();
        let mut p = pipeline(0, true, 2);
        assert!(admit(&mut p, 1, &store, ALL).is_some());
        assert!(admit(&mut p, 2, &store, ALL).is_some());
        assert!(admit(&mut p, 3, &store, ALL).is_none());
        assert!(p.is_busy());
        assert_eq!(p.status(Some(&store)).inflight, 2);
        let plan = land(&mut p, 1);
        assert_eq!(
            store.apply_migration(&plan),
            MigrationOutcome::Migrated {
                bytes: 32,
                copies: 1,
                removed: 1
            }
        );
        p.record_migrated(32, 1, 1);
        assert!(admit(&mut p, 3, &store, ALL).is_some());
    }

    #[test]
    fn telemetry_mirrors_every_counter() {
        let registry = MetricsRegistry::new();
        let store = seeded_store(4);
        store
            .install_map(ShardMap::parse("00-ff=1").unwrap(), 1)
            .unwrap();
        let mut p = RebalancePipeline::new(0, true, 4, &registry);
        drain_pipeline(&mut p, &store);
        let snap = registry.snapshot(0);
        let status = p.status(Some(&store));
        assert_eq!(
            snap.counter(0, 0, "rebalance", "rebalance_migrated_bytes"),
            status.migrated_bytes
        );
        assert_eq!(
            snap.counter(0, 0, "rebalance", "rebalance_requested_bytes"),
            status.requested_bytes
        );
        assert_eq!(
            snap.counter(0, 0, "rebalance", "migrated_extents"),
            status.migrated_extents
        );
        assert_eq!(
            snap.counter(0, 0, "rebalance", "passes_completed"),
            status.passes_completed
        );
    }
}
