//! The staging half of the server core: the per-class lifecycle of
//! system-synthesized traffic (landing, admission, execution and status),
//! foreground parking behind restores, and burst-buffer residency.
//! [`crate::core`] keeps submit/poll, the job table and policy.

use crate::core::{ReadyReply, ServerCore, StageReady};
use std::collections::HashSet;
use std::sync::Arc;
use themis_core::durability::DurabilitySpec;
use themis_core::entity::JobMeta;
use themis_core::request::{IoRequest, OpKind};
use themis_device::{DeviceModel, DeviceTimeline};
use themis_fs::{BurstBufferFs, FsError, Whence};
use themis_net::message::{FsOp, FsReply, StageReply};
use themis_stage::shard::MigrationPlan;
use themis_stage::{
    extent_checksum, write_back_guarded, AdmitContext, BackingStore, CapacityTier, ClassLifecycle,
    DrainPipeline, DrainStatus, MigrationOutcome, RebalancePipeline, RebalanceStatus,
    ReplicaTarget, ReplicatePipeline, ReplicateStatus, RestorePipeline, RestoreTarget,
    ScrubPipeline, ScrubStatus, ScrubTarget, StagingConfig, TrafficClass,
};
use themis_telemetry::{MetricsRegistry, TraceKind};

/// What a read-through read targets: a descriptor cursor or an absolute
/// position.
pub(crate) enum ReadTarget<'a> {
    Fd(u64),
    At(&'a str, u64),
}

/// A foreground operation parked behind policy-admitted restore traffic:
/// the request was released by the engine, found its target extents
/// evicted, and now waits for the restore pipeline to bring them back
/// before it executes (and is charged device time).
pub(crate) struct ParkedOp {
    request_id: u64,
    request: IoRequest,
    op: FsOp,
    /// When the op was parked, so the wake path can record the park
    /// duration (`park_ns`) it spent waiting behind arbitrated restores.
    parked_at_ns: u64,
    /// `(shard, path, stripe)` keys of the restores this op still waits on.
    /// Empty for an op parked purely for ordering (blocked-only): it queued
    /// no restores and waits only for the earlier overlapping ops ahead of
    /// it to execute.
    keys: HashSet<(usize, String, u64)>,
    /// Every extent key the op targets — resident or evicted, not just the
    /// keys it queued restores for. Two parked ops whose full key sets
    /// intersect target overlapping extents, so the later one must not
    /// execute before the earlier one even if its own remaining keys empty
    /// first (their restores may land in different ticks), and a later
    /// foreground op whose extents are all resident must still park behind
    /// a parked op it overlaps ([`ServerCore::park_if_overlaps_parked`]).
    all_keys: HashSet<(usize, String, u64)>,
}

/// An explicit `StageIn` request waiting for its queued restores.
struct PendingStageIn {
    request_id: u64,
    keys: HashSet<(usize, String, u64)>,
    restored_bytes: u64,
}

/// How a class's released request is charged beyond the burst-device slot
/// the engine granted it: which second timeline it occupies, with which
/// transfers back to back, and whether they run beside the burst slot or
/// behind it.
struct Charge {
    /// The replica tier's timeline instead of the capacity tier's.
    on_replica: bool,
    /// The transfers start when the burst slot finishes (they move the bytes
    /// the slot read) instead of at release time (they feed the slot).
    after_burst: bool,
    /// The transfers, each costed at the request's bytes; a write is costed
    /// once per copy it places.
    legs: &'static [OpKind],
}

impl Charge {
    /// The charge row of `class`. Every class's burst slot is what its
    /// foreground:class weight bounds; the row is what the tier behind it
    /// pays at its own speed.
    fn of(class: TrafficClass) -> Charge {
        let (on_replica, after_burst, legs): (bool, bool, &'static [OpKind]) = match class {
            // Read the snapshot off the burst device, then write it to the
            // capacity tier.
            TrafficClass::Drain => (false, true, &[OpKind::Write]),
            // The capacity tier is read while the burst device takes the
            // extent write (restore) or the verification slot (scrub).
            TrafficClass::Restore | TrafficClass::Scrub => (false, false, &[OpKind::Read]),
            // The verified source read, then one write per copy the plan
            // places, all on the capacity tier.
            TrafficClass::Rebalance => (false, false, &[OpKind::Read, OpKind::Write]),
            // Read the source off the burst device, then write the copy to
            // the replica tier.
            TrafficClass::Replicate => (true, true, &[OpKind::Write]),
        };
        Charge {
            on_replica,
            after_burst,
            legs,
        }
    }
}

/// The server-side staging state: one pipeline per traffic class, the
/// capacity and replica tiers with their device timelines, plus work waiting
/// on a class's landings.
pub(crate) struct StageState {
    pub(crate) drain: DrainPipeline,
    pub(crate) restore: RestorePipeline,
    pub(crate) scrub: ScrubPipeline,
    pub(crate) rebalance: RebalancePipeline,
    pub(crate) replicate: ReplicatePipeline,
    pub(crate) backing: Arc<dyn BackingStore>,
    backing_device: DeviceTimeline,
    /// The replica tier absorbing durability copies, with its own timeline:
    /// replication contends with the capacity tier for nothing but the
    /// burst-device slots the engine grants the replicate lane.
    replica: CapacityTier,
    replica_device: DeviceTimeline,
    /// The durability policy in force (`None`: every write is local-only).
    durability: Option<DurabilitySpec>,
    /// Foreground `sync` write acks parked until the replicas of every
    /// stripe they dirtied land.
    pending_sync_acks: Vec<(ReadyReply, HashSet<(String, u64)>)>,
    /// Flushes waiting for their path's local extents to become clean.
    pub(crate) pending_flushes: Vec<(u64, String)>,
    /// Foreground operations waiting on restores.
    pub(crate) parked_ops: Vec<ParkedOp>,
    /// Explicit `StageIn` requests waiting on restores.
    pending_stage_ins: Vec<PendingStageIn>,
    /// Explicit `Scrub` requests waiting for their pass to complete, as
    /// `(request_id, pass_id)`.
    pending_scrubs: Vec<(u64, u64)>,
}

impl StageState {
    /// Builds the staging state of `server` under `sc`, draining into
    /// `backing` when the deployment supplies a shared tier and counting
    /// into `registry`.
    pub(crate) fn new(
        server: usize,
        sc: &StagingConfig,
        backing: Option<Arc<dyn BackingStore>>,
        registry: &MetricsRegistry,
    ) -> Self {
        let depth = sc.drain.max_inflight;
        let enabled = |class| sc.drain.classes.is_enabled(class);
        let backing = backing.unwrap_or_else(|| match &sc.sharding {
            Some(spec) => {
                let store = spec.build().expect("staging shard spec must be valid");
                Arc::new(store) as Arc<dyn BackingStore>
            }
            None => Arc::new(CapacityTier::new(sc.backing_device)) as Arc<dyn BackingStore>,
        });
        // Per-child health/latency series for a sharded tier, whether the
        // router was built here or handed in by the deployment (idempotent
        // for stores another server already attached to the same registry).
        if let Some(sharded) = backing.as_sharded() {
            sharded.attach_telemetry(registry);
        }
        // The timeline models the tier the drains actually land on: a
        // sharded router advertises its slowest child.
        let backing_model = if backing.as_sharded().is_some() {
            backing.device()
        } else {
            sc.backing_device
        };
        StageState {
            drain: DrainPipeline::new(server, sc.drain, registry),
            restore: RestorePipeline::new(server, depth, registry),
            scrub: ScrubPipeline::new(
                server,
                enabled(TrafficClass::Scrub),
                sc.drain.scrub_interval_ns,
                depth,
                registry,
            ),
            rebalance: RebalancePipeline::new(
                server,
                enabled(TrafficClass::Rebalance),
                depth,
                registry,
            ),
            // Replication runs only when the durability policy actually owes
            // replicas somewhere (and the class is not disabled outright);
            // otherwise the pipeline is constructed inert and takes no debt.
            replicate: ReplicatePipeline::new(
                server,
                enabled(TrafficClass::Replicate)
                    && sc.durability.as_ref().is_some_and(|d| d.any_replicated()),
                depth,
                registry,
            ),
            backing,
            backing_device: DeviceTimeline::new(DeviceModel::new(backing_model)),
            // The replica tier is deliberately *not* the capacity tier:
            // a copy that survives losing the burst buffer must live on
            // independent media, modelled with its own timeline.
            replica: CapacityTier::new(sc.backing_device),
            replica_device: DeviceTimeline::new(DeviceModel::new(sc.backing_device)),
            durability: sc.durability.clone(),
            pending_sync_acks: Vec::new(),
            pending_flushes: Vec::new(),
            parked_ops: Vec::new(),
            pending_stage_ins: Vec::new(),
            pending_scrubs: Vec::new(),
        }
    }

    /// The lifecycle view of `class`'s pipeline.
    pub(crate) fn lifecycle(&self, class: TrafficClass) -> &dyn ClassLifecycle {
        match class {
            TrafficClass::Drain => &self.drain,
            TrafficClass::Restore => &self.restore,
            TrafficClass::Scrub => &self.scrub,
            TrafficClass::Rebalance => &self.rebalance,
            TrafficClass::Replicate => &self.replicate,
        }
    }

    fn lifecycle_mut(&mut self, class: TrafficClass) -> &mut dyn ClassLifecycle {
        match class {
            TrafficClass::Drain => &mut self.drain,
            TrafficClass::Restore => &mut self.restore,
            TrafficClass::Scrub => &mut self.scrub,
            TrafficClass::Rebalance => &mut self.rebalance,
            TrafficClass::Replicate => &mut self.replicate,
        }
    }

    /// The drain half of execution that no charge row describes: snapshot
    /// the extent and write it back to the capacity tier under the
    /// delete-wins guard. Returns the bytes written back, or `None` when
    /// nothing was left to write and the drain completed as a no-op.
    fn write_back_snapshot(&mut self, fs: &BurstBufferFs, server: usize, seq: u64) -> Option<u64> {
        let d = self.drain.inflight(seq)?;
        let (path, stripe) = (d.path.clone(), d.stripe);
        // Snapshot at service time — the extent may have been overwritten
        // (or drained and unlinked) since admission.
        let Some((data, generation)) = fs.snapshot_extent_on(server, &path, stripe) else {
            // Nothing dirty any more (unlinked or already clean): the
            // drain is a no-op.
            self.drain.complete(seq);
            return None;
        };
        // Delete-wins: a peer's unlink or truncate can land between
        // the snapshot above and this write-back; the guarded write
        // re-probes afterwards so the shared tier never keeps a
        // stale copy. The probe checks *size*, not bare existence —
        // a truncated path still exists, but its size drops below
        // the drained stripe's start, which is how the probe tells
        // "this extent can no longer legitimately exist" for both
        // races.
        let stripe_size = fs
            .layout_of(&path)
            .map_or(1, |l| l.config.stripe_size.max(1));
        let stripe_start = stripe * stripe_size;
        let bytes = data.len() as u64;
        let kept = write_back_guarded(self.backing.as_ref(), &path, stripe, data, || {
            fs.stat(&path).is_ok_and(|s| s.size > stripe_start)
        });
        if !kept {
            self.drain.complete(seq);
            return None;
        }
        // The write-back recomputed the extent's checksum, so a
        // previously quarantined copy is sound again.
        self.scrub.unquarantine(&path, stripe);
        self.drain.snapshotted(seq, generation);
        Some(bytes)
    }

    /// Lands a restore: hands the tier's extent buffer back to the shard and
    /// returns the landed key with the bytes restored.
    fn land_restore(
        &mut self,
        fs: &BurstBufferFs,
        target: RestoreTarget,
    ) -> ((usize, String, u64), u64) {
        // Read the tier copy at completion time, not admission time:
        // if the path was unlinked while the restore was in flight
        // the copy is gone and the restore degrades to a no-op
        // (delete wins here too). The read is *verified*: a corrupt
        // tier copy must never be restored into the burst buffer,
        // where it would pass for a clean repair source and launder
        // the damage past every future scrub (the scrub pass
        // quarantines it instead).
        let data =
            themis_stage::verified_extent(self.backing.as_ref(), &target.path, target.stripe);
        let actual = data.as_ref().map_or(0, |d| d.len() as u64);
        self.restore.record_restored(actual);
        if let Some(data) = data {
            fs.restore_extent_on(
                target.shard,
                &target.path,
                target.stripe,
                data,
                target.pin_dirty,
            );
        }
        (target.key(), actual)
    }

    /// Lands a scrub verification: judges the tier copy against the
    /// checksum recorded at drain write-back time. On a mismatch, repair
    /// from a clean resident burst copy; defer to the pending drain when a
    /// concurrent foreground write re-dirtied the extent (the generation
    /// guard — the scrubber must never push unflushed data into the tier);
    /// quarantine when no repair source remains.
    fn land_scrub(
        &mut self,
        fs: &BurstBufferFs,
        device: &mut DeviceTimeline,
        server: usize,
        target: ScrubTarget,
        now_ns: u64,
    ) {
        // Unlinked mid-scrub (delete-wins): nothing to verify.
        let Some((data, stored)) = self
            .backing
            .read_back_with_checksum(&target.path, target.stripe)
        else {
            return;
        };
        let bytes = data.len() as u64;
        if extent_checksum(&data) == stored {
            self.scrub.record_clean(bytes);
        } else if fs
            .snapshot_extent_on(server, &target.path, target.stripe)
            .is_some()
        {
            // The shard copy is dirty: a foreground write moved the
            // generation mid-scrub, so the pending drain — which will
            // rewrite copy and checksum together — owns the tier copy's
            // next contents.
            self.scrub.record_superseded(bytes);
        } else if let Some(good) = fs.resident_extent_on(server, &target.path, target.stripe) {
            // A clean resident burst copy is byte-identical to what the
            // tier should hold: repair. Charge the burst device the copy's
            // read and the capacity tier the rewrite.
            let meta = TrafficClass::Scrub.meta(server);
            let cost = good.len().max(1) as u64;
            let read = IoRequest::new(0, meta, OpKind::Read, cost, now_ns);
            let (_, read_finish) = device.dispatch(&read, now_ns);
            let write = IoRequest::new(0, meta, OpKind::Write, cost, read_finish);
            self.backing_device.dispatch(&write, read_finish);
            self.backing
                .write_back_extent(&target.path, target.stripe, good);
            self.scrub.record_repaired(bytes);
        } else {
            // No repair source (evicted or never resident here): the tier
            // copy was the only one, and it is damaged. Quarantine and
            // surface it.
            self.scrub
                .record_quarantined(target.path, target.stripe, bytes);
        }
    }

    /// Lands a shard migration: applies the plan against the sharded tier.
    /// The plan is re-derived at apply time from the *current* map — a
    /// migration admitted under a since-superseded map or for a
    /// since-unlinked extent degrades to `Superseded` (delete wins) — and
    /// every copy re-verifies against its write-back checksum, so a
    /// migration can heal an under-replicated range but never launder a
    /// corrupt extent: with no healthy replica it is refused (`Failed`) and
    /// the extent left in place for the scrubber to quarantine.
    fn land_rebalance(&mut self, plan: MigrationPlan) {
        let Some(sharded) = self.backing.as_sharded() else {
            return;
        };
        match sharded.apply_migration(&plan) {
            MigrationOutcome::Migrated {
                bytes,
                copies,
                removed,
            } => self.rebalance.record_migrated(bytes, copies, removed),
            MigrationOutcome::Superseded => self.rebalance.record_superseded(),
            MigrationOutcome::Failed => self.rebalance.record_failed(),
        }
    }

    /// Lands a replicate copy: writes the extent's *current* bytes — a copy
    /// admitted before a re-dirtying write still replicates the newest
    /// contents — to the replica tier and returns the landed key. The source
    /// is the resident burst extent when one exists, else the capacity
    /// tier's copy through the verified seam: unverifiable bytes are never
    /// replicated; the copy fails visibly instead.
    fn land_replicate(
        &mut self,
        fs: &BurstBufferFs,
        server: usize,
        target: ReplicaTarget,
    ) -> (String, u64) {
        // The extent lives on the shard its stripe hashes to, which
        // may not be the server that executed the write.
        let shard = fs
            .layout_of(&target.path)
            .ok()
            .and_then(|l| l.server_for_stripe(target.stripe))
            .map_or(server, |id| id.0);
        let data = fs
            .resident_extent_on(shard, &target.path, target.stripe)
            .or_else(|| {
                themis_stage::verified_extent(self.backing.as_ref(), &target.path, target.stripe)
            });
        match data {
            Some(data) => {
                let bytes = data.len() as u64;
                self.replica
                    .write_back_extent(&target.path, target.stripe, data);
                self.replicate.record_replicated(bytes);
            }
            // Unlinked mid-copy (delete wins) or no verifiable
            // source: the debt retires without a replica.
            None => self.replicate.record_failed(),
        }
        target.key()
    }

    /// Releases the `sync` acks whose every awaited replica is among
    /// `replicated`.
    fn release_sync_acks(&mut self, replicated: &[(String, u64)], ready: &mut Vec<ReadyReply>) {
        let mut j = 0;
        while j < self.pending_sync_acks.len() {
            for key in replicated {
                self.pending_sync_acks[j].1.remove(key);
            }
            if self.pending_sync_acks[j].1.is_empty() {
                let (reply, _) = self.pending_sync_acks.swap_remove(j);
                self.replicate.record_sync_released();
                ready.push(reply);
            } else {
                j += 1;
            }
        }
    }
}

impl ServerCore {
    /// Whether this server runs the staging subsystem.
    pub fn staging_enabled(&self) -> bool {
        self.staging.is_some()
    }

    /// The capacity tier behind this server (for tests and inspection).
    pub fn backing(&self) -> Option<&Arc<dyn BackingStore>> {
        self.staging.as_ref().map(|s| &s.backing)
    }

    /// Refreshes the instantaneous capacity gauges (`fs` layer series) from
    /// the file system and capacity tier, returning the sampled `(resident,
    /// dirty, backing)` bytes. Called before every status or metrics
    /// snapshot: gauges describe *now*, so they are sampled at read time
    /// rather than maintained on the write path.
    pub(crate) fn refresh_gauges(&self) -> (u64, u64, u64) {
        let resident = self.fs.resident_bytes_on(self.server_index);
        let dirty = self.fs.dirty_bytes_on(self.server_index);
        let backing = self
            .staging
            .as_ref()
            .map_or(0, |st| st.backing.bytes_stored());
        self.telemetry.resident_bytes.set(resident as i64);
        self.telemetry.dirty_bytes.set(dirty as i64);
        self.telemetry.backing_bytes.set(backing as i64);
        (resident, dirty, backing)
    }

    /// A point-in-time staging status snapshot, `None` when staging is
    /// disabled. Includes the restore backlog
    /// ([`DrainStatus::pending_restore_bytes`]) so clients can observe the
    /// stage-in queue delay their reads of evicted data will land behind.
    ///
    /// Like every class status, this reads the pipelines' own registry
    /// counters — the one home of each count — so it agrees with a
    /// [`metrics_snapshot`](Self::metrics_snapshot) by construction, and the
    /// derived backlogs saturate rather than trust update order.
    pub fn drain_status_snapshot(&self) -> Option<DrainStatus> {
        let st = self.staging.as_ref()?;
        let (resident, dirty, backing) = self.refresh_gauges();
        Some(st.drain.status(&st.restore, resident, dirty, backing))
    }

    /// A point-in-time scrub status snapshot, `None` when staging is
    /// disabled.
    pub fn scrub_status_snapshot(&self) -> Option<ScrubStatus> {
        self.staging.as_ref().map(|st| st.scrub.status())
    }

    /// A point-in-time rebalance status snapshot, `None` when staging is
    /// disabled. On an unsharded tier the snapshot reports `sharded: false`
    /// with every counter zero.
    pub fn rebalance_status_snapshot(&self) -> Option<RebalanceStatus> {
        let st = self.staging.as_ref()?;
        Some(st.rebalance.status(st.backing.as_sharded()))
    }

    /// A point-in-time replication status snapshot, `None` when staging is
    /// disabled.
    pub fn replicate_status_snapshot(&self) -> Option<ReplicateStatus> {
        self.staging.as_ref().map(|st| st.replicate.status())
    }

    /// Queues `reply` for `request_id`, or the staging-disabled error when
    /// there is none to give.
    fn push_stage_reply(&mut self, request_id: u64, reply: Option<StageReply>) {
        let reply = reply
            .unwrap_or_else(|| StageReply::Error("staging is not enabled on this server".into()));
        self.stage_replies.push(StageReady { request_id, reply });
    }

    /// Handles a `DrainStatus` request: an immediate snapshot reply.
    pub fn drain_status(&mut self, request_id: u64) {
        let reply = self.drain_status_snapshot().map(StageReply::Status);
        self.push_stage_reply(request_id, reply);
    }

    /// Handles a `ScrubStatus` request: an immediate snapshot reply.
    pub fn scrub_status(&mut self, request_id: u64) {
        let reply = self.scrub_status_snapshot().map(StageReply::Scrub);
        self.push_stage_reply(request_id, reply);
    }

    /// Handles a `RebalanceStatus` request: an immediate snapshot reply.
    pub fn rebalance_status(&mut self, request_id: u64) {
        let reply = self.rebalance_status_snapshot().map(StageReply::Rebalance);
        self.push_stage_reply(request_id, reply);
    }

    /// Handles a `ReplicateStatus` request: an immediate snapshot reply.
    pub fn replicate_status(&mut self, request_id: u64) {
        let reply = self.replicate_status_snapshot().map(StageReply::Replicate);
        self.push_stage_reply(request_id, reply);
    }

    /// Handles a `Flush` request: acknowledge immediately when the path has
    /// no dirty local extents (the no-op case), otherwise wait for the
    /// background drain — which the flush does not bypass; it is ordinary
    /// policy-arbitrated drain traffic — to make the path clean.
    pub fn flush(&mut self, request_id: u64, meta: JobMeta, path: &str, now_ns: u64) {
        if self.reject_reserved_stage(request_id, &meta) {
            return;
        }
        self.settle_shares();
        self.jobs.observe_request(meta, now_ns);
        let path = match themis_fs::path::normalize(path) {
            Ok(p) => p,
            Err(e) => {
                self.stage_replies.push(StageReady {
                    request_id,
                    reply: StageReply::Error(e.to_string()),
                });
                return;
            }
        };
        let server = self.server_index;
        let Some(st) = self.staging.as_mut() else {
            self.push_stage_reply(request_id, None);
            return;
        };
        let busy = self.fs.path_dirty_on(server, &path).unwrap_or(false)
            || st.drain.has_inflight_for(&path);
        if busy {
            st.pending_flushes.push((request_id, path));
        } else {
            let backing_bytes = st.backing.bytes_for(&path);
            self.stage_replies.push(StageReady {
                request_id,
                reply: StageReply::Flushed { backing_bytes },
            });
        }
    }

    /// Handles a `StageIn` request: restores the evicted extents of the path
    /// on **this server's shard** from the capacity tier. Like dirty state,
    /// evicted state is server-local — the client broadcasts `StageIn` so
    /// every shard restores its own stripes exactly once (no duplicated
    /// restore work, exact byte counts).
    ///
    /// The restores are synthesized as policy-admitted
    /// [`TrafficClass::Restore`] requests — a large stage-in no longer
    /// bypasses the engine and cannot starve policy-arbitrated foreground
    /// traffic — so the acknowledgement is deferred until every queued
    /// extent has landed (delivered by a later [`ServerCore::poll`]).
    pub fn stage_in(&mut self, request_id: u64, meta: JobMeta, path: &str, now_ns: u64) {
        if self.reject_reserved_stage(request_id, &meta) {
            return;
        }
        self.settle_shares();
        self.jobs.observe_request(meta, now_ns);
        let path = match themis_fs::path::normalize(path) {
            Ok(p) => p,
            Err(e) => {
                self.stage_replies.push(StageReady {
                    request_id,
                    reply: StageReply::Error(e.to_string()),
                });
                return;
            }
        };
        let shard = self.server_index;
        let evicted = self.fs.evicted_extents_on(shard, Some(&path));
        let Some(st) = self.staging.as_mut() else {
            self.push_stage_reply(request_id, None);
            return;
        };
        if evicted.is_empty() {
            // Everything already resident: an immediate no-op ack.
            self.stage_replies.push(StageReady {
                request_id,
                reply: StageReply::StagedIn { restored_bytes: 0 },
            });
            return;
        }
        let mut keys = HashSet::new();
        for (p, stripe, len) in evicted {
            let target = RestoreTarget {
                shard,
                path: p,
                stripe,
                bytes: len,
                pin_dirty: false,
            };
            keys.insert(target.key());
            st.restore.request(target);
        }
        st.pending_stage_ins.push(PendingStageIn {
            request_id,
            keys,
            restored_bytes: 0,
        });
    }

    /// Handles a `Scrub` request: demands a full checksum pass over this
    /// server's share of the capacity tier — forced even when the
    /// continuous background scrubber is disabled. The acknowledgement
    /// (carrying the post-pass [`ScrubStatus`]) is **deferred** until the
    /// pass completes, delivered by a later [`ServerCore::poll`]; the
    /// verification traffic it triggers is ordinary policy-arbitrated
    /// [`TrafficClass::Scrub`] traffic, so a demand scrub cannot starve
    /// foreground tenants.
    pub fn scrub(&mut self, request_id: u64) {
        let Some(st) = self.staging.as_mut() else {
            self.push_stage_reply(request_id, None);
            return;
        };
        let pass = st.scrub.force_pass();
        st.pending_scrubs.push((request_id, pass));
    }

    /// The replica tier's **verified** copy of `(path, stripe)` — `None`
    /// when staging is disabled, no replica landed, or the copy fails its
    /// checksum. The crash-before-replicate oracle reads this to prove that
    /// acked `local_plus_one`/`sync` bytes survive losing the burst tier;
    /// `local_only` data legitimately answers `None`.
    pub fn replica_extent(&self, path: &str, stripe: u64) -> Option<Vec<u8>> {
        let st = self.staging.as_ref()?;
        themis_stage::verified_read_back(&st.replica, path, stripe)
    }

    /// Demands a heal pass over the sharded capacity tier: a migration pass
    /// even without a map change, re-replicating any range a lost replica
    /// left under-replicated. A no-op without staging or on an unsharded
    /// tier.
    pub fn force_rebalance_pass(&mut self) {
        if let Some(st) = self.staging.as_mut() {
            if st.backing.as_sharded().is_some() {
                st.rebalance.force_pass();
            }
        }
    }

    /// Synchronous fallback restore of evicted extents of `path`, returning
    /// the bytes copied back. The *primary* stage-in path is the policy-
    /// admitted restore pipeline ([`ServerCore::park_if_needs_restore`]);
    /// this fallback only runs when a foreground operation discovers an
    /// eviction the parking pre-check could not see — a peer server evicting
    /// a shared-shard extent between the check and the execution — and is
    /// charged to the device timelines directly (the race window is a
    /// single operation wide, so the uncharged bandwidth is bounded).
    ///
    /// With `targets = Some(stripes)` only those stripes are restored, and
    /// they come back *pinned dirty* so a concurrent evictor cannot race the
    /// caller (the restore-for-write path: the write re-dirties them
    /// anyway, and untouched evicted extents stay in the tier — reads serve
    /// them by read-through). With `targets = None` every evicted extent of
    /// the path is restored clean (the tier still holds identical copies).
    pub(crate) fn restore_extents(
        &mut self,
        shards: std::ops::Range<usize>,
        path: &str,
        now_ns: u64,
        targets: Option<&HashSet<u64>>,
    ) -> u64 {
        let Some(st) = self.staging.as_mut() else {
            return 0;
        };
        let pin_dirty = targets.is_some();
        let mut restored = 0u64;
        for shard in shards {
            for (p, stripe, _) in self.fs.evicted_extents_on(shard, Some(path)) {
                if targets.is_some_and(|set| !set.contains(&stripe)) {
                    continue;
                }
                // Verified read: a corrupt tier copy is a miss, never a
                // restore source (see the stage crate's verified_extent).
                let Some(data) = themis_stage::verified_extent(st.backing.as_ref(), &p, stripe)
                else {
                    continue;
                };
                // Charge the capacity tier the read and the burst buffer the
                // write-back.
                let bytes = data.len() as u64;
                let meta = st.drain.meta();
                let read = IoRequest::new(0, meta, OpKind::Read, bytes, now_ns);
                let (_, read_finish) = st.backing_device.dispatch(&read, now_ns);
                let write = IoRequest::new(0, meta, OpKind::Write, bytes, read_finish);
                self.device.dispatch(&write, read_finish);
                self.fs
                    .restore_extent_on(shard, &p, stripe, data, pin_dirty);
                restored += bytes;
            }
        }
        restored
    }

    /// One staging maintenance pass, the same three phases for every traffic
    /// class in [`TrafficClass::ALL`] order: land the requests whose device
    /// charges finished (waking parked foreground operations and deferred
    /// acks), evict under watermark pressure, admit fresh class traffic —
    /// then close finished passes and acknowledge finished flushes.
    pub(crate) fn stage_tick(&mut self, now_ns: u64, ready: &mut Vec<ReadyReply>) {
        if self.staging.is_none() {
            return;
        }
        let server = self.server_index;

        // 1. Landings, every class before the eviction pass: a freshly
        //    restored extent cannot be reclaimed out from under the parked
        //    op it was restored for, and a scrub repair's burst-copy source
        //    cannot be reclaimed in the same tick it is needed.
        for class in TrafficClass::ALL {
            self.land_due(class, now_ns, ready);
        }
        let Some(st) = self.staging.as_mut() else {
            return;
        };

        // 2. Watermark eviction: reclaim clean extents down to the low
        //    watermark. Dirty extents are never touched.
        let cfg = *st.drain.config();
        if self.fs.resident_bytes_on(server) > cfg.high_watermark_bytes {
            let evicted = self.fs.evict_clean_on(server, cfg.low_watermark_bytes);
            let bytes: u64 = evicted.iter().map(|(_, _, len)| len).sum();
            if !evicted.is_empty() {
                st.drain.record_eviction(evicted.len() as u64, bytes);
            }
        }

        // 3. Admission: each class synthesizes policy-arbitrated requests
        //    for the work it has due — dirty extents, queued restores, the
        //    scrub and rebalance passes' next extents, replica debt — up to
        //    its pipelining depth.
        self.admit_classes(&TrafficClass::ALL, now_ns);
        let Some(st) = self.staging.as_mut() else {
            return;
        };

        // 3b. Close the passes whose cursor and in-flight set both drained,
        //     and resolve the deferred `Scrub` acknowledgements waiting on
        //     one (including the trivially complete pass over an empty
        //     tier).
        if let Some(pass) = st.scrub.finish_pass_if_idle(now_ns) {
            let status = st.scrub.status();
            let mut j = 0;
            while j < st.pending_scrubs.len() {
                if st.pending_scrubs[j].1 <= pass {
                    let (request_id, _) = st.pending_scrubs.swap_remove(j);
                    self.stage_replies.push(StageReady {
                        request_id,
                        reply: StageReply::Scrub(status.clone()),
                    });
                } else {
                    j += 1;
                }
            }
        }
        st.rebalance.finish_pass_if_idle();

        // 4. Flushes whose path became clean locally.
        let mut j = 0;
        while j < st.pending_flushes.len() {
            let path = &st.pending_flushes[j].1;
            let busy = self.fs.path_dirty_on(server, path).unwrap_or(false)
                || st.drain.has_inflight_for(path);
            if busy {
                j += 1;
            } else {
                let (request_id, path) = st.pending_flushes.swap_remove(j);
                let backing_bytes = st.backing.bytes_for(&path);
                self.stage_replies.push(StageReady {
                    request_id,
                    reply: StageReply::Flushed { backing_bytes },
                });
            }
        }
    }

    /// Lands every request of `class` whose device charges finished by
    /// `now_ns`. What landing *means* is the one thing the classes do not
    /// share: a drain marks its extent clean (unless a concurrent write
    /// re-dirtied it — the generation check), a restore puts the extent
    /// back and wakes its waiters, a scrub judges a checksum, a migration
    /// re-places an extent, a replica releases `sync` acks.
    fn land_due(&mut self, class: TrafficClass, now_ns: u64, ready: &mut Vec<ReadyReply>) {
        let server = self.server_index;
        let Some(st) = self.staging.as_mut() else {
            return;
        };
        match class {
            TrafficClass::Drain => {
                while let Some(d) = st.drain.pop_due(now_ns) {
                    self.fs
                        .mark_clean_on(server, &d.path, d.stripe, d.generation);
                }
            }
            TrafficClass::Restore => {
                let mut landed = Vec::new();
                while let Some(target) = st.restore.pop_due(now_ns) {
                    landed.push(st.land_restore(&self.fs, target));
                }
                if !landed.is_empty() {
                    self.wake_restored(&landed, now_ns, ready);
                }
            }
            TrafficClass::Scrub => {
                while let Some(target) = st.scrub.pop_due(now_ns) {
                    st.land_scrub(&self.fs, &mut self.device, server, target, now_ns);
                }
            }
            TrafficClass::Rebalance => {
                while let Some(plan) = st.rebalance.pop_due(now_ns) {
                    st.land_rebalance(plan);
                }
            }
            TrafficClass::Replicate => {
                let mut replicated = Vec::new();
                while let Some(target) = st.replicate.pop_due(now_ns) {
                    replicated.push(st.land_replicate(&self.fs, server, target));
                }
                st.release_sync_acks(&replicated, ready);
            }
        }
    }

    /// Wakes the waiters of freshly landed extents: pending stage-in acks
    /// accumulate restored bytes, parked foreground ops whose last restore
    /// landed execute now (charged device time from `now_ns`).
    fn wake_restored(
        &mut self,
        landed: &[((usize, String, u64), u64)],
        now_ns: u64,
        ready: &mut Vec<ReadyReply>,
    ) {
        let Some(st) = self.staging.as_mut() else {
            return;
        };
        let mut j = 0;
        while j < st.pending_stage_ins.len() {
            let pending = &mut st.pending_stage_ins[j];
            for (key, actual) in landed {
                if pending.keys.remove(key) {
                    pending.restored_bytes += actual;
                }
            }
            if pending.keys.is_empty() {
                let done = st.pending_stage_ins.swap_remove(j);
                self.stage_replies.push(StageReady {
                    request_id: done.request_id,
                    reply: StageReply::StagedIn {
                        restored_bytes: done.restored_bytes,
                    },
                });
            } else {
                j += 1;
            }
        }
        // Order-preserving wake: parked ops execute in admission order,
        // and an op whose restores all landed still waits while an
        // *earlier* parked op targeting overlapping extents (full key
        // sets intersect) is parked — otherwise two writes to the same
        // stripe could swap when their restores land in different
        // ticks. `Vec::remove`, not `swap_remove`, keeps the order.
        let mut unparked: Vec<ParkedOp> = Vec::new();
        let mut blocked: HashSet<(usize, String, u64)> = HashSet::new();
        let mut j = 0;
        while j < st.parked_ops.len() {
            let parked = &mut st.parked_ops[j];
            for (key, _) in landed {
                parked.keys.remove(key);
            }
            let held_up =
                !parked.keys.is_empty() || parked.all_keys.iter().any(|k| blocked.contains(k));
            if held_up {
                blocked.extend(parked.all_keys.iter().cloned());
                j += 1;
            } else {
                unparked.push(st.parked_ops.remove(j));
            }
        }
        for parked in unparked {
            self.telemetry.wakes.inc();
            self.telemetry
                .park_ns
                .record(now_ns.saturating_sub(parked.parked_at_ns));
            self.trace_park_event(now_ns, TraceKind::Wake, &parked.request);
            self.run_foreground(parked.request_id, parked.request, &parked.op, now_ns, ready);
        }
    }

    /// Feeds the due work of `classes` to the policy engine, in order, each
    /// up to its pipelining depth. Runs over every class each tick, and for
    /// one class on the spot when a poll creates work for it (a parked
    /// reader's restores, a write's replica debt) so it competes in that
    /// same poll.
    ///
    /// The tier-walking classes split a shared tier by ownership: each
    /// server scrubs and migrates exactly the extents whose stripes its
    /// shard owns, so a multi-server deployment covers the tier once;
    /// orphaned extents (no live layout) fall to server 0.
    pub(crate) fn admit_classes(&mut self, classes: &[TrafficClass], now_ns: u64) {
        let server = self.server_index;
        let Some(st) = self.staging.as_mut() else {
            return;
        };
        let fs = &self.fs;
        let backing = Arc::clone(&st.backing);
        let owns = |path: &str, stripe: u64| match fs.layout_of(path) {
            Ok(layout) => layout.server_for_stripe(stripe).map(|id| id.0) == Some(server),
            Err(_) => server == 0,
        };
        let ctx = AdmitContext {
            fs,
            backing: backing.as_ref(),
            owns: &owns,
        };
        for &class in classes {
            let pipeline = st.lifecycle_mut(class);
            while let Some(request) = pipeline.admit_next(self.next_seq, now_ns, &ctx) {
                self.next_seq += 1;
                self.engine.admit(request);
            }
        }
    }

    /// Executes a class request the engine released. The burst-buffer
    /// device is charged the request itself — the slot the engine granted,
    /// which is what keeps every class bounded by its foreground:class
    /// weight — and the tier behind it is charged the class's [`Charge`]
    /// row at its own speed. The request lands when both finish (in a later
    /// [`ServerCore::poll`]), and whatever bytes it moves are read *then*,
    /// so an extent re-dirtied meanwhile lands its latest contents.
    pub(crate) fn execute_class(&mut self, class: TrafficClass, request: &IoRequest, now_ns: u64) {
        let (_, burst_finish) = self.device.dispatch(request, now_ns);
        let Some(st) = self.staging.as_mut() else {
            return;
        };
        let (bytes, copies) = match class {
            TrafficClass::Drain => {
                match st.write_back_snapshot(&self.fs, self.server_index, request.seq) {
                    Some(written) => (written, 1),
                    None => return,
                }
            }
            TrafficClass::Rebalance => {
                let plan = st.rebalance.inflight(request.seq);
                (
                    request.bytes,
                    plan.map_or(1, |p| p.copy_to.len().max(1) as u64),
                )
            }
            _ => (request.bytes, 1),
        };
        let charge = Charge::of(class);
        let timeline = if charge.on_replica {
            &mut st.replica_device
        } else {
            &mut st.backing_device
        };
        let mut at = if charge.after_burst {
            burst_finish
        } else {
            now_ns
        };
        for &kind in charge.legs {
            let cost = if kind == OpKind::Write {
                bytes * copies
            } else {
                bytes
            };
            let leg = IoRequest::new(request.seq, request.meta, kind, cost, at);
            (_, at) = timeline.dispatch(&leg, at);
        }
        st.lifecycle_mut(class)
            .dispatched(request.seq, burst_finish.max(at));
    }

    /// The `(stripe, bytes-written-into-it)` spans a write operation dirties,
    /// with the normalized target path — `None` for non-writes and writes the
    /// layout cannot resolve. Cursor writes read the descriptor's *current*
    /// cursor, so this must run before the write executes.
    pub(crate) fn write_spans(&self, op: &FsOp) -> Option<(String, Vec<(u64, u64)>)> {
        self.staging.as_ref()?;
        let (path, offset, len) = match op {
            FsOp::WriteAt { path, offset, data } => (path.clone(), *offset, data.len() as u64),
            FsOp::Write { fd, data } => {
                let path = self.fs.fd_path(*fd).ok()?;
                // lseek(0, CUR) reads the cursor without moving it.
                let cursor = self.fs.lseek(*fd, 0, Whence::Cur).ok()?;
                (path, cursor, data.len() as u64)
            }
            _ => return None,
        };
        if len == 0 {
            return None;
        }
        let path = themis_fs::path::normalize(&path).ok()?;
        let stripe_size = self.fs.layout_of(&path).ok()?.config.stripe_size.max(1);
        // Saturating end, as in `restore_targets_for`: never overflow on a
        // client-controlled offset near u64::MAX.
        let end = offset.saturating_add(len - 1);
        let mut spans = Vec::new();
        for stripe in offset / stripe_size..=end / stripe_size {
            let extent_start = stripe * stripe_size;
            let extent_end = extent_start.saturating_add(stripe_size);
            let lo = offset.max(extent_start);
            let hi = offset.saturating_add(len).min(extent_end);
            spans.push((stripe, hi.saturating_sub(lo)));
        }
        Some((path, spans))
    }

    /// Records the replica debt an executed foreground write created under
    /// the durability policy, then delivers the reply — immediately for
    /// `local_only`/`local_plus_one` writes (and every non-write), or parked
    /// on the replicate pipeline for `sync` writes, whose acks wait until
    /// the replicas of every stripe they dirtied land (the replicate
    /// landing in [`ServerCore::stage_tick`] releases them).
    pub(crate) fn note_durable_write(
        &mut self,
        spans: Option<(String, Vec<(u64, u64)>)>,
        reply: ReadyReply,
        ready: &mut Vec<ReadyReply>,
        now_ns: u64,
    ) {
        let meta = reply.completion.request.meta;
        let deliver_now = matches!(reply.reply, FsReply::Error(_))
            || spans.is_none()
            || self
                .staging
                .as_ref()
                .is_none_or(|st| !st.replicate.enabled() || st.durability.is_none());
        if deliver_now {
            ready.push(reply);
            return;
        }
        // All checked non-None/enabled above; destructure without unwrap.
        let Some((path, spans)) = spans else {
            ready.push(reply);
            return;
        };
        let Some(st) = self.staging.as_mut() else {
            ready.push(reply);
            return;
        };
        let Some(spec) = st.durability.as_ref() else {
            ready.push(reply);
            return;
        };
        let mode = spec.resolve(meta.job, meta.user, &path);
        if !mode.replicates() {
            ready.push(reply);
            return;
        }
        for (stripe, bytes) in &spans {
            st.replicate.note_write(path.clone(), *stripe, *bytes, mode);
        }
        if mode.defers_ack() {
            // `sync`: the client must never observe a success the replica
            // tier could still lose — park the ack until every replica of
            // the stripes this write dirtied lands.
            let keys = spans.iter().map(|(s, _)| (path.clone(), *s)).collect();
            st.replicate.record_sync_deferred();
            st.pending_sync_acks.push((reply, keys));
        } else {
            ready.push(reply);
        }
        // Give the engine the fresh copy work immediately so it competes in
        // this same poll.
        self.admit_classes(&[TrafficClass::Replicate], now_ns);
    }

    /// The evicted extents a foreground operation's byte range touches, as
    /// restore targets (`pin_dirty` for writes — the restore must pin
    /// against the evictor until the write lands; clean for reads). Empty
    /// when staging is disabled or every target extent is resident.
    ///
    /// Only *offset-based* operations (`ReadAt`/`WriteAt`) are eligible:
    /// parking a cursor-based `Read`/`Write` would let a later request on
    /// the same descriptor execute first and move the cursor out from under
    /// the parked one. Cursor I/O of evicted data instead takes the
    /// synchronous fallback inside [`ServerCore::execute`], which preserves
    /// per-descriptor order.
    fn restore_targets_for(&self, op: &FsOp) -> Vec<RestoreTarget> {
        if self.staging.is_none() {
            return Vec::new();
        }
        // O(servers) early-out: with nothing evicted anywhere — the common
        // all-resident case on the hot dispatch path — skip the per-request
        // path/layout/residency work entirely.
        if (0..self.fs.server_count()).all(|s| self.fs.evicted_count_on(s) == 0) {
            return Vec::new();
        }
        let (path, offset, len, pin_dirty) = match op {
            FsOp::WriteAt { path, offset, data } => {
                (path.clone(), *offset, data.len() as u64, true)
            }
            FsOp::ReadAt { path, offset, len } => (path.clone(), *offset, *len, false),
            _ => return Vec::new(),
        };
        if len == 0 {
            return Vec::new();
        }
        let Ok(path) = themis_fs::path::normalize(&path) else {
            return Vec::new();
        };
        let Ok(layout) = self.fs.layout_of(&path) else {
            return Vec::new();
        };
        // Reads are clamped at EOF (like the read itself), bounding the
        // stripe walk for oversized request lengths.
        let len = if pin_dirty {
            len
        } else {
            let Ok(stat) = self.fs.stat(&path) else {
                return Vec::new();
            };
            if offset >= stat.size {
                return Vec::new();
            }
            len.min(stat.size - offset)
        };
        let stripe_size = layout.config.stripe_size.max(1);
        // Saturating end: a client-controlled WriteAt near u64::MAX must
        // not overflow the stripe arithmetic (the write itself will fail
        // downstream; the pre-check must stay panic-free). `len >= 1` here.
        let stripes = offset / stripe_size..=offset.saturating_add(len - 1) / stripe_size;
        let mut targets = Vec::new();
        // Evicted state lives on the shard each stripe hashes to; collect
        // each involved shard's evicted set once.
        let mut shards: Vec<usize> = stripes
            .clone()
            .filter_map(|s| layout.server_for_stripe(s).map(|id| id.0))
            .collect();
        shards.sort_unstable();
        shards.dedup();
        for shard in shards {
            for (p, stripe, bytes) in self.fs.evicted_extents_on(shard, Some(&path)) {
                if stripes.contains(&stripe)
                    && layout.server_for_stripe(stripe).map(|id| id.0) == Some(shard)
                {
                    targets.push(RestoreTarget {
                        shard,
                        path: p,
                        stripe,
                        bytes,
                        pin_dirty,
                    });
                }
            }
        }
        targets
    }

    /// The `(shard, path, stripe)` extent keys an offset-based foreground
    /// operation targets — resident or evicted. These order foreground
    /// execution against parked operations: a later op overlapping any key
    /// an earlier parked op targets must wait behind it (admission order)
    /// even when its own extents are all resident. Empty for non-offset ops
    /// (cursor I/O keeps per-descriptor order by never parking) and when
    /// staging is disabled.
    fn target_extent_keys(&self, op: &FsOp) -> HashSet<(usize, String, u64)> {
        let mut keys = HashSet::new();
        if self.staging.is_none() {
            return keys;
        }
        let (path, offset, len, is_write) = match op {
            FsOp::WriteAt { path, offset, data } => {
                (path.clone(), *offset, data.len() as u64, true)
            }
            FsOp::ReadAt { path, offset, len } => (path.clone(), *offset, *len, false),
            _ => return keys,
        };
        if len == 0 {
            return keys;
        }
        let Ok(path) = themis_fs::path::normalize(&path) else {
            return keys;
        };
        let Ok(layout) = self.fs.layout_of(&path) else {
            return keys;
        };
        // Reads are clamped at EOF, like `restore_targets_for`.
        let len = if is_write {
            len
        } else {
            let Ok(stat) = self.fs.stat(&path) else {
                return keys;
            };
            if offset >= stat.size {
                return keys;
            }
            len.min(stat.size - offset)
        };
        let stripe_size = layout.config.stripe_size.max(1);
        // Saturating end, as in `restore_targets_for`: never overflow on a
        // client-controlled offset near u64::MAX.
        for stripe in offset / stripe_size..=offset.saturating_add(len - 1) / stripe_size {
            if let Some(id) = layout.server_for_stripe(stripe) {
                keys.insert((id.0, path.clone(), stripe));
            }
        }
        keys
    }

    /// Parks a foreground request behind policy-admitted restores when its
    /// target extents are evicted. Returns whether the request was parked
    /// (the caller must not execute it).
    pub(crate) fn park_if_needs_restore(
        &mut self,
        request_id: u64,
        request: &IoRequest,
        op: &FsOp,
        now_ns: u64,
    ) -> bool {
        let targets = self.restore_targets_for(op);
        if targets.is_empty() {
            return false;
        }
        // Conflict tracking covers the op's *full* extent range, not just
        // the evicted keys it queues restores for: a stripe of this op that
        // is resident today is still written when the op finally executes,
        // so a later op touching it must order behind this one.
        let mut all_keys = self.target_extent_keys(op);
        let Some(st) = self.staging.as_mut() else {
            return false;
        };
        let mut keys = HashSet::new();
        for target in targets {
            keys.insert(target.key());
            st.restore.request(target);
        }
        all_keys.extend(keys.iter().cloned());
        st.parked_ops.push(ParkedOp {
            request_id,
            request: *request,
            op: op.clone(),
            parked_at_ns: now_ns,
            all_keys,
            keys,
        });
        self.telemetry.parked_ops.inc();
        self.trace_park_event(now_ns, TraceKind::Park, request);
        // Give the engine the new restore work immediately so it competes in
        // this same poll.
        self.admit_classes(&[TrafficClass::Restore], now_ns);
        true
    }

    /// Parks a foreground request behind *earlier* parked operations whose
    /// target extents overlap its own, even when every extent it touches is
    /// resident — the other half of the admission-order guarantee
    /// ([`ParkedOp::all_keys`]): without it, a later write needing no
    /// restore executes immediately, and the earlier parked write — which
    /// landed in the queue first but is still waiting on its restores —
    /// executes *after* it and silently clobbers its bytes. The blocked op
    /// queues no restores of its own; it wakes (strictly after the ops it
    /// is ordered behind) in the same restore-landing pass that releases
    /// them. Returns whether the request was parked.
    pub(crate) fn park_if_overlaps_parked(
        &mut self,
        request_id: u64,
        request: &IoRequest,
        op: &FsOp,
        now_ns: u64,
    ) -> bool {
        if self
            .staging
            .as_ref()
            .is_none_or(|st| st.parked_ops.is_empty())
        {
            return false;
        }
        let keys = self.target_extent_keys(op);
        if keys.is_empty() {
            return false;
        }
        let Some(st) = self.staging.as_mut() else {
            return false;
        };
        if !st
            .parked_ops
            .iter()
            .any(|p| p.all_keys.iter().any(|k| keys.contains(k)))
        {
            return false;
        }
        st.parked_ops.push(ParkedOp {
            request_id,
            request: *request,
            op: op.clone(),
            parked_at_ns: now_ns,
            keys: HashSet::new(),
            all_keys: keys,
        });
        self.telemetry.parked_ops.inc();
        self.trace_park_event(now_ns, TraceKind::Park, request);
        true
    }

    /// The stripes a write operation targets (`None` for non-writes) — the
    /// extents that must be pinned dirty by a restore-for-write.
    pub(crate) fn write_target_stripes(&self, op: &FsOp) -> Option<HashSet<u64>> {
        let (path, offset, len) = match op {
            FsOp::WriteAt { path, offset, data } => (path.clone(), *offset, data.len() as u64),
            FsOp::Write { fd, data } => {
                let path = self.fs.fd_path(*fd).ok()?;
                // lseek(0, CUR) reads the cursor without moving it.
                let cursor = self.fs.lseek(*fd, 0, Whence::Cur).ok()?;
                (path, cursor, data.len() as u64)
            }
            _ => return None,
        };
        if len == 0 {
            return Some(HashSet::new());
        }
        let stripe_size = self.fs.layout_of(&path).ok()?.config.stripe_size.max(1);
        // Saturating end, as in `restore_targets_for`: never overflow on a
        // client-controlled offset near u64::MAX.
        Some((offset / stripe_size..=offset.saturating_add(len - 1) / stripe_size).collect())
    }

    /// Reads up to `len` bytes, serving evicted extents straight from the
    /// capacity tier (read-through) when staging is enabled. The fetched
    /// bytes are charged to the capacity-tier device's timeline (occupying
    /// its workers); as a modelling simplification the *reply's* completion
    /// time still comes from the burst-buffer dispatch alone, so per-request
    /// latency of staged reads is optimistic — capacity-tier congestion
    /// shows up in the backing timeline's utilisation, not in reply times.
    pub(crate) fn read_through(
        &mut self,
        target: ReadTarget<'_>,
        len: u64,
        now_ns: u64,
    ) -> Result<Vec<u8>, FsError> {
        let Some(st) = self.staging.as_mut() else {
            return match target {
                ReadTarget::Fd(fd) => self.fs.read(fd, len),
                ReadTarget::At(path, offset) => self.fs.read_at(path, offset, len),
            };
        };
        let backing = Arc::clone(&st.backing);
        let fetched = std::cell::Cell::new(0u64);
        let fetch = |p: &str, stripe: u64| {
            // Verified fetch: serving an unverified tier copy would hand the
            // client corrupt bytes; refusing surfaces NotResident instead.
            let data = themis_stage::verified_extent(backing.as_ref(), p, stripe);
            if let Some(d) = &data {
                fetched.set(fetched.get() + d.len() as u64);
            }
            data
        };
        let result = match target {
            ReadTarget::Fd(fd) => self.fs.read_with(fd, len, &fetch),
            ReadTarget::At(path, offset) => self.fs.read_at_with(path, offset, len, &fetch),
        };
        if fetched.get() > 0 {
            let read = IoRequest::new(0, st.drain.meta(), OpKind::Read, fetched.get(), now_ns);
            st.backing_device.dispatch(&read, now_ns);
        }
        // Residency accounting: a read that pulled anything through the
        // capacity tier is a miss op (the fetched bytes count as misses, the
        // remainder of the returned payload was resident); a read served
        // entirely from the shard is a hit op.
        if let Ok(data) = &result {
            let fetched = fetched.get();
            if fetched > 0 {
                self.telemetry.residency_miss_ops.inc();
                self.telemetry.residency_miss_bytes.add(fetched);
                let resident = (data.len() as u64).saturating_sub(fetched);
                if resident > 0 {
                    self.telemetry.residency_hit_bytes.add(resident);
                }
            } else {
                self.telemetry.residency_hit_ops.inc();
                self.telemetry.residency_hit_bytes.add(data.len() as u64);
            }
        }
        result
    }

    /// Drops the capacity tier's copies of a path that was unlinked or
    /// truncated, so stale snapshots cannot be staged back in — and lifts
    /// any scrub quarantine on them (the damaged copies are gone).
    pub(crate) fn drop_backing_copies(&mut self, path: &str) {
        if let (Some(st), Ok(p)) = (self.staging.as_mut(), themis_fs::path::normalize(path)) {
            st.backing.remove_path(&p);
            // Delete wins on the replica tier too: a stale durability copy
            // of an unlinked path must not outlive the data.
            st.replica.remove_path(&p);
            st.scrub.unquarantine_path(&p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::tests::{fast_staging, meta, poll_until_clean, staged_server, write_file};
    use crate::core::ServerConfig;

    /// A staged server over a tier the test keeps a handle to.
    fn staged_over(staging: StagingConfig, tier: Arc<dyn BackingStore>) -> ServerCore {
        let config = ServerConfig {
            staging: Some(staging),
            ..ServerConfig::default()
        };
        ServerCore::with_backing(0, BurstBufferFs::new(1), config, Some(tier))
    }

    fn fs_counter(s: &ServerCore, name: &str) -> u64 {
        s.metrics_registry().snapshot(0).counter(0, 0, "fs", name)
    }

    /// The heal pass README advertises: with the map unchanged, a replica
    /// lost behind the router's back is re-created by
    /// `force_rebalance_pass`, as ordinary rebalance-class traffic.
    #[test]
    fn forced_rebalance_pass_heals_a_lost_replica() {
        let children = [CapacityTier::hdd(), CapacityTier::hdd()].map(Arc::new);
        let store = themis_stage::ShardedStore::new(
            children
                .iter()
                .map(|c| Arc::clone(c) as Arc<dyn BackingStore>)
                .collect(),
            themis_stage::ShardMap::uniform(2),
            2,
        );
        let mut s = staged_over(fast_staging(), Arc::new(store));
        s.heartbeat(meta(1, 1), 0);
        write_file(&mut s, "/heal", 2 << 20, 0);
        let mut t = poll_until_clean(&mut s, 1_000_000);
        let placement = |s: &ServerCore| {
            let tier = s.backing().unwrap().as_sharded().unwrap();
            tier.verify_placement()
        };
        assert!(placement(&s).converged(), "k = 2 drains place both copies");
        let before = s.rebalance_status_snapshot().unwrap();
        assert_eq!(before.copies_written, 0);

        assert!(children[0].remove_extent("/heal", 0) > 0);
        assert_eq!(placement(&s).under_replicated, 1);
        // The map did not move, so nothing heals on its own.
        s.poll(t);
        assert!(s.rebalance_status_snapshot().unwrap().is_converged());
        assert_eq!(placement(&s).under_replicated, 1);

        s.force_rebalance_pass();
        loop {
            s.poll(t);
            let status = s.rebalance_status_snapshot().unwrap();
            if status.passes_completed > before.passes_completed && status.is_converged() {
                break;
            }
            t += 100_000;
            assert!(t < 60_000_000_000, "heal pass never finished");
        }
        assert!(placement(&s).converged(), "{:?}", placement(&s));
        let after = s.rebalance_status_snapshot().unwrap();
        assert_eq!(after.copies_written, 1, "{after:?}");
        assert_eq!(after.failed_extents, 0);
        assert!(children[0].contains("/heal", 0));
    }

    /// Same-tick ordering, restore side: the restore that takes resident
    /// bytes over the high watermark lands, wakes its parked reader and is
    /// evicted again all in one tick — in that order, so the reader is
    /// served from the shard, not through the synchronous fallback.
    #[test]
    fn restore_landing_that_crosses_the_watermark_still_serves_its_reader() {
        let mut staging = fast_staging();
        staging.drain.high_watermark_bytes = 3 << 19; // 1.5 extents
        staging.drain.low_watermark_bytes = 0;
        let mut s = staged_server(staging);
        s.heartbeat(meta(1, 1), 0);
        write_file(&mut s, "/r", 2 << 20, 0);
        poll_until_clean(&mut s, 1_000_000);
        s.poll(60_000_000);
        assert_eq!(s.drain_status_snapshot().unwrap().resident_bytes, 0);
        let op = FsOp::ReadAt {
            path: "/r".into(),
            offset: 0,
            len: 2 << 20,
        };
        s.submit(500, meta(1, 1), op, 70_000_000);
        let mut t = 70_000_000;
        let (reply, evicted_in_wake_tick) = loop {
            let evicted_before = s.drain_status_snapshot().unwrap().evicted_bytes;
            let replies = s.poll(t);
            if let Some(r) = replies.into_iter().find(|r| r.request_id == 500) {
                let evicted = s.drain_status_snapshot().unwrap().evicted_bytes;
                break (r.reply, evicted - evicted_before);
            }
            t += 1_000;
            assert!(t < 120_000_000_000, "read never completed");
        };
        assert!(matches!(reply, FsReply::Data(d) if d == vec![0xAB; 2 << 20]));
        assert_eq!(
            evicted_in_wake_tick,
            2 << 20,
            "the landing tick did not cross the watermark"
        );
        assert_eq!(fs_counter(&s, "residency_miss_ops"), 0);
        assert_eq!(fs_counter(&s, "residency_hit_bytes"), 2 << 20);
    }

    /// Same-tick ordering, scrub side: a repair whose clean burst-copy
    /// source is evicted in the very tick the verification lands still
    /// repairs, because every landing runs before the eviction pass.
    #[test]
    fn scrub_repair_source_survives_the_same_ticks_eviction() {
        let mut staging = fast_staging();
        staging.drain.high_watermark_bytes = 3 << 19; // 1.5 extents
        staging.drain.low_watermark_bytes = 0;
        let tier = Arc::new(CapacityTier::new(staging.backing_device));
        let mut s = staged_over(staging, Arc::clone(&tier) as Arc<dyn BackingStore>);
        s.heartbeat(meta(1, 1), 0);
        write_file(&mut s, "/x", 1 << 20, 0);
        let t = poll_until_clean(&mut s, 1_000_000);
        assert!(tier.corrupt_extent("/x", 0, 7));

        // One poll admits and releases the demanded verification and runs a
        // second file's write: resident bytes now exceed the watermark, but
        // no eviction pass has seen them yet.
        s.scrub(600);
        let op = FsOp::CreateStriped {
            path: "/y".into(),
            stripe: themis_fs::StripeConfig::new(1 << 20, 1),
        };
        s.submit(601, meta(1, 1), op, t);
        s.poll(t);
        let op = FsOp::WriteAt {
            path: "/y".into(),
            offset: 0,
            data: vec![0xCD; 1 << 20],
        };
        s.submit(602, meta(1, 1), op, t);
        assert!(s.poll(t).iter().any(|r| r.request_id == 602));
        let status = s.drain_status_snapshot().unwrap();
        assert_eq!((status.resident_bytes, status.evicted_bytes), (2 << 20, 0));
        let st = s.staging.as_ref().unwrap();
        let lands_at = st.scrub.next_finish_ns().expect("verification released");
        assert!(lands_at > t);

        // The landing tick: judge, repair from the resident copy, then evict
        // that copy.
        s.poll(lands_at);
        let status = s.scrub_status_snapshot().unwrap();
        assert_eq!(
            (status.errors_detected, status.repaired_extents),
            (1, 1),
            "{status:?}"
        );
        assert!(status.is_healthy());
        assert_eq!(s.drain_status_snapshot().unwrap().evicted_bytes, 1 << 20);
        let repaired = themis_stage::verified_read_back(tier.as_ref(), "/x", 0);
        assert_eq!(repaired, Some(vec![0xAB; 1 << 20]));
    }

    /// The drain left the shard and the tier sharing one buffer. Corrupting
    /// the tier's copy must not reach the resident copy: reads still return
    /// the written bytes, and the scrubber repairs the tier from them.
    #[test]
    fn cow_tier_corruption_never_reaches_the_resident_copy() {
        let staging = fast_staging();
        let tier = Arc::new(CapacityTier::new(staging.backing_device));
        let mut s = staged_over(staging, Arc::clone(&tier) as Arc<dyn BackingStore>);
        s.heartbeat(meta(1, 1), 0);
        write_file(&mut s, "/x", 1 << 20, 0);
        let t = poll_until_clean(&mut s, 1_000_000);
        let resident = s.fs().resident_extent_on(0, "/x", 0).unwrap();
        let drained = themis_stage::verified_extent(tier.as_ref(), "/x", 0).unwrap();
        assert!(drained.shares_buffer(&resident), "the drain copied");

        assert!(tier.corrupt_extent("/x", 0, 4321));
        assert!(themis_stage::verified_extent(tier.as_ref(), "/x", 0).is_none());
        assert_eq!(
            s.fs().read_at("/x", 0, 1 << 20).unwrap(),
            vec![0xAB; 1 << 20]
        );

        s.scrub(700);
        let mut t = t;
        let status = loop {
            s.poll(t);
            if let Some(r) = s
                .take_stage_replies()
                .into_iter()
                .find(|r| r.request_id == 700)
            {
                match r.reply {
                    StageReply::Scrub(status) => break status,
                    other => panic!("unexpected {other:?}"),
                }
            }
            t += 100_000;
            assert!(t < 60_000_000_000, "scrub never acknowledged");
        };
        assert_eq!(
            (status.errors_detected, status.repaired_extents),
            (1, 1),
            "{status:?}"
        );
        let repaired = themis_stage::verified_extent(tier.as_ref(), "/x", 0).unwrap();
        assert_eq!(repaired, vec![0xAB; 1 << 20]);
        assert!(repaired.shares_buffer(&resident), "the repair copied");
    }
}
