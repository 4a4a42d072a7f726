//! The staging half of the server core: the per-class lifecycle of
//! system-synthesized traffic (landing, admission, execution and status),
//! foreground parking behind restores, and burst-buffer residency.
//! [`crate::core`] keeps submit/poll, the job table and policy.

use crate::core::{ReadyReply, ServerCore, StageReady};
use std::collections::{HashMap, HashSet};
use std::ops::RangeInclusive;
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
    ReplicateStatus, RestorePipeline, RestoreTarget, ScrubPipeline, ScrubStatus, ScrubTarget,
    StagingConfig, TrafficClass,
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

/// The shard `stripe` of `path` lives on — not necessarily the server that
/// wrote it. `None` once the path is gone.
fn stripe_shard(fs: &BurstBufferFs, path: &str, stripe: u64) -> Option<usize> {
    let layout = fs.layout_of(path).ok()?;
    layout.server_for_stripe(stripe).map(|id| id.0)
}

/// Whether `stripe` of `path` can still legitimately hold data: the path
/// exists and its size reaches past the stripe's start. Checking the size,
/// not bare existence, catches a truncate as well as an unlink.
fn stripe_exists(fs: &BurstBufferFs, path: &str, stripe: u64) -> bool {
    let stripe_size = fs
        .layout_of(path)
        .map_or(1, |l| l.config.stripe_size.max(1));
    let stripe_start = stripe.saturating_mul(stripe_size);
    fs.stat(path).is_ok_and(|s| s.size > stripe_start)
}

/// What a parked `sync` ack waits for: for every `(path, stripe)` the write
/// dirtied, the dirty generation it left, which a landed copy of that
/// generation or a newer one releases.
type StripeGenerations = HashMap<(String, u64), u64>;

/// One traffic class per pipeline, in [`TrafficClass::ALL`] order: the
/// drain pipeline runs the Replicate lane too.
const PIPELINES: [TrafficClass; 4] = [
    TrafficClass::Drain,
    TrafficClass::Restore,
    TrafficClass::Scrub,
    TrafficClass::Rebalance,
];

/// The server-side staging state: one pipeline per traffic class (the
/// drain pipeline copies out through both the Drain and the Replicate
/// lane), the capacity tier with its device timeline, plus work waiting on
/// a class's landings.
pub(crate) struct StageState {
    pub(crate) drain: DrainPipeline,
    pub(crate) restore: RestorePipeline,
    pub(crate) scrub: ScrubPipeline,
    pub(crate) rebalance: RebalancePipeline,
    pub(crate) backing: Arc<dyn BackingStore>,
    backing_device: DeviceTimeline,
    /// The durability policy in force (`None`: every write is local-only).
    durability: Option<DurabilitySpec>,
    /// Foreground `sync` write acks parked until the shards of the stripes
    /// they wrote report their bytes in the capacity tier.
    pending_sync_acks: Vec<(ReadyReply, StripeGenerations)>,
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
            drain: DrainPipeline::new(server, sc.drain, sc.durability.clone(), registry),
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
            backing,
            backing_device: DeviceTimeline::new(DeviceModel::new(backing_model)),
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
            TrafficClass::Drain | TrafficClass::Replicate => &self.drain,
            TrafficClass::Restore => &self.restore,
            TrafficClass::Scrub => &self.scrub,
            TrafficClass::Rebalance => &self.rebalance,
        }
    }

    fn lifecycle_mut(&mut self, class: TrafficClass) -> &mut dyn ClassLifecycle {
        match class {
            TrafficClass::Drain | TrafficClass::Replicate => &mut self.drain,
            TrafficClass::Restore => &mut self.restore,
            TrafficClass::Scrub => &mut self.scrub,
            TrafficClass::Rebalance => &mut self.rebalance,
        }
    }

    /// Executes a released copy-out request of either lane, the half no
    /// charge row describes: snapshot the extent on this server's shard,
    /// write it back to the capacity tier under the delete-wins guard, and
    /// lift the scrub quarantine the rewrite heals. Returns the bytes
    /// written, or `None` when nothing was (the extent is clean or gone, or
    /// delete won) and the request left flight.
    fn execute_copy_out(
        &mut self,
        fs: &BurstBufferFs,
        server: usize,
        class: TrafficClass,
        seq: u64,
    ) -> Option<u64> {
        let d = self.drain.inflight(seq)?;
        let (path, stripe) = (d.path.clone(), d.stripe);
        // Snapshot at service time — the extent may have been overwritten
        // (or drained and unlinked) since admission. Delete-wins: a peer's
        // unlink or truncate can land between the snapshot and the
        // write-back; the guarded write re-probes afterwards so the shared
        // tier never keeps a stale copy. A dropped copy leaves the extent
        // dirty, so it is copied again: the probe may have raced a write
        // whose size update had not landed yet.
        let exists = || stripe_exists(fs, &path, stripe);
        let written = fs
            .copy_snapshot_on(server, &path, stripe)
            .filter(|(data, _)| {
                write_back_guarded(self.backing.as_ref(), &path, stripe, data.clone(), exists)
            });
        let Some((data, generation)) = written else {
            self.drain.complete(seq);
            if class == TrafficClass::Replicate && !exists() {
                self.drain.replicate_mut().record_failed();
            }
            return None;
        };
        // The write-back recomputed the extent's checksum, so a previously
        // quarantined copy is sound again.
        self.scrub.unquarantine(&path, stripe);
        let bytes = data.len() as u64;
        self.drain.snapshotted(seq, generation, bytes);
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
            .dirty_state_on(server, &target.path, target.stripe)
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

    /// Releases the `sync` acks whose every awaited stripe's shard reports
    /// a copy of the generation the write left, or of a newer one, in the
    /// capacity tier: the extent is clean or gone, or its dirty entry says
    /// that generation landed. The owner of the shard may be another server.
    fn release_sync_acks(&mut self, fs: &BurstBufferFs, ready: &mut Vec<ReadyReply>) {
        let landed = |(path, stripe): &(String, u64), left: &u64| {
            stripe_shard(fs, path, *stripe)
                .and_then(|shard| fs.dirty_state_on(shard, path, *stripe))
                .is_none_or(|d| d.landed >= *left)
        };
        let mut j = 0;
        while j < self.pending_sync_acks.len() {
            if self.pending_sync_acks[j]
                .1
                .iter()
                .all(|(k, g)| landed(k, g))
            {
                let (reply, _) = self.pending_sync_acks.swap_remove(j);
                self.drain.replicate_mut().record_sync_released();
                ready.push(reply);
            } else {
                j += 1;
            }
        }
    }
}

impl ServerCore {
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

    /// A point-in-time status snapshot of this server's durable copy-out and
    /// of the `sync` acks it deferred, `None` when staging is disabled.
    pub fn replicate_status_snapshot(&self) -> Option<ReplicateStatus> {
        let st = self.staging.as_ref()?;
        Some(st.drain.replicate_status(&self.fs))
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
        targets: Option<&RangeInclusive<u64>>,
    ) -> u64 {
        let Some(st) = self.staging.as_mut() else {
            return 0;
        };
        let pin_dirty = targets.is_some();
        let mut restored = 0u64;
        for shard in shards {
            for (p, stripe, _) in self.fs.evicted_extents_on(shard, Some(path)) {
                if targets.is_some_and(|range| !range.contains(&stripe)) {
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
        //    cannot be reclaimed in the same tick it is needed. Then the
        //    `sync` acks whose copies landed, here or on a peer's shard.
        for class in PIPELINES {
            self.land_due(class, now_ns, ready);
        }
        let Some(st) = self.staging.as_mut() else {
            return;
        };
        st.release_sync_acks(&self.fs, ready);

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

        // 3. Admission: each pipeline synthesizes policy-arbitrated requests
        //    for the work it has due — dirty extents (durable ones in the
        //    Replicate lane), queued restores, the scrub and rebalance
        //    passes' next extents — up to its pipelining depth.
        self.admit_classes(&PIPELINES, now_ns);
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
    /// back and wakes its waiters, a scrub judges a checksum, and a migration
    /// re-places an extent. Both copy-out lanes land as drains.
    fn land_due(&mut self, class: TrafficClass, now_ns: u64, ready: &mut Vec<ReadyReply>) {
        let server = self.server_index;
        let Some(st) = self.staging.as_mut() else {
            return;
        };
        match class {
            TrafficClass::Drain | TrafficClass::Replicate => {
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
            self.run_foreground(parked.request_id, parked.request, parked.op, now_ns, ready);
        }
    }

    /// Feeds the due work of `classes` to the policy engine, in order, each
    /// up to its pipelining depth. Runs over every pipeline each tick, and
    /// for one class on the spot when a poll creates work for it (a parked
    /// reader's restores) so it competes in that same poll.
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
    /// weight — and the tier behind it is charged the class's registry
    /// legs ([`tier_legs`](themis_stage::TrafficClassDef::tier_legs)) at
    /// its own speed, a write once per copy it places. The request lands
    /// when both finish (in a later [`ServerCore::poll`]), and whatever
    /// bytes it moves are read *then*, so an extent re-dirtied meanwhile
    /// lands its latest contents.
    pub(crate) fn execute_class(&mut self, class: TrafficClass, request: &IoRequest, now_ns: u64) {
        let (_, burst_finish) = self.device.dispatch(request, now_ns);
        let Some(st) = self.staging.as_mut() else {
            return;
        };
        let (bytes, copies) = match class {
            TrafficClass::Drain | TrafficClass::Replicate => {
                match st.execute_copy_out(&self.fs, self.server_index, class, request.seq) {
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
        let def = class.def();
        let mut at = if def.tier_after_burst {
            burst_finish
        } else {
            now_ns
        };
        for &kind in def.tier_legs {
            let cost = if kind == OpKind::Write {
                bytes * copies
            } else {
                bytes
            };
            let leg = IoRequest::new(request.seq, request.meta, kind, cost, at);
            (_, at) = st.backing_device.dispatch(&leg, at);
        }
        st.lifecycle_mut(class)
            .dispatched(request.seq, burst_finish.max(at));
    }

    /// The normalized path and the stripes a write operation dirties —
    /// `None` without staging, for non-writes, empty writes and writes the
    /// layout cannot resolve. Cursor writes read the descriptor's *current*
    /// cursor, so this must run before the write executes.
    pub(crate) fn write_stripes(&self, op: &FsOp) -> Option<(String, RangeInclusive<u64>)> {
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
        Some((path, offset / stripe_size..=end / stripe_size))
    }

    /// Delivers an executed foreground reply — immediately, unless it acks a
    /// write the durability policy resolves to `sync`. That ack waits until,
    /// for every stripe the write dirtied, the stripe's shard reports a copy
    /// of the generation the write left (or a newer one) in the capacity
    /// tier ([`StageState::release_sync_acks`]). Whether the Replicate lane
    /// runs only decides how early the copy goes.
    pub(crate) fn defer_sync_ack(
        &mut self,
        stripes: Option<(String, RangeInclusive<u64>)>,
        reply: ReadyReply,
        ready: &mut Vec<ReadyReply>,
    ) {
        let meta = reply.completion.request.meta;
        let fs = &self.fs;
        let (Some((path, stripes)), Some(st)) = (stripes, self.staging.as_mut()) else {
            ready.push(reply);
            return;
        };
        let sync = st
            .durability
            .as_ref()
            .is_some_and(|spec| spec.resolve(meta.job, meta.user, &path).defers_ack());
        if !sync || matches!(reply.reply, FsReply::Error(_)) {
            ready.push(reply);
            return;
        }
        // An extent already clean again waits for nothing newer than
        // generation 0.
        let waits = stripes
            .map(|stripe| {
                let left = stripe_shard(fs, &path, stripe)
                    .and_then(|shard| fs.dirty_state_on(shard, &path, stripe))
                    .map_or(0, |d| d.generation);
                ((path.clone(), stripe), left)
            })
            .collect();
        st.drain.replicate_mut().record_sync_deferred();
        st.pending_sync_acks.push((reply, waits));
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
    /// target extents are evicted. The parked op is moved, not copied, so
    /// its payload can still become its extent when it wakes. Returns the
    /// op when it was not parked (the caller executes it), `None` when it
    /// was.
    pub(crate) fn park_if_needs_restore(
        &mut self,
        request_id: u64,
        request: &IoRequest,
        op: FsOp,
        now_ns: u64,
    ) -> Option<FsOp> {
        let targets = self.restore_targets_for(&op);
        if targets.is_empty() {
            return Some(op);
        }
        // Conflict tracking covers the op's *full* extent range, not just
        // the evicted keys it queues restores for: a stripe of this op that
        // is resident today is still written when the op finally executes,
        // so a later op touching it must order behind this one.
        let mut all_keys = self.target_extent_keys(&op);
        let Some(st) = self.staging.as_mut() else {
            return Some(op);
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
            op,
            parked_at_ns: now_ns,
            all_keys,
            keys,
        });
        self.telemetry.parked_ops.inc();
        self.trace_park_event(now_ns, TraceKind::Park, request);
        // Give the engine the new restore work immediately so it competes in
        // this same poll.
        self.admit_classes(&[TrafficClass::Restore], now_ns);
        None
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
    /// them. Like [`ServerCore::park_if_needs_restore`], returns the op
    /// when it was not parked.
    pub(crate) fn park_if_overlaps_parked(
        &mut self,
        request_id: u64,
        request: &IoRequest,
        op: FsOp,
        now_ns: u64,
    ) -> Option<FsOp> {
        if self
            .staging
            .as_ref()
            .is_none_or(|st| st.parked_ops.is_empty())
        {
            return Some(op);
        }
        let keys = self.target_extent_keys(&op);
        if keys.is_empty() {
            return Some(op);
        }
        let Some(st) = self.staging.as_mut() else {
            return Some(op);
        };
        if !st
            .parked_ops
            .iter()
            .any(|p| p.all_keys.iter().any(|k| keys.contains(k)))
        {
            return Some(op);
        }
        st.parked_ops.push(ParkedOp {
            request_id,
            request: *request,
            op,
            parked_at_ns: now_ns,
            keys: HashSet::new(),
            all_keys: keys,
        });
        self.telemetry.parked_ops.inc();
        self.trace_park_event(now_ns, TraceKind::Park, request);
        None
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
            st.scrub.unquarantine_path(&p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::tests::{
        durable_staging, fast_staging, meta, poll_until_clean, staged_server, tier_copy, write_file,
    };
    use crate::core::ServerConfig;
    use std::sync::Mutex;
    use themis_core::durability::DurabilityMode;
    use themis_fs::{Extent, OpenFlags};
    use themis_stage::DeviceConfig;

    /// A capacity tier that counts every byte handed to it, and records
    /// each extent's first eight bytes: the stamp a test writes to tell one
    /// generation from another.
    struct CountingTier {
        tier: CapacityTier,
        written: Mutex<u64>,
        stamps: Mutex<Vec<(String, u64, u64)>>,
    }

    impl CountingTier {
        fn written(&self) -> u64 {
            *self.written.lock().unwrap()
        }
    }

    impl BackingStore for CountingTier {
        fn name(&self) -> &'static str {
            "counting"
        }

        fn device(&self) -> DeviceConfig {
            self.tier.device()
        }

        fn write_back_extent(&self, path: &str, stripe: u64, data: Extent) {
            *self.written.lock().unwrap() += data.len() as u64;
            if let Some(stamp) = data.first_chunk::<8>() {
                let stamp = (path.to_string(), stripe, u64::from_le_bytes(*stamp));
                self.stamps.lock().unwrap().push(stamp);
            }
            self.tier.write_back_extent(path, stripe, data);
        }

        fn read_back_with_checksum(&self, path: &str, stripe: u64) -> Option<(Extent, u64)> {
            // Through the verified seam: nothing here corrupts the tier.
            let data = themis_stage::verified_extent(&self.tier, path, stripe)?;
            let sum = extent_checksum(&data);
            Some((data, sum))
        }

        fn next_extent_after(&self, after: Option<&(String, u64)>) -> Option<(String, u64, u64)> {
            self.tier.next_extent_after(after)
        }

        fn contains(&self, path: &str, stripe: u64) -> bool {
            self.tier.contains(path, stripe)
        }

        fn remove_path(&self, path: &str) -> u64 {
            self.tier.remove_path(path)
        }

        fn remove_extent(&self, path: &str, stripe: u64) -> u64 {
            self.tier.remove_extent(path, stripe)
        }

        fn bytes_stored(&self) -> u64 {
            self.tier.bytes_stored()
        }

        fn bytes_for(&self, path: &str) -> u64 {
            self.tier.bytes_for(path)
        }

        fn extent_count(&self) -> usize {
            self.tier.extent_count()
        }
    }

    /// `servers` cores over one file system and one counting tier, every
    /// write durable under `mode`, on burst devices with `workers` workers.
    fn counting_cluster(
        servers: usize,
        mode: DurabilityMode,
        workers: usize,
    ) -> (Vec<ServerCore>, Arc<CountingTier>) {
        counting_cluster_under(servers, DurabilitySpec::new(mode), workers)
    }

    /// [`counting_cluster`] under the durability `spec`.
    fn counting_cluster_under(
        servers: usize,
        spec: DurabilitySpec,
        workers: usize,
    ) -> (Vec<ServerCore>, Arc<CountingTier>) {
        let staging = durable_staging(spec);
        let tier = Arc::new(CountingTier {
            tier: CapacityTier::new(staging.backing_device),
            written: Mutex::new(0),
            stamps: Mutex::new(Vec::new()),
        });
        let fs = BurstBufferFs::new(servers);
        let cores = (0..servers)
            .map(|i| {
                let config = ServerConfig {
                    device: DeviceConfig {
                        workers,
                        ..DeviceConfig::default()
                    },
                    staging: Some(staging.clone()),
                    ..ServerConfig::default()
                };
                let backing = Arc::clone(&tier) as Arc<dyn BackingStore>;
                let mut s = ServerCore::with_backing(i, fs.clone(), config, Some(backing));
                s.heartbeat(meta(1, 1), 0);
                s
            })
            .collect();
        (cores, tier)
    }

    /// Submits a `WriteAt` of `bytes` to `path` on `cores[writer]`, the path
    /// created on a shard the writer does not own when there is a peer.
    fn submit_write(cores: &mut [ServerCore], path: &str, bytes: usize, fill: u8) -> usize {
        if cores[0].fs().stat(path).is_err() {
            cores[0].fs().create(path, 0).unwrap();
        }
        let owner = stripe_shard(cores[0].fs(), path, 0).unwrap();
        let writer = (owner + 1) % cores.len();
        let op = FsOp::WriteAt {
            path: path.into(),
            offset: 0,
            data: vec![fill; bytes],
        };
        cores[writer].submit(1, meta(1, 1), op, 0);
        writer
    }

    /// Polls every core until each is drained clean and owes no copy,
    /// returning whether the write submitted as request 1 was acked.
    fn settle(cores: &mut [ServerCore], mut t: u64) -> bool {
        let mut acked = false;
        loop {
            for s in cores.iter_mut() {
                acked |= s.poll(t).iter().any(|r| r.request_id == 1);
            }
            let idle = |s: &ServerCore| {
                s.drain_status_snapshot().unwrap().is_clean()
                    && s.replicate_status_snapshot().unwrap().is_idle()
            };
            if cores.iter().all(idle) {
                return acked;
            }
            t += 100_000;
            assert!(t < 60_000_000_000, "copy-out never settled");
        }
    }

    /// The bytes the drain and replicate lanes of `cores` account as
    /// written to the capacity tier.
    fn accounted(cores: &[ServerCore]) -> u64 {
        let lanes = |s: &ServerCore| {
            s.drain_status_snapshot().unwrap().drained_bytes
                + s.replicate_status_snapshot().unwrap().replicated_bytes
        };
        cores.iter().map(lanes).sum()
    }

    /// One copy out: whatever the durability mode, each user byte reaches
    /// the capacity tier once, and the lanes account exactly what they
    /// wrote — on one core, and on two where the writing core does not own
    /// the shard (the owner copies the extent out; the writer only waits
    /// for the landing).
    #[test]
    fn copy_out_writes_each_user_byte_to_the_tier_once() {
        const BYTES: usize = 8 << 20;
        for mode in [
            DurabilityMode::LocalOnly,
            DurabilityMode::LocalPlusOne,
            DurabilityMode::Sync,
        ] {
            for servers in [1, 2] {
                let what = format!("{mode} on {servers} core(s)");
                let (mut cores, tier) = counting_cluster(servers, mode, 4);
                submit_write(&mut cores, "/ckpt", BYTES, 0xAB);
                assert!(settle(&mut cores, 0), "{what}: write never acked");
                assert_eq!(tier.written(), BYTES as u64, "{what}");
                assert_eq!(accounted(&cores), BYTES as u64, "{what}");
                for stripe in 0..(BYTES as u64 >> 20) {
                    let copy = tier_copy(&cores[0], "/ckpt", stripe);
                    assert_eq!(copy, Some(vec![0xAB; 1 << 20]), "{what}: stripe {stripe}");
                }
                let owed = |s: &ServerCore| s.replicate_status_snapshot().unwrap();
                let requested: u64 = cores.iter().map(|s| owed(s).requested_bytes).sum();
                let failed: u64 = cores.iter().map(|s| owed(s).failed_replications).sum();
                let durable = mode != DurabilityMode::LocalOnly;
                assert_eq!(requested, if durable { BYTES as u64 } else { 0 }, "{what}");
                assert_eq!(failed, 0, "{what}");
            }
        }
    }

    /// Writers under `local_only`, `local_plus_one` and `sync` rewrite random
    /// stripes through both of two servers: no generation of an extent
    /// reaches the tier twice, and the lanes account exactly what the tier
    /// was handed.
    #[test]
    fn copy_out_mixed_durability_writes_each_generation_once() {
        const MIB: u64 = 1 << 20;
        let spec = DurabilitySpec::new(DurabilityMode::LocalOnly)
            .with_job(2, DurabilityMode::LocalPlusOne)
            .unwrap()
            .with_job(3, DurabilityMode::Sync)
            .unwrap();
        let (mut cores, tier) = counting_cluster_under(2, spec, 4);
        for path in ["/m0", "/m1"] {
            let stripes = themis_fs::StripeConfig::new(MIB, 2);
            cores[0].fs().create_striped(path, stripes, 0).unwrap();
        }
        let mut seed: u64 = 0x3d0c_0417;
        let mut next = move |n: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % n
        };
        let mut t = 0;
        for stamp in 2..80u64 {
            let job = 1 + next(3);
            let mut data = vec![job as u8; MIB as usize];
            data[..8].copy_from_slice(&stamp.to_le_bytes());
            let op = FsOp::WriteAt {
                path: format!("/m{}", next(2)),
                offset: next(4) * MIB,
                data,
            };
            cores[next(2) as usize].submit(stamp, meta(job, 1), op, t);
            for _ in 0..next(3) {
                poll_all(&mut cores, t, 0);
                t += next(200_000);
            }
        }
        settle(&mut cores, t);
        let stamps = tier.stamps.lock().unwrap().clone();
        let distinct: HashSet<_> = stamps.iter().collect();
        assert_eq!(
            distinct.len(),
            stamps.len(),
            "a generation was copied twice"
        );
        assert_eq!(accounted(&cores), tier.written());
        let lanes: Vec<_> = cores
            .iter()
            .map(|s| s.replicate_status_snapshot().unwrap())
            .collect();
        assert!(
            lanes.iter().any(|l| l.replicated_bytes > 0),
            "no early copy"
        );
        assert!(lanes.iter().all(|l| l.is_idle()), "{lanes:?}");
    }

    /// A drain admitted before a peer unlinked its file finds nothing to
    /// write when the engine releases it: it frees its slot and counts no
    /// drained bytes, so the lanes still account exactly what the tier got.
    #[test]
    fn copy_out_drain_racing_an_unlink_counts_nothing() {
        let (mut cores, tier) = counting_cluster(1, DurabilityMode::LocalOnly, 4);
        let s = &mut cores[0];
        write_file(s, "/doomed", 2 << 20, 0);
        // The drains are admitted, not yet released: the device is idle
        // but the engine has not been asked to select.
        s.admit_classes(&[TrafficClass::Drain], 1_000);
        assert_eq!(s.drain_status_snapshot().unwrap().inflight_extents, 2);
        // A peer unlinks the file in that window.
        s.fs().unlink("/doomed", 1_000).unwrap();
        s.drop_backing_copies("/doomed");
        poll_until_clean(s, 1_000);
        let status = s.drain_status_snapshot().unwrap();
        assert_eq!((status.drained_bytes, status.drained_ops), (0, 0));
        assert_eq!(tier.written(), 0);
        assert_eq!(accounted(&cores), tier.written());
    }

    /// A drain can race a peer's striped write that has put its extent in
    /// the shard but not yet raised the file size. Delete-wins then drops
    /// the write-back, and the extent, still dirty at the same generation,
    /// goes back to the copier — copied again once the size update lands.
    #[test]
    fn copy_out_dropped_write_back_gives_its_claim_back() {
        const MIB: usize = 1 << 20;
        let (mut cores, tier) = counting_cluster(1, DurabilityMode::LocalOnly, 4);
        let s = &mut cores[0];
        s.fs().create("/r", 0).unwrap();
        s.fs().write_at("/r", 0, &[1; MIB], 0).unwrap();
        let t = poll_until_clean(s, 0);
        // The peer's extent for stripe 2 is in the shard, dirty; the size
        // still ends at 1 MiB.
        let extent = Extent::from(vec![7; MIB]);
        s.fs().restore_extent_on(0, "/r", 2, extent, true);
        let mut t = t;
        for _ in 0..5 {
            s.poll(t);
            t += 100_000;
        }
        assert!(
            tier.written() > MIB as u64,
            "the drain never tried stripe 2"
        );
        assert!(tier_copy(s, "/r", 2).is_none(), "delete-wins kept a copy");
        // The drop took back stripe 2's copy only: stripe 0, drained clean
        // before, keeps the tier copy its burst copy's eviction relies on.
        assert_eq!(tier_copy(s, "/r", 0), Some(vec![1; MIB]));
        // The size update lands: the next drain of stripe 2 is kept.
        s.fs().write_at("/r", 3 * MIB as u64, &[3], t).unwrap();
        poll_until_clean(s, t);
        assert_eq!(tier_copy(s, "/r", 2), Some(vec![7; MIB]));
    }

    /// A `sync` ack never surfaces before the capacity tier holds its bytes
    /// — on one core, and on two where the writer does not own the shard.
    #[test]
    fn copy_out_sync_ack_never_precedes_the_tier_copy() {
        const BYTES: usize = 4 << 20;
        for servers in [1, 2] {
            let (mut cores, _) = counting_cluster(servers, DurabilityMode::Sync, 4);
            let writer = submit_write(&mut cores, "/db", BYTES, 0x5A);
            let mut deferred = false;
            let mut t = 0;
            'run: loop {
                for s in cores.iter_mut() {
                    if s.poll(t).iter().any(|r| r.request_id == 1) {
                        for stripe in 0..(BYTES as u64 >> 20) {
                            let copy = tier_copy(s, "/db", stripe);
                            assert_eq!(copy, Some(vec![0x5A; 1 << 20]), "stripe {stripe}");
                        }
                        break 'run;
                    }
                }
                deferred |= cores[writer].completions() == 1;
                t += 10_000;
                assert!(t < 60_000_000_000, "sync ack never released");
            }
            assert!(deferred, "the ack was not deferred past the write");
            let status = cores[writer].replicate_status_snapshot().unwrap();
            assert_eq!(
                (status.sync_acks_deferred, status.sync_acks_released),
                (1, 1)
            );
        }
    }

    /// A copy snapshotted before a later `sync` write cannot carry that
    /// write's bytes, so its late landing releases only the acks of the
    /// writes it holds: the shard records that generation as landed. The
    /// later write waits for a copy of its own generation, or for its
    /// extent to be found clean.
    #[test]
    fn copy_out_sync_ack_waits_for_its_own_generation() {
        let staging = durable_staging(DurabilitySpec::new(DurabilityMode::Sync));
        let mut st = StageState::new(0, &staging, None, &MetricsRegistry::new());
        let fs = BurstBufferFs::new(1);
        fs.create_striped("/g", themis_fs::StripeConfig::new(1 << 20, 1), 0)
            .unwrap();
        let ack = |request_id| ReadyReply {
            request_id,
            reply: FsReply::Count(1),
            completion: themis_core::request::Completion {
                request: IoRequest::new(request_id, meta(1, 1), OpKind::Write, 1, 0),
                start_ns: 0,
                finish_ns: 0,
            },
        };
        let left = |stripe| fs.dirty_state_on(0, "/g", stripe).unwrap().generation;
        let (a, b) = (("/g".to_string(), 0), ("/g".to_string(), 1));
        // Write 1 dirties stripe 0; write 2 rewrites it and dirties stripe 1.
        fs.write_at("/g", 0, &[1; 64], 0).unwrap();
        let (_, g1) = fs.copy_snapshot_on(0, "/g", 0).unwrap();
        st.pending_sync_acks
            .push((ack(1), [(a.clone(), g1)].into()));
        fs.write_at("/g", 0, &[2; 64], 0).unwrap();
        fs.write_at("/g", 1 << 20, &[2; 64], 0).unwrap();
        let waits = [(a.clone(), left(0)), (b, left(1))];
        st.pending_sync_acks.push((ack(2), waits.into()));
        let released = |st: &mut StageState| {
            let mut ready = Vec::new();
            st.release_sync_acks(&fs, &mut ready);
            ready.iter().map(|r| r.request_id).collect::<Vec<_>>()
        };
        assert_eq!(released(&mut st), Vec::<u64>::new());
        // The copy of write 1's generation lands late: it holds write 1's
        // bytes, not write 2's.
        assert!(!fs.mark_clean_on(0, "/g", 0, g1));
        assert_eq!(released(&mut st), vec![1]);
        // Stripe 1's copy lands; stripe 0 still owes write 2's generation.
        assert!(fs.mark_clean_on(0, "/g", 1, left(1)));
        assert_eq!(released(&mut st), Vec::<u64>::new());
        // An extent found clean holds every write so far.
        assert!(fs.mark_clean_on(0, "/g", 0, left(0)));
        assert_eq!(released(&mut st), vec![2]);
        assert!(st.pending_sync_acks.is_empty());
    }

    /// Polls every core at `t`, returning whether request `id` was acked.
    fn poll_all(cores: &mut [ServerCore], t: u64, id: u64) -> bool {
        let mut acked = false;
        for s in cores.iter_mut() {
            acked |= s.poll(t).iter().any(|r| r.request_id == id);
        }
        acked
    }

    /// The ack of a `sync` write is released once a copy of its generation
    /// lands, even while a peer keeps rewriting the stripe so it never turns
    /// clean: the rewriter (`local_only`, so its own acks are immediate)
    /// keeps a 4 KiB rewrite in flight on the shard owner at all times.
    #[test]
    fn copy_out_sync_ack_survives_a_continuous_rewriter() {
        const MIB: usize = 1 << 20;
        let spec = DurabilitySpec::new(DurabilityMode::Sync)
            .with_job(2, DurabilityMode::LocalOnly)
            .unwrap();
        let (mut cores, tier) = counting_cluster_under(2, spec, 4);
        let writer = submit_write(&mut cores, "/hot", MIB, 1);
        let owner = 1 - writer;
        let rewrite = |s: &mut ServerCore, id: u64| {
            let op = FsOp::WriteAt {
                path: "/hot".into(),
                offset: 0,
                data: vec![id as u8; 4096],
            };
            s.submit(id, meta(2, 2), op, 0);
        };
        let (mut t, mut id, mut clean_polls) = (0, 100, 0);
        rewrite(&mut cores[owner], id);
        let acked = loop {
            let mut acked = cores[writer].poll(t).iter().any(|r| r.request_id == 1);
            for r in cores[owner].poll(t) {
                acked |= r.request_id == 1;
                if r.request_id == id {
                    id += 1;
                    rewrite(&mut cores[owner], id);
                }
            }
            clean_polls += usize::from(cores[0].fs().dirty_state_on(owner, "/hot", 0).is_none());
            if acked {
                break t;
            }
            t += 5_000;
            assert!(t < 100_000_000, "the rewriter starved the sync ack");
        };
        assert_eq!(clean_polls, 0, "the extent went clean before {acked}");
        assert!(id > 110, "only {} rewrites ran", id - 100);
        assert!(tier.written() > 0);
        let status = cores[writer].replicate_status_snapshot().unwrap();
        assert_eq!(
            (status.sync_acks_deferred, status.sync_acks_released),
            (1, 1)
        );
    }

    /// With the Replicate class left disabled, a `sync` write's extent
    /// drains in the Drain lane and its ack still waits for the tier copy.
    #[test]
    fn copy_out_sync_ack_defers_with_the_replicate_lane_disabled() {
        let mut staging = fast_staging();
        staging.durability = Some(DurabilitySpec::new(DurabilityMode::Sync));
        let tier = Arc::new(CapacityTier::new(staging.backing_device));
        let mut s = staged_over(staging, Arc::clone(&tier) as Arc<dyn BackingStore>);
        s.heartbeat(meta(1, 1), 0);
        s.fs().create("/db", 0).unwrap();
        let op = FsOp::WriteAt {
            path: "/db".into(),
            offset: 0,
            data: vec![0x5A; 1 << 20],
        };
        s.submit(1, meta(1, 1), op, 0);
        let mut t = 0;
        loop {
            if s.poll(t).iter().any(|r| r.request_id == 1) {
                break;
            }
            assert!(t < 60_000_000_000, "sync ack never released");
            t += 10_000;
        }
        assert!(t > 0, "acked in the poll that wrote");
        assert_eq!(tier_copy(&s, "/db", 0), Some(vec![0x5A; 1 << 20]));
        let status = s.replicate_status_snapshot().unwrap();
        assert!(!status.enabled);
        assert_eq!(
            (status.sync_acks_deferred, status.sync_acks_released),
            (1, 1)
        );
        assert_eq!(s.drain_status_snapshot().unwrap().drained_bytes, 1 << 20);
    }

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

    /// Polls `s` from `t` in 100 µs steps until request `id` is answered,
    /// returning the reply and the time reached.
    fn await_reply(s: &mut ServerCore, id: u64, mut t: u64) -> (FsReply, u64) {
        loop {
            if let Some(r) = s.poll(t).into_iter().find(|r| r.request_id == id) {
                return (r.reply, t);
            }
            t += 100_000;
            assert!(t < 120_000_000_000, "request {id} never answered");
        }
    }

    fn write_at(path: &str, offset: u64, data: Vec<u8>) -> FsOp {
        FsOp::WriteAt {
            path: path.into(),
            offset,
            data,
        }
    }

    /// A whole-extent write through `submit`/`poll` — positional, or from a
    /// cursor on a stripe start — keeps the client's buffer as its extent.
    #[test]
    fn cow_whole_extent_write_keeps_the_submitted_buffer() {
        let mut s = staged_server(fast_staging());
        s.heartbeat(meta(1, 1), 0);
        let data = vec![0x5A; 1 << 20];
        let ptr = data.as_ptr();
        s.submit(
            1,
            meta(1, 1),
            FsOp::Open {
                path: "/z".into(),
                create: true,
                truncate: false,
                append: false,
            },
            0,
        );
        s.submit(2, meta(1, 1), write_at("/z", 0, data), 0);
        let (reply, t) = await_reply(&mut s, 2, 0);
        assert_eq!(reply, FsReply::Count(1 << 20));
        let extent = s.fs().resident_extent_on(0, "/z", 0).unwrap();
        assert_eq!(extent.as_ptr(), ptr, "the write copied its payload");
        assert_eq!(extent, vec![0x5A; 1 << 20]);

        let fd = s.fs().open("/z", OpenFlags::read_only(), t).unwrap();
        s.fs().lseek(fd, 1 << 20, Whence::Set).unwrap();
        let data = vec![0x5B; 1 << 20];
        let ptr = data.as_ptr();
        s.submit(3, meta(1, 1), FsOp::Write { fd, data }, t);
        assert_eq!(await_reply(&mut s, 3, t).0, FsReply::Count(1 << 20));
        let extent = s.fs().resident_extent_on(0, "/z", 1).unwrap();
        assert_eq!(extent.as_ptr(), ptr, "the cursor write copied its payload");
        assert_eq!(s.fs().stat("/z").unwrap().size, 2 << 20);
    }

    /// A whole-extent write parked behind its own restore is moved, not
    /// copied, into the park queue: when it wakes, its extent is still the
    /// buffer the client submitted.
    #[test]
    fn cow_parked_whole_extent_write_keeps_the_submitted_buffer() {
        let mut staging = fast_staging();
        staging.drain.high_watermark_bytes = 1 << 20;
        staging.drain.low_watermark_bytes = 0;
        let mut s = staged_server(staging);
        s.heartbeat(meta(1, 1), 0);
        write_file(&mut s, "/p", 2 << 20, 0);
        poll_until_clean(&mut s, 1_000_000);
        s.poll(60_000_000);
        assert_eq!(s.fs().evicted_count_on(0), 2, "the extents must be evicted");
        let parked = |s: &ServerCore| {
            let snap = s.metrics_registry().snapshot(0);
            snap.counter(0, 0, "foreground", "parked_ops")
        };
        let before = parked(&s);
        let data = vec![0x3C; 1 << 20];
        let ptr = data.as_ptr();
        s.submit(4, meta(1, 1), write_at("/p", 0, data), 70_000_000);
        assert_eq!(
            await_reply(&mut s, 4, 70_000_000).0,
            FsReply::Count(1 << 20)
        );
        assert_eq!(parked(&s), before + 1, "the write did not park");
        let extent = s.fs().resident_extent_on(0, "/p", 0).unwrap();
        assert_eq!(extent.as_ptr(), ptr, "parking copied the payload");
        assert_eq!(extent, vec![0x3C; 1 << 20]);
    }

    /// Copy-on-write isolation at the server: an adopting overwrite while a
    /// drain of the previous generation is in flight leaves that drain's
    /// bytes in the tier and the extent dirty; the next drain lands the new
    /// bytes.
    #[test]
    fn cow_adopting_overwrite_during_a_drain_lands_old_bytes_then_new() {
        let mut s = staged_server(fast_staging());
        s.heartbeat(meta(1, 1), 0);
        s.fs().create("/d", 0).unwrap();
        s.submit(5, meta(1, 1), write_at("/d", 0, vec![0x11; 1 << 20]), 0);
        let (_, mut t) = await_reply(&mut s, 5, 0);
        let old = s.fs().dirty_state_on(0, "/d", 0).unwrap().generation;
        // Step until the drain has written its snapshot back but not landed.
        while tier_copy(&s, "/d", 0).is_none() {
            t += 1_000;
            s.poll(t);
            assert!(t < 1_000_000_000, "the drain never started");
        }
        assert_eq!(s.fs().dirty_state_on(0, "/d", 0).unwrap().generation, old);
        let data = vec![0x22; 1 << 20];
        let ptr = data.as_ptr();
        s.submit(6, meta(1, 1), write_at("/d", 0, data), t);
        let (_, mut t) = await_reply(&mut s, 6, t);
        assert_eq!(s.fs().resident_extent_on(0, "/d", 0).unwrap().as_ptr(), ptr);
        assert_eq!(tier_copy(&s, "/d", 0), Some(vec![0x11; 1 << 20]));
        let new = s.fs().dirty_state_on(0, "/d", 0).unwrap().generation;
        assert!(new > old);
        // The old drain lands: its generation is recorded, the extent stays
        // dirty under the overwrite's generation.
        let landed = loop {
            let state = s.fs().dirty_state_on(0, "/d", 0).unwrap();
            if state.landed >= old {
                break state;
            }
            t += 1_000;
            s.poll(t);
            assert!(t < 1_000_000_000, "the old drain never landed");
        };
        assert_eq!((landed.generation, landed.landed), (new, old));
        poll_until_clean(&mut s, t);
        assert_eq!(tier_copy(&s, "/d", 0), Some(vec![0x22; 1 << 20]));
        assert_eq!(
            s.fs().read_at("/d", 0, 1 << 20).unwrap(),
            vec![0x22; 1 << 20]
        );
    }

    /// Each class's device charge, spelled out apart from
    /// [`TRAFFIC_CLASSES`](themis_stage::TRAFFIC_CLASSES): the burst slot,
    /// the capacity-tier legs walked back to back, and whether they start
    /// when the slot ends (they move what it read) or at release (they feed
    /// it).
    fn spelled_out_charge(class: TrafficClass) -> (OpKind, &'static [OpKind], bool) {
        match class {
            TrafficClass::Drain | TrafficClass::Replicate => (OpKind::Read, &[OpKind::Write], true),
            TrafficClass::Restore => (OpKind::Write, &[OpKind::Read], false),
            TrafficClass::Scrub => (OpKind::Read, &[OpKind::Read], false),
            TrafficClass::Rebalance => (OpKind::Write, &[OpKind::Read, OpKind::Write], false),
        }
    }

    /// A staged core polled at instants `GAP` apart, long enough for every
    /// charge of one extent to finish in between. So each poll releases
    /// class requests onto idle devices, and a finish a lifecycle holds
    /// after the poll is one that poll charged.
    struct ChargeWatch {
        s: ServerCore,
        t: u64,
        /// Landings checked, per class pipeline.
        checked: [u32; TrafficClass::COUNT],
    }

    const EXTENT: u64 = 1 << 20;
    const GAP: u64 = 10_000_000;
    /// Replicas a rebalance places: two new ones over three children.
    const COPIES: u64 = 2;

    impl ChargeWatch {
        fn new(staging: StagingConfig) -> Self {
            let mut s = staged_server(staging);
            s.heartbeat(meta(1, 1), 0);
            ChargeWatch {
                s,
                t: 0,
                checked: [0; TrafficClass::COUNT],
            }
        }

        /// Polls at the next instant and holds every class finish the poll
        /// charged to the spelled-out charge of one extent (rebalance
        /// writing `COPIES` replicas).
        fn step(&mut self) -> Vec<ReadyReply> {
            self.t += GAP;
            let now = self.t;
            let replies = self.s.poll(now);
            let st = self.s.staging.as_ref().unwrap();
            // Replicate shares the drain's pipeline and its charge.
            for class in TrafficClass::ALL {
                if class == TrafficClass::Replicate {
                    continue;
                }
                let Some(finish) = st.lifecycle(class).next_finish_ns() else {
                    continue;
                };
                let (burst, legs, after_burst) = spelled_out_charge(class);
                let copies = if class == TrafficClass::Rebalance {
                    COPIES
                } else {
                    1
                };
                let cost = |model: &DeviceModel, kind: OpKind, bytes: u64| {
                    model.service_ns(&IoRequest::new(0, class.meta(0), kind, bytes, now))
                };
                let burst_finish = now + cost(self.s.device.model(), burst, EXTENT);
                let mut at = if after_burst { burst_finish } else { now };
                for &kind in legs {
                    let bytes = match kind {
                        OpKind::Write => EXTENT * copies,
                        _ => EXTENT,
                    };
                    at += cost(st.backing_device.model(), kind, bytes);
                }
                assert_eq!(
                    finish,
                    burst_finish.max(at),
                    "{class} released at {now} lands off its charge"
                );
                assert!(finish < now + GAP, "{class} outlives the gap");
                self.checked[class as usize] += 1;
            }
            replies
        }

        fn until(&mut self, mut done: impl FnMut(&ServerCore) -> bool) {
            while !done(&self.s) {
                self.step();
                assert!(
                    self.t < 1_000 * GAP,
                    "never got there: {:?} {:?} {:?}",
                    self.s.drain_status_snapshot(),
                    self.s.scrub_status_snapshot(),
                    self.s.rebalance_status_snapshot()
                );
            }
        }

        fn submit(&mut self, request_id: u64, op: FsOp) {
            self.s.submit(request_id, meta(1, 1), op, self.t);
        }
    }

    /// Every class landing lands when its registry row says: the burst
    /// slot, then the tier legs beside or after it, a write charged once
    /// per copy it places. The landing time is all the row moves, so
    /// without this only the simulator's pinned series would see a wrong
    /// row.
    #[test]
    fn class_landings_are_charged_by_their_registry_row() {
        let create = FsOp::CreateStriped {
            path: "/x".into(),
            stripe: themis_fs::StripeConfig::new(EXTENT, 1),
        };
        let write = FsOp::WriteAt {
            path: "/x".into(),
            offset: 0,
            data: vec![0x5A; EXTENT as usize],
        };

        // Drain, scrub, rebalance and restore, over a sharded tier with an
        // eviction watermark below one extent.
        let mut staging = fast_staging();
        staging.drain.high_watermark_bytes = EXTENT / 2;
        staging.drain.low_watermark_bytes = 0;
        staging.sharding = Some(themis_stage::ShardSpec {
            map: "00-ff=0".into(),
            replication: 1,
            backends: vec![DeviceConfig::default(); 3],
        });
        let mut w = ChargeWatch::new(staging);
        w.submit(1, create.clone());
        w.submit(2, write.clone());
        w.until(|s| {
            let status = s.drain_status_snapshot().unwrap();
            status.drained_bytes == EXTENT && status.evicted_bytes == EXTENT
        });
        w.s.scrub(3);
        w.until(|s| s.scrub_status_snapshot().unwrap().scrubbed_extents == 1);
        // Three copies over three children: the extent now owes a replica
        // on both children it is not on.
        let st = w.s.staging.as_ref().unwrap();
        let map = themis_stage::ShardMap::parse("00-55=0,56-aa=1,ab-ff=2").unwrap();
        st.backing
            .as_sharded()
            .unwrap()
            .install_map(map, 3)
            .unwrap();
        w.until(|s| s.rebalance_status_snapshot().unwrap().migrated_extents == 1);
        let status = w.s.rebalance_status_snapshot().unwrap();
        assert_eq!(status.copies_written, COPIES, "{status:?}");
        w.submit(
            4,
            FsOp::ReadAt {
                path: "/x".into(),
                offset: 0,
                len: EXTENT,
            },
        );
        let read = loop {
            if let Some(r) = w.step().into_iter().find(|r| r.request_id == 4) {
                break r;
            }
            assert!(w.t < 1_000 * GAP, "the read never ran");
        };
        assert!(matches!(&read.reply, FsReply::Data(d) if d.len() == EXTENT as usize));
        let status = w.s.drain_status_snapshot().unwrap();
        assert_eq!(status.restored_bytes, EXTENT, "{status:?}");
        for class in [
            TrafficClass::Drain,
            TrafficClass::Scrub,
            TrafficClass::Rebalance,
            TrafficClass::Restore,
        ] {
            assert!(w.checked[class as usize] > 0, "no {class} landing checked");
        }

        // The durable copy: a `sync` write's ack waits for the replicate
        // lane's landing.
        let mut w = ChargeWatch::new(durable_staging(DurabilitySpec::new(DurabilityMode::Sync)));
        w.submit(1, create);
        w.submit(2, write);
        w.until(|s| s.replicate_status_snapshot().unwrap().replicated_extents == 1);
        assert!(w.checked[TrafficClass::Drain as usize] > 0);
    }
}
