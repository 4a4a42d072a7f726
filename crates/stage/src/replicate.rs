//! Durability as copy-out priority: the durable sub-queue of a server's
//! copy-out, and the `ReplicateStatus` view of it.
//!
//! Durability classes split a write's lifecycle from its guarantee: the
//! burst buffer acks against local NVMe, and a write whose
//! [`DurabilityMode`](themis_core::durability::DurabilityMode) owes one copy
//! off the burst buffer is **drained early**. There is no second store and
//! no second copier. The server that owns a shard copies each of its dirty
//! extents out once, through its
//! [`DrainPipeline`](crate::pipeline::DrainPipeline), which admits the
//! extent into one of two sub-queues by the mode its last writer and its
//! path resolve to:
//!
//! * a durable extent goes to this pipeline's queue and runs as a
//!   [`TrafficClass::Replicate`] request, at the replicate weight;
//! * every other extent runs as a [`TrafficClass::Drain`] request, at the
//!   drain weight.
//!
//! One in-flight key set spans both queues, so an extent is in at most one
//! of them and each dirty generation is written back at most once. With the
//! replicate class disabled, durable extents drain in the drain lane.
//!
//! What is the lane's own is observation, reported through the
//! `ReplicateStatus` control-plane message:
//!
//! * admitted bytes and the **lag** of copies not yet retired (`requested -
//!   completed`, saturating — the satellite-1 audit rule for
//!   independently-maintained totals);
//! * the bytes and extents it wrote, and the copies that found their stripe
//!   gone;
//! * the `sync` acks the *writing* server deferred until the extent's shard
//!   reported a copy of their generation in the capacity tier
//!   (`themis_fs::DirtyExtent::landed`).

use crate::class::TrafficClass;
use crate::lifecycle::ClassQueue;
use crate::pipeline::InflightDrain;
use serde::{Deserialize, Serialize};
use themis_core::durability::DurabilitySpec;
use themis_core::request::IoRequest;
use themis_fs::DirtyExtent;
use themis_telemetry::{Counter, MetricsRegistry, SeriesKey};

/// A point-in-time snapshot of one server's replication state, reported
/// through the `ReplicateStatus` control-plane message.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplicateStatus {
    /// Whether the durable sub-queue runs: the replicate class is enabled
    /// and a durability spec owes copies.
    pub enabled: bool,
    /// Durable dirty extents on this server's shard waiting for admission.
    pub queued_extents: u64,
    /// Durable copies admitted and not yet landed.
    pub inflight: u64,
    /// Total bytes of durable copies admitted since boot, at the admitted
    /// cost.
    pub requested_bytes: u64,
    /// Total bytes of admitted durable copies retired since boot, at the
    /// admitted cost, whether or not the copy wrote anything.
    pub completed_bytes: u64,
    /// Replication lag: admitted copies not yet retired. Derived
    /// `requested - completed` saturating — independently-maintained totals
    /// saturate instead of trusting update order (the satellite-1 audit
    /// rule).
    pub lag_bytes: u64,
    /// Total bytes the durable sub-queue wrote to the capacity tier since
    /// boot.
    pub replicated_bytes: u64,
    /// Total extents the durable sub-queue wrote to the capacity tier since
    /// boot.
    pub replicated_extents: u64,
    /// Durable copies that found their stripe unlinked or truncated.
    pub failed_replications: u64,
    /// `sync` write acks this server deferred until their bytes were in the
    /// capacity tier.
    pub sync_acks_deferred: u64,
    /// Deferred `sync` acks released once their bytes landed.
    pub sync_acks_released: u64,
}

impl ReplicateStatus {
    /// Whether the pipeline is fully caught up: nothing waiting, no lag,
    /// nothing in flight, and no `sync` ack still parked.
    pub fn is_idle(&self) -> bool {
        self.queued_extents == 0
            && self.lag_bytes == 0
            && self.inflight == 0
            && self.sync_acks_deferred == self.sync_acks_released
    }
}

/// The durable sub-queue of one server's copy-out: the spec that picks its
/// extents, the ledger of the copies it admitted, and the counters of lane
/// `"replicate"` of the registry handed in at construction.
///
/// The lag is **derived**, not stored: `replicate_completed_bytes` sorts
/// before `replicate_requested_bytes`, so a registry snapshot reads the
/// follower first and `requested - completed` is non-negative in any
/// snapshot (the follower-sorts-first naming convention, see
/// `MetricsRegistry::snapshot`).
#[derive(Debug)]
pub struct ReplicatePipeline {
    /// The durability spec while the sub-queue runs; `None` when the class
    /// is disabled or the spec owes no copy anywhere.
    durability: Option<DurabilitySpec>,
    pub(crate) queue: ClassQueue<InflightDrain>,
    requested_bytes: Counter,
    completed_bytes: Counter,
    replicated_bytes: Counter,
    replicated_extents: Counter,
    failed_replications: Counter,
    sync_acks_deferred: Counter,
    sync_acks_released: Counter,
}

impl ReplicatePipeline {
    /// Creates the durable sub-queue of `server`, admitting at most
    /// `max_inflight` copies at a time and counting into `registry`. It runs
    /// when given a `durability` spec that owes a copy somewhere.
    pub fn new(
        server: usize,
        durability: Option<DurabilitySpec>,
        max_inflight: usize,
        registry: &MetricsRegistry,
    ) -> Self {
        let key = SeriesKey::class(server, TrafficClass::Replicate.name());
        ReplicatePipeline {
            durability: durability.filter(DurabilitySpec::any_replicated),
            queue: ClassQueue::new(TrafficClass::Replicate, server, max_inflight),
            requested_bytes: registry.counter(key, "replicate_requested_bytes"),
            completed_bytes: registry.counter(key, "replicate_completed_bytes"),
            replicated_bytes: registry.counter(key, "replicate_replicated_bytes"),
            replicated_extents: registry.counter(key, "replicated_extents"),
            failed_replications: registry.counter(key, "failed_replications"),
            sync_acks_deferred: registry.counter(key, "sync_acks_deferred"),
            sync_acks_released: registry.counter(key, "sync_acks_released"),
        }
    }

    /// Whether the sub-queue runs.
    pub fn enabled(&self) -> bool {
        self.durability.is_some()
    }

    /// Whether a dirty extent of `path` belongs in this sub-queue: the
    /// durability its last write resolves to owes a copy. A restore-for-write
    /// pin no write has landed on yet, or a write through the writer-less
    /// API, is the system's own: its reserved identity matches no job rule,
    /// so path rules and the default decide.
    pub fn owes(&self, path: &str, dirty: &DirtyExtent) -> bool {
        let Some(spec) = &self.durability else {
            return false;
        };
        let system = self.queue.meta();
        let (job, user) = dirty
            .writer
            .map_or((system.job, system.user), |w| (w.job, w.user));
        spec.resolve(job, user, path).replicates()
    }

    /// Admits a durable copy (see
    /// [`DrainPipeline::admit`](crate::pipeline::DrainPipeline::admit)).
    pub(crate) fn admit(&mut self, seq: u64, target: InflightDrain, now_ns: u64) -> IoRequest {
        let cost = target.cost;
        self.requested_bytes.add(cost);
        self.queue.admit(seq, target, cost, now_ns)
    }

    /// Retires a copy that wrote nothing.
    pub(crate) fn complete(&mut self, seq: u64) -> Option<InflightDrain> {
        let target = self.queue.remove(seq)?;
        self.completed_bytes.add(target.cost);
        Some(target)
    }

    /// The next copy whose capacity-tier write finished at or before
    /// `now_ns`, retired and accounted as replicated at the bytes it wrote.
    pub(crate) fn pop_due(&mut self, now_ns: u64) -> Option<InflightDrain> {
        let target = self.queue.pop_due(now_ns)?;
        self.completed_bytes.add(target.cost);
        self.replicated_bytes.add(target.bytes);
        self.replicated_extents.inc();
        Some(target)
    }

    /// Accounts a copy abandoned because its stripe no longer exists — the
    /// failure is visible rather than hidden.
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

    /// Builds the status snapshot, with `queued_extents` durable extents
    /// waiting for admission.
    pub fn status(&self, queued_extents: u64) -> ReplicateStatus {
        let completed_bytes = self.completed_bytes.get();
        let requested_bytes = self.requested_bytes.get();
        ReplicateStatus {
            enabled: self.enabled(),
            queued_extents,
            inflight: self.queue.len() as u64,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backing::CapacityTier;
    use crate::class::ClassWeights;
    use crate::lifecycle::{AdmitContext, ClassLifecycle};
    use crate::pipeline::{DrainConfig, DrainPipeline};
    use themis_core::durability::DurabilityMode;
    use themis_core::entity::{JobId, UserId};
    use themis_core::request::OpKind;
    use themis_fs::{BurstBufferFs, Writer};

    const MIB: usize = 1 << 20;

    fn writer(job: u64) -> Option<Writer> {
        Some(Writer {
            job: JobId(job),
            user: UserId(1),
        })
    }

    /// A one-server file system with `stripes` 1 MiB extents of `/f`, each
    /// written by `job`.
    fn dirty_fs(stripes: u64, job: u64) -> BurstBufferFs {
        let fs = BurstBufferFs::new(1);
        fs.create_striped("/f", themis_fs::StripeConfig::new(MIB as u64, 1), 0)
            .unwrap();
        fs.write_at_as("/f", 0, &vec![1; stripes as usize * MIB], 0, writer(job))
            .unwrap();
        fs
    }

    /// The copy-out of a server whose spec is `spec`, `depth` deep per
    /// sub-queue.
    fn copier(
        spec: Option<DurabilitySpec>,
        depth: usize,
        registry: &MetricsRegistry,
    ) -> DrainPipeline {
        let config = DrainConfig {
            max_inflight: depth,
            classes: ClassWeights::default().enable(TrafficClass::Replicate, 16),
            ..DrainConfig::default()
        };
        DrainPipeline::new(0, config, spec, registry)
    }

    fn admit(p: &mut DrainPipeline, fs: &BurstBufferFs, seq: u64) -> Option<IoRequest> {
        let tier = CapacityTier::hdd();
        let ctx = AdmitContext {
            fs,
            backing: &tier,
            owns: &|_, _| true,
        };
        p.admit_next(seq, 0, &ctx)
    }

    /// Walks one admitted copy through release and landing.
    fn land(p: &mut DrainPipeline, seq: u64) -> InflightDrain {
        p.dispatched(seq, 0);
        p.pop_due(0).expect("released copy lands")
    }

    fn sync_spec() -> Option<DurabilitySpec> {
        Some(DurabilitySpec::new(DurabilityMode::Sync))
    }

    #[test]
    fn local_only_and_disabled_pipelines_take_no_debt() {
        let registry = MetricsRegistry::new();
        let fs = dirty_fs(1, 1);
        // No spec, or one that owes nothing: the extent drains.
        let local = Some(DurabilitySpec::new(DurabilityMode::LocalOnly));
        for spec in [None, local] {
            let mut p = copier(spec, 4, &registry);
            assert!(!p.replicate_status(&fs).enabled);
            let r = admit(&mut p, &fs, 1).unwrap();
            assert_eq!(r.meta, TrafficClass::Drain.meta(0));
            assert_eq!(p.replicate_status(&fs).requested_bytes, 0);
        }
        // A job rule makes job 1's extent durable: it is copied early.
        let spec = DurabilitySpec::new(DurabilityMode::LocalOnly)
            .with_job(1, DurabilityMode::LocalPlusOne)
            .unwrap();
        let mut p = copier(Some(spec), 4, &registry);
        assert_eq!(p.replicate_status(&fs).queued_extents, 1);
        let r = admit(&mut p, &fs, 1).unwrap();
        assert_eq!(
            (r.meta, r.kind),
            (TrafficClass::Replicate.meta(0), OpKind::Read)
        );
        let s = p.replicate_status(&fs);
        assert_eq!(
            (s.queued_extents, s.inflight, s.lag_bytes),
            (0, 1, MIB as u64)
        );
    }

    #[test]
    fn depth_limits_inflight_and_completion_retires_debt() {
        let fs = dirty_fs(3, 1);
        let mut p = copier(sync_spec(), 2, &MetricsRegistry::new());
        assert!(admit(&mut p, &fs, 1).is_some());
        assert!(admit(&mut p, &fs, 2).is_some());
        // The third extent is durable too: it waits for the durable
        // sub-queue, never slipping into the drain lane.
        assert!(admit(&mut p, &fs, 3).is_none(), "depth 2 reached");
        assert_eq!(p.admission_capacity(), 2);
        let s = p.replicate_status(&fs);
        assert_eq!((s.queued_extents, s.lag_bytes), (1, 2 * MIB as u64));
        let done = land(&mut p, 1);
        assert_eq!(done.path, "/f");
        assert_eq!(p.replicate_status(&fs).lag_bytes, MIB as u64);
        // Depth freed: admission resumes.
        let r = admit(&mut p, &fs, 3).unwrap();
        assert_eq!(r.meta, TrafficClass::Replicate.meta(0));
        let s = p.replicate_status(&fs);
        assert_eq!(s.requested_bytes, 3 * MIB as u64);
        assert_eq!(s.completed_bytes, MIB as u64);
        assert_eq!(s.replicated_extents, 1);
        assert!(!s.is_idle());
    }

    #[test]
    fn failed_copies_retire_debt_without_replicas() {
        let fs = dirty_fs(1, 1);
        let mut p = copier(sync_spec(), 4, &MetricsRegistry::new());
        admit(&mut p, &fs, 1).unwrap();
        fs.unlink("/f", 0).unwrap();
        // The copy finds its stripe gone: it retires unwritten.
        assert!(p.complete(1).is_some());
        p.replicate_mut().record_failed();
        let s = p.replicate_status(&fs);
        assert_eq!(s.lag_bytes, 0);
        assert_eq!(s.replicated_bytes, 0);
        assert_eq!(s.failed_replications, 1);
        assert!(s.is_idle());
    }

    #[test]
    fn sync_ack_parking_blocks_idle_until_released() {
        let fs = BurstBufferFs::new(1);
        let mut p = copier(sync_spec(), 4, &MetricsRegistry::new());
        p.replicate_mut().record_sync_deferred();
        assert!(!p.replicate_status(&fs).is_idle(), "parked ack outstanding");
        p.replicate_mut().record_sync_released();
        let s = p.replicate_status(&fs);
        assert_eq!((s.sync_acks_deferred, s.sync_acks_released), (1, 1));
        assert!(s.is_idle());
    }

    #[test]
    fn a_write_after_the_copy_executed_owes_a_new_copy() {
        let fs = dirty_fs(1, 1);
        let mut p = copier(sync_spec(), 4, &MetricsRegistry::new());
        admit(&mut p, &fs, 1).unwrap();
        // In flight: the extent is not admitted twice.
        assert!(admit(&mut p, &fs, 2).is_none());
        let (_, generation) = fs.copy_snapshot_on(0, "/f", 0).unwrap();
        p.snapshotted(1, generation, MIB as u64);
        // A write after the snapshot: the landing cannot clean the extent,
        // so it is copied again.
        fs.write_at_as("/f", 0, &[2; 8], 1, writer(1)).unwrap();
        let done = land(&mut p, 1);
        assert!(!fs.mark_clean_on(0, "/f", 0, done.generation));
        assert!(admit(&mut p, &fs, 2).is_some());
        assert_eq!(p.replicate_status(&fs).requested_bytes, 2 * MIB as u64);
    }

    /// One copier: whatever durability the writers resolve to, each dirty
    /// extent is in flight in at most one sub-queue, and one that changed
    /// writer while in flight moves lanes only after it landed.
    #[test]
    fn copy_out_each_dirty_extent_sits_in_one_lane() {
        let fs = dirty_fs(4, 1);
        // Job 2 writes stripes 2 and 3: its writes are durable.
        fs.write_at_as("/f", 2 * MIB as u64, &vec![2; 2 * MIB], 1, writer(2))
            .unwrap();
        let spec = DurabilitySpec::new(DurabilityMode::LocalOnly)
            .with_job(2, DurabilityMode::Sync)
            .unwrap();
        let mut p = copier(Some(spec), 4, &MetricsRegistry::new());
        let lanes: Vec<_> = (1..=4)
            .map(|seq| {
                let r = admit(&mut p, &fs, seq).unwrap();
                (
                    p.inflight(seq).unwrap().stripe,
                    TrafficClass::of(r.meta.job).unwrap(),
                )
            })
            .collect();
        assert_eq!(
            lanes,
            vec![
                (0, TrafficClass::Drain),
                (1, TrafficClass::Drain),
                (2, TrafficClass::Replicate),
                (3, TrafficClass::Replicate),
            ]
        );
        assert!(admit(&mut p, &fs, 5).is_none(), "every extent in flight");
        // Job 2 rewrites stripe 0 while its drain is in flight: still one
        // copy of it in flight. After the drain lands, the extent is
        // durable.
        fs.write_at_as("/f", 0, &[3; 8], 2, writer(2)).unwrap();
        assert!(admit(&mut p, &fs, 5).is_none());
        let done = land(&mut p, 1);
        assert!(!fs.mark_clean_on(0, "/f", 0, done.generation));
        let r = admit(&mut p, &fs, 5).unwrap();
        assert_eq!(r.meta, TrafficClass::Replicate.meta(0));
        assert_eq!(p.inflight(5).unwrap().stripe, 0);
        assert_eq!(
            p.status(
                &crate::pipeline::RestorePipeline::new(0, 1, &MetricsRegistry::new()),
                0,
                0,
                0
            )
            .inflight_extents,
            4
        );
    }

    #[test]
    fn telemetry_mirrors_every_counter() {
        let registry = MetricsRegistry::new();
        let fs = dirty_fs(2, 1);
        let mut p = copier(sync_spec(), 4, &registry);
        p.replicate_mut().record_sync_deferred();
        admit(&mut p, &fs, 1).unwrap();
        p.snapshotted(1, 1, 1000);
        land(&mut p, 1);
        p.replicate_mut().record_sync_released();
        admit(&mut p, &fs, 2).unwrap();
        p.complete(2);
        p.replicate_mut().record_failed();
        let snap = registry.snapshot(0);
        let c = |name: &str| snap.counter(0, 0, "replicate", name);
        assert_eq!(c("replicate_requested_bytes"), 2 * MIB as u64);
        assert_eq!(c("replicate_completed_bytes"), 2 * MIB as u64);
        assert_eq!(c("replicate_replicated_bytes"), 1000);
        assert_eq!(c("replicated_extents"), 1);
        assert_eq!(c("failed_replications"), 1);
        assert_eq!(c("sync_acks_deferred"), 1);
        assert_eq!(c("sync_acks_released"), 1);
        // The registry view and the pipeline's own status agree.
        let s = p.replicate_status(&fs);
        assert_eq!(s.requested_bytes, 2 * MIB as u64);
        assert_eq!(s.completed_bytes, 2 * MIB as u64);
        assert_eq!(s.lag_bytes, 0);
    }
}
