//! The steppable server core: job monitor, communicator, controller and
//! worker logic of one ThemisIO server (§4.1), independent of any thread or
//! transport so it can be driven by the threaded runtime, by tests, or by a
//! virtual clock.

use crate::staging::{ReadTarget, StageState};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::Arc;
use themis_baselines::Algorithm;
use themis_core::engine::PolicyEngine;
use themis_core::entity::JobMeta;
use themis_core::job_table::JobTable;
use themis_core::policy::{Policy, PolicyError};
use themis_core::request::{Completion, IoRequest};
use themis_core::shares::ShareMap;
use themis_core::sync::{LambdaClock, SyncConfig};
use themis_device::{DeviceConfig, DeviceModel, DeviceTimeline};
use themis_fs::{BurstBufferFs, FsError, OpenFlags, Whence, Writer};
use themis_net::message::{FsOp, FsReply, StageReply};
use themis_net::transport::PeerFabric;
use themis_net::PeerMessage;
use themis_stage::{BackingStore, StagedEngine, StagingConfig, TrafficClass};
use themis_telemetry::{
    Counter, DecisionTrace, Gauge, Histogram, MetricsRegistry, SeriesKey, TraceDump, TraceEvent,
    TraceKind, TraceLane,
};

/// Configuration of one server.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Arbitration algorithm (ThemisIO with a policy, FIFO, GIFT or TBF).
    pub algorithm: Algorithm,
    /// Device model of this server's storage.
    pub device: DeviceConfig,
    /// λ-sync configuration.
    pub sync: SyncConfig,
    /// Heartbeat timeout after which a silent job is marked inactive (ns).
    pub heartbeat_timeout_ns: u64,
    /// Seed for the statistical-token draws, so runs are reproducible.
    pub rng_seed: u64,
    /// Staging configuration: when set, the server runs a capacity tier
    /// behind the burst buffer, drains dirty extents to it in the background
    /// (arbitrated by the policy engine at the configured foreground:drain
    /// weight), and evicts clean extents under watermark pressure.
    pub staging: Option<StagingConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            algorithm: Algorithm::Themis(Policy::size_fair()),
            device: DeviceConfig::optane_ssd(),
            sync: SyncConfig::default(),
            heartbeat_timeout_ns: 5_000_000_000,
            rng_seed: 0x007e_1105,
            staging: None,
        }
    }
}

/// Longest a server with staging sleeps between polls, whatever else
/// [`ServerCore::next_deadline_ns`] finds. Most of what the staging tick
/// reacts to carries no timestamp the core could wait for: a peer server's
/// write dirties an extent on *this* server's shard through the shared file
/// system, a restore is queued by the poll that parked its reader, a reshard
/// or a forced scrub arrives from outside. Those are found by looking, so a
/// staged server keeps looking — at the interval the old loop slept for —
/// while an unstaged one sleeps until its next real deadline.
pub const STAGE_TICK_NS: u64 = 100_000;

/// A staging reply that became ready during a poll (or synchronously while
/// handling a staging message), to be routed back by its request id.
#[derive(Debug, Clone)]
pub struct StageReady {
    /// Client-chosen request id.
    pub request_id: u64,
    /// The staging reply payload.
    pub reply: StageReply,
}

/// Pre-resolved per-tenant instrument handles, interned on a tenant's first
/// completion so the completion path never touches the registry lock again.
struct TenantStats {
    ops_completed: Counter,
    bytes_completed: Counter,
    queue_delay_ns: Histogram,
    service_ns: Histogram,
}

/// The server's own telemetry: the (deployment-shared) metrics registry plus
/// pre-resolved handles for the layers the policy engine cannot see —
/// per-tenant completion accounting, foreground parking, burst-buffer
/// residency — and a decision-trace ring for park/wake events, merged with
/// the engine's scheduler ring by [`ServerCore::trace_dump_snapshot`].
///
/// Park/wake series live on the foreground class series
/// (`SeriesKey::class(server, "foreground")`); residency counters and the
/// instantaneous capacity gauges live on the `"fs"` layer series.
pub(crate) struct CoreTelemetry {
    registry: MetricsRegistry,
    tenants: HashMap<u64, TenantStats>,
    pub(crate) parked_ops: Counter,
    pub(crate) wakes: Counter,
    pub(crate) park_ns: Histogram,
    pub(crate) residency_hit_ops: Counter,
    pub(crate) residency_hit_bytes: Counter,
    pub(crate) residency_miss_ops: Counter,
    pub(crate) residency_miss_bytes: Counter,
    pub(crate) resident_bytes: Gauge,
    pub(crate) dirty_bytes: Gauge,
    pub(crate) backing_bytes: Gauge,
    trace: DecisionTrace,
}

impl CoreTelemetry {
    fn new(registry: MetricsRegistry, server: usize) -> Self {
        let fg = SeriesKey::class(server, "foreground");
        let fs = SeriesKey::class(server, "fs");
        CoreTelemetry {
            tenants: HashMap::new(),
            parked_ops: registry.counter(fg, "parked_ops"),
            wakes: registry.counter(fg, "wakes"),
            park_ns: registry.histogram(fg, "park_ns"),
            residency_hit_ops: registry.counter(fs, "residency_hit_ops"),
            residency_hit_bytes: registry.counter(fs, "residency_hit_bytes"),
            residency_miss_ops: registry.counter(fs, "residency_miss_ops"),
            residency_miss_bytes: registry.counter(fs, "residency_miss_bytes"),
            resident_bytes: registry.gauge(fs, "resident_bytes"),
            dirty_bytes: registry.gauge(fs, "dirty_bytes"),
            backing_bytes: registry.gauge(fs, "backing_bytes"),
            trace: DecisionTrace::default(),
            registry,
        }
    }

    /// The interned handles of `job`'s per-tenant series on `server`.
    fn tenant(&mut self, server: usize, job: u64) -> &TenantStats {
        let registry = &self.registry;
        self.tenants.entry(job).or_insert_with(|| {
            let key = SeriesKey::tenant(server, job);
            TenantStats {
                ops_completed: registry.counter(key, "ops_completed"),
                bytes_completed: registry.counter(key, "bytes_completed"),
                queue_delay_ns: registry.histogram(key, "queue_delay_ns"),
                service_ns: registry.histogram(key, "service_ns"),
            }
        })
    }
}

/// A reply that became ready during a [`ServerCore::poll`] call, tagged with
/// the service interval so callers can deliver it at the right (virtual or
/// real) time.
#[derive(Debug, Clone)]
pub struct ReadyReply {
    /// Client-chosen request id.
    pub request_id: u64,
    /// The reply payload.
    pub reply: FsReply,
    /// The completion record (job, timings) for accounting.
    pub completion: Completion,
}

/// One ThemisIO server: job monitor + request queues + controller + workers,
/// operating on a shared [`BurstBufferFs`].
pub struct ServerCore {
    /// Index of this server within the deployment.
    pub(crate) server_index: usize,
    config: ServerConfig,
    policy: Policy,
    /// Monotonic counter bumped by every accepted [`ServerCore::set_policy`];
    /// reported in control-plane acknowledgements so clients can tell which
    /// allocation epoch their traffic is arbitrated under.
    policy_epoch: u64,
    pub(crate) engine: Box<dyn PolicyEngine>,
    pub(crate) jobs: JobTable,
    /// The job table moved (hello, heartbeat, bye, expiry) since the engine
    /// last derived its allocation from it. The reconfigure is owed, and
    /// paid by [`ServerCore::settle_shares`] before anything looks at the
    /// engine or touches the table again — so a burst of hellos costs one
    /// share computation instead of one each. What the engine runs on is the
    /// allocation the last of the skipped reconfigures would have produced;
    /// the statistical-token engine derives it from the table alone, so
    /// nothing is lost by skipping the ones before it.
    shares_stale: bool,
    lambda: LambdaClock,
    pub(crate) device: DeviceTimeline,
    pub(crate) fs: BurstBufferFs,
    rng: SmallRng,
    /// Operations queued with the scheduler but not yet executed, keyed by
    /// request sequence number.
    pending: HashMap<u64, (u64, FsOp)>,
    pub(crate) next_seq: u64,
    completions: u64,
    pub(crate) staging: Option<StageState>,
    pub(crate) telemetry: CoreTelemetry,
    pub(crate) stage_replies: Vec<StageReady>,
    /// Requests rejected at submission (e.g. a job id in the reserved drain
    /// range), answered by the next poll.
    rejected: Vec<ReadyReply>,
}

impl ServerCore {
    /// Creates a server operating on `fs`.
    ///
    /// When [`ServerConfig::staging`] is set the policy engine is wrapped in
    /// a [`StagedEngine`] so synthesized drain traffic shares the device at
    /// the configured foreground:drain weight, and a [`CapacityTier`](themis_stage::CapacityTier) built
    /// from the staging config's backing device absorbs drained extents.
    pub fn new(server_index: usize, fs: BurstBufferFs, config: ServerConfig) -> Self {
        Self::with_backing(server_index, fs, config, None)
    }

    /// Like [`ServerCore::new`], but draining into a caller-supplied backing
    /// store. A multi-server deployment passes one shared [`CapacityTier`](themis_stage::CapacityTier)
    /// to every server — the capacity file system behind the burst buffer is
    /// a single system, so any server can stage in extents drained by a
    /// peer. Ignored when staging is not configured.
    pub fn with_backing(
        server_index: usize,
        fs: BurstBufferFs,
        config: ServerConfig,
        backing: Option<Arc<dyn BackingStore>>,
    ) -> Self {
        Self::with_telemetry(server_index, fs, config, backing, MetricsRegistry::new())
    }

    /// Like [`ServerCore::with_backing`], but recording into a
    /// caller-supplied [`MetricsRegistry`]. A multi-server deployment passes
    /// one shared registry to every server so a single
    /// [`ServerCore::metrics_snapshot`] (answered by any server) covers the
    /// cluster. The policy engine is attached and every staging pipeline is
    /// built over the registry at construction, so their counters are live
    /// from the first request.
    pub fn with_telemetry(
        server_index: usize,
        fs: BurstBufferFs,
        config: ServerConfig,
        backing: Option<Arc<dyn BackingStore>>,
        registry: MetricsRegistry,
    ) -> Self {
        let policy = config.algorithm.initial_policy();
        let mut engine: Box<dyn PolicyEngine> = match &config.staging {
            Some(sc) => {
                sc.drain
                    .validate()
                    .expect("staging drain configuration must be valid");
                Box::new(StagedEngine::with_weights(
                    config.algorithm.build(),
                    sc.drain.class_weights(),
                ))
            }
            None => config.algorithm.build(),
        };
        if let Some(staged) = engine
            .as_any_mut()
            .and_then(|e| e.downcast_mut::<StagedEngine>())
        {
            staged.attach_telemetry(&registry, server_index);
        }
        let staging = config
            .staging
            .as_ref()
            .map(|sc| StageState::new(server_index, sc, backing, &registry));
        let telemetry = CoreTelemetry::new(registry, server_index);
        let mut jobs = JobTable::with_heartbeat_timeout(config.heartbeat_timeout_ns);
        // A server index past the presence mask's capacity cannot be
        // attributed in per-job presence masks; run with the global view
        // (no viewpoint — localize_shares passes shares through unscaled)
        // instead of aliasing onto the last bit and corrupting server spans.
        let _ = jobs.set_viewpoint(server_index);
        ServerCore {
            server_index,
            policy,
            policy_epoch: 0,
            engine,
            jobs,
            shares_stale: false,
            lambda: LambdaClock::new(config.sync),
            device: DeviceTimeline::new(DeviceModel::new(config.device)),
            fs,
            rng: SmallRng::seed_from_u64(config.rng_seed ^ server_index as u64),
            pending: HashMap::new(),
            next_seq: 0,
            config,
            completions: 0,
            staging,
            telemetry,
            stage_replies: Vec::new(),
            rejected: Vec::new(),
        }
    }

    /// The metrics registry this server records into (shared across the
    /// deployment when constructed via [`ServerCore::with_telemetry`]).
    pub fn metrics_registry(&self) -> &MetricsRegistry {
        &self.telemetry.registry
    }

    /// This server's index.
    pub fn server_index(&self) -> usize {
        self.server_index
    }

    /// The configuration this server was created with.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The sharing policy in force.
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// The current policy epoch (0 at boot, +1 per [`ServerCore::set_policy`]).
    pub fn policy_epoch(&self) -> u64 {
        self.policy_epoch
    }

    /// Swaps the sharing policy on the live server and returns the new
    /// epoch. The engine re-derives shares immediately; requests already
    /// admitted stay queued in arrival order and are arbitrated under the
    /// new allocation from the next worker poll — the epoch boundary moves
    /// shares, never requests.
    ///
    /// Rejected (policy, epoch and engine untouched) when the policy fails
    /// [`Policy::validate`] — defence in depth for values that arrived over
    /// the wire — or when the running engine is a fixed-algorithm baseline
    /// that would silently ignore the swap
    /// ([`PolicyError::UnsupportedEngine`]).
    pub fn set_policy(&mut self, policy: Policy) -> Result<u64, PolicyError> {
        policy.validate()?;
        if !self.engine.honors_policy() {
            return Err(PolicyError::UnsupportedEngine(self.engine.name()));
        }
        self.policy = policy;
        self.policy_epoch += 1;
        // Stamp the new epoch onto the scheduler's decision trace, so a
        // trace dump shows exactly which allocation each decision ran under.
        if let Some(staged) = self
            .engine
            .as_any_mut()
            .and_then(|e| e.downcast_mut::<StagedEngine>())
        {
            staged.set_trace_epoch(self.policy_epoch);
        }
        self.shares_stale = false;
        self.engine.reconfigure(&self.jobs, &self.policy);
        Ok(self.policy_epoch)
    }

    /// The configured λ interval.
    pub fn lambda_interval_ns(&self) -> u64 {
        self.lambda.interval_ns()
    }

    /// Number of requests queued and not yet served.
    pub fn queued(&self) -> usize {
        self.engine.queued()
    }

    /// Number of completed requests.
    pub fn completions(&self) -> u64 {
        self.completions
    }

    /// The scheduler's current nominal share assignment.
    pub fn shares(&mut self) -> ShareMap {
        self.settle_shares();
        self.engine.shares()
    }

    /// Pays the reconfigure owed since the job table last moved, if any.
    pub(crate) fn settle_shares(&mut self) {
        if std::mem::take(&mut self.shares_stale) {
            self.engine.reconfigure(&self.jobs, &self.policy);
        }
    }

    /// The shared file system this server operates on.
    pub fn fs(&self) -> &BurstBufferFs {
        &self.fs
    }

    // ------------------------------------------------------------ job admin

    /// Handles a client hello or heartbeat (§4.1 job monitor).
    pub fn heartbeat(&mut self, meta: JobMeta, now_ns: u64) {
        self.jobs.heartbeat(meta, now_ns);
        self.shares_stale = true;
    }

    /// Handles a clean client disconnect.
    pub fn client_bye(&mut self, meta: JobMeta, _now_ns: u64) {
        self.jobs.remove(meta.job);
        self.shares_stale = true;
    }

    /// Expires silent jobs and refreshes shares if anything changed. Free
    /// until the earliest possible expiry (see [`JobTable::expire`]).
    pub fn expire_jobs(&mut self, now_ns: u64) {
        if self.jobs.expire(now_ns) > 0 {
            self.shares_stale = true;
        }
    }

    /// The server's local job status table (what it broadcasts at λ-sync).
    pub fn local_table(&self) -> JobTable {
        self.jobs.clone()
    }

    /// Whether a λ-sync round is due at `now_ns`.
    pub fn sync_due(&self, now_ns: u64) -> bool {
        self.lambda.due(now_ns)
    }

    /// Absorbs peer tables received in an all-gather round and marks the
    /// round complete (§3.1).
    pub fn absorb_peer_tables<'a>(
        &mut self,
        tables: impl IntoIterator<Item = &'a JobTable>,
        now_ns: u64,
    ) {
        // The merge must not leak into a reconfigure owed from before it.
        self.settle_shares();
        for t in tables {
            self.jobs.merge_from(t);
        }
        self.lambda.mark(now_ns);
        self.engine.reconfigure(&self.jobs, &self.policy);
    }

    /// One server turn after ingest, as every driver of a core runs it:
    /// serve what the device has room for ([`poll`](Self::poll)), collect
    /// the staging replies, run the λ round if it is due, then expire silent
    /// jobs (after the merge, so the turn ends with the expiry bound the
    /// merge reset made exact again). Alone in `fabric` there is nobody to
    /// tell and nothing to hear: the round is only marked. Returns the
    /// foreground and the staging replies that became ready; when to turn
    /// again is [`next_deadline_ns`](Self::next_deadline_ns).
    pub fn turn(
        &mut self,
        now_ns: u64,
        fabric: &PeerFabric<PeerMessage>,
    ) -> (Vec<ReadyReply>, Vec<StageReady>) {
        let ready = self.poll(now_ns);
        let stage = self.take_stage_replies();
        if self.sync_due(now_ns) {
            let me = self.server_index;
            if fabric.len() > 1 {
                fabric.broadcast(
                    me,
                    PeerMessage::JobTable {
                        from_server: me,
                        table: self.local_table(),
                        sent_ns: now_ns,
                    },
                );
            }
            let peers = fabric.drain(me);
            let tables = peers
                .iter()
                .map(|PeerMessage::JobTable { table, .. }| table);
            self.absorb_peer_tables(tables, now_ns);
        }
        self.expire_jobs(now_ns);
        (ready, stage)
    }

    /// The earliest time this server needs the processor again if no new
    /// message arrives: whoever drives the core may sleep until then (or
    /// until input) without delaying anything. `None`: only input can make
    /// work. Never later than the first `now` at which
    /// [`poll`](Self::poll), [`expire_jobs`](Self::expire_jobs) or
    /// [`sync_due`](Self::sync_due) would do something; it may be earlier
    /// (the expiry bound is a lower bound), in which case the caller finds
    /// nothing to do and asks again.
    ///
    /// The sources: replies already waiting to be collected and a
    /// reconfigure owed (now); the first possible heartbeat expiry; the next
    /// λ round; with requests queued, the later of the device's next free
    /// worker and the engine's own throttle; and with staging, the earliest
    /// finish any traffic class has in flight
    /// ([`themis_stage::ClassLifecycle::next_finish_ns`]) and [`STAGE_TICK_NS`] from now.
    pub fn next_deadline_ns(&self, now_ns: u64) -> Option<u64> {
        if self.shares_stale || !self.rejected.is_empty() || !self.stage_replies.is_empty() {
            return Some(now_ns);
        }
        let mut deadline = self.lambda.next_round_ns();
        if let Some(expiry) = self.jobs.next_expiry_ns() {
            deadline = deadline.min(expiry);
        }
        if self.engine.queued() > 0 {
            let eligible = self.engine.next_eligible_ns(now_ns).unwrap_or(now_ns);
            deadline = deadline.min(self.device.next_free_ns().max(eligible));
        }
        if let Some(st) = &self.staging {
            let finishes = TrafficClass::ALL
                .into_iter()
                .filter_map(|class| st.lifecycle(class).next_finish_ns());
            deadline = finishes.fold(deadline.min(now_ns.saturating_add(STAGE_TICK_NS)), u64::min);
        }
        // A λ interval that saturates the clock is the one way to have no
        // deadline at all.
        (deadline != u64::MAX).then_some(deadline)
    }

    // --------------------------------------------------------------- the IO path

    /// Accepts an I/O request from a client: the communicator records the
    /// job, assigns a sequence number, and queues the request with the
    /// arbitration algorithm.
    ///
    /// Job ids in the reserved system range
    /// ([`themis_core::entity::RESERVED_JOB_BASE`] — the same boundary the
    /// client asserts against) are rejected with an error reply (delivered by
    /// the next [`ServerCore::poll`]): admitting one would let a client
    /// smuggle traffic into the drain class — or, worse, have the request
    /// mistaken for a drain and silently dropped.
    pub fn submit(&mut self, request_id: u64, meta: JobMeta, op: FsOp, now_ns: u64) {
        if meta.is_reserved() {
            let seq = self.next_seq;
            self.next_seq += 1;
            let request = IoRequest::new(seq, meta, op.op_kind(), op.payload_bytes(), now_ns);
            self.rejected.push(ReadyReply {
                request_id,
                reply: FsReply::Error(format!(
                    "job id {} is inside the reserved system job-id range (>= {})",
                    meta.job,
                    themis_core::entity::RESERVED_JOB_BASE
                )),
                completion: Completion {
                    request,
                    start_ns: now_ns,
                    finish_ns: now_ns,
                },
            });
            return;
        }
        self.settle_shares();
        self.jobs.observe_request(meta, now_ns);
        let seq = self.next_seq;
        self.next_seq += 1;
        let request = IoRequest::new(seq, meta, op.op_kind(), op.payload_bytes(), now_ns);
        self.pending.insert(seq, (request_id, op));
        self.engine.admit(request);
    }

    /// Runs the worker loop at `now_ns`: while the device has an idle worker
    /// and the scheduler releases a request, execute it against the file
    /// system and record its service interval. Returns the replies that
    /// became ready, in completion order.
    ///
    /// With staging enabled the same loop also runs the staging pipelines:
    /// completed capacity-tier writes mark their extents clean, completed
    /// restores land their extents back in the shard (waking any parked
    /// foreground operations), watermark pressure evicts clean extents,
    /// fresh dirty extents are admitted as drain requests, queued restore
    /// targets are admitted as restore requests, and class requests the
    /// engine releases are executed against the burst-buffer device and the
    /// capacity tier. A foreground request whose target extents are evicted
    /// is *parked*: its restores are synthesized as policy-admitted
    /// [`TrafficClass::Restore`] traffic and the request executes — and is
    /// charged device time — only once they land, so stage-in bandwidth is
    /// arbitrated exactly like everything else instead of being stolen on
    /// the read path.
    pub fn poll(&mut self, now_ns: u64) -> Vec<ReadyReply> {
        self.settle_shares();
        let mut ready = std::mem::take(&mut self.rejected);
        self.stage_tick(now_ns, &mut ready);
        while self.device.has_idle_worker(now_ns) {
            let Some(request) = self.engine.select(now_ns, &mut self.rng) else {
                break;
            };
            if let Some(class) = TrafficClass::of(request.meta.job) {
                self.execute_class(class, &request, now_ns);
                continue;
            }
            let (request_id, op) = self
                .pending
                .remove(&request.seq)
                .expect("every queued request has a pending op");
            let Some(op) = self.park_if_needs_restore(request_id, &request, op, now_ns) else {
                // The op waits for its restores; the worker stays free for
                // other traffic (including the restores themselves).
                continue;
            };
            let Some(op) = self.park_if_overlaps_parked(request_id, &request, op, now_ns) else {
                // Every extent the op targets is resident, but an *earlier*
                // parked op overlaps them: executing now would let this
                // op's bytes be clobbered when the earlier op's restores
                // land and it executes last. Park behind it instead
                // (admission order), with no restores of its own.
                continue;
            };
            self.run_foreground(request_id, request, op, now_ns, &mut ready);
        }
        ready
    }

    /// Executes a foreground operation whose extents are resident — fresh
    /// from the scheduler or woken from parking: charges the device,
    /// performs the file system work, completes the request with the engine
    /// and delivers (or, for a `sync` write, parks) the reply. A write's
    /// payload may become the extent it writes ([`ServerCore::execute`]).
    pub(crate) fn run_foreground(
        &mut self,
        request_id: u64,
        request: IoRequest,
        mut op: FsOp,
        now_ns: u64,
        ready: &mut Vec<ReadyReply>,
    ) {
        // The stripes a write dirties are computed *before* execution:
        // cursor writes move their descriptor's cursor when they run.
        let stripes = self.write_stripes(&op);
        let (start_ns, finish_ns) = self.device.dispatch(&request, now_ns);
        let writer = Writer {
            job: request.meta.job,
            user: request.meta.user,
        };
        let reply = self.execute(&mut op, writer, finish_ns);
        let completion = Completion {
            request,
            start_ns,
            finish_ns,
        };
        self.engine.complete(&completion);
        self.completions += 1;
        self.record_completion(&completion);
        let reply = ReadyReply {
            request_id,
            reply,
            completion,
        };
        self.defer_sync_ack(stripes, reply, ready);
    }

    /// Records one foreground completion into its tenant's series: the op
    /// and byte totals the conformance oracle cross-checks against
    /// reply-derived accounting, plus queue-delay and service histograms.
    pub(crate) fn record_completion(&mut self, completion: &Completion) {
        let stats = self
            .telemetry
            .tenant(self.server_index, completion.request.meta.job.0);
        stats.ops_completed.inc();
        stats.bytes_completed.add(completion.request.bytes);
        stats.queue_delay_ns.record(completion.queue_delay_ns());
        stats.service_ns.record(completion.service_ns());
    }

    /// Records a park or wake decision into the core's trace ring. The
    /// virtual times are 0: parking happens outside the engine, after the
    /// slot was already granted.
    pub(crate) fn trace_park_event(&mut self, now_ns: u64, kind: TraceKind, request: &IoRequest) {
        self.telemetry.trace.record(TraceEvent {
            now_ns,
            server: self.server_index as u32,
            kind,
            lane: TraceLane::Foreground,
            job: request.meta.job.0,
            bytes: request.bytes,
            lane_vtime: 0.0,
            fg_vtime: 0.0,
            epoch: self.policy_epoch,
        });
    }

    /// Takes the staging replies that became ready (flush acknowledgements,
    /// stage-in results, status snapshots).
    pub fn take_stage_replies(&mut self) -> Vec<StageReady> {
        std::mem::take(&mut self.stage_replies)
    }

    /// Rejects staging-message metadata that claims a reserved job id (same
    /// boundary as [`ServerCore::submit`]): observing it would register the
    /// drain identity as a live tenant and dilute every real tenant's share.
    pub(crate) fn reject_reserved_stage(&mut self, request_id: u64, meta: &JobMeta) -> bool {
        if !meta.is_reserved() {
            return false;
        }
        self.stage_replies.push(StageReady {
            request_id,
            reply: StageReply::Error(format!(
                "job id {} is inside the reserved system job-id range (>= {})",
                meta.job,
                themis_core::entity::RESERVED_JOB_BASE
            )),
        });
        true
    }

    /// Handles a `MetricsSnapshot` request: refreshes this server's gauges
    /// and cuts one snapshot of the registry — the whole deployment's
    /// metrics when the registry is shared ([`ServerCore::with_telemetry`]).
    /// Works with or without staging; the reply is immediate.
    pub fn metrics_snapshot(&mut self, request_id: u64, now_ns: u64) {
        self.refresh_gauges();
        let snap = self.telemetry.registry.snapshot(now_ns);
        self.stage_replies.push(StageReady {
            request_id,
            reply: StageReply::Metrics(snap),
        });
    }

    /// Handles a `TraceDump` request: the newest `max_events` scheduler and
    /// park/wake decisions of **this** server, merged by decision time. The
    /// reply is immediate; the dump is empty when the telemetry crate's
    /// `trace` feature is compiled out.
    pub fn trace_dump(&mut self, request_id: u64, max_events: u64) {
        let dump = self.trace_dump_snapshot(max_events as usize);
        self.stage_replies.push(StageReady {
            request_id,
            reply: StageReply::Trace(dump),
        });
    }

    /// Merges the engine's scheduler-decision ring with the core's
    /// park/wake ring, newest `max` events retained (oldest first).
    pub fn trace_dump_snapshot(&mut self, max: usize) -> TraceDump {
        let core = self.telemetry.trace.dump(max);
        let engine = self
            .engine
            .as_any_mut()
            .and_then(|e| e.downcast_mut::<StagedEngine>())
            .map(|e| e.trace_dump(max))
            .unwrap_or_default();
        let mut events: Vec<TraceEvent> = engine.events;
        events.extend(core.events);
        events.sort_by_key(|e| e.now_ns);
        let cut = events.len() - max.min(events.len());
        let events = events.split_off(cut);
        TraceDump {
            events,
            dropped: engine.dropped + core.dropped + cut as u64,
        }
    }

    /// Executes one file system operation (the data path of §4.3). With
    /// staging enabled, foreground I/O never observes staged-out data as
    /// zeros or errors: operations targeting evicted extents are normally
    /// parked behind policy-admitted restores before execution
    /// ([`ServerCore::park_if_needs_restore`]), so by the time this runs the
    /// extents are resident. The read-through fetcher and the synchronous
    /// restore below remain as the fallback for the cross-server race —
    /// a peer evicting a shared-shard extent after the parking pre-check.
    /// Every extent a write dirties records `writer` as its last writer.
    ///
    /// A write that covers its extent from the first byte keeps the op's
    /// payload as the extent instead of copying it, leaving the op's `data`
    /// empty ([`BurstBufferFs::write_at_owned_as`]). A failed attempt leaves
    /// the payload in place for the retry.
    pub(crate) fn execute(&mut self, op: &mut FsOp, writer: Writer, now_ns: u64) -> FsReply {
        match self.try_execute(op, writer, now_ns) {
            Ok(reply) => reply,
            Err(FsError::NotResident(path)) if self.staging.is_some() => {
                let targets = self.write_stripes(op).map(|(_, stripes)| stripes);
                let shards = 0..self.fs.server_count();
                self.restore_extents(shards, &path, now_ns, targets.as_ref());
                match self.try_execute(op, writer, now_ns) {
                    Ok(reply) => reply,
                    Err(e) => FsReply::Error(e.to_string()),
                }
            }
            Err(e) => FsReply::Error(e.to_string()),
        }
    }

    fn try_execute(
        &mut self,
        op: &mut FsOp,
        writer: Writer,
        now_ns: u64,
    ) -> Result<FsReply, FsError> {
        match op {
            FsOp::Open {
                path,
                create,
                truncate,
                append,
            } => {
                let fd = self.fs.open(
                    path,
                    OpenFlags {
                        create: *create,
                        truncate: *truncate,
                        append: *append,
                    },
                    now_ns,
                )?;
                if *truncate {
                    self.drop_backing_copies(path);
                }
                Ok(FsReply::Fd(fd))
            }
            FsOp::Close { fd } => self.fs.close(*fd).map(|_| FsReply::Ok),
            FsOp::Write { fd, data } => self
                .fs
                .write_owned_as(*fd, data, now_ns, Some(writer))
                .map(FsReply::Count),
            FsOp::WriteAt { path, offset, data } => self
                .fs
                .write_at_owned_as(path, *offset, data, now_ns, Some(writer))
                .map(FsReply::Count),
            FsOp::Read { fd, len } => self
                .read_through(ReadTarget::Fd(*fd), *len, now_ns)
                .map(FsReply::Data),
            FsOp::ReadAt { path, offset, len } => self
                .read_through(ReadTarget::At(path, *offset), *len, now_ns)
                .map(FsReply::Data),
            FsOp::Seek { fd, offset, whence } => {
                let whence = match whence {
                    0 => Whence::Set,
                    1 => Whence::Cur,
                    _ => Whence::End,
                };
                self.fs.lseek(*fd, *offset, whence).map(FsReply::Count)
            }
            FsOp::Stat { path } => self.fs.stat(path).map(FsReply::Stat),
            FsOp::Mkdir { path } => self.fs.mkdir_all(path, now_ns).map(|_| FsReply::Ok),
            FsOp::Readdir { path } => self.fs.readdir(path).map(FsReply::Entries),
            FsOp::Unlink { path } => {
                self.fs.unlink(path, now_ns)?;
                self.drop_backing_copies(path);
                Ok(FsReply::Ok)
            }
            FsOp::CreateStriped { path, stripe } => self
                .fs
                .create_striped(path, *stripe, now_ns)
                .map(|_| FsReply::Ok),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use themis_core::entity::JobId;
    use themis_stage::{CapacityTier, ReplicateStatus};

    fn server(policy: Policy) -> ServerCore {
        let fs = BurstBufferFs::new(1);
        ServerCore::new(
            0,
            fs,
            ServerConfig {
                algorithm: Algorithm::Themis(policy),
                ..ServerConfig::default()
            },
        )
    }

    pub(crate) fn meta(job: u64, nodes: u32) -> JobMeta {
        JobMeta::new(job, job as u32, 1u32, nodes)
    }

    #[test]
    fn submit_poll_executes_against_fs() {
        let mut s = server(Policy::size_fair());
        let m = meta(1, 4);
        s.heartbeat(m, 0);
        s.submit(
            1,
            m,
            FsOp::Open {
                path: "/out".into(),
                create: true,
                truncate: true,
                append: false,
            },
            0,
        );
        let replies = s.poll(0);
        assert_eq!(replies.len(), 1);
        let fd = match replies[0].reply {
            FsReply::Fd(fd) => fd,
            ref other => panic!("unexpected reply {other:?}"),
        };
        s.submit(
            2,
            m,
            FsOp::Write {
                fd,
                data: vec![7u8; 4096],
            },
            1_000,
        );
        s.submit(3, m, FsOp::Read { fd, len: 4096 }, 1_000);
        s.submit(
            4,
            m,
            FsOp::Seek {
                fd,
                offset: 0,
                whence: 0,
            },
            1_000,
        );
        s.submit(5, m, FsOp::Read { fd, len: 4096 }, 1_000);
        let mut replies = s.poll(1_000);
        // Workers may still be busy with earlier requests at t=1 µs; keep
        // polling as (virtual) time advances until all four complete.
        let mut t = 1_000;
        while replies.len() < 4 {
            t += 10_000;
            replies.extend(s.poll(t));
            assert!(t < 1_000_000_000, "requests never completed");
        }
        assert_eq!(replies.len(), 4);
        match &replies[3].reply {
            FsReply::Data(d) => assert_eq!(d, &vec![7u8; 4096]),
            other => panic!("unexpected reply {other:?}"),
        }
        assert_eq!(s.completions(), 5);
        assert_eq!(s.queued(), 0);
    }

    #[test]
    fn errors_travel_back_as_replies() {
        let mut s = server(Policy::job_fair());
        let m = meta(1, 1);
        s.submit(
            9,
            m,
            FsOp::Stat {
                path: "/missing".into(),
            },
            0,
        );
        let replies = s.poll(0);
        assert!(matches!(replies[0].reply, FsReply::Error(_)));
    }

    #[test]
    fn size_fair_shares_follow_heartbeats() {
        let mut s = server(Policy::size_fair());
        s.heartbeat(meta(1, 3), 0);
        s.heartbeat(meta(2, 1), 0);
        let shares = s.shares();
        assert!((shares.share(JobId(1)) - 0.75).abs() < 1e-9);
        s.client_bye(meta(1, 3), 10);
        assert!((s.shares().share(JobId(2)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn expire_marks_silent_jobs_inactive() {
        let fs = BurstBufferFs::new(1);
        let mut s = ServerCore::new(
            0,
            fs,
            ServerConfig {
                heartbeat_timeout_ns: 1_000,
                ..ServerConfig::default()
            },
        );
        s.heartbeat(meta(1, 2), 0);
        s.heartbeat(meta(2, 2), 0);
        // Job 2 keeps beating, job 1 goes silent.
        s.heartbeat(meta(2, 2), 10_000);
        s.expire_jobs(10_000);
        let shares = s.shares();
        assert_eq!(shares.share(JobId(1)), 0.0);
        assert!((shares.share(JobId(2)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn lambda_sync_merges_peer_views() {
        let mut a = server(Policy::size_fair());
        let mut b = server(Policy::size_fair());
        a.heartbeat(meta(1, 16), 0);
        a.heartbeat(meta(2, 8), 0);
        b.heartbeat(meta(1, 16), 0);
        b.heartbeat(meta(3, 8), 0);
        assert!((a.shares().share(JobId(1)) - 2.0 / 3.0).abs() < 1e-9);
        assert!(a.sync_due(a.lambda_interval_ns()));
        let tb = b.local_table();
        let ta = a.local_table();
        a.absorb_peer_tables([&tb], 500_000_000);
        b.absorb_peer_tables([&ta], 500_000_000);
        assert!((a.shares().share(JobId(1)) - 0.5).abs() < 1e-9);
        assert!((b.shares().share(JobId(1)) - 0.5).abs() < 1e-9);
        assert!(!a.sync_due(600_000_000));
    }

    #[test]
    fn a_lone_turn_marks_the_lambda_round() {
        let mut s = server(Policy::size_fair());
        let fabric = PeerFabric::new(1);
        let due = s.lambda_interval_ns();
        assert_eq!(s.next_deadline_ns(due), Some(due));
        s.turn(due, &fabric);
        // Idle and alone, the core next needs the processor a round later.
        assert_eq!(s.next_deadline_ns(due), Some(2 * due));
    }

    /// Two cores over one fabric: core 0's table reaches core 1 in the
    /// round both take at the same instant.
    #[test]
    fn a_turn_gathers_peer_tables_over_the_fabric() {
        let fs = BurstBufferFs::new(2);
        let mut cores = [0, 1].map(|i| ServerCore::new(i, fs.clone(), ServerConfig::default()));
        let fabric = PeerFabric::new(2);
        cores[0].heartbeat(meta(1, 4), 0);
        let due = cores[0].lambda_interval_ns();
        for core in cores.iter_mut() {
            core.turn(due, &fabric);
        }
        let merged = cores[1].local_table();
        assert!(merged.get(JobId(1)).is_some_and(|e| e.status.is_active()));
        assert!((cores[1].shares().share(JobId(1)) - 1.0).abs() < 1e-9);
    }

    /// A peer still reports a job whose heartbeat lapsed long ago: the turn
    /// that merges it in expires it again, after the merge.
    #[test]
    fn a_turn_expires_a_lapsed_job_after_the_merge() {
        let fs = BurstBufferFs::new(2);
        let config = ServerConfig {
            heartbeat_timeout_ns: 1_000,
            ..ServerConfig::default()
        };
        let mut cores = [0, 1].map(|i| ServerCore::new(i, fs.clone(), config.clone()));
        let fabric = PeerFabric::new(2);
        cores[1].heartbeat(meta(1, 4), 0);
        let due = cores[0].lambda_interval_ns();
        // Core 1 broadcasts its table before its own expiry runs.
        cores[1].turn(due, &fabric);
        assert!(cores[0].local_table().get(JobId(1)).is_none());
        cores[0].turn(due, &fabric);
        let entry = cores[0].local_table().get(JobId(1)).copied();
        assert!(entry.is_some_and(|e| !e.status.is_active()), "{entry:?}");
        assert_eq!(cores[0].shares().share(JobId(1)), 0.0);
    }

    #[test]
    fn policy_change_applies_immediately() {
        let mut s = server(Policy::size_fair());
        s.heartbeat(meta(1, 4), 0);
        s.heartbeat(meta(2, 1), 0);
        assert!((s.shares().share(JobId(1)) - 0.8).abs() < 1e-9);
        s.set_policy(Policy::job_fair()).unwrap();
        assert!((s.shares().share(JobId(1)) - 0.5).abs() < 1e-9);
        assert_eq!(s.policy(), &Policy::job_fair());
    }

    #[test]
    fn set_policy_rejected_on_fixed_algorithm_engines() {
        for algorithm in [
            Algorithm::Fifo,
            Algorithm::Gift(themis_baselines::GiftConfig::default()),
            Algorithm::Tbf(themis_baselines::TbfConfig::default()),
        ] {
            let fs = BurstBufferFs::new(1);
            let mut s = ServerCore::new(
                0,
                fs,
                ServerConfig {
                    algorithm: algorithm.clone(),
                    ..ServerConfig::default()
                },
            );
            let before = s.policy().clone();
            let err = s.set_policy(Policy::size_fair()).unwrap_err();
            assert!(
                matches!(err, PolicyError::UnsupportedEngine(_)),
                "{algorithm:?}: {err}"
            );
            // Nothing changed: epoch still 0, previous policy still in force.
            assert_eq!(s.policy_epoch(), 0);
            assert_eq!(s.policy(), &before);
        }
    }

    pub(crate) fn staged_server(staging: StagingConfig) -> ServerCore {
        let fs = BurstBufferFs::new(1);
        ServerCore::new(
            0,
            fs,
            ServerConfig {
                algorithm: Algorithm::Themis(Policy::size_fair()),
                staging: Some(staging),
                ..ServerConfig::default()
            },
        )
    }

    pub(crate) fn fast_staging() -> StagingConfig {
        StagingConfig {
            // A fast backing tier so tests drain in microseconds of virtual
            // time.
            backing_device: DeviceConfig::default(),
            drain: themis_stage::DrainConfig {
                high_watermark_bytes: 1 << 30,
                low_watermark_bytes: 1 << 29,
                ..themis_stage::DrainConfig::default()
            },
            sharding: None,
            durability: None,
        }
    }

    /// Polls until the staging pipeline reports clean, returning the virtual
    /// time reached.
    pub(crate) fn poll_until_clean(s: &mut ServerCore, mut t: u64) -> u64 {
        loop {
            s.poll(t);
            let status = s.drain_status_snapshot().expect("staging enabled");
            if status.is_clean() {
                return t;
            }
            t += 100_000;
            assert!(t < 60_000_000_000, "drain never completed");
        }
    }

    pub(crate) fn write_file(s: &mut ServerCore, path: &str, bytes: usize, t: u64) {
        s.submit(
            9000,
            meta(1, 1),
            FsOp::Open {
                path: path.into(),
                create: true,
                truncate: false,
                append: false,
            },
            t,
        );
        let fd = loop {
            let replies = s.poll(t);
            if let Some(r) = replies.iter().find(|r| r.request_id == 9000) {
                match r.reply {
                    FsReply::Fd(fd) => break fd,
                    ref other => panic!("unexpected {other:?}"),
                }
            }
        };
        s.submit(
            9001,
            meta(1, 1),
            FsOp::Write {
                fd,
                data: vec![0xAB; bytes],
            },
            t,
        );
        let mut t = t;
        loop {
            if s.poll(t).iter().any(|r| r.request_id == 9001) {
                break;
            }
            t += 100_000;
            assert!(t < 60_000_000_000, "write never completed");
        }
    }

    #[test]
    fn background_drain_copies_dirty_extents_to_backing() {
        let mut s = staged_server(fast_staging());
        s.heartbeat(meta(1, 1), 0);
        write_file(&mut s, "/ckpt", 3 << 20, 0);
        assert!(s.drain_status_snapshot().unwrap().dirty_bytes >= (3 << 20) as u64);
        let t = poll_until_clean(&mut s, 1_000_000);
        let status = s.drain_status_snapshot().unwrap();
        assert_eq!(status.dirty_bytes, 0);
        assert_eq!(status.backing_bytes, (3 << 20) as u64);
        assert!(status.drained_ops >= 3, "stripes drained individually");
        // The data stayed resident (no watermark pressure) and readable.
        assert_eq!(s.fs().read_at("/ckpt", 0, 16).unwrap(), vec![0xAB; 16]);
        assert!(t > 0);
    }

    #[test]
    fn flush_of_clean_file_is_noop_ack() {
        let mut s = staged_server(fast_staging());
        s.heartbeat(meta(1, 1), 0);
        write_file(&mut s, "/clean", 1 << 20, 0);
        poll_until_clean(&mut s, 1_000_000);
        // File fully drained: the flush acknowledges immediately, without
        // queueing any drain work.
        let queued_before = s.queued();
        s.flush(42, meta(1, 1), "/clean", 10_000_000);
        let replies = s.take_stage_replies();
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].request_id, 42);
        match replies[0].reply {
            StageReply::Flushed { backing_bytes } => {
                assert_eq!(backing_bytes, (1 << 20) as u64)
            }
            ref other => panic!("unexpected {other:?}"),
        }
        assert_eq!(s.queued(), queued_before);
        // A flush of a path with no extents at all is also a no-op ack.
        s.flush(43, meta(1, 1), "/never-written", 10_000_000);
        let replies = s.take_stage_replies();
        assert!(
            matches!(replies[0].reply, StageReply::Flushed { backing_bytes: 0 }),
            "{:?}",
            replies[0].reply
        );
    }

    #[test]
    fn flush_of_dirty_file_acks_after_drain() {
        let mut s = staged_server(fast_staging());
        s.heartbeat(meta(1, 1), 0);
        write_file(&mut s, "/dirty", 2 << 20, 0);
        s.flush(77, meta(1, 1), "/dirty", 1_000_000);
        assert!(s.take_stage_replies().is_empty(), "ack must wait for drain");
        let mut t = 1_000_000;
        let replies = loop {
            s.poll(t);
            let replies = s.take_stage_replies();
            if !replies.is_empty() {
                break replies;
            }
            t += 100_000;
            assert!(t < 60_000_000_000, "flush never acknowledged");
        };
        assert_eq!(replies[0].request_id, 77);
        assert!(matches!(
            replies[0].reply,
            StageReply::Flushed { backing_bytes } if backing_bytes == (2 << 20) as u64
        ));
        assert_eq!(s.drain_status_snapshot().unwrap().dirty_bytes, 0);
    }

    #[test]
    fn policy_swap_mid_drain_keeps_epoch_semantics() {
        let mut s = staged_server(fast_staging());
        s.heartbeat(meta(1, 4), 0);
        s.heartbeat(meta(2, 1), 0);
        write_file(&mut s, "/mid", 4 << 20, 0);
        // Kick the pipeline so drain requests are admitted and in flight.
        s.poll(1_000_000);
        let queued_before = s.queued();
        assert!(
            !s.drain_status_snapshot().unwrap().is_clean(),
            "drain should be in progress"
        );
        // Live SetPolicy mid-drain: accepted (the staged engine delegates to
        // the themis engine underneath), epoch bumps, queues — foreground and
        // drain — are preserved.
        let epoch = s.set_policy(Policy::job_fair()).unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(s.policy_epoch(), 1);
        assert_eq!(s.queued(), queued_before);
        assert!((s.shares().share(JobId(1)) - 0.5).abs() < 1e-9);
        // The drain still completes under the new policy.
        poll_until_clean(&mut s, 2_000_000);
        assert_eq!(
            s.drain_status_snapshot().unwrap().backing_bytes,
            (4 << 20) as u64
        );
    }

    #[test]
    fn eviction_reclaims_clean_extents_but_never_dirty_ones() {
        let mut staging = fast_staging();
        staging.drain.high_watermark_bytes = 2 << 20;
        staging.drain.low_watermark_bytes = 1 << 20;
        let mut s = staged_server(staging);
        s.heartbeat(meta(1, 1), 0);
        write_file(&mut s, "/big", 4 << 20, 0);
        // While everything is dirty, watermark pressure must evict nothing:
        // a dirty extent's only copy is the burst buffer.
        s.poll(1_000);
        let status = s.drain_status_snapshot().unwrap();
        assert_eq!(status.evicted_bytes, 0);
        assert!(status.resident_bytes >= (4 << 20) as u64);
        // Once drained, the clean extents above the watermark are reclaimed.
        poll_until_clean(&mut s, 1_000_000);
        s.poll(60_000_000);
        let status = s.drain_status_snapshot().unwrap();
        assert!(status.evicted_bytes > 0, "watermark eviction ran");
        // Eviction triggers above the high watermark and reclaims down to
        // the low watermark, so steady state is at or below high.
        assert!(
            status.resident_bytes <= (2 << 20) as u64,
            "resident {} above high watermark",
            status.resident_bytes
        );
        assert_eq!(status.dirty_bytes, 0);
        assert_eq!(status.backing_bytes, (4 << 20) as u64);
    }

    #[test]
    fn stage_in_restores_evicted_data_byte_for_byte() {
        let mut staging = fast_staging();
        staging.drain.high_watermark_bytes = 1 << 20;
        staging.drain.low_watermark_bytes = 0;
        let mut s = staged_server(staging);
        s.heartbeat(meta(1, 1), 0);
        write_file(&mut s, "/evicted", 3 << 20, 0);
        poll_until_clean(&mut s, 1_000_000);
        s.poll(60_000_000);
        assert_eq!(s.drain_status_snapshot().unwrap().resident_bytes, 0);
        // An explicit stage-in queues policy-admitted restore traffic; the
        // acknowledgement is deferred until every extent has landed, and the
        // restore backlog is observable in the status meanwhile.
        s.stage_in(55, meta(1, 1), "/evicted", 70_000_000);
        assert!(
            s.take_stage_replies().is_empty(),
            "ack must wait for the queued restores"
        );
        assert_eq!(
            s.drain_status_snapshot().unwrap().pending_restore_bytes,
            (3 << 20) as u64
        );
        let mut t = 70_000_000;
        let replies = loop {
            s.poll(t);
            let replies = s.take_stage_replies();
            if !replies.is_empty() {
                break replies;
            }
            t += 100_000;
            assert!(t < 120_000_000_000, "stage-in never acknowledged");
        };
        assert_eq!(replies[0].request_id, 55);
        assert!(matches!(
            replies[0].reply,
            StageReply::StagedIn { restored_bytes } if restored_bytes == (3 << 20) as u64
        ));
        let status = s.drain_status_snapshot().unwrap();
        assert_eq!(status.restored_bytes, (3 << 20) as u64);
        assert_eq!(status.pending_restore_bytes, 0);
        assert!(status.restore_idle());
        // Byte-for-byte contents through the server read path (the tight
        // watermarks may re-evict immediately; the read parks and restores
        // transparently).
        s.submit(
            57,
            meta(1, 1),
            FsOp::ReadAt {
                path: "/evicted".into(),
                offset: 0,
                len: 3 << 20,
            },
            t,
        );
        let data = loop {
            let replies = s.poll(t);
            if let Some(r) = replies.iter().find(|r| r.request_id == 57) {
                match &r.reply {
                    FsReply::Data(d) => break d.clone(),
                    other => panic!("unexpected {other:?}"),
                }
            }
            t += 100_000;
            assert!(t < 240_000_000_000, "read never completed");
        };
        assert_eq!(data, vec![0xAB; 3 << 20]);
    }

    #[test]
    fn evicted_data_is_restored_transparently_on_read() {
        let mut staging = fast_staging();
        staging.drain.high_watermark_bytes = 1 << 20;
        staging.drain.low_watermark_bytes = 0;
        let mut s = staged_server(staging);
        s.heartbeat(meta(1, 1), 0);
        write_file(&mut s, "/lazy", 2 << 20, 0);
        poll_until_clean(&mut s, 1_000_000);
        s.poll(60_000_000);
        assert_eq!(s.drain_status_snapshot().unwrap().resident_bytes, 0);
        // A plain read through the request path stages the extents back in
        // instead of returning zeros or failing.
        s.submit(
            500,
            meta(1, 1),
            FsOp::ReadAt {
                path: "/lazy".into(),
                offset: 0,
                len: 2 << 20,
            },
            70_000_000,
        );
        let mut t = 70_000_000;
        let data = loop {
            let replies = s.poll(t);
            if let Some(r) = replies.iter().find(|r| r.request_id == 500) {
                match &r.reply {
                    FsReply::Data(d) => break d.clone(),
                    other => panic!("unexpected {other:?}"),
                }
            }
            t += 100_000;
            assert!(t < 120_000_000_000, "read never completed");
        };
        assert_eq!(data, vec![0xAB; 2 << 20]);
    }

    #[test]
    fn client_job_id_in_drain_range_is_rejected_not_dropped() {
        // A malicious/buggy client using a job id inside the reserved drain
        // range must get an error reply — never have its request mistaken
        // for drain traffic and silently dropped. Both with and without
        // staging.
        for staging in [None, Some(fast_staging())] {
            let fs = BurstBufferFs::new(1);
            let mut s = ServerCore::new(
                0,
                fs,
                ServerConfig {
                    staging,
                    ..ServerConfig::default()
                },
            );
            let evil = JobMeta::new(TrafficClass::Drain.meta(1).job, 1u32, 1u32, 1);
            s.submit(31, evil, FsOp::Mkdir { path: "/d".into() }, 0);
            let replies = s.poll(0);
            assert_eq!(replies.len(), 1);
            assert_eq!(replies[0].request_id, 31);
            assert!(
                matches!(replies[0].reply, FsReply::Error(_)),
                "{:?}",
                replies[0].reply
            );
            assert!(!s.fs().exists("/d"));
            assert_eq!(s.queued(), 0);
            // Staging messages enforce the same boundary: a reserved meta in
            // Flush/StageIn must never reach the job table (where it would
            // dilute real tenants' shares).
            s.flush(32, evil, "/d", 0);
            s.stage_in(33, evil, "/d", 0);
            let stage = s.take_stage_replies();
            assert_eq!(stage.len(), 2);
            assert!(stage
                .iter()
                .all(|r| matches!(r.reply, StageReply::Error(_))));
            assert_eq!(s.shares().share(evil.job), 0.0);
            assert!(s.local_table().get(evil.job).is_none());
        }
    }

    #[test]
    fn partial_write_to_evicted_extent_preserves_surrounding_bytes() {
        // Overwriting a few bytes of an evicted extent must merge with the
        // capacity-tier copy (restore-for-write), not lose the rest of the
        // extent — and only the written stripe comes back pinned dirty.
        let mut staging = fast_staging();
        staging.drain.high_watermark_bytes = 1 << 20;
        staging.drain.low_watermark_bytes = 0;
        let mut s = staged_server(staging);
        s.heartbeat(meta(1, 1), 0);
        write_file(&mut s, "/part", 3 << 20, 0);
        poll_until_clean(&mut s, 1_000_000);
        s.poll(60_000_000);
        assert_eq!(s.drain_status_snapshot().unwrap().resident_bytes, 0);
        // Overwrite 4 bytes in the middle of stripe 1.
        s.submit(
            600,
            meta(1, 1),
            FsOp::WriteAt {
                path: "/part".into(),
                offset: (1 << 20) + 100,
                data: vec![0xFF; 4],
            },
            70_000_000,
        );
        let mut t = 70_000_000;
        loop {
            if s.poll(t).iter().any(|r| r.request_id == 600) {
                break;
            }
            t += 100_000;
            assert!(t < 120_000_000_000, "write never completed");
        }
        // Only the written stripe needs re-draining: untouched stripes came
        // back clean (or stayed evicted), so dirty bytes are one stripe.
        assert_eq!(
            s.drain_status_snapshot().unwrap().dirty_bytes,
            1 << 20,
            "only the written stripe should be dirty"
        );
        // Read back the whole file: surrounding bytes intact, overwrite
        // applied.
        s.submit(
            601,
            meta(1, 1),
            FsOp::ReadAt {
                path: "/part".into(),
                offset: 0,
                len: 3 << 20,
            },
            t,
        );
        let data = loop {
            let replies = s.poll(t);
            if let Some(r) = replies.iter().find(|r| r.request_id == 601) {
                match &r.reply {
                    FsReply::Data(d) => break d.clone(),
                    other => panic!("unexpected {other:?}"),
                }
            }
            t += 100_000;
            assert!(t < 240_000_000_000, "read never completed");
        };
        assert_eq!(data.len(), 3 << 20);
        assert!(data[..(1 << 20) + 100].iter().all(|b| *b == 0xAB));
        assert_eq!(&data[(1 << 20) + 100..(1 << 20) + 104], &[0xFF; 4]);
        assert!(data[(1 << 20) + 104..].iter().all(|b| *b == 0xAB));
    }

    #[test]
    fn cursor_io_on_evicted_data_preserves_descriptor_order() {
        // Cursor-based Read/Write never park behind restores — parking
        // would let a later same-fd request execute first and move the
        // cursor out from under the parked one. They take the synchronous
        // fallback instead, so a pipelined open→read→read sequence on a
        // fully evicted file completes in order with correct bytes.
        let mut staging = fast_staging();
        staging.drain.high_watermark_bytes = 1 << 20;
        staging.drain.low_watermark_bytes = 0;
        let mut s = staged_server(staging);
        s.heartbeat(meta(1, 1), 0);
        write_file(&mut s, "/cursor", 2 << 20, 0);
        poll_until_clean(&mut s, 1_000_000);
        s.poll(60_000_000);
        assert_eq!(s.drain_status_snapshot().unwrap().resident_bytes, 0);
        s.submit(
            700,
            meta(1, 1),
            FsOp::Open {
                path: "/cursor".into(),
                create: false,
                truncate: false,
                append: false,
            },
            70_000_000,
        );
        let mut t = 70_000_000;
        let fd = loop {
            let replies = s.poll(t);
            if let Some(r) = replies.iter().find(|r| r.request_id == 700) {
                match r.reply {
                    FsReply::Fd(fd) => break fd,
                    ref other => panic!("unexpected {other:?}"),
                }
            }
            t += 100_000;
            assert!(t < 120_000_000_000, "open never completed");
        };
        // Two pipelined cursor reads covering the whole evicted file.
        s.submit(701, meta(1, 1), FsOp::Read { fd, len: 1 << 20 }, t);
        s.submit(702, meta(1, 1), FsOp::Read { fd, len: 1 << 20 }, t);
        let mut got: Vec<(u64, Vec<u8>)> = Vec::new();
        while got.len() < 2 {
            for r in s.poll(t) {
                if r.request_id == 701 || r.request_id == 702 {
                    match &r.reply {
                        FsReply::Data(d) => got.push((r.request_id, d.clone())),
                        other => panic!("unexpected {other:?}"),
                    }
                }
            }
            t += 100_000;
            assert!(t < 240_000_000_000, "cursor reads never completed");
        }
        // In-order completion, each read a full non-overlapping megabyte.
        assert_eq!(got[0].0, 701);
        assert_eq!(got[1].0, 702);
        assert_eq!(got[0].1, vec![0xAB; 1 << 20]);
        assert_eq!(got[1].1, vec![0xAB; 1 << 20]);
    }

    #[test]
    fn huge_offset_write_at_is_an_error_not_a_panic() {
        // With extents evicted (so the residency pre-check's early-out does
        // not fire), a client-controlled WriteAt near u64::MAX must travel
        // the parking pre-check's saturating stripe arithmetic and come back
        // as a clean error reply — never panic the server.
        let mut staging = fast_staging();
        staging.drain.high_watermark_bytes = 1 << 20;
        staging.drain.low_watermark_bytes = 0;
        let mut s = staged_server(staging);
        s.heartbeat(meta(1, 1), 0);
        write_file(&mut s, "/edge", 2 << 20, 0);
        poll_until_clean(&mut s, 1_000_000);
        s.poll(60_000_000);
        assert!(s.fs().evicted_count_on(0) > 0, "extents must be evicted");
        s.submit(
            910,
            meta(1, 1),
            FsOp::WriteAt {
                path: "/edge".into(),
                offset: u64::MAX - 1,
                data: vec![9u8; 3],
            },
            60_000_000,
        );
        let mut t = 60_000_000;
        loop {
            let replies = s.poll(t);
            if let Some(r) = replies.iter().find(|r| r.request_id == 910) {
                assert!(matches!(r.reply, FsReply::Error(_)), "{:?}", r.reply);
                break;
            }
            t += 100_000;
            assert!(t < 120_000_000_000, "write never answered");
        }
    }

    #[test]
    fn unlink_during_drain_leaves_no_stale_tier_copy() {
        // Delete-wins across servers: server 1 unlinks a path while server
        // 0's drain of it is anywhere in flight. Whatever interleaving the
        // polls produce, quiescence must leave the shared capacity tier with
        // zero bytes for the path. (The exact snapshot→unlink→write_back
        // window is covered deterministically by the stage crate's
        // `write_back_guarded` test; this exercises the wiring end to end.)
        let fs = BurstBufferFs::new(2);
        let staging = fast_staging();
        let backing: Arc<dyn BackingStore> = Arc::new(CapacityTier::new(staging.backing_device));
        let config = |_| ServerConfig {
            algorithm: Algorithm::Themis(Policy::size_fair()),
            staging: Some(fast_staging()),
            ..ServerConfig::default()
        };
        let mut s0 = ServerCore::with_backing(0, fs.clone(), config(0), Some(backing.clone()));
        let mut s1 = ServerCore::with_backing(1, fs.clone(), config(1), Some(backing.clone()));
        s0.heartbeat(meta(1, 1), 0);
        s1.heartbeat(meta(1, 1), 0);
        write_file(&mut s0, "/doomed", 2 << 20, 0);
        // Kick the drain pipeline so drains are admitted/in flight on s0.
        s0.poll(1_000_000);
        assert!(!s0.drain_status_snapshot().unwrap().is_clean());
        // Peer unlinks mid-drain through its own request path.
        s1.submit(
            70,
            meta(1, 1),
            FsOp::Unlink {
                path: "/doomed".into(),
            },
            1_000_000,
        );
        let replies = s1.poll(1_000_000);
        assert!(
            matches!(replies[0].reply, FsReply::Ok),
            "{:?}",
            replies[0].reply
        );
        // Drive both servers to quiescence.
        let mut t = 1_000_000;
        loop {
            s0.poll(t);
            s1.poll(t);
            let clean = s0.drain_status_snapshot().unwrap().is_clean()
                && s1.drain_status_snapshot().unwrap().is_clean();
            if clean {
                break;
            }
            t += 100_000;
            assert!(t < 60_000_000_000, "drain never quiesced after unlink");
        }
        assert_eq!(
            backing.bytes_for("/doomed"),
            0,
            "stale copy leaked into the shared capacity tier"
        );
        assert!(!fs.exists("/doomed"));
    }

    #[test]
    fn drain_status_without_staging_is_an_error() {
        let mut s = server(Policy::size_fair());
        assert!(s.drain_status_snapshot().is_none());
        s.drain_status(1);
        let replies = s.take_stage_replies();
        assert!(matches!(replies[0].reply, StageReply::Error(_)));
        s.flush(2, meta(1, 1), "/x", 0);
        let replies = s.take_stage_replies();
        assert!(matches!(replies[0].reply, StageReply::Error(_)));
    }

    /// Satellite (regression): status snapshots cut *mid-restore* are
    /// internally consistent — the derived backlog `requested - completed`
    /// never underflows (the subtraction itself would panic in debug if a
    /// snapshot ever showed completed ahead of requested), and the restored
    /// totals never exceed what was requested.
    #[test]
    fn mid_restore_status_snapshots_never_overcount_completed() {
        let mut staging = fast_staging();
        staging.drain.high_watermark_bytes = 1 << 20;
        staging.drain.low_watermark_bytes = 0;
        let mut s = staged_server(staging);
        s.heartbeat(meta(1, 1), 0);
        write_file(&mut s, "/mid", 2 << 20, 0);
        poll_until_clean(&mut s, 1_000_000);
        s.poll(60_000_000);
        assert_eq!(s.drain_status_snapshot().unwrap().resident_bytes, 0);
        // A read of the evicted file parks behind policy-admitted restores.
        s.submit(
            700,
            meta(1, 1),
            FsOp::ReadAt {
                path: "/mid".into(),
                offset: 0,
                len: 2 << 20,
            },
            70_000_000,
        );
        let mut t = 70_000_000;
        let mut saw_backlog = false;
        loop {
            let done = s.poll(t).iter().any(|r| r.request_id == 700);
            // Cut a status snapshot at every step of the restore, including
            // between admission and completion of individual extents.
            let status = s.drain_status_snapshot().unwrap();
            saw_backlog |= status.pending_restore_bytes > 0;
            assert!(
                status.restored_bytes <= (2 << 20) + status.pending_restore_bytes,
                "restored {} beyond requested work (backlog {})",
                status.restored_bytes,
                status.pending_restore_bytes
            );
            if done {
                break;
            }
            t += 100_000;
            assert!(t < 120_000_000_000, "read never completed");
        }
        assert!(saw_backlog, "never observed a mid-restore backlog");
        // The park/wake accounting closed out: every park woke exactly once,
        // and each wake recorded a park duration sample.
        let snap = s.metrics_registry().snapshot(t);
        let parked = snap.counter(0, 0, "foreground", "parked_ops");
        let wakes = snap.counter(0, 0, "foreground", "wakes");
        assert!(parked >= 1);
        assert_eq!(parked, wakes);
        assert_eq!(snap.histogram(0, 0, "foreground", "park_ns").count, wakes);
        assert!(s.drain_status_snapshot().unwrap().restore_idle());
    }

    #[test]
    fn metrics_snapshot_covers_tenants_classes_and_gauges() {
        let mut s = staged_server(fast_staging());
        s.heartbeat(meta(1, 1), 0);
        write_file(&mut s, "/obs", 3 << 20, 0);
        let t = poll_until_clean(&mut s, 1_000_000);
        let status = s.drain_status_snapshot().unwrap();
        s.metrics_snapshot(77, t);
        let replies = s.take_stage_replies();
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].request_id, 77);
        let StageReply::Metrics(snap) = &replies[0].reply else {
            panic!("unexpected reply {:?}", replies[0].reply);
        };
        assert_eq!(snap.taken_ns, t);
        // Per-tenant completion series match the server's own accounting.
        let ops = snap.counter(0, 1, "foreground", "ops_completed");
        assert_eq!(ops, s.completions());
        assert!(snap.counter(0, 1, "foreground", "bytes_completed") >= (3 << 20) as u64);
        assert_eq!(
            snap.histogram(0, 1, "foreground", "queue_delay_ns").count,
            ops
        );
        assert_eq!(snap.histogram(0, 1, "foreground", "service_ns").count, ops);
        assert_eq!(snap.tenants().into_iter().collect::<Vec<_>>(), vec![1]);
        // Class lanes carry the drain's admission and completion history —
        // and they agree with the registry-view DrainStatus.
        assert_eq!(
            snap.counter(0, 0, "drain", "drained_bytes"),
            status.drained_bytes
        );
        assert_eq!(
            snap.counter(0, 0, "drain", "drained_ops"),
            status.drained_ops
        );
        assert!(snap.counter(0, 0, "drain", "admitted_bytes") >= status.drained_bytes);
        // Gauges were refreshed at the cut.
        assert_eq!(
            snap.gauge(0, 0, "fs", "backing_bytes") as u64,
            status.backing_bytes
        );
        assert_eq!(snap.gauge(0, 0, "fs", "dirty_bytes"), 0);
        // The snapshot renders to offline-safe flat JSON.
        let json = snap.to_json();
        assert!(json.contains("\"srv0.t1.foreground.ops_completed\""));
        assert!(json.contains("\"srv0.t0.drain.drained_bytes\""));
    }

    #[test]
    fn trace_dump_merges_engine_and_core_decisions() {
        let mut staging = fast_staging();
        staging.drain.high_watermark_bytes = 1 << 20;
        staging.drain.low_watermark_bytes = 0;
        let mut s = staged_server(staging);
        s.heartbeat(meta(1, 1), 0);
        write_file(&mut s, "/trace", 2 << 20, 0);
        poll_until_clean(&mut s, 1_000_000);
        s.poll(60_000_000);
        // Bump the policy epoch so decisions after the swap are stamped.
        let epoch = s.set_policy(Policy::job_fair()).unwrap();
        assert_eq!(epoch, 1);
        // A read of evicted data: engine admissions/selections plus a core
        // park and wake.
        s.submit(
            800,
            meta(1, 1),
            FsOp::ReadAt {
                path: "/trace".into(),
                offset: 0,
                len: 2 << 20,
            },
            70_000_000,
        );
        let mut t = 70_000_000;
        loop {
            if s.poll(t).iter().any(|r| r.request_id == 800) {
                break;
            }
            t += 100_000;
            assert!(t < 120_000_000_000, "read never completed");
        }
        s.trace_dump(88, 10_000);
        let replies = s.take_stage_replies();
        assert_eq!(replies[0].request_id, 88);
        let StageReply::Trace(dump) = &replies[0].reply else {
            panic!("unexpected reply {:?}", replies[0].reply);
        };
        if themis_telemetry::DecisionTrace::enabled() {
            let kinds: Vec<TraceKind> = dump.events.iter().map(|e| e.kind).collect();
            assert!(kinds.contains(&TraceKind::Park), "no park event");
            assert!(kinds.contains(&TraceKind::Wake), "no wake event");
            assert!(kinds.contains(&TraceKind::Admit), "no engine admission");
            // Merged stream is ordered by decision time, and post-swap
            // decisions carry the new epoch.
            assert!(dump.events.windows(2).all(|w| w[0].now_ns <= w[1].now_ns));
            assert!(dump.events.iter().any(|e| e.epoch == 1));
            assert!(dump.render().contains("park"));
        } else {
            assert!(dump.events.is_empty());
            assert_eq!(dump.dropped, 0);
        }
    }

    /// Satellite (pinning): `trace_dump_snapshot` merges the engine ring
    /// with the core ring but still honours `max` — the newest events win,
    /// the merged stream stays oldest-first, and `dropped` accounts exactly
    /// for everything not returned (each ring's own overwrites plus the
    /// merge-step cut). The identity checked at the end holds regardless of
    /// how the retained events split across the two rings.
    #[test]
    fn trace_dump_truncation_keeps_newest_events_with_exact_drop_accounting() {
        let mut staging = fast_staging();
        staging.drain.high_watermark_bytes = 1 << 20;
        staging.drain.low_watermark_bytes = 0;
        let mut s = staged_server(staging);
        s.heartbeat(meta(1, 1), 0);
        write_file(&mut s, "/cut", 2 << 20, 0);
        poll_until_clean(&mut s, 1_000_000);
        s.poll(60_000_000);
        // A read of evicted data populates both rings: engine admissions
        // and selections, core parks and wakes.
        s.submit(
            810,
            meta(1, 1),
            FsOp::ReadAt {
                path: "/cut".into(),
                offset: 0,
                len: 2 << 20,
            },
            70_000_000,
        );
        let mut t = 70_000_000;
        loop {
            if s.poll(t).iter().any(|r| r.request_id == 810) {
                break;
            }
            t += 100_000;
            assert!(t < 120_000_000_000, "read never completed");
        }
        let full = s.trace_dump_snapshot(10_000);
        if !themis_telemetry::DecisionTrace::enabled() {
            assert!(full.events.is_empty());
            assert_eq!(full.dropped, 0);
            return;
        }
        assert!(full.events.len() > 4, "too few events to exercise the cut");
        let small = s.trace_dump_snapshot(4);
        // Never more than max, even though two rings each returned up to
        // max before the merge.
        assert_eq!(small.events.len(), 4);
        assert!(small.events.windows(2).all(|w| w[0].now_ns <= w[1].now_ns));
        // The survivors are the newest of the merged stream.
        let tail: Vec<u64> = full.events[full.events.len() - 4..]
            .iter()
            .map(|e| e.now_ns)
            .collect();
        let kept: Vec<u64> = small.events.iter().map(|e| e.now_ns).collect();
        assert_eq!(kept, tail);
        // Exact accounting: both dumps cover the same recorded set, so
        // returned + dropped must agree between them.
        assert_eq!(
            small.dropped,
            full.dropped + (full.events.len() as u64 - 4),
            "merge cut not reflected in the dropped count"
        );
    }

    /// End-to-end rebalance: a server whose staging drains into a sharded
    /// capacity tier (built from its `ShardSpec`) reacts to a mid-run map
    /// change by migrating the drained extents through the Rebalance lane —
    /// checksum-verified, policy-arbitrated alongside foreground traffic —
    /// until the tier's own placement audit converges on the new map.
    #[test]
    fn reshard_migrates_drained_extents_until_placement_converges() {
        let mut staging = fast_staging();
        staging.sharding = Some(themis_stage::ShardSpec {
            // Everything lands on child 0 at first; child 1 (a genuinely
            // different device preset) idles until the reshard.
            map: "00-ff=0".into(),
            replication: 1,
            backends: vec![DeviceConfig::default(), DeviceConfig::optane_ssd()],
        });
        let mut s = staged_server(staging);
        s.heartbeat(meta(1, 1), 0);
        write_file(&mut s, "/shard-a", 2 << 20, 0);
        write_file(&mut s, "/shard-b", 1 << 20, 0);
        let mut t = poll_until_clean(&mut s, 1_000_000);
        let status = s.rebalance_status_snapshot().expect("staging enabled");
        assert!(status.sharded);
        assert!(status.is_converged(), "nothing to migrate before a reshard");
        assert_eq!(status.migrated_extents, 0);

        // Reshard: split the range across both children and double the
        // replication — every drained extent now owes at least one new copy.
        {
            let st = s.staging.as_ref().unwrap();
            let sharded = st.backing.as_sharded().unwrap();
            sharded
                .install_map(themis_stage::ShardMap::parse("00-7f=0,80-ff=1").unwrap(), 2)
                .unwrap();
        }
        loop {
            s.poll(t);
            if s.rebalance_status_snapshot().unwrap().is_converged() {
                break;
            }
            t += 100_000;
            assert!(t < 60_000_000_000, "rebalance never converged");
        }
        let status = s.rebalance_status_snapshot().unwrap();
        assert!(status.migrated_extents > 0, "map change moved nothing");
        assert!(status.migrated_bytes > 0);
        assert_eq!(status.failed_extents, 0);
        assert_eq!(status.pending_bytes, 0);
        assert!(status.passes_completed >= 1);
        // The tier's own audit agrees: every extent holds its full replica
        // set under the new map, with the stale copies pruned.
        let st = s.staging.as_ref().unwrap();
        let report = st.backing.as_sharded().unwrap().verify_placement();
        assert!(report.converged(), "placement audit: {report:?}");
        assert!(report.extents > 0);
    }

    #[test]
    fn fifo_server_works_through_same_interface() {
        let fs = BurstBufferFs::new(1);
        let mut s = ServerCore::new(
            0,
            fs,
            ServerConfig {
                algorithm: Algorithm::Fifo,
                ..ServerConfig::default()
            },
        );
        let m = meta(5, 1);
        s.submit(1, m, FsOp::Mkdir { path: "/d".into() }, 0);
        let replies = s.poll(0);
        assert!(matches!(replies[0].reply, FsReply::Ok));
        assert!(s.fs().exists("/d"));
    }

    // ---------------------------------------------------------- durability

    use themis_core::durability::{DurabilityMode, DurabilitySpec};

    pub(crate) fn durable_staging(spec: DurabilitySpec) -> StagingConfig {
        let mut cfg = fast_staging();
        cfg.drain.classes = cfg
            .drain
            .classes
            .enable(themis_stage::TrafficClass::Replicate, 16);
        cfg.durability = Some(spec);
        cfg
    }

    /// The capacity tier's **verified** copy of `(path, stripe)`: what a
    /// burst-tier crash right now would leave of it.
    pub(crate) fn tier_copy(s: &ServerCore, path: &str, stripe: u64) -> Option<Vec<u8>> {
        themis_stage::verified_read_back(s.backing()?.as_ref(), path, stripe)
    }

    /// Polls until the replicate pipeline reports idle, returning the final
    /// status.
    pub(crate) fn poll_until_replicated(s: &mut ServerCore, mut t: u64) -> ReplicateStatus {
        loop {
            s.poll(t);
            let status = s.replicate_status_snapshot().expect("staging enabled");
            if status.is_idle() {
                return status;
            }
            t += 100_000;
            assert!(t < 60_000_000_000, "replication never caught up");
        }
    }

    #[test]
    fn durable_writes_replicate_and_survive_burst_loss() {
        let mut s = staged_server(durable_staging(DurabilitySpec::new(
            DurabilityMode::LocalPlusOne,
        )));
        s.heartbeat(meta(1, 1), 0);
        write_file(&mut s, "/ckpt", 2 << 20, 0);
        // Oracle: replication lag drains to zero at quiescence.
        let status = poll_until_replicated(&mut s, 1_000_000);
        assert!(status.enabled);
        assert_eq!(status.lag_bytes, 0);
        assert!(status.replicated_extents >= 2, "{status:?}");
        assert_eq!(status.failed_replications, 0);
        assert_eq!(status.sync_acks_deferred, 0, "local_plus_one acks early");
        // Crash-before-replicate conditioning: lose the burst tier — every
        // acked byte must be reconstructable from verified capacity-tier
        // copies.
        let stripe_size = s.fs().layout_of("/ckpt").unwrap().config.stripe_size.max(1);
        let total = 2u64 << 20;
        let mut recovered = 0u64;
        for stripe in 0..(2u64 << 20).div_ceil(stripe_size) {
            let copy = tier_copy(&s, "/ckpt", stripe).expect("copy landed");
            assert!(copy.iter().all(|b| *b == 0xAB), "stripe {stripe} corrupt");
            recovered += copy.len() as u64;
        }
        assert_eq!(recovered, total);
    }

    #[test]
    fn local_only_writes_owe_no_replicas() {
        // Job 1 opts out of replication: crash-before-replicate may lose
        // exactly (and only) its bytes.
        let spec = DurabilitySpec::new(DurabilityMode::LocalPlusOne)
            .with_job(1, DurabilityMode::LocalOnly)
            .unwrap();
        let mut s = staged_server(durable_staging(spec));
        s.heartbeat(meta(1, 1), 0);
        write_file(&mut s, "/scratch", 1 << 20, 0);
        poll_until_clean(&mut s, 1_000_000);
        let status = s.replicate_status_snapshot().unwrap();
        assert!(status.enabled, "other scopes still replicate");
        assert_eq!(status.requested_bytes, 0, "{status:?}");
        assert_eq!(status.replicated_bytes, 0, "{status:?}");
        // The ordinary drain still stages the bytes out, once.
        assert_eq!(s.drain_status_snapshot().unwrap().drained_bytes, 1 << 20);
        assert!(tier_copy(&s, "/scratch", 0).is_some());
    }

    #[test]
    fn sync_acks_defer_until_the_replica_lands() {
        let spec = DurabilitySpec::new(DurabilityMode::Sync);
        let mut s = staged_server(durable_staging(spec));
        let m = meta(1, 1);
        s.heartbeat(m, 0);
        s.submit(
            1,
            m,
            FsOp::Open {
                path: "/db".into(),
                create: true,
                truncate: false,
                append: false,
            },
            0,
        );
        let fd = loop {
            if let Some(r) = s.poll(0).iter().find(|r| r.request_id == 1) {
                match r.reply {
                    FsReply::Fd(fd) => break fd,
                    ref other => panic!("unexpected {other:?}"),
                }
            }
        };
        s.submit(
            2,
            m,
            FsOp::Write {
                fd,
                data: vec![0x5A; 1 << 20],
            },
            1_000,
        );
        // Drive the write to execution: its ack must NOT surface while the
        // replica is still in flight.
        let mut t = 1_000;
        let mut acked_at = None;
        while acked_at.is_none() {
            if s.poll(t).iter().any(|r| r.request_id == 2) {
                acked_at = Some(t);
                break;
            }
            let status = s.replicate_status_snapshot().unwrap();
            if status.sync_acks_deferred > status.sync_acks_released {
                // The write executed and its ack is parked on the pipeline.
                assert_eq!(s.completions(), 2, "write completed internally");
            }
            t += 100_000;
            assert!(t < 60_000_000_000, "sync ack never released");
        }
        let status = s.replicate_status_snapshot().unwrap();
        assert_eq!(status.sync_acks_deferred, 1);
        assert_eq!(status.sync_acks_released, 1);
        assert!(status.replicated_extents >= 1);
        // The copy had landed by ack time: the acked bytes survive a
        // burst-tier crash.
        assert_eq!(tier_copy(&s, "/db", 0), Some(vec![0x5A; 1 << 20]));
        // And the ack was genuinely deferred past the write's own
        // completion poll.
        assert!(acked_at.unwrap() > 1_000);
    }

    // ------------------------------------------------ next_deadline_ns

    /// A hello burst is one share computation, and what it computes is what
    /// a reconfigure per hello would have.
    #[test]
    fn a_hello_burst_settles_shares_once_and_identically() {
        let mut lazy = server(Policy::size_fair());
        let mut eager = server(Policy::size_fair());
        for job in 1..=64u64 {
            let m = meta(job, 1 << (job % 4));
            lazy.heartbeat(m, job);
            eager.heartbeat(m, job);
            // Reading the shares is an observer: it pays the owed
            // reconfigure on the spot, as every heartbeat used to.
            eager.shares();
        }
        assert!(lazy.shares_stale);
        assert_eq!(lazy.next_deadline_ns(100), Some(100));
        assert_eq!(lazy.shares(), eager.shares());
        assert!(!lazy.shares_stale);
    }

    enum Input {
        Io(JobMeta, FsOp),
        Flush(JobMeta, &'static str),
        Heartbeat(JobMeta),
        /// Installs a new shard map (and replication factor) on the sharded
        /// capacity tier behind the core.
        Reshard(&'static str, usize),
        /// Demands a scrub pass.
        Scrub,
    }

    /// What the driven core runs behind its burst buffer.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Rig {
        /// No staging: only the λ clock, expiry and the device wake the core.
        Unstaged,
        /// Drain and restore, as `staged_ckpt` runs them.
        Staged,
        /// Every class with work in flight: scrub passes, a sharded tier
        /// resharded to k = 2 mid-script, and `sync` durability.
        AllClasses,
    }

    /// A core driven the way `server_loop` drives it — inputs, then
    /// [`ServerCore::turn`] until nothing moves — at times the test chooses.
    struct Driven {
        core: ServerCore,
        /// The core is alone in its fabric.
        fabric: PeerFabric<PeerMessage>,
        script: Vec<(u64, Input)>,
        next_input: usize,
        now: u64,
        /// Every time `settle` was called at, for replaying onto a twin.
        visited: Vec<u64>,
    }

    const STRIPE: u64 = 64 << 10;

    impl Driven {
        /// Two tenants on short heartbeat and λ clocks, so expiries and
        /// rounds fall inside a few milliseconds; with staging, watermarks
        /// small enough that the read at the end finds its extents evicted.
        fn new(rig: Rig) -> Self {
            let drain = themis_stage::DrainConfig {
                high_watermark_bytes: 3 * STRIPE,
                low_watermark_bytes: STRIPE,
                ..themis_stage::DrainConfig::default()
            };
            let staging = match rig {
                Rig::Unstaged => None,
                Rig::Staged => Some(StagingConfig {
                    drain,
                    ..fast_staging()
                }),
                Rig::AllClasses => Some(StagingConfig {
                    drain: themis_stage::DrainConfig {
                        classes: drain
                            .classes
                            .enable(TrafficClass::Scrub, 16)
                            .enable(TrafficClass::Replicate, 16),
                        // Passes start on demand only. The pass timer is not a
                        // deadline source: a paced pass starts at the first
                        // staging tick after it falls due, which a 1 µs twin
                        // would see as movement before the deadline.
                        scrub_interval_ns: u64::MAX,
                        ..drain
                    },
                    sharding: Some(themis_stage::ShardSpec {
                        map: "00-ff=0".into(),
                        replication: 1,
                        backends: vec![DeviceConfig::default(); 2],
                    }),
                    durability: Some(DurabilitySpec::new(DurabilityMode::Sync)),
                    ..fast_staging()
                }),
            };
            let config = ServerConfig {
                sync: SyncConfig {
                    interval_ns: 700_000,
                },
                heartbeat_timeout_ns: 900_000,
                staging,
                ..ServerConfig::default()
            };
            let (a, b) = (meta(1, 4), meta(2, 1));
            let write = |m: JobMeta, path: &str, stripes: u64| {
                Input::Io(
                    m,
                    FsOp::WriteAt {
                        path: path.into(),
                        offset: 0,
                        data: vec![m.job.0 as u8; (stripes * STRIPE) as usize],
                    },
                )
            };
            let create = |m: JobMeta, path: &str| {
                Input::Io(
                    m,
                    FsOp::CreateStriped {
                        path: path.into(),
                        stripe: themis_fs::StripeConfig::new(STRIPE, 1),
                    },
                )
            };
            let read = |m: JobMeta, path: &str| {
                Input::Io(
                    m,
                    FsOp::ReadAt {
                        path: path.into(),
                        offset: 0,
                        len: 2 * STRIPE,
                    },
                )
            };
            let mut script = vec![
                (0, Input::Heartbeat(a)),
                (0, Input::Heartbeat(b)),
                (1_000, create(a, "/a")),
                (1_000, create(b, "/b")),
                (2_000, write(a, "/a", 4)),
                (2_000, write(b, "/b", 1)),
                (2_000, write(a, "/a", 2)),
                (40_000, Input::Flush(a, "/a")),
                (300_000, write(b, "/b", 4)),
                (600_000, Input::Flush(b, "/b")),
                (1_200_000, read(a, "/a")),
                (1_300_000, Input::Heartbeat(b)),
                (1_500_000, read(b, "/b")),
            ];
            if rig == Rig::AllClasses {
                // After the first drains landed on child 0: every extent now
                // owes a copy on a second child, and a scrub pass before and
                // after has a populated tier to walk.
                script.insert(10, (1_000_000, Input::Scrub));
                script.insert(10, (700_000, Input::Reshard("00-7f=0,80-ff=1", 2)));
                script.insert(9, (450_000, Input::Scrub));
            }
            Driven {
                core: ServerCore::new(0, BurstBufferFs::new(1), config),
                fabric: PeerFabric::new(1),
                script,
                next_input: 0,
                now: 0,
                visited: Vec::new(),
            }
        }

        fn next_input_ns(&self) -> Option<u64> {
            self.script.get(self.next_input).map(|(t, _)| *t)
        }

        /// Everything a poll, an expiry or a λ round can move.
        fn fingerprint(&self) -> String {
            let c = &self.core;
            let stage = c.staging.as_ref().map(|st| {
                (
                    TrafficClass::ALL.map(|class| {
                        let pipeline = st.lifecycle(class);
                        (pipeline.is_busy(), pipeline.next_finish_ns())
                    }),
                    (st.pending_flushes.len(), st.parked_ops.len()),
                    c.drain_status_snapshot(),
                    c.scrub_status_snapshot(),
                    c.rebalance_status_snapshot(),
                    c.replicate_status_snapshot(),
                )
            });
            format!(
                "{:?}",
                (
                    c.completions,
                    c.next_seq,
                    c.engine.queued(),
                    // Not the revision: those are unique per process, and
                    // twins must agree.
                    c.jobs.iter().map(|(_, e)| e.status).collect::<Vec<_>>(),
                    c.lambda.rounds(),
                    stage
                )
            )
        }

        /// One `server_loop` visit at `t`; whether anything happened.
        fn settle(&mut self, t: u64) -> bool {
            self.now = t;
            self.visited.push(t);
            let before = self.fingerprint();
            let mut events = 0;
            while self.next_input_ns().is_some_and(|due| due <= t) {
                let id = self.next_input as u64;
                match &self.script[self.next_input].1 {
                    Input::Io(m, op) => self.core.submit(id, *m, op.clone(), t),
                    Input::Flush(m, path) => self.core.flush(id, *m, path, t),
                    Input::Heartbeat(m) => self.core.heartbeat(*m, t),
                    Input::Reshard(map, replication) => {
                        let st = self.core.staging.as_ref().expect("staged rig");
                        let tier = st.backing.as_sharded().expect("sharded rig");
                        let map = themis_stage::ShardMap::parse(map).unwrap();
                        tier.install_map(map, *replication).unwrap();
                    }
                    Input::Scrub => self.core.scrub(id),
                }
                self.next_input += 1;
                events += 1;
            }
            loop {
                let moved = self.fingerprint();
                let (ready, stage) = self.core.turn(t, &self.fabric);
                events += ready.len() + stage.len();
                if self.fingerprint() == moved {
                    break;
                }
            }
            events > 0 || self.fingerprint() != before
        }
    }

    /// From every state a deadline-driven run passes through, a twin stepped
    /// in 1 µs ticks must see nothing happen before the advertised deadline:
    /// sleeping until `next_deadline_ns` delays nothing. The deadline-driven
    /// run must also get through the scenario in a small number of visits —
    /// a deadline of "now" every time would pass the first check.
    ///
    /// The 100 µs staging tick would hide a class whose finish times the
    /// deadline forgot (the twin finds the landing at the tick instead), so
    /// the deadline is also held to every in-flight finish directly, on a
    /// rig where all five classes have one.
    #[test]
    fn nothing_happens_before_the_advertised_deadline() {
        const HORIZON: u64 = 4_000_000;
        for rig in [Rig::Unstaged, Rig::Staged, Rig::AllClasses] {
            let mut run = Driven::new(rig);
            run.settle(0);
            let mut stuck = 0;
            let mut in_flight = [false; TrafficClass::COUNT];
            let mut woke_for_a_finish = 0;
            while run.now < HORIZON {
                let deadline = run
                    .core
                    .next_deadline_ns(run.now)
                    .expect("the λ clock always has a next round");
                if deadline <= run.now {
                    // Work left over for the next turn (an expiry owes a
                    // reconfigure): one more visit at the same instant.
                    stuck += 1;
                    assert!(stuck < 3, "no progress at {} ({rig:?})", run.now);
                    run.settle(run.now);
                    continue;
                }
                stuck = 0;
                if let Some(st) = run.core.staging.as_ref() {
                    for class in TrafficClass::ALL {
                        let Some(finish) = st.lifecycle(class).next_finish_ns() else {
                            continue;
                        };
                        in_flight[class as usize] = true;
                        assert!(
                            deadline <= finish,
                            "deadline {deadline} advertised at {} sleeps past the {class} \
                             landing due at {finish} ({rig:?})",
                            run.now
                        );
                        woke_for_a_finish += u64::from(deadline == finish);
                    }
                }
                let wake = deadline.min(run.next_input_ns().unwrap_or(u64::MAX));

                let mut twin = Driven::new(rig);
                for &t in &run.visited {
                    twin.settle(t);
                }
                assert_eq!(twin.fingerprint(), run.fingerprint());
                let mut t = run.now + 1_000;
                while t < wake.min(HORIZON) {
                    assert!(
                        !twin.settle(t),
                        "state moved at {t}, before the deadline {deadline} \
                         advertised at {} ({rig:?})",
                        run.now
                    );
                    t += 1_000;
                }
                run.settle(wake);
            }
            assert_eq!(run.next_input, run.script.len());
            assert_eq!(
                run.core.completions(),
                8,
                "every scripted request was served"
            );
            let visits = run.visited.len() as u64;
            let bound = match rig {
                Rig::Unstaged => 40,
                // The staging tick alone is one visit per STAGE_TICK_NS.
                Rig::Staged => HORIZON / STAGE_TICK_NS + 60,
                Rig::AllClasses => {
                    assert_eq!(in_flight, [true; TrafficClass::COUNT], "{in_flight:?}");
                    assert!(woke_for_a_finish > 0, "no finish was ever the deadline");
                    HORIZON / STAGE_TICK_NS + 200
                }
            };
            assert!(
                visits <= bound,
                "{visits} visits for {HORIZON} ns ({rig:?})"
            );
        }
    }
}
