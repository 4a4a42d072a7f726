//! The steppable server core: job monitor, communicator, controller and
//! worker logic of one ThemisIO server (§4.1), independent of any thread or
//! transport so it can be driven by the threaded runtime, by tests, or by a
//! virtual clock.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use themis_baselines::Algorithm;
use themis_core::durability::DurabilitySpec;
use themis_core::engine::PolicyEngine;
use themis_core::entity::JobMeta;
use themis_core::job_table::JobTable;
use themis_core::policy::{Policy, PolicyError};
use themis_core::request::{Completion, IoRequest, OpKind};
use themis_core::shares::ShareMap;
use themis_core::sync::{LambdaClock, SyncConfig};
use themis_device::{DeviceConfig, DeviceModel, DeviceTimeline};
use themis_fs::{BurstBufferFs, FsError, OpenFlags, Whence};
use themis_net::message::{FsOp, FsReply, StageReply};
use themis_stage::shard::MigrationPlan;
use themis_stage::{
    extent_checksum, write_back_guarded, AdmitContext, BackingStore, CapacityTier, ClassLifecycle,
    DrainPipeline, DrainStatus, MigrationOutcome, RebalancePipeline, RebalanceStatus,
    ReplicaTarget, ReplicatePipeline, ReplicateStatus, RestorePipeline, RestoreTarget,
    ScrubPipeline, ScrubStatus, ScrubTarget, StagedEngine, StagingConfig, TrafficClass,
};
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
    /// the configured foreground:drain weight, and a [`CapacityTier`] built
    /// from the staging config's backing device absorbs drained extents.
    pub fn new(server_index: usize, fs: BurstBufferFs, config: ServerConfig) -> Self {
        Self::with_backing(server_index, fs, config, None)
    }

    /// Like [`ServerCore::new`], but draining into a caller-supplied backing
    /// store. A multi-server deployment passes one shared [`CapacityTier`]
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
    /// ([`ClassLifecycle::next_finish_ns`]) and [`STAGE_TICK_NS`] from now.
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
            if self.park_if_needs_restore(request_id, &request, &op, now_ns) {
                // The op waits for its restores; the worker stays free for
                // other traffic (including the restores themselves).
                continue;
            }
            if self.park_if_overlaps_parked(request_id, &request, &op, now_ns) {
                // Every extent the op targets is resident, but an *earlier*
                // parked op overlaps them: executing now would let this
                // op's bytes be clobbered when the earlier op's restores
                // land and it executes last. Park behind it instead
                // (admission order), with no restores of its own.
                continue;
            }
            self.run_foreground(request_id, request, &op, now_ns, &mut ready);
        }
        ready
    }

    /// Executes a foreground operation whose extents are resident — fresh
    /// from the scheduler or woken from parking: charges the device,
    /// performs the file system work, completes the request with the engine
    /// and delivers (or, for a `sync` write, parks) the reply.
    pub(crate) fn run_foreground(
        &mut self,
        request_id: u64,
        request: IoRequest,
        op: &FsOp,
        now_ns: u64,
        ready: &mut Vec<ReadyReply>,
    ) {
        // The stripes a write dirties are computed *before* execution:
        // cursor writes move their descriptor's cursor when they run.
        let spans = self.write_spans(op);
        let (start_ns, finish_ns) = self.device.dispatch(&request, now_ns);
        let reply = self.execute(op, finish_ns);
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
        self.note_durable_write(spans, reply, ready, now_ns);
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
    pub(crate) fn execute(&mut self, op: &FsOp, now_ns: u64) -> FsReply {
        match self.try_execute(op, now_ns) {
            Ok(reply) => reply,
            Err(FsError::NotResident(path)) if self.staging.is_some() => {
                let targets = self.write_target_stripes(op);
                let shards = 0..self.fs.server_count();
                self.restore_extents(shards, &path, now_ns, targets.as_ref());
                match self.try_execute(op, now_ns) {
                    Ok(reply) => reply,
                    Err(e) => FsReply::Error(e.to_string()),
                }
            }
            Err(e) => FsReply::Error(e.to_string()),
        }
    }

    fn try_execute(&mut self, op: &FsOp, now_ns: u64) -> Result<FsReply, FsError> {
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
            FsOp::Write { fd, data } => self.fs.write(*fd, data, now_ns).map(FsReply::Count),
            FsOp::WriteAt { path, offset, data } => self
                .fs
                .write_at(path, *offset, data, now_ns)
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

// ------------------------------------------------------------- staging

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
        let kept = write_back_guarded(self.backing.as_ref(), &path, stripe, &data, || {
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
        Some(data.len() as u64)
    }

    /// Lands a restore: copies the tier's extent back into the shard and
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
            themis_stage::verified_read_back(self.backing.as_ref(), &target.path, target.stripe);
        let actual = data.as_ref().map_or(0, |d| d.len() as u64);
        self.restore.record_restored(actual);
        if let Some(data) = data {
            fs.restore_extent_on(
                target.shard,
                &target.path,
                target.stripe,
                &data,
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
            self.backing.write_back(&target.path, target.stripe, &good);
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
                themis_stage::verified_read_back(self.backing.as_ref(), &target.path, target.stripe)
            });
        match data {
            Some(data) => {
                self.replica.write_back(&target.path, target.stripe, &data);
                self.replicate.record_replicated(data.len() as u64);
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
                // restore source (see the stage crate's verified_read_back).
                let Some(data) = themis_stage::verified_read_back(st.backing.as_ref(), &p, stripe)
                else {
                    continue;
                };
                // Charge the capacity tier the read and the burst buffer the
                // write-back.
                let meta = st.drain.meta();
                let read = IoRequest::new(0, meta, OpKind::Read, data.len() as u64, now_ns);
                let (_, read_finish) = st.backing_device.dispatch(&read, now_ns);
                let write = IoRequest::new(0, meta, OpKind::Write, data.len() as u64, read_finish);
                self.device.dispatch(&write, read_finish);
                self.fs
                    .restore_extent_on(shard, &p, stripe, &data, pin_dirty);
                restored += data.len() as u64;
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
            let data = themis_stage::verified_read_back(backing.as_ref(), p, stripe);
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
pub(crate) mod tests {
    use super::*;
    use themis_core::entity::JobId;

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

    fn durable_staging(spec: DurabilitySpec) -> StagingConfig {
        let mut cfg = fast_staging();
        cfg.drain.classes = cfg
            .drain
            .classes
            .enable(themis_stage::TrafficClass::Replicate, 16);
        cfg.durability = Some(spec);
        cfg
    }

    /// Polls until the replicate pipeline reports idle, returning the final
    /// status.
    fn poll_until_replicated(s: &mut ServerCore, mut t: u64) -> ReplicateStatus {
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
        // acked byte must be reconstructable from verified replica copies.
        let stripe_size = s.fs().layout_of("/ckpt").unwrap().config.stripe_size.max(1);
        let total = 2u64 << 20;
        let mut recovered = 0u64;
        for stripe in 0..(2u64 << 20).div_ceil(stripe_size) {
            let copy = s.replica_extent("/ckpt", stripe).expect("replica landed");
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
        assert!(s.replica_extent("/scratch", 0).is_none());
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
        // The replica had landed by ack time: the acked bytes survive a
        // burst-tier crash.
        assert!(s.replica_extent("/db", 0).is_some());
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

    /// A core driven the way `server_loop` drives it — inputs, `poll` until
    /// nothing moves, λ round, expiry — at times the test chooses.
    struct Driven {
        core: ServerCore,
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
                events += self.core.poll(t).len() + self.core.take_stage_replies().len();
                if self.fingerprint() == moved {
                    break;
                }
            }
            if self.core.sync_due(t) {
                self.core.absorb_peer_tables(std::iter::empty(), t);
            }
            self.core.expire_jobs(t);
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
