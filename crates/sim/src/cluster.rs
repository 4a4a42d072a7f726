//! The discrete-event burst-buffer simulator: the paper's experiments
//! replayed on a virtual clock against the *production* arbitration code
//! (schedulers from `themis-core`/`themis-baselines`, device model from
//! `themis-device`, λ-sync from `themis-core::sync`).
//!
//! Ranks issue I/O in a closed loop (at most `queue_depth` operations in
//! flight each), servers arbitrate queued requests with the configured
//! algorithm and serve them on a modelled device, and servers exchange job
//! tables every λ to converge on global fairness. Everything is driven by a
//! deterministic event loop, so a 60-second, 128-server experiment runs in
//! milliseconds and reproduces bit-identically for a fixed seed.

use crate::metrics::{Metrics, ServiceRecord};
use crate::workload::SimJob;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use themis_baselines::Algorithm;
use themis_core::engine::PolicyEngine;
use themis_core::entity::JobId;
use themis_core::job_table::JobTable;
use themis_core::policy::Policy;
use themis_core::request::{IoRequest, OpKind};
use themis_core::sync::SyncConfig;
use themis_device::{DeviceConfig, DeviceModel, DeviceTimeline};
use themis_stage::{ClassWeights, StagedEngine, TrafficClass};

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of burst-buffer servers.
    pub n_servers: usize,
    /// Device model of each server.
    pub device: DeviceConfig,
    /// Arbitration algorithm run by every server.
    pub algorithm: Algorithm,
    /// λ-sync configuration (job-table all-gather interval).
    pub lambda: SyncConfig,
    /// Seed for the statistical-token draws.
    pub seed: u64,
    /// Safety cap on simulated time.
    pub max_sim_ns: u64,
    /// Live policy swaps applied mid-run: at each [`PolicyChange::at_ns`]
    /// every server reconfigures its engine to the new policy — the
    /// simulated counterpart of the control plane's `SetPolicy`. Engines
    /// that do not derive arbitration from a policy (FIFO, GIFT, TBF)
    /// ignore scheduled swaps, mirroring the live control plane's
    /// rejection.
    pub policy_schedule: Vec<PolicyChange>,
    /// Staging configuration: when set, every foreground write leaves dirty
    /// bytes behind in the server's burst buffer, and a background drain
    /// pipeline writes them to a capacity tier. Drain traffic is synthesized
    /// as [`IoRequest`]s under the reserved drain job and scheduled through
    /// the same engine as foreground traffic at the configured
    /// foreground:drain weight (the simulated counterpart of the server's
    /// staging subsystem).
    pub staging: Option<SimStagingConfig>,
}

/// Staging parameters of a simulated drain/restore scenario.
#[derive(Debug, Clone, Copy)]
pub struct SimStagingConfig {
    /// Device model of the capacity tier absorbing drained bytes (and
    /// serving restored ones).
    pub backing_device: DeviceConfig,
    /// Foreground : drain weight (see
    /// [`DrainConfig`](themis_stage::DrainConfig)).
    pub drain_weight: u32,
    /// Foreground : restore weight for synthesized stage-in traffic.
    pub restore_weight: u32,
    /// Fraction of foreground *read* operations that miss the burst buffer
    /// and must wait for a policy-admitted restore of equal size from the
    /// capacity tier before they can be served (the simulator's byte-level
    /// model of reading evicted data — it does not track per-extent
    /// residency, so misses are drawn i.i.d. per read). `0.0` (the default)
    /// disables restore pressure.
    pub restore_miss_rate: f64,
    /// Foreground : scrub weight for synthesized capacity-tier integrity
    /// verification traffic.
    pub scrub_weight: u32,
    /// Whether the background checksum scrubber runs: every drained byte is
    /// re-read from the capacity tier exactly once (the simulator's
    /// byte-level model of one scrub pass — it does not track per-extent
    /// checksums), as policy-arbitrated [`TrafficClass::Scrub`] requests.
    /// The run quiesces only once the scrub backlog has caught up with the
    /// drained bytes.
    pub scrub_enabled: bool,
    /// Fraction of scrubbed chunks that report a checksum mismatch
    /// (injected, i.i.d. per chunk), counted in
    /// [`SimResult::scrub_errors`]. `0.0` (the default) models a sound
    /// tier.
    pub scrub_error_rate: f64,
    /// Unverified capacity-tier bytes already present at boot (per
    /// server) — the *deep tier* a real scrubber walks: extents drained by
    /// previous runs, not just this run's traffic. The pass must verify
    /// these too, so a non-zero backlog keeps the scrub lane continuously
    /// backlogged while the foreground runs — the regime where the
    /// foreground:scrub weight actually binds (with `0`, the default, the
    /// lane is trickle-fed by this run's drains and mostly rides the
    /// idle-expansion path).
    pub scrub_backlog_bytes: u64,
    /// Foreground : rebalance weight for synthesized shard-migration
    /// traffic after a reshard.
    pub rebalance_weight: u32,
    /// Whether the capacity tier is resharded mid-run: at
    /// [`SimStagingConfig::reshard_at_ns`] the shard map changes and
    /// [`SimStagingConfig::rebalance_backlog_bytes`] of misplaced extents
    /// (per server) must migrate, as policy-arbitrated
    /// [`TrafficClass::Rebalance`] requests — the simulator's byte-level
    /// model of a migration pass (it does not track placement). The run
    /// quiesces only once the migration backlog has fully moved.
    pub rebalance_enabled: bool,
    /// Bytes of migration work (per server) the reshard creates — the
    /// extents whose owner changed under the new map.
    pub rebalance_backlog_bytes: u64,
    /// Virtual time of the shard-map change; migration traffic is
    /// synthesized from this instant on.
    pub reshard_at_ns: u64,
    /// Foreground : replicate weight for synthesized durability-copy
    /// traffic.
    pub replicate_weight: u32,
    /// Whether async replication runs: a
    /// [`SimStagingConfig::replicate_fraction`] share of every foreground
    /// write byte owes one policy-arbitrated copy onto the replica tier (the
    /// simulator's byte-level model of the durability classes — it does not
    /// track per-extent placement), as [`TrafficClass::Replicate`] requests.
    /// The run quiesces only once the replication lag has drained to zero.
    pub replicate_enabled: bool,
    /// Fraction of foreground write bytes under a replicated durability mode
    /// (`local_plus_one` / `sync`); the rest are `local_only` and owe no
    /// copy. Applied byte-level and deterministically — no RNG draw is
    /// consumed, so enabling replication never perturbs the foreground token
    /// draws of a pre-existing seed.
    pub replicate_fraction: f64,
    /// Replication debt already owed at boot (per server) — dirty extents
    /// from previous runs whose copies never landed. A non-zero backlog
    /// keeps the replicate lane continuously backlogged while the
    /// foreground runs — the regime where the foreground:replicate weight
    /// actually binds.
    pub replicate_backlog_bytes: u64,
    /// Bytes per synthesized drain request.
    pub drain_chunk_bytes: u64,
    /// Maximum drain requests in flight per server.
    pub max_inflight: usize,
}

impl SimStagingConfig {
    /// The [`ClassWeights`] this staging configuration hands the
    /// [`StagedEngine`]: every class lane gets its configured weight. The
    /// engine builds a lane per registered class regardless of enablement —
    /// whether scrub/rebalance/replicate traffic actually exists is modelled
    /// by the simulator's own `*_enabled` switches, exactly as the live
    /// server gates pipeline construction.
    pub fn class_weights(&self) -> ClassWeights {
        ClassWeights::default()
            .with_weight(TrafficClass::Drain, self.drain_weight)
            .with_weight(TrafficClass::Restore, self.restore_weight)
            .with_weight(TrafficClass::Scrub, self.scrub_weight)
            .with_weight(TrafficClass::Rebalance, self.rebalance_weight)
            .with_weight(TrafficClass::Replicate, self.replicate_weight)
    }
}

impl Default for SimStagingConfig {
    fn default() -> Self {
        SimStagingConfig {
            backing_device: DeviceConfig::capacity_hdd(),
            drain_weight: 8,
            restore_weight: 8,
            restore_miss_rate: 0.0,
            scrub_weight: 16,
            scrub_enabled: false,
            scrub_error_rate: 0.0,
            scrub_backlog_bytes: 0,
            rebalance_weight: 16,
            rebalance_enabled: false,
            rebalance_backlog_bytes: 0,
            reshard_at_ns: 0,
            replicate_weight: 16,
            replicate_enabled: false,
            replicate_fraction: 1.0,
            replicate_backlog_bytes: 0,
            drain_chunk_bytes: 8 << 20,
            max_inflight: 4,
        }
    }
}

/// One scheduled live policy swap inside a simulation.
#[derive(Debug, Clone)]
pub struct PolicyChange {
    /// Virtual time at which the new policy takes effect.
    pub at_ns: u64,
    /// The policy to switch every server to.
    pub policy: Policy,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            n_servers: 1,
            device: DeviceConfig::optane_ssd(),
            algorithm: Algorithm::Themis(Policy::size_fair()),
            lambda: SyncConfig::default(),
            seed: 0xbeef,
            max_sim_ns: 3_600 * 1_000_000_000, // one simulated hour
            policy_schedule: Vec::new(),
            staging: None,
        }
    }
}

impl SimConfig {
    /// Convenience constructor: `n` servers running `algorithm`.
    pub fn new(n_servers: usize, algorithm: Algorithm) -> Self {
        SimConfig {
            n_servers: n_servers.max(1),
            algorithm,
            ..SimConfig::default()
        }
    }
}

/// The outcome of a simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// All service records (per-request completion data). Drain traffic is
    /// reported separately (below), not in the foreground metrics.
    pub metrics: Metrics,
    /// Completion time of the last operation of each job — the job's
    /// time-to-solution for fixed-work jobs.
    pub job_finish_ns: BTreeMap<JobId, u64>,
    /// Virtual time at which the simulation stopped.
    pub sim_end_ns: u64,
    /// Total bytes drained to the capacity tier (0 without staging).
    pub drained_bytes: u64,
    /// Total bytes restored from the capacity tier for read misses (0
    /// without staging or with [`SimStagingConfig::restore_miss_rate`] 0).
    pub restored_bytes: u64,
    /// Total bytes verified by the background scrubber (0 without staging
    /// or with [`SimStagingConfig::scrub_enabled`] false). With scrub
    /// enabled, every drained byte — plus any pre-existing
    /// [`SimStagingConfig::scrub_backlog_bytes`] — is verified exactly once
    /// before the run quiesces, so this equals `drained_bytes +
    /// scrub_backlog_bytes·n_servers` at the end of a sound run.
    pub scrubbed_bytes: u64,
    /// Checksum mismatches the scrubber reported (injected at
    /// [`SimStagingConfig::scrub_error_rate`]; 0 for a sound tier).
    pub scrub_errors: u64,
    /// Total bytes migrated by the rebalance class after the reshard (0
    /// without staging or with [`SimStagingConfig::rebalance_enabled`]
    /// false). Equals `rebalance_backlog_bytes·n_servers` at the end of a
    /// completed run.
    pub migrated_bytes: u64,
    /// Dirty bytes never drained by the end of the run (0 when the buffer
    /// fully drained; always 0 without staging).
    pub residual_dirty_bytes: u64,
    /// Total bytes copied onto the replica tier by the replicate class (0
    /// without staging or with [`SimStagingConfig::replicate_enabled`]
    /// false). Equals `replicate_backlog_bytes·n_servers` plus the
    /// replicated share of foreground write bytes at the end of a completed
    /// run.
    pub replicated_bytes: u64,
    /// Replication debt never copied by the end of the run — the residual
    /// replication lag (0 when every owed copy landed; always 0 without
    /// staging).
    pub residual_replication_lag: u64,
    /// The policy epochs the run went through: `(start_ns, policy)` for the
    /// boot policy (at 0) and every applied [`PolicyChange`], in order. Each
    /// entry's policy is in force until the next entry's `start_ns` (the last
    /// until [`SimResult::sim_end_ns`]) — the oracle-facing counterpart of
    /// the live server's policy epoch counter.
    pub policy_epochs: Vec<(u64, Policy)>,
}

impl SimResult {
    /// Time-to-solution of one job in seconds (0 when the job served
    /// nothing).
    pub fn time_to_solution_secs(&self, job: JobId) -> f64 {
        self.job_finish_ns.get(&job).copied().unwrap_or(0) as f64 / 1e9
    }

    /// Per-tenant request-latency summary (p50/p99/mean/max) — the latency
    /// companion to the per-tenant byte totals in [`SimResult::metrics`].
    pub fn tenant_latency(&self, job: JobId) -> crate::metrics::LatencyStats {
        self.metrics.latency_stats(job)
    }

    /// Latency summaries for every tenant that served at least one request,
    /// in job-id order.
    pub fn tenant_latencies(&self) -> BTreeMap<JobId, crate::metrics::LatencyStats> {
        self.metrics
            .jobs()
            .into_iter()
            .map(|j| (j, self.metrics.latency_stats(j)))
            .collect()
    }
}

struct SimServer {
    engine: Box<dyn PolicyEngine>,
    table: JobTable,
    device: DeviceTimeline,
    policy: Policy,
    staging: Option<SimServerStaging>,
}

/// Per-server staging state of a drain scenario: the byte-level model of the
/// server's dirty backlog and its capacity-tier device.
struct SimServerStaging {
    config: SimStagingConfig,
    backing: DeviceTimeline,
    /// Bytes written into the burst buffer and not yet drained.
    dirty_bytes: u64,
    /// Subset of `dirty_bytes` already admitted as drain requests.
    queued_bytes: u64,
    /// Drain requests admitted and not yet fully drained.
    inflight: usize,
    /// Total bytes drained to the capacity tier.
    drained_bytes: u64,
    /// Restore requests admitted and not yet landed.
    restore_inflight: usize,
    /// Total bytes restored from the capacity tier.
    restored_bytes: u64,
    /// Scrub bytes admitted so far (the pass cursor over the verification
    /// target: boot backlog plus drained bytes).
    scrub_cursor_bytes: u64,
    /// Scrub requests admitted and not yet verified.
    scrub_inflight: usize,
    /// Total bytes verified by the scrubber.
    scrubbed_bytes: u64,
    /// Injected checksum mismatches reported so far.
    scrub_errors: u64,
    /// Migration bytes admitted so far (the pass cursor over the reshard's
    /// backlog).
    rebalance_cursor_bytes: u64,
    /// Migration requests admitted and not yet landed.
    rebalance_inflight: usize,
    /// Total bytes migrated.
    migrated_bytes: u64,
    /// The replica tier absorbing durability copies — deliberately its own
    /// device timeline, not the capacity tier: replicas live on independent
    /// media, exactly as in the live core.
    replica: DeviceTimeline,
    /// Replication debt accrued by this run's durable foreground writes.
    replicate_accrued_bytes: u64,
    /// Copy bytes admitted so far (the cursor over the replication target:
    /// boot debt plus accrued debt).
    replicate_cursor_bytes: u64,
    /// Copy requests admitted and not yet landed on the replica tier.
    replicate_inflight: usize,
    /// Total bytes landed on the replica tier.
    replicated_bytes: u64,
}

impl SimServer {
    fn new(config: &SimConfig) -> Self {
        let engine: Box<dyn PolicyEngine> = match &config.staging {
            Some(sc) => Box::new(StagedEngine::with_weights(
                config.algorithm.build(),
                sc.class_weights(),
            )),
            None => config.algorithm.build(),
        };
        SimServer {
            engine,
            table: JobTable::new(),
            device: DeviceTimeline::new(DeviceModel::new(config.device)),
            policy: config.algorithm.initial_policy(),
            staging: config.staging.map(|sc| SimServerStaging {
                config: sc,
                backing: DeviceTimeline::new(DeviceModel::new(sc.backing_device)),
                dirty_bytes: 0,
                queued_bytes: 0,
                inflight: 0,
                drained_bytes: 0,
                restore_inflight: 0,
                restored_bytes: 0,
                scrub_cursor_bytes: 0,
                scrub_inflight: 0,
                scrubbed_bytes: 0,
                scrub_errors: 0,
                rebalance_cursor_bytes: 0,
                rebalance_inflight: 0,
                migrated_bytes: 0,
                replica: DeviceTimeline::new(DeviceModel::new(sc.backing_device)),
                replicate_accrued_bytes: 0,
                replicate_cursor_bytes: 0,
                replicate_inflight: 0,
                replicated_bytes: 0,
            }),
        }
    }

    /// Whether the staging pipeline still has work: dirty backlog, drains
    /// or restores in flight, or — with scrub enabled — verification-target
    /// bytes the scrub pass has not verified yet.
    fn staging_busy(&self) -> bool {
        self.staging.as_ref().is_some_and(|st| {
            st.dirty_bytes > 0
                || st.inflight > 0
                || st.restore_inflight > 0
                || (st.config.scrub_enabled
                    && (st.scrubbed_bytes < st.scrub_target() || st.scrub_inflight > 0))
                || (st.config.rebalance_enabled
                    && (st.migrated_bytes < st.config.rebalance_backlog_bytes
                        || st.rebalance_inflight > 0))
                || (st.config.replicate_enabled
                    && (st.replicated_bytes < st.replicate_target() || st.replicate_inflight > 0))
        })
    }
}

impl SimServerStaging {
    /// The scrub pass's verification target: everything the tier holds —
    /// the boot backlog plus whatever this run has drained so far.
    fn scrub_target(&self) -> u64 {
        self.config.scrub_backlog_bytes + self.drained_bytes
    }

    /// The replication target: every byte that owes a copy — the boot debt
    /// plus the replicated share of this run's foreground write bytes.
    fn replicate_target(&self) -> u64 {
        self.config.replicate_backlog_bytes + self.replicate_accrued_bytes
    }
}

struct RankState {
    job_idx: usize,
    rank_id: usize,
    ops_issued: u64,
    inflight: usize,
    next_ready_ns: u64,
}

/// The simulator itself. Build it with jobs, then call [`Simulation::run`].
pub struct Simulation {
    config: SimConfig,
    jobs: Vec<SimJob>,
}

impl Simulation {
    /// Creates a simulation of `jobs` under `config`.
    pub fn new(config: SimConfig, jobs: Vec<SimJob>) -> Self {
        Simulation { config, jobs }
    }

    /// Runs the simulation to completion and returns the collected metrics.
    pub fn run(self) -> SimResult {
        let n_servers = self.config.n_servers.max(1);
        let mut servers: Vec<SimServer> = (0..n_servers)
            .map(|i| {
                let mut s = SimServer::new(&self.config);
                s.table
                    .set_viewpoint(i)
                    .expect("simulated clusters stay within the presence-mask capacity");
                s
            })
            .collect();
        let mut rng = SmallRng::seed_from_u64(self.config.seed);
        let mut metrics = Metrics::new();

        // Per-rank closed-loop state.
        let mut ranks: Vec<RankState> = Vec::new();
        for (job_idx, job) in self.jobs.iter().enumerate() {
            for rank_id in 0..job.ranks {
                ranks.push(RankState {
                    job_idx,
                    rank_id,
                    ops_issued: 0,
                    inflight: 0,
                    next_ready_ns: job.start_ns,
                });
            }
        }

        // Jobs with a bounded amount of work (fixed op count or a time
        // window). The simulation ends once every such job has finished, even
        // if unbounded background jobs could keep issuing I/O forever.
        let finite_job: Vec<bool> = self
            .jobs
            .iter()
            .map(|j| j.max_ops_per_rank.is_some() || j.end_ns.is_some())
            .collect();
        let any_finite = finite_job.iter().any(|f| *f);

        // Completion events: (finish_ns, rank index).
        let mut completions: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
        // Drain completion events: (capacity-tier finish_ns, server, bytes).
        let mut drain_events: BinaryHeap<Reverse<(u64, usize, u64)>> = BinaryHeap::new();
        // Restore completion events: (landed_ns, server, restore seq, bytes).
        let mut restore_events: BinaryHeap<Reverse<(u64, usize, u64, u64)>> = BinaryHeap::new();
        // Scrub completion events: (verified_ns, server, bytes).
        let mut scrub_events: BinaryHeap<Reverse<(u64, usize, u64)>> = BinaryHeap::new();
        // Rebalance completion events: (migrated_ns, server, bytes).
        let mut rebalance_events: BinaryHeap<Reverse<(u64, usize, u64)>> = BinaryHeap::new();
        // Replicate completion events: (landed_ns, server, bytes).
        let mut replicate_events: BinaryHeap<Reverse<(u64, usize, u64)>> = BinaryHeap::new();
        // Foreground reads parked behind a restore: restore seq → (server,
        // the read to admit once its bytes are back in the burst buffer).
        let mut waiting_restore: HashMap<u64, (usize, IoRequest)> = HashMap::new();
        // Request sequence → issuing rank.
        let mut seq_to_rank: HashMap<u64, usize> = HashMap::new();
        let mut next_seq: u64 = 0;
        let mut lambda = themis_core::sync::LambdaClock::new(self.config.lambda);
        let mut now: u64 = 0;
        let mut job_finish: BTreeMap<JobId, u64> = BTreeMap::new();

        // Scheduled live policy swaps, applied in virtual-time order.
        let mut policy_schedule = self.config.policy_schedule.clone();
        policy_schedule.sort_by_key(|c| c.at_ns);
        let mut next_change = 0usize;
        let mut policy_epochs: Vec<(u64, Policy)> =
            vec![(0, self.config.algorithm.initial_policy())];

        loop {
            // 0. Apply scheduled policy swaps that are due: every server
            // reconfigures its engine in place (queues untouched), exactly
            // like a control-plane SetPolicy at this virtual instant.
            while next_change < policy_schedule.len() && policy_schedule[next_change].at_ns <= now {
                let change = &policy_schedule[next_change];
                for server in servers.iter_mut() {
                    server.policy = change.policy.clone();
                    let policy = server.policy.clone();
                    server.engine.reconfigure(&server.table, &policy);
                }
                policy_epochs.push((now, change.policy.clone()));
                next_change += 1;
            }

            // 1. Apply completions that have happened by `now`.
            while let Some(Reverse((finish, rank_idx))) = completions.peek().copied() {
                if finish > now {
                    break;
                }
                completions.pop();
                let think = self.jobs[ranks[rank_idx].job_idx].think_ns;
                let r = &mut ranks[rank_idx];
                r.inflight = r.inflight.saturating_sub(1);
                r.next_ready_ns = r.next_ready_ns.max(finish + think);
            }

            // 1a. Apply drain completions (capacity-tier writes) by `now`.
            while let Some(Reverse((finish, server_idx, bytes))) = drain_events.peek().copied() {
                if finish > now {
                    break;
                }
                drain_events.pop();
                if let Some(st) = servers[server_idx].staging.as_mut() {
                    st.dirty_bytes = st.dirty_bytes.saturating_sub(bytes);
                    st.queued_bytes = st.queued_bytes.saturating_sub(bytes);
                    st.inflight = st.inflight.saturating_sub(1);
                    st.drained_bytes += bytes;
                }
            }

            // 1b. Apply restore completions by `now`: the missed bytes are
            // back in the burst buffer, so the read that waited on them is
            // finally admitted to its server's engine (its arrival time —
            // and therefore its recorded latency — still dates from issue,
            // charging the restore queue delay to the read).
            while let Some(Reverse((finish, server_idx, seq, bytes))) =
                restore_events.peek().copied()
            {
                if finish > now {
                    break;
                }
                restore_events.pop();
                if let Some(st) = servers[server_idx].staging.as_mut() {
                    st.restore_inflight = st.restore_inflight.saturating_sub(1);
                    st.restored_bytes += bytes;
                }
                if let Some((server, parked)) = waiting_restore.remove(&seq) {
                    servers[server].engine.admit(parked);
                }
            }

            // 1b'. Apply scrub completions by `now`: the verification of one
            // chunk of drained bytes finished; with a non-zero injected
            // error rate, some chunks report a checksum mismatch. (The rng
            // is only consulted when errors are possible, so enabling a
            // sound scrubber never perturbs the foreground token draws of a
            // pre-existing seed.)
            while let Some(Reverse((finish, server_idx, bytes))) = scrub_events.peek().copied() {
                if finish > now {
                    break;
                }
                scrub_events.pop();
                if let Some(st) = servers[server_idx].staging.as_mut() {
                    st.scrub_inflight = st.scrub_inflight.saturating_sub(1);
                    st.scrubbed_bytes += bytes;
                    if st.config.scrub_error_rate > 0.0
                        && (rng.gen_range(0u64..1_000_000) as f64)
                            < st.config.scrub_error_rate * 1e6
                    {
                        st.scrub_errors += 1;
                    }
                }
            }

            // 1b''. Apply rebalance completions by `now`: one chunk of the
            // reshard's migration backlog landed on its new replica set.
            while let Some(Reverse((finish, server_idx, bytes))) = rebalance_events.peek().copied()
            {
                if finish > now {
                    break;
                }
                rebalance_events.pop();
                if let Some(st) = servers[server_idx].staging.as_mut() {
                    st.rebalance_inflight = st.rebalance_inflight.saturating_sub(1);
                    st.migrated_bytes += bytes;
                }
            }

            // 1b'''. Apply replicate completions by `now`: one chunk of the
            // replication debt landed on the replica tier.
            while let Some(Reverse((finish, server_idx, bytes))) = replicate_events.peek().copied()
            {
                if finish > now {
                    break;
                }
                replicate_events.pop();
                if let Some(st) = servers[server_idx].staging.as_mut() {
                    st.replicate_inflight = st.replicate_inflight.saturating_sub(1);
                    st.replicated_bytes += bytes;
                }
            }

            // 1c. Stop once every bounded job has completed all of its work
            // *and* every staging pipeline has fully drained; unbounded
            // background jobs do not keep the simulation alive.
            if any_finite {
                let all_finite_done = ranks.iter().all(|rank| {
                    let job = &self.jobs[rank.job_idx];
                    if !finite_job[rank.job_idx] {
                        return true;
                    }
                    let exhausted = job
                        .max_ops_per_rank
                        .is_some_and(|max| rank.ops_issued >= max)
                        || job.end_ns.is_some_and(|end| now >= end);
                    exhausted && rank.inflight == 0
                });
                let staging_idle = servers.iter().all(|s| !s.staging_busy());
                if all_finite_done && staging_idle && now > 0 {
                    break;
                }
            }

            // 2. Issue new operations from every rank that is ready.
            for (rank_idx, rank) in ranks.iter_mut().enumerate() {
                let job = &self.jobs[rank.job_idx];
                loop {
                    if rank.next_ready_ns > now || rank.inflight >= job.queue_depth {
                        break;
                    }
                    if let Some(max) = job.max_ops_per_rank {
                        if rank.ops_issued >= max {
                            break;
                        }
                    }
                    if let Some(end) = job.end_ns {
                        if now >= end {
                            break;
                        }
                    }
                    let (kind, bytes) = job.pattern.op(rank.ops_issued);
                    let server_idx = match &job.server_affinity {
                        Some(list) if !list.is_empty() => {
                            list[(rank.rank_id + rank.ops_issued as usize) % list.len()] % n_servers
                        }
                        _ => (rank.rank_id + rank.ops_issued as usize) % n_servers,
                    };
                    let server = &mut servers[server_idx];
                    let newly_seen = server.table.get(job.meta.job).is_none();
                    server.table.observe_request(job.meta, now);
                    if newly_seen {
                        let policy = server.policy.clone();
                        server.engine.reconfigure(&server.table, &policy);
                    }
                    let req = IoRequest::new(next_seq, job.meta, kind, bytes, now);
                    seq_to_rank.insert(next_seq, rank_idx);
                    next_seq += 1;
                    // Restore pressure: a read may miss the burst buffer
                    // (its data was evicted to the capacity tier). The read
                    // then parks behind a policy-admitted restore of equal
                    // size instead of being admitted directly — stage-in
                    // bandwidth is arbitrated, never stolen.
                    let miss = kind == OpKind::Read
                        && server.staging.as_ref().is_some_and(|st| {
                            st.config.restore_miss_rate > 0.0
                                && (rng.gen_range(0u64..1_000_000) as f64)
                                    < st.config.restore_miss_rate * 1e6
                        });
                    if miss {
                        let restore_seq = next_seq;
                        next_seq += 1;
                        let st = server.staging.as_mut().expect("miss implies staging");
                        st.restore_inflight += 1;
                        let restore = IoRequest::new(
                            restore_seq,
                            TrafficClass::Restore.meta(server_idx),
                            OpKind::Write,
                            bytes,
                            now,
                        );
                        waiting_restore.insert(restore_seq, (server_idx, req));
                        server.engine.admit(restore);
                    } else {
                        server.engine.admit(req);
                    }
                    rank.ops_issued += 1;
                    rank.inflight += 1;
                }
            }

            // 2b. Synthesize drain traffic for the dirty backlog: chunks of
            // the backlog become policy-arbitrated requests under the drain
            // job, up to the pipelining depth.
            for (server_idx, server) in servers.iter_mut().enumerate() {
                let Some(st) = server.staging.as_mut() else {
                    continue;
                };
                while st.inflight < st.config.max_inflight && st.dirty_bytes > st.queued_bytes {
                    let chunk = st
                        .config
                        .drain_chunk_bytes
                        .min(st.dirty_bytes - st.queued_bytes)
                        .max(1);
                    let req = IoRequest::new(
                        next_seq,
                        TrafficClass::Drain.meta(server_idx),
                        OpKind::Read,
                        chunk,
                        now,
                    );
                    next_seq += 1;
                    st.queued_bytes += chunk;
                    st.inflight += 1;
                    server.engine.admit(req);
                }
            }

            // 2c. Synthesize scrub traffic: with scrub enabled, the pass
            // cursor chases the verification target (the boot backlog plus
            // the drained bytes) — every tier chunk is re-read from the
            // capacity tier for verification exactly once, as a
            // policy-arbitrated request under the scrub class.
            for (server_idx, server) in servers.iter_mut().enumerate() {
                let Some(st) = server.staging.as_mut() else {
                    continue;
                };
                if !st.config.scrub_enabled {
                    continue;
                }
                while st.scrub_inflight < st.config.max_inflight
                    && st.scrub_cursor_bytes < st.scrub_target()
                {
                    let chunk = st
                        .config
                        .drain_chunk_bytes
                        .min(st.scrub_target() - st.scrub_cursor_bytes)
                        .max(1);
                    let req = IoRequest::new(
                        next_seq,
                        TrafficClass::Scrub.meta(server_idx),
                        OpKind::Read,
                        chunk,
                        now,
                    );
                    next_seq += 1;
                    st.scrub_cursor_bytes += chunk;
                    st.scrub_inflight += 1;
                    server.engine.admit(req);
                }
            }

            // 2d. Synthesize rebalance traffic: once the reshard instant has
            // passed, the migration cursor chases the backlog of misplaced
            // bytes — each chunk a policy-arbitrated *write* under the
            // rebalance class (one verified copy streaming onto its new
            // replica set), mirroring the live pipeline's costing.
            for (server_idx, server) in servers.iter_mut().enumerate() {
                let Some(st) = server.staging.as_mut() else {
                    continue;
                };
                if !st.config.rebalance_enabled || now < st.config.reshard_at_ns {
                    continue;
                }
                while st.rebalance_inflight < st.config.max_inflight
                    && st.rebalance_cursor_bytes < st.config.rebalance_backlog_bytes
                {
                    let chunk = st
                        .config
                        .drain_chunk_bytes
                        .min(st.config.rebalance_backlog_bytes - st.rebalance_cursor_bytes)
                        .max(1);
                    let req = IoRequest::new(
                        next_seq,
                        TrafficClass::Rebalance.meta(server_idx),
                        OpKind::Write,
                        chunk,
                        now,
                    );
                    next_seq += 1;
                    st.rebalance_cursor_bytes += chunk;
                    st.rebalance_inflight += 1;
                    server.engine.admit(req);
                }
            }

            // 2e. Synthesize replicate traffic: the copy cursor chases the
            // replication target (the boot debt plus the replicated share of
            // this run's foreground write bytes) — each chunk a
            // policy-arbitrated burst-buffer *read* under the replicate
            // class whose payload then streams onto the replica tier,
            // mirroring the live pipeline's costing.
            for (server_idx, server) in servers.iter_mut().enumerate() {
                let Some(st) = server.staging.as_mut() else {
                    continue;
                };
                if !st.config.replicate_enabled {
                    continue;
                }
                while st.replicate_inflight < st.config.max_inflight
                    && st.replicate_cursor_bytes < st.replicate_target()
                {
                    let chunk = st
                        .config
                        .drain_chunk_bytes
                        .min(st.replicate_target() - st.replicate_cursor_bytes)
                        .max(1);
                    let req = IoRequest::new(
                        next_seq,
                        TrafficClass::Replicate.meta(server_idx),
                        OpKind::Read,
                        chunk,
                        now,
                    );
                    next_seq += 1;
                    st.replicate_cursor_bytes += chunk;
                    st.replicate_inflight += 1;
                    server.engine.admit(req);
                }
            }

            // 3. Dispatch queued work on every server with an idle worker.
            for (server_idx, server) in servers.iter_mut().enumerate() {
                while server.device.has_idle_worker(now) {
                    let Some(req) = server.engine.select(now, &mut rng) else {
                        break;
                    };
                    let (start, finish) = server.device.dispatch(&req, now);
                    match TrafficClass::of(req.meta.job) {
                        Some(TrafficClass::Drain) => {
                            // The drained chunk leaves the burst buffer at
                            // `finish` and lands in the capacity tier when
                            // the (slower) backing device completes the
                            // write.
                            let st = server
                                .staging
                                .as_mut()
                                .expect("drain traffic only exists with staging");
                            let write =
                                IoRequest::new(req.seq, req.meta, OpKind::Write, req.bytes, finish);
                            let (_, backing_finish) = st.backing.dispatch(&write, finish);
                            drain_events.push(Reverse((backing_finish, server_idx, req.bytes)));
                            continue;
                        }
                        Some(TrafficClass::Restore) => {
                            // The engine granted the burst-buffer write; the
                            // capacity-tier read is charged in parallel, and
                            // the bytes land when both are done.
                            let st = server
                                .staging
                                .as_mut()
                                .expect("restore traffic only exists with staging");
                            let read =
                                IoRequest::new(req.seq, req.meta, OpKind::Read, req.bytes, now);
                            let (_, backing_finish) = st.backing.dispatch(&read, now);
                            restore_events.push(Reverse((
                                finish.max(backing_finish),
                                server_idx,
                                req.seq,
                                req.bytes,
                            )));
                            continue;
                        }
                        Some(TrafficClass::Scrub) => {
                            // The engine granted the verification its service
                            // slot; the capacity-tier read that actually
                            // fetches the bytes is charged in parallel, and
                            // the chunk counts as verified when both finish.
                            let st = server
                                .staging
                                .as_mut()
                                .expect("scrub traffic only exists with staging");
                            let read =
                                IoRequest::new(req.seq, req.meta, OpKind::Read, req.bytes, now);
                            let (_, backing_finish) = st.backing.dispatch(&read, now);
                            scrub_events.push(Reverse((
                                finish.max(backing_finish),
                                server_idx,
                                req.bytes,
                            )));
                            continue;
                        }
                        Some(TrafficClass::Rebalance) => {
                            // The engine granted the migration its service
                            // slot; the capacity tier is charged the verified
                            // source read followed by the replica write, and
                            // the chunk counts as migrated when everything
                            // lands — the same costing as the live core.
                            let st = server
                                .staging
                                .as_mut()
                                .expect("rebalance traffic only exists with staging");
                            let read =
                                IoRequest::new(req.seq, req.meta, OpKind::Read, req.bytes, now);
                            let (_, read_finish) = st.backing.dispatch(&read, now);
                            let write = IoRequest::new(
                                req.seq,
                                req.meta,
                                OpKind::Write,
                                req.bytes,
                                read_finish,
                            );
                            let (_, write_finish) = st.backing.dispatch(&write, read_finish);
                            rebalance_events.push(Reverse((
                                finish.max(write_finish),
                                server_idx,
                                req.bytes,
                            )));
                            continue;
                        }
                        Some(TrafficClass::Replicate) => {
                            // The engine granted the copy its burst-read
                            // slot; the replica write is charged on the
                            // replica tier's own timeline once the read
                            // finishes, and the chunk counts as replicated
                            // when it lands — the same costing as the live
                            // core.
                            let st = server
                                .staging
                                .as_mut()
                                .expect("replicate traffic only exists with staging");
                            let write =
                                IoRequest::new(req.seq, req.meta, OpKind::Write, req.bytes, finish);
                            let (_, replica_finish) = st.replica.dispatch(&write, finish);
                            replicate_events.push(Reverse((replica_finish, server_idx, req.bytes)));
                            continue;
                        }
                        None => {}
                    }
                    let completion = themis_core::request::Completion {
                        request: req,
                        start_ns: start,
                        finish_ns: finish,
                    };
                    server.engine.complete(&completion);
                    if req.kind == OpKind::Write {
                        if let Some(st) = server.staging.as_mut() {
                            st.dirty_bytes += req.bytes;
                            if st.config.replicate_enabled {
                                // The replicated share of this write now owes
                                // a copy. Deterministic byte accounting — no
                                // RNG draw, so durability never perturbs the
                                // foreground token draws of a fixed seed.
                                st.replicate_accrued_bytes +=
                                    (req.bytes as f64 * st.config.replicate_fraction) as u64;
                            }
                        }
                    }
                    metrics.record(ServiceRecord {
                        job: req.meta.job,
                        bytes: req.bytes,
                        finish_ns: finish,
                        queue_delay_ns: start.saturating_sub(req.arrival_ns),
                        latency_ns: finish.saturating_sub(req.arrival_ns),
                    });
                    let e = job_finish.entry(req.meta.job).or_insert(0);
                    *e = (*e).max(finish);
                    if let Some(rank_idx) = seq_to_rank.remove(&req.seq) {
                        completions.push(Reverse((finish, rank_idx)));
                    }
                }
            }

            // 4. λ-sync all-gather when due (only meaningful with >1 server).
            if n_servers > 1 && lambda.due(now) {
                let merged = JobTable::all_gather(servers.iter().map(|s| &s.table));
                for server in servers.iter_mut() {
                    server.table.merge_from(&merged);
                    let policy = server.policy.clone();
                    server.engine.reconfigure(&server.table, &policy);
                }
                lambda.mark(now);
            }

            // 5. Find the next event time.
            let mut next = u64::MAX;
            if let Some(Reverse((finish, _))) = completions.peek() {
                next = next.min(*finish);
            }
            if let Some(Reverse((finish, _, _))) = drain_events.peek() {
                next = next.min(*finish);
            }
            if let Some(Reverse((finish, _, _, _))) = restore_events.peek() {
                next = next.min(*finish);
            }
            if let Some(Reverse((finish, _, _))) = scrub_events.peek() {
                next = next.min(*finish);
            }
            if let Some(Reverse((finish, _, _))) = rebalance_events.peek() {
                next = next.min(*finish);
            }
            if let Some(Reverse((finish, _, _))) = replicate_events.peek() {
                next = next.min(*finish);
            }
            for server in servers.iter() {
                if let Some(st) = server.staging.as_ref() {
                    // New dirty bytes appeared after this iteration's
                    // admission pass: admit them on the next tick. Same for
                    // freshly drained bytes the scrub cursor has not chased
                    // yet.
                    if st.inflight < st.config.max_inflight && st.dirty_bytes > st.queued_bytes {
                        next = next.min(now + 1);
                    }
                    if st.config.scrub_enabled
                        && st.scrub_inflight < st.config.max_inflight
                        && st.scrub_cursor_bytes < st.scrub_target()
                    {
                        next = next.min(now + 1);
                    }
                    if st.config.replicate_enabled
                        && st.replicate_inflight < st.config.max_inflight
                        && st.replicate_cursor_bytes < st.replicate_target()
                    {
                        next = next.min(now + 1);
                    }
                    if st.config.rebalance_enabled
                        && st.rebalance_cursor_bytes < st.config.rebalance_backlog_bytes
                    {
                        // Migration backlog still owed: chase it next tick if
                        // the reshard has fired, otherwise make sure the run
                        // stays alive long enough to reach the reshard
                        // instant at all.
                        if now >= st.config.reshard_at_ns {
                            if st.rebalance_inflight < st.config.max_inflight {
                                next = next.min(now + 1);
                            }
                        } else {
                            next = next.min(st.config.reshard_at_ns.max(now + 1));
                        }
                    }
                }
            }
            for (rank_idx, rank) in ranks.iter().enumerate() {
                let job = &self.jobs[ranks[rank_idx].job_idx];
                let exhausted = job
                    .max_ops_per_rank
                    .is_some_and(|max| rank.ops_issued >= max)
                    || job.end_ns.is_some_and(|end| now >= end);
                if !exhausted && rank.inflight < job.queue_depth && rank.next_ready_ns > now {
                    next = next.min(rank.next_ready_ns);
                }
            }
            for server in servers.iter() {
                if server.engine.queued() > 0 {
                    if server.device.has_idle_worker(now) {
                        // Scheduler declined to release work (throttling):
                        // wake up when it says something becomes eligible, or
                        // at the next λ round as a fallback.
                        let eligible = server
                            .engine
                            .next_eligible_ns(now)
                            .unwrap_or(now + 1_000_000);
                        next = next.min(eligible.max(now + 1));
                    } else {
                        next = next.min(server.device.next_free_ns());
                    }
                }
            }
            if n_servers > 1
                && (completions.peek().is_some() || servers.iter().any(|s| s.engine.queued() > 0))
            {
                next = next.min(lambda.next_round_ns());
            }

            // A pending policy swap caps the jump so it lands at the right
            // virtual instant (it never keeps an otherwise-finished
            // simulation alive).
            if next != u64::MAX && next_change < policy_schedule.len() {
                next = next.min(policy_schedule[next_change].at_ns.max(now + 1));
            }

            if next == u64::MAX {
                break;
            }
            now = next.max(now + 1);
            if now > self.config.max_sim_ns {
                break;
            }
        }

        let drained_bytes = servers
            .iter()
            .filter_map(|s| s.staging.as_ref())
            .map(|st| st.drained_bytes)
            .sum();
        let restored_bytes = servers
            .iter()
            .filter_map(|s| s.staging.as_ref())
            .map(|st| st.restored_bytes)
            .sum();
        let scrubbed_bytes = servers
            .iter()
            .filter_map(|s| s.staging.as_ref())
            .map(|st| st.scrubbed_bytes)
            .sum();
        let scrub_errors = servers
            .iter()
            .filter_map(|s| s.staging.as_ref())
            .map(|st| st.scrub_errors)
            .sum();
        let residual_dirty_bytes = servers
            .iter()
            .filter_map(|s| s.staging.as_ref())
            .map(|st| st.dirty_bytes)
            .sum();
        let migrated_bytes = servers
            .iter()
            .filter_map(|s| s.staging.as_ref())
            .map(|st| st.migrated_bytes)
            .sum();
        let replicated_bytes = servers
            .iter()
            .filter_map(|s| s.staging.as_ref())
            .map(|st| st.replicated_bytes)
            .sum();
        let residual_replication_lag = servers
            .iter()
            .filter_map(|s| s.staging.as_ref())
            .filter(|st| st.config.replicate_enabled)
            .map(|st| st.replicate_target().saturating_sub(st.replicated_bytes))
            .sum();
        SimResult {
            metrics,
            job_finish_ns: job_finish,
            sim_end_ns: now,
            drained_bytes,
            restored_bytes,
            scrubbed_bytes,
            scrub_errors,
            residual_dirty_bytes,
            migrated_bytes,
            replicated_bytes,
            residual_replication_lag,
            policy_epochs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::NS_PER_SEC;
    use crate::workload::{OpPattern, SimJob};
    use themis_core::entity::JobMeta;

    fn fast_device() -> DeviceConfig {
        DeviceConfig {
            write_bw_bytes_per_sec: 10.0e9,
            read_bw_bytes_per_sec: 10.0e9,
            per_op_overhead_ns: 1_000,
            metadata_op_ns: 3_000,
            workers: 4,
        }
    }

    fn meta(job: u64, user: u32, nodes: u32) -> JobMeta {
        JobMeta::new(job, user, 1u32, nodes)
    }

    #[test]
    fn single_job_achieves_near_device_bandwidth() {
        // One job writing flat out for 2 simulated seconds on one server
        // should sustain close to the device's write bandwidth (opportunity
        // fairness / efficiency, §5.3.1).
        let job = SimJob::new(
            meta(1, 1, 4),
            32,
            OpPattern::WriteOnly {
                bytes_per_op: 1 << 20,
            },
        )
        .running_for(2 * NS_PER_SEC);
        let config = SimConfig {
            device: fast_device(),
            ..SimConfig::new(1, Algorithm::Themis(Policy::size_fair()))
        };
        let result = Simulation::new(config, vec![job]).run();
        let total = result.metrics.total_bytes(JobId(1)) as f64;
        let secs = result.sim_end_ns as f64 / 1e9;
        let gbps = total / secs / 1e9;
        assert!(
            gbps > 8.5,
            "throughput {gbps} GB/s too far below device limit"
        );
        assert!(gbps <= 10.5, "throughput {gbps} GB/s exceeds device limit");
    }

    #[test]
    fn size_fair_splits_throughput_by_node_count() {
        // Fig. 8(a): a 4-node job and a 1-node job saturating one server under
        // size-fair should see ≈4:1 throughput.
        let big = SimJob::write_read_cycle(meta(1, 1, 4), 64).running_for(2 * NS_PER_SEC);
        let small = SimJob::write_read_cycle(meta(2, 2, 1), 16).running_for(2 * NS_PER_SEC);
        let config = SimConfig {
            device: fast_device(),
            ..SimConfig::new(1, Algorithm::Themis(Policy::size_fair()))
        };
        let result = Simulation::new(config, vec![big, small]).run();
        let b1 = result.metrics.total_bytes(JobId(1)) as f64;
        let b2 = result.metrics.total_bytes(JobId(2)) as f64;
        let ratio = b1 / b2;
        assert!(
            (ratio - 4.0).abs() < 0.8,
            "size-fair ratio {ratio} should be close to 4"
        );
    }

    #[test]
    fn fifo_lets_the_bursty_job_dominate() {
        // Under FIFO a job with many more ranks (deeper queue presence) takes
        // a proportionally larger throughput share; job-fair equalises it.
        let hog = SimJob::write_read_cycle(meta(1, 1, 1), 112).running_for(NS_PER_SEC);
        let victim = SimJob::write_read_cycle(meta(2, 2, 1), 8).running_for(NS_PER_SEC);
        let mk = |alg| SimConfig {
            device: fast_device(),
            ..SimConfig::new(1, alg)
        };
        let fifo = Simulation::new(mk(Algorithm::Fifo), vec![hog.clone(), victim.clone()]).run();
        let fair =
            Simulation::new(mk(Algorithm::Themis(Policy::job_fair())), vec![hog, victim]).run();
        let fifo_ratio = fifo.metrics.total_bytes(JobId(1)) as f64
            / fifo.metrics.total_bytes(JobId(2)).max(1) as f64;
        let fair_ratio = fair.metrics.total_bytes(JobId(1)) as f64
            / fair.metrics.total_bytes(JobId(2)).max(1) as f64;
        assert!(
            fifo_ratio > 5.0,
            "FIFO ratio {fifo_ratio} should reflect queue dominance"
        );
        assert!(
            fair_ratio < 2.0,
            "job-fair ratio {fair_ratio} should be near 1"
        );
    }

    #[test]
    fn late_arriving_job_gets_served_promptly_under_fairness() {
        // Job 2 arrives at t=0.5 s against an entrenched hog; under job-fair
        // its first completion should not be delayed by the whole backlog.
        let hog = SimJob::write_read_cycle(meta(1, 1, 1), 64).running_for(2 * NS_PER_SEC);
        let late = SimJob::write_read_cycle(meta(2, 2, 1), 8)
            .starting_at(NS_PER_SEC / 2)
            .running_for(NS_PER_SEC);
        let config = SimConfig {
            device: fast_device(),
            ..SimConfig::new(1, Algorithm::Themis(Policy::job_fair()))
        };
        let result = Simulation::new(config, vec![hog, late]).run();
        let first_late = result
            .metrics
            .records()
            .iter()
            .filter(|r| r.job == JobId(2))
            .map(|r| r.finish_ns)
            .min()
            .unwrap();
        assert!(
            first_late < NS_PER_SEC / 2 + 100_000_000,
            "first completion of the late job at {first_late} ns is too late"
        );
    }

    #[test]
    fn fixed_work_jobs_report_time_to_solution() {
        let job = SimJob::ior(meta(1, 1, 1), 4, 64 << 20, 1 << 20, false);
        let config = SimConfig {
            device: fast_device(),
            ..SimConfig::new(1, Algorithm::Themis(Policy::size_fair()))
        };
        let result = Simulation::new(config, vec![job]).run();
        // 4 ranks × 64 MiB = 256 MiB at ~10 GB/s ≈ 27 ms.
        let tts = result.time_to_solution_secs(JobId(1));
        assert!(
            tts > 0.01 && tts < 0.2,
            "time to solution {tts}s out of range"
        );
        assert_eq!(result.metrics.total_bytes(JobId(1)), 256 << 20);
    }

    #[test]
    fn lambda_sync_restores_global_fairness_on_disjoint_placement() {
        // Fig. 5 / Fig. 14 setup: job 1 (16 nodes) lands on both servers,
        // jobs 2 and 3 (8 nodes each) land on disjoint servers. With a short
        // λ the long-run byte split should approach 2:1:1.
        let j1 = SimJob::write_read_cycle(meta(1, 1, 16), 64)
            .running_for(2 * NS_PER_SEC)
            .on_servers(vec![0, 1]);
        let j2 = SimJob::write_read_cycle(meta(2, 2, 8), 32)
            .running_for(2 * NS_PER_SEC)
            .on_servers(vec![0]);
        let j3 = SimJob::write_read_cycle(meta(3, 3, 8), 32)
            .running_for(2 * NS_PER_SEC)
            .on_servers(vec![1]);
        let config = SimConfig {
            device: fast_device(),
            lambda: SyncConfig::from_millis(50),
            ..SimConfig::new(2, Algorithm::Themis(Policy::size_fair()))
        };
        let result = Simulation::new(config, vec![j1, j2, j3]).run();
        let b1 = result.metrics.total_bytes(JobId(1)) as f64;
        let b2 = result.metrics.total_bytes(JobId(2)) as f64;
        let b3 = result.metrics.total_bytes(JobId(3)) as f64;
        let total = b1 + b2 + b3;
        assert!((b1 / total - 0.5).abs() < 0.1, "job1 share {}", b1 / total);
        assert!((b2 / total - 0.25).abs() < 0.1, "job2 share {}", b2 / total);
        assert!((b3 / total - 0.25).abs() < 0.1, "job3 share {}", b3 / total);
    }

    #[test]
    fn scheduled_policy_swap_shifts_bandwidth_split() {
        // Live reconfiguration: start job-fair (1:1), swap to size-fair (4:1)
        // at t = 1 s. The per-second byte split must move from ≈1:1 to ≈4:1
        // within one sampling interval of the swap.
        let big = SimJob::write_read_cycle(meta(1, 1, 4), 64).running_for(2 * NS_PER_SEC);
        let small = SimJob::write_read_cycle(meta(2, 2, 1), 64).running_for(2 * NS_PER_SEC);
        let mut config = SimConfig {
            device: fast_device(),
            ..SimConfig::new(1, Algorithm::Themis(Policy::job_fair()))
        };
        config.policy_schedule = vec![PolicyChange {
            at_ns: NS_PER_SEC,
            policy: Policy::size_fair(),
        }];
        let result = Simulation::new(config, vec![big, small]).run();
        let series = result.metrics.throughput_series(NS_PER_SEC / 4);
        let per_quarter =
            |job: JobId| -> Vec<f64> { series.per_job[&job].iter().map(|b| *b as f64).collect() };
        let b1 = per_quarter(JobId(1));
        let b2 = per_quarter(JobId(2));
        // Before the swap (quarters 0-3): job-fair, ratio near 1.
        let before: f64 = b1[..4].iter().sum::<f64>() / b2[..4].iter().sum::<f64>().max(1.0);
        assert!((before - 1.0).abs() < 0.35, "pre-swap ratio {before}");
        // After the swap, skipping the boundary quarter: size-fair, ratio
        // near 4.
        let after: f64 = b1[5..8].iter().sum::<f64>() / b2[5..8].iter().sum::<f64>().max(1.0);
        assert!((after - 4.0).abs() < 1.0, "post-swap ratio {after}");
    }

    #[test]
    fn sim_result_reports_latency_percentiles_and_policy_epochs() {
        let big = SimJob::write_read_cycle(meta(1, 1, 4), 16).running_for(NS_PER_SEC);
        let small = SimJob::write_read_cycle(meta(2, 2, 1), 16).running_for(NS_PER_SEC);
        let mut config = SimConfig {
            device: fast_device(),
            ..SimConfig::new(1, Algorithm::Themis(Policy::job_fair()))
        };
        config.policy_schedule = vec![PolicyChange {
            at_ns: NS_PER_SEC / 2,
            policy: Policy::size_fair(),
        }];
        let result = Simulation::new(config, vec![big, small]).run();
        // Every tenant gets a latency summary consistent with its records.
        let lats = result.tenant_latencies();
        assert_eq!(lats.len(), 2);
        for (job, stats) in &lats {
            assert_eq!(
                stats.count,
                result
                    .metrics
                    .records()
                    .iter()
                    .filter(|r| r.job == *job)
                    .count()
            );
            assert!(stats.p50_ns > 0, "{job}: zero p50");
            assert!(stats.p50_ns <= stats.p99_ns);
            assert!(stats.p99_ns <= stats.max_ns);
            assert!(stats.mean_ns <= stats.max_ns as f64);
            assert_eq!(*stats, result.tenant_latency(*job));
        }
        // Latency = queueing + service, so it dominates the queue delay.
        for r in result.metrics.records() {
            assert!(r.latency_ns >= r.queue_delay_ns);
        }
        // Epoch export: boot policy at 0, the swap at its scheduled instant.
        assert_eq!(result.policy_epochs.len(), 2);
        assert_eq!(result.policy_epochs[0], (0, Policy::job_fair()));
        assert_eq!(result.policy_epochs[1].1, Policy::size_fair());
        assert!(result.policy_epochs[1].0 >= NS_PER_SEC / 2);
    }

    #[test]
    fn restore_misses_park_reads_behind_weighted_restores() {
        // A read stream whose reads always miss: every served byte must
        // first come back from the capacity tier as policy-admitted restore
        // traffic, so restored bytes equal read bytes and the run is slower
        // than the all-hit baseline.
        let reads = |staging| {
            let job = SimJob::new(
                meta(1, 1, 4),
                8,
                OpPattern::ReadOnly {
                    bytes_per_op: 1 << 20,
                },
            )
            .with_max_ops(32)
            .with_queue_depth(4);
            let config = SimConfig {
                device: fast_device(),
                staging,
                ..SimConfig::new(1, Algorithm::Themis(Policy::size_fair()))
            };
            Simulation::new(config, vec![job]).run()
        };
        let hit = reads(Some(SimStagingConfig {
            backing_device: fast_device(),
            restore_miss_rate: 0.0,
            ..SimStagingConfig::default()
        }));
        assert_eq!(hit.restored_bytes, 0);
        let missed = reads(Some(SimStagingConfig {
            backing_device: fast_device(),
            restore_miss_rate: 1.0,
            ..SimStagingConfig::default()
        }));
        let total_read = 8 * 32 * (1 << 20) as u64;
        assert_eq!(missed.metrics.total_bytes(JobId(1)), total_read);
        assert_eq!(missed.restored_bytes, total_read);
        // Latency of the reads includes the restore queue delay.
        assert!(
            missed.job_finish_ns[&JobId(1)] > hit.job_finish_ns[&JobId(1)],
            "misses must slow the reader ({} vs {})",
            missed.job_finish_ns[&JobId(1)],
            hit.job_finish_ns[&JobId(1)]
        );
        assert!(
            missed.tenant_latency(JobId(1)).p99_ns > hit.tenant_latency(JobId(1)).p99_ns,
            "restore queue delay must show up in read latency"
        );
    }

    #[test]
    fn rebalance_backlog_is_fully_migrated_after_the_reshard_fires() {
        // Byte-level migration model: once the reshard instant passes, the
        // rebalance lane moves exactly the configured backlog per server —
        // no more, no less — and a run without a reshard moves nothing.
        let run = |enabled| {
            let job = SimJob::write_read_cycle(meta(1, 1, 2), 8).running_for(NS_PER_SEC / 2);
            let config = SimConfig {
                device: fast_device(),
                staging: Some(SimStagingConfig {
                    backing_device: fast_device(),
                    rebalance_enabled: enabled,
                    rebalance_backlog_bytes: 8 << 20,
                    reshard_at_ns: NS_PER_SEC / 4,
                    ..SimStagingConfig::default()
                }),
                ..SimConfig::new(2, Algorithm::Themis(Policy::size_fair()))
            };
            Simulation::new(config, vec![job]).run()
        };
        let off = run(false);
        assert_eq!(off.migrated_bytes, 0);
        let on = run(true);
        // Every server owes its own backlog, so the cluster total is n×.
        assert_eq!(on.migrated_bytes, 2 * (8 << 20) as u64);
        // The migration competes for the same device timeline, so it cannot
        // be free — and it must finish even though the foreground window
        // ends before the backlog does.
        assert!(on.sim_end_ns >= NS_PER_SEC / 4);
    }

    #[test]
    fn replication_lag_drains_to_zero_before_quiescence() {
        // Byte-level durability model: with replication enabled, every
        // foreground write byte (fraction 1.0) plus the per-server boot debt
        // owes exactly one copy on the replica tier, and the run quiesces
        // only once the lag has drained to zero.
        let run = |enabled| {
            let job = SimJob::new(
                meta(1, 1, 2),
                4,
                OpPattern::WriteOnly {
                    bytes_per_op: 1 << 20,
                },
            )
            .with_max_ops(16)
            .with_queue_depth(4);
            let config = SimConfig {
                device: fast_device(),
                staging: Some(SimStagingConfig {
                    backing_device: fast_device(),
                    replicate_enabled: enabled,
                    replicate_backlog_bytes: 4 << 20,
                    ..SimStagingConfig::default()
                }),
                ..SimConfig::new(2, Algorithm::Themis(Policy::size_fair()))
            };
            Simulation::new(config, vec![job]).run()
        };
        let off = run(false);
        assert_eq!(off.replicated_bytes, 0);
        assert_eq!(off.residual_replication_lag, 0);
        let on = run(true);
        // 4 ranks × 16 ops × 1 MiB of durable writes, plus each server's
        // 4 MiB boot debt.
        let writes = 4 * 16 * (1 << 20) as u64;
        assert_eq!(on.replicated_bytes, writes + 2 * (4 << 20) as u64);
        assert_eq!(on.residual_replication_lag, 0);
        // The copies compete for the burst device, so they cannot be free.
        assert!(
            on.sim_end_ns > off.sim_end_ns,
            "replication must cost device time ({} vs {})",
            on.sim_end_ns,
            off.sim_end_ns
        );
    }

    #[test]
    fn local_only_fraction_owes_no_copies() {
        // With fraction 0.0 every write is local_only: enabling the class
        // moves only the boot debt, and a debt-free run moves nothing.
        let run = |backlog| {
            let job = SimJob::new(
                meta(1, 1, 1),
                2,
                OpPattern::WriteOnly {
                    bytes_per_op: 1 << 20,
                },
            )
            .with_max_ops(8);
            let config = SimConfig {
                device: fast_device(),
                staging: Some(SimStagingConfig {
                    backing_device: fast_device(),
                    replicate_enabled: true,
                    replicate_fraction: 0.0,
                    replicate_backlog_bytes: backlog,
                    ..SimStagingConfig::default()
                }),
                ..SimConfig::new(1, Algorithm::Themis(Policy::size_fair()))
            };
            Simulation::new(config, vec![job]).run()
        };
        assert_eq!(run(0).replicated_bytes, 0);
        assert_eq!(run(2 << 20).replicated_bytes, (2 << 20) as u64);
    }

    #[test]
    fn simulation_is_deterministic_for_a_fixed_seed() {
        let mk = || {
            let hog = SimJob::write_read_cycle(meta(1, 1, 1), 16).running_for(NS_PER_SEC / 2);
            let other = SimJob::write_read_cycle(meta(2, 2, 2), 16).running_for(NS_PER_SEC / 2);
            let config = SimConfig {
                device: fast_device(),
                ..SimConfig::new(2, Algorithm::Themis(Policy::size_fair()))
            };
            Simulation::new(config, vec![hog, other]).run()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.metrics.total_bytes_all(), b.metrics.total_bytes_all());
        assert_eq!(a.sim_end_ns, b.sim_end_ns);
        assert_eq!(
            a.metrics.total_bytes(JobId(1)),
            b.metrics.total_bytes(JobId(1))
        );
    }
}
