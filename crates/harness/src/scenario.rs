//! Seeded scenario generation: one `u64` seed deterministically expands into
//! a multi-tenant workload — tenant mix (checkpoint bursts, read streams,
//! write/read cycles), skewed tenant weights (node counts, priorities,
//! weighted policy tiers), device-speed asymmetry, mid-flight `SetPolicy`
//! swaps, and optional staging/drain pressure — that can be replayed
//! identically through the discrete-event simulator and through a live
//! in-process server cluster.
//!
//! Scenarios are deliberately *well-conditioned* for the analytic oracles:
//!
//! * every tenant runs a saturating closed loop for the whole window (enough
//!   ranks × queue depth to stay backlogged on every server), so the WFQ
//!   share bound of [`compute_shares`](themis_core::shares::compute_shares)
//!   applies directly;
//! * all tenants use the same per-op payload, so byte shares equal
//!   service-slot shares (the quantity the statistical-token scheduler
//!   actually allocates);
//! * tenants stripe over every server, so global and per-server shares
//!   coincide.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use themis_baselines::Algorithm;
use themis_core::durability::{DurabilityMode, DurabilitySpec};
use themis_core::entity::JobMeta;
use themis_core::policy::Policy;
use themis_core::sync::SyncConfig;
use themis_device::DeviceConfig;
use themis_sim::{OpPattern, PolicyChange, SimConfig, SimJob, SimStagingConfig};
use themis_stage::{ClassWeights, DrainConfig, StagingConfig, TrafficClass};

/// Nanoseconds per millisecond.
pub const NS_PER_MS: u64 = 1_000_000;

/// One tenant of a generated scenario: a job identity plus its closed-loop
/// I/O behaviour.
#[derive(Debug, Clone)]
pub struct Tenant {
    /// Job identity (id, user, group, nodes, priority) — the inputs every
    /// sharing policy arbitrates on.
    pub meta: JobMeta,
    /// Number of I/O-issuing ranks.
    pub ranks: usize,
    /// Operations each rank keeps in flight.
    pub queue_depth: usize,
    /// The per-rank operation pattern (checkpoint burst, read stream, or
    /// write/read cycle).
    pub pattern: OpPattern,
}

impl Tenant {
    /// Whether this tenant's pattern ever writes (and therefore participates
    /// in the data-integrity oracle).
    pub fn writes(&self) -> bool {
        !matches!(self.pattern, OpPattern::ReadOnly { .. })
    }
}

/// Foreground : scrub weight of every scrub-enabled scenario. Fixed (not a
/// random draw) for two reasons: drawing it would reshuffle every
/// pre-existing seed's downstream draws, and 16:1 maintenance pressure is
/// small enough (≤ 1/17 of device time while the foreground is backlogged)
/// to stay inside the share oracles' documented tolerances — the "Scrub
/// conditioning" note in the README.
pub const SCENARIO_SCRUB_WEIGHT: u32 = 16;

/// Foreground : rebalance weight of every resharding scenario. Fixed for the
/// same reasons as [`SCENARIO_SCRUB_WEIGHT`]: drawing it would reshuffle
/// pre-existing seeds, and 16:1 keeps the migration's foreground cost inside
/// the share oracles' documented tolerances.
pub const SCENARIO_REBALANCE_WEIGHT: u32 = 16;

/// Foreground : replicate weight of every durable scenario. Fixed for the
/// same reasons as [`SCENARIO_SCRUB_WEIGHT`]: drawing it would reshuffle
/// pre-existing seeds, and 16:1 keeps the async copy traffic's foreground
/// cost inside the share oracles' documented tolerances — the README's
/// "Crash-before-replicate conditioning" note.
pub const SCENARIO_REPLICATE_WEIGHT: u32 = 16;

/// Staging/drain pressure parameters of a scenario.
#[derive(Debug, Clone)]
pub struct StagingSpec {
    /// Device model of the capacity tier.
    pub backing_device: DeviceConfig,
    /// Foreground : drain weight.
    pub drain_weight: u32,
    /// Foreground : restore weight for the policy-admitted stage-in class
    /// (mirrors the drain weight so the scenario has one staging knob).
    pub restore_weight: u32,
    /// Whether the background checksum scrubber runs during the scenario
    /// (continuous passes over the capacity tier at
    /// [`SCENARIO_SCRUB_WEIGHT`]:1). Derived from the staging draw itself —
    /// no extra RNG consumption — so pre-existing seeds keep their exact
    /// shape.
    pub scrub: bool,
    /// Whether the scenario's capacity tier is *sharded* and resharded
    /// mid-window: the live driver builds the tier as a
    /// [`ShardedStore`](themis_stage::ShardedStore), changes its shard map
    /// halfway through the issuing window (adding a backend or retiring
    /// one — see [`Scenario::reshard_retires_backend`]), and the rebalance
    /// class migrates every misplaced extent checksum-verified while the
    /// foreground keeps issuing. Derived from the staging draw itself (like
    /// `scrub`) — no extra RNG consumption, so pre-existing seeds keep
    /// their exact shape.
    pub reshard: bool,
    /// Whether the scenario runs under a durability spec: alternating
    /// tenants are assigned `local_plus_one` (their dirty extents owe one
    /// early copy into the capacity tier, as policy-arbitrated `Replicate`
    /// traffic) while the rest stay
    /// `local_only`. Derived from the staging draw itself (like `scrub`) —
    /// no extra RNG consumption, so pre-existing seeds keep their exact
    /// shape. Conformance deliberately never assigns `sync`: deferred acks
    /// would desynchronize the live driver's closed loop from the
    /// simulator's byte-level model.
    pub durability: bool,
    /// Whether watermarks are tight enough to force eviction (and therefore
    /// stage-in / read-through roundtrips) during the run.
    pub eviction: bool,
    /// Eviction trigger (resident bytes per server).
    pub high_watermark_bytes: u64,
    /// Eviction target (resident bytes per server).
    pub low_watermark_bytes: u64,
}

/// A fully-specified conformance scenario, generated deterministically from
/// [`Scenario::generate`]'s seed.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The generating seed (quoted in every violation's repro line).
    pub seed: u64,
    /// Number of burst-buffer servers.
    pub n_servers: usize,
    /// Per-server device model (read/write bandwidth may be asymmetric).
    pub device: DeviceConfig,
    /// Boot policy.
    pub policy: Policy,
    /// Mid-flight policy swaps as `(at_ns, policy)`, in time order.
    pub swaps: Vec<(u64, Policy)>,
    /// The competing tenants.
    pub tenants: Vec<Tenant>,
    /// Uniform per-operation payload of every tenant.
    pub bytes_per_op: u64,
    /// Slots in each rank's cyclic write region (bounds resident bytes).
    pub slots: u64,
    /// Length of the issuing window (virtual ns); tenants issue I/O in
    /// `[0, window_ns)` and the run then drains to quiescence.
    pub window_ns: u64,
    /// Staging/drain pressure, when enabled.
    pub staging: Option<StagingSpec>,
    /// λ-sync configuration shared by both runtimes.
    pub lambda: SyncConfig,
}

/// The policy pool scenarios draw from: primitives, composites and weighted
/// tiers, all expressed in the administrator DSL. FIFO and the fixed
/// baselines are excluded on purpose — the share-bound oracle encodes the
/// paper's WFQ claim, which only policy-driven engines make.
const POLICY_POOL: &[&str] = &[
    "job-fair",
    "size-fair",
    "user-fair",
    "priority-fair",
    "user-then-size-fair",
    "group-user-size-fair",
    "user[2]-then-size-fair",
    "user[3]-fair",
    "size[2]-fair",
    "group[2]-user-size-fair",
];

fn pick_policy(rng: &mut SmallRng) -> Policy {
    POLICY_POOL[rng.gen_range(0u64..POLICY_POOL.len() as u64) as usize]
        .parse()
        .expect("policy pool entries are valid DSL")
}

fn pick_device(rng: &mut SmallRng) -> DeviceConfig {
    match rng.gen_range(0u32..4) {
        0 => DeviceConfig {
            write_bw_bytes_per_sec: 0.9e9,
            read_bw_bytes_per_sec: 0.9e9,
            per_op_overhead_ns: 2_000,
            metadata_op_ns: 3_000,
            workers: 2,
        },
        1 => DeviceConfig {
            // Read-optimised tier: staged reads stream much faster than
            // checkpoint ingest.
            write_bw_bytes_per_sec: 0.6e9,
            read_bw_bytes_per_sec: 1.5e9,
            per_op_overhead_ns: 2_000,
            metadata_op_ns: 3_000,
            workers: 2,
        },
        2 => DeviceConfig {
            // Write-optimised (checkpoint-absorbing) tier.
            write_bw_bytes_per_sec: 1.5e9,
            read_bw_bytes_per_sec: 0.6e9,
            per_op_overhead_ns: 2_000,
            metadata_op_ns: 3_000,
            workers: 2,
        },
        _ => DeviceConfig {
            write_bw_bytes_per_sec: 1.0e9,
            read_bw_bytes_per_sec: 1.0e9,
            per_op_overhead_ns: 5_000,
            metadata_op_ns: 10_000,
            workers: 1,
        },
    }
}

impl Scenario {
    /// Expands `seed` into a scenario. The same seed always yields the same
    /// scenario, so any oracle violation reproduces from the seed alone.
    pub fn generate(seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xC04F_0CED_5EED_u64);
        let n_servers = *[1usize, 1, 2].get(rng.gen_range(0u64..3) as usize).unwrap();
        let device = pick_device(&mut rng);
        let policy = pick_policy(&mut rng);
        let bytes_per_op = *[128u64 << 10, 256 << 10, 512 << 10]
            .get(rng.gen_range(0u64..3) as usize)
            .unwrap();
        // Total served bytes scale with server count; shrink the window so
        // every scenario stays a comparable amount of (real) work.
        let window_ns = (300 + rng.gen_range(0u64..240)) * NS_PER_MS / n_servers as u64;

        let n_tenants = rng.gen_range(2u64..5) as usize;
        let mut tenants = Vec::with_capacity(n_tenants);
        for i in 0..n_tenants {
            let job = (i + 1) as u64;
            let user = (i + 1) as u32;
            let group = 1 + (i as u32 % 2);
            let nodes = rng.gen_range(1u32..9);
            let priority = f64::from(rng.gen_range(1u32..5));
            // Deep closed loops: a tenant may be owed up to ~0.8 of the
            // device under weighted policies, and the share oracle only
            // applies to tenants that never run dry — keep enough requests
            // outstanding that even a favoured tenant's per-server queue
            // stays backlogged through the sampler's bursts. Ranks alternate
            // servers per operation, so per-server backlog is a random walk
            // of the total; multi-server scenarios need proportionally more
            // depth.
            let ranks = rng.gen_range(6u64..11) as usize * n_servers;
            let queue_depth = rng.gen_range(3u64..5) as usize;
            let pattern = match rng.gen_range(0u32..5) {
                // Checkpoint burst: pure writes.
                0 => OpPattern::WriteOnly { bytes_per_op },
                // Read stream (e.g. restart / input scan).
                1 => OpPattern::ReadOnly { bytes_per_op },
                // Checkpoint/verify cycles of varying phase length.
                _ => OpPattern::WriteReadCycle {
                    bytes_per_op,
                    ops_per_phase: rng.gen_range(1u64..4),
                },
            };
            tenants.push(Tenant {
                meta: JobMeta::new(job, user, group, nodes).with_priority(priority),
                ranks,
                queue_depth,
                pattern,
            });
        }

        let n_swaps = match rng.gen_range(0u32..5) {
            0 | 1 => 0,
            2 | 3 => 1,
            _ => 2,
        };
        let mut swaps = Vec::new();
        if n_swaps >= 1 {
            swaps.push((window_ns * 2 / 5, pick_policy(&mut rng)));
        }
        if n_swaps >= 2 {
            swaps.push((window_ns * 7 / 10, pick_policy(&mut rng)));
        }

        let slots = 8u64;
        let staging = if rng.gen_range(0u32..3) == 0 {
            let eviction = rng.gen_range(0u32..2) == 0;
            let region_bytes: u64 = tenants
                .iter()
                .map(|t| t.ranks as u64 * slots * bytes_per_op)
                .sum();
            let per_server = region_bytes / n_servers as u64;
            let (high, low) = if eviction {
                (per_server / 3, per_server / 6)
            } else {
                (1u64 << 40, 1u64 << 39)
            };
            // One staging knob per scenario: the restore class mirrors the
            // drain weight, derived from the same draw so pre-existing seeds
            // keep their exact shape.
            let drain_weight = if rng.gen_range(0u32..2) == 0 { 4 } else { 8 };
            Some(StagingSpec {
                // The scrub dimension is *derived* (every staged scenario
                // scrubs) rather than drawn, so adding it did not consume a
                // draw and every pre-existing seed keeps its exact shape —
                // the pinned set gains scrub coverage without reshuffling a
                // single green seed.
                scrub: true,
                // The reshard dimension is likewise derived: every staged
                // scenario reshards its capacity tier mid-window, so the
                // pinned seeds gain migration coverage for free. Which
                // *kind* of reshard (add vs. retire) follows the drain
                // weight — see `reshard_retires_backend`.
                reshard: true,
                // The durability dimension is also derived: every staged
                // scenario runs under a spec that alternates tenants
                // between local_plus_one and local_only, so the pinned
                // seeds gain replication coverage without consuming a draw.
                durability: true,
                // The capacity tier must absorb drain faster than the burst
                // tier produces dirty bytes, so runs quiesce promptly; its
                // per-op overhead still dwarfs the burst tier's.
                backing_device: DeviceConfig {
                    write_bw_bytes_per_sec: 3.0e9,
                    read_bw_bytes_per_sec: 3.0e9,
                    per_op_overhead_ns: 20_000,
                    metadata_op_ns: 100_000,
                    workers: 2,
                },
                drain_weight,
                restore_weight: drain_weight,
                eviction,
                high_watermark_bytes: high,
                low_watermark_bytes: low,
            })
        } else {
            None
        };

        Scenario {
            seed,
            n_servers,
            device,
            policy,
            swaps,
            tenants,
            bytes_per_op,
            slots,
            window_ns,
            staging,
            lambda: SyncConfig::from_millis(50),
        }
    }

    /// The policy in force over time: `(start_ns, policy)` for boot plus
    /// every scheduled swap — the oracle's ground truth for per-epoch share
    /// expectations.
    pub fn policy_epochs(&self) -> Vec<(u64, Policy)> {
        let mut epochs = vec![(0u64, self.policy.clone())];
        epochs.extend(self.swaps.iter().cloned());
        epochs
    }

    /// Job metadata of every tenant, in tenant order.
    pub fn tenant_metas(&self) -> Vec<JobMeta> {
        self.tenants.iter().map(|t| t.meta).collect()
    }

    /// The simulator configuration of this scenario.
    pub fn sim_config(&self) -> SimConfig {
        SimConfig {
            n_servers: self.n_servers,
            device: self.device,
            algorithm: Algorithm::Themis(self.policy.clone()),
            lambda: self.lambda,
            seed: self.seed,
            // Generous cap: the issuing window plus ample drain headroom.
            max_sim_ns: self.window_ns * 40 + 10_000 * NS_PER_MS,
            policy_schedule: self
                .swaps
                .iter()
                .map(|(at_ns, policy)| PolicyChange {
                    at_ns: *at_ns,
                    policy: policy.clone(),
                })
                .collect(),
            staging: self.staging.as_ref().map(|s| SimStagingConfig {
                backing_device: s.backing_device,
                drain_weight: s.drain_weight,
                restore_weight: s.restore_weight,
                // The simulator does not track per-extent residency, so it
                // cannot reproduce the live runtime's eviction-driven
                // restore storms; differential comparison of restore-storm
                // scenarios is therefore conditioned (see `crate::oracle`).
                restore_miss_rate: 0.0,
                scrub_weight: SCENARIO_SCRUB_WEIGHT,
                scrub_enabled: s.scrub,
                // Conformance scenarios never inject corruption: the sim's
                // scrub model verifies every drained byte once and must
                // find it sound. No boot backlog — the live run's tier
                // starts from the retired prefill, which the sim does not
                // model, and the liveness oracle only requires progress.
                scrub_error_rate: 0.0,
                scrub_backlog_bytes: 0,
                rebalance_weight: SCENARIO_REBALANCE_WEIGHT,
                rebalance_enabled: s.reshard,
                // The sim does not track placement; its byte-level model
                // owes roughly the live migration volume — about half of
                // each server's share of the written region changes owner
                // when the map splits (or a child retires).
                rebalance_backlog_bytes: self.sim_rebalance_backlog_bytes() / self.n_servers as u64,
                reshard_at_ns: self.reshard_at_ns(),
                replicate_weight: SCENARIO_REPLICATE_WEIGHT,
                replicate_enabled: s.durability,
                // The sim does not resolve per-path durability; its
                // byte-level model owes copies for the write-byte share of
                // the local_plus_one tenants. No boot debt — the live run's
                // prefill is retired clean without replication.
                replicate_fraction: self.sim_replicate_fraction(),
                replicate_backlog_bytes: 0,
                drain_chunk_bytes: self.bytes_per_op,
                max_inflight: 4,
            }),
        }
    }

    /// Total bytes of every rank's prefilled cyclic region.
    pub fn region_bytes(&self) -> u64 {
        self.tenants
            .iter()
            .map(|t| t.ranks as u64 * self.slots * self.bytes_per_op)
            .sum()
    }

    /// The simulator jobs of this scenario (the same closed-loop parameters
    /// the live driver replays).
    pub fn sim_jobs(&self) -> Vec<SimJob> {
        self.tenants
            .iter()
            .map(|t| {
                SimJob::new(t.meta, t.ranks, t.pattern)
                    .running_for(self.window_ns)
                    .with_queue_depth(t.queue_depth)
            })
            .collect()
    }

    /// The staging configuration of one live server (`None` when the
    /// scenario has no staging pressure).
    pub fn live_staging(&self) -> Option<StagingConfig> {
        self.staging.as_ref().map(|s| {
            let mut classes = ClassWeights::default()
                .enable(TrafficClass::Drain, s.drain_weight)
                .enable(TrafficClass::Restore, s.restore_weight)
                .disable(TrafficClass::Rebalance);
            if s.scrub {
                classes = classes.enable(TrafficClass::Scrub, SCENARIO_SCRUB_WEIGHT);
            }
            if s.reshard {
                classes = classes.enable(TrafficClass::Rebalance, SCENARIO_REBALANCE_WEIGHT);
            }
            if s.durability {
                classes = classes.enable(TrafficClass::Replicate, SCENARIO_REPLICATE_WEIGHT);
            }
            StagingConfig {
                backing_device: s.backing_device,
                drain: DrainConfig {
                    high_watermark_bytes: s.high_watermark_bytes,
                    low_watermark_bytes: s.low_watermark_bytes,
                    classes,
                    // Back-to-back passes: the conformance window is short,
                    // so pacing would turn "enabled" into "ran once, maybe".
                    scrub_interval_ns: 0,
                    max_inflight: 4,
                },
                // The live driver builds the (shared, resharded) tier itself
                // and hands it to every core, so the per-server spec stays
                // unset.
                sharding: None,
                durability: self.durability_spec(),
            }
        })
    }

    /// Whether this scenario runs under a durability spec (the replicate
    /// traffic class's conformance dimension).
    pub fn durability_enabled(&self) -> bool {
        self.staging.as_ref().is_some_and(|s| s.durability)
    }

    /// Whether tenant `index` is assigned a replicated durability mode:
    /// alternating by tenant index, so every durable scenario mixes
    /// `local_plus_one` and `local_only` tenants (tenant 0 always
    /// replicates).
    pub fn tenant_replicates(&self, index: usize) -> bool {
        self.durability_enabled() && index.is_multiple_of(2)
    }

    /// The durability spec of this scenario's live servers (`None` without
    /// the durability dimension): `local_only` by default, `local_plus_one`
    /// for alternating tenants by job rule, plus one *path* rule covering
    /// tenant 1's directory — redundant with its job rule on purpose, so the
    /// longest-prefix resolution path is exercised by every durable seed
    /// without changing any tenant's effective mode.
    pub fn durability_spec(&self) -> Option<DurabilitySpec> {
        if !self.durability_enabled() {
            return None;
        }
        let mut spec = DurabilitySpec::new(DurabilityMode::LocalOnly);
        for (i, t) in self.tenants.iter().enumerate() {
            if self.tenant_replicates(i) {
                spec = spec
                    .with_job(t.meta.job.0, DurabilityMode::LocalPlusOne)
                    .expect("tenant jobs are small and distinct");
            }
        }
        spec = spec
            .with_path("/t1/", DurabilityMode::LocalPlusOne)
            .expect("literal prefix is valid");
        Some(spec)
    }

    /// Whether any replicated tenant actually writes — the condition under
    /// which the replicate-liveness oracle expects copy traffic to flow.
    pub fn durability_writes(&self) -> bool {
        self.tenants
            .iter()
            .enumerate()
            .any(|(i, t)| self.tenant_replicates(i) && t.writes())
    }

    /// The replicated share of foreground write pressure the simulator's
    /// byte-level model owes copies for: the rank-weighted fraction of
    /// writing tenants under a replicated mode. A model input, not an exact
    /// accounting — the liveness oracle only requires that the lag drains to
    /// zero and that copies flow when this is non-zero.
    pub fn sim_replicate_fraction(&self) -> f64 {
        if !self.durability_enabled() {
            return 0.0;
        }
        let pressure = |t: &Tenant| (t.ranks * t.queue_depth) as f64;
        let total: f64 = self
            .tenants
            .iter()
            .filter(|t| t.writes())
            .map(pressure)
            .sum();
        if total == 0.0 {
            return 0.0;
        }
        let replicated: f64 = self
            .tenants
            .iter()
            .enumerate()
            .filter(|(i, t)| self.tenant_replicates(*i) && t.writes())
            .map(|(_, t)| pressure(t))
            .sum();
        replicated / total
    }

    /// Whether this scenario reshards its capacity tier mid-window (the
    /// rebalance traffic class's conformance dimension).
    pub fn reshard_enabled(&self) -> bool {
        self.staging.as_ref().is_some_and(|s| s.reshard)
    }

    /// Cluster-total migration backlog the simulator's byte-level model owes
    /// after the reshard — what the rebalance-liveness oracle expects
    /// `SimResult::migrated_bytes` to reach at quiescence. Roughly half the
    /// written region changes owner when the map splits (or a child
    /// retires); each server carries its `1/n_servers` share.
    pub fn sim_rebalance_backlog_bytes(&self) -> u64 {
        if self.reshard_enabled() {
            let per_server = self.region_bytes() / self.n_servers as u64 / 2;
            per_server * self.n_servers as u64
        } else {
            0
        }
    }

    /// Virtual time of the shard-map change: halfway through the issuing
    /// window, so migration always competes with live foreground traffic.
    pub fn reshard_at_ns(&self) -> u64 {
        self.window_ns / 2
    }

    /// Which kind of reshard this scenario performs, derived from the
    /// drain-weight draw so both kinds appear across the pinned seeds
    /// without consuming a draw: `true` retires a backend (the two-child
    /// tier collapses onto one), `false` adds one (the one-child tier
    /// splits and doubles its replication).
    pub fn reshard_retires_backend(&self) -> bool {
        self.staging.as_ref().is_some_and(|s| s.drain_weight == 8)
    }

    /// Whether this scenario runs the background checksum scrubber (the
    /// maintenance traffic class) alongside its staging pressure.
    pub fn scrub_enabled(&self) -> bool {
        self.staging.as_ref().is_some_and(|s| s.scrub)
    }

    /// Whether this scenario is a *restore storm*: eviction pressure plus at
    /// least one tenant that reads, so in-window reads (and the closing
    /// integrity read-back) hit evicted extents and ride the policy-admitted
    /// restore pipeline.
    pub fn restore_storm(&self) -> bool {
        self.staging.as_ref().is_some_and(|s| s.eviction)
            && self.tenants.iter().any(|t| {
                matches!(
                    t.pattern,
                    OpPattern::ReadOnly { .. } | OpPattern::WriteReadCycle { .. }
                )
            })
    }

    /// One-line human summary used in reports.
    pub fn summary(&self) -> String {
        let swaps = self
            .swaps
            .iter()
            .map(|(at, p)| format!("{}ms→{p}", at / NS_PER_MS))
            .collect::<Vec<_>>()
            .join(", ");
        let staging = match &self.staging {
            Some(s) => format!(
                "staging(w={}, rw={}, scrub={}, reshard={}, eviction={}, storm={}, durability={})",
                s.drain_weight,
                s.restore_weight,
                s.scrub,
                if !s.reshard {
                    "off"
                } else if self.reshard_retires_backend() {
                    "retire"
                } else {
                    "add"
                },
                s.eviction,
                self.restore_storm(),
                match self.durability_spec() {
                    Some(spec) => spec.to_string(),
                    None => "off".to_string(),
                }
            ),
            None => "no-staging".to_string(),
        };
        let tenants = self
            .tenants
            .iter()
            .map(|t| {
                let kind = match t.pattern {
                    OpPattern::WriteOnly { .. } => "ckpt",
                    OpPattern::ReadOnly { .. } => "read",
                    OpPattern::WriteReadCycle { .. } => "wrc",
                    OpPattern::MetadataStat => "meta",
                };
                format!(
                    "{kind}:r{}q{}n{}p{}",
                    t.ranks, t.queue_depth, t.meta.nodes, t.meta.priority
                )
            })
            .collect::<Vec<_>>()
            .join(" ");
        format!(
            "seed={} servers={} policy='{}' swaps=[{}] {} window={}ms op={}KiB tenants=[{}]",
            self.seed,
            self.n_servers,
            self.policy,
            swaps,
            staging,
            self.window_ns / NS_PER_MS,
            self.bytes_per_op >> 10,
            tenants
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in 0..50 {
            let a = Scenario::generate(seed);
            let b = Scenario::generate(seed);
            assert_eq!(a.summary(), b.summary(), "seed {seed}");
            assert_eq!(a.window_ns, b.window_ns);
            assert_eq!(a.tenant_metas(), b.tenant_metas());
        }
    }

    #[test]
    fn scenarios_are_well_conditioned() {
        for seed in 0..200 {
            let s = Scenario::generate(seed);
            assert!(s.tenants.len() >= 2, "seed {seed}: single tenant");
            assert!(s.policy.is_fair(), "seed {seed}: non-fair policy");
            // Saturation: each tenant can keep more requests outstanding
            // than the cluster has workers.
            let workers = s.device.workers.max(1);
            for t in &s.tenants {
                let per_server = t.ranks * t.queue_depth / s.n_servers;
                assert!(
                    per_server >= 4 * workers && per_server >= 18,
                    "seed {seed}: tenant cannot saturate a favoured share"
                );
            }
            // Swap times are inside the window and ordered.
            let mut last = 0;
            for (at, p) in &s.swaps {
                assert!(*at > 0 && *at < s.window_ns);
                assert!(*at > last);
                assert!(p.is_fair());
                last = *at;
            }
            // Distinct users so user-level policies always have >1 scope.
            let users: std::collections::HashSet<_> =
                s.tenants.iter().map(|t| t.meta.user).collect();
            assert_eq!(users.len(), s.tenants.len(), "seed {seed}");
            if let Some(st) = &s.staging {
                assert!(st.low_watermark_bytes <= st.high_watermark_bytes);
                assert!(st.drain_weight >= 1);
            }
        }
    }

    #[test]
    fn seed_diversity_covers_the_feature_matrix() {
        // Over a modest seed range the generator must exercise staging,
        // eviction, swaps, weighted policies and multi-server layouts.
        let scenarios: Vec<Scenario> = (0..64).map(Scenario::generate).collect();
        assert!(scenarios.iter().any(|s| s.staging.is_some()));
        assert!(scenarios
            .iter()
            .any(|s| s.staging.as_ref().is_some_and(|st| st.eviction)));
        assert!(scenarios.iter().any(|s| !s.swaps.is_empty()));
        assert!(scenarios.iter().any(|s| s.swaps.len() == 2));
        assert!(scenarios.iter().any(|s| s.n_servers > 1));
        assert!(scenarios
            .iter()
            .any(|s| s.policy.tiers().iter().any(|t| t.weight > 1)));
        // Both reshard kinds appear: a scenario that adds a backend
        // mid-window and one that retires one.
        assert!(scenarios
            .iter()
            .any(|s| s.reshard_enabled() && s.reshard_retires_backend()));
        assert!(scenarios
            .iter()
            .any(|s| s.reshard_enabled() && !s.reshard_retires_backend()));
        // Durability coverage: durable scenarios exist, they mix replicated
        // and local-only tenants, and at least one has a replicated tenant
        // that writes (so copy traffic actually flows somewhere).
        assert!(scenarios.iter().any(|s| s.durability_enabled()));
        assert!(scenarios.iter().any(|s| s.durability_writes()));
        for s in scenarios.iter().filter(|s| s.durability_enabled()) {
            let spec = s.durability_spec().expect("durable scenario has a spec");
            assert_eq!(spec.default_mode(), DurabilityMode::LocalOnly);
            assert!(spec.any_replicated());
            assert!(s.tenant_replicates(0));
            if s.tenants.len() > 1 {
                assert!(!s.tenant_replicates(1));
            }
            // The spec round-trips through its DSL rendering.
            let round: DurabilitySpec = spec.to_string().parse().expect("spec DSL parses");
            assert_eq!(round.to_string(), spec.to_string());
        }
    }

    #[test]
    fn pinned_seeds_cover_durability() {
        // The conformance suite pins seeds 0–23; the derived durability
        // dimension must put at least two durable scenarios — with copy
        // traffic actually flowing — inside it, or the replicate-liveness
        // and crash-before-replicate oracles would be vacuous.
        let durable = (0..24)
            .map(Scenario::generate)
            .filter(|s| s.durability_enabled() && s.durability_writes())
            .count();
        assert!(
            durable >= 2,
            "only {durable} of the pinned seeds replicate durable writes"
        );
    }

    #[test]
    fn pinned_seeds_cover_resharding() {
        // The conformance suite pins seeds 0–23; the derived reshard
        // dimension must put at least two resharding scenarios (and both
        // kinds across a slightly wider range) inside it, or the
        // reshard-mid-workload oracles would be vacuous.
        let resharding = (0..24)
            .map(Scenario::generate)
            .filter(|s| s.reshard_enabled())
            .count();
        assert!(
            resharding >= 2,
            "only {resharding} of the pinned seeds reshard"
        );
        for s in (0..24).map(Scenario::generate) {
            if s.reshard_enabled() {
                assert!(s.reshard_at_ns() > 0 && s.reshard_at_ns() < s.window_ns);
            }
        }
    }
}
