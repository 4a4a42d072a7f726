//! Analytic fairness oracles: the falsifiable statements a conformant run
//! must satisfy, checked against the metric stream of either runtime.
//!
//! * **Share bounds** — within every policy epoch, each (continuously
//!   backlogged) tenant's byte share is within [`share_tolerance`] of the
//!   share [`compute_shares`] assigns it under the epoch's policy. This is
//!   the paper's WFQ guarantee stated as an invariant.
//! * **Work conservation** — the device is never idle while requests queue:
//!   summed service time over the issuing window reaches
//!   [`MIN_UTILISATION_SIM`] / [`MIN_UTILISATION_LIVE`] of worker capacity
//!   (the live bound is looser only because the live driver polls on a
//!   [`TICK_NS`](crate::live::TICK_NS) quantum).
//! * **No starvation** — every tenant is served in every (trimmed) policy
//!   epoch, and no completion gap exceeds [`STARVATION_GAP_FRACTION`] of
//!   the window.
//! * **Agreement** — per-tenant full-window byte shares of the simulator
//!   and the live runtime match within [`EPS_AGREEMENT`].
//! * **Scrub liveness** — in scrub-enabled scenarios, the maintenance
//!   class verifies bytes in both runtimes (no lane starvation), reports
//!   zero mismatches (the harness injects no corruption), and the sim-side
//!   scrub backlog is clear at quiescence ([`check_scrub_liveness`]).
//! * **Rebalance liveness** — in resharding scenarios, the mid-run shard
//!   map change migrates bytes in both runtimes with zero failed
//!   migrations, and at quiescence the live tier's placement audit shows
//!   every extent back to its full replica set with no range left
//!   under-replicated ([`check_rebalance_liveness`]).
//! * **Telemetry consistency** — the live cluster's metrics registry agrees
//!   exactly with the driver's reply-derived accounting: per-tenant op and
//!   byte counters, histogram sample counts, and the park/wake pairing
//!   ([`check_telemetry_consistency`]).
//!
//! Epoch windows are trimmed ([`trim_margin_ns`]) before measuring: a swap
//! re-derives shares immediately, but requests admitted under the old epoch
//! still drain, so the boundary quarters are transition regions, not
//! violations.
//!
//! # Restore-storm conditioning
//!
//! Since stage-in became policy-admitted, a tenant whose reads (or
//! restore-for-write merges) hit evicted extents is *deliberately* slowed
//! to the restore class's weighted share — that is the feature, not a
//! fairness bug. In eviction scenarios the per-tenant byte share therefore
//! legitimately deviates from `compute_shares` (the gated tenant sheds
//! share; opportunity fairness hands it to the others), and the simulator —
//! which does not track per-extent residency — cannot reproduce the live
//! runtime's miss pattern. For those scenarios the two-sided share-bounds
//! and sim↔live agreement oracles are replaced by
//! [`check_restore_backpressure`]: restores must actually flow, the backlog
//! must clear, and no tenant may starve (the no-starvation and integrity
//! oracles still apply unconditionally). The quantitative protection bound —
//! an un-gated checkpointer keeps ≥ w/(w+1) of its no-restore throughput —
//! is asserted deterministically in `tests/staging_drain.rs`, where the
//! workload controls which tenant is gated.

use crate::live::LiveOutcome;
use crate::scenario::Scenario;
use themis_core::entity::JobMeta;
use themis_core::policy::Policy;
use themis_core::shares::compute_shares;
use themis_sim::{Metrics, SimResult};

/// Floor of the per-epoch share tolerance. Statistical-token scheduling is
/// randomized per service slot, so observed shares are binomial around the
/// assignment; the effective tolerance is
/// `max(EPS_SHARE_FLOOR, 4σ)` with `σ = sqrt(p(1-p)/n)` over the `n`
/// service slots actually observed in the trimmed epoch (see
/// [`share_tolerance`]). Four standard deviations put the per-check false
/// positive rate around `6×10⁻⁵` while still catching any real
/// mis-weighting (a 2:1 policy error shifts shares by ≥0.15 at these `n`).
pub const EPS_SHARE_FLOOR: f64 = 0.08;

/// Additional tolerance per server beyond the first. Ranks alternate
/// servers per operation, so a tenant's *per-server* backlog is a random
/// walk of its total outstanding work; when it momentarily empties on one
/// server, opportunity fairness hands those slots away — a legitimate
/// (paper-sanctioned) deviation from the nominal share that grows with
/// server count, like λ-delayed fairness itself.
pub const EPS_SHARE_PER_EXTRA_SERVER: f64 = 0.04;

/// The share-bound tolerance for an expected share `p` measured over `n`
/// service slots on `n_servers` servers.
pub fn share_tolerance(p: f64, n: usize, n_servers: usize) -> f64 {
    let sigma = (p * (1.0 - p) / n.max(1) as f64).sqrt();
    let floor = EPS_SHARE_FLOOR + EPS_SHARE_PER_EXTRA_SERVER * (n_servers.max(1) - 1) as f64;
    floor.max(4.0 * sigma)
}

/// Absolute tolerance between the simulator's and the live runtime's
/// full-window per-tenant shares. The two runtimes share scheduler, device
/// model and policy code but draw different RNG streams and quantise time
/// differently, so this is a statistical bound, not an exactness claim.
pub const EPS_AGREEMENT: f64 = 0.10;

/// Minimum device utilisation over the issuing window, simulator runs.
pub const MIN_UTILISATION_SIM: f64 = 0.88;

/// Minimum device utilisation over the issuing window, live runs (poll
/// quantisation can idle a worker for up to one tick per wake-up).
pub const MIN_UTILISATION_LIVE: f64 = 0.78;

/// Largest tolerated gap between consecutive completions of a backlogged
/// tenant, as a fraction of the issuing window.
pub const STARVATION_GAP_FRACTION: f64 = 0.25;

/// Gap-limit multiplier for eviction (restore-storm) scenarios: any tenant
/// can be restore-gated there (reads wait on the weighted restore pipeline;
/// writes to evicted extents wait on pinned restore-for-write), which
/// legitimately stretches completion gaps by up to the restore class's
/// weight. 2× keeps the oracle falsifiable — a genuinely starved tenant
/// produces gaps of the *whole remaining window*, far beyond it.
pub const RESTORE_STORM_GAP_RELAXATION: f64 = 2.0;

/// One oracle violation; collected into a
/// [`ConformanceReport`](crate::report::ConformanceReport).
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which oracle tripped (`share-bounds`, `work-conservation`,
    /// `no-starvation`, `integrity`, `agreement`, `telemetry`).
    pub oracle: &'static str,
    /// Which runtime produced the evidence (`sim`, `live`, or `sim↔live`).
    pub run: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}: {}", self.run, self.oracle, self.detail)
    }
}

/// The policy epochs of a scenario as measurement segments
/// `(start_ns, end_ns, policy)` covering `[0, window_ns)`.
pub fn epoch_segments(scenario: &Scenario) -> Vec<(u64, u64, Policy)> {
    let epochs = scenario.policy_epochs();
    let mut out = Vec::with_capacity(epochs.len());
    for (i, (start, policy)) in epochs.iter().enumerate() {
        let end = epochs
            .get(i + 1)
            .map(|(s, _)| *s)
            .unwrap_or(scenario.window_ns);
        out.push((*start, end, policy.clone()));
    }
    out
}

/// The boundary margin trimmed off each end of a segment before measuring:
/// a sixth of the segment, at least 10 ms — enough for the pre-swap backlog
/// (tens of requests) to drain and shares to take visible effect.
pub fn trim_margin_ns(segment_ns: u64) -> u64 {
    (segment_ns / 6).max(10_000_000)
}

/// Share-bounds oracle: per trimmed epoch, per tenant, observed byte share
/// vs. the `compute_shares` assignment.
pub fn check_share_bounds(
    scenario: &Scenario,
    run: &'static str,
    metrics: &Metrics,
) -> Vec<Violation> {
    let metas: Vec<JobMeta> = scenario.tenant_metas();
    let mut violations = Vec::new();
    for (start, end, policy) in epoch_segments(scenario) {
        let margin = trim_margin_ns(end - start);
        let (lo, hi) = (start + margin, end.saturating_sub(margin));
        if lo >= hi {
            continue;
        }
        let total = metrics.total_bytes_in_window(lo, hi);
        if total == 0 {
            violations.push(Violation {
                oracle: "share-bounds",
                run,
                detail: format!("no service at all in epoch [{lo}, {hi}) under '{policy}'"),
            });
            continue;
        }
        let slots = metrics
            .records()
            .iter()
            .filter(|r| r.finish_ns >= lo && r.finish_ns < hi)
            .count();
        let expected = compute_shares(&policy, &metas);
        for meta in &metas {
            let observed = metrics.bytes_in_window(meta.job, lo, hi) as f64 / total as f64;
            let want = expected.share(meta.job);
            let tolerance = share_tolerance(want, slots, scenario.n_servers);
            if (observed - want).abs() > tolerance {
                violations.push(Violation {
                    oracle: "share-bounds",
                    run,
                    detail: format!(
                        "{}: share {observed:.3} vs expected {want:.3} \
                         (|Δ| > {tolerance:.3} at n={slots}) \
                         in epoch [{}ms, {}ms) under '{policy}'",
                        meta.job,
                        lo / 1_000_000,
                        hi / 1_000_000,
                    ),
                });
            }
        }
    }
    violations
}

/// Work-conservation oracle: summed per-request service time over the
/// issuing window must reach `min_utilisation` of total worker capacity.
/// Only meaningful without staging (drain service is charged to the same
/// device but reported out-of-band); staged runs are instead required to
/// drain fully, which the integrity oracle checks.
pub fn check_work_conservation(
    scenario: &Scenario,
    run: &'static str,
    metrics: &Metrics,
    min_utilisation: f64,
) -> Vec<Violation> {
    if scenario.staging.is_some() {
        return Vec::new();
    }
    let busy_ns: u64 = metrics
        .records()
        .iter()
        .filter(|r| r.finish_ns <= scenario.window_ns)
        .map(|r| r.latency_ns - r.queue_delay_ns)
        .sum();
    let workers = scenario.device.workers.max(1) as u64 * scenario.n_servers as u64;
    let capacity_ns = scenario.window_ns * workers;
    let utilisation = busy_ns as f64 / capacity_ns as f64;
    if utilisation < min_utilisation {
        vec![Violation {
            oracle: "work-conservation",
            run,
            detail: format!(
                "device utilisation {utilisation:.3} below {min_utilisation} while every \
                 tenant ran a saturating closed loop"
            ),
        }]
    } else {
        Vec::new()
    }
}

/// No-starvation oracle: every tenant is served in every trimmed epoch and
/// never waits longer than [`STARVATION_GAP_FRACTION`] of the window
/// between completions.
pub fn check_no_starvation(
    scenario: &Scenario,
    run: &'static str,
    metrics: &Metrics,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    // Only the live runtime tracks residency, so only its tenants can be
    // restore-gated; the simulator keeps the strict gap limit even in
    // eviction scenarios.
    let relaxation = if run == "live" && scenario.staging.as_ref().is_some_and(|s| s.eviction) {
        RESTORE_STORM_GAP_RELAXATION
    } else {
        1.0
    };
    let gap_limit = ((scenario.window_ns as f64) * STARVATION_GAP_FRACTION * relaxation) as u64;
    for meta in scenario.tenant_metas() {
        let mut finishes: Vec<u64> = metrics
            .records()
            .iter()
            .filter(|r| r.job == meta.job && r.finish_ns <= scenario.window_ns)
            .map(|r| r.finish_ns)
            .collect();
        finishes.sort_unstable();
        if finishes.is_empty() {
            violations.push(Violation {
                oracle: "no-starvation",
                run,
                detail: format!("{}: served nothing in the whole window", meta.job),
            });
            continue;
        }
        let mut prev = 0u64;
        let mut worst = 0u64;
        for f in finishes.iter().chain(std::iter::once(&scenario.window_ns)) {
            worst = worst.max(f.saturating_sub(prev));
            prev = *f;
        }
        if worst > gap_limit {
            violations.push(Violation {
                oracle: "no-starvation",
                run,
                detail: format!(
                    "{}: {}ms completion gap exceeds {}ms",
                    meta.job,
                    worst / 1_000_000,
                    gap_limit / 1_000_000
                ),
            });
        }
        // Per-epoch service: no policy swap may starve a tenant out of an
        // entire epoch.
        for (start, end, policy) in epoch_segments(scenario) {
            let margin = trim_margin_ns(end - start);
            let (lo, hi) = (start + margin, end.saturating_sub(margin));
            if lo < hi && metrics.bytes_in_window(meta.job, lo, hi) == 0 {
                violations.push(Violation {
                    oracle: "no-starvation",
                    run,
                    detail: format!(
                        "{}: no service in epoch [{}ms, {}ms) under '{policy}'",
                        meta.job,
                        lo / 1_000_000,
                        hi / 1_000_000
                    ),
                });
            }
        }
    }
    violations
}

/// Restore-backpressure oracle for eviction (restore-storm) scenarios: the
/// policy-admitted stage-in path must actually carry the storm and drain it.
///
/// * restore traffic flowed: a storm scenario that restored zero bytes
///   means evicted data was served some other way (or reads silently
///   zero-filled — the integrity oracle would also catch that);
/// * the restore backlog cleared: pending restore bytes at quiescence mean
///   a parked operation leaked.
pub fn check_restore_backpressure(scenario: &Scenario, live: &LiveOutcome) -> Vec<Violation> {
    let mut violations = Vec::new();
    if scenario.restore_storm() && live.restored_bytes == 0 {
        violations.push(Violation {
            oracle: "restore-backpressure",
            run: "live",
            detail: "restore storm scenario restored zero bytes — evicted data \
                     bypassed the policy-admitted stage-in path"
                .into(),
        });
    }
    if live.pending_restore_bytes > 0 {
        violations.push(Violation {
            oracle: "restore-backpressure",
            run: "live",
            detail: format!(
                "{} restore bytes still pending at quiescence (parked op leaked?)",
                live.pending_restore_bytes
            ),
        });
    }
    violations
}

/// Scrub-liveness oracle for scrub-enabled scenarios: the maintenance
/// class must make progress under every foreground mix — without any
/// conditioning of the *sim-side* share bounds, which keep running
/// unchanged (scrub traffic is reported out of band, and its 16:1 weight
/// keeps the foreground perturbation inside the existing tolerances — the
/// README's "Scrub conditioning" note).
///
/// * **live**: the capacity tier always holds extents (the prefilled rank
///   regions are retired into it at boot), so a scrubber that verified
///   zero bytes over the whole run starved — the lane-fairness failure this
///   class exists to catch. Any detected checksum mismatch is corruption
///   the harness never injected, i.e. a drain/scrub bookkeeping bug.
/// * **sim**: the byte-level model verifies every drained byte exactly
///   once; a backlog left at quiescence (or a reported mismatch at error
///   rate 0) is a violation.
pub fn check_scrub_liveness(
    scenario: &Scenario,
    sim: &SimResult,
    live: &LiveOutcome,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    if !scenario.scrub_enabled() {
        return violations;
    }
    if live.scrubbed_bytes == 0 {
        violations.push(Violation {
            oracle: "scrub-liveness",
            run: "live",
            detail: "scrub enabled but zero bytes verified over the whole run \
                     (maintenance lane starved?)"
                .into(),
        });
    }
    if live.scrub_errors > 0 {
        violations.push(Violation {
            oracle: "scrub-liveness",
            run: "live",
            detail: format!(
                "{} checksum mismatches detected with no injected corruption",
                live.scrub_errors
            ),
        });
    }
    if sim.scrubbed_bytes < sim.drained_bytes {
        violations.push(Violation {
            oracle: "scrub-liveness",
            run: "sim",
            detail: format!(
                "scrub backlog at quiescence: {} of {} drained bytes verified",
                sim.scrubbed_bytes, sim.drained_bytes
            ),
        });
    }
    if sim.scrub_errors > 0 {
        violations.push(Violation {
            oracle: "scrub-liveness",
            run: "sim",
            detail: format!(
                "{} checksum mismatches reported at error rate 0",
                sim.scrub_errors
            ),
        });
    }
    violations
}

/// Rebalance-liveness oracle: a resharding scenario must actually move the
/// data. Checked:
///
/// * live migrated at least one byte (a reshard that triggers no migration
///   means the pipeline never woke, or the ownership filter dropped every
///   extent);
/// * zero failed migrations — the harness injects no corruption, so a
///   checksum-refused copy is a real bug, not an environmental hazard;
/// * the placement audit at quiescence is clean: every extent holds its
///   full replica set under the final map, with no under-replicated range
///   (acknowledged bytes survived the reshard) — `placement_converged`
///   additionally requires zero stale copies, i.e. the retired holders
///   were pruned;
/// * the sim's migration backlog is fully consumed (its byte model of the
///   same pass).
pub fn check_rebalance_liveness(
    scenario: &Scenario,
    sim: &SimResult,
    live: &LiveOutcome,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    if !scenario.reshard_enabled() {
        return violations;
    }
    if live.migrated_bytes == 0 {
        violations.push(Violation {
            oracle: "rebalance-liveness",
            run: "live",
            detail: "reshard fired but zero bytes migrated over the whole run \
                     (rebalance lane starved, or the pass never started?)"
                .into(),
        });
    }
    if live.failed_migrations > 0 {
        violations.push(Violation {
            oracle: "rebalance-liveness",
            run: "live",
            detail: format!(
                "{} migrations failed checksum verification with no injected corruption",
                live.failed_migrations
            ),
        });
    }
    if live.under_replicated > 0 {
        violations.push(Violation {
            oracle: "rebalance-liveness",
            run: "live",
            detail: format!(
                "{} extents under-replicated at quiescence (acknowledged bytes \
                 not back to k replicas after the reshard)",
                live.under_replicated
            ),
        });
    }
    if !live.placement_converged {
        violations.push(Violation {
            oracle: "rebalance-liveness",
            run: "live",
            detail: "placement audit not converged at quiescence (stale copies \
                     left on retired holders?)"
                .into(),
        });
    }
    let backlog = scenario.sim_rebalance_backlog_bytes();
    if sim.migrated_bytes < backlog {
        violations.push(Violation {
            oracle: "rebalance-liveness",
            run: "sim",
            detail: format!(
                "migration backlog at quiescence: {} of {} bytes moved",
                sim.migrated_bytes, backlog
            ),
        });
    }
    violations
}

/// Replicate-liveness oracle for durable scenarios: the durability classes
/// must actually deliver. Checked:
///
/// * the live replication lag drained to zero by quiescence — every byte of
///   copy-out debt the durability spec created was retired (the "lag drains
///   to zero" oracle; a positive residue means the replicate lane starved
///   or leaked debt);
/// * zero failed replications — the harness never unlinks or truncates,
///   so a copy abandoned for a vanished source is a bookkeeping bug, not an
///   environmental hazard (the live driver separately audits the capacity
///   tier's *contents* byte-exact — the crash-before-replicate check — and
///   reports mismatches through `LiveOutcome::errors`);
/// * when a replicated tenant writes, the replicate lane wrote copy bytes
///   in both runtimes (a durable scenario that copied nothing early means
///   the lane starved or the policy resolution dropped every write);
/// * the sim's byte-level replication debt is fully consumed at quiescence
///   (`residual_replication_lag` 0).
pub fn check_replicate_liveness(
    scenario: &Scenario,
    sim: &SimResult,
    live: &LiveOutcome,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    if !scenario.durability_enabled() {
        return violations;
    }
    if live.replication_lag > 0 {
        violations.push(Violation {
            oracle: "replicate-liveness",
            run: "live",
            detail: format!(
                "{} bytes of replication lag left at quiescence (replicate lane \
                 starved, or debt leaked?)",
                live.replication_lag
            ),
        });
    }
    if live.failed_replications > 0 {
        violations.push(Violation {
            oracle: "replicate-liveness",
            run: "live",
            detail: format!(
                "{} copies abandoned for vanished sources in a run that deletes nothing",
                live.failed_replications
            ),
        });
    }
    if scenario.durability_writes() && live.replicated_bytes == 0 {
        violations.push(Violation {
            oracle: "replicate-liveness",
            run: "live",
            detail: "replicated tenants wrote but the replicate lane copied zero bytes \
                     (replicate lane starved, or the durability resolution dropped every \
                     write?)"
                .into(),
        });
    }
    if sim.residual_replication_lag > 0 {
        violations.push(Violation {
            oracle: "replicate-liveness",
            run: "sim",
            detail: format!(
                "replication debt at quiescence: {} bytes never copied \
                 ({} replicated)",
                sim.residual_replication_lag, sim.replicated_bytes
            ),
        });
    }
    if scenario.sim_replicate_fraction() > 0.0 && sim.replicated_bytes == 0 {
        violations.push(Violation {
            oracle: "replicate-liveness",
            run: "sim",
            detail: "byte-level model owed copies but replicated zero bytes".into(),
        });
    }
    violations
}

/// Telemetry-consistency oracle: the live runtime's metrics registry must
/// agree *exactly* with the reply-derived accounting the driver keeps on the
/// client side. Both count the same completions through independent code
/// paths — the registry from inside `ServerCore` as operations finish, the
/// driver from the replies it polls — so any drift is a telemetry bug
/// (missed instrument, double count, or a snapshot torn across writers),
/// never workload noise. Checked:
///
/// * per tenant, cluster-summed `ops_completed` / `bytes_completed` equal
///   the driver's service-record count / byte sum (the snapshot is cut at
///   quiescence, before the integrity read-back, so the two accountings
///   cover the identical set of operations);
/// * per tenant, the latency histograms saw one sample per completed op;
/// * the foreground class's `parked_ops` equals `wakes` — at quiescence
///   every parked operation must have woken (a leak here is the bug the
///   restore-backpressure oracle sees as pending bytes, caught earlier and
///   more precisely by the counter pair);
/// * without staging, no background lane recorded any traffic.
pub fn check_telemetry_consistency(scenario: &Scenario, live: &LiveOutcome) -> Vec<Violation> {
    let mut violations = Vec::new();
    let snap = &live.telemetry;
    let mut fail = |detail: String| {
        violations.push(Violation {
            oracle: "telemetry",
            run: "live",
            detail,
        });
    };

    for meta in scenario.tenant_metas() {
        let job = meta.job.0;
        let records: Vec<_> = live
            .metrics
            .records()
            .iter()
            .filter(|r| r.job == meta.job)
            .collect();
        let reply_ops = records.len() as u64;
        let reply_bytes: u64 = records.iter().map(|r| r.bytes).sum();
        let ops = snap.tenant_counter_sum(job, "foreground", "ops_completed");
        let bytes = snap.tenant_counter_sum(job, "foreground", "bytes_completed");
        if ops != reply_ops {
            fail(format!(
                "tenant {job}: registry ops_completed {ops} vs {reply_ops} reply-derived"
            ));
        }
        if bytes != reply_bytes {
            fail(format!(
                "tenant {job}: registry bytes_completed {bytes} vs {reply_bytes} reply-derived"
            ));
        }
        for hist in ["queue_delay_ns", "service_ns"] {
            let samples: u64 = (0..scenario.n_servers)
                .map(|s| snap.histogram(s as u32, job, "foreground", hist).count)
                .sum();
            if samples != reply_ops {
                fail(format!(
                    "tenant {job}: {hist} histogram saw {samples} samples for {reply_ops} ops"
                ));
            }
        }
    }

    let parked = snap.lane_counter_sum("foreground", "parked_ops");
    let wakes = snap.lane_counter_sum("foreground", "wakes");
    if parked != wakes {
        fail(format!(
            "{parked} ops parked but {wakes} woken at quiescence (parked op leaked?)"
        ));
    }

    if scenario.staging.is_none() {
        for lane in ["drain", "restore", "scrub", "rebalance", "replicate"] {
            for name in [
                "admitted_bytes",
                "selected_charged_bytes",
                "selected_uncharged_bytes",
            ] {
                let v = snap.lane_counter_sum(lane, name);
                if v != 0 {
                    fail(format!(
                        "staging disabled but {lane}.{name} recorded {v} bytes"
                    ));
                }
            }
        }
    }

    violations
}

/// Agreement oracle: simulator and live runtime assign each tenant the same
/// full-window byte share, within [`EPS_AGREEMENT`].
pub fn check_agreement(scenario: &Scenario, sim: &Metrics, live: &Metrics) -> Vec<Violation> {
    let window = scenario.window_ns;
    let sim_total = sim.total_bytes_in_window(0, window);
    let live_total = live.total_bytes_in_window(0, window);
    if sim_total == 0 || live_total == 0 {
        return vec![Violation {
            oracle: "agreement",
            run: "sim↔live",
            detail: format!("empty run (sim {sim_total} B, live {live_total} B)"),
        }];
    }
    let mut violations = Vec::new();
    for meta in scenario.tenant_metas() {
        let s = sim.bytes_in_window(meta.job, 0, window) as f64 / sim_total as f64;
        let l = live.bytes_in_window(meta.job, 0, window) as f64 / live_total as f64;
        if (s - l).abs() > EPS_AGREEMENT {
            violations.push(Violation {
                oracle: "agreement",
                run: "sim↔live",
                detail: format!(
                    "{}: sim share {s:.3} vs live share {l:.3} (|Δ| > {EPS_AGREEMENT})",
                    meta.job
                ),
            });
        }
    }
    violations
}
