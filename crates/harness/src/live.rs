//! Deterministic live-runtime replay: drives a generated [`Scenario`]
//! through real in-process [`ServerCore`]s — the same cores the threaded
//! [`Deployment`](themis_server::Deployment) runs, minus the threads — on a
//! virtual clock, so a run is bit-reproducible from the scenario seed and
//! directly comparable to the discrete-event simulator's replay of the same
//! scenario.
//!
//! The driver mirrors the simulator's closed loop exactly: each tenant rank
//! keeps `queue_depth` operations in flight, an operation's kind/payload
//! comes from the shared [`OpPattern`](themis_sim::OpPattern), and operation
//! `i` of rank `r` is submitted to server `(r + i) % n_servers`. Unlike the
//! simulator, every operation here is a *real* `FsOp` executed against a
//! real [`BurstBufferFs`] — writes land bytes in shard extents, reads come
//! back with payloads, drains copy extents into a real capacity tier — which
//! is what lets the data-integrity oracle check byte-exact contents after
//! evict/stage-in roundtrips.

use crate::scenario::Scenario;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;
use themis_baselines::Algorithm;
use themis_core::policy::Policy;
use themis_fs::BurstBufferFs;
use themis_net::message::{FsOp, FsReply};
use themis_server::{ServerConfig, ServerCore};
use themis_sim::{Metrics, ServiceRecord};
use themis_stage::{BackingStore, CapacityTier, DeviceConfig, ShardMap, ShardedStore};
use themis_telemetry::{MetricsRegistry, MetricsSnapshot};

/// Virtual-clock granularity of the live driver. Poll quantisation idles the
/// device for at most one tick per worker wake-up, which is why the
/// work-conservation threshold for live runs is slightly looser than the
/// simulator's (see [`crate::oracle`]).
pub const TICK_NS: u64 = 25_000;

/// The outcome of one live replay.
#[derive(Debug)]
pub struct LiveOutcome {
    /// Foreground service records, in the simulator's metric format.
    pub metrics: Metrics,
    /// `(applied_at_ns, policy)` for boot and every applied swap.
    pub policy_epochs: Vec<(u64, Policy)>,
    /// Virtual time at which the run (including drain quiescence and the
    /// integrity read-back) finished.
    pub end_ns: u64,
    /// Whether every server's staging pipeline reported clean at quiescence
    /// (vacuously true without staging).
    pub drain_clean: bool,
    /// Total bytes the cluster restored from the capacity tier (stage-in /
    /// read-through / restore-for-write), summed over servers. Non-zero
    /// exactly when reads or writes hit evicted extents.
    pub restored_bytes: u64,
    /// Restore backlog left at the end of the run, summed over servers
    /// (must be 0 for a sound run — every queued restore either landed or
    /// was voided by delete-wins).
    pub pending_restore_bytes: u64,
    /// Total bytes the background scrubber verified against their
    /// write-back checksums, summed over servers. Non-zero exactly when the
    /// scenario enables scrub and the capacity tier held extents.
    pub scrubbed_bytes: u64,
    /// Checksum mismatches the scrubber detected, summed over servers
    /// (conformance scenarios never inject corruption, so any detection is
    /// an integrity violation in itself).
    pub scrub_errors: u64,
    /// Total bytes the rebalance class migrated after the mid-window
    /// reshard, summed over servers (0 when the scenario does not reshard).
    pub migrated_bytes: u64,
    /// Migrations refused because no replica verified against its checksum,
    /// summed over servers (must be 0 — conformance never corrupts the
    /// tier).
    pub failed_migrations: u64,
    /// Extent ranges still below the replication factor at the end of the
    /// run (0 for a sound reshard, and vacuously 0 without one).
    pub under_replicated: u64,
    /// Total bytes the replicate class landed on the replica tier, summed
    /// over servers (0 when the scenario runs without a durability spec or
    /// no replicated tenant writes).
    pub replicated_bytes: u64,
    /// Replication lag left at quiescence, summed over servers (must be 0
    /// for a sound run — the replicate lane drained its whole debt).
    pub replication_lag: u64,
    /// Copies abandoned because their source bytes could not be verified,
    /// summed over servers (must be 0 — the harness injects no corruption,
    /// so an unverifiable source is a bookkeeping bug).
    pub failed_replications: u64,
    /// Whether the sharded tier's placement matched its final map at the
    /// end of the run — every extent on exactly its replica set (vacuously
    /// true without a reshard).
    pub placement_converged: bool,
    /// Hard errors: I/O error replies, integrity mismatches, or a run that
    /// never quiesced. An empty list means the replay itself was sound.
    pub errors: Vec<String>,
    /// The cluster-shared metrics registry, cut at quiescence — *before* the
    /// integrity read-back, so every per-tenant counter corresponds
    /// one-to-one with the service records in [`Self::metrics`]. The
    /// telemetry-consistency oracle cross-checks the two accountings; the
    /// harness `--metrics-json` flag dumps this snapshot as `METRICS.json`.
    pub telemetry: MetricsSnapshot,
}

/// Deterministic fill byte of `(job, rank, slot)` — every write to a slot
/// carries this pattern, so the final content of every written slot is known
/// regardless of completion order.
pub fn fill_byte(job: u64, rank: usize, slot: u64) -> u8 {
    (1 + (job * 131 + rank as u64 * 17 + slot * 7) % 250) as u8
}

fn rank_path(job: u64, rank: usize) -> String {
    format!("/t{job}/r{rank}")
}

struct RankState {
    tenant: usize,
    rank_id: usize,
    ops_issued: u64,
    inflight: usize,
    next_ready_ns: u64,
}

/// Replays `scenario` through an in-process server cluster and collects the
/// oracle-facing outcome.
pub fn run_live(scenario: &Scenario) -> LiveOutcome {
    let n = scenario.n_servers;
    let fs = BurstBufferFs::new(n);
    let staging = scenario.live_staging();
    // Resharding scenarios run the capacity tier as a sharded router so the
    // mid-window map change has something to migrate. The second backend is
    // a deliberately *different* device preset — a reshard moves extents
    // between heterogeneous tiers. The driver keeps its own handle to
    // install the new map and audit placement at the end.
    let mut sharded: Option<Arc<ShardedStore>> = None;
    let backing: Option<Arc<dyn BackingStore>> = staging.as_ref().map(|sc| {
        if scenario.reshard_enabled() {
            let slow = Arc::new(CapacityTier::new(sc.backing_device)) as Arc<dyn BackingStore>;
            let store = Arc::new(if scenario.reshard_retires_backend() {
                // Two children from the start; the reshard collapses the map
                // onto the fast child and retires the slow one.
                let fast = Arc::new(CapacityTier::new(DeviceConfig::optane_ssd()))
                    as Arc<dyn BackingStore>;
                ShardedStore::new(
                    vec![slow, fast],
                    ShardMap::parse("00-7f=0,80-ff=1").expect("static map parses"),
                    1,
                )
            } else {
                // One child; the reshard adds the fast backend, splits the
                // map and doubles the replication factor.
                ShardedStore::new(vec![slow], ShardMap::parse("00-ff=0").unwrap(), 1)
            });
            sharded = Some(store.clone());
            store as Arc<dyn BackingStore>
        } else {
            Arc::new(CapacityTier::new(sc.backing_device)) as Arc<dyn BackingStore>
        }
    });
    // One registry for the whole cluster, exactly as the threaded
    // `Deployment` wires it — the telemetry oracle checks cluster-wide sums.
    let registry = MetricsRegistry::new();
    let mut cores: Vec<ServerCore> = (0..n)
        .map(|idx| {
            ServerCore::with_telemetry(
                idx,
                fs.clone(),
                ServerConfig {
                    algorithm: Algorithm::Themis(scenario.policy.clone()),
                    device: scenario.device,
                    sync: scenario.lambda,
                    // Never expire a tenant mid-run: the scenario drives
                    // traffic continuously and heartbeats only at boot.
                    heartbeat_timeout_ns: scenario.window_ns * 100 + 60_000_000_000,
                    rng_seed: scenario.seed ^ 0x11fe_c0de,
                    staging: staging.clone(),
                },
                backing.clone(),
                registry.clone(),
            )
        })
        .collect();

    let mut errors: Vec<String> = Vec::new();

    // ---- setup: create and prefill every rank's cyclic region -------------
    for t in &scenario.tenants {
        let job = t.meta.job.0;
        fs.mkdir_all(&format!("/t{job}"), 0)
            .expect("mkdir rank dir");
        for rank in 0..t.ranks {
            let path = rank_path(job, rank);
            fs.create(&path, 0).expect("create rank file");
            for slot in 0..scenario.slots {
                let data = vec![fill_byte(job, rank, slot); scenario.bytes_per_op as usize];
                fs.write_at(&path, slot * scenario.bytes_per_op, &data, 0)
                    .expect("prefill rank file");
            }
        }
    }
    // With staging, setup writes would otherwise boot the run with a large
    // artificial drain backlog the simulator does not model. Retire them the
    // way a completed drain would: copy to the capacity tier, mark clean.
    if let Some(backing) = &backing {
        for server in 0..n {
            for (path, stripe, _, _) in
                fs.dirty_extents_on(server, usize::MAX, &std::collections::HashSet::new())
            {
                if let Some((data, generation)) = fs.snapshot_extent_on(server, &path, stripe) {
                    backing.write_back_extent(&path, stripe, data);
                    fs.mark_clean_on(server, &path, stripe, generation);
                }
            }
        }
    }

    // ---- boot: every tenant heartbeats on every server --------------------
    for core in cores.iter_mut() {
        for t in &scenario.tenants {
            core.heartbeat(t.meta, 0);
        }
    }
    let mut policy_epochs = vec![(0u64, scenario.policy.clone())];

    let mut ranks: Vec<RankState> = Vec::new();
    for (tenant, t) in scenario.tenants.iter().enumerate() {
        for rank_id in 0..t.ranks {
            ranks.push(RankState {
                tenant,
                rank_id,
                ops_issued: 0,
                inflight: 0,
                next_ready_ns: 0,
            });
        }
    }

    let mut metrics = Metrics::new();
    // Crash-before-replicate bookkeeping: every in-window write whose
    // resolved durability mode replicates must be found checksum-valid on
    // the replica tier at the end of the run — and every write that stays
    // `local_only` must NOT be (copies are policy-bounded, never gratis).
    // Keys are `(job, rank, stripe)`.
    let durability = scenario.durability_spec();
    let mut must_replicate: std::collections::BTreeSet<(u64, usize, u64)> =
        std::collections::BTreeSet::new();
    let mut local_only_writes: std::collections::BTreeSet<(u64, usize, u64)> =
        std::collections::BTreeSet::new();
    // request_id → issuing rank.
    let mut inflight_reqs: HashMap<u64, usize> = HashMap::new();
    let mut next_request_id: u64 = 1;
    // (finish_ns, rank) completions not yet applied to the closed loop.
    let mut completions: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    let mut next_swap = 0usize;
    let deadline_ns = scenario.window_ns * 40 + 10_000_000_000;
    let mut now: u64 = 0;

    let mut resharded = false;
    loop {
        // 1. Live SetPolicy swaps that are due.
        while next_swap < scenario.swaps.len() && scenario.swaps[next_swap].0 <= now {
            let policy = scenario.swaps[next_swap].1.clone();
            for core in cores.iter_mut() {
                core.set_policy(policy.clone())
                    .expect("themis engines honor policy swaps");
            }
            policy_epochs.push((now, policy));
            next_swap += 1;
        }

        // 1b. The mid-window reshard: change the shard map while the
        //     foreground is still issuing. Every server's rebalance
        //     pipeline notices the generation bump on its next tick and
        //     starts migrating its share of the misplaced extents as
        //     policy-arbitrated Rebalance traffic.
        if !resharded && now >= scenario.reshard_at_ns() {
            if let Some(store) = &sharded {
                if scenario.reshard_retires_backend() {
                    store
                        .install_map(ShardMap::parse("00-ff=1").unwrap(), 1)
                        .expect("retire map is valid");
                } else {
                    store.add_backend(Arc::new(CapacityTier::new(DeviceConfig::optane_ssd())));
                    store
                        .install_map(ShardMap::parse("00-7f=0,80-ff=1").unwrap(), 2)
                        .expect("split map is valid");
                }
            }
            resharded = true;
        }

        // 2. Completions that have happened by now free their rank slot.
        while let Some(Reverse((finish, rank_idx))) = completions.peek().copied() {
            if finish > now {
                break;
            }
            completions.pop();
            let r = &mut ranks[rank_idx];
            r.inflight = r.inflight.saturating_sub(1);
            r.next_ready_ns = r.next_ready_ns.max(finish);
        }

        // 3. Issue from every rank that is ready (inside the window only).
        for (rank_idx, rank) in ranks.iter_mut().enumerate() {
            let t = &scenario.tenants[rank.tenant];
            while now < scenario.window_ns
                && rank.next_ready_ns <= now
                && rank.inflight < t.queue_depth
            {
                let (kind, bytes) = t.pattern.op(rank.ops_issued);
                let job = t.meta.job.0;
                let path = rank_path(job, rank.rank_id);
                let slot = rank.ops_issued % scenario.slots;
                let offset = slot * scenario.bytes_per_op;
                if kind == themis_core::request::OpKind::Write {
                    if let Some(spec) = &durability {
                        let mode = spec.resolve(t.meta.job, t.meta.user, &path);
                        let stripe_size = fs
                            .layout_of(&path)
                            .map(|l| l.config.stripe_size)
                            .unwrap_or(1 << 20);
                        let first = offset / stripe_size;
                        let last = (offset + bytes.max(1) - 1) / stripe_size;
                        for stripe in first..=last {
                            if mode.replicates() {
                                must_replicate.insert((job, rank.rank_id, stripe));
                            } else {
                                local_only_writes.insert((job, rank.rank_id, stripe));
                            }
                        }
                    }
                }
                let op = match kind {
                    themis_core::request::OpKind::Write => FsOp::WriteAt {
                        path,
                        offset,
                        data: vec![fill_byte(job, rank.rank_id, slot); bytes as usize],
                    },
                    themis_core::request::OpKind::Read => FsOp::ReadAt {
                        path,
                        offset,
                        len: bytes,
                    },
                    _ => FsOp::Stat { path },
                };
                let server = (rank.rank_id + rank.ops_issued as usize) % n;
                let request_id = next_request_id;
                next_request_id += 1;
                inflight_reqs.insert(request_id, rank_idx);
                cores[server].submit(request_id, t.meta, op, now);
                rank.ops_issued += 1;
                rank.inflight += 1;
            }
        }

        // 4. Worker loop on every server; route completions back to ranks.
        for core in cores.iter_mut() {
            for ready in core.poll(now) {
                if let FsReply::Error(e) = &ready.reply {
                    errors.push(format!("request {}: {e}", ready.request_id));
                }
                let c = &ready.completion;
                metrics.record(ServiceRecord {
                    job: c.request.meta.job,
                    bytes: c.request.bytes,
                    finish_ns: c.finish_ns,
                    queue_delay_ns: c.queue_delay_ns(),
                    latency_ns: c.finish_ns.saturating_sub(c.request.arrival_ns),
                });
                if let Some(rank_idx) = inflight_reqs.remove(&ready.request_id) {
                    completions.push(Reverse((c.finish_ns, rank_idx)));
                }
            }
        }

        // 5. λ-sync all-gather for servers whose round is due.
        if n > 1 {
            let due: Vec<usize> = (0..n).filter(|i| cores[*i].sync_due(now)).collect();
            if !due.is_empty() {
                let tables: Vec<_> = cores.iter().map(|c| c.local_table()).collect();
                for i in due {
                    let peers = tables
                        .iter()
                        .enumerate()
                        .filter(|(j, _)| *j != i)
                        .map(|(_, t)| t);
                    cores[i].absorb_peer_tables(peers, now);
                }
            }
        }

        // 6. Done once the window has passed, every op completed, every
        //    staging pipeline drained and — after a reshard — every
        //    migration pass converged on the final map generation.
        if now >= scenario.window_ns && completions.is_empty() && inflight_reqs.is_empty() {
            let drained = cores
                .iter()
                .all(|c| c.drain_status_snapshot().is_none_or(|s| s.is_clean()));
            // Deliberately not `is_converged()`: a refused (failed)
            // migration must end the run and be *reported*, not hang the
            // loop until the deadline.
            let rebalanced = cores.iter().all(|c| {
                c.rebalance_status_snapshot().is_none_or(|s| {
                    !s.pass_active && s.inflight == 0 && s.generation == s.converged_generation
                })
            });
            // Replication lag must drain before quiescence. `is_idle()`
            // cannot hang on a failed copy — failures retire their debt and
            // are *reported* (as `failed_replications`), not retried forever.
            let replicated = cores
                .iter()
                .all(|c| c.replicate_status_snapshot().is_none_or(|s| s.is_idle()));
            if drained && rebalanced && replicated {
                break;
            }
        }
        now += TICK_NS;
        if now > deadline_ns {
            errors.push(format!(
                "run did not quiesce within {deadline_ns} ns (drain stuck?)"
            ));
            break;
        }
    }

    let drain_clean = cores
        .iter()
        .all(|c| c.drain_status_snapshot().is_none_or(|s| s.is_clean()));

    // Cut the telemetry snapshot *here* — after quiescence, before the
    // integrity read-back — so per-tenant ops/bytes counters equal the
    // service-record accounting exactly (the read-back issues extra reads
    // that the metric stream deliberately does not record).
    let telemetry = registry.snapshot(now);

    // ---- integrity read-back ---------------------------------------------
    // Every slot of every rank was prefilled (and possibly overwritten with
    // the identical pattern, drained, evicted and staged back in). Read each
    // one back through the server data path — which read-throughs evicted
    // extents — and demand byte-exact contents.
    let mut expected: HashMap<u64, (Vec<u8>, String)> = HashMap::new();
    for t in &scenario.tenants {
        let job = t.meta.job.0;
        for rank in 0..t.ranks {
            for slot in 0..scenario.slots {
                let request_id = next_request_id;
                next_request_id += 1;
                let server = (rank + slot as usize) % n;
                let path = rank_path(job, rank);
                cores[server].submit(
                    request_id,
                    t.meta,
                    FsOp::ReadAt {
                        path: path.clone(),
                        offset: slot * scenario.bytes_per_op,
                        len: scenario.bytes_per_op,
                    },
                    now,
                );
                expected.insert(
                    request_id,
                    (
                        vec![fill_byte(job, rank, slot); scenario.bytes_per_op as usize],
                        format!("{path}@slot{slot}"),
                    ),
                );
            }
        }
    }
    let readback_deadline = now + 60_000_000_000;
    while !expected.is_empty() && now <= readback_deadline {
        for core in cores.iter_mut() {
            for ready in core.poll(now) {
                let Some((want, what)) = expected.remove(&ready.request_id) else {
                    continue;
                };
                match &ready.reply {
                    FsReply::Data(got) if *got == want => {}
                    FsReply::Data(got) => errors.push(format!(
                        "integrity: {what}: got {} bytes, first diff at {:?}",
                        got.len(),
                        want.iter().zip(got.iter()).position(|(a, b)| a != b)
                    )),
                    other => errors.push(format!("integrity: {what}: unexpected reply {other:?}")),
                }
            }
        }
        now += TICK_NS;
    }
    for (_, (_, what)) in expected {
        errors.push(format!("integrity: {what}: read-back never completed"));
    }

    let (restored_bytes, pending_restore_bytes) = cores
        .iter()
        .filter_map(|c| c.drain_status_snapshot())
        .fold((0u64, 0u64), |(restored, pending), s| {
            (
                restored + s.restored_bytes,
                pending + s.pending_restore_bytes,
            )
        });
    let (scrubbed_bytes, scrub_errors) = cores
        .iter()
        .filter_map(|c| c.scrub_status_snapshot())
        .fold((0u64, 0u64), |(bytes, errors), s| {
            (bytes + s.scrubbed_bytes, errors + s.errors_detected)
        });
    let (migrated_bytes, failed_migrations) = cores
        .iter()
        .filter_map(|c| c.rebalance_status_snapshot())
        .fold((0u64, 0u64), |(bytes, failed), s| {
            (bytes + s.migrated_bytes, failed + s.failed_extents)
        });
    let (replicated_bytes, replication_lag, failed_replications) = cores
        .iter()
        .filter_map(|c| c.replicate_status_snapshot())
        .fold((0u64, 0u64, 0u64), |(bytes, lag, failed), s| {
            (
                bytes + s.replicated_bytes,
                lag + s.lag_bytes,
                failed + s.failed_replications,
            )
        });

    // ---- crash-before-replicate audit -------------------------------------
    // A burst-buffer loss at this instant keeps exactly the replica tier.
    // Every stripe written in-window under a replicated mode must be there,
    // checksum-valid and byte-exact; every stripe that stayed `local_only`
    // must not be (its loss is the mode's documented contract, and a gratis
    // copy would mean replication escaped its policy bounds).
    for (job, rank, stripe) in &must_replicate {
        let path = rank_path(*job, *rank);
        let stripe_size = fs
            .layout_of(&path)
            .map(|l| l.config.stripe_size)
            .unwrap_or(1 << 20);
        let file_len = scenario.slots * scenario.bytes_per_op;
        let start = stripe * stripe_size;
        let want: Vec<u8> = (start..(start + stripe_size).min(file_len))
            .map(|o| fill_byte(*job, *rank, o / scenario.bytes_per_op))
            .collect();
        match cores.iter().find_map(|c| c.replica_extent(&path, *stripe)) {
            Some(got) if got == want => {}
            Some(got) => errors.push(format!(
                "crash-before-replicate: {path} stripe {stripe}: replica holds {} bytes, \
                 first diff at {:?}",
                got.len(),
                want.iter().zip(got.iter()).position(|(a, b)| a != b)
            )),
            None => errors.push(format!(
                "crash-before-replicate: {path} stripe {stripe}: durable write missing \
                 from the replica tier at quiescence"
            )),
        }
    }
    for (job, rank, stripe) in &local_only_writes {
        let path = rank_path(*job, *rank);
        if cores
            .iter()
            .any(|c| c.replica_extent(&path, *stripe).is_some())
        {
            errors.push(format!(
                "crash-before-replicate: {path} stripe {stripe}: local_only write found \
                 on the replica tier (copy escaped its policy bounds)"
            ));
        }
    }
    // Audit the tier's placement directly against its final map — the
    // oracle-facing ground truth that "every range is back to k replicas".
    let (under_replicated, placement_converged) = match &sharded {
        Some(store) => {
            let report = store.verify_placement();
            (report.under_replicated as u64, report.converged())
        }
        None => (0, true),
    };

    LiveOutcome {
        metrics,
        policy_epochs,
        end_ns: now,
        drain_clean,
        restored_bytes,
        pending_restore_bytes,
        scrubbed_bytes,
        scrub_errors,
        migrated_bytes,
        failed_migrations,
        under_replicated,
        placement_converged,
        replicated_bytes,
        replication_lag,
        failed_replications,
        errors,
        telemetry,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_replay_is_deterministic() {
        let scenario = Scenario::generate(3);
        let a = run_live(&scenario);
        let b = run_live(&scenario);
        assert_eq!(a.metrics.total_bytes_all(), b.metrics.total_bytes_all());
        assert_eq!(a.metrics.len(), b.metrics.len());
        assert_eq!(a.end_ns, b.end_ns);
        assert_eq!(a.policy_epochs, b.policy_epochs);
        assert!(a.errors.is_empty(), "{:?}", a.errors);
    }

    #[test]
    fn fill_bytes_are_nonzero_and_slot_dependent() {
        // Zero would be indistinguishable from a hole or a lost restore.
        for job in 1..6u64 {
            for rank in 0..4usize {
                for slot in 0..8u64 {
                    assert_ne!(fill_byte(job, rank, slot), 0);
                }
            }
        }
        assert_ne!(fill_byte(1, 0, 0), fill_byte(1, 0, 1));
        assert_ne!(fill_byte(1, 0, 0), fill_byte(2, 0, 0));
    }
}
