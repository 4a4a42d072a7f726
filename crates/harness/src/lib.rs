//! # themis-harness
//!
//! The differential conformance harness: seeded scenario fuzzing with
//! analytic fairness oracles, cross-checked between the discrete-event
//! simulator and the live in-process server runtime.
//!
//! The paper's central claim — policy-driven WFQ delivers each tenant its
//! configured share under arbitrary mixes of checkpoint bursts, reads,
//! drains and live policy swaps — is only as good as the machinery that can
//! falsify it. This crate is that machinery:
//!
//! 1. [`scenario::Scenario::generate`] expands a `u64` seed into a
//!    randomized multi-tenant workload (skewed weights, device-speed
//!    asymmetry, mid-flight `SetPolicy` swaps, staging/drain pressure).
//! 2. The scenario runs **twice**: through [`themis_sim::Simulation`] and
//!    through [`live::run_live`]'s virtual-clock cluster of real
//!    [`ServerCore`](themis_server::ServerCore)s.
//! 3. [`oracle`] checks both metric streams against the analytic oracles —
//!    WFQ share bounds per [`compute_shares`](themis_core::shares::compute_shares),
//!    work conservation, no starvation across policy epochs — plus
//!    byte-exact data integrity on the live run and per-tenant share
//!    agreement between the two runs.
//! 4. [`report::ConformanceReport`] turns any violation into a one-command
//!    reproduction line carrying the seed.
//!
//! `tests/conformance.rs` pins a fixed seed set as a tier-1 gate; the
//! `harness` binary sweeps arbitrary seed ranges outside CI.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod live;
pub mod oracle;
pub mod report;
pub mod scenario;

pub use live::{run_live, LiveOutcome};
pub use oracle::Violation;
pub use report::ConformanceReport;
pub use scenario::Scenario;

use themis_sim::Simulation;

/// Runs the full differential conformance check for one seed: generate the
/// scenario, replay it through the simulator and the live runtime, evaluate
/// every oracle.
pub fn run_conformance(seed: u64) -> ConformanceReport {
    let scenario = Scenario::generate(seed);

    let sim = Simulation::new(scenario.sim_config(), scenario.sim_jobs()).run();
    let live = live::run_live(&scenario);

    let mut violations = Vec::new();
    // Eviction scenarios are restore-gated *in the live runtime*: tenants
    // touching evicted extents are deliberately slowed to the restore
    // class's weighted share, so their live byte shares legitimately
    // deviate from `compute_shares` and from the residency-blind simulator.
    // For those scenarios the live share-bounds and sim↔live agreement
    // oracles are replaced by the restore-backpressure oracle (see
    // `oracle`'s "Restore-storm conditioning" docs). The *sim* run is never
    // gated (its conformance config pins `restore_miss_rate` to 0), so its
    // share-bounds oracle keeps running unconditionally — as do
    // no-starvation, work conservation and integrity.
    violations.extend(oracle::check_share_bounds(&scenario, "sim", &sim.metrics));
    let restore_gated = scenario.staging.as_ref().is_some_and(|s| s.eviction);
    if restore_gated {
        violations.extend(oracle::check_restore_backpressure(&scenario, &live));
    } else {
        violations.extend(oracle::check_share_bounds(&scenario, "live", &live.metrics));
        violations.extend(oracle::check_agreement(
            &scenario,
            &sim.metrics,
            &live.metrics,
        ));
    }
    violations.extend(oracle::check_work_conservation(
        &scenario,
        "sim",
        &sim.metrics,
        oracle::MIN_UTILISATION_SIM,
    ));
    violations.extend(oracle::check_work_conservation(
        &scenario,
        "live",
        &live.metrics,
        oracle::MIN_UTILISATION_LIVE,
    ));
    violations.extend(oracle::check_no_starvation(&scenario, "sim", &sim.metrics));
    violations.extend(oracle::check_no_starvation(
        &scenario,
        "live",
        &live.metrics,
    ));
    // Maintenance-class liveness: scrub-enabled scenarios must actually
    // verify bytes (in both runtimes) without detecting corruption the
    // harness never injected. The sim-side share-bounds oracle above keeps
    // running unconditioned — that pairing is the scrub oracle's point.
    violations.extend(oracle::check_scrub_liveness(&scenario, &sim, &live));
    // Rebalance liveness: resharding scenarios must migrate their misplaced
    // extents checksum-verified (zero failures) and land every range back on
    // its full replica set by quiescence — acknowledged bytes survive the
    // reshard, while the share-bounds oracles above prove the migration
    // stayed within its weighted lane.
    violations.extend(oracle::check_rebalance_liveness(&scenario, &sim, &live));
    // Replicate liveness: durable scenarios must retire their whole
    // replication debt by quiescence in both runtimes, with zero failed
    // copies — while the live driver's crash-before-replicate audit (folded
    // into `live.errors`) proves the capacity tier holds the bytes the
    // durability spec promised, byte-exact.
    violations.extend(oracle::check_replicate_liveness(&scenario, &sim, &live));
    // Telemetry consistency: the registry the live cores instrumented must
    // agree exactly with the reply-derived accounting the driver kept —
    // every seed doubles as a correctness test of the metrics subsystem.
    violations.extend(oracle::check_telemetry_consistency(&scenario, &live));

    // Integrity: the live run must have executed without error replies,
    // verified every byte after its evict/stage-in roundtrips, and drained
    // to quiescence; the simulator must report no residual dirty bytes.
    for e in &live.errors {
        violations.push(Violation {
            oracle: "integrity",
            run: "live",
            detail: e.clone(),
        });
    }
    if !live.drain_clean {
        violations.push(Violation {
            oracle: "integrity",
            run: "live",
            detail: "staging pipeline not clean at quiescence".into(),
        });
    }
    if sim.residual_dirty_bytes > 0 {
        violations.push(Violation {
            oracle: "integrity",
            run: "sim",
            detail: format!("{} dirty bytes never drained", sim.residual_dirty_bytes),
        });
    }

    let window = scenario.window_ns;
    ConformanceReport {
        seed,
        scenario_summary: scenario.summary(),
        violations,
        sim_bytes: sim.metrics.total_bytes_in_window(0, window),
        live_bytes: live.metrics.total_bytes_in_window(0, window),
        metrics_json: live.telemetry.to_json(),
    }
}
