//! Tier-1 conformance gate: the fixed seed set of the differential
//! conformance harness (`themis-harness`).
//!
//! Every seed expands into a randomized multi-tenant scenario (skewed
//! weights, device-speed asymmetry, mid-flight `SetPolicy` swaps, optional
//! staging/drain pressure with eviction) that is replayed **twice** — through
//! the discrete-event simulator and through a virtual-clock cluster of real
//! `ServerCore`s — and cross-checked against the analytic oracles:
//!
//! * WFQ share bounds per `compute_shares`, per policy epoch;
//! * work conservation (the device never idles while requests queue);
//! * no starvation across policy epochs;
//! * byte-exact data integrity after drain/evict/stage-in roundtrips;
//! * per-tenant sim ↔ live share agreement;
//! * rebalance liveness (the mid-window reshard migrates every misplaced
//!   extent checksum-verified and the placement audit converges);
//! * replicate liveness (durable scenarios retire their whole replication
//!   debt by quiescence, and the crash-before-replicate audit finds every
//!   `local_plus_one` write byte-exact in the capacity tier);
//! * telemetry consistency (the live cluster's metrics registry vs. the
//!   driver's reply-derived accounting, exact to the op and byte).
//!
//! Tolerances are documented in `themis_harness::oracle` and in the README's
//! "Testing & conformance" section. A failure panics with the full oracle
//! report and a single-command reproduction line, e.g.
//! `cargo run --release -p themis-harness --bin harness -- --seed 7`, and
//! writes the report under `target/conformance/` for CI artifact upload.
//!
//! Seed-set policy: seeds 0..100 are pinned — never reshuffle them to make a
//! regression pass; a scenario that newly fails is a bug (or a deliberate,
//! README-documented semantics change). Longer sweeps run out-of-band via
//! the `harness` binary (see `.github/workflows/conformance-sweep.yml`).

use themis_harness::{run_conformance, Scenario};

macro_rules! conformance_seed {
    ($($name:ident => $seed:expr),+ $(,)?) => {
        $(
            #[test]
            fn $name() {
                let report = run_conformance($seed);
                // Every gate run leaves the live cluster's telemetry
                // snapshot as a machine-readable artifact
                // (target/conformance/METRICS-seed-*.json), uploaded by CI
                // whether or not the seed passes.
                report.write_metrics_artifact();
                report.assert_clean();
            }
        )+
    };
}

conformance_seed! {
    seed_00 => 0,
    seed_01 => 1,
    seed_02 => 2,
    seed_03 => 3,
    seed_04 => 4,
    seed_05 => 5,
    seed_06 => 6,
    seed_07 => 7,
    seed_08 => 8,
    seed_09 => 9,
    seed_10 => 10,
    seed_11 => 11,
    seed_12 => 12,
    seed_13 => 13,
    seed_14 => 14,
    seed_15 => 15,
    seed_16 => 16,
    seed_17 => 17,
    seed_18 => 18,
    seed_19 => 19,
    seed_20 => 20,
    seed_21 => 21,
    seed_22 => 22,
    seed_23 => 23,
    seed_24 => 24,
    seed_25 => 25,
    seed_26 => 26,
    seed_27 => 27,
    seed_28 => 28,
    seed_29 => 29,
    seed_30 => 30,
    seed_31 => 31,
    seed_32 => 32,
    seed_33 => 33,
    seed_34 => 34,
    seed_35 => 35,
    seed_36 => 36,
    seed_37 => 37,
    seed_38 => 38,
    seed_39 => 39,
    seed_40 => 40,
    seed_41 => 41,
    seed_42 => 42,
    seed_43 => 43,
    seed_44 => 44,
    seed_45 => 45,
    seed_46 => 46,
    seed_47 => 47,
    seed_48 => 48,
    seed_49 => 49,
    seed_50 => 50,
    seed_51 => 51,
    seed_52 => 52,
    seed_53 => 53,
    seed_54 => 54,
    seed_55 => 55,
    seed_56 => 56,
    seed_57 => 57,
    seed_58 => 58,
    seed_59 => 59,
    seed_60 => 60,
    seed_61 => 61,
    seed_62 => 62,
    seed_63 => 63,
    seed_64 => 64,
    seed_65 => 65,
    seed_66 => 66,
    seed_67 => 67,
    seed_68 => 68,
    seed_69 => 69,
    seed_70 => 70,
    seed_71 => 71,
    seed_72 => 72,
    seed_73 => 73,
    seed_74 => 74,
    seed_75 => 75,
    seed_76 => 76,
    seed_77 => 77,
    seed_78 => 78,
    seed_79 => 79,
    seed_80 => 80,
    seed_81 => 81,
    seed_82 => 82,
    seed_83 => 83,
    seed_84 => 84,
    seed_85 => 85,
    seed_86 => 86,
    seed_87 => 87,
    seed_88 => 88,
    seed_89 => 89,
    seed_90 => 90,
    seed_91 => 91,
    seed_92 => 92,
    seed_93 => 93,
    seed_94 => 94,
    seed_95 => 95,
    seed_96 => 96,
    seed_97 => 97,
    seed_98 => 98,
    seed_99 => 99,
}

/// How often each feature of the scenario generator occurs in `seeds`,
/// next to the least count the first 24 pinned seeds must reach.
fn feature_counts(seeds: std::ops::Range<u64>) -> Vec<(&'static str, usize, usize)> {
    let scenarios: Vec<Scenario> = seeds.map(Scenario::generate).collect();
    let count = |keep: &dyn Fn(&Scenario) -> bool| scenarios.iter().filter(|s| keep(s)).count();
    vec![
        ("staging", count(&|s| s.staging.is_some()), 4),
        (
            "eviction",
            count(&|s| s.staging.as_ref().is_some_and(|st| st.eviction)),
            2,
        ),
        // Restore storms: eviction pressure plus reading tenants, so the
        // policy-admitted stage-in path (parked reads, weighted restores,
        // delete-wins write-backs) is exercised by the pinned gate on every
        // CI run — not only by the weekly sweep.
        ("restore storms", count(&|s| s.restore_storm()), 2),
        // Scrub scenarios: the maintenance class runs (continuous passes,
        // 16:1) in the pinned set, so lane fairness under a *continuous*
        // background class — and the scrub-liveness oracle — is exercised
        // on every CI run. The dimension is derived from the staging draw
        // (no extra RNG consumption), so it arrived without reshuffling a
        // single green seed.
        ("scrub", count(&|s| s.scrub_enabled()), 2),
        // Resharding scenarios: every staged scenario reshards its
        // (sharded) capacity tier mid-window, and the drain-weight draw
        // splits them between the two flavors — retiring a backend and
        // adding one — so both migration directions (and the
        // rebalance-liveness oracle) run on every CI pass. Derived from
        // existing draws, like scrub, so the pinned seeds kept their
        // shapes.
        ("resharding", count(&|s| s.reshard_enabled()), 2),
        (
            "backend retirement",
            count(&|s| s.reshard_enabled() && s.reshard_retires_backend()),
            1,
        ),
        (
            "backend addition",
            count(&|s| s.reshard_enabled() && !s.reshard_retires_backend()),
            1,
        ),
        // Durable scenarios: every staged scenario runs under a durability
        // spec that alternates tenants between local_plus_one and
        // local_only, so the replicate class, the replicate-liveness oracle
        // and the crash-before-replicate audit run on every CI pass. At
        // least two pinned seeds must have a *writing* replicated tenant —
        // otherwise copy traffic never flows and the oracles are vacuous.
        // Derived from existing draws, like scrub, so the pinned seeds kept
        // their shapes.
        (
            "durability",
            count(&|s| s.durability_enabled() && s.durability_writes()),
            2,
        ),
        ("policy swaps", count(&|s| !s.swaps.is_empty()), 8),
        ("double swaps", count(&|s| s.swaps.len() == 2), 2),
        ("multi-server", count(&|s| s.n_servers > 1), 4),
        (
            "weighted tiers",
            count(&|s| {
                s.policy.tiers().iter().any(|t| t.weight > 1)
                    || s.swaps
                        .iter()
                        .any(|(_, p)| p.tiers().iter().any(|t| t.weight > 1))
            }),
            8,
        ),
        (
            "device asymmetry",
            count(&|s| s.device.read_bw_bytes_per_sec != s.device.write_bw_bytes_per_sec),
            4,
        ),
    ]
}

/// The fixed seed set must keep exercising the whole feature matrix — if the
/// generator changes shape, this test forces the seed set (and its coverage)
/// to be revisited deliberately. These are the bounds the original pinned
/// set, seeds 0..24, was held to.
#[test]
fn fixed_seed_set_covers_the_feature_matrix() {
    for (feature, count, least) in feature_counts(0..24) {
        assert!(count >= least, "{feature} under-covered: {count}");
    }
}

/// The whole pinned set, seeds 0..100, covers every feature at least four
/// times as often as seeds 0..24 must: the same coverage, not diluted by
/// the wider set.
#[test]
fn pinned_seed_set_covers_the_feature_matrix() {
    for (feature, count, least) in feature_counts(0..100) {
        assert!(count >= 4 * least, "{feature} under-covered: {count}");
    }
}

/// Conformance verdicts are deterministic: the same seed yields the same
/// scenario, the same two runs, and the same byte totals — which is what
/// makes a failing seed a one-line reproducer.
#[test]
fn conformance_runs_are_reproducible() {
    let a = run_conformance(2);
    let b = run_conformance(2);
    assert_eq!(a.sim_bytes, b.sim_bytes);
    assert_eq!(a.live_bytes, b.live_bytes);
    assert_eq!(a.violations.len(), b.violations.len());
    assert_eq!(a.scenario_summary, b.scenario_summary);
}
