//! Property-based tests of the core invariants the ThemisIO design relies
//! on: shares always form a probability distribution, composite policies
//! degrade gracefully to primitives, sampling matches shares, the policy DSL
//! round-trips, the file system round-trips arbitrary byte ranges, and
//! consistent hashing stays stable as the server pool changes.
//!
//! The build environment has no crates.io access, so instead of proptest the
//! cases are generated with a small seeded-PRNG harness (`cases` below):
//! deterministic, reproducible by seed, and loud about the failing case.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use themisio::core::policy::{Level, PolicySpec, WeightedLevel};
use themisio::prelude::*;

/// Runs `f` over `n` seeded cases; panics include the case index so a
/// failure reproduces with the same seed.
fn cases(n: u64, mut f: impl FnMut(&mut SmallRng, u64)) {
    for case in 0..n {
        let mut rng = SmallRng::seed_from_u64(0xA11C_E000 ^ case);
        f(&mut rng, case);
    }
}

fn arb_jobs(rng: &mut SmallRng) -> Vec<JobMeta> {
    let n = rng.gen_range(1usize..24);
    let mut seen = std::collections::HashSet::new();
    let mut jobs = Vec::new();
    for _ in 0..n {
        let id = rng.gen_range(1u64..500);
        if !seen.insert(id) {
            continue;
        }
        let user = rng.gen_range(1u32..12);
        let group = rng.gen_range(1u32..4);
        let nodes = rng.gen_range(1u32..128);
        let prio = rng.gen_range(1u32..8);
        jobs.push(JobMeta::new(id, user, group, nodes).with_priority(f64::from(prio)));
    }
    if jobs.is_empty() {
        jobs.push(JobMeta::new(1u64, 1u32, 1u32, 1));
    }
    jobs
}

fn arb_policy(rng: &mut SmallRng) -> Policy {
    match rng.gen_range(0u32..8) {
        0 => Policy::Fifo,
        1 => Policy::job_fair(),
        2 => Policy::size_fair(),
        3 => Policy::user_fair(),
        4 => Policy::priority_fair(),
        5 => Policy::user_then_size_fair(),
        6 => Policy::group_user_size_fair(),
        _ => Policy::composite(vec![Level::Group, Level::Job]).unwrap(),
    }
}

/// Any constructible weighted spec: optional group tier, optional user tier,
/// one job-level tail, random weights in 1..=9.
fn arb_weighted_spec(rng: &mut SmallRng) -> PolicySpec {
    let mut tiers = Vec::new();
    if rng.gen_bool(0.5) {
        tiers.push(WeightedLevel::weighted(
            Level::Group,
            rng.gen_range(1u32..10),
        ));
    }
    if rng.gen_bool(0.7) {
        tiers.push(WeightedLevel::weighted(
            Level::User,
            rng.gen_range(1u32..10),
        ));
    }
    let tail = match rng.gen_range(0u32..4) {
        0 => Level::Job,
        1 => Level::Size,
        2 => Level::Priority,
        // Sometimes stop at a scope tier to exercise the implicit job tail;
        // ensure the spec is non-empty first.
        _ => {
            if tiers.is_empty() {
                Level::Size
            } else {
                return PolicySpec::new(tiers).expect("scope tiers + implicit job tail");
            }
        }
    };
    tiers.push(WeightedLevel::weighted(tail, rng.gen_range(1u32..10)));
    PolicySpec::new(tiers).expect("constructed tiers are valid")
}

/// Shares are a probability distribution: non-negative, sum to 1, and every
/// active job receives a strictly positive share — under weighted policies
/// too.
#[test]
fn shares_form_a_distribution() {
    cases(64, |rng, case| {
        let jobs = arb_jobs(rng);
        let policy = if case % 2 == 0 {
            arb_policy(rng)
        } else {
            Policy::Fair(arb_weighted_spec(rng))
        };
        let shares = compute_shares(&policy, &jobs);
        assert_eq!(shares.len(), jobs.len(), "case {case} policy {policy}");
        let mut total = 0.0;
        for m in &jobs {
            let s = shares.share(m.job);
            assert!(
                s > 0.0,
                "case {case}: job {} got zero share under {policy}",
                m.job
            );
            assert!(s <= 1.0 + 1e-9, "case {case}");
            total += s;
        }
        assert!(
            (total - 1.0).abs() < 1e-6,
            "case {case}: total {total} under {policy}"
        );
    });
}

/// Users are never starved by a composite policy: under user-first policies
/// users split the resource evenly.
#[test]
fn user_level_fairness_holds() {
    cases(64, |rng, case| {
        let jobs = arb_jobs(rng);
        let policy = Policy::user_then_size_fair();
        let shares = compute_shares(&policy, &jobs);
        let breakdown = ShareBreakdown::new(&shares, &jobs);
        let users: std::collections::HashSet<_> = jobs.iter().map(|m| m.user).collect();
        let expected = 1.0 / users.len() as f64;
        for (user, share) in breakdown.per_user {
            assert!(
                (share - expected).abs() < 1e-6,
                "case {case}: user {user} share {share} expected {expected}"
            );
        }
    });
}

/// The statistical sampler's segments partition [0, 1] in proportion to the
/// shares.
#[test]
fn sampler_segments_match_shares() {
    cases(64, |rng, case| {
        let jobs = arb_jobs(rng);
        let policy = arb_policy(rng);
        let shares = compute_shares(&policy, &jobs);
        let sampler = TokenSampler::from_shares(&shares);
        for m in &jobs {
            let (lo, hi) = sampler.segment(m.job).expect("segment exists");
            assert!(
                (hi - lo - shares.share(m.job)).abs() < 1e-9,
                "case {case} job {}",
                m.job
            );
        }
    });
}

/// Every constructible `PolicySpec` round-trips `Display → FromStr → Display`:
/// the canonical string parses back to the same spec, and printing is a
/// fixpoint after one round.
#[test]
fn policy_dsl_round_trips() {
    cases(256, |rng, case| {
        let policy = Policy::Fair(arb_weighted_spec(rng));
        let text = policy.to_string();
        let parsed: Policy = text
            .parse()
            .unwrap_or_else(|e| panic!("case {case}: '{text}' failed to parse: {e}"));
        assert_eq!(parsed, policy, "case {case}: '{text}' parsed to {parsed}");
        assert_eq!(
            parsed.to_string(),
            text,
            "case {case}: display not canonical"
        );
    });
}

/// Adversarial specs with extreme but legal weights (1, huge, `u32::MAX`)
/// still validate, round-trip the DSL, and produce a share distribution.
#[test]
fn adversarial_weights_round_trip_and_share() {
    cases(128, |rng, case| {
        let weight = match rng.gen_range(0u32..4) {
            0 => 1,
            1 => rng.gen_range(2u32..10),
            2 => rng.gen_range(1_000_000u32..1_000_000_000),
            _ => u32::MAX,
        };
        let level = match rng.gen_range(0u32..3) {
            0 => Level::User,
            1 => Level::Group,
            _ => Level::Job,
        };
        let text = format!("{}[{weight}]-fair", level.name());
        let policy: Policy = text
            .parse()
            .unwrap_or_else(|e| panic!("case {case}: '{text}' failed to parse: {e}"));
        // Canonical form: a unit weight's brackets are elided by Display.
        let canonical = if weight == 1 {
            format!("{}-fair", level.name())
        } else {
            text.clone()
        };
        assert_eq!(policy.to_string(), canonical, "case {case}");
        let jobs = arb_jobs(rng);
        let shares = compute_shares(&policy, &jobs);
        let mut total = 0.0;
        for m in &jobs {
            let s = shares.share(m.job);
            assert!(s > 0.0, "case {case}: '{text}' starved {}", m.job);
            total += s;
        }
        assert!((total - 1.0).abs() < 1e-6, "case {case}: '{text}'");
    });
}

/// Every malformed policy string is rejected with an error — not panicked
/// on, not silently normalised into something else.
#[test]
fn policy_dsl_rejects_adversarial_strings() {
    // (input, why it must fail)
    let rejects: &[(&str, &str)] = &[
        ("", "empty string"),
        ("fair", "no tiers at all"),
        ("-fair", "empty tier list"),
        ("--fair", "only separators"),
        ("then-then-fair", "only `then` separators"),
        ("user", "missing -fair suffix"),
        ("user-", "missing fair keyword"),
        ("user-fairness", "wrong suffix"),
        ("banana-fair", "unknown level"),
        ("user[0]-fair", "zero weight starves peers"),
        ("user[0]-size-fair", "zero weight inside a chain"),
        ("user[]-fair", "empty weight"),
        ("user[-1]-fair", "negative weight"),
        ("user[2x]-fair", "non-numeric weight"),
        ("user[4294967296]-fair", "weight overflows u32"),
        ("user[2-fair", "unterminated weight bracket"),
        ("user2]-fair", "unopened weight bracket"),
        ("user[2]x-fair", "trailing garbage after bracket"),
        ("user-user-fair", "duplicate scope level"),
        ("group-group-size-fair", "duplicate group level"),
        ("user-group-fair", "inside-out nesting"),
        ("job-size-fair", "job-level split not last"),
        ("size-user-fair", "job-level split before a scope"),
        ("job-job-fair", "two job-level splits"),
        ("fifo-fair", "fifo is not a tier"),
    ];
    for (text, why) in rejects {
        let parsed = text.parse::<Policy>();
        assert!(
            parsed.is_err(),
            "'{text}' must be rejected ({why}), got {parsed:?}"
        );
    }
    // The error is also reportable (Display) without panicking.
    for (text, _) in rejects {
        let err = text.parse::<Policy>().unwrap_err();
        assert!(!err.to_string().is_empty(), "'{text}'");
    }
}

/// Structurally invalid specs assembled through the typed API are rejected
/// by validation with the matching error — the DSL and the constructors
/// must agree on what a legal hierarchy is.
#[test]
fn typed_construction_matches_dsl_validation() {
    use themisio::core::policy::PolicyError;
    assert!(matches!(
        PolicySpec::new(Vec::<WeightedLevel>::new()),
        Err(PolicyError::Empty)
    ));
    assert!(matches!(
        PolicySpec::new([WeightedLevel::weighted(Level::User, 0)]),
        Err(PolicyError::ZeroWeight(Level::User))
    ));
    assert!(matches!(
        PolicySpec::new([
            WeightedLevel::new(Level::Job),
            WeightedLevel::new(Level::Size)
        ]),
        Err(PolicyError::JobLevelNotLast(Level::Job))
    ));
    assert!(matches!(
        PolicySpec::new([
            WeightedLevel::new(Level::User),
            WeightedLevel::new(Level::Group),
            WeightedLevel::new(Level::Job)
        ]),
        Err(PolicyError::BadNesting)
    ));
    assert!(matches!(
        PolicySpec::new([
            WeightedLevel::new(Level::User),
            WeightedLevel::new(Level::User),
            WeightedLevel::new(Level::Job)
        ]),
        Err(PolicyError::DuplicateLevel(Level::User))
    ));
    // The same rejects surface through the seeded fuzz loop: random tier
    // soups either validate or error, never panic — and whatever validates
    // round-trips the DSL.
    cases(128, |rng, case| {
        let n = rng.gen_range(1usize..5);
        let tiers: Vec<WeightedLevel> = (0..n)
            .map(|_| {
                let level = match rng.gen_range(0u32..5) {
                    0 => Level::Group,
                    1 => Level::User,
                    2 => Level::Job,
                    3 => Level::Size,
                    _ => Level::Priority,
                };
                WeightedLevel::weighted(level, rng.gen_range(0u32..4))
            })
            .collect();
        if let Ok(spec) = PolicySpec::new(tiers) {
            let policy = Policy::Fair(spec);
            let text = policy.to_string();
            let parsed: Policy = text
                .parse()
                .unwrap_or_else(|e| panic!("case {case}: '{text}': {e}"));
            assert_eq!(parsed, policy, "case {case}: '{text}'");
        }
    });
}

/// Named policies and the FIFO sentinel round-trip too.
#[test]
fn named_policy_round_trips() {
    cases(64, |rng, case| {
        let policy = arb_policy(rng);
        let name = policy.canonical_name();
        let parsed: Policy = name.parse().unwrap();
        assert_eq!(parsed, policy, "case {case}: round trip of {name}");
    });
}

/// The burst-buffer file system round-trips arbitrary writes at arbitrary
/// offsets, across any stripe configuration.
#[test]
fn fs_write_read_roundtrip() {
    cases(48, |rng, case| {
        let offset = rng.gen_range(0u64..200_000);
        let len = rng.gen_range(1usize..8192);
        let mut data = vec![0u8; len];
        for b in data.iter_mut() {
            *b = rng.gen_range(0u64..256) as u8;
        }
        let stripe_size = rng.gen_range(512u64..8192);
        let stripe_count = rng.gen_range(1usize..5);
        let servers = rng.gen_range(1usize..6);
        let fs = BurstBufferFs::with_stripe_config(
            servers,
            StripeConfig::new(stripe_size, stripe_count),
        );
        fs.create("/prop", 0).unwrap();
        fs.write_at("/prop", offset, &data, 1).unwrap();
        let back = fs.read_at("/prop", offset, data.len() as u64).unwrap();
        assert_eq!(back, data, "case {case}");
        assert_eq!(
            fs.stat("/prop").unwrap().size,
            offset + data.len() as u64,
            "case {case}"
        );
    });
}

/// Consistent hashing: removing one server never moves a key that it did not
/// own.
#[test]
fn ring_stability() {
    cases(48, |rng, case| {
        let servers = rng.gen_range(2usize..10);
        let before = HashRing::new(servers);
        let mut after = before.clone();
        let removed = ServerId(servers - 1);
        after.remove_server(removed);
        for _ in 0..rng.gen_range(1usize..50) {
            let klen = rng.gen_range(1usize..13);
            let key: String = (0..klen)
                .map(|_| (b'a' + rng.gen_range(0u64..26) as u8) as char)
                .collect();
            let path = format!("/{key}");
            let owner_before = before.owner(&path).unwrap();
            let owner_after = after.owner(&path).unwrap();
            if owner_before != owner_after {
                assert_eq!(owner_before, removed, "case {case} key {path}");
            }
            assert_ne!(owner_after, removed, "case {case} key {path}");
        }
    });
}

/// Reserved-class sub-range arithmetic: seeded fuzz over
/// `reserved_job_id` / `JobId::reserved_class` across all four traffic
/// classes. Sub-ranges must partition the reserved range without overlap,
/// boundary ids must classify into the right class, and the one id past the
/// last full span (`u64::MAX`) must stay clamped instead of inventing a
/// class the round trip would panic on.
#[test]
fn reserved_class_sub_ranges_never_alias() {
    use themisio::core::entity::{
        reserved_job_id, JobId, RESERVED_CLASS_COUNT, RESERVED_CLASS_SPAN,
    };
    use themisio::stage::TrafficClass;

    cases(256, |rng, case| {
        let class = rng.gen_range(0u64..RESERVED_CLASS_COUNT);
        let instance = match rng.gen_range(0u32..4) {
            0 => 0,
            1 => RESERVED_CLASS_SPAN - 1,
            _ => rng.gen_range(0u64..RESERVED_CLASS_SPAN),
        };
        let id = reserved_job_id(class, instance);
        // Round trip: the id decodes to exactly the (class, instance) that
        // produced it.
        assert!(id.is_reserved(), "case {case}");
        assert_eq!(id.reserved_class(), Some(class), "case {case}");
        assert_eq!(id.reserved_instance(), Some(instance), "case {case}");
        // No aliasing: any *other* (class, instance) pair yields a different
        // id.
        let other_class =
            (class + 1 + rng.gen_range(0u64..RESERVED_CLASS_COUNT - 1)) % RESERVED_CLASS_COUNT;
        assert_ne!(
            reserved_job_id(other_class, instance),
            id,
            "case {case}: classes {class} and {other_class} alias"
        );
        // The TrafficClass view agrees with the raw arithmetic for the four
        // defined classes.
        if let Some(tc) = TrafficClass::ALL.into_iter().find(|c| c.index() == class) {
            assert_eq!(TrafficClass::of(id), Some(tc), "case {case}");
            assert_eq!(tc.meta(instance as usize).job, id, "case {case}");
        } else {
            assert_eq!(
                TrafficClass::of(id),
                None,
                "case {case}: unclaimed sub-range"
            );
        }
    });

    // Exact boundaries: the first and last id of every defined class's
    // sub-range classify into that class; one past the last id is the next
    // class (or clamped, at the very top).
    use themisio::stage::TrafficClass as TC;
    for tc in TC::ALL {
        let base = JobId(tc.job_base());
        let last = JobId(tc.job_base() + RESERVED_CLASS_SPAN - 1);
        assert_eq!(TC::of(base), Some(tc), "{tc}: base");
        assert_eq!(TC::of(last), Some(tc), "{tc}: last");
        assert_ne!(TC::of(JobId(tc.job_base() + RESERVED_CLASS_SPAN)), Some(tc));
    }
    assert_eq!(TC::Scrub.job_base(), reserved_job_id(2, 0).0);
    // The RESERVED_CLASS_SPAN overflow id: u64::MAX is one past the last
    // full span; it must clamp into the last class/instance, and the round
    // trip through reserved_job_id must not panic.
    let clamped_class = JobId(u64::MAX).reserved_class().unwrap();
    let clamped_instance = JobId(u64::MAX).reserved_instance().unwrap();
    assert_eq!(clamped_class, RESERVED_CLASS_COUNT - 1);
    assert_eq!(clamped_instance, RESERVED_CLASS_SPAN - 1);
    assert!(reserved_job_id(clamped_class, clamped_instance).is_reserved());
}

/// `ServerCore::submit` rejects every id in the Scrub sub-range (sampled by
/// seeded fuzz, plus both boundaries): a client must never be able to
/// smuggle traffic into the maintenance class — or have its request
/// mistaken for a synthesized scrub and dropped.
#[test]
fn server_rejects_every_scrub_sub_range_id() {
    use themisio::core::entity::RESERVED_CLASS_SPAN;
    use themisio::net::{FsOp, FsReply};
    use themisio::server::{ServerConfig, ServerCore};
    use themisio::stage::TrafficClass;

    let base = TrafficClass::Scrub.job_base();
    let mut ids: Vec<u64> = vec![base, base + RESERVED_CLASS_SPAN - 1];
    cases(24, |rng, _| {
        ids.push(base + rng.gen_range(0u64..RESERVED_CLASS_SPAN));
    });

    let mut s = ServerCore::new(0, BurstBufferFs::new(1), ServerConfig::default());
    for (i, id) in ids.iter().enumerate() {
        let evil = JobMeta::new(*id, 1u32, 1u32, 1);
        assert!(evil.is_reserved(), "id {id}");
        s.submit(i as u64, evil, FsOp::Mkdir { path: "/d".into() }, 0);
        let replies = s.poll(0);
        let reply = replies
            .iter()
            .find(|r| r.request_id == i as u64)
            .unwrap_or_else(|| panic!("id {id}: no reply"));
        assert!(
            matches!(reply.reply, FsReply::Error(_)),
            "id {id}: {:?}",
            reply.reply
        );
        assert_eq!(s.queued(), 0, "id {id} was admitted");
    }
    assert!(!s.fs().exists("/d"));
}

fn arb_durability_mode(rng: &mut SmallRng) -> DurabilityMode {
    DurabilityMode::ALL[rng.gen_range(0usize..DurabilityMode::ALL.len())]
}

/// A lowercase absolute path prefix drawn from a small segment pool, so the
/// fuzz naturally produces prefix-of-each-other and duplicate collisions.
fn arb_durability_path(rng: &mut SmallRng) -> String {
    const SEGMENTS: [&str; 5] = ["a", "b", "ckpt", "deep", "scratch"];
    let depth = rng.gen_range(1usize..4);
    let mut path = String::new();
    for _ in 0..depth {
        path.push('/');
        path.push_str(SEGMENTS[rng.gen_range(0usize..SEGMENTS.len())]);
    }
    path
}

/// Every constructible `DurabilitySpec` round-trips
/// `Display → FromStr → Display`: the canonical string parses back to an
/// equal spec (default mode, rule order, every scope and mode), and printing
/// is a fixpoint after one round — the same contract the policy DSL keeps.
#[test]
fn durability_dsl_round_trips() {
    use themisio::core::entity::RESERVED_JOB_BASE;
    cases(256, |rng, case| {
        let mut spec = DurabilitySpec::new(arb_durability_mode(rng));
        for _ in 0..rng.gen_range(0usize..6) {
            let mode = arb_durability_mode(rng);
            let attempt = match rng.gen_range(0u32..3) {
                0 => spec
                    .clone()
                    .with_job(rng.gen_range(1u64..RESERVED_JOB_BASE), mode),
                1 => spec.clone().with_user(rng.gen_range(1u32..100), mode),
                _ => spec.clone().with_path(arb_durability_path(rng), mode),
            };
            match attempt {
                Ok(s) => spec = s,
                // The segment pool collides on purpose; a duplicate scope is
                // the builder doing its job, not a failed case.
                Err(DurabilityError::DuplicateScope(_)) => {}
                Err(e) => panic!("case {case}: constructible rule rejected: {e}"),
            }
        }
        let text = spec.to_string();
        let parsed: DurabilitySpec = text
            .parse()
            .unwrap_or_else(|e| panic!("case {case}: '{text}' failed to parse: {e}"));
        assert_eq!(parsed, spec, "case {case}: '{text}'");
        assert_eq!(
            parsed.to_string(),
            text,
            "case {case}: display not canonical"
        );
    });
}

/// Every malformed durability string is rejected with a reportable error —
/// not panicked on, not silently normalised — and the reserved system job-id
/// sub-ranges (fuzzed across all of them) take no durability rules through
/// either the DSL or the typed builder.
#[test]
fn durability_dsl_rejects_adversarial_strings() {
    use themisio::core::entity::{reserved_job_id, RESERVED_CLASS_COUNT, RESERVED_CLASS_SPAN};
    // (input, why it must fail)
    let rejects: &[(&str, &str)] = &[
        ("", "empty string"),
        ("local_plus_one", "missing durability= head"),
        ("user3=sync", "rules without the head"),
        ("durability", "head without a mode"),
        ("durability=", "empty default mode"),
        ("durability = local_only", "space inside the head"),
        ("durability=localonly", "unknown mode"),
        ("durability=local", "truncated mode"),
        ("durability=sync extra", "trailing garbage in the head"),
        ("durability=fifo", "policy keyword is not a mode"),
        ("durability=sync;=sync", "empty rule scope"),
        ("durability=sync;user3", "rule without a mode"),
        ("durability=sync;user3=", "empty rule mode"),
        ("durability=sync;user1=atomic", "unknown rule mode"),
        ("durability=sync;job=sync", "missing job id"),
        ("durability=sync;jobx=sync", "non-numeric job id"),
        ("durability=sync;job-1=sync", "negative job id"),
        (
            "durability=sync;job99999999999999999999=sync",
            "job id overflows u64",
        ),
        ("durability=sync;user=sync", "missing user id"),
        (
            "durability=sync;user4294967296=sync",
            "user id overflows u32",
        ),
        ("durability=sync;ckpt=sync", "relative path scope"),
        ("durability=sync;/=sync", "bare-root prefix"),
        ("durability=sync;/a=b=sync", "mode with an embedded ="),
        ("durability=sync;/a", "path rule without a mode"),
        (
            "durability=sync;user3=sync;user3=local_only",
            "duplicate user scope",
        ),
        (
            "durability=local_only;/c=sync;/c=sync",
            "duplicate path scope",
        ),
        (
            "durability=local_only;job4=sync;job4=sync",
            "duplicate job scope",
        ),
    ];
    for (text, why) in rejects {
        let parsed = text.parse::<DurabilitySpec>();
        assert!(
            parsed.is_err(),
            "'{text}' must be rejected ({why}), got {parsed:?}"
        );
    }
    // The error is also reportable (Display) without panicking.
    for (text, _) in rejects {
        let err = text.parse::<DurabilitySpec>().unwrap_err();
        assert!(!err.to_string().is_empty(), "'{text}'");
    }
    // Reserved system ids: fuzz across every class sub-range (and both range
    // boundaries) — internal traffic classes carry no client durability
    // demand, so `jobN` rules naming them fail identically through the DSL
    // and the typed builder.
    cases(64, |rng, case| {
        let class = rng.gen_range(0u64..RESERVED_CLASS_COUNT);
        let instance = match rng.gen_range(0u32..3) {
            0 => 0,
            1 => RESERVED_CLASS_SPAN - 1,
            _ => rng.gen_range(0u64..RESERVED_CLASS_SPAN),
        };
        let id = reserved_job_id(class, instance).0;
        let text = format!("durability=sync;job{id}=sync");
        assert!(
            matches!(
                text.parse::<DurabilitySpec>(),
                Err(DurabilityError::ReservedJob(got)) if got == id
            ),
            "case {case}: '{text}' must hit ReservedJob({id})"
        );
        assert!(
            matches!(
                DurabilitySpec::new(DurabilityMode::LocalOnly).with_job(id, DurabilityMode::Sync),
                Err(DurabilityError::ReservedJob(got)) if got == id
            ),
            "case {case}: typed builder must agree"
        );
    });
}

/// The typed builders and the DSL construct the same value: a random rule
/// list assembled through `with_rule` equals the parse of the equivalent
/// string, `any_replicated` reflects exactly the modes present, and
/// `resolve` agrees with a naive most-specific-wins reference on random
/// probes.
#[test]
fn durability_typed_construction_matches_dsl() {
    use themisio::core::durability::DurabilityScope;
    use themisio::core::entity::{JobId, UserId};
    cases(128, |rng, case| {
        // Build the rule list once, then realise it both ways in the same
        // order.
        let default_mode = arb_durability_mode(rng);
        let mut rules: Vec<(DurabilityScope, DurabilityMode)> = Vec::new();
        for _ in 0..rng.gen_range(0usize..6) {
            let mode = arb_durability_mode(rng);
            let scope = match rng.gen_range(0u32..3) {
                0 => DurabilityScope::Job(rng.gen_range(1u64..1000)),
                1 => DurabilityScope::User(rng.gen_range(1u32..50)),
                _ => DurabilityScope::Path(arb_durability_path(rng)),
            };
            if rules.iter().any(|(s, _)| *s == scope) {
                continue;
            }
            rules.push((scope, mode));
        }
        let mut typed = DurabilitySpec::new(default_mode);
        let mut text = format!("durability={default_mode}");
        for (scope, mode) in &rules {
            typed = typed
                .with_rule(scope.clone(), *mode)
                .unwrap_or_else(|e| panic!("case {case}: deduped rule rejected: {e}"));
            text.push_str(&format!(";{scope}={mode}"));
        }
        let parsed: DurabilitySpec = text
            .parse()
            .unwrap_or_else(|e| panic!("case {case}: '{text}': {e}"));
        assert_eq!(parsed, typed, "case {case}: '{text}'");
        assert_eq!(
            typed.any_replicated(),
            default_mode.replicates() || rules.iter().any(|(_, m)| m.replicates()),
            "case {case}"
        );
        // Random probes against a naive reference resolver: longest matching
        // path prefix, else job rule, else user rule, else the default.
        for _ in 0..8 {
            let job = JobId(rng.gen_range(1u64..1000));
            let user = UserId(rng.gen_range(1u32..50));
            let path = format!("{}/file", arb_durability_path(rng));
            let reference = rules
                .iter()
                .filter_map(|(s, m)| match s {
                    DurabilityScope::Path(p) if path.starts_with(p.as_str()) => {
                        Some((2u8, p.len(), *m))
                    }
                    _ => None,
                })
                .max_by_key(|(_, len, _)| *len)
                .or_else(|| {
                    rules.iter().find_map(|(s, m)| match s {
                        DurabilityScope::Job(id) if *id == job.0 => Some((1, 0, *m)),
                        _ => None,
                    })
                })
                .or_else(|| {
                    rules.iter().find_map(|(s, m)| match s {
                        DurabilityScope::User(id) if *id == user.0 => Some((0, 0, *m)),
                        _ => None,
                    })
                })
                .map(|(_, _, m)| m)
                .unwrap_or(default_mode);
            assert_eq!(
                typed.resolve(job, user, &path),
                reference,
                "case {case}: probe job{} user{} {path}",
                job.0,
                user.0
            );
        }
    });
}

/// FIFO preserves arrival order regardless of job mix.
#[test]
fn fifo_preserves_order() {
    cases(48, |rng, case| {
        let mut sched = FifoScheduler::new();
        let n = rng.gen_range(1usize..64);
        for i in 0..n {
            let m = JobMeta::new(rng.gen_range(1u64..6), 1u32, 1u32, 1);
            sched.enqueue(IoRequest::write(i as u64, m, 1, i as u64));
        }
        let mut rng2 = SmallRng::seed_from_u64(0);
        let mut last = None;
        while let Some(r) = sched.next(0, &mut rng2) {
            if let Some(prev) = last {
                assert!(r.seq > prev, "case {case}");
            }
            last = Some(r.seq);
        }
    });
}

// ---------------------------------------------------------------------------
// Cardinality properties: the invariants above, re-checked at the population
// sizes the heap-indexed queue and incremental sampler rebuild exist for.
// Small-case tests would pass with O(jobs) scans too; these would not finish.
// ---------------------------------------------------------------------------

/// 10⁴ jobs, shares skewed by four orders of magnitude, one request each:
/// `next` must serve all 10⁴ requests and then report empty. Opportunity
/// fairness renormalises over the shrinking backlog, so light jobs cannot be
/// stranded behind drained heavyweights, and the no-share FIFO fallback
/// catches nothing here because every job has a share after `refresh`.
#[test]
fn cardinality_drain_never_starves_under_skewed_shares() {
    let n = 10_000u64;
    let policy = Policy::priority_fair();
    let mut table = JobTable::new();
    let mut sched = ThemisScheduler::new(policy.clone());
    for j in 1..=n {
        let prio = if j % 1000 == 0 {
            10_000.0
        } else {
            1.0 + (j % 7) as f64
        };
        let meta = JobMeta::new(j, (j % 512) as u32 + 1, (j % 8) as u32 + 1, 1).with_priority(prio);
        table.heartbeat(meta, 0);
        sched.enqueue(IoRequest::write(j, meta, 4096, j));
    }
    sched.refresh(&table, &policy);
    let mut rng = SmallRng::seed_from_u64(0xD0E5_0001);
    let mut served = std::collections::HashSet::new();
    for step in 0..n {
        let req = sched
            .next(0, &mut rng)
            .unwrap_or_else(|| panic!("backlog ran dry at step {step} of {n}"));
        assert!(
            served.insert(req.meta.job),
            "job {:?} served twice at queue depth 1",
            req.meta.job
        );
    }
    assert!(sched.next(0, &mut rng).is_none(), "served past the backlog");
    assert_eq!(served.len() as u64, n);
}

/// ThemisIO arbitration spelled out naively: an ordered map of per-job
/// deques, and on every miss the opportunity-fairness table rebuilt from
/// scratch (`restricted_to` over the current backlog, then `from_shares`),
/// with an oldest-first pick when that table is empty too. What
/// `ThemisScheduler` keeps incrementally (backlog bits, the sum tree and
/// its reconcile) this recomputes on every draw.
struct NaiveThemis {
    queues: std::collections::BTreeMap<JobId, std::collections::VecDeque<IoRequest>>,
    shares: ShareMap,
    sampler: TokenSampler,
    fair: bool,
    /// Fair draws whose full-table pick was idle.
    misses: u64,
}

impl NaiveThemis {
    fn new(policy: &Policy) -> Self {
        NaiveThemis {
            queues: Default::default(),
            shares: ShareMap::empty(),
            sampler: TokenSampler::default(),
            fair: policy.is_fair(),
            misses: 0,
        }
    }

    fn enqueue(&mut self, request: IoRequest) {
        self.queues
            .entry(request.meta.job)
            .or_default()
            .push_back(request);
    }

    fn refresh(&mut self, table: &JobTable, policy: &Policy) {
        let global = compute_shares(policy, &table.active_jobs());
        self.shares = themisio::core::shares::localize_shares(&global, table);
        self.sampler = TokenSampler::from_shares(&self.shares);
        self.fair = policy.is_fair();
    }

    fn pop(&mut self, job: JobId) -> Option<IoRequest> {
        let queue = self.queues.get_mut(&job)?;
        let request = queue.pop_front();
        if queue.is_empty() {
            self.queues.remove(&job);
        }
        request
    }

    /// Whether the next fair `next` from `rng` serves its full-table pick,
    /// so neither side reconciles or rebuilds anything.
    fn next_draw_hits(&self, rng: &SmallRng) -> bool {
        self.fair
            && self
                .sampler
                .draw(&mut rng.clone())
                .is_some_and(|job| self.queues.contains_key(&job))
    }

    /// Oldest `(arrival, seq)` first, ties to the lowest job id.
    fn pop_oldest(&mut self) -> Option<IoRequest> {
        let (_, _, job) = self
            .queues
            .iter()
            .map(|(&job, q)| (q[0].arrival_ns, q[0].seq, job))
            .min()?;
        self.pop(job)
    }

    fn next(&mut self, rng: &mut SmallRng) -> Option<IoRequest> {
        if self.queues.is_empty() {
            return None;
        }
        if !self.fair {
            return self.pop_oldest();
        }
        if let Some(request) = self.sampler.draw(rng).and_then(|job| self.pop(job)) {
            return Some(request);
        }
        self.misses += 1;
        let queues = &self.queues;
        let active =
            TokenSampler::from_shares(&self.shares.restricted_to(|j| queues.contains_key(&j)));
        if let Some(request) = active.draw(rng).and_then(|job| self.pop(job)) {
            return Some(request);
        }
        self.pop_oldest()
    }
}

/// `ThemisScheduler` and [`NaiveThemis`] fed the same calls, each drawing
/// from its own copy of one RNG.
struct Lockstep {
    real: ThemisScheduler,
    naive: NaiveThemis,
    real_rng: SmallRng,
    naive_rng: SmallRng,
    seq: u64,
    served: u64,
    case: u64,
}

impl Lockstep {
    fn enqueue(&mut self, meta: JobMeta, arrival_ns: u64) {
        let request = IoRequest::write(self.seq, meta, 4096, arrival_ns);
        self.seq += 1;
        self.real.enqueue(request);
        self.naive.enqueue(request);
    }

    fn refresh(&mut self, table: &JobTable, policy: &Policy) {
        self.real.refresh(table, policy);
        self.naive.refresh(table, policy);
    }

    /// Calls `next` on both and asserts they serve the same `(job, seq)`;
    /// returns whether anything was served.
    fn serve(&mut self) -> bool {
        let got = self
            .real
            .next(0, &mut self.real_rng)
            .map(|r| (r.meta.job, r.seq));
        let want = self
            .naive
            .next(&mut self.naive_rng)
            .map(|r| (r.meta.job, r.seq));
        assert_eq!(
            got, want,
            "case {}: diverges after {} served",
            self.case, self.served
        );
        self.served += u64::from(got.is_some());
        got.is_some()
    }

    fn queued(&self) -> usize {
        Scheduler::queued(&self.real)
    }
}

/// Drives a [`Lockstep`] pair through a seeded sequence of enqueues, `next`
/// calls and refreshes over `population` job ids. Returns how many requests
/// were served.
///
/// Every round mutates the job table (adds, drops and reweights jobs; some
/// ids never join it and are served by the oldest-first fallback), refreshes
/// both schedulers under a random fair policy or, one round in eight,
/// `fifo`, then fills a random subset of jobs and drains the backlog back
/// down with refills mixed in. The drains leave most slots idle, so the
/// next fill compacts the arena and hands freed slots to other jobs.
///
/// With `reassign`, each fair round then also hands slots to other jobs
/// between two misses with no refresh in between: every job queues, the
/// backlog drains to a third (misses allowed), one more miss reconciles,
/// and only draws that hit are served, each draining a job that miss
/// counted. Every idle job then queues before the next miss; the first
/// push compacts the arena and the rest take the freed slots, some of them
/// slots whose backlog bit was set at the miss and is set again with
/// another job behind it.
fn drive_against_naive(
    rng: &mut SmallRng,
    population: u64,
    rounds: usize,
    reassign: bool,
    case: u64,
) -> u64 {
    let policies = [
        Policy::job_fair(),
        Policy::size_fair(),
        Policy::user_then_size_fair(),
        Policy::group_user_size_fair(),
        Policy::priority_fair(),
    ];
    let meta_of = |job: u64, nodes: u32| {
        JobMeta::new(job, (job % 13) as u32 + 1, (job % 3) as u32 + 1, nodes)
            .with_priority(1.0 + (job % 4) as f64)
    };
    let arrive = |rng: &mut SmallRng, pair: &mut Lockstep| {
        let job = rng.gen_range(1..population + 1);
        pair.enqueue(meta_of(job, 1), rng.gen_range(0u64..64));
    };
    let first_policy = policies[rng.gen_range(0..policies.len())].clone();
    let draw_seed = rng.gen::<u64>();
    let mut pair = Lockstep {
        real: ThemisScheduler::new(first_policy.clone()),
        naive: NaiveThemis::new(&first_policy),
        real_rng: SmallRng::seed_from_u64(draw_seed),
        naive_rng: SmallRng::seed_from_u64(draw_seed),
        seq: 0,
        served: 0,
        case,
    };
    // Jobs queue (and some are served) before the first refresh.
    for _ in 0..rng.gen_range(1..population.min(200) + 1) {
        arrive(rng, &mut pair);
    }
    for _ in 0..rng.gen_range(0..8) {
        pair.serve();
    }
    let mut table = JobTable::new();
    for job in 1..=population {
        if rng.gen_bool(0.8) {
            table.heartbeat(meta_of(job, 1), 0);
        }
    }
    for round in 0..rounds {
        // Add, drop and reweight: about a tenth of the population each.
        for _ in 0..=population / 10 {
            let job = rng.gen_range(1..population + 1);
            match rng.gen_range(0u32..3) {
                0 => table.heartbeat(meta_of(job, 1), 0),
                1 => {
                    table.remove(JobId::from(job));
                }
                _ => table.heartbeat(meta_of(job, rng.gen_range(1u32..9)), 0),
            }
        }
        let policy = if round % 8 == 7 {
            Policy::Fifo
        } else {
            policies[rng.gen_range(0..policies.len())].clone()
        };
        pair.refresh(&table, &policy);
        for _ in 0..rng.gen_range(1..population + 1) {
            arrive(rng, &mut pair);
        }
        let floor = rng.gen_range(0..pair.queued() / 4 + 1);
        while pair.queued() > floor {
            if rng.gen_bool(0.15) {
                arrive(rng, &mut pair);
            }
            assert!(pair.serve(), "case {case}: backlog ran dry");
        }
        if reassign && policy.is_fair() {
            let queue_idle = |rng: &mut SmallRng, pair: &mut Lockstep| {
                for job in 1..=population {
                    if !pair.naive.queues.contains_key(&JobId::from(job)) {
                        pair.enqueue(meta_of(job, 1), rng.gen_range(0u64..64));
                    }
                }
            };
            queue_idle(rng, &mut pair);
            let third = pair.naive.queues.len() / 3;
            while pair.naive.queues.len() > third && pair.serve() {}
            let misses = pair.naive.misses;
            while pair.naive.misses == misses && pair.serve() {}
            while pair.naive.next_draw_hits(&pair.naive_rng) && pair.serve() {}
            queue_idle(rng, &mut pair);
        }
    }
    while pair.serve() {}
    assert_eq!(pair.queued(), 0, "case {case}");
    assert!(pair.naive.queues.is_empty(), "case {case}");
    pair.served
}

/// Opportunity fairness draw for draw: the sum-tree draw, reconciled
/// against the backlog bits on every miss, serves exactly the `(job, seq)` sequence a
/// from-scratch `restricted_to` + `from_shares` rebuild serves on every
/// miss, from the same RNG, through jobs queued before their first
/// refresh, refreshes that add, drop and reweight jobs, live swaps to
/// `fifo` and back, arena compaction handing slots to other jobs, and one
/// population of 4 096 jobs.
#[test]
fn cardinality_redistribution_matches_naive_reference_draw_for_draw() {
    cases(24, |rng, case| {
        let population = rng.gen_range(2u64..300);
        let served = drive_against_naive(rng, population, 16, true, case);
        assert!(served > 0, "case {case}");
    });
    let mut rng = SmallRng::seed_from_u64(0x4096_0000);
    // Without the slot hand-over phase: the naive side's per-miss rebuild
    // over 4 096 shares would make it most of this test's time.
    drive_against_naive(&mut rng, 4_096, 3, false, 4_096);
}

/// The bucketed select index is an accelerator, not an arbiter: `select(p)`
/// must agree with a flat `partition_point` over the `(upper, job)` table
/// reconstructed through the public `segment` API, for random points, exact
/// segment boundaries, and out-of-range inputs.
#[test]
fn bucketed_select_matches_flat_partition_point() {
    cases(24, |rng, case| {
        let n = rng.gen_range(1usize..3_000);
        let shares = ShareMap::from_pairs(
            (0..n).map(|i| (JobId::from(i as u64 + 1), rng.gen::<f64>() * 10.0 + 1e-6)),
        );
        let sampler = TokenSampler::from_shares(&shares);
        let mut bounds: Vec<(f64, JobId)> = shares
            .iter()
            .map(|(j, _)| {
                (
                    sampler.segment(j).expect("positive share has a segment").1,
                    j,
                )
            })
            .collect();
        bounds.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        assert_eq!(bounds.len(), sampler.len(), "case {case}");
        for probe in 0..400 {
            let p = match probe % 8 {
                0 => 0.0,
                1 => 1.0,
                2 => -0.5,
                3 => 1.5,
                4 => bounds[rng.gen_range(0..bounds.len())].0,
                _ => rng.gen::<f64>(),
            };
            let clamped = p.clamp(0.0, 1.0);
            let idx = bounds
                .partition_point(|&(upper, _)| upper < clamped)
                .min(bounds.len() - 1);
            assert_eq!(
                sampler.select(p),
                Some(bounds[idx].1),
                "case {case} probe {probe} p={p}"
            );
        }
    });
}

/// 10⁵ mixed operations against `JobQueues` — pushes, targeted pops (with
/// deliberately garbage slot hints), and oldest-first pops — tracked against
/// a naive map-of-deques reference model. The arena's slot reuse, the MRU
/// memo, the mirrored rest lengths, the lazy front-index heap and batch
/// compaction must never change an outcome: every pop returns exactly what
/// the reference returns, and the accounting (`len`, `len_for`) matches at
/// every step.
#[test]
fn cardinality_queues_match_reference_through_mixed_churn() {
    use std::collections::{HashMap, VecDeque};
    let mut q = JobQueues::new();
    let mut model: HashMap<u64, VecDeque<IoRequest>> = HashMap::new();
    let mut model_total = 0usize;
    let mut rng = SmallRng::seed_from_u64(0xC0FF_EE00);
    let meta_of = |j: u64| JobMeta::new(j, (j % 64) as u32 + 1, 1u32, 1);
    for step in 0..100_000u64 {
        let job = rng.gen_range(1u64..1_500);
        match rng.gen_range(0u32..10) {
            0..=4 => {
                let req = IoRequest::write(step, meta_of(job), 1 + job, rng.gen_range(0u64..64));
                q.push(req);
                model.entry(job).or_default().push_back(req);
                model_total += 1;
            }
            // Targeted pop through the hinted path with a random (usually
            // wrong) hint: a stale hint may slow the pop, never change it.
            5 | 6 => {
                let garbage_hint = rng.gen_range(0u32..4_096);
                let got = q.pop_hinted(JobId::from(job), garbage_hint).map(|r| r.seq);
                let want = model.get_mut(&job).and_then(VecDeque::pop_front);
                assert_eq!(got, want.map(|r| r.seq), "step {step}");
                if want.is_some() {
                    model_total -= 1;
                }
            }
            // Plain targeted pop.
            7 => {
                let got = q.pop(JobId::from(job)).map(|r| r.seq);
                let want = model.get_mut(&job).and_then(VecDeque::pop_front);
                assert_eq!(got, want.map(|r| r.seq), "step {step}");
                if want.is_some() {
                    model_total -= 1;
                }
            }
            // Oldest-first: the lazy heap must agree with a full scan of the
            // reference fronts under heavy arrival-time ties (seq breaks them).
            8 => {
                let want = model
                    .values()
                    .filter_map(|dq| dq.front())
                    .min_by_key(|r| (r.arrival_ns, r.seq))
                    .map(|r| r.seq);
                let got = q.pop_oldest().map(|r| r.seq);
                assert_eq!(got, want, "step {step}: oldest diverges");
                if let Some(seq) = want {
                    let owner = *model
                        .iter()
                        .find(|(_, dq)| dq.front().is_some_and(|r| r.seq == seq))
                        .expect("reference owner")
                        .0;
                    model.get_mut(&owner).unwrap().pop_front();
                    model_total -= 1;
                }
            }
            // Read-only spot checks.
            _ => {
                let dq = model.get(&job);
                assert_eq!(
                    q.len_for(JobId::from(job)),
                    dq.map_or(0, VecDeque::len),
                    "step {step}"
                );
                assert_eq!(
                    q.front(JobId::from(job)).map(|r| r.seq),
                    dq.and_then(VecDeque::front).map(|r| r.seq),
                    "step {step}"
                );
            }
        }
        assert_eq!(q.len(), model_total, "step {step}: totals diverge");
    }
    // Drain what's left oldest-first and confirm both sides agree to the end.
    while let Some(req) = q.pop_oldest() {
        let want = model
            .values_mut()
            .filter_map(|dq| dq.front().copied())
            .min_by_key(|r| (r.arrival_ns, r.seq))
            .expect("reference still has work");
        assert_eq!(req.seq, want.seq, "drain diverges");
        model
            .values_mut()
            .find(|dq| dq.front().is_some_and(|r| r.seq == want.seq))
            .unwrap()
            .pop_front();
        model_total -= 1;
    }
    assert_eq!(model_total, 0);
    assert!(q.is_empty());
}

/// Raw (unnormalised) weights spanning six orders of magnitude still yield
/// cumulative bounds that end within 1e-9 of 1.0, and `select` never falls
/// off the end of the table — the guard the last-segment clamp exists for.
#[test]
fn raw_weight_bounds_always_end_at_one() {
    cases(48, |rng, case| {
        let n = rng.gen_range(1usize..2_000);
        let shares = ShareMap::from_raw_weights((0..n).map(|i| {
            let magnitude = 10f64.powi(rng.gen_range(-3i32..4));
            (
                JobId::from(i as u64 + 1),
                rng.gen::<f64>() * magnitude + 1e-12,
            )
        }));
        let sampler = TokenSampler::from_shares(&shares);
        assert_eq!(sampler.len(), shares.len(), "case {case}");
        let top = shares
            .iter()
            .map(|(j, _)| sampler.segment(j).expect("segment").1)
            .fold(0.0f64, f64::max);
        assert!(
            (top - 1.0).abs() < 1e-9,
            "case {case}: bounds end at {top}, not 1.0"
        );
        assert!(sampler.select(1.0).is_some(), "case {case}: p=1.0 missed");
        assert!(sampler.select(0.0).is_some(), "case {case}: p=0.0 missed");
    });
}
