//! Internal traffic classes: the taxonomy of system-synthesized I/O the
//! burst buffer moves on its own behalf, each admitted through the policy
//! engine like foreground traffic.
//!
//! The paper's core claim is that *all* I/O on the burst buffer is
//! arbitrated by one fine-grained policy engine. Foreground traffic carries
//! client job identities; everything the system synthesizes — stage-out
//! drains, stage-in restores, scrubbing, rebalancing, and durability
//! replication — runs under a [`TrafficClass`] identity allocated from the
//! reserved job-id range
//! ([`RESERVED_JOB_BASE`](themis_core::entity::RESERVED_JOB_BASE)),
//! sub-divided per class
//! ([`RESERVED_CLASS_SPAN`](themis_core::entity::RESERVED_CLASS_SPAN)) so
//! telemetry can attribute every byte to the class (and server) that moved
//! it.
//!
//! ## The class registry
//!
//! Every per-class fact — the reserved sub-range index, the display name,
//! the telemetry lane key, the default foreground:class weight, and whether
//! the class's pipeline synthesizes traffic without being asked — lives in
//! one table, [`TRAFFIC_CLASSES`]: `index()`, `name()`,
//! [`ClassWeights::default`] and the engine's lane construction all follow
//! it. The registry holds a class's *facts*; its *behaviour* is three more
//! pieces, so adding a class is this checklist:
//!
//! 1. a [`TrafficClassDef`] row here (and the enum variant);
//! 2. a pipeline embedding a [`ClassQueue`](crate::lifecycle::ClassQueue)
//!    and implementing
//!    [`ClassLifecycle`](crate::lifecycle::ClassLifecycle) — what the class
//!    wants moved, and when;
//! 3. one `land_*` body in the server's `staging` module — what a landed
//!    request does to the file system, the tiers and the waiting foreground;
//! 4. one `Charge` row there — what the request costs the tier behind the
//!    burst device.
//!
//! The server's per-class `match`es are exhaustive, so a missing piece is a
//! compile error, not a silently idle class.
//!
//! | class | job-id sub-range | direction | default weight |
//! |-------|------------------|-----------|----------------|
//! | [`TrafficClass::Drain`] | `base + [0, 4096)` | burst → capacity | 8 |
//! | [`TrafficClass::Restore`] | `base + [4096, 8192)` | capacity → burst | 8 |
//! | [`TrafficClass::Scrub`] | `base + [8192, 12288)` | capacity verify/repair | 16 |
//! | [`TrafficClass::Rebalance`] | `base + [12288, 16384)` | shard-map migration | 16 |
//! | [`TrafficClass::Replicate`] | `base + [16384, 20480)` | burst → capacity (early drain) | 16 |
//!
//! Drain and Restore are *demand-driven*: their requests are synthesized in
//! response to foreground traffic (dirty writes, misses on evicted
//! extents). Scrub and Rebalance are *maintenance* classes synthesized from
//! capacity-tier state alone. Replicate is *debt-driven*: each acknowledged
//! write whose [`DurabilityMode`](themis_core::durability::DurabilityMode)
//! owes a copy off the burst buffer queues bytes the class pays down under
//! its policy weight (see
//! [`ReplicatePipeline`](crate::replicate::ReplicatePipeline)). A replicate
//! copy *is* a drain of its extent, to the same capacity tier; the two lanes
//! differ only in weight and in what they are owed, and each dirty
//! generation is written back once, by whichever lane claims it first.
//!
//! Within each sub-range, instance `i` is the traffic of server `i`.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;
use themis_core::entity::{reserved_job_id, JobId, JobMeta};

/// One class of system-internal traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum TrafficClass {
    /// Stage-out: dirty burst-buffer extents written back to the capacity
    /// tier so NVMe space can be reclaimed.
    Drain,
    /// Stage-in: evicted extents copied back from the capacity tier —
    /// explicit `StageIn` requests, transparent read-through of evicted
    /// data, and restore-for-write merges all run under this class.
    Restore,
    /// Background integrity scrubbing of the capacity tier: checksum
    /// verification of stored extents, repair from the burst tier where a
    /// clean copy is resident, quarantine otherwise (see
    /// [`ScrubPipeline`](crate::scrub::ScrubPipeline)).
    Scrub,
    /// Background extent migration after a shard-map change on the
    /// sharded capacity tier: re-placing extents onto their new replica
    /// sets checksum-verified (see
    /// [`RebalancePipeline`](crate::rebalance::RebalancePipeline)).
    Rebalance,
    /// Durability copies: acknowledged writes whose durability mode owes a
    /// copy off the burst buffer are drained early, to the capacity tier,
    /// under this class's weight (see
    /// [`ReplicatePipeline`](crate::replicate::ReplicatePipeline)).
    Replicate,
}

/// One row of the traffic-class registry: everything the system knows about
/// a class, in one place.
///
/// The row owns the class's reserved sub-range assignment (`index`), its
/// display name, the telemetry lane key its [`MetricsRegistry`] series and
/// trace slots carry, its default foreground:class WFQ weight, and whether
/// the class's pipeline synthesizes traffic by default. Call sites read
/// these facts through [`TrafficClass::def`] instead of matching on the
/// enum (the module docs list what else a new class needs).
///
/// [`MetricsRegistry`]: themis_telemetry::MetricsRegistry
#[derive(Debug, Clone, Copy)]
pub struct TrafficClassDef {
    /// The class this row defines.
    pub class: TrafficClass,
    /// The class's index into the reserved job-id range's sub-range layout
    /// (the `class` argument of
    /// [`reserved_job_id`]).
    ///
    /// [`reserved_job_id`]: themis_core::entity::reserved_job_id
    pub index: u64,
    /// Short lowercase display name for logs, status output, and the
    /// weights DSL.
    pub name: &'static str,
    /// Telemetry lane key: the class component of
    /// [`SeriesKey::class`](themis_telemetry::SeriesKey) series and the
    /// trace-lane name. Identical to `name` for every class so operators
    /// see one vocabulary.
    pub lane: &'static str,
    /// Default foreground:class weight
    /// ([`ClassWeights::default`] takes its values from here).
    pub default_weight: u32,
    /// Whether the class's pipeline synthesizes traffic by default.
    /// Demand-driven classes (drain, restore) are always effectively
    /// enabled; maintenance and debt-driven classes start where their PRs
    /// left their `DrainConfig` flags.
    pub default_enabled: bool,
}

/// The traffic-class registry: one row per class, in reserved sub-range
/// order. [`TrafficClass::ALL`], `index()`, `name()` and
/// [`ClassWeights::default`] are all derived from this table.
pub const TRAFFIC_CLASSES: [TrafficClassDef; TrafficClass::COUNT] = [
    TrafficClassDef {
        class: TrafficClass::Drain,
        index: 0,
        name: "drain",
        lane: "drain",
        default_weight: 8,
        default_enabled: true,
    },
    TrafficClassDef {
        class: TrafficClass::Restore,
        index: 1,
        name: "restore",
        lane: "restore",
        default_weight: 8,
        default_enabled: true,
    },
    TrafficClassDef {
        class: TrafficClass::Scrub,
        index: 2,
        name: "scrub",
        lane: "scrub",
        // The maintenance classes default to a conservative 16:1 — pure
        // background traffic with no foreground waiting on it.
        default_weight: 16,
        default_enabled: false,
    },
    TrafficClassDef {
        class: TrafficClass::Rebalance,
        index: 3,
        name: "rebalance",
        lane: "rebalance",
        default_weight: 16,
        default_enabled: true,
    },
    TrafficClassDef {
        class: TrafficClass::Replicate,
        index: 4,
        name: "replicate",
        lane: "replicate",
        // Durability copies only have work when a durability spec creates
        // debt; the class stays off until one does.
        default_weight: 16,
        default_enabled: false,
    },
];

impl TrafficClass {
    /// Number of registered classes.
    pub const COUNT: usize = 5;

    /// Every defined class, in sub-range order (derived from
    /// [`TRAFFIC_CLASSES`]).
    pub const ALL: [TrafficClass; TrafficClass::COUNT] = {
        let mut all = [TrafficClass::Drain; TrafficClass::COUNT];
        let mut i = 0;
        while i < TrafficClass::COUNT {
            all[i] = TRAFFIC_CLASSES[i].class;
            i += 1;
        }
        all
    };

    /// This class's registry row. Declaration order matches table order
    /// (checked by the `registry_rows_match_declaration_order` test), so
    /// the lookup is a direct index.
    pub fn def(self) -> &'static TrafficClassDef {
        &TRAFFIC_CLASSES[self as usize]
    }

    /// This class's index into the reserved range's class layout.
    pub fn index(self) -> u64 {
        self.def().index
    }

    /// First job id of this class's sub-range.
    pub fn job_base(self) -> u64 {
        reserved_job_id(self.index(), 0).0
    }

    /// The class a job id belongs to (`None` for client jobs and for
    /// reserved sub-ranges no class claims yet).
    pub fn of(job: JobId) -> Option<TrafficClass> {
        let class = job.reserved_class()?;
        TrafficClass::ALL.into_iter().find(|c| c.index() == class)
    }

    /// The job identity this class's traffic runs under on `server`. The
    /// user/group ids are taken from the top of the id space, one per class,
    /// so user- and group-scoped telemetry also separates the classes.
    pub fn meta(self, server: usize) -> JobMeta {
        let scope = u32::MAX - self.index() as u32;
        JobMeta::new(
            reserved_job_id(self.index(), server as u64),
            scope,
            scope,
            1,
        )
    }

    /// Short lowercase name for logs and status output (from the registry).
    pub fn name(self) -> &'static str {
        self.def().name
    }
}

impl fmt::Display for TrafficClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a [`ClassWeights`] DSL string failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClassWeightsError {
    /// A token named no registered traffic class.
    UnknownClass(String),
    /// The same class appeared twice.
    DuplicateClass(String),
    /// A token was not `name=weight`, or the weight was not a positive
    /// integer.
    BadToken(String),
}

impl fmt::Display for ClassWeightsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClassWeightsError::UnknownClass(c) => {
                write!(f, "unknown traffic class `{c}` in weights spec")
            }
            ClassWeightsError::DuplicateClass(c) => {
                write!(f, "traffic class `{c}` listed twice in weights spec")
            }
            ClassWeightsError::BadToken(t) => write!(
                f,
                "bad weights token `{t}` (expected `class=weight` with a positive integer weight)"
            ),
        }
    }
}

impl std::error::Error for ClassWeightsError {}

/// The foreground:class weight — and enablement — of every internal traffic
/// class.
///
/// A weight of `w` means foreground traffic collectively receives `w`× the
/// device time of that class while both are backlogged — derived through the
/// policy crate's [`WeightedLevel`](themis_core::policy::WeightedLevel)
/// machinery exactly like a `user[w]-…` premium tier (see
/// [`StagedEngine`](crate::engine::StagedEngine)).
///
/// Historically these knobs accreted on `DrainConfig` one field pair per
/// class (`scrub_weight` + `scrub_enabled`, …). They are unified here behind
/// a per-class builder — [`ClassWeights::enable`] / [`ClassWeights::disable`]
/// — plus a `"drain=8,scrub=16,replicate=16"` DSL that round-trips through
/// `Display`/`FromStr`: the canonical form lists the *enabled* classes
/// in registry order; classes left unlisted are disabled at their registry
/// default weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassWeights {
    weights: [u32; TrafficClass::COUNT],
    enabled: [bool; TrafficClass::COUNT],
}

impl Default for ClassWeights {
    fn default() -> Self {
        let mut weights = [1; TrafficClass::COUNT];
        let mut enabled = [false; TrafficClass::COUNT];
        for (i, def) in TRAFFIC_CLASSES.iter().enumerate() {
            weights[i] = def.default_weight;
            enabled[i] = def.default_enabled;
        }
        ClassWeights { weights, enabled }
    }
}

impl ClassWeights {
    /// Every class at the same foreground:class weight (enablement keeps the
    /// registry defaults).
    pub fn uniform(weight: u32) -> Self {
        let weight = weight.max(1);
        ClassWeights {
            weights: [weight; TrafficClass::COUNT],
            ..ClassWeights::default()
        }
    }

    /// Enables `class` at foreground:class weight `weight` (builder style).
    pub fn enable(mut self, class: TrafficClass, weight: u32) -> Self {
        self.weights[class as usize] = weight;
        self.enabled[class as usize] = true;
        self
    }

    /// Sets `class`'s weight without touching its enablement.
    pub fn with_weight(mut self, class: TrafficClass, weight: u32) -> Self {
        self.weights[class as usize] = weight;
        self
    }

    /// Disables `class`, resetting its weight to the registry default so
    /// the Display/FromStr round trip stays exact (disabled classes are not
    /// printed).
    pub fn disable(mut self, class: TrafficClass) -> Self {
        self.enabled[class as usize] = false;
        self.weights[class as usize] = class.def().default_weight;
        self
    }

    /// The weight of one class (clamped to ≥ 1: a zero weight would starve
    /// the WFQ lane forever).
    pub fn weight(&self, class: TrafficClass) -> u32 {
        self.weights[class as usize].max(1)
    }

    /// Whether `class`'s pipeline should synthesize traffic. Demand-driven
    /// classes (drain, restore) carry the flag too, but their pipelines run
    /// on demand regardless.
    pub fn is_enabled(&self, class: TrafficClass) -> bool {
        self.enabled[class as usize]
    }

    /// Validates the weights: every class's raw weight must be ≥ 1. The
    /// accessor clamps regardless, but a configured zero is a mistake worth
    /// reporting at construction time rather than silently rounding up.
    pub fn validate(&self) -> Result<(), String> {
        for class in TrafficClass::ALL {
            if self.weights[class as usize] == 0 {
                return Err(format!("{} weight must be >= 1", class.name()));
            }
        }
        Ok(())
    }
}

impl fmt::Display for ClassWeights {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for class in TrafficClass::ALL {
            if !self.is_enabled(class) {
                continue;
            }
            if !first {
                f.write_str(",")?;
            }
            write!(f, "{}={}", class.name(), self.weight(class))?;
            first = false;
        }
        Ok(())
    }
}

impl FromStr for ClassWeights {
    type Err = ClassWeightsError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim().to_ascii_lowercase();
        let mut weights = ClassWeights::default();
        for class in TrafficClass::ALL {
            weights = weights.disable(class);
        }
        for token in s.split(',') {
            let token = token.trim();
            if token.is_empty() {
                continue;
            }
            let (name, weight_str) = token
                .split_once('=')
                .ok_or_else(|| ClassWeightsError::BadToken(token.to_string()))?;
            let class = TrafficClass::ALL
                .into_iter()
                .find(|c| c.name() == name)
                .ok_or_else(|| ClassWeightsError::UnknownClass(name.to_string()))?;
            if weights.is_enabled(class) {
                return Err(ClassWeightsError::DuplicateClass(name.to_string()));
            }
            let weight: u32 = weight_str
                .parse()
                .ok()
                .filter(|w| *w > 0)
                .ok_or_else(|| ClassWeightsError::BadToken(token.to_string()))?;
            weights = weights.enable(class, weight);
        }
        Ok(weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use themis_core::entity::RESERVED_JOB_BASE;

    #[test]
    fn registry_rows_match_declaration_order() {
        // `def()` indexes the table by enum discriminant; the registry's
        // contract is that row i defines the class declared i-th, with
        // contiguous sub-range indexes and the shared name/lane vocabulary.
        for (i, def) in TRAFFIC_CLASSES.iter().enumerate() {
            assert_eq!(def.class as usize, i, "{}", def.name);
            assert_eq!(def.index, i as u64, "{}", def.name);
            assert_eq!(def.name, def.lane, "{}", def.name);
            assert_eq!(TrafficClass::ALL[i], def.class);
        }
    }

    #[test]
    fn classes_partition_without_aliasing() {
        for class in TrafficClass::ALL {
            for server in [0usize, 1, 4095] {
                let meta = class.meta(server);
                assert!(meta.is_reserved(), "{class}");
                assert_eq!(TrafficClass::of(meta.job), Some(class), "{class}");
                assert_eq!(meta.job.reserved_instance(), Some(server as u64));
            }
        }
        // Distinct classes on the same server get distinct jobs and users.
        let d = TrafficClass::Drain.meta(3);
        let r = TrafficClass::Restore.meta(3);
        assert_ne!(d.job, r.job);
        assert_ne!(d.user, r.user);
        // Client jobs belong to no class.
        assert_eq!(TrafficClass::of(JobId(42)), None);
    }

    #[test]
    fn drain_sub_range_starts_at_the_legacy_base() {
        // PR 2's drain traffic ran under RESERVED_JOB_BASE + server; class 0
        // preserves those ids exactly, so telemetry across versions agrees.
        assert_eq!(TrafficClass::Drain.job_base(), RESERVED_JOB_BASE);
        assert_eq!(TrafficClass::Drain.meta(5).job, reserved_job_id(0, 5));
    }

    #[test]
    fn weights_clamp_and_default() {
        let w = ClassWeights::default();
        assert_eq!(w.weight(TrafficClass::Drain), 8);
        assert_eq!(w.weight(TrafficClass::Scrub), 16);
        assert_eq!(w.weight(TrafficClass::Replicate), 16);
        assert!(!w.is_enabled(TrafficClass::Scrub));
        assert!(w.is_enabled(TrafficClass::Rebalance));
        assert!(!w.is_enabled(TrafficClass::Replicate));
        let z = ClassWeights::default().with_weight(TrafficClass::Drain, 0);
        assert_eq!(z.weight(TrafficClass::Drain), 1);
        assert_eq!(ClassWeights::uniform(0).weight(TrafficClass::Restore), 1);
    }

    #[test]
    fn builder_round_trips_through_the_dsl() {
        let w = ClassWeights::default()
            .enable(TrafficClass::Scrub, 16)
            .enable(TrafficClass::Replicate, 16)
            .enable(TrafficClass::Drain, 4);
        let text = w.to_string();
        assert_eq!(text, "drain=4,restore=8,scrub=16,rebalance=16,replicate=16");
        assert_eq!(text.parse::<ClassWeights>().unwrap(), w);
        // The ISSUE's example form: unlisted classes parse back disabled.
        let sparse: ClassWeights = "drain=8,scrub=16,replicate=16".parse().unwrap();
        assert!(sparse.is_enabled(TrafficClass::Scrub));
        assert!(!sparse.is_enabled(TrafficClass::Restore));
        assert_eq!(sparse.weight(TrafficClass::Restore), 8);
        assert_eq!(sparse.to_string().parse::<ClassWeights>().unwrap(), sparse);
    }

    #[test]
    fn dsl_rejects_garbage() {
        for (input, why) in [
            ("drain", "missing weight"),
            ("drain=0", "zero weight"),
            ("drain=x", "non-numeric weight"),
            ("compact=8", "unknown class"),
            ("drain=8,drain=4", "duplicate class"),
        ] {
            assert!(input.parse::<ClassWeights>().is_err(), "{why}: {input}");
        }
    }
}
