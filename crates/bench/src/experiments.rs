//! Shared perf-trajectory experiments and their machine-readable report.
//!
//! Three bins consume this module: `drain_weights` (stage-out
//! interference), `class_interference --class <name>` (stage-in,
//! maintenance-class, shard-migration and durability-replication
//! interference, one [`CLASS_INTERFERENCE`] row each) and `sched_scaling`
//! (production-cardinality scheduler latency), which emits the combined
//! [`BenchReport`] as flat JSON (`BENCH_pr10.json`) and gates it against a
//! committed baseline (`crates/bench/baseline.json`) — the CI `bench` job's
//! regression check.
//! The interference numbers are driven by the deterministic simulator, so
//! they are bit-stable for a given code revision and a regression is
//! attributable to a code change, not noise. The report also carries
//! *wall-clock* data points measured through the vendored criterion shim:
//! the three-lane [`StagedEngine`](themis_stage::StagedEngine)
//! select/complete hot path ([`staged_select_wallclock_pair`]) and the
//! per-op scheduler cost at 10³/10⁴/10⁵ backlogged jobs
//! ([`ScalingNumbers`]). Wall-clock numbers are machine-dependent, so
//! none is gated against the baseline; two same-run ratios, where machine
//! speed cancels, are gated instead: the telemetry twin vs its plain round,
//! and the 10⁵-job select vs its 10³-job twin (an O(n) scan sneaking back
//! into `next()` costs *milliseconds* at 10⁵ jobs, far beyond any host's
//! jitter).

use std::collections::HashMap;
use themis_baselines::Algorithm;
use themis_core::entity::{JobId, JobMeta};
use themis_core::policy::Policy;
use themis_device::DeviceConfig;
use themis_sim::metrics::NS_PER_SEC;
use themis_sim::{OpPattern, SimConfig, SimJob, SimStagingConfig, Simulation};
use themis_stage::TrafficClass;

/// The machine-readable perf snapshot of one revision: foreground slowdown
/// under weighted drain and restore pressure, sustained class bandwidth,
/// and tail latency. Serialized as flat JSON, one numeric field per key.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Checkpoint slowdown (%) vs the no-staging baseline, drain at 1:1.
    pub drain_fg_slowdown_pct_1_1: f64,
    /// Checkpoint slowdown (%) vs the no-staging baseline, drain at 8:1 —
    /// the headline number the regression gate watches.
    pub drain_fg_slowdown_pct_8_1: f64,
    /// Sustained drain bandwidth (MiB/s of drained bytes over the run) at
    /// 8:1 against a fast capacity tier.
    pub drain_drained_mib_s_8_1: f64,
    /// Checkpoint slowdown (%) vs the no-restore baseline, restore at 1:1.
    pub restore_fg_slowdown_pct_1_1: f64,
    /// Checkpoint slowdown (%) vs the no-restore baseline, restore at 8:1 —
    /// the second number the regression gate watches.
    pub restore_fg_slowdown_pct_8_1: f64,
    /// Sustained restore bandwidth (MiB/s of restored bytes) at 8:1.
    pub restore_restored_mib_s_8_1: f64,
    /// Checkpointer p99 request latency (ms) under the restore storm, 8:1.
    pub restore_fg_p99_ms_8_1: f64,
    /// Gated reader p99 request latency (ms) under the restore storm, 8:1
    /// (includes restore queue delay; expected to be large by design).
    pub restore_reader_p99_ms_8_1: f64,
    /// Checkpoint slowdown (%) vs the scrub-disabled baseline, scrub at
    /// 1:1.
    pub scrub_fg_slowdown_pct_1_1: f64,
    /// Checkpoint slowdown (%) vs the scrub-disabled baseline, scrub at
    /// 8:1 — the third number the regression gate watches (the PR 5
    /// acceptance bound: the premium checkpointer keeps ≥ 8/9 of its
    /// scrub-disabled throughput).
    pub scrub_fg_slowdown_pct_8_1: f64,
    /// Sustained verification bandwidth (MiB/s of scrubbed bytes over the
    /// 8:1 run).
    pub scrub_scrubbed_mib_s_8_1: f64,
    /// Checkpoint slowdown (%) vs the rebalance-disabled baseline, the
    /// migration at 1:1.
    pub rebalance_fg_slowdown_pct_1_1: f64,
    /// Checkpoint slowdown (%) vs the rebalance-disabled baseline at 8:1 —
    /// the fourth number the regression gate watches (the PR 8 acceptance
    /// bound: a mid-run reshard costs the premium checkpointer no more than
    /// the 9/8 bound the other background classes already honour).
    pub rebalance_fg_slowdown_pct_8_1: f64,
    /// Sustained migration bandwidth (MiB/s of migrated bytes over the 8:1
    /// run).
    pub rebalance_migrated_mib_s_8_1: f64,
    /// Checkpoint slowdown (%) vs the replication-disabled baseline, the
    /// replicate class at 1:1.
    pub replicate_fg_slowdown_pct_1_1: f64,
    /// Checkpoint slowdown (%) vs the replication-disabled baseline at 8:1
    /// — the fifth number the regression gate watches (the PR 9 acceptance
    /// bound: paying the durability debt costs the premium checkpointer no
    /// more than the 9/8 bound the other background classes honour).
    pub replicate_fg_slowdown_pct_8_1: f64,
    /// Sustained replication bandwidth (MiB/s of replicated bytes over the
    /// 8:1 run).
    pub replicate_replicated_mib_s_8_1: f64,
    /// Wall-clock median of one three-lane
    /// [`StagedEngine`](themis_stage::StagedEngine) select/complete round
    /// (ns/iter), measured through the vendored criterion shim.
    /// Machine-dependent — reported for the perf trajectory, never gated.
    pub staged_select_ns: f64,
    /// The same round with a live
    /// [`MetricsRegistry`](themis_telemetry::MetricsRegistry) attached to
    /// the engine, so every admit/select also bumps the per-lane telemetry
    /// counters. Gated against [`Self::staged_select_ns`] *within the same
    /// run* (never against the committed baseline): both numbers come from
    /// the same process moments apart, so machine speed cancels in the
    /// ratio and the gate measures exactly the instrumentation overhead —
    /// see [`check_regression`] for the bound.
    pub staged_select_telemetry_ns: f64,
    /// Wall-clock median of one steady-state [`ThemisScheduler`] token
    /// draw (`next` + re-enqueue of the served request) with 10³ jobs
    /// backlogged (ns/op). Reported for the trajectory and consumed by the
    /// same-run cardinality-flatness gate as the small-cardinality anchor.
    ///
    /// [`ThemisScheduler`]: themis_core::sched::ThemisScheduler
    pub select_ns_1e3_jobs: f64,
    /// The same steady-state draw with 10⁴ jobs backlogged (ns/op).
    /// Reported, never gated.
    pub select_ns_1e4_jobs: f64,
    /// The same steady-state draw with 10⁵ jobs backlogged (ns/op) — the
    /// production-cardinality headline. Gated only against
    /// [`Self::select_ns_1e3_jobs`] *from the same run* (≤ max(8×, +1 µs)),
    /// so machine speed cancels and the ratio detects an O(jobs) scan
    /// sneaking back into the hot path regardless of host; its committed
    /// value is reported for the trajectory, never compared.
    pub select_ns_1e5_jobs: f64,
    /// Wall-clock median of one [`Scheduler::refresh`] call with 10⁵ jobs
    /// and an *unchanged* table and policy (ns/op) — the amortized regime
    /// the revision cache buys: heartbeat-driven refresh storms must cost a
    /// revision compare, not a 10⁵-share recompute. Reported, never gated
    /// (the cached path is a few nanoseconds; the baseline floor would
    /// dwarf it).
    ///
    /// [`Scheduler::refresh`]: themis_core::sched::Scheduler::refresh
    pub refresh_ns_1e5_jobs: f64,
    /// Wall-clock median of one enqueue onto an already-backlogged queue
    /// with 10⁵ jobs queued (ns/op). Reported, never gated.
    pub enqueue_ns_1e5_jobs: f64,
    /// Wall-clock median of one five-lane
    /// [`StagedEngine`](themis_stage::StagedEngine) select/complete/re-admit
    /// round with 10⁵ foreground tenants behind the foreground lane
    /// (ns/op). Reported, never gated.
    pub staged_select_ns_1e5_jobs: f64,
}

impl BenchReport {
    /// Runs every sim-derived interference experiment and the wall-clock
    /// `(plain, telemetry)` staged-select pair, and joins them with the
    /// cardinality `scaling` numbers the caller already measured (the
    /// `sched_scaling` bin prints its sweep first and must not run it twice).
    pub fn measure_with(scaling: ScalingNumbers) -> Self {
        let drain = drain_experiment();
        let restore = restore_experiment();
        let [scrub, rebalance, replicate] = [
            TrafficClass::Scrub,
            TrafficClass::Rebalance,
            TrafficClass::Replicate,
        ]
        .map(|class| ClassInterference::of(class).experiment());
        // The two halves gate against each other, so they are measured
        // together.
        let (staged_select_ns, staged_select_telemetry_ns) = staged_select_wallclock_pair();
        BenchReport {
            drain_fg_slowdown_pct_1_1: drain.fg_slowdown_pct_1_1,
            drain_fg_slowdown_pct_8_1: drain.fg_slowdown_pct_8_1,
            drain_drained_mib_s_8_1: drain.drained_mib_s_8_1,
            restore_fg_slowdown_pct_1_1: restore.interference.fg_slowdown_pct_1_1,
            restore_fg_slowdown_pct_8_1: restore.interference.fg_slowdown_pct_8_1,
            restore_restored_mib_s_8_1: restore.interference.moved_mib_s_8_1,
            restore_fg_p99_ms_8_1: restore.fg_p99_ms_8_1,
            restore_reader_p99_ms_8_1: restore.reader_p99_ms_8_1,
            scrub_fg_slowdown_pct_1_1: scrub.fg_slowdown_pct_1_1,
            scrub_fg_slowdown_pct_8_1: scrub.fg_slowdown_pct_8_1,
            scrub_scrubbed_mib_s_8_1: scrub.moved_mib_s_8_1,
            rebalance_fg_slowdown_pct_1_1: rebalance.fg_slowdown_pct_1_1,
            rebalance_fg_slowdown_pct_8_1: rebalance.fg_slowdown_pct_8_1,
            rebalance_migrated_mib_s_8_1: rebalance.moved_mib_s_8_1,
            replicate_fg_slowdown_pct_1_1: replicate.fg_slowdown_pct_1_1,
            replicate_fg_slowdown_pct_8_1: replicate.fg_slowdown_pct_8_1,
            replicate_replicated_mib_s_8_1: replicate.moved_mib_s_8_1,
            staged_select_ns,
            staged_select_telemetry_ns,
            select_ns_1e3_jobs: scaling.select_ns_1e3_jobs,
            select_ns_1e4_jobs: scaling.select_ns_1e4_jobs,
            select_ns_1e5_jobs: scaling.select_ns_1e5_jobs,
            refresh_ns_1e5_jobs: scaling.refresh_ns_1e5_jobs,
            enqueue_ns_1e5_jobs: scaling.enqueue_ns_1e5_jobs,
            staged_select_ns_1e5_jobs: scaling.staged_select_ns_1e5_jobs,
        }
    }

    /// The report's `(key, value)` pairs in serialization order.
    pub fn entries(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("drain_fg_slowdown_pct_1_1", self.drain_fg_slowdown_pct_1_1),
            ("drain_fg_slowdown_pct_8_1", self.drain_fg_slowdown_pct_8_1),
            ("drain_drained_mib_s_8_1", self.drain_drained_mib_s_8_1),
            (
                "restore_fg_slowdown_pct_1_1",
                self.restore_fg_slowdown_pct_1_1,
            ),
            (
                "restore_fg_slowdown_pct_8_1",
                self.restore_fg_slowdown_pct_8_1,
            ),
            (
                "restore_restored_mib_s_8_1",
                self.restore_restored_mib_s_8_1,
            ),
            ("restore_fg_p99_ms_8_1", self.restore_fg_p99_ms_8_1),
            ("restore_reader_p99_ms_8_1", self.restore_reader_p99_ms_8_1),
            ("scrub_fg_slowdown_pct_1_1", self.scrub_fg_slowdown_pct_1_1),
            ("scrub_fg_slowdown_pct_8_1", self.scrub_fg_slowdown_pct_8_1),
            ("scrub_scrubbed_mib_s_8_1", self.scrub_scrubbed_mib_s_8_1),
            (
                "rebalance_fg_slowdown_pct_1_1",
                self.rebalance_fg_slowdown_pct_1_1,
            ),
            (
                "rebalance_fg_slowdown_pct_8_1",
                self.rebalance_fg_slowdown_pct_8_1,
            ),
            (
                "rebalance_migrated_mib_s_8_1",
                self.rebalance_migrated_mib_s_8_1,
            ),
            (
                "replicate_fg_slowdown_pct_1_1",
                self.replicate_fg_slowdown_pct_1_1,
            ),
            (
                "replicate_fg_slowdown_pct_8_1",
                self.replicate_fg_slowdown_pct_8_1,
            ),
            (
                "replicate_replicated_mib_s_8_1",
                self.replicate_replicated_mib_s_8_1,
            ),
            ("staged_select_ns", self.staged_select_ns),
            (
                "staged_select_telemetry_ns",
                self.staged_select_telemetry_ns,
            ),
            ("select_ns_1e3_jobs", self.select_ns_1e3_jobs),
            ("select_ns_1e4_jobs", self.select_ns_1e4_jobs),
            ("select_ns_1e5_jobs", self.select_ns_1e5_jobs),
            ("refresh_ns_1e5_jobs", self.refresh_ns_1e5_jobs),
            ("enqueue_ns_1e5_jobs", self.enqueue_ns_1e5_jobs),
            ("staged_select_ns_1e5_jobs", self.staged_select_ns_1e5_jobs),
        ]
    }

    /// Flat JSON rendering (the workspace is offline — no serde_json — so
    /// the format is hand-rolled: one `"key": value` pair per line).
    pub fn to_json(&self) -> String {
        let body = self
            .entries()
            .iter()
            .map(|(k, v)| format!("  \"{k}\": {v:.3}"))
            .collect::<Vec<_>>()
            .join(",\n");
        format!("{{\n{body}\n}}\n")
    }
}

/// Parses the flat JSON a [`BenchReport`] serializes to (also tolerant of
/// hand-edited whitespace). Unknown keys are kept; malformed lines are
/// ignored.
pub fn parse_flat_json(text: &str) -> HashMap<String, f64> {
    let mut out = HashMap::new();
    for pair in text.split(',') {
        let Some((key_part, value_part)) = pair.split_once(':') else {
            continue;
        };
        let Some(key) = key_part.split('"').nth(1) else {
            continue;
        };
        let value_clean: String = value_part
            .chars()
            .filter(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e' || *c == 'E')
            .collect();
        if let Ok(value) = value_clean.parse::<f64>() {
            out.insert(key.to_string(), value);
        }
    }
    out
}

/// The regression gate: each watched slowdown may exceed its committed
/// baseline by at most 20% of the baseline's *magnitude* — `|base|`, so the
/// headroom stays 20%-proportional when the baseline is negative (a
/// protected checkpointer can legitimately be *faster* than its
/// storm-free comparison run) — with a 1-percentage-point absolute floor so
/// a near-zero baseline does not turn numeric dust into a failure. On top
/// of the baseline-gated keys, two same-run rules apply (see the inline
/// comments): the telemetry-overhead pair and the cardinality-flatness
/// ratio. Returns the violations (empty = pass).
pub fn check_regression(current: &BenchReport, baseline: &HashMap<String, f64>) -> Vec<String> {
    let mut violations = Vec::new();
    for key in [
        "drain_fg_slowdown_pct_8_1",
        "restore_fg_slowdown_pct_8_1",
        "scrub_fg_slowdown_pct_8_1",
        "rebalance_fg_slowdown_pct_8_1",
        "replicate_fg_slowdown_pct_8_1",
    ] {
        let Some(&base) = baseline.get(key) else {
            violations.push(format!("baseline is missing the gated key '{key}'"));
            continue;
        };
        let now = current
            .entries()
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .expect("gated keys are report fields");
        let limit = base + (base.abs() * 0.2).max(1.0);
        if now > limit {
            violations.push(format!(
                "{key}: {now:.3}% exceeds the >20% regression limit \
                 ({limit:.3}%, baseline {base:.3}%)"
            ));
        }
    }
    // Telemetry overhead gate — same-run, not vs the committed baseline:
    // the plain and telemetry-attached rounds were measured moments apart
    // in this process, so machine speed cancels and the comparison isolates
    // what the counters cost. Bound: ≤10% of the plain round, with an 8 ns
    // absolute floor so a sub-60 ns hot path doesn't fail on scheduler
    // jitter smaller than a cache miss.
    let plain = current.staged_select_ns;
    let telemetry = current.staged_select_telemetry_ns;
    let limit = (plain * 1.10).max(plain + 8.0);
    if telemetry > limit {
        violations.push(format!(
            "staged_select_telemetry_ns: {telemetry:.3} ns exceeds the 10% telemetry \
             overhead limit ({limit:.3} ns over the same-run plain round {plain:.3} ns)"
        ));
    }
    // Cardinality-flatness gate — same-run, never vs the committed
    // baseline: the 10³- and 10⁵-job draws were measured interleaved
    // moments apart in this process, so machine speed cancels in the ratio.
    // (`select_ns_1e5_jobs` is reported, not compared with its committed
    // value: as a wall-clock number it moves with the host, and wall-clock
    // claims belong to the end-to-end benchmark.) The failure this gate
    // exists to catch is a linear scan re-entering `next()` or the sampler
    // rebuild, which costs *milliseconds* per op at 10⁵ jobs — a 1000×+
    // ratio. The bound is max(8×, +1 µs): wide enough that last-level-cache
    // and TLB misses on the ~10 MiB of 10⁵-job tables (a 5–6× ratio over a
    // ~55 ns L2-resident anchor on a busy 2-vCPU host) never trip it, and
    // still three orders of magnitude below that scan.
    let small = current.select_ns_1e3_jobs;
    let large = current.select_ns_1e5_jobs;
    let limit = (small * 8.0).max(small + 1_000.0);
    if large > limit {
        violations.push(format!(
            "select_ns_1e5_jobs: {large:.3} ns breaks the same-run cardinality-flatness \
             bound ({limit:.3} ns = max(8x, +1 us) of the 1e3-job draw {small:.3} ns): \
             per-op cost is no longer ~log(jobs)"
        ));
    }
    violations
}

/// Parses a `--flag value` style argument (shared by the perf-report bins).
pub fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// The perf-report bins' shared `--json` / `--baseline` tail: write the
/// measured [`BenchReport`] to `json_path` when given, and gate it against
/// the committed `baseline_path` when given. Returns the process exit code:
/// `0` pass, `1` gate violation, `2` I/O error — one implementation, so the
/// bins can never diverge on gate semantics.
pub fn emit_and_gate(
    report: &BenchReport,
    json_path: Option<&str>,
    baseline_path: Option<&str>,
) -> i32 {
    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("error: cannot write {path}: {e}");
            return 2;
        }
        println!("\nwrote {path}");
    }
    if let Some(path) = baseline_path {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("error: cannot read baseline {path}: {e}");
                return 2;
            }
        };
        let violations = check_regression(report, &parse_flat_json(&text));
        if !violations.is_empty() {
            eprintln!("regression gate vs {path}: FAIL");
            for v in &violations {
                eprintln!("  - {v}");
            }
            return 1;
        }
        println!("regression gate vs {path}: PASS");
    }
    0
}

/// Stage-out interference numbers (the `drain_weights` experiment distilled
/// to its gated series: fast capacity tier, so the weight is the binding
/// constraint).
pub struct DrainNumbers {
    /// Checkpoint time without staging (seconds).
    pub baseline_secs: f64,
    /// Slowdown (%) at foreground:drain 1:1.
    pub fg_slowdown_pct_1_1: f64,
    /// Slowdown (%) at foreground:drain 8:1.
    pub fg_slowdown_pct_8_1: f64,
    /// Drained MiB/s over the 8:1 run.
    pub drained_mib_s_8_1: f64,
}

/// Two 1 GiB checkpoint bursts from 16 ranks against one server — the PR 2
/// drain workload.
pub fn checkpoint_bursts() -> Vec<SimJob> {
    let meta = JobMeta::new(1u64, 1u32, 1u32, 16);
    let burst = |start_ns: u64| {
        SimJob::new(
            meta,
            16,
            OpPattern::WriteOnly {
                bytes_per_op: 1 << 20,
            },
        )
        .starting_at(start_ns)
        .with_max_ops(64)
        .with_queue_depth(4)
    };
    vec![burst(0), burst(2 * NS_PER_SEC / 5)]
}

/// Runs the drain workload under `staging` and reports the checkpoint time,
/// drained bytes and residual dirty bytes.
pub fn run_drain(staging: Option<SimStagingConfig>) -> (f64, u64, u64) {
    let config = SimConfig {
        staging,
        ..SimConfig::new(1, Algorithm::Themis(Policy::size_fair()))
    };
    let result = Simulation::new(config, checkpoint_bursts()).run();
    let finish_secs = result.job_finish_ns[&JobId(1)] as f64 / 1e9;
    (
        finish_secs,
        result.drained_bytes,
        result.residual_dirty_bytes,
    )
}

/// The drain half of the report.
pub fn drain_experiment() -> DrainNumbers {
    let (baseline_secs, _, _) = run_drain(None);
    let fast = |weight| SimStagingConfig {
        backing_device: DeviceConfig::optane_ssd(),
        drain_weight: weight,
        ..SimStagingConfig::default()
    };
    let (even_secs, _, _) = run_drain(Some(fast(1)));
    let (weighted_secs, drained, _) = run_drain(Some(fast(8)));
    DrainNumbers {
        baseline_secs,
        fg_slowdown_pct_1_1: (even_secs / baseline_secs - 1.0) * 100.0,
        fg_slowdown_pct_8_1: (weighted_secs / baseline_secs - 1.0) * 100.0,
        drained_mib_s_8_1: drained as f64 / (1 << 20) as f64 / weighted_secs,
    }
}

/// Interference numbers of one background class: a premium checkpointer
/// against the class at foreground:class 1:1 and 8:1, relative to the run
/// with the class idle.
pub struct InterferenceNumbers {
    /// Checkpoint time with the class idle (seconds).
    pub baseline_secs: f64,
    /// Slowdown (%) at foreground:class 1:1.
    pub fg_slowdown_pct_1_1: f64,
    /// Slowdown (%) at foreground:class 8:1.
    pub fg_slowdown_pct_8_1: f64,
    /// MiB/s the class moved over the 8:1 run.
    pub moved_mib_s_8_1: f64,
}

/// Stage-in interference numbers: the restore class's
/// [`InterferenceNumbers`] plus the tail latencies of the storm — the only
/// experiment with a second, deliberately gated tenant.
pub struct RestoreNumbers {
    /// Slowdowns and restored MiB/s.
    pub interference: InterferenceNumbers,
    /// Checkpointer p99 (ms) under the 8:1 storm.
    pub fg_p99_ms_8_1: f64,
    /// Gated reader p99 (ms) under the 8:1 storm.
    pub reader_p99_ms_8_1: f64,
}

/// The standing backlog of the maintenance-class experiments: 4 GiB of
/// extents left by *previous* runs — unverified (scrub), on the wrong side
/// of a shard-map split (rebalance), or acked `local_plus_one` with their
/// copies still owed (replicate). A standing backlog is what makes the
/// foreground:class weight bind — with only this run's drains to chase, the
/// lane empties between trickle-fed chunks and rides the idle-expansion
/// path, and the weight never engages.
pub const CLASS_BACKLOG_BYTES: u64 = 4 << 30;

/// The 16-rank, 1 GiB checkpoint writer every class experiment protects.
fn checkpointer() -> SimJob {
    SimJob::new(
        JobMeta::new(1u64, 1u32, 1u32, 8),
        16,
        OpPattern::WriteOnly {
            bytes_per_op: 1 << 20,
        },
    )
    .with_max_ops(64)
    .with_queue_depth(4)
}

/// Runs `jobs` on one server under `staging`.
///
/// The checkpointer (user 1) is the premium tenant at 8:1, so the measured
/// slowdown isolates what the background *class* costs the protected
/// foreground — with an even split, a second tenant's shed share would make
/// a storm run *faster* than baseline and the slowdown number would never
/// bind.
fn run_class(jobs: Vec<SimJob>, staging: SimStagingConfig) -> themis_sim::SimResult {
    let config = SimConfig {
        staging: Some(staging),
        ..SimConfig::new(
            1,
            Algorithm::Themis("user[8]-fair".parse().expect("valid DSL")),
        )
    };
    Simulation::new(config, jobs).run()
}

/// The staging configuration the class experiments share: a capacity tier
/// as fast as the burst buffer (so the weight, not the tier, is the binding
/// constraint), drain at 8:1, 8 MiB chunks four deep.
fn class_staging() -> SimStagingConfig {
    SimStagingConfig {
        backing_device: DeviceConfig::optane_ssd(),
        drain_weight: 8,
        drain_chunk_bytes: 8 << 20,
        max_inflight: 4,
        ..SimStagingConfig::default()
    }
}

/// The restore workload: the checkpoint racing 512 MiB of reads whose
/// working set was fully evicted when `active` (every read waits on a
/// policy-admitted restore), drain and restore both at `weight`:1.
fn run_restore(weight: u32, active: bool) -> themis_sim::SimResult {
    let reader = SimJob::new(
        JobMeta::new(2u64, 2u32, 1u32, 8),
        8,
        OpPattern::ReadOnly {
            bytes_per_op: 1 << 20,
        },
    )
    .with_max_ops(64)
    .with_queue_depth(4);
    let staging = SimStagingConfig {
        drain_weight: weight,
        restore_weight: weight,
        restore_miss_rate: if active { 1.0 } else { 0.0 },
        ..class_staging()
    };
    run_class(vec![checkpointer(), reader], staging)
}

/// The scrub workload: the checkpoint racing one pass over the
/// [backlog](CLASS_BACKLOG_BYTES) plus this run's drained bytes.
fn run_scrub(weight: u32, active: bool) -> themis_sim::SimResult {
    let staging = SimStagingConfig {
        scrub_weight: weight,
        scrub_enabled: active,
        scrub_backlog_bytes: CLASS_BACKLOG_BYTES,
        ..class_staging()
    };
    run_class(vec![checkpointer()], staging)
}

/// The rebalance workload: the checkpoint racing the migration of the
/// [backlog](CLASS_BACKLOG_BYTES). The reshard fires at t=0 so the migration
/// competes for the whole checkpoint window — the worst-case phase
/// alignment.
fn run_rebalance(weight: u32, active: bool) -> themis_sim::SimResult {
    let staging = SimStagingConfig {
        rebalance_weight: weight,
        rebalance_enabled: active,
        rebalance_backlog_bytes: CLASS_BACKLOG_BYTES,
        reshard_at_ns: 0,
        ..class_staging()
    };
    run_class(vec![checkpointer()], staging)
}

/// The replicate workload: the checkpoint, every byte of which owes an
/// early copy, racing the pay-down of the [backlog](CLASS_BACKLOG_BYTES).
fn run_replicate(weight: u32, active: bool) -> themis_sim::SimResult {
    let staging = SimStagingConfig {
        replicate_weight: weight,
        replicate_enabled: active,
        replicate_fraction: 1.0,
        replicate_backlog_bytes: CLASS_BACKLOG_BYTES,
        ..class_staging()
    };
    run_class(vec![checkpointer()], staging)
}

/// One row of the interference table: how to run a class's experiment, which
/// counter it moved, and how the `class_interference` bin words its report.
pub struct ClassInterference {
    /// The class under test (`--class` matches its registry name).
    pub class: TrafficClass,
    /// Runs the workload at foreground:class `weight`:1; with `active` false
    /// the class has nothing to do (the baseline).
    pub run: fn(weight: u32, active: bool) -> themis_sim::SimResult,
    /// The bytes the class moved in a run.
    pub moved_bytes: fn(&themis_sim::SimResult) -> u64,
    /// Verb of the moved bytes, as the report key spells it
    /// (`<class>_<verb>_mib_s_8_1`).
    pub verb: &'static str,
    /// What the experiment sets against the checkpoint.
    pub setup: &'static str,
    /// Label of the baseline row.
    pub baseline: &'static str,
    /// What else a table row reports about a run.
    pub detail: fn(&themis_sim::SimResult) -> String,
    /// The conclusion the numbers support.
    pub takeaway: &'static str,
}

fn finished_at(result: &themis_sim::SimResult) -> f64 {
    result.sim_end_ns as f64 / 1e9
}

/// The interference experiments, one row per class, in registry order.
pub const CLASS_INTERFERENCE: [ClassInterference; 4] = [
    ClassInterference {
        class: TrafficClass::Restore,
        run: run_restore,
        moved_bytes: |r| r.restored_bytes,
        verb: "restored",
        setup: "an 8-rank reader streaming 512 MiB whose working set was fully evicted:\n\
                every read waits for a policy-admitted restore of equal size",
        baseline: "no restores (reads all hit)",
        detail: |r| {
            format!(
                "reader done at {:>7.3} s  reader p99 {:>7.2} ms",
                r.job_finish_ns[&JobId(2)] as f64 / 1e9,
                r.tenant_latency(JobId(2)).p99_ns as f64 / 1e6
            )
        },
        takeaway: "the reader is deliberately gated to restore bandwidth; at 1:1 the storm\n  \
                   legitimately takes half the device. Before stage-in was policy-admitted,\n  \
                   the same storm dispatched raw on the DeviceTimeline and was unbounded.",
    },
    ClassInterference {
        class: TrafficClass::Scrub,
        run: run_scrub,
        moved_bytes: |r| r.scrubbed_bytes,
        verb: "scrubbed",
        setup: "a scrub pass over a deep tier: a 4 GiB boot backlog plus this run's\n\
                drains, every byte re-read and verified against its write-back checksum",
        baseline: "scrubbing disabled",
        detail: |r| {
            format!(
                "{} mismatches  pass done at {:>7.3} s",
                r.scrub_errors,
                finished_at(r)
            )
        },
        takeaway: "every drained byte is still verified before the run quiesces. Scrub is\n  \
                   synthesized from *tier state* rather than client traffic — the same\n  \
                   two-level WFQ bounds it without any new mechanism.",
    },
    ClassInterference {
        class: TrafficClass::Rebalance,
        run: run_rebalance,
        moved_bytes: |r| r.migrated_bytes,
        verb: "migrated",
        setup: "the migration of a 4 GiB backlog whose range changed owner when the shard\n\
                map split at t=0: each chunk read verified off its old holder and\n\
                rewritten onto the new replica set",
        baseline: "rebalancing disabled",
        detail: |r| format!("pass done at {:>7.3} s", finished_at(r)),
        takeaway: "the whole backlog still lands on its new replica set before the run\n  \
                   quiesces: resharding is bounded by its policy weight like every\n  \
                   other class.",
    },
    ClassInterference {
        class: TrafficClass::Replicate,
        run: run_replicate,
        moved_bytes: |r| r.replicated_bytes,
        verb: "replicated",
        setup: "the pay-down of a 4 GiB boot debt plus this run's writes, all acked\n\
                local_plus_one: each copy an early drain, read off the burst tier and\n\
                written to the capacity tier; a byte either lane copied is not copied again",
        baseline: "replication disabled",
        detail: |r| format!("lag zero at {:>7.3} s", finished_at(r)),
        takeaway: "the whole durability debt still lands in the capacity tier before the\n  \
                   run quiesces. Replication is policy, not mechanism: a write's\n  \
                   durability class only decides which bytes leave early.",
    },
];

impl ClassInterference {
    /// The row of `class`; drain has its own experiment ([`drain_experiment`]).
    pub fn of(class: TrafficClass) -> &'static ClassInterference {
        CLASS_INTERFERENCE
            .iter()
            .find(|row| row.class == class)
            .expect("every class but drain has an interference row")
    }

    /// Distils three already-run workloads (baseline, 1:1, 8:1) into the
    /// report numbers — shared with the `class_interference` bin, which
    /// prints its table from the same runs and must not run them twice.
    pub fn numbers(
        &self,
        baseline: &themis_sim::SimResult,
        even: &themis_sim::SimResult,
        weighted: &themis_sim::SimResult,
    ) -> InterferenceNumbers {
        let secs = |r: &themis_sim::SimResult| r.job_finish_ns[&JobId(1)] as f64 / 1e9;
        let baseline_secs = secs(baseline);
        InterferenceNumbers {
            baseline_secs,
            fg_slowdown_pct_1_1: (secs(even) / baseline_secs - 1.0) * 100.0,
            fg_slowdown_pct_8_1: (secs(weighted) / baseline_secs - 1.0) * 100.0,
            moved_mib_s_8_1: (self.moved_bytes)(weighted) as f64
                / (1 << 20) as f64
                / finished_at(weighted),
        }
    }

    /// Runs the three workloads and distils them.
    pub fn experiment(&self) -> InterferenceNumbers {
        self.numbers(
            &(self.run)(8, false),
            &(self.run)(1, true),
            &(self.run)(8, true),
        )
    }
}

/// The restore half of the report.
pub fn restore_experiment() -> RestoreNumbers {
    let row = ClassInterference::of(TrafficClass::Restore);
    let storm = (row.run)(8, true);
    RestoreNumbers {
        interference: row.numbers(&(row.run)(8, false), &(row.run)(1, true), &storm),
        fg_p99_ms_8_1: storm.tenant_latency(JobId(1)).p99_ns as f64 / 1e6,
        reader_p99_ms_8_1: storm.tenant_latency(JobId(2)).p99_ns as f64 / 1e6,
    }
}

/// Production-cardinality scheduler numbers: wall-clock ns/op for the
/// token-draw, enqueue and cached-refresh hot paths at 10³/10⁴/10⁵
/// backlogged jobs, plus the five-lane staged round at 10⁵ tenants. These
/// are the series the PR 10 scaling work is accountable to: before the
/// heap-indexed queues and the incremental sampler rebuild, the 10⁵-job
/// column was dominated by O(jobs) scans and sat orders of magnitude above
/// the 10³ anchor.
pub struct ScalingNumbers {
    /// Steady-state `next` + re-enqueue (ns/op) with 10³ jobs backlogged.
    pub select_ns_1e3_jobs: f64,
    /// The same draw with 10⁴ jobs backlogged.
    pub select_ns_1e4_jobs: f64,
    /// The same draw with 10⁵ jobs backlogged — the gated headline.
    pub select_ns_1e5_jobs: f64,
    /// One `refresh` with an unchanged table/policy at 10⁵ jobs — the
    /// revision-cached regime.
    pub refresh_ns_1e5_jobs: f64,
    /// One enqueue onto an already-backlogged queue at 10⁵ jobs.
    pub enqueue_ns_1e5_jobs: f64,
    /// One five-lane staged select/complete/re-admit round at 10⁵ tenants.
    pub staged_select_ns_1e5_jobs: f64,
}

/// One cardinality point of the scaling sweep: per-op wall-clock numbers
/// for a [`ThemisScheduler`](themis_core::sched::ThemisScheduler) with
/// `jobs` heartbeated, share-holding, backlogged tenants.
pub struct CardinalityPoint {
    /// Steady-state `next` + re-enqueue (ns/op).
    pub select_ns: f64,
    /// One enqueue onto an already-backlogged queue (ns/op).
    pub enqueue_ns: f64,
    /// One `refresh` with the table and policy unchanged (ns/op).
    pub refresh_ns: f64,
}

/// The shared tenant population of the scaling fixtures: `jobs` distinct
/// jobs spread over 1024 users and 1–4 nodes. The policy is `job-fair`
/// (single-tier), so the share computation stays O(jobs) — the sweep
/// measures the *scheduler's* data structures, not the policy matrix.
fn scaling_metas(jobs: usize) -> Vec<JobMeta> {
    (0..jobs)
        .map(|j| {
            JobMeta::new(
                j as u64 + 1,
                (j % 1024) as u32 + 1,
                1u32,
                1 + (j % 4) as u32,
            )
        })
        .collect()
}

/// A ready-to-measure scheduler at one cardinality: `jobs` tenants
/// heartbeated and share-holding, one 4 KiB request queued per tenant,
/// sampler refreshed, rng seeded.
struct SchedFixture {
    sched: themis_core::sched::ThemisScheduler,
    table: themis_core::job_table::JobTable,
    policy: Policy,
    metas: Vec<JobMeta>,
    rng: rand::rngs::SmallRng,
    seq: u64,
}

/// Builds the [`SchedFixture`] the cardinality measurements run against.
fn sched_fixture(jobs: usize) -> SchedFixture {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use themis_core::job_table::JobTable;
    use themis_core::request::IoRequest;
    use themis_core::sched::{Scheduler, ThemisScheduler};

    let policy = Policy::job_fair();
    let mut sched = ThemisScheduler::new(policy.clone());
    let mut table = JobTable::new();
    let metas = scaling_metas(jobs);
    for m in &metas {
        table.heartbeat(*m, 0);
    }
    let mut seq = 0u64;
    for m in &metas {
        sched.enqueue(IoRequest::write(seq, *m, 4096, seq));
        seq += 1;
    }
    // Refresh *after* the backlog forms, as in a steady server (heartbeat
    // refreshes fire while traffic is queued): the share sampler then mints
    // arena-slot draw hints for every queued job, which is the state the
    // hot path runs in. Refreshing first would mint `NO_HINT` everywhere
    // and measure the hash-probe fallback instead.
    sched.refresh(&table, &policy);
    SchedFixture {
        sched,
        table,
        policy,
        metas,
        rng: SmallRng::seed_from_u64(0x10e5),
        seq,
    }
}

/// Measures the **gated** select pair — the 10³-job anchor and the 10⁵-job
/// headline — through [`criterion::measure_interleaved_min_ns`], returning
/// `(select_ns_1e3, select_ns_1e5)`.
///
/// The cardinality-flatness gate divides these two numbers, so they must be
/// measured under the same thermal and frequency conditions: two
/// independent measurements drift apart by enough on a busy host to push a
/// genuinely flat scheduler past the bound (or to mask a real regression).
/// Alternating timed blocks cancel the drift out of the ratio, exactly as
/// the telemetry-overhead gate does for its instrumented/plain pair.
pub fn select_flatness_pair() -> (f64, f64) {
    use themis_core::sched::Scheduler;

    let mut small = sched_fixture(1_000);
    let mut large = sched_fixture(100_000);
    criterion::measure_interleaved_min_ns(
        SCALING_BLOCK_ITERS,
        SCALING_REPS,
        || {
            let req = small
                .sched
                .next(small.seq, &mut small.rng)
                .expect("every tenant stays backlogged");
            small.seq += 1;
            small.sched.enqueue(req);
        },
        || {
            let req = large
                .sched
                .next(large.seq, &mut large.rng)
                .expect("every tenant stays backlogged");
            large.seq += 1;
            large.sched.enqueue(req);
        },
    )
}

/// Iterations per timed block for the cardinality measurements
/// ([`criterion::measure_min_ns`]'s `iters`). Large enough that one block
/// cycles the full 10⁵-tenant working set several times — the warm steady
/// state a saturated server runs — rather than sampling the cold-cache
/// transient the shim's small-batch median plan measures at this scale.
const SCALING_BLOCK_ITERS: u32 = 20_000;

/// Timed repetitions per measurement (min is kept).
const SCALING_REPS: u32 = 7;

/// Measures one [`CardinalityPoint`]: builds a `ThemisScheduler` under
/// `job-fair`, heartbeats `jobs` tenants, refreshes once, seeds one request
/// per job, then times the three hot paths through
/// [`criterion::measure_min_ns`] (warm block, then min over timed blocks —
/// the shim's default 7×64 median plan never escapes the compulsory-miss
/// transient at 10⁵ tenants and would gate on cold-cache cost).
///
/// The select routine re-enqueues the request it served, so every job stays
/// backlogged and every draw takes the fast path — the steady state a
/// saturated server actually runs, and the regime where per-op cost must be
/// ~log(jobs). (Draining to empty instead would rebuild the opportunity
/// sampler once per draw — O(jobs) each — and measure the rebuild, not the
/// draw.) The refresh routine runs with the table and policy unchanged, so
/// it times the revision-cache hit: the cost a heartbeat-driven refresh
/// storm pays per call.
pub fn sched_cardinality_point(jobs: usize) -> CardinalityPoint {
    use criterion::measure_min_ns;
    use themis_core::request::IoRequest;
    use themis_core::sched::Scheduler;

    let SchedFixture {
        mut sched,
        table,
        policy,
        metas,
        mut rng,
        mut seq,
    } = sched_fixture(jobs);

    // Enqueue first, while queue depths are still uniform: each timed call
    // lands on a non-empty queue (round-robin over the tenants), the
    // backlog grows only by the measurement's fixed iteration count, and
    // the select measurement below inherits a still-steady queue
    // population.
    let mut i = 0usize;
    let enqueue_ns = measure_min_ns(SCALING_BLOCK_ITERS, SCALING_REPS, || {
        sched.enqueue(IoRequest::write(seq, metas[i], 4096, seq));
        seq += 1;
        i = (i + 1) % metas.len();
    });
    let select_ns = measure_min_ns(SCALING_BLOCK_ITERS, SCALING_REPS, || {
        let req = sched
            .next(seq, &mut rng)
            .expect("every tenant stays backlogged");
        sched.enqueue(req);
    });
    let refresh_ns = measure_min_ns(SCALING_BLOCK_ITERS, SCALING_REPS, || {
        sched.refresh(&table, &policy)
    });
    CardinalityPoint {
        select_ns,
        enqueue_ns,
        refresh_ns,
    }
}

/// Wall clock of one five-lane
/// [`StagedEngine`](themis_stage::StagedEngine) select/complete/re-admit
/// round (ns/op) with `jobs` foreground tenants backlogged behind the
/// foreground lane and every background lane (drain, restore, scrub,
/// rebalance, replicate) holding work. The served request is re-admitted,
/// so lane depths are steady and the number isolates the arbitration cost
/// at cardinality — the staged twin of the `select_ns_*` sweep.
pub fn staged_select_at_cardinality(jobs: usize) -> f64 {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use themis_core::engine::PolicyEngine;
    use themis_core::job_table::JobTable;
    use themis_core::request::{Completion, IoRequest, OpKind};
    use themis_stage::{ClassWeights, StagedEngine};

    let policy = Policy::job_fair();
    let mut engine = StagedEngine::with_weights(
        Algorithm::Themis(policy.clone()).build(),
        ClassWeights::default(),
    );
    let mut table = JobTable::new();
    let metas = scaling_metas(jobs);
    for m in &metas {
        table.heartbeat(*m, 0);
    }
    engine.reconfigure(&table, &policy);
    let mut seq = 0u64;
    for m in &metas {
        engine.admit(IoRequest::write(seq, *m, 1 << 20, 0));
        seq += 1;
    }
    for bg in [
        TrafficClass::Drain.meta(0),
        TrafficClass::Restore.meta(0),
        TrafficClass::Scrub.meta(0),
        TrafficClass::Rebalance.meta(0),
        TrafficClass::Replicate.meta(0),
    ] {
        engine.admit(IoRequest::new(seq, bg, OpKind::Read, 1 << 20, 0));
        seq += 1;
    }
    let mut rng = SmallRng::seed_from_u64(0x57a6);
    criterion::measure_min_ns(SCALING_BLOCK_ITERS, SCALING_REPS, || {
        let request = engine.select(seq, &mut rng).expect("every lane holds work");
        seq += 1;
        engine.complete(&Completion {
            request,
            start_ns: seq,
            finish_ns: seq + 1,
        });
        engine.admit(request);
    })
}

/// Builds the three-lane scheduler fixture the hot-path measurements run
/// against: a [`StagedEngine`](themis_stage::StagedEngine) over a Themis
/// foreground engine with one heartbeated foreground tenant, plus the
/// seeded rng and the tenant's metadata.
pub fn staged_bench_fixture() -> (themis_stage::StagedEngine, rand::rngs::SmallRng, JobMeta) {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use themis_core::engine::PolicyEngine;
    use themis_core::job_table::JobTable;
    use themis_stage::{ClassWeights, StagedEngine};

    let fg = JobMeta::new(1u64, 1u32, 1u32, 4);
    let mut engine = StagedEngine::with_weights(
        Algorithm::Themis(Policy::size_fair()).build(),
        ClassWeights::default(),
    );
    let mut table = JobTable::new();
    table.heartbeat(fg, 0);
    engine.reconfigure(&table, &Policy::size_fair());
    (engine, SmallRng::seed_from_u64(0x5c8b), fg)
}

/// One steady-state round of the staged scheduler with every class lane
/// backlogged: admit one request per lane (foreground, drain, restore,
/// scrub), then select/complete all four, so queue depth is stable across
/// rounds. Shared by [`staged_select_wallclock_pair`] and the criterion bench
/// target (`benches/scheduler.rs`), so the two measurements cannot drift
/// apart.
pub fn staged_round(
    engine: &mut themis_stage::StagedEngine,
    rng: &mut rand::rngs::SmallRng,
    fg: JobMeta,
    seq: &mut u64,
) {
    use themis_core::engine::PolicyEngine;
    use themis_core::request::{Completion, IoRequest, OpKind};

    engine.admit(IoRequest::write(*seq, fg, 1 << 20, 0));
    engine.admit(IoRequest::new(
        *seq + 1,
        TrafficClass::Drain.meta(0),
        OpKind::Read,
        1 << 20,
        0,
    ));
    engine.admit(IoRequest::new(
        *seq + 2,
        TrafficClass::Restore.meta(0),
        OpKind::Write,
        1 << 20,
        0,
    ));
    engine.admit(IoRequest::new(
        *seq + 3,
        TrafficClass::Scrub.meta(0),
        OpKind::Read,
        1 << 20,
        0,
    ));
    *seq += 4;
    for _ in 0..4 {
        let request = engine.select(*seq, rng).expect("saturated");
        engine.complete(&Completion {
            request,
            start_ns: *seq,
            finish_ns: *seq + 1,
        });
    }
}

/// The [`staged_bench_fixture`] with a live metrics registry attached, so
/// every admit/select of the measured round also records per-lane telemetry
/// (admitted/selected bytes on pre-resolved atomic handles). The registry is
/// returned alongside to keep the instrument series alive for the full
/// measurement.
pub fn staged_telemetry_bench_fixture() -> (
    themis_stage::StagedEngine,
    rand::rngs::SmallRng,
    JobMeta,
    themis_telemetry::MetricsRegistry,
) {
    let (mut engine, rng, fg) = staged_bench_fixture();
    let registry = themis_telemetry::MetricsRegistry::new();
    engine.attach_telemetry(&registry, 0);
    (engine, rng, fg, registry)
}

/// Wall clock of one three-lane
/// [`StagedEngine`](themis_stage::StagedEngine) select/complete round under
/// a saturated foreground + drain + restore + scrub backlog — the scheduler
/// hot path every staged server runs per service slot — measured twice over:
/// once on the plain fixture and once with a live metrics registry attached.
/// Returns `(plain_ns, telemetry_ns)` per served request.
///
/// The two variants are timed **interleaved in one pass**
/// ([`criterion::measure_interleaved_min_ns`]): alternating warm blocks, so
/// frequency drift and noisy neighbours hit both sides equally and the
/// telemetry overhead gate in [`check_regression`] compares like with like.
/// Measuring them as two independent medians made the gate flap by more
/// than its own 10% budget on busy hosts.
pub fn staged_select_wallclock_pair() -> (f64, f64) {
    let (mut ep, mut rp, fgp) = staged_bench_fixture();
    let (mut et, mut rt, fgt, _registry) = staged_telemetry_bench_fixture();
    let (mut sp, mut st) = (0u64, 0u64);
    let (plain, telemetry) = criterion::measure_interleaved_min_ns(
        50_000,
        9,
        || staged_round(&mut ep, &mut rp, fgp, &mut sp),
        || staged_round(&mut et, &mut rt, fgt, &mut st),
    );
    (plain / 4.0, telemetry / 4.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> BenchReport {
        BenchReport {
            drain_fg_slowdown_pct_1_1: 18.3,
            drain_fg_slowdown_pct_8_1: 2.4,
            drain_drained_mib_s_8_1: 1234.5,
            restore_fg_slowdown_pct_1_1: 30.0,
            restore_fg_slowdown_pct_8_1: 5.0,
            restore_restored_mib_s_8_1: 456.7,
            restore_fg_p99_ms_8_1: 1.25,
            restore_reader_p99_ms_8_1: 42.0,
            scrub_fg_slowdown_pct_1_1: 6.0,
            scrub_fg_slowdown_pct_8_1: 1.5,
            scrub_scrubbed_mib_s_8_1: 789.0,
            rebalance_fg_slowdown_pct_1_1: 7.0,
            rebalance_fg_slowdown_pct_8_1: 1.8,
            rebalance_migrated_mib_s_8_1: 654.0,
            replicate_fg_slowdown_pct_1_1: 9.0,
            replicate_fg_slowdown_pct_8_1: 2.0,
            replicate_replicated_mib_s_8_1: 321.0,
            staged_select_ns: 350.0,
            staged_select_telemetry_ns: 360.0,
            select_ns_1e3_jobs: 120.0,
            select_ns_1e4_jobs: 160.0,
            select_ns_1e5_jobs: 240.0,
            refresh_ns_1e5_jobs: 15.0,
            enqueue_ns_1e5_jobs: 90.0,
            staged_select_ns_1e5_jobs: 400.0,
        }
    }

    #[test]
    fn json_roundtrip_preserves_every_key() {
        let report = sample_report();
        let parsed = parse_flat_json(&report.to_json());
        assert_eq!(parsed.len(), report.entries().len());
        for (key, value) in report.entries() {
            assert!(
                (parsed[key] - value).abs() < 1e-3,
                "{key}: {} vs {value}",
                parsed[key]
            );
        }
    }

    #[test]
    fn regression_gate_trips_only_beyond_the_documented_limit() {
        let mut report = sample_report();
        let baseline = parse_flat_json(&report.to_json());
        assert!(check_regression(&report, &baseline).is_empty());
        // Within the 1-point absolute floor: still fine.
        report.drain_fg_slowdown_pct_8_1 = 3.3;
        assert!(check_regression(&report, &baseline).is_empty());
        // Beyond base + max(0.2·|base|, 1.0): trips, naming the key.
        report.drain_fg_slowdown_pct_8_1 = 3.5;
        let violations = check_regression(&report, &baseline);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("drain_fg_slowdown_pct_8_1"));
        // A negative baseline (a protected foreground can be *faster* than
        // its comparison run) keeps proportional 20% headroom: base −15 →
        // limit −12.
        report.drain_fg_slowdown_pct_8_1 = 2.4;
        let negative = parse_flat_json(
            "{\"drain_fg_slowdown_pct_8_1\": 2.4, \"restore_fg_slowdown_pct_8_1\": -15.0, \
             \"scrub_fg_slowdown_pct_8_1\": 1.5, \"rebalance_fg_slowdown_pct_8_1\": 1.8, \
             \"replicate_fg_slowdown_pct_8_1\": 2.0}",
        );
        report.restore_fg_slowdown_pct_8_1 = -12.5;
        assert!(check_regression(&report, &negative).is_empty());
        report.restore_fg_slowdown_pct_8_1 = -11.0;
        assert_eq!(check_regression(&report, &negative).len(), 1);
        // The scrub slowdown is gated exactly like the other two.
        report.restore_fg_slowdown_pct_8_1 = -12.5;
        report.scrub_fg_slowdown_pct_8_1 = 2.6;
        let violations = check_regression(&report, &negative);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("scrub_fg_slowdown_pct_8_1"));
        // A baseline missing a gated key is itself a failure — the five
        // slowdown keys, nothing wall-clock.
        report.restore_fg_slowdown_pct_8_1 = 5.0;
        report.scrub_fg_slowdown_pct_8_1 = 1.5;
        let empty = HashMap::new();
        assert_eq!(check_regression(&report, &empty).len(), 5);
    }

    #[test]
    fn telemetry_overhead_gate_is_same_run_and_trips_past_ten_percent() {
        let mut report = sample_report();
        let baseline = parse_flat_json(&report.to_json());
        // At 350 ns the 10% term dominates the 8 ns floor: limit 385 ns.
        report.staged_select_telemetry_ns = 385.0;
        assert!(check_regression(&report, &baseline).is_empty());
        report.staged_select_telemetry_ns = 386.0;
        let violations = check_regression(&report, &baseline);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("staged_select_telemetry_ns"));
        // On a fast (sub-80 ns) hot path the 8 ns absolute floor governs —
        // jitter smaller than a cache miss must not fail the gate.
        report.staged_select_ns = 56.0;
        report.staged_select_telemetry_ns = 64.0;
        // The same-run gate ignores the committed baseline entirely: the
        // slowdown keys still come from `baseline`, the overhead pair from
        // `report` alone.
        assert!(check_regression(&report, &baseline).is_empty());
        report.staged_select_telemetry_ns = 64.1;
        assert_eq!(check_regression(&report, &baseline).len(), 1);
    }

    #[test]
    fn cardinality_gates_cover_baseline_drift_and_flatness() {
        let mut report = sample_report();
        let baseline = parse_flat_json(&report.to_json());
        assert!(check_regression(&report, &baseline).is_empty());
        // The committed value is reported, never compared: host drift on
        // unchanged code (a 240 ns baseline drawn at 333 ns) passes, and so
        // does a baseline without the key.
        report.select_ns_1e5_jobs = 333.0;
        assert!(check_regression(&report, &baseline).is_empty());
        let mut without = baseline.clone();
        without.remove("select_ns_1e5_jobs");
        assert!(check_regression(&report, &without).is_empty());
        // Cache noise stays inside the same-run bound: 6.1× a 55 ns anchor.
        report.select_ns_1e3_jobs = 55.0;
        report.select_ns_1e5_jobs = 6.1 * 55.0;
        assert!(check_regression(&report, &baseline).is_empty());
        // A small anchor rides the 1 µs floor: max(8×55, 55+1000) = 1055 ns.
        report.select_ns_1e5_jobs = 1_054.0;
        assert!(check_regression(&report, &baseline).is_empty());
        report.select_ns_1e5_jobs = 1_056.0;
        let violations = check_regression(&report, &baseline);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("cardinality-flatness"));
        // A large anchor gets the 8× term: max(8×200, 200+1000) = 1600 ns.
        report.select_ns_1e3_jobs = 200.0;
        report.select_ns_1e5_jobs = 1_599.0;
        assert!(check_regression(&report, &baseline).is_empty());
        report.select_ns_1e5_jobs = 1_601.0;
        assert_eq!(check_regression(&report, &baseline).len(), 1);
        // The O(jobs) scan the gate exists for costs milliseconds per op.
        report.select_ns_1e5_jobs = 2.0e6;
        let violations = check_regression(&report, &baseline);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("cardinality-flatness"));
    }

    #[test]
    fn parser_ignores_malformed_lines() {
        let parsed = parse_flat_json("{\n \"ok\": 1.5,\n garbage,\n \"also_ok\": -2e3\n}");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed["ok"], 1.5);
        assert_eq!(parsed["also_ok"], -2000.0);
    }
}
