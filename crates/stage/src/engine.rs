//! [`StagedEngine`]: a policy-engine decorator that arbitrates foreground
//! traffic against synthesized internal traffic classes (drain, restore, and
//! future scrub/rebalance).
//!
//! The server holds one `Box<dyn PolicyEngine>`; when staging is enabled that
//! box *is* a `StagedEngine` wrapping the configured foreground engine
//! (ThemisIO statistical tokens, FIFO, GIFT, TBF — anything). Requests under
//! a [`TrafficClass`] identity are queued FIFO in that class's lane inside
//! the decorator; all other calls pass through, so live `SetPolicy` swaps,
//! share telemetry and the epoch-boundary contract are untouched.
//!
//! # The foreground:class weights
//!
//! Each class's split against the foreground is start-time weighted fair
//! queuing. The class weights are not ad-hoc numbers: they are derived
//! through the policy crate's own [`WeightedLevel`] machinery by evaluating
//! a one-tier `job[w]-fair` policy over two pseudo-jobs (foreground = the
//! premium tenant, the class = its peer) with [`compute_shares`]. A weight
//! of 8 therefore yields shares 8/9 : 1/9, exactly the semantics `user[8]-…`
//! has for premium users — the paper's single-parameter policy language,
//! extended to every internal byte the buffer moves.
//!
//! # Two-level arbitration
//!
//! Selection is two-level WFQ:
//!
//! 1. the backlogged class lanes compete among themselves on a lane-local
//!    virtual time (`u`), so drain and restore stay mutually fair at their
//!    weight ratio even while the foreground is throttled;
//! 2. the winning lane competes with the foreground on the
//!    foreground-facing virtual time (`v`).
//!
//! When one side has nothing eligible the other expands into the idle
//! capacity and the idle side's virtual time is clamped forward, so neither
//! accumulates credit or debt across idle periods (opportunity fairness, §3
//! of the paper, applied to every internal class). Class service consumed
//! while the foreground is *throttled* (backlogged but ineligible — e.g.
//! TBF out of tokens) is charged lane-locally but **not** against the
//! foreground: charging it would bank class debt across the throttled
//! window and starve the class once the foreground becomes eligible again.

use crate::class::{ClassWeights, TrafficClass};
use rand::RngCore;
use std::collections::VecDeque;
use themis_core::engine::PolicyEngine;
use themis_core::entity::{JobId, JobMeta};
use themis_core::job_table::JobTable;
use themis_core::policy::{Level, Policy, PolicySpec, WeightedLevel};
use themis_core::request::{Completion, IoRequest};
use themis_core::shares::{compute_shares, ShareMap};
use themis_telemetry::{
    Counter, DecisionTrace, MetricsRegistry, SeriesKey, TraceDump, TraceEvent, TraceKind, TraceLane,
};

/// The trace lane of a traffic class (both enumerate the class sub-ranges
/// in the same index order).
fn lane_of(class: TrafficClass) -> TraceLane {
    TraceLane::from_class_index(class.index())
}

/// Derives the (foreground, class) share split for `weight` via the policy
/// crate's weighted-tier machinery (see the [module docs](self)).
fn staged_shares(weight: u32) -> (f64, f64) {
    let spec = PolicySpec::new([WeightedLevel::weighted(Level::Job, weight.max(1))])
        .expect("a single weighted job tier is always a valid policy");
    let policy = Policy::Fair(spec);
    // Two pseudo-jobs: the premium tenant (lowest job id) is the foreground
    // class, its peer is the internal class.
    let foreground = JobMeta::new(0u64, 0u32, 0u32, 1);
    let class = JobMeta::new(1u64, 1u32, 1u32, 1);
    let shares = compute_shares(&policy, &[foreground, class]);
    (shares.share(JobId(0)), shares.share(JobId(1)))
}

/// One internal traffic class's scheduling lane (indexed by
/// [`TrafficClass::index`] in [`StagedEngine::lanes`]).
struct ClassLane {
    queue: VecDeque<IoRequest>,
    /// Service rate relative to the foreground's 1.0, derived from the
    /// pairwise [`staged_shares`] split (`class/foreground = 1/w`).
    rate: f64,
    /// Foreground-facing virtual time (normalised service vs the
    /// foreground).
    v: f64,
    /// Lane-local virtual time (normalised service vs the other lanes).
    u: f64,
}

impl ClassLane {
    fn new(weight: u32) -> Self {
        let (fg, cl) = staged_shares(weight);
        ClassLane {
            queue: VecDeque::new(),
            rate: cl / fg,
            v: 0.0,
            u: 0.0,
        }
    }
}

/// Pre-resolved registry handles for one class lane. Resolution happens once
/// at [`StagedEngine::attach_telemetry`] time; records are plain atomic adds
/// — the registry lock never sits on the select path.
struct LaneStats {
    admitted_bytes: Counter,
    charged_bytes: Counter,
    uncharged_bytes: Counter,
}

/// Handles the staged scheduler records through once telemetry is attached.
struct StageTelemetry {
    fg_selected_bytes: Counter,
    /// Indexed by [`TrafficClass::index`], like [`StagedEngine::lanes`].
    lanes: Vec<LaneStats>,
}

/// A [`PolicyEngine`] decorator that schedules internal traffic classes
/// alongside the wrapped foreground engine at configurable
/// foreground:class weights.
pub struct StagedEngine {
    inner: Box<dyn PolicyEngine>,
    lanes: Vec<ClassLane>,
    weights: ClassWeights,
    /// Normalised virtual service of the foreground (rate 1.0).
    v_foreground: f64,
    /// Registry handles (None until [`StagedEngine::attach_telemetry`];
    /// recording and tracing are skipped entirely while detached, so
    /// standalone engines pay nothing).
    telemetry: Option<StageTelemetry>,
    /// Bounded ring of scheduler decisions (no-op without the telemetry
    /// crate's `trace` feature).
    trace: DecisionTrace,
    /// Recording server's index (set by `attach_telemetry`).
    server: u32,
    /// Policy epoch stamped onto trace events (advanced by the server on
    /// every accepted `SetPolicy`).
    epoch: u64,
}

impl StagedEngine {
    /// Wraps `inner` with every class at a foreground:class weight of
    /// `weight`:1 (the PR 2 drain-only constructor, kept because a single
    /// knob is the right interface for simple deployments and tests).
    pub fn new(inner: Box<dyn PolicyEngine>, weight: u32) -> Self {
        Self::with_weights(inner, ClassWeights::uniform(weight))
    }

    /// Wraps `inner` with per-class foreground:class weights.
    pub fn with_weights(inner: Box<dyn PolicyEngine>, weights: ClassWeights) -> Self {
        let lanes = TrafficClass::ALL
            .into_iter()
            .map(|class| ClassLane::new(weights.weight(class)))
            .collect();
        StagedEngine {
            inner,
            lanes,
            weights,
            v_foreground: 0.0,
            telemetry: None,
            trace: DecisionTrace::default(),
            server: 0,
            epoch: 0,
        }
    }

    /// Resolves this engine's per-lane registry handles and enables decision
    /// tracing. Call once at construction time (the server does, in
    /// `ServerCore::with_backing`); until then the engine records nothing and
    /// the select hot path pays nothing.
    pub fn attach_telemetry(&mut self, registry: &MetricsRegistry, server: usize) {
        self.server = server as u32;
        let lanes = TrafficClass::ALL
            .into_iter()
            .map(|class| {
                let key = SeriesKey::class(server, class.name());
                LaneStats {
                    admitted_bytes: registry.counter(key, "admitted_bytes"),
                    charged_bytes: registry.counter(key, "selected_charged_bytes"),
                    uncharged_bytes: registry.counter(key, "selected_uncharged_bytes"),
                }
            })
            .collect();
        self.telemetry = Some(StageTelemetry {
            fg_selected_bytes: registry
                .counter(SeriesKey::class(server, "foreground"), "selected_bytes"),
            lanes,
        });
    }

    /// Stamps `epoch` onto subsequent trace events (the server advances it on
    /// every accepted live policy swap, so a dump shows which policy was in
    /// force at each decision).
    pub fn set_trace_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// The newest `max` retained scheduler decisions, oldest first.
    pub fn trace_dump(&self, max: usize) -> TraceDump {
        self.trace.dump(max)
    }

    /// Records one decision into the ring (skipped entirely while telemetry
    /// is detached, so the standalone hot path stays untouched).
    #[inline]
    fn trace_event(
        &mut self,
        now_ns: u64,
        kind: TraceKind,
        lane: TraceLane,
        job: u64,
        bytes: u64,
        lane_vtime: f64,
    ) {
        if self.telemetry.is_none() {
            return;
        }
        self.trace_event_attached(now_ns, kind, lane, job, bytes, lane_vtime);
    }

    /// The recording half of [`StagedEngine::trace_event`], kept out of
    /// line. Inlining it bloats `select`/`admit`/`complete` enough that
    /// even a *detached* engine (which only executes the `is_none` guard)
    /// measurably slows down from the code-size alone; a detached engine
    /// must pay nothing, and an attached one pays one call.
    #[inline(never)]
    fn trace_event_attached(
        &mut self,
        now_ns: u64,
        kind: TraceKind,
        lane: TraceLane,
        job: u64,
        bytes: u64,
        lane_vtime: f64,
    ) {
        self.trace.record(TraceEvent {
            now_ns,
            server: self.server,
            kind,
            lane,
            job,
            bytes,
            lane_vtime,
            fg_vtime: self.v_foreground,
            epoch: self.epoch,
        });
    }

    /// The configured foreground:drain weight (legacy single-knob view).
    pub fn weight(&self) -> u32 {
        self.weights.weight(TrafficClass::Drain)
    }

    /// The configured per-class weights.
    pub fn weights(&self) -> ClassWeights {
        self.weights
    }

    /// The nominal (foreground, class) share split of one class.
    pub fn class_shares_of(&self, class: TrafficClass) -> (f64, f64) {
        staged_shares(self.weights.weight(class))
    }

    /// Number of queued requests of one class.
    pub fn queued_class(&self, class: TrafficClass) -> usize {
        self.lanes[class.index() as usize].queue.len()
    }

    /// The virtual cost of serving a request: its payload, with metadata
    /// operations charged a nominal byte so they are not free.
    fn cost(request: &IoRequest) -> f64 {
        request.bytes.max(1) as f64
    }

    /// Clamps the virtual time of idle parties forward so idle periods
    /// accumulate neither credit nor debt.
    fn clamp_idle(&mut self) {
        // Foreground-facing times: an idle lane resumes at parity with the
        // foreground; an idle foreground resumes at parity with the least-
        // served backlogged lane.
        let v_fg = self.v_foreground;
        let mut min_backlogged_v = f64::INFINITY;
        for lane in self.lanes.iter_mut() {
            if lane.queue.is_empty() {
                lane.v = lane.v.max(v_fg);
            } else {
                min_backlogged_v = min_backlogged_v.min(lane.v);
            }
        }
        if self.inner.queued() == 0 && min_backlogged_v.is_finite() {
            self.v_foreground = self.v_foreground.max(min_backlogged_v);
        }
        // Lane-local times: an idle lane resumes at the lane system's
        // current virtual time (the least-served backlogged lane).
        let min_backlogged_u = self
            .lanes
            .iter()
            .filter(|l| !l.queue.is_empty())
            .map(|l| l.u)
            .fold(f64::INFINITY, f64::min);
        if min_backlogged_u.is_finite() {
            for lane in self.lanes.iter_mut() {
                if lane.queue.is_empty() {
                    lane.u = lane.u.max(min_backlogged_u);
                }
            }
        }
        // Keep the counters bounded: only the differences matter.
        let v_floor = self
            .lanes
            .iter()
            .map(|l| l.v)
            .fold(self.v_foreground, f64::min);
        self.v_foreground -= v_floor;
        let u_floor = self.lanes.iter().map(|l| l.u).fold(f64::INFINITY, f64::min);
        for lane in self.lanes.iter_mut() {
            lane.v -= v_floor;
            lane.u -= u_floor;
        }
    }

    /// The backlogged lane next in line among the lanes (least lane-local
    /// virtual time; ties go to the lower class index).
    fn candidate_lane(&self) -> Option<usize> {
        self.lanes
            .iter()
            .enumerate()
            .filter(|(_, l)| !l.queue.is_empty())
            .min_by(|(_, a), (_, b)| a.u.total_cmp(&b.u))
            .map(|(i, _)| i)
    }

    /// Serves the front of lane `idx`, charging its lane-local time and —
    /// when `charge_foreground` — its foreground-facing time.
    fn serve_lane(&mut self, idx: usize, charge_foreground: bool) -> IoRequest {
        let lane = &mut self.lanes[idx];
        let request = lane.queue.pop_front().expect("candidate lane non-empty");
        let normalised = Self::cost(&request) / lane.rate;
        lane.u += normalised;
        if charge_foreground {
            lane.v += normalised;
        }
        request
    }
}

impl PolicyEngine for StagedEngine {
    fn name(&self) -> &'static str {
        "staged"
    }

    fn admit(&mut self, request: IoRequest) {
        match TrafficClass::of(request.meta.job) {
            Some(class) => {
                let idx = class.index() as usize;
                if let Some(t) = &self.telemetry {
                    t.lanes[idx].admitted_bytes.add(request.bytes);
                }
                self.trace_event(
                    request.arrival_ns,
                    TraceKind::Admit,
                    lane_of(class),
                    request.meta.job.0,
                    request.bytes,
                    self.lanes[idx].v,
                );
                self.lanes[idx].queue.push_back(request);
            }
            None => {
                self.trace_event(
                    request.arrival_ns,
                    TraceKind::Admit,
                    TraceLane::Foreground,
                    request.meta.job.0,
                    request.bytes,
                    0.0,
                );
                self.inner.admit(request);
            }
        }
    }

    fn select(&mut self, now_ns: u64, rng: &mut dyn RngCore) -> Option<IoRequest> {
        self.clamp_idle();
        // Level 1: the backlogged lanes elect their next-in-line. Level 2:
        // that lane competes with the foreground; ties favour the
        // foreground.
        let candidate = self.candidate_lane();
        if let Some(idx) = candidate {
            if self.lanes[idx].v < self.v_foreground {
                let request = self.serve_lane(idx, true);
                let lane = lane_of(TrafficClass::ALL[idx]);
                if let Some(t) = &self.telemetry {
                    t.lanes[idx].charged_bytes.add(request.bytes);
                }
                self.trace_event(
                    now_ns,
                    TraceKind::SelectCharged,
                    lane,
                    request.meta.job.0,
                    request.bytes,
                    self.lanes[idx].v,
                );
                return Some(request);
            }
        }
        if let Some(request) = self.inner.select(now_ns, rng) {
            self.v_foreground += Self::cost(&request);
            if let Some(t) = &self.telemetry {
                t.fg_selected_bytes.add(request.bytes);
            }
            self.trace_event(
                now_ns,
                TraceKind::SelectForeground,
                TraceLane::Foreground,
                request.meta.job.0,
                request.bytes,
                0.0,
            );
            return Some(request);
        }
        // Foreground had nothing eligible (empty, or backlogged but
        // throttled — e.g. TBF out of tokens): the lane expands into
        // capacity the foreground could not have used, charged lane-locally
        // (so drain and restore stay mutually fair) but *not* against the
        // foreground (see the module docs).
        candidate.map(|idx| {
            let request = self.serve_lane(idx, false);
            let lane = lane_of(TrafficClass::ALL[idx]);
            if let Some(t) = &self.telemetry {
                t.lanes[idx].uncharged_bytes.add(request.bytes);
            }
            self.trace_event(
                now_ns,
                TraceKind::SelectUncharged,
                lane,
                request.meta.job.0,
                request.bytes,
                self.lanes[idx].v,
            );
            request
        })
    }

    fn next_eligible_ns(&self, now_ns: u64) -> Option<u64> {
        if self.lanes.iter().any(|l| !l.queue.is_empty()) {
            // Internal-class work is always eligible as soon as a worker
            // frees up.
            return Some(now_ns);
        }
        self.inner.next_eligible_ns(now_ns)
    }

    fn complete(&mut self, completion: &Completion) {
        let class = TrafficClass::of(completion.request.meta.job);
        self.trace_event(
            completion.finish_ns,
            TraceKind::Complete,
            class.map_or(TraceLane::Foreground, lane_of),
            completion.request.meta.job.0,
            completion.request.bytes,
            class.map_or(0.0, |c| self.lanes[c.index() as usize].v),
        );
        if class.is_none() {
            self.inner.complete(completion);
        }
    }

    fn reconfigure(&mut self, table: &JobTable, policy: &Policy) {
        // Pass through untouched: the class lanes survive reconfiguration
        // just like the foreground queues (the epoch-boundary contract), and
        // the foreground:class splits are orthogonal to the foreground
        // policy.
        self.inner.reconfigure(table, policy);
    }

    fn honors_policy(&self) -> bool {
        self.inner.honors_policy()
    }

    fn queued(&self) -> usize {
        self.inner.queued() + self.lanes.iter().map(|l| l.queue.len()).sum::<usize>()
    }

    fn queued_for(&self, job: JobId) -> usize {
        match TrafficClass::of(job) {
            Some(class) => self.lanes[class.index() as usize]
                .queue
                .iter()
                .filter(|r| r.meta.job == job)
                .count(),
            None => self.inner.queued_for(job),
        }
    }

    fn backlogged_jobs(&self) -> Vec<JobId> {
        let mut jobs = self.inner.backlogged_jobs();
        for lane in &self.lanes {
            if let Some(r) = lane.queue.front() {
                jobs.push(r.meta.job);
            }
        }
        jobs
    }

    fn shares(&self) -> ShareMap {
        self.inner.shares()
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use themis_core::request::OpKind;
    use themis_core::sched::ThemisScheduler;

    fn drain() -> JobMeta {
        TrafficClass::Drain.meta(0)
    }

    fn restore() -> JobMeta {
        TrafficClass::Restore.meta(0)
    }

    fn is_drain(meta: &JobMeta) -> bool {
        TrafficClass::of(meta.job) == Some(TrafficClass::Drain)
    }

    fn staged(weight: u32) -> StagedEngine {
        StagedEngine::new(Box::new(ThemisScheduler::new(Policy::job_fair())), weight)
    }

    fn fg_meta() -> JobMeta {
        JobMeta::new(1u64, 1u32, 1u32, 4)
    }

    fn table_with_fg() -> JobTable {
        let mut t = JobTable::new();
        t.heartbeat(fg_meta(), 0);
        t
    }

    #[test]
    fn shares_come_from_weighted_level_machinery() {
        let (fg, dr) = staged_shares(8);
        assert!((fg - 8.0 / 9.0).abs() < 1e-9);
        assert!((dr - 1.0 / 9.0).abs() < 1e-9);
        let (fg, dr) = staged_shares(1);
        assert!((fg - 0.5).abs() < 1e-9);
        assert!((dr - 0.5).abs() < 1e-9);
        // Weight 0 is clamped to 1 by the constructor.
        assert_eq!(
            StagedEngine::new(Box::new(ThemisScheduler::new(Policy::job_fair())), 0).weight(),
            1
        );
        // Per-class weights surface per class.
        let e = StagedEngine::with_weights(
            Box::new(ThemisScheduler::new(Policy::job_fair())),
            ClassWeights::default()
                .enable(TrafficClass::Drain, 8)
                .enable(TrafficClass::Restore, 4),
        );
        let (fg, re) = e.class_shares_of(TrafficClass::Restore);
        assert!((fg - 0.8).abs() < 1e-9);
        assert!((re - 0.2).abs() < 1e-9);
    }

    #[test]
    fn weighted_split_under_dual_backlog() {
        // Both classes saturated with 1 MiB requests: the served byte split
        // must approach 8:1.
        let mut e = staged(8);
        e.reconfigure(&table_with_fg(), &Policy::job_fair());
        let mut seq = 0;
        for _ in 0..360 {
            e.admit(IoRequest::write(seq, fg_meta(), 1 << 20, 0));
            seq += 1;
        }
        for _ in 0..360 {
            e.admit(IoRequest::new(seq, drain(), OpKind::Read, 1 << 20, 0));
            seq += 1;
        }
        let mut rng = SmallRng::seed_from_u64(7);
        let mut fg_bytes = 0u64;
        let mut drain_bytes = 0u64;
        for _ in 0..180 {
            let r = e.select(0, &mut rng).expect("backlogged");
            if is_drain(&r.meta) {
                drain_bytes += r.bytes;
            } else {
                fg_bytes += r.bytes;
            }
        }
        let ratio = fg_bytes as f64 / drain_bytes.max(1) as f64;
        assert!((ratio - 8.0).abs() < 1.0, "fg:drain byte ratio {ratio}");
    }

    #[test]
    fn three_way_backlog_respects_every_pairwise_weight() {
        // Foreground, drain (8:1) and restore (8:1) all saturated: the
        // foreground keeps ~8/10 of the device (each class's pairwise rate
        // is 1/8 of the foreground's) and the two classes split the rest
        // evenly.
        let mut e = StagedEngine::with_weights(
            Box::new(ThemisScheduler::new(Policy::job_fair())),
            ClassWeights::uniform(8),
        );
        e.reconfigure(&table_with_fg(), &Policy::job_fair());
        let mut seq = 0;
        for _ in 0..800 {
            e.admit(IoRequest::write(seq, fg_meta(), 1 << 20, 0));
            seq += 1;
        }
        for _ in 0..200 {
            e.admit(IoRequest::new(seq, drain(), OpKind::Read, 1 << 20, 0));
            seq += 1;
            e.admit(IoRequest::new(seq, restore(), OpKind::Write, 1 << 20, 0));
            seq += 1;
        }
        let mut rng = SmallRng::seed_from_u64(11);
        let (mut fg, mut dr, mut re) = (0u64, 0u64, 0u64);
        for _ in 0..400 {
            let r = e.select(0, &mut rng).expect("backlogged");
            match TrafficClass::of(r.meta.job) {
                Some(TrafficClass::Drain) => dr += 1,
                Some(TrafficClass::Restore) => re += 1,
                Some(other) => panic!("unexpected class {other}"),
                None => fg += 1,
            }
        }
        let total = (fg + dr + re) as f64;
        assert!(
            (fg as f64 / total - 0.8).abs() < 0.04,
            "foreground fraction {} of {fg}/{dr}/{re}",
            fg as f64 / total
        );
        assert!(
            (dr as f64 - re as f64).abs() <= 2.0,
            "drain/restore imbalance: {dr} vs {re}"
        );
    }

    #[test]
    fn lanes_stay_mutually_fair_while_foreground_is_idle() {
        // No foreground at all: drain at 8:1 and restore at 4:1 expand into
        // the idle capacity and split it 1:2 (their pairwise rates are 1/8
        // and 1/4 of the foreground's).
        let mut e = StagedEngine::with_weights(
            Box::new(ThemisScheduler::new(Policy::job_fair())),
            ClassWeights::default()
                .enable(TrafficClass::Drain, 8)
                .enable(TrafficClass::Restore, 4),
        );
        let mut rng = SmallRng::seed_from_u64(5);
        let mut seq = 0;
        for _ in 0..300 {
            e.admit(IoRequest::new(seq, drain(), OpKind::Read, 1 << 20, 0));
            seq += 1;
            e.admit(IoRequest::new(seq, restore(), OpKind::Write, 1 << 20, 0));
            seq += 1;
        }
        let (mut dr, mut re) = (0u64, 0u64);
        for _ in 0..300 {
            let r = e.select(0, &mut rng).expect("backlogged");
            match TrafficClass::of(r.meta.job) {
                Some(TrafficClass::Drain) => dr += 1,
                Some(TrafficClass::Restore) => re += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        let ratio = re as f64 / dr.max(1) as f64;
        assert!((ratio - 2.0).abs() < 0.25, "restore:drain ratio {ratio}");
    }

    #[test]
    fn drain_expands_into_idle_foreground() {
        let mut e = staged(8);
        let mut rng = SmallRng::seed_from_u64(1);
        for s in 0..10 {
            e.admit(IoRequest::new(s, drain(), OpKind::Read, 1 << 20, 0));
        }
        // No foreground work at all: every select yields drain.
        for _ in 0..10 {
            assert!(is_drain(&e.select(0, &mut rng).expect("drain queued").meta));
        }
        assert_eq!(e.queued(), 0);
    }

    #[test]
    fn idle_period_accrues_no_debt() {
        // Serve a long drain-only phase, then a foreground burst: the
        // foreground must not monopolise the device to "catch up" — the split
        // goes straight to 8:1.
        let mut e = staged(8);
        e.reconfigure(&table_with_fg(), &Policy::job_fair());
        let mut rng = SmallRng::seed_from_u64(3);
        let mut seq = 0u64;
        for _ in 0..100 {
            e.admit(IoRequest::new(seq, drain(), OpKind::Read, 1 << 20, 0));
            seq += 1;
        }
        for _ in 0..50 {
            e.select(0, &mut rng).expect("drain backlog");
        }
        // Foreground burst arrives; both classes now backlogged.
        for _ in 0..200 {
            e.admit(IoRequest::write(seq, fg_meta(), 1 << 20, 0));
            seq += 1;
        }
        let mut fg = 0u64;
        let mut dr = 0u64;
        for _ in 0..45 {
            let r = e.select(0, &mut rng).expect("backlogged");
            if is_drain(&r.meta) {
                dr += 1;
            } else {
                fg += 1;
            }
        }
        // 45 selections at 8:1 → 40 foreground, 5 drain.
        assert!(dr >= 3, "drain starved after idle period: {dr}");
        assert!(fg >= 36, "foreground did not get its 8/9: {fg}");
    }

    #[test]
    fn telemetry_attachment_records_lane_counters_and_trace() {
        let mut e = staged(8);
        let reg = MetricsRegistry::new();
        e.attach_telemetry(&reg, 3);
        e.set_trace_epoch(2);
        e.reconfigure(&table_with_fg(), &Policy::job_fair());
        let mut rng = SmallRng::seed_from_u64(9);
        e.admit(IoRequest::write(0, fg_meta(), 4096, 10));
        e.admit(IoRequest::new(1, drain(), OpKind::Read, 8192, 20));
        // Foreground wins the first slot (tie goes to the foreground); the
        // drain lane is then behind on virtual time and served *charged*.
        let first = e.select(100, &mut rng).expect("fg queued");
        assert!(!is_drain(&first.meta));
        let second = e.select(200, &mut rng).expect("drain queued");
        assert!(is_drain(&second.meta));

        let snap = reg.snapshot(0);
        assert_eq!(snap.counter(3, 0, "foreground", "selected_bytes"), 4096);
        assert_eq!(snap.counter(3, 0, "drain", "admitted_bytes"), 8192);
        assert_eq!(snap.counter(3, 0, "drain", "selected_charged_bytes"), 8192);
        assert_eq!(snap.counter(3, 0, "drain", "selected_uncharged_bytes"), 0);

        let dump = e.trace_dump(usize::MAX);
        if DecisionTrace::enabled() {
            let kinds: Vec<&'static str> = dump.events.iter().map(|ev| ev.kind.name()).collect();
            assert_eq!(kinds, vec!["admit", "admit", "select-fg", "select-charged"]);
            assert!(dump.events.iter().all(|ev| ev.server == 3 && ev.epoch == 2));
        } else {
            assert!(dump.events.is_empty());
        }
    }

    #[test]
    fn detached_engine_records_nothing_and_downcast_reaches_it() {
        let mut boxed: Box<dyn PolicyEngine> = Box::new(staged(8));
        let mut rng = SmallRng::seed_from_u64(1);
        boxed.admit(IoRequest::new(0, drain(), OpKind::Read, 4096, 0));
        boxed.select(0, &mut rng).expect("drain queued");
        // The downcast seam the server uses to reach the concrete engine
        // through its Box<dyn PolicyEngine>.
        let staged: &mut StagedEngine = boxed
            .as_any_mut()
            .expect("staged engine exposes itself")
            .downcast_mut()
            .expect("concrete type is StagedEngine");
        assert_eq!(staged.trace_dump(usize::MAX).events.len(), 0);
        assert_eq!(staged.trace.recorded(), 0);
    }

    #[test]
    fn passthrough_preserves_engine_contract() {
        let mut e = staged(4);
        assert_eq!(e.name(), "staged");
        assert!(e.honors_policy());
        e.reconfigure(&table_with_fg(), &Policy::job_fair());
        e.admit(IoRequest::write(0, fg_meta(), 4096, 0));
        e.admit(IoRequest::new(1, drain(), OpKind::Read, 4096, 0));
        e.admit(IoRequest::new(2, restore(), OpKind::Write, 4096, 0));
        assert_eq!(e.queued(), 3);
        assert_eq!(e.queued_for(fg_meta().job), 1);
        assert_eq!(e.queued_for(drain().job), 1);
        assert_eq!(e.queued_for(restore().job), 1);
        assert_eq!(e.queued_class(TrafficClass::Drain), 1);
        assert_eq!(e.queued_class(TrafficClass::Restore), 1);
        assert_eq!(e.queued_class(TrafficClass::Scrub), 0);
        let backlogged = e.backlogged_jobs();
        assert!(backlogged.contains(&fg_meta().job));
        assert!(backlogged.contains(&drain().job));
        assert!(backlogged.contains(&restore().job));
        // Reconfigure (a live SetPolicy) leaves every queue intact.
        e.reconfigure(&table_with_fg(), &Policy::size_fair());
        assert_eq!(e.queued(), 3);
        assert!((e.shares().share(fg_meta().job) - 1.0).abs() < 1e-9);
    }
}
