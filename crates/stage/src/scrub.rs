//! The per-server scrub pipeline: background checksum verification of the
//! capacity tier, admitted through the policy engine as
//! [`TrafficClass::Scrub`] traffic.
//!
//! Burst-buffer deployments back their staging tier with cheaper, colder
//! media, where silent corruption is a real operational hazard (Romanus et
//! al., "Challenges and Considerations for Utilizing Burst Buffers in HPC").
//! The scrubber walks the tier's extents in key order — one *pass* covers
//! every extent this server owns — re-reads each copy, and compares it
//! against the checksum recorded at drain write-back time
//! ([`extent_checksum`](crate::backing::extent_checksum)). On a mismatch the
//! server repairs the copy from the burst tier when a clean resident copy
//! still exists, defers to the pending drain when a concurrent foreground
//! write re-dirtied the extent (the generation guard — a scrub must never
//! "repair" a tier copy from data the drain pipeline has not flushed yet),
//! and otherwise *quarantines* the extent, surfacing it through
//! [`ScrubStatus`].
//!
//! Unlike drain (driven by dirty foreground writes) and restore (driven by
//! foreground misses), scrub requests are synthesized purely from *tier
//! state*: the pipeline holds a cursor into the capacity tier and a pass
//! timer, and the only thing foreground traffic controls is how fast the
//! engine releases the requests — the scrub lane runs at the scrub weight of
//! [`DrainConfig::classes`](crate::pipeline::DrainConfig::classes) against
//! the foreground like every other class, and expands into idle
//! capacity when the foreground goes quiet. That makes it the first
//! *maintenance* class on the reserved range, proving the class framework
//! generalises beyond the demand-driven drain/restore pair.

use crate::class::TrafficClass;
use crate::lifecycle::{AdmitContext, ClassLifecycle, ClassQueue};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use themis_core::request::IoRequest;
use themis_telemetry::{Counter, Gauge, MetricsRegistry, SeriesKey};

/// A point-in-time snapshot of one server's scrub state, reported through
/// the `ScrubStatus` control-plane message and as the deferred
/// acknowledgement of an explicit `Scrub` request.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScrubStatus {
    /// Whether the continuous background scrubber is enabled on this server
    /// (an explicit `Scrub` request forces a pass either way).
    pub enabled: bool,
    /// Completed full passes over the capacity tier since boot.
    pub passes_completed: u64,
    /// Whether a pass is currently in progress.
    pub pass_active: bool,
    /// Scrub verifications admitted and not yet completed.
    pub inflight: usize,
    /// Extents verified since boot (clean or not).
    pub scrubbed_extents: u64,
    /// Bytes verified since boot.
    pub scrubbed_bytes: u64,
    /// Checksum mismatches detected since boot (every corruption event,
    /// whatever its outcome below).
    pub errors_detected: u64,
    /// Mismatched extents repaired from a clean resident burst-tier copy.
    pub repaired_extents: u64,
    /// Mismatched extents superseded by a concurrent foreground write: the
    /// shard copy was dirty at verification time, so the pending drain —
    /// not the scrubber — owns the tier copy's next contents (the
    /// generation guard).
    pub superseded_extents: u64,
    /// Extents currently quarantined: corrupt in the tier with no resident
    /// burst copy to repair from. The data is left in place for forensics;
    /// operators (and tests) read this list to learn exactly which extents
    /// are damaged.
    pub quarantined: Vec<(String, u64)>,
}

impl ScrubStatus {
    /// Number of quarantined extents.
    pub fn quarantined_extents(&self) -> usize {
        self.quarantined.len()
    }

    /// Whether the scrubber has found no unresolved corruption.
    pub fn is_healthy(&self) -> bool {
        self.quarantined.is_empty()
    }
}

/// One extent travelling through the scrub pipeline.
#[derive(Debug, Clone)]
pub struct ScrubTarget {
    /// Path of the file the extent belongs to.
    pub path: String,
    /// Stripe index of the extent.
    pub stripe: u64,
    /// Extent length at admission time (the request's cost).
    pub bytes: u64,
}

/// Per-server scrub bookkeeping: the pass cursor over the capacity tier,
/// the in-flight ledger, the quarantine set and the cumulative verification
/// counters (lane `"scrub"` of the registry handed in at construction).
///
/// Mirrors [`DrainPipeline`](crate::pipeline::DrainPipeline) /
/// [`RestorePipeline`](crate::pipeline::RestorePipeline): the pipeline
/// decides *what* to verify and synthesizes the policy-visible
/// [`IoRequest`]s under the [`TrafficClass::Scrub`] identity; the server
/// core moves the bytes (and judges the checksums) when the engine releases
/// each request.
#[derive(Debug)]
pub struct ScrubPipeline {
    enabled: bool,
    interval_ns: u64,
    queue: ClassQueue<ScrubTarget>,
    /// Last key admitted this pass; `None` at the start of a pass.
    cursor: Option<(String, u64)>,
    /// Whether a pass is in progress (admitting or waiting on inflight).
    pass_active: bool,
    /// The cursor walked off the end of the tier; the pass completes once
    /// the in-flight verifications land.
    cursor_exhausted: bool,
    /// Monotonic pass counter; the *current* pass id while one is active.
    pass: u64,
    /// Virtual time before which no new pass starts (pass pacing).
    next_pass_due_ns: u64,
    /// A forced pass was requested (explicit `Scrub` message) — overrides
    /// both `enabled` and the pass interval.
    forced: bool,
    quarantined: BTreeSet<(String, u64)>,
    passes_completed: Counter,
    scrubbed_extents: Counter,
    scrubbed_bytes: Counter,
    errors_detected: Counter,
    repaired_extents: Counter,
    superseded_extents: Counter,
    /// Quarantine membership is instantaneous (extents leave the set when a
    /// fresh drain rewrites them), so it is a gauge.
    quarantined_extents: Gauge,
}

impl ScrubPipeline {
    /// Creates the scrub pipeline of `server`: `enabled` runs continuous
    /// passes paced by `interval_ns`, admitting at most `max_inflight`
    /// verifications at a time, counting into `registry`.
    pub fn new(
        server: usize,
        enabled: bool,
        interval_ns: u64,
        max_inflight: usize,
        registry: &MetricsRegistry,
    ) -> Self {
        let key = SeriesKey::class(server, TrafficClass::Scrub.name());
        ScrubPipeline {
            enabled,
            interval_ns,
            queue: ClassQueue::new(TrafficClass::Scrub, server, max_inflight),
            cursor: None,
            pass_active: false,
            cursor_exhausted: false,
            pass: 0,
            next_pass_due_ns: 0,
            forced: false,
            quarantined: BTreeSet::new(),
            passes_completed: registry.counter(key, "passes_completed"),
            scrubbed_extents: registry.counter(key, "scrubbed_extents"),
            scrubbed_bytes: registry.counter(key, "scrubbed_bytes"),
            errors_detected: registry.counter(key, "errors_detected"),
            repaired_extents: registry.counter(key, "repaired_extents"),
            superseded_extents: registry.counter(key, "superseded_extents"),
            quarantined_extents: registry.gauge(key, "quarantined_extents"),
        }
    }

    /// Whether the continuous background scrubber is enabled.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Demands a scrub pass (the explicit `Scrub` control-plane request):
    /// returns the id of the pass whose completion the caller should wait
    /// for. The demand is always answered by a pass that *starts* after it
    /// arrived — acking a pass already in flight would certify extents its
    /// cursor walked before the demand (and before whatever prompted it) —
    /// so a running pass is allowed to finish and a forced follow-up pass
    /// starts right behind it, bypassing the interval pacing.
    pub fn force_pass(&mut self) -> u64 {
        self.forced = true;
        // Whether idle (the forced pass is the next to start) or active
        // (the current pass `self.pass` finishes first, then the forced
        // follow-up starts immediately), the demand's pass id is the same.
        self.pass + 1
    }

    /// Looks up an in-flight scrub by request sequence number.
    pub fn inflight(&self, seq: u64) -> Option<&ScrubTarget> {
        self.queue.get(seq)
    }

    /// The next verification whose capacity-tier read finished at or before
    /// `now_ns`, removed from flight so the caller can judge the checksum
    /// and record the outcome with one of the `record_*` methods.
    pub fn pop_due(&mut self, now_ns: u64) -> Option<ScrubTarget> {
        self.queue.pop_due(now_ns)
    }

    /// Accounts one judged verification (`error` for any mismatch, whatever
    /// its outcome).
    fn record_verified(&mut self, bytes: u64, error: bool) {
        self.scrubbed_extents.inc();
        self.scrubbed_bytes.add(bytes);
        if error {
            self.errors_detected.inc();
        }
    }

    /// Records a verification whose checksum matched (`bytes` verified).
    pub fn record_clean(&mut self, bytes: u64) {
        self.record_verified(bytes, false);
    }

    /// Records a detected mismatch that was repaired from a clean resident
    /// burst copy.
    pub fn record_repaired(&mut self, bytes: u64) {
        self.record_verified(bytes, true);
        self.repaired_extents.inc();
    }

    /// Records a detected mismatch on an extent a concurrent foreground
    /// write re-dirtied: the pending drain supersedes the scrubber (the
    /// generation guard), so nothing is repaired.
    pub fn record_superseded(&mut self, bytes: u64) {
        self.record_verified(bytes, true);
        self.superseded_extents.inc();
    }

    /// Records a detected mismatch with no resident burst copy to repair
    /// from: the extent enters quarantine.
    pub fn record_quarantined(&mut self, path: String, stripe: u64, bytes: u64) {
        self.record_verified(bytes, true);
        self.quarantined.insert((path, stripe));
        self.sync_quarantine_gauge();
    }

    fn sync_quarantine_gauge(&self) {
        self.quarantined_extents.set(self.quarantined.len() as i64);
    }

    /// Lifts the quarantine of an extent whose tier copy was legitimately
    /// rewritten (a fresh drain write-back recomputes the checksum, so the
    /// new copy is sound by construction) or removed (unlink).
    pub fn unquarantine(&mut self, path: &str, stripe: u64) {
        self.quarantined.remove(&(path.to_string(), stripe));
        self.sync_quarantine_gauge();
    }

    /// Lifts the quarantine of every extent of `path` (unlink propagation —
    /// the tier copies are gone, so there is nothing left to warn about).
    pub fn unquarantine_path(&mut self, path: &str) {
        self.quarantined.retain(|(p, _)| p != path);
        self.sync_quarantine_gauge();
    }

    /// Finishes the pass if its cursor is exhausted and every in-flight
    /// verification has landed, returning the completed pass id (the key
    /// deferred `Scrub` acknowledgements wait on). Schedules the next pass
    /// `interval_ns` from `now_ns`.
    pub fn finish_pass_if_idle(&mut self, now_ns: u64) -> Option<u64> {
        if !self.pass_active || !self.cursor_exhausted || !self.queue.is_empty() {
            return None;
        }
        self.pass_active = false;
        self.cursor = None;
        self.cursor_exhausted = false;
        self.passes_completed.inc();
        self.next_pass_due_ns = now_ns.saturating_add(self.interval_ns);
        Some(self.pass)
    }

    /// Builds the status snapshot.
    pub fn status(&self) -> ScrubStatus {
        ScrubStatus {
            enabled: self.enabled,
            passes_completed: self.passes_completed.get(),
            pass_active: self.pass_active,
            inflight: self.queue.len(),
            scrubbed_extents: self.scrubbed_extents.get(),
            scrubbed_bytes: self.scrubbed_bytes.get(),
            errors_detected: self.errors_detected.get(),
            repaired_extents: self.repaired_extents.get(),
            superseded_extents: self.superseded_extents.get(),
            quarantined: self.quarantined.iter().cloned().collect(),
        }
    }
}

impl ClassLifecycle for ScrubPipeline {
    /// Admits the next extent of the current pass, starting a pass first
    /// when one is due. The request is a *read* costed at the extent's
    /// length (the verification streams the tier copy through one of the
    /// server's policy-granted service slots; the matching capacity-tier
    /// read is charged by the caller when the engine releases the request).
    /// `None` when no pass is due, the cursor is exhausted, or the
    /// pipelining depth is reached.
    ///
    /// `ctx.owns` decides which tier extents this server verifies (stripe →
    /// shard ownership), so a multi-server deployment scrubs the shared
    /// tier exactly once. Quarantined extents are skipped — re-detecting a
    /// known-bad extent every pass would only inflate the error counters.
    fn admit_next(&mut self, seq: u64, now_ns: u64, ctx: &AdmitContext<'_>) -> Option<IoRequest> {
        if !self.pass_active {
            let due = self.forced || (self.enabled && now_ns >= self.next_pass_due_ns);
            if !due {
                return None;
            }
            self.pass_active = true;
            self.cursor = None;
            self.cursor_exhausted = false;
            self.forced = false;
            self.pass += 1;
        }
        if self.cursor_exhausted || self.queue.capacity() == 0 {
            return None;
        }
        loop {
            let Some((path, stripe, bytes)) = ctx.backing.next_extent_after(self.cursor.as_ref())
            else {
                self.cursor_exhausted = true;
                return None;
            };
            self.cursor = Some((path.clone(), stripe));
            if !(ctx.owns)(&path, stripe) || self.quarantined.contains(&(path.clone(), stripe)) {
                continue;
            }
            let bytes = bytes.max(1);
            let target = ScrubTarget {
                path,
                stripe,
                bytes,
            };
            return Some(self.queue.admit(seq, target, bytes, now_ns));
        }
    }

    fn dispatched(&mut self, seq: u64, finish_ns: u64) {
        self.queue.dispatched(seq, finish_ns);
    }

    fn next_finish_ns(&self) -> Option<u64> {
        self.queue.next_finish_ns()
    }

    fn is_busy(&self) -> bool {
        !self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backing::{extent_checksum, CapacityTier};
    use crate::BackingStore;
    use themis_core::request::OpKind;
    use themis_fs::BurstBufferFs;

    fn tier_with(extents: &[(&str, u64, usize)]) -> CapacityTier {
        let tier = CapacityTier::hdd();
        for (path, stripe, len) in extents {
            tier.write_back(path, *stripe, &vec![9u8; *len]);
        }
        tier
    }

    /// A pipeline over `tier` whose `admit` closure applies `owns`, and whose
    /// `land` walks one request through release and landing.
    struct Fixture {
        p: ScrubPipeline,
        tier: CapacityTier,
        fs: BurstBufferFs,
    }

    impl Fixture {
        fn new(p: ScrubPipeline, tier: CapacityTier) -> Self {
            Fixture {
                p,
                tier,
                fs: BurstBufferFs::new(1),
            }
        }

        fn admit(
            &mut self,
            seq: u64,
            now_ns: u64,
            owns: &dyn Fn(&str, u64) -> bool,
        ) -> Option<IoRequest> {
            let ctx = AdmitContext {
                fs: &self.fs,
                backing: &self.tier,
                owns,
            };
            self.p.admit_next(seq, now_ns, &ctx)
        }

        fn land(&mut self, seq: u64) -> ScrubTarget {
            self.p.dispatched(seq, 0);
            self.p.pop_due(0).expect("released request lands")
        }
    }

    fn scrub(enabled: bool, interval_ns: u64, max_inflight: usize) -> ScrubPipeline {
        ScrubPipeline::new(
            0,
            enabled,
            interval_ns,
            max_inflight,
            &MetricsRegistry::new(),
        )
    }

    const ALL: &dyn Fn(&str, u64) -> bool = &|_, _| true;

    #[test]
    fn a_pass_walks_owned_extents_and_completes() {
        let tier = tier_with(&[("/a", 0, 100), ("/a", 1, 200), ("/b", 0, 300)]);
        let mut f = Fixture::new(scrub(true, 1_000, 2), tier);
        // Owns everything except /b.
        let owns = |path: &str, _stripe: u64| path != "/b";
        let r0 = f.admit(1, 0, &owns).expect("first admit");
        assert_eq!(r0.meta, TrafficClass::Scrub.meta(0));
        assert_eq!(r0.kind, OpKind::Read);
        assert_eq!(r0.bytes, 100);
        let r1 = f.admit(2, 0, &owns).expect("second admit");
        assert_eq!(r1.bytes, 200);
        // Depth 2 reached.
        assert!(f.admit(3, 0, &owns).is_none());
        assert!(f.p.is_busy());
        // Completions free depth; /b is skipped, so the cursor exhausts.
        let t = f.land(1);
        assert_eq!((t.path.as_str(), t.stripe), ("/a", 0));
        f.p.record_clean(t.bytes);
        assert!(f.admit(3, 0, &owns).is_none(), "only /b left");
        // The pass is not done until the second verification lands.
        assert!(f.p.finish_pass_if_idle(500).is_none());
        let t = f.land(2);
        f.p.record_clean(t.bytes);
        let pass = f.p.finish_pass_if_idle(500).expect("pass complete");
        assert_eq!(pass, 1);
        let status = f.p.status();
        assert_eq!(status.passes_completed, 1);
        assert_eq!(status.scrubbed_extents, 2);
        assert_eq!(status.scrubbed_bytes, 300);
        assert_eq!(status.errors_detected, 0);
        assert!(status.is_healthy());
        // The next pass is paced by the interval.
        assert!(f.admit(4, 1_000, &owns).is_none());
        assert!(f.admit(4, 1_500 + 1, &owns).is_some());
    }

    #[test]
    fn force_pass_bypasses_interval_and_disabled_state() {
        let mut f = Fixture::new(scrub(false, u64::MAX, 4), tier_with(&[("/x", 0, 64)]));
        // Disabled: nothing is admitted on its own.
        assert!(f.admit(1, 0, ALL).is_none());
        let pass = f.p.force_pass();
        assert_eq!(pass, 1);
        let r = f.admit(1, 0, ALL).expect("forced");
        assert_eq!(r.bytes, 64);
        let t = f.land(1);
        f.p.record_clean(t.bytes);
        assert!(f.admit(2, 0, ALL).is_none());
        assert_eq!(f.p.finish_pass_if_idle(0), Some(1));
        // Forcing during an active pass waits for a *follow-up* pass: the
        // running pass walked its cursor before the demand arrived, so
        // acking it would certify stale verifications.
        assert_eq!(f.p.force_pass(), 2);
        let t3 = f.admit(3, 0, ALL).expect("second pass");
        assert_eq!(f.p.force_pass(), 3, "demand mid-pass targets the next pass");
        // Pass 2 completes; the forced follow-up (pass 3) starts right
        // behind it without waiting out the (infinite) interval, and its
        // completion is what answers the mid-pass demand.
        let done = f.land(t3.seq);
        f.p.record_clean(done.bytes);
        assert!(f.admit(4, 0, ALL).is_none());
        assert_eq!(f.p.finish_pass_if_idle(0), Some(2));
        let t4 = f.admit(4, 0, ALL).expect("forced follow-up");
        let done = f.land(t4.seq);
        f.p.record_clean(done.bytes);
        assert!(f.admit(5, 0, ALL).is_none());
        assert_eq!(f.p.finish_pass_if_idle(0), Some(3));
    }

    #[test]
    fn outcomes_account_and_quarantine_dedups() {
        let tier = tier_with(&[("/q", 0, 50), ("/q", 1, 60)]);
        tier.corrupt_extent("/q", 0, 3);
        let (data, stored) = tier.read_back_with_checksum("/q", 0).unwrap();
        assert_ne!(extent_checksum(&data), stored);
        let registry = MetricsRegistry::new();
        let mut f = Fixture::new(ScrubPipeline::new(0, true, 0, 4, &registry), tier);
        f.p.record_quarantined("/q".into(), 0, 50);
        f.p.record_repaired(60);
        f.p.record_superseded(10);
        let status = f.p.status();
        assert_eq!(status.errors_detected, 3);
        assert_eq!(status.repaired_extents, 1);
        assert_eq!(status.superseded_extents, 1);
        assert_eq!(status.quarantined, vec![("/q".to_string(), 0)]);
        assert_eq!(status.quarantined_extents(), 1);
        assert!(!status.is_healthy());
        // The status reads the registry series themselves.
        let snap = registry.snapshot(0);
        assert_eq!(snap.counter(0, 0, "scrub", "errors_detected"), 3);
        assert_eq!(snap.gauge(0, 0, "scrub", "quarantined_extents"), 1);
        // A quarantined key is skipped by admission…
        let r = f.admit(9, 0, ALL).expect("admit");
        assert_eq!(f.p.inflight(9).unwrap().stripe, 1);
        assert_eq!(r.bytes, 60);
        // …until a legitimate rewrite lifts the quarantine.
        f.p.unquarantine("/q", 0);
        assert!(f.p.status().is_healthy());
    }

    #[test]
    fn empty_tier_pass_completes_immediately() {
        let mut f = Fixture::new(scrub(true, 100, 4), CapacityTier::hdd());
        assert!(f.admit(1, 0, ALL).is_none());
        assert_eq!(f.p.finish_pass_if_idle(7), Some(1));
        assert_eq!(f.p.status().passes_completed, 1);
        assert!(!f.p.status().pass_active);
    }
}
