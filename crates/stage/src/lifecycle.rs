//! The lifecycle of a system-synthesized request, in one place.
//!
//! Every internal traffic class moves its requests through the same five
//! steps: **admitted** under a pipelining-depth cap → **released** by the
//! policy engine → **charged** on the device timelines → **due** at its
//! `finish_ns` → **landed** (the class-specific effect: mark clean, restore
//! the extent, judge the checksum, apply the migration, release `sync`
//! acks).
//! [`ClassQueue`] is the one ledger of that lifecycle — the `seq → (target,
//! finish_ns)` table of everything a class has in flight — and
//! [`ClassLifecycle`] is the view of it the server iterates over
//! [`TrafficClass::ALL`]: when the server must next wake for a class
//! ([`ClassLifecycle::next_finish_ns`]) and what the class wants admitted
//! next ([`ClassLifecycle::admit_next`]).
//!
//! Each pipeline embeds one `ClassQueue` and keeps only the policy that is
//! its own (dedup keys, pass cursors, debt); what a landed request *does*
//! stays with the server, which owns the file system, the device timelines
//! and the parked foreground work a landing touches.

use crate::backing::BackingStore;
use crate::class::TrafficClass;
use std::collections::BTreeMap;
use themis_core::entity::JobMeta;
use themis_core::request::IoRequest;
use themis_fs::BurstBufferFs;

/// The in-flight ledger of one traffic class on one server: class identity,
/// the pipelining-depth cap, and every admitted request's target with the
/// time its device charges finish.
#[derive(Debug)]
pub struct ClassQueue<T> {
    class: TrafficClass,
    server: usize,
    max_inflight: usize,
    /// `seq → (target, finish_ns)`; `finish_ns` is `None` while the request
    /// still waits in the policy engine. Ordered by sequence number so due
    /// entries land in admission order, identically on every run.
    inflight: BTreeMap<u64, (T, Option<u64>)>,
}

impl<T> ClassQueue<T> {
    /// The empty ledger of `class` on `server`, admitting at most
    /// `max_inflight` requests at a time.
    pub fn new(class: TrafficClass, server: usize, max_inflight: usize) -> Self {
        ClassQueue {
            class,
            server,
            max_inflight: max_inflight.max(1),
            inflight: BTreeMap::new(),
        }
    }

    /// The server whose traffic this ledger tracks.
    pub fn server(&self) -> usize {
        self.server
    }

    /// The job identity the class's requests run under on this server.
    pub fn meta(&self) -> JobMeta {
        self.class.meta(self.server)
    }

    /// How many more requests may be admitted before the depth cap.
    pub fn capacity(&self) -> usize {
        self.max_inflight.saturating_sub(self.inflight.len())
    }

    /// Number of requests admitted and not yet landed.
    pub fn len(&self) -> usize {
        self.inflight.len()
    }

    /// Whether nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.inflight.is_empty()
    }

    /// Records `target` in flight under `seq` and returns the policy-visible
    /// request to feed to the engine: `bytes` of the class's burst slot
    /// ([`TrafficClassDef::burst`](crate::class::TrafficClassDef::burst)).
    /// The caller checks [`capacity`](Self::capacity) first.
    pub fn admit(&mut self, seq: u64, target: T, bytes: u64, now_ns: u64) -> IoRequest {
        self.inflight.insert(seq, (target, None));
        IoRequest::new(seq, self.meta(), self.class.def().burst, bytes, now_ns)
    }

    /// The in-flight target admitted under `seq`.
    pub fn get(&self, seq: u64) -> Option<&T> {
        self.inflight.get(&seq).map(|(target, _)| target)
    }

    /// Mutable access to the in-flight target admitted under `seq`.
    pub fn get_mut(&mut self, seq: u64) -> Option<&mut T> {
        self.inflight.get_mut(&seq).map(|(target, _)| target)
    }

    /// Every in-flight target, mutably (for in-place upgrades of a pending
    /// request a later arrival strengthens).
    pub fn targets_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.inflight.values_mut().map(|(target, _)| target)
    }

    /// The engine released `seq` and its device charges finish at
    /// `finish_ns`: the request lands at the first poll at or after then.
    pub fn dispatched(&mut self, seq: u64, finish_ns: u64) {
        if let Some((_, finish)) = self.inflight.get_mut(&seq) {
            *finish = Some(finish_ns);
        }
    }

    /// Removes `seq` without waiting for a finish time (a request that
    /// turned out to be a no-op when the engine released it).
    pub fn remove(&mut self, seq: u64) -> Option<T> {
        self.inflight.remove(&seq).map(|(target, _)| target)
    }

    /// Removes and returns the earliest-admitted target whose device charges
    /// finished at or before `now_ns`.
    pub fn pop_due(&mut self, now_ns: u64) -> Option<T> {
        let seq = self
            .inflight
            .iter()
            .find(|(_, (_, finish))| finish.is_some_and(|f| f <= now_ns))
            .map(|(seq, _)| *seq)?;
        self.remove(seq)
    }

    /// The earliest finish time among released requests — when the server
    /// must next wake for this class. `None` while nothing is charged.
    pub fn next_finish_ns(&self) -> Option<u64> {
        self.inflight
            .values()
            .filter_map(|(_, finish)| *finish)
            .min()
    }
}

/// What a pipeline may look at while deciding its next admission: the burst
/// tier (drain reads its dirty set), the capacity tier (the scrub and
/// rebalance cursors walk it) and which tier extents this server is
/// responsible for in a multi-server deployment.
pub struct AdmitContext<'a> {
    /// The burst-buffer file system.
    pub fs: &'a BurstBufferFs,
    /// The capacity tier behind it.
    pub backing: &'a dyn BackingStore,
    /// Whether this server's shard owns `(path, stripe)` — so a shared tier
    /// is scrubbed and migrated exactly once.
    pub owns: &'a dyn Fn(&str, u64) -> bool,
}

/// The part of a class pipeline the server drives without knowing which
/// class it is.
pub trait ClassLifecycle {
    /// Admits the pipeline's next request under sequence number `seq`, or
    /// `None` when it has nothing due or its depth cap is reached.
    fn admit_next(&mut self, seq: u64, now_ns: u64, ctx: &AdmitContext<'_>) -> Option<IoRequest>;

    /// Records that `seq`'s device charges finish at `finish_ns`.
    fn dispatched(&mut self, seq: u64, finish_ns: u64);

    /// The earliest finish time among this class's released requests.
    fn next_finish_ns(&self) -> Option<u64>;

    /// Whether the class has work admitted or waiting for admission.
    fn is_busy(&self) -> bool;
}

#[cfg(test)]
mod tests {
    use super::*;
    use themis_core::request::OpKind;

    #[test]
    fn ledger_walks_a_request_from_admission_to_landing() {
        let mut q: ClassQueue<&'static str> = ClassQueue::new(TrafficClass::Scrub, 3, 2);
        assert_eq!(q.meta(), TrafficClass::Scrub.meta(3));
        assert_eq!(q.capacity(), 2);
        let r = q.admit(7, "a", 100, 5);
        assert_eq!(
            (r.seq, r.kind, r.bytes, r.arrival_ns),
            (7, OpKind::Read, 100, 5)
        );
        q.admit(8, "b", 100, 5);
        assert_eq!(q.capacity(), 0);
        // Admitted but not yet released: in flight, but nothing to wake for.
        assert_eq!(q.next_finish_ns(), None);
        assert_eq!(q.pop_due(u64::MAX), None);
        q.dispatched(8, 40);
        q.dispatched(7, 90);
        assert_eq!(q.next_finish_ns(), Some(40));
        assert_eq!(q.pop_due(39), None);
        assert_eq!(q.pop_due(40), Some("b"));
        assert_eq!(q.get(7), Some(&"a"));
        assert_eq!(q.next_finish_ns(), Some(90));
        assert_eq!(q.pop_due(90), Some("a"));
        assert!(q.is_empty());
    }

    #[test]
    fn due_entries_land_in_admission_order() {
        let mut q: ClassQueue<u32> = ClassQueue::new(TrafficClass::Drain, 0, 4);
        for (seq, target) in [(3, 30), (1, 10), (2, 20)] {
            q.admit(seq, target, 1, 0);
            q.dispatched(seq, 100 - seq);
        }
        let landed: Vec<u32> = std::iter::from_fn(|| q.pop_due(100)).collect();
        assert_eq!(landed, vec![10, 20, 30]);
        // A no-op request leaves without ever being charged.
        q.admit(9, 90, 1, 0);
        assert_eq!(q.remove(9), Some(90));
        assert!(q.is_empty());
    }
}
