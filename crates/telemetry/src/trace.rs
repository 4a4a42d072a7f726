//! The scheduler decision trace: a bounded ring of [`TraceEvent`]s
//! answering *why* the WFQ picked a given lane at a given tick.
//!
//! The trace is **engine-local** state (the staged scheduler is
//! single-threaded per shard), so recording is a plain slot write — no
//! atomics, no locks. It is still a *debugging* facility, compiled in only
//! with the `trace` feature (forwarded by themis-stage, themis-server and
//! the root crate): three events per scheduled request cost ~25% of the
//! bare select hot path under saturation — far past the ≤10% telemetry
//! budget the bench gate enforces for the default build — so by default
//! [`DecisionTrace::record`] compiles to a no-op and the ring to a
//! zero-sized husk, and dumps come back empty with `dropped = 0`.

use serde::{Deserialize, Serialize};

/// What kind of scheduler decision an event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceKind {
    /// A request entered a queue (foreground or class lane).
    Admit,
    /// A class-lane request was served **charged** (lane virtual time ahead
    /// of foreground's, lane billed).
    SelectCharged,
    /// A class-lane request was served **uncharged** (foreground idle or
    /// throttled; opportunity-fair expansion, lane not billed).
    SelectUncharged,
    /// A foreground request won the slot.
    SelectForeground,
    /// A served request completed.
    Complete,
    /// A foreground op parked behind a policy-admitted restore (or behind an
    /// earlier overlapping parked op).
    Park,
    /// A parked foreground op woke (its restore set drained).
    Wake,
}

impl TraceKind {
    /// Short lowercase name for tables and logs.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Admit => "admit",
            TraceKind::SelectCharged => "select-charged",
            TraceKind::SelectUncharged => "select-uncharged",
            TraceKind::SelectForeground => "select-fg",
            TraceKind::Complete => "complete",
            TraceKind::Park => "park",
            TraceKind::Wake => "wake",
        }
    }
}

/// Which service lane an event concerns: the client-facing foreground or
/// one of the internal traffic classes. A closed enum rather than a string
/// so an event stores one byte instead of a fat pointer — three events land
/// in the ring per scheduled request, so event size is hot-path cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceLane {
    /// Client-facing traffic.
    Foreground,
    /// Stage-out (burst tier → capacity tier write-back).
    Drain,
    /// Stage-in (capacity tier → burst tier restore).
    Restore,
    /// Background checksum verification of the capacity tier.
    Scrub,
    /// Background shard-map rebalancing of the capacity tier.
    Rebalance,
    /// Durability copies: early drains of durable writes (burst tier →
    /// capacity tier).
    Replicate,
}

impl TraceLane {
    /// Lanes in traffic-class index order (the class sub-range layout),
    /// foreground last.
    pub const ALL: [TraceLane; 6] = [
        TraceLane::Drain,
        TraceLane::Restore,
        TraceLane::Scrub,
        TraceLane::Rebalance,
        TraceLane::Replicate,
        TraceLane::Foreground,
    ];

    /// The lane of a traffic class given its sub-range index (panics on an
    /// index no class claims — the caller got it from the class itself).
    pub fn from_class_index(index: u64) -> TraceLane {
        match index {
            0 => TraceLane::Drain,
            1 => TraceLane::Restore,
            2 => TraceLane::Scrub,
            3 => TraceLane::Rebalance,
            4 => TraceLane::Replicate,
            _ => panic!("unknown traffic-class index {index}"),
        }
    }

    /// Short lowercase label, matching `TrafficClass::name` and the
    /// registry's lane series labels.
    pub fn name(self) -> &'static str {
        match self {
            TraceLane::Foreground => "foreground",
            TraceLane::Drain => "drain",
            TraceLane::Restore => "restore",
            TraceLane::Scrub => "scrub",
            TraceLane::Rebalance => "rebalance",
            TraceLane::Replicate => "replicate",
        }
    }
}

/// One scheduler decision, with the virtual-time state that explains it.
///
/// Layout matters: three of these are written to the ring per scheduled
/// request. The lane is a one-byte enum (not a string) and the virtual
/// times stay `f64` exactly as the scheduler computes them — converting to
/// integers on the write path costs two saturating-cast sequences per
/// event, which alone is a measurable slice of the ≤10% telemetry overhead
/// budget on the select hot path.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Virtual (or wall) clock at the decision.
    pub now_ns: u64,
    /// Deciding server.
    pub server: u32,
    /// Decision kind.
    pub kind: TraceKind,
    /// Lane the decision concerns.
    pub lane: TraceLane,
    /// Job the request runs under (reserved ids for class traffic).
    pub job: u64,
    /// Request payload bytes.
    pub bytes: u64,
    /// The lane's virtual time at the decision (0 for foreground events).
    pub lane_vtime: f64,
    /// The foreground virtual time at the decision.
    pub fg_vtime: f64,
    /// Policy epoch in force.
    pub epoch: u64,
}

/// Default ring capacity (events retained per server).
pub const DEFAULT_TRACE_CAPACITY: usize = 256;

/// The ring's internal slot: a [`TraceEvent`] packed to 40 bytes.
///
/// Three slots are written per scheduled request, so the write is sized in
/// store micro-ops: virtual times are rounded to `f32` (a trace explains a
/// decision; seven significant digits of virtual time do that fine), the
/// epoch and server to `u32`/`u16`, kind and lane to one byte each. Packing
/// happens inline at [`DecisionTrace::record`], so the public event never
/// materializes on the hot path; dumps unpack on the read side.
#[cfg(feature = "trace")]
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    now_ns: u64,
    job: u64,
    bytes: u64,
    lane_vtime: f32,
    fg_vtime: f32,
    epoch: u32,
    server: u16,
    kind: u8,
    lane: u8,
}

#[cfg(feature = "trace")]
impl Slot {
    #[inline]
    fn pack(e: &TraceEvent) -> Slot {
        Slot {
            now_ns: e.now_ns,
            job: e.job,
            bytes: e.bytes,
            lane_vtime: e.lane_vtime as f32,
            fg_vtime: e.fg_vtime as f32,
            epoch: e.epoch as u32,
            server: e.server as u16,
            kind: e.kind as u8,
            lane: e.lane as u8,
        }
    }

    fn unpack(&self) -> TraceEvent {
        TraceEvent {
            now_ns: self.now_ns,
            server: u32::from(self.server),
            kind: KINDS[usize::from(self.kind)],
            lane: LANES[usize::from(self.lane)],
            job: self.job,
            bytes: self.bytes,
            lane_vtime: f64::from(self.lane_vtime),
            fg_vtime: f64::from(self.fg_vtime),
            epoch: u64::from(self.epoch),
        }
    }
}

/// [`TraceLane`]s indexed by discriminant (declaration order, *not*
/// [`TraceLane::ALL`]'s class-index order), for unpacking slots.
#[cfg(feature = "trace")]
const LANES: [TraceLane; 6] = [
    TraceLane::Foreground,
    TraceLane::Drain,
    TraceLane::Restore,
    TraceLane::Scrub,
    TraceLane::Rebalance,
    TraceLane::Replicate,
];

/// [`TraceKind`]s indexed by discriminant, for unpacking slots.
#[cfg(feature = "trace")]
const KINDS: [TraceKind; 7] = [
    TraceKind::Admit,
    TraceKind::SelectCharged,
    TraceKind::SelectUncharged,
    TraceKind::SelectForeground,
    TraceKind::Complete,
    TraceKind::Park,
    TraceKind::Wake,
];

/// A bounded ring buffer of the most recent [`TraceEvent`]s.
#[derive(Debug, Clone)]
pub struct DecisionTrace {
    /// Pre-filled to capacity (a power of two) at construction: recording
    /// is one masked slot write plus one counter bump, no branch.
    #[cfg(feature = "trace")]
    buf: Box<[Slot]>,
    #[cfg(feature = "trace")]
    mask: usize,
    /// Total events ever offered (kept even with tracing compiled out so
    /// drop accounting stays honest... it is 0 without the feature).
    recorded: u64,
}

impl Default for DecisionTrace {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_TRACE_CAPACITY)
    }
}

impl DecisionTrace {
    /// A ring retaining the last `cap` events (clamped to ≥ 1 and rounded
    /// up to a power of two, so the hot-path slot index is a mask).
    pub fn with_capacity(cap: usize) -> Self {
        let cap = cap.max(1).next_power_of_two();
        // Without the feature the husk carries no buffer at all.
        #[cfg(not(feature = "trace"))]
        let _ = cap;
        DecisionTrace {
            #[cfg(feature = "trace")]
            buf: vec![Slot::default(); cap].into_boxed_slice(),
            #[cfg(feature = "trace")]
            mask: cap - 1,
            recorded: 0,
        }
    }

    /// Whether tracing is compiled in (`trace` feature).
    pub fn enabled() -> bool {
        cfg!(feature = "trace")
    }

    /// Records one event (a packed slot write; a no-op when the `trace`
    /// feature is off).
    #[inline]
    pub fn record(&mut self, event: TraceEvent) {
        #[cfg(feature = "trace")]
        {
            self.buf[(self.recorded as usize) & self.mask] = Slot::pack(&event);
            self.recorded += 1;
        }
        #[cfg(not(feature = "trace"))]
        let _ = event;
    }

    /// Total events offered to the ring (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// The newest `max` retained events, oldest first, plus how many were
    /// dropped (overwritten or never retained).
    pub fn dump(&self, max: usize) -> TraceDump {
        #[cfg(feature = "trace")]
        {
            let cap = self.buf.len() as u64;
            let retained = self.recorded.min(cap);
            let keep = retained.min(max as u64);
            let events: Vec<TraceEvent> = (self.recorded - keep..self.recorded)
                .map(|i| self.buf[(i as usize) & self.mask].unpack())
                .collect();
            let dropped = self.recorded - events.len() as u64;
            TraceDump { events, dropped }
        }
        #[cfg(not(feature = "trace"))]
        {
            let _ = max;
            TraceDump {
                events: Vec::new(),
                dropped: 0,
            }
        }
    }
}

/// A dump of one server's decision trace, oldest event first.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceDump {
    /// Retained events, oldest first.
    pub events: Vec<TraceEvent>,
    /// Events recorded but not retained (ring overwrote them, or the dump
    /// was truncated to `max`).
    pub dropped: u64,
}

impl TraceDump {
    /// One human-readable line per event (for `themis-top` and debugging).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&format!(
                "{:>12} srv{} {:<16} {:<10} job={:<20} bytes={:<9} u={:<12.0} v={:<12.0} epoch={}\n",
                e.now_ns,
                e.server,
                e.kind.name(),
                e.lane.name(),
                e.job,
                e.bytes,
                e.lane_vtime,
                e.fg_vtime,
                e.epoch
            ));
        }
        if self.dropped > 0 {
            out.push_str(&format!("({} earlier events dropped)\n", self.dropped));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(n: u64) -> TraceEvent {
        TraceEvent {
            now_ns: n,
            server: 0,
            kind: TraceKind::SelectCharged,
            lane: TraceLane::Drain,
            job: 1,
            bytes: 4096,
            lane_vtime: n as f64,
            fg_vtime: (n * 2) as f64,
            epoch: 1,
        }
    }

    #[test]
    #[cfg_attr(not(feature = "trace"), ignore = "trace feature compiled out")]
    fn ring_keeps_the_newest_events_in_order() {
        let mut t = DecisionTrace::with_capacity(4);
        for n in 0..10 {
            t.record(ev(n));
        }
        assert_eq!(t.recorded(), 10);
        let dump = t.dump(usize::MAX);
        let times: Vec<u64> = dump.events.iter().map(|e| e.now_ns).collect();
        assert_eq!(times, vec![6, 7, 8, 9]);
        assert_eq!(dump.dropped, 6);
        // Truncation keeps the newest tail.
        let dump = t.dump(2);
        let times: Vec<u64> = dump.events.iter().map(|e| e.now_ns).collect();
        assert_eq!(times, vec![8, 9]);
        assert_eq!(dump.dropped, 8);
        assert!(dump.render().contains("select-charged"));
    }

    #[test]
    fn no_op_mode_reports_itself() {
        // With the feature on, enabled() is true and events are retained;
        // with it off, record() compiles to a no-op and dumps are empty.
        let mut t = DecisionTrace::default();
        t.record(ev(1));
        if DecisionTrace::enabled() {
            assert_eq!(t.recorded(), 1);
            assert_eq!(t.dump(10).events.len(), 1);
        } else {
            assert_eq!(t.recorded(), 0);
            assert!(t.dump(10).events.is_empty());
        }
    }
}
