//! The job status table maintained by every server's job monitor (§4.1) and
//! synchronised across servers for λ-delayed global fairness (§3.1).

use crate::entity::{GroupId, JobEntry, JobId, JobMeta, JobStatus, UserId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of servers a presence mask can attribute I/O to (the width of
/// [`JobEntry::presence_mask`]). Server indices must stay below this;
/// [`JobTable::set_viewpoint`] rejects larger ones instead of aliasing them
/// onto the last bit.
pub const PRESENCE_CAPACITY: usize = 128;

/// Process-global allocator of job-table revisions.
///
/// Revisions are unique across every table in the process, so two tables
/// holding the same revision are guaranteed to have gone through the same
/// last share-relevant mutation (i.e. one is an unmodified clone of the
/// other) — equal revision implies identical share-relevant contents, which
/// is what lets [`crate::sched::ThemisScheduler`] skip share recomputation on
/// refresh. Starts at 1 so the freshly-constructed (empty) state keeps
/// revision 0.
static TABLE_REVISION: AtomicU64 = AtomicU64::new(1);

fn next_revision() -> u64 {
    TABLE_REVISION.fetch_add(1, Ordering::Relaxed)
}

/// Error returned by [`JobTable::set_viewpoint`] when the server index does
/// not fit the presence mask.
///
/// Historically out-of-range indices were silently clamped to the last bit,
/// which aliased every server ≥ [`PRESENCE_CAPACITY`] onto one presence bit
/// and corrupted `server_span` — and with it localized shares — at exactly
/// the deployment sizes where multi-server fairness matters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViewpointOutOfRange {
    /// The rejected server index.
    pub index: usize,
}

impl fmt::Display for ViewpointOutOfRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "server index {} does not fit the {PRESENCE_CAPACITY}-bit presence mask",
            self.index
        )
    }
}

impl std::error::Error for ViewpointOutOfRange {}

/// Per-server table of all jobs the server has heard about.
///
/// The table records, for each job, its metadata (user, group, node count,
/// priority), its activity status, and when it was last heard from. Entries
/// come from three places:
///
/// * heartbeats sent by clients,
/// * the job metadata embedded in each I/O request,
/// * table merges received from peer servers during λ-synchronisation.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct JobTable {
    entries: BTreeMap<JobId, JobEntry>,
    /// Heartbeat timeout: a job becomes inactive when `now - last_heartbeat`
    /// exceeds this value. Defaults to 5 s, matching the "predefined period of
    /// time" in §4.1.
    heartbeat_timeout_ns: u64,
    /// The index of the server this table belongs to, when the table is one
    /// server's local view in a multi-server deployment. Used to record which
    /// servers each job issues I/O on (the "token counts" exchanged during
    /// λ-sync, Fig. 5) and to localise globally fair shares. Always below
    /// [`PRESENCE_CAPACITY`].
    viewpoint: Option<u32>,
    /// Stamp of the last *share-relevant* mutation (entry inserted/removed,
    /// metadata or activity changed, presence bit gained, viewpoint moved),
    /// drawn from the process-global [`TABLE_REVISION`] counter. Heartbeats
    /// that only refresh `last_heartbeat_ns` and request counting do not
    /// advance it, so refresh storms can be deduplicated by comparing
    /// revisions.
    revision: u64,
    /// A lower bound on the `last_heartbeat_ns` of every *active* entry
    /// (`u64::MAX` when none is active): no entry can expire before this
    /// plus the timeout, so [`JobTable::expire`] returns without touching
    /// the map until then. Heartbeats lower it when they (re)activate an
    /// entry with an older clock and otherwise leave it — a later heartbeat
    /// only moves the true minimum up, which keeps the bound valid; the scan
    /// that runs once the bound is reached makes it exact again. Merges
    /// rewrite clocks and statuses wholesale and reset it to 0 ("unknown").
    active_heartbeat_floor_ns: u64,
}

/// Default heartbeat timeout (5 seconds, in nanoseconds).
pub const DEFAULT_HEARTBEAT_TIMEOUT_NS: u64 = 5_000_000_000;

impl JobTable {
    /// Creates an empty table with the default heartbeat timeout.
    pub fn new() -> Self {
        JobTable {
            entries: BTreeMap::new(),
            heartbeat_timeout_ns: DEFAULT_HEARTBEAT_TIMEOUT_NS,
            viewpoint: None,
            revision: 0,
            active_heartbeat_floor_ns: u64::MAX,
        }
    }

    /// Creates an empty table with an explicit heartbeat timeout.
    pub fn with_heartbeat_timeout(timeout_ns: u64) -> Self {
        JobTable {
            heartbeat_timeout_ns: timeout_ns,
            ..JobTable::new()
        }
    }

    /// Marks this table as the local view of server `index` so that observed
    /// requests are attributed to that server in each job's presence mask.
    ///
    /// Rejects indices that do not fit the presence mask instead of aliasing
    /// them onto the last bit; callers on oversized deployments should run
    /// without a viewpoint (global view) rather than corrupt `server_span`.
    pub fn set_viewpoint(&mut self, index: usize) -> Result<(), ViewpointOutOfRange> {
        if index >= PRESENCE_CAPACITY {
            return Err(ViewpointOutOfRange { index });
        }
        let viewpoint = Some(index as u32);
        if self.viewpoint != viewpoint {
            self.viewpoint = viewpoint;
            self.revision = next_revision();
        }
        Ok(())
    }

    /// Stamp of the last share-relevant mutation. Revisions are unique
    /// process-wide, so equal revisions imply identical share-relevant
    /// contents (one table is an unmodified clone of the other); an unequal
    /// pair says nothing beyond "possibly different".
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// The server index this table is the local view of, if any.
    pub fn viewpoint(&self) -> Option<u32> {
        self.viewpoint
    }

    /// The number of servers a job has been observed issuing I/O on (0 when
    /// the job has only ever been seen through heartbeats).
    pub fn server_span(&self, job: JobId) -> u32 {
        self.entries
            .get(&job)
            .map_or(0, |e| e.presence_mask.count_ones())
    }

    /// Whether `job` has been observed issuing I/O on server `index`.
    ///
    /// Indices beyond the presence mask report `false` (no job can be
    /// present on a server the mask cannot represent); they are no longer
    /// aliased onto the last bit.
    pub fn present_on(&self, job: JobId, index: u32) -> bool {
        if index as usize >= PRESENCE_CAPACITY {
            return false;
        }
        self.entries
            .get(&job)
            .is_some_and(|e| e.presence_mask & (1u128 << index) != 0)
    }

    /// The configured heartbeat timeout in nanoseconds.
    pub fn heartbeat_timeout_ns(&self) -> u64 {
        self.heartbeat_timeout_ns
    }

    /// Number of jobs (active or inactive) known to this table.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when the table has no entries at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Records a heartbeat (or any sign of life) from a job at time `now_ns`.
    ///
    /// Unknown jobs are inserted as new active entries — this is how a server
    /// learns about a job the first time one of its clients connects.
    pub fn heartbeat(&mut self, meta: JobMeta, now_ns: u64) {
        match self.entries.entry(meta.job) {
            std::collections::btree_map::Entry::Vacant(slot) => {
                slot.insert(JobEntry::new(meta, now_ns));
                self.active_heartbeat_floor_ns = self.active_heartbeat_floor_ns.min(now_ns);
                self.revision = next_revision();
            }
            std::collections::btree_map::Entry::Occupied(mut slot) => {
                let entry = slot.get_mut();
                // A repeat heartbeat that only refreshes the liveness clock
                // is not share-relevant; only metadata changes and
                // inactive→active flips advance the revision.
                let share_relevant = entry.meta != meta || entry.status != JobStatus::Active;
                entry.meta = meta;
                entry.status = JobStatus::Active;
                entry.last_heartbeat_ns = entry.last_heartbeat_ns.max(now_ns);
                // Only a revived entry can sit below the floor; an already
                // active one was at or above it and has not moved down.
                self.active_heartbeat_floor_ns =
                    self.active_heartbeat_floor_ns.min(entry.last_heartbeat_ns);
                if share_relevant {
                    self.revision = next_revision();
                }
            }
        }
    }

    /// Records that an I/O request from `meta.job` was observed at `now_ns`.
    ///
    /// Requests count as heartbeats: a job that is actively issuing I/O never
    /// times out even if its dedicated heartbeat thread stalls.
    pub fn observe_request(&mut self, meta: JobMeta, now_ns: u64) {
        self.heartbeat(meta, now_ns);
        let viewpoint = self.viewpoint;
        if let Some(e) = self.entries.get_mut(&meta.job) {
            e.requests_seen += 1;
            if let Some(v) = viewpoint {
                // The viewpoint is validated against PRESENCE_CAPACITY when
                // set, so the shift cannot wrap. A newly gained presence bit
                // widens the job's server span (share-relevant); repeat
                // requests from an already-recorded server are not.
                let bit = 1u128 << v;
                if e.presence_mask & bit == 0 {
                    e.presence_mask |= bit;
                    self.revision = next_revision();
                }
            }
        }
    }

    /// Explicitly removes a job, e.g. when its client disconnects cleanly
    /// (§4.2: "When a client exits, it notifies the ThemisIO servers to
    /// destroy the corresponding mapping entry").
    pub fn remove(&mut self, job: JobId) -> Option<JobEntry> {
        let removed = self.entries.remove(&job);
        if removed.is_some() {
            self.revision = next_revision();
        }
        removed
    }

    /// Marks jobs whose last heartbeat is older than the timeout as inactive
    /// and returns how many transitions happened.
    ///
    /// Costs nothing until the earliest possible expiry
    /// ([`JobTable::next_expiry_ns`]); the scan that runs from then on flips
    /// exactly the entries a scan on every call would have.
    pub fn expire(&mut self, now_ns: u64) -> usize {
        let timeout = self.heartbeat_timeout_ns;
        if now_ns.saturating_sub(self.active_heartbeat_floor_ns) <= timeout {
            return 0;
        }
        let mut flipped = 0;
        let mut floor = u64::MAX;
        for entry in self.entries.values_mut() {
            if entry.status != JobStatus::Active {
                continue;
            }
            if now_ns.saturating_sub(entry.last_heartbeat_ns) > timeout {
                entry.status = JobStatus::Inactive;
                flipped += 1;
            } else {
                floor = floor.min(entry.last_heartbeat_ns);
            }
        }
        self.active_heartbeat_floor_ns = floor;
        if flipped > 0 {
            self.revision = next_revision();
        }
        flipped
    }

    /// The first `now_ns` at which [`JobTable::expire`] may flip an entry
    /// (it may also turn out to flip none: the bound behind it is only made
    /// exact by the scan). `None` while no entry is active.
    pub fn next_expiry_ns(&self) -> Option<u64> {
        (self.active_heartbeat_floor_ns != u64::MAX).then(|| {
            self.active_heartbeat_floor_ns
                .saturating_add(self.heartbeat_timeout_ns)
                .saturating_add(1)
        })
    }

    /// Looks up a single entry.
    pub fn get(&self, job: JobId) -> Option<&JobEntry> {
        self.entries.get(&job)
    }

    /// Iterates over all entries in job-id order.
    pub fn iter(&self) -> impl Iterator<Item = (&JobId, &JobEntry)> {
        self.entries.iter()
    }

    /// Returns the metadata of all *active* jobs, in job-id order.
    ///
    /// This is the input to share computation: only active jobs receive
    /// statistical tokens.
    pub fn active_jobs(&self) -> Vec<JobMeta> {
        self.entries
            .values()
            .filter(|e| e.status.is_active())
            .map(|e| e.meta)
            .collect()
    }

    /// Number of active jobs.
    pub fn active_count(&self) -> usize {
        self.entries
            .values()
            .filter(|e| e.status.is_active())
            .count()
    }

    /// Distinct users that own at least one active job.
    pub fn active_users(&self) -> Vec<UserId> {
        let mut users: Vec<UserId> = self
            .entries
            .values()
            .filter(|e| e.status.is_active())
            .map(|e| e.meta.user)
            .collect();
        users.sort_unstable();
        users.dedup();
        users
    }

    /// Distinct groups that own at least one active job.
    pub fn active_groups(&self) -> Vec<GroupId> {
        let mut groups: Vec<GroupId> = self
            .entries
            .values()
            .filter(|e| e.status.is_active())
            .map(|e| e.meta.group)
            .collect();
        groups.sort_unstable();
        groups.dedup();
        groups
    }

    /// Merges a peer server's table into this one (the all-gather step of
    /// λ-delayed fairness, §3.1 / Fig. 5).
    ///
    /// For a job present in both tables the entry with the most recent
    /// heartbeat wins; a job that either side considers active stays active
    /// (the job clearly exists somewhere in the system). Request counters are
    /// *not* summed — they are per-server observations — the maximum is kept
    /// as a conservative indicator.
    pub fn merge_from(&mut self, other: &JobTable) {
        self.active_heartbeat_floor_ns = 0;
        let mut changed = false;
        for (job, remote) in other.entries.iter() {
            match self.entries.get_mut(job) {
                None => {
                    self.entries.insert(*job, *remote);
                    changed = true;
                }
                Some(local) => {
                    let before = (local.meta, local.status, local.presence_mask);
                    if remote.last_heartbeat_ns > local.last_heartbeat_ns {
                        local.meta = remote.meta;
                        local.last_heartbeat_ns = remote.last_heartbeat_ns;
                    }
                    if remote.status.is_active() {
                        local.status = JobStatus::Active;
                    }
                    local.requests_seen = local.requests_seen.max(remote.requests_seen);
                    local.presence_mask |= remote.presence_mask;
                    changed |= (local.meta, local.status, local.presence_mask) != before;
                }
            }
        }
        if changed {
            self.revision = next_revision();
        }
    }

    /// Produces the globally-merged table of a set of per-server tables, the
    /// result every controller holds after one complete all-gather round.
    pub fn all_gather<'a>(tables: impl IntoIterator<Item = &'a JobTable>) -> JobTable {
        let mut merged = JobTable::new();
        for t in tables {
            merged.heartbeat_timeout_ns = t.heartbeat_timeout_ns;
            merged.merge_from(t);
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(job: u64, user: u32, group: u32, nodes: u32) -> JobMeta {
        JobMeta::new(job, user, group, nodes)
    }

    #[test]
    fn heartbeat_inserts_and_refreshes() {
        let mut t = JobTable::new();
        t.heartbeat(meta(1, 10, 100, 4), 1_000);
        assert_eq!(t.len(), 1);
        assert_eq!(t.active_count(), 1);
        t.heartbeat(meta(1, 10, 100, 4), 2_000);
        assert_eq!(t.get(JobId(1)).unwrap().last_heartbeat_ns, 2_000);
    }

    #[test]
    fn stale_heartbeat_does_not_rewind_clock() {
        let mut t = JobTable::new();
        t.heartbeat(meta(1, 10, 100, 4), 5_000);
        t.heartbeat(meta(1, 10, 100, 4), 3_000);
        assert_eq!(t.get(JobId(1)).unwrap().last_heartbeat_ns, 5_000);
    }

    #[test]
    fn expire_marks_inactive_and_heartbeat_revives() {
        let mut t = JobTable::with_heartbeat_timeout(1_000);
        t.heartbeat(meta(1, 10, 100, 4), 0);
        assert_eq!(t.expire(500), 0);
        assert_eq!(t.expire(2_000), 1);
        assert_eq!(t.active_count(), 0);
        assert_eq!(t.len(), 1);
        t.heartbeat(meta(1, 10, 100, 4), 2_500);
        assert_eq!(t.active_count(), 1);
    }

    #[test]
    fn observe_request_counts() {
        let mut t = JobTable::new();
        for i in 0..5 {
            t.observe_request(meta(1, 10, 100, 4), i * 100);
        }
        assert_eq!(t.get(JobId(1)).unwrap().requests_seen, 5);
    }

    #[test]
    fn active_users_and_groups_dedup() {
        let mut t = JobTable::new();
        t.heartbeat(meta(1, 10, 100, 4), 0);
        t.heartbeat(meta(2, 10, 100, 2), 0);
        t.heartbeat(meta(3, 20, 100, 2), 0);
        assert_eq!(t.active_users(), vec![UserId(10), UserId(20)]);
        assert_eq!(t.active_groups(), vec![GroupId(100)]);
    }

    #[test]
    fn remove_deletes_entry() {
        let mut t = JobTable::new();
        t.heartbeat(meta(1, 10, 100, 4), 0);
        assert!(t.remove(JobId(1)).is_some());
        assert!(t.is_empty());
        assert!(t.remove(JobId(1)).is_none());
    }

    #[test]
    fn merge_prefers_latest_and_keeps_active() {
        let mut a = JobTable::new();
        let mut b = JobTable::new();
        a.heartbeat(meta(1, 10, 100, 16), 1_000);
        b.heartbeat(meta(1, 10, 100, 16), 9_000);
        b.heartbeat(meta(2, 20, 100, 8), 5_000);
        // Job 1 inactive on a, active on b.
        a.expire(u64::MAX);
        a.merge_from(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.get(JobId(1)).unwrap().last_heartbeat_ns, 9_000);
        assert!(a.get(JobId(1)).unwrap().status.is_active());
    }

    #[test]
    fn set_viewpoint_rejects_indices_beyond_the_presence_mask() {
        // Regression: indices ≥ 128 used to be clamped onto bit 127, so
        // servers 127, 128, 200… all aliased to one presence bit and
        // server_span undercounted on large deployments.
        let mut t = JobTable::new();
        assert_eq!(t.set_viewpoint(0), Ok(()));
        assert_eq!(t.viewpoint(), Some(0));
        assert_eq!(t.set_viewpoint(PRESENCE_CAPACITY - 1), Ok(()));
        assert_eq!(t.viewpoint(), Some(127));
        let err = t.set_viewpoint(PRESENCE_CAPACITY).unwrap_err();
        assert_eq!(err.index, PRESENCE_CAPACITY);
        assert!(err.to_string().contains("128"));
        // The rejected call leaves the previous viewpoint intact.
        assert_eq!(t.viewpoint(), Some(127));
    }

    #[test]
    fn present_on_does_not_alias_out_of_range_servers() {
        let mut t = JobTable::new();
        t.set_viewpoint(127).unwrap();
        t.observe_request(meta(1, 10, 100, 4), 0);
        assert!(t.present_on(JobId(1), 127));
        // Out-of-range indices used to collapse onto bit 127 and report
        // presence that was never observed.
        assert!(!t.present_on(JobId(1), 128));
        assert!(!t.present_on(JobId(1), 500));
        assert_eq!(t.server_span(JobId(1)), 1);
    }

    #[test]
    fn revision_tracks_share_relevant_changes_only() {
        let mut t = JobTable::new();
        assert_eq!(t.revision(), 0);
        t.heartbeat(meta(1, 10, 100, 4), 1_000);
        let after_insert = t.revision();
        assert_ne!(after_insert, 0);
        // Liveness-only heartbeats do not advance the revision.
        t.heartbeat(meta(1, 10, 100, 4), 2_000);
        assert_eq!(t.revision(), after_insert);
        // Metadata changes do.
        t.heartbeat(meta(1, 10, 100, 8), 3_000);
        let after_meta = t.revision();
        assert_ne!(after_meta, after_insert);
        // A repeat request from an already-recorded server does not; the
        // first presence bit on a server does.
        t.set_viewpoint(3).unwrap();
        let after_viewpoint = t.revision();
        assert_ne!(after_viewpoint, after_meta);
        t.observe_request(meta(1, 10, 100, 8), 4_000);
        let after_presence = t.revision();
        assert_ne!(after_presence, after_viewpoint);
        t.observe_request(meta(1, 10, 100, 8), 5_000);
        assert_eq!(t.revision(), after_presence);
        // Expiry that flips nothing keeps the revision; one that flips bumps.
        assert_eq!(t.expire(5_500), 0);
        assert_eq!(t.revision(), after_presence);
        assert_eq!(t.expire(u64::MAX), 1);
        assert_ne!(t.revision(), after_presence);
        // An unmodified clone shares its source's revision (that is the
        // contract the scheduler's refresh cache relies on); any mutation
        // diverges it.
        let snapshot = t.clone();
        assert_eq!(snapshot.revision(), t.revision());
        t.remove(JobId(1));
        assert_ne!(t.revision(), snapshot.revision());
    }

    /// What `expire` was before it kept a floor: every call scans.
    fn expire_by_full_scan(t: &mut JobTable, now_ns: u64) -> usize {
        let mut flipped = 0;
        for entry in t.entries.values_mut() {
            if entry.status == JobStatus::Active
                && now_ns.saturating_sub(entry.last_heartbeat_ns) > t.heartbeat_timeout_ns
            {
                entry.status = JobStatus::Inactive;
                flipped += 1;
            }
        }
        if flipped > 0 {
            t.revision = next_revision();
        }
        flipped
    }

    /// Random interleavings of every mutation, applied to a table that
    /// expires through the floor and to one that scans on every call: the
    /// same entries must flip at the same `now_ns`, and the revision must
    /// move on exactly the same steps.
    #[test]
    fn bounded_expire_matches_the_full_scan_on_random_interleavings() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..200u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let timeout = rng.gen_range(1u64..2_000);
            let mut bounded = JobTable::with_heartbeat_timeout(timeout);
            let mut scanned = JobTable::with_heartbeat_timeout(timeout);
            let mut peer = JobTable::with_heartbeat_timeout(timeout);
            bounded.set_viewpoint(0).unwrap();
            scanned.set_viewpoint(0).unwrap();
            peer.set_viewpoint(1).unwrap();
            let mut now = 0u64;
            for step in 0..400 {
                // Mostly forwards, sometimes a stale clock or a long silence.
                now = match rng.gen_range(0u32..10) {
                    0 => now.saturating_sub(rng.gen_range(0u64..timeout)),
                    1 => now + rng.gen_range(0u64..3 * timeout),
                    _ => now + rng.gen_range(0u64..timeout / 4 + 2),
                };
                let m = meta(rng.gen_range(1u64..12), 1, 1, rng.gen_range(1u32..3));
                let before = (bounded.revision(), scanned.revision());
                let flips = match rng.gen_range(0u32..12) {
                    0..=2 => {
                        bounded.heartbeat(m, now);
                        scanned.heartbeat(m, now);
                        None
                    }
                    3..=4 => {
                        bounded.observe_request(m, now);
                        scanned.observe_request(m, now);
                        None
                    }
                    5 => {
                        assert_eq!(
                            bounded.remove(m.job).is_some(),
                            scanned.remove(m.job).is_some()
                        );
                        None
                    }
                    6 => {
                        peer.observe_request(m, now.saturating_sub(rng.gen_range(0u64..timeout)));
                        if rng.gen_bool(0.3) {
                            peer.expire(now);
                        }
                        bounded.merge_from(&peer);
                        scanned.merge_from(&peer);
                        None
                    }
                    _ => Some((bounded.expire(now), expire_by_full_scan(&mut scanned, now))),
                };
                let ctx = format!("seed {seed} step {step} now {now}");
                if let Some((b, s)) = flips {
                    assert_eq!(b, s, "flip count, {ctx}");
                }
                assert_eq!(
                    bounded.revision() != before.0,
                    scanned.revision() != before.1,
                    "revision bump, {ctx}"
                );
                assert!(bounded.iter().eq(scanned.iter()), "entries diverged, {ctx}");
                // The advertised expiry is never later than the first `now`
                // at which a scan would flip something.
                let first_flip = scanned
                    .iter()
                    .filter(|(_, e)| e.status.is_active())
                    .map(|(_, e)| e.last_heartbeat_ns + timeout + 1)
                    .min();
                match (bounded.next_expiry_ns(), first_flip) {
                    (Some(advertised), Some(actual)) => {
                        assert!(advertised <= actual, "{advertised} > {actual}, {ctx}")
                    }
                    (None, Some(actual)) => panic!("no expiry advertised, due {actual}, {ctx}"),
                    (_, None) => {}
                }
            }
        }
    }

    #[test]
    fn merge_bumps_revision_only_on_content_changes() {
        let mut a = JobTable::new();
        let mut b = JobTable::new();
        a.heartbeat(meta(1, 10, 100, 16), 1_000);
        b.heartbeat(meta(1, 10, 100, 16), 500);
        let before = a.revision();
        // b carries nothing newer: no metadata, status or presence movement.
        a.merge_from(&b);
        assert_eq!(a.revision(), before);
        b.heartbeat(meta(2, 20, 100, 8), 600);
        a.merge_from(&b);
        assert_ne!(a.revision(), before);
    }

    #[test]
    fn all_gather_reproduces_fig5_union() {
        // Fig. 5: server 1 sees jobs {1 (16 nodes), 2 (8 nodes)}, server 2
        // sees {1 (16 nodes), 3 (8 nodes)}. After the all-gather both see all
        // three jobs, so size-fair converges to 16:8:8 = 50%/25%/25%.
        let mut s1 = JobTable::new();
        s1.heartbeat(meta(1, 1, 1, 16), 0);
        s1.heartbeat(meta(2, 2, 1, 8), 0);
        let mut s2 = JobTable::new();
        s2.heartbeat(meta(1, 1, 1, 16), 0);
        s2.heartbeat(meta(3, 3, 1, 8), 0);
        let merged = JobTable::all_gather([&s1, &s2]);
        assert_eq!(merged.len(), 3);
        let total_nodes: u32 = merged.active_jobs().iter().map(|m| m.nodes).sum();
        assert_eq!(total_nodes, 32);
    }
}
