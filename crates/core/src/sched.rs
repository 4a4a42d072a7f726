//! The arbitration interface shared by ThemisIO and all baseline algorithms,
//! plus the ThemisIO statistical-token scheduler itself.
//!
//! The paper integrates GIFT's and TBF's core algorithms "into ThemisIO"
//! (§5.4) by swapping only the request-selection logic while keeping the rest
//! of the server identical. [`Scheduler`] is that seam: the server's workers
//! call [`Scheduler::next`] to decide which queued request to service next,
//! and the controller calls [`Scheduler::refresh`] whenever the job table or
//! policy changes.

use crate::entity::{JobId, JobMeta};
use crate::job_table::JobTable;
use crate::policy::Policy;
use crate::request::{Completion, IoRequest};
use crate::sampler::{TokenSampler, NO_HINT};
use crate::shares::{compute_shares, localize_shares, ShareMap};
use rand::RngCore;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// A pluggable I/O arbitration algorithm (implementation-side trait).
///
/// Implementations must be deterministic given the same sequence of calls and
/// the same random numbers, so that simulated experiments are reproducible.
///
/// Consumers (server core, simulator) drive algorithms through the
/// object-safe [`PolicyEngine`](crate::engine::PolicyEngine) facade, which is
/// blanket-implemented for every `Scheduler`; implement whichever trait reads
/// better for your algorithm.
pub trait Scheduler: Send {
    /// Short algorithm name used in logs and experiment output
    /// (e.g. `"themis"`, `"fifo"`, `"gift"`, `"tbf"`).
    fn name(&self) -> &'static str;

    /// Queues an incoming request.
    fn enqueue(&mut self, request: IoRequest);

    /// Selects the next request to service at time `now_ns`.
    ///
    /// Returns `None` when no request is queued (or, for throttling
    /// schedulers such as TBF, when every queued job is currently rate
    /// limited — in which case the caller should retry after
    /// [`Scheduler::next_eligible_ns`]).
    fn next(&mut self, now_ns: u64, rng: &mut dyn RngCore) -> Option<IoRequest>;

    /// Earliest time at which a currently-queued request may become eligible,
    /// when [`Scheduler::next`] returned `None` despite queued work.
    /// `None` means "whenever new work arrives".
    fn next_eligible_ns(&self, _now_ns: u64) -> Option<u64> {
        None
    }

    /// Notifies the scheduler that a request it handed out has completed, so
    /// bandwidth-metering algorithms can account for actual service.
    fn on_complete(&mut self, completion: &Completion);

    /// Re-derives internal allocation state from the job table (possibly the
    /// λ-merged global table) and the sharing policy.
    fn refresh(&mut self, table: &JobTable, policy: &Policy);

    /// Whether this scheduler derives its arbitration from the [`Policy`]
    /// passed to [`refresh`](Scheduler::refresh). Fixed-algorithm baselines
    /// (FIFO, GIFT, TBF) ignore the policy and return `false`, so a live
    /// policy swap can be rejected instead of silently acknowledged.
    fn honors_policy(&self) -> bool {
        false
    }

    /// Total number of queued requests.
    fn queued(&self) -> usize;

    /// Number of queued requests belonging to `job`.
    fn queued_for(&self, job: JobId) -> usize;

    /// Jobs that currently have at least one queued request.
    fn backlogged_jobs(&self) -> Vec<JobId>;

    /// The scheduler's current nominal share assignment, for telemetry.
    fn shares(&self) -> ShareMap {
        ShareMap::empty()
    }
}

/// Deterministic multiplicative hasher for the job→slot index.
///
/// The std default (SipHash with per-process random keys) costs more than
/// the probe it guards on the per-request hot path, and its random keys
/// make hash iteration order vary run to run. Job ids are already
/// high-entropy-enough for an open workspace-internal map, so one Fibonacci
/// multiply plus a xor-shift (to push entropy into the low bits hashbrown
/// indexes with) replaces it. Iteration order is still never allowed to
/// leak into scheduling decisions — see [`JobQueues::backlogged_sorted`].
#[derive(Debug, Default, Clone)]
pub struct JobIdHasher(u64);

impl std::hash::Hasher for JobIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Fallback for non-u64 keys (FNV-1a); the job-id path below is the
        // one that matters.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        let x = (self.0 ^ v).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = x ^ (x >> 32);
    }
}

type JobIdBuildHasher = std::hash::BuildHasherDefault<JobIdHasher>;

/// Per-job FIFO queues used by every scheduler implementation in this
/// workspace: arbitration picks a *job*, then requests of that job are served
/// in arrival order (the paper's communicator groups requests "into queues
/// based on the fair sharing policy", §4.1).
///
/// Layout: a slot **arena** holds one per-job FIFO per known job, split into
/// parallel arrays by access temperature, and a hash `index` maps job id →
/// slot. Consumers that learn a job's slot from a draw hint (see
/// [`TokenSampler::draw_hinted`](crate::sampler::TokenSampler::draw_hinted))
/// can pop with [`Self::pop_noting_drained_hinted`] — one bounds check and
/// a job-id compare instead of a hash probe, which at 10⁵ tenants is the
/// difference between one dependent cache miss and three.
#[derive(Debug, Default, Clone)]
pub struct JobQueues {
    /// The oldest request of each slot's job, **inline in the arena** —
    /// `Option<IoRequest>` is exactly one cache line, so the depth-1 regime
    /// a saturated server cycles through (pop the front, tenant re-submits)
    /// is a single line access per op, with no dependent walk into a deque
    /// heap buffer. `None` means the slot is drained. A drained slot is
    /// *kept* (empty, still indexed) rather than freed, so the steady-state
    /// pop/re-enqueue cycle reuses its slot instead of paying a remove +
    /// reinsert per served request; drained slots are reclaimed in batch by
    /// [`Self::maybe_compact`]. Arena iteration order is
    /// arrival-determined, but ordered walks still go through
    /// [`Self::backlogged_sorted`] so no incidental order leaks into
    /// scheduling decisions.
    ///
    /// Invariant: `fronts[s].is_none()` implies `rest_lens[s] == 0`.
    fronts: Vec<Option<IoRequest>>,
    /// `rest_lens[s]` mirrors `rests[s].len()`. Kept apart from the cold
    /// deques (the whole array is ~L2-sized at 10⁵ tenants) so a pop can
    /// learn "no spill behind this front" — the overwhelmingly common case
    /// — without a dependent miss on a deque header it would then ignore.
    rest_lens: Vec<u32>,
    /// Requests behind each front, in arrival order. Cold: touched only
    /// when a job queues more than one request (spill) or drains one back
    /// out, never by the depth-1 steady state.
    rests: Vec<VecDeque<IoRequest>>,
    /// Job id → arena slot, with a cheap deterministic hasher
    /// ([`JobIdHasher`]). Consulted on unhinted operations and on hint
    /// misses; the draw→pop hot path skips it entirely.
    index: HashMap<JobId, u32, JobIdBuildHasher>,
    /// Freed slots available for reuse.
    free: Vec<u32>,
    /// Memo of the most recently resolved `(job, slot)` pair. A serve is
    /// almost always followed by a touch of the same job (the re-submit
    /// after a completion, the enqueue burst of one client), so this turns
    /// the *second* resolution into a register compare instead of a hash
    /// probe into a megabyte-scale table. Validity: the memo mirrors a live
    /// `index` entry, and index entries are only removed by
    /// [`Self::maybe_compact`], which clears the memo — so between
    /// compactions the memo can never name a freed or reassigned slot.
    hot: Option<(JobId, u32)>,
    /// Number of jobs with at least one queued request. A plain counter —
    /// the hot path pays one increment/decrement on an idle↔backlogged
    /// transition and nothing else.
    backlogged_count: usize,
    /// One bit per arena slot, set exactly while `fronts[s].is_some()`:
    /// the backlogged set as a dense bitmap (512 bytes at 4 096 slots), so
    /// a consumer that caches `(job, slot)` pairs can test membership
    /// without touching the cache-line-per-slot `fronts`. Flipped on the
    /// idle↔backlogged transitions in `push` and `pop_slot`, and nowhere
    /// else. See [`Self::holds_backlog`].
    backlog_bits: Vec<u64>,
    /// `owners[s]` is the job slot `s` was last assigned to. A slot keeps
    /// its owner while drained-but-retained; [`Self::maybe_compact`] may
    /// free it and `push` reassign it, so a cached `(job, slot)` pair is
    /// only current while the owner still matches.
    owners: Vec<JobId>,
    /// Slot assignments made since the consumer last drained the log
    /// ([`Self::track_slots`], [`Self::drain_slot_log`]), in order. Off
    /// (cap 0) for consumers that never ask, so the baselines pay nothing.
    slot_log: Vec<(JobId, u32)>,
    /// Length past which `slot_log` is dropped instead of grown.
    slot_log_cap: usize,
    /// Whether the log outgrew its cap since the last drain: the consumer
    /// must then re-resolve every slot it caches.
    slot_log_dropped: bool,
    /// Cached ascending `(job, slot)` snapshot of the backlogged jobs —
    /// the deterministic iteration surface over the arena (incidental
    /// iteration order must never leak into scheduling decisions).
    /// Invalidated on idle↔backlogged transitions, rebuilt (walk the
    /// arena, filter occupied, sort by job id) on demand by
    /// [`Self::backlogged_sorted`]; steady traffic over a stable backlog
    /// reuses it for free.
    sorted_backlog: Vec<(JobId, u32)>,
    /// Whether `sorted_backlog` reflects the current backlog.
    sorted_valid: bool,
    /// Min-heap over queue *fronts*, keyed `(arrival_ns, seq, job)`, with
    /// lazy invalidation: an entry is pushed whenever a request becomes the
    /// front of its job's queue, and entries whose request has since been
    /// popped are discarded when they surface. This turns
    /// [`JobQueues::pop_oldest`] from an `O(jobs)` min-scan into `O(log n)`
    /// amortised — each request enters the heap at most twice (once on
    /// arrival at an empty queue, once when its predecessor is popped).
    /// Stale entries that never surface are reclaimed in batch by
    /// [`Self::maybe_compact`], so the heap stays proportional to the live
    /// backlog instead of growing by one entry per served request forever.
    ///
    /// Maintained **on demand** (see `front_index_live`): fair-mode
    /// schedulers draw tokens and pop per job, so for them the heap would
    /// be pure overhead — one `O(log n)` push with a cold parent access on
    /// every served request, paying for a `pop_oldest` that never comes.
    front_index: BinaryHeap<Reverse<(u64, u64, JobId)>>,
    /// Whether `front_index` is being maintained incrementally. Starts
    /// `false`; the first [`Self::pop_oldest`] call rebuilds the index
    /// from the live fronts (`O(backlogged)`, once) and turns maintenance
    /// on, after which FIFO-order consumers pay the amortised `O(log n)`
    /// per op as before. Until then, `push`/`pop` skip the heap entirely.
    front_index_live: bool,
    total: usize,
}

impl JobQueues {
    /// Creates an empty queue set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a request to its job's queue. Returns `true` when the job
    /// was idle and this request became its queue front — the caller-side
    /// signal that the backlogged set grew, reported from the same map walk
    /// instead of costing the caller a second `len_for` probe.
    pub fn push(&mut self, request: IoRequest) -> bool {
        let job = request.meta.job;
        let slot_idx = match self.hot {
            Some((hot_job, s)) if hot_job == job => s,
            _ => match self.index.get(&job) {
                Some(&s) => s,
                None => self.assign_slot(job),
            },
        };
        self.hot = Some((job, slot_idx));
        let i = slot_idx as usize;
        let becomes_front = if self.fronts[i].is_none() {
            debug_assert_eq!(self.rest_lens[i], 0);
            self.fronts[i] = Some(request);
            true
        } else {
            self.rests[i].push_back(request);
            self.rest_lens[i] += 1;
            false
        };
        if becomes_front {
            self.backlog_bits[i / 64] |= 1 << (i % 64);
            self.backlogged_count += 1;
            self.sorted_valid = false;
            if self.front_index_live {
                self.front_index
                    .push(Reverse((request.arrival_ns, request.seq, job)));
            }
            self.maybe_compact();
        }
        self.total += 1;
        becomes_front
    }

    /// Gives `job` an arena slot — a freed one if any, else a new one — and
    /// logs the assignment. Kept out of line: it runs once per job (again
    /// only after compaction freed the job's slot), never on the steady
    /// pop/re-enqueue cycle `push` is tuned for.
    #[cold]
    #[inline(never)]
    fn assign_slot(&mut self, job: JobId) -> u32 {
        let s = match self.free.pop() {
            Some(s) => {
                self.owners[s as usize] = job;
                s
            }
            None => {
                self.fronts.push(None);
                self.rest_lens.push(0);
                self.rests.push(VecDeque::new());
                self.owners.push(job);
                if self.fronts.len() > self.backlog_bits.len() * 64 {
                    self.backlog_bits.push(0);
                }
                (self.fronts.len() - 1) as u32
            }
        };
        debug_assert!(self.fronts[s as usize].is_none());
        debug_assert_eq!(self.rest_lens[s as usize], 0);
        self.index.insert(job, s);
        self.log_slot(job, s);
        s
    }

    /// Reclaims lazy-deletion garbage — stale `front_index` entries and
    /// drained-but-retained slots — once it outnumbers the live backlog
    /// 2:1. Rebuilding from the live fronts is `O(occupied slots)`, and at
    /// least `backlogged` pushes must happen between two compactions, so
    /// the cost is amortised `O(1)` per operation; without it, a FIFO-mode
    /// consumer that pops mostly per job would leak one heap entry per
    /// served request, and any consumer would retain one empty slot per
    /// job that drained and never refilled, for the life of the process.
    fn maybe_compact(&mut self) {
        let heap_garbage = self.front_index_live
            && self.front_index.len() > 64
            && self.front_index.len() > 2 * self.backlogged_count;
        let occupied = self.fronts.len() - self.free.len();
        let slot_garbage = occupied > 64 && occupied > 2 * self.backlogged_count;
        if !(heap_garbage || slot_garbage) {
            return;
        }
        if slot_garbage {
            let fronts = &self.fronts;
            let free = &mut self.free;
            self.index.retain(|_, &mut s| {
                if fronts[s as usize].is_some() {
                    true
                } else {
                    free.push(s);
                    false
                }
            });
            // Freed slots may now be reassigned; the memo must not outlive
            // the index entries it mirrors.
            self.hot = None;
        }
        if self.front_index_live {
            self.rebuild_front_index();
        }
    }

    /// Rebuilds `front_index` from the live queue fronts. Heap
    /// construction order doesn't matter: keys are unique (the job id is
    /// part of the key), so the pop sequence is fully determined by the
    /// ordering, not the layout — incidental arena order can't leak
    /// through.
    fn rebuild_front_index(&mut self) {
        self.front_index.clear();
        let fronts = &self.fronts;
        self.front_index.extend(
            fronts
                .iter()
                .filter_map(|front| front.as_ref())
                .map(|r| Reverse((r.arrival_ns, r.seq, r.meta.job))),
        );
    }

    /// Pops the oldest request of `job`.
    pub fn pop(&mut self, job: JobId) -> Option<IoRequest> {
        self.pop_noting_drained(job).map(|(req, _)| req)
    }

    /// Pops the oldest request of `job`, also reporting whether the pop
    /// drained the job's queue (`true` = nothing left) — the signal the
    /// fair scheduler needs to mark its opportunity sampler dirty, reported
    /// from the same map walk instead of costing a second `len_for` probe
    /// on the hottest path.
    pub fn pop_noting_drained(&mut self, job: JobId) -> Option<(IoRequest, bool)> {
        let slot_idx = match self.hot {
            Some((hot_job, s)) if hot_job == job => s,
            _ => *self.index.get(&job)?,
        };
        self.pop_slot(slot_idx)
    }

    /// [`Self::pop_noting_drained`] with a location hint (e.g. from
    /// [`TokenSampler::draw_hinted`](crate::sampler::TokenSampler::draw_hinted)).
    /// A valid hint — in bounds, owned by `job`, non-empty — pops straight
    /// from the arena without touching the hash index; anything else
    /// (including [`NO_HINT`], a slot that was freed and reassigned, or a
    /// job that moved slots since the hint was minted) falls back to the
    /// full id lookup, so a stale hint can never change the outcome — only
    /// its cost.
    pub fn pop_noting_drained_hinted(
        &mut self,
        job: JobId,
        hint: u32,
    ) -> Option<(IoRequest, bool)> {
        // A front holding a request of `job` proves the hint names `job`'s
        // one live slot: every push resolves through the index (or its
        // memo), so a job's requests can never sit in a slot the index
        // doesn't map it to.
        match self.fronts.get(hint as usize) {
            Some(Some(front)) if front.meta.job == job => self.pop_slot(hint),
            _ => self.pop_noting_drained(job),
        }
    }

    /// Pops from a validated arena slot, maintaining the counters and (when
    /// live) the FIFO front index.
    fn pop_slot(&mut self, slot_idx: u32) -> Option<(IoRequest, bool)> {
        let i = slot_idx as usize;
        let req = self.fronts[i].take()?;
        // The spill-length mirror keeps the common "nothing behind the
        // front" case off the cold deque array entirely.
        let successor = if self.rest_lens[i] > 0 {
            self.rest_lens[i] -= 1;
            self.rests[i].pop_front()
        } else {
            None
        };
        self.fronts[i] = successor;
        self.hot = Some((req.meta.job, slot_idx));
        self.total -= 1;
        let drained = match successor {
            // The successor is the job's new front; index it (when the
            // index is live). The popped request's own index entry (if
            // still present) goes stale and is discarded lazily by
            // `pop_oldest` or `maybe_compact`.
            Some(next) => {
                if self.front_index_live {
                    self.front_index
                        .push(Reverse((next.arrival_ns, next.seq, req.meta.job)));
                }
                false
            }
            // The drained slot is retained for reuse (see the `fronts`
            // field doc) and reclaimed in batch by `maybe_compact`.
            None => {
                self.backlog_bits[i / 64] &= !(1 << (i % 64));
                self.backlogged_count -= 1;
                self.sorted_valid = false;
                true
            }
        };
        Some((req, drained))
    }

    /// Whether arena slot `slot` currently holds queued work of `job`: its
    /// backlog bit is set and `job` still owns it. One bit test and one
    /// compare, no hash probe; an out-of-range slot (e.g.
    /// [`NO_HINT`]) is never backlogged.
    fn holds_backlog(&self, slot: u32, job: JobId) -> bool {
        let i = slot as usize;
        self.backlog_bits
            .get(i / 64)
            .is_some_and(|word| word >> (i % 64) & 1 != 0)
            && self.owners[i] == job
    }

    /// Starts a fresh slot-assignment log for a consumer that caches the
    /// slots of `cap` jobs. Past `cap` entries replaying the log would cost
    /// more than re-resolving every cached slot, so the log is dropped
    /// instead (see [`Self::drain_slot_log`]).
    fn track_slots(&mut self, cap: usize) {
        self.slot_log.clear();
        self.slot_log_cap = cap;
        self.slot_log_dropped = false;
    }

    fn log_slot(&mut self, job: JobId, slot: u32) {
        if self.slot_log_dropped || self.slot_log_cap == 0 {
            return;
        }
        if self.slot_log.len() < self.slot_log_cap {
            self.slot_log.push((job, slot));
        } else {
            self.slot_log.clear();
            self.slot_log_dropped = true;
        }
    }

    /// Hands every `(job, slot)` assignment logged since the last drain to
    /// `apply`, oldest first, and empties the log. Returns `false`, having
    /// applied nothing, when the log was dropped for outgrowing its cap:
    /// the caller must then re-resolve its cached slots through
    /// [`Self::slot_of`].
    fn drain_slot_log(&mut self, mut apply: impl FnMut(JobId, u32)) -> bool {
        let complete = !std::mem::take(&mut self.slot_log_dropped);
        for (job, slot) in self.slot_log.drain(..) {
            apply(job, slot);
        }
        complete
    }

    /// The arena slot currently holding `job`'s queue, if any — the
    /// location-hint source for
    /// [`TokenSampler::from_shares_hinted`](crate::sampler::TokenSampler::from_shares_hinted).
    pub fn slot_of(&self, job: JobId) -> Option<u32> {
        self.index.get(&job).copied()
    }

    /// Pops the globally oldest request (FIFO across all jobs).
    ///
    /// Ties on `(arrival_ns, seq)` break toward the lowest job id, matching
    /// the historical first-minimal scan over the ordered queue map.
    pub fn pop_oldest(&mut self) -> Option<IoRequest> {
        self.pop_oldest_noting_drained().map(|(req, _)| req)
    }

    /// [`Self::pop_oldest`], also reporting whether the pop drained the
    /// served job's queue (see [`Self::pop_noting_drained`]).
    fn pop_oldest_noting_drained(&mut self) -> Option<(IoRequest, bool)> {
        if !self.front_index_live {
            // First FIFO-order pop on this queue set: build the index from
            // the live fronts and keep it maintained from here on. Fair
            // callers never reach this, so their hot path never pays for
            // the heap.
            self.rebuild_front_index();
            self.front_index_live = true;
        }
        while let Some(Reverse((arrival, seq, job))) = self.front_index.pop() {
            let is_live = self
                .front(job)
                .is_some_and(|r| r.arrival_ns == arrival && r.seq == seq);
            if is_live {
                // Every live front is indexed, so the minimal live entry is
                // the globally oldest request.
                return self.pop_noting_drained(job);
            }
            // Stale: the indexed request was already popped via `pop`.
        }
        None
    }

    /// Total queued requests.
    pub fn len(&self) -> usize {
        self.total
    }

    /// Whether no request is queued.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Queue depth of one job.
    pub fn len_for(&self, job: JobId) -> usize {
        self.index.get(&job).map_or(0, |&s| {
            usize::from(self.fronts[s as usize].is_some()) + self.rest_lens[s as usize] as usize
        })
    }

    /// Jobs with at least one queued request, in id order.
    ///
    /// Allocates and sorts; hot paths should prefer
    /// [`JobQueues::backlogged_sorted`] (cached) or
    /// [`JobQueues::backlogged_unordered`] (no order guarantee).
    pub fn backlogged(&self) -> Vec<JobId> {
        let mut jobs: Vec<JobId> = self.backlogged_unordered().collect();
        jobs.sort_unstable();
        jobs
    }

    /// The jobs with at least one queued request as ascending
    /// `(job, slot)` pairs, as a cached slice: membership changes
    /// invalidate the cache and the next call re-sorts
    /// (`O(backlogged log backlogged)`), but steady traffic over a stable
    /// backlog — the common case between sampler rebuilds — returns the
    /// previous snapshot for free. This is the iteration surface
    /// order-sensitive consumers (tie-breaking argmax scans such as GIFT's)
    /// must use; see [`Self::backlogged_unordered`] for order-insensitive
    /// folds. The slot rides along so a consumer can reach each job's queue
    /// without a hash probe. [`ThemisScheduler`]'s opportunity-fairness
    /// rebuild does not come here: it walks its share list in job order and
    /// tests each cached slot's backlog bit, which needs no sort.
    pub fn backlogged_sorted(&mut self) -> &[(JobId, u32)] {
        if !self.sorted_valid {
            self.sorted_backlog.clear();
            let fronts = &self.fronts;
            self.sorted_backlog.extend(
                fronts
                    .iter()
                    .enumerate()
                    .filter_map(|(i, front)| front.as_ref().map(|r| (r.meta.job, i as u32))),
            );
            // Job ids are unique across occupied slots, so this orders by
            // job id alone.
            self.sorted_backlog.sort_unstable();
            self.sorted_valid = true;
        }
        &self.sorted_backlog
    }

    /// Iterates over jobs with at least one queued request in
    /// **unspecified order** (the arena's), without allocating or sorting.
    /// Only for order-insensitive consumers: building a set, or folds
    /// whose result is independent of visit order (a min over values, an
    /// extend into an ordered collection). Anything that breaks ties by
    /// position must use [`Self::backlogged_sorted`] instead, or
    /// incidental arrival-layout order leaks into scheduling decisions.
    pub fn backlogged_unordered(&self) -> impl Iterator<Item = JobId> + '_ {
        self.fronts
            .iter()
            .filter_map(|front| front.as_ref().map(|r| r.meta.job))
    }

    /// Peek at the oldest request of one job.
    pub fn front(&self, job: JobId) -> Option<&IoRequest> {
        self.index
            .get(&job)
            .and_then(|&s| self.fronts[s as usize].as_ref())
    }

    /// Sum of queued bytes per job (used by GIFT's progress estimation).
    pub fn queued_bytes(&self, job: JobId) -> u64 {
        self.index.get(&job).map_or(0, |&s| {
            self.fronts[s as usize].map_or(0, |r| r.bytes)
                + self.rests[s as usize].iter().map(|r| r.bytes).sum::<u64>()
        })
    }

    /// Iterates over all queued requests, grouped by job in ascending id
    /// order (sorted on the fly, so the arena's incidental order never
    /// shows through). Allocates the job list; diagnostic use, not a hot
    /// path.
    pub fn iter(&self) -> impl Iterator<Item = &IoRequest> {
        self.backlogged()
            .into_iter()
            .filter_map(|job| self.index.get(&job))
            .flat_map(|&s| {
                self.fronts[s as usize]
                    .iter()
                    .chain(self.rests[s as usize].iter())
            })
    }
}

/// The ThemisIO scheduler: statistical token time-slicing with opportunity
/// fairness (§3).
///
/// * [`refresh`](Scheduler::refresh) recomputes the per-job share map from the
///   policy's transition-matrix chain and rebuilds the `[0,1]` segment table.
/// * [`next`](Scheduler::next) draws one uniform number per service slot. If
///   the drawn job has queued work its oldest request is served; otherwise the
///   draw is retried against a sampler restricted to backlogged jobs
///   (renormalised shares), which is exactly the opportunity-fairness rule:
///   idle segments are redistributed so the device never idles while any job
///   has work. The restricted sampler is rebuilt only when the backlogged
///   set changed since the last rebuild, in one pass over the share list
///   (see `rebuild_active_sampler`).
/// * Jobs that appear in the traffic before the next refresh (unknown to the
///   share map) are still served — they fall back to a FIFO pick — so no
///   request can be starved by bootstrap races.
#[derive(Debug)]
pub struct ThemisScheduler {
    queues: JobQueues,
    shares: ShareMap,
    /// `shares` as a flat list in ascending job order, each entry with the
    /// arena slot the job's queue last held ([`NO_HINT`] if none). Rebuilt
    /// by `refresh`; slots assigned later reach it through the queues' slot
    /// log.
    share_entries: Vec<ShareEntry>,
    sampler: TokenSampler,
    /// Sampler restricted to backlogged jobs; rebuilt lazily.
    active_sampler: TokenSampler,
    /// Whether the backlogged set (or the share list) changed since
    /// `active_sampler` was built.
    active_dirty: bool,
    policy: Policy,
    /// `(job-table revision, policy)` of the last share recomputation.
    /// [`Scheduler::refresh`] is a no-op while both are unchanged, so
    /// heartbeat-driven refresh storms cost one revision compare instead of
    /// a full `compute_shares` + sampler rebuild per call.
    last_refresh: Option<(u64, Policy)>,
}

/// One job of [`ThemisScheduler`]'s share list.
#[derive(Debug, Clone, Copy)]
struct ShareEntry {
    job: JobId,
    weight: f64,
    /// The job's arena slot as last seen; trusted only while
    /// [`JobQueues::holds_backlog`] confirms it.
    slot: u32,
}

impl ThemisScheduler {
    /// Creates a scheduler with the given policy and no known jobs yet.
    pub fn new(policy: Policy) -> Self {
        ThemisScheduler {
            queues: JobQueues::new(),
            shares: ShareMap::empty(),
            share_entries: Vec::new(),
            sampler: TokenSampler::default(),
            active_sampler: TokenSampler::default(),
            active_dirty: true,
            policy,
            last_refresh: None,
        }
    }

    /// The policy currently in force.
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// Replaces the sharing policy; shares are recomputed on the next
    /// [`refresh`](Scheduler::refresh).
    pub fn set_policy(&mut self, policy: Policy) {
        self.policy = policy;
        self.last_refresh = None;
    }

    /// Rebuilds the opportunity-fairness sampler over the currently
    /// backlogged jobs, in place.
    ///
    /// One pass over the share list, already in ascending job order: an
    /// entry is kept when its cached slot's backlog bit is set and the job
    /// still owns that slot ([`JobQueues::holds_backlog`]). No sort, no
    /// share-map probe, no allocation. First the slots assigned since the
    /// last pass are folded into the cache (a binary search each), or, if
    /// that log was dropped for outgrowing the share list, every cached
    /// slot is re-resolved.
    ///
    /// The table is bit-identical to `restricted_to` + `from_shares` over
    /// the backlogged set: backlogged jobs without a share are absent from
    /// both, entries arrive in the same order with the same weights, and
    /// each hint is the job's current slot. RNG draw sequences are
    /// therefore unchanged.
    fn rebuild_active_sampler(&mut self) {
        let entries = &mut self.share_entries;
        let complete = self.queues.drain_slot_log(|job, slot| {
            if let Ok(i) = entries.binary_search_by_key(&job, |e| e.job) {
                entries[i].slot = slot;
            }
        });
        let queues = &self.queues;
        if !complete {
            for e in entries.iter_mut() {
                e.slot = queues.slot_of(e.job).unwrap_or(NO_HINT);
            }
        }
        self.active_sampler.rebuild_normalized_hinted(
            entries
                .iter()
                .filter(|e| queues.holds_backlog(e.slot, e.job))
                .map(|e| (e.job, e.slot, e.weight)),
        );
        self.active_dirty = false;
    }

    /// Marks the restricted sampler stale when a pop drained its job.
    fn note_pop(&mut self, (req, drained): (IoRequest, bool)) -> IoRequest {
        if drained {
            self.active_dirty = true;
        }
        req
    }
}

impl Scheduler for ThemisScheduler {
    fn name(&self) -> &'static str {
        "themis"
    }

    fn enqueue(&mut self, request: IoRequest) {
        if self.queues.push(request) {
            self.active_dirty = true;
        }
    }

    fn next(&mut self, _now_ns: u64, rng: &mut dyn RngCore) -> Option<IoRequest> {
        if self.queues.is_empty() {
            return None;
        }
        // A live swap to `fifo` keeps the engine (and its queues) in place
        // but switches arbitration to strict arrival order.
        if !self.policy.is_fair() {
            return self
                .queues
                .pop_oldest_noting_drained()
                .map(|p| self.note_pop(p));
        }
        // Fast path: draw over the full assignment; serve if the drawn job
        // has work. The draw carries the job's arena-slot hint, so the pop
        // is a direct slot access — no hash probe — and
        // `pop_noting_drained` folds the has-work probe, the pop and the
        // did-it-drain check into that same walk.
        if let Some((job, hint)) = self.sampler.draw_hinted(rng) {
            if let Some(popped) = self.queues.pop_noting_drained_hinted(job, hint) {
                return Some(self.note_pop(popped));
            }
        }
        // Opportunity fairness: redistribute idle segments over backlogged
        // jobs and draw again.
        if self.active_dirty {
            self.rebuild_active_sampler();
        }
        if let Some((job, hint)) = self.active_sampler.draw_hinted(rng) {
            if let Some(popped) = self.queues.pop_noting_drained_hinted(job, hint) {
                return Some(self.note_pop(popped));
            }
        }
        // Backlogged jobs that have no share yet (seen before the first
        // refresh): serve them FIFO so nothing is starved.
        self.queues
            .pop_oldest_noting_drained()
            .map(|p| self.note_pop(p))
    }

    fn on_complete(&mut self, _completion: &Completion) {
        // Statistical tokens are recycled implicitly: each service slot draws
        // a fresh token, so nothing to do here.
    }

    fn honors_policy(&self) -> bool {
        true
    }

    fn refresh(&mut self, table: &JobTable, policy: &Policy) {
        // Refresh is driven from every heartbeat/expiry/merge site, but the
        // share assignment only depends on the table contents and the policy.
        // The table's revision counter is bumped exactly when a
        // share-relevant field changes (and revisions are globally unique,
        // so equal revision implies identical contents even across clones);
        // when neither input moved, recomputation would reproduce the
        // current state bit-for-bit — skip it.
        if self
            .last_refresh
            .as_ref()
            .is_some_and(|(rev, p)| *rev == table.revision() && p == policy)
        {
            return;
        }
        self.policy = policy.clone();
        let jobs: Vec<JobMeta> = table.active_jobs();
        let global = compute_shares(&self.policy, &jobs);
        // Scale each job's globally fair share by the number of servers it
        // spreads its I/O over, so that multi-server deployments converge on
        // global (not merely per-server) fairness after a λ-sync (§3.1).
        self.shares = localize_shares(&global, table);
        // Jobs already queued get their arena slot as a draw hint, so the
        // fast path pops without a hash probe; jobs seen here before any
        // traffic fall back to the id lookup on their first draws (hints
        // are re-minted on the next refresh). The share list caches the
        // same slots, and the queues log every slot assigned from here on.
        let queues = &self.queues;
        self.share_entries.clear();
        self.share_entries
            .extend(self.shares.iter().map(|(job, weight)| ShareEntry {
                job,
                weight,
                slot: queues.slot_of(job).unwrap_or(NO_HINT),
            }));
        let mut cached = self.share_entries.iter();
        self.sampler = TokenSampler::from_shares_hinted(&self.shares, |job| {
            // Consulted in ascending job order, a subsequence of the list.
            cached.find(|e| e.job == job).map_or(NO_HINT, |e| e.slot)
        });
        self.queues.track_slots(self.share_entries.len());
        self.active_dirty = true;
        self.last_refresh = Some((table.revision(), policy.clone()));
    }

    fn queued(&self) -> usize {
        self.queues.len()
    }

    fn queued_for(&self, job: JobId) -> usize {
        self.queues.len_for(job)
    }

    fn backlogged_jobs(&self) -> Vec<JobId> {
        self.queues.backlogged()
    }

    fn shares(&self) -> ShareMap {
        self.shares.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::JobMeta;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    fn meta(job: u64, user: u32, nodes: u32) -> JobMeta {
        JobMeta::new(job, user, 1u32, nodes)
    }

    fn table_with(jobs: &[JobMeta]) -> JobTable {
        let mut t = JobTable::new();
        for m in jobs {
            t.heartbeat(*m, 0);
        }
        t
    }

    #[test]
    fn job_queues_reclaim_lazy_deletion_garbage_under_churn() {
        // Once a FIFO-order consumer has touched `pop_oldest`, targeted
        // pops strand one stale heap entry per drain-and-refill cycle (the
        // heap is maintained but never popped), and every consumer strands
        // one empty retained FIFO per drained job. The amortised compaction
        // must keep both proportional to the live backlog across 100k
        // served requests.
        let mut q = JobQueues::new();
        q.push(IoRequest::write(u64::MAX, meta(65, 1, 1), 10, 0));
        assert_eq!(q.pop_oldest().map(|r| r.seq), Some(u64::MAX));
        for i in 0..100_000u64 {
            let m = meta(i % 64 + 1, 1, 1);
            q.push(IoRequest::write(i, m, 10, i));
            assert_eq!(q.pop(JobId(i % 64 + 1)).map(|r| r.seq), Some(i));
        }
        assert!(q.is_empty());
        assert!(
            q.front_index.len() <= 192,
            "front index leaked: {} stale entries survive compaction",
            q.front_index.len()
        );
        let occupied = q.fronts.len() - q.free.len();
        assert!(
            occupied <= 192,
            "retained drained slots leaked: {occupied} survive compaction"
        );
    }

    #[test]
    fn job_queues_backlog_bits_and_slot_log_follow_compaction() {
        // Drain-and-refill churn over 200 jobs (one push to four pops)
        // compacts the arena and hands freed slots to other jobs. After every step, each slot's backlog
        // bit must say whether it holds a front, `holds_backlog` must name
        // exactly the job whose request sits there, and replaying the slot
        // log over the refresh-time slots must reproduce the index.
        let mut q = JobQueues::new();
        let mut cached: HashMap<JobId, u32> = HashMap::new();
        let mut reassigned = 0u64;
        q.track_slots(usize::MAX);
        let mut rng = SmallRng::seed_from_u64(5);
        for step in 0..20_000u64 {
            let job = JobId(rand::Rng::gen_range(&mut rng, 1u64..200));
            if rand::Rng::gen_bool(&mut rng, 0.2) {
                q.push(IoRequest::write(step, meta(job.0, 1, 1), 10, step));
            } else {
                q.pop(job);
            }
            for (s, front) in q.fronts.iter().enumerate() {
                let bit = q.backlog_bits[s / 64] >> (s % 64) & 1 != 0;
                assert_eq!(bit, front.is_some(), "step {step} slot {s}");
                if let Some(r) = front {
                    assert!(q.holds_backlog(s as u32, r.meta.job), "step {step}");
                    assert!(!q.holds_backlog(s as u32, JobId(0)), "step {step}");
                }
            }
            assert!(!q.holds_backlog(NO_HINT, job));
            assert!(q.drain_slot_log(|job, slot| {
                reassigned += u64::from(cached.insert(job, slot).is_some());
            }));
            for (&job, &slot) in &q.index {
                assert_eq!(cached.get(&job), Some(&slot), "step {step}");
            }
        }
        assert!(reassigned > 100, "the churn never compacted the arena");
        // A log that outgrows its cap is dropped, and the drain says so.
        q.track_slots(2);
        for j in 1_000..1_003u64 {
            q.push(IoRequest::write(j, meta(j, 1, 1), 10, 0));
        }
        assert!(!q.drain_slot_log(|_, _| panic!("a dropped log replays nothing")));
        assert!(q.drain_slot_log(|_, _| panic!("the drain emptied the log")));
    }

    #[test]
    fn job_queues_fair_mode_never_builds_the_front_index() {
        // Fair-mode service is draw + targeted pop; the FIFO front index
        // must stay empty (and cost nothing) until someone actually asks
        // for global arrival order — and the first such ask must see the
        // exact live fronts despite arriving mid-stream.
        let mut q = JobQueues::new();
        for i in 0..1_000u64 {
            q.push(IoRequest::write(i, meta(i % 16 + 1, 1, 1), 10, i));
        }
        for i in 0..500u64 {
            assert!(q.pop(JobId(i % 16 + 1)).is_some());
        }
        assert_eq!(
            q.front_index.len(),
            0,
            "heap maintained without a FIFO consumer"
        );
        let oldest = q.pop_oldest().expect("500 requests still queued");
        let expected = q2_oldest_reference(&mut q, oldest);
        assert_eq!(oldest.arrival_ns, expected);
    }

    /// The churn-free reference for the test above: after popping `oldest`,
    /// every remaining front must be strictly younger (by the heap key), so
    /// returning the popped arrival validates it was the global minimum.
    fn q2_oldest_reference(q: &mut JobQueues, oldest: IoRequest) -> u64 {
        let min_remaining = q
            .backlogged_unordered()
            .collect::<Vec<_>>()
            .into_iter()
            .filter_map(|job| q.front(job).map(|r| (r.arrival_ns, r.seq)))
            .min();
        if let Some((arrival, seq)) = min_remaining {
            assert!(
                (oldest.arrival_ns, oldest.seq) < (arrival, seq),
                "pop_oldest returned a non-minimal request"
            );
        }
        oldest.arrival_ns
    }

    #[test]
    fn job_queues_fifo_within_job() {
        let mut q = JobQueues::new();
        let m = meta(1, 1, 1);
        q.push(IoRequest::write(0, m, 10, 100));
        q.push(IoRequest::write(1, m, 10, 200));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(JobId(1)).unwrap().seq, 0);
        assert_eq!(q.pop(JobId(1)).unwrap().seq, 1);
        assert!(q.pop(JobId(1)).is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn job_queues_pop_oldest_across_jobs() {
        let mut q = JobQueues::new();
        q.push(IoRequest::write(0, meta(2, 1, 1), 10, 300));
        q.push(IoRequest::write(1, meta(1, 1, 1), 10, 100));
        q.push(IoRequest::write(2, meta(3, 1, 1), 10, 200));
        assert_eq!(q.pop_oldest().unwrap().meta.job, JobId(1));
        assert_eq!(q.pop_oldest().unwrap().meta.job, JobId(3));
        assert_eq!(q.pop_oldest().unwrap().meta.job, JobId(2));
    }

    #[test]
    fn job_queues_bytes_and_backlog() {
        let mut q = JobQueues::new();
        q.push(IoRequest::write(0, meta(1, 1, 1), 10, 0));
        q.push(IoRequest::write(1, meta(1, 1, 1), 30, 0));
        q.push(IoRequest::read(2, meta(2, 1, 1), 5, 0));
        assert_eq!(q.queued_bytes(JobId(1)), 40);
        assert_eq!(q.queued_bytes(JobId(2)), 5);
        assert_eq!(q.backlogged(), vec![JobId(1), JobId(2)]);
        assert_eq!(q.iter().count(), 3);
    }

    #[test]
    fn themis_serves_in_share_proportion_when_saturated() {
        // Two jobs, size-fair 4:1; both have deep backlogs. Service counts
        // should approach 80/20.
        let jobs = [meta(1, 1, 4), meta(2, 2, 1)];
        let mut sched = ThemisScheduler::new(Policy::size_fair());
        sched.refresh(&table_with(&jobs), &Policy::size_fair());
        let mut seq = 0;
        for _ in 0..5_000 {
            for m in &jobs {
                sched.enqueue(IoRequest::write(seq, *m, 1 << 20, 0));
                seq += 1;
            }
        }
        let mut rng = SmallRng::seed_from_u64(7);
        let mut served: HashMap<JobId, u64> = HashMap::new();
        for _ in 0..5_000 {
            let req = sched.next(0, &mut rng).expect("backlogged");
            *served.entry(req.meta.job).or_insert(0) += 1;
        }
        let f1 = served[&JobId(1)] as f64 / 5_000.0;
        assert!((f1 - 0.8).abs() < 0.03, "job1 service fraction {f1}");
    }

    #[test]
    fn themis_opportunity_fairness_gives_idle_share_away() {
        // Job 1 holds an 80% share but has no queued work; job 2 must receive
        // every service slot (full utilisation, §1).
        let jobs = [meta(1, 1, 4), meta(2, 2, 1)];
        let mut sched = ThemisScheduler::new(Policy::size_fair());
        sched.refresh(&table_with(&jobs), &Policy::size_fair());
        for s in 0..100 {
            sched.enqueue(IoRequest::write(s, jobs[1], 1 << 20, 0));
        }
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..100 {
            let req = sched.next(0, &mut rng).expect("job 2 has work");
            assert_eq!(req.meta.job, JobId(2));
        }
        assert_eq!(sched.next(0, &mut rng), None);
    }

    #[test]
    fn themis_serves_unknown_jobs_before_first_refresh() {
        let mut sched = ThemisScheduler::new(Policy::job_fair());
        sched.enqueue(IoRequest::write(0, meta(42, 9, 2), 4096, 5));
        let mut rng = SmallRng::seed_from_u64(1);
        let req = sched.next(0, &mut rng).expect("unknown job still served");
        assert_eq!(req.meta.job, JobId(42));
    }

    #[test]
    fn themis_refresh_tracks_policy_change() {
        let jobs = [meta(1, 1, 4), meta(2, 2, 1)];
        let table = table_with(&jobs);
        let mut sched = ThemisScheduler::new(Policy::size_fair());
        sched.refresh(&table, &Policy::size_fair());
        assert!((sched.shares().share(JobId(1)) - 0.8).abs() < 1e-9);
        sched.refresh(&table, &Policy::job_fair());
        assert!((sched.shares().share(JobId(1)) - 0.5).abs() < 1e-9);
        assert_eq!(sched.policy(), &Policy::job_fair());
    }

    #[test]
    fn job_queues_pop_oldest_interleaved_with_targeted_pops() {
        // Targeted pops leave stale heap entries behind; pop_oldest must
        // discard them and still return strict global FIFO order.
        let mut q = JobQueues::new();
        q.push(IoRequest::write(0, meta(1, 1, 1), 10, 100));
        q.push(IoRequest::write(1, meta(1, 1, 1), 10, 150));
        q.push(IoRequest::write(2, meta(2, 1, 1), 10, 120));
        q.push(IoRequest::write(3, meta(3, 1, 1), 10, 110));
        // Pop job 1's front directly: its heap entry (arrival 100) is stale.
        assert_eq!(q.pop(JobId(1)).unwrap().arrival_ns, 100);
        assert_eq!(q.pop_oldest().unwrap().arrival_ns, 110);
        assert_eq!(q.pop_oldest().unwrap().arrival_ns, 120);
        assert_eq!(q.pop_oldest().unwrap().arrival_ns, 150);
        assert!(q.pop_oldest().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn job_queues_pop_oldest_breaks_ties_by_job_id() {
        let mut q = JobQueues::new();
        q.push(IoRequest::write(5, meta(9, 1, 1), 10, 100));
        q.push(IoRequest::write(5, meta(2, 1, 1), 10, 100));
        // Same (arrival_ns, seq): the lower job id wins, like the old
        // first-minimal scan over the ordered map.
        assert_eq!(q.pop_oldest().unwrap().meta.job, JobId(2));
        assert_eq!(q.pop_oldest().unwrap().meta.job, JobId(9));
    }

    #[test]
    fn themis_refresh_skips_recompute_for_unchanged_inputs() {
        let jobs = [meta(1, 1, 4), meta(2, 2, 1)];
        let mut table = table_with(&jobs);
        let mut sched = ThemisScheduler::new(Policy::size_fair());
        sched.refresh(&table, &Policy::size_fair());
        let rev = table.revision();
        // Heartbeat-only traffic (no metadata change) keeps the revision, so
        // the refresh storm is absorbed by the cache.
        table.heartbeat(meta(1, 1, 4), 99);
        assert_eq!(table.revision(), rev);
        sched.refresh(&table, &Policy::size_fair());
        assert!((sched.shares().share(JobId(1)) - 0.8).abs() < 1e-9);
        // A new job bumps the revision and forces a recompute.
        table.heartbeat(meta(3, 3, 5), 100);
        assert_ne!(table.revision(), rev);
        sched.refresh(&table, &Policy::size_fair());
        assert!(sched.shares().share(JobId(3)) > 0.0);
        // A policy change alone also recomputes, table untouched.
        sched.refresh(&table, &Policy::job_fair());
        assert!((sched.shares().share(JobId(1)) - 1.0 / 3.0).abs() < 1e-9);
        // set_policy invalidates the cache even for the same policy value.
        sched.set_policy(Policy::job_fair());
        sched.refresh(&table, &Policy::job_fair());
        assert_eq!(sched.policy(), &Policy::job_fair());
    }

    #[test]
    fn themis_queue_accounting() {
        let mut sched = ThemisScheduler::new(Policy::job_fair());
        sched.enqueue(IoRequest::write(0, meta(1, 1, 1), 10, 0));
        sched.enqueue(IoRequest::write(1, meta(2, 1, 1), 10, 0));
        sched.enqueue(IoRequest::write(2, meta(2, 1, 1), 10, 0));
        assert_eq!(sched.queued(), 3);
        assert_eq!(sched.queued_for(JobId(2)), 2);
        assert_eq!(sched.backlogged_jobs(), vec![JobId(1), JobId(2)]);
    }
}
