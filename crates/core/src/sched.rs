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
use rand::{Rng, RngCore};
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
/// can pop with [`Self::pop_hinted`] — one bounds check and
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
    /// a consumer that mirrors the backlog can find what changed since it
    /// last looked by comparing words, without touching the
    /// cache-line-per-slot `fronts`. Flipped on the idle↔backlogged
    /// transitions in `push` and `pop_slot`, and nowhere else.
    backlog_bits: Vec<u64>,
    /// One bit per arena slot, set when `assign_slot` hands the slot to a
    /// job and cleared only by the consumer that mirrors `backlog_bits`
    /// ([`ThemisScheduler`]'s reconcile). A slot whose backlog bit looks
    /// unchanged may still have changed hands: its job drained, compaction
    /// freed it and another job queued there. This bit says so.
    assigned: Vec<u64>,
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

    /// Appends a request to its job's queue.
    pub fn push(&mut self, request: IoRequest) {
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
        if self.fronts[i].is_none() {
            debug_assert_eq!(self.rest_lens[i], 0);
            self.fronts[i] = Some(request);
            self.backlog_bits[i / 64] |= 1 << (i % 64);
            self.backlogged_count += 1;
            self.sorted_valid = false;
            if self.front_index_live {
                self.front_index
                    .push(Reverse((request.arrival_ns, request.seq, job)));
            }
            self.maybe_compact();
        } else {
            self.rests[i].push_back(request);
            self.rest_lens[i] += 1;
        }
        self.total += 1;
    }

    /// Gives `job` an arena slot — a freed one if any, else a new one — and
    /// marks it in `assigned`. Kept out of line: it runs once per job (again
    /// only after compaction freed the job's slot), never on the steady
    /// pop/re-enqueue cycle `push` is tuned for.
    #[cold]
    #[inline(never)]
    fn assign_slot(&mut self, job: JobId) -> u32 {
        let s = self.free.pop().unwrap_or_else(|| {
            self.fronts.push(None);
            self.rest_lens.push(0);
            self.rests.push(VecDeque::new());
            if self.fronts.len() > self.backlog_bits.len() * 64 {
                self.backlog_bits.push(0);
                self.assigned.push(0);
            }
            (self.fronts.len() - 1) as u32
        });
        let i = s as usize;
        debug_assert!(self.fronts[i].is_none());
        debug_assert_eq!(self.rest_lens[i], 0);
        self.index.insert(job, s);
        self.assigned[i / 64] |= 1 << (i % 64);
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
        let slot_idx = match self.hot {
            Some((hot_job, s)) if hot_job == job => s,
            _ => *self.index.get(&job)?,
        };
        self.pop_slot(slot_idx)
    }

    /// [`Self::pop`] with a location hint (e.g. from
    /// [`TokenSampler::draw_hinted`](crate::sampler::TokenSampler::draw_hinted)).
    /// A valid hint — in bounds, owned by `job`, non-empty — pops straight
    /// from the arena without touching the hash index; anything else
    /// (including [`NO_HINT`], a slot that was freed and reassigned, or a
    /// job that moved slots since the hint was minted) falls back to the
    /// full id lookup, so a stale hint can never change the outcome — only
    /// its cost.
    pub fn pop_hinted(&mut self, job: JobId, hint: u32) -> Option<IoRequest> {
        // A front holding a request of `job` proves the hint names `job`'s
        // one live slot: every push resolves through the index (or its
        // memo), so a job's requests can never sit in a slot the index
        // doesn't map it to.
        match self.fronts.get(hint as usize) {
            Some(Some(front)) if front.meta.job == job => self.pop_slot(hint),
            _ => self.pop(job),
        }
    }

    /// Pops from a validated arena slot, maintaining the counters and (when
    /// live) the FIFO front index.
    fn pop_slot(&mut self, slot_idx: u32) -> Option<IoRequest> {
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
        match successor {
            // The successor is the job's new front; index it (when the
            // index is live). The popped request's own index entry (if
            // still present) goes stale and is discarded lazily by
            // `pop_oldest` or `maybe_compact`.
            Some(next) => {
                if self.front_index_live {
                    self.front_index
                        .push(Reverse((next.arrival_ns, next.seq, req.meta.job)));
                }
            }
            // The drained slot is retained for reuse (see the `fronts`
            // field doc) and reclaimed in batch by `maybe_compact`.
            None => {
                self.backlog_bits[i / 64] &= !(1 << (i % 64));
                self.backlogged_count -= 1;
                self.sorted_valid = false;
            }
        }
        Some(req)
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
                return self.pop(job);
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
    /// draw does not come here: it reconciles its sum tree against the
    /// backlog bits, which needs no sort.
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
///   draw is retried over the backlogged jobs alone, each with probability
///   `s_j/B` (`B` = the backlogged jobs' total share), which is exactly the
///   opportunity-fairness rule: idle segments are redistributed so the device
///   never idles while any job has work. That second draw descends an
///   integer sum tree over the share list in which only backlogged jobs'
///   weights are switched on. Idle↔backlogged transitions never touch the
///   tree: they flip the queues' backlog bits, and a miss first reconciles
///   the tree against the slots that changed since the previous miss (see
///   `reconcile`).
/// * Jobs that appear in the traffic before the next refresh (unknown to the
///   share map) are still served — they fall back to a FIFO pick — so no
///   request can be starved by bootstrap races.
#[derive(Debug)]
pub struct ThemisScheduler {
    queues: JobQueues,
    shares: ShareMap,
    /// `shares` as a flat list in ascending job order, with fixed-point
    /// weights for `backlog_tree`. Rebuilt by `refresh`.
    share_entries: Vec<ShareEntry>,
    sampler: TokenSampler,
    /// Sum tree over `share_entries`' weights, counting exactly the entries
    /// of the jobs that were backlogged at the last reconcile.
    backlog_tree: SumTree,
    /// The queues' backlog bits as `backlog_tree` reflects them.
    mirror: Vec<u64>,
    /// `counted[s]` is the `share_entries` index `backlog_tree` counts for
    /// arena slot `s`, or [`UNCOUNTED`].
    counted: Vec<u32>,
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
    /// The job's share in fixed point (see [`WEIGHT_SCALE`]).
    weight: u64,
    /// The arena slot `backlog_tree` counts this entry for, or [`NO_HINT`]
    /// while it is uncounted. A restricted draw hands it to the pop as the
    /// slot hint.
    slot: u32,
}

/// `ThemisScheduler::counted`'s value for a slot whose job the sum tree
/// does not count.
const UNCOUNTED: u32 = u32::MAX;

/// The shares (all positive) are quantised to integers summing to about
/// 2⁵³, the resolution of the `f64` uniform a draw consumes. Each weight is
/// at least 1, so a share too small to resolve still gets drawn when its job
/// is the only one backlogged. Integer weights never drift, however often an
/// entry is switched on and off.
const WEIGHT_SCALE: f64 = (1u64 << 53) as f64;

/// A Fenwick tree (Fenwick 1994) over integer weights: a point update and
/// the descent to the entry holding a given rank each cost `O(log n)`.
#[derive(Debug, Default)]
struct SumTree {
    /// `nodes[i]` (1-based) sums the weights of entries `i - lowbit(i)`
    /// up to `i - 1` (0-based); `nodes[0]` is unused.
    nodes: Vec<u64>,
    /// Sum of every weight in the tree.
    total: u64,
}

impl SumTree {
    /// Rebuilds the tree over `weights`, in `O(n)`.
    fn build(&mut self, weights: impl Iterator<Item = u64>) {
        self.nodes.clear();
        self.nodes.push(0);
        self.nodes.extend(weights);
        self.total = self.nodes.iter().sum();
        for i in 1..self.nodes.len() {
            let parent = i + (i & i.wrapping_neg());
            if parent < self.nodes.len() {
                self.nodes[parent] += self.nodes[i];
            }
        }
    }

    /// Adds `delta` to an entry's weight. A removal passes the weight's
    /// two's complement: the sums wrap back to their true values.
    fn add(&mut self, entry: usize, delta: u64) {
        self.total = self.total.wrapping_add(delta);
        let mut i = entry + 1;
        while i < self.nodes.len() {
            self.nodes[i] = self.nodes[i].wrapping_add(delta);
            i += i & i.wrapping_neg();
        }
    }

    /// The entry whose segment holds `rank`: the first whose prefix sum,
    /// itself included, exceeds `rank`. `rank` must be below `total`.
    fn find(&self, rank: u64) -> usize {
        let n = self.nodes.len() - 1;
        let (mut pos, mut rest) = (0, rank);
        let mut step = (n + 1).next_power_of_two() / 2;
        while step > 0 {
            if pos + step <= n && self.nodes[pos + step] <= rest {
                pos += step;
                rest -= self.nodes[pos];
            }
            step /= 2;
        }
        pos
    }
}

/// The arena slots whose bits are set in word `word` of a slot bitmap.
fn set_bits(word: usize, mut bits: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (bits != 0).then(|| {
            let bit = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            word * 64 + bit
        })
    })
}

/// Marks the share entry of the job queued at backlogged arena slot `s` as
/// counted there and returns its index, or `None` when that job has no
/// share.
fn count_slot(
    entries: &mut [ShareEntry],
    counted: &mut [u32],
    fronts: &[Option<IoRequest>],
    s: usize,
) -> Option<usize> {
    let job = fronts[s]
        .as_ref()
        .expect("a set backlog bit implies a front")
        .meta
        .job;
    let e = entries.binary_search_by_key(&job, |e| e.job).ok()?;
    debug_assert_eq!(entries[e].slot, NO_HINT, "{job:?} counted twice");
    entries[e].slot = s as u32;
    counted[s] = e as u32;
    Some(e)
}

impl ThemisScheduler {
    /// Creates a scheduler with the given policy and no known jobs yet.
    pub fn new(policy: Policy) -> Self {
        ThemisScheduler {
            queues: JobQueues::new(),
            shares: ShareMap::empty(),
            share_entries: Vec::new(),
            sampler: TokenSampler::default(),
            backlog_tree: SumTree::default(),
            mirror: Vec::new(),
            counted: Vec::new(),
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

    /// Brings `backlog_tree` up to date with the queues' backlog.
    ///
    /// The slots that changed since the last reconcile are those whose
    /// backlog bit differs from `mirror`, plus those `assign_slot` handed
    /// out: a slot can change hands between two reconciles with its bit set
    /// at both. Pass 1 uncounts the entry counted for each changed slot.
    /// Pass 2 counts the entry of the job now at the front of each changed
    /// slot that is backlogged, found by binary search. The passes must stay
    /// apart: a job that moved from slot A to slot B must be uncounted at A
    /// before it is counted at B, whichever slot comes first. Cost:
    /// `O(slots / 64 + changed · log entries)`.
    fn reconcile(&mut self) {
        let ThemisScheduler {
            queues,
            share_entries: entries,
            backlog_tree: tree,
            mirror,
            counted,
            ..
        } = self;
        mirror.resize(queues.backlog_bits.len(), 0);
        counted.resize(queues.fronts.len(), UNCOUNTED);
        for (w, (&bits, &seen)) in queues.backlog_bits.iter().zip(mirror.iter()).enumerate() {
            for s in set_bits(w, bits ^ seen | queues.assigned[w]) {
                let e = std::mem::replace(&mut counted[s], UNCOUNTED);
                if e != UNCOUNTED {
                    let entry = &mut entries[e as usize];
                    tree.add(e as usize, entry.weight.wrapping_neg());
                    entry.slot = NO_HINT;
                }
            }
        }
        for (w, (&bits, seen)) in queues
            .backlog_bits
            .iter()
            .zip(mirror.iter_mut())
            .enumerate()
        {
            for s in set_bits(w, (bits ^ *seen | queues.assigned[w]) & bits) {
                if let Some(e) = count_slot(entries, counted, &queues.fronts, s) {
                    tree.add(e, entries[e].weight);
                }
            }
            *seen = bits;
            queues.assigned[w] = 0;
        }
    }

    /// The opportunity-fairness draw: reconciles the sum tree, then maps
    /// one uniform onto the backlogged jobs in proportion to their shares,
    /// returning the job and its slot as the pop hint. Draws nothing, and
    /// consumes no sample, when no backlogged job has a share.
    fn draw_backlogged(&mut self, rng: &mut dyn RngCore) -> Option<(JobId, u32)> {
        self.reconcile();
        let total = self.backlog_tree.total;
        if total == 0 {
            return None;
        }
        let rank = ((rng.gen::<f64>() * total as f64) as u64).min(total - 1);
        let entry = self.share_entries[self.backlog_tree.find(rank)];
        Some((entry.job, entry.slot))
    }
}

impl Scheduler for ThemisScheduler {
    fn name(&self) -> &'static str {
        "themis"
    }

    fn enqueue(&mut self, request: IoRequest) {
        self.queues.push(request);
    }

    fn next(&mut self, _now_ns: u64, rng: &mut dyn RngCore) -> Option<IoRequest> {
        if self.queues.is_empty() {
            return None;
        }
        // A live swap to `fifo` keeps the engine (and its queues) in place
        // but switches arbitration to strict arrival order.
        if !self.policy.is_fair() {
            return self.queues.pop_oldest();
        }
        // Fast path: draw over the full assignment; serve if the drawn job
        // has work. The draw carries the job's arena-slot hint, so the pop
        // is a direct slot access — no hash probe — and `pop_hinted` folds
        // the has-work probe and the pop into that same walk. Opportunity
        // fairness: on a miss, redistribute idle segments over backlogged
        // jobs and draw again.
        if let Some((job, hint)) = self.sampler.draw_hinted(rng) {
            if let Some(req) = self.queues.pop_hinted(job, hint) {
                return Some(req);
            }
        }
        if let Some((job, hint)) = self.draw_backlogged(rng) {
            if let Some(req) = self.queues.pop_hinted(job, hint) {
                return Some(req);
            }
        }
        // Backlogged jobs that have no share yet (seen before the first
        // refresh): serve them FIFO so nothing is starved.
        self.queues.pop_oldest()
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
        // are re-minted on the next refresh).
        let queues = &mut self.queues;
        self.sampler = TokenSampler::from_shares_hinted(&self.shares, |job| {
            queues.slot_of(job).unwrap_or(NO_HINT)
        });
        // The sum tree is built over the current backlog, in
        // O(entries + slots + backlogged · log entries); from here on each
        // miss reconciles it.
        let total = self.shares.total();
        self.share_entries.clear();
        self.share_entries
            .extend(self.shares.iter().map(|(job, share)| ShareEntry {
                job,
                weight: (share / total * WEIGHT_SCALE).round().max(1.0) as u64,
                slot: NO_HINT,
            }));
        self.counted.clear();
        self.counted.resize(queues.fronts.len(), UNCOUNTED);
        let (entries, counted) = (&mut self.share_entries, &mut self.counted);
        for (w, &bits) in queues.backlog_bits.iter().enumerate() {
            for s in set_bits(w, bits) {
                count_slot(entries, counted, &queues.fronts, s);
            }
        }
        let weight = |e: &ShareEntry| if e.slot == NO_HINT { 0 } else { e.weight };
        self.backlog_tree.build(entries.iter().map(weight));
        self.mirror.clone_from(&queues.backlog_bits);
        queues.assigned.fill(0);
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
    fn job_queues_backlog_and_assigned_bits_follow_compaction() {
        // Drain-and-refill churn over 200 jobs (one push to four pops)
        // compacts the arena and hands freed slots to other jobs. After
        // every step, each slot's backlog bit must say whether it holds a
        // front, and a slot→job cache updated only at the slots whose
        // `assigned` bit is set must reproduce the index.
        let mut q = JobQueues::new();
        let mut cached: HashMap<u32, JobId> = HashMap::new();
        let mut reassigned = 0u64;
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
            }
            let owner: HashMap<u32, JobId> = q.index.iter().map(|(&j, &s)| (s, j)).collect();
            for (w, word) in q.assigned.iter_mut().enumerate() {
                for s in set_bits(w, std::mem::take(word)) {
                    let job = owner[&(s as u32)];
                    reassigned += u64::from(cached.insert(s as u32, job).is_some());
                }
            }
            for (&slot, &job) in &owner {
                assert_eq!(cached.get(&slot), Some(&job), "step {step}");
            }
        }
        assert!(reassigned > 100, "the churn never compacted the arena");
    }

    /// `backlog_tree`'s prefix sum over the first `n` entries.
    fn prefix(tree: &SumTree, mut n: usize) -> u64 {
        let mut sum = 0;
        while n > 0 {
            sum += tree.nodes[n];
            n -= n & n.wrapping_neg();
        }
        sum
    }

    /// Asserts that the sum tree counts exactly the backlogged jobs that
    /// have a share, each once and at its current slot, so that its total
    /// is the naive sum of the weights masked to the backlog.
    fn assert_tree_counts_backlog(sched: &ThemisScheduler) {
        let q = &sched.queues;
        let mut masked = 0;
        for (e, entry) in sched.share_entries.iter().enumerate() {
            let slot = q
                .slot_of(entry.job)
                .filter(|&s| q.fronts[s as usize].is_some());
            let counted = (entry.slot != NO_HINT).then_some(entry.slot);
            assert_eq!(counted, slot, "{:?}", entry.job);
            let weight = slot.map_or(0, |_| entry.weight);
            let tree = &sched.backlog_tree;
            assert_eq!(
                prefix(tree, e + 1) - prefix(tree, e),
                weight,
                "{:?}",
                entry.job
            );
            masked += weight;
        }
        assert_eq!(sched.backlog_tree.total, masked);
    }

    #[test]
    fn restricted_draws_follow_backlogged_shares() {
        // 512 of 4 096 size-fair jobs backlogged: over 10⁵ restricted draws
        // every backlogged job's frequency is within 4σ of s_j/B, and no
        // idle job is ever drawn.
        const DRAWS: u64 = 100_000;
        let jobs: Vec<JobMeta> = (1..=4_096u64)
            .map(|j| meta(j, j as u32, (j % 5) as u32 + 1))
            .collect();
        let mut sched = ThemisScheduler::new(Policy::size_fair());
        sched.refresh(&table_with(&jobs), &Policy::size_fair());
        for m in jobs.iter().step_by(8) {
            sched.enqueue(IoRequest::write(m.job.0, *m, 4096, 0));
        }
        let shares = sched.shares();
        let backlogged: f64 = jobs.iter().step_by(8).map(|m| shares.share(m.job)).sum();
        let mut rng = SmallRng::seed_from_u64(42);
        let mut hits: HashMap<JobId, u64> = HashMap::new();
        for _ in 0..DRAWS {
            let (job, hint) = sched.draw_backlogged(&mut rng).expect("512 backlogged");
            assert_eq!(sched.queues.slot_of(job), Some(hint));
            *hits.entry(job).or_default() += 1;
        }
        assert_tree_counts_backlog(&sched);
        for m in &jobs {
            let n = hits.get(&m.job).copied().unwrap_or(0);
            if (m.job.0 - 1) % 8 != 0 {
                assert_eq!(n, 0, "idle {:?} drawn", m.job);
                continue;
            }
            let p = shares.share(m.job) / backlogged;
            let sigma = (p * (1.0 - p) / DRAWS as f64).sqrt();
            let f = n as f64 / DRAWS as f64;
            assert!(
                (f - p).abs() <= 4.0 * sigma,
                "{:?}: frequency {f}, share {p}, σ {sigma}",
                m.job
            );
        }
    }

    #[test]
    fn restricted_draws_follow_a_reassigned_slot_to_its_new_job() {
        // Between two misses, job A drains, compaction frees its slot and
        // job B takes that slot and queues. The slot's backlog bit is set at
        // both misses, so only `assigned` tells the tree that A left.
        let jobs: Vec<JobMeta> = (1..=101u64).map(|j| meta(j, 1, 1)).collect();
        let mut sched = ThemisScheduler::new(Policy::job_fair());
        for m in &jobs[..100] {
            sched.enqueue(IoRequest::write(m.job.0, *m, 10, 0));
        }
        sched.refresh(&table_with(&jobs), &Policy::job_fair());
        let mut rng = SmallRng::seed_from_u64(9);
        assert!(sched.draw_backlogged(&mut rng).is_some());
        let owner: HashMap<u32, JobId> = sched.queues.index.iter().map(|(&j, &s)| (s, j)).collect();
        for j in 1..=70 {
            assert!(sched.queues.pop(JobId(j)).is_some());
        }
        sched.queues.maybe_compact();
        let b = jobs[100].job;
        sched.enqueue(IoRequest::write(101, jobs[100], 10, 0));
        let slot = sched.queues.slot_of(b).expect("queued");
        let a = owner[&slot];
        assert!(a.0 <= 70, "{b:?} took a fresh slot, not a freed one");
        let mut drew_b = 0;
        for _ in 0..10_000 {
            let (job, hint) = sched.draw_backlogged(&mut rng).expect("31 backlogged");
            assert_ne!(job, a, "drew {a:?}, which drained");
            drew_b += u32::from(job == b && hint == slot);
        }
        assert!(drew_b > 0, "never drew {b:?}");
        assert_tree_counts_backlog(&sched);
    }

    #[test]
    fn a_job_that_moves_slots_between_misses_is_counted_once() {
        // Job J drains at slot A and re-queues at a lower slot B between two
        // misses: the reconcile must uncount it at A before it counts it at
        // B, though B comes first.
        let jobs: Vec<JobMeta> = (1..=100u64).map(|j| meta(j, 1, 1)).collect();
        let mut sched = ThemisScheduler::new(Policy::job_fair());
        for m in &jobs {
            sched.enqueue(IoRequest::write(m.job.0, *m, 10, 0));
        }
        sched.refresh(&table_with(&jobs), &Policy::job_fair());
        let mut rng = SmallRng::seed_from_u64(3);
        assert!(sched.draw_backlogged(&mut rng).is_some());
        let j = jobs[99];
        let a = sched.queues.slot_of(j.job).expect("queued");
        assert_eq!(a, 99, "jobs take fresh slots in arrival order");
        for job in 31..=100 {
            assert!(sched.queues.pop(JobId(job)).is_some());
        }
        sched.queues.maybe_compact();
        if sched.queues.free.last() == Some(&a) {
            // A job without a share takes A, so J lands elsewhere.
            sched.enqueue(IoRequest::write(200, meta(200, 1, 1), 10, 0));
        }
        sched.enqueue(IoRequest::write(100, j, 10, 0));
        let b = sched.queues.slot_of(j.job).expect("queued");
        assert!(b < a, "J moved from slot {a} to slot {b}");
        assert!(sched.draw_backlogged(&mut rng).is_some());
        assert_tree_counts_backlog(&sched);
    }

    #[test]
    fn a_share_below_the_tree_resolution_is_still_drawn() {
        // At priorities 10¹⁸:1 job 2's share quantises below 1. The weight
        // floor keeps it drawable when it is the only job backlogged.
        let jobs = [meta(1, 1, 1).with_priority(1e18), meta(2, 2, 1)];
        let mut sched = ThemisScheduler::new(Policy::priority_fair());
        sched.refresh(&table_with(&jobs), &Policy::priority_fair());
        assert!(sched.shares().share(JobId(2)) * WEIGHT_SCALE < 0.5);
        sched.enqueue(IoRequest::write(0, jobs[1], 10, 0));
        let slot = sched.queues.slot_of(JobId(2));
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(
            sched.draw_backlogged(&mut rng),
            Some((JobId(2), slot.unwrap()))
        );
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
