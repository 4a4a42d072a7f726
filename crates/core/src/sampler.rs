//! The statistical token sampler: one uniform draw in `[0, 1]` selects the
//! job whose segment the draw falls into (§3, Fig. 3).
//!
//! The sampler is rebuilt whenever shares change (policy update, job
//! arrival/departure, λ-sync) and is otherwise read-only, so workers never
//! need locks on the hot path — exactly the lock-freedom argument of §3.

use crate::entity::JobId;
use crate::shares::ShareMap;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The caller-supplied location hint meaning "no hint": draws carrying it
/// fall back to the consumer's full lookup path. See
/// [`TokenSampler::draw_hinted`].
pub const NO_HINT: u32 = u32::MAX;

/// An immutable cumulative-distribution table over job segments.
///
/// Sampling is a binary search over the cumulative bounds: `O(log n)` per
/// draw for `n` active jobs — constant in practice via the radix bucket
/// index, which narrows the search to a ~1-entry window.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TokenSampler {
    jobs: Vec<JobId>,
    /// `cumulative[i]` is the upper bound of job `i`'s segment; the last
    /// entry is 1.0 (up to rounding).
    cumulative: Vec<f64>,
    /// `hints[i]` is the opaque location hint supplied for job `i` at build
    /// time ([`NO_HINT`] when the builder had none) — carried through
    /// [`draw_hinted`](Self::draw_hinted) so the consumer can jump straight
    /// to the drawn job's queue slot instead of re-resolving the job id.
    /// Purely accelerative: hints never influence which job a draw selects.
    hints: Vec<u32>,
    /// `(upper bound, job, hint)` triples — the per-segment columns
    /// interleaved so one [`select`](Self::select) touches a single cache
    /// line for the bound comparison, the job id and the hint, instead of
    /// one miss in each of several megabyte-scale arrays at production
    /// cardinality.
    select_pairs: Vec<(f64, JobId, u32)>,
    /// Radix index over `[0, 1]`: `bucket_starts[b]` is the number of
    /// cumulative bounds strictly below `b / B` (`B` = segment count
    /// rounded up to a power of two), i.e. the global partition point at
    /// the bucket's left edge. A draw first indexes its bucket — O(1) —
    /// then binary-searches only `[bucket_starts[b], bucket_starts[b+1]]`,
    /// which holds ~1 entry on average. The comparisons inside the window
    /// are the *same predicate on the same values* as a full
    /// `partition_point` over `cumulative`, so the selected job is
    /// bit-identical to the flat binary search this replaces — the index
    /// only narrows where the search looks, never what it compares.
    bucket_starts: Vec<u32>,
}

/// Equality is over the *distribution* — the jobs and their cumulative
/// bounds. Location hints and the derived acceleration tables are excluded:
/// two samplers that map every draw to the same job are equal even if one
/// was built with queue-slot hints and the other without.
impl PartialEq for TokenSampler {
    fn eq(&self, other: &Self) -> bool {
        self.jobs == other.jobs && self.cumulative == other.cumulative
    }
}

impl TokenSampler {
    /// Builds the segment table from a share map. Jobs with zero share get no
    /// segment.
    ///
    /// The input need not sum to 1: a non-normalised map (e.g. raw weights)
    /// is renormalised here, so the cumulative bounds always partition
    /// `[0, 1]`. Already-normalised input is passed through untouched (the
    /// scale divisor is exactly 1.0), keeping the table bit-identical to the
    /// unscaled accumulation.
    pub fn from_shares(shares: &ShareMap) -> Self {
        Self::from_shares_hinted(shares, |_| NO_HINT)
    }

    /// [`from_shares`](Self::from_shares) with a location hint per job —
    /// `hint_of` is consulted once per segment at build time (e.g.
    /// `JobQueues::slot_of`), and the hint rides along with every draw of
    /// that job. Hints never affect which job a draw selects.
    pub fn from_shares_hinted(shares: &ShareMap, mut hint_of: impl FnMut(JobId) -> u32) -> Self {
        let mut jobs = Vec::with_capacity(shares.len());
        let mut cumulative = Vec::with_capacity(shares.len());
        let mut hints = Vec::with_capacity(shares.len());
        let mut total = 0.0;
        for (job, share) in shares.iter() {
            if share <= 0.0 {
                continue;
            }
            total += share;
            jobs.push(job);
            cumulative.push(share);
            hints.push(hint_of(job));
        }
        let scale = if (total - 1.0).abs() > 1e-9 {
            total
        } else {
            1.0
        };
        let mut acc = 0.0;
        for slot in cumulative.iter_mut() {
            acc += *slot / scale;
            *slot = acc;
        }
        // Guard against floating point drift so the final segment always
        // covers 1.0.
        if let Some(last) = cumulative.last_mut() {
            *last = last.max(1.0);
        }
        let mut sampler = TokenSampler {
            jobs,
            cumulative,
            hints,
            select_pairs: Vec::new(),
            bucket_starts: Vec::new(),
        };
        sampler.rebuild_select_index();
        sampler
    }

    /// Rebuilds the draw-acceleration structures (`select_pairs`,
    /// `bucket_starts`) from `jobs`/`cumulative`. `O(n)` — the
    /// construction already walks the segments, so this doesn't change its
    /// complexity.
    fn rebuild_select_index(&mut self) {
        let n = self.cumulative.len();
        debug_assert_eq!(self.hints.len(), n);
        self.select_pairs.clear();
        self.select_pairs.extend(
            self.cumulative
                .iter()
                .zip(self.jobs.iter())
                .zip(self.hints.iter())
                .map(|((&upper, &job), &hint)| (upper, job, hint)),
        );
        // ~4 segments per bucket: a denser table (one bucket per segment)
        // shaves the in-window binary search to ~1 probe, but at 10⁵
        // segments it outgrows L2 and costs a dependent L3 access per draw
        // — more than the ≤2 extra window probes it saves. A quarter-sized
        // table stays cache-resident an order of magnitude longer and the
        // window stays within one or two cache lines of `select_pairs`.
        let buckets = (n / 4).next_power_of_two().max(1);
        self.bucket_starts.clear();
        self.bucket_starts.reserve(buckets + 1);
        let mut idx = 0usize;
        for b in 0..=buckets {
            let bound = b as f64 / buckets as f64;
            while idx < n && self.cumulative[idx] < bound {
                idx += 1;
            }
            self.bucket_starts.push(idx as u32);
        }
    }

    /// Number of jobs with a segment.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the sampler has no segments (nothing active).
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// The segment `[lo, hi)` assigned to `job`, if any.
    ///
    /// `jobs` is always sorted ascending (the construction iterates an
    /// ordered map), so the job→index lookup is a binary search — `O(log n)`
    /// instead of the linear scan that dominated at 10⁵ jobs.
    pub fn segment(&self, job: JobId) -> Option<(f64, f64)> {
        let idx = self.jobs.binary_search(&job).ok()?;
        let lo = if idx == 0 {
            0.0
        } else {
            self.cumulative[idx - 1]
        };
        Some((lo, self.cumulative[idx]))
    }

    /// Maps a point in `[0, 1]` onto the owning job.
    ///
    /// Equivalent to `cumulative.partition_point(|&upper| upper < p)`
    /// clamped into range, but accelerated by the radix
    /// `bucket_starts` index: the
    /// bucket lookup bounds the partition point to a ~1-entry window, so a
    /// draw at 10⁵ jobs costs a couple of cache misses instead of a
    /// 17-level cold binary search. Bit-identical to the flat search (same
    /// comparisons, same values — see the field doc).
    pub fn select(&self, point: f64) -> Option<JobId> {
        self.select_hinted(point).map(|(job, _)| job)
    }

    /// [`select`](Self::select), also returning the job's build-time
    /// location hint ([`NO_HINT`] if none was supplied).
    pub fn select_hinted(&self, point: f64) -> Option<(JobId, u32)> {
        if self.jobs.is_empty() {
            return None;
        }
        let p = point.clamp(0.0, 1.0);
        let buckets = self.bucket_starts.len() - 1;
        let b = ((p * buckets as f64) as usize).min(buckets - 1);
        let lo = self.bucket_starts[b] as usize;
        let hi = self.bucket_starts[b + 1] as usize;
        // Every bound below `lo` is < b/B ≤ p, and the bound at `hi` (if
        // any) is ≥ (b+1)/B > p, so the global partition point is
        // `lo + (partition point within [lo, hi))`.
        let off = self.select_pairs[lo..hi].partition_point(|&(upper, _, _)| upper < p);
        let idx = (lo + off).min(self.select_pairs.len() - 1);
        let (_, job, hint) = self.select_pairs[idx];
        Some((job, hint))
    }

    /// Draws one statistical token: a uniform sample mapped onto a job.
    pub fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<JobId> {
        self.draw_hinted(rng).map(|(job, _)| job)
    }

    /// [`draw`](Self::draw), also returning the drawn job's location hint
    /// so the caller can jump straight to the job's queue slot (verifying
    /// it, since hints can go stale) instead of re-resolving the id through
    /// its own index. Consumes exactly one uniform sample, like `draw`.
    pub fn draw_hinted<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<(JobId, u32)> {
        if self.jobs.is_empty() {
            None
        } else {
            self.select_hinted(rng.gen::<f64>())
        }
    }

    /// Iterates over `(job, segment_length)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (JobId, f64)> + '_ {
        self.jobs.iter().enumerate().map(|(i, j)| {
            let lo = if i == 0 { 0.0 } else { self.cumulative[i - 1] };
            (*j, self.cumulative[i] - lo)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::JobMeta;
    use crate::policy::Policy;
    use crate::shares::compute_shares;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    fn sampler_for(policy: &Policy, jobs: &[JobMeta]) -> TokenSampler {
        TokenSampler::from_shares(&compute_shares(policy, jobs))
    }

    #[test]
    fn empty_sampler_returns_none() {
        let s = TokenSampler::default();
        assert!(s.is_empty());
        assert_eq!(s.select(0.5), None);
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(s.draw(&mut rng), None);
    }

    #[test]
    fn segments_partition_unit_interval() {
        let jobs = [
            JobMeta::new(1u64, 1u32, 1u32, 4),
            JobMeta::new(2u64, 2u32, 1u32, 1),
        ];
        let s = sampler_for(&Policy::size_fair(), &jobs);
        let (lo1, hi1) = s.segment(JobId(1)).unwrap();
        let (lo2, hi2) = s.segment(JobId(2)).unwrap();
        assert_eq!(lo1, 0.0);
        assert!((hi1 - 0.8).abs() < 1e-9);
        assert!((lo2 - 0.8).abs() < 1e-9);
        assert!((hi2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn select_maps_boundaries_sensibly() {
        let jobs = [
            JobMeta::new(1u64, 1u32, 1u32, 1),
            JobMeta::new(2u64, 2u32, 1u32, 1),
        ];
        let s = sampler_for(&Policy::job_fair(), &jobs);
        assert_eq!(s.select(0.0), Some(JobId(1)));
        assert_eq!(s.select(0.49), Some(JobId(1)));
        assert_eq!(s.select(0.51), Some(JobId(2)));
        assert_eq!(s.select(1.0), Some(JobId(2)));
        // Out-of-range points clamp instead of panicking.
        assert_eq!(s.select(-3.0), Some(JobId(1)));
        assert_eq!(s.select(7.0), Some(JobId(2)));
    }

    #[test]
    fn draw_frequencies_converge_to_shares() {
        // The statistical token design relies on sampling frequencies
        // converging to assigned segment lengths for sufficiently large I/O
        // workloads (§3).
        let jobs = [
            JobMeta::new(1u64, 1u32, 1u32, 16),
            JobMeta::new(2u64, 1u32, 1u32, 8),
            JobMeta::new(3u64, 2u32, 1u32, 8),
        ];
        let s = sampler_for(&Policy::size_fair(), &jobs);
        let mut rng = SmallRng::seed_from_u64(42);
        let mut counts: HashMap<JobId, u64> = HashMap::new();
        let draws = 200_000;
        for _ in 0..draws {
            *counts.entry(s.draw(&mut rng).unwrap()).or_insert(0) += 1;
        }
        let f1 = counts[&JobId(1)] as f64 / draws as f64;
        let f2 = counts[&JobId(2)] as f64 / draws as f64;
        let f3 = counts[&JobId(3)] as f64 / draws as f64;
        assert!((f1 - 0.5).abs() < 0.01, "job1 frequency {f1}");
        assert!((f2 - 0.25).abs() < 0.01, "job2 frequency {f2}");
        assert!((f3 - 0.25).abs() < 0.01, "job3 frequency {f3}");
    }

    #[test]
    fn zero_share_jobs_get_no_segment() {
        let shares = ShareMap::from_pairs([(JobId(1), 1.0), (JobId(2), 0.0)]);
        let s = TokenSampler::from_shares(&shares);
        assert_eq!(s.len(), 1);
        assert!(s.segment(JobId(2)).is_none());
    }

    #[test]
    fn non_normalised_shares_are_renormalised_not_truncated() {
        // Regression: a share map whose weights sum past 1.0 used to keep the
        // raw cumulative bounds and clamp only the last one, silently
        // truncating the final job's segment. The sampler now renormalises.
        let shares =
            ShareMap::from_raw_weights([(JobId(1), 1.0), (JobId(2), 1.0), (JobId(3), 2.0)]);
        let s = TokenSampler::from_shares(&shares);
        let (_, hi) = s.segment(JobId(3)).unwrap();
        assert!((hi - 1.0).abs() < 1e-9, "last bound {hi}");
        let (lo, hi) = s.segment(JobId(1)).unwrap();
        assert_eq!(lo, 0.0);
        assert!((hi - 0.25).abs() < 1e-9);
        let (lo, hi) = s.segment(JobId(2)).unwrap();
        assert!((lo - 0.25).abs() < 1e-9);
        assert!((hi - 0.5).abs() < 1e-9);
    }

    #[test]
    fn iter_reports_segment_lengths() {
        let jobs = [
            JobMeta::new(1u64, 1u32, 1u32, 3),
            JobMeta::new(2u64, 2u32, 1u32, 1),
        ];
        let s = sampler_for(&Policy::size_fair(), &jobs);
        let lengths: HashMap<JobId, f64> = s.iter().collect();
        assert!((lengths[&JobId(1)] - 0.75).abs() < 1e-9);
        assert!((lengths[&JobId(2)] - 0.25).abs() < 1e-9);
    }
}
