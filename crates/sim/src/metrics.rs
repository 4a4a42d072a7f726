//! Measurement collection for simulated experiments: per-job throughput time
//! series (1-second samples like the paper's figures), medians, standard
//! deviations, slowdowns and fairness indices.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use themis_core::entity::JobId;

/// Nanoseconds per second.
pub const NS_PER_SEC: u64 = 1_000_000_000;

/// One served request, as recorded by the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServiceRecord {
    /// Job the request belonged to.
    pub job: JobId,
    /// Payload bytes moved.
    pub bytes: u64,
    /// Completion time (ns, virtual).
    pub finish_ns: u64,
    /// Queueing delay experienced (ns).
    pub queue_delay_ns: u64,
    /// End-to-end request latency (arrival → completion, ns): queueing delay
    /// plus device service time.
    pub latency_ns: u64,
}

/// Per-tenant request-latency summary (p50/p99 and friends), computed once by
/// [`Metrics::latency_stats`] so oracles and benches stop re-deriving
/// percentiles ad hoc.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct LatencyStats {
    /// Number of requests summarised.
    pub count: usize,
    /// Median request latency (ns).
    pub p50_ns: u64,
    /// 99th-percentile request latency (ns).
    pub p99_ns: u64,
    /// Mean request latency (ns).
    pub mean_ns: f64,
    /// Worst-case request latency (ns).
    pub max_ns: u64,
}

/// Collects service records and turns them into the statistics the paper
/// reports.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Metrics {
    records: Vec<ServiceRecord>,
}

/// A per-job throughput time series sampled on fixed intervals.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThroughputSeries {
    /// Sample interval in nanoseconds.
    pub interval_ns: u64,
    /// For each job: bytes served in each interval, indexed by interval.
    pub per_job: BTreeMap<JobId, Vec<u64>>,
    /// Number of intervals covered.
    pub intervals: usize,
}

impl Metrics {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Records one served request.
    pub fn record(&mut self, record: ServiceRecord) {
        self.records.push(record);
    }

    /// Number of records collected.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All records (for custom post-processing).
    pub fn records(&self) -> &[ServiceRecord] {
        &self.records
    }

    /// Total bytes served for one job.
    pub fn total_bytes(&self, job: JobId) -> u64 {
        self.records
            .iter()
            .filter(|r| r.job == job)
            .map(|r| r.bytes)
            .sum()
    }

    /// Total bytes served across all jobs.
    pub fn total_bytes_all(&self) -> u64 {
        self.records.iter().map(|r| r.bytes).sum()
    }

    /// Completion time of the last request overall (ns), i.e. the makespan.
    pub fn makespan_ns(&self) -> u64 {
        self.records.iter().map(|r| r.finish_ns).max().unwrap_or(0)
    }

    /// Completion time of the last request of one job (ns).
    pub fn finish_ns(&self, job: JobId) -> u64 {
        self.records
            .iter()
            .filter(|r| r.job == job)
            .map(|r| r.finish_ns)
            .max()
            .unwrap_or(0)
    }

    /// The distinct jobs that appear in the records, in id order.
    pub fn jobs(&self) -> Vec<JobId> {
        let mut jobs: Vec<JobId> = self.records.iter().map(|r| r.job).collect();
        jobs.sort();
        jobs.dedup();
        jobs
    }

    /// Bytes served for `job` by requests completing in `[start_ns, end_ns)`.
    pub fn bytes_in_window(&self, job: JobId, start_ns: u64, end_ns: u64) -> u64 {
        self.records
            .iter()
            .filter(|r| r.job == job && r.finish_ns >= start_ns && r.finish_ns < end_ns)
            .map(|r| r.bytes)
            .sum()
    }

    /// Bytes served across all jobs by requests completing in
    /// `[start_ns, end_ns)`.
    pub fn total_bytes_in_window(&self, start_ns: u64, end_ns: u64) -> u64 {
        self.records
            .iter()
            .filter(|r| r.finish_ns >= start_ns && r.finish_ns < end_ns)
            .map(|r| r.bytes)
            .sum()
    }

    /// Request-latency summary (p50/p99/mean/max) of one job's requests.
    pub fn latency_stats(&self, job: JobId) -> LatencyStats {
        let mut lat: Vec<u64> = self
            .records
            .iter()
            .filter(|r| r.job == job)
            .map(|r| r.latency_ns)
            .collect();
        if lat.is_empty() {
            return LatencyStats::default();
        }
        lat.sort_unstable();
        LatencyStats {
            count: lat.len(),
            p50_ns: percentile_sorted(&lat, 50.0),
            p99_ns: percentile_sorted(&lat, 99.0),
            mean_ns: lat.iter().sum::<u64>() as f64 / lat.len() as f64,
            max_ns: *lat.last().expect("non-empty"),
        }
    }

    /// Builds the per-job throughput time series with the given sample
    /// interval (the paper samples at 1-second intervals).
    pub fn throughput_series(&self, interval_ns: u64) -> ThroughputSeries {
        let interval_ns = interval_ns.max(1);
        let horizon = self.makespan_ns();
        let intervals = (horizon / interval_ns + 1) as usize;
        let mut per_job: BTreeMap<JobId, Vec<u64>> = BTreeMap::new();
        for r in &self.records {
            let idx = (r.finish_ns / interval_ns) as usize;
            let series = per_job.entry(r.job).or_insert_with(|| vec![0; intervals]);
            if series.len() < intervals {
                series.resize(intervals, 0);
            }
            series[idx] += r.bytes;
        }
        ThroughputSeries {
            interval_ns,
            per_job,
            intervals,
        }
    }
}

impl ThroughputSeries {
    /// Throughput of one job in each interval, in MB/s (the unit of Figs.
    /// 8–12).
    pub fn mb_per_sec(&self, job: JobId) -> Vec<f64> {
        let scale = NS_PER_SEC as f64 / self.interval_ns as f64 / 1.0e6;
        self.per_job
            .get(&job)
            .map(|v| v.iter().map(|b| *b as f64 * scale).collect())
            .unwrap_or_default()
    }

    /// Aggregate throughput across all jobs in each interval, in MB/s.
    pub fn aggregate_mb_per_sec(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.intervals];
        for job in self.per_job.keys() {
            for (i, v) in self.mb_per_sec(*job).iter().enumerate() {
                out[i] += v;
            }
        }
        out
    }

    /// Median throughput of one job over the intervals where it was active
    /// (non-zero), in MB/s — the statistic quoted in §5.3.1.
    pub fn median_active_mb_per_sec(&self, job: JobId) -> f64 {
        median(
            &self
                .mb_per_sec(job)
                .into_iter()
                .filter(|v| *v > 0.0)
                .collect::<Vec<_>>(),
        )
    }

    /// Standard deviation of one job's throughput over its active intervals,
    /// in MB/s — the stability statistic of §5.4.
    pub fn stddev_active_mb_per_sec(&self, job: JobId) -> f64 {
        stddev(
            &self
                .mb_per_sec(job)
                .into_iter()
                .filter(|v| *v > 0.0)
                .collect::<Vec<_>>(),
        )
    }

    /// The fraction of total bytes served in each interval that went to
    /// `job` — the "sharing percentage" plotted in Fig. 14.
    pub fn share_series(&self, job: JobId) -> Vec<f64> {
        let mine = self.per_job.get(&job);
        let mut out = vec![0.0; self.intervals];
        for (i, slot) in out.iter_mut().enumerate() {
            let total: u64 = self
                .per_job
                .values()
                .map(|v| v.get(i).copied().unwrap_or(0))
                .sum();
            if total > 0 {
                let m = mine.and_then(|v| v.get(i)).copied().unwrap_or(0);
                *slot = m as f64 / total as f64;
            }
        }
        out
    }
}

/// Nearest-rank percentile of an already-sorted slice (0 when empty):
/// `percentile_sorted(&v, 50.0)` is the median, `99.0` the p99.
///
/// The implementation is **shared** with the live telemetry histograms
/// ([`themis_telemetry::percentile_sorted`] is the single definition of the
/// nearest-rank convention), so the simulator's latency summaries and the
/// registry's histogram snapshots cannot drift apart.
pub fn percentile_sorted(sorted: &[u64], pct: f64) -> u64 {
    themis_telemetry::percentile_sorted(sorted, pct)
}

/// Median of a slice (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Arithmetic mean (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Population standard deviation (0 when fewer than two samples).
pub fn stddev(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    let var = values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64;
    var.sqrt()
}

/// Jain's fairness index over per-entity allocations: 1.0 is perfectly fair,
/// `1/n` is maximally unfair.
pub fn jain_fairness(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let sum: f64 = values.iter().sum();
    let sum_sq: f64 = values.iter().map(|v| v * v).sum();
    if sum_sq == 0.0 {
        1.0
    } else {
        sum * sum / (values.len() as f64 * sum_sq)
    }
}

/// Relative slowdown of `measured` versus `baseline` (e.g. 0.6 = 60% slower).
pub fn slowdown(baseline: f64, measured: f64) -> f64 {
    if baseline <= 0.0 {
        0.0
    } else {
        (measured - baseline) / baseline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(job: u64, bytes: u64, finish_ns: u64) -> ServiceRecord {
        ServiceRecord {
            job: JobId(job),
            bytes,
            finish_ns,
            queue_delay_ns: 0,
            latency_ns: 0,
        }
    }

    #[test]
    fn totals_and_makespan() {
        let mut m = Metrics::new();
        m.record(rec(1, 100, 10));
        m.record(rec(1, 200, 30));
        m.record(rec(2, 50, 20));
        assert_eq!(m.total_bytes(JobId(1)), 300);
        assert_eq!(m.total_bytes_all(), 350);
        assert_eq!(m.makespan_ns(), 30);
        assert_eq!(m.finish_ns(JobId(2)), 20);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn throughput_series_buckets_by_interval() {
        let mut m = Metrics::new();
        // 1 MB in second 0, 2 MB in second 1 for job 1; 1 MB in second 1 for job 2.
        m.record(rec(1, 1_000_000, 500_000_000));
        m.record(rec(1, 2_000_000, 1_500_000_000));
        m.record(rec(2, 1_000_000, 1_200_000_000));
        let s = m.throughput_series(NS_PER_SEC);
        let j1 = s.mb_per_sec(JobId(1));
        assert_eq!(j1.len(), 2);
        assert!((j1[0] - 1.0).abs() < 1e-9);
        assert!((j1[1] - 2.0).abs() < 1e-9);
        let agg = s.aggregate_mb_per_sec();
        assert!((agg[1] - 3.0).abs() < 1e-9);
        let share1 = s.share_series(JobId(1));
        assert!((share1[0] - 1.0).abs() < 1e-9);
        assert!((share1[1] - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn median_and_stddev() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(stddev(&[5.0]), 0.0);
        assert!((stddev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn median_active_ignores_idle_intervals() {
        let mut m = Metrics::new();
        m.record(rec(1, 4_000_000, 500_000_000));
        m.record(rec(1, 4_000_000, 5_500_000_000));
        let s = m.throughput_series(NS_PER_SEC);
        // Only two active seconds, each 4 MB/s, despite a long idle gap.
        assert!((s.median_active_mb_per_sec(JobId(1)) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile_sorted(&[], 50.0), 0);
        assert_eq!(percentile_sorted(&[7], 99.0), 7);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50);
        assert_eq!(percentile_sorted(&v, 99.0), 99);
        assert_eq!(percentile_sorted(&v, 100.0), 100);
        assert_eq!(percentile_sorted(&v, 0.0), 1);
    }

    /// The sim↔telemetry agreement pin: the simulator's percentile surface
    /// and the telemetry registry's histogram snapshots must report the same
    /// nearest-rank values on identical samples. Samples sit at log2 bucket
    /// upper bounds so the histogram is lossless and the comparison exact.
    #[test]
    fn sim_and_telemetry_percentiles_agree_on_identical_samples() {
        use themis_telemetry::{MetricsRegistry, SeriesKey};
        let reg = MetricsRegistry::new();
        let h = reg.histogram(SeriesKey::tenant(0, 1), "latency_ns");
        let mut samples: Vec<u64> = Vec::new();
        for i in 1..=20u32 {
            for r in 0..(i * 3) {
                let _ = r;
                samples.push((1u64 << (i % 16 + 1)) - 1);
            }
        }
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        let snap = h.snapshot();
        for pct in [50.0, 90.0, 99.0, 100.0] {
            let sim_value = percentile_sorted(&samples, pct);
            let telemetry_value = if pct == 50.0 {
                snap.p50
            } else if pct == 99.0 {
                snap.p99
            } else {
                continue;
            };
            assert_eq!(
                sim_value, telemetry_value,
                "p{pct} diverged between sim ({sim_value}) and telemetry ({telemetry_value})"
            );
        }
        assert_eq!(snap.max, *samples.last().unwrap());
        // And the two public entry points are literally the same function.
        for pct in [0.0, 37.5, 50.0, 99.0, 100.0] {
            assert_eq!(
                percentile_sorted(&samples, pct),
                themis_telemetry::percentile_sorted(&samples, pct)
            );
        }
    }

    #[test]
    fn latency_stats_summarise_per_job() {
        let mut m = Metrics::new();
        for (i, lat) in [10u64, 20, 30, 40].iter().enumerate() {
            m.record(ServiceRecord {
                job: JobId(1),
                bytes: 1,
                finish_ns: i as u64,
                queue_delay_ns: 0,
                latency_ns: *lat,
            });
        }
        m.record(ServiceRecord {
            job: JobId(2),
            bytes: 1,
            finish_ns: 0,
            queue_delay_ns: 0,
            latency_ns: 500,
        });
        let s = m.latency_stats(JobId(1));
        assert_eq!(s.count, 4);
        assert_eq!(s.p50_ns, 20);
        assert_eq!(s.p99_ns, 40);
        assert_eq!(s.max_ns, 40);
        assert!((s.mean_ns - 25.0).abs() < 1e-9);
        assert_eq!(m.latency_stats(JobId(2)).p50_ns, 500);
        assert_eq!(m.latency_stats(JobId(9)).count, 0);
    }

    #[test]
    fn windowed_bytes_and_job_list() {
        let mut m = Metrics::new();
        m.record(rec(1, 100, 10));
        m.record(rec(1, 200, 30));
        m.record(rec(2, 50, 20));
        assert_eq!(m.jobs(), vec![JobId(1), JobId(2)]);
        assert_eq!(m.bytes_in_window(JobId(1), 0, 20), 100);
        assert_eq!(m.bytes_in_window(JobId(1), 10, 31), 300);
        assert_eq!(m.bytes_in_window(JobId(1), 0, 10), 0);
        assert_eq!(m.total_bytes_in_window(0, 25), 150);
    }

    #[test]
    fn fairness_and_slowdown_helpers() {
        assert!((jain_fairness(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((jain_fairness(&[1.0, 0.0, 0.0]) - 1.0 / 3.0).abs() < 1e-12);
        assert!((slowdown(10.0, 16.0) - 0.6).abs() < 1e-12);
        assert_eq!(slowdown(0.0, 5.0), 0.0);
    }
}
