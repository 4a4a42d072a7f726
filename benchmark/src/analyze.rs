//! Turns the operation records of one measured window into the end-to-end
//! numbers.

use crate::stats::{percentile, percentile_or_highest, quartile_spread, quartiles};
use crate::workloads::{Kind, OpRec, Spec, MIB};
use std::collections::BTreeMap;
use themisio::core::request::{IoRequest, OpKind};
use themisio::prelude::*;

/// Throughput is the median over this many equal slices of the window.
pub const SLICES: usize = 5;

/// A value with the quartile spread of its per-slice (or per-repeat) values.
#[derive(Debug, Clone, Copy, Default)]
pub struct Value {
    pub value: f64,
    pub spread: f64,
}

#[derive(Debug, Default)]
pub struct Window {
    pub attempted: u64,
    pub failed: u64,
    pub lat_p50_us: Value,
    pub lat_p90_us: Value,
    pub lat_p99_us: f64,
    /// Write requests the latency percentiles are over.
    pub lat_samples: usize,
    pub write_mib_s: Value,
    pub read_mib_s: Value,
    pub ops_per_s: Value,
    pub share_min_ratio: Value,
    pub share_err_max_pct: f64,
    /// Delivered over entitled share per policy bucket.
    pub buckets: Vec<(String, f64)>,
    pub model_busy_frac: f64,
    pub flush_ms: f64,
    pub payload_bytes_per_op: f64,
    pub warnings: Vec<String>,
}

impl Window {
    pub fn get(&self, name: &str) -> Value {
        match name {
            "lat_p50_us" => self.lat_p50_us,
            "lat_p90_us" => self.lat_p90_us,
            "write_mib_s" => self.write_mib_s,
            "read_mib_s" => self.read_mib_s,
            "ops_per_s" => self.ops_per_s,
            "share_min_ratio" => self.share_min_ratio,
            other => unreachable!("{other} is not a window metric"),
        }
    }
}

/// The *better* quartile over slices (the third for a rate, the first for a
/// latency) with the quartile spread, when every slice produced a value;
/// otherwise (a window too short to slice) the whole-window value.
///
/// Not the median: on a shared host a neighbour only ever slows a slice, so
/// the better slices are the ones that measured the program. Under bursts of
/// interference the median of five slices moved 14 % between runs where the
/// better quartile moved 6 % (README.md, measurement traps).
fn over_slices(slices: &[Option<f64>], whole: f64, higher_is_better: bool) -> Value {
    let values = slices.iter().copied().collect::<Option<Vec<f64>>>();
    match values.as_deref().and_then(|v| Some((v, quartiles(v)?))) {
        Some((v, (q1, q3))) => Value {
            value: if higher_is_better { q3 } else { q1 },
            spread: quartile_spread(v),
        },
        None => Value {
            value: whole,
            spread: 0.0,
        },
    }
}

fn writing(kind: Kind) -> bool {
    matches!(kind, Kind::Write | Kind::Create | Kind::Flush)
}

/// MiB/s of one direction over `recs`. Pipelined requests overlap, so bytes
/// go over the wall time; blocking clients each contribute bytes over the
/// time they were blocked in calls of that direction (barrier waits and the
/// benchmark's own verification are nobody's throughput).
fn mib_per_s(spec: &Spec, recs: &[&OpRec], write: bool, wall_ns: u64) -> Option<f64> {
    let side = recs.iter().filter(|r| writing(r.kind) == write);
    let mib = |bytes: u64| bytes as f64 / MIB as f64;
    if spec.pipelined {
        let bytes: u64 = side.map(|r| u64::from(r.bytes)).sum();
        return (bytes > 0).then(|| mib(bytes) / (wall_ns as f64 / 1e9));
    }
    let mut per_client: BTreeMap<u16, (u64, u64)> = BTreeMap::new();
    for r in side {
        let e = per_client.entry(r.tenant).or_default();
        e.0 += u64::from(r.bytes);
        e.1 += r.lat_ns;
    }
    let rates: Vec<f64> = per_client
        .values()
        .filter(|(bytes, busy)| *bytes > 0 && *busy > 0)
        .map(|(bytes, busy)| mib(*bytes) / (*busy as f64 / 1e9))
        .collect();
    (!rates.is_empty()).then(|| rates.iter().sum())
}

fn write_latencies(recs: &[&OpRec]) -> Vec<u64> {
    let mut lat: Vec<u64> = recs
        .iter()
        .filter(|r| r.kind == Kind::Write && r.ok)
        .map(|r| r.lat_ns)
        .collect();
    lat.sort_unstable();
    lat
}

/// Delivered over entitled share for every policy bucket (each job-size
/// class and each group): entitled from `compute_shares`, delivered from
/// completed data operations per tenant.
fn share_buckets(spec: &Spec, recs: &[&OpRec]) -> Vec<(String, f64)> {
    let mut delivered = vec![0u64; spec.jobs.len()];
    for r in recs
        .iter()
        .filter(|r| r.ok && matches!(r.kind, Kind::Write | Kind::Read))
    {
        delivered[r.tenant as usize] += 1;
    }
    let total: u64 = delivered.iter().sum();
    if total == 0 {
        return Vec::new();
    }
    let entitled = compute_shares(&spec.parsed_policy(), &spec.jobs);
    let mut buckets: BTreeMap<String, (f64, f64)> = BTreeMap::new();
    for (meta, &ops) in spec.jobs.iter().zip(&delivered) {
        for key in [
            format!("nodes={}", meta.nodes),
            format!("group={}", meta.group.0),
        ] {
            let b = buckets.entry(key).or_default();
            b.0 += ops as f64 / total as f64;
            b.1 += entitled.share(meta.job);
        }
    }
    buckets
        .into_iter()
        .map(|(key, (got, due))| (key, got / due))
        .collect()
}

/// Mean, 0 when empty (an empty float sum is -0.0, which prints as such).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

fn min_ratio(buckets: &[(String, f64)]) -> Option<f64> {
    buckets.iter().map(|b| b.1).min_by(f64::total_cmp)
}

/// The modelled device's busy share: the service time `DeviceModel` charges
/// the window's foreground operations over the worker time available.
/// Computed, not measured; it guards against benchmarking the model.
fn model_busy_frac(spec: &Spec, recs: &[&OpRec], wall_ns: u64) -> f64 {
    let config = DeviceConfig::optane_ssd();
    let model = DeviceModel::new(config);
    let busy: u64 = recs
        .iter()
        .filter_map(|r| {
            let kind = match r.kind {
                Kind::Write => OpKind::Write,
                Kind::Read => OpKind::Read,
                Kind::Create => OpKind::Create,
                Kind::Unlink => OpKind::Remove,
                Kind::Flush => return None,
            };
            let req = IoRequest::new(0, spec.jobs[0], kind, u64::from(r.bytes), 0);
            Some(model.service_ns(&req))
        })
        .sum();
    busy as f64 / (wall_ns as f64 * (config.workers * spec.servers) as f64)
}

/// Analyses the operations that ended inside `[start_ns, end_ns)`.
pub fn window(spec: &Spec, recs: &[OpRec], start_ns: u64, end_ns: u64) -> Window {
    let inside: Vec<&OpRec> = recs
        .iter()
        .filter(|r| (start_ns..end_ns).contains(&r.end_ns))
        .collect();
    let wall_ns = end_ns - start_ns;
    let mut w = Window {
        attempted: inside.len() as u64,
        failed: inside.iter().filter(|r| !r.ok).count() as u64,
        ..Window::default()
    };

    let slice_ns = wall_ns / SLICES as u64;
    let slices: Vec<Vec<&OpRec>> = (0..SLICES as u64)
        .map(|i| {
            let lo = start_ns + i * slice_ns;
            inside
                .iter()
                .copied()
                .filter(|r| (lo..lo + slice_ns).contains(&r.end_ns))
                .collect()
        })
        .collect();
    let per_slice = |f: &dyn Fn(&[&OpRec]) -> Option<f64>| -> Vec<Option<f64>> {
        slices.iter().map(|s| f(s)).collect()
    };

    let lat = write_latencies(&inside);
    w.lat_samples = lat.len();
    for (p, out) in [(0.5, &mut w.lat_p50_us), (0.9, &mut w.lat_p90_us)] {
        let (whole, fell_back) = percentile_or_highest(&lat, p);
        if fell_back {
            w.warnings.push(format!(
                "p{:.0} latency has fewer than ten of {} samples beyond it; the highest supported percentile is reported",
                p * 100.0,
                lat.len()
            ));
        }
        // Each slice's own percentile: stalled slices (a neighbour, a
        // write-back storm) cannot drag it the way they drag a percentile
        // over the whole window. A window too short for every slice to
        // support the percentile reports the whole window.
        let slices = per_slice(&|s| percentile(&write_latencies(s), p).map(|v| v as f64 / 1e3));
        *out = over_slices(&slices, whole as f64 / 1e3, false);
    }
    w.lat_p99_us = percentile_or_highest(&lat, 0.99).0 as f64 / 1e3;

    w.write_mib_s = over_slices(
        &per_slice(&|s| mib_per_s(spec, s, true, slice_ns)),
        mib_per_s(spec, &inside, true, wall_ns).unwrap_or(0.0),
        true,
    );
    w.read_mib_s = over_slices(
        &per_slice(&|s| mib_per_s(spec, s, false, slice_ns)),
        mib_per_s(spec, &inside, false, wall_ns).unwrap_or(0.0),
        true,
    );
    let ops_per_s =
        |s: &[&OpRec], ns: u64| s.iter().filter(|r| r.ok).count() as f64 / (ns as f64 / 1e9);
    w.ops_per_s = over_slices(
        &per_slice(&|s| (!s.is_empty()).then(|| ops_per_s(s, slice_ns))),
        ops_per_s(&inside, wall_ns),
        true,
    );

    w.buckets = share_buckets(spec, &inside);
    w.share_min_ratio = Value {
        value: min_ratio(&w.buckets).unwrap_or(0.0),
        spread: over_slices(
            &per_slice(&|s| min_ratio(&share_buckets(spec, s))),
            0.0,
            true,
        )
        .spread,
    };
    w.share_err_max_pct = w
        .buckets
        .iter()
        .map(|b| (b.1 - 1.0).abs() * 100.0)
        .fold(0.0, f64::max);

    w.model_busy_frac = model_busy_frac(spec, &inside, wall_ns);
    let flushes: Vec<f64> = inside
        .iter()
        .filter(|r| r.kind == Kind::Flush)
        .map(|r| r.lat_ns as f64 / 1e6)
        .collect();
    w.flush_ms = mean(&flushes);
    let data: Vec<f64> = inside
        .iter()
        .filter(|r| matches!(r.kind, Kind::Write | Kind::Read))
        .map(|r| f64::from(r.bytes))
        .collect();
    w.payload_bytes_per_op = mean(&data);
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::spec;

    #[test]
    fn better_quartile_of_slices_ignores_slow_slices() {
        let slices = [Some(10.0), Some(11.0), Some(2.0), Some(10.5), Some(4.0)];
        // A rate: the mean of the two best slices; a latency: of the two lowest.
        assert_eq!(over_slices(&slices, 99.0, true).value, 10.75);
        assert_eq!(over_slices(&slices, 99.0, false).value, 3.0);
        assert!(over_slices(&slices, 99.0, true).spread > 0.0);
        // A window too short to fill every slice reports the whole window.
        assert_eq!(over_slices(&[Some(1.0), None], 7.0, true).value, 7.0);
        assert_eq!(over_slices(&[Some(1.0)], 7.0, true).value, 7.0);
    }

    fn rec(end_ns: u64, lat_ns: u64, kind: Kind, tenant: u16) -> OpRec {
        OpRec {
            end_ns,
            lat_ns,
            bytes: if matches!(kind, Kind::Write | Kind::Read) {
                MIB as u32
            } else {
                0
            },
            kind,
            tenant,
            ok: true,
        }
    }

    #[test]
    fn blocking_clients_add_their_rates_and_flush_counts_as_writing() {
        let spec = spec("staged_ckpt").unwrap();
        // Each client: 1 MiB in 1 ms of write_at plus 1 ms of flush.
        let recs: Vec<OpRec> = (0..2)
            .flat_map(|t| {
                [
                    rec(10, 1_000_000, Kind::Write, t),
                    rec(20, 1_000_000, Kind::Flush, t),
                ]
            })
            .collect();
        let refs: Vec<&OpRec> = recs.iter().collect();
        let rate = mib_per_s(&spec, &refs, true, 1).unwrap();
        assert!((rate - 1000.0).abs() < 1e-9, "{rate}");
        assert_eq!(mib_per_s(&spec, &refs, false, 1), None);
    }

    #[test]
    fn share_ratio_is_delivered_over_entitled_per_bucket() {
        let spec = spec("paced_small").unwrap();
        // Tenant 0 gets 3 of 4 operations where each is entitled to half.
        let recs = [
            rec(1, 1, Kind::Write, 0),
            rec(2, 1, Kind::Read, 0),
            rec(3, 1, Kind::Write, 0),
            rec(4, 1, Kind::Write, 1),
        ];
        let refs: Vec<&OpRec> = recs.iter().collect();
        let buckets = share_buckets(&spec, &refs);
        assert!(
            (min_ratio(&buckets).unwrap() - 0.5).abs() < 1e-9,
            "{buckets:?}"
        );
    }
}
