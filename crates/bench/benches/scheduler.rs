//! Criterion micro-benchmarks of the arbitration algorithms: admit +
//! select() throughput for ThemisIO, FIFO, GIFT and TBF under a saturated
//! two-job workload, driven through the `PolicyEngine` object API exactly as
//! the server and simulator drive them; ThemisIO's opportunity-fairness
//! redistribution at 4 096 jobs and over a sparse backlog of 10⁵ shares —
//! plus the three-lane `StagedEngine` select/complete hot path
//! (foreground + drain + restore + scrub all backlogged), whose wall-clock
//! median also lands in the machine-readable perf report
//! (`themis_bench::experiments::staged_select_wallclock_pair`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use themis_baselines::{Algorithm, GiftConfig, TbfConfig};
use themis_bench::experiments::{
    staged_bench_fixture, staged_round, staged_telemetry_bench_fixture,
};
use themis_core::entity::JobMeta;
use themis_core::job_table::JobTable;
use themis_core::policy::Policy;
use themis_core::request::IoRequest;

fn drive(algorithm: &Algorithm, ops: u64) {
    let mut engine = algorithm.build();
    let metas = [
        JobMeta::new(1u64, 1u32, 1u32, 4),
        JobMeta::new(2u64, 2u32, 1u32, 1),
    ];
    let mut table = JobTable::new();
    for m in &metas {
        table.heartbeat(*m, 0);
    }
    engine.reconfigure(&table, &Policy::size_fair());
    let mut rng = SmallRng::seed_from_u64(7);
    let mut seq = 0;
    for i in 0..ops {
        for m in &metas {
            engine.admit(IoRequest::write(seq, *m, 1 << 20, i * 1_000));
            seq += 1;
        }
        let _ = engine.select(i * 1_000, &mut rng);
        let _ = engine.select(i * 1_000, &mut rng);
    }
}

fn bench_schedulers(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduler_throughput");
    group.sample_size(20);
    let algorithms = [
        ("themis", Algorithm::Themis(Policy::size_fair())),
        ("fifo", Algorithm::Fifo),
        ("gift", Algorithm::Gift(GiftConfig::default())),
        ("tbf", Algorithm::Tbf(TbfConfig::default())),
    ];
    for (name, alg) in algorithms {
        group.bench_with_input(BenchmarkId::new(name, 1000u64), &alg, |b, alg| {
            b.iter(|| drive(alg, 1000))
        });
    }
    group.bench_function("redistribute_4096", redistribute_4096);
    group.bench_function("redistribute_sparse_1e5", redistribute_sparse_1e5);
    group.finish();
}

/// 4 096 job-fair jobs at queue depth 1. Each iteration serves 1 024
/// requests: a served job re-submits at once, except one job in eight, which
/// re-submits only when the iteration ends. A draw that lands on such an
/// idle job misses and redistributes its share, and since the last miss
/// other jobs have drained and refilled, so every miss reconciles the sum
/// tree against the slots that changed.
fn redistribute_4096(b: &mut criterion::Bencher) {
    redistribute(b, 4_096, 1, 1_024);
}

/// 10⁵ job-fair shares, of which only 256 jobs (every 390th) ever queue,
/// with `redistribute_4096`'s one-in-eight-late pattern over 256 serves per
/// iteration. Nearly every draw lands on a job that never queued, so
/// nearly every serve is a miss: this times what a miss costs when the
/// share list is ~400× longer than the backlog.
fn redistribute_sparse_1e5(b: &mut criterion::Bencher) {
    redistribute(b, 256, 390, 256);
}

/// Registers `queuing · stride` job-fair jobs, queues one request for each
/// of the `queuing` jobs at ids `k · stride + 1`, and times `serves`
/// selects per iteration. A served job `j` re-submits at once unless
/// `j / stride` is a multiple of eight, in which case it re-submits when
/// the iteration ends.
fn redistribute(b: &mut criterion::Bencher, queuing: u64, stride: u64, serves: usize) {
    let policy = Policy::job_fair();
    let mut engine = Algorithm::Themis(policy.clone()).build();
    let mut table = JobTable::new();
    for j in 1..=queuing * stride {
        table.heartbeat(JobMeta::new(j, j as u32, 1u32, 1), 0);
    }
    engine.reconfigure(&table, &policy);
    let mut seq = 0;
    for k in 0..queuing {
        let j = k * stride + 1;
        engine.admit(IoRequest::write(
            seq,
            JobMeta::new(j, j as u32, 1u32, 1),
            4096,
            0,
        ));
        seq += 1;
    }
    let mut rng = SmallRng::seed_from_u64(11);
    let mut late = Vec::new();
    b.iter(|| {
        for _ in 0..serves {
            let served = engine.select(0, &mut rng).expect("backlogged").meta;
            if (served.job.0 / stride).is_multiple_of(8) {
                late.push(served);
            } else {
                engine.admit(IoRequest::write(seq, served, 4096, 0));
                seq += 1;
            }
        }
        for m in late.drain(..) {
            engine.admit(IoRequest::write(seq, m, 4096, 0));
            seq += 1;
        }
    });
}

fn bench_staged_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("staged_engine");
    group.sample_size(20);
    group.bench_function("three_lane_select_complete", |b| {
        // The same fixture + round the machine-readable report measures
        // (`staged_select_wallclock_pair`), so the criterion line and the
        // report's `staged_select_ns` key (BENCH_pr10.json) can never drift
        // apart.
        let (mut engine, mut rng, fg) = staged_bench_fixture();
        let mut seq = 0u64;
        b.iter(|| staged_round(&mut engine, &mut rng, fg, &mut seq));
    });
    group.bench_function("three_lane_select_complete_telemetry", |b| {
        // Same round with a live metrics registry attached — the pairing
        // behind the report's same-run ≤10% telemetry overhead gate.
        let (mut engine, mut rng, fg, _registry) = staged_telemetry_bench_fixture();
        let mut seq = 0u64;
        b.iter(|| staged_round(&mut engine, &mut rng, fg, &mut seq));
    });
    group.finish();
}

criterion_group!(benches, bench_schedulers, bench_staged_engine);
criterion_main!(benches);
