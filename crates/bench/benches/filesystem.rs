//! Criterion micro-benchmarks of the user-space file system: consistent-hash
//! lookup, write/read round trips, metadata operations, the capacity tier's
//! extent checksum, and one extent's drain-and-restore round trip.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use themis_fs::{BurstBufferFs, HashRing, StripeConfig};
use themis_stage::{extent_checksum, verified_extent, write_back_guarded, CapacityTier};

fn bench_ring(c: &mut Criterion) {
    let mut group = c.benchmark_group("hash_ring");
    group.sample_size(20);
    for servers in [4usize, 64] {
        let ring = HashRing::new(servers);
        group.bench_with_input(BenchmarkId::new("owner", servers), &ring, |b, ring| {
            let mut i = 0u64;
            b.iter(|| {
                i += 1;
                ring.owner(&format!("/data/file-{i}"))
            })
        });
    }
    group.finish();
}

fn bench_fs_io(c: &mut Criterion) {
    let mut group = c.benchmark_group("fs_io");
    group.sample_size(20);
    let fs = BurstBufferFs::with_stripe_config(4, StripeConfig::new(1 << 20, 4));
    fs.create("/bench", 0).unwrap();
    let block = vec![7u8; 1 << 20];
    group.bench_function("write_1MiB", |b| {
        let mut off = 0u64;
        b.iter(|| {
            fs.write_at("/bench", off % (64 << 20), &block, 1).unwrap();
            off += 1 << 20;
        })
    });
    fs.write_at("/bench", 0, &vec![1u8; 8 << 20], 2).unwrap();
    group.bench_function("read_1MiB", |b| {
        let mut off = 0u64;
        b.iter(|| {
            let d = fs.read_at("/bench", off % (8 << 20), 1 << 20).unwrap();
            off += 1 << 20;
            d
        })
    });
    group.bench_function("stat", |b| b.iter(|| fs.stat("/bench").unwrap()));
    group.finish();
}

/// The capacity tier's extent checksum over the same 1 MiB block that
/// `fs_io/write_1MiB` copies, so hash cost and copy cost read side by side.
fn bench_checksum(c: &mut Criterion) {
    let mut group = c.benchmark_group("checksum");
    group.sample_size(20);
    let block = vec![7u8; 1 << 20];
    group.bench_function("extent_checksum_1MiB", |b| {
        b.iter(|| extent_checksum(black_box(&block)))
    });
    group.finish();
}

/// One 1 MiB extent through the staging hand-offs: claim, guarded
/// write-back, mark clean, evict, verified restore. The restore pins the
/// extent dirty so the next iteration drains it again. Beside
/// `checksum/extent_checksum_1MiB` (two sums per round trip) this shows what
/// else a drained MiB costs, copies included.
fn bench_staging(c: &mut Criterion) {
    let mut group = c.benchmark_group("staging");
    group.sample_size(20);
    let fs = BurstBufferFs::new(1);
    fs.create("/stage", 0).unwrap();
    fs.write_at("/stage", 0, &vec![7u8; 1 << 20], 1).unwrap();
    let tier = CapacityTier::hdd();
    group.bench_function("drain_restore_1MiB", |b| {
        b.iter(|| {
            let (extent, generation) = fs.claim_for_copy_on(0, "/stage", 0).unwrap();
            assert!(write_back_guarded(&tier, "/stage", 0, extent, || true));
            assert!(fs.mark_clean_on(0, "/stage", 0, generation));
            assert_eq!(fs.evict_clean_on(0, 0).len(), 1);
            let restored = verified_extent(&tier, "/stage", 0).unwrap();
            fs.restore_extent_on(0, "/stage", 0, restored, true);
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_ring,
    bench_fs_io,
    bench_checksum,
    bench_staging
);
criterion_main!(benches);
