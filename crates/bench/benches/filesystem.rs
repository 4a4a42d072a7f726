//! Criterion micro-benchmarks of the user-space file system: consistent-hash
//! lookup, write/read round trips, metadata operations, the capacity tier's
//! extent checksum, and one extent's drain-and-restore round trip.
//!
//! Three 1 MiB writes sit side by side in `fs_io`: `write_1MiB` copies over
//! an existing extent, `write_fresh_1MiB` copies into a new one (allocate,
//! zero-fill, copy) and `write_owned_1MiB` keeps the caller's buffer as the
//! new extent, the path a server takes for a whole-extent write.
//! `small_rw_4096_paths` is the other end: 512 B calls over many small
//! files, where finding the file costs more than copying its bytes.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use themis_fs::{BurstBufferFs, Extent, HashRing, StripeConfig};
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
    // Each write lands in a new extent (the file is truncated every 64
    // writes): an allocation, a zero fill and a copy per MiB.
    fs.create("/fresh", 0).unwrap();
    group.bench_function("write_fresh_1MiB", |b| {
        let mut off = 0u64;
        b.iter(|| {
            if off.is_multiple_of(64 << 20) {
                fs.truncate("/fresh", 1).unwrap();
            }
            fs.write_at("/fresh", off % (64 << 20), &block, 1).unwrap();
            off += 1 << 20;
        })
    });
    // The same writes keeping the caller's buffer as the extent. At each
    // truncate the buffers come back out of the dropped extents, so the
    // loop times the write alone, not the caller's allocation and copy.
    fs.create("/owned", 0).unwrap();
    let layout = fs.layout_of("/owned").unwrap();
    let mut pool: Vec<Vec<u8>> = (0..64).map(|_| block.clone()).collect();
    group.bench_function("write_owned_1MiB", |b| {
        let mut off = 0u64;
        b.iter(|| {
            if off.is_multiple_of(64 << 20) {
                let held: Vec<Extent> = (0..64)
                    .filter_map(|s| {
                        let server = layout.server_for_stripe(s).unwrap().0;
                        fs.resident_extent_on(server, "/owned", s)
                    })
                    .collect();
                fs.truncate("/owned", 1).unwrap();
                pool.extend(held.into_iter().map(Extent::into_vec));
            }
            let mut buffer = pool.pop().unwrap();
            fs.write_at_owned_as("/owned", off % (64 << 20), &mut buffer, 1, None)
                .unwrap();
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
    bench_small_rw(&mut group);
    group.finish();
}

/// `fs_io/small_rw_4096_paths`: one 512 B `write_at` and one 512 B
/// `read_at` per iteration, each on a seeded file of 4 096 with 8 KiB
/// written, at a seeded block offset — the per-call shape of the
/// benchmark's `backlog_fair` workload.
fn bench_small_rw(group: &mut criterion::BenchmarkGroup<'_>) {
    const FILES: u64 = 4096;
    const FILE_BYTES: u64 = 8 << 10;
    const OP: u64 = 512;
    let fs = BurstBufferFs::new(1);
    fs.mkdir("/bl", 0).unwrap();
    let paths: Vec<String> = (0..FILES).map(|j| format!("/bl/j{j}")).collect();
    for p in &paths {
        fs.create(p, 0).unwrap();
        fs.write_at(p, 0, &[1u8; FILE_BYTES as usize], 0).unwrap();
    }
    let payload = [7u8; OP as usize];
    let mut seed = 0x5eed_u64;
    let mut next = move || {
        // xorshift64*: a seeded file and block per call.
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        let r = seed.wrapping_mul(0x2545_f491_4f6c_dd1d);
        ((r % FILES) as usize, (r >> 32) % (FILE_BYTES / OP) * OP)
    };
    group.bench_function("small_rw_4096_paths", |b| {
        b.iter(|| {
            let (file, offset) = next();
            fs.write_at(&paths[file], offset, &payload, 1).unwrap();
            let (file, offset) = next();
            black_box(fs.read_at(&paths[file], offset, OP).unwrap())
        })
    });
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
            let (extent, generation) = fs.copy_snapshot_on(0, "/stage", 0).unwrap();
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
