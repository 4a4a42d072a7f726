//! The per-layer budget, measured from outside: the workload's own operations
//! replayed single-threaded against an owned `ServerCore` with the benchmark
//! playing `server_loop`, then against each bare layer through its public
//! functions. Nothing here runs on a second thread, so nothing here waits.

use crate::cluster::{now_ns, timer_cost_ns, Cluster, StepTimes};
use crate::workloads::{self, Kind, OpRec, Spec, Stop, MIB};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;
use themisio::core::engine::PolicyEngine;
use themisio::core::job_table::JobTable;
use themisio::core::request::{Completion, IoRequest, OpKind};
use themisio::fs::OpenFlags;
use themisio::net::channel_pair;
use themisio::prelude::*;
use themisio::stage::{verified_read_back, ClassWeights};

/// What one stepped replay measured.
pub struct Replay {
    pub times: StepTimes,
    pub wall_ns: u64,
    pub recs: Vec<OpRec>,
    pub errors: Vec<String>,
}

impl Replay {
    pub fn ops_per_s(&self) -> f64 {
        self.recs.len() as f64 / (self.wall_ns as f64 / 1e9)
    }

    /// Mean duration of the client calls of one kind: with the server on the
    /// caller's thread, everything but waiting.
    pub fn mean_call_us(&self, kind: Kind) -> f64 {
        let of_kind = self.recs.iter().filter(|r| r.kind == kind);
        crate::analyze::mean(&of_kind.map(|r| r.lat_ns as f64 / 1e3).collect::<Vec<_>>())
    }
}

/// Applies the first `ops` generated operations of the workload (per client)
/// to a stepped cluster, with staging as given. Set-up traffic is excluded
/// from the timings.
pub fn stepped_replay(spec: &Spec, seed: u64, ops: u64, staging: bool) -> Replay {
    let cluster = Cluster::start(true, spec.servers, &spec.server_config(staging));
    // A flush needs staging to answer it.
    let mut workload = workloads::setup(spec, &cluster, seed, staging, || None);
    cluster.take_step_times();
    let t0 = now_ns();
    let recs = workload.drive(Stop::Ops(ops));
    let wall_ns = now_ns() - t0;
    let times = cluster.take_step_times();
    let mut errors = workload.finish().errors;
    let failed = recs.iter().filter(|r| !r.ok).count();
    if failed > 0 {
        errors.push(format!("{failed} operations failed in the stepped replay"));
    }
    drop(workload);
    cluster.shutdown();
    Replay {
        times,
        wall_ns,
        recs,
        errors,
    }
}

/// Keeps the last few buffers a bare layer returned alive while the next call
/// runs, as replies in flight to a client are. With nothing live above a
/// freed 1 MiB buffer, glibc trims the heap and regrows it for the next one,
/// and a loop of reads takes up to four times as long: that measures the
/// allocator, not the layer.
#[derive(Default)]
struct InFlight(std::collections::VecDeque<Vec<u8>>);

impl InFlight {
    fn hold(&mut self, reply: Vec<u8>) {
        self.0.push_back(reply);
        if self.0.len() > 4 {
            black_box(self.0.pop_front());
        }
    }
}

/// Median duration in ns of `f(0..n)`, each call timed on its own: for calls
/// that move 1 MiB the timer is free, and a median shrugs off the calls a
/// neighbour or a page-fault storm stretched.
fn median_each(n: u64, mut f: impl FnMut(u64)) -> f64 {
    let mut each = Vec::with_capacity(n as usize);
    for i in 0..n {
        each.push(timed(|| f(i)) as f64);
    }
    crate::stats::median(&each)
}

/// Runs `f` and returns its wall time with the timer's own cost removed.
fn timed(f: impl FnOnce()) -> u64 {
    let t0 = now_ns();
    f();
    (now_ns() - t0).saturating_sub(timer_cost_ns())
}

/// The scheduler-visible request stream of the workload: each job keeps
/// `depth` requests queued, a served job's slot is refilled, and requests
/// are selected, completed and re-admitted in batches so each of the three
/// calls is timed over many invocations.
pub struct EngineCost {
    pub admit_ns_per_op: f64,
    pub select_ns_per_op: f64,
    pub complete_ns_per_op: f64,
}

pub fn engine_cost(spec: &Spec, mut engine: Box<dyn PolicyEngine>, ops: u64) -> EngineCost {
    let policy = spec.parsed_policy();
    let mut table = JobTable::new();
    for &meta in &spec.jobs {
        table.heartbeat(meta, 0);
    }
    engine.reconfigure(&table, &policy);
    let depth = spec.depth;
    let mut seq = 0u64;
    let mut request = |meta: JobMeta, now: u64| {
        seq += 1;
        let kind = if seq.is_multiple_of(2) {
            OpKind::Write
        } else {
            OpKind::Read
        };
        IoRequest::new(seq, meta, kind, spec.op_bytes, now)
    };
    for &meta in &spec.jobs {
        for _ in 0..depth {
            engine.admit(request(meta, 0));
        }
    }
    let batch = (spec.jobs.len() * depth).min(64);
    let mut rng = SmallRng::seed_from_u64(ServerConfig::default().rng_seed);
    let (mut admit, mut select, mut complete) = (0u64, 0u64, 0u64);
    let mut picked: Vec<IoRequest> = Vec::with_capacity(batch);
    let mut done = 0u64;
    while done < ops {
        let now = now_ns();
        select += timed(|| {
            for _ in 0..batch {
                picked.extend(engine.select(now, &mut rng));
            }
        });
        complete += timed(|| {
            for &request in &picked {
                engine.complete(&Completion {
                    request,
                    start_ns: now,
                    finish_ns: now + 1_000,
                });
            }
        });
        let refill: Vec<IoRequest> = picked.iter().map(|r| request(r.meta, now)).collect();
        admit += timed(|| {
            for r in refill {
                engine.admit(r);
            }
        });
        assert_eq!(picked.len(), batch, "a backlogged engine must release work");
        done += picked.len() as u64;
        picked.clear();
    }
    let per = |total: u64| total as f64 / done as f64;
    EngineCost {
        admit_ns_per_op: per(admit),
        select_ns_per_op: per(select),
        complete_ns_per_op: per(complete),
    }
}

/// Mean cost of the share refresh a heartbeat triggers on the server.
pub fn refresh_ns(spec: &Spec) -> f64 {
    let policy = spec.parsed_policy();
    let mut engine = spec.server_config(false).algorithm.build();
    let mut table = JobTable::new();
    for &meta in &spec.jobs {
        table.heartbeat(meta, 0);
    }
    engine.reconfigure(&table, &policy);
    const ROUNDS: u64 = 200;
    let total = timed(|| {
        for i in 0..ROUNDS {
            table.heartbeat(spec.jobs[i as usize % spec.jobs.len()], i + 1);
            engine.reconfigure(&table, &policy);
        }
    });
    total as f64 / ROUNDS as f64
}

pub struct FsCost {
    pub write_ns_per_mib: f64,
    pub read_ns_per_mib: f64,
    pub small_op_ns: f64,
}

/// The bare file system at the workload's file count, file size and
/// operation size, plus a mix of small operations.
pub fn fs_cost(spec: &Spec, ops: u64) -> FsCost {
    let fs = BurstBufferFs::new(spec.servers);
    let (files, file_bytes) = (spec.jobs.len(), spec.file_bytes);
    fs.mkdir_all("/bare", 0).expect("bare fs: mkdir");
    let paths: Vec<String> = (0..files).map(|i| format!("/bare/f{i}")).collect();
    let chunk = vec![0xa5u8; file_bytes.min(MIB) as usize];
    for p in &paths {
        fs.create(p, 0).expect("bare fs: create");
        for off in (0..file_bytes).step_by(chunk.len()) {
            fs.write_at(p, off, &chunk, 0)
                .expect("bare fs: first touch");
        }
    }
    let at = |i: u64| {
        let file = &paths[i as usize % files];
        let offset = i / files as u64 * spec.op_bytes % file_bytes;
        (file, offset)
    };
    let buf = vec![0x5au8; spec.op_bytes as usize];
    let write = median_each(ops, |i| {
        let (p, off) = at(i);
        black_box(fs.write_at(p, off, &buf, i).expect("bare fs: write"));
    });
    let mut in_flight = InFlight::default();
    let read = median_each(ops, |i| {
        let (p, off) = at(i);
        in_flight.hold(fs.read_at(p, off, spec.op_bytes).expect("bare fs: read"));
    });
    let small = spec.op_bytes.min(4096);
    let small_buf = vec![1u8; small as usize];
    let rounds = ops.clamp(1, 20_000);
    let mixed = timed(|| {
        for i in 0..rounds {
            let p = &paths[i as usize % files];
            black_box(
                fs.write_at(p, 0, &small_buf, i)
                    .expect("bare fs: small write"),
            );
            black_box(fs.read_at(p, 0, small).expect("bare fs: small read"));
            let fd = fs
                .open(p, OpenFlags::read_only(), i)
                .expect("bare fs: open");
            fs.close(fd).expect("bare fs: close");
            black_box(fs.stat(p).expect("bare fs: stat"));
        }
    });
    let op_mib = spec.op_bytes as f64 / MIB as f64;
    FsCost {
        write_ns_per_mib: write / op_mib,
        read_ns_per_mib: read / op_mib,
        small_op_ns: mixed as f64 / (rounds * 4) as f64,
    }
}

pub fn device_dispatch_ns(spec: &Spec, ops: u64) -> f64 {
    let mut timeline = DeviceTimeline::new(DeviceModel::new(DeviceConfig::optane_ssd()));
    let requests: Vec<IoRequest> = (0..ops.min(4096))
        .map(|i| IoRequest::write(i, spec.jobs[i as usize % spec.jobs.len()], spec.op_bytes, i))
        .collect();
    let rounds = ops.max(1).div_ceil(requests.len() as u64);
    let total = timed(|| {
        for round in 0..rounds {
            for r in &requests {
                black_box(timeline.dispatch(r, round));
            }
        }
    });
    total as f64 / (rounds * requests.len() as u64) as f64
}

/// One thread sending and receiving the workload's request and reply
/// messages over an in-process endpoint pair. Messages are built outside the
/// timed region; a payload is moved, never copied, so this stays flat in the
/// payload size until a copy appears in `net`.
pub fn net_hop_ns(spec: &Spec, msgs: u64) -> f64 {
    const BATCH: usize = 16;
    let meta = spec.jobs[0];
    let mut requests: Vec<ClientMessage> = (0..BATCH as u64)
        .map(|i| ClientMessage::Io {
            request_id: i,
            meta,
            op: if i % 2 == 0 {
                FsOp::WriteAt {
                    path: "/net/f".into(),
                    offset: 0,
                    data: vec![7; spec.op_bytes as usize],
                }
            } else {
                FsOp::ReadAt {
                    path: "/net/f".into(),
                    offset: 0,
                    len: spec.op_bytes,
                }
            },
        })
        .collect();
    let mut replies: Vec<ServerMessage> = (0..BATCH as u64)
        .map(|i| ServerMessage::IoReply {
            request_id: i,
            reply: if i % 2 == 0 {
                FsReply::Count(spec.op_bytes)
            } else {
                FsReply::Data(vec![7; spec.op_bytes as usize])
            },
        })
        .collect();
    let (client_tx, server_rx) = channel_pair::<ClientMessage>();
    let (server_tx, client_rx) = channel_pair::<ServerMessage>();
    let rounds = msgs.max(1).div_ceil(2 * BATCH as u64);
    let mut total = 0u64;
    for _ in 0..rounds {
        total += timed(|| {
            for m in requests.drain(..) {
                client_tx.send(m).expect("endpoint pair alive");
            }
            for m in replies.drain(..) {
                server_tx.send(m).expect("endpoint pair alive");
            }
            for _ in 0..BATCH {
                requests.push(server_rx.recv().expect("endpoint pair alive"));
                replies.push(client_rx.recv().expect("endpoint pair alive"));
            }
        });
    }
    total as f64 / (rounds * 2 * BATCH as u64) as f64
}

/// `CapacityTier::write_back` and `verified_read_back` on 1 MiB extents:
/// `(write, read)` in ns per MiB.
pub fn backing_cost(extents: u64) -> (f64, f64) {
    let tier = CapacityTier::new(DeviceConfig::optane_ssd());
    let extent = vec![0x3cu8; MIB as usize];
    const RESIDENT: u64 = 64;
    let n = extents.max(1);
    let write = median_each(n, |i| tier.write_back("/bare/ckpt", i % RESIDENT, &extent));
    let mut in_flight = InFlight::default();
    let read = median_each(n, |i| {
        let extent = verified_read_back(&tier, "/bare/ckpt", i % RESIDENT.min(n));
        in_flight.hold(extent.expect("bare tier: extent was written back"));
    });
    (write, read)
}

/// The registry at the workload's series count: the counter-plus-histogram
/// pair the completion path records (`ns`), and a full snapshot (`µs`).
pub fn telemetry_cost(spec: &Spec) -> (f64, f64) {
    let registry = MetricsRegistry::new();
    let mut handles = Vec::new();
    for server in 0..spec.servers {
        for meta in &spec.jobs {
            let key = SeriesKey::tenant(server, meta.job.0);
            handles.push((
                registry.counter(key, "ops_completed"),
                registry.histogram(key, "service_ns"),
            ));
            // The other two per-tenant series the server keeps.
            registry.counter(key, "bytes_completed");
            registry.histogram(key, "queue_delay_ns");
        }
    }
    const RECORDS: u64 = 1_000_000;
    let record = timed(|| {
        for i in 0..RECORDS {
            let (counter, histogram) = &handles[i as usize % handles.len()];
            counter.inc();
            histogram.record(i);
        }
    });
    const SNAPSHOTS: u64 = 5;
    let snapshot = timed(|| {
        for i in 0..SNAPSHOTS {
            black_box(registry.snapshot(i));
        }
    });
    (
        record as f64 / RECORDS as f64,
        snapshot as f64 / SNAPSHOTS as f64 / 1e3,
    )
}

/// The bare engines the workload's configuration builds.
pub fn bare_engine(spec: &Spec) -> Box<dyn PolicyEngine> {
    spec.server_config(false).algorithm.build()
}

pub fn staged_engine(spec: &Spec) -> Box<dyn PolicyEngine> {
    Box::new(StagedEngine::with_weights(
        bare_engine(spec),
        ClassWeights::default(),
    ))
}

/// Mean bare-`fs` cost of one of the workload's data operations.
pub fn fs_ns_per_data_op(spec: &Spec, fs: &FsCost, recs: &[OpRec]) -> f64 {
    let data = |k: Kind| recs.iter().filter(|r| r.kind == k).count() as f64;
    let (w, r) = (data(Kind::Write), data(Kind::Read));
    let mib = spec.op_bytes as f64 / MIB as f64;
    (w * fs.write_ns_per_mib + r * fs.read_ns_per_mib) * mib / (w + r).max(1.0)
}
