//! The four workloads. Each is written once against [`Link`], so the same
//! driver produces the end-to-end numbers on the threaded deployment and the
//! stepped replay on an owned `ServerCore`. Why each exists is in
//! `BENCHMARK.json` and `README.md`; the constants here are its shape.

use crate::cluster::{now_ns, Cluster, Link, SpanLog};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;
use themisio::fs::ring::stable_hash;
use themisio::fs::FsResult;
use themisio::net::ServerMessage;
use themisio::prelude::*;
use themisio::stage::DrainStatus;
use themisio::telemetry::MetricValue;

pub const MIB: u64 = 1 << 20;
pub const NAMES: [&str; 4] = ["paced_small", "stream_large", "backlog_fair", "staged_ckpt"];

const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// What an operation was, for throughput and latency accounting. `Create`
/// and `Flush` count towards the time a client spends writing, `Unlink`
/// towards reading.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Write,
    Read,
    Create,
    Flush,
    Unlink,
}

/// One completed (or failed) client operation.
#[derive(Debug, Clone, Copy)]
pub struct OpRec {
    pub end_ns: u64,
    pub lat_ns: u64,
    pub bytes: u32,
    pub kind: Kind,
    /// Index into [`Spec::jobs`].
    pub tenant: u16,
    pub ok: bool,
}

/// When a drive call stops issuing new work.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// At this time on the benchmark clock.
    At(u64),
    /// After this many operations per client.
    Ops(u64),
}

impl Stop {
    fn done(self, ops: u64, now: u64) -> bool {
        match self {
            Stop::At(t) => now >= t,
            Stop::Ops(n) => ops >= n,
        }
    }
}

/// The static shape of a workload.
pub struct Spec {
    pub name: &'static str,
    pub servers: usize,
    pub policy: &'static str,
    pub staging: bool,
    /// Requests overlap on a connection, so throughput is bytes over wall
    /// time; otherwise each client blocks per call and throughput is the sum
    /// over clients of bytes over time blocked.
    pub pipelined: bool,
    /// Requests each job keeps queued at the server. Above one, the server
    /// is never idle when a request arrives.
    pub depth: usize,
    /// Size of the workload's data operation.
    pub op_bytes: u64,
    /// Size of each tenant's file (of each checkpoint on `staged_ckpt`).
    pub file_bytes: u64,
    /// The end-to-end metric tracing overhead is judged on.
    pub headline: &'static str,
    /// Operations the stepped replay applies at full length.
    pub replay_ops: u64,
    /// Benchmark threads generating load (the deployment adds one per server).
    pub client_threads: usize,
    pub jobs: Vec<JobMeta>,
}

const PACED_TENANTS: usize = 2;
const PACED_RATE_PER_S: f64 = 1000.0;
const PACED_OP: u64 = 4096;
const PACED_FILE: u64 = 4 * MIB;

const STREAM_CLIENTS: usize = 2;
const STREAM_BLOCKS: u64 = 128;

const BACKLOG_GROUPS: u64 = 4;
const BACKLOG_USERS_PER_GROUP: u64 = 16;
const BACKLOG_JOBS_PER_USER: u64 = 64;
const BACKLOG_JOBS: usize =
    (BACKLOG_GROUPS * BACKLOG_USERS_PER_GROUP * BACKLOG_JOBS_PER_USER) as usize;
const BACKLOG_DEPTH: usize = 2;
const BACKLOG_OP: u64 = 512;
const BACKLOG_FILE: u64 = 8192;

const CKPT_CLIENTS: usize = 2;
/// 1 MiB blocks per checkpoint cycle, split evenly over the clients.
const CKPT_BLOCKS: u64 = 64;
const CKPT_HIGH_WATERMARK: u64 = 96 * MIB;
const CKPT_LOW_WATERMARK: u64 = 64 * MIB;

pub fn spec(name: &str) -> Option<Spec> {
    let two_tenants = || {
        (1..=2u32)
            .map(|i| JobMeta::new(u64::from(i), i, i, 4))
            .collect()
    };
    Some(match name {
        "paced_small" => Spec {
            name: "paced_small",
            servers: 1,
            policy: "size-fair",
            staging: false,
            pipelined: true,
            depth: 1,
            op_bytes: PACED_OP,
            file_bytes: PACED_FILE,
            headline: "lat_p50_us",
            replay_ops: 200_000,
            client_threads: 1,
            jobs: two_tenants(),
        },
        "stream_large" => Spec {
            name: "stream_large",
            servers: 2,
            policy: "size-fair",
            staging: false,
            pipelined: false,
            depth: 1,
            op_bytes: MIB,
            file_bytes: STREAM_BLOCKS * MIB,
            headline: "write_mib_s",
            replay_ops: 2048,
            client_threads: STREAM_CLIENTS,
            jobs: two_tenants(),
        },
        "backlog_fair" => Spec {
            name: "backlog_fair",
            servers: 1,
            policy: "group-user-size-fair",
            staging: false,
            pipelined: true,
            depth: BACKLOG_DEPTH,
            op_bytes: BACKLOG_OP,
            file_bytes: BACKLOG_FILE,
            headline: "ops_per_s",
            replay_ops: 200_000,
            client_threads: 1,
            // Every user holds the same 1/2/4/8 node mix, so a size class's
            // entitled share is nodes/15 and a group's is 1/4.
            jobs: (0..BACKLOG_JOBS as u64)
                .map(|j| {
                    JobMeta::new(
                        j + 1,
                        (j / BACKLOG_JOBS_PER_USER) as u32 + 1,
                        (j / (BACKLOG_JOBS_PER_USER * BACKLOG_USERS_PER_GROUP)) as u32 + 1,
                        1 << (j % 4),
                    )
                })
                .collect(),
        },
        "staged_ckpt" => Spec {
            name: "staged_ckpt",
            servers: 1,
            policy: "size-fair",
            staging: true,
            pipelined: false,
            depth: 1,
            op_bytes: MIB,
            file_bytes: CKPT_BLOCKS / CKPT_CLIENTS as u64 * MIB,
            headline: "write_mib_s",
            replay_ops: 2048,
            client_threads: CKPT_CLIENTS,
            jobs: two_tenants(),
        },
        _ => return None,
    })
}

impl Spec {
    pub fn parsed_policy(&self) -> Policy {
        self.policy
            .parse()
            .expect("workload policies are valid DSL")
    }

    /// The server configuration, with staging forced on or off for the
    /// replay that prices staging on identical operations. The server's
    /// `rng_seed` stays at its default: the program receives only generated
    /// inputs.
    pub fn server_config(&self, staging: bool) -> ServerConfig {
        ServerConfig {
            algorithm: Algorithm::Themis(self.parsed_policy()),
            device: DeviceConfig::optane_ssd(),
            staging: staging.then(|| StagingConfig {
                // The capacity tier gets the fast preset, as
                // tests/staging_drain.rs does: software and policy weight,
                // not a modelled disk, bound the result.
                backing_device: DeviceConfig::optane_ssd(),
                drain: DrainConfig {
                    high_watermark_bytes: CKPT_HIGH_WATERMARK,
                    low_watermark_bytes: CKPT_LOW_WATERMARK,
                    ..DrainConfig::default()
                },
                ..StagingConfig::default()
            }),
            ..ServerConfig::default()
        }
    }
}

/// What a workload reports once its last window has closed.
#[derive(Default)]
pub struct Finish {
    /// Output checks that failed; any entry makes the run incorrect.
    pub errors: Vec<String>,
    /// Workload-specific per-layer values.
    pub extras: Vec<(&'static str, f64)>,
}

pub trait Workload {
    /// Generates load until `stop`, then waits for every outstanding reply.
    fn drive(&mut self, stop: Stop) -> Vec<OpRec>;
    /// Full verification and server-side cross-checks after the last window.
    fn finish(&mut self) -> Finish;
}

/// Builds the workload's tenants, files and first-touch data on `cluster`:
/// everything `setup_s` times.
pub fn setup(
    spec: &Spec,
    cluster: &Cluster,
    seed: u64,
    flush: bool,
    mut log: impl FnMut() -> Option<Arc<SpanLog>>,
) -> Box<dyn Workload> {
    match spec.name {
        "paced_small" => Box::new(PacedSmall::setup(spec, cluster, seed, &mut log)),
        "stream_large" => Box::new(StreamLarge::setup(spec, cluster, seed, &mut log)),
        "backlog_fair" => Box::new(BacklogFair::setup(spec, cluster, seed, &mut log)),
        "staged_ckpt" => Box::new(StagedCkpt::setup(spec, cluster, seed, flush, &mut log)),
        other => unreachable!("no workload named {other}"),
    }
}

/// A stable 64-bit digest of the first `k` generated operations of a
/// workload, for the determinism test and for telling result files of
/// different inputs apart.
pub fn op_list_hash(name: &str, seed: u64, k: usize) -> u64 {
    let mut words: Vec<u64> = Vec::new();
    match name {
        "paced_small" => {
            let mut gen = PacedGen::new(seed);
            for _ in 0..k {
                let op = gen.next_op();
                words.extend([op.gap_ns, op.tenant as u64, op.write as u64, op.offset]);
                words.push(u64::from(op.fill));
            }
        }
        "stream_large" => {
            for c in 0..STREAM_CLIENTS {
                words.extend(block_order(seed, c).iter().map(|&b| b as u64));
                words.extend(payload_words(&payload_base(seed, c)));
            }
        }
        "backlog_fair" => {
            words.extend(backlog_prime_order(seed, 0).iter().map(|&s| s as u64));
            for i in 0..k {
                let (write, offset, fill) =
                    backlog_op(seed, i % BACKLOG_JOBS, (i / BACKLOG_JOBS) as u32);
                words.extend([write as u64, offset, u64::from(fill)]);
            }
        }
        "staged_ckpt" => {
            for c in 0..CKPT_CLIENTS {
                words.extend(payload_words(&payload_base(seed, c)));
            }
        }
        _ => {}
    }
    words.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |h, w| {
        (h ^ w).wrapping_mul(0x1000_0000_01b3).rotate_left(23)
    })
}

/// A payload as little-endian words (its length is a multiple of eight).
fn payload_words(payload: &[u8]) -> impl Iterator<Item = u64> + '_ {
    let word = |c: &[u8]| u64::from_le_bytes(c.try_into().expect("chunks of eight"));
    payload.chunks_exact(8).map(word)
}

// ------------------------------------------------------- raw-link helpers

/// Set-up traffic on a raw link, pipelined like the workloads themselves:
/// everything is sent before the first reply is awaited, so set-up time is
/// the server's work and not one idle wake-up per request. Replies are
/// collected between short sleeps rather than by a blocking receive: woken
/// once per reply, this thread takes the processor from the server thread
/// whenever the two share one, and set-up time doubles on the scheduler's
/// whim. Requests of one job are served in order; set-up must not fail.
fn setup_pipelined(
    link: &Link,
    hellos: &[JobMeta],
    ops: impl IntoIterator<Item = (JobMeta, FsOp)>,
) {
    let mut awaited = hellos.len();
    for &meta in hellos {
        link.send(ClientMessage::Hello { meta });
    }
    for (meta, op) in ops {
        link.send(ClientMessage::Io {
            request_id: 0,
            meta,
            op,
        });
        awaited += 1;
    }
    let deadline = now_ns() + REPLY_TIMEOUT.as_nanos() as u64;
    while awaited > 0 {
        while let Some(msg) = link.poll() {
            match msg {
                ServerMessage::IoReply {
                    reply: FsReply::Error(e),
                    ..
                } => {
                    panic!("set-up request failed: {e}")
                }
                ServerMessage::IoReply { .. } | ServerMessage::Ack { .. } => awaited -= 1,
                other => panic!("set-up: expected an acknowledgement or a reply, got {other:?}"),
            }
        }
        assert!(now_ns() < deadline, "set-up: {awaited} replies never came");
        if awaited > 0 {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

/// A data request on a raw link, remembered until its reply arrives.
struct Pending {
    id: u64,
    start_ns: u64,
    sent_ns: u64,
    write: bool,
    len: u64,
}

impl Pending {
    /// Every reply is checked for kind and length.
    fn reply_ok(&self, id: u64, reply: &FsReply) -> bool {
        id == self.id
            && match reply {
                FsReply::Count(n) => self.write && *n == self.len,
                FsReply::Data(d) => !self.write && d.len() as u64 == self.len,
                _ => false,
            }
    }

    fn rec(&self, tenant: usize, now: u64, ok: bool) -> OpRec {
        OpRec {
            end_ns: now,
            lat_ns: now.saturating_sub(self.start_ns),
            bytes: self.len as u32,
            kind: if self.write { Kind::Write } else { Kind::Read },
            tenant: tenant as u16,
            ok,
        }
    }
}

/// `0..n` in a seeded random order (Fisher–Yates).
fn shuffled(n: usize, rng_seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut r = SmallRng::seed_from_u64(rng_seed);
    for i in (1..n).rev() {
        order.swap(i, r.gen_range(0..i + 1));
    }
    order
}

fn data_op(path: &str, write: bool, offset: u64, len: u64, fill: u8) -> FsOp {
    if write {
        FsOp::WriteAt {
            path: path.to_string(),
            offset,
            data: vec![fill; len as usize],
        }
    } else {
        FsOp::ReadAt {
            path: path.to_string(),
            offset,
            len,
        }
    }
}

// ------------------------------------------------------------ paced_small

struct PacedOp {
    gap_ns: u64,
    tenant: usize,
    write: bool,
    offset: u64,
    fill: u8,
}

struct PacedGen(SmallRng);

impl PacedGen {
    fn new(seed: u64) -> Self {
        PacedGen(SmallRng::seed_from_u64(seed ^ 0x7061_6365))
    }

    fn next_op(&mut self) -> PacedOp {
        let u: f64 = self.0.gen();
        PacedOp {
            // Exponential gaps: Poisson arrivals at the total rate.
            gap_ns: (-(1.0 - u).ln() / PACED_RATE_PER_S * 1e9) as u64,
            tenant: self.0.gen_range(0..PACED_TENANTS),
            write: self.0.gen(),
            offset: self.0.gen_range(0..PACED_FILE / PACED_OP) * PACED_OP,
            fill: self.0.gen_range(0..256u32) as u8,
        }
    }
}

/// Open loop: one generator thread, one connection per tenant, requests sent
/// on a Poisson schedule whether or not earlier ones have been answered, and
/// timed from when they were due.
struct PacedSmall {
    links: Vec<Link>,
    metas: Vec<JobMeta>,
    paths: Vec<String>,
    gen: PacedGen,
    next_id: u64,
    late_ns: Vec<u64>,
}

impl PacedSmall {
    fn setup(
        spec: &Spec,
        cluster: &Cluster,
        seed: u64,
        log: &mut dyn FnMut() -> Option<Arc<SpanLog>>,
    ) -> Self {
        // One log for the one generator thread.
        let log = log();
        let links: Vec<Link> = (0..PACED_TENANTS)
            .map(|_| cluster.connect(0, log.clone()))
            .collect();
        let paths: Vec<String> = (0..PACED_TENANTS).map(|t| format!("/paced/t{t}")).collect();
        for (t, link) in links.iter().enumerate() {
            let meta = spec.jobs[t];
            let stripe = StripeConfig::default();
            let create = [
                FsOp::Mkdir {
                    path: "/paced".into(),
                },
                FsOp::CreateStriped {
                    path: paths[t].clone(),
                    stripe,
                },
            ];
            // First touch with the tenant's seeded pattern, in few large
            // requests: the fewer messages cross between the two threads,
            // the less set-up time depends on whether the scheduler put
            // them on one processor or two.
            let pattern = payload_base(seed, t);
            let touch = (0..PACED_FILE)
                .step_by(pattern.len())
                .map(|offset| FsOp::WriteAt {
                    path: paths[t].clone(),
                    offset,
                    data: pattern.clone(),
                });
            setup_pipelined(
                link,
                &[meta],
                create.into_iter().chain(touch).map(|op| (meta, op)),
            );
        }
        PacedSmall {
            links,
            metas: spec.jobs.clone(),
            paths,
            gen: PacedGen::new(seed),
            next_id: 1,
            late_ns: Vec::new(),
        }
    }

    fn send(&mut self, op: &PacedOp, start_ns: u64) -> Pending {
        let id = self.next_id;
        self.next_id += 1;
        self.links[op.tenant].send(ClientMessage::Io {
            request_id: id,
            meta: self.metas[op.tenant],
            op: data_op(
                &self.paths[op.tenant],
                op.write,
                op.offset,
                PACED_OP,
                op.fill,
            ),
        });
        Pending {
            id,
            start_ns,
            sent_ns: now_ns(),
            write: op.write,
            len: PACED_OP,
        }
    }

    /// Takes every waiting reply without blocking. Each connection carries
    /// one tenant, whose replies come back in order.
    fn collect(&self, inflight: &mut [VecDeque<Pending>], recs: &mut Vec<OpRec>) {
        for (t, link) in self.links.iter().enumerate() {
            while let Some(msg) = link.poll() {
                let now = now_ns();
                let ServerMessage::IoReply { request_id, reply } = msg else {
                    continue;
                };
                let Some(p) = inflight[t].pop_front() else {
                    continue;
                };
                recs.push(p.rec(t, now, p.reply_ok(request_id, &reply)));
                if let Some(log) = link.log() {
                    log.record("net.wait", p.sent_ns, now, p.id);
                    log.record("client.call", p.start_ns, now, p.id);
                }
            }
        }
    }
}

impl Workload for PacedSmall {
    fn drive(&mut self, stop: Stop) -> Vec<OpRec> {
        let mut recs = Vec::new();
        let mut inflight: Vec<VecDeque<Pending>> = vec![VecDeque::new(), VecDeque::new()];
        // On a stepped cluster there is no second thread to pace against:
        // apply the same operations one at a time to an idle server.
        let paced = matches!(self.links[0], Link::Threaded { .. });
        let mut due = now_ns();
        let mut sent = 0u64;
        loop {
            // Pace by spinning, never by sleeping: a sleeping generator
            // phase-locks with the server's own idle sleep (see README).
            // Yielding between polls is free while the generator has a
            // processor to itself; when the scheduler has put the server
            // thread on the same one, it lets a woken server run at once
            // rather than at the generator's next preemption. Without it
            // the median is 120 us on one processor and 95 us on two, and
            // which of the two it is changes from one batch of runs to the
            // next.
            loop {
                self.collect(&mut inflight, &mut recs);
                if !paced || now_ns() >= due {
                    break;
                }
                std::thread::yield_now();
            }
            if stop.done(sent, due) {
                break;
            }
            let op = self.gen.next_op();
            let start = if paced { due } else { now_ns() };
            self.late_ns.push(now_ns().saturating_sub(start));
            let pending = self.send(&op, start);
            inflight[op.tenant].push_back(pending);
            sent += 1;
            due = if paced { due + op.gap_ns } else { now_ns() };
            while !paced && inflight.iter().any(|q| !q.is_empty()) {
                self.collect(&mut inflight, &mut recs);
            }
        }
        let deadline = now_ns() + REPLY_TIMEOUT.as_nanos() as u64;
        while inflight.iter().any(|q| !q.is_empty()) && now_ns() < deadline {
            self.collect(&mut inflight, &mut recs);
        }
        // Whatever is still unanswered has timed out: a failed operation.
        for (t, q) in inflight.iter().enumerate() {
            recs.extend(q.iter().map(|p| p.rec(t, now_ns(), false)));
        }
        recs
    }

    fn finish(&mut self) -> Finish {
        let mut late = std::mem::take(&mut self.late_ns);
        late.sort_unstable();
        let (p99, _) = crate::stats::percentile_or_highest(&late, 0.99);
        Finish {
            errors: Vec::new(),
            extras: vec![("client.gen_late_p99_us", p99 as f64 / 1e3)],
        }
    }
}

// ----------------------------------------------------------- backlog_fair

/// The `k`-th operation of job `job`: `(write, offset, fill)`.
fn backlog_op(seed: u64, job: usize, k: u32) -> (bool, u64, u8) {
    let mut r = SmallRng::seed_from_u64(seed ^ ((job as u64) << 32 | u64::from(k)));
    let w = r.next_u64();
    (
        w & 1 == 0,
        (w >> 8) % (BACKLOG_FILE / BACKLOG_OP) * BACKLOG_OP,
        (w >> 1) as u8,
    )
}

/// The seeded order in which a drive call issues the first request of every
/// (job, depth) slot.
fn backlog_prime_order(seed: u64, round: u64) -> Vec<usize> {
    shuffled(
        BACKLOG_JOBS * BACKLOG_DEPTH,
        seed ^ 0x6261_636b ^ round << 40,
    )
}

/// Closed loop, pipelined: one generator thread and one connection keep two
/// requests of every job outstanding, refilling a job's slot when its reply
/// arrives, so the server is never idle and every queue is always backlogged.
struct BacklogFair {
    link: Link,
    metas: Vec<JobMeta>,
    paths: Vec<String>,
    seed: u64,
    /// Operations issued so far per job (the `k` of [`backlog_op`]).
    issued: Vec<u32>,
    /// Replies received per job since the deployment started, set-up included.
    completed: Vec<u64>,
    rounds: u64,
    next_seq: u64,
}

const SLOT_BITS: u32 = 13;
const _: () = assert!(BACKLOG_JOBS * BACKLOG_DEPTH == 1 << SLOT_BITS);

impl BacklogFair {
    fn setup(
        spec: &Spec,
        cluster: &Cluster,
        seed: u64,
        log: &mut dyn FnMut() -> Option<Arc<SpanLog>>,
    ) -> Self {
        let link = cluster.connect(0, log());
        let metas = spec.jobs.clone();
        let paths: Vec<String> = (0..BACKLOG_JOBS).map(|j| format!("/bl/j{j}")).collect();
        setup_pipelined(
            &link,
            &metas,
            [(metas[0], FsOp::Mkdir { path: "/bl".into() })],
        );
        // File creation and the first-touch write of every job.
        let stripe = StripeConfig::default();
        let files = paths
            .iter()
            .zip(&metas)
            .enumerate()
            .flat_map(|(j, (path, &meta))| {
                [
                    (
                        meta,
                        FsOp::CreateStriped {
                            path: path.clone(),
                            stripe,
                        },
                    ),
                    (meta, data_op(path, true, 0, BACKLOG_FILE, j as u8)),
                ]
            });
        setup_pipelined(&link, &[], files);
        let mut completed = vec![2u64; BACKLOG_JOBS];
        completed[0] += 1;
        BacklogFair {
            link,
            metas,
            paths,
            seed,
            issued: vec![0; BACKLOG_JOBS],
            completed,
            rounds: 0,
            next_seq: 1,
        }
    }

    fn send(&mut self, slot: usize) -> Pending {
        let job = slot / BACKLOG_DEPTH;
        let (write, offset, fill) = backlog_op(self.seed, job, self.issued[job]);
        self.issued[job] += 1;
        let id = self.next_seq << SLOT_BITS | slot as u64;
        self.next_seq += 1;
        let start_ns = now_ns();
        self.link.send(ClientMessage::Io {
            request_id: id,
            meta: self.metas[job],
            op: data_op(&self.paths[job], write, offset, BACKLOG_OP, fill),
        });
        Pending {
            id,
            start_ns,
            sent_ns: start_ns,
            write,
            len: BACKLOG_OP,
        }
    }
}

impl Workload for BacklogFair {
    fn drive(&mut self, stop: Stop) -> Vec<OpRec> {
        let mut recs = Vec::new();
        let order = backlog_prime_order(self.seed, self.rounds);
        self.rounds += 1;
        let mut pending: Vec<Option<Pending>> = (0..order.len()).map(|_| None).collect();
        let mut sent = 0u64;
        for slot in order {
            pending[slot] = Some(self.send(slot));
            sent += 1;
        }
        let mut outstanding = pending.len();
        while outstanding > 0 {
            let Some(msg) = self.link.recv(REPLY_TIMEOUT) else {
                break;
            };
            let now = now_ns();
            let ServerMessage::IoReply { request_id, reply } = msg else {
                continue;
            };
            let slot = (request_id & ((1 << SLOT_BITS) - 1)) as usize;
            let Some(p) = pending[slot].take() else {
                continue;
            };
            let job = slot / BACKLOG_DEPTH;
            self.completed[job] += 1;
            recs.push(p.rec(job, now, p.reply_ok(request_id, &reply)));
            if stop.done(sent, now) {
                outstanding -= 1;
            } else {
                pending[slot] = Some(self.send(slot));
                sent += 1;
            }
        }
        // A reply that never came is a failed operation.
        for (slot, p) in pending.iter().enumerate() {
            if let Some(p) = p {
                recs.push(p.rec(slot / BACKLOG_DEPTH, now_ns(), false));
            }
        }
        recs
    }

    /// The server's own per-tenant completion counters must equal what the
    /// client saw answered.
    fn finish(&mut self) -> Finish {
        let mut out = Finish::default();
        self.link
            .send(ClientMessage::MetricsSnapshot { request_id: 0 });
        let snapshot = loop {
            match self.link.recv(REPLY_TIMEOUT) {
                Some(ServerMessage::Stage {
                    reply: StageReply::Metrics(s),
                    ..
                }) => break s,
                Some(_) => continue,
                None => {
                    out.errors
                        .push("no metrics snapshot from the server".into());
                    return out;
                }
            }
        };
        let mut server_side = vec![0u64; BACKLOG_JOBS + 1];
        for p in &snapshot.points {
            if let (MetricValue::Counter(v), "foreground", "ops_completed") =
                (&p.value, p.lane.as_str(), p.name.as_str())
            {
                if let Some(slot) = server_side.get_mut(p.tenant as usize) {
                    *slot += v;
                }
            }
        }
        let mismatched = (0..BACKLOG_JOBS)
            .filter(|&j| server_side[j + 1] != self.completed[j])
            .count();
        if mismatched > 0 {
            out.errors.push(format!(
                "{mismatched} tenants' server-side ops_completed differ from the replies the client received"
            ));
        }
        out
    }
}

// ---------------------------------------------- 1 MiB block clients (shared)

/// The seeded 1 MiB pattern client `c` writes, stamped per block.
fn payload_base(seed: u64, c: usize) -> Vec<u8> {
    let mut base = vec![0u8; MIB as usize];
    SmallRng::seed_from_u64(seed ^ 0x7061_796c ^ (c as u64) << 48).fill_bytes(&mut base);
    base
}

const STAMP: usize = 16;

fn stamp(buf: &mut [u8], version: u64, block: u64) {
    let n = buf.len();
    for edge in [0, n - STAMP] {
        buf[edge..edge + 8].copy_from_slice(&version.to_le_bytes());
        buf[edge + 8..edge + STAMP].copy_from_slice(&block.to_le_bytes());
    }
}

/// A `ThemisClient` moving stamped 1 MiB blocks, one call at a time.
struct BlockClient {
    client: ThemisClient<Link>,
    log: Option<Arc<SpanLog>>,
    tenant: u16,
    base: Vec<u8>,
    buf: Vec<u8>,
    recs: Vec<OpRec>,
}

impl BlockClient {
    fn new(
        cluster: &Cluster,
        servers: usize,
        meta: JobMeta,
        tenant: usize,
        seed: u64,
        log: Option<Arc<SpanLog>>,
    ) -> Self {
        let links = (0..servers)
            .map(|s| cluster.connect(s, log.clone()))
            .collect();
        let client = ThemisClient::new(meta, links, Namespace::default_fs());
        assert_eq!(
            client.hello().len(),
            servers,
            "set-up: a server did not acknowledge hello"
        );
        let base = payload_base(seed, tenant);
        BlockClient {
            client,
            log,
            tenant: tenant as u16,
            buf: base.clone(),
            base,
            recs: Vec::new(),
        }
    }

    /// Times one client call (as a `client.call` span when tracing) and
    /// records it; returns the call's value and its end time.
    fn call<T>(
        &mut self,
        kind: Kind,
        bytes: u64,
        f: impl FnOnce(&ThemisClient<Link>, &[u8]) -> FsResult<T>,
        check: impl FnOnce(&T) -> bool,
    ) -> (Option<T>, u64) {
        let (client, buf) = (&self.client, &self.buf[..]);
        let t0 = now_ns();
        let result = match &self.log {
            Some(log) => log.call(|| f(client, buf)),
            None => f(client, buf),
        };
        let end_ns = now_ns();
        let value = result.ok().filter(check);
        self.recs.push(OpRec {
            end_ns,
            lat_ns: end_ns - t0,
            bytes: bytes as u32,
            kind,
            tenant: self.tenant,
            ok: value.is_some(),
        });
        (value, end_ns)
    }

    fn create(&mut self, path: &str) -> u64 {
        let create = |c: &ThemisClient<Link>, _: &[u8]| {
            c.open(path, true, true, false).and_then(|fd| c.close(fd))
        };
        self.call(Kind::Create, 0, create, |_| true).1
    }

    fn write_block(&mut self, path: &str, block: u64, version: u64) -> u64 {
        stamp(&mut self.buf, version, block);
        let write = |c: &ThemisClient<Link>, buf: &[u8]| c.write_at(path, block * MIB, buf);
        self.call(Kind::Write, MIB, write, |n| *n == MIB).1
    }

    /// Reads a block back and checks its length and both stamped edges;
    /// `exact` compares every byte (outside the timed call).
    fn read_block(&mut self, path: &str, block: u64, version: u64, exact: bool) -> u64 {
        let read = |c: &ThemisClient<Link>, _: &[u8]| c.read_at(path, block * MIB, MIB);
        let mut expect = [0u8; STAMP];
        stamp(&mut expect, version, block);
        let edges_ok = |d: &Vec<u8>| {
            d.len() == MIB as usize && d[..STAMP] == expect && d[d.len() - STAMP..] == expect
        };
        let (data, end_ns) = self.call(Kind::Read, MIB, read, edges_ok);
        if let (true, Some(d)) = (exact, data) {
            let body = STAMP..d.len() - STAMP;
            if d[body.clone()] != self.base[body] {
                self.recs.last_mut().expect("the read was just recorded").ok = false;
            }
        }
        end_ns
    }
}

/// Two barrier waits with the flag read in between: a thread only sets the
/// flag while working, never between the two waits, so every thread reads
/// the same value and all leave the loop together.
fn all_stop(barrier: &Barrier, flag: &AtomicBool) -> bool {
    barrier.wait();
    let stop = flag.load(Ordering::SeqCst);
    barrier.wait();
    stop
}

/// Runs `body` once per client on its own thread (in place for a single
/// client) and merges what they recorded.
fn run_clients<C: Send>(
    clients: &mut [C],
    body: impl Fn(&mut C, &Barrier, &AtomicBool) + Sync,
    recs: impl Fn(&mut C) -> Vec<OpRec>,
) -> Vec<OpRec> {
    let barrier = Barrier::new(clients.len());
    let flag = AtomicBool::new(false);
    if let [only] = clients {
        body(only, &barrier, &flag);
    } else {
        std::thread::scope(|s| {
            for c in clients.iter_mut() {
                s.spawn(|| body(c, &barrier, &flag));
            }
        });
    }
    clients.iter_mut().flat_map(recs).collect()
}

// ----------------------------------------------------------- stream_large

/// The seeded order in which client `c` visits its file's blocks in a pass.
fn block_order(seed: u64, c: usize) -> Vec<usize> {
    shuffled(
        STREAM_BLOCKS as usize,
        seed ^ 0x7374_726d ^ (c as u64) << 48,
    )
}

struct StreamClient {
    bc: BlockClient,
    path: String,
    order: Vec<usize>,
    /// Pass that last wrote each block: what a read must find stamped.
    versions: Vec<u64>,
    pass: u64,
}

/// Closed loop: each client owns one 128 MiB file on its own server and
/// alternates a 1 MiB write pass and a 1 MiB read pass over it, in step with
/// the other client.
struct StreamLarge {
    clients: Vec<StreamClient>,
}

impl StreamLarge {
    fn setup(
        spec: &Spec,
        cluster: &Cluster,
        seed: u64,
        log: &mut dyn FnMut() -> Option<Arc<SpanLog>>,
    ) -> Self {
        let stepped = matches!(cluster, Cluster::Stepped(_));
        let n = if stepped { 1 } else { STREAM_CLIENTS };
        let clients = (0..n)
            .map(|c| {
                let mut bc = BlockClient::new(cluster, spec.servers, spec.jobs[c], c, seed, log());
                // A name the client's path hash routes to server `c`, so the
                // two files are served by different servers.
                let path = (0..)
                    .map(|k| format!("/fs/stream/c{c}-{k}"))
                    .find(|p| {
                        let bb = p.strip_prefix("/fs").expect("literal prefix");
                        stable_hash(bb) % spec.servers as u64 == c as u64
                    })
                    .expect("some suffix hashes to every server");
                bc.client.mkdir_all("/fs/stream").expect("set-up: mkdir");
                bc.create(&path);
                for b in 0..STREAM_BLOCKS {
                    bc.write_block(&path, b, 0);
                }
                assert!(
                    bc.recs.iter().all(|r| r.ok),
                    "set-up: first-touch pass failed"
                );
                bc.recs.clear();
                StreamClient {
                    bc,
                    path,
                    order: block_order(seed, c),
                    versions: vec![0; STREAM_BLOCKS as usize],
                    pass: 0,
                }
            })
            .collect();
        StreamLarge { clients }
    }
}

impl StreamClient {
    fn run(&mut self, stop: Stop, barrier: &Barrier, flag: &AtomicBool) {
        let mut ops = 0u64;
        let mut now = now_ns();
        loop {
            self.pass += 1;
            for write in [true, false] {
                for i in 0..self.order.len() {
                    if flag.load(Ordering::SeqCst) || stop.done(ops, now) {
                        flag.store(true, Ordering::SeqCst);
                        break;
                    }
                    let b = self.order[i] as u64;
                    now = if write {
                        self.versions[b as usize] = self.pass;
                        self.bc.write_block(&self.path, b, self.pass)
                    } else {
                        self.bc
                            .read_block(&self.path, b, self.versions[b as usize], false)
                    };
                    ops += 1;
                }
                if all_stop(barrier, flag) {
                    return;
                }
            }
        }
    }
}

impl Workload for StreamLarge {
    fn drive(&mut self, stop: Stop) -> Vec<OpRec> {
        run_clients(
            &mut self.clients,
            |c, barrier, flag| c.run(stop, barrier, flag),
            |c| std::mem::take(&mut c.bc.recs),
        )
    }

    /// A full byte-exact pass over both files.
    fn finish(&mut self) -> Finish {
        let mut out = Finish::default();
        for c in &mut self.clients {
            for b in 0..STREAM_BLOCKS {
                c.bc.read_block(&c.path, b, c.versions[b as usize], true);
            }
            let bad = c.bc.recs.drain(..).filter(|r| !r.ok).count();
            if bad > 0 {
                out.errors.push(format!(
                    "{}: {bad} blocks differ from what was written",
                    c.path
                ));
            }
        }
        out
    }
}

// ------------------------------------------------------------ staged_ckpt

struct CkptClient {
    bc: BlockClient,
    dir: String,
    /// This client's share of [`CKPT_BLOCKS`].
    blocks: u64,
    cycle: u64,
    flush: bool,
    errors: Vec<String>,
}

impl CkptClient {
    fn step(&self, cycle: u64) -> String {
        format!("{}/step{cycle}", self.dir)
    }

    /// Creates and writes this cycle's checkpoint and flushes it to the
    /// capacity tier.
    fn checkpoint(&mut self) -> u64 {
        let path = self.step(self.cycle);
        self.bc.create(&path);
        for b in 0..self.blocks {
            self.bc.write_block(&path, b, self.cycle);
        }
        if !self.flush {
            return now_ns();
        }
        let flush = |c: &ThemisClient<Link>, _: &[u8]| c.flush(&path);
        let blocks = self.blocks;
        let whole = |staged: &u64| *staged == blocks * MIB;
        self.bc.call(Kind::Flush, 0, flush, whole).1
    }

    /// Reads the previous checkpoint back byte-exact — by now it has been
    /// evicted, so the reads park behind policy-admitted restores — and
    /// removes it.
    fn restart(&mut self) -> u64 {
        let prev = self.step(self.cycle - 1);
        for b in 0..self.blocks {
            self.bc.read_block(&prev, b, self.cycle - 1, true);
        }
        let unlink = |c: &ThemisClient<Link>, _: &[u8]| c.unlink(&prev);
        self.bc.call(Kind::Unlink, 0, unlink, |_| true).1
    }

    fn run(&mut self, stop: Stop, barrier: &Barrier, flag: &AtomicBool) {
        let mut ops = 0u64;
        loop {
            self.cycle += 1;
            self.checkpoint();
            // Both tenants have flushed: nothing may be dirty any more, or
            // the flush did not do what it acknowledged.
            all_stop(barrier, flag);
            if self.flush && self.bc.tenant == 0 {
                match self.bc.client.drain_status(0) {
                    Ok(DrainStatus { dirty_bytes: 0, .. }) => {}
                    other => self.errors.push(format!(
                        "cycle {}: after every flush was acknowledged: {other:?}",
                        self.cycle
                    )),
                }
            }
            let now = self.restart();
            ops += 2 * self.blocks + 3;
            if stop.done(ops, now) {
                flag.store(true, Ordering::SeqCst);
            }
            if all_stop(barrier, flag) {
                return;
            }
        }
    }
}

/// Closed loop: two tenants checkpoint through the staged engine in step —
/// write, flush, read the previous checkpoint back, unlink it — so every
/// cycle drains 64 MiB, evicts under the watermarks and restores.
struct StagedCkpt {
    clients: Vec<CkptClient>,
}

impl StagedCkpt {
    fn setup(
        spec: &Spec,
        cluster: &Cluster,
        seed: u64,
        flush: bool,
        log: &mut dyn FnMut() -> Option<Arc<SpanLog>>,
    ) -> Self {
        let stepped = matches!(cluster, Cluster::Stepped(_));
        let n = if stepped { 1 } else { CKPT_CLIENTS };
        let clients = (0..n)
            .map(|c| {
                let bc = BlockClient::new(cluster, spec.servers, spec.jobs[c], c, seed, log());
                let dir = format!("/fs/ck/t{c}");
                bc.client.mkdir_all(&dir).expect("set-up: mkdir");
                let blocks = CKPT_BLOCKS / n as u64;
                let mut client = CkptClient {
                    bc,
                    dir,
                    blocks,
                    cycle: 0,
                    flush,
                    errors: Vec::new(),
                };
                // Checkpoint 0, so the first measured cycle has one to read.
                client.checkpoint();
                assert!(
                    client.bc.recs.iter().all(|r| r.ok),
                    "set-up: first checkpoint failed"
                );
                client.bc.recs.clear();
                client
            })
            .collect();
        StagedCkpt { clients }
    }
}

impl Workload for StagedCkpt {
    fn drive(&mut self, stop: Stop) -> Vec<OpRec> {
        run_clients(
            &mut self.clients,
            |c, barrier, flag| c.run(stop, barrier, flag),
            |c| std::mem::take(&mut c.bc.recs),
        )
    }

    /// The workload must have exercised what it names: eviction and restore.
    fn finish(&mut self) -> Finish {
        let mut out = Finish::default();
        for c in &mut self.clients {
            out.errors.append(&mut c.errors);
        }
        let first = &self.clients[0];
        if !first.flush {
            return out;
        }
        let cycles = first.cycle.max(1) as f64;
        match first.bc.client.drain_status(0) {
            Ok(st) => {
                if st.evicted_bytes == 0 || st.restored_bytes == 0 {
                    out.errors.push(format!(
                        "staging was not exercised: evicted {} B, restored {} B",
                        st.evicted_bytes, st.restored_bytes
                    ));
                }
                let mib = MIB as f64;
                out.extras.extend([
                    (
                        "stage.drained_mib",
                        st.drained_bytes as f64 / mib / (cycles + 1.0),
                    ),
                    ("stage.evicted_mib", st.evicted_bytes as f64 / mib / cycles),
                    (
                        "stage.restored_mib",
                        st.restored_bytes as f64 / mib / cycles,
                    ),
                ]);
            }
            Err(e) => out.errors.push(format!("drain status: {e}")),
        }
        match first.bc.client.metrics_snapshot(0) {
            Ok(snap) => out.extras.push((
                "stage.parked_ops",
                snap.lane_counter_sum("foreground", "parked_ops") as f64 / cycles,
            )),
            Err(e) => out.errors.push(format!("metrics snapshot: {e}")),
        }
        out
    }
}
