//! The system under test, reached two ways through one [`Link`] type: the
//! threaded [`Deployment`] (what end-to-end numbers are taken on), and a
//! *stepped* stand-in where the benchmark itself plays `server_loop` on the
//! caller's thread around an owned [`ServerCore`], timing each call into it.
//! Workload drivers are written once against [`Link`] and run on either.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};
use themisio::net::{ClientMessage, PeerFabric, PeerMessage, ServerMessage};
use themisio::prelude::*;
use themisio::server::ClientConnection;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process-wide benchmark epoch.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Cost of one `now_ns()` pair around an empty region, taken as the minimum
/// of many: timed regions of a few hundred ns subtract it.
pub fn timer_cost_ns() -> u64 {
    static COST: OnceLock<u64> = OnceLock::new();
    *COST.get_or_init(|| {
        (0..10_000)
            .map(|_| {
                let t0 = now_ns();
                now_ns() - t0
            })
            .min()
            .unwrap_or(0)
    })
}

// ------------------------------------------------------------------ spans

/// Index of "no parent" in [`Span::parent`].
pub const NO_PARENT: u32 = u32::MAX;

/// One traced interval at a layer boundary.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index (within the same log) of the span that caused this one.
    pub parent: u32,
    /// Request id shared by the spans of one request.
    pub req: u64,
}

#[derive(Default)]
struct SpanInner {
    spans: Vec<Span>,
    /// The open `client.call` span link-level spans attach to.
    current: u32,
}

/// An in-memory span log owned by one client thread. Links record into it
/// only while it is enabled, so one connection serves the untraced and the
/// traced window of a traced run.
pub struct SpanLog {
    enabled: AtomicBool,
    inner: Mutex<SpanInner>,
}

impl SpanLog {
    pub fn new() -> Arc<Self> {
        Arc::new(SpanLog {
            enabled: AtomicBool::new(false),
            inner: Mutex::new(SpanInner {
                spans: Vec::new(),
                current: NO_PARENT,
            }),
        })
    }

    /// Relaxed: the flag publishes no data, and it is flipped between
    /// windows while the client threads are parked.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    fn on(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SpanInner> {
        self.inner.lock().expect("span log poisoned by a panic")
    }

    /// Records a span whose parent is the open call (if any).
    pub fn record(&self, name: &'static str, start_ns: u64, end_ns: u64, req: u64) {
        if !self.on() {
            return;
        }
        let mut g = self.lock();
        let parent = g.current;
        if let Some(call) = g.spans.get_mut(parent as usize) {
            call.req = req;
        }
        g.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            req,
        });
    }

    /// Times `f` as a `client.call` span; link spans recorded meanwhile
    /// become its children and lend it their request id.
    pub fn call<T>(&self, f: impl FnOnce() -> T) -> T {
        if !self.on() {
            return f();
        }
        {
            let mut g = self.lock();
            g.current = g.spans.len() as u32;
            g.spans.push(Span {
                name: "client.call",
                start_ns: now_ns(),
                end_ns: 0,
                parent: NO_PARENT,
                req: 0,
            });
        }
        let out = f();
        let mut g = self.lock();
        let idx = std::mem::replace(&mut g.current, NO_PARENT) as usize;
        g.spans[idx].end_ns = now_ns();
        out
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut self.lock().spans)
    }
}

fn client_request_id(msg: &ClientMessage) -> u64 {
    use ClientMessage::*;
    match msg {
        Io { request_id, .. }
        | SetPolicy { request_id, .. }
        | GetPolicy { request_id }
        | Flush { request_id, .. }
        | StageIn { request_id, .. }
        | DrainStatus { request_id }
        | Scrub { request_id }
        | ScrubStatus { request_id }
        | RebalanceStatus { request_id }
        | ReplicateStatus { request_id }
        | MetricsSnapshot { request_id }
        | TraceDump { request_id, .. } => *request_id,
        Hello { .. } | Heartbeat { .. } | Bye { .. } => 0,
    }
}

fn server_request_id(msg: &ServerMessage) -> u64 {
    use ServerMessage::*;
    match msg {
        IoReply { request_id, .. }
        | PolicyChanged { request_id, .. }
        | PolicyRejected { request_id, .. }
        | Stage { request_id, .. } => *request_id,
        Ack { .. } => 0,
    }
}

// ------------------------------------------------------------------ links

/// A client's connection to one server of a [`Cluster`].
pub enum Link {
    Threaded {
        conn: ClientConnection,
        log: Option<Arc<SpanLog>>,
    },
    Stepped {
        server: Arc<Mutex<Stepped>>,
        conn: usize,
    },
}

impl Link {
    /// Non-blocking receive, for generators that must not sleep.
    pub fn poll(&self) -> Option<ServerMessage> {
        match self {
            Link::Threaded { conn, .. } => conn.recv_timeout(Duration::ZERO),
            Link::Stepped { server, conn } => lock_stepped(server).recv(*conn, Duration::ZERO),
        }
    }

    /// The span log this link records into, when tracing.
    pub fn log(&self) -> Option<&Arc<SpanLog>> {
        match self {
            Link::Threaded { log, .. } => log.as_ref(),
            Link::Stepped { .. } => None,
        }
    }
}

fn lock_stepped(s: &Arc<Mutex<Stepped>>) -> std::sync::MutexGuard<'_, Stepped> {
    s.lock().expect("stepped server poisoned by a panic")
}

impl ServerLink for Link {
    fn send(&self, msg: ClientMessage) {
        match self {
            Link::Threaded {
                conn,
                log: Some(log),
            } if log.on() => {
                let req = client_request_id(&msg);
                let t0 = now_ns();
                conn.send(msg);
                log.record("net.send", t0, now_ns(), req);
            }
            Link::Threaded { conn, .. } => conn.send(msg),
            Link::Stepped { server, conn } => lock_stepped(server).handle(*conn, msg),
        }
    }

    fn recv(&self, timeout: Duration) -> Option<ServerMessage> {
        match self {
            Link::Threaded {
                conn,
                log: Some(log),
            } if log.on() => {
                let t0 = now_ns();
                let msg = conn.recv_timeout(timeout)?;
                log.record("net.wait", t0, now_ns(), server_request_id(&msg));
                Some(msg)
            }
            Link::Threaded { conn, .. } => conn.recv_timeout(timeout),
            Link::Stepped { server, conn } => lock_stepped(server).recv(*conn, timeout),
        }
    }
}

// --------------------------------------------------------- stepped server

/// Wall time spent in, and calls made to, each part of one loop turn.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepTimes {
    pub submit_ns: u64,
    pub submits: u64,
    pub poll_ns: u64,
    pub polls: u64,
    pub stage_ns: u64,
    pub house_ns: u64,
    /// Ticketing requests and routing replies back to their connection.
    pub route_ns: u64,
    pub turns: u64,
    /// `IoReply`s produced.
    pub replies: u64,
}

impl StepTimes {
    /// `total` with the timer's own cost for `calls` timed regions removed.
    fn net(total: u64, calls: u64) -> f64 {
        total.saturating_sub(calls * timer_cost_ns()) as f64
    }

    pub fn submit_ns_per_op(&self) -> f64 {
        Self::net(self.submit_ns, self.submits) / self.submits.max(1) as f64
    }

    pub fn poll_ns_per_op(&self) -> f64 {
        Self::net(self.poll_ns, self.polls) / self.replies.max(1) as f64
    }

    pub fn polls_per_op(&self) -> f64 {
        self.polls as f64 / self.replies.max(1) as f64
    }

    pub fn housekeeping_ns_per_op(&self) -> f64 {
        Self::net(self.house_ns, self.turns) / self.replies.max(1) as f64
    }

    pub fn stage_ns_per_op(&self) -> f64 {
        Self::net(self.stage_ns, self.turns) / self.replies.max(1) as f64
    }

    pub fn route_ns_per_op(&self) -> f64 {
        Self::net(self.route_ns, self.submits + self.turns) / self.replies.max(1) as f64
    }

    /// Everything the loop did for one op.
    pub fn busy_ns_per_op(&self) -> f64 {
        self.submit_ns_per_op()
            + self.poll_ns_per_op()
            + self.housekeeping_ns_per_op()
            + self.stage_ns_per_op()
            + self.route_ns_per_op()
    }
}

/// One server with the benchmark playing `server::runtime::server_loop`: the
/// same calls into [`ServerCore`] in the same order — tickets and the reply
/// route included — on the caller's thread, with a clock read around each. A
/// link's `send` is the inbox arm of the loop; `recv` runs loop turns until a
/// reply for that connection is ready.
pub struct Stepped {
    core: ServerCore,
    fabric: Arc<PeerFabric<PeerMessage>>,
    next_ticket: u64,
    /// Ticket → (connection, the client's own request id).
    route: HashMap<u64, (usize, u64)>,
    /// Replies waiting to be received, per connection.
    out: Vec<VecDeque<ServerMessage>>,
    pub times: StepTimes,
}

impl Stepped {
    fn ticket(&mut self, conn: usize, request_id: u64) -> u64 {
        let t0 = now_ns();
        let t = self.next_ticket;
        self.next_ticket += 1;
        self.route.insert(t, (conn, request_id));
        self.times.route_ns += now_ns() - t0;
        t
    }

    fn handle(&mut self, conn: usize, msg: ClientMessage) {
        let now = now_ns();
        match msg {
            ClientMessage::Hello { meta } | ClientMessage::Heartbeat { meta, .. } => {
                self.core.heartbeat(meta, now);
                self.out[conn].push_back(ServerMessage::Ack {
                    policy: self.core.policy().to_string(),
                    epoch: self.core.policy_epoch(),
                });
            }
            ClientMessage::Bye { meta } => self.core.client_bye(meta, now),
            ClientMessage::Io {
                request_id,
                meta,
                op,
            } => {
                let t = self.ticket(conn, request_id);
                let t0 = now_ns();
                self.core.submit(t, meta, op, now);
                self.times.submit_ns += now_ns() - t0;
                self.times.submits += 1;
            }
            ClientMessage::Flush {
                request_id,
                meta,
                path,
            } => {
                let t = self.ticket(conn, request_id);
                self.core.flush(t, meta, &path, now);
            }
            ClientMessage::DrainStatus { request_id } => {
                let t = self.ticket(conn, request_id);
                self.core.drain_status(t);
            }
            ClientMessage::MetricsSnapshot { request_id } => {
                let t = self.ticket(conn, request_id);
                self.core.metrics_snapshot(t, now);
            }
            other => panic!("the benchmark's workloads never send {other:?}"),
        }
    }

    fn turn(&mut self) {
        let now = now_ns();
        self.times.turns += 1;

        let t0 = now_ns();
        let ready = self.core.poll(now);
        let t1 = now_ns();
        let staged = self.core.take_stage_replies();
        let t2 = now_ns();
        self.times.poll_ns += t1 - t0;
        self.times.polls += 1;
        self.times.replies += ready.len() as u64;
        self.times.stage_ns += t2 - t1;

        let io = ready.into_iter().map(|r| (r.request_id, Ok(r.reply)));
        for (ticket, reply) in io.chain(staged.into_iter().map(|s| (s.request_id, Err(s.reply)))) {
            if let Some((conn, request_id)) = self.route.remove(&ticket) {
                self.out[conn].push_back(match reply {
                    Ok(reply) => ServerMessage::IoReply { request_id, reply },
                    Err(reply) => ServerMessage::Stage { request_id, reply },
                });
            }
        }

        let t3 = now_ns();
        self.times.route_ns += t3 - t2;
        self.core.expire_jobs(now);
        if self.core.sync_due(now) {
            let me = self.core.server_index();
            self.fabric.broadcast(
                me,
                PeerMessage::JobTable {
                    from_server: me,
                    table: self.core.local_table(),
                    sent_ns: now,
                },
            );
            let peers: Vec<_> = self
                .fabric
                .drain(me)
                .into_iter()
                .map(|PeerMessage::JobTable { table, .. }| table)
                .collect();
            self.core.absorb_peer_tables(peers.iter(), now);
        }
        self.times.house_ns += now_ns() - t3;
    }

    fn recv(&mut self, conn: usize, timeout: Duration) -> Option<ServerMessage> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(msg) = self.out[conn].pop_front() {
                return Some(msg);
            }
            self.turn();
            if self.out[conn].is_empty() && Instant::now() >= deadline {
                return None;
            }
        }
    }
}

// ---------------------------------------------------------------- cluster

/// A started deployment of either kind.
pub enum Cluster {
    Threaded(Deployment),
    Stepped(Vec<Arc<Mutex<Stepped>>>),
}

impl Cluster {
    pub fn start(stepped: bool, servers: usize, config: &ServerConfig) -> Cluster {
        if !stepped {
            return Cluster::Threaded(Deployment::start(servers, |_| config.clone()));
        }
        // What `Deployment::start` does, minus the threads: one file system,
        // one capacity tier and one registry shared by every server.
        let fs = BurstBufferFs::new(servers);
        let fabric = Arc::new(PeerFabric::new(servers));
        let registry = MetricsRegistry::new();
        let backing = config
            .staging
            .as_ref()
            .map(|sc| Arc::new(CapacityTier::new(sc.backing_device)) as Arc<dyn BackingStore>);
        Cluster::Stepped(
            (0..servers)
                .map(|idx| {
                    Arc::new(Mutex::new(Stepped {
                        core: ServerCore::with_telemetry(
                            idx,
                            fs.clone(),
                            config.clone(),
                            backing.clone(),
                            registry.clone(),
                        ),
                        fabric: Arc::clone(&fabric),
                        next_ticket: 0,
                        route: HashMap::new(),
                        out: Vec::new(),
                        times: StepTimes::default(),
                    }))
                })
                .collect(),
        )
    }

    pub fn connect(&self, server: usize, log: Option<Arc<SpanLog>>) -> Link {
        match self {
            Cluster::Threaded(dep) => Link::Threaded {
                conn: dep.connect(server),
                log,
            },
            Cluster::Stepped(servers) => {
                let server = Arc::clone(&servers[server]);
                let conn = {
                    let mut s = lock_stepped(&server);
                    s.out.push(VecDeque::new());
                    s.out.len() - 1
                };
                Link::Stepped { server, conn }
            }
        }
    }

    /// The loop timings summed over the servers (stepped clusters only),
    /// with the counters reset so set-up traffic can be excluded.
    pub fn take_step_times(&self) -> StepTimes {
        let Cluster::Stepped(servers) = self else {
            return StepTimes::default();
        };
        let mut sum = StepTimes::default();
        for server in servers {
            let t = std::mem::take(&mut lock_stepped(server).times);
            sum.submit_ns += t.submit_ns;
            sum.submits += t.submits;
            sum.poll_ns += t.poll_ns;
            sum.polls += t.polls;
            sum.stage_ns += t.stage_ns;
            sum.house_ns += t.house_ns;
            sum.route_ns += t.route_ns;
            sum.turns += t.turns;
            sum.replies += t.replies;
        }
        sum
    }

    pub fn shutdown(self) {
        if let Cluster::Threaded(dep) = self {
            dep.shutdown();
        }
    }
}
