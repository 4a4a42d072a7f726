//! The threaded server runtime: runs one or more [`ServerCore`]s on real
//! threads, accepts client connections over in-process endpoints, and
//! performs the λ-sync all-gather over a peer fabric.
//!
//! This is the "live" deployment path used by the examples and integration
//! tests; the large-scale experiments of the paper are replayed on a virtual
//! clock by `themis-sim` using the same scheduler, device and policy code.

use crate::core::{ServerConfig, ServerCore};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use themis_fs::BurstBufferFs;
use themis_net::message::{ClientMessage, ServerMessage};
use themis_net::transport::{channel_pair, Endpoint, PeerFabric};
use themis_net::PeerMessage;
use themis_stage::{BackingStore, CapacityTier};
use themis_telemetry::{MetricsRegistry, SeriesKey};

/// Everything that can wake a server thread travels through its one inbox,
/// so a parked server sleeps on a single channel and wakes for all of it.
#[derive(Debug)]
enum Inbound {
    /// A new connection: its id plus the server-side reply endpoint. Sent by
    /// [`Deployment::connect`] before the connection is handed out, so it
    /// precedes every message of that connection in the inbox.
    Register(usize, Endpoint<ServerMessage>),
    /// A client message tagged with its connection id.
    Client(usize, ClientMessage),
    /// [`Deployment::shutdown`].
    Stop,
}

/// A deployment of one or more ThemisIO servers over a shared burst-buffer
/// file system.
pub struct Deployment {
    fs: BurstBufferFs,
    inboxes: Vec<Sender<Inbound>>,
    threads: Mutex<Vec<JoinHandle<()>>>,
    n_servers: usize,
}

impl Deployment {
    /// Starts `n_servers` server threads sharing one in-memory burst buffer.
    ///
    /// `config_for` produces the configuration of each server (so tests can
    /// give different servers different algorithms or seeds).
    pub fn start(n_servers: usize, config_for: impl Fn(usize) -> ServerConfig) -> Self {
        let n = n_servers.max(1);
        let fs = BurstBufferFs::new(n);
        let fabric = Arc::new(PeerFabric::<PeerMessage>::new(n));
        let mut inboxes = Vec::with_capacity(n);
        let mut threads = Vec::with_capacity(n);

        // One shared capacity tier for the whole deployment: the backing
        // file system behind the burst buffer is a single system, so any
        // server can stage in extents a peer drained.
        let mut shared_backing: Option<Arc<dyn BackingStore>> = None;
        // One shared metrics registry likewise: every server records its own
        // series (keyed by server index), so a `MetricsSnapshot` answered by
        // any server covers the whole cluster.
        let registry = MetricsRegistry::new();

        for idx in 0..n {
            let (in_tx, in_rx) = unbounded();
            inboxes.push(in_tx);
            let config = config_for(idx);
            let backing = config.staging.as_ref().map(|sc| {
                Arc::clone(shared_backing.get_or_insert_with(|| {
                    Arc::new(CapacityTier::new(sc.backing_device)) as Arc<dyn BackingStore>
                }))
            });
            let core =
                ServerCore::with_telemetry(idx, fs.clone(), config, backing, registry.clone());
            let fabric = Arc::clone(&fabric);
            threads.push(std::thread::spawn(move || {
                server_loop(core, in_rx, fabric);
            }));
        }

        Deployment {
            fs,
            inboxes,
            threads: Mutex::new(threads),
            n_servers: n,
        }
    }

    /// Number of servers in the deployment.
    pub fn server_count(&self) -> usize {
        self.n_servers
    }

    /// The shared burst-buffer file system (for out-of-band inspection in
    /// tests and examples).
    pub fn fs(&self) -> &BurstBufferFs {
        &self.fs
    }

    /// Opens a connection to server `server_index` and returns the
    /// client-side endpoint plus a message sender tagged with the connection
    /// id expected by that server.
    pub fn connect(&self, server_index: usize) -> ClientConnection {
        let idx = server_index % self.n_servers;
        let (client_end, server_end) = channel_pair::<ServerMessage>();
        static NEXT_CONN: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(1);
        let conn_id = NEXT_CONN.fetch_add(1, Ordering::Relaxed);
        // The registration goes through the same inbox the connection's
        // requests will, ahead of them.
        self.inboxes[idx]
            .send(Inbound::Register(conn_id, server_end))
            .expect("server thread alive");
        ClientConnection {
            server_index: idx,
            conn_id,
            to_server: self.inboxes[idx].clone(),
            from_server: client_end,
        }
    }

    /// Stops every server thread and waits for them to exit.
    pub fn shutdown(&self) {
        let mut threads = self.threads.lock();
        for inbox in &self.inboxes {
            let _ = inbox.send(Inbound::Stop);
        }
        for t in threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Deployment {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A client's connection to one server of a [`Deployment`].
pub struct ClientConnection {
    /// Index of the server this connection talks to.
    pub server_index: usize,
    conn_id: usize,
    to_server: Sender<Inbound>,
    from_server: Endpoint<ServerMessage>,
}

impl ClientConnection {
    /// Sends a message to the server.
    pub fn send(&self, msg: ClientMessage) {
        let _ = self.to_server.send(Inbound::Client(self.conn_id, msg));
    }

    /// Blocks until the next message from the server arrives (or the server
    /// shuts down, in which case `None`).
    pub fn recv(&self) -> Option<ServerMessage> {
        self.from_server.recv().ok()
    }

    /// Receives with a timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<ServerMessage> {
        self.from_server.recv_timeout(timeout).ok().flatten()
    }
}

fn now_ns(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// One server thread. Each turn takes whatever the inbox holds, lets the
/// core serve what the device has room for, sends the replies, and runs the
/// housekeeping that is due. A turn that found nothing to do ends by
/// sleeping *on the inbox* until [`ServerCore::next_deadline_ns`] — so the
/// thread wakes for a message at once, for a deadline on time, and
/// otherwise not at all.
fn server_loop(
    mut core: ServerCore,
    inbox: Receiver<Inbound>,
    fabric: Arc<PeerFabric<PeerMessage>>,
) {
    let epoch = Instant::now();
    // Reply endpoints by connection id. A reply to a connection that never
    // registered (none can, see `Inbound::Register`) is dropped.
    let mut clients: HashMap<usize, Endpoint<ServerMessage>> = HashMap::new();
    let reply = |clients: &HashMap<usize, Endpoint<ServerMessage>>, conn_id, msg| {
        if let Some(endpoint) = clients.get(&conn_id) {
            let _ = endpoint.send(msg);
        }
    };
    // Request ids are only unique per connection (every client numbers its
    // own requests from zero), so a route keyed by the raw id would collide
    // as soon as two clients talk to this server concurrently — one side's
    // reply would be misrouted and the other would stall until its timeout.
    // The loop therefore re-tickets each request with a server-unique id
    // before it enters the core and translates back when replying.
    let mut next_ticket: u64 = 0;
    let mut reply_route: HashMap<u64, (usize, u64)> = HashMap::new();
    let mut ticket =
        move |route: &mut HashMap<u64, (usize, u64)>, conn_id: usize, request_id: u64| {
            let t = next_ticket;
            next_ticket += 1;
            route.insert(t, (conn_id, request_id));
            t
        };
    let my_index = core.server_index();
    let turns = core
        .metrics_registry()
        .counter(SeriesKey::class(my_index, "runtime"), "loop_turns");
    // The message that cut the last turn's sleep short, if one did.
    let mut woken_by: Option<Inbound> = None;

    loop {
        turns.inc();
        let now = now_ns(epoch);
        let mut did_work = false;

        // Everything that has arrived, the waker first.
        let arrived = std::iter::from_fn(|| inbox.try_recv().ok());
        for inbound in woken_by.take().into_iter().chain(arrived) {
            did_work = true;
            let (conn_id, msg) = match inbound {
                Inbound::Register(conn_id, endpoint) => {
                    clients.insert(conn_id, endpoint);
                    continue;
                }
                Inbound::Client(conn_id, msg) => (conn_id, msg),
                Inbound::Stop => return,
            };
            match msg {
                ClientMessage::Hello { meta } | ClientMessage::Heartbeat { meta, .. } => {
                    core.heartbeat(meta, now);
                    reply(
                        &clients,
                        conn_id,
                        ServerMessage::Ack {
                            policy: core.policy().to_string(),
                            epoch: core.policy_epoch(),
                        },
                    );
                }
                ClientMessage::Bye { meta } => {
                    core.client_bye(meta, now);
                }
                ClientMessage::SetPolicy { request_id, policy } => {
                    let policy_reply = match core.set_policy(policy) {
                        Ok(epoch) => ServerMessage::PolicyChanged {
                            request_id,
                            policy: core.policy().clone(),
                            epoch,
                        },
                        Err(e) => ServerMessage::PolicyRejected {
                            request_id,
                            reason: e.to_string(),
                        },
                    };
                    reply(&clients, conn_id, policy_reply);
                }
                ClientMessage::GetPolicy { request_id } => {
                    reply(
                        &clients,
                        conn_id,
                        ServerMessage::PolicyChanged {
                            request_id,
                            policy: core.policy().clone(),
                            epoch: core.policy_epoch(),
                        },
                    );
                }
                ClientMessage::Io {
                    request_id,
                    meta,
                    op,
                } => {
                    let t = ticket(&mut reply_route, conn_id, request_id);
                    core.submit(t, meta, op, now);
                }
                ClientMessage::Flush {
                    request_id,
                    meta,
                    path,
                } => {
                    let t = ticket(&mut reply_route, conn_id, request_id);
                    core.flush(t, meta, &path, now);
                }
                ClientMessage::StageIn {
                    request_id,
                    meta,
                    path,
                } => {
                    let t = ticket(&mut reply_route, conn_id, request_id);
                    core.stage_in(t, meta, &path, now);
                }
                ClientMessage::DrainStatus { request_id } => {
                    let t = ticket(&mut reply_route, conn_id, request_id);
                    core.drain_status(t);
                }
                ClientMessage::Scrub { request_id } => {
                    let t = ticket(&mut reply_route, conn_id, request_id);
                    core.scrub(t);
                }
                ClientMessage::ScrubStatus { request_id } => {
                    let t = ticket(&mut reply_route, conn_id, request_id);
                    core.scrub_status(t);
                }
                ClientMessage::RebalanceStatus { request_id } => {
                    let t = ticket(&mut reply_route, conn_id, request_id);
                    core.rebalance_status(t);
                }
                ClientMessage::ReplicateStatus { request_id } => {
                    let t = ticket(&mut reply_route, conn_id, request_id);
                    core.replicate_status(t);
                }
                ClientMessage::MetricsSnapshot { request_id } => {
                    let t = ticket(&mut reply_route, conn_id, request_id);
                    core.metrics_snapshot(t, now);
                }
                ClientMessage::TraceDump {
                    request_id,
                    max_events,
                } => {
                    let t = ticket(&mut reply_route, conn_id, request_id);
                    core.trace_dump(t, max_events);
                }
            }
        }

        // Worker loop: serve whatever the scheduler releases (foreground
        // replies plus, with staging, drain progress).
        for ready in core.poll(now) {
            did_work = true;
            if let Some((conn_id, request_id)) = reply_route.remove(&ready.request_id) {
                reply(
                    &clients,
                    conn_id,
                    ServerMessage::IoReply {
                        request_id,
                        reply: ready.reply,
                    },
                );
            }
        }

        // Staging acknowledgements that became ready (flush/stage-in/status).
        for stage in core.take_stage_replies() {
            did_work = true;
            if let Some((conn_id, request_id)) = reply_route.remove(&stage.request_id) {
                reply(
                    &clients,
                    conn_id,
                    ServerMessage::Stage {
                        request_id,
                        reply: stage.reply,
                    },
                );
            }
        }

        // λ-sync, then the job monitor's timeout check (after the merge, so
        // the turn ends with the expiry bound the merge reset made exact
        // again). Alone in the fabric there is nobody to tell and nothing to
        // hear: the round is only marked.
        if core.sync_due(now) {
            if fabric.len() == 1 {
                core.absorb_peer_tables(std::iter::empty(), now);
            } else {
                fabric.broadcast(
                    my_index,
                    PeerMessage::JobTable {
                        from_server: my_index,
                        table: core.local_table(),
                        sent_ns: now,
                    },
                );
                let peer_tables: Vec<_> = fabric
                    .drain(my_index)
                    .into_iter()
                    .map(|PeerMessage::JobTable { table, .. }| table)
                    .collect();
                core.absorb_peer_tables(peer_tables.iter(), now);
            }
        }
        core.expire_jobs(now);

        if did_work {
            continue;
        }
        // Nothing to do: sleep on the inbox until the core next needs the
        // processor. The message that ends the sleep early opens the next
        // turn.
        let woken = match core.next_deadline_ns(now) {
            Some(deadline) => {
                inbox.recv_timeout(Duration::from_nanos(deadline.saturating_sub(now_ns(epoch))))
            }
            None => inbox.recv().map_err(|_| RecvTimeoutError::Disconnected),
        };
        woken_by = match woken {
            Ok(inbound) => Some(inbound),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => return,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use themis_core::entity::JobMeta;
    use themis_core::sync::SyncConfig;
    use themis_device::DeviceConfig;
    use themis_fs::StripeConfig;
    use themis_net::message::{FsOp, FsReply, StageReply};
    use themis_stage::StagingConfig;

    const REPLY: Duration = Duration::from_secs(5);

    /// A configuration whose only self-made deadline is a minute away, so a
    /// test can tell a server that wakes for its input from one that is
    /// merely woken by the next λ round.
    fn quiet_config() -> ServerConfig {
        ServerConfig {
            sync: SyncConfig::from_millis(60_000),
            ..ServerConfig::default()
        }
    }

    /// Waits out `quiet` on a connection nothing should arrive on.
    fn stay_idle(conn: &ClientConnection, quiet: Duration) {
        let unexpected = conn.recv_timeout(quiet);
        assert!(unexpected.is_none(), "unprompted {unexpected:?}");
    }

    /// `loop_turns` of every server, read through server 0's control plane.
    fn loop_turns(conn: &ClientConnection, servers: usize) -> Vec<u64> {
        conn.send(ClientMessage::MetricsSnapshot { request_id: 0 });
        match conn.recv_timeout(REPLY) {
            Some(ServerMessage::Stage {
                reply: StageReply::Metrics(snap),
                ..
            }) => (0..servers as u32)
                .map(|s| snap.counter(s, 0, "runtime", "loop_turns"))
                .collect(),
            other => panic!("expected a metrics snapshot, got {other:?}"),
        }
    }

    #[test]
    fn an_idle_deployment_makes_next_to_no_loop_turns() {
        let dep = Deployment::start(4, |_| quiet_config());
        let conn = dep.connect(0);
        let before = loop_turns(&conn, 4);
        stay_idle(&conn, Duration::from_millis(300));
        let after = loop_turns(&conn, 4);
        // The sleeping loop of old made some 2 000 turns per server in this
        // window. Server 0 is allowed the turns the two snapshots cost it.
        for (server, (b, a)) in before.iter().zip(&after).enumerate() {
            assert!(
                a - b <= 4,
                "server {server} made {} turns while idle",
                a - b
            );
        }
        dep.shutdown();
    }

    #[test]
    fn shutdown_of_an_idle_deployment_is_prompt() {
        let dep = Deployment::start(4, |_| quiet_config());
        let conn = dep.connect(0);
        // Long enough for every server to have gone to sleep on its inbox,
        // a minute away from its next deadline.
        stay_idle(&conn, Duration::from_millis(50));
        let t0 = Instant::now();
        dep.shutdown();
        let took = t0.elapsed();
        assert!(took < Duration::from_millis(50), "shutdown took {took:?}");
        assert!(conn.recv().is_none(), "a stopped server hangs up");
    }

    #[test]
    fn a_connection_opened_after_idleness_is_answered() {
        let dep = Deployment::start(2, |_| quiet_config());
        stay_idle(&dep.connect(0), Duration::from_millis(200));
        for server in 0..2 {
            let conn = dep.connect(server);
            let meta = JobMeta::new(1u64, 1u32, 1u32, 4);
            conn.send(ClientMessage::Hello { meta });
            assert!(
                matches!(conn.recv_timeout(REPLY), Some(ServerMessage::Ack { .. })),
                "server {server} slept through a registration and its hello"
            );
        }
        dep.shutdown();
    }

    /// Once a flush is in the server's hands nothing else arrives: the
    /// drain's admission, its device slot and its capacity-tier write must
    /// all be waited for by the server itself. With two servers the writer's
    /// server is not the owner of every stripe, and the owner — which is
    /// never sent a single request before its shard is clean — has to notice
    /// the peer's write on its own.
    #[test]
    fn staged_servers_finish_a_flush_with_no_further_traffic() {
        const STRIPE: u64 = 64 << 10;
        const FILE: u64 = 4 * STRIPE;
        for servers in [1usize, 2] {
            let dep = Deployment::start(servers, |_| ServerConfig {
                staging: Some(StagingConfig {
                    backing_device: DeviceConfig::capacity_hdd(),
                    ..StagingConfig::default()
                }),
                ..quiet_config()
            });
            let meta = JobMeta::new(1u64, 1u32, 1u32, 4);
            let writer = dep.connect(0);
            let io = |request_id: u64, op: FsOp| {
                writer.send(ClientMessage::Io {
                    request_id,
                    meta,
                    op,
                });
                match writer.recv_timeout(REPLY) {
                    Some(ServerMessage::IoReply { reply, .. }) => reply,
                    other => panic!("request {request_id}: {other:?}"),
                }
            };
            let path = "/ckpt".to_string();
            let stripe = StripeConfig::new(STRIPE, servers);
            let created = io(
                1,
                FsOp::CreateStriped {
                    path: path.clone(),
                    stripe,
                },
            );
            assert!(matches!(created, FsReply::Ok), "{created:?}");
            let wrote = io(
                2,
                FsOp::WriteAt {
                    path: path.clone(),
                    offset: 0,
                    data: vec![7u8; FILE as usize],
                },
            );
            assert!(matches!(wrote, FsReply::Count(n) if n == FILE), "{wrote:?}");

            if servers == 2 {
                let layout = dep.fs().layout_of(&path).unwrap();
                let owners: Vec<_> = (0..4).map(|s| layout.server_for_stripe(s)).collect();
                assert!(
                    owners.iter().any(|o| o.map(|id| id.0) == Some(1)),
                    "no stripe landed on the peer's shard: {owners:?}"
                );
                let t0 = Instant::now();
                while dep.fs().dirty_bytes_on(1) > 0 {
                    assert!(t0.elapsed() < REPLY, "server 1 never drained its shard");
                    stay_idle(&writer, Duration::from_millis(1));
                }
            }

            let conns: Vec<_> = (0..servers).map(|s| dep.connect(s)).collect();
            for conn in &conns {
                conn.send(ClientMessage::Flush {
                    request_id: 9,
                    meta,
                    path: path.clone(),
                });
            }
            for (server, conn) in conns.iter().enumerate() {
                match conn.recv_timeout(REPLY) {
                    Some(ServerMessage::Stage {
                        request_id: 9,
                        reply: StageReply::Flushed { .. },
                    }) => {}
                    other => panic!("server {server} of {servers}: {other:?}"),
                }
                assert_eq!(dep.fs().dirty_bytes_on(server), 0);
            }
            dep.shutdown();
        }
    }

    #[test]
    fn deployment_serves_io_end_to_end() {
        let dep = Deployment::start(2, |_| ServerConfig::default());
        let conn = dep.connect(0);
        let meta = JobMeta::new(1u64, 1u32, 1u32, 4);
        conn.send(ClientMessage::Hello { meta });
        assert!(matches!(
            conn.recv_timeout(Duration::from_secs(5)),
            Some(ServerMessage::Ack { .. })
        ));
        conn.send(ClientMessage::Io {
            request_id: 1,
            meta,
            op: FsOp::Mkdir {
                path: "/out".into(),
            },
        });
        let reply = conn.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(matches!(
            reply,
            ServerMessage::IoReply {
                request_id: 1,
                reply: FsReply::Ok
            }
        ));
        conn.send(ClientMessage::Io {
            request_id: 2,
            meta,
            op: FsOp::WriteAt {
                path: "/out/x".into(),
                offset: 0,
                data: vec![5u8; 1024],
            },
        });
        // WriteAt on a missing file is an error; create it first via open.
        let reply = conn.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(matches!(
            reply,
            ServerMessage::IoReply {
                request_id: 2,
                reply: FsReply::Error(_)
            }
        ));
        conn.send(ClientMessage::Io {
            request_id: 3,
            meta,
            op: FsOp::Open {
                path: "/out/x".into(),
                create: true,
                truncate: false,
                append: false,
            },
        });
        let fd = match conn.recv_timeout(Duration::from_secs(5)).unwrap() {
            ServerMessage::IoReply {
                reply: FsReply::Fd(fd),
                ..
            } => fd,
            other => panic!("unexpected {other:?}"),
        };
        conn.send(ClientMessage::Io {
            request_id: 4,
            meta,
            op: FsOp::Write {
                fd,
                data: vec![5u8; 1024],
            },
        });
        match conn.recv_timeout(Duration::from_secs(5)).unwrap() {
            ServerMessage::IoReply {
                reply: FsReply::Count(n),
                ..
            } => assert_eq!(n, 1024),
            other => panic!("unexpected {other:?}"),
        }
        // The data is visible through the shared fs from the test side.
        assert_eq!(dep.fs().stat("/out/x").unwrap().size, 1024);
        conn.send(ClientMessage::Bye { meta });
        dep.shutdown();
    }

    /// Every client numbers its own requests from zero, so two concurrent
    /// connections always collide on raw request ids. The server must route
    /// each reply to the connection that sent the request, echoing the
    /// sender's own id — not whichever connection registered the id last.
    #[test]
    fn colliding_request_ids_route_to_their_own_connections() {
        let dep = Deployment::start(1, |_| ServerConfig::default());
        let a = dep.connect(0);
        let b = dep.connect(0);
        let meta_a = JobMeta::new(1u64, 1u32, 1u32, 4);
        let meta_b = JobMeta::new(2u64, 2u32, 1u32, 4);

        // Same request id, different ops: a's mkdir succeeds, b's stat of a
        // missing path errors, so a swapped reply is detectable by payload.
        a.send(ClientMessage::Io {
            request_id: 7,
            meta: meta_a,
            op: FsOp::Mkdir { path: "/a".into() },
        });
        b.send(ClientMessage::Io {
            request_id: 7,
            meta: meta_b,
            op: FsOp::Stat {
                path: "/missing".into(),
            },
        });
        match a.recv_timeout(Duration::from_secs(5)).unwrap() {
            ServerMessage::IoReply {
                request_id: 7,
                reply: FsReply::Ok,
            } => {}
            other => panic!("client a got {other:?}"),
        }
        match b.recv_timeout(Duration::from_secs(5)).unwrap() {
            ServerMessage::IoReply {
                request_id: 7,
                reply: FsReply::Error(_),
            } => {}
            other => panic!("client b got {other:?}"),
        }
        dep.shutdown();
    }
}
