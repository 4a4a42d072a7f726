//! # themis-client
//!
//! The client side of ThemisIO (§4.4): a POSIX-flavoured API that embeds job
//! metadata in every request, routes each path to the burst-buffer server
//! that owns it, and keeps the job alive with heartbeats.
//!
//! On the paper's testbed the client is injected into unmodified applications
//! by intercepting glibc I/O functions (override / trampoline). A Rust
//! reproduction cannot ship a glibc shim, so the interception layer is
//! represented by [`Namespace`]: callers route any path under the ThemisIO
//! prefix (`/fs/...` by default) through [`ThemisClient`], and everything
//! else goes to the host file system untouched — the same decision the
//! interception shim makes, one call earlier.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use themis_core::entity::JobMeta;
use themis_core::policy::Policy;
use themis_fs::ring::stable_hash;
use themis_fs::store::StatInfo;
use themis_fs::{FsError, FsResult, StripeConfig};
use themis_net::message::{ClientMessage, FsOp, FsReply, ServerMessage, StageReply};
use themis_stage::{DrainStatus, RebalanceStatus, ReplicateStatus, ScrubStatus};
use themis_telemetry::{MetricsSnapshot, TraceDump};

/// The ThemisIO namespace decision: which paths are intercepted.
#[derive(Debug, Clone)]
pub struct Namespace {
    prefix: String,
}

impl Namespace {
    /// Creates a namespace with the given prefix (e.g. `/fs`).
    pub fn new(prefix: impl Into<String>) -> Self {
        Namespace {
            prefix: prefix.into(),
        }
    }

    /// The default `/fs` namespace.
    pub fn default_fs() -> Self {
        Namespace::new(themis_fs::path::DEFAULT_NAMESPACE)
    }

    /// Whether a path would be intercepted.
    pub fn intercepts(&self, path: &str) -> bool {
        themis_fs::path::in_namespace(path, &self.prefix)
    }

    /// Translates an application path into the burst-buffer path, or `None`
    /// when the path is outside the namespace (pass through to the host FS).
    pub fn translate(&self, path: &str) -> Option<String> {
        themis_fs::path::strip_namespace(path, &self.prefix)
    }
}

/// A connection to one server, as required by the client: send a message,
/// receive the next reply. The server crate's `ClientConnection` satisfies
/// this; tests can provide mocks.
pub trait ServerLink: Send {
    /// Sends one message to the server.
    fn send(&self, msg: ClientMessage);
    /// Waits for the next server message (None when the server went away).
    fn recv(&self, timeout: Duration) -> Option<ServerMessage>;
}

/// The ThemisIO client: one per application process (§4.2), holding one link
/// per burst-buffer server.
pub struct ThemisClient<L: ServerLink> {
    meta: JobMeta,
    namespace: Namespace,
    links: Vec<L>,
    next_request: AtomicU64,
    /// fd → (server index, remote fd): descriptor state lives on the server
    /// that opened the file, so follow-up calls must go back to it.
    fds: parking_lot::Mutex<HashMap<u64, (usize, u64)>>,
    next_local_fd: AtomicU64,
    timeout: Duration,
}

impl<L: ServerLink> ThemisClient<L> {
    /// Creates a client for job `meta` over the given per-server links.
    ///
    /// # Panics
    ///
    /// Panics when `links` is empty or when `meta` claims a job id inside
    /// the reserved system range
    /// ([`themis_core::entity::RESERVED_JOB_BASE`]): such ids belong to
    /// server-internal traffic (drain, future maintenance classes) and the
    /// server would reject every request anyway, so the client fails fast at
    /// construction instead of on each I/O call.
    pub fn new(meta: JobMeta, links: Vec<L>, namespace: Namespace) -> Self {
        assert!(!links.is_empty(), "client needs at least one server link");
        assert!(
            !meta.is_reserved(),
            "job id {} is inside the reserved system job-id range (>= {})",
            meta.job,
            themis_core::entity::RESERVED_JOB_BASE
        );
        ThemisClient {
            meta,
            namespace,
            links,
            next_request: AtomicU64::new(1),
            fds: parking_lot::Mutex::new(HashMap::new()),
            next_local_fd: AtomicU64::new(3),
            timeout: Duration::from_secs(30),
        }
    }

    /// The job metadata this client embeds in every request.
    pub fn meta(&self) -> JobMeta {
        self.meta
    }

    /// Number of server links.
    pub fn server_count(&self) -> usize {
        self.links.len()
    }

    /// Announces the client to every server and returns the policy names the
    /// servers report (§4.2 connection establishment).
    pub fn hello(&self) -> Vec<String> {
        let mut policies = Vec::new();
        for link in &self.links {
            link.send(ClientMessage::Hello { meta: self.meta });
            if let Some(ServerMessage::Ack { policy, .. }) = link.recv(self.timeout) {
                policies.push(policy);
            }
        }
        policies
    }

    // ------------------------------------------------------- control plane

    /// Waits for the `PolicyChanged` / `PolicyRejected` acknowledgement
    /// matching `request_id` on one server link, skipping unrelated traffic.
    fn recv_policy_ack(&self, server: usize, request_id: u64) -> FsResult<(Policy, u64)> {
        loop {
            match self.links[server].recv(self.timeout) {
                Some(ServerMessage::PolicyChanged {
                    request_id: rid,
                    policy,
                    epoch,
                }) if rid == request_id => return Ok((policy, epoch)),
                Some(ServerMessage::PolicyRejected {
                    request_id: rid,
                    reason,
                }) if rid == request_id => return Err(FsError::InvalidArgument(reason)),
                Some(_) => continue,
                None => {
                    return Err(FsError::InvalidArgument(
                        "no acknowledgement from server (connection lost or timed out)".to_string(),
                    ))
                }
            }
        }
    }

    /// Swaps the sharing policy on **every** server of the deployment while
    /// jobs are running (§2.2.2's "single parameter", now reconfigurable at
    /// runtime). Returns the new policy epoch reported by each server, in
    /// server order. In-flight requests are unaffected; the new shares apply
    /// from each server's next scheduling epoch.
    ///
    /// The swap is broadcast to every server first and the acknowledgements
    /// collected afterwards, so the cross-server policy-skew window is one
    /// round-trip rather than `n_servers` of them. On failure the error
    /// names the first failing server and how many servers acknowledged the
    /// swap — those servers keep the new policy, so the deployment may be on
    /// mixed policies until a retry succeeds.
    pub fn set_policy(&self, policy: &Policy) -> FsResult<Vec<u64>> {
        // Phase 1: broadcast to every server.
        let request_ids: Vec<u64> = (0..self.links.len())
            .map(|server| {
                let request_id = self.next_request.fetch_add(1, Ordering::Relaxed);
                self.links[server].send(ClientMessage::SetPolicy {
                    request_id,
                    policy: policy.clone(),
                });
                request_id
            })
            .collect();
        // Phase 2: collect every acknowledgement before reporting.
        let acks: Vec<FsResult<(Policy, u64)>> = request_ids
            .iter()
            .enumerate()
            .map(|(server, rid)| self.recv_policy_ack(server, *rid))
            .collect();
        let acked = acks.iter().filter(|a| a.is_ok()).count();
        if let Some((server, Err(e))) = acks.iter().enumerate().find(|(_, a)| a.is_err()) {
            return Err(FsError::InvalidArgument(format!(
                "set_policy acknowledged by {acked}/{} servers; server {server} failed: {e}",
                self.links.len()
            )));
        }
        Ok(acks
            .into_iter()
            .map(|a| a.expect("checked above").1)
            .collect())
    }

    /// Queries the policy currently in force on one server, together with its
    /// policy epoch.
    pub fn get_policy(&self, server: usize) -> FsResult<(Policy, u64)> {
        let server = server % self.links.len();
        let request_id = self.next_request.fetch_add(1, Ordering::Relaxed);
        self.links[server].send(ClientMessage::GetPolicy { request_id });
        self.recv_policy_ack(server, request_id)
    }

    // ----------------------------------------------------------- staging

    /// Waits for the `Stage` acknowledgement matching `request_id` on one
    /// server link, skipping unrelated traffic.
    fn recv_stage_ack(&self, server: usize, request_id: u64) -> FsResult<StageReply> {
        loop {
            match self.links[server].recv(self.timeout) {
                Some(ServerMessage::Stage {
                    request_id: rid,
                    reply,
                }) if rid == request_id => {
                    return match reply {
                        StageReply::Error(e) => Err(FsError::InvalidArgument(e)),
                        ok => Ok(ok),
                    };
                }
                Some(_) => continue,
                None => {
                    return Err(FsError::InvalidArgument(
                        "no staging acknowledgement from server (connection lost or timed out)"
                            .to_string(),
                    ))
                }
            }
        }
    }

    /// Forces the file's extents down to the capacity tier on **every**
    /// server holding a stripe of it (the flush is broadcast; dirty extents
    /// are server-local). Returns the capacity-tier bytes of the path once
    /// every server acknowledged — servers of a deployment share one
    /// capacity tier, so the maximum across acknowledgements is the path's
    /// staged size. Flushing a file that is already clean everywhere is a
    /// cheap no-op round-trip.
    ///
    /// The drain traffic a flush triggers is scheduled through the same
    /// policy engine as foreground I/O at the server's foreground:drain
    /// weight — a flush cannot starve other tenants.
    pub fn flush(&self, path: &str) -> FsResult<u64> {
        let bb_path = self.translate(path)?;
        let request_ids: Vec<u64> = (0..self.links.len())
            .map(|server| {
                let request_id = self.next_request.fetch_add(1, Ordering::Relaxed);
                self.links[server].send(ClientMessage::Flush {
                    request_id,
                    meta: self.meta,
                    path: bb_path.clone(),
                });
                request_id
            })
            .collect();
        let mut staged = 0u64;
        for (server, rid) in request_ids.iter().enumerate() {
            match self.recv_stage_ack(server, *rid)? {
                StageReply::Flushed { backing_bytes } => staged = staged.max(backing_bytes),
                other => {
                    return Err(FsError::InvalidArgument(format!(
                        "unexpected staging reply {other:?}"
                    )))
                }
            }
        }
        Ok(staged)
    }

    /// Restores the file's staged-out extents from the capacity tier,
    /// returning the total bytes copied back. The request is broadcast and
    /// each server restores exactly its own shard's evicted stripes, so the
    /// summed count is exact. A no-op (0) when everything is resident.
    pub fn stage_in(&self, path: &str) -> FsResult<u64> {
        let bb_path = self.translate(path)?;
        let request_ids: Vec<u64> = (0..self.links.len())
            .map(|server| {
                let request_id = self.next_request.fetch_add(1, Ordering::Relaxed);
                self.links[server].send(ClientMessage::StageIn {
                    request_id,
                    meta: self.meta,
                    path: bb_path.clone(),
                });
                request_id
            })
            .collect();
        let mut total = 0u64;
        for (server, rid) in request_ids.iter().enumerate() {
            match self.recv_stage_ack(server, *rid)? {
                StageReply::StagedIn { restored_bytes } => total += restored_bytes,
                other => {
                    return Err(FsError::InvalidArgument(format!(
                        "unexpected staging reply {other:?}"
                    )))
                }
            }
        }
        Ok(total)
    }

    /// Queries one server's staging state (dirty/resident/backing bytes,
    /// drain and eviction counters).
    pub fn drain_status(&self, server: usize) -> FsResult<DrainStatus> {
        let server = server % self.links.len();
        let request_id = self.next_request.fetch_add(1, Ordering::Relaxed);
        self.links[server].send(ClientMessage::DrainStatus { request_id });
        match self.recv_stage_ack(server, request_id)? {
            StageReply::Status(status) => Ok(status),
            other => Err(FsError::InvalidArgument(format!(
                "unexpected staging reply {other:?}"
            ))),
        }
    }

    /// Demands a full checksum-scrub pass over one server's share of the
    /// capacity tier and waits for it to complete, returning the post-pass
    /// [`ScrubStatus`] (verification counters plus the quarantined-extent
    /// list). Works even when the server's continuous background scrubber
    /// is disabled — the pass is forced. The scrub traffic is arbitrated by
    /// the policy engine at the server's foreground:scrub weight, so a
    /// demand scrub cannot starve other tenants.
    pub fn scrub(&self, server: usize) -> FsResult<ScrubStatus> {
        let server = server % self.links.len();
        let request_id = self.next_request.fetch_add(1, Ordering::Relaxed);
        self.links[server].send(ClientMessage::Scrub { request_id });
        match self.recv_stage_ack(server, request_id)? {
            StageReply::Scrub(status) => Ok(status),
            other => Err(FsError::InvalidArgument(format!(
                "unexpected staging reply {other:?}"
            ))),
        }
    }

    /// Queries one server's scrub state without forcing a pass.
    pub fn scrub_status(&self, server: usize) -> FsResult<ScrubStatus> {
        let server = server % self.links.len();
        let request_id = self.next_request.fetch_add(1, Ordering::Relaxed);
        self.links[server].send(ClientMessage::ScrubStatus { request_id });
        match self.recv_stage_ack(server, request_id)? {
            StageReply::Scrub(status) => Ok(status),
            other => Err(FsError::InvalidArgument(format!(
                "unexpected staging reply {other:?}"
            ))),
        }
    }

    /// Queries one server's rebalance state: the sharded tier's map and
    /// generation convergence plus the migration counters. On a server with
    /// an unsharded capacity tier the reply reports `sharded: false`.
    pub fn rebalance_status(&self, server: usize) -> FsResult<RebalanceStatus> {
        let server = server % self.links.len();
        let request_id = self.next_request.fetch_add(1, Ordering::Relaxed);
        self.links[server].send(ClientMessage::RebalanceStatus { request_id });
        match self.recv_stage_ack(server, request_id)? {
            StageReply::Rebalance(status) => Ok(status),
            other => Err(FsError::InvalidArgument(format!(
                "unexpected staging reply {other:?}"
            ))),
        }
    }

    /// Queries one server's durability-replication state: the durable
    /// extents of its shard still waiting to be copied out, the lag of
    /// copies admitted but not landed, landed copy counters, and the `sync`
    /// acks it still holds. With no durability spec in force the reply
    /// reports `enabled: false` with zero lag.
    pub fn replicate_status(&self, server: usize) -> FsResult<ReplicateStatus> {
        let server = server % self.links.len();
        let request_id = self.next_request.fetch_add(1, Ordering::Relaxed);
        self.links[server].send(ClientMessage::ReplicateStatus { request_id });
        match self.recv_stage_ack(server, request_id)? {
            StageReply::Replicate(status) => Ok(status),
            other => Err(FsError::InvalidArgument(format!(
                "unexpected staging reply {other:?}"
            ))),
        }
    }

    /// Cuts a live metrics snapshot: per-tenant completion series, per-class
    /// lane counters, scrub/drain/restore progress and capacity gauges. The
    /// deployment's servers share one registry, so the snapshot answered by
    /// `server` covers the whole cluster (only that server's *gauges* are
    /// refreshed at the instant of the cut; peers refresh theirs on their
    /// own snapshots).
    pub fn metrics_snapshot(&self, server: usize) -> FsResult<MetricsSnapshot> {
        let server = server % self.links.len();
        let request_id = self.next_request.fetch_add(1, Ordering::Relaxed);
        self.links[server].send(ClientMessage::MetricsSnapshot { request_id });
        match self.recv_stage_ack(server, request_id)? {
            StageReply::Metrics(snapshot) => Ok(snapshot),
            other => Err(FsError::InvalidArgument(format!(
                "unexpected staging reply {other:?}"
            ))),
        }
    }

    /// Dumps the newest `max_events` scheduler decisions (admissions, lane
    /// selections with their virtual times, parks and wakes) of one server.
    /// Empty when the telemetry crate's `trace` feature is compiled out.
    pub fn trace_dump(&self, server: usize, max_events: u64) -> FsResult<TraceDump> {
        let server = server % self.links.len();
        let request_id = self.next_request.fetch_add(1, Ordering::Relaxed);
        self.links[server].send(ClientMessage::TraceDump {
            request_id,
            max_events,
        });
        match self.recv_stage_ack(server, request_id)? {
            StageReply::Trace(dump) => Ok(dump),
            other => Err(FsError::InvalidArgument(format!(
                "unexpected staging reply {other:?}"
            ))),
        }
    }

    /// Sends one heartbeat to every server so the job monitor keeps the job
    /// active.
    pub fn heartbeat(&self, now_ns: u64) {
        for link in &self.links {
            link.send(ClientMessage::Heartbeat {
                meta: self.meta,
                sent_ns: now_ns,
            });
            let _ = link.recv(self.timeout);
        }
    }

    /// Notifies every server that the client is going away.
    pub fn bye(&self) {
        for link in &self.links {
            link.send(ClientMessage::Bye { meta: self.meta });
        }
    }

    fn server_for_path(&self, path: &str) -> usize {
        (stable_hash(path) % self.links.len() as u64) as usize
    }

    fn roundtrip(&self, server: usize, op: FsOp) -> FsResult<FsReply> {
        let request_id = self.next_request.fetch_add(1, Ordering::Relaxed);
        self.links[server].send(ClientMessage::Io {
            request_id,
            meta: self.meta,
            op,
        });
        loop {
            match self.links[server].recv(self.timeout) {
                Some(ServerMessage::IoReply {
                    request_id: rid,
                    reply,
                }) if rid == request_id => {
                    return match reply {
                        FsReply::Error(e) => Err(FsError::InvalidArgument(e)),
                        ok => Ok(ok),
                    };
                }
                Some(_) => continue,
                None => {
                    return Err(FsError::InvalidArgument(
                        "server connection lost".to_string(),
                    ))
                }
            }
        }
    }

    fn translate(&self, path: &str) -> FsResult<String> {
        self.namespace.translate(path).ok_or_else(|| {
            FsError::InvalidPath(format!("{path} is outside the ThemisIO namespace"))
        })
    }

    // ------------------------------------------------------ POSIX-style API

    /// `open(path, flags)` — returns a client-local descriptor.
    pub fn open(&self, path: &str, create: bool, truncate: bool, append: bool) -> FsResult<u64> {
        let bb_path = self.translate(path)?;
        let server = self.server_for_path(&bb_path);
        match self.roundtrip(
            server,
            FsOp::Open {
                path: bb_path,
                create,
                truncate,
                append,
            },
        )? {
            FsReply::Fd(remote) => {
                let local = self.next_local_fd.fetch_add(1, Ordering::Relaxed);
                self.fds.lock().insert(local, (server, remote));
                Ok(local)
            }
            other => Err(FsError::InvalidArgument(format!(
                "unexpected reply {other:?}"
            ))),
        }
    }

    fn lookup_fd(&self, fd: u64) -> FsResult<(usize, u64)> {
        self.fds
            .lock()
            .get(&fd)
            .copied()
            .ok_or(FsError::BadDescriptor(fd))
    }

    /// `close(fd)`.
    pub fn close(&self, fd: u64) -> FsResult<()> {
        let (server, remote) = self.lookup_fd(fd)?;
        self.roundtrip(server, FsOp::Close { fd: remote })?;
        self.fds.lock().remove(&fd);
        Ok(())
    }

    /// `write(fd, data)` at the descriptor cursor.
    pub fn write(&self, fd: u64, data: &[u8]) -> FsResult<u64> {
        let (server, remote) = self.lookup_fd(fd)?;
        match self.roundtrip(
            server,
            FsOp::Write {
                fd: remote,
                data: data.to_vec(),
            },
        )? {
            FsReply::Count(n) => Ok(n),
            other => Err(FsError::InvalidArgument(format!(
                "unexpected reply {other:?}"
            ))),
        }
    }

    /// `read(fd, len)` at the descriptor cursor.
    pub fn read(&self, fd: u64, len: u64) -> FsResult<Vec<u8>> {
        let (server, remote) = self.lookup_fd(fd)?;
        match self.roundtrip(server, FsOp::Read { fd: remote, len })? {
            FsReply::Data(d) => Ok(d),
            other => Err(FsError::InvalidArgument(format!(
                "unexpected reply {other:?}"
            ))),
        }
    }

    /// `lseek(fd, offset, whence)` with whence 0=SET, 1=CUR, 2=END.
    pub fn lseek(&self, fd: u64, offset: i64, whence: u8) -> FsResult<u64> {
        let (server, remote) = self.lookup_fd(fd)?;
        match self.roundtrip(
            server,
            FsOp::Seek {
                fd: remote,
                offset,
                whence,
            },
        )? {
            FsReply::Count(n) => Ok(n),
            other => Err(FsError::InvalidArgument(format!(
                "unexpected reply {other:?}"
            ))),
        }
    }

    /// Positional write that does not need an open descriptor.
    pub fn write_at(&self, path: &str, offset: u64, data: &[u8]) -> FsResult<u64> {
        let bb_path = self.translate(path)?;
        let server = self.server_for_path(&bb_path);
        match self.roundtrip(
            server,
            FsOp::WriteAt {
                path: bb_path,
                offset,
                data: data.to_vec(),
            },
        )? {
            FsReply::Count(n) => Ok(n),
            other => Err(FsError::InvalidArgument(format!(
                "unexpected reply {other:?}"
            ))),
        }
    }

    /// Positional read that does not need an open descriptor.
    pub fn read_at(&self, path: &str, offset: u64, len: u64) -> FsResult<Vec<u8>> {
        let bb_path = self.translate(path)?;
        let server = self.server_for_path(&bb_path);
        match self.roundtrip(
            server,
            FsOp::ReadAt {
                path: bb_path,
                offset,
                len,
            },
        )? {
            FsReply::Data(d) => Ok(d),
            other => Err(FsError::InvalidArgument(format!(
                "unexpected reply {other:?}"
            ))),
        }
    }

    /// `stat(path)`.
    pub fn stat(&self, path: &str) -> FsResult<StatInfo> {
        let bb_path = self.translate(path)?;
        let server = self.server_for_path(&bb_path);
        match self.roundtrip(server, FsOp::Stat { path: bb_path })? {
            FsReply::Stat(s) => Ok(s),
            other => Err(FsError::InvalidArgument(format!(
                "unexpected reply {other:?}"
            ))),
        }
    }

    /// `mkdir -p path`.
    pub fn mkdir_all(&self, path: &str) -> FsResult<()> {
        let bb_path = self.translate(path)?;
        let server = self.server_for_path(&bb_path);
        self.roundtrip(server, FsOp::Mkdir { path: bb_path })
            .map(|_| ())
    }

    /// `opendir` + `readdir` in one call.
    pub fn readdir(&self, path: &str) -> FsResult<Vec<String>> {
        let bb_path = self.translate(path)?;
        let server = self.server_for_path(&bb_path);
        match self.roundtrip(server, FsOp::Readdir { path: bb_path })? {
            FsReply::Entries(e) => Ok(e),
            other => Err(FsError::InvalidArgument(format!(
                "unexpected reply {other:?}"
            ))),
        }
    }

    /// `unlink(path)` / `rmdir(path)`.
    pub fn unlink(&self, path: &str) -> FsResult<()> {
        let bb_path = self.translate(path)?;
        let server = self.server_for_path(&bb_path);
        self.roundtrip(server, FsOp::Unlink { path: bb_path })
            .map(|_| ())
    }

    /// Creates a file striped over `stripe_count` servers.
    pub fn create_striped(
        &self,
        path: &str,
        stripe_size: u64,
        stripe_count: usize,
    ) -> FsResult<()> {
        let bb_path = self.translate(path)?;
        let server = self.server_for_path(&bb_path);
        self.roundtrip(
            server,
            FsOp::CreateStriped {
                path: bb_path,
                stripe: StripeConfig::new(stripe_size, stripe_count),
            },
        )
        .map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::collections::VecDeque;

    #[test]
    fn namespace_translation() {
        let ns = Namespace::default_fs();
        assert!(ns.intercepts("/fs/run1/out.dat"));
        assert!(!ns.intercepts("/home/user/out.dat"));
        assert_eq!(ns.translate("/fs/run1/out.dat").unwrap(), "/run1/out.dat");
        assert_eq!(ns.translate("/scratch/x"), None);
        let custom = Namespace::new("/bb");
        assert!(custom.intercepts("/bb/x"));
        assert!(!custom.intercepts("/fs/x"));
    }

    /// A loopback link that records messages and replies with canned answers,
    /// enough to test routing, request/response matching, and the policy
    /// control plane.
    struct MockLink {
        inbox: Mutex<VecDeque<ServerMessage>>,
        sent: Mutex<Vec<ClientMessage>>,
        policy: Mutex<(Policy, u64)>,
    }

    impl MockLink {
        fn new() -> Self {
            MockLink {
                inbox: Mutex::new(VecDeque::new()),
                sent: Mutex::new(Vec::new()),
                policy: Mutex::new((Policy::size_fair(), 0)),
            }
        }
    }

    impl ServerLink for MockLink {
        fn send(&self, msg: ClientMessage) {
            // Auto-reply to IO with a canned response echoing the request id.
            let reply = match &msg {
                ClientMessage::Io { request_id, op, .. } => Some(ServerMessage::IoReply {
                    request_id: *request_id,
                    reply: match op {
                        FsOp::Open { .. } => FsReply::Fd(77),
                        FsOp::Write { data, .. } => FsReply::Count(data.len() as u64),
                        FsOp::Read { len, .. } => FsReply::Data(vec![0u8; *len as usize]),
                        FsOp::Stat { .. } => FsReply::Error("no such file".into()),
                        _ => FsReply::Ok,
                    },
                }),
                ClientMessage::Hello { .. } | ClientMessage::Heartbeat { .. } => {
                    let p = self.policy.lock();
                    Some(ServerMessage::Ack {
                        policy: p.0.to_string(),
                        epoch: p.1,
                    })
                }
                ClientMessage::SetPolicy { request_id, policy } => {
                    let mut p = self.policy.lock();
                    p.0 = policy.clone();
                    p.1 += 1;
                    Some(ServerMessage::PolicyChanged {
                        request_id: *request_id,
                        policy: p.0.clone(),
                        epoch: p.1,
                    })
                }
                ClientMessage::GetPolicy { request_id } => {
                    let p = self.policy.lock();
                    Some(ServerMessage::PolicyChanged {
                        request_id: *request_id,
                        policy: p.0.clone(),
                        epoch: p.1,
                    })
                }
                ClientMessage::Flush { request_id, .. } => Some(ServerMessage::Stage {
                    request_id: *request_id,
                    reply: StageReply::Flushed { backing_bytes: 64 },
                }),
                ClientMessage::StageIn { request_id, .. } => Some(ServerMessage::Stage {
                    request_id: *request_id,
                    reply: StageReply::StagedIn { restored_bytes: 64 },
                }),
                ClientMessage::DrainStatus { request_id } => Some(ServerMessage::Stage {
                    request_id: *request_id,
                    reply: StageReply::Status(DrainStatus::default()),
                }),
                ClientMessage::Scrub { request_id } => Some(ServerMessage::Stage {
                    request_id: *request_id,
                    reply: StageReply::Scrub(ScrubStatus {
                        passes_completed: 1,
                        scrubbed_extents: 4,
                        ..ScrubStatus::default()
                    }),
                }),
                ClientMessage::ScrubStatus { request_id } => Some(ServerMessage::Stage {
                    request_id: *request_id,
                    reply: StageReply::Scrub(ScrubStatus::default()),
                }),
                ClientMessage::RebalanceStatus { request_id } => Some(ServerMessage::Stage {
                    request_id: *request_id,
                    reply: StageReply::Rebalance(RebalanceStatus {
                        sharded: true,
                        migrated_extents: 7,
                        ..RebalanceStatus::default()
                    }),
                }),
                ClientMessage::ReplicateStatus { request_id } => Some(ServerMessage::Stage {
                    request_id: *request_id,
                    reply: StageReply::Replicate(ReplicateStatus {
                        enabled: true,
                        replicated_extents: 3,
                        ..ReplicateStatus::default()
                    }),
                }),
                ClientMessage::MetricsSnapshot { request_id } => Some(ServerMessage::Stage {
                    request_id: *request_id,
                    reply: StageReply::Metrics(themis_telemetry::MetricsSnapshot::default()),
                }),
                ClientMessage::TraceDump { request_id, .. } => Some(ServerMessage::Stage {
                    request_id: *request_id,
                    reply: StageReply::Trace(themis_telemetry::TraceDump::default()),
                }),
                ClientMessage::Bye { .. } => None,
            };
            self.sent.lock().push(msg);
            if let Some(r) = reply {
                self.inbox.lock().push_back(r);
            }
        }

        fn recv(&self, _timeout: Duration) -> Option<ServerMessage> {
            self.inbox.lock().pop_front()
        }
    }

    fn client(n_links: usize) -> ThemisClient<MockLink> {
        let links = (0..n_links).map(|_| MockLink::new()).collect();
        ThemisClient::new(
            JobMeta::new(1u64, 2u32, 3u32, 4),
            links,
            Namespace::default_fs(),
        )
    }

    #[test]
    fn hello_reports_policies_from_all_servers() {
        let c = client(3);
        assert_eq!(c.hello(), vec!["size-fair"; 3]);
        assert_eq!(c.server_count(), 3);
    }

    #[test]
    fn descriptor_ops_stick_to_the_opening_server() {
        let c = client(4);
        let fd = c.open("/fs/data/file", true, true, false).unwrap();
        assert_eq!(c.write(fd, &[1, 2, 3]).unwrap(), 3);
        assert_eq!(c.read(fd, 8).unwrap().len(), 8);
        c.close(fd).unwrap();
        // All four messages (open/write/read/close) went to the same link.
        let busy: Vec<usize> = (0..4)
            .filter(|i| !c.links[*i].sent.lock().is_empty())
            .collect();
        assert_eq!(busy.len(), 1);
        assert_eq!(c.links[busy[0]].sent.lock().len(), 4);
    }

    #[test]
    fn paths_outside_namespace_are_rejected() {
        let c = client(2);
        assert!(matches!(
            c.open("/home/user/x", true, false, false),
            Err(FsError::InvalidPath(_))
        ));
    }

    #[test]
    fn errors_are_surfaced() {
        let c = client(2);
        assert!(c.stat("/fs/missing").is_err());
    }

    #[test]
    fn set_policy_reaches_every_server_and_bumps_epochs() {
        let c = client(3);
        let weighted: Policy = "user[2]-then-size-fair".parse().unwrap();
        let epochs = c.set_policy(&weighted).unwrap();
        assert_eq!(epochs, vec![1, 1, 1]);
        for i in 0..3 {
            let (p, e) = c.get_policy(i).unwrap();
            assert_eq!(p, weighted);
            assert_eq!(e, 1);
        }
        // A second swap bumps the epoch again and hello reports the new DSL
        // string.
        let epochs = c.set_policy(&Policy::job_fair()).unwrap();
        assert_eq!(epochs, vec![2, 2, 2]);
        assert_eq!(c.hello(), vec!["job-fair"; 3]);
    }

    #[test]
    fn staging_calls_broadcast_and_aggregate() {
        let c = client(3);
        // Flush and stage-in go to every server (dirty extents are
        // server-local). Flush reports the path's staged size (max across
        // the shared tier's acknowledgements); stage-in sums the bytes each
        // server actually restored.
        assert_eq!(c.flush("/fs/data/ckpt").unwrap(), 64);
        assert_eq!(c.stage_in("/fs/data/ckpt").unwrap(), 3 * 64);
        for link in &c.links {
            let sent = link.sent.lock();
            assert!(sent
                .iter()
                .any(|m| matches!(m, ClientMessage::Flush { path, .. } if path == "/data/ckpt")));
            assert!(sent
                .iter()
                .any(|m| matches!(m, ClientMessage::StageIn { path, .. } if path == "/data/ckpt")));
        }
        // Status targets one server.
        let status = c.drain_status(1).unwrap();
        assert!(status.is_clean());
        assert!(matches!(
            c.flush("/home/not-intercepted"),
            Err(FsError::InvalidPath(_))
        ));
    }

    #[test]
    fn scrub_calls_target_one_server() {
        let c = client(3);
        // A demand scrub waits for the pass and returns its counters…
        let status = c.scrub(1).unwrap();
        assert_eq!(status.passes_completed, 1);
        assert_eq!(status.scrubbed_extents, 4);
        assert!(status.is_healthy());
        // …and a status query is an immediate snapshot.
        let status = c.scrub_status(2).unwrap();
        assert_eq!(status.passes_completed, 0);
        // Only the targeted links saw traffic.
        assert!(c.links[0].sent.lock().is_empty());
        assert!(c.links[1]
            .sent
            .lock()
            .iter()
            .any(|m| matches!(m, ClientMessage::Scrub { .. })));
        assert!(c.links[2]
            .sent
            .lock()
            .iter()
            .any(|m| matches!(m, ClientMessage::ScrubStatus { .. })));
    }

    #[test]
    fn rebalance_status_targets_one_server() {
        let c = client(2);
        let status = c.rebalance_status(1).unwrap();
        assert!(status.sharded);
        assert_eq!(status.migrated_extents, 7);
        assert!(c.links[0].sent.lock().is_empty());
        assert!(c.links[1]
            .sent
            .lock()
            .iter()
            .any(|m| matches!(m, ClientMessage::RebalanceStatus { .. })));
    }

    #[test]
    fn replicate_status_targets_one_server() {
        let c = client(2);
        let status = c.replicate_status(1).unwrap();
        assert!(status.enabled);
        assert_eq!(status.replicated_extents, 3);
        assert!(status.is_idle());
        assert!(c.links[0].sent.lock().is_empty());
        assert!(c.links[1]
            .sent
            .lock()
            .iter()
            .any(|m| matches!(m, ClientMessage::ReplicateStatus { .. })));
    }

    #[test]
    #[should_panic(expected = "reserved system job-id range")]
    fn reserved_job_id_is_rejected_at_construction() {
        // The same boundary the server enforces (themis_core's
        // RESERVED_JOB_BASE): a client claiming a reserved id fails fast.
        let meta = JobMeta::new(themis_core::entity::RESERVED_JOB_BASE, 2u32, 3u32, 4);
        let _ = ThemisClient::new(meta, vec![MockLink::new()], Namespace::default_fs());
    }

    #[test]
    fn bad_descriptor_is_detected_client_side() {
        let c = client(1);
        assert!(matches!(c.write(99, &[0]), Err(FsError::BadDescriptor(99))));
        assert!(matches!(c.close(99), Err(FsError::BadDescriptor(99))));
    }
}
