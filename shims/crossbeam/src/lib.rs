//! Offline stand-in for the parts of `crossbeam` the workspace uses: an
//! unbounded MPMC channel with cloneable senders *and* receivers, queue-depth
//! inspection (`len`), `try_recv`, `recv_timeout` and a one-lock batch take
//! (`drain_into`) — the surface `themis-net`'s endpoints and the server
//! runtime rely on. Built on `Mutex<VecDeque>` + `Condvar`.
//!
//! The server loop's cost per request is mostly this channel's, and two
//! things make it: waking a peer that has gone to sleep, and the wake call
//! itself. So a blocking receive backs off before it parks — a few
//! `spin_loop` rounds, then `yield_now`, for at most [`channel::BACKOFF`] and
//! never past the caller's timeout — and a send wakes only a receiver that
//! is parked. The condvar's `notify_one` is not free when nobody waits: the
//! futex condvar of Rust's std issues a `FUTEX_WAKE` system call on every
//! call, measured at 215–246 ns on a 2-vCPU x86-64 host. Every receiver
//! counts itself as parked under the queue lock before it waits, and a send
//! reads that count under the same lock after it pushes, so a send that
//! skips the notify can only see a receiver that has not checked the queue
//! yet — and that one finds the message. The back-off yields rather than
//! spins so a waiting thread gives its core to whoever will produce the
//! message (with more runnable threads than cores, a busy spin starves the
//! producer).

pub mod channel {
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, PoisonError};
    use std::time::{Duration, Instant};

    /// How long a blocking receive backs off (spinning, then yielding)
    /// before it parks on the condvar. Long enough to bridge the gap between
    /// two replies of a busy peer, short enough that an idle waiter costs
    /// its core nothing measurable.
    pub const BACKOFF: Duration = Duration::from_micros(30);

    /// Back-off rounds that spin (`2^round` `spin_loop` hints each) before
    /// the rounds start yielding.
    const SPIN_ROUNDS: u32 = 4;

    struct Chan<T> {
        queue: Mutex<VecDeque<T>>,
        ready: Condvar,
        senders: AtomicUsize,
        receivers: AtomicUsize,
        /// Receivers blocked on `ready`. Moved and read only under the queue
        /// lock: a send notifies only while it is non-zero.
        parked: AtomicUsize,
    }

    impl<T> Chan<T> {
        fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<T>> {
            self.queue.lock().unwrap_or_else(PoisonError::into_inner)
        }
    }

    /// Error returned by [`Sender::send`] when every receiver is gone; carries
    /// the unsent message like crossbeam's.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// every sender is gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// No message waiting right now.
        Empty,
        /// No message waiting and every sender is gone.
        Disconnected,
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The timeout elapsed with no message.
        Timeout,
        /// Every sender is gone and the queue is drained.
        Disconnected,
    }

    /// The sending half of an unbounded channel.
    pub struct Sender<T> {
        chan: Arc<Chan<T>>,
    }

    /// The receiving half of an unbounded channel.
    pub struct Receiver<T> {
        chan: Arc<Chan<T>>,
    }

    /// Creates an unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
            parked: AtomicUsize::new(0),
        });
        (
            Sender {
                chan: Arc::clone(&chan),
            },
            Receiver { chan },
        )
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.chan.senders.fetch_add(1, Ordering::SeqCst);
            Sender {
                chan: Arc::clone(&self.chan),
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.chan.receivers.fetch_add(1, Ordering::SeqCst);
            Receiver {
                chan: Arc::clone(&self.chan),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.chan.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
                // Last sender gone: wake blocked receivers so they observe
                // the disconnect. Passing through the lock first orders this
                // against a receiver that has read `senders` but not parked
                // yet — it either sees zero or is waiting when we notify.
                drop(self.chan.lock());
                self.chan.ready.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.chan.receivers.fetch_sub(1, Ordering::SeqCst);
        }
    }

    impl<T> std::fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> std::fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    impl<T> Sender<T> {
        /// Enqueues `msg`, failing only when every receiver has been dropped.
        /// Wakes a receiver only if one is parked: the count is read under
        /// the lock the push took, and a receiver counts itself under that
        /// lock before it waits, so no wake-up is lost.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            if self.chan.receivers.load(Ordering::SeqCst) == 0 {
                return Err(SendError(msg));
            }
            let parked = {
                let mut q = self.chan.lock();
                q.push_back(msg);
                self.chan.parked.load(Ordering::Relaxed)
            };
            if parked > 0 {
                #[cfg(test)]
                tests::NOTIFIES.with(|n| n.set(n.get() + 1));
                self.chan.ready.notify_one();
            }
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        /// Number of messages currently queued.
        pub fn len(&self) -> usize {
            self.chan.lock().len()
        }

        /// Whether the queue is currently empty.
        pub fn is_empty(&self) -> bool {
            self.chan.lock().is_empty()
        }

        /// Moves every queued message to the back of `out`, in order, under
        /// one lock. Into an empty `out` the two queues are swapped, so the
        /// channel keeps `out`'s allocation.
        pub fn drain_into(&self, out: &mut VecDeque<T>) {
            let mut q = self.chan.lock();
            if out.is_empty() {
                std::mem::swap(&mut *q, out);
            } else {
                out.append(&mut q);
            }
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut q = self.chan.lock();
            match q.pop_front() {
                Some(m) => Ok(m),
                None if self.chan.senders.load(Ordering::SeqCst) == 0 => {
                    Err(TryRecvError::Disconnected)
                }
                None => Err(TryRecvError::Empty),
            }
        }

        /// Blocking receive; fails once the channel is drained and every
        /// sender has been dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.recv_within(None).map_err(|_| RecvError)
        }

        /// Blocking receive with a deadline. A zero timeout is a pure
        /// [`try_recv`](Self::try_recv): no clock read, no back-off.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.recv_within(Some(timeout))
        }

        /// The blocking receive: try, back off, then park — until `timeout`
        /// has passed (forever when `None`, or when the deadline does not
        /// fit an `Instant`).
        fn recv_within(&self, timeout: Option<Duration>) -> Result<T, RecvTimeoutError> {
            let attempt = |rx: &Self| match rx.try_recv() {
                Ok(m) => Some(Ok(m)),
                Err(TryRecvError::Disconnected) => Some(Err(RecvTimeoutError::Disconnected)),
                Err(TryRecvError::Empty) => None,
            };
            if let Some(done) = attempt(self) {
                return done;
            }
            if timeout.is_some_and(|t| t.is_zero()) {
                return Err(RecvTimeoutError::Timeout);
            }
            let start = Instant::now();
            let deadline = timeout.and_then(|t| start.checked_add(t));

            // Back off: the sender is probably about to produce (a busy
            // peer's next reply, the device's next free slot), and parking
            // would cost it a futex wake and us a reschedule.
            let backoff_end = deadline.map_or(start + BACKOFF, |d| d.min(start + BACKOFF));
            let mut round = 0u32;
            loop {
                if round < SPIN_ROUNDS {
                    for _ in 0..1u32 << round {
                        std::hint::spin_loop();
                    }
                } else {
                    std::thread::yield_now();
                }
                round += 1;
                #[cfg(test)]
                tests::BACKOFF_ROUNDS.with(|r| r.set(r.get() + 1));
                if let Some(done) = attempt(self) {
                    return done;
                }
                if Instant::now() >= backoff_end {
                    break;
                }
            }

            let mut q = self.chan.lock();
            loop {
                if let Some(m) = q.pop_front() {
                    return Ok(m);
                }
                if self.chan.senders.load(Ordering::SeqCst) == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let wait = match deadline {
                    Some(d) => match d.checked_duration_since(Instant::now()) {
                        Some(left) if !left.is_zero() => Some(left),
                        _ => return Err(RecvTimeoutError::Timeout),
                    },
                    None => None,
                };
                // Counted before the wait releases the lock: a send that
                // pushes after this point sees the count and notifies.
                self.chan.parked.fetch_add(1, Ordering::Relaxed);
                q = match wait {
                    Some(left) => {
                        self.chan
                            .ready
                            .wait_timeout(q, left)
                            .unwrap_or_else(PoisonError::into_inner)
                            .0
                    }
                    None => self
                        .chan
                        .ready
                        .wait(q)
                        .unwrap_or_else(PoisonError::into_inner),
                };
                self.chan.parked.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::cell::Cell;

        thread_local! {
            /// Back-off rounds (spin or yield) taken by receives on this
            /// thread, so tests can tell a pure try from a wait.
            pub(super) static BACKOFF_ROUNDS: Cell<u64> = const { Cell::new(0) };
            /// Condvar notifies issued by sends on this thread.
            pub(super) static NOTIFIES: Cell<u64> = const { Cell::new(0) };
        }

        fn notifies() -> u64 {
            NOTIFIES.with(Cell::get)
        }

        fn backoff_rounds() -> u64 {
            BACKOFF_ROUNDS.with(Cell::get)
        }

        /// Blocks until a receiver of `tx`'s channel is parked on the
        /// condvar, so the caller's next send takes the notify path. Panics
        /// after 10 s: a receiver that never counts itself parked would
        /// never be woken by a send.
        fn wait_until_parked<T>(tx: &Sender<T>) {
            let t0 = Instant::now();
            // Read under the lock the count moves under: a receiver seen
            // here is already inside `wait`.
            while {
                let _q = tx.chan.lock();
                tx.chan.parked.load(Ordering::Relaxed) == 0
            } {
                assert!(
                    t0.elapsed() < Duration::from_secs(10),
                    "no receiver ever counted itself parked"
                );
                std::thread::yield_now();
            }
        }

        #[test]
        fn send_recv_in_order() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.len(), 2);
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.try_recv(), Ok(2));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        }

        #[test]
        fn disconnect_propagates_both_ways() {
            let (tx, rx) = unbounded::<u32>();
            drop(rx);
            assert_eq!(tx.send(1), Err(SendError(1)));
            let (tx, rx) = unbounded::<u32>();
            drop(tx);
            assert_eq!(rx.recv(), Err(RecvError));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        }

        #[test]
        fn timeout_fires_when_quiet() {
            let (_tx, rx) = unbounded::<u32>();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(5)),
                Err(RecvTimeoutError::Timeout)
            );
        }

        /// Four senders against one receiver that is driven through both of
        /// its waiting modes: while the bursting senders run it is fed faster
        /// than it can park; sender 0 then waits for it to park before every
        /// hundredth message. A lost wake-up shows as the 10 s timeout, a
        /// reordering as a gap in a sender's sequence. The test's own sender
        /// lives to the end, so a disconnect cannot wake a parked receiver.
        #[test]
        fn many_senders_lose_and_reorder_nothing_across_backoff_and_park() {
            const SENDERS: usize = 4;
            const PER_SENDER: u64 = 2_000;
            let (tx, rx) = unbounded::<(usize, u64)>();
            let senders: Vec<_> = (0..SENDERS)
                .map(|s| {
                    let tx = tx.clone();
                    std::thread::spawn(move || {
                        for i in 0..PER_SENDER {
                            if s == 0 && i % 100 == 0 {
                                wait_until_parked(&tx);
                            }
                            tx.send((s, i)).unwrap();
                        }
                    })
                })
                .collect();
            let mut next = [0u64; SENDERS];
            for _ in 0..SENDERS as u64 * PER_SENDER {
                let timeout = Duration::from_secs(10);
                let t0 = Instant::now();
                let (s, i) = rx
                    .recv_timeout(timeout)
                    .expect("a message was sent but never woke the receiver");
                assert!(t0.elapsed() < timeout, "a parked receive was never woken");
                assert_eq!(i, next[s], "sender {s} was reordered");
                next[s] += 1;
            }
            for t in senders {
                t.join().unwrap();
            }
            drop(tx);
            assert_eq!(next, [PER_SENDER; SENDERS]);
            assert_eq!(rx.recv(), Err(RecvError));
        }

        /// Three senders — one bursting, one pausing past the back-off, one
        /// waiting for the receiver to park — against a receiver that
        /// alternates a back-off-only wait (shorter than [`BACKOFF`], so it
        /// never parks) with one that parks. With the wake gated on the
        /// parked count, a count read at the wrong moment shows as a parked
        /// receive that outlives its 10 s timeout; a reordering as a gap in
        /// a sender's sequence. The test keeps a sender of its own until the
        /// end, so no disconnect's `notify_all` can stand in for a lost
        /// wake-up.
        #[test]
        fn gated_wake_loses_nothing_while_the_receiver_alternates_backoff_and_park() {
            const SENDERS: usize = 3;
            const PER_SENDER: u64 = 1_500;
            let (tx, rx) = unbounded::<(usize, u64)>();
            let senders: Vec<_> = (0..SENDERS)
                .map(|s| {
                    let tx = tx.clone();
                    std::thread::spawn(move || {
                        for i in 0..PER_SENDER {
                            match s {
                                1 if i % 50 == 0 => std::thread::sleep(2 * BACKOFF),
                                2 if i % 50 == 0 => wait_until_parked(&tx),
                                _ => {}
                            }
                            tx.send((s, i)).unwrap();
                        }
                    })
                })
                .collect();
            let mut next = [0u64; SENDERS];
            let mut received = 0;
            for attempt in 0u64.. {
                if received == SENDERS as u64 * PER_SENDER {
                    break;
                }
                let (s, i) = if attempt % 2 == 0 {
                    match rx.recv_timeout(BACKOFF / 2) {
                        Ok(m) => m,
                        Err(RecvTimeoutError::Timeout) => continue,
                        Err(e) => panic!("disconnected with messages owed: {e:?}"),
                    }
                } else {
                    let timeout = Duration::from_secs(10);
                    let t0 = Instant::now();
                    let got = rx.recv_timeout(timeout);
                    assert!(t0.elapsed() < timeout, "a parked receive was never woken");
                    got.expect("a message was sent but never woke the receiver")
                };
                assert_eq!(i, next[s], "sender {s} was reordered");
                next[s] += 1;
                received += 1;
            }
            for t in senders {
                t.join().unwrap();
            }
            drop(tx);
            assert_eq!(next, [PER_SENDER; SENDERS]);
            assert_eq!(rx.recv(), Err(RecvError));
        }

        #[test]
        fn a_send_notifies_only_a_parked_receiver() {
            let (tx, rx) = unbounded();
            let before = notifies();
            for i in 0..100 {
                tx.send(i).unwrap();
            }
            assert_eq!(notifies(), before, "nobody was parked");
            for i in 0..100 {
                assert_eq!(rx.try_recv(), Ok(i));
            }
            let waiter = std::thread::spawn(move || rx.recv());
            wait_until_parked(&tx);
            tx.send(100).unwrap();
            // The counter is live: a parked receiver is notified.
            assert_eq!(notifies(), before + 1);
            assert_eq!(waiter.join().unwrap(), Ok(100));
        }

        #[test]
        fn drain_into_takes_everything_in_order_between_try_recvs() {
            let (tx, rx) = unbounded();
            let mut out = VecDeque::new();
            rx.drain_into(&mut out);
            assert!(out.is_empty());
            for i in 1..=3 {
                tx.send(i).unwrap();
            }
            assert_eq!(rx.try_recv(), Ok(1));
            rx.drain_into(&mut out);
            assert_eq!(out, [2, 3]);
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
            for i in 4..=6 {
                tx.send(i).unwrap();
            }
            assert_eq!(rx.try_recv(), Ok(4));
            // Into a non-empty queue: appended behind what it holds.
            rx.drain_into(&mut out);
            assert_eq!(out, [2, 3, 5, 6]);
            assert!(rx.is_empty());
            tx.send(7).unwrap();
            assert_eq!(rx.recv(), Ok(7));
        }

        #[test]
        fn disconnect_is_observed_while_backing_off() {
            let (tx, rx) = unbounded::<u32>();
            let started = Arc::new(std::sync::Barrier::new(2));
            let waiter = {
                let started = Arc::clone(&started);
                std::thread::spawn(move || {
                    started.wait();
                    // A timeout shorter than the back-off never parks, so
                    // every one of these waits is back-off only.
                    loop {
                        match rx.recv_timeout(BACKOFF / 2) {
                            Err(RecvTimeoutError::Timeout) => continue,
                            other => return other,
                        }
                    }
                })
            };
            started.wait();
            drop(tx);
            assert_eq!(waiter.join().unwrap(), Err(RecvTimeoutError::Disconnected));
        }

        #[test]
        fn disconnect_is_observed_while_parked() {
            let (tx, rx) = unbounded::<u32>();
            let waiter = std::thread::spawn(move || rx.recv());
            wait_until_parked(&tx);
            drop(tx);
            assert_eq!(waiter.join().unwrap(), Err(RecvError));
        }

        #[test]
        fn zero_timeout_is_a_pure_try() {
            let (tx, rx) = unbounded();
            let before = backoff_rounds();
            assert_eq!(
                rx.recv_timeout(Duration::ZERO),
                Err(RecvTimeoutError::Timeout)
            );
            tx.send(1).unwrap();
            assert_eq!(rx.recv_timeout(Duration::ZERO), Ok(1));
            assert_eq!(backoff_rounds(), before);
            // The counter is live: a real wait does back off.
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(1)),
                Err(RecvTimeoutError::Timeout)
            );
            assert!(backoff_rounds() > before);
        }

        #[test]
        fn timeout_fires_within_twice_its_value() {
            let (_tx, rx) = unbounded::<u32>();
            // Longer than the back-off (parks) and shorter (never parks).
            for timeout in [Duration::from_millis(50), BACKOFF / 3] {
                let t0 = Instant::now();
                assert_eq!(rx.recv_timeout(timeout), Err(RecvTimeoutError::Timeout));
                let waited = t0.elapsed();
                assert!(waited >= timeout, "{waited:?} < {timeout:?}");
                if timeout > BACKOFF {
                    assert!(waited < 2 * timeout, "{waited:?} for {timeout:?}");
                }
            }
        }

        #[test]
        fn cross_thread_delivery() {
            let (tx, rx) = unbounded();
            let t = std::thread::spawn(move || {
                for i in 0..100 {
                    tx.send(i).unwrap();
                }
            });
            let mut got = Vec::new();
            for _ in 0..100 {
                got.push(rx.recv().unwrap());
            }
            t.join().unwrap();
            assert_eq!(got, (0..100).collect::<Vec<_>>());
        }
    }
}
