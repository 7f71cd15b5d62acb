//! The message substrate: [`Transport`] builds per-rank [`Endpoint`]s,
//! and everything above this boundary is transport-independent.
//!
//! The paper's (F, W, S) analysis only assumes point-to-point sends with
//! α/β costs — nothing about *how* the words move. This module cuts the
//! codebase at exactly that line:
//!
//! * **Below** the boundary, a [`Transport`] connects `p` ranks and each
//!   [`Endpoint`] moves opaque [`Envelope`]s: `send` delivers to a
//!   destination rank, `recv` blocks (bounded by a caller-supplied
//!   timeout) for the next arrival from *any* source. Transports never
//!   inspect payloads, match tags, or touch clocks.
//! * **Above** the boundary, [`Rank`](crate::Rank) (the
//!   transport-independent wrapper) owns everything semantic: tag/key
//!   matching through the per-rank mailbox, epoch leak
//!   detection, poison wakeups, the deadlock timeout policy, and the
//!   deterministic α-β-γ clock accounting. Changing how envelopes are
//!   buffered therefore cannot change a single charged flop, word, or
//!   message.
//!
//! The in-process substrate is [`MpscTransport`]: one `std::sync::mpsc`
//! channel per destination rank, unbounded by default. Tests build it
//! with [`MpscTransport::bounded`] to cap the envelopes in flight per
//! (sender, receiver) pair, which turns every schedule into a
//! backpressure stress case. The [`FaultyTransport`](crate::FaultyTransport)
//! decorator plugs in through the same traits, as would a network or
//! shared-memory backend.

use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::clock::Clock;
use crate::payload::Payload;

/// A message on the wire: a shared payload view plus delivery metadata.
///
/// The sender's [`Clock`] snapshot (taken *after* the send was charged)
/// rides along so the receiver can merge critical paths; `epoch` stamps
/// which executor job the message belongs to, so traffic from
/// consecutive jobs sharing one fabric can never be confused (receives
/// reject foreign epochs). Transports treat all fields as opaque cargo.
#[derive(Debug, PartialEq)]
pub struct Envelope {
    /// World (global) rank of the sender.
    pub src_global: usize,
    /// Communicator the message was sent on (see [`crate::Comm`]).
    pub comm_id: u64,
    /// Message tag within the communicator.
    pub tag: u64,
    /// Executor job epoch ([`u64::MAX`] is reserved for poison wakeups).
    pub epoch: u64,
    /// The words, as a zero-copy shared view.
    pub payload: Payload,
    /// The sender's critical-path clock after charging the send.
    pub clock: Clock,
}

/// Error returned by [`Endpoint::recv`] when no envelope arrived within
/// the caller's timeout. The *policy* (panic with a deadlock diagnostic,
/// scale the window with machine size) lives in the transport-independent
/// wrapper; transports only report the fact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvTimedOut;

/// A message substrate: connects `p` ranks and hands each its
/// [`Endpoint`]. Implementations must deliver envelopes between any
/// ordered pair of ranks, preserving per-pair FIFO order (the mailbox's
/// deterministic matching relies on it) and moving the [`Envelope`] —
/// and therefore its `Arc`-shared payload — without copying words.
pub trait Transport: std::fmt::Debug + Send + Sync {
    /// A short stable name (`"mpsc"`, `"faulty"`) for diagnostics.
    fn name(&self) -> &'static str;

    /// Build the fabric for `p` ranks and return one endpoint per rank,
    /// indexed by world rank. Called once per executor spawn; endpoints
    /// move to their rank's worker thread and live for the executor's
    /// lifetime (jobs reuse them).
    fn connect(&self, p: usize) -> Vec<Box<dyn Endpoint>>;

    /// `true` when this transport may legitimately lose envelopes or
    /// leave them undelivered — today only the fault-injecting
    /// [`FaultyTransport`](crate::FaultyTransport). The executor skips
    /// its message-conservation invariants (empty mailboxes, global
    /// sent == received) on lossy fabrics, because an injected rank
    /// death makes both fail by design.
    fn is_lossy(&self) -> bool {
        false
    }
}

/// One rank's pair of wires into the fabric. Owned (and only ever used)
/// by a single rank thread at a time; `&mut self` encodes that.
pub trait Endpoint: Send {
    /// Deliver `env` to rank `dst`. May block under backpressure (a
    /// bounded transport with no free slot) but must either complete or
    /// panic with a diagnostic within roughly `patience` — a sender
    /// stuck longer than the receive-deadlock window *is* a deadlock.
    /// Unbounded transports ignore `patience` and never block.
    fn send(&mut self, dst: usize, env: Envelope, patience: Duration);

    /// Best-effort non-blocking delivery, used for poison wakeups where
    /// blocking (or panicking again) during panic handling is worse than
    /// dropping the hint. Returns `false` if the envelope could not be
    /// accepted immediately.
    fn try_send(&mut self, dst: usize, env: Envelope) -> bool;

    /// The next envelope to arrive from any source, in arrival order.
    /// Blocks up to `timeout`; `Err(RecvTimedOut)` after that. Matching
    /// by (source, communicator, tag) happens a layer up, in the
    /// mailbox.
    fn recv(&mut self, timeout: Duration) -> Result<Envelope, RecvTimedOut>;

    /// `true` when an injected fault has severed this rank from the
    /// fabric (see [`FaultyTransport`](crate::FaultyTransport)): its
    /// sends vanish and its receives time out immediately. Real
    /// transports are never severed.
    fn is_dead(&self) -> bool {
        false
    }
}

/// The in-process fabric: one `std::sync::mpsc` channel per rank.
///
/// The default is unbounded: sends never block (the channel grows) and
/// receives block on the channel's own condition variable.
/// [`MpscTransport::bounded`] adds at most `cap` envelopes in flight per
/// ordered (sender, receiver) pair; a sender with no free slot waits for
/// the receiver to take one of its envelopes off the channel.
#[derive(Debug, Clone, Copy, Default)]
pub struct MpscTransport {
    cap: Option<usize>,
}

impl MpscTransport {
    /// A fabric allowing at most `cap` undelivered envelopes per ordered
    /// (sender, receiver) pair. A sender that finds no free slot for
    /// longer than its patience panics with a diagnostic naming the
    /// capacity. Meant for tests: at capacity 1 every schedule runs
    /// under maximal backpressure.
    ///
    /// # Panics
    /// If `cap` is zero (nothing could ever be delivered).
    pub fn bounded(cap: usize) -> Self {
        assert!(cap >= 1, "channel capacity must be at least 1");
        MpscTransport { cap: Some(cap) }
    }
}

impl Transport for MpscTransport {
    fn name(&self) -> &'static str {
        "mpsc"
    }

    fn connect(&self, p: usize) -> Vec<Box<dyn Endpoint>> {
        let (senders, receivers): (Vec<Sender<Envelope>>, Vec<Receiver<Envelope>>) =
            (0..p).map(|_| channel()).unzip();
        let senders = Arc::new(senders);
        let credits = self.cap.map(|cap| Arc::new(Credits::new(p, cap)));
        receivers
            .into_iter()
            .enumerate()
            .map(|(me, receiver)| {
                Box::new(MpscEndpoint {
                    me,
                    senders: Arc::clone(&senders),
                    receiver,
                    credits: credits.clone(),
                }) as Box<dyn Endpoint>
            })
            .collect()
    }
}

/// No code panics while holding a credit lock, so it is never poisoned.
const UNPOISONED: &str = "credit lock poisoned";

/// Free slots per ordered (sender, receiver) pair of a bounded fabric.
/// A sender takes a credit before it sends; the receiver returns it when
/// it takes the envelope off its channel. Counting per pair, not per
/// destination, means one sender's burst can never use up the slots
/// another sender needs to make progress.
struct Credits {
    p: usize,
    cap: usize,
    /// `free[src * p + dst]`: credits `src` may still spend on `dst`.
    free: Vec<(Mutex<usize>, Condvar)>,
}

impl Credits {
    fn new(p: usize, cap: usize) -> Self {
        Credits {
            p,
            cap,
            free: (0..p * p)
                .map(|_| (Mutex::new(cap), Condvar::new()))
                .collect(),
        }
    }

    /// The `src → dst` credit count, locked, and the condition variable
    /// its sender waits on.
    fn pair(&self, src: usize, dst: usize) -> (MutexGuard<'_, usize>, &Condvar) {
        let (free, freed) = &self.free[src * self.p + dst];
        (free.lock().expect(UNPOISONED), freed)
    }

    /// Take one `src → dst` credit, waiting up to `patience` for the
    /// receiver to return one.
    fn take(&self, src: usize, dst: usize, patience: Duration) {
        // `None` when `now + patience` overflows `Instant` (e.g. the
        // wrapper's saturated Duration::MAX window): wait unboundedly.
        let deadline = Instant::now().checked_add(patience);
        let (mut free, freed) = self.pair(src, dst);
        while *free == 0 {
            free = match deadline {
                None => freed.wait(free).expect(UNPOISONED),
                Some(d) => {
                    let left = d.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        // Release the lock first: panicking with it held
                        // would poison the pair for the receiver.
                        drop(free);
                        panic!(
                            "rank {src} send to rank {dst} blocked for {patience:?} with no \
                             free slot (capacity {} envelopes per pair): receiver is not \
                             draining — deadlock",
                            self.cap
                        );
                    }
                    freed.wait_timeout(free, left).expect(UNPOISONED).0
                }
            };
        }
        *free -= 1;
    }

    /// Take one `src → dst` credit if one is free.
    fn try_take(&self, src: usize, dst: usize) -> bool {
        let (mut free, _) = self.pair(src, dst);
        if *free == 0 {
            return false;
        }
        *free -= 1;
        true
    }

    /// Return one `src → dst` credit and wake a sender waiting for it.
    fn give(&self, src: usize, dst: usize) {
        let (mut free, freed) = self.pair(src, dst);
        *free += 1;
        freed.notify_one();
    }
}

struct MpscEndpoint {
    me: usize,
    senders: Arc<Vec<Sender<Envelope>>>,
    receiver: Receiver<Envelope>,
    /// `Some` only on a [`MpscTransport::bounded`] fabric.
    credits: Option<Arc<Credits>>,
}

impl Endpoint for MpscEndpoint {
    fn send(&mut self, dst: usize, env: Envelope, patience: Duration) {
        if let Some(credits) = &self.credits {
            credits.take(self.me, dst, patience);
        }
        self.senders[dst].send(env).expect("rank channel closed");
    }

    fn try_send(&mut self, dst: usize, env: Envelope) -> bool {
        if let Some(credits) = &self.credits {
            if !credits.try_take(self.me, dst) {
                return false;
            }
        }
        self.senders[dst].send(env).is_ok()
    }

    fn recv(&mut self, timeout: Duration) -> Result<Envelope, RecvTimedOut> {
        match self.receiver.recv_timeout(timeout) {
            Ok(env) => {
                if let Some(credits) = &self.credits {
                    credits.give(env.src_global, self.me);
                }
                Ok(env)
            }
            Err(RecvTimeoutError::Timeout) => Err(RecvTimedOut),
            // Senders only drop when the executor tears down, and no
            // rank receives during teardown — but a dead peer thread
            // also closes its sender clone, which a blocked receiver
            // observes as a disconnect. Surface it as a timeout: the
            // wrapper's deadlock diagnostic is the right report.
            Err(RecvTimeoutError::Disconnected) => Err(RecvTimedOut),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn env(src: usize, tag: u64, val: f64) -> Envelope {
        Envelope {
            src_global: src,
            comm_id: 0,
            tag,
            epoch: 0,
            payload: Payload::new(vec![val]),
            clock: Clock::zero(),
        }
    }

    #[test]
    fn endpoints_deliver_in_fifo_order() {
        // At capacity 2, 50 messages make the sender wait on the
        // receiver many times over; order must survive on both fabrics.
        for transport in [MpscTransport::default(), MpscTransport::bounded(2)] {
            let mut eps = transport.connect(2);
            let mut e1 = eps.pop().unwrap();
            let mut e0 = eps.pop().unwrap();
            let sender = thread::spawn(move || {
                for i in 0..50 {
                    e0.send(1, env(0, 0, i as f64), Duration::from_secs(5));
                }
            });
            for i in 0..50 {
                let got = e1.recv(Duration::from_secs(5)).unwrap();
                assert_eq!(got.payload, vec![i as f64]);
            }
            sender.join().unwrap();
            assert_eq!(e1.recv(Duration::from_millis(10)), Err(RecvTimedOut));
        }
    }

    #[test]
    fn full_pair_applies_backpressure() {
        let mut eps = MpscTransport::bounded(1).connect(3);
        let mut e2 = eps.pop().unwrap();
        let mut e1 = eps.pop().unwrap();
        let mut e0 = eps.pop().unwrap();
        // First send uses the pair's only slot; the second must block
        // until the receiver drains, not drop or reorder.
        e0.send(1, env(0, 0, 1.0), Duration::from_secs(5));
        assert!(
            !e0.try_send(1, env(0, 0, 99.0)),
            "full pair rejects try_send"
        );
        // The bound is per pair: another sender to the same receiver
        // still has its own slot.
        assert!(e2.try_send(1, env(2, 0, 3.0)), "other pairs stay open");
        let blocked = thread::spawn(move || {
            let t0 = Instant::now();
            e0.send(1, env(0, 0, 2.0), Duration::from_secs(5));
            t0.elapsed()
        });
        thread::sleep(Duration::from_millis(50));
        let got: Vec<Vec<f64>> = (0..3)
            .map(|_| e1.recv(Duration::from_secs(5)).unwrap().payload.to_vec())
            .collect();
        assert_eq!(got, vec![vec![1.0], vec![3.0], vec![2.0]]);
        let waited = blocked.join().unwrap();
        assert!(
            waited >= Duration::from_millis(30),
            "second send should have blocked (~50ms), waited {waited:?}"
        );
    }

    #[test]
    #[should_panic(expected = "capacity 1 envelopes per pair")]
    fn blocked_send_panics_past_patience() {
        let mut eps = MpscTransport::bounded(1).connect(2);
        let mut e0 = eps.remove(0);
        e0.send(1, env(0, 0, 1.0), Duration::from_millis(50));
        // Nobody ever receives: the second send must give up loudly.
        e0.send(1, env(0, 0, 2.0), Duration::from_millis(50));
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_capacity_rejected() {
        let _ = MpscTransport::bounded(0);
    }

    #[test]
    fn self_send_is_delivered() {
        let mut eps = MpscTransport::bounded(1).connect(1);
        for val in [5.0, 6.0] {
            eps[0].send(0, env(0, 1, val), Duration::from_secs(1));
            let got = eps[0].recv(Duration::from_secs(1)).unwrap();
            assert_eq!(got.payload, vec![val]);
        }
    }

    #[test]
    fn transit_preserves_payload_allocation() {
        for transport in [MpscTransport::default(), MpscTransport::bounded(1)] {
            let mut eps = transport.connect(1);
            let p = Payload::new(vec![3.0; 1024]);
            let e = Envelope {
                payload: p.clone(),
                ..env(0, 0, 0.0)
            };
            eps[0].send(0, e, Duration::from_secs(1));
            let got = eps[0].recv(Duration::from_secs(1)).unwrap();
            assert!(got.payload.same_buffer(&p), "transit must not copy words");
        }
    }
}
