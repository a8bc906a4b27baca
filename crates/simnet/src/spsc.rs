//! Bounded single-producer/single-consumer queues.
//!
//! The sharded fleet engine moves work between exactly-one-producer /
//! exactly-one-consumer pairs: the dispatcher hands each worker shard its
//! run's job through one one-slot queue, and the worker hands its report
//! back through another. A bounded SPSC ring is the right primitive for that
//! topology: the slots are allocated once at construction, pushes and pops
//! touch only two atomic indices (no locks, no allocation), and an idle
//! consumer parks instead of polling.
//!
//! This is a classic Lamport ring buffer: the producer owns `tail`, the
//! consumer owns `head`, both indices grow monotonically, and `index % cap`
//! addresses the slot. The producer publishes a slot with a `Release` store
//! of `tail`; the consumer observes it with an `Acquire` load, so the slot
//! write *happens-before* the read.
//!
//! # Examples
//!
//! ```
//! use mop_simnet::spsc_channel;
//!
//! let (tx, rx) = spsc_channel::<u32>(4);
//! let worker = std::thread::spawn(move || {
//!     let mut sum = 0;
//!     while let Some(v) = rx.recv() {
//!         sum += v;
//!     }
//!     sum
//! });
//! for v in 1..=100 {
//!     tx.send(v).unwrap();
//! }
//! drop(tx); // Closes the channel; `recv` returns `None` once drained.
//! assert_eq!(worker.join().unwrap(), 5050);
//! ```

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::Thread;

/// How many spin-loop iterations a blocked side burns before yielding the
/// thread. Bounded waits keep latency low without monopolising a core.
const SPINS_BEFORE_YIELD: u32 = 64;

/// How many yields a blocked side performs (after the spin phase) before
/// escalating to a real sleep.
const YIELDS_BEFORE_SLEEP: u32 = 32;

/// How long the sleep phase parks the thread per pause. Long enough to free
/// the core for the peer, short enough to stay responsive once it drains.
const SLEEP_PAUSE: std::time::Duration = std::time::Duration::from_micros(100);

/// Safety-net bound on a parked `recv`. The normal wake-up is an explicit
/// `unpark` from the producer (or the sender's drop), so this only limits
/// how long a theoretical lost wake-up could strand the consumer.
const PARK_TIMEOUT: std::time::Duration = std::time::Duration::from_millis(100);

/// An escalating wait strategy for blocked queue endpoints: spin briefly
/// (cheapest if the peer is about to act), then yield the time slice, then
/// sleep. A full ring therefore costs the waiting thread almost no CPU
/// instead of burning a core in a hot spin loop. Each blocking call starts
/// a fresh one, in the spin phase.
#[derive(Debug, Default)]
struct Backoff {
    step: u32,
}

impl Backoff {
    /// Waits once, escalating from spin to yield to sleep as failed attempts
    /// accumulate.
    fn pause(&mut self) {
        if self.step < SPINS_BEFORE_YIELD {
            std::hint::spin_loop();
        } else if self.step < SPINS_BEFORE_YIELD + YIELDS_BEFORE_SLEEP {
            std::thread::yield_now();
        } else {
            std::thread::sleep(SLEEP_PAUSE);
        }
        self.step = self.step.saturating_add(1);
    }

    /// True once the spin and yield phases are exhausted — the point where
    /// the next `pause` would sleep, and a caller with a real wake-up signal
    /// (like `recv`'s park/unpark handshake) should block on that instead.
    fn exhausted(&self) -> bool {
        self.step >= SPINS_BEFORE_YIELD + YIELDS_BEFORE_SLEEP
    }
}

struct Ring<T> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Next index the consumer will pop. Only the consumer advances it.
    head: AtomicUsize,
    /// Next index the producer will push. Only the producer advances it.
    tail: AtomicUsize,
    /// Set when either side is dropped.
    closed: AtomicBool,
    /// True while the consumer is parked (or committing to park) in `recv`.
    /// A long-idle consumer blocks on `park` instead of a sleep loop, so a
    /// resident shard worker waiting for its next run costs zero wake-ups —
    /// on a small host the 10 kHz sleep-poll of even a handful of parked
    /// workers measurably preempts the threads doing real work.
    consumer_parked: AtomicBool,
    /// The consumer thread to `unpark`, registered by `recv` before parking.
    waiter: Mutex<Option<Thread>>,
}

// The ring hands each `T` from exactly one thread to exactly one other
// thread; the release/acquire pair on `tail` (and `head`) orders the slot
// accesses, so sharing the ring is sound whenever `T` itself may move
// between threads.
unsafe impl<T: Send> Send for Ring<T> {}
unsafe impl<T: Send> Sync for Ring<T> {}

impl<T> Ring<T> {
    fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Wakes the consumer if it is parked in `recv`. Callers must have
    /// already published whatever the consumer is waiting for (an item, or
    /// the closed flag) and issued a `SeqCst` fence: the fence pairs with
    /// the one in `recv`'s park path, so either the consumer's re-check sees
    /// the publication, or this load sees the parked flag — a wake-up cannot
    /// fall between them.
    fn wake_consumer(&self) {
        if self.consumer_parked.load(Ordering::Relaxed)
            && self.consumer_parked.swap(false, Ordering::AcqRel)
        {
            if let Some(thread) = self.waiter.lock().expect("ring waiter lock").as_ref() {
                thread.unpark();
            }
        }
    }
}

impl<T> Drop for Ring<T> {
    fn drop(&mut self) {
        // Both handles are gone; indices are quiescent. Drop the undrained
        // items in place.
        let head = *self.head.get_mut();
        let tail = *self.tail.get_mut();
        for i in head..tail {
            let slot = self.slots[i % self.capacity()].get();
            // SAFETY: slots in [head, tail) were initialised by the producer
            // and never consumed; we drop each exactly once.
            unsafe { (*slot).assume_init_drop() };
        }
    }
}

/// The error returned by [`SpscSender::send`]: the receiver was dropped,
/// so nothing will ever drain the queue. The item is handed back.
#[derive(Debug, PartialEq, Eq)]
pub struct SpscSendError<T>(pub T);

/// Why a non-waiting push failed; [`SpscSender::send`] waits out `Full`.
#[derive(Debug)]
enum TrySendError<T> {
    Full(T),
    Disconnected(T),
}

/// The producing half of a bounded SPSC queue. Not clonable — there is
/// exactly one producer.
pub struct SpscSender<T> {
    ring: Arc<Ring<T>>,
}

/// The consuming half of a bounded SPSC queue. Not clonable — there is
/// exactly one consumer.
pub struct SpscReceiver<T> {
    ring: Arc<Ring<T>>,
}

/// Creates a bounded SPSC queue with room for `capacity` in-flight items.
///
/// # Panics
///
/// Panics if `capacity` is zero.
pub fn spsc_channel<T: Send>(capacity: usize) -> (SpscSender<T>, SpscReceiver<T>) {
    assert!(capacity > 0, "an SPSC queue needs at least one slot");
    let slots: Box<[UnsafeCell<MaybeUninit<T>>]> =
        (0..capacity).map(|_| UnsafeCell::new(MaybeUninit::uninit())).collect();
    let ring = Arc::new(Ring {
        slots,
        head: AtomicUsize::new(0),
        tail: AtomicUsize::new(0),
        closed: AtomicBool::new(false),
        consumer_parked: AtomicBool::new(false),
        waiter: Mutex::new(None),
    });
    (SpscSender { ring: Arc::clone(&ring) }, SpscReceiver { ring })
}

impl<T: Send> SpscSender<T> {
    /// Enqueues `value` without waiting. Returns it back if the queue is full
    /// or the receiver is gone.
    fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        if self.ring.closed.load(Ordering::Acquire) {
            return Err(TrySendError::Disconnected(value));
        }
        let tail = self.ring.tail.load(Ordering::Relaxed);
        let head = self.ring.head.load(Ordering::Acquire);
        if tail - head == self.ring.capacity() {
            return Err(TrySendError::Full(value));
        }
        let slot = self.ring.slots[tail % self.ring.capacity()].get();
        // SAFETY: `tail - head < cap` means the consumer is done with this
        // slot, and we are the only producer.
        unsafe { (*slot).write(value) };
        self.ring.tail.store(tail + 1, Ordering::Release);
        // Order the tail publication before the parked-flag read (x86 would
        // otherwise let the load complete first), then wake a parked
        // consumer. Sends are per-run, not per-packet, so the fence is off
        // the packet path.
        fence(Ordering::SeqCst);
        self.ring.wake_consumer();
        Ok(())
    }

    /// Enqueues `value`, waiting with an escalating spin → yield → sleep
    /// backoff while the queue is full. Fails only if the receiver is
    /// dropped.
    pub fn send(&self, mut value: T) -> Result<(), SpscSendError<T>> {
        let mut backoff = Backoff::default();
        loop {
            match self.try_send(value) {
                Ok(()) => return Ok(()),
                Err(TrySendError::Disconnected(v)) => return Err(SpscSendError(v)),
                Err(TrySendError::Full(v)) => {
                    value = v;
                    backoff.pause();
                }
            }
        }
    }
}

impl<T> Drop for SpscSender<T> {
    fn drop(&mut self) {
        self.ring.closed.store(true, Ordering::Release);
        // A consumer parked in `recv` must observe the close and return.
        fence(Ordering::SeqCst);
        self.ring.wake_consumer();
    }
}

impl<T: Send> SpscReceiver<T> {
    /// Dequeues one item without waiting. `None` means *currently empty*, not
    /// closed.
    fn try_recv(&self) -> Option<T> {
        let head = self.ring.head.load(Ordering::Relaxed);
        let tail = self.ring.tail.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        let slot = self.ring.slots[head % self.ring.capacity()].get();
        // SAFETY: `head < tail` means the producer published this slot, and
        // we are the only consumer.
        let value = unsafe { (*slot).assume_init_read() };
        self.ring.head.store(head + 1, Ordering::Release);
        Some(value)
    }

    /// Dequeues one item, waiting while the queue is empty: an escalating
    /// spin → yield backoff first (cheapest when the producer is mid-burst),
    /// then a real `park` until the producer's next send — or its drop —
    /// unparks us. A long-idle consumer (a resident shard worker between
    /// runs) therefore costs zero wake-ups instead of a sleep-poll loop.
    /// Returns `None` only when the sender is dropped *and* the queue has
    /// been fully drained.
    pub fn recv(&self) -> Option<T> {
        let mut backoff = Backoff::default();
        loop {
            if let Some(value) = self.try_recv() {
                return Some(value);
            }
            if self.ring.closed.load(Ordering::Acquire) {
                // Re-check: the producer may have pushed between our failed
                // `try_recv` and the closed read.
                return self.try_recv();
            }
            if backoff.exhausted() {
                self.park_until_woken();
            } else {
                backoff.pause();
            }
        }
    }

    /// Blocks the consumer until the producer wakes it (next send or drop).
    /// The parked flag is published *before* the final emptiness re-check;
    /// the `SeqCst` fences here and on the producer side guarantee that
    /// either the re-check sees the producer's publication, or the producer
    /// sees the flag and unparks — never neither. `PARK_TIMEOUT` bounds the
    /// wait anyway, and the caller's loop re-checks on every return, so a
    /// spurious unpark is just a retry.
    fn park_until_woken(&self) {
        *self.ring.waiter.lock().expect("ring waiter lock") = Some(std::thread::current());
        self.ring.consumer_parked.store(true, Ordering::Release);
        fence(Ordering::SeqCst);
        if !self.is_empty() || self.ring.closed.load(Ordering::Acquire) {
            self.ring.consumer_parked.store(false, Ordering::Release);
            return;
        }
        std::thread::park_timeout(PARK_TIMEOUT);
        self.ring.consumer_parked.store(false, Ordering::Release);
    }

    /// True if nothing is in flight.
    fn is_empty(&self) -> bool {
        self.ring.tail.load(Ordering::Acquire) == self.ring.head.load(Ordering::Relaxed)
    }
}

impl<T> Drop for SpscReceiver<T> {
    fn drop(&mut self) {
        self.ring.closed.store(true, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_capacity() {
        let (tx, rx) = spsc_channel::<u32>(8);
        for v in 0..8 {
            tx.try_send(v).unwrap();
        }
        assert!(matches!(tx.try_send(99), Err(TrySendError::Full(99))));
        let drained: Vec<u32> = std::iter::from_fn(|| rx.try_recv()).collect();
        assert_eq!(drained, (0..8).collect::<Vec<_>>());
        assert!(rx.is_empty());
    }

    #[test]
    fn wraparound_reuses_slots() {
        let (tx, rx) = spsc_channel::<u64>(2);
        for round in 0..1000u64 {
            tx.try_send(round).unwrap();
            assert_eq!(rx.try_recv(), Some(round));
        }
    }

    #[test]
    fn cross_thread_handoff_preserves_order_under_backpressure() {
        let (tx, rx) = spsc_channel::<u64>(4);
        const N: u64 = 100_000;
        let producer = std::thread::spawn(move || {
            for v in 0..N {
                tx.send(v).unwrap();
            }
        });
        let mut expected = 0;
        while let Some(v) = rx.recv() {
            assert_eq!(v, expected);
            expected += 1;
        }
        assert_eq!(expected, N);
        producer.join().unwrap();
    }

    #[test]
    fn dropping_receiver_disconnects_sender() {
        let (tx, rx) = spsc_channel::<u8>(2);
        drop(rx);
        assert_eq!(tx.send(1), Err(SpscSendError(1)));
        assert!(matches!(tx.try_send(2), Err(TrySendError::Disconnected(2))));
    }

    #[test]
    fn dropping_sender_lets_receiver_drain_then_close() {
        let (tx, rx) = spsc_channel::<String>(4);
        tx.try_send("a".into()).unwrap();
        tx.try_send("b".into()).unwrap();
        drop(tx);
        assert_eq!(rx.recv().as_deref(), Some("a"));
        assert_eq!(rx.recv().as_deref(), Some("b"));
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn undrained_items_are_dropped_with_the_ring() {
        use std::sync::atomic::AtomicU32;
        static DROPS: AtomicU32 = AtomicU32::new(0);
        #[derive(Debug)]
        struct Probe;
        impl Drop for Probe {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let (tx, rx) = spsc_channel::<Probe>(4);
        tx.try_send(Probe).unwrap();
        tx.try_send(Probe).unwrap();
        tx.try_send(Probe).unwrap();
        drop(rx.try_recv()); // One consumed and dropped.
        drop(tx);
        drop(rx); // Two still in the ring.
        assert_eq!(DROPS.load(Ordering::SeqCst), 3);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_capacity_panics() {
        let _ = spsc_channel::<u8>(0);
    }

    #[test]
    fn backoff_escalates_without_panicking() {
        let mut backoff = Backoff::default();
        // Walk through the spin and yield phases and into the first sleep.
        for _ in 0..(SPINS_BEFORE_YIELD + YIELDS_BEFORE_SLEEP) {
            assert!(!backoff.exhausted());
            backoff.pause();
        }
        assert!(backoff.exhausted());
        backoff.pause();
    }
}
