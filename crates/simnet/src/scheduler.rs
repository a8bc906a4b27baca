//! The timing wheel and the binary heap behind one API: the reference pair.
//!
//! The engine's event loop drives the O(1) [`TimingWheel`] directly; there
//! is no scheduler option. This module keeps the
//! [`crate::queue::EventQueue`] heap beside it as the reference
//! implementation the wheel is checked against:
//! `crates/simnet/tests/wheel_equivalence.rs` pins the two pop orders
//! against each other on random schedule/cancel scripts, and the
//! `mopbench-trace` wheel probes time the wheel through
//! `TimerScheduler::new(SchedulerKind::Wheel, …)`. The engine's whole-run
//! digests were recorded on the heap before the wheel replaced it, and the
//! wheel reproduces them.
//!
//! The heap variant emulates O(1) cancellation the same lazy way the wheel
//! does: a cancelled entry's payload is vacated immediately and its heap
//! node is discarded when it reaches the top, without counting as a popped
//! event. Both variants therefore expose identical semantics:
//! `(fire time, schedule order)` pop order, cancellable [`TimerHandle`]s and
//! shared `scheduled_total` accounting.

use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};
use crate::wheel::{TimerHandle, TimingWheel};

/// Which scheduler backs an event loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// The hierarchical timing wheel: O(1) schedule/cancel, flat cost at any
    /// number of pending events. The default.
    #[default]
    Wheel,
    /// The binary-heap [`EventQueue`]: O(log n) per operation. Kept as the
    /// reference implementation for equivalence tests and benches.
    Heap,
}

/// One slab cell of the heap variant (see [`HeapScheduler`]).
#[derive(Debug)]
struct HeapEntry<E> {
    at: SimTime,
    generation: u32,
    event: Option<E>,
}

/// The heap-backed scheduler: an [`EventQueue`] of slab indices plus lazy
/// cancellation, giving the heap the same cancellable-handle API as the
/// wheel.
#[derive(Debug)]
pub struct HeapScheduler<E> {
    queue: EventQueue<u32>,
    slab: Vec<HeapEntry<E>>,
    free: Vec<u32>,
    live: usize,
}

impl<E> Default for HeapScheduler<E> {
    fn default() -> Self {
        Self { queue: EventQueue::new(), slab: Vec::new(), free: Vec::new(), live: 0 }
    }
}

impl<E> HeapScheduler<E> {
    fn schedule(&mut self, at: SimTime, event: E) -> TimerHandle {
        let idx = if let Some(idx) = self.free.pop() {
            let entry = &mut self.slab[idx as usize];
            entry.at = at;
            entry.event = Some(event);
            idx
        } else {
            let idx = self.slab.len() as u32;
            self.slab.push(HeapEntry { at, generation: 0, event: Some(event) });
            idx
        };
        self.live += 1;
        self.queue.schedule(at, idx);
        TimerHandle::from_token(
            (u64::from(self.slab[idx as usize].generation) << 32) | u64::from(idx),
        )
    }

    fn cancel(&mut self, handle: TimerHandle) -> Option<E> {
        let token = handle.token();
        let (idx, generation) = (token as u32, (token >> 32) as u32);
        let entry = self.slab.get_mut(idx as usize)?;
        if entry.generation != generation {
            return None;
        }
        let event = entry.event.take()?;
        entry.generation = entry.generation.wrapping_add(1);
        self.live -= 1;
        Some(event)
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some((at, idx)) = self.queue.pop() {
            let entry = &mut self.slab[idx as usize];
            if let Some(event) = entry.event.take() {
                entry.generation = entry.generation.wrapping_add(1);
                self.free.push(idx);
                self.live -= 1;
                return Some((at, event));
            }
            self.free.push(idx);
        }
        None
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        loop {
            let (_, &idx) = self.queue.peek()?;
            if self.slab[idx as usize].event.is_some() {
                return self.queue.peek_time();
            }
            let (_, idx) = self.queue.pop().expect("peeked entry pops");
            self.free.push(idx);
        }
    }
}

/// A timer scheduler: schedule/cancel/pop with deterministic FIFO tie-order,
/// backed by either the [`TimingWheel`] or the legacy heap. See the
/// [module docs](self).
#[derive(Debug)]
pub enum TimerScheduler<E> {
    /// Backed by the hierarchical timing wheel.
    Wheel(TimingWheel<E>),
    /// Backed by the binary-heap event queue (lazy cancellation).
    Heap(HeapScheduler<E>),
}

impl<E> TimerScheduler<E> {
    /// Creates a scheduler of `kind`; the wheel uses `granularity` (rounded
    /// up to a power of two nanoseconds).
    pub fn new(kind: SchedulerKind, granularity: SimDuration) -> Self {
        match kind {
            SchedulerKind::Wheel => Self::Wheel(TimingWheel::with_granularity(granularity)),
            SchedulerKind::Heap => Self::Heap(HeapScheduler::default()),
        }
    }

    /// A wheel scheduler at the default granularity.
    #[cfg(test)]
    pub(crate) fn wheel() -> Self {
        Self::new(SchedulerKind::Wheel, crate::wheel::DEFAULT_GRANULARITY)
    }

    /// Schedules `event` at `at`, returning a cancellable handle.
    pub fn schedule(&mut self, at: SimTime, event: E) -> TimerHandle {
        match self {
            Self::Wheel(w) => w.schedule(at, event),
            Self::Heap(h) => h.schedule(at, event),
        }
    }

    /// Cancels a pending event; stale handles are ignored.
    pub fn cancel(&mut self, handle: TimerHandle) -> Option<E> {
        match self {
            Self::Wheel(w) => w.cancel(handle),
            Self::Heap(h) => h.cancel(handle),
        }
    }

    /// Pops the earliest pending event (FIFO tie-order at equal instants).
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        match self {
            Self::Wheel(w) => w.pop(),
            Self::Heap(h) => h.pop(),
        }
    }

    /// The fire time of the earliest pending event.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        match self {
            Self::Wheel(w) => w.peek_time(),
            Self::Heap(h) => h.peek_time(),
        }
    }

    /// Number of pending events.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        match self {
            Self::Wheel(w) => w.len(),
            Self::Heap(h) => h.live,
        }
    }

    /// Returns true if no events are pending.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever scheduled.
    pub fn scheduled_total(&self) -> u64 {
        match self {
            Self::Wheel(w) => w.scheduled_total(),
            Self::Heap(h) => h.queue.scheduled_total(),
        }
    }

    /// The backing implementation.
    #[cfg(test)]
    pub(crate) fn kind(&self) -> SchedulerKind {
        match self {
            Self::Wheel(_) => SchedulerKind::Wheel,
            Self::Heap(_) => SchedulerKind::Heap,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wheel::DEFAULT_GRANULARITY;

    fn drain<E>(s: &mut TimerScheduler<E>) -> Vec<(SimTime, E)> {
        std::iter::from_fn(|| s.pop()).collect()
    }

    #[test]
    fn both_backends_agree_on_a_mixed_workload() {
        let mut wheel = TimerScheduler::wheel();
        let mut heap = TimerScheduler::new(SchedulerKind::Heap, DEFAULT_GRANULARITY);
        for sched in [&mut wheel, &mut heap] {
            let mut cancel_handles = Vec::new();
            for i in 0..500u64 {
                let at = SimTime::from_nanos((i * 7_919) % 100_000);
                let h = sched.schedule(at, i);
                if i % 3 == 0 {
                    cancel_handles.push(h);
                }
            }
            for h in cancel_handles {
                assert!(sched.cancel(h).is_some());
            }
        }
        assert_eq!(wheel.len(), heap.len());
        assert_eq!(wheel.scheduled_total(), heap.scheduled_total());
        assert_eq!(drain(&mut wheel), drain(&mut heap));
    }

    #[test]
    fn heap_peek_skips_cancelled_heads() {
        let mut heap = TimerScheduler::new(SchedulerKind::Heap, DEFAULT_GRANULARITY);
        let first = heap.schedule(SimTime::from_millis(1), "a");
        heap.schedule(SimTime::from_millis(2), "b");
        heap.cancel(first);
        assert_eq!(heap.peek_time(), Some(SimTime::from_millis(2)));
        assert_eq!(heap.pop(), Some((SimTime::from_millis(2), "b")));
        assert!(heap.is_empty());
    }

    #[test]
    fn kind_reports_the_backend() {
        assert_eq!(TimerScheduler::<u8>::wheel().kind(), SchedulerKind::Wheel);
        let heap = TimerScheduler::<u8>::new(SchedulerKind::Heap, DEFAULT_GRANULARITY);
        assert_eq!(heap.kind(), SchedulerKind::Heap);
    }
}
