//! Property tests pinning the timing wheel against the binary-heap queue.
//!
//! The wheel replaces the heap under the engine's event loop, so the two
//! must be observationally identical: the same pop order — including FIFO
//! order for events scheduled at the same instant — the same
//! `scheduled_total` accounting, and the same surviving set under random
//! cancellation. These properties are what lets the engine swap scheduler
//! backends without changing a single fleet digest
//! (`tests/fleet_determinism.rs` pins that end-to-end).

use proptest::prelude::*;

use mop_simnet::scheduler::{SchedulerKind, TimerScheduler};
use mop_simnet::{EventQueue, SimDuration, SimTime, TimingWheel};

/// One scripted operation against a scheduler.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Schedule an event at the given nanosecond offset.
    Schedule(u64),
    /// Pop the earliest pending event.
    Pop,
    /// Cancel the k-th oldest still-live handle (modulo the live count).
    Cancel(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (0u64..50_000_000).prop_map(Op::Schedule),
        2 => Just(Op::Pop),
        2 => (0usize..64).prop_map(Op::Cancel),
    ]
}

/// Runs a script against a `TimerScheduler`, returning the popped sequence.
fn run_script(kind: SchedulerKind, granularity_ns: u64, ops: &[Op]) -> (Vec<(u64, u64)>, u64) {
    let mut sched = TimerScheduler::new(kind, SimDuration::from_nanos(granularity_ns));
    let mut handles = Vec::new();
    let mut popped = Vec::new();
    let mut id = 0u64;
    for op in ops {
        match *op {
            Op::Schedule(at) => {
                handles.push(sched.schedule(SimTime::from_nanos(at), id));
                id += 1;
            }
            Op::Pop => {
                if let Some((at, event)) = sched.pop() {
                    popped.push((at.as_nanos(), event));
                }
            }
            Op::Cancel(k) => {
                if !handles.is_empty() {
                    let handle = handles.remove(k % handles.len());
                    // Cancelling an already-fired handle is a no-op; both
                    // backends must agree on that too.
                    let _ = sched.cancel(handle);
                }
            }
        }
    }
    while let Some((at, event)) = sched.pop() {
        popped.push((at.as_nanos(), event));
    }
    (popped, sched.scheduled_total())
}

/// One step of an engine-shaped script, timed relative to the instant of
/// the latest pop — the way the engine schedules from inside a dispatch.
#[derive(Debug, Clone, Copy)]
enum EngineOp {
    /// Schedule `delay_ns` ahead: handoffs, per-packet costs, path delays.
    Ahead(u64),
    /// Schedule `count` events at the current instant (a same-instant
    /// burst, such as one app's ACK train).
    Burst(usize),
    /// Schedule `ago_ns` before the current instant (a zero-delay handoff
    /// computed from an earlier timestamp).
    Past(u64),
    /// Arm an idle timer `secs` seconds ahead: these sit on levels 3–4 at
    /// the default granularity while everything else churns below.
    Idle(u64),
    /// Pop the earliest pending event.
    Pop,
    /// Cancel the k-th oldest still-live handle (modulo the live count).
    Cancel(usize),
}

fn engine_op() -> impl Strategy<Value = EngineOp> {
    prop_oneof![
        8 => (1_000u64..5_000_000).prop_map(EngineOp::Ahead),
        2 => (2usize..6).prop_map(EngineOp::Burst),
        1 => (0u64..2_000_000).prop_map(EngineOp::Past),
        1 => (10u64..=60).prop_map(EngineOp::Idle),
        6 => Just(EngineOp::Pop),
        2 => (0usize..64).prop_map(EngineOp::Cancel),
    ]
}

/// Runs an engine-shaped script against a `TimerScheduler` at the default
/// granularity, returning the popped sequence.
fn run_engine_script(kind: SchedulerKind, ops: &[EngineOp]) -> Vec<(u64, u64)> {
    let mut sched = TimerScheduler::new(kind, mop_simnet::wheel::DEFAULT_GRANULARITY);
    let mut handles = Vec::new();
    let mut popped = Vec::new();
    let (mut now, mut id) = (0u64, 0u64);
    for op in ops {
        let (at, count) = match *op {
            EngineOp::Ahead(delay) => (now + delay, 1),
            EngineOp::Burst(count) => (now, count),
            EngineOp::Past(ago) => (now.saturating_sub(ago), 1),
            EngineOp::Idle(secs) => (now + secs * 1_000_000_000, 1),
            EngineOp::Pop | EngineOp::Cancel(_) => (now, 0),
        };
        for _ in 0..count {
            handles.push(sched.schedule(SimTime::from_nanos(at), id));
            id += 1;
        }
        match *op {
            EngineOp::Ahead(_) | EngineOp::Burst(_) | EngineOp::Past(_) | EngineOp::Idle(_) => {}
            EngineOp::Pop => {
                if let Some((at, event)) = sched.pop() {
                    // The engine's clock never runs backwards.
                    now = now.max(at.as_nanos());
                    popped.push((at.as_nanos(), event));
                }
            }
            EngineOp::Cancel(k) => {
                if !handles.is_empty() {
                    let handle = handles.remove(k % handles.len());
                    let _ = sched.cancel(handle);
                }
            }
        }
    }
    while let Some((at, event)) = sched.pop() {
        popped.push((at.as_nanos(), event));
    }
    popped
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn wheel_and_heap_pop_identically_on_random_schedules_and_cancels(
        ops in proptest::collection::vec(op_strategy(), 1..400),
        granularity_ns in prop_oneof![Just(1u64), Just(1024u64), Just(65_536u64), Just(1_048_576u64)],
    ) {
        let (wheel_popped, wheel_total) = run_script(SchedulerKind::Wheel, granularity_ns, &ops);
        let (heap_popped, heap_total) = run_script(SchedulerKind::Heap, granularity_ns, &ops);
        prop_assert_eq!(&wheel_popped, &heap_popped,
            "pop sequences diverged at granularity {}", granularity_ns);
        prop_assert_eq!(wheel_total, heap_total, "scheduled_total diverged");
    }

    // The wheel's refill takes the lowest occupied level's first slot
    // without comparing deadlines across levels; this load keeps several
    // levels occupied at once (microsecond churn on levels 0–2 under idle
    // timers on levels 3–4) while bursts and past schedules exercise the
    // due buffer.
    #[test]
    fn wheel_and_heap_agree_under_engine_shaped_load(
        ops in proptest::collection::vec(engine_op(), 1..600),
    ) {
        prop_assert_eq!(
            run_engine_script(SchedulerKind::Wheel, &ops),
            run_engine_script(SchedulerKind::Heap, &ops)
        );
    }

    #[test]
    fn wheel_matches_the_bare_heap_queue_without_cancellation(
        times in proptest::collection::vec(0u64..10_000_000, 1..300),
    ) {
        // The raw EventQueue (no cancellation wrapper) is the historical
        // reference: identical (time, FIFO) pop order is the contract the
        // engine's digests rest on.
        let mut wheel = TimingWheel::new();
        let mut heap = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            wheel.schedule(SimTime::from_nanos(t), i);
            heap.schedule(SimTime::from_nanos(t), i);
        }
        prop_assert_eq!(wheel.len(), heap.len());
        prop_assert_eq!(wheel.scheduled_total(), heap.scheduled_total());
        loop {
            let (a, b) = (wheel.pop(), heap.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn same_instant_events_pop_fifo_at_every_granularity(
        instant in 0u64..1_000_000_000,
        count in 2usize..100,
        granularity_ns in prop_oneof![Just(1u64), Just(4096u64), Just(1_048_576u64)],
    ) {
        let mut wheel = TimingWheel::with_granularity(SimDuration::from_nanos(granularity_ns));
        let at = SimTime::from_nanos(instant);
        for i in 0..count {
            wheel.schedule(at, i);
        }
        let order: Vec<usize> = std::iter::from_fn(|| wheel.pop()).map(|(_, e)| e).collect();
        prop_assert_eq!(order, (0..count).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_pop_and_schedule_agree_with_the_heap(
        seed_times in proptest::collection::vec(0u64..5_000_000, 2..100),
        follow_times in proptest::collection::vec(0u64..10_000_000, 1..100),
    ) {
        // Schedules issued *while draining* (including into the past, which
        // the engine's zero-delay handoffs can produce) must keep the exact
        // heap order: late events join the due buffer at their (time, seq)
        // position.
        let mut wheel = TimingWheel::new();
        let mut heap = EventQueue::new();
        let mut id = 0u64;
        for &t in &seed_times {
            wheel.schedule(SimTime::from_nanos(t), id);
            heap.schedule(SimTime::from_nanos(t), id);
            id += 1;
        }
        let mut follow = follow_times.iter();
        loop {
            let (a, b) = (wheel.pop(), heap.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
            if let Some(&t) = follow.next() {
                wheel.schedule(SimTime::from_nanos(t), id);
                heap.schedule(SimTime::from_nanos(t), id);
                id += 1;
            }
        }
    }
}
