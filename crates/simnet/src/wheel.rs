//! A hierarchical timing wheel: O(1) schedule/cancel for discrete-event loops.
//!
//! The [`crate::queue::EventQueue`] pays O(log n) per schedule and per pop on
//! its binary heap, which adds up once a fleet shard keeps 100k+ live
//! connections' worth of pending events. [`TimingWheel`] replaces it with the
//! classic hashed hierarchical wheel (Varghese & Lauck): time is quantised
//! into *ticks* of a configurable power-of-two granularity, and each wheel
//! level holds 64 slots, each slot covering 64× the span of the level below.
//! Scheduling hashes the event's tick into a slot in O(1); popping advances a
//! cursor through per-level occupancy bitmaps (one `u64` per level, so "next
//! occupied slot" is a `trailing_zeros`), cascading higher-level slots down
//! as the cursor reaches them.
//!
//! # Determinism
//!
//! The wheel reproduces the heap queue's pop order *exactly*: every entry
//! carries a global insertion sequence number, and a drained level-0 slot is
//! sorted by `(fire time, sequence)` before its events are released. Events
//! scheduled at the same instant therefore pop in FIFO schedule order — the
//! tie-break the engine's determinism contract depends on — and the
//! wheel-vs-heap equivalence suite (`crates/simnet/tests/wheel_equivalence.rs`)
//! pins the two implementations against each other on random workloads.
//!
//! # Cancellation
//!
//! [`TimingWheel::schedule`] returns a [`TimerHandle`]. Cancellation is
//! O(1) and frees the event's slab cell at once: its generation is bumped
//! and its index returns to the free list, so the next schedule may reuse
//! it while a slot (or the due buffer) still names it. Every such reference
//! carries the generation it was filed with, and one whose generation no
//! longer matches its cell is stale: draining, cascading and popping skip
//! it. The slab is therefore sized by the events pending at once, not by the
//! cancelled timers still waiting in their slots — the relay cancels a
//! connection's retransmission timer every time an ACK re-arms it. A stale
//! handle (already fired or already cancelled) is simply ignored, so callers
//! can keep handles around without lifecycle bookkeeping.
//!
//! # Example
//!
//! ```
//! use mop_simnet::{SimTime, TimingWheel};
//!
//! let mut wheel: TimingWheel<&str> = TimingWheel::new();
//! wheel.schedule(SimTime::from_millis(30), "c");
//! let cancel_me = wheel.schedule(SimTime::from_millis(20), "b");
//! wheel.schedule(SimTime::from_millis(10), "a");
//! wheel.cancel(cancel_me);
//! assert_eq!(wheel.pop(), Some((SimTime::from_millis(10), "a")));
//! assert_eq!(wheel.pop(), Some((SimTime::from_millis(30), "c")));
//! assert_eq!(wheel.pop(), None);
//! ```

use crate::time::{SimDuration, SimTime};

/// log2 of the slot count per wheel level.
const SLOT_BITS: u32 = 6;
/// Slots per wheel level; one `u64` occupancy bitmap covers a level exactly.
const SLOTS: usize = 1 << SLOT_BITS;

/// The default tick granularity: 1024 ns (~1 µs), fine enough that the
/// engine's microsecond-scale costs land in distinct ticks.
pub const DEFAULT_GRANULARITY: SimDuration = SimDuration::from_nanos(1 << 10);

/// A cancellable reference to one scheduled event.
///
/// Handles are generation-checked: once the event has fired or been
/// cancelled, the handle goes stale and further [`TimingWheel::cancel`] calls
/// are no-ops. A handle can round-trip through a bare `u64`
/// ([`TimerHandle::token`] / [`TimerHandle::from_token`]) so layers that must
/// not depend on this crate (e.g. `mop_tcpstack`) can still store one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerHandle {
    idx: u32,
    generation: u32,
}

impl TimerHandle {
    /// Packs the handle into an opaque token.
    pub fn token(self) -> u64 {
        (u64::from(self.generation) << 32) | u64::from(self.idx)
    }

    /// Rebuilds a handle from [`TimerHandle::token`]. A forged or stale token
    /// is harmless: the generation check makes cancellation a no-op.
    pub fn from_token(token: u64) -> Self {
        Self { idx: token as u32, generation: (token >> 32) as u32 }
    }
}

/// One slab cell. `event: None` means the cell is free; its generation
/// moves on each time an event leaves it (fired or cancelled), which makes
/// every handle and slot reference to that event stale.
#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    generation: u32,
    event: Option<E>,
}

/// A multi-level timing wheel with deterministic FIFO tie-order and O(1)
/// schedule/cancel. See the [module docs](self).
#[derive(Debug)]
pub struct TimingWheel<E> {
    /// Tick granularity: `tick = at.as_nanos() >> shift`.
    shift: u32,
    /// Number of levels (covers the full 64-bit nanosecond range).
    levels: usize,
    /// `levels * 64` slot buckets of slab references (flattened); a
    /// reference whose generation is not its cell's is a cancelled event's.
    slots: Vec<Vec<TimerHandle>>,
    /// One occupancy bitmap per level.
    occupied: Vec<u64>,
    /// Entry storage; indices are stable for the life of an entry.
    slab: Vec<Entry<E>>,
    /// Reusable slab indices, reused last-freed first.
    free: Vec<u32>,
    /// The most slab cells in use at once since the wheel was created or
    /// reset: one past the highest index handed out.
    peak_cells: usize,
    /// The tick cursor: every live wheel entry fires at `tick >= elapsed`.
    elapsed: u64,
    /// Due entries (tick <= elapsed), sorted by `(at, seq)`, consumed from
    /// `ready_pos`. Late schedules at or before the cursor are merge-sorted
    /// in here so past-due events still pop in exact heap order. Each carries
    /// its sort key, so a cell cancelled and reused while its entry waits
    /// here cannot move the entry.
    ready: Vec<Due>,
    ready_pos: usize,
    /// Pending (scheduled, not yet fired, not cancelled) entries.
    live: usize,
    next_seq: u64,
    scheduled_total: u64,
    /// Structure counters: schedules that landed in the sorted due buffer,
    /// and the elements those sorted inserts had to shift.
    ready_inserts: u64,
    ready_shift_elems: u64,
}

/// A due-buffer entry: the event's sort key and its slab reference.
#[derive(Debug, Clone, Copy)]
struct Due {
    at: SimTime,
    seq: u64,
    cell: TimerHandle,
}

impl Due {
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl<E> Default for TimingWheel<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> TimingWheel<E> {
    /// Creates a wheel with the [`DEFAULT_GRANULARITY`].
    pub fn new() -> Self {
        Self::with_granularity(DEFAULT_GRANULARITY)
    }

    /// Creates a wheel whose tick is `granularity`, rounded up to a power of
    /// two nanoseconds (clamped to at most ~1 ms so level 0 keeps sub-slot
    /// times distinguishable by the sort, and at least 1 ns).
    pub fn with_granularity(granularity: SimDuration) -> Self {
        let g = granularity.as_nanos().clamp(1, 1 << 20).next_power_of_two();
        let shift = g.trailing_zeros();
        let levels = (64 - shift as usize).div_ceil(SLOT_BITS as usize);
        Self {
            shift,
            levels,
            slots: (0..levels * SLOTS).map(|_| Vec::new()).collect(),
            occupied: vec![0; levels],
            slab: Vec::new(),
            free: Vec::new(),
            peak_cells: 0,
            elapsed: 0,
            ready: Vec::new(),
            ready_pos: 0,
            live: 0,
            next_seq: 0,
            scheduled_total: 0,
            ready_inserts: 0,
            ready_shift_elems: 0,
        }
    }

    /// The wheel's tick granularity.
    #[cfg(test)]
    pub(crate) fn granularity(&self) -> SimDuration {
        SimDuration::from_nanos(1 << self.shift)
    }

    /// Schedules `event` to fire at `at` and returns a cancellable handle.
    ///
    /// O(1): one slab write plus one slot push (or, for an event at or before
    /// the cursor, a sorted insert into the small due buffer).
    pub fn schedule(&mut self, at: SimTime, event: E) -> TimerHandle {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        self.live += 1;
        let cell = self.alloc(at, seq, event);
        let tick = at.as_nanos() >> self.shift;
        if tick <= self.elapsed {
            // Due now (or scheduled into the past): join the sorted due
            // buffer at its (at, seq) position so pop order matches the heap.
            self.ready_insert(Due { at, seq, cell });
        } else {
            self.place(cell, tick);
        }
        cell
    }

    /// Cancels a pending event, returning it if the handle was still live.
    ///
    /// O(1): the event leaves its slab cell, which goes straight back to
    /// the free list; the slot reference left behind is stale and skipped
    /// when its slot drains or cascades.
    pub fn cancel(&mut self, handle: TimerHandle) -> Option<E> {
        self.take(handle)
    }

    /// Pops the earliest pending event, if any. Ties at the same instant pop
    /// in schedule (FIFO) order, exactly like [`crate::queue::EventQueue`].
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        loop {
            self.ensure_ready();
            if self.ready_pos >= self.ready.len() {
                return None;
            }
            let due = self.ready[self.ready_pos];
            self.ready_pos += 1;
            // A stale entry was cancelled while waiting in the due buffer.
            if let Some(event) = self.take(due.cell) {
                return Some((due.at, event));
            }
        }
    }

    /// Pops the earliest event only if it fires at or before `until`.
    #[cfg(test)]
    pub(crate) fn pop_until(&mut self, until: SimTime) -> Option<(SimTime, E)> {
        if self.peek_time()? <= until {
            self.pop()
        } else {
            None
        }
    }

    /// The fire time of the earliest pending event.
    ///
    /// Takes `&mut self`: peeking may advance the cursor and cascade slots,
    /// which is semantically transparent but mutates the structure.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        loop {
            self.ensure_ready();
            let due = *self.ready.get(self.ready_pos)?;
            if self.is_live(due.cell) {
                return Some(due.at);
            }
            self.ready_pos += 1;
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Returns true if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total number of events ever scheduled (for loop-progress assertions).
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Resets the wheel to its just-constructed state while keeping every
    /// allocation (slot buckets, slab, due buffer, free list): pending
    /// events are dropped, the cursor returns to tick zero and the sequence
    /// and schedule accounting restart. This is the clear-don't-drop reuse
    /// path a resident engine takes between runs — behaviourally equivalent
    /// to a fresh wheel: pop order depends only on `(at, seq)`, both of
    /// which restart, and the free list hands out slab indices in the order
    /// a fresh wheel grows its slab, so handles and
    /// [`TimingWheel::peak_cells`] read the same too.
    pub fn reset(&mut self) {
        self.clear();
        self.peak_cells = 0;
        self.elapsed = 0;
        self.next_seq = 0;
        self.scheduled_total = 0;
        self.ready_inserts = 0;
        self.ready_shift_elems = 0;
    }

    /// The most slab cells in use at once since the wheel was created or
    /// reset. Cancelled cells are reused at once, so this follows the events
    /// pending at once; for a fresh wheel it is the slab's length.
    pub fn peak_cells(&self) -> usize {
        self.peak_cells
    }

    /// Schedules that landed in the sorted due buffer since the wheel was
    /// created or reset.
    pub fn ready_inserts(&self) -> u64 {
        self.ready_inserts
    }

    /// Due-buffer elements those sorted inserts shifted since the wheel was
    /// created or reset.
    pub fn ready_shift_elems(&self) -> u64 {
        self.ready_shift_elems
    }

    /// Removes all pending events. The cursor and the schedule accounting
    /// are kept, matching [`crate::queue::EventQueue::clear`].
    pub(crate) fn clear(&mut self) {
        for slot in &mut self.slots {
            slot.clear();
        }
        for bitmap in &mut self.occupied {
            *bitmap = 0;
        }
        self.ready.clear();
        self.ready_pos = 0;
        self.free.clear();
        // Stacked highest first, so the lowest index is reused first: the
        // order in which a fresh wheel grows its slab.
        for (i, entry) in self.slab.iter_mut().enumerate().rev() {
            if entry.event.take().is_some() {
                entry.generation = entry.generation.wrapping_add(1);
            }
            self.free.push(i as u32);
        }
        self.live = 0;
    }

    // ----- internals ------------------------------------------------------

    fn alloc(&mut self, at: SimTime, seq: u64, event: E) -> TimerHandle {
        let cell = if let Some(idx) = self.free.pop() {
            let entry = &mut self.slab[idx as usize];
            entry.at = at;
            entry.seq = seq;
            entry.event = Some(event);
            TimerHandle { idx, generation: entry.generation }
        } else {
            let idx = self.slab.len() as u32;
            self.slab.push(Entry { at, seq, generation: 0, event: Some(event) });
            TimerHandle { idx, generation: 0 }
        };
        self.peak_cells = self.peak_cells.max(cell.idx as usize + 1);
        cell
    }

    /// Whether `cell` still names the event it was made for: neither fired
    /// nor cancelled, so its cell has not moved on.
    fn is_live(&self, cell: TimerHandle) -> bool {
        self.slab.get(cell.idx as usize).is_some_and(|entry| entry.generation == cell.generation)
    }

    /// Takes the event `cell` names out of its cell, if it is still
    /// pending (it fires or is cancelled): every reference to it goes stale
    /// and the cell is free.
    fn take(&mut self, cell: TimerHandle) -> Option<E> {
        let entry = self.slab.get_mut(cell.idx as usize)?;
        if entry.generation != cell.generation {
            return None;
        }
        let event = entry.event.take();
        debug_assert!(event.is_some(), "a live cell holds its event");
        entry.generation = entry.generation.wrapping_add(1);
        self.free.push(cell.idx);
        self.live -= 1;
        event
    }

    /// The level an entry at `tick` belongs to, relative to the cursor: the
    /// highest tick bit in which it differs from `elapsed` picks the level
    /// (the tokio-timer placement rule), so within a level an occupied slot
    /// is always in the cursor's current rotation.
    fn level_of(&self, tick: u64) -> usize {
        let differing = tick ^ self.elapsed;
        if differing == 0 {
            return 0;
        }
        ((63 - differing.leading_zeros()) / SLOT_BITS) as usize
    }

    /// Files a wheel entry into its slot (tick must be > elapsed, or == for
    /// cascade re-placement, which lands in level 0's current slot and is
    /// drained next).
    fn place(&mut self, cell: TimerHandle, tick: u64) {
        let level = self.level_of(tick);
        let slot = ((tick >> (level as u32 * SLOT_BITS)) & (SLOTS as u64 - 1)) as usize;
        self.slots[level * SLOTS + slot].push(cell);
        self.occupied[level] |= 1 << slot;
    }

    /// Sorted insert into the unconsumed tail of the due buffer. The tail is
    /// ordered by the keys its entries carry, stale ones included, so a
    /// reused cell never reorders it.
    fn ready_insert(&mut self, due: Due) {
        let tail = &self.ready[self.ready_pos..];
        let offset = tail.partition_point(|queued| queued.key() <= due.key());
        self.ready_inserts += 1;
        self.ready_shift_elems += (tail.len() - offset) as u64;
        self.ready.insert(self.ready_pos + offset, due);
    }

    /// The earliest occupied slot: `(level, slot index, start tick)` of the
    /// first occupied slot at or after the cursor on the lowest non-empty
    /// level.
    ///
    /// No higher level can hold an earlier slot. By the placement rule an
    /// entry on level L agrees with the cursor on every tick bit above L,
    /// and the cursor never passes a pending tick, so every entry below
    /// level L' shares the cursor's level-L' digit while every level-L'
    /// slot ahead of the cursor starts at a strictly larger digit: a lower
    /// non-empty level always holds a strictly earlier slot.
    fn next_slot(&self) -> Option<(usize, usize, u64)> {
        let level = self.occupied.iter().position(|&bitmap| bitmap != 0)?;
        let (slot, start) = self.first_slot_of(level);
        debug_assert!(
            (level + 1..self.levels)
                .all(|higher| self.occupied[higher] == 0 || self.first_slot_of(higher).1 > start),
            "a higher wheel level holds an earlier slot"
        );
        Some((level, slot, start))
    }

    /// The first occupied slot of a non-empty `level` at or after the
    /// cursor, and its start tick.
    fn first_slot_of(&self, level: usize) -> (usize, u64) {
        let bitmap = self.occupied[level];
        let level_shift = level as u32 * SLOT_BITS;
        let span_bits = level_shift + SLOT_BITS;
        let cursor_slot = ((self.elapsed >> level_shift) & (SLOTS as u64 - 1)) as usize;
        let rotation_base =
            if span_bits >= 64 { 0 } else { (self.elapsed >> span_bits) << span_bits };
        let ahead = bitmap & (!0u64 << cursor_slot);
        let (slot, base) = if ahead != 0 {
            (ahead.trailing_zeros() as usize, rotation_base)
        } else {
            // Only reachable if an entry was left behind the cursor, which
            // the placement rule excludes; treat it as belonging to the next
            // rotation so it still fires.
            debug_assert!(false, "timing wheel slot behind the cursor");
            let next_base = if span_bits >= 64 {
                rotation_base
            } else {
                rotation_base.saturating_add(1 << span_bits)
            };
            (bitmap.trailing_zeros() as usize, next_base)
        };
        (slot, base + ((slot as u64) << level_shift))
    }

    /// Refills the due buffer: advances the cursor to the next occupied
    /// slot, cascading higher-level slots down until a level-0 slot drains,
    /// then sorts the drained entries by `(at, seq)`.
    fn ensure_ready(&mut self) {
        while self.ready_pos >= self.ready.len() && self.live > 0 {
            self.ready.clear();
            self.ready_pos = 0;
            let Some((level, slot, start_tick)) = self.next_slot() else {
                debug_assert!(false, "live entries but no occupied slot");
                return;
            };
            debug_assert!(start_tick >= self.elapsed, "wheel cursor moved backwards");
            self.elapsed = start_tick.max(self.elapsed);
            self.occupied[level] &= !(1 << slot);
            let mut entries = std::mem::take(&mut self.slots[level * SLOTS + slot]);
            // Stale references (cancelled events, whose cells are already
            // free and may hold a newer event) are dropped here.
            if level == 0 {
                for cell in entries.drain(..) {
                    let entry = &self.slab[cell.idx as usize];
                    if entry.generation == cell.generation {
                        self.ready.push(Due { at: entry.at, seq: entry.seq, cell });
                    }
                }
                // Restore the slot's capacity for reuse.
                self.slots[level * SLOTS + slot] = entries;
                self.ready.sort_unstable_by_key(Due::key);
            } else {
                // Cascade: redistribute one higher-level slot relative to the
                // advanced cursor. Every entry strictly descends a level, so
                // this terminates and costs O(1) amortised per event.
                for cell in entries.drain(..) {
                    if self.is_live(cell) {
                        let tick = self.slab[cell.idx as usize].at.as_nanos() >> self.shift;
                        self.place(cell, tick);
                    }
                }
                self.slots[level * SLOTS + slot] = entries;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order_across_levels() {
        let mut wheel = TimingWheel::new();
        wheel.schedule(SimTime::from_secs(30), "far");
        wheel.schedule(SimTime::from_millis(10), "near");
        wheel.schedule(SimTime::from_millis(500), "mid");
        wheel.schedule(SimTime::from_nanos(3), "now");
        let order: Vec<_> = std::iter::from_fn(|| wheel.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["now", "near", "mid", "far"]);
        assert_eq!(wheel.scheduled_total(), 4);
    }

    #[test]
    fn simultaneous_events_keep_insertion_order() {
        let mut wheel = TimingWheel::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            wheel.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| wheel.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn sub_tick_times_still_sort_exactly() {
        // Two events in the same tick but at different nanosecond instants
        // must pop in time order, not slot order.
        let mut wheel = TimingWheel::with_granularity(SimDuration::from_nanos(1024));
        wheel.schedule(SimTime::from_nanos(2000), "b");
        wheel.schedule(SimTime::from_nanos(1500), "a");
        assert_eq!(wheel.pop(), Some((SimTime::from_nanos(1500), "a")));
        assert_eq!(wheel.pop(), Some((SimTime::from_nanos(2000), "b")));
    }

    #[test]
    fn cancel_is_effective_and_stale_handles_are_ignored() {
        let mut wheel = TimingWheel::new();
        let a = wheel.schedule(SimTime::from_millis(1), "a");
        let b = wheel.schedule(SimTime::from_millis(2), "b");
        assert_eq!(wheel.cancel(b), Some("b"));
        assert_eq!(wheel.cancel(b), None, "second cancel is a no-op");
        assert_eq!(wheel.len(), 1);
        assert_eq!(wheel.pop(), Some((SimTime::from_millis(1), "a")));
        assert_eq!(wheel.cancel(a), None, "fired handles are stale");
        assert_eq!(wheel.pop(), None);
        // The slab index is reused with a fresh generation: the old token
        // must not cancel the new entry.
        let c = wheel.schedule(SimTime::from_millis(3), "c");
        let stale = TimerHandle::from_token(a.token());
        assert_eq!(wheel.cancel(stale), None);
        assert_eq!(wheel.cancel(TimerHandle::from_token(c.token())), Some("c"));
    }

    #[test]
    fn re_armed_timers_keep_the_slab_at_the_live_count() {
        // K timers, each re-armed over and over the way the relay re-arms a
        // retransmission timer on an ACK: schedule the new deadline, then
        // cancel the superseded one. Cancelled cells go straight back to the
        // free list, so the slab stays at the live count.
        const K: usize = 100;
        let mut wheel = TimingWheel::new();
        let ahead = SimDuration::from_millis(200);
        let mut now = SimTime::ZERO;
        let mut handles: Vec<_> = (0..K).map(|k| wheel.schedule(now + ahead, k)).collect();
        for round in 0..100_000u64 {
            now += SimDuration::from_micros(50);
            let k = (round.wrapping_mul(2_654_435_761) % K as u64) as usize;
            let rearmed = wheel.schedule(now + ahead, k);
            assert_eq!(wheel.cancel(handles[k]), Some(k));
            handles[k] = rearmed;
            // Nothing is due yet, but peeking moves the cursor through the
            // slots the cancelled deadlines left behind.
            assert_eq!(wheel.pop_until(now), None);
        }
        assert_eq!(wheel.len(), K);
        assert!(
            wheel.peak_cells() <= K + 64,
            "{} cells held for {K} live timers",
            wheel.peak_cells()
        );
        // Exactly the last deadline of each timer fires, in time order.
        let mut fired = [false; K];
        let mut last = SimTime::ZERO;
        while let Some((at, k)) = wheel.pop() {
            assert!(at >= last && !fired[k]);
            (last, fired[k]) = (at, true);
        }
        assert!(fired.iter().all(|&f| f));
    }

    #[test]
    fn a_cancelled_handle_never_cancels_its_cells_next_occupant() {
        let mut wheel = TimingWheel::new();
        let old = wheel.schedule(SimTime::from_millis(5), "old");
        assert_eq!(wheel.cancel(old), Some("old"));
        let new = wheel.schedule(SimTime::from_millis(7), "new");
        assert_eq!(new.token() as u32, old.token() as u32, "the freed cell is reused at once");
        assert_eq!(wheel.cancel(old), None, "the stale handle misses the new occupant");
        assert_eq!(wheel.len(), 1);
        // The old event's slot reference is stale too: the new event fires
        // once, at its own time.
        assert_eq!(wheel.pop(), Some((SimTime::from_millis(7), "new")));
        assert_eq!(wheel.pop(), None);

        // The same in the due buffer, where a reused cell's new key must not
        // move the cancelled entry it left behind.
        wheel.schedule(SimTime::from_millis(10), "t10");
        wheel.schedule(SimTime::from_millis(12), "t12");
        assert_eq!(wheel.pop().unwrap().1, "t10");
        let a = wheel.schedule(SimTime::from_millis(4), "t4");
        wheel.schedule(SimTime::from_millis(5), "t5");
        assert_eq!(wheel.cancel(a), Some("t4"));
        let c = wheel.schedule(SimTime::from_millis(3), "t3");
        assert_eq!(c.token() as u32, a.token() as u32);
        assert_eq!(wheel.cancel(a), None);
        let order: Vec<_> = std::iter::from_fn(|| wheel.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ["t3", "t5", "t12"]);
    }

    #[test]
    fn schedule_into_the_past_pops_first() {
        let mut wheel = TimingWheel::new();
        wheel.schedule(SimTime::from_millis(10), "t10");
        wheel.schedule(SimTime::from_millis(12), "t12");
        assert_eq!(wheel.pop().unwrap().1, "t10");
        // The cursor sits at ~t10; a straggler lands before t12.
        wheel.schedule(SimTime::from_millis(4), "t4");
        assert_eq!(wheel.pop().unwrap().1, "t4");
        assert_eq!(wheel.pop().unwrap().1, "t12");
    }

    #[test]
    fn pop_until_and_peek_respect_the_horizon() {
        let mut wheel = TimingWheel::new();
        wheel.schedule(SimTime::from_millis(10), 1);
        wheel.schedule(SimTime::from_secs(50), 2);
        assert_eq!(wheel.peek_time(), Some(SimTime::from_millis(10)));
        assert_eq!(wheel.pop_until(SimTime::from_millis(20)), Some((SimTime::from_millis(10), 1)));
        assert_eq!(wheel.pop_until(SimTime::from_millis(20)), None);
        assert_eq!(wheel.len(), 1);
        assert_eq!(wheel.peek_time(), Some(SimTime::from_secs(50)));
    }

    #[test]
    fn clear_keeps_accounting() {
        let mut wheel: TimingWheel<u8> = TimingWheel::new();
        assert!(wheel.is_empty());
        wheel.schedule(SimTime::from_millis(1), 7);
        assert_eq!(wheel.scheduled_total(), 1);
        assert!(!wheel.is_empty());
        wheel.clear();
        assert!(wheel.is_empty());
        assert_eq!(wheel.pop(), None);
        assert_eq!(wheel.scheduled_total(), 1);
    }

    #[test]
    fn granularity_rounds_to_power_of_two() {
        let wheel: TimingWheel<u8> = TimingWheel::with_granularity(SimDuration::from_nanos(1000));
        assert_eq!(wheel.granularity().as_nanos(), 1024);
        let coarse: TimingWheel<u8> = TimingWheel::with_granularity(SimDuration::from_millis(100));
        assert_eq!(coarse.granularity().as_nanos(), 1 << 20);
    }

    #[test]
    fn mass_schedule_cancel_churn_stays_consistent() {
        let mut wheel = TimingWheel::new();
        let mut handles = Vec::new();
        for round in 0..50u64 {
            for i in 0..100u64 {
                let at = SimTime::from_nanos(round * 1_000_000 + i * 13_001);
                handles.push(wheel.schedule(at, (round, i)));
            }
            // Cancel every other timer from this round.
            for chunk in handles.chunks(2) {
                wheel.cancel(chunk[0]);
            }
            handles.clear();
            // Drain a few.
            for _ in 0..20 {
                wheel.pop();
            }
        }
        let mut last = SimTime::ZERO;
        while let Some((at, _)) = wheel.pop() {
            assert!(at >= last);
            last = at;
        }
        assert!(wheel.is_empty());
    }
}
