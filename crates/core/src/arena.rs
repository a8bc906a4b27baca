//! Where an event's payload waits while its event is on the timing wheel.
//!
//! A scheduled event is copied into the wheel's slab, through its slot
//! buckets and due buffer, and out again when it pops, so every byte of an
//! event is paid for several times. Events therefore stay a few machine
//! words: a payload bigger than that — a flow's spec, a tunnel packet's
//! bytes, a packet on its way to an app — is parked in an [`Arena`] when
//! its event is scheduled, and the event carries the [`Parked`] handle;
//! dispatch takes the payload back.
//! The cells are reused through a free list and survive `clear`, so a
//! resident engine's arenas grow once.

/// Names one value parked in an [`Arena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Parked(u32);

/// A free-listed store of values whose events are still pending.
#[derive(Debug)]
pub(crate) struct Arena<T> {
    cells: Vec<Option<T>>,
    free: Vec<Parked>,
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Self { cells: Vec::new(), free: Vec::new() }
    }
}

impl<T> Arena<T> {
    /// Parks `value` until [`Arena::take`].
    pub(crate) fn park(&mut self, value: T) -> Parked {
        match self.free.pop() {
            Some(at) => {
                self.cells[at.0 as usize] = Some(value);
                at
            }
            None => {
                let at = u32::try_from(self.cells.len()).expect("fewer than 2^32 parked values");
                self.cells.push(Some(value));
                Parked(at)
            }
        }
    }

    /// Takes back the value parked at `at`, freeing its cell.
    ///
    /// # Panics
    ///
    /// Panics if the cell is empty: every handle is taken exactly once.
    pub(crate) fn take(&mut self, at: Parked) -> T {
        let value = self.cells[at.0 as usize].take().expect("a parked value is taken once");
        self.free.push(at);
        value
    }

    /// Drops every parked value, keeping both allocations.
    pub(crate) fn clear(&mut self) {
        self.cells.clear();
        self.free.clear();
    }

    /// Takes every parked value out, leaving the arena empty with both
    /// allocations kept.
    pub(crate) fn drain(&mut self) -> impl Iterator<Item = T> + '_ {
        self.free.clear();
        self.cells.drain(..).flatten()
    }

    /// How many values are parked.
    pub(crate) fn len(&self) -> usize {
        self.cells.len() - self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_are_reused_and_clear_keeps_capacity() {
        let mut arena = Arena::default();
        let (a, b) = (arena.park("a"), arena.park("b"));
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.take(a), "a");
        assert_eq!(arena.park("c"), a, "a freed cell is reused first");
        assert_eq!(arena.take(b), "b");
        assert_eq!(arena.len(), 1);
        let capacity = arena.cells.capacity();
        arena.clear();
        assert_eq!(arena.len(), 0);
        assert_eq!(arena.cells.capacity(), capacity);
    }
}
