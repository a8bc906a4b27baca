//! A shared, monotonically advancing virtual clock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::time::SimTime;

/// A cheaply clonable handle to the simulation's virtual clock.
///
/// The event loop advances the clock as it pops events; every component
/// (relay engine, baselines, cost ledger) reads timestamps from the same
/// handle, so there is a single source of truth for "now".
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    now_ns: Arc<AtomicU64>,
}

impl SimClock {
    /// Creates a clock at the simulation epoch.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.now_ns.load(Ordering::Relaxed))
    }

    /// Advances the clock to `to`.
    ///
    /// The clock is monotonic: attempts to move it backwards are ignored,
    /// which makes out-of-order event handling bugs visible in timestamps
    /// rather than corrupting time itself.
    pub fn advance_to(&self, to: SimTime) {
        self.now_ns.fetch_max(to.as_nanos(), Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_advances() {
        let clock = SimClock::new();
        assert_eq!(clock.now(), SimTime::ZERO);
        clock.advance_to(SimTime::from_millis(5));
        assert_eq!(clock.now(), SimTime::from_millis(5));
        clock.advance_to(SimTime::from_millis(8));
        assert_eq!(clock.now(), SimTime::from_millis(8));
    }

    #[test]
    fn clock_is_monotonic() {
        let clock = SimClock::new();
        clock.advance_to(SimTime::from_millis(10));
        clock.advance_to(SimTime::from_millis(4));
        assert_eq!(clock.now(), SimTime::from_millis(10));
    }

    #[test]
    fn concurrent_advances_never_move_time_backwards() {
        // Hammer the clock from racing threads, each advancing along its own
        // schedule, and assert that no observer ever sees it decrease.
        let clock = SimClock::new();
        let observed_regression = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let clock = clock.clone();
                let flag = observed_regression.clone();
                scope.spawn(move || {
                    let mut last = clock.now();
                    for i in 0..20_000u64 {
                        clock.advance_to(SimTime::from_nanos(i * (2 + t) + t));
                        let now = clock.now();
                        if now < last {
                            flag.store(true, Ordering::Relaxed);
                        }
                        last = now;
                    }
                });
            }
        });
        assert!(
            !observed_regression.load(Ordering::Relaxed),
            "clock moved backwards under concurrent advances"
        );
    }

    #[test]
    fn clones_share_time() {
        let clock = SimClock::new();
        let other = clock.clone();
        clock.advance_to(SimTime::from_secs(1));
        assert_eq!(other.now(), SimTime::from_secs(1));
        let elapsed = other.now().duration_since(SimTime::from_millis(200));
        assert_eq!(elapsed, crate::time::SimDuration::from_millis(800));
    }
}
