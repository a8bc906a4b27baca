//! The shard's virtual clock: [`EngineShared::now`], the latest instant an
//! event was dispatched at, and the timestamps the relay takes from it at
//! the configured granularity.
//!
//! The clock is a plain [`SimTime`] on the shard's substrate, advanced by
//! max: one shard is one thread, so nothing else reads or moves it.

use mop_simnet::SimTime;

use crate::config::ClockGranularity;
use crate::stages::EngineShared;

impl EngineShared {
    /// Advances [`EngineShared::now`] to `at`. Time is monotonic: an
    /// earlier `at` leaves it where it is, so an out-of-order dispatch shows
    /// in the timestamps it produces rather than moving time backwards.
    pub(crate) fn advance_to(&mut self, at: SimTime) {
        self.now = self.now.max(at);
    }

    /// A timestamp at the configured clock granularity.
    pub(crate) fn timestamp(&self, t: SimTime) -> SimTime {
        match self.config.clock {
            ClockGranularity::Nanosecond => t,
            ClockGranularity::Millisecond => self.cost.coarse_timestamp(t),
        }
    }
}

#[cfg(test)]
mod tests {
    use mop_simnet::{SimNetwork, SimTime};

    use crate::config::MopEyeConfig;
    use crate::engine::MopEyeEngine;

    fn net() -> SimNetwork {
        SimNetwork::builder().seed(1).build()
    }

    #[test]
    fn starts_at_zero_and_advances() {
        let mut engine = MopEyeEngine::new(MopEyeConfig::mopeye(), net());
        let shared = &mut engine.shared;
        assert_eq!(shared.now, SimTime::ZERO);
        shared.advance_to(SimTime::from_millis(5));
        assert_eq!(shared.now, SimTime::from_millis(5));
        shared.advance_to(SimTime::from_millis(8));
        assert_eq!(shared.now, SimTime::from_millis(8));
    }

    #[test]
    fn clock_is_monotonic() {
        let mut engine = MopEyeEngine::new(MopEyeConfig::mopeye(), net());
        let shared = &mut engine.shared;
        shared.advance_to(SimTime::from_millis(10));
        shared.advance_to(SimTime::from_millis(4));
        assert_eq!(shared.now, SimTime::from_millis(10), "time never moves backwards");
        shared.advance_to(SimTime::from_millis(12));
        assert_eq!(shared.now, SimTime::from_millis(12));
        shared.reset(net());
        assert_eq!(shared.now, SimTime::ZERO, "a reset restarts time");
    }
}
