//! Cancellable per-connection timer bindings.
//!
//! The engine arms wall-clock work against a connection — today an idle
//! timeout that reaps connections whose app went silent, tomorrow
//! retransmission and keepalive timers — and must be able to *cancel* that
//! work in O(1) when the connection makes progress or tears down. The
//! scheduler that owns the actual timers lives above this crate
//! (`mop_simnet`'s timing wheel), and this crate deliberately does not
//! depend on the simulator, so a connection stores its timers as opaque
//! tokens: the packed form of a `mop_simnet::TimerHandle`
//! (`TimerHandle::token()` / `TimerHandle::from_token()`).
//!
//! Tokens are single-owner: arming replaces (and returns) the previous
//! token so the caller can cancel the superseded timer, and disarming takes
//! the token out. A token held here is therefore always the connection's
//! *live* timer — the state the engine's mass schedule/cancel churn (the
//! flash-crowd scenario) exercises.

/// An opaque, cancellable reference to one scheduled timer, as issued by the
/// scheduler that owns it.
pub type TimerToken = u64;

/// The timers a connection can have armed. One slot per timer kind; each
/// slot holds at most one live token.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ConnTimers {
    idle: Option<TimerToken>,
    rto: Option<TimerToken>,
}

impl ConnTimers {
    /// No timers armed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms (or re-arms) the idle timer, returning the superseded token so
    /// the caller can cancel it with the owning scheduler.
    pub fn arm_idle(&mut self, token: TimerToken) -> Option<TimerToken> {
        self.idle.replace(token)
    }

    /// Disarms the idle timer, returning its token for cancellation.
    pub fn disarm_idle(&mut self) -> Option<TimerToken> {
        self.idle.take()
    }

    /// The live idle-timer token, if one is armed.
    pub fn idle(&self) -> Option<TimerToken> {
        self.idle
    }

    /// Arms (or re-arms) the retransmission timer, returning the superseded
    /// token so the caller can cancel it with the owning scheduler.
    pub fn arm_rto(&mut self, token: TimerToken) -> Option<TimerToken> {
        self.rto.replace(token)
    }

    /// Disarms the retransmission timer, returning its token for cancellation.
    pub fn disarm_rto(&mut self) -> Option<TimerToken> {
        self.rto.take()
    }

    /// The live retransmission-timer token, if one is armed.
    pub fn rto(&self) -> Option<TimerToken> {
        self.rto
    }

    /// True if any timer is armed.
    #[cfg(test)]
    pub(crate) fn any_armed(&self) -> bool {
        self.idle.is_some() || self.rto.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arming_replaces_and_returns_the_previous_token() {
        let mut timers = ConnTimers::new();
        assert!(!timers.any_armed());
        assert_eq!(timers.arm_idle(7), None);
        assert_eq!(timers.idle(), Some(7));
        assert_eq!(timers.arm_idle(9), Some(7), "superseded token comes back");
        assert_eq!(timers.disarm_idle(), Some(9));
        assert_eq!(timers.disarm_idle(), None);
        assert!(!timers.any_armed());
    }

    #[test]
    fn rto_slot_is_independent_of_the_idle_slot() {
        let mut timers = ConnTimers::new();
        assert_eq!(timers.arm_rto(3), None);
        assert!(timers.any_armed());
        assert_eq!(timers.arm_idle(4), None);
        assert_eq!(timers.arm_rto(5), Some(3));
        assert_eq!(timers.rto(), Some(5));
        assert_eq!(timers.idle(), Some(4));
        assert_eq!(timers.disarm_rto(), Some(5));
        assert!(timers.any_armed(), "idle timer still live");
        assert_eq!(timers.disarm_idle(), Some(4));
        assert!(!timers.any_armed());
        assert_eq!(timers.disarm_rto(), None);
    }
}
