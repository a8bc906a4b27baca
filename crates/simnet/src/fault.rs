//! Data-path fault injection.
//!
//! The access profiles carry per-segment fault probabilities
//! ([`AccessProfile::data_loss`](crate::profile::AccessProfile::data_loss),
//! `reorder`, `duplicate`). This module turns those knobs into per-segment
//! decisions: given a flow's dedicated fault RNG stream, `FaultPlan::decide`
//! answers *deliver / drop / duplicate / delay* for one relayed data segment.
//! The relay consults it on the server→app path, which is what exercises the
//! retransmission, SACK and congestion-control machinery under test.
//!
//! Determinism: every flow draws from its own salted stream (seeded
//! `seed ^ flow.stable_hash() ^ FAULT_KEY_SALT` by [`crate::SimNetwork`]), so
//! the fault schedule of a flow is a pure function of `(seed, four-tuple)` —
//! independent of shard count, batch size, and every other flow. A clean plan
//! draws **nothing**, so fault-free profiles are bit-identical to builds that
//! predate fault injection.

use crate::profile::AccessProfile;
use crate::rng::SimRng;
use crate::time::SimDuration;

/// The fate of one relayed data segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultDecision {
    /// Deliver the segment normally.
    Deliver,
    /// Silently drop the segment; the receiver sees a sequence hole.
    Drop,
    /// Deliver the segment twice; the receiver sees a duplicate.
    Duplicate,
    /// Deliver the segment late by the given extra delay, so segments sent
    /// after it overtake it — reordering as the receiver observes it.
    Delay(SimDuration),
}

/// The fault probabilities of one access profile, in decision form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Per-segment drop probability.
    pub data_loss: f64,
    /// Per-segment reordering (late-delivery) probability.
    pub reorder: f64,
    /// Per-segment duplication probability.
    pub duplicate: f64,
}

impl FaultPlan {
    /// Extracts the data-path knobs of an access profile.
    pub(crate) fn from_profile(profile: &AccessProfile) -> Self {
        Self {
            data_loss: profile.data_loss,
            reorder: profile.reorder,
            duplicate: profile.duplicate,
        }
    }

    /// True if no fault can ever fire under this plan.
    pub(crate) fn is_clean(&self) -> bool {
        self.data_loss <= 0.0 && self.reorder <= 0.0 && self.duplicate <= 0.0
    }

    /// Decides the fate of one segment.
    ///
    /// A clean plan returns [`FaultDecision::Deliver`] without touching the
    /// RNG. A dirty plan draws one uniform value and partitions it by the
    /// cumulative probabilities (drop, then duplicate, then reorder), plus a
    /// second draw for the reordering delay: `base_delay_ms × U(1, 3)` extra,
    /// where callers pass the profile's nominal access RTT so the late
    /// segment arrives behind several successors.
    pub(crate) fn decide(&self, rng: &mut SimRng, base_delay_ms: f64) -> FaultDecision {
        if self.is_clean() {
            return FaultDecision::Deliver;
        }
        let u = rng.unit();
        if u < self.data_loss {
            return FaultDecision::Drop;
        }
        if u < self.data_loss + self.duplicate {
            return FaultDecision::Duplicate;
        }
        if u < self.data_loss + self.duplicate + self.reorder {
            let extra_ms = base_delay_ms.max(1.0) * rng.uniform(1.0, 3.0);
            return FaultDecision::Delay(SimDuration::from_millis_f64(extra_ms));
        }
        FaultDecision::Deliver
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_plan_never_touches_the_rng() {
        let plan = FaultPlan::from_profile(&AccessProfile::wifi());
        assert!(plan.is_clean());
        let mut rng = SimRng::seed_from_u64(5);
        let untouched = rng.clone();
        for _ in 0..100 {
            assert_eq!(plan.decide(&mut rng, 10.0), FaultDecision::Deliver);
        }
        // The stream did not advance: the next draw matches a pristine clone.
        assert_eq!(rng.next_u64(), untouched.clone().next_u64());
    }

    #[test]
    fn dirty_plan_fires_each_fault_kind_at_roughly_its_rate() {
        let plan = FaultPlan::from_profile(&AccessProfile::lossy_3g());
        assert!(!plan.is_clean());
        let mut rng = SimRng::seed_from_u64(11);
        let (mut drops, mut dups, mut delays) = (0u32, 0u32, 0u32);
        let n = 20_000;
        for _ in 0..n {
            match plan.decide(&mut rng, 95.0) {
                FaultDecision::Drop => drops += 1,
                FaultDecision::Duplicate => dups += 1,
                FaultDecision::Delay(extra) => {
                    delays += 1;
                    let ms = extra.as_millis_f64();
                    assert!((95.0..=285.0).contains(&ms), "delay {ms} ms out of range");
                }
                FaultDecision::Deliver => {}
            }
        }
        let rate = |c: u32| f64::from(c) / f64::from(n);
        assert!((rate(drops) - plan.data_loss).abs() < 0.005, "drop rate {}", rate(drops));
        assert!((rate(dups) - plan.duplicate).abs() < 0.002, "dup rate {}", rate(dups));
        assert!((rate(delays) - plan.reorder).abs() < 0.004, "delay rate {}", rate(delays));
    }

    #[test]
    fn same_stream_same_schedule() {
        let plan = FaultPlan { data_loss: 0.1, reorder: 0.05, duplicate: 0.02 };
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..500 {
            assert_eq!(plan.decide(&mut a, 30.0), plan.decide(&mut b, 30.0));
        }
    }
}
