//! Resident-fleet reuse determinism: a fleet whose workers and engines
//! outlive individual runs must be observationally identical to building a
//! fresh engine per run — reuse may only show up in the wall clock.
//!
//! `FleetEngine::run` itself delegates to a one-shot [`ResidentFleet`], so
//! these tests exercise the part delegation can't cover: the *second* and
//! later runs of a resident fleet, where every engine was reset in place
//! (pools, rings, wheel slabs and stage tables cleared, not dropped)
//! rather than constructed. Any state that leaks a run boundary — a stale
//! connection-table entry, an unreset ISN counter, a surviving RNG stream,
//! leftover recovery scoreboards from a lossy network — shifts the digest
//! and fails these bit-for-bit comparisons.

use mopeye::dataset::Scenario;
use mopeye::engine::{
    split_at, CongestionAlgo, FleetCheckpoint, FleetConfig, FleetEngine, ResidentFleet,
};
use mopeye::simnet::SimTime;

#[path = "support/sequential_digest.rs"]
mod sequential_digest;
use sequential_digest::sequential_digest;

/// The cross-PR anchor: `Scenario::rush_hour(300, 20_170_712)` at fleet
/// seed 77, pinned since the pre-refactor engine (see
/// `tests/fleet_determinism.rs`), under the sequential digest that
/// [`sequential_digest`] models.
const PRE_REFACTOR_RUSH_HOUR_DIGEST: u64 = 0x9e91_0e37_fc9c_0e02;

/// `fleet_digest` of the same report under the multiset fold.
const RUSH_HOUR_DIGEST: u64 = 0xe3b8_970b_a1c3_26db;

fn fresh_digest(config: &FleetConfig, scenario: &Scenario) -> u64 {
    FleetEngine::new(config.clone(), scenario.network()).run(scenario.generate()).digest()
}

#[test]
fn back_to_back_scenarios_match_fresh_engines() {
    let first = Scenario::rush_hour(80, 5);
    let second = Scenario::flash_crowd(40, 9);
    for shards in [1usize, 2, 8] {
        let config = FleetConfig::new(shards).with_seed(77);
        let fresh_first = fresh_digest(&config, &first);
        let fresh_second = fresh_digest(&config, &second);

        let mut resident = ResidentFleet::new(config);
        assert_eq!(resident.threads_spawned(), shards as u64 - 1, "{shards} shards, built");
        let run1 = resident.run_next(&first.network(), first.generate());
        let run2 = resident.run_next(&second.network(), second.generate());
        // A third run returns to the first scenario: the reset must erase
        // the second run's state just as completely as the first run's.
        let run3 = resident.run_next(&first.network(), first.generate());

        assert_eq!(run1.digest(), fresh_first, "{shards} shards, run 1");
        assert_eq!(run2.digest(), fresh_second, "{shards} shards, run 2");
        assert_eq!(run3.digest(), fresh_first, "{shards} shards, run 3");
        assert_eq!(resident.runs(), 3);
        // Shard 0 runs on this thread; the others each have one worker.
        assert_eq!(resident.threads_spawned(), shards as u64 - 1);
    }
}

#[test]
fn warm_steps_run_on_recycled_buffers_and_spawn_nothing() {
    // The steady state of a long-lived server: the same small batch,
    // stepped again and again on one fleet. After the warm-up run every
    // step reuses the pools' buffers (no allocation) and the parked
    // workers (no spawn), and still lands on the cold digest.
    let scenario = Scenario::rush_hour(6, 2017);
    let flows = scenario.generate();
    let network = scenario.network();
    let config = FleetConfig::new(4).with_seed(77);
    let cold = FleetEngine::new(config.clone(), network.clone()).run(flows.clone()).digest();
    let mut resident = ResidentFleet::new(config);
    assert_eq!(resident.run_next(&network, flows.clone()).digest(), cold, "warm-up run");
    let spawned = resident.threads_spawned();
    for step in 1..=30 {
        let report = resident.run_next(&network, flows.clone());
        assert_eq!(report.digest(), cold, "step {step}");
        assert_eq!(resident.threads_spawned(), spawned, "step {step} spawned a thread");
        assert_eq!(report.merged.buffer_pool.allocations, 0, "step {step}: buffer pool grew");
    }
}

#[test]
fn a_warm_run_reports_the_counters_of_a_cold_run() {
    // Each structure counter restarts with its engine's reset: a warm run
    // after a different (lossy) run counts exactly what a cold fleet counts
    // over the same flows, shard by shard.
    let lossy = Scenario::degraded_commute(60, 11);
    let scenario = Scenario::rush_hour(200, 5);
    for shards in [1usize, 2] {
        let config = FleetConfig::new(shards).with_seed(77);
        let cold = FleetEngine::new(config.clone(), scenario.network()).run(scenario.generate());
        let mut resident = ResidentFleet::new(config);
        resident.run_next(&lossy.network(), lossy.generate());
        let warm = resident.run_next(&scenario.network(), scenario.generate());
        assert_eq!(warm.merged.counters, cold.merged.counters, "{shards} shards");
        for (warm, cold) in warm.per_shard.iter().zip(&cold.per_shard) {
            assert_eq!(warm.counters, cold.counters, "{shards} shards, shard {}", cold.shard);
        }
    }
}

#[test]
fn anchor_digest_survives_reuse_after_a_lossy_run() {
    // The hardest reset case: a faulted network leaves retransmission
    // scoreboards, RTO timers and fault-stream draws behind; the rush-hour
    // anchor must still reproduce bit-exactly on the reused engines.
    let lossy = Scenario::degraded_commute(60, 11);
    let anchor = Scenario::rush_hour(300, 20_170_712);
    let mut resident = ResidentFleet::new(FleetConfig::new(2).with_seed(77));
    let lossy_report = resident.run_next(&lossy.network(), lossy.generate());
    assert!(
        lossy_report.merged.relay.retransmits > 0,
        "the degraded commute should actually exercise loss recovery"
    );
    let report = resident.run_next(&anchor.network(), anchor.generate());
    assert_eq!(sequential_digest(&report.merged), PRE_REFACTOR_RUSH_HOUR_DIGEST);
    assert_eq!(report.digest(), RUSH_HOUR_DIGEST, "{:#018x}", report.digest());
}

#[test]
fn checkpoint_resume_cycle_on_one_resident_fleet() {
    let scenario = Scenario::rush_hour(120, 7);
    let flows = scenario.generate();
    let network = scenario.network();
    let cut = SimTime::from_millis(800);
    for shards in [1usize, 2, 8] {
        let config = FleetConfig::new(shards).with_seed(77);
        let reference = FleetEngine::new(config.clone(), network.clone()).run(flows.clone());

        let mut resident = ResidentFleet::new(config);
        let (due, pending) = split_at(flows.clone(), cut);
        let base = resident.run_next(&network, due);
        let saved = FleetCheckpoint {
            seed: 77,
            shards_at_save: shards,
            congestion: CongestionAlgo::Reno,
            epoch_width_ns: None,
            epoch_window: 0,
            cut,
            base: base.merged,
            pending,
        }
        .to_json_string();
        // The same resident fleet picks the run back up on the other side
        // of a full JSON round trip — run boundaries and serialisation
        // must compose without disturbing the digest.
        let restored = FleetCheckpoint::parse(&saved).expect("checkpoint round-trips");
        let resumed = resident.run_next(&network, restored.pending);
        let mut merged = restored.base;
        merged.absorb(resumed.merged);
        merged.canonicalise();
        assert_eq!(merged.fleet_digest(), reference.digest(), "{shards} shards");
    }
}
