//! Fixed per-step overhead: a warm resident fleet vs cold construction.
//!
//! An epoch tick with no flows due still pays the whole per-step
//! machinery. Cold, that is constructing, spawning, running and tearing
//! down a 4-shard `FleetEngine`; warm, it is one `ResidentFleet::run_next`:
//! a ring round-trip per parked worker and an in-place reset. The mean
//! over 30 steps must be at least 5x cheaper warm. The count invariants of
//! a warm step (digest, threads, pool allocations) are tests in
//! `tests/resident_reuse.rs`; this bench holds only the wall-clock bound.
//!
//! Run with `cargo bench -p mop_bench --bench step_latency`.

use std::time::Instant;

use mop_dataset::Scenario;
use mop_tun::FlowSpec;
use mopeye_core::{FleetConfig, FleetEngine, ResidentFleet};

const SHARDS: usize = 4;
const STEPS: usize = 30;

fn main() {
    let network = Scenario::rush_hour(6, 2017).network();
    let config = FleetConfig::new(SHARDS).with_seed(77);
    let empty: Vec<FlowSpec> = Vec::new();

    let started = Instant::now();
    for _ in 0..STEPS {
        FleetEngine::new(config.clone(), network.clone()).run(empty.clone());
    }
    let cold_ms = started.elapsed().as_secs_f64() * 1e3 / STEPS as f64;

    let mut resident = ResidentFleet::new(config);
    resident.run_next(&network, empty.clone()); // Warmup.
    let started = Instant::now();
    for _ in 0..STEPS {
        resident.run_next(&network, empty.clone());
    }
    let warm_ms = started.elapsed().as_secs_f64() * 1e3 / STEPS as f64;

    let ratio = cold_ms / warm_ms;
    eprintln!(
        "step_latency: fixed per-step overhead (zero flows due, {SHARDS} shards, {STEPS} \
         steps): cold {cold_ms:.3} ms/step, warm {warm_ms:.3} ms/step ({ratio:.1}x)",
    );
    assert!(
        ratio >= 5.0,
        "resident fixed step overhead must be >=5x below cold construction \
         (cold {cold_ms:.3} ms, warm {warm_ms:.3} ms, {ratio:.1}x)"
    );
}
