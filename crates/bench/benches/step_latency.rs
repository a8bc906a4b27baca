//! Fixed per-step overhead: a warm resident fleet vs cold construction.
//!
//! An epoch tick with no flows due still pays the per-step machinery.
//! Cold, that is constructing, spawning, running and tearing down a
//! 4-shard `FleetEngine`; warm, it is one `ResidentFleet::run_next`, which
//! gives a shard with no flows no job and runs nothing for it. Five
//! interleaved blocks each time 30 cold and then 30 warm steps; the median
//! of the five cold/warm ratios must be at least 5x. One block that a
//! scheduler hiccup slows cannot fail the bound on its own. The count
//! invariants of a warm step (digest, threads, pool allocations) are tests
//! in `tests/resident_reuse.rs`; this bench holds only the wall-clock bound.
//!
//! Run with `cargo bench -p mop_bench --bench step_latency`.

use std::time::Instant;

use mop_dataset::Scenario;
use mop_tun::FlowSpec;
use mopeye_core::{FleetConfig, FleetEngine, ResidentFleet};

const SHARDS: usize = 4;
const STEPS: usize = 30;
const BLOCKS: usize = 5;

/// Mean wall-clock milliseconds of `STEPS` calls of `step`.
fn mean_ms(mut step: impl FnMut()) -> f64 {
    let started = Instant::now();
    for _ in 0..STEPS {
        step();
    }
    started.elapsed().as_secs_f64() * 1e3 / STEPS as f64
}

fn main() {
    let network = Scenario::rush_hour(6, 2017).network();
    let config = FleetConfig::new(SHARDS).with_seed(77);
    let empty: Vec<FlowSpec> = Vec::new();

    let mut resident = ResidentFleet::new(config.clone());
    let mut ratios = Vec::with_capacity(BLOCKS);
    for block in 0..BLOCKS {
        let cold_ms = mean_ms(|| {
            FleetEngine::new(config.clone(), network.clone()).run(empty.clone());
        });
        resident.run_next(&network, empty.clone()); // Warms the step path.
        let warm_ms = mean_ms(|| {
            resident.run_next(&network, empty.clone());
        });
        let ratio = cold_ms / warm_ms;
        eprintln!(
            "step_latency: block {block}: cold {cold_ms:.3} ms/step, warm {warm_ms:.3} ms/step \
             ({ratio:.1}x)"
        );
        ratios.push(ratio);
    }
    ratios.sort_by(f64::total_cmp);
    let median = ratios[BLOCKS / 2];
    eprintln!(
        "step_latency: fixed per-step overhead (zero flows due, {SHARDS} shards, {BLOCKS} blocks \
         of {STEPS} steps): median {median:.1}x (min {:.1}x, max {:.1}x)",
        ratios[0],
        ratios[BLOCKS - 1]
    );
    assert!(
        median >= 5.0,
        "resident fixed step overhead must be >=5x below cold construction \
         (median of {BLOCKS} block ratios {median:.1}x: {ratios:.1?})"
    );
}
