//! Step-latency bench: warm resident fleet vs cold per-step construction.
//!
//! The control plane's steady-state serving cost is one `fleet.step` — and
//! before PR 10 every step paid a fresh `FleetEngine` per scenario: thread
//! spawns, pool and ring allocation, wheel and slab warmup. This bench
//! puts a number on what residency saves. Both paths run the *same* small
//! flow batch over the same network at 4 shards:
//!
//! * **cold** — `FleetEngine::new(..).run(..)` per step (spawn + construct
//!   + run + teardown), the PR 9 plane's behaviour;
//! * **warm** — one [`ResidentFleet`], `run_next` per step (shard 0 on the
//!   calling thread, the other workers parked on their rings, engines reset
//!   in place).
//!
//! The headline block also checks the residency invariants the acceptance
//! bar names: cold and warm digests bit-identical, `threads_spawned`
//! constant across every warm run, and zero buffer-pool allocations in
//! warm steps after warmup (the pools recycle, never grow).

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use mop_dataset::Scenario;
use mopeye_core::{FleetConfig, FleetEngine, ResidentFleet};

const SHARDS: usize = 4;

fn bench_step_latency(c: &mut Criterion) {
    // Small on purpose: the steady-state step of a long-lived server runs
    // a fraction of a scenario per tick, so fixed per-step overhead (the
    // thing residency removes) dominates exactly like this.
    let scenario = Scenario::rush_hour(60, 2017);
    let flows = scenario.generate();
    let network = scenario.network();
    let config = FleetConfig::new(SHARDS).with_seed(77);

    let mut group = c.benchmark_group("step_latency");
    group.sample_size(10);
    group.bench_function("cold_4shards", |b| {
        b.iter(|| FleetEngine::new(config.clone(), network.clone()).run(flows.clone()))
    });
    {
        // Scoped so the criterion fleet is gone before the headline block —
        // a second fleet's parked workers must not share the timing.
        let mut resident = ResidentFleet::new(config.clone());
        resident.run_next(&network, flows.clone()); // Warmup: first run constructs.
        group.bench_function("warm_4shards", |b| {
            b.iter(|| resident.run_next(&network, flows.clone()))
        });
    }
    group.finish();

    // ----- headline: mean step latency + residency invariants --------------
    // The steady-state regime: a long-lived server's step runs the few
    // flows due this epoch, so fixed per-step overhead — what residency
    // removes — dominates. A small batch makes that regime explicit.
    let scenario = Scenario::rush_hour(6, 2017);
    let flows = scenario.generate();
    let network = scenario.network();
    let steps = 30usize;
    let cold_reference = FleetEngine::new(config.clone(), network.clone()).run(flows.clone());
    let started = Instant::now();
    for _ in 0..steps {
        let report = FleetEngine::new(config.clone(), network.clone()).run(flows.clone());
        assert_eq!(report.digest(), cold_reference.digest());
    }
    let cold_ms = started.elapsed().as_secs_f64() * 1e3 / steps as f64;

    let mut resident = ResidentFleet::new(config.clone());
    let warm_reference = resident.run_next(&network, flows.clone()); // Warmup run.
    assert_eq!(
        warm_reference.digest(),
        cold_reference.digest(),
        "resident run must be bit-identical to a fresh engine"
    );
    let spawned_after_warmup = resident.threads_spawned();
    let started = Instant::now();
    let mut last = None;
    for _ in 0..steps {
        let report = resident.run_next(&network, flows.clone());
        assert_eq!(report.digest(), cold_reference.digest());
        assert_eq!(
            resident.threads_spawned(),
            spawned_after_warmup,
            "warm steps must spawn no threads"
        );
        assert_eq!(
            report.merged.buffer_pool.allocations, 0,
            "warm steps must run entirely on recycled pool buffers"
        );
        assert_eq!(
            report.merged.socket_read_pool.allocations, 0,
            "warm steps must run entirely on recycled read buffers"
        );
        last = Some(report);
    }
    let warm_ms = started.elapsed().as_secs_f64() * 1e3 / steps as f64;
    let last = last.expect("steps > 0");

    eprintln!(
        "step_latency: {} flows, {SHARDS} shards, {steps} steps; cold {cold_ms:.2} ms/step, \
         warm {warm_ms:.2} ms/step ({:.1}x), digest {:016x}",
        flows.len(),
        cold_ms / warm_ms,
        cold_reference.digest(),
    );
    eprintln!(
        "step_latency: warm invariants: threads_spawned {} (constant), buffer-pool \
         allocations 0, pool reuses {}",
        spawned_after_warmup, last.merged.buffer_pool.reuses,
    );

    // ----- fixed overhead: the step cost with nothing due ------------------
    // An epoch tick where no flows are scheduled still pays the full
    // per-step machinery — on the old plane that meant construct + spawn +
    // teardown; on the resident fleet it is a ring round-trip and an
    // in-place reset. This isolates exactly the overhead residency removes.
    let empty: Vec<mop_tun::FlowSpec> = Vec::new();
    let started = Instant::now();
    for _ in 0..steps {
        FleetEngine::new(config.clone(), network.clone()).run(empty.clone());
    }
    let cold_fixed_ms = started.elapsed().as_secs_f64() * 1e3 / steps as f64;
    let mut resident = ResidentFleet::new(config.clone());
    resident.run_next(&network, empty.clone()); // Warmup.
    let started = Instant::now();
    for _ in 0..steps {
        resident.run_next(&network, empty.clone());
    }
    let warm_fixed_ms = started.elapsed().as_secs_f64() * 1e3 / steps as f64;
    let ratio = cold_fixed_ms / warm_fixed_ms;
    eprintln!(
        "step_latency: fixed per-step overhead (zero flows due): cold {cold_fixed_ms:.3} \
         ms/step, warm {warm_fixed_ms:.3} ms/step ({ratio:.1}x)",
    );
    assert!(
        ratio >= 5.0,
        "resident fixed step overhead must be >=5x below cold construction \
         (cold {cold_fixed_ms:.3} ms, warm {warm_fixed_ms:.3} ms, {ratio:.1}x)"
    );
}

criterion_group!(benches, bench_step_latency);
criterion_main!(benches);
