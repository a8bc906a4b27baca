//! Fleet bench: the sharded relay engine under the rush-hour scenario.
//!
//! Two parts:
//!
//! * a criterion-timed microbench of a small rush-hour fleet at 1 vs 8
//!   shards (wall-clock of the whole sharded run, dispatcher and merge
//!   included), and
//! * the headline sweep printed to stderr: a 100k-connection rush hour under
//!   the *saturating* worker model at 1/2/4/8 shards, reporting the modelled
//!   aggregate relay throughput (response bytes delivered / busy interval),
//!   the per-run digest and the wall time. `BENCH_pr3.json` records these
//!   numbers. Under the saturating model the digest is stable for a given
//!   shard count (same seed → same run) but legitimately *differs across*
//!   shard counts: queueing behind a shard's worker depends on which flows
//!   share it. The shard-count-invariance guarantee belongs to the default
//!   unbounded model and is pinned by `tests/fleet_determinism.rs`.
//!   `FLEET_BENCH_USERS` scales the sweep (default 13_000 users ≈ 100k
//!   connections; set it lower for a quick look).

use criterion::{criterion_group, criterion_main, Criterion};
use mop_dataset::Scenario;
use mopeye_core::{FleetConfig, FleetEngine};

fn bench_fleet(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet_relay");
    group.sample_size(10);
    let scenario = Scenario::rush_hour(500, 2017);
    let flows = scenario.generate();
    for shards in [1usize, 8] {
        group.bench_function(&format!("rush_hour_500users_{shards}shards"), |b| {
            b.iter(|| {
                FleetEngine::new(FleetConfig::new(shards), scenario.network())
                    .run(flows.clone())
            })
        });
    }
    group.finish();

    // ----- headline sweep: 100k+ connections, saturating worker -----------
    let users: usize = std::env::var("FLEET_BENCH_USERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(13_000);
    // FLEET_BENCH_BATCH pins the stage batch size (default: the engine's
    // default). Batch 1 reproduces the pre-vectoring datapath — the
    // before/after rows of BENCH_pr6.json come from this knob.
    let batch: Option<usize> = std::env::var("FLEET_BENCH_BATCH").ok().and_then(|v| v.parse().ok());
    let scenario = Scenario::rush_hour(users, 2017);
    let flows = scenario.generate();
    eprintln!(
        "fleet: rush-hour sweep, {} users, {} connections, batch {}",
        users,
        flows.len(),
        batch.map_or("default".into(), |b| b.to_string())
    );
    let mut results = Vec::new();
    for shards in [1usize, 2, 4, 8] {
        let mut config = FleetConfig::new(shards).saturating();
        if let Some(batch) = batch {
            config = config.with_batch_size(batch);
        }
        let fleet = FleetEngine::new(config, scenario.network());
        let started = std::time::Instant::now();
        let report = fleet.run(flows.clone());
        let wall = started.elapsed().as_secs_f64();
        let throughput = report.relay_throughput_mbps().unwrap_or(0.0);
        eprintln!(
            "fleet: {shards} shards: {throughput:.1} Mbps relay throughput, \
             finished at {}, digest {:016x}, pool reuse {:.2}%, {wall:.1}s wall",
            report.merged.finished_at,
            report.digest(),
            100.0 * report.merged.buffer_pool.reuse_rate(),
        );
        results.push((shards, throughput));
    }
    if let (Some((_, t1)), Some((_, t8))) = (results.first(), results.last()) {
        eprintln!("fleet: 8-shard / 1-shard throughput ratio: {:.2}x", t8 / t1);
    }
}

criterion_group!(benches, bench_fleet);
criterion_main!(benches);
