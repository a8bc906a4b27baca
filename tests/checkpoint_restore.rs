//! Checkpoint/restore determinism: a diurnal fleet run checkpointed at an
//! epoch boundary and resumed — through the on-disk JSON format, on a
//! *different* shard count — reproduces the uninterrupted run's fleet
//! digest bit for bit.
//!
//! This is the longitudinal extension of `fleet_determinism.rs`: the
//! flow-keyed discipline makes the merged report invariant under any
//! partition of the flow set, and a checkpoint is exactly a partition — by
//! schedule time instead of by four-tuple hash. The tests here pin that the
//! cut is invisible across the full matrix the fleet pins elsewhere: shard
//! counts {1, 2, 8} on both sides of the cut, and clean vs lossy (0.5 %
//! data-fault) networks.

use std::sync::OnceLock;

use proptest::prelude::*;

use mopeye::dataset::{DiurnalScenario, Scenario};
use mopeye::engine::{epoch_boundary, FleetCheckpoint, FleetConfig, FleetEngine, FleetReport};
use mopeye::simnet::{AccessProfile, SimNetwork, SimNetworkBuilder};
use mopeye::tun::FlowSpec;

const SEED: u64 = 20_170_712;
const FLEET_SEED: u64 = 77;
const EPOCH_WINDOW: usize = 32;

fn day() -> DiurnalScenario {
    Scenario::diurnal(40, SEED)
}

fn day_flows() -> Vec<FlowSpec> {
    day().generate()
}

fn hour_ns() -> u64 {
    DiurnalScenario::virtual_hour().as_nanos()
}

/// The diurnal network, optionally with data-path faults layered on the
/// uniform LTE access profile (the lossy arm of the matrix).
fn network(loss: f64) -> SimNetworkBuilder {
    let mut access = AccessProfile::lte();
    if loss > 0.0 {
        access = access.with_data_faults(loss, loss / 3.0, loss / 15.0);
    }
    SimNetwork::builder().seed(SEED).flow_keyed().with_table2_destinations().access(access)
}

fn fleet(shards: usize, loss: f64) -> FleetEngine {
    FleetEngine::new(
        FleetConfig::new(shards)
            .with_seed(FLEET_SEED)
            .with_epochs(DiurnalScenario::virtual_hour(), EPOCH_WINDOW),
        network(loss),
    )
}

/// Checkpoints the day at `cut_epoch` on one fleet, round-trips the
/// checkpoint through its JSON text (the on-disk format), and resumes it on
/// another fleet.
fn cut_and_resume(
    save: &FleetEngine,
    resume: &FleetEngine,
    flows: Vec<FlowSpec>,
    cut_epoch: u64,
) -> FleetReport {
    let cut = epoch_boundary(hour_ns(), cut_epoch);
    let checkpoint = FleetCheckpoint::capture(save, flows, cut);
    let text = checkpoint.to_json_string();
    let restored = FleetCheckpoint::from_json_str(&text).expect("checkpoint text parses back");
    restored.resume(resume)
}

#[test]
fn resumed_runs_reproduce_the_uninterrupted_digest_across_the_matrix() {
    let flows = day_flows();
    for &loss in &[0.0, 0.005] {
        let reference = fleet(2, loss).run(flows.clone());
        let reference_digest = reference.digest();
        assert!(reference.merged.windows.is_some(), "the windowed run must carry epoch sketches");
        // Save/resume shard counts cover {1, 2, 8} on both sides of the
        // cut.
        for &(save_shards, resume_shards) in &[(1usize, 8usize), (2, 1), (8, 2)] {
            let report = cut_and_resume(
                &fleet(save_shards, loss),
                &fleet(resume_shards, loss),
                flows.clone(),
                12, // mid-day epoch boundary
            );
            assert_eq!(
                report.digest(),
                reference_digest,
                "loss {loss}: save on {save_shards} shards, resume on {resume_shards} \
                 diverged from the uninterrupted run"
            );
            // Compare the semantic content directly too, so a digest bug
            // cannot mask a divergence.
            assert_eq!(report.merged.samples, reference.merged.samples);
            assert_eq!(report.merged.relay, reference.merged.relay);
            assert_eq!(report.merged.flows, reference.merged.flows);
            assert_eq!(report.merged.windows, reference.merged.windows);
            assert_eq!(report.merged.finished_at, reference.merged.finished_at);
            assert_eq!(report.merged.events_processed, reference.merged.events_processed);
        }
    }
}

#[test]
fn edge_cuts_degenerate_cleanly() {
    let flows = day_flows();
    let reference_digest = fleet(2, 0.0).run(flows.clone()).digest();
    // A cut at epoch 0 runs nothing before the save: the whole day is
    // pending. A cut past the last arrival runs everything: resume only
    // merges the base with an empty run.
    for cut_epoch in [0u64, 25] {
        let report = cut_and_resume(&fleet(2, 0.0), &fleet(8, 0.0), flows.clone(), cut_epoch);
        assert_eq!(report.digest(), reference_digest, "edge cut at epoch {cut_epoch}");
    }
}

/// The uninterrupted reference for the property test, run once.
fn property_reference() -> u64 {
    static DIGEST: OnceLock<u64> = OnceLock::new();
    *DIGEST.get_or_init(|| fleet(2, 0.0).run(day_flows()).digest())
}

proptest! {
    // Each case costs two fleet runs; the deterministic matrix above covers
    // breadth, this covers cut-point arbitrariness.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn any_epoch_boundary_is_a_digest_invariant_cut(cut_epoch in 1u64..24) {
        let report = cut_and_resume(
            &fleet(2, 0.0),
            &fleet(8, 0.0),
            day_flows(),
            cut_epoch,
        );
        prop_assert_eq!(report.digest(), property_reference(), "cut at epoch {}", cut_epoch);
    }
}
