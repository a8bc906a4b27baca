//! Synthetic crowdsourcing dataset generator.
//!
//! The paper's §4.2 analyses a ten-month Google Play deployment: 5,252,758
//! RTT measurements from 6,266 apps on 2,351 devices in 114 countries. That
//! dataset cannot be re-collected, so this crate generates a synthetic one
//! calibrated to every population statistic the paper reports — the device,
//! app, country and ISP mixes, the per-network-type RTT distributions, and
//! the anomalies behind the two case studies (WhatsApp's SoftLayer domains
//! and Jio's LTE core). The *analysis* pipeline in `mop-analytics` then runs
//! against it unchanged, which is what makes the §4.2 figures reproducible
//! in shape.
//!
//! * [`calibration`] — the constants lifted from the paper,
//! * [`catalog`] — the app, ISP, country and WhatsApp-domain catalogues,
//! * [`generator`] — the generator proper, producing a
//!   [`mop_measure::MeasurementStore`],
//! * [`scenario`] — declarative fleet-scale traffic scenarios (workload
//!   mixes × network profiles) for the sharded relay engine.

#![forbid(unsafe_code)]

pub mod calibration;
pub mod catalog;
pub mod generator;
pub mod scenario;

pub use calibration::Calibration;
pub use catalog::{AppEntry, Catalog, CountryEntry, IspEntry};
pub use generator::{DatasetSpec, SyntheticDataset};
pub use scenario::{DiurnalPhase, DiurnalScenario, NetProfile, Scenario, ScenarioSpec, TrafficMix};
