//! Reproduction of every table and figure in the MopEye evaluation.
//!
//! The paper's evaluation splits into micro-benchmarks of the tool itself
//! (§3.3, §3.5, §4.1 — Figures 5, Tables 1–4) and analyses of the
//! crowdsourced dataset (§4.2 — Figures 6–11, Tables 5–6 and two case
//! studies). The [`micro`] module regenerates the former by running the
//! relay engine and the baselines on the simulated substrates; the [`crowd`]
//! module regenerates the latter from streaming aggregates — the
//! per-(app, kind, network, ISP) RTT sketches of
//! [`mop_measure::AggregateStore`] — so its cost is independent of the
//! sample count. [`diagnose`] builds the actionable layer on top:
//! app-slow-vs-network-slow classification and per-ISP rankings. [`render`]
//! turns the results into the text tables and CDF series that
//! `EXPERIMENTS.md` and the `repro` binary print.
//!
//! # Examples
//!
//! Diagnose a small deployment straight from aggregates:
//!
//! ```
//! use mop_analytics::diagnose::{diagnose_apps, DiagnosisConfig, Verdict};
//! use mop_measure::{AggregateStore, NetKind, RttRecord};
//!
//! let mut agg = AggregateStore::new();
//! for i in 0..60u32 {
//!     let jitter = f64::from(i % 11);
//!     agg.observe(&RttRecord::tcp(35.0 + jitter, 1, "com.cdn.app", NetKind::Wifi));
//!     agg.observe(&RttRecord::tcp(42.0 + jitter, 1, "com.chat.app", NetKind::Wifi));
//!     agg.observe(&RttRecord::tcp(280.0 + jitter, 1, "com.faraway.app", NetKind::Wifi));
//! }
//! let report = diagnose_apps(&agg, DiagnosisConfig::default());
//! assert_eq!(report[0].app, "com.faraway.app");
//! assert_eq!(report[0].verdict, Verdict::AppSlow);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod crowd;
pub mod diagnose;
pub mod micro;
pub mod render;

pub use crowd::{
    CaseJio, CaseWhatsapp, CrowdSummary, Fig10Dns, Fig11IspDns, Fig6Contribution, Fig7Countries,
    Fig8Locations, Fig9AppRtt, Table5Apps, Table6IspDns,
};
pub use diagnose::{
    diagnose_apps, diagnose_live, diagnose_trends, epoch_series, rank_isps, AppDiagnosis,
    DiagnosisConfig, EpochPoint, IspRank, LiveDiagnosis, TrendConfig, TrendDiagnosis, TrendVerdict,
    Verdict,
};
pub use micro::{
    Fig5Mapping, Table1TunnelWrite, Table2Accuracy, Table3Throughput, Table4Resources,
};
pub use render::{render_cdf_series, render_epoch_table, render_sketch_series, render_table};
