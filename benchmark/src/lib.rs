//! `mopbench` — the MopEye reproduction's benchmark.
//!
//! One workload module ([`workloads`]) shared by two binaries:
//!
//! * `mopbench` — the end-to-end numbers: system allocator, tracer off;
//! * `mopbench-trace` — the same workloads under the benchmark's own span
//!   recorder ([`spans`]) and a counting allocator, plus the layer probe
//!   ladder.
//!
//! Both measure the program from outside: the in-program `profiling`
//! feature is deliberately not enabled. `README.md` documents workloads,
//! metrics, the two clocks and how to read the output.

pub mod catalog;
pub mod cli;
pub mod host;
pub mod report;
pub mod spans;
pub mod stats;
pub mod workloads;
