//! End-to-end and per-layer benchmark of `ppr serve` on the paper's
//! workloads. `src/main.rs` documents the command line; `BENCHMARK.json`
//! at the repository root lists the workloads and metrics.

pub mod e2e;
pub mod harness;
pub mod oracle;
pub mod report;
pub mod server;
pub mod spans;
pub mod stats;
pub mod trace;
pub mod wire;
pub mod workload;
