//! Layer-ladder benchmark for pbdmm.
//!
//! Three closed-loop workloads, one per rung of the ladder, each driving
//! the system only through its public API and measuring it from outside:
//!
//! * [`churn`] (`apply_churn`) — bare `DynamicMatching::apply`;
//! * [`ingest`] (`service_ingest`) — the in-process service with its WAL;
//! * [`wire`] (`wire_mixed`) — the loopback daemon and its client.
//!
//! See `README.md` in this directory for the metric glossary and how to
//! run it.

pub mod churn;
pub mod gate;
pub mod gen;
pub mod ingest;
pub mod measure;
pub mod procfs;
pub mod report;
pub mod stats;
pub mod wire;

/// The workloads, by name.
pub const WORKLOADS: &[&str] = &["apply_churn", "service_ingest", "wire_mixed"];

/// Run workload `name` once with `p`.
pub fn run_workload(name: &str, p: &measure::Params) -> Option<report::Run> {
    match name {
        "apply_churn" => Some(churn::run(p)),
        "service_ingest" => Some(ingest::run(p)),
        "wire_mixed" => Some(wire::run(p)),
        _ => None,
    }
}
