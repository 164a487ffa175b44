//! End-to-end and per-layer benchmark of the dcp-rs simulator. It drives
//! the simulator only through public calls; see `README.md` beside this
//! crate for the workloads, the metrics and how they interact.

pub mod bench;
mod driver;
pub mod ledger;
mod procfs;
pub mod workloads;
