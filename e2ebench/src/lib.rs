//! End-to-end benchmark of a disk-backed NeST appliance over real
//! sockets; see README.md for the workloads, the metrics and the layers
//! each metric belongs to.

pub mod appliance;
pub mod drive;
pub mod gen;
pub mod host;
mod layers;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
pub mod wire;
