//! # flexbench
//!
//! The flexsfu benchmark: four workloads run against the repository's
//! public APIs, every output checked bit for bit against direct
//! evaluation, end-to-end metrics from an untraced run and per-layer
//! metrics from a traced one. The traced run times the calls into each
//! layer from here; nothing is stamped inside the program.
//!
//! ```text
//! cargo run --release --manifest-path flexbench/Cargo.toml -- \
//!     --workload serve-open --seed 1 --seconds 10 --trace 0
//! ```

pub mod harness;
pub mod host;
pub mod inputs;
pub mod mix;
pub mod report;
pub mod stats;
pub mod workloads;
