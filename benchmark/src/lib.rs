//! # sya-benchmark — the Sya benchmark
//!
//! Six workloads over the Sya pipeline, measured from outside through
//! the crates' public functions: end to end with tracing off, and per
//! layer in a separate traced run. See `README.md`.

pub mod cli;
pub mod data;
pub mod http;
pub mod loadgen;
pub mod machine;
pub mod report;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;
