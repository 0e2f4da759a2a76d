//! # gsdram-benchmark
//!
//! The GS-DRAM simulator's benchmark: simulated memory operations per
//! host second, set-up time, peak memory and the paper's speed-up on
//! four workloads, normalised to a reference host; and, from a separate
//! traced run, the host cost split across the simulator's layers,
//! measured from outside through public APIs only. See `README.md`.

#![warn(missing_docs)]

pub mod compare;
pub mod host;
pub mod measure;
pub mod metrics;
mod replay;
pub mod report;
mod sample;
pub mod trace;
pub mod workload;
