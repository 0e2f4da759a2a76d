//! # gsdram-bench
//!
//! The experiment engine: declarative run specs ([`spec`]), a registry
//! mapping every figure/ablation/extension of DESIGN.md §5–§6 to its
//! specs ([`experiments`]), a parallel sweep runner ([`sweep`]), shared
//! command-line parsing ([`args`]), and registry listing and "did you
//! mean" errors ([`listing`]).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod args;
pub mod experiments;
pub mod listing;
pub mod spec;
pub mod sweep;
