//! # gsdram-dram
//!
//! A from-scratch DDR3 DRAM timing, scheduling and energy substrate for
//! the GS-DRAM reproduction (DESIGN.md §3).
//!
//! The paper evaluates GS-DRAM on a simulated DDR3-1600 channel with one
//! rank, eight banks, an open-row policy and FR-FCFS scheduling
//! (Table 1). This crate models exactly that stack:
//!
//! * [`timing`] — JEDEC timing parameters (DDR3-1600 preset);
//! * [`bank`] — bank/rank state machines enforcing tRCD/tRP/tRAS/tCCD/
//!   tWR/tWTR/tRRD/tFAW/tRFC;
//! * [`command`] — the command-bus vocabulary, with pattern IDs riding on
//!   column commands at zero timing cost (the central property of §3.6);
//! * [`mapping`] — physical-address interleaving, structured as
//!   composable component-function stages (interleave split + optional
//!   XOR bank hash);
//! * [`sched`] — pluggable scheduling engines (FR-FCFS, FCFS, a
//!   starvation-capped FR-FCFS and a bank-round-robin batcher);
//! * [`refresh`] — the periodic-refresh schedule;
//! * [`wdrain`] — write-drain watermark hysteresis;
//! * [`controller`] — the composition shell owning queues, clocks,
//!   stats, energy and event emission;
//! * [`energy`] — a DRAMPower-style IDD energy model.
//!
//! ```
//! use gsdram_dram::controller::{AccessKind, ControllerConfig, MemController, MemRequest};
//! use gsdram_dram::mapping::AddressMap;
//! use gsdram_core::PatternId;
//!
//! let mut mc = MemController::new(ControllerConfig::default());
//! let req = MemRequest {
//!     id: 1,
//!     loc: AddressMap::table1().decompose(0x4000),
//!     pattern: PatternId(7), // a gather costs one ordinary READ
//!     kind: AccessKind::Read,
//! };
//! mc.enqueue(req, 0);
//! mc.advance(1000);
//! let mut done = Vec::new();
//! mc.take_completions_into(1000, &mut done);
//! assert_eq!(done.len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bank;
pub mod command;
pub mod controller;
pub mod energy;
pub mod mapping;
pub mod refresh;
pub mod sched;
pub mod timing;
pub mod verify;
pub mod wdrain;
