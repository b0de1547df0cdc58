//! A cycle-stepped functional and timing simulator of the Cerebras CS-1
//! wafer-scale engine tile architecture, as described in *Fast Stencil-Code
//! Computation on a Wafer-Scale Processor* (SC'20).
//!
//! The simulator models, per tile:
//!
//! * a processor core with a task scheduler (tasks activated by other tasks,
//!   by arriving fabric data, or by FIFO pushes), up to nine background
//!   threads sharing one SIMD datapath (4-wide fp16, 2-wide mixed-precision
//!   MAC, 2-wide fp32), and a scalar fp32 register file,
//! * 48 KB of private SRAM with a bump allocator (capacity violations are
//!   hard errors — the paper's memory-footprint arithmetic becomes an
//!   enforced invariant),
//! * hardware-managed in-memory FIFOs that activate tasks on push,
//! * tensor descriptors (DSRs) whose cursors persist across instructions,
//! * a five-port router with per-color virtual channels, offline-configured
//!   fanout routing, 4 bytes/port/cycle bandwidth, credit-based
//!   backpressure, and single-cycle per-hop latency.
//!
//! What is deliberately *not* modeled: instruction fetch/decode detail,
//! memory bank conflicts (the SIMD widths already encode the sustainable
//! stream rates), power, and hardware ECC. The model is validated against
//! the paper's published rates (see the `wse-core` kernels and the
//! `perf-model` crate).
//!
//! # Quick example
//!
//! ```
//! use wse_arch::fabric::Fabric;
//! use wse_arch::types::{Dtype, Port};
//! use wse_arch::dsr::mk;
//! use wse_arch::instr::{Op, Stmt, Task, TensorInstr};
//! use wse_float::F16;
//!
//! // Two tiles; the left one streams a vector to the right one.
//! let mut fabric = Fabric::new(2, 1);
//! fabric.set_route(0, 0, Port::Ramp, 1, &[Port::East]);
//! fabric.set_route(1, 0, Port::West, 1, &[Port::Ramp]);
//!
//! let data: Vec<F16> = (0..8).map(|i| F16::from_f64(i as f64)).collect();
//! {
//!     let t = fabric.tile_mut(0, 0);
//!     let addr = t.mem.alloc_vec(8, Dtype::F16).unwrap();
//!     t.mem.store_f16_slice(addr, &data);
//!     let dsrc = t.core.add_dsr(mk::tensor16(addr, 8));
//!     let dtx = t.core.add_dsr(mk::tx16(1, 8));
//!     let send = t.core.add_task(Task::new("send", vec![
//!         Stmt::Exec(TensorInstr { op: Op::Copy, dst: Some(dtx), a: Some(dsrc), b: None }),
//!     ]));
//!     t.core.activate(send);
//! }
//! let dst = {
//!     let t = fabric.tile_mut(1, 0);
//!     let addr = t.mem.alloc_vec(8, Dtype::F16).unwrap();
//!     let drx = t.core.add_dsr(mk::rx16(1, 8));
//!     let ddst = t.core.add_dsr(mk::tensor16(addr, 8));
//!     let recv = t.core.add_task(Task::new("recv", vec![
//!         Stmt::Exec(TensorInstr { op: Op::Copy, dst: Some(ddst), a: Some(drx), b: None }),
//!     ]));
//!     t.core.activate(recv);
//!     addr
//! };
//! fabric.run_watched(1_000, 64).expect("quiesce");
//! assert_eq!(fabric.tile(1, 0).mem.load_f16_slice(dst, 8), data);
//! ```

#![warn(missing_docs)]

pub mod core;
pub mod dsr;
pub mod fabric;
pub mod fault;
pub mod fifo;
pub mod instr;
pub mod memory;
pub mod router;
pub mod sanitize;
pub mod trace;
pub mod types;

pub use crate::core::{Core, CoreImage, CorePerf, SchedSnapshot};
pub use crate::fabric::{Fabric, FabricPerf, Region, StallReport, StalledTile, Tile};
pub use crate::fault::{FaultKind, FaultKindClass, FaultLog, FaultPlan, FaultRecord, SplitMix64};
pub use crate::instr::OpClass;
pub use crate::memory::{Memory, OutOfSram, TILE_SRAM_BYTES};
pub use crate::sanitize::{RaceTrip, SanitizerReport, TileSanitizer, TripKind};
pub use crate::trace::{
    FabricTrace, PhaseSpan, StallCause, TileTrace, TraceConfig, TraceEvent, TraceEventKind,
};
pub use crate::types::{Color, Dtype, Flit, Port};
