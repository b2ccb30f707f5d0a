//! Processing-in-memory (PIM) execution engine for LLMServingSim.
//!
//! Models the in-house PIM simulator the paper attaches to its execution
//! engine stack for heterogeneous NPU+PIM studies: a bank-parallel GEMV
//! device in the HBM-PIM mold, with Table-I organization (4 banks per bank
//! group, 32 banks per channel, 1 TB/s aggregate internal bandwidth).
//!
//! PIM executes the decode-phase attention GEMVs (Score/Attend) whose
//! arithmetic intensity is too low for compute-centric accelerators; the
//! operator mapper in `llmss-core` decides what lands here.
//!
//! # Examples
//!
//! ```
//! use llmss_model::{Op, OpKind, OpDims};
//! use llmss_pim::{PimConfig, PimEngine};
//!
//! let mut pim = PimEngine::new(PimConfig::table1());
//! // Attention over a 2048-token KV cache, 32 heads:
//! let attend = Op::new(OpKind::Attend, OpDims::batched(32, 1, 2048, 128), 2);
//! let r = pim.run(&attend);
//! // Bank-parallel streaming keeps the op near the internal-bandwidth bound.
//! assert!(r.cycles < 2 * r.stream_cycles.max(1) + 1000);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod config;
mod dram;
mod engine;
mod gemv;

pub use config::PimConfig;
pub use dram::DramTiming;
pub use engine::{PimEngine, PimProgram, PimStats};
pub use gemv::{simulate_gemv, simulate_transfer, PimResult, PIM_CMD_CYCLES};
