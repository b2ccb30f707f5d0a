//! GeneSys-analog NPU execution engine for LLMServingSim.
//!
//! This crate models the accelerator the paper plugs into its execution
//! engine stack: a systolic-array NPU with a vector unit, driven by a
//! compiler that searches tiling candidates per GEMM and a timing simulator
//! that walks the chosen tile grid.
//!
//! The two-phase `compile` / `simulate` API ([`NpuEngine`]) mirrors the
//! paper's engine interface, and its costs are deliberately where the real
//! GeneSys stack spends time — so the core simulator's computation-reuse
//! caches have real redundancy to eliminate.
//!
//! # Examples
//!
//! ```
//! use llmss_model::{Op, OpKind, OpDims};
//! use llmss_npu::{NpuConfig, NpuEngine};
//!
//! let mut engine = NpuEngine::new(NpuConfig::table1());
//! // A prefill-phase FFN GEMM is compute bound...
//! let ffn = Op::new(OpKind::FfnUp, OpDims::matmul(2048, 4096, 16_384), 2);
//! assert!(!engine.run(&ffn).memory_bound());
//! // ...while a decode-phase attention GEMV is memory bound.
//! let score = Op::new(OpKind::Score, OpDims::batched(32, 1, 128, 1024), 2);
//! assert!(engine.run(&score).memory_bound());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod compiler;
mod config;
mod engine;
mod tile;
mod timing;

pub use compiler::{simulate_codelet, Codelet, ExecUnit, NpuCompiler};
pub use config::NpuConfig;
pub use engine::{EngineStats, NpuEngine};
pub use tile::{enumerate_candidates, Dataflow, TileChoice};
pub use timing::{
    simulate_gemv_stream, simulate_matmul, simulate_memory, simulate_vector, SimResult,
    DMA_SETUP_CYCLES, GEMV_M_THRESHOLD, GEMV_SWITCH_CYCLES, TILE_SETUP_CYCLES,
};
