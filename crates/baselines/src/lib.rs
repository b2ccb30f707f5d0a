//! Baseline simulators and reference systems for the LLMServingSim
//! evaluation.
//!
//! Two families live here:
//!
//! * **Simulation-time baselines** (Figures 2a and 8): [`mnpusim_like`],
//!   [`genesys_like`] and [`neupims_like`] re-create the *cost profile* of
//!   the existing accelerator simulators the paper compares against — no
//!   result reuse, full per-block recompilation, and progressively finer
//!   stepping granularity (cycle quanta → PIM command streams → individual
//!   cache lines). Their measured wall-clock reproduces the paper's
//!   ordering: mNPUsim >> NeuPIMs > GeneSys >> LLMServingSim.
//! * **Reference serving systems** (Figures 6 and 7): [`gpu_ref`] is the
//!   vLLM-on-RTX-3090 stand-in (independent roofline/FlashAttention kernel
//!   model over the same Orca/paged-KV schedule); [`neupims_ref`] is the
//!   idealized NeuPIMs NPU+PIM system that LLMServingSim slightly trails
//!   because it models inter-device links and synchronization.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod common;
pub mod genesys_like;
pub mod gpu_ref;
pub mod mnpusim_like;
pub mod neupims_like;
pub mod neupims_ref;

pub use common::{uniform_prefill_workload, BaselineReport};
pub use gpu_ref::{run_gpu_reference, GpuRefConfig};
pub use neupims_ref::{run_neupims_reference, NeuPimsRefConfig};
