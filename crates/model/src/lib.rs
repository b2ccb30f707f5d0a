//! LLM architecture descriptions and analytical operator models.
//!
//! This crate is the foundation of the LLMServingSim reproduction: it knows
//! what a decoder-based transformer *is* — its hyper-parameters
//! ([`ModelSpec`]), the operators one inference iteration executes
//! ([`Op`], [`IterationWorkload`]), and the analytical FLOPs / bytes /
//! arithmetic-intensity math ([`Roofline`]) that every hardware timing model
//! in the workspace builds on.
//!
//! The key structural property exposed here, and exploited by the core
//! simulator for computation reuse, is that a decoder LLM is an embedding
//! bookend, `n_layers` *identical* transformer-block templates, and an
//! LM-head bookend ([`IterationWorkload::block_ops`] is that template).
//!
//! # Examples
//!
//! Build one prefill iteration of GPT-3 7B and inspect its cost:
//!
//! ```
//! use llmss_model::{IterationWorkload, ModelSpec, SeqSlot};
//!
//! let spec = ModelSpec::gpt3_7b();
//! let work = IterationWorkload::build(&spec, &[SeqSlot::prefill(0, 512)]);
//! // ~2 * params * tokens FLOPs, the classic estimate:
//! let estimate = 2.0 * spec.param_count() as f64 * 512.0;
//! let actual = work.total_flops() as f64;
//! assert!((actual - estimate).abs() / estimate < 0.25);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod fnv;
mod graph;
mod ops;
mod phase;
mod roofline;
mod signature;
mod spec;

pub use fnv::{FnvBuildHasher, FnvHashMap, FnvHashSet, FnvHasher};
pub use graph::IterationWorkload;
pub use ops::{Op, OpDims, OpKind, OpSignature};
pub use phase::{Phase, SeqSlot};
pub use roofline::{analyze, Roofline, RooflinePoint};
pub use signature::{BatchSignature, SigLayout, SignatureBuilder};
pub use spec::{FfnActivation, ModelSpec};
