//! Serving-layer substrate for LLMServingSim: requests, traces, batching,
//! iteration-level scheduling, and KV-cache management.
//!
//! This crate rebuilds the system-software half of the paper's co-design:
//!
//! * [`Request`] / [`TraceGenerator`] — synthetic ShareGPT/Alpaca-like
//!   request traces with Poisson arrivals, plus the artifact's TSV format.
//! * [`WorkloadSpec`] — traffic sources as declarative values
//!   (synthetic, bursty, trace file), so front-ends take a workload
//!   instead of dispatching on CLI strings.
//! * [`Scheduler`] — Orca-style iteration-level scheduling that re-forms
//!   the batch each iteration, admits by KV-memory availability, and
//!   evicts/reloads KV pages under pressure (vLLM-style demand paging via
//!   [`KvCache`]).
//! * [`partition_sub_batches`] — NeuPIMs-style sub-batch partitioning for
//!   heterogeneous overlap.
//!
//! # Examples
//!
//! Run a small serving episode end to end:
//!
//! ```
//! use llmss_sched::{
//!     Dataset, KvCache, KvCacheConfig, Scheduler, SchedulerConfig, TraceGenerator,
//! };
//!
//! let trace = TraceGenerator::new(Dataset::Alpaca, 7).rate_per_s(100.0).generate(8);
//! let kv = KvCache::new(KvCacheConfig::paged(8 << 20, 1024));
//! let mut sched = Scheduler::new(SchedulerConfig::default(), kv, trace);
//! while let Some(batch) = sched.next_batch() {
//!     // (a real caller hands `batch` to the engine stack here)
//!     sched.complete_iteration(2_000_000);
//! }
//! assert_eq!(sched.completions().len(), 8);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod batch;
mod dataset;
mod kv_cache;
mod memory;
mod orca;
mod request;
mod workload;

pub use batch::{partition_sub_batches, IterationBatch, PartitionCriteria};
pub use dataset::{trace_from_tsv, trace_to_tsv, Dataset, LengthModel, TraceGenerator};
pub use kv_cache::{KvCache, KvCacheConfig, KvError, KvPolicy, KvTransfer};
pub use memory::MemoryModel;
pub use orca::{LostWork, Scheduler, SchedulerConfig, SchedulerMode, SchedulingPolicy};
pub use request::{Completion, Request, RequestState, TimePs, EVENT_HORIZON_PS};
pub use workload::{bursty_trace, BurstyTraceSpec, WorkloadError, WorkloadSpec};
