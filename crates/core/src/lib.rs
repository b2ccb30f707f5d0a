//! LLMServingSim core: the hardware/software co-simulation loop.
//!
//! This crate is the paper's primary contribution rebuilt in Rust. It wires
//! the substrates together into the Figure 4 workflow:
//!
//! 1. **Scheduler** (`llmss-sched`) — iteration-level batching with paged
//!    KV-cache management.
//! 2. **Execution engine stack** ([`EngineStack`]) — pluggable
//!    compiler-and-simulator engines ([`ExecutionEngine`]) behind a
//!    computation-[`ReuseCache`], with operator [mapping](map_op) across
//!    heterogeneous devices.
//! 3. **Graph converter** ([`GraphConverter`]) — engine traces become
//!    Chakra-like execution graphs with tensor/pipeline/hybrid parallelism,
//!    selective batching, PIM-pool offload transfers, and KV paging ops.
//! 4. **System simulator** (`llmss-net`) — executes the graph and feeds the
//!    iteration latency back to the scheduler.
//!
//! [`ServingSimulator`] drives the loop and produces a [`SimReport`] with
//! throughput series, latency statistics, reuse statistics, and the
//! per-component wall-clock breakdown the paper's evaluation uses.
//!
//! # Examples
//!
//! ```
//! use llmss_core::{ServingSimulator, SimConfig};
//! use llmss_model::ModelSpec;
//! use llmss_sched::{Dataset, TraceGenerator};
//!
//! let config = SimConfig::new(ModelSpec::gpt2()).npu_num(2).tensor_parallel();
//! let trace = TraceGenerator::new(Dataset::Alpaca, 1).rate_per_s(20.0).generate(4);
//! let report = ServingSimulator::new(config, trace)?.run();
//! assert_eq!(report.completions.len(), 4);
//! # Ok::<(), llmss_core::ConfigError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod chaos;
mod config;
mod convert;
mod engine;
mod fabric;
mod fleet;
pub mod json;
mod mapping;
mod report;
mod reuse;
mod sim;
mod simulate;
mod stack;
pub mod telemetry;

pub use chaos::{
    ChaosSchedule, FaultEvent, LinkFault, ReplicaFault, ReplicaFaultKind, ResilienceStats,
    RetryPolicy,
};
pub use config::{
    ConfigError, KvBucket, KvManage, ParallelismKind, ParallelismSpec, SimConfig,
};
pub use convert::{GraphConverter, FOLD_KEEP};
pub use engine::{ExecutionEngine, NpuPimLocalPlugin, NpuPlugin, PimPlugin};
pub use fabric::{
    Fabric, FabricCommit, FabricGraph, FabricStats, FabricTopology, FlowDone, FlowModel,
    LinkUsage, NamedLink, RouteSpec,
};
pub use fleet::{
    AutoscaleConfig, AutoscaleControl, Candidates, ClusterReport, ControlPlane,
    DisaggCompletion, DisaggReport, FleetCommand, FleetEngine, FleetParts, FleetReplica,
    FleetReport, FleetStats, FleetTransfer, FleetWork, FlexPools, FlexPoolsConfig, LeastKvLoad,
    LeastOutstanding, PowerOfTwoChoices, ReadyHeap, ReplicaRole, ReplicaSlot, ReplicaSnapshot,
    ReplicaStats, ReplicaStatus, RoundRobin, RoutingPolicy, RoutingPolicyKind, StaticControl,
    Sticky, TtftSplit,
};
pub use mapping::{map_op, DeviceKind, PimMode};
pub use report::{
    percentile, percentiles_from_ps, IterationRecord, PercentileSummary, ReportOutput,
    SimReport, SloCompletion, SloSummary, ThroughputBin, WallBreakdown,
};
pub use reuse::{
    BucketAdaptivity, IterationCache, IterationLookup, IterationOutcome, ReuseCache,
    ReuseStats, SharedReuse,
};
pub use sim::ServingSimulator;
pub use simulate::Simulate;
pub use stack::EngineStack;
pub use telemetry::{
    chrome_trace, filter_events, timeline_tsv, validate_chrome_trace, MemorySink, SimEvent,
    Telemetry, TimelineConfig,
};

/// The host's thread budget, probed once. `available_parallelism`
/// reads cgroup limits from the filesystem on Linux, far too slow to
/// call per fleet window or trace export.
pub(crate) fn host_parallelism() -> usize {
    static CACHED: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CACHED.get_or_init(|| {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    })
}
