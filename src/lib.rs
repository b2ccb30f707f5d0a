//! # LLMServingSim (Rust reproduction)
//!
//! A hardware/software co-simulation infrastructure for LLM inference
//! serving at scale — a from-scratch Rust reproduction of *LLMServingSim*
//! (Cho et al., IISWC 2024).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`model`] | `llmss-model` | LLM architectures, operator IR, FLOPs/bytes analysis |
//! | [`npu`] | `llmss-npu` | GeneSys-analog NPU engine (tiling compiler + systolic timing) |
//! | [`pim`] | `llmss-pim` | bank-parallel PIM GEMV engine |
//! | [`net`] | `llmss-net` | ASTRA-sim-analog DES system simulator |
//! | [`sched`] | `llmss-sched` | request traces, Orca scheduling, paged KV cache |
//! | [`core`] | `llmss-core` | engine stack, graph converter, serving simulator, fleet engine (routing, disaggregated pools, KV fabric, cluster/disagg/fleet reports) |
//! | [`scenario`] | `llmss-scenario` | the unified `Scenario` API: declarative experiments, scenario files, sweeps |
//! | [`baselines`] | `llmss-baselines` | mNPUsim/GeneSys/NeuPIMs-like sims + reference systems |
//!
//! # Quickstart
//!
//! ```
//! use llmservingsim::prelude::*;
//!
//! // GPT-2 on one Table-I NPU, eight Alpaca-like requests.
//! let config = SimConfig::new(ModelSpec::gpt2()).npu_num(1).tensor_parallel();
//! let trace = TraceGenerator::new(Dataset::Alpaca, 42).rate_per_s(16.0).generate(8);
//! let report = ServingSimulator::new(config, trace)?.run();
//! assert_eq!(report.completions.len(), 8);
//! println!("{}", report.summary());
//! # Ok::<(), llmservingsim::core::ConfigError>(())
//! ```

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub use llmss_baselines as baselines;
pub use llmss_core as core;
pub use llmss_model as model;
pub use llmss_net as net;
pub use llmss_npu as npu;
pub use llmss_pim as pim;
pub use llmss_scenario as scenario;
pub use llmss_sched as sched;

/// Convenient single-import surface for the common workflow.
pub mod prelude {
    pub use llmss_core::{
        map_op, ClusterReport, DeviceKind, DisaggCompletion, DisaggReport, EngineStack,
        ExecutionEngine, FleetEngine, FleetReport, GraphConverter, KvBucket, KvManage,
        ParallelismKind, ParallelismSpec, PercentileSummary, PimMode, ReplicaRole,
        ReplicaSnapshot, ReportOutput, ReuseCache, RoutingPolicy, RoutingPolicyKind,
        ServingSimulator, SimConfig, SimReport, Simulate, SloSummary, StaticControl, TtftSplit,
    };
    pub use llmss_model::{
        IterationWorkload, ModelSpec, Op, OpDims, OpKind, Phase, Roofline, SeqSlot,
    };
    pub use llmss_net::{simulate_graph, ExecGraph, ExecPayload, LinkSpec, Topology};
    pub use llmss_npu::{NpuConfig, NpuEngine};
    pub use llmss_pim::{PimConfig, PimEngine};
    pub use llmss_scenario::{
        AnyReport, AnySimulator, Scenario, ScenarioError, ServingShape, Sweep,
    };
    pub use llmss_sched::{
        bursty_trace, BurstyTraceSpec, Dataset, KvCache, KvCacheConfig, Request, Scheduler,
        SchedulerConfig, TraceGenerator, WorkloadSpec,
    };
}
