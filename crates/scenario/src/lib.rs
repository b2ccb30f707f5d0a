//! One `Scenario` API: the unified workload/simulator/report surface.
//!
//! Single-replica serving, routed clusters, disaggregated prefill/decode
//! deployments, and reshaping fleets are all configurations of
//! `llmss-core`'s two simulators — the `ServingSimulator` and the
//! `FleetEngine`. This crate is the one composable experiment surface
//! over them (the direction LLMServingSim 2.0's "unified simulator"
//! takes):
//!
//! * [`Scenario`] — a typed, chainable, *declarative* description of an
//!   experiment: model, hardware, serving-technique knobs, fleet shape,
//!   workload. Cross-field constraints are validated at
//!   [`build`](Scenario::build) time with a typed [`ScenarioError`], and
//!   the value round-trips losslessly to TOML and JSON scenario files
//!   (unknown keys are schema drift and fail loudly).
//! * [`AnySimulator`] / [`AnyReport`] — every serving shape behind one
//!   value, driven through the
//!   [`Simulate`](llmss_core::Simulate) trait and written through the
//!   [`ReportOutput`](llmss_core::ReportOutput) writer, so drivers are
//!   written once.
//! * [`Sweep`] — cartesian parameter grids over a base scenario
//!   (`[sweep]` tables of a sweep file, or the [`Sweep::axis`] builder),
//!   one consolidated TSV row per point.
//!
//! # Examples
//!
//! Builder, file, and sweep are the same object:
//!
//! ```
//! use llmss_scenario::Scenario;
//! use llmss_sched::{Dataset, WorkloadSpec};
//!
//! let scenario = Scenario::model("gpt2").npus(1).tensor_parallel().workload(
//!     WorkloadSpec::Synthetic { dataset: Dataset::Alpaca, requests: 4, rate_per_s: 50.0, seed: 1 },
//! );
//! // ... serialize it for the repo ...
//! let file = scenario.to_toml();
//! // ... and a colleague reproduces the run from the file alone.
//! let report = Scenario::from_toml(&file)?.run()?;
//! assert_eq!(report.total_completions(), 4);
//! # Ok::<(), llmss_scenario::ScenarioError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod any;
mod chaos;
mod error;
mod fabric;
mod fleet;
mod scenario;
mod sweep;
mod telemetry;
pub mod toml;

pub use any::{AnyReport, AnySimulator};
pub use chaos::{ChaosSpec, LinkFaultSpec, ReplicaFaultSpec};
pub use error::ScenarioError;
pub use fabric::{FabricLink, FabricRoute, FabricSharing, FabricSpec};
pub use fleet::{FleetControlKind, FleetSpec, ReplicaOverride};
pub use scenario::{Scenario, ServingShape};
pub use sweep::{Sweep, SweepAxis, SweepPoint, SweepReport, SweepRow};
pub use telemetry::TelemetrySpec;

/// Scenario milliseconds to engine picoseconds, rounded to the nearest
/// picosecond (so a positive duration below 0.5 ps becomes zero).
pub(crate) fn ms_to_ps(ms: f64) -> llmss_sched::TimePs {
    (ms * 1e9).round() as llmss_sched::TimePs
}
