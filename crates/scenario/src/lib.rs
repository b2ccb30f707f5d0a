//! One `Scenario` API: the unified workload/simulator/report surface.
//!
//! Single-replica serving, routed clusters, disaggregated prefill/decode
//! deployments, and reshaping fleets are all configurations of
//! `llmss-core`'s `FleetEngine` (a single replica is a one-replica
//! static fleet). This crate is the one composable experiment surface
//! over it (the direction LLMServingSim 2.0's "unified simulator"
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
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod any;
mod chaos;
mod codec;
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

use llmss_sched::{TimePs, EVENT_HORIZON_PS};

/// The slowest link bandwidth a scenario may set: 10^-3 GB/s (1 MB/s).
/// `kv_link_gbps`, `fabric.bw_gbps`, `fabric.trunk_gbps`, a
/// `[[fabric.link]]` `gbps` and a non-zero link-fault `degrade_to_gbps`
/// are all held to it, so a KV transfer's serialization time stays far
/// inside the picosecond clock.
pub const MIN_LINK_GBPS: f64 = 1e-3;

/// The largest fleet size a scenario may name: `replicas`, each `disagg`
/// pool, the `[[fleet.replica]]` count and `fleet.max_replicas`. It sits
/// two orders of magnitude above the largest fleet any example, test or
/// bench builds (1,000 replicas) and is checked before any size is
/// summed or allocated.
pub const MAX_FLEET_REPLICAS: usize = 100_000;

/// Scenario milliseconds to engine picoseconds, rounded to the nearest
/// picosecond (so a positive duration below 0.5 ps becomes zero).
pub(crate) fn ms_to_ps(ms: f64) -> TimePs {
    (ms * 1e9).round() as TimePs
}

/// Checks a link bandwidth against [`MIN_LINK_GBPS`].
pub(crate) fn check_link_gbps(field: &str, gbps: f64) -> Result<(), ScenarioError> {
    if gbps.is_finite() && gbps >= MIN_LINK_GBPS {
        return Ok(());
    }
    Err(ScenarioError::InvalidValue {
        field: field.into(),
        message: format!("must be at least {MIN_LINK_GBPS} GB/s, got {gbps}"),
    })
}

/// Checks a virtual duration, in picoseconds, against the event horizon
/// ([`EVENT_HORIZON_PS`]).
pub(crate) fn check_horizon(field: &str, ps: f64) -> Result<(), ScenarioError> {
    if ps <= EVENT_HORIZON_PS as f64 {
        return Ok(());
    }
    Err(ScenarioError::InvalidValue {
        field: field.into(),
        message: format!(
            "must stay within the event horizon of {} s, got {} s",
            EVENT_HORIZON_PS / 1_000_000_000_000,
            ps / 1e12
        ),
    })
}
