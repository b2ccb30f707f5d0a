//! One fleet engine for every serving shape.
//!
//! A single replica (a one-replica static fleet), a routed cluster, a
//! disaggregated prefill/decode deployment, and a `[fleet]` scenario
//! under a flexing or autoscaling control plane are all configurations
//! of one core:
//!
//! ```text
//!             ┌──────────────────────────────────────────────┐
//!             │                 FleetEngine                  │
//!             │  virtual-time loop · ReadyHeap · KV links    │
//!             └──────┬────────────┬──────────────┬───────────┘
//!        admit/pair  │            │ step         │ handoff
//!             ┌──────▼─────┐ ┌────▼───────┐ ┌────▼───────┐
//!             │ControlPlane│ │ Replica 0  │ │ Replica N  │
//!             │ static /   │ │ Serving-   │…│ Serving-   │
//!             │ flex /     │ │ Simulator  │ │ Simulator  │
//!             │ autoscale  │ │ + role     │ │ + role     │
//!             └────────────┘ └────────────┘ └────────────┘
//! ```
//!
//! * [`FleetEngine`] — the event loop: replica slots, KV-transfer links,
//!   control ticks, drain-safe reconfiguration, and [`FleetWork`]
//!   counters of its own work.
//! * [`ControlPlane`] — the policy brain: admission (routing), pairing
//!   (KV handoff targets), and reconfiguration ([`FleetCommand`]).
//!   Shipped planes: [`StaticControl`], [`FlexPools`],
//!   [`AutoscaleControl`].
//! * [`ReadyHeap`] — the lazy-invalidation min-heap of replica
//!   ready-times.
//! * [`RoutingPolicy`] / [`RoutingPolicyKind`] / [`Candidates`] /
//!   [`ReplicaSnapshot`] / [`ReplicaRole`] — the router vocabulary, which
//!   decode pairing speaks too.
//! * [`FleetReport`] — what every run finishes as. The cluster and
//!   disaggregated shapes render it through their own views,
//!   [`ClusterReport`] and [`DisaggReport`].

mod cluster;
mod control;
mod disagg;
mod engine;
mod heap;
mod report;
mod route;

pub use cluster::ClusterReport;
pub use control::{
    AutoscaleConfig, AutoscaleControl, ControlPlane, FleetCommand, FleetStats, FlexPools,
    FlexPoolsConfig, ReplicaStatus, StaticControl,
};
pub use disagg::{DisaggCompletion, DisaggReport, TtftSplit};
pub use engine::{FleetEngine, FleetParts, FleetTransfer, FleetWork, ReplicaSlot};
pub use heap::ReadyHeap;
pub use report::{FleetReplica, FleetReport, ReplicaStats};
pub use route::{
    Candidates, LeastKvLoad, LeastOutstanding, PowerOfTwoChoices, ReplicaRole, ReplicaSnapshot,
    RoundRobin, RoutingPolicy, RoutingPolicyKind, Sticky,
};
