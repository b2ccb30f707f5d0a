//! ASTRA-sim-analog system/network simulator for LLMServingSim.
//!
//! The paper feeds Chakra execution graphs to ASTRA-sim to obtain
//! iteration-level system timing; this crate is that substrate rebuilt in
//! Rust:
//!
//! * a deterministic discrete-event core ([`EventQueue`]),
//! * system topologies with groups, pools and host links ([`Topology`]),
//! * ring collective models executed at step granularity
//!   ([`CollectiveKind`], [`collective_time_ps`]),
//! * a Chakra-like execution graph ([`ExecGraph`]) and its simulator
//!   ([`simulate_graph`]), which returns per-iteration makespans, busy
//!   times, and event counts.
//!
//! Simulation cost intentionally grows with node count (per-node compute
//! ops, per-step collective events) the way ASTRA-sim's does — the paper's
//! Figure 10 scalability experiment measures exactly this.
//!
//! # Examples
//!
//! A two-node tensor-parallel layer: compute, then all-reduce.
//!
//! ```
//! use llmss_net::{
//!     simulate_graph, CollectiveKind, ExecGraph, ExecPayload, LinkSpec, Topology,
//! };
//!
//! let topo = Topology::flat_npus(2, LinkSpec::pcie4_x16());
//! let mut g = ExecGraph::new();
//! let c0 = g.add(0, ExecPayload::Compute { ps: 10_000 }, &[], "mlp-shard0");
//! let c1 = g.add(1, ExecPayload::Compute { ps: 10_000 }, &[], "mlp-shard1");
//! g.add(
//!     0,
//!     ExecPayload::Collective { kind: CollectiveKind::AllReduce, bytes: 1 << 20, group: 0 },
//!     &[c0, c1],
//!     "ar",
//! );
//! let out = simulate_graph(&g, &topo)?;
//! assert!(out.makespan_ps > 10_000);
//! # Ok::<(), llmss_net::SimError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod collective;
mod des;
mod graph;
mod sim;
mod topology;

pub use collective::{collective_time_ps, step_time_ps, CollectiveKind};
pub use des::{EventQueue, TimePs};
pub use graph::{DepList, ExecGraph, ExecNodeId, ExecOp, ExecPayload};
pub use sim::{simulate_graph, BlockRun, GraphSimulator, SimError, SimOutcome};
pub use topology::{GroupId, LinkSpec, NodeClass, NodeId, Topology};
