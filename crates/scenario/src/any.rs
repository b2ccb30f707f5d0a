//! Every serving shape behind one value: [`AnySimulator`] and its
//! [`AnyReport`].
//!
//! `Scenario::build` returns an [`AnySimulator`]; callers drive it
//! through the [`Simulate`] trait without caring whether the scenario
//! described a single replica, a routed cluster, a disaggregated
//! deployment, or a `[fleet]` table, and the resulting [`AnyReport`]
//! writes the same artifact set the shape's native report writes.

use llmss_core::{
    ClusterReport, DisaggReport, FleetEngine, FleetReport, ReportOutput, ReuseStats,
    RoutingPolicyKind, SimReport, Simulate, SloSummary, Telemetry,
};
use llmss_sched::{Request, TimePs};

use crate::ServingShape;

/// A built scenario: the fleet engine behind every shape (a single
/// replica is a one-replica static fleet), tagged with the shape whose
/// report it finishes as, and driven through [`Simulate`].
#[derive(Debug)]
pub struct AnySimulator {
    /// The engine stepping every replica.
    pub engine: FleetEngine,
    /// The scenario's shape: single, cluster and disagg runs render the
    /// engine's [`FleetReport`] as [`SimReport`], [`ClusterReport`] and
    /// [`DisaggReport`].
    pub shape: ServingShape,
    /// The decode-pairing policy the disaggregated report names.
    pub pairing: RoutingPolicyKind,
}

impl AnySimulator {
    /// Runs to completion and finalizes (the common whole-trace run).
    pub fn run(self) -> AnyReport {
        Simulate::run_to_completion(self)
    }

    /// Attaches a telemetry handle; the engine fans it out per replica.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.engine.set_telemetry(telemetry);
    }
}

impl Simulate for AnySimulator {
    type Report = AnyReport;

    fn push_request(&mut self, request: Request) {
        self.engine.push_request(request);
    }

    fn next_ready_ps(&self) -> Option<TimePs> {
        self.engine.next_ready_ps()
    }

    fn clock_ps(&self) -> TimePs {
        self.engine.clock_ps()
    }

    fn completed_requests(&self) -> usize {
        self.engine.completed_requests()
    }

    fn step(&mut self) -> bool {
        self.engine.step()
    }

    fn finalize(self) -> AnyReport {
        match self.shape {
            ServingShape::Single => {
                // The one replica's report, without the fleet-level join.
                let mut replicas = self.engine.into_parts().replicas;
                let replica = replicas.pop().expect("a fleet has a replica"); // llmss-lint: allow(p001, reason = "FleetEngine::new refuses an empty fleet")
                AnyReport::Single(replica.report)
            }
            ServingShape::Cluster { .. } => {
                AnyReport::Cluster(self.engine.into_report().into())
            }
            ServingShape::Disagg { prefill, .. } => AnyReport::Disagg(
                DisaggReport::from_fleet(self.engine.into_report(), prefill, self.pairing),
            ),
            ServingShape::Fleet { .. } => AnyReport::Fleet(self.engine.into_report()),
        }
    }
}

/// The finished report of any serving shape, with the shape's native
/// artifacts and one shared metric surface for sweeps and comparisons.
#[derive(Debug, Clone)]
pub enum AnyReport {
    /// A single-replica [`SimReport`].
    Single(SimReport),
    /// A cluster [`ClusterReport`].
    Cluster(ClusterReport),
    /// A disaggregated [`DisaggReport`].
    Disagg(DisaggReport),
    /// A fleet-engine [`FleetReport`].
    Fleet(FleetReport),
}

impl AnyReport {
    /// The shape's short name (`single` | `cluster` | `disagg` | `fleet`).
    pub fn shape(&self) -> &'static str {
        match self {
            AnyReport::Single(_) => "single",
            AnyReport::Cluster(_) => "cluster",
            AnyReport::Disagg(_) => "disagg",
            AnyReport::Fleet(_) => "fleet",
        }
    }

    /// Requests fully served.
    pub fn total_completions(&self) -> usize {
        match self {
            AnyReport::Single(r) => r.completions.len(),
            AnyReport::Cluster(r) => r.total_completions(),
            AnyReport::Disagg(r) => r.total_completions(),
            AnyReport::Fleet(r) => r.total_completions(),
        }
    }

    /// Simulated time until the last request finished anywhere.
    pub fn makespan_ps(&self) -> TimePs {
        match self {
            AnyReport::Single(r) => r.sim_duration_ps,
            AnyReport::Cluster(r) => r.makespan_ps(),
            AnyReport::Disagg(r) => r.makespan_ps(),
            AnyReport::Fleet(r) => r.makespan_ps(),
        }
    }

    /// Makespan in seconds.
    pub fn makespan_s(&self) -> f64 {
        self.makespan_ps() as f64 / 1e12
    }

    /// Generation throughput in tokens per simulated second.
    pub fn generation_throughput(&self) -> f64 {
        match self {
            AnyReport::Single(r) => r.generation_throughput(),
            AnyReport::Cluster(r) => r.generation_throughput(),
            AnyReport::Disagg(r) => r.generation_throughput(),
            AnyReport::Fleet(r) => r.generation_throughput(),
        }
    }

    /// The standard SLO percentile summaries (TTFT / TPOT / latency).
    pub fn slo(&self) -> SloSummary {
        match self {
            AnyReport::Single(r) => r.slo(),
            AnyReport::Cluster(r) => r.slo(),
            AnyReport::Disagg(r) => r.slo(),
            AnyReport::Fleet(r) => r.slo(),
        }
    }

    /// Merged reuse statistics (operator- and iteration-level, all
    /// replicas).
    pub fn reuse(&self) -> ReuseStats {
        match self {
            AnyReport::Single(r) => r.reuse,
            AnyReport::Cluster(r) => r.aggregate_reuse(),
            AnyReport::Disagg(r) => r.aggregate_reuse(),
            AnyReport::Fleet(r) => r.aggregate_reuse(),
        }
    }

    /// The cluster report, if this run was one.
    pub fn as_cluster(&self) -> Option<&ClusterReport> {
        match self {
            AnyReport::Cluster(r) => Some(r),
            _ => None,
        }
    }

    /// The disaggregated report, if this run was one.
    pub fn as_disagg(&self) -> Option<&DisaggReport> {
        match self {
            AnyReport::Disagg(r) => Some(r),
            _ => None,
        }
    }

    /// The fleet report, if this run was one.
    pub fn as_fleet(&self) -> Option<&FleetReport> {
        match self {
            AnyReport::Fleet(r) => Some(r),
            _ => None,
        }
    }
}

impl ReportOutput for AnyReport {
    fn summary(&self) -> String {
        match self {
            AnyReport::Single(r) => ReportOutput::summary(r),
            AnyReport::Cluster(r) => ReportOutput::summary(r),
            AnyReport::Disagg(r) => ReportOutput::summary(r),
            AnyReport::Fleet(r) => ReportOutput::summary(r),
        }
    }

    fn artifacts(&self) -> Vec<(&'static str, String)> {
        match self {
            AnyReport::Single(r) => r.artifacts(),
            AnyReport::Cluster(r) => r.artifacts(),
            AnyReport::Disagg(r) => r.artifacts(),
            AnyReport::Fleet(r) => r.artifacts(),
        }
    }
}
