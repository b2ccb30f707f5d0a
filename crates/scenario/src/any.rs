//! Every serving shape behind one value: [`AnySimulator`] and its
//! [`AnyReport`].
//!
//! `Scenario::build` returns an [`AnySimulator`]; callers drive it
//! through the [`Simulate`] trait without caring whether the scenario
//! described a single replica, a routed cluster, a disaggregated
//! deployment, or a `[fleet]` table, and the resulting [`AnyReport`]
//! writes the same artifact set the shape's native report writes.

use llmss_core::{
    ClusterReport, DisaggReport, FleetEngine, FleetReport, PairingPolicyKind, ReportOutput,
    ReuseStats, ServingSimulator, SimEvent, SimReport, Simulate, SloSummary, Telemetry,
};
use llmss_sched::{Request, TimePs};

use crate::ServingShape;

/// A built scenario: one serving replica, or the fleet engine behind
/// every multi-replica shape, driven uniformly through [`Simulate`].
#[derive(Debug)]
// One AnySimulator exists per run; variant size spread is irrelevant at
// that cardinality and boxing the fleet engine would tax every step call.
#[allow(clippy::large_enum_variant)]
pub enum AnySimulator {
    /// One unified serving replica (boxed: a `ServingSimulator` is an
    /// order of magnitude larger than the fleet engine's handle).
    Single(Box<ServingSimulator>),
    /// A routed cluster, a disaggregated deployment, or a `[fleet]`
    /// scenario: the fleet engine, tagged with the shape whose report it
    /// finishes as.
    Fleet {
        /// The engine stepping every replica.
        engine: FleetEngine,
        /// The scenario's shape: cluster and disagg runs render their
        /// [`FleetReport`] through [`ClusterReport`] / [`DisaggReport`].
        shape: ServingShape,
        /// The decode-pairing policy the disaggregated report names.
        pairing: PairingPolicyKind,
    },
}

impl AnySimulator {
    /// The shape's short name (`single` | `cluster` | `disagg` | `fleet`).
    pub fn shape(&self) -> &'static str {
        match self {
            AnySimulator::Single(_) => "single",
            AnySimulator::Fleet { shape: ServingShape::Cluster { .. }, .. } => "cluster",
            AnySimulator::Fleet { shape: ServingShape::Disagg { .. }, .. } => "disagg",
            AnySimulator::Fleet { .. } => "fleet",
        }
    }

    /// Runs to completion and finalizes (the common whole-trace run).
    pub fn run(self) -> AnyReport {
        Simulate::run_to_completion(self)
    }

    /// Attaches a telemetry handle to whichever shape this is. The
    /// fleet engine fans it out per replica; the single shape scopes it
    /// to replica 0 and announces that replica so the timeline's
    /// live-replica series starts at one.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        match self {
            AnySimulator::Single(s) => {
                let scoped = telemetry.for_replica(0);
                scoped.emit(|| SimEvent::ReplicaActivated {
                    t_ps: 0,
                    replica: 0,
                    admit_from_ps: 0,
                });
                s.set_telemetry(scoped);
            }
            AnySimulator::Fleet { engine, .. } => engine.set_telemetry(telemetry),
        }
    }
}

impl Simulate for AnySimulator {
    type Report = AnyReport;

    fn push_request(&mut self, request: Request) {
        match self {
            AnySimulator::Single(s) => Simulate::push_request(&mut **s, request),
            AnySimulator::Fleet { engine, .. } => engine.push_request(request),
        }
    }

    fn next_ready_ps(&self) -> Option<TimePs> {
        match self {
            AnySimulator::Single(s) => Simulate::next_ready_ps(&**s),
            AnySimulator::Fleet { engine, .. } => engine.next_ready_ps(),
        }
    }

    fn clock_ps(&self) -> TimePs {
        match self {
            AnySimulator::Single(s) => Simulate::clock_ps(&**s),
            AnySimulator::Fleet { engine, .. } => engine.clock_ps(),
        }
    }

    fn completed_requests(&self) -> usize {
        match self {
            AnySimulator::Single(s) => Simulate::completed_requests(&**s),
            AnySimulator::Fleet { engine, .. } => engine.completed_requests(),
        }
    }

    fn step(&mut self) -> bool {
        match self {
            AnySimulator::Single(s) => Simulate::step(&mut **s),
            AnySimulator::Fleet { engine, .. } => engine.step(),
        }
    }

    fn finalize(self) -> AnyReport {
        match self {
            AnySimulator::Single(s) => AnyReport::Single(Simulate::finalize(*s)),
            AnySimulator::Fleet { engine, shape, pairing } => {
                let report = engine.into_report();
                match shape {
                    ServingShape::Cluster { .. } => AnyReport::Cluster(report.into()),
                    ServingShape::Disagg { prefill, .. } => {
                        AnyReport::Disagg(DisaggReport::from_fleet(report, prefill, pairing))
                    }
                    ServingShape::Single | ServingShape::Fleet { .. } => {
                        AnyReport::Fleet(report)
                    }
                }
            }
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
