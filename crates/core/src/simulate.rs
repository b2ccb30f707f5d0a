//! The unified driving surface every serving shape implements.
//!
//! Single-replica serving, multi-replica clusters, and disaggregated
//! prefill/decode deployments all expose the same lifecycle — push
//! requests, advance virtual time step by step, watch progress,
//! finalize into a report. [`Simulate`] names that lifecycle once:
//!
//! ```text
//! push_request*  →  (step | next_ready_ps | clock_ps)*  →  finalize
//! ```
//!
//! `FleetEngine` implements it for every shape (a single replica is a
//! one-replica fleet), and the `llmss-scenario` crate's `AnySimulator`
//! wraps the engine with the report view its scenario's shape asks for.

use llmss_sched::{Request, TimePs};

use crate::ReportOutput;

/// A virtual-time serving simulation that can be driven step by step.
///
/// Implementations are *online*: requests may be pushed between steps and
/// join the simulation at their arrival times. `step` advances virtual
/// time by one step (for a fleet: the replica iterations before the next
/// cross-replica barrier, or that barrier's event) and returns `false`
/// once all injected work has drained.
///
/// # Examples
///
/// Drive a one-replica fleet through the one surface:
///
/// ```
/// use llmss_core::{FleetEngine, RoutingPolicyKind, SimConfig, Simulate, StaticControl};
/// use llmss_model::ModelSpec;
/// use llmss_sched::{Dataset, TraceGenerator};
///
/// let config = SimConfig::new(ModelSpec::gpt2()).npu_num(1).tensor_parallel();
/// let trace = TraceGenerator::new(Dataset::Alpaca, 7).rate_per_s(50.0).generate(4);
/// let round_robin = || RoutingPolicyKind::RoundRobin.build(0);
/// let control = StaticControl::new(round_robin(), round_robin());
/// let mut sim = FleetEngine::new(vec![config], Vec::new(), Box::new(control), Vec::new())?;
/// for request in trace {
///     Simulate::push_request(&mut sim, request);
/// }
/// let report = Simulate::run_to_completion(sim);
/// assert_eq!(report.total_completions(), 4);
/// # Ok::<(), llmss_core::ConfigError>(())
/// ```
pub trait Simulate {
    /// The finished-simulation report this shape produces.
    type Report: ReportOutput;

    /// Injects one request; it joins the simulation at its arrival time
    /// (immediately, if virtual time is already past it).
    fn push_request(&mut self, request: Request);

    /// The earliest virtual time the next [`step`](Self::step) would act,
    /// or `None` when all injected work has drained. Drivers juggling
    /// several simulators step whichever reports the smallest ready time.
    fn next_ready_ps(&self) -> Option<TimePs>;

    /// The simulation's current virtual clock (for a fleet: the furthest
    /// replica clock — virtual time never runs backwards).
    fn clock_ps(&self) -> TimePs;

    /// Requests fully served so far (the drain-progress observable;
    /// completion records themselves ship with the final report).
    fn completed_requests(&self) -> usize;

    /// Advances virtual time by one step; returns `false` when everything
    /// injected has drained.
    fn step(&mut self) -> bool;

    /// Finalizes into the report, consuming the simulator. Callable at
    /// any point — a partially drained simulation yields a partial
    /// report.
    fn finalize(self) -> Self::Report
    where
        Self: Sized;

    /// Steps until drained, then finalizes (the common whole-trace run).
    fn run_to_completion(mut self) -> Self::Report
    where
        Self: Sized,
    {
        while self.step() {}
        self.finalize()
    }
}
