//! The execution engine stack: heterogeneous engines behind one pricing
//! interface, with computation reuse.
//!
//! The stack owns one engine per device class, routes each operator to the
//! engine the operator mapper chose, and interposes the [`ReuseCache`] so
//! repeated signatures never re-run a compiler or hardware simulator.
//! It also keeps a wall-clock account of real engine work, which the
//! evaluation harness uses for the paper's Figure 9 breakdown.

use std::time::{Duration, Instant};

use llmss_model::Op;
use llmss_net::TimePs;
use llmss_npu::NpuConfig;
use llmss_pim::PimConfig;

use crate::{
    DeviceKind, ExecutionEngine, NpuPimLocalPlugin, NpuPlugin, PimMode, PimPlugin, ReuseCache,
    ReuseStats,
};

/// Heterogeneous engine stack with result reuse.
///
/// # Examples
///
/// ```
/// use llmss_core::{DeviceKind, EngineStack};
/// use llmss_model::{Op, OpDims, OpKind};
/// use llmss_npu::NpuConfig;
///
/// let mut stack = EngineStack::homogeneous(NpuConfig::table1(), true);
/// let op = Op::new(OpKind::QkvGen, OpDims::matmul(64, 768, 2304), 2);
/// let first = stack.price(&op, DeviceKind::Npu);
/// let second = stack.price(&op, DeviceKind::Npu); // cache hit
/// assert_eq!(first, second);
/// assert_eq!(stack.reuse_stats().hits(), 1);
/// ```
#[derive(Debug)]
pub struct EngineStack {
    npu: Box<dyn ExecutionEngine>,
    pim: Option<Box<dyn ExecutionEngine>>,
    cache: ReuseCache,
    engine_wall: Duration,
}

impl EngineStack {
    /// A homogeneous NPU stack.
    pub fn homogeneous(npu: NpuConfig, reuse: bool) -> Self {
        Self::custom(Box::new(NpuPlugin::new(npu)), None, reuse)
    }

    /// Builds the stack appropriate for a PIM mode (the paper's three
    /// system shapes).
    pub fn for_pim_mode(mode: PimMode, npu: NpuConfig, pim: PimConfig, reuse: bool) -> Self {
        match mode {
            PimMode::None => Self::homogeneous(npu, reuse),
            PimMode::Local => {
                Self::custom(Box::new(NpuPimLocalPlugin::new(npu, pim)), None, reuse)
            }
            PimMode::Pool => Self::custom(
                Box::new(NpuPlugin::new(npu)),
                Some(Box::new(PimPlugin::new(pim))),
                reuse,
            ),
        }
    }

    /// The plugin point: any third-party compiler-and-simulator stacks can
    /// fill the NPU (and optionally PIM) slots.
    pub fn custom(
        npu: Box<dyn ExecutionEngine>,
        pim: Option<Box<dyn ExecutionEngine>>,
        reuse: bool,
    ) -> Self {
        Self { npu, pim, cache: ReuseCache::new(reuse), engine_wall: Duration::ZERO }
    }

    /// Whether the stack has a PIM-pool engine.
    pub fn has_pim(&self) -> bool {
        self.pim.is_some()
    }

    /// Prices one operator on the given device class, consulting the reuse
    /// cache first.
    ///
    /// # Panics
    ///
    /// Panics if `device` is [`DeviceKind::Pim`] but the stack has no PIM
    /// engine, or if the target engine does not support the operator.
    pub fn price(&mut self, op: &Op, device: DeviceKind) -> TimePs {
        #[expect(
            clippy::expect_used,
            reason = "stack construction attaches a PIM engine whenever PIM ops can be scheduled"
        )]
        let engine: &mut Box<dyn ExecutionEngine> = match device {
            DeviceKind::Npu => &mut self.npu,
            DeviceKind::Pim => self.pim.as_mut().expect("no PIM engine in this stack"),
        };
        let wall = &mut self.engine_wall;
        self.cache.price(device, &op.signature(), op.kind.is_attention(), || {
            assert!(engine.supports(op), "engine {} cannot execute {op}", engine.name());
            #[expect(clippy::disallowed_methods, reason = "engine_wall measures host wall time for the Figure 9 breakdown, never simulated time")]
            let t0 = Instant::now();
            let ps = engine.execute(op);
            *wall += t0.elapsed();
            ps
        })
    }

    /// Attaches the cross-replica shared reuse tier to the op cache
    /// under `namespace`.
    pub fn attach_shared(&mut self, shared: crate::SharedReuse, namespace: u32) {
        self.cache.attach_shared(shared, namespace);
    }

    /// Publishes freshly executed op prices to the shared tier (driver
    /// sync points only — see [`SharedReuse`](crate::SharedReuse)).
    pub fn publish_shared(&mut self) {
        self.cache.publish_shared();
    }

    /// Whether the op cache is on.
    pub fn reuse_enabled(&self) -> bool {
        self.cache.enabled()
    }

    /// Reuse statistics.
    pub fn reuse_stats(&self) -> ReuseStats {
        self.cache.stats()
    }

    /// Counts lookups that were skipped as op-cache hits (see
    /// [`ReuseCache::credit_hits`]).
    pub fn credit_hits(&mut self, attention: u64, other: u64) {
        self.cache.credit_hits(attention, other);
    }

    /// Puts back op-cache counters saved by
    /// [`reuse_stats`](Self::reuse_stats), dropping whatever was counted
    /// since (see [`ReuseCache::restore_stats`]).
    pub fn restore_reuse_stats(&mut self, stats: ReuseStats) {
        self.cache.restore_stats(stats);
    }

    /// Wall-clock time spent inside engine compile/simulate work.
    pub fn engine_wall(&self) -> Duration {
        self.engine_wall
    }

    /// Total engine work units (compiles + simulations actually performed).
    pub fn work_units(&self) -> u64 {
        self.npu.work_units() + self.pim.as_ref().map_or(0, |p| p.work_units())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmss_model::{OpDims, OpKind, Phase};

    fn decode_score() -> Op {
        Op::new(OpKind::Score, OpDims::batched(32, 1, 128, 512), 2).in_phase(Phase::Generation)
    }

    #[test]
    fn reuse_avoids_engine_work() {
        let mut s = EngineStack::homogeneous(NpuConfig::table1(), true);
        let op = Op::new(OpKind::FfnUp, OpDims::matmul(256, 768, 3072), 2);
        s.price(&op, DeviceKind::Npu);
        let units_after_first = s.work_units();
        for _ in 0..10 {
            s.price(&op, DeviceKind::Npu);
        }
        assert_eq!(s.work_units(), units_after_first, "cache hits must not re-run engines");
        assert_eq!(s.reuse_stats().hits(), 10);
    }

    #[test]
    fn no_reuse_reruns_engine() {
        let mut s = EngineStack::homogeneous(NpuConfig::table1(), false);
        let op = Op::new(OpKind::FfnUp, OpDims::matmul(256, 768, 3072), 2);
        s.price(&op, DeviceKind::Npu);
        let first = s.work_units();
        s.price(&op, DeviceKind::Npu);
        assert!(s.work_units() > first);
    }

    #[test]
    fn pool_stack_prices_both_devices() {
        let mut s = EngineStack::for_pim_mode(
            PimMode::Pool,
            NpuConfig::table1(),
            PimConfig::table1(),
            true,
        );
        assert!(s.has_pim());
        let op = decode_score();
        let npu = s.price(&op, DeviceKind::Npu);
        let pim = s.price(&op, DeviceKind::Pim);
        assert!(pim < npu, "PIM must beat NPU on decode attention");
    }

    #[test]
    #[should_panic(expected = "no PIM engine")]
    fn pim_pricing_without_pim_panics() {
        let mut s = EngineStack::homogeneous(NpuConfig::table1(), true);
        s.price(&decode_score(), DeviceKind::Pim);
    }

    #[test]
    fn local_mode_stack_is_single_engine() {
        let s = EngineStack::for_pim_mode(
            PimMode::Local,
            NpuConfig::table1(),
            PimConfig::table1(),
            true,
        );
        assert!(!s.has_pim(), "local PIM hides inside the NPU slot");
    }

    #[test]
    fn engine_wall_grows_on_misses_only() {
        let mut s = EngineStack::homogeneous(NpuConfig::table1(), true);
        let op = Op::new(OpKind::FfnUp, OpDims::matmul(1024, 4096, 16_384), 2);
        s.price(&op, DeviceKind::Npu);
        let after_miss = s.engine_wall();
        assert!(after_miss > Duration::ZERO);
        s.price(&op, DeviceKind::Npu);
        assert_eq!(s.engine_wall(), after_miss);
    }
}
