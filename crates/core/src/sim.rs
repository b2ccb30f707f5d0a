//! The serving simulator: the paper's Figure 4 loop.
//!
//! Each iteration: the scheduler forms a batch under KV-memory constraints,
//! the engine stack prices the (sharded) operators through the reuse
//! caches, the graph converter builds the execution graph, and the system
//! simulator returns the iteration latency, which advances the scheduler's
//! clock. Wall-clock spent in each component is recorded for the Figure 9
//! breakdown.
//!
//! Three levels of work avoidance keep the loop fast at serving scale:
//!
//! * **Iteration-outcome memoization** — a [`BatchSignature`] computed in
//!   O(batch) keys the whole iteration's result, so recurring steady-state
//!   decode batches skip graph construction *and* the network DES (see
//!   [`IterationCache`]).
//! * **Block folding** — with the op cache on, a miss converts and
//!   simulates only the first two decoder blocks of each pipeline stage.
//!   The DES proves that the state at the start of the second block
//!   repeats, shifted in time, after it, and extrapolates the other
//!   blocks exactly ([`GraphSimulator::simulate_folded`]); when it cannot
//!   prove that, the iteration is converted and simulated in full.
//! * **A zero-realloc miss path** — one [`ExecGraph`] arena and one
//!   [`GraphSimulator`] (event heap, dependency buffers) persist across
//!   steps, cleared and refilled instead of rebuilt.
//!
//! [`BatchSignature`]: llmss_model::BatchSignature

use std::time::Instant;

use llmss_model::FnvHashSet;
use llmss_net::{BlockRun, ExecGraph, GraphSimulator, Topology};
use llmss_sched::{Request, Scheduler, TimePs};

use crate::telemetry::{SimEvent, Telemetry};
use crate::{
    BucketAdaptivity, ConfigError, EngineStack, GraphConverter, IterationCache,
    IterationLookup, IterationOutcome, IterationRecord, KvBucket, SimConfig, SimReport,
    WallBreakdown,
};

/// An end-to-end LLM serving simulation.
///
/// # Examples
///
/// ```no_run
/// use llmss_core::{ServingSimulator, SimConfig};
/// use llmss_model::ModelSpec;
/// use llmss_sched::{Dataset, TraceGenerator};
///
/// let config = SimConfig::new(ModelSpec::gpt2()).npu_num(1).tensor_parallel();
/// let trace = TraceGenerator::new(Dataset::Alpaca, 42).rate_per_s(8.0).generate(32);
/// let report = ServingSimulator::new(config, trace)?.run();
/// println!("{}", report.summary());
/// # Ok::<(), llmss_core::ConfigError>(())
/// ```
#[derive(Debug)]
pub struct ServingSimulator {
    topology: Topology,
    converter: GraphConverter,
    stack: EngineStack,
    scheduler: Scheduler,
    records: Vec<IterationRecord>,
    wall: WallBreakdown,
    /// Persistent graph arena, cleared and refilled every miss.
    graph: ExecGraph,
    /// Persistent DES working state (event heap, CSR buffers).
    des: GraphSimulator,
    /// Whole-iteration outcome memoization.
    memo: IterationCache,
    /// Simulated time spent executing iterations (cumulative).
    busy_ps: TimePs,
    /// Event sink handle; off by default, in which case the tracing
    /// hooks below reduce to an early-out branch.
    telemetry: Telemetry,
    /// Requests whose prefill phase has opened (traced runs only).
    traced_prefill: FnvHashSet<u64>,
    /// Requests whose decode phase has opened (traced runs only).
    traced_decode: FnvHashSet<u64>,
    /// Completion records already emitted as events.
    completions_emitted: usize,
    /// Misses whose folded DES run could not prove its blocks repeat.
    fold_fallbacks: u64,
}

impl ServingSimulator {
    /// Builds a simulator from a configuration and a request trace.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when the configuration cannot be realized
    /// (an out-of-range batching delay or memory size, invalid
    /// parallelism, model does not fit in memory, ...).
    pub fn new(config: SimConfig, requests: Vec<Request>) -> Result<Self, ConfigError> {
        Self::from_config(&config, requests)
    }

    /// [`new`](Self::new) over a borrowed configuration, for the fleet
    /// engine, whose replica slots keep their own.
    pub(crate) fn from_config(
        config: &SimConfig,
        requests: Vec<Request>,
    ) -> Result<Self, ConfigError> {
        config.check_values()?;
        let parallelism = config.parallelism()?;
        let topology = config.topology()?;
        let kv = config.kv_cache()?;
        let converter = GraphConverter::new(
            config.model.clone(),
            parallelism,
            &topology,
            config.pim_mode,
            config.selective_batching,
            config.sub_batch,
        );
        let stack = EngineStack::for_pim_mode(
            config.pim_mode,
            config.npu_config.clone(),
            config.pim_config.clone(),
            config.reuse,
        );
        let scheduler = Scheduler::new(config.scheduler_config(), kv, requests);
        config.kv_bucket.validate()?;
        let mut memo = IterationCache::new(
            config.reuse && config.iteration_memo,
            converter.sig_layout(config.kv_bucket.initial_tokens()),
        );
        if let KvBucket::Adaptive { min_tokens, max_tokens, target_hit_rate, window } =
            config.kv_bucket
        {
            memo = memo.with_adaptivity(BucketAdaptivity {
                min_tokens: min_tokens as u32,
                max_tokens: max_tokens as u32,
                target_hit_rate,
                window,
            });
        }
        Ok(Self {
            topology,
            converter,
            stack,
            scheduler,
            records: Vec::new(),
            wall: WallBreakdown::default(),
            graph: ExecGraph::new(),
            des: GraphSimulator::new(),
            memo,
            busy_ps: 0,
            telemetry: Telemetry::off(),
            traced_prefill: FnvHashSet::default(),
            traced_decode: FnvHashSet::default(),
            completions_emitted: 0,
            fold_fallbacks: 0,
        })
    }

    /// Attaches (or detaches, with [`Telemetry::off`]) the event sink
    /// this simulator reports to. The handle carries the replica index
    /// stamped on every event.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Attaches the fleet-wide [`SharedReuse`](crate::SharedReuse) tier
    /// to both cache levels (iteration outcomes and op prices) under
    /// `fingerprint`'s namespace. Lookups fall through to the shared
    /// snapshot after a local miss; locally simulated results stay
    /// private until [`publish_shared_reuse`](Self::publish_shared_reuse).
    pub fn attach_shared_reuse(&mut self, shared: crate::SharedReuse, fingerprint: u64) {
        self.memo.attach_shared(shared.clone(), fingerprint);
        self.stack.attach_shared(shared, fingerprint);
    }

    /// Publishes fresh cache entries to the shared tier. The fleet
    /// engine calls this at global sync points in replica-index order,
    /// which is what keeps shared-tier hit counters byte-deterministic
    /// under sharded stepping.
    pub fn publish_shared_reuse(&mut self) {
        self.memo.publish_shared();
        self.stack.publish_shared();
    }

    /// Runs one iteration; returns `false` when the trace is drained.
    ///
    /// # Panics
    ///
    /// Panics if the generated execution graph is inconsistent with the
    /// topology (a bug, not a user error).
    pub fn step(&mut self) -> bool {
        #[expect(
            clippy::disallowed_methods,
            reason = "WallBreakdown measures host wall time (Figure 9), never simulated time"
        )]
        let t0 = Instant::now();
        let Some(batch) = self.scheduler.next_batch() else {
            return false;
        };

        // Iteration-outcome memoization: a recurring steady-state batch
        // signature answers from the cache, skipping graph construction
        // and the network DES entirely.
        let lookup = self.memo.lookup_batch(&batch);
        if let IterationLookup::Hit(cached) = lookup {
            self.record_iteration(&batch, &cached);
            self.emit_iteration(&batch, cached.makespan_ps, true);
            self.scheduler.complete_iteration(cached.makespan_ps);
            self.emit_completions();
            self.wall.scheduler += t0.elapsed();
            return true;
        }
        let sched_elapsed = t0.elapsed();

        let iteration = self.simulate_miss(&batch);
        if lookup == IterationLookup::Miss {
            self.memo.insert_current(iteration);
        }

        self.record_iteration(&batch, &iteration);
        self.emit_iteration(&batch, iteration.makespan_ps, false);

        #[expect(
            clippy::disallowed_methods,
            reason = "WallBreakdown measures host wall time (Figure 9), never simulated time"
        )]
        let t1 = Instant::now();
        self.scheduler.complete_iteration(iteration.makespan_ps);
        self.emit_completions();
        self.wall.scheduler += sched_elapsed + t1.elapsed();
        true
    }

    /// The miss path. With the op cache on, the converter emits two
    /// decoder blocks per pipeline stage and the DES extrapolates the
    /// rest once it has proved they repeat; without a proof the
    /// iteration is simulated in full. Host time goes to the engine,
    /// converter and network parts of the wall breakdown.
    fn simulate_miss(&mut self, batch: &llmss_sched::IterationBatch) -> IterationOutcome {
        let engine_before = self.stack.engine_wall();
        #[expect(
            clippy::disallowed_methods,
            reason = "WallBreakdown measures host wall time (Figure 9), never simulated time"
        )]
        let t0 = Instant::now();
        let folds = self.converter.convert_folded_into(batch, &mut self.stack, &mut self.graph);
        let skipped_ops: usize = folds.iter().map(BlockRun::skipped_ops).sum();
        let convert_total = t0.elapsed();
        let engine_elapsed = self.stack.engine_wall() - engine_before;
        self.wall.engine += engine_elapsed;
        self.wall.converter += convert_total.saturating_sub(engine_elapsed);

        #[expect(
            clippy::disallowed_methods,
            reason = "WallBreakdown measures host wall time (Figure 9), never simulated time"
        )]
        let t1 = Instant::now();
        #[expect(
            clippy::expect_used,
            reason = "documented panic: an inconsistent graph is a converter bug, not a user error"
        )]
        let folded = self
            .des
            .simulate_folded(&self.graph, &self.topology, folds)
            .expect("converter emits valid graphs")
            .map(|outcome| IterationOutcome::capture(outcome, self.graph.len() + skipped_ops));
        self.wall.network += t1.elapsed();
        folded.unwrap_or_else(|| {
            self.fold_fallbacks += 1;
            self.simulate_unfolded(batch)
        })
    }

    /// Converts and simulates `batch` in full, after a folded conversion
    /// of the same batch has counted its op lookups. The repeat finds
    /// every price cached, so its counts are dropped: each iteration
    /// counts its lookups once.
    fn simulate_unfolded(&mut self, batch: &llmss_sched::IterationBatch) -> IterationOutcome {
        let counted = self.stack.reuse_stats();
        #[expect(
            clippy::disallowed_methods,
            reason = "WallBreakdown measures host wall time (Figure 9), never simulated time"
        )]
        let t0 = Instant::now();
        self.converter.convert_into(batch, &mut self.stack, &mut self.graph);
        self.wall.converter += t0.elapsed();
        self.stack.restore_reuse_stats(counted);
        #[expect(
            clippy::disallowed_methods,
            reason = "WallBreakdown measures host wall time (Figure 9), never simulated time"
        )]
        let t1 = Instant::now();
        #[expect(
            clippy::expect_used,
            reason = "documented panic: an inconsistent graph is a converter bug, not a user error"
        )]
        let outcome = self
            .des
            .simulate(&self.graph, &self.topology)
            .expect("converter emits valid graphs");
        let iteration = IterationOutcome::capture(outcome, self.graph.len());
        self.wall.network += t1.elapsed();
        iteration
    }

    /// Appends the iteration record shared by the memoized and simulated
    /// paths (identical fields either way — that is the exactness
    /// contract the bucket-1 equivalence tests pin down).
    fn record_iteration(
        &mut self,
        batch: &llmss_sched::IterationBatch,
        outcome: &IterationOutcome,
    ) {
        self.busy_ps += outcome.makespan_ps;
        self.records.push(IterationRecord {
            index: self.scheduler.iterations(),
            start_ps: self.scheduler.clock_ps(),
            latency_ps: outcome.makespan_ps,
            batch_size: batch.batch_size(),
            prompt_tokens: batch.prompt_tokens(),
            generated_tokens: batch.generated_tokens(),
            evictions: batch.evictions.len(),
            reloads: batch.reloads.len(),
            graph_ops: outcome.graph_ops,
            net_events: outcome.net_events,
            compute_ps: outcome.compute_ps,
            comm_ps: outcome.comm_ps,
            host_ps: outcome.host_ps,
        });
    }

    /// Emits the iteration's telemetry: phase opens for slots seen for
    /// the first time, the iteration record itself (with its batch
    /// composition and memo outcome), and prefill closes. A no-op branch
    /// when no sink is attached.
    fn emit_iteration(
        &mut self,
        batch: &llmss_sched::IterationBatch,
        latency_ps: TimePs,
        memo_hit: bool,
    ) {
        if !self.telemetry.is_on() {
            return;
        }
        let telemetry = self.telemetry.clone();
        let replica = telemetry.replica();
        let start_ps = self.scheduler.clock_ps();
        let end_ps = start_ps + latency_ps;
        for slot in &batch.slots {
            if slot.kv_past == 0 {
                if self.traced_prefill.insert(slot.request) {
                    telemetry.emit(|| SimEvent::PrefillStart {
                        t_ps: start_ps,
                        id: slot.request,
                        replica,
                    });
                }
            } else if self.traced_decode.insert(slot.request) {
                telemetry.emit(|| SimEvent::DecodeStart {
                    t_ps: start_ps,
                    id: slot.request,
                    replica,
                });
            }
        }
        let prefill_slots = batch.slots.iter().filter(|s| s.kv_past == 0).count();
        let kv = self.scheduler.kv();
        telemetry.emit(|| SimEvent::Iteration {
            replica,
            index: self.scheduler.iterations(),
            start_ps,
            end_ps,
            batch_size: batch.batch_size(),
            prefill_slots,
            prompt_tokens: batch.prompt_tokens(),
            gen_tokens: batch.generated_tokens(),
            queue_depth: self.scheduler.pending_len(),
            kv_used_pages: kv.used_pages(),
            kv_total_pages: kv.config().total_pages(),
            memo_hit,
        });
        for slot in &batch.slots {
            if slot.kv_past == 0 {
                telemetry.emit(|| SimEvent::PrefillEnd {
                    t_ps: end_ps,
                    id: slot.request,
                    replica,
                });
            }
        }
    }

    /// Emits `Completed` events for completion records appended since
    /// the last call.
    fn emit_completions(&mut self) {
        if !self.telemetry.is_on() {
            return;
        }
        let telemetry = self.telemetry.clone();
        let replica = telemetry.replica();
        let completions = self.scheduler.completions();
        for c in &completions[self.completions_emitted..] {
            telemetry.emit(|| SimEvent::Completed {
                t_ps: c.finish_ps,
                id: c.id,
                replica,
                arrival_ps: c.arrival_ps,
                first_token_ps: c.first_token_ps,
                input_len: c.input_len,
                output_len: c.output_len,
            });
        }
        self.completions_emitted = completions.len();
    }

    /// Runs the simulation to completion and returns the report.
    pub fn run(mut self) -> SimReport {
        while self.step() {}
        self.into_report()
    }

    /// Injects one request online (the cluster router's entry point).
    ///
    /// The simulator does not have to be idle: the request queues at the
    /// scheduler and joins batch formation once the replica's clock
    /// reaches its arrival time (immediately, if the clock is already
    /// past it).
    pub fn push_request(&mut self, request: Request) {
        self.scheduler.push_request(request);
    }

    /// The earliest simulated time the next [`step`](Self::step) would
    /// act, or `None` when the simulator has drained all injected work.
    ///
    /// This is the interleaving key for multi-replica simulation: a
    /// cluster driver repeatedly steps whichever replica reports the
    /// smallest ready time, keeping all replica clocks loosely
    /// synchronized without a global lockstep barrier.
    pub fn next_ready_ps(&self) -> Option<TimePs> {
        self.scheduler.next_ready_ps()
    }

    /// The replica's current simulated clock.
    pub fn clock_ps(&self) -> TimePs {
        self.scheduler.clock_ps()
    }

    /// The replica's current serving role (derived from its scheduler
    /// mode).
    pub fn mode(&self) -> llmss_sched::SchedulerMode {
        self.scheduler.mode()
    }

    /// Role-switch hook: re-targets the replica at a different serving
    /// phase. Only legal once the replica has drained — see
    /// [`Scheduler::set_mode`].
    ///
    /// # Panics
    ///
    /// Panics if any request is still pending, active, or evicted.
    pub fn set_mode(&mut self, mode: llmss_sched::SchedulerMode) {
        self.scheduler.set_mode(mode);
    }

    /// Simulated time this replica has spent executing iterations — the
    /// control plane's utilization signal.
    pub fn busy_ps(&self) -> TimePs {
        self.busy_ps
    }

    /// The scheduler (for inspection between steps).
    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    /// Crash semantics for fault injection: drops every request the
    /// replica holds (releasing their KV) and returns them so a fleet
    /// driver can retry them elsewhere. Request-lifecycle trace state is
    /// forgotten too — a retried request re-emits its prefill/decode
    /// markers wherever it lands next.
    pub fn crash_drain(&mut self) -> Vec<llmss_sched::LostWork> {
        let lost = self.scheduler.crash_drain();
        for work in &lost {
            self.traced_prefill.remove(&work.request.id);
            self.traced_decode.remove(&work.request.id);
        }
        lost
    }

    /// Retracts completions by id (finished-but-unshipped prefill KV
    /// that died with a crash). The completion-event cursor clamps so
    /// later completions still emit exactly once.
    pub fn retract_completions(&mut self, ids: &[u64]) -> usize {
        let removed = self.scheduler.retract_completions(ids);
        self.completions_emitted =
            self.completions_emitted.min(self.scheduler.completions().len());
        for id in ids {
            self.traced_prefill.remove(id);
            self.traced_decode.remove(id);
        }
        removed
    }

    /// Jumps the replica clock to `t` (no-op if already past it) — the
    /// fault-recovery path: a replica back from an outage must not run
    /// iterations in its past.
    pub fn advance_clock_to(&mut self, t: TimePs) {
        self.scheduler.advance_clock_to(t);
    }

    /// The engine stack (for reuse statistics between steps).
    pub fn stack(&self) -> &EngineStack {
        &self.stack
    }

    /// Iterations whose folded simulation could not prove that the
    /// left-out decoder blocks repeat, and that were converted and
    /// simulated in full instead.
    pub fn fold_fallbacks(&self) -> u64 {
        self.fold_fallbacks
    }

    /// Combined reuse statistics: per-operator counters from the engine
    /// stack plus iteration-level memoization counters.
    pub fn reuse_stats(&self) -> crate::ReuseStats {
        let mut stats = self.stack.reuse_stats();
        self.memo.fill_stats(&mut stats);
        stats
    }

    /// Finalizes the simulator into its report (used directly by drivers
    /// that interleave [`step`](Self::step) calls, e.g. the fleet engine;
    /// [`run`](Self::run) is the single-replica shorthand).
    pub fn into_report(mut self) -> SimReport {
        let reuse = self.reuse_stats();
        SimReport {
            sim_duration_ps: self.scheduler.clock_ps(),
            // Ownership moves from the scheduler — no copy of what can be
            // millions of completion records.
            completions: self.scheduler.take_completions(),
            iterations: self.records,
            wall: self.wall,
            reuse,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmss_model::ModelSpec;
    use llmss_sched::{Dataset, TraceGenerator};

    fn small_trace(n: usize) -> Vec<Request> {
        TraceGenerator::new(Dataset::Alpaca, 11).rate_per_s(50.0).generate(n)
    }

    fn config() -> SimConfig {
        SimConfig::new(ModelSpec::gpt2()).npu_num(1).tensor_parallel()
    }

    #[test]
    fn completes_all_requests() {
        let report = ServingSimulator::new(config(), small_trace(6)).unwrap().run();
        assert_eq!(report.completions.len(), 6);
        assert!(report.sim_duration_ps > 0);
        assert!(!report.iterations.is_empty());
    }

    #[test]
    fn iteration_latencies_are_positive_and_clock_advances() {
        let report = ServingSimulator::new(config(), small_trace(4)).unwrap().run();
        for it in &report.iterations {
            assert!(it.latency_ps > 0, "iteration {} has zero latency", it.index);
        }
        let last = report.iterations.last().unwrap();
        assert_eq!(report.sim_duration_ps, last.start_ps + last.latency_ps);
    }

    #[test]
    fn reuse_dramatically_reduces_engine_work() {
        let with = ServingSimulator::new(config().reuse(true), small_trace(4)).unwrap().run();
        let without =
            ServingSimulator::new(config().reuse(false), small_trace(4)).unwrap().run();
        assert!(with.reuse.hit_rate() > 0.8, "hit rate {:.2}", with.reuse.hit_rate());
        assert_eq!(without.reuse.hits(), 0);
        // Same simulated results either way: reuse is a speed optimization.
        assert_eq!(with.sim_duration_ps, without.sim_duration_ps);
        assert!(without.reuse.misses() > 5 * with.reuse.misses());
    }

    #[test]
    fn tensor_parallel_run_is_faster_in_sim_time() {
        let trace = small_trace(4);
        let tp1 = ServingSimulator::new(config(), trace.clone()).unwrap().run();
        let tp4 = ServingSimulator::new(
            SimConfig::new(ModelSpec::gpt2()).npu_num(4).tensor_parallel(),
            trace,
        )
        .unwrap()
        .run();
        assert!(tp4.sim_duration_ps < tp1.sim_duration_ps);
    }

    #[test]
    fn pim_pool_config_runs_end_to_end() {
        let cfg = SimConfig::new(ModelSpec::gpt2())
            .npu_num(2)
            .tensor_parallel()
            .pim_pool(2)
            .sub_batch(true);
        let report = ServingSimulator::new(cfg, small_trace(4)).unwrap().run();
        assert_eq!(report.completions.len(), 4);
    }

    #[test]
    fn adaptive_kv_bucket_anneals_and_still_serves_everything() {
        use llmss_sched::{bursty_trace, BurstyTraceSpec};
        let mut spec = BurstyTraceSpec::decode_heavy_mix(0.9, 7);
        spec.bursts = 2;
        spec.burst_size = 24;
        spec.heavy = (32, 128);
        spec.light = (32, 24);
        let trace = bursty_trace(&spec);
        let base = config().max_batch(16);
        let exact = ServingSimulator::new(base.clone(), trace.clone()).unwrap().run();
        let adaptive_bucket = KvBucket::Adaptive {
            min_tokens: 1,
            max_tokens: 64,
            target_hit_rate: 0.8,
            window: 32,
        };
        let adaptive =
            ServingSimulator::new(base.kv_bucket(adaptive_bucket), trace).unwrap().run();

        // The lockstep decode cohorts rarely repeat exact signatures, so
        // the annealer must have grown the bucket and beaten exact reuse.
        assert!(adaptive.reuse.kv_bucket_end > 1, "bucket never annealed");
        assert!(adaptive.reuse.kv_bucket_end <= 64, "drift budget exceeded");
        assert!(
            adaptive.reuse.iteration_hit_rate() > exact.reuse.iteration_hit_rate(),
            "adaptive ({:.2}) should beat exact ({:.2}) on this trace",
            adaptive.reuse.iteration_hit_rate(),
            exact.reuse.iteration_hit_rate()
        );
        // Fidelity stays bounded: every request completes, and the
        // simulated duration drifts no more than coarse-bucket pricing
        // allows.
        assert_eq!(adaptive.completions.len(), exact.completions.len());
        let drift = (adaptive.sim_duration_ps as f64 - exact.sim_duration_ps as f64).abs()
            / exact.sim_duration_ps as f64;
        assert!(drift < 0.25, "adaptive-bucket duration drift {drift:.3} out of bounds");
    }

    #[test]
    fn out_of_range_floats_are_config_errors() {
        for delay in [f64::INFINITY, 1e30, 2e10, f64::NAN, -1.0] {
            let mut cfg = config();
            cfg.batch_delay_ms = delay;
            let err = ServingSimulator::new(cfg, small_trace(2)).unwrap_err();
            assert_eq!(err.field(), Some("batch_delay_ms"), "{delay}: {err}");
        }
        for mem in [f64::NAN, 0.0, -1.0, f64::INFINITY, 1e30] {
            let mut cfg = config();
            cfg.npu_mem_gib = Some(mem);
            let err = ServingSimulator::new(cfg, small_trace(2)).unwrap_err();
            assert_eq!(err.field(), Some("npu_mem_gib"), "{mem}: {err}");
        }
        let mut cfg = config();
        cfg.batch_delay_ms = 2.5;
        let report = ServingSimulator::new(cfg, small_trace(2)).unwrap().run();
        assert_eq!(report.completions.len(), 2);
    }

    #[test]
    fn the_unfolded_fallback_returns_the_full_outcome_and_counts_lookups_once() {
        use llmss_model::SeqSlot;
        let cfg = SimConfig::new(ModelSpec::gpt2()).npu_num(2).tensor_parallel();
        let batch = llmss_sched::IterationBatch {
            slots: vec![SeqSlot::decode(0, 300), SeqSlot::prefill(1, 40)],
            evictions: vec![],
            reloads: vec![],
        };
        let mut full = ServingSimulator::new(cfg.clone(), Vec::new()).unwrap();
        full.converter.convert_into(&batch, &mut full.stack, &mut full.graph);
        let out = full.des.simulate(&full.graph, &full.topology).unwrap();
        let want = IterationOutcome::capture(out, full.graph.len());
        // The fallback runs after a folded conversion counted the lookups.
        let mut sim = ServingSimulator::new(cfg, Vec::new()).unwrap();
        sim.converter.convert_folded_into(&batch, &mut sim.stack, &mut sim.graph);
        let counted = sim.stack.reuse_stats();
        assert_eq!(counted, full.stack.reuse_stats());
        assert_eq!(sim.simulate_unfolded(&batch), want);
        assert_eq!(sim.stack.reuse_stats(), counted);
    }

    #[test]
    fn deterministic_end_to_end() {
        let a = ServingSimulator::new(config(), small_trace(5)).unwrap().run();
        let b = ServingSimulator::new(config(), small_trace(5)).unwrap().run();
        assert_eq!(a.sim_duration_ps, b.sim_duration_ps);
        assert_eq!(a.iterations.len(), b.iterations.len());
    }

    // Many replicas of this simulator: the cluster and disaggregated
    // shapes as static fleets over the fleet engine.

    use llmss_net::LinkSpec;
    use llmss_sched::{bursty_trace, BurstyTraceSpec};

    use crate::{
        ClusterReport, DisaggReport, Fabric, FabricGraph, FleetEngine, ReplicaRole,
        RoutingPolicyKind, StaticControl,
    };

    const LOR: RoutingPolicyKind = RoutingPolicyKind::LeastOutstanding;
    const LEAST_KV: RoutingPolicyKind = RoutingPolicyKind::LeastKvLoad;

    fn alpaca(n: usize, rate: f64) -> Vec<Request> {
        TraceGenerator::new(Dataset::Alpaca, 13).rate_per_s(rate).generate(n)
    }

    fn static_fleet(
        configs: Vec<SimConfig>,
        fabric: Fabric,
        routing: RoutingPolicyKind,
        pairing: RoutingPolicyKind,
        trace: Vec<Request>,
    ) -> FleetEngine {
        let control = StaticControl::new(routing.build(5), pairing.build(0));
        FleetEngine::with_fabric(configs, fabric, Box::new(control), trace).unwrap()
    }

    /// A cluster: `configs` replicas behind `routing`, no KV links.
    fn cluster(
        configs: Vec<SimConfig>,
        routing: RoutingPolicyKind,
        trace: Vec<Request>,
    ) -> FleetEngine {
        let linkless = Fabric::fifo(Vec::new());
        static_fleet(configs, linkless, routing, LEAST_KV, trace)
    }

    fn fifo(gbps: f64) -> Fabric {
        Fabric::fifo(vec![LinkSpec::new(gbps, LinkSpec::cxl().latency_ns)])
    }

    /// A `prefill`x`decode` deployment: prefill replicas at fleet indices
    /// `0..P`, decode replicas at `P..P+D`.
    fn disagg_over(
        (prefill, decode): (usize, usize),
        fabric: Fabric,
        routing: RoutingPolicyKind,
        pairing: RoutingPolicyKind,
        trace: Vec<Request>,
    ) -> DisaggReport {
        let mut configs = vec![config().prefill_only(); prefill];
        configs.resize(prefill + decode, config().decode_only());
        let fleet = static_fleet(configs, fabric, routing, pairing, trace);
        DisaggReport::from_fleet(fleet.run(), prefill, pairing)
    }

    /// A deployment behind least-outstanding routing and least-KV pairing
    /// over one FIFO KV link of `gbps`.
    fn disagg(pools: (usize, usize), gbps: f64, trace: Vec<Request>) -> DisaggReport {
        disagg_over(pools, fifo(gbps), LOR, LEAST_KV, trace)
    }

    fn bursts() -> Vec<Request> {
        bursty_trace(&BurstyTraceSpec {
            bursts: 2,
            burst_size: 8,
            ..BurstyTraceSpec::default()
        })
    }

    #[test]
    fn single_replica_cluster_matches_standalone_simulator() {
        let t = alpaca(12, 40.0);
        let standalone = ServingSimulator::new(config(), t.clone()).unwrap().run();
        let cluster = ClusterReport::from(
            cluster(vec![config()], RoutingPolicyKind::RoundRobin, t).run(),
        );
        assert_eq!(cluster.total_completions(), standalone.completions.len());
        assert_eq!(cluster.makespan_ps(), standalone.sim_duration_ps);
        // Same requests, same finish times: the router layer is
        // transparent when there is nothing to balance.
        let mut a: Vec<_> = standalone.completions.clone();
        let mut b: Vec<_> = cluster.completions().cloned().collect();
        a.sort_by_key(|c| c.id);
        b.sort_by_key(|c| c.id);
        assert_eq!(a, b);
    }

    #[test]
    fn every_request_served_exactly_once_across_replicas() {
        for kind in RoutingPolicyKind::ALL {
            let report =
                ClusterReport::from(cluster(vec![config(); 3], kind, alpaca(30, 100.0)).run());
            let mut ids: Vec<u64> = report.completions().map(|c| c.id).collect();
            ids.sort_unstable();
            assert_eq!(ids, (0..30).collect::<Vec<u64>>(), "policy {kind}");
            assert_eq!(report.assignments.len(), 30);
        }
    }

    #[test]
    fn round_robin_spreads_requests_evenly() {
        let fleet =
            cluster(vec![config(); 4], RoutingPolicyKind::RoundRobin, alpaca(32, 100.0));
        for stats in ClusterReport::from(fleet.run()).per_replica() {
            assert_eq!(stats.routed_requests, 8);
        }
    }

    #[test]
    fn arrivals_route_before_later_replica_work() {
        // A burst at t=0 followed by a straggler: the straggler must be
        // routed when the fleet's virtual time reaches its arrival,
        // seeing queue depths that reflect the burst's progress.
        let mut t = alpaca(8, 1_000.0);
        t.push(Request::new(8, 64, 4, 2_000_000_000)); // 2 ms
        let mut sim = cluster(vec![config(); 2], LOR, t);
        while sim.step() {}
        assert_eq!(sim.assignments().len(), 9);
    }

    #[test]
    fn heterogeneous_replicas_carry_distinct_configs() {
        // Replica 0 batches freely; replica 1 is capped at one sequence.
        // Both serve, and each iteration trace reflects its own config.
        let configs = vec![config(), config().max_batch(1)];
        let sim = cluster(configs, RoutingPolicyKind::RoundRobin, alpaca(20, 2_000.0));
        assert!(sim.slots().iter().all(|s| s.role == ReplicaRole::Unified));
        let report = ClusterReport::from(sim.run());
        assert_eq!(report.total_completions(), 20);
        let max_batch = |r: usize| {
            report.replica_reports[r].iterations.iter().map(|it| it.batch_size).max().unwrap()
        };
        assert!(max_batch(0) > 1, "the roomy replica should batch under a burst");
        assert_eq!(max_batch(1), 1, "the capped replica must never exceed its limit");
    }

    #[test]
    fn decode_replicas_never_receive_fresh_arrivals() {
        let configs = vec![config(), config().decode_only()];
        let mut sim = cluster(configs, LOR, alpaca(10, 200.0));
        assert_eq!(sim.slots()[1].role, ReplicaRole::Decode);
        while sim.step() {}
        assert!(
            sim.assignments().iter().all(|&(_, replica)| replica == 0),
            "the decode replica took a fresh arrival"
        );
    }

    #[test]
    #[should_panic(expected = "need a KV-transfer link")]
    fn prefill_only_replicas_rejected_without_handoff() {
        // A linkless fleet would route arrivals to the prefill replica and
        // report them "complete" with one token — refuse loudly instead.
        let configs = vec![config().prefill_only(), config()];
        let _ = cluster(configs, RoutingPolicyKind::RoundRobin, alpaca(4, 100.0));
    }

    #[test]
    #[should_panic(expected = "endpoints but the fleet has")]
    fn mismatched_config_count_panics() {
        // A fabric routed for two endpoints cannot carry a third
        // replica's handoffs.
        let fabric = Fabric::fair("single", FabricGraph::single(2, LinkSpec::cxl()));
        let configs =
            vec![config().prefill_only(), config().decode_only(), config().decode_only()];
        static_fleet(configs, fabric, LOR, LEAST_KV, Vec::new());
    }

    #[test]
    fn replica_clocks_stay_interleaved() {
        let mut sim =
            cluster(vec![config(); 2], RoutingPolicyKind::RoundRobin, alpaca(16, 200.0));
        let mut max_skew = 0i128;
        while sim.step() {
            let clocks: Vec<TimePs> = sim.sims().iter().map(|r| r.clock_ps()).collect();
            // Busy replicas may drift apart by the length of the
            // iterations in flight, but the min-heap keeps them from
            // racing unboundedly ahead of one another.
            if sim.sims().iter().all(|r| r.next_ready_ps().is_some()) {
                let skew = clocks[0] as i128 - clocks[1] as i128;
                max_skew = max_skew.max(skew.abs());
            }
        }
        // Generous bound: a single gpt2 iteration is far below 50 ms.
        assert!(max_skew < 50_000_000_000, "skew {max_skew} ps");
    }

    #[test]
    fn every_request_prefills_transfers_and_decodes_once() {
        let trace = bursts();
        let report = disagg((2, 2), 128.0, trace.clone());
        assert_eq!(report.total_completions(), trace.len());
        let mut ids: Vec<u64> = report.completions.iter().map(|c| c.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), trace.len(), "duplicated or lost requests");
        for c in &report.completions {
            assert!(c.prefill_done_ps > c.arrival_ps, "request {}: acausal prefill", c.id);
            assert!(c.transfer_start_ps >= c.prefill_done_ps);
            assert!(c.transfer_done_ps > c.transfer_start_ps);
            assert!(c.first_token_ps > c.transfer_done_ps, "decode before KV arrived");
            assert!(c.finish_ps >= c.first_token_ps);
            assert_eq!(c.output_len, trace.iter().find(|r| r.id == c.id).unwrap().output_len);
        }
    }

    #[test]
    fn transfer_bytes_follow_prompt_length() {
        let per_token = ModelSpec::gpt2().kv_bytes_per_token();
        for c in &disagg((1, 1), 128.0, bursts()).completions {
            assert_eq!(c.kv_bytes, c.input_len as u64 * per_token);
        }
    }

    #[test]
    fn shared_link_serializes_transfers_fifo() {
        // A starved link forces queueing: transfers must never overlap,
        // and each starts no earlier than its prefill finished.
        let report = disagg((2, 1), 0.5, bursts());
        let mut transfers: Vec<_> = report
            .completions
            .iter()
            .map(|c| (c.transfer_start_ps, c.transfer_done_ps))
            .collect();
        transfers.sort_unstable();
        for pair in transfers.windows(2) {
            assert!(pair[0].1 <= pair[1].0, "transfers overlap on the shared link");
        }
    }

    #[test]
    fn link_serves_transfers_in_kv_ready_order() {
        // Two prefill replicas, mixed prompt sizes, a slow link: an
        // early-*started* heavy prefill must not jump the queue ahead of
        // a lighter prefill whose KV was *ready* first. Replaying the
        // link FIFO in ready order must reproduce every start time
        // exactly (no phantom queueing from event-discovery order).
        let trace = bursty_trace(&BurstyTraceSpec {
            bursts: 2,
            burst_size: 10,
            heavy_every: 2,
            ..BurstyTraceSpec::default()
        });
        let report =
            disagg_over((2, 2), fifo(2.0), RoutingPolicyKind::RoundRobin, LEAST_KV, trace);
        let mut by_ready: Vec<_> = report.completions.iter().collect();
        by_ready.sort_by_key(|c| (c.prefill_done_ps, c.id));
        let mut link_free = 0;
        for c in by_ready {
            assert_eq!(
                c.transfer_start_ps,
                c.prefill_done_ps.max(link_free),
                "request {}: transfer not served in KV-ready order",
                c.id
            );
            link_free = c.transfer_done_ps;
        }
    }

    #[test]
    fn fair_single_fabric_serves_every_request_causally() {
        // Same deployment, but the wire is a fair-sharing flow model:
        // transfers enter the fabric the moment their KV is ready (no
        // FIFO queueing) and deliveries stay causal.
        let link = LinkSpec::new(2.0, LinkSpec::cxl().latency_ns);
        let fabric = Fabric::fair("single", FabricGraph::single(4, link));
        let report = disagg_over((2, 2), fabric, LOR, LEAST_KV, bursts());
        assert_eq!(report.total_completions(), bursts().len());
        for c in &report.completions {
            assert_eq!(
                c.transfer_start_ps, c.prefill_done_ps,
                "request {}: a fair fabric admits flows at their ready time",
                c.id
            );
            assert!(c.transfer_done_ps > c.transfer_start_ps);
            assert!(c.first_token_ps > c.transfer_done_ps, "decode before KV arrived");
        }
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let sig = |report: &DisaggReport| {
            report
                .completions
                .iter()
                .map(|c| (c.id, c.prefill_done_ps, c.transfer_done_ps, c.finish_ps))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            sig(&disagg((2, 2), 128.0, bursts())),
            sig(&disagg((2, 2), 128.0, bursts()))
        );
    }

    #[test]
    fn sticky_pairing_follows_request_id() {
        let sticky = RoutingPolicyKind::Sticky;
        for c in &disagg_over((1, 3), fifo(128.0), LOR, sticky, bursts()).completions {
            assert_eq!(c.decode_replica as u64, c.id % 3);
        }
    }

    #[test]
    fn pairing_policies_are_selectable_and_complete() {
        for pairing in RoutingPolicyKind::ALL {
            let report = disagg_over((1, 2), fifo(128.0), LOR, pairing, bursts());
            assert_eq!(report.total_completions(), 16, "pairing {pairing}");
            assert_eq!(report.pairing, pairing.as_str());
        }
    }

    #[test]
    fn decode_pool_overlaps_transfers_with_execution() {
        // With a slow link and several requests, some decode iterations
        // must run while later transfers are still in flight — the
        // whole point of overlapping the handoff in virtual time.
        let report = disagg((1, 1), 1.0, bursts());
        let overlapped = report.decode_reports[0].iterations.iter().any(|it| {
            report
                .completions
                .iter()
                .any(|c| it.start_ps < c.transfer_done_ps && c.transfer_start_ps < it.start_ps)
        });
        assert!(overlapped, "no decode iteration overlapped an in-flight transfer");
    }

    #[test]
    fn pairing_kind_round_trips_through_str() {
        // Pairing speaks the routing vocabulary: every spelling the
        // pairing key has always taken still names the same policy.
        for (spelling, kind) in [
            ("least-kv", RoutingPolicyKind::LeastKvLoad),
            ("kv", RoutingPolicyKind::LeastKvLoad),
            ("least-outstanding", LOR),
            ("lor", LOR),
            ("sticky", RoutingPolicyKind::Sticky),
        ] {
            assert_eq!(spelling.parse::<RoutingPolicyKind>(), Ok(kind));
        }
    }

    #[test]
    #[should_panic(expected = "same model")]
    fn mismatched_models_rejected() {
        // The KV bytes-per-token of the shipped caches must agree.
        let gpt3 = SimConfig::new(ModelSpec::gpt3_7b()).npu_num(4).tensor_parallel();
        let configs = vec![config().prefill_only(), gpt3.decode_only()];
        static_fleet(configs, fifo(128.0), LOR, LEAST_KV, Vec::new());
    }
}
