//! The fleet engine: one virtual-time event loop for every serving
//! shape, a single replica (a one-replica static fleet) included.
//!
//! A [`FleetEngine`] owns a vector of replica slots (each a
//! [`ServingSimulator`] plus a [`ReplicaRole`] and its own
//! [`SimConfig`]), a set of inter-replica KV-transfer [`LinkSpec`]s, and
//! a [`ControlPlane`]. Replicas interact only at *barriers*; each step
//! either runs a window of replica iterations strictly before the next
//! barrier or handles that barrier's event:
//!
//! * **request arrival** — the control plane reads a lazy
//!   [`Candidates`] view of the replicas whose role accepts arrivals,
//!   capturing load snapshots only where its policy looks, and admits
//!   the request ([`ControlPlane::admit`]);
//! * **replica iteration** — a replica whose next iteration starts at
//!   the barrier runs it alone. Every prefill-role iteration is a
//!   barrier (it can finish prefills), and its fresh completions queue
//!   for KV handoff;
//! * **KV transfer** — finished prefills are committed to the links in
//!   KV-ready order (FIFO by readiness, never by event-discovery order),
//!   paired to a decode replica ([`ControlPlane::pair`]), and injected
//!   there at transfer completion;
//! * **control tick** — on a configurable virtual-time period the
//!   control plane sees a [`FleetStats`] view and may flex roles or
//!   scale the fleet ([`FleetCommand`]), always under drain semantics;
//! * **fault** and **fabric event** — chaos transitions and fair-fabric
//!   flow deliveries.
//!
//! A single replica, a routed cluster and a disaggregated deployment are
//! configurations of this engine (a router is an admission-side
//! control-plane decision; disaggregation is role-filtered admission
//! plus KV-transfer links); flexing and autoscaling are just different
//! control planes.

use std::collections::{BTreeMap, VecDeque};

use llmss_net::LinkSpec;
use llmss_sched::{Request, TimePs};

use crate::chaos::{ChaosSchedule, FaultEvent, ReplicaFaultKind, ResilienceStats, RetryPolicy};
use crate::fabric::{Fabric, FabricCommit, FabricStats};
use crate::telemetry::{SimEvent, Telemetry};
use crate::{ConfigError, ServingSimulator, SimConfig, Simulate};

use super::control::{ControlPlane, FleetCommand, FleetStats, ReplicaStatus};
use super::heap::ReadyHeap;
use super::report::{FleetReplica, FleetReport};
use super::route::{Candidates, ReplicaRole, ReplicaSnapshot};

/// One committed KV handoff, in fleet-global replica indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetTransfer {
    /// Prefill-side replica (global index).
    pub from: usize,
    /// Decode-side replica (global index).
    pub to: usize,
    /// Link that carried the transfer (FIFO: the booked link; fair: the
    /// flow's bottleneck link, provisional until delivery).
    pub link: usize,
    /// When the KV cache was ready to ship (end of prefill).
    pub ready_ps: TimePs,
    /// When the transfer won its link (fair: entered the fabric).
    pub start_ps: TimePs,
    /// When the KV cache landed on the decode replica. A fair-mode
    /// transfer still in flight holds [`TimePs::MAX`] until delivery.
    pub done_ps: TimePs,
    /// Uncontended transfer time (no queueing, no sharing) — the
    /// denominator of the contention metric.
    pub nominal_ps: TimePs,
    /// Bytes shipped (prompt tokens × KV bytes per token).
    pub bytes: u64,
}

impl FleetTransfer {
    /// The contention slowdown: end-to-end transfer time (queueing and
    /// bandwidth sharing included) over the uncontended nominal. 1.0
    /// means the wire was all ours; `None` until delivered or for
    /// zero-nominal transfers.
    pub fn contention(&self) -> Option<f64> {
        if self.done_ps == TimePs::MAX || self.nominal_ps == 0 {
            return None;
        }
        Some((self.done_ps - self.ready_ps) as f64 / self.nominal_ps as f64)
    }
}

/// Deterministic counts of the fleet loop's own work — where the engine
/// spends its steps, windows, threads and snapshots
/// ([`FleetEngine::work`]). No report or artifact includes them. Each
/// count depends only on the run's inputs and, for the two thread
/// counts, on the host's parallelism, which caps a window's threads;
/// never on thread timing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetWork {
    /// Steps that handled a barrier event, the final drained step
    /// included.
    pub barrier_steps: u64,
    /// Steps that ran a window.
    pub windows: u64,
    /// Replicas stepped inside windows, summed over windows.
    pub window_members: u64,
    /// Windows that started helper threads.
    pub threaded_windows: u64,
    /// Helper threads started, summed over windows (the thread that
    /// calls [`FleetEngine::step`] is not counted).
    pub helper_threads: u64,
    /// Replica snapshots captured: through the [`Candidates`] views of
    /// admissions and pairings, and one per replica for each control
    /// tick's [`FleetStats`].
    pub snapshots: u64,
}

/// Per-replica engine metadata: everything about a slot that is not the
/// simulator itself (stored struct-of-arrays so `sims` stays a plain
/// slice for inspection APIs).
#[derive(Debug)]
pub struct ReplicaSlot {
    /// The replica's own configuration (autoscale clones the template's).
    pub config: SimConfig,
    /// Current serving role.
    pub role: ReplicaRole,
    /// The role the replica was created with (flexing returns here).
    pub home_role: ReplicaRole,
    /// A role switch waiting on drain.
    pub pending_role: Option<ReplicaRole>,
    /// Virtual time from which the replica admits work (warm-up).
    pub active_from_ps: TimePs,
    /// Draining toward deactivation (autoscale down).
    pub retiring: bool,
    /// Fresh arrivals routed here.
    pub routed: usize,
    /// KV handoffs paired to this replica.
    pub paired: usize,
    /// Completions already drained for KV handoff (index into the
    /// scheduler's completion list).
    handed_off: usize,
    /// `(busy_ps, clock_ps)` at the previous control tick — the
    /// utilization-window baseline.
    window_base: (TimePs, TimePs),
}

impl ReplicaSlot {
    fn new(config: SimConfig) -> Self {
        let role = ReplicaRole::from(config.mode);
        Self {
            config,
            role,
            home_role: role,
            pending_role: None,
            active_from_ps: 0,
            retiring: false,
            routed: 0,
            paired: 0,
            handed_off: 0,
            window_base: (0, 0),
        }
    }

    /// Whether the slot currently takes part in serving.
    pub fn in_service(&self) -> bool {
        !self.retiring && self.pending_role.is_none()
    }
}

/// Live fault-injection state: the compiled schedule plus every counter
/// the resilience report aggregates. Every engine carries one; until
/// [`FleetEngine::set_chaos`] arms it, it holds no events and no
/// replica is ever down, so a chaos-free engine keeps its event order
/// (and all goldens) byte-identical.
#[derive(Debug)]
struct ChaosState {
    /// Whether [`FleetEngine::set_chaos`] installed a schedule (even an
    /// empty one): armed fleets report a resilience section, and may
    /// run out of admission or pairing candidates.
    armed: bool,
    /// Remaining fault transitions, earliest first.
    events: VecDeque<FaultEvent>,
    /// Retry policy for knocked-out requests.
    retry: RetryPolicy,
    /// Per-replica active fault (`None` = healthy).
    down: Vec<Option<ReplicaFaultKind>>,
    /// Original bandwidth to restore per degraded link.
    link_restore: Vec<Option<f64>>,
    /// Retry attempts consumed per request id.
    attempts: BTreeMap<u64, u32>,
    /// First-admission arrival per retried request (report latencies
    /// span the whole retry chain).
    original_arrival: BTreeMap<u64, TimePs>,
    /// `(id, reason)` for every abandoned request, in event order.
    abandoned: Vec<(u64, String)>,
    /// Retry admissions performed.
    retried: usize,
    /// Fault windows that actually struck.
    faults_injected: usize,
    /// KV bytes destroyed by crashes.
    kv_bytes_lost: u64,
    /// `request id -> fault time` for prefills a crash destroyed.
    lost_prefill: BTreeMap<u64, TimePs>,
    /// When each replica's current crash/hang window opened.
    down_since: Vec<Option<TimePs>>,
    /// Accumulated per-replica downtime.
    downtime: Vec<TimePs>,
    /// Closed `(start, end)` outage windows.
    fault_windows: Vec<(TimePs, TimePs)>,
}

impl ChaosState {
    fn new(schedule: ChaosSchedule, armed: bool, replicas: usize, links: usize) -> Self {
        Self {
            armed,
            events: schedule.compile(),
            retry: schedule.retry,
            down: vec![None; replicas],
            link_restore: vec![None; links],
            attempts: BTreeMap::new(),
            original_arrival: BTreeMap::new(),
            abandoned: Vec::new(),
            retried: 0,
            faults_injected: 0,
            kv_bytes_lost: 0,
            lost_prefill: BTreeMap::new(),
            down_since: vec![None; replicas],
            downtime: vec![0; replicas],
            fault_windows: Vec::new(),
        }
    }

    /// Spends one retry attempt on request `id`, returning its number.
    fn next_attempt(&mut self, id: u64) -> u32 {
        let attempt = self.attempts.entry(id).or_insert(0);
        *attempt += 1;
        *attempt
    }

    /// The resilience report section at final clock `clock`, or `None`
    /// when no schedule was ever armed. A fault window still open at
    /// the end of the run counts as downtime up to the final clock.
    fn into_stats(mut self, clock: TimePs) -> Option<ResilienceStats> {
        if !self.armed {
            return None;
        }
        for i in 0..self.down_since.len() {
            if let Some(since) = self.down_since[i].take() {
                self.downtime[i] += clock.max(since) - since;
                self.fault_windows.push((since, clock.max(since)));
            }
        }
        let mut lost_prefills: Vec<(u64, TimePs)> = self.lost_prefill.into_iter().collect();
        lost_prefills.sort_unstable();
        let mut original_arrivals: Vec<(u64, TimePs)> =
            self.original_arrival.into_iter().collect();
        original_arrivals.sort_unstable();
        self.fault_windows.sort_unstable();
        Some(ResilienceStats {
            faults_injected: self.faults_injected,
            requests_retried: self.retried,
            requests_abandoned: self.abandoned.len(),
            abandoned: self.abandoned,
            kv_bytes_lost: self.kv_bytes_lost,
            lost_prefills,
            original_arrivals,
            downtime: self.downtime,
            fault_windows: self.fault_windows,
        })
    }
}

/// A heterogeneous fleet of serving replicas behind a control plane,
/// advanced in one virtual-time event loop.
#[derive(Debug)]
pub struct FleetEngine {
    sims: Vec<ServingSimulator>,
    slots: Vec<ReplicaSlot>,
    fabric: Fabric,
    control: Box<dyn ControlPlane>,
    /// Global arrival stream, earliest first (online injection source).
    arrivals: VecDeque<Request>,
    /// Original requests by id (handoffs need input/output lengths);
    /// only maintained when the fleet has links.
    requests: BTreeMap<u64, Request>,
    /// Finished prefills whose transfers haven't committed to the
    /// fabric yet: `(KV-ready time, request id, prefill replica)`,
    /// earliest first. The tuple order is the commit order contract:
    /// transfers commit by KV-ready time, and *equal* ready times
    /// commit in request-id order — explicitly, by the tuple's second
    /// field, never by heap insertion or event-discovery order.
    pending: std::collections::BinaryHeap<std::cmp::Reverse<(TimePs, u64, usize)>>,
    /// Committed transfers by request id.
    transfers: BTreeMap<u64, FleetTransfer>,
    /// `(request id, replica index)` in admission order.
    assignments: Vec<(u64, usize)>,
    /// Replica ready-times with lazy invalidation.
    heap: ReadyHeap,
    /// KV bytes shipped per prompt token (0 without links).
    kv_bytes_per_token: u64,
    /// The control tick period, if the plane wants ticks.
    tick_ps: Option<TimePs>,
    /// The next tick boundary.
    next_tick_ps: TimePs,
    /// Prefill completions handed off so far (end-to-end completion
    /// accounting subtracts these).
    handoffs_total: usize,
    /// Fleet-level event sink handle (off by default; replicas carry
    /// their own per-index handles).
    telemetry: Telemetry,
    /// Worker-thread budget for windows (1 = inline); outcomes are
    /// byte-identical under any value.
    shards: usize,
    /// The fleet-wide reuse tier, when
    /// [`enable_shared_cache`](Self::enable_shared_cache) armed it.
    shared: Option<crate::SharedReuse>,
    /// Scratch: replica indices runnable inside the current window
    /// (kept on the engine to reuse its allocation across windows).
    window: Vec<usize>,
    /// Scratch: the replica indices offered to the current admission or
    /// pairing (kept on the engine to reuse its allocation, like
    /// `window`).
    offered: Vec<usize>,
    /// The fleet loop's work counters.
    work: FleetWork,
    /// Replicas that ran iterations since the last publish point —
    /// exactly the set whose `fresh` shared-cache buffers can be
    /// non-empty. Publishing walks only these (ascending), not the
    /// whole fleet: at planet scale the full-fleet pointer chase costs
    /// more than the simulation itself.
    dirty: Vec<usize>,
    /// Live count of prefill-role slots, maintained across role
    /// switches and scale-ups. Zero on every cluster fleet, which lets
    /// the window collector skip the O(replicas) role scan and drain
    /// members straight off the heap.
    prefill_slots: usize,
    /// Fault-injection state; unarmed (the default) it leaves every
    /// code path byte-identical to a chaos-free engine.
    chaos: ChaosState,
    /// Sanitizer mirror of each replica's last observed virtual clock:
    /// a replica's clock must never run backwards across `step()`.
    #[cfg(feature = "sanitize")]
    sanitize_clocks: Vec<TimePs>,
    /// Sanitizer mirror of the last committed `(ready time, request id)`:
    /// the commit-order contract on `pending` (KV-ready time, then
    /// request id) must hold globally, across commit passes.
    #[cfg(feature = "sanitize")]
    sanitize_last_commit: Option<(TimePs, u64)>,
}

impl FleetEngine {
    /// Builds a fleet from per-replica configurations (roles derive from
    /// each configuration's scheduler mode), KV-transfer links, a control
    /// plane, and a global request trace.
    ///
    /// The trace is *not* pre-partitioned: requests are injected online,
    /// at their arrival times, into the replica the control plane admits
    /// them to.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when any replica configuration cannot be
    /// realized (invalid parallelism, model does not fit, ...).
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty; if a prefill-role replica exists
    /// without any link to ship its KV caches over; or if replicas serve
    /// different models while links exist (the KV bytes-per-token of the
    /// shipped caches must agree).
    pub fn new(
        configs: Vec<SimConfig>,
        links: Vec<LinkSpec>,
        control: Box<dyn ControlPlane>,
        trace: Vec<Request>,
    ) -> Result<Self, ConfigError> {
        Self::with_fabric(configs, Fabric::fifo(links), control, trace)
    }

    /// Builds a fleet whose KV transfers cross an explicit [`Fabric`]
    /// (topology + sharing discipline) instead of the default FIFO
    /// links. [`new`](Self::new) is exactly
    /// `with_fabric(configs, Fabric::fifo(links), ...)`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when any replica configuration cannot be
    /// realized.
    ///
    /// # Panics
    ///
    /// As [`new`](Self::new); additionally panics when a routed fabric
    /// covers fewer endpoints than the fleet has replicas.
    pub fn with_fabric(
        configs: Vec<SimConfig>,
        fabric: Fabric,
        control: Box<dyn ControlPlane>,
        mut trace: Vec<Request>,
    ) -> Result<Self, ConfigError> {
        assert!(!configs.is_empty(), "a fleet needs at least one replica");
        let has_prefill =
            configs.iter().any(|c| ReplicaRole::from(c.mode) == ReplicaRole::Prefill);
        assert!(
            !has_prefill || fabric.has_links(),
            "prefill-role replicas need a KV-transfer link to ship caches over"
        );
        if let Some(endpoints) = fabric.endpoints() {
            assert!(
                endpoints >= configs.len(),
                "the fabric routes {endpoints} endpoints but the fleet has {} replicas",
                configs.len()
            );
        }
        let kv_bytes_per_token = if !fabric.has_links() {
            0
        } else {
            let per_token = configs[0].model.kv_bytes_per_token();
            assert!(
                configs.iter().all(|c| c.model.name == configs[0].model.name),
                "all replicas of a linked fleet must serve the same model"
            );
            per_token
        };

        let mut sims = Vec::with_capacity(configs.len());
        let mut slots = Vec::with_capacity(configs.len());
        for config in configs {
            sims.push(ServingSimulator::from_config(&config, Vec::new())?);
            slots.push(ReplicaSlot::new(config));
        }

        trace.sort_by_key(|r| (r.arrival_ps, r.id));
        let requests = if !fabric.has_links() {
            BTreeMap::new()
        } else {
            trace.iter().map(|r| (r.id, *r)).collect()
        };
        let tick_ps = control.tick_ps();
        assert!(tick_ps != Some(0), "a control tick period must be positive");
        let chaos =
            ChaosState::new(ChaosSchedule::new(), false, sims.len(), fabric.link_count());
        Ok(Self {
            heap: ReadyHeap::new(sims.len()),
            fabric,
            control,
            arrivals: trace.into(),
            requests,
            pending: std::collections::BinaryHeap::new(),
            transfers: BTreeMap::new(),
            assignments: Vec::new(),
            kv_bytes_per_token,
            next_tick_ps: tick_ps.unwrap_or(0),
            tick_ps,
            handoffs_total: 0,
            telemetry: Telemetry::off(),
            shards: 1,
            shared: None,
            window: Vec::new(),
            offered: Vec::new(),
            work: FleetWork::default(),
            dirty: Vec::new(),
            prefill_slots: slots.iter().filter(|s| s.role == ReplicaRole::Prefill).count(),
            chaos,
            #[cfg(feature = "sanitize")]
            sanitize_clocks: vec![0; sims.len()],
            #[cfg(feature = "sanitize")]
            sanitize_last_commit: None,
            sims,
            slots,
        })
    }

    /// Installs and arms a fault-injection schedule. Faults targeting
    /// replicas or links the fleet never materializes are skipped
    /// silently at their fire time. An armed fleet reports a resilience
    /// section (all zeros for an empty schedule) and defers or abandons
    /// work that finds no live replica, where an unarmed fleet treats
    /// that as a bug. Not calling this keeps the engine byte-identical
    /// to a chaos-free build.
    pub fn set_chaos(&mut self, schedule: ChaosSchedule) {
        self.chaos = ChaosState::new(schedule, true, self.sims.len(), self.fabric.link_count());
    }

    /// Sets the thread budget of a window: the replicas runnable strictly
    /// before the next barrier step on up to `shards` threads, the
    /// calling thread included, capped by the host's parallelism, and at
    /// one while a telemetry sink is attached (the shared sink must
    /// record in a deterministic order). A window starts helper threads
    /// only when every thread, the calling one included, gets at least
    /// two members, so windows of one to three replicas always step
    /// inline. Only wall-clock time depends on it: outcomes are
    /// byte-identical under any value. `1` (the default) runs every
    /// window inline; `0` is treated as `1`.
    pub fn set_shards(&mut self, shards: usize) {
        self.shards = shards.max(1);
    }

    /// The configured thread budget of a window.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The fleet loop's work so far: barrier steps, windows and their
    /// members, threaded windows and helper threads, and replica
    /// snapshots captured ([`FleetWork`]).
    pub fn work(&self) -> FleetWork {
        self.work
    }

    /// Arms the fleet-wide shared reuse cache: every replica keeps its
    /// private iteration/op cache tiers but, on a local miss, consults
    /// a shared store namespaced by configuration fingerprint — so N
    /// homogeneous replicas pay one cold miss per signature instead of
    /// N. Fresh entries publish at engine-step boundaries in
    /// replica-index order (first write wins), keeping hit/miss
    /// counters byte-deterministic under any shard count.
    pub fn enable_shared_cache(&mut self) {
        let shared = self.shared.get_or_insert_with(crate::SharedReuse::new).clone();
        // Homogeneous fleets repeat one config: fingerprint each run of
        // equal configs once.
        let mut previous: Option<(&SimConfig, u64)> = None;
        for (sim, slot) in self.sims.iter_mut().zip(&self.slots) {
            let fingerprint = match previous {
                Some((config, fingerprint)) if *config == slot.config => fingerprint,
                _ => slot.config.fingerprint(),
            };
            previous = Some((&slot.config, fingerprint));
            sim.attach_shared_reuse(shared.clone(), fingerprint);
        }
    }

    /// Attaches an event sink to the whole fleet: every replica gets a
    /// handle stamped with its index, the fabric reports flow events,
    /// and the engine itself emits arrival/admission, transfer, and
    /// control-plane events. Emits one `ReplicaActivated` per existing
    /// replica so consumers know the starting fleet.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        for (i, sim) in self.sims.iter_mut().enumerate() {
            sim.set_telemetry(telemetry.for_replica(i));
        }
        self.fabric.set_telemetry(telemetry.clone());
        for (i, slot) in self.slots.iter().enumerate() {
            telemetry.emit(|| SimEvent::ReplicaActivated {
                t_ps: 0,
                replica: i,
                admit_from_ps: slot.active_from_ps,
            });
        }
        self.telemetry = telemetry;
    }

    /// The replica simulators, by fleet index (for inspection between
    /// steps).
    pub fn sims(&self) -> &[ServingSimulator] {
        &self.sims
    }

    /// The replica slots (role, lifecycle, routing counters), by fleet
    /// index.
    pub fn slots(&self) -> &[ReplicaSlot] {
        &self.slots
    }

    /// `(request id, replica)` admissions made so far, in routing order.
    pub fn assignments(&self) -> &[(u64, usize)] {
        &self.assignments
    }

    /// Committed KV transfers by request id.
    pub fn transfers(&self) -> &BTreeMap<u64, FleetTransfer> {
        &self.transfers
    }

    /// Replicas currently part of the serving fleet (not retiring).
    pub fn active_replicas(&self) -> usize {
        self.slots.iter().filter(|s| !s.retiring).count()
    }

    /// Injects one request online: it queues at the front end and is
    /// admitted when the fleet's virtual time reaches its arrival
    /// (immediately, if time is already past it).
    pub fn push_request(&mut self, request: Request) {
        if self.fabric.has_links() {
            self.requests.insert(request.id, request);
        }
        self.enqueue_arrival(request);
    }

    /// Queues `request` at the front end, keeping the arrival stream
    /// sorted by `(arrival time, id)`; equal keys queue after the ones
    /// already present.
    fn enqueue_arrival(&mut self, request: Request) {
        let key = (request.arrival_ps, request.id);
        let pos = self.arrivals.partition_point(|r| (r.arrival_ps, r.id) <= key);
        self.arrivals.insert(pos, request);
    }

    /// The earliest virtual time the next [`step`](Self::step) would act
    /// (an arrival to admit, a replica iteration, or a pending KV
    /// transfer), or `None` when the fleet has fully drained.
    pub fn next_ready_ps(&self) -> Option<TimePs> {
        let replica_ready = self.heap.peek().map(|(t, _)| t);
        let arrival = self.arrivals.front().map(|r| r.arrival_ps);
        let transfer = self.pending.peek().map(|&std::cmp::Reverse((t, _, _))| t);
        let fabric = self.fabric.next_event_ps();
        let fault = self.next_fault_ps();
        [replica_ready, arrival, transfer, fabric, fault].into_iter().flatten().min()
    }

    /// The next pending fault transition, if any.
    fn next_fault_ps(&self) -> Option<TimePs> {
        self.chaos.events.front().map(FaultEvent::t_ps)
    }

    /// The fleet's virtual clock: the furthest replica clock.
    pub fn clock_ps(&self) -> TimePs {
        self.sims.iter().map(ServingSimulator::clock_ps).max().unwrap_or(0)
    }

    /// Requests that finished their full lifecycle (prefill-side handoff
    /// completions are bookkeeping, not served requests).
    pub fn completed_requests(&self) -> usize {
        let total: usize = self.sims.iter().map(|s| s.scheduler().completions().len()).sum();
        total - self.handoffs_total
    }

    /// Re-keys `replica` in the heap after a mutation.
    fn refresh(&mut self, replica: usize) {
        self.heap.refresh(replica, self.sims[replica].next_ready_ps());
    }

    /// The fleet-wide control view at virtual time `now`.
    fn stats(&self, now: TimePs) -> FleetStats {
        let replicas = (0..self.sims.len())
            .map(|i| {
                let slot = &self.slots[i];
                let busy = self.sims[i].busy_ps();
                let (base_busy, base_clock) = slot.window_base;
                let window = now.saturating_sub(base_clock);
                // A drained retired replica executes nothing: clamp to 0
                // instead of replaying its last live window forever.
                let drained = slot.retiring && self.sims[i].scheduler().outstanding() == 0;
                let util_window = if window == 0 || drained {
                    0.0
                } else {
                    (busy.saturating_sub(base_busy)) as f64 / window as f64
                };
                let fault = self.chaos.down[i];
                ReplicaStatus {
                    snapshot: ReplicaSnapshot::capture(&self.sims[i], i, slot.role),
                    home_role: slot.home_role,
                    pending_role: slot.pending_role,
                    active_from_ps: slot.active_from_ps,
                    retiring: slot.retiring,
                    busy_ps: busy,
                    util_window,
                    dead: fault == Some(ReplicaFaultKind::Crash),
                    degraded: matches!(
                        fault,
                        Some(ReplicaFaultKind::Hang | ReplicaFaultKind::Drain)
                    ),
                }
            })
            .collect();
        // Only arrivals that have actually reached the front end by
        // `now` are backlog; the rest of the deque is the future of the
        // trace, which a control plane (like a real front-end) must
        // never see. The deque is arrival-sorted, so the backlog is a
        // prefix.
        let queued_arrivals = self.arrivals.iter().take_while(|r| r.arrival_ps <= now).count();
        FleetStats {
            clock_ps: now,
            replicas,
            queued_arrivals,
            pending_transfers: self.pending.len(),
        }
    }

    /// Applies one control command under drain semantics.
    fn apply(&mut self, command: FleetCommand, now: TimePs) {
        self.telemetry
            .emit(|| SimEvent::Command { t_ps: now, command: format!("{command:?}") });
        match command {
            FleetCommand::SetRole { replica, role } => {
                assert!(replica < self.sims.len(), "SetRole names replica {replica}");
                assert!(
                    role != ReplicaRole::Prefill || self.fabric.has_links(),
                    "cannot flex to the prefill role without a KV-transfer link"
                );
                let slot = &mut self.slots[replica];
                if slot.role == role {
                    slot.pending_role = None;
                    return;
                }
                slot.pending_role = Some(role);
                self.try_apply_pending_role(replica);
            }
            FleetCommand::ScaleUp { template, warmup_ps } => {
                assert!(template < self.sims.len(), "ScaleUp names template {template}");
                let active_from = now.saturating_add(warmup_ps);
                // Reactivate a drained retired replica before growing the
                // fleet vector: cheaper, and keeps indices dense.
                if let Some(idx) = (0..self.slots.len()).find(|&i| {
                    self.slots[i].retiring
                        && self.slots[i].pending_role.is_none()
                        && self.sims[i].scheduler().outstanding() == 0
                        // A faulted replica cannot answer a backfill.
                        && self.chaos.down[i].is_none()
                }) {
                    self.slots[idx].retiring = false;
                    self.slots[idx].active_from_ps = active_from;
                    self.telemetry.emit(|| SimEvent::ReplicaActivated {
                        t_ps: now,
                        replica: idx,
                        admit_from_ps: active_from,
                    });
                    return;
                }
                let config = self.slots[template].config.clone();
                #[expect(
                    clippy::expect_used,
                    reason = "the template's configuration already built its own replica, and building is deterministic"
                )]
                let mut sim = ServingSimulator::from_config(&config, Vec::new())
                    .expect("the template configuration was already realized once");
                let index = self.sims.len();
                sim.set_telemetry(self.telemetry.for_replica(index));
                if let Some(shared) = &self.shared {
                    sim.attach_shared_reuse(shared.clone(), config.fingerprint());
                }
                self.sims.push(sim);
                let mut slot = ReplicaSlot::new(config);
                slot.active_from_ps = active_from;
                if slot.role == ReplicaRole::Prefill {
                    self.prefill_slots += 1;
                }
                self.slots.push(slot);
                self.heap.grow();
                #[cfg(feature = "sanitize")]
                self.sanitize_clocks.push(0);
                self.chaos.down.push(None);
                self.chaos.down_since.push(None);
                self.chaos.downtime.push(0);
                self.telemetry.emit(|| SimEvent::ReplicaActivated {
                    t_ps: now,
                    replica: index,
                    admit_from_ps: active_from,
                });
            }
            FleetCommand::ScaleDown { replica } => {
                assert!(replica < self.sims.len(), "ScaleDown names replica {replica}");
                if !self.slots[replica].retiring {
                    self.telemetry.emit(|| SimEvent::ReplicaRetired { t_ps: now, replica });
                }
                self.slots[replica].retiring = true;
            }
        }
    }

    /// Completes a deferred role switch once the replica has drained.
    fn try_apply_pending_role(&mut self, replica: usize) {
        let Some(role) = self.slots[replica].pending_role else { return };
        if self.sims[replica].scheduler().outstanding() > 0 {
            return;
        }
        self.sims[replica].set_mode(role.scheduler_mode());
        self.telemetry.emit(|| SimEvent::RoleApplied {
            t_ps: self.sims[replica].clock_ps(),
            replica,
            role: role.to_string(),
        });
        let slot = &mut self.slots[replica];
        match (slot.role == ReplicaRole::Prefill, role == ReplicaRole::Prefill) {
            (true, false) => self.prefill_slots -= 1,
            (false, true) => self.prefill_slots += 1,
            _ => {}
        }
        slot.role = role;
        slot.pending_role = None;
        // Completions produced under the old role are not handoffs of the
        // new one.
        slot.handed_off = self.sims[replica].scheduler().completions().len();
    }

    /// Fires every control tick due before the next event at `horizon`,
    /// applying the commands each produces.
    fn fire_due_ticks(&mut self, horizon: TimePs) {
        let Some(tick) = self.tick_ps else { return };
        while self.next_tick_ps <= horizon {
            let now = self.next_tick_ps;
            let stats = self.stats(now);
            self.work.snapshots += stats.replicas.len() as u64;
            self.telemetry.emit(|| SimEvent::Tick {
                t_ps: now,
                live_replicas: self.slots.iter().filter(|s| !s.retiring).count(),
                queued_arrivals: stats.queued_arrivals,
                pending_transfers: stats.pending_transfers,
            });
            let commands = self.control.on_tick(&stats);
            for command in commands {
                self.apply(command, now);
            }
            // Reset every utilization window at the tick boundary.
            for i in 0..self.sims.len() {
                self.slots[i].window_base = (self.sims[i].busy_ps(), now);
            }
            self.next_tick_ps += tick;
        }
    }

    /// Queues any prefills replica `index` just finished for transfer.
    /// Links are *not* booked here: events are discovered in
    /// iteration-start order, so an earlier-ready transfer from another
    /// replica may still surface — booking waits until it can happen in
    /// KV-ready order ([`commit_ready_transfers`](Self::step)).
    fn hand_off_finished_prefills(&mut self, index: usize) {
        let completions = self.sims[index].scheduler().completions();
        let first_fresh = self.slots[index].handed_off;
        self.slots[index].handed_off = completions.len();
        for done in &completions[first_fresh..] {
            self.pending.push(std::cmp::Reverse((done.finish_ps, done.id, index)));
            self.handoffs_total += 1;
            self.telemetry.emit(|| SimEvent::TransferQueued {
                t_ps: done.finish_ps,
                id: done.id,
                from: index,
            });
        }
    }

    /// The earliest virtual time at which a *new* transfer could still
    /// become ready: any future prefill completion lands strictly after
    /// its replica's next event, and any unadmitted arrival strictly
    /// after its arrival time.
    fn transfer_horizon(&self) -> TimePs {
        let mut horizon = self.arrivals.front().map_or(TimePs::MAX, |r| r.arrival_ps);
        for (i, sim) in self.sims.iter().enumerate() {
            if self.slots[i].role != ReplicaRole::Prefill {
                continue;
            }
            if let Some(t) = sim.next_ready_ps() {
                horizon = horizon.min(t);
            }
        }
        horizon
    }

    /// Commits pending transfers to the fabric in KV-ready order (ties
    /// on the ready time commit in request-id order — the `pending`
    /// tuple contract), pairs each to a decode replica through the
    /// control plane, and hands the bytes to the fabric. Under the FIFO
    /// discipline the booking resolves immediately and the request is
    /// injected with its transfer-completion arrival; under fair
    /// sharing the transfer stays in flight and the injection waits for
    /// [`deliver_fabric_events`](Self::step). The decode pool keeps
    /// executing underneath — only the shipped request waits on the
    /// wire.
    fn commit_ready_transfers(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let mut horizon = self.transfer_horizon();
        if let Some(ft) = self.next_fault_ps() {
            // Faults win ties: a transfer ready exactly at a fault
            // transition commits after the fault applies.
            horizon = horizon.min(ft.saturating_sub(1));
        }
        if self.chaos.armed && self.fabric.fully_partitioned() {
            // No link can carry KV right now. Park every due transfer at
            // the next fault transition (schedule validation guarantees a
            // partition recovers); link faults spend no retry budget.
            #[expect(
                clippy::expect_used,
                reason = "ChaosSchedule::compile rejects a link partition without a recovery event"
            )]
            let next = self
                .next_fault_ps()
                .expect("a full partition always has a pending recovery event");
            let mut parked = Vec::new();
            while let Some(&std::cmp::Reverse((ready_ps, id, from))) = self.pending.peek() {
                if ready_ps > horizon {
                    break;
                }
                self.pending.pop();
                parked.push(std::cmp::Reverse((next.max(ready_ps), id, from)));
            }
            self.pending.extend(parked);
            return;
        }
        while let Some(&std::cmp::Reverse((ready_ps, id, from))) = self.pending.peek() {
            if ready_ps > horizon {
                // A not-yet-simulated prefill or arrival could still beat
                // this transfer onto the fabric; commit later.
                return;
            }
            self.pending.pop();
            let request = self.requests[&id];
            let bytes = request.input_len as u64 * self.kv_bytes_per_token;

            let Some(chosen) = self.choose(&request, ready_ps, Decision::Pair) else {
                assert!(
                    self.chaos.armed,
                    "no decode replica available for the KV handoff of request {id}"
                );
                // The head entry changed (re-parked or abandoned):
                // re-enter the commit pass on a later step.
                self.defer_or_abandon_pairing(ready_ps, id, from);
                return;
            };
            self.slots[chosen].paired += 1;
            #[cfg(feature = "sanitize")]
            {
                debug_assert!(
                    self.sanitize_last_commit.is_none_or(|last| last <= (ready_ps, id)),
                    "sanitize: commit-order contract violated — transfer {id} commits \
                     at ready time {ready_ps} ps after {:?}",
                    self.sanitize_last_commit
                );
                self.sanitize_last_commit = Some((ready_ps, id));
            }
            let transfer = match self.fabric.commit(id, from, chosen, bytes, ready_ps) {
                FabricCommit::Booked { link, start_ps, done_ps, nominal_ps } => {
                    // Fully booked: the request arrives at the decode
                    // replica the moment its transfer completes.
                    self.sims[chosen].push_request(Request::new(
                        id,
                        request.input_len,
                        request.output_len,
                        done_ps,
                    ));
                    self.refresh(chosen);
                    self.telemetry.emit(|| SimEvent::TransferEnd {
                        t_ps: done_ps,
                        id,
                        from,
                        to: chosen,
                    });
                    FleetTransfer {
                        from,
                        to: chosen,
                        link,
                        ready_ps,
                        start_ps,
                        done_ps,
                        nominal_ps,
                        bytes,
                    }
                }
                FabricCommit::InFlight { start_ps, nominal_ps } => FleetTransfer {
                    from,
                    to: chosen,
                    // Provisional until the flow delivers and reports
                    // its bottleneck link.
                    link: 0,
                    ready_ps,
                    start_ps,
                    done_ps: TimePs::MAX,
                    nominal_ps,
                    bytes,
                },
            };
            self.telemetry.emit(|| SimEvent::TransferStart {
                t_ps: transfer.start_ps,
                id,
                from,
                to: chosen,
                bytes,
                nominal_ps: transfer.nominal_ps,
            });
            self.transfers.insert(id, transfer);
        }
    }

    /// Advances the fair fabric to `t` and injects every delivered KV
    /// cache into its paired decode replica, finalizing the transfer
    /// record (delivery time + bottleneck link).
    fn deliver_fabric_events(&mut self, t: TimePs) {
        for done in self.fabric.advance(t) {
            #[expect(
                clippy::expect_used,
                reason = "commit_ready_transfers records every flow it hands the fabric, and only a delivered transfer's record is ever removed"
            )]
            let transfer = self
                .transfers
                .get_mut(&done.id)
                .expect("every in-flight flow has a committed transfer record");
            transfer.done_ps = done.done_ps;
            transfer.link = done.bottleneck;
            let (to, from, bytes) = (transfer.to, transfer.from, transfer.bytes);
            self.telemetry.emit(|| SimEvent::TransferEnd {
                t_ps: done.done_ps,
                id: done.id,
                from,
                to,
            });
            if self.chaos.down[to] == Some(ReplicaFaultKind::Crash) {
                // The wire finished, but the KV landed on a dead replica:
                // lost on arrival. Unwind the prefill-side bookkeeping and
                // send the request back through admission to re-prefill.
                self.transfers.remove(&done.id);
                self.unwind_handoffs(from, &[done.id]);
                self.chaos.kv_bytes_lost += bytes;
                self.chaos.lost_prefill.entry(done.id).or_insert(done.done_ps);
                let request = self.requests[&done.id];
                self.retry_request(
                    request,
                    done.done_ps,
                    "shipped KV landed on a crashed replica",
                );
                continue;
            }
            let request = self.requests[&done.id];
            self.sims[to].push_request(Request::new(
                done.id,
                request.input_len,
                request.output_len,
                done.done_ps,
            ));
            self.refresh(to);
        }
    }

    /// Applies every fault transition due at exactly `t`. The compile
    /// order guarantees recoveries apply before same-instant new faults,
    /// so a replica that recovers at `t` can absorb work displaced by a
    /// crash at `t`.
    fn apply_due_faults(&mut self, t: TimePs) {
        while let Some(event) = self.chaos.events.front().copied().filter(|e| e.t_ps() <= t) {
            self.chaos.events.pop_front();
            match event {
                FaultEvent::ReplicaDown { replica, kind, .. } => {
                    self.fault_replica_down(replica, kind, t);
                }
                FaultEvent::ReplicaUp { replica, .. } => self.fault_replica_up(replica, t),
                FaultEvent::LinkDown { link, degrade_to_gbps, .. } => {
                    self.fault_link_down(link, degrade_to_gbps, t);
                }
                FaultEvent::LinkUp { link, .. } => self.fault_link_up(link, t),
            }
        }
    }

    /// Strikes a replica. Targets the fleet never materialized (an
    /// autoscale index that never spawned) are skipped without counting.
    fn fault_replica_down(&mut self, replica: usize, kind: ReplicaFaultKind, t: TimePs) {
        let chaos = &mut self.chaos;
        if replica >= self.sims.len() || chaos.down[replica].is_some() {
            return;
        }
        chaos.faults_injected += 1;
        chaos.down[replica] = Some(kind);
        if kind != ReplicaFaultKind::Drain {
            chaos.down_since[replica] = Some(t);
        }
        self.telemetry.emit(|| SimEvent::ReplicaFault {
            t_ps: t,
            replica,
            kind: kind.to_string(),
        });
        match kind {
            // A drained replica keeps executing what it holds; it is only
            // excluded from new admissions and pairings.
            ReplicaFaultKind::Drain => {}
            // A hung replica freezes mid-flight: its work is preserved
            // but nothing progresses until recovery. Its NIC stays up, so
            // already-queued KV handoffs still ship.
            ReplicaFaultKind::Hang => self.heap.refresh(replica, None),
            ReplicaFaultKind::Crash => {
                self.heap.refresh(replica, None);
                self.crash_replica(replica, t);
            }
        }
    }

    /// A crash loses everything volatile on the replica: in-flight
    /// requests (their KV caches with them) and finished prefills whose
    /// KV never shipped. Each lost request re-enters global admission
    /// through the retry policy.
    fn crash_replica(&mut self, replica: usize, t: TimePs) {
        let per_token = self.slots[replica].config.model.kv_bytes_per_token();
        // Finished prefills still queued for transfer from this replica:
        // the KV cache they would ship just evaporated.
        let mut kept = Vec::new();
        let mut lost_pending = Vec::new();
        while let Some(std::cmp::Reverse(entry)) = self.pending.pop() {
            if entry.2 == replica {
                lost_pending.push(entry);
            } else {
                kept.push(std::cmp::Reverse(entry));
            }
        }
        self.pending.extend(kept);
        if !lost_pending.is_empty() {
            let ids: Vec<u64> = lost_pending.iter().map(|&(_, id, _)| id).collect();
            self.unwind_handoffs(replica, &ids);
            for id in ids {
                let request = self.requests[&id];
                self.chaos.kv_bytes_lost += request.input_len as u64 * per_token;
                self.chaos.lost_prefill.entry(id).or_insert(t);
                self.retry_request(request, t, "prefill KV lost to a crash");
            }
        }
        // Everything the scheduler still held dies with the replica.
        let lost = self.sims[replica].crash_drain();
        for work in lost {
            let id = work.request.id;
            let incoming = self.transfers.get(&id).copied().filter(|tr| tr.to == replica);
            if let Some(tr) = incoming {
                // The decode side of a disagg pair: the shipped KV (and
                // any decode progress) is gone. Unwind the prefill-side
                // bookkeeping and re-prefill from the original request.
                self.unwind_handoffs(tr.from, &[id]);
                self.transfers.remove(&id);
                self.chaos.kv_bytes_lost += tr.bytes + work.generated as u64 * per_token;
                self.chaos.lost_prefill.entry(id).or_insert(t);
                let request = self.requests[&id];
                self.retry_request(request, t, "shipped KV lost with its decode replica");
            } else {
                if work.prefill_done {
                    self.chaos.kv_bytes_lost +=
                        (work.request.input_len + work.generated) as u64 * per_token;
                    self.chaos.lost_prefill.entry(id).or_insert(t);
                }
                self.retry_request(work.request, t, "in-flight work lost to a crash");
            }
        }
        // The crash drained the replica: a deferred role switch can land.
        self.try_apply_pending_role(replica);
    }

    /// Clears a replica fault. Crash/hang recoveries close the downtime
    /// window and rejoin the replica's clock to fleet time.
    fn fault_replica_up(&mut self, replica: usize, t: TimePs) {
        let chaos = &mut self.chaos;
        if replica >= self.sims.len() {
            return;
        }
        let Some(kind) = chaos.down[replica].take() else { return };
        if let Some(since) = chaos.down_since[replica].take() {
            chaos.downtime[replica] += t - since;
            chaos.fault_windows.push((since, t));
        }
        self.telemetry.emit(|| SimEvent::ReplicaRecovered { t_ps: t, replica });
        if kind != ReplicaFaultKind::Drain {
            // The outage is wall time: the replica resumes at recovery,
            // not where its clock stopped.
            self.sims[replica].advance_clock_to(t);
            self.refresh(replica);
        }
    }

    /// Degrades (or partitions, at 0 Gb/s) a link. In-flight fair flows
    /// integrate progress at the old rates up to `t`, then re-price.
    fn fault_link_down(&mut self, link: usize, degrade_to_gbps: f64, t: TimePs) {
        if link >= self.fabric.link_count() {
            return;
        }
        self.deliver_fabric_events(t.max(self.fabric.now_ps()));
        self.chaos.faults_injected += 1;
        // Overlapping windows keep the original bandwidth.
        let restore = self.fabric.link_bw_gbps(link);
        self.chaos.link_restore[link].get_or_insert(restore);
        self.fabric.set_link_bw_gbps(link, degrade_to_gbps);
        self.telemetry.emit(|| SimEvent::LinkFault { t_ps: t, link, bw_gbps: degrade_to_gbps });
    }

    /// Restores a degraded link to its pre-fault bandwidth.
    fn fault_link_up(&mut self, link: usize, t: TimePs) {
        if link >= self.fabric.link_count() {
            return;
        }
        let Some(bw) = self.chaos.link_restore[link].take() else { return };
        self.deliver_fabric_events(t.max(self.fabric.now_ps()));
        self.fabric.set_link_bw_gbps(link, bw);
        self.telemetry.emit(|| SimEvent::LinkRecovered { t_ps: t, link });
    }

    /// Sends a knocked-out request back through global admission with
    /// deterministic virtual-time backoff, or abandons it once its retry
    /// budget is spent.
    fn retry_request(&mut self, request: Request, now: TimePs, reason: &str) {
        let attempt = self.chaos.next_attempt(request.id);
        if attempt > self.chaos.retry.max_retries {
            self.abandon_request(request.id, now, reason);
            return;
        }
        let at = now.saturating_add(self.chaos.retry.backoff_for(attempt));
        self.requeue(request, now, attempt, at);
    }

    /// Queues retry `attempt` of `request`, decided at `now`, to arrive
    /// again at `at`. Report latencies keep spanning the whole retry
    /// chain from the first admission.
    fn requeue(&mut self, request: Request, now: TimePs, attempt: u32, at: TimePs) {
        let id = request.id;
        let original = self.requests.get(&id).map_or(request.arrival_ps, |r| r.arrival_ps);
        self.chaos.retried += 1;
        self.chaos.original_arrival.entry(id).or_insert(original);
        self.telemetry.emit(|| SimEvent::RequestRetried {
            t_ps: now,
            id,
            attempt,
            retry_at_ps: at,
        });
        self.enqueue_arrival(Request::new(id, request.input_len, request.output_len, at));
    }

    /// Gives up on a request, recording why.
    fn abandon_request(&mut self, id: u64, now: TimePs, reason: &str) {
        self.telemetry.emit(|| SimEvent::RequestAbandoned {
            t_ps: now,
            id,
            reason: reason.to_string(),
        });
        self.chaos.abandoned.push((id, reason.to_string()));
    }

    /// Takes back prefill completions of replica `from` whose KV caches
    /// will never ship, keeping the end-to-end completion count and the
    /// replica's handoff cursor consistent.
    fn unwind_handoffs(&mut self, from: usize, ids: &[u64]) {
        self.handoffs_total -= self.sims[from].retract_completions(ids);
        if self.slots[from].role == ReplicaRole::Prefill {
            self.slots[from].handed_off = self.sims[from].scheduler().completions().len();
        }
    }

    /// The earliest future instant at which serving capacity could
    /// reappear: a fault transition (a recovery, or a crash freeing a
    /// pairing for re-route), a control tick (the plane may scale up),
    /// or a warming replica coming online.
    fn defer_target(&self, now: TimePs) -> Option<TimePs> {
        let mut candidates: Vec<TimePs> = Vec::new();
        if let Some(ft) = self.next_fault_ps() {
            candidates.push(ft);
        }
        if self.tick_ps.is_some() {
            candidates.push(self.next_tick_ps);
        }
        for slot in &self.slots {
            if slot.active_from_ps > now {
                candidates.push(slot.active_from_ps);
            }
        }
        candidates.into_iter().filter(|&t| t > now).min()
    }

    /// No live replica accepts this arrival: push it to the next instant
    /// capacity could reappear, spending one retry, or abandon it.
    fn defer_or_abandon_admission(&mut self, request: Request) {
        let now = request.arrival_ps;
        let attempt = self.chaos.next_attempt(request.id);
        match self.defer_target(now).filter(|_| attempt <= self.chaos.retry.max_retries) {
            Some(at) => self.requeue(request, now, attempt, at),
            None => self.abandon_request(request.id, now, "no replica accepts arrivals"),
        }
    }

    /// No live decode replica can take this KV handoff: re-park it at
    /// the next instant capacity could reappear, spending one retry, or
    /// abandon it (unwinding the prefill-side bookkeeping for KV that
    /// will never ship).
    fn defer_or_abandon_pairing(&mut self, ready_ps: TimePs, id: u64, from: usize) {
        let attempt = self.chaos.next_attempt(id);
        let target = self.defer_target(ready_ps);
        let Some(at) = target.filter(|_| attempt <= self.chaos.retry.max_retries) else {
            self.unwind_handoffs(from, &[id]);
            self.chaos.kv_bytes_lost +=
                self.requests[&id].input_len as u64 * self.kv_bytes_per_token;
            self.abandon_request(
                id,
                ready_ps,
                "no decode replica available for the KV handoff",
            );
            return;
        };
        self.chaos.retried += 1;
        self.telemetry.emit(|| SimEvent::RequestRetried {
            t_ps: ready_ps,
            id,
            attempt,
            retry_at_ps: at,
        });
        self.pending.push(std::cmp::Reverse((at, id, from)));
    }

    /// Advances the fleet by one step. Returns `false` when everything
    /// has drained.
    ///
    /// A step runs a *window*: every replica iteration that starts
    /// strictly before the next barrier — an arrival, control tick,
    /// fault, fabric event, pending KV-transfer readiness, or a prefill
    /// replica's next iteration — on up to [`shards`](Self::set_shards)
    /// threads, helpers starting only when each thread gets at least two
    /// replicas. Control planes act only at barriers, so replicas cannot
    /// interact inside a window and outcomes are byte-identical under
    /// any shard count. When no replica can run before the barrier, the
    /// step handles the barrier event itself: one tick, fault, transfer
    /// commit, fabric event or admission, or the one replica iteration
    /// at the barrier.
    pub fn step(&mut self) -> bool {
        // Fresh shared-cache entries publish at the top of every step —
        // a virtual-time-determined boundary, identical under any shard
        // count and any thread timing — in replica-index order, so
        // first-write-wins resolves deterministically. Only replicas
        // that stepped since the last publish can hold fresh entries
        // (`dirty` is ascending: one sorted window or one barrier step).
        if self.shared.is_some() {
            for &i in &self.dirty {
                self.sims[i].publish_shared_reuse();
            }
        }
        self.dirty.clear();
        match self.collect_window() {
            Some(barrier) => {
                self.run_window(barrier);
                true
            }
            None => self.step_barrier(),
        }
    }

    /// Computes the next barrier and collects the replicas runnable
    /// strictly before it into `self.window`. Returns the barrier
    /// (`None` meaning unbounded: no future barrier exists and runnable
    /// replicas may drain completely) when the window is non-empty, or
    /// `None` overall when no replica can step before the barrier — the
    /// caller then handles the barrier event itself (and termination).
    fn collect_window(&mut self) -> Option<Option<TimePs>> {
        let mut barrier = [
            self.arrivals.front().map(|r| r.arrival_ps),
            self.tick_ps.map(|_| self.next_tick_ps),
            self.next_fault_ps(),
            self.fabric.next_event_ps(),
            self.pending.peek().map(|&std::cmp::Reverse((t, _, _))| t),
        ]
        .into_iter()
        .flatten()
        .min();
        // Cheap early-out: if the earliest replica event is not strictly
        // before the global barrier, the window is empty (prefill-ready
        // times below only lower the barrier further) and the barrier
        // step handles the barrier event. This keeps dense-arrival
        // phases at O(log replicas) per event instead of paying the
        // O(replicas) membership scan just to find nothing runnable.
        match (self.heap.peek(), barrier) {
            (None, _) => return None,
            (Some((t, _)), Some(b)) if t >= b => return None,
            _ => {}
        }
        #[cfg(feature = "sanitize")]
        debug_assert_eq!(
            self.slots.iter().filter(|s| s.role == ReplicaRole::Prefill).count(),
            self.prefill_slots,
            "sanitize: prefill slot counter drifted from the role column"
        );
        self.window.clear();
        if self.prefill_slots == 0 {
            // Prefill-free fleet (every cluster): drain runnable members
            // straight off the heap in ready order — O(window · log
            // replicas), independent of fleet size. The pops park each
            // member in the mirror; `run_window` re-keys them after
            // stepping. Membership sorts back to replica order so the
            // post-window bookkeeping stays deterministic.
            while let Some((t, i)) = self.heap.peek() {
                if barrier.is_some_and(|b| t >= b) {
                    break;
                }
                self.heap.pop();
                self.window.push(i);
            }
            self.window.sort_unstable();
        } else {
            // A prefill iteration can finish a prefill, which both
            // queues a new pending transfer and moves the commit horizon
            // — so every prefill replica's next event is itself a
            // barrier. (They therefore never step inside windows; linked
            // fleets advance their prefill side one barrier step at a
            // time.)
            for (i, slot) in self.slots.iter().enumerate() {
                if slot.role == ReplicaRole::Prefill {
                    if let Some(t) = self.heap.ready_of(i) {
                        barrier = Some(barrier.map_or(t, |b| b.min(t)));
                    }
                }
            }
            for i in 0..self.slots.len() {
                if let Some(t) = self.heap.ready_of(i) {
                    if barrier.is_none_or(|b| t < b) {
                        self.window.push(i);
                    }
                }
            }
        }
        if self.window.is_empty() {
            None
        } else {
            Some(barrier)
        }
    }

    /// Advances every replica in `self.window` through all of its
    /// iterations strictly before `barrier`, then re-keys the heap and
    /// settles per-replica bookkeeping in replica-index order.
    ///
    /// The calling thread steps members itself. Helper threads start
    /// only when every thread, the calling one included, gets at least
    /// two members: the window runs on `min(shards, host parallelism,
    /// members / 2)` threads (one while traced), so windows of one to
    /// three members step inline. All threads take members one at a
    /// time from one shared queue, which balances members of uneven
    /// cost; windowed replicas share no state, so which thread steps
    /// which member never changes an outcome.
    fn run_window(&mut self, barrier: Option<TimePs>) {
        let window = std::mem::take(&mut self.window);
        // One thread while traced: the shared sink must record events in
        // a deterministic order.
        let threads = if self.telemetry.is_on() { 1 } else { self.shards };
        let workers = crate::host_parallelism().min(threads).min(window.len() / 2).max(1);
        self.work.windows += 1;
        self.work.window_members += window.len() as u64;
        if workers > 1 {
            self.work.threaded_windows += 1;
            self.work.helper_threads += (workers - 1) as u64;
        }
        {
            // Disjoint `&mut` access to exactly the windowed simulators:
            // `window` is ascending, so chained `split_at_mut` carves
            // them out in O(window) without walking the whole fleet.
            let mut picked: Vec<&mut ServingSimulator> = Vec::with_capacity(window.len());
            let mut rest: &mut [ServingSimulator] = &mut self.sims;
            let mut base = 0usize;
            for &i in &window {
                let (member, tail) = std::mem::take(&mut rest)[i - base..].split_at_mut(1);
                picked.push(&mut member[0]);
                rest = tail;
                base = i + 1;
            }
            if workers == 1 {
                for sim in picked {
                    step_to_barrier(sim, barrier);
                }
            } else {
                let queue = std::sync::Mutex::new(picked.into_iter());
                // The lock is held only while taking the next member.
                let drain = || loop {
                    let next =
                        queue.lock().unwrap_or_else(std::sync::PoisonError::into_inner).next();
                    let Some(sim) = next else { break };
                    step_to_barrier(sim, barrier);
                };
                std::thread::scope(|scope| {
                    for _ in 1..workers {
                        scope.spawn(drain);
                    }
                    drain();
                });
            }
        }
        for &idx in &window {
            debug_assert!(
                self.slots[idx].role != ReplicaRole::Prefill,
                "a prefill replica stepped inside a window"
            );
            self.settle(idx);
        }
        self.window = window;
    }

    /// The bookkeeping after replica `idx` ran iterations, in a window or
    /// at a barrier: checks its clock against the sanitizer's mirror,
    /// marks it for the next shared-cache publish, queues the prefills it
    /// finished for KV handoff, lands a role switch waiting on its drain,
    /// and re-keys it in the heap.
    fn settle(&mut self, idx: usize) {
        #[cfg(feature = "sanitize")]
        {
            let now = self.sims[idx].clock_ps();
            debug_assert!(
                now >= self.sanitize_clocks[idx],
                "sanitize: replica {idx} virtual clock ran backwards across a step \
                 ({} -> {now} ps)",
                self.sanitize_clocks[idx]
            );
            self.sanitize_clocks[idx] = now;
        }
        if self.shared.is_some() {
            self.dirty.push(idx);
        }
        if self.slots[idx].role == ReplicaRole::Prefill {
            self.hand_off_finished_prefills(idx);
        }
        self.try_apply_pending_role(idx);
        self.refresh(idx);
    }

    /// Handles the barrier event when no replica can run before it:
    /// fires due control ticks, commits any transfer whose KV-ready order
    /// is settled, applies a due fault, advances the fabric when its next
    /// flow event is the earliest thing in the fleet, then admits one
    /// arrival or runs the one replica iteration at the barrier (queueing
    /// any prefills it finishes). Returns `false` when everything has
    /// drained.
    fn step_barrier(&mut self) -> bool {
        self.work.barrier_steps += 1;
        if self.tick_ps.is_some() {
            if let Some(horizon) = self.next_ready_ps() {
                self.fire_due_ticks(horizon);
            }
        }
        // Faults fire before any same-instant arrival, iteration, or
        // fabric event: a replica that crashes at `t` never serves the
        // batch formed at `t`. Transfers that became ready strictly
        // before the fault still commit first (the commit horizon is
        // capped at `fault - 1`).
        if let Some(ft) = self.next_fault_ps() {
            let beats_replica = self.heap.peek().is_none_or(|(rt, _)| ft <= rt);
            let beats_arrival = self.arrivals.front().is_none_or(|r| ft <= r.arrival_ps);
            let beats_fabric = self.fabric.next_event_ps().is_none_or(|t| ft <= t);
            if beats_replica && beats_arrival && beats_fabric {
                self.commit_ready_transfers();
                // A commit can leave earlier fabric deliveries overdue;
                // they precede the fault (the capped horizon keeps their
                // start times pre-fault).
                if self.fabric.next_event_ps().is_some_and(|t| t <= self.fabric.now_ps()) {
                    self.deliver_fabric_events(self.fabric.now_ps());
                    return true;
                }
                self.apply_due_faults(ft);
                return true;
            }
        }
        self.commit_ready_transfers();
        // A commit can jump the fabric clock forward (its ready time is
        // only bounded by the *new*-transfer horizon, not by in-flight
        // flows), leaving earlier deliveries overdue — drain those
        // immediately, with their true completion times intact.
        if self.fabric.next_event_ps().is_some_and(|t| t <= self.fabric.now_ps()) {
            self.deliver_fabric_events(self.fabric.now_ps());
            return true;
        }
        let next_ready = self.heap.peek();
        let next_arrival = self.arrivals.front().map(|r| r.arrival_ps);
        // Fair-fabric events (a flow finishing serialization or a
        // delivery) fire before any same-instant arrival or iteration,
        // so a delivered request is visible to its decode replica's
        // batch formed at exactly that time — matching the FIFO
        // discipline, where the arrival time was booked at commit.
        if let Some(t) = self.fabric.next_event_ps() {
            let beats_replica = next_ready.is_none_or(|(rt, _)| t <= rt);
            let beats_arrival = next_arrival.is_none_or(|at| t <= at);
            if beats_replica && beats_arrival {
                self.deliver_fabric_events(t);
                return true;
            }
        }
        // Arrivals admit first on ties so the control plane always sees
        // the request before any replica simulates past its arrival time.
        let due = |r: &mut Request| next_ready.is_none_or(|(rt, _)| r.arrival_ps <= rt);
        if let Some(request) = self.arrivals.pop_front_if(due) {
            self.admit(request);
            return true;
        }
        let Some((_, idx)) = next_ready else {
            // With no arrivals and every replica idle the horizon is
            // unbounded, so the commit pass above drained the queue — and
            // the fabric branch above drained any in-flight flow.
            debug_assert!(self.pending.is_empty(), "drained with transfers still pending");
            debug_assert_eq!(
                self.fabric.in_flight(),
                0,
                "drained with flows still in the fabric"
            );
            return false;
        };
        self.heap.pop();
        self.sims[idx].step();
        self.settle(idx);
        true
    }

    /// Admits one arrival: offers it to the in-service replicas whose
    /// role takes fresh work and whose warm-up has elapsed, or defers it
    /// when none is live.
    fn admit(&mut self, request: Request) {
        let Some(chosen) = self.choose(&request, request.arrival_ps, Decision::Admit) else {
            assert!(
                self.chaos.armed,
                "no replica accepts arrivals for request {} — the control plane \
                 drained or retired every admission candidate",
                request.id
            );
            self.defer_or_abandon_admission(request);
            return;
        };
        self.assignments.push((request.id, chosen));
        self.slots[chosen].routed += 1;
        self.telemetry.emit(|| SimEvent::Arrival {
            t_ps: request.arrival_ps,
            id: request.id,
            input_len: request.input_len,
            output_len: request.output_len,
        });
        self.telemetry.emit(|| SimEvent::Admitted {
            t_ps: request.arrival_ps,
            id: request.id,
            replica: chosen,
        });
        self.sims[chosen].push_request(request);
        self.refresh(chosen);
    }

    /// Offers `request` to the replicas that can take it at `now` — in
    /// service, warmed up, not faulted, and in a role that takes fresh
    /// arrivals (admission) or KV handoffs (pairing) — and returns the
    /// control plane's choice, or `None` when no replica qualifies. The
    /// plane reads a lazy [`Candidates`] view over a reused index buffer,
    /// so only the snapshots it asks for are captured.
    fn choose(&mut self, request: &Request, now: TimePs, decision: Decision) -> Option<usize> {
        self.offered.clear();
        self.offered.extend((0..self.sims.len()).filter(|&i| {
            let slot = &self.slots[i];
            let takes = match decision {
                Decision::Admit => slot.role.accepts_arrivals(),
                Decision::Pair => slot.role == ReplicaRole::Decode,
            };
            takes
                && slot.in_service()
                && slot.active_from_ps <= now
                && self.chaos.down[i].is_none()
        }));
        if self.offered.is_empty() {
            return None;
        }
        let candidates = Candidates::fleet(&self.offered, &self.sims, &self.slots);
        let chosen = match decision {
            Decision::Admit => self.control.admit(request, &candidates),
            Decision::Pair => self.control.pair(request, &candidates),
        };
        self.work.snapshots += candidates.captured() as u64;
        assert!(
            self.offered.binary_search(&chosen).is_ok(),
            "control plane {} replica {chosen}, not one of the {} offered",
            match decision {
                Decision::Admit => "admitted to",
                Decision::Pair => "paired",
            },
            self.offered.len()
        );
        Some(chosen)
    }

    /// Runs the fleet to completion and assembles the engine-level
    /// report.
    pub fn run(mut self) -> FleetReport {
        while self.step() {}
        self.into_report()
    }

    /// Finalizes into the engine-level report (a partially drained fleet
    /// yields a partial report). The cluster and disaggregated shapes
    /// render it through [`ClusterReport`](super::ClusterReport) and
    /// [`DisaggReport`](super::DisaggReport).
    pub fn into_report(self) -> FleetReport {
        FleetReport::from_parts(self.into_parts())
    }

    /// Dismantles the engine into the raw per-replica reports, transfer
    /// records, and bookkeeping [`FleetReport::from_parts`] joins.
    pub fn into_parts(self) -> FleetParts {
        let clock = self.clock_ps();
        let resilience = self.chaos.into_stats(clock);
        let control = self.control.name();
        let replicas = self
            .sims
            .into_iter()
            .zip(self.slots)
            .map(|(sim, slot)| FleetReplica {
                report: sim.into_report(),
                role: slot.role,
                home_role: slot.home_role,
                routed: slot.routed,
                paired: slot.paired,
                retired: slot.retiring,
            })
            .collect();
        FleetParts {
            control,
            replicas,
            assignments: self.assignments,
            transfers: self.transfers,
            requests: self.requests,
            fabric: self.fabric.stats(),
            resilience,
        }
    }
}

/// The two control-plane decisions that pick a replica.
#[derive(Debug, Clone, Copy)]
enum Decision {
    /// A fresh arrival's replica ([`ControlPlane::admit`]).
    Admit,
    /// A finished prefill's decode replica ([`ControlPlane::pair`]).
    Pair,
}

/// Advances one replica through every iteration strictly before
/// `barrier` (all of them when the barrier is `None`). This is the
/// worker-thread body of a sharded window: it touches nothing but the
/// one simulator, and the barrier guarantees no cross-replica
/// interaction falls inside the window.
fn step_to_barrier(sim: &mut ServingSimulator, barrier: Option<TimePs>) {
    while sim.next_ready_ps().is_some_and(|t| barrier.is_none_or(|b| t < b)) {
        #[cfg(feature = "sanitize")]
        let before = sim.clock_ps();
        if !sim.step() {
            break;
        }
        #[cfg(feature = "sanitize")]
        debug_assert!(
            sim.clock_ps() >= before,
            "sanitize: replica virtual clock ran backwards inside a window \
             ({before} -> {} ps)",
            sim.clock_ps()
        );
    }
}

/// The dismantled engine: everything a report assembler needs.
#[derive(Debug)]
pub struct FleetParts {
    /// The control plane's name.
    pub control: String,
    /// Per-replica outcome, by fleet index.
    pub replicas: Vec<FleetReplica>,
    /// `(request id, replica)` admissions in routing order.
    pub assignments: Vec<(u64, usize)>,
    /// Committed KV transfers by request id.
    pub transfers: BTreeMap<u64, FleetTransfer>,
    /// Original requests by id (empty for fleets without links).
    pub requests: BTreeMap<u64, Request>,
    /// Fabric usage, when the fleet ran over a fair-sharing fabric
    /// (`None` keeps FIFO-configured reports byte-identical to the
    /// pre-fabric engine).
    pub fabric: Option<FabricStats>,
    /// Fault-injection outcome, when a chaos schedule was armed (`None`
    /// keeps chaos-free reports byte-identical to the pre-chaos engine).
    pub resilience: Option<ResilienceStats>,
}

impl Simulate for FleetEngine {
    type Report = FleetReport;

    fn push_request(&mut self, request: Request) {
        FleetEngine::push_request(self, request);
    }

    fn next_ready_ps(&self) -> Option<TimePs> {
        FleetEngine::next_ready_ps(self)
    }

    fn clock_ps(&self) -> TimePs {
        FleetEngine::clock_ps(self)
    }

    fn completed_requests(&self) -> usize {
        FleetEngine::completed_requests(self)
    }

    fn step(&mut self) -> bool {
        FleetEngine::step(self)
    }

    fn finalize(self) -> FleetReport {
        self.into_report()
    }
}
