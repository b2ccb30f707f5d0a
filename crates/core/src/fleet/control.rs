//! The fleet control plane: admission, pairing, role flexing, and
//! autoscaling decisions over a fleet-wide view.
//!
//! A [`ControlPlane`] is the policy brain of a [`FleetEngine`]: the
//! engine owns virtual time, replicas, and KV-transfer links, and asks
//! the control plane three kinds of questions —
//!
//! * **admission** ([`admit`](ControlPlane::admit)): which replica serves
//!   a fresh arrival (the classic router decision);
//! * **pairing** ([`pair`](ControlPlane::pair)): which decode-role
//!   replica receives a finished prefill's KV cache (both decisions read
//!   a lazy [`Candidates`] view, which captures a load snapshot only for
//!   the candidates a policy reads);
//! * **reconfiguration** ([`on_tick`](ControlPlane::on_tick)): zero or
//!   more [`FleetCommand`]s — role switches and scale up/down — computed
//!   from a [`FleetStats`] view of the whole fleet at each control tick.
//!
//! "New serving technique" is now "new `ControlPlane` impl":
//! [`StaticControl`] reproduces the classic router/pairing behavior,
//! [`FlexPools`] flexes idle prefill replicas into the decode pool and
//! back, and [`AutoscaleControl`] grows and shrinks a unified fleet
//! between `min..max` replicas under queue-depth pressure.
//!
//! [`FleetEngine`]: crate::FleetEngine

use llmss_sched::{Request, TimePs};

use super::route::{Candidates, ReplicaRole, ReplicaSnapshot, RoutingPolicy};

/// One replica's entry in the fleet-wide [`FleetStats`] view.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicaStatus {
    /// The load snapshot a router would see (queue depth, KV occupancy,
    /// clock, current role).
    pub snapshot: ReplicaSnapshot,
    /// The role the replica was created with (flexing returns here).
    pub home_role: ReplicaRole,
    /// A role switch waiting on drain, if one is in flight.
    pub pending_role: Option<ReplicaRole>,
    /// Virtual time from which the replica admits work (autoscale
    /// warm-up; `0` for replicas that started with the fleet).
    pub active_from_ps: TimePs,
    /// Whether the replica is draining toward deactivation.
    pub retiring: bool,
    /// Simulated time spent executing iterations, cumulative.
    pub busy_ps: TimePs,
    /// Fraction of the window since the previous control tick this
    /// replica spent executing (`0.0` on the first tick or when no
    /// virtual time has passed).
    pub util_window: f64,
    /// Whether the replica is crashed right now (fault injection): its
    /// in-flight work was lost and it serves nothing until recovery.
    pub dead: bool,
    /// Whether the replica is degraded right now (hung or draining under
    /// fault injection): it holds or finishes existing work but takes no
    /// new admissions or pairings.
    pub degraded: bool,
}

impl ReplicaStatus {
    /// Whether the replica currently takes part in serving: not retired,
    /// not mid-drain toward another role, not crashed.
    pub fn in_service(&self) -> bool {
        !self.retiring && self.pending_role.is_none() && !self.dead
    }
}

/// The fleet-wide view a control plane decides from.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetStats {
    /// The fleet's virtual clock (the furthest replica clock).
    pub clock_ps: TimePs,
    /// Per-replica status, by replica index (including warming, draining,
    /// and retired replicas).
    pub replicas: Vec<ReplicaStatus>,
    /// Arrivals that have reached the front end by
    /// [`clock_ps`](Self::clock_ps) but are not yet routed — the real
    /// backlog, never the future of the trace.
    pub queued_arrivals: usize,
    /// KV handoffs waiting for the transfer link.
    pub pending_transfers: usize,
}

impl FleetStats {
    /// Replicas currently part of the serving fleet: not retiring and
    /// not dead — a crashed replica is lost capacity, not spare
    /// capacity, so pressure signals must not count it.
    pub fn active(&self) -> impl Iterator<Item = &ReplicaStatus> {
        self.replicas.iter().filter(|r| !r.retiring && !r.dead)
    }

    /// Number of replicas currently part of the serving fleet.
    pub fn active_count(&self) -> usize {
        self.active().count()
    }

    /// Mean outstanding requests per active replica, counting the
    /// front-end queue (the autoscaler's pressure signal). With no
    /// active replicas (a total outage) the backlog itself is the
    /// pressure, so the queue length is returned as the depth.
    pub fn mean_queue_depth(&self) -> f64 {
        let active = self.active_count();
        if active == 0 {
            return self.queued_arrivals as f64;
        }
        let outstanding: usize =
            self.active().map(|r| r.snapshot.outstanding_requests).sum::<usize>()
                + self.queued_arrivals;
        outstanding as f64 / active as f64
    }
}

/// A fleet reconfiguration the control plane asks the engine to apply.
///
/// Commands are requests, not imperatives: the engine applies each under
/// drain semantics (a role switch waits until the replica has no work in
/// flight; a scale-down drains before deactivating), so a control plane
/// can never strand a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetCommand {
    /// Switch `replica` to `role` — immediately if idle, otherwise once
    /// it drains. While draining the replica is offered no new work.
    SetRole {
        /// Replica index.
        replica: usize,
        /// The role to switch to.
        role: ReplicaRole,
    },
    /// Add one replica cloned from `template`'s configuration, admitting
    /// work from `now + warmup_ps`. Reactivates a retired replica when
    /// one is available instead of growing the fleet vector.
    ScaleUp {
        /// Replica index whose configuration the new replica clones.
        template: usize,
        /// Warm-up delay before the replica takes work (model load,
        /// container start — virtual time).
        warmup_ps: TimePs,
    },
    /// Drain `replica` and retire it from the serving fleet. In-flight
    /// work completes; no new work is offered.
    ScaleDown {
        /// Replica index.
        replica: usize,
    },
}

/// The policy brain of a [`FleetEngine`](crate::FleetEngine).
///
/// A plane sees the fleet at three points only: each admission, each KV
/// pairing, and each control tick. It has no per-iteration or
/// per-completion hook, which is what lets the engine step replicas in
/// bulk between those points. Admission and pairing offer a lazy
/// [`Candidates`] view: the engine filters the eligible replicas'
/// indices and captures a [`ReplicaSnapshot`] only when the plane (or
/// its routing policy) asks for one, so a decision that reads no load
/// costs the same at any fleet size. Control ticks see the whole fleet
/// as [`FleetStats`].
///
/// Implementations must be deterministic functions of their construction
/// parameters and the observed event sequence, so fleet runs reproduce
/// exactly.
pub trait ControlPlane: std::fmt::Debug {
    /// The control plane's name (used in reports; for router-backed
    /// planes this is the routing policy name).
    fn name(&self) -> String;

    /// Routes one fresh arrival over the offered candidates (non-empty;
    /// replicas whose role accepts arrivals and are in service). Must
    /// return the fleet index ([`Candidates::replica`]) of one
    /// candidate.
    fn admit(&mut self, request: &Request, candidates: &Candidates<'_>) -> usize;

    /// Picks the decode-side replica for a finished prefill's KV handoff
    /// (candidates: in-service decode-role replicas). Must return the
    /// fleet index ([`Candidates::replica`]) of one candidate. Only
    /// called on fleets with prefill-role replicas; the default takes the
    /// first candidate and captures no snapshot.
    fn pair(&mut self, _request: &Request, candidates: &Candidates<'_>) -> usize {
        candidates.replica(0)
    }

    /// The control tick period in virtual time, if this plane wants
    /// periodic [`on_tick`](Self::on_tick) callbacks.
    fn tick_ps(&self) -> Option<TimePs> {
        None
    }

    /// Periodic reconfiguration callback, fired every
    /// [`tick_ps`](Self::tick_ps) of virtual time.
    fn on_tick(&mut self, _stats: &FleetStats) -> Vec<FleetCommand> {
        Vec::new()
    }
}

/// Today's behavior as a control plane: a fixed router for admission, a
/// fixed pairer for KV handoffs, no reconfiguration — what the cluster
/// and disaggregated shapes run under.
#[derive(Debug)]
pub struct StaticControl {
    router: Box<dyn RoutingPolicy>,
    pairer: Box<dyn RoutingPolicy>,
}

impl StaticControl {
    /// A static control plane routing with `router` and pairing KV
    /// handoffs with `pairer`.
    pub fn new(router: Box<dyn RoutingPolicy>, pairer: Box<dyn RoutingPolicy>) -> Self {
        Self { router, pairer }
    }
}

impl ControlPlane for StaticControl {
    fn name(&self) -> String {
        self.router.name().to_owned()
    }

    fn admit(&mut self, request: &Request, candidates: &Candidates<'_>) -> usize {
        self.router.route(request, candidates)
    }

    fn pair(&mut self, request: &Request, candidates: &Candidates<'_>) -> usize {
        self.pairer.route(request, candidates)
    }
}

/// Prefill/decode pool flexing: an idle prefill replica joins the decode
/// pool while decode is the bottleneck, and returns home when prefill
/// pressure reappears — with drain semantics on every switch.
///
/// Only replicas whose *home* role is prefill flex, so the decode pool
/// never shrinks below its home size and at least
/// [`min_prefill`](FlexPoolsConfig::min_prefill) replicas always hold the
/// prefill role (a burst of arrivals always has somewhere to land while
/// flexed replicas drain back).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlexPoolsConfig {
    /// Control tick period (virtual time).
    pub tick_ps: TimePs,
    /// Consecutive idle ticks before a prefill replica flexes to decode.
    pub idle_ticks: u32,
    /// Prefill-role replicas that must always remain (≥ 1).
    pub min_prefill: usize,
}

impl Default for FlexPoolsConfig {
    fn default() -> Self {
        // 1 ms ticks: coarse enough to see real idleness, fine enough to
        // react within a few decode iterations.
        Self { tick_ps: 1_000_000_000, idle_ticks: 2, min_prefill: 1 }
    }
}

/// The [`FlexPools`] control plane. See [`FlexPoolsConfig`] for knobs.
#[derive(Debug)]
pub struct FlexPools {
    router: Box<dyn RoutingPolicy>,
    pairer: Box<dyn RoutingPolicy>,
    config: FlexPoolsConfig,
    /// Consecutive idle ticks per replica (indexed lazily).
    idle_streak: Vec<u32>,
}

impl FlexPools {
    /// A flexing control plane over the given router/pairer.
    ///
    /// # Panics
    ///
    /// Panics if `config.min_prefill` is zero (arrivals need a landing
    /// spot) or `config.tick_ps` is zero.
    pub fn new(
        router: Box<dyn RoutingPolicy>,
        pairer: Box<dyn RoutingPolicy>,
        config: FlexPoolsConfig,
    ) -> Self {
        assert!(config.min_prefill >= 1, "flexing must keep at least one prefill replica");
        assert!(config.tick_ps > 0, "the flex control tick must be positive");
        Self { router, pairer, config, idle_streak: Vec::new() }
    }

    fn streak(&mut self, replica: usize) -> &mut u32 {
        if self.idle_streak.len() <= replica {
            self.idle_streak.resize(replica + 1, 0);
        }
        &mut self.idle_streak[replica]
    }
}

impl ControlPlane for FlexPools {
    fn name(&self) -> String {
        format!("flex+{}", self.router.name())
    }

    fn admit(&mut self, request: &Request, candidates: &Candidates<'_>) -> usize {
        self.router.route(request, candidates)
    }

    fn pair(&mut self, request: &Request, candidates: &Candidates<'_>) -> usize {
        self.pairer.route(request, candidates)
    }

    fn tick_ps(&self) -> Option<TimePs> {
        Some(self.config.tick_ps)
    }

    fn on_tick(&mut self, stats: &FleetStats) -> Vec<FleetCommand> {
        let mut commands = Vec::new();
        // Prefill-side pressure: arrivals waiting at the front end, or
        // prefill work in flight anywhere.
        let prefill_pressure = stats.queued_arrivals > 0
            || stats.replicas.iter().any(|r| {
                r.snapshot.role == ReplicaRole::Prefill && r.snapshot.outstanding_requests > 0
            });
        // Decode-side pressure: transfers queued for the link, or decode
        // work in flight.
        let decode_pressure = stats.pending_transfers > 0
            || stats.replicas.iter().any(|r| {
                r.snapshot.role == ReplicaRole::Decode && r.snapshot.outstanding_requests > 0
            });
        let mut prefill_now = stats
            .replicas
            .iter()
            .filter(|r| r.snapshot.role == ReplicaRole::Prefill && r.in_service())
            .count();

        for status in &stats.replicas {
            if status.home_role != ReplicaRole::Prefill || !status.in_service() {
                continue;
            }
            let idx = status.snapshot.index;
            match status.snapshot.role {
                // Flexed out: come home as soon as prefill pressure
                // reappears (the engine drains the decode work first).
                ReplicaRole::Decode if prefill_pressure => {
                    *self.streak(idx) = 0;
                    commands.push(FleetCommand::SetRole {
                        replica: idx,
                        role: ReplicaRole::Prefill,
                    });
                    prefill_now += 1;
                }
                // At home and idle: flex to decode once the idle streak
                // matures, decode actually needs help, and enough prefill
                // capacity remains.
                ReplicaRole::Prefill
                    if status.snapshot.outstanding_requests == 0 && !prefill_pressure =>
                {
                    *self.streak(idx) += 1;
                    if *self.streak(idx) >= self.config.idle_ticks
                        && decode_pressure
                        && prefill_now > self.config.min_prefill
                    {
                        *self.streak(idx) = 0;
                        commands.push(FleetCommand::SetRole {
                            replica: idx,
                            role: ReplicaRole::Decode,
                        });
                        prefill_now -= 1;
                    }
                }
                _ => *self.streak(idx) = 0,
            }
        }
        commands
    }
}

/// Queue-depth autoscaling over a unified fleet: scale up when the mean
/// queue depth per active replica crosses `queue_high` (until `max`
/// replicas), scale down when it falls under `queue_low` (until `min`),
/// one step per tick, with a warm-up delay before a fresh replica takes
/// work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscaleConfig {
    /// Control tick period (virtual time).
    pub tick_ps: TimePs,
    /// Fleet-size floor (≥ 1).
    pub min_replicas: usize,
    /// Fleet-size ceiling (≥ `min_replicas`).
    pub max_replicas: usize,
    /// Mean outstanding requests per active replica above which the
    /// fleet grows.
    pub queue_high: f64,
    /// Mean outstanding requests per active replica below which the
    /// fleet shrinks.
    pub queue_low: f64,
    /// Warm-up delay before a scaled-up replica admits work.
    pub warmup_ps: TimePs,
}

impl Default for AutoscaleConfig {
    fn default() -> Self {
        Self {
            tick_ps: 1_000_000_000, // 1 ms
            min_replicas: 1,
            max_replicas: 4,
            queue_high: 4.0,
            queue_low: 0.5,
            warmup_ps: 5_000_000_000, // 5 ms
        }
    }
}

/// The [`AutoscaleControl`] control plane. See [`AutoscaleConfig`].
#[derive(Debug)]
pub struct AutoscaleControl {
    router: Box<dyn RoutingPolicy>,
    config: AutoscaleConfig,
}

impl AutoscaleControl {
    /// An autoscaling control plane routing with `router`.
    ///
    /// # Panics
    ///
    /// Panics on a zero `min_replicas`, an inverted `min..max` range, a
    /// non-positive tick, or `queue_low >= queue_high` (the policy would
    /// oscillate every tick).
    pub fn new(router: Box<dyn RoutingPolicy>, config: AutoscaleConfig) -> Self {
        assert!(config.min_replicas >= 1, "the fleet floor must be at least one replica");
        assert!(
            config.min_replicas <= config.max_replicas,
            "autoscale bounds are inverted: min {} > max {}",
            config.min_replicas,
            config.max_replicas
        );
        assert!(config.tick_ps > 0, "the autoscale control tick must be positive");
        assert!(
            config.queue_low < config.queue_high,
            "queue_low must be below queue_high (hysteresis)"
        );
        Self { router, config }
    }
}

impl ControlPlane for AutoscaleControl {
    fn name(&self) -> String {
        format!("autoscale+{}", self.router.name())
    }

    fn admit(&mut self, request: &Request, candidates: &Candidates<'_>) -> usize {
        self.router.route(request, candidates)
    }

    fn tick_ps(&self) -> Option<TimePs> {
        Some(self.config.tick_ps)
    }

    fn on_tick(&mut self, stats: &FleetStats) -> Vec<FleetCommand> {
        let active = stats.active_count();
        let depth = stats.mean_queue_depth();
        if depth > self.config.queue_high && active < self.config.max_replicas {
            return vec![FleetCommand::ScaleUp {
                template: 0,
                warmup_ps: self.config.warmup_ps,
            }];
        }
        if depth < self.config.queue_low && active > self.config.min_replicas {
            // Retire the highest-index active replica that is not the
            // template: deterministic, and scale-up reactivates it first.
            // Never a dead replica — it cannot drain until it recovers.
            let victim = stats
                .replicas
                .iter()
                .rev()
                .find(|r| !r.retiring && !r.dead && r.snapshot.index != 0)
                .map(|r| r.snapshot.index);
            if let Some(replica) = victim {
                return vec![FleetCommand::ScaleDown { replica }];
            }
        }
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn status(index: usize, role: ReplicaRole, outstanding: usize) -> ReplicaStatus {
        ReplicaStatus {
            snapshot: ReplicaSnapshot {
                index,
                role,
                clock_ps: 0,
                outstanding_requests: outstanding,
                active_sequences: outstanding,
                kv_used_pages: 0,
                kv_total_pages: 100,
                completed_requests: 0,
            },
            home_role: role,
            pending_role: None,
            active_from_ps: 0,
            retiring: false,
            busy_ps: 0,
            util_window: 0.0,
            dead: false,
            degraded: false,
        }
    }

    fn stats(replicas: Vec<ReplicaStatus>, queued: usize) -> FleetStats {
        FleetStats { clock_ps: 0, replicas, queued_arrivals: queued, pending_transfers: 0 }
    }

    #[test]
    fn mean_queue_depth_counts_front_end_queue() {
        let s = stats(
            vec![status(0, ReplicaRole::Unified, 3), status(1, ReplicaRole::Unified, 1)],
            4,
        );
        assert!((s.mean_queue_depth() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn autoscale_scales_up_under_pressure_and_down_when_idle() {
        let mut plane = AutoscaleControl::new(
            super::super::route::RoutingPolicyKind::RoundRobin.build(0),
            AutoscaleConfig { queue_high: 2.0, queue_low: 0.5, ..Default::default() },
        );
        let busy = stats(vec![status(0, ReplicaRole::Unified, 9)], 3);
        assert!(matches!(plane.on_tick(&busy)[..], [FleetCommand::ScaleUp { .. }]));
        let idle = stats(
            vec![status(0, ReplicaRole::Unified, 0), status(1, ReplicaRole::Unified, 0)],
            0,
        );
        assert_eq!(plane.on_tick(&idle), vec![FleetCommand::ScaleDown { replica: 1 }]);
        // At the floor, idle pressure issues nothing.
        let floor = stats(vec![status(0, ReplicaRole::Unified, 0)], 0);
        assert!(plane.on_tick(&floor).is_empty());
    }

    #[test]
    fn autoscale_counts_a_dead_replica_as_lost_capacity() {
        let mut plane = AutoscaleControl::new(
            super::super::route::RoutingPolicyKind::RoundRobin.build(0),
            AutoscaleConfig::default(),
        );
        // Two replicas, one crashed, six queued arrivals. Over the one
        // live replica that is depth 6 > queue_high 4, so the scale-up
        // must fire *during* the outage; counting the dead replica as
        // capacity (depth 3) would wrongly wait for recovery.
        let mut dead = status(1, ReplicaRole::Unified, 0);
        dead.dead = true;
        let outage = stats(vec![status(0, ReplicaRole::Unified, 0), dead], 6);
        assert!(matches!(plane.on_tick(&outage)[..], [FleetCommand::ScaleUp { .. }]));
    }

    #[test]
    fn autoscale_backfills_through_a_total_outage() {
        let mut plane = AutoscaleControl::new(
            super::super::route::RoutingPolicyKind::RoundRobin.build(0),
            AutoscaleConfig::default(),
        );
        // Every replica dead: the backlog alone is the pressure signal.
        let mut dead = status(0, ReplicaRole::Unified, 0);
        dead.dead = true;
        let outage = stats(vec![dead], 5);
        assert!(matches!(plane.on_tick(&outage)[..], [FleetCommand::ScaleUp { .. }]));
    }

    #[test]
    fn autoscale_never_retires_a_dead_replica() {
        let mut plane = AutoscaleControl::new(
            super::super::route::RoutingPolicyKind::RoundRobin.build(0),
            AutoscaleConfig::default(),
        );
        // Idle fleet, but the highest-index replica is dead: it cannot
        // drain, so the scale-down must pick the live one below it.
        let mut dead = status(2, ReplicaRole::Unified, 0);
        dead.dead = true;
        let idle = stats(
            vec![status(0, ReplicaRole::Unified, 0), status(1, ReplicaRole::Unified, 0), dead],
            0,
        );
        assert_eq!(plane.on_tick(&idle), vec![FleetCommand::ScaleDown { replica: 1 }]);
    }

    #[test]
    fn autoscale_never_retires_the_template() {
        let mut plane = AutoscaleControl::new(
            super::super::route::RoutingPolicyKind::RoundRobin.build(0),
            AutoscaleConfig::default(),
        );
        let idle = stats(
            vec![status(0, ReplicaRole::Unified, 0), status(1, ReplicaRole::Unified, 0)],
            0,
        );
        for _ in 0..4 {
            for cmd in plane.on_tick(&idle) {
                assert_ne!(cmd, FleetCommand::ScaleDown { replica: 0 });
            }
        }
    }

    #[test]
    fn flex_sends_idle_prefill_to_busy_decode_and_recalls_it() {
        let mut plane = FlexPools::new(
            super::super::route::RoutingPolicyKind::RoundRobin.build(0),
            super::super::route::RoutingPolicyKind::LeastKvLoad.build(0),
            FlexPoolsConfig { idle_ticks: 2, ..Default::default() },
        );
        let quiet_prefill = || {
            stats(
                vec![
                    status(0, ReplicaRole::Prefill, 0),
                    status(1, ReplicaRole::Prefill, 0),
                    status(2, ReplicaRole::Decode, 5),
                ],
                0,
            )
        };
        // Tick 1: streak building, no command yet.
        assert!(plane.on_tick(&quiet_prefill()).is_empty());
        // Tick 2: streak matures — exactly one replica flexes (min_prefill
        // keeps the other home).
        let cmds = plane.on_tick(&quiet_prefill());
        assert_eq!(cmds, vec![FleetCommand::SetRole { replica: 0, role: ReplicaRole::Decode }]);
        // Arrivals reappear: the flexed replica is recalled.
        let mut flexed = quiet_prefill();
        flexed.replicas[0].snapshot.role = ReplicaRole::Decode;
        flexed.queued_arrivals = 3;
        let cmds = plane.on_tick(&flexed);
        assert_eq!(
            cmds,
            vec![FleetCommand::SetRole { replica: 0, role: ReplicaRole::Prefill }]
        );
    }

    #[test]
    fn flex_never_drops_below_min_prefill() {
        let mut plane = FlexPools::new(
            super::super::route::RoutingPolicyKind::RoundRobin.build(0),
            super::super::route::RoutingPolicyKind::LeastKvLoad.build(0),
            FlexPoolsConfig { idle_ticks: 1, min_prefill: 1, ..Default::default() },
        );
        // A 1P x 1D fleet: the single prefill replica may never flex.
        let s = stats(
            vec![status(0, ReplicaRole::Prefill, 0), status(1, ReplicaRole::Decode, 8)],
            0,
        );
        for _ in 0..5 {
            assert!(plane.on_tick(&s).is_empty(), "flexed away the last prefill replica");
        }
    }
}
