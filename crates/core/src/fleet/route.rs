//! Replica roles, load snapshots, candidate views, and pluggable routing
//! policies.
//!
//! The [`FleetEngine`] and its control planes speak the router's
//! vocabulary: the router runs at request-arrival time and sees only what
//! a real front-end would —
//! per-replica queue depth, KV-cache pressure, and completion counts
//! ([`ReplicaSnapshot`]) — never the future of the trace or the internals
//! of an iteration in flight. It reads them through a lazy
//! [`Candidates`] view, which captures a snapshot only when asked.
//!
//! [`FleetEngine`]: crate::FleetEngine

use std::cell::Cell;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use llmss_sched::{Request, SchedulerMode, TimePs};

use super::engine::ReplicaSlot;
use crate::ServingSimulator;

/// The serving role a replica plays in the fleet.
///
/// A classic cluster is all-[`Unified`](ReplicaRole::Unified); a
/// disaggregated deployment splits the fleet into a prefill pool and a
/// decode pool with a KV-cache handoff in between. With
/// a flexing control plane ([`FlexPools`](crate::FlexPools)) a replica's
/// role can change at runtime, after a drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplicaRole {
    /// Serves requests end to end (prefill + decode).
    Unified,
    /// Prefill pool member: builds KV caches, completes at end-of-prefill.
    Prefill,
    /// Decode pool member: streams tokens from KV caches shipped to it.
    Decode,
}

impl ReplicaRole {
    /// Whether the front-end router may send *new* requests here. Decode
    /// replicas only receive work through KV-cache handoff, never fresh
    /// arrivals.
    pub fn accepts_arrivals(&self) -> bool {
        !matches!(self, ReplicaRole::Decode)
    }

    /// The scheduler mode a replica of this role runs.
    pub fn scheduler_mode(&self) -> SchedulerMode {
        match self {
            ReplicaRole::Unified => SchedulerMode::Unified,
            ReplicaRole::Prefill => SchedulerMode::PrefillOnly,
            ReplicaRole::Decode => SchedulerMode::DecodeOnly,
        }
    }
}

impl From<SchedulerMode> for ReplicaRole {
    fn from(mode: SchedulerMode) -> Self {
        match mode {
            SchedulerMode::Unified => ReplicaRole::Unified,
            SchedulerMode::PrefillOnly => ReplicaRole::Prefill,
            SchedulerMode::DecodeOnly => ReplicaRole::Decode,
        }
    }
}

impl std::fmt::Display for ReplicaRole {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ReplicaRole::Unified => "unified",
            ReplicaRole::Prefill => "prefill",
            ReplicaRole::Decode => "decode",
        })
    }
}

impl std::str::FromStr for ReplicaRole {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "unified" => Ok(ReplicaRole::Unified),
            "prefill" => Ok(ReplicaRole::Prefill),
            "decode" => Ok(ReplicaRole::Decode),
            other => Err(format!(
                "unknown replica role '{other}' (expected unified | prefill | decode)"
            )),
        }
    }
}

/// What the router can observe about one replica at routing time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicaSnapshot {
    /// Replica index in the cluster.
    pub index: usize,
    /// The replica's serving role.
    pub role: ReplicaRole,
    /// The replica's simulated clock.
    pub clock_ps: TimePs,
    /// Requests accepted but not yet finished (queue depth).
    pub outstanding_requests: usize,
    /// Sequences currently in the running batch.
    pub active_sequences: usize,
    /// KV pages in use on the device.
    pub kv_used_pages: usize,
    /// Total KV pages the device holds.
    pub kv_total_pages: usize,
    /// Requests fully served so far.
    pub completed_requests: usize,
}

impl ReplicaSnapshot {
    /// Captures what a front-end can observe about `sim` right now —
    /// the shared snapshot constructor for every driver (cluster router,
    /// disaggregated pairing, fleet control planes) built on
    /// [`ServingSimulator`](crate::ServingSimulator).
    pub fn capture(sim: &crate::ServingSimulator, index: usize, role: ReplicaRole) -> Self {
        let sched = sim.scheduler();
        Self {
            index,
            role,
            clock_ps: sched.clock_ps(),
            outstanding_requests: sched.outstanding(),
            active_sequences: sched.active_len(),
            kv_used_pages: sched.kv().used_pages(),
            kv_total_pages: sched.kv().config().total_pages(),
            completed_requests: sched.completions().len(),
        }
    }
}

/// The replicas offered to one admission or pairing decision: a lazy
/// view over the fleet.
///
/// The view holds the candidates' fleet indices and captures a
/// [`ReplicaSnapshot`] only when a policy asks for one, so a policy
/// that reads no load costs the same at any fleet size: round-robin and
/// sticky routing capture no snapshot, power-of-two-choices captures
/// two, and the least-loaded policies capture one per candidate.
/// Candidates are addressed by position `0..len()`; the engine offers
/// them in ascending fleet-index order. A view is never empty when a
/// policy sees it.
#[derive(Debug)]
pub struct Candidates<'a> {
    source: Source<'a>,
    /// Snapshots handed out so far.
    captured: Cell<usize>,
}

/// Where a [`Candidates`] view reads its replicas from.
#[derive(Debug, Clone, Copy)]
enum Source<'a> {
    /// Live replicas, captured on demand: `indices[k]` is the fleet
    /// index of candidate `k`.
    Fleet { indices: &'a [usize], sims: &'a [ServingSimulator], slots: &'a [ReplicaSlot] },
    /// Snapshots captured up front.
    Snapshots(&'a [ReplicaSnapshot]),
}

impl<'a> Candidates<'a> {
    /// A view of the fleet replicas `indices` (ascending), captured from
    /// `sims` with the roles in `slots` when a policy asks.
    pub(super) fn fleet(
        indices: &'a [usize],
        sims: &'a [ServingSimulator],
        slots: &'a [ReplicaSlot],
    ) -> Self {
        Self { source: Source::Fleet { indices, sims, slots }, captured: Cell::new(0) }
    }

    /// A view of snapshots captured up front (for policies driven
    /// outside an engine, and for tests). Each candidate is named by its
    /// snapshot's [`index`](ReplicaSnapshot::index).
    pub fn from_snapshots(snapshots: &'a [ReplicaSnapshot]) -> Self {
        Self { source: Source::Snapshots(snapshots), captured: Cell::new(0) }
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        match self.source {
            Source::Fleet { indices, .. } => indices.len(),
            Source::Snapshots(snapshots) => snapshots.len(),
        }
    }

    /// Whether no replica is offered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The fleet index of candidate `k`, without capturing a snapshot.
    pub fn replica(&self, k: usize) -> usize {
        match self.source {
            Source::Fleet { indices, .. } => indices[k],
            Source::Snapshots(snapshots) => snapshots[k].index,
        }
    }

    /// Captures what a front-end can observe about candidate `k` now.
    pub fn snapshot(&self, k: usize) -> ReplicaSnapshot {
        self.captured.set(self.captured.get() + 1);
        match self.source {
            Source::Fleet { indices, sims, slots } => {
                let i = indices[k];
                ReplicaSnapshot::capture(&sims[i], i, slots[i].role)
            }
            Source::Snapshots(snapshots) => snapshots[k],
        }
    }

    /// Captures every candidate's snapshot, in candidate order.
    pub fn snapshots(&self) -> impl Iterator<Item = ReplicaSnapshot> + '_ {
        (0..self.len()).map(|k| self.snapshot(k))
    }

    /// How many snapshots this view has captured so far.
    pub fn captured(&self) -> usize {
        self.captured.get()
    }
}

/// A pluggable request-routing policy.
///
/// `route` returns the fleet index of the replica that should serve
/// `request`; the engine injects the request there. The same trait
/// drives decode-replica *pairing* in disaggregated serving, where the
/// candidate set is the decode pool. Policies may keep state
/// (round-robin cursors, RNGs) — hence `&mut self` — but must be
/// deterministic functions of their construction seed and the observed
/// snapshot sequence, so that fleet runs reproduce exactly.
pub trait RoutingPolicy: std::fmt::Debug {
    /// Human-readable policy name (used in reports and TSV output).
    fn name(&self) -> &'static str;

    /// Chooses a replica for `request`.
    ///
    /// `candidates` is never empty but may be a *subset* of the fleet
    /// (for example, only the replicas whose role accepts arrivals).
    /// Implementations must return the fleet index of one candidate
    /// ([`Candidates::replica`]) — never a bare position in the view —
    /// and should capture only the snapshots they read.
    fn route(&mut self, request: &Request, candidates: &Candidates<'_>) -> usize;
}

/// The built-in policies, as a value (CLI flags, config files, sweeps).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoutingPolicyKind {
    /// Cycle through replicas in order, ignoring load.
    RoundRobin,
    /// Send to the replica with the fewest unfinished requests.
    LeastOutstanding,
    /// Send to the replica with the lowest KV-cache page usage.
    LeastKvLoad,
    /// Sample two distinct replicas uniformly, send to the less loaded
    /// (Mitzenmacher's "power of two choices").
    PowerOfTwoChoices,
    /// Session affinity: the request id picks the replica, so a request
    /// (or retry of it) always lands on the same place regardless of load.
    Sticky,
}

impl RoutingPolicyKind {
    /// Every built-in policy (for sweeps and exhaustive tests).
    pub const ALL: [RoutingPolicyKind; 5] = [
        RoutingPolicyKind::RoundRobin,
        RoutingPolicyKind::LeastOutstanding,
        RoutingPolicyKind::LeastKvLoad,
        RoutingPolicyKind::PowerOfTwoChoices,
        RoutingPolicyKind::Sticky,
    ];

    /// Instantiates the policy. `seed` feeds randomized policies
    /// (power-of-two-choices); deterministic policies ignore it.
    pub fn build(self, seed: u64) -> Box<dyn RoutingPolicy> {
        match self {
            RoutingPolicyKind::RoundRobin => Box::new(RoundRobin::new()),
            RoutingPolicyKind::LeastOutstanding => Box::new(LeastOutstanding),
            RoutingPolicyKind::LeastKvLoad => Box::new(LeastKvLoad),
            RoutingPolicyKind::PowerOfTwoChoices => Box::new(PowerOfTwoChoices::new(seed)),
            RoutingPolicyKind::Sticky => Box::new(Sticky),
        }
    }

    /// The CLI spelling (`--routing` flag values).
    pub fn as_str(&self) -> &'static str {
        match self {
            RoutingPolicyKind::RoundRobin => "round-robin",
            RoutingPolicyKind::LeastOutstanding => "least-outstanding",
            RoutingPolicyKind::LeastKvLoad => "least-kv",
            RoutingPolicyKind::PowerOfTwoChoices => "power-of-two",
            RoutingPolicyKind::Sticky => "sticky",
        }
    }
}

impl std::fmt::Display for RoutingPolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for RoutingPolicyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "round-robin" | "rr" => Ok(RoutingPolicyKind::RoundRobin),
            "least-outstanding" | "lor" => Ok(RoutingPolicyKind::LeastOutstanding),
            "least-kv" | "kv" => Ok(RoutingPolicyKind::LeastKvLoad),
            "power-of-two" | "p2c" => Ok(RoutingPolicyKind::PowerOfTwoChoices),
            "sticky" => Ok(RoutingPolicyKind::Sticky),
            other => Err(format!(
                "unknown routing policy '{other}' (expected round-robin | \
                 least-outstanding | least-kv | power-of-two | sticky)"
            )),
        }
    }
}

/// Cycles through replicas in index order.
#[derive(Debug, Default)]
pub struct RoundRobin {
    next: usize,
}

impl RoundRobin {
    /// A round-robin router starting at replica 0.
    pub fn new() -> Self {
        Self::default()
    }
}

impl RoutingPolicy for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn route(&mut self, _request: &Request, candidates: &Candidates<'_>) -> usize {
        // The candidate set may be a filtered subset of the fleet, so the
        // cursor indexes the view but the view names the replica.
        let chosen = candidates.replica(self.next % candidates.len());
        self.next = self.next.wrapping_add(1);
        chosen
    }
}

/// Join-the-shortest-queue on unfinished request count; ties break toward
/// the lower KV load, then the lower index.
#[derive(Debug, Default)]
pub struct LeastOutstanding;

fn less_loaded(a: &ReplicaSnapshot, b: &ReplicaSnapshot) -> std::cmp::Ordering {
    a.outstanding_requests
        .cmp(&b.outstanding_requests)
        .then(a.kv_used_pages.cmp(&b.kv_used_pages))
        .then(a.index.cmp(&b.index))
}

impl RoutingPolicy for LeastOutstanding {
    fn name(&self) -> &'static str {
        "least-outstanding"
    }

    fn route(&mut self, _request: &Request, candidates: &Candidates<'_>) -> usize {
        // llmss-lint: allow(p001, reason = "routing is never invoked on an empty fleet")
        candidates.snapshots().min_by(less_loaded).expect("non-empty").index
    }
}

/// Routes to the replica with the fewest KV pages in use — a memory-
/// pressure signal that discriminates better than queue depth when
/// sequence lengths are highly skewed; ties break toward the lower
/// queue depth, then the lower index.
#[derive(Debug, Default)]
pub struct LeastKvLoad;

impl RoutingPolicy for LeastKvLoad {
    fn name(&self) -> &'static str {
        "least-kv"
    }

    fn route(&mut self, _request: &Request, candidates: &Candidates<'_>) -> usize {
        candidates
            .snapshots()
            .min_by(|a, b| {
                a.kv_used_pages
                    .cmp(&b.kv_used_pages)
                    .then(a.outstanding_requests.cmp(&b.outstanding_requests))
                    .then(a.index.cmp(&b.index))
            })
            .expect("non-empty") // llmss-lint: allow(p001, reason = "routing is never invoked on an empty fleet")
            .index
    }
}

/// Samples two distinct replicas uniformly and routes to the less loaded
/// one — near-optimal balance at O(1) state lookups per request.
#[derive(Debug)]
pub struct PowerOfTwoChoices {
    rng: StdRng,
}

impl PowerOfTwoChoices {
    /// A power-of-two-choices router with a deterministic sampling seed.
    pub fn new(seed: u64) -> Self {
        Self { rng: StdRng::seed_from_u64(seed) }
    }
}

impl RoutingPolicy for PowerOfTwoChoices {
    fn name(&self) -> &'static str {
        "power-of-two"
    }

    fn route(&mut self, _request: &Request, candidates: &Candidates<'_>) -> usize {
        let n = candidates.len();
        if n == 1 {
            return candidates.replica(0);
        }
        let first = self.rng.gen_range(0..n);
        // Offset sampling guarantees the second probe is distinct.
        let second = (first + self.rng.gen_range(1..n)) % n;
        std::cmp::min_by(candidates.snapshot(first), candidates.snapshot(second), less_loaded)
            .index
    }
}

/// Session-affinity routing: the request id alone picks the replica.
///
/// Every request (and any retry carrying the same id) lands on the same
/// replica no matter the load — the classic consistent-assignment
/// front-end, and the "sticky" decode-pairing policy for disaggregated
/// serving (KV locality beats load balance when caches are reused).
#[derive(Debug, Default)]
pub struct Sticky;

impl RoutingPolicy for Sticky {
    fn name(&self) -> &'static str {
        "sticky"
    }

    fn route(&mut self, request: &Request, candidates: &Candidates<'_>) -> usize {
        candidates.replica((request.id % candidates.len() as u64) as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(index: usize, outstanding: usize, kv: usize) -> ReplicaSnapshot {
        ReplicaSnapshot {
            index,
            role: ReplicaRole::Unified,
            clock_ps: 0,
            outstanding_requests: outstanding,
            active_sequences: outstanding,
            kv_used_pages: kv,
            kv_total_pages: 100,
            completed_requests: 0,
        }
    }

    fn req(id: u64) -> Request {
        Request::new(id, 16, 4, 0)
    }

    /// Routes `request` over pre-captured snapshots.
    fn route(p: &mut dyn RoutingPolicy, request: &Request, snaps: &[ReplicaSnapshot]) -> usize {
        p.route(request, &Candidates::from_snapshots(snaps))
    }

    #[test]
    fn round_robin_cycles() {
        let mut p = RoundRobin::new();
        let snaps = [snap(0, 9, 0), snap(1, 0, 0), snap(2, 5, 0)];
        let picks: Vec<usize> = (0..6).map(|i| route(&mut p, &req(i), &snaps)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn least_outstanding_prefers_empty_replica() {
        let mut p = LeastOutstanding;
        let snaps = [snap(0, 4, 10), snap(1, 2, 90), snap(2, 2, 30)];
        // Replicas 1 and 2 tie on queue depth; 2 has the lower KV load.
        assert_eq!(route(&mut p, &req(0), &snaps), 2);
    }

    #[test]
    fn least_kv_prefers_low_memory_pressure() {
        let mut p = LeastKvLoad;
        let snaps = [snap(0, 1, 80), snap(1, 9, 10), snap(2, 0, 50)];
        assert_eq!(route(&mut p, &req(0), &snaps), 1);
    }

    #[test]
    fn p2c_probes_are_distinct_and_deterministic() {
        let snaps: Vec<ReplicaSnapshot> = (0..8).map(|i| snap(i, i, 0)).collect();
        let run = || {
            let mut p = PowerOfTwoChoices::new(7);
            (0..64).map(|i| route(&mut p, &req(i), &snaps)).collect::<Vec<usize>>()
        };
        let a = run();
        assert_eq!(a, run(), "same seed must reproduce the same choices");
        assert!(a.iter().all(|&i| i < 8));
        // With load increasing in index, replica 7 can only be picked when
        // both probes land on it — impossible with distinct probes.
        assert!(a.iter().all(|&i| i != 7));
    }

    #[test]
    fn p2c_single_replica_is_total() {
        let mut p = PowerOfTwoChoices::new(1);
        assert_eq!(route(&mut p, &req(0), &[snap(0, 3, 3)]), 0);
        // A filtered single-candidate set must still return the snapshot
        // index, not a slice position.
        assert_eq!(route(&mut p, &req(1), &[snap(5, 3, 3)]), 5);
    }

    #[test]
    fn sticky_ignores_load_and_follows_request_id() {
        let mut p = Sticky;
        let snaps = [snap(0, 100, 100), snap(1, 0, 0), snap(2, 50, 50)];
        assert_eq!(route(&mut p, &req(4), &snaps), 1, "4 % 3 == 1 despite replica 1's load");
        assert_eq!(route(&mut p, &req(4), &snaps), 1, "same id always lands the same place");
        assert_eq!(route(&mut p, &req(5), &snaps), 2);
    }

    #[test]
    fn policies_return_snapshot_indices_on_filtered_subsets() {
        // A disaggregated front-end routes over a subset of the fleet
        // (e.g. replicas 2 and 5 of 8): policies must answer with the
        // snapshot's cluster index, not a position in the slice.
        let subset = [snap(2, 1, 1), snap(5, 0, 0)];
        for kind in RoutingPolicyKind::ALL {
            let mut p = kind.build(9);
            for id in 0..16 {
                let chosen = route(p.as_mut(), &req(id), &subset);
                assert!(
                    chosen == 2 || chosen == 5,
                    "{kind} returned {chosen}, not a snapshot index"
                );
            }
        }
    }

    #[test]
    fn policies_capture_only_the_snapshots_they_read() {
        let snaps: Vec<ReplicaSnapshot> = (0..8).map(|i| snap(i, i, 0)).collect();
        let expected = [
            (RoutingPolicyKind::RoundRobin, 0),
            (RoutingPolicyKind::Sticky, 0),
            (RoutingPolicyKind::PowerOfTwoChoices, 2),
            (RoutingPolicyKind::LeastOutstanding, 8),
            (RoutingPolicyKind::LeastKvLoad, 8),
        ];
        for (kind, captures) in expected {
            let candidates = Candidates::from_snapshots(&snaps);
            kind.build(3).route(&req(1), &candidates);
            assert_eq!(candidates.captured(), captures, "{kind}");
        }
        // A lone candidate needs no load comparison at all.
        let lone = Candidates::from_snapshots(&snaps[..1]);
        assert_eq!(RoutingPolicyKind::PowerOfTwoChoices.build(3).route(&req(1), &lone), 0);
        assert_eq!(lone.captured(), 0);
    }

    #[test]
    fn decode_role_rejects_arrivals() {
        assert!(ReplicaRole::Unified.accepts_arrivals());
        assert!(ReplicaRole::Prefill.accepts_arrivals());
        assert!(!ReplicaRole::Decode.accepts_arrivals());
        assert_eq!(ReplicaRole::from(SchedulerMode::PrefillOnly), ReplicaRole::Prefill);
        assert_eq!(ReplicaRole::from(SchedulerMode::DecodeOnly), ReplicaRole::Decode);
        assert_eq!(ReplicaRole::from(SchedulerMode::Unified), ReplicaRole::Unified);
    }

    #[test]
    fn role_round_trips_scheduler_mode_and_str() {
        for role in [ReplicaRole::Unified, ReplicaRole::Prefill, ReplicaRole::Decode] {
            assert_eq!(ReplicaRole::from(role.scheduler_mode()), role);
            let parsed: ReplicaRole = role.to_string().parse().unwrap();
            assert_eq!(parsed, role);
        }
        assert!("nope".parse::<ReplicaRole>().is_err());
    }

    #[test]
    fn kind_round_trips_through_str() {
        for kind in RoutingPolicyKind::ALL {
            let parsed: RoutingPolicyKind = kind.as_str().parse().unwrap();
            assert_eq!(parsed, kind);
        }
        assert!("nope".parse::<RoutingPolicyKind>().is_err());
    }
}
