//! The max–min fair-sharing flow model: piecewise-constant rates over a
//! multi-link graph, recomputed at every flow start and finish.
//!
//! Each in-flight KV transfer is a *flow* over a path of links. Whenever
//! the set of active flows changes, bandwidth is re-divided by
//! progressive filling (the classic max–min algorithm): repeatedly find
//! the most-contended link, give every unfrozen flow crossing it an
//! equal share of that link's remaining capacity, freeze those flows,
//! and subtract what they consume along their whole paths. Between
//! recompute points every rate is constant, so flow progress — and the
//! completion times the fleet engine schedules against — is exact: the
//! model advances every flow's remaining bytes to the recompute point
//! before re-dividing.
//!
//! Rates are in bytes per picosecond (`bw_gbps / 1000`); remaining bytes
//! are `f64` so a flow can be left mid-byte at a recompute point. Byte
//! accounting clamps at each flow's residue, so the per-link carried
//! integrals conserve bytes exactly (up to float epsilon) — a property
//! the repo's proptests pin.

use llmss_net::LinkSpec;
use llmss_sched::TimePs;
use std::collections::BTreeMap;

/// Converts a link bandwidth to the model's rate unit.
fn bytes_per_ps(bw_gbps: f64) -> f64 {
    // 1 GB/s = 1e9 B/s = 1e-3 B/ps.
    bw_gbps / 1000.0
}

/// One in-flight flow.
#[derive(Debug, Clone)]
struct Flow {
    /// Link indices the flow crosses, in hop order.
    path: Vec<usize>,
    /// Bytes not yet serialized.
    remaining: f64,
    /// Total bytes (for accounting and the completion record).
    bytes: u64,
    /// Current max–min rate in bytes/ps (0 only once serialized).
    rate: f64,
    /// The link that bounded the flow's most recent allocation.
    bottleneck: usize,
    /// Propagation latency of the whole path, applied after the last
    /// byte serializes.
    latency_ps: TimePs,
    /// When the flow entered the fabric.
    start_ps: TimePs,
    /// Uncontended whole-path transfer time (for contention metrics).
    nominal_ps: TimePs,
    /// Delivery time, fixed once the last byte has serialized.
    done_ps: Option<TimePs>,
}

/// A delivered flow: everything the engine needs to finish the transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowDone {
    /// The flow's id (the KV transfer's request id).
    pub id: u64,
    /// When the flow entered the fabric.
    pub start_ps: TimePs,
    /// When the last byte landed (serialization end + path latency).
    pub done_ps: TimePs,
    /// Uncontended whole-path transfer time.
    pub nominal_ps: TimePs,
    /// The link that bounded the flow's final allocation.
    pub bottleneck: usize,
    /// Bytes carried.
    pub bytes: u64,
}

/// The fair-sharing flow model over a fixed set of links.
#[derive(Debug, Clone)]
pub struct FlowModel {
    /// Per-link capacity in bytes/ps.
    caps: Vec<f64>,
    /// Per-link allocated rate under the current division.
    alloc: Vec<f64>,
    /// Per-link carried-byte integral (for utilization accounting).
    carried: Vec<f64>,
    /// Active flows by id. A `BTreeMap` keeps every iteration — and
    /// therefore the whole allocation — deterministic in id order.
    flows: BTreeMap<u64, Flow>,
    /// The last recompute point.
    now_ps: TimePs,
    /// Sanitizer: total bytes ever admitted (`start`).
    #[cfg(feature = "sanitize")]
    sanitize_admitted: u64,
    /// Sanitizer: total bytes delivered out of `advance`.
    #[cfg(feature = "sanitize")]
    sanitize_delivered: u64,
}

impl FlowModel {
    /// A flow model over the given links.
    ///
    /// # Panics
    ///
    /// Panics if `links` is empty.
    pub fn new(links: &[LinkSpec]) -> Self {
        assert!(!links.is_empty(), "a flow model needs at least one link");
        Self {
            caps: links.iter().map(|l| bytes_per_ps(l.bw_gbps)).collect(),
            alloc: vec![0.0; links.len()],
            carried: vec![0.0; links.len()],
            flows: BTreeMap::new(),
            now_ps: 0,
            #[cfg(feature = "sanitize")]
            sanitize_admitted: 0,
            #[cfg(feature = "sanitize")]
            sanitize_delivered: 0,
        }
    }

    /// Flows currently in the fabric (serializing or in their latency
    /// tail).
    pub fn in_flight(&self) -> usize {
        self.flows.len()
    }

    /// The model's clock: the last recompute point.
    pub fn now_ps(&self) -> TimePs {
        self.now_ps
    }

    /// Per-link carried bytes so far (the utilization integral).
    pub fn carried_bytes(&self) -> &[f64] {
        &self.carried
    }

    /// Per-link allocated rate in bytes/ps under the current division
    /// (diagnostics and the capacity-bound proptest).
    pub fn allocated(&self) -> &[f64] {
        &self.alloc
    }

    /// Per-link capacity in bytes/ps.
    pub fn capacities(&self) -> &[f64] {
        &self.caps
    }

    /// Re-prices link `link` to `gbps` mid-run (chaos degradation;
    /// zero partitions the link) and immediately re-divides bandwidth,
    /// so in-flight flows crossing it speed up, slow down, or stall
    /// until a later capacity change. The caller advances the model to
    /// the fault time first so earlier progress is integrated at the
    /// old rates.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range link or a non-finite/negative
    /// bandwidth.
    pub fn set_capacity(&mut self, link: usize, gbps: f64) {
        assert!(link < self.caps.len(), "link {link} outside the fabric");
        assert!(gbps.is_finite() && gbps >= 0.0, "link {link} given invalid bandwidth {gbps}");
        self.caps[link] = bytes_per_ps(gbps);
        self.recompute();
    }

    /// Admits a flow of `bytes` over `path` at `start_ps`, with the
    /// path's summed `latency_ps` applied after serialization and
    /// `nominal_ps` recorded for contention metrics. Advances every
    /// other flow to the admission point, then re-divides bandwidth.
    ///
    /// # Panics
    ///
    /// Panics on an empty path, an out-of-range link, a duplicate id, or
    /// an admission before the model's clock (the engine commits flows
    /// in nondecreasing virtual time).
    pub fn start(
        &mut self,
        id: u64,
        path: &[usize],
        bytes: u64,
        latency_ps: TimePs,
        nominal_ps: TimePs,
        start_ps: TimePs,
    ) {
        assert!(!path.is_empty(), "flow {id} has an empty path");
        assert!(
            path.iter().all(|&l| l < self.caps.len()),
            "flow {id} crosses a link outside the fabric"
        );
        assert!(
            start_ps >= self.now_ps,
            "flow {id} starts at {start_ps} ps, before the fabric clock {} ps",
            self.now_ps
        );
        self.advance_to(start_ps);
        let previous = self.flows.insert(
            id,
            Flow {
                path: path.to_vec(),
                remaining: bytes as f64,
                bytes,
                rate: 0.0,
                bottleneck: path[0],
                latency_ps,
                start_ps,
                nominal_ps,
                done_ps: if bytes == 0 {
                    // A zero-byte flow serializes instantly: only the
                    // path latency stands between it and delivery.
                    Some(start_ps.saturating_add(latency_ps))
                } else {
                    None
                },
            },
        );
        assert!(previous.is_none(), "flow {id} admitted twice");
        #[cfg(feature = "sanitize")]
        {
            self.sanitize_admitted += bytes;
        }
        self.recompute();
    }

    /// The next time anything happens inside the fabric: a flow finishes
    /// serializing (freeing its bandwidth) or a serialized flow's
    /// latency tail expires (delivery). `None` when the fabric is idle.
    pub fn next_event_ps(&self) -> Option<TimePs> {
        self.flows.values().map(|f| self.flow_event_ps(f)).min()
    }

    /// Advances the model to `t` and returns every flow delivered at or
    /// before `t`, in id order. Bandwidth freed by flows that finished
    /// serializing is re-divided among the rest.
    ///
    /// # Panics
    ///
    /// Panics if `t` is before the model's clock.
    pub fn advance(&mut self, t: TimePs) -> Vec<FlowDone> {
        self.advance_to(t);
        let mut out = Vec::new();
        // `retain` visits flows in id order.
        self.flows.retain(|&id, f| {
            let Some(done_ps) = f.done_ps.filter(|&d| d <= t) else {
                return true;
            };
            #[cfg(feature = "sanitize")]
            {
                // A delivered flow has serialized its very last byte: the
                // clamp in `advance_segment` guarantees exactness, not
                // just epsilon-closeness.
                debug_assert!(
                    f.remaining == 0.0,
                    "sanitize: flow {id} delivered with {} bytes unserialized",
                    f.remaining
                );
                self.sanitize_delivered += f.bytes;
            }
            out.push(FlowDone {
                id,
                start_ps: f.start_ps,
                done_ps,
                nominal_ps: f.nominal_ps,
                bottleneck: f.bottleneck,
                bytes: f.bytes,
            });
            false
        });
        // Whether flows were delivered or merely finished serializing,
        // the active set may have changed — re-divide.
        self.recompute();
        #[cfg(feature = "sanitize")]
        {
            // Exact KV-byte conservation in u64: every byte ever admitted
            // is either delivered or still attached to an in-flight flow.
            let in_flight: u64 = self.flows.values().map(|f| f.bytes).sum();
            debug_assert!(
                self.sanitize_admitted == self.sanitize_delivered + in_flight,
                "sanitize: fabric bytes leaked (admitted {} != delivered {} + in-flight {})",
                self.sanitize_admitted,
                self.sanitize_delivered,
                in_flight
            );
        }
        out
    }

    /// When flow `f` next needs attention: its serialization end while
    /// bytes remain, its delivery time once serialized. Never before the
    /// model clock — a delivery the clock has already passed (a flow
    /// admission jumped time forward) is due *now*, with its true
    /// earlier completion time preserved in the [`FlowDone`] record.
    fn flow_event_ps(&self, f: &Flow) -> TimePs {
        match f.done_ps {
            Some(done) => done.max(self.now_ps),
            None if f.rate <= 0.0 => {
                // Stalled by a zero-capacity (partitioned) link: no
                // event until capacity returns.
                TimePs::MAX
            }
            None => self.now_ps.saturating_add((f.remaining / f.rate).ceil() as TimePs),
        }
    }

    /// The next serialization end among active flows, under the current
    /// rates (internal recompute points; deliveries excluded).
    fn next_serialize_end_ps(&self) -> Option<TimePs> {
        self.flows.values().filter(|f| f.done_ps.is_none()).map(|f| self.flow_event_ps(f)).min()
    }

    /// Moves every flow's progress from the model clock to `t`, stopping
    /// at every intermediate serialization end to re-divide the freed
    /// bandwidth — rates are only constant *between* recompute points,
    /// so a single-leap integration past one would under-serve the
    /// surviving flows.
    fn advance_to(&mut self, t: TimePs) {
        assert!(t >= self.now_ps, "fabric time moved backwards ({t} < {})", self.now_ps);
        while let Some(event) = self.next_serialize_end_ps() {
            if event >= t {
                break;
            }
            self.advance_segment(event);
            self.recompute();
        }
        self.advance_segment(t);
    }

    /// Integrates one constant-rate segment from the model clock to `t`,
    /// fixing delivery times for flows whose last byte serializes in the
    /// segment.
    fn advance_segment(&mut self, t: TimePs) {
        let dt = (t - self.now_ps) as f64;
        if dt > 0.0 {
            for f in self.flows.values_mut() {
                if f.done_ps.is_some() {
                    continue;
                }
                // Clamp at the flow's residue: the ceil in the event
                // time can overshoot the exact serialization end by a
                // fraction of a picosecond, and byte conservation must
                // not drift.
                let moved = (f.rate * dt).min(f.remaining);
                f.remaining -= moved;
                for &l in &f.path {
                    self.carried[l] += moved;
                }
                if f.remaining <= 0.0 {
                    f.remaining = 0.0;
                    f.done_ps = Some(t.saturating_add(f.latency_ps));
                }
            }
            self.now_ps = t;
        }
    }

    /// Progressive filling: re-divides every link's capacity among the
    /// flows still serializing. Deterministic — flows fill in id order
    /// and ties between equally-contended links break toward the lowest
    /// link index.
    fn recompute(&mut self) {
        self.alloc.iter_mut().for_each(|a| *a = 0.0);
        let mut spare = self.caps.clone();
        // Flows still serializing; each freezes at its bottleneck share.
        let unfrozen = self.flows.values().filter(|f| f.done_ps.is_none()).count();
        let mut frozen: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
        while frozen.len() < unfrozen {
            // Count unfrozen flows per link.
            let mut load = vec![0usize; self.caps.len()];
            for (id, f) in &self.flows {
                if f.done_ps.is_some() || frozen.contains(id) {
                    continue;
                }
                for &l in &f.path {
                    load[l] += 1;
                }
            }
            // The most-contended link: smallest equal share.
            #[expect(
                clippy::expect_used,
                reason = "`start` refuses an empty path, so every unfrozen flow loads a link"
            )]
            let (bottleneck, share) = load
                .iter()
                .enumerate()
                .filter(|&(_, &n)| n > 0)
                .map(|(l, &n)| (l, spare[l] / n as f64))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("unfrozen flows cross at least one link");
            // Freeze every unfrozen flow crossing it at that share.
            for (&id, f) in &mut self.flows {
                let settled = f.done_ps.is_some() || frozen.contains(&id);
                if settled || !f.path.contains(&bottleneck) {
                    continue;
                }
                f.rate = share;
                f.bottleneck = bottleneck;
                frozen.insert(id);
                for &l in &f.path {
                    spare[l] = (spare[l] - share).max(0.0);
                    self.alloc[l] += share;
                }
            }
        }
        #[cfg(feature = "sanitize")]
        for (l, (&a, &c)) in self.alloc.iter().zip(&self.caps).enumerate() {
            // Progressive filling must never oversubscribe a link; the
            // epsilon covers float summation of per-flow shares.
            debug_assert!(
                a <= c * (1.0 + 1e-9) + 1e-12,
                "sanitize: link {l} allocated {a} B/ps over its {c} B/ps capacity"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(gbps: f64) -> LinkSpec {
        LinkSpec::new(gbps, 0.0)
    }

    #[test]
    fn lone_flow_gets_the_whole_link() {
        let mut m = FlowModel::new(&[link(1.0)]); // 0.001 B/ps
        m.start(1, &[0], 1_000_000, 0, 0, 0);
        // 1 MB at 1 GB/s = 1 ms = 1e9 ps.
        assert_eq!(m.next_event_ps(), Some(1_000_000_000));
        let done = m.advance(1_000_000_000);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].done_ps, 1_000_000_000);
        assert_eq!(m.in_flight(), 0);
    }

    #[test]
    fn two_flows_halve_and_finish_late() {
        let mut m = FlowModel::new(&[link(1.0)]);
        m.start(1, &[0], 1_000_000, 0, 0, 0);
        m.start(2, &[0], 1_000_000, 0, 0, 0);
        // Each gets half the link: 2 ms for both.
        assert_eq!(m.next_event_ps(), Some(2_000_000_000));
        let done = m.advance(2_000_000_000);
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].id, 1);
        assert_eq!(done[1].id, 2);
    }

    #[test]
    fn finishing_flow_speeds_up_the_survivor() {
        let mut m = FlowModel::new(&[link(1.0)]);
        m.start(1, &[0], 1_000_000, 0, 0, 0);
        // Halfway through, a second equal flow joins.
        let half = 500_000_000;
        assert!(m.advance(half).is_empty());
        m.start(2, &[0], 1_000_000, 0, 0, half);
        // Shared phase: flow 1's 0.5 MB residue at 0.5 GB/s = 1 ms.
        assert_eq!(m.next_event_ps(), Some(half + 1_000_000_000));
        let done = m.advance(half + 1_000_000_000);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, 1);
        // Flow 2's 0.5 MB residue now runs at full rate: 0.5 ms more.
        assert_eq!(m.next_event_ps(), Some(half + 1_500_000_000));
        assert_eq!(m.advance(half + 1_500_000_000).len(), 1);
    }

    #[test]
    fn latency_tail_frees_bandwidth_at_serialize_end() {
        let lat = 150_000; // 150 ns
        let mut m = FlowModel::new(&[LinkSpec::new(1.0, 150.0)]);
        m.start(1, &[0], 1_000_000, lat, 0, 0);
        m.start(2, &[0], 1_000_000, lat, 0, 0);
        // Both serialize by 2 ms; deliveries trail by the latency.
        let serialized = 2_000_000_000;
        assert_eq!(m.next_event_ps(), Some(serialized));
        assert!(m.advance(serialized).is_empty(), "latency tail still pending");
        assert_eq!(m.next_event_ps(), Some(serialized + lat));
        assert_eq!(m.advance(serialized + lat).len(), 2);
    }

    #[test]
    fn multi_link_path_bottlenecks_on_the_narrowest_hop() {
        // Path over a fat access link and a thin trunk: rate = trunk.
        let mut m = FlowModel::new(&[link(10.0), link(1.0)]);
        m.start(1, &[0, 1], 1_000_000, 0, 0, 0);
        assert_eq!(m.next_event_ps(), Some(1_000_000_000));
        let done = m.advance(1_000_000_000);
        assert_eq!(done[0].bottleneck, 1);
    }

    #[test]
    fn disjoint_flows_do_not_contend() {
        let mut m = FlowModel::new(&[link(1.0), link(1.0)]);
        m.start(1, &[0], 1_000_000, 0, 0, 0);
        m.start(2, &[1], 1_000_000, 0, 0, 0);
        // Each owns its link: both finish at 1 ms.
        assert_eq!(m.next_event_ps(), Some(1_000_000_000));
        assert_eq!(m.advance(1_000_000_000).len(), 2);
    }

    #[test]
    fn max_min_gives_the_unbottlenecked_flow_the_leftovers() {
        // Flows A and B share link 0; B also crosses thin link 1.
        // B freezes at 0.2 (link 1's cap), A takes the rest of link 0.
        let mut m = FlowModel::new(&[link(1.0), link(0.2)]);
        m.start(1, &[0], 8_000_000, 0, 0, 0); // A
        m.start(2, &[0, 1], 1_000_000, 0, 0, 0); // B
                                                 // B: 1 MB at 0.2 GB/s = 5 ms. A runs at 0.8 GB/s meanwhile (4 MB
                                                 // done), then reclaims the whole link for its last 4 MB: 4 ms.
        assert_eq!(m.next_event_ps(), Some(5_000_000_000));
        assert_eq!(m.advance(5_000_000_000)[0].id, 2);
        assert_eq!(m.next_event_ps(), Some(9_000_000_000));
        assert_eq!(m.advance(9_000_000_000)[0].id, 1);
    }

    #[test]
    fn zero_byte_flow_costs_latency_only() {
        let mut m = FlowModel::new(&[LinkSpec::new(1.0, 100.0)]);
        m.start(1, &[0], 0, 100_000, 100_000, 7);
        assert_eq!(m.next_event_ps(), Some(100_007));
        let done = m.advance(100_007);
        assert_eq!(done[0].done_ps, 100_007);
    }

    #[test]
    fn carried_bytes_integrate_per_link() {
        let mut m = FlowModel::new(&[link(1.0), link(1.0)]);
        m.start(1, &[0, 1], 1_000_000, 0, 0, 0);
        m.start(2, &[0], 1_000_000, 0, 0, 0);
        while let Some(t) = m.next_event_ps() {
            m.advance(t);
        }
        let carried = m.carried_bytes();
        assert!((carried[0] - 2_000_000.0).abs() < 1.0, "link 0 carried {}", carried[0]);
        assert!((carried[1] - 1_000_000.0).abs() < 1.0, "link 1 carried {}", carried[1]);
    }

    #[test]
    fn admission_jump_integrates_through_earlier_completions() {
        let mut m = FlowModel::new(&[link(1.0)]);
        m.start(1, &[0], 1_000_000, 0, 0, 0); // alone: done at 1 ms
                                              // Admitting a flow far past flow 1's completion must not leap
                                              // over it: flow 1 keeps its true (earlier) completion time and
                                              // surfaces as due immediately.
        m.start(2, &[0], 1_000_000, 0, 0, 5_000_000_000);
        assert_eq!(m.next_event_ps(), Some(5_000_000_000), "overdue delivery is due now");
        let done = m.advance(5_000_000_000);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, 1);
        assert_eq!(done[0].done_ps, 1_000_000_000, "true completion time preserved");
        // Flow 2 then owns the link: 1 ms from its admission.
        assert_eq!(m.next_event_ps(), Some(6_000_000_000));
        assert_eq!(m.advance(6_000_000_000)[0].id, 2);
    }

    #[test]
    fn capacity_change_reprices_in_flight_flows() {
        let mut m = FlowModel::new(&[link(1.0)]);
        m.start(1, &[0], 1_000_000, 0, 0, 0);
        // Halfway through, the link degrades to a quarter bandwidth: the
        // remaining 0.5 MB takes 2 ms instead of 0.5 ms.
        let half = 500_000_000;
        assert!(m.advance(half).is_empty());
        m.set_capacity(0, 0.25);
        assert_eq!(m.next_event_ps(), Some(half + 2_000_000_000));
        assert_eq!(m.advance(half + 2_000_000_000).len(), 1);
    }

    #[test]
    fn partition_stalls_flows_until_capacity_returns() {
        let mut m = FlowModel::new(&[link(1.0)]);
        m.start(1, &[0], 1_000_000, 0, 0, 0);
        let half = 500_000_000;
        assert!(m.advance(half).is_empty());
        m.set_capacity(0, 0.0);
        assert_eq!(m.next_event_ps(), Some(TimePs::MAX), "stalled: no event until recovery");
        // Time passes with no progress.
        assert!(m.advance(half + 1_000_000_000).is_empty());
        m.set_capacity(0, 1.0);
        // The surviving 0.5 MB finishes 0.5 ms after restoration.
        assert_eq!(m.next_event_ps(), Some(half + 1_500_000_000));
        assert_eq!(m.advance(half + 1_500_000_000).len(), 1);
    }

    #[test]
    #[should_panic(expected = "admitted twice")]
    fn duplicate_flow_ids_rejected() {
        let mut m = FlowModel::new(&[link(1.0)]);
        m.start(1, &[0], 10, 0, 0, 0);
        m.start(1, &[0], 10, 0, 0, 0);
    }
}
