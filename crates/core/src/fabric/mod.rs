//! The inter-replica KV-transfer fabric: named multi-link topologies
//! with a max–min fair-sharing flow model, plus the legacy FIFO wire as
//! a byte-identical discipline.
//!
//! A [`Fabric`] answers one question for the fleet engine: when does a
//! KV transfer committed at its ready time actually land on the decode
//! replica? Two disciplines exist:
//!
//! * **FIFO** ([`Fabric::fifo`]) — the legacy model: each link serves
//!   one transfer at a time, transfers pick the earliest-free link, and
//!   the completion time is known at commit. This replicates the
//!   pre-fabric engine exactly, so existing goldens stay byte-identical.
//! * **Fair** ([`Fabric::fair`]) — transfers become flows over a
//!   [`FabricGraph`] path and share bandwidth max–min fairly
//!   ([`FlowModel`]); completion times emerge from contention and are
//!   delivered through [`Fabric::advance`].
//!
//! The facade keeps the engine's event loop oblivious to which
//! discipline runs: it commits transfers, folds
//! [`next_event_ps`](Fabric::next_event_ps) into its virtual-time
//! horizon, and drains deliveries.

mod flow;
mod graph;

pub use flow::{FlowDone, FlowModel};
pub use graph::{FabricGraph, FabricTopology, NamedLink, RouteSpec};

use llmss_net::LinkSpec;
use llmss_sched::TimePs;

use crate::telemetry::{SimEvent, Telemetry};

/// One legacy FIFO link: serves a single transfer at a time.
#[derive(Debug, Clone, Copy, PartialEq)]
struct FifoLink {
    spec: LinkSpec,
    /// When the link frees up.
    free_ps: TimePs,
    /// Whether a chaos fault has partitioned the link (no bookings
    /// until it recovers).
    down: bool,
}

/// The outcome of committing a transfer to the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricCommit {
    /// FIFO discipline: the transfer is fully booked — the engine can
    /// schedule its arrival immediately.
    Booked {
        /// The link that carries the transfer.
        link: usize,
        /// When the transfer won its link.
        start_ps: TimePs,
        /// When the KV cache lands on the decode replica.
        done_ps: TimePs,
        /// Uncontended transfer time on that link (queueing excluded).
        nominal_ps: TimePs,
    },
    /// Fair discipline: the transfer is a flow in flight — its delivery
    /// arrives later through [`Fabric::advance`].
    InFlight {
        /// When the flow entered the fabric.
        start_ps: TimePs,
        /// Uncontended whole-path transfer time.
        nominal_ps: TimePs,
    },
}

/// Per-link usage for the report's fabric section.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkUsage {
    /// The link's display name.
    pub name: String,
    /// Nominal bandwidth in GB/s.
    pub bw_gbps: f64,
    /// Bytes the link carried over the whole run.
    pub carried_bytes: f64,
}

/// The fabric's contribution to the fleet report: what ran, over which
/// links, carrying how much. Only the fair discipline produces stats —
/// the FIFO wire keeps legacy reports byte-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricStats {
    /// The topology's display label (`star4`, `hier2x2`, ...).
    pub label: String,
    /// Per-link usage, in link order.
    pub links: Vec<LinkUsage>,
}

/// The transfer discipline behind the facade.
#[derive(Debug)]
enum FabricMode {
    Fifo { links: Vec<FifoLink> },
    Fair { label: String, graph: FabricGraph, model: FlowModel },
}

/// The inter-replica KV-transfer fabric behind the fleet engine.
#[derive(Debug)]
pub struct Fabric {
    mode: FabricMode,
    /// Flow/link event sink handle (off by default).
    telemetry: Telemetry,
}

impl Fabric {
    /// The legacy FIFO discipline over independent links: each transfer
    /// books the earliest-free link (lowest index on ties) whole. An
    /// empty link list means "no fabric" (a fleet without KV handoffs).
    pub fn fifo(links: Vec<LinkSpec>) -> Self {
        Self {
            mode: FabricMode::Fifo {
                links: links
                    .into_iter()
                    .map(|spec| FifoLink { spec, free_ps: 0, down: false })
                    .collect(),
            },
            telemetry: Telemetry::off(),
        }
    }

    /// The fair-sharing discipline over a topology graph, displayed
    /// under `label` in reports.
    pub fn fair(label: impl Into<String>, graph: FabricGraph) -> Self {
        let model = FlowModel::new(&graph.links().iter().map(|l| l.spec).collect::<Vec<_>>());
        Self {
            mode: FabricMode::Fair { label: label.into(), graph, model },
            telemetry: Telemetry::off(),
        }
    }

    /// Attaches an event sink: the fabric emits flow start/finish and
    /// per-link carried-bytes (re-share) events.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Whether the fabric has any link to ship KV caches over.
    pub fn has_links(&self) -> bool {
        match &self.mode {
            FabricMode::Fifo { links } => !links.is_empty(),
            FabricMode::Fair { .. } => true,
        }
    }

    /// The replica count the fabric routes between — `None` for the
    /// FIFO discipline, whose links are endpoint-agnostic.
    pub fn endpoints(&self) -> Option<usize> {
        match &self.mode {
            FabricMode::Fifo { .. } => None,
            FabricMode::Fair { graph, .. } => Some(graph.endpoints()),
        }
    }

    /// Commits one KV transfer of `bytes` from replica `from` to
    /// replica `to`, ready to ship at `ready_ps`. FIFO returns the full
    /// booking; fair admits a flow whose delivery surfaces later via
    /// [`advance`](Self::advance).
    ///
    /// # Panics
    ///
    /// Panics when the fabric has no links, or (fair) when an endpoint
    /// lies outside the graph or the id was committed twice.
    pub fn commit(
        &mut self,
        id: u64,
        from: usize,
        to: usize,
        bytes: u64,
        ready_ps: TimePs,
    ) -> FabricCommit {
        match &mut self.mode {
            FabricMode::Fifo { links } => {
                // Earliest-free link, lowest index on ties (a single
                // link degenerates to the classic shared-FIFO wire).
                #[expect(
                    clippy::expect_used,
                    reason = "commit only books transfers whose path has a live link"
                )]
                let link = links
                    .iter()
                    .enumerate()
                    .filter(|(_, l)| !l.down)
                    .min_by_key(|(i, l)| (l.free_ps, *i))
                    .map(|(i, _)| i)
                    .expect("a transfer committed with every link partitioned");
                let start_ps = ready_ps.max(links[link].free_ps);
                let nominal_ps = links[link].spec.transfer_ps(bytes);
                let done_ps = start_ps + nominal_ps;
                links[link].free_ps = done_ps;
                // FIFO bookings resolve at commit, so the whole flow
                // lifecycle (and its link occupancy) is emitted here.
                self.telemetry.emit(|| SimEvent::FlowStart { t_ps: start_ps, id, bytes });
                self.telemetry.emit(|| SimEvent::FlowEnd { t_ps: done_ps, id });
                self.telemetry.emit(|| SimEvent::LinkShare {
                    from_ps: start_ps,
                    to_ps: done_ps,
                    link: format!("link{link}"),
                    bw_gbps: links[link].spec.bw_gbps,
                    bytes: bytes as f64,
                });
                FabricCommit::Booked { link, start_ps, done_ps, nominal_ps }
            }
            FabricMode::Fair { graph, model, .. } => {
                let path = graph.path(from, to);
                let latency_ps = graph.path_latency_ps(&path);
                let nominal_ps = graph.nominal_ps(&path, bytes);
                // The engine commits in nondecreasing ready order, but a
                // burst of same-instant commits may interleave with
                // deliveries; never start behind the fabric clock.
                let start_ps = ready_ps.max(model.now_ps());
                model.start(id, &path, bytes, latency_ps, nominal_ps, start_ps);
                self.telemetry.emit(|| SimEvent::FlowStart { t_ps: start_ps, id, bytes });
                FabricCommit::InFlight { start_ps, nominal_ps }
            }
        }
    }

    /// The next time anything happens inside the fabric (fair only:
    /// a flow finishes serializing or gets delivered). `None` for FIFO
    /// — bookings resolve at commit — or an idle fabric.
    pub fn next_event_ps(&self) -> Option<TimePs> {
        match &self.mode {
            FabricMode::Fifo { .. } => None,
            FabricMode::Fair { model, .. } => model.next_event_ps(),
        }
    }

    /// Advances the fair fabric to `t`, returning every flow delivered
    /// by then in id order. A no-op (empty) for FIFO.
    pub fn advance(&mut self, t: TimePs) -> Vec<FlowDone> {
        match &mut self.mode {
            FabricMode::Fifo { .. } => Vec::new(),
            FabricMode::Fair { graph, model, .. } => {
                if !self.telemetry.is_on() {
                    return model.advance(t);
                }
                // Deltas of the carried-bytes integrals over this
                // advance are exactly what each link shipped in
                // [now, t] under the current fair shares.
                let from_ps = model.now_ps();
                let before: Vec<f64> = model.carried_bytes().to_vec();
                let done = model.advance(t);
                let to_ps = model.now_ps();
                for d in &done {
                    self.telemetry.emit(|| SimEvent::FlowEnd { t_ps: d.done_ps, id: d.id });
                }
                for (i, (link, &after)) in
                    graph.links().iter().zip(model.carried_bytes()).enumerate()
                {
                    let delta = after - before[i];
                    if delta > 0.0 {
                        self.telemetry.emit(|| SimEvent::LinkShare {
                            from_ps,
                            to_ps,
                            link: link.name.clone(),
                            bw_gbps: link.spec.bw_gbps,
                            bytes: delta,
                        });
                    }
                }
                done
            }
        }
    }

    /// The fair fabric's clock — the last recompute point (0 for FIFO,
    /// which keeps no clock).
    pub fn now_ps(&self) -> TimePs {
        match &self.mode {
            FabricMode::Fifo { .. } => 0,
            FabricMode::Fair { model, .. } => model.now_ps(),
        }
    }

    /// Flows currently in the fair fabric (always 0 for FIFO).
    pub fn in_flight(&self) -> usize {
        match &self.mode {
            FabricMode::Fifo { .. } => 0,
            FabricMode::Fair { model, .. } => model.in_flight(),
        }
    }

    /// How many links the fabric runs over (0 = no fabric).
    pub fn link_count(&self) -> usize {
        match &self.mode {
            FabricMode::Fifo { links } => links.len(),
            FabricMode::Fair { graph, .. } => graph.links().len(),
        }
    }

    /// The current bandwidth of link `link` in GB/s — zero for a
    /// partitioned FIFO link or a zero-capacity fair link.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range link.
    pub fn link_bw_gbps(&self, link: usize) -> f64 {
        match &self.mode {
            FabricMode::Fifo { links } => {
                if links[link].down {
                    0.0
                } else {
                    links[link].spec.bw_gbps
                }
            }
            FabricMode::Fair { model, .. } => model.capacities()[link] * 1000.0,
        }
    }

    /// Re-prices link `link` to `gbps` mid-run (chaos degradation).
    /// Zero partitions the link: FIFO stops booking it until a non-zero
    /// bandwidth restores it; the fair model stalls flows crossing it.
    /// FIFO degradation re-prices future bookings only — a booked FIFO
    /// transfer models an already-scheduled DMA.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range link or an invalid bandwidth.
    pub fn set_link_bw_gbps(&mut self, link: usize, gbps: f64) {
        assert!(gbps.is_finite() && gbps >= 0.0, "link {link} given invalid bandwidth {gbps}");
        match &mut self.mode {
            FabricMode::Fifo { links } => {
                #[expect(
                    clippy::expect_used,
                    reason = "link indices come from the fabric's own route table"
                )]
                let l = links.get_mut(link).expect("link index inside the fabric");
                if gbps > 0.0 {
                    l.spec.bw_gbps = gbps;
                    l.down = false;
                } else {
                    l.down = true;
                }
            }
            FabricMode::Fair { model, .. } => model.set_capacity(link, gbps),
        }
    }

    /// Whether every FIFO link is partitioned — no booking can proceed
    /// until one recovers. Always `false` for the fair discipline,
    /// whose commits admit flows that simply stall.
    pub fn fully_partitioned(&self) -> bool {
        match &self.mode {
            FabricMode::Fifo { links } => !links.is_empty() && links.iter().all(|l| l.down),
            FabricMode::Fair { .. } => false,
        }
    }

    /// The fabric's report contribution — `Some` only for the fair
    /// discipline, so FIFO-configured fleets keep byte-identical legacy
    /// reports.
    pub fn stats(&self) -> Option<FabricStats> {
        match &self.mode {
            FabricMode::Fifo { .. } => None,
            FabricMode::Fair { label, graph, model } => Some(FabricStats {
                label: label.clone(),
                links: graph
                    .links()
                    .iter()
                    .zip(model.carried_bytes())
                    .map(|(l, &carried)| LinkUsage {
                        name: l.name.clone(),
                        bw_gbps: l.spec.bw_gbps,
                        carried_bytes: carried,
                    })
                    .collect(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_books_earliest_free_link_with_tie_toward_lowest_index() {
        let link = LinkSpec::new(1.0, 0.0);
        let mut f = Fabric::fifo(vec![link, link]);
        // 1 MB at 1 GB/s = 1 ms on either link.
        let FabricCommit::Booked { link: l0, start_ps, done_ps, .. } =
            f.commit(1, 0, 1, 1_000_000, 0)
        else {
            panic!("fifo commits book");
        };
        assert_eq!((l0, start_ps, done_ps), (0, 0, 1_000_000_000));
        // Second transfer takes the idle link 1; third queues behind
        // whichever frees first (link 0).
        let FabricCommit::Booked { link: l1, .. } = f.commit(2, 0, 1, 1_000_000, 0) else {
            panic!()
        };
        assert_eq!(l1, 1);
        let FabricCommit::Booked { link: l2, start_ps, .. } = f.commit(3, 0, 1, 1_000_000, 0)
        else {
            panic!()
        };
        assert_eq!((l2, start_ps), (0, 1_000_000_000));
        assert!(f.stats().is_none(), "FIFO contributes no report section");
        assert_eq!(f.next_event_ps(), None);
    }

    #[test]
    fn fifo_partition_diverts_bookings_until_restored() {
        let link = LinkSpec::new(1.0, 0.0);
        let mut f = Fabric::fifo(vec![link, link]);
        f.set_link_bw_gbps(0, 0.0);
        assert!(!f.fully_partitioned());
        assert_eq!(f.link_bw_gbps(0), 0.0);
        let FabricCommit::Booked { link: l, .. } = f.commit(1, 0, 1, 1_000_000, 0) else {
            panic!()
        };
        assert_eq!(l, 1, "bookings avoid the partitioned link");
        f.set_link_bw_gbps(1, 0.0);
        assert!(f.fully_partitioned());
        // Recovery at a degraded bandwidth re-prices future bookings.
        f.set_link_bw_gbps(0, 2.0);
        assert!(!f.fully_partitioned());
        assert_eq!(f.link_bw_gbps(0), 2.0);
        let FabricCommit::Booked { link: l, nominal_ps, .. } = f.commit(2, 0, 1, 1_000_000, 0)
        else {
            panic!()
        };
        assert_eq!(l, 0);
        assert_eq!(nominal_ps, 500_000_000, "1 MB at 2 GB/s");
    }

    #[test]
    fn fair_flows_round_trip_through_the_facade() {
        let g = FabricGraph::single(2, LinkSpec::new(1.0, 0.0));
        let mut f = Fabric::fair("single", g);
        let FabricCommit::InFlight { start_ps, nominal_ps } = f.commit(7, 0, 1, 1_000_000, 5)
        else {
            panic!("fair commits stay in flight");
        };
        assert_eq!((start_ps, nominal_ps), (5, 1_000_000_000));
        assert_eq!(f.in_flight(), 1);
        let t = f.next_event_ps().expect("one flow pending");
        let done = f.advance(t);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, 7);
        assert_eq!(done[0].done_ps, 5 + 1_000_000_000);
        let stats = f.stats().expect("fair reports per-link usage");
        assert_eq!(stats.label, "single");
        assert_eq!(stats.links.len(), 1);
        assert!((stats.links[0].carried_bytes - 1_000_000.0).abs() < 1.0);
    }
}
