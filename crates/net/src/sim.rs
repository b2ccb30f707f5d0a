//! The system-level graph simulator (ASTRA-sim analog).
//!
//! Executes an [`ExecGraph`] on a [`Topology`]: accelerators run their
//! operations in dependency + readiness order, collectives occupy whole
//! groups and advance in ring steps, point-to-point transfers serialize on
//! sender links, and host transfers contend on the shared host link.
//!
//! Collectives are simulated step-by-step (one event per ring step), so the
//! simulation cost — like ASTRA-sim's — grows with the number of nodes;
//! this is the effect the paper's Figure 10 measures.

use crate::{EventQueue, ExecGraph, ExecNodeId, ExecPayload, TimePs, Topology};

#[cfg(test)]
use crate::CollectiveKind;

/// Per-run outcome of a graph simulation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimOutcome {
    /// Completion time of the last operation (iteration latency).
    pub makespan_ps: TimePs,
    /// Busy picoseconds per accelerator node.
    pub node_busy_ps: Vec<TimePs>,
    /// Completion time of every graph operation.
    pub completions: Vec<TimePs>,
    /// Total events processed (proxy for simulator work).
    pub events: u64,
    /// Aggregate time spent in compute ops.
    pub compute_ps: TimePs,
    /// Aggregate time spent in communication ops (collectives + P2P).
    pub comm_ps: TimePs,
    /// Aggregate time spent in host memory transfers.
    pub host_ps: TimePs,
}

impl SimOutcome {
    /// Average accelerator utilization over the makespan.
    pub fn utilization(&self) -> f64 {
        if self.makespan_ps == 0 || self.node_busy_ps.is_empty() {
            return 0.0;
        }
        let busy: u128 = self.node_busy_ps.iter().map(|&b| b as u128).sum();
        busy as f64 / (self.makespan_ps as f64 * self.node_busy_ps.len() as f64)
    }
}

#[derive(Debug)]
enum Event {
    Ready(ExecNodeId),
    Done(ExecNodeId),
    /// One ring step of a collective finished (bookkeeping only; the
    /// final step carries the `Done`).
    Step,
}

/// Errors a graph simulation can report before running.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// An op references an accelerator outside the topology.
    NodeOutOfRange {
        /// Offending op id.
        op: ExecNodeId,
        /// Referenced accelerator node.
        node: usize,
    },
    /// A collective references a group the topology does not define.
    GroupOutOfRange {
        /// Offending op id.
        op: ExecNodeId,
        /// Referenced group.
        group: usize,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::NodeOutOfRange { op, node } => {
                write!(f, "op {op} targets accelerator {node} outside the topology")
            }
            SimError::GroupOutOfRange { op, group } => {
                write!(f, "op {op} targets undefined group {group}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// A run of identical blocks that an [`ExecGraph`] holds only in part
/// (block folding).
///
/// The graph holds the first `emitted` copies of one block template back
/// to back from `first_op`. The unfolded graph holds `total` copies,
/// followed by the ops that follow the emitted ones here. Whoever builds
/// the graph promises that every further copy is the last emitted block
/// with its ids shifted by `ops_per_block`;
/// [`GraphSimulator::simulate_folded`] checks everything else it relies
/// on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockRun {
    /// Id of the first op of the first block.
    pub first_op: ExecNodeId,
    /// Ops per block.
    pub ops_per_block: usize,
    /// Blocks the graph holds.
    pub emitted: usize,
    /// Blocks the unfolded graph holds.
    pub total: usize,
}

impl BlockRun {
    /// Blocks the graph leaves out.
    pub fn skipped(&self) -> usize {
        self.total.saturating_sub(self.emitted)
    }

    /// Ops the graph leaves out.
    pub fn skipped_ops(&self) -> usize {
        self.skipped() * self.ops_per_block
    }
}

/// A watched block boundary of a folded run. It fires once every op with
/// a lower id has finished.
#[derive(Debug, Clone, Copy)]
struct Cut {
    /// Id of the first op of the block that starts here.
    at: ExecNodeId,
    /// Ops per block.
    len: usize,
    /// 0 on the first cut of a pair (the start of the last emitted
    /// block); on the second (the end of the emitted blocks), the blocks
    /// the graph leaves out.
    skipped: u64,
}

/// The running totals a folded run extrapolates, read at a cut.
#[derive(Debug, Clone, Copy, Default)]
struct Totals {
    time: TimePs,
    events: u64,
    compute: TimePs,
    comm: TimePs,
    host: TimePs,
}

impl Totals {
    /// Adds `n` times the change from `from` to `to`.
    fn add_scaled(&mut self, from: Totals, to: Totals, n: u64) {
        self.time += n * (to.time - from.time);
        self.events += n * (to.events - from.events);
        self.compute += n * (to.compute - from.compute);
        self.comm += n * (to.comm - from.comm);
        self.host += n * (to.host - from.host);
    }
}

/// A graph simulator whose working state (dependency counts, CSR
/// successor lists, node timelines, the event heap, and the outcome
/// buffers) persists across runs.
///
/// [`simulate_graph`] builds this state from scratch on every call; a
/// serving loop simulating hundreds of thousands of iteration graphs
/// instead holds one `GraphSimulator` and amortizes every allocation —
/// after warm-up the simulate path performs none.
///
/// # Examples
///
/// ```
/// use llmss_net::{ExecGraph, ExecPayload, GraphSimulator, LinkSpec, Topology};
///
/// let topo = Topology::flat_npus(1, LinkSpec::pcie4_x16());
/// let mut sim = GraphSimulator::new();
/// let mut g = ExecGraph::new();
/// for step in 0..3 {
///     g.clear(); // reuse the graph arena, too
///     let a = g.add(0, ExecPayload::Compute { ps: 100 * (step + 1) }, &[], "a");
///     g.add(0, ExecPayload::Compute { ps: 50 }, &[a], "b");
///     let out = sim.simulate(&g, &topo)?;
///     assert_eq!(out.makespan_ps, 100 * (step + 1) + 50);
/// }
/// # Ok::<(), llmss_net::SimError>(())
/// ```
#[derive(Debug, Default)]
pub struct GraphSimulator {
    /// Unmet dependency count per op (consumed during the run).
    indegree: Vec<u32>,
    /// CSR offsets into `succ`: op `i`'s successors live at
    /// `succ[succ_start[i]..succ_start[i + 1]]`.
    succ_start: Vec<u32>,
    /// Flattened successor ids.
    succ: Vec<u32>,
    /// Write cursors while filling `succ` (scratch).
    cursor: Vec<u32>,
    /// Next free time per accelerator node.
    node_free: Vec<TimePs>,
    /// The deterministic event heap (allocation reused across runs).
    queue: EventQueue<Event>,
    /// Outcome buffers, overwritten per run.
    outcome: SimOutcome,
    /// Cuts a folded run watches, in id order (two per folded run).
    cuts: Vec<Cut>,
    /// The ready ops at the cut just fired: (sequence number, offset
    /// into the block), in queue order.
    pending: Vec<(u64, usize)>,
    /// The ready-op offsets at the first cut of the pair being watched.
    first_pending: Vec<usize>,
}

impl GraphSimulator {
    /// Creates a simulator with empty (lazily grown) buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Executes `graph` on `topology`; the returned outcome borrows this
    /// simulator's buffers and is valid until the next call.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the graph references nodes or groups that
    /// do not exist in the topology.
    pub fn simulate(
        &mut self,
        graph: &ExecGraph,
        topology: &Topology,
    ) -> Result<&SimOutcome, SimError> {
        validate(graph, topology)?;
        self.cuts.clear();
        let proved = self.run(graph, topology);
        debug_assert!(proved, "a run without cuts has nothing to prove");
        Ok(&self.outcome)
    }

    /// Executes a folded `graph` and extrapolates its outcome to the
    /// unfolded graph, or returns `None` when the run cannot prove that
    /// the left-out blocks repeat.
    ///
    /// For every run in `runs` that leaves blocks out, the DES watches two
    /// cuts: the start of the last emitted block and the start of the ops
    /// after it. A cut fires when every op with a lower id has finished.
    /// It is *clean* when no op at or past it has started, the only
    /// pending events are `Ready` events of the block's own ops due at
    /// the cut time, and every node and the host link are free by then.
    /// If both cuts are clean, their ready ops sit at the same offsets in
    /// the same queue order, and the ops after the emitted blocks depend
    /// on the last one as a next block would, the two states differ only
    /// by a time shift. The DES is deterministic, so each left-out block
    /// would repeat that shift exactly. Makespan, events, compute, comm
    /// and host time then grow by the blocks left out times the change
    /// between the two cuts; the result equals an unfolded run's.
    ///
    /// `completions` and `node_busy_ps` of the returned outcome cover
    /// the emitted ops only.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the graph references nodes or groups that
    /// do not exist in the topology.
    pub fn simulate_folded(
        &mut self,
        graph: &ExecGraph,
        topology: &Topology,
        runs: &[BlockRun],
    ) -> Result<Option<&SimOutcome>, SimError> {
        validate(graph, topology)?;
        self.cuts.clear();
        for run in runs {
            if run.skipped() == 0 {
                continue;
            }
            if run.emitted < 2 || !frontier_repeats(graph, run) {
                return Ok(None);
            }
            let len = run.ops_per_block;
            let end = run.first_op + run.emitted * len;
            self.cuts.push(Cut { at: end - len, len, skipped: 0 });
            self.cuts.push(Cut { at: end, len, skipped: run.skipped() as u64 });
        }
        debug_assert!(
            self.cuts.windows(2).all(|w| w[0].at < w[1].at),
            "block runs must be disjoint and in id order"
        );
        Ok(self.run(graph, topology).then_some(&self.outcome))
    }

    /// Runs the DES over a validated graph, watching `self.cuts`.
    /// Returns `false` as soon as a cut is not clean or two paired cuts
    /// disagree; otherwise the outcome holds the extrapolated totals.
    fn run(&mut self, graph: &ExecGraph, topology: &Topology) -> bool {
        let n_ops = graph.len();
        self.indegree.clear();
        self.indegree.resize(n_ops, 0);
        self.succ_start.clear();
        self.succ_start.resize(n_ops + 1, 0);
        for (id, op) in graph.iter() {
            self.indegree[id] = op.deps.len() as u32;
            for &d in &op.deps {
                self.succ_start[d + 1] += 1;
            }
        }
        for i in 0..n_ops {
            self.succ_start[i + 1] += self.succ_start[i];
        }
        self.succ.clear();
        self.succ.resize(self.succ_start[n_ops] as usize, 0);
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.succ_start[..n_ops]);
        for (id, op) in graph.iter() {
            for &d in &op.deps {
                self.succ[self.cursor[d] as usize] = id as u32;
                self.cursor[d] += 1;
            }
        }

        self.queue.reset();
        for (id, &deg) in self.indegree.iter().enumerate() {
            if deg == 0 {
                self.queue.push(0, Event::Ready(id));
            }
        }

        self.node_free.clear();
        self.node_free.resize(topology.n_nodes(), 0);
        let out = &mut self.outcome;
        out.node_busy_ps.clear();
        out.node_busy_ps.resize(topology.n_nodes(), 0);
        out.completions.clear();
        out.completions.resize(n_ops, 0);
        out.makespan_ps = 0;
        out.compute_ps = 0;
        out.comm_ps = 0;
        out.host_ps = 0;

        let node_free = &mut self.node_free;
        let node_busy = &mut out.node_busy_ps;
        let mut host_free: TimePs = 0;
        let mut done = 0usize;
        // The cut being watched, and how many ops below it have finished.
        let mut next_cut = 0;
        let mut watch = self.cuts.first().map_or(usize::MAX, |c| c.at);
        let mut below = 0usize;
        // Totals at the first cut of the pair being watched, and what the
        // left-out blocks add.
        let mut first = Totals::default();
        let mut skipped = Totals::default();

        while let Some((now, event)) = self.queue.pop() {
            match event {
                Event::Step => {}
                Event::Ready(id) => {
                    if id >= watch {
                        // An op at or past the watched cut starts before
                        // every op below it has finished: not clean.
                        return false;
                    }
                    let op = graph.op(id);
                    match op.payload {
                        ExecPayload::Compute { ps } => {
                            let start = now.max(node_free[op.node]);
                            let end = start + ps;
                            node_free[op.node] = end;
                            node_busy[op.node] += ps;
                            out.compute_ps += ps;
                            self.queue.push(end, Event::Done(id));
                        }
                        ExecPayload::Collective { kind, bytes, group } => {
                            let members = &topology.groups()[group];
                            let n = members.len();
                            let link = topology.group_link(group);
                            let start =
                                members.iter().fold(now, |acc, &m| acc.max(node_free[m]));
                            let steps = kind.steps(n);
                            let step_ps = crate::step_time_ps(kind, n, bytes, &link);
                            let end = start + steps as TimePs * step_ps;
                            for &m in members {
                                node_free[m] = end;
                                node_busy[m] += end - start;
                            }
                            out.comm_ps += end - start;
                            // One event per intermediate ring step models
                            // the per-step coordination cost of the system
                            // simulator.
                            for s in 1..steps {
                                self.queue.push(start + s as TimePs * step_ps, Event::Step);
                            }
                            self.queue.push(end, Event::Done(id));
                        }
                        ExecPayload::P2p { bytes, dst } => {
                            let link = topology.link_between(op.node, dst);
                            let start = now.max(node_free[op.node]);
                            let ser = link.serialize_ps(bytes);
                            let arrive = start + link.transfer_ps(bytes);
                            // Sender occupied for serialization only.
                            node_free[op.node] = start + ser;
                            node_busy[op.node] += ser;
                            out.comm_ps += arrive - start;
                            self.queue.push(arrive, Event::Done(id));
                        }
                        ExecPayload::HostStore { bytes } | ExecPayload::HostLoad { bytes } => {
                            let link = topology.host_link();
                            let start = now.max(node_free[op.node]).max(host_free);
                            let end = start + link.transfer_ps(bytes);
                            host_free = end;
                            node_free[op.node] = node_free[op.node].max(end);
                            out.host_ps += end - start;
                            self.queue.push(end, Event::Done(id));
                        }
                    }
                }
                Event::Done(id) => {
                    out.completions[id] = now;
                    out.makespan_ps = out.makespan_ps.max(now);
                    done += 1;
                    let lo = self.succ_start[id] as usize;
                    let hi = self.succ_start[id + 1] as usize;
                    for &s in &self.succ[lo..hi] {
                        let s = s as usize;
                        self.indegree[s] -= 1;
                        if self.indegree[s] == 0 {
                            self.queue.push(now, Event::Ready(s));
                        }
                    }
                    if id >= watch {
                        continue;
                    }
                    below += 1;
                    if below < watch {
                        continue;
                    }
                    // Every op below the cut has finished and none at or
                    // past it has started, so `below` stays right for the
                    // next cut.
                    let cut = self.cuts[next_cut];
                    if !cut_is_clean(
                        &self.queue,
                        &cut,
                        now,
                        node_free,
                        host_free,
                        &mut self.pending,
                    ) {
                        return false;
                    }
                    let here = Totals {
                        time: now,
                        events: self.queue.processed(),
                        compute: out.compute_ps,
                        comm: out.comm_ps,
                        host: out.host_ps,
                    };
                    let offsets = self.pending.iter().map(|&(_, offset)| offset);
                    if cut.skipped == 0 {
                        first = here;
                        self.first_pending.clear();
                        self.first_pending.extend(offsets);
                    } else if offsets.eq(self.first_pending.iter().copied()) {
                        skipped.add_scaled(first, here, cut.skipped);
                    } else {
                        return false;
                    }
                    next_cut += 1;
                    watch = self.cuts.get(next_cut).map_or(usize::MAX, |c| c.at);
                }
            }
        }

        debug_assert_eq!(done, n_ops, "all ops must complete");
        if next_cut < self.cuts.len() {
            return false;
        }
        out.events = self.queue.processed() + skipped.events;
        out.makespan_ps += skipped.time;
        out.compute_ps += skipped.compute;
        out.comm_ps += skipped.comm;
        out.host_ps += skipped.host;
        true
    }
}

/// Whether the ops after the last emitted block of `run` depend on it
/// the way that block depends on the one before: for every offset in a
/// block, the dependencies below the block boundary, counted back from
/// it, are the same. A next block of the unfolded graph depends on the
/// last emitted one exactly like that, so a DES state reached at the end
/// of the emitted blocks is also the state that next block starts from.
fn frontier_repeats(graph: &ExecGraph, run: &BlockRun) -> bool {
    let len = run.ops_per_block;
    let end = run.first_op + run.emitted * len;
    if len == 0 || end > graph.len() {
        return false;
    }
    let last = end - len;
    let back = |cut: ExecNodeId, id: ExecNodeId| {
        graph.op(id).deps.iter().filter(move |&&d| d < cut).map(move |&d| cut - d)
    };
    (0..len).all(|j| {
        if end + j < graph.len() {
            back(last, last + j).eq(back(end, end + j))
        } else {
            back(last, last + j).next().is_none()
        }
    })
}

/// Whether the DES state at a fired cut is clean: every node and the
/// host link are free by `now`, and every pending event is a `Ready` of
/// the cut's block due now. Fills `pending` with the ready ops'
/// (sequence number, offset into the block), in queue order.
fn cut_is_clean(
    queue: &EventQueue<Event>,
    cut: &Cut,
    now: TimePs,
    node_free: &[TimePs],
    host_free: TimePs,
    pending: &mut Vec<(u64, usize)>,
) -> bool {
    if host_free > now || node_free.iter().any(|&t| t > now) {
        return false;
    }
    pending.clear();
    for (time, seq, event) in queue.pending() {
        match *event {
            Event::Ready(id) if time == now && (cut.at..cut.at + cut.len).contains(&id) => {
                pending.push((seq, id - cut.at));
            }
            _ => return false,
        }
    }
    pending.sort_unstable();
    true
}

/// Executes `graph` on `topology`, returning timing and utilization.
///
/// One-shot convenience over [`GraphSimulator`]: state is built from
/// scratch and the outcome is returned by value. Loops simulating many
/// graphs should hold a `GraphSimulator` instead.
///
/// # Errors
///
/// Returns [`SimError`] if the graph references nodes or groups that do not
/// exist in the topology.
///
/// # Examples
///
/// ```
/// use llmss_net::{simulate_graph, ExecGraph, ExecPayload, LinkSpec, Topology};
///
/// let topo = Topology::flat_npus(2, LinkSpec::pcie4_x16());
/// let mut g = ExecGraph::new();
/// let a = g.add(0, ExecPayload::Compute { ps: 1_000 }, &[], "a");
/// let b = g.add(1, ExecPayload::Compute { ps: 2_000 }, &[], "b");
/// g.add(0, ExecPayload::Compute { ps: 500 }, &[a, b], "join");
/// let out = simulate_graph(&g, &topo)?;
/// assert_eq!(out.makespan_ps, 2_500); // parallel 1000/2000, then 500
/// # Ok::<(), llmss_net::SimError>(())
/// ```
pub fn simulate_graph(graph: &ExecGraph, topology: &Topology) -> Result<SimOutcome, SimError> {
    let mut sim = GraphSimulator::new();
    sim.simulate(graph, topology)?;
    Ok(sim.outcome)
}

fn validate(graph: &ExecGraph, topology: &Topology) -> Result<(), SimError> {
    for (id, op) in graph.iter() {
        if op.node >= topology.n_nodes() {
            return Err(SimError::NodeOutOfRange { op: id, node: op.node });
        }
        match op.payload {
            ExecPayload::Collective { group, .. } if group >= topology.groups().len() => {
                return Err(SimError::GroupOutOfRange { op: id, group });
            }
            ExecPayload::P2p { dst, .. } if dst >= topology.n_nodes() => {
                return Err(SimError::NodeOutOfRange { op: id, node: dst });
            }
            _ => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LinkSpec;

    fn topo(n: usize) -> Topology {
        Topology::flat_npus(n, LinkSpec::new(64.0, 100.0))
    }

    #[test]
    fn sequential_compute_accumulates() {
        let mut g = ExecGraph::new();
        let a = g.add(0, ExecPayload::Compute { ps: 100 }, &[], "a");
        let b = g.add(0, ExecPayload::Compute { ps: 200 }, &[a], "b");
        g.add(0, ExecPayload::Compute { ps: 300 }, &[b], "c");
        let out = simulate_graph(&g, &topo(1)).unwrap();
        assert_eq!(out.makespan_ps, 600);
        assert_eq!(out.node_busy_ps, vec![600]);
        assert!((out.utilization() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn independent_ops_on_one_node_serialize() {
        let mut g = ExecGraph::new();
        g.add(0, ExecPayload::Compute { ps: 100 }, &[], "a");
        g.add(0, ExecPayload::Compute { ps: 100 }, &[], "b");
        let out = simulate_graph(&g, &topo(1)).unwrap();
        assert_eq!(out.makespan_ps, 200);
    }

    #[test]
    fn independent_ops_on_two_nodes_overlap() {
        let mut g = ExecGraph::new();
        g.add(0, ExecPayload::Compute { ps: 100 }, &[], "a");
        g.add(1, ExecPayload::Compute { ps: 150 }, &[], "b");
        let out = simulate_graph(&g, &topo(2)).unwrap();
        assert_eq!(out.makespan_ps, 150);
    }

    #[test]
    fn collective_waits_for_all_members() {
        let mut g = ExecGraph::new();
        g.add(0, ExecPayload::Compute { ps: 1_000 }, &[], "slow");
        let ar = g.add(
            1,
            ExecPayload::Collective {
                kind: CollectiveKind::AllReduce,
                bytes: 1 << 20,
                group: 0,
            },
            &[],
            "ar",
        );
        let out = simulate_graph(&g, &topo(2)).unwrap();
        // All-reduce cannot start before node 0 finishes its compute.
        let expected = crate::collective_time_ps(
            CollectiveKind::AllReduce,
            2,
            1 << 20,
            &LinkSpec::new(64.0, 100.0),
        );
        assert_eq!(out.completions[ar], 1_000 + expected);
    }

    #[test]
    fn collective_step_events_scale_with_group_size() {
        let run = |n: usize| {
            let mut g = ExecGraph::new();
            g.add(
                0,
                ExecPayload::Collective {
                    kind: CollectiveKind::AllReduce,
                    bytes: 1 << 20,
                    group: 0,
                },
                &[],
                "ar",
            );
            simulate_graph(&g, &topo(n)).unwrap().events
        };
        let e8 = run(8);
        let e64 = run(64);
        assert!(e64 > 6 * e8, "events must grow with group size: {e8} -> {e64}");
    }

    #[test]
    fn p2p_delivers_after_latency_and_serialization() {
        let mut g = ExecGraph::new();
        let send = g.add(0, ExecPayload::P2p { bytes: 64_000_000, dst: 1 }, &[], "send");
        g.add(1, ExecPayload::Compute { ps: 10 }, &[send], "recv-work");
        let out = simulate_graph(&g, &topo(2)).unwrap();
        // 64 MB at 64 GB/s = 1 ms = 1e9 ps, plus 100 ns latency.
        assert_eq!(out.completions[send], 1_000_000_000 + 100_000);
        assert_eq!(out.makespan_ps, out.completions[send] + 10);
    }

    #[test]
    fn host_transfers_contend_on_host_link() {
        let mut g = ExecGraph::new();
        g.add(0, ExecPayload::HostStore { bytes: 32_000_000 }, &[], "evict0");
        g.add(1, ExecPayload::HostStore { bytes: 32_000_000 }, &[], "evict1");
        let out = simulate_graph(&g, &topo(2)).unwrap();
        // Host link (32 GB/s): each 32 MB store takes 1 ms; they serialize.
        let one = LinkSpec::host_pcie().transfer_ps(32_000_000);
        assert_eq!(out.makespan_ps, 2 * one);
    }

    #[test]
    fn diamond_dependencies_join_correctly() {
        let mut g = ExecGraph::new();
        let a = g.add(0, ExecPayload::Compute { ps: 10 }, &[], "a");
        let b = g.add(0, ExecPayload::Compute { ps: 20 }, &[a], "b");
        let c = g.add(1, ExecPayload::Compute { ps: 50 }, &[a], "c");
        let d = g.add(0, ExecPayload::Compute { ps: 5 }, &[b, c], "d");
        let out = simulate_graph(&g, &topo(2)).unwrap();
        assert_eq!(out.completions[d], 10 + 50 + 5);
    }

    #[test]
    fn invalid_node_reported() {
        let mut g = ExecGraph::new();
        g.add(7, ExecPayload::Compute { ps: 1 }, &[], "x");
        let err = simulate_graph(&g, &topo(2)).unwrap_err();
        assert_eq!(err, SimError::NodeOutOfRange { op: 0, node: 7 });
    }

    #[test]
    fn invalid_group_reported() {
        let mut g = ExecGraph::new();
        g.add(
            0,
            ExecPayload::Collective { kind: CollectiveKind::AllGather, bytes: 1, group: 9 },
            &[],
            "x",
        );
        let err = simulate_graph(&g, &topo(2)).unwrap_err();
        assert_eq!(err, SimError::GroupOutOfRange { op: 0, group: 9 });
    }

    #[test]
    fn empty_graph_is_trivial() {
        let out = simulate_graph(&ExecGraph::new(), &topo(1)).unwrap();
        assert_eq!(out.makespan_ps, 0);
        assert_eq!(out.events, 0);
    }

    /// `blocks` copies of a two-node block (a compute per node joined by
    /// an all-reduce over group 0) between a head op and two tail ops
    /// that depend on the last block as a next block would. `prelude`
    /// ops go first, before the head.
    fn blocked(blocks: usize, prelude: &[(usize, TimePs)]) -> ExecGraph {
        let mut g = ExecGraph::new();
        for &(node, ps) in prelude {
            g.add(node, ExecPayload::Compute { ps }, &[], "prelude");
        }
        let mut tail = g.add(0, ExecPayload::Compute { ps: 7 }, &[], "head");
        for _ in 0..blocks {
            let a = g.add(0, ExecPayload::Compute { ps: 100 }, &[tail], "a");
            let b = g.add(1, ExecPayload::Compute { ps: 150 }, &[tail], "b");
            let ar = ExecPayload::Collective {
                kind: CollectiveKind::AllReduce,
                bytes: 1 << 16,
                group: 0,
            };
            tail = g.add(0, ar, &[a, b], "ar");
        }
        g.add(0, ExecPayload::Compute { ps: 5 }, &[tail], "t0");
        g.add(1, ExecPayload::Compute { ps: 9 }, &[tail], "t1");
        g
    }

    fn run_of(prelude: usize, total: usize) -> BlockRun {
        BlockRun { first_op: prelude + 1, ops_per_block: 3, emitted: 2, total }
    }

    #[test]
    fn folded_run_extrapolates_the_unfolded_outcome_exactly() {
        let topo = Topology::grouped_npus(4, 2, LinkSpec::new(64.0, 100.0));
        let full = simulate_graph(&blocked(10, &[]), &topo).unwrap();
        let folded_graph = blocked(2, &[]);
        let run = run_of(0, 10);
        assert_eq!(folded_graph.len() + run.skipped_ops(), blocked(10, &[]).len());
        let mut sim = GraphSimulator::new();
        let folded = sim.simulate_folded(&folded_graph, &topo, &[run]).unwrap().unwrap();
        assert_eq!(folded.makespan_ps, full.makespan_ps);
        assert_eq!(folded.events, full.events);
        assert_eq!(folded.compute_ps, full.compute_ps);
        assert_eq!(folded.comm_ps, full.comm_ps);
        assert_eq!(folded.host_ps, full.host_ps);
        // Runs that leave nothing out fold nothing.
        let plain = sim.simulate_folded(&blocked(2, &[]), &topo, &[run_of(0, 2)]).unwrap();
        assert_eq!(
            plain.unwrap().makespan_ps,
            simulate_graph(&folded_graph, &topo).unwrap().makespan_ps
        );
    }

    #[test]
    fn an_op_overlapping_the_second_block_defeats_the_proof() {
        // A long op on node 2, outside the blocks' group, is still
        // running when the second block starts: that cut is not clean.
        let topo = Topology::grouped_npus(4, 2, LinkSpec::new(64.0, 100.0));
        let long = [(2, 2_000_000)];
        let mut sim = GraphSimulator::new();
        let folded = sim.simulate_folded(&blocked(2, &long), &topo, &[run_of(1, 10)]).unwrap();
        assert!(folded.is_none());
        // Finished before the second block starts, it does no harm.
        let short = [(2, 1_000_000)];
        let folded = sim.simulate_folded(&blocked(2, &short), &topo, &[run_of(1, 10)]).unwrap();
        let full = simulate_graph(&blocked(10, &short), &topo).unwrap();
        assert_eq!(folded.map(|o| o.makespan_ps), Some(full.makespan_ps));
    }

    #[test]
    fn ops_after_the_blocks_must_depend_on_them_as_a_block_would() {
        // Drop the second tail op: the ops after the emitted blocks no
        // longer mirror a next block's dependencies.
        let topo = Topology::grouped_npus(4, 2, LinkSpec::new(64.0, 100.0));
        let mut g = blocked(2, &[]);
        let mut trimmed = ExecGraph::new();
        for (id, op) in g.iter().take(g.len() - 1) {
            trimmed.add(op.node, op.payload, &op.deps, op.label);
            assert_eq!(trimmed.len(), id + 1);
        }
        g = trimmed;
        let mut sim = GraphSimulator::new();
        assert!(sim.simulate_folded(&g, &topo, &[run_of(0, 10)]).unwrap().is_none());
        // A run claiming fewer than two emitted blocks proves nothing.
        let one = BlockRun { emitted: 1, ..run_of(0, 10) };
        assert!(sim.simulate_folded(&blocked(1, &[]), &topo, &[one]).unwrap().is_none());
    }

    #[test]
    fn deterministic_replay() {
        let build = || {
            let mut g = ExecGraph::new();
            for i in 0..50 {
                let deps: Vec<_> = if i >= 2 { vec![i - 2] } else { vec![] };
                g.add(i % 4, ExecPayload::Compute { ps: 10 + i as u64 }, &deps, "op");
            }
            g
        };
        let a = simulate_graph(&build(), &topo(4)).unwrap();
        let b = simulate_graph(&build(), &topo(4)).unwrap();
        assert_eq!(a, b);
    }
}
