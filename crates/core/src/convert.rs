//! The graph converter: engine traces → Chakra-like execution graphs.
//!
//! Implements the paper's Section IV-A/IV-B conversion rules:
//!
//! * **Tensor parallelism** shards matmuls across the group's nodes and
//!   inserts ALL-REDUCE operators after the attention projection and the
//!   FFN down-projection (plus ALL-GATHERs around selective-batching
//!   attention, which redistributes whole requests instead of head shards).
//! * **Pipeline parallelism** assigns contiguous layer ranges to stage
//!   groups and inserts point-to-point activation transfers at stage
//!   boundaries.
//! * **Selective batching** fans per-request attention operators out to the
//!   nodes of the group (round-robin by request id), so variable KV lengths
//!   imbalance — and overlap — realistically.
//! * **PIM pool mode** sends decode attention GEMVs to PIM nodes with
//!   explicit inter-pool transfers before and after each offloaded operator
//!   (paper Figure 5b).
//! * **KV paging** materializes the scheduler's eviction/reload decisions
//!   as host memory-transfer operators gating the iteration.
//!
//! A *folded* conversion ([`GraphConverter::convert_folded_into`]) emits
//! only the first [`FOLD_KEEP`] decoder blocks of each pipeline stage and
//! records where they sit ([`BlockRun`]). Every block of a stage is the
//! same template with the same operator signatures, so the network DES
//! can prove that the left-out blocks repeat the last emitted one and
//! extrapolate them exactly ([`GraphSimulator::simulate_folded`]).
//!
//! [`GraphSimulator::simulate_folded`]: llmss_net::GraphSimulator::simulate_folded

use std::borrow::Cow;

use llmss_model::{IterationWorkload, ModelSpec, Op, OpKind, SeqSlot, SigLayout};
use llmss_net::{
    BlockRun, CollectiveKind, ExecGraph, ExecNodeId, ExecPayload, NodeId, Topology,
};
use llmss_sched::{partition_sub_batches, IterationBatch, PartitionCriteria};

use crate::{map_op, DeviceKind, EngineStack, ParallelismSpec, PimMode, ReuseStats};

/// Decoder blocks a folded conversion emits per pipeline stage: the
/// network DES compares the state at the start of the second block with
/// the state after it, so two are the fewest that prove a repeat.
pub const FOLD_KEEP: usize = 2;

/// Reusable working buffers for graph construction, persisted across
/// iterations so the steady-state convert path allocates nothing.
#[derive(Debug, Clone, Default)]
struct ConvertScratch {
    /// Per-node id of the last emitted op in the current sub-batch.
    chain: Vec<Option<ExecNodeId>>,
    /// Dependency-collection buffer for collectives and joins.
    deps: Vec<ExecNodeId>,
    /// Final attention op per request (selective batching join inputs).
    att_final: Vec<ExecNodeId>,
    /// KV-reload ops gating the iteration's entry.
    entry_deps: Vec<ExecNodeId>,
    /// The last folded conversion's block run per pipeline stage.
    folds: Vec<BlockRun>,
}

/// Converts scheduler iterations into execution graphs for the system
/// simulator.
#[derive(Debug, Clone)]
pub struct GraphConverter {
    spec: ModelSpec,
    parallelism: ParallelismSpec,
    pim_mode: PimMode,
    selective: bool,
    sub_batches: usize,
    stage_groups: Vec<Vec<NodeId>>,
    pim_pool: Vec<NodeId>,
    stage_layers: Vec<std::ops::Range<u32>>,
    scratch: ConvertScratch,
}

impl GraphConverter {
    /// Creates a converter for the given model, layout and topology.
    ///
    /// # Panics
    ///
    /// Panics if the topology does not provide `pp` NPU groups of `tp`
    /// nodes, or if pool mode is configured without PIM nodes.
    pub fn new(
        spec: ModelSpec,
        parallelism: ParallelismSpec,
        topology: &Topology,
        pim_mode: PimMode,
        selective_batching: bool,
        sub_batch: bool,
    ) -> Self {
        let pp = parallelism.pp;
        let tp = parallelism.tp;
        assert!(
            topology.groups().len() >= pp,
            "topology has {} groups, need {pp} stages",
            topology.groups().len()
        );
        let stage_groups: Vec<Vec<NodeId>> = topology.groups()[..pp].to_vec();
        for g in &stage_groups {
            assert_eq!(g.len(), tp, "every stage group must have tp={tp} nodes");
        }
        let pim_pool = topology.nodes_of_class(llmss_net::NodeClass::Pim);
        if pim_mode == PimMode::Pool {
            assert!(!pim_pool.is_empty(), "pool mode requires PIM nodes in the topology");
        }

        // Contiguous layer ranges per stage, distributing remainders to the
        // earliest stages.
        let layers = spec.n_layers as u32;
        let base = layers / pp as u32;
        let extra = layers % pp as u32;
        let mut stage_layers = Vec::with_capacity(pp);
        let mut start = 0u32;
        for s in 0..pp as u32 {
            let len = base + u32::from(s < extra);
            stage_layers.push(start..start + len);
            start += len;
        }

        Self {
            spec,
            parallelism,
            pim_mode,
            selective: selective_batching,
            sub_batches: if sub_batch { 2 } else { 1 },
            stage_groups,
            pim_pool,
            stage_layers,
            scratch: ConvertScratch::default(),
        }
    }

    /// The resolved layer range of each pipeline stage.
    pub fn stage_layers(&self) -> &[std::ops::Range<u32>] {
        &self.stage_layers
    }

    /// The [`SigLayout`] describing everything this converter's graphs
    /// are sensitive to beyond per-slot shapes, for iteration-outcome
    /// memoization: the request-placement modulus (selective batching
    /// fans attention out by `request % tp`, PIM-pool offload by
    /// `request % pool_size`) and whether sub-batch partitioning makes
    /// the weight/request-id sort order graph-relevant.
    pub fn sig_layout(&self, kv_bucket: usize) -> SigLayout {
        fn gcd(a: u64, b: u64) -> u64 {
            if b == 0 {
                a
            } else {
                gcd(b, a % b)
            }
        }
        let placement_mod = if self.selective {
            let tp = self.parallelism.tp as u64;
            let pim = self.pim_pool.len().max(1) as u64;
            tp / gcd(tp, pim) * pim
        } else {
            1
        };
        SigLayout::exact()
            .kv_bucket(kv_bucket as u32)
            .placement_mod(placement_mod)
            .ranked(self.sub_batches > 1)
    }

    /// Shards an operator for tensor parallelism (per-node shape).
    /// Borrows the template unchanged when there is nothing to shard
    /// (`tp == 1`), so the hot single-node path never clones.
    fn shard<'a>(&self, op: &'a Op) -> Cow<'a, Op> {
        let tp = self.parallelism.tp;
        if tp == 1 {
            return Cow::Borrowed(op);
        }
        let mut out = op.clone();
        match op.kind {
            // Column-parallel projections: output columns sharded.
            OpKind::QkvGen | OpKind::FfnUp | OpKind::LmHead => {
                out.dims.n = op.dims.n.div_ceil(tp);
            }
            // Row-parallel projections: contraction sharded.
            OpKind::OutProj | OpKind::FfnDown => {
                out.dims.k = op.dims.k.div_ceil(tp);
            }
            // FFN activation follows the column shard.
            OpKind::Activation => {
                out.dims.n = op.dims.n.div_ceil(tp);
            }
            // Head-sharded attention (non-selective mode only).
            OpKind::Score | OpKind::Attend => {
                out.dims.batch = op.dims.batch.div_ceil(tp);
            }
            OpKind::Softmax => {
                out.dims.m = op.dims.m.div_ceil(tp);
            }
            // LayerNorm / residual / embedding replicate.
            _ => {}
        }
        Cow::Owned(out)
    }

    /// Converts one scheduler iteration into a freshly allocated graph
    /// (convenience over [`convert_into`](Self::convert_into)).
    ///
    /// `stack` prices every (sharded) operator, consulting its reuse cache.
    pub fn convert(&mut self, batch: &IterationBatch, stack: &mut EngineStack) -> ExecGraph {
        let mut graph =
            ExecGraph::with_capacity(16 + self.spec.n_layers * self.parallelism.n_nodes() * 10);
        self.convert_into(batch, stack, &mut graph);
        graph
    }

    /// Converts one scheduler iteration into `graph`, which is cleared
    /// first and whose arena is reused — the zero-realloc path a serving
    /// loop drives every iteration.
    pub fn convert_into(
        &mut self,
        batch: &IterationBatch,
        stack: &mut EngineStack,
        graph: &mut ExecGraph,
    ) {
        self.convert_with(batch, stack, graph, false);
    }

    /// Converts one iteration into `graph` like
    /// [`convert_into`](Self::convert_into), but emits at most
    /// [`FOLD_KEEP`] decoder blocks per pipeline stage and returns each
    /// stage's [`BlockRun`], in graph order.
    ///
    /// The left-out blocks would price the same signatures as the first
    /// one, all of them cache hits, so their lookups are credited to the
    /// op cache as hits: the reuse statistics match a full conversion's.
    /// A stack whose op cache is off, or a batch that splits into
    /// interleaved sub-batches (two chains sharing nodes, with no clean
    /// block boundary), gets a full conversion and no runs.
    pub fn convert_folded_into(
        &mut self,
        batch: &IterationBatch,
        stack: &mut EngineStack,
        graph: &mut ExecGraph,
    ) -> &[BlockRun] {
        self.convert_with(batch, stack, graph, stack.reuse_enabled());
        &self.scratch.folds
    }

    fn convert_with(
        &mut self,
        batch: &IterationBatch,
        stack: &mut EngineStack,
        graph: &mut ExecGraph,
        fold: bool,
    ) {
        graph.clear();
        // The scratch moves out so `&self` methods can run while its
        // buffers are mutably borrowed; it moves back at the end.
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.folds.clear();

        // KV paging transfers gate the iteration (paper: the converter
        // inserts memory store/load operators based on scheduler decisions).
        let tp = self.parallelism.tp;
        let stage0 = &self.stage_groups[0];
        scratch.entry_deps.clear();
        for t in &batch.evictions {
            let owner = stage0[(t.request as usize) % tp];
            graph.add(owner, ExecPayload::HostStore { bytes: t.bytes }, &[], "kv_evict");
        }
        for t in &batch.reloads {
            let owner = stage0[(t.request as usize) % tp];
            let id =
                graph.add(owner, ExecPayload::HostLoad { bytes: t.bytes }, &[], "kv_reload");
            scratch.entry_deps.push(id);
        }

        if self.sub_batches > 1 && batch.slots.len() > 1 {
            let sub_slots = partition_sub_batches(
                &batch.slots,
                self.sub_batches,
                PartitionCriteria::MemoryAccess,
            );
            for slots in &sub_slots {
                self.emit_sub_batch(graph, stack, slots, &mut scratch, false);
            }
        } else {
            // Single sub-batch: emit straight from the batch, no copy.
            self.emit_sub_batch(graph, stack, &batch.slots, &mut scratch, fold);
        }
        self.scratch = scratch;
    }

    fn emit_sub_batch(
        &self,
        graph: &mut ExecGraph,
        stack: &mut EngineStack,
        slots: &[SeqSlot],
        scratch: &mut ConvertScratch,
        fold: bool,
    ) {
        let workload = IterationWorkload::build(&self.spec, slots);
        let t = workload.new_tokens_total();
        let w = self.spec.elem_bytes as u64;
        let d = self.spec.d_model as u64;
        let tp = self.parallelism.tp;

        // Per-node chain of the last emitted op in this sub-batch.
        let n_total = self.stage_groups.iter().flatten().copied().max().unwrap_or(0) + 1;
        scratch.chain.clear();
        scratch.chain.resize(n_total.max(1), None);

        // Stage 0 entry: embedding, gated by KV reloads.
        let embed = &workload.pre_ops()[0];
        for &node in &self.stage_groups[0] {
            let ps = stack.price(embed, DeviceKind::Npu);
            let id =
                graph.add(node, ExecPayload::Compute { ps }, &scratch.entry_deps, "embedding");
            scratch.chain[node] = Some(id);
        }

        for (stage, nodes) in self.stage_groups.iter().enumerate() {
            // Pipeline-stage boundary: activation shards hop to the
            // corresponding node of the next group.
            if stage > 0 {
                let prev = &self.stage_groups[stage - 1];
                let bytes = (t as u64 * d * w).div_ceil(tp as u64);
                for (i, &src) in prev.iter().enumerate() {
                    let dst = nodes[i];
                    let id = graph.add(
                        src,
                        ExecPayload::P2p { bytes, dst },
                        scratch.chain[src].as_slice(),
                        "stage_xfer",
                    );
                    scratch.chain[dst] = Some(id);
                }
            }
            let total = self.stage_layers[stage].len();
            let emitted = if fold { total.min(FOLD_KEEP) } else { total };
            let first_op = graph.len();
            let before = stack.reuse_stats();
            for _ in 0..emitted {
                self.emit_block(graph, stack, &workload, slots, nodes, stage, scratch);
            }
            if fold && emitted > 0 {
                // The emitted blocks are copies of one template: each
                // added the same ops and made the same lookups.
                let run = BlockRun {
                    first_op,
                    ops_per_block: (graph.len() - first_op) / emitted,
                    emitted,
                    total,
                };
                let lookups = |s: ReuseStats| {
                    [s.attention_hits + s.attention_misses, s.other_hits + s.other_misses]
                };
                let (was, now) = (lookups(before), lookups(stack.reuse_stats()));
                let skipped = run.skipped() as u64;
                let per_block = |i: usize| (now[i] - was[i]) / emitted as u64;
                stack.credit_hits(skipped * per_block(0), skipped * per_block(1));
                scratch.folds.push(run);
            }
        }

        // Final norm + LM head on the last stage.
        let last = &self.stage_groups[self.parallelism.pp - 1];
        for op in workload.post_ops() {
            for &node in last {
                let sharded = self.shard(op);
                let ps = stack.price(&sharded, DeviceKind::Npu);
                let id = graph.add(
                    node,
                    ExecPayload::Compute { ps },
                    scratch.chain[node].as_slice(),
                    op.kind.label(),
                );
                scratch.chain[node] = Some(id);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_block(
        &self,
        graph: &mut ExecGraph,
        stack: &mut EngineStack,
        workload: &IterationWorkload,
        slots: &[SeqSlot],
        nodes: &[NodeId],
        stage: usize,
        scratch: &mut ConvertScratch,
    ) {
        let tp = nodes.len();
        let group = stage; // topology group id of this stage
        let t = workload.new_tokens_total() as u64;
        let d = self.spec.d_model as u64;
        let w = self.spec.elem_bytes as u64;

        // Parse the canonical block template (single source of truth for
        // operator shapes lives in llmss-model).
        let ops = workload.block_ops();
        let n_att = 3 * slots.len();
        let (ln1, qkv) = (&ops[0], &ops[1]);
        debug_assert_eq!(ln1.kind, OpKind::LayerNorm);
        debug_assert_eq!(qkv.kind, OpKind::QkvGen);
        let attention = &ops[2..2 + n_att];
        let tail = &ops[2 + n_att..];
        debug_assert_eq!(tail[0].kind, OpKind::OutProj);

        let emit_replicated = |graph: &mut ExecGraph,
                               stack: &mut EngineStack,
                               op: &Op,
                               scratch: &mut ConvertScratch| {
            for &node in nodes {
                let ps = stack.price(op, DeviceKind::Npu);
                let id = graph.add(
                    node,
                    ExecPayload::Compute { ps },
                    scratch.chain[node].as_slice(),
                    op.kind.label(),
                );
                scratch.chain[node] = Some(id);
            }
        };
        let emit_sharded = |graph: &mut ExecGraph,
                            stack: &mut EngineStack,
                            op: &Op,
                            scratch: &mut ConvertScratch| {
            let sharded = self.shard(op);
            for &node in nodes {
                let ps = stack.price(&sharded, DeviceKind::Npu);
                let id = graph.add(
                    node,
                    ExecPayload::Compute { ps },
                    scratch.chain[node].as_slice(),
                    op.kind.label(),
                );
                scratch.chain[node] = Some(id);
            }
        };
        let emit_collective = |graph: &mut ExecGraph,
                               kind: CollectiveKind,
                               bytes: u64,
                               label: &'static str,
                               scratch: &mut ConvertScratch| {
            scratch.deps.clear();
            scratch.deps.extend(nodes.iter().filter_map(|&n| scratch.chain[n]));
            let id = graph.add(
                nodes[0],
                ExecPayload::Collective { kind, bytes, group },
                &scratch.deps,
                label,
            );
            for &n in nodes {
                scratch.chain[n] = Some(id);
            }
            id
        };

        emit_replicated(graph, stack, ln1, scratch); // LayerNorm 1
        emit_sharded(graph, stack, qkv, scratch); // QKV projection

        if self.selective {
            // Redistribute QKV so each request's heads land on its owner.
            if tp > 1 {
                emit_collective(
                    graph,
                    CollectiveKind::AllGather,
                    (t * 3 * d * w).div_ceil(tp as u64),
                    "qkv_gather",
                    scratch,
                );
            }
            scratch.att_final.clear();
            for (si, slot) in slots.iter().enumerate() {
                let owner = nodes[(slot.request as usize) % tp];
                let trio = &attention[3 * si..3 * si + 3];
                debug_assert_eq!(trio[0].kind, OpKind::Score);
                let last =
                    self.emit_request_attention(graph, stack, trio, slot, owner, scratch);
                scratch.att_final.push(last);
            }
            // Re-shard attention outputs for the row-parallel projection.
            if tp > 1 {
                let id = graph.add(
                    nodes[0],
                    ExecPayload::Collective {
                        kind: CollectiveKind::AllGather,
                        bytes: (t * d * w).div_ceil(tp as u64),
                        group,
                    },
                    &scratch.att_final,
                    "att_gather",
                );
                for &n in nodes {
                    scratch.chain[n] = Some(id);
                }
            } else {
                // Single node: join the per-request chains on a zero-cost op.
                let id = graph.add(
                    nodes[0],
                    ExecPayload::Compute { ps: 0 },
                    &scratch.att_final,
                    "att_join",
                );
                scratch.chain[nodes[0]] = Some(id);
            }
        } else {
            // Head-sharded attention: one fused per-node attention op whose
            // latency sums the (head-sharded) per-request costs.
            let mut ps_total = 0;
            for op in attention {
                let sharded = self.shard(op);
                let device = map_op(&sharded, self.pim_mode);
                let device = if device == DeviceKind::Pim && !stack.has_pim() {
                    DeviceKind::Npu
                } else {
                    device
                };
                ps_total += stack.price(&sharded, device);
            }
            for &node in nodes {
                let id = graph.add(
                    node,
                    ExecPayload::Compute { ps: ps_total },
                    scratch.chain[node].as_slice(),
                    "attention",
                );
                scratch.chain[node] = Some(id);
            }
        }

        // OutProj, residual, LN2, FFN, residual — with all-reduces after
        // the two row-parallel projections.
        emit_sharded(graph, stack, &tail[0], scratch); // OutProj
        if tp > 1 {
            emit_collective(graph, CollectiveKind::AllReduce, t * d * w, "all_reduce", scratch);
        }
        emit_replicated(graph, stack, &tail[1], scratch); // residual
        emit_replicated(graph, stack, &tail[2], scratch); // LayerNorm 2
        emit_sharded(graph, stack, &tail[3], scratch); // FFN up
        emit_sharded(graph, stack, &tail[4], scratch); // activation
        emit_sharded(graph, stack, &tail[5], scratch); // FFN down
        if tp > 1 {
            emit_collective(graph, CollectiveKind::AllReduce, t * d * w, "all_reduce", scratch);
        }
        emit_replicated(graph, stack, &tail[6], scratch); // residual
    }

    /// Emits one request's Score/Softmax/Attend, offloading the GEMVs to a
    /// PIM node (with inter-pool transfers) when the mapper says so.
    fn emit_request_attention(
        &self,
        graph: &mut ExecGraph,
        stack: &mut EngineStack,
        trio: &[Op],
        slot: &SeqSlot,
        owner: NodeId,
        scratch: &mut ConvertScratch,
    ) -> ExecNodeId {
        let (score, softmax, attend) = (&trio[0], &trio[1], &trio[2]);
        let w = self.spec.elem_bytes as u64;
        let pre = scratch.chain[owner];

        let offload = self.pim_mode == PimMode::Pool
            && map_op(score, self.pim_mode) == DeviceKind::Pim
            && stack.has_pim();

        if !offload {
            let mut last: Option<ExecNodeId> = None;
            for op in [score, softmax, attend] {
                let ps = stack.price(op, DeviceKind::Npu);
                // The first op of the trio chains off the owner's tail;
                // the rest chain sequentially within the trio.
                let dep = if last.is_some() { last } else { pre };
                last = Some(graph.add(
                    owner,
                    ExecPayload::Compute { ps },
                    dep.as_slice(),
                    op.kind.label(),
                ));
            }
            return last.expect("attention trio emitted"); // llmss-lint: allow(p001, reason = "the attention lowering emits its trio unconditionally just above")
        }

        // PIM-pool offload: Q to PIM, Score there, scores back for softmax,
        // probabilities to PIM, Attend there, output back (Figure 5b data
        // movement; this link/sync detail is why LLMServingSim trails the
        // NeuPIMs reference in Figure 7).
        let pim = self.pim_pool[(slot.request as usize) % self.pim_pool.len()];
        let q_bytes = (slot.new_tokens * self.spec.d_model) as u64 * w;
        let score_bytes = (self.spec.n_heads * slot.new_tokens * slot.kv_total()) as u64 * w;

        let q_send = graph.add(
            owner,
            ExecPayload::P2p { bytes: q_bytes, dst: pim },
            pre.as_slice(),
            "q_xfer",
        );
        let score_ps = stack.price(score, DeviceKind::Pim);
        let score_c = graph.add(pim, ExecPayload::Compute { ps: score_ps }, &[q_send], "score");
        let s_back = graph.add(
            pim,
            ExecPayload::P2p { bytes: score_bytes, dst: owner },
            &[score_c],
            "score_xfer",
        );
        let sm_ps = stack.price(softmax, DeviceKind::Npu);
        let sm = graph.add(owner, ExecPayload::Compute { ps: sm_ps }, &[s_back], "softmax");
        let p_send = graph.add(
            owner,
            ExecPayload::P2p { bytes: score_bytes, dst: pim },
            &[sm],
            "prob_xfer",
        );
        let at_ps = stack.price(attend, DeviceKind::Pim);
        let at = graph.add(pim, ExecPayload::Compute { ps: at_ps }, &[p_send], "attend");
        graph.add(pim, ExecPayload::P2p { bytes: q_bytes, dst: owner }, &[at], "out_xfer")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmss_net::{simulate_graph, GraphSimulator, LinkSpec};
    use llmss_npu::NpuConfig;
    use llmss_pim::PimConfig;
    use llmss_sched::KvTransfer;

    fn spec() -> ModelSpec {
        ModelSpec::gpt2()
    }

    fn batch(slots: Vec<SeqSlot>) -> IterationBatch {
        IterationBatch { slots, evictions: vec![], reloads: vec![] }
    }

    fn homogeneous(tp: usize, pp: usize) -> (GraphConverter, Topology, EngineStack) {
        let topo = Topology::grouped_npus(tp * pp, pp, LinkSpec::pcie4_x16());
        let conv = GraphConverter::new(
            spec(),
            ParallelismSpec { tp, pp },
            &topo,
            PimMode::None,
            true,
            false,
        );
        let stack = EngineStack::homogeneous(NpuConfig::table1(), true);
        (conv, topo, stack)
    }

    #[test]
    fn single_node_graph_simulates() {
        let (mut conv, topo, mut stack) = homogeneous(1, 1);
        let g = conv.convert(&batch(vec![SeqSlot::prefill(0, 64)]), &mut stack);
        let out = simulate_graph(&g, &topo).unwrap();
        assert!(out.makespan_ps > 0);
        // 12 GPT-2 blocks with attention join + bookends.
        assert!(g.len() > 12 * 10);
    }

    #[test]
    fn tensor_parallel_inserts_collectives() {
        let (mut conv, _, mut stack) = homogeneous(4, 1);
        let g = conv.convert(&batch(vec![SeqSlot::prefill(0, 64)]), &mut stack);
        let collectives = g
            .iter()
            .filter(|(_, o)| matches!(o.payload, ExecPayload::Collective { .. }))
            .count();
        // Per block: qkv_gather + att_gather + 2 all_reduce = 4.
        assert_eq!(collectives, 12 * 4);
    }

    #[test]
    fn pipeline_parallel_inserts_stage_transfers() {
        let (mut conv, topo, mut stack) = homogeneous(1, 4);
        let g = conv.convert(&batch(vec![SeqSlot::prefill(0, 64)]), &mut stack);
        let xfers = g.iter().filter(|(_, o)| o.label == "stage_xfer").count();
        assert_eq!(xfers, 3, "pp=4 has 3 stage boundaries");
        let out = simulate_graph(&g, &topo).unwrap();
        assert!(out.makespan_ps > 0);
        // Layers split 3+3+3+3.
        assert_eq!(conv.stage_layers(), &[0..3, 3..6, 6..9, 9..12]);
    }

    #[test]
    fn tp_speeds_up_prefill_vs_single_node() {
        let (mut c1, t1, mut s1) = homogeneous(1, 1);
        let (mut c4, t4, mut s4) = homogeneous(4, 1);
        let b = batch(vec![SeqSlot::prefill(0, 512)]);
        let m1 = simulate_graph(&c1.convert(&b, &mut s1), &t1).unwrap().makespan_ps;
        let m4 = simulate_graph(&c4.convert(&b, &mut s4), &t4).unwrap().makespan_ps;
        assert!(m4 < m1, "tp4 {m4} must beat tp1 {m1}");
        assert!(m4 > m1 / 4, "tp4 cannot be super-linear (collectives cost)");
    }

    #[test]
    fn selective_batching_distributes_attention() {
        let (mut conv, _, mut stack) = homogeneous(4, 1);
        let slots: Vec<_> = (0..8).map(|i| SeqSlot::decode(i, 128 + 64 * i as usize)).collect();
        let g = conv.convert(&batch(slots), &mut stack);
        // Attention computes must appear on all 4 nodes.
        let mut att_nodes: Vec<NodeId> =
            g.iter().filter(|(_, o)| o.label == "score").map(|(_, o)| o.node).collect();
        att_nodes.sort_unstable();
        att_nodes.dedup();
        assert_eq!(att_nodes, vec![0, 1, 2, 3]);
    }

    #[test]
    fn non_selective_shards_heads_instead() {
        let topo = Topology::grouped_npus(4, 1, LinkSpec::pcie4_x16());
        let mut conv = GraphConverter::new(
            spec(),
            ParallelismSpec { tp: 4, pp: 1 },
            &topo,
            PimMode::None,
            false,
            false,
        );
        let mut stack = EngineStack::homogeneous(NpuConfig::table1(), true);
        let g = conv.convert(&batch(vec![SeqSlot::decode(0, 256)]), &mut stack);
        assert_eq!(g.iter().filter(|(_, o)| o.label == "score").count(), 0);
        assert_eq!(g.iter().filter(|(_, o)| o.label == "attention").count(), 12 * 4);
        // Only the two Megatron all-reduces per block.
        let collectives = g
            .iter()
            .filter(|(_, o)| matches!(o.payload, ExecPayload::Collective { .. }))
            .count();
        assert_eq!(collectives, 12 * 2);
    }

    #[test]
    fn pool_mode_offloads_decode_attention_with_transfers() {
        let topo = Topology::npu_pim_pools(2, 2, 1, LinkSpec::pcie4_x16(), LinkSpec::cxl());
        let mut conv = GraphConverter::new(
            spec(),
            ParallelismSpec { tp: 2, pp: 1 },
            &topo,
            PimMode::Pool,
            true,
            false,
        );
        let mut stack = EngineStack::for_pim_mode(
            PimMode::Pool,
            NpuConfig::table1(),
            PimConfig::table1(),
            true,
        );
        let g = conv.convert(&batch(vec![SeqSlot::decode(0, 256)]), &mut stack);
        // Score/Attend land on PIM nodes (ids 2,3), with 4 transfers each.
        let pim_computes: Vec<_> = g
            .iter()
            .filter(|(_, o)| matches!(o.payload, ExecPayload::Compute { .. }) && o.node >= 2)
            .collect();
        assert_eq!(pim_computes.len(), 12 * 2, "score+attend per block on PIM");
        let xfers = g
            .iter()
            .filter(|(_, o)| o.label.ends_with("_xfer") && o.label != "stage_xfer")
            .count();
        assert_eq!(xfers, 12 * 4, "4 inter-pool transfers per block");
        let out = simulate_graph(&g, &topo).unwrap();
        assert!(out.makespan_ps > 0);
    }

    #[test]
    fn prefill_attention_stays_on_npu_in_pool_mode() {
        let topo = Topology::npu_pim_pools(1, 1, 1, LinkSpec::pcie4_x16(), LinkSpec::cxl());
        let mut conv = GraphConverter::new(
            spec(),
            ParallelismSpec { tp: 1, pp: 1 },
            &topo,
            PimMode::Pool,
            true,
            false,
        );
        let mut stack = EngineStack::for_pim_mode(
            PimMode::Pool,
            NpuConfig::table1(),
            PimConfig::table1(),
            true,
        );
        let g = conv.convert(&batch(vec![SeqSlot::prefill(0, 128)]), &mut stack);
        // All computes on node 0 (the NPU); nothing on the PIM node 1.
        assert!(g.iter().all(|(_, o)| o.node == 0));
    }

    #[test]
    fn kv_transfers_materialize_as_host_ops() {
        let (mut conv, topo, mut stack) = homogeneous(2, 1);
        let b = IterationBatch {
            slots: vec![SeqSlot::decode(0, 128)],
            evictions: vec![KvTransfer { request: 5, bytes: 1 << 20, pages: 64 }],
            reloads: vec![KvTransfer { request: 7, bytes: 2 << 20, pages: 128 }],
        };
        let g = conv.convert(&b, &mut stack);
        assert_eq!(g.iter().filter(|(_, o)| o.label == "kv_evict").count(), 1);
        assert_eq!(g.iter().filter(|(_, o)| o.label == "kv_reload").count(), 1);
        // Embedding depends on the reload.
        let reload_id = g.iter().find(|(_, o)| o.label == "kv_reload").unwrap().0;
        let embed = g.iter().find(|(_, o)| o.label == "embedding").unwrap().1;
        assert!(embed.deps.contains(&reload_id));
        simulate_graph(&g, &topo).unwrap();
    }

    #[test]
    fn sub_batch_mode_duplicates_chains_for_overlap() {
        let topo = Topology::npu_pim_pools(1, 1, 1, LinkSpec::pcie4_x16(), LinkSpec::cxl());
        let mk = |sub: bool| {
            GraphConverter::new(
                spec(),
                ParallelismSpec { tp: 1, pp: 1 },
                &topo,
                PimMode::Pool,
                true,
                sub,
            )
        };
        // A PIM-heavy regime (long KV, many sequences): the attention GEMVs
        // dominate, so overlapping them against the other sub-batch's
        // GEMMs wins despite streaming the weights once per sub-batch.
        let slots: Vec<_> = (0..32).map(|i| SeqSlot::decode(i, 2048)).collect();
        let mut stack = EngineStack::for_pim_mode(
            PimMode::Pool,
            NpuConfig::table1(),
            PimConfig::table1(),
            true,
        );
        let g_mono = mk(false).convert(&batch(slots.clone()), &mut stack);
        let g_sub = mk(true).convert(&batch(slots), &mut stack);
        // Sub-batching doubles the independent chains (2 embeddings).
        let embeds = |g: &ExecGraph| g.iter().filter(|(_, o)| o.label == "embedding").count();
        assert_eq!(embeds(&g_mono), 1);
        assert_eq!(embeds(&g_sub), 2);
        // The PIM work of one sub-batch overlaps the other's GEMMs, paying
        // for the per-sub-batch weight re-streaming: in this PIM-heavy
        // regime the makespans stay within a few percent of each other.
        let m_mono = simulate_graph(&g_mono, &topo).unwrap().makespan_ps;
        let m_sub = simulate_graph(&g_sub, &topo).unwrap().makespan_ps;
        let ratio = m_sub as f64 / m_mono as f64;
        assert!(
            ratio < 1.15,
            "sub-batch interleaving should roughly break even here: {ratio:.2}"
        );
    }

    /// The outcome fields a folded run extrapolates.
    fn totals(out: &llmss_net::SimOutcome) -> [u64; 5] {
        [out.makespan_ps, out.events, out.compute_ps, out.comm_ps, out.host_ps]
    }

    #[test]
    fn gpt3_7b_tp4_decode_folds_to_two_of_32_blocks() {
        let topo = Topology::grouped_npus(4, 1, LinkSpec::pcie4_x16());
        let mk = || {
            let conv = GraphConverter::new(
                ModelSpec::gpt3_7b(),
                ParallelismSpec { tp: 4, pp: 1 },
                &topo,
                PimMode::None,
                true,
                false,
            );
            (conv, EngineStack::homogeneous(NpuConfig::table1(), true))
        };
        let b = batch((0..16).map(|i| SeqSlot::decode(i, 100 + 37 * i as usize)).collect());
        let (mut conv, mut stack) = mk();
        let full = conv.convert(&b, &mut stack);
        let (mut conv, mut folded_stack) = mk();
        let mut g = ExecGraph::new();
        let folds = conv.convert_folded_into(&b, &mut folded_stack, &mut g).to_vec();
        assert_eq!(folds.len(), 1);
        let run = folds[0];
        assert_eq!((run.emitted, run.total), (FOLD_KEEP, 32));
        assert_eq!(g.len() + run.skipped_ops(), full.len());
        assert_eq!(folded_stack.reuse_stats(), stack.reuse_stats());
        let mut des = GraphSimulator::new();
        let out = des.simulate_folded(&g, &topo, &[run]).unwrap();
        let want = simulate_graph(&full, &topo).unwrap();
        assert_eq!(out.map(totals), Some(totals(&want)));
    }

    #[test]
    fn a_long_eviction_still_folds_exactly() {
        // The eviction holds its owner node from time zero, so it ends
        // before the second block can start and the proof holds.
        let (mut conv, topo, mut stack) = homogeneous(2, 1);
        let b = IterationBatch {
            slots: vec![SeqSlot::decode(0, 128), SeqSlot::decode(1, 900)],
            evictions: vec![KvTransfer { request: 1, bytes: 1 << 30, pages: 1 << 14 }],
            reloads: vec![],
        };
        let full = simulate_graph(&conv.convert(&b, &mut stack), &topo).unwrap();
        let mut g = ExecGraph::new();
        let runs = conv.convert_folded_into(&b, &mut stack, &mut g).to_vec();
        let mut des = GraphSimulator::new();
        let out = des.simulate_folded(&g, &topo, &runs).unwrap();
        assert!(full.host_ps > full.makespan_ps / 2, "the eviction dominates");
        assert_eq!(out.map(totals), Some(totals(&full)));
    }

    #[test]
    fn sub_batches_and_a_disabled_cache_convert_in_full() {
        let topo = Topology::npu_pim_pools(1, 1, 1, LinkSpec::pcie4_x16(), LinkSpec::cxl());
        let pool = |reuse| {
            EngineStack::for_pim_mode(
                PimMode::Pool,
                NpuConfig::table1(),
                PimConfig::table1(),
                reuse,
            )
        };
        let slots: Vec<_> = (0..4).map(|i| SeqSlot::decode(i, 512)).collect();
        for (sub, reuse) in [(true, true), (false, false)] {
            let mut conv = GraphConverter::new(
                spec(),
                ParallelismSpec { tp: 1, pp: 1 },
                &topo,
                PimMode::Pool,
                true,
                sub,
            );
            let full = conv.convert(&batch(slots.clone()), &mut pool(reuse));
            let mut g = ExecGraph::new();
            let folds =
                conv.convert_folded_into(&batch(slots.clone()), &mut pool(reuse), &mut g);
            assert!(folds.is_empty(), "sub_batch={sub} reuse={reuse}");
            assert_eq!(g, full);
        }
    }

    #[test]
    fn deterministic_conversion() {
        let (mut conv, _, mut stack) = homogeneous(2, 2);
        let slots = vec![SeqSlot::prefill(0, 64), SeqSlot::decode(1, 100)];
        let a = conv.convert(&batch(slots.clone()), &mut stack);
        let b = conv.convert(&batch(slots), &mut stack);
        assert_eq!(a, b);
    }
}
