//! Iteration workload construction.
//!
//! An [`IterationWorkload`] is the operator-level description of one
//! scheduler iteration for a given batch composition: an embedding bookend,
//! one *transformer-block template* that is replicated `n_layers` times
//! (the redundancy LLMServingSim exploits for compile reuse), and the
//! final-norm + LM-head bookend.
//!
//! Non-attention ops are batched across all sequences (selective batching,
//! Orca-style); attention ops are emitted per sequence because their shapes
//! depend on each sequence's KV length.

use serde::{Deserialize, Serialize};

use crate::{ModelSpec, Op, OpDims, OpKind, Phase, SeqSlot};

/// The operator workload of one scheduler iteration.
///
/// # Examples
///
/// ```
/// use llmss_model::{IterationWorkload, ModelSpec, SeqSlot};
///
/// let spec = ModelSpec::gpt2();
/// let batch = vec![SeqSlot::prefill(0, 64), SeqSlot::decode(1, 100)];
/// let work = IterationWorkload::build(&spec, &batch);
/// assert_eq!(work.new_tokens_total(), 65);
/// // One template is replicated across all 12 GPT-2 blocks.
/// assert_eq!(work.flatten().len(),
///            work.pre_ops().len() + 12 * work.block_ops().len() + work.post_ops().len());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IterationWorkload {
    spec: ModelSpec,
    slots: Vec<SeqSlot>,
    pre_ops: Vec<Op>,
    block_ops: Vec<Op>,
    post_ops: Vec<Op>,
}

impl IterationWorkload {
    /// Builds the workload for one iteration over the given batch.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is empty or any slot has `new_tokens == 0`.
    pub fn build(spec: &ModelSpec, slots: &[SeqSlot]) -> Self {
        assert!(!slots.is_empty(), "iteration needs at least one sequence");
        assert!(slots.iter().all(|s| s.new_tokens > 0), "slots must contribute tokens");

        let t: usize = slots.iter().map(|s| s.new_tokens).sum();
        let d = spec.d_model;
        let w = spec.elem_bytes;
        let phase = Self::batch_phase(slots);

        let pre_ops =
            vec![Op::new(OpKind::Embedding, OpDims::elementwise(t, d), w).in_phase(phase)];

        let mut block_ops = Vec::with_capacity(8 + 3 * slots.len());
        block_ops
            .push(Op::new(OpKind::LayerNorm, OpDims::elementwise(t, d), w).in_phase(phase));
        block_ops.push(Op::new(OpKind::QkvGen, OpDims::matmul(t, d, 3 * d), w).in_phase(phase));
        // Attention ops are per sequence: shapes depend on each KV length
        // (selective batching; Orca splits the batch here).
        for s in slots {
            let sp = s.phase();
            block_ops.push(
                Op::new(
                    OpKind::Score,
                    OpDims::batched(spec.n_heads, s.new_tokens, spec.d_head(), s.kv_total()),
                    w,
                )
                .for_request(s.request)
                .in_phase(sp),
            );
            block_ops.push(
                Op::new(
                    OpKind::Softmax,
                    OpDims::elementwise(spec.n_heads * s.new_tokens, s.kv_total()),
                    w,
                )
                .for_request(s.request)
                .in_phase(sp),
            );
            block_ops.push(
                Op::new(
                    OpKind::Attend,
                    OpDims::batched(spec.n_heads, s.new_tokens, s.kv_total(), spec.d_head()),
                    w,
                )
                .for_request(s.request)
                .in_phase(sp),
            );
        }
        block_ops.push(Op::new(OpKind::OutProj, OpDims::matmul(t, d, d), w).in_phase(phase));
        block_ops.push(Op::new(OpKind::Residual, OpDims::elementwise(t, d), w).in_phase(phase));
        block_ops
            .push(Op::new(OpKind::LayerNorm, OpDims::elementwise(t, d), w).in_phase(phase));
        block_ops.push(
            Op::new(OpKind::FfnUp, OpDims::matmul(t, d, spec.ffn_up_mats() * spec.d_ff), w)
                .in_phase(phase),
        );
        block_ops.push(
            Op::new(OpKind::Activation, OpDims::elementwise(t, spec.d_ff), w).in_phase(phase),
        );
        block_ops
            .push(Op::new(OpKind::FfnDown, OpDims::matmul(t, spec.d_ff, d), w).in_phase(phase));
        block_ops.push(Op::new(OpKind::Residual, OpDims::elementwise(t, d), w).in_phase(phase));

        // Only the last token of each sequence needs logits.
        let sample_rows = slots.len();
        let post_ops = vec![
            Op::new(OpKind::LayerNorm, OpDims::elementwise(sample_rows, d), w).in_phase(phase),
            Op::new(OpKind::LmHead, OpDims::matmul(sample_rows, d, spec.vocab), w)
                .in_phase(phase),
        ];

        Self { spec: spec.clone(), slots: slots.to_vec(), pre_ops, block_ops, post_ops }
    }

    /// The phase label for batch-wide ops: `Generation` only if every
    /// sequence is decoding, otherwise `Initiation`.
    fn batch_phase(slots: &[SeqSlot]) -> Phase {
        if slots.iter().all(|s| s.phase() == Phase::Generation) {
            Phase::Generation
        } else {
            Phase::Initiation
        }
    }

    /// The model this workload was built for.
    pub fn spec(&self) -> &ModelSpec {
        &self.spec
    }

    /// Batch composition this workload was built for.
    pub fn slots(&self) -> &[SeqSlot] {
        &self.slots
    }

    /// Ops executed once before the transformer blocks (embedding).
    pub fn pre_ops(&self) -> &[Op] {
        &self.pre_ops
    }

    /// The single-block operator template, replicated `n_layers` times.
    pub fn block_ops(&self) -> &[Op] {
        &self.block_ops
    }

    /// Ops executed once after the transformer blocks (final norm, LM head).
    pub fn post_ops(&self) -> &[Op] {
        &self.post_ops
    }

    /// Attention ops of the block template (KV-length dependent).
    pub fn attention_ops(&self) -> impl Iterator<Item = &Op> {
        self.block_ops.iter().filter(|o| o.kind.is_attention())
    }

    /// Non-attention ops of the block template (KV-length independent).
    pub fn non_attention_ops(&self) -> impl Iterator<Item = &Op> {
        self.block_ops.iter().filter(|o| !o.kind.is_attention())
    }

    /// Flattens the workload into the full per-iteration op list, tagging
    /// each block replica with its block index.
    pub fn flatten(&self) -> Vec<Op> {
        let mut ops = Vec::with_capacity(
            self.pre_ops.len()
                + self.spec.n_layers * self.block_ops.len()
                + self.post_ops.len(),
        );
        ops.extend(self.pre_ops.iter().cloned());
        for blk in 0..self.spec.n_layers as u32 {
            ops.extend(self.block_ops.iter().cloned().map(|o| o.in_block(blk)));
        }
        ops.extend(self.post_ops.iter().cloned());
        ops
    }

    /// Total new tokens processed this iteration (prompt + generated).
    pub fn new_tokens_total(&self) -> usize {
        self.slots.iter().map(|s| s.new_tokens).sum()
    }

    /// New *prompt* tokens processed this iteration.
    pub fn prompt_tokens(&self) -> usize {
        self.slots.iter().filter(|s| s.phase() == Phase::Initiation).map(|s| s.new_tokens).sum()
    }

    /// New tokens *generated* by this iteration: every sequence emits one
    /// (a prefill slot emits its first output token as the initiation
    /// phase completes).
    pub fn generated_tokens(&self) -> usize {
        self.slots.len()
    }

    /// Total FLOPs over the whole iteration (all blocks + bookends).
    pub fn total_flops(&self) -> u64 {
        let block: u64 = self.block_ops.iter().map(Op::flops).sum();
        let pre: u64 = self.pre_ops.iter().map(Op::flops).sum();
        let post: u64 = self.post_ops.iter().map(Op::flops).sum();
        pre + self.spec.n_layers as u64 * block + post
    }

    /// KV-cache bytes appended by this iteration (new tokens, all layers).
    pub fn kv_append_bytes(&self) -> u64 {
        self.new_tokens_total() as u64 * self.spec.kv_bytes_per_token()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ModelSpec {
        ModelSpec::gpt2()
    }

    #[test]
    #[should_panic(expected = "at least one sequence")]
    fn empty_batch_panics() {
        IterationWorkload::build(&spec(), &[]);
    }

    #[test]
    fn prefill_block_has_expected_op_count() {
        let w = IterationWorkload::build(&spec(), &[SeqSlot::prefill(0, 128)]);
        // 9 batch-wide ops + 3 attention ops per sequence.
        assert_eq!(w.block_ops().len(), 12);
        let kinds: Vec<_> = w.block_ops().iter().map(|o| o.kind).collect();
        assert_eq!(
            kinds,
            vec![
                OpKind::LayerNorm,
                OpKind::QkvGen,
                OpKind::Score,
                OpKind::Softmax,
                OpKind::Attend,
                OpKind::OutProj,
                OpKind::Residual,
                OpKind::LayerNorm,
                OpKind::FfnUp,
                OpKind::Activation,
                OpKind::FfnDown,
                OpKind::Residual,
            ]
        );
    }

    #[test]
    fn attention_ops_scale_with_batch() {
        let slots: Vec<_> = (0..4).map(|i| SeqSlot::decode(i, 100 + i as usize)).collect();
        let w = IterationWorkload::build(&spec(), &slots);
        assert_eq!(w.attention_ops().count(), 3 * 4);
        assert_eq!(w.non_attention_ops().count(), 9);
    }

    #[test]
    fn flatten_replicates_blocks_with_indices() {
        let w = IterationWorkload::build(&spec(), &[SeqSlot::prefill(0, 16)]);
        let flat = w.flatten();
        let expected = w.pre_ops().len() + 12 * w.block_ops().len() + w.post_ops().len();
        assert_eq!(flat.len(), expected);
        // Block indices present and dense.
        let max_blk = flat.iter().filter_map(|o| o.block).max().unwrap();
        assert_eq!(max_blk, 11);
    }

    #[test]
    fn token_accounting_splits_phases() {
        let slots =
            vec![SeqSlot::prefill(0, 64), SeqSlot::decode(1, 99), SeqSlot::decode(2, 5)];
        let w = IterationWorkload::build(&spec(), &slots);
        assert_eq!(w.new_tokens_total(), 66);
        assert_eq!(w.prompt_tokens(), 64);
        assert_eq!(w.generated_tokens(), 3);
    }

    #[test]
    fn prefill_flops_match_analytic_formula() {
        // For one sequence of length L, block matmul FLOPs are
        // 2L d (3d) + 2 h L^2 d_head * 2 + 2 L d^2 + 2 L d ff_mats*dff + 2 L dff d.
        let s = spec();
        let l = 256usize;
        let w = IterationWorkload::build(&s, &[SeqSlot::prefill(0, l)]);
        let d = s.d_model as u64;
        let dff = s.d_ff as u64;
        let lu = l as u64;
        let matmul = 2 * lu * d * (3 * d)
            + 2 * (s.n_heads as u64) * lu * lu * (s.d_head() as u64) * 2
            + 2 * lu * d * d
            + 2 * lu * d * dff
            + 2 * lu * dff * d;
        let block_matmul: u64 =
            w.block_ops().iter().filter(|o| o.kind.is_matmul()).map(Op::flops).sum();
        assert_eq!(block_matmul, matmul);
    }

    #[test]
    fn generation_iteration_is_much_cheaper_than_prefill() {
        let s = spec();
        let prefill = IterationWorkload::build(&s, &[SeqSlot::prefill(0, 512)]);
        let decode = IterationWorkload::build(&s, &[SeqSlot::decode(0, 512)]);
        assert!(prefill.total_flops() > 50 * decode.total_flops());
    }

    #[test]
    fn kv_append_counts_all_new_tokens() {
        let s = spec();
        let w =
            IterationWorkload::build(&s, &[SeqSlot::prefill(0, 10), SeqSlot::decode(1, 50)]);
        assert_eq!(w.kv_append_bytes(), 11 * s.kv_bytes_per_token());
    }

    #[test]
    fn swiglu_ffn_up_is_wider() {
        let gpt = IterationWorkload::build(&ModelSpec::gpt3_7b(), &[SeqSlot::prefill(0, 8)]);
        let llama = IterationWorkload::build(&ModelSpec::llama_7b(), &[SeqSlot::prefill(0, 8)]);
        let up = |w: &IterationWorkload| {
            w.block_ops().iter().find(|o| o.kind == OpKind::FfnUp).unwrap().dims.n
        };
        assert_eq!(up(&gpt), 4 * 4096);
        assert_eq!(up(&llama), 2 * 11_008);
    }
}
