//! Iteration batches and sub-batch partitioning.
//!
//! [`IterationBatch`] is what the scheduler hands the engine stack each
//! iteration: the batch composition plus any KV-cache eviction/reload
//! transfers the graph converter must materialize. Sub-batch partitioning
//! (Algorithm 1 line 2) splits a batch into independent pieces so
//! heterogeneous accelerators can overlap — the NeuPIMs sub-batch
//! interleaving technique.

use llmss_model::SeqSlot;
use serde::{Deserialize, Serialize};

use crate::KvTransfer;

/// One scheduler iteration's worth of work.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IterationBatch {
    /// Sequences participating this iteration.
    pub slots: Vec<SeqSlot>,
    /// KV pages evicted to host before this iteration runs.
    pub evictions: Vec<KvTransfer>,
    /// KV pages reloaded from host before this iteration runs.
    pub reloads: Vec<KvTransfer>,
}

impl IterationBatch {
    /// Prompt tokens processed (initiation-phase slots).
    pub fn prompt_tokens(&self) -> usize {
        self.slots.iter().filter(|s| s.kv_past == 0).map(|s| s.new_tokens).sum()
    }

    /// Tokens generated: every participating sequence emits exactly one
    /// output token per iteration (prefill slots emit their *first* output
    /// token when the initiation pass completes — paper Figure 1).
    pub fn generated_tokens(&self) -> usize {
        self.slots.len()
    }

    /// Number of participating sequences.
    pub fn batch_size(&self) -> usize {
        self.slots.len()
    }

    /// Total bytes moved to/from host for KV management.
    pub fn swap_bytes(&self) -> u64 {
        self.evictions.iter().chain(&self.reloads).map(|t| t.bytes).sum()
    }

    /// Whether this is a steady-state iteration — no KV paging traffic to
    /// or from host memory. Only steady batches are candidates for
    /// iteration-outcome memoization: eviction/reload transfers
    /// materialize as host-memory operators whose bytes and placement
    /// would otherwise have to join the signature.
    pub fn is_steady(&self) -> bool {
        self.evictions.is_empty() && self.reloads.is_empty()
    }
}

/// The balance criterion for sub-batch partitioning (Algorithm 1's
/// `Criteria` input).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PartitionCriteria {
    /// Balance compute load (new tokens per sub-batch).
    ComputeLoad,
    /// Balance memory traffic (KV bytes touched per sub-batch).
    MemoryAccess,
}

/// Splits a batch into `k` sub-batches, balancing the chosen criterion with
/// a greedy longest-processing-time assignment.
///
/// Sub-batches preserve deterministic ordering: slots are sorted by weight
/// (descending) with the request id breaking ties, then each goes to the
/// currently lightest sub-batch.
///
/// # Panics
///
/// Panics if `k` is zero.
///
/// # Examples
///
/// ```
/// use llmss_model::SeqSlot;
/// use llmss_sched::{partition_sub_batches, PartitionCriteria};
///
/// let slots = vec![
///     SeqSlot::decode(0, 1000),
///     SeqSlot::decode(1, 100),
///     SeqSlot::decode(2, 900),
///     SeqSlot::decode(3, 200),
/// ];
/// let subs = partition_sub_batches(&slots, 2, PartitionCriteria::MemoryAccess);
/// assert_eq!(subs.len(), 2);
/// assert_eq!(subs.iter().map(|s| s.len()).sum::<usize>(), 4);
/// ```
pub fn partition_sub_batches(
    slots: &[SeqSlot],
    k: usize,
    criteria: PartitionCriteria,
) -> Vec<Vec<SeqSlot>> {
    assert!(k > 0, "need at least one sub-batch");
    let weight = |s: &SeqSlot| -> u64 {
        match criteria {
            PartitionCriteria::ComputeLoad => s.new_tokens as u64 * s.kv_total() as u64,
            PartitionCriteria::MemoryAccess => s.kv_total() as u64,
        }
    };
    let mut sorted: Vec<SeqSlot> = slots.to_vec();
    sorted.sort_by(|a, b| weight(b).cmp(&weight(a)).then(a.request.cmp(&b.request)));

    let mut bins: Vec<(u64, Vec<SeqSlot>)> = vec![(0, Vec::new()); k.min(slots.len()).max(1)];
    for s in sorted {
        #[expect(clippy::expect_used, reason = "bins is constructed non-empty above")]
        let lightest =
            bins.iter_mut().min_by_key(|(w, b)| (*w, b.len())).expect("at least one bin");
        lightest.0 += weight(&s);
        lightest.1.push(s);
    }
    bins.into_iter().map(|(_, b)| b).filter(|b| !b.is_empty()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmss_model::SeqSlot;

    #[test]
    fn token_accounting() {
        let b = IterationBatch {
            slots: vec![
                SeqSlot::prefill(0, 64),
                SeqSlot::decode(1, 100),
                SeqSlot::decode(2, 5),
            ],
            evictions: vec![],
            reloads: vec![],
        };
        assert_eq!(b.prompt_tokens(), 64);
        // All three sequences emit one token (the prefill emits its first).
        assert_eq!(b.generated_tokens(), 3);
        assert_eq!(b.batch_size(), 3);
    }

    #[test]
    fn partition_covers_all_slots_exactly_once() {
        let slots: Vec<_> = (0..13).map(|i| SeqSlot::decode(i, 10 + i as usize * 7)).collect();
        let subs = partition_sub_batches(&slots, 4, PartitionCriteria::MemoryAccess);
        let mut ids: Vec<u64> = subs.iter().flatten().map(|s| s.request).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..13).collect::<Vec<_>>());
    }

    #[test]
    fn partition_balances_memory_weight() {
        let slots: Vec<_> = (0..16).map(|i| SeqSlot::decode(i, 64 + i as usize * 64)).collect();
        let subs = partition_sub_batches(&slots, 2, PartitionCriteria::MemoryAccess);
        let loads: Vec<u64> =
            subs.iter().map(|b| b.iter().map(|s| s.kv_total() as u64).sum()).collect();
        let max = *loads.iter().max().unwrap() as f64;
        let min = *loads.iter().min().unwrap() as f64;
        assert!(max / min < 1.25, "imbalanced: {loads:?}");
    }

    #[test]
    fn more_bins_than_slots_collapses() {
        let slots = vec![SeqSlot::decode(0, 10)];
        let subs = partition_sub_batches(&slots, 8, PartitionCriteria::ComputeLoad);
        assert_eq!(subs.len(), 1);
    }

    #[test]
    fn partition_is_deterministic() {
        let slots: Vec<_> = (0..9).map(|i| SeqSlot::decode(i, 100)).collect();
        let a = partition_sub_batches(&slots, 3, PartitionCriteria::ComputeLoad);
        let b = partition_sub_batches(&slots, 3, PartitionCriteria::ComputeLoad);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one sub-batch")]
    fn zero_bins_rejected() {
        partition_sub_batches(&[], 0, PartitionCriteria::ComputeLoad);
    }
}
