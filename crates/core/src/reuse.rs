//! Computation-reuse caches (paper Section IV-C), at two granularities.
//!
//! LLMServingSim avoids re-running the compiler and hardware simulator by
//! caching results keyed on operator signatures. Two redundancies feed the
//! per-operator [`ReuseCache`]:
//!
//! * **Model redundancy**: all transformer blocks share one template, so a
//!   block compiles once and replicates (`n_layers - 1` free hits per op).
//!   On an iteration miss the converter goes one step further and emits
//!   only the first two blocks of each pipeline stage; the network DES
//!   proves the rest repeat and extrapolates them, and the blocks left
//!   out are credited as the hits they would have been
//!   ([`ReuseCache::credit_hits`]).
//! * **Iteration redundancy**: non-attention operators keep the same shapes
//!   across decode iterations (only attention shapes track the KV length),
//!   so prior iterations' results keep serving.
//!
//! The [`IterationCache`] extends the same idea from operators to whole
//! iterations: a [`BatchSignature`] keys the complete outcome (makespan,
//! event/op counts, per-stage timing) of an iteration, so a steady-state
//! decode step whose signature recurs skips graph construction *and* the
//! network DES entirely. With unit KV buckets the signature is exact and
//! memoized runs are bit-identical to unmemoized ones; coarser buckets
//! trade bounded fidelity for hit rate.
//!
//! Both caches hash through the hand-rolled FNV-1a hasher
//! ([`llmss_model::FnvHashMap`]) — these are trusted, short, deterministic
//! keys on the hottest path in the simulator, where SipHash is wasted
//! defense.

use std::hash::Hash;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use llmss_model::{BatchSignature, FnvHashMap, OpSignature, SigLayout, SignatureBuilder};
use llmss_net::{SimOutcome, TimePs};
use llmss_sched::IterationBatch;
use serde::{Deserialize, Serialize};

use crate::{DeviceKind, SimConfig};

/// Poison-tolerant read lock: a poisoned shared cache only means
/// another thread panicked mid-publish, and the map itself is always
/// left consistent (publishes are per-entry inserts) — propagating a
/// second panic would just mask the first.
fn read_lock<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    match lock.read() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Poison-tolerant write lock — see [`read_lock`].
fn write_lock<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    match lock.write() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// One level of the shared tier: `(config namespace, sub-namespace) →
/// key → value`.
type SharedMap<S, K, V> = Arc<RwLock<FnvHashMap<(u32, S), FnvHashMap<K, V>>>>;

/// The cross-replica shared reuse tier: one iteration-outcome map and
/// one operator-price map, shared by every replica of a fleet. Entries
/// are namespaced by configuration: [`namespace`](Self::namespace) gives
/// equal [`SimConfig`]s one id, so only replicas whose configurations
/// are equal — for which cached outcomes are pure functions of the
/// signature — ever exchange entries. Iteration outcomes are further
/// namespaced by the live KV bucket width.
///
/// # Determinism contract
///
/// Replicas never write through this handle mid-iteration. Locally
/// discovered entries accumulate in a per-replica `fresh` buffer and
/// publish (first write wins) only when the owning driver calls
/// `publish_shared`. The fleet engine does so at the top of every
/// step, for the replicas that stepped since the last publish, in
/// replica-index order. Between publishes every lookup sees the same
/// frozen snapshot regardless of replica stepping order or thread
/// count, which keeps hit/miss counters byte-deterministic under
/// sharded stepping.
#[derive(Debug, Clone, Default)]
pub struct SharedReuse {
    /// The distinct configurations attached so far; a configuration's
    /// namespace is its index here.
    configs: Arc<RwLock<Vec<SimConfig>>>,
    /// `(namespace, kv bucket) → batch signature → iteration outcome`.
    iterations: SharedMap<u32, BatchSignature, IterationOutcome>,
    /// `namespace → (device, op signature) → price`.
    ops: SharedMap<(), (DeviceKind, OpSignature), TimePs>,
}

impl SharedReuse {
    /// An empty shared tier, ready to be attached to any number of
    /// replica caches (the handle clones cheaply — it is three `Arc`s).
    pub fn new() -> Self {
        Self::default()
    }

    /// The namespace `config` shares under. Equal configurations get the
    /// same id, numbered in first-attached order: identical
    /// configurations produce identical graphs, and unequal ones never
    /// see each other's entries.
    pub fn namespace(&self, config: &SimConfig) -> u32 {
        let mut configs = write_lock(&self.configs);
        let index = match configs.iter().position(|c| c == config) {
            Some(index) => index,
            None => {
                configs.push(config.clone());
                configs.len() - 1
            }
        };
        // One clone per distinct configuration is held here, so the
        // count stays far below `u32::MAX`.
        index as u32
    }

    /// Iteration outcomes currently published, across all namespaces.
    pub fn iteration_entries(&self) -> usize {
        read_lock(&self.iterations).values().map(FnvHashMap::len).sum()
    }

    /// Operator prices currently published, across all namespaces.
    pub fn op_entries(&self) -> usize {
        read_lock(&self.ops).values().map(FnvHashMap::len).sum()
    }
}

/// One cache level's storage and its side of the shared-tier protocol:
/// the replica-private map and, once a fleet attaches one, a namespace
/// of the shared map plus the entries found here and not yet published.
#[derive(Debug, Clone)]
struct Tiers<S, K, V> {
    local: FnvHashMap<K, V>,
    /// The shared map and the configuration namespace this cache
    /// shares under.
    shared: Option<(SharedMap<S, K, V>, u32)>,
    /// Entries inserted since the last publish, stamped with the
    /// sub-namespace they were made under.
    fresh: Vec<(S, K, V)>,
}

impl<S: Copy + Eq + Hash, K: Clone + Eq + Hash, V: Copy> Tiers<S, K, V> {
    fn new() -> Self {
        Self { local: FnvHashMap::default(), shared: None, fresh: Vec::new() }
    }

    /// The local entry for `key`, else the one published under `sub`,
    /// promoted into the local map so a recurring key takes the read
    /// lock once. The flag says whether the shared map answered.
    fn get(&mut self, sub: S, key: &K) -> Option<(V, bool)> {
        if let Some(&value) = self.local.get(key) {
            return Some((value, false));
        }
        let (shared, namespace) = self.shared.as_ref()?;
        let value = *read_lock(shared).get(&(*namespace, sub))?.get(key)?;
        self.local.insert(key.clone(), value);
        Some((value, true))
    }

    /// Stores a locally computed entry, to be published under `sub`
    /// when a shared map is attached.
    fn insert(&mut self, sub: S, key: K, value: V) {
        if self.shared.is_some() {
            self.fresh.push((sub, key.clone(), value));
        }
        self.local.insert(key, value);
    }

    /// Publishes the fresh entries; the first write of a key wins.
    fn publish(&mut self) {
        let Some((shared, namespace)) = &self.shared else {
            return;
        };
        if self.fresh.is_empty() {
            return;
        }
        let mut map = write_lock(shared);
        for (sub, key, value) in self.fresh.drain(..) {
            map.entry((*namespace, sub)).or_default().entry(key).or_insert(value);
        }
    }
}

/// Hit/miss counters, split by attention vs non-attention operators so the
/// evaluation can show where the savings come from, plus whole-iteration
/// memoization counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReuseStats {
    /// Cache hits on attention operators.
    pub attention_hits: u64,
    /// Cache misses on attention operators.
    pub attention_misses: u64,
    /// Cache hits on non-attention operators.
    pub other_hits: u64,
    /// Cache misses on non-attention operators.
    pub other_misses: u64,
    /// Iterations served wholesale from the iteration-outcome cache
    /// (graph construction and network DES skipped).
    pub iteration_hits: u64,
    /// Iterations simulated in full and inserted into the cache.
    pub iteration_misses: u64,
    /// Iterations that bypassed the cache (KV paging traffic in the
    /// batch, or memoization disabled).
    pub iteration_uncacheable: u64,
    /// KV bucket granularity at the end of the run, in tokens (0 when no
    /// iteration cache reported; annealed upward by adaptive bucketing —
    /// fleet merges take the maximum across replicas).
    pub kv_bucket_end: u32,
    /// Iterations answered by the fleet-wide shared tier after a local
    /// miss — a subset of `iteration_hits`. Zero (and absent from
    /// summaries) unless a [`SharedReuse`] handle was attached.
    pub shared_hits: u64,
    /// Whether a cross-replica shared cache was attached this run. Gates
    /// the shared-tier fields out of summaries so artifacts from
    /// un-shared runs stay byte-identical.
    pub shared_armed: bool,
}

impl ReuseStats {
    /// Total hits.
    pub fn hits(&self) -> u64 {
        self.attention_hits + self.other_hits
    }

    /// Total misses (engine executions actually performed).
    pub fn misses(&self) -> u64 {
        self.attention_misses + self.other_misses
    }

    /// Hit rate in [0, 1] (0 when nothing was priced).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits() + self.misses();
        if total == 0 {
            return 0.0;
        }
        self.hits() as f64 / total as f64
    }

    /// Total iterations the simulator ran.
    pub fn iterations(&self) -> u64 {
        self.iteration_hits + self.iteration_misses + self.iteration_uncacheable
    }

    /// Fraction of iterations served wholesale from the iteration cache
    /// (0 when no iterations ran). Uncacheable iterations count against
    /// the rate — they paid the full miss path. With a shared cache
    /// attached this is the *fleet-wide* rate (local + shared tiers);
    /// [`local_iteration_hit_rate`](Self::local_iteration_hit_rate)
    /// isolates what each replica's private cache answered alone.
    pub fn iteration_hit_rate(&self) -> f64 {
        let total = self.iterations();
        if total == 0 {
            return 0.0;
        }
        self.iteration_hits as f64 / total as f64
    }

    /// Fraction of iterations the replica-private cache tier answered by
    /// itself (shared-tier hits excluded) — the per-replica half of the
    /// split that shows how much of the win the shared cache added.
    pub fn local_iteration_hit_rate(&self) -> f64 {
        let total = self.iterations();
        if total == 0 {
            return 0.0;
        }
        (self.iteration_hits - self.shared_hits) as f64 / total as f64
    }

    /// JSON object with raw counters and derived rates, for the
    /// machine-readable `-summary.json` artifacts.
    pub fn json_value(&self) -> serde::Value {
        use serde::Value;
        let mut fields = vec![
            ("attention_hits", Value::Int(i128::from(self.attention_hits))),
            ("attention_misses", Value::Int(i128::from(self.attention_misses))),
            ("other_hits", Value::Int(i128::from(self.other_hits))),
            ("other_misses", Value::Int(i128::from(self.other_misses))),
            ("iteration_hits", Value::Int(i128::from(self.iteration_hits))),
            ("iteration_misses", Value::Int(i128::from(self.iteration_misses))),
            ("iteration_uncacheable", Value::Int(i128::from(self.iteration_uncacheable))),
            ("hit_rate", Value::Float(self.hit_rate())),
            ("iteration_hit_rate", Value::Float(self.iteration_hit_rate())),
            ("kv_bucket_end", Value::Int(i128::from(self.kv_bucket_end))),
        ];
        // Shared-tier fields appear only when a shared cache was armed,
        // so artifacts from un-shared runs keep their historical bytes.
        if self.shared_armed {
            fields.push(("shared_hits", Value::Int(i128::from(self.shared_hits))));
            fields.push((
                "local_iteration_hit_rate",
                Value::Float(self.local_iteration_hit_rate()),
            ));
        }
        crate::json::obj(fields)
    }

    /// Folds another stats block into this one (fleet-level aggregation).
    pub fn merge(&mut self, other: &ReuseStats) {
        self.attention_hits += other.attention_hits;
        self.attention_misses += other.attention_misses;
        self.other_hits += other.other_hits;
        self.other_misses += other.other_misses;
        self.iteration_hits += other.iteration_hits;
        self.iteration_misses += other.iteration_misses;
        self.iteration_uncacheable += other.iteration_uncacheable;
        self.kv_bucket_end = self.kv_bucket_end.max(other.kv_bucket_end);
        self.shared_hits += other.shared_hits;
        self.shared_armed |= other.shared_armed;
    }
}

/// The compile+simulation result cache.
///
/// Keys combine the target device with the operator signature, so an op
/// priced on the NPU never answers for the same shape on PIM. The cache can
/// be disabled (`enabled = false`) to reproduce the paper's "w/o reuse"
/// configurations — lookups then always miss but statistics still count.
///
/// # Examples
///
/// ```
/// use llmss_core::{DeviceKind, ReuseCache};
/// use llmss_model::{Op, OpDims, OpKind};
///
/// let mut cache = ReuseCache::new(true);
/// let op = Op::new(OpKind::QkvGen, OpDims::matmul(64, 768, 2304), 2);
/// let mut executions = 0;
/// for _ in 0..10 {
///     cache.price(DeviceKind::Npu, &op.signature(), op.kind.is_attention(), || {
///         executions += 1;
///         12_345
///     });
/// }
/// assert_eq!(executions, 1); // nine hits
/// assert_eq!(cache.stats().hits(), 9);
/// ```
#[derive(Debug, Clone)]
pub struct ReuseCache {
    enabled: bool,
    /// Prices by `(device, signature)`. Shared hits count as ordinary
    /// hits: an op price is a pure function of `(device, signature)`
    /// within one configuration, so where the answer came from is
    /// invisible to simulated outcomes.
    tiers: Tiers<(), (DeviceKind, OpSignature), TimePs>,
    stats: ReuseStats,
}

impl ReuseCache {
    /// Creates a cache; `enabled = false` forces every lookup to miss.
    pub fn new(enabled: bool) -> Self {
        Self { enabled, tiers: Tiers::new(), stats: ReuseStats::default() }
    }

    /// Attaches the cross-replica tier under `namespace` (from
    /// [`SharedReuse::namespace`]). A disabled cache ignores the tier
    /// (lookups never consult it).
    pub fn attach_shared(&mut self, shared: SharedReuse, namespace: u32) {
        self.tiers.shared = Some((shared.ops, namespace));
    }

    /// Publishes locally executed prices to the shared tier (first
    /// write wins) — called by drivers at global sync points only; see
    /// [`SharedReuse`]'s determinism contract.
    pub fn publish_shared(&mut self) {
        self.tiers.publish();
    }

    /// Whether reuse is enabled.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Returns the cached latency or computes it via `execute`.
    pub fn price(
        &mut self,
        device: DeviceKind,
        signature: &OpSignature,
        is_attention: bool,
        execute: impl FnOnce() -> TimePs,
    ) -> TimePs {
        let key = (device, *signature);
        let hit = if self.enabled { self.tiers.get((), &key) } else { None };
        let counter = match (is_attention, hit.is_some()) {
            (true, true) => &mut self.stats.attention_hits,
            (true, false) => &mut self.stats.attention_misses,
            (false, true) => &mut self.stats.other_hits,
            (false, false) => &mut self.stats.other_misses,
        };
        *counter += 1;
        if let Some((ps, _)) = hit {
            return ps;
        }
        let ps = execute();
        if self.enabled {
            self.tiers.insert((), key, ps);
        }
        ps
    }

    /// Counts `attention` and `other` lookups as hits without making
    /// them. Block folding skips the lookups of the blocks it leaves out;
    /// they repeat an emitted block's signatures and, with the cache on,
    /// would all hit.
    pub fn credit_hits(&mut self, attention: u64, other: u64) {
        self.stats.attention_hits += attention;
        self.stats.other_hits += other;
    }

    /// Puts back counters saved by [`stats`](Self::stats). A caller that
    /// re-converts an iteration it already converted drops the repeat's
    /// counts this way, so every iteration counts its lookups once.
    pub fn restore_stats(&mut self, stats: ReuseStats) {
        self.stats = stats;
    }

    /// Cached entry count.
    pub fn len(&self) -> usize {
        self.tiers.local.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.tiers.local.is_empty()
    }

    /// Hit/miss statistics.
    pub fn stats(&self) -> ReuseStats {
        self.stats
    }

    /// Clears entries and statistics (unpublished fresh prices too; the
    /// shared tier itself is untouched — other replicas own it equally).
    pub fn clear(&mut self) {
        self.tiers.local.clear();
        self.tiers.fresh.clear();
        self.stats = ReuseStats::default();
    }
}

/// Everything a driver needs to record an iteration without re-deriving
/// it: the simulated makespan plus the bookkeeping the reports surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IterationOutcome {
    /// Simulated iteration latency (graph makespan).
    pub makespan_ps: TimePs,
    /// Execution-graph operations the iteration comprised.
    pub graph_ops: usize,
    /// Network-simulator events the DES processed.
    pub net_events: u64,
    /// Aggregate time in compute operators.
    pub compute_ps: TimePs,
    /// Aggregate time in communication operators (collectives + P2P).
    pub comm_ps: TimePs,
    /// Aggregate time in host memory transfers.
    pub host_ps: TimePs,
}

impl IterationOutcome {
    /// Captures the cacheable facts of a simulated graph.
    pub fn capture(outcome: &SimOutcome, graph_ops: usize) -> Self {
        Self {
            makespan_ps: outcome.makespan_ps,
            graph_ops,
            net_events: outcome.events,
            compute_ps: outcome.compute_ps,
            comm_ps: outcome.comm_ps,
            host_ps: outcome.host_ps,
        }
    }
}

/// Annealing policy for the iteration-signature KV bucket (the
/// [`KvBucket::Adaptive`](crate::KvBucket) machinery).
///
/// The cache starts at `min_tokens`-wide buckets. Every `window`
/// cacheable iterations it checks the window's hit rate: below
/// `target_hit_rate` the bucket doubles (clamped to the `max_tokens`
/// drift budget) and the cache clears — keys built under the old
/// granularity would alias under the new one. The bucket only grows, so
/// a trace that settles into steady state keeps its fidelity while a
/// signature-diverse trace anneals toward reuse.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BucketAdaptivity {
    /// Starting (and minimum) bucket width in tokens.
    pub min_tokens: u32,
    /// The drift budget: the bucket never grows beyond this width.
    pub max_tokens: u32,
    /// Window hit rate below which the bucket doubles.
    pub target_hit_rate: f64,
    /// Cacheable iterations per observation window.
    pub window: u64,
}

/// What [`IterationCache::lookup_batch`] found for an iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IterationLookup {
    /// The outcome was cached: skip graph construction and the DES.
    Hit(IterationOutcome),
    /// The batch is cacheable but cold — simulate, then call
    /// [`IterationCache::insert_current`].
    Miss,
    /// The batch cannot be cached (memoization disabled, or KV paging
    /// traffic in the batch) — simulate, nothing to insert.
    Uncacheable,
}

/// The iteration-outcome memoization cache.
///
/// Holds the [`SigLayout`] describing what the owning simulator's graph
/// converter is sensitive to, and maps [`BatchSignature`]s to
/// [`IterationOutcome`]s. The driver protocol per iteration is
/// [`lookup_batch`](Self::lookup_batch) on the freshly formed batch,
/// then — only on [`IterationLookup::Miss`] — simulate in full and
/// [`insert_current`](Self::insert_current) the outcome. The signature
/// is built into a scratch key reused across iterations and only cloned
/// on the (rare) miss path, so the hit path allocates nothing.
///
/// # Examples
///
/// ```
/// use llmss_core::{IterationCache, IterationLookup};
/// use llmss_model::{SeqSlot, SigLayout};
/// use llmss_sched::IterationBatch;
///
/// let mut cache = IterationCache::new(true, SigLayout::exact());
/// let batch = IterationBatch {
///     slots: vec![SeqSlot::decode(0, 128)],
///     evictions: vec![],
///     reloads: vec![],
/// };
/// assert_eq!(cache.lookup_batch(&batch), IterationLookup::Miss); // cold
/// ```
#[derive(Debug, Clone)]
pub struct IterationCache {
    enabled: bool,
    layout: SigLayout,
    /// Outcomes by signature, shared under the KV bucket they were
    /// signed at: under [`BucketAdaptivity`] replicas can reach
    /// different widths at the same virtual time, and a signature built
    /// under a 4-token bucket must never answer for one built under 8
    /// tokens even though the two `BatchSignature` values can collide.
    tiers: Tiers<u32, BatchSignature, IterationOutcome>,
    /// Reusable signature builder (sort-permutation scratch).
    builder: SignatureBuilder,
    /// The current batch's signature, rebuilt in place each iteration.
    key: BatchSignature,
    hits: u64,
    misses: u64,
    uncacheable: u64,
    /// Bucket annealing policy (`None`: the bucket stays fixed).
    adapt: Option<BucketAdaptivity>,
    /// Cacheable lookups and hits in the current observation window.
    window_lookups: u64,
    window_hits: u64,
    /// Hits answered by the shared tier (subset of `hits`).
    shared_hits: u64,
}

impl IterationCache {
    /// Creates a cache for a simulator whose converter matches `layout`;
    /// `enabled = false` turns every iteration into an uncacheable one.
    pub fn new(enabled: bool, layout: SigLayout) -> Self {
        Self {
            enabled,
            layout,
            tiers: Tiers::new(),
            builder: SignatureBuilder::new(),
            key: BatchSignature::empty(),
            hits: 0,
            misses: 0,
            uncacheable: 0,
            adapt: None,
            window_lookups: 0,
            window_hits: 0,
            shared_hits: 0,
        }
    }

    /// Attaches the cross-replica tier under `namespace` (from
    /// [`SharedReuse::namespace`]). A disabled cache ignores the tier
    /// (lookups never consult it).
    pub fn attach_shared(&mut self, shared: SharedReuse, namespace: u32) {
        self.tiers.shared = Some((shared.iterations, namespace));
    }

    /// Whether a shared tier is attached.
    pub fn shared_armed(&self) -> bool {
        self.tiers.shared.is_some()
    }

    /// Publishes locally simulated outcomes to the shared tier (first
    /// write wins) — called by drivers at global sync points only; see
    /// [`SharedReuse`]'s determinism contract.
    pub fn publish_shared(&mut self) {
        self.tiers.publish();
    }

    /// Enables KV-bucket annealing: the layout's bucket starts at
    /// `adapt.min_tokens` and doubles toward `adapt.max_tokens` whenever
    /// an observation window's hit rate falls below the target.
    pub fn with_adaptivity(mut self, adapt: BucketAdaptivity) -> Self {
        self.layout = self.layout.kv_bucket(adapt.min_tokens);
        self.adapt = Some(adapt);
        self
    }

    /// The KV bucket the cache currently signs under, in tokens.
    pub fn kv_bucket_tokens(&self) -> u32 {
        self.layout.kv_bucket
    }

    /// Closes an observation window if it is full: doubles the bucket
    /// (and drops the now-aliasing entries) when the window's hit rate
    /// missed the target. Runs *before* the next signature is built, so
    /// a lookup and its paired [`insert_current`](Self::insert_current)
    /// always share one granularity.
    fn maybe_adapt(&mut self) {
        let Some(adapt) = self.adapt else {
            return;
        };
        if self.window_lookups < adapt.window {
            return;
        }
        let rate = self.window_hits as f64 / self.window_lookups as f64;
        if rate < adapt.target_hit_rate && self.layout.kv_bucket < adapt.max_tokens {
            let next = self.layout.kv_bucket.saturating_mul(2).min(adapt.max_tokens);
            self.layout = self.layout.kv_bucket(next);
            // Keys built under the old granularity would alias under the
            // new one — a stale entry must never answer for a batch it
            // does not represent.
            self.tiers.local.clear();
        }
        self.window_lookups = 0;
        self.window_hits = 0;
    }

    /// Whether memoization is enabled.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The signature layout this cache keys under.
    pub fn layout(&self) -> &SigLayout {
        &self.layout
    }

    /// Signs `batch` into the reusable scratch key and looks it up,
    /// counting a hit, miss, or uncacheable iteration.
    pub fn lookup_batch(&mut self, batch: &IterationBatch) -> IterationLookup {
        if !self.enabled || !batch.is_steady() {
            self.uncacheable += 1;
            return IterationLookup::Uncacheable;
        }
        self.maybe_adapt();
        self.window_lookups += 1;
        self.builder.build_into(&batch.slots, &self.layout, &mut self.key);
        let Some((out, shared)) = self.tiers.get(self.layout.kv_bucket, &self.key) else {
            self.misses += 1;
            return IterationLookup::Miss;
        };
        self.hits += 1;
        self.window_hits += 1;
        if shared {
            self.shared_hits += 1;
        }
        IterationLookup::Hit(out)
    }

    /// Stores `outcome` under the signature built by the last
    /// [`lookup_batch`](Self::lookup_batch) (which must have returned
    /// [`IterationLookup::Miss`]); the scratch key is cloned here, on
    /// the one path that has to own it.
    pub fn insert_current(&mut self, outcome: IterationOutcome) {
        self.tiers.insert(self.layout.kv_bucket, self.key.clone(), outcome);
    }

    /// Cached iteration count.
    pub fn len(&self) -> usize {
        self.tiers.local.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.tiers.local.is_empty()
    }

    /// Folds this cache's counters into a stats block.
    pub fn fill_stats(&self, stats: &mut ReuseStats) {
        stats.iteration_hits = self.hits;
        stats.iteration_misses = self.misses;
        stats.iteration_uncacheable = self.uncacheable;
        stats.kv_bucket_end = self.layout.kv_bucket;
        stats.shared_hits = self.shared_hits;
        stats.shared_armed = self.shared_armed();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmss_model::{Op, OpDims, OpKind};

    fn sig(m: usize) -> OpSignature {
        Op::new(OpKind::QkvGen, OpDims::matmul(m, 64, 192), 2).signature()
    }

    #[test]
    fn disabled_cache_always_misses() {
        let mut c = ReuseCache::new(false);
        let mut execs = 0;
        for _ in 0..5 {
            c.price(DeviceKind::Npu, &sig(8), false, || {
                execs += 1;
                1
            });
        }
        assert_eq!(execs, 5);
        assert_eq!(c.stats().hits(), 0);
        assert_eq!(c.stats().misses(), 5);
        assert!(c.is_empty());
    }

    #[test]
    fn device_keys_are_distinct() {
        let mut c = ReuseCache::new(true);
        let s = sig(8);
        c.price(DeviceKind::Npu, &s, false, || 100);
        let pim = c.price(DeviceKind::Pim, &s, false, || 200);
        assert_eq!(pim, 200);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn attention_split_in_stats() {
        let mut c = ReuseCache::new(true);
        c.price(DeviceKind::Npu, &sig(1), true, || 1);
        c.price(DeviceKind::Npu, &sig(1), true, || 1);
        c.price(DeviceKind::Npu, &sig(2), false, || 1);
        let s = c.stats();
        assert_eq!(s.attention_misses, 1);
        assert_eq!(s.attention_hits, 1);
        assert_eq!(s.other_misses, 1);
        assert!((c.stats().hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn clear_resets_everything() {
        let mut c = ReuseCache::new(true);
        c.price(DeviceKind::Npu, &sig(4), false, || 9);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.stats(), ReuseStats::default());
    }

    use llmss_model::{SeqSlot, SigLayout};
    use llmss_sched::{IterationBatch, KvTransfer};

    fn steady(slots: Vec<SeqSlot>) -> IterationBatch {
        IterationBatch { slots, evictions: vec![], reloads: vec![] }
    }

    fn outcome(makespan: TimePs) -> IterationOutcome {
        IterationOutcome {
            makespan_ps: makespan,
            graph_ops: 10,
            net_events: 20,
            compute_ps: makespan,
            comm_ps: 0,
            host_ps: 0,
        }
    }

    #[test]
    fn iteration_cache_hits_on_recurring_signatures() {
        let mut c = IterationCache::new(true, SigLayout::exact());
        let batch = steady(vec![SeqSlot::decode(0, 100)]);
        assert_eq!(c.lookup_batch(&batch), IterationLookup::Miss);
        c.insert_current(outcome(42));
        // A later iteration with the same shape (different request id,
        // placement-insensitive layout) hits.
        match c.lookup_batch(&steady(vec![SeqSlot::decode(7, 100)])) {
            IterationLookup::Hit(out) => assert_eq!(out.makespan_ps, 42),
            other => panic!("expected a hit, got {other:?}"),
        }
        let mut stats = ReuseStats::default();
        c.fill_stats(&mut stats);
        assert_eq!((stats.iteration_hits, stats.iteration_misses), (1, 1));
        assert_eq!(c.len(), 1);
        assert!(!c.is_empty());
    }

    #[test]
    fn paging_batches_are_uncacheable() {
        let mut c = IterationCache::new(true, SigLayout::exact());
        let batch = IterationBatch {
            slots: vec![SeqSlot::decode(0, 64)],
            evictions: vec![KvTransfer { request: 1, bytes: 1 << 20, pages: 16 }],
            reloads: vec![],
        };
        assert_eq!(c.lookup_batch(&batch), IterationLookup::Uncacheable);
        let mut stats = ReuseStats::default();
        c.fill_stats(&mut stats);
        assert_eq!(stats.iteration_uncacheable, 1);
        assert_eq!(stats.iteration_hit_rate(), 0.0);
    }

    #[test]
    fn disabled_iteration_cache_never_signs() {
        let mut c = IterationCache::new(false, SigLayout::exact());
        assert!(!c.enabled());
        assert_eq!(
            c.lookup_batch(&steady(vec![SeqSlot::decode(0, 64)])),
            IterationLookup::Uncacheable
        );
    }

    #[test]
    fn stats_merge_sums_every_counter() {
        let a = ReuseStats {
            attention_hits: 1,
            attention_misses: 2,
            other_hits: 3,
            other_misses: 4,
            iteration_hits: 5,
            iteration_misses: 6,
            iteration_uncacheable: 7,
            kv_bucket_end: 8,
            shared_hits: 2,
            shared_armed: true,
        };
        let mut b = a;
        b.merge(&a);
        assert_eq!(b.hits(), 2 * a.hits());
        assert_eq!(b.iterations(), 2 * a.iterations());
        assert!((a.iteration_hit_rate() - 5.0 / 18.0).abs() < 1e-12);
        assert!((a.local_iteration_hit_rate() - 3.0 / 18.0).abs() < 1e-12);
        // The bucket is a granularity, not a count: merge takes the max.
        assert_eq!(b.kv_bucket_end, 8);
        assert_eq!(b.shared_hits, 4);
        assert!(b.shared_armed);
    }

    #[test]
    fn adaptive_bucket_grows_on_cold_windows_and_clears_entries() {
        let adapt =
            BucketAdaptivity { min_tokens: 1, max_tokens: 8, target_hit_rate: 0.9, window: 4 };
        let mut c = IterationCache::new(true, SigLayout::exact()).with_adaptivity(adapt);
        assert_eq!(c.kv_bucket_tokens(), 1);
        // Four all-miss lookups with distinct KV lengths: a cold window.
        for kv in [10, 20, 30, 40] {
            assert_eq!(
                c.lookup_batch(&steady(vec![SeqSlot::decode(0, kv)])),
                IterationLookup::Miss
            );
            c.insert_current(outcome(kv as TimePs));
        }
        assert_eq!(c.len(), 4);
        // The next lookup closes the window: bucket doubles, cache drops.
        let _ = c.lookup_batch(&steady(vec![SeqSlot::decode(0, 50)]));
        assert_eq!(c.kv_bucket_tokens(), 2);
        assert_eq!(c.len(), 0, "stale exact-bucket keys must not survive the re-bucket");
        let mut stats = ReuseStats::default();
        c.fill_stats(&mut stats);
        assert_eq!(stats.kv_bucket_end, 2);
    }

    #[test]
    fn adaptive_bucket_respects_the_drift_budget() {
        let adapt =
            BucketAdaptivity { min_tokens: 2, max_tokens: 8, target_hit_rate: 1.0, window: 1 };
        let mut c = IterationCache::new(true, SigLayout::exact()).with_adaptivity(adapt);
        // Every window misses (fresh KV length each time): the bucket
        // doubles 2 -> 4 -> 8 and then pins at the budget.
        for (i, kv) in (0..10).map(|i| (i, 100 + 17 * i)).collect::<Vec<_>>() {
            let _ = c.lookup_batch(&steady(vec![SeqSlot::decode(0, kv)]));
            assert!(c.kv_bucket_tokens() <= 8, "iteration {i} exceeded the budget");
        }
        assert_eq!(c.kv_bucket_tokens(), 8);
    }

    #[test]
    fn shared_tier_answers_only_after_publish_and_within_fingerprint() {
        let shared = SharedReuse::new();
        let mut a = IterationCache::new(true, SigLayout::exact());
        a.attach_shared(shared.clone(), 0xAAAA);
        let mut b = IterationCache::new(true, SigLayout::exact());
        b.attach_shared(shared.clone(), 0xAAAA);
        let mut other = IterationCache::new(true, SigLayout::exact());
        other.attach_shared(shared.clone(), 0xBBBB);

        let batch = steady(vec![SeqSlot::decode(0, 100)]);
        assert_eq!(a.lookup_batch(&batch), IterationLookup::Miss);
        a.insert_current(outcome(42));
        // Unpublished fresh entries are invisible fleet-wide: the map
        // stays a frozen snapshot between sync points.
        assert_eq!(b.lookup_batch(&batch), IterationLookup::Miss);
        assert_eq!(shared.iteration_entries(), 0);

        a.publish_shared();
        assert_eq!(shared.iteration_entries(), 1);
        match b.lookup_batch(&batch) {
            IterationLookup::Hit(out) => assert_eq!(out.makespan_ps, 42),
            got => panic!("expected a shared hit, got {got:?}"),
        }
        let mut stats = ReuseStats::default();
        b.fill_stats(&mut stats);
        assert_eq!((stats.iteration_hits, stats.shared_hits), (1, 1));
        assert!(stats.shared_armed);
        // A replica under a different namespace never sees the entry.
        assert_eq!(other.lookup_batch(&batch), IterationLookup::Miss);
    }

    #[test]
    fn shared_publish_is_first_write_wins() {
        let shared = SharedReuse::new();
        let mut a = IterationCache::new(true, SigLayout::exact());
        a.attach_shared(shared.clone(), 7);
        let mut b = IterationCache::new(true, SigLayout::exact());
        b.attach_shared(shared.clone(), 7);
        let batch = steady(vec![SeqSlot::decode(0, 50)]);
        assert_eq!(a.lookup_batch(&batch), IterationLookup::Miss);
        a.insert_current(outcome(10));
        assert_eq!(b.lookup_batch(&batch), IterationLookup::Miss);
        b.insert_current(outcome(99));
        a.publish_shared();
        b.publish_shared(); // loses: a's entry is already present
        let mut probe = IterationCache::new(true, SigLayout::exact());
        probe.attach_shared(shared, 7);
        match probe.lookup_batch(&batch) {
            IterationLookup::Hit(out) => assert_eq!(out.makespan_ps, 10),
            got => panic!("expected a hit, got {got:?}"),
        }
    }

    #[test]
    fn shared_tier_namespaces_by_bucket_width() {
        // KV 100 under a 4-token bucket and KV 200 under an 8-token
        // bucket both sign as bucket index 25 — the bucket namespace
        // must keep them apart.
        let shared = SharedReuse::new();
        let mut coarse4 = IterationCache::new(true, SigLayout::exact().kv_bucket(4));
        coarse4.attach_shared(shared.clone(), 1);
        let mut coarse8 = IterationCache::new(true, SigLayout::exact().kv_bucket(8));
        coarse8.attach_shared(shared.clone(), 1);
        assert_eq!(
            coarse4.lookup_batch(&steady(vec![SeqSlot::decode(0, 100)])),
            IterationLookup::Miss
        );
        coarse4.insert_current(outcome(444));
        coarse4.publish_shared();
        assert_eq!(
            coarse8.lookup_batch(&steady(vec![SeqSlot::decode(0, 200)])),
            IterationLookup::Miss,
            "a bucket-4 outcome must not answer under bucket 8"
        );
    }

    #[test]
    fn shared_op_tier_prices_cross_replica() {
        let shared = SharedReuse::new();
        let mut a = ReuseCache::new(true);
        a.attach_shared(shared.clone(), 5);
        let mut b = ReuseCache::new(true);
        b.attach_shared(shared.clone(), 5);
        let mut execs = 0;
        a.price(DeviceKind::Npu, &sig(8), false, || {
            execs += 1;
            77
        });
        a.publish_shared();
        assert_eq!(shared.op_entries(), 1);
        let ps = b.price(DeviceKind::Npu, &sig(8), false, || {
            execs += 1;
            0
        });
        assert_eq!(ps, 77, "b must answer from the shared tier");
        assert_eq!(execs, 1);
        assert_eq!(b.stats().hits(), 1);
    }

    #[test]
    fn namespaces_follow_config_equality() {
        let shared = SharedReuse::new();
        let a = crate::SimConfig::new(llmss_model::ModelSpec::gpt2());
        let b = a.clone().npu_num(2);
        assert_eq!(
            [&a, &b, &a].map(|config| shared.namespace(config)),
            [0, 1, 0],
            "equal configs share one namespace, numbered in first-attached order"
        );
        let decode = shared.namespace(&a.clone().decode_only());
        let batch = shared.namespace(&a.clone().max_batch(64));
        assert_eq!((decode, batch), (2, 3), "each changed field gets a namespace of its own");
        assert_eq!(shared.namespace(&a.max_batch(64)), 3);
    }

    #[test]
    fn adaptive_bucket_holds_when_windows_hit() {
        let adapt =
            BucketAdaptivity { min_tokens: 1, max_tokens: 64, target_hit_rate: 0.5, window: 2 };
        let mut c = IterationCache::new(true, SigLayout::exact()).with_adaptivity(adapt);
        // Prime one signature, then hit it repeatedly: every window is
        // warm, so the bucket must stay exact.
        assert_eq!(
            c.lookup_batch(&steady(vec![SeqSlot::decode(0, 64)])),
            IterationLookup::Miss
        );
        c.insert_current(outcome(1));
        for _ in 0..10 {
            match c.lookup_batch(&steady(vec![SeqSlot::decode(0, 64)])) {
                IterationLookup::Hit(_) => {}
                other => panic!("expected a hit, got {other:?}"),
            }
        }
        assert_eq!(c.kv_bucket_tokens(), 1);
    }
}
