//! Simulation configuration (the artifact's 16 CLI parameters).

use std::hash::Hasher;

use llmss_model::{FnvHasher, ModelSpec};
use llmss_net::{LinkSpec, TimePs, Topology};
use llmss_npu::NpuConfig;
use llmss_pim::PimConfig;
use llmss_sched::{
    KvCache, KvCacheConfig, MemoryModel, SchedulerConfig, SchedulerMode, SchedulingPolicy,
};
use serde::{Deserialize, Serialize};

use crate::PimMode;

/// Parallelism strategy (the artifact's `parallel` parameter).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ParallelismKind {
    /// All NPUs in one tensor-parallel group.
    Tensor,
    /// Each NPU its own pipeline stage.
    Pipeline,
    /// `npu_group` pipeline stages of tensor-parallel groups.
    Hybrid,
}

impl ParallelismKind {
    /// The scenario-file spelling (the artifact's `parallel` values).
    pub fn as_str(&self) -> &'static str {
        match self {
            ParallelismKind::Tensor => "tensor",
            ParallelismKind::Pipeline => "pipeline",
            ParallelismKind::Hybrid => "hybrid",
        }
    }
}

impl std::str::FromStr for ParallelismKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "tensor" => Ok(ParallelismKind::Tensor),
            "pipeline" => Ok(ParallelismKind::Pipeline),
            "hybrid" => Ok(ParallelismKind::Hybrid),
            other => Err(format!(
                "unknown parallelism '{other}' (expected tensor | pipeline | hybrid)"
            )),
        }
    }
}

/// A resolved parallelism layout: `tp` nodes per group, `pp` groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ParallelismSpec {
    /// Tensor-parallel degree (nodes per group).
    pub tp: usize,
    /// Pipeline-parallel degree (number of stage groups).
    pub pp: usize,
}

impl ParallelismSpec {
    /// Total accelerator nodes.
    pub fn n_nodes(&self) -> usize {
        self.tp * self.pp
    }
}

impl std::fmt::Display for ParallelismSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TP{} PP{}", self.tp, self.pp)
    }
}

/// KV-cache management choice (the artifact's `kv_manage`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KvManage {
    /// vLLM-style demand paging (default).
    Vllm,
    /// Conventional max-length preallocation.
    MaxLen,
}

impl KvManage {
    /// The scenario-file spelling (the artifact's `kv_manage` values).
    pub fn as_str(&self) -> &'static str {
        match self {
            KvManage::Vllm => "vllm",
            KvManage::MaxLen => "max",
        }
    }
}

impl std::str::FromStr for KvManage {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "vllm" => Ok(KvManage::Vllm),
            "max" => Ok(KvManage::MaxLen),
            other => Err(format!("unknown KV management '{other}' (expected vllm | max)")),
        }
    }
}

/// KV-length bucket policy for iteration-outcome memoization.
///
/// The iteration cache keys batches on their KV lengths divided by a
/// bucket granularity: bucket 1 is exact (memoized runs are bit-identical
/// to unmemoized ones), coarser buckets trade bounded timing fidelity for
/// much higher hit rates. [`Fixed`](KvBucket::Fixed) pins one granularity
/// for the whole run; [`Adaptive`](KvBucket::Adaptive) *anneals* it — the
/// run starts at `min_tokens` and doubles the bucket (up to the
/// `max_tokens` drift budget) whenever a window of iterations falls short
/// of the target hit rate, so each trace finds its own fidelity/speed
/// point instead of requiring a hand-tuned global `--kv-bucket`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum KvBucket {
    /// One bucket granularity for the whole run (1 = exact).
    Fixed {
        /// Bucket width in tokens (>= 1).
        tokens: usize,
    },
    /// Anneal the bucket from observed iteration-cache hit rates.
    Adaptive {
        /// Starting (and minimum) bucket width in tokens (>= 1; 1 starts
        /// exact).
        min_tokens: usize,
        /// The drift budget: the bucket never grows beyond this width,
        /// bounding how far a decode iteration's priced KV length can sit
        /// from its true length.
        max_tokens: usize,
        /// Observed-window hit rate below which the bucket doubles, in
        /// `(0, 1]`.
        target_hit_rate: f64,
        /// Cacheable iterations per observation window (>= 1).
        window: u64,
    },
}

impl KvBucket {
    /// The exact policy: fixed unit buckets, bit-identical reports.
    pub fn exact() -> Self {
        KvBucket::Fixed { tokens: 1 }
    }

    /// A reasonable adaptive default: start exact, grow up to 128-token
    /// buckets whenever a 64-iteration window hits below 60%.
    pub fn adaptive() -> Self {
        KvBucket::Adaptive { min_tokens: 1, max_tokens: 128, target_hit_rate: 0.6, window: 64 }
    }

    /// The bucket width the run starts with.
    pub fn initial_tokens(&self) -> usize {
        match *self {
            KvBucket::Fixed { tokens } => tokens,
            KvBucket::Adaptive { min_tokens, .. } => min_tokens,
        }
    }

    /// Checks the policy's parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when a width is zero, the adaptive range is
    /// inverted, the target hit rate is outside `(0, 1]`, or the window is
    /// empty.
    pub fn validate(&self) -> Result<(), ConfigError> {
        match *self {
            KvBucket::Fixed { tokens } => {
                if tokens == 0 {
                    return Err(ConfigError::new("kv_bucket must be at least 1 token"));
                }
            }
            KvBucket::Adaptive { min_tokens, max_tokens, target_hit_rate, window } => {
                if min_tokens == 0 {
                    return Err(ConfigError::new("adaptive kv_bucket min_tokens must be >= 1"));
                }
                if max_tokens < min_tokens {
                    return Err(ConfigError::new(format!(
                        "adaptive kv_bucket range inverted: min {min_tokens} > max {max_tokens}"
                    )));
                }
                if !(target_hit_rate > 0.0 && target_hit_rate <= 1.0) {
                    return Err(ConfigError::new(format!(
                        "adaptive kv_bucket target_hit_rate must be in (0, 1], got \
                         {target_hit_rate}"
                    )));
                }
                if window == 0 {
                    return Err(ConfigError::new("adaptive kv_bucket window must be >= 1"));
                }
            }
        }
        Ok(())
    }
}

impl Default for KvBucket {
    fn default() -> Self {
        Self::exact()
    }
}

impl From<usize> for KvBucket {
    fn from(tokens: usize) -> Self {
        KvBucket::Fixed { tokens }
    }
}

/// The longest batching delay a configuration accepts, in milliseconds:
/// one hour of simulated time. Real batching windows are a few
/// milliseconds; the cap keeps `arrival + delay` far inside [`TimePs`].
const MAX_BATCH_DELAY_MS: f64 = 3_600_000.0;

/// The largest per-NPU memory a configuration accepts, in GiB: 1 PiB,
/// far above any device, so that the byte count of a whole replica
/// stays inside `u64`.
const MAX_NPU_MEM_GIB: f64 = 1_048_576.0;

/// Errors raised when a configuration cannot be realized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The [`SimConfig`] field at fault, when one value alone is.
    field: Option<&'static str>,
    message: String,
}

impl ConfigError {
    fn new(message: impl Into<String>) -> Self {
        Self { field: None, message: message.into() }
    }

    fn invalid(field: &'static str, message: String) -> Self {
        Self { field: Some(field), message }
    }

    /// The [`SimConfig`] field whose value alone is out of range, if the
    /// error is about one field.
    pub fn field(&self) -> Option<&'static str> {
        self.field
    }

    /// What is wrong, without the field name.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.field {
            Some(field) => write!(f, "invalid simulation config: {field}: {}", self.message),
            None => write!(f, "invalid simulation config: {}", self.message),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Full simulation configuration.
///
/// Mirrors the artifact's parameters: model, `npu_num`, `max_batch`,
/// `batch_delay`, `scheduling`, `parallel`, `npu_group`, `npu_mem`,
/// `kv_manage`, `pim_type`, `sub_batch` — plus the hardware configs and
/// link specs that live in separate JSON files in the original.
///
/// # Examples
///
/// ```
/// use llmss_core::SimConfig;
/// use llmss_model::ModelSpec;
///
/// let cfg = SimConfig::new(ModelSpec::gpt3_7b())
///     .npu_num(4)
///     .tensor_parallel();
/// assert_eq!(cfg.parallelism().unwrap().tp, 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// The model to serve.
    pub model: ModelSpec,
    /// Number of NPU nodes.
    pub npu_num: usize,
    /// Maximum batch size (0 = unlimited).
    pub max_batch: usize,
    /// Batching delay in milliseconds.
    pub batch_delay_ms: f64,
    /// Scheduling policy.
    pub scheduling: SchedulingPolicy,
    /// Which serving phases this replica runs (unified, prefill-only, or
    /// decode-only — the disaggregated-serving knob).
    pub mode: SchedulerMode,
    /// Parallelism strategy.
    pub parallel: ParallelismKind,
    /// NPU groups for hybrid parallelism (= pipeline stages).
    pub npu_group: usize,
    /// Per-NPU memory override in GiB (`None`: use the NPU config's).
    pub npu_mem_gib: Option<f64>,
    /// KV-cache management scheme.
    pub kv_manage: KvManage,
    /// Tokens per KV page.
    pub kv_page_tokens: usize,
    /// PIM participation.
    pub pim_mode: PimMode,
    /// Number of PIM nodes when `pim_mode == Pool`.
    pub pim_pool_size: usize,
    /// NeuPIMs-style sub-batch interleaving.
    pub sub_batch: bool,
    /// Orca-style selective batching (attention fan-out across the group).
    pub selective_batching: bool,
    /// Computation-reuse caches enabled.
    pub reuse: bool,
    /// Whole-iteration outcome memoization (requires `reuse`; see
    /// [`kv_bucket`](Self::kv_bucket) for the fidelity knob).
    pub iteration_memo: bool,
    /// KV-length bucket policy for iteration signatures. The default
    /// ([`KvBucket::exact`]) keys iterations on exact KV lengths —
    /// memoized runs are then bit-identical to unmemoized ones; coarser
    /// fixed buckets price a decode iteration as its bucket
    /// representative, and [`KvBucket::Adaptive`] anneals the width per
    /// run from observed hit rates within a drift budget.
    pub kv_bucket: KvBucket,
    /// NPU hardware configuration.
    pub npu_config: NpuConfig,
    /// PIM hardware configuration.
    pub pim_config: PimConfig,
    /// Inter-device link.
    pub link: LinkSpec,
    /// NPU-pool to PIM-pool interconnect.
    pub pool_link: LinkSpec,
}

impl SimConfig {
    /// Creates a configuration with the artifact's defaults for `model`.
    pub fn new(model: ModelSpec) -> Self {
        Self {
            model,
            npu_num: 16,
            max_batch: 0,
            batch_delay_ms: 0.0,
            scheduling: SchedulingPolicy::IterationLevel,
            mode: SchedulerMode::Unified,
            parallel: ParallelismKind::Hybrid,
            npu_group: 1,
            npu_mem_gib: None,
            kv_manage: KvManage::Vllm,
            kv_page_tokens: 16,
            pim_mode: PimMode::None,
            pim_pool_size: 0,
            sub_batch: false,
            selective_batching: true,
            reuse: true,
            iteration_memo: true,
            kv_bucket: KvBucket::exact(),
            npu_config: NpuConfig::table1(),
            pim_config: PimConfig::table1(),
            link: LinkSpec::pcie4_x16(),
            pool_link: LinkSpec::cxl(),
        }
    }

    /// A deterministic 64-bit digest of every field that shapes
    /// simulated outcomes — the namespace key for the cross-replica
    /// [`SharedReuse`](crate::SharedReuse) tier. Two replicas may share
    /// cached iteration outcomes only when their fingerprints agree:
    /// identical configurations produce identical graphs, so a cached
    /// outcome is a pure function of the batch signature within one
    /// fingerprint. The digest is FNV-1a over the `Debug` rendering,
    /// which covers all fields (the struct is not serde-serializable)
    /// and stays stable for a fixed configuration within one build.
    pub fn fingerprint(&self) -> u64 {
        let mut hasher = FnvHasher::default();
        hasher.write(format!("{self:?}").as_bytes());
        hasher.finish()
    }

    /// Sets the number of NPUs.
    pub fn npu_num(mut self, n: usize) -> Self {
        self.npu_num = n;
        self
    }

    /// Uses pure tensor parallelism.
    pub fn tensor_parallel(mut self) -> Self {
        self.parallel = ParallelismKind::Tensor;
        self
    }

    /// Uses pure pipeline parallelism.
    pub fn pipeline_parallel(mut self) -> Self {
        self.parallel = ParallelismKind::Pipeline;
        self
    }

    /// Uses hybrid parallelism with `groups` pipeline stages.
    pub fn hybrid_parallel(mut self, groups: usize) -> Self {
        self.parallel = ParallelismKind::Hybrid;
        self.npu_group = groups;
        self
    }

    /// Sets the maximum batch size (0 = unlimited).
    pub fn max_batch(mut self, n: usize) -> Self {
        self.max_batch = n;
        self
    }

    /// Enables or disables the computation-reuse caches.
    pub fn reuse(mut self, enabled: bool) -> Self {
        self.reuse = enabled;
        self
    }

    /// Enables or disables whole-iteration outcome memoization (on by
    /// default; also requires [`reuse`](Self::reuse)).
    pub fn iteration_memo(mut self, enabled: bool) -> Self {
        self.iteration_memo = enabled;
        self
    }

    /// Sets the KV-length bucket policy for iteration signatures: a
    /// plain token count for a fixed bucket (1 = exact; larger trades
    /// bounded fidelity for hit rate), or a full [`KvBucket`] value
    /// (e.g. [`KvBucket::Adaptive`]).
    ///
    /// # Panics
    ///
    /// Panics on invalid parameters (zero width, inverted adaptive
    /// range, out-of-range target, empty window).
    #[expect(
        clippy::panic,
        reason = "documented panic: an invalid bucket spec is a caller bug in this builder API"
    )]
    pub fn kv_bucket(mut self, bucket: impl Into<KvBucket>) -> Self {
        let bucket = bucket.into();
        if let Err(e) = bucket.validate() {
            panic!("{e}");
        }
        self.kv_bucket = bucket;
        self
    }

    /// Attaches a local PIM to every NPU device.
    pub fn pim_local(mut self) -> Self {
        self.pim_mode = PimMode::Local;
        self
    }

    /// Adds a PIM pool of `n` devices.
    pub fn pim_pool(mut self, n: usize) -> Self {
        self.pim_mode = PimMode::Pool;
        self.pim_pool_size = n;
        self
    }

    /// Enables NeuPIMs-style sub-batch interleaving.
    pub fn sub_batch(mut self, enabled: bool) -> Self {
        self.sub_batch = enabled;
        self
    }

    /// Enables or disables selective batching.
    pub fn selective_batching(mut self, enabled: bool) -> Self {
        self.selective_batching = enabled;
        self
    }

    /// Uses max-length KV preallocation instead of paging.
    pub fn kv_max_len(mut self) -> Self {
        self.kv_manage = KvManage::MaxLen;
        self
    }

    /// Sets the scheduling policy.
    pub fn scheduling(mut self, policy: SchedulingPolicy) -> Self {
        self.scheduling = policy;
        self
    }

    /// Runs this replica as a prefill-pool member: requests complete at
    /// the end of their prefill iteration, KV ready to ship.
    pub fn prefill_only(mut self) -> Self {
        self.mode = SchedulerMode::PrefillOnly;
        self
    }

    /// Runs this replica as a decode-pool member: admitted requests
    /// arrive with their prompt KV already computed elsewhere.
    pub fn decode_only(mut self) -> Self {
        self.mode = SchedulerMode::DecodeOnly;
        self
    }

    /// Checks the values that arrive as floats: the batching delay must
    /// lie in 0..=3,600,000 ms (one hour) and a per-NPU memory override
    /// in (0, 1,048,576] GiB (1 PiB). NaN and infinities fail.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the field.
    pub fn check_values(&self) -> Result<(), ConfigError> {
        let delay = self.batch_delay_ms;
        if !(0.0..=MAX_BATCH_DELAY_MS).contains(&delay) {
            return Err(ConfigError::invalid(
                "batch_delay_ms",
                format!("must be a finite delay in 0..={MAX_BATCH_DELAY_MS} ms, got {delay}"),
            ));
        }
        if let Some(gib) = self.npu_mem_gib {
            if !(gib > 0.0 && gib <= MAX_NPU_MEM_GIB) {
                return Err(ConfigError::invalid(
                    "npu_mem_gib",
                    format!("must be a finite size in (0, {MAX_NPU_MEM_GIB}] GiB, got {gib}"),
                ));
            }
        }
        Ok(())
    }

    /// Per-NPU memory in bytes (override or hardware config).
    pub fn npu_mem_bytes(&self) -> u64 {
        let gib = self.npu_mem_gib.unwrap_or(self.npu_config.mem_capacity_gib);
        (gib * 1024.0 * 1024.0 * 1024.0) as u64
    }

    /// Resolves the parallelism layout.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if groups do not divide `npu_num`, the
    /// layout has more stages than the model has layers, or `npu_num` is 0.
    pub fn parallelism(&self) -> Result<ParallelismSpec, ConfigError> {
        if self.npu_num == 0 {
            return Err(ConfigError::new("npu_num must be at least 1"));
        }
        let spec = match self.parallel {
            ParallelismKind::Tensor => ParallelismSpec { tp: self.npu_num, pp: 1 },
            ParallelismKind::Pipeline => ParallelismSpec { tp: 1, pp: self.npu_num },
            ParallelismKind::Hybrid => {
                if self.npu_group == 0 || !self.npu_num.is_multiple_of(self.npu_group) {
                    return Err(ConfigError::new(format!(
                        "npu_group {} must divide npu_num {}",
                        self.npu_group, self.npu_num
                    )));
                }
                ParallelismSpec { tp: self.npu_num / self.npu_group, pp: self.npu_group }
            }
        };
        if spec.pp > self.model.n_layers {
            return Err(ConfigError::new(format!(
                "{} pipeline stages exceed {} model layers",
                spec.pp, self.model.n_layers
            )));
        }
        Ok(spec)
    }

    /// Builds the system topology for this configuration.
    ///
    /// # Errors
    ///
    /// Propagates parallelism errors; requires a non-empty PIM pool in
    /// `Pool` mode.
    pub fn topology(&self) -> Result<Topology, ConfigError> {
        let p = self.parallelism()?;
        match self.pim_mode {
            PimMode::None | PimMode::Local => {
                Ok(Topology::grouped_npus(self.npu_num, p.pp, self.link))
            }
            PimMode::Pool => {
                if self.pim_pool_size == 0 {
                    return Err(ConfigError::new("pool mode needs pim_pool_size >= 1"));
                }
                Ok(Topology::npu_pim_pools(
                    self.npu_num,
                    self.pim_pool_size,
                    p.pp,
                    self.link,
                    self.pool_link,
                ))
            }
        }
    }

    /// Builds the aggregate memory model.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the model weights do not fit.
    pub fn memory_model(&self) -> Result<MemoryModel, ConfigError> {
        let per_device = self.npu_mem_bytes();
        let weights = self.model.weight_bytes();
        // 1 GiB activation/workspace reserve per device.
        let reserve: u64 = 1 << 30;
        let total = self.npu_num as u64 * per_device;
        if weights + self.npu_num as u64 * reserve > total {
            return Err(ConfigError::new(format!(
                "model weights ({:.1} GiB) exceed system memory ({:.1} GiB across {} NPUs)",
                weights as f64 / (1u64 << 30) as f64,
                total as f64 / (1u64 << 30) as f64,
                self.npu_num
            )));
        }
        Ok(MemoryModel::new(self.npu_num, per_device, weights, reserve))
    }

    /// Builds the KV cache for this configuration.
    ///
    /// # Errors
    ///
    /// Propagates memory-model errors.
    pub fn kv_cache(&self) -> Result<KvCache, ConfigError> {
        let mem = self.memory_model()?;
        let per_token = self.model.kv_bytes_per_token();
        let mut kv_cfg = match self.kv_manage {
            KvManage::Vllm => KvCacheConfig::paged(mem.kv_budget(), per_token),
            KvManage::MaxLen => {
                KvCacheConfig::max_len(mem.kv_budget(), per_token, self.model.max_seq)
            }
        };
        kv_cfg.page_tokens = self.kv_page_tokens;
        Ok(KvCache::new(kv_cfg))
    }

    /// Builds the scheduler configuration.
    pub fn scheduler_config(&self) -> SchedulerConfig {
        SchedulerConfig {
            policy: self.scheduling,
            mode: self.mode,
            max_batch: self.max_batch,
            batch_delay_ps: (self.batch_delay_ms * 1e9) as TimePs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelism_resolution() {
        let base = SimConfig::new(ModelSpec::gpt3_7b()).npu_num(8);
        assert_eq!(base.clone().tensor_parallel().parallelism().unwrap().tp, 8);
        assert_eq!(base.clone().pipeline_parallel().parallelism().unwrap().pp, 8);
        let h = base.hybrid_parallel(2).parallelism().unwrap();
        assert_eq!((h.tp, h.pp), (4, 2));
    }

    #[test]
    fn bad_group_division_rejected() {
        let cfg = SimConfig::new(ModelSpec::gpt3_7b()).npu_num(8).hybrid_parallel(3);
        assert!(cfg.parallelism().is_err());
    }

    #[test]
    fn too_many_stages_rejected() {
        // GPT-2 has 12 layers; 16 pipeline stages cannot work.
        let cfg = SimConfig::new(ModelSpec::gpt2()).npu_num(16).pipeline_parallel();
        assert!(cfg.parallelism().is_err());
    }

    #[test]
    fn oversized_model_rejected_by_memory_model() {
        let cfg = SimConfig::new(ModelSpec::gpt3_175b()).npu_num(2).tensor_parallel();
        assert!(cfg.memory_model().is_err());
    }

    #[test]
    fn kv_cache_gets_leftover_capacity() {
        let cfg = SimConfig::new(ModelSpec::gpt3_7b()).npu_num(4).tensor_parallel();
        let kv = cfg.kv_cache().unwrap();
        // 4 * 24 GiB minus ~13.4 GB weights minus 4 GiB reserve: tens of GiB
        // of KV space -> hundreds of thousands of 16-token pages at 512 KiB.
        assert!(kv.free_pages() > 10_000);
    }

    #[test]
    fn pool_mode_topology_has_pim_nodes() {
        let cfg = SimConfig::new(ModelSpec::gpt3_7b()).npu_num(4).tensor_parallel().pim_pool(2);
        let topo = cfg.topology().unwrap();
        assert_eq!(topo.n_nodes(), 6);
        assert_eq!(topo.nodes_of_class(llmss_net::NodeClass::Pim).len(), 2);
    }

    #[test]
    fn kv_bucket_policies_validate() {
        assert!(KvBucket::exact().validate().is_ok());
        assert!(KvBucket::adaptive().validate().is_ok());
        assert_eq!(KvBucket::from(64).initial_tokens(), 64);
        assert_eq!(KvBucket::adaptive().initial_tokens(), 1);
        assert!(KvBucket::Fixed { tokens: 0 }.validate().is_err());
        let inverted = KvBucket::Adaptive {
            min_tokens: 64,
            max_tokens: 8,
            target_hit_rate: 0.5,
            window: 16,
        };
        assert!(inverted.validate().is_err());
        let bad_target = KvBucket::Adaptive {
            min_tokens: 1,
            max_tokens: 64,
            target_hit_rate: 1.5,
            window: 16,
        };
        assert!(bad_target.validate().is_err());
        let empty_window = KvBucket::Adaptive {
            min_tokens: 1,
            max_tokens: 64,
            target_hit_rate: 0.5,
            window: 0,
        };
        assert!(empty_window.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "at least 1 token")]
    fn zero_fixed_bucket_panics_in_builder() {
        let _ = SimConfig::new(ModelSpec::gpt2()).kv_bucket(0);
    }

    #[test]
    fn pool_mode_without_size_rejected() {
        let mut cfg = SimConfig::new(ModelSpec::gpt3_7b()).npu_num(4).tensor_parallel();
        cfg.pim_mode = PimMode::Pool;
        assert!(cfg.topology().is_err());
    }
}
