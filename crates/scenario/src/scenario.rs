//! The [`Scenario`] builder: one typed, declarative description of a
//! serving experiment, validated at build time.

use llmss_core::{
    AutoscaleConfig, AutoscaleControl, ControlPlane, FleetEngine, FlexPools, FlexPoolsConfig,
    KvBucket, KvManage, ParallelismKind, PimMode, ReplicaRole, RoutingPolicyKind, SimConfig,
    StaticControl,
};
use llmss_model::ModelSpec;
use llmss_net::LinkSpec;
use llmss_sched::{Request, SchedulingPolicy, Workload, WorkloadSpec, EVENT_HORIZON_PS};
use serde::{Deserialize, Error, Serialize, Value};

use crate::codec::{parse, parse_opt, read_table, Table};
use crate::{
    check_link_gbps, ms_to_ps, toml, AnyReport, AnySimulator, ChaosSpec, FabricSpec,
    FleetControlKind, FleetSpec, ReplicaOverride, ScenarioError, TelemetrySpec,
    MAX_FLEET_REPLICAS,
};

/// The fleet-scaling keys, which a `[fleet]` table or a `fleet.*`
/// override may still spell. Those spellings set the top-level fields:
/// they never create a `[fleet]` table (so they cannot switch a cluster
/// to the fleet shape) and never serialize.
const FLEET_SCALING_ALIASES: [&str; 2] = ["shards", "shared_cache"];

/// The serving shape a scenario describes, derived from its
/// `replicas`/`disagg` fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServingShape {
    /// One unified replica.
    Single,
    /// `replicas` unified replicas behind a router.
    Cluster {
        /// Fleet size (>= 2 in this shape).
        replicas: usize,
    },
    /// A disaggregated prefill/decode deployment.
    Disagg {
        /// Prefill-pool size.
        prefill: usize,
        /// Decode-pool size.
        decode: usize,
    },
    /// A `[fleet]` scenario: the fleet engine with an explicit control
    /// plane (static, flexing, or autoscaling) and optionally a
    /// heterogeneous per-replica config list.
    Fleet {
        /// Initial fleet size.
        replicas: usize,
        /// The control plane driving the fleet.
        control: FleetControlKind,
    },
}

impl std::fmt::Display for ServingShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServingShape::Single => write!(f, "single"),
            ServingShape::Cluster { replicas } => write!(f, "cluster x{replicas}"),
            ServingShape::Disagg { prefill, decode } => {
                write!(f, "disagg {prefill}P x {decode}D")
            }
            ServingShape::Fleet { replicas, control } => {
                write!(f, "fleet x{replicas} ({control})")
            }
        }
    }
}

/// One serving experiment, declaratively: model, hardware shape, serving
/// technique knobs, and workload — the whole surface the CLI flags,
/// scenario files, and sweep grids share.
///
/// `Scenario` is a plain value with a chainable builder; nothing is
/// checked until [`build`](Self::build), which validates every
/// cross-field constraint and returns a typed [`ScenarioError`] instead
/// of panicking deep inside a simulator.
///
/// # Examples
///
/// ```no_run
/// use llmss_scenario::Scenario;
/// use llmss_core::RoutingPolicyKind;
/// use llmss_sched::{BurstyTraceSpec, WorkloadSpec};
///
/// let report = Scenario::model("gpt2")
///     .npus(1)
///     .tensor_parallel()
///     .replicas(4)
///     .routing(RoutingPolicyKind::PowerOfTwoChoices)
///     .workload(WorkloadSpec::from(BurstyTraceSpec::default()))
///     .run()?;
/// assert_eq!(report.total_completions(), 200);
/// # Ok::<(), llmss_scenario::ScenarioError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Model name (see [`ModelSpec::by_name`]).
    pub model: String,
    /// NPUs per replica.
    pub npus: usize,
    /// Maximum batch size (0 = unlimited).
    pub max_batch: usize,
    /// Batching delay in milliseconds.
    pub batch_delay_ms: f64,
    /// Scheduling policy (`orca` iteration-level or `request`-level).
    pub scheduling: SchedulingPolicy,
    /// Parallelism strategy.
    pub parallel: ParallelismKind,
    /// Pipeline-stage count for hybrid parallelism.
    pub npu_group: usize,
    /// Per-NPU memory override in GiB.
    pub npu_mem_gib: Option<f64>,
    /// KV-cache management scheme.
    pub kv_manage: KvManage,
    /// PIM participation.
    pub pim: PimMode,
    /// PIM-pool size when `pim` is `Pool` (default: `npus`).
    pub pim_pool_size: Option<usize>,
    /// NeuPIMs-style sub-batch interleaving.
    pub sub_batch: bool,
    /// Computation-reuse caches.
    pub reuse: bool,
    /// Whole-iteration outcome memoization.
    pub iteration_memo: bool,
    /// KV-bucket policy for iteration memoization (fixed or adaptive).
    pub kv_bucket: KvBucket,
    /// Skip the initiation phase (prompts modeled as pre-cached).
    pub gen_only: bool,
    /// Seed for routing/pairing policies (and, when set through the
    /// string-override surface, the workload generator).
    pub seed: u64,
    /// Path to an NPU hardware-config JSON (Table-I defaults when
    /// absent).
    pub network: Option<String>,
    /// Serving replicas (>= 2 selects the cluster shape).
    pub replicas: usize,
    /// Front-end routing policy.
    pub routing: RoutingPolicyKind,
    /// `(prefill, decode)` pool sizes; `Some` selects the disaggregated
    /// shape.
    pub disagg: Option<(usize, usize)>,
    /// Inter-pool KV-link bandwidth in GB/s (disaggregated shape).
    pub kv_link_gbps: f64,
    /// Decode-replica pairing policy (disaggregated shape), in the
    /// routing vocabulary and seeded with `seed`.
    pub pairing: RoutingPolicyKind,
    /// Worker threads a fleet step may run its window of replicas on (1
    /// = inline; a traced run uses one). Outcomes are byte-identical
    /// under any value, a single replica's included.
    pub shards: usize,
    /// Whether the replicas share one fleet-wide reuse cache (only
    /// identically configured replicas exchange entries). Timing is
    /// unchanged; the summary gains the shared-tier counters, even for
    /// a single replica, which has no peer to share with.
    pub shared_cache: bool,
    /// The `[fleet]` table: control plane and per-replica config list;
    /// `Some` selects the fleet shape.
    pub fleet: Option<FleetSpec>,
    /// The `[fabric]` table: KV-transfer topology and sharing
    /// discipline; `None` keeps the legacy dedicated FIFO wire.
    pub fabric: Option<FabricSpec>,
    /// The `[telemetry]` table: lifecycle tracing and windowed metrics;
    /// `None` records nothing (the zero-cost default path).
    pub telemetry: Option<TelemetrySpec>,
    /// The `[chaos]` table: deterministic fault injection (fleet shape
    /// only); `None` — or a table that injects nothing — keeps the run
    /// byte-identical to a chaos-free one.
    pub chaos: Option<ChaosSpec>,
    /// The traffic source.
    pub workload: WorkloadSpec,
}

impl Default for Scenario {
    /// Mirrors the artifact CLI's defaults exactly, so a flagless legacy
    /// invocation and an empty scenario file describe the same run.
    fn default() -> Self {
        Self {
            model: "gpt2".into(),
            npus: 16,
            max_batch: 0,
            batch_delay_ms: 0.0,
            scheduling: SchedulingPolicy::IterationLevel,
            parallel: ParallelismKind::Hybrid,
            npu_group: 1,
            npu_mem_gib: None,
            kv_manage: KvManage::Vllm,
            pim: PimMode::None,
            pim_pool_size: None,
            sub_batch: false,
            reuse: true,
            iteration_memo: true,
            kv_bucket: KvBucket::exact(),
            gen_only: false,
            seed: 42,
            network: None,
            replicas: 1,
            routing: RoutingPolicyKind::RoundRobin,
            disagg: None,
            kv_link_gbps: 128.0,
            pairing: RoutingPolicyKind::LeastKvLoad,
            shards: 1,
            shared_cache: false,
            fleet: None,
            fabric: None,
            telemetry: None,
            chaos: None,
            workload: WorkloadSpec::default(),
        }
    }
}

impl Scenario {
    /// Every top-level scenario key, in canonical file order. `set`,
    /// the file codecs, and sweep axes all speak exactly this schema
    /// (plus the tables' sub-keys, such as `workload.*`).
    pub const KEYS: [&'static str; 30] = [
        "model",
        "npus",
        "max_batch",
        "batch_delay_ms",
        "scheduling",
        "parallel",
        "npu_group",
        "npu_mem_gib",
        "kv_manage",
        "pim",
        "pim_pool_size",
        "sub_batch",
        "reuse",
        "iteration_memo",
        "gen_only",
        "seed",
        "network",
        "replicas",
        "routing",
        "disagg",
        "kv_link_gbps",
        "pairing",
        "kv_bucket",
        "shards",
        "shared_cache",
        "fleet",
        "fabric",
        "telemetry",
        "chaos",
        "workload",
    ];

    /// Starts a scenario for `model` with the artifact defaults.
    pub fn model(name: impl Into<String>) -> Self {
        Self { model: name.into(), ..Self::default() }
    }

    /// Sets the number of NPUs per replica.
    pub fn npus(mut self, n: usize) -> Self {
        self.npus = n;
        self
    }

    /// Caps the batch size (0 = unlimited).
    pub fn max_batch(mut self, n: usize) -> Self {
        self.max_batch = n;
        self
    }

    /// Sets the batching delay in milliseconds.
    pub fn batch_delay_ms(mut self, ms: f64) -> Self {
        self.batch_delay_ms = ms;
        self
    }

    /// Sets the scheduling policy.
    pub fn scheduling(mut self, policy: SchedulingPolicy) -> Self {
        self.scheduling = policy;
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

    /// Overrides per-NPU memory in GiB.
    pub fn npu_mem_gib(mut self, gib: f64) -> Self {
        self.npu_mem_gib = Some(gib);
        self
    }

    /// Uses max-length KV preallocation instead of paging.
    pub fn kv_max_len(mut self) -> Self {
        self.kv_manage = KvManage::MaxLen;
        self
    }

    /// Attaches a local PIM to every NPU.
    pub fn pim_local(mut self) -> Self {
        self.pim = PimMode::Local;
        self
    }

    /// Adds a PIM pool of `n` devices.
    pub fn pim_pool(mut self, n: usize) -> Self {
        self.pim = PimMode::Pool;
        self.pim_pool_size = Some(n);
        self
    }

    /// Enables NeuPIMs-style sub-batch interleaving.
    pub fn sub_batch(mut self, enabled: bool) -> Self {
        self.sub_batch = enabled;
        self
    }

    /// Enables or disables the computation-reuse caches.
    pub fn reuse(mut self, enabled: bool) -> Self {
        self.reuse = enabled;
        self
    }

    /// Enables or disables whole-iteration memoization.
    pub fn iteration_memo(mut self, enabled: bool) -> Self {
        self.iteration_memo = enabled;
        self
    }

    /// Sets the KV-bucket policy: a token count for a fixed bucket, or a
    /// full [`KvBucket`] (e.g. `KvBucket::Adaptive { .. }`).
    pub fn kv_bucket(mut self, bucket: impl Into<KvBucket>) -> Self {
        self.kv_bucket = bucket.into();
        self
    }

    /// Skips the initiation phase (prompts modeled as pre-cached).
    pub fn gen_only(mut self, enabled: bool) -> Self {
        self.gen_only = enabled;
        self
    }

    /// Seeds the routing/pairing policies *and* the workload generator
    /// (matching the legacy `--seed` flag's reach).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.workload.reseed(seed);
        self
    }

    /// Points at an NPU hardware-config JSON file.
    pub fn network(mut self, path: impl Into<String>) -> Self {
        self.network = Some(path.into());
        self
    }

    /// Sets the fleet size (>= 2 selects the cluster shape).
    pub fn replicas(mut self, n: usize) -> Self {
        self.replicas = n;
        self
    }

    /// Sets the front-end routing policy.
    pub fn routing(mut self, routing: RoutingPolicyKind) -> Self {
        self.routing = routing;
        self
    }

    /// Selects the disaggregated shape with the given pool sizes.
    pub fn disagg(mut self, prefill: usize, decode: usize) -> Self {
        self.disagg = Some((prefill, decode));
        self
    }

    /// Sets the inter-pool KV-link bandwidth in GB/s.
    pub fn kv_link_gbps(mut self, gbps: f64) -> Self {
        self.kv_link_gbps = gbps;
        self
    }

    /// Sets the decode-pairing policy.
    pub fn pairing(mut self, pairing: RoutingPolicyKind) -> Self {
        self.pairing = pairing;
        self
    }

    /// Selects the fleet shape: an explicit control plane (static /
    /// flex / autoscale) over an optionally heterogeneous replica list.
    pub fn fleet(mut self, spec: FleetSpec) -> Self {
        self.fleet = Some(spec);
        self
    }

    /// Ships KV handoffs over a `[fabric]` topology instead of the
    /// legacy dedicated FIFO wire.
    pub fn fabric(mut self, spec: FabricSpec) -> Self {
        self.fabric = Some(spec);
        self
    }

    /// Records lifecycle events during the run and exports them per the
    /// `[telemetry]` table.
    pub fn telemetry(mut self, spec: TelemetrySpec) -> Self {
        self.telemetry = Some(spec);
        self
    }

    /// Injects faults during the run per the `[chaos]` table (fleet
    /// shape only).
    pub fn chaos(mut self, spec: ChaosSpec) -> Self {
        self.chaos = Some(spec);
        self
    }

    /// Sets the traffic source.
    pub fn workload(mut self, workload: impl Into<WorkloadSpec>) -> Self {
        self.workload = workload.into();
        self
    }

    /// The serving shape the `replicas`/`disagg`/`fleet` fields select.
    pub fn shape(&self) -> ServingShape {
        match (&self.fleet, self.disagg, self.replicas) {
            (Some(spec), _, r) => {
                ServingShape::Fleet { replicas: spec.size(r), control: spec.control }
            }
            (None, Some((prefill, decode)), _) => ServingShape::Disagg { prefill, decode },
            (None, None, r) if r > 1 => ServingShape::Cluster { replicas: r },
            _ => ServingShape::Single,
        }
    }

    /// A one-line banner for run output.
    pub fn describe(&self) -> String {
        format!(
            "model={} npus={} parallel={:?} pim={:?} shape={} workload={}",
            self.model,
            self.npus,
            self.parallel,
            self.pim,
            self.shape(),
            self.workload.describe(),
        )
    }

    /// Checks every cross-field constraint without building simulators.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint as a typed
    /// [`ScenarioError`].
    pub fn validate(&self) -> Result<(), ScenarioError> {
        self.replica_config().map(|_| ())
    }

    /// The pure cross-field checks (no filesystem, no simulators).
    fn field_checks(&self) -> Result<(), ScenarioError> {
        let invalid = |field: &str, message: String| {
            Err(ScenarioError::InvalidValue { field: field.into(), message })
        };
        if ModelSpec::by_name(&self.model).is_none() {
            return Err(ScenarioError::UnknownModel { name: self.model.clone() });
        }
        // Before any size is summed or allocated.
        let pools = self.disagg.iter().flat_map(|&(p, d)| [("disagg", p), ("disagg", d)]);
        let fleet = self.fleet.iter().flat_map(|f| {
            [("fleet.replica", f.replicas.len()), ("fleet.max_replicas", f.max_replicas)]
        });
        let mut sizes = [("replicas", self.replicas)].into_iter().chain(pools).chain(fleet);
        if let Some((field, size)) = sizes.find(|&(_, size)| size > MAX_FLEET_REPLICAS) {
            return invalid(
                field,
                format!("must be at most {MAX_FLEET_REPLICAS} replicas, got {size}"),
            );
        }
        if self.replicas == 0 {
            return invalid("replicas", "the fleet needs at least one replica".into());
        }
        if let Some((p, d)) = self.disagg {
            if p == 0 || d == 0 {
                return invalid("disagg", "both pools need at least one replica".into());
            }
            if self.replicas > 1 {
                return Err(ScenarioError::Conflict {
                    message: format!(
                        "disagg {p}x{d} and replicas={} are mutually exclusive: the \
                         disaggregated shape already defines its fleet as the two pools",
                        self.replicas
                    ),
                });
            }
        }
        check_link_gbps("kv_link_gbps", self.kv_link_gbps)?;
        if let Some(fleet) = &self.fleet {
            self.fleet_checks(fleet)?;
        }
        if let Some(fabric) = &self.fabric {
            self.fabric_checks(fabric)?;
        }
        if let Some(telemetry) = &self.telemetry {
            telemetry.validate()?;
        }
        if self.shards == 0 {
            return invalid(
                "shards",
                "the shard count must be at least 1 (1 = no worker threads)".into(),
            );
        }
        if let Some(chaos) = &self.chaos {
            chaos.validate()?;
            if chaos.enabled() && self.fleet.is_none() {
                return Err(ScenarioError::Conflict {
                    message: "[chaos] injects faults through the fleet engine, which \
                              requires a [fleet] table"
                        .into(),
                });
            }
        }
        self.kv_bucket.validate()?;
        if matches!(self.kv_bucket, KvBucket::Adaptive { .. })
            && !(self.reuse && self.iteration_memo)
        {
            return Err(ScenarioError::Conflict {
                message: "adaptive kv_bucket anneals the iteration cache, which requires \
                          reuse and iteration_memo to be enabled"
                    .into(),
            });
        }
        match (self.pim, self.pim_pool_size) {
            (PimMode::Pool, Some(0)) => {
                return invalid("pim_pool_size", "a PIM pool needs at least one device".into())
            }
            (PimMode::None | PimMode::Local, Some(_)) => {
                return Err(ScenarioError::Conflict {
                    message: "pim_pool_size is set but pim is not \"pool\"".into(),
                })
            }
            _ => {}
        }
        Ok(())
    }

    /// The `[fleet]` cross-field constraints.
    fn fleet_checks(&self, fleet: &FleetSpec) -> Result<(), ScenarioError> {
        let invalid = |field: &str, message: String| {
            Err(ScenarioError::InvalidValue { field: field.into(), message })
        };
        let conflict = |message: String| Err(ScenarioError::Conflict { message });
        if self.disagg.is_some() {
            return conflict(
                "disagg and [fleet] are mutually exclusive: express the pools as \
                 prefill/decode roles in [[fleet.replica]] entries"
                    .into(),
            );
        }
        if !fleet.replicas.is_empty() && self.replicas > 1 {
            return conflict(format!(
                "replicas={} conflicts with the {}-entry [[fleet.replica]] list: \
                 the list alone defines the fleet size",
                self.replicas,
                fleet.replicas.len()
            ));
        }
        let size = fleet.size(self.replicas);
        if size == 0 {
            return invalid("fleet", "the fleet needs at least one replica".into());
        }
        if !fleet.tick_ms.is_finite() || ms_to_ps(fleet.tick_ms) == 0 {
            return invalid(
                "fleet.tick_ms",
                format!("the control tick must be at least 1 ps, got {} ms", fleet.tick_ms),
            );
        }
        let prefill = fleet.replicas.iter().filter(|r| r.role == ReplicaRole::Prefill).count();
        let decode = fleet.replicas.iter().filter(|r| r.role == ReplicaRole::Decode).count();
        if prefill > 0 && decode == 0 {
            return invalid(
                "fleet",
                "prefill-role replicas need at least one decode-role replica to \
                 receive their KV handoffs"
                    .into(),
            );
        }
        if (0..size).all(|i| !fleet.role_of(i).accepts_arrivals()) {
            return invalid(
                "fleet",
                "no replica accepts arrivals: an all-decode fleet cannot serve".into(),
            );
        }
        match fleet.control {
            FleetControlKind::Static => {}
            FleetControlKind::Flex => {
                if prefill == 0 || decode == 0 {
                    return conflict(
                        "control = \"flex\" reassigns replicas between the prefill and \
                         decode pools: declare both roles in [[fleet.replica]]"
                            .into(),
                    );
                }
                if fleet.min_prefill == 0 {
                    return invalid(
                        "fleet.min_prefill",
                        "flexing must keep at least one prefill replica".into(),
                    );
                }
                if prefill < fleet.min_prefill {
                    return invalid(
                        "fleet.min_prefill",
                        format!(
                            "the fleet declares {prefill} prefill replicas but \
                             min_prefill is {}",
                            fleet.min_prefill
                        ),
                    );
                }
            }
            FleetControlKind::Autoscale => {
                if prefill > 0 || decode > 0 {
                    return conflict(
                        "control = \"autoscale\" scales a unified fleet; prefill/decode \
                         roles are not autoscalable (use control = \"flex\")"
                            .into(),
                    );
                }
                if fleet.min_replicas == 0 {
                    return invalid(
                        "fleet.min_replicas",
                        "the fleet floor must be at least one replica".into(),
                    );
                }
                if fleet.min_replicas > fleet.max_replicas {
                    return invalid(
                        "fleet.max_replicas",
                        format!(
                            "bounds are inverted: min {} > max {}",
                            fleet.min_replicas, fleet.max_replicas
                        ),
                    );
                }
                if size < fleet.min_replicas || size > fleet.max_replicas {
                    return invalid(
                        "fleet",
                        format!(
                            "the initial fleet size {size} is outside the autoscale \
                             bounds {}..={}",
                            fleet.min_replicas, fleet.max_replicas
                        ),
                    );
                }
                if !fleet.queue_high.is_finite()
                    || !fleet.queue_low.is_finite()
                    || fleet.queue_low >= fleet.queue_high
                {
                    return invalid(
                        "fleet.queue_low",
                        format!(
                            "queue_low ({}) must be below queue_high ({}) for \
                             hysteresis",
                            fleet.queue_low, fleet.queue_high
                        ),
                    );
                }
                if !fleet.warmup_ms.is_finite() || fleet.warmup_ms < 0.0 {
                    return invalid(
                        "fleet.warmup_ms",
                        format!(
                            "the warm-up delay cannot be negative, got {}",
                            fleet.warmup_ms
                        ),
                    );
                }
            }
        }
        Ok(())
    }

    /// The `[fabric]` cross-field constraints — and a dry build of the
    /// graph, so topology/fleet size mismatches surface at validation
    /// time with a typed error.
    fn fabric_checks(&self, fabric: &FabricSpec) -> Result<(), ScenarioError> {
        fabric.validate()?;
        let conflict = |message: String| Err(ScenarioError::Conflict { message });
        let endpoints = match (self.shape(), &self.fleet) {
            (ServingShape::Disagg { prefill, decode }, _) => prefill + decode,
            (ServingShape::Fleet { replicas, control }, Some(fleet)) => {
                if !fleet.has_prefill() {
                    return conflict(
                        "a [fabric] table needs KV transfers to carry: declare \
                         prefill/decode roles in [[fleet.replica]] entries"
                            .into(),
                    );
                }
                if control != FleetControlKind::Static {
                    return conflict(format!(
                        "control = \"{control}\" resizes or re-roles the fleet; the \
                         fabric's endpoint graph is fixed (use control = \"static\")"
                    ));
                }
                replicas
            }
            (shape, _) => {
                return conflict(format!(
                    "a [fabric] table needs KV transfers to carry, but the {shape} \
                     shape has none: use disagg = \"PxD\" or prefill/decode roles \
                     in [fleet]"
                ));
            }
        };
        fabric.build(endpoints, self.kv_link_gbps).map(|_| ())
    }

    /// The per-replica [`SimConfig`] this scenario describes.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] when validation fails or the hardware
    /// config file cannot be read.
    pub fn replica_config(&self) -> Result<SimConfig, ScenarioError> {
        self.field_checks()?;
        self.validated_config(&ReplicaOverride::default())
    }

    /// Builds the `SimConfig` — with one `[[fleet.replica]]` slot's
    /// overrides applied — and runs the layout checks on it: the one
    /// construction path shared by `validate`, `replica_config`, and
    /// `build`, so the hardware-config file is read once per entry point
    /// plus once per overriding slot.
    fn validated_config(&self, over: &ReplicaOverride) -> Result<SimConfig, ScenarioError> {
        let model = ModelSpec::by_name(&self.model)
            .ok_or_else(|| ScenarioError::UnknownModel { name: self.model.clone() })?;
        let npus = over.npus.unwrap_or(self.npus);
        if npus == 0 {
            return Err(ScenarioError::InvalidValue {
                field: "npus".into(),
                message: "a replica needs at least one NPU".into(),
            });
        }
        let mut cfg = SimConfig::new(model);
        cfg.npu_num = npus;
        cfg.max_batch = over.max_batch.unwrap_or(self.max_batch);
        cfg.batch_delay_ms = over.batch_delay_ms.unwrap_or(self.batch_delay_ms);
        cfg.scheduling = self.scheduling;
        cfg.parallel = self.parallel;
        cfg.npu_group = self.npu_group;
        cfg.npu_mem_gib = over.npu_mem_gib.or(self.npu_mem_gib);
        cfg.kv_manage = self.kv_manage;
        cfg.sub_batch = self.sub_batch;
        cfg.reuse = self.reuse;
        cfg.iteration_memo = self.iteration_memo;
        cfg.kv_bucket = self.kv_bucket;
        match self.pim {
            PimMode::None => {}
            PimMode::Local => cfg = cfg.pim_local(),
            PimMode::Pool => cfg = cfg.pim_pool(self.pim_pool_size.unwrap_or(npus)),
        }
        if let Some(path) = &self.network {
            let json = std::fs::read_to_string(path).map_err(|e| ScenarioError::Io {
                path: path.clone(),
                message: e.to_string(),
            })?;
            cfg.npu_config = llmss_npu::NpuConfig::from_json(&json).map_err(|message| {
                ScenarioError::InvalidValue { field: "network".into(), message }
            })?;
        }
        // Value ranges and parallelism layout constraints (group
        // divisibility, stages vs model depth) are pure functions of the
        // config — fail here, not inside a half-built fleet.
        cfg.check_values()?;
        cfg.parallelism()?;
        Ok(cfg)
    }

    /// Materializes the workload, applying `gen_only` (prompts shrink to
    /// one token, modeling a pre-cached initiation phase).
    ///
    /// # Errors
    ///
    /// Propagates workload errors (unreadable trace, bad parameters).
    pub fn trace(&self) -> Result<Vec<Request>, ScenarioError> {
        let mut trace = self.workload.materialize()?;
        if self.gen_only {
            for r in &mut trace {
                *r = Request::new(r.id, 1, r.output_len, r.arrival_ps);
            }
        }
        Ok(trace)
    }

    /// Validates the scenario and builds the fleet engine for its shape.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ScenarioError`] on any invalid field, conflict,
    /// unrealizable hardware configuration, or workload failure, and on
    /// a trace the fleet cannot carry: a prompt larger than the smallest
    /// replica's KV cache, or KV handoffs that could run past the event
    /// horizon.
    pub fn build(&self) -> Result<AnySimulator, ScenarioError> {
        self.field_checks()?;
        let base = self.validated_config(&ReplicaOverride::default())?;
        let trace = self.trace()?;
        let shape = self.shape();
        let engine = self.build_fleet(shape, base, trace)?;
        Ok(AnySimulator { engine, shape, pairing: self.pairing })
    }

    /// Builds the fleet engine behind every shape. A single replica is a
    /// one-replica static fleet, a cluster a static fleet of unified
    /// replicas and a disaggregated deployment a static fleet of `P`
    /// prefill then `D` decode replicas; a `[fleet]` table spells out its
    /// own roles, overrides, and control plane. Every replica gets the
    /// validated `base` config in its role (re-validated only for slots
    /// that override it), the KV link or `[fabric]` carries handoffs when
    /// prefill roles exist, and chaos, shards and the shared cache arm
    /// last.
    ///
    /// The trace must fit the fleet: every prompt has to fit the smallest
    /// replica's KV cache (the scheduler could never admit it otherwise),
    /// and KV handoffs must not be able to run past the event horizon
    /// ([`check_transfer_time`](Self::check_transfer_time)).
    fn build_fleet(
        &self,
        shape: ServingShape,
        base: SimConfig,
        trace: Vec<Request>,
    ) -> Result<FleetEngine, ScenarioError> {
        let implied;
        let fleet = match (&self.fleet, shape) {
            (Some(fleet), _) => fleet,
            (None, ServingShape::Disagg { prefill, decode }) => {
                let mut roles = vec![ReplicaRole::Prefill; prefill];
                roles.resize(prefill + decode, ReplicaRole::Decode);
                implied = FleetSpec::with_roles(&roles);
                &implied
            }
            (None, _) => {
                implied = FleetSpec::default();
                &implied
            }
        };
        let replicas = fleet.size(self.replicas);
        let kv_bytes_per_token = base.model.kv_bytes_per_token();
        let mut configs = vec![base; replicas];
        for (i, cfg) in configs.iter_mut().enumerate() {
            if let Some(over) = fleet.replicas.get(i).filter(|over| over.overrides_config()) {
                *cfg = self.validated_config(over)?;
            }
            cfg.mode = fleet.role_of(i).scheduler_mode();
        }
        let fabric = match &self.fabric {
            Some(spec) => Some(spec.build(replicas, self.kv_link_gbps)?),
            None => None,
        };
        let links = if fleet.has_prefill() {
            vec![LinkSpec::new(self.kv_link_gbps, LinkSpec::cxl().latency_ns)]
        } else {
            Vec::new()
        };
        let control: Box<dyn ControlPlane> = match fleet.control {
            FleetControlKind::Static => Box::new(StaticControl::new(
                self.routing.build(self.seed),
                self.pairing.build(self.seed),
            )),
            FleetControlKind::Flex => Box::new(FlexPools::new(
                self.routing.build(self.seed),
                self.pairing.build(self.seed),
                FlexPoolsConfig {
                    tick_ps: ms_to_ps(fleet.tick_ms),
                    idle_ticks: fleet.flex_idle_ticks,
                    min_prefill: fleet.min_prefill,
                },
            )),
            FleetControlKind::Autoscale => Box::new(AutoscaleControl::new(
                self.routing.build(self.seed),
                AutoscaleConfig {
                    tick_ps: ms_to_ps(fleet.tick_ms),
                    min_replicas: fleet.min_replicas,
                    max_replicas: fleet.max_replicas,
                    queue_high: fleet.queue_high,
                    queue_low: fleet.queue_low,
                    warmup_ps: ms_to_ps(fleet.warmup_ms),
                },
            )),
        };
        let link_count = match &fabric {
            Some(fabric) => fabric.link_count(),
            None => links.len(),
        };
        if fleet.has_prefill() {
            self.check_transfer_time(&trace, link_count, kv_bytes_per_token)?;
        }
        let largest_prompt = trace.iter().max_by_key(|r| r.input_len).copied();
        let mut engine = match fabric {
            Some(fabric) => FleetEngine::with_fabric(configs, fabric, control, trace)?,
            None => FleetEngine::new(configs, links, control, trace)?,
        };
        if let Some(request) = largest_prompt {
            check_prompt_fits(&engine, request)?;
        }
        if let Some(chaos) = self.chaos.as_ref().filter(|c| c.enabled()) {
            // Bounds-check fault targets against the largest fleet this
            // deployment can reach, not just its starting size: an
            // autoscale scenario may legitimately fault a replica that
            // only exists after a scale-up.
            let ceiling = if matches!(fleet.control, FleetControlKind::Autoscale) {
                replicas.max(fleet.max_replicas)
            } else {
                replicas
            };
            engine.set_chaos(chaos.build(ceiling, link_count)?);
        }
        engine.set_shards(self.shards);
        if self.shared_cache {
            engine.enable_shared_cache();
        }
        Ok(engine)
    }

    /// Bounds the total time the trace's KV handoffs can spend on the
    /// wire by the event horizon. One transfer takes at most the latency
    /// of every configured link (a route crosses each at most once) plus
    /// its prompt's KV bytes at the slowest configured or chaos-degraded
    /// bandwidth; FIFO sharing can serialize every transfer, and an armed
    /// chaos table may repeat each one `max_retries` times. A scenario
    /// past the bound names the latency or bandwidth key that dominates.
    fn check_transfer_time(
        &self,
        trace: &[Request],
        link_count: usize,
        kv_bytes_per_token: u64,
    ) -> Result<(), ScenarioError> {
        // Without a [fabric] table handoffs cross the one FIFO wire.
        let fabric = self.fabric.clone().unwrap_or_default();
        let (latency_key, latency_ns, mut bandwidths) =
            fabric.transfer_bounds(link_count, self.kv_link_gbps);
        let chaos = self.chaos.as_ref().filter(|c| c.enabled());
        for (i, fault) in chaos.iter().flat_map(|c| c.link_faults.iter().enumerate()) {
            if fault.degrade_to_gbps > 0.0 {
                let key = format!("chaos.link_fault[{i}].degrade_to_gbps");
                bandwidths.push((key, fault.degrade_to_gbps));
            }
        }
        let slowest = bandwidths.into_iter().min_by(|a, b| a.1.total_cmp(&b.1));
        let Some((bandwidth_key, slowest_gbps)) = slowest else { return Ok(()) };
        let attempts = chaos.map_or(1.0, |c| f64::from(c.max_retries) + 1.0);
        let prompt_bytes: f64 =
            trace.iter().map(|r| r.input_len as f64).sum::<f64>() * kv_bytes_per_token as f64;
        let latency_ps = trace.len() as f64 * latency_ns * 1e3 * attempts;
        let serialize_ps = prompt_bytes / slowest_gbps * 1e3 * attempts;
        let total_s = (latency_ps + serialize_ps) / 1e12;
        if latency_ps + serialize_ps <= EVENT_HORIZON_PS as f64 {
            return Ok(());
        }
        Err(ScenarioError::InvalidValue {
            field: if latency_ps >= serialize_ps { latency_key.into() } else { bandwidth_key },
            message: format!(
                "{} KV handoffs could spend {total_s:.3e} s on the wire in total, past the \
                 event horizon of {} s",
                trace.len(),
                EVENT_HORIZON_PS / 1_000_000_000_000
            ),
        })
    }

    /// Builds and runs to completion (the one-shot convenience).
    ///
    /// # Errors
    ///
    /// Propagates [`build`](Self::build) errors.
    pub fn run(&self) -> Result<AnyReport, ScenarioError> {
        Ok(self.build()?.run())
    }

    /// Sets one field by its serialized key — the string-override
    /// surface shared by CLI flags, `--set key=value`, and sweep grids.
    /// `workload.*` keys route into the workload spec; `seed` reaches
    /// both the policies and the workload generator (matching the legacy
    /// `--seed`).
    ///
    /// # Errors
    ///
    /// [`ScenarioError::UnknownKey`] for keys outside the schema,
    /// [`ScenarioError::UnknownValue`] when the value does not parse.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), ScenarioError> {
        fn parse_bool(field: &str, value: &str) -> Result<bool, ScenarioError> {
            match value {
                "true" | "1" | "on" => Ok(true),
                "false" | "0" | "off" => Ok(false),
                _ => Err(ScenarioError::UnknownValue {
                    field: field.into(),
                    value: value.into(),
                    expected: "true | false".into(),
                }),
            }
        }
        if let Some(subkey) = key.strip_prefix("fleet.") {
            if FLEET_SCALING_ALIASES.contains(&subkey) {
                return self.set(subkey, value);
            }
            return self.fleet.get_or_insert_with(FleetSpec::default).set(subkey, value);
        }
        if let Some(subkey) = key.strip_prefix("fabric.") {
            return self.fabric.get_or_insert_with(FabricSpec::default).set(subkey, value);
        }
        if let Some(subkey) = key.strip_prefix("telemetry.") {
            return self
                .telemetry
                .get_or_insert_with(TelemetrySpec::default)
                .set(subkey, value);
        }
        if let Some(subkey) = key.strip_prefix("chaos.") {
            return self.chaos.get_or_insert_with(ChaosSpec::default).set(subkey, value);
        }
        if let Some(subkey) = key.strip_prefix("workload.") {
            return self.workload.set(subkey, value).map_err(|message| {
                ScenarioError::UnknownValue {
                    field: key.into(),
                    value: value.into(),
                    expected: message,
                }
            });
        }
        match key {
            "model" => self.model = value.to_owned(),
            "npus" | "npu_num" => self.npus = parse("", key, value)?,
            "max_batch" => self.max_batch = parse("", key, value)?,
            "batch_delay_ms" => self.batch_delay_ms = parse("", key, value)?,
            "scheduling" => self.scheduling = parse("", key, value)?,
            "parallel" => self.parallel = parse("", key, value)?,
            "npu_group" => self.npu_group = parse("", key, value)?,
            "npu_mem_gib" => self.npu_mem_gib = parse_opt("", key, value)?,
            "kv_manage" => self.kv_manage = parse("", key, value)?,
            "pim" | "pim_type" => self.pim = parse("", key, value)?,
            "pim_pool_size" => self.pim_pool_size = parse_opt("", key, value)?,
            "sub_batch" => self.sub_batch = parse_bool(key, value)?,
            "reuse" => self.reuse = parse_bool(key, value)?,
            "iteration_memo" => self.iteration_memo = parse_bool(key, value)?,
            "kv_bucket" => {
                self.kv_bucket = if value == "adaptive" {
                    KvBucket::adaptive()
                } else {
                    KvBucket::Fixed { tokens: parse("", key, value)? }
                }
            }
            "gen_only" => self.gen_only = parse_bool(key, value)?,
            "seed" => {
                let seed = parse("", key, value)?;
                self.seed = seed;
                self.workload.reseed(seed);
            }
            "network" => self.network = parse_opt("", key, value)?,
            "replicas" => self.replicas = parse("", key, value)?,
            "routing" => self.routing = parse("", key, value)?,
            "disagg" => {
                self.disagg = if value == "none" { None } else { Some(parse_pools(value)?) }
            }
            "kv_link_gbps" => self.kv_link_gbps = parse("", key, value)?,
            "pairing" => self.pairing = parse("", key, value)?,
            "shards" => self.shards = parse("", key, value)?,
            "shared_cache" => self.shared_cache = parse_bool(key, value)?,
            "fleet" => {
                // `none` clears the table; a control kind is shorthand
                // for a default-knobbed fleet of that control plane.
                self.fleet = match parse_opt("", key, value)? {
                    None => None,
                    Some(control) => {
                        let mut spec = self.fleet.take().unwrap_or_default();
                        spec.control = control;
                        Some(spec)
                    }
                }
            }
            "fabric" => {
                // `none` clears the table; a topology name is shorthand
                // for a fair-sharing fabric of that topology.
                self.fabric = if value == "none" {
                    None
                } else {
                    let mut spec = self.fabric.take().unwrap_or_default();
                    spec.topology = Some(value.to_owned());
                    Some(spec)
                }
            }
            "telemetry" => {
                // `none` clears the table; `auto` is shorthand for both
                // exports at their derived paths.
                self.telemetry = match value {
                    "none" => None,
                    "auto" => Some(TelemetrySpec::auto()),
                    _ => {
                        return Err(ScenarioError::UnknownValue {
                            field: key.into(),
                            value: value.into(),
                            expected: "none | auto | telemetry.* sub-keys".into(),
                        })
                    }
                }
            }
            "chaos" => {
                // `none` clears the table; fault windows are only
                // expressible as `[[chaos.*]]` entries in a file.
                self.chaos = match value {
                    "none" => None,
                    _ => {
                        return Err(ScenarioError::UnknownValue {
                            field: key.into(),
                            value: value.into(),
                            expected: "none | chaos.* sub-keys".into(),
                        })
                    }
                }
            }
            "workload" => {
                return Err(ScenarioError::UnknownValue {
                    field: key.into(),
                    value: value.into(),
                    expected: "workload sub-keys, e.g. workload.kind or workload.rate".into(),
                })
            }
            other => return Err(ScenarioError::UnknownKey { key: other.into() }),
        }
        Ok(())
    }

    /// Serializes as a TOML scenario file (the canonical on-disk form).
    pub fn to_toml(&self) -> String {
        // llmss-lint: allow(p001, reason = "to_value builds a table whose arrays hold no null, the only values emit rejects")
        toml::emit(&self.to_value()).expect("scenario values are TOML-expressible")
    }

    /// Serializes as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::value_to_string_pretty(&self.to_value())
    }

    /// Parses a TOML scenario document: defaults first, then every
    /// present key. Unknown keys are schema drift and fail loudly.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Parse`] for syntax errors and typed
    /// errors for schema violations.
    pub fn from_toml(text: &str) -> Result<Self, ScenarioError> {
        let value = toml::parse(text).map_err(|message| ScenarioError::Parse { message })?;
        <Self as Table>::from_value(&value)
    }

    /// Parses a JSON scenario document (same schema as the TOML form).
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Parse`] on malformed JSON or schema
    /// violations.
    pub fn from_json(text: &str) -> Result<Self, ScenarioError> {
        serde_json::from_str(text).map_err(|e| ScenarioError::Parse { message: e.to_string() })
    }

    /// Loads a scenario file, dispatching on extension (`.json` is JSON,
    /// anything else TOML).
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Io`] when the file cannot be read and
    /// parse/schema errors otherwise.
    pub fn from_path(path: &str) -> Result<Self, ScenarioError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ScenarioError::Io { path: path.into(), message: e.to_string() })?;
        if path.ends_with(".json") { Self::from_json(&text) } else { Self::from_toml(&text) }
            .map_err(|e| match e {
                ScenarioError::Parse { message } => {
                    ScenarioError::Parse { message: format!("{path}: {message}") }
                }
                other => other,
            })
    }

    /// Renders the scenario as a value tree in canonical key order.
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("model".into(), Value::Str(self.model.clone())),
            ("npus".into(), Value::Int(self.npus as i128)),
            ("max_batch".into(), Value::Int(self.max_batch as i128)),
            ("batch_delay_ms".into(), Value::Float(self.batch_delay_ms)),
            ("scheduling".into(), Value::Str(self.scheduling.as_str().into())),
            ("parallel".into(), Value::Str(self.parallel.as_str().into())),
            ("npu_group".into(), Value::Int(self.npu_group as i128)),
            ("npu_mem_gib".into(), self.npu_mem_gib.to_value()),
            ("kv_manage".into(), Value::Str(self.kv_manage.as_str().into())),
            ("pim".into(), Value::Str(self.pim.as_str().into())),
            ("pim_pool_size".into(), self.pim_pool_size.to_value()),
            ("sub_batch".into(), Value::Bool(self.sub_batch)),
            ("reuse".into(), Value::Bool(self.reuse)),
            ("iteration_memo".into(), Value::Bool(self.iteration_memo)),
            ("gen_only".into(), Value::Bool(self.gen_only)),
            ("seed".into(), Value::Int(self.seed as i128)),
            ("network".into(), self.network.to_value()),
            ("replicas".into(), Value::Int(self.replicas as i128)),
            ("routing".into(), Value::Str(self.routing.as_str().into())),
            ("disagg".into(), self.disagg.map(|(p, d)| format!("{p}x{d}")).to_value()),
            ("kv_link_gbps".into(), Value::Float(self.kv_link_gbps)),
            ("pairing".into(), Value::Str(self.pairing.as_str().into())),
            ("kv_bucket".into(), kv_bucket_to_value(self.kv_bucket)),
        ];
        // The fleet-scaling keys serialize only off their defaults, so
        // scenarios that never set them keep their bytes.
        if self.shards != 1 {
            fields.push(("shards".into(), Value::Int(self.shards as i128)));
        }
        if self.shared_cache {
            fields.push(("shared_cache".into(), Value::Bool(true)));
        }
        fields.extend([
            ("fleet".into(), self.fleet.as_ref().map_or(Value::Null, FleetSpec::to_value)),
            ("fabric".into(), self.fabric.as_ref().map_or(Value::Null, FabricSpec::to_value)),
            (
                "telemetry".into(),
                self.telemetry.as_ref().map_or(Value::Null, TelemetrySpec::to_value),
            ),
            ("chaos".into(), self.chaos.as_ref().map_or(Value::Null, ChaosSpec::to_value)),
            ("workload".into(), self.workload.to_value()),
        ]);
        Value::Object(fields)
    }
}

/// Rejects a trace whose largest prompt, `request`'s, needs more KV
/// pages than the smallest replica cache in the fleet holds: that
/// replica's scheduler could never admit it.
fn check_prompt_fits(engine: &FleetEngine, request: Request) -> Result<(), ScenarioError> {
    let caches = engine.sims().iter().map(|sim| sim.scheduler().kv());
    let Some(kv) = caches.min_by_key(|kv| kv.config().total_pages()) else { return Ok(()) };
    let (needed, held) = (kv.pages_for(request.input_len), kv.config().total_pages());
    if needed <= held {
        return Ok(());
    }
    Err(ScenarioError::InvalidValue {
        field: "workload".into(),
        message: format!(
            "request {} has a {}-token prompt, which needs {needed} KV pages, but the smallest \
             replica cache holds {held} pages",
            request.id, request.input_len
        ),
    })
}

fn parse_pools(value: &str) -> Result<(usize, usize), ScenarioError> {
    let err = || ScenarioError::UnknownValue {
        field: "disagg".into(),
        value: value.into(),
        expected: "PxD pool sizes, e.g. 2x2".into(),
    };
    let (p, d) = value.split_once('x').ok_or_else(err)?;
    Ok((p.parse().map_err(|_| err())?, d.parse().map_err(|_| err())?))
}

fn kv_bucket_to_value(bucket: KvBucket) -> Value {
    match bucket {
        KvBucket::Fixed { tokens } => Value::Int(tokens as i128),
        KvBucket::Adaptive { min_tokens, max_tokens, target_hit_rate, window } => {
            Value::Object(vec![
                ("min_tokens".into(), Value::Int(min_tokens as i128)),
                ("max_tokens".into(), Value::Int(max_tokens as i128)),
                ("target_hit_rate".into(), Value::Float(target_hit_rate)),
                ("window".into(), Value::Int(window as i128)),
            ])
        }
    }
}

/// The top-level keys of a scenario file: `--set` keys, except that a
/// file's `seed` never re-seeds the workload (the `[workload]` table may
/// carry its own seed, and key order must not matter) and tables read
/// through their own [`Table`] impls.
impl Table for Scenario {
    const PATH: &'static str = "";

    fn set(&mut self, key: &str, value: &str) -> Result<(), ScenarioError> {
        Scenario::set(self, key, value)
    }

    fn read(&mut self, key: &str, value: &Value) -> Option<Result<(), ScenarioError>> {
        let nested = matches!(value, Value::Object(_) | Value::Array(_));
        Some(match key {
            "seed" => u64::from_value(value).map(|seed| self.seed = seed).map_err(|e| {
                ScenarioError::UnknownValue {
                    field: "seed".into(),
                    value: format!("{value:?}"),
                    expected: e.to_string(),
                }
            }),
            "workload" => WorkloadSpec::from_value(value)
                .map(|workload| self.workload = workload)
                .map_err(|e| ScenarioError::Parse { message: e.to_string() }),
            "kv_bucket" if matches!(value, Value::Object(_)) => {
                let mut bucket = KvBucket::adaptive();
                read_table(&mut bucket, value).map(|()| self.kv_bucket = bucket)
            }
            "fleet" if nested => self.read_fleet(value),
            "fabric" if nested => FabricSpec::from_value(value).map(|s| self.fabric = Some(s)),
            "telemetry" if nested => {
                TelemetrySpec::from_value(value).map(|s| self.telemetry = Some(s))
            }
            "chaos" if nested => ChaosSpec::from_value(value).map(|s| self.chaos = Some(s)),
            _ => return None,
        })
    }
}

impl Scenario {
    /// Reads a `[fleet]` table, whose scaling aliases set top-level keys.
    fn read_fleet(&mut self, value: &Value) -> Result<(), ScenarioError> {
        let mut table = value.clone();
        if let Value::Object(fields) = &mut table {
            let is_alias =
                |(k, _): &(String, Value)| FLEET_SCALING_ALIASES.contains(&k.as_str());
            let aliases = fields.iter().filter(|f| is_alias(f)).cloned().collect();
            fields.retain(|f| !is_alias(f));
            read_table(self, &Value::Object(aliases))?;
        }
        self.fleet = Some(FleetSpec::from_value(&table)?);
        Ok(())
    }
}

/// The adaptive `[kv_bucket]` table's knobs. A bad value names the whole
/// `kv_bucket` key.
impl Table for KvBucket {
    const PATH: &'static str = "kv_bucket";

    fn set(&mut self, key: &str, value: &str) -> Result<(), ScenarioError> {
        let KvBucket::Adaptive { min_tokens, max_tokens, target_hit_rate, window } = self
        else {
            return Err(ScenarioError::UnknownKey { key: format!("kv_bucket.{key}") });
        };
        match key {
            "min_tokens" => *min_tokens = parse("", Self::PATH, value)?,
            "max_tokens" => *max_tokens = parse("", Self::PATH, value)?,
            "target_hit_rate" => *target_hit_rate = parse("", Self::PATH, value)?,
            "window" => *window = parse("", Self::PATH, value)?,
            other => {
                return Err(ScenarioError::UnknownKey { key: format!("kv_bucket.{other}") })
            }
        }
        Ok(())
    }
}

impl Serialize for Scenario {
    fn to_value(&self) -> Value {
        Scenario::to_value(self)
    }
}

impl Deserialize for Scenario {
    fn from_value(v: &Value) -> Result<Self, Error> {
        <Scenario as Table>::from_value(v).map_err(|e| Error::custom(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmss_sched::{BurstyTraceSpec, Dataset};

    fn small() -> Scenario {
        Scenario::model("gpt2").npus(1).tensor_parallel().workload(WorkloadSpec::Synthetic {
            dataset: Dataset::Alpaca,
            requests: 4,
            rate_per_s: 50.0,
            seed: 11,
        })
    }

    #[test]
    fn shape_follows_replicas_and_disagg() {
        assert_eq!(small().shape(), ServingShape::Single);
        assert_eq!(small().replicas(3).shape(), ServingShape::Cluster { replicas: 3 });
        assert_eq!(
            small().disagg(2, 2).shape(),
            ServingShape::Disagg { prefill: 2, decode: 2 }
        );
    }

    #[test]
    fn builder_chain_builds_and_runs_every_shape() {
        for scenario in [small(), small().replicas(2), small().disagg(1, 1)] {
            let report = scenario.run().unwrap();
            assert_eq!(report.total_completions(), 4, "{}", scenario.shape());
        }
    }

    #[test]
    fn unknown_model_is_typed() {
        let err = Scenario::model("gpt5-999t").build().unwrap_err();
        assert_eq!(err, ScenarioError::UnknownModel { name: "gpt5-999t".into() });
    }

    #[test]
    fn conflicting_shapes_are_rejected() {
        let err = small().replicas(2).disagg(1, 1).build().unwrap_err();
        assert!(matches!(err, ScenarioError::Conflict { .. }), "{err}");
    }

    #[test]
    fn adaptive_bucket_without_memo_is_a_conflict() {
        let err =
            small().kv_bucket(KvBucket::adaptive()).iteration_memo(false).build().unwrap_err();
        assert!(matches!(err, ScenarioError::Conflict { .. }), "{err}");
    }

    #[test]
    fn bad_layouts_fail_validation_not_simulation() {
        // 16 pipeline stages on a 12-layer model: caught by validate.
        let err = Scenario::model("gpt2").npus(16).pipeline_parallel().validate().unwrap_err();
        assert!(matches!(err, ScenarioError::Config(_)), "{err}");
        let err = small().npus(0).validate().unwrap_err();
        assert!(matches!(err, ScenarioError::InvalidValue { .. }), "{err}");
        let err = small().disagg(0, 1).validate().unwrap_err();
        assert!(matches!(err, ScenarioError::InvalidValue { .. }), "{err}");
        let err = small().kv_link_gbps(0.0).disagg(1, 1).validate().unwrap_err();
        assert!(matches!(err, ScenarioError::InvalidValue { .. }), "{err}");
    }

    #[test]
    fn out_of_range_floats_are_invalid_values_naming_the_field() {
        let bad_delays = ["inf", "1e30", "2e10", "nan", "-1"];
        let bad_mems = ["nan", "0", "-1", "inf", "1e30"];
        let cases = bad_delays
            .iter()
            .map(|v| ("batch_delay_ms", v))
            .chain(bad_mems.iter().map(|v| ("npu_mem_gib", v)));
        for (key, value) in cases {
            let mut s = small();
            s.set(key, value).unwrap();
            match s.validate() {
                Err(ScenarioError::InvalidValue { field, .. }) => {
                    assert_eq!(field, key, "{key}={value}")
                }
                other => panic!("{key}={value}: expected an invalid value, got {other:?}"),
            }
            // The same values through a [[fleet.replica]] override.
            let mut over = ReplicaOverride::default();
            let v: f64 = value.parse().unwrap();
            if key == "batch_delay_ms" {
                over.batch_delay_ms = Some(v);
            } else {
                over.npu_mem_gib = Some(v);
            }
            let fleet = FleetSpec { replicas: vec![over], ..FleetSpec::default() };
            let err = small().fleet(fleet).build().unwrap_err();
            assert!(
                matches!(&err, ScenarioError::InvalidValue { field, .. } if field == key),
                "override {key}={value}: {err}"
            );
        }
        let mut s = small();
        s.set("batch_delay_ms", "2.5").unwrap();
        s.build().unwrap();
    }

    #[test]
    fn stray_pool_size_is_a_conflict() {
        let mut s = small();
        s.pim_pool_size = Some(2);
        assert!(matches!(s.validate(), Err(ScenarioError::Conflict { .. })));
    }

    #[test]
    fn set_covers_every_documented_key() {
        let mut s = Scenario::default();
        for (key, value) in [
            ("model", "gpt3-7b"),
            ("npus", "4"),
            ("max_batch", "16"),
            ("batch_delay_ms", "2.5"),
            ("scheduling", "request"),
            ("parallel", "tensor"),
            ("npu_group", "2"),
            ("npu_mem_gib", "48"),
            ("kv_manage", "max"),
            ("pim", "pool"),
            ("pim_pool_size", "8"),
            ("sub_batch", "true"),
            ("reuse", "false"),
            ("iteration_memo", "false"),
            ("kv_bucket", "64"),
            ("gen_only", "true"),
            ("seed", "7"),
            ("network", "hw.json"),
            ("replicas", "4"),
            ("routing", "power-of-two"),
            ("disagg", "2x3"),
            ("kv_link_gbps", "32"),
            ("pairing", "sticky"),
            ("workload.kind", "bursty"),
            ("workload.bursts", "2"),
        ] {
            s.set(key, value).unwrap_or_else(|e| panic!("{key}={value}: {e}"));
        }
        assert_eq!(s.model, "gpt3-7b");
        assert_eq!(s.npus, 4);
        assert_eq!(s.scheduling, SchedulingPolicy::RequestLevel);
        assert_eq!(s.pim, PimMode::Pool);
        assert_eq!(s.pim_pool_size, Some(8));
        assert_eq!(s.kv_bucket, KvBucket::Fixed { tokens: 64 });
        assert_eq!(s.disagg, Some((2, 3)));
        assert!(matches!(s.workload, WorkloadSpec::Bursty { .. }));

        assert!(matches!(s.set("not_a_key", "1"), Err(ScenarioError::UnknownKey { .. })));
        assert!(matches!(s.set("routing", "nope"), Err(ScenarioError::UnknownValue { .. })));
    }

    #[test]
    fn keys_list_the_serialized_schema_in_order() {
        let mut s = small()
            .npu_mem_gib(48.0)
            .pim_pool(2)
            .network("hw.json")
            .disagg(1, 1)
            .fleet(FleetSpec::default())
            .fabric(FabricSpec::named("star2"))
            .telemetry(TelemetrySpec::auto())
            .chaos(ChaosSpec::default());
        s.shards = 2;
        s.shared_cache = true;
        let Value::Object(fields) = s.to_value() else { panic!("a scenario is a table") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, Scenario::KEYS);
        for (key, value) in &fields {
            assert!(!matches!(value, Value::Null), "{key} is unset");
        }
    }

    #[test]
    fn set_seed_reaches_the_workload() {
        let mut s = Scenario::default();
        s.set("seed", "9").unwrap();
        assert_eq!(s.seed, 9);
        assert!(matches!(s.workload, WorkloadSpec::Synthetic { seed: 9, .. }));
    }

    #[test]
    fn toml_and_json_round_trips_are_lossless() {
        let scenarios = [
            Scenario::default(),
            small()
                .replicas(4)
                .routing(RoutingPolicyKind::PowerOfTwoChoices)
                .kv_bucket(KvBucket::adaptive())
                .npu_mem_gib(48.0),
            small()
                .disagg(2, 2)
                .kv_link_gbps(32.0)
                .pairing(RoutingPolicyKind::Sticky)
                .workload(WorkloadSpec::from(BurstyTraceSpec::prefill_heavy_mix(0.4, 7))),
            small().replicas(2).fleet(FleetSpec::autoscale(1, 3)).chaos(crate::ChaosSpec {
                replica_faults: vec![crate::ReplicaFaultSpec {
                    replica: 1,
                    kind: llmss_core::ReplicaFaultKind::Crash,
                    at_ms: 5.0,
                    recover_ms: Some(15.0),
                }],
                link_faults: vec![crate::LinkFaultSpec {
                    link: 0,
                    at_ms: 2.0,
                    recover_ms: Some(4.0),
                    degrade_to_gbps: 8.0,
                }],
                ..crate::ChaosSpec::default()
            }),
        ];
        for s in scenarios {
            let toml_back = Scenario::from_toml(&s.to_toml()).unwrap();
            assert_eq!(toml_back, s, "TOML round trip:\n{}", s.to_toml());
            let json_back = Scenario::from_json(&s.to_json()).unwrap();
            assert_eq!(json_back, s, "JSON round trip:\n{}", s.to_json());
            // Canonical text is stable: emit(parse(emit(x))) == emit(x).
            assert_eq!(toml_back.to_toml(), s.to_toml());
        }
    }

    #[test]
    fn sparse_files_start_from_defaults() {
        let s = Scenario::from_toml("model = \"gpt3-7b\"\nreplicas = 2\n").unwrap();
        assert_eq!(s.model, "gpt3-7b");
        assert_eq!(s.replicas, 2);
        assert_eq!(s.npus, Scenario::default().npus);
        assert_eq!(s.workload, WorkloadSpec::default());
    }

    #[test]
    fn unknown_file_keys_are_schema_drift() {
        let err = Scenario::from_toml("modle = \"gpt2\"\n").unwrap_err();
        assert!(matches!(err, ScenarioError::UnknownKey { .. }), "{err}");
        let err =
            Scenario::from_toml("[kv_bucket]\nmin_tokens = 1\nmax_token = 2\n").unwrap_err();
        assert!(matches!(err, ScenarioError::UnknownKey { .. }), "{err}");
        let err =
            Scenario::from_toml("[workload]\nkind = \"synthetic\"\nrte = 1.0\n").unwrap_err();
        assert!(matches!(err, ScenarioError::Parse { .. }), "{err}");
    }

    #[test]
    fn file_field_order_does_not_couple_seed_and_workload() {
        // Top-level seed listed *after* the workload table must not
        // clobber the workload's own explicit seed.
        let s = Scenario::from_toml("[workload]\nkind = \"synthetic\"\nseed = 7\n").unwrap();
        assert!(matches!(s.workload, WorkloadSpec::Synthetic { seed: 7, .. }));
        assert_eq!(s.seed, 42);
    }

    #[test]
    fn fabric_keys_route_into_the_table() {
        let mut s = small().disagg(2, 2);
        s.set("fabric.topology", "star4").unwrap();
        s.set("fabric.trunk_gbps", "16").unwrap();
        s.set("fabric.sharing", "fair").unwrap();
        let fabric = s.fabric.as_ref().unwrap();
        assert_eq!(fabric.topology.as_deref(), Some("star4"));
        assert_eq!(fabric.trunk_gbps, Some(16.0));
        s.validate().unwrap();
        // The bare key is topology shorthand; `none` clears the table.
        s.set("fabric", "clique4").unwrap();
        assert_eq!(s.fabric.as_ref().unwrap().topology.as_deref(), Some("clique4"));
        s.set("fabric", "none").unwrap();
        assert!(s.fabric.is_none());
        assert!(matches!(
            s.set("fabric.sharing", "lottery"),
            Err(ScenarioError::UnknownValue { .. })
        ));
    }

    #[test]
    fn chaos_keys_route_into_the_table() {
        let mut s = small().replicas(2).fleet(FleetSpec::autoscale(1, 3));
        s.set("chaos.crash_rate_per_s", "2.0").unwrap();
        s.set("chaos.seed", "9").unwrap();
        s.set("chaos.max_retries", "5").unwrap();
        let chaos = s.chaos.as_ref().unwrap();
        assert_eq!(chaos.crash_rate_per_s, 2.0);
        assert_eq!(chaos.seed, 9);
        assert_eq!(chaos.max_retries, 5);
        s.validate().unwrap();
        // `none` clears the table; anything else is not a bare value.
        assert!(matches!(s.set("chaos", "on"), Err(ScenarioError::UnknownValue { .. })));
        s.set("chaos", "none").unwrap();
        assert!(s.chaos.is_none());
        assert!(matches!(
            s.set("chaos.crash_rate", "1"),
            Err(ScenarioError::UnknownKey { .. })
        ));
    }

    #[test]
    fn chaos_needs_a_fleet_to_strike() {
        let mut s = small().replicas(2);
        s.set("chaos.crash_rate_per_s", "1.0").unwrap();
        let err = s.validate().unwrap_err();
        assert!(matches!(err, ScenarioError::Conflict { .. }), "{err}");
        // An inert [chaos] table is fine anywhere: it injects nothing.
        let mut inert = small().replicas(2);
        inert.set("chaos.seed", "3").unwrap();
        inert.validate().unwrap();
    }

    #[test]
    fn chaos_fault_targets_are_bounds_checked_at_build() {
        let mut s = small().replicas(2).fleet(FleetSpec::default());
        s.chaos = Some(crate::ChaosSpec {
            replica_faults: vec![crate::ReplicaFaultSpec {
                replica: 7,
                kind: llmss_core::ReplicaFaultKind::Crash,
                at_ms: 1.0,
                recover_ms: Some(2.0),
            }],
            ..crate::ChaosSpec::default()
        });
        s.validate().unwrap();
        let err = s.build().unwrap_err();
        assert!(matches!(err, ScenarioError::InvalidValue { .. }), "{err}");
        // Autoscale raises the ceiling to max_replicas.
        let mut auto = s.clone();
        auto.fleet = Some(FleetSpec::autoscale(1, 8));
        auto.build().unwrap();
    }

    #[test]
    fn fabric_needs_kv_transfers_to_carry() {
        use crate::FabricSpec;
        for s in [small(), small().replicas(2)] {
            let err = s.fabric(FabricSpec::default()).validate().unwrap_err();
            assert!(matches!(err, ScenarioError::Conflict { .. }), "{err}");
        }
        // Pinned topology sizes must match the fleet at validation time.
        let err =
            small().disagg(1, 1).fabric(FabricSpec::named("star4")).validate().unwrap_err();
        assert!(matches!(err, ScenarioError::InvalidValue { .. }), "{err}");
    }

    #[test]
    fn fabric_scenarios_round_trip_and_run() {
        use crate::FabricSpec;
        let mut spec = FabricSpec::named("star2");
        spec.trunk_gbps = Some(32.0);
        let s = small().disagg(1, 1).fabric(spec);
        let back = Scenario::from_toml(&s.to_toml()).unwrap();
        assert_eq!(back, s, "TOML round trip:\n{}", s.to_toml());
        let report = s.run().unwrap();
        assert_eq!(report.total_completions(), 4);
        // The string shorthand builds the same fair fabric.
        let short = Scenario::from_toml("disagg = \"1x1\"\nfabric = \"star2\"\n").unwrap();
        assert_eq!(short.fabric, Some(FabricSpec::named("star2")));
    }

    #[test]
    fn kv_bucket_spellings() {
        let fixed = Scenario::from_toml("kv_bucket = 64\n").unwrap();
        assert_eq!(fixed.kv_bucket, KvBucket::Fixed { tokens: 64 });
        let named = Scenario::from_toml("kv_bucket = \"adaptive\"\n").unwrap();
        assert_eq!(named.kv_bucket, KvBucket::adaptive());
        let table = Scenario::from_toml(
            "[kv_bucket]\nmin_tokens = 2\nmax_tokens = 32\ntarget_hit_rate = 0.5\nwindow = 16\n",
        )
        .unwrap();
        assert_eq!(
            table.kv_bucket,
            KvBucket::Adaptive {
                min_tokens: 2,
                max_tokens: 32,
                target_hit_rate: 0.5,
                window: 16
            }
        );
    }

    #[test]
    fn files_accept_the_set_shorthands_of_tables() {
        let flex = Scenario::from_toml("fleet = \"flex\"\n").unwrap();
        assert_eq!(flex.fleet.map(|f| f.control), Some(FleetControlKind::Flex));
        let cleared = "fleet = \"none\"\nchaos = \"none\"\ntelemetry = \"none\"\n\
                       fabric = \"none\"\n";
        let cleared = Scenario::from_toml(cleared).unwrap();
        assert_eq!(cleared, Scenario::default());
        let auto = Scenario::from_toml("telemetry = \"auto\"\n").unwrap();
        assert_eq!(auto.telemetry, Some(TelemetrySpec::auto()));
        // A scalar that is no shorthand fails as `--set` fails.
        for text in ["fleet = 1\n", "chaos = \"on\"\n", "telemetry = true\n"] {
            let err = Scenario::from_toml(text).unwrap_err();
            assert!(matches!(err, ScenarioError::UnknownValue { .. }), "{text}: {err}");
        }
        // A table key still refuses a list.
        let err = Scenario::from_toml("fleet = [1]\n").unwrap_err();
        assert!(matches!(err, ScenarioError::Parse { .. }), "{err}");
    }

    #[test]
    fn entry_and_kv_bucket_scalars_read_through_their_text() {
        let text = "kv_bucket = \"64\"\nnpu_mem_gib = \"48\"\npim = \"pool\"\n\
                    pim_pool_size = \"2\"\n\
                    [fleet]\n[[fleet.replica]]\nnpus = \"2\"\nmax_batch = \"none\"\n\
                    [[fleet.replica]]\nrole = \"unified\"\nbatch_delay_ms = 1\n";
        let s = Scenario::from_toml(text).unwrap();
        assert_eq!(s.kv_bucket, KvBucket::Fixed { tokens: 64 });
        assert_eq!((s.npu_mem_gib, s.pim_pool_size), (Some(48.0), Some(2)));
        let replicas = s.fleet.unwrap().replicas;
        assert_eq!((replicas[0].npus, replicas[0].max_batch), (Some(2), None));
        assert_eq!(replicas[1].batch_delay_ms, Some(1.0));
        let table = "[kv_bucket]\nmin_tokens = \"2\"\ntarget_hit_rate = \"0.5\"\nwindow = 8\n";
        let KvBucket::Adaptive { min_tokens, target_hit_rate, window, .. } =
            Scenario::from_toml(table).unwrap().kv_bucket
        else {
            panic!("a [kv_bucket] table is adaptive")
        };
        assert_eq!((min_tokens, target_hit_rate, window), (2, 0.5, 8));
        // Errors keep their variant and field.
        let err = Scenario::from_toml("[kv_bucket]\nwindow = \"x\"\n").unwrap_err();
        assert!(
            matches!(&err, ScenarioError::UnknownValue { field, .. } if field == "kv_bucket")
        );
        let err = Scenario::from_toml("[fleet]\n[[fleet.replica]]\nnpus = 2.0\n").unwrap_err();
        assert!(
            matches!(&err, ScenarioError::UnknownValue { field, .. } if field == "fleet.replica.npus")
        );
        let err = Scenario::from_toml("[fleet]\n[[fleet.replica]]\nrol = 1\n").unwrap_err();
        assert!(
            matches!(&err, ScenarioError::UnknownKey { key } if key == "fleet.replica.rol")
        );
    }

    #[test]
    fn json_null_reads_as_none() {
        let text = r#"{"model": "gpt2", "pim": null, "network": null, "fleet": null,
                       "npu_mem_gib": null, "fabric": null, "chaos": null}"#;
        let s = Scenario::from_json(text).unwrap();
        assert_eq!(s, Scenario::default());
        let err = Scenario::from_json(r#"{"npus": null}"#).unwrap_err();
        assert!(err.to_string().contains("npus: unknown value 'none'"), "{err}");
    }

    #[test]
    fn link_bandwidths_below_the_floor_are_invalid_values_naming_the_key() {
        let disagg = || small().disagg(2, 2);
        let explicit = |gbps: f64| {
            let mut spec = FabricSpec::named("explicit");
            spec.links = vec![crate::FabricLink { name: "a".into(), gbps, latency_ns: None }];
            small().disagg(1, 1).fabric(spec)
        };
        let degraded = |gbps: f64| {
            let mut s = small().replicas(2).fleet(FleetSpec::default());
            s.chaos = Some(ChaosSpec {
                link_faults: vec![crate::LinkFaultSpec {
                    link: 0,
                    at_ms: 1.0,
                    recover_ms: Some(2.0),
                    degrade_to_gbps: gbps,
                }],
                ..ChaosSpec::default()
            });
            s
        };
        for bad in [1e-12, 1e-9, 0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut bw = disagg();
            bw.set("fabric", "star4").unwrap();
            let mut trunk = bw.clone();
            bw.set("fabric.bw_gbps", &bad.to_string()).unwrap();
            trunk.set("fabric.trunk_gbps", &bad.to_string()).unwrap();
            let cases = [
                ("kv_link_gbps", disagg().kv_link_gbps(bad)),
                ("fabric.bw_gbps", bw),
                ("fabric.trunk_gbps", trunk),
                ("fabric.link.gbps", explicit(bad)),
                ("chaos.link_fault[0].degrade_to_gbps", degraded(bad)),
            ];
            for (key, scenario) in cases {
                if key.ends_with("degrade_to_gbps") && bad == 0.0 {
                    // Zero is a partition, not a link speed.
                    scenario.validate().unwrap();
                    continue;
                }
                match scenario.validate() {
                    Err(ScenarioError::InvalidValue { field, .. }) => {
                        assert_eq!(field, key, "{key}={bad}")
                    }
                    other => panic!("{key}={bad}: expected an invalid value, got {other:?}"),
                }
            }
        }
        disagg().kv_link_gbps(crate::MIN_LINK_GBPS).validate().unwrap();
        explicit(crate::MIN_LINK_GBPS).validate().unwrap();
    }

    #[test]
    fn durations_past_the_event_horizon_are_invalid_values() {
        let mut latency = small().disagg(1, 1);
        latency.set("fabric", "single").unwrap();
        latency.set("fabric.latency_ns", "1e300").unwrap();
        let mut backoff = small().replicas(2).fleet(FleetSpec::default());
        backoff.set("chaos.crash_rate_per_s", "50").unwrap();
        backoff.set("chaos.retry_backoff_ms", "1e300").unwrap();
        let mut mttr = backoff.clone();
        mttr.set("chaos.retry_backoff_ms", "1").unwrap();
        mttr.set("chaos.mttr_ms", "1e300").unwrap();
        // Each step is inside the horizon; the last retry's is not.
        let mut growth = mttr.clone();
        growth.set("chaos.mttr_ms", "1").unwrap();
        growth.set("chaos.retry_backoff_ms", "1000").unwrap();
        growth.set("chaos.max_retries", "40").unwrap();
        for (key, scenario) in [
            ("fabric.latency_ns", latency),
            ("chaos.retry_backoff_ms", backoff),
            ("chaos.mttr_ms", mttr),
            ("chaos.retry_backoff_ms", growth.clone()),
        ] {
            match scenario.validate() {
                Err(ScenarioError::InvalidValue { field, .. }) => assert_eq!(field, key),
                other => panic!("{key}: expected an invalid value, got {other:?}"),
            }
        }
        growth.set("chaos.max_retries", "20").unwrap();
        growth.validate().unwrap();
    }

    fn fixed(input_len: usize, requests: usize) -> WorkloadSpec {
        let dataset = Dataset::Fixed { input_len, output_len: 1 };
        WorkloadSpec::Synthetic { dataset, requests, rate_per_s: 100.0, seed: 1 }
    }

    fn expect_invalid(key: &str, built: Result<AnySimulator, ScenarioError>) -> String {
        match built {
            Err(ScenarioError::InvalidValue { field, message }) => {
                assert_eq!(field, key, "{message}");
                message
            }
            Err(other) => panic!("{key}: expected an invalid value, got {other}"),
            Ok(_) => panic!("{key}: expected an invalid value, got a simulator"),
        }
    }

    #[test]
    fn fleet_sizes_past_the_ceiling_are_invalid_values_naming_the_key() {
        let over = crate::MAX_FLEET_REPLICAS + 1;
        let mut pools = small();
        pools.set("disagg", &format!("{}x1", usize::MAX)).unwrap();
        pools.set("fabric", "star4").unwrap();
        let listed = FleetSpec::with_roles(&vec![ReplicaRole::Unified; over]);
        // Building must fail before anything is summed or allocated.
        for (key, scenario) in [
            ("replicas", small().replicas(usize::MAX)),
            ("disagg", pools),
            ("disagg", small().disagg(1, over)),
            ("fleet.replica", small().fleet(listed)),
            ("fleet.max_replicas", small().fleet(FleetSpec::autoscale(1, usize::MAX))),
        ] {
            expect_invalid(key, scenario.build());
        }
        small().replicas(crate::MAX_FLEET_REPLICAS).validate().unwrap();
    }

    #[test]
    fn prompts_past_the_smallest_replica_cache_are_invalid_values() {
        let replica = |gib| ReplicaOverride { npu_mem_gib: Some(gib), ..Default::default() };
        let fleet = |replicas| FleetSpec { replicas, ..FleetSpec::default() };
        let both = small().fleet(fleet(vec![replica(2.0), replica(4.0)]));
        let built = both.build().unwrap();
        let kv: Vec<_> =
            built.engine.sims().iter().map(|s| *s.scheduler().kv().config()).collect();
        assert!(kv[0].total_pages() < kv[1].total_pages());
        // One token past the smaller cache, well inside the larger one.
        let prompt = kv[0].total_pages() * kv[0].page_tokens + 1;
        let message = expect_invalid("workload", both.workload(fixed(prompt, 2)).build());
        assert!(message.contains(&format!("{prompt}-token prompt")), "{message}");
        assert!(message.contains(&format!("holds {} pages", kv[0].total_pages())), "{message}");
        let larger = small().fleet(fleet(vec![replica(4.0)])).workload(fixed(prompt, 2));
        assert_eq!(larger.run().unwrap().total_completions(), 2);
    }

    #[test]
    fn kv_handoffs_past_the_event_horizon_are_invalid_values() {
        // One transfer's latency sits at the horizon, which each input
        // check allows; FIFO sharing serializes 32 of them.
        let mut latency = small().disagg(1, 1);
        for (key, value) in [("fabric", "single"), ("fabric.sharing", "fifo")] {
            latency.set(key, value).unwrap();
        }
        latency.set("fabric.latency_ns", "1e15").unwrap();
        latency.validate().unwrap();
        expect_invalid("fabric.latency_ns", latency.build());
        // 20,000-token gpt2 prompts at the 1 MB/s floor: 1,000 of them
        // ship in ~7.4e5 s, 1,400 in ~1.03e6 s.
        let floor = small().disagg(1, 1).kv_link_gbps(crate::MIN_LINK_GBPS);
        floor.clone().workload(fixed(20_000, 1_000)).build().unwrap();
        let message =
            expect_invalid("kv_link_gbps", floor.workload(fixed(20_000, 1_400)).build());
        assert!(message.contains("1400 KV handoffs"), "{message}");
        // A degraded link bounds every transfer, and retries repeat them.
        let roles = FleetSpec::with_roles(&[ReplicaRole::Prefill, ReplicaRole::Decode]);
        let mut chaos = small().fleet(roles).workload(fixed(20_000, 1_000));
        chaos.set("chaos.max_retries", "0").unwrap();
        chaos.chaos.as_mut().unwrap().link_faults = vec![crate::LinkFaultSpec {
            link: 0,
            at_ms: 1.0,
            recover_ms: None,
            degrade_to_gbps: crate::MIN_LINK_GBPS,
        }];
        chaos.build().unwrap();
        chaos.set("chaos.max_retries", "1").unwrap();
        expect_invalid("chaos.link_fault[0].degrade_to_gbps", chaos.build());
    }

    #[test]
    fn non_finite_floats_serialize_instead_of_panicking() {
        let s = Scenario::model("gpt2").batch_delay_ms(f64::NAN).kv_link_gbps(f64::INFINITY);
        let text = s.to_toml();
        assert!(text.contains("batch_delay_ms = nan\n"), "{text}");
        assert!(text.contains("kv_link_gbps = inf\n"), "{text}");
        let back = Scenario::from_toml(&text).unwrap();
        assert!(back.batch_delay_ms.is_nan());
        assert_eq!(back.kv_link_gbps, f64::INFINITY);
        assert!(matches!(back.validate(), Err(ScenarioError::InvalidValue { .. })));
        assert!(s.to_json().contains("\"batch_delay_ms\": null"));
    }
}
