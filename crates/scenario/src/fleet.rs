//! The `[fleet]` scenario table: heterogeneous fleets and runtime
//! control planes (role flexing, autoscaling) as declarative values.
//!
//! A scenario with a `[fleet]` table builds the same
//! [`FleetEngine`](llmss_core::FleetEngine) a cluster or disaggregated
//! scenario does, with its control plane and replica list spelled out:
//!
//! ```toml
//! [fleet]
//! control = "autoscale"    # static | flex | autoscale
//! tick_ms = 1.0
//! min_replicas = 1
//! max_replicas = 4
//! queue_high = 4.0
//! queue_low = 0.5
//! warmup_ms = 5.0
//!
//! [[fleet.replica]]        # optional per-replica config list
//! npus = 1                 # (heterogeneous fleet; omit for a
//! [[fleet.replica]]        #  homogeneous fleet of `replicas`)
//! npus = 2
//! max_batch = 8
//! ```
//!
//! Each `[[fleet.replica]]` entry overrides the base scenario's replica
//! configuration for that slot; a `role` of `prefill`/`decode` builds a
//! disaggregation-style fleet wired through the scenario's
//! `kv_link_gbps` link.

use llmss_core::ReplicaRole;
use serde::{Serialize, Value};

use crate::codec::{parse, parse_opt, read_entries, Table};
use crate::ScenarioError;

/// Which control plane drives the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FleetControlKind {
    /// A fixed router/pairer, no reconfiguration (today's behavior).
    Static,
    /// Prefill/decode role flexing with drain semantics.
    Flex,
    /// Queue-depth autoscaling between `min..max` replicas.
    Autoscale,
}

impl FleetControlKind {
    /// The scenario-file spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            FleetControlKind::Static => "static",
            FleetControlKind::Flex => "flex",
            FleetControlKind::Autoscale => "autoscale",
        }
    }
}

impl std::fmt::Display for FleetControlKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for FleetControlKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "static" => Ok(FleetControlKind::Static),
            "flex" => Ok(FleetControlKind::Flex),
            "autoscale" => Ok(FleetControlKind::Autoscale),
            other => Err(format!(
                "unknown fleet control '{other}' (expected static | flex | autoscale)"
            )),
        }
    }
}

/// One `[[fleet.replica]]` entry: per-replica overrides of the base
/// scenario's replica configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicaOverride {
    /// The replica's serving role (`unified` unless set).
    pub role: ReplicaRole,
    /// NPUs for this replica (base scenario's `npus` unless set).
    pub npus: Option<usize>,
    /// Batch cap for this replica.
    pub max_batch: Option<usize>,
    /// Batching delay for this replica, in milliseconds.
    pub batch_delay_ms: Option<f64>,
    /// Per-NPU memory override for this replica, in GiB.
    pub npu_mem_gib: Option<f64>,
}

impl Default for ReplicaOverride {
    fn default() -> Self {
        Self {
            role: ReplicaRole::Unified,
            npus: None,
            max_batch: None,
            batch_delay_ms: None,
            npu_mem_gib: None,
        }
    }
}

impl ReplicaOverride {
    /// An override that only sets the serving role.
    pub fn role(role: ReplicaRole) -> Self {
        Self { role, ..Self::default() }
    }

    /// Whether the entry overrides any serving-config field (not just
    /// the role), so its slot needs a config of its own.
    pub(crate) fn overrides_config(&self) -> bool {
        self.npus.is_some()
            || self.max_batch.is_some()
            || self.batch_delay_ms.is_some()
            || self.npu_mem_gib.is_some()
    }

    fn to_value(self) -> Value {
        Value::Object(vec![
            ("role".into(), Value::Str(self.role.to_string())),
            ("npus".into(), self.npus.to_value()),
            ("max_batch".into(), self.max_batch.to_value()),
            ("batch_delay_ms".into(), self.batch_delay_ms.to_value()),
            ("npu_mem_gib".into(), self.npu_mem_gib.to_value()),
        ])
    }
}

impl Table for ReplicaOverride {
    const PATH: &'static str = "fleet.replica";

    fn set(&mut self, key: &str, value: &str) -> Result<(), ScenarioError> {
        let path = Self::PATH;
        match key {
            "role" => self.role = parse(path, key, value)?,
            "npus" => self.npus = parse_opt(path, key, value)?,
            "max_batch" => self.max_batch = parse_opt(path, key, value)?,
            "batch_delay_ms" => self.batch_delay_ms = parse_opt(path, key, value)?,
            "npu_mem_gib" => self.npu_mem_gib = parse_opt(path, key, value)?,
            other => return Err(ScenarioError::UnknownKey { key: format!("{path}.{other}") }),
        }
        Ok(())
    }
}

/// The `[fleet]` table: control-plane selection, policy knobs, and the
/// optional per-replica config list.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSpec {
    /// Which control plane drives the fleet.
    pub control: FleetControlKind,
    /// Control tick period in milliseconds (flex/autoscale).
    pub tick_ms: f64,
    /// Per-replica overrides (`[[fleet.replica]]`); empty means a
    /// homogeneous fleet of the scenario's `replicas`.
    pub replicas: Vec<ReplicaOverride>,
    /// Flex: consecutive idle ticks before a prefill replica flexes.
    pub flex_idle_ticks: u32,
    /// Flex: prefill-role replicas that must always remain.
    pub min_prefill: usize,
    /// Autoscale: fleet-size floor.
    pub min_replicas: usize,
    /// Autoscale: fleet-size ceiling.
    pub max_replicas: usize,
    /// Autoscale: mean queue depth per replica above which to scale up.
    pub queue_high: f64,
    /// Autoscale: mean queue depth per replica below which to scale down.
    pub queue_low: f64,
    /// Autoscale: warm-up delay before a new replica takes work, in
    /// milliseconds.
    pub warmup_ms: f64,
}

impl Default for FleetSpec {
    fn default() -> Self {
        Self {
            control: FleetControlKind::Static,
            tick_ms: 1.0,
            replicas: Vec::new(),
            flex_idle_ticks: 2,
            min_prefill: 1,
            min_replicas: 1,
            max_replicas: 4,
            queue_high: 4.0,
            queue_low: 0.5,
            warmup_ms: 5.0,
        }
    }
}

impl FleetSpec {
    /// An autoscaling fleet between `min` and `max` replicas.
    pub fn autoscale(min: usize, max: usize) -> Self {
        Self {
            control: FleetControlKind::Autoscale,
            min_replicas: min,
            max_replicas: max,
            ..Self::default()
        }
    }

    /// A flexing prefill/decode fleet with the given per-pool sizes.
    pub fn flex(prefill: usize, decode: usize) -> Self {
        let mut replicas = vec![ReplicaOverride::role(ReplicaRole::Prefill); prefill];
        replicas.extend(vec![ReplicaOverride::role(ReplicaRole::Decode); decode]);
        Self { control: FleetControlKind::Flex, replicas, ..Self::default() }
    }

    /// A static fleet with the given per-replica roles.
    pub fn with_roles(roles: &[ReplicaRole]) -> Self {
        Self {
            replicas: roles.iter().map(|&r| ReplicaOverride::role(r)).collect(),
            ..Self::default()
        }
    }

    /// Renders the table as a value tree in canonical key order.
    pub(crate) fn to_value(&self) -> Value {
        Value::Object(vec![
            ("control".into(), Value::Str(self.control.as_str().into())),
            ("tick_ms".into(), Value::Float(self.tick_ms)),
            ("flex_idle_ticks".into(), Value::Int(self.flex_idle_ticks as i128)),
            ("min_prefill".into(), Value::Int(self.min_prefill as i128)),
            ("min_replicas".into(), Value::Int(self.min_replicas as i128)),
            ("max_replicas".into(), Value::Int(self.max_replicas as i128)),
            ("queue_high".into(), Value::Float(self.queue_high)),
            ("queue_low".into(), Value::Float(self.queue_low)),
            ("warmup_ms".into(), Value::Float(self.warmup_ms)),
            (
                "replica".into(),
                Value::Array(self.replicas.iter().map(|r| r.to_value()).collect()),
            ),
        ])
    }

    /// The fleet size this spec implies given the scenario's `replicas`
    /// field: the per-replica list's length when present.
    pub fn size(&self, scenario_replicas: usize) -> usize {
        if self.replicas.is_empty() {
            scenario_replicas
        } else {
            self.replicas.len()
        }
    }

    /// Role of replica `i` (unified when the list is absent or short).
    pub fn role_of(&self, i: usize) -> ReplicaRole {
        self.replicas.get(i).map_or(ReplicaRole::Unified, |r| r.role)
    }

    /// Whether any replica holds the prefill role (the fleet then needs
    /// a KV link and at least one decode replica).
    pub fn has_prefill(&self) -> bool {
        self.replicas.iter().any(|r| r.role == ReplicaRole::Prefill)
    }
}

/// The `fleet.*` surface of [`Scenario::set`](crate::Scenario::set) —
/// sweep axes and `--set`. The per-replica list is not
/// string-addressable; a file spells it as `[[fleet.replica]]` entries.
impl Table for FleetSpec {
    const PATH: &'static str = "fleet";

    fn set(&mut self, key: &str, value: &str) -> Result<(), ScenarioError> {
        let path = Self::PATH;
        match key {
            "control" => self.control = parse(path, key, value)?,
            "tick_ms" => self.tick_ms = parse(path, key, value)?,
            "flex_idle_ticks" => self.flex_idle_ticks = parse(path, key, value)?,
            "min_prefill" => self.min_prefill = parse(path, key, value)?,
            "min_replicas" => self.min_replicas = parse(path, key, value)?,
            "max_replicas" => self.max_replicas = parse(path, key, value)?,
            "queue_high" => self.queue_high = parse(path, key, value)?,
            "queue_low" => self.queue_low = parse(path, key, value)?,
            "warmup_ms" => self.warmup_ms = parse(path, key, value)?,
            other => return Err(ScenarioError::UnknownKey { key: format!("{path}.{other}") }),
        }
        Ok(())
    }

    fn read(&mut self, key: &str, value: &Value) -> Option<Result<(), ScenarioError>> {
        (key == "replica").then(|| read_entries(value).map(|replicas| self.replicas = replicas))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_kind_round_trips() {
        for kind in
            [FleetControlKind::Static, FleetControlKind::Flex, FleetControlKind::Autoscale]
        {
            let parsed: FleetControlKind = kind.as_str().parse().unwrap();
            assert_eq!(parsed, kind);
        }
        assert!("nope".parse::<FleetControlKind>().is_err());
    }

    #[test]
    fn value_round_trip_is_lossless() {
        let mut spec = FleetSpec::flex(2, 1);
        spec.replicas[0].npus = Some(2);
        spec.replicas[2].max_batch = Some(8);
        spec.tick_ms = 0.5;
        let back = FleetSpec::from_value(&spec.to_value()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn unknown_keys_are_schema_drift() {
        let mut spec = FleetSpec::default();
        assert!(matches!(spec.set("mni_replicas", "1"), Err(ScenarioError::UnknownKey { .. })));
        let v = Value::Object(vec![(
            "replica".into(),
            Value::Array(vec![Value::Object(vec![("roel".into(), Value::Str("x".into()))])]),
        )]);
        assert!(matches!(FleetSpec::from_value(&v), Err(ScenarioError::UnknownKey { .. })));
    }

    #[test]
    fn size_and_roles_follow_the_list() {
        let spec = FleetSpec::flex(2, 1);
        assert_eq!(spec.size(1), 3);
        assert_eq!(spec.role_of(0), ReplicaRole::Prefill);
        assert_eq!(spec.role_of(2), ReplicaRole::Decode);
        assert!(spec.has_prefill());
        let homogeneous = FleetSpec::autoscale(1, 4);
        assert_eq!(homogeneous.size(2), 2);
        assert!(!homogeneous.has_prefill());
    }
}
