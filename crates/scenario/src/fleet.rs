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
use serde::Value;

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
        let opt_int = |v: Option<usize>| match v {
            Some(n) => Value::Int(n as i128),
            None => Value::Null,
        };
        let opt_float = |v: Option<f64>| match v {
            Some(f) => Value::Float(f),
            None => Value::Null,
        };
        Value::Object(vec![
            ("role".into(), Value::Str(self.role.to_string())),
            ("npus".into(), opt_int(self.npus)),
            ("max_batch".into(), opt_int(self.max_batch)),
            ("batch_delay_ms".into(), opt_float(self.batch_delay_ms)),
            ("npu_mem_gib".into(), opt_float(self.npu_mem_gib)),
        ])
    }

    fn from_value(v: &Value) -> Result<Self, ScenarioError> {
        let Value::Object(fields) = v else {
            return Err(ScenarioError::Parse {
                message: format!("fleet.replica: expected a table, got {v:?}"),
            });
        };
        let bad = |field: &str, v: &Value, expected: &str| ScenarioError::UnknownValue {
            field: format!("fleet.replica.{field}"),
            value: format!("{v:?}"),
            expected: expected.into(),
        };
        let mut over = ReplicaOverride::default();
        for (key, v) in fields {
            match key.as_str() {
                "role" => {
                    let Value::Str(s) = v else {
                        return Err(bad("role", v, "unified | prefill | decode"));
                    };
                    over.role = s.parse().map_err(|e: String| ScenarioError::UnknownValue {
                        field: "fleet.replica.role".into(),
                        value: s.clone(),
                        expected: e,
                    })?;
                }
                "npus" => {
                    over.npus = opt_usize(v).ok_or_else(|| bad("npus", v, "an NPU count"))?
                }
                "max_batch" => {
                    over.max_batch =
                        opt_usize(v).ok_or_else(|| bad("max_batch", v, "a batch size"))?
                }
                "batch_delay_ms" => {
                    over.batch_delay_ms =
                        opt_f64(v).ok_or_else(|| bad("batch_delay_ms", v, "milliseconds"))?
                }
                "npu_mem_gib" => {
                    over.npu_mem_gib = opt_f64(v).ok_or_else(|| bad("npu_mem_gib", v, "GiB"))?
                }
                other => {
                    return Err(ScenarioError::UnknownKey {
                        key: format!("fleet.replica.{other}"),
                    })
                }
            }
        }
        Ok(over)
    }
}

fn opt_usize(v: &Value) -> Option<Option<usize>> {
    match v {
        Value::Null => Some(None),
        Value::Int(i) => usize::try_from(*i).ok().map(Some),
        _ => None,
    }
}

fn opt_f64(v: &Value) -> Option<Option<f64>> {
    match v {
        Value::Null => Some(None),
        Value::Float(f) => Some(Some(*f)),
        Value::Int(i) => Some(Some(*i as f64)),
        _ => None,
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

    /// Sets one knob by its serialized sub-key (the `fleet.*` surface of
    /// [`Scenario::set`](crate::Scenario::set) — sweep axes and `--set`).
    /// The per-replica list is not string-addressable.
    pub(crate) fn set(&mut self, key: &str, value: &str) -> Result<(), ScenarioError> {
        fn parse<T: std::str::FromStr>(field: &str, value: &str) -> Result<T, ScenarioError>
        where
            T::Err: std::fmt::Display,
        {
            value.parse().map_err(|e| ScenarioError::UnknownValue {
                field: format!("fleet.{field}"),
                value: value.into(),
                expected: format!("{e}"),
            })
        }
        match key {
            "control" => self.control = parse(key, value)?,
            "tick_ms" => self.tick_ms = parse(key, value)?,
            "flex_idle_ticks" => self.flex_idle_ticks = parse(key, value)?,
            "min_prefill" => self.min_prefill = parse(key, value)?,
            "min_replicas" => self.min_replicas = parse(key, value)?,
            "max_replicas" => self.max_replicas = parse(key, value)?,
            "queue_high" => self.queue_high = parse(key, value)?,
            "queue_low" => self.queue_low = parse(key, value)?,
            "warmup_ms" => self.warmup_ms = parse(key, value)?,
            other => return Err(ScenarioError::UnknownKey { key: format!("fleet.{other}") }),
        }
        Ok(())
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

    /// Rebuilds the table from a value tree with typed errors.
    pub(crate) fn from_value(v: &Value) -> Result<Self, ScenarioError> {
        let Value::Object(fields) = v else {
            return Err(ScenarioError::Parse {
                message: format!("fleet: expected a table, got {v:?}"),
            });
        };
        let mut spec = FleetSpec::default();
        for (key, value) in fields {
            if key == "replica" {
                let Value::Array(items) = value else {
                    return Err(ScenarioError::Parse {
                        message: format!("fleet.replica: expected an array, got {value:?}"),
                    });
                };
                spec.replicas =
                    items.iter().map(ReplicaOverride::from_value).collect::<Result<_, _>>()?;
                continue;
            }
            let text = match value {
                Value::Str(s) => s.clone(),
                Value::Int(i) => i.to_string(),
                Value::Float(f) => format!("{f:?}"),
                Value::Bool(b) => b.to_string(),
                other => {
                    return Err(ScenarioError::UnknownValue {
                        field: format!("fleet.{key}"),
                        value: format!("{other:?}"),
                        expected: "a scalar".into(),
                    })
                }
            };
            spec.set(key, &text)?;
        }
        Ok(spec)
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
