//! The `[fabric]` scenario table: KV-transfer topology and bandwidth
//! sharing as declarative values.
//!
//! A scenario with a `[fabric]` table ships its KV handoffs over a
//! multi-link fabric instead of the single dedicated FIFO wire:
//!
//! ```toml
//! [fabric]
//! topology = "star4"    # single | starN | cliqueN | hierPxQ | explicit
//! sharing = "fair"      # fair (max-min flows) | fifo (legacy, single only)
//! bw_gbps = 64.0        # access/local links (kv_link_gbps when absent)
//! trunk_gbps = 64.0     # star trunk / hier uplinks (bw_gbps when absent)
//! latency_ns = 150.0    # per-link latency (CXL-class when absent)
//!
//! [[fabric.link]]       # explicit graphs: named links + routes
//! name = "a"
//! gbps = 32.0
//!
//! [[fabric.route]]
//! from = 0
//! to = 1
//! path = ["a"]
//! ```
//!
//! Every scalar is reachable as a `fabric.*` key through
//! [`Scenario::set`](crate::Scenario::set), so topology and
//! oversubscription are sweep axes like any other knob.

use llmss_core::{Fabric, FabricGraph, FabricTopology, NamedLink, RouteSpec};
use llmss_net::LinkSpec;
use serde::{Deserialize, Serialize, Value};

use crate::codec::{parse, parse_opt, read_entries, Table};
use crate::{check_horizon, check_link_gbps, ScenarioError};

/// How concurrent transfers share the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FabricSharing {
    /// Max–min fair sharing: transfers are flows, bandwidth re-divides
    /// at every flow start/finish.
    #[default]
    Fair,
    /// The legacy discipline: one transfer at a time per link, FIFO by
    /// KV-ready order. Only meaningful on the `single` topology, where
    /// it reproduces pre-fabric reports byte-identically.
    Fifo,
}

impl FabricSharing {
    /// The scenario-file spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            FabricSharing::Fair => "fair",
            FabricSharing::Fifo => "fifo",
        }
    }
}

impl std::fmt::Display for FabricSharing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for FabricSharing {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "fair" => Ok(FabricSharing::Fair),
            "fifo" => Ok(FabricSharing::Fifo),
            other => Err(format!("unknown fabric sharing '{other}' (expected fair | fifo)")),
        }
    }
}

/// One `[[fabric.link]]` entry of an explicit graph.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FabricLink {
    /// The link's name (route paths refer to it).
    pub name: String,
    /// Bandwidth in GB/s.
    pub gbps: f64,
    /// Latency in nanoseconds (the table's `latency_ns`, then
    /// CXL-class, when absent).
    pub latency_ns: Option<f64>,
}

/// One `[[fabric.route]]` entry: the link path an ordered replica pair
/// uses. Routes are bidirectional unless the reverse pair declares its
/// own.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FabricRoute {
    /// Source replica (fleet-global index).
    pub from: usize,
    /// Destination replica (fleet-global index).
    pub to: usize,
    /// Link names, in hop order.
    pub path: Vec<String>,
}

/// The `[fabric]` table: topology selection, sharing discipline, and
/// link parameters.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FabricSpec {
    /// Topology name: `single` (default), `star[N]`, `clique[N]`,
    /// `hier[P]x[Q]`, or `explicit` (with `[[fabric.link]]` /
    /// `[[fabric.route]]` entries).
    pub topology: Option<String>,
    /// How concurrent transfers share bandwidth.
    pub sharing: FabricSharing,
    /// Access/local-link bandwidth in GB/s (the scenario's
    /// `kv_link_gbps` when absent).
    pub bw_gbps: Option<f64>,
    /// Per-link latency in nanoseconds (CXL-class when absent).
    pub latency_ns: Option<f64>,
    /// Star-trunk / hier-uplink bandwidth in GB/s (`bw_gbps` when
    /// absent — a star is then `N:1` oversubscribed).
    pub trunk_gbps: Option<f64>,
    /// Explicit-graph links (`[[fabric.link]]`).
    pub links: Vec<FabricLink>,
    /// Explicit-graph routes (`[[fabric.route]]`).
    pub routes: Vec<FabricRoute>,
}

impl FabricSpec {
    /// A fair-sharing fabric of the named topology.
    pub fn named(topology: impl Into<String>) -> Self {
        Self { topology: Some(topology.into()), ..Self::default() }
    }

    /// The effective topology name (`single` when unset).
    pub fn topology_name(&self) -> &str {
        self.topology.as_deref().unwrap_or("single")
    }

    /// Checks the table's own constraints (no endpoint count needed).
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint as a typed
    /// [`ScenarioError`].
    pub fn validate(&self) -> Result<(), ScenarioError> {
        let invalid = |field: &str, message: String| {
            Err(ScenarioError::InvalidValue { field: field.into(), message })
        };
        let topology = self.topology_name();
        if topology == "explicit" {
            if self.links.is_empty() {
                return invalid(
                    "fabric.topology",
                    "an explicit fabric needs at least one [[fabric.link]]".into(),
                );
            }
        } else {
            if !self.links.is_empty() || !self.routes.is_empty() {
                return invalid(
                    "fabric.topology",
                    format!(
                        "[[fabric.link]]/[[fabric.route]] entries require \
                         topology = \"explicit\", got \"{topology}\""
                    ),
                );
            }
            if let Err(e) = topology.parse::<FabricTopology>() {
                return invalid("fabric.topology", e);
            }
        }
        if self.sharing == FabricSharing::Fifo && topology != "single" {
            return Err(ScenarioError::Conflict {
                message: format!(
                    "sharing = \"fifo\" is the legacy single-wire discipline; it cannot \
                     serialize the \"{topology}\" topology (use sharing = \"fair\")"
                ),
            });
        }
        for (field, value) in
            [("fabric.bw_gbps", self.bw_gbps), ("fabric.trunk_gbps", self.trunk_gbps)]
        {
            if let Some(bw) = value {
                check_link_gbps(field, bw)?;
            }
        }
        let latencies = std::iter::once(("fabric.latency_ns", self.latency_ns))
            .chain(self.links.iter().map(|l| ("fabric.link.latency_ns", l.latency_ns)));
        for (field, value) in latencies {
            if let Some(lat) = value {
                if !lat.is_finite() || lat < 0.0 {
                    return invalid(
                        field,
                        format!("link latency cannot be negative, got {lat}"),
                    );
                }
                check_horizon(field, lat * 1e3)?;
            }
        }
        for link in &self.links {
            if link.name.is_empty() {
                return invalid("fabric.link.name", "a fabric link needs a name".into());
            }
            check_link_gbps("fabric.link.gbps", link.gbps)?;
        }
        Ok(())
    }

    /// Builds the runtime [`Fabric`] over `endpoints` replicas, with the
    /// scenario's `kv_link_gbps` as the bandwidth fallback.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ScenarioError`] for topology/fleet size
    /// mismatches and malformed explicit graphs.
    pub fn build(&self, endpoints: usize, kv_link_gbps: f64) -> Result<Fabric, ScenarioError> {
        self.validate()?;
        let invalid =
            |message: String| ScenarioError::InvalidValue { field: "fabric".into(), message };
        let latency_ns = self.latency_ns.unwrap_or(LinkSpec::cxl().latency_ns);
        let bw = self.bw_gbps.unwrap_or(kv_link_gbps);
        let access = LinkSpec::new(bw, latency_ns);
        if self.sharing == FabricSharing::Fifo {
            // `validate` pinned the topology to `single`: the one
            // dedicated legacy wire.
            return Ok(Fabric::fifo(vec![access]));
        }
        let topology = self.topology_name();
        let graph = if topology == "explicit" {
            let links: Vec<NamedLink> = self
                .links
                .iter()
                .map(|l| {
                    NamedLink::new(
                        l.name.clone(),
                        LinkSpec::new(l.gbps, l.latency_ns.unwrap_or(latency_ns)),
                    )
                })
                .collect();
            let routes: Vec<RouteSpec> = self
                .routes
                .iter()
                .map(|r| RouteSpec { from: r.from, to: r.to, path: r.path.clone() })
                .collect();
            FabricGraph::explicit(endpoints, links, &routes).map_err(invalid)?
        } else {
            let parsed: FabricTopology = topology.parse().map_err(invalid)?;
            let trunk = LinkSpec::new(self.trunk_gbps.unwrap_or(bw), latency_ns);
            FabricGraph::build(&parsed, endpoints, access, trunk).map_err(invalid)?
        };
        Ok(Fabric::fair(topology, graph))
    }

    /// What bounds one KV transfer across the built fabric of
    /// `link_count` links: the key setting the link latencies, their sum
    /// over every link in nanoseconds, and each bandwidth a transfer can
    /// cross with the key that sets it.
    pub(crate) fn transfer_bounds(
        &self,
        link_count: usize,
        kv_link_gbps: f64,
    ) -> (&'static str, f64, Vec<(String, f64)>) {
        let latency_ns = self.latency_ns.unwrap_or(LinkSpec::cxl().latency_ns);
        if self.topology_name() == "explicit" {
            let own = self.links.iter().any(|l| l.latency_ns.is_some());
            let key = if own { "fabric.link.latency_ns" } else { "fabric.latency_ns" };
            let summed = self.links.iter().map(|l| l.latency_ns.unwrap_or(latency_ns)).sum();
            let bandwidths = self.links.iter().map(|l| ("fabric.link.gbps".into(), l.gbps));
            return (key, summed, bandwidths.collect());
        }
        let access_key = if self.bw_gbps.is_some() { "fabric.bw_gbps" } else { "kv_link_gbps" };
        let mut bandwidths =
            vec![(access_key.to_owned(), self.bw_gbps.unwrap_or(kv_link_gbps))];
        let trunked = matches!(
            self.topology_name().parse(),
            Ok(FabricTopology::Star { .. } | FabricTopology::Hier { .. })
        );
        if let (true, Some(trunk)) = (trunked, self.trunk_gbps) {
            bandwidths.push(("fabric.trunk_gbps".to_owned(), trunk));
        }
        ("fabric.latency_ns", latency_ns * link_count as f64, bandwidths)
    }

    /// Renders the table as a value tree in canonical key order.
    pub(crate) fn to_value(&self) -> Value {
        Value::Object(vec![
            ("topology".into(), self.topology.to_value()),
            ("sharing".into(), Value::Str(self.sharing.as_str().into())),
            ("bw_gbps".into(), self.bw_gbps.to_value()),
            ("latency_ns".into(), self.latency_ns.to_value()),
            ("trunk_gbps".into(), self.trunk_gbps.to_value()),
            (
                "link".into(),
                Value::Array(
                    self.links
                        .iter()
                        .map(|l| {
                            Value::Object(vec![
                                ("name".into(), Value::Str(l.name.clone())),
                                ("gbps".into(), Value::Float(l.gbps)),
                                ("latency_ns".into(), l.latency_ns.to_value()),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "route".into(),
                Value::Array(
                    self.routes
                        .iter()
                        .map(|r| {
                            Value::Object(vec![
                                ("from".into(), Value::Int(r.from as i128)),
                                ("to".into(), Value::Int(r.to as i128)),
                                ("path".into(), r.path.to_value()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// The `fabric.*` surface of [`Scenario::set`](crate::Scenario::set) —
/// sweep axes and `--set`. The link/route lists are not
/// string-addressable; a file spells them as `[[fabric.link]]` and
/// `[[fabric.route]]` entries.
impl Table for FabricSpec {
    const PATH: &'static str = "fabric";

    fn set(&mut self, key: &str, value: &str) -> Result<(), ScenarioError> {
        let path = Self::PATH;
        match key {
            "topology" => self.topology = parse_opt(path, key, value)?,
            "sharing" => self.sharing = parse(path, key, value)?,
            "bw_gbps" => self.bw_gbps = parse_opt(path, key, value)?,
            "latency_ns" => self.latency_ns = parse_opt(path, key, value)?,
            "trunk_gbps" => self.trunk_gbps = parse_opt(path, key, value)?,
            other => return Err(ScenarioError::UnknownKey { key: format!("{path}.{other}") }),
        }
        Ok(())
    }

    fn read(&mut self, key: &str, value: &Value) -> Option<Result<(), ScenarioError>> {
        match key {
            "link" => Some(read_entries(value).map(|links| self.links = links)),
            "route" => Some(read_entries(value).map(|routes| self.routes = routes)),
            _ => None,
        }
    }
}

impl Table for FabricLink {
    const PATH: &'static str = "fabric.link";
    const REQUIRED: &'static [&'static str] = &["name", "gbps"];

    fn set(&mut self, key: &str, value: &str) -> Result<(), ScenarioError> {
        let path = Self::PATH;
        match key {
            "name" => self.name = value.to_owned(),
            "gbps" => self.gbps = parse(path, key, value)?,
            "latency_ns" => self.latency_ns = parse_opt(path, key, value)?,
            other => return Err(ScenarioError::UnknownKey { key: format!("{path}.{other}") }),
        }
        Ok(())
    }
}

impl Table for FabricRoute {
    const PATH: &'static str = "fabric.route";
    const REQUIRED: &'static [&'static str] = &["from", "to"];

    fn set(&mut self, key: &str, value: &str) -> Result<(), ScenarioError> {
        let path = Self::PATH;
        match key {
            "from" => self.from = parse(path, key, value)?,
            "to" => self.to = parse(path, key, value)?,
            other => return Err(ScenarioError::UnknownKey { key: format!("{path}.{other}") }),
        }
        Ok(())
    }

    /// `path` is a list of link names.
    fn read(&mut self, key: &str, value: &Value) -> Option<Result<(), ScenarioError>> {
        (key == "path").then(|| {
            self.path =
                Vec::<String>::from_value(value).map_err(|e| ScenarioError::UnknownValue {
                    field: "fabric.route.path".into(),
                    value: format!("{value:?}"),
                    expected: format!("an array of link names ({e})"),
                })?;
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharing_round_trips() {
        for sharing in [FabricSharing::Fair, FabricSharing::Fifo] {
            let parsed: FabricSharing = sharing.as_str().parse().unwrap();
            assert_eq!(parsed, sharing);
        }
        assert!("nope".parse::<FabricSharing>().is_err());
    }

    #[test]
    fn value_round_trip_is_lossless() {
        let spec = FabricSpec {
            topology: Some("explicit".into()),
            sharing: FabricSharing::Fair,
            bw_gbps: Some(32.0),
            latency_ns: None,
            trunk_gbps: None,
            links: vec![FabricLink { name: "a".into(), gbps: 16.0, latency_ns: Some(100.0) }],
            routes: vec![FabricRoute { from: 0, to: 1, path: vec!["a".into()] }],
        };
        let back = FabricSpec::from_value(&spec.to_value()).unwrap();
        assert_eq!(back, spec);
        let named = FabricSpec::named("star4");
        assert_eq!(FabricSpec::from_value(&named.to_value()).unwrap(), named);
    }

    #[test]
    fn unknown_keys_are_schema_drift() {
        let mut spec = FabricSpec::default();
        assert!(matches!(spec.set("topolgy", "star"), Err(ScenarioError::UnknownKey { .. })));
        let v = Value::Object(vec![(
            "link".into(),
            Value::Array(vec![Value::Object(vec![("nme".into(), Value::Str("x".into()))])]),
        )]);
        assert!(matches!(FabricSpec::from_value(&v), Err(ScenarioError::UnknownKey { .. })));
    }

    #[test]
    fn fifo_sharing_requires_the_single_topology() {
        let mut spec = FabricSpec::named("star4");
        spec.sharing = FabricSharing::Fifo;
        assert!(matches!(spec.validate(), Err(ScenarioError::Conflict { .. })));
        let single = FabricSpec { sharing: FabricSharing::Fifo, ..FabricSpec::default() };
        assert!(single.validate().is_ok());
    }

    #[test]
    fn named_topologies_build_over_the_fleet_size() {
        let spec = FabricSpec::named("star");
        let fabric = spec.build(4, 64.0).unwrap();
        assert_eq!(fabric.endpoints(), Some(4));
        let pinned = FabricSpec::named("clique3");
        assert!(pinned.build(4, 64.0).is_err(), "pinned size must match the fleet");
        let bad = FabricSpec::named("ring9");
        assert!(bad.validate().is_err());
    }

    #[test]
    fn explicit_graphs_build_from_lists() {
        let spec = FabricSpec {
            topology: Some("explicit".into()),
            links: vec![FabricLink { name: "a".into(), gbps: 16.0, latency_ns: None }],
            routes: vec![FabricRoute { from: 0, to: 1, path: vec!["a".into()] }],
            ..FabricSpec::default()
        };
        assert!(spec.build(2, 64.0).is_ok());
        let unrouted = FabricSpec {
            routes: vec![FabricRoute { from: 0, to: 5, path: vec!["a".into()] }],
            ..spec
        };
        assert!(unrouted.build(2, 64.0).is_err(), "endpoint outside the fleet");
    }
}
