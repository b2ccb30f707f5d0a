//! Fabric topology graphs: named multi-link layouts and per-pair
//! routing from replica endpoints to link paths.
//!
//! A [`FabricGraph`] maps an ordered replica pair `(from, to)` to the
//! sequence of links a KV transfer crosses. Four named families cover
//! the layouts the paper's disaggregated experiments need, and an
//! explicit link/route list covers everything else:
//!
//! * `single` — one shared link; every pair crosses it (the legacy
//!   shape).
//! * `star{n}` — one access link per endpoint plus a shared trunk;
//!   a transfer crosses `access(from) → trunk → access(to)`. With the
//!   trunk at access bandwidth the core is `n:1` oversubscribed — the
//!   shape that lets a hot pair degrade its neighbors.
//! * `clique{n}` — a dedicated link per unordered endpoint pair; full
//!   isolation, the contention-free baseline.
//! * `hier{pods}x{per_pod}` — endpoints grouped into pods: a pod-local
//!   link for intra-pod pairs, per-pod uplinks (crossed back to back)
//!   for inter-pod pairs.

use std::collections::BTreeMap;

use llmss_net::LinkSpec;

/// A link with a stable display name (reports key per-link utilization
/// on it).
#[derive(Debug, Clone, PartialEq)]
pub struct NamedLink {
    /// Display name, unique within the graph.
    pub name: String,
    /// Bandwidth and latency.
    pub spec: LinkSpec,
}

impl NamedLink {
    /// A named link.
    pub fn new(name: impl Into<String>, spec: LinkSpec) -> Self {
        Self { name: name.into(), spec }
    }
}

/// One explicit route: the link path an ordered endpoint pair uses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteSpec {
    /// Source endpoint (fleet-global replica index).
    pub from: usize,
    /// Destination endpoint.
    pub to: usize,
    /// Link names, in hop order.
    pub path: Vec<String>,
}

/// A named topology family, sizes optional until the endpoint count is
/// known (`star` in a scenario file means "star over however many
/// replicas the fleet has"; `star4` pins it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FabricTopology {
    /// One shared link.
    Single,
    /// Per-endpoint access links around a shared trunk.
    Star {
        /// Endpoint count (validated against the fleet when present).
        endpoints: Option<usize>,
    },
    /// A dedicated link per unordered endpoint pair.
    Clique {
        /// Endpoint count (validated against the fleet when present).
        endpoints: Option<usize>,
    },
    /// Pods of endpoints with pod-local links and per-pod uplinks.
    Hier {
        /// Number of pods.
        pods: usize,
        /// Endpoints per pod (inferred from the fleet when absent).
        per_pod: Option<usize>,
    },
}

impl FabricTopology {
    /// The canonical spelling (`single`, `star4`, `hier2x2`, ...).
    pub fn spelling(&self) -> String {
        let opt = |n: &Option<usize>| n.map(|n| n.to_string()).unwrap_or_default();
        match self {
            FabricTopology::Single => "single".into(),
            FabricTopology::Star { endpoints } => format!("star{}", opt(endpoints)),
            FabricTopology::Clique { endpoints } => format!("clique{}", opt(endpoints)),
            FabricTopology::Hier { pods, per_pod } => match per_pod {
                Some(per) => format!("hier{pods}x{per}"),
                None => format!("hier{pods}"),
            },
        }
    }
}

impl std::fmt::Display for FabricTopology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.spelling())
    }
}

impl std::str::FromStr for FabricTopology {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || {
            format!(
                "unknown fabric topology '{s}' (expected single | star[N] | clique[N] | \
                 hier[P]x[Q], e.g. star4 or hier2x2)"
            )
        };
        let tail_size = |tail: &str| -> Result<Option<usize>, String> {
            if tail.is_empty() {
                Ok(None)
            } else {
                tail.parse().map(Some).map_err(|_| err())
            }
        };
        if s == "single" {
            Ok(FabricTopology::Single)
        } else if let Some(tail) = s.strip_prefix("star") {
            Ok(FabricTopology::Star { endpoints: tail_size(tail)? })
        } else if let Some(tail) = s.strip_prefix("clique") {
            Ok(FabricTopology::Clique { endpoints: tail_size(tail)? })
        } else if let Some(tail) = s.strip_prefix("hier") {
            let (pods, per_pod) = match tail.split_once('x') {
                Some((p, q)) => {
                    (p.parse().map_err(|_| err())?, Some(q.parse().map_err(|_| err())?))
                }
                None if tail.is_empty() => (2, None),
                None => (tail.parse().map_err(|_| err())?, None),
            };
            if pods == 0 {
                return Err("a hierarchical fabric needs at least one pod".into());
            }
            Ok(FabricTopology::Hier { pods, per_pod })
        } else {
            Err(err())
        }
    }
}

/// How endpoint pairs map to link paths.
#[derive(Debug, Clone, PartialEq)]
enum RouteTable {
    /// Everything crosses link 0.
    Single,
    /// Links `0..n` are access links, link `n` is the trunk.
    Star,
    /// Unordered-pair links in row-major order.
    Clique,
    /// Links `0..pods` are pod-local, `pods..2*pods` are uplinks.
    Hier {
        per_pod: usize,
    },
    Explicit(BTreeMap<(usize, usize), Vec<usize>>),
}

/// A built fabric graph: links plus a per-pair routing function over a
/// fixed endpoint count.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricGraph {
    links: Vec<NamedLink>,
    endpoints: usize,
    routes: RouteTable,
}

impl FabricGraph {
    /// One shared link between every endpoint pair.
    pub fn single(endpoints: usize, link: LinkSpec) -> Self {
        Self { links: vec![NamedLink::new("kv", link)], endpoints, routes: RouteTable::Single }
    }

    /// Per-endpoint access links joined by a shared trunk. With
    /// `trunk == access` the core is `endpoints:1` oversubscribed.
    ///
    /// # Panics
    ///
    /// Panics if `endpoints` is zero.
    pub fn star(endpoints: usize, access: LinkSpec, trunk: LinkSpec) -> Self {
        assert!(endpoints > 0, "a star fabric needs at least one endpoint");
        let mut links: Vec<NamedLink> =
            (0..endpoints).map(|i| NamedLink::new(format!("up{i}"), access)).collect();
        links.push(NamedLink::new("trunk", trunk));
        Self { links, endpoints, routes: RouteTable::Star }
    }

    /// A dedicated link per unordered endpoint pair.
    ///
    /// # Panics
    ///
    /// Panics if `endpoints < 2` (no pair to link).
    pub fn clique(endpoints: usize, link: LinkSpec) -> Self {
        assert!(endpoints >= 2, "a clique fabric needs at least two endpoints");
        let mut links = Vec::with_capacity(endpoints * (endpoints - 1) / 2);
        for a in 0..endpoints {
            for b in (a + 1)..endpoints {
                links.push(NamedLink::new(format!("l{a}-{b}"), link));
            }
        }
        Self { links, endpoints, routes: RouteTable::Clique }
    }

    /// Pods of `per_pod` endpoints: a pod-local link per pod and a
    /// per-pod uplink for inter-pod traffic (an inter-pod path crosses
    /// both pods' uplinks).
    ///
    /// # Panics
    ///
    /// Panics if `pods` or `per_pod` is zero.
    pub fn hier(pods: usize, per_pod: usize, local: LinkSpec, uplink: LinkSpec) -> Self {
        assert!(pods > 0 && per_pod > 0, "a hierarchical fabric needs non-empty pods");
        let mut links: Vec<NamedLink> =
            (0..pods).map(|p| NamedLink::new(format!("pod{p}"), local)).collect();
        links.extend((0..pods).map(|p| NamedLink::new(format!("up{p}"), uplink)));
        Self { links, endpoints: pods * per_pod, routes: RouteTable::Hier { per_pod } }
    }

    /// An explicit graph: links plus per-pair routes. Routes are
    /// bidirectional — `(from, to)` also serves `(to, from)` with the
    /// path reversed — unless the reverse pair declares its own.
    ///
    /// # Errors
    ///
    /// Returns a message for an empty link list, duplicate link names,
    /// a route naming an unknown link, an empty path, an out-of-range
    /// endpoint, or conflicting duplicate routes.
    pub fn explicit(
        endpoints: usize,
        links: Vec<NamedLink>,
        routes: &[RouteSpec],
    ) -> Result<Self, String> {
        if links.is_empty() {
            return Err("an explicit fabric needs at least one [[fabric.link]]".into());
        }
        let mut by_name = BTreeMap::new();
        for (i, l) in links.iter().enumerate() {
            if by_name.insert(l.name.clone(), i).is_some() {
                return Err(format!("duplicate fabric link name '{}'", l.name));
            }
        }
        let mut table: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
        let mut declared: Vec<(usize, usize)> = Vec::new();
        for r in routes {
            if r.from >= endpoints || r.to >= endpoints {
                return Err(format!(
                    "route {} -> {} names an endpoint outside the {endpoints}-replica fleet",
                    r.from, r.to
                ));
            }
            if r.path.is_empty() {
                return Err(format!("route {} -> {} has an empty path", r.from, r.to));
            }
            let mut path = Vec::with_capacity(r.path.len());
            for name in &r.path {
                match by_name.get(name) {
                    Some(&i) => path.push(i),
                    None => {
                        return Err(format!(
                            "route {} -> {} crosses unknown link '{name}'",
                            r.from, r.to
                        ))
                    }
                }
            }
            if declared.contains(&(r.from, r.to)) {
                return Err(format!("route {} -> {} declared twice", r.from, r.to));
            }
            declared.push((r.from, r.to));
            // The reverse direction defaults to the reversed path; an
            // explicit reverse route (earlier or later in the list)
            // overrides it.
            table.insert((r.from, r.to), path.clone());
            if !declared.contains(&(r.to, r.from)) {
                path.reverse();
                table.insert((r.to, r.from), path);
            }
        }
        Ok(Self { links, endpoints, routes: RouteTable::Explicit(table) })
    }

    /// Builds a named topology over `endpoints` replicas. `access` is
    /// the leaf/local link; `trunk` the shared core (star trunk, hier
    /// uplinks) — pass the same spec for a uniform fabric.
    ///
    /// # Errors
    ///
    /// Returns a message when the topology's pinned size disagrees with
    /// the fleet's endpoint count.
    pub fn build(
        topology: &FabricTopology,
        endpoints: usize,
        access: LinkSpec,
        trunk: LinkSpec,
    ) -> Result<Self, String> {
        let check = |pinned: Option<usize>| match pinned {
            Some(n) if n != endpoints => Err(format!(
                "fabric topology pins {n} endpoints but the fleet has {endpoints} replicas"
            )),
            _ => Ok(()),
        };
        match topology {
            FabricTopology::Single => Ok(Self::single(endpoints, access)),
            FabricTopology::Star { endpoints: pinned } => {
                check(*pinned)?;
                Ok(Self::star(endpoints, access, trunk))
            }
            FabricTopology::Clique { endpoints: pinned } => {
                check(*pinned)?;
                if endpoints < 2 {
                    return Err("a clique fabric needs at least two replicas".into());
                }
                Ok(Self::clique(endpoints, access))
            }
            FabricTopology::Hier { pods, per_pod } => {
                let per = match per_pod {
                    Some(per) => {
                        check(Some(pods * per))?;
                        *per
                    }
                    None if endpoints.is_multiple_of(*pods) && endpoints > 0 => {
                        endpoints / pods
                    }
                    None => {
                        return Err(format!(
                            "hier{pods}: {endpoints} replicas do not split into {pods} \
                             equal pods"
                        ))
                    }
                };
                Ok(Self::hier(*pods, per, access, trunk))
            }
        }
    }

    /// The graph's links, by index.
    pub fn links(&self) -> &[NamedLink] {
        &self.links
    }

    /// The endpoint (replica) count the routes cover.
    pub fn endpoints(&self) -> usize {
        self.endpoints
    }

    /// The link path an ordered pair crosses, in hop order.
    ///
    /// # Panics
    ///
    /// Panics on an endpoint outside the graph, a clique self-pair (no
    /// dedicated link exists), or an explicit graph without a route for
    /// the pair — all configuration errors that must fail loudly, not
    /// silently misroute a transfer.
    #[expect(
        clippy::panic,
        reason = "explicit route tables are validated complete at construction"
    )]
    pub fn path(&self, from: usize, to: usize) -> Vec<usize> {
        assert!(
            from < self.endpoints && to < self.endpoints,
            "transfer {from} -> {to} leaves the {}-endpoint fabric",
            self.endpoints
        );
        match &self.routes {
            RouteTable::Single => vec![0],
            RouteTable::Star => {
                let trunk = self.endpoints;
                if from == to {
                    vec![from]
                } else {
                    vec![from, trunk, to]
                }
            }
            RouteTable::Clique => {
                assert!(
                    from != to,
                    "a clique fabric has no link for the self-pair {from} -> {from}"
                );
                let (a, b) = (from.min(to), from.max(to));
                // Row-major unordered-pair index.
                let idx = a * self.endpoints - a * (a + 1) / 2 + (b - a - 1);
                vec![idx]
            }
            RouteTable::Hier { per_pod } => {
                let (pa, pb) = (from / per_pod, to / per_pod);
                let pods = self.links.len() / 2;
                if pa == pb {
                    vec![pa]
                } else {
                    vec![pods + pa, pods + pb]
                }
            }
            RouteTable::Explicit(table) => table
                .get(&(from, to))
                .unwrap_or_else(|| {
                    panic!("the explicit fabric declares no route for {from} -> {to}")
                })
                .clone(),
        }
    }

    /// Summed propagation latency of the pair's path, in picoseconds.
    pub fn path_latency_ps(&self, path: &[usize]) -> llmss_sched::TimePs {
        path.iter().fold(0u64, |acc, &l| acc.saturating_add(self.links[l].spec.latency_ps()))
    }

    /// Uncontended whole-path transfer time: the path latency plus
    /// serialization at the narrowest hop — the nominal the contention
    /// metric compares achieved transfers against.
    pub fn nominal_ps(&self, path: &[usize], bytes: u64) -> llmss_sched::TimePs {
        #[expect(
            clippy::expect_used,
            reason = "routes are validated non-empty at construction"
        )]
        let narrowest = path
            .iter()
            .map(|&l| &self.links[l].spec)
            .min_by(|a, b| a.bw_gbps.total_cmp(&b.bw_gbps))
            .expect("paths are non-empty");
        self.path_latency_ps(path).saturating_add(narrowest.serialize_ps(bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(gbps: f64) -> LinkSpec {
        LinkSpec::new(gbps, 100.0)
    }

    #[test]
    fn topology_spellings_round_trip() {
        for s in ["single", "star", "star4", "clique8", "hier2x2", "hier3"] {
            let t: FabricTopology = s.parse().unwrap();
            assert_eq!(t.spelling(), if s == "hier3" { "hier3".to_owned() } else { s.into() });
        }
        assert!("ring4".parse::<FabricTopology>().is_err());
        assert!("starx".parse::<FabricTopology>().is_err());
        assert!("hier0x2".parse::<FabricTopology>().is_err());
    }

    #[test]
    fn single_routes_everything_over_one_link() {
        let g = FabricGraph::single(4, l(1.0));
        assert_eq!(g.links().len(), 1);
        assert_eq!(g.path(0, 3), vec![0]);
        assert_eq!(g.path(2, 1), vec![0]);
    }

    #[test]
    fn star_crosses_both_access_links_and_the_trunk() {
        let g = FabricGraph::star(4, l(2.0), l(1.0));
        assert_eq!(g.links().len(), 5);
        assert_eq!(g.path(0, 3), vec![0, 4, 3]);
        assert_eq!(g.path(3, 0), vec![3, 4, 0]);
        assert_eq!(g.links()[4].name, "trunk");
    }

    #[test]
    fn clique_pairs_get_dedicated_links() {
        let g = FabricGraph::clique(4, l(1.0));
        assert_eq!(g.links().len(), 6);
        // Both directions share the unordered pair's link; every pair
        // distinct.
        let mut seen = std::collections::BTreeSet::new();
        for a in 0..4 {
            for b in 0..4 {
                if a == b {
                    continue;
                }
                let p = g.path(a, b);
                assert_eq!(p.len(), 1);
                assert_eq!(p, g.path(b, a));
                seen.insert(p[0]);
            }
        }
        assert_eq!(seen.len(), 6);
    }

    #[test]
    fn hier_splits_local_and_uplink_traffic() {
        let g = FabricGraph::hier(2, 2, l(4.0), l(1.0));
        assert_eq!(g.links().len(), 4);
        assert_eq!(g.path(0, 1), vec![0], "intra-pod stays on the pod link");
        assert_eq!(g.path(0, 2), vec![2, 3], "inter-pod crosses both uplinks");
        assert_eq!(g.links()[2].name, "up0");
    }

    #[test]
    fn build_validates_pinned_sizes() {
        let t: FabricTopology = "star4".parse().unwrap();
        assert!(FabricGraph::build(&t, 3, l(1.0), l(1.0)).is_err());
        assert!(FabricGraph::build(&t, 4, l(1.0), l(1.0)).is_ok());
        let t: FabricTopology = "hier2".parse().unwrap();
        assert!(FabricGraph::build(&t, 5, l(1.0), l(1.0)).is_err(), "5 into 2 pods");
        assert_eq!(FabricGraph::build(&t, 4, l(1.0), l(1.0)).unwrap().endpoints(), 4);
    }

    #[test]
    fn explicit_routes_reverse_by_default_and_validate() {
        let links = vec![NamedLink::new("a", l(1.0)), NamedLink::new("b", l(1.0))];
        let routes = vec![RouteSpec { from: 0, to: 1, path: vec!["a".into(), "b".into()] }];
        let g = FabricGraph::explicit(2, links.clone(), &routes).unwrap();
        assert_eq!(g.path(0, 1), vec![0, 1]);
        assert_eq!(g.path(1, 0), vec![1, 0], "reverse path is reversed");
        // Unknown link names and duplicate routes fail loudly.
        let bad = vec![RouteSpec { from: 0, to: 1, path: vec!["c".into()] }];
        assert!(FabricGraph::explicit(2, links.clone(), &bad).is_err());
        let dup = vec![routes[0].clone(), routes[0].clone()];
        assert!(FabricGraph::explicit(2, links, &dup).is_err());
    }

    #[test]
    fn nominal_uses_the_narrowest_hop() {
        let g = FabricGraph::star(2, l(2.0), l(1.0));
        let path = g.path(0, 1);
        // 1 MB at the 1-GB/s trunk = 1 ms, plus 3 hops x 100 ns.
        assert_eq!(g.nominal_ps(&path, 1_000_000), 300_000 + 1_000_000_000);
    }

    #[test]
    #[should_panic(expected = "no link for the self-pair")]
    fn clique_self_pair_fails_loudly() {
        let g = FabricGraph::clique(2, l(1.0));
        let _ = g.path(1, 1);
    }
}
