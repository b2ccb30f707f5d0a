//! System topologies: accelerator nodes, links, groups, and the host.
//!
//! Mirrors the paper's Figure 3 / Figure 5 configurations: accelerator
//! groups for tensor/pipeline/hybrid parallelism, and one- or two-pool
//! heterogeneous layouts where an NPU pool and a PIM pool are joined by a
//! high-bandwidth (CXL-class) interconnect. The host connects over a
//! PCIe-class link used for KV-cache eviction and reload.

use serde::{Deserialize, Serialize};

use crate::TimePs;

/// Index of an accelerator node in a topology.
pub type NodeId = usize;

/// Index of a communication group (e.g. one tensor-parallel group).
pub type GroupId = usize;

/// Point-to-point link characteristics.
///
/// The paper's inter-device link (Table I) is PCIe 4.0 x16: 64 GB/s at
/// 100 ns latency.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkSpec {
    /// Bandwidth in GB/s.
    pub bw_gbps: f64,
    /// Propagation + protocol latency in nanoseconds.
    pub latency_ns: f64,
}

impl LinkSpec {
    /// Creates a link from bandwidth (GB/s) and latency (ns).
    ///
    /// # Panics
    ///
    /// Panics if bandwidth is not strictly positive or latency is negative.
    pub fn new(bw_gbps: f64, latency_ns: f64) -> Self {
        assert!(bw_gbps > 0.0, "link bandwidth must be positive");
        assert!(latency_ns >= 0.0, "link latency cannot be negative");
        Self { bw_gbps, latency_ns }
    }

    /// The paper's Table-I inter-device link (PCIe 4.0 x16).
    pub fn pcie4_x16() -> Self {
        Self::new(64.0, 100.0)
    }

    /// A CXL-class pool interconnect (used between NPU and PIM pools).
    pub fn cxl() -> Self {
        Self::new(128.0, 150.0)
    }

    /// Host link for KV eviction/reload (PCIe-class).
    pub fn host_pcie() -> Self {
        Self::new(32.0, 250.0)
    }

    /// Serialization time for `bytes` over this link, excluding latency.
    ///
    /// Saturates at [`TimePs::MAX`] instead of wrapping: a multi-exabyte
    /// transfer over a slow link overflows the picosecond clock, and the
    /// `f64 → u64` cast alone already clamps (Rust saturating casts), so
    /// the whole pipeline is monotone in `bytes`.
    pub fn serialize_ps(&self, bytes: u64) -> TimePs {
        // `bytes as f64` loses precision above 2^53 bytes, but the
        // relative error (< 2^-52) is far below the 1-ps ceil granularity
        // relative to transfers that large; the cast saturates at
        // `TimePs::MAX` for results beyond the clock range (and maps a
        // hypothetical NaN to 0, which `bw_gbps > 0` already rules out).
        (bytes as f64 / self.bw_gbps / 1e9 * 1e12).ceil() as TimePs
    }

    /// The link's latency alone, in picoseconds.
    pub fn latency_ps(&self) -> TimePs {
        (self.latency_ns * 1e3).round() as TimePs
    }

    /// Full transfer time: latency plus serialization, saturating at
    /// [`TimePs::MAX`] (a near-edge serialization time plus latency must
    /// not wrap back to a tiny transfer).
    pub fn transfer_ps(&self, bytes: u64) -> TimePs {
        self.latency_ps().saturating_add(self.serialize_ps(bytes))
    }
}

/// The class of a node, for heterogeneous topologies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeClass {
    /// Compute-centric accelerator (NPU or GPU-like).
    Npu,
    /// Processing-in-memory device.
    Pim,
}

/// A system topology: nodes, their classes, groups, and link specs.
///
/// # Examples
///
/// ```
/// use llmss_net::{Topology, LinkSpec};
///
/// // 16 NPUs in 4 tensor-parallel groups of 4 (the paper's Figure 3).
/// let topo = Topology::grouped_npus(16, 4, LinkSpec::pcie4_x16());
/// assert_eq!(topo.n_nodes(), 16);
/// assert_eq!(topo.groups().len(), 4);
/// assert_eq!(topo.group_of(5), Some(1));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Topology {
    classes: Vec<NodeClass>,
    groups: Vec<Vec<NodeId>>,
    /// Link between nodes of the same group.
    intra_link: LinkSpec,
    /// Link between nodes of different groups (or pools).
    inter_link: LinkSpec,
    /// Link from any node to the host.
    host_link: LinkSpec,
}

impl Topology {
    /// A homogeneous NPU system with `n_nodes` split into `n_groups`
    /// equal groups (tensor-parallel groups; groups chain for pipeline
    /// parallelism).
    ///
    /// # Panics
    ///
    /// Panics if `n_nodes` is zero or not divisible by `n_groups`.
    pub fn grouped_npus(n_nodes: usize, n_groups: usize, link: LinkSpec) -> Self {
        assert!(n_nodes > 0, "topology needs at least one node");
        assert!(
            n_groups > 0 && n_nodes.is_multiple_of(n_groups),
            "groups must evenly divide nodes ({n_nodes} into {n_groups})"
        );
        let per = n_nodes / n_groups;
        let groups = (0..n_groups).map(|g| (g * per..(g + 1) * per).collect()).collect();
        Self {
            classes: vec![NodeClass::Npu; n_nodes],
            groups,
            intra_link: link,
            inter_link: link,
            host_link: LinkSpec::host_pcie(),
        }
    }

    /// A single fully-connected group of `n_nodes` NPUs.
    pub fn flat_npus(n_nodes: usize, link: LinkSpec) -> Self {
        Self::grouped_npus(n_nodes, 1, link)
    }

    /// A heterogeneous system of NPU+PIM *devices*: each of the `n_devices`
    /// nodes contains both an NPU and a directly-attached PIM
    /// (paper Figure 5a). At the system level each device is one node.
    pub fn npu_pim_local(n_devices: usize, n_groups: usize, link: LinkSpec) -> Self {
        // System-level indistinguishable from grouped NPUs: the NPU+PIM
        // split happens inside the execution engine.
        Self::grouped_npus(n_devices, n_groups, link)
    }

    /// A heterogeneous two-pool system: `n_npus` compute nodes and
    /// `n_pims` PIM nodes joined by a CXL-class interconnect
    /// (paper Figure 5b). NPU groups are built as in [`grouped_npus`];
    /// all PIM nodes form one additional pool group.
    ///
    /// # Panics
    ///
    /// Panics if any pool is empty or `n_groups` does not divide `n_npus`.
    ///
    /// [`grouped_npus`]: Self::grouped_npus
    pub fn npu_pim_pools(
        n_npus: usize,
        n_pims: usize,
        n_groups: usize,
        npu_link: LinkSpec,
        pool_link: LinkSpec,
    ) -> Self {
        assert!(n_npus > 0 && n_pims > 0, "both pools must be non-empty");
        assert!(
            n_groups > 0 && n_npus.is_multiple_of(n_groups),
            "groups must evenly divide NPU nodes"
        );
        let per = n_npus / n_groups;
        let mut groups: Vec<Vec<NodeId>> =
            (0..n_groups).map(|g| (g * per..(g + 1) * per).collect()).collect();
        groups.push((n_npus..n_npus + n_pims).collect());
        let mut classes = vec![NodeClass::Npu; n_npus];
        classes.extend(vec![NodeClass::Pim; n_pims]);
        Self {
            classes,
            groups,
            intra_link: npu_link,
            inter_link: pool_link,
            host_link: LinkSpec::host_pcie(),
        }
    }

    /// Number of accelerator nodes.
    pub fn n_nodes(&self) -> usize {
        self.classes.len()
    }

    /// All nodes of a given class.
    pub fn nodes_of_class(&self, class: NodeClass) -> Vec<NodeId> {
        (0..self.n_nodes()).filter(|&n| self.classes[n] == class).collect()
    }

    /// The communication groups.
    pub fn groups(&self) -> &[Vec<NodeId>] {
        &self.groups
    }

    /// The group a node belongs to, if any.
    pub fn group_of(&self, node: NodeId) -> Option<GroupId> {
        self.groups.iter().position(|g| g.contains(&node))
    }

    /// Link spec between two nodes (intra-group vs inter-group).
    pub fn link_between(&self, a: NodeId, b: NodeId) -> LinkSpec {
        match (self.group_of(a), self.group_of(b)) {
            (Some(ga), Some(gb)) if ga == gb => self.intra_link,
            _ => self.inter_link,
        }
    }

    /// Link spec used within a given group.
    pub fn group_link(&self, _group: GroupId) -> LinkSpec {
        self.intra_link
    }

    /// Link spec to the host.
    pub fn host_link(&self) -> LinkSpec {
        self.host_link
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_includes_latency_and_serialization() {
        let l = LinkSpec::pcie4_x16();
        // 64 GB at 64 GB/s = 1 s = 1e12 ps, plus 100 ns.
        let t = l.transfer_ps(64_000_000_000);
        assert_eq!(t, 100_000 + 1_000_000_000_000);
    }

    #[test]
    fn zero_bytes_costs_latency_only() {
        let l = LinkSpec::new(100.0, 500.0);
        assert_eq!(l.transfer_ps(0), 500_000);
    }

    #[test]
    fn u64_edge_byte_counts_saturate_instead_of_wrapping() {
        // u64::MAX bytes over a 1-MB/s-class link: ~5.8e32 ps, far past
        // the clock range. The transfer must pin to TimePs::MAX, not wrap.
        let slow = LinkSpec::new(0.001, 100.0);
        assert_eq!(slow.serialize_ps(u64::MAX), TimePs::MAX);
        assert_eq!(slow.transfer_ps(u64::MAX), TimePs::MAX);
        // A saturated serialization plus a nonzero latency must stay
        // saturated (the old `+` would panic or wrap here).
        let fast = LinkSpec::new(1e9, 1e9);
        assert!(fast.transfer_ps(u64::MAX) >= fast.serialize_ps(u64::MAX));
        // Monotonicity across the edge: more bytes never means less time.
        let l = LinkSpec::pcie4_x16();
        let mut last = 0;
        for bytes in [0, 1, 1 << 20, 1 << 40, 1 << 62, u64::MAX - 1, u64::MAX] {
            let t = l.transfer_ps(bytes);
            assert!(t >= last, "transfer_ps not monotone at {bytes}");
            last = t;
        }
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        let _ = LinkSpec::new(0.0, 1.0);
    }

    #[test]
    fn grouped_topology_partitions_nodes() {
        let t = Topology::grouped_npus(16, 4, LinkSpec::pcie4_x16());
        assert_eq!(t.groups().len(), 4);
        for g in 0..4 {
            assert_eq!(t.groups()[g], ((g * 4)..(g * 4 + 4)).collect::<Vec<_>>());
        }
        assert_eq!(t.group_of(0), Some(0));
        assert_eq!(t.group_of(15), Some(3));
    }

    #[test]
    #[should_panic(expected = "evenly divide")]
    fn uneven_groups_rejected() {
        let _ = Topology::grouped_npus(10, 3, LinkSpec::pcie4_x16());
    }

    #[test]
    fn two_pool_topology_classes() {
        let t = Topology::npu_pim_pools(8, 4, 2, LinkSpec::pcie4_x16(), LinkSpec::cxl());
        assert_eq!(t.n_nodes(), 12);
        assert_eq!(t.nodes_of_class(NodeClass::Npu).len(), 8);
        assert_eq!(t.nodes_of_class(NodeClass::Pim), vec![8, 9, 10, 11]);
        // PIM pool is the last group.
        assert_eq!(t.groups().len(), 3);
        // Cross-pool links use the pool interconnect.
        assert_eq!(t.link_between(0, 8), LinkSpec::cxl());
        assert_eq!(t.link_between(0, 1), LinkSpec::pcie4_x16());
    }

    #[test]
    fn local_pim_topology_is_system_level_homogeneous() {
        let a = Topology::npu_pim_local(8, 2, LinkSpec::pcie4_x16());
        let b = Topology::grouped_npus(8, 2, LinkSpec::pcie4_x16());
        assert_eq!(a, b);
    }
}
