//! Node identity and the pluggable interconnect topologies.
//!
//! MANNA connects nodes through 16×16 crossbars arranged hierarchically:
//! up to 16 nodes share one first-level crossbar; clusters are joined by a
//! second-level stage. For message timing the relevant consequence is the
//! *hop count*: 1 crossbar traversal inside a cluster, 3 (up, across, down)
//! between clusters. Local "messages" (src == dst) never touch the network.
//!
//! Scaling past the paper's 20 nodes means modeling other interconnects:
//! the [`Topology`] trait abstracts what the network model needs from one —
//! a hop count and a per-stage contention factor for each (src, dst) pair —
//! with four implementations ([`HierCrossbar`], [`Hypercube`], [`Torus`],
//! [`FatTree`]) selected through [`TopologyKind`] on the machine config.
//! The hierarchical crossbar remains the default and is byte-identical to
//! the pre-trait hardcoded model.

use std::fmt;

/// Identifies one machine node (0-based). The paper's experiments use up
/// to 20 nodes; the scaling sweeps go to 1024.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct NodeId(pub u16);

impl NodeId {
    /// Index into per-node arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Crossbar hops between two nodes for a given first-level cluster size.
///
/// * same node → 0 (local, free);
/// * same cluster → 1 (one crossbar);
/// * different clusters → 3 (cluster crossbar up, top-level stage,
///   cluster crossbar down).
pub fn hops(src: NodeId, dst: NodeId, cluster_size: u16) -> u32 {
    assert!(cluster_size > 0, "cluster size must be positive");
    if src == dst {
        0
    } else if src.0 / cluster_size == dst.0 / cluster_size {
        1
    } else {
        3
    }
}

/// An interconnect, as the network timing model sees it: each (src, dst)
/// pair has a *hop count* (switching stages a message traverses; 0 means
/// node-local and free) and a *contention factor* (expected queueing
/// multiplier per stage — 1 for conflict-free fabrics like a non-blocking
/// crossbar, larger where stages are shared between routes). A message's
/// flight time charges `hop_latency × hops × contention` on top of the
/// fixed wire latency.
pub trait Topology {
    /// Number of nodes the topology spans.
    fn nodes(&self) -> u16;
    /// Switching stages crossed from `src` to `dst` (0 when `src == dst`).
    fn hops(&self, src: NodeId, dst: NodeId) -> u32;
    /// Expected per-stage queueing multiplier for the route (≥ 1).
    fn contention(&self, src: NodeId, dst: NodeId) -> u32;
}

/// MANNA's hierarchical crossbar: clusters of `cluster_size` nodes on
/// non-blocking 16×16 crossbars, joined by a second-level stage. The
/// default topology, byte-identical to the original hardcoded model:
/// hops are 0/1/3 and every stage is conflict-free (contention 1).
#[derive(Clone, Copy, Debug)]
pub struct HierCrossbar {
    /// Nodes spanned.
    pub nodes: u16,
    /// Nodes per first-level crossbar.
    pub cluster_size: u16,
}

impl Topology for HierCrossbar {
    fn nodes(&self) -> u16 {
        self.nodes
    }
    fn hops(&self, src: NodeId, dst: NodeId) -> u32 {
        hops(src, dst, self.cluster_size)
    }
    fn contention(&self, _src: NodeId, _dst: NodeId) -> u32 {
        1
    }
}

/// Binary hypercube: node i and j are adjacent iff their indices differ
/// in exactly one bit, so the hop count is the Hamming distance. Node
/// counts that are not powers of two embed as an *incomplete* hypercube
/// (the occupied corners of the next power-of-two cube) — distances are
/// unchanged, some links simply have a missing endpoint. Every link is
/// dedicated to one dimension pair, so stages are conflict-free
/// (contention 1). This is the RTNN transputer machine's interconnect
/// (a 4^4 hypercube of 256 nodes).
#[derive(Clone, Copy, Debug)]
pub struct Hypercube {
    /// Nodes spanned.
    pub nodes: u16,
}

impl Topology for Hypercube {
    fn nodes(&self) -> u16 {
        self.nodes
    }
    fn hops(&self, src: NodeId, dst: NodeId) -> u32 {
        (src.0 ^ dst.0).count_ones()
    }
    fn contention(&self, _src: NodeId, _dst: NodeId) -> u32 {
        1
    }
}

/// k-ary 3D torus: nodes at the points of a wrapped grid, one
/// bidirectional ring per row/column/pillar. Hops are the wraparound
/// Manhattan distance under dimension-ordered routing. Ring links are
/// shared by every route through their row, so each dimension the route
/// actually traverses contributes one shared-stage unit of contention.
#[derive(Clone, Copy, Debug)]
pub struct Torus {
    /// Nodes spanned (`dims[0] * dims[1] * dims[2]`).
    pub nodes: u16,
    /// Grid extents (x, y, z).
    pub dims: [u16; 3],
}

impl Torus {
    /// A 3D torus over the most-cubic factorization of `nodes`
    /// (e.g. 64 → 4×4×4, 1024 → 16×8×8).
    pub fn three_d(nodes: u16) -> Self {
        let c = largest_divisor_at_most(nodes, icbrt(nodes));
        let (a, b) = squarest_factors(nodes / c);
        Torus {
            nodes,
            dims: [a, b, c],
        }
    }

    fn coords(&self, i: u16) -> [u16; 3] {
        let [dx, dy, _] = self.dims;
        [i % dx, (i / dx) % dy, i / (dx * dy)]
    }
}

/// Shortest wraparound distance between two points on a `len`-ring.
fn ring_dist(a: u16, b: u16, len: u16) -> u32 {
    let d = (a.abs_diff(b)) as u32;
    d.min(len as u32 - d)
}

impl Topology for Torus {
    fn nodes(&self) -> u16 {
        self.nodes
    }
    fn hops(&self, src: NodeId, dst: NodeId) -> u32 {
        let (a, b) = (self.coords(src.0), self.coords(dst.0));
        (0..3).map(|k| ring_dist(a[k], b[k], self.dims[k])).sum()
    }
    fn contention(&self, src: NodeId, dst: NodeId) -> u32 {
        let (a, b) = (self.coords(src.0), self.coords(dst.0));
        let crossed = (0..3)
            .filter(|&k| ring_dist(a[k], b[k], self.dims[k]) > 0)
            .count() as u32;
        crossed.max(1)
    }
}

/// A conventional oversubscribed cluster fat tree: leaves in pods of
/// [`FatTree::ARITY`], switches at level `l` spanning `ARITY^l` leaves.
/// A route climbs to the lowest common ancestor and back down, so hops
/// are `2 × lca_level`. Leaf switches have full bisection bandwidth;
/// every level above them is oversubscribed by [`FatTree::OVERSUB`], so
/// routes through level `l` see `OVERSUB^(l-1)` expected queueing per
/// stage.
#[derive(Clone, Copy, Debug)]
pub struct FatTree {
    /// Nodes spanned (leaves).
    pub nodes: u16,
}

impl FatTree {
    /// Leaves per leaf switch (8-port leaf switches), and the branching
    /// factor above.
    pub const ARITY: u16 = 8;
    /// Bandwidth taper per level above the leaf switches (2:1).
    pub const OVERSUB: u32 = 2;

    /// Level of the lowest common ancestor switch (1 = same leaf switch).
    fn lca_level(&self, src: NodeId, dst: NodeId) -> u32 {
        let (mut a, mut b) = (src.0 / Self::ARITY, dst.0 / Self::ARITY);
        let mut level = 1;
        while a != b {
            a /= Self::ARITY;
            b /= Self::ARITY;
            level += 1;
        }
        level
    }
}

impl Topology for FatTree {
    fn nodes(&self) -> u16 {
        self.nodes
    }
    fn hops(&self, src: NodeId, dst: NodeId) -> u32 {
        if src == dst {
            0
        } else {
            2 * self.lca_level(src, dst)
        }
    }
    fn contention(&self, src: NodeId, dst: NodeId) -> u32 {
        if src == dst {
            1
        } else {
            Self::OVERSUB.pow(self.lca_level(src, dst) - 1)
        }
    }
}

/// Which interconnect a [`MachineConfig`](crate::MachineConfig) selects.
/// Parameters that depend on the machine size (torus extents, hypercube
/// dimension) are derived from `cfg.nodes` when the topology is built, so
/// the kind itself stays a small copyable tag.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TopologyKind {
    /// MANNA's hierarchical crossbar (uses `cfg.cluster_size`). The
    /// default; provably free — byte-identical to the pre-trait model.
    #[default]
    Crossbar,
    /// Binary hypercube (Hamming-distance hops).
    Hypercube,
    /// 3D torus over the most-cubic factorization of the node count.
    Torus3D,
    /// Fat tree with 8-port leaf switches and a 2:1 taper per level.
    FatTree,
}

impl TopologyKind {
    /// Stable label for reports and sweep JSON.
    pub fn label(&self) -> &'static str {
        match self {
            TopologyKind::Crossbar => "crossbar",
            TopologyKind::Hypercube => "hypercube",
            TopologyKind::Torus3D => "torus3d",
            TopologyKind::FatTree => "fattree",
        }
    }

    /// Materialize the topology for a machine of `nodes` nodes.
    /// `cluster_size` parameterizes the crossbar only.
    pub fn build(&self, nodes: u16, cluster_size: u16) -> AnyTopology {
        assert!(nodes > 0, "topology needs at least one node");
        match *self {
            TopologyKind::Crossbar => AnyTopology::Crossbar(HierCrossbar {
                nodes,
                cluster_size,
            }),
            TopologyKind::Hypercube => AnyTopology::Hypercube(Hypercube { nodes }),
            TopologyKind::Torus3D => AnyTopology::Torus(Torus::three_d(nodes)),
            TopologyKind::FatTree => AnyTopology::FatTree(FatTree { nodes }),
        }
    }
}

/// The four topology implementations behind one statically-dispatched
/// value, so [`Network`](crate::Network) carries a concrete field instead
/// of a boxed trait object.
#[derive(Clone, Copy, Debug)]
pub enum AnyTopology {
    /// Hierarchical crossbar.
    Crossbar(HierCrossbar),
    /// Binary hypercube.
    Hypercube(Hypercube),
    /// 3D torus.
    Torus(Torus),
    /// Fat tree.
    FatTree(FatTree),
}

impl Topology for AnyTopology {
    fn nodes(&self) -> u16 {
        match self {
            AnyTopology::Crossbar(t) => t.nodes(),
            AnyTopology::Hypercube(t) => t.nodes(),
            AnyTopology::Torus(t) => t.nodes(),
            AnyTopology::FatTree(t) => t.nodes(),
        }
    }
    fn hops(&self, src: NodeId, dst: NodeId) -> u32 {
        match self {
            AnyTopology::Crossbar(t) => t.hops(src, dst),
            AnyTopology::Hypercube(t) => t.hops(src, dst),
            AnyTopology::Torus(t) => t.hops(src, dst),
            AnyTopology::FatTree(t) => t.hops(src, dst),
        }
    }
    fn contention(&self, src: NodeId, dst: NodeId) -> u32 {
        match self {
            AnyTopology::Crossbar(t) => t.contention(src, dst),
            AnyTopology::Hypercube(t) => t.contention(src, dst),
            AnyTopology::Torus(t) => t.contention(src, dst),
            AnyTopology::FatTree(t) => t.contention(src, dst),
        }
    }
}

/// Largest divisor of `n` that is ≤ `cap` (≥ 1 since 1 always divides).
fn largest_divisor_at_most(n: u16, cap: u16) -> u16 {
    (1..=cap.min(n))
        .rev()
        .find(|&d| n.is_multiple_of(d))
        .unwrap_or(1)
}

/// Integer square root (floor).
fn isqrt(n: u16) -> u16 {
    let mut r = (n as f64).sqrt() as u16;
    while (r as u32 + 1) * (r as u32 + 1) <= n as u32 {
        r += 1;
    }
    while r as u32 * r as u32 > n as u32 {
        r -= 1;
    }
    r
}

/// Integer cube root (floor).
fn icbrt(n: u16) -> u16 {
    let mut r = (n as f64).cbrt() as u16;
    while (r as u64 + 1).pow(3) <= n as u64 {
        r += 1;
    }
    while (r as u64).pow(3) > n as u64 {
        r -= 1;
    }
    r.max(1)
}

/// The factor pair (a, b) of `n` with a ≥ b and b as large as possible —
/// the most-square 2D grid over `n` points.
fn squarest_factors(n: u16) -> (u16, u16) {
    let b = largest_divisor_at_most(n, isqrt(n));
    (n / b, b)
}

/// Children of `node` in the binomial-ish binary broadcast tree rooted at
/// `root` over `n` nodes. Used by the neural-network application's
/// tree-organized communication (the paper cites Cordsen et al. for
/// this optimization) and by the message-passing broadcast.
///
/// Nodes are relabeled so the root is rank 0; rank r's children are
/// 2r+1 and 2r+2. The rank arithmetic runs in u32: `node.0 + n - root.0`
/// and `2 * rank + 2` both overflow u16 once n approaches the 64Ki node
/// ceiling.
pub fn broadcast_children(root: NodeId, node: NodeId, n: u16) -> Vec<NodeId> {
    assert!(n > 0);
    let n32 = n as u32;
    let rank = (node.0 as u32 + n32 - root.0 as u32) % n32;
    let mut out = Vec::with_capacity(2);
    for child_rank in [2 * rank + 1, 2 * rank + 2] {
        if child_rank < n32 {
            out.push(NodeId(((child_rank + root.0 as u32) % n32) as u16));
        }
    }
    out
}

/// Parent of `node` in the same broadcast tree, or `None` for the root.
/// Rank arithmetic in u32 for the same overflow reason as
/// [`broadcast_children`].
pub fn broadcast_parent(root: NodeId, node: NodeId, n: u16) -> Option<NodeId> {
    let n32 = n as u32;
    let rank = (node.0 as u32 + n32 - root.0 as u32) % n32;
    if rank == 0 {
        None
    } else {
        let parent_rank = (rank - 1) / 2;
        Some(NodeId(((parent_rank + root.0 as u32) % n32) as u16))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hop_counts() {
        let a = NodeId(0);
        let b = NodeId(5);
        let c = NodeId(17);
        assert_eq!(hops(a, a, 16), 0);
        assert_eq!(hops(a, b, 16), 1);
        assert_eq!(hops(a, c, 16), 3);
        assert_eq!(hops(c, a, 16), 3);
        // with tiny clusters everything is remote
        assert_eq!(hops(a, b, 1), 3);
    }

    #[test]
    fn crossbar_topology_matches_legacy_hops() {
        let t = TopologyKind::Crossbar.build(40, 16);
        for s in 0..40u16 {
            for d in 0..40u16 {
                assert_eq!(t.hops(NodeId(s), NodeId(d)), hops(NodeId(s), NodeId(d), 16));
                assert_eq!(t.contention(NodeId(s), NodeId(d)), 1);
            }
        }
    }

    #[test]
    fn hypercube_hops_are_hamming_distance() {
        let t = TopologyKind::Hypercube.build(16, 16);
        assert_eq!(t.hops(NodeId(0), NodeId(0)), 0);
        assert_eq!(t.hops(NodeId(0), NodeId(1)), 1);
        assert_eq!(t.hops(NodeId(0), NodeId(15)), 4);
        assert_eq!(t.hops(NodeId(5), NodeId(10)), 4); // 0101 vs 1010
        assert_eq!(t.contention(NodeId(0), NodeId(15)), 1);
    }

    #[test]
    fn torus_factorizations_are_most_square() {
        assert_eq!(Torus::three_d(64).dims, [4, 4, 4]);
        assert_eq!(Torus::three_d(20).dims, [5, 2, 2]);
        assert_eq!(Torus::three_d(7).dims, [7, 1, 1]); // prime → ring
        let d = Torus::three_d(1024).dims;
        assert_eq!(d[0] as u32 * d[1] as u32 * d[2] as u32, 1024);
        assert!(d.iter().all(|&x| x >= 8), "near-cubic split, got {d:?}");
    }

    #[test]
    fn torus_hops_wrap_around() {
        // 4×4×4 3D torus: node i sits at (i % 4, i / 4 % 4, i / 16).
        let t = TopologyKind::Torus3D.build(64, 16);
        // 0 and 3 are one wraparound step apart in x, 12 in y, 48 in z.
        assert_eq!(t.hops(NodeId(0), NodeId(3)), 1);
        assert_eq!(t.hops(NodeId(0), NodeId(12)), 1);
        assert_eq!(t.hops(NodeId(0), NodeId(48)), 1);
        assert_eq!(t.hops(NodeId(0), NodeId(2)), 2);
        // corner to center of a plane: 2 in x + 2 in y
        assert_eq!(t.hops(NodeId(0), NodeId(10)), 4);
        // corner to center of the cube: 2 in each dimension
        assert_eq!(t.hops(NodeId(0), NodeId(42)), 6);
        assert_eq!(t.contention(NodeId(0), NodeId(3)), 1, "one ring crossed");
        assert_eq!(t.contention(NodeId(0), NodeId(10)), 2, "two rings crossed");
        assert_eq!(
            t.contention(NodeId(0), NodeId(63)),
            3,
            "three rings crossed"
        );
    }

    #[test]
    fn fat_tree_hops_and_oversubscription() {
        // Arity 8 over 512 nodes: leaf switches span 8, level 2 spans
        // 64, level 3 the whole machine.
        let t = TopologyKind::FatTree.build(512, 16);
        assert_eq!(t.hops(NodeId(0), NodeId(0)), 0);
        // same leaf switch: up one, down one
        assert_eq!(t.hops(NodeId(0), NodeId(7)), 2);
        assert_eq!(t.contention(NodeId(0), NodeId(7)), 1);
        // adjacent pods: LCA at level 2
        assert_eq!(t.hops(NodeId(0), NodeId(8)), 4);
        assert_eq!(t.contention(NodeId(0), NodeId(8)), 2);
        assert_eq!(t.hops(NodeId(0), NodeId(63)), 4);
        // across the whole machine: LCA at level 3
        assert_eq!(t.hops(NodeId(0), NodeId(64)), 6);
        assert_eq!(t.contention(NodeId(0), NodeId(64)), 4);
        assert_eq!(t.hops(NodeId(0), NodeId(511)), 6);
        assert_eq!(t.contention(NodeId(0), NodeId(511)), 4);
    }

    #[test]
    fn tree_covers_all_nodes_exactly_once() {
        for n in 1u16..=24 {
            for root in [0u16, 3 % n] {
                let root = NodeId(root);
                let mut seen = vec![false; n as usize];
                seen[root.index()] = true;
                let mut frontier = vec![root];
                while let Some(x) = frontier.pop() {
                    for ch in broadcast_children(root, x, n) {
                        assert!(!seen[ch.index()], "node visited twice (n={n})");
                        seen[ch.index()] = true;
                        frontier.push(ch);
                    }
                }
                assert!(seen.iter().all(|&s| s), "tree misses nodes (n={n})");
            }
        }
    }

    #[test]
    fn parent_inverts_children() {
        let n = 20;
        let root = NodeId(2);
        for i in 0..n {
            let node = NodeId(i);
            for ch in broadcast_children(root, node, n) {
                assert_eq!(broadcast_parent(root, ch, n), Some(node));
            }
        }
        assert_eq!(broadcast_parent(root, root, n), None);
    }

    /// Depth of the last rank in the binary-heap layout is ⌊log2(n)⌋ —
    /// parametric in n, not pinned to the paper's 20 nodes.
    #[test]
    fn tree_depth_is_logarithmic() {
        for n in [2u16, 3, 20, 64, 255, 256, 1024, 4096, u16::MAX] {
            let root = NodeId(0);
            let mut depth = 0u32;
            let mut cur = NodeId(n - 1);
            while let Some(p) = broadcast_parent(root, cur, n) {
                cur = p;
                depth += 1;
            }
            assert_eq!(depth, (n as u32).ilog2(), "wrong depth for n={n}");
        }
    }

    /// Regression for the u16 rank-arithmetic overflow: near the 64Ki
    /// node ceiling both `node.0 + n - root.0` and `2 * rank + 2`
    /// exceeded u16 and panicked (debug) or wrapped (release).
    #[test]
    fn broadcast_arithmetic_survives_u16_boundary() {
        let n = u16::MAX;
        let root = NodeId(1);
        // node.0 + n - root.0 = 65534 + 65535 - 1: overflows u16.
        let node = NodeId(65_534);
        assert_eq!(broadcast_parent(root, node, n), Some(NodeId(32_767)));
        assert!(broadcast_children(root, node, n).is_empty(), "leaf rank");
        // A mid-tree rank whose children ranks overflow 2*rank+2 in u16:
        // rank 32767 → children 65535 (>= n, dropped) and 65536 (u16::MAX+1).
        let mid = NodeId(32_768); // rank 32767 under root 1
        let kids = broadcast_children(root, mid, n);
        assert!(kids.is_empty(), "children ranks exceed n-1, got {kids:?}");
        // Parent/children stay inverse near the boundary.
        let deep = NodeId(40_000);
        for ch in broadcast_children(root, deep, n) {
            assert_eq!(broadcast_parent(root, ch, n), Some(deep));
        }
        // Root detection still works with a nonzero root at full width.
        assert_eq!(broadcast_parent(root, root, n), None);
    }
}
