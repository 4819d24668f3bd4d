//! Property suite for the interconnect topologies: metric-like sanity
//! (zero self-distance, symmetry, a relaxed triangle inequality through
//! any relay), contention bounds, and crossbar/legacy agreement — all
//! under generated machine shapes, for all four topology kinds.

use earth_machine::{topology, FatTree, NodeId, Topology, TopologyKind};
use earth_testkit::prelude::*;

/// The four kinds under test.
const KINDS: [TopologyKind; 4] = [
    TopologyKind::Crossbar,
    TopologyKind::Hypercube,
    TopologyKind::Torus3D,
    TopologyKind::FatTree,
];

props! {
    #![config(Config::with_cases(60))]

    #[test]
    fn hops_form_a_symmetric_premetric(
        nodes in 1u16..260,
        cluster in 1u16..33,
        pairs in collection::vec((any::<u16>(), any::<u16>()), 1..40),
    ) {
        for kind in KINDS {
            let t = kind.build(nodes, cluster);
            prop_assert_eq!(t.nodes(), nodes);
            for &(a, b) in &pairs {
                let (a, b) = (NodeId(a % nodes), NodeId(b % nodes));
                // hops(a, a) == 0: local transfers never touch the fabric.
                prop_assert_eq!(t.hops(a, a), 0, "{:?}: self-distance", kind);
                // Symmetry: routes cost the same in both directions.
                prop_assert_eq!(
                    t.hops(a, b), t.hops(b, a),
                    "{:?}: asymmetric hops {}->{}", kind, a, b
                );
                prop_assert_eq!(
                    t.contention(a, b), t.contention(b, a),
                    "{:?}: asymmetric contention {}->{}", kind, a, b
                );
                // Distinct nodes are at least one switch apart.
                if a != b {
                    prop_assert!(t.hops(a, b) >= 1, "{:?}: free remote hop", kind);
                }
                // Contention is a multiplier, never below 1.
                prop_assert!(t.contention(a, b) >= 1, "{:?}: contention < 1", kind);
            }
        }
    }

    #[test]
    fn relaying_never_beats_the_direct_route_by_construction(
        nodes in 1u16..200,
        cluster in 1u16..33,
        triples in collection::vec((any::<u16>(), any::<u16>(), any::<u16>()), 1..30),
    ) {
        // Triangle-inequality-ish sanity: hops(a,c) <= hops(a,b) + hops(b,c)
        // for every relay b. Holds exactly for the graph metrics (hypercube,
        // torus) and for the hierarchy distances (crossbar, fat tree).
        for kind in KINDS {
            let t = kind.build(nodes, cluster);
            for &(a, b, c) in &triples {
                let (a, b, c) = (NodeId(a % nodes), NodeId(b % nodes), NodeId(c % nodes));
                prop_assert!(
                    t.hops(a, c) <= t.hops(a, b) + t.hops(b, c),
                    "{:?}: detour {}->{}->{} shorter than direct {}->{}",
                    kind, a, b, c, a, c
                );
            }
        }
    }

    #[test]
    fn crossbar_trait_agrees_with_legacy_hops_everywhere(
        nodes in 1u16..200,
        cluster in 1u16..33,
        pairs in collection::vec((any::<u16>(), any::<u16>()), 1..50),
    ) {
        // The default topology must be *provably* the pre-trait model:
        // identical hop counts and unit contention on every pair.
        let t = TopologyKind::Crossbar.build(nodes, cluster);
        for &(a, b) in &pairs {
            let (a, b) = (NodeId(a % nodes), NodeId(b % nodes));
            prop_assert_eq!(t.hops(a, b), topology::hops(a, b, cluster));
            prop_assert_eq!(t.contention(a, b), 1);
        }
    }

    #[test]
    fn hop_counts_stay_logarithmic_or_grid_bounded(
        nodes in 2u16..1025,
        pair in (any::<u16>(), any::<u16>()),
    ) {
        let (a, b) = (NodeId(pair.0 % nodes), NodeId(pair.1 % nodes));
        // Hypercube diameter is the address width.
        let hc = TopologyKind::Hypercube.build(nodes, 16);
        prop_assert!(hc.hops(a, b) <= 16);
        // Fat-tree routes climb at most to the root and back.
        let ft = TopologyKind::FatTree.build(nodes, 16);
        let mut levels = 1u32;
        let mut span = FatTree::ARITY as u32;
        while span < nodes as u32 {
            span *= FatTree::ARITY as u32;
            levels += 1;
        }
        prop_assert!(ft.hops(a, b) <= 2 * levels, "fat tree over-climbs");
        // Torus routes never exceed half the extent per dimension, summed.
        let t = TopologyKind::Torus3D.build(nodes, 16);
        prop_assert!(
            t.hops(a, b) <= (nodes as u32 / 2).max(1) * 3,
            "route longer than wrapped grid allows"
        );
        prop_assert!(t.contention(a, b) <= 3, "≤ one shared stage per dim");
    }
}
