//! Topology invariants every engine relies on: each node's neighbors are
//! strictly ascending and free of self-loops (so `Context::send` may
//! binary-search them and selection by index is stable), and the
//! implicit complete graph is indistinguishable from the same graph
//! built from explicit edges.

use distclass_net::{NodeId, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn assert_sorted_without_self_loops(name: &str, t: &Topology) {
    for i in 0..t.len() {
        let nbrs: Vec<NodeId> = t.neighbors(i).iter().collect();
        assert!(
            nbrs.windows(2).all(|w| w[0] < w[1]),
            "{name}: node {i} neighbors not strictly ascending: {nbrs:?}"
        );
        assert!(!nbrs.contains(&i), "{name}: node {i} has a self-loop");
        assert_eq!(nbrs.len(), t.degree(i), "{name}: node {i} degree");
    }
}

#[test]
fn every_constructor_yields_strictly_ascending_loop_free_lists() {
    let shapes = [
        ("complete", Topology::complete(7)),
        ("ring(2)", Topology::ring(2)),
        ("ring", Topology::ring(9)),
        ("directed_cycle", Topology::directed_cycle(6)),
        ("line", Topology::line(5)),
        ("star", Topology::star(6)),
        ("grid", Topology::grid(4, 5)),
        ("torus", Topology::torus(3, 4)),
        (
            "from_directed_edges",
            Topology::from_directed_edges(
                4,
                &[
                    (3, 0),
                    (0, 3),
                    (0, 0),
                    (2, 1),
                    (1, 2),
                    (3, 2),
                    (2, 3),
                    (3, 0),
                ],
            )
            .unwrap(),
        ),
    ];
    for (name, t) in &shapes {
        assert_sorted_without_self_loops(name, t);
    }
    for seed in 0..4 {
        let mut rng = StdRng::seed_from_u64(seed);
        let er = Topology::erdos_renyi(40, 0.15, &mut rng).unwrap();
        assert_sorted_without_self_loops(&format!("erdos_renyi seed {seed}"), &er);
        let (rg, _) = Topology::random_geometric(40, 0.35, &mut rng).unwrap();
        assert_sorted_without_self_loops(&format!("random_geometric seed {seed}"), &rg);
    }
}

#[test]
fn implicit_complete_graph_matches_explicit_all_pairs() {
    for n in [2, 3, 17] {
        let implicit = Topology::complete(n);
        let pairs: Vec<(NodeId, NodeId)> = (0..n)
            .flat_map(|a| (0..n).filter(move |&b| b != a).map(move |b| (a, b)))
            .collect();
        let explicit = Topology::from_directed_edges(n, &pairs).unwrap();
        assert_eq!(implicit.len(), explicit.len());
        assert_eq!(implicit.edge_count(), explicit.edge_count());
        assert_eq!(implicit.edge_count(), n * (n - 1));
        for i in 0..n {
            let (a, b) = (implicit.neighbors(i), explicit.neighbors(i));
            assert_eq!(a, b, "n={n} node {i}");
            assert_eq!(a.len(), b.len());
            assert_eq!(implicit.degree(i), explicit.degree(i));
            assert!(a.iter().eq(b.iter()), "n={n} node {i} iter");
            for j in 0..a.len() {
                assert_eq!(a.get(j), b.get(j), "n={n} node {i} get({j})");
            }
            for j in 0..n + 2 {
                assert_eq!(a.contains(j), b.contains(j), "n={n} node {i} contains({j})");
            }
        }
        // Equality compares graphs, not storage, in both directions.
        assert_eq!(implicit, explicit);
        assert_eq!(explicit, implicit);
        assert_eq!(implicit, Topology::complete(n));
    }
    assert_ne!(Topology::complete(3), Topology::ring(4));
    assert_ne!(Topology::complete(4), Topology::ring(4));
    assert_ne!(Topology::ring(4), Topology::complete(4));
}

#[test]
#[should_panic(expected = "out of range")]
fn complete_graph_get_past_the_degree_panics() {
    Topology::complete(5).neighbors(2).get(4);
}

#[test]
#[should_panic(expected = "out of range")]
fn complete_graph_node_out_of_range_panics() {
    Topology::complete(5).neighbors(5);
}
