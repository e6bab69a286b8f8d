//! EC tie-breaking is deterministic: units with several equal-cost optima
//! (here two suite units, C7552 unit 202 and C6288 unit 0, whose optimum
//! costs one conflict) must get the same coloring on every solve, so the
//! decomposition is a pure function of the unit graph.

use mpld_ec::EcDecomposer;
use mpld_graph::{Budget, DecomposeParams, LayoutGraph};

fn c7552_unit_202() -> LayoutGraph {
    LayoutGraph::homogeneous(
        10,
        vec![
            (0, 1),
            (0, 2),
            (0, 9),
            (1, 2),
            (1, 3),
            (2, 3),
            (2, 5),
            (2, 6),
            (2, 9),
            (3, 5),
            (3, 6),
            (4, 5),
            (4, 7),
            (4, 9),
            (5, 6),
            (5, 8),
            (5, 9),
            (7, 8),
            (7, 9),
            (8, 9),
        ],
    )
    .unwrap()
}

fn c6288_unit_0() -> LayoutGraph {
    LayoutGraph::new(
        vec![0, 0, 1, 1, 2, 3, 4, 5, 6, 7, 7, 8, 9],
        vec![
            (0, 2),
            (0, 4),
            (0, 5),
            (0, 12),
            (1, 4),
            (1, 5),
            (1, 7),
            (2, 6),
            (2, 12),
            (3, 6),
            (4, 5),
            (4, 7),
            (5, 6),
            (5, 7),
            (5, 12),
            (6, 8),
            (6, 12),
            (7, 9),
            (8, 11),
            (8, 12),
            (9, 12),
            (10, 11),
            (10, 12),
            (11, 12),
        ],
        vec![(0, 1), (2, 3), (9, 10)],
    )
    .unwrap()
}

#[test]
fn tie_bearing_suite_units_always_get_the_same_coloring() {
    let params = DecomposeParams::tpl();
    for g in [c7552_unit_202(), c6288_unit_0()] {
        let solve = || {
            EcDecomposer::new()
                .decompose_certified(&g, &params, &Budget::unlimited())
                .unwrap()
        };
        let (first, certified) = solve();
        assert!(certified, "the one-conflict optimum is certified");
        assert_eq!(first.cost.conflicts, 1);
        for _ in 0..32 {
            assert_eq!(solve().0.coloring, first.coloring, "tie broken differently");
        }
    }
}
