//! `simplify` and `Simplified::recover` against the per-component flow
//! they replaced, kept here as the reference: a component DFS over the
//! graph left after hiding, a validated graph and `biconnected_components`
//! for each component, blocks mapped back to global ids, and one
//! block-cut-tree merge per component at recovery. The one-pass code must
//! reproduce the reference exactly: the unit order and every unit's
//! `global_nodes`, the hiding order, and the coloring and
//! `unit_permutations` that recovery returns for random unit colorings.

use mpld_graph::simplify::{simplify, SimplifyOptions};
use mpld_graph::{biconnected_components, BlockCutTree, LayoutGraph, NodeId};
use mpld_layout::iscas_suite;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashMap, VecDeque};

/// The reference's simplification of one graph.
struct Reference {
    /// Units in emission order, as sorted global ids.
    units: Vec<Vec<NodeId>>,
    /// Hidden nodes in hiding order.
    hidden: Vec<NodeId>,
    components: Vec<Component>,
}

/// One connected component of the graph left after hiding.
struct Component {
    /// Global ids of the component's nodes; local ids are positions here.
    global_nodes: Vec<NodeId>,
    /// The component's blocks, in local ids.
    bct: BlockCutTree,
    /// `unit_of_block[b]` = index into `Reference::units`.
    unit_of_block: Vec<usize>,
}

fn reference_simplify(g: &LayoutGraph, k: u8, opts: SimplifyOptions) -> Reference {
    let n = g.num_nodes();
    let mut active = vec![true; n];
    let mut degree: Vec<usize> = (0..n as u32).map(|v| g.conflict_degree(v)).collect();
    let mut hidden = Vec::new();
    if opts.hide_small_degree {
        let mut queue: Vec<NodeId> = (0..n as u32)
            .filter(|&v| degree[v as usize] < k as usize)
            .collect();
        while let Some(v) = queue.pop() {
            if !active[v as usize] {
                continue;
            }
            active[v as usize] = false;
            hidden.push(v);
            for &w in g.conflict_neighbors(v) {
                if active[w as usize] {
                    degree[w as usize] -= 1;
                    if degree[w as usize] < k as usize {
                        queue.push(w);
                    }
                }
            }
        }
    }

    // Connected components over the active subgraph.
    let mut comp = vec![usize::MAX; n];
    let mut comp_nodes: Vec<Vec<NodeId>> = Vec::new();
    for s in 0..n as u32 {
        if !active[s as usize] || comp[s as usize] != usize::MAX {
            continue;
        }
        let c = comp_nodes.len();
        let mut nodes = vec![s];
        comp[s as usize] = c;
        let mut stack = vec![s];
        while let Some(v) = stack.pop() {
            for &w in g.conflict_neighbors(v) {
                if active[w as usize] && comp[w as usize] == usize::MAX {
                    comp[w as usize] = c;
                    nodes.push(w);
                    stack.push(w);
                }
            }
        }
        nodes.sort_unstable();
        comp_nodes.push(nodes);
    }

    let mut units = Vec::new();
    let mut components = Vec::new();
    for globals in comp_nodes {
        let local_of: HashMap<NodeId, NodeId> = globals
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as NodeId))
            .collect();
        let mut edges = Vec::new();
        for &v in &globals {
            for &w in g.conflict_neighbors(v) {
                if v < w {
                    if let Some(&lw) = local_of.get(&w) {
                        edges.push((local_of[&v], lw));
                    }
                }
            }
        }
        let cg = LayoutGraph::homogeneous(globals.len(), edges).expect("component graph");
        let bct = if opts.biconnected {
            biconnected_components(&cg)
        } else {
            BlockCutTree {
                blocks: vec![(0..cg.num_nodes() as u32).collect()],
                is_articulation: vec![false; cg.num_nodes()],
            }
        };
        let mut unit_of_block = Vec::with_capacity(bct.blocks.len());
        for block in &bct.blocks {
            unit_of_block.push(units.len());
            units.push(block.iter().map(|&lv| globals[lv as usize]).collect());
        }
        components.push(Component {
            global_nodes: globals,
            bct,
            unit_of_block,
        });
    }
    Reference {
        units,
        hidden,
        components,
    }
}

/// The block-cut-tree merge of one component: breadth first from block 0,
/// each block's colors swapped so its first already-colored node agrees,
/// neighbor blocks reached through articulation nodes.
fn reference_merge(
    bct: &BlockCutTree,
    num_nodes: usize,
    block_colorings: &[Vec<u8>],
) -> (Vec<u8>, Vec<[u8; 8]>) {
    let mut permutations = vec![[0, 1, 2, 3, 4, 5, 6, 7]; bct.blocks.len()];
    let mut blocks_of: Vec<Vec<usize>> = vec![Vec::new(); num_nodes];
    for (bi, block) in bct.blocks.iter().enumerate() {
        for &v in block {
            blocks_of[v as usize].push(bi);
        }
    }
    let mut global = vec![u8::MAX; num_nodes];
    let mut done = vec![false; bct.blocks.len()];
    for start in 0..bct.blocks.len() {
        if done[start] {
            continue;
        }
        let mut queue = VecDeque::from([start]);
        done[start] = true;
        while let Some(bi) = queue.pop_front() {
            let block = &bct.blocks[bi];
            let mut colors = block_colorings[bi].clone();
            if let Some(pos) = block.iter().position(|&v| global[v as usize] != u8::MAX) {
                let want = global[block[pos] as usize];
                let have = colors[pos];
                if want != have {
                    for c in colors.iter_mut() {
                        if *c == want {
                            *c = have;
                        } else if *c == have {
                            *c = want;
                        }
                    }
                    permutations[bi].swap(want as usize, have as usize);
                }
            }
            for (&v, &c) in block.iter().zip(&colors) {
                assert!(global[v as usize] == u8::MAX || global[v as usize] == c);
                global[v as usize] = c;
            }
            for &v in block {
                if bct.is_articulation[v as usize] {
                    for &nb in &blocks_of[v as usize] {
                        if !done[nb] {
                            done[nb] = true;
                            queue.push_back(nb);
                        }
                    }
                }
            }
        }
    }
    (global, permutations)
}

/// The reference's recovery: one merge per component, then hidden nodes
/// in reverse hiding order, each on the first mask its colored neighbors
/// leave free.
fn reference_recover(
    r: &Reference,
    g: &LayoutGraph,
    k: u8,
    unit_colorings: &[Vec<u8>],
) -> (Vec<u8>, Vec<[u8; 8]>) {
    let n = g.num_nodes();
    let mut coloring = vec![0u8; n];
    let mut assigned = vec![false; n];
    let mut unit_permutations = vec![[0, 1, 2, 3, 4, 5, 6, 7]; r.units.len()];
    for info in &r.components {
        let block_colorings: Vec<Vec<u8>> = info
            .unit_of_block
            .iter()
            .map(|&ui| unit_colorings[ui].clone())
            .collect();
        let (merged, perms) = reference_merge(&info.bct, info.global_nodes.len(), &block_colorings);
        for (local, &global) in info.global_nodes.iter().enumerate() {
            coloring[global as usize] = merged[local];
            assigned[global as usize] = true;
        }
        for (&ui, perm) in info.unit_of_block.iter().zip(&perms) {
            unit_permutations[ui] = *perm;
        }
    }
    for &v in r.hidden.iter().rev() {
        let mut used = [false; 256];
        for &w in g.conflict_neighbors(v) {
            if assigned[w as usize] {
                used[coloring[w as usize] as usize] = true;
            }
        }
        coloring[v as usize] = (0..k).find(|&c| !used[c as usize]).unwrap_or(0);
        assigned[v as usize] = true;
    }
    (coloring, unit_permutations)
}

/// Asserts that `simplify` and `recover` reproduce the reference on `g`,
/// recovering five random unit colorings drawn from `seed`.
fn assert_matches_reference(g: &LayoutGraph, k: u8, opts: SimplifyOptions, seed: u64) {
    let s = simplify(g, k, opts);
    let r = reference_simplify(g, k, opts);
    let units: Vec<&[NodeId]> = s.units().iter().map(|u| &u.global_nodes[..]).collect();
    assert_eq!(units, r.units, "units ({opts:?}, k = {k})");
    assert_eq!(s.hidden_nodes(), &r.hidden[..], "hiding order ({opts:?})");
    let mut rng = SmallRng::seed_from_u64(seed);
    for _ in 0..5 {
        let colorings: Vec<Vec<u8>> = r
            .units
            .iter()
            .map(|u| u.iter().map(|_| rng.gen_range(0..k)).collect())
            .collect();
        let rec = s.recover(g, k, &colorings);
        let (coloring, perms) = reference_recover(&r, g, k, &colorings);
        assert_eq!(rec.coloring, coloring, "recovered coloring ({opts:?})");
        assert_eq!(rec.unit_permutations, perms, "unit permutations ({opts:?})");
    }
}

const ALL_OPTIONS: [SimplifyOptions; 4] = [
    SimplifyOptions {
        hide_small_degree: true,
        biconnected: true,
    },
    SimplifyOptions {
        hide_small_degree: true,
        biconnected: false,
    },
    SimplifyOptions {
        hide_small_degree: false,
        biconnected: true,
    },
    SimplifyOptions {
        hide_small_degree: false,
        biconnected: false,
    },
];

/// A random graph of up to ~40 nodes: small dense clusters, most glued to
/// an earlier node they share (an articulation point) or joined to one by
/// a bridge, a few stray edges, and node ids shuffled so the walk order
/// is not the build order.
fn clustered_graph(seed: u64) -> LayoutGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut edges = BTreeSet::new();
    let mut n = 0u32;
    for _ in 0..rng.gen_range(1..8) {
        let first = n;
        let size = rng.gen_range(1u32..7);
        n += size;
        let mut members: Vec<u32> = (first..n).collect();
        if first > 0 && rng.gen_bool(0.6) {
            members[0] = rng.gen_range(0..first);
        }
        for (i, &a) in members.iter().enumerate() {
            for &b in &members[i + 1..] {
                if rng.gen_bool(0.85) {
                    edges.insert((a.min(b), a.max(b)));
                }
            }
        }
        if first > 0 && rng.gen_bool(0.3) {
            edges.insert((rng.gen_range(0..first), rng.gen_range(first..n)));
        }
    }
    for _ in 0..rng.gen_range(0..4) {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if a != b {
            edges.insert((a.min(b), a.max(b)));
        }
    }
    let mut ids: Vec<u32> = (0..n).collect();
    ids.shuffle(&mut rng);
    let edges = edges
        .into_iter()
        .map(|(a, b)| (ids[a as usize], ids[b as usize]))
        .collect();
    LayoutGraph::homogeneous(n as usize, edges).expect("valid random graph")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn one_pass_matches_per_component_reference_on_random_graphs(seed in 0u64..u64::MAX) {
        let g = clustered_graph(seed);
        for k in [3u8, 4] {
            for opts in ALL_OPTIONS {
                assert_matches_reference(&g, k, opts, seed ^ u64::from(k));
            }
        }
    }
}

#[test]
fn one_pass_matches_per_component_reference_on_the_suite() {
    for circuit in iscas_suite() {
        let layout = circuit.generate();
        let g = LayoutGraph::homogeneous(layout.features.len(), layout.conflict_edges())
            .expect("suite conflict graph");
        for k in [3u8, 4] {
            assert_matches_reference(&g, k, SimplifyOptions::default(), u64::from(k));
        }
    }
}
