//! Explore the isomorphism-free graph library (Algorithm 2): enumerate
//! the irreducible parent graphs, build the library with stitch variants,
//! and demonstrate an embedding-based match with solution transfer.
//!
//! ```sh
//! cargo run --release -p mpld --example library_explorer
//! ```

use mpld_gnn::RgcnClassifier;
use mpld_graph::{DecomposeParams, LayoutGraph};
use mpld_matching::{enumerate_parent_graphs, GraphLibrary, LibraryConfig};

fn main() {
    let params = DecomposeParams::tpl();

    // The classic result: 23 irreducible TPL graphs below seven nodes.
    let parents = enumerate_parent_graphs(6, params.k);
    println!("irreducible parent graphs (min degree >= 3, 2-connected):");
    for n in 4..=6 {
        let count = parents.iter().filter(|g| g.num_nodes() == n).count();
        println!("  {n} nodes: {count}");
    }
    println!(
        "  total: {} (paper/classic literature: 23)\n",
        parents.len()
    );

    // Build the library with stitch variants and ILP-optimal solutions.
    let embedder = RgcnClassifier::selector(0xDAC);
    let cfg = LibraryConfig::default();
    let library = GraphLibrary::build(&embedder, &cfg, &params);
    println!(
        "library: {} graphs (dedup skipped {})",
        library.len(),
        library.stats().duplicates_skipped,
    );
    let with_stitch = library
        .entries()
        .iter()
        .filter(|e| e.graph.has_stitches())
        .count();
    println!("  {} entries carry stitch edges\n", with_stitch);

    // Match a relabeled K4 and transfer the stored optimal solution.
    let k4 = LayoutGraph::homogeneous(4, vec![(3, 1), (3, 2), (3, 0), (1, 2), (1, 0), (2, 0)])
        .expect("valid graph");
    match library.lookup(&embedder, &k4) {
        Some(d) => println!(
            "matched K4: transferred optimal coloring {:?} with cost {}",
            d.coloring, d.cost
        ),
        None => println!("K4 unexpectedly missed the library"),
    }

    // A graph that cannot be in the library (min degree 2).
    let square =
        LayoutGraph::homogeneous(4, vec![(0, 1), (1, 2), (2, 3), (3, 0)]).expect("valid graph");
    println!(
        "4-cycle lookup (not irreducible, must miss): {:?}",
        library.lookup(&embedder, &square).map(|d| d.cost)
    );
}
