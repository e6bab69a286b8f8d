//! Quadruple patterning (k = 4): the paper's framework is "flexible to be
//! extended to other decomposition tasks", and every engine in this
//! workspace supports four masks. This example compares TPL vs QPL cost
//! on one circuit.
//!
//! ```sh
//! cargo run --release -p mpld --example quadruple_patterning -- C1355
//! ```

use mpld::{prepare, run_pipeline};
use mpld_graph::DecomposeParams;
use mpld_ilp::IlpDecomposer;
use mpld_layout::circuit_by_name;

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "C1355".to_string());
    let Some(circuit) = circuit_by_name(&name) else {
        eprintln!("unknown circuit {name}");
        std::process::exit(1);
    };
    let layout = circuit.generate();
    let engine = IlpDecomposer::new();

    for params in [DecomposeParams::tpl(), DecomposeParams::qpl()] {
        let prep = prepare(&layout, &params);
        let r = run_pipeline(&prep, &engine, &params);
        println!(
            "k = {}: cost {} (objective {:.1}) in {:?}",
            params.k,
            r.cost,
            r.cost.value(params.alpha),
            r.decompose_time
        );
    }
    println!("\nmore masks can only lower the optimal cost.");
}
