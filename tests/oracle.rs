//! Test-local per-unit oracle for the adaptive flow (Fig. 7 of the
//! paper): every unit runs through audited library matching, tape-based
//! redundancy prediction and ColorGNN, then the selector and the exact
//! ILP/EC engines, one unit at a time. It shares no batching, memo,
//! cache, scheduling or fault-ladder code with the pipeline — only the
//! trained heads and the engines — so the pipeline can be checked
//! against it. Any failing or rejected step degrades the unit to a
//! greedy coloring, so the oracle always covers every unit.
//!
//! [`cold_copy`] serves the tests that compare several engine runs: each
//! run gets an engine over its own copy of the model, so no run is
//! answered from another run's solution cache.
//! [`same_up_to_relabeling`] compares unit colorings across runs, whose
//! assembly may rename a unit's colors.

// Each test binary that includes this module uses a subset of it.
#![allow(dead_code)]

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

use mpld::{run_pipeline, AdaptiveFramework, OfflineConfig, PipelineResult, PreparedLayout};
use mpld_graph::{
    audit_decomposition, greedy_coloring, Budget, Certainty, DecomposeParams, Decomposer,
    Decomposition, LayoutGraph, MpldError,
};
use mpld_matching::GraphLibrary;

/// A second copy of `fw`'s model (same weights, same library entries,
/// same ColorGNN switch), so an engine over it starts with empty caches.
pub fn cold_copy(fw: &AdaptiveFramework) -> AdaptiveFramework {
    let mut bytes = Vec::new();
    fw.save(&mut bytes).expect("serialize to Vec");
    let library = GraphLibrary::from_entries(fw.library.entries().to_vec(), fw.library.max_nodes());
    let mut copy = AdaptiveFramework::load_with_library(
        bytes.as_slice(),
        &fw.params,
        &OfflineConfig::default(),
        |_| Some(library),
    )
    .expect("model copy loads");
    // The switch is a run setting, not part of the model file.
    copy.use_colorgnn = fw.use_colorgnn;
    copy
}

/// One oracle run: the assembled result plus the units library matching
/// answered.
pub struct OracleRun {
    pub pipeline: PipelineResult,
    pub matched: usize,
}

/// Decomposes `prep` unit by unit (see module docs). ColorGNN samples
/// from the model's own RNG stream, one graph at a time.
pub fn decompose_per_unit(fw: &AdaptiveFramework, prep: &PreparedLayout) -> OracleRun {
    let oracle = PerUnit {
        fw,
        matched: Cell::new(0),
    };
    let pipeline = run_pipeline(prep, &oracle, &fw.params);
    OracleRun {
        pipeline,
        matched: oracle.matched.get(),
    }
}

struct PerUnit<'a> {
    fw: &'a AdaptiveFramework,
    matched: Cell<usize>,
}

impl Decomposer for PerUnit<'_> {
    fn name(&self) -> &'static str {
        "per-unit oracle"
    }

    fn decompose(
        &self,
        g: &LayoutGraph,
        params: &DecomposeParams,
        budget: &Budget,
    ) -> Result<Decomposition, MpldError> {
        let fw = self.fw;
        let audited = |d: &Decomposition| audit_decomposition(g, d, params.k).is_ok();

        if g.num_nodes() <= fw.library.max_nodes() {
            if let Some(d) = fw.library.lookup(&fw.selector, g).filter(audited) {
                self.matched.set(self.matched.get() + 1);
                return Ok(d);
            }
        }

        // Class 0 of the redundancy head = "all stitches redundant".
        let redundant = !g.has_stitches() || fw.redundancy.predict(g)[0] > fw.redundancy_bar;
        let mut guard_failed = false;
        if fw.use_colorgnn && redundant {
            let (parent, map) = g.merge_stitch_edges();
            let pd = catch_unwind(AssertUnwindSafe(|| {
                fw.colorgnn.decompose(&parent, params, budget)
            }));
            if let Ok(Ok(pd)) = pd {
                let coloring = map.iter().map(|&v| pd.coloring[v as usize]).collect();
                if let Ok(d) = Decomposition::try_from_coloring(g, coloring, params.alpha) {
                    if pd.cost.conflicts == 0 && d.cost == pd.cost {
                        return Ok(d);
                    }
                }
            }
            guard_failed = true;
        }

        let ec_first = guard_failed || fw.selector.predict(g)[1] > fw.ec_threshold;
        let exact = catch_unwind(AssertUnwindSafe(|| exact(fw, g, ec_first, budget)));
        Ok(match exact {
            Ok(Some(d)) if audited(&d) => d,
            _ => Decomposition::from_coloring(g, greedy_coloring(g, params.k), params.alpha)
                .with_certainty(Certainty::Degraded),
        })
    }
}

/// EC accepted when certified, else verified by the exact ILP; or the
/// exact ILP alone.
fn exact(
    fw: &AdaptiveFramework,
    g: &LayoutGraph,
    ec_first: bool,
    budget: &Budget,
) -> Option<Decomposition> {
    let p = &fw.params;
    if !ec_first {
        return fw.ilp.decompose(g, p, budget).ok();
    }
    let (d, certified) = fw.ec.decompose_certified(g, p, budget).ok()?;
    if certified {
        return Some(d);
    }
    let (better, _) = fw.ilp.decompose_below_within(g, p, &d.cost, budget);
    Some(
        better
            .filter(|e| e.cost.better_than(&d.cost, p.alpha))
            .unwrap_or(d),
    )
}

/// Whether `a` and `b` are the same coloring up to a renaming of colors
/// (assembly permutes each unit's colors to fit its neighbors).
pub fn same_up_to_relabeling(a: &[u8], b: &[u8]) -> bool {
    let mut fwd = [None::<u8>; 256];
    let mut back = [None::<u8>; 256];
    a.len() == b.len()
        && a.iter().zip(b).all(|(&x, &y)| {
            *fwd[usize::from(x)].get_or_insert(y) == y
                && *back[usize::from(y)].get_or_insert(x) == x
        })
}
