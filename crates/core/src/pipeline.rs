//! Layout preparation (simplify + stitch insertion) and the single-engine
//! decomposition pipeline used by all baselines.
//!
//! Preparation runs the workflow of Fig. 7 up to the decomposer: global
//! conflict graph, level-3 simplification, and projection-based stitch
//! candidate insertion per unit (articulation features stay whole so block
//! merging remains sound). The input kind picks only the edge sweep: an
//! in-memory layout is swept whole by [`prepare`], a layout file streams
//! through the tiler ([`crate::prepare_tiled_file`]); both hand their
//! edges to one shared tail, so every [`PreparedLayout`] is built the same
//! way. [`run_pipeline`] then decomposes every unit with one engine and
//! reassembles the result, timing only the decomposition itself — exactly
//! the runtime Table V reports.

use crate::LayoutDecomposition;
use mpld_geometry::Feature;
use mpld_graph::simplify::{simplify, Simplified, SimplifyOptions};
use mpld_graph::{
    CostBreakdown, DecomposeParams, Decomposer, Decomposition, LayoutGraph, MpldError,
};
use mpld_layout::{insert_stitch_candidates_masked, Layout};
use std::time::{Duration, Instant};

/// One decomposition unit with its heterogeneous (stitch-inserted) graph.
#[derive(Debug, Clone)]
pub struct UnitInstance {
    /// Subfeature-level graph fed to the decomposers.
    pub hetero: LayoutGraph,
}

/// A layout after preprocessing: everything the decomposers and the
/// adaptive framework consume.
#[derive(Debug)]
pub struct PreparedLayout {
    /// Circuit name.
    pub name: String,
    /// Global homogeneous conflict graph (features as nodes).
    pub graph: LayoutGraph,
    /// Level-3 simplification result.
    pub simplified: Simplified,
    /// Heterogeneous unit graphs, parallel to `simplified.units()`.
    pub units: Vec<UnitInstance>,
    /// Coloring distance.
    pub d: i64,
}

/// Runs preprocessing on an in-memory `layout`: one whole-layout edge
/// sweep, then the shared preparation tail.
///
/// # Panics
///
/// Panics if `params.k == 0`, or if the layout's geometry is invalid
/// (layouts built in memory are validated upstream).
pub fn prepare(layout: &Layout, params: &DecomposeParams) -> PreparedLayout {
    let prep = prepare_tail(
        layout.name.clone(),
        layout.d,
        layout.features.len(),
        layout.conflict_edges(),
        params,
        |ids| {
            Ok(ids
                .iter()
                .map(|&g| layout.features[g as usize].clone())
                .collect())
        },
    );
    #[allow(clippy::expect_used)] // in-memory geometry is validated upstream
    prep.expect("in-memory layout geometry is valid")
}

/// The preparation tail every entry point shares: the conflict graph over
/// `num_features` features from `edges`, level-3 simplification, then
/// stitch insertion per unit on the features `load` returns for the
/// unit's global ids (in order). Features present in more than one unit
/// (articulation features) are never split.
pub(crate) fn prepare_tail(
    name: String,
    d: i64,
    num_features: usize,
    edges: Vec<(u32, u32)>,
    params: &DecomposeParams,
    load: impl Fn(&[u32]) -> Result<Vec<Feature>, MpldError>,
) -> Result<PreparedLayout, MpldError> {
    let graph = LayoutGraph::homogeneous(num_features, edges)
        .map_err(|e| MpldError::Io(format!("conflict graph rejected: {e}")))?;
    let simplified = simplify(&graph, params.k, SimplifyOptions::default());

    let mut occurrences = vec![0u32; num_features];
    for unit in simplified.units() {
        for &g in &unit.global_nodes {
            occurrences[g as usize] += 1;
        }
    }
    // Sized up front: collecting through `Result` would grow the vector
    // by doubling and keep up to twice the units' headers resident.
    let mut units = Vec::with_capacity(simplified.units().len());
    for unit in simplified.units() {
        let feats = load(&unit.global_nodes)?;
        let splittable: Vec<bool> = unit
            .global_nodes
            .iter()
            .map(|&g| occurrences[g as usize] == 1)
            .collect();
        let stitched = insert_stitch_candidates_masked(&feats, d, &splittable)
            .map_err(|e| MpldError::Io(format!("stitch insertion rejected unit geometry: {e}")))?;
        units.push(UnitInstance {
            hetero: stitched.graph,
        });
    }

    Ok(PreparedLayout {
        name,
        graph,
        simplified,
        units,
        d,
    })
}

/// The outcome of decomposing a prepared layout with one engine.
#[derive(Debug, Clone)]
pub struct PipelineResult {
    /// Total cost (sum over units; recovery adds none).
    pub cost: CostBreakdown,
    /// Per-unit costs, parallel to `PreparedLayout::units`.
    pub unit_costs: Vec<CostBreakdown>,
    /// The reassembled decomposition.
    pub decomposition: LayoutDecomposition,
    /// Pure decomposition runtime (what Table V reports).
    pub decompose_time: Duration,
}

/// Decomposes every unit with `engine` and reassembles the global result.
///
/// # Panics
///
/// Panics if `engine` rejects a unit (cannot happen for the workspace
/// engines on `k` in `{3, 4}`).
pub fn run_pipeline(
    prep: &PreparedLayout,
    engine: &dyn Decomposer,
    params: &DecomposeParams,
) -> PipelineResult {
    let start = Instant::now();
    let unit_results: Vec<Decomposition> = prep
        .units
        .iter()
        .map(|u| engine.decompose_unbounded(&u.hetero, params))
        .collect();
    let decompose_time = start.elapsed();
    assemble(prep, params, unit_results, decompose_time)
}

/// Reassembles unit decompositions into a global result (shared by the
/// baseline pipeline and the adaptive framework).
pub(crate) fn assemble(
    prep: &PreparedLayout,
    params: &DecomposeParams,
    unit_results: Vec<Decomposition>,
    decompose_time: Duration,
) -> PipelineResult {
    let unit_costs: Vec<CostBreakdown> = unit_results.iter().map(|d| d.cost).collect();
    let cost = unit_costs
        .iter()
        .fold(CostBreakdown::default(), |a, &b| a.combine(b));

    // Parent-level coloring per unit: representative color of each
    // feature (articulation features are never split, so their color is
    // exact; split features carry their subfeature colors separately).
    let parent_colorings: Vec<Vec<u8>> = prep
        .units
        .iter()
        .zip(&unit_results)
        .map(|(u, d)| {
            let nf = u.hetero.num_features();
            let mut colors = vec![0u8; nf];
            let mut seen = vec![false; nf];
            for v in 0..u.hetero.num_nodes() as u32 {
                let f = u.hetero.feature_of(v) as usize;
                if !seen[f] {
                    seen[f] = true;
                    colors[f] = d.coloring[v as usize];
                }
            }
            colors
        })
        .collect();

    let recovered = prep
        .simplified
        .recover(&prep.graph, params.k, &parent_colorings);

    // Subfeature colorings with the merge permutations applied.
    let unit_subfeature_colorings: Vec<Vec<u8>> = unit_results
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let perm = recovered.unit_permutations[i];
            d.coloring.iter().map(|&c| perm[c as usize]).collect()
        })
        .collect();

    PipelineResult {
        cost,
        unit_costs,
        decomposition: LayoutDecomposition {
            feature_colors: recovered.coloring,
            unit_subfeature_colorings,
        },
        decompose_time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpld_ilp::IlpDecomposer;
    use mpld_layout::circuit_by_name;

    fn prep_c432() -> PreparedLayout {
        let layout = circuit_by_name("C432").expect("exists").generate();
        prepare(&layout, &DecomposeParams::tpl())
    }

    #[test]
    fn prepare_produces_units() {
        let prep = prep_c432();
        assert_eq!(prep.units.len(), prep.simplified.units().len());
        assert!(!prep.units.is_empty(), "C432 should have surviving units");
        // Unit graphs at feature level match the simplified units.
        for (u, s) in prep.units.iter().zip(prep.simplified.units()) {
            assert_eq!(
                u.hetero.num_features(),
                prep.graph.induced_subgraph(&s.global_nodes).0.num_nodes()
            );
        }
    }

    #[test]
    fn articulation_features_are_never_split() {
        let prep = prep_c432();
        let mut occurrences = std::collections::HashMap::new();
        for unit in prep.simplified.units() {
            for &g in &unit.global_nodes {
                *occurrences.entry(g).or_insert(0usize) += 1;
            }
        }
        for (u, s) in prep.units.iter().zip(prep.simplified.units()) {
            for (local_f, &g) in s.global_nodes.iter().enumerate() {
                if occurrences[&g] > 1 {
                    let subfeatures = (0..u.hetero.num_nodes() as u32)
                        .filter(|&v| u.hetero.feature_of(v) as usize == local_f)
                        .count();
                    assert_eq!(subfeatures, 1, "articulation feature {g} was split");
                }
            }
        }
    }

    #[test]
    fn ilp_pipeline_cost_is_consistent() {
        let prep = prep_c432();
        let params = DecomposeParams::tpl();
        let res = run_pipeline(&prep, &IlpDecomposer::new(), &params);
        let sum = res
            .unit_costs
            .iter()
            .fold(CostBreakdown::default(), |a, &b| a.combine(b));
        assert_eq!(res.cost, sum);
        assert_eq!(
            res.decomposition.feature_colors.len(),
            prep.graph.num_nodes()
        );
        assert!(res
            .decomposition
            .feature_colors
            .iter()
            .all(|&c| c < params.k));
    }

    #[test]
    fn recovered_parent_coloring_has_no_extra_conflicts() {
        // For every conflict edge of the *global* graph whose two features
        // are both unsplit, the recovered colors must differ unless the
        // unit reported that conflict. Simplest sound check: total
        // conflicts of the recovered parent coloring, restricted to
        // unsplit-unsplit edges, is at most the summed unit conflicts.
        let prep = prep_c432();
        let params = DecomposeParams::tpl();
        let res = run_pipeline(&prep, &IlpDecomposer::new(), &params);
        // Which global features got split?
        let mut split = vec![false; prep.graph.num_nodes()];
        for (u, s) in prep.units.iter().zip(prep.simplified.units()) {
            for (local_f, &g) in s.global_nodes.iter().enumerate() {
                let cnt = (0..u.hetero.num_nodes() as u32)
                    .filter(|&v| u.hetero.feature_of(v) as usize == local_f)
                    .count();
                if cnt > 1 {
                    split[g as usize] = true;
                }
            }
        }
        let colors = &res.decomposition.feature_colors;
        let mut parent_conflicts = 0;
        for &(a, b) in prep.graph.conflict_edges() {
            if !split[a as usize] && !split[b as usize] && colors[a as usize] == colors[b as usize]
            {
                parent_conflicts += 1;
            }
        }
        assert!(
            parent_conflicts <= res.cost.conflicts,
            "recovery added conflicts: {parent_conflicts} > {}",
            res.cost.conflicts
        );
    }
}
