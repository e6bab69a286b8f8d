//! Offline training pipeline (Section IV-A, "offline part").
//!
//! 1. Collect unit graphs from training layouts and label them by running
//!    both exact engines: the **selector** label is ILP (0) when ILP's
//!    cost beats EC's (ties go to EC, the faster engine); the
//!    **redundancy** label is "redundant" (0) when the unit has stitch
//!    candidates but the ILP optimum activates none of them.
//! 2. Train the two RGCNs and ColorGNN.
//! 3. Build the isomorphism-free graph library with the trained selector
//!    RGCN as the embedder.

use crate::framework::AdaptiveFramework;
use crate::pipeline::PreparedLayout;
use mpld_ec::EcDecomposer;
use mpld_gnn::{ColorGnn, ColorGnnTrainConfig, RgcnClassifier, TrainConfig};
use mpld_graph::{CostBreakdown, DecomposeParams, Decomposer, LayoutGraph};
use mpld_ilp::IlpDecomposer;
use mpld_matching::{graph_fingerprint, graphs_identical, GraphLibrary, LibraryConfig};
use std::collections::HashMap;

/// Labeled training data extracted from prepared layouts.
#[derive(Debug, Default)]
pub struct TrainingData {
    /// Unit graphs (heterogeneous, after stitch insertion).
    pub units: Vec<LayoutGraph>,
    /// Selector labels: 0 = ILP strictly better, 1 = EC (ties included).
    pub selector_labels: Vec<u8>,
    /// Redundancy labels for stitch-bearing units only:
    /// `(unit index, label)` with 0 = all candidates redundant.
    pub redundancy_labels: Vec<(usize, u8)>,
    /// ILP-optimal cost per unit (reused by the evaluation harness).
    pub ilp_costs: Vec<CostBreakdown>,
    /// EC cost per unit.
    pub ec_costs: Vec<CostBreakdown>,
    /// Representative per unit: `rep_of[i] == i` for units that were
    /// ILP/EC-solved themselves; duplicates point at the earlier
    /// identical unit whose labels and costs they reuse.
    pub rep_of: Vec<usize>,
    /// How many units reused a representative's labels instead of
    /// re-running the exact engines.
    pub deduped: usize,
    /// Fingerprint → indices of solved representatives (collision
    /// candidates, verified edge-for-edge before reuse).
    fp_index: HashMap<u64, Vec<usize>>,
}

impl TrainingData {
    /// Extends this dataset with the units of `prep`, running both exact
    /// engines per unit to produce labels.
    pub fn add_layout(&mut self, prep: &PreparedLayout, params: &DecomposeParams) {
        self.add_layout_capped(prep, params, usize::MAX);
    }

    /// Like [`TrainingData::add_layout`], but takes at most `cap` units
    /// (the first `cap` in unit order) — used to bound training cost on
    /// the large circuits.
    ///
    /// Identical units (same [`graph_fingerprint`], then verified
    /// edge-for-edge with [`graphs_identical`]) are solved once: real
    /// layouts repeat unit graphs heavily, and the exact engines are
    /// deterministic, so a duplicate's labels and costs are exactly what
    /// a fresh solve would return. Every unit still occupies its own slot
    /// so the training set (and hence the trained weights) is unchanged.
    pub fn add_layout_capped(
        &mut self,
        prep: &PreparedLayout,
        params: &DecomposeParams,
        cap: usize,
    ) {
        let ilp = IlpDecomposer::new();
        let ec = EcDecomposer::new();
        let base = self.units.len();
        // Pass 1: install the units and resolve each one to a
        // representative — itself (unique, queued for solving) or an
        // earlier identical unit.
        let mut to_solve: Vec<usize> = Vec::new();
        for unit in prep.units.iter().take(cap) {
            let idx = self.units.len();
            self.units.push(unit.hetero.clone());
            let fp = graph_fingerprint(&self.units[idx]);
            let bucket = self.fp_index.entry(fp).or_default();
            let rep = bucket
                .iter()
                .copied()
                .find(|&j| graphs_identical(&self.units[j], &self.units[idx]));
            match rep {
                Some(j) => self.rep_of.push(j),
                None => {
                    bucket.push(idx);
                    self.rep_of.push(idx);
                    to_solve.push(idx);
                }
            }
        }
        // Pass 2: both exact engines run per unique unit — the expensive
        // part of the offline phase — fanned out largest-unit-first. The
        // results come back in queue order, making the labels identical
        // for any thread count.
        let units = &self.units;
        let solved = crate::parallel::run_largest_first(
            to_solve.len(),
            crate::parallel::default_threads(),
            |i| units[to_solve[i]].num_nodes(),
            |i| {
                let g = &units[to_solve[i]];
                (
                    ilp.decompose_unbounded(g, params),
                    ec.decompose_unbounded(g, params),
                )
            },
        );
        // Pass 3: assemble labels in original unit order. `to_solve` is
        // ascending and so is this loop, so representatives (own index or
        // an earlier unit) always have their costs in place already.
        let mut solved = solved.into_iter();
        for idx in base..self.units.len() {
            let rep = self.rep_of[idx];
            let (ilp_cost, ec_cost) = if rep == idx {
                #[allow(clippy::expect_used)] // one result per queued unique
                let (di, de) = solved.next().expect("solver result per unique unit");
                (di.cost, de.cost)
            } else {
                self.deduped += 1;
                (self.ilp_costs[rep], self.ec_costs[rep])
            };
            let selector_label = u8::from(!ilp_cost.better_than(&ec_cost, params.alpha));
            if self.units[idx].has_stitches() {
                let label = u8::from(ilp_cost.stitches != 0); // 0 = redundant
                self.redundancy_labels.push((idx, label));
            }
            self.selector_labels.push(selector_label);
            self.ilp_costs.push(ilp_cost);
            self.ec_costs.push(ec_cost);
        }
    }

    /// Collects data from several prepared layouts.
    pub fn from_layouts(preps: &[&PreparedLayout], params: &DecomposeParams) -> TrainingData {
        let mut data = TrainingData::default();
        for prep in preps {
            data.add_layout(prep, params);
        }
        data
    }
}

/// Hyperparameters of the offline phase.
#[derive(Debug, Clone, Copy)]
pub struct OfflineConfig {
    /// RGCN training config (selector and redundancy share it).
    pub rgcn: TrainConfig,
    /// ColorGNN training config.
    pub colorgnn: ColorGnnTrainConfig,
    /// Library construction config.
    pub library: LibraryConfig,
    /// Redundancy confidence routing bar `b`. The paper analyzes 0.99
    /// (Table VI(b)); for routing we default to 0.5 because the
    /// framework's conflict guard catches any wrongly-merged unit (a
    /// needed stitch always reappears as a conflict in the parent graph),
    /// so a permissive bar maximizes ColorGNN usage at no cost risk.
    pub redundancy_bar: f32,
    /// Minimum selector confidence to route a graph to EC (see
    /// [`AdaptiveFramework::ec_threshold`]).
    pub ec_threshold: f32,
    /// ColorGNN restarts (`iter` in Algorithm 1). The paper uses 5; we
    /// default to 25 because our adaptive batched restarts only re-run
    /// still-conflicted graphs, so extra restarts are almost free and
    /// recover the paper's "ColorGNN achieves ILP-equal results" claim on
    /// CPU (the ablation bench sweeps this knob).
    pub colorgnn_restarts: usize,
    /// RNG seed for model initialization.
    pub seed: u64,
}

impl Default for OfflineConfig {
    fn default() -> Self {
        OfflineConfig {
            rgcn: TrainConfig::default(),
            colorgnn: ColorGnnTrainConfig::default(),
            library: LibraryConfig::default(),
            redundancy_bar: 0.5,
            ec_threshold: 0.5,
            colorgnn_restarts: 25,
            seed: 0xDAC2020,
        }
    }
}

/// Final-epoch training losses and dataset counts from the offline
/// phase — the seed-keyed digest material for the CI training-trajectory
/// guard (`scripts/check_perf_digest.py`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainReport {
    /// Selector RGCN final-epoch mean cross-entropy.
    pub selector_loss: f32,
    /// Redundancy RGCN final-epoch mean cross-entropy (0.0 when no
    /// stitch-bearing units were labeled).
    pub redundancy_loss: f32,
    /// ColorGNN final-epoch mean margin loss (0.0 when no parents).
    pub colorgnn_loss: f32,
    /// Units in the training set.
    pub num_units: usize,
    /// Stitch-bearing units with redundancy labels.
    pub num_redundancy_labeled: usize,
    /// Merged parent graphs the ColorGNN trained on.
    pub num_colorgnn_graphs: usize,
    /// Units that reused an identical representative's ILP/EC labels.
    pub deduped_units: usize,
}

/// Runs the full offline phase and assembles the framework.
///
/// # Panics
///
/// Panics if `data.units` is empty.
pub fn train_framework(
    data: &TrainingData,
    params: &DecomposeParams,
    cfg: &OfflineConfig,
) -> AdaptiveFramework {
    train_framework_with_report(data, params, cfg).0
}

/// Like [`train_framework`], additionally returning the final-epoch
/// losses per head for trajectory digests.
///
/// # Panics
///
/// Panics if `data.units` is empty.
pub fn train_framework_with_report(
    data: &TrainingData,
    params: &DecomposeParams,
    cfg: &OfflineConfig,
) -> (AdaptiveFramework, TrainReport) {
    assert!(!data.units.is_empty(), "training data must not be empty");

    // Selector RGCN.
    let mut selector = RgcnClassifier::selector(cfg.seed);
    let selector_data: Vec<(&LayoutGraph, u8)> = data
        .units
        .iter()
        .zip(&data.selector_labels)
        .map(|(g, &l)| (g, l))
        .collect();
    let selector_loss = selector.train(&selector_data, &cfg.rgcn);

    // Redundancy RGCN (only stitch-bearing units carry labels).
    let mut redundancy = RgcnClassifier::redundancy(cfg.seed ^ 0xF00D);
    let redundancy_data: Vec<(&LayoutGraph, u8)> = data
        .redundancy_labels
        .iter()
        .map(|&(i, l)| (&data.units[i], l))
        .collect();
    let redundancy_loss = if redundancy_data.is_empty() {
        0.0
    } else {
        redundancy.train(&redundancy_data, &cfg.rgcn)
    };

    // ColorGNN trains on merged (non-stitch) parent graphs.
    let parents: Vec<LayoutGraph> = data
        .units
        .iter()
        .filter(|g| g.num_nodes() > 0 && !g.conflict_edges().is_empty())
        .map(|g| g.merge_stitch_edges().0)
        .collect();
    let mut colorgnn = ColorGnn::new(cfg.seed ^ 0xC01);
    colorgnn.set_restarts(cfg.colorgnn_restarts);
    let colorgnn_loss = if parents.is_empty() {
        0.0
    } else {
        let refs: Vec<&LayoutGraph> = parents.iter().collect();
        colorgnn.train(&refs, params.k, &cfg.colorgnn)
    };

    // Library built with the trained selector as the embedder.
    let library = GraphLibrary::build(&selector, &cfg.library, params);

    let report = TrainReport {
        selector_loss,
        redundancy_loss,
        colorgnn_loss,
        num_units: data.units.len(),
        num_redundancy_labeled: data.redundancy_labels.len(),
        num_colorgnn_graphs: parents.len(),
        deduped_units: data.deduped,
    };
    let framework = AdaptiveFramework {
        selector,
        redundancy,
        colorgnn,
        library,
        ilp: mpld_ilp::encode::BipDecomposer::new(),
        ec: EcDecomposer::new(),
        params: *params,
        redundancy_bar: cfg.redundancy_bar,
        ec_threshold: cfg.ec_threshold,
        use_colorgnn: true,
    };
    (framework, report)
}

impl AdaptiveFramework {
    /// Serializes the trained model weights (selector, redundancy,
    /// ColorGNN) plus the routing thresholds. The graph library is
    /// rebuilt on load (it derives deterministically from the selector).
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn save<W: std::io::Write>(&self, mut writer: W) -> std::io::Result<()> {
        writer.write_all(b"MPLDFW01")?;
        writer.write_all(&self.redundancy_bar.to_le_bytes())?;
        writer.write_all(&self.ec_threshold.to_le_bytes())?;
        writer.write_all(&(self.colorgnn.restarts() as u64).to_le_bytes())?;
        self.selector.save_weights(&mut writer)?;
        self.redundancy.save_weights(&mut writer)?;
        self.colorgnn.save_weights(&mut writer)
    }

    /// FNV-64 digest of the serialized weights — the model fingerprint
    /// that keys persisted library/memo state. [`AdaptiveFramework::save`]
    /// and [`AdaptiveFramework::load`] round-trip byte-identically, so
    /// the digest is stable across processes for the same trained model.
    pub fn weights_digest(&self) -> u64 {
        let mut bytes = Vec::new();
        // Writing to a Vec cannot fail.
        let _ = self.save(&mut bytes);
        mpld_store::fnv64(&bytes)
    }

    /// Reconstructs a framework from [`AdaptiveFramework::save`] output.
    /// `cfg.library` controls the library rebuild; training-only fields of
    /// `cfg` are ignored.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on a format mismatch.
    pub fn load<R: std::io::Read>(
        reader: R,
        params: &DecomposeParams,
        cfg: &OfflineConfig,
    ) -> std::io::Result<AdaptiveFramework> {
        Self::load_with_library(reader, params, cfg, |_| None)
    }

    /// [`AdaptiveFramework::load`] with a library override: after the
    /// weights are deserialized, `library_source` is offered the loaded
    /// selector and may return a prebuilt library (e.g. one loaded from
    /// the persistent store) to skip the deterministic-but-costly
    /// enumeration rebuild. Returning `None` falls back to
    /// [`GraphLibrary::build`].
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on a format mismatch.
    pub fn load_with_library<R: std::io::Read>(
        mut reader: R,
        params: &DecomposeParams,
        cfg: &OfflineConfig,
        library_source: impl FnOnce(&RgcnClassifier) -> Option<GraphLibrary>,
    ) -> std::io::Result<AdaptiveFramework> {
        use std::io::{Error, ErrorKind};
        let mut magic = [0u8; 8];
        reader.read_exact(&mut magic)?;
        if &magic != b"MPLDFW01" {
            return Err(Error::new(
                ErrorKind::InvalidData,
                "bad framework-file magic",
            ));
        }
        let mut f32buf = [0u8; 4];
        reader.read_exact(&mut f32buf)?;
        let redundancy_bar = f32::from_le_bytes(f32buf);
        reader.read_exact(&mut f32buf)?;
        let ec_threshold = f32::from_le_bytes(f32buf);
        let mut u64buf = [0u8; 8];
        reader.read_exact(&mut u64buf)?;
        let restarts = u64::from_le_bytes(u64buf) as usize;

        let mut selector = RgcnClassifier::selector(0);
        selector.load_weights(&mut reader)?;
        let mut redundancy = RgcnClassifier::redundancy(0);
        redundancy.load_weights(&mut reader)?;
        let mut colorgnn = ColorGnn::new(0);
        colorgnn.load_weights(&mut reader)?;
        colorgnn.set_restarts(restarts.max(1));

        let library = library_source(&selector)
            .unwrap_or_else(|| GraphLibrary::build(&selector, &cfg.library, params));
        Ok(AdaptiveFramework {
            selector,
            redundancy,
            colorgnn,
            library,
            ilp: mpld_ilp::encode::BipDecomposer::new(),
            ec: EcDecomposer::new(),
            params: *params,
            redundancy_bar,
            ec_threshold,
            // Runtime-selectable; the CLI overrides it from
            // `--colorgnn` after loading.
            use_colorgnn: true,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::prepare;
    use mpld_layout::circuit_by_name;

    #[test]
    fn labels_are_consistent_with_costs() {
        let layout = circuit_by_name("C432").expect("exists").generate();
        let params = DecomposeParams::tpl();
        let prep = prepare(&layout, &params);
        let data = TrainingData::from_layouts(&[&prep], &params);
        assert_eq!(data.units.len(), prep.units.len());
        for i in 0..data.units.len() {
            let (ilp, ec) = (data.ilp_costs[i], data.ec_costs[i]);
            // ILP is optimal: never worse than EC.
            assert!(
                ilp.value(0.1) <= ec.value(0.1) + 1e-9,
                "unit {i}: ILP {ilp} worse than EC {ec}"
            );
            let label = data.selector_labels[i];
            if ilp.better_than(&ec, 0.1) {
                assert_eq!(label, 0);
            } else {
                assert_eq!(label, 1);
            }
        }
        // Redundancy labels cover exactly the stitch-bearing units.
        let stitchy = data.units.iter().filter(|g| g.has_stitches()).count();
        assert_eq!(data.redundancy_labels.len(), stitchy);
    }

    #[test]
    fn framework_save_load_round_trips_predictions() {
        let layout = circuit_by_name("C432").expect("exists").generate();
        let params = DecomposeParams::tpl();
        let prep = prepare(&layout, &params);
        let mut data = TrainingData::default();
        data.add_layout_capped(&prep, &params, 30);
        let mut cfg = OfflineConfig::default();
        cfg.rgcn.epochs = 2;
        cfg.colorgnn.epochs = 2;
        let fw = train_framework(&data, &params, &cfg);

        let mut buf = Vec::new();
        fw.save(&mut buf).expect("save");
        let loaded = AdaptiveFramework::load(buf.as_slice(), &params, &cfg).expect("load");

        assert_eq!(loaded.redundancy_bar, fw.redundancy_bar);
        assert_eq!(loaded.ec_threshold, fw.ec_threshold);
        assert_eq!(loaded.library.len(), fw.library.len());
        // Predictions must agree exactly (same weights).
        for unit in prep.units.iter().take(5) {
            let a = fw.selector.predict(&unit.hetero);
            let b = loaded.selector.predict(&unit.hetero);
            for (x, y) in a.iter().zip(&b) {
                assert!((x - y).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn duplicate_units_reuse_labels_without_resolving() {
        let layout = circuit_by_name("C432").expect("exists").generate();
        let params = DecomposeParams::tpl();
        let prep = prepare(&layout, &params);
        let mut data = TrainingData::default();
        data.add_layout_capped(&prep, &params, 40);
        let first_half = data.units.len();
        let first_deduped = data.deduped;
        // Adding the same layout again must dedup every unit against the
        // first pass and copy labels verbatim.
        data.add_layout_capped(&prep, &params, 40);
        assert_eq!(data.units.len(), 2 * first_half);
        assert_eq!(data.deduped, first_deduped + first_half);
        for i in 0..first_half {
            let j = first_half + i;
            assert!(data.rep_of[j] < first_half, "unit {j} was re-solved");
            assert_eq!(data.selector_labels[i], data.selector_labels[j]);
            assert_eq!(data.ilp_costs[i], data.ilp_costs[j]);
            assert_eq!(data.ec_costs[i], data.ec_costs[j]);
        }
        // rep_of is self-consistent: representatives are solved units.
        for (i, &r) in data.rep_of.iter().enumerate() {
            assert!(r <= i);
            assert_eq!(data.rep_of[r], r, "rep of {i} is itself a duplicate");
        }
    }

    #[test]
    fn train_report_counts_match_data() {
        let layout = circuit_by_name("C432").expect("exists").generate();
        let params = DecomposeParams::tpl();
        let prep = prepare(&layout, &params);
        let mut data = TrainingData::default();
        data.add_layout_capped(&prep, &params, 20);
        let mut cfg = OfflineConfig::default();
        cfg.rgcn.epochs = 1;
        cfg.colorgnn.epochs = 1;
        let (_, report) = train_framework_with_report(&data, &params, &cfg);
        assert_eq!(report.num_units, data.units.len());
        assert_eq!(report.num_redundancy_labeled, data.redundancy_labels.len());
        assert_eq!(report.deduped_units, data.deduped);
        assert!(report.selector_loss.is_finite());
        assert!(report.colorgnn_loss.is_finite());
    }

    #[test]
    fn redundancy_label_matches_ilp_stitches() {
        let layout = circuit_by_name("C432").expect("exists").generate();
        let params = DecomposeParams::tpl();
        let prep = prepare(&layout, &params);
        let data = TrainingData::from_layouts(&[&prep], &params);
        for &(i, label) in &data.redundancy_labels {
            assert_eq!(label == 0, data.ilp_costs[i].stitches == 0);
        }
    }
}
