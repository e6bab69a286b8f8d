use crate::{feature_distance_sq, Feature, Rect};
use std::collections::HashMap;

/// A uniform-grid spatial index over layout features.
///
/// The grid cell size is chosen as the coloring distance `d` plus the median
/// feature extent, so conflict-pair queries only need to inspect a feature's
/// own cell and its eight neighbors after expanding by `d`.
///
/// # Example
///
/// ```
/// use mpld_geometry::{Feature, GridIndex, Rect};
/// let feats = vec![
///     Feature::new(0, vec![Rect::new(0, 0, 50, 10)]),
///     Feature::new(1, vec![Rect::new(0, 50, 50, 60)]),
///     Feature::new(2, vec![Rect::new(0, 500, 50, 510)]),
/// ];
/// let index = GridIndex::build(&feats, 100);
/// let pairs = index.conflict_pairs(&feats, 100);
/// assert_eq!(pairs, vec![(0, 1)]); // feature 2 is far away
/// ```
#[derive(Debug, Clone)]
pub struct GridIndex {
    cell: i64,
    /// Map from (cell x, cell y) to the indices (positions in the feature
    /// slice, not `FeatureId`s) of features whose bounding box overlaps it.
    cells: HashMap<(i64, i64), Vec<usize>>,
}

impl GridIndex {
    /// Builds an index over `features` suited to queries at distance `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d <= 0`.
    pub fn build(features: &[Feature], d: i64) -> Self {
        assert!(d > 0, "coloring distance must be positive");
        let cell = (2 * d).max(1);
        let mut cells: HashMap<(i64, i64), Vec<usize>> = HashMap::new();
        for (idx, f) in features.iter().enumerate() {
            let bb = f.bounding_box();
            for key in Self::covered_cells(&bb, cell) {
                cells.entry(key).or_default().push(idx);
            }
        }
        GridIndex { cell, cells }
    }

    fn covered_cells(bb: &Rect, cell: i64) -> impl Iterator<Item = (i64, i64)> {
        let x0 = bb.xl.div_euclid(cell);
        let x1 = bb.xh.div_euclid(cell);
        let y0 = bb.yl.div_euclid(cell);
        let y1 = bb.yh.div_euclid(cell);
        (x0..=x1).flat_map(move |cx| (y0..=y1).map(move |cy| (cx, cy)))
    }

    /// All unordered pairs `(i, j)` with `i < j` of features whose exact gap
    /// distance is strictly less than `d`.
    ///
    /// Touching or overlapping features (distance zero) are included: on a
    /// single routed layer they cannot be separated onto different masks
    /// anyway, and the benchmark generator never produces them.
    pub fn conflict_pairs(&self, features: &[Feature], d: i64) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        self.for_each_conflict_pair(features, d, |i, j| pairs.push((i, j)));
        pairs.sort_unstable();
        pairs
    }

    /// Visits every unordered conflict pair `(i, j)` with `i < j` exactly
    /// once, without allocating a pair vector or per-query candidate lists.
    ///
    /// One scratch buffer is reused across all features, so the hot path is
    /// allocation-free after warm-up. Pairs are emitted grouped by `i` but in
    /// no particular order within a group; callers that need sorted output
    /// should collect and sort (see [`GridIndex::conflict_pairs`]).
    pub fn for_each_conflict_pair<F>(&self, features: &[Feature], d: i64, mut emit: F)
    where
        F: FnMut(usize, usize),
    {
        let dd = d * d;
        let mut scratch: Vec<usize> = Vec::new();
        for (i, f) in features.iter().enumerate() {
            let grown = f.bounding_box().expanded(d);
            scratch.clear();
            scratch.extend(
                Self::covered_cells(&grown, self.cell)
                    .filter_map(|key| self.cells.get(&key))
                    .flatten()
                    .copied()
                    .filter(|&j| j > i),
            );
            scratch.sort_unstable();
            scratch.dedup();
            for &j in &scratch {
                if feature_distance_sq(f, &features[j]) < dd {
                    emit(i, j);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wire(id: u32, x: i64, y: i64, len: i64) -> Feature {
        Feature::new(id, vec![Rect::new(x, y, x + len, y + 20)])
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_distance_panics() {
        let _ = GridIndex::build(&[], 0);
    }

    #[test]
    fn pairs_match_bruteforce() {
        // A small deterministic layout covering same-cell and cross-cell pairs.
        let mut feats = Vec::new();
        let mut id = 0;
        for row in 0..6 {
            for col in 0..6 {
                feats.push(wire(id, col * 130, row * 90, 100));
                id += 1;
            }
        }
        let d = 120;
        let index = GridIndex::build(&feats, d);
        let got = index.conflict_pairs(&feats, d);

        let mut expect = Vec::new();
        for i in 0..feats.len() {
            for j in (i + 1)..feats.len() {
                if feature_distance_sq(&feats[i], &feats[j]) < d * d {
                    expect.push((i, j));
                }
            }
        }
        assert_eq!(got, expect);
        assert!(!got.is_empty());
    }

    #[test]
    fn far_features_have_no_pairs() {
        let feats = vec![wire(0, 0, 0, 50), wire(1, 10_000, 10_000, 50)];
        let index = GridIndex::build(&feats, 120);
        assert!(index.conflict_pairs(&feats, 120).is_empty());
    }

    #[test]
    fn negative_coordinates_are_indexed() {
        let feats = vec![wire(0, -500, -500, 50), wire(1, -500, -460, 50)];
        let index = GridIndex::build(&feats, 120);
        assert_eq!(index.conflict_pairs(&feats, 120), vec![(0, 1)]);
    }

    #[test]
    fn callback_matches_collected_pairs() {
        let mut feats = Vec::new();
        let mut id = 0;
        for row in 0..8 {
            for col in 0..8 {
                feats.push(wire(id, col * 110 - 400, row * 85 - 300, 90));
                id += 1;
            }
        }
        let d = 120;
        let index = GridIndex::build(&feats, d);
        let collected = index.conflict_pairs(&feats, d);

        let mut via_callback = Vec::new();
        index.for_each_conflict_pair(&feats, d, |i, j| {
            assert!(i < j, "callback must emit ordered pairs");
            via_callback.push((i, j));
        });
        via_callback.sort_unstable();
        assert_eq!(via_callback, collected);

        // Exactly-once: no duplicates even for features spanning many cells.
        let mut deduped = via_callback.clone();
        deduped.dedup();
        assert_eq!(deduped.len(), via_callback.len());
    }
}
