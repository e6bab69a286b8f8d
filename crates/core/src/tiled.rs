//! Chip-scale tiled preprocessing: O(tile) geometry with exact
//! boundary-conflict stitching.
//!
//! Every layout file goes through here ([`prepare_tiled_file`]); layouts
//! already held in memory (circuits, uploads, library callers) are swept
//! whole by [`crate::prepare`]. The file is parsed once and its geometry
//! spilled to an unlinked store; the layout is then windowed into
//! overlapping tiles and conflict edges are discovered one tile at a
//! time, so the geometry working set is one tile (plus its halo), not
//! the chip.
//!
//! # Halo invariant
//!
//! Every feature is replicated to each tile whose window its bounding box,
//! expanded by the halo width `h >= d`, intersects. For any conflict pair
//! `(a, b)` (gap `< d`), pick the closest points `p ∈ bbox(a)`,
//! `q ∈ bbox(b)`: the tile whose window contains `p` holds `a` (its bbox
//! meets the window) *and* `b` (every axis gap from `bbox(b)` to `p` is
//! `< d <= h`), so at least one tile sees both endpoints and **no
//! cross-tile conflict edge is ever dropped**.
//!
//! # Exactly-once emission
//!
//! Replication means a pair can be discovered by several tiles. Both
//! replication tile-sets are clamped axis-aligned rectangles of tile
//! coordinates computable locally from the two bounding boxes, so each
//! tile emits the pair iff it is the minimum tile (smallest `ty`, then
//! `tx`) of their intersection — non-empty by the halo invariant, hence
//! every edge is emitted exactly once, with no cross-tile coordination.
//! The merged edge list is sorted and defensively deduplicated before
//! graph construction.
//!
//! # Parity contract
//!
//! The tiler reconstructs the **same conflict-edge set** as the whole
//! sweep ([`mpld_layout::Layout::conflict_edges`]) and hands it to the
//! preparation tail [`crate::prepare`] shares, with unit features read
//! back from the spill. The resulting [`PreparedLayout`] is structurally
//! identical, so [`crate::Engine`] solves it with the exact serial RNG
//! stream and every cost, coloring, and routing digest matches the whole
//! sweep bit for bit (asserted by `tests/tiled_parity.rs` against a
//! reference flow that shares no tail with either). What is bounded by
//! the tile is the *geometry* working set (features, spatial index,
//! candidate scratch); the id-level edge list, graph, and simplification
//! metadata remain O(N + E) with small constants — the memory model
//! DESIGN.md §12 spells out.

use crate::pipeline::{prepare_tail, PreparedLayout};
use crate::AdaptiveResult;
use mpld_geometry::{Feature, GridIndex, Rect};
use mpld_graph::{audit_coloring, DecomposeParams, MpldError};
use mpld_layout::{read_layout_streaming, ParseLayoutError, ReadLimits};
use std::io::{BufReader, BufWriter, Write};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Tiling knobs. Zeros mean "derive from the coloring distance".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TilingConfig {
    /// Tile side length in nm; `0` picks `DEFAULT_TILE_MULTIPLE * d`.
    pub tile_span: i64,
    /// Halo width in nm; `0` picks `d`. Values below `d` are clamped up
    /// to `d` — the halo invariant (module docs) is unsound below that.
    pub halo: i64,
    /// Worker threads for per-tile edge discovery (`0`/`1` = serial).
    /// Discovery is pure geometry, so thread count never changes results.
    pub threads: usize,
}

/// Default tile side as a multiple of the coloring distance.
pub const DEFAULT_TILE_MULTIPLE: i64 = 48;

impl Default for TilingConfig {
    fn default() -> Self {
        TilingConfig {
            tile_span: 0,
            halo: 0,
            threads: 1,
        }
    }
}

/// Counters describing one tiled preparation (committed to benches, so
/// everything here is a plain number).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TiledStats {
    /// Tile grid width and height.
    pub tiles_x: usize,
    /// Tile grid height.
    pub tiles_y: usize,
    /// Resolved tile side length in nm.
    pub tile_span: i64,
    /// Resolved halo width in nm.
    pub halo: i64,
    /// Features in the layout.
    pub features: usize,
    /// Rectangles in the layout.
    pub rects: usize,
    /// Sum of per-tile feature counts (replication included).
    pub replicated_features: usize,
    /// Largest per-tile feature count — the geometry working-set bound.
    pub max_tile_features: usize,
    /// Conflict edges discovered (equals the monolithic edge count).
    pub edges: usize,
    /// Edges whose endpoints live in different home tiles.
    pub boundary_edges: usize,
    /// Decomposition units belonging to boundary components; each one is
    /// a boundary subgraph re-solved whole (the reconciliation ladder of
    /// DESIGN.md §12) rather than stitched from per-tile guesses.
    pub boundary_resolves: usize,
}

/// A layout prepared through the tiler: the standard [`PreparedLayout`]
/// (solvable by every existing path), the tiling counters, and the unit
/// indices that straddle tile boundaries (for the independent re-audit).
#[derive(Debug)]
pub struct TiledPrepared {
    /// Structurally identical to what [`crate::prepare`] builds.
    pub prep: PreparedLayout,
    /// Tiling counters.
    pub stats: TiledStats,
    /// Indices into `prep.units` whose features span multiple home tiles.
    pub boundary_units: Vec<usize>,
}

/// Streaming progress of a tiled preparation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TiledProgress {
    /// The ingest scan finished (file variant: first pass over the file).
    Scanned {
        /// Features seen.
        features: usize,
        /// Rectangles seen.
        rects: usize,
    },
    /// The tile grid is fixed.
    Grid {
        /// Grid width in tiles.
        tiles_x: usize,
        /// Grid height in tiles.
        tiles_y: usize,
        /// Tile side in nm.
        tile_span: i64,
        /// Halo width in nm.
        halo: i64,
    },
    /// One tile finished edge discovery.
    Tile {
        /// Tile index (row-major).
        index: usize,
        /// Total tiles.
        total: usize,
        /// Features replicated into this tile.
        features: usize,
        /// Edges this tile emitted (after exactly-once filtering).
        edges: usize,
    },
    /// The global graph is assembled and simplified.
    Simplified {
        /// Conflict edges in the global graph.
        edges: usize,
        /// Decomposition units.
        units: usize,
        /// Units straddling tile boundaries.
        boundary_units: usize,
    },
}

/// The uniform tile grid over the layout bounding box.
#[derive(Debug, Clone, Copy)]
struct TileGrid {
    x0: i64,
    y0: i64,
    span: i64,
    nx: i64,
    ny: i64,
}

impl TileGrid {
    fn new(bbox: &Rect, span: i64) -> TileGrid {
        let nx = ((bbox.xh - bbox.xl).max(0) / span + 1).max(1);
        let ny = ((bbox.yh - bbox.yl).max(0) / span + 1).max(1);
        TileGrid {
            x0: bbox.xl,
            y0: bbox.yl,
            span,
            nx,
            ny,
        }
    }

    fn tile_count(&self) -> usize {
        (self.nx * self.ny) as usize
    }

    /// Clamped tile-coordinate rectangle covered by `bb` expanded by
    /// `margin` (the replication set for `margin == halo`).
    fn range(&self, bb: &Rect, margin: i64) -> (i64, i64, i64, i64) {
        let tx0 = (bb.xl - margin - self.x0).div_euclid(self.span).max(0);
        let tx1 = (bb.xh + margin - self.x0)
            .div_euclid(self.span)
            .min(self.nx - 1);
        let ty0 = (bb.yl - margin - self.y0).div_euclid(self.span).max(0);
        let ty1 = (bb.yh + margin - self.y0)
            .div_euclid(self.span)
            .min(self.ny - 1);
        (tx0, tx1, ty0, ty1)
    }

    /// The home tile of a feature: the (clamped) tile holding its
    /// bounding box's lower-left corner. Used only for boundary
    /// accounting, never for edge discovery.
    fn home(&self, bb: &Rect) -> u32 {
        let tx = (bb.xl - self.x0)
            .div_euclid(self.span)
            .clamp(0, self.nx - 1);
        let ty = (bb.yl - self.y0)
            .div_euclid(self.span)
            .clamp(0, self.ny - 1);
        (ty * self.nx + tx) as u32
    }
}

/// Append-only binary spill of feature geometry (`u32` rect count, then
/// `4 x i64` per rect), unlinked on creation so it can never outlive the
/// process. Record `i` spans bytes `offsets[i]..offsets[i + 1]`; the
/// offset table lives in memory, 8 bytes per feature. Reads are
/// positioned (`pread`), so tile workers share the store without a lock.
struct FeatureStore {
    file: std::fs::File,
    offsets: Vec<u64>,
}

static STORE_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Bytes the replication scan reads at a time (whole records; a larger
/// record is read alone).
const SCAN_CHUNK: u64 = 1 << 16;

impl FeatureStore {
    fn create() -> Result<FeatureStore, MpldError> {
        let path = std::env::temp_dir().join(format!(
            "mpld-tiled-{}-{}.spill",
            std::process::id(),
            STORE_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let file = std::fs::OpenOptions::new()
            .create_new(true)
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|e| MpldError::Io(format!("create {}: {e}", path.display())))?;
        // Unlink immediately: the open handle keeps the data alive and
        // the kernel reclaims it when the process exits, crash included.
        std::fs::remove_file(&path).map_err(|e| MpldError::Io(e.to_string()))?;
        Ok(FeatureStore {
            file,
            offsets: vec![0],
        })
    }

    fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Reads records `ids` (a half-open id range) into `buf` with one
    /// positioned read.
    fn read_run(&self, ids: std::ops::Range<usize>, buf: &mut Vec<u8>) -> Result<(), MpldError> {
        let start = self.offsets[ids.start];
        buf.resize((self.offsets[ids.end] - start) as usize, 0);
        self.file
            .read_exact_at(buf, start)
            .map_err(|e| MpldError::Io(format!("tiled feature store: {e}")))
    }

    /// Loads the features with the given ids, in order: one read per run
    /// of consecutive ids.
    fn read_features(&self, ids: &[u32]) -> Result<Vec<Feature>, MpldError> {
        let mut out = Vec::with_capacity(ids.len());
        let mut buf = Vec::new();
        for run in ids.chunk_by(|&a, &b| u64::from(b) == u64::from(a) + 1) {
            let first = run[0] as usize;
            self.read_run(first..first + run.len(), &mut buf)?;
            let mut records = buf.as_slice();
            for &id in run {
                let (rects, rest) = decode_record(records)?;
                out.push(Feature::new(id, rects.collect()));
                records = rest;
            }
        }
        Ok(out)
    }

    /// Calls `visit(id, bounding box)` for every feature in id order,
    /// reading the spill front to back in chunks of whole records and
    /// decoding only the bounding boxes.
    fn for_each_bbox(&self, mut visit: impl FnMut(u32, Rect)) -> Result<(), MpldError> {
        let mut buf = Vec::new();
        let mut first = 0;
        while first < self.len() {
            let limit = self.offsets[first] + SCAN_CHUNK;
            let end = (self.offsets.partition_point(|&o| o <= limit) - 1).max(first + 1);
            self.read_run(first..end, &mut buf)?;
            let mut records = buf.as_slice();
            for id in first..end {
                let (rects, rest) = decode_record(records)?;
                let bbox = rects
                    .reduce(|acc, r| acc.union(&r))
                    .ok_or_else(|| MpldError::Io(format!("spilled feature {id} has no rects")))?;
                visit(id as u32, bbox);
                records = rest;
            }
            first = end;
        }
        Ok(())
    }
}

/// Splits one spill record off the front of `bytes`: its rects, and the
/// bytes after it.
fn decode_record(bytes: &[u8]) -> Result<(impl Iterator<Item = Rect> + '_, &[u8]), MpldError> {
    let truncated = || MpldError::Io("tiled feature store: truncated record".into());
    let (len, rest) = bytes.split_first_chunk::<4>().ok_or_else(truncated)?;
    let n = u32::from_le_bytes(*len) as usize;
    if rest.len() < n * 32 {
        return Err(truncated());
    }
    let (record, rest) = rest.split_at(n * 32);
    let rects = record.chunks_exact(32).map(|c| {
        let coord = |i: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&c[i * 8..i * 8 + 8]);
            i64::from_le_bytes(b)
        };
        Rect::new(coord(0), coord(1), coord(2), coord(3))
    });
    Ok((rects, rest))
}

/// Serializes one feature into the spill format.
fn encode_feature(f: &Feature, out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(&(f.rects().len() as u32).to_le_bytes());
    for r in f.rects() {
        for v in [r.xl, r.yl, r.xh, r.yh] {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
}

/// Streaming tiled preparation from a layout file: the file is parsed
/// once, geometry is spilled to an unlinked on-disk store, and tiles load
/// only their own working set — the layout is never resident in memory.
/// The discovered edges then go through the same preparation tail as
/// [`crate::prepare`], with unit features read back from the spill.
///
/// # Errors
///
/// Parse errors from the layout file (with `limits` enforced as in
/// [`mpld_layout::read_layout_limited`]), I/O errors from the spill
/// store, and geometry the preparation tail rejects.
pub fn prepare_tiled_file(
    path: &Path,
    limits: &ReadLimits,
    params: &DecomposeParams,
    config: &TilingConfig,
    progress: &(dyn Fn(TiledProgress) + Sync),
) -> Result<TiledPrepared, MpldError> {
    let file =
        std::fs::File::open(path).map_err(|e| MpldError::Io(format!("{}: {e}", path.display())))?;
    let store = FeatureStore::create()?;
    let mut writer = BufWriter::new(store.file);
    let mut offsets = store.offsets;
    let mut pos = 0u64;
    let mut record = Vec::new();
    let mut bbox: Option<Rect> = None;
    let mut num_rects = 0usize;
    let header = read_layout_streaming(BufReader::new(file), limits, |f| {
        encode_feature(&f, &mut record);
        writer
            .write_all(&record)
            .map_err(|e| ParseLayoutError::Io(e.to_string()))?;
        pos += record.len() as u64;
        offsets.push(pos);
        num_rects += f.rects().len();
        let bb = f.bounding_box();
        bbox = Some(match bbox {
            Some(acc) => acc.union(&bb),
            None => bb,
        });
        Ok(())
    })
    .map_err(MpldError::from)?;
    let file = writer
        .into_inner()
        .map_err(|e| MpldError::Io(e.to_string()))?;
    let store = FeatureStore { file, offsets };
    let num_features = store.len();
    let d = header.d;
    progress(TiledProgress::Scanned {
        features: num_features,
        rects: num_rects,
    });

    let halo = if config.halo > 0 {
        config.halo.max(d)
    } else {
        d
    };
    let span = if config.tile_span > 0 {
        config.tile_span.max(1)
    } else {
        DEFAULT_TILE_MULTIPLE * d
    };
    let grid = TileGrid::new(&bbox.unwrap_or(Rect::new(0, 0, 1, 1)), span);
    let tiles = grid.tile_count();
    progress(TiledProgress::Grid {
        tiles_x: grid.nx as usize,
        tiles_y: grid.ny as usize,
        tile_span: span,
        halo,
    });

    // Replication pass: assign every feature to the tiles its halo-grown
    // bounding box touches, and record its home tile for boundary
    // accounting. One sequential sweep over the spill.
    let mut tile_features: Vec<Vec<u32>> = vec![Vec::new(); tiles];
    let mut home = vec![0u32; num_features];
    store.for_each_bbox(|id, bb| {
        home[id as usize] = grid.home(&bb);
        let (tx0, tx1, ty0, ty1) = grid.range(&bb, halo);
        for ty in ty0..=ty1 {
            for tx in tx0..=tx1 {
                tile_features[(ty * grid.nx + tx) as usize].push(id);
            }
        }
    })?;
    let replicated_features = tile_features.iter().map(Vec::len).sum();
    let max_tile_features = tile_features.iter().map(Vec::len).max().unwrap_or(0);

    // Edge discovery, one tile at a time, largest tile first through the
    // shared worker pool. Pure geometry: thread count cannot change the
    // discovered set, and the exactly-once rule (module docs) makes the
    // per-tile outputs disjoint.
    let threads = config.threads.max(1);
    let tile_edges: Vec<Result<Vec<(u32, u32)>, MpldError>> = crate::parallel::run_largest_first(
        tiles,
        threads,
        |t| tile_features[t].len(),
        |t| {
            let ids = &tile_features[t];
            let feats = store.read_features(ids)?;
            let tx_self = (t as i64) % grid.nx;
            let ty_self = (t as i64) / grid.nx;
            let index = GridIndex::build(&feats, d);
            let mut edges: Vec<(u32, u32)> = Vec::new();
            index.for_each_conflict_pair(&feats, d, |i, j| {
                let (ra, rb) = (
                    grid.range(&feats[i].bounding_box(), halo),
                    grid.range(&feats[j].bounding_box(), halo),
                );
                // Minimum tile (smallest ty, then tx) of the replication
                // intersection — the unique emitter of this pair.
                let tx_min = ra.0.max(rb.0);
                let ty_min = ra.2.max(rb.2);
                if tx_min == tx_self && ty_min == ty_self {
                    let (a, b) = (ids[i], ids[j]);
                    edges.push((a.min(b), a.max(b)));
                }
            });
            progress(TiledProgress::Tile {
                index: t,
                total: tiles,
                features: ids.len(),
                edges: edges.len(),
            });
            Ok(edges)
        },
    );
    drop(tile_features);
    let total = tile_edges
        .iter()
        .map(|r| r.as_ref().map_or(0, Vec::len))
        .sum();
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(total);
    for per_tile in tile_edges {
        edges.extend(per_tile?);
    }
    edges.sort_unstable();
    let before = edges.len();
    edges.dedup();
    debug_assert_eq!(before, edges.len(), "exactly-once emission was violated");

    let boundary_edges = edges
        .iter()
        .filter(|&&(a, b)| home[a as usize] != home[b as usize])
        .count();
    let num_edges = edges.len();

    // The same tail as `crate::prepare` — structural identity is what
    // buys bit-identical solves downstream.
    let prep = prepare_tail(header.name, d, num_features, edges, params, |ids| {
        store.read_features(ids)
    })?;

    let mut boundary_units = Vec::new();
    for (i, unit) in prep.simplified.units().iter().enumerate() {
        let first = home[unit.global_nodes[0] as usize];
        if unit.global_nodes.iter().any(|&g| home[g as usize] != first) {
            boundary_units.push(i);
        }
    }
    progress(TiledProgress::Simplified {
        edges: num_edges,
        units: prep.units.len(),
        boundary_units: boundary_units.len(),
    });

    let stats = TiledStats {
        tiles_x: grid.nx as usize,
        tiles_y: grid.ny as usize,
        tile_span: span,
        halo,
        features: num_features,
        rects: num_rects,
        replicated_features,
        max_tile_features,
        edges: num_edges,
        boundary_edges,
        boundary_resolves: boundary_units.len(),
    };
    Ok(TiledPrepared {
        prep,
        stats,
        boundary_units,
    })
}

/// Independent Eq. 1 re-audit of the boundary subgraphs: recomputes each
/// boundary unit's cost from its kept coloring and compares it to the
/// cost the solver reported. Returns `(audited, clean)` — `clean` is
/// false if any boundary unit's audit disagrees.
pub fn audit_boundary_units(
    prep: &PreparedLayout,
    result: &AdaptiveResult,
    boundary_units: &[usize],
    k: u8,
) -> (usize, bool) {
    let mut clean = true;
    for &i in boundary_units {
        let coloring = &result.pipeline.decomposition.unit_subfeature_colorings[i];
        match audit_coloring(&prep.units[i].hetero, coloring, k) {
            Ok(cost) if cost == result.pipeline.unit_costs[i] => {}
            _ => clean = false,
        }
    }
    (boundary_units.len(), clean)
}

/// Peak resident-set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), or `None` where procfs is unavailable.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpld_layout::{circuit_by_name, Layout};

    fn quiet() -> impl Fn(TiledProgress) + Sync {
        |_| {}
    }

    /// Writes `layout` to a fresh temp file and prepares it through the
    /// tiler, the geometry source production runs.
    fn via_file(layout: &Layout, config: &TilingConfig) -> TiledPrepared {
        static FILES: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "mpld-tiled-test-{}-{}.mpld",
            std::process::id(),
            FILES.fetch_add(1, Ordering::Relaxed)
        ));
        let mut buf = Vec::new();
        mpld_layout::write_layout(layout, &mut buf).expect("write");
        std::fs::write(&path, &buf).expect("write file");
        let tp = prepare_tiled_file(
            &path,
            &ReadLimits::unlimited(),
            &DecomposeParams::tpl(),
            config,
            &quiet(),
        )
        .expect("file prepare");
        std::fs::remove_file(&path).ok();
        tp
    }

    fn assert_same_prep(a: &PreparedLayout, b: &PreparedLayout) {
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.units.len(), b.units.len());
        for (x, y) in a.units.iter().zip(&b.units) {
            assert_eq!(x.hetero, y.hetero);
        }
    }

    #[test]
    fn tiled_prepare_matches_monolithic_on_a_circuit() {
        let layout = circuit_by_name("C432").expect("exists").generate();
        let serial = crate::prepare(&layout, &DecomposeParams::tpl());
        let tiled = via_file(&layout, &TilingConfig::default());

        assert_same_prep(&tiled.prep, &serial);
        assert_eq!(tiled.stats.features, layout.features.len());
        assert_eq!(tiled.stats.edges, serial.graph.conflict_edges().len());
    }

    #[test]
    fn small_tiles_force_boundary_units_without_changing_the_graph() {
        let layout = circuit_by_name("C432").expect("exists").generate();
        let serial = crate::prepare(&layout, &DecomposeParams::tpl());
        // Tiny tiles: every component straddles tiles, nothing changes.
        let config = TilingConfig {
            tile_span: 2 * layout.d,
            ..Default::default()
        };
        let tiled = via_file(&layout, &config);
        assert_eq!(tiled.prep.graph, serial.graph);
        assert!(tiled.stats.tiles_x * tiled.stats.tiles_y > 4);
        assert!(tiled.stats.boundary_edges > 0);
        assert!(tiled.stats.boundary_resolves > 0);
        assert_eq!(
            tiled.boundary_units.len(),
            tiled.stats.boundary_resolves,
            "boundary unit list and counter must agree"
        );
    }

    /// `layout` with its features renumbered in a shuffled order, so the
    /// id lists of tiles and units break into many short runs.
    fn shuffled(layout: &Layout, seed: u64) -> Layout {
        use rand::rngs::SmallRng;
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut order: Vec<&Feature> = layout.features.iter().collect();
        order.shuffle(&mut SmallRng::seed_from_u64(seed));
        Layout {
            name: layout.name.clone(),
            d: layout.d,
            features: order
                .iter()
                .enumerate()
                .map(|(id, f)| Feature::new(id as u32, f.rects().to_vec()))
                .collect(),
        }
    }

    #[test]
    fn file_variant_matches_in_memory() {
        let c432 = circuit_by_name("C432").expect("exists").generate();
        let small_tiles = TilingConfig {
            tile_span: 2 * c432.d,
            ..Default::default()
        };
        for layout in [c432.clone(), shuffled(&c432, 7)] {
            let serial = crate::prepare(&layout, &DecomposeParams::tpl());
            for config in [TilingConfig::default(), small_tiles] {
                let one = via_file(&layout, &config);
                let two = via_file(
                    &layout,
                    &TilingConfig {
                        threads: 2,
                        ..config
                    },
                );
                assert_same_prep(&one.prep, &serial);
                assert_same_prep(&two.prep, &serial);
                assert_eq!(one.stats, two.stats);
                assert_eq!(one.boundary_units, two.boundary_units);
            }
        }
    }

    #[test]
    fn peak_rss_is_reported_on_linux() {
        let rss = peak_rss_bytes();
        if cfg!(target_os = "linux") {
            assert!(rss.is_some_and(|b| b > 0), "VmHWM should parse: {rss:?}");
        }
    }
}
