//! # Adaptive layout decomposition with graph embedding neural networks
//!
//! A complete Rust implementation of the DAC 2020 / TCAD 2022 paper:
//! multiple patterning layout decomposition (MPLD) that *adaptively*
//! routes each simplified layout graph to the most suitable engine —
//! library matching, the ColorGNN message-passing decomposer, exact ILP,
//! or exact cover — using RGCN graph embeddings.
//!
//! ## Quick start
//!
//! ```no_run
//! use mpld::{prepare, train_framework, OfflineConfig, TrainingData};
//! use mpld_graph::DecomposeParams;
//! use mpld_layout::iscas_suite;
//!
//! let params = DecomposeParams::tpl();
//! let suite = iscas_suite();
//!
//! // Offline: prepare training layouts, label with the exact engines,
//! // train the GNNs, build the graph library.
//! let train_prep: Vec<_> = suite[..3]
//!     .iter()
//!     .map(|c| prepare(&c.generate(), &params))
//!     .collect();
//! let refs: Vec<_> = train_prep.iter().collect();
//! let data = TrainingData::from_layouts(&refs, &params);
//! let mut framework = train_framework(&data, &params, &OfflineConfig::default());
//!
//! // Online: adaptively decompose a held-out circuit.
//! let test = prepare(&suite[3].generate(), &params);
//! let result = framework.decompose_prepared(&test);
//! println!("{}: cost {}", test.name, result.pipeline.cost);
//! ```
//!
//! ## Crate map
//!
//! The workspace layers (each its own crate, re-exported here where it is
//! part of the user-facing flow): geometry → layout/benchmarks → graph
//! model & simplification → decomposition engines (`mpld-ilp`, `mpld-ec`,
//! `mpld-sdp`) → autograd + GNNs (`mpld-tensor`, `mpld-gnn`) → graph
//! library (`mpld-matching`) → this crate, the adaptive framework.

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod engine;
mod framework;
mod memo;
mod metrics;
pub mod parallel;
mod pipeline;
mod stats;
mod store;
mod summary;
mod tiled;
mod training;

pub use engine::{Engine, EngineStats, Progress, Session, DEFAULT_SEED};
pub use framework::{
    AdaptiveFramework, AdaptiveResult, BudgetBreakdown, BudgetPolicy, EngineKind, InferenceStats,
    Recovery, TimingBreakdown, UnitOutcome, UsageBreakdown,
};
pub use memo::{BatchPlan, EmbeddingMemo, DEFAULT_MAX_BATCH_NODES};
pub use metrics::ConfusionMatrix;
pub use mpld_matching::{ShardedGraphMap, ShardedMapStats};
pub use mpld_store::{json, Journal, JournalKey};
pub use parallel::default_threads;
pub use pipeline::{prepare, run_pipeline, PipelineResult, PreparedLayout, UnitInstance};
pub use stats::{layout_stats, LayoutStats};
pub use store::{engine_with_store, engine_with_store_configured, library_token};
pub use summary::{RunSummary, TiledRunSummary};
pub use tiled::{
    audit_boundary_units, peak_rss_bytes, prepare_tiled_file, TiledPrepared, TiledProgress,
    TiledStats, TilingConfig, DEFAULT_TILE_MULTIPLE,
};
pub use training::{
    train_framework, train_framework_with_report, OfflineConfig, TrainReport, TrainingData,
};

/// The reassembled global decomposition of a layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayoutDecomposition {
    /// Per-feature representative mask (exact for unsplit features; the
    /// first subfeature's mask for split features).
    pub feature_colors: Vec<u8>,
    /// Per-unit subfeature masks with merge permutations applied; parallel
    /// to [`PreparedLayout::units`].
    pub unit_subfeature_colorings: Vec<Vec<u8>>,
}
