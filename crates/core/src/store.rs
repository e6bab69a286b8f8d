//! Glue between the framework and the persistent store (`mpld-store`):
//! key derivation from a trained model and store-backed engine
//! construction.
//!
//! The store key binds persisted state to everything that could change
//! what a record means: the serialized-weights digest (model
//! provenance), `k`, `alpha` (bit-exact), the selector's embedding
//! dimension, and the library-config token. Retraining or
//! re-parameterising selects a *different* file; a header mismatch at
//! the keyed path moves the file aside. A stale match is never served.

use crate::engine::Engine;
use crate::framework::AdaptiveFramework;
use crate::training::OfflineConfig;
use mpld_graph::DecomposeParams;
use mpld_matching::{GraphLibrary, LibraryConfig};
use mpld_store::{LoadReport, StoreCaps, StoreKey};
use std::path::Path;

/// Compact textual token for the library-config knobs that shape which
/// graphs the library holds. Part of the store key: a store built with
/// different enumeration bounds must not be matched.
pub fn library_token(cfg: &LibraryConfig) -> String {
    format!(
        "p{}s{}n{}t{}",
        cfg.max_parent_size,
        cfg.max_splits,
        cfg.max_nodes,
        u8::from(cfg.stitches)
    )
}

/// Derives the store key for a model given by its serialized bytes.
/// The embedding dimension comes from the loaded selector
/// ([`mpld_gnn::RgcnClassifier::embedding_dim`]) so the key reflects the
/// architecture actually in use.
fn store_key(
    model_digest: u64,
    dim: usize,
    params: &DecomposeParams,
    lib_cfg: &LibraryConfig,
) -> StoreKey {
    StoreKey {
        model_digest,
        k: params.k,
        alpha: params.alpha,
        dim,
        library: library_token(lib_cfg),
    }
}

/// Builds a store-backed [`Engine`] from serialized model bytes:
///
/// 1. fingerprint the bytes (FNV-64) — the model provenance key;
/// 2. load the framework, sourcing the graph library from the store
///    when a complete, audit-clean dump under the matching key exists
///    (skipping the enumeration rebuild), else rebuilding and
///    persisting the dump for the next process;
/// 3. preload the store's verified tail solves into the engine's
///    solution caches and attach the append writer, so fresh solves
///    feed the next process (the flywheel).
///
/// Returns the engine plus the store's load report.
///
/// # Errors
///
/// `InvalidData` on a malformed model; real store I/O failures
/// (directory creation, open). Store *corruption* is never an error —
/// it degrades to re-solving, visible in the report.
pub fn engine_with_store(
    model_bytes: &[u8],
    params: &DecomposeParams,
    cfg: &OfflineConfig,
    store_dir: &Path,
    caps: StoreCaps,
    cache_cap: Option<usize>,
) -> std::io::Result<(Engine, LoadReport)> {
    engine_with_store_configured(model_bytes, params, cfg, store_dir, caps, cache_cap, |_| {})
}

/// [`engine_with_store`] with a framework hook: `configure` runs on the
/// loaded framework (e.g. to set `use_colorgnn`) before
/// it is frozen into the engine. Runtime knobs do not enter the store
/// key — only the serialized weights and layout params do.
#[allow(clippy::too_many_arguments)] // plumbing variant of engine_with_store
pub fn engine_with_store_configured(
    model_bytes: &[u8],
    params: &DecomposeParams,
    cfg: &OfflineConfig,
    store_dir: &Path,
    caps: StoreCaps,
    cache_cap: Option<usize>,
    configure: impl FnOnce(&mut AdaptiveFramework),
) -> std::io::Result<(Engine, LoadReport)> {
    let digest = mpld_store::fnv64(model_bytes);
    let mut opened = None;
    let mut open_err = None;
    let mut lib_loaded = false;
    let mut fw = AdaptiveFramework::load_with_library(
        std::io::Cursor::new(model_bytes),
        params,
        cfg,
        |selector| {
            let key = store_key(digest, selector.embedding_dim(), params, &cfg.library);
            match mpld_store::open(store_dir, &key, caps) {
                Ok(mut o) => {
                    let lib =
                        o.load.lib.take().map(|entries| {
                            GraphLibrary::from_entries(entries, cfg.library.max_nodes)
                        });
                    lib_loaded = lib.is_some();
                    opened = Some(o);
                    lib
                }
                Err(e) => {
                    open_err = Some(e);
                    None
                }
            }
        },
    )?;
    if let Some(e) = open_err {
        return Err(e);
    }
    let Some(opened) = opened else {
        // `load_with_library` always consults the source once the
        // weights deserialize; reaching here means they did not.
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "model deserialized but store was never opened",
        ));
    };
    configure(&mut fw);
    if !lib_loaded {
        // First process under this key: persist the freshly built
        // library so the next one skips the enumeration rebuild.
        opened.writer.append_lib(fw.library.entries());
    }
    let report = opened.load.report;
    Ok((
        Engine::with_store(fw, opened, lib_loaded, cache_cap),
        report,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_token_is_injective_over_knobs() {
        let base = LibraryConfig::default();
        let token = library_token(&base);
        assert_eq!(token, "p6s1n7t1");
        let no_stitch = LibraryConfig {
            stitches: false,
            ..base
        };
        assert_ne!(token, library_token(&no_stitch));
    }
}
