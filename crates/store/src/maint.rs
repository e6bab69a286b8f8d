//! Compaction: rewrite-and-swap. A long-lived store accumulates
//! superseded duplicates, orphaned dump fragments, and skipped corrupt
//! lines; compaction re-loads the file through the same verified path
//! the server uses, writes only the surviving records to a sibling
//! `.tmp`, fsyncs, and atomically renames over the original. A crash at
//! any point leaves either the old file or the new file — never a mix.
//! Compaction holds the file's single-writer lock throughout, and
//! refuses a file a live writer holds: renaming over an open append
//! handle would send that writer's later appends to the unlinked file.

use crate::format::{parse_header, render_lib, render_lib_done, render_solve};
use crate::reader::{verify_file, walk, Accumulated};
use std::fs::{File, TryLockError};
use std::io::Write;
use std::path::{Path, PathBuf};

/// What one [`compact_file`] run dropped and kept.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactReport {
    /// Deduplicated solve records rewritten.
    pub kept_solves: usize,
    /// Library entries rewritten (complete dump only).
    pub kept_lib: usize,
    /// Superseded duplicates dropped.
    pub dropped_superseded: usize,
    /// Malformed lines dropped.
    pub dropped_corrupt: usize,
    /// Audit-failed records dropped.
    pub dropped_audit: usize,
    /// Orphaned library fragments dropped.
    pub dropped_orphaned: usize,
    /// File size before compaction.
    pub bytes_before: u64,
    /// File size after compaction.
    pub bytes_after: u64,
}

/// Compacts one store file in place (rewrite-and-swap) while holding its
/// single-writer lock, so no live [`StoreWriter`](crate::StoreWriter)
/// can append to the file being replaced.
///
/// # Errors
///
/// [`ErrorKind::ResourceBusy`](std::io::ErrorKind::ResourceBusy) naming
/// the file when a live writer holds its lock (nothing is rewritten);
/// `InvalidData` when the header is unreadable (the file cannot be
/// keyed, so rewriting it would forge provenance); otherwise real I/O
/// failures only.
pub fn compact_file(path: &Path) -> std::io::Result<CompactReport> {
    let lock = File::open(path)?;
    match lock.try_lock() {
        Ok(()) => {}
        Err(TryLockError::WouldBlock) => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::ResourceBusy,
                format!("{}: locked by a live store writer", path.display()),
            ))
        }
        Err(TryLockError::Error(e)) => return Err(e),
    }
    let opened = |h: &str| parse_header(h).map(|hd| (h.to_string(), Accumulated::new(hd.k)));
    let walked = walk(path, opened, |(_, acc), line| acc.push(line))?;
    let bytes_before = walked.as_ref().map_or(0, |w| w.bytes);
    let Some((header_line, acc)) = walked.and_then(|w| w.state) else {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("{}: unreadable store header", path.display()),
        ));
    };
    let acc = acc.finish();

    let tmp = tmp_path(path);
    let mut out = File::create(&tmp)?;
    let mut buf = Vec::new();
    let mut push = |line: &str| {
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
    };
    push(&header_line);
    if let Some(lib) = &acc.lib {
        for e in lib {
            push(&render_lib(e));
        }
        push(&render_lib_done(lib.len()));
    }
    let mut kept_solves = 0usize;
    for line in acc.solves.iter().filter_map(render_solve) {
        push(&line);
        kept_solves += 1;
    }
    out.write_all(&buf)?;
    out.sync_all()?;
    drop(out);
    std::fs::rename(&tmp, path)?;

    Ok(CompactReport {
        kept_solves,
        kept_lib: acc.lib.as_ref().map_or(0, Vec::len),
        dropped_superseded: acc.superseded,
        dropped_corrupt: acc.skipped_corrupt,
        dropped_audit: acc.skipped_audit,
        dropped_orphaned: acc.orphaned,
        bytes_before,
        bytes_after: buf.len() as u64,
    })
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    PathBuf::from(tmp)
}

/// Compacts every store file under `dir` (sorted by name), returning
/// one report per file alongside its path.
///
/// # Errors
///
/// Propagates the first I/O failure; a missing directory yields an
/// empty list.
pub fn compact_dir(dir: &Path) -> std::io::Result<Vec<(PathBuf, CompactReport)>> {
    let mut out = Vec::new();
    for fs in crate::reader::scan_dir(dir)? {
        let report = compact_file(&fs.path)?;
        out.push((fs.path, report));
    }
    Ok(out)
}

/// Sanity helper for tests and the CLI: compact then verify the result
/// is clean.
///
/// # Errors
///
/// Same as [`compact_file`] / [`verify_file`].
pub fn compact_and_verify(path: &Path) -> std::io::Result<(CompactReport, bool)> {
    let report = compact_file(path)?;
    let verify = verify_file(path)?;
    Ok((report, verify.is_clean()))
}
