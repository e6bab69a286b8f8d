//! Write-behind appending: records buffer in memory and hit the disk in
//! batches with a single `fsync` per batch, so the solve path never
//! blocks on durability. A `kill -9` between batches loses at most the
//! buffered tail plus one torn line — exactly what the loader's
//! torn-tail rule skips.
//!
//! One writer per file: a [`StoreWriter`] holds an exclusive
//! [`File::try_lock`] on its file for its whole lifetime. A second
//! writer — another process, or a second open in this one, since the
//! lock belongs to the open file description — still loads the file but
//! is read-only: its appends are counted as dropped.

use crate::format::{
    render_lib, render_lib_done, render_solve, render_unit, StoreKey, StoredSolve, UnitRecord,
};
use crate::reader::{load, StoreLoad};
use mpld_matching::LibraryEntry;
use std::fs::{File, OpenOptions, TryLockError};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Records buffered before a batched write + `sync_data`.
const FLUSH_EVERY: usize = 32;

/// Size/entry bounds for a long-lived store. `None` means unbounded.
/// Caps apply to appended solve records; the library dump (bounded by
/// construction) is always written.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCaps {
    /// Maximum solve records the file may hold.
    pub max_entries: Option<usize>,
    /// Maximum file size in bytes.
    pub max_bytes: Option<u64>,
}

/// Counters for one [`StoreWriter`]'s lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriterStats {
    /// Records accepted for append.
    pub appended: u64,
    /// Records dropped by the size/entry caps, or by a read-only writer.
    pub dropped: u64,
    /// Batched write+fsync cycles completed.
    pub flushes: u64,
    /// Append batches lost to I/O errors (best-effort persistence).
    pub io_errors: u64,
    /// Solve (or journal unit) records the file holds (loaded +
    /// appended).
    pub entries: u64,
    /// Approximate file size in bytes.
    pub bytes: u64,
    /// Whether another live writer held the file's lock at open, so this
    /// one appends nothing.
    pub read_only: bool,
}

struct Inner {
    file: File,
    pending: Vec<u8>,
    pending_records: usize,
    entries: u64,
    bytes: u64,
}

/// Thread-safe append handle for one store file (see module docs).
///
/// Persistence is best-effort by design: an I/O failure drops the
/// pending batch and bumps `io_errors` — correctness never depends on a
/// record reaching disk, only warmth does.
pub struct StoreWriter {
    inner: Mutex<Inner>,
    caps: StoreCaps,
    read_only: bool,
    appended: AtomicU64,
    dropped: AtomicU64,
    flushes: AtomicU64,
    io_errors: AtomicU64,
}

impl StoreWriter {
    /// Opens `path` for appending (creating it) and takes its lock. The
    /// lock holder writes `header` into an empty file and terminates a
    /// torn final line, so fresh appends start on their own line instead
    /// of concatenating into the tear; a writer that finds the lock taken
    /// is read-only and writes nothing.
    ///
    /// # Errors
    ///
    /// Open or write failures, and lock failures other than contention.
    pub(crate) fn open(
        path: &Path,
        header: &str,
        caps: StoreCaps,
        entries: u64,
    ) -> std::io::Result<Self> {
        let mut file = OpenOptions::new().create(true).append(true).open(path)?;
        let read_only = match file.try_lock() {
            Ok(()) => false,
            Err(TryLockError::WouldBlock) => true,
            Err(TryLockError::Error(e)) => return Err(e),
        };
        if !read_only {
            if file.metadata()?.len() == 0 {
                file.write_all(format!("{header}\n").as_bytes())?;
                file.sync_data()?;
            } else if !ends_with_newline(path)? {
                file.write_all(b"\n")?;
                file.sync_data()?;
            }
        }
        let bytes = file.metadata()?.len();
        Ok(StoreWriter {
            inner: Mutex::new(Inner {
                file,
                pending: Vec::new(),
                pending_records: 0,
                entries,
                bytes,
            }),
            caps,
            read_only,
            appended: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            io_errors: AtomicU64::new(0),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn flush_locked(&self, inner: &mut Inner) {
        if inner.pending.is_empty() {
            return;
        }
        let batch = std::mem::take(&mut inner.pending);
        inner.pending_records = 0;
        match inner
            .file
            .write_all(&batch)
            .and_then(|()| inner.file.sync_data())
        {
            Ok(()) => self.flushes.fetch_add(1, Ordering::Relaxed),
            Err(_) => self.io_errors.fetch_add(1, Ordering::Relaxed),
        };
    }

    fn push_locked(&self, inner: &mut Inner, line: &str) {
        inner.pending.extend_from_slice(line.as_bytes());
        inner.pending.push(b'\n');
        inner.pending_records += 1;
        inner.bytes += line.len() as u64 + 1;
        if inner.pending_records >= FLUSH_EVERY {
            self.flush_locked(inner);
        }
    }

    /// Queues one capped record; `None` (an unstorable certainty), cap
    /// overflows and a read-only writer drop it (counted), never errors.
    fn append_entry(&self, line: Option<String>) {
        let Some(line) = line.filter(|_| !self.read_only) else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let mut inner = self.lock();
        let over_entries = self
            .caps
            .max_entries
            .is_some_and(|cap| inner.entries as usize >= cap);
        let over_bytes = self
            .caps
            .max_bytes
            .is_some_and(|cap| inner.bytes + line.len() as u64 + 1 > cap);
        if over_entries || over_bytes {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        inner.entries += 1;
        self.appended.fetch_add(1, Ordering::Relaxed);
        self.push_locked(&mut inner, &line);
    }

    /// Queues one solve record. Uncacheable certainties and cap
    /// overflows are dropped (counted), never errors.
    pub fn append_solve(&self, solve: &StoredSolve) {
        self.append_entry(render_solve(solve));
    }

    /// Queues one settled tail unit of a job journal.
    pub fn append_unit(&self, unit: &UnitRecord) {
        self.append_entry(Some(render_unit(unit)));
    }

    /// Writes a complete library dump (entries + completion marker) and
    /// flushes immediately: the dump is the store's foundation and must
    /// be durable before solves start referencing warm state.
    pub fn append_lib(&self, entries: &[LibraryEntry]) {
        if self.read_only {
            self.dropped
                .fetch_add(entries.len() as u64, Ordering::Relaxed);
            return;
        }
        if entries.is_empty() {
            return;
        }
        let mut inner = self.lock();
        for e in entries {
            self.push_locked(&mut inner, &render_lib(e));
        }
        self.push_locked(&mut inner, &render_lib_done(entries.len()));
        self.flush_locked(&mut inner);
    }

    /// Forces the pending batch to disk.
    pub fn flush(&self) {
        let mut inner = self.lock();
        self.flush_locked(&mut inner);
    }

    /// Current counters.
    pub fn stats(&self) -> WriterStats {
        let inner = self.lock();
        WriterStats {
            appended: self.appended.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            io_errors: self.io_errors.load(Ordering::Relaxed),
            entries: inner.entries,
            bytes: inner.bytes,
            read_only: self.read_only,
        }
    }
}

impl Drop for StoreWriter {
    fn drop(&mut self) {
        let inner = self.inner.get_mut().unwrap_or_else(|e| e.into_inner());
        let batch = std::mem::take(&mut inner.pending);
        if !batch.is_empty()
            && inner
                .file
                .write_all(&batch)
                .and_then(|()| inner.file.sync_data())
                .is_err()
        {
            self.io_errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A store opened for serving: what the file already held, plus the
/// append handle for the flywheel.
pub struct OpenedStore {
    /// Verified contents loaded from disk.
    pub load: StoreLoad,
    /// Append handle for new tail solves.
    pub writer: StoreWriter,
}

fn ends_with_newline(path: &Path) -> std::io::Result<bool> {
    use std::io::{Read, Seek, SeekFrom};
    let mut f = File::open(path)?;
    if f.metadata()?.len() == 0 {
        return Ok(true);
    }
    f.seek(SeekFrom::End(-1))?;
    let mut buf = [0u8; 1];
    f.read_exact(&mut buf)?;
    Ok(buf[0] == b'\n')
}

/// Opens (creating as needed) the store for `key` under `dir`: loads and
/// verifies existing records, moves aside a key-mismatched file, and
/// returns an append handle seeded with the file's current entry/byte
/// counts (read-only when another live writer holds the file).
///
/// # Errors
///
/// Real I/O failures only (directory creation, open, lock, header
/// write).
pub fn open(dir: &Path, key: &StoreKey, caps: StoreCaps) -> std::io::Result<OpenedStore> {
    std::fs::create_dir_all(dir)?;
    let load = load(dir, key)?;
    let writer = StoreWriter::open(
        &key.path_in(dir),
        &key.header_line(),
        caps,
        load.report.solves as u64,
    )?;
    Ok(OpenedStore { load, writer })
}
