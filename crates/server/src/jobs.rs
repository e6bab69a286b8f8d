//! Durable job identities and in-memory event logs for the server.
//!
//! Every `POST /decompose` resolves to a stable **job id** — either the
//! client-supplied `job_id` (validated to be filesystem-safe, since it
//! names the on-disk journal) or an id derived deterministically from the
//! request content and seed, so byte-identical re-submissions map to the
//! same job. The [`JobRegistry`] makes the id idempotent within one
//! server process: the first claim runs the decomposition, every later
//! claim (or `GET /jobs/<id>`) attaches to the same [`Job`] and replays
//! its NDJSON event log from the start, then follows live appends via a
//! condvar. Across restarts the registry starts empty and durability is
//! the journal's problem: re-claiming an id resumes from its JSONL
//! journal on disk.

use mpld_graph::Fnv64;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Finished jobs kept attachable in memory; the oldest beyond this are
/// evicted (their journals, if any, survive on disk).
pub const MAX_FINISHED_JOBS: usize = 64;

#[derive(Debug, Default)]
struct JobLog {
    lines: Vec<Arc<str>>,
    done: bool,
    failed: bool,
}

/// One job's append-only NDJSON event log, shared between the worker
/// running it and any number of attached followers.
#[derive(Debug, Default)]
pub struct Job {
    log: Mutex<JobLog>,
    cond: Condvar,
}

impl Job {
    fn lock(&self) -> MutexGuard<'_, JobLog> {
        // A follower observing a poisoned log still sees coherent lines;
        // the runner marks failure through `fail`, not via poisoning.
        self.log.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Appends one event line and wakes all followers.
    pub fn append(&self, line: &str) {
        let mut log = self.lock();
        log.lines.push(Arc::from(line));
        self.cond.notify_all();
    }

    /// Marks the job complete (`failed` records whether it ended in an
    /// error event) and wakes all followers for the final drain.
    pub fn finish(&self, failed: bool) {
        let mut log = self.lock();
        log.done = true;
        log.failed = failed;
        self.cond.notify_all();
    }

    /// Whether the job has finished (successfully or not).
    pub fn is_done(&self) -> bool {
        self.lock().done
    }

    /// Whether the job finished in failure.
    pub fn is_failed(&self) -> bool {
        let log = self.lock();
        log.done && log.failed
    }

    /// Returns the event lines at index `from..`, blocking up to
    /// `timeout` for news when none are pending, plus the done flag.
    /// A `(empty, false)` return is a timeout: the caller gets a chance
    /// to notice its peer hung up before waiting again.
    pub fn wait_events(&self, from: usize, timeout: Duration) -> (Vec<Arc<str>>, bool) {
        let mut log = self.lock();
        if log.lines.len() <= from && !log.done {
            let (next, _timed_out) = self
                .cond
                .wait_timeout(log, timeout)
                .unwrap_or_else(|e| e.into_inner());
            log = next;
        }
        (log.lines.get(from..).unwrap_or(&[]).to_vec(), log.done)
    }
}

/// Outcome of claiming a job id.
pub enum Claim {
    /// This caller owns the id: run the decomposition and feed the log.
    Run(Arc<Job>),
    /// Another caller (now or earlier) owns it: replay/follow its log.
    Attach(Arc<Job>),
}

/// The registry's guarded state: the id map plus insertion-ordered ids
/// for finished-job eviction.
type JobTable = (HashMap<String, Arc<Job>>, Vec<String>);

/// Process-local map from job id to live/finished [`Job`]s.
#[derive(Debug, Default)]
pub struct JobRegistry {
    jobs: Mutex<JobTable>,
}

impl JobRegistry {
    fn lock(&self) -> MutexGuard<'_, JobTable> {
        self.jobs.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Atomically claims `id`: the first claimant gets [`Claim::Run`],
    /// everyone else [`Claim::Attach`] on the same job. Claiming also
    /// evicts the oldest finished jobs beyond [`MAX_FINISHED_JOBS`].
    pub fn claim(&self, id: &str) -> Claim {
        let mut guard = self.lock();
        let (map, order) = &mut *guard;
        if let Some(job) = map.get(id) {
            return Claim::Attach(Arc::clone(job));
        }
        let job = Arc::new(Job::default());
        map.insert(id.to_string(), Arc::clone(&job));
        order.push(id.to_string());
        if order.len() > MAX_FINISHED_JOBS {
            // Evict oldest *finished* jobs only; running jobs stay.
            let mut kept = Vec::with_capacity(order.len());
            for old in order.drain(..) {
                let done = map.get(&old).is_some_and(|j| j.is_done());
                if done && map.len() > MAX_FINISHED_JOBS {
                    map.remove(&old);
                } else {
                    kept.push(old);
                }
            }
            *order = kept;
        }
        Claim::Run(job)
    }

    /// Looks up a job without claiming it.
    pub fn get(&self, id: &str) -> Option<Arc<Job>> {
        self.lock().0.get(id).map(Arc::clone)
    }

    /// Forgets a job id (used for failed jobs, so a retry re-runs
    /// instead of replaying the failure).
    pub fn remove(&self, id: &str) {
        let mut guard = self.lock();
        guard.0.remove(id);
        guard.1.retain(|j| j != id);
    }

    /// Number of registered (live + finished, unevicted) jobs.
    pub fn len(&self) -> usize {
        self.lock().0.len()
    }

    /// Whether no jobs are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Whether `id` is acceptable as a client-supplied job id: 1–64 chars of
/// `[A-Za-z0-9._-]`, not starting with a dot (ids name journal files).
pub fn valid_job_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= 64
        && !id.starts_with('.')
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
}

/// Derives a stable job id from request content and seed: identical
/// submissions (same circuit or byte-identical upload, same seed and
/// budget) land on the same job without the client naming one.
pub fn derive_job_id(kind: &str, content: &[u8], seed: u64, time_limit_ms: Option<u64>) -> String {
    let h = Fnv64::new()
        .bytes(kind.as_bytes())
        .bytes(&[0])
        .bytes(content)
        .bytes(&[0])
        .bytes(&seed.to_le_bytes())
        .bytes(&time_limit_ms.unwrap_or(u64::MAX).to_le_bytes())
        .finish();
    format!("j{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn claim_is_idempotent_and_attach_replays() {
        let reg = JobRegistry::default();
        let Claim::Run(job) = reg.claim("a") else {
            panic!("first claim must run");
        };
        job.append("{\"event\":\"unit\"}");
        let Claim::Attach(peer) = reg.claim("a") else {
            panic!("second claim must attach");
        };
        let (lines, done) = peer.wait_events(0, Duration::from_millis(10));
        assert_eq!(lines.len(), 1);
        assert!(!done);
        job.finish(false);
        let (rest, done) = peer.wait_events(1, Duration::from_millis(10));
        assert!(rest.is_empty());
        assert!(done && !job.is_failed());
    }

    #[test]
    fn failed_jobs_can_be_removed_for_retry() {
        let reg = JobRegistry::default();
        let Claim::Run(job) = reg.claim("boom") else {
            panic!("runs");
        };
        job.finish(true);
        assert!(job.is_failed());
        reg.remove("boom");
        assert!(matches!(reg.claim("boom"), Claim::Run(_)), "retry re-runs");
    }

    #[test]
    fn finished_jobs_are_evicted_beyond_cap_but_running_stay() {
        let reg = JobRegistry::default();
        let Claim::Run(running) = reg.claim("running") else {
            panic!("runs");
        };
        for i in 0..(MAX_FINISHED_JOBS + 10) {
            if let Claim::Run(j) = reg.claim(&format!("f{i}")) {
                j.finish(false);
            }
        }
        assert!(reg.len() <= MAX_FINISHED_JOBS + 1);
        assert!(reg.get("running").is_some(), "running job never evicted");
        drop(running);
    }

    #[test]
    fn job_id_validation_and_derivation() {
        assert!(valid_job_id("job-1.retry_2"));
        assert!(!valid_job_id(""));
        assert!(!valid_job_id(".hidden"));
        assert!(!valid_job_id("has/slash"));
        assert!(!valid_job_id("has space"));
        assert!(!valid_job_id(&"x".repeat(65)));

        let a = derive_job_id("circuit", b"C432", 7, None);
        assert_eq!(a, derive_job_id("circuit", b"C432", 7, None));
        assert_ne!(a, derive_job_id("circuit", b"C432", 8, None));
        assert_ne!(a, derive_job_id("circuit", b"C432", 7, Some(100)));
        assert_ne!(a, derive_job_id("upload", b"C432", 7, None));
        assert!(valid_job_id(&a));
    }
}
