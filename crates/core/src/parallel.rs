//! Scoped worker-pool scheduling shared by every parallel path in the
//! framework: the single-engine pipeline, the adaptive ILP/EC tail, and
//! offline training-label generation.
//!
//! The scheduling policy is **largest-first work stealing**: job indices
//! are sorted by descending size and workers pull from a shared atomic
//! cursor. Layout decomposition runtime is dominated by a handful of large
//! exact-solver units (Fig. 9 of the paper: ILP decomposes ~2% of units
//! yet dominates end-to-end time), so starting the big units first bounds
//! the tail latency of the whole batch — a worker finishing a large unit
//! back-fills with small ones instead of the reverse.
//!
//! Results stream back to the calling thread over a channel as each job
//! completes ([`run_largest_first_streaming`]), so per-result side
//! effects (progress events, journal appends) run on one thread, in
//! completion order, without locks.
//!
//! Fault isolation: [`run_largest_first_streaming`] catches each job's
//! panic with `catch_unwind`, so one poisoned unit costs exactly that
//! unit — every other worker's completed result is still delivered.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Resolves the default worker count: the `MPLD_THREADS` environment
/// variable if set to a positive integer, otherwise
/// [`std::thread::available_parallelism`].
pub fn default_threads() -> usize {
    std::env::var("MPLD_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Renders a caught panic payload: `&str` / `String` payloads verbatim,
/// anything else as a placeholder.
pub fn panic_payload_string(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `job(i)` for every `i in 0..n` on up to `threads` scoped workers,
/// scheduling jobs in descending `size(i)` order, and returns the results
/// in index order.
///
/// With `threads <= 1` the jobs run on the calling thread (still in
/// largest-first order, so per-job side effects like timing accumulate in
/// the same schedule regardless of thread count). Worker panics propagate.
pub fn run_largest_first<T, S, J>(n: usize, threads: usize, size: S, job: J) -> Vec<T>
where
    T: Send,
    S: Fn(usize) -> usize,
    J: Fn(usize) -> T + Sync,
{
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    run_largest_first_streaming(n, threads, size, job, |i, r| match r {
        Ok(v) => slots[i] = Some(v),
        Err(payload) => panic!("{payload}"),
    });
    #[allow(clippy::expect_used)] // the cursor walks every index exactly once
    slots
        .into_iter()
        .map(|s| s.expect("every job index produced a result"))
        .collect()
}

/// Panic-quarantining, streaming [`run_largest_first`]: each job runs
/// under `catch_unwind`, and its result — or, for a job that panicked,
/// `Err(payload)` — goes to `done(i, result)` on the calling thread as
/// soon as the job completes, in completion order.
///
/// One panicking job costs exactly that job — all other results
/// (including those completed by the panicking worker before and after
/// the fault) are still delivered. The worker thread itself survives the
/// panic and keeps pulling jobs from the shared cursor. With
/// `threads <= 1` the jobs run on the calling thread in largest-first
/// order, each followed by its `done` call.
pub fn run_largest_first_streaming<T, S, J, D>(
    n: usize,
    threads: usize,
    size: S,
    job: J,
    mut done: D,
) where
    T: Send,
    S: Fn(usize) -> usize,
    J: Fn(usize) -> T + Sync,
    D: FnMut(usize, Result<T, String>),
{
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(size(i)));
    let guarded = |i: usize| -> Result<T, String> {
        catch_unwind(AssertUnwindSafe(|| job(i))).map_err(|p| panic_payload_string(p.as_ref()))
    };

    let threads = threads.max(1).min(n.max(1));
    if threads <= 1 {
        for &i in &order {
            done(i, guarded(i));
        }
        return;
    }
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let (tx, order, guarded, cursor) = (tx.clone(), &order, &guarded, &cursor);
            scope.spawn(move || loop {
                let k = cursor.fetch_add(1, Ordering::Relaxed);
                if k >= n {
                    break;
                }
                let i = order[k];
                // A dropped receiver means the caller is unwinding.
                if tx.send((i, guarded(i))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        for (i, r) in rx {
            done(i, r);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    /// Silences the default panic hook while a closure deliberately
    /// panics, restoring it afterwards (hooks are process-global).
    fn with_quiet_panics<R>(f: impl FnOnce() -> R) -> R {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r = f();
        std::panic::set_hook(hook);
        r
    }

    #[test]
    fn results_are_in_index_order() {
        for threads in [1, 2, 8] {
            let out = run_largest_first(20, threads, |i| i, |i| i * 10);
            assert_eq!(out, (0..20).map(|i| i * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<usize> = run_largest_first(0, 4, |_| 0, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let out = run_largest_first(
            100,
            8,
            |_| 1,
            |i| {
                counter.fetch_add(1, Ordering::Relaxed);
                i
            },
        );
        assert_eq!(counter.load(Ordering::Relaxed), 100);
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn single_thread_schedule_is_largest_first() {
        let trace = Mutex::new(Vec::new());
        let sizes = [3usize, 9, 1, 7];
        run_largest_first(4, 1, |i| sizes[i], |i| trace.lock().unwrap().push(i));
        assert_eq!(*trace.lock().unwrap(), vec![1, 3, 0, 2]);
    }

    /// The completed-work-preserved property: a panicking job must not
    /// discard results other workers (or the same worker, before and after
    /// the fault) already produced.
    #[test]
    fn panicking_job_preserves_all_completed_results() {
        for threads in [1, 2, 4] {
            let mut out: Vec<Option<Result<usize, String>>> = vec![None; 50];
            with_quiet_panics(|| {
                run_largest_first_streaming(
                    50,
                    threads,
                    |i| i,
                    |i| {
                        if i == 17 || i == 31 {
                            panic!("injected failure on job {i}");
                        }
                        i * 2
                    },
                    |i, r| assert!(out[i].replace(r).is_none(), "job {i} delivered twice"),
                )
            });
            let out: Vec<Result<usize, String>> = out
                .into_iter()
                .map(|r| r.expect("every job delivered"))
                .collect();
            assert_eq!(out.len(), 50);
            for (i, r) in out.iter().enumerate() {
                match r {
                    Ok(v) if i != 17 && i != 31 => assert_eq!(*v, i * 2),
                    Err(p) if i == 17 || i == 31 => {
                        assert!(p.contains("injected failure"), "payload: {p}")
                    }
                    other => panic!("job {i} produced {other:?}"),
                }
            }
        }
    }

    #[test]
    fn propagating_wrapper_still_panics() {
        let r = with_quiet_panics(|| {
            catch_unwind(AssertUnwindSafe(|| {
                run_largest_first(
                    4,
                    1,
                    |_| 1,
                    |i| {
                        if i == 2 {
                            panic!("boom");
                        }
                        i
                    },
                )
            }))
        });
        assert!(
            r.is_err(),
            "run_largest_first keeps the propagating contract"
        );
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
