//! Chunked fan-out over independent run indices, shared by every figure
//! module.
//!
//! All the paper's sweeps have the same shape — `runs` independent
//! scenario draws whose outcomes are folded into per-point summaries — so
//! one helper owns the scoped-thread plumbing. Results come back in run
//! order regardless of thread scheduling, which keeps every aggregate
//! bit-identical to a sequential evaluation.

use std::thread;

/// Runs `f(run)` for `run` in `0..runs` on `threads` workers (`None`:
/// one per available core) and returns the results in run order.
///
/// The worker count is a parameter, never read from the environment here:
/// binaries resolve `--threads` / `HBH_THREADS` once at their edge
/// ([`threads_from_env`]) and pass the value down through their configs,
/// so tests can pin any count without touching process-global state.
///
/// Work is split into contiguous chunks (one per worker) so each thread's
/// scenario stream matches the sequential order — that is what lets the
/// per-thread routing-table cache in [`crate::scenario`] hit across group
/// sizes. With one worker this degrades to a plain sequential loop with
/// no thread spawn.
///
/// # Panics
/// Propagates any panic from `f` (a worker panic fails the whole sweep,
/// matching the sequential behaviour).
pub fn map_runs<T, F>(threads: Option<usize>, runs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = worker_count(threads).min(runs.max(1));
    if workers <= 1 {
        return (0..runs).map(f).collect();
    }
    let chunk = runs.div_ceil(workers);
    let f = &f;
    let mut out: Vec<T> = Vec::with_capacity(runs);
    thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .filter_map(|w| {
                let lo = w * chunk;
                let hi = runs.min(lo + chunk);
                (lo < hi).then(|| scope.spawn(move || (lo..hi).map(f).collect::<Vec<T>>()))
            })
            .collect();
        for h in handles {
            // Re-raise with the worker's own payload, so the caller sees
            // the original panic message rather than a generic one.
            match h.join() {
                Ok(part) => out.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    out
}

/// Worker count: `threads` when pinned to a positive count, else the
/// available parallelism.
fn worker_count(threads: Option<usize>) -> usize {
    threads
        .filter(|&n| n > 0)
        .unwrap_or_else(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The worker count pinned by the `HBH_THREADS` environment variable (any
/// positive integer; `HBH_THREADS=1` forces sequential execution), or
/// `None` when it is unset or invalid. For binaries only: library code
/// takes the count as a parameter.
pub fn threads_from_env() -> Option<usize> {
    parse_threads(std::env::var("HBH_THREADS").ok().as_deref())
}

/// Parses an `HBH_THREADS` value; zero and non-integers pin nothing.
fn parse_threads(value: Option<&str>) -> Option<usize> {
    value?.trim().parse().ok().filter(|&n| n > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_run_order() {
        for threads in [None, Some(1), Some(3), Some(32)] {
            let v = map_runs(threads, 17, |i| i * i);
            assert_eq!(v, (0..17).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn hbh_threads_env_pins_worker_count() {
        // The value is parsed without touching the process environment,
        // which other tests share.
        assert_eq!(parse_threads(Some("2")), Some(2));
        assert_eq!(parse_threads(Some(" 4\n")), Some(4));
        assert_eq!(parse_threads(Some("not-a-number")), None);
        assert_eq!(parse_threads(Some("0")), None, "zero pins nothing");
        assert_eq!(parse_threads(None), None);
        assert_eq!(worker_count(Some(2)), 2);
        assert!(worker_count(None) >= 1, "unpinned: the available cores");
        assert_eq!(worker_count(Some(0)), worker_count(None));
        let v = map_runs(Some(2), 9, |i| i + 1);
        assert_eq!(v, (1..=9).collect::<Vec<_>>());
    }

    #[test]
    fn zero_runs_is_empty() {
        assert!(map_runs(None, 0, |i| i).is_empty());
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        let _ = map_runs(Some(2), 4, |i| {
            if i == 2 {
                panic!("boom");
            }
            i
        });
    }
}
