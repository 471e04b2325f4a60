//! The one batch primitive every campaign runs on: map a slice across a
//! few worker threads, contain each item's panic, and return results in
//! index order.
//!
//! The evaluation is small, fixed work (a 28-cell matrix, a fault grid,
//! a fuzz round, a five-row table), so there is no scheduler here:
//! item `i` runs on worker `i % jobs`, each worker walks its stripe in
//! index order, and the merge is by index. Every item is an independent
//! deterministic computation, so the result never depends on `jobs`.

use crate::session::panic_message;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The default worker count: the host's available parallelism, or 1
/// when it cannot be determined.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs `f` under `catch_unwind`, turning a panic into its message.
fn contained<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f))
        .map_err(|p| format!("panicked: {}", panic_message(p.as_ref())))
}

/// Maps `f` over `items` on `jobs` workers and returns one result per
/// item, in index order.
///
/// - `jobs` is clamped to `1..=items.len()`; `jobs == 1` runs on the
///   calling thread and spawns nothing.
/// - Each worker builds its state once with `init` (e.g. a pre-booted
///   fuzz rig) and hands it to `f` for every item of its stripe. An
///   `init` error fails that worker's items with the error.
/// - A panic in `f` fails only that item, with `"panicked: <message>"`;
///   the worker's state is reused for its next item.
pub fn striped_map<T, S, R>(
    items: &[T],
    jobs: usize,
    init: impl Fn() -> Result<S, String> + Sync,
    f: impl Fn(&mut S, &T) -> R + Sync,
) -> Vec<Result<R, String>>
where
    T: Sync,
    R: Send,
{
    let jobs = jobs.clamp(1, items.len().max(1));
    let stripe = |w: usize| -> Vec<Result<R, String>> {
        let mine = items.iter().skip(w).step_by(jobs);
        match contained(&init).and_then(|state| state) {
            Ok(mut state) => mine.map(|item| contained(|| f(&mut state, item))).collect(),
            Err(e) => mine.map(|_| Err(e.clone())).collect(),
        }
    };
    let stripes: Vec<Vec<Result<R, String>>> = if jobs == 1 {
        vec![stripe(0)]
    } else {
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..jobs)
                .map(|w| {
                    let stripe = &stripe;
                    scope.spawn(move || stripe(w))
                })
                .collect();
            workers
                .into_iter()
                .map(|h| h.join().expect("striped_map workers contain their panics"))
                .collect()
        })
    };
    let mut stripes: Vec<_> = stripes.into_iter().map(Vec::into_iter).collect();
    (0..items.len())
        .map(|i| {
            stripes[i % jobs]
                .next()
                .expect("stripe i % jobs holds item i")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_are_index_ordered_and_identical_for_any_jobs() {
        let items: Vec<u64> = (0..13).collect();
        let square = |_: &mut (), x: &u64| x * x;
        let serial = striped_map(&items, 1, || Ok(()), square);
        let expected: Vec<Result<u64, String>> = items.iter().map(|x| Ok(x * x)).collect();
        assert_eq!(serial, expected);
        for jobs in [2, 3, items.len() + 5] {
            assert_eq!(
                striped_map(&items, jobs, || Ok(()), square),
                expected,
                "jobs = {jobs}"
            );
        }
    }

    #[test]
    fn jobs_one_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ids = striped_map(&[0, 1, 2], 1, || Ok(()), |_, _| std::thread::current().id());
        assert!(ids.into_iter().all(|id| id == Ok(caller)));
    }

    #[test]
    fn a_panicking_item_fails_alone_at_any_jobs() {
        let items: Vec<u32> = (0..6).collect();
        for jobs in [1, 2, 4] {
            let out = striped_map(
                &items,
                jobs,
                || Ok(()),
                |_, &x| {
                    if x == 3 {
                        panic!("item {x} exploded");
                    }
                    x + 100
                },
            );
            assert_eq!(out.len(), items.len());
            for (i, r) in out.iter().enumerate() {
                if i == 3 {
                    let e = r.as_ref().expect_err("item 3 must fail");
                    assert!(e.contains("item 3 exploded"), "jobs {jobs}: {e}");
                } else {
                    assert_eq!(*r, Ok(i as u32 + 100), "jobs {jobs}: neighbour {i}");
                }
            }
        }
    }

    #[test]
    fn init_runs_once_per_worker_and_its_error_fails_that_workers_items() {
        let inits = AtomicUsize::new(0);
        let out = striped_map(
            &[10, 11, 12, 13, 14],
            2,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                Ok(0usize)
            },
            |seen: &mut usize, &x: &i32| {
                *seen += 1;
                (x, *seen)
            },
        );
        assert_eq!(inits.load(Ordering::Relaxed), 2);
        // Worker 0 holds items 0, 2, 4; worker 1 holds 1, 3. The state
        // counts the items its worker has run so far.
        let seen: Vec<(i32, usize)> = out.into_iter().map(Result::unwrap).collect();
        assert_eq!(seen, vec![(10, 1), (11, 1), (12, 2), (13, 2), (14, 3)]);

        let out = striped_map(
            &[1, 2, 3],
            3,
            || Err::<(), _>("no rig".to_string()),
            |_, &x: &i32| x,
        );
        assert!(
            out.iter()
                .all(|r| r.as_ref().err().map(String::as_str) == Some("no rig")),
            "{out:?}"
        );
    }

    #[test]
    fn an_empty_input_yields_no_results() {
        let out = striped_map(&[] as &[u8], 4, || Ok(()), |_, &x| x);
        assert!(out.is_empty());
    }
}
