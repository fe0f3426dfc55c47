//! The workspace's one persistent worker pool.
//!
//! [`crate::CoverageEngine`] evaluates parallel universes in bounded
//! windows and lane batches, all of which run on one [`WorkerPool`]: the
//! workers stay alive across windows — and, because the pool is shared
//! (`Arc`) with [`crate::CoverageEngine::with_test`] siblings, across the
//! thousands of candidate engines a search loop builds — so thread
//! creation is paid once, not once per window. The other fan-outs of the
//! stack (signature-dictionary trails, batched candidate scoring, fleet
//! batch diagnosis) run on a pool too, through
//! [`WorkerPool::map_chunks`].
//!
//! The pool offers a *scoped* execution primitive: jobs may borrow from
//! the caller's stack frame, and a call does not return until every job
//! has finished (or the pool panics the caller after all of them have
//! finished), which is what makes the lifetime erasure below sound.
//! Results come back in input order, so window verdict ordering — and
//! therefore every report — is bit-identical to the serial path
//! (property-tested in `tests/engine_streaming.rs`).
//!
//! **Invariant: a job never calls back into the pool it runs on.** The
//! caller of a fan-out blocks until its jobs finish; a job that fanned
//! out on the same pool from a worker thread could wait on tasks queued
//! behind itself, with every worker blocked the same way.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

/// A type-erased pool task.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// Sends one completion token when dropped — even if the task panicked —
/// so [`WorkerPool::run`] can always wait for *all* in-flight borrows to
/// end before unwinding.
struct DoneGuard(mpsc::Sender<()>);

impl Drop for DoneGuard {
    fn drop(&mut self) {
        let _ = self.0.send(());
    }
}

/// A fixed-size pool of persistent worker threads executing scoped jobs.
///
/// The thread that submits work acts as one more worker, so a fan-out
/// over `t` threads needs a pool of `t - 1`. See the
/// [module docs](self) for the invariant every job must keep.
#[derive(Debug)]
pub struct WorkerPool {
    /// Job intake; `None` after shutdown. A `Mutex` because `mpsc::Sender`
    /// is `!Sync` and the engine is `Sync`.
    sender: Mutex<Option<mpsc::Sender<Task>>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl WorkerPool {
    /// Spawns `workers` persistent threads (the calling thread of every
    /// fan-out acts as one more, so an engine resolved to `t` threads
    /// builds a pool of `t - 1` workers). Zero workers is valid: every
    /// job then runs on the caller.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        let (sender, receiver) = mpsc::channel::<Task>();
        let receiver = Arc::new(Mutex::new(receiver));
        let handles = (0..workers)
            .map(|_| {
                let receiver = Arc::clone(&receiver);
                std::thread::spawn(move || loop {
                    // Take the next task while holding the lock, then run
                    // it unlocked so workers execute concurrently.
                    let task = {
                        let receiver = receiver.lock().expect("pool receiver lock poisoned");
                        receiver.recv()
                    };
                    match task {
                        Ok(task) => {
                            // A panicking task must not kill the worker:
                            // its DoneGuard reports completion and `run`
                            // re-raises the panic on the calling thread.
                            let _ = catch_unwind(AssertUnwindSafe(task));
                        }
                        Err(_) => return, // pool dropped
                    }
                })
            })
            .collect();
        Self {
            sender: Mutex::new(Some(sender)),
            handles: Mutex::new(handles),
        }
    }

    /// Maps `f` over `items` in `chunks` contiguous chunks, one job per
    /// chunk, and returns the results in item order — identical to
    /// `items.iter().map(f).collect()` for any chunk count.
    ///
    /// The first chunk runs on the calling thread. Empty input returns
    /// an empty vector; `chunks` of 0 or 1, or more chunks than items,
    /// are fine (no chunk is ever empty). A panic in `f` is re-raised
    /// here after every chunk has finished, and the pool keeps serving.
    pub fn map_chunks<T, R, F>(&self, items: &[T], chunks: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        if chunks <= 1 || items.len() <= 1 {
            return items.iter().map(f).collect();
        }
        let f = &f;
        let jobs: Vec<_> = items
            .chunks(items.len().div_ceil(chunks))
            .map(|chunk| move || chunk.iter().map(f).collect::<Vec<R>>())
            .collect();
        self.run(jobs).into_iter().flatten().collect()
    }

    /// Runs `jobs` to completion, returning their results in job order.
    ///
    /// Job 0 executes on the calling thread (the caller is a worker too);
    /// the rest are dispatched to the pool. The call blocks until **every**
    /// job has finished — also when a pool job panics, in which case the
    /// panic is re-raised here after the remaining jobs have completed, so
    /// no borrow of the caller's frame can outlive the call.
    pub(crate) fn run<'env, T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        T: Send + 'env,
        F: FnOnce() -> T + Send + 'env,
    {
        if jobs.is_empty() {
            return Vec::new();
        }
        let submitted = jobs.len() - 1;
        let (result_tx, result_rx) = mpsc::channel::<(usize, T)>();
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let mut jobs = jobs.into_iter();
        let first = jobs.next();

        {
            let sender = self.sender.lock().expect("pool sender lock poisoned");
            let sender = sender.as_ref().expect("pool used after shutdown");
            for (slot, job) in jobs.enumerate() {
                let result_tx = result_tx.clone();
                let done = DoneGuard(done_tx.clone());
                let task: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
                    let _done = done;
                    let value = job();
                    let _ = result_tx.send((slot + 1, value));
                });
                // SAFETY: the task borrows data that lives for 'env, which
                // outlives this call. `run` does not return (normally or by
                // unwinding) until the task has dropped its DoneGuard —
                // i.e. until the task body, and with it every use of the
                // borrow, has ended — so the erased lifetime can never be
                // observed dangling.
                let task: Task =
                    unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Task>(task) };
                sender.send(task).expect("pool workers exited prematurely");
            }
        }
        drop(result_tx);
        drop(done_tx);

        // The caller's own job can panic too; catch it so the completion
        // barrier below always runs, then re-raise.
        let first_result = first.map(|job| catch_unwind(AssertUnwindSafe(job)));

        // Wait for every dispatched task to finish (panicked or not) before
        // touching the results — the soundness barrier described above.
        for _ in 0..submitted {
            done_rx
                .recv()
                .expect("pool worker vanished with a task in flight");
        }
        let first_result = match first_result {
            Some(Ok(value)) => Some(value),
            Some(Err(panic)) => std::panic::resume_unwind(panic),
            None => None,
        };

        let mut slots: Vec<Option<T>> = Vec::new();
        slots.resize_with(submitted + 1, || None);
        if let Some(value) = first_result {
            slots[0] = Some(value);
        }
        let mut received = 0usize;
        for (slot, value) in result_rx.try_iter() {
            slots[slot] = Some(value);
            received += 1;
        }
        assert!(
            received == submitted,
            "a pool task panicked ({received}/{submitted} results)"
        );
        slots
            .into_iter()
            .map(|slot| slot.expect("every job produced a result"))
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channel ends the worker loops; join so no detached
        // thread outlives the engine that owns the pool.
        if let Ok(mut sender) = self.sender.lock() {
            *sender = None;
        }
        if let Ok(mut handles) = self.handles.lock() {
            for handle in handles.drain(..) {
                let _ = handle.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_job_order() {
        let pool = WorkerPool::new(3);
        let data: Vec<usize> = (0..17).collect();
        let jobs: Vec<_> = data
            .iter()
            .map(|&n| move || n * 2) // borrows `data` via the captured reference
            .collect();
        let results = pool.run(jobs);
        assert_eq!(results, (0..17).map(|n| n * 2).collect::<Vec<_>>());
        // The chunked map keeps item order for every chunk count, including
        // more chunks than items.
        for chunks in 0..=data.len() + 3 {
            assert_eq!(
                pool.map_chunks(&data, chunks, |&n| n * 2),
                results,
                "{chunks} chunks"
            );
        }
    }

    #[test]
    fn pool_is_reusable_and_shared_across_runs() {
        let pool = Arc::new(WorkerPool::new(2));
        for round in 0..10 {
            let results = pool.run((0..5).map(|n| move || n + round).collect::<Vec<_>>());
            assert_eq!(results, (0..5).map(|n| n + round).collect::<Vec<_>>());
        }
        // Concurrent runs from several threads interleave safely.
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let pool = Arc::clone(&pool);
                scope.spawn(move || {
                    for _ in 0..20 {
                        let results = pool.run((0..7).map(|n| move || n * n).collect::<Vec<_>>());
                        assert_eq!(results, (0..7).map(|n| n * n).collect::<Vec<_>>());
                    }
                });
            }
        });
    }

    #[test]
    fn single_job_runs_on_the_caller() {
        let pool = WorkerPool::new(1);
        let caller = std::thread::current().id();
        let results = pool.run(vec![move || std::thread::current().id() == caller]);
        assert_eq!(results, vec![true]);
    }

    #[test]
    fn empty_job_list_is_a_no_op() {
        let pool = WorkerPool::new(1);
        let results: Vec<u8> = pool.run(Vec::<fn() -> u8>::new());
        assert!(results.is_empty());
        for chunks in 0..3 {
            assert!(pool.map_chunks(&[] as &[u8], chunks, |&n| n).is_empty());
        }
    }

    #[test]
    fn panicking_job_propagates_after_the_window_completes() {
        let pool = WorkerPool::new(2);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            pool.run(
                (0..4)
                    .map(|n| {
                        move || {
                            assert!(n != 2, "job 2 fails");
                            n
                        }
                    })
                    .collect::<Vec<_>>(),
            )
        }));
        assert!(outcome.is_err());
        // The pool survives a panicked window.
        assert_eq!(pool.run(vec![|| 7]), vec![7]);

        // Chunked map: item 1 ends the caller's chunk by panicking, and no
        // pool item finishes before that panic has started; the panic
        // surfaces only once all of them have finished.
        let panicking = AtomicBool::new(false);
        let finished = AtomicUsize::new(0);
        let items: Vec<usize> = (0..8).collect();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            pool.map_chunks(&items, 4, |&n| {
                if n == 1 {
                    panicking.store(true, Ordering::SeqCst);
                    panic!("item 1 fails");
                }
                if n >= 2 {
                    while !panicking.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    // Outlast the caller's unwind, so a pool that re-raised
                    // early would be caught with items unfinished.
                    std::thread::sleep(std::time::Duration::from_millis(10));
                }
                finished.fetch_add(1, Ordering::SeqCst);
            })
        }));
        assert!(outcome.is_err());
        assert_eq!(finished.into_inner(), 7);
        assert_eq!(
            pool.map_chunks(&items, 4, |&n| n + 1),
            (1..9).collect::<Vec<_>>()
        );
    }
}
