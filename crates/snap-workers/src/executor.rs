//! The pooled execution engine behind every parallel primitive.
//!
//! The paper's Parallel.js model spawns fresh Web Workers per call; the
//! seed mirrored that with one `std::thread::scope` per map. This module
//! is the persistent alternative: a process-wide [`WorkerPool`] is
//! created lazily on first use and every later `parallel map` reuses its
//! threads. Spawn-per-call survives as [`ExecMode::SpawnPerCall`] so the
//! `ablate_sched` / `pool_reuse` benches can quantify the spawn tax.
//!
//! Two more scheduler changes over the seed live here:
//!
//! * **Chunked dynamic claiming** — workers grab blocks of
//!   `max(1, len / (workers * 2))` indices ([`chunk_size`]) per atomic
//!   `fetch_add` instead of one, cutting contention on the claim counter
//!   by the chunk factor while still leaving ≈2 blocks per worker for
//!   load balance.
//! * **Disjoint gather** — each claimed index is written straight into
//!   its own result slot. Index ownership is exclusive by construction
//!   (chunks partition the range), so no mutex guards the output.
//!
//! The pool itself schedules by work-stealing (see [`crate::pool`]): a
//! call from a worker of the global pool pushes its task jobs onto that
//! worker's own deque and *helps* run them while waiting, so nested
//! `parallelMap`s parallelize instead of falling back to a serial
//! inline loop.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

use snap_trace::well_known as metrics;

use crate::fault::{attempt, injector, last_chance, ExecError, FaultPolicy};
use crate::parallel::{default_workers, Strategy};
use crate::pool::{on_pool_thread, Job, WaitGroup, WorkerPool};

/// How a parallel call obtains its worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Run on the shared, lazily created process-wide pool. Steady-state
    /// parallel calls create no threads.
    #[default]
    Pooled,
    /// Spawn scoped threads for this one call and join them before
    /// returning — the paper-faithful Parallel.js behaviour, kept for
    /// ablation.
    SpawnPerCall,
}

static GLOBAL_POOL: OnceLock<WorkerPool> = OnceLock::new();

/// The process-wide pool, created on first use with
/// [`default_workers`] threads.
pub fn global_pool() -> &'static WorkerPool {
    GLOBAL_POOL.get_or_init(|| {
        let pool = WorkerPool::new(default_workers());
        // Let `snap_trace::report()` show the shared pool's per-worker
        // utilization without reaching into this crate.
        snap_trace::register_global_workers(pool.executed_counters());
        pool
    })
}

/// Dynamic-scheduling block size: ~2 blocks per worker, never zero.
///
/// Two blocks per worker (down from the original four) still gives
/// dynamic claiming one round of rebalancing slack while halving the
/// per-block claim overhead — the a1_strategy_skewed ablation showed
/// four blocks losing to static scheduling on uniform numeric work.
pub fn chunk_size(len: usize, workers: usize) -> usize {
    (len / (workers.max(1) * 2)).max(1)
}

/// Minimum elements per columnar chunk. Claiming a chunk costs one
/// atomic fetch-add plus a pool hand-off; `eval_batch` needs at least a
/// few hundred elements per chunk for that overhead to vanish.
pub const COLUMNAR_MIN_CHUNK: usize = 256;

/// Chunk size for columnar (flat `f64`) maps: ~2 chunks per worker like
/// [`chunk_size`], but floored at [`COLUMNAR_MIN_CHUNK`] elements —
/// numeric batch work is so cheap per element that finer chunks are all
/// scheduling overhead. The floor applies only to the columnar tier;
/// latency-bound boxed maps keep the fine-grained sizing above.
pub fn columnar_chunk_size(len: usize, workers: usize) -> usize {
    chunk_size(len, workers).max(COLUMNAR_MIN_CHUNK)
}

/// Run `body(0..tasks)` concurrently and return once all calls finish.
///
/// `body` may borrow from the caller's stack: in pooled mode its
/// lifetime is erased for submission, which is sound because this
/// function never returns before every submitted job has completed
/// (completion tokens are dropped even when a job panics). A panic in
/// any `body` call is re-raised on the caller's thread after all tasks
/// finish, matching scoped-thread join semantics.
pub fn run_tasks(tasks: usize, mode: ExecMode, body: &(dyn Fn(usize) + Sync)) {
    if tasks == 0 {
        return;
    }
    if tasks == 1 {
        body(0);
        return;
    }
    match mode {
        ExecMode::SpawnPerCall => {
            metrics::EXEC_SPAWN_CALLS.incr();
            let _span = snap_trace::span!("exec.spawn_per_call", tasks);
            std::thread::scope(|scope| {
                for w in 0..tasks {
                    scope.spawn(move || body(w));
                }
            });
        }
        ExecMode::Pooled => {
            let pool = global_pool();
            if on_pool_thread() && !pool.on_worker_thread() {
                // Re-entrant parallel call from a worker of some *other*
                // pool: we cannot help-drain a foreign pool's queues, so
                // run inline rather than block one pool on another.
                metrics::EXEC_REENTRANT_INLINE.incr();
                for w in 0..tasks {
                    body(w);
                }
                return;
            }
            // From a worker of the global pool itself, submissions land
            // on this worker's own deque and the wait below helps run
            // them (work-stealing), so nested calls parallelize instead
            // of inlining serially.
            metrics::EXEC_POOLED_CALLS.incr();
            let _span = snap_trace::span!("exec.pooled", tasks);
            // Honour explicit oversubscription (latency-bound maps ask
            // for more workers than cores); growth is permanent, so the
            // steady state still spawns nothing.
            pool.ensure_workers(tasks);
            run_scoped_on_pool(pool, tasks, body);
        }
    }
}

/// Count and trace a panic caught at the scoped-executor level. These
/// jobs catch before the pool's own `run_job` guard can see the unwind,
/// so the accounting lives here; the panic is re-raised to the caller
/// after the wait, which makes it final (no retry budget on this path).
fn record_task_panic(w: usize, payload: &(dyn std::any::Any + Send)) {
    metrics::POOL_JOBS_PANICKED.incr();
    metrics::FAULT_FAILURES_FINAL.incr();
    snap_trace::note(
        "exec.task_panic",
        format!("task {w}: {}", crate::fault::panic_message(payload)),
    );
}

fn run_scoped_on_pool(pool: &WorkerPool, tasks: usize, body: &(dyn Fn(usize) + Sync)) {
    // SAFETY: the 'static lifetime is a lie told only to the job queues.
    // Every submitted job holds a WaitGroup token dropped when the job
    // finishes (including by panic, via catch_unwind), and we block on
    // the wait group before returning — `wait_helping` only returns
    // between jobs, once the group is done, and every inline run below
    // is wrapped in `catch_unwind` so no panic can unwind past the wait
    // — so no job can observe `body` after this frame is gone.
    let body_static: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(body) };
    let wg = WaitGroup::default();
    let panicked = Arc::new(AtomicBool::new(false));
    let run_inline = |w: usize| {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| body_static(w))) {
            record_task_panic(w, payload.as_ref());
            panicked.store(true, Ordering::SeqCst);
        }
    };
    // The caller participates: tasks 1.. go to the pool in one batch
    // (one queue lock, one wake-up for the whole scatter) while task 0
    // runs right here — the thread that would otherwise sit in
    // `wait_helping` claims chunks alongside the workers.
    let batch: Vec<Job> = (1..tasks)
        .zip(wg.tokens(tasks - 1))
        .map(|(w, token)| {
            let panicked = panicked.clone();
            Box::new(move || {
                let _token = token;
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| body_static(w))) {
                    record_task_panic(w, payload.as_ref());
                    panicked.store(true, Ordering::SeqCst);
                }
            }) as Job
        })
        .collect();
    let refused = pool.execute_batch(batch).is_err();
    run_inline(0);
    if refused {
        // The whole batch (and its tokens) was dropped by the refused
        // submission (shutdown race); run every index inline.
        for w in 1..tasks {
            metrics::POOL_JOBS_INLINE.incr();
            run_inline(w);
        }
    }
    pool.wait_helping(&wg);
    if panicked.load(Ordering::SeqCst) {
        resume_unwind(Box::new("a pooled parallel task panicked"));
    }
}

/// Pointer to the result slots, shareable across worker tasks.
///
/// Soundness rests on the scheduler: every index in `0..len` is claimed
/// by exactly one task (dynamic chunks come from a shared `fetch_add`;
/// static blocks partition the range), so writes are disjoint and the
/// caller does not read until all tasks have finished.
struct SlotWriter<R> {
    slots: *mut Option<R>,
    len: usize,
}

unsafe impl<R: Send> Send for SlotWriter<R> {}
unsafe impl<R: Send> Sync for SlotWriter<R> {}

impl<R> SlotWriter<R> {
    fn new(out: &mut [Option<R>]) -> SlotWriter<R> {
        SlotWriter {
            slots: out.as_mut_ptr(),
            len: out.len(),
        }
    }

    /// Write the result for `index`.
    ///
    /// # Safety
    /// `index` must be in range and claimed by exactly one task.
    unsafe fn write(&self, index: usize, value: R) {
        debug_assert!(index < self.len);
        *self.slots.add(index) = Some(value);
    }
}

/// Parallel map over a borrowed slice with an explicit execution mode.
/// Results come back in input order.
pub fn map_slice_with<T: Send + Sync, R: Send>(
    items: &[T],
    workers: usize,
    strategy: Strategy,
    mode: ExecMode,
    f: impl Fn(&T) -> R + Send + Sync,
) -> Vec<R> {
    let workers = workers.max(1).min(items.len().max(1));
    if workers <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    // The innermost span open on the *calling* thread (a `ring_map`, a
    // shuffle stage, …): chunk spans executed on pool workers link back
    // to it, so the scatter is causally stitched in the Chrome trace.
    let origin = snap_trace::current_span_id();
    let len = items.len();
    let mut out: Vec<Option<R>> = Vec::with_capacity(len);
    out.resize_with(len, || None);
    let slots = SlotWriter::new(&mut out);
    let next = AtomicUsize::new(0);
    let chunk = chunk_size(len, workers);

    let worker_body = |w: usize| match strategy {
        Strategy::Dynamic => loop {
            let start = next.fetch_add(chunk, Ordering::Relaxed);
            if start >= len {
                break;
            }
            metrics::EXEC_CHUNKS_CLAIMED.incr();
            let end = (start + chunk).min(len);
            let _span = snap_trace::span_linked_with("exec.chunk", "start", start as u64, origin);
            for (i, item) in items[start..end].iter().enumerate() {
                // SAFETY: fetch_add hands each block to one task.
                unsafe { slots.write(start + i, f(item)) };
            }
        },
        Strategy::Static => {
            let block = len.div_ceil(workers);
            let start = (w * block).min(len);
            let end = ((w + 1) * block).min(len);
            metrics::EXEC_CHUNKS_CLAIMED.incr();
            let _span = snap_trace::span_linked_with("exec.chunk", "start", start as u64, origin);
            for (i, item) in items[start..end].iter().enumerate() {
                // SAFETY: static blocks are disjoint per task index.
                unsafe { slots.write(start + i, f(item)) };
            }
        }
    };
    let map_span = snap_trace::span!("exec.map_slice", len);
    run_tasks(workers, mode, &worker_body);
    drop(map_span);

    out.into_iter()
        .map(|slot| slot.expect("every index processed exactly once"))
        .collect()
}

/// Fault-aware parallel map: like [`map_slice_with`], but each item runs
/// under `policy` — a panicked item is re-attempted up to
/// `policy.retries` times with exponential backoff, and the whole call
/// observes the policy deadline cooperatively (workers stop *claiming*
/// work once it passes; in-flight items always finish, because pooled
/// jobs borrow the caller's stack and can never be abandoned).
///
/// When the active [`FaultInjector`](crate::fault::FaultInjector) (see
/// [`crate::fault::install_injector`]) is configured, every attempt may
/// be injected with a delay or a panic, deterministically per
/// `(item index, attempt)`.
///
/// Items that exhaust their retry budget are salvaged by one final
/// sequential, injector-free pass on the caller's thread (counted under
/// `fault.items_reassigned`) — but only when the policy actually asked
/// for retries. With `retries == 0` the call reports
/// [`ExecError::RetriesExhausted`] on the first panic, which is the
/// seed's propagate-the-panic behaviour in `Result` form.
pub fn try_map_slice_with<T: Send + Sync, R: Send>(
    items: &[T],
    workers: usize,
    strategy: Strategy,
    mode: ExecMode,
    policy: &FaultPolicy,
    f: impl Fn(&T) -> R + Send + Sync,
) -> Result<Vec<R>, ExecError> {
    let len = items.len();
    if len == 0 {
        return Ok(Vec::new());
    }
    let started = Instant::now();
    let injector = injector();
    let expired = || matches!(policy.deadline, Some(d) if started.elapsed() >= d);
    let workers = workers.max(1).min(len);
    // Causal anchor for chunk, retry, and salvage spans (see
    // `map_slice_with`): the innermost span open on the calling thread.
    let origin = snap_trace::current_span_id();
    let mut out: Vec<Option<R>> = Vec::with_capacity(len);
    out.resize_with(len, || None);
    let failed: Mutex<Vec<(usize, String)>> = Mutex::new(Vec::new());
    let deadline_hit = AtomicBool::new(false);

    // One item through the shared attempt loop, on the sequential and
    // parallel paths alike. Returns the value on success; on budget
    // exhaustion records the failure (note + failed list) for the
    // salvage pass and returns None.
    let attempt_item = |index: usize, item: &T| -> Option<R> {
        match attempt(index as u64, policy, injector, origin, || f(item)) {
            Ok(value) => Some(value),
            Err(message) => {
                snap_trace::note(
                    "exec.item_failed",
                    format!(
                        "item {index} failed after {} retr(ies): {message}",
                        policy.retries
                    ),
                );
                failed
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push((index, message));
                None
            }
        }
    };

    if workers <= 1 || len <= 1 {
        for (index, item) in items.iter().enumerate() {
            if expired() {
                deadline_hit.store(true, Ordering::SeqCst);
                break;
            }
            if let Some(value) = attempt_item(index, item) {
                out[index] = Some(value);
            }
        }
    } else {
        let slots = SlotWriter::new(&mut out);
        let next = AtomicUsize::new(0);
        let chunk = chunk_size(len, workers);
        let worker_body = |w: usize| match strategy {
            Strategy::Dynamic => loop {
                let start = next.fetch_add(chunk, Ordering::Relaxed);
                if start >= len {
                    break;
                }
                // Deadline check after the claim: a skipped claimed chunk
                // guarantees unfilled slots, so a deadline error is never
                // reported for a run that actually completed everything.
                if expired() {
                    deadline_hit.store(true, Ordering::SeqCst);
                    break;
                }
                metrics::EXEC_CHUNKS_CLAIMED.incr();
                let end = (start + chunk).min(len);
                let _span =
                    snap_trace::span_linked_with("exec.chunk", "start", start as u64, origin);
                for (i, item) in items[start..end].iter().enumerate() {
                    if let Some(value) = attempt_item(start + i, item) {
                        // SAFETY: fetch_add hands each block to one task.
                        unsafe { slots.write(start + i, value) };
                    }
                }
            },
            Strategy::Static => {
                let block = len.div_ceil(workers);
                let start = (w * block).min(len);
                let end = ((w + 1) * block).min(len);
                if start < end {
                    metrics::EXEC_CHUNKS_CLAIMED.incr();
                }
                let _span =
                    snap_trace::span_linked_with("exec.chunk", "start", start as u64, origin);
                // A static block is one worker's whole share; walk it in
                // chunk-sized strides so the deadline is still observed
                // at a useful granularity.
                let mut cursor = start;
                while cursor < end {
                    if expired() {
                        deadline_hit.store(true, Ordering::SeqCst);
                        break;
                    }
                    let stop = (cursor + chunk).min(end);
                    for (i, item) in items[cursor..stop].iter().enumerate() {
                        if let Some(value) = attempt_item(cursor + i, item) {
                            // SAFETY: static blocks are disjoint per task.
                            unsafe { slots.write(cursor + i, value) };
                        }
                    }
                    cursor = stop;
                }
            }
        };
        let map_span = snap_trace::span!("exec.try_map_slice", len);
        run_tasks(workers, mode, &worker_body);
        drop(map_span);
    }

    if deadline_hit.load(Ordering::SeqCst) {
        let completed = out.iter().filter(|slot| slot.is_some()).count();
        metrics::FAULT_DEADLINES_EXCEEDED.incr();
        snap_trace::note(
            "exec.deadline_exceeded",
            format!("{completed}/{len} items completed before the deadline"),
        );
        return Err(ExecError::DeadlineExceeded {
            completed,
            total: len,
        });
    }

    let failed = failed.into_inner().unwrap_or_else(PoisonError::into_inner);
    if !failed.is_empty() {
        let last_message = failed.last().map(|(_, m)| m.clone()).unwrap_or_default();
        if policy.retries == 0 {
            return Err(ExecError::RetriesExhausted {
                failed_items: failed.len(),
                last_message,
            });
        }
        // Salvage pass: the retry budget was spent under injection, so
        // give the failed items one clean sequential run on the caller's
        // thread. A panic here is genuine (no injector) and final.
        metrics::FAULT_ITEMS_REASSIGNED.add(failed.len() as u64);
        let _salvage =
            snap_trace::span_linked_with("fault.salvage", "items", failed.len() as u64, origin);
        snap_trace::note(
            "exec.salvage",
            format!("re-running {} failed item(s) sequentially", failed.len()),
        );
        for (index, _) in &failed {
            match last_chance(|| f(&items[*index])) {
                Ok(value) => out[*index] = Some(value),
                Err(message) => {
                    snap_trace::note(
                        "exec.salvage_failed",
                        format!("item {index} failed without injection: {message}"),
                    );
                    return Err(ExecError::RetriesExhausted {
                        failed_items: failed.len(),
                        last_message: message,
                    });
                }
            }
        }
    }

    Ok(out
        .into_iter()
        .map(|slot| slot.expect("every index processed exactly once"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_size_leaves_two_blocks_per_worker() {
        assert_eq!(chunk_size(1000, 5), 100);
        assert_eq!(chunk_size(3, 8), 1);
        assert_eq!(chunk_size(0, 4), 1);
    }

    #[test]
    fn columnar_chunk_size_is_floored() {
        // Small inputs: one chunk swallows everything up to the floor.
        assert_eq!(columnar_chunk_size(1000, 4), COLUMNAR_MIN_CHUNK);
        // Large inputs: ~2 chunks per worker, same as chunk_size.
        assert_eq!(columnar_chunk_size(1_000_000, 4), 125_000);
    }

    #[test]
    fn pooled_matches_spawn_per_call() {
        let items: Vec<i64> = (0..503).collect();
        for strategy in [Strategy::Dynamic, Strategy::Static] {
            let pooled = map_slice_with(&items, 4, strategy, ExecMode::Pooled, |&n| n * 7);
            let spawned = map_slice_with(&items, 4, strategy, ExecMode::SpawnPerCall, |&n| n * 7);
            assert_eq!(pooled, spawned);
            assert_eq!(pooled, items.iter().map(|n| n * 7).collect::<Vec<_>>());
        }
    }

    #[test]
    fn pooled_map_borrows_stack_data() {
        let base = [10i64, 20, 30];
        let items: Vec<usize> = (0..base.len()).collect();
        let out = map_slice_with(&items, 2, Strategy::Dynamic, ExecMode::Pooled, |&i| {
            base[i] + 1
        });
        assert_eq!(out, vec![11, 21, 31]);
    }

    #[test]
    fn reentrant_pooled_map_does_not_deadlock() {
        let outer: Vec<i64> = (0..8).collect();
        let out = map_slice_with(&outer, 4, Strategy::Dynamic, ExecMode::Pooled, |&n| {
            let inner: Vec<i64> = (0..50).collect();
            map_slice_with(&inner, 4, Strategy::Dynamic, ExecMode::Pooled, |&m| m + n)
                .into_iter()
                .sum::<i64>()
        });
        let expected: Vec<i64> = (0..8).map(|n| (0..50).map(|m| m + n).sum()).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn panic_in_pooled_task_propagates_and_pool_survives() {
        let items: Vec<i64> = (0..64).collect();
        let result = catch_unwind(|| {
            map_slice_with(&items, 4, Strategy::Dynamic, ExecMode::Pooled, |&n| {
                if n == 13 {
                    panic!("boom");
                }
                n
            })
        });
        assert!(result.is_err(), "panic must reach the caller");
        // The pool is still healthy afterwards.
        let ok = map_slice_with(&items, 4, Strategy::Dynamic, ExecMode::Pooled, |&n| n + 1);
        assert_eq!(ok, items.iter().map(|n| n + 1).collect::<Vec<_>>());
    }

    #[test]
    fn try_map_with_zero_retries_matches_plain_map() {
        let items: Vec<i64> = (0..503).collect();
        let policy = FaultPolicy::default();
        let out = try_map_slice_with(
            &items,
            4,
            Strategy::Dynamic,
            ExecMode::Pooled,
            &policy,
            |&n| n * 7,
        )
        .unwrap();
        let plain = map_slice_with(&items, 4, Strategy::Dynamic, ExecMode::Pooled, |&n| n * 7);
        assert_eq!(out, plain);
    }

    #[test]
    fn retries_recover_flaky_items_in_order() {
        use std::sync::atomic::AtomicU32;
        let attempts: Vec<AtomicU32> = (0..100).map(|_| AtomicU32::new(0)).collect();
        let items: Vec<usize> = (0..100).collect();
        let policy = FaultPolicy::with_retries(2).backoff(std::time::Duration::ZERO);
        let out = try_map_slice_with(
            &items,
            4,
            Strategy::Dynamic,
            ExecMode::Pooled,
            &policy,
            |&i| {
                let n = attempts[i].fetch_add(1, Ordering::SeqCst);
                if i % 7 == 0 && n == 0 {
                    panic!("flaky item");
                }
                i * 3
            },
        )
        .unwrap();
        assert_eq!(out, items.iter().map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn zero_retry_failure_reports_retries_exhausted() {
        let items: Vec<i64> = (0..64).collect();
        let policy = FaultPolicy::default();
        let err = try_map_slice_with(
            &items,
            4,
            Strategy::Dynamic,
            ExecMode::Pooled,
            &policy,
            |&n| {
                if n == 13 {
                    panic!("boom-13");
                }
                n
            },
        )
        .unwrap_err();
        match err {
            ExecError::RetriesExhausted {
                failed_items,
                last_message,
            } => {
                assert_eq!(failed_items, 1);
                assert!(last_message.contains("boom-13"), "got: {last_message}");
            }
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn deadline_exceeded_is_reported_not_hung() {
        let items: Vec<u64> = (0..64).collect();
        let policy = FaultPolicy::default().deadline(std::time::Duration::from_millis(5));
        let err = try_map_slice_with(
            &items,
            2,
            Strategy::Dynamic,
            ExecMode::Pooled,
            &policy,
            |_| {
                std::thread::sleep(std::time::Duration::from_millis(2));
            },
        )
        .unwrap_err();
        match err {
            ExecError::DeadlineExceeded { completed, total } => {
                assert_eq!(total, 64);
                assert!(completed < total, "some work must have been skipped");
            }
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn exhausted_items_are_salvaged_sequentially_in_order() {
        use std::sync::atomic::AtomicU32;
        let attempts: Vec<AtomicU32> = (0..50).map(|_| AtomicU32::new(0)).collect();
        let items: Vec<usize> = (0..50).collect();
        let policy = FaultPolicy::with_retries(1).backoff(std::time::Duration::ZERO);
        // Items 3, 13, 23, 33, 43 fail on both in-worker attempts (the
        // whole retry budget) and only succeed on the third call — which
        // can only be the sequential salvage pass.
        let out = try_map_slice_with(
            &items,
            4,
            Strategy::Dynamic,
            ExecMode::Pooled,
            &policy,
            |&i| {
                let n = attempts[i].fetch_add(1, Ordering::SeqCst);
                if i % 10 == 3 && n < 2 {
                    panic!("needs salvage");
                }
                i + 1000
            },
        )
        .unwrap();
        assert_eq!(out, (0..50).map(|i| i + 1000).collect::<Vec<_>>());
    }

    #[test]
    fn global_pool_is_created_once() {
        let first = global_pool() as *const WorkerPool;
        let _ = map_slice_with(
            &(0..100).collect::<Vec<i64>>(),
            4,
            Strategy::Dynamic,
            ExecMode::Pooled,
            |&n| n,
        );
        let second = global_pool() as *const WorkerPool;
        assert_eq!(first, second);
    }
}
