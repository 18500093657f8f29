//! Steady-state thread accounting for the pooled executor.
//!
//! The point of the persistent pool is that repeated `parallelMap`
//! invocations reuse worker threads instead of spawning fresh ones per
//! call (the Parallel.js behaviour the seed mirrored). This test drives
//! 100 consecutive `parallelMap` VM invocations through the worker
//! backend and asserts the process thread count is constant after the
//! first call — no per-call thread creation in the steady state.
//!
//! The streaming tier is held to the same rule: a pipeline sizes the
//! pool for the stage jobs actually running, so repeated runs leave the
//! pool's worker count unchanged, while two pipelines running at once
//! still each get their own workers.
//!
//! It lives in its own integration-test binary so it owns the process:
//! no other test's pool usage or scoped spawns can perturb the count.
//! The tests inside it take [`SERIAL`] so they do not perturb each
//! other either.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use snap_ast::builder::*;
use snap_ast::{Project, Ring, Script, SpriteDef, Value};
use snap_parallel::{Pipeline, StreamConfig};
use snap_vm::Vm;
use snap_workers::global_pool;

/// Serialises the tests of this binary: each one counts the process's
/// threads or the pool's workers.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Current thread count of this process, from `/proc/self/status`.
/// Returns `None` where procfs is unavailable (non-Linux hosts).
fn os_thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|rest| rest.trim().parse().ok())
}

/// One complete VM run of `say (parallelMap (( ) × 10) over [0..49]
/// with 4 workers)` using the default (pooled) worker backend.
fn run_parallel_map_vm() {
    let script = vec![say(parallel_map_with_workers(
        ring_reporter(mul(empty_slot(), num(10.0))),
        number_list((0..50).map(f64::from)),
        num(4.0),
    ))];
    let project = Project::new("steady")
        .with_sprite(SpriteDef::new("S").with_script(Script::on_green_flag(script)));
    let mut vm = Vm::new(project);
    snap_parallel::install(&mut vm);
    vm.green_flag();
    vm.run_until_idle();
    assert_eq!(vm.world.said(), vec!["[0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120, 130, 140, 150, 160, 170, 180, 190, 200, 210, 220, 230, 240, 250, 260, 270, 280, 290, 300, 310, 320, 330, 340, 350, 360, 370, 380, 390, 400, 410, 420, 430, 440, 450, 460, 470, 480, 490]"]);
}

#[test]
fn thread_count_is_constant_across_repeated_parallel_maps() {
    let _serial = serial();
    let Some(_) = os_thread_count() else {
        eprintln!("skipping: /proc/self/status not available on this host");
        return;
    };

    // First invocation may lazily create the global pool (and grow it to
    // the requested worker count); that is the only sanctioned spawn.
    run_parallel_map_vm();
    let baseline = os_thread_count().unwrap();

    let mut max_seen = baseline;
    for i in 0..100 {
        run_parallel_map_vm();
        let now = os_thread_count().unwrap();
        max_seen = max_seen.max(now);
        assert!(
            now <= baseline,
            "invocation {i}: thread count grew from {baseline} to {now} — \
             the pooled executor must not spawn threads in the steady state"
        );
    }
    assert_eq!(
        max_seen, baseline,
        "no invocation may exceed the post-warmup thread count"
    );
}

fn times_ten() -> Arc<Ring> {
    Arc::new(Ring::reporter(mul(empty_slot(), num(10.0))))
}

fn numbers(n: usize) -> Vec<Value> {
    (0..n).map(|i| Value::Number(i as f64)).collect()
}

#[test]
fn repeated_pipeline_runs_keep_the_pool_size() {
    let _serial = serial();
    let pipeline = Pipeline::new(StreamConfig {
        block_items: 16,
        ..Default::default()
    })
    .map(times_ten())
    .map(times_ten());
    let expected: Vec<Value> = (0..100).map(|i| Value::Number(i as f64 * 100.0)).collect();

    // The first run may grow the pool to fit its stage jobs.
    let (out, stats) = pipeline.run_with_stats(numbers(100)).unwrap();
    assert_eq!(out, expected);
    assert!(!stats.sequential, "the pipeline must run on the pool");
    let after_first = global_pool().workers();

    for run in 1..20 {
        let (out, stats) = pipeline.run_with_stats(numbers(100)).unwrap();
        assert_eq!(out, expected);
        assert!(!stats.sequential, "run {run} degraded to sequential");
        assert_eq!(
            global_pool().workers(),
            after_first,
            "run {run}: the pool grew from {after_first} workers — each run \
             must size the pool for the jobs running, not add its own to it"
        );
    }
}

/// Parks every caller until `parties` have arrived, or `timeout`
/// passes; reports whether everyone arrived.
struct Rendezvous {
    arrived: Mutex<usize>,
    all: Condvar,
    parties: usize,
}

impl Rendezvous {
    fn arrive(&self, timeout: Duration) -> bool {
        let mut arrived = self.arrived.lock().unwrap();
        *arrived += 1;
        self.all.notify_all();
        let (arrived, _) = self
            .all
            .wait_timeout_while(arrived, timeout, |n| *n < self.parties)
            .unwrap();
        *arrived >= self.parties
    }
}

#[test]
fn concurrent_pipelines_each_get_their_workers() {
    let _serial = serial();
    // Each pipeline's source job waits at the rendezvous before its
    // first item: both sources (and their stage jobs) must be live on
    // the pool at the same time for it to open.
    let rendezvous = Arc::new(Rendezvous {
        arrived: Mutex::new(0),
        all: Condvar::new(),
        parties: 2,
    });
    let met = Arc::new(AtomicUsize::new(0));
    let pipeline = Pipeline::new(StreamConfig {
        block_items: 8,
        stage_workers: 2,
        ..Default::default()
    })
    .map(times_ten())
    .filter(Arc::new(Ring::predicate(gt(empty_slot(), num(-1.0)))));
    let expected: Vec<Value> = (0..64).map(|i| Value::Number(i as f64 * 10.0)).collect();
    std::thread::scope(|scope| {
        let runs: Vec<_> = (0..2)
            .map(|_| {
                let (rendezvous, met, pipeline) = (rendezvous.clone(), met.clone(), &pipeline);
                scope.spawn(move || {
                    let mut first = true;
                    let source = numbers(64).into_iter().inspect(move |_| {
                        if std::mem::take(&mut first) && rendezvous.arrive(Duration::from_secs(20))
                        {
                            met.fetch_add(1, Ordering::SeqCst);
                        }
                    });
                    pipeline.run_with_stats(source).unwrap()
                })
            })
            .collect();
        for run in runs {
            let (out, stats) = run.join().unwrap();
            assert_eq!(out, expected);
            assert!(!stats.sequential, "each pipeline must run on the pool");
        }
    });
    assert_eq!(
        met.load(Ordering::SeqCst),
        2,
        "both pipelines' sources must have been running at once"
    );
}
