//! Chaos suite for the persistent native tier: workers are killed
//! mid-stream (poison frame), made to crash on every frame (a
//! deliberately broken binary), and recompiled under a new
//! content-addressed key — asserting the crash ladder (respawn exactly
//! once, then propagate so the caller falls back in-process) and the
//! staleness rule (a new binary retires the old warm worker; frames
//! never run stale code).
//!
//! Counters are process-global, so the counter-delta tests serialize on
//! one mutex; each uses its own program name so warm workers never
//! cross-talk.

use std::sync::{Arc, Mutex, OnceLock};

use snap_ast::builder::*;
use snap_ast::Ring;
use snap_codegen::harness::Harness;
use snap_codegen::openmp::emit_map_openmp;
use snap_codegen::worker::{compile_native_map, native_pool, NativeProgram, WorkerKind};
use snap_trace::well_known;

/// Serializes the counter-delta tests within this binary.
fn chaos_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn harness() -> Option<Harness> {
    match Harness::detect() {
        Ok(h) => Some(h),
        Err(e) => {
            eprintln!("codegen.toolchain_missing: {e} — skipping chaos test");
            None
        }
    }
}

/// A worker that performs the handshake, then exits before answering
/// any frame — every frame against it fails, driving the ladder to the
/// respawn and then to an error returned to the caller.
const CRASH_ALWAYS_C: &str = r#"#include <stdio.h>
#include <stdlib.h>
int main(int argc, char *argv[]) {
    (void) argc;
    (void) argv;
    printf("snap-native-worker 1 map\n");
    fflush(stdout);
    return 1;
}
"#;

/// Compile a crash-always map worker under `name`.
fn crash_always_program(harness: &Harness, name: &str) -> NativeProgram {
    let compiled = harness
        .compile(name, &[("crash.c", CRASH_ALWAYS_C)], false)
        .expect("crash-always source compiles");
    NativeProgram {
        name: name.to_owned(),
        binary: compiled.binary,
        kind: WorkerKind::Map,
    }
}

/// Poison mid-stream: the next frame finds a dead worker, respawns
/// exactly once, and answers with results identical to before the kill.
#[test]
fn poisoned_worker_respawns_exactly_once_with_identical_results() {
    if harness().is_none() {
        return;
    }
    let _guard = chaos_lock();
    let ring = Arc::new(Ring::reporter_with_params(
        vec!["x".into()],
        mul(var("x"), num(2.0)),
    ));
    let program = compile_native_map(&ring).expect("ring compiles");
    let inputs: Vec<f64> = (0..200).map(|i| i as f64 * 0.5 - 40.0).collect();
    let before_kill = native_pool()
        .map_frame(&program, &inputs)
        .expect("healthy frame");
    let pid_before = native_pool().worker_pid(&program.name);
    assert!(pid_before.is_some(), "worker is warm");

    let restarts_before = well_known::CODEGEN_WORKER_RESTARTS.get();
    let spawns_before = well_known::CODEGEN_WORKER_SPAWNS.get();
    assert!(
        native_pool().poison(&program.name),
        "poison reaches a live worker"
    );

    let after_kill = native_pool()
        .map_frame(&program, &inputs)
        .expect("frame after poison recovers");
    assert_eq!(
        after_kill, before_kill,
        "a worker crash must never change results"
    );
    assert_eq!(
        well_known::CODEGEN_WORKER_RESTARTS.get() - restarts_before,
        1,
        "exactly one respawn"
    );
    assert_eq!(
        well_known::CODEGEN_WORKER_SPAWNS.get() - spawns_before,
        1,
        "the respawn is one spawn"
    );
    let pid_after = native_pool().worker_pid(&program.name);
    assert!(pid_after.is_some());
    assert_ne!(pid_after, pid_before, "respawn is a fresh process");
}

/// A worker that dies on every frame: the ladder respawns once, the
/// retry also fails, and the error propagates (exactly one restart per
/// call — never a respawn storm).
#[test]
fn crash_always_worker_errors_after_exactly_one_restart() {
    let Some(harness) = harness() else { return };
    let _guard = chaos_lock();
    let program = crash_always_program(&harness, "chaos_crash_always");
    let restarts_before = well_known::CODEGEN_WORKER_RESTARTS.get();
    let err = native_pool().map_frame(&program, &[1.0, 2.0, 3.0]);
    assert!(err.is_err(), "crash-always worker cannot answer");
    assert_eq!(
        well_known::CODEGEN_WORKER_RESTARTS.get() - restarts_before,
        1,
        "one respawn attempt, then propagate"
    );
    native_pool().retire(&program.name);
}

/// The stale-binary rule: a recompile of the "same" program under a new
/// content-addressed key must retire the old warm worker — the very
/// next frame runs the new code, never the stale binary.
#[test]
fn recompile_under_new_key_retires_the_stale_worker() {
    let Some(harness) = harness() else { return };
    let _guard = chaos_lock();
    let doubler = Arc::new(Ring::reporter_with_params(
        vec!["x".into()],
        mul(var("x"), num(2.0)),
    ));
    let tripler = Arc::new(Ring::reporter_with_params(
        vec!["x".into()],
        mul(var("x"), num(3.0)),
    ));
    // Compile both sources under ONE pool name, as a recompile would:
    // the harness cache key (source hash) gives them different binaries.
    let name = "chaos_stale_worker";
    let compile = |ring: &Arc<Ring>| {
        let source = emit_map_openmp(ring).expect("ring translates");
        harness
            .compile(name, &[("map_program.c", &source)], true)
            .expect("ring compiles")
    };
    let v1 = NativeProgram {
        name: name.to_owned(),
        binary: compile(&doubler).binary,
        kind: WorkerKind::Map,
    };
    let v2 = NativeProgram {
        name: name.to_owned(),
        binary: compile(&tripler).binary,
        kind: WorkerKind::Map,
    };
    assert_ne!(
        v1.binary, v2.binary,
        "content addressing separates the builds"
    );

    let inputs = [1.0, 2.0, 3.0];
    assert_eq!(
        native_pool().map_frame(&v1, &inputs).expect("v1 frame"),
        vec![2.0, 4.0, 6.0]
    );
    let pid_v1 = native_pool().worker_pid(name);
    let reaped_before = well_known::CODEGEN_WORKER_REAPED.get();
    // Same pool name, new binary: the warm v1 worker must be retired,
    // not asked to serve v2's frame.
    assert_eq!(
        native_pool().map_frame(&v2, &inputs).expect("v2 frame"),
        vec![3.0, 6.0, 9.0],
        "frame after recompile must run the NEW code"
    );
    assert!(
        well_known::CODEGEN_WORKER_REAPED.get() > reaped_before,
        "stale worker retirement is counted"
    );
    assert_ne!(
        native_pool().worker_pid(name),
        pid_v1,
        "stale worker process is gone"
    );
    native_pool().retire(name);
}
