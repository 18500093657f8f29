//! Fault accounting in the streaming reduce: with no retry budget,
//! every injected window attempt is a final failure, and the window's
//! injector-free last chance recovers it. Output must match the
//! fault-free run window for window, and the fault counters must
//! reconcile across both the farm and the window stage.
//!
//! Kept in its own test binary: the fault injector is process-global,
//! and this binary's single test owns it for its whole run.

use std::sync::Arc;
use std::time::Duration;

use snap_ast::builder::*;
use snap_ast::{Ring, Value};
use snap_parallel::{Pipeline, StreamConfig};
use snap_trace::well_known as metrics;
use snap_workers::{install_injector, FaultInjector, FaultPolicy};

#[test]
fn every_window_is_salvaged_and_counters_reconcile() {
    let mapper = Arc::new(Ring::reporter_with_params(
        vec!["w".into()],
        make_list(vec![var("w"), num(1.0)]),
    ));
    let reducer = Arc::new(Ring::reporter_with_params(
        vec!["vals".into()],
        combine_using(var("vals"), ring_reporter(add(empty_slot(), empty_slot()))),
    ));
    let words = ["red", "green", "blue"];
    let items: Vec<Value> = (0..300).map(|i| words[i % words.len()].into()).collect();
    let pipeline = Pipeline::new(StreamConfig {
        block_items: 25,
        policy: FaultPolicy::with_retries(0).backoff(Duration::ZERO),
        ..Default::default()
    })
    .map(mapper)
    .reduce_by_key(reducer, 100);

    let (expected, clean) = pipeline.run_with_stats(items.clone()).unwrap();
    assert_eq!(clean.blocks_salvaged, 0, "no faults, no salvage");

    install_injector(Some(FaultInjector::new(0x5A1).panic_probability(1.0)));
    let panicked_before = metrics::POOL_JOBS_PANICKED.get();
    let retried_before = metrics::FAULT_RETRIES_SCHEDULED.get();
    let final_before = metrics::FAULT_FAILURES_FINAL.get();
    let result = pipeline.run_with_stats(items);
    install_injector(None);

    let (streamed, stats) = result.unwrap();
    assert_eq!(
        streamed, expected,
        "salvaged windows must match the clean run"
    );
    assert_eq!(
        stats.items_dropped, 0,
        "the last chance recovers every window"
    );
    assert_eq!(stats.windows, clean.windows);
    // 300 items / 25 per block = 12 source blocks, plus every window.
    assert!(
        stats.blocks_salvaged >= 12 + stats.windows,
        "every block and window must be salvaged, got {} for {} windows",
        stats.blocks_salvaged,
        stats.windows
    );
    let panicked = metrics::POOL_JOBS_PANICKED.get() - panicked_before;
    let retried = metrics::FAULT_RETRIES_SCHEDULED.get() - retried_before;
    assert_eq!(retried, 0, "a zero budget schedules no retries");
    assert_eq!(
        panicked,
        metrics::FAULT_FAILURES_FINAL.get() - final_before,
        "with no retries, every panicked attempt is a final failure"
    );
}
