//! Fault tolerance in the streaming tier: an injected mid-stream panic
//! must degrade one block (retry, then item-by-item salvage), never the
//! stream — the pipeline completes with full output and the salvage is
//! visible in stats and counters.
//!
//! Kept in its own test binary: the fault injector is process-global,
//! and this binary's single test owns it for its whole run.

use std::sync::Arc;
use std::time::Duration;

use snap_ast::builder::*;
use snap_ast::{Ring, Value};
use snap_parallel::{map_reduce, Pipeline, StreamConfig};
use snap_trace::well_known as metrics;
use snap_workers::{install_injector, FaultInjector, FaultPolicy};

#[test]
fn injected_panics_salvage_blocks_without_stalling_the_stream() {
    let mapper = Arc::new(Ring::reporter_with_params(
        vec!["w".into()],
        make_list(vec![var("w"), num(1.0)]),
    ));
    let reducer = Arc::new(Ring::reporter_with_params(
        vec!["vals".into()],
        combine_using(var("vals"), ring_reporter(add(empty_slot(), empty_slot()))),
    ));
    let words = ["the", "fox", "dog", "a", "the"];
    let items: Vec<Value> = (0..400).map(|i| words[i % words.len()].into()).collect();

    // Reference first, injector-free.
    let expected = map_reduce(mapper.clone(), reducer.clone(), items.clone(), 4).unwrap();

    // Every block attempt panics (panic_p = 1.0): each block burns its
    // retry, then the injector-free salvage pass recovers every item.
    // This is the worst fault load the tier can see short of the ring
    // itself panicking.
    install_injector(Some(FaultInjector::new(0xA8).panic_probability(1.0)));
    let panicked_before = metrics::POOL_JOBS_PANICKED.get();
    let retried_before = metrics::FAULT_RETRIES_SCHEDULED.get();
    let final_before = metrics::FAULT_FAILURES_FINAL.get();
    let salvaged_before = metrics::STREAM_BLOCKS_SALVAGED.get();
    let pipeline = Pipeline::new(StreamConfig {
        block_items: 32,
        policy: FaultPolicy::with_retries(1).backoff(Duration::ZERO),
        ..Default::default()
    })
    .map(mapper)
    .reduce_by_key(reducer, usize::MAX);
    let result = pipeline.run_with_stats(items);
    install_injector(None);

    let (streamed, stats) = result.unwrap();
    assert_eq!(streamed, expected, "salvaged stream must match the batch");
    assert_eq!(stats.items_dropped, 0, "salvage recovers every item");
    // 400 items / 32 per block = 13 blocks, each salvaged once, plus
    // the reduce window's own salvage.
    assert!(
        stats.blocks_salvaged >= 13,
        "every source block must be salvaged, got {}",
        stats.blocks_salvaged
    );
    assert_eq!(
        metrics::STREAM_BLOCKS_SALVAGED.get() - salvaged_before,
        stats.blocks_salvaged,
        "stats and the global counter must agree"
    );
    // Each salvaged block panicked twice (attempt + retry) before its
    // salvage pass; the windowed reduce adds its own.
    let panicked = metrics::POOL_JOBS_PANICKED.get() - panicked_before;
    assert!(panicked >= 26);
    // The fault contract: every panicked attempt was either rescheduled
    // or became a final failure — nothing double-counted, nothing lost.
    assert_eq!(
        panicked,
        (metrics::FAULT_RETRIES_SCHEDULED.get() - retried_before)
            + (metrics::FAULT_FAILURES_FINAL.get() - final_before),
        "jobs_panicked must reconcile with retries_scheduled + failures_final"
    );
}
