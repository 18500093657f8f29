//! Acceptance tests for map-side combining on the word-count corpus.
//!
//! The contract: on a realistic Zipf word corpus the combiner must cut
//! grouped pairs by **at least 5×** while leaving the `mapReduce`
//! output — values *and* group ordering — bit-for-bit identical to the
//! uncombined reference (every mapper pair through `shuffle_seq`).

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use snap_ast::builder::*;
use snap_ast::{BinOp, Ring, Value};
use snap_data::generate_words;
use snap_parallel::{combine_pairs, map_reduce_with_options, shuffle_seq};
use snap_trace::well_known as metrics;
use snap_workers::{ring_map_pairs, ring_reduce_groups, ExecMode, RingMapOptions};

/// The combine counters are process-global: tests that read their deltas
/// hold this lock so sibling tests cannot add to them meanwhile.
fn counters_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn word_count_mapper() -> Arc<Ring> {
    Arc::new(Ring::reporter_with_params(
        vec!["w".into()],
        make_list(vec![var("w"), num(1.0)]),
    ))
}

fn word_count_reducer() -> Arc<Ring> {
    Arc::new(Ring::reporter_with_params(
        vec!["vals".into()],
        combine_using(var("vals"), ring_reporter(add(empty_slot(), empty_slot()))),
    ))
}

/// The corpus used by the acceptance check: large enough that every
/// worker chunk sees each common word many times.
fn corpus(n: usize) -> Vec<Value> {
    generate_words(n, 42).into_iter().map(Value::from).collect()
}

#[test]
fn combiner_cuts_pairs_at_least_five_fold_on_word_corpus() {
    // Deterministic, directly on the combiner: 20k Zipf words over a
    // bounded vocabulary, 4 chunks → at most 4 × vocabulary pairs out.
    let pairs: Vec<(Value, Value)> = corpus(20_000)
        .into_iter()
        .map(|w| (w, Value::Number(1.0)))
        .collect();
    let n_in = pairs.len();
    let _counters = counters_lock();
    let combined_before = metrics::SHUFFLE_PAIRS_COMBINED.get();
    let runs_before = metrics::SHUFFLE_COMBINE_RUNS.get();
    let out = combine_pairs(pairs, BinOp::Add, 4, ExecMode::Pooled);
    assert!(
        out.len() * 5 <= n_in,
        "expected ≥5× pair reduction, got {} -> {}",
        n_in,
        out.len()
    );
    // The trace counters record exactly what was eliminated.
    assert_eq!(
        metrics::SHUFFLE_PAIRS_COMBINED.get() - combined_before,
        (n_in - out.len()) as u64
    );
    assert_eq!(metrics::SHUFFLE_COMBINE_RUNS.get() - runs_before, 1);
    // Totals survive: the partial sums still add up to the corpus size.
    let total: f64 = out.iter().map(|(_, v)| v.to_number()).sum();
    assert_eq!(total, n_in as f64);
}

#[test]
fn combined_map_reduce_output_is_identical_to_uncombined() {
    // End-to-end mapReduce on the word-count corpus: the folding shuffle
    // and the uncombined reference must agree exactly, across worker
    // counts, including output order.
    let items = corpus(8_000);
    for workers in [1, 2, 4, 8] {
        let options = RingMapOptions {
            workers,
            ..Default::default()
        };
        let _counters = counters_lock();
        let on = map_reduce_with_options(
            word_count_mapper(),
            word_count_reducer(),
            items.clone(),
            options,
        )
        .unwrap();
        let pairs = ring_map_pairs(word_count_mapper(), items.clone(), options).unwrap();
        let off = ring_reduce_groups(word_count_reducer(), shuffle_seq(pairs), options).unwrap();
        assert_eq!(on, off, "workers={workers}");
    }
}

#[test]
fn auto_policy_combines_on_the_word_corpus() {
    // The default path must actually fold in the shuffle for the
    // associative word-count reducer.
    let items = corpus(4_000);
    let _counters = counters_lock();
    let before = metrics::SHUFFLE_PAIRS_COMBINED.get();
    let options = RingMapOptions {
        workers: 4,
        ..Default::default()
    };
    let out =
        map_reduce_with_options(word_count_mapper(), word_count_reducer(), items, options).unwrap();
    assert!(!out.is_empty());
    // The corpus vocabulary is ~105 words; 4 chunks keep at most
    // 4 × 105 pairs, so at least 4000 − 420 must have been eliminated.
    let eliminated = metrics::SHUFFLE_PAIRS_COMBINED.get() - before;
    assert!(
        eliminated >= 4_000 - 4 * 105,
        "the shuffle barely combined: only {eliminated} pairs eliminated"
    );
}

#[test]
fn combine_pairs_counts_eliminated_pairs() {
    let pairs: Vec<(Value, Value)> = (0..100)
        .map(|i| (Value::Number((i % 5) as f64), 1.into()))
        .collect();
    let _counters = counters_lock();
    let before = metrics::SHUFFLE_PAIRS_COMBINED.get();
    let out = combine_pairs(pairs, BinOp::Add, 2, ExecMode::Pooled);
    // 2 chunks × 5 keys = 10 surviving pairs, 90 eliminated.
    assert_eq!(out.len(), 10);
    assert_eq!(metrics::SHUFFLE_PAIRS_COMBINED.get() - before, 90);
}

#[test]
fn nan_among_numerals_groups_alike_at_every_worker_count() {
    // 256 numeral words over 50 numerals, every ninth word "NaN". NaN
    // is equal to nothing, so each of the 29 NaN words is its own row,
    // after the 50 numerals, which each appear exactly once.
    let words: Vec<Value> = (0..256)
        .map(|i| match i % 9 {
            0 => Value::text("NaN"),
            _ => Value::text((i % 50).to_string()),
        })
        .collect();
    let _counters = counters_lock();
    let render = |workers: usize| -> Vec<String> {
        snap_parallel::map_reduce(
            word_count_mapper(),
            word_count_reducer(),
            words.clone(),
            workers,
        )
        .unwrap()
        .iter()
        .map(Value::to_display_string)
        .collect()
    };
    let one = render(1);
    assert_eq!(one.len(), 79);
    for (n, row) in one[..50].iter().enumerate() {
        let count = words
            .iter()
            .filter(|w| w.to_display_string() == n.to_string())
            .count();
        assert_eq!(*row, format!("[{n}, {count}]"));
    }
    assert!(one[50..].iter().all(|row| row == "[NaN, 1]"));
    for workers in [2, 4] {
        assert_eq!(render(workers), one, "workers={workers}");
    }
}
