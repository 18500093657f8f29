//! A5: map-side combining on the word-count corpus (paper §3.4).
//!
//! A 20 000-word Zipf-distributed `mapReduce` whose summing reducer the
//! shuffle recognises as an associative fold, so each of the 4 worker
//! chunks folds its values per key: ~105 distinct words leave at most
//! 4 × 105 partials for the reduce. The `shuffle.pairs_combined` counter
//! records the elimination, and the differential suites prove the output
//! identical to the uncombined reference.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

use snap_ast::builder::*;
use snap_ast::{Ring, Value};
use snap_data::generate_words;
use snap_parallel::map_reduce;

const WORDS: usize = 20_000;
const WORKERS: usize = 4;

fn mapper() -> Arc<Ring> {
    Arc::new(Ring::reporter_with_params(
        vec!["w".into()],
        make_list(vec![var("w"), num(1.0)]),
    ))
}

fn reducer() -> Arc<Ring> {
    Arc::new(Ring::reporter_with_params(
        vec!["vals".into()],
        combine_using(var("vals"), ring_reporter(add(empty_slot(), empty_slot()))),
    ))
}

fn bench_word_count_combine(c: &mut Criterion) {
    let mut group = c.benchmark_group("a5_word_count_combine");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    group.sample_size(15);
    group.throughput(Throughput::Elements(WORDS as u64));

    let items: Vec<Value> = generate_words(WORDS, 42)
        .into_iter()
        .map(Value::from)
        .collect();

    group.bench_function("combiner_on", move |b| {
        b.iter(|| {
            black_box(map_reduce(mapper(), reducer(), black_box(items.clone()), WORKERS).unwrap())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_word_count_combine);
criterion_main!(benches);
