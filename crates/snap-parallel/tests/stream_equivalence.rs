//! Acceptance tests for the streaming tier's ordered emitter: a
//! pipeline run must produce output — values *and* ordering —
//! bit-for-bit identical to the batch blocks, whatever the block size,
//! farm width, or channel capacity, including the columnar tier's NaN
//! convention (any NaN matches any NaN; see `columnar_equivalence.rs`).

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;

use snap_ast::builder::*;
use snap_ast::{Ring, Value};
use snap_parallel::{map_reduce, parallel_map, Pipeline, StreamConfig};
use snap_workers::{ring_map, RingMapOptions};

fn numeric_ring() -> Arc<Ring> {
    // Batchable numeric chain: exercises the columnar block path.
    Arc::new(Ring::reporter(add(
        mul(empty_slot(), num(0.1)),
        modulo(empty_slot(), num(7.0)),
    )))
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

/// Bit-exact elementwise comparison modulo NaN payloads: which payload
/// survives a commutable op is an instruction-operand-order artifact
/// the scalar and vectorized loops may pick differently.
fn assert_numbers_bits_eq(a: &[Value], b: &[Value]) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        match (x, y) {
            (Value::Number(p), Value::Number(q)) => assert!(
                p.to_bits() == q.to_bits() || (p.is_nan() && q.is_nan()),
                "element {i}: {p:?} vs {q:?}"
            ),
            _ => assert_eq!(x, y, "element {i}"),
        }
    }
}

fn number() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-1e3f64..1e3).prop_map(Value::Number),
        (-1e3f64..1e3).prop_map(Value::Number),
        Just(Value::Number(0.0)),
        Just(Value::Number(-0.0)),
        Just(Value::Number(f64::NAN)),
        Just(Value::Number(f64::INFINITY)),
        Just(Value::Number(f64::NEG_INFINITY)),
    ]
}

/// Numbers, numeric text and a word.
fn mixed_item() -> impl Strategy<Value = Value> {
    prop_oneof![
        number(),
        number(),
        (-50i64..50).prop_map(|n| Value::text(format!(" {n} "))),
        Just(Value::text("ab")),
    ]
}

/// Block sizes on both sides of the 64-lane batch width and past it.
fn block_items() -> impl Strategy<Value = usize> {
    prop_oneof![1usize..8, 60usize..70, 120usize..136]
}

/// Not batchable: a map stage runs it per item, column or not.
fn text_ring() -> Arc<Ring> {
    Arc::new(Ring::reporter(join(vec![empty_slot(), text("!")])))
}

/// Drops the word: a boxed block of numbers and words leaves this
/// stage as a boxed block of numbers only.
fn not_a_word() -> Arc<Ring> {
    Arc::new(Ring::predicate(ne(empty_slot(), text("ab"))))
}

/// `[x, x]`: flat-mapping turns every block boxed, all-number ones too.
fn twice() -> Arc<Ring> {
    Arc::new(Ring::reporter(make_list(vec![empty_slot(), empty_slot()])))
}

/// Run `items` through a filter or flat-map stage, then a map by `map`,
/// as a pipeline and as `ring_map` with the filter or the splice done
/// sequentially in between; both must agree element by element.
fn check_stage_then_map(items: &[Value], filter: bool, map: Arc<Ring>, config: StreamConfig) {
    let ring_map = |ring: Arc<Ring>, items: Vec<Value>| {
        ring_map(ring, items, RingMapOptions::default()).unwrap()
    };
    let between: Vec<Value> = if filter {
        let keep = ring_map(not_a_word(), items.to_vec());
        items
            .iter()
            .zip(keep)
            .filter(|(_, keep)| keep.to_bool())
            .map(|(item, _)| item.clone())
            .collect()
    } else {
        let mut spliced = Vec::new();
        for result in ring_map(twice(), items.to_vec()) {
            match result.as_list() {
                Some(list) => list.with_items(|xs| spliced.extend_from_slice(xs)),
                None => spliced.push(result),
            }
        }
        spliced
    };
    let expected = ring_map(map.clone(), between);
    let pipeline = Pipeline::new(config);
    let pipeline = if filter {
        pipeline.filter(not_a_word())
    } else {
        pipeline.flat_map(twice())
    };
    let streamed = pipeline.map(map).run(items.to_vec()).unwrap();
    assert_numbers_bits_eq(&streamed, &expected);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn map_stages_match_ring_map_over_every_block_kind(
        head in prop::collection::vec(number(), 0..200),
        middle in prop::collection::vec(mixed_item(), 0..48),
        tail in prop::collection::vec(number(), 0..200),
        block_items in block_items(),
        stage_workers in 1usize..5,
    ) {
        // All-number runs on both sides pack into columnar blocks; the
        // mixed middle packs into boxed ones.
        let items: Vec<Value> = head.into_iter().chain(middle).chain(tail).collect();
        let config = StreamConfig {
            block_items,
            stage_workers,
            ..Default::default()
        };
        for filter in [true, false] {
            for map in [numeric_ring(), text_ring()] {
                check_stage_then_map(&items, filter, map, config);
            }
        }
    }

    #[test]
    fn streamed_numeric_map_equals_batch_bitwise(
        values in prop::collection::vec(-1e6f64..1e6, 0..400),
        block_items in 1usize..96,
        stage_workers in 1usize..4,
        capacity in 1usize..6,
    ) {
        let mut items: Vec<Value> = values.into_iter().map(Value::Number).collect();
        // Sprinkle the IEEE specials so the columnar NaN convention is
        // exercised on every case with enough items.
        for special in [f64::NAN, -0.0, f64::INFINITY, 5e-324] {
            items.push(Value::Number(special));
        }
        let pipeline = Pipeline::new(StreamConfig {
            block_items,
            stage_workers,
            capacity,
            ..Default::default()
        })
        .map(numeric_ring());
        let streamed = pipeline.run(items.clone()).unwrap();
        let batch = parallel_map(numeric_ring(), items, 4).unwrap();
        assert_numbers_bits_eq(&streamed, &batch);
    }

    #[test]
    fn streamed_word_count_window_equals_per_window_batch(
        words in prop::collection::vec("[a-e]{1,3}", 0..200),
        block_items in 1usize..48,
        window_blocks in 1usize..6,
    ) {
        let items: Vec<Value> = words.iter().map(|w| Value::text(w.clone())).collect();
        let window = block_items * window_blocks;
        let pipeline = Pipeline::new(StreamConfig {
            block_items,
            ..Default::default()
        })
        .map(word_count_mapper())
        .reduce_by_key(word_count_reducer(), window);
        let streamed = pipeline.run(items.clone()).unwrap();
        // Reference: the batch mapReduce of each window, concatenated.
        let mut expected = Vec::new();
        for chunk in items.chunks(window.max(1)) {
            expected.extend(
                map_reduce(word_count_mapper(), word_count_reducer(), chunk.to_vec(), 4).unwrap(),
            );
        }
        prop_assert_eq!(streamed, expected);
    }
}

#[test]
fn whole_corpus_window_equals_one_batch_map_reduce() {
    // window >= total items → exactly one window → the streaming run is
    // the batch mapReduce, bit for bit.
    let words = ["the", "fox", "a", "dog", "the", "the", "fox"];
    let items: Vec<Value> = (0..350).map(|i| words[i % words.len()].into()).collect();
    let pipeline = Pipeline::new(StreamConfig {
        block_items: 32,
        ..Default::default()
    })
    .map(word_count_mapper())
    .reduce_by_key(word_count_reducer(), usize::MAX);
    let (streamed, stats) = pipeline.run_with_stats(items.clone()).unwrap();
    let batch = map_reduce(word_count_mapper(), word_count_reducer(), items, 4).unwrap();
    assert_eq!(streamed, batch);
    assert_eq!(stats.windows, 1);
    assert_eq!(stats.items_in, 350);

    // Sanity on the reference itself: counts agree with a hand fold.
    let mut reference: BTreeMap<String, u64> = BTreeMap::new();
    for i in 0..350 {
        *reference
            .entry(words[i % words.len()].to_string())
            .or_default() += 1;
    }
    assert_eq!(streamed.len(), reference.len());
}

#[test]
fn wide_farms_with_tiny_blocks_preserve_order() {
    // Max reordering pressure: 1-item blocks through a wide farm, tiny
    // channels. The ordered emitter must still reproduce input order.
    let items: Vec<Value> = (0..200).map(|n| Value::Number(n as f64)).collect();
    let pipeline = Pipeline::new(StreamConfig {
        block_items: 1,
        stage_workers: 4,
        capacity: 2,
        ..Default::default()
    })
    .map(numeric_ring())
    .map(numeric_ring());
    let streamed = pipeline.run(items.clone()).unwrap();
    let once = parallel_map(numeric_ring(), items, 4).unwrap();
    let batch = parallel_map(numeric_ring(), once, 4).unwrap();
    assert_numbers_bits_eq(&streamed, &batch);
}
