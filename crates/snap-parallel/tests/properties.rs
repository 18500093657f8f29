//! Property-based tests: the parallel blocks are semantically equal to
//! their sequential references, whatever the input or worker count.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;

use snap_ast::builder::*;
use snap_ast::{Ring, Value};
use snap_parallel::{map_reduce, parallel_map, shuffle, shuffle_seq};
use snap_workers::{ring_map_pairs, ring_reduce_groups, RingMapOptions};

fn word_strategy() -> impl Strategy<Value = String> {
    "[a-e]{1,3}" // small alphabet → plenty of key collisions
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn word_count_matches_reference(
        words in prop::collection::vec(word_strategy(), 0..120),
        workers in 1usize..9
    ) {
        let mapper = Arc::new(Ring::reporter_with_params(
            vec!["w".into()],
            make_list(vec![var("w"), num(1.0)]),
        ));
        let reducer = Arc::new(Ring::reporter_with_params(
            vec!["vals".into()],
            combine_using(var("vals"), ring_reporter(add(empty_slot(), empty_slot()))),
        ));
        let items: Vec<Value> = words.iter().map(|w| Value::text(w.clone())).collect();
        let out = map_reduce(mapper, reducer, items, workers).unwrap();

        let mut reference: BTreeMap<String, u64> = BTreeMap::new();
        for w in &words {
            *reference.entry(w.clone()).or_default() += 1;
        }
        prop_assert_eq!(out.len(), reference.len());
        for (pair, (word, count)) in out.iter().zip(reference.iter()) {
            let pair = pair.as_list().unwrap();
            prop_assert_eq!(pair.item(1).unwrap().to_display_string(), word.clone());
            prop_assert_eq!(pair.item(2).unwrap().to_number() as u64, *count);
        }
    }

    #[test]
    fn average_reduce_matches_arithmetic_mean(
        temps in prop::collection::vec(-100f64..150.0, 1..80),
        workers in 1usize..6
    ) {
        let mapper = Arc::new(Ring::reporter_with_params(
            vec!["t".into()],
            make_list(vec![
                text("avg"),
                div(mul(num(5.0), sub(var("t"), num(32.0))), num(9.0)),
            ]),
        ));
        let reducer = Arc::new(Ring::reporter_with_params(
            vec!["vals".into()],
            div(
                combine_using(var("vals"), ring_reporter(add(empty_slot(), empty_slot()))),
                length_of(var("vals")),
            ),
        ));
        let items: Vec<Value> = temps.iter().map(|&t| Value::Number(t)).collect();
        let out = map_reduce(mapper, reducer, items, workers).unwrap();
        let got = out[0].as_list().unwrap().item(2).unwrap().to_number();
        let expected = temps.iter().map(|&t| 5.0 * (t - 32.0) / 9.0).sum::<f64>()
            / temps.len() as f64;
        prop_assert!((got - expected).abs() < 1e-6, "{got} vs {expected}");
    }

    #[test]
    fn shuffle_preserves_every_value(
        pairs in prop::collection::vec(("[a-c]{1}", -100i64..100), 0..60)
    ) {
        let input: Vec<(Value, Value)> = pairs
            .iter()
            .map(|(k, v)| (Value::text(k.clone()), Value::Number(*v as f64)))
            .collect();
        let groups = shuffle(input);
        let total: usize = groups.iter().map(|(_, vs)| vs.len()).sum();
        prop_assert_eq!(total, pairs.len());
        // Keys strictly ascending.
        for window in groups.windows(2) {
            prop_assert_eq!(
                window[0].0.key_cmp(&window[1].0),
                std::cmp::Ordering::Less
            );
        }
    }

    #[test]
    fn parallel_map_preserves_length_and_order(
        xs in prop::collection::vec(-1e6f64..1e6, 0..100),
        workers in 1usize..9
    ) {
        let ring = Arc::new(Ring::reporter(sub(num(0.0), empty_slot())));
        let items: Vec<Value> = xs.iter().map(|&x| Value::Number(x)).collect();
        let out = parallel_map(ring, items, workers).unwrap();
        prop_assert_eq!(out.len(), xs.len());
        for (o, x) in out.iter().zip(&xs) {
            prop_assert_eq!(o.to_number(), -x);
        }
    }

    #[test]
    fn map_reduce_is_insensitive_to_input_order(
        mut words in prop::collection::vec(word_strategy(), 0..60),
        workers in 1usize..5
    ) {
        let mapper = || Arc::new(Ring::reporter_with_params(
            vec!["w".into()],
            make_list(vec![var("w"), num(1.0)]),
        ));
        let reducer = || Arc::new(Ring::reporter_with_params(
            vec!["vals".into()],
            combine_using(var("vals"), ring_reporter(add(empty_slot(), empty_slot()))),
        ));
        let forward: Vec<Value> = words.iter().map(|w| Value::text(w.clone())).collect();
        let a = map_reduce(mapper(), reducer(), forward, workers).unwrap();
        words.reverse();
        let backward: Vec<Value> = words.iter().map(|w| Value::text(w.clone())).collect();
        let b = map_reduce(mapper(), reducer(), backward, workers).unwrap();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn map_side_combining_is_invisible_in_output(
        words in prop::collection::vec(word_strategy(), 0..300),
        workers in 1usize..9
    ) {
        // Word count with the folding shuffle vs the uncombined
        // reference (every pair through shuffle_seq): identical output,
        // including group ordering — integer `+` folds are exact however
        // the pairs were pre-reduced across chunks.
        let mapper = || Arc::new(Ring::reporter_with_params(
            vec!["w".into()],
            make_list(vec![var("w"), num(1.0)]),
        ));
        let reducer = || Arc::new(Ring::reporter_with_params(
            vec!["vals".into()],
            combine_using(var("vals"), ring_reporter(add(empty_slot(), empty_slot()))),
        ));
        let items: Vec<Value> = words.iter().map(|w| Value::text(w.clone())).collect();
        let options = RingMapOptions { workers, ..Default::default() };
        let on = map_reduce(mapper(), reducer(), items.clone(), workers).unwrap();
        let pairs = ring_map_pairs(mapper(), items, options).unwrap();
        let off = ring_reduce_groups(reducer(), shuffle_seq(pairs), options).unwrap();
        prop_assert_eq!(on, off);
    }
}
