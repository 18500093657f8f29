//! The hash group-by against the sort-based reference shuffle.
//!
//! `group_by` must return exactly what `shuffle_seq` returns — after
//! `combine_pairs` when folding — for every key mix and worker count:
//! numbers with signed zeros, NaN and infinities; numeric text; case-
//! varied words; and the keys `loose_eq` relates non-transitively
//! (`Bool`, `Nothing`, lists).

use proptest::prelude::*;

use snap_ast::{BinOp, Value};
use snap_parallel::{combine_pairs, group_by, shuffle_seq};
use snap_workers::ExecMode;

/// Keys the hash table takes: `Number` and `Text`.
fn hashable_key() -> impl Strategy<Value = Value> {
    const TEXT: [&str; 14] = [
        " 5 ", "5", "1e1", "10", "-0", "NaN", "nan", "inf", "10th", "alpha", "ALPHA", "Alpha",
        "beta", "",
    ];
    const NUMBERS: [f64; 5] = [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    prop_oneof![
        (0usize..NUMBERS.len()).prop_map(|i| Value::Number(NUMBERS[i])),
        (-3i64..12).prop_map(|n| Value::Number(n as f64)),
        (0usize..TEXT.len()).prop_map(|i| Value::text(TEXT[i])),
        "[a-cA-C]{1,2}".prop_map(Value::text),
    ]
}

/// Every key shape, the non-hashable ones included.
fn any_key() -> impl Strategy<Value = Value> {
    prop_oneof![
        hashable_key(),
        any::<bool>().prop_map(Value::Bool),
        Just(Value::Nothing),
        prop::collection::vec(hashable_key(), 0..3).prop_map(Value::list),
    ]
}

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-4i64..5).prop_map(|n| Value::Number(n as f64)),
        (-2.0f64..2.0).prop_map(Value::Number),
    ]
}

/// Debug text compares NaN keys (NaN != NaN under `==`) and tells -0
/// from 0.
fn render(groups: &[(Value, Vec<Value>)]) -> String {
    format!("{groups:?}")
}

/// Both equalities at every worker count from 1 to 8.
fn check(pairs: &[(Value, Value)], op: BinOp) {
    let expected = render(&shuffle_seq(pairs.to_vec()));
    for workers in 1..=8 {
        let got = group_by(pairs, None, workers, ExecMode::Pooled);
        assert_eq!(render(&got), expected, "no fold, workers={workers}");
        let combined = combine_pairs(pairs.to_vec(), op, workers, ExecMode::Pooled);
        assert_eq!(
            render(&group_by(pairs, Some(op), workers, ExecMode::Pooled)),
            render(&shuffle_seq(combined)),
            "fold {op:?}, workers={workers}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    fn group_by_matches_shuffle_seq_on_hashable_keys(
        pairs in prop::collection::vec((hashable_key(), value()), 0..120),
        multiply in any::<bool>(),
    ) {
        check(&pairs, if multiply { BinOp::Mul } else { BinOp::Add });
    }

    fn group_by_matches_shuffle_seq_on_any_keys(
        pairs in prop::collection::vec((any_key(), value()), 0..80),
        multiply in any::<bool>(),
    ) {
        check(&pairs, if multiply { BinOp::Mul } else { BinOp::Add });
    }
}
