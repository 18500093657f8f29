//! `shuffle` at 2047/2048/2049 pairs must group exactly as the
//! sequential reference does, and the snap-trace counters must see every
//! pair.

use snap_ast::Value;
use snap_parallel::{shuffle, shuffle_seq};
use snap_trace::well_known as metrics;

/// Deterministic mixed-key workload with collisions: numbers, numeric
/// text, and case-varied words — the key shapes `loose_eq` treats
/// loosely.
fn mixed_pairs(n: usize) -> Vec<(Value, Value)> {
    let words = ["alpha", "Beta", "beta", "GAMMA", "delta"];
    (0..n)
        .map(|i| {
            let key = match i % 4 {
                0 => Value::Number((i % 29) as f64),
                1 => Value::text(format!("{}", i % 23)), // numeric text
                2 => Value::text(words[i % words.len()]),
                _ => Value::text(words[(i * 7) % words.len()].to_uppercase()),
            };
            (key, Value::Number(i as f64))
        })
        .collect()
}

/// One test (not three) so the global trace counters are read without
/// interference from sibling tests running on other threads — this
/// integration binary contains no other test.
#[test]
fn threshold_boundary_ordering() {
    let before = metrics::SHUFFLE_PAIRS.get();
    for n in [2047, 2048, 2049] {
        let pairs = mixed_pairs(n);
        assert_eq!(
            shuffle(pairs.clone()),
            shuffle_seq(pairs),
            "{n}: identical grouping and ordering"
        );
    }
    // Both sides see every pair: the group-by and the reference runs.
    assert_eq!(
        metrics::SHUFFLE_PAIRS.get() - before,
        2 * (2047 + 2048 + 2049) as u64
    );
}
