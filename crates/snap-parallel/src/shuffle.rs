//! The shuffle between MapReduce's phases, as one hash group-by.
//!
//! "The elements of the intermediate result are sorted by the value of
//! the key in between the map function and the reduce function, as
//! required by the semantics of MapReduce" (paper §3.4, footnote 6).
//! Only the output order is required, so [`group_by`] never sorts the
//! pairs themselves. Each chunk of pairs fills a hash table of groups
//! (folding values in place when the reducer is an associative fold, the
//! map-side combine); the chunk tables merge in chunk order, which keeps
//! every key's values in emission order; and only the distinct keys are
//! sorted, with the total key order [`Value::key_cmp`]. That is
//! O(n + k log k) for n pairs and k keys.
//!
//! [`shuffle_seq`] — one stable sort of every pair, then one grouping
//! scan — is the reference: `group_by` returns exactly what it returns
//! (after [`combine_pairs`] when folding).

use std::collections::HashMap;
use std::time::Instant;

use snap_ast::pure::eval_binop;
use snap_ast::{BinOp, Value};
use snap_trace::well_known as metrics;
use snap_workers::{default_workers, map_slice_with, ExecMode, Strategy};

/// Below this many pairs one table is built on the calling thread:
/// handing chunks to workers costs more than it saves.
pub const COMBINE_MIN_PAIRS: usize = 32;

/// Sort `[key, value]` pairs by key and group equal keys, keeping each
/// key's values in emission order, on [`default_workers`] workers.
pub fn shuffle(pairs: Vec<(Value, Value)>) -> Vec<(Value, Vec<Value>)> {
    group_by(&pairs, None, default_workers(), ExecMode::Pooled)
}

/// The reference shuffle: one stable sort of every pair by
/// [`Value::key_cmp`], then one scan that groups `loose_eq` neighbours.
pub fn shuffle_seq(mut pairs: Vec<(Value, Value)>) -> Vec<(Value, Vec<Value>)> {
    metrics::SHUFFLE_SEQ_RUNS.incr();
    metrics::SHUFFLE_PAIRS.add(pairs.len() as u64);
    let _span = snap_trace::span!("shuffle.seq", "pairs" => pairs.len());
    pairs.sort_by(|a, b| a.0.key_cmp(&b.0));
    let mut groups: Vec<(Value, Vec<Value>)> = Vec::new();
    for (key, value) in pairs {
        match groups.last_mut() {
            Some((k, values)) if k.loose_eq(&key) => values.push(value),
            _ => groups.push((key, vec![value])),
        }
    }
    groups
}

/// Group `[key, value]` pairs by key, sorted by [`Value::key_cmp`], on
/// up to `workers` workers.
///
/// With `fold`, each chunk folds a key's values with [`eval_binop`] as
/// they arrive (the first kept as-is), so every group holds one partial
/// per chunk the key appeared in, in chunk order — the reducer then
/// folds the partials. `fold` must be associative and commutative (see
/// [`crate::associative_fold_op`]).
///
/// The hash table needs `loose_eq` to be an equivalence, which it is on
/// `Number` and `Text` keys (NaN, equal to nothing, gets a group of its
/// own). It is not on the others — `true ~ 1 ~ "1"` but `true ≁ "1"` —
/// so a call with any `Bool`, `Nothing`, `List` or `Ring` key combines
/// and then runs [`shuffle_seq`].
pub fn group_by(
    pairs: &[(Value, Value)],
    fold: Option<BinOp>,
    workers: usize,
    exec: ExecMode,
) -> Vec<(Value, Vec<Value>)> {
    let hashable = |(key, _): &(Value, Value)| matches!(key, Value::Number(_) | Value::Text(_));
    if !pairs.iter().all(hashable) {
        let pairs = match fold {
            Some(op) => combine_pairs(pairs.to_vec(), op, workers, exec),
            None => pairs.to_vec(),
        };
        return shuffle_seq(pairs);
    }
    // The innermost span open at entry — the map_reduce that produced
    // these pairs. The merge span links back to it explicitly.
    let origin = snap_trace::current_span_id();
    let _span = snap_trace::span!("shuffle.group", "pairs" => pairs.len());
    let tables = chunk_tables(pairs, fold, workers, exec);
    if tables.len() > 1 {
        metrics::SHUFFLE_PARALLEL_RUNS.incr();
    } else {
        metrics::SHUFFLE_SEQ_RUNS.incr();
    }
    let merged = merge(tables, origin);
    let values: usize = merged.entries.iter().map(|e| e.values.len()).sum();
    metrics::SHUFFLE_PAIRS.add(values as u64);
    let mut groups: Vec<(Value, Vec<Value>)> = merged
        .entries
        .into_iter()
        .map(|entry| (entry.key, entry.values))
        .collect();
    let _sort = snap_trace::span!("shuffle.sort_keys", "keys" => groups.len());
    groups.sort_by(|a, b| a.0.key_cmp(&b.0));
    groups
}

/// Map-side combiner: partially reduce `[key, value]` pairs by key with
/// the associative operator `op`, one table per chunk. The output is the
/// chunk tables laid end to end — each key once per chunk, at its first
/// occurrence, folded in emission order — so [`shuffle_seq`] of it
/// groups keys exactly as it would the uncombined pairs.
pub fn combine_pairs(
    pairs: Vec<(Value, Value)>,
    op: BinOp,
    workers: usize,
    exec: ExecMode,
) -> Vec<(Value, Value)> {
    if pairs.is_empty() {
        return pairs;
    }
    let _span = snap_trace::span!("shuffle.combine", "pairs" => pairs.len());
    chunk_tables(&pairs, Some(op), workers, exec)
        .into_iter()
        .flat_map(|table| table.entries)
        .map(|mut entry| (entry.key, entry.values.swap_remove(0)))
        .collect()
}

/// One table per chunk: `ceil(n / workers)` pairs per chunk on the pool
/// at [`COMBINE_MIN_PAIRS`] pairs or more, else one chunk on the calling
/// thread. Counts the pairs a fold eliminated.
fn chunk_tables(
    pairs: &[(Value, Value)],
    fold: Option<BinOp>,
    workers: usize,
    exec: ExecMode,
) -> Vec<Table> {
    let workers = workers.max(1);
    let tables = if pairs.len() < COMBINE_MIN_PAIRS || workers == 1 {
        vec![Table::build(pairs, fold)]
    } else {
        let chunks: Vec<&[(Value, Value)]> = pairs.chunks(pairs.len().div_ceil(workers)).collect();
        map_slice_with(&chunks, workers, Strategy::Dynamic, exec, |chunk| {
            Table::build(chunk, fold)
        })
    };
    if fold.is_some() {
        let partials: usize = tables.iter().map(|t| t.entries.len()).sum();
        metrics::SHUFFLE_COMBINE_RUNS.incr();
        metrics::SHUFFLE_PAIRS_COMBINED.add((pairs.len() - partials) as u64);
    }
    tables
}

/// Merge chunk tables in chunk order: a key keeps the entry of the first
/// chunk it appeared in, and later chunks' values append to it.
fn merge(tables: Vec<Table>, origin: u64) -> Table {
    let count = tables.len();
    let mut tables = tables.into_iter();
    let mut merged = tables.next().unwrap_or_default();
    if count < 2 {
        return merged;
    }
    let started = Instant::now();
    let _span = snap_trace::span_linked_with("shuffle.merge", "tables", count as u64, origin);
    for table in tables {
        for entry in table.entries {
            let slot = merged.slot(&entry.key, entry.hash);
            merged.entries[slot].values.extend(entry.values);
        }
    }
    metrics::SHUFFLE_MERGE_NS.record(started.elapsed().as_nanos() as u64);
    merged
}

/// One chunk's groups in first-occurrence order, indexed by key hash.
#[derive(Default)]
struct Table {
    entries: Vec<Entry>,
    /// Key hash → the first entry with that hash. Later entries with the
    /// same hash (keys that are not `loose_eq`) chain through
    /// [`Entry::next`] in insertion order.
    heads: HashMap<u64, usize>,
}

/// One key's group.
struct Entry {
    /// [`key_hash`] of `key`; `None` for a key that matches nothing.
    hash: Option<u64>,
    key: Value,
    values: Vec<Value>,
    /// The next entry with the same hash.
    next: Option<usize>,
}

impl Table {
    /// Group one chunk's pairs, folding with `fold` or appending.
    fn build(chunk: &[(Value, Value)], fold: Option<BinOp>) -> Table {
        let _span = snap_trace::span!("shuffle.table", "pairs" => chunk.len());
        let mut table = Table::default();
        for (key, value) in chunk {
            let slot = table.slot(key, key_hash(key));
            let values = &mut table.entries[slot].values;
            match (fold, values.first_mut()) {
                (Some(op), Some(acc)) => *acc = eval_binop(op, acc, value),
                _ => values.push(value.clone()),
            }
        }
        table
    }

    /// The entry whose key is `loose_eq` to `key`, created (empty) if
    /// there is none. `hash` is `key`'s [`key_hash`].
    fn slot(&mut self, key: &Value, hash: Option<u64>) -> usize {
        let new = self.entries.len();
        if let Some(hash) = hash {
            let mut at = self.heads.get(&hash).copied();
            let mut tail = None;
            while let Some(i) = at {
                if same_key(&self.entries[i].key, key) {
                    return i;
                }
                tail = Some(i);
                at = self.entries[i].next;
            }
            match tail {
                Some(t) => self.entries[t].next = Some(new),
                None => {
                    self.heads.insert(hash, new);
                }
            }
        }
        self.entries.push(Entry {
            hash,
            key: key.clone(),
            values: Vec::new(),
            next: None,
        });
        new
    }
}

/// `loose_eq` for two keys that share a [`key_hash`], skipping the
/// numeric parse when the texts are identical (a hashed text is never
/// NaN, so identical texts are always `loose_eq`).
fn same_key(a: &Value, b: &Value) -> bool {
    matches!((a, b), (Value::Text(x), Value::Text(y)) if x == y) || a.loose_eq(b)
}

/// A hash under which `loose_eq` keys collide, built without
/// allocating for numbers and text: anything that coerces to a number
/// hashes its value (`-0` as `0`), text its ASCII-lowercased bytes.
/// `None` for NaN, which is `loose_eq` to nothing, itself included.
fn key_hash(key: &Value) -> Option<u64> {
    let number = |n: f64| (!n.is_nan()).then(|| if n == 0.0 { 0 } else { n.to_bits() });
    match key {
        Value::Number(n) => number(*n),
        Value::Text(s) => match s.trim().parse::<f64>() {
            Ok(n) => number(n),
            Err(_) => Some(text_hash(s)),
        },
        Value::Bool(b) => number(if *b { 1.0 } else { 0.0 }),
        other => Some(text_hash(&other.to_display_string())),
    }
}

/// FNV-1a over the ASCII-lowercased bytes.
fn text_hash(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b.to_ascii_lowercase())).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_sorts_and_groups() {
        let pairs = vec![
            ("b".into(), 1.into()),
            ("a".into(), 2.into()),
            ("b".into(), 3.into()),
            ("a".into(), 4.into()),
        ];
        let groups = shuffle(pairs);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].0, Value::text("a"));
        assert_eq!(groups[0].1, vec![2.into(), 4.into()]); // stable order
        assert_eq!(groups[1].0, Value::text("b"));
        assert_eq!(groups[1].1, vec![1.into(), 3.into()]);
    }

    #[test]
    fn numeric_keys_sort_numerically() {
        let pairs = vec![(10.into(), "x".into()), (2.into(), "y".into())];
        let groups = shuffle(pairs);
        assert_eq!(groups[0].0, Value::Number(2.0));
    }

    #[test]
    fn keys_group_loosely() {
        // "The" and "the" are the same key under Snap! equality.
        let pairs = vec![("The".into(), 1.into()), ("the".into(), 1.into())];
        let groups = shuffle(pairs);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].1.len(), 2);
    }

    #[test]
    fn empty_input_yields_no_groups() {
        assert!(shuffle(Vec::new()).is_empty());
    }

    /// Deterministic mixed-key workload: numeric text, numbers, and
    /// case-varied words, with plenty of collisions.
    fn mixed_pairs(n: usize) -> Vec<(Value, Value)> {
        let words = ["alpha", "Beta", "beta", "GAMMA", "delta"];
        (0..n)
            .map(|i| {
                let key = match i % 4 {
                    0 => Value::Number((i % 17) as f64),
                    1 => Value::text(format!("{}", i % 13)), // numeric text
                    2 => Value::text(words[i % words.len()]),
                    _ => Value::text(words[(i * 7) % words.len()].to_uppercase()),
                };
                (key, Value::Number(i as f64))
            })
            .collect()
    }

    #[test]
    fn parallel_shuffle_matches_sequential_exactly() {
        let pairs = mixed_pairs(5000);
        let seq = shuffle_seq(pairs.clone());
        for workers in [1, 2, 3, 4, 8] {
            for exec in [ExecMode::Pooled, ExecMode::SpawnPerCall] {
                let par = group_by(&pairs, None, workers, exec);
                assert_eq!(par, seq, "workers={workers} exec={exec:?}");
            }
        }
    }

    #[test]
    fn shuffle_matches_sequential_around_the_chunk_threshold() {
        for n in [
            0,
            1,
            COMBINE_MIN_PAIRS - 1,
            COMBINE_MIN_PAIRS,
            COMBINE_MIN_PAIRS + 1,
            2148,
        ] {
            let pairs = mixed_pairs(n);
            assert_eq!(shuffle(pairs.clone()), shuffle_seq(pairs), "n={n}");
        }
    }

    #[test]
    fn negative_zero_and_positive_zero_share_a_group() {
        let mut pairs = mixed_pairs(4096);
        pairs.push((Value::Number(0.0), Value::text("pos")));
        pairs.push((Value::Number(-0.0), Value::text("neg")));
        let par = group_by(&pairs, None, 4, ExecMode::Pooled);
        assert_eq!(par, shuffle_seq(pairs));
    }

    #[test]
    fn nan_keys_each_get_their_own_group() {
        // NaN is loose_eq to nothing, so every NaN key is its own group,
        // after all numbers and before all words, in emission order.
        let mut pairs = mixed_pairs(400);
        for i in (0..400).step_by(9) {
            let key = if i % 2 == 0 {
                Value::Number(f64::NAN)
            } else {
                Value::text("NaN")
            };
            pairs[i] = (key, Value::Number(i as f64));
        }
        let seq = shuffle_seq(pairs.clone());
        for workers in 1..=8 {
            // Debug renders NaN keys comparably (NaN != NaN under ==).
            let par = group_by(&pairs, None, workers, ExecMode::Pooled);
            assert_eq!(format!("{par:?}"), format!("{seq:?}"), "workers={workers}");
        }
        let nan_groups: Vec<&(Value, Vec<Value>)> =
            seq.iter().filter(|(k, _)| k.to_number().is_nan()).collect();
        assert_eq!(nan_groups.len(), 45);
        assert!(nan_groups.iter().all(|(_, values)| values.len() == 1));
    }

    #[test]
    fn folding_matches_combine_then_sequential_shuffle() {
        let pairs = mixed_pairs(3000);
        for workers in 1..=8 {
            let combined = combine_pairs(pairs.clone(), BinOp::Add, workers, ExecMode::Pooled);
            assert_eq!(
                group_by(&pairs, Some(BinOp::Add), workers, ExecMode::Pooled),
                shuffle_seq(combined),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn non_hashable_keys_take_the_reference_path() {
        // true ~ 1 ~ "1" but true ≁ "1": a hash table cannot group these
        // the way sort-then-scan does, so group_by defers to shuffle_seq.
        let keys = [
            Value::Bool(true),
            Value::Number(1.0),
            Value::text("1"),
            Value::Nothing,
        ];
        let pairs: Vec<(Value, Value)> = (0..64)
            .map(|i| (keys[i % keys.len()].clone(), Value::Number(i as f64)))
            .collect();
        assert_eq!(
            group_by(&pairs, None, 4, ExecMode::Pooled),
            shuffle_seq(pairs.clone())
        );
        let combined = combine_pairs(pairs.clone(), BinOp::Mul, 4, ExecMode::Pooled);
        assert_eq!(
            group_by(&pairs, Some(BinOp::Mul), 4, ExecMode::Pooled),
            shuffle_seq(combined)
        );
    }

    #[test]
    fn key_hash_agrees_with_loose_eq() {
        // Keys that are loose_eq must hash alike, or the table would
        // split one group in two.
        let keys: Vec<Value> = vec![
            Value::Number(2.0),
            Value::Number(10.0),
            Value::Number(0.0),
            Value::Number(-0.0),
            Value::Number(-3.5),
            Value::Number(f64::INFINITY),
            Value::text("2"),
            Value::text(" 10 "),
            Value::text("1e1"),
            Value::text("-0"),
            Value::text("inf"),
            Value::text("alpha"),
            Value::text("ALPHA"),
            Value::text("beta"),
            Value::text(""),
            Value::Bool(true),
            Value::Bool(false),
            Value::text("1"),
        ];
        for a in &keys {
            for b in &keys {
                if a.loose_eq(b) && !matches!((a, b), (Value::Bool(_), _) | (_, Value::Bool(_))) {
                    assert_eq!(key_hash(a), key_hash(b), "{a:?} ~ {b:?}");
                }
            }
        }
        assert_eq!(key_hash(&Value::Number(f64::NAN)), None);
        assert_eq!(key_hash(&Value::text(" NaN ")), None);
    }

    #[test]
    fn combine_pairs_folds_keys_per_chunk() {
        // One worker → one chunk → each key appears exactly once, first
        // value kept as the fold seed, later values added.
        let pairs: Vec<(Value, Value)> = vec![
            ("the".into(), 1.into()),
            ("fox".into(), 1.into()),
            ("the".into(), 1.into()),
            ("The".into(), 1.into()), // loose_eq-same key, case-varied
        ];
        let out = combine_pairs(pairs, BinOp::Add, 1, ExecMode::Pooled);
        assert_eq!(
            out,
            vec![("the".into(), 3.into()), ("fox".into(), 1.into())],
            "first-occurrence key and order must be preserved"
        );
    }

    #[test]
    fn combine_pairs_single_value_kept_uncoerced() {
        // combine over a one-element list reports the element itself, so
        // a lone pair must pass through without numeric coercion.
        let pairs: Vec<(Value, Value)> = vec![("k".into(), "seven".into())];
        let out = combine_pairs(pairs, BinOp::Add, 4, ExecMode::Pooled);
        assert_eq!(out, vec![("k".into(), "seven".into())]);
    }

    #[test]
    fn combined_shuffle_reduces_to_same_groups() {
        // End to end: combining before the shuffle must leave group keys
        // and per-group sums identical — only the pair count shrinks.
        let pairs = mixed_pairs(5000);
        let plain = shuffle(pairs.clone());
        let combined = group_by(&pairs, Some(BinOp::Add), 4, ExecMode::Pooled);
        assert_eq!(plain.len(), combined.len(), "same group count");
        for ((k1, v1), (k2, v2)) in plain.iter().zip(&combined) {
            assert_eq!(k1, k2, "group keys must match in order");
            let sum = |vs: &[Value]| vs.iter().map(Value::to_number).sum::<f64>();
            assert_eq!(sum(v1), sum(v2), "per-key totals must match for {k1:?}");
            assert!(v2.len() <= v1.len());
        }
    }
}
