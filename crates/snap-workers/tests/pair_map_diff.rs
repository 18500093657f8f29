//! Differential tests for the columnar pair path of the MapReduce map
//! phase: `ring_map_pairs` on a `[key, number]` mapper (lowered to a key
//! column plus an unboxed value column) against the oracle — a
//! per-element `call_treewalk` followed by `as_map_pair` — and against a
//! `ColumnarPolicy::Disabled` run, at 1–8 workers.
//!
//! Numbers compare by `to_bits`, so ±0 and NaN signs are exact. NaN
//! *payloads* are the one exemption, as for every columnar tier: when
//! two different NaNs meet at a commutable op, operand order decides
//! which payload propagates, and the optimizer may order the batch lane
//! loop and the scalar call differently (see `batch_diff`).
//!
//! Items mix numbers (±0, NaN, ±inf), numeric text, words, booleans,
//! Nothing and nested lists. Lists are either all numbers, which take
//! the `eval_batch` branch chunk by chunk, or a numeric run followed by
//! a mixed tail, so one call can run both branches. Shapes that must not
//! lower (a 3-item list, a list-valued key, `join` as the value, a
//! 2-parameter ring) are checked to fall back and still match.

use proptest::prelude::*;

use snap_ast::builder::*;
use snap_ast::{compile_cached, BinOp, EvalError, Expr, PureFn, Ring, UnOp, Value};
use snap_workers::{as_map_pair, ring_map_pairs, ColumnarPolicy, Isolation, RingMapOptions};
use std::sync::Arc;

/// Structural equality with numbers compared by bits (NaN payloads
/// exempt, see the module doc) and lists compared element-wise.
fn same(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Number(x), Value::Number(y)) => {
            x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
        }
        (Value::List(x), Value::List(y)) => {
            let (x, y) = (x.to_vec(), y.to_vec());
            x.len() == y.len() && x.iter().zip(&y).all(|(p, q)| same(p, q))
        }
        _ => a == b,
    }
}

type Pairs = Result<Vec<(Value, Value)>, EvalError>;

fn assert_same_pairs(got: &Pairs, want: &Pairs, what: &str) {
    match (got, want) {
        (Ok(got), Ok(want)) => {
            assert_eq!(got.len(), want.len(), "{what}: length");
            for (i, ((gk, gv), (wk, wv))) in got.iter().zip(want).enumerate() {
                assert!(
                    same(gk, wk) && same(gv, wv),
                    "{what}: pair {i} is ({gk:?}, {gv:?}), expected ({wk:?}, {wv:?})"
                );
            }
        }
        (Err(got), Err(want)) => assert_eq!(got, want, "{what}: error"),
        _ => panic!("{what}: {got:?} vs {want:?}"),
    }
}

/// The oracle: the tree walk on every item, then the pair check.
fn oracle(ring: &Arc<Ring>, items: &[Value]) -> Pairs {
    let f = PureFn::compile(ring.clone())?;
    items
        .iter()
        .map(|item| as_map_pair(f.call_treewalk(std::slice::from_ref(item))?))
        .collect()
}

fn options(workers: usize, columnar: ColumnarPolicy) -> RingMapOptions {
    RingMapOptions {
        workers,
        columnar,
        ..Default::default()
    }
}

/// Run the three-way comparison: lowered = oracle = Disabled.
fn check(ring: &Arc<Ring>, items: &[Value], workers: usize) {
    let want = oracle(ring, items);
    let lowered = ring_map_pairs(
        ring.clone(),
        items.to_vec(),
        options(workers, ColumnarPolicy::Auto),
    );
    assert_same_pairs(&lowered, &want, "lowered vs tree walk");
    let disabled = ring_map_pairs(
        ring.clone(),
        items.to_vec(),
        options(workers, ColumnarPolicy::Disabled),
    );
    assert_same_pairs(&lowered, &disabled, "lowered vs Disabled");
}

fn special_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        -1e4f64..1e4,
        -1e4f64..1e4,
        Just(0.0),
        Just(-0.0),
        Just(f64::NAN),
        Just(-f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(32.0),
    ]
}

fn number_item() -> impl Strategy<Value = Value> {
    special_f64().prop_map(Value::Number)
}

fn other_item() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::text("  4 ")),
        Just(Value::text("-0")),
        Just(Value::text("1e3")),
        Just(Value::text("NaN")),
        Just(Value::text("fox")),
        Just(Value::text("The")),
        Just(Value::Bool(true)),
        Just(Value::Nothing),
        Just(Value::number_list([1.0, -0.0])),
        Just(Value::list(vec![
            Value::text("a"),
            Value::number_list([2.0])
        ])),
        number_item(),
    ]
}

/// An all-numeric list, or a numeric run with a mixed tail. Lengths
/// straddle `COLUMNAR_MIN_ITEMS` (16) and the 256-item chunk floor.
fn items_strategy() -> impl Strategy<Value = Vec<Value>> {
    prop_oneof![
        prop::collection::vec(number_item(), 0..700),
        (
            prop::collection::vec(number_item(), 0..600),
            prop::collection::vec(other_item(), 1..80),
        )
            .prop_map(|(mut head, tail)| {
                head.extend(tail);
                head
            }),
    ]
}

/// How the mapper receives its argument: a named parameter `t`, or
/// empty slots.
#[derive(Debug, Clone, Copy)]
enum ArgStyle {
    Param,
    Slot,
}

impl ArgStyle {
    fn arg(self) -> Expr {
        match self {
            ArgStyle::Param => var("t"),
            ArgStyle::Slot => empty_slot(),
        }
    }

    fn ring(self, body: Expr, captured: Vec<(String, Value)>) -> Arc<Ring> {
        let ring = match self {
            ArgStyle::Param => Ring::reporter_with_params(vec!["t".into()], body),
            ArgStyle::Slot => Ring::reporter(body),
        };
        Arc::new(ring.with_captured(captured))
    }
}

/// The captured environment every generated ring closes over.
fn captured() -> Vec<(String, Value)> {
    vec![
        ("k".into(), Value::text("station")),
        ("c".into(), Value::Number(-0.0)),
    ]
}

#[derive(Debug, Clone)]
enum KeyShape {
    ConstText,
    ConstNumber,
    Captured,
    CapturedFold,
    Arg,
}

fn key_shape() -> impl Strategy<Value = KeyShape> {
    prop_oneof![
        Just(KeyShape::ConstText),
        Just(KeyShape::ConstNumber),
        Just(KeyShape::Captured),
        Just(KeyShape::CapturedFold),
        Just(KeyShape::Arg),
    ]
}

fn key_expr(shape: &KeyShape, style: ArgStyle) -> Expr {
    match shape {
        KeyShape::ConstText => text("avg"),
        KeyShape::ConstNumber => num(-0.0),
        KeyShape::Captured => var("k"),
        // Folded at compile time: −0 × 2.
        KeyShape::CapturedFold => mul(var("c"), num(2.0)),
        KeyShape::Arg => style.arg(),
    }
}

fn arith_op() -> impl Strategy<Value = BinOp> {
    prop_oneof![
        Just(BinOp::Add),
        Just(BinOp::Sub),
        Just(BinOp::Mul),
        Just(BinOp::Div),
        Just(BinOp::Mod),
        Just(BinOp::Pow),
    ]
}

fn num_unop() -> impl Strategy<Value = UnOp> {
    prop_oneof![
        Just(UnOp::Neg),
        Just(UnOp::Abs),
        Just(UnOp::Sqrt),
        Just(UnOp::Round),
        Just(UnOp::Floor),
        Just(UnOp::Ln),
    ]
}

/// Value expressions, as a recipe applied to the argument leaf: `0` a
/// constant, `1` the argument, `2` a captured number.
#[derive(Debug, Clone)]
enum ValueShape {
    Leaf(u8, f64),
    Un(UnOp, Box<ValueShape>),
    Bin(BinOp, Box<ValueShape>, Box<ValueShape>),
}

fn value_shape() -> impl Strategy<Value = ValueShape> {
    let leaf = (0u8..3, special_f64()).prop_map(|(kind, c)| ValueShape::Leaf(kind, c));
    let tree = leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (num_unop(), inner.clone()).prop_map(|(op, a)| ValueShape::Un(op, Box::new(a))),
            (arith_op(), inner.clone(), inner).prop_map(|(op, a, b)| ValueShape::Bin(
                op,
                Box::new(a),
                Box::new(b)
            )),
        ]
    });
    // The root must be numeric for the value to lower: a number
    // constant, a param-only expression, or an arithmetic tree.
    prop_oneof![
        special_f64().prop_map(|c| ValueShape::Leaf(0, c)),
        (num_unop(), Just(ValueShape::Leaf(1, 0.0)))
            .prop_map(|(op, a)| ValueShape::Un(op, Box::new(a))),
        (arith_op(), tree.clone(), tree).prop_map(|(op, a, b)| ValueShape::Bin(
            op,
            Box::new(a),
            Box::new(b)
        )),
    ]
}

fn value_expr(shape: &ValueShape, style: ArgStyle) -> Expr {
    match shape {
        ValueShape::Leaf(0, c) => num(*c),
        ValueShape::Leaf(1, _) => style.arg(),
        ValueShape::Leaf(_, _) => var("c"),
        ValueShape::Un(op, a) => Expr::Unary(*op, Box::new(value_expr(a, style))),
        ValueShape::Bin(op, a, b) => Expr::Binary(
            *op,
            Box::new(value_expr(a, style)),
            Box::new(value_expr(b, style)),
        ),
    }
}

fn arg_style() -> impl Strategy<Value = ArgStyle> {
    prop_oneof![Just(ArgStyle::Param), Just(ArgStyle::Slot)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    fn lowered_pairs_match_the_tree_walk_and_disabled(
        key in key_shape(),
        value in value_shape(),
        style in arg_style(),
        items in items_strategy(),
        workers in 1usize..9,
    ) {
        let body = make_list(vec![key_expr(&key, style), value_expr(&value, style)]);
        let ring = style.ring(body, captured());
        let f = compile_cached(&ring).expect("generated mappers are pure");
        prop_assert!(
            f.pair_program().is_some(),
            "{key:?} / {value:?} must lower to a pair program"
        );
        check(&ring, &items, workers);
    }

    fn other_shapes_fall_back_and_still_match(
        shape in 0u8..4,
        items in items_strategy(),
        workers in 1usize..9,
    ) {
        let ring = match shape {
            // Three items: as_map_pair keeps the first two.
            0 => ArgStyle::Slot.ring(
                make_list(vec![text("k"), mul(empty_slot(), num(2.0)), num(1.0)]),
                vec![],
            ),
            // A list-valued key.
            1 => ArgStyle::Param.ring(
                make_list(vec![make_list(vec![var("t")]), num(1.0)]),
                vec![],
            ),
            // `join` as the value.
            2 => ArgStyle::Slot.ring(
                make_list(vec![text("k"), join(vec![empty_slot(), text("!")])]),
                vec![],
            ),
            // Two parameters: every one-argument call is an arity error.
            _ => Arc::new(Ring::reporter_with_params(
                vec!["a".into(), "b".into()],
                make_list(vec![var("a"), num(1.0)]),
            )),
        };
        let f = compile_cached(&ring).expect("fallback mappers are pure");
        prop_assert!(f.pair_program().is_none(), "shape {shape} must not lower");
        check(&ring, &items, workers);
    }
}

fn climate_mapper() -> Arc<Ring> {
    ArgStyle::Param.ring(
        make_list(vec![
            text("avg"),
            div(mul(num(5.0), sub(var("t"), num(32.0))), num(9.0)),
        ]),
        vec![],
    )
}

#[test]
fn numeric_lists_take_the_batch_branch_without_a_fallback() {
    let items: Vec<Value> = (0..1000).map(|n| Value::Number(n as f64)).collect();
    let elems_before = snap_trace::well_known::RING_BATCH_ELEMS.get();
    let pairs = ring_map_pairs(
        climate_mapper(),
        items.clone(),
        options(2, ColumnarPolicy::Auto),
    );
    assert!(snap_trace::well_known::RING_BATCH_ELEMS.get() - elems_before >= 1000);
    assert_same_pairs(&pairs, &oracle(&climate_mapper(), &items), "climate");
}

#[test]
fn copy_isolation_keys_share_no_storage_and_share_isolation_aliases() {
    let identity_key = ArgStyle::Param.ring(make_list(vec![var("t"), num(1.0)]), vec![]);
    let shared = snap_ast::List::from_vec(vec![1.into()]);
    let items = vec![Value::List(shared.clone()); 32];
    for (isolation, aliases) in [(Isolation::Copy, false), (Isolation::Share, true)] {
        let pairs = ring_map_pairs(
            identity_key.clone(),
            items.clone(),
            RingMapOptions {
                isolation,
                ..Default::default()
            },
        )
        .unwrap();
        for (key, _) in &pairs {
            assert_eq!(
                key.as_list().unwrap().same_identity(&shared),
                aliases,
                "{isolation:?}"
            );
        }
    }
}
