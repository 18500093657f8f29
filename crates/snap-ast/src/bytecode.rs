//! Ring bytecode: flat, register-based programs compiled from pure rings.
//!
//! The tree-walking evaluator in [`crate::pure`] re-dispatches on the
//! `Expr` enum and re-resolves names against a `(String, Value)` binding
//! list on *every item* of a parallel map. This module is the next step
//! of the paper's `mappedCode()` → `new Function(...)` pipeline (§4.1,
//! Listing 2): a ring is lowered **once** into a linear instruction
//! stream over single-assignment virtual registers, with parameters,
//! empty slots, and captured variables resolved to register loads at
//! compile time — no per-item `HashMap` or name lookups remain.
//!
//! Two programs can come out of lowering:
//!
//! * [`Program`] — boxed bytecode over [`Value`] registers. Covers every
//!   strict, non-higher-order block (arithmetic, comparisons, logic,
//!   text, list accessors). Semantics are bit-for-bit those of the tree
//!   walk: instructions are emitted in exactly the evaluator's
//!   evaluation order, so coercions, errors, and the empty-slot cursor
//!   behave identically.
//! * [`NumProgram`] — the **numeric fast path** over unboxed `f64`
//!   registers. A cheap type pass proves the ring numeric: every
//!   argument use sits in a position the evaluator coerces with
//!   `to_number`, and the root always produces a `Value::Number`. Then
//!   the whole body runs on a stack-allocated `f64` array with zero
//!   heap traffic per call.
//!
//! A third, narrower lowering serves the MapReduce map phase:
//! [`PairProgram`] recognises a one-argument mapper whose body is
//! `list(K, V)` — `K` a constant scalar or the bare argument, `V` a
//! [`NumProgram`] — so the worker side can write `(key, number)` pairs
//! without building and unpacking a list per item. It is compiled next
//! to, not instead of, the ring's full program.
//!
//! Rings using higher-order or non-strict blocks (nested rings, `call`,
//! `map`, `combine`, …) and rings referencing unbound variables are not
//! lowered; [`crate::pure::PureFn`] keeps tree-walking those (and serves
//! as the differential-testing oracle for the compiled paths).
//!
//! Constant folding happens during lowering: literal scalars, captured
//! variables (immutable for the life of a ring), and operator nodes
//! whose operands folded are evaluated at compile time with the same
//! `eval_binop` / `eval_unop` the interpreter uses, so folded results
//! cannot diverge from unfolded ones.

use crate::constant::Constant;
use crate::error::EvalError;
use crate::expr::{BinOp, Expr, UnOp};
use crate::pure::{eval_binop, eval_unop, numbers_from_to};
use crate::ring::{Ring, RingBody};
use crate::value::{List, Value};

/// The unboxed arithmetic core shared by [`eval_binop`] and the numeric
/// fast path: the `f64` result for the arithmetic operators, `None` for
/// comparison/logic/equality operators (those need full Snap! value
/// semantics). Keeping one definition is what makes the fast path
/// bit-for-bit faithful to the interpreter.
#[inline]
pub fn num_binop(op: BinOp, x: f64, y: f64) -> Option<f64> {
    Some(match op {
        BinOp::Add => x + y,
        BinOp::Sub => x - y,
        BinOp::Mul => x * y,
        BinOp::Div => x / y,
        // Snap!'s mod: result takes the sign of the divisor.
        BinOp::Mod => x - y * (x / y).floor(),
        BinOp::Pow => x.powf(y),
        _ => return None,
    })
}

/// The unboxed core of [`eval_unop`] (see [`num_binop`]); `None` for
/// `not`, the only non-numeric unary block.
#[inline]
pub fn num_unop(op: UnOp, x: f64) -> Option<f64> {
    Some(match op {
        UnOp::Neg => -x,
        UnOp::Abs => x.abs(),
        UnOp::Sqrt => x.sqrt(),
        UnOp::Round => x.round(),
        UnOp::Floor => x.floor(),
        UnOp::Ceil => x.ceil(),
        UnOp::Sin => x.to_radians().sin(),
        UnOp::Cos => x.to_radians().cos(),
        UnOp::Ln => x.ln(),
        UnOp::Exp => x.exp(),
        UnOp::Not => return None,
    })
}

/// The empty-slot value for slot `i`: Snap!'s binding rule, precomputed.
/// No arguments → Nothing; exactly one argument fills *every* slot;
/// otherwise slots take arguments positionally (missing → Nothing).
#[inline]
fn slot_value(args: &[Value], i: usize) -> Value {
    match args.len() {
        0 => Value::Nothing,
        1 => args[0].clone(),
        _ => args.get(i).cloned().unwrap_or(Value::Nothing),
    }
}

/// Register index. Programs with more than `u16::MAX` nodes fall back
/// to the tree walk (no real ring comes close).
type Reg = u16;

/// One boxed-bytecode instruction. Registers are single-assignment and
/// single-use (the program is a linearized expression tree), so the
/// interpreter may move values out of source registers.
#[derive(Debug, Clone)]
enum Instr {
    /// `consts[src]` (cloned — list constants share storage the same way
    /// a re-evaluated captured variable would) → `dst`.
    Const(u16, Reg),
    /// Materialize `fresh[src]` into a brand-new value (list literals
    /// produce fresh storage on every evaluation) → `dst`.
    Fresh(u16, Reg),
    /// `args[src]` (cloned) → `dst`.
    Arg(u16, Reg),
    /// Empty-slot argument `src` (see [`slot_value`]) → `dst`.
    Slot(u16, Reg),
    /// `eval_binop(op, a, b)` → `dst`.
    Bin(BinOp, Reg, Reg, Reg),
    /// `eval_unop(op, a)` → `dst`.
    Un(UnOp, Reg, Reg),
    /// `item <a> of <b>` (1-based) → `dst`.
    Item(Reg, Reg, Reg),
    /// `length of <a>` (list length) → `dst`.
    Len(Reg, Reg),
    /// `<a> contains <b>` → `dst`.
    Contains(Reg, Reg, Reg),
    /// Fail with the tree walk's `TypeMismatch` unless `src` holds a
    /// list, *without* consuming the register. `contains` type-checks
    /// its list operand before evaluating its value operand; this
    /// reproduces that error ordering in the flat stream.
    CheckList(Reg),
    /// `join` the display strings of `srcs` → `dst`.
    Join(Box<[Reg]>, Reg),
    /// `split <a> by <b>` → `dst`.
    Split(Reg, Reg, Reg),
    /// `letter <a> of <b>` → `dst`.
    Letter(Reg, Reg, Reg),
    /// text `length of <a>` (characters) → `dst`.
    TextLen(Reg, Reg),
    /// `numbers from <a> to <b>` → `dst`.
    Range(Reg, Reg, Reg),
    /// fresh list of `srcs` → `dst`.
    MakeList(Box<[Reg]>, Reg),
}

/// A lowered ring body over boxed [`Value`] registers.
#[derive(Debug)]
pub struct Program {
    /// `Some(n)` when the ring has named parameters: calls must pass
    /// exactly `n` arguments (the tree walk's arity check).
    arity: Option<usize>,
    consts: Vec<Value>,
    fresh: Vec<Constant>,
    instrs: Vec<Instr>,
    regs: usize,
    out: Reg,
}

impl Program {
    /// Execute against `args`, reproducing `PureFn::call` exactly.
    pub fn call(&self, args: &[Value]) -> Result<Value, EvalError> {
        if let Some(expected) = self.arity {
            if args.len() != expected {
                return Err(EvalError::ArityMismatch {
                    expected,
                    got: args.len(),
                });
            }
        }
        let mut regs = vec![Value::Nothing; self.regs];
        // Registers are single-use, so operands are *moved* out below.
        let take = |regs: &mut [Value], r: Reg| std::mem::take(&mut regs[r as usize]);
        for instr in &self.instrs {
            let (value, dst) = match instr {
                Instr::Const(i, dst) => (self.consts[*i as usize].clone(), *dst),
                Instr::Fresh(i, dst) => (self.fresh[*i as usize].to_value(), *dst),
                Instr::Arg(i, dst) => (args[*i as usize].clone(), *dst),
                Instr::Slot(i, dst) => (slot_value(args, *i as usize), *dst),
                Instr::Bin(op, a, b, dst) => {
                    let a = take(&mut regs, *a);
                    let b = take(&mut regs, *b);
                    (eval_binop(*op, &a, &b), *dst)
                }
                Instr::Un(op, a, dst) => {
                    let a = take(&mut regs, *a);
                    (eval_unop(*op, &a), *dst)
                }
                Instr::Item(a, b, dst) => {
                    let idx = take(&mut regs, *a).to_number();
                    let list = expect_list(take(&mut regs, *b))?;
                    let i = idx as usize;
                    let item = list.item(i).ok_or(EvalError::IndexOutOfRange {
                        index: i,
                        len: list.len(),
                    })?;
                    (item, *dst)
                }
                Instr::Len(a, dst) => {
                    let list = expect_list(take(&mut regs, *a))?;
                    (Value::Number(list.len() as f64), *dst)
                }
                Instr::Contains(a, b, dst) => {
                    let list = expect_list(take(&mut regs, *a))?;
                    let value = take(&mut regs, *b);
                    (Value::Bool(list.contains(&value)), *dst)
                }
                Instr::CheckList(src) => {
                    if !matches!(regs[*src as usize], Value::List(_)) {
                        return Err(EvalError::TypeMismatch {
                            expected: "list",
                            got: regs[*src as usize].to_display_string(),
                        });
                    }
                    continue;
                }
                Instr::Join(srcs, dst) => {
                    let mut out = String::new();
                    for src in srcs.iter() {
                        out.push_str(&take(&mut regs, *src).to_display_string());
                    }
                    (Value::Text(out), *dst)
                }
                Instr::Split(a, b, dst) => {
                    let text = take(&mut regs, *a).to_display_string();
                    let delim = take(&mut regs, *b).to_display_string();
                    let items: Vec<Value> = if delim.is_empty() {
                        text.chars().map(|c| Value::Text(c.to_string())).collect()
                    } else {
                        text.split(&delim)
                            .filter(|s| !s.is_empty())
                            .map(|s| Value::Text(s.to_owned()))
                            .collect()
                    };
                    (Value::list(items), *dst)
                }
                Instr::Letter(a, b, dst) => {
                    let i = take(&mut regs, *a).to_number() as usize;
                    let text = take(&mut regs, *b).to_display_string();
                    let letter = text
                        .chars()
                        .nth(i.saturating_sub(1))
                        .map(|c| c.to_string())
                        .unwrap_or_default();
                    (Value::Text(letter), *dst)
                }
                Instr::TextLen(a, dst) => {
                    let text = take(&mut regs, *a).to_display_string();
                    (Value::Number(text.chars().count() as f64), *dst)
                }
                Instr::Range(a, b, dst) => {
                    let a = take(&mut regs, *a).to_number();
                    let b = take(&mut regs, *b).to_number();
                    (numbers_from_to(a, b), *dst)
                }
                Instr::MakeList(srcs, dst) => {
                    let mut items = Vec::with_capacity(srcs.len());
                    for src in srcs.iter() {
                        items.push(take(&mut regs, *src));
                    }
                    (Value::list(items), *dst)
                }
            };
            regs[dst as usize] = value;
        }
        Ok(std::mem::take(&mut regs[self.out as usize]))
    }

    /// Instruction count (diagnostics / tests).
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// `true` when the program folded to a single constant load.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }
}

fn expect_list(v: Value) -> Result<List, EvalError> {
    match v {
        Value::List(l) => Ok(l),
        other => Err(EvalError::TypeMismatch {
            expected: "list",
            got: other.to_display_string(),
        }),
    }
}

/// One numeric-fast-path instruction over `f64` registers.
#[derive(Debug, Clone, Copy)]
enum NumInstr {
    /// Immediate → `dst`.
    Const(f64, Reg),
    /// `args[src].to_number()` → `dst`.
    Arg(u16, Reg),
    /// `slot_value(args, src).to_number()` → `dst`.
    Slot(u16, Reg),
    /// Arithmetic op (see [`num_binop`]) → `dst`.
    Bin(BinOp, Reg, Reg, Reg),
    /// Numeric unary op (see [`num_unop`]) → `dst`.
    Un(UnOp, Reg, Reg),
}

/// Register-file width of the numeric fast path. Numeric lowering
/// *declines* programs wider than this (they fall back to boxed
/// bytecode), so both [`NumProgram::call`] and [`NumProgram::eval_batch`]
/// run on fixed-size stack arrays with no heap branch.
const NUM_STACK_REGS: usize = 32;

/// Elements per batch block in [`NumProgram::eval_batch`]. The register
/// file is `NUM_STACK_REGS × BATCH_LANES` `f64`s (16 KiB) — small enough
/// for worker stacks, wide enough that the lane loops amortize the
/// per-instruction dispatch and autovectorize.
pub const BATCH_LANES: usize = 64;

/// A lowered ring body proven numeric: executes entirely in unboxed
/// `f64` registers and always reports a `Value::Number`.
#[derive(Debug)]
pub struct NumProgram {
    arity: Option<usize>,
    instrs: Vec<NumInstr>,
    regs: usize,
    out: Reg,
}

/// One lane loop of a batch binary op. Dispatching on `op` **once**,
/// outside the element loop, is what lets the optimizer turn each arm's
/// plain indexed loop into SIMD; every arm still computes through
/// [`num_binop`], so batch results cannot diverge from the scalar path.
#[inline]
fn batch_binop(op: BinOp, a: &[f64], b: &[f64], dst: &mut [f64]) {
    #[inline(always)]
    fn lanes(a: &[f64], b: &[f64], dst: &mut [f64], f: impl Fn(f64, f64) -> f64) {
        for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
            *d = f(x, y);
        }
    }
    // One macro expansion per arm: each closure is a distinct type, so
    // every operator gets its own monomorphized lane loop with the op
    // folded to a constant.
    macro_rules! arm {
        ($op:expr) => {
            lanes(a, b, dst, |x, y| num_binop($op, x, y).expect("arith op"))
        };
    }
    match op {
        BinOp::Add => arm!(BinOp::Add),
        BinOp::Sub => arm!(BinOp::Sub),
        BinOp::Mul => arm!(BinOp::Mul),
        BinOp::Div => arm!(BinOp::Div),
        BinOp::Mod => arm!(BinOp::Mod),
        BinOp::Pow => arm!(BinOp::Pow),
        _ => unreachable!("non-arithmetic op in a numeric program"),
    }
}

/// One lane loop of a batch unary op (see [`batch_binop`]).
#[inline]
fn batch_unop(op: UnOp, a: &[f64], dst: &mut [f64]) {
    #[inline(always)]
    fn lanes(a: &[f64], dst: &mut [f64], f: impl Fn(f64) -> f64) {
        for (d, &x) in dst.iter_mut().zip(a) {
            *d = f(x);
        }
    }
    macro_rules! arm {
        ($op:expr) => {
            lanes(a, dst, |x| num_unop($op, x).expect("numeric op"))
        };
    }
    match op {
        UnOp::Neg => arm!(UnOp::Neg),
        UnOp::Abs => arm!(UnOp::Abs),
        UnOp::Sqrt => arm!(UnOp::Sqrt),
        UnOp::Round => arm!(UnOp::Round),
        UnOp::Floor => arm!(UnOp::Floor),
        UnOp::Ceil => arm!(UnOp::Ceil),
        UnOp::Sin => arm!(UnOp::Sin),
        UnOp::Cos => arm!(UnOp::Cos),
        UnOp::Ln => arm!(UnOp::Ln),
        UnOp::Exp => arm!(UnOp::Exp),
        UnOp::Not => unreachable!("non-numeric op in a numeric program"),
    }
}

impl NumProgram {
    /// Execute against `args`, reproducing `PureFn::call` exactly.
    pub fn call(&self, args: &[Value]) -> Result<Value, EvalError> {
        if let Some(expected) = self.arity {
            if args.len() != expected {
                return Err(EvalError::ArityMismatch {
                    expected,
                    got: args.len(),
                });
            }
        }
        // Lowering declines programs wider than NUM_STACK_REGS, so the
        // register file is always this fixed stack array.
        debug_assert!(self.regs <= NUM_STACK_REGS);
        let mut stack = [0.0f64; NUM_STACK_REGS];
        let regs: &mut [f64] = &mut stack[..self.regs];
        for instr in &self.instrs {
            match *instr {
                NumInstr::Const(v, dst) => regs[dst as usize] = v,
                NumInstr::Arg(i, dst) => regs[dst as usize] = args[i as usize].to_number(),
                NumInstr::Slot(i, dst) => {
                    regs[dst as usize] = match args.len() {
                        0 => 0.0,
                        1 => args[0].to_number(),
                        _ => args.get(i as usize).map(Value::to_number).unwrap_or(0.0),
                    }
                }
                NumInstr::Bin(op, a, b, dst) => {
                    let (x, y) = (regs[a as usize], regs[b as usize]);
                    regs[dst as usize] = num_binop(op, x, y).expect("arith op");
                }
                NumInstr::Un(op, a, dst) => {
                    let x = regs[a as usize];
                    regs[dst as usize] = num_unop(op, x).expect("numeric op");
                }
            }
        }
        Ok(Value::Number(regs[self.out as usize]))
    }

    /// `true` when [`NumProgram::eval_batch`] covers this program: every
    /// element of a batch is the program's **single** numeric argument.
    /// That holds for slot-style rings (`arity == None` — with exactly
    /// one argument, every empty slot receives it) and one-parameter
    /// rings (`arity == Some(1)` — `Arg(0)` is the element). Multi-arg
    /// rings keep the scalar path.
    pub fn batchable(&self) -> bool {
        matches!(self.arity, None | Some(1))
    }

    /// Evaluate the program over every element of `inputs`, appending
    /// one output per element to `out` — the columnar batch tier.
    ///
    /// Each `inputs[i]` is treated exactly as `call(&[Value::Number(
    /// inputs[i])])` would treat its argument (`to_number` of a `Number`
    /// is the identity, so results are bit-identical, -0.0/±inf/
    /// subnormals included — enforced by the `batch_diff` differential
    /// suite). NaN *payload* bits are the one exemption: when two NaNs
    /// meet at a commutable op, operand order decides which payload
    /// propagates, and the optimizer may order the scalar and batch
    /// loops differently (IEEE 754 only requires *a* quiet NaN).
    /// The loop structure is instruction-outer / element-inner over
    /// [`BATCH_LANES`]-wide blocks: per-element dispatch disappears and
    /// the plain indexed lane loops autovectorize.
    ///
    /// # Panics
    /// Debug-asserts [`NumProgram::batchable`]; on a non-batchable
    /// program the per-element semantics would be wrong, so callers must
    /// check first.
    pub fn eval_batch(&self, inputs: &[f64], out: &mut Vec<f64>) {
        debug_assert!(self.batchable(), "eval_batch on a non-batchable program");
        out.reserve(inputs.len());
        // Lane-contiguous, register-major file: register r's lanes are
        // `file[r*BATCH_LANES .. r*BATCH_LANES + n]`.
        let mut file = [0.0f64; NUM_STACK_REGS * BATCH_LANES];
        for block in inputs.chunks(BATCH_LANES) {
            let n = block.len();
            for instr in &self.instrs {
                match *instr {
                    NumInstr::Const(v, dst) => {
                        file[dst as usize * BATCH_LANES..][..n].fill(v);
                    }
                    // The whole block is the single argument: parameter
                    // loads and every empty slot read the element.
                    NumInstr::Arg(_, dst) | NumInstr::Slot(_, dst) => {
                        file[dst as usize * BATCH_LANES..][..n].copy_from_slice(block);
                    }
                    NumInstr::Bin(op, a, b, dst) => {
                        // Operand registers are always allocated before
                        // their consumer, so dst strictly exceeds a and
                        // b: split_at_mut yields disjoint slices without
                        // aliasing checks in the lane loop.
                        let (src, rest) = file.split_at_mut(dst as usize * BATCH_LANES);
                        batch_binop(
                            op,
                            &src[a as usize * BATCH_LANES..][..n],
                            &src[b as usize * BATCH_LANES..][..n],
                            &mut rest[..n],
                        );
                    }
                    NumInstr::Un(op, a, dst) => {
                        let (src, rest) = file.split_at_mut(dst as usize * BATCH_LANES);
                        batch_unop(op, &src[a as usize * BATCH_LANES..][..n], &mut rest[..n]);
                    }
                }
            }
            out.extend_from_slice(&file[self.out as usize * BATCH_LANES..][..n]);
        }
    }

    /// Instruction count (diagnostics / tests).
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// `true` when the program folded to a single constant load.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }
}

/// The result of lowering a ring.
#[derive(Debug)]
pub enum Lowered {
    /// Proven numeric: unboxed fast path.
    Numeric(NumProgram),
    /// Compilable, but not numeric: boxed bytecode.
    Boxed(Program),
}

/// Lower a reporter/predicate ring to bytecode. Returns `None` when the
/// body uses a construct only the tree walk supports (nested rings,
/// ring calls, higher-order list blocks, unbound variables) — the
/// caller keeps tree-walking those.
pub fn lower(ring: &Ring) -> Option<Lowered> {
    let expr = match &ring.body {
        RingBody::Reporter(e) | RingBody::Predicate(e) => e,
        RingBody::Command(_) => return None,
    };
    if let Some(p) = lower_numeric(ring, expr) {
        return Some(Lowered::Numeric(p));
    }
    lower_boxed(ring, expr).map(Lowered::Boxed)
}

fn arity_of(ring: &Ring) -> Option<usize> {
    if ring.params.is_empty() {
        None
    } else {
        Some(ring.params.len())
    }
}

/// Resolve a variable name the way the tree walk does: innermost
/// parameter first (last duplicate wins), then the captured environment
/// (innermost = last). `None` means unbound — not compilable, so the
/// runtime `UnboundVariable` error surfaces identically at call time.
fn resolve_var<'a>(ring: &'a Ring, name: &str) -> Option<Resolved<'a>> {
    if let Some(pos) = ring.params.iter().rposition(|p| p == name) {
        return Some(Resolved::Param(pos));
    }
    ring.captured
        .iter()
        .rev()
        .find(|(n, _)| n == name)
        .map(|(_, v)| Resolved::Captured(v))
}

enum Resolved<'a> {
    Param(usize),
    Captured(&'a Value),
}

/// Compile-time evaluation for constant folding. Only scalar results
/// fold (lists have identity and fresh-storage semantics); operator
/// folds reuse the interpreter's own `eval_binop` / `eval_unop`, so a
/// folded node cannot diverge from an unfolded one. Returns `None` for
/// anything not provably constant.
fn fold(ring: &Ring, e: &Expr) -> Option<Value> {
    let scalar = |v: Value| match v {
        Value::Nothing | Value::Number(_) | Value::Text(_) | Value::Bool(_) => Some(v),
        _ => None,
    };
    match e {
        Expr::Literal(c) => match c {
            Constant::List(_) => None,
            _ => scalar(c.to_value()),
        },
        Expr::Var(name) => match resolve_var(ring, name)? {
            // Captured values never change for the life of a ring.
            Resolved::Captured(v) => scalar(v.clone()),
            Resolved::Param(_) => None,
        },
        Expr::Binary(op, a, b) => {
            let a = fold(ring, a)?;
            let b = fold(ring, b)?;
            scalar(eval_binop(*op, &a, &b))
        }
        Expr::Unary(op, a) => {
            let a = fold(ring, a)?;
            scalar(eval_unop(*op, &a))
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------
// Boxed lowering
// ---------------------------------------------------------------------

struct Builder<'a> {
    ring: &'a Ring,
    consts: Vec<Value>,
    fresh: Vec<Constant>,
    instrs: Vec<Instr>,
    next_reg: usize,
    next_slot: usize,
}

impl<'a> Builder<'a> {
    fn reg(&mut self) -> Option<Reg> {
        let r = self.next_reg;
        if r > Reg::MAX as usize {
            return None;
        }
        self.next_reg = r + 1;
        Some(r as Reg)
    }

    fn push(&mut self, instr: Instr) {
        self.instrs.push(instr);
    }

    fn emit_const(&mut self, v: Value) -> Option<Reg> {
        let dst = self.reg()?;
        let idx = self.consts.len();
        if idx > u16::MAX as usize {
            return None;
        }
        self.consts.push(v);
        self.push(Instr::Const(idx as u16, dst));
        Some(dst)
    }

    /// Emit instructions computing `e`, returning its result register.
    /// Emission follows the tree walk's evaluation order exactly — in
    /// particular the empty-slot cursor advances in evaluation order —
    /// so coercions and error precedence are preserved. `None` aborts
    /// the whole lowering (unsupported construct).
    fn emit(&mut self, e: &Expr) -> Option<Reg> {
        if let Some(v) = fold(self.ring, e) {
            return self.emit_const(v);
        }
        match e {
            Expr::Literal(c) => {
                // Non-scalar literal (fold handles scalars): list
                // constants materialize fresh storage per call.
                let dst = self.reg()?;
                let idx = self.fresh.len();
                if idx > u16::MAX as usize {
                    return None;
                }
                self.fresh.push(c.clone());
                self.push(Instr::Fresh(idx as u16, dst));
                Some(dst)
            }
            Expr::Var(name) => match resolve_var(self.ring, name)? {
                Resolved::Param(pos) => {
                    let dst = self.reg()?;
                    self.push(Instr::Arg(pos as u16, dst));
                    Some(dst)
                }
                // Non-scalar captured (list/ring): cloning the pooled
                // value per call shares storage exactly like the tree
                // walk's `lookup` clone.
                Resolved::Captured(v) => self.emit_const(v.clone()),
            },
            Expr::EmptySlot => {
                let i = self.next_slot;
                if i > u16::MAX as usize {
                    return None;
                }
                self.next_slot = i + 1;
                let dst = self.reg()?;
                self.push(Instr::Slot(i as u16, dst));
                Some(dst)
            }
            Expr::Binary(op, a, b) => {
                let a = self.emit(a)?;
                let b = self.emit(b)?;
                let dst = self.reg()?;
                self.push(Instr::Bin(*op, a, b, dst));
                Some(dst)
            }
            Expr::Unary(op, a) => {
                let a = self.emit(a)?;
                let dst = self.reg()?;
                self.push(Instr::Un(*op, a, dst));
                Some(dst)
            }
            Expr::Item(index, list) => {
                let i = self.emit(index)?;
                let l = self.emit(list)?;
                let dst = self.reg()?;
                self.push(Instr::Item(i, l, dst));
                Some(dst)
            }
            Expr::LengthOf(list) => {
                let l = self.emit(list)?;
                let dst = self.reg()?;
                self.push(Instr::Len(l, dst));
                Some(dst)
            }
            Expr::Contains(list, value) => {
                let l = self.emit(list)?;
                // The tree walk type-checks the list *before* evaluating
                // the value operand; keep that error order.
                self.push(Instr::CheckList(l));
                let v = self.emit(value)?;
                let dst = self.reg()?;
                self.push(Instr::Contains(l, v, dst));
                Some(dst)
            }
            Expr::Join(parts) => {
                let srcs: Option<Vec<Reg>> = parts.iter().map(|p| self.emit(p)).collect();
                let dst = self.reg()?;
                self.push(Instr::Join(srcs?.into_boxed_slice(), dst));
                Some(dst)
            }
            Expr::Split(text, delim) => {
                let t = self.emit(text)?;
                let d = self.emit(delim)?;
                let dst = self.reg()?;
                self.push(Instr::Split(t, d, dst));
                Some(dst)
            }
            Expr::LetterOf(index, text) => {
                let i = self.emit(index)?;
                let t = self.emit(text)?;
                let dst = self.reg()?;
                self.push(Instr::Letter(i, t, dst));
                Some(dst)
            }
            Expr::TextLength(text) => {
                let t = self.emit(text)?;
                let dst = self.reg()?;
                self.push(Instr::TextLen(t, dst));
                Some(dst)
            }
            Expr::NumbersFromTo(a, b) => {
                let a = self.emit(a)?;
                let b = self.emit(b)?;
                let dst = self.reg()?;
                self.push(Instr::Range(a, b, dst));
                Some(dst)
            }
            Expr::MakeList(items) => {
                let srcs: Option<Vec<Reg>> = items.iter().map(|i| self.emit(i)).collect();
                let dst = self.reg()?;
                self.push(Instr::MakeList(srcs?.into_boxed_slice(), dst));
                Some(dst)
            }
            // Higher-order / non-strict / impure constructs: tree walk.
            Expr::Ring(_)
            | Expr::CallRing(_, _)
            | Expr::Map { .. }
            | Expr::Keep { .. }
            | Expr::Combine { .. }
            | Expr::ParallelMap { .. }
            | Expr::MapReduce { .. }
            | Expr::PickRandom(_, _)
            | Expr::Attribute(_)
            | Expr::CallCustom(_, _) => None,
        }
    }
}

fn lower_boxed(ring: &Ring, expr: &Expr) -> Option<Program> {
    let mut b = Builder {
        ring,
        consts: Vec::new(),
        fresh: Vec::new(),
        instrs: Vec::new(),
        next_reg: 0,
        next_slot: 0,
    };
    let out = b.emit(expr)?;
    Some(Program {
        arity: arity_of(ring),
        consts: b.consts,
        fresh: b.fresh,
        instrs: b.instrs,
        regs: b.next_reg,
        out,
    })
}

// ---------------------------------------------------------------------
// Numeric lowering
// ---------------------------------------------------------------------

/// A numeric operand during lowering: either a compile-time constant
/// (folded) or a register holding a runtime value.
#[derive(Clone, Copy)]
enum NumVal {
    Const(f64),
    Reg(Reg),
}

struct NumBuilder<'a> {
    ring: &'a Ring,
    instrs: Vec<NumInstr>,
    next_reg: usize,
    next_slot: usize,
}

impl<'a> NumBuilder<'a> {
    fn reg(&mut self) -> Option<Reg> {
        let r = self.next_reg;
        if r > Reg::MAX as usize {
            return None;
        }
        self.next_reg = r + 1;
        Some(r as Reg)
    }

    fn materialize(&mut self, v: NumVal) -> Option<Reg> {
        match v {
            NumVal::Reg(r) => Some(r),
            NumVal::Const(c) => {
                let dst = self.reg()?;
                self.instrs.push(NumInstr::Const(c, dst));
                Some(dst)
            }
        }
    }

    /// Lower `e` in a **coercing operand position**: the consumer will
    /// apply `to_number`, so any value-producing node is admissible as
    /// long as its coercion is compile-time-known or register-loadable.
    /// Returns `None` when the node could observe non-numeric semantics.
    fn emit(&mut self, e: &Expr) -> Option<NumVal> {
        match e {
            // `to_number` of any literal is a compile-time constant.
            Expr::Literal(c) => Some(NumVal::Const(c.to_value().to_number())),
            Expr::Var(name) => match resolve_var(self.ring, name)? {
                Resolved::Param(pos) => {
                    if pos > u16::MAX as usize {
                        return None;
                    }
                    let dst = self.reg()?;
                    self.instrs.push(NumInstr::Arg(pos as u16, dst));
                    Some(NumVal::Reg(dst))
                }
                // Captured bindings are immutable; even a captured list
                // coerces to a constant (to_number of a list is 0).
                Resolved::Captured(v) => Some(NumVal::Const(v.to_number())),
            },
            Expr::EmptySlot => {
                let i = self.next_slot;
                if i > u16::MAX as usize {
                    return None;
                }
                self.next_slot = i + 1;
                let dst = self.reg()?;
                self.instrs.push(NumInstr::Slot(i as u16, dst));
                Some(NumVal::Reg(dst))
            }
            Expr::Binary(op, a, b) => {
                num_binop(*op, 0.0, 0.0)?;
                let a = self.emit(a)?;
                let b = self.emit(b)?;
                if let (NumVal::Const(x), NumVal::Const(y)) = (a, b) {
                    // Constant folding with the runtime's own arithmetic.
                    return Some(NumVal::Const(num_binop(*op, x, y)?));
                }
                let a = self.materialize(a)?;
                let b = self.materialize(b)?;
                let dst = self.reg()?;
                self.instrs.push(NumInstr::Bin(*op, a, b, dst));
                Some(NumVal::Reg(dst))
            }
            Expr::Unary(op, a) => {
                num_unop(*op, 0.0)?;
                let a = self.emit(a)?;
                if let NumVal::Const(x) = a {
                    return Some(NumVal::Const(num_unop(*op, x)?));
                }
                let a = self.materialize(a)?;
                let dst = self.reg()?;
                self.instrs.push(NumInstr::Un(*op, a, dst));
                Some(NumVal::Reg(dst))
            }
            // Everything else (comparisons produce Bools, text/list
            // blocks produce non-numbers, higher-order blocks are not
            // lowered at all): leave to the boxed path or tree walk.
            _ => None,
        }
    }
}

/// The numeric type pass + lowering. Succeeds only when the **root**
/// always produces a `Value::Number` (an arithmetic operator, a numeric
/// unary, or a number literal) and every reachable argument use sits in
/// a coercing operand position.
fn lower_numeric(ring: &Ring, expr: &Expr) -> Option<NumProgram> {
    let root_is_numeric = match expr {
        Expr::Binary(op, _, _) => num_binop(*op, 0.0, 0.0).is_some(),
        Expr::Unary(op, _) => num_unop(*op, 0.0).is_some(),
        Expr::Literal(Constant::Number(_)) => true,
        _ => false,
    };
    if !root_is_numeric {
        return None;
    }
    let mut b = NumBuilder {
        ring,
        instrs: Vec::new(),
        next_reg: 0,
        next_slot: 0,
    };
    let out = b.emit(expr)?;
    let out = b.materialize(out)?;
    // Wider than the fixed register file → decline; the ring still
    // compiles, as boxed bytecode (the fallback ladder's next tier), so
    // the scalar and batch executors never need a heap register branch.
    if b.next_reg > NUM_STACK_REGS {
        return None;
    }
    Some(NumProgram {
        arity: arity_of(ring),
        instrs: b.instrs,
        regs: b.next_reg,
        out,
    })
}

// ---------------------------------------------------------------------
// Pair lowering
// ---------------------------------------------------------------------

/// A `[key, number]` mapper, lowered for the MapReduce map phase: a key
/// (a constant, or the argument itself) plus the value expression as a
/// batchable [`NumProgram`].
///
/// For a one-argument call this computes exactly the pair the full ring
/// reports: the list's two items are a constant or the argument (which
/// cannot fail and have no effects) and a numeric program (bit-for-bit
/// the tree walk's value for any argument type), so evaluating them
/// column-wise instead of list-at-a-time changes nothing observable.
#[derive(Debug)]
pub struct PairProgram {
    const_key: Option<Value>,
    value: NumProgram,
}

impl PairProgram {
    /// The key every pair gets, when it is a compile-time scalar (a
    /// literal, or folded from captured values); `None` when each pair's
    /// key is the mapper's argument itself (its parameter, or an empty
    /// slot).
    pub fn const_key(&self) -> Option<&Value> {
        self.const_key.as_ref()
    }

    /// The value expression; always [`NumProgram::batchable`], with the
    /// item as its single argument.
    pub fn value(&self) -> &NumProgram {
        &self.value
    }
}

/// Lower a mapper of the shape `list(K, V)` to a [`PairProgram`]. The
/// ring must take one argument (slot-style or one parameter), `K` must
/// be a constant scalar or the bare argument, and `V` must pass the
/// numeric lowering. Any other shape — more items, a list-valued or
/// computed key, a non-numeric value, more parameters — returns `None`,
/// and the mapper keeps its per-element path.
pub fn lower_pair(ring: &Ring) -> Option<PairProgram> {
    let expr = match &ring.body {
        RingBody::Reporter(e) | RingBody::Predicate(e) => e,
        RingBody::Command(_) => return None,
    };
    let Expr::MakeList(items) = expr else {
        return None;
    };
    let [key, value] = items.as_slice() else {
        return None;
    };
    if ring.params.len() > 1 {
        return None;
    }
    let const_key = match key {
        // With one argument, every empty slot receives it.
        Expr::EmptySlot => None,
        Expr::Var(name) if matches!(resolve_var(ring, name), Some(Resolved::Param(_))) => None,
        _ => Some(fold(ring, key)?),
    };
    let value = lower_numeric(ring, value)?;
    Some(PairProgram { const_key, value })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;

    fn lower_ring(ring: Ring) -> Option<Lowered> {
        lower(&ring)
    }

    #[test]
    fn numeric_ring_takes_the_fast_path() {
        let lowered = lower_ring(Ring::reporter(mul(empty_slot(), num(10.0)))).unwrap();
        let p = match lowered {
            Lowered::Numeric(p) => p,
            Lowered::Boxed(_) => panic!("expected numeric"),
        };
        assert_eq!(p.call(&[Value::Number(7.0)]).unwrap(), Value::Number(70.0));
    }

    #[test]
    fn constant_subtrees_fold() {
        // (2 + 3) × x lowers to a single multiply against an immediate.
        let lowered = lower_ring(Ring::reporter_with_params(
            vec!["x".into()],
            mul(add(num(2.0), num(3.0)), var("x")),
        ))
        .unwrap();
        let p = match lowered {
            Lowered::Numeric(p) => p,
            Lowered::Boxed(_) => panic!("expected numeric"),
        };
        // Const, Arg, Bin — the add folded away.
        assert_eq!(p.len(), 3);
        assert_eq!(p.call(&[Value::Number(4.0)]).unwrap(), Value::Number(20.0));
    }

    #[test]
    fn textual_ring_takes_the_boxed_path() {
        let lowered = lower_ring(Ring::reporter_with_params(
            vec!["w".into()],
            make_list(vec![var("w"), num(1.0)]),
        ))
        .unwrap();
        let p = match lowered {
            Lowered::Boxed(p) => p,
            Lowered::Numeric(_) => panic!("expected boxed"),
        };
        let out = p.call(&[Value::text("fox")]).unwrap();
        assert_eq!(out, Value::list(vec!["fox".into(), 1.into()]));
    }

    #[test]
    fn nested_rings_are_not_lowered() {
        let body = Expr::Combine {
            list: Box::new(var("xs")),
            ring: Box::new(Expr::Ring(crate::expr::RingExpr::reporter(add(
                empty_slot(),
                empty_slot(),
            )))),
        };
        assert!(lower_ring(Ring::reporter_with_params(vec!["xs".into()], body)).is_none());
    }

    #[test]
    fn unbound_variables_are_not_lowered() {
        // The tree walk reports UnboundVariable at call time; lowering
        // must decline so that behavior is preserved.
        assert!(lower_ring(Ring::reporter(add(var("nope"), num(1.0)))).is_none());
    }

    #[test]
    fn arity_is_enforced() {
        let lowered = lower_ring(Ring::reporter_with_params(
            vec!["a".into(), "b".into()],
            add(var("a"), var("b")),
        ))
        .unwrap();
        let p = match lowered {
            Lowered::Numeric(p) => p,
            Lowered::Boxed(_) => panic!("expected numeric"),
        };
        assert_eq!(
            p.call(&[Value::Number(1.0)]),
            Err(EvalError::ArityMismatch {
                expected: 2,
                got: 1
            })
        );
    }

    #[test]
    fn single_argument_fills_every_slot() {
        let lowered = lower_ring(Ring::reporter(add(empty_slot(), empty_slot()))).unwrap();
        let p = match lowered {
            Lowered::Numeric(p) => p,
            Lowered::Boxed(_) => panic!("expected numeric"),
        };
        assert_eq!(p.call(&[Value::Number(4.0)]).unwrap(), Value::Number(8.0));
        assert_eq!(
            p.call(&[Value::Number(10.0), Value::Number(3.0)]).unwrap(),
            Value::Number(13.0)
        );
        assert_eq!(p.call(&[]).unwrap(), Value::Number(0.0));
    }

    #[test]
    fn list_literals_materialize_fresh_storage() {
        let lowered = lower_ring(Ring::reporter(Expr::Literal(Constant::List(
            vec![1.into()],
        ))))
        .unwrap();
        let p = match lowered {
            Lowered::Boxed(p) => p,
            Lowered::Numeric(_) => panic!("expected boxed"),
        };
        let a = p.call(&[]).unwrap();
        let b = p.call(&[]).unwrap();
        a.as_list().unwrap().add(2.into());
        assert_eq!(b.as_list().unwrap().len(), 1);
    }

    #[test]
    fn captured_lists_share_storage_across_calls() {
        // The tree walk clones the captured binding per call — which
        // shares list storage. The bytecode must do the same.
        let shared = Value::list(vec![1.into()]);
        let ring = Ring::reporter(var("xs")).with_captured(vec![("xs".into(), shared.clone())]);
        let lowered = lower_ring(ring).unwrap();
        let p = match lowered {
            Lowered::Boxed(p) => p,
            Lowered::Numeric(_) => panic!("expected boxed"),
        };
        let out = p.call(&[]).unwrap();
        assert!(out
            .as_list()
            .unwrap()
            .same_identity(shared.as_list().unwrap()));
    }

    #[test]
    fn comparison_roots_are_boxed_not_numeric() {
        let lowered = lower_ring(Ring::reporter(Expr::Binary(
            BinOp::Lt,
            Box::new(empty_slot()),
            Box::new(num(5.0)),
        )))
        .unwrap();
        let p = match lowered {
            Lowered::Boxed(p) => p,
            Lowered::Numeric(_) => panic!("comparisons must not take the numeric path"),
        };
        assert_eq!(p.call(&[Value::Number(3.0)]).unwrap(), Value::Bool(true));
        // snap_cmp semantics, not to_number: text compares textually.
        assert_eq!(p.call(&[Value::text("zebra")]).unwrap(), Value::Bool(false));
    }

    #[test]
    fn eval_batch_matches_scalar_calls_bitwise() {
        // The a5 bench ring: ((x × 2) + (x mod 7)) ÷ 3, slot-style.
        let lowered = lower_ring(Ring::reporter(div(
            add(mul(empty_slot(), num(2.0)), modulo(empty_slot(), num(7.0))),
            num(3.0),
        )))
        .unwrap();
        let p = match lowered {
            Lowered::Numeric(p) => p,
            Lowered::Boxed(_) => panic!("expected numeric"),
        };
        assert!(p.batchable());
        // Cross a block boundary (> BATCH_LANES elements) and include
        // the awkward values.
        let mut inputs: Vec<f64> = (0..(BATCH_LANES * 2 + 17))
            .map(|i| i as f64 * 0.37)
            .collect();
        inputs.extend([
            f64::NAN,
            -0.0,
            0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            5e-324,
        ]);
        let mut batch = Vec::new();
        p.eval_batch(&inputs, &mut batch);
        assert_eq!(batch.len(), inputs.len());
        for (&x, &got) in inputs.iter().zip(&batch) {
            let scalar = match p.call(&[Value::Number(x)]).unwrap() {
                Value::Number(n) => n,
                other => panic!("non-number: {other:?}"),
            };
            // NaN payloads are exempt: operand order at a commutable op
            // decides which payload propagates, and the optimizer may
            // pick differently for the scalar and batch loops.
            assert!(
                got.to_bits() == scalar.to_bits() || (got.is_nan() && scalar.is_nan()),
                "input {x}: batch {got:?} vs scalar {scalar:?}"
            );
        }
    }

    #[test]
    fn eval_batch_handles_empty_input() {
        let lowered = lower_ring(Ring::reporter(mul(empty_slot(), num(10.0)))).unwrap();
        let p = match lowered {
            Lowered::Numeric(p) => p,
            Lowered::Boxed(_) => panic!("expected numeric"),
        };
        let mut out = Vec::new();
        p.eval_batch(&[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn multi_parameter_programs_are_not_batchable() {
        let lowered = lower_ring(Ring::reporter_with_params(
            vec!["a".into(), "b".into()],
            add(var("a"), var("b")),
        ))
        .unwrap();
        let p = match lowered {
            Lowered::Numeric(p) => p,
            Lowered::Boxed(_) => panic!("expected numeric"),
        };
        assert!(!p.batchable());
    }

    #[test]
    fn wide_numeric_rings_decline_to_boxed_bytecode() {
        // A 40-term chain of x + x + … needs ~40 live registers — over
        // the NUM_STACK_REGS file. Numeric lowering must decline (not
        // fail), leaving boxed bytecode with identical results.
        let mut expr = var("x");
        for _ in 0..40 {
            expr = add(expr, var("x"));
        }
        let lowered = lower_ring(Ring::reporter_with_params(vec!["x".into()], expr)).unwrap();
        let p = match lowered {
            Lowered::Boxed(p) => p,
            Lowered::Numeric(_) => panic!("40-term chain cannot fit the numeric register file"),
        };
        assert_eq!(p.call(&[Value::Number(1.0)]).unwrap(), Value::Number(41.0));
    }

    #[test]
    fn pair_mappers_lower_to_key_and_value_columns() {
        // Fig. 19: t ↦ ["avg", 5 × (t − 32) ÷ 9].
        let climate = Ring::reporter_with_params(
            vec!["t".into()],
            make_list(vec![
                text("avg"),
                div(mul(num(5.0), sub(var("t"), num(32.0))), num(9.0)),
            ]),
        );
        let p = lower_pair(&climate).expect("climate mapper lowers");
        assert_eq!(p.const_key(), Some(&Value::text("avg")));
        assert!(p.value().batchable());
        assert_eq!(
            p.value().call(&[Value::Number(212.0)]).unwrap(),
            Value::Number(100.0)
        );
        // Fig. 11: w ↦ [w, 1], and its slot-style twin.
        let word =
            Ring::reporter_with_params(vec!["w".into()], make_list(vec![var("w"), num(1.0)]));
        assert_eq!(lower_pair(&word).unwrap().const_key(), None);
        let slot = Ring::reporter(make_list(vec![empty_slot(), num(1.0)]));
        assert_eq!(lower_pair(&slot).unwrap().const_key(), None);
        // A key folded from captured values.
        let captured = Ring::reporter(make_list(vec![
            add(var("k"), num(1.0)),
            mul(empty_slot(), num(2.0)),
        ]))
        .with_captured(vec![("k".into(), Value::Number(2.0))]);
        let p = lower_pair(&captured).expect("captured key folds");
        assert_eq!(p.const_key(), Some(&Value::Number(3.0)));
    }

    #[test]
    fn other_shapes_do_not_lower_to_pairs() {
        // The 3-item list, list-valued key, `join` value and 2-parameter
        // shapes are covered end to end by `pair_map_diff`.
        let captured_list_key = Ring::reporter(make_list(vec![var("xs"), num(1.0)]))
            .with_captured(vec![("xs".into(), Value::list(vec![1.into()]))]);
        let computed_key = Ring::reporter(make_list(vec![mul(empty_slot(), num(2.0)), num(1.0)]));
        let bare_value =
            Ring::reporter_with_params(vec!["c".into()], make_list(vec![text("avg"), var("c")]));
        let unbound_key = Ring::reporter(make_list(vec![var("nope"), num(1.0)]));
        for ring in [captured_list_key, computed_key, bare_value, unbound_key] {
            assert!(lower_pair(&ring).is_none(), "{ring:?} must not lower");
        }
    }

    #[test]
    fn num_cores_match_eval_ops() {
        for op in [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Div,
            BinOp::Mod,
            BinOp::Pow,
        ] {
            for (x, y) in [
                (7.5, 3.25),
                (-7.0, 3.0),
                (7.0, -3.0),
                (0.0, 0.0),
                (1e300, 2.0),
            ] {
                // black_box keeps the optimizer from constant-folding
                // either side (LLVM's folded 0/0 NaN sign differs from
                // the hardware divide's) — the point is to compare the
                // *runtime* cores.
                let (x, y) = (std::hint::black_box(x), std::hint::black_box(y));
                let folded = num_binop(op, x, y).unwrap();
                let evaled = match eval_binop(op, &Value::Number(x), &Value::Number(y)) {
                    Value::Number(n) => n,
                    other => panic!("non-number from {op:?}: {other:?}"),
                };
                // Bit-exact, so NaN results also count as equal.
                assert_eq!(folded.to_bits(), evaled.to_bits(), "{op:?} {x} {y}");
            }
        }
    }
}
