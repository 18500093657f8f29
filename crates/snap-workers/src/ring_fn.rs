//! Shipping rings to workers.
//!
//! The paper's `reportParallelMap` (Listing 2) extracts the user's ringed
//! operator from the stack frame, renders it to source with
//! `mappedCode()`, wraps it in `new Function(...)`, and hands it to
//! Parallel.js; the list data is copied to each Web Worker by
//! `postMessage`'s structured clone. [`ring_map`] is that pipeline in
//! Rust: compile the ring to a [`PureFn`] (compile-time purity check
//! instead of "hope the JS works in the worker"), deep-copy each item
//! across the thread boundary, evaluate, deep-copy the result back.
//!
//! Compilation goes further than the paper's `new Function`: the
//! `PureFn` from [`compile_cached`] carries ring **bytecode** (an
//! unboxed `f64` register program for numeric rings — see
//! `snap_ast::bytecode`), so every execution path that flows through
//! here — pooled, work-stolen, fault-retried, spawn-per-call — runs the
//! compiled form per item, not a tree walk. On top of that sits the
//! **columnar batch tier**: when the ring is batchable and every list
//! element is a `Value::Number`, the map unboxes the list once, moves
//! flat `f64` chunks through the pool, and runs `eval_batch` per chunk
//! with no per-element dispatch at all (see [`ColumnarPolicy`]).
//!
//! The MapReduce map phase ([`ring_map_pairs`]) has a columnar form too.
//! A mapper of the shape `list(K, V)` — one argument, `K` a constant
//! scalar or the bare argument, `V` a numeric expression — compiles to
//! a [`PairProgram`], and each chunk writes its `(key, value)` pairs
//! directly: the value column by `eval_batch` over the chunk's flat
//! `f64`s (or one unboxed `NumProgram::call` per item when the chunk is
//! not all-numeric), the key column by cloning the constant or
//! isolating the item. Every other mapper, and every call outside the
//! columnar gates, keeps the per-element path — the only fallback, and
//! the oracle. The `ring.batch_calls` / `ring.fastpath_calls` /
//! `ring.bytecode_calls` / `ring.treewalk_calls` counters show which
//! tier a run used.
//!
//! Every ring application — here, in the blocks' degraded paths and in
//! the stream stages — goes through one kernel: [`call_item`] (one item
//! under structured clone), [`call_group`] (one reduce group) and
//! [`map_chunk`] (one [`Chunk`], with the tier choice: a flat column
//! through a batchable ring is one `eval_batch`, anything else one
//! [`call_item`] per item).
//!
//! Every tier here runs in-process. The compiled-C workers of
//! `snap_codegen::worker` are codegen's own differential and bench tool;
//! this crate does not depend on `snap-codegen`.

use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use snap_ast::bytecode::PairProgram;
use snap_ast::pure::{compile_cached, PureFn};
use snap_ast::{EvalError, Ring, Value};

use crate::executor::{columnar_chunk_size, try_map_slice_with, ExecMode};
use crate::fault::{ExecError, FaultPolicy};
use crate::parallel::Strategy;

/// Whether values crossing the worker boundary are structured-cloned
/// (the Web Worker model) or shared (what raw threads allow). `Share` is
/// only for the `ablate_copy` bench — it quantifies what the copy costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Isolation {
    /// Deep-copy inputs into the worker and results out of it.
    #[default]
    Copy,
    /// Share list storage across threads (safe in Rust — `List` is a
    /// lock-protected `Arc` — but not what Web Workers do).
    Share,
}

/// Whether [`ring_map`] may route all-numeric lists through the
/// columnar batch tier (flat `f64` chunks + `eval_batch`, boxing
/// deferred to the output seam) instead of per-element calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ColumnarPolicy {
    /// Batch when the ring is batchable and every element is a
    /// `Value::Number` (and the list is big enough to pay for the scan).
    #[default]
    Auto,
    /// Always evaluate per element — the ablation baseline, and the
    /// knob differential tests flip to prove output equivalence.
    Disabled,
}

/// Don't bother scanning tiny lists for numeric-ness: below this the
/// per-element path is already cheap. Public so tests and benches can
/// size inputs relative to the threshold.
pub const COLUMNAR_MIN_ITEMS: usize = 16;

/// Options for [`ring_map`].
#[derive(Debug, Clone, Copy)]
pub struct RingMapOptions {
    /// Worker count (clamped to ≥ 1).
    pub workers: usize,
    /// Work-distribution strategy.
    pub strategy: Strategy,
    /// Boundary-crossing semantics.
    pub isolation: Isolation,
    /// Pooled (default) or spawn-per-call execution.
    pub exec: ExecMode,
    /// Simulated per-item service time, slept by the worker before
    /// evaluating. Models latency-bound items (a drink takes time to
    /// pour, a request takes time to answer) so worker scaling is
    /// observable even on single-core hosts; `None` for real workloads.
    pub latency: Option<std::time::Duration>,
    /// Fault policy for the call. The default (no retries, no deadline)
    /// reproduces the pre-fault-tolerance behaviour exactly.
    pub policy: FaultPolicy,
    /// Columnar batch tier: on by default, off for ablation.
    pub columnar: ColumnarPolicy,
}

impl Default for RingMapOptions {
    fn default() -> Self {
        RingMapOptions {
            workers: crate::parallel::default_workers(),
            strategy: Strategy::Dynamic,
            isolation: Isolation::Copy,
            exec: ExecMode::Pooled,
            latency: None,
            policy: FaultPolicy::default(),
            columnar: ColumnarPolicy::default(),
        }
    }
}

/// Failure of a fault-aware ring map: either the user's ring reported an
/// evaluation error, or the execution layer itself failed (retry budget
/// exhausted, deadline exceeded). Callers that degrade gracefully match
/// on [`RingMapError::Exec`] to pick the fallback.
#[derive(Debug, Clone, PartialEq)]
pub enum RingMapError {
    /// The ring itself reported an error on some item.
    Eval(EvalError),
    /// The execution layer failed (panics beyond the retry budget, or
    /// the call deadline passed).
    Exec(ExecError),
}

impl fmt::Display for RingMapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RingMapError::Eval(e) => write!(f, "{e}"),
            RingMapError::Exec(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RingMapError {}

impl From<RingMapError> for EvalError {
    fn from(err: RingMapError) -> EvalError {
        match err {
            RingMapError::Eval(e) => e,
            RingMapError::Exec(e) => EvalError::Other(e.to_string()),
        }
    }
}

/// Apply a reporter ring to every item in parallel. Results come back in
/// input order; the first error (if any) is reported. Execution-layer
/// failures (retry exhaustion, deadline) are flattened into
/// [`EvalError::Other`]; callers that need to tell them apart use
/// [`ring_map_faulted`].
pub fn ring_map(
    ring: Arc<Ring>,
    items: Vec<Value>,
    options: RingMapOptions,
) -> Result<Vec<Value>, EvalError> {
    ring_map_faulted(ring, items, options).map_err(EvalError::from)
}

/// [`ring_map`] with the execution-layer failure kept distinct: the
/// fault-aware entry point for callers that degrade gracefully (the
/// parallel blocks fall back to a sequential map on
/// [`ExecError::RetriesExhausted`], but propagate deadline errors).
pub fn ring_map_faulted(
    ring: Arc<Ring>,
    items: impl AsRef<[Value]>,
    options: RingMapOptions,
) -> Result<Vec<Value>, RingMapError> {
    let items = items.as_ref();
    let len = items.len();
    let _span = snap_trace::span!("ring_map", len);
    let f = compile_for_call(&ring, len)?;
    map_compiled(&f, items, &options)
}

/// Count one ring call over `len` items and compile (or fetch) its ring.
fn compile_for_call(ring: &Arc<Ring>, len: usize) -> Result<PureFn, RingMapError> {
    snap_trace::well_known::RING_MAP_CALLS.incr();
    snap_trace::well_known::RING_MAP_ITEMS.add(len as u64);
    compile_cached(ring).map_err(RingMapError::Eval)
}

/// The columnar tiers' shared gate: on by policy, no simulated latency
/// (which must be slept per item), and a list big enough to pay for the
/// scan.
fn columnar_allowed(options: &RingMapOptions, len: usize) -> bool {
    options.columnar == ColumnarPolicy::Auto
        && options.latency.is_none()
        && len >= COLUMNAR_MIN_ITEMS
}

/// The body of [`ring_map_faulted`] once the ring is compiled: the
/// columnar batch tier when it applies, else per-element calls.
fn map_compiled(
    f: &PureFn,
    items: &[Value],
    options: &RingMapOptions,
) -> Result<Vec<Value>, RingMapError> {
    if columnar_allowed(options, items.len()) {
        if let Some(inputs) = f.is_batchable().then(|| columnar_f64(items)).flatten() {
            return columnar_map(f, inputs, options);
        }
        // A batch-sized map stayed on the per-element path: either the
        // ring is not batchable or the list is not all-numeric.
        snap_trace::well_known::RING_BATCH_FALLBACKS.incr();
    }
    per_item(items, options, |item| {
        if let Some(latency) = options.latency {
            std::thread::sleep(latency);
        }
        call_item(f, item, options.isolation)
    })
}

/// Run `call` once per element on the pool — the fault policy applies
/// per element — and collect the results in order, or the first ring
/// error.
fn per_item<T: Send + Sync>(
    items: &[T],
    options: &RingMapOptions,
    call: impl Fn(&T) -> Result<Value, EvalError> + Send + Sync,
) -> Result<Vec<Value>, RingMapError> {
    try_map_slice_with(
        items,
        options.workers,
        options.strategy,
        options.exec,
        &options.policy,
        call,
    )
    .map_err(RingMapError::Exec)?
    .into_iter()
    .collect::<Result<Vec<Value>, EvalError>>()
    .map_err(RingMapError::Eval)
}

/// An item as it crosses into a worker: structured-cloned under
/// [`Isolation::Copy`], shared under [`Isolation::Share`].
fn isolate(item: &Value, isolation: Isolation) -> Value {
    match isolation {
        Isolation::Copy => item.deep_copy(),
        Isolation::Share => item.clone(),
    }
}

/// A worker's result as it crosses back: [`isolate`] for an owned value.
fn export(result: Value, isolation: Isolation) -> Value {
    match isolation {
        Isolation::Copy => result.deep_copy(),
        Isolation::Share => result,
    }
}

/// The per-item ring call: the item crosses into the worker, the ring
/// runs, the result crosses back — both crossings structured clones
/// under [`Isolation::Copy`] (Listing 2's `postMessage` round trip).
pub fn call_item(f: &PureFn, item: &Value, isolation: Isolation) -> Result<Value, EvalError> {
    Ok(export(f.call1(isolate(item, isolation))?, isolation))
}

/// The per-group reduce call: a fresh list of the group's values in,
/// `[key, reduced]` out.
pub fn call_group(
    f: &PureFn,
    key: &Value,
    values: &[Value],
    isolation: Isolation,
) -> Result<Value, EvalError> {
    let arg = Value::list(values.iter().map(|v| isolate(v, isolation)).collect());
    let reduced = export(f.call1(arg)?, isolation);
    Ok(Value::list(vec![key.clone(), reduced]))
}

/// A run of items as the ring kernel carries it: boxed values, or one
/// flat `f64` column when every item is a `Value::Number` (the columnar
/// tier's form). Stream blocks travel as chunks.
#[derive(Debug, PartialEq)]
pub enum Chunk {
    /// One boxed value per item.
    Boxed(Vec<Value>),
    /// Every item a number, unboxed.
    Columnar(Vec<f64>),
}

impl Chunk {
    /// Pack the items drained from `buf`: a column when every one is a
    /// `Value::Number`, else the boxed values themselves.
    pub fn pack(buf: &mut Vec<Value>) -> Chunk {
        match columnar_f64(buf) {
            Some(column) => {
                buf.clear();
                Chunk::Columnar(column)
            }
            None => Chunk::Boxed(std::mem::take(buf)),
        }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        match self {
            Chunk::Boxed(items) => items.len(),
            Chunk::Columnar(column) => column.len(),
        }
    }

    /// `true` when the chunk holds no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The items as values — the boxing seam.
    pub fn into_values(self) -> Vec<Value> {
        match self {
            Chunk::Boxed(items) => items,
            Chunk::Columnar(column) => column.into_iter().map(Value::Number).collect(),
        }
    }

    /// Run `each` over the items in order, stopping at the first error;
    /// a column's numbers are boxed one at a time.
    pub fn try_for_each(
        &self,
        mut each: impl FnMut(&Value) -> Result<(), EvalError>,
    ) -> Result<(), EvalError> {
        match self {
            Chunk::Boxed(items) => items.iter().try_for_each(each),
            Chunk::Columnar(column) => column.iter().try_for_each(|&x| each(&Value::Number(x))),
        }
    }
}

/// One chunk through a map ring, and the columnar tier choice: a column
/// through a batchable ring is one `eval_batch` and stays a column;
/// anything else is one [`call_item`] per item.
pub fn map_chunk(f: &PureFn, chunk: &Chunk, isolation: Isolation) -> Result<Chunk, EvalError> {
    if let Chunk::Columnar(column) = chunk {
        if let Some(out) = eval_column(f, column) {
            return Ok(Chunk::Columnar(out));
        }
    }
    let mut out = Vec::with_capacity(chunk.len());
    chunk.try_for_each(|item| {
        out.push(call_item(f, item, isolation)?);
        Ok(())
    })?;
    Ok(Chunk::Boxed(out))
}

/// One `eval_batch` over a column, counted as one columnar chunk;
/// `None` when the ring is not batchable.
fn eval_column(f: &PureFn, column: &[f64]) -> Option<Vec<f64>> {
    let mut out = Vec::with_capacity(column.len());
    f.eval_batch(column, &mut out).then(|| {
        snap_trace::well_known::PAR_COLUMNAR_CHUNKS.incr();
        out
    })
}

/// The columnar detection scan: `Some(flat f64s)` when every element is
/// a `Value::Number`, `None` at the first non-number. One pass, no
/// boxing — `to_number` of a `Number` is the identity, so the flat view
/// feeds `eval_batch` the exact values per-element calls would coerce.
fn columnar_f64(items: &[Value]) -> Option<Vec<f64>> {
    let mut flat = Vec::with_capacity(items.len());
    for item in items {
        match item {
            Value::Number(n) => flat.push(*n),
            _ => return None,
        }
    }
    Some(flat)
}

/// The columnar tiers' chunk runner, shared by [`columnar_map`] and
/// [`pair_map`]: split `0..len` into coarse chunks
/// ([`columnar_chunk_size`]) and run `body` once per chunk on the pool,
/// returning the outputs in chunk order.
///
/// Chunks are deliberately coarse: columnar work is so cheap per element
/// that fine-grained claiming is all overhead. The fault policy applies
/// at chunk granularity: an injected panic retries the whole chunk, and
/// an exhausted budget or a missed deadline surfaces as
/// [`RingMapError::Exec`], so callers degrade exactly as they do for the
/// per-element path.
fn run_chunks<R: Send>(
    len: usize,
    options: &RingMapOptions,
    body: impl Fn(Range<usize>) -> R + Send + Sync,
) -> Result<Vec<R>, RingMapError> {
    let chunk = columnar_chunk_size(len, options.workers);
    let chunks: Vec<Range<usize>> = (0..len)
        .step_by(chunk)
        .map(|start| start..(start + chunk).min(len))
        .collect();
    try_map_slice_with(
        &chunks,
        options.workers,
        options.strategy,
        options.exec,
        &options.policy,
        |range| body(range.clone()),
    )
    .map_err(RingMapError::Exec)
}

/// The columnar batch tier of [`ring_map_faulted`]: the list moves
/// through the work-stealing pool as flat `f64` chunk descriptors
/// ([`run_chunks`]), each task runs one `eval_batch` over its sub-slice
/// (the kernel's column step), and results are boxed back to `Value`s
/// only at the single output seam below. Isolation needs no handling
/// here: numbers are plain copies either way.
fn columnar_map(
    f: &PureFn,
    inputs: Vec<f64>,
    options: &RingMapOptions,
) -> Result<Vec<Value>, RingMapError> {
    let len = inputs.len();
    let _span = snap_trace::span!("columnar_map", len);
    let outputs = run_chunks(len, options, |range| {
        eval_column(f, &inputs[range]).expect("columnar_map requires a batchable ring")
    })?;
    // The boxing seam: flat chunk outputs become Values exactly once,
    // in input order.
    let mut values = Vec::with_capacity(len);
    for chunk in outputs {
        values.extend(chunk.into_iter().map(Value::Number));
    }
    Ok(values)
}

/// The columnar form of the MapReduce map phase: a `[key, number]`
/// mapper's pairs, written chunk by chunk with no per-item ring call and
/// no list built and unpacked per item.
///
/// Chunks, fault policy and retry granularity are [`columnar_map`]'s
/// (one [`run_chunks`]). Within a chunk the value column is one
/// `eval_batch` over the chunk's flat `f64`s when every item is a
/// `Value::Number`, else one unboxed `NumProgram::call` per item — which
/// coerces any argument exactly as the tree walk does. The key column is
/// the constant, cloned, or the item itself, isolated like a
/// per-element call's argument. A call with any non-numeric chunk counts
/// one `ring.batch_fallbacks`, as [`map_compiled`] does for a
/// non-numeric list.
fn pair_map(
    pair: &PairProgram,
    items: &[Value],
    options: &RingMapOptions,
) -> Result<Vec<(Value, Value)>, RingMapError> {
    let len = items.len();
    let _span = snap_trace::span!("pair_map", len);
    let key = |item: &Value| match pair.const_key() {
        Some(k) => k.clone(),
        None => isolate(item, options.isolation),
    };
    // A statistic only, read after every chunk has joined: Relaxed.
    let unbatched = AtomicBool::new(false);
    let chunks = run_chunks(len, options, |range| {
        snap_trace::well_known::PAR_COLUMNAR_CHUNKS.incr();
        let items = &items[range];
        match columnar_f64(items) {
            Some(flat) => {
                snap_trace::well_known::RING_BATCH_CALLS.incr();
                snap_trace::well_known::RING_BATCH_ELEMS.add(flat.len() as u64);
                let mut values = Vec::with_capacity(flat.len());
                pair.value().eval_batch(&flat, &mut values);
                Ok(items
                    .iter()
                    .zip(values)
                    .map(|(item, v)| (key(item), Value::Number(v)))
                    .collect())
            }
            None => {
                unbatched.store(true, Ordering::Relaxed);
                snap_trace::well_known::RING_FASTPATH_CALLS.add(items.len() as u64);
                items
                    .iter()
                    .map(|item| Ok((key(item), pair.value().call(std::slice::from_ref(item))?)))
                    .collect::<Result<Vec<(Value, Value)>, EvalError>>()
            }
        }
    })?;
    if unbatched.into_inner() {
        snap_trace::well_known::RING_BATCH_FALLBACKS.incr();
    }
    let mut pairs = Vec::with_capacity(len);
    for chunk in chunks {
        pairs.extend(chunk.map_err(RingMapError::Eval)?);
    }
    Ok(pairs)
}

/// Validate one mapper output as a `[key, value]` pair (the shape the
/// MapReduce shuffle expects).
pub fn as_map_pair(pair: Value) -> Result<(Value, Value), EvalError> {
    match pair.as_list() {
        Some(list) if list.len() >= 2 => Ok((
            list.item(1).unwrap_or(Value::Nothing),
            list.item(2).unwrap_or(Value::Nothing),
        )),
        _ => Err(EvalError::TypeMismatch {
            expected: "[key, value] pair from the map function",
            got: pair.to_display_string(),
        }),
    }
}

/// Apply a reporter ring to every item, returning `[key, value]` pairs —
/// the worker half of the MapReduce map phase. Identical to [`ring_map`]
/// followed by [`as_map_pair`] on each result; a `[key, number]` mapper
/// takes the columnar pair path instead (see the module docs), with the
/// same output.
pub fn ring_map_pairs(
    ring: Arc<Ring>,
    items: Vec<Value>,
    options: RingMapOptions,
) -> Result<Vec<(Value, Value)>, EvalError> {
    ring_map_pairs_faulted(ring, items, options).map_err(EvalError::from)
}

/// [`ring_map_pairs`] with the execution-layer failure kept distinct.
pub fn ring_map_pairs_faulted(
    ring: Arc<Ring>,
    items: impl AsRef<[Value]>,
    options: RingMapOptions,
) -> Result<Vec<(Value, Value)>, RingMapError> {
    let items = items.as_ref();
    let len = items.len();
    let _span = snap_trace::span!("ring_map", len);
    let f = compile_for_call(&ring, len)?;
    if let Some(pair) = f.pair_program() {
        if columnar_allowed(&options, len) {
            return pair_map(pair, items, &options);
        }
    }
    map_compiled(&f, items, &options)?
        .into_iter()
        .map(as_map_pair)
        .collect::<Result<Vec<(Value, Value)>, EvalError>>()
        .map_err(RingMapError::Eval)
}

/// Apply a reporter ring once per group in parallel. Each call receives
/// the group's value list as its single argument (the reduce phase).
pub fn ring_reduce_groups(
    ring: Arc<Ring>,
    groups: Vec<(Value, Vec<Value>)>,
    options: RingMapOptions,
) -> Result<Vec<Value>, EvalError> {
    ring_reduce_groups_faulted(ring, groups, options).map_err(EvalError::from)
}

/// [`ring_reduce_groups`] with the execution-layer failure kept
/// distinct.
pub fn ring_reduce_groups_faulted(
    ring: Arc<Ring>,
    groups: impl AsRef<[(Value, Vec<Value>)]>,
    options: RingMapOptions,
) -> Result<Vec<Value>, RingMapError> {
    let groups = groups.as_ref();
    let len = groups.len();
    let _span = snap_trace::span!("ring_reduce_groups", len);
    let f = compile_for_call(&ring, len)?;
    per_item(groups, &options, |(key, values)| {
        call_group(&f, key, values, options.isolation)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_ast::builder::*;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    fn times_ten() -> Arc<Ring> {
        Arc::new(Ring::reporter(mul(empty_slot(), num(10.0))))
    }

    /// The tier counters are process-global and tests run concurrently:
    /// every test here runs rings, moving counters that others assert
    /// exact deltas of, so each holds this lock.
    static COUNTERS: Mutex<()> = Mutex::new(());

    fn counters() -> MutexGuard<'static, ()> {
        COUNTERS.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn ring_map_matches_paper_fig6() {
        let _counters = counters();
        let out = ring_map(
            times_ten(),
            vec![3.into(), 7.into(), 8.into()],
            RingMapOptions {
                workers: 4,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(out, vec![30.into(), 70.into(), 80.into()]);
    }

    #[test]
    fn ring_map_first_ten_of_large_list() {
        let _counters = counters();
        // Fig. 6 shows the first ten inputs/outputs of a long list.
        let items: Vec<Value> = (1..=1000).map(|n| Value::Number(n as f64)).collect();
        let out = ring_map(times_ten(), items, RingMapOptions::default()).unwrap();
        let first_ten: Vec<f64> = out.iter().take(10).map(Value::to_number).collect();
        assert_eq!(
            first_ten,
            vec![10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0]
        );
    }

    #[test]
    fn pooled_map_runs_the_columnar_batch_tier() {
        let _counters = counters();
        // The columnar contract: a numeric ring over an all-Number list
        // must run eval_batch over flat chunks, not per-element calls.
        // Counters are global, so assert deltas: 64 items → at least 64
        // new batch elements, and the treewalk counter must not have
        // absorbed them.
        let batch_before = snap_trace::well_known::RING_BATCH_ELEMS.get();
        let tree_before = snap_trace::well_known::RING_TREEWALK_CALLS.get();
        let items: Vec<Value> = (0..64).map(|n| Value::Number(n as f64)).collect();
        let out = ring_map(
            times_ten(),
            items,
            RingMapOptions {
                workers: 4,
                exec: ExecMode::Pooled,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(out.len(), 64);
        assert_eq!(out[7], Value::Number(70.0));
        let batch_delta = snap_trace::well_known::RING_BATCH_ELEMS.get() - batch_before;
        let tree_delta = snap_trace::well_known::RING_TREEWALK_CALLS.get() - tree_before;
        assert!(
            batch_delta >= 64,
            "expected ≥64 batch elements, saw {batch_delta}"
        );
        assert!(
            tree_delta < 64,
            "numeric ring fell back to the tree walk ({tree_delta} calls)"
        );
    }

    #[test]
    fn disabled_columnar_runs_the_scalar_fastpath() {
        let _counters = counters();
        // The pre-columnar contract still holds under
        // ColumnarPolicy::Disabled: per-element unboxed fastpath calls.
        let fast_before = snap_trace::well_known::RING_FASTPATH_CALLS.get();
        let items: Vec<Value> = (0..64).map(|n| Value::Number(n as f64)).collect();
        let out = ring_map(
            times_ten(),
            items,
            RingMapOptions {
                workers: 4,
                columnar: ColumnarPolicy::Disabled,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(out.len(), 64);
        let fast_delta = snap_trace::well_known::RING_FASTPATH_CALLS.get() - fast_before;
        assert!(
            fast_delta >= 64,
            "expected ≥64 fastpath calls, saw {fast_delta}"
        );
    }

    #[test]
    fn mixed_type_lists_fall_back_to_per_element_calls() {
        let _counters = counters();
        // One Text element spoils the columnar scan; output must still
        // be correct and the fallback counter must tick.
        let fallback_before = snap_trace::well_known::RING_BATCH_FALLBACKS.get();
        let mut items: Vec<Value> = (0..32).map(|n| Value::Number(n as f64)).collect();
        items.push(Value::text("  4 ")); // numeric text coerces to 4
        let out = ring_map(times_ten(), items, RingMapOptions::default()).unwrap();
        assert_eq!(out.len(), 33);
        assert_eq!(out[32], Value::Number(40.0));
        assert!(snap_trace::well_known::RING_BATCH_FALLBACKS.get() > fallback_before);
    }

    #[test]
    fn small_lists_skip_the_columnar_scan() {
        let _counters = counters();
        // Below COLUMNAR_MIN_ITEMS the per-element path runs directly —
        // and without counting a fallback (nothing was declined).
        let fallback_before = snap_trace::well_known::RING_BATCH_FALLBACKS.get();
        let items: Vec<Value> = (0..COLUMNAR_MIN_ITEMS - 1)
            .map(|n| Value::Number(n as f64))
            .collect();
        let out = ring_map(times_ten(), items, RingMapOptions::default()).unwrap();
        assert_eq!(out.len(), COLUMNAR_MIN_ITEMS - 1);
        assert_eq!(
            snap_trace::well_known::RING_BATCH_FALLBACKS.get(),
            fallback_before
        );
    }

    #[test]
    fn columnar_and_scalar_agree_elementwise() {
        let _counters = counters();
        let items: Vec<Value> = (0..500).map(|n| Value::Number(n as f64 * 0.73)).collect();
        let on = ring_map(times_ten(), items.clone(), RingMapOptions::default()).unwrap();
        let off = ring_map(
            times_ten(),
            items,
            RingMapOptions {
                columnar: ColumnarPolicy::Disabled,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(on, off);
    }

    #[test]
    fn copy_isolation_protects_caller_lists() {
        let _counters = counters();
        // The ring reports its input list unchanged; under Copy isolation
        // the outputs must not alias the inputs.
        let identity = Arc::new(Ring::reporter(empty_slot()));
        let shared = snap_ast::List::from_vec(vec![1.into()]);
        let out = ring_map(
            identity,
            vec![Value::List(shared.clone())],
            RingMapOptions::default(),
        )
        .unwrap();
        shared.add(2.into());
        assert_eq!(out[0].as_list().unwrap().len(), 1, "worker saw a copy");
    }

    #[test]
    fn share_isolation_aliases() {
        let _counters = counters();
        let identity = Arc::new(Ring::reporter(empty_slot()));
        let shared = snap_ast::List::from_vec(vec![1.into()]);
        let out = ring_map(
            identity,
            vec![Value::List(shared.clone())],
            RingMapOptions {
                isolation: Isolation::Share,
                ..Default::default()
            },
        )
        .unwrap();
        shared.add(2.into());
        assert_eq!(out[0].as_list().unwrap().len(), 2, "worker shared storage");
    }

    #[test]
    fn impure_ring_is_rejected() {
        let _counters = counters();
        let ring = Arc::new(Ring::reporter(pick_random(num(1.0), num(6.0))));
        assert!(ring_map(ring, vec![1.into()], RingMapOptions::default()).is_err());
    }

    #[test]
    fn eval_errors_propagate_from_workers() {
        let _counters = counters();
        // item 5 of the (too short) input list → index error on workers.
        let ring = Arc::new(Ring::reporter(item(num(5.0), empty_slot())));
        let items = vec![Value::list(vec![1.into()]), Value::list(vec![2.into()])];
        let err = ring_map(ring, items, RingMapOptions::default());
        assert!(err.is_err());
    }

    #[test]
    fn ring_map_pairs_validates_shape() {
        let _counters = counters();
        let good = Arc::new(Ring::reporter_with_params(
            vec!["w".into()],
            make_list(vec![var("w"), num(1.0)]),
        ));
        let pairs = ring_map_pairs(good, vec!["a".into()], RingMapOptions::default()).unwrap();
        assert_eq!(pairs[0].0, Value::text("a"));
        let bad = Arc::new(Ring::reporter(empty_slot()));
        assert!(ring_map_pairs(bad, vec![1.into()], RingMapOptions::default()).is_err());
    }

    #[test]
    fn ring_reduce_groups_reduces_each_key() {
        let _counters = counters();
        let sum = Arc::new(Ring::reporter_with_params(
            vec!["vals".into()],
            combine_using(var("vals"), ring_reporter(add(empty_slot(), empty_slot()))),
        ));
        let groups = vec![
            ("a".into(), vec![1.into(), 2.into()]),
            ("b".into(), vec![10.into()]),
        ];
        let out = ring_reduce_groups(sum, groups, RingMapOptions::default()).unwrap();
        assert_eq!(
            out,
            vec![
                Value::list(vec!["a".into(), 3.into()]),
                Value::list(vec!["b".into(), 10.into()]),
            ]
        );
    }

    #[test]
    fn map_chunk_batches_a_column_through_a_batchable_ring() {
        let _counters = counters();
        let f = compile_cached(&times_ten()).unwrap();
        let chunks_before = snap_trace::well_known::PAR_COLUMNAR_CHUNKS.get();
        let out = map_chunk(&f, &Chunk::Columnar(vec![1.5, -0.0]), Isolation::Copy).unwrap();
        assert_eq!(out, Chunk::Columnar(vec![15.0, -0.0]));
        assert_eq!(
            snap_trace::well_known::PAR_COLUMNAR_CHUNKS.get(),
            chunks_before + 1
        );
    }

    #[test]
    fn map_chunk_calls_per_item_otherwise() {
        let _counters = counters();
        let fallbacks_before = snap_trace::well_known::RING_BATCH_FALLBACKS.get();
        // A boxed chunk through a batchable ring: one call per item,
        // numeric text coerced as the tree walk does.
        let f = compile_cached(&times_ten()).unwrap();
        let boxed = Chunk::Boxed(vec![Value::text(" 4 "), 2.into()]);
        let out = map_chunk(&f, &boxed, Isolation::Copy).unwrap();
        assert_eq!(out, Chunk::Boxed(vec![40.into(), 20.into()]));
        // A column through a ring that is not batchable: boxed results.
        let pair = Arc::new(Ring::reporter(make_list(vec![text("k"), empty_slot()])));
        let f = compile_cached(&pair).unwrap();
        let out = map_chunk(&f, &Chunk::Columnar(vec![3.0]), Isolation::Copy).unwrap();
        assert_eq!(
            out,
            Chunk::Boxed(vec![Value::list(vec!["k".into(), 3.into()])])
        );
        // The kernel never counts a fallback: that is per ring_map call.
        assert_eq!(
            snap_trace::well_known::RING_BATCH_FALLBACKS.get(),
            fallbacks_before
        );
    }

    #[test]
    fn chunk_pack_makes_a_column_only_of_numbers() {
        let _counters = counters();
        let mut buf: Vec<Value> = vec![1.into(), f64::NAN.into()];
        let column = Chunk::pack(&mut buf);
        assert!(buf.is_empty());
        assert!(matches!(&column, Chunk::Columnar(xs) if xs.len() == 2 && xs[1].is_nan()));
        let mut buf: Vec<Value> = vec![1.into(), Value::text("1")];
        let boxed = Chunk::pack(&mut buf);
        assert_eq!(boxed, Chunk::Boxed(vec![1.into(), Value::text("1")]));
        assert_eq!(boxed.len(), 2);
        assert_eq!(column.into_values()[0], Value::Number(1.0));
    }

    #[test]
    fn call_item_and_call_group_copy_across_the_boundary() {
        let _counters = counters();
        let identity = compile_cached(&Arc::new(Ring::reporter(empty_slot()))).unwrap();
        let shared = snap_ast::List::from_vec(vec![1.into()]);
        let item = Value::List(shared.clone());
        let copied = call_item(&identity, &item, Isolation::Copy).unwrap();
        let aliased = call_item(&identity, &item, Isolation::Share).unwrap();
        let grouped = call_group(&identity, &"k".into(), &[item], Isolation::Copy).unwrap();
        shared.add(2.into());
        assert_eq!(copied.as_list().unwrap().len(), 1);
        assert_eq!(aliased.as_list().unwrap().len(), 2);
        // `[key, [values…]]`: the group's value list holds a copy too.
        let reduced = grouped.as_list().unwrap().item(2).unwrap();
        let first = reduced.as_list().unwrap().item(1).unwrap();
        assert_eq!(first.as_list().unwrap().len(), 1);
    }
}
