//! The streaming execution tier: pipeline skeletons over the pool.
//!
//! The batch blocks ([`crate::parallel_map`], [`crate::map_reduce`])
//! materialize their whole input per call, so continuous traffic pays
//! full startup, allocation, and shuffle cost per tick. A [`Pipeline`]
//! is the skeleton alternative: source → N stage nodes (map / filter /
//! flat-map / windowed reduce-by-key) → sink, where items flow as
//! *blocks* through bounded channels ([`snap_workers::channel`]) and
//! every node is a long-running job on the existing work-stealing
//! [`WorkerPool`](snap_workers::WorkerPool) — no new thread pools.
//!
//! Design points, in the order they matter:
//!
//! * **Backpressure, twice.** Each inter-stage channel holds at most
//!   `capacity` blocks (a full channel parks the producer), and a
//!   credit pool caps source-created blocks in flight at
//!   `max_in_flight` — so the ordered emitter's reorder buffer is
//!   bounded too, and peak memory is independent of stream length.
//! * **Ordered and unordered emitters.** Farm stages preserve their
//!   input block's sequence number 1:1 (a fully filtered block still
//!   travels, empty, to keep the sequence dense), so ordering reduces
//!   to one sink-side reorder buffer keyed by sequence number.
//!   [`Emitter::Unordered`] skips the buffer and emits on arrival.
//! * **Fast tiers reused.** An all-numeric source block travels as a
//!   flat `f64` columnar block; a batchable map stage runs one
//!   `eval_batch` per block with no per-element dispatch. Windowed
//!   reduce-by-key runs each window through the batch `mapReduce`
//!   shuffle ([`crate::group_by`], folding for associative reducers),
//!   exactly mirroring its semantics.
//! * **Faults degrade one block.** A panicked block is retried per the
//!   [`FaultPolicy`], then salvaged item-by-item (injector-free); only
//!   items that panic on every attempt are dropped
//!   (`stream.items_dropped`) — the stream never stalls.
//! * **Telemetry throughout.** `stream.items_in/out`, `stream.blocks`,
//!   per-stage queue-depth gauges (`stream.stage<N>.queue_depth`), and
//!   an end-to-end `stream.latency_ns` histogram whose windowed
//!   p50/p95/p99 are served live on `/metrics`.
//!
//! A pipeline run degrades to an in-order sequential pass (identical
//! output, same block boundaries) when the caller is itself a pool
//! worker or the pool cannot host all stage jobs.

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

use snap_ast::pure::{compile_cached, PureFn};
use snap_ast::{BinOp, EvalError, Ring, Value};
use snap_trace::well_known as metrics;
use snap_workers::channel::{bounded, ChannelMonitor, Receiver, Sender};
use snap_workers::fault::{attempt, injector, last_chance};
use snap_workers::{as_map_pair, global_pool, ExecMode, FaultPolicy};

use crate::blocks::associative_fold_op;
use crate::shuffle::group_by;

/// How the sink hands results to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Emitter {
    /// Reorder blocks by sequence number so the stream's output order
    /// equals the batch output order (bit-for-bit equivalence).
    #[default]
    Ordered,
    /// Emit blocks as they arrive — lower latency, arrival order.
    Unordered,
}

/// Configuration for a [`Pipeline`].
#[derive(Debug, Clone, Copy)]
pub struct StreamConfig {
    /// Workers per farm stage (map / filter / flat-map). Reduce-by-key
    /// stages always run one worker — the window is sequential state.
    pub stage_workers: usize,
    /// Blocks each inter-stage channel may hold before the producer
    /// parks (backpressure).
    pub capacity: usize,
    /// Items packed into each source block.
    pub block_items: usize,
    /// Cap on source blocks in flight across the whole pipeline
    /// (channels, stage workers, and the reorder buffer together).
    /// `0` picks `capacity × (stages + 2)`.
    pub max_in_flight: usize,
    /// Ordered or unordered emission at the sink.
    pub emitter: Emitter,
    /// Per-block retry/salvage policy.
    pub policy: FaultPolicy,
}

impl Default for StreamConfig {
    fn default() -> StreamConfig {
        StreamConfig {
            stage_workers: 1,
            capacity: 4,
            block_items: 512,
            max_in_flight: 0,
            emitter: Emitter::Ordered,
            policy: FaultPolicy::default(),
        }
    }
}

/// One stage node of a pipeline.
#[derive(Debug, Clone)]
enum StageOp {
    /// Apply the ring to every item (columnar when batchable).
    Map(Arc<Ring>),
    /// Keep items whose predicate ring reports truthy.
    Filter(Arc<Ring>),
    /// Apply the ring and splice list results into the stream.
    FlatMap(Arc<Ring>),
    /// Collect `[key, value]` pairs into windows of `window_items`
    /// pairs; per window: the [`crate::group_by`] shuffle (folding if the
    /// reducer is an associative fold), one reducer call per key.
    ReduceByKey {
        reducer: Arc<Ring>,
        window_items: usize,
    },
}

/// Per-run statistics, for tests and callers that assert bounds.
#[derive(Debug, Clone, Default)]
pub struct StreamStats {
    /// Items pulled from the source.
    pub items_in: u64,
    /// Items delivered to the sink.
    pub items_out: u64,
    /// Blocks created (source blocks plus reduce window outputs).
    pub blocks: u64,
    /// Reduce windows closed (including the end-of-stream flush).
    pub windows: u64,
    /// Blocks that exhausted their retry budget and were salvaged
    /// item-by-item.
    pub blocks_salvaged: u64,
    /// Items dropped because they panicked on every salvage attempt.
    pub items_dropped: u64,
    /// Configured per-channel capacity, for bound assertions.
    pub queue_capacity: usize,
    /// Peak depth observed on each inter-stage channel, source-side
    /// first. Empty when the run degraded to the sequential pass.
    pub peak_queue_depths: Vec<usize>,
    /// Whether the run degraded to the in-order sequential pass.
    pub sequential: bool,
}

/// A composable streaming pipeline skeleton. Build with the chained
/// stage methods, then [`Pipeline::run`] it over any item source.
#[derive(Debug, Clone)]
pub struct Pipeline {
    config: StreamConfig,
    stages: Vec<StageOp>,
}

// ---------------------------------------------------------------------
// Blocks and credits
// ---------------------------------------------------------------------

/// The payload of one block: boxed values, or a flat `f64` lane for
/// all-numeric blocks (the columnar fast path).
enum BlockData {
    Boxed(Vec<Value>),
    Columnar(Vec<f64>),
}

impl BlockData {
    fn len(&self) -> usize {
        match self {
            BlockData::Boxed(v) => v.len(),
            BlockData::Columnar(v) => v.len(),
        }
    }

    fn into_values(self) -> Vec<Value> {
        match self {
            BlockData::Boxed(v) => v,
            BlockData::Columnar(v) => v.into_iter().map(Value::Number).collect(),
        }
    }
}

struct Block {
    seq: u64,
    born: Instant,
    data: BlockData,
    /// Held while a source-created block is in flight; dropping it
    /// (absorbing the block into a window, emitting at the sink)
    /// returns the credit to the source.
    credit: Option<CreditToken>,
}

/// A counting semaphore bounding source blocks in flight. `close`
/// releases every waiter empty-handed (abort path).
struct Credits {
    state: Mutex<(usize, bool)>,
    available: Condvar,
}

impl Credits {
    fn new(count: usize) -> Arc<Credits> {
        Arc::new(Credits {
            state: Mutex::new((count.max(1), false)),
            available: Condvar::new(),
        })
    }

    fn acquire(self: &Arc<Credits>) -> Option<CreditToken> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if state.1 {
                return None;
            }
            if state.0 > 0 {
                state.0 -= 1;
                return Some(CreditToken {
                    credits: Arc::clone(self),
                });
            }
            state = self
                .available
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Take a credit only if one is free — used by reduce stages for
    /// their window outputs, so window blocks respect the in-flight
    /// bound when possible without risking a producer/consumer cycle.
    fn try_acquire(self: &Arc<Credits>) -> Option<CreditToken> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if !state.1 && state.0 > 0 {
            state.0 -= 1;
            return Some(CreditToken {
                credits: Arc::clone(self),
            });
        }
        None
    }

    fn close(&self) {
        self.state.lock().unwrap_or_else(PoisonError::into_inner).1 = true;
        self.available.notify_all();
    }
}

struct CreditToken {
    credits: Arc<Credits>,
}

impl Drop for CreditToken {
    fn drop(&mut self) {
        let mut state = self
            .credits
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        state.0 += 1;
        drop(state);
        self.credits.available.notify_one();
    }
}

/// Counts jobs that have fully returned, so `run_each` never unwinds
/// its stack frame (which the jobs borrow) while a job is live. The
/// guard arrives on drop, which covers jobs the pool refused to run.
struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
}

impl Latch {
    fn new(count: usize) -> Arc<Latch> {
        Arc::new(Latch {
            remaining: Mutex::new(count),
            done: Condvar::new(),
        })
    }

    fn guard(self: &Arc<Latch>) -> LatchGuard {
        LatchGuard {
            latch: Arc::clone(self),
        }
    }

    fn wait(&self) {
        let mut remaining = self
            .remaining
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        while *remaining > 0 {
            remaining = self
                .done
                .wait(remaining)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

struct LatchGuard {
    latch: Arc<Latch>,
}

impl Drop for LatchGuard {
    fn drop(&mut self) {
        let mut remaining = self
            .latch
            .remaining
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *remaining -= 1;
        if *remaining == 0 {
            self.latch.done.notify_all();
        }
    }
}

// ---------------------------------------------------------------------
// Per-run shared state and counters
// ---------------------------------------------------------------------

#[derive(Default)]
struct RunCounters {
    items_in: AtomicU64,
    items_out: AtomicU64,
    blocks: AtomicU64,
    windows: AtomicU64,
    blocks_salvaged: AtomicU64,
    items_dropped: AtomicU64,
}

struct Shared {
    counters: RunCounters,
    /// The `stream.run` span, opened on the caller's thread; stage jobs
    /// link their fault retries back to it.
    origin: u64,
    error: Mutex<Option<EvalError>>,
    aborted: AtomicBool,
    monitors: Vec<ChannelMonitor<Block>>,
    credits: Arc<Credits>,
}

impl Shared {
    /// Record the first error and tear the pipeline down: close the
    /// credit gate and poison every channel so every blocked job wakes.
    fn abort(&self, err: EvalError) {
        {
            let mut slot = self.error.lock().unwrap_or_else(PoisonError::into_inner);
            if slot.is_none() {
                *slot = Some(err);
            }
        }
        self.aborted.store(true, Ordering::SeqCst);
        self.credits.close();
        for monitor in &self.monitors {
            monitor.poison();
        }
    }

    fn aborted(&self) -> bool {
        self.aborted.load(Ordering::SeqCst)
    }
}

// ---------------------------------------------------------------------
// Stage execution
// ---------------------------------------------------------------------

/// A farm stage's per-worker executor: the compiled ring plus the
/// fault-guarded block transform. Stateless across blocks, so every
/// worker of a farm holds its own.
struct FarmExec<'a> {
    op: &'a StageOp,
    f: PureFn,
    policy: FaultPolicy,
    /// The `stream.run*` span that retries link back to.
    origin: u64,
    counters: &'a RunCounters,
}

impl<'a> FarmExec<'a> {
    fn new(
        op: &'a StageOp,
        policy: FaultPolicy,
        origin: u64,
        counters: &'a RunCounters,
    ) -> Result<Self, EvalError> {
        let ring = match op {
            StageOp::Map(r) | StageOp::Filter(r) | StageOp::FlatMap(r) => r,
            StageOp::ReduceByKey { .. } => unreachable!("reduce stages use ReduceExec"),
        };
        Ok(FarmExec {
            op,
            f: compile_cached(ring)?,
            policy,
            origin,
            counters,
        })
    }

    /// Transform one block, preserving its sequence number and credit.
    /// Panics retry per the policy, then degrade to per-item salvage.
    fn feed(&self, block: Block) -> Result<Block, EvalError> {
        let Block {
            seq,
            born,
            data,
            credit,
        } = block;
        let out = match attempt(seq, &self.policy, injector(), self.origin, || {
            self.transform(&data)
        }) {
            Ok(out) => out?,
            Err(_) => self.salvage(&data)?,
        };
        Ok(Block {
            seq,
            born,
            data: out,
            credit,
        })
    }

    /// The whole-block transform. Columnar blocks stay columnar through
    /// batchable maps and filters; everything else goes per item.
    fn transform(&self, data: &BlockData) -> Result<BlockData, EvalError> {
        match (self.op, data) {
            (StageOp::Map(_), BlockData::Columnar(xs)) if self.f.is_batchable() => {
                metrics::PAR_COLUMNAR_CHUNKS.incr();
                let mut out = Vec::with_capacity(xs.len());
                let batched = self.f.eval_batch(xs, &mut out);
                debug_assert!(batched, "is_batchable implies eval_batch succeeds");
                Ok(BlockData::Columnar(out))
            }
            (StageOp::Map(_), BlockData::Columnar(xs)) => {
                let mut out = Vec::with_capacity(xs.len());
                for &x in xs {
                    out.push(self.f.call1(Value::Number(x))?.deep_copy());
                }
                Ok(BlockData::Boxed(out))
            }
            (StageOp::Map(_), BlockData::Boxed(items)) => {
                let mut out = Vec::with_capacity(items.len());
                for item in items {
                    out.push(self.f.call1(item.deep_copy())?.deep_copy());
                }
                Ok(BlockData::Boxed(out))
            }
            (StageOp::Filter(_), BlockData::Columnar(xs)) => {
                let mut out = Vec::with_capacity(xs.len());
                for &x in xs {
                    if self.f.call1(Value::Number(x))?.to_bool() {
                        out.push(x);
                    }
                }
                Ok(BlockData::Columnar(out))
            }
            (StageOp::Filter(_), BlockData::Boxed(items)) => {
                let mut out = Vec::with_capacity(items.len());
                for item in items {
                    if self.f.call1(item.deep_copy())?.to_bool() {
                        out.push(item.deep_copy());
                    }
                }
                Ok(BlockData::Boxed(out))
            }
            (StageOp::FlatMap(_), data) => {
                let mut out = Vec::new();
                match data {
                    BlockData::Boxed(items) => {
                        for item in items {
                            splice(self.f.call1(item.deep_copy())?, &mut out);
                        }
                    }
                    BlockData::Columnar(xs) => {
                        for &x in xs {
                            splice(self.f.call1(Value::Number(x))?, &mut out);
                        }
                    }
                }
                Ok(BlockData::Boxed(out))
            }
            (StageOp::ReduceByKey { .. }, _) => unreachable!("reduce stages use ReduceExec"),
        }
    }

    /// The per-item degradation pass: injector-free, one catch per
    /// item. Items that still panic are dropped; the block survives.
    fn salvage(&self, data: &BlockData) -> Result<BlockData, EvalError> {
        metrics::STREAM_BLOCKS_SALVAGED.incr();
        self.counters
            .blocks_salvaged
            .fetch_add(1, Ordering::Relaxed);
        snap_trace::note(
            "stream.block_salvaged",
            format!("salvaging a {}-item block item-by-item", data.len()),
        );
        let mut out = Vec::with_capacity(data.len());
        let mut dropped = 0u64;
        let mut one = |item: Value| {
            let result = last_chance(|| -> Result<Vec<Value>, EvalError> {
                match self.op {
                    StageOp::Map(_) => Ok(vec![self.f.call1(item.deep_copy())?.deep_copy()]),
                    StageOp::Filter(_) => Ok(if self.f.call1(item.deep_copy())?.to_bool() {
                        vec![item.deep_copy()]
                    } else {
                        Vec::new()
                    }),
                    StageOp::FlatMap(_) => {
                        let mut spliced = Vec::new();
                        splice(self.f.call1(item.deep_copy())?, &mut spliced);
                        Ok(spliced)
                    }
                    StageOp::ReduceByKey { .. } => unreachable!(),
                }
            });
            match result {
                Ok(Ok(values)) => {
                    out.extend(values);
                    Ok(())
                }
                Ok(Err(e)) => Err(e),
                Err(_) => {
                    dropped += 1;
                    Ok(())
                }
            }
        };
        match data {
            BlockData::Boxed(items) => {
                for item in items {
                    one(item.clone())?;
                }
            }
            BlockData::Columnar(xs) => {
                for &x in xs {
                    one(Value::Number(x))?;
                }
            }
        }
        if dropped > 0 {
            metrics::STREAM_ITEMS_DROPPED.add(dropped);
            self.counters
                .items_dropped
                .fetch_add(dropped, Ordering::Relaxed);
        }
        Ok(BlockData::Boxed(out))
    }
}

/// Appends a flat-map result: list results are spliced element-wise,
/// anything else passes through as a single item.
fn splice(result: Value, out: &mut Vec<Value>) {
    match result.as_list() {
        Some(list) => {
            for i in 1..=list.len() {
                if let Some(v) = list.item(i) {
                    out.push(v.deep_copy());
                }
            }
        }
        None => out.push(result.deep_copy()),
    }
}

/// The windowed reduce-by-key stage: single-worker, sequential window
/// state. Input blocks are re-ordered by sequence number first, so
/// window contents are deterministic regardless of upstream farm
/// widths; output blocks get fresh, dense sequence numbers.
struct ReduceExec<'a> {
    f: PureFn,
    fold: Option<BinOp>,
    window_items: usize,
    policy: FaultPolicy,
    /// The `stream.run*` span that retries link back to.
    origin: u64,
    counters: &'a RunCounters,
    pending: Vec<(Value, Value)>,
    /// (block born, pairs remaining from that block) — tracks the
    /// oldest contributor so window latency is measured from the
    /// earliest absorbed block.
    origins: VecDeque<(Instant, usize)>,
    next_in_seq: u64,
    reorder: BTreeMap<u64, Block>,
    out_seq: u64,
}

impl<'a> ReduceExec<'a> {
    fn new(
        reducer: &Arc<Ring>,
        window_items: usize,
        policy: FaultPolicy,
        origin: u64,
        counters: &'a RunCounters,
    ) -> Result<Self, EvalError> {
        Ok(ReduceExec {
            f: compile_cached(reducer)?,
            fold: associative_fold_op(reducer),
            window_items: window_items.max(1),
            policy,
            origin,
            counters,
            pending: Vec::new(),
            origins: VecDeque::new(),
            next_in_seq: 0,
            reorder: BTreeMap::new(),
            out_seq: 0,
        })
    }

    fn feed(&mut self, block: Block, credits: &Arc<Credits>) -> Result<Vec<Block>, EvalError> {
        self.reorder.insert(block.seq, block);
        let mut out = Vec::new();
        while let Some(block) = self.reorder.remove(&self.next_in_seq) {
            self.next_in_seq += 1;
            self.absorb(block)?;
            while self.pending.len() >= self.window_items {
                let window = self.close_window(self.window_items, credits)?;
                out.push(window);
            }
        }
        Ok(out)
    }

    fn absorb(&mut self, block: Block) -> Result<(), EvalError> {
        let born = block.born;
        let values = block.data.into_values();
        // The block's credit drops here: its items now live in the
        // window accumulator, not in any channel.
        drop(block.credit);
        if values.is_empty() {
            return Ok(());
        }
        self.origins.push_back((born, values.len()));
        for value in values {
            self.pending.push(as_map_pair(value)?);
        }
        Ok(())
    }

    fn finish(&mut self, credits: &Arc<Credits>) -> Result<Option<Block>, EvalError> {
        // An aborted upstream may leave sequence gaps; drain whatever
        // arrived so the abort error (not a hang) reaches the caller.
        let leftover: Vec<u64> = self.reorder.keys().copied().collect();
        for seq in leftover {
            let block = self.reorder.remove(&seq).expect("key just listed");
            self.absorb(block)?;
            while self.pending.len() >= self.window_items {
                let _ = self.close_window(self.window_items, credits)?;
            }
        }
        if self.pending.is_empty() {
            return Ok(None);
        }
        let len = self.pending.len();
        Ok(Some(self.close_window(len, credits)?))
    }

    fn close_window(&mut self, take: usize, credits: &Arc<Credits>) -> Result<Block, EvalError> {
        let pairs: Vec<(Value, Value)> = self.pending.drain(..take).collect();
        let born = self
            .origins
            .front()
            .map(|(b, _)| *b)
            .unwrap_or_else(Instant::now);
        let mut to_consume = take;
        while to_consume > 0 {
            let Some(front) = self.origins.front_mut() else {
                break;
            };
            if front.1 > to_consume {
                front.1 -= to_consume;
                break;
            }
            to_consume -= front.1;
            self.origins.pop_front();
        }
        metrics::STREAM_WINDOWS.incr();
        self.counters.windows.fetch_add(1, Ordering::Relaxed);

        let seq = self.out_seq;
        // Key window injections away from block keys so a seeded
        // injector exercises both independently.
        let key = u64::MAX - seq;
        let items = match attempt(key, &self.policy, injector(), self.origin, || {
            self.compute(&pairs)
        }) {
            Ok(items) => items?,
            // Injector-free last chance; a window that still panics is
            // dropped whole (the empty block keeps the output sequence
            // dense).
            Err(_) => match last_chance(|| self.compute(&pairs)) {
                Ok(items) => {
                    metrics::STREAM_BLOCKS_SALVAGED.incr();
                    self.counters
                        .blocks_salvaged
                        .fetch_add(1, Ordering::Relaxed);
                    items?
                }
                Err(_) => {
                    metrics::STREAM_ITEMS_DROPPED.add(take as u64);
                    self.counters
                        .items_dropped
                        .fetch_add(take as u64, Ordering::Relaxed);
                    Vec::new()
                }
            },
        };
        self.out_seq += 1;
        metrics::STREAM_BLOCKS.incr();
        self.counters.blocks.fetch_add(1, Ordering::Relaxed);
        Ok(Block {
            seq,
            born,
            data: BlockData::Boxed(items),
            credit: credits.try_acquire(),
        })
    }

    /// One window: the batch `mapReduce` shuffle on the calling thread
    /// (folding for associative reducers), then one reducer call per key.
    fn compute(&self, pairs: &[(Value, Value)]) -> Result<Vec<Value>, EvalError> {
        let groups = group_by(pairs, self.fold, 1, ExecMode::Pooled);
        let mut out = Vec::with_capacity(groups.len());
        for (key, values) in groups {
            let arg = Value::list(values.iter().map(Value::deep_copy).collect());
            let reduced = self.f.call1(arg)?;
            out.push(Value::list(vec![key, reduced.deep_copy()]));
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------
// The pipeline
// ---------------------------------------------------------------------

/// What each pool job does, handed out by index.
enum JobRole<'src> {
    Source {
        tx: Sender<Block>,
        items: Box<dyn Iterator<Item = Value> + Send + 'src>,
    },
    Stage {
        stage: usize,
        rx: Receiver<Block>,
        tx: Sender<Block>,
    },
}

impl Pipeline {
    /// An empty pipeline under `config`; add stages with the builder
    /// methods.
    pub fn new(config: StreamConfig) -> Pipeline {
        Pipeline {
            config,
            stages: Vec::new(),
        }
    }

    /// Append a map stage (a farm of `stage_workers` workers).
    pub fn map(mut self, ring: Arc<Ring>) -> Pipeline {
        self.stages.push(StageOp::Map(ring));
        self
    }

    /// Append a filter stage keeping items whose predicate is truthy.
    pub fn filter(mut self, ring: Arc<Ring>) -> Pipeline {
        self.stages.push(StageOp::Filter(ring));
        self
    }

    /// Append a flat-map stage: list results are spliced item-wise.
    pub fn flat_map(mut self, ring: Arc<Ring>) -> Pipeline {
        self.stages.push(StageOp::FlatMap(ring));
        self
    }

    /// Append a windowed reduce-by-key stage: every `window_items`
    /// `[key, value]` pairs are shuffled and reduced (one reducer call
    /// per key), emitting the window's `[key, reduced]` pairs.
    pub fn reduce_by_key(mut self, reducer: Arc<Ring>, window_items: usize) -> Pipeline {
        self.stages.push(StageOp::ReduceByKey {
            reducer,
            window_items,
        });
        self
    }

    /// Run the pipeline over `items`, collecting every sink item.
    pub fn run<I>(&self, items: I) -> Result<Vec<Value>, EvalError>
    where
        I: IntoIterator<Item = Value>,
        I::IntoIter: Send,
    {
        self.run_with_stats(items).map(|(values, _)| values)
    }

    /// [`Pipeline::run`], also returning the run's [`StreamStats`].
    pub fn run_with_stats<I>(&self, items: I) -> Result<(Vec<Value>, StreamStats), EvalError>
    where
        I: IntoIterator<Item = Value>,
        I::IntoIter: Send,
    {
        let mut out = Vec::new();
        let stats = self.run_each(items, |value| out.push(value))?;
        Ok((out, stats))
    }

    /// Run the pipeline, invoking `sink` for every output item on the
    /// calling thread. This is the full streaming path: long-running
    /// source and stage jobs on the shared pool, bounded channels in
    /// between, the caller draining the final channel.
    pub fn run_each<I>(
        &self,
        items: I,
        mut sink: impl FnMut(Value),
    ) -> Result<StreamStats, EvalError>
    where
        I: IntoIterator<Item = Value>,
        I::IntoIter: Send,
    {
        let _span = snap_trace::span!("stream.run", "stages" => self.stages.len());
        let config = self.normalized_config();
        let source = items.into_iter();
        let pool = global_pool();
        let total_jobs = 1 + self
            .stages
            .iter()
            .map(|op| self.farm_width(op, &config))
            .sum::<usize>();
        // Long-running stage jobs occupy workers for the whole stream:
        // grow the pool so they cannot starve concurrent batch work,
        // and degrade to the sequential pass when that is impossible
        // (worker-count ceiling, nested call from a pool worker).
        pool.ensure_workers(pool.workers() + total_jobs);
        if pool.on_worker_thread() || pool.workers() < total_jobs + 1 {
            return self.run_sequential(source, &mut sink);
        }

        // --- Build the channel graph: stages + 1 edges. ---
        let n_edges = self.stages.len() + 1;
        let mut txs: Vec<Option<Sender<Block>>> = Vec::with_capacity(n_edges);
        let mut rxs: Vec<Option<Receiver<Block>>> = Vec::with_capacity(n_edges);
        let mut monitors = Vec::with_capacity(n_edges);
        for edge in 0..n_edges {
            let gauge_name = if edge < self.stages.len() {
                format!("stream.stage{edge}.queue_depth")
            } else {
                "stream.sink.queue_depth".to_string()
            };
            let (tx, rx) = bounded(config.capacity, Some(snap_trace::gauge_owned(gauge_name)));
            monitors.push(tx.monitor());
            txs.push(Some(tx));
            rxs.push(Some(rx));
        }

        let shared = Shared {
            counters: RunCounters::default(),
            origin: snap_trace::current_span_id(),
            error: Mutex::new(None),
            aborted: AtomicBool::new(false),
            monitors,
            credits: Credits::new(config.max_in_flight),
        };

        // --- Hand out job roles. ---
        let mut roles: Vec<Mutex<Option<JobRole<'_>>>> = Vec::with_capacity(total_jobs);
        roles.push(Mutex::new(Some(JobRole::Source {
            tx: txs[0].take().expect("source edge"),
            items: Box::new(source),
        })));
        for (stage, op) in self.stages.iter().enumerate() {
            let rx = rxs[stage].take().expect("stage input edge");
            let tx = txs[stage + 1].take().expect("stage output edge");
            let width = self.farm_width(op, &config);
            for _ in 0..width {
                roles.push(Mutex::new(Some(JobRole::Stage {
                    stage,
                    rx: rx.clone(),
                    tx: tx.clone(),
                })));
            }
            // The originals drop here so end-of-stream propagates once
            // every farm worker has dropped its clones.
            drop(rx);
            drop(tx);
        }
        let sink_rx = rxs[self.stages.len()].take().expect("sink edge");
        drop(txs);
        drop(rxs);

        // --- Launch every node as a pool job. ---
        let runner: &(dyn Fn(usize) + Sync) =
            &|idx| self.execute_job(idx, &roles, &shared, &config);
        // SAFETY: the 'static lifetime is a lie told only to the job
        // queue. Every submitted job owns a LatchGuard that arrives on
        // drop (normal return, panic, or the pool refusing the job),
        // and `run_each` blocks on the latch before this frame — which
        // `roles` and `shared` borrow — is torn down.
        let runner_static: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(runner) };
        let latch = Latch::new(total_jobs);
        for idx in 0..total_jobs {
            let guard = latch.guard();
            let submitted = pool.execute(move || {
                let _guard = guard;
                runner_static(idx);
            });
            if submitted.is_err() {
                // Shutdown race: wake everything, surface an error.
                shared.abort(EvalError::Other(
                    "stream: worker pool shut down while launching stage jobs".into(),
                ));
            }
        }

        // --- The sink: drain, reorder if asked, emit. ---
        let mut expected_seq = 0u64;
        let mut reorder: BTreeMap<u64, Block> = BTreeMap::new();
        let emit = |block: Block, sink: &mut dyn FnMut(Value)| {
            let latency = block.born.elapsed().as_nanos() as u64;
            metrics::STREAM_LATENCY_NS.record(latency);
            for value in block.data.into_values() {
                metrics::STREAM_ITEMS_OUT.incr();
                shared.counters.items_out.fetch_add(1, Ordering::Relaxed);
                sink(value);
            }
            // block.credit drops here: the block has left the pipeline.
        };
        while let Some(block) = sink_rx.recv() {
            match config.emitter {
                Emitter::Unordered => emit(block, &mut sink),
                Emitter::Ordered => {
                    reorder.insert(block.seq, block);
                    while let Some(block) = reorder.remove(&expected_seq) {
                        expected_seq += 1;
                        emit(block, &mut sink);
                    }
                }
            }
        }
        // End-of-stream. On a clean run the reorder buffer is already
        // empty (sequences are dense); after an abort it may hold
        // stragglers — emit them in order anyway, the error wins below.
        for (_, block) in std::mem::take(&mut reorder) {
            emit(block, &mut sink);
        }
        drop(sink_rx);
        latch.wait();

        if let Some(err) = shared
            .error
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
        {
            return Err(err);
        }
        let counters = &shared.counters;
        Ok(StreamStats {
            items_in: counters.items_in.load(Ordering::Relaxed),
            items_out: counters.items_out.load(Ordering::Relaxed),
            blocks: counters.blocks.load(Ordering::Relaxed),
            windows: counters.windows.load(Ordering::Relaxed),
            blocks_salvaged: counters.blocks_salvaged.load(Ordering::Relaxed),
            items_dropped: counters.items_dropped.load(Ordering::Relaxed),
            queue_capacity: config.capacity,
            peak_queue_depths: shared.monitors.iter().map(|m| m.peak_depth()).collect(),
            sequential: false,
        })
    }

    /// Clamped, defaulted copy of the configuration.
    fn normalized_config(&self) -> StreamConfig {
        let mut config = self.config;
        config.stage_workers = config.stage_workers.clamp(1, 8);
        config.capacity = config.capacity.max(1);
        config.block_items = config.block_items.max(1);
        if config.max_in_flight == 0 {
            config.max_in_flight = config.capacity * (self.stages.len() + 2);
        }
        config
    }

    fn farm_width(&self, op: &StageOp, config: &StreamConfig) -> usize {
        match op {
            StageOp::ReduceByKey { .. } => 1,
            _ => config.stage_workers,
        }
    }

    /// Job dispatch: index 0 is the source, the rest are stage workers
    /// in declaration order. Catches panics so an unexpected unwind
    /// aborts the stream instead of hanging it.
    fn execute_job(
        &self,
        idx: usize,
        roles: &[Mutex<Option<JobRole<'_>>>],
        shared: &Shared,
        config: &StreamConfig,
    ) {
        let role = roles[idx]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        let Some(role) = role else { return };
        let result = catch_unwind(AssertUnwindSafe(|| match role {
            JobRole::Source { tx, items } => self.pump_source(tx, items, shared, config),
            JobRole::Stage { stage, rx, tx } => match &self.stages[stage] {
                StageOp::ReduceByKey {
                    reducer,
                    window_items,
                } => self.run_reduce(reducer, *window_items, rx, tx, shared, config),
                op => self.run_farm(op, rx, tx, shared, config),
            },
        }));
        match result {
            Ok(Ok(())) => {}
            Ok(Err(e)) => shared.abort(e),
            Err(payload) => {
                metrics::POOL_JOBS_PANICKED.incr();
                metrics::FAULT_FAILURES_FINAL.incr();
                shared.abort(EvalError::Other(format!(
                    "stream: a pipeline job panicked: {}",
                    snap_workers::panic_message(payload.as_ref())
                )));
            }
        }
    }

    /// The source node: pull items, pack blocks (columnar when the
    /// whole block is numeric), acquire a credit per block, send.
    fn pump_source(
        &self,
        tx: Sender<Block>,
        items: Box<dyn Iterator<Item = Value> + Send + '_>,
        shared: &Shared,
        config: &StreamConfig,
    ) -> Result<(), EvalError> {
        let mut buf: Vec<Value> = Vec::with_capacity(config.block_items);
        let mut numeric = true;
        let mut seq = 0u64;
        let flush = |buf: &mut Vec<Value>, numeric: bool, seq: &mut u64| -> bool {
            if buf.is_empty() {
                return true;
            }
            let Some(credit) = shared.credits.acquire() else {
                return false; // aborted
            };
            let data = if numeric {
                BlockData::Columnar(buf.drain(..).map(|v| v.to_number()).collect())
            } else {
                BlockData::Boxed(std::mem::take(buf))
            };
            metrics::STREAM_BLOCKS.incr();
            shared.counters.blocks.fetch_add(1, Ordering::Relaxed);
            let block = Block {
                seq: *seq,
                born: Instant::now(),
                data,
                credit: Some(credit),
            };
            *seq += 1;
            tx.send(block).is_ok()
        };
        for item in items {
            if shared.aborted() {
                return Ok(());
            }
            metrics::STREAM_ITEMS_IN.incr();
            shared.counters.items_in.fetch_add(1, Ordering::Relaxed);
            numeric &= matches!(item, Value::Number(_));
            buf.push(item);
            if buf.len() >= config.block_items {
                if !flush(&mut buf, numeric, &mut seq) {
                    return Ok(());
                }
                numeric = true;
            }
        }
        flush(&mut buf, numeric, &mut seq);
        Ok(()) // tx drops here → end-of-stream downstream
    }

    /// One farm worker: receive, transform (fault-guarded), send.
    fn run_farm(
        &self,
        op: &StageOp,
        rx: Receiver<Block>,
        tx: Sender<Block>,
        shared: &Shared,
        config: &StreamConfig,
    ) -> Result<(), EvalError> {
        let exec = FarmExec::new(op, config.policy, shared.origin, &shared.counters)?;
        while let Some(block) = rx.recv() {
            let out = exec.feed(block)?;
            if tx.send(out).is_err() {
                return Ok(()); // poisoned: the abort error wins
            }
        }
        Ok(())
    }

    /// The reduce node (always one worker): reorder by sequence,
    /// window, group + reduce per window.
    fn run_reduce(
        &self,
        reducer: &Arc<Ring>,
        window_items: usize,
        rx: Receiver<Block>,
        tx: Sender<Block>,
        shared: &Shared,
        config: &StreamConfig,
    ) -> Result<(), EvalError> {
        let mut exec = ReduceExec::new(
            reducer,
            window_items,
            config.policy,
            shared.origin,
            &shared.counters,
        )?;
        while let Some(block) = rx.recv() {
            for out in exec.feed(block, &shared.credits)? {
                if tx.send(out).is_err() {
                    return Ok(());
                }
            }
        }
        if let Some(tail) = exec.finish(&shared.credits)? {
            let _ = tx.send(tail);
        }
        Ok(())
    }

    /// The degraded path: the same block boundaries, stage order, and
    /// window drains as the pooled run, executed in order on the
    /// calling thread — output is identical to an ordered pooled run.
    fn run_sequential(
        &self,
        source: impl Iterator<Item = Value>,
        sink: &mut impl FnMut(Value),
    ) -> Result<StreamStats, EvalError> {
        let _span = snap_trace::span!("stream.run_sequential");
        let origin = snap_trace::current_span_id();
        let config = self.normalized_config();
        let counters = RunCounters::default();
        let credits = Credits::new(config.max_in_flight);
        let mut farms: Vec<Option<FarmExec<'_>>> = Vec::new();
        let mut reduces: Vec<Option<ReduceExec<'_>>> = Vec::new();
        for op in &self.stages {
            match op {
                StageOp::ReduceByKey {
                    reducer,
                    window_items,
                } => {
                    farms.push(None);
                    reduces.push(Some(ReduceExec::new(
                        reducer,
                        *window_items,
                        config.policy,
                        origin,
                        &counters,
                    )?));
                }
                op => {
                    farms.push(Some(FarmExec::new(op, config.policy, origin, &counters)?));
                    reduces.push(None);
                }
            }
        }
        let mut emit = |block: Block| {
            metrics::STREAM_LATENCY_NS.record(block.born.elapsed().as_nanos() as u64);
            for value in block.data.into_values() {
                metrics::STREAM_ITEMS_OUT.incr();
                counters.items_out.fetch_add(1, Ordering::Relaxed);
                sink(value);
            }
        };

        let mut buf: Vec<Value> = Vec::with_capacity(config.block_items);
        let mut numeric = true;
        let mut seq = 0u64;
        for item in source {
            metrics::STREAM_ITEMS_IN.incr();
            counters.items_in.fetch_add(1, Ordering::Relaxed);
            numeric &= matches!(item, Value::Number(_));
            buf.push(item);
            if buf.len() >= config.block_items {
                let block = pack_block(&mut buf, numeric, &mut seq, &counters);
                numeric = true;
                push_through(
                    &self.stages,
                    &farms,
                    &mut reduces,
                    &credits,
                    block,
                    0,
                    &mut emit,
                )?;
            }
        }
        if !buf.is_empty() {
            let block = pack_block(&mut buf, numeric, &mut seq, &counters);
            push_through(
                &self.stages,
                &farms,
                &mut reduces,
                &credits,
                block,
                0,
                &mut emit,
            )?;
        }
        // Flush reduce windows front-to-back: a tail window flushed at
        // stage `i` still flows through stages `i+1..`.
        for stage in 0..self.stages.len() {
            let tail = match reduces[stage].as_mut() {
                Some(reduce) => reduce.finish(&credits)?,
                None => None,
            };
            if let Some(block) = tail {
                push_through(
                    &self.stages,
                    &farms,
                    &mut reduces,
                    &credits,
                    block,
                    stage + 1,
                    &mut emit,
                )?;
            }
        }
        Ok(StreamStats {
            items_in: counters.items_in.load(Ordering::Relaxed),
            items_out: counters.items_out.load(Ordering::Relaxed),
            blocks: counters.blocks.load(Ordering::Relaxed),
            windows: counters.windows.load(Ordering::Relaxed),
            blocks_salvaged: counters.blocks_salvaged.load(Ordering::Relaxed),
            items_dropped: counters.items_dropped.load(Ordering::Relaxed),
            queue_capacity: config.capacity,
            peak_queue_depths: Vec::new(),
            sequential: true,
        })
    }
}

/// Route one block through stages `from_stage..` of the sequential
/// pass, emitting whatever reaches the end.
fn push_through<'a>(
    stages: &[StageOp],
    farms: &[Option<FarmExec<'a>>],
    reduces: &mut [Option<ReduceExec<'a>>],
    credits: &Arc<Credits>,
    block: Block,
    from_stage: usize,
    emit: &mut impl FnMut(Block),
) -> Result<(), EvalError> {
    let mut wave = vec![block];
    for stage in from_stage..stages.len() {
        let mut next = Vec::with_capacity(wave.len());
        for block in wave {
            if let Some(farm) = &farms[stage] {
                next.push(farm.feed(block)?);
            } else if let Some(reduce) = reduces[stage].as_mut() {
                next.extend(reduce.feed(block, credits)?);
            }
        }
        wave = next;
    }
    for block in wave {
        emit(block);
    }
    Ok(())
}

/// Pack the buffered items into a block (sequential path — no credit
/// gate needed, nothing is concurrent).
fn pack_block(buf: &mut Vec<Value>, numeric: bool, seq: &mut u64, counters: &RunCounters) -> Block {
    let data = if numeric {
        BlockData::Columnar(buf.drain(..).map(|v| v.to_number()).collect())
    } else {
        BlockData::Boxed(std::mem::take(buf))
    };
    metrics::STREAM_BLOCKS.incr();
    counters.blocks.fetch_add(1, Ordering::Relaxed);
    let block = Block {
        seq: *seq,
        born: Instant::now(),
        data,
        credit: None,
    };
    *seq += 1;
    block
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_ast::builder::*;

    fn times_ten() -> Arc<Ring> {
        Arc::new(Ring::reporter(mul(empty_slot(), num(10.0))))
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

    #[test]
    fn numeric_map_stream_matches_batch() {
        let items: Vec<Value> = (0..1000).map(|n| Value::Number(n as f64)).collect();
        let pipeline = Pipeline::new(StreamConfig {
            block_items: 64,
            ..Default::default()
        })
        .map(times_ten());
        let (streamed, stats) = pipeline.run_with_stats(items.clone()).unwrap();
        let batch = crate::parallel_map(times_ten(), items, 4).unwrap();
        assert_eq!(streamed, batch);
        assert_eq!(stats.items_in, 1000);
        assert_eq!(stats.items_out, 1000);
        assert_eq!(stats.blocks, 1000 / 64 + 1);
        assert!(!stats.sequential);
    }

    #[test]
    fn columnar_blocks_flow_through_batchable_stages() {
        let before = metrics::PAR_COLUMNAR_CHUNKS.get();
        let items: Vec<Value> = (0..512).map(|n| Value::Number(n as f64)).collect();
        let pipeline = Pipeline::new(StreamConfig {
            block_items: 128,
            ..Default::default()
        })
        .map(times_ten())
        .map(times_ten());
        let out = pipeline.run(items).unwrap();
        assert_eq!(out[3], Value::Number(300.0));
        assert!(
            metrics::PAR_COLUMNAR_CHUNKS.get() >= before + 8,
            "two batchable stages over four columnar blocks"
        );
    }

    #[test]
    fn filter_keeps_sequence_dense_and_order_stable() {
        // Keep even numbers only; ordered emitter must preserve input
        // order even though half of some blocks disappears.
        let keep_even = Arc::new(Ring::reporter_with_params(
            vec!["x".into()],
            eq(modulo(var("x"), num(2.0)), num(0.0)),
        ));
        let items: Vec<Value> = (0..300).map(|n| Value::Number(n as f64)).collect();
        let pipeline = Pipeline::new(StreamConfig {
            block_items: 32,
            stage_workers: 2,
            ..Default::default()
        })
        .filter(keep_even);
        let out = pipeline.run(items).unwrap();
        let expected: Vec<Value> = (0..300)
            .filter(|n| n % 2 == 0)
            .map(|n| Value::Number(n as f64))
            .collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn flat_map_splices_list_results() {
        // x → [x, x] doubles the stream.
        let duplicate = Arc::new(Ring::reporter_with_params(
            vec!["x".into()],
            make_list(vec![var("x"), var("x")]),
        ));
        let items: Vec<Value> = (0..50).map(|n| Value::Number(n as f64)).collect();
        let pipeline = Pipeline::new(StreamConfig {
            block_items: 16,
            ..Default::default()
        })
        .flat_map(duplicate);
        let out = pipeline.run(items).unwrap();
        assert_eq!(out.len(), 100);
        assert_eq!(out[0], Value::Number(0.0));
        assert_eq!(out[1], Value::Number(0.0));
        assert_eq!(out[2], Value::Number(1.0));
    }

    #[test]
    fn windowed_word_count_matches_per_window_batch() {
        let words = ["the", "fox", "dog", "the", "a", "the"];
        let items: Vec<Value> = (0..240).map(|i| words[i % words.len()].into()).collect();
        let window = 80;
        let pipeline = Pipeline::new(StreamConfig {
            block_items: 16,
            ..Default::default()
        })
        .map(word_count_mapper())
        .reduce_by_key(word_count_reducer(), window);
        let (streamed, stats) = pipeline.run_with_stats(items.clone()).unwrap();
        // The batch equivalent of each window, concatenated.
        let mut expected = Vec::new();
        for chunk in items.chunks(window) {
            expected.extend(
                crate::map_reduce(word_count_mapper(), word_count_reducer(), chunk.to_vec(), 4)
                    .unwrap(),
            );
        }
        assert_eq!(streamed, expected);
        assert_eq!(stats.windows, 3);
    }

    #[test]
    fn partial_tail_window_is_flushed() {
        let items: Vec<Value> = (0..10).map(|_| Value::text("w")).collect();
        let pipeline = Pipeline::new(StreamConfig {
            block_items: 4,
            ..Default::default()
        })
        .map(word_count_mapper())
        .reduce_by_key(word_count_reducer(), 100);
        let (out, stats) = pipeline.run_with_stats(items).unwrap();
        assert_eq!(stats.windows, 1, "tail flush closes the partial window");
        assert_eq!(out.len(), 1);
        let pair = out[0].as_list().unwrap();
        assert_eq!(pair.item(2).unwrap(), Value::Number(10.0));
    }

    #[test]
    fn empty_source_is_fine() {
        let pipeline = Pipeline::new(StreamConfig::default()).map(times_ten());
        let (out, stats) = pipeline.run_with_stats(Vec::new()).unwrap();
        assert!(out.is_empty());
        assert_eq!(stats.items_in, 0);
        assert_eq!(stats.blocks, 0);
    }

    #[test]
    fn eval_errors_abort_the_stream() {
        // item 5 of a 1-element list → index error mid-stream.
        let bad = Arc::new(Ring::reporter(item(num(5.0), empty_slot())));
        let items: Vec<Value> = (0..100).map(|_| Value::list(vec![1.into()])).collect();
        let pipeline = Pipeline::new(StreamConfig {
            block_items: 8,
            ..Default::default()
        })
        .map(bad);
        assert!(pipeline.run(items).is_err(), "EvalError must surface");
    }

    #[test]
    fn nested_run_degrades_to_sequential() {
        // From a pool worker thread, the stream must not try to park
        // the worker on channel recv — it degrades to the in-order
        // sequential pass instead.
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        global_pool()
            .execute(move || {
                let inner: Vec<Value> = (0..100).map(|n| Value::Number(n as f64)).collect();
                let pipeline = Pipeline::new(StreamConfig::default()).map(times_ten());
                let _ = done_tx.send(pipeline.run_with_stats(inner).unwrap());
            })
            .unwrap();
        let (values, stats) = done_rx.recv().unwrap();
        assert_eq!(values.len(), 100);
        assert!(stats.sequential, "nested run must take the sequential path");
    }

    #[test]
    fn unordered_emitter_delivers_same_multiset() {
        let items: Vec<Value> = (0..400).map(|n| Value::Number(n as f64)).collect();
        let pipeline = Pipeline::new(StreamConfig {
            block_items: 32,
            stage_workers: 4,
            emitter: Emitter::Unordered,
            ..Default::default()
        })
        .map(times_ten());
        let mut out = pipeline.run(items).unwrap();
        let mut expected: Vec<Value> = (0..400).map(|n| Value::Number(n as f64 * 10.0)).collect();
        out.sort_by(|a, b| a.to_number().partial_cmp(&b.to_number()).unwrap());
        expected.sort_by(|a, b| a.to_number().partial_cmp(&b.to_number()).unwrap());
        assert_eq!(out, expected);
    }

    #[test]
    fn queue_depths_stay_within_capacity() {
        let items: Vec<Value> = (0..2000).map(|n| Value::Number(n as f64)).collect();
        let config = StreamConfig {
            block_items: 16,
            capacity: 3,
            ..Default::default()
        };
        let pipeline = Pipeline::new(config).map(times_ten());
        let (_, stats) = pipeline.run_with_stats(items).unwrap();
        assert!(!stats.peak_queue_depths.is_empty());
        for &peak in &stats.peak_queue_depths {
            assert!(
                peak <= stats.queue_capacity,
                "peak {peak} exceeded capacity {}",
                stats.queue_capacity
            );
        }
    }
}
