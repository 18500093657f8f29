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
//! * **Fast tiers reused.** Blocks are the ring kernel's
//!   [`Chunk`]s: an all-numeric source block travels as a flat `f64`
//!   column, and a map stage hands each block to
//!   [`snap_workers::map_chunk`], the batch blocks' own tier choice (a
//!   column through a batchable ring is one 64-lane batch call). Windowed
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
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

use snap_ast::pure::{compile_cached, PureFn};
use snap_ast::{BinOp, EvalError, Ring, Value};
use snap_trace::well_known as metrics;
use snap_workers::channel::{bounded, ChannelMonitor, Receiver, Sender};
use snap_workers::fault::{attempt, injector, last_chance};
use snap_workers::{
    as_map_pair, call_group, call_item, default_workers, global_pool, map_chunk, Chunk, ExecMode,
    FaultPolicy, Isolation, WaitGroup,
};

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

struct Block {
    seq: u64,
    born: Instant,
    data: Chunk,
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

/// Stage jobs of every pipeline now running on the global pool.
static LIVE_STREAM_JOBS: AtomicUsize = AtomicUsize::new(0);

/// One run's share of [`LIVE_STREAM_JOBS`], returned on drop.
struct LiveJobs {
    jobs: usize,
    /// Every running pipeline's jobs, this run's included.
    total: usize,
}

impl LiveJobs {
    fn claim(jobs: usize) -> LiveJobs {
        let total = LIVE_STREAM_JOBS.fetch_add(jobs, Ordering::SeqCst) + jobs;
        LiveJobs { jobs, total }
    }
}

impl Drop for LiveJobs {
    fn drop(&mut self) {
        LIVE_STREAM_JOBS.fetch_sub(self.jobs, Ordering::SeqCst);
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

impl RunCounters {
    fn stats(&self, queue_capacity: usize, peaks: Vec<usize>, sequential: bool) -> StreamStats {
        let get = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        StreamStats {
            items_in: get(&self.items_in),
            items_out: get(&self.items_out),
            blocks: get(&self.blocks),
            windows: get(&self.windows),
            blocks_salvaged: get(&self.blocks_salvaged),
            items_dropped: get(&self.items_dropped),
            queue_capacity,
            peak_queue_depths: peaks,
            sequential,
        }
    }
}

/// Count `n` on a global stream counter and on the run's own.
fn count(global: &snap_trace::Counter, run: &AtomicU64, n: u64) {
    global.add(n);
    run.fetch_add(n, Ordering::Relaxed);
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

/// A stage's executor: a farm worker's, or the reduce node's.
enum Node<'a> {
    Farm(FarmExec<'a>),
    Reduce(ReduceExec<'a>),
}

impl<'a> Node<'a> {
    fn new(
        op: &'a StageOp,
        policy: FaultPolicy,
        origin: u64,
        counters: &'a RunCounters,
    ) -> Result<Self, EvalError> {
        Ok(match op {
            StageOp::Map(ring) | StageOp::Filter(ring) | StageOp::FlatMap(ring) => {
                Node::Farm(FarmExec {
                    op,
                    f: compile_cached(ring)?,
                    policy,
                    origin,
                    counters,
                })
            }
            StageOp::ReduceByKey {
                reducer,
                window_items,
            } => Node::Reduce(ReduceExec {
                f: compile_cached(reducer)?,
                fold: associative_fold_op(reducer),
                window_items: (*window_items).max(1),
                policy,
                origin,
                counters,
                pending: Vec::new(),
                origins: VecDeque::new(),
                next_in_seq: 0,
                reorder: BTreeMap::new(),
                out_seq: 0,
            }),
        })
    }
}

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

impl FarmExec<'_> {
    /// Transform one block, preserving its sequence number and credit.
    /// Panics retry per the policy, then degrade to per-item salvage.
    fn feed(&self, block: Block) -> Result<Block, EvalError> {
        let data = match attempt(block.seq, &self.policy, injector(), self.origin, || {
            self.transform(&block.data)
        }) {
            Ok(out) => out?,
            Err(_) => self.salvage(&block.data)?,
        };
        Ok(Block { data, ..block })
    }

    /// The whole-block transform. A map stage is the ring kernel's
    /// [`map_chunk`]; a filter keeps a column a column; everything else
    /// goes per item.
    fn transform(&self, data: &Chunk) -> Result<Chunk, EvalError> {
        match (self.op, data) {
            (StageOp::Map(_), _) => map_chunk(&self.f, data, Isolation::Copy),
            (StageOp::Filter(_), Chunk::Columnar(column)) => {
                let mut kept = Vec::with_capacity(column.len());
                for &x in column {
                    if call_item(&self.f, &Value::Number(x), Isolation::Copy)?.to_bool() {
                        kept.push(x);
                    }
                }
                Ok(Chunk::Columnar(kept))
            }
            _ => {
                let mut out = Vec::with_capacity(data.len());
                data.try_for_each(|item| self.step(item, &mut out))?;
                Ok(Chunk::Boxed(out))
            }
        }
    }

    /// One item through the stage's ring, appending what it yields: the
    /// mapped value, the item if the predicate holds, or the spliced
    /// list.
    fn step(&self, item: &Value, out: &mut Vec<Value>) -> Result<(), EvalError> {
        let result = call_item(&self.f, item, Isolation::Copy)?;
        match self.op {
            StageOp::Map(_) => out.push(result),
            StageOp::Filter(_) if result.to_bool() => out.push(item.deep_copy()),
            StageOp::Filter(_) => {}
            // The result is already a structured clone: splice its items
            // as they are.
            StageOp::FlatMap(_) => match result.as_list() {
                Some(list) => list.with_items(|items| out.extend_from_slice(items)),
                None => out.push(result),
            },
            StageOp::ReduceByKey { .. } => unreachable!("reduce stages use ReduceExec"),
        }
        Ok(())
    }

    /// The per-item degradation pass: injector-free, one catch per
    /// item. Items that still panic are dropped; the block survives.
    fn salvage(&self, data: &Chunk) -> Result<Chunk, EvalError> {
        count(
            &metrics::STREAM_BLOCKS_SALVAGED,
            &self.counters.blocks_salvaged,
            1,
        );
        snap_trace::note(
            "stream.block_salvaged",
            format!("salvaging a {}-item block item-by-item", data.len()),
        );
        let mut out = Vec::with_capacity(data.len());
        let mut dropped = 0u64;
        data.try_for_each(|item| {
            match last_chance(|| {
                let mut one = Vec::new();
                self.step(item, &mut one).map(|()| one)
            }) {
                Ok(one) => out.extend(one?),
                Err(_) => dropped += 1,
            }
            Ok(())
        })?;
        if dropped > 0 {
            count(
                &metrics::STREAM_ITEMS_DROPPED,
                &self.counters.items_dropped,
                dropped,
            );
        }
        Ok(Chunk::Boxed(out))
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

impl ReduceExec<'_> {
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
        count(&metrics::STREAM_WINDOWS, &self.counters.windows, 1);

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
                    count(
                        &metrics::STREAM_BLOCKS_SALVAGED,
                        &self.counters.blocks_salvaged,
                        1,
                    );
                    items?
                }
                Err(_) => {
                    count(
                        &metrics::STREAM_ITEMS_DROPPED,
                        &self.counters.items_dropped,
                        take as u64,
                    );
                    Vec::new()
                }
            },
        };
        self.out_seq += 1;
        count(&metrics::STREAM_BLOCKS, &self.counters.blocks, 1);
        Ok(Block {
            seq,
            born,
            data: Chunk::Boxed(items),
            credit: credits.try_acquire(),
        })
    }

    /// One window: the batch `mapReduce` shuffle on the calling thread
    /// (folding for associative reducers), then one reducer call per key.
    fn compute(&self, pairs: &[(Value, Value)]) -> Result<Vec<Value>, EvalError> {
        group_by(pairs, self.fold, 1, ExecMode::Pooled)
            .iter()
            .map(|(key, values)| call_group(&self.f, key, values, Isolation::Copy))
            .collect()
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
        // size the pool for every running pipeline's jobs on top of the
        // default width, so they cannot starve concurrent batch work and
        // repeated runs spawn no threads. Degrade to the sequential pass
        // when that is impossible (worker-count ceiling, nested call
        // from a pool worker).
        let live = LiveJobs::claim(total_jobs);
        pool.ensure_workers(default_workers() + live.total);
        if pool.on_worker_thread() || pool.workers() < total_jobs + 1 {
            drop(live);
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
        // queue. Every submitted job owns a wait-group token dropped
        // when the job has fully returned (normal return, panic, or the
        // pool refusing the job), and `run_each` waits on the group
        // before this frame — which `roles` and `shared` borrow — is
        // torn down.
        let runner_static: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(runner) };
        let jobs_done = WaitGroup::default();
        for (idx, token) in jobs_done.tokens(total_jobs).into_iter().enumerate() {
            let submitted = pool.execute(move || {
                let _token = token;
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
        while let Some(block) = sink_rx.recv() {
            match config.emitter {
                Emitter::Unordered => emit(block, &shared.counters, &mut sink),
                Emitter::Ordered => {
                    reorder.insert(block.seq, block);
                    while let Some(block) = reorder.remove(&expected_seq) {
                        expected_seq += 1;
                        emit(block, &shared.counters, &mut sink);
                    }
                }
            }
        }
        // End-of-stream. On a clean run the reorder buffer is already
        // empty (sequences are dense); after an abort it may hold
        // stragglers — emit them in order anyway, the error wins below.
        for block in reorder.into_values() {
            emit(block, &shared.counters, &mut sink);
        }
        drop(sink_rx);
        jobs_done.wait();

        if let Some(err) = shared
            .error
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
        {
            return Err(err);
        }
        let peaks = shared.monitors.iter().map(|m| m.peak_depth()).collect();
        Ok(shared.counters.stats(config.capacity, peaks, false))
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
            JobRole::Source { tx, items } => pump_source(tx, items, shared, config.block_items),
            JobRole::Stage { stage, rx, tx } => {
                let op = &self.stages[stage];
                match Node::new(op, config.policy, shared.origin, &shared.counters)? {
                    Node::Farm(farm) => run_farm(&farm, rx, tx),
                    Node::Reduce(reduce) => run_reduce(reduce, rx, tx, &shared.credits),
                }
            }
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

    /// The degraded path: the same block boundaries, stage order, and
    /// window drains as the pooled run, executed in order on the
    /// calling thread — output is identical to an ordered pooled run.
    fn run_sequential(
        &self,
        source: impl Iterator<Item = Value>,
        sink: &mut dyn FnMut(Value),
    ) -> Result<StreamStats, EvalError> {
        let _span = snap_trace::span!("stream.run_sequential");
        let origin = snap_trace::current_span_id();
        let config = self.normalized_config();
        let counters = RunCounters::default();
        let credits = Credits::new(config.max_in_flight);
        let mut nodes = self
            .stages
            .iter()
            .map(|op| Node::new(op, config.policy, origin, &counters))
            .collect::<Result<Vec<_>, _>>()?;
        pump(
            source,
            config.block_items,
            &counters,
            || false,
            |seq, data| {
                let block = Block {
                    seq,
                    born: Instant::now(),
                    data,
                    credit: None,
                };
                push_through(&mut nodes, &credits, block, 0, &counters, sink)?;
                Ok(true)
            },
        )?;
        // Flush reduce windows front-to-back: a tail window flushed at
        // stage `i` still flows through stages `i+1..`.
        for stage in 0..nodes.len() {
            let tail = match &mut nodes[stage] {
                Node::Reduce(reduce) => reduce.finish(&credits)?,
                Node::Farm(_) => None,
            };
            if let Some(block) = tail {
                push_through(&mut nodes, &credits, block, stage + 1, &counters, sink)?;
            }
        }
        Ok(counters.stats(config.capacity, Vec::new(), true))
    }
}

/// The source loop of both runs: count each item in, pack every
/// `block_items` items (and the tail) into a [`Chunk`] — a column when
/// all are numbers — counted as a block, and hand it to `send` with its
/// sequence number. Stops early once `aborted`, or when `send` reports
/// the pipeline gone.
fn pump(
    items: impl Iterator<Item = Value>,
    block_items: usize,
    counters: &RunCounters,
    aborted: impl Fn() -> bool,
    mut send: impl FnMut(u64, Chunk) -> Result<bool, EvalError>,
) -> Result<(), EvalError> {
    let mut buf = Vec::with_capacity(block_items);
    let mut seq = 0u64;
    let mut flush = |buf: &mut Vec<Value>| {
        count(&metrics::STREAM_BLOCKS, &counters.blocks, 1);
        seq += 1;
        send(seq - 1, Chunk::pack(buf))
    };
    for item in items {
        if aborted() {
            return Ok(());
        }
        count(&metrics::STREAM_ITEMS_IN, &counters.items_in, 1);
        buf.push(item);
        if buf.len() >= block_items && !flush(&mut buf)? {
            return Ok(());
        }
    }
    if !buf.is_empty() {
        flush(&mut buf)?;
    }
    Ok(())
}

/// The source node: [`pump`] with a credit acquired per block before
/// it is sent.
fn pump_source(
    tx: Sender<Block>,
    items: Box<dyn Iterator<Item = Value> + Send + '_>,
    shared: &Shared,
    block_items: usize,
) -> Result<(), EvalError> {
    pump(
        items,
        block_items,
        &shared.counters,
        || shared.aborted(),
        |seq, data| {
            let Some(credit) = shared.credits.acquire() else {
                return Ok(false); // aborted
            };
            let block = Block {
                seq,
                born: Instant::now(),
                data,
                credit: Some(credit),
            };
            Ok(tx.send(block).is_ok())
        },
    )
    // tx drops here → end-of-stream downstream
}

/// One farm worker: receive, transform (fault-guarded), send.
fn run_farm(farm: &FarmExec<'_>, rx: Receiver<Block>, tx: Sender<Block>) -> Result<(), EvalError> {
    while let Some(block) = rx.recv() {
        if tx.send(farm.feed(block)?).is_err() {
            return Ok(()); // poisoned: the abort error wins
        }
    }
    Ok(())
}

/// The reduce node (always one worker): reorder by sequence, window,
/// group + reduce per window.
fn run_reduce(
    mut reduce: ReduceExec<'_>,
    rx: Receiver<Block>,
    tx: Sender<Block>,
    credits: &Arc<Credits>,
) -> Result<(), EvalError> {
    while let Some(block) = rx.recv() {
        for out in reduce.feed(block, credits)? {
            if tx.send(out).is_err() {
                return Ok(());
            }
        }
    }
    if let Some(tail) = reduce.finish(credits)? {
        let _ = tx.send(tail);
    }
    Ok(())
}

/// Route one block through stages `from_stage..` of the sequential
/// pass, emitting whatever reaches the end.
fn push_through(
    nodes: &mut [Node<'_>],
    credits: &Arc<Credits>,
    block: Block,
    from_stage: usize,
    counters: &RunCounters,
    sink: &mut dyn FnMut(Value),
) -> Result<(), EvalError> {
    let mut wave = vec![block];
    for node in &mut nodes[from_stage..] {
        let mut next = Vec::with_capacity(wave.len());
        for block in wave {
            match node {
                Node::Farm(farm) => next.push(farm.feed(block)?),
                Node::Reduce(reduce) => next.extend(reduce.feed(block, credits)?),
            }
        }
        wave = next;
    }
    for block in wave {
        emit(block, counters, sink);
    }
    Ok(())
}

/// Hand one block's items to the sink. Its credit drops here: the block
/// has left the pipeline.
fn emit(block: Block, counters: &RunCounters, sink: &mut dyn FnMut(Value)) {
    metrics::STREAM_LATENCY_NS.record(block.born.elapsed().as_nanos() as u64);
    let values = block.data.into_values();
    count(
        &metrics::STREAM_ITEMS_OUT,
        &counters.items_out,
        values.len() as u64,
    );
    values.into_iter().for_each(sink);
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
