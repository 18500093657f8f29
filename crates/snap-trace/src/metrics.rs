//! Counters, gauges, and histograms behind the global registry.
//!
//! Every metric is a plain atomic: updates are one relaxed RMW with no
//! locking on any hot path. The well-known runtime metrics (pool, ring
//! map, compile cache, shuffle, VM) are `static`s so call sites pay no
//! lookup at all; ad-hoc metrics can be interned at runtime through
//! [`counter`] / [`gauge`] / [`histogram`], which hand back `&'static`
//! references from a leak-once registry.

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

use crate::window::WindowRing;

/// A monotonically increasing event count.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// A zeroed counter (const, so counters can be `static`).
    pub const fn new(name: &'static str) -> Counter {
        Counter {
            name,
            value: AtomicU64::new(0),
        }
    }

    /// The metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Add one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        #[cfg(feature = "enabled")]
        self.value.fetch_add(n, Ordering::Relaxed);
        #[cfg(not(feature = "enabled"))]
        let _ = n;
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A value that can go up and down (queue depths, live worker counts).
#[derive(Debug)]
pub struct Gauge {
    name: &'static str,
    value: AtomicI64,
}

impl Gauge {
    /// A zeroed gauge.
    pub const fn new(name: &'static str) -> Gauge {
        Gauge {
            name,
            value: AtomicI64::new(0),
        }
    }

    /// The metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Add `n` (may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        #[cfg(feature = "enabled")]
        self.value.fetch_add(n, Ordering::Relaxed);
        #[cfg(not(feature = "enabled"))]
        let _ = n;
    }

    /// Increment by one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Decrement by one.
    #[inline]
    pub fn decr(&self) {
        self.add(-1);
    }

    /// Overwrite the value.
    #[inline]
    pub fn set(&self, n: i64) {
        #[cfg(feature = "enabled")]
        self.value.store(n, Ordering::Relaxed);
        #[cfg(not(feature = "enabled"))]
        let _ = n;
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Power-of-two bucket count: bucket `i` holds samples in
/// `[2^i, 2^(i+1))`, with bucket 0 also absorbing zero.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A lock-free histogram over `u64` samples (nanoseconds, sizes, …)
/// with power-of-two buckets plus exact count/sum/min/max, and a
/// windowed ring ([`WindowRing`]) answering quantiles over the trailing
/// minute while the run is live.
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    window: WindowRing,
}

impl Histogram {
    /// An empty histogram.
    pub const fn new(name: &'static str) -> Histogram {
        Histogram {
            name,
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            window: WindowRing::new(),
        }
    }

    /// The metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Record one sample (stamped with the current trace-epoch time for
    /// window placement).
    #[inline]
    pub fn record(&self, sample: u64) {
        #[cfg(feature = "enabled")]
        self.record_at(sample, crate::span::now_ns());
        #[cfg(not(feature = "enabled"))]
        let _ = sample;
    }

    /// Record one sample observed at `now_ns` (nanoseconds since the
    /// trace epoch). Call sites that already hold a timestamp (span
    /// guards) use this to skip a second clock read.
    #[inline]
    pub fn record_at(&self, sample: u64, now_ns: u64) {
        #[cfg(feature = "enabled")]
        {
            let bucket = (64 - sample.leading_zeros() as usize).saturating_sub(1);
            self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
            self.count.fetch_add(1, Ordering::Relaxed);
            self.sum.fetch_add(sample, Ordering::Relaxed);
            self.min.fetch_min(sample, Ordering::Relaxed);
            self.max.fetch_max(sample, Ordering::Relaxed);
            self.window.record(sample, now_ns);
        }
        #[cfg(not(feature = "enabled"))]
        let _ = (sample, now_ns);
    }

    /// A point-in-time copy of the histogram's summary statistics.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            name: self.name,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }

    /// A snapshot of only the samples recorded in the trailing
    /// `range_secs` seconds (clamped to the ring's one-minute span) —
    /// the live view behind windowed p50/p95/p99.
    pub fn windowed(&self, range_secs: u64) -> HistogramSnapshot {
        let stats = self.window.merged(range_secs, crate::span::now_ns());
        HistogramSnapshot {
            name: self.name,
            count: stats.count,
            sum: stats.sum,
            min: stats.min,
            max: stats.max,
            buckets: stats.buckets,
        }
    }
}

/// Frozen view of a [`Histogram`], safe to serialize.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// The metric name.
    pub name: &'static str,
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Per-power-of-two bucket counts.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl HistogramSnapshot {
    /// Mean sample value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimate the `p`-quantile (`p` in `0.0..=1.0`) from the
    /// power-of-two buckets: the upper bound of the bucket holding the
    /// requested rank, clamped into the observed `[min, max]`. At worst
    /// one bucket (2×) coarse; exact at the extremes.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, &count) in self.buckets.iter().enumerate() {
            cumulative += count;
            if cumulative >= rank {
                let upper = if i >= HISTOGRAM_BUCKETS - 1 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
                return upper.clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// Per-worker executed-job counters with a fixed capacity, readable
/// without any lock.
///
/// This replaces the seed's `Mutex<Vec<Arc<AtomicU64>>>` in
/// `WorkerPool`: slots are allocated once at construction, each worker
/// claims the next slot at spawn time ([`WorkerCounters::add_worker`]),
/// and [`WorkerCounters::snapshot`] is a read-only pass over the live
/// prefix — no mutex on the read path, no allocation on the hot path.
#[derive(Debug)]
pub struct WorkerCounters {
    slots: Box<[AtomicU64]>,
    live: AtomicUsize,
}

impl WorkerCounters {
    /// Allocate `capacity` zeroed slots.
    pub fn new(capacity: usize) -> WorkerCounters {
        WorkerCounters {
            slots: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
            live: AtomicUsize::new(0),
        }
    }

    /// Claim the next worker slot, returning its id. Panics if the
    /// capacity chosen at construction is exhausted.
    pub fn add_worker(&self) -> usize {
        let id = self.live.fetch_add(1, Ordering::Relaxed);
        assert!(
            id < self.slots.len(),
            "WorkerCounters capacity ({}) exhausted",
            self.slots.len()
        );
        id
    }

    /// Count one executed job for worker `id`.
    #[inline]
    pub fn incr(&self, id: usize) {
        self.slots[id].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of live (claimed) worker slots.
    pub fn workers(&self) -> usize {
        self.live.load(Ordering::Relaxed).min(self.slots.len())
    }

    /// Jobs executed so far, per live worker — a lock-free read.
    pub fn snapshot(&self) -> Vec<u64> {
        self.slots[..self.workers()]
            .iter()
            .map(|slot| slot.load(Ordering::Relaxed))
            .collect()
    }

    /// Total jobs executed across all workers.
    pub fn total(&self) -> u64 {
        self.snapshot().iter().sum()
    }
}

// ---------------------------------------------------------------------
// Well-known runtime metrics
// ---------------------------------------------------------------------

/// The well-known metrics every runtime crate reports into. Call sites
/// use these statics directly (zero lookup cost); [`known_counters`]
/// and friends enumerate them for reports and exporters.
pub mod well_known {
    use super::{Counter, Gauge, Histogram};

    /// Jobs submitted to the worker pool (accepted sends).
    pub static POOL_JOBS_SUBMITTED: Counter = Counter::new("pool.jobs_submitted");
    /// Jobs completed by pool workers.
    pub static POOL_JOBS_EXECUTED: Counter = Counter::new("pool.jobs_executed");
    /// Jobs the pool refused (shutdown race) that ran inline instead.
    pub static POOL_JOBS_REFUSED: Counter = Counter::new("pool.jobs_refused");
    /// Refused jobs that actually ran inline on the submitting thread —
    /// the shutdown-race fallback, attributed so report totals
    /// reconcile (inline runs are neither submitted nor executed).
    pub static POOL_JOBS_INLINE: Counter = Counter::new("pool.jobs_inline");
    /// Jobs currently queued or running on the pool.
    pub static POOL_QUEUE_DEPTH: Gauge = Gauge::new("pool.queue_depth");
    /// Worker threads spawned (all pools).
    pub static POOL_WORKERS_SPAWNED: Counter = Counter::new("pool.workers_spawned");
    /// Jobs a worker popped from its own deque (LIFO fast path).
    pub static POOL_DEQUEUE_LOCAL: Counter = Counter::new("pool.dequeue_local");
    /// Jobs dequeued from the shared injector.
    pub static POOL_DEQUEUE_INJECTOR: Counter = Counter::new("pool.dequeue_injector");
    /// Jobs stolen FIFO from another worker's deque.
    pub static POOL_JOBS_STOLEN: Counter = Counter::new("pool.jobs_stolen");
    /// Times a worker parked (slept on the wake condvar) when every
    /// queue probe came up empty.
    pub static POOL_WORKER_PARKS: Counter = Counter::new("pool.worker_parks");
    /// Job attempts that panicked inside a worker (counted per attempt,
    /// before any retry decision). Every panicked attempt is either
    /// retried (`fault.retries_scheduled`) or final
    /// (`fault.failures_final`), so the three always reconcile.
    pub static POOL_JOBS_PANICKED: Counter = Counter::new("pool.jobs_panicked");

    /// Panicked attempts granted another try by a `FaultPolicy`.
    pub static FAULT_RETRIES_SCHEDULED: Counter = Counter::new("fault.retries_scheduled");
    /// Panicked attempts whose retry budget was exhausted.
    pub static FAULT_FAILURES_FINAL: Counter = Counter::new("fault.failures_final");
    /// Parallel calls that gave up because their deadline passed.
    pub static FAULT_DEADLINES_EXCEEDED: Counter = Counter::new("fault.deadlines_exceeded");
    /// Panics provoked by the deterministic fault injector.
    pub static FAULT_INJECTED_PANICS: Counter = Counter::new("fault.injected_panics");
    /// Delays provoked by the deterministic fault injector.
    pub static FAULT_INJECTED_DELAYS: Counter = Counter::new("fault.injected_delays");
    /// Items salvaged by the post-parallel sequential reassignment pass
    /// after their retry budget ran out on workers.
    pub static FAULT_ITEMS_REASSIGNED: Counter = Counter::new("fault.items_reassigned");
    /// Parallel blocks that degraded to the sequential path rather than
    /// fail (retry exhaustion, pool shutdown, or a pooled panic).
    pub static FAULT_DEGRADED_RUNS: Counter = Counter::new("fault.degraded_runs");

    /// Simulated cluster nodes that failed mid-run.
    pub static DIST_NODE_FAILURES: Counter = Counter::new("distributed.node_failures");
    /// Items reassigned off failed simulated nodes onto survivors.
    pub static DIST_ITEMS_REASSIGNED: Counter = Counter::new("distributed.items_reassigned");
    /// Straggler items speculatively re-executed on a backup node.
    pub static DIST_SPECULATIVE_RUNS: Counter = Counter::new("distributed.speculative_runs");
    /// Distributed maps that fell back to the master (every node died).
    pub static DIST_DEGRADED_RUNS: Counter = Counter::new("distributed.degraded_runs");

    /// `run_tasks` invocations that went through the pooled mode.
    pub static EXEC_POOLED_CALLS: Counter = Counter::new("exec.pooled_calls");
    /// `run_tasks` invocations that spawned per-call threads.
    pub static EXEC_SPAWN_CALLS: Counter = Counter::new("exec.spawn_calls");
    /// Re-entrant pooled calls that ran inline to avoid deadlock.
    pub static EXEC_REENTRANT_INLINE: Counter = Counter::new("exec.reentrant_inline");
    /// Dynamic-scheduling chunks claimed via `fetch_add`.
    pub static EXEC_CHUNKS_CLAIMED: Counter = Counter::new("exec.chunks_claimed");

    /// `ring_map` / `ring_reduce_groups` calls.
    pub static RING_MAP_CALLS: Counter = Counter::new("ring_map.calls");
    /// Items shipped through ring maps.
    pub static RING_MAP_ITEMS: Counter = Counter::new("ring_map.items");

    /// Ring compile-cache hits.
    pub static COMPILE_CACHE_HITS: Counter = Counter::new("compile_cache.hits");
    /// Ring compile-cache misses (fresh compiles).
    pub static COMPILE_CACHE_MISSES: Counter = Counter::new("compile_cache.misses");

    /// Rings lowered to bytecode (numeric or boxed) at compile time.
    pub static RING_BYTECODE_COMPILES: Counter = Counter::new("ring.bytecode_compiles");
    /// Ring calls served by the unboxed `f64` numeric fast path.
    pub static RING_FASTPATH_CALLS: Counter = Counter::new("ring.fastpath_calls");
    /// Ring calls served by boxed bytecode.
    pub static RING_BYTECODE_CALLS: Counter = Counter::new("ring.bytecode_calls");
    /// Ring calls that fell back to the tree-walking evaluator.
    pub static RING_TREEWALK_CALLS: Counter = Counter::new("ring.treewalk_calls");
    /// `eval_batch` invocations — each covers a whole chunk of elements.
    pub static RING_BATCH_CALLS: Counter = Counter::new("ring.batch_calls");
    /// Elements evaluated by `eval_batch` (no per-element dispatch).
    pub static RING_BATCH_ELEMS: Counter = Counter::new("ring.batch_elems");
    /// Maps that considered the columnar batch tier but declined it
    /// (non-batchable ring, or non-numeric elements in the list).
    pub static RING_BATCH_FALLBACKS: Counter = Counter::new("ring.batch_fallbacks");
    /// Flat `f64` chunks executed by the columnar map path.
    pub static PAR_COLUMNAR_CHUNKS: Counter = Counter::new("par.columnar_chunks");

    /// Shuffles that grouped on the calling thread: one chunk table, or
    /// the sort-based reference shuffle.
    pub static SHUFFLE_SEQ_RUNS: Counter = Counter::new("shuffle.seq_runs");
    /// Shuffles that grouped in more than one chunk table on the pool.
    pub static SHUFFLE_PARALLEL_RUNS: Counter = Counter::new("shuffle.parallel_runs");
    /// Values the shuffle grouped: every pair, or one partial per key
    /// and chunk when folding.
    pub static SHUFFLE_PAIRS: Counter = Counter::new("shuffle.pairs");
    /// Map-side combines: shuffles that folded values per chunk
    /// (associative reducers only), and `combine_pairs` calls.
    pub static SHUFFLE_COMBINE_RUNS: Counter = Counter::new("shuffle.combine_runs");
    /// Pairs eliminated by the map-side combine (pairs in minus
    /// per-chunk partials out).
    pub static SHUFFLE_PAIRS_COMBINED: Counter = Counter::new("shuffle.pairs_combined");
    /// Wall-time of merging a shuffle's chunk tables, nanoseconds.
    pub static SHUFFLE_MERGE_NS: Histogram = Histogram::new("shuffle.merge_ns");

    /// Simulated-cluster distributed maps.
    pub static DISTRIBUTED_MAPS: Counter = Counter::new("distributed.maps");
    /// Items run through the simulated cluster.
    pub static DISTRIBUTED_ITEMS: Counter = Counter::new("distributed.items");

    /// Spans lost because a thread's buffer hit
    /// [`crate::span::MAX_EVENTS_PER_THREAD`].
    pub static TRACE_SPANS_DROPPED: Counter = Counter::new("trace.spans_dropped");
    /// Nanoseconds snap-trace spent on itself: profiler sampling ticks
    /// plus telemetry HTTP handler time — the self-audit behind the
    /// `a7_trace_overhead` CI gate.
    pub static TRACE_OVERHEAD_NS: Counter = Counter::new("trace.overhead_ns");
    /// Sampling-profiler ticks taken (all profiler runs).
    pub static TRACE_PROFILE_SAMPLES: Counter = Counter::new("trace.profile_samples");
    /// `/metrics` scrapes answered by the telemetry server.
    pub static TRACE_METRICS_SCRAPES: Counter = Counter::new("trace.metrics_scrapes");

    /// Items pulled into a streaming pipeline by its source node.
    pub static STREAM_ITEMS_IN: Counter = Counter::new("stream.items_in");
    /// Items delivered to a streaming pipeline's sink.
    pub static STREAM_ITEMS_OUT: Counter = Counter::new("stream.items_out");
    /// Item-blocks that flowed through streaming channels (all stages).
    pub static STREAM_BLOCKS: Counter = Counter::new("stream.blocks");
    /// Reduce-by-key windows closed (including the end-of-stream flush).
    pub static STREAM_WINDOWS: Counter = Counter::new("stream.windows");
    /// Blocks that panicked past their retry budget and went through
    /// the per-item salvage pass instead of killing the stream.
    pub static STREAM_BLOCKS_SALVAGED: Counter = Counter::new("stream.blocks_salvaged");
    /// Items dropped by salvage because they panicked on every attempt.
    pub static STREAM_ITEMS_DROPPED: Counter = Counter::new("stream.items_dropped");
    /// Times a stage blocked on a full downstream channel
    /// (backpressure waits, not spin retries).
    pub static STREAM_BACKPRESSURE_WAITS: Counter = Counter::new("stream.backpressure_waits");
    /// Blocks currently queued across all streaming channels.
    pub static STREAM_QUEUE_DEPTH: Gauge = Gauge::new("stream.queue_depth");
    /// End-to-end latency of each block, source pack to sink emit,
    /// nanoseconds — feeds the windowed p50/p95/p99 on `/metrics`.
    pub static STREAM_LATENCY_NS: Histogram = Histogram::new("stream.latency_ns");

    /// Emitted C/OpenMP programs compiled by the codegen harness.
    pub static CODEGEN_COMPILES: Counter = Counter::new("codegen.compiles");
    /// Compiled codegen binaries executed to completion.
    pub static CODEGEN_RUNS: Counter = Counter::new("codegen.runs");
    /// Data elements processed by the native (compiled C) tier.
    pub static CODEGEN_NATIVE_ELEMS: Counter = Counter::new("codegen.native_elems");
    /// Codegen runs skipped because no C toolchain was detected.
    pub static CODEGEN_TOOLCHAIN_MISSING: Counter = Counter::new("codegen.toolchain_missing");
    /// Codegen compile-cache hits (binary reused, keyed on source hash).
    pub static CODEGEN_CACHE_HITS: Counter = Counter::new("codegen.cache_hits");
    /// Codegen compile-cache misses (fresh compile required).
    pub static CODEGEN_CACHE_MISSES: Counter = Counter::new("codegen.cache_misses");
    /// Persistent native workers spawned (`--serve` processes started).
    pub static CODEGEN_WORKER_SPAWNS: Counter = Counter::new("codegen.worker_spawns");
    /// Batch frames processed by persistent native workers.
    pub static CODEGEN_WORKER_FRAMES: Counter = Counter::new("codegen.worker_frames");
    /// Dead native workers respawned (exactly-once crash recovery).
    pub static CODEGEN_WORKER_RESTARTS: Counter = Counter::new("codegen.worker_restarts");
    /// Native frames abandoned to the in-process batch tier after a
    /// respawned worker died again (the bottom of the crash ladder).
    pub static CODEGEN_WORKER_FALLBACKS: Counter = Counter::new("codegen.worker_fallbacks");
    /// Warm workers retired: idle past the reap deadline, or holding a
    /// binary whose content-addressed cache key went stale.
    pub static CODEGEN_WORKER_REAPED: Counter = Counter::new("codegen.worker_reaped");

    /// VM frames executed (`step_frame` calls, stolen or not).
    pub static VM_FRAMES: Counter = Counter::new("vm.frames");
    /// VM frames consumed by the interference model.
    pub static VM_FRAMES_STOLEN: Counter = Counter::new("vm.frames_stolen");
    /// Processes spawned (green flag, broadcasts, clones, scripts).
    pub static VM_PROCESSES_SPAWNED: Counter = Counter::new("vm.processes_spawned");
    /// Live processes in the most recently stepped VM.
    pub static VM_LIVE_PROCESSES: Gauge = Gauge::new("vm.live_processes");
    /// Wall-time of each VM frame step, nanoseconds.
    pub static VM_FRAME_NS: Histogram = Histogram::new("vm.frame_ns");
}

/// Every well-known counter, for enumeration by reports.
pub fn known_counters() -> [&'static Counter; 67] {
    use well_known::*;
    [
        &POOL_JOBS_SUBMITTED,
        &POOL_JOBS_EXECUTED,
        &POOL_JOBS_REFUSED,
        &POOL_JOBS_INLINE,
        &POOL_JOBS_PANICKED,
        &POOL_WORKERS_SPAWNED,
        &POOL_DEQUEUE_LOCAL,
        &POOL_DEQUEUE_INJECTOR,
        &POOL_JOBS_STOLEN,
        &POOL_WORKER_PARKS,
        &FAULT_RETRIES_SCHEDULED,
        &FAULT_FAILURES_FINAL,
        &FAULT_DEADLINES_EXCEEDED,
        &FAULT_INJECTED_PANICS,
        &FAULT_INJECTED_DELAYS,
        &FAULT_ITEMS_REASSIGNED,
        &FAULT_DEGRADED_RUNS,
        &EXEC_POOLED_CALLS,
        &EXEC_SPAWN_CALLS,
        &EXEC_REENTRANT_INLINE,
        &EXEC_CHUNKS_CLAIMED,
        &RING_MAP_CALLS,
        &RING_MAP_ITEMS,
        &COMPILE_CACHE_HITS,
        &COMPILE_CACHE_MISSES,
        &RING_BYTECODE_COMPILES,
        &RING_FASTPATH_CALLS,
        &RING_BYTECODE_CALLS,
        &RING_TREEWALK_CALLS,
        &RING_BATCH_CALLS,
        &RING_BATCH_ELEMS,
        &RING_BATCH_FALLBACKS,
        &PAR_COLUMNAR_CHUNKS,
        &SHUFFLE_SEQ_RUNS,
        &SHUFFLE_PARALLEL_RUNS,
        &SHUFFLE_PAIRS,
        &SHUFFLE_COMBINE_RUNS,
        &SHUFFLE_PAIRS_COMBINED,
        &DISTRIBUTED_MAPS,
        &DISTRIBUTED_ITEMS,
        &DIST_NODE_FAILURES,
        &DIST_ITEMS_REASSIGNED,
        &DIST_SPECULATIVE_RUNS,
        &DIST_DEGRADED_RUNS,
        &STREAM_ITEMS_IN,
        &STREAM_ITEMS_OUT,
        &STREAM_BLOCKS,
        &STREAM_WINDOWS,
        &STREAM_BLOCKS_SALVAGED,
        &STREAM_ITEMS_DROPPED,
        &STREAM_BACKPRESSURE_WAITS,
        &CODEGEN_COMPILES,
        &CODEGEN_RUNS,
        &CODEGEN_NATIVE_ELEMS,
        &CODEGEN_TOOLCHAIN_MISSING,
        &CODEGEN_CACHE_HITS,
        &CODEGEN_CACHE_MISSES,
        &CODEGEN_WORKER_SPAWNS,
        &CODEGEN_WORKER_FRAMES,
        &CODEGEN_WORKER_RESTARTS,
        &CODEGEN_WORKER_FALLBACKS,
        &CODEGEN_WORKER_REAPED,
        &VM_PROCESSES_SPAWNED,
        &TRACE_SPANS_DROPPED,
        &TRACE_OVERHEAD_NS,
        &TRACE_PROFILE_SAMPLES,
        &TRACE_METRICS_SCRAPES,
    ]
}

/// Every well-known gauge.
pub fn known_gauges() -> [&'static Gauge; 3] {
    use well_known::*;
    [&POOL_QUEUE_DEPTH, &STREAM_QUEUE_DEPTH, &VM_LIVE_PROCESSES]
}

/// Every well-known histogram.
pub fn known_histograms() -> [&'static Histogram; 3] {
    use well_known::*;
    [&SHUFFLE_MERGE_NS, &STREAM_LATENCY_NS, &VM_FRAME_NS]
}

/// The VM frame counters, exported separately so reports can show the
/// scheduler section even when no parallel work ran.
pub fn vm_counters() -> [&'static Counter; 2] {
    use well_known::*;
    [&VM_FRAMES, &VM_FRAMES_STOLEN]
}

// ---------------------------------------------------------------------
// Dynamic (interned) metrics
// ---------------------------------------------------------------------

struct DynamicRegistry {
    counters: Vec<&'static Counter>,
    gauges: Vec<&'static Gauge>,
    histograms: Vec<&'static Histogram>,
}

static DYNAMIC: OnceLock<Mutex<DynamicRegistry>> = OnceLock::new();

fn dynamic() -> &'static Mutex<DynamicRegistry> {
    DYNAMIC.get_or_init(|| {
        Mutex::new(DynamicRegistry {
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: Vec::new(),
        })
    })
}

/// Intern a counter by name: repeated calls with the same name return
/// the same `&'static Counter`. For hot paths prefer holding the
/// reference (or use a well-known static).
pub fn counter(name: &'static str) -> &'static Counter {
    let mut reg = dynamic().lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(existing) = reg.counters.iter().find(|c| c.name == name) {
        return existing;
    }
    let leaked: &'static Counter = Box::leak(Box::new(Counter::new(name)));
    reg.counters.push(leaked);
    leaked
}

/// Intern a gauge by name (see [`counter`]).
pub fn gauge(name: &'static str) -> &'static Gauge {
    let mut reg = dynamic().lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(existing) = reg.gauges.iter().find(|g| g.name == name) {
        return existing;
    }
    let leaked: &'static Gauge = Box::leak(Box::new(Gauge::new(name)));
    reg.gauges.push(leaked);
    leaked
}

/// Intern a histogram by name (see [`counter`]).
pub fn histogram(name: &'static str) -> &'static Histogram {
    let mut reg = dynamic().lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(existing) = reg.histograms.iter().find(|h| h.name == name) {
        return existing;
    }
    let leaked: &'static Histogram = Box::leak(Box::new(Histogram::new(name)));
    reg.histograms.push(leaked);
    leaked
}

/// Intern a histogram under a runtime-built name (the name is leaked
/// once per distinct string). Used for per-span-name duration
/// histograms (`span.<name>.ns`), where the set of names is only known
/// at runtime; hot paths cache the returned reference.
pub fn histogram_owned(name: String) -> &'static Histogram {
    let mut reg = dynamic().lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(existing) = reg.histograms.iter().find(|h| h.name == name) {
        return existing;
    }
    let leaked_name: &'static str = Box::leak(name.into_boxed_str());
    let leaked: &'static Histogram = Box::leak(Box::new(Histogram::new(leaked_name)));
    reg.histograms.push(leaked);
    leaked
}

/// Intern a gauge under a runtime-built name (see [`histogram_owned`]).
/// Used for per-stage streaming queue-depth gauges
/// (`stream.stage<N>.queue_depth`), where the stage count is only known
/// when a pipeline is built; hot paths cache the returned reference.
pub fn gauge_owned(name: String) -> &'static Gauge {
    let mut reg = dynamic().lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(existing) = reg.gauges.iter().find(|g| g.name == name) {
        return existing;
    }
    let leaked_name: &'static str = Box::leak(name.into_boxed_str());
    let leaked: &'static Gauge = Box::leak(Box::new(Gauge::new(leaked_name)));
    reg.gauges.push(leaked);
    leaked
}

/// Dynamically interned counters, for report enumeration.
pub fn dynamic_counters() -> Vec<&'static Counter> {
    dynamic()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .counters
        .clone()
}

/// Dynamically interned gauges, for report enumeration.
pub fn dynamic_gauges() -> Vec<&'static Gauge> {
    dynamic()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .gauges
        .clone()
}

/// Dynamically interned histograms, for report enumeration.
pub fn dynamic_histograms() -> Vec<&'static Histogram> {
    dynamic()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .histograms
        .clone()
}

// ---------------------------------------------------------------------
// Global-pool worker counters
// ---------------------------------------------------------------------

static GLOBAL_WORKERS: OnceLock<std::sync::Arc<WorkerCounters>> = OnceLock::new();

/// Register the process-wide pool's per-worker counters so reports can
/// show utilization. First registration wins; later calls return the
/// already-registered set (the global pool is created once).
pub fn register_global_workers(counters: std::sync::Arc<WorkerCounters>) {
    let _ = GLOBAL_WORKERS.set(counters);
}

/// The process-wide pool's per-worker counters, if a pool exists yet.
pub fn global_workers() -> Option<std::sync::Arc<WorkerCounters>> {
    GLOBAL_WORKERS.get().cloned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add_up() {
        static C: Counter = Counter::new("test.counter");
        let before = C.get();
        C.incr();
        C.add(4);
        assert_eq!(C.get(), before + 5);
    }

    #[test]
    fn gauges_go_both_ways() {
        static G: Gauge = Gauge::new("test.gauge");
        G.set(0);
        G.add(10);
        G.decr();
        assert_eq!(G.get(), 9);
        G.add(-9);
        assert_eq!(G.get(), 0);
    }

    #[test]
    fn histogram_tracks_summary_stats() {
        static H: Histogram = Histogram::new("test.histogram");
        for sample in [1u64, 2, 3, 1024] {
            H.record(sample);
        }
        let snap = H.snapshot();
        assert_eq!(snap.count, 4);
        assert_eq!(snap.sum, 1030);
        assert_eq!(snap.min, 1);
        assert_eq!(snap.max, 1024);
        assert!((snap.mean() - 257.5).abs() < 1e-9);
        // 1 → bucket 0; 2,3 → bucket 1; 1024 → bucket 10.
        assert_eq!(snap.buckets[0], 1);
        assert_eq!(snap.buckets[1], 2);
        assert_eq!(snap.buckets[10], 1);
    }

    #[test]
    fn histogram_zero_sample_lands_in_bucket_zero() {
        static H: Histogram = Histogram::new("test.histogram.zero");
        H.record(0);
        let snap = H.snapshot();
        assert_eq!(snap.count, 1);
        assert_eq!(snap.buckets[0], 1);
        assert_eq!(snap.min, 0);
    }

    #[test]
    fn histogram_windows_and_percentiles_follow_samples() {
        static H: Histogram = Histogram::new("test.histogram.windowed");
        H.record(100);
        H.record(1000);
        let windowed = H.windowed(60);
        assert_eq!(windowed.count, 2, "fresh samples are in the last minute");
        assert_eq!(windowed.sum, 1100);
        let snap = H.snapshot();
        // 100 → bucket [64,128): p50 estimate is that bucket's upper
        // bound clamped into [min, max]; p100 resolves to the max.
        assert_eq!(snap.percentile(0.5), 127);
        assert_eq!(snap.percentile(1.0), 1000);
        assert_eq!(windowed.percentile(1.0), snap.percentile(1.0));
        let empty = Histogram::new("test.histogram.empty_window");
        assert_eq!(empty.windowed(60).count, 0);
        assert_eq!(empty.snapshot().percentile(0.99), 0);
    }

    #[test]
    fn owned_name_histograms_intern_by_value() {
        let a = histogram_owned("test.owned.histogram".to_string());
        let b = histogram_owned("test.owned.histogram".to_string());
        assert!(std::ptr::eq(a, b));
        a.record(5);
        assert!(b.snapshot().count >= 1);
    }

    #[test]
    fn interned_metrics_are_shared() {
        let a = counter("test.dynamic.counter");
        let b = counter("test.dynamic.counter");
        assert!(std::ptr::eq(a, b));
        a.incr();
        assert!(b.get() >= 1);
        assert!(dynamic_counters()
            .iter()
            .any(|c| c.name() == "test.dynamic.counter"));
    }

    #[test]
    fn worker_counters_snapshot_without_locks() {
        let workers = WorkerCounters::new(8);
        let a = workers.add_worker();
        let b = workers.add_worker();
        workers.incr(a);
        workers.incr(b);
        workers.incr(b);
        assert_eq!(workers.workers(), 2);
        assert_eq!(workers.snapshot(), vec![1, 2]);
        assert_eq!(workers.total(), 3);
    }

    #[test]
    fn well_known_lists_are_consistent() {
        for c in known_counters() {
            assert!(!c.name().is_empty());
        }
        let names: Vec<_> = known_counters().iter().map(|c| c.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate well-known counter");
    }
}
