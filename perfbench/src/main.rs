//! perfbench — the paper's workloads timed end to end through the psnap
//! public API, and split layer by layer in a separate traced run.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload wordcount --seed 1 --seconds 20 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --compare A.json B.json
//! ```
//!
//! Run from the repository root. Each measuring process drives a closed
//! loop from one calling thread: the next job starts only when the
//! previous one returned. The last line of stdout is the result JSON; with `--trace 0`
//! it holds the end-to-end metrics, with `--trace 1` the per-layer ones.
//! Each run also writes its result (stamped with the host fingerprint)
//! and, when traced, its spans under `$CARGO_TARGET_DIR/perfbench/`
//! (default `target/perfbench/`). See `perfbench/README.md`.

mod calib;
mod host;
mod spans;
mod stats;
mod workloads;

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use snap_core::ast::pure::PureFn;
use snap_core::trace::{well_known as wk, Counter};
use snap_core::workers::global_pool;

use host::{json_str, Fingerprint};
use workloads::{Scale, Workload, VM_BLOCK_CALLS};

/// End-to-end metrics (untraced run): name and unit.
/// The p90 tails are printed as a note, not gated: see [`summarize`].
pub const END_TO_END: [(&str, &str); 7] = [
    ("job_ms_p50", "ms"),
    ("job_cpu_ms_p50", "ms"),
    ("items_per_s", "1/s"),
    ("window_ms_p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics (traced run): name and unit.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("data.gen_ms", "ms"),
    ("ast.compile_us", "us"),
    ("ast.compile_cache_misses", "count"),
    ("ast.batch_elems", "count"),
    ("ast.batch_fallbacks", "count"),
    ("ring_fn.map_ms", "ms"),
    ("ring_fn.reduce_ms", "ms"),
    ("ring_fn.items", "count"),
    ("pool.dispatch_us", "us"),
    ("pool.jobs_executed", "count"),
    ("pool.jobs_stolen", "count"),
    ("pool.jobs_inline", "count"),
    ("pool.worker_parks", "count"),
    ("exec.chunks_claimed", "count"),
    ("pool.speedup", "ratio"),
    ("blocks.parallel_map_ms", "ms"),
    ("blocks.map_reduce_ms", "ms"),
    ("blocks.glue_ms", "ms"),
    ("shuffle.combine_ms", "ms"),
    ("shuffle.combine_ratio", "ratio"),
    ("shuffle.group_ms", "ms"),
    ("shuffle.pairs", "count"),
    ("shuffle.parallel_runs", "count"),
    ("shuffle.seq_runs", "count"),
    ("stream.blocks", "count"),
    ("stream.windows", "count"),
    ("stream.backpressure_waits", "count"),
    ("stream.peak_queue_depth", "count"),
    ("stream.window_ms_p99", "ms"),
    ("stream.blocks_salvaged", "count"),
    ("stream.items_dropped", "count"),
    ("vm.load_us", "us"),
    ("vm.run_us", "us"),
    ("vm.frames", "count"),
    ("vm.block_calls", "count"),
    ("trace.overhead", "ratio"),
    ("trace.job_ms_mean", "ms"),
    ("unattributed_ms", "ms"),
    ("host.calib_ms", "ms"),
];

/// Program counters read before and after each traced job; the
/// per-job delta is reported under the metric name.
/// `shuffle.pairs_combined` only feeds `shuffle.combine_ratio`.
static COUNTERS: [(&str, &Counter); 19] = [
    ("ast.compile_cache_misses", &wk::COMPILE_CACHE_MISSES),
    ("ast.batch_elems", &wk::RING_BATCH_ELEMS),
    ("ast.batch_fallbacks", &wk::RING_BATCH_FALLBACKS),
    ("ring_fn.items", &wk::RING_MAP_ITEMS),
    ("pool.jobs_executed", &wk::POOL_JOBS_EXECUTED),
    ("pool.jobs_stolen", &wk::POOL_JOBS_STOLEN),
    ("pool.jobs_inline", &wk::POOL_JOBS_INLINE),
    ("pool.worker_parks", &wk::POOL_WORKER_PARKS),
    ("exec.chunks_claimed", &wk::EXEC_CHUNKS_CLAIMED),
    ("shuffle.pairs", &wk::SHUFFLE_PAIRS),
    ("shuffle.parallel_runs", &wk::SHUFFLE_PARALLEL_RUNS),
    ("shuffle.seq_runs", &wk::SHUFFLE_SEQ_RUNS),
    ("shuffle.pairs_combined", &wk::SHUFFLE_PAIRS_COMBINED),
    ("stream.blocks", &wk::STREAM_BLOCKS),
    ("stream.windows", &wk::STREAM_WINDOWS),
    ("stream.backpressure_waits", &wk::STREAM_BACKPRESSURE_WAITS),
    ("stream.blocks_salvaged", &wk::STREAM_BLOCKS_SALVAGED),
    ("stream.items_dropped", &wk::STREAM_ITEMS_DROPPED),
    ("vm.frames", &wk::VM_FRAMES),
];

/// Untraced runs measure in this many fresh processes, one after another,
/// and report the median over them. On a shared virtual host the same
/// job's median differs by up to ~20% between processes a few seconds
/// apart, following bursts of load from other tenants; the median of
/// five keeps one process caught in a burst from moving the result (see
/// [`calib`] for the slower drift of the host's speed).
pub const PROCESSES: usize = 5;

/// How long and how much one process measures.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Measured seconds (split in halves by the traced run).
    pub seconds: f64,
    /// Set-ups per process; `setup_s` is the median over all of them.
    pub setup_reps: usize,
    /// Keep measuring past `seconds` until this many jobs ran.
    pub min_jobs: usize,
    /// Hard stop for measuring, seconds since the process began.
    pub cap_s: f64,
}

impl Plan {
    /// One of the untraced run's [`PROCESSES`], measuring its share of
    /// `seconds`. Together they reach the jobs p90 needs.
    pub fn child(seconds: f64) -> Plan {
        Plan {
            seconds: seconds / PROCESSES as f64,
            setup_reps: 2,
            min_jobs: stats::min_samples(90).div_ceil(PROCESSES),
            cap_s: 35.0,
        }
    }

    /// The traced run, in a single process.
    pub fn traced(seconds: f64) -> Plan {
        Plan {
            seconds,
            setup_reps: 5,
            min_jobs: 5,
            cap_s: 120.0,
        }
    }
}

/// A finished run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Job sequences attempted (set-up, warm-up, timed and replays).
    pub attempted: u64,
    /// Of those, errored or failed their output check.
    pub failed: u64,
    /// `(name, unit, value)` in table order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Recorded spans (traced runs only).
    pub spans: Vec<spans::Span>,
    /// Human-readable notes printed before the result.
    pub notes: Vec<String>,
}

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Uncached `PureFn::compile` of each ring, median of `REPS`, summed, µs.
fn compile_us(rings: &[std::sync::Arc<snap_core::ast::Ring>]) -> f64 {
    const REPS: usize = 25;
    rings
        .iter()
        .map(|ring| {
            let times: Vec<f64> = (0..REPS)
                .map(|_| {
                    let start = Instant::now();
                    let f = PureFn::compile(ring.clone()).expect("workload ring compiles");
                    std::hint::black_box(f);
                    start.elapsed().as_secs_f64() * 1e6
                })
                .collect();
            stats::median(&stats::sorted(&times))
        })
        .sum()
}

fn within(plan: &Plan, began: Instant) -> bool {
    began.elapsed().as_secs_f64() < plan.cap_s
}

/// Set-ups repeat past `Plan::setup_reps`, up to four times as many,
/// while their total stays under this many seconds: cheap set-ups
/// (classroom's take under a millisecond) get a steadier median.
const SETUP_BUDGET_S: f64 = 0.25;

/// Unmeasured jobs between set-up and timing, so caches are warm.
const WARMUP_JOBS: usize = 2;

/// Set-up, repeated: input generation plus the first cold job. Returns
/// the last set-up workload, warmed, with each set-up's seconds and
/// generation ms.
fn set_up(
    build: &dyn Fn() -> Box<dyn Workload>,
    plan: &Plan,
    tally: &mut Tally,
) -> (Box<dyn Workload>, Vec<f64>, Vec<f64>) {
    let (mut setup_s, mut gen_ms) = (Vec::new(), Vec::new());
    let mut wl = None;
    let began = Instant::now();
    while setup_s.len() < plan.setup_reps.max(1)
        || (setup_s.len() < 4 * plan.setup_reps && began.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        drop(wl.take());
        let mut w = build();
        let workers = w.default_workers();
        let first = w.run_job(workers, false);
        tally.record(first.ok);
        gen_ms.push(w.gen_ms());
        setup_s.push((w.gen_ms() + first.job_ms) / 1e3);
        wl = Some(w);
    }
    let mut wl = wl.expect("at least one set-up");
    let workers = wl.default_workers();
    for _ in 0..WARMUP_JOBS {
        tally.record(wl.run_job(workers, false).ok);
    }
    (wl, setup_s, gen_ms)
}

/// Raw samples of untraced measurement: one process's, or several
/// processes' pooled.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Samples {
    /// Timed job wall times, ms.
    pub jobs_ms: Vec<f64>,
    /// Timed job CPU times (all threads), ms.
    pub cpu_ms: Vec<f64>,
    /// Result latencies of the timed jobs, ms.
    pub windows_ms: Vec<f64>,
    /// Set-up times, s.
    pub setup_s: Vec<f64>,
    /// Each process's `VmHWM` at its end, MB; the run reports the largest.
    pub rss_mb: Vec<f64>,
    /// Timings of the host-speed kernel ([`calib`]), ms.
    pub calib_ms: Vec<f64>,
    /// Input items the timed jobs completed.
    pub items: u64,
    /// Job sequences attempted, including set-up and warm-up.
    pub attempted: u64,
    /// Of those, errored or failed their output check.
    pub failed: u64,
}

impl Samples {
    /// One JSON line, for a child process to hand to its parent.
    pub fn to_json(&self) -> String {
        let list = |v: &[f64]| {
            let items: Vec<String> = v.iter().map(f64::to_string).collect();
            format!("[{}]", items.join(","))
        };
        format!(
            r#"{{"jobs_ms":{},"cpu_ms":{},"windows_ms":{},"setup_s":{},"rss_mb":{},"calib_ms":{},"items":{},"attempted":{},"failed":{}}}"#,
            list(&self.jobs_ms),
            list(&self.cpu_ms),
            list(&self.windows_ms),
            list(&self.setup_s),
            list(&self.rss_mb),
            list(&self.calib_ms),
            self.items,
            self.attempted,
            self.failed
        )
    }

    /// Parse [`Samples::to_json`] output.
    pub fn from_json(text: &str) -> Option<Samples> {
        let v = serde::json::parse(text).ok()?;
        let obj = v.as_object()?;
        let num = |x: &serde::json::Value| match x {
            serde::json::Value::Number(n) => Some(n.as_f64()),
            _ => None,
        };
        let list = |k: &str| match obj.get(k)? {
            serde::json::Value::Array(items) => items.iter().map(num).collect(),
            _ => None,
        };
        let count = |k: &str| num(obj.get(k)?).map(|x| x as u64);
        Some(Samples {
            jobs_ms: list("jobs_ms")?,
            cpu_ms: list("cpu_ms")?,
            windows_ms: list("windows_ms")?,
            setup_s: list("setup_s")?,
            rss_mb: list("rss_mb")?,
            calib_ms: list("calib_ms")?,
            items: count("items")?,
            attempted: count("attempted")?,
            failed: count("failed")?,
        })
    }

    /// Host-speed scale of these samples: [`calib::NOMINAL_MS`] over the
    /// median kernel time; 1 without kernel timings.
    pub fn scale(&self) -> f64 {
        if self.calib_ms.is_empty() {
            1.0
        } else {
            calib::NOMINAL_MS / stats::median(&stats::sorted(&self.calib_ms))
        }
    }

    /// These samples with every time scaled to the reference host (see
    /// [`calib`]).
    pub fn normalized(&self) -> Samples {
        let k = self.scale();
        let scaled = |v: &[f64]| v.iter().map(|x| x * k).collect();
        Samples {
            jobs_ms: scaled(&self.jobs_ms),
            cpu_ms: scaled(&self.cpu_ms),
            windows_ms: scaled(&self.windows_ms),
            setup_s: scaled(&self.setup_s),
            calib_ms: scaled(&self.calib_ms),
            ..self.clone()
        }
    }

    /// Pool `other` into `self`.
    pub fn absorb(&mut self, other: Samples) {
        self.jobs_ms.extend(other.jobs_ms);
        self.cpu_ms.extend(other.cpu_ms);
        self.windows_ms.extend(other.windows_ms);
        self.setup_s.extend(other.setup_s);
        self.rss_mb.extend(other.rss_mb);
        self.calib_ms.extend(other.calib_ms);
        self.items += other.items;
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Untraced measurement in this process.
pub fn measure(build: &dyn Fn() -> Box<dyn Workload>, plan: &Plan) -> Samples {
    let began = Instant::now();
    let mut tally = Tally::default();
    spans::set_enabled(false);
    let nproc = snap_core::workers::default_workers();
    let mut calib_ms: Vec<f64> = (0..calib::BEFORE_SETUP)
        .map(|_| calib::sample(nproc))
        .collect();
    let (mut wl, setup_s, _) = set_up(build, plan, &mut tally);
    let workers = wl.default_workers();
    let (mut jobs_ms, mut cpu_ms, mut windows_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut calib_total = 0.0;
    let start = Instant::now();
    loop {
        let o = wl.run_job(workers, false);
        tally.record(o.ok);
        jobs_ms.push(o.job_ms);
        cpu_ms.push(o.cpu_ms);
        windows_ms.extend(o.windows_ms);
        // Time the kernel in step with the jobs, so both see the same
        // host speed.
        while calib_total < calib::SHARE * start.elapsed().as_secs_f64() * 1e3 {
            let ms = calib::sample(nproc);
            calib_total += ms;
            calib_ms.push(ms);
        }
        let done = start.elapsed().as_secs_f64() >= plan.seconds && jobs_ms.len() >= plan.min_jobs;
        if done || !within(plan, began) {
            break;
        }
    }
    Samples {
        items: (wl.items_per_job() * jobs_ms.len()) as u64,
        jobs_ms,
        cpu_ms,
        windows_ms,
        setup_s,
        rss_mb: vec![peak_rss_mb()],
        calib_ms,
        attempted: tally.attempted,
        failed: tally.failed,
    }
}

/// Percentile `pct` of one sample series: the median over processes of
/// each process's percentile when every process alone has the samples
/// to support it (see [`stats::tail_supported`]), else the percentile of
/// the pooled samples.
fn robust_pct(parts: &[Samples], series: fn(&Samples) -> &[f64], pct: u32) -> f64 {
    if parts
        .iter()
        .all(|p| stats::tail_supported(series(p).len(), pct))
    {
        let per: Vec<f64> = parts
            .iter()
            .map(|p| stats::percentile(&stats::sorted(series(p)), pct))
            .collect();
        stats::median(&stats::sorted(&per))
    } else {
        let pooled: Vec<f64> = parts
            .iter()
            .flat_map(|p| series(p).iter().copied())
            .collect();
        stats::percentile(&stats::sorted(&pooled), pct)
    }
}

/// The end-to-end metrics of the untraced run's processes. Each per-job
/// metric is the median over processes of that process's value; a tail
/// one process cannot support (a batch workload runs ~20 jobs per
/// process) comes from the pooled samples instead. Peak RSS is the
/// largest process's: heap growth differs between processes by ~8% on
/// wordcount, and the maximum is the steadier reading of the run's peak.
/// Every time is first scaled to the reference host, per process.
///
/// The p90 tails of jobs and windows go into a note, not the metrics: on
/// a shared host, episodes of other tenants' load lasting minutes lift
/// the p90 of climate and stream by 40–100% while their medians hold,
/// and the host-speed scaling cannot take that out.
pub fn summarize(raw: &[Samples]) -> Report {
    let parts: Vec<Samples> = raw.iter().map(Samples::normalized).collect();
    let parts = parts.as_slice();
    let mut pooled = Samples::default();
    for part in parts {
        pooled.absorb(part.clone());
    }
    let (n_jobs, n_windows) = (pooled.jobs_ms.len(), pooled.windows_ms.len());
    let scales: Vec<String> = raw.iter().map(|p| format!("{:.3}", p.scale())).collect();
    let mut notes = vec![
        format!(
            "{} processes, {n_jobs} jobs, {n_windows} windows",
            parts.len()
        ),
        format!(
            "host speed: times scaled per process by {} (reference kernel {} ms / its median here)",
            scales.join(", "),
            calib::NOMINAL_MS
        ),
    ];
    notes.push(format!(
        "tails (not gated): job_ms_p90 {:.4} ms, window_ms_p90 {:.4} ms{}",
        robust_pct(parts, |p| &p.jobs_ms, 90),
        robust_pct(parts, |p| &p.windows_ms, 90),
        if stats::tail_supported(n_jobs, 90) && stats::tail_supported(n_windows, 90) {
            ""
        } else {
            "; p90 NOT supported: fewer than 10 samples beyond it"
        }
    ));
    let median_of = |per: Vec<f64>| stats::median(&stats::sorted(&per));
    let throughput = |p: &Samples| p.items as f64 / (p.jobs_ms.iter().sum::<f64>() / 1e3);
    let values = [
        robust_pct(parts, |p| &p.jobs_ms, 50),
        robust_pct(parts, |p| &p.cpu_ms, 50),
        median_of(parts.iter().map(throughput).collect()),
        robust_pct(parts, |p| &p.windows_ms, 50),
        median_of(pooled.setup_s.clone()),
        // The run's high-water mark: the largest process's.
        pooled.rss_mb.iter().copied().fold(0.0, f64::max),
        1.0 - pooled.failed as f64 / pooled.attempted.max(1) as f64,
    ];
    Report {
        attempted: pooled.attempted,
        failed: pooled.failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect(),
        spans: Vec::new(),
        notes,
    }
}

/// The untraced run: [`PROCESSES`] child processes of this binary, one
/// after another, each measuring its share of `seconds`.
fn measure_in_children(workload: &str, seed: u64, seconds: f64) -> Result<Vec<Samples>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut parts = Vec::new();
    for _ in 0..PROCESSES {
        let out = std::process::Command::new(&exe)
            .args(["--child", "--workload", workload])
            .args([
                "--seed",
                &seed.to_string(),
                "--seconds",
                &seconds.to_string(),
            ])
            .args(["--trace", "0"])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("child process: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let samples = text
            .lines()
            .last()
            .and_then(Samples::from_json)
            .filter(|_| out.status.success())
            .ok_or_else(|| format!("child process failed ({})", out.status))?;
        parts.push(samples);
    }
    Ok(parts)
}

/// The traced run: per-layer metrics, in this process.
pub fn traced(build: &dyn Fn() -> Box<dyn Workload>, plan: &Plan) -> Report {
    let began = Instant::now();
    let mut tally = Tally::default();
    let mut notes = Vec::new();
    spans::set_enabled(false);
    let (mut wl, _, gen_ms) = set_up(build, plan, &mut tally);
    let gen = stats::median(&stats::sorted(&gen_ms));
    let compile = compile_us(&wl.rings());
    let nproc = snap_core::workers::default_workers();
    let calib: Vec<f64> = (0..CALIB_SAMPLES).map(|_| calib::sample(nproc)).collect();
    let calib_ms = stats::median(&stats::sorted(&calib));
    notes.push(format!(
        "host speed: reference kernel {calib_ms:.3} ms here, {} ms on the reference host; \
         per-layer times are NOT scaled",
        calib::NOMINAL_MS
    ));
    let (metrics, spans) = traced_run(
        wl.as_mut(),
        plan,
        began,
        &mut tally,
        gen,
        compile,
        calib_ms,
        &mut notes,
    );
    Report {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        spans,
        notes,
    }
}

/// Host-speed kernel timings at the start of a traced run.
const CALIB_SAMPLES: usize = 40;

/// Phase A of the traced run stops here even before half its time: the
/// per-layer means are steady long before, and the span file stays small.
const MAX_TRACED_JOBS: usize = 2000;

fn read_counters() -> [u64; COUNTERS.len()] {
    std::array::from_fn(|i| COUNTERS[i].1.get())
}

#[allow(clippy::too_many_arguments)]
fn traced_run(
    wl: &mut dyn Workload,
    plan: &Plan,
    began: Instant,
    tally: &mut Tally,
    gen_ms: f64,
    compile_us: f64,
    calib_ms: f64,
    notes: &mut Vec<String>,
) -> (Vec<(&'static str, &'static str, f64)>, Vec<spans::Span>) {
    let nproc = snap_core::workers::default_workers();
    let workers = wl.default_workers();
    let half = plan.seconds / 2.0;

    // Phase A: traced jobs, each followed by its phase-by-phase replay.
    let mut deltas = [0u64; COUNTERS.len()];
    let (mut traced_ms, mut dispatch_us, mut peaks) = (Vec::new(), Vec::new(), Vec::new());
    let mut block_calls = 0;
    spans::set_enabled(true);
    let start = Instant::now();
    let enough = |n: usize| {
        (start.elapsed().as_secs_f64() >= half || n >= MAX_TRACED_JOBS) && n >= plan.min_jobs
    };
    while !enough(traced_ms.len()) && within(plan, began) {
        let t = Instant::now();
        global_pool().scatter_gather(nproc, |_| {});
        dispatch_us.push(t.elapsed().as_secs_f64() * 1e6);

        let (before, calls) = (
            read_counters(),
            VM_BLOCK_CALLS.load(std::sync::atomic::Ordering::Relaxed),
        );
        let o = wl.run_job(workers, true);
        let after = read_counters();
        block_calls += VM_BLOCK_CALLS.load(std::sync::atomic::Ordering::Relaxed) - calls;
        for (d, (a, b)) in deltas.iter_mut().zip(after.iter().zip(before)) {
            *d += a - b;
        }
        tally.record(o.ok);
        traced_ms.push(o.job_ms);
        peaks.extend(o.peak_queue.map(|p| p as f64));
        if let Some(ok) = wl.replay(workers) {
            tally.record(ok);
        }
    }
    spans::set_enabled(false);

    // Phase B: untraced jobs alternating the workload's worker count and
    // the other end of the 1..nproc sweep.
    let other = if workers == 1 { nproc } else { 1 };
    let (mut base_ms, mut other_ms, mut base_windows) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while (start.elapsed().as_secs_f64() < half || base_ms.len() < plan.min_jobs)
        && within(plan, began)
    {
        let o = wl.run_job(workers, false);
        tally.record(o.ok);
        base_ms.push(o.job_ms);
        base_windows.extend(o.windows_ms);
        let o = wl.run_job(other, false);
        tally.record(o.ok);
        other_ms.push(o.job_ms);
    }
    let p50 = |v: &[f64]| stats::median(&stats::sorted(v));
    let (p50_base, p50_other) = (p50(&base_ms), p50(&other_ms));
    let (at_1, at_n) = if workers == 1 {
        (p50_base, p50_other)
    } else {
        (p50_other, p50_base)
    };
    notes.push(format!(
        "pool.speedup: job_ms_p50 {at_1:.3} ms at 1 worker, {at_n:.3} ms at {nproc} workers ({} jobs each){}",
        base_ms.len(),
        if at_1 < at_n { " -- parallel LOSES here" } else { "" }
    ));

    // Layer times from the spans, per traced job.
    let recorded = spans::take();
    let mut total_ns: HashMap<&str, u64> = HashMap::new();
    let (mut n_jobs, mut job_self_ns) = (0u64, 0u64);
    for (s, self_ns) in recorded.iter().zip(spans::self_times(&recorded)) {
        *total_ns.entry(s.name).or_default() += s.duration();
        if s.name == "job" {
            n_jobs += 1;
            job_self_ns += self_ns;
        }
    }
    let n = n_jobs.max(1) as f64;
    let per_job_ms = |name: &str| total_ns.get(name).copied().unwrap_or(0) as f64 / n / 1e6;
    let replayed = total_ns.contains_key("replay");
    let phases_ms: f64 = [
        "ring_fn.map",
        "shuffle.combine",
        "shuffle.group",
        "ring_fn.reduce",
    ]
    .iter()
    .map(|p| per_job_ms(p))
    .sum();
    let glue_ms = if replayed {
        per_job_ms("blocks.map_reduce") - phases_ms
    } else {
        0.0
    };
    let unattributed_ms = job_self_ns as f64 / n / 1e6;
    if replayed {
        let layers = per_job_ms("blocks.parallel_map") + phases_ms + glue_ms + unattributed_ms;
        notes.push(format!(
            "layers add up: parallel_map + map + combine + group + reduce + glue + unattributed \
             = {layers:.4} ms; traced job wall mean = {:.4} ms",
            per_job_ms("job")
        ));
    }
    let delta = |name: &str| {
        let i = COUNTERS
            .iter()
            .position(|(c, _)| *c == name)
            .expect("known counter");
        deltas[i] as f64 / n
    };
    let value = |name: &str| -> f64 {
        match name {
            "data.gen_ms" => gen_ms,
            "ast.compile_us" => compile_us,
            "ring_fn.map_ms" => per_job_ms("ring_fn.map"),
            "ring_fn.reduce_ms" => per_job_ms("ring_fn.reduce"),
            "pool.dispatch_us" => p50(&dispatch_us),
            "pool.speedup" => at_1 / at_n,
            "blocks.parallel_map_ms" => per_job_ms("blocks.parallel_map"),
            "blocks.map_reduce_ms" => per_job_ms("blocks.map_reduce"),
            "blocks.glue_ms" => glue_ms,
            "shuffle.combine_ms" => per_job_ms("shuffle.combine"),
            "shuffle.combine_ratio" => {
                let pairs_in = delta("shuffle.pairs") + delta("shuffle.pairs_combined");
                if pairs_in > 0.0 {
                    delta("shuffle.pairs") / pairs_in
                } else {
                    1.0
                }
            }
            "shuffle.group_ms" => per_job_ms("shuffle.group"),
            "stream.peak_queue_depth" => stats::mean(&peaks),
            // Untraced stream windows; p99 is only reported where at
            // least ten windows lie beyond it.
            "stream.window_ms_p99"
                if !peaks.is_empty() && stats::tail_supported(base_windows.len(), 99) =>
            {
                stats::percentile(&stats::sorted(&base_windows), 99)
            }
            "stream.window_ms_p99" => 0.0,
            "vm.load_us" => per_job_ms("vm.load") * 1e3,
            "vm.run_us" => per_job_ms("vm.run") * 1e3,
            "vm.block_calls" => block_calls as f64 / n,
            "trace.overhead" => p50(&traced_ms) / p50_base,
            "trace.job_ms_mean" => per_job_ms("job"),
            "unattributed_ms" => unattributed_ms,
            "host.calib_ms" => calib_ms,
            counter => delta(counter),
        }
    };
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, unit, value(name)))
        .collect();
    (metrics, recorded)
}

/// The result JSON line: the last line of stdout.
pub fn result_json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, unit, v)| format!(r#""{name}": {{"value": {v}, "unit": "{unit}"}}"#))
        .collect();
    format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        report.failed == 0 && report.metrics.iter().all(|(_, _, v)| v.is_finite()),
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

/// Where result and span files go: `$CARGO_TARGET_DIR/perfbench`, else
/// `target/perfbench`, relative to the working directory.
fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("perfbench")
}

/// Save the stamped result (and spans) for later `--compare`.
fn save(
    report: &Report,
    fp: &Fingerprint,
    workload: &str,
    traced: bool,
) -> std::io::Result<PathBuf> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let stem = format!("{workload}-seed{}-trace{}", fp.seed, u8::from(traced));
    if traced {
        std::fs::write(
            dir.join(format!("{stem}.spans.jsonl")),
            spans::to_jsonl(&report.spans),
        )?;
    }
    let path = dir.join(format!("{stem}.json"));
    let record = format!(
        "{{\"workload\": {}, \"fingerprint\": {}, \"result\": {}}}\n",
        json_str(workload),
        fp.to_json(),
        result_json(report)
    );
    std::fs::write(&path, record)?;
    Ok(path)
}

/// `--compare A B`: metric ratios, or "not comparable" when the host
/// fingerprints differ.
fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let load = |p: &Path| -> Result<(Fingerprint, serde::json::Value), String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        let v = serde::json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))?;
        let obj = v.as_object().ok_or("result is not an object")?;
        let fp = obj
            .get("fingerprint")
            .and_then(Fingerprint::from_json)
            .ok_or_else(|| format!("{}: no fingerprint", p.display()))?;
        let metrics = obj
            .get("result")
            .and_then(|r| r.as_object())
            .and_then(|r| r.get("metrics"))
            .cloned()
            .ok_or_else(|| format!("{}: no metrics", p.display()))?;
        Ok((fp, metrics))
    };
    let ((fa, ma), (fb, mb)) = (load(a)?, load(b)?);
    let value = |m: &serde::json::Value, name: &str| match m
        .as_object()?
        .get(name)?
        .as_object()?
        .get("value")?
    {
        serde::json::Value::Number(n) => Some(n.as_f64()),
        _ => None,
    };
    for ((name, va), (_, vb)) in fa.fields().into_iter().zip(fb.fields()) {
        let mark = if va == vb { " " } else { "*" };
        println!("{mark} {name:<10} {va} | {vb}");
    }
    if let Some(obj) = ma.as_object() {
        for (name, _) in obj.iter() {
            if let (Some(x), Some(y)) = (value(&ma, name), value(&mb, name)) {
                println!("  {name:<28} {x:>14.4} {y:>14.4}  x{:.3}", y / x);
            }
        }
    }
    let differ = fa.host_differences(&fb);
    if differ.is_empty() {
        println!("comparable: same host fingerprint");
        Ok(true)
    } else {
        println!(
            "NOT COMPARABLE: host fingerprints differ in {}",
            differ.join(", ")
        );
        Ok(false)
    }
}

const USAGE: &str = "usage: perfbench --workload <wordcount|climate|stream|classroom> \
--seed <n> --seconds <s> --trace <0|1>\n       perfbench --compare <result.json> <result.json>";

/// Run as one of the untraced run's child processes: measure, print the
/// raw samples as the last line.
fn child_main(args: &Args) -> ExitCode {
    let build = || workloads::build(&args.workload, args.seed, Scale::Full).expect("checked name");
    println!("{}", measure(&build, &Plan::child(args.seconds)).to_json());
    ExitCode::SUCCESS
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !workloads::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(Args {
        workload,
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--compare") {
        return match argv.get(1..3) {
            Some([a, b]) => match compare(Path::new(a), Path::new(b)) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::from(3),
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::from(2)
                }
            },
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if argv.iter().any(|a| a == "--child") {
        return child_main(&args);
    }
    let root = std::env::current_dir().expect("working directory is readable");
    let fp = Fingerprint::collect(&root, args.seed);
    println!("fingerprint {}", fp.to_json());
    let (name, seed) = (args.workload.as_str(), args.seed);
    let report = if args.trace {
        let build = || workloads::build(name, seed, Scale::Full).expect("checked name");
        traced(&build, &Plan::traced(args.seconds))
    } else {
        match measure_in_children(name, seed, args.seconds) {
            Ok(parts) => summarize(&parts),
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    };

    let mut table = String::new();
    for note in &report.notes {
        let _ = writeln!(table, "note: {note}");
    }
    for (metric, unit, v) in &report.metrics {
        let _ = writeln!(table, "{metric:<28} {v:>16.4} {unit}");
    }
    let _ = writeln!(
        table,
        "jobs attempted {} failed {} (fail_frac {:.6})",
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted as f64
    );
    print!("{table}");
    match save(&report, &fp, name, args.trace) {
        Ok(path) => println!("saved {}", path.display()),
        Err(e) => eprintln!("perfbench: could not save the result: {e}"),
    }
    println!("{}", result_json(&report));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(seconds: f64) -> Plan {
        Plan {
            seconds,
            setup_reps: 2,
            min_jobs: 1,
            cap_s: 30.0,
        }
    }

    fn run_in_process(build: &dyn Fn() -> Box<dyn Workload>, plan: &Plan, trace: bool) -> Report {
        if trace {
            traced(build, plan)
        } else {
            summarize(&[measure(build, plan)])
        }
    }

    #[test]
    fn one_window_per_job_reports_job_percentiles() {
        let one_per_job = Samples {
            jobs_ms: (1..=120).map(f64::from).collect(),
            cpu_ms: vec![1.0; 120],
            windows_ms: (1..=120).map(f64::from).collect(),
            setup_s: vec![1.0],
            rss_mb: vec![1.0],
            calib_ms: Vec::new(),
            items: 120,
            attempted: 120,
            failed: 0,
        };
        let report = summarize(&[one_per_job]);
        let value = |name: &str| report.metrics.iter().find(|m| m.0 == name).unwrap().2;
        assert_eq!(value("job_ms_p50"), 60.0);
        assert_eq!(value("window_ms_p50"), 60.0);
        assert!(report.notes.contains(
            &"tails (not gated): job_ms_p90 108.0000 ms, window_ms_p90 108.0000 ms".into()
        ));
    }

    #[test]
    fn samples_round_trip_and_pool() {
        let a = Samples {
            jobs_ms: vec![1.5, 2.25],
            cpu_ms: vec![3.0, 4.5],
            windows_ms: vec![0.125],
            setup_s: vec![0.5],
            rss_mb: vec![10.0],
            calib_ms: vec![calib::NOMINAL_MS],
            items: 4,
            attempted: 3,
            failed: 1,
        };
        assert_eq!(Samples::from_json(&a.to_json()), Some(a.clone()));
        let mut pooled = a.clone();
        pooled.absorb(a);
        assert_eq!(pooled.jobs_ms, vec![1.5, 2.25, 1.5, 2.25]);
        assert_eq!((pooled.items, pooled.attempted, pooled.failed), (8, 6, 2));
        let report = summarize(&[pooled.clone(), pooled]);
        let ok_frac = report.metrics.iter().find(|m| m.0 == "ok_frac").unwrap().2;
        assert!((ok_frac - 2.0 / 3.0).abs() < 1e-12);
        assert!(Samples::from_json("{}").is_none());
    }

    #[test]
    fn one_slow_process_does_not_move_the_median() {
        let part = |scale: f64| Samples {
            jobs_ms: (1..=100).map(|i| f64::from(i) * scale).collect(),
            cpu_ms: vec![1.0; 100],
            windows_ms: vec![1.0; 100],
            setup_s: vec![1.0],
            rss_mb: vec![1.0],
            calib_ms: Vec::new(),
            items: 100,
            attempted: 100,
            failed: 0,
        };
        let parts = [part(1.0), part(1.0), part(10.0), part(1.0), part(1.0)];
        assert_eq!(robust_pct(&parts, |p| &p.jobs_ms, 50), 50.0);
        assert_eq!(robust_pct(&parts, |p| &p.jobs_ms, 90), 90.0);
        // No process alone supports p99: it comes from the 500 pooled
        // samples, whose top 90 are the slow process's 110..=1000.
        assert_eq!(robust_pct(&parts, |p| &p.jobs_ms, 99), 950.0);
    }

    #[test]
    fn a_slower_host_scales_back_to_the_same_metrics() {
        let at = |slow: f64| Samples {
            jobs_ms: (1..=120).map(|i| f64::from(i) * slow).collect(),
            cpu_ms: vec![2.0 * slow; 120],
            windows_ms: vec![0.5 * slow; 120],
            setup_s: vec![0.25 * slow; 3],
            rss_mb: vec![7.0],
            calib_ms: vec![1.0 * slow, 3.0 * slow, 2.0 * slow],
            items: 120,
            attempted: 123,
            failed: 0,
        };
        let (fast, slow) = (summarize(&[at(1.0)]), summarize(&[at(2.0)]));
        for ((name, _, a), (_, _, b)) in fast.metrics.iter().zip(&slow.metrics) {
            assert!((a - b).abs() <= 1e-9 * a.abs(), "{name}: {a} vs {b}");
        }
        let value = |name: &str| fast.metrics.iter().find(|m| m.0 == name).unwrap().2;
        // Kernel median 2 ms against the nominal: times scale by NOMINAL / 2.
        let k = calib::NOMINAL_MS / 2.0;
        assert_eq!(value("job_ms_p50"), 60.0 * k);
        assert_eq!(value("setup_s"), 0.25 * k);
        assert_eq!(value("peak_rss_mb"), 7.0);
    }

    fn small(name: &'static str) -> impl Fn() -> Box<dyn Workload> {
        move || workloads::build(name, 3, Scale::Small).expect("known workload")
    }

    /// `(name, unit)` of every metric listed under `key` in BENCHMARK.json.
    fn declared(key: &str) -> Vec<(String, String)> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let v = serde::json::parse(&text).expect("BENCHMARK.json parses");
        let serde::json::Value::Array(list) = v.as_object().unwrap().get(key).unwrap().clone()
        else {
            panic!("{key} is not a list");
        };
        list.iter()
            .map(|m| {
                let m = m.as_object().unwrap();
                let s = |k: &str| m.get(k).and_then(|x| x.as_str()).unwrap().to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    fn names_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn emitted_names_match_benchmark_json() {
        let as_owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(as_owned(&END_TO_END), declared("end_to_end"));
        assert_eq!(as_owned(&PER_LAYER), declared("per_layer"));
        for (name, _) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(names_ok(name), "bad metric name {name}");
        }
        let workloads: Vec<String> = {
            let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
            let v = serde::json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
            let serde::json::Value::Array(list) =
                v.as_object().unwrap().get("workloads").unwrap().clone()
            else {
                panic!("workloads is not a list");
            };
            list.iter()
                .map(|w| {
                    w.as_object()
                        .unwrap()
                        .get("name")
                        .unwrap()
                        .as_str()
                        .unwrap()
                        .to_string()
                })
                .collect()
        };
        assert_eq!(workloads, workloads::WORKLOADS);
    }

    #[test]
    fn every_run_emits_exactly_the_declared_metrics() {
        for name in workloads::WORKLOADS {
            for traced in [false, true] {
                let report = run_in_process(&small(name), &tiny(0.05), traced);
                assert_eq!(report.failed, 0, "{name} failed a check");
                let emitted: Vec<&str> = report.metrics.iter().map(|m| m.0).collect();
                let table = if traced {
                    &PER_LAYER[..]
                } else {
                    &END_TO_END[..]
                };
                let expected: Vec<&str> = table.iter().map(|m| m.0).collect();
                assert_eq!(emitted, expected);
                assert!(
                    report.metrics.iter().all(|m| m.2.is_finite()),
                    "{name}: {report:?}"
                );
                let line = result_json(&report);
                let v = serde::json::parse(&line).unwrap();
                assert!(v.as_object().unwrap().get("metrics").is_some());
                assert!(line.starts_with(r#"{"correct": true, "attempted": "#));
            }
        }
    }

    #[test]
    fn unattributed_is_never_negative_and_layers_add_up() {
        let value = |r: &Report, name: &str| r.metrics.iter().find(|m| m.0 == name).unwrap().2;
        for name in ["wordcount", "climate", "stream", "classroom"] {
            let report = traced(&small(name), &tiny(0.1));
            let unattributed = value(&report, "unattributed_ms");
            // Clock resolution: one nanosecond, in ms.
            assert!(unattributed >= -1e-6, "{name}: {unattributed}");
            for s in spans::self_times(&report.spans) {
                assert!(s < u64::MAX / 2, "{name}: self time wrapped");
            }
            if name == "wordcount" || name == "climate" {
                let layers: f64 = [
                    "blocks.parallel_map_ms",
                    "ring_fn.map_ms",
                    "shuffle.combine_ms",
                    "shuffle.group_ms",
                    "ring_fn.reduce_ms",
                    "blocks.glue_ms",
                    "unattributed_ms",
                ]
                .iter()
                .map(|m| value(&report, m))
                .sum();
                let wall = value(&report, "trace.job_ms_mean");
                assert!(
                    (layers - wall).abs() <= 1e-6 * wall.max(1.0),
                    "{name}: {layers} vs {wall}"
                );
            }
        }
    }

    #[test]
    fn wrong_output_counts_as_failed() {
        let build = || workloads::wordcount_with_wrong_oracle(3);
        for traced in [false, true] {
            let report = run_in_process(&build, &tiny(0.05), traced);
            assert!(report.attempted > 0);
            assert_eq!(
                report.failed, report.attempted,
                "every job sees the wrong oracle"
            );
            assert!(result_json(&report).starts_with(r#"{"correct": false"#));
            if !traced {
                let ok_frac = report.metrics.iter().find(|m| m.0 == "ok_frac").unwrap().2;
                assert_eq!(ok_frac, 0.0);
            }
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        let ok = parse_args(&args("--workload stream --seed 4 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (ok.workload.as_str(), ok.seed, ok.seconds, ok.trace),
            ("stream", 4, 10.0, true)
        );
        assert!(parse_args(&args("--workload nope --seed 4 --seconds 10 --trace 1")).is_err());
        assert!(parse_args(&args("--workload stream --seed 4 --seconds 10 --trace 2")).is_err());
        assert!(parse_args(&args("--workload stream --seconds 10 --trace 0")).is_err());
    }
}
