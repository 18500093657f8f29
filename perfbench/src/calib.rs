//! Host-speed reference: a fixed kernel of plain Rust, independent of
//! the program under test, timed between the jobs of an untraced run.
//!
//! On a shared virtual host the speed of one instruction drifts by up to
//! 2× over minutes, wall and CPU time alike, as other tenants load the
//! machine. Every timing the untraced run reports is scaled by
//! [`NOMINAL_MS`] over the median of this kernel's timings taken in the
//! same process, interleaved with the jobs: the result is the time the
//! job would take on a host where the kernel takes [`NOMINAL_MS`]. The
//! drift cancels; a change to the program moves the job, not the kernel.
//!
//! The kernel does what the workloads do, at a small working set:
//! hashes words with the `HashMap` hasher into a counting table, maps a
//! column of °F readings to °C (streaming `f64`), and sorts a slice of
//! the corpus. It allocates nothing per timing, so it adds a fixed
//! ~0.5 MB of inputs to the process and does not move `peak_rss_mb`
//! from run to run. It runs on `nproc` threads at once, as the block
//! calls do, so a vCPU lost to another tenant slows it as it slows a
//! job.

use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// Kernel time, ms, on the reference host (the one the README's first
/// numbers were recorded on). Normalised times are in ms on that host.
pub const NOMINAL_MS: f64 = 2.5;

/// Share of the untraced run's measuring time spent timing the kernel.
pub const SHARE: f64 = 0.1;

/// Kernel timings taken before set-up, so `setup_s` has a scale even
/// for a process that runs few jobs.
pub const BEFORE_SETUP: usize = 5;

const VOCABULARY: usize = 4_096;
const WORDS: usize = 32_768;
const READINGS: usize = 32_768;
/// Counting-table slots (a power of two, over twice the vocabulary).
const SLOTS: usize = 8_192;
const SORTED: usize = 8_192;
/// Passes over each input per timing.
const PASSES: usize = 2;

struct Inputs {
    vocabulary: Vec<String>,
    corpus: Vec<u16>,
    readings: Vec<f64>,
    /// Fixed keys, so every process hashes alike.
    hasher: BuildHasherDefault<DefaultHasher>,
}

/// The kernel's inputs, the same work in every process (no seed: the
/// kernel must do the same work on every run).
fn inputs() -> &'static Inputs {
    static INPUTS: OnceLock<Inputs> = OnceLock::new();
    INPUTS.get_or_init(|| {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let vocabulary = (0..VOCABULARY).map(|i| format!("word{i}")).collect();
        let corpus = (0..WORDS)
            .map(|_| {
                // Skewed toward small ranks, like a Zipf corpus.
                let r = next();
                ((r % VOCABULARY as u64) >> (r >> 60)) as u16
            })
            .collect();
        let readings = (0..READINGS)
            .map(|_| (next() >> 11) as f64 / (1u64 << 53) as f64 * 120.0 - 20.0)
            .collect();
        Inputs {
            vocabulary,
            corpus,
            readings,
            hasher: BuildHasherDefault::default(),
        }
    })
}

fn kernel(inp: &Inputs) -> f64 {
    let mut keys = [u64::MAX; SLOTS];
    let mut counts = [0u32; SLOTS];
    let mut celsius = 0.0;
    let mut sorted = [0u16; SORTED];
    for pass in 0..PASSES {
        for &w in &inp.corpus {
            let h = inp.hasher.hash_one(&inp.vocabulary[w as usize]);
            let mut slot = h as usize & (SLOTS - 1);
            while keys[slot] != h && keys[slot] != u64::MAX {
                slot = (slot + 1) & (SLOTS - 1);
            }
            keys[slot] = h;
            counts[slot] += 1;
        }
        celsius += inp
            .readings
            .iter()
            .map(|f| (f - 32.0) * 5.0 / 9.0)
            .sum::<f64>();
        let from = pass * SORTED;
        sorted.copy_from_slice(&inp.corpus[from..from + SORTED]);
        sorted.sort_unstable();
    }
    celsius + counts.iter().max().copied().unwrap_or(0) as f64 + f64::from(sorted[SORTED / 2])
}

/// One timing of the kernel on `threads` threads at once: the mean of
/// the threads' wall times, ms.
pub fn sample(threads: usize) -> f64 {
    let inp = inputs();
    let threads = threads.max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let start = Instant::now();
                    black_box(kernel(black_box(inp)));
                    start.elapsed().as_secs_f64() * 1e3
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("kernel thread"))
            .sum::<f64>()
            / threads as f64
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_timed() {
        assert_eq!(kernel(inputs()), kernel(inputs()));
        assert!(sample(2) > 0.0);
    }
}
