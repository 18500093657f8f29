//! Fault-tolerant execution: retry policies, deadlines, and
//! deterministic fault injection.
//!
//! A browser tab running the paper's Web Workers loses workers all the
//! time — tab throttling, OOM kills, a worker script that throws. The
//! seed runtime instead treated any panicking job as fatal to the whole
//! parallel call. This module is the recovery layer:
//!
//! * [`FaultPolicy`] — how many times a panicked item is retried, with
//!   what exponential backoff, and an optional wall-clock deadline for
//!   the whole call. The default policy (`retries: 0`) reproduces the
//!   seed's behaviour exactly: one attempt, panic propagates.
//! * [`ExecError`] — what a fault-aware call reports instead of
//!   unwinding: the retry budget ran out ([`ExecError::RetriesExhausted`])
//!   or the deadline passed with work still unclaimed
//!   ([`ExecError::DeadlineExceeded`]).
//! * [`FaultInjector`] — deterministic chaos: every injection decision
//!   is a pure hash of `(seed, item, attempt)`, so a run under a fixed
//!   seed injects the same panics at the same items regardless of how
//!   the scheduler interleaves threads. Installed programmatically
//!   ([`install_injector`]) or from `SNAP_FAULT_*` environment
//!   variables, which is how the CI chaos job drives it.
//!
//! * [`attempt`] — the one panic → retry → backoff loop. The executor
//!   runs each item through it and the streaming tier each block and
//!   window; what happens to work that fails for good (the executor's
//!   error, the stream's dropped item) stays the caller's salvage policy.
//!
//! Every panicked attempt increments `pool.jobs_panicked` and exactly
//! one of `fault.retries_scheduled` / `fault.failures_final`, so a run
//! report always reconciles:
//! `jobs_panicked == retries_scheduled + failures_final`.

use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Duration;

/// Retry, backoff, and deadline budget for one parallel call.
///
/// `Default` is the zero policy — no retries, no deadline — which makes
/// fault-aware entry points behave exactly like their non-fault
/// counterparts (one attempt per item, first panic is final).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPolicy {
    /// How many times a panicked item is re-attempted (0 = one attempt).
    pub retries: u32,
    /// Base backoff slept before retry `n` as `backoff * 2^n`, capped at
    /// [`FaultPolicy::MAX_BACKOFF`]. Zero means retry immediately.
    pub backoff: Duration,
    /// Wall-clock budget for the whole call. Cooperative: workers stop
    /// claiming new work once it passes (in-flight items finish), and
    /// the call reports [`ExecError::DeadlineExceeded`].
    pub deadline: Option<Duration>,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy {
            retries: 0,
            backoff: Duration::from_millis(1),
            deadline: None,
        }
    }
}

impl FaultPolicy {
    /// Ceiling on a single backoff sleep regardless of attempt count.
    pub const MAX_BACKOFF: Duration = Duration::from_secs(1);

    /// The default policy with `retries` re-attempts per item.
    pub fn with_retries(retries: u32) -> FaultPolicy {
        FaultPolicy {
            retries,
            ..FaultPolicy::default()
        }
    }

    /// Builder: set the base backoff.
    pub fn backoff(mut self, backoff: Duration) -> FaultPolicy {
        self.backoff = backoff;
        self
    }

    /// Builder: set the wall-clock deadline.
    pub fn deadline(mut self, deadline: Duration) -> FaultPolicy {
        self.deadline = Some(deadline);
        self
    }

    /// Sleep duration before re-attempt number `attempt` (0-based):
    /// exponential doubling from the base, capped at [`Self::MAX_BACKOFF`].
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        if self.backoff.is_zero() {
            return Duration::ZERO;
        }
        let factor = 1u32 << attempt.min(16);
        self.backoff.saturating_mul(factor).min(Self::MAX_BACKOFF)
    }
}

/// Failure reported by a fault-aware parallel call. Unlike a panic, an
/// `ExecError` leaves the pool and the caller intact; the degradation
/// ladder in `snap-parallel` decides whether to fall back sequentially.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// One or more items panicked on every allowed attempt.
    RetriesExhausted {
        /// How many items ran out of attempts.
        failed_items: usize,
        /// Panic message of the last failing attempt.
        last_message: String,
    },
    /// The policy deadline passed with work still unclaimed. The items
    /// already in flight were allowed to finish (the pooled executor
    /// never abandons a borrowed-stack job), but unclaimed items were
    /// skipped, so no complete result set exists.
    DeadlineExceeded {
        /// Items that did complete before the cutoff.
        completed: usize,
        /// Total items requested.
        total: usize,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::RetriesExhausted {
                failed_items,
                last_message,
            } => write!(
                f,
                "retry budget exhausted for {failed_items} item(s); last panic: {last_message}"
            ),
            ExecError::DeadlineExceeded { completed, total } => write!(
                f,
                "deadline exceeded with {completed}/{total} items completed"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

/// Best-effort extraction of a panic payload's message (`&str` and
/// `String` payloads cover `panic!` in practice).
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run `body` under `policy`'s retry budget, injecting faults from
/// `injector` (fetched once by the caller) per `(key, attempt)`.
///
/// A panicked attempt counts `pool.jobs_panicked`, then either counts
/// `fault.retries_scheduled` and sleeps [`FaultPolicy::backoff_for`] in
/// a `fault.retry` span linked to `origin` (the span that started the
/// call, or 0), or — once the budget is spent — counts
/// `fault.failures_final` and returns the last panic message.
#[inline]
pub fn attempt<R>(
    key: u64,
    policy: &FaultPolicy,
    injector: Option<FaultInjector>,
    origin: u64,
    body: impl Fn() -> R,
) -> Result<R, String> {
    let mut tries = 0u32;
    loop {
        let result = catch_unwind(AssertUnwindSafe(|| {
            if let Some(inj) = &injector {
                inj.inject(key, tries);
            }
            body()
        }));
        let payload = match result {
            Ok(value) => return Ok(value),
            Err(payload) => payload,
        };
        snap_trace::well_known::POOL_JOBS_PANICKED.incr();
        if tries >= policy.retries {
            snap_trace::well_known::FAULT_FAILURES_FINAL.incr();
            return Err(panic_message(payload.as_ref()));
        }
        snap_trace::well_known::FAULT_RETRIES_SCHEDULED.incr();
        // The span covers the backoff wait, so a retry on a pool worker
        // shows (and is attributed to its call) in the Chrome trace.
        let _retry = snap_trace::span_linked_with("fault.retry", "item", key, origin);
        std::thread::sleep(policy.backoff_for(tries));
        tries += 1;
    }
}

/// One injector-free attempt with no retries: the salvage passes' last
/// chance. A panic is a final failure, counted as [`attempt`] counts it.
pub fn last_chance<R>(body: impl Fn() -> R) -> Result<R, String> {
    attempt(0, &FaultPolicy::default(), None, 0, body)
}

/// splitmix64 finalizer — mixes the injector seed with an item key and
/// attempt number into a uniform u64. Pure, so injection decisions are
/// independent of thread interleaving.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deterministic fault injector: decides per `(item, attempt)` whether
/// to panic or sleep, by hashing against a fixed seed. Probabilities are
/// in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultInjector {
    /// Seed shared by every decision this injector makes.
    pub seed: u64,
    /// Probability an attempt panics (before running the item).
    pub panic_p: f64,
    /// Probability an attempt is delayed by `delay` first.
    pub delay_p: f64,
    /// Injected delay duration.
    pub delay: Duration,
}

impl FaultInjector {
    /// An injector with the given seed and no faults configured.
    pub fn new(seed: u64) -> FaultInjector {
        FaultInjector {
            seed,
            panic_p: 0.0,
            delay_p: 0.0,
            delay: Duration::from_millis(1),
        }
    }

    /// Builder: probability an attempt panics.
    pub fn panic_probability(mut self, p: f64) -> FaultInjector {
        self.panic_p = p.clamp(0.0, 1.0);
        self
    }

    /// Builder: probability an attempt is delayed, and by how much.
    pub fn delay_probability(mut self, p: f64, delay: Duration) -> FaultInjector {
        self.delay_p = p.clamp(0.0, 1.0);
        self.delay = delay;
        self
    }

    /// Uniform `[0, 1)` draw for `(key, attempt, salt)` under this seed.
    fn draw(&self, key: u64, attempt: u32, salt: u64) -> f64 {
        let h = mix(self
            .seed
            .wrapping_add(mix(key.wrapping_add(salt)))
            .wrapping_add(u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        // 53 mantissa bits → exact double in [0, 1).
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Should this `(key, attempt)` panic? Deterministic per seed.
    pub fn should_panic(&self, key: u64, attempt: u32) -> bool {
        self.panic_p > 0.0 && self.draw(key, attempt, 0x70616e69) < self.panic_p
    }

    /// Should this `(key, attempt)` be delayed? Deterministic per seed.
    pub fn should_delay(&self, key: u64, attempt: u32) -> bool {
        self.delay_p > 0.0 && self.draw(key, attempt, 0x64656c61) < self.delay_p
    }

    /// Run the injection for one attempt: maybe sleep, maybe panic (in
    /// that order, so a delayed attempt can still fail). Counts what it
    /// injects.
    pub fn inject(&self, key: u64, attempt: u32) {
        if self.should_delay(key, attempt) {
            snap_trace::well_known::FAULT_INJECTED_DELAYS.incr();
            // The span makes injected stalls visible in the trace (nested
            // under the chunk that suffered them, so the parent chain
            // attributes the delay without an explicit link).
            let _delay = snap_trace::span_with("fault.injected_delay", "item", key);
            std::thread::sleep(self.delay);
        }
        if self.should_panic(key, attempt) {
            snap_trace::well_known::FAULT_INJECTED_PANICS.incr();
            panic!("injected fault: item {key} attempt {attempt}");
        }
    }

    /// Build an injector from `SNAP_FAULT_SEED` / `SNAP_FAULT_PANIC_P` /
    /// `SNAP_FAULT_DELAY_P` / `SNAP_FAULT_DELAY_MS`. `None` unless
    /// `SNAP_FAULT_SEED` is set and at least one probability is positive.
    pub fn from_env() -> Option<FaultInjector> {
        let seed: u64 = std::env::var("SNAP_FAULT_SEED").ok()?.trim().parse().ok()?;
        let parse_f = |name: &str| {
            std::env::var(name)
                .ok()
                .and_then(|v| v.trim().parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        let panic_p = parse_f("SNAP_FAULT_PANIC_P");
        let delay_p = parse_f("SNAP_FAULT_DELAY_P");
        if panic_p <= 0.0 && delay_p <= 0.0 {
            return None;
        }
        let delay_ms = std::env::var("SNAP_FAULT_DELAY_MS")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(1);
        Some(
            FaultInjector::new(seed)
                .panic_probability(panic_p)
                .delay_probability(delay_p, Duration::from_millis(delay_ms)),
        )
    }
}

/// `true` once any injector (installed or env) may be active; lets the
/// per-item hot path skip the state lock entirely in fault-free runs.
static INJECTOR_ACTIVE: AtomicBool = AtomicBool::new(false);
static INJECTOR: Mutex<Option<FaultInjector>> = Mutex::new(None);
static ENV_INIT: OnceLock<()> = OnceLock::new();

/// Install (or, with `None`, clear) the process-wide fault injector.
/// Overrides any `SNAP_FAULT_*` environment configuration.
pub fn install_injector(injector: Option<FaultInjector>) {
    ENV_INIT.get_or_init(|| ()); // claim env init so it cannot overwrite us
    *INJECTOR.lock().unwrap_or_else(PoisonError::into_inner) = injector;
    INJECTOR_ACTIVE.store(injector.is_some(), Ordering::SeqCst);
}

/// The currently active injector, if any. First call consults the
/// `SNAP_FAULT_*` environment unless [`install_injector`] ran first.
pub fn injector() -> Option<FaultInjector> {
    ENV_INIT.get_or_init(|| {
        if let Some(env) = FaultInjector::from_env() {
            *INJECTOR.lock().unwrap_or_else(PoisonError::into_inner) = Some(env);
            INJECTOR_ACTIVE.store(true, Ordering::SeqCst);
        }
    });
    if !INJECTOR_ACTIVE.load(Ordering::SeqCst) {
        return None;
    }
    *INJECTOR.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_the_seed_behaviour() {
        let policy = FaultPolicy::default();
        assert_eq!(policy.retries, 0);
        assert!(policy.deadline.is_none());
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let policy = FaultPolicy::with_retries(8).backoff(Duration::from_millis(10));
        assert_eq!(policy.backoff_for(0), Duration::from_millis(10));
        assert_eq!(policy.backoff_for(1), Duration::from_millis(20));
        assert_eq!(policy.backoff_for(2), Duration::from_millis(40));
        assert_eq!(policy.backoff_for(30), FaultPolicy::MAX_BACKOFF);
        let zero = FaultPolicy::with_retries(3).backoff(Duration::ZERO);
        assert_eq!(zero.backoff_for(5), Duration::ZERO);
    }

    #[test]
    fn injector_decisions_are_deterministic_per_seed() {
        let a = FaultInjector::new(42).panic_probability(0.2);
        let b = FaultInjector::new(42).panic_probability(0.2);
        for key in 0..1000u64 {
            assert_eq!(a.should_panic(key, 0), b.should_panic(key, 0));
            assert_eq!(a.should_panic(key, 1), b.should_panic(key, 1));
        }
    }

    #[test]
    fn injector_rate_is_near_the_configured_probability() {
        let inj = FaultInjector::new(7).panic_probability(0.2);
        let hits = (0..10_000u64).filter(|&k| inj.should_panic(k, 0)).count();
        // 10k draws at p=0.2 → ~2000 ± a few hundred.
        assert!((1600..2400).contains(&hits), "hit rate off: {hits}");
    }

    #[test]
    fn attempts_redraw_independently() {
        let inj = FaultInjector::new(3).panic_probability(0.5);
        let differs = (0..64u64).any(|k| inj.should_panic(k, 0) != inj.should_panic(k, 1));
        assert!(differs, "attempt number must vary the draw");
    }

    #[test]
    fn zero_probability_never_fires() {
        let inj = FaultInjector::new(9);
        assert!((0..100u64).all(|k| !inj.should_panic(k, 0) && !inj.should_delay(k, 0)));
    }

    #[test]
    fn panic_message_extracts_common_payloads() {
        let s: Box<dyn Any + Send> = Box::new("static str");
        assert_eq!(panic_message(s.as_ref()), "static str");
        let owned: Box<dyn Any + Send> = Box::new(String::from("owned"));
        assert_eq!(panic_message(owned.as_ref()), "owned");
        let other: Box<dyn Any + Send> = Box::new(17u32);
        assert_eq!(panic_message(other.as_ref()), "non-string panic payload");
    }

    #[test]
    fn attempt_retries_then_reports_the_last_panic() {
        use std::sync::atomic::AtomicU32;
        let calls = AtomicU32::new(0);
        let policy = FaultPolicy::with_retries(2).backoff(Duration::ZERO);
        let flaky = || {
            if calls.fetch_add(1, Ordering::SeqCst) < 2 {
                panic!("flaky");
            }
            7
        };
        assert_eq!(attempt(0, &policy, None, 0, flaky), Ok(7));
        assert_eq!(calls.load(Ordering::SeqCst), 3, "two panics, one success");
        let always = attempt(0, &policy, None, 0, || -> u8 { panic!("always") });
        assert_eq!(always, Err("always".to_string()));
    }

    #[test]
    fn attempt_injects_per_key_and_attempt() {
        // p = 1 fails every injected attempt; the budget is 1 + retries.
        let inj = FaultInjector::new(5).panic_probability(1.0);
        let policy = FaultPolicy::with_retries(1).backoff(Duration::ZERO);
        let err = attempt(42, &policy, Some(inj), 0, || ()).unwrap_err();
        assert_eq!(err, "injected fault: item 42 attempt 1");
        assert_eq!(last_chance(|| 3), Ok(3), "salvage runs injector-free");
    }

    #[test]
    fn attempt_returns_the_first_success_without_retrying() {
        use std::sync::atomic::AtomicU32;
        let calls = AtomicU32::new(0);
        let policy = FaultPolicy::with_retries(3).backoff(Duration::ZERO);
        let value = attempt(9, &policy, None, 0, || calls.fetch_add(1, Ordering::SeqCst));
        assert_eq!(value, Ok(0));
        assert_eq!(calls.load(Ordering::SeqCst), 1, "a clean body runs once");
    }

    #[test]
    fn attempt_with_no_retry_budget_fails_on_the_first_panic() {
        use std::sync::atomic::AtomicU32;
        let calls = AtomicU32::new(0);
        let result = attempt(0, &FaultPolicy::default(), None, 0, || -> u8 {
            calls.fetch_add(1, Ordering::SeqCst);
            panic!("once")
        });
        assert_eq!(result, Err("once".to_string()));
        assert_eq!(calls.load(Ordering::SeqCst), 1, "retries = 0 means one try");
    }

    #[test]
    fn attempt_reports_the_last_message_not_the_first() {
        use std::sync::atomic::AtomicU32;
        let calls = AtomicU32::new(0);
        let policy = FaultPolicy::with_retries(2).backoff(Duration::ZERO);
        let result = attempt(0, &policy, None, 0, || -> u8 {
            let n = calls.fetch_add(1, Ordering::SeqCst);
            panic!("try {n}")
        });
        assert_eq!(result, Err("try 2".to_string()));
    }

    #[test]
    fn attempt_recovers_when_an_injected_fault_clears_on_retry() {
        // Find a key whose first attempt is injected and whose retry is
        // not: one retry must then be enough to succeed.
        let inj = FaultInjector::new(11).panic_probability(0.5);
        let key = (0..1024u64)
            .find(|&k| inj.should_panic(k, 0) && !inj.should_panic(k, 1))
            .expect("p = 0.5 yields such a key");
        let no_retry = attempt(key, &FaultPolicy::default(), Some(inj), 0, || 5);
        assert!(no_retry.is_err(), "attempt 0 is injected");
        let policy = FaultPolicy::with_retries(1).backoff(Duration::ZERO);
        assert_eq!(attempt(key, &policy, Some(inj), 0, || 5), Ok(5));
    }

    #[test]
    fn last_chance_turns_a_panic_into_an_error() {
        let result = last_chance(|| -> u8 { panic!("salvage failed") });
        assert_eq!(result, Err("salvage failed".to_string()));
    }

    #[test]
    fn exec_error_displays_both_variants() {
        let r = ExecError::RetriesExhausted {
            failed_items: 3,
            last_message: "boom".into(),
        };
        assert!(r.to_string().contains("3 item(s)"));
        let d = ExecError::DeadlineExceeded {
            completed: 5,
            total: 10,
        };
        assert!(d.to_string().contains("5/10"));
    }
}
