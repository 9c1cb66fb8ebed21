//! Serving observability: the engine's admission/outcome counters,
//! per-job latency histograms, and the merged [`EngineSnapshot`] that
//! [`super::Engine::snapshot`] exports.
//!
//! The instrumentation is deliberately lightweight — fixed-size
//! log-spaced histogram buckets and relaxed atomic counters, nothing
//! allocated on the serving path — so it can stay on in production the
//! way mobile-GPU delegates keep their latency accounting on.

use crate::cache::SharedCacheStats;
use crate::context::ContextStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Locks a mutex, recovering the data from a poisoned lock instead of
/// propagating the panic. Every engine critical section stores plain
/// already-consistent values (a result slot, a stats struct, histogram
/// counts), so the data behind a lock poisoned by a panicking thread is
/// still usable — recovery turns "one worker panicked" into "that job
/// failed" instead of cascading panics out of every later `wait()` or
/// `stats()` caller.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Blocks on a condvar, recovering from poisoning like [`lock_recover`].
pub(crate) fn wait_recover<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// Number of fixed log-spaced buckets in a [`LatencyHistogram`]: bucket
/// `i` counts samples in `[2^(i-1), 2^i)` microseconds (bucket 0 is
/// `< 1 µs`), so the top bucket starts at `2^30 µs` ≈ 18 minutes —
/// far beyond any sane serving latency.
pub const LATENCY_BUCKETS: usize = 32;

/// A fixed-bucket, log-spaced latency histogram. Recording is O(1) with
/// no allocation; buckets double in width (powers of two microseconds),
/// so the same 32 buckets cover sub-microsecond queue hops and
/// multi-second convergence pipelines with bounded relative error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: [u64; LATENCY_BUCKETS],
    count: u64,
    total_micros: u64,
    max_micros: u64,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram {
            counts: [0; LATENCY_BUCKETS],
            count: 0,
            total_micros: 0,
            max_micros: 0,
        }
    }
}

fn bucket_index(micros: u64) -> usize {
    // 0 µs → bucket 0; otherwise 1 + floor(log2(µs)), clamped.
    let bits = 64 - micros.leading_zeros() as usize;
    bits.min(LATENCY_BUCKETS - 1)
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, latency: Duration) {
        let micros = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        self.counts[bucket_index(micros)] += 1;
        self.count += 1;
        self.total_micros = self.total_micros.saturating_add(micros);
        self.max_micros = self.max_micros.max(micros);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Largest recorded sample, in microseconds.
    pub fn max_micros(&self) -> u64 {
        self.max_micros
    }

    /// Mean of the recorded samples, in microseconds (0 when empty).
    pub fn mean_micros(&self) -> u64 {
        self.total_micros.checked_div(self.count).unwrap_or(0)
    }

    /// An upper bound on the `q`-quantile (0.0–1.0), in microseconds:
    /// the upper edge of the first bucket at which the cumulative count
    /// reaches `q * count` (the exact max for the final sample). Bucket
    /// resolution means the bound is within 2× of the true quantile.
    pub fn quantile_micros(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Upper edge of bucket i is 2^i µs (bucket 0 holds 0 µs);
                // never report a bound above the recorded max.
                let edge = if i == 0 { 1 } else { 1u64 << i };
                return edge.min(self.max_micros.max(1));
            }
        }
        self.max_micros
    }

    /// The raw bucket counts: `(lower_µs, upper_µs, count)` per occupied
    /// bucket, in ascending order.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.counts.iter().enumerate().filter_map(|(i, &c)| {
            if c == 0 {
                None
            } else {
                let lower = if i == 0 { 0 } else { 1u64 << (i - 1) };
                Some((lower, 1u64 << i, c))
            }
        })
    }

    /// Adds another histogram's samples into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.total_micros = self.total_micros.saturating_add(other.total_micros);
        self.max_micros = self.max_micros.max(other.max_micros);
    }

    /// One-line human-readable summary: `p50 .. p90 .. p99 .. max ..
    /// mean .. us`. Nothing parses it; structured consumers read the
    /// quantile accessors.
    pub fn format_summary(&self) -> String {
        format!(
            "p50 {} us   p90 {} us   p99 {} us   max {} us   mean {} us   samples {}",
            self.quantile_micros(0.50),
            self.quantile_micros(0.90),
            self.quantile_micros(0.99),
            self.max_micros(),
            self.mean_micros(),
            self.count(),
        )
    }
}

/// The engine's internal counter block: relaxed atomics bumped on the
/// submit path and by workers, shared with every [`super::JobHandle`] so
/// dropping an unobserved failed handle can still account for the error.
#[derive(Debug, Default)]
pub(crate) struct EngineMetrics {
    pub submitted: AtomicU64,
    pub completed: AtomicU64,
    pub failed: AtomicU64,
    pub rejected: AtomicU64,
    pub shed: AtomicU64,
    pub cancelled: AtomicU64,
    pub aborted: AtomicU64,
    pub unobserved_errors: AtomicU64,
    pub retried: AtomicU64,
    pub recovered_contexts: AtomicU64,
    pub faults_injected: AtomicU64,
    pub queue_depth_high_water: AtomicU64,
    pub queue_latency: Mutex<LatencyHistogram>,
    pub service_latency: Mutex<LatencyHistogram>,
}

impl EngineMetrics {
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub fn read(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    pub fn add(counter: &AtomicU64, delta: u64) {
        counter.fetch_add(delta, Ordering::Relaxed);
    }

    pub fn raise_high_water(&self, depth: u64) {
        self.queue_depth_high_water
            .fetch_max(depth, Ordering::Relaxed);
    }
}

/// A point-in-time view of the engine's serving health: admission and
/// outcome counters, queue depth, per-job latency distributions, and the
/// merged GL-side statistics ([`ContextStats`] over every worker,
/// [`super::ResidentStats`], and the [`SharedCacheStats`] when the cache
/// policy is shared). Obtained from [`super::Engine::snapshot`]; printed
/// by the `a12` ablation and gated in CI.
#[derive(Debug, Clone)]
pub struct EngineSnapshot {
    /// Jobs that passed validation and entered admission (accepted *or*
    /// rejected) — the left side of the balance identity below.
    pub submitted: u64,
    /// Jobs a worker finished executing (successfully or with an
    /// execution error — see [`EngineSnapshot::failed`]).
    pub completed: u64,
    /// The subset of `completed` that finished with an error.
    pub failed: u64,
    /// Submissions turned away at admission: a full queue
    /// ([`crate::ComputeError::QueueFull`]), a shut-down engine
    /// ([`crate::ComputeError::EngineShutdown`]), or a pool with no live
    /// workers ([`crate::ComputeError::EngineInternal`]).
    pub rejected: u64,
    /// Jobs shed at dequeue because their deadline had passed
    /// ([`crate::ComputeError::DeadlineExceeded`]) — never touched the GPU.
    pub shed: u64,
    /// Jobs cancelled while queued ([`crate::ComputeError::Cancelled`]).
    pub cancelled: u64,
    /// Jobs aborted un-run at shutdown or worker-pool death
    /// ([`crate::ComputeError::EngineShutdown`] /
    /// [`crate::ComputeError::EngineInternal`]).
    pub aborted: u64,
    /// Error results nobody waited for: the job's handle was dropped (or
    /// its `CompletionSet` abandoned) and the stored error discarded.
    /// Keeps failed work visible even when no caller observes it.
    pub unobserved_errors: u64,
    /// Extra execution attempts granted by the [`super::RetryPolicy`]
    /// after transient failures (context-loss replays included). Not part
    /// of the balance identity: a retried job was submitted once and is
    /// fulfilled once, however many attempts it took.
    pub retried: u64,
    /// Worker contexts torn down and rebuilt — after an injected/real
    /// context loss or a panicking job. Resident textures and per-worker
    /// pipeline caches die with the old context and repopulate lazily.
    pub recovered_contexts: u64,
    /// Driver faults injected by the workers' [`gpes_gles2::FaultPlan`]s
    /// (context losses included); `0` when no plan is installed.
    pub faults_injected: u64,
    /// Tasks sitting in the queue right now.
    pub queue_depth: u64,
    /// Deepest the queue has ever been.
    pub queue_depth_high_water: u64,
    /// The admission bound.
    pub queue_capacity: usize,
    /// Workers still serving.
    pub live_workers: usize,
    /// Time from submit to dequeue, for every dequeued job (executed,
    /// shed and cancelled alike).
    pub queue_latency: LatencyHistogram,
    /// Time from dequeue to fulfilment, for executed jobs only.
    pub service_latency: LatencyHistogram,
    /// Field-wise sum of every worker's [`ContextStats`].
    pub context: ContextStats,
    /// Field-wise sum of every worker's [`super::ResidentStats`].
    pub residents: super::ResidentStats,
    /// The process-wide program cache counters, when the engine runs the
    /// shared cache policy.
    pub shared_cache: Option<SharedCacheStats>,
    /// Per-tenant accounting (admitted / rejected / evicted / jobs /
    /// in-flight), sorted by tenant name; empty when no submission was
    /// ever tenant-tagged. Tenant-tagged rejections also count into the
    /// global `rejected`, so the balance identity is unaffected.
    pub tenants: Vec<super::TenantCounters>,
    /// Resolved shader execution mode of the worker contexts, as the
    /// compact [`gpes_gles2::ExecMode::label`] (`tree` or `spmdN`). Paired with [`ContextStats::spmd_batches`] this lets the
    /// CI gate assert the SPMD path actually ran, not just that outputs
    /// matched.
    pub exec_mode: String,
}

impl EngineSnapshot {
    /// Whether the outcome counters cover every admitted job:
    /// `submitted == completed + rejected + shed + cancelled + aborted`.
    /// Holds exactly when the engine is quiescent (no job queued or
    /// running); in-flight work makes the left side larger by the number
    /// of jobs still in the pipe. Retries do not appear in the identity:
    /// a transient failure re-runs the *same* admitted job (bumping only
    /// [`EngineSnapshot::retried`]), so a retried-then-completed job
    /// still balances exactly once.
    pub fn counters_balanced(&self) -> bool {
        self.submitted == self.completed + self.rejected + self.shed + self.cancelled + self.aborted
    }

    /// Jobs admitted but not yet fulfilled (queued or running) implied by
    /// the counters.
    pub fn in_flight(&self) -> u64 {
        self.submitted.saturating_sub(
            self.completed + self.rejected + self.shed + self.cancelled + self.aborted,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_log_spaced() {
        let mut h = LatencyHistogram::new();
        h.record(Duration::from_micros(0));
        h.record(Duration::from_micros(1));
        h.record(Duration::from_micros(3));
        h.record(Duration::from_micros(1000));
        assert_eq!(h.count(), 4);
        assert_eq!(h.max_micros(), 1000);
        let buckets: Vec<_> = h.buckets().collect();
        // 0µs → [0,1); 1µs → [1,2); 3µs → [2,4); 1000µs → [512,1024).
        assert_eq!(
            buckets,
            vec![(0, 1, 1), (1, 2, 1), (2, 4, 1), (512, 1024, 1)]
        );
    }

    #[test]
    fn histogram_quantiles_bound_the_samples() {
        let mut h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record(Duration::from_micros(100));
        }
        h.record(Duration::from_micros(5000));
        // p50/p90 land in the [64,128) bucket; p99 too (99 of 100
        // samples); the max is exact.
        assert_eq!(h.quantile_micros(0.50), 128);
        assert_eq!(h.quantile_micros(0.90), 128);
        assert_eq!(h.quantile_micros(0.99), 128);
        assert_eq!(h.quantile_micros(1.0), 5000);
        assert_eq!(h.max_micros(), 5000);
        assert_eq!(h.mean_micros(), (99 * 100 + 5000) / 100);
    }

    #[test]
    fn histogram_merge_accumulates() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(Duration::from_micros(10));
        b.record(Duration::from_micros(20));
        b.record(Duration::from_micros(40));
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max_micros(), 40);
        assert!(!a.format_summary().is_empty());
    }

    #[test]
    fn empty_histogram_is_well_defined() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile_micros(0.99), 0);
        assert_eq!(h.mean_micros(), 0);
        assert_eq!(h.buckets().count(), 0);
    }
}
