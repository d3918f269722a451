//! Deterministic data-parallel execution for the workspace's sweeps.
//!
//! Every design-space exploration in the paper — the Fig 8 cost surface
//! over `(λ × N_tr)`, the Scenario #1/#2 trend sweeps, the set-partition
//! search, and the fab-line Monte Carlo — is embarrassingly parallel:
//! grid cells and candidates are independent. This crate provides the
//! one sanctioned way to exploit that (a workspace lint forbids raw
//! `std::thread::spawn` elsewhere):
//!
//! * [`Executor`] — a scoped-thread pool-of-the-moment with chunked
//!   work distribution ([`Executor::map`], [`Executor::map_indexed`],
//!   [`Executor::grid`]).
//!
//! # Determinism contract
//!
//! Results are **bit-identical** to the serial path at every thread
//! count: work items are pure functions of their index and outputs are
//! collected in index order. The only thing threads change is wall-clock
//! time. The workspace's golden tests (`cost-optim/tests/determinism.rs`)
//! enforce this for the Fig 8 surface, contour extraction, and the
//! partition search.
//!
//! # Configuration
//!
//! `MALY_PAR_THREADS` sets the thread count (default: the machine's
//! available parallelism; `1` forces the serial fallback, which runs the
//! closures inline on the caller's stack with no thread machinery at
//! all). Code that needs a specific count regardless of the environment
//! — tests, benchmarks — uses [`Executor::with_threads`].
//!
//! # Overhead awareness
//!
//! Spawning a scoped thread costs real time (tens of microseconds), so
//! a parallel sweep over a small grid can be *slower* than the serial
//! loop — the PR-2 baseline recorded 0.42–0.77× "speedups" on a 1-core
//! container. Sweep call sites therefore pass a per-item cost hint
//! through [`Executor::tuned_for`], which applies a calibrated
//! sequential cutoff ([`SEQUENTIAL_CUTOFF_NS`]) and a minimum per-thread
//! grain ([`MIN_PARALLEL_GRAIN_NS`]), and never oversubscribes the
//! machine's cores. Workloads below the cutoff run serial by
//! construction, so the tuned path is never slower than the serial loop
//! beyond measurement noise. Tuning only changes scheduling: results
//! stay bit-identical at every thread count.
//!
//! # Observability
//!
//! The executor reports its scheduling decisions through `maly-obs`
//! diagnostic counters (`par.serial_maps`, `par.parallel_maps`,
//! `par.chunks`, `par.tuned_serial`, `par.tuned_parallel`) and, when
//! `MALY_OBS=1`, a `par.map` span per parallel map with one `par.chunk`
//! child span per worker (fed into the `par.chunk_ns` histogram). Chunk
//! spans carry the submitting thread's span as an explicit parent, so a
//! trace nests worker time under the sweep that submitted it. These are
//! diagnostics — they vary with thread count by design — and when obs
//! is disabled the whole layer costs a handful of relaxed atomics per
//! *map call* (never per item).
//!
//! # Examples
//!
//! ```
//! use maly_par::Executor;
//!
//! let exec = Executor::with_threads(4);
//! let squares = exec.map_indexed(8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::num::NonZeroUsize;

/// Environment variable selecting the executor's thread count.
pub const THREADS_ENV_VAR: &str = "MALY_PAR_THREADS";

/// Maps that ran on the inline serial path (diagnostic: varies with
/// thread count and tuning by design).
static PAR_SERIAL_MAPS: maly_obs::Counter = maly_obs::Counter::diag("par.serial_maps");
/// Maps that took the scoped-thread parallel path.
static PAR_PARALLEL_MAPS: maly_obs::Counter = maly_obs::Counter::diag("par.parallel_maps");
/// Chunks spawned across all parallel maps.
static PAR_CHUNKS: maly_obs::Counter = maly_obs::Counter::diag("par.chunks");
/// [`Executor::tuned_for`] decisions that fell back to serial.
static PAR_TUNED_SERIAL: maly_obs::Counter = maly_obs::Counter::diag("par.tuned_serial");
/// [`Executor::tuned_for`] decisions that kept a parallel executor.
static PAR_TUNED_PARALLEL: maly_obs::Counter = maly_obs::Counter::diag("par.tuned_parallel");
/// Per-chunk wall-clock durations (recorded only when obs is enabled).
static PAR_CHUNK_NS: maly_obs::Histogram = maly_obs::Histogram::new("par.chunk_ns");

/// Workloads estimated below this total serial cost always run serial:
/// a scoped-thread spawn+join round trip costs tens of microseconds, so
/// a sub-200 µs sweep cannot recoup even one extra thread.
pub const SEQUENTIAL_CUTOFF_NS: f64 = 200_000.0;

/// Minimum estimated work per extra thread. Adding a thread that owns
/// less than ~100 µs of work loses more to spawn/join overhead and
/// cache cooling than it gains in concurrency.
pub const MIN_PARALLEL_GRAIN_NS: f64 = 100_000.0;

/// Resolves the thread count from [`THREADS_ENV_VAR`], falling back to
/// the machine's available parallelism. Unparsable or zero values fall
/// back too, so a broken environment can never disable the sweeps.
#[must_use]
pub fn threads_from_env() -> usize {
    match std::env::var(THREADS_ENV_VAR) {
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => default_parallelism(),
        },
        Err(_) => default_parallelism(),
    }
}

/// The machine's available parallelism (1 when it cannot be queried).
///
/// Queried once per process and cached: on Linux,
/// `std::thread::available_parallelism` re-reads cgroup quota files on
/// every call — about 10 µs here, enough to make the [`Executor::tuned_for`]
/// cap visibly slow down sub-millisecond sweeps that resolve to the
/// serial path anyway.
#[must_use]
pub fn default_parallelism() -> usize {
    static CACHED: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CACHED.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// A deterministic data-parallel executor over scoped threads.
///
/// Work is split into contiguous index chunks, one per thread; each
/// chunk writes into its own disjoint slice of the output, so results
/// come back in index order without any synchronization beyond the
/// scope join. With one thread (or one item) everything runs inline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    threads: usize,
}

impl Default for Executor {
    fn default() -> Self {
        Self::from_env()
    }
}

impl Executor {
    /// An executor sized by `MALY_PAR_THREADS` (default: available
    /// parallelism).
    #[must_use]
    pub fn from_env() -> Self {
        Self::with_threads(threads_from_env())
    }

    /// An executor with an explicit thread count (`0` is treated as 1).
    /// Thread counts above the machine's core count are legal — the
    /// determinism tests use them to exercise chunk boundaries.
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// The serial executor: every closure runs inline on the caller's
    /// stack.
    #[must_use]
    pub fn serial() -> Self {
        Self::with_threads(1)
    }

    /// The configured thread count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Derives an executor tuned for a workload of `n` items whose
    /// estimated serial cost is `ns_per_item` nanoseconds each.
    ///
    /// Three caps apply, in order:
    ///
    /// 1. workloads under [`SEQUENTIAL_CUTOFF_NS`] total run serial;
    /// 2. each extra thread must own at least [`MIN_PARALLEL_GRAIN_NS`]
    ///    of estimated work;
    /// 3. the thread count never exceeds the machine's available
    ///    parallelism — oversubscribing cores never helps a pure-CPU
    ///    sweep and is exactly how a 1-core machine ends up running a
    ///    "parallel" path slower than the serial loop.
    ///
    /// The tuned executor can only have *fewer* threads than `self`;
    /// results are bit-identical either way (see the determinism
    /// contract), so tuning is always safe to apply.
    #[must_use]
    pub fn tuned_for(&self, n: usize, ns_per_item: f64) -> Executor {
        if self.threads <= 1 {
            PAR_TUNED_SERIAL.incr();
            return Executor::serial();
        }
        let total_ns = ns_per_item.max(0.0) * n as f64;
        if !total_ns.is_finite() || total_ns < SEQUENTIAL_CUTOFF_NS {
            PAR_TUNED_SERIAL.incr();
            return Executor::serial();
        }
        // At most one thread per MIN_PARALLEL_GRAIN_NS of work; the
        // cutoff above guarantees by_grain >= 2 is possible only when
        // the workload is worth at least two grains.
        let by_grain = (total_ns / MIN_PARALLEL_GRAIN_NS) as usize;
        let capped = self.threads.min(default_parallelism()).min(by_grain.max(1));
        let tuned = Executor::with_threads(capped);
        if tuned.threads <= 1 {
            PAR_TUNED_SERIAL.incr();
        } else {
            PAR_TUNED_PARALLEL.incr();
        }
        tuned
    }

    /// Applies `f` to every index in `0..n`, returning results in index
    /// order. The parallel and serial paths produce identical vectors.
    pub fn map_indexed<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if self.threads <= 1 || n <= 1 {
            PAR_SERIAL_MAPS.incr();
            return (0..n).map(f).collect();
        }
        PAR_PARALLEL_MAPS.incr();
        let chunk = n.div_ceil(self.threads);
        PAR_CHUNKS.add(n.div_ceil(chunk) as u64);
        // The map span lives on the submitting thread; each worker
        // chunk opens a child span with it as an explicit parent, so
        // the trace tree nests cross-thread work under the sweep that
        // submitted it.
        let map_span = maly_obs::span("par.map");
        let parent = map_span.id();
        let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        std::thread::scope(|scope| {
            let f = &f;
            for (c, out_chunk) in slots.chunks_mut(chunk).enumerate() {
                let base = c * chunk;
                scope.spawn(move || {
                    let _chunk_span =
                        maly_obs::span_child("par.chunk", parent).with_histogram(&PAR_CHUNK_NS);
                    for (k, slot) in out_chunk.iter_mut().enumerate() {
                        *slot = Some(f(base + k));
                    }
                });
            }
        });
        let out: Vec<R> = slots.into_iter().flatten().collect();
        assert_eq!(out.len(), n, "executor lost results");
        out
    }

    /// Applies `f` to every element of `items`, preserving order.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.map_indexed(items.len(), |i| f(&items[i]))
    }

    /// Evaluates `f(row, col)` over a `rows × cols` grid, returning
    /// `out[row][col]`. The grid is flattened into row-major tiles and
    /// chunked across threads, so long and skinny grids still balance.
    pub fn grid<R, F>(&self, rows: usize, cols: usize, f: F) -> Vec<Vec<R>>
    where
        R: Send,
        F: Fn(usize, usize) -> R + Sync,
    {
        if rows == 0 || cols == 0 {
            return (0..rows).map(|_| Vec::new()).collect();
        }
        let flat = self.map_indexed(rows * cols, |id| f(id / cols, id % cols));
        let mut out: Vec<Vec<R>> = Vec::with_capacity(rows);
        let mut it = flat.into_iter();
        for _ in 0..rows {
            out.push(it.by_ref().take(cols).collect());
        }
        out
    }

    /// Runs `f(worker_index)` on `threads()` long-lived workers and
    /// blocks until every worker returns. Worker 0 runs inline on the
    /// caller's stack; workers `1..threads()` run on scoped threads.
    ///
    /// This is the sanctioned way for long-running services (the serve
    /// layer's connection workers) to hold threads: the workspace lint
    /// forbids raw `std::thread::spawn` outside this crate, and scoped
    /// workers cannot leak past their caller. Unlike the map family
    /// this makes no determinism promise — workers coordinate through
    /// whatever shared state the caller gives them — but it also does
    /// no scheduling of its own, so it cannot introduce divergence
    /// either.
    pub fn run_workers<F>(&self, f: F)
    where
        F: Fn(usize) + Sync,
    {
        if self.threads <= 1 {
            f(0);
            return;
        }
        std::thread::scope(|scope| {
            let f = &f;
            for worker in 1..self.threads {
                scope.spawn(move || f(worker));
            }
            f(0);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn map_indexed_matches_serial_at_every_thread_count() {
        let reference: Vec<u64> = (0..97)
            .map(|i| (i as u64).wrapping_mul(2654435761))
            .collect();
        for threads in [1, 2, 3, 4, 8, 16, 97, 200] {
            let exec = Executor::with_threads(threads);
            let got = exec.map_indexed(97, |i| (i as u64).wrapping_mul(2654435761));
            assert_eq!(got, reference, "threads = {threads}");
        }
    }

    #[test]
    fn map_preserves_element_order() {
        let items: Vec<i32> = (0..50).map(|i| i * 3).collect();
        let exec = Executor::with_threads(7);
        assert_eq!(
            exec.map(&items, |&v| v + 1),
            (0..50).map(|i| i * 3 + 1).collect::<Vec<_>>()
        );
    }

    #[test]
    fn grid_is_row_major_and_exact() {
        for threads in [1, 3, 8] {
            let exec = Executor::with_threads(threads);
            let g = exec.grid(5, 7, |r, c| (r, c));
            assert_eq!(g.len(), 5);
            for (r, row) in g.iter().enumerate() {
                assert_eq!(row.len(), 7);
                for (c, cell) in row.iter().enumerate() {
                    assert_eq!(*cell, (r, c));
                }
            }
        }
    }

    #[test]
    fn grid_handles_empty_dimensions() {
        let exec = Executor::with_threads(4);
        assert_eq!(exec.grid(0, 5, |_, _| 0), Vec::<Vec<i32>>::new());
        let empty_rows = exec.grid(3, 0, |_, _| 0);
        assert_eq!(empty_rows.len(), 3);
        assert!(empty_rows.iter().all(Vec::is_empty));
    }

    #[test]
    fn zero_items_and_single_item_work() {
        let exec = Executor::with_threads(8);
        assert_eq!(exec.map_indexed(0, |i| i), Vec::<usize>::new());
        assert_eq!(exec.map_indexed(1, |i| i + 10), vec![10]);
    }

    #[test]
    fn threads_are_actually_used_when_requested() {
        // Count distinct threads observed by the closures. With 4 threads
        // and 64 items, at least 2 distinct threads must participate.
        let exec = Executor::with_threads(4);
        let ids = exec.map_indexed(64, |_| {
            std::thread::sleep(std::time::Duration::from_micros(200));
            format!("{:?}", std::thread::current().id())
        });
        let mut distinct: Vec<&String> = ids.iter().collect();
        distinct.sort();
        distinct.dedup();
        assert!(
            distinct.len() >= 2,
            "saw {} distinct threads",
            distinct.len()
        );
    }

    #[test]
    fn serial_executor_runs_inline() {
        // The serial path must not spawn: the closure sees the caller's
        // thread id.
        let caller = format!("{:?}", std::thread::current().id());
        let exec = Executor::serial();
        let seen = exec.map_indexed(4, |_| format!("{:?}", std::thread::current().id()));
        assert!(seen.iter().all(|id| *id == caller));
    }

    #[test]
    fn closure_runs_exactly_once_per_index() {
        let calls = AtomicUsize::new(0);
        let exec = Executor::with_threads(6);
        let out = exec.map_indexed(100, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out.len(), 100);
        assert_eq!(calls.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn env_var_controls_from_env() {
        // Single test owning the env var (other tests use with_threads
        // to avoid process-global races).
        std::env::set_var(THREADS_ENV_VAR, "3");
        assert_eq!(Executor::from_env().threads(), 3);
        std::env::set_var(THREADS_ENV_VAR, "0");
        assert_eq!(Executor::from_env().threads(), default_parallelism());
        std::env::set_var(THREADS_ENV_VAR, "not-a-number");
        assert_eq!(Executor::from_env().threads(), default_parallelism());
        std::env::remove_var(THREADS_ENV_VAR);
        assert_eq!(Executor::from_env().threads(), default_parallelism());
    }

    #[test]
    fn tuned_for_small_workloads_is_serial() {
        let exec = Executor::with_threads(8);
        // 100 items at 100 ns = 10 µs: far below the cutoff.
        assert_eq!(exec.tuned_for(100, 100.0).threads(), 1);
        // Zero-cost hints and empty workloads are serial too.
        assert_eq!(exec.tuned_for(0, 1_000_000.0).threads(), 1);
        assert_eq!(exec.tuned_for(1_000_000, 0.0).threads(), 1);
        // Pathological hints must not panic or go parallel.
        assert_eq!(exec.tuned_for(10, f64::NAN).threads(), 1);
        assert_eq!(exec.tuned_for(10, -5.0).threads(), 1);
    }

    #[test]
    fn tuned_for_never_adds_threads() {
        let serial = Executor::serial();
        assert_eq!(serial.tuned_for(1_000_000, 10_000.0).threads(), 1);
        let four = Executor::with_threads(4);
        assert!(four.tuned_for(1_000_000, 10_000.0).threads() <= 4);
    }

    #[test]
    fn tuned_for_never_oversubscribes_cores() {
        let exec = Executor::with_threads(512);
        let tuned = exec.tuned_for(1_000_000, 100_000.0);
        assert!(
            tuned.threads() <= default_parallelism(),
            "{} threads on {} cores",
            tuned.threads(),
            default_parallelism()
        );
    }

    #[test]
    fn tuned_for_respects_the_grain() {
        // 3 grains of work: at most 3 threads even on a wide machine.
        let exec = Executor::with_threads(64);
        let n = 3_000;
        let tuned = exec.tuned_for(n, MIN_PARALLEL_GRAIN_NS / 1_000.0);
        assert!(tuned.threads() <= 3, "{} threads", tuned.threads());
    }

    #[test]
    fn tuned_for_results_match_untuned() {
        let exec = Executor::with_threads(8);
        let tuned = exec.tuned_for(977, 50.0);
        let want: Vec<u64> = (0..977u64).map(|i| i.wrapping_mul(0x9e3779b9)).collect();
        assert_eq!(
            tuned.map_indexed(977, |i| (i as u64).wrapping_mul(0x9e3779b9)),
            want
        );
    }

    #[test]
    fn run_workers_runs_every_index_and_worker_zero_inline() {
        let caller = format!("{:?}", std::thread::current().id());
        let seen: Vec<std::sync::Mutex<Option<String>>> =
            (0..4).map(|_| std::sync::Mutex::new(None)).collect();
        Executor::with_threads(4).run_workers(|w| {
            *seen[w].lock().unwrap() = Some(format!("{:?}", std::thread::current().id()));
        });
        let ids: Vec<String> = seen
            .iter()
            .map(|m| m.lock().unwrap().clone().expect("every worker ran"))
            .collect();
        assert_eq!(ids[0], caller, "worker 0 runs on the caller");
        assert!(ids[1..].iter().all(|id| *id != caller));
    }
}
