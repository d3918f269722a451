//! The long-lived evaluation context shared by every query.
//!
//! Several consumers — the repro harness, the CLI, and now the serve
//! layer — need the same derived artifacts: the tech-trend fits
//! (Figs 1–4), the Table 3 row set, the calendar roadmap, and the Fig 8
//! cost surface, by far the most expensive single object the workspace
//! builds. [`shared`] derives them exactly once per process behind a
//! `OnceLock` (this context started life in `maly-repro`, which now
//! re-exports it).
//!
//! On top of the static artifacts, [`EvalContext`] owns a bounded cache
//! of *computed surface tiles* keyed by the exact query parameters:
//! a repeated `surface_tile` query for the same window answers from
//! memory without re-evaluating a single grid cell. The obs counters
//! below make that claim checkable — the warm-cache integration test
//! asserts `model.tile_cells` does not move on a repeat query.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock, RwLock};

use maly_cost_model::roadmap::CostRoadmap;
use maly_cost_model::surface::{CostSurface, SurfaceParameters};
use maly_paper_data::table3::{self, Table3Row};
use maly_par::Executor;
use maly_tech_trend::diesize::DieSizeTrend;
use maly_tech_trend::fit::{CostEscalationFit, ExponentialFit};
use maly_tech_trend::{datasets, fit};

/// The Fig 8 grid the reports render: `(λ min, λ max, steps)`.
pub const FIG8_LAMBDA_RANGE: (f64, f64, usize) = (0.4, 1.5, 56);
/// The Fig 8 grid the reports render: `(N_tr min, N_tr max, steps)`.
pub const FIG8_N_TR_RANGE: (f64, f64, usize) = (2.0e4, 4.0e6, 48);

/// Grid cells evaluated for surface tiles (cache misses only). A
/// thread-count-invariant work counter: the warm-cache test asserts a
/// repeat query adds exactly zero here.
pub static TILE_CELLS: maly_obs::Counter = maly_obs::Counter::work("model.tile_cells");
/// Queries answered through [`crate::query::Query::evaluate_with`].
pub static QUERIES: maly_obs::Counter = maly_obs::Counter::work("model.queries");
/// Surface-tile cache hits (diagnostic: depends on request history).
pub static TILE_HITS: maly_obs::Counter = maly_obs::Counter::diag("model.tile_hits");
/// Surface-tile cache misses (diagnostic).
pub static TILE_MISSES: maly_obs::Counter = maly_obs::Counter::diag("model.tile_misses");
/// Per-query evaluation latency, attached to the `model.query` span.
pub static EVAL_NS: maly_obs::Histogram = maly_obs::Histogram::new("model.eval_ns");
/// Batch planning latency (compile + fused prefetch + scatter),
/// attached to the `model.plan` span.
pub static PLAN_NS: maly_obs::Histogram = maly_obs::Histogram::new("model.plan_ns");

/// Every artifact derived once and shared by the experiments.
#[derive(Debug)]
pub struct SharedContext {
    /// Fig 1: exponential fit of feature size vs year.
    pub feature_trend: ExponentialFit,
    /// Fig 2a: exponential fit of fab cost vs year.
    pub fab_cost_trend: ExponentialFit,
    /// Fig 2b: the wafer-cost escalation factor `X` and `C₀`.
    pub wafer_cost_escalation: CostEscalationFit,
    /// Fig 3: `A_ch(λ)` re-fit from the die-size-by-node dataset.
    pub die_size_fit: DieSizeTrend,
    /// Fig 3/4: the paper's printed `16.5·e^{−5.3λ}` coefficients.
    pub die_size_paper: DieSizeTrend,
    /// Roadmap experiment: the two-scenario calendar projection.
    pub roadmap: CostRoadmap,
    /// Table 3 + ablation: all printed rows.
    pub table3_rows: Vec<Table3Row>,
    /// Fig 8: the paper's fab calibration.
    pub fig8_params: SurfaceParameters,
    /// Fig 8: the full cost surface on the report grid.
    pub fig8_surface: CostSurface,
}

/// The process-wide context, built on first use.
///
/// # Panics
///
/// Panics if a built-in dataset fails to fit — impossible for the
/// checked-in data, and a reproduction without its calibration cannot
/// report anything anyway.
#[must_use]
pub fn shared() -> &'static SharedContext {
    static CONTEXT: OnceLock<SharedContext> = OnceLock::new();
    CONTEXT.get_or_init(|| {
        let fig8_params = SurfaceParameters::fig8();
        SharedContext {
            // Checked-in datasets are positive by construction; a
            // context without its calibration cannot answer anything
            // anyway, so these expects fire only on a broken build.
            feature_trend: fit::fit_exponential(datasets::FEATURE_SIZE_BY_YEAR)
                // audit:allow(panic): built-in dataset is positive.
                .expect("dataset is positive"),
            fab_cost_trend: fit::fit_exponential(datasets::FAB_COST_BY_YEAR)
                // audit:allow(panic): built-in dataset is positive.
                .expect("dataset is positive"),
            wafer_cost_escalation: fit::extract_cost_escalation(datasets::WAFER_COST_BY_GENERATION)
                // audit:allow(panic): built-in dataset is positive.
                .expect("dataset is positive"),
            die_size_fit: DieSizeTrend::fit(datasets::DIE_SIZE_BY_GENERATION)
                // audit:allow(panic): built-in dataset is positive.
                .expect("dataset is positive"),
            die_size_paper: DieSizeTrend::paper_fit(),
            // audit:allow(panic): built-in datasets are valid.
            roadmap: CostRoadmap::paper_default().expect("built-in datasets are valid"),
            table3_rows: table3::rows(),
            fig8_surface: CostSurface::compute(&fig8_params, FIG8_LAMBDA_RANGE, FIG8_N_TR_RANGE),
            fig8_params,
        }
    })
}

/// Cache key for a computed surface tile: the exact bits of the four
/// axis endpoints plus the step counts. Two requests share an entry
/// only when they would compute the same tile, so a served answer never
/// depends on which window an earlier request happened to warm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct TileKey {
    lambda_min: u64,
    lambda_max: u64,
    n_tr_min: u64,
    n_tr_max: u64,
    lambda_steps: usize,
    n_tr_steps: usize,
}

impl TileKey {
    pub(crate) fn new(lambda_range: (f64, f64, usize), n_tr_range: (f64, f64, usize)) -> Self {
        Self {
            lambda_min: lambda_range.0.to_bits(),
            lambda_max: lambda_range.1.to_bits(),
            n_tr_min: n_tr_range.0.to_bits(),
            n_tr_max: n_tr_range.1.to_bits(),
            lambda_steps: lambda_range.2,
            n_tr_steps: n_tr_range.2,
        }
    }
}

/// Most tiles a server keeps warm. The Fig 8 report tile is ~2700
/// cells ≈ 100 KiB realized; 64 entries bound the cache near 6 MiB.
const TILE_CACHE_CAPACITY: usize = 64;

/// The query API's long-lived state: the shared artifacts plus a
/// bounded surface-tile cache.
#[derive(Debug)]
pub struct EvalContext {
    tiles: RwLock<HashMap<TileKey, Arc<CostSurface>>>,
}

impl Default for EvalContext {
    fn default() -> Self {
        Self::new()
    }
}

impl EvalContext {
    /// Creates an empty context (the shared artifacts are process-wide
    /// and need no per-context setup).
    #[must_use]
    pub fn new() -> Self {
        Self {
            tiles: RwLock::new(HashMap::new()),
        }
    }

    /// The process-wide context, built on first use.
    #[must_use]
    pub fn process() -> &'static EvalContext {
        static CONTEXT: OnceLock<EvalContext> = OnceLock::new();
        CONTEXT.get_or_init(EvalContext::new)
    }

    /// A surface tile for the given ranges: cached when warm, computed
    /// on the executor (and counted in [`struct@TILE_CELLS`]) when cold.
    ///
    /// The caller must have validated the ranges
    /// (ascending-positive, ≥ 2 steps) — `CostSurface::compute` panics
    /// on degenerate grids by contract.
    pub(crate) fn surface_tile(
        &self,
        exec: &Executor,
        params: &SurfaceParameters,
        lambda_range: (f64, f64, usize),
        n_tr_range: (f64, f64, usize),
    ) -> Arc<CostSurface> {
        let key = TileKey::new(lambda_range, n_tr_range);
        if let Ok(cache) = self.tiles.read() {
            if let Some(tile) = cache.get(&key) {
                TILE_HITS.incr();
                return Arc::clone(tile);
            }
        }
        TILE_MISSES.incr();
        TILE_CELLS.add((lambda_range.2 * n_tr_range.2) as u64);
        let tile = Arc::new(CostSurface::compute_with(
            exec,
            params,
            lambda_range,
            n_tr_range,
        ));
        self.store_tile(key, &tile);
        tile
    }

    /// Whether a tile for this key is already warm. Deliberately bumps
    /// no counters: the batch planner probes with this before deciding
    /// what to fuse, and the hit/miss ledger must reflect only actual
    /// tile requests, identically to the unplanned path.
    pub(crate) fn has_tile(&self, key: &TileKey) -> bool {
        self.tiles
            .read()
            .map(|c| c.contains_key(key))
            .unwrap_or(false)
    }

    /// Inserts a tile the batch planner materialized outside
    /// [`Self::surface_tile`]. Counts the same miss + cell ledger the
    /// unplanned cold path would — `cells` is the tile's *full* cell
    /// count even when fusion evaluated fewer, so `model.tile_cells`
    /// goldens hold with the planner on or off; the fusion saving shows
    /// up in `eq1.cells` and `plan.nodes_evaluated` instead.
    pub(crate) fn insert_cold_tile(&self, key: TileKey, cells: u64, tile: &Arc<CostSurface>) {
        TILE_MISSES.incr();
        TILE_CELLS.add(cells);
        self.store_tile(key, tile);
    }

    fn store_tile(&self, key: TileKey, tile: &Arc<CostSurface>) {
        if let Ok(mut cache) = self.tiles.write() {
            if cache.len() >= TILE_CACHE_CAPACITY {
                // Bounded, not LRU: full flush is simple, deterministic
                // in effect (the next query recomputes), and the
                // capacity is far above any real request mix.
                cache.clear();
            }
            cache.insert(key, Arc::clone(tile));
        }
    }

    /// Number of cached tiles (for tests and diagnostics).
    #[must_use]
    pub fn cached_tiles(&self) -> usize {
        self.tiles.read().map(|c| c.len()).unwrap_or(0)
    }
}

/// Serializes lib tests that read the process-global counters; cargo
/// runs tests in parallel inside one process, so unlocked readers
/// would see each other's deltas.
#[cfg(test)]
pub(crate) fn counter_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_context_is_one_instance() {
        let a: *const SharedContext = shared();
        let b: *const SharedContext = shared();
        assert_eq!(a, b, "two calls must return the same allocation");
    }

    #[test]
    fn shared_artifacts_match_fresh_derivations() {
        let ctx = shared();
        assert_eq!(
            ctx.feature_trend,
            fit::fit_exponential(datasets::FEATURE_SIZE_BY_YEAR).unwrap()
        );
        assert_eq!(ctx.table3_rows, table3::rows());
        assert_eq!(ctx.table3_rows.len(), 17, "Table 3 prints 17 rows");
        assert_eq!(
            ctx.fig8_surface,
            CostSurface::compute(&ctx.fig8_params, FIG8_LAMBDA_RANGE, FIG8_N_TR_RANGE)
        );
    }

    #[test]
    fn tile_cache_hits_on_repeat() {
        let _guard = counter_test_lock();
        let ctx = EvalContext::new();
        let exec = Executor::serial();
        let params = SurfaceParameters::fig8();
        let ranges = ((0.4, 1.2, 6), (1.0e5, 1.0e6, 5));
        let (hits0, misses0) = (TILE_HITS.value(), TILE_MISSES.value());
        let first = ctx.surface_tile(&exec, &params, ranges.0, ranges.1);
        assert_eq!(TILE_MISSES.value() - misses0, 1, "cold query is one miss");
        assert_eq!(TILE_HITS.value() - hits0, 0);
        let again = ctx.surface_tile(&exec, &params, ranges.0, ranges.1);
        assert!(Arc::ptr_eq(&first, &again), "repeat must hit the cache");
        assert_eq!(TILE_HITS.value() - hits0, 1, "warm query is one hit");
        assert_eq!(TILE_MISSES.value() - misses0, 1, "and no further miss");
        assert_eq!(ctx.cached_tiles(), 1);
    }

    #[test]
    fn cold_insert_counts_like_an_unplanned_miss() {
        let _guard = counter_test_lock();
        let ctx = EvalContext::new();
        let exec = Executor::serial();
        let params = SurfaceParameters::fig8();
        let ranges = ((0.5, 1.0, 4), (1.0e5, 1.0e6, 3));
        let tile = Arc::new(CostSurface::compute_with(
            &exec, &params, ranges.0, ranges.1,
        ));
        let key = TileKey::new(ranges.0, ranges.1);
        assert!(!ctx.has_tile(&key));
        let (hits0, misses0, cells0) = (TILE_HITS.value(), TILE_MISSES.value(), TILE_CELLS.value());
        ctx.insert_cold_tile(key, 12, &tile);
        assert!(ctx.has_tile(&key), "inserted tile must be warm");
        assert_eq!(TILE_MISSES.value() - misses0, 1);
        assert_eq!(TILE_CELLS.value() - cells0, 12);
        assert_eq!(TILE_HITS.value() - hits0, 0, "probes bump nothing");
        let again = ctx.surface_tile(&exec, &params, ranges.0, ranges.1);
        assert!(Arc::ptr_eq(&tile, &again), "surface_tile must hit it");
        assert_eq!(TILE_HITS.value() - hits0, 1);
    }

    #[test]
    fn tile_keys_are_exact() {
        let a = TileKey::new((0.4, 1.5, 10), (2.0e4, 4.0e6, 8));
        assert_eq!(a, TileKey::new((0.4, 1.5, 10), (2.0e4, 4.0e6, 8)));
        let b = TileKey::new((0.4 + 1e-9, 1.5 - 1e-9, 10), (2.0e4, 4.0e6, 8));
        assert_ne!(a, b, "λ endpoints 1e-9 apart are distinct tiles");
        let n = TileKey::new((0.4, 1.5, 10), (2.0e4 + 1e-9, 4.0e6, 8));
        assert_ne!(a, n, "N_tr endpoints 1e-9 apart are distinct tiles");
        let c = TileKey::new((0.4, 1.5, 11), (2.0e4, 4.0e6, 8));
        assert_ne!(a, c, "step counts stay exact");
    }

    #[test]
    fn warm_tiles_never_answer_a_nearby_window() {
        use crate::query::{Query, QueryResponse};
        let _guard = counter_test_lock();
        // λ_min 0.4 nm apart: every answer must equal the fresh-context
        // answer, whatever the context served before.
        let tile = |lambda_min| Query::SurfaceTile {
            lambda_min,
            lambda_max: 1.2,
            lambda_steps: 6,
            n_tr_min: 1.0e5,
            n_tr_max: 1.0e6,
            n_tr_steps: 5,
        };
        let batch = [tile(0.5), tile(0.5004)];
        let exec = Executor::serial();
        let fresh: Vec<QueryResponse> = batch
            .iter()
            .map(|q| q.evaluate_with(&exec, &EvalContext::new()).unwrap())
            .collect();
        assert_ne!(fresh[0], fresh[1]);
        let warm = EvalContext::new();
        for (q, want) in batch.iter().zip(&fresh) {
            assert_eq!(&q.evaluate_with(&exec, &warm).unwrap(), want, "unplanned");
        }
        for ctx in [&EvalContext::new(), &warm] {
            let planned = crate::planner::evaluate(&exec, ctx, &batch);
            for (got, want) in planned.into_iter().zip(&fresh) {
                assert_eq!(&got.unwrap(), want, "planned");
            }
        }
    }
}
