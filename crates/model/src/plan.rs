//! The evaluation-plan IR: what a query batch *needs* before anything
//! runs.
//!
//! A batch of [`Query`]s compiles to a [`Plan`] — the deduplicated
//! query list, the slot map scattering answers back to request order,
//! and the set of unique surface-tile grid nodes the batch will touch.
//! The planner (`crate::planner`) then executes the plan: cold tile
//! nodes across *all* queries fuse into one lane-batched eq. (1)
//! dispatch, and byte-identical queries are answered once.
//!
//! Node keying matches the warm-tile cache key exactly
//! ([`crate::context`]'s `TileKey`, the bits of the window's endpoints
//! plus its step counts): two queries share a node only when they
//! would share a cache entry on the unplanned path. The per-cell
//! `(λ, N_tr)` fusion inside a dispatch is likewise keyed on *bit
//! equality* of the axis values, so fusion can never change a single
//! output bit.
//!
//! Every batched entry point goes through the planner. The direct
//! per-query path, `Query::evaluate_batch_unplanned`, remains only as
//! the bit-identity reference for the `plan_fusion` property tests and
//! the fused-batch bench.

use std::collections::HashMap;

use crate::context::TileKey;
use crate::query::Query;
use crate::wire::Key;

/// Grid nodes a batch asked for, before dedup/fusion: every cell of
/// every surface-tile query plus one node per non-tile query. Work
/// counter — determined by batch contents alone.
pub static NODES_REQUESTED: maly_obs::Counter = maly_obs::Counter::work("plan.nodes_requested");
/// Grid nodes actually evaluated after cross-request dedup and warm
/// cache elision. The fusion goldens assert this stays well under
/// [`struct@NODES_REQUESTED`] on overlapping batches.
pub static NODES_EVALUATED: maly_obs::Counter = maly_obs::Counter::work("plan.nodes_evaluated");
/// Fused kernel dispatches issued (one per batch with ≥ 1 cold tile).
pub static FUSED_DISPATCHES: maly_obs::Counter = maly_obs::Counter::work("plan.fused_dispatches");
/// Queries answered by fan-out from an identical batch-mate instead of
/// re-evaluation (diagnostic: depends on request history).
pub static DEDUPED_QUERIES: maly_obs::Counter = maly_obs::Counter::diag("plan.deduped_queries");

/// One unique surface-tile grid node: the cache key plus the
/// exact ranges that materialize it.
#[derive(Debug, Clone)]
pub(crate) struct TileNode {
    /// Cache identity (endpoint bits and step counts).
    pub key: TileKey,
    /// `(λ min, λ max, steps)` of the first query requesting this node.
    pub lambda_range: (f64, f64, usize),
    /// `(N_tr min, N_tr max, steps)` of that query.
    pub n_tr_range: (f64, f64, usize),
}

/// A compiled batch: what to evaluate, and how to scatter it back.
#[derive(Debug)]
pub(crate) struct Plan {
    /// Unique queries in first-occurrence order.
    pub unique: Vec<Query>,
    /// `slots[i]` = index into `unique` answering input query `i`.
    pub slots: Vec<usize>,
    /// Unique surface-tile nodes in first-occurrence order.
    pub tiles: Vec<TileNode>,
    /// Total grid nodes the raw batch asked for.
    pub nodes_requested: u64,
}

impl Plan {
    /// Compiles a batch: dedups bit-identical queries (see
    /// [`Key`] — finer than the wire format's equivalence, so
    /// fan-out can never conflate queries that would serialize
    /// differently) and collects the unique tile nodes, all in
    /// first-occurrence order so execution matches a sequential
    /// left-to-right evaluation of the same batch against a shared
    /// context.
    pub(crate) fn compile(queries: &[Query]) -> Self {
        let mut unique: Vec<Query> = Vec::new();
        let mut slots: Vec<usize> = Vec::with_capacity(queries.len());
        // Lookup-only map (never iterated): result order comes from
        // the `unique`/`tiles` vectors.
        let mut slot_of: HashMap<Key, usize> = HashMap::new();
        let mut tiles: Vec<TileNode> = Vec::new();
        let mut nodes_requested: u64 = 0;
        for q in queries {
            nodes_requested += match q.tile_request() {
                Some((l, n)) => (l.2 * n.2) as u64,
                None => 1,
            };
            let key = q.dedup_key();
            let slot = match slot_of.get(&key) {
                Some(&u) => u,
                None => {
                    let u = unique.len();
                    slot_of.insert(key, u);
                    // A surface tile's dedup key carries the bits of the
                    // same six fields as its `TileKey`, so a query that is
                    // new here is always a new tile node.
                    if let Some((lambda_range, n_tr_range)) = q.tile_request() {
                        tiles.push(TileNode {
                            key: TileKey::new(lambda_range, n_tr_range),
                            lambda_range,
                            n_tr_range,
                        });
                    }
                    unique.push(q.clone());
                    u
                }
            };
            slots.push(slot);
        }
        Self {
            unique,
            slots,
            tiles,
            nodes_requested,
        }
    }

    /// Input queries answered by fan-out rather than evaluation.
    pub(crate) fn duplicate_queries(&self) -> u64 {
        (self.slots.len() - self.unique.len()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tile(lo: f64) -> Query {
        Query::SurfaceTile {
            lambda_min: lo,
            lambda_max: lo + 0.5,
            lambda_steps: 9,
            n_tr_min: 2.0e4,
            n_tr_max: 4.0e6,
            n_tr_steps: 24,
        }
    }

    #[test]
    fn compile_dedups_queries_and_tile_nodes() {
        let batch = vec![
            tile(0.5),
            Query::Table3,
            tile(0.5),
            // Float noise: distinct query text and a distinct tile
            // node, since cache keys are exact.
            Query::SurfaceTile {
                lambda_min: 0.5 + 1e-9,
                lambda_max: 1.0,
                lambda_steps: 9,
                n_tr_min: 2.0e4,
                n_tr_max: 4.0e6,
                n_tr_steps: 24,
            },
            tile(0.625),
        ];
        let plan = Plan::compile(&batch);
        assert_eq!(plan.slots, vec![0, 1, 0, 2, 3]);
        assert_eq!(plan.unique.len(), 4);
        assert_eq!(plan.duplicate_queries(), 1);
        assert_eq!(plan.tiles.len(), 3, "noise-shifted window is its own node");
        assert_eq!(plan.nodes_requested, 4 * 9 * 24 + 1);
        assert_eq!(plan.tiles[0].lambda_range, (0.5, 1.0, 9));
        assert_eq!(plan.tiles[1].lambda_range, (0.5 + 1e-9, 1.0, 9));
        assert_eq!(plan.tiles[2].lambda_range, (0.625, 1.125, 9));
    }

    #[test]
    fn dedup_keys_separate_variants_and_labels() {
        let product = |name: &str| {
            Query::Product(crate::query::ProductSpec {
                name: name.to_string(),
                transistors: 3.1e6,
                lambda_um: 0.8,
                density: 150.0,
                radius_cm: 7.5,
                yield0: 0.9,
                c0: 700.0,
                x: 1.4,
            })
        };
        let batch = vec![
            Query::Scenario1Sweep {
                x: 1.4,
                lambda_min: 0.3,
                lambda_max: 1.2,
                steps: 11,
            },
            // Same fields, other variant: a different query.
            Query::Scenario2Sweep {
                x: 1.4,
                lambda_min: 0.3,
                lambda_max: 1.2,
                steps: 11,
            },
            product("ab"),
            product("a"),
            product("ab"),
        ];
        assert_eq!(Plan::compile(&batch).slots, vec![0, 1, 2, 3, 2]);
    }

    #[test]
    fn malformed_tiles_are_single_nodes() {
        let bad = Query::SurfaceTile {
            lambda_min: 1.0,
            lambda_max: 0.5,
            lambda_steps: 9,
            n_tr_min: 2.0e4,
            n_tr_max: 4.0e6,
            n_tr_steps: 24,
        };
        let plan = Plan::compile(&[bad]);
        assert_eq!(plan.tiles.len(), 0);
        assert_eq!(plan.nodes_requested, 1);
    }
}
