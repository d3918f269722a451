//! The three workloads and their seeded inputs.
//!
//! Every input is a pure function of `(seed, index)`: op `i` of a
//! workload draws from its own PRNG stream, so any index range can be
//! generated on its own and the same seed always yields the same bytes.
//! The program under test only ever sees these generated inputs.

use std::ops::Range;

use maly_model::json::Json;
use maly_model::query::ProductSpec;
use maly_model::Query;
use maly_yield_model::prng::{UniformSource, Xoshiro256PlusPlus};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop single queries: half `product`, half `table3_row`.
    ServePoint,
    /// Closed-loop map panning: 2×2 viewports of fresh surface tiles,
    /// one line in four a chiplet partition sweep.
    ServeExplore,
    /// In-process what-if Fig 8 maps: surface, contours, optimum.
    Fig8Map,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::ServePoint,
        Workload::ServeExplore,
        Workload::Fig8Map,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServePoint => "serve_point",
            Workload::ServeExplore => "serve_explore",
            Workload::Fig8Map => "fig8_map",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload goes over the wire to a server.
    #[must_use]
    pub fn is_served(self) -> bool {
        !matches!(self, Workload::Fig8Map)
    }

    /// Timed ops in one round, about a tenth to half a second of work.
    /// Fixed, not time-budgeted, so a round's counters and peak memory
    /// compare across commits; short, so that a run holds many rounds
    /// and the best of them can fall inside the host's quiet spells.
    #[must_use]
    pub fn ops_per_round(self) -> usize {
        match self {
            Workload::ServePoint => 3_000,
            Workload::ServeExplore => 200,
            Workload::Fig8Map => 200,
        }
    }

    /// Untimed ops before the timed phase; each is checked against a
    /// fresh evaluation, and set-up ends when the last one is correct.
    #[must_use]
    pub fn warmup_ops(self) -> usize {
        match self {
            Workload::ServePoint => 32,
            Workload::ServeExplore => 4,
            Workload::Fig8Map => 2,
        }
    }

    /// Timed ops re-evaluated after the timed phase.
    #[must_use]
    pub fn samples(self) -> usize {
        match self {
            Workload::ServePoint => 16,
            Workload::ServeExplore => 6,
            Workload::Fig8Map => 8,
        }
    }
}

/// The query family a request line belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One `product` query.
    Product,
    /// One `table3_row` query.
    Table3Row,
    /// A batch of four adjacent `surface_tile` windows.
    SurfaceTileBatch,
    /// One `chiplet_partition_sweep` query.
    ChipletPartitionSweep,
}

impl Kind {
    /// Every kind, in report order.
    pub const ALL: [Kind; 4] = [
        Kind::Product,
        Kind::Table3Row,
        Kind::SurfaceTileBatch,
        Kind::ChipletPartitionSweep,
    ];

    /// The kind's name in `kind.<name>.rtt_us`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::Product => "product",
            Kind::Table3Row => "table3_row",
            Kind::SurfaceTileBatch => "surface_tile_batch",
            Kind::ChipletPartitionSweep => "chiplet_partition_sweep",
        }
    }

    /// Position in [`Kind::ALL`].
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Kind::Product => 0,
            Kind::Table3Row => 1,
            Kind::SurfaceTileBatch => 2,
            Kind::ChipletPartitionSweep => 3,
        }
    }
}

/// One request line of a serve workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Line {
    /// The wire bytes, newline-terminated.
    pub text: String,
    /// The query family.
    pub kind: Kind,
    /// Start of a correct response: the first element's id and `ok`.
    pub ok_prefix: String,
}

/// The Fig 8 window every map covers: `(λ min, λ max, steps)`.
pub const MAP_LAMBDA: (f64, f64, usize) = (0.4, 1.5, 56);
/// The Fig 8 window every map covers: `(N_tr min, N_tr max, steps)`.
pub const MAP_N_TR: (f64, f64, usize) = (2.0e4, 4.0e6, 48);
/// The five Fig 8 contour levels, in dollars per transistor.
pub const MAP_LEVELS: [f64; 5] = [3.0e-6, 10.0e-6, 30.0e-6, 100.0e-6, 300.0e-6];

/// Steps per axis of one explore tile.
const TILE_STEPS: usize = 24;
/// λ width of one explore tile (µm).
const TILE_LAMBDA_SPAN: f64 = 0.1;
/// `ln N_tr` height of one explore tile.
const TILE_LN_N_TR_SPAN: f64 = 0.4;

/// The PRNG stream of op `index` under `seed`.
fn rng_for(seed: u64, index: u64) -> Xoshiro256PlusPlus {
    Xoshiro256PlusPlus::seed_from_u64(seed ^ (index + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A uniform draw from `[lo, hi)`.
fn uniform(rng: &mut Xoshiro256PlusPlus, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.next_f64()
}

/// A log-uniform draw from `[lo, hi)`.
fn log_uniform(rng: &mut Xoshiro256PlusPlus, lo: f64, hi: f64) -> f64 {
    uniform(rng, lo.ln(), hi.ln()).exp()
}

/// One wire element: `{"id":…,"query":…}`.
fn element(id: u64, query: &Query) -> Json {
    Json::obj(vec![
        ("id", Json::Num(id as f64)),
        ("query", query.to_json()),
    ])
}

/// Request line `index` of a serve workload (`None` for `fig8_map`).
#[must_use]
pub fn serve_line(workload: Workload, seed: u64, index: usize) -> Option<Line> {
    let mut rng = rng_for(seed, index as u64);
    let id = index as u64;
    let single = |kind: Kind, query: &Query| Line {
        text: format!("{}\n", element(id, query).write()),
        kind,
        ok_prefix: format!("{{\"id\":{id},\"ok\":"),
    };
    match workload {
        Workload::ServePoint if index % 2 == 0 => Some(single(
            Kind::Product,
            &Query::Product(ProductSpec {
                name: "bench".to_string(),
                transistors: log_uniform(&mut rng, 2.0e5, 4.0e6),
                lambda_um: uniform(&mut rng, 0.5, 1.0),
                density: uniform(&mut rng, 100.0, 200.0),
                radius_cm: 7.5,
                yield0: uniform(&mut rng, 0.8, 0.95),
                c0: uniform(&mut rng, 500.0, 1000.0),
                x: uniform(&mut rng, 1.2, 2.4),
            }),
        )),
        Workload::ServePoint => Some(single(
            Kind::Table3Row,
            &Query::Table3Row {
                id: 1 + (rng.next_u64() % 17) as u8,
            },
        )),
        Workload::ServeExplore if index % 4 == 3 => Some(single(
            Kind::ChipletPartitionSweep,
            &Query::ChipletPartitionSweep {
                transistors: log_uniform(&mut rng, 5.0e5, 4.0e6),
                volume: 20_000 + rng.next_u64() % 180_000,
                lambda_min: 0.5,
                lambda_max: 1.2,
                lambda_steps: 8,
                max_chiplets: 6,
                max_spares: 1,
            },
        )),
        Workload::ServeExplore => {
            // A 2×2 viewport anywhere in the Fig 8 plane. Adjacent
            // tiles share their edge values bit for bit, so the planner
            // can fuse the shared nodes.
            let lambda0 = uniform(
                &mut rng,
                MAP_LAMBDA.0,
                MAP_LAMBDA.1 - 2.0 * TILE_LAMBDA_SPAN,
            );
            let ln_n0 = uniform(
                &mut rng,
                MAP_N_TR.0.ln(),
                MAP_N_TR.1.ln() - 2.0 * TILE_LN_N_TR_SPAN,
            );
            let lambda_edges = [0.0, 1.0, 2.0].map(|k| lambda0 + k * TILE_LAMBDA_SPAN);
            let n_tr_edges = [0.0, 1.0, 2.0].map(|k| (ln_n0 + k * TILE_LN_N_TR_SPAN).exp());
            let mut tiles = Vec::with_capacity(4);
            for a in 0..2 {
                for b in 0..2 {
                    let query = Query::SurfaceTile {
                        lambda_min: lambda_edges[a],
                        lambda_max: lambda_edges[a + 1],
                        lambda_steps: TILE_STEPS,
                        n_tr_min: n_tr_edges[b],
                        n_tr_max: n_tr_edges[b + 1],
                        n_tr_steps: TILE_STEPS,
                    };
                    tiles.push(element(4 * id + tiles.len() as u64, &query));
                }
            }
            Some(Line {
                text: format!("{}\n", Json::Arr(tiles).write()),
                kind: Kind::SurfaceTileBatch,
                ok_prefix: format!("[{{\"id\":{},\"ok\":", 4 * id),
            })
        }
        Workload::Fig8Map => None,
    }
}

/// Request lines `range` of a serve workload (empty for `fig8_map`).
#[must_use]
pub fn serve_lines(workload: Workload, seed: u64, range: Range<usize>) -> Vec<Line> {
    range
        .filter_map(|i| serve_line(workload, seed, i))
        .collect()
}

/// The wafer-cost calibration `(C₀ in $, X)` of Fig 8 map `index`.
#[must_use]
pub fn calibration(seed: u64, index: usize) -> (f64, f64) {
    let mut rng = rng_for(seed, index as u64);
    (
        uniform(&mut rng, 300.0, 1000.0),
        uniform(&mut rng, 1.1, 2.6),
    )
}

/// `count` distinct indices in `0..n`, ascending, drawn from `seed`:
/// the timed ops whose outputs are re-checked after the timed phase.
#[must_use]
pub fn sample_indices(seed: u64, n: usize, count: usize) -> Vec<usize> {
    let mut rng = rng_for(seed, u64::MAX - 1);
    let mut out: Vec<usize> = Vec::with_capacity(count);
    if n == 0 {
        return out;
    }
    let mut tries = 0;
    while out.len() < count.min(n) && tries < 64 * count + n {
        let i = (rng.next_u64() % n as u64) as usize;
        if !out.contains(&i) {
            out.push(i);
        }
        tries += 1;
    }
    out.sort_unstable();
    out
}
