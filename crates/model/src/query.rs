//! The unified query API: every question the workspace can answer,
//! as one typed request/response pair.
//!
//! Historically each consumer wired itself to the model crates
//! directly: the CLI built `ProductScenario`s by hand, the repro
//! harness owned the Fig 8 surface, benchmarks re-derived Table 3.
//! [`Query`] is the single sanctioned entry point: a typed request
//! that evaluates against the shared [`crate::context`] artifacts,
//! batches onto the deterministic `maly-par` executor, and serializes
//! to/from the line-delimited JSON wire format the serve crate speaks.
//!
//! Determinism contract: [`Query::evaluate_with`] produces
//! bit-identical results at every executor width, because every
//! parallel path underneath (surface grids, optimal-λ scans, MC
//! replications) is index-ordered. The serve loopback tests compare
//! served bytes against direct in-process evaluation.

use std::sync::Arc;

use maly_cost_model::product::ProductScenario;
use maly_cost_model::scenario::{Scenario1, Scenario2};
use maly_cost_model::surface::CostSurface;
use maly_cost_optim::search::optimal_feature_size_with;
use maly_fabline_sim::cost::{product_mix_study, FabEconomics};
use maly_fabline_sim::mc::{self, McConfig};
use maly_fabline_sim::process::ProcessFlow;
use maly_par::Executor;
use maly_units::{Centimeters, DesignDensity, Dollars, Microns, Probability, TransistorCount};

use crate::context::{self, EvalContext};
use crate::error::Error;
use crate::json::Json;
use crate::wire::{self, query_table, wire_struct};

/// Most grid steps a single sweep/scan may request — a service bound,
/// far above anything the paper's figures need (Fig 6/7 use ≤ 481).
pub const MAX_SWEEP_STEPS: usize = 100_000;
/// Most steps per surface-tile axis (the Fig 8 report tile is 56×48).
pub const MAX_TILE_STEPS: usize = 512;
/// Most Monte Carlo replications per query.
pub const MAX_REPLICATIONS: usize = 100_000;
/// Most chiplets per partition (a service bound; real packages top out
/// far lower).
pub const MAX_CHIPLETS: usize = 64;
/// Most redundant (spare) dies per partition.
pub const MAX_SPARES: usize = 8;

wire_struct! {
    /// The full input vector of an eq. (1) product evaluation — Table 3's
    /// columns as a value type. On the wire its fields sit flat in the
    /// enclosing query object.
    pub struct ProductSpec {
        /// Product label (echoed back; defaults to `"query"`).
        pub name: String = "query".to_string(),
        /// Transistor count `N_tr`.
        pub transistors: f64,
        /// Feature size λ in µm.
        pub lambda_um: f64,
        /// Design density `d_d` in λ²/transistor.
        pub density: f64,
        /// Wafer radius in cm.
        pub radius_cm: f64 = 7.5,
        /// Reference yield `Y₀` for a 1 cm² die.
        pub yield0: f64,
        /// Reference wafer cost `C₀` in dollars.
        pub c0: f64,
        /// Cost escalation factor `X`.
        pub x: f64,
    }
}

impl ProductSpec {
    /// Builds the executable scenario, validating every field through
    /// the maly-units newtypes.
    ///
    /// # Errors
    ///
    /// Returns the first validation failure.
    pub fn scenario(&self) -> Result<ProductScenario, Error> {
        Ok(ProductScenario::builder(self.name.clone())
            .transistors(TransistorCount::new(self.transistors)?)
            .feature_size(Microns::new(self.lambda_um)?)
            .design_density(DesignDensity::new(self.density)?)
            .wafer_radius(Centimeters::new(self.radius_cm)?)
            .reference_yield(Probability::new(self.yield0)?)
            .reference_wafer_cost(Dollars::new(self.c0)?)
            .cost_escalation(self.x)?
            .build()?)
    }
}

query_table! {
    /// A typed query — the union of everything the service answers.
    ///
    /// This table is the wire schema: each variant's `type` tag and its
    /// fields in wire order, with the default a field takes when the
    /// request omits it. The codec and the planner's dedup key are
    /// generated from it (see `crate::wire`).
    pub enum Query {
        /// One eq. (1) product evaluation (a Table 3-style row).
        "product" => Product(spec: ProductSpec),
        /// One printed Table 3 row by id (1-based, as printed).
        "table3_row" => Table3Row {
            /// Row id in 1..=17.
            id: u8,
        },
        /// All 17 printed Table 3 rows, paper cost vs model cost.
        "table3" => Table3,
        /// Scenario #1 (eq. 8) λ sweep at escalation `X` — Fig 6.
        "scenario1_sweep" => Scenario1Sweep {
            /// Escalation factor `X`.
            x: f64,
            /// Sweep window start (µm).
            lambda_min: f64 = 0.2,
            /// Sweep window end (µm).
            lambda_max: f64 = 1.2,
            /// Points, ≥ 2.
            steps: usize = 41,
        },
        /// Scenario #2 (eq. 9) λ sweep at escalation `X` — Fig 7.
        "scenario2_sweep" => Scenario2Sweep {
            /// Escalation factor `X`.
            x: f64,
            /// Sweep window start (µm).
            lambda_min: f64 = 0.2,
            /// Sweep window end (µm).
            lambda_max: f64 = 1.2,
            /// Points, ≥ 2.
            steps: usize = 41,
        },
        /// A Fig 8 cost-surface tile on the paper's fab calibration,
        /// answered from the warm tile cache when possible.
        "surface_tile" => SurfaceTile {
            /// λ window start (µm).
            lambda_min: f64,
            /// λ window end (µm).
            lambda_max: f64,
            /// λ axis steps, 2..=[`MAX_TILE_STEPS`].
            lambda_steps: usize,
            /// `N_tr` window start.
            n_tr_min: f64,
            /// `N_tr` window end.
            n_tr_max: f64,
            /// `N_tr` axis steps, 2..=[`MAX_TILE_STEPS`].
            n_tr_steps: usize,
        },
        /// The cost-minimizing feature size for a product over a λ window.
        "optimal_lambda" => OptimalLambda {
            /// The product under study.
            spec: ProductSpec,
            /// Window start (µm).
            lambda_min: f64 = 0.3,
            /// Window end (µm).
            lambda_max: f64 = 1.2,
            /// Candidate nodes, ≥ 2.
            steps: usize = 481,
        },
        /// A Monte Carlo wafer-cost study over a jittered product mix.
        "mc_yield" => McYield {
            /// Number of concurrent products in the fab.
            products: usize = 4,
            /// Wafer starts per product per year.
            volume_each: f64 = 5_000.0,
            /// Replications, 1..=[`MAX_REPLICATIONS`].
            replications: usize = 200,
            /// Relative volume jitter in `[0, 1)`.
            jitter: f64 = 0.3,
            /// Base PRNG seed (deterministic per replication index).
            seed: u64 = 0,
        },
        /// The two-scenario calendar roadmap (Figs 6+7 over time).
        "roadmap" => Roadmap {
            /// First calendar year.
            from: u32 = 1986,
            /// Last calendar year.
            to: u32 = 2002,
        },
        /// Mono- vs multi-product fab economics (Sec. III).
        "product_mix" => ProductMix {
            /// Number of concurrent products.
            products: usize = 8,
            /// Wafer starts per product per year in the multi-product fab.
            volume_each: f64 = 1_000.0,
            /// Wafer starts per year in the mono-product reference fab.
            mono_volume: f64 = 100_000.0,
        },
        /// Admin: a snapshot of the process metrics registry (work/diag
        /// counters, gauges, latency percentiles). Served over the same
        /// wire protocol so operators can ask "what is p99 right now?"
        /// without attaching anything.
        "server_stats" => ServerStats,
        /// One multi-die partition priced end-to-end on the `fig8_mcm`
        /// calibration: per-chiplet die cost (eq. 1–7), KGD test cost,
        /// bonding with `Y_asm^(m−1)` assembly yield, NRE over volume.
        "chiplet_cost" => ChipletCost {
            /// Total system transistor count, split equally over chiplets.
            transistors: f64,
            /// Feature size (µm).
            lambda_um: f64,
            /// Dies required for a working system, 1..=[`MAX_CHIPLETS`].
            chiplets: usize,
            /// Redundant dies mounted, 0..=[`MAX_SPARES`].
            spares: usize = 0,
            /// Production volume the NRE amortizes over.
            volume: u64 = 100_000,
        },
        /// The partition search: given `N_tr` total at volume `V`, how many
        /// chiplets of what size (over a λ window, with up to `max_spares`
        /// redundant dies) minimize \$/system?
        "chiplet_partition_sweep" => ChipletPartitionSweep {
            /// Total system transistor count.
            transistors: f64,
            /// Production volume the NRE amortizes over.
            volume: u64 = 100_000,
            /// λ window start (µm).
            lambda_min: f64 = 0.5,
            /// λ window end (µm).
            lambda_max: f64 = 1.2,
            /// λ grid points, ≥ 2; the full grid (λ × chiplets × spares)
            /// is bounded by [`MAX_SWEEP_STEPS`].
            lambda_steps: usize = 15,
            /// Largest chiplet count probed, 1..=[`MAX_CHIPLETS`].
            max_chiplets: usize = 8,
            /// Largest spare count probed, 0..=[`MAX_SPARES`].
            max_spares: usize = 1,
        },
    }
}

/// A typed response, mirroring [`Query`]'s variants.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResponse {
    /// Eq. (1) breakdown of one product.
    Product(ProductReport),
    /// Paper-vs-model rows.
    Table3(Vec<Table3Report>),
    /// `(λ, C_tr)` series from a scenario sweep.
    Sweep(Vec<SweepPoint>),
    /// A cost-surface tile.
    Surface(SurfaceReport),
    /// The optimum, or `None` when no node in the window is feasible.
    OptimalLambda(Option<OptimalReport>),
    /// Monte Carlo summary.
    Mc(McSummary),
    /// Calendar projection rows.
    Roadmap(Vec<RoadmapRow>),
    /// Product-mix penalty report.
    ProductMix(MixReport),
    /// Metrics registry snapshot.
    ServerStats(StatsReport),
    /// One priced multi-die partition.
    Chiplet(ChipletReport),
    /// Partition-search result: the arg-min plus the per-chiplet-count
    /// frontier.
    ChipletSweep(ChipletSweepReport),
}

wire_struct! {
    /// Eq. (1) outputs for one product.
    pub struct ProductReport {
        /// Echoed product label.
        pub name: String,
        /// Realized die area (cm²).
        pub die_area_cm2: f64,
        /// Wafer cost `C_w` ($).
        pub wafer_cost: f64,
        /// Dies per wafer `N_ch`.
        pub dies_per_wafer: u32,
        /// Die yield `Y` in `[0, 1]`.
        pub die_yield: f64,
        /// Expected good dies per wafer.
        pub good_dies_per_wafer: f64,
        /// Cost per good die ($).
        pub cost_per_good_die: f64,
        /// Cost per transistor (µ$) — the paper's Table 3 unit.
        pub cost_per_transistor_micro: f64,
    }

    /// One Table 3 comparison row.
    pub struct Table3Report {
        /// Row id as printed.
        pub id: u8,
        /// IC type.
        pub name: String,
        /// The printed cost (µ$).
        pub paper_micro_dollars: f64,
        /// The model's cost (µ$).
        pub model_micro_dollars: f64,
    }

    /// An optimal-λ search hit.
    pub struct OptimalReport {
        /// The cost-minimizing feature size (µm).
        pub lambda_um: f64,
        /// The cost per transistor there ($).
        pub cost_per_transistor: f64,
    }

    /// Monte Carlo wafer-cost summary.
    pub struct McSummary {
        /// Replications run.
        pub replications: usize,
        /// Mean wafer cost ($).
        pub mean_wafer_cost: f64,
        /// Cheapest replication ($).
        pub min_wafer_cost: f64,
        /// Most expensive replication ($).
        pub max_wafer_cost: f64,
        /// Mean tool utilization in `[0, 1]`.
        pub mean_utilization: f64,
        /// `max / min` wafer cost.
        pub cost_spread: f64,
    }

    /// One roadmap calendar row.
    pub struct RoadmapRow {
        /// Calendar year.
        pub year: f64,
        /// Projected feature size (µm).
        pub lambda_um: f64,
        /// Scenario #1 cost (µ$/transistor).
        pub optimistic_micro: f64,
        /// Scenario #2 cost (µ$/transistor).
        pub realistic_micro: f64,
    }

    /// Mono- vs multi-product fab comparison.
    pub struct MixReport {
        /// Mono-product wafer cost ($).
        pub mono_cost: f64,
        /// Multi-product wafer cost ($).
        pub multi_cost: f64,
        /// `multi / mono` — the paper quotes "as high as 7".
        pub cost_ratio: f64,
        /// Mono-fab productive utilization.
        pub mono_utilization: f64,
        /// Multi-fab productive utilization.
        pub multi_utilization: f64,
    }

    /// One priced multi-die partition — the wire form of
    /// [`maly_chiplet::PartitionCost`].
    pub struct ChipletReport {
        /// Dies required for a working system.
        pub chiplets: u32,
        /// Redundant dies mounted beyond `chiplets`.
        pub spares: u32,
        /// Feature size (µm).
        pub lambda_um: f64,
        /// Transistors on each die (the equal split).
        pub transistors_per_chiplet: f64,
        /// Per-die cost delivered known-good (bare die + KGD test, $).
        pub known_good_die_cost: f64,
        /// `Y_asm^(m−1)` over the bonds.
        pub assembly_yield: f64,
        /// Assembly yield × P(enough dies escape the residual DL).
        pub system_yield: f64,
        /// Package base plus per-joint bonding ($).
        pub packaging_cost: f64,
        /// Amortized NRE per system ($).
        pub nre_per_system: f64,
        /// Expected cost of one good system ($).
        pub cost_per_system: f64,
    }
}

/// One sweep sample.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Feature size (µm).
    pub lambda_um: f64,
    /// Cost per transistor ($).
    pub cost_per_transistor: f64,
}

/// A surface tile plus its derived optima.
#[derive(Debug, Clone, PartialEq)]
pub struct SurfaceReport {
    /// The λ axis (µm).
    pub lambda_axis: Vec<f64>,
    /// The `N_tr` axis.
    pub n_tr_axis: Vec<f64>,
    /// `values[i][j]` = `C_tr` at `(lambda_axis[i], n_tr_axis[j])`,
    /// `None` where infeasible.
    pub values: Vec<Vec<Option<f64>>>,
    /// `λ^opt(N_tr)` per column: `(λ, cost)` or `None`.
    pub optimal_lambda_per_n_tr: Vec<Option<(f64, f64)>>,
    /// Global `(λ, N_tr, cost)` minimum, if any cell evaluated.
    pub global_minimum: Option<(f64, f64, f64)>,
}

impl ChipletReport {
    fn from_cost(c: &maly_chiplet::PartitionCost) -> Self {
        Self {
            chiplets: c.chiplets,
            spares: c.spares,
            lambda_um: c.lambda.value(),
            transistors_per_chiplet: c.transistors_per_chiplet.value(),
            known_good_die_cost: c.known_good_die_cost.value(),
            assembly_yield: c.assembly_yield.value(),
            system_yield: c.system_yield.value(),
            packaging_cost: c.packaging_cost.value(),
            nre_per_system: c.nre_per_system.value(),
            cost_per_system: c.cost_per_system.value(),
        }
    }
}

/// The partition-search result.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipletSweepReport {
    /// Grid candidates priced (feasible or not).
    pub evaluated: usize,
    /// Candidates with a feasible die and non-zero system yield.
    pub feasible: usize,
    /// The deterministic arg-min over the grid.
    pub best: ChipletReport,
    /// The best feasible partition at each chiplet count, ascending.
    pub per_chiplet_count: Vec<ChipletReport>,
}

/// A deterministic-shape snapshot of the process metrics registry.
///
/// Every section is sorted by metric name, so identical registry state
/// serializes to identical bytes. The split mirrors the obs crate's
/// determinism contract: `work` counters are exact and
/// thread-count-invariant (safe to golden-compare across worker
/// counts); `diag` counters, `gauges`, and `latency` are diagnostics
/// that legitimately vary with scheduling and wall-clock time and are
/// excluded from the bit-identity contract.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsReport {
    /// Work counters (name → exact total), sorted by name.
    pub work: Vec<(String, u64)>,
    /// Diagnostic counters (name → total), sorted by name.
    pub diag: Vec<(String, u64)>,
    /// Gauge levels (name → signed level), sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// Per-histogram latency summaries, sorted by name.
    pub latency: Vec<LatencyReport>,
}

/// One histogram's latency summary inside a [`StatsReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyReport {
    /// Histogram registry name (e.g. `serve.request_ns`).
    pub name: String,
    /// Number of recorded durations.
    pub count: u64,
    /// Mean duration (ns).
    pub mean_ns: f64,
    /// Interpolated median (ns).
    pub p50_ns: f64,
    /// Interpolated 90th percentile (ns).
    pub p90_ns: f64,
    /// Interpolated 99th percentile (ns).
    pub p99_ns: f64,
    /// Interpolated 99.9th percentile (ns).
    pub p999_ns: f64,
}

impl StatsReport {
    /// Snapshots the process-wide metrics registry. The obs snapshot
    /// functions already sort by name, so the report's shape is
    /// deterministic for a given registry state.
    #[must_use]
    pub fn capture() -> Self {
        let mut work = Vec::new();
        let mut diag = Vec::new();
        for c in maly_obs::counters_snapshot() {
            match c.kind {
                maly_obs::CounterKind::Work => work.push((c.name.to_string(), c.value)),
                maly_obs::CounterKind::Diag => diag.push((c.name.to_string(), c.value)),
            }
        }
        let gauges = maly_obs::gauges_snapshot()
            .into_iter()
            .map(|g| (g.name.to_string(), g.value))
            .collect();
        let latency = maly_obs::histograms_snapshot()
            .into_iter()
            .map(|h| {
                let p = h.latency_percentiles();
                LatencyReport {
                    name: h.name.to_string(),
                    count: h.count,
                    mean_ns: h.mean_ns(),
                    p50_ns: p.p50_ns,
                    p90_ns: p.p90_ns,
                    p99_ns: p.p99_ns,
                    p999_ns: p.p999_ns,
                }
            })
            .collect();
        Self {
            work,
            diag,
            gauges,
            latency,
        }
    }
}

fn check_window(
    lambda_min: f64,
    lambda_max: f64,
    steps: usize,
    max_steps: usize,
) -> Result<(), Error> {
    if !(lambda_min.is_finite() && lambda_max.is_finite() && 0.0 < lambda_min)
        || lambda_min >= lambda_max
    {
        return Err(Error::InvalidField {
            field: "lambda_min",
            message: format!("window {lambda_min}..{lambda_max} must be ascending-positive"),
        });
    }
    if !(2..=max_steps).contains(&steps) {
        return Err(Error::InvalidField {
            field: "steps",
            message: format!("steps {steps} outside 2..={max_steps}"),
        });
    }
    Ok(())
}

fn check_partition_shape(chiplets: usize, spares: usize, volume: u64) -> Result<(), Error> {
    if !(1..=MAX_CHIPLETS).contains(&chiplets) {
        return Err(Error::InvalidField {
            field: "chiplets",
            message: format!("chiplet count {chiplets} outside 1..={MAX_CHIPLETS}"),
        });
    }
    if spares > MAX_SPARES {
        return Err(Error::InvalidField {
            field: "spares",
            message: format!("spare count {spares} above {MAX_SPARES}"),
        });
    }
    if volume == 0 {
        return Err(Error::InvalidField {
            field: "volume",
            message: "volume must be at least 1".to_string(),
        });
    }
    Ok(())
}

fn check_tile(lambda_range: (f64, f64, usize), n_tr_range: (f64, f64, usize)) -> Result<(), Error> {
    let (lambda_min, lambda_max, lambda_steps) = lambda_range;
    let (n_tr_min, n_tr_max, n_tr_steps) = n_tr_range;
    check_window(lambda_min, lambda_max, lambda_steps, MAX_TILE_STEPS)?;
    if !(n_tr_min.is_finite() && n_tr_max.is_finite() && 0.0 < n_tr_min) || n_tr_min >= n_tr_max {
        return Err(Error::InvalidField {
            field: "n_tr_min",
            message: format!("window {n_tr_min}..{n_tr_max} must be ascending-positive"),
        });
    }
    if !(2..=MAX_TILE_STEPS).contains(&n_tr_steps) {
        return Err(Error::InvalidField {
            field: "n_tr_steps",
            message: format!("steps {n_tr_steps} outside 2..={MAX_TILE_STEPS}"),
        });
    }
    Ok(())
}

impl Query {
    /// Evaluates against the process-wide context on the ambient
    /// executor (`MALY_PAR_THREADS`).
    ///
    /// # Errors
    ///
    /// Returns the unified [`Error`] for validation and model failures.
    pub fn evaluate(&self) -> Result<QueryResponse, Error> {
        self.evaluate_with(&Executor::from_env(), EvalContext::process())
    }

    /// Evaluates on an explicit executor and context. Results are
    /// bit-identical at every executor width.
    ///
    /// # Errors
    ///
    /// Returns the unified [`Error`] for validation and model failures.
    pub fn evaluate_with(
        &self,
        exec: &Executor,
        ctx: &EvalContext,
    ) -> Result<QueryResponse, Error> {
        let _span = maly_obs::span("model.query").with_histogram(&context::EVAL_NS);
        context::QUERIES.incr();
        match self {
            Query::Product(spec) => {
                let scenario = spec.scenario()?;
                let b = scenario.evaluate()?;
                Ok(QueryResponse::Product(ProductReport {
                    name: spec.name.clone(),
                    die_area_cm2: scenario.die_area().value(),
                    wafer_cost: b.wafer_cost.value(),
                    dies_per_wafer: b.dies_per_wafer.value(),
                    die_yield: b.die_yield.value(),
                    good_dies_per_wafer: b.good_dies_per_wafer,
                    cost_per_good_die: b.cost_per_good_die.value(),
                    cost_per_transistor_micro: b.cost_per_transistor.to_micro_dollars().value(),
                }))
            }
            Query::Table3Row { id } => {
                let rows = &context::shared().table3_rows;
                let row = rows
                    .iter()
                    .find(|r| r.id == *id)
                    .ok_or(Error::UnknownTableRow { id: *id })?;
                Ok(QueryResponse::Table3(vec![table3_report(row)?]))
            }
            Query::Table3 => {
                let rows = &context::shared().table3_rows;
                // Rows are independent eq. (1) evaluations; batch them
                // across the executor in printed order.
                let reports = exec.map_indexed(rows.len(), |i| table3_report(&rows[i]));
                Ok(QueryResponse::Table3(
                    reports.into_iter().collect::<Result<Vec<_>, _>>()?,
                ))
            }
            Query::Scenario1Sweep {
                x,
                lambda_min,
                lambda_max,
                steps,
            } => {
                check_window(*lambda_min, *lambda_max, *steps, MAX_SWEEP_STEPS)?;
                let s1 = Scenario1::fig6(*x)?;
                let series = s1.sweep(
                    Microns::new(*lambda_min)?,
                    Microns::new(*lambda_max)?,
                    *steps,
                )?;
                Ok(QueryResponse::Sweep(sweep_points(series)))
            }
            Query::Scenario2Sweep {
                x,
                lambda_min,
                lambda_max,
                steps,
            } => {
                check_window(*lambda_min, *lambda_max, *steps, MAX_SWEEP_STEPS)?;
                let s2 = Scenario2::fig7(*x)?;
                let series = s2.sweep(
                    Microns::new(*lambda_min)?,
                    Microns::new(*lambda_max)?,
                    *steps,
                )?;
                Ok(QueryResponse::Sweep(sweep_points(series)))
            }
            Query::SurfaceTile {
                lambda_min,
                lambda_max,
                lambda_steps,
                n_tr_min,
                n_tr_max,
                n_tr_steps,
            } => {
                check_tile(
                    (*lambda_min, *lambda_max, *lambda_steps),
                    (*n_tr_min, *n_tr_max, *n_tr_steps),
                )?;
                let tile = ctx.surface_tile(
                    exec,
                    &context::shared().fig8_params,
                    (*lambda_min, *lambda_max, *lambda_steps),
                    (*n_tr_min, *n_tr_max, *n_tr_steps),
                );
                Ok(QueryResponse::Surface(surface_report(&tile, exec)))
            }
            Query::OptimalLambda {
                spec,
                lambda_min,
                lambda_max,
                steps,
            } => {
                check_window(*lambda_min, *lambda_max, *steps, MAX_SWEEP_STEPS)?;
                let scenario = spec.scenario()?;
                let best =
                    optimal_feature_size_with(exec, &scenario, *lambda_min, *lambda_max, *steps)?;
                Ok(QueryResponse::OptimalLambda(best.map(|(lambda, cost)| {
                    OptimalReport {
                        lambda_um: lambda.value(),
                        cost_per_transistor: cost,
                    }
                })))
            }
            Query::McYield {
                products,
                volume_each,
                replications,
                jitter,
                seed,
            } => {
                if *products == 0 {
                    return Err(Error::InvalidField {
                        field: "products",
                        message: "need at least one product".to_string(),
                    });
                }
                if !(*volume_each > 0.0 && volume_each.is_finite()) {
                    return Err(Error::InvalidField {
                        field: "volume_each",
                        message: format!("volume {volume_each} must be positive"),
                    });
                }
                if !(1..=MAX_REPLICATIONS).contains(replications) {
                    return Err(Error::InvalidField {
                        field: "replications",
                        message: format!(
                            "replications {replications} outside 1..={MAX_REPLICATIONS}"
                        ),
                    });
                }
                let demand: Vec<(ProcessFlow, f64)> = (0..*products)
                    .map(|i| {
                        // Spread products over nearby nodes, as the
                        // product_mix study does.
                        let lambda = 0.8 + 0.05 * (i % 4) as f64;
                        (
                            ProcessFlow::for_generation(format!("mc-{i}"), lambda),
                            *volume_each,
                        )
                    })
                    .collect();
                let config = McConfig {
                    replications: *replications,
                    volume_jitter: *jitter,
                    base_seed: *seed,
                };
                let report = mc::run_with(exec, &FabEconomics::default(), &demand, &config)
                    .map_err(Error::Unit)?;
                Ok(QueryResponse::Mc(McSummary {
                    replications: report.samples.len(),
                    mean_wafer_cost: report.mean_wafer_cost.value(),
                    min_wafer_cost: report.min_wafer_cost.value(),
                    max_wafer_cost: report.max_wafer_cost.value(),
                    mean_utilization: report.mean_utilization,
                    cost_spread: report.cost_spread(),
                }))
            }
            Query::Roadmap { from, to } => {
                if from >= to {
                    return Err(Error::InvalidField {
                        field: "from",
                        message: format!("year range {from}..{to} must be ascending"),
                    });
                }
                let roadmap = &context::shared().roadmap;
                let points = roadmap.project(*from, *to)?;
                Ok(QueryResponse::Roadmap(
                    points
                        .iter()
                        .map(|p| RoadmapRow {
                            year: p.year,
                            lambda_um: p.lambda.value(),
                            optimistic_micro: p.optimistic.to_micro_dollars().value(),
                            realistic_micro: p.realistic.to_micro_dollars().value(),
                        })
                        .collect(),
                ))
            }
            Query::ProductMix {
                products,
                volume_each,
                mono_volume,
            } => {
                if *products == 0 || !(*volume_each > 0.0) || !(*mono_volume > 0.0) {
                    return Err(Error::InvalidField {
                        field: "products",
                        message: "need positive products and volumes".to_string(),
                    });
                }
                let study = product_mix_study(*products, *volume_each, *mono_volume);
                Ok(QueryResponse::ProductMix(MixReport {
                    mono_cost: study.mono_cost.value(),
                    multi_cost: study.multi_cost.value(),
                    cost_ratio: study.cost_ratio,
                    mono_utilization: study.mono_utilization,
                    multi_utilization: study.multi_utilization,
                }))
            }
            Query::ServerStats => Ok(QueryResponse::ServerStats(StatsReport::capture())),
            Query::ChipletCost {
                transistors,
                lambda_um,
                chiplets,
                spares,
                volume,
            } => {
                check_partition_shape(*chiplets, *spares, *volume)?;
                let params = maly_chiplet::ChipletParameters::fig8_mcm();
                let partition = maly_chiplet::Partition {
                    chiplets: *chiplets as u32,
                    spares: *spares as u32,
                    lambda: Microns::new(*lambda_um)?,
                    system_transistors: TransistorCount::new(*transistors)?,
                    volume: *volume,
                };
                let cost = params.price_partition(&partition)?;
                Ok(QueryResponse::Chiplet(ChipletReport::from_cost(&cost)))
            }
            Query::ChipletPartitionSweep {
                transistors,
                volume,
                lambda_min,
                lambda_max,
                lambda_steps,
                max_chiplets,
                max_spares,
            } => {
                check_window(*lambda_min, *lambda_max, *lambda_steps, MAX_SWEEP_STEPS)?;
                check_partition_shape(*max_chiplets, *max_spares, *volume)?;
                let candidates = *lambda_steps * *max_chiplets * (*max_spares + 1);
                if candidates > MAX_SWEEP_STEPS {
                    return Err(Error::InvalidField {
                        field: "lambda_steps",
                        message: format!(
                            "partition grid has {candidates} candidates, above {MAX_SWEEP_STEPS}"
                        ),
                    });
                }
                let params = maly_chiplet::ChipletParameters::fig8_mcm();
                let spec = maly_chiplet::SweepSpec {
                    system_transistors: TransistorCount::new(*transistors)?,
                    volume: *volume,
                    lambda_min: Microns::new(*lambda_min)?,
                    lambda_max: Microns::new(*lambda_max)?,
                    lambda_steps: *lambda_steps,
                    max_chiplets: *max_chiplets as u32,
                    max_spares: *max_spares as u32,
                };
                let outcome = params.sweep(&spec, exec)?;
                Ok(QueryResponse::ChipletSweep(ChipletSweepReport {
                    evaluated: outcome.evaluated,
                    feasible: outcome.feasible,
                    best: ChipletReport::from_cost(&outcome.best),
                    per_chiplet_count: outcome
                        .per_chiplet_count
                        .iter()
                        .map(ChipletReport::from_cost)
                        .collect(),
                }))
            }
        }
    }

    /// The validated grid ranges when this query is a well-formed
    /// [`Query::SurfaceTile`] — the batch planner's node extraction.
    /// Malformed tiles return `None` and keep their per-query typed
    /// error from [`Query::evaluate_with`].
    pub(crate) fn tile_request(&self) -> Option<((f64, f64, usize), (f64, f64, usize))> {
        if let Query::SurfaceTile {
            lambda_min,
            lambda_max,
            lambda_steps,
            n_tr_min,
            n_tr_max,
            n_tr_steps,
        } = self
        {
            let lambda_range = (*lambda_min, *lambda_max, *lambda_steps);
            let n_tr_range = (*n_tr_min, *n_tr_max, *n_tr_steps);
            if check_tile(lambda_range, n_tr_range).is_ok() {
                return Some((lambda_range, n_tr_range));
            }
        }
        None
    }

    /// Evaluates a batch of queries, preserving input order. Each
    /// element fails independently.
    ///
    /// The batch compiles to an evaluation plan first ([`crate::plan`]):
    /// byte-identical queries are answered once and fanned back out,
    /// and the cold surface-tile nodes of the whole batch fuse into a
    /// single deduplicated kernel dispatch. Results are bit-identical to
    /// [`Query::evaluate_batch_unplanned`] (and to per-query
    /// [`Query::evaluate_with`]) at every executor width.
    #[must_use]
    pub fn evaluate_batch(
        exec: &Executor,
        ctx: &EvalContext,
        queries: &[Query],
    ) -> Vec<Result<QueryResponse, Error>> {
        crate::planner::evaluate(exec, ctx, queries)
    }

    /// The direct batch path: every query scheduled independently
    /// across the executor, no cross-request dedup or fusion. The
    /// planner's bit-identity reference.
    #[must_use]
    pub fn evaluate_batch_unplanned(
        exec: &Executor,
        ctx: &EvalContext,
        queries: &[Query],
    ) -> Vec<Result<QueryResponse, Error>> {
        // Each query may itself fan out (surface tiles, MC); batching
        // happens at the query level, inner evaluation reuses the same
        // executor. Index order keeps the batch deterministic.
        exec.map_indexed(queries.len(), |i| queries[i].evaluate_with(exec, ctx))
    }
}

fn table3_report(row: &maly_paper_data::table3::Table3Row) -> Result<Table3Report, Error> {
    let measured = row
        .scenario()?
        .evaluate()?
        .cost_per_transistor
        .to_micro_dollars()
        .value();
    Ok(Table3Report {
        id: row.id,
        name: row.name.to_string(),
        paper_micro_dollars: row.paper_cost_micro_dollars,
        model_micro_dollars: measured,
    })
}

fn sweep_points(series: Vec<(f64, Dollars)>) -> Vec<SweepPoint> {
    series
        .into_iter()
        .map(|(lambda_um, cost)| SweepPoint {
            lambda_um,
            cost_per_transistor: cost.value(),
        })
        .collect()
}

fn surface_report(tile: &Arc<CostSurface>, exec: &Executor) -> SurfaceReport {
    SurfaceReport {
        lambda_axis: tile.lambda_axis().to_vec(),
        n_tr_axis: tile.n_tr_axis().to_vec(),
        values: tile.values().to_vec(),
        optimal_lambda_per_n_tr: tile.optimal_lambda_per_n_tr_with(exec),
        global_minimum: tile.global_minimum(),
    }
}

// ---------------------------------------------------------------------
// Response serialization
// ---------------------------------------------------------------------

impl QueryResponse {
    /// The JSON object form of this response — the wire format's `ok`
    /// payload. Serialization is deterministic: same response, same
    /// bytes.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let pair = |(a, b): (f64, f64)| Json::Arr(vec![Json::Num(a), Json::Num(b)]);
        let or_null = |v: Option<Json>| v.unwrap_or(Json::Null);
        let map = |v: &[(String, u64)]| {
            Json::Obj(
                v.iter()
                    .map(|(k, n)| (k.clone(), Json::Num(*n as f64)))
                    .collect(),
            )
        };
        let kind = |k: &str| ("kind", Json::Str(k.to_string()));
        match self {
            QueryResponse::Product(r) => wire::tagged("product", r),
            QueryResponse::Table3(rows) => Json::obj(vec![
                kind("table3"),
                ("rows", Json::Arr(rows.iter().map(wire::flat).collect())),
            ]),
            QueryResponse::Sweep(points) => Json::obj(vec![
                kind("sweep"),
                (
                    "points",
                    Json::Arr(
                        points
                            .iter()
                            .map(|p| pair((p.lambda_um, p.cost_per_transistor)))
                            .collect(),
                    ),
                ),
            ]),
            QueryResponse::Surface(s) => Json::obj(vec![
                kind("surface"),
                (
                    "lambda_axis",
                    Json::Arr(s.lambda_axis.iter().copied().map(Json::Num).collect()),
                ),
                (
                    "n_tr_axis",
                    Json::Arr(s.n_tr_axis.iter().copied().map(Json::Num).collect()),
                ),
                (
                    "values",
                    Json::Arr(
                        s.values
                            .iter()
                            .map(|row| {
                                Json::Arr(row.iter().map(|c| or_null(c.map(Json::Num))).collect())
                            })
                            .collect(),
                    ),
                ),
                (
                    "optimal_lambda_per_n_tr",
                    Json::Arr(
                        s.optimal_lambda_per_n_tr
                            .iter()
                            .map(|c| or_null(c.map(pair)))
                            .collect(),
                    ),
                ),
                (
                    "global_minimum",
                    or_null(s.global_minimum.map(|(l, n, c)| {
                        Json::Arr(vec![Json::Num(l), Json::Num(n), Json::Num(c)])
                    })),
                ),
            ]),
            QueryResponse::OptimalLambda(best) => Json::obj(vec![
                kind("optimal_lambda"),
                ("best", or_null(best.as_ref().map(wire::flat))),
            ]),
            QueryResponse::Mc(m) => wire::tagged("mc", m),
            QueryResponse::Roadmap(rows) => Json::obj(vec![
                kind("roadmap"),
                ("rows", Json::Arr(rows.iter().map(wire::flat).collect())),
            ]),
            QueryResponse::ProductMix(m) => wire::tagged("product_mix", m),
            QueryResponse::Chiplet(r) => wire::tagged("chiplet", r),
            QueryResponse::ChipletSweep(s) => Json::obj(vec![
                kind("chiplet_sweep"),
                ("evaluated", Json::Num(s.evaluated as f64)),
                ("feasible", Json::Num(s.feasible as f64)),
                ("best", wire::flat(&s.best)),
                (
                    "per_chiplet_count",
                    Json::Arr(s.per_chiplet_count.iter().map(wire::flat).collect()),
                ),
            ]),
            QueryResponse::ServerStats(s) => {
                let latency = s
                    .latency
                    .iter()
                    .map(|l| {
                        let summary = Json::obj(vec![
                            ("count", Json::Num(l.count as f64)),
                            ("mean_ns", Json::Num(l.mean_ns)),
                            ("p50_ns", Json::Num(l.p50_ns)),
                            ("p90_ns", Json::Num(l.p90_ns)),
                            ("p99_ns", Json::Num(l.p99_ns)),
                            ("p999_ns", Json::Num(l.p999_ns)),
                        ]);
                        (l.name.clone(), summary)
                    })
                    .collect();
                let gauges = s
                    .gauges
                    .iter()
                    .map(|(k, n)| (k.clone(), Json::Num(*n as f64)))
                    .collect();
                Json::obj(vec![
                    kind("server_stats"),
                    ("work", map(&s.work)),
                    ("diag", map(&s.diag)),
                    ("gauges", Json::Obj(gauges)),
                    ("latency", Json::Obj(latency)),
                ])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row1_spec() -> ProductSpec {
        ProductSpec {
            name: "BiCMOS µP".to_string(),
            transistors: 3.1e6,
            lambda_um: 0.8,
            density: 150.0,
            radius_cm: 7.5,
            yield0: 0.9,
            c0: 700.0,
            x: 1.4,
        }
    }

    #[test]
    fn product_query_reproduces_table3_row1() {
        let resp = Query::Product(row1_spec()).evaluate().unwrap();
        let QueryResponse::Product(report) = resp else {
            panic!("wrong response kind");
        };
        assert_eq!(report.dies_per_wafer, 46);
        assert!((report.cost_per_transistor_micro - 9.40).abs() < 0.05);
    }

    #[test]
    fn surface_tile_validates_before_compute() {
        // CostSurface::compute panics on degenerate grids; the query
        // layer must reject them as typed errors instead.
        let q = Query::SurfaceTile {
            lambda_min: 0.4,
            lambda_max: 1.5,
            lambda_steps: 1,
            n_tr_min: 2.0e4,
            n_tr_max: 4.0e6,
            n_tr_steps: 6,
        };
        assert!(matches!(q.evaluate(), Err(Error::InvalidField { .. })));
        let q = Query::SurfaceTile {
            lambda_min: 1.5,
            lambda_max: 0.4,
            lambda_steps: 8,
            n_tr_min: 2.0e4,
            n_tr_max: 4.0e6,
            n_tr_steps: 6,
        };
        assert!(matches!(q.evaluate(), Err(Error::InvalidField { .. })));
        let q = Query::SurfaceTile {
            lambda_min: 0.4,
            lambda_max: 1.5,
            lambda_steps: 8,
            n_tr_min: 2.0e4,
            n_tr_max: 4.0e6,
            n_tr_steps: MAX_TILE_STEPS + 1,
        };
        assert!(matches!(q.evaluate(), Err(Error::InvalidField { .. })));
    }

    #[test]
    fn unknown_table_row_is_a_typed_error() {
        assert!(matches!(
            Query::Table3Row { id: 99 }.evaluate(),
            Err(Error::UnknownTableRow { id: 99 })
        ));
    }

    #[test]
    fn evaluation_is_thread_count_invariant() {
        // Evaluations bump the global tile counters; hold the lock so
        // the counter-golden tests see clean deltas.
        let _guard = context::counter_test_lock();
        let ctx = EvalContext::new();
        let queries = vec![
            Query::Table3,
            Query::Scenario2Sweep {
                x: 2.4,
                lambda_min: 0.3,
                lambda_max: 1.2,
                steps: 31,
            },
            Query::SurfaceTile {
                lambda_min: 0.4,
                lambda_max: 1.5,
                lambda_steps: 12,
                n_tr_min: 2.0e4,
                n_tr_max: 4.0e6,
                n_tr_steps: 10,
            },
            Query::McYield {
                products: 3,
                volume_each: 2_000.0,
                replications: 16,
                jitter: 0.3,
                seed: 42,
            },
            Query::ChipletPartitionSweep {
                transistors: 2.0e6,
                volume: 50_000,
                lambda_min: 0.5,
                lambda_max: 1.2,
                lambda_steps: 15,
                max_chiplets: 8,
                max_spares: 1,
            },
        ];
        for q in &queries {
            // Fresh context per width so the tile cache cannot mask a
            // divergent computation.
            let serial = q
                .evaluate_with(&Executor::with_threads(1), &EvalContext::new())
                .unwrap();
            let parallel = q
                .evaluate_with(&Executor::with_threads(8), &EvalContext::new())
                .unwrap();
            assert_eq!(
                serial.to_json().write(),
                parallel.to_json().write(),
                "{q:?} must be thread-count-invariant"
            );
        }
        // And a batch call preserves order and content.
        let batch = Query::evaluate_batch(&Executor::with_threads(4), &ctx, &queries);
        assert_eq!(batch.len(), queries.len());
        assert!(batch.iter().all(Result::is_ok));
    }

    #[test]
    fn repeated_surface_tile_reuses_the_cache() {
        let _guard = context::counter_test_lock();
        let ctx = EvalContext::new();
        let exec = Executor::serial();
        let q = Query::SurfaceTile {
            lambda_min: 0.5,
            lambda_max: 1.4,
            lambda_steps: 9,
            n_tr_min: 1.0e5,
            n_tr_max: 1.0e6,
            n_tr_steps: 7,
        };
        let cells_before = context::TILE_CELLS.value();
        let (hits0, misses0) = (context::TILE_HITS.value(), context::TILE_MISSES.value());
        let first = q.evaluate_with(&exec, &ctx).unwrap();
        let after_first = context::TILE_CELLS.value();
        assert_eq!(after_first - cells_before, 9 * 7, "cold tile evaluates");
        assert_eq!(context::TILE_MISSES.value() - misses0, 1, "one miss");
        assert_eq!(context::TILE_HITS.value() - hits0, 0);
        let second = q.evaluate_with(&exec, &ctx).unwrap();
        assert_eq!(
            context::TILE_CELLS.value(),
            after_first,
            "warm tile adds zero grid-cell work"
        );
        assert_eq!(context::TILE_HITS.value() - hits0, 1, "repeat is one hit");
        assert_eq!(context::TILE_MISSES.value() - misses0, 1, "and no new miss");
        assert_eq!(first.to_json().write(), second.to_json().write());
    }

    #[test]
    fn tile_request_extracts_only_valid_surface_tiles() {
        let good = Query::SurfaceTile {
            lambda_min: 0.5,
            lambda_max: 1.0,
            lambda_steps: 9,
            n_tr_min: 2.0e4,
            n_tr_max: 4.0e6,
            n_tr_steps: 24,
        };
        assert_eq!(
            good.tile_request(),
            Some(((0.5, 1.0, 9), (2.0e4, 4.0e6, 24)))
        );
        let degenerate = Query::SurfaceTile {
            lambda_min: 1.0,
            lambda_max: 0.5,
            lambda_steps: 9,
            n_tr_min: 2.0e4,
            n_tr_max: 4.0e6,
            n_tr_steps: 24,
        };
        assert_eq!(degenerate.tile_request(), None);
        assert_eq!(Query::Table3.tile_request(), None);
    }

    #[test]
    fn server_stats_snapshot_is_sorted_and_typed() {
        let QueryResponse::ServerStats(report) = Query::ServerStats.evaluate().unwrap() else {
            panic!("wrong response kind");
        };
        // Every section must be name-sorted — the deterministic-shape
        // contract the trace checker and goldens rely on.
        assert!(report.work.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(report.diag.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(report.gauges.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(report.latency.windows(2).all(|w| w[0].name <= w[1].name));
        // Evaluating the stats query itself bumps model.queries, so the
        // work section is never empty.
        assert!(report.work.iter().any(|(k, _)| k == "model.queries"));
        let text = QueryResponse::ServerStats(report).to_json().write();
        assert!(
            text.starts_with("{\"kind\":\"server_stats\",\"work\":{"),
            "{text}"
        );
        assert!(text.contains("\"diag\":{"), "{text}");
        assert!(text.contains("\"gauges\":{"), "{text}");
        assert!(text.contains("\"latency\":{"), "{text}");
    }

    #[test]
    fn chiplet_sweep_matches_direct_evaluation_and_pins_the_optimum() {
        let q = Query::ChipletPartitionSweep {
            transistors: 2.0e6,
            volume: 50_000,
            lambda_min: 0.5,
            lambda_max: 1.2,
            lambda_steps: 15,
            max_chiplets: 8,
            max_spares: 1,
        };
        let QueryResponse::ChipletSweep(report) = q.evaluate().unwrap() else {
            panic!("wrong kind");
        };
        // Bit-identical to the chiplet crate's direct sweep.
        let params = maly_chiplet::ChipletParameters::fig8_mcm();
        let spec = maly_chiplet::SweepSpec {
            system_transistors: TransistorCount::new(2.0e6).unwrap(),
            volume: 50_000,
            lambda_min: Microns::new(0.5).unwrap(),
            lambda_max: Microns::new(1.2).unwrap(),
            lambda_steps: 15,
            max_chiplets: 8,
            max_spares: 1,
        };
        let direct = params.sweep(&spec, &Executor::from_env()).unwrap();
        assert_eq!(report.evaluated, direct.evaluated);
        assert_eq!(report.feasible, direct.feasible);
        assert_eq!(
            report.best.cost_per_system.to_bits(),
            direct.best.cost_per_system.value().to_bits()
        );
        // The reference-point golden: 2M transistors at 50k volume
        // partition into 4 chiplets with no spares at λ = 1.2 µm.
        assert_eq!((report.best.chiplets, report.best.spares), (4, 0));
        assert!((report.best.lambda_um - 1.2).abs() < 1e-12);
        assert!((report.best.cost_per_system - 64.950_204_570_179).abs() < 1e-6);
        assert_eq!(report.per_chiplet_count.len(), 8);
    }

    #[test]
    fn chiplet_queries_validate_their_shape() {
        let base = Query::ChipletCost {
            transistors: 2.0e6,
            lambda_um: 0.9,
            chiplets: 0,
            spares: 0,
            volume: 1,
        };
        assert!(matches!(base.evaluate(), Err(Error::InvalidField { .. })));
        let q = Query::ChipletPartitionSweep {
            transistors: 2.0e6,
            volume: 50_000,
            lambda_min: 0.5,
            lambda_max: 1.2,
            lambda_steps: MAX_SWEEP_STEPS,
            max_chiplets: 8,
            max_spares: 1,
        };
        // 100k λ steps × 8 chiplets × 2 spares overflows the grid cap.
        assert!(matches!(q.evaluate(), Err(Error::InvalidField { .. })));
        let q = Query::ChipletCost {
            transistors: 2.0e6,
            lambda_um: 0.9,
            chiplets: 4,
            spares: MAX_SPARES + 1,
            volume: 1,
        };
        assert!(matches!(q.evaluate(), Err(Error::InvalidField { .. })));
    }

    #[test]
    fn sweep_response_matches_direct_scenario_evaluation() {
        let q = Query::Scenario1Sweep {
            x: 1.4,
            lambda_min: 0.4,
            lambda_max: 1.0,
            steps: 7,
        };
        let QueryResponse::Sweep(points) = q.evaluate().unwrap() else {
            panic!("wrong kind");
        };
        let direct = Scenario1::fig6(1.4)
            .unwrap()
            .sweep(Microns::new(0.4).unwrap(), Microns::new(1.0).unwrap(), 7)
            .unwrap();
        assert_eq!(points.len(), direct.len());
        for (p, (l, c)) in points.iter().zip(&direct) {
            assert_eq!(p.lambda_um.to_bits(), l.to_bits());
            assert_eq!(p.cost_per_transistor.to_bits(), c.value().to_bits());
        }
    }
}
