//! Multi-die partition economics — the chiplet cost question grown out
//! of the paper's Sec. VI MCM discussion ("packaging is the cost
//! multiplier the die model alone can't see").
//!
//! A system of `N_tr` transistors is split into `n` equal chiplets
//! fabricated at feature size `λ`, plus an optional `s` spare chiplets
//! for redundancy-enhanced yield recovery. The cost of one *good*
//! system composes four layers of the existing stack:
//!
//! * **die cost** — eq. (1)–(7) per chiplet via
//!   [`SurfaceParameters::cost_at`] (the lane-batched
//!   [`SurfaceParameters::costs_for_points`] kernel underneath the
//!   partition sweep);
//! * **known-good-die test cost** — the \[31\] KGD supply model from
//!   `maly-test-economics`: paying a per-die test cost buys a residual
//!   defect level, [`DieSupply::known_good`];
//! * **packaging / bonding** — a package base cost plus one bond per
//!   joint, with assembly yield `Y_asm^(m−1)` over `m = n + s` mounted
//!   dies (a monolithic die has no joints and no assembly risk);
//! * **NRE amortization** — per-design NRE, plus an interposer NRE for
//!   multi-die packages, divided by the production volume `V`.
//!
//! The partition sweep ([`ChipletParameters::sweep`]) then answers the
//! CATCH-style question: *given `N_tr` total, how many chiplets of what
//! size minimize \$/system at volume `V`?* Small dies yield better and
//! may be the only feasible option for large `N_tr`, but every extra
//! die pays test, bonding, assembly fallout, and interposer NRE — the
//! optimum moves with volume and defectivity.
//!
//! The model forms follow Chiplet Actuary (arXiv 2203.12268) and CATCH
//! (arXiv 2503.15753); calibration defaults stay in the paper's 1994
//! operating point (Fig 8 wafer economics). See DESIGN.md §15.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use maly_cost_model::surface::SurfaceParameters;
// Re-exported so callers can name the error type every public entry
// point here returns without depending on maly-cost-model directly.
pub use maly_cost_model::CostError;
use maly_par::Executor;
use maly_test_economics::mcm::DieSupply;
use maly_units::{Dollars, Microns, Probability, TransistorCount, UnitError};

/// Chiplet partitions priced end-to-end (die + test + assembly + NRE).
/// Work counter: the sweep prices every grid candidate exactly once
/// regardless of thread count, so this is thread-count-invariant.
pub static PARTITIONS: maly_obs::Counter = maly_obs::Counter::work("chiplet.partitions");

/// Eq. (1) die-cost points dispatched through the lane-batched surface
/// kernel on behalf of a partition sweep (one per unique `(λ, n)` pair;
/// spares reuse the same die point). Thread-count-invariant Work
/// counter.
pub static DIE_POINTS: maly_obs::Counter = maly_obs::Counter::work("chiplet.die_points");

/// Estimated serial cost of pricing one candidate partition (assembly
/// and spare yield, packaging, NRE), the executor cost hint for the
/// sweep's fan-out. Measured on a 2-vCPU x86-64 container: the serial
/// `partition_sweep_31x16x4` bench sweep (138 µs, best of 400) minus
/// its 496-point `costs_for_points` batch (40 µs), over 1,984
/// candidates. Sweeps under ~4,000 candidates therefore stay serial.
const CANDIDATE_HINT_NS: f64 = 50.0;

/// Calibration of the multi-die cost model.
///
/// Every monetary/probabilistic knob is a maly-units newtype; the
/// defaults ([`ChipletParameters::fig8_mcm`]) extend the Fig 8 wafer
/// calibration with the \[30, 31\] MCM operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipletParameters {
    /// Wafer/die economics — eq. (1)–(7) calibration.
    pub surface: SurfaceParameters,
    /// Defect level of probe-only dies (wafer-probe escapes).
    pub probe_defect_level: Probability,
    /// Per-die burn-in + full-test cost that upgrades a probe-only die
    /// to known-good.
    pub kgd_test_cost: Dollars,
    /// Residual defect level of a known-good die.
    pub kgd_residual_dl: Probability,
    /// Per-joint assembly yield `Y_asm` (bonding survives with this
    /// probability; a partition with `m` mounted dies has `m − 1`
    /// joints).
    pub bond_yield: Probability,
    /// Package/substrate base cost (paid once per system attempt).
    pub package_base: Dollars,
    /// Cost of one bond (per joint).
    pub bond_cost: Dollars,
    /// NRE per chiplet design (masks, validation). Equal-split
    /// partitions reuse one design for all chiplets.
    pub nre_design: Dollars,
    /// Extra NRE for a multi-die package (interposer design, bonding
    /// bring-up). Zero joints → not paid.
    pub nre_interposer: Dollars,
}

impl ChipletParameters {
    /// The default calibration: Fig 8 wafer economics (`C₀ = $500`,
    /// `X = 1.4`, six-inch wafer, `d_d = 152`) extended with the MCM
    /// study's test/assembly operating point — 5% probe escapes,
    /// \$2.50/die KGD testing buying 0.1% residual DL, 99% per-joint
    /// bond yield, \$15 package base, \$2 per bond, \$250k design NRE
    /// and \$100k interposer NRE.
    #[must_use]
    pub fn fig8_mcm() -> Self {
        Self {
            surface: SurfaceParameters::fig8(),
            probe_defect_level: Probability::const_new(0.05),
            kgd_test_cost: Dollars::const_new(2.5),
            kgd_residual_dl: Probability::const_new(0.001),
            bond_yield: Probability::const_new(0.99),
            package_base: Dollars::const_new(15.0),
            bond_cost: Dollars::const_new(2.0),
            nre_design: Dollars::const_new(250_000.0),
            nre_interposer: Dollars::const_new(100_000.0),
        }
    }

    /// Prices one partition end-to-end.
    ///
    /// # Errors
    ///
    /// Returns an error when the partition is degenerate (zero chiplets
    /// or volume) or the per-chiplet die is infeasible at `λ` (die too
    /// large, yield collapsed).
    pub fn price_partition(&self, partition: &Partition) -> Result<PartitionCost, CostError> {
        PARTITIONS.incr();
        DIE_POINTS.incr();
        let per_chiplet = partition.transistors_per_chiplet()?;
        let cost_per_transistor = self.surface.cost_at(partition.lambda, per_chiplet)?.value();
        self.finish_partition(partition, per_chiplet, cost_per_transistor)
            .ok_or_else(infeasible)
    }

    /// Completes the pricing of one partition from an already-evaluated
    /// eq. (1) cost-per-transistor value (the sweep batches those
    /// through the lane kernel). `None` when yield collapses to zero.
    fn finish_partition(
        &self,
        partition: &Partition,
        per_chiplet: TransistorCount,
        cost_per_transistor: f64,
    ) -> Option<PartitionCost> {
        if partition.volume == 0 {
            return None;
        }
        let bare_die_cost = Dollars::new(cost_per_transistor * per_chiplet.value()).ok()?;
        let supply = DieSupply::known_good(
            DieSupply::probe_only(bare_die_cost, self.probe_defect_level),
            self.kgd_test_cost,
            self.kgd_residual_dl,
        );

        let needed = partition.chiplets;
        let mounted = needed.checked_add(partition.spares)?;
        let joints = mounted - 1;
        let assembly_yield = powi_prob(self.bond_yield, joints);
        // A system is logic-good when at least `needed` of the `mounted`
        // dies escape the residual defect level.
        let die_good = supply.defect_level.complement();
        let logic_yield = at_least_k_good(mounted, needed, die_good.value());
        let system_yield = assembly_yield.value() * logic_yield;
        if system_yield <= 0.0 {
            return None;
        }

        let packaging_cost = self.package_base + self.bond_cost * f64::from(joints);
        let build_cost = supply.die_cost * f64::from(mounted) + packaging_cost;
        let nre = if joints > 0 {
            self.nre_design + self.nre_interposer
        } else {
            self.nre_design
        };
        // `volume` is at most 2^53-class in practice; the lossy cast is
        // exact for every volume a sweep accepts.
        #[allow(clippy::cast_precision_loss)]
        let nre_per_system = nre / (partition.volume as f64);
        let cost_per_system = build_cost / system_yield + nre_per_system;

        Some(PartitionCost {
            chiplets: needed,
            spares: partition.spares,
            lambda: partition.lambda,
            transistors_per_chiplet: per_chiplet,
            known_good_die_cost: supply.die_cost,
            assembly_yield,
            system_yield: Probability::new(system_yield).ok()?,
            packaging_cost,
            nre_per_system,
            cost_per_system,
        })
    }

    /// Runs the partition search: for every `(λ, n, s)` grid candidate,
    /// prices the partition and returns the deterministic arg-min (ties
    /// resolve to the lowest chiplet count, then smallest `λ`, then
    /// fewest spares — grid order).
    ///
    /// Die costs for the `λ × n` grid go through the lane-batched
    /// [`SurfaceParameters::costs_for_points`] in one dispatch; the
    /// per-candidate assembly/NRE composition then fans out over the
    /// executor, tuned so grids too small to repay a thread spawn run
    /// serial. Work done is thread-count-invariant: every candidate
    /// is priced exactly once.
    ///
    /// # Errors
    ///
    /// Returns an error when the spec is degenerate (empty grid, zero
    /// volume, inverted λ window) or no grid candidate is feasible.
    pub fn sweep(&self, spec: &SweepSpec, exec: &Executor) -> Result<SweepOutcome, CostError> {
        spec.validate()?;
        let _span = maly_obs::span("chiplet.sweep");
        let lambdas = spec.lambdas();

        // One die-cost point per (λ, n): spares mount more of the same
        // die, so the eq. (1) batch is the λ × n grid, not λ × n × s.
        let mut points: Vec<(Microns, TransistorCount)> =
            Vec::with_capacity(lambdas.len() * spec.max_chiplets as usize);
        for n in 1..=spec.max_chiplets {
            let per_chiplet = TransistorCount::new(spec.system_transistors.value() / f64::from(n))?;
            for &lambda in &lambdas {
                points.push((lambda, per_chiplet));
            }
        }
        DIE_POINTS.add(points.len() as u64);
        let die_costs = self.surface.costs_for_points(&points);

        let spares_per = spec.max_spares as usize + 1;
        let evaluated = points.len() * spares_per;
        PARTITIONS.add(evaluated as u64);

        let exec = exec.tuned_for(evaluated, CANDIDATE_HINT_NS);
        let candidates = exec.map_indexed(evaluated, |k| {
            let point = k / spares_per;
            let spares = (k % spares_per) as u32;
            let cost_per_transistor = die_costs[point]?;
            let (lambda, per_chiplet) = points[point];
            let chiplets = (point / lambdas.len()) as u32 + 1;
            let partition = Partition {
                chiplets,
                spares,
                lambda,
                system_transistors: spec.system_transistors,
                volume: spec.volume,
            };
            self.finish_partition(&partition, per_chiplet, cost_per_transistor)
        });

        // Serial index-ordered reduction: strict less-than keeps the
        // arg-min deterministic for any thread count.
        let mut per_chiplet_count: Vec<PartitionCost> = Vec::new();
        let mut feasible = 0usize;
        for n in 1..=spec.max_chiplets as usize {
            let block = (n - 1) * lambdas.len() * spares_per..n * lambdas.len() * spares_per;
            let mut best_for_n: Option<PartitionCost> = None;
            for candidate in candidates[block].iter().flatten() {
                feasible += 1;
                let better = best_for_n
                    .as_ref()
                    .is_none_or(|b| candidate.cost_per_system < b.cost_per_system);
                if better {
                    best_for_n = Some(*candidate);
                }
            }
            if let Some(best) = best_for_n {
                per_chiplet_count.push(best);
            }
        }
        let best = per_chiplet_count
            .iter()
            .copied()
            .reduce(|a, b| {
                if b.cost_per_system < a.cost_per_system {
                    b
                } else {
                    a
                }
            })
            .ok_or_else(infeasible)?;

        Ok(SweepOutcome {
            evaluated,
            feasible,
            best,
            per_chiplet_count,
        })
    }
}

/// One candidate partition: `chiplets` equal dies (plus `spares`
/// redundant ones) carrying `system_transistors` in total, fabricated
/// at `lambda`, amortized over `volume` systems.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Partition {
    /// Dies required for a working system (`n ≥ 1`).
    pub chiplets: u32,
    /// Redundant dies mounted beyond `chiplets`.
    pub spares: u32,
    /// Feature size.
    pub lambda: Microns,
    /// Total system transistor count (split equally over `chiplets`).
    pub system_transistors: TransistorCount,
    /// Production volume the NRE amortizes over.
    pub volume: u64,
}

impl Partition {
    /// Transistors per chiplet: the equal split `N_tr / n`.
    ///
    /// # Errors
    ///
    /// Returns an error when `chiplets` is zero.
    pub fn transistors_per_chiplet(&self) -> Result<TransistorCount, CostError> {
        if self.chiplets == 0 {
            return Err(CostError::InvalidInput(UnitError::NotPositive {
                quantity: "chiplets",
                value: 0.0,
            }));
        }
        Ok(TransistorCount::new(
            self.system_transistors.value() / f64::from(self.chiplets),
        )?)
    }
}

/// The priced breakdown of one partition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionCost {
    /// Dies required for a working system.
    pub chiplets: u32,
    /// Redundant dies mounted.
    pub spares: u32,
    /// Feature size.
    pub lambda: Microns,
    /// Transistors on each die.
    pub transistors_per_chiplet: TransistorCount,
    /// Per-die cost delivered known-good (bare die + KGD test).
    pub known_good_die_cost: Dollars,
    /// `Y_asm^(m−1)` over the `m − 1` joints.
    pub assembly_yield: Probability,
    /// Assembly yield × P(enough dies escape the residual DL).
    pub system_yield: Probability,
    /// Package base plus per-joint bonding.
    pub packaging_cost: Dollars,
    /// NRE (design, plus interposer when multi-die) over volume.
    pub nre_per_system: Dollars,
    /// Expected cost of one good system: build cost over system yield,
    /// plus amortized NRE.
    pub cost_per_system: Dollars,
}

/// The partition-search grid: `λ` window × chiplet count × spares.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepSpec {
    /// Total system transistor count.
    pub system_transistors: TransistorCount,
    /// Production volume.
    pub volume: u64,
    /// Smallest feature size probed.
    pub lambda_min: Microns,
    /// Largest feature size probed.
    pub lambda_max: Microns,
    /// Grid points along λ (≥ 1; endpoints included).
    pub lambda_steps: usize,
    /// Largest chiplet count probed (`n` runs 1..=this).
    pub max_chiplets: u32,
    /// Largest spare count probed (`s` runs 0..=this).
    pub max_spares: u32,
}

impl SweepSpec {
    /// Total candidates the sweep prices.
    #[must_use]
    pub fn candidates(&self) -> usize {
        self.lambda_steps * self.max_chiplets as usize * (self.max_spares as usize + 1)
    }

    fn validate(&self) -> Result<(), CostError> {
        if self.lambda_steps == 0 {
            return Err(CostError::InvalidInput(UnitError::NotPositive {
                quantity: "lambda steps",
                value: 0.0,
            }));
        }
        if self.max_chiplets == 0 {
            return Err(CostError::InvalidInput(UnitError::NotPositive {
                quantity: "max chiplets",
                value: 0.0,
            }));
        }
        if self.volume == 0 {
            return Err(CostError::InvalidInput(UnitError::NotPositive {
                quantity: "volume",
                value: 0.0,
            }));
        }
        if self.lambda_max.value() < self.lambda_min.value() {
            return Err(CostError::InvalidInput(UnitError::OutOfRange {
                quantity: "lambda window",
                value: self.lambda_max.value(),
                min: self.lambda_min.value(),
                max: f64::INFINITY,
            }));
        }
        Ok(())
    }

    /// The λ grid: `lambda_steps` points from min to max inclusive.
    fn lambdas(&self) -> Vec<Microns> {
        if self.lambda_steps == 1 {
            return vec![self.lambda_min];
        }
        let lo = self.lambda_min.value();
        let hi = self.lambda_max.value();
        #[allow(clippy::cast_precision_loss)]
        let span = (hi - lo) / (self.lambda_steps - 1) as f64;
        (0..self.lambda_steps)
            .map(|i| {
                #[allow(clippy::cast_precision_loss)]
                let v = lo + span * i as f64;
                // The grid stays inside the validated window, so the
                // clamp only guards float round-off at the top end.
                Microns::new(v.min(hi)).unwrap_or(self.lambda_min)
            })
            .collect()
    }
}

/// The result of a partition search.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    /// Grid candidates priced (feasible or not).
    pub evaluated: usize,
    /// Candidates with a feasible die and non-zero system yield.
    pub feasible: usize,
    /// The deterministic arg-min over the grid.
    pub best: PartitionCost,
    /// The best feasible partition at each chiplet count (ascending
    /// `n`; infeasible counts are omitted).
    pub per_chiplet_count: Vec<PartitionCost>,
}

/// `P(at least k of n independent trials succeed)` at per-trial
/// probability `p` — the redundancy recovery term. Exact binomial tail;
/// `n` is a mounted-die count, far below any overflow concern.
fn at_least_k_good(n: u32, k: u32, p: f64) -> f64 {
    let q = 1.0 - p;
    let mut tail = 0.0;
    // C(n, j) built incrementally: C(n, 0) = 1, C(n, j) = C(n, j−1)·(n−j+1)/j.
    let mut binom = 1.0;
    let mut term_p = 1.0; // p^j
    let mut sum_below = 0.0;
    // Accumulate P(fewer than k good) and return the complement — for
    // the usual case k close to n this keeps the loop short and the
    // arithmetic identical across platforms (pure f64 adds/muls).
    for j in 0..k {
        let q_pow = powi_f64(q, n - j);
        sum_below += binom * term_p * q_pow;
        binom *= f64::from(n - j) / f64::from(j + 1);
        term_p *= p;
    }
    tail += 1.0 - sum_below;
    tail.clamp(0.0, 1.0)
}

/// `p^k` by exponentiation-by-squaring on the raw value — deterministic
/// and `powf`-free on the sweep's per-candidate path.
fn powi_f64(base: f64, exp: u32) -> f64 {
    let mut result = 1.0;
    let mut base = base;
    let mut exp = exp;
    while exp > 0 {
        if exp & 1 == 1 {
            result *= base;
        }
        base *= base;
        exp >>= 1;
    }
    result
}

fn powi_prob(p: Probability, exp: u32) -> Probability {
    Probability::new(powi_f64(p.value(), exp).clamp(0.0, 1.0)).unwrap_or(Probability::ZERO)
}

fn infeasible() -> CostError {
    CostError::InvalidInput(UnitError::NotPositive {
        quantity: "feasible chiplet partitions",
        value: 0.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_spec() -> SweepSpec {
        SweepSpec {
            system_transistors: TransistorCount::new(2.0e6).unwrap(),
            volume: 50_000,
            lambda_min: Microns::new(0.5).unwrap(),
            lambda_max: Microns::new(1.2).unwrap(),
            lambda_steps: 15,
            max_chiplets: 8,
            max_spares: 1,
        }
    }

    #[test]
    fn monolithic_partition_prices_without_assembly_terms() {
        let params = ChipletParameters::fig8_mcm();
        let mono = Partition {
            chiplets: 1,
            spares: 0,
            lambda: Microns::new(1.0).unwrap(),
            system_transistors: TransistorCount::new(1.0e6).unwrap(),
            volume: 10_000,
        };
        let cost = params.price_partition(&mono).unwrap();
        assert!((cost.assembly_yield.value() - 1.0).abs() < 1e-15);
        // No joints: packaging is the package base alone, NRE excludes
        // the interposer.
        assert!((cost.packaging_cost.value() - params.package_base.value()).abs() < 1e-12);
        let nre = params.nre_design.value() / 10_000.0;
        assert!((cost.nre_per_system.value() - nre).abs() < 1e-9);
    }

    #[test]
    fn spares_raise_system_yield_and_cost_terms_stay_consistent() {
        let params = ChipletParameters::fig8_mcm();
        let base = Partition {
            chiplets: 4,
            spares: 0,
            lambda: Microns::new(0.9).unwrap(),
            system_transistors: TransistorCount::new(8.0e6).unwrap(),
            volume: 50_000,
        };
        let spared = Partition { spares: 1, ..base };
        let without = params.price_partition(&base).unwrap();
        let with = params.price_partition(&spared).unwrap();
        // One more joint costs assembly yield but the redundancy gain on
        // the logic side must appear in the ratio of the two yields.
        let logic_gain = with.system_yield.value() / with.assembly_yield.value()
            - without.system_yield.value() / without.assembly_yield.value();
        assert!(logic_gain > 0.0);
        assert!(with.packaging_cost.value() > without.packaging_cost.value());
    }

    #[test]
    fn binomial_tail_matches_direct_expansion() {
        // 3-of-4 at p=0.9: C(4,3)·0.9³·0.1 + 0.9⁴.
        let direct = 4.0 * 0.9f64.powi(3) * 0.1 + 0.9f64.powi(4);
        assert!((at_least_k_good(4, 3, 0.9) - direct).abs() < 1e-12);
        // k = n degenerates to pⁿ; k = 0 is certain.
        assert!((at_least_k_good(6, 6, 0.7) - 0.7f64.powi(6)).abs() < 1e-12);
        assert!((at_least_k_good(5, 0, 0.2) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn sweep_is_thread_count_invariant() {
        let params = ChipletParameters::fig8_mcm();
        let spec = reference_spec();
        let serial = params.sweep(&spec, &Executor::serial()).unwrap();
        for threads in [2, 8] {
            let parallel = params
                .sweep(&spec, &Executor::with_threads(threads))
                .unwrap();
            assert_eq!(serial, parallel, "sweep drifted at {threads} threads");
            assert_eq!(
                serial.best.cost_per_system.value().to_bits(),
                parallel.best.cost_per_system.value().to_bits()
            );
        }
    }

    #[test]
    fn sweep_golden_reference_partition() {
        // The acceptance golden: the optimal partition for the
        // reference (N_tr = 2·10⁷, V = 50 000) point under the
        // fig8_mcm calibration. Drift here means the model changed.
        let params = ChipletParameters::fig8_mcm();
        let outcome = params
            .sweep(&reference_spec(), &Executor::serial())
            .unwrap();
        assert_eq!(outcome.evaluated, 15 * 8 * 2);
        assert_eq!(outcome.feasible, 240);
        let best = outcome.best;
        assert_eq!(
            (best.chiplets, best.spares),
            (4, 0),
            "optimal partition moved: {best:?}"
        );
        assert!(
            (best.lambda.value() - 1.2).abs() < 1e-12,
            "λ* = {}",
            best.lambda.value()
        );
        assert!(
            (best.cost_per_system.value() - 64.950_204_570_179).abs() < 1e-6,
            "cost/system = {}",
            best.cost_per_system.value()
        );
    }

    #[test]
    fn monolithic_loses_to_chiplets_for_large_systems() {
        // 20M transistors on one 1994 die is either infeasible or
        // yield-crushed; the sweep must land on a multi-die partition.
        let params = ChipletParameters::fig8_mcm();
        let outcome = params
            .sweep(&reference_spec(), &Executor::serial())
            .unwrap();
        assert!(outcome.best.chiplets > 1);
        // Every per-n row with n ≥ 2 must beat n = 1 when n = 1 even
        // appears.
        if let Some(mono) = outcome.per_chiplet_count.iter().find(|c| c.chiplets == 1) {
            assert!(outcome.best.cost_per_system < mono.cost_per_system);
        }
    }

    #[test]
    fn low_volume_punishes_multi_die_nre() {
        // At tiny volume the interposer NRE dominates: the optimum must
        // use fewer dies (or price higher) than the high-volume run.
        let params = ChipletParameters::fig8_mcm();
        let high = reference_spec();
        let low = SweepSpec { volume: 50, ..high };
        let best_high = params.sweep(&high, &Executor::serial()).unwrap().best;
        let best_low = params.sweep(&low, &Executor::serial()).unwrap().best;
        assert!(best_low.cost_per_system > best_high.cost_per_system);
        assert!(best_low.nre_per_system.value() > best_high.nre_per_system.value());
        // The interposer NRE cannot amortize over 50 systems: the
        // optimum collapses back to the monolithic die.
        assert!(best_low.chiplets < best_high.chiplets);
    }

    #[test]
    fn degenerate_specs_are_rejected() {
        let params = ChipletParameters::fig8_mcm();
        let exec = Executor::serial();
        let good = reference_spec();
        for bad in [
            SweepSpec {
                lambda_steps: 0,
                ..good
            },
            SweepSpec {
                max_chiplets: 0,
                ..good
            },
            SweepSpec { volume: 0, ..good },
            SweepSpec {
                lambda_max: Microns::new(0.4).unwrap(),
                ..good
            },
        ] {
            assert!(params.sweep(&bad, &exec).is_err(), "{bad:?} accepted");
        }
        assert!(params
            .price_partition(&Partition {
                chiplets: 0,
                spares: 0,
                lambda: Microns::new(1.0).unwrap(),
                system_transistors: TransistorCount::new(1.0e6).unwrap(),
                volume: 1,
            })
            .is_err());
    }
}
