//! Eq. (4): the row-packing dies-per-wafer formula.
//!
//! The paper computes `N_ch` by slicing the wafer into horizontal rows of
//! height `b` (the die height) starting at the bottom edge, and packing
//! each row with as many dies of width `a` as fit inside the circle:
//!
//! ```text
//!           Floor[2·R_w/b] − 1
//!   N_ch  =       Σ            Floor[ (2/a) · min(R_j, R_{j+1}) ]
//!                j=0
//!
//!   R_j = sqrt( R_w² − (j·b − R_w)² )
//! ```
//!
//! `R_j` is the half-width of the wafer at height `j·b` above the bottom;
//! a row confined between heights `j·b` and `(j+1)·b` is limited by the
//! *narrower* of its two boundary chords, hence the `min`. Dies in a row
//! are centered on the vertical diameter.
//!
//! The printed formula's `(2/(a/b))·Min(R_i, R_{i+1})` is a typesetting
//! corruption of `(2/a)·min(...)` — only the latter is dimensionally a
//! count, and only the latter reproduces Table 3 (see DESIGN.md §1).

use crate::{DieDimensions, Wafer};
use maly_units::DieCount;

/// Number of complete dies per wafer according to eq. (4).
///
/// Uses the wafer's *usable* radius, so an edge exclusion (if configured)
/// is honored; the saw street is ignored, matching the paper's idealized
/// geometry. Returns zero when the die does not fit at all.
///
/// # Examples
///
/// ```
/// use maly_units::{Centimeters, SquareCentimeters};
/// use maly_wafer_geom::{maly, DieDimensions, Wafer};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // 1 cm² die on a 6-inch wafer.
/// let n = maly::dies_per_wafer(
///     &Wafer::six_inch(),
///     DieDimensions::square(Centimeters::new(1.0)?),
/// );
/// assert_eq!(n.value(), 154);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn dies_per_wafer(wafer: &Wafer, die: DieDimensions) -> DieCount {
    row_sum_kernel(
        wafer.usable_radius().value(),
        die.width().value(),
        die.height().value(),
    )
}

/// The eq. (4) row sum with the chord recurrence hoisted: row `j`'s
/// upper chord `R_{j+1}` is row `j+1`'s lower chord, so one square root
/// per row suffices instead of two. The carried value is the *same*
/// `sqrt` of the *same* argument the two-per-row loop would compute, so
/// the result is bit-identical to the textbook form.
///
/// Each `Floor[·]` is a saturating `as u64` cast: the quotients are
/// never negative, and for a non-negative or NaN `x`, `x as u64` equals
/// `floor(x).max(0) as u64`. `f64::floor` would be an out-of-line libm
/// call per row on baseline x86-64; the cast stays inline.
fn row_sum_kernel(r_w: f64, a: f64, b: f64) -> DieCount {
    let rows = (2.0 * r_w / b) as u64;
    if rows == 0 {
        return DieCount::new(0);
    }

    let half_width_at = |height: f64| -> f64 {
        let d = height - r_w;
        let sq = r_w * r_w - d * d;
        if sq <= 0.0 {
            0.0
        } else {
            sq.sqrt()
        }
    };

    let mut total: u64 = 0;
    let mut r_lo = half_width_at(0.0);
    for j in 0..rows {
        let r_hi = half_width_at((j + 1) as f64 * b);
        total += (2.0 * r_lo.min(r_hi) / a) as u64;
        r_lo = r_hi;
    }

    DieCount::new(u32::try_from(total).unwrap_or(u32::MAX))
}

/// Batched eq. (4): die counts for a slice of dies on one wafer, as a
/// λ-sweep produces (one die geometry per feature-size sample).
///
/// The wafer's usable radius (and its square) is hoisted once, and one
/// scratch `R_j` chord table is shared across the whole batch: for each
/// die the table of boundary half-widths `R_j = sqrt(R_w² − (j·b −
/// R_w)²)` is filled in branchless four-wide lane blocks
/// ([`maly_lanes`]), then the row sum reads neighbouring chords from
/// the table. Every lane element performs the *same* correctly rounded
/// IEEE operations as the scalar loop (`sqrt(max(sq, 0))` replaces the
/// `sq <= 0` branch with identical bits), so each count stays
/// bit-identical — integer-exact — to the scalar [`dies_per_wafer`],
/// which remains the reference path.
#[must_use]
pub fn dies_per_wafer_batch(wafer: &Wafer, dies: &[DieDimensions]) -> Vec<DieCount> {
    let r_w = wafer.usable_radius().value();
    let mut chords: Vec<f64> = Vec::new();
    dies.iter()
        .map(|die| row_sum_from_table(r_w, die.width().value(), die.height().value(), &mut chords))
        .collect()
}

/// The eq. (4) row sum over a precomputed chord table: row `j` is
/// bounded by chords `R_j` and `R_{j+1}`, so the sum is a single pass
/// of `floor(2·min(R_j, R_{j+1})/a)` over adjacent table entries, with
/// each floor the same inline saturating cast as [`row_sum_kernel`].
fn row_sum_from_table(r_w: f64, a: f64, b: f64, chords: &mut Vec<f64>) -> DieCount {
    let rows = (2.0 * r_w / b) as usize;
    if rows == 0 {
        return DieCount::new(0);
    }
    fill_chord_table(r_w, b, rows, chords);
    let total: u64 = chords
        .windows(2)
        .map(|pair| (2.0 * pair[0].min(pair[1]) / a) as u64)
        .sum();
    DieCount::new(u32::try_from(total).unwrap_or(u32::MAX))
}

/// Fills `chords` with the wafer half-width at heights `k·b` for
/// `k = 0..=rows`, in four-wide lane blocks with the odd tail computed
/// by the same elementwise formula. `d·(−d) + R_w²` is bit-identical
/// to the scalar kernel's `R_w² − d²` (negation and subtraction are
/// exact sign manipulations), and lane `sqrt` is the correctly rounded
/// IEEE primitive, so the table matches the scalar recurrence bit for
/// bit.
fn fill_chord_table(r_w: f64, b: f64, rows: usize, chords: &mut Vec<f64>) {
    use maly_lanes as lanes;
    let n = rows + 1;
    chords.clear();
    chords.resize(n, 0.0);
    let r_sq = r_w * r_w;
    let neg_r = lanes::splat(-r_w);
    let mut k = 0usize;
    while k + lanes::WIDTH <= n {
        let h: lanes::Lane = [
            k as f64 * b,
            (k + 1) as f64 * b,
            (k + 2) as f64 * b,
            (k + 3) as f64 * b,
        ];
        let d = lanes::add(h, neg_r);
        let neg_d = lanes::mul(d, lanes::splat(-1.0));
        let sq = lanes::mul_add(d, neg_d, lanes::splat(r_sq));
        let chord = lanes::sqrt(lanes::max(sq, lanes::splat(0.0)));
        chords[k..k + lanes::WIDTH].copy_from_slice(&chord);
        k += lanes::WIDTH;
    }
    while k < n {
        let d = k as f64 * b - r_w;
        let sq = d * -d + r_sq;
        chords[k] = sq.max(0.0).sqrt();
        k += 1;
    }
}

/// Dies per wafer for the better of the two die orientations
/// (as drawn, or rotated by 90°).
///
/// Eq. (4) is not symmetric in `a` and `b` for non-square dies; real
/// steppers choose the better orientation, so optimization studies should
/// prefer this entry point.
#[must_use]
pub fn dies_per_wafer_best_orientation(wafer: &Wafer, die: DieDimensions) -> DieCount {
    let as_drawn = dies_per_wafer(wafer, die);
    let rotated = dies_per_wafer(wafer, die.rotated());
    as_drawn.max(rotated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use maly_units::{Centimeters, SquareCentimeters};

    fn square_die(area_cm2: f64) -> DieDimensions {
        DieDimensions::square_with_area(SquareCentimeters::new(area_cm2).unwrap())
    }

    /// Hand-computed reference for Table 3 row 1 (2.976 cm² die,
    /// R_w = 7.5 cm): rows contribute 5+7+8+8+8+6+4 = 46.
    #[test]
    fn table3_row1_die_count() {
        let n = dies_per_wafer(&Wafer::six_inch(), square_die(2.976));
        assert_eq!(n.value(), 46);
    }

    /// Table 3 row 14: 4.785 cm² die on an 8-inch wafer. The paper's
    /// printed cost of 2.18 µ$ back-solves to N_ch = 52.
    #[test]
    fn table3_row14_die_count() {
        let n = dies_per_wafer(&Wafer::eight_inch(), square_die(4.785216));
        assert_eq!(n.value(), 52);
    }

    #[test]
    fn die_larger_than_wafer_gives_zero() {
        let n = dies_per_wafer(
            &Wafer::six_inch(),
            DieDimensions::square(Centimeters::new(16.0).unwrap()),
        );
        assert!(n.is_zero());
    }

    #[test]
    fn die_exactly_wafer_diameter_gives_zero() {
        // A 15 cm square die on a 7.5 cm-radius wafer: one row, but the
        // chord at its boundary is zero, so nothing fits.
        let n = dies_per_wafer(
            &Wafer::six_inch(),
            DieDimensions::square(Centimeters::new(15.0).unwrap()),
        );
        assert!(n.is_zero());
    }

    #[test]
    fn count_is_monotone_in_die_area() {
        let wafer = Wafer::six_inch();
        let mut last = u32::MAX;
        for area in [0.25, 0.5, 1.0, 2.0, 4.0, 8.0] {
            let n = dies_per_wafer(&wafer, square_die(area)).value();
            assert!(
                n <= last,
                "count must not increase with area: {n} after {last}"
            );
            last = n;
        }
    }

    #[test]
    fn total_die_area_never_exceeds_wafer_area() {
        let wafer = Wafer::six_inch();
        for area in [0.1, 0.33, 1.0, 2.976, 4.785] {
            let n = dies_per_wafer(&wafer, square_die(area)).as_f64();
            assert!(n * area <= wafer.area().value() + 1e-9);
        }
    }

    #[test]
    fn edge_exclusion_reduces_count() {
        let die = square_die(1.0);
        let full = dies_per_wafer(&Wafer::six_inch(), die).value();
        let excluded = dies_per_wafer(
            &Wafer::six_inch().edge_exclusion(Centimeters::new(0.5).unwrap()),
            die,
        )
        .value();
        assert!(excluded < full);
    }

    #[test]
    fn rotation_can_matter_for_rectangles() {
        let wafer = Wafer::six_inch();
        let die = DieDimensions::new(
            Centimeters::new(2.9).unwrap(),
            Centimeters::new(0.9).unwrap(),
        );
        let best = dies_per_wafer_best_orientation(&wafer, die).value();
        let a = dies_per_wafer(&wafer, die).value();
        let b = dies_per_wafer(&wafer, die.rotated()).value();
        assert_eq!(best, a.max(b));
    }

    #[test]
    fn batch_matches_scalar_calls() {
        let wafer = Wafer::six_inch();
        // A λ-sweep-shaped batch: square dies whose side scales like λ.
        let dies: Vec<DieDimensions> = (1..60)
            .map(|i| DieDimensions::square(Centimeters::new(0.05 * f64::from(i)).unwrap()))
            .collect();
        let batch = dies_per_wafer_batch(&wafer, &dies);
        assert_eq!(batch.len(), dies.len());
        for (die, got) in dies.iter().zip(&batch) {
            assert_eq!(*got, dies_per_wafer(&wafer, *die));
        }
    }

    /// Batch vs scalar over randomized rectangular dies on several
    /// wafers: the lane chord-table path must stay integer-exact,
    /// including odd row counts that exercise the non-multiple-of-four
    /// table tail.
    #[test]
    fn batch_is_integer_exact_vs_scalar_randomized() {
        let mut state: u64 = 0x853c_49e6_748f_ea9b;
        let mut uniform = |lo: f64, hi: f64| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let u = (state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 53) as f64;
            lo + u * (hi - lo)
        };
        let wafers = [
            Wafer::six_inch(),
            Wafer::eight_inch(),
            Wafer::six_inch().edge_exclusion(Centimeters::new(0.3).unwrap()),
        ];
        for wafer in &wafers {
            let dies: Vec<DieDimensions> = (0..500)
                .map(|_| {
                    DieDimensions::new(
                        Centimeters::new(uniform(0.05, 6.0)).unwrap(),
                        Centimeters::new(uniform(0.05, 6.0)).unwrap(),
                    )
                })
                .collect();
            let batch = dies_per_wafer_batch(wafer, &dies);
            for (die, got) in dies.iter().zip(&batch) {
                assert_eq!(*got, dies_per_wafer(wafer, *die), "die {die:?}");
            }
        }
    }

    #[test]
    fn batch_of_nothing_is_empty() {
        assert!(dies_per_wafer_batch(&Wafer::six_inch(), &[]).is_empty());
    }

    #[test]
    fn bigger_wafer_holds_more_dies() {
        let die = square_die(1.0);
        let six = dies_per_wafer(&Wafer::six_inch(), die).value();
        let eight = dies_per_wafer(&Wafer::eight_inch(), die).value();
        assert!(eight > six);
    }
}
