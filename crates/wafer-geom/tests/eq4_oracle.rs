//! Every eq. (4) fast path against a textbook scalar oracle,
//! integer-exact.
//!
//! The oracle is the row sum as first written: one `floor()` per row
//! and an explicit `sq <= 0` branch for chords outside the circle. The
//! kernels under test replace the floors with saturating casts, the
//! branch with `max(sq, 0)`, and add a chord table, lanes and a bounded
//! memo; none of that may move a single count.

use maly_units::Centimeters;
use maly_wafer_geom::{cache, maly, DieDimensions, Wafer};

/// Eq. (4) as a plain scalar loop (see the module docs).
fn oracle(wafer: &Wafer, die: &DieDimensions) -> u32 {
    let (r_w, a, b) = (
        wafer.usable_radius().value(),
        die.width().value(),
        die.height().value(),
    );
    let rows = (2.0 * r_w / b).floor() as i64;
    if rows <= 0 {
        return 0;
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
        let per_row = (2.0 * r_lo.min(r_hi) / a).floor();
        if per_row > 0.0 {
            total += per_row as u64;
        }
        r_lo = r_hi;
    }
    u32::try_from(total).unwrap_or(u32::MAX)
}

/// Deterministic uniform sampler (xorshift64*).
struct Sampler(u64);

impl Sampler {
    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        let u = (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 53) as f64;
        lo + u * (hi - lo)
    }
}

fn cm(x: f64) -> Centimeters {
    Centimeters::new(x).unwrap()
}

fn die(a: f64, b: f64) -> DieDimensions {
    DieDimensions::new(cm(a), cm(b))
}

/// The 6" and 8" wafers plus an edge-excluded 6" one.
fn wafers() -> [Wafer; 3] {
    [
        Wafer::six_inch(),
        Wafer::eight_inch(),
        Wafer::six_inch().edge_exclusion(cm(0.3)),
    ]
}

/// Diffs all four entry points against the oracle over `dies` and
/// returns the number of counts checked. The memoized paths run twice,
/// so both their miss and their hit answers are checked.
fn assert_all_paths_match(wafer: &Wafer, dies: &[DieDimensions]) -> usize {
    let want: Vec<u32> = dies.iter().map(|d| oracle(wafer, d)).collect();
    let direct: Vec<u32> = dies
        .iter()
        .map(|d| maly::dies_per_wafer(wafer, *d).value())
        .collect();
    let batch: Vec<u32> = maly::dies_per_wafer_batch(wafer, dies)
        .iter()
        .map(|n| n.value())
        .collect();
    let mut checked = 0;
    for pass in 0..2 {
        let memo_batch = cache::dies_per_wafer_batch(wafer, dies);
        for (i, d) in dies.iter().enumerate() {
            let memo = cache::dies_per_wafer(wafer, *d).value();
            let got = [direct[i], batch[i], memo_batch[i].value(), memo];
            assert_eq!(
                got,
                [want[i]; 4],
                "pass {pass}, die {d:?} on R_w = {}: direct, batch, memo, memo batch",
                wafer.usable_radius()
            );
            checked += 1;
        }
    }
    checked
}

#[test]
fn randomized_rectangular_dies_match_the_oracle() {
    let mut rng = Sampler(0x853c_49e6_748f_ea9b);
    let mut checked = 0;
    for wafer in &wafers() {
        // Everyday dies, then thin ones with hundreds of rows.
        let mut dies: Vec<DieDimensions> = (0..1_500)
            .map(|_| die(rng.uniform(0.05, 6.0), rng.uniform(0.05, 6.0)))
            .collect();
        dies.extend((0..300).map(|_| die(rng.uniform(0.02, 6.0), rng.uniform(0.02, 0.1))));
        checked += assert_all_paths_match(wafer, &dies);
    }
    assert_eq!(checked, 3 * 2 * 1_800);
}

#[test]
fn edge_case_dies_match_the_oracle() {
    for wafer in &wafers() {
        let diameter = 2.0 * wafer.usable_radius().value();
        let dies = [
            // As wide or tall as the usable diameter, and just over it.
            die(diameter, diameter),
            die(1.0, diameter),
            die(diameter, 1.0),
            die(diameter * (1.0 + 1e-12), 0.5),
            die(0.5, diameter * (1.0 + 1e-12)),
            die(diameter * 1.5, diameter * 1.5),
            // Half the diameter: one row boundary on the center line.
            die(1.0, diameter / 2.0),
            // Hundreds of rows.
            die(0.05, 0.05),
            die(0.5, 0.02),
            die(0.013, 0.031),
        ];
        assert_all_paths_match(wafer, &dies);
    }
}

/// Pythagorean triples put row boundaries where the chord is an exact
/// integer, and die widths that divide it make `2·chord/a` land exactly
/// on an integer — the quotient a floor and a truncating cast must
/// agree on.
#[test]
fn quotients_landing_exactly_on_integers_match_the_oracle() {
    // (wafer, row height): 6" with chords 4.5 / 6 / 7.5 at b = 1.5,
    // 8" with chords 6 / 8 / 10 at b = 2, and R_w = 5 (6" minus a
    // 2.5 cm exclusion) with chords 3 / 4 / 5 at b = 1 and b = 0.5.
    let cases = [
        (Wafer::six_inch(), 1.5),
        (Wafer::eight_inch(), 2.0),
        (Wafer::six_inch().edge_exclusion(cm(2.5)), 1.0),
        (Wafer::six_inch().edge_exclusion(cm(2.5)), 0.5),
    ];
    for (wafer, b) in &cases {
        let dies: Vec<DieDimensions> = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.25, 3.0, 4.5, 6.0, 9.0]
            .iter()
            .map(|&a| die(a, *b))
            .collect();
        assert_all_paths_match(wafer, &dies);
    }
    // The exact case does occur: on the 6" wafer the boundary at height
    // 1.5 has chord sqrt(7.5² − 6²) = 4.5 exactly, so a = 1 gives 9.
    let (r_w, d) = (7.5_f64, 1.5 - 7.5);
    assert_eq!(2.0 * (r_w * r_w - d * d).sqrt() / 1.0, 9.0);
}

/// Bisects the die width on the bits of positive floats, which order
/// like the values, until `lo` and `hi` are adjacent floats on either
/// side of a step of eq. (4)'s `floor` staircase.
fn step_edge(wafer: &Wafer, b: f64, mut lo: f64, mut hi: f64) -> (f64, f64) {
    let count = |a: f64| oracle(wafer, &die(a, b));
    assert_ne!(count(lo), count(hi), "no step in [{lo}, {hi}]");
    while hi.to_bits() - lo.to_bits() > 1 {
        let mid = f64::from_bits(lo.to_bits() + (hi.to_bits() - lo.to_bits()) / 2);
        if count(mid) == count(lo) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo, hi)
}

/// Two widths one ulp apart that pack a different number of dies must
/// each keep their own count, whichever of them reaches the memo
/// first, through the scalar and the batch front.
#[test]
fn adjacent_floats_across_a_count_step_keep_their_own_counts() {
    let wafer = Wafer::six_inch();
    let b = 0.7;
    let (lo, hi) = step_edge(&wafer, b, 0.5, 0.5004);
    assert_eq!(hi.to_bits(), lo.to_bits() + 1);
    assert_eq!((lo, hi), (0.500_368_473_026_677_3, 0.500_368_473_026_677_4));
    assert_eq!(
        (oracle(&wafer, &die(lo, b)), oracle(&wafer, &die(hi, b))),
        (463, 462)
    );
    for order in [[lo, hi], [hi, lo]] {
        cache::clear();
        for a in order.iter().chain(&order) {
            let got = cache::dies_per_wafer(&wafer, die(*a, b)).value();
            assert_eq!(got, oracle(&wafer, &die(*a, b)), "scalar, a = {a:?}");
        }
        cache::clear();
        for a in order.iter().chain(&order) {
            let got = cache::dies_per_wafer_batch(&wafer, &[die(*a, b)])[0].value();
            assert_eq!(got, oracle(&wafer, &die(*a, b)), "batch, a = {a:?}");
        }
    }
}

#[test]
fn overflowing_the_memo_keeps_it_bounded_and_exact() {
    let wafer = Wafer::six_inch();
    // Distinct keys: widths 1e-6 cm apart.
    let dies: Vec<DieDimensions> = (0..cache::MAX_ENTRIES + 4_000)
        .map(|i| die(0.5 + 1e-6 * i as f64, 0.7))
        .collect();
    for chunk in dies.chunks(1_000) {
        let counts = cache::dies_per_wafer_batch(&wafer, chunk);
        for (d, n) in chunk.iter().zip(&counts) {
            assert_eq!(n.value(), oracle(&wafer, d), "die {d:?}");
        }
        assert!(cache::stats().entries <= cache::MAX_ENTRIES);
    }
    // The scalar store keeps the same bound.
    for d in dies.iter().rev().take(2_000) {
        assert_eq!(cache::dies_per_wafer(&wafer, *d).value(), oracle(&wafer, d));
        assert!(cache::stats().entries <= cache::MAX_ENTRIES);
    }
}
