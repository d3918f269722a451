//! A served answer depends only on its request, never on what the
//! process answered before.
//!
//! Eq. (4) is a `floor` staircase, so two products one ulp apart can
//! pack a different number of dies. The eq. (4) memo is process-global,
//! so these tests run alone in their own binary: every answer here is
//! checked against the unmemoized eq. (4) on the same die, whatever the
//! memo already holds.

use maly_model::query::{ProductReport, ProductSpec, QueryResponse};
use maly_model::{EvalContext, Query};
use maly_par::Executor;
use maly_units::{Centimeters, SquareCentimeters};
use maly_wafer_geom::{maly, DieDimensions, Wafer};

/// Adjacent floats on either side of a die-count step: λ 0.8 µm,
/// d 150, Y₀ 0.7, C₀ 700, X 1.8 on a 6" wafer packs 48 dies at `LO`
/// and 47 at `HI`.
const LO: f64 = 3_039_475.183_951_57;
const HI: f64 = 3_039_475.183_951_570_7;

fn product(transistors: f64, lambda_um: f64) -> Query {
    Query::Product(ProductSpec {
        name: "edge".to_string(),
        transistors,
        lambda_um,
        density: 150.0,
        radius_cm: 7.5,
        yield0: 0.7,
        c0: 700.0,
        x: 1.8,
    })
}

/// The product report and the response's wire bytes.
fn answer(query: &Query) -> (ProductReport, String) {
    let response = query
        .evaluate_with(&Executor::serial(), EvalContext::process())
        .expect("a valid product");
    let bytes = response.to_json().write();
    let QueryResponse::Product(r) = response else {
        panic!("{query:?} answered {bytes}");
    };
    (r, bytes)
}

/// Eq. (4) without the memo, on the die the answer reports.
fn unmemoized_dies(query: &Query, r: &ProductReport) -> u32 {
    let Query::Product(spec) = query else {
        unreachable!("only products here");
    };
    let wafer = Wafer::with_radius(Centimeters::new(spec.radius_cm).unwrap());
    let die = DieDimensions::square_with_area(SquareCentimeters::new(r.die_area_cm2).unwrap());
    maly::dies_per_wafer(&wafer, die).value()
}

#[test]
fn adjacent_products_keep_their_own_die_counts_in_any_order() {
    assert_eq!(HI.to_bits(), LO.to_bits() + 1);
    let mut first: Vec<(u64, String)> = Vec::new();
    for (transistors, dies) in [(LO, 48), (HI, 47), (LO, 48), (HI, 47)] {
        let query = product(transistors, 0.8);
        let (r, bytes) = answer(&query);
        assert_eq!(r.dies_per_wafer, dies, "transistors {transistors:?}");
        assert_eq!(r.dies_per_wafer, unmemoized_dies(&query, &r));
        match first
            .iter()
            .find(|(bits, _)| *bits == transistors.to_bits())
        {
            Some((_, seen)) => assert_eq!(&bytes, seen, "a repeat changed its answer"),
            None => first.push((transistors.to_bits(), bytes)),
        }
    }
}

/// Deterministic uniform sampler (SplitMix64).
struct Sampler(u64);

impl Sampler {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn sign(&mut self) -> f64 {
        if self.next_u64() & 1 == 0 {
            1.0
        } else {
            -1.0
        }
    }

    /// `x` moved by ±1…64 ulp or by a relative ±1e-12…1e-3.
    fn near(&mut self, x: f64) -> f64 {
        if self.next_u64() & 1 == 0 {
            let ulps = 1 + self.next_u64() % 64;
            if self.sign() > 0.0 {
                f64::from_bits(x.to_bits() + ulps)
            } else {
                f64::from_bits(x.to_bits() - ulps)
            }
        } else {
            let decades = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * 9.0;
            x * (1.0 + self.sign() * 10f64.powf(-12.0 + decades))
        }
    }
}

/// Near-duplicates of the pinned pair, served one after another to the
/// same warm process and then again as one planned batch: every die
/// count equals the unmemoized eq. (4) on its own die.
#[test]
fn near_duplicate_products_match_unmemoized_eq4() {
    let mut rng = Sampler(0x5eed_0015);
    let queries: Vec<Query> = (0..400)
        .map(|i| {
            let base = if i % 2 == 0 { LO } else { HI };
            match rng.next_u64() % 3 {
                0 => product(rng.near(base), 0.8),
                1 => product(base, rng.near(0.8)),
                _ => product(rng.near(base), rng.near(0.8)),
            }
        })
        .collect();
    for query in &queries {
        let (r, _) = answer(query);
        assert_eq!(r.dies_per_wafer, unmemoized_dies(query, &r), "{query:?}");
    }
    let batch = Query::evaluate_batch(&Executor::serial(), EvalContext::process(), &queries);
    for (query, answer) in queries.iter().zip(batch) {
        let Ok(QueryResponse::Product(r)) = answer else {
            panic!("{query:?} answered {answer:?}");
        };
        assert_eq!(r.dies_per_wafer, unmemoized_dies(query, &r), "{query:?}");
    }
}
