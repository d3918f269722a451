//! maly-lanes — fixed-width f64 lane kernels for the batch hot paths.
//!
//! The sweep kernels (eq. (1) transistor cost, eq. (4) dies-per-wafer,
//! eq. (7)–(9) yields) process thousands of grid nodes per Fig 8
//! surface. This crate provides the shared lane vocabulary they build
//! on: operations over [`Lane`] = `[f64; WIDTH]` blocks plus slice
//! drivers that walk a buffer lane by lane and finish the odd tail with
//! the *same* per-element function, so results never depend on how a
//! slice was chunked.
//!
//! Two kinds of operation live here:
//!
//! - **Exact lane ops** (`add`, `mul`, `mul_add`, `sqrt`, `min`, …,
//!   and the scalar [`round_s`]): elementwise IEEE-754 operations. Each
//!   lane element is the same correctly rounded operation the scalar
//!   code would perform, so lane and scalar results are bit-identical.
//!   `mul_add` is *fma-shaped*
//!   (one multiply then one add, each rounded) rather than a fused
//!   multiply-add — a hardware FMA would round once and change bits
//!   between targets, breaking the workspace determinism contract.
//! - **Polynomial transcendentals** (`exp`, `ln`, `pow` and their
//!   `*_s` scalar / `*_slice` drivers): branch-free argument-reduction
//!   + polynomial kernels evaluated identically on every platform.
//!   They are *not* bit-identical to `std`'s libm (which varies by
//!   platform anyway); the contract is a documented ulp bound instead:
//!   `exp` stays within 2 ulp and `ln` within 2 ulp of the correctly
//!   rounded result over the model's domain (pinned by the accuracy
//!   tests below at ≤ 4 ulp of this platform's libm, which is itself
//!   ≤ 1 ulp). Callers that need bit-exactness keep using the scalar
//!   reference path; callers on the lane path document the bound.
//!
//! The crate is std-only, dependency-free, `forbid(unsafe_code)`, and
//! has a panic budget of zero.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Number of f64 elements processed per lane block.
///
/// Four doubles are one 256-bit vector register (AVX2-class hardware)
/// and two 128-bit ones; the slice drivers below are written so the
/// compiler can keep a whole block in registers.
pub const WIDTH: usize = 4;

/// One fixed-width block of f64 values.
pub type Lane = [f64; WIDTH];

// ---------------------------------------------------------------------
// Exact elementwise lane ops (bit-identical to scalar)
// ---------------------------------------------------------------------

/// A lane with every element set to `x`.
#[must_use]
pub const fn splat(x: f64) -> Lane {
    [x; WIDTH]
}

/// Elementwise `a + b`.
#[must_use]
pub fn add(a: Lane, b: Lane) -> Lane {
    [a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]]
}

/// Elementwise `a * b`.
#[must_use]
pub fn mul(a: Lane, b: Lane) -> Lane {
    [a[0] * b[0], a[1] * b[1], a[2] * b[2], a[3] * b[3]]
}

/// Elementwise fma-shaped `a * b + c`: one rounded multiply then one
/// rounded add (deliberately *not* a fused multiply-add — see the
/// crate docs for why).
#[must_use]
pub fn mul_add(a: Lane, b: Lane, c: Lane) -> Lane {
    [
        a[0] * b[0] + c[0],
        a[1] * b[1] + c[1],
        a[2] * b[2] + c[2],
        a[3] * b[3] + c[3],
    ]
}

/// Elementwise minimum (IEEE `f64::min`: propagates the non-NaN side).
#[must_use]
pub fn min(a: Lane, b: Lane) -> Lane {
    [
        a[0].min(b[0]),
        a[1].min(b[1]),
        a[2].min(b[2]),
        a[3].min(b[3]),
    ]
}

/// Elementwise maximum (IEEE `f64::max`).
#[must_use]
pub fn max(a: Lane, b: Lane) -> Lane {
    [
        a[0].max(b[0]),
        a[1].max(b[1]),
        a[2].max(b[2]),
        a[3].max(b[3]),
    ]
}

/// Elementwise square root. IEEE-754 `sqrt` is correctly rounded, so
/// each element is bit-identical to the scalar call.
#[must_use]
pub fn sqrt(a: Lane) -> Lane {
    [a[0].sqrt(), a[1].sqrt(), a[2].sqrt(), a[3].sqrt()]
}

/// 0.5 − 2^−54, the largest f64 below one half.
const JUST_BELOW_HALF: f64 = 0.499_999_999_999_999_94;

/// Biased exponent of 2^52: at and above it every f64 is an integer.
const INTEGRAL_EXPONENT: u32 = 1023 + 52;

/// Rounds half away from zero: the same value as [`f64::round`], bit for
/// bit, for every input (±0, NaN and the infinities included).
///
/// On baseline x86-64 `f64::round` is an out-of-line call into the
/// software libm, paid per element by the exp kernel; hot kernels must
/// round through this inline version instead. It adds ±(0.5 − 2^−54) and truncates by clearing the
/// fraction bits: with a full ±0.5 the sum 0.49999999999999994 + 0.5
/// would round up to 1. Truncating with a float-to-int cast instead
/// needs a saturation fix-up, and a data-dependent ±1 step can become a
/// mispredicting branch; both measured slower than the libm call inside
/// the exp kernel, and this form measured faster.
#[must_use]
pub fn round_s(x: f64) -> f64 {
    let y = x + JUST_BELOW_HALF.copysign(x);
    let bits = y.to_bits();
    let exponent = ((bits >> 52) & 0x7ff) as u32;
    if exponent >= INTEGRAL_EXPONENT {
        // |y| ≥ 2^52 is already the integer answer, or y is ±∞ or NaN.
        return y;
    }
    // Keep the sign, the exponent and the integer bits of the mantissa;
    // below 1.0 that leaves a signed zero, as `f64::round` returns.
    let keep = if exponent < 1023 {
        1 << 63
    } else {
        (i64::MIN >> (exponent - 1023 + 11)) as u64
    };
    f64::from_bits(bits & keep)
}

/// Elementwise `a * x + b` over a slice, in place (the ln-space
/// "scale and shift" step: `ln D − p·ln λ` is `scale_add(lnλ, −p, lnD)`).
/// Exact per element: one rounded multiply, one rounded add.
pub fn scale_add_slice(xs: &mut [f64], a: f64, b: f64) {
    for x in xs {
        *x = *x * a + b;
    }
}

/// Elementwise `−(x · y)` over two slices, written into `xs` (the
/// eq. (7) exponent step: `−A · D/λ^p`). Trailing elements of the
/// longer slice are left untouched.
pub fn neg_mul_slice(xs: &mut [f64], ys: &[f64]) {
    for (x, y) in xs.iter_mut().zip(ys) {
        *x = -(*x * *y);
    }
}

// ---------------------------------------------------------------------
// Polynomial exp
// ---------------------------------------------------------------------

/// High bits of ln 2 (Cody–Waite split: `LN2_HI + LN2_LO` carries ~20
/// extra bits so `x − k·ln2` stays accurate for |k| up to ~1100).
const LN2_HI: f64 = 6.931_471_803_691_238_164_9e-1;
/// Low bits of ln 2.
const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
/// log2(e), for the exponent split `x = k·ln2 + r`.
const LOG2_E: f64 = std::f64::consts::LOG2_E;
/// Above this, exp(x) overflows f64.
const EXP_OVERFLOW: f64 = 709.782_712_893_384;
/// Below this, exp(x) underflows to zero (even subnormally).
const EXP_UNDERFLOW: f64 = -745.2;

/// `2^e` for `e` in `[-1022, 1023]`, built from the exponent bits.
/// Exact (a power of two has an all-zero mantissa).
fn pow2(e: i64) -> f64 {
    // The callers below keep e in range by splitting the scaling in
    // two; the clamp is belt-and-braces, not a rounding step.
    let e = e.clamp(-1022, 1023);
    f64::from_bits(((e + 1023) as u64) << 52)
}

/// Scalar core of the polynomial exp: Cody–Waite reduction
/// `x = k·ln2 + r` with |r| ≤ ln2/2, a degree-13 Taylor kernel on `r`
/// (truncation error < 1e-17 relative), and an exact two-step `2^k`
/// scaling that handles the subnormal range. The arithmetic path is
/// branch-free; the guards only catch NaN/overflow/underflow inputs.
fn exp_core(x: f64) -> f64 {
    if !(x >= EXP_UNDERFLOW) {
        // NaN fails every comparison; tell it apart from deep underflow.
        return if x.is_nan() { f64::NAN } else { 0.0 };
    }
    if x > EXP_OVERFLOW {
        return f64::INFINITY;
    }
    let k = round_s(x * LOG2_E);
    let r = (x - k * LN2_HI) - k * LN2_LO;
    // Horner over 1/n! for n = 13 .. 0. Literal reciprocal factorials:
    // shortest decimal round-trips of 1/n!.
    let mut p = 1.605_904_383_682_161_3e-10; // 1/13!
    p = p * r + 2.087_675_698_786_81e-9; // 1/12!
    p = p * r + 2.505_210_838_544_172e-8; // 1/11!
    p = p * r + 2.755_731_922_398_589e-7; // 1/10!
    p = p * r + 2.755_731_922_398_589_3e-6; // 1/9!
    p = p * r + 2.480_158_730_158_73e-5; // 1/8!
    p = p * r + 1.984_126_984_126_984e-4; // 1/7!
    p = p * r + 1.388_888_888_888_889e-3; // 1/6!
    p = p * r + 8.333_333_333_333_333e-3; // 1/5!
    p = p * r + 4.166_666_666_666_666_4e-2; // 1/4!
    p = p * r + 1.666_666_666_666_666_6e-1; // 1/3!
    p = p * r + 0.5; // 1/2!
    p = p * r + 1.0;
    p = p * r + 1.0;
    // 2^k in two exact halves so each factor stays in the normal
    // exponent range even when the result is subnormal (k ≥ −1075).
    let ki = k as i64;
    let k1 = ki >> 1;
    p * pow2(k1) * pow2(ki - k1)
}

/// Lane exp: elementwise [`exp_s`].
#[must_use]
pub fn exp(a: Lane) -> Lane {
    [
        exp_core(a[0]),
        exp_core(a[1]),
        exp_core(a[2]),
        exp_core(a[3]),
    ]
}

/// Scalar entry point of the lane exp kernel, for hoisted per-row /
/// per-slice constants that must match the lane path bit for bit.
#[must_use]
pub fn exp_s(x: f64) -> f64 {
    exp_core(x)
}

/// In-place exp over a slice: full lanes first, then the odd tail
/// through the same per-element core, so chunking never changes bits.
pub fn exp_slice(xs: &mut [f64]) {
    let mut chunks = xs.chunks_exact_mut(WIDTH);
    for c in &mut chunks {
        let out = exp([c[0], c[1], c[2], c[3]]);
        c.copy_from_slice(&out);
    }
    for x in chunks.into_remainder() {
        *x = exp_core(*x);
    }
}

// ---------------------------------------------------------------------
// Polynomial ln
// ---------------------------------------------------------------------

/// 2^54, for renormalizing subnormal ln inputs.
const TWO_POW_54: f64 = 18_014_398_509_481_984.0;

/// Scalar core of the polynomial ln: split `x = 2^e · m` with
/// `m ∈ [√2/2, √2)` via the exponent bits, then the atanh series
/// `ln m = 2s·(1 + w/3 + w²/5 + …)` in `s = (m−1)/(m+1)`, `w = s²`,
/// truncated after the s²¹ term (|s| ≤ 0.1716 ⇒ truncation < 2e-19).
fn ln_core(x: f64) -> f64 {
    if x.is_nan() || x < 0.0 {
        return f64::NAN;
    }
    // audit:allow(float-cmp): IEEE special case, ln(±0) is exactly −∞.
    if x == 0.0 {
        return f64::NEG_INFINITY;
    }
    if x == f64::INFINITY {
        return f64::INFINITY;
    }
    let (norm, bias) = if x < f64::MIN_POSITIVE {
        (x * TWO_POW_54, -54i64)
    } else {
        (x, 0)
    };
    let bits = norm.to_bits();
    let mut e = ((bits >> 52) & 0x7ff) as i64 - 1023 + bias;
    let mut m = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | (1023u64 << 52));
    if m > std::f64::consts::SQRT_2 {
        m *= 0.5;
        e += 1;
    }
    let s = (m - 1.0) / (m + 1.0);
    let w = s * s;
    // Horner over 1/(2n+1) for the atanh series tail.
    let mut p = 4.761_904_761_904_762e-2; // 1/21
    p = p * w + 5.263_157_894_736_842e-2; // 1/19
    p = p * w + 5.882_352_941_176_470_5e-2; // 1/17
    p = p * w + 6.666_666_666_666_667e-2; // 1/15
    p = p * w + 7.692_307_692_307_693e-2; // 1/13
    p = p * w + 9.090_909_090_909_091e-2; // 1/11
    p = p * w + 1.111_111_111_111_111_1e-1; // 1/9
    p = p * w + 1.428_571_428_571_428_5e-1; // 1/7
    p = p * w + 2e-1; // 1/5
    p = p * w + 3.333_333_333_333_333e-1; // 1/3
    let ln_m = 2.0 * s + 2.0 * s * w * p;
    let ef = e as f64;
    ef * LN2_HI + (ln_m + ef * LN2_LO)
}

/// Lane ln: elementwise [`ln_s`].
#[must_use]
pub fn ln(a: Lane) -> Lane {
    [ln_core(a[0]), ln_core(a[1]), ln_core(a[2]), ln_core(a[3])]
}

/// Scalar entry point of the lane ln kernel.
#[must_use]
pub fn ln_s(x: f64) -> f64 {
    ln_core(x)
}

/// In-place ln over a slice (full lanes, then the tail through the
/// same core).
pub fn ln_slice(xs: &mut [f64]) {
    let mut chunks = xs.chunks_exact_mut(WIDTH);
    for c in &mut chunks {
        let out = ln([c[0], c[1], c[2], c[3]]);
        c.copy_from_slice(&out);
    }
    for x in chunks.into_remainder() {
        *x = ln_core(*x);
    }
}

/// `x^p` through the lane kernels: `exp(p · ln x)`. Error compounds to
/// roughly `(2 + |p·ln x|·ε)` ulp; for the model's `λ^4.07` range
/// (λ ∈ [0.3, 3] µm) that is ≤ ~8 ulp of `powf`. Hot paths hoist one
/// scalar `powf` per λ-row instead of calling this per element.
#[must_use]
pub fn pow_s(x: f64, p: f64) -> f64 {
    exp_core(p * ln_core(x))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift64* sampler (no external deps).
    struct Rng(u64);

    impl Rng {
        fn next_u64(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        /// Uniform in [lo, hi).
        fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
            let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            lo + u * (hi - lo)
        }
    }

    /// Monotone integer key over the f64 line (±0 both map to 0), so
    /// ulp distance is a key difference.
    fn ordered_key(x: f64) -> i64 {
        let b = x.to_bits() as i64;
        if b < 0 {
            i64::MIN - b
        } else {
            b
        }
    }

    fn ulps(a: f64, b: f64) -> u64 {
        ordered_key(a).abs_diff(ordered_key(b))
    }

    #[test]
    fn exp_matches_std_within_4_ulp() {
        let mut rng = Rng(0x9e3779b97f4a7c15);
        let mut worst = 0u64;
        for _ in 0..200_000 {
            let x = rng.uniform(-700.0, 700.0);
            let got = exp_s(x);
            let want = x.exp();
            let d = ulps(got, want);
            worst = worst.max(d);
            assert!(d <= 4, "exp({x}) = {got:e}, std {want:e}, {d} ulp apart");
        }
        // The documented bound: the kernel tracks libm to ≤ 4 ulp.
        assert!(worst <= 4, "worst exp deviation {worst} ulp");
    }

    #[test]
    fn exp_model_domain_is_tight() {
        // The eq. (7) exponents the yield kernel feeds in: −A·D/λ^p
        // for the Fig 8 window is roughly [−40, 0].
        let mut rng = Rng(7);
        for _ in 0..100_000 {
            let x = rng.uniform(-40.0, 0.0);
            assert!(ulps(exp_s(x), x.exp()) <= 2, "x = {x}");
        }
    }

    #[test]
    fn exp_edge_cases() {
        assert_eq!(exp_s(0.0), 1.0);
        assert_eq!(exp_s(f64::NEG_INFINITY), 0.0);
        assert_eq!(exp_s(f64::INFINITY), f64::INFINITY);
        assert!(exp_s(f64::NAN).is_nan());
        assert_eq!(exp_s(-800.0), 0.0);
        assert_eq!(exp_s(800.0), f64::INFINITY);
        // Subnormal results round-trip through the two-step scaling.
        let deep = exp_s(-744.0);
        assert!(deep > 0.0 && deep < f64::MIN_POSITIVE);
        assert!(ulps(deep, (-744.0f64).exp()) <= 4);
        // Just inside the overflow threshold stays finite.
        assert!(exp_s(709.7).is_finite());
    }

    #[test]
    fn ln_matches_std_within_4_ulp() {
        let mut rng = Rng(42);
        let mut worst = 0u64;
        for _ in 0..200_000 {
            // Log-uniform over f64's full normal range.
            let x = exp_s(rng.uniform(-700.0, 700.0));
            let got = ln_s(x);
            let want = x.ln();
            let d = ulps(got, want);
            worst = worst.max(d);
            assert!(d <= 4, "ln({x:e}) = {got}, std {want}, {d} ulp apart");
        }
        assert!(worst <= 4, "worst ln deviation {worst} ulp");
    }

    #[test]
    fn ln_edge_cases() {
        assert_eq!(ln_s(1.0), 0.0);
        assert_eq!(ln_s(0.0), f64::NEG_INFINITY);
        assert_eq!(ln_s(f64::INFINITY), f64::INFINITY);
        assert!(ln_s(-1.0).is_nan());
        assert!(ln_s(f64::NAN).is_nan());
        // Subnormal inputs renormalize instead of losing their exponent.
        let tiny = f64::MIN_POSITIVE / 1024.0;
        assert!(ulps(ln_s(tiny), tiny.ln()) <= 4);
    }

    #[test]
    fn ln_exp_round_trip() {
        let mut rng = Rng(3);
        for _ in 0..50_000 {
            let x = rng.uniform(-30.0, 30.0);
            let rt = ln_s(exp_s(x));
            assert!(
                (rt - x).abs() <= 1e-13 * x.abs().max(1.0),
                "round trip {x} -> {rt}"
            );
        }
    }

    #[test]
    fn pow_tracks_powf_in_model_range() {
        let mut rng = Rng(11);
        for _ in 0..50_000 {
            let lam = rng.uniform(0.3, 3.0);
            let p = rng.uniform(0.5, 5.0);
            let got = pow_s(lam, p);
            let want = lam.powf(p);
            assert!(
                (got - want).abs() <= 1e-14 * want,
                "{lam}^{p}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn slice_drivers_match_scalar_at_odd_lengths() {
        let mut rng = Rng(99);
        for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 13, 64, 65] {
            let xs: Vec<f64> = (0..len).map(|_| rng.uniform(-50.0, 5.0)).collect();
            let mut exp_buf = xs.clone();
            exp_slice(&mut exp_buf);
            for (x, got) in xs.iter().zip(&exp_buf) {
                assert_eq!(got.to_bits(), exp_s(*x).to_bits(), "len {len}");
            }
            let pos: Vec<f64> = xs.iter().map(|x| x.abs() + 0.1).collect();
            let mut ln_buf = pos.clone();
            ln_slice(&mut ln_buf);
            for (x, got) in pos.iter().zip(&ln_buf) {
                assert_eq!(got.to_bits(), ln_s(*x).to_bits(), "len {len}");
            }
        }
    }

    fn assert_rounds_like_std(x: f64) {
        let (got, want) = (round_s(x), x.round());
        assert!(
            got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
            "round_s({x:e}) = {got:e}, f64::round = {want:e}"
        );
    }

    fn next_up(x: f64) -> f64 {
        let b = x.to_bits();
        f64::from_bits(if x >= 0.0 { b + 1 } else { b - 1 })
    }

    fn next_down(x: f64) -> f64 {
        -next_up(-x)
    }

    const TWO_POW_52: f64 = 4_503_599_627_370_496.0;

    #[test]
    fn round_s_matches_std_round_at_the_edges() {
        // Ties, one ulp either side of each tie, and a tie ± 1, for
        // small integers and for the ends of the exp kernel's domain
        // (|x·log2 e| reaches about 1,076 there).
        let mut ks: Vec<f64> = (0..64).map(f64::from).collect();
        ks.extend([1_023.0, 1_074.0, 1_075.0, 1_076.0, 1_077.0, 1.0e9, 2.0e10]);
        for k in ks {
            for tie in [k + 0.5, -(k + 0.5)] {
                for x in [tie, next_up(tie), next_down(tie), tie + 1.0, tie - 1.0] {
                    assert_rounds_like_std(x);
                }
            }
        }
        for x in [
            0.0,
            -0.0,
            0.499_999_999_999_999_94,
            -0.499_999_999_999_999_94,
            EXP_UNDERFLOW * LOG2_E,
            EXP_OVERFLOW * LOG2_E,
            next_up(EXP_UNDERFLOW) * LOG2_E,
            next_down(EXP_OVERFLOW) * LOG2_E,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            TWO_POW_52,
            next_down(TWO_POW_52),
            -next_down(TWO_POW_52),
            TWO_POW_52 - 0.5,
            -(TWO_POW_52 - 0.5),
            TWO_POW_52 * 2.0 - 1.0,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ] {
            assert_rounds_like_std(x);
        }
    }

    #[test]
    fn round_s_matches_std_round_randomized() {
        let mut rng = Rng(23);
        for _ in 0..200_000 {
            assert_rounds_like_std(rng.uniform(-1_100.0, 1_100.0));
            assert_rounds_like_std(rng.uniform(-1.0e10, 1.0e10));
            // Arbitrary bit patterns: every exponent, sign and NaN.
            assert_rounds_like_std(f64::from_bits(rng.next_u64()));
        }
    }

    #[test]
    fn exact_lane_ops_are_bit_identical_to_scalar() {
        let mut rng = Rng(5);
        for _ in 0..10_000 {
            let a: Lane = [
                rng.uniform(-10.0, 10.0),
                rng.uniform(-10.0, 10.0),
                rng.uniform(-10.0, 10.0),
                rng.uniform(-10.0, 10.0),
            ];
            let b: Lane = [
                rng.uniform(-10.0, 10.0),
                rng.uniform(-10.0, 10.0),
                rng.uniform(-10.0, 10.0),
                rng.uniform(-10.0, 10.0),
            ];
            let c = splat(rng.uniform(-1.0, 1.0));
            for i in 0..WIDTH {
                assert_eq!(add(a, b)[i].to_bits(), (a[i] + b[i]).to_bits());
                assert_eq!(mul(a, b)[i].to_bits(), (a[i] * b[i]).to_bits());
                assert_eq!(
                    mul_add(a, b, c)[i].to_bits(),
                    (a[i] * b[i] + c[i]).to_bits()
                );
                assert_eq!(min(a, b)[i].to_bits(), a[i].min(b[i]).to_bits());
                assert_eq!(max(a, b)[i].to_bits(), a[i].max(b[i]).to_bits());
                assert_eq!(sqrt(a)[i].to_bits(), a[i].sqrt().to_bits());
            }
        }
    }

    #[test]
    fn scale_add_and_neg_mul_are_exact() {
        let mut rng = Rng(17);
        let xs: Vec<f64> = (0..33).map(|_| rng.uniform(0.1, 10.0)).collect();
        let ys: Vec<f64> = (0..33).map(|_| rng.uniform(0.1, 10.0)).collect();
        let mut buf = xs.clone();
        scale_add_slice(&mut buf, -4.07, 0.5423);
        for (x, got) in xs.iter().zip(&buf) {
            assert_eq!(got.to_bits(), (*x * -4.07 + 0.5423).to_bits());
        }
        let mut buf = xs.clone();
        neg_mul_slice(&mut buf, &ys);
        for ((x, y), got) in xs.iter().zip(&ys).zip(&buf) {
            assert_eq!(got.to_bits(), (-(*x * *y)).to_bits());
        }
    }
}
