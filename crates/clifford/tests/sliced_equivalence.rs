//! Bit-sliced vs row-wise Pauli-sum equivalence suite.
//!
//! `Tableau::expectation_sum` screens 64 terms per stabilizer pass and
//! adds only the terms that survive. It must return exactly the bits of
//! the row-wise sum `Σ c_t · ⟨P_t⟩` folded by `Iterator::sum`, on every
//! term range: across register widths up to the 64-qubit cap, term
//! counts on both sides of a block edge, sub-ranges that start and end
//! mid-block, with and without an identity term, and on sums whose every
//! term vanishes, where only the sign of zero is left to get right.

use cafqa_circuit::Circuit;
use cafqa_clifford::{SlicedTerms, Tableau};
use cafqa_pauli::PauliString;
use proptest::prelude::*;

const WIDTHS: [usize; 6] = [1, 4, 5, 33, 63, 64];
const TERM_COUNTS: [usize; 6] = [0, 1, 63, 64, 65, 200];
/// Coefficients that cancel exactly and carry both signs of zero.
const COEFFICIENTS: [f64; 8] = [1.0, -1.0, 0.5, -0.5, 0.25, 0.0, -0.0, -0.125];

/// The row-wise reference: one `expectation_masks` call per term.
fn rowwise(tableau: &Tableau, terms: &[(u64, u64, f64)]) -> f64 {
    terms.iter().map(|&(x, z, c)| c * f64::from(tableau.expectation_masks(x, z))).sum()
}

/// xorshift64*: the term lists are drawn inside each case from its seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

fn width_mask(n: usize) -> u64 {
    if n == 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// A random Clifford circuit on `n` qubits: primitive Cliffords plus
/// π/2-grid rotations, with qubits drawn modulo `n`.
fn tableau(n: usize, moves: &[(usize, usize, usize, usize)]) -> Tableau {
    let mut c = Circuit::new(n);
    for &(kind, q, offset, rot) in moves {
        let q = q % n;
        let q2 = (q + 1 + offset % n.saturating_sub(1).max(1)) % n;
        let angle = rot as f64 * std::f64::consts::FRAC_PI_2;
        match kind {
            0 => c.h(q),
            1 => c.s(q),
            2 => c.sdg(q),
            3 => c.x(q),
            4 => c.y(q),
            5 => c.z(q),
            6 if q != q2 => c.cx(q, q2),
            7 if q != q2 => c.cz(q, q2),
            6 | 7 => &mut c,
            8 => c.ry(q, angle),
            9 => c.rz(q, angle),
            _ => c.rx(q, angle),
        };
    }
    Tableau::from_circuit(&c).unwrap()
}

/// `count` terms mixing dense random Paulis (nearly always vanishing),
/// one- and two-qubit Paulis (the shape of molecular terms) and products
/// of stabilizer generators (always surviving), with an optional
/// identity term at a random position.
fn terms(t: &Tableau, count: usize, identity: bool, rng: &mut Rng) -> Vec<(u64, u64, f64)> {
    let n = t.num_qubits();
    let stabilizers = t.stabilizers();
    let mut out: Vec<(u64, u64, f64)> = (0..count)
        .map(|_| {
            let (x, z) = match rng.below(3) {
                0 => (rng.next() & width_mask(n), rng.next() & width_mask(n)),
                1 => {
                    let (a, b) = (1u64 << rng.below(n), 1u64 << rng.below(n));
                    (a * (rng.next() & 1), (a | b) * (rng.next() & 1))
                }
                _ => {
                    let mut product = PauliString::identity(n);
                    for (_, s) in &stabilizers {
                        if rng.next() & 1 == 1 {
                            product = product.mul(s).1;
                        }
                    }
                    (product.x_mask(), product.z_mask())
                }
            };
            (x, z, COEFFICIENTS[rng.below(COEFFICIENTS.len())])
        })
        .collect();
    if identity && count > 0 {
        let at = rng.below(count);
        out[at] = (0, 0, out[at].2);
    }
    out
}

/// The ranges checked per case: the whole list, every single-block-edge
/// straddle, and random sub-ranges.
fn ranges(len: usize, rng: &mut Rng) -> Vec<std::ops::Range<usize>> {
    let mut out = vec![0..len, len..len];
    for edge in [64usize, 128, 192] {
        if edge <= len {
            out.push(edge.saturating_sub(1)..(edge + 1).min(len));
            out.push(edge.saturating_sub(3)..len);
            out.push(0..edge);
        }
    }
    for _ in 0..8 {
        let (a, b) = (rng.below(len + 1), rng.below(len + 1));
        out.push(a.min(b)..a.max(b));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Sliced and row-wise sums agree bit for bit on every range.
    #[test]
    fn sliced_sum_matches_rowwise_on_every_range(
        moves in proptest::collection::vec((0usize..11, 0usize..64, 0usize..64, 0usize..4), 0..120),
        width in 0usize..WIDTHS.len(),
        count in 0usize..TERM_COUNTS.len(),
        identity in 0usize..2,
        seed in 1u64..u64::MAX,
    ) {
        let n = WIDTHS[width];
        let t = tableau(n, &moves);
        let mut rng = Rng(seed);
        let list = terms(&t, TERM_COUNTS[count], identity == 1, &mut rng);
        let sliced = SlicedTerms::new(n, list.iter().copied());
        for range in ranges(list.len(), &mut rng) {
            let expected = rowwise(&t, &list[range.clone()]);
            let got = t.expectation_sum(&sliced, range.clone());
            prop_assert!(
                got.to_bits() == expected.to_bits(),
                "n={} {:?}: {} vs {}", n, range, got, expected
            );
        }
    }

    /// Sums whose every term vanishes are ±0, and the sign matches.
    #[test]
    fn all_vanishing_sums_keep_the_sign_of_zero(
        moves in proptest::collection::vec((0usize..11, 0usize..64, 0usize..64, 0usize..4), 0..120),
        width in 0usize..WIDTHS.len(),
        count in 0usize..TERM_COUNTS.len(),
        seed in 1u64..u64::MAX,
    ) {
        let n = WIDTHS[width];
        let t = tableau(n, &moves);
        let mut rng = Rng(seed);
        // Rejection-sample vanishing Paulis; every state has them (half of
        // all Paulis anticommute with any non-identity stabilizer).
        let mut list = Vec::new();
        while list.len() < TERM_COUNTS[count] {
            let (x, z) = (rng.next() & width_mask(n), rng.next() & width_mask(n));
            if t.expectation_masks(x, z) == 0 {
                list.push((x, z, COEFFICIENTS[rng.below(COEFFICIENTS.len())]));
            }
        }
        let sliced = SlicedTerms::new(n, list.iter().copied());
        for range in ranges(list.len(), &mut rng) {
            let expected = rowwise(&t, &list[range.clone()]);
            let got = t.expectation_sum(&sliced, range.clone());
            prop_assert_eq!(expected, 0.0);
            prop_assert!(
                got.to_bits() == expected.to_bits(),
                "n={} {:?}: {} vs {}", n, range, got, expected
            );
        }
    }

    /// Non-finite coefficients poison the sum exactly as in the row-wise
    /// fold, vanishing terms included (`∞ · 0` is NaN). Infinite sums
    /// match bit for bit; NaN sums match as NaN, since Rust does not pin
    /// which NaN payload or sign an operation on NaNs returns.
    #[test]
    fn nonfinite_coefficients_match_rowwise(
        moves in proptest::collection::vec((0usize..11, 0usize..64, 0usize..64, 0usize..4), 0..60),
        width in 0usize..WIDTHS.len(),
        seed in 1u64..u64::MAX,
    ) {
        let n = WIDTHS[width];
        let t = tableau(n, &moves);
        let mut rng = Rng(seed);
        let mut list = terms(&t, 130, true, &mut rng);
        for special in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let at = rng.below(list.len());
            list[at].2 = special;
        }
        let sliced = SlicedTerms::new(n, list.iter().copied());
        for range in ranges(list.len(), &mut rng) {
            let expected = rowwise(&t, &list[range.clone()]);
            let got = t.expectation_sum(&sliced, range.clone());
            prop_assert!(
                got.to_bits() == expected.to_bits() || (got.is_nan() && expected.is_nan()),
                "n={} {:?}: {} vs {}", n, range, got, expected
            );
        }
    }
}

/// The empty sum is `Iterator::sum`'s neutral element, `-0.0`.
#[test]
fn empty_sum_is_the_iterator_sum_neutral_element() {
    let t = Tableau::zero_state(3);
    let sliced = SlicedTerms::new(3, [(0, 1, 1.0), (1, 0, 2.0)]);
    let neutral: f64 = std::iter::empty::<f64>().sum();
    for range in [0..0, 1..1, 2..2] {
        assert_eq!(t.expectation_sum(&sliced, range).to_bits(), neutral.to_bits());
    }
}

/// `SlicedTerms::from_op` keeps the operator's term order, so the sliced
/// sum reproduces `Tableau::expectation` bit for bit.
#[test]
fn from_op_matches_operator_expectation() {
    let mut c = Circuit::new(4);
    c.h(0).cx(0, 1).s(1).cx(1, 2).h(3).cz(2, 3);
    let t = Tableau::from_circuit(&c).unwrap();
    let op = "0.3*XXII - 0.7*YYZI + 0.1*IIII + 1.5*ZZII - 0.2*IXZX + 0.05*IIZZ".parse().unwrap();
    let sliced = SlicedTerms::from_op(&op);
    assert_eq!(t.expectation_sum(&sliced, 0..sliced.len()).to_bits(), t.expectation(&op).to_bits());
}
