//! Bit-sliced Pauli sums: a term list laid out so that one pass over a
//! stabilizer row screens 64 terms at once (see
//! [`Tableau::expectation_sum`](crate::Tableau::expectation_sum)).

use cafqa_pauli::PauliOp;

/// Terms per block: one bit lane of a `u64` column word per term.
pub(crate) const LANES: usize = 64;

/// A real-coefficient Pauli sum `Σ_t c_t P_t` stored for the bit-sliced
/// expectation kernel.
///
/// The terms are kept once, in term order, as `(x, z)` masks and
/// coefficients. On top of that, every block of 64 consecutive terms
/// carries `2n` *transposed* column words: bit `t` of the X column of
/// qubit `q` is set when term `64·block + t` has an X or Y on `q`, and
/// likewise for the Z column. A stabilizer row `(x, z)` then finds the
/// anticommutation pattern of all 64 terms by XOR-ing the Z columns its
/// X bits select and the X columns its Z bits select.
///
/// Construction costs `O(Σ_t weight(P_t))`: only the set bits of each
/// term are visited.
///
/// # Examples
///
/// ```
/// use cafqa_circuit::Circuit;
/// use cafqa_clifford::{SlicedTerms, Tableau};
///
/// let mut c = Circuit::new(2);
/// c.h(0).cx(0, 1);
/// let bell = Tableau::from_circuit(&c).unwrap();
/// let h = "0.5*XX - 0.25*YY + 3.0*IZ".parse().unwrap();
/// let terms = SlicedTerms::from_op(&h);
/// assert_eq!(bell.expectation_sum(&terms, 0..terms.len()), bell.expectation(&h));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SlicedTerms {
    n: usize,
    /// `(x, z)` masks per term, in term order.
    masks: Vec<(u64, u64)>,
    /// Real coefficients per term, in term order.
    coeffs: Vec<f64>,
    /// `2n` words per block: word `2q` is the X column of qubit `q`,
    /// word `2q + 1` its Z column.
    columns: Vec<u64>,
    /// Per block, the lanes whose coefficient is not finite. A vanishing
    /// term still adds `c · 0`, which is `±0` for finite `c` but NaN
    /// otherwise, so the sum must visit these lanes.
    nonfinite: Vec<u64>,
}

impl SlicedTerms {
    /// Lays out `(x, z, c)` terms on `n` qubits, keeping their order.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64` or a mask has bits at or above `n`.
    pub fn new(n: usize, terms: impl IntoIterator<Item = (u64, u64, f64)>) -> Self {
        assert!(n <= 64, "sliced terms support at most 64 qubits");
        let (masks, coeffs): (Vec<(u64, u64)>, Vec<f64>) =
            terms.into_iter().map(|(x, z, c)| ((x, z), c)).unzip();
        let blocks = masks.len().div_ceil(LANES);
        let mut columns = Vec::with_capacity(blocks * 2 * n);
        let mut nonfinite = Vec::with_capacity(blocks);
        for (block_masks, block_coeffs) in masks.chunks(LANES).zip(coeffs.chunks(LANES)) {
            // One block's columns, gathered on the stack: word `2q` is the
            // X column of qubit `q`, word `2q + 1` its Z column.
            let mut block = [0u64; 2 * LANES];
            let mut flagged = 0u64;
            for (lane, (&(x, z), c)) in block_masks.iter().zip(block_coeffs).enumerate() {
                assert!(n == 64 || (x | z) >> n == 0, "mask bits above the register width");
                let bit = 1u64 << lane;
                for (mask, offset) in [(x, 0), (z, 1)] {
                    let mut m = mask;
                    while m != 0 {
                        block[2 * (m.trailing_zeros() as usize & 63) + offset] |= bit;
                        m &= m - 1;
                    }
                }
                if !c.is_finite() {
                    flagged |= bit;
                }
            }
            columns.extend_from_slice(&block[..2 * n]);
            nonfinite.push(flagged);
        }
        SlicedTerms { n, masks, coeffs, columns, nonfinite }
    }

    /// The real parts of an operator's terms, in its iteration order —
    /// the order (and so the summation order) of
    /// [`Tableau::expectation`](crate::Tableau::expectation).
    pub fn from_op(op: &PauliOp) -> Self {
        SlicedTerms::new(op.num_qubits(), op.iter().map(|(p, c)| (p.x_mask(), p.z_mask(), c.re)))
    }

    /// Register width.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Number of terms.
    pub fn len(&self) -> usize {
        self.coeffs.len()
    }

    /// Whether the sum has no terms.
    pub fn is_empty(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Term `t` as `(x mask, z mask, coefficient)`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= self.len()`.
    pub fn term(&self, t: usize) -> (u64, u64, f64) {
        let (x, z) = self.masks[t];
        (x, z, self.coeffs[t])
    }

    pub(crate) fn coefficients(&self) -> &[f64] {
        &self.coeffs
    }

    /// The `2n` column words of block `block`.
    pub(crate) fn block_columns(&self, block: usize) -> &[u64] {
        &self.columns[block * 2 * self.n..(block + 1) * 2 * self.n]
    }

    /// The lanes of block `block` with a non-finite coefficient.
    pub(crate) fn nonfinite_lanes(&self, block: usize) -> u64 {
        self.nonfinite[block]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn columns_transpose_the_term_masks() {
        let terms: Vec<(u64, u64, f64)> =
            (0..130u64).map(|t| (t % 8, (t * 5) % 8, t as f64)).collect();
        let sliced = SlicedTerms::new(3, terms.iter().copied());
        assert_eq!(sliced.len(), 130);
        assert_eq!((0..130).map(|t| sliced.term(t)).collect::<Vec<_>>(), terms);
        for (t, &(x, z, _)) in terms.iter().enumerate() {
            let columns = sliced.block_columns(t / LANES);
            for q in 0..3 {
                assert_eq!(columns[2 * q] >> (t % LANES) & 1, x >> q & 1, "x t{t} q{q}");
                assert_eq!(columns[2 * q + 1] >> (t % LANES) & 1, z >> q & 1, "z t{t} q{q}");
            }
        }
    }

    #[test]
    fn nonfinite_coefficients_are_flagged_per_lane() {
        let sliced = SlicedTerms::new(1, [(0, 1, 1.0), (1, 0, f64::NAN), (1, 1, f64::INFINITY)]);
        assert_eq!(sliced.nonfinite_lanes(0), 0b110);
    }
}
