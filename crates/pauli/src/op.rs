//! Sums of Pauli strings with complex coefficients (qubit Hamiltonians).

use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

use cafqa_linalg::Complex64;

use crate::string::{ParsePauliError, PauliString};

/// A linear combination of Pauli strings, `H = Σ_k c_k P_k`.
///
/// Terms are kept in a sorted map so iteration order — and therefore every
/// downstream computation — is deterministic. Strings are unsigned; all
/// phases live in the coefficients.
///
/// # Examples
///
/// ```
/// use cafqa_pauli::PauliOp;
///
/// // The 4-qubit example Hamiltonian from the paper's §2.1.
/// let h: PauliOp = "0.1*XYXY + 0.5*IZZI".parse().unwrap();
/// assert_eq!(h.num_terms(), 2);
/// assert_eq!(h.num_qubits(), 4);
/// assert!(h.is_hermitian(1e-12));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PauliOp {
    n: usize,
    terms: BTreeMap<PauliString, Complex64>,
}

impl PauliOp {
    /// The zero operator on `n` qubits.
    pub fn zero(n: usize) -> Self {
        PauliOp { n, terms: BTreeMap::new() }
    }

    /// The identity operator on `n` qubits.
    pub fn identity(n: usize) -> Self {
        let mut op = PauliOp::zero(n);
        op.add_term(Complex64::ONE, PauliString::identity(n));
        op
    }

    /// Builds an operator from `(coefficient, string)` pairs, merging
    /// duplicates.
    ///
    /// # Panics
    ///
    /// Panics if strings disagree on qubit count.
    pub fn from_terms(n: usize, terms: impl IntoIterator<Item = (Complex64, PauliString)>) -> Self {
        let mut op = PauliOp::zero(n);
        for (c, p) in terms {
            op.add_term(c, p);
        }
        op
    }

    /// Builds an operator in one bulk pass from mask-form terms
    /// `((x_mask, z_mask), coefficient)` already in the operator's term
    /// order: sorted strictly ascending by `(x_mask, z_mask)`, with no
    /// duplicates (so nothing is merged).
    ///
    /// # Panics
    ///
    /// Panics if the keys are not strictly ascending, or if a mask has
    /// bits at or above `n`.
    pub fn from_sorted_masks(
        n: usize,
        terms: impl IntoIterator<Item = ((u64, u64), Complex64)>,
    ) -> Self {
        let mut last = None;
        let terms = terms.into_iter().map(|((x, z), c)| {
            assert!(last < Some((x, z)), "mask terms must be sorted and unique");
            last = Some((x, z));
            (PauliString::from_masks(n, x, z), c)
        });
        PauliOp { n, terms: terms.collect() }
    }

    /// Number of qubits.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Number of stored terms (after duplicate merging).
    #[inline]
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// Adds `c · P` to the operator.
    ///
    /// # Panics
    ///
    /// Panics if `P` has the wrong qubit count.
    pub fn add_term(&mut self, c: Complex64, p: PauliString) {
        assert_eq!(p.num_qubits(), self.n, "pauli term qubit count mismatch");
        let entry = self.terms.entry(p).or_insert(Complex64::ZERO);
        *entry += c;
    }

    /// The coefficient of a given string (zero if absent).
    pub fn coefficient(&self, p: &PauliString) -> Complex64 {
        self.terms.get(p).copied().unwrap_or(Complex64::ZERO)
    }

    /// Iterates over `(string, coefficient)` pairs in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (&PauliString, &Complex64)> {
        self.terms.iter()
    }

    /// Removes terms with `|c| <= tol`, returning `self` for chaining.
    pub fn pruned(mut self, tol: f64) -> Self {
        self.terms.retain(|_, c| c.norm() > tol);
        self
    }

    /// Scales all coefficients.
    pub fn scaled(mut self, s: Complex64) -> Self {
        for c in self.terms.values_mut() {
            *c *= s;
        }
        self
    }

    /// Hermitian conjugate (conjugates coefficients; strings are Hermitian).
    pub fn dagger(mut self) -> Self {
        for c in self.terms.values_mut() {
            *c = c.conj();
        }
        self
    }

    /// Whether the operator is Hermitian up to `tol` (all coefficients
    /// real, since unsigned Pauli strings are Hermitian).
    pub fn is_hermitian(&self, tol: f64) -> bool {
        self.terms.values().all(|c| c.im.abs() <= tol)
    }

    /// Operator product, cost `O(t₁ · t₂)` term multiplications.
    ///
    /// # Panics
    ///
    /// Panics on qubit-count mismatch.
    pub fn mul_op(&self, other: &PauliOp) -> PauliOp {
        assert_eq!(self.n, other.n, "operator qubit count mismatch");
        let mut out = PauliOp::zero(self.n);
        for (pa, ca) in &self.terms {
            for (pb, cb) in &other.terms {
                let (k, p) = pa.mul(pb);
                out.add_term(*ca * *cb * Complex64::i_pow(k), p);
            }
        }
        out
    }

    /// Sum of the identity-term coefficient (the operator's trace / 2^n).
    pub fn identity_coefficient(&self) -> Complex64 {
        self.coefficient(&PauliString::identity(self.n))
    }

    /// Expectation value on a computational basis state `|b⟩`.
    pub fn expectation_basis(&self, b: u64) -> f64 {
        self.terms.iter().map(|(p, c)| c.re * p.expectation_basis(b)).sum()
    }

    /// Splits the operator into `(real_factor, x_mask, z_mask)` triples for
    /// a real computational-basis matrix action, or `None` if the operator
    /// is not real in that basis.
    ///
    /// A term `c · P` with `P = i^{#Y} X^x Z^z` has basis matrix elements
    /// `c · i^{#Y} · (±1)`; the matrix is real exactly when `c · i^{#Y}` is
    /// real for every term. Molecular Hamiltonians from real integrals
    /// always satisfy this; the tuple list feeds the Lanczos matvec.
    pub fn real_basis_terms(&self, tol: f64) -> Option<Vec<(f64, u64, u64)>> {
        let mut out = Vec::with_capacity(self.terms.len());
        for (p, c) in &self.terms {
            let f = *c * Complex64::i_pow(p.y_count() as i32);
            if f.im.abs() > tol {
                return None;
            }
            out.push((f.re, p.x_mask(), p.z_mask()));
        }
        Some(out)
    }

    /// Applies the operator to a dense complex state vector (`2^n` long).
    ///
    /// # Panics
    ///
    /// Panics if the vector lengths are not `2^n` or `n > 24` (guard
    /// against accidental huge allocations).
    pub fn apply_to_state(&self, x: &[Complex64], y: &mut [Complex64]) {
        assert!(self.n <= 24, "dense application limited to 24 qubits");
        let dim = 1usize << self.n;
        assert_eq!(x.len(), dim);
        assert_eq!(y.len(), dim);
        for (p, c) in &self.terms {
            let base = *c * Complex64::i_pow(p.y_count() as i32);
            let xm = p.x_mask();
            let zm = p.z_mask();
            for (b, amp) in x.iter().enumerate() {
                if amp.norm_sqr() == 0.0 {
                    continue;
                }
                let sign = if (zm & b as u64).count_ones() % 2 == 0 { 1.0 } else { -1.0 };
                let target = b ^ xm as usize;
                y[target] += base * sign * *amp;
            }
        }
    }

    /// Dense matrix representation (row-major, `2^n × 2^n`), for tests and
    /// tiny systems.
    ///
    /// # Panics
    ///
    /// Panics if `n > 12`.
    pub fn to_dense(&self) -> Vec<Complex64> {
        assert!(self.n <= 12, "dense export limited to 12 qubits");
        let dim = 1usize << self.n;
        let mut m = vec![Complex64::ZERO; dim * dim];
        for (p, c) in &self.terms {
            let base = *c * Complex64::i_pow(p.y_count() as i32);
            let xm = p.x_mask() as usize;
            let zm = p.z_mask();
            for b in 0..dim {
                let sign = if (zm & b as u64).count_ones() % 2 == 0 { 1.0 } else { -1.0 };
                let row = b ^ xm;
                m[row * dim + b] += base * sign;
            }
        }
        m
    }

    /// Rewrites every string through `f`, merging collisions; used by the
    /// qubit-tapering reduction. `f` returns an extra scalar factor.
    pub fn map_terms(
        &self,
        new_n: usize,
        mut f: impl FnMut(&PauliString) -> (Complex64, PauliString),
    ) -> PauliOp {
        let mut out = PauliOp::zero(new_n);
        for (p, c) in &self.terms {
            let (factor, q) = f(p);
            out.add_term(*c * factor, q);
        }
        out
    }
}

impl std::ops::Add<&PauliOp> for &PauliOp {
    type Output = PauliOp;
    fn add(self, rhs: &PauliOp) -> PauliOp {
        assert_eq!(self.n, rhs.n, "operator qubit count mismatch");
        let mut out = self.clone();
        for (p, c) in &rhs.terms {
            out.add_term(*c, *p);
        }
        out
    }
}

impl std::ops::Sub<&PauliOp> for &PauliOp {
    type Output = PauliOp;
    fn sub(self, rhs: &PauliOp) -> PauliOp {
        assert_eq!(self.n, rhs.n, "operator qubit count mismatch");
        let mut out = self.clone();
        for (p, c) in &rhs.terms {
            out.add_term(-*c, *p);
        }
        out
    }
}

impl fmt::Display for PauliOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            return write!(f, "0");
        }
        for (i, (p, c)) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            if c.im.abs() < 1e-15 {
                write!(f, "{}*{}", c.re, p)?;
            } else {
                write!(f, "({})*{}", c, p)?;
            }
        }
        Ok(())
    }
}

impl FromStr for PauliOp {
    type Err = ParsePauliError;

    /// Parses expressions like `0.1*XYXY + 0.5*IZZI - 2e-3*ZZZZ` or bare
    /// strings like `XX` (unit coefficient). An optional trailing `i` on a
    /// coefficient marks it imaginary: `0.5i*XY`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        // Split into signed chunks at top-level +/-, keeping exponent signs
        // (`2e-3`) intact.
        let mut chunks: Vec<String> = Vec::new();
        let mut current = String::new();
        let mut prev_non_space = '\0';
        for ch in s.chars() {
            if (ch == '+' || ch == '-')
                && !current.trim().is_empty()
                && !matches!(prev_non_space, 'e' | 'E' | '+' | '-' | '*')
            {
                chunks.push(std::mem::take(&mut current));
            }
            current.push(ch);
            if !ch.is_whitespace() {
                prev_non_space = ch;
            }
        }
        if !current.trim().is_empty() {
            chunks.push(current);
        }
        if chunks.is_empty() {
            return Err(ParsePauliError::new("empty operator expression"));
        }
        let mut terms: Vec<(Complex64, PauliString)> = Vec::new();
        let mut n = None;
        for chunk in &chunks {
            let chunk = chunk.trim();
            let (coeff, pauli_text) = match chunk.split_once('*') {
                Some((c, p)) => {
                    let c: String = c.chars().filter(|ch| !ch.is_whitespace()).collect();
                    let (body, imag) = match c.strip_suffix(['i', 'j']) {
                        Some(b) => (b, true),
                        None => (c.as_str(), false),
                    };
                    let body = match body {
                        "" | "+" => "1".to_string(),
                        "-" => "-1".to_string(),
                        other => other.to_string(),
                    };
                    let v: f64 = body
                        .parse()
                        .map_err(|_| ParsePauliError::new(format!("bad coefficient '{c}'")))?;
                    let coeff = if imag { Complex64::new(0.0, v) } else { Complex64::from(v) };
                    (coeff, p.trim())
                }
                None => match chunk.strip_prefix('-') {
                    Some(rest) => (Complex64::from(-1.0), rest.trim()),
                    None => (Complex64::ONE, chunk.strip_prefix('+').unwrap_or(chunk).trim()),
                },
            };
            let p: PauliString = pauli_text.parse()?;
            match n {
                None => n = Some(p.num_qubits()),
                Some(nq) if nq != p.num_qubits() => {
                    return Err(ParsePauliError::new(format!(
                        "term '{pauli_text}' has {} qubits, expected {nq}",
                        p.num_qubits()
                    )))
                }
                _ => {}
            }
            terms.push((coeff, p));
        }
        Ok(PauliOp::from_terms(n.unwrap(), terms))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(s: &str) -> PauliOp {
        s.parse().unwrap()
    }

    #[test]
    fn parse_paper_example() {
        let h = op("0.1*XYXY + 0.5*IZZI");
        assert_eq!(h.num_qubits(), 4);
        assert_eq!(h.num_terms(), 2);
        assert_eq!(h.coefficient(&"XYXY".parse().unwrap()).re, 0.1);
        assert_eq!(h.coefficient(&"IZZI".parse().unwrap()).re, 0.5);
    }

    #[test]
    fn parse_signs_and_bare_terms() {
        let h = op("-ZZ + 2*XX - 0.5*YY");
        assert_eq!(h.coefficient(&"ZZ".parse().unwrap()).re, -1.0);
        assert_eq!(h.coefficient(&"XX".parse().unwrap()).re, 2.0);
        assert_eq!(h.coefficient(&"YY".parse().unwrap()).re, -0.5);
    }

    #[test]
    fn parse_imaginary_coefficient() {
        let h = op("0.5i*XY");
        assert_eq!(h.coefficient(&"XY".parse().unwrap()), Complex64::new(0.0, 0.5));
        assert!(!h.is_hermitian(1e-12));
    }

    #[test]
    fn parse_rejects_qubit_mismatch() {
        assert!("XX + ZZZ".parse::<PauliOp>().is_err());
    }

    #[test]
    fn duplicate_terms_merge() {
        let h = op("0.5*XX + 0.25*XX");
        assert_eq!(h.num_terms(), 1);
        assert_eq!(h.coefficient(&"XX".parse().unwrap()).re, 0.75);
    }

    #[test]
    fn pruning_drops_cancelled_terms() {
        let h = op("0.5*XX - 0.5*XX + 1.0*ZZ").pruned(1e-14);
        assert_eq!(h.num_terms(), 1);
    }

    #[test]
    fn product_of_anticommuting_singles() {
        // (X)(Y) = iZ
        let prod = op("X").mul_op(&op("Y"));
        assert_eq!(prod.coefficient(&"Z".parse().unwrap()), Complex64::I);
    }

    #[test]
    fn squared_pauli_is_identity() {
        let h = op("XZ");
        let sq = h.mul_op(&h).pruned(1e-14);
        assert_eq!(sq.num_terms(), 1);
        assert_eq!(sq.identity_coefficient(), Complex64::ONE);
    }

    #[test]
    fn basis_expectation_diagonal_only() {
        let h = op("0.5*IZZI + 0.1*XYXY");
        // |0110⟩: bits 1 and 2 set -> ZZ on qubits 1,2 gives (+1)(-1)(-1)=...
        // z-mask bits 1,2 overlap with b=0b0110 in two positions -> +1.
        assert_eq!(h.expectation_basis(0b0110), 0.5);
        assert_eq!(h.expectation_basis(0b0010), -0.5);
    }

    #[test]
    fn dense_matrix_of_z() {
        let h = op("Z");
        let m = h.to_dense();
        assert_eq!(m[0], Complex64::ONE);
        assert_eq!(m[3], Complex64::new(-1.0, 0.0));
        assert_eq!(m[1], Complex64::ZERO);
    }

    #[test]
    fn dense_matrix_of_y_is_imaginary() {
        let h = op("Y");
        let m = h.to_dense();
        // Y = [[0, -i], [i, 0]] with column-to-row layout m[row*2+col].
        assert_eq!(m[1], Complex64::new(0.0, -1.0));
        assert_eq!(m[2], Complex64::I);
    }

    #[test]
    fn real_basis_terms_for_even_y() {
        let h = op("0.5*YY + 0.25*XX");
        let terms = h.real_basis_terms(1e-12).unwrap();
        assert_eq!(terms.len(), 2);
        // YY factor: 0.5 * i^2 = -0.5.
        let yy = terms.iter().find(|(_, x, z)| *x == 0b11 && *z == 0b11).unwrap();
        assert_eq!(yy.0, -0.5);
    }

    #[test]
    fn real_basis_terms_rejects_single_y_real_coeff() {
        let h = op("0.5*Y");
        assert!(h.real_basis_terms(1e-12).is_none());
    }

    #[test]
    fn apply_to_state_matches_dense() {
        let h = op("0.3*XZ + 0.7*YI - 0.2*ZZ");
        let dim = 4;
        let m = h.to_dense();
        let x: Vec<Complex64> =
            (0..dim).map(|k| Complex64::new(0.1 * k as f64 + 0.3, 0.05 * k as f64 - 0.1)).collect();
        let mut y = vec![Complex64::ZERO; dim];
        h.apply_to_state(&x, &mut y);
        for row in 0..dim {
            let mut expect = Complex64::ZERO;
            for col in 0..dim {
                expect += m[row * dim + col] * x[col];
            }
            assert!(y[row].approx_eq(expect, 1e-12), "row {row}: {} vs {}", y[row], expect);
        }
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = op("0.5*XX + 0.1*ZZ");
        let b = op("0.2*XX - 0.4*YY");
        let s = (&(&a + &b) - &b).pruned(1e-14);
        assert_eq!(s.num_terms(), a.num_terms());
        for (p, c) in a.iter() {
            assert!(s.coefficient(p).approx_eq(*c, 1e-12));
        }
    }
}
