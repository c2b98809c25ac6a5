//! Molecular integrals over contracted Gaussians (McMurchie–Davidson).
//!
//! Implements the one-electron (overlap, kinetic, nuclear attraction) and
//! two-electron repulsion integrals through Hermite Gaussian expansions,
//! valid for arbitrary angular momentum (the built-in basis uses s and p).
//!
//! # Summation order
//!
//! The AO integrals are pinned bit for bit against the frozen original in
//! the bench crate (`chem_equivalence`). A contracted ERI sums
//! `c_a c_b c_c c_d [ab|cd]` over the primitives of `a`, `b`, `c`, `d`,
//! outermost first, with the coefficient product formed left to right;
//! a primitive ERI sums its Hermite terms in `(t, u, v, τ, ν, φ)` order.
//! [`compute_ao_integrals`] hoists everything that depends on one side of
//! a quartet — exponent sum, product center, Hermite coefficients per
//! axis, `c_a c_b` — into a table of primitive pairs built once per AO
//! pair, and computes `2π^{5/2}` once; each hoisted value is the same
//! expression on the same operands, so no bit moves. The Boys table of a
//! quartet lives on the stack.

use cafqa_linalg::Matrix;

use crate::basis::{BasisFunction, BasisSet};
use crate::geometry::Molecule;

/// Boys function values `F_0(t) … F_{m_max}(t)`.
///
/// Uses the convergent downward recursion from a truncated series for
/// small `t` and the asymptotic value plus upward recursion for large `t`.
pub fn boys(m_max: usize, t: f64) -> Vec<f64> {
    let mut f = vec![0.0; m_max + 1];
    boys_into(t, &mut f);
    f
}

/// [`boys`] into a caller's table: `f[m] = F_m(t)` for `m < f.len()`.
fn boys_into(t: f64, f: &mut [f64]) {
    let m_max = f.len() - 1;
    if t < 1e-13 {
        for (m, fm) in f.iter_mut().enumerate() {
            *fm = 1.0 / (2.0 * m as f64 + 1.0);
        }
        return;
    }
    if t < 35.0 {
        // Series for the highest order, then downward recursion (stable).
        let m = m_max as f64;
        let mut term = 1.0 / (2.0 * m + 1.0);
        let mut acc = term;
        let mut i = 1.0;
        loop {
            term *= 2.0 * t / (2.0 * m + 2.0 * i + 1.0);
            acc += term;
            if term < 1e-17 * acc {
                break;
            }
            i += 1.0;
        }
        let emt = (-t).exp();
        f[m_max] = emt * acc;
        for k in (1..=m_max).rev() {
            f[k - 1] = (2.0 * t * f[k] + emt) / (2.0 * k as f64 - 1.0);
        }
    } else {
        // Asymptotic F_0 plus upward recursion (stable for large t).
        let emt = (-t).exp();
        f[0] = 0.5 * (std::f64::consts::PI / t).sqrt();
        for k in 0..m_max {
            f[k + 1] = ((2.0 * k as f64 + 1.0) * f[k] - emt) / (2.0 * t);
        }
    }
}

/// Boys orders a stack table holds; higher angular momentum spills to
/// the heap.
const BOYS_STACK: usize = 16;

/// Runs `body` on a Boys table `F_0(t) … F_{m_max}(t)`, on the stack when
/// it fits.
fn with_boys<R>(m_max: usize, t: f64, body: impl FnOnce(&[f64]) -> R) -> R {
    if m_max < BOYS_STACK {
        let mut f = [0.0; BOYS_STACK];
        boys_into(t, &mut f[..=m_max]);
        body(&f[..=m_max])
    } else {
        body(&boys(m_max, t))
    }
}

/// Hermite expansion coefficient `E_t^{ij}` along one axis.
///
/// `qx = Ax − Bx`, `a`/`b` the primitive exponents.
fn hermite_e(i: i32, j: i32, t: i32, qx: f64, a: f64, b: f64) -> f64 {
    let p = a + b;
    let q = a * b / p;
    if t < 0 || t > i + j {
        0.0
    } else if i == 0 && j == 0 && t == 0 {
        (-q * qx * qx).exp()
    } else if j == 0 {
        // Decrement i: bring down (P − A) = −(b/p)·qx = −q·qx/a.
        hermite_e(i - 1, j, t - 1, qx, a, b) / (2.0 * p)
            - (q * qx / a) * hermite_e(i - 1, j, t, qx, a, b)
            + (t + 1) as f64 * hermite_e(i - 1, j, t + 1, qx, a, b)
    } else {
        // Decrement j: (P − B) = +(a/p)·qx = q·qx/b.
        hermite_e(i, j - 1, t - 1, qx, a, b) / (2.0 * p)
            + (q * qx / b) * hermite_e(i, j - 1, t, qx, a, b)
            + (t + 1) as f64 * hermite_e(i, j - 1, t + 1, qx, a, b)
    }
}

/// Hermite Coulomb auxiliary integral `R^n_{tuv}` with precomputed Boys
/// table `f[n] = (F_n(p·|PC|²))`.
fn hermite_r(t: i32, u: i32, v: i32, n: usize, p: f64, pc: [f64; 3], f: &[f64]) -> f64 {
    if t == 0 && u == 0 && v == 0 {
        (-2.0 * p).powi(n as i32) * f[n]
    } else if t > 0 {
        let mut val = pc[0] * hermite_r(t - 1, u, v, n + 1, p, pc, f);
        if t > 1 {
            val += (t - 1) as f64 * hermite_r(t - 2, u, v, n + 1, p, pc, f);
        }
        val
    } else if u > 0 {
        let mut val = pc[1] * hermite_r(t, u - 1, v, n + 1, p, pc, f);
        if u > 1 {
            val += (u - 1) as f64 * hermite_r(t, u - 2, v, n + 1, p, pc, f);
        }
        val
    } else {
        let mut val = pc[2] * hermite_r(t, u, v - 1, n + 1, p, pc, f);
        if v > 1 {
            val += (v - 1) as f64 * hermite_r(t, u, v - 2, n + 1, p, pc, f);
        }
        val
    }
}

fn gaussian_product_center(a: f64, ca: [f64; 3], b: f64, cb: [f64; 3]) -> [f64; 3] {
    let p = a + b;
    [(a * ca[0] + b * cb[0]) / p, (a * ca[1] + b * cb[1]) / p, (a * ca[2] + b * cb[2]) / p]
}

fn primitive_overlap(
    a: f64,
    la: [u32; 3],
    ca: [f64; 3],
    b: f64,
    lb: [u32; 3],
    cb: [f64; 3],
) -> f64 {
    let p = a + b;
    let mut s = (std::f64::consts::PI / p).powf(1.5);
    for axis in 0..3 {
        s *= hermite_e(la[axis] as i32, lb[axis] as i32, 0, ca[axis] - cb[axis], a, b);
    }
    s
}

fn primitive_kinetic(
    a: f64,
    la: [u32; 3],
    ca: [f64; 3],
    b: f64,
    lb: [u32; 3],
    cb: [f64; 3],
) -> f64 {
    let l = lb[0] as f64;
    let m = lb[1] as f64;
    let n = lb[2] as f64;
    let shift = |axis: usize, delta: i32| -> [u32; 3] {
        let mut out = lb;
        let v = out[axis] as i32 + delta;
        if v < 0 {
            // Encoded as an impossible power; caller guards with the factor.
            out[axis] = 0;
        } else {
            out[axis] = v as u32;
        }
        out
    };
    let s0 = primitive_overlap(a, la, ca, b, lb, cb);
    let mut term = b * (2.0 * (l + m + n) + 3.0) * s0;
    term += -2.0
        * b
        * b
        * (primitive_overlap(a, la, ca, b, shift(0, 2), cb)
            + primitive_overlap(a, la, ca, b, shift(1, 2), cb)
            + primitive_overlap(a, la, ca, b, shift(2, 2), cb));
    if l >= 2.0 {
        term += -0.5 * l * (l - 1.0) * primitive_overlap(a, la, ca, b, shift(0, -2), cb);
    }
    if m >= 2.0 {
        term += -0.5 * m * (m - 1.0) * primitive_overlap(a, la, ca, b, shift(1, -2), cb);
    }
    if n >= 2.0 {
        term += -0.5 * n * (n - 1.0) * primitive_overlap(a, la, ca, b, shift(2, -2), cb);
    }
    term
}

fn primitive_nuclear(
    a: f64,
    la: [u32; 3],
    ca: [f64; 3],
    b: f64,
    lb: [u32; 3],
    cb: [f64; 3],
    nucleus: [f64; 3],
) -> f64 {
    let p = a + b;
    let pcenter = gaussian_product_center(a, ca, b, cb);
    let pc = [pcenter[0] - nucleus[0], pcenter[1] - nucleus[1], pcenter[2] - nucleus[2]];
    let r2 = pc[0] * pc[0] + pc[1] * pc[1] + pc[2] * pc[2];
    let lmax = (la[0] + lb[0] + la[1] + lb[1] + la[2] + lb[2]) as usize;
    let val = with_boys(lmax, p * r2, |f| {
        let mut val = 0.0;
        for t in 0..=(la[0] + lb[0]) as i32 {
            for u in 0..=(la[1] + lb[1]) as i32 {
                for v in 0..=(la[2] + lb[2]) as i32 {
                    let e = hermite_e(la[0] as i32, lb[0] as i32, t, ca[0] - cb[0], a, b)
                        * hermite_e(la[1] as i32, lb[1] as i32, u, ca[1] - cb[1], a, b)
                        * hermite_e(la[2] as i32, lb[2] as i32, v, ca[2] - cb[2], a, b);
                    if e == 0.0 {
                        continue;
                    }
                    val += e * hermite_r(t, u, v, 0, p, pc, f);
                }
            }
        }
        val
    });
    2.0 * std::f64::consts::PI / p * val
}

/// One primitive pair of an ordered AO pair `(a, b)`: every quantity
/// the ERI kernel derives from one side of a quartet, computed once per
/// pair instead of once per quartet, each with the expression the
/// per-quartet code used (so its bits are the same).
struct PrimitivePair {
    /// Exponent sum `p = α_a + α_b`.
    p: f64,
    /// Gaussian product center `P`.
    center: [f64; 3],
    /// Hermite coefficients `E_t^{l_a l_b}` per axis, `t = 0 ..= l_a + l_b`.
    hermite: [Vec<f64>; 3],
    /// Total angular momentum `Σ (l_a + l_b)`.
    l: usize,
    /// Contraction coefficients of the two primitives.
    coefs: (f64, f64),
}

impl PrimitivePair {
    /// The primitive pairs of `(a, b)`, `a`'s primitives outer.
    fn of(a: &BasisFunction, b: &BasisFunction) -> Vec<PrimitivePair> {
        let (la, lb) = (a.powers, b.powers);
        let mut pairs = Vec::with_capacity(a.exps.len() * b.exps.len());
        for (&ea, &ca) in a.exps.iter().zip(&a.coefs) {
            for (&eb, &cb) in b.exps.iter().zip(&b.coefs) {
                let hermite = std::array::from_fn(|axis| {
                    let qx = a.center[axis] - b.center[axis];
                    (0..=(la[axis] + lb[axis]) as i32)
                        .map(|t| hermite_e(la[axis] as i32, lb[axis] as i32, t, qx, ea, eb))
                        .collect()
                });
                pairs.push(PrimitivePair {
                    p: ea + eb,
                    center: gaussian_product_center(ea, a.center, eb, b.center),
                    hermite,
                    l: (la.iter().sum::<u32>() + lb.iter().sum::<u32>()) as usize,
                    coefs: (ca, cb),
                });
            }
        }
        pairs
    }
}

/// The primitive ERI `[ab|cd]` of a bra and a ket primitive pair;
/// `two_pi_2_5` is `2π^{5/2}`.
fn primitive_eri(bra: &PrimitivePair, ket: &PrimitivePair, two_pi_2_5: f64) -> f64 {
    let (p, q) = (bra.p, ket.p);
    let alpha = p * q / (p + q);
    let (pp, qq) = (bra.center, ket.center);
    let pq = [pp[0] - qq[0], pp[1] - qq[1], pp[2] - qq[2]];
    let r2 = pq[0] * pq[0] + pq[1] * pq[1] + pq[2] * pq[2];
    let val = with_boys(bra.l + ket.l, alpha * r2, |f| {
        let [ex, ey, ez] = &bra.hermite;
        let [fx, fy, fz] = &ket.hermite;
        let mut val = 0.0;
        for (t, &et) in ex.iter().enumerate() {
            for (u, &eu) in ey.iter().enumerate() {
                for (v, &ev) in ez.iter().enumerate() {
                    let e1 = et * eu * ev;
                    if e1 == 0.0 {
                        continue;
                    }
                    for (tau, &ft) in fx.iter().enumerate() {
                        for (nu, &fu) in fy.iter().enumerate() {
                            for (phi, &fv) in fz.iter().enumerate() {
                                let e2 = ft * fu * fv;
                                if e2 == 0.0 {
                                    continue;
                                }
                                let sign = if (tau + nu + phi) % 2 == 0 { 1.0 } else { -1.0 };
                                let (t, u, v) =
                                    ((t + tau) as i32, (u + nu) as i32, (v + phi) as i32);
                                val += e1 * e2 * sign * hermite_r(t, u, v, 0, alpha, pq, f);
                            }
                        }
                    }
                }
            }
        }
        val
    });
    two_pi_2_5 / (p * q * (p + q).sqrt()) * val
}

/// The contracted ERI `(ab|cd)` from the primitive pairs of `(a, b)` and
/// `(c, d)`: `Σ c_a c_b c_c c_d [ab|cd]`, primitives of `a` outermost.
fn contracted_eri(bra: &[PrimitivePair], ket: &[PrimitivePair], two_pi_2_5: f64) -> f64 {
    let mut s = 0.0;
    for b in bra {
        let cab = b.coefs.0 * b.coefs.1;
        for k in ket {
            s += cab * k.coefs.0 * k.coefs.1 * primitive_eri(b, k, two_pi_2_5);
        }
    }
    s
}

/// `2π^{5/2}`, the ERI prefactor's constant, as the per-quartet code
/// computed it.
fn two_pi_2_5() -> f64 {
    2.0 * std::f64::consts::PI.powf(2.5)
}

/// Contracted overlap integral `⟨a|b⟩`.
pub fn overlap(a: &BasisFunction, b: &BasisFunction) -> f64 {
    let mut s = 0.0;
    for (&ea, &ca) in a.exps.iter().zip(&a.coefs) {
        for (&eb, &cb) in b.exps.iter().zip(&b.coefs) {
            s += ca * cb * primitive_overlap(ea, a.powers, a.center, eb, b.powers, b.center);
        }
    }
    s
}

/// Contracted kinetic-energy integral `⟨a|−∇²/2|b⟩`.
pub fn kinetic(a: &BasisFunction, b: &BasisFunction) -> f64 {
    let mut s = 0.0;
    for (&ea, &ca) in a.exps.iter().zip(&a.coefs) {
        for (&eb, &cb) in b.exps.iter().zip(&b.coefs) {
            s += ca * cb * primitive_kinetic(ea, a.powers, a.center, eb, b.powers, b.center);
        }
    }
    s
}

/// Contracted nuclear-attraction integral `⟨a|1/|r−C||b⟩` (positive;
/// multiply by `−Z` for the attraction term).
pub fn nuclear(a: &BasisFunction, b: &BasisFunction, nucleus: [f64; 3]) -> f64 {
    let mut s = 0.0;
    for (&ea, &ca) in a.exps.iter().zip(&a.coefs) {
        for (&eb, &cb) in b.exps.iter().zip(&b.coefs) {
            s += ca
                * cb
                * primitive_nuclear(ea, a.powers, a.center, eb, b.powers, b.center, nucleus);
        }
    }
    s
}

/// Contracted two-electron repulsion integral `(ab|cd)` in chemist
/// notation.
pub fn eri(a: &BasisFunction, b: &BasisFunction, c: &BasisFunction, d: &BasisFunction) -> f64 {
    contracted_eri(&PrimitivePair::of(a, b), &PrimitivePair::of(c, d), two_pi_2_5())
}

/// The dense two-electron integral tensor `(pq|rs)`.
#[derive(Debug, Clone)]
pub struct EriTensor {
    n: usize,
    data: Vec<f64>,
}

impl EriTensor {
    /// Number of basis functions.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The integral `(pq|rs)`.
    #[inline]
    pub fn get(&self, p: usize, q: usize, r: usize, s: usize) -> f64 {
        self.data[((p * self.n + q) * self.n + r) * self.n + s]
    }

    /// The row-major storage: `(pq|rs)` at `((p·n + q)·n + r)·n + s`.
    pub(crate) fn as_slice(&self) -> &[f64] {
        &self.data
    }

    fn set(&mut self, p: usize, q: usize, r: usize, s: usize, v: f64) {
        self.data[((p * self.n + q) * self.n + r) * self.n + s] = v;
    }

    /// Builds a tensor directly from values (used by MO transforms).
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize, usize, usize) -> f64) -> Self {
        let mut t = EriTensor { n, data: vec![0.0; n * n * n * n] };
        for p in 0..n {
            for q in 0..n {
                for r in 0..n {
                    for s in 0..n {
                        let v = f(p, q, r, s);
                        t.set(p, q, r, s, v);
                    }
                }
            }
        }
        t
    }
}

/// One- and two-electron AO integrals for a molecule.
#[derive(Debug, Clone)]
pub struct AoIntegrals {
    /// Overlap matrix `S`.
    pub overlap: Matrix,
    /// Core Hamiltonian `H = T + V`.
    pub core_hamiltonian: Matrix,
    /// Two-electron tensor `(pq|rs)`.
    pub eri: EriTensor,
    /// Nuclear repulsion energy.
    pub nuclear_repulsion: f64,
}

/// Computes every AO integral for `molecule` in the given basis,
/// exploiting the 8-fold permutational symmetry of the ERIs.
pub fn compute_ao_integrals(molecule: &Molecule, basis: &BasisSet) -> AoIntegrals {
    let n = basis.len();
    let fs = &basis.functions;
    let overlap_m = Matrix::from_fn(n, n, |i, j| {
        if i <= j {
            overlap(&fs[i], &fs[j])
        } else {
            overlap(&fs[j], &fs[i])
        }
    });
    let kinetic_m = Matrix::from_fn(n, n, |i, j| {
        if i <= j {
            kinetic(&fs[i], &fs[j])
        } else {
            kinetic(&fs[j], &fs[i])
        }
    });
    let mut core = kinetic_m;
    for atom in &molecule.atoms {
        let z = atom.element.atomic_number() as f64;
        for i in 0..n {
            for j in i..n {
                let v = -z * nuclear(&fs[i], &fs[j], atom.position);
                core[(i, j)] += v;
                if i != j {
                    core[(j, i)] += v;
                }
            }
        }
    }
    // Primitive pairs of every ordered pair (p, q ≤ p), at p(p+1)/2 + q.
    let pairs: Vec<Vec<PrimitivePair>> = (0..n)
        .flat_map(|p| (0..=p).map(move |q| (p, q)))
        .map(|(p, q)| PrimitivePair::of(&fs[p], &fs[q]))
        .collect();
    let pair = |p: usize, q: usize| &pairs[p * (p + 1) / 2 + q];
    let two_pi_2_5 = two_pi_2_5();
    let mut tensor = EriTensor { n, data: vec![0.0; n * n * n * n] };
    for p in 0..n {
        for q in 0..=p {
            for r in 0..=p {
                let s_max = if r == p { q } else { r };
                for s in 0..=s_max {
                    let v = contracted_eri(pair(p, q), pair(r, s), two_pi_2_5);
                    // All 8 permutations share this value.
                    for (a, b, c, d) in [
                        (p, q, r, s),
                        (q, p, r, s),
                        (p, q, s, r),
                        (q, p, s, r),
                        (r, s, p, q),
                        (s, r, p, q),
                        (r, s, q, p),
                        (s, r, q, p),
                    ] {
                        tensor.set(a, b, c, d, v);
                    }
                }
            }
        }
    }
    AoIntegrals {
        overlap: overlap_m,
        core_hamiltonian: core,
        eri: tensor,
        nuclear_repulsion: molecule.nuclear_repulsion(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{Element, BOHR_PER_ANGSTROM};

    fn h2_szabo() -> (Molecule, BasisSet) {
        // Szabo–Ostlund reference geometry: R = 1.4 bohr.
        let m = Molecule::diatomic(Element::H, Element::H, 1.4 / BOHR_PER_ANGSTROM);
        let b = BasisSet::sto3g(&m);
        (m, b)
    }

    #[test]
    fn boys_zero_argument() {
        let f = boys(4, 0.0);
        for (m, fm) in f.iter().enumerate() {
            assert!((fm - 1.0 / (2.0 * m as f64 + 1.0)).abs() < 1e-14);
        }
    }

    #[test]
    fn boys_matches_quadrature() {
        // F_m(t) = ∫_0^1 u^{2m} exp(-t u²) du by Simpson's rule.
        for &t in &[0.1, 1.0, 5.0, 20.0, 40.0, 80.0] {
            let f = boys(3, t);
            for m in 0..=3 {
                let steps = 20_000;
                let h = 1.0 / steps as f64;
                let mut acc = 0.0;
                for k in 0..steps {
                    let x0 = k as f64 * h;
                    let x1 = x0 + h / 2.0;
                    let x2 = x0 + h;
                    let g = |u: f64| u.powi(2 * m as i32) * (-t * u * u).exp();
                    acc += h / 6.0 * (g(x0) + 4.0 * g(x1) + g(x2));
                }
                assert!((f[m] - acc).abs() < 1e-9, "t={t} m={m}: {} vs {acc}", f[m]);
            }
        }
    }

    #[test]
    fn h2_overlap_matches_szabo_ostlund() {
        let (_, b) = h2_szabo();
        let s12 = overlap(&b.functions[0], &b.functions[1]);
        assert!((s12 - 0.6593).abs() < 5e-4, "S12 = {s12}");
    }

    #[test]
    fn h2_kinetic_matches_szabo_ostlund() {
        let (_, b) = h2_szabo();
        let t11 = kinetic(&b.functions[0], &b.functions[0]);
        let t12 = kinetic(&b.functions[0], &b.functions[1]);
        assert!((t11 - 0.7600).abs() < 5e-4, "T11 = {t11}");
        assert!((t12 - 0.2365).abs() < 5e-4, "T12 = {t12}");
    }

    #[test]
    fn h2_nuclear_matches_szabo_ostlund() {
        let (m, b) = h2_szabo();
        let v11a = -nuclear(&b.functions[0], &b.functions[0], m.atoms[0].position);
        let v12a = -nuclear(&b.functions[0], &b.functions[1], m.atoms[0].position);
        let v22a = -nuclear(&b.functions[1], &b.functions[1], m.atoms[0].position);
        assert!((v11a + 1.2266).abs() < 5e-4, "V11A = {v11a}");
        assert!((v12a + 0.5974).abs() < 5e-4, "V12A = {v12a}");
        assert!((v22a + 0.6538).abs() < 5e-4, "V22A = {v22a}");
    }

    #[test]
    fn h2_eri_matches_szabo_ostlund() {
        let (_, b) = h2_szabo();
        let f = &b.functions;
        let v1111 = eri(&f[0], &f[0], &f[0], &f[0]);
        let v2211 = eri(&f[1], &f[1], &f[0], &f[0]);
        let v2111 = eri(&f[1], &f[0], &f[0], &f[0]);
        let v2121 = eri(&f[1], &f[0], &f[1], &f[0]);
        assert!((v1111 - 0.7746).abs() < 5e-4, "(11|11) = {v1111}");
        assert!((v2211 - 0.5697).abs() < 5e-4, "(22|11) = {v2211}");
        assert!((v2111 - 0.4441).abs() < 5e-4, "(21|11) = {v2111}");
        assert!((v2121 - 0.2970).abs() < 5e-4, "(21|21) = {v2121}");
    }

    #[test]
    fn eri_tensor_has_eightfold_symmetry() {
        let m = Molecule::diatomic(Element::Li, Element::H, 1.6);
        let b = BasisSet::sto3g(&m);
        let ints = compute_ao_integrals(&m, &b);
        let n = b.len();
        // Spot-check symmetry on a few random-ish indices.
        for &(p, q, r, s) in &[(0, 1, 2, 3), (1, 4, 0, 5), (2, 2, 3, 1)] {
            let v = ints.eri.get(p, q, r, s);
            assert!((v - ints.eri.get(q, p, r, s)).abs() < 1e-12);
            assert!((v - ints.eri.get(p, q, s, r)).abs() < 1e-12);
            assert!((v - ints.eri.get(r, s, p, q)).abs() < 1e-12);
        }
        let _ = n;
    }

    #[test]
    fn p_orbital_overlap_is_diagonal_on_same_center() {
        let m = Molecule::diatomic(Element::O, Element::H, 1.0);
        let b = BasisSet::sto3g(&m);
        // O's px/py/pz are functions 2, 3, 4; mutually orthogonal.
        for i in 2..5 {
            for j in 2..5 {
                let s = overlap(&b.functions[i], &b.functions[j]);
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((s - expect).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn core_hamiltonian_is_symmetric() {
        let m = Molecule::from_angstrom(&[
            (Element::O, [0.0, 0.0, 0.0]),
            (Element::H, [0.0, 0.76, 0.59]),
            (Element::H, [0.0, -0.76, 0.59]),
        ]);
        let b = BasisSet::sto3g(&m);
        let ints = compute_ao_integrals(&m, &b);
        assert!(ints.core_hamiltonian.asymmetry() < 1e-10);
        assert!(ints.overlap.asymmetry() < 1e-12);
    }
}
