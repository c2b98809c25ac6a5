//! Frozen pre-optimization chemistry chain.
//!
//! The chemistry stages were rewritten for speed under a *bit-identical*
//! contract: the same AO integrals, the same SCF result (energy,
//! coefficients, orbital energies, iteration count, convergence flag),
//! the same active-space integrals and the same tapered operators, to the
//! last bit. This module freezes the original code of every rewritten
//! stage verbatim — the McMurchie–Davidson integrals with the allocating
//! Boys function, the RHF/UHF loops with their element-wise Fock build,
//! the cyclic Jacobi `Matrix::eigh`, the `BTreeMap`-accumulating
//! Hamiltonian builder and the two-rebuild qubit tapering — so the
//! `chem_equivalence` suite and the `chem_pipeline` A/B always compare
//! against the genuine original, no matter how production evolves.
//!
//! Only the glue is adapted: the ERI tensor is filled through
//! [`EriTensor::from_fn`] (its storage is private to `cafqa-chem`), and
//! `eigh`/`inv_sqrt_symmetric` are free functions over [`Matrix`]. The
//! stages production does not rewrite (active-space selection and
//! transformation, the ladder operators, the N/Sz/S² builders) are called
//! from `cafqa-chem` directly.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use cafqa_chem::mapping::{lowering_op, raising_op, spin_orbital, Mapping};
use cafqa_chem::{
    active_space_integrals, hf_bitstring, number_operator, s_squared_operator, select_active_space,
    sz_operator, AoIntegrals, BasisFunction, BasisSet, EriTensor, Molecule, MoleculeKind, ScfError,
    ScfKind, ScfOptions, ScfResult, Spin, SpinIntegrals,
};
use cafqa_linalg::{Complex64, Eigh, LinalgError, Matrix};
use cafqa_pauli::{phase_exponent, PauliOp, PauliString};

// ---------------------------------------------------------------------
// AO integrals (McMurchie–Davidson).
// ---------------------------------------------------------------------

/// The original Boys function `F_0(t) … F_{m_max}(t)`, allocating its
/// table on every call.
pub fn reference_boys(m_max: usize, t: f64) -> Vec<f64> {
    let mut f = vec![0.0; m_max + 1];
    if t < 1e-13 {
        for (m, fm) in f.iter_mut().enumerate() {
            *fm = 1.0 / (2.0 * m as f64 + 1.0);
        }
        return f;
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
    f
}

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
    let f = reference_boys(lmax, p * r2);
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
                val += e * hermite_r(t, u, v, 0, p, pc, &f);
            }
        }
    }
    2.0 * std::f64::consts::PI / p * val
}

#[allow(clippy::too_many_arguments)]
fn primitive_eri(
    a: f64,
    la: [u32; 3],
    ca: [f64; 3],
    b: f64,
    lb: [u32; 3],
    cb: [f64; 3],
    c: f64,
    lc: [u32; 3],
    cc: [f64; 3],
    d: f64,
    ld: [u32; 3],
    cd: [f64; 3],
) -> f64 {
    let p = a + b;
    let q = c + d;
    let alpha = p * q / (p + q);
    let pp = gaussian_product_center(a, ca, b, cb);
    let qq = gaussian_product_center(c, cc, d, cd);
    let pq = [pp[0] - qq[0], pp[1] - qq[1], pp[2] - qq[2]];
    let r2 = pq[0] * pq[0] + pq[1] * pq[1] + pq[2] * pq[2];
    let lmax = (la.iter().sum::<u32>()
        + lb.iter().sum::<u32>()
        + lc.iter().sum::<u32>()
        + ld.iter().sum::<u32>()) as usize;
    let f = reference_boys(lmax, alpha * r2);
    let mut val = 0.0;
    for t in 0..=(la[0] + lb[0]) as i32 {
        for u in 0..=(la[1] + lb[1]) as i32 {
            for v in 0..=(la[2] + lb[2]) as i32 {
                let e1 = hermite_e(la[0] as i32, lb[0] as i32, t, ca[0] - cb[0], a, b)
                    * hermite_e(la[1] as i32, lb[1] as i32, u, ca[1] - cb[1], a, b)
                    * hermite_e(la[2] as i32, lb[2] as i32, v, ca[2] - cb[2], a, b);
                if e1 == 0.0 {
                    continue;
                }
                for tau in 0..=(lc[0] + ld[0]) as i32 {
                    for nu in 0..=(lc[1] + ld[1]) as i32 {
                        for phi in 0..=(lc[2] + ld[2]) as i32 {
                            let e2 =
                                hermite_e(lc[0] as i32, ld[0] as i32, tau, cc[0] - cd[0], c, d)
                                    * hermite_e(
                                        lc[1] as i32,
                                        ld[1] as i32,
                                        nu,
                                        cc[1] - cd[1],
                                        c,
                                        d,
                                    )
                                    * hermite_e(
                                        lc[2] as i32,
                                        ld[2] as i32,
                                        phi,
                                        cc[2] - cd[2],
                                        c,
                                        d,
                                    );
                            if e2 == 0.0 {
                                continue;
                            }
                            let sign = if (tau + nu + phi) % 2 == 0 { 1.0 } else { -1.0 };
                            val += e1
                                * e2
                                * sign
                                * hermite_r(t + tau, u + nu, v + phi, 0, alpha, pq, &f);
                        }
                    }
                }
            }
        }
    }
    2.0 * std::f64::consts::PI.powf(2.5) / (p * q * (p + q).sqrt()) * val
}

fn overlap(a: &BasisFunction, b: &BasisFunction) -> f64 {
    let mut s = 0.0;
    for (&ea, &ca) in a.exps.iter().zip(&a.coefs) {
        for (&eb, &cb) in b.exps.iter().zip(&b.coefs) {
            s += ca * cb * primitive_overlap(ea, a.powers, a.center, eb, b.powers, b.center);
        }
    }
    s
}

fn kinetic(a: &BasisFunction, b: &BasisFunction) -> f64 {
    let mut s = 0.0;
    for (&ea, &ca) in a.exps.iter().zip(&a.coefs) {
        for (&eb, &cb) in b.exps.iter().zip(&b.coefs) {
            s += ca * cb * primitive_kinetic(ea, a.powers, a.center, eb, b.powers, b.center);
        }
    }
    s
}

fn nuclear(a: &BasisFunction, b: &BasisFunction, nucleus: [f64; 3]) -> f64 {
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

fn eri(a: &BasisFunction, b: &BasisFunction, c: &BasisFunction, d: &BasisFunction) -> f64 {
    let mut s = 0.0;
    for (&ea, &ca) in a.exps.iter().zip(&a.coefs) {
        for (&eb, &cb) in b.exps.iter().zip(&b.coefs) {
            for (&ec, &cc) in c.exps.iter().zip(&c.coefs) {
                for (&ed, &cd) in d.exps.iter().zip(&d.coefs) {
                    s += ca
                        * cb
                        * cc
                        * cd
                        * primitive_eri(
                            ea, a.powers, a.center, eb, b.powers, b.center, ec, c.powers, c.center,
                            ed, d.powers, d.center,
                        );
                }
            }
        }
    }
    s
}

/// The original `compute_ao_integrals`: every AO integral, one
/// contracted quartet per unique ERI with primitive quantities
/// recomputed per primitive quartet.
pub fn reference_compute_ao_integrals(molecule: &Molecule, basis: &BasisSet) -> AoIntegrals {
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
    let mut data = vec![0.0; n * n * n * n];
    let index = |p: usize, q: usize, r: usize, s: usize| ((p * n + q) * n + r) * n + s;
    for p in 0..n {
        for q in 0..=p {
            for r in 0..=p {
                let s_max = if r == p { q } else { r };
                for s in 0..=s_max {
                    let v = eri(&fs[p], &fs[q], &fs[r], &fs[s]);
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
                        data[index(a, b, c, d)] = v;
                    }
                }
            }
        }
    }
    AoIntegrals {
        overlap: overlap_m,
        core_hamiltonian: core,
        eri: EriTensor::from_fn(n, |p, q, r, s| data[index(p, q, r, s)]),
        nuclear_repulsion: molecule.nuclear_repulsion(),
    }
}

// ---------------------------------------------------------------------
// Dense linear algebra: the original index-based Jacobi eigensolver.
// ---------------------------------------------------------------------

/// The original `Matrix::eigh`: cyclic Jacobi through `(i, j)` indexing,
/// eigenvectors accumulated in columns.
///
/// # Errors
///
/// As `Matrix::eigh`.
pub fn reference_eigh(m: &Matrix) -> Result<Eigh, LinalgError> {
    if m.rows() != m.cols() {
        return Err(LinalgError::DimensionMismatch { context: "eigh" });
    }
    let n = m.rows();
    let mut a = m.clone();
    let mut v = Matrix::identity(n);
    if n == 0 {
        return Ok(Eigh { values: vec![], vectors: v });
    }
    const MAX_SWEEPS: usize = 128;
    let scale = m.frobenius_norm().max(1.0);
    for _sweep in 0..MAX_SWEEPS {
        let mut off = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                off += a[(i, j)] * a[(i, j)];
            }
        }
        if off.sqrt() <= 1e-14 * scale {
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&p, &q| a[(p, p)].partial_cmp(&a[(q, q)]).unwrap());
            let values = order.iter().map(|&k| a[(k, k)]).collect();
            let vectors = Matrix::from_fn(n, n, |i, j| v[(i, order[j])]);
            return Ok(Eigh { values, vectors });
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = a[(p, q)];
                if apq.abs() <= 1e-300 {
                    continue;
                }
                let app = a[(p, p)];
                let aqq = a[(q, q)];
                // Standard Jacobi rotation: choose t = tan(θ) from the
                // stable quadratic root so |θ| ≤ π/4.
                let tau = (aqq - app) / (2.0 * apq);
                let t = if tau >= 0.0 {
                    1.0 / (tau + (1.0 + tau * tau).sqrt())
                } else {
                    -1.0 / (-tau + (1.0 + tau * tau).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                for k in 0..n {
                    let akp = a[(k, p)];
                    let akq = a[(k, q)];
                    a[(k, p)] = c * akp - s * akq;
                    a[(k, q)] = s * akp + c * akq;
                }
                for k in 0..n {
                    let apk = a[(p, k)];
                    let aqk = a[(q, k)];
                    a[(p, k)] = c * apk - s * aqk;
                    a[(q, k)] = s * apk + c * aqk;
                }
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }
    Err(LinalgError::NoConvergence { iterations: MAX_SWEEPS })
}

/// The original `Matrix::inv_sqrt_symmetric`, over [`reference_eigh`].
///
/// # Errors
///
/// Propagates eigensolver failures.
pub fn reference_inv_sqrt_symmetric(m: &Matrix, threshold: f64) -> Result<Matrix, LinalgError> {
    let eig = reference_eigh(m)?;
    let n = m.rows();
    let mut out = Matrix::zeros(n, n);
    for k in 0..n {
        let lambda = eig.values[k];
        if lambda <= threshold {
            continue;
        }
        let w = 1.0 / lambda.sqrt();
        for i in 0..n {
            for j in 0..n {
                out[(i, j)] += eig.vectors[(i, k)] * w * eig.vectors[(j, k)];
            }
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// SCF: the original RHF/UHF loops with the element-wise Fock build.
// ---------------------------------------------------------------------

fn density(c: &Matrix, nocc: usize, scale: f64) -> Matrix {
    let n = c.rows();
    Matrix::from_fn(n, n, |mu, nu| {
        let mut acc = 0.0;
        for i in 0..nocc {
            acc += c[(mu, i)] * c[(nu, i)];
        }
        scale * acc
    })
}

/// The original two-electron Fock contribution `G = J − s·K`, one
/// `(μ, ν)` element at a time, both sums λ-outer, σ-inner.
pub fn reference_fock_2e(
    ints: &AoIntegrals,
    d_total: &Matrix,
    d_same: &Matrix,
    exchange_scale: f64,
) -> Matrix {
    let n = d_total.rows();
    Matrix::from_fn(n, n, |mu, nu| {
        let mut j = 0.0;
        let mut k = 0.0;
        for lam in 0..n {
            for sig in 0..n {
                j += d_total[(lam, sig)] * ints.eri.get(mu, nu, lam, sig);
                k += d_same[(lam, sig)] * ints.eri.get(mu, lam, sig, nu);
            }
        }
        j - exchange_scale * k
    })
}

struct Diis {
    depth: usize,
    focks: Vec<Vec<f64>>,
    errors: Vec<Vec<f64>>,
}

impl Diis {
    fn new(depth: usize) -> Self {
        Diis { depth, focks: Vec::new(), errors: Vec::new() }
    }

    fn push(&mut self, fock: &Matrix, error: &Matrix) {
        self.focks.push(fock.as_slice().to_vec());
        self.errors.push(error.as_slice().to_vec());
        if self.focks.len() > self.depth {
            self.focks.remove(0);
            self.errors.remove(0);
        }
    }

    fn extrapolate(&self, rows: usize) -> Option<Matrix> {
        let m = self.focks.len();
        if m < 2 {
            return None;
        }
        let dot = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(x, y)| x * y).sum::<f64>();
        let mut b = Matrix::zeros(m + 1, m + 1);
        for i in 0..m {
            for j in 0..m {
                b[(i, j)] = dot(&self.errors[i], &self.errors[j]);
            }
            b[(i, m)] = -1.0;
            b[(m, i)] = -1.0;
        }
        let mut rhs = vec![0.0; m + 1];
        rhs[m] = -1.0;
        let coeffs = b.solve(&rhs).ok()?;
        let mut fock = vec![0.0; self.focks[0].len()];
        for (i, f) in self.focks.iter().enumerate() {
            for (out, x) in fock.iter_mut().zip(f) {
                *out += coeffs[i] * x;
            }
        }
        Some(Matrix::from_fn(rows, rows, |i, j| fock[i * rows + j]))
    }
}

fn solve_fock(
    fock: &Matrix,
    x: &Matrix,
    occupied_projector: Option<&Matrix>,
    level_shift: f64,
) -> Result<(Matrix, Vec<f64>), LinalgError> {
    let mut fp = &(&x.transpose() * fock) * x;
    if level_shift > 0.0 {
        if let Some(p) = occupied_projector {
            let n = fp.rows();
            // F' + λ (I − P) raises virtuals by λ without moving occupieds.
            for i in 0..n {
                for j in 0..n {
                    let delta = if i == j { 1.0 } else { 0.0 };
                    fp[(i, j)] += level_shift * (delta - p[(i, j)]);
                }
            }
        }
    }
    let eig = reference_eigh(&fp)?;
    Ok((&x.clone() * &eig.vectors, eig.values))
}

/// The original `rhf`.
///
/// # Errors
///
/// As `cafqa_chem::rhf`.
pub fn reference_rhf(
    ints: &AoIntegrals,
    n_electrons: usize,
    opts: &ScfOptions,
) -> Result<ScfResult, ScfError> {
    let n = ints.overlap.rows();
    if n_electrons % 2 != 0 || n_electrons / 2 > n {
        return Err(ScfError::BadElectronCount {
            requested: (n_electrons / 2, n_electrons - n_electrons / 2),
            orbitals: n,
        });
    }
    let nocc = n_electrons / 2;
    let x = reference_inv_sqrt_symmetric(&ints.overlap, 1e-9)?;
    let (mut c, mut eps) = solve_fock(&ints.core_hamiltonian, &x, None, 0.0)?;
    let mut d = density(&c, nocc, 2.0);
    let mut diis = Diis::new(opts.diis_depth);
    let mut energy = f64::INFINITY;
    let mut converged = false;
    let mut iterations = 0;
    for it in 0..opts.max_iterations {
        iterations = it + 1;
        let g = reference_fock_2e(ints, &d, &d, 0.5);
        let fock = &ints.core_hamiltonian + &g;
        let e_elec: f64 = (0..n)
            .flat_map(|mu| (0..n).map(move |nu| (mu, nu)))
            .map(|(mu, nu)| 0.5 * d[(mu, nu)] * (ints.core_hamiltonian[(mu, nu)] + fock[(mu, nu)]))
            .sum();
        let new_energy = e_elec + ints.nuclear_repulsion;
        // DIIS error in the orthonormal basis.
        let fds = &(&fock * &d) * &ints.overlap;
        let err = &(&x.transpose() * &(&fds - &fds.transpose())) * &x;
        let err_norm = err.frobenius_norm();
        if (new_energy - energy).abs() < opts.energy_tol && err_norm < opts.error_tol {
            energy = new_energy;
            converged = true;
            break;
        }
        energy = new_energy;
        diis.push(&fock, &err);
        let effective = diis.extrapolate(n).unwrap_or(fock);
        let proj = {
            let cp = &x.transpose() * &(&ints.overlap * &c);
            Some(density(&cp, nocc, 1.0))
        };
        let (c_new, eps_new) = solve_fock(&effective, &x, proj.as_ref(), opts.level_shift)?;
        c = c_new;
        eps = eps_new;
        let d_new = density(&c, nocc, 2.0);
        d = if opts.damping > 0.0 {
            &(&d_new * (1.0 - opts.damping)) + &(&d * opts.damping)
        } else {
            d_new
        };
    }
    let result = ScfResult {
        energy,
        coefficients: c,
        orbital_energies: eps,
        coefficients_beta: None,
        orbital_energies_beta: None,
        n_alpha: nocc,
        n_beta: nocc,
        converged,
        iterations,
    };
    if converged {
        Ok(result)
    } else {
        Err(ScfError::NotConverged(Box::new(result)))
    }
}

/// The original `uhf`.
///
/// # Errors
///
/// As `cafqa_chem::uhf`.
pub fn reference_uhf(
    ints: &AoIntegrals,
    n_alpha: usize,
    n_beta: usize,
    opts: &ScfOptions,
) -> Result<ScfResult, ScfError> {
    let n = ints.overlap.rows();
    if n_alpha > n || n_beta > n {
        return Err(ScfError::BadElectronCount { requested: (n_alpha, n_beta), orbitals: n });
    }
    let x = reference_inv_sqrt_symmetric(&ints.overlap, 1e-9)?;
    let (mut ca, mut ea) = solve_fock(&ints.core_hamiltonian, &x, None, 0.0)?;
    let (mut cb, mut eb) = (ca.clone(), ea.clone());
    if opts.guess_mix != 0.0 && n_alpha > 0 && n_alpha < n {
        // Rotate α HOMO/LUMO to break symmetry.
        let (h, l) = (n_alpha - 1, n_alpha);
        let (cos, sin) = (opts.guess_mix.cos(), opts.guess_mix.sin());
        for mu in 0..n {
            let vh = ca[(mu, h)];
            let vl = ca[(mu, l)];
            ca[(mu, h)] = cos * vh + sin * vl;
            ca[(mu, l)] = -sin * vh + cos * vl;
        }
    }
    let mut da = density(&ca, n_alpha, 1.0);
    let mut db = density(&cb, n_beta, 1.0);
    let mut diis_a = Diis::new(opts.diis_depth);
    let mut diis_b = Diis::new(opts.diis_depth);
    let mut energy = f64::INFINITY;
    let mut converged = false;
    let mut iterations = 0;
    for it in 0..opts.max_iterations {
        iterations = it + 1;
        let d_total = &da + &db;
        let fa = &ints.core_hamiltonian + &reference_fock_2e(ints, &d_total, &da, 1.0);
        let fb = &ints.core_hamiltonian + &reference_fock_2e(ints, &d_total, &db, 1.0);
        let mut e_elec = 0.0;
        for mu in 0..n {
            for nu in 0..n {
                e_elec += 0.5
                    * (d_total[(mu, nu)] * ints.core_hamiltonian[(mu, nu)]
                        + da[(mu, nu)] * fa[(mu, nu)]
                        + db[(mu, nu)] * fb[(mu, nu)]);
            }
        }
        let new_energy = e_elec + ints.nuclear_repulsion;
        let err_of = |f: &Matrix, d: &Matrix| {
            let fds = &(f * d) * &ints.overlap;
            &(&x.transpose() * &(&fds - &fds.transpose())) * &x
        };
        let erra = err_of(&fa, &da);
        let errb = err_of(&fb, &db);
        let err_norm = (erra.frobenius_norm().powi(2) + errb.frobenius_norm().powi(2)).sqrt();
        if (new_energy - energy).abs() < opts.energy_tol && err_norm < opts.error_tol {
            energy = new_energy;
            converged = true;
            break;
        }
        energy = new_energy;
        diis_a.push(&fa, &erra);
        diis_b.push(&fb, &errb);
        let fa_eff = diis_a.extrapolate(n).unwrap_or(fa);
        let fb_eff = diis_b.extrapolate(n).unwrap_or(fb);
        let proj = |c: &Matrix, nocc: usize| {
            let cp = &x.transpose() * &(&ints.overlap * c);
            density(&cp, nocc, 1.0)
        };
        let pa = proj(&ca, n_alpha);
        let pb = proj(&cb, n_beta);
        let (ca_new, ea_new) = solve_fock(&fa_eff, &x, Some(&pa), opts.level_shift)?;
        let (cb_new, eb_new) = solve_fock(&fb_eff, &x, Some(&pb), opts.level_shift)?;
        ca = ca_new;
        ea = ea_new;
        cb = cb_new;
        eb = eb_new;
        let da_new = density(&ca, n_alpha, 1.0);
        let db_new = density(&cb, n_beta, 1.0);
        if opts.damping > 0.0 {
            da = &(&da_new * (1.0 - opts.damping)) + &(&da * opts.damping);
            db = &(&db_new * (1.0 - opts.damping)) + &(&db * opts.damping);
        } else {
            da = da_new;
            db = db_new;
        }
    }
    let result = ScfResult {
        energy,
        coefficients: ca,
        orbital_energies: ea,
        coefficients_beta: Some(cb),
        orbital_energies_beta: Some(eb),
        n_alpha,
        n_beta,
        converged,
        iterations,
    };
    if converged {
        Ok(result)
    } else {
        Err(ScfError::NotConverged(Box::new(result)))
    }
}

// ---------------------------------------------------------------------
// Qubit mapping: the BTreeMap-accumulating builder and the two-rebuild
// tapering.
// ---------------------------------------------------------------------

type MaskTerms = Vec<(Complex64, u64, u64)>;

type MaskMap = HashMap<(u64, u64), Complex64, BuildHasherDefault<DefaultHasher>>;

fn mask_terms(op: &PauliOp) -> MaskTerms {
    op.iter().map(|(p, c)| (*c, p.x_mask(), p.z_mask())).collect()
}

fn mul_into(
    left: impl Iterator<Item = (Complex64, u64, u64)>,
    right: impl Iterator<Item = (Complex64, u64, u64)> + Clone,
    out: &mut MaskMap,
) {
    out.clear();
    for (ca, xa, za) in left {
        for (cb, xb, zb) in right.clone() {
            let k = phase_exponent(xa, za, xb, zb);
            *out.entry((xa ^ xb, za ^ zb)).or_insert(Complex64::ZERO) +=
                ca * cb * Complex64::i_pow(k);
        }
    }
}

/// The mask-form Hamiltonian builder with SipHash scratch maps that adds
/// every block's terms into `H` through `PauliOp::add_term` (a
/// `BTreeMap`): pair products precomputed once, chunks accumulated in
/// place, `H` pruned at `1e-10` at the end.
pub fn reference_btree_qubit_hamiltonian(si: &SpinIntegrals, mapping: Mapping) -> PauliOp {
    let n = si.n;
    let m = 2 * n;
    let spins = [Spin::Alpha, Spin::Beta];
    let lower_ops: Vec<PauliOp> = (0..m).map(|j| lowering_op(mapping, m, j)).collect();
    let raise_ops: Vec<PauliOp> = (0..m).map(|j| raising_op(mapping, m, j)).collect();
    // pair[i·m + j] = a†_i a_j, merged but not pruned, as `mul_op` yields it.
    let pair: Vec<MaskTerms> =
        raise_ops.iter().flat_map(|a| lower_ops.iter().map(|b| mask_terms(&a.mul_op(b)))).collect();
    let lower: Vec<MaskTerms> = lower_ops.iter().map(mask_terms).collect();
    let raise: Vec<MaskTerms> = raise_ops.iter().map(mask_terms).collect();
    let mut h = PauliOp::zero(m);
    h.add_term(Complex64::from(si.core_energy), PauliString::identity(m));
    // One-body terms.
    for &sigma in &spins {
        for p in 0..n {
            for q in 0..n {
                let v = si.h(sigma, p, q);
                if v.abs() < 1e-12 {
                    continue;
                }
                let ij = spin_orbital(n, p, sigma) * m + spin_orbital(n, q, sigma);
                for &(c, x, z) in &pair[ij] {
                    h.add_term(c * Complex64::from(v), PauliString::from_masks(m, x, z));
                }
            }
        }
    }
    // Two-body terms, one (σ, τ, p, q) block at a time.
    let (mut chunk, mut left, mut term) =
        (MaskMap::default(), MaskMap::default(), MaskMap::default());
    for &sigma in &spins {
        for &tau in &spins {
            for p in 0..n {
                for q in 0..n {
                    let (pi, qi) = (spin_orbital(n, p, sigma), spin_orbital(n, q, sigma));
                    chunk.clear();
                    let mut any = false;
                    for r in 0..n {
                        for s in 0..n {
                            let v = si.eri(sigma, tau, p, q, r, s);
                            if v.abs() < 1e-12 {
                                continue;
                            }
                            let (ri, sidx) = (spin_orbital(n, r, tau), spin_orbital(n, s, tau));
                            if ri == pi || sidx == qi {
                                // a†_p a†_p = 0 and a_q a_q = 0: skip terms
                                // the algebra would cancel anyway.
                                continue;
                            }
                            // ½ a†_pσ a†_rτ a_sτ a_qσ.
                            let half_v = Complex64::from(0.5 * v);
                            for &(c, x, z) in &pair[ri * m + sidx] {
                                *chunk.entry((x, z)).or_insert(Complex64::ZERO) += c * half_v;
                            }
                            any = true;
                        }
                    }
                    if any {
                        let kept = chunk
                            .iter()
                            .filter(|(_, c)| c.norm() > 1e-14)
                            .map(|(&(x, z), &c)| (c, x, z));
                        mul_into(raise[pi].iter().copied(), kept, &mut left);
                        let product = left.iter().map(|(&(x, z), &c)| (c, x, z));
                        mul_into(product, lower[qi].iter().copied(), &mut term);
                        for (&(x, z), &c) in &term {
                            h.add_term(c, PauliString::from_masks(m, x, z));
                        }
                    }
                }
            }
        }
    }
    h.pruned(1e-10)
}

/// The original `taper_two_qubits`: two `PauliOp::map_terms` rebuilds
/// (drop the total-parity qubit, then the α-parity qubit), then a prune
/// at `1e-12`.
///
/// # Panics
///
/// As `cafqa_chem::taper_two_qubits`.
pub fn reference_taper_two_qubits(op: &PauliOp, n_alpha: usize, n_beta: usize) -> PauliOp {
    let m = op.num_qubits();
    assert!(m >= 2 && m % 2 == 0, "expected an even spin-orbital register");
    let alpha_qubit = m / 2 - 1;
    let total_qubit = m - 1;
    let z_alpha = if n_alpha % 2 == 0 { 1.0 } else { -1.0 };
    let z_total = if (n_alpha + n_beta) % 2 == 0 { 1.0 } else { -1.0 };
    let dropped_total = op.map_terms(m - 1, |p| {
        let (had_z, q) = p.remove_qubit(total_qubit);
        (Complex64::from(if had_z { z_total } else { 1.0 }), q)
    });
    dropped_total
        .map_terms(m - 2, |p| {
            let (had_z, q) = p.remove_qubit(alpha_qubit);
            (Complex64::from(if had_z { z_alpha } else { 1.0 }), q)
        })
        .pruned(1e-12)
}

// ---------------------------------------------------------------------
// The frozen chain: `ChemPipeline::build` + `problem` on the stages above.
// ---------------------------------------------------------------------

/// What the frozen chain computes up to the active space, mirroring the
/// numeric fields of `ChemPipeline`.
#[derive(Debug, Clone)]
pub struct ReferenceChem {
    /// AO integrals.
    pub integrals: AoIntegrals,
    /// The SCF result (best effort if unconverged).
    pub scf: ScfResult,
    /// Whether either SCF attempt converged.
    pub scf_converged: bool,
    /// Active-space integrals.
    pub spin_integrals: SpinIntegrals,
}

/// The qubit-side operators the frozen chain yields for one sector,
/// mirroring the corresponding fields of `MolecularProblem`.
#[derive(Debug, Clone)]
pub struct ReferenceProblem {
    /// The tapered qubit Hamiltonian.
    pub hamiltonian: PauliOp,
    /// The tapered number operator.
    pub number_op: PauliOp,
    /// The tapered Sz operator.
    pub sz_op: PauliOp,
    /// The tapered S² operator.
    pub s_squared_op: PauliOp,
    /// The HF bitstring in the tapered parity basis.
    pub hf_bits: u64,
    /// `⟨HF|H|HF⟩`.
    pub hf_energy: f64,
}

/// `ChemPipeline::build(kind, bond, scf_kind)` on the frozen stages: the
/// same geometry, basis and active-space rule, the same default → robust
/// SCF retry, best effort accepted.
///
/// # Errors
///
/// The hard SCF failures `ChemPipeline::build` reports as `ChemError::Scf`.
pub fn reference_chem_pipeline(
    kind: MoleculeKind,
    bond: f64,
    scf_kind: &ScfKind,
) -> Result<ReferenceChem, ScfError> {
    let molecule = kind.geometry(bond);
    let basis = BasisSet::sto3g(&molecule);
    let integrals = reference_compute_ao_integrals(&molecule, &basis);
    let run = |options: &ScfOptions| match scf_kind {
        ScfKind::Rhf => reference_rhf(&integrals, molecule.num_electrons(), options),
        ScfKind::Uhf { n_alpha, n_beta, guess_mix } => {
            let mut o = options.clone();
            o.guess_mix = *guess_mix;
            reference_uhf(&integrals, *n_alpha, *n_beta, &o)
        }
    };
    let (scf, scf_converged) = match run(&ScfOptions::default()) {
        Ok(r) => (r, true),
        Err(ScfError::NotConverged(_)) => match run(&ScfOptions::robust()) {
            Ok(r) => (r, true),
            Err(ScfError::NotConverged(r)) => (*r, false),
            Err(e) => return Err(e),
        },
        Err(e) => return Err(e),
    };
    let space = select_active_space(kind, &basis, &scf);
    let spin_integrals = active_space_integrals(&integrals, &scf, &space);
    Ok(ReferenceChem { integrals, scf, scf_converged, spin_integrals })
}

/// `ChemPipeline::problem(n_alpha, n_beta, false)` on the frozen stages
/// (parity mapping, two-qubit tapering).
pub fn reference_problem(si: &SpinIntegrals, n_alpha: usize, n_beta: usize) -> ReferenceProblem {
    let nact = si.n;
    let taper = |op: &PauliOp| reference_taper_two_qubits(op, n_alpha, n_beta);
    let hamiltonian = taper(&reference_btree_qubit_hamiltonian(si, Mapping::Parity));
    let number_op = taper(&number_operator(nact, Mapping::Parity));
    let sz_op = taper(&sz_operator(nact, Mapping::Parity));
    let s_squared_op = taper(&s_squared_operator(nact, Mapping::Parity));
    let hf_bits = hf_bitstring(Mapping::Parity, nact, n_alpha, n_beta, true);
    let hf_energy = hamiltonian.expectation_basis(hf_bits);
    ReferenceProblem { hamiltonian, number_op, sz_op, s_squared_op, hf_bits, hf_energy }
}
