//! Self-consistent field: restricted (RHF) and unrestricted (UHF)
//! Hartree-Fock with DIIS acceleration, damping, and level shifting.
//!
//! RHF supplies the paper's state-of-the-art baseline initialization and
//! the molecular orbitals from which every Hamiltonian is built; UHF
//! supplies the spin-sector-optimized Hamiltonians of Fig. 10 (H2O
//! triplet) and Fig. 11 (H6 "opt.").
//!
//! # Summation order
//!
//! An SCF result (energy, coefficients, orbital energies, iteration count,
//! convergence) is pinned bit for bit against the frozen original loops in
//! the bench crate (`chem_equivalence`); the iteration count is part of
//! the contract, since a one-ulp change can flip a convergence test. Every
//! floating-point sum keeps its original order: the two-electron Fock
//! build sums each element λ-outer, σ-inner (see [`FockBuilder`]), and
//! `Matrix::eigh` applies the same Jacobi rotations in the same sequence.

use std::fmt;

use cafqa_linalg::{LinalgError, Matrix};

use crate::integrals::{AoIntegrals, EriTensor};

/// Options controlling the SCF loop.
#[derive(Debug, Clone)]
pub struct ScfOptions {
    /// Maximum number of iterations.
    pub max_iterations: usize,
    /// Energy convergence threshold (Hartree).
    pub energy_tol: f64,
    /// DIIS error-norm convergence threshold.
    pub error_tol: f64,
    /// Maximum DIIS history length (0 disables DIIS).
    pub diis_depth: usize,
    /// Density damping factor in `[0, 1)`; `0` disables damping.
    pub damping: f64,
    /// Level shift added to virtual orbitals (Hartree); helps stretched
    /// geometries converge, mirroring standard quantum-chemistry practice.
    pub level_shift: f64,
    /// HOMO-LUMO α-orbital mixing angle for UHF symmetry breaking.
    pub guess_mix: f64,
}

impl Default for ScfOptions {
    fn default() -> Self {
        ScfOptions {
            max_iterations: 300,
            energy_tol: 1e-10,
            error_tol: 1e-7,
            diis_depth: 8,
            damping: 0.0,
            level_shift: 0.0,
            guess_mix: 0.0,
        }
    }
}

impl ScfOptions {
    /// A sturdier preset for stretched geometries: damping plus a level
    /// shift, at the cost of a few more iterations.
    pub fn robust() -> Self {
        ScfOptions { damping: 0.35, level_shift: 0.25, max_iterations: 600, ..Self::default() }
    }
}

/// SCF failure modes.
#[derive(Debug, Clone)]
pub enum ScfError {
    /// The loop hit `max_iterations`; the best-effort result is attached
    /// (the paper hit the same with Psi4 at stretched H2O geometries).
    NotConverged(Box<ScfResult>),
    /// A linear-algebra failure (singular overlap, eigensolver).
    Linalg(LinalgError),
    /// Electron counts incompatible with the basis size.
    BadElectronCount {
        /// Requested (α, β) electrons.
        requested: (usize, usize),
        /// Number of spatial orbitals available.
        orbitals: usize,
    },
}

impl fmt::Display for ScfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScfError::NotConverged(r) => {
                write!(f, "scf did not converge (last energy {:.8} Ha)", r.energy)
            }
            ScfError::Linalg(e) => write!(f, "scf linear algebra failure: {e}"),
            ScfError::BadElectronCount { requested, orbitals } => write!(
                f,
                "cannot place {}α/{}β electrons in {orbitals} orbitals",
                requested.0, requested.1
            ),
        }
    }
}

impl std::error::Error for ScfError {}

impl From<LinalgError> for ScfError {
    fn from(e: LinalgError) -> Self {
        ScfError::Linalg(e)
    }
}

/// A converged (or best-effort) SCF solution.
#[derive(Debug, Clone)]
pub struct ScfResult {
    /// Total energy including nuclear repulsion (Hartree).
    pub energy: f64,
    /// α molecular-orbital coefficients (columns are MOs).
    pub coefficients: Matrix,
    /// α orbital energies, ascending.
    pub orbital_energies: Vec<f64>,
    /// β coefficients (`None` for RHF, where β = α).
    pub coefficients_beta: Option<Matrix>,
    /// β orbital energies (`None` for RHF).
    pub orbital_energies_beta: Option<Vec<f64>>,
    /// Number of α electrons.
    pub n_alpha: usize,
    /// Number of β electrons.
    pub n_beta: usize,
    /// Whether the convergence thresholds were met.
    pub converged: bool,
    /// Iterations used.
    pub iterations: usize,
}

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

/// The two-electron part of the Fock matrix, `G = J − s·K`, with
/// `J_μν = Σ_λσ D_λσ (μν|λσ)` and `K_μν = Σ_λσ D'_λσ (μλ|σν)` over one
/// AO ERI tensor. [`rhf`] and [`uhf`] make one per call and build every
/// iteration's `G` through it.
///
/// **Summation order.** Each `J_μν` and `K_μν` is one running sum from
/// `0.0`, λ-outer, σ-inner, of `D_λσ · (eri)`, and `G_μν = J_μν − s·K_μν`:
/// the order of the element-wise build this replaced, so its bits are
/// unchanged. The build streams instead of gathering: construction copies
/// the ERI once into `(μ, λσ, ν)` order for `J`, and `K` reads the
/// tensor's own `(μλ|σν)` layout, so for fixed `(μ, λ, σ)` both operands
/// are contiguous in `ν` and a register block of up to eight `(μ, ν)`
/// accumulators for each of `J` and `K` advances side by side. When
/// `(μν|λσ)` equals `(νμ|λσ)` bit for bit — always for
/// [`compute_ao_integrals`](crate::compute_ao_integrals), which fills the
/// tensor by 8-fold copy — `J_νμ` is the same sum as `J_μν`, so blocks
/// wholly below the diagonal take `J` from the mirror; otherwise `J` is
/// summed in full. `K` has no bitwise symmetry (`K_νμ` sums the same
/// products σ-outer) and is always summed in full.
#[derive(Debug, Clone)]
pub struct FockBuilder<'a> {
    n: usize,
    /// `(μλ|σν)` at `((μ·n + λ)·n + σ)·n + ν`: the tensor's own storage.
    exchange: &'a [f64],
    /// `(μν|λσ)` at `((μ·n + λ)·n + σ)·n + ν`.
    coulomb: Vec<f64>,
    /// Whether `(μν|λσ) ≡ (νμ|λσ)` bit for bit for every index.
    pair_symmetric: bool,
}

impl<'a> FockBuilder<'a> {
    /// Prepares the streaming build over `eri` (one `n⁴` copy).
    pub fn new(eri: &'a EriTensor) -> Self {
        let n = eri.len();
        let mut coulomb = vec![0.0; n * n * n * n];
        let mut pair_symmetric = true;
        for mu in 0..n {
            for nu in 0..n {
                for lam in 0..n {
                    for sig in 0..n {
                        let v = eri.get(mu, nu, lam, sig);
                        pair_symmetric &= v.to_bits() == eri.get(nu, mu, lam, sig).to_bits();
                        coulomb[((mu * n + lam) * n + sig) * n + nu] = v;
                    }
                }
            }
        }
        FockBuilder { n, exchange: eri.as_slice(), coulomb, pair_symmetric }
    }

    /// `G = J[d_total] − exchange_scale · K[d_same]`.
    ///
    /// # Panics
    ///
    /// Panics if either density is not `n × n`.
    pub fn two_electron(&self, d_total: &Matrix, d_same: &Matrix, exchange_scale: f64) -> Matrix {
        let n = self.n;
        assert!(
            (d_total.rows(), d_total.cols(), d_same.rows(), d_same.cols()) == (n, n, n, n),
            "density shape does not match the ERI tensor"
        );
        let (d_total, d_same) = (d_total.as_slice(), d_same.as_slice());
        let mut j = vec![0.0; n * n];
        let mut k = vec![0.0; n];
        let mut g = Matrix::zeros(n, n);
        let slab = n * n * n;
        for mu in 0..n {
            let coulomb = &self.coulomb[mu * slab..(mu + 1) * slab];
            let exchange = &self.exchange[mu * slab..(mu + 1) * slab];
            let j_row = &mut j[mu * n..(mu + 1) * n];
            // Blocks wholly below the diagonal (a prefix of the row) take
            // J from the mirror.
            let mut mirrored_end = 0;
            let mut start = 0;
            while start < n {
                let width = [8, 4, 2, 1].into_iter().find(|&w| w <= n - start).unwrap_or(1);
                let mirrored = self.pair_symmetric && start + width <= mu;
                if mirrored {
                    mirrored_end = start + width;
                }
                let coulomb = (!mirrored).then_some(coulomb);
                let block = FockBlock { n, start, d_total, d_same, coulomb, exchange };
                match width {
                    8 => block.sum::<8>(j_row, &mut k),
                    4 => block.sum::<4>(j_row, &mut k),
                    2 => block.sum::<2>(j_row, &mut k),
                    _ => block.sum::<1>(j_row, &mut k),
                }
                start += width;
            }
            for nu in 0..n {
                let j_mu_nu = if nu < mirrored_end { j[nu * n + mu] } else { j[mu * n + nu] };
                g[(mu, nu)] = j_mu_nu - exchange_scale * k[nu];
            }
        }
        g
    }
}

/// One register block of a Fock row: lanes `start..start + W` of row `μ`
/// (the operand slabs are already row `μ`'s).
struct FockBlock<'s> {
    n: usize,
    start: usize,
    d_total: &'s [f64],
    d_same: &'s [f64],
    /// `None` when the block's `J` comes from the mirror.
    coulomb: Option<&'s [f64]>,
    exchange: &'s [f64],
}

impl FockBlock<'_> {
    /// Sums the block's `J` (when not mirrored) and `K` lanes into
    /// `j_row` and `k`, λσ in order.
    fn sum<const W: usize>(&self, j_row: &mut [f64], k: &mut [f64]) {
        let (n, start) = (self.n, self.start);
        let lanes = |ops: &'_ [f64], ls: usize| -> [f64; W] {
            ops[ls * n + start..ls * n + start + W].try_into().expect("block lanes")
        };
        let mut kb = [0.0; W];
        match self.coulomb {
            Some(coulomb) => {
                let mut jb = [0.0; W];
                for (ls, (&dj, &dk)) in self.d_total.iter().zip(self.d_same).enumerate() {
                    let (jo, ko) = (lanes(coulomb, ls), lanes(self.exchange, ls));
                    for lane in 0..W {
                        jb[lane] += dj * jo[lane];
                        kb[lane] += dk * ko[lane];
                    }
                }
                j_row[start..start + W].copy_from_slice(&jb);
            }
            None => {
                for (ls, &dk) in self.d_same.iter().enumerate() {
                    let ko = lanes(self.exchange, ls);
                    for lane in 0..W {
                        kb[lane] += dk * ko[lane];
                    }
                }
            }
        }
        k[start..start + W].copy_from_slice(&kb);
    }
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

    /// Standard Pulay extrapolation; returns `None` until two vectors are
    /// stored or if the DIIS system is singular.
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

/// Diagonalizes a Fock matrix in the orthonormal basis, with optional
/// level shift applied to the span orthogonal to the occupied projector.
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
    let eig = fp.eigh()?;
    Ok((&x.clone() * &eig.vectors, eig.values))
}

/// Restricted Hartree-Fock for a closed-shell system.
///
/// # Errors
///
/// - [`ScfError::BadElectronCount`] for odd counts or too-small bases.
/// - [`ScfError::NotConverged`] past the iteration budget (with the
///   best-effort result attached).
///
/// # Examples
///
/// ```
/// use cafqa_chem::{compute_ao_integrals, rhf, BasisSet, Element, Molecule, ScfOptions};
///
/// let h2 = Molecule::diatomic(Element::H, Element::H, 0.735);
/// let basis = BasisSet::sto3g(&h2);
/// let ints = compute_ao_integrals(&h2, &basis);
/// let scf = rhf(&ints, 2, &ScfOptions::default()).unwrap();
/// assert!((scf.energy - (-1.117)).abs() < 5e-3); // literature STO-3G value
/// ```
pub fn rhf(
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
    let x = ints.overlap.inv_sqrt_symmetric(1e-9)?;
    let (mut c, mut eps) = solve_fock(&ints.core_hamiltonian, &x, None, 0.0)?;
    let mut d = density(&c, nocc, 2.0);
    let fock_2e = FockBuilder::new(&ints.eri);
    let mut diis = Diis::new(opts.diis_depth);
    let mut energy = f64::INFINITY;
    let mut converged = false;
    let mut iterations = 0;
    for it in 0..opts.max_iterations {
        iterations = it + 1;
        let g = fock_2e.two_electron(&d, &d, 0.5);
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

/// Unrestricted Hartree-Fock with independent α/β orbitals.
///
/// `guess_mix` in [`ScfOptions`] rotates the α HOMO/LUMO pair of the core
/// guess to break spin symmetry (needed for stretched singlets).
///
/// # Errors
///
/// Same failure modes as [`rhf`].
pub fn uhf(
    ints: &AoIntegrals,
    n_alpha: usize,
    n_beta: usize,
    opts: &ScfOptions,
) -> Result<ScfResult, ScfError> {
    let n = ints.overlap.rows();
    if n_alpha > n || n_beta > n {
        return Err(ScfError::BadElectronCount { requested: (n_alpha, n_beta), orbitals: n });
    }
    let x = ints.overlap.inv_sqrt_symmetric(1e-9)?;
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
    let fock_2e = FockBuilder::new(&ints.eri);
    let mut diis_a = Diis::new(opts.diis_depth);
    let mut diis_b = Diis::new(opts.diis_depth);
    let mut energy = f64::INFINITY;
    let mut converged = false;
    let mut iterations = 0;
    for it in 0..opts.max_iterations {
        iterations = it + 1;
        let d_total = &da + &db;
        let fa = &ints.core_hamiltonian + &fock_2e.two_electron(&d_total, &da, 1.0);
        let fb = &ints.core_hamiltonian + &fock_2e.two_electron(&d_total, &db, 1.0);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::BasisSet;
    use crate::geometry::{Element, Molecule, BOHR_PER_ANGSTROM};
    use crate::integrals::compute_ao_integrals;

    fn run_rhf(m: &Molecule) -> ScfResult {
        let b = BasisSet::sto3g(m);
        let ints = compute_ao_integrals(m, &b);
        rhf(&ints, m.num_electrons(), &ScfOptions::default()).unwrap()
    }

    #[test]
    fn h2_sto3g_energy_matches_literature() {
        // Szabo–Ostlund: E(RHF/STO-3G, R = 1.4 a₀) = −1.1167 Ha.
        let m = Molecule::diatomic(Element::H, Element::H, 1.4 / BOHR_PER_ANGSTROM);
        let r = run_rhf(&m);
        assert!(r.converged);
        assert!((r.energy + 1.1167).abs() < 2e-3, "E = {}", r.energy);
    }

    #[test]
    fn water_sto3g_energy_matches_literature() {
        // Literature RHF/STO-3G for H2O near equilibrium ≈ −74.96 Ha.
        let m = Molecule::from_angstrom(&[
            (Element::O, [0.0, 0.0, 0.0]),
            (Element::H, [0.0, 0.7586, 0.5043]),
            (Element::H, [0.0, -0.7586, 0.5043]),
        ]);
        let r = run_rhf(&m);
        assert!(r.converged);
        assert!((r.energy + 74.96).abs() < 0.05, "E = {}", r.energy);
    }

    #[test]
    fn lih_sto3g_energy_matches_literature() {
        // Literature RHF/STO-3G for LiH near equilibrium ≈ −7.86 Ha.
        let m = Molecule::diatomic(Element::Li, Element::H, 1.6);
        let r = run_rhf(&m);
        assert!(r.converged);
        assert!((r.energy + 7.86).abs() < 0.02, "E = {}", r.energy);
    }

    #[test]
    fn uhf_equals_rhf_for_closed_shell_equilibrium() {
        let m = Molecule::diatomic(Element::H, Element::H, 0.735);
        let b = BasisSet::sto3g(&m);
        let ints = compute_ao_integrals(&m, &b);
        let r = rhf(&ints, 2, &ScfOptions::default()).unwrap();
        let u = uhf(&ints, 1, 1, &ScfOptions::default()).unwrap();
        assert!((r.energy - u.energy).abs() < 1e-8);
    }

    #[test]
    fn broken_symmetry_uhf_below_rhf_at_stretch() {
        // At 3 Å the UHF solution dissociates correctly and drops below RHF.
        let m = Molecule::diatomic(Element::H, Element::H, 3.0);
        let b = BasisSet::sto3g(&m);
        let ints = compute_ao_integrals(&m, &b);
        let r = rhf(&ints, 2, &ScfOptions::default()).unwrap();
        let opts = ScfOptions { guess_mix: 0.4, ..ScfOptions::default() };
        let u = uhf(&ints, 1, 1, &opts).unwrap();
        assert!(u.energy < r.energy - 0.05, "UHF {} vs RHF {}", u.energy, r.energy);
    }

    #[test]
    fn triplet_uhf_runs() {
        let m = Molecule::from_angstrom(&[
            (Element::O, [0.0, 0.0, 0.0]),
            (Element::H, [0.0, 2.4, 1.6]),
            (Element::H, [0.0, -2.4, 1.6]),
        ]);
        let b = BasisSet::sto3g(&m);
        let ints = compute_ao_integrals(&m, &b);
        let u = uhf(&ints, 6, 4, &ScfOptions::robust());
        let energy = match u {
            Ok(r) => r.energy,
            Err(ScfError::NotConverged(r)) => r.energy,
            Err(e) => panic!("{e}"),
        };
        assert!(energy < -73.0 && energy > -76.0, "E = {energy}");
    }

    #[test]
    fn odd_electron_rhf_rejected() {
        let m = Molecule::diatomic(Element::H, Element::H, 0.735).with_charge(1);
        let b = BasisSet::sto3g(&m);
        let ints = compute_ao_integrals(&m, &b);
        assert!(matches!(
            rhf(&ints, m.num_electrons(), &ScfOptions::default()),
            Err(ScfError::BadElectronCount { .. })
        ));
    }

    #[test]
    fn orbital_energies_sorted() {
        let m = Molecule::diatomic(Element::Li, Element::H, 1.6);
        let r = run_rhf(&m);
        assert!(r.orbital_energies.windows(2).all(|w| w[0] <= w[1] + 1e-12));
    }
}
