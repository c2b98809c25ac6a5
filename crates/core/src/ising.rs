//! The Ising fast path: structure classification and reduced-space
//! solving for diagonal (Ising-class) Hamiltonians.
//!
//! "Optimal Clifford Initial States for Ising Hamiltonians"
//! (arXiv 2312.01036) observes that for a Hamiltonian that is diagonal —
//! every term a product of Z and I, possibly after a per-qubit
//! single-Clifford change of basis — the optimal point of the whole
//! `4^d` Clifford search lies in a drastically reduced space: the
//! product eigenstates of the per-qubit bases, i.e. `2^n` ±1 eigenvalue
//! assignments. `⟨H⟩` restricted to that space is a plain binary
//! quadratic objective, so the search collapses to a classical Ising
//! solve (exact below [`EXACT_SOLVE_CAP`] qubits, deterministic seeded
//! multi-start 1-flip local search above it) and a lift of the winning
//! assignment back to ansatz parameters.
//!
//! The pieces, front to back:
//!
//! - [`classify_ising`] decides — from the mask-form term set alone —
//!   whether a [`PauliOp`] is Ising-class and extracts the
//!   constant/linear/quadratic coefficients as an [`IsingForm`].
//!   Anything else returns `None` and routes unchanged (bit-for-bit) to
//!   the full [`run_cafqa_on`](crate::run_cafqa_on) pipeline.
//! - [`IsingForm::solve`] minimizes the reduced objective over
//!   assignments.
//! - [`Ansatz::eigenstate_config`](cafqa_circuit::Ansatz::eigenstate_config)
//!   lifts the winner to a discrete Clifford configuration, which is
//!   re-evaluated through the ordinary [`CliffordObjective`] so the
//!   reported energy is the tableau simulator's, not the reduced model's.
//! - [`solve_ising_batch_on`] shards whole instances over
//!   [`ExecEngine::map`] for service-style throughput, with per-instance
//!   results bit-identical at any worker count.
//!
//! Routing is governed by [`CafqaOptions::ising_fast_path`]; see the
//! [problem-structure routing](crate::CafqaOptions#problem-structure-routing)
//! notes for the fallback/disable contract.

use std::collections::BTreeMap;

use cafqa_circuit::{EfficientSu2, LocalBasis};
use cafqa_pauli::{Pauli, PauliOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::engine::ExecEngine;
use crate::objective::CliffordObjective;
use crate::runner::{run_cafqa_on, CafqaOptions, CafqaResult};

/// Routing policy for the Ising fast path
/// ([`CafqaOptions::ising_fast_path`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IsingFastPath {
    /// Route classified instances through the reduced-space solver;
    /// everything else — non-Ising structure, penalties attached, or an
    /// ansatz without an eigenstate lift — runs the full search
    /// bit-for-bit unchanged. The default.
    #[default]
    Auto,
    /// Never route: every instance runs the full search. This is the
    /// knob for measuring the unrouted baseline (the BO arm of the
    /// `ising_fast_path_vs_bo` bench) and for pinning legacy traces.
    Off,
}

/// Exact exhaustive solving is used up to this many qubits; larger
/// instances run the multi-start local search. The Gray-code walk makes
/// the exact solve one O(degree) delta per assignment, so 16 qubits is
/// ~65k steps — tens of microseconds, which keeps the serving-layer
/// throughput flat across the 16–24-vertex band instead of paying
/// `2^n` right where the fast path is benchmarked.
pub const EXACT_SOLVE_CAP: usize = 16;

/// Spins above this cannot be solved at all: assignments are packed in a
/// `u64`, so the local search caps at 64 (and [`classify_ising`] never
/// emits a wider form).
pub const SOLVE_CAP: usize = 64;

/// A structured rejection from [`IsingForm::solve`] — what a serving
/// layer reports to the submitter instead of dying on an `assert!`. The
/// internal exact walkers ([`IsingForm::solve_exact`],
/// [`IsingForm::local_search`]) keep their hard asserts: they are only
/// reachable through [`IsingForm::solve`]'s routing (which has already
/// checked the caps) or direct calls by code that owns its own bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IsingError {
    /// The instance has more spins than the solver can represent.
    TooLarge {
        /// The instance's spin count.
        n: usize,
        /// The hard cap ([`SOLVE_CAP`]).
        cap: usize,
    },
}

impl std::fmt::Display for IsingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IsingError::TooLarge { n, cap } => {
                write!(f, "Ising instance has {n} spins; the solver caps at {cap}")
            }
        }
    }
}

impl std::error::Error for IsingError {}

/// A classified diagonal Hamiltonian in spin form:
///
/// `⟨H⟩(s) = constant + Σ_i linear[i]·s_i + Σ_{(i,j,w)} w·s_i·s_j`
///
/// over `s_i ∈ {+1, −1}`, where `s_q` is the eigenvalue of the
/// per-qubit rotated Pauli `bases[q]` on qubit `q`. Assignments are
/// packed as bitmasks with bit `q` **set meaning `s_q = −1`** (so the
/// all-zeros assignment is `|0…0⟩` for all-Z bases, matching
/// [`EfficientSu2::basis_state_config`]).
#[derive(Debug, Clone)]
pub struct IsingForm {
    /// Number of qubits (spins).
    pub n: usize,
    /// The per-qubit measurement basis; qubits outside every term's
    /// support default to [`LocalBasis::Z`].
    pub bases: Vec<LocalBasis>,
    /// The identity-term offset.
    pub constant: f64,
    /// Linear (field) coefficients, one per qubit.
    pub linear: Vec<f64>,
    /// Quadratic (coupling) coefficients as `(i, j, w)` with `i < j`,
    /// sorted, one entry per coupled pair.
    pub pairs: Vec<(usize, usize, f64)>,
}

impl IsingForm {
    /// The reduced-space objective at a packed assignment (bit set ⇒
    /// spin −1). Exact sum in term order: constant, linear by qubit,
    /// pairs in sorted order.
    pub fn energy_of(&self, bits: u64) -> f64 {
        let spin = |q: usize| if (bits >> q) & 1 == 1 { -1.0 } else { 1.0 };
        let mut e = self.constant;
        for (q, &h) in self.linear.iter().enumerate() {
            e += h * spin(q);
        }
        for &(i, j, w) in &self.pairs {
            e += w * spin(i) * spin(j);
        }
        e
    }

    /// Adjacency lists: for each qubit, its coupled `(neighbor, weight)`
    /// entries.
    fn adjacency(&self) -> Vec<Vec<(usize, f64)>> {
        let mut adj = vec![Vec::new(); self.n];
        for &(i, j, w) in &self.pairs {
            adj[i].push((j, w));
            adj[j].push((i, w));
        }
        adj
    }

    /// Minimizes the reduced objective and returns `(assignment,
    /// energy)`; deterministic for a fixed `seed` at any worker count
    /// (the solve is single-threaded by construction). Instances up to
    /// [`EXACT_SOLVE_CAP`] qubits are solved exactly; larger ones run
    /// `max(3n, 8)` seeded greedy 1-flip restarts. Either way the
    /// returned energy is recomputed from scratch at the winning
    /// assignment, so incremental-update drift never leaves this
    /// function.
    ///
    /// This is the service-reachable entry point, so an oversized form
    /// (`n >` [`SOLVE_CAP`] — impossible via [`classify_ising`], easy
    /// via a hand-built [`IsingForm`]) returns a structured
    /// [`IsingError::TooLarge`] instead of tripping the internal
    /// walkers' asserts.
    pub fn solve(&self, seed: u64) -> Result<(u64, f64), IsingError> {
        if self.n > SOLVE_CAP {
            return Err(IsingError::TooLarge { n: self.n, cap: SOLVE_CAP });
        }
        Ok(if self.n <= EXACT_SOLVE_CAP {
            self.solve_exact()
        } else {
            self.local_search(seed, (3 * self.n).max(8))
        })
    }

    /// Exact minimum by a Gray-code walk: step `k` flips only spin
    /// `trailing_zeros(k)`, so each of the `2^n` assignments costs one
    /// O(degree) delta update instead of a full re-evaluation. Ties keep
    /// the first minimiser in walk order.
    ///
    /// # Panics
    ///
    /// Panics above 28 qubits (the walk is still `O(2^n)`).
    pub fn solve_exact(&self) -> (u64, f64) {
        assert!(self.n <= 28, "exhaustive Ising solve limited to 28 qubits");
        let adj = self.adjacency();
        // spins[q] = ±1; fields[q] = h_q + Σ_j J_qj s_j (excludes q itself).
        let mut spins = vec![1.0f64; self.n];
        let mut fields = self.linear.clone();
        for &(i, j, w) in &self.pairs {
            fields[i] += w;
            fields[j] += w;
        }
        let mut energy = self.energy_of(0);
        let mut best_bits = 0u64;
        let mut best_energy = energy;
        let mut gray = 0u64;
        for k in 1u64..(1u64 << self.n) {
            let q = k.trailing_zeros() as usize;
            // Flipping s_q: ΔE = −2·s_q·f_q; neighbors' fields lose
            // 2·J·s_q_old.
            let s_old = spins[q];
            energy -= 2.0 * s_old * fields[q];
            spins[q] = -s_old;
            for &(j, w) in &adj[q] {
                fields[j] -= 2.0 * w * s_old;
            }
            gray ^= 1 << q;
            if energy < best_energy {
                best_energy = energy;
                best_bits = gray;
            }
        }
        (best_bits, self.energy_of(best_bits))
    }

    /// Deterministic multi-start greedy 1-flip descent: restart 0 starts
    /// from all-`+1`, each later restart from a seeded random
    /// assignment; every move flips the spin with the (first) most
    /// negative `ΔE = −2·s_i·f_i`, updating the cached fields in
    /// O(degree), until no flip improves. Restart winners are compared
    /// on energies recomputed from scratch; strict `<` keeps the first.
    pub fn local_search(&self, seed: u64, restarts: usize) -> (u64, f64) {
        assert!(self.n <= 64, "assignments are packed in a u64");
        let adj = self.adjacency();
        let mask = if self.n == 64 { u64::MAX } else { (1u64 << self.n) - 1 };
        let mut best_bits = 0u64;
        let mut best_energy = f64::INFINITY;
        for restart in 0..restarts.max(1) {
            let mut bits = if restart == 0 {
                0
            } else {
                // A splitmix-style stream decorrelates restarts while
                // staying a pure function of (seed, restart).
                let stream =
                    seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(restart as u64));
                StdRng::seed_from_u64(stream).gen::<u64>() & mask
            };
            let mut spins: Vec<f64> =
                (0..self.n).map(|q| if (bits >> q) & 1 == 1 { -1.0 } else { 1.0 }).collect();
            let mut fields = self.linear.clone();
            for &(i, j, w) in &self.pairs {
                fields[i] += w * spins[j];
                fields[j] += w * spins[i];
            }
            loop {
                let mut flip = None;
                let mut best_delta = -1e-12;
                for q in 0..self.n {
                    let delta = -2.0 * spins[q] * fields[q];
                    if delta < best_delta {
                        best_delta = delta;
                        flip = Some(q);
                    }
                }
                let Some(q) = flip else { break };
                let s_old = spins[q];
                spins[q] = -s_old;
                bits ^= 1 << q;
                for &(j, w) in &adj[q] {
                    fields[j] -= 2.0 * w * s_old;
                }
            }
            let energy = self.energy_of(bits);
            if energy < best_energy {
                best_energy = energy;
                best_bits = bits;
            }
        }
        (best_bits, best_energy)
    }
}

/// Classifies a Hamiltonian as Ising-class from its mask-form term set,
/// or returns `None`.
///
/// A Hamiltonian qualifies when every term with a nonzero real
/// coefficient has weight ≤ 2 and every qubit's column is single-axis:
/// all terms touching qubit `q` use the same Pauli there (Z, X, or Y) —
/// i.e. the operator is diagonal after a per-qubit single-Clifford basis
/// rotation. Qubits outside every support default to [`LocalBasis::Z`].
/// Imaginary coefficient parts are ignored, exactly as
/// [`CliffordObjective`] ignores them when summing expectations.
///
/// The scan is a pure function of the term set (deterministic
/// [`PauliOp`] iteration order), so classified/rejected partitions every
/// Hamiltonian: `classify_ising(h).is_some()` is decided before any
/// solver runs, and rejection leaves the caller's pipeline untouched.
pub fn classify_ising(hamiltonian: &PauliOp) -> Option<IsingForm> {
    let n = hamiltonian.num_qubits();
    if n > 64 {
        return None;
    }
    let mut bases: Vec<Option<LocalBasis>> = vec![None; n];
    let mut constant = 0.0;
    let mut linear = vec![0.0; n];
    let mut pairs: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    for (string, coeff) in hamiltonian.iter() {
        let w = coeff.re;
        if w == 0.0 {
            continue;
        }
        if string.weight() > 2 {
            return None;
        }
        let mut support = [0usize; 2];
        let mut k = 0;
        for q in 0..n {
            let basis = match string.pauli_at(q) {
                Pauli::I => continue,
                Pauli::X => LocalBasis::X,
                Pauli::Y => LocalBasis::Y,
                Pauli::Z => LocalBasis::Z,
            };
            match bases[q] {
                Some(assigned) if assigned != basis => return None,
                _ => bases[q] = Some(basis),
            }
            support[k] = q;
            k += 1;
        }
        match k {
            0 => constant += w,
            1 => linear[support[0]] += w,
            _ => *pairs.entry((support[0], support[1])).or_insert(0.0) += w,
        }
    }
    Some(IsingForm {
        n,
        bases: bases.into_iter().map(Option::unwrap_or_default).collect(),
        constant,
        linear,
        pairs: pairs.into_iter().map(|((i, j), w)| (i, j, w)).collect(),
    })
}

/// The routing hook [`CafqaJob::new`](crate::CafqaJob::new) runs
/// before any search state exists. Returns the lifted configuration of
/// the reduced-space winner when the instance takes the fast path,
/// `None` when it must run the full pipeline (routing off, non-Ising
/// structure, penalties attached, or no eigenstate lift for this
/// ansatz).
///
/// The job then evaluates the lifted winner — together with every
/// caller-provided seed configuration — through the ordinary
/// [`CliffordObjective`] as one engine batch, and the first minimiser
/// wins; the reported energy is therefore always the tableau
/// simulator's, and seeding keeps the "never worse than the seed"
/// guarantee intact.
pub(crate) fn ising_route(
    objective: &CliffordObjective<'_>,
    opts: &CafqaOptions,
) -> Option<Vec<usize>> {
    if opts.ising_fast_path == IsingFastPath::Off {
        return None;
    }
    if !objective.core().penalties.is_empty() {
        return None;
    }
    let form = classify_ising(objective.hamiltonian)?;
    // `classify_ising` never emits a form above the solve cap, so an
    // error here is unreachable; treat it as "cannot route" for safety.
    let (bits, _reduced) = form.solve(opts.seed).ok()?;
    objective.ansatz.eigenstate_config(bits, &form.bases)
}

/// One instance of the batched serving layer: an
/// [`EfficientSu2`] ansatz (owned, so instances can ship to worker
/// threads) and its Hamiltonian.
#[derive(Debug, Clone)]
pub struct IsingInstance {
    /// The ansatz the result's configuration indexes into.
    pub ansatz: EfficientSu2,
    /// The Hamiltonian to minimize.
    pub hamiltonian: PauliOp,
}

impl IsingInstance {
    /// Bundles an ansatz with its Hamiltonian.
    pub fn new(ansatz: EfficientSu2, hamiltonian: PauliOp) -> Self {
        IsingInstance { ansatz, hamiltonian }
    }
}

/// Solves a batch of instances by sharding **whole instances** over
/// [`ExecEngine::map`] — the serving-throughput shape, where instance
/// count (not per-instance cost) dominates. Each instance runs the
/// ordinary routed [`run_cafqa_on`] with no penalties and no seeds, so
/// classified instances take the fast path and anything else falls back
/// to the full search; results return in instance order.
///
/// Per-instance determinism at any worker count is inherited, not
/// re-established: inside a pool worker, nested engine dispatch degrades
/// to the serial path, and every energy in the stack is bit-identical
/// serial-vs-sharded by the existing chunking contracts — so the batch
/// result is bit-identical at 1, 2, or any number of workers (asserted
/// in `crates/core/tests/ising_routing.rs` and the
/// `ising_fast_path_vs_bo` bench).
pub fn solve_ising_batch_on(
    engine: &ExecEngine,
    instances: &[IsingInstance],
    opts: &CafqaOptions,
) -> Vec<CafqaResult> {
    let tasks: Vec<_> = instances
        .iter()
        .map(|instance| {
            let engine = engine.clone();
            let instance = instance.clone();
            let opts = opts.clone();
            move || {
                run_cafqa_on(&engine, &instance.ansatz, &instance.hamiltonian, vec![], &[], &opts)
            }
        })
        .collect();
    engine.map(tasks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maxcut::{maxcut_hamiltonian, Graph};
    use cafqa_linalg::Complex64;
    use cafqa_pauli::PauliString;

    fn op(terms: &[(f64, &str)]) -> PauliOp {
        let n = terms[0].1.len();
        let mut h = PauliOp::zero(n);
        for &(w, s) in terms {
            h.add_term(Complex64::from(w), s.parse::<PauliString>().unwrap());
        }
        h
    }

    #[test]
    fn classifies_maxcut_as_all_z() {
        let g = Graph::random(8, 0.5, 17);
        let form = classify_ising(&maxcut_hamiltonian(&g)).unwrap();
        assert_eq!(form.n, 8);
        assert!(form.bases.iter().all(|&b| b == LocalBasis::Z));
        assert_eq!(form.pairs.len(), g.edges.len());
        // The reduced objective reproduces ⟨H⟩ = −cut on every basis state.
        for bits in [0u64, 0b1010_1010, 0b0011_0101] {
            assert!((form.energy_of(bits) + g.cut_value(bits)).abs() < 1e-12);
        }
    }

    #[test]
    fn classifies_rotated_columns_and_rejects_mixed() {
        // X on q0, Y on q2: single-axis columns, weight ≤ 2 → classified.
        let h = op(&[(0.5, "XIZI"), (-0.25, "IIZY"), (1.0, "XIII"), (0.125, "IIII")]);
        let form = classify_ising(&h).unwrap();
        assert_eq!(form.bases, vec![LocalBasis::X, LocalBasis::Z, LocalBasis::Z, LocalBasis::Y]);
        assert_eq!(form.constant, 0.125);
        assert_eq!(form.linear, vec![1.0, 0.0, 0.0, 0.0]);
        assert_eq!(form.pairs, vec![(0, 2, 0.5), (2, 3, -0.25)]);
        // Mixed column (X and Z on q0) → rejected.
        assert!(classify_ising(&op(&[(0.5, "XI"), (0.5, "ZI")])).is_none());
        // Weight-3 term → rejected.
        assert!(classify_ising(&op(&[(0.5, "ZZZ")])).is_none());
    }

    #[test]
    fn zero_coefficient_terms_do_not_block() {
        // A weight-3 term with zero real part contributes nothing to the
        // objective, so it must not block classification.
        let h = op(&[(1.0, "ZZI"), (0.0, "XYZ")]);
        assert!(classify_ising(&h).is_some());
    }

    #[test]
    fn exact_and_local_search_agree_on_small_instances() {
        for seed in [3u64, 7, 11, 19] {
            let g = Graph::random_weighted(10, 0.6, seed);
            let form = classify_ising(&maxcut_hamiltonian(&g)).unwrap();
            let (_, exact) = form.solve_exact();
            let (_, local) = form.local_search(0xCAF9A, 30);
            assert!((exact - local).abs() < 1e-9, "seed {seed}: exact {exact} vs local {local}");
            assert!((exact + g.max_cut_exact()).abs() < 1e-9);
        }
    }

    #[test]
    fn oversized_form_rejects_with_structured_error() {
        // A hand-built form above the u64 packing cap must reject, not
        // assert — this is the serving layer's contract. (classify_ising
        // can never produce one: it rejects > 64 qubits up front.)
        let n = SOLVE_CAP + 1;
        let form = IsingForm {
            n,
            bases: vec![LocalBasis::Z; n],
            constant: 0.0,
            linear: vec![1.0; n],
            pairs: vec![],
        };
        assert_eq!(form.solve(0xCAF9A), Err(IsingError::TooLarge { n, cap: SOLVE_CAP }));
        let msg = IsingError::TooLarge { n, cap: SOLVE_CAP }.to_string();
        assert!(msg.contains("65") && msg.contains("64"), "{msg}");
        // At the cap itself the solve still runs (local search tier).
        let form = IsingForm {
            n: 65 - 1,
            bases: vec![LocalBasis::Z; 64],
            constant: 0.0,
            linear: vec![1.0; 64],
            pairs: vec![],
        };
        let (bits, energy) = form.solve(0xCAF9A).expect("64 spins is within the cap");
        assert_eq!(bits, u64::MAX, "all fields positive: every spin flips to -1");
        assert!((energy - (-64.0)).abs() < 1e-12);
    }

    #[test]
    fn solver_handles_fields_and_constants() {
        // E(s) = 2 + s0 − 3 s1 + 2 s0 s1: minimum −4 at s0 = −1, s1 = +1.
        let h = op(&[(2.0, "II"), (1.0, "ZI"), (-3.0, "IZ"), (2.0, "ZZ")]);
        let form = classify_ising(&h).unwrap();
        let (bits, energy) = form.solve_exact();
        assert_eq!(bits, 0b01);
        assert!((energy - (-4.0)).abs() < 1e-12);
        let (_, local) = form.local_search(1, 8);
        assert!((local - energy).abs() < 1e-12);
    }
}
