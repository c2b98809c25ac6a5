//! Canonical content-addressed fingerprints for CAFQA jobs — the cache
//! key of the serving layer (`cafqa-serve`).
//!
//! A job's identity is everything that can change a bit of its
//! [`CafqaResult`](crate::CafqaResult): the Hamiltonian's term set in
//! canonical (sorted mask-form) order with exact coefficient bits, the
//! penalties, the ansatz structure (its compiled gate-and-slot sequence,
//! so entanglement topology counts), the seed configurations, and the
//! determinism-relevant [`CafqaOptions`](crate::CafqaOptions) fields.
//! Two submissions with equal [`job_fingerprint`] produce bit-identical
//! results by the workspace determinism contracts, so a server may
//! return a cached result for an exact fingerprint match without
//! recompute.
//!
//! [`family_fingerprint`] is the *structure-only* companion: the same
//! hash with every Hamiltonian coefficient masked out. Jobs in one
//! family differ only in term coefficients — e.g. neighbouring bond
//! lengths of the same molecule, whose mask-form term sets coincide —
//! which is exactly the population that warm-starting from a cached
//! incumbent helps ([`coefficient_vector`] gives the distance metric
//! used to pick the nearest cached neighbour).
//!
//! Fields that [`run_cafqa_on`](crate::run_cafqa_on) never reads —
//! `number_penalty`, `sz_penalty`, `s2_penalty`, `seed_hf`, which only
//! steer how [`MolecularCafqa`](crate::MolecularCafqa) *builds* its
//! penalty and seed lists — are deliberately excluded: the explicit
//! penalty and seed lists are hashed instead, so two call paths that
//! hand the runner identical inputs share a fingerprint.

use cafqa_circuit::{Ansatz, CompiledAnsatz};
use cafqa_pauli::PauliOp;

use crate::ising::IsingFastPath;
use crate::objective::Penalty;
use crate::runner::CafqaOptions;

/// A streaming FNV-1a 64-bit hasher — dependency-free, stable across
/// hosts and releases (unlike `DefaultHasher`), which is what a
/// content-addressed cache key must be.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    /// The FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Folds raw bytes into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a `u64` (little-endian bytes).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Folds a `usize` widened to `u64`, so 32- and 64-bit hosts agree.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Folds an `f64` by its exact bit pattern (`-0.0 != 0.0`, NaN
    /// payloads distinguish — bit-identity is the contract, not numeric
    /// equality).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The canonical term list of a [`PauliOp`]: `(x_mask, z_mask, re, im)`
/// sorted by `(x_mask, z_mask)`. [`PauliOp`] already deduplicates
/// strings, so the sort gives every term set one representative
/// regardless of insertion order.
fn canonical_terms(op: &PauliOp) -> Vec<(u64, u64, f64, f64)> {
    let mut terms: Vec<(u64, u64, f64, f64)> =
        op.iter().map(|(s, c)| (s.x_mask(), s.z_mask(), c.re, c.im)).collect();
    terms.sort_unstable_by_key(|&(x, z, _, _)| (x, z));
    terms
}

/// Folds one operator into `hash` — masks always, coefficient bits only
/// when `with_coefficients`.
fn write_op(hash: &mut Fnv1a, op: &PauliOp, with_coefficients: bool) {
    hash.write_usize(op.num_qubits());
    let terms = canonical_terms(op);
    hash.write_usize(terms.len());
    for (x, z, re, im) in terms {
        hash.write_u64(x);
        hash.write_u64(z);
        if with_coefficients {
            hash.write_f64(re);
            hash.write_f64(im);
        }
    }
}

/// Folds the search-relevant [`CafqaOptions`] fields (see the module
/// notes for which fields are deliberately excluded). The destructuring
/// names every field, so a new option does not compile until it is
/// either hashed here or explicitly excluded.
fn write_opts(hash: &mut Fnv1a, opts: &CafqaOptions) {
    let CafqaOptions {
        warmup,
        iterations,
        number_penalty: _,
        sz_penalty: _,
        s2_penalty: _,
        seed_hf: _,
        seed,
        patience,
        polish_sweeps,
        proposals_per_refit,
        forest_window,
        polish_screen_top,
        screen_tolerance,
        kt_rank_top,
        ising_fast_path,
    } = opts;
    hash.write_usize(*warmup);
    hash.write_usize(*iterations);
    hash.write_u64(*seed);
    hash.write_usize(*patience);
    hash.write_usize(*polish_sweeps);
    hash.write_usize(*proposals_per_refit);
    hash.write_usize(*forest_window);
    hash.write_usize(*polish_screen_top);
    hash.write_f64(*screen_tolerance);
    hash.write_usize(*kt_rank_top);
    hash.write_u64(match ising_fast_path {
        IsingFastPath::Auto => 0,
        IsingFastPath::Off => 1,
    });
}

/// Folds the ansatz structure: the compiled template's op sequence
/// (every fixed gate, and which parameter each rotation slot reads), or,
/// for an ansatz that does not compile, its Clifford-bound circuits at
/// the four uniform configurations.
fn write_ansatz(hash: &mut Fnv1a, ansatz: &dyn Ansatz) {
    hash.write_usize(ansatz.num_qubits());
    hash.write_usize(ansatz.num_parameters());
    let structure = match CompiledAnsatz::compile(ansatz) {
        Some(template) => format!("{:?}", template.ops()),
        None => (0..4)
            .map(|k| {
                format!("{:?}", ansatz.bind_clifford(&vec![k; ansatz.num_parameters()]).gates())
            })
            .collect(),
    };
    hash.write_usize(structure.len());
    hash.write(structure.as_bytes());
}

/// Folds the parts of a job's identity that are shared between the
/// exact and the family fingerprint: ansatz structure, penalties, seeds
/// and options. Penalty operators always hash with coefficients — a near
/// hit must share the *same* sector constraints, only the Hamiltonian
/// coefficients may drift.
fn write_context(
    hash: &mut Fnv1a,
    ansatz: &dyn Ansatz,
    penalties: &[Penalty],
    seeds: &[Vec<usize>],
    opts: &CafqaOptions,
) {
    write_ansatz(hash, ansatz);
    hash.write_usize(penalties.len());
    for p in penalties {
        hash.write_usize(p.label.len());
        hash.write(p.label.as_bytes());
        hash.write_f64(p.weight);
        write_op(hash, p.squared_op(), true);
    }
    hash.write_usize(seeds.len());
    for seed in seeds {
        hash.write_usize(seed.len());
        for &v in seed {
            hash.write_usize(v);
        }
    }
    write_opts(hash, opts);
}

/// The canonical content hash of a complete CAFQA job. Equal
/// fingerprints ⇒ bit-identical [`CafqaResult`](crate::CafqaResult)s
/// (at any worker count), by the workspace determinism contracts.
pub fn job_fingerprint(
    ansatz: &dyn Ansatz,
    hamiltonian: &PauliOp,
    penalties: &[Penalty],
    seeds: &[Vec<usize>],
    opts: &CafqaOptions,
) -> u64 {
    let mut hash = Fnv1a::new();
    hash.write_u64(0x0CAF_9A0B); // domain tag: exact job key
    write_op(&mut hash, hamiltonian, true);
    write_context(&mut hash, ansatz, penalties, seeds, opts);
    hash.finish()
}

/// The structure-only hash of a job: identical to [`job_fingerprint`]
/// except the Hamiltonian coefficient bits are excluded. Two jobs in the
/// same family share term masks, penalties, ansatz, seeds and options —
/// the population where warm-starting from a cached incumbent is sound
/// (the incumbent is just a seed configuration; the never-worse-than-
/// seed guarantee does the rest).
pub fn family_fingerprint(
    ansatz: &dyn Ansatz,
    hamiltonian: &PauliOp,
    penalties: &[Penalty],
    seeds: &[Vec<usize>],
    opts: &CafqaOptions,
) -> u64 {
    let mut hash = Fnv1a::new();
    hash.write_u64(0x0CAF_9AFA); // domain tag: family key
    write_op(&mut hash, hamiltonian, false);
    write_context(&mut hash, ansatz, penalties, seeds, opts);
    hash.finish()
}

/// The real coefficient vector of an operator in canonical term order —
/// the embedding that makes "nearby coefficients" a plain L2 distance.
/// Vectors are comparable exactly when the two operators share a family
/// fingerprint (same sorted mask sequence ⇒ same alignment).
pub fn coefficient_vector(op: &PauliOp) -> Vec<f64> {
    canonical_terms(op).into_iter().map(|(_, _, re, _)| re).collect()
}

/// Euclidean distance between two aligned coefficient vectors; `None`
/// when the lengths differ (not the same family).
pub fn coefficient_distance(a: &[f64], b: &[f64]) -> Option<f64> {
    if a.len() != b.len() {
        return None;
    }
    Some(a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cafqa_circuit::{EfficientSu2, Entanglement};
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
    fn fingerprint_is_insertion_order_invariant() {
        let ansatz = EfficientSu2::new(3, 1);
        let opts = CafqaOptions::quick();
        let a = op(&[(0.5, "ZZI"), (-0.25, "IXZ"), (1.0, "ZII")]);
        let b = op(&[(1.0, "ZII"), (0.5, "ZZI"), (-0.25, "IXZ")]);
        assert_eq!(
            job_fingerprint(&ansatz, &a, &[], &[], &opts),
            job_fingerprint(&ansatz, &b, &[], &[], &opts),
        );
    }

    #[test]
    fn fingerprint_separates_every_identity_component() {
        let ansatz = EfficientSu2::new(3, 1);
        let opts = CafqaOptions::quick();
        let h = op(&[(0.5, "ZZI"), (-0.25, "IXZ")]);
        let base = job_fingerprint(&ansatz, &h, &[], &[], &opts);
        // Coefficient change.
        let h2 = op(&[(0.5 + 1e-9, "ZZI"), (-0.25, "IXZ")]);
        assert_ne!(base, job_fingerprint(&ansatz, &h2, &[], &[], &opts));
        // Options change (each determinism-relevant field must bite).
        for delta in [
            CafqaOptions { warmup: opts.warmup + 1, ..opts.clone() },
            CafqaOptions { iterations: opts.iterations + 1, ..opts.clone() },
            CafqaOptions { seed: opts.seed ^ 1, ..opts.clone() },
            CafqaOptions { patience: 5, ..opts.clone() },
            CafqaOptions { polish_sweeps: opts.polish_sweeps + 1, ..opts.clone() },
            CafqaOptions { proposals_per_refit: opts.proposals_per_refit + 1, ..opts.clone() },
            CafqaOptions { forest_window: 7, ..opts.clone() },
            CafqaOptions { polish_screen_top: 3, ..opts.clone() },
            CafqaOptions { screen_tolerance: 1e-3, ..opts.clone() },
            CafqaOptions { kt_rank_top: 2, ..opts.clone() },
            CafqaOptions { ising_fast_path: IsingFastPath::Off, ..opts.clone() },
        ] {
            assert_ne!(base, job_fingerprint(&ansatz, &h, &[], &[], &delta));
        }
        // Non-determinism-relevant fields must NOT bite (the runner never
        // reads them; MolecularCafqa folds them into explicit penalties).
        for same in [
            CafqaOptions { number_penalty: 9.0, ..opts.clone() },
            CafqaOptions { sz_penalty: 2.0, ..opts.clone() },
            CafqaOptions { seed_hf: !opts.seed_hf, ..opts.clone() },
        ] {
            assert_eq!(base, job_fingerprint(&ansatz, &h, &[], &[], &same));
        }
        // Seed configurations.
        assert_ne!(base, job_fingerprint(&ansatz, &h, &[], &[vec![0; 12]], &opts));
        // Ansatz shape.
        let wider = EfficientSu2::new(3, 2);
        assert_ne!(base, job_fingerprint(&wider, &h, &[], &[], &opts));
        // Penalties.
        let pen = Penalty::new("n", &op(&[(1.0, "ZII")]), 1.0, 0.5);
        assert_ne!(base, job_fingerprint(&ansatz, &h, &[pen], &[], &opts));
    }

    #[test]
    fn entanglement_topology_separates_job_and_family_keys() {
        // Same width and parameter count, different CX ladders: the
        // searches differ, so neither key may collide.
        let h = op(&[(0.5, "ZZI"), (-0.25, "IXZ"), (0.3, "XIX")]);
        let opts = CafqaOptions::quick();
        let keys: Vec<(u64, u64)> =
            [Entanglement::Linear, Entanglement::Circular, Entanglement::Full]
                .into_iter()
                .map(|e| {
                    let ansatz = EfficientSu2::new(3, 1).with_entanglement(e);
                    (
                        job_fingerprint(&ansatz, &h, &[], &[], &opts),
                        family_fingerprint(&ansatz, &h, &[], &[], &opts),
                    )
                })
                .collect();
        for i in 0..keys.len() {
            for j in (i + 1)..keys.len() {
                assert_ne!(keys[i].0, keys[j].0, "job keys {i} and {j} collide");
                assert_ne!(keys[i].1, keys[j].1, "family keys {i} and {j} collide");
            }
        }
    }

    #[test]
    fn family_hash_ignores_coefficients_only() {
        let ansatz = EfficientSu2::new(3, 1);
        let opts = CafqaOptions::quick();
        let a = op(&[(0.5, "ZZI"), (-0.25, "IXZ")]);
        let b = op(&[(0.51, "ZZI"), (-0.27, "IXZ")]);
        let c = op(&[(0.5, "ZZI"), (-0.25, "IXY")]);
        assert_eq!(
            family_fingerprint(&ansatz, &a, &[], &[], &opts),
            family_fingerprint(&ansatz, &b, &[], &[], &opts),
            "coefficient drift stays in-family"
        );
        assert_ne!(
            family_fingerprint(&ansatz, &a, &[], &[], &opts),
            family_fingerprint(&ansatz, &c, &[], &[], &opts),
            "mask change leaves the family"
        );
        assert_ne!(
            job_fingerprint(&ansatz, &a, &[], &[], &opts),
            job_fingerprint(&ansatz, &b, &[], &[], &opts),
            "exact key still separates them"
        );
        let va = coefficient_vector(&a);
        let vb = coefficient_vector(&b);
        let d = coefficient_distance(&va, &vb).unwrap();
        assert!((d - (0.01f64 * 0.01 + 0.02 * 0.02).sqrt()).abs() < 1e-12);
        assert_eq!(coefficient_distance(&va, &[1.0]), None);
    }
}
