//! Second quantization and fermion-to-qubit encodings.
//!
//! Spin orbitals use **blocked ordering**: indices `0..n` are the α
//! orbitals, `n..2n` the β orbitals. The paper's Hamiltonians use the
//! parity mapping with two-qubit Z2 reduction (§6), which is what makes
//! the qubit counts of Table 1 come out to `2·orbitals − 2`; Jordan-Wigner
//! is provided as the cross-validation encoding.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use cafqa_linalg::Complex64;
use cafqa_pauli::{phase_exponent, Pauli, PauliOp, PauliString};

use crate::active_space::{Spin, SpinIntegrals};

/// Fermion-to-qubit encoding choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mapping {
    /// Jordan–Wigner: occupation stored directly, Z-strings for parity.
    JordanWigner,
    /// Parity: running occupation parity stored, X-strings for updates.
    /// Supports the two-qubit symmetry reduction.
    Parity,
}

/// The annihilation operator `a_j` on `m` spin orbitals as a Pauli sum.
pub fn lowering_op(mapping: Mapping, m: usize, j: usize) -> PauliOp {
    assert!(j < m, "spin orbital index out of range");
    let half = Complex64::new(0.5, 0.0);
    let half_i = Complex64::new(0.0, 0.5);
    let mut op = PauliOp::zero(m);
    match mapping {
        Mapping::JordanWigner => {
            // a_j = (Π_{k<j} Z_k) (X_j + iY_j)/2, with |1⟩ = occupied.
            let mut zx = PauliString::identity(m);
            let mut zy = PauliString::identity(m);
            for k in 0..j {
                zx = zx.with_pauli(k, Pauli::Z);
                zy = zy.with_pauli(k, Pauli::Z);
            }
            zx = zx.with_pauli(j, Pauli::X);
            zy = zy.with_pauli(j, Pauli::Y);
            op.add_term(half, zx);
            op.add_term(half_i, zy);
        }
        Mapping::Parity => {
            // a_j = ½ (Z_{j−1} X_j + i Y_j) ⊗ X_{j+1..m−1}
            // (Seeley–Richard–Love 2012, with qubit j storing the parity
            // of occupations 0..=j).
            let mut x_term = PauliString::identity(m);
            let mut y_term = PauliString::identity(m);
            if j > 0 {
                x_term = x_term.with_pauli(j - 1, Pauli::Z);
            }
            x_term = x_term.with_pauli(j, Pauli::X);
            y_term = y_term.with_pauli(j, Pauli::Y);
            for k in (j + 1)..m {
                x_term = x_term.with_pauli(k, Pauli::X);
                y_term = y_term.with_pauli(k, Pauli::X);
            }
            op.add_term(half, x_term);
            op.add_term(half_i, y_term);
        }
    }
    op
}

/// The creation operator `a†_j` (Hermitian conjugate of [`lowering_op`]).
pub fn raising_op(mapping: Mapping, m: usize, j: usize) -> PauliOp {
    lowering_op(mapping, m, j).dagger()
}

/// Blocked spin-orbital index: α spatial `p` → `p`, β spatial `p` → `n+p`.
#[inline]
pub fn spin_orbital(n_spatial: usize, p: usize, spin: Spin) -> usize {
    match spin {
        Spin::Alpha => p,
        Spin::Beta => n_spatial + p,
    }
}

/// A Pauli sum in flat mask form: `(coefficient, x_mask, z_mask)` triples.
type MaskTerms = Vec<(Complex64, u64, u64)>;

/// Accumulator keyed by `(x_mask, z_mask)`: the Hamiltonian itself and
/// the per-block scratch maps. Its hasher is fixed, so its iteration
/// order is the same in every run.
type MaskMap = HashMap<(u64, u64), Complex64, BuildHasherDefault<MaskHasher>>;

/// A fast deterministic hasher for mask keys: each word is mixed in by a
/// multiply and a rotation, and `finish` applies the 64-bit MurmurHash3
/// finalizer, so every input bit reaches the bucket index and the control
/// byte. Pauli masks are highly structured (runs of X from the parity
/// ladder, sparse Z), and a plain multiplicative hash without the
/// finalizer collides on them.
#[derive(Debug, Default, Clone, Copy)]
struct MaskHasher(u64);

impl Hasher for MaskHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(32) ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        h ^ (h >> 33)
    }
}

fn mask_terms(op: &PauliOp) -> MaskTerms {
    op.iter().map(|(p, c)| (*c, p.x_mask(), p.z_mask())).collect()
}

/// `out = left · right`, each product coefficient formed and merged as in
/// [`PauliOp::mul_op`]: `c_left · c_right · i^k`.
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

/// Builds the full (untapered) qubit Hamiltonian on `2n` qubits from
/// active-space integrals:
///
/// `H = E_core + Σ h^σ_pq a†_pσ a_qσ
///      + ½ Σ (pq|rs)^{στ} a†_pσ a†_rτ a_sτ a_qσ`.
///
/// The two-body sum runs in blocks over `(σ, τ, p, q)`: each block
/// accumulates `½ (pq|rs) a†_rτ a_sτ` over `(r, s)` into a chunk, prunes
/// it at `1e-14`, then multiplies by `a†_pσ` and `a_qσ`. The pair products
/// `a†_i a_j` are computed once, and the chunk and both products reuse
/// scratch maps. `H` itself accumulates in flat `(x_mask, z_mask)`-keyed
/// hash shards, sized up front for the largest catalog register; at the
/// end they are pruned at `1e-10` and freed, and the sorted survivors are
/// bulk-built into the [`PauliOp`]. Every map hashes with `MaskHasher`.
///
/// **Bit-identity invariant.** The output is fixed to the last bit: a
/// coefficient's bits depend only on the order in which its contributions
/// arrive, and that order is set by the loop order `σ, τ, p, q, r, s`
/// (one contribution per key per `(r, s)` to the chunk, one per key per
/// block to `H`, in block order, each added to a `0` entry as
/// [`PauliOp::add_term`] would). Each ladder factor has two terms, so a
/// key of either product gets at most two contributions, and IEEE
/// addition commutes, so no map's iteration order can move a bit; the
/// term order is the sorted order of the keys. Do not reorder the loops,
/// merge the two ladder products, or change the skips and the pruning:
/// any of these changes the coefficients' last bits. The bench crate's
/// `hamiltonian_equivalence` suite pins the output against the frozen
/// operator-algebra original, and `chem_equivalence` pins the whole
/// chemistry chain against its frozen original.
///
/// # Panics
///
/// Panics if `2n > 64` (a [`PauliString`] holds at most 64 qubits).
pub fn qubit_hamiltonian(si: &SpinIntegrals, mapping: Mapping) -> PauliOp {
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
    let mut h = ShardedMaskMap::with_capacity(hamiltonian_capacity(m));
    *h.entry((0, 0)) += Complex64::from(si.core_energy);
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
                    *h.entry((x, z)) += c * Complex64::from(v);
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
                        for (&key, &c) in &term {
                            *h.entry(key) += c;
                        }
                    }
                }
            }
        }
    }
    PauliOp::from_sorted_masks(m, h.into_pruned_sorted(1e-10))
}

/// The Hamiltonian accumulator: [`MaskMap`] shards picked by key, so that
/// no single table is large. Each shard is then small enough to come from
/// the allocator's free lists, like the `BTreeMap` nodes it replaced,
/// instead of one multi-megabyte block that cannot reuse the memory the
/// previous search freed (one 17 MB table raised a Cr2 bond benchmark's
/// peak RSS by 11 MB).
struct ShardedMaskMap {
    shards: Vec<MaskMap>,
}

impl ShardedMaskMap {
    const SHARDS: usize = 256;

    /// Sized for `capacity` keys in all.
    fn with_capacity(capacity: usize) -> Self {
        let per_shard = capacity.div_ceil(Self::SHARDS);
        let shards = (0..Self::SHARDS)
            .map(|_| MaskMap::with_capacity_and_hasher(per_shard, Default::default()))
            .collect();
        ShardedMaskMap { shards }
    }

    /// The key's coefficient, inserted as `0` if absent (so a first
    /// contribution `c` is stored as `0 + c`, as `PauliOp::add_term` does).
    #[inline]
    fn entry(&mut self, key: (u64, u64)) -> &mut Complex64 {
        let mixed =
            (key.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ key.1).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        let shard = (mixed >> 56) as usize;
        self.shards[shard].entry(key).or_insert(Complex64::ZERO)
    }

    /// The terms with `|c| > tol`, sorted by key; each shard is freed as
    /// soon as it is drained.
    fn into_pruned_sorted(self, tol: f64) -> Vec<((u64, u64), Complex64)> {
        let survivors =
            self.shards.iter().flat_map(|s| s.values()).filter(|c| c.norm() > tol).count();
        let mut kept = Vec::with_capacity(survivors);
        for shard in self.shards {
            kept.extend(shard.into_iter().filter(|(_, c)| c.norm() > tol));
        }
        kept.sort_unstable_by_key(|&(key, _)| key);
        kept
    }
}

/// Up-front size of the Hamiltonian accumulator on `m` spin orbitals, so
/// that it never rehashes (a rehash holds two tables at once). The
/// largest catalog count, 410 095 keys before pruning for the 34-qubit
/// Cr2 surrogate (`m = 36`), is 2% under `m⁴/4`.
fn hamiltonian_capacity(m: usize) -> usize {
    m * m * m * m / 4
}

/// The total-number operator `N = Σ_j a†_j a_j` on `2n` qubits.
pub fn number_operator(n_spatial: usize, mapping: Mapping) -> PauliOp {
    let m = 2 * n_spatial;
    let mut op = PauliOp::zero(m);
    for j in 0..m {
        let term = raising_op(mapping, m, j).mul_op(&lowering_op(mapping, m, j));
        op = (&op + &term).pruned(1e-14);
    }
    op
}

/// The Sz operator `½ (N_α − N_β)` on `2n` qubits.
pub fn sz_operator(n_spatial: usize, mapping: Mapping) -> PauliOp {
    let m = 2 * n_spatial;
    let mut op = PauliOp::zero(m);
    for p in 0..n_spatial {
        for (spin, w) in [(Spin::Alpha, 0.5), (Spin::Beta, -0.5)] {
            let j = spin_orbital(n_spatial, p, spin);
            let term = raising_op(mapping, m, j)
                .mul_op(&lowering_op(mapping, m, j))
                .scaled(Complex64::from(w));
            op = (&op + &term).pruned(1e-14);
        }
    }
    op
}

/// The total-spin operator `S² = S₋S₊ + Sz(Sz + 1)` on `2n` qubits, with
/// `S₊ = Σ_p a†_{pα} a_{pβ}`. Eigenvalues are `s(s+1)`: 0 for singlets,
/// 2 for triplets — the paper's spin-preservation constraint (§3 step 5)
/// penalizes deviations from the target sector's value.
pub fn s_squared_operator(n_spatial: usize, mapping: Mapping) -> PauliOp {
    let m = 2 * n_spatial;
    let mut s_plus = PauliOp::zero(m);
    for p in 0..n_spatial {
        let up = spin_orbital(n_spatial, p, Spin::Alpha);
        let dn = spin_orbital(n_spatial, p, Spin::Beta);
        let term = raising_op(mapping, m, up).mul_op(&lowering_op(mapping, m, dn));
        s_plus = (&s_plus + &term).pruned(1e-14);
    }
    let s_minus = s_plus.clone().dagger();
    let sz = sz_operator(n_spatial, mapping);
    let sz_sq = sz.mul_op(&sz);
    let mut s2 = s_minus.mul_op(&s_plus);
    s2 = &s2 + &sz_sq;
    s2 = &s2 + &sz;
    s2.pruned(1e-12)
}

/// Removes the two symmetry qubits of the parity mapping (blocked
/// ordering): qubit `n−1` stores the α-electron parity and qubit `2n−1`
/// the total parity. For a fixed `(n_alpha, n_beta)` sector their Z
/// eigenvalues are constants, so every (symmetry-conserving) operator term
/// restricts to the remaining `2n−2` qubits.
///
/// Both removals run on one flat mask list, in the order and arithmetic of
/// two [`PauliOp::map_terms`] rebuilds (total-parity qubit first, then
/// the α-parity qubit, colliding keys merged at each stage in sorted
/// order), followed by a `1e-12` prune and one bulk build.
///
/// # Panics
///
/// Panics if any term carries X/Y on a symmetry qubit (i.e. the operator
/// does not conserve the two parities).
pub fn taper_two_qubits(op: &PauliOp, n_alpha: usize, n_beta: usize) -> PauliOp {
    let m = op.num_qubits();
    assert!(m >= 2 && m % 2 == 0, "expected an even spin-orbital register");
    let alpha_qubit = m / 2 - 1;
    let total_qubit = m - 1;
    let z_alpha = if n_alpha % 2 == 0 { 1.0 } else { -1.0 };
    let z_total = if (n_alpha + n_beta) % 2 == 0 { 1.0 } else { -1.0 };
    let mut terms: Vec<((u64, u64), Complex64)> =
        op.iter().map(|(p, c)| ((p.x_mask(), p.z_mask()), *c)).collect();
    drop_qubit(&mut terms, total_qubit, z_total);
    drop_qubit(&mut terms, alpha_qubit, z_alpha);
    PauliOp::from_sorted_masks(m - 2, terms.into_iter().filter(|(_, c)| c.norm() > 1e-12))
}

/// Removes `qubit` (Z eigenvalue `z`) from every term of a mask list
/// sorted by key, leaving it sorted by the new key. Each coefficient is
/// scaled by `z` where the term has Z on the qubit, and terms whose keys
/// collide are merged from `0` in list order — the arithmetic and order
/// of `PauliOp::map_terms`, so the merged bits match a map rebuild.
///
/// # Panics
///
/// Panics if a term carries X/Y on `qubit`.
fn drop_qubit(terms: &mut Vec<((u64, u64), Complex64)>, qubit: usize, z: f64) {
    let bit = 1u64 << qubit;
    let low = bit - 1;
    let squeeze = |mask: u64| (mask & low) | ((mask >> 1) & !low);
    for (key, c) in terms.iter_mut() {
        let (x, zm) = *key;
        assert!(x & bit == 0, "cannot remove a qubit carrying X/Y");
        *c *= Complex64::from(if zm & bit != 0 { z } else { 1.0 });
        *key = (squeeze(x), squeeze(zm));
    }
    // Stable, so colliding keys keep their list order.
    terms.sort_by_key(|&(key, _)| key);
    let mut kept = 0;
    for i in 0..terms.len() {
        let (key, c) = terms[i];
        if kept > 0 && terms[kept - 1].0 == key {
            terms[kept - 1].1 += c;
        } else {
            terms[kept] = (key, Complex64::ZERO + c);
            kept += 1;
        }
    }
    terms.truncate(kept);
}

/// The Hartree-Fock determinant's bitstring in the chosen encoding.
///
/// Occupations fill the lowest `n_alpha` α and `n_beta` β spatial
/// orbitals. With `tapered = true` (parity only) the two symmetry qubits
/// are removed, matching [`taper_two_qubits`].
pub fn hf_bitstring(
    mapping: Mapping,
    n_spatial: usize,
    n_alpha: usize,
    n_beta: usize,
    tapered: bool,
) -> u64 {
    let m = 2 * n_spatial;
    let mut occ = vec![false; m];
    for p in 0..n_alpha {
        occ[p] = true;
    }
    for p in 0..n_beta {
        occ[n_spatial + p] = true;
    }
    let bits: Vec<bool> = match mapping {
        Mapping::JordanWigner => occ,
        Mapping::Parity => {
            let mut parity = false;
            occ.iter()
                .map(|&o| {
                    parity ^= o;
                    parity
                })
                .collect()
        }
    };
    assert!(
        !(tapered && mapping == Mapping::JordanWigner),
        "tapering is defined for the parity mapping"
    );
    let mut out = 0u64;
    let mut idx = 0;
    for (j, &b) in bits.iter().enumerate() {
        if tapered && (j == n_spatial - 1 || j == m - 1) {
            continue;
        }
        if b {
            out |= 1 << idx;
        }
        idx += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cafqa_linalg::Complex64;

    fn dense(op: &PauliOp) -> Vec<Complex64> {
        op.to_dense()
    }

    fn dense_mul(n: usize, a: &[Complex64], b: &[Complex64]) -> Vec<Complex64> {
        let dim = 1usize << n;
        let mut out = vec![Complex64::ZERO; dim * dim];
        for i in 0..dim {
            for k in 0..dim {
                if a[i * dim + k].norm_sqr() == 0.0 {
                    continue;
                }
                for j in 0..dim {
                    out[i * dim + j] += a[i * dim + k] * b[k * dim + j];
                }
            }
        }
        out
    }

    /// Checks the canonical anticommutation relations for both encodings.
    #[test]
    fn car_algebra_holds() {
        for mapping in [Mapping::JordanWigner, Mapping::Parity] {
            let m = 3;
            let dim = 1usize << m;
            for i in 0..m {
                for j in 0..m {
                    let ai = dense(&lowering_op(mapping, m, i));
                    let aj = dense(&lowering_op(mapping, m, j));
                    let adj = dense(&raising_op(mapping, m, j));
                    // {a_i, a_j} = 0
                    let anti1: Vec<Complex64> = dense_mul(m, &ai, &aj)
                        .iter()
                        .zip(&dense_mul(m, &aj, &ai))
                        .map(|(x, y)| *x + *y)
                        .collect();
                    for v in &anti1 {
                        assert!(v.norm() < 1e-12, "{mapping:?} {{a{i},a{j}}} ≠ 0");
                    }
                    // {a_i, a†_j} = δ_ij
                    let anti2: Vec<Complex64> = dense_mul(m, &ai, &adj)
                        .iter()
                        .zip(&dense_mul(m, &adj, &ai))
                        .map(|(x, y)| *x + *y)
                        .collect();
                    for (idx, v) in anti2.iter().enumerate() {
                        let expect = if i == j && idx % (dim + 1) == 0 { 1.0 } else { 0.0 };
                        assert!(
                            (v.re - expect).abs() < 1e-12 && v.im.abs() < 1e-12,
                            "{mapping:?} {{a{i},a†{j}}} wrong at {idx}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn number_operator_spectrum() {
        for mapping in [Mapping::JordanWigner, Mapping::Parity] {
            let nop = number_operator(1, mapping); // 2 spin orbitals
            let mat = dense(&nop);
            // Eigenvalues of N on 2 orbitals: {0, 1, 1, 2} (diagonal in the
            // encoded basis for both mappings).
            let mut diag: Vec<f64> = (0..4).map(|i| mat[i * 4 + i].re).collect();
            diag.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for (d, expect) in diag.iter().zip([0.0, 1.0, 1.0, 2.0]) {
                assert!((d - expect).abs() < 1e-12, "{mapping:?}: {diag:?}");
            }
        }
    }

    #[test]
    fn jw_number_operator_counts_bits() {
        let nop = number_operator(2, Mapping::JordanWigner); // 4 spin orbitals
        for bits in 0..16u64 {
            let expect = bits.count_ones() as f64;
            assert!((nop.expectation_basis(bits) - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn parity_number_operator_counts_transitions() {
        let nop = number_operator(2, Mapping::Parity);
        // In the parity basis, n_j = p_j ⊕ p_{j−1}; check a few states.
        // occ = 1100 (orbitals 0,1 occupied) → parity bits 1, 0, 0, 0.
        assert!((nop.expectation_basis(0b0001) - 2.0).abs() < 1e-12);
        // occ = 0000 → parity 0000.
        assert!((nop.expectation_basis(0b0000) - 0.0).abs() < 1e-12);
        // occ = 1000 → parity 1111.
        assert!((nop.expectation_basis(0b1111) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hf_bitstrings() {
        // 2 spatial orbitals, 1α + 1β: occupations 1010 (orbital 0 of each
        // spin block).
        assert_eq!(hf_bitstring(Mapping::JordanWigner, 2, 1, 1, false), 0b0101);
        // Parity prefix XOR of (1,0,1,0) = (1,1,0,0).
        assert_eq!(hf_bitstring(Mapping::Parity, 2, 1, 1, false), 0b0011);
        // Tapered drops qubits 1 and 3 → bits (1, 0) → 0b01.
        assert_eq!(hf_bitstring(Mapping::Parity, 2, 1, 1, true), 0b01);
    }

    #[test]
    fn s_squared_spectrum_one_orbital() {
        // One spatial orbital (2 spin orbitals): states are the vacuum
        // (s=0), two doublets (s=1/2 → 0.75) and the paired singlet (s=0).
        for mapping in [Mapping::JordanWigner, Mapping::Parity] {
            let s2 = s_squared_operator(1, mapping);
            let terms = s2.real_basis_terms(1e-10).expect("S² is real");
            let dim = 4;
            let mut mat = cafqa_linalg::Matrix::zeros(dim, dim);
            for &(f, xm, zm) in &terms {
                for b in 0..dim {
                    let sign = if (zm & b as u64).count_ones() % 2 == 0 { f } else { -f };
                    mat[(b ^ xm as usize, b)] += sign;
                }
            }
            let mut eig = mat.eigh().unwrap().values;
            eig.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let expect = [0.0, 0.0, 0.75, 0.75];
            for (e, x) in eig.iter().zip(expect) {
                assert!((e - x).abs() < 1e-9, "{mapping:?}: {eig:?}");
            }
        }
    }

    #[test]
    fn s_squared_on_two_orbital_sectors() {
        // Two spatial orbitals: the αα state (both spins up) is a triplet
        // component with S² = 2; the closed-shell state is a singlet.
        let s2 = s_squared_operator(2, Mapping::JordanWigner);
        let triplet_bits = hf_bitstring(Mapping::JordanWigner, 2, 2, 0, false);
        assert!((s2.expectation_basis(triplet_bits) - 2.0).abs() < 1e-10);
        let singlet_bits = hf_bitstring(Mapping::JordanWigner, 2, 1, 1, false);
        assert!(s2.expectation_basis(singlet_bits).abs() < 1e-10);
    }

    #[test]
    fn sz_operator_on_hf_states() {
        let sz = sz_operator(2, Mapping::JordanWigner);
        let bits_singlet = hf_bitstring(Mapping::JordanWigner, 2, 1, 1, false);
        assert!((sz.expectation_basis(bits_singlet)).abs() < 1e-12);
        let bits_triplet = hf_bitstring(Mapping::JordanWigner, 2, 2, 0, false);
        assert!((sz.expectation_basis(bits_triplet) - 1.0).abs() < 1e-12);
    }
}
