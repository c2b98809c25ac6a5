//! Aaronson–Gottesman stabilizer tableau simulation.
//!
//! This is the classical-simulation workhorse of CAFQA: every candidate
//! Clifford ansatz in the discrete search is evaluated here, in polynomial
//! time per the Gottesman–Knill theorem (paper §2.3). Rows are bit-packed
//! into single `u64` words (the workspace caps registers at 64 qubits; the
//! paper's largest system is 34).

use std::fmt;
use std::ops::Range;

use cafqa_circuit::{Circuit, CliffordAngle, CompiledAnsatz, Gate, RotationAxis, TemplateOp};
use cafqa_pauli::{phase_exponent, PauliOp, PauliString};

use crate::sliced::{SlicedTerms, LANES};

/// Error returned when a circuit contains non-Clifford gates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NonCliffordError {
    /// Number of non-Clifford gates found.
    pub count: usize,
}

impl fmt::Display for NonCliffordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "circuit contains {} non-Clifford gate(s)", self.count)
    }
}

impl std::error::Error for NonCliffordError {}

/// One row of the tableau: a signed Pauli `(-1)^sign · P(x, z)`.
///
/// `pub(crate)` because the Clifford+T branch ensemble reuses the same
/// representation for its suffix-conjugated branch Paulis (frames) and
/// the same per-gate update rules (see [`conjugate_rows`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Row {
    pub(crate) x: u64,
    pub(crate) z: u64,
    pub(crate) sign: bool,
}

/// Conjugates every signed Pauli row by a primitive Clifford gate:
/// `row ↦ G · row · G†`, with exact sign tracking.
///
/// This is the single source of truth for the per-gate bit rules: both
/// the tableau generators ([`Tableau::apply_primitive`]) and the branch
/// ensemble's frame Paulis evolve through it, so the two can never drift.
///
/// # Panics
///
/// Panics on parameterized or T gates.
pub(crate) fn conjugate_rows(rows: &mut [Row], gate: &Gate) {
    match *gate {
        Gate::H(q) => {
            let m = 1u64 << q;
            for r in rows {
                r.sign ^= (r.x & r.z & m) != 0;
                let xq = r.x & m;
                let zq = r.z & m;
                r.x = (r.x & !m) | zq;
                r.z = (r.z & !m) | xq;
            }
        }
        Gate::S(q) => {
            let m = 1u64 << q;
            for r in rows {
                r.sign ^= (r.x & r.z & m) != 0;
                r.z ^= r.x & m;
            }
        }
        Gate::Sdg(q) => {
            let m = 1u64 << q;
            for r in rows {
                r.sign ^= (r.x & !r.z & m) != 0;
                r.z ^= r.x & m;
            }
        }
        Gate::X(q) => {
            let m = 1u64 << q;
            for r in rows {
                r.sign ^= (r.z & m) != 0;
            }
        }
        Gate::Y(q) => {
            let m = 1u64 << q;
            for r in rows {
                r.sign ^= ((r.x ^ r.z) & m) != 0;
            }
        }
        Gate::Z(q) => {
            let m = 1u64 << q;
            for r in rows {
                r.sign ^= (r.x & m) != 0;
            }
        }
        Gate::Cx { control, target } => {
            let cm = 1u64 << control;
            let tm = 1u64 << target;
            for r in rows {
                let xc = (r.x & cm) != 0;
                let zc = (r.z & cm) != 0;
                let xt = (r.x & tm) != 0;
                let zt = (r.z & tm) != 0;
                r.sign ^= xc && zt && (xt == zc);
                if xc {
                    r.x ^= tm;
                }
                if zt {
                    r.z ^= cm;
                }
            }
        }
        Gate::Cz(a, b) => {
            // CZ = H(b) · CX(a, b) · H(b).
            conjugate_rows(rows, &Gate::H(b));
            conjugate_rows(rows, &Gate::Cx { control: a, target: b });
            conjugate_rows(rows, &Gate::H(b));
        }
        ref other => panic!("conjugate_rows got non-primitive gate {other:?}"),
    }
}

/// Conjugates every signed Pauli row by a Clifford-angle rotation, fused
/// into a single pass (the rotation counterpart of [`conjugate_rows`];
/// see [`Tableau::apply_rotation`] for the derivation).
pub(crate) fn conjugate_rows_rotation(
    rows: &mut [Row],
    axis: RotationAxis,
    qubit: usize,
    angle: CliffordAngle,
) {
    let m = 1u64 << qubit;
    match (axis, angle) {
        (_, CliffordAngle::Zero) => {}
        // Rz(π/2) ~ S: X→Y, Y→−X.
        (RotationAxis::Z, CliffordAngle::Quarter) => {
            for r in rows {
                r.sign ^= (r.x & r.z & m) != 0;
                r.z ^= r.x & m;
            }
        }
        // Rz(π) ~ Z: X→−X, Y→−Y.
        (RotationAxis::Z, CliffordAngle::Half) => {
            for r in rows {
                r.sign ^= (r.x & m) != 0;
            }
        }
        // Rz(3π/2) ~ S†: X→−Y, Y→X.
        (RotationAxis::Z, CliffordAngle::ThreeQuarter) => {
            for r in rows {
                r.sign ^= (r.x & !r.z & m) != 0;
                r.z ^= r.x & m;
            }
        }
        // Ry(π/2) ~ Z·H: X→−Z, Z→X.
        (RotationAxis::Y, CliffordAngle::Quarter) => {
            for r in rows {
                r.sign ^= (r.x & !r.z & m) != 0;
                let xq = r.x & m;
                let zq = r.z & m;
                r.x = (r.x & !m) | zq;
                r.z = (r.z & !m) | xq;
            }
        }
        // Ry(π) ~ Y: X→−X, Z→−Z.
        (RotationAxis::Y, CliffordAngle::Half) => {
            for r in rows {
                r.sign ^= ((r.x ^ r.z) & m) != 0;
            }
        }
        // Ry(3π/2) ~ X·H: X→Z, Z→−X.
        (RotationAxis::Y, CliffordAngle::ThreeQuarter) => {
            for r in rows {
                r.sign ^= (!r.x & r.z & m) != 0;
                let xq = r.x & m;
                let zq = r.z & m;
                r.x = (r.x & !m) | zq;
                r.z = (r.z & !m) | xq;
            }
        }
        // Rx(π/2) ~ H·S·H: Z→−Y, Y→Z.
        (RotationAxis::X, CliffordAngle::Quarter) => {
            for r in rows {
                r.sign ^= (!r.x & r.z & m) != 0;
                r.x ^= r.z & m;
            }
        }
        // Rx(π) ~ X: Z→−Z, Y→−Y.
        (RotationAxis::X, CliffordAngle::Half) => {
            for r in rows {
                r.sign ^= (r.z & m) != 0;
            }
        }
        // Rx(3π/2) ~ H·S†·H: Z→Y, Y→−Z.
        (RotationAxis::X, CliffordAngle::ThreeQuarter) => {
            for r in rows {
                r.sign ^= (r.x & r.z & m) != 0;
                r.x ^= r.z & m;
            }
        }
    }
}

/// Rows folded per iteration of the lane-blocked expectation kernel
/// (see [`Tableau::expectation_masks`]): the parities of this many rows
/// are combined branchlessly before the screen's single early-exit test.
const LANE_BLOCK: usize = 4;

/// A stabilizer state on `n ≤ 64` qubits, tracked as `n` stabilizer and
/// `n` destabilizer generators (Aaronson–Gottesman 2004).
///
/// # Examples
///
/// ```
/// use cafqa_circuit::Circuit;
/// use cafqa_clifford::Tableau;
///
/// // Bell state: stabilizers ⟨XX, ZZ⟩.
/// let mut c = Circuit::new(2);
/// c.h(0).cx(0, 1);
/// let t = Tableau::from_circuit(&c).unwrap();
/// assert_eq!(t.expectation_pauli(&"XX".parse().unwrap()), 1);
/// assert_eq!(t.expectation_pauli(&"ZZ".parse().unwrap()), 1);
/// assert_eq!(t.expectation_pauli(&"ZI".parse().unwrap()), 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tableau {
    n: usize,
    /// Destabilizer rows (indices `0..n`), then stabilizer rows (`n..2n`).
    rows: Vec<Row>,
}

impl Tableau {
    /// The `|0…0⟩` state: stabilizers `Z_i`, destabilizers `X_i`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > 64`.
    pub fn zero_state(n: usize) -> Self {
        assert!(n > 0 && n <= 64, "tableau supports 1..=64 qubits");
        let mut rows = Vec::with_capacity(2 * n);
        for i in 0..n {
            rows.push(Row { x: 1 << i, z: 0, sign: false });
        }
        for i in 0..n {
            rows.push(Row { x: 0, z: 1 << i, sign: false });
        }
        Tableau { n, rows }
    }

    /// Runs a Clifford circuit on `|0…0⟩`.
    ///
    /// # Errors
    ///
    /// Returns [`NonCliffordError`] if the circuit has gates outside the
    /// Clifford group (T gates or rotations off the π/2 grid).
    pub fn from_circuit(circuit: &Circuit) -> Result<Self, NonCliffordError> {
        let (gates, _phase) = circuit
            .to_clifford_gates()
            .ok_or(NonCliffordError { count: circuit.non_clifford_count().max(1) })?;
        let mut t = Tableau::zero_state(circuit.num_qubits());
        for g in &gates {
            t.apply_primitive(g);
        }
        Ok(t)
    }

    /// Number of qubits.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Applies a primitive Clifford gate (`H`, `S`, `S†`, Paulis, `CX`,
    /// `CZ`). Rotations must be lowered first (see
    /// [`Circuit::to_clifford_gates`]).
    ///
    /// # Panics
    ///
    /// Panics on parameterized or T gates.
    pub fn apply_primitive(&mut self, gate: &Gate) {
        conjugate_rows(&mut self.rows, gate);
    }

    /// The stabilizer generators as signed Pauli strings
    /// (`(sign, string)`; the state satisfies `(-1)^sign P |ψ⟩ = |ψ⟩`).
    pub fn stabilizers(&self) -> Vec<(bool, PauliString)> {
        self.rows[self.n..]
            .iter()
            .map(|r| (r.sign, PauliString::from_masks(self.n, r.x, r.z)))
            .collect()
    }

    /// The destabilizer generators as signed Pauli strings, paired with
    /// [`Self::stabilizers`] index-by-index (Aaronson–Gottesman layout).
    /// Destabilizer sign bits are bookkeeping only and carry no physics.
    pub fn destabilizers(&self) -> Vec<(bool, PauliString)> {
        self.rows[..self.n]
            .iter()
            .map(|r| (r.sign, PauliString::from_masks(self.n, r.x, r.z)))
            .collect()
    }

    /// Resets the state to `|0…0⟩` in place, reusing the row storage —
    /// the scratch-reuse entry point for batched candidate evaluation.
    pub fn reset_zero(&mut self) {
        for i in 0..self.n {
            self.rows[i] = Row { x: 1 << i, z: 0, sign: false };
            self.rows[self.n + i] = Row { x: 0, z: 1 << i, sign: false };
        }
    }

    /// Applies a Clifford-angle rotation, fused into a single row pass
    /// (the primitive-gate lowering would sweep the rows up to three
    /// times). Global phase is ignored, as everywhere in the tableau; each
    /// fused update equals the [`cafqa_circuit::clifford_rotation`] gate
    /// sequence exactly (tested against it per axis/angle/qubit).
    ///
    /// Derivation: conjugation by a single-qubit Clifford permutes the
    /// qubit's `(x, z)` bits and flips the row sign on a fixed subset of
    /// the three non-identity Paulis, so one pass with the right masks
    /// suffices.
    pub fn apply_rotation(&mut self, axis: RotationAxis, qubit: usize, angle: CliffordAngle) {
        conjugate_rows_rotation(&mut self.rows, axis, qubit, angle);
    }

    /// Re-prepares the state as a compiled ansatz bound to `config`,
    /// in place: `|0…0⟩`, then the template's fixed primitives and
    /// per-slot Clifford rotations. Equivalent to
    /// `Tableau::from_circuit(&ansatz.bind_clifford(config))` but with no
    /// per-candidate lowering or allocation.
    ///
    /// # Panics
    ///
    /// Panics if the template width differs from the tableau width or if
    /// `config` has the wrong length.
    pub fn run_compiled(&mut self, template: &CompiledAnsatz, config: &[usize]) {
        self.run_compiled_prefix(template, config, template.ops().len());
    }

    /// Prepares the *prefix* state of a compiled ansatz: `|0…0⟩`, then
    /// template ops `0..end` only. Combined with [`Self::apply_from`]
    /// this is the checkpoint half of the incremental polish kernel: a
    /// prefix prepared once can be restored with [`Self::copy_from`] and
    /// finished with any suffix whose configuration agrees on the slots
    /// the prefix already consumed.
    ///
    /// `run_compiled_prefix(t, c, t.ops().len())` is exactly
    /// [`Self::run_compiled`].
    ///
    /// # Panics
    ///
    /// Panics if the template width differs from the tableau width, if
    /// `config` has the wrong length, or if `end > template.ops().len()`.
    pub fn run_compiled_prefix(&mut self, template: &CompiledAnsatz, config: &[usize], end: usize) {
        assert_eq!(template.num_qubits(), self.n, "template width mismatch");
        assert_eq!(config.len(), template.num_parameters(), "config length mismatch");
        self.reset_zero();
        self.apply_template_ops(template, config, 0, end);
    }

    /// Replays template ops `start..template.ops().len()` on the current
    /// state, with **no reset** — the delta half of the incremental
    /// polish kernel. When `self` holds the prefix state of the same
    /// template for a configuration that agrees with `config` on every
    /// slot read before `start` (see `CompiledAnsatz::first_op_of`), the
    /// resulting tableau is bit-identical to a full
    /// [`Self::run_compiled`] of `config`: prefix + suffix is literally
    /// the same integer gate sequence.
    ///
    /// # Panics
    ///
    /// Panics if the template width differs from the tableau width, if
    /// `config` has the wrong length, or if `start > template.ops().len()`.
    pub fn apply_from(&mut self, template: &CompiledAnsatz, config: &[usize], start: usize) {
        self.apply_range(template, config, start, template.ops().len());
    }

    /// Replays template ops `start..end` on the current state (no reset)
    /// — the generalization of [`Self::apply_from`] that lets a prefix
    /// checkpoint *advance* from one rotation slot to the next instead of
    /// being rebuilt from `|0…0⟩`.
    ///
    /// # Panics
    ///
    /// Panics if the template width differs from the tableau width, if
    /// `config` has the wrong length, or if `start..end` is not a valid
    /// range into `template.ops()`.
    pub fn apply_range(
        &mut self,
        template: &CompiledAnsatz,
        config: &[usize],
        start: usize,
        end: usize,
    ) {
        assert_eq!(template.num_qubits(), self.n, "template width mismatch");
        assert_eq!(config.len(), template.num_parameters(), "config length mismatch");
        self.apply_template_ops(template, config, start, end);
    }

    /// The shared op-application loop of every compiled entry point.
    fn apply_template_ops(
        &mut self,
        template: &CompiledAnsatz,
        config: &[usize],
        start: usize,
        end: usize,
    ) {
        for op in &template.ops()[start..end] {
            match *op {
                TemplateOp::Fixed(ref g) => self.apply_primitive(g),
                TemplateOp::Rotation { axis, qubit, param } => {
                    self.apply_rotation(axis, qubit, CliffordAngle::from_index(config[param]));
                }
                TemplateOp::Branch { .. } => panic!(
                    "Clifford tableau cannot execute a branch op; \
                     use BranchEnsemble for Clifford+T templates"
                ),
            }
        }
    }

    /// Copies another tableau's state into this one without allocating —
    /// the checkpoint-restore of the incremental polish kernel (and the
    /// reason polish scratch tableaus never reallocate between
    /// neighbors).
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn copy_from(&mut self, src: &Tableau) {
        assert_eq!(src.n, self.n, "tableau width mismatch");
        self.rows.copy_from_slice(&src.rows);
    }

    /// Expectation value of a single Pauli string on the stabilizer state:
    /// exactly `+1`, `-1`, or `0` (paper §3 step 7).
    ///
    /// `0` when the string anticommutes with some stabilizer; otherwise the
    /// string is (up to sign) a product of stabilizer generators, and the
    /// destabilizer pairing identifies exactly which product.
    pub fn expectation_pauli(&self, p: &PauliString) -> i8 {
        assert_eq!(p.num_qubits(), self.n, "pauli width mismatch");
        self.expectation_masks(p.x_mask(), p.z_mask())
    }

    /// Mask-level [`Self::expectation_pauli`]: the expectation of the
    /// unsigned Pauli `P(px, pz)` from raw bit masks.
    ///
    /// The single-term kernel: pure bitwise phase accumulation over the
    /// `(x, z, sign)` row words, with no intermediate `PauliString`
    /// values (see [`cafqa_pauli::phase_exponent`]). Whole Hamiltonians
    /// go through [`Self::expectation_sum`], which screens 64 terms per
    /// stabilizer pass and shares this kernel's phase fold.
    ///
    /// The row loops are *lane-blocked*: [`LANE_BLOCK`] rows are folded per
    /// iteration with branchless single-popcount parities
    /// (`parity(|x∧pz| + |z∧px|) = parity((x∧pz) ⊕ (z∧px))`, since the
    /// double-counted overlap `|x∧pz∧z∧px|` enters twice), so the
    /// stabilizer screen takes one branch per block instead of one per
    /// row, and the destabilizer anticommutation pattern is packed into a
    /// single `u64` selection mask (the register caps at 64 qubits) whose
    /// set bits drive the inherently sequential phase fold. The pre-block
    /// scalar loop survives as [`Self::expectation_masks_scalar`], the
    /// pinned reference the kernel-equivalence proptests compare against.
    ///
    /// Mask bits at or above [`Self::num_qubits`] are a caller error: the
    /// register has no such qubits, so the result would be meaningless.
    /// Checked with a `debug_assert!` only, to keep the release-mode hot
    /// loop branch-free ([`Self::expectation_pauli`] guarantees the
    /// invariant structurally via `PauliString`'s own width check).
    pub fn expectation_masks(&self, px: u64, pz: u64) -> i8 {
        debug_assert!(
            self.n == 64 || (px | pz) >> self.n == 0,
            "mask bits above the register width"
        );
        // 1 when the row anticommutes with P(px, pz), else 0.
        let parity = |r: &Row| ((r.x & pz) ^ (r.z & px)).count_ones() & 1;
        let stab = &self.rows[self.n..];
        // Any anticommuting stabilizer ⇒ expectation 0. OR-fold the block
        // parities so each block costs one branch, not LANE_BLOCK.
        let mut blocks = stab.chunks_exact(LANE_BLOCK);
        for block in blocks.by_ref() {
            if parity(&block[0]) | parity(&block[1]) | parity(&block[2]) | parity(&block[3]) != 0 {
                return 0;
            }
        }
        if blocks.remainder().iter().fold(0, |acc, r| acc | parity(r)) != 0 {
            return 0;
        }
        self.stabilizer_sign(px, pz)
    }

    /// The sign of a Pauli `P(px, pz)` that commutes with every
    /// stabilizer, as `±1`: the sign of `P` in its decomposition
    /// `P = ± Π_{i ∈ I} S_i`, where `I = { i : P anticommutes with D_i }`.
    /// The phase fold behind both [`Self::expectation_masks`] and
    /// [`Self::expectation_sum`], so the sign logic exists once.
    fn stabilizer_sign(&self, px: u64, pz: u64) -> i8 {
        let parity = |r: &Row| ((r.x & pz) ^ (r.z & px)).count_ones() & 1;
        let (destab, stab) = self.rows.split_at(self.n);
        // Pack I into one u64 (bit i set ⇔ destabilizer i anticommutes).
        let mut select = 0u64;
        let mut shift = 0u32;
        let mut dblocks = destab.chunks_exact(LANE_BLOCK);
        for block in dblocks.by_ref() {
            let bits = u64::from(parity(&block[0]))
                | u64::from(parity(&block[1])) << 1
                | u64::from(parity(&block[2])) << 2
                | u64::from(parity(&block[3])) << 3;
            select |= bits << shift;
            shift += LANE_BLOCK as u32;
        }
        for r in dblocks.remainder() {
            select |= u64::from(parity(r)) << shift;
            shift += 1;
        }
        // Accumulate the product phase over the set bits of `select`. One
        // step A·S = i^k' (A ⊕ S) has k' = y(A) + y(S) + 2|A.z ∧ S.x| − y(A ⊕ S)
        // (`phase_exponent`, y = Y count); over the chain the y(A) − y(A ⊕ S)
        // terms telescope to −y(P), so each step only adds y(S) and the
        // 2|A.z ∧ S.x| cross term. 2^32 is a multiple of 4, so the final
        // wrapping subtraction keeps k mod 4.
        let mut ax = 0u64;
        let mut az = 0u64;
        let mut k = 0u32; // phase exponent of i
        while select != 0 {
            let s = &stab[select.trailing_zeros() as usize];
            select &= select - 1;
            k += (s.x & s.z).count_ones() + 2 * ((az & s.x).count_ones() + u32::from(s.sign));
            ax ^= s.x;
            az ^= s.z;
        }
        debug_assert_eq!((ax, az), (px, pz), "destabilizer decomposition failed");
        match k.wrapping_sub((px & pz).count_ones()) % 4 {
            0 => 1,
            2 => -1,
            _ => unreachable!("hermitian pauli product acquired an odd i power"),
        }
    }

    /// `Σ_t c_t ⟨P_t⟩` over the terms `range` of a bit-sliced Pauli sum:
    /// the Hamiltonian kernel of the CAFQA objective (paper §3 step 7).
    ///
    /// **Screen.** The terms are taken 64 at a time (one block of
    /// [`SlicedTerms`] columns). For each stabilizer row, the Z columns
    /// its X bits select XOR the X columns its Z bits select give the
    /// anticommutation pattern of all 64 terms with that row. The
    /// patterns are OR-ed across rows, and the pass stops once every
    /// lane in the range is dead. A dead term has expectation 0.
    ///
    /// **Survivors.** Only the terms that commute with every stabilizer
    /// (typically 0.4–15% of a molecular Hamiltonian) run the
    /// destabilizer select and phase fold of
    /// [`Self::expectation_masks`], through the same private helper.
    ///
    /// **Sum.** The result is bit-identical to
    /// `range.map(|t| c_t * f64::from(self.expectation_masks(x_t, z_t))).sum()`:
    /// terms are added in order, folded left from `-0.0` exactly as
    /// `Iterator::sum` does. A vanishing term adds `c_t · 0 = ±0`, which
    /// leaves any nonzero partial sum unchanged, so it is skipped unless
    /// the partial sum is itself zero (where the sign of zero can flip)
    /// or `c_t` is not finite (where `c_t · 0` is NaN).
    ///
    /// # Panics
    ///
    /// Panics if the widths differ or `range` is out of bounds.
    pub fn expectation_sum(&self, terms: &SlicedTerms, range: Range<usize>) -> f64 {
        assert_eq!(terms.num_qubits(), self.n, "term width mismatch");
        assert!(range.start <= range.end && range.end <= terms.len(), "term range out of bounds");
        let coeffs = terms.coefficients();
        let stab = &self.rows[self.n..];
        // `c · 0` for each skipped vanishing term, while the sum is zero.
        let add_zeros = |sum: f64, skipped: &[f64]| skipped.iter().fold(sum, |s, c| s + c * 0.0);
        let mut sum = -0.0;
        // Terms before `added` are in `sum`.
        let mut added = range.start;
        let mut start = range.start;
        while start < range.end {
            let block = start / LANES;
            let base = block * LANES;
            let end = range.end.min(base + LANES);
            // Lanes `start - base .. end - base` of this block.
            let lanes = (u64::MAX >> (LANES - (end - start))) << (start - base);
            let columns = terms.block_columns(block);
            let mut dead = 0u64;
            for r in stab {
                let mut pattern = 0u64;
                for (mask, offset) in [(r.x, 1), (r.z, 0)] {
                    let mut m = mask;
                    while m != 0 {
                        pattern ^= columns[2 * m.trailing_zeros() as usize + offset];
                        m &= m - 1;
                    }
                }
                dead |= pattern;
                if dead & lanes == lanes {
                    break;
                }
            }
            let live = lanes & !dead;
            let mut visit = live | (terms.nonfinite_lanes(block) & lanes);
            while visit != 0 {
                let lane = visit.trailing_zeros() as usize;
                visit &= visit - 1;
                let t = base + lane;
                if sum == 0.0 {
                    sum = add_zeros(sum, &coeffs[added..t]);
                }
                let value = if live >> lane & 1 == 1 {
                    let (x, z, _) = terms.term(t);
                    self.stabilizer_sign(x, z)
                } else {
                    0
                };
                sum += coeffs[t] * f64::from(value);
                added = t + 1;
            }
            start = end;
        }
        if sum == 0.0 {
            sum = add_zeros(sum, &coeffs[added..range.end]);
        }
        sum
    }

    /// The pre-lane-blocking scalar [`Self::expectation_masks`], kept
    /// verbatim as the pinned reference for the kernel-equivalence
    /// proptests and the lane-blocked A/B bench. Not used on any hot
    /// path.
    pub fn expectation_masks_scalar(&self, px: u64, pz: u64) -> i8 {
        debug_assert!(
            self.n == 64 || (px | pz) >> self.n == 0,
            "mask bits above the register width"
        );
        let anticommutes = |r: &Row| ((r.x & pz).count_ones() + (r.z & px).count_ones()) % 2 == 1;
        // Zipped contiguous slices keep the loops free of bounds checks.
        let (destab, stab) = self.rows.split_at(self.n);
        // Any anticommuting stabilizer ⇒ expectation 0.
        if stab.iter().any(anticommutes) {
            return 0;
        }
        // P = ± Π_{i ∈ I} S_i where I = { i : P anticommutes with D_i }.
        // Accumulate the product phase via popcounts on the raw masks.
        let mut ax = 0u64;
        let mut az = 0u64;
        let mut k: i32 = 0; // phase exponent of i
        for (d, s) in destab.iter().zip(stab) {
            if anticommutes(d) {
                k += phase_exponent(ax, az, s.x, s.z) + if s.sign { 2 } else { 0 };
                ax ^= s.x;
                az ^= s.z;
            }
        }
        debug_assert_eq!((ax, az), (px, pz), "destabilizer decomposition failed");
        match k.rem_euclid(4) {
            0 => 1,
            2 => -1,
            _ => unreachable!("hermitian pauli product acquired an odd i power"),
        }
    }

    /// Expectation value of a Pauli-sum operator: `Σ_k c_k ⟨P_k⟩` with
    /// each `⟨P_k⟩ ∈ {+1, 0, −1}`.
    ///
    /// Only real parts of coefficients contribute (stabilizer expectations
    /// of Hermitian operators are real).
    pub fn expectation(&self, op: &PauliOp) -> f64 {
        assert_eq!(op.num_qubits(), self.n, "operator width mismatch");
        op.iter().map(|(p, c)| c.re * f64::from(self.expectation_pauli(p))).sum()
    }

    /// Measures qubit `q` in the computational basis, collapsing the state.
    ///
    /// Returns the outcome bit. `random_bit` supplies the coin flip for
    /// non-deterministic outcomes (called only when needed).
    pub fn measure(&mut self, q: usize, random_bit: &mut impl FnMut() -> bool) -> bool {
        assert!(q < self.n, "qubit out of range");
        let m = 1u64 << q;
        // A stabilizer with X on q ⇒ random outcome.
        if let Some(p) = (self.n..2 * self.n).find(|&i| self.rows[i].x & m != 0) {
            let outcome = random_bit();
            // Replace every other row anticommuting with Z_q by row·rows[p].
            for i in 0..2 * self.n {
                if i != p && self.rows[i].x & m != 0 {
                    self.row_mul_into(i, p);
                }
            }
            // Destabilizer p−n becomes the old stabilizer; stabilizer p
            // becomes ±Z_q.
            self.rows[p - self.n] = self.rows[p];
            self.rows[p] = Row { x: 0, z: m, sign: outcome };
            outcome
        } else {
            // Deterministic: ±Z_q is in the stabilizer group; recover its
            // sign through the destabilizer pairing, like expectation_pauli.
            let sign = self.expectation_masks(0, m);
            debug_assert!(sign != 0);
            sign < 0
        }
    }

    /// Replaces row `i` by `row_i · row_j`, with exact sign tracking —
    /// pure bitwise, no intermediate `PauliString`s.
    fn row_mul_into(&mut self, i: usize, j: usize) {
        let a = self.rows[i];
        let b = self.rows[j];
        let k = phase_exponent(a.x, a.z, b.x, b.z)
            + if a.sign { 2 } else { 0 }
            + if b.sign { 2 } else { 0 };
        // Stabilizer rows commute mutually, so a stabilizer×stabilizer
        // product has real phase (±1). Destabilizer rows may anticommute
        // with the multiplier; their sign bit is unused, so an odd power
        // of i there is harmless.
        debug_assert!(i < self.n || j < self.n || k.rem_euclid(2) == 0);
        self.rows[i] = Row { x: a.x ^ b.x, z: a.z ^ b.z, sign: k.rem_euclid(4) == 2 };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bell() -> Tableau {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        Tableau::from_circuit(&c).unwrap()
    }

    #[test]
    fn zero_state_stabilizers() {
        let t = Tableau::zero_state(3);
        for q in 0..3 {
            let z = PauliString::single(3, q, cafqa_pauli::Pauli::Z);
            assert_eq!(t.expectation_pauli(&z), 1);
            let x = PauliString::single(3, q, cafqa_pauli::Pauli::X);
            assert_eq!(t.expectation_pauli(&x), 0);
        }
    }

    #[test]
    fn bell_state_expectations() {
        let t = bell();
        let e = |s: &str| t.expectation_pauli(&s.parse().unwrap());
        assert_eq!(e("XX"), 1);
        assert_eq!(e("ZZ"), 1);
        assert_eq!(e("YY"), -1);
        assert_eq!(e("XY"), 0);
        assert_eq!(e("IZ"), 0);
        assert_eq!(e("II"), 1);
    }

    #[test]
    fn minus_state_from_x_then_h() {
        let mut c = Circuit::new(1);
        c.x(0).h(0); // |−⟩
        let t = Tableau::from_circuit(&c).unwrap();
        assert_eq!(t.expectation_pauli(&"X".parse().unwrap()), -1);
        assert_eq!(t.expectation_pauli(&"Z".parse().unwrap()), 0);
    }

    #[test]
    fn s_gate_turns_plus_into_plus_i() {
        let mut c = Circuit::new(1);
        c.h(0).s(0); // |+i⟩, stabilized by +Y.
        let t = Tableau::from_circuit(&c).unwrap();
        assert_eq!(t.expectation_pauli(&"Y".parse().unwrap()), 1);
        c.sdg(0).sdg(0); // net S† on |+⟩ → |−i⟩.
        let t = Tableau::from_circuit(&c).unwrap();
        assert_eq!(t.expectation_pauli(&"Y".parse().unwrap()), -1);
    }

    #[test]
    fn ghz_parity() {
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).cx(1, 2).cx(2, 3);
        let t = Tableau::from_circuit(&c).unwrap();
        assert_eq!(t.expectation_pauli(&"XXXX".parse().unwrap()), 1);
        assert_eq!(t.expectation_pauli(&"ZZII".parse().unwrap()), 1);
        assert_eq!(t.expectation_pauli(&"ZIII".parse().unwrap()), 0);
        assert_eq!(t.expectation_pauli(&"YYXX".parse().unwrap()), -1);
    }

    #[test]
    fn operator_expectation_sums_terms() {
        let t = bell();
        let h: PauliOp = "0.5*XX - 0.25*YY + 3.0*IZ".parse().unwrap();
        assert!((t.expectation(&h) - (0.5 + 0.25)).abs() < 1e-12);
    }

    #[test]
    fn rejects_non_clifford() {
        let mut c = Circuit::new(1);
        c.ry(0, 0.3);
        assert!(Tableau::from_circuit(&c).is_err());
    }

    #[test]
    fn clifford_rotations_accepted() {
        let mut c = Circuit::new(2);
        c.ry(0, std::f64::consts::FRAC_PI_2)
            .rz(1, std::f64::consts::PI)
            .rx(0, 3.0 * std::f64::consts::FRAC_PI_2)
            .cx(0, 1);
        assert!(Tableau::from_circuit(&c).is_ok());
    }

    #[test]
    fn deterministic_measurement() {
        let mut c = Circuit::new(2);
        c.x(0);
        let mut t = Tableau::from_circuit(&c).unwrap();
        let mut flips = || panic!("deterministic measurement should not flip coins");
        assert!(t.measure(0, &mut flips));
        let mut flips = || panic!("deterministic measurement should not flip coins");
        assert!(!t.measure(1, &mut flips));
    }

    #[test]
    fn random_measurement_collapses() {
        let mut t = bell();
        let mut coin = || true;
        let b0 = t.measure(0, &mut coin);
        // After measuring qubit 0, qubit 1 is perfectly correlated.
        let mut flips = || panic!("collapsed qubit must be deterministic");
        let b1 = t.measure(1, &mut flips);
        assert_eq!(b0, b1);
    }

    #[test]
    fn apply_rotation_matches_clifford_rotation_lowering() {
        use cafqa_circuit::{clifford_rotation, RotationAxis, CLIFFORD_ANGLES};
        // Start from a non-trivial state so sign bookkeeping is exercised.
        let mut base = Circuit::new(2);
        base.h(0).cx(0, 1).s(1).x(0);
        for axis in [RotationAxis::X, RotationAxis::Y, RotationAxis::Z] {
            for angle in CLIFFORD_ANGLES {
                for qubit in 0..2 {
                    let mut direct = Tableau::from_circuit(&base).unwrap();
                    direct.apply_rotation(axis, qubit, angle);
                    let mut reference = Tableau::from_circuit(&base).unwrap();
                    for g in clifford_rotation(axis, qubit, angle).0 {
                        reference.apply_primitive(&g);
                    }
                    assert_eq!(direct, reference, "{axis:?} {angle:?} q{qubit}");
                }
            }
        }
    }

    #[test]
    fn reset_zero_restores_the_initial_state() {
        let mut t = bell();
        t.reset_zero();
        assert_eq!(t, Tableau::zero_state(2));
    }

    #[test]
    fn run_compiled_matches_from_circuit() {
        use cafqa_circuit::{Ansatz, CompiledAnsatz, EfficientSu2};
        let ansatz = EfficientSu2::new(3, 1);
        let template = CompiledAnsatz::compile(&ansatz).unwrap();
        let mut scratch = Tableau::zero_state(3);
        for config in [vec![0usize; 12], vec![3; 12], vec![1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0]] {
            scratch.run_compiled(&template, &config);
            let reference = Tableau::from_circuit(&ansatz.bind_clifford(&config)).unwrap();
            assert_eq!(scratch, reference, "{config:?}");
        }
    }

    #[test]
    fn prefix_plus_suffix_equals_full_run() {
        use cafqa_circuit::{CompiledAnsatz, EfficientSu2};
        let ansatz = EfficientSu2::new(3, 1);
        let template = CompiledAnsatz::compile(&ansatz).unwrap();
        let config = vec![1usize, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0];
        let mut full = Tableau::zero_state(3);
        full.run_compiled(&template, &config);
        for split in 0..=template.ops().len() {
            let mut pieced = Tableau::zero_state(3);
            pieced.run_compiled_prefix(&template, &config, split);
            pieced.apply_from(&template, &config, split);
            assert_eq!(pieced, full, "split at {split}");
        }
        // Advancing a prefix in several apply_range hops is the same as
        // one prefix preparation.
        let mut hopped = Tableau::zero_state(3);
        hopped.reset_zero();
        let mut at = 0;
        for stop in [2usize, 5, 9, template.ops().len()] {
            hopped.apply_range(&template, &config, at, stop);
            at = stop;
        }
        assert_eq!(hopped, full);
    }

    #[test]
    fn copy_from_restores_a_checkpoint() {
        let mut checkpoint = bell();
        let mut scratch = Tableau::zero_state(2);
        scratch.copy_from(&checkpoint);
        assert_eq!(scratch, checkpoint);
        // Mutating the copy leaves the checkpoint untouched.
        scratch.apply_primitive(&Gate::H(0));
        assert_ne!(scratch, checkpoint);
        scratch.copy_from(&checkpoint);
        assert_eq!(scratch, checkpoint);
        // And the other direction works too (it is just a memcpy).
        checkpoint.copy_from(&Tableau::zero_state(2));
        assert_eq!(checkpoint, Tableau::zero_state(2));
    }

    #[test]
    fn expectation_masks_equals_expectation_pauli() {
        let t = bell();
        for code in 0u64..16 {
            let (px, pz) = (code & 3, code >> 2);
            let p = PauliString::from_masks(2, px, pz);
            assert_eq!(t.expectation_masks(px, pz), t.expectation_pauli(&p));
        }
    }

    #[test]
    fn lane_blocked_kernel_matches_scalar_reference() {
        // Widths straddling the LANE_BLOCK boundary (remainder 0..=3),
        // exhaustive masks at small n, xorshift-sampled masks above.
        for n in [1usize, 3, 4, 5, 7, 8, 9] {
            let mut c = Circuit::new(n);
            for q in 0..n {
                c.h(q);
                if q % 2 == 0 {
                    c.s(q);
                }
                if q + 1 < n {
                    c.cx(q, q + 1);
                }
            }
            let t = Tableau::from_circuit(&c).unwrap();
            let mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
            if n <= 7 {
                for code in 0..(1u64 << (2 * n)) {
                    let (px, pz) = (code & mask, code >> n);
                    assert_eq!(
                        t.expectation_masks(px, pz),
                        t.expectation_masks_scalar(px, pz),
                        "n={n} px={px:#b} pz={pz:#b}"
                    );
                }
            } else {
                let mut seed = 0x5EEDu64 + n as u64;
                for _ in 0..512 {
                    seed ^= seed << 13;
                    seed ^= seed >> 7;
                    seed ^= seed << 17;
                    let px = seed & mask;
                    seed ^= seed << 13;
                    seed ^= seed >> 7;
                    seed ^= seed << 17;
                    let pz = seed & mask;
                    assert_eq!(
                        t.expectation_masks(px, pz),
                        t.expectation_masks_scalar(px, pz),
                        "n={n} px={px:#b} pz={pz:#b}"
                    );
                }
            }
        }
    }

    #[test]
    fn destabilizers_pair_with_stabilizers() {
        let t = bell();
        let stabs = t.stabilizers();
        let destabs = t.destabilizers();
        assert_eq!(stabs.len(), 2);
        assert_eq!(destabs.len(), 2);
        for (i, (_, d)) in destabs.iter().enumerate() {
            for (j, (_, s)) in stabs.iter().enumerate() {
                // D_i anticommutes with S_i and commutes with every other S_j.
                assert_eq!(d.commutes_with(s), i != j, "D{i} vs S{j}");
            }
        }
    }

    #[test]
    fn y_gate_signs() {
        let mut c = Circuit::new(1);
        c.y(0); // |1⟩ up to phase: ⟨Z⟩ = −1.
        let t = Tableau::from_circuit(&c).unwrap();
        assert_eq!(t.expectation_pauli(&"Z".parse().unwrap()), -1);
    }
}
