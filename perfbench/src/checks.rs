//! Correctness checks that fail the run. They are not metrics: a run
//! whose outputs fail any of them reports `"correct": false`.

use std::collections::BTreeMap;

/// Slack for the physical energy bounds (Hartree).
pub const ENERGY_TOL: f64 = 1e-9;

/// Collects the outcome of every check made during a run.
#[derive(Debug, Default)]
pub struct Checks {
    passed: BTreeMap<&'static str, u64>,
    failures: Vec<String>,
}

impl Checks {
    /// Records one check outcome under `name`.
    pub fn record(&mut self, name: &'static str, outcome: Result<(), String>) {
        match outcome {
            Ok(()) => *self.passed.entry(name).or_insert(0) += 1,
            Err(why) => {
                eprintln!("check {name} FAILED: {why}");
                self.failures.push(format!("{name}: {why}"));
            }
        }
    }

    /// Whether every recorded check passed.
    pub fn all_passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Passed-check counts by name.
    pub fn passed(&self) -> &BTreeMap<&'static str, u64> {
        &self.passed
    }

    /// Failure messages, in order.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// Two energies (or any two results) agree bit for bit.
pub fn bit_identical(what: &str, a: f64, b: f64) -> Result<(), String> {
    if a.to_bits() == b.to_bits() {
        Ok(())
    } else {
        Err(format!("{what}: {a:.17e} != {b:.17e}"))
    }
}

/// Two energy traces agree bit for bit, element by element.
pub fn traces_identical(what: &str, a: &[(f64, f64)], b: &[(f64, f64)]) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("{what}: trace lengths {} != {}", a.len(), b.len()));
    }
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        if x.0.to_bits() != y.0.to_bits() || x.1.to_bits() != y.1.to_bits() {
            return Err(format!("{what}: traces differ at evaluation {i}: {x:?} != {y:?}"));
        }
    }
    Ok(())
}

/// A compact fingerprint of a `(raw, penalized)` trace: its length and
/// an FNV-1a hash of every bit, so two traces compare bit for bit
/// without keeping both in memory.
pub fn trace_digest(trace: &[(f64, f64)]) -> (usize, u64) {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &(raw, penalized) in trace {
        for word in [raw.to_bits(), penalized.to_bits()] {
            for byte in word.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    (trace.len(), hash)
}

/// Two trace digests ([`trace_digest`]) agree.
pub fn same_digest(what: &str, a: (usize, u64), b: (usize, u64)) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err(format!("{what}: trace digests differ ({} vs {} evaluations)", a.0, b.0))
    }
}

/// CAFQA seeds the HF state, so its energy can never exceed HF's.
pub fn not_above_hf(cafqa: f64, hf: f64) -> Result<(), String> {
    if cafqa <= hf + ENERGY_TOL {
        Ok(())
    } else {
        Err(format!("E_CAFQA {cafqa:.12} above E_HF {hf:.12}"))
    }
}

/// No state lies below the exact ground state.
pub fn not_below_exact(cafqa: f64, exact: f64) -> Result<(), String> {
    if cafqa >= exact - ENERGY_TOL {
        Ok(())
    } else {
        Err(format!("E_CAFQA {cafqa:.12} below E_FCI {exact:.12}"))
    }
}

/// Slack between `⟨HF|H|HF⟩` on the tapered register and the RHF total
/// energy (Hartree): they differ only by SCF convergence and rounding.
pub const HF_SCF_TOL: f64 = 1e-6;

/// The qubit Hamiltonian reproduces the SCF energy on the HF state, a
/// check on integrals, active space, mapping and tapering together.
pub fn hf_reproduces_scf(hf: f64, scf: f64) -> Result<(), String> {
    if (hf - scf).abs() <= HF_SCF_TOL {
        Ok(())
    } else {
        Err(format!("<HF|H|HF> {hf:.12} differs from the SCF energy {scf:.12}"))
    }
}

/// A resubmitted job is answered from the cache, bit-identical to the
/// original.
pub fn cache_hit_identical(was_cache_hit: bool, original: f64, again: f64) -> Result<(), String> {
    if !was_cache_hit {
        return Err("an exact resubmission was not a cache hit".into());
    }
    bit_identical("cache hit vs original", original, again)
}

/// The kT tier's feasibility and screening contract: no proposal was
/// rejected, and the refined penalized value is at most the Clifford
/// one plus the screening tolerance.
pub fn kt_contract(
    rejected: usize,
    kt_penalized: f64,
    clifford_penalized: f64,
    screen_tolerance: f64,
) -> Result<(), String> {
    if rejected != 0 {
        return Err(format!("{rejected} kT proposals rejected"));
    }
    if kt_penalized <= clifford_penalized + screen_tolerance {
        Ok(())
    } else {
        Err(format!(
            "kT penalized {kt_penalized:.12} above Clifford {clifford_penalized:.12} \
             + tolerance {screen_tolerance:e}"
        ))
    }
}

/// A routed MaxCut job lands exactly on minus the maximum cut.
pub fn maxcut_exact(energy: f64, max_cut: f64) -> Result<(), String> {
    if (energy + max_cut).abs() <= ENERGY_TOL {
        Ok(())
    } else {
        Err(format!("MaxCut energy {energy} is not -{max_cut}"))
    }
}

/// Two Hamiltonians built by different call paths are equal.
pub fn same_hamiltonian(a: &cafqa_pauli::PauliOp, b: &cafqa_pauli::PauliOp) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err(format!("Hamiltonians differ ({} vs {} terms)", a.num_terms(), b.num_terms()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cafqa_pauli::PauliOp;

    /// Each check passes on a good input and fires on a corrupted one.
    #[test]
    fn each_check_fires_on_corrupted_input() {
        let e: f64 = -74.123_456_789_012_3;
        let flipped = f64::from_bits(e.to_bits() ^ 1);
        assert!(bit_identical("e", e, e).is_ok());
        assert!(bit_identical("e", e, flipped).is_err());

        let trace = vec![(e, e + 0.5), (e - 0.1, e - 0.1)];
        let mut corrupted = trace.clone();
        corrupted[1].1 = f64::from_bits(corrupted[1].1.to_bits() ^ 1);
        assert!(traces_identical("t", &trace, &trace).is_ok());
        assert!(traces_identical("t", &trace, &corrupted).is_err());
        assert!(traces_identical("t", &trace, &trace[..1]).is_err());

        let digest = trace_digest(&trace);
        assert!(same_digest("d", digest, trace_digest(&trace)).is_ok());
        assert!(same_digest("d", digest, trace_digest(&corrupted)).is_err());
        assert!(same_digest("d", digest, trace_digest(&trace[..1])).is_err());

        assert!(not_above_hf(-1.0, -1.0).is_ok());
        assert!(not_above_hf(-1.0 + 1e-6, -1.0).is_err());
        assert!(not_below_exact(-1.0, -1.0).is_ok());
        assert!(not_below_exact(-1.0 - 1e-6, -1.0).is_err());

        assert!(hf_reproduces_scf(-1.0, -1.0 + 1e-9).is_ok());
        assert!(hf_reproduces_scf(-1.0, -1.0 + 1e-4).is_err());

        assert!(cache_hit_identical(true, e, e).is_ok());
        assert!(cache_hit_identical(false, e, e).is_err());
        assert!(cache_hit_identical(true, e, flipped).is_err());

        assert!(kt_contract(0, -1.0, -1.0, 0.0).is_ok());
        assert!(kt_contract(0, -1.0 + 5e-4, -1.0, 1e-3).is_ok());
        assert!(kt_contract(1, -1.0, -1.0, 0.0).is_err());
        assert!(kt_contract(0, -1.0 + 2e-3, -1.0, 1e-3).is_err());

        assert!(maxcut_exact(-7.0, 7.0).is_ok());
        assert!(maxcut_exact(-6.0, 7.0).is_err());

        let h: PauliOp = "0.5*ZZ + 0.25*XI".parse().unwrap();
        let g: PauliOp = "0.5*ZZ + 0.25000001*XI".parse().unwrap();
        assert!(same_hamiltonian(&h, &h.clone()).is_ok());
        assert!(same_hamiltonian(&h, &g).is_err());
    }

    #[test]
    fn collector_counts_passes_and_keeps_failures() {
        let mut checks = Checks::default();
        checks.record("a", Ok(()));
        checks.record("a", Ok(()));
        assert!(checks.all_passed());
        checks.record("b", Err("broken".into()));
        assert!(!checks.all_passed());
        assert_eq!(checks.passed()["a"], 2);
        assert_eq!(checks.failures(), ["b: broken"]);
    }
}
