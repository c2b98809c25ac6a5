//! The prefix cursor behind both polish sessions, driven through their
//! public APIs with random streams that mix forward sweeps, deep
//! backward seeks, stale bases (an accepted change below the current
//! prefix) and BO-style full-batch evaluations between polish calls.
//!
//! Every value is asserted bit for bit against a full re-preparation:
//! `Tableau::run_compiled` plus the same bit-sliced term sum for the
//! Clifford [`cafqa_core::PolishSession`], and a `KtPolishSession` that
//! only ever evaluates whole configurations from `|0…0⟩` for the
//! Clifford+T one (whose prefix may hold open branch frames, so these
//! streams also rewind across the T frontier). The seek counters must
//! stay consistent: restores never exceed backward seeks, and a strictly
//! ascending sweep on an unchanged base never seeks backward.

use cafqa_circuit::{Ansatz, CompiledAnsatz, EfficientSu2};
use cafqa_clifford::{SlicedTerms, Tableau};
use cafqa_core::{kt_session, CliffordObjective, ExecEngine, KtPolishSession, Penalty, PolishMove};
use cafqa_linalg::Complex64;
use cafqa_pauli::{PauliOp, PauliString};
use proptest::prelude::*;

/// Non-Clifford (odd eighth-turn) entries a kT configuration may hold.
const T_BUDGET: usize = 3;

/// Deterministic xorshift stream for Hamiltonians and configurations.
struct Stream(u64);

impl Stream {
    fn new(seed: u64) -> Self {
        Stream(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A random Hamiltonian with up to `terms` distinct Pauli terms.
fn hamiltonian(nq: usize, terms: usize, rng: &mut Stream) -> PauliOp {
    let mask = (1u64 << nq) - 1;
    PauliOp::from_terms(
        nq,
        (0..terms).map(|k| {
            let coeff =
                0.05 * ((k % 7) as f64 + 1.0) * if rng.next() & 1 == 0 { 1.0 } else { -1.0 };
            let (x, z) = (rng.next() & mask, rng.next() & mask);
            (Complex64::from(coeff), PauliString::from_masks(nq, x, z))
        }),
    )
}

/// A number-like penalty on qubit 0, so penalized values differ from
/// energies.
fn penalty(nq: usize) -> Penalty {
    let z0 = PauliString::from_masks(nq, 0, 1);
    let op = PauliOp::from_terms(nq, [(Complex64::from(1.0), z0)]);
    Penalty::new("z0", &op, 0.5, 0.25)
}

/// Parameters in ascending first-op order (the forward-sweep order).
fn ascending(template: &CompiledAnsatz) -> Vec<usize> {
    let mut params: Vec<usize> = (0..template.num_parameters()).collect();
    params.sort_by_key(|&p| template.first_op_of(p));
    params
}

fn odd_count(config: &[usize]) -> usize {
    config.iter().filter(|&&v| v % 2 == 1).count()
}

/// Sets `config[p] = v`, demoting `v` to its Clifford neighbour when the
/// change would exceed the T budget.
fn set_within_budget(config: &mut [usize], p: usize, v: usize) {
    config[p] = v & !1;
    if v % 2 == 1 && odd_count(config) < T_BUDGET {
        config[p] = v;
    }
}

/// Checks every Clifford session value against full re-preparation.
struct CliffordOracle<'a> {
    template: CompiledAnsatz,
    terms: SlicedTerms,
    objective: &'a CliffordObjective<'a>,
    tableau: Tableau,
}

impl CliffordOracle<'_> {
    fn check(&mut self, config: &[usize], value: cafqa_core::ObjectiveValue) -> Result<(), String> {
        self.tableau.run_compiled(&self.template, config);
        let energy = self.tableau.expectation_sum(&self.terms, 0..self.terms.len());
        let full = self.objective.evaluate(config);
        if value.energy.to_bits() != energy.to_bits()
            || value.penalized.to_bits() != full.penalized.to_bits()
        {
            return Err(format!(
                "{config:?}: cursor {value:?}, full re-preparation {energy}/{full:?}"
            ));
        }
        Ok(())
    }
}

/// Checks kT session values and ranks against a session that only
/// evaluates from `|0…0⟩`.
fn check_kt(
    reference: &mut KtPolishSession,
    variants: &[Vec<usize>],
    values: &[cafqa_core::ObjectiveValue],
) -> Result<(), String> {
    for (config, value) in variants.iter().zip(values) {
        let full = reference.evaluate_batch(std::slice::from_ref(config))[0];
        if value.energy.to_bits() != full.energy.to_bits()
            || value.penalized.to_bits() != full.penalized.to_bits()
        {
            return Err(format!("{config:?}: cursor {value:?}, full replay {full:?}"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Clifford polish: `evaluate_moves`/`accept` streams with forward
    /// sweeps, deep backward seeks, stale bases and interleaved
    /// `evaluate_batch` calls.
    #[test]
    fn clifford_session_matches_full_repreparation(
        nq in 2usize..6,
        reps in 1usize..4,
        seed in 0u64..1_000_000,
        stream in proptest::collection::vec((0usize..6, 0usize..1 << 16, 0usize..1 << 16), 4..28),
    ) {
        let mut rng = Stream::new(seed);
        let ansatz = EfficientSu2::new(nq, reps);
        let h = hamiltonian(nq, 3 + rng.below(10), &mut rng);
        let objective = CliffordObjective::new(&ansatz, &h).with_penalty(penalty(nq));
        let template = CompiledAnsatz::compile(&ansatz).expect("EfficientSu2 compiles");
        let order = ascending(&template);
        let d = template.num_parameters();
        let mut oracle = CliffordOracle {
            terms: SlicedTerms::from_op(&h),
            tableau: Tableau::zero_state(nq),
            template,
            objective: &objective,
        };
        let mut base: Vec<usize> = (0..d).map(|_| rng.below(4)).collect();
        let mut session = objective.polish_session(base.clone()).expect("compiled");
        let mut batches: Vec<Vec<PolishMove>> = Vec::new();
        for &(kind, x, y) in &stream {
            batches.clear();
            match kind {
                // Coordinate moves at one slot.
                0 => batches.push((0..4).map(|a| vec![(x % d, a)]).collect()),
                // Pair moves.
                1 if x % d != y % d => batches.push(
                    (0..16).map(|code| vec![(x % d, code / 4), (y % d, code % 4)]).collect(),
                ),
                // A forward sweep from a random point.
                2 => {
                    for &p in order.iter().skip(x % d).step_by(1 + y % 3) {
                        batches.push((0..4).map(|a| vec![(p, a)]).collect());
                    }
                }
                // A deep backward seek: a slot of the first layer.
                3 => batches.push((0..4).map(|a| vec![(order[x % nq.min(d)], a)]).collect()),
                // Accept a change anywhere — often below the prefix.
                4 => {
                    let mv = [(x % d, y % 4)];
                    session.accept(&mv);
                    base[x % d] = y % 4;
                    prop_assert_eq!(session.base(), &base[..]);
                }
                // BO-style full-batch evaluation between polish calls.
                _ => {
                    let configs: Vec<Vec<usize>> =
                        (0..3).map(|_| (0..d).map(|_| rng.below(4)).collect()).collect();
                    for (config, value) in configs.iter().zip(objective.evaluate_batch(&configs)) {
                        oracle.check(config, value)?;
                    }
                }
            }
            for moves in &batches {
                let values = session.evaluate_moves(moves);
                prop_assert_eq!(values.len(), moves.len());
                for (mv, &value) in moves.iter().zip(&values) {
                    let mut config = base.clone();
                    for &(slot, v) in mv {
                        config[slot] = v;
                    }
                    oracle.check(&config, value)?;
                }
            }
            let (seeks, restores) = session.seek_stats();
            prop_assert!(restores <= seeks, "{restores} restores > {seeks} backward seeks");
        }
        // A strictly ascending sweep on an unchanged base never seeks back.
        let mut fresh = objective.polish_session(base.clone()).expect("compiled");
        for &p in &order {
            let moves: Vec<PolishMove> = (0..4).map(|a| vec![(p, a)]).collect();
            for (mv, value) in moves.iter().zip(fresh.evaluate_moves(&moves)) {
                let mut config = base.clone();
                config[mv[0].0] = mv[0].1;
                oracle.check(&config, value)?;
            }
        }
        prop_assert_eq!(fresh.seek_stats(), (0, 0));
    }

    /// Clifford+T polish: `evaluate_variants`/`rank_variants` streams
    /// over bases holding up to three T rotations, with forward sweeps,
    /// deep backward seeks across the T frontier, stale bases and
    /// interleaved `evaluate_batch` resets.
    #[test]
    fn kt_session_matches_full_replay(
        nq in 2usize..5,
        reps in 1usize..3,
        seed in 0u64..1_000_000,
        workers in 1usize..3,
        stream in proptest::collection::vec((0usize..7, 0usize..1 << 16, 0usize..1 << 16), 4..20),
    ) {
        let mut rng = Stream::new(seed);
        let ansatz = EfficientSu2::new(nq, reps);
        let h = hamiltonian(nq, 3 + rng.below(8), &mut rng);
        let penalties = [penalty(nq)];
        let engine = ExecEngine::new(workers);
        let mut session = kt_session(&engine, &ansatz, &h, &penalties, 0.0).expect("compiles");
        let serial = ExecEngine::serial();
        let mut reference = kt_session(&serial, &ansatz, &h, &penalties, 0.0).expect("compiles");
        let template = CompiledAnsatz::compile_clifford_t(&ansatz).expect("compiles");
        let order = ascending(&template);
        let d = ansatz.num_parameters();
        let mut base = vec![0; d];
        for p in 0..d {
            set_within_budget(&mut base, p, rng.below(8));
        }
        let variants_at = |base: &[usize], changed: &[usize], rng: &mut Stream| {
            (0..4)
                .map(|_| {
                    let mut v = base.to_vec();
                    for &p in changed {
                        set_within_budget(&mut v, p, rng.below(8));
                    }
                    v
                })
                .collect::<Vec<_>>()
        };
        for &(kind, x, y) in &stream {
            let mut calls: Vec<Vec<usize>> = Vec::new();
            match kind {
                0 => calls.push(vec![x % d]),
                1 if x % d != y % d => calls.push(vec![x % d, y % d]),
                2 => {
                    for &p in order.iter().skip(x % d).step_by(1 + y % 3) {
                        calls.push(vec![p]);
                    }
                }
                3 => calls.push(vec![order[x % nq.min(d)]]),
                4 => set_within_budget(&mut base, x % d, y % 8),
                5 => {
                    let configs = variants_at(&base, &order, &mut rng);
                    let values = session.evaluate_batch(&configs);
                    check_kt(&mut reference, &configs, &values)?;
                }
                _ => {
                    let changed = [x % d];
                    let variants = variants_at(&base, &changed, &mut rng);
                    let ranks = session.rank_variants(&base, &changed, &variants);
                    for (config, rank) in variants.iter().zip(ranks) {
                        let full = reference.rank_variants(config, &[], std::slice::from_ref(config));
                        prop_assert_eq!(rank.to_bits(), full[0].to_bits());
                    }
                }
            }
            for changed in &calls {
                let variants = variants_at(&base, changed, &mut rng);
                let values = session.evaluate_variants(&base, changed, &variants);
                check_kt(&mut reference, &variants, &values)?;
            }
            let (seeks, restores) = session.seek_stats();
            prop_assert!(restores <= seeks, "{restores} restores > {seeks} backward seeks");
        }
        // A strictly ascending sweep on an unchanged base never seeks back.
        let mut fresh = kt_session(&serial, &ansatz, &h, &penalties, 0.0).expect("compiles");
        for &p in &order {
            let variants = variants_at(&base, &[p], &mut rng);
            let values = fresh.evaluate_variants(&base, &[p], &variants);
            check_kt(&mut reference, &variants, &values)?;
        }
        prop_assert_eq!(fresh.seek_stats(), (0, 0));
    }
}
