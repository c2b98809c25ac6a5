//! Cache-key soundness of the job fingerprint the server caches under.
//!
//! - Changing any one result-relevant input of a random small
//!   [`JobSpec`] changes the key: one coefficient bit, one term mask, a
//!   penalty weight or target, the ansatz reps, a seed configuration, and
//!   each determinism-relevant [`CafqaOptions`] field.
//! - The fields the runner never reads (`number_penalty`, `sz_penalty`,
//!   `s2_penalty`, `seed_hf`) and the order in which terms were inserted
//!   leave the key alone, and two specs with equal keys give
//!   bit-identical results.

use cafqa_circuit::{Ansatz, EfficientSu2, Entanglement};
use cafqa_core::{
    job_fingerprint, run_cafqa_on, CafqaOptions, CafqaResult, ExecEngine, IsingFastPath, Penalty,
};
use cafqa_linalg::Complex64;
use cafqa_pauli::{PauliOp, PauliString};
use cafqa_serve::{JobSpec, PenaltySpec};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The exact cache key of a spec, computed as the server does.
fn key(spec: &JobSpec) -> u64 {
    job_fingerprint(&spec.ansatz, &spec.hamiltonian, &penalties(spec), &spec.seeds, &spec.opts)
}

fn penalties(spec: &JobSpec) -> Vec<Penalty> {
    spec.penalties
        .iter()
        .map(|p| Penalty::new(p.label.clone(), &p.op, p.target, p.weight))
        .collect()
}

fn random_string(rng: &mut StdRng, n: usize) -> PauliString {
    let mask = (1u64 << n) - 1;
    PauliString::from_masks(n, rng.gen::<u64>() & mask, rng.gen::<u64>() & mask)
}

/// A random operator with up to `terms` distinct strings, inserted in
/// the order drawn.
fn random_op(rng: &mut StdRng, n: usize, terms: usize) -> PauliOp {
    let mut op = PauliOp::zero(n);
    for _ in 0..terms {
        let string = random_string(rng, n);
        if op.coefficient(&string) == Complex64::ZERO {
            op.add_term(Complex64::from(rng.gen_range(-1.0..1.0)), string);
        }
    }
    op
}

/// The same terms inserted in reverse order.
fn reinserted(op: &PauliOp) -> PauliOp {
    let terms: Vec<(PauliString, Complex64)> = op.iter().map(|(s, c)| (*s, *c)).collect();
    let mut out = PauliOp::zero(op.num_qubits());
    for (s, c) in terms.into_iter().rev() {
        out.add_term(c, s);
    }
    out
}

/// A random small job: 2–4 qubits, 1–2 reps, any topology, 1–8
/// Hamiltonian terms, up to 2 penalties, up to 2 seeds and a small
/// budget with randomized knobs. Also returns the ansatz topology.
fn random_spec(seed: u64) -> (JobSpec, Entanglement) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(2..=4usize);
    let entanglement = [Entanglement::Linear, Entanglement::Circular, Entanglement::Full]
        [rng.gen_range(0..3usize)];
    let ansatz = EfficientSu2::new(n, rng.gen_range(1..=2usize)).with_entanglement(entanglement);
    let terms = rng.gen_range(1..=8usize);
    let hamiltonian = random_op(&mut rng, n, terms);
    let penalties = (0..rng.gen_range(0..=2usize))
        .map(|i| {
            let op = random_op(&mut rng, n, 3);
            PenaltySpec::new(format!("p{i}"), op, rng.gen_range(-2.0..2.0), rng.gen_range(0.1..2.0))
        })
        .collect();
    let seeds = (0..rng.gen_range(0..=2usize))
        .map(|_| (0..ansatz.num_parameters()).map(|_| rng.gen_range(0..4usize)).collect())
        .collect();
    let opts = CafqaOptions {
        warmup: rng.gen_range(4..40usize),
        iterations: rng.gen_range(4..60usize),
        seed: rng.gen(),
        patience: rng.gen_range(0..10usize),
        polish_sweeps: rng.gen_range(0..4usize),
        proposals_per_refit: rng.gen_range(1..6usize),
        forest_window: rng.gen_range(0..50usize),
        polish_screen_top: rng.gen_range(0..8usize),
        screen_tolerance: rng.gen_range(0.0..0.5),
        kt_rank_top: rng.gen_range(0..8usize),
        ising_fast_path: [IsingFastPath::Auto, IsingFastPath::Off][rng.gen_range(0..2usize)],
        ..Default::default()
    };
    (JobSpec { ansatz, hamiltonian, penalties, seeds, opts }, entanglement)
}

/// The smallest change of an `f64`: its next representable neighbour.
fn next_up(x: f64) -> f64 {
    if x == 0.0 {
        f64::from_bits(1)
    } else if x > 0.0 {
        f64::from_bits(x.to_bits() + 1)
    } else {
        f64::from_bits(x.to_bits() - 1)
    }
}

/// One-input perturbations of `spec` (whose ansatz has the topology
/// `entanglement`), each labelled.
fn perturbations(
    spec: &JobSpec,
    entanglement: Entanglement,
    rng: &mut StdRng,
) -> Vec<(String, JobSpec)> {
    let mut out: Vec<(String, JobSpec)> = Vec::new();
    let mut push = |what: &str, edit: &dyn Fn(&mut JobSpec)| {
        let mut changed = spec.clone();
        edit(&mut changed);
        out.push((what.to_string(), changed));
    };
    let n = spec.ansatz.num_qubits();
    let terms: Vec<(PauliString, Complex64)> =
        spec.hamiltonian.iter().map(|(s, c)| (*s, *c)).collect();
    // One coefficient bit: the lowest mantissa bit of one term.
    let (string, c) = terms[rng.gen_range(0..terms.len())];
    push("coefficient bit", &|s| {
        let mut h = PauliOp::zero(n);
        for (t, d) in s.hamiltonian.iter() {
            let re = if *t == string { f64::from_bits(c.re.to_bits() ^ 1) } else { d.re };
            h.add_term(Complex64 { re, im: d.im }, *t);
        }
        s.hamiltonian = h;
    });
    // One term mask: move a term to a string the operator lacks.
    let fresh = loop {
        let candidate = random_string(rng, n);
        if spec.hamiltonian.coefficient(&candidate) == Complex64::ZERO {
            break candidate;
        }
    };
    push("term mask", &|s| {
        let mut h = PauliOp::zero(n);
        for (t, d) in s.hamiltonian.iter() {
            h.add_term(*d, if *t == string { fresh } else { *t });
        }
        s.hamiltonian = h;
    });
    if !spec.penalties.is_empty() {
        push("penalty weight", &|s| s.penalties[0].weight = next_up(s.penalties[0].weight));
        // A one-ulp target change can round away inside `(O − t)²`,
        // leaving the hashed operator, and so every result, unchanged.
        push("penalty target", &|s| s.penalties[0].target += 0.25);
    }
    push("ansatz reps", &|s| {
        s.ansatz = EfficientSu2::new(n, s.ansatz.reps() + 1).with_entanglement(entanglement);
    });
    if spec.seeds.is_empty() {
        push("seed config", &|s| s.seeds.push(vec![0; s.ansatz.num_parameters()]));
    } else {
        let at = rng.gen_range(0..spec.seeds[0].len());
        push("seed config", &|s| s.seeds[0][at] = (s.seeds[0][at] + 1) % 4);
    }
    push("warmup", &|s| s.opts.warmup += 1);
    push("iterations", &|s| s.opts.iterations += 1);
    push("seed", &|s| s.opts.seed ^= 1);
    push("patience", &|s| s.opts.patience += 1);
    push("polish_sweeps", &|s| s.opts.polish_sweeps += 1);
    push("proposals_per_refit", &|s| s.opts.proposals_per_refit += 1);
    push("forest_window", &|s| s.opts.forest_window += 1);
    push("polish_screen_top", &|s| s.opts.polish_screen_top += 1);
    push("screen_tolerance", &|s| s.opts.screen_tolerance = next_up(s.opts.screen_tolerance));
    push("kt_rank_top", &|s| s.opts.kt_rank_top += 1);
    push("ising_fast_path", &|s| {
        s.opts.ising_fast_path = match s.opts.ising_fast_path {
            IsingFastPath::Auto => IsingFastPath::Off,
            _ => IsingFastPath::Auto,
        }
    });
    out
}

/// A copy of `spec` that differs only in what the key ignores: the
/// Hamiltonian and penalty operators rebuilt in reverse insertion order,
/// and different constructor-only options.
fn key_equal_twin(spec: &JobSpec) -> JobSpec {
    let mut twin = spec.clone();
    twin.hamiltonian = reinserted(&spec.hamiltonian);
    for p in &mut twin.penalties {
        p.op = reinserted(&p.op);
    }
    twin.opts.number_penalty += 1.5;
    twin.opts.sz_penalty += 0.25;
    twin.opts.s2_penalty += 0.5;
    twin.opts.seed_hf = !twin.opts.seed_hf;
    twin
}

fn run(engine: &ExecEngine, spec: &JobSpec) -> CafqaResult {
    run_cafqa_on(engine, &spec.ansatz, &spec.hamiltonian, penalties(spec), &spec.seeds, &spec.opts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_result_relevant_input_changes_the_key(seed in 0u64..u64::MAX) {
        let (spec, entanglement) = random_spec(seed);
        let base = key(&spec);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        for (what, changed) in perturbations(&spec, entanglement, &mut rng) {
            prop_assert!(key(&changed) != base, "{what} did not change the key of {spec:?}");
        }
        prop_assert_eq!(key(&key_equal_twin(&spec)), base);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Equal keys ⇒ bit-identical results, on a 4-qubit problem.
    #[test]
    fn equal_keys_give_bit_identical_results(seed in 0u64..u64::MAX) {
        let (mut spec, _) = random_spec(seed);
        spec.ansatz = EfficientSu2::new(4, 1);
        let mut rng = StdRng::seed_from_u64(seed);
        spec.hamiltonian = random_op(&mut rng, 4, 8);
        spec.penalties = vec![PenaltySpec::new("p", random_op(&mut rng, 4, 3), 0.5, 0.75)];
        spec.seeds = vec![(0..spec.ansatz.num_parameters()).map(|k| k % 4).collect()];
        let twin = key_equal_twin(&spec);
        prop_assert_eq!(key(&twin), key(&spec));
        let engine = ExecEngine::new(2);
        let (a, b) = (run(&engine, &spec), run(&engine, &twin));
        prop_assert_eq!(a.energy.to_bits(), b.energy.to_bits());
        prop_assert_eq!(a.penalized.to_bits(), b.penalized.to_bits());
        prop_assert_eq!(&a.best_config, &b.best_config);
        prop_assert_eq!(a.trace.len(), b.trace.len());
        for (x, y) in a.trace.iter().zip(&b.trace) {
            prop_assert_eq!(x.energy.to_bits(), y.energy.to_bits());
            prop_assert_eq!(x.penalized.to_bits(), y.penalized.to_bits());
            prop_assert_eq!(x.best_so_far.to_bits(), y.best_so_far.to_bits());
        }
    }
}
