//! Service-level determinism and panic-free-serving suite.
//!
//! The contracts under test:
//! - an exact resubmission is a cache hit, bit-identical to the fresh
//!   run that populated the cache;
//! - a served (sliced, possibly warm-started) job is bit-identical to a
//!   solo [`run_cafqa_on`] with the same effective inputs, at engine
//!   worker counts 1, 2 and 8;
//! - concurrent submissions do not perturb each other's results;
//! - malformed and oversized submissions reject with structured errors,
//!   never a panic; cancellation and backpressure behave as documented.

use cafqa_circuit::{EfficientSu2, Entanglement};
use cafqa_core::{run_cafqa_on, CafqaOptions, CafqaResult, ExecEngine};
use cafqa_linalg::Complex64;
use cafqa_pauli::{PauliOp, PauliString};
use cafqa_serve::{CafqaServer, Disposition, JobSpec, JobStatus, ServeError, ServeOptions};

fn op(n: usize, terms: &[(f64, &str)]) -> PauliOp {
    let mut h = PauliOp::zero(n);
    for &(w, s) in terms {
        h.add_term(Complex64::from(w), s.parse::<PauliString>().unwrap());
    }
    h
}

/// A 3-qubit mixed-column Hamiltonian (never routes to the Ising fast
/// path) with a tunable "bond" knob that scales two coefficients, so
/// nearby knobs are same-family near hits.
fn hamiltonian(bond: f64) -> PauliOp {
    op(
        3,
        &[
            (0.5, "XXI"),
            (0.25 * bond, "ZZI"),
            (-0.1, "YIZ"),
            (0.7 * bond, "IZZ"),
            (0.3, "XIX"),
            (-0.2, "IYY"),
        ],
    )
}

fn opts() -> CafqaOptions {
    CafqaOptions { warmup: 24, iterations: 48, polish_sweeps: 2, ..Default::default() }
}

fn spec(bond: f64) -> JobSpec {
    JobSpec::new(EfficientSu2::new(3, 1), hamiltonian(bond), opts())
}

/// Full bitwise comparison of two results (mirrors the core suite).
fn assert_results_bitwise(a: &CafqaResult, b: &CafqaResult, what: &str) {
    assert_eq!(a.best_config, b.best_config, "{what}: best_config");
    assert_eq!(a.energy.to_bits(), b.energy.to_bits(), "{what}: energy");
    assert_eq!(a.penalized.to_bits(), b.penalized.to_bits(), "{what}: penalized");
    assert_eq!(a.evaluations, b.evaluations, "{what}: evaluations");
    assert_eq!(a.polish_evaluations, b.polish_evaluations, "{what}: polish_evaluations");
    assert_eq!(a.iterations_to_best, b.iterations_to_best, "{what}: iterations_to_best");
    assert_eq!(a.trace.len(), b.trace.len(), "{what}: trace length");
    for (i, (x, y)) in a.trace.iter().zip(&b.trace).enumerate() {
        assert_eq!(x.energy.to_bits(), y.energy.to_bits(), "{what}: trace[{i}].energy");
        assert_eq!(x.penalized.to_bits(), y.penalized.to_bits(), "{what}: trace[{i}].penalized");
        assert_eq!(
            x.best_so_far.to_bits(),
            y.best_so_far.to_bits(),
            "{what}: trace[{i}].best_so_far"
        );
    }
}

/// Solo reference: the same effective inputs through the plain runner.
fn solo(engine: &ExecEngine, spec: &JobSpec, seeds: &[Vec<usize>]) -> CafqaResult {
    run_cafqa_on(engine, &spec.ansatz, &spec.hamiltonian, Vec::new(), seeds, &spec.opts)
}

#[test]
fn resubmission_is_a_bit_identical_cache_hit() {
    let engine = ExecEngine::new(2);
    let mut server = CafqaServer::start(engine.clone(), ServeOptions::default());
    let first = server.wait(server.submit(spec(1.0)).unwrap()).unwrap();
    assert_eq!(first.disposition, Disposition::Fresh);
    // The fresh serve equals the solo runner on the same inputs.
    let reference = solo(&engine, &spec(1.0), &first.seeds_used);
    assert_results_bitwise(&first.result, &reference, "fresh serve vs solo");
    // Exact resubmission: cache hit, no recompute, identical bits.
    let again = server.wait(server.submit(spec(1.0)).unwrap()).unwrap();
    assert_eq!(again.disposition, Disposition::CacheHit);
    assert_eq!(again.seeds_used, first.seeds_used);
    assert_results_bitwise(&again.result, &first.result, "cache hit vs fresh");
    let stats = server.stats();
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.cache_hits, 1);
    server.shutdown();
}

#[test]
fn sliced_serving_matches_solo_at_every_worker_count() {
    // The serial engine is the bit-identity reference for all pools.
    let reference = solo(&ExecEngine::serial(), &spec(1.0), &[]);
    // 24 warm-up + 48 iterations at B = 4: one warm-up step, 12 BO
    // steps, one polish step.
    let steps: usize = 1 + 12 + 1;
    for workers in [1usize, 2, 8] {
        // One step per slice maximizes suspension churn; 4 is the default.
        for slice_batches in [1usize, 4] {
            let engine = ExecEngine::new(workers);
            let serve_opts =
                ServeOptions { slice_batches, warm_start: false, ..Default::default() };
            let mut server = CafqaServer::start(engine, serve_opts);
            let outcome = server.wait(server.submit(spec(1.0)).unwrap()).unwrap();
            assert_eq!(outcome.disposition, Disposition::Fresh);
            assert_eq!(server.stats().slices, steps.div_ceil(slice_batches) as u64);
            assert_results_bitwise(
                &outcome.result,
                &reference,
                &format!("{slice_batches} steps/slice @ {workers} workers vs solo serial"),
            );
            server.shutdown();
        }
    }
}

#[test]
fn concurrent_jobs_are_bit_identical_to_solo_runs() {
    let bonds = [0.8, 1.0, 1.3];
    let serial = ExecEngine::serial();
    let references: Vec<CafqaResult> =
        bonds.iter().map(|&b| solo(&serial, &spec(b), &[])).collect();
    for (workers, slice_batches) in [(1usize, 1usize), (2, 2), (8, 1)] {
        let engine = ExecEngine::new(workers);
        // warm_start off: cross-job seeding would change effective
        // inputs (still deterministic, but not equal to the solo refs).
        let serve_opts = ServeOptions { slice_batches, warm_start: false, ..Default::default() };
        let mut server = CafqaServer::start(engine, serve_opts);
        let ids: Vec<_> = bonds.iter().map(|&b| server.submit(spec(b)).unwrap()).collect();
        for ((id, reference), bond) in ids.into_iter().zip(&references).zip(bonds) {
            let outcome = server.wait(id).unwrap();
            assert_results_bitwise(
                &outcome.result,
                reference,
                &format!(
                    "bond {bond} @ {workers} workers, {slice_batches} steps/slice, 3 concurrent jobs"
                ),
            );
        }
        server.shutdown();
    }
}

#[test]
fn entanglement_topology_is_part_of_the_cache_key() {
    // Same register width and parameter count, different CX ladders:
    // a Full-entangled job submitted after a Linear one must compute
    // fresh, not come back as the Linear job's cached result.
    let engine = ExecEngine::new(2);
    let mut server = CafqaServer::start(engine.clone(), ServeOptions::default());
    let linear = spec(1.0);
    let mut full = spec(1.0);
    full.ansatz = EfficientSu2::new(3, 1).with_entanglement(Entanglement::Full);
    let first = server.wait(server.submit(linear).unwrap()).unwrap();
    assert_eq!(first.disposition, Disposition::Fresh);
    let second = server.wait(server.submit(full.clone()).unwrap()).unwrap();
    assert_ne!(second.disposition, Disposition::CacheHit, "topology change must miss the cache");
    assert_eq!(second.seeds_used, Vec::<Vec<usize>>::new(), "and must not warm-start");
    let reference = solo(&engine, &full, &second.seeds_used);
    assert_results_bitwise(&second.result, &reference, "Full-entangled serve vs solo");
    server.shutdown();
}

#[test]
fn warm_start_seeds_from_family_and_matches_solo_with_effective_seeds() {
    let engine = ExecEngine::new(2);
    let mut server = CafqaServer::start(engine.clone(), ServeOptions::default());
    let donor = server.wait(server.submit(spec(1.0)).unwrap()).unwrap();
    assert_eq!(donor.disposition, Disposition::Fresh);
    // A neighbouring bond is a near hit: same masks, close coefficients.
    let near = server.wait(server.submit(spec(1.05)).unwrap()).unwrap();
    let Disposition::WarmStarted { distance } = near.disposition else {
        panic!("neighbouring bond should warm-start, got {:?}", near.disposition);
    };
    assert!(distance > 0.0 && distance < 0.1, "small coefficient distance, got {distance}");
    assert_eq!(
        near.seeds_used,
        vec![donor.result.best_config.clone()],
        "the donor incumbent is the injected seed"
    );
    // Warm-started serve ≡ solo runner with the effective seed list.
    let reference = solo(&engine, &spec(1.05), &near.seeds_used);
    assert_results_bitwise(&near.result, &reference, "warm start vs solo with donor seed");
    // Warm start never loses to its seed.
    let seed_energy = donor.result.energy;
    assert!(
        near.result.energy <= seed_energy + 1e-12,
        "warm-started energy {} worse than donor incumbent energy {}",
        near.result.energy,
        seed_energy
    );
    // Resubmitting the warm-started job hits the cache (dual-key
    // records: findable under the as-submitted fingerprint even though
    // it ran with an injected seed).
    let again = server.wait(server.submit(spec(1.05)).unwrap()).unwrap();
    assert_eq!(again.disposition, Disposition::CacheHit);
    assert_results_bitwise(&again.result, &near.result, "warm-start resubmission");
    assert_eq!(server.stats().warm_starts, 1);
    server.shutdown();
}

#[test]
fn fair_share_lets_a_short_job_finish_behind_a_long_one() {
    let engine = ExecEngine::new(2);
    let serve_opts = ServeOptions { slice_batches: 1, warm_start: false, ..Default::default() };
    let mut server = CafqaServer::start(engine, serve_opts);
    let mut long = spec(1.0);
    long.opts.warmup = 60;
    long.opts.iterations = 400;
    long.opts.patience = usize::MAX;
    let long_id = server.submit(long).unwrap();
    let mut short = spec(1.1);
    short.opts.warmup = 8;
    short.opts.iterations = 8;
    let short_id = server.submit(short).unwrap();
    // Round-robin slices must complete the short job while the long one
    // is still in flight.
    server.wait(short_id).unwrap();
    let long_status = server.status(long_id).unwrap();
    assert!(
        !long_status.is_terminal(),
        "long job should still be in flight when the short one finishes, got {long_status:?}"
    );
    assert!(server.cancel(long_id).unwrap());
    assert!(matches!(server.wait(long_id), Err(ServeError::Cancelled(id)) if id == long_id));
    assert_eq!(server.stats().cancelled, 1);
    server.shutdown();
}

#[test]
fn queued_jobs_cancel_before_running() {
    let engine = ExecEngine::serial();
    let serve_opts = ServeOptions { slice_batches: 1, warm_start: false, ..Default::default() };
    let mut server = CafqaServer::start(engine, serve_opts);
    let mut long = spec(1.0);
    long.opts.iterations = 400;
    long.opts.patience = usize::MAX;
    let long_id = server.submit(long).unwrap();
    let queued_id = server.submit(spec(1.2)).unwrap();
    assert!(server.cancel(queued_id).unwrap());
    assert!(matches!(server.wait(queued_id), Err(ServeError::Cancelled(_))));
    server.cancel(long_id).unwrap();
    let _ = server.wait(long_id);
    // Cancelling a terminal job is a no-op, not an error.
    assert!(!server.cancel(queued_id).unwrap());
    server.shutdown();
}

#[test]
fn backpressure_and_structured_rejections_never_panic() {
    let engine = ExecEngine::serial();
    let serve_opts = ServeOptions { capacity: 2, warm_start: false, ..Default::default() };
    let mut server = CafqaServer::start(engine, serve_opts);
    // Malformed specs reject at the door.
    let wrong_register = JobSpec::new(EfficientSu2::new(3, 1), op(2, &[(1.0, "ZZ")]), opts());
    assert!(matches!(
        server.submit(wrong_register),
        Err(ServeError::QubitMismatch { what: "hamiltonian", ansatz: 3, found: 2 })
    ));
    let mut bad_seed = spec(1.0);
    bad_seed.seeds.push(vec![7; 12]);
    assert!(matches!(server.submit(bad_seed), Err(ServeError::BadSeed { index: 0, .. })));
    // Fill the queue with slow jobs, then hit the capacity wall.
    let mut slow = spec(1.0);
    slow.opts.iterations = 400;
    slow.opts.patience = usize::MAX;
    let a = server.submit(slow.clone()).unwrap();
    let mut slow2 = slow.clone();
    slow2.opts.seed = 7;
    let b = server.submit(slow2).unwrap();
    let overflow = server.submit(spec(1.3));
    assert_eq!(overflow.unwrap_err(), ServeError::QueueFull { capacity: 2 });
    // Unknown ids are structured errors everywhere.
    let bogus = cafqa_serve::JobId(9999);
    assert!(matches!(server.status(bogus), Err(ServeError::UnknownJob(_))));
    assert!(matches!(server.wait(bogus), Err(ServeError::UnknownJob(_))));
    assert!(matches!(server.cancel(bogus), Err(ServeError::UnknownJob(_))));
    server.cancel(a).unwrap();
    server.cancel(b).unwrap();
    let _ = server.wait(a);
    let _ = server.wait(b);
    // Draining frees capacity again.
    let ok = server.submit(spec(1.3)).unwrap();
    server.wait(ok).unwrap();
    // After shutdown, submissions reject with ShuttingDown.
    server.shutdown();
    assert!(matches!(server.submit(spec(1.4)), Err(ServeError::ShuttingDown)));
    let stats = server.stats();
    assert_eq!(stats.rejected, 4, "two malformed + one overflow + one post-shutdown");
}

#[test]
fn cached_hits_count_against_capacity_never() {
    // A full queue still answers exact hits from the cache.
    let engine = ExecEngine::serial();
    let serve_opts = ServeOptions { capacity: 1, warm_start: false, ..Default::default() };
    let mut server = CafqaServer::start(engine, serve_opts);
    let done = server.wait(server.submit(spec(1.0)).unwrap()).unwrap();
    let mut slow = spec(1.1);
    slow.opts.iterations = 400;
    slow.opts.patience = usize::MAX;
    let blocker = server.submit(slow).unwrap();
    assert!(matches!(server.submit(spec(1.2)), Err(ServeError::QueueFull { .. })));
    let hit = server.wait(server.submit(spec(1.0)).unwrap()).unwrap();
    assert_eq!(hit.disposition, Disposition::CacheHit);
    assert_results_bitwise(&hit.result, &done.result, "cache hit under full queue");
    server.cancel(blocker).unwrap();
    let _ = server.wait(blocker);
    server.shutdown();
}

#[test]
fn ising_routed_jobs_serve_without_slicing() {
    // An Ising-class instance takes the fast path inside the runner; the
    // server completes it in one slice with all contracts intact.
    let ham = op(3, &[(-1.0, "ZZI"), (-1.0, "IZZ"), (0.5, "ZII")]);
    let ansatz = EfficientSu2::new(3, 1);
    let serial = ExecEngine::serial();
    let reference = run_cafqa_on(&serial, &ansatz, &ham, Vec::new(), &[], &CafqaOptions::quick());
    let serve_opts = ServeOptions { slice_batches: 1, warm_start: false, ..Default::default() };
    let mut server = CafqaServer::start(ExecEngine::new(2), serve_opts);
    let outcome = server
        .wait(server.submit(JobSpec::new(ansatz, ham, CafqaOptions::quick())).unwrap())
        .unwrap();
    assert_results_bitwise(&outcome.result, &reference, "ising-routed serve");
    assert_eq!(server.status(outcome.id).unwrap(), JobStatus::Completed);
    server.shutdown();
}
