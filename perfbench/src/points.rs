//! The bond-point workloads: `h2o_sweep` (H2O at the paper budget, then
//! a two-stage kT refine) and `cr2_bond` (stretched 34-qubit
//! Cr2-surrogate bonds at the fig12 quick budget, chemistry included).
//! A point runs geometry → chemistry → CAFQA (→ kT) through the public
//! entry points, exactly as a user would.

use std::collections::BTreeMap;
use std::time::Instant;

use cafqa_chem::{fci_ground_state, ChemPipeline, MolecularProblem, MoleculeKind, ScfKind};
use cafqa_circuit::EfficientSu2;
use cafqa_core::{
    run_cafqa_kt_on, widen_clifford_config, CafqaKtResult, CafqaOptions, CafqaResult, ExecEngine,
    MolecularCafqa,
};

use crate::checks::{self, Checks};
use crate::layers::Layers;
use crate::report::{Metric, Report};
use crate::rng::Rng;
use crate::stats::{failed_frac, median, tail};
use crate::{setup_median, traced, RunArgs};

/// One bond-point workload's configuration.
#[derive(Debug, Clone)]
pub struct PointsConfig {
    /// The molecule.
    pub kind: MoleculeKind,
    /// Bond lengths (Å), visited in a seed-shuffled order.
    pub bonds: Vec<f64>,
    /// The Clifford search budget.
    pub opts: CafqaOptions,
    /// Whether to run the kT refine after each point.
    pub kt: Option<KtStages>,
    /// Whether an FCI reference exists (and is built in set-up).
    pub exact_reference: bool,
}

/// The two kT refine stages run after the Clifford search.
#[derive(Debug, Clone)]
pub struct KtStages {
    /// The exact stage: budget `k_max`, options.
    pub exact: (usize, CafqaOptions),
    /// The screened stage: budget `k_max`, options.
    pub screened: (usize, CafqaOptions),
}

impl PointsConfig {
    /// `h2o_sweep`: three H2O bonds at `cafqa_budget(H2O)` (400 warm-up,
    /// 600 iterations, default polish), then an exact `k_max = 2` and a
    /// screened `k_max = 4` kT stage. `smoke` shrinks every budget.
    pub fn h2o_sweep(smoke: bool) -> Self {
        let opts = if smoke {
            CafqaOptions { warmup: 20, iterations: 20, polish_sweeps: 1, ..Default::default() }
        } else {
            CafqaOptions { warmup: 400, iterations: 600, number_penalty: 1.0, ..Default::default() }
        };
        let (warmup, iterations) = if smoke { (10, 10) } else { (100, 150) };
        let kt = |screen_tolerance: f64, kt_rank_top: usize| CafqaOptions {
            warmup,
            iterations,
            polish_sweeps: 1,
            screen_tolerance,
            kt_rank_top,
            ..opts.clone()
        };
        PointsConfig {
            kind: MoleculeKind::H2O,
            bonds: if smoke { vec![2.0] } else { vec![1.0, 2.0, 3.0] },
            kt: Some(KtStages { exact: (2, kt(0.0, 0)), screened: (4, kt(1e-4, 16)) }),
            opts,
            exact_reference: true,
        }
    }

    /// `cr2_bond`: two stretched Cr2-surrogate bonds (3× and 4× the
    /// chain equilibrium) at the fig12 `--quick` budget: windowed
    /// refits and one screened, incremental polish sweep.
    pub fn cr2_bond(smoke: bool) -> Self {
        let opts = CafqaOptions {
            warmup: if smoke { 10 } else { 60 },
            iterations: if smoke { 8 } else { 60 },
            polish_sweeps: 1,
            polish_screen_top: if smoke { 2 } else { 8 },
            forest_window: 48,
            ..Default::default()
        };
        PointsConfig {
            kind: MoleculeKind::Cr2Surrogate,
            bonds: if smoke { vec![2.85] } else { vec![2.85, 3.8] },
            opts,
            kt: None,
            exact_reference: false,
        }
    }
}

/// Set-up references for one bond.
#[derive(Debug, Clone, Copy)]
struct Reference {
    /// RHF total energy.
    scf: f64,
    /// FCI energy, where the determinant space is small enough.
    exact: Option<f64>,
}

/// A point's untraced outcome.
struct Point {
    bond: f64,
    latency_s: f64,
    hf_energy: f64,
    scf_converged: bool,
    clifford: CafqaResult,
    kt: Option<(CafqaKtResult, CafqaKtResult)>,
}

impl Point {
    fn final_energy(&self) -> f64 {
        self.kt.as_ref().map_or(self.clifford.energy, |(_, screened)| screened.energy)
    }
}

fn kt_seeds(clifford_best: &[usize], exact: Option<&CafqaKtResult>) -> Vec<Vec<usize>> {
    let mut seeds = vec![widen_clifford_config(clifford_best)];
    seeds.extend(exact.map(|r| r.best_config.clone()));
    seeds
}

/// Geometry → final energy through the public entry points. The problem
/// is handed back separately so that only the current point's
/// Hamiltonian stays in memory.
fn untraced_point(cfg: &PointsConfig, bond: f64, engine: &ExecEngine) -> (Point, MolecularCafqa) {
    let start = Instant::now();
    let pipe = ChemPipeline::build(cfg.kind, bond, &ScfKind::Rhf)
        .unwrap_or_else(|e| panic!("{} at {bond} Å: {e}", cfg.kind.name()));
    let (na, nb) = pipe.default_sector();
    let problem = pipe.problem(na, nb, false).expect("catalog problem");
    let runner = MolecularCafqa::new(problem);
    let clifford = runner.run_on(engine, &cfg.opts);
    let kt = cfg.kt.as_ref().map(|stages| {
        let p = runner.problem();
        let penalties = traced::molecular_penalties(p, &cfg.opts);
        let (k, opts) = &stages.exact;
        let exact = run_cafqa_kt_on(
            engine,
            &runner.ansatz,
            &p.hamiltonian,
            penalties.clone(),
            *k,
            &kt_seeds(&clifford.best_config, None),
            opts,
        )
        .expect("exact kT stage");
        let (k, opts) = &stages.screened;
        let screened = run_cafqa_kt_on(
            engine,
            &runner.ansatz,
            &p.hamiltonian,
            penalties,
            *k,
            &kt_seeds(&clifford.best_config, Some(&exact)),
            opts,
        )
        .expect("screened kT stage");
        (exact, screened)
    });
    let latency_s = start.elapsed().as_secs_f64();
    let problem = runner.problem();
    let point = Point {
        bond,
        latency_s,
        hf_energy: problem.hf_energy,
        scf_converged: problem.scf_converged,
        clifford,
        kt,
    };
    (point, runner)
}

/// The traced rebuild of one point, checked bit for bit against its
/// untraced twin; the first traced point of a run also feeds the engine
/// probe.
fn traced_point(
    cfg: &PointsConfig,
    twin: &Point,
    twin_problem: &MolecularProblem,
    engine: &ExecEngine,
    probe: bool,
    layers: &mut Layers,
    checks: &mut Checks,
) {
    let start = Instant::now();
    let problem = traced::problem(cfg.kind, twin.bond, false, layers);
    let ansatz = EfficientSu2::new(problem.n_qubits, 1);
    let seeds = vec![ansatz.basis_state_config(problem.hf_bits)];
    let penalties = traced::molecular_penalties(&problem, &cfg.opts);
    let search = traced::search(
        engine,
        &ansatz,
        &problem.hamiltonian,
        penalties.clone(),
        &seeds,
        &cfg.opts,
        layers,
    );
    let mut kt_energies = Vec::new();
    if let Some(stages) = &cfg.kt {
        let (k, opts) = &stages.exact;
        let exact = traced::kt(
            engine,
            &ansatz,
            &problem.hamiltonian,
            penalties.clone(),
            *k,
            &kt_seeds(&search.best_config, None),
            opts,
            layers,
        );
        let (k, opts) = &stages.screened;
        let screened = traced::kt(
            engine,
            &ansatz,
            &problem.hamiltonian,
            penalties.clone(),
            *k,
            &kt_seeds(&search.best_config, Some(&exact)),
            opts,
            layers,
        );
        layers.add("kt.gain_mha", 1e3 * (search.energy - screened.energy));
        kt_energies = vec![exact.energy, screened.energy];
    }
    layers.traced_wall_s += start.elapsed().as_secs_f64();
    layers.untraced_wall_s += twin.latency_s;

    let what = format!("{} at {} Å", cfg.kind.name(), twin.bond);
    checks.record(
        "hamiltonian_equals_pipeline",
        checks::same_hamiltonian(&problem.hamiltonian, &twin_problem.hamiltonian),
    );
    traced::check_against(checks, &what, &search, &twin.clifford);
    if let Some((exact, screened)) = &twin.kt {
        checks.record(
            "traced_equals_untraced",
            checks::bit_identical(&format!("{what} exact kT"), kt_energies[0], exact.energy)
                .and_then(|()| {
                    checks::bit_identical(
                        &format!("{what} screened kT"),
                        kt_energies[1],
                        screened.energy,
                    )
                }),
        );
    }
    if probe {
        traced::engine_probe(
            engine,
            &ansatz,
            &problem.hamiltonian,
            &penalties,
            &seeds,
            &cfg.opts,
            &search,
            layers,
            checks,
        );
    }
}

/// The per-point correctness checks, and the repeat check against the
/// first visit of the same bond.
fn check_point(
    cfg: &PointsConfig,
    point: &Point,
    reference: &Reference,
    first: Option<&Point>,
    checks: &mut Checks,
) {
    // An unconverged SCF reports a best-effort energy that the HF state
    // need not reproduce.
    if point.scf_converged {
        checks
            .record("hf_reproduces_scf", checks::hf_reproduces_scf(point.hf_energy, reference.scf));
    }
    checks.record("not_above_hf", checks::not_above_hf(point.clifford.energy, point.hf_energy));
    if let Some(exact) = reference.exact {
        checks.record("not_below_fci", checks::not_below_exact(point.clifford.energy, exact));
    }
    if let (Some((exact_kt, screened)), Some(stages)) = (&point.kt, &cfg.kt) {
        checks.record(
            "kt_contract",
            checks::kt_contract(
                exact_kt.rejected_evaluations,
                exact_kt.penalized,
                point.clifford.penalized,
                stages.exact.1.screen_tolerance,
            )
            .and_then(|()| {
                checks::kt_contract(
                    screened.rejected_evaluations,
                    screened.penalized,
                    point.clifford.penalized,
                    stages.screened.1.screen_tolerance,
                )
            }),
        );
    }
    if let Some(first) = first {
        checks.record(
            "repeat_identical",
            checks::traces_identical(
                &format!("repeat at {} Å", point.bond),
                &traced::trace_of(&point.clifford),
                &traced::trace_of(&first.clifford),
            )
            .and_then(|()| {
                checks::bit_identical(
                    "repeat final energy",
                    point.final_energy(),
                    first.final_energy(),
                )
            }),
        );
    }
}

/// Runs a bond-point workload: set-up, then points in the seeded order,
/// in whole passes over every bond until `--seconds` have passed. Whole
/// passes keep the mix of bonds behind the medians the same in every
/// run, whatever the seed's order.
pub fn run(cfg: &PointsConfig, args: &RunArgs, workers: usize) -> Report {
    let mut report = Report::default();
    // Set-up: engine start plus the references the checks need: the SCF
    // energy of every bond (⟨HF|H|HF⟩ must reproduce it) and, where one
    // exists, the FCI energy.
    let (setup_s, (engine, references)) = setup_median(|| {
        let engine = ExecEngine::new(workers);
        let references: BTreeMap<u64, Reference> = cfg
            .bonds
            .iter()
            .map(|&bond| {
                let pipe = ChemPipeline::build(cfg.kind, bond, &ScfKind::Rhf)
                    .unwrap_or_else(|e| panic!("{} at {bond} Å: {e}", cfg.kind.name()));
                let (na, nb) = pipe.default_sector();
                let exact = cfg.exact_reference.then(|| {
                    fci_ground_state(&pipe.spin_integrals, na, nb).expect("FCI reference").energy
                });
                (bond.to_bits(), Reference { scf: pipe.scf.energy, exact })
            })
            .collect();
        (engine, references)
    });
    let order = Rng::new(args.seed, 0xB0).permutation(cfg.bonds.len());
    let plan: Vec<f64> = order.iter().map(|&i| cfg.bonds[i]).collect();

    let mut layers = Layers::default();
    let mut points: Vec<Point> = Vec::new();
    let mut firsts: BTreeMap<u64, usize> = BTreeMap::new();
    let start = Instant::now();
    let mut i = 0;
    while i == 0 || i % plan.len() != 0 || start.elapsed().as_secs_f64() < args.seconds {
        let bond = plan[i % plan.len()];
        let (point, runner) = untraced_point(cfg, bond, &engine);
        if args.trace {
            let problem = runner.problem();
            traced_point(cfg, &point, problem, &engine, i == 0, &mut layers, &mut report.checks);
        }
        drop(runner);
        let first = firsts.get(&bond.to_bits()).map(|&k| &points[k]);
        check_point(cfg, &point, &references[&bond.to_bits()], first, &mut report.checks);
        firsts.entry(bond.to_bits()).or_insert(points.len());
        points.push(point);
        i += 1;
    }
    let elapsed = start.elapsed().as_secs_f64();
    report.attempted = points.len();

    // Quality over distinct bonds (every bond ran at least once, and
    // repeats are bit-identical), reported in the record only.
    let distinct: Vec<&Point> = firsts.values().map(|&k| &points[k]).collect();
    let gains: Vec<f64> =
        distinct.iter().map(|p| 1e3 * (p.hf_energy - p.clifford.energy)).collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let mut quality = vec![Metric::new("gain_vs_hf_mha", mean(&gains), "mHa", gains.len())];
    if cfg.exact_reference {
        let recovered: Vec<f64> = distinct
            .iter()
            .map(|p| {
                let exact = references[&p.bond.to_bits()].exact.expect("FCI reference");
                let corr = p.hf_energy - exact;
                if corr > 0.0 {
                    100.0 * (p.hf_energy - p.clifford.energy) / corr
                } else {
                    100.0
                }
            })
            .collect();
        quality.push(Metric::new("corr_recovered_pct", mean(&recovered), "%", recovered.len()));
    }
    quality.push(Metric::new(
        "failed_frac",
        failed_frac(points.len(), 0, 0),
        "ratio",
        points.len(),
    ));

    if args.trace {
        layers.report_into(&mut report);
    } else {
        let latencies: Vec<f64> = points.iter().map(|p| p.latency_s).collect();
        let t = tail(&latencies);
        // One client runs the points back to back, so its rate is the
        // reciprocal of a point's latency: the median point's, so that a
        // short stall of the host does not drag the rate.
        let p50 = median(&latencies);
        report.metrics.push(
            Metric::new("points_per_s", 1.0 / p50, "1/s", points.len()).with_detail(format!(
                "1 / latency_s_p50; mean {:.4}",
                points.len() as f64 / elapsed
            )),
        );
        report.metrics.push(Metric::new("latency_s_p50", p50, "s", latencies.len()));
        report
            .metrics
            .push(Metric::new("latency_s_tail", t.value, "s", t.samples).with_detail(t.describe()));
        report.metrics.push(Metric::new("setup_s", setup_s.value, "s", setup_s.samples));
    }
    report.metrics.extend(quality);
    report.notes.push(format!(
        "{} {} point(s) over bonds {:?} in {elapsed:.2} s",
        points.len(),
        cfg.kind.name(),
        plan
    ));
    report
}
