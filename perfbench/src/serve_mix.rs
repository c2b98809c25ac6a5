//! `serve_mix`: a `CafqaServer` at its default options under two
//! closed-loop clients. Client 0 sends a fine-grained LiH bond sweep
//! plus a few Ising-class MaxCut jobs (the routed path); client 1 sends
//! an H6 bond sweep. About a quarter of each client's submissions are
//! exact resubmissions of its own earlier jobs. Each sweep pass uses a
//! fresh search seed, so every pass is a new cache family: warm-start
//! donors and cache hits depend only on the client's own stream.

use std::collections::VecDeque;
use std::time::Instant;

use cafqa_chem::{ChemPipeline, MolecularProblem, MoleculeKind, ScfKind};
use cafqa_circuit::EfficientSu2;
use cafqa_core::maxcut::{maxcut_hamiltonian, Graph};
use cafqa_core::{classify_ising, run_cafqa_on, CafqaOptions, ExecEngine, Penalty};
use cafqa_serve::{
    CafqaServer, Disposition, JobOutcome, JobSpec, PenaltySpec, ServeError, ServeOptions,
    ServerStats,
};

use crate::checks::{self, Checks};
use crate::layers::Layers;
use crate::report::{Metric, Report};
use crate::rng::Rng;
use crate::stats::{failed_frac, median, tail, windowed_rate};
use crate::{setup_median, traced, RunArgs};

/// The `serve_mix` configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// One molecule and bond list per client.
    pub families: [(MoleculeKind, Vec<f64>); 2],
    /// The job budget (the search seed is replaced per pass).
    pub opts: CafqaOptions,
    /// MaxCut jobs client 0 adds per pass.
    pub maxcut_per_pass: usize,
    /// Bonds per family timed served-vs-solo for `serve.overhead_ratio`.
    pub overhead_bonds: usize,
}

impl ServeConfig {
    /// The benchmark configuration: 48 LiH bonds (1.20–4.02 Å) and 32 H6
    /// bonds (0.80–3.90 Å) at a small budget; `smoke` shrinks both.
    pub fn new(smoke: bool) -> Self {
        let sweep = |from: f64, step: f64, n: usize| -> Vec<f64> {
            (0..n).map(|k| from + step * k as f64).collect()
        };
        let (lih, h6) = if smoke { (3, 2) } else { (48, 32) };
        ServeConfig {
            families: [
                (MoleculeKind::LiH, sweep(1.2, 0.06, lih)),
                (MoleculeKind::H6, sweep(0.8, 0.1, h6)),
            ],
            opts: CafqaOptions {
                warmup: if smoke { 10 } else { 40 },
                iterations: if smoke { 12 } else { 80 },
                polish_sweeps: 1,
                ..Default::default()
            },
            maxcut_per_pass: if smoke { 1 } else { 2 },
            overhead_bonds: if smoke { 1 } else { 2 },
        }
    }
}

/// A pre-built molecular job and its references.
#[derive(Debug, Clone)]
struct BondJob {
    spec: JobSpec,
    hf: f64,
    exact: f64,
}

fn molecular_spec(problem: &MolecularProblem, opts: &CafqaOptions) -> JobSpec {
    let ansatz = EfficientSu2::new(problem.n_qubits, 1);
    let seeds = vec![ansatz.basis_state_config(problem.hf_bits)];
    let penalty = PenaltySpec::new(
        "electron count",
        problem.number_op.clone(),
        problem.n_electrons() as f64,
        opts.number_penalty,
    );
    JobSpec {
        ansatz,
        hamiltonian: problem.hamiltonian.clone(),
        penalties: vec![penalty],
        seeds,
        opts: opts.clone(),
    }
}

fn bond_job(problem: &MolecularProblem, opts: &CafqaOptions) -> BondJob {
    BondJob {
        spec: molecular_spec(problem, opts),
        hf: problem.hf_energy,
        exact: problem.exact_energy.expect("FCI reference"),
    }
}

/// The runner-side penalties of a spec (what the server builds).
fn penalties_of(spec: &JobSpec) -> Vec<Penalty> {
    spec.penalties
        .iter()
        .map(|p| Penalty::new(p.label.clone(), &p.op, p.target, p.weight))
        .collect()
}

/// The spec with its search seed set for sweep pass `pass` of `client`.
fn for_pass(spec: &JobSpec, client: usize, pass: u64) -> JobSpec {
    let mut spec = spec.clone();
    spec.opts.seed = 0xCAF9A ^ ((client as u64) << 40) ^ (pass << 8);
    spec
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Planned {
    Fresh { bond: usize },
    Resub { slot: usize },
    MaxCut { n: usize, graph_seed: u64 },
}

/// Slices of the window whose completion rates `points_per_s` is the
/// median of.
const RATE_BINS: usize = 5;

/// Strata a pass's bond order interleaves.
const STRATA: usize = 4;

/// A seeded order of `0..n` that interleaves `STRATA` contiguous blocks
/// of the sweep round-robin (shuffled within each block, blocks in a
/// seeded rotation): every prefix samples the whole bond range evenly,
/// so the work a run gets through does not depend on where the seed
/// happened to put the expensive bonds.
fn stratified_order(rng: &mut Rng, n: usize) -> Vec<usize> {
    let bounds: Vec<usize> = (0..=STRATA).map(|k| k * n / STRATA).collect();
    let mut blocks: Vec<Vec<usize>> = (0..STRATA)
        .map(|k| {
            rng.permutation(bounds[k + 1] - bounds[k]).into_iter().map(|i| bounds[k] + i).collect()
        })
        .collect();
    blocks.rotate_left(rng.below(STRATA));
    let longest = blocks.iter().map(Vec::len).max().unwrap_or(0);
    (0..longest).flat_map(|i| blocks.iter().filter_map(move |b| b.get(i).copied())).collect()
}

/// A client's seeded submission stream: each pass visits every bond
/// once in a stratified seeded order, with resubmissions of earlier bonds
/// of the pass (one per three fresh jobs) and MaxCut jobs at seeded
/// slots.
struct Stream {
    rng: Rng,
    bonds: usize,
    maxcut: usize,
    queue: VecDeque<Planned>,
    pass: u64,
}

impl Stream {
    fn new(seed: u64, client: usize, bonds: usize, maxcut: usize) -> Self {
        Stream {
            rng: Rng::new(seed, 0x5E + client as u64),
            bonds,
            maxcut,
            queue: VecDeque::new(),
            pass: 0,
        }
    }

    /// The next submission and the pass it belongs to.
    fn next(&mut self) -> (Planned, u64) {
        if self.queue.is_empty() {
            self.pass += 1;
            let n = self.bonds;
            let order = stratified_order(&mut self.rng, n);
            let resubs = self.rng.choose(n, n.div_ceil(3));
            let maxcuts = self.rng.choose(n, self.maxcut.min(n));
            for (k, &bond) in order.iter().enumerate() {
                self.queue.push_back(Planned::Fresh { bond });
                if resubs.contains(&k) {
                    let slot = self.rng.below(k + 1);
                    self.queue.push_back(Planned::Resub { slot });
                }
                if maxcuts.contains(&k) {
                    let n = 8 + self.rng.below(5);
                    let graph_seed = self.rng.next_u64();
                    self.queue.push_back(Planned::MaxCut { n, graph_seed });
                }
            }
        }
        (self.queue.pop_front().expect("refilled above"), self.pass)
    }
}

/// A random graph with at least one edge.
fn maxcut_graph(n: usize, seed: u64) -> Graph {
    (0..)
        .map(|k: u64| Graph::random(n, 0.5, seed.wrapping_add(k)))
        .find(|g| !g.edges.is_empty())
        .expect("a random graph eventually has an edge")
}

/// What a completed job returned, kept compact: its provenance, energy
/// and a digest of its whole trace.
struct Served {
    disposition: Disposition,
    energy: f64,
    seeds_used: Vec<Vec<usize>>,
    trace: (usize, u64),
}

impl Served {
    fn of(outcome: JobOutcome) -> Self {
        Served {
            disposition: outcome.disposition,
            energy: outcome.result.energy,
            trace: checks::trace_digest(&traced::trace_of(&outcome.result)),
            seeds_used: outcome.seeds_used,
        }
    }
}

/// One submission and what came back.
struct Sub {
    planned: Planned,
    pass: u64,
    /// Index of the original in the client's log, for resubmissions.
    original: Option<usize>,
    start_s: f64,
    end_s: f64,
    outcome: Result<Served, ServeError>,
    refused: bool,
}

/// The spec a fresh or MaxCut submission of `client` sends in `pass`.
fn spec_for(
    jobs: &[BondJob],
    cfg: &ServeConfig,
    client: usize,
    planned: Planned,
    pass: u64,
) -> JobSpec {
    match planned {
        Planned::Fresh { bond } => for_pass(&jobs[bond].spec, client, pass),
        Planned::MaxCut { n, graph_seed } => {
            let graph = maxcut_graph(n, graph_seed);
            let spec =
                JobSpec::new(EfficientSu2::new(n, 1), maxcut_hamiltonian(&graph), cfg.opts.clone());
            for_pass(&spec, client, pass)
        }
        Planned::Resub { .. } => unreachable!("a resubmission reuses its original's spec"),
    }
}

/// Runs one closed-loop client until the deadline.
fn client(
    server: &CafqaServer,
    jobs: &[BondJob],
    client: usize,
    cfg: &ServeConfig,
    seed: u64,
    window: Instant,
    seconds: f64,
) -> Vec<Sub> {
    let maxcut = if client == 0 { cfg.maxcut_per_pass } else { 0 };
    let mut stream = Stream::new(seed, client, jobs.len(), maxcut);
    let mut log: Vec<Sub> = Vec::new();
    let mut pass_fresh: Vec<usize> = Vec::new();
    let mut current_pass = 0;
    while log.is_empty() || window.elapsed().as_secs_f64() < seconds {
        let (planned, pass) = stream.next();
        if pass != current_pass {
            current_pass = pass;
            pass_fresh.clear();
        }
        let (spec, original) = match planned {
            Planned::Resub { slot } => {
                let original = pass_fresh[slot];
                let of = &log[original];
                (spec_for(jobs, cfg, client, of.planned, of.pass), Some(original))
            }
            _ => (spec_for(jobs, cfg, client, planned, pass), None),
        };
        let start_s = window.elapsed().as_secs_f64();
        let (outcome, refused) = match server.submit(spec) {
            Ok(id) => (server.wait(id).map(Served::of), false),
            Err(e) => (Err(e), true),
        };
        let end_s = window.elapsed().as_secs_f64();
        if matches!(planned, Planned::Fresh { .. }) {
            pass_fresh.push(log.len());
        }
        log.push(Sub { planned, pass, original, start_s, end_s, outcome, refused });
    }
    log
}

/// Total length of the union of `[start, end]` intervals.
fn union_length(mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (s, e) in intervals {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    total + current.map_or(0.0, |(s, e)| e - s)
}

fn stats_delta(end: ServerStats, start: ServerStats) -> ServerStats {
    ServerStats {
        submitted: end.submitted - start.submitted,
        rejected: end.rejected - start.rejected,
        completed: end.completed - start.completed,
        cache_hits: end.cache_hits - start.cache_hits,
        warm_starts: end.warm_starts - start.warm_starts,
        cancelled: end.cancelled - start.cancelled,
        failed: end.failed - start.failed,
        slices: end.slices - start.slices,
    }
}

/// Served-vs-solo time of uncontended jobs on an idle server: each job
/// alone, submit → `wait`, over `run_cafqa_on` with its `seeds_used`.
fn overhead_ratio(
    engine: &ExecEngine,
    families: &[Vec<BondJob>; 2],
    cfg: &ServeConfig,
    checks: &mut Checks,
) -> f64 {
    let server = CafqaServer::start(engine.clone(), ServeOptions::default());
    let (mut served, mut solo) = (0.0, 0.0);
    for (client, jobs) in families.iter().enumerate() {
        for job in jobs.iter().take(cfg.overhead_bonds) {
            let spec = for_pass(&job.spec, client, u64::from(u32::MAX));
            let t = Instant::now();
            let outcome = server
                .submit(spec.clone())
                .and_then(|id| server.wait(id))
                .expect("an uncontended job completes");
            served += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let alone = run_cafqa_on(
                engine,
                &spec.ansatz,
                &spec.hamiltonian,
                penalties_of(&spec),
                &outcome.seeds_used,
                &spec.opts,
            );
            solo += t.elapsed().as_secs_f64();
            checks.record(
                "served_equals_solo",
                checks::traces_identical(
                    "uncontended served job",
                    &traced::trace_of(&outcome.result),
                    &traced::trace_of(&alone),
                ),
            );
        }
    }
    served / solo
}

/// Runs `serve_mix`.
pub fn run(cfg: &ServeConfig, args: &RunArgs, workers: usize) -> Report {
    let mut report = Report::default();
    // Set-up: engine and server start, and every job's chemistry built
    // up front (with its FCI reference).
    let build = || -> [Vec<BondJob>; 2] {
        cfg.families.clone().map(|(kind, bonds)| {
            bonds
                .iter()
                .map(|&bond| {
                    let pipe = ChemPipeline::build(kind, bond, &ScfKind::Rhf)
                        .unwrap_or_else(|e| panic!("{} at {bond} Å: {e}", kind.name()));
                    let (na, nb) = pipe.default_sector();
                    bond_job(&pipe.problem(na, nb, true).expect("catalog problem"), &cfg.opts)
                })
                .collect()
        })
    };
    let (setup_s, (engine, server, families)) = setup_median(|| {
        let engine = ExecEngine::new(workers);
        let server = CafqaServer::start(engine.clone(), ServeOptions::default());
        (engine, server, build())
    });

    let mut layers = Layers::default();
    if args.trace {
        // The same chemistry, one timed call at a time.
        let t = Instant::now();
        for (f, (kind, bonds)) in cfg.families.iter().enumerate() {
            for (job, &bond) in families[f].iter().zip(bonds) {
                let problem = traced::problem(*kind, bond, true, &mut layers);
                report.checks.record(
                    "hamiltonian_equals_pipeline",
                    checks::same_hamiltonian(&problem.hamiltonian, &job.spec.hamiltonian).and_then(
                        |()| {
                            checks::bit_identical(
                                "FCI reference",
                                problem.exact_energy.unwrap_or(f64::NAN),
                                job.exact,
                            )
                        },
                    ),
                );
            }
        }
        layers.traced_wall_s += t.elapsed().as_secs_f64();
        layers.untraced_wall_s += setup_s.value;
    }

    // The measured window: two closed-loop clients.
    let stats_before = server.stats();
    let window = Instant::now();
    let logs: Vec<Vec<Sub>> = std::thread::scope(|scope| {
        let handles: Vec<_> = families
            .iter()
            .enumerate()
            .map(|(c, jobs)| {
                let server = &server;
                scope.spawn(move || client(server, jobs, c, cfg, args.seed, window, args.seconds))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let window_s = window.elapsed().as_secs_f64();
    let stats = stats_delta(server.stats(), stats_before);
    drop(server);

    // Checks, and the solo re-run of every computed job.
    let mut latencies = Vec::new();
    let (mut failed, mut refused, mut routed) = (0usize, 0usize, 0usize);
    let mut gains = Vec::new();
    let mut recovered = Vec::new();
    let mut probed = false;
    let (mut traced_rerun_s, mut untraced_rerun_s) = (0.0, 0.0);
    for (client, log) in logs.iter().enumerate() {
        let jobs = &families[client];
        for sub in log {
            let outcome = match &sub.outcome {
                Ok(outcome) => outcome,
                Err(e) => {
                    eprintln!("serve_mix: job failed or refused: {e}");
                    if sub.refused {
                        refused += 1
                    } else {
                        failed += 1
                    }
                    continue;
                }
            };
            latencies.push(sub.end_s - sub.start_s);
            let energy = outcome.energy;
            match sub.planned {
                Planned::Resub { .. } => {
                    let original = &log[sub.original.expect("resubmissions name their original")];
                    let check = match &original.outcome {
                        Ok(first) => checks::cache_hit_identical(
                            outcome.disposition == Disposition::CacheHit,
                            first.energy,
                            energy,
                        )
                        .and_then(|()| {
                            checks::same_digest("cache hit", first.trace, outcome.trace)
                        }),
                        Err(e) => Err(format!("the original submission failed: {e}")),
                    };
                    report.checks.record("resubmission_is_identical_cache_hit", check);
                    continue;
                }
                Planned::MaxCut { n, graph_seed } => {
                    let graph = maxcut_graph(n, graph_seed);
                    report.checks.record(
                        "maxcut_exact",
                        checks::maxcut_exact(energy, graph.max_cut_exact()),
                    );
                    routed += usize::from(classify_ising(&maxcut_hamiltonian(&graph)).is_some());
                }
                Planned::Fresh { bond } => {
                    let job = &jobs[bond];
                    report.checks.record("not_above_hf", checks::not_above_hf(energy, job.hf));
                    report
                        .checks
                        .record("not_below_fci", checks::not_below_exact(energy, job.exact));
                    gains.push(1e3 * (job.hf - energy));
                    let corr = job.hf - job.exact;
                    recovered.push(if corr > 0.0 {
                        100.0 * (job.hf - energy) / corr
                    } else {
                        100.0
                    });
                }
            }
            if outcome.disposition == Disposition::CacheHit {
                continue;
            }
            let spec = &spec_for(jobs, cfg, client, sub.planned, sub.pass);
            let t = Instant::now();
            let alone = run_cafqa_on(
                &engine,
                &spec.ansatz,
                &spec.hamiltonian,
                penalties_of(spec),
                &outcome.seeds_used,
                &spec.opts,
            );
            untraced_rerun_s += t.elapsed().as_secs_f64();
            report.checks.record(
                "served_equals_solo",
                checks::same_digest(
                    "served job",
                    outcome.trace,
                    checks::trace_digest(&traced::trace_of(&alone)),
                )
                .and_then(|()| checks::bit_identical("served job energy", energy, alone.energy)),
            );
            if args.trace && matches!(sub.planned, Planned::Fresh { .. }) {
                let t = Instant::now();
                let search = traced::search(
                    &engine,
                    &spec.ansatz,
                    &spec.hamiltonian,
                    penalties_of(spec),
                    &outcome.seeds_used,
                    &spec.opts,
                    &mut layers,
                );
                traced_rerun_s += t.elapsed().as_secs_f64();
                traced::check_against(&mut report.checks, "served job (traced)", &search, &alone);
                if !probed && client == 1 {
                    probed = true;
                    traced::engine_probe(
                        &engine,
                        &spec.ansatz,
                        &spec.hamiltonian,
                        &penalties_of(spec),
                        &outcome.seeds_used,
                        &spec.opts,
                        &search,
                        &mut layers,
                        &mut report.checks,
                    );
                }
            } else if args.trace {
                // Routed jobs have no traced twin: their re-run time is
                // part of the traced wall, unattributed.
                traced_rerun_s += t.elapsed().as_secs_f64();
            }
        }
    }
    let completed = latencies.len();
    report.attempted = logs.iter().map(Vec::len).sum();
    report.failed = failed + refused;
    let mean = |v: &[f64]| if v.is_empty() { 0.0 } else { v.iter().sum::<f64>() / v.len() as f64 };

    if args.trace {
        let intervals: Vec<(f64, f64)> =
            logs.iter().flatten().map(|s| (s.start_s, s.end_s)).collect();
        layers.add("serve.s", union_length(intervals));
        layers.traced_wall_s += window_s + traced_rerun_s;
        layers.untraced_wall_s += window_s + untraced_rerun_s;
        let computed = (stats.completed - stats.cache_hits).max(1) as f64;
        layers.set(
            "serve.overhead_ratio",
            overhead_ratio(&engine, &families, cfg, &mut report.checks),
        );
        layers.set("serve.slices_per_job", stats.slices as f64 / computed);
        layers.set("serve.hit_rate", stats.cache_hits as f64 / stats.completed.max(1) as f64);
        layers.set("serve.warm_starts", stats.warm_starts as f64);
        layers.set("serve.routed_jobs", routed as f64);
        layers.set("serve.rejected", stats.rejected as f64);
        layers.set("serve.failed", stats.failed as f64);
        layers.report_into(&mut report);
    } else {
        let t = tail(&latencies);
        let ends: Vec<f64> =
            logs.iter().flatten().filter(|s| s.outcome.is_ok()).map(|s| s.end_s).collect();
        report.metrics.push(
            Metric::new(
                "points_per_s",
                windowed_rate(&ends, window_s, RATE_BINS),
                "1/s",
                completed,
            )
            .with_detail(format!(
                "median over {RATE_BINS} equal slices of the window; mean {:.4}",
                completed as f64 / window_s
            )),
        );
        report.metrics.push(Metric::new("latency_s_p50", median(&latencies), "s", completed));
        report
            .metrics
            .push(Metric::new("latency_s_tail", t.value, "s", t.samples).with_detail(t.describe()));
        report.metrics.push(Metric::new("setup_s", setup_s.value, "s", setup_s.samples));
    }
    report.metrics.push(Metric::new("gain_vs_hf_mha", mean(&gains), "mHa", gains.len()));
    report.metrics.push(Metric::new("corr_recovered_pct", mean(&recovered), "%", recovered.len()));
    report.metrics.push(Metric::new(
        "failed_frac",
        failed_frac(report.attempted, failed, refused),
        "ratio",
        report.attempted,
    ));
    report.notes.push(format!(
        "{} submissions ({} completed, {} cache hits, {} warm starts, {} routed, {} slices) \
         in {window_s:.2} s",
        report.attempted,
        stats.completed,
        stats.cache_hits,
        stats.warm_starts,
        routed,
        stats.slices
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_seeded_and_a_quarter_resubmissions() {
        let take = |seed: u64| -> Vec<Planned> {
            let mut s = Stream::new(seed, 0, 48, 2);
            (0..66).map(|_| s.next().0).collect()
        };
        let a = take(1);
        assert_eq!(a, take(1));
        assert_ne!(a, take(2));
        let resubs = a.iter().filter(|p| matches!(p, Planned::Resub { .. })).count();
        let maxcuts = a.iter().filter(|p| matches!(p, Planned::MaxCut { .. })).count();
        assert_eq!((resubs, maxcuts), (16, 2), "one pass: 48 fresh, 16 resubmissions, 2 MaxCut");
    }

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_length(vec![(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]), 3.0);
        assert_eq!(union_length(vec![]), 0.0);
    }
}
