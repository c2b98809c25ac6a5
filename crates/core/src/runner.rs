//! The CAFQA driver: discrete Bayesian search over the Clifford space of
//! a hardware-efficient ansatz (the paper's red box, Fig. 4).
//!
//! The runner owns the execution engine for the whole search: warm-up,
//! acquisition batches, and the polish sweeps all evaluate through one
//! persistent worker pool ([`ExecEngine`]), and the BO layer's surrogate
//! scoring shards over the same pool via the
//! [`cafqa_bayesopt::Executor`] seam. Results are bit-identical at any
//! worker count, including 1.

use std::sync::Arc;
use std::time::Instant;

use cafqa_bayesopt::{BoOptions, BoResult, BoSearch, ForestOptions, RandomForest, SearchSpace};
use cafqa_chem::MolecularProblem;
use cafqa_circuit::{Ansatz, Circuit, EfficientSu2};
use cafqa_pauli::PauliOp;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::engine::ExecEngine;
use crate::ising::{ising_route, IsingFastPath};
use crate::objective::{CliffordObjective, ObjectiveValue, Penalty, PolishMove, PolishSession};

/// Configuration for a CAFQA run.
///
/// # Polish determinism and screening
///
/// Two knobs govern the discrete polish endgame that follows the BO
/// phase, and this section is the single source of truth for their
/// interaction (the refit-cadence counterpart lives on
/// [`BoOptions`](cafqa_bayesopt::BoOptions#determinism-and-refit-cadence)):
///
/// - [`polish_sweeps`](Self::polish_sweeps): how many greedy
///   coordinate-descent sweeps to run (each tries the 3 alternative
///   angles of every parameter); any nonzero value also enables the
///   subsequent pair-polish sweeps (correlated two-angle moves).
/// - [`polish_screen_top`](Self::polish_screen_top): pair screening.
///   `0` (the default) sweeps the full pair list — exhaustive on ≤ 24
///   parameters, ansatz-local beyond — exactly as the classic polish
///   did. A positive value keeps only that many pairs, ranked by a
///   random-forest surrogate refit on the search history (each pair is
///   scored by the forest's predicted minimum over its 16 joint moves,
///   see [`RandomForest::predict_group_min_on`]); the screened list is
///   always a subset of the full list, swept in the same order.
///
/// The determinism contract, in decreasing strictness:
///
/// 1. Polish evaluations replay template ops incrementally from the
///    changed slot onward ([`PolishSession`]); the prepared state is the
///    same integer gate sequence as a full re-preparation, so every
///    energy — and therefore the whole trace — is **bit-identical to
///    the classic full-re-preparation polish, at any worker count**,
///    including 1. Acceptance folds replay the serial greedy chain in
///    candidate order, so tie-breaks keep the first minimiser exactly
///    as a serial `min_by` sweep would.
/// 2. `polish_screen_top = 0` therefore reproduces the frozen
///    pre-incremental polish trace bit for bit (asserted in
///    `crates/core/tests/polish_equivalence.rs` and in the
///    `polish_incremental` bench gate).
/// 3. A *binding* screen (`0 < polish_screen_top <` pair-list length)
///    sweeps fewer pairs — a different-but-still-deterministic trace
///    given [`seed`](Self::seed); the greedy fold only ever accepts
///    improvements, so the final energy can never exceed the BO
///    incumbent's.
///
/// # Chunking and worker tiers
///
/// How an evaluation parallelises is a pure function of the problem
/// size, never of the host — this section is the single source of truth
/// for the three thresholds involved:
///
/// - **Term chunking** (`crates/core/src/objective.rs`): Hamiltonians
///   with fewer than `CHUNKED_TERM_THRESHOLD = 4096` terms sum serially
///   in term order. At or above it, the term list splits into a *fixed*
///   number of contiguous chunks — 8 for the standard tier, widening to
///   `TERM_CHUNKS_WIDE = 32` at `WIDE_TERM_THRESHOLD = 65_536` terms
///   (the Cr2-surrogate scale, 76k–149k terms) so a single candidate
///   can occupy more of the pool. Chunk partial sums always fold in
///   chunk order, so the chunk count — not the worker count — fixes the
///   floating-point association: energies are bit-identical at any
///   worker count *within* a tier, and the tier is decided by the term
///   count alone.
/// - **Worker count** (`crates/core/src/engine.rs`): the process-global
///   [`ExecEngine`] sizes itself to the available cores (capped at 16),
///   overridable with the `CAFQA_WORKERS` environment variable. Because
///   of the fixed chunk associations above, `CAFQA_WORKERS` is a pure
///   throughput knob — it never changes any reported energy.
/// - **Within-candidate vs across-candidate sharding**: batches of
///   candidates shard across the pool one candidate per task; a single
///   big-Hamiltonian candidate additionally term-shards its chunk list
///   from inside the pool. Both reassemble results in submission order
///   before any fold, preserving the serial trace exactly.
///
/// # Screening and tolerance
///
/// Two knobs govern the Clifford+T (kT) tier's quadratic-Clifford
/// screening, and this section is the single source of truth for them.
/// Both only affect [`run_cafqa_kt`](crate::run_cafqa_kt) searches with
/// `k_max > 0`; the Clifford-only search never reads them.
///
/// - [`screen_tolerance`](Self::screen_tolerance): per-term class
///   screening of the `O(4^t)` branch-pair sum. Every XOR class `c` of
///   a term with coefficient `w` carries a cached magnitude bound
///   `Π_{j∈c} |sin θ_j|` (`2^{-ν(c)/2}` for T angles, with `ν` the
///   overlap rank — the quadratic Clifford expansion's stabilizer
///   cross-term decay, arXiv 2011.09927); classes with
///   `|w| · bound(c) ≤ screen_tolerance` are skipped. The discarded
///   contribution per evaluation is rigorously below the sum of the
///   skipped `|w| · bound(c)` masses, and the skipped-class total is
///   reported as [`CafqaKtResult::screened_classes`](crate::CafqaKtResult::screened_classes).
///   `0.0` (the default) runs the frozen exact path **bit for bit** —
///   not just within tolerance (asserted in
///   `crates/bench/tests/kt_screening.rs` and the `kt_screened_vs_exact`
///   bench gate).
/// - [`kt_rank_top`](Self::kt_rank_top): move *ranking* in the kT
///   polish. A positive value scores each candidate batch with a coarse
///   bound-truncated evaluation (classes of overlap rank `ν ≤ 1` only,
///   `O((1+t)·2^t)` per term instead of `O(4^t)`) and evaluates only the
///   `kt_rank_top` best-looking moves exactly, mirroring
///   [`polish_screen_top`](Self::polish_screen_top)'s surrogate screen;
///   pruned moves are counted in
///   [`CafqaKtResult::screened_moves`](crate::CafqaKtResult::screened_moves)
///   and never enter the trace. `0` (the default) evaluates every move,
///   bit-for-bit the legacy sweep.
///
/// The determinism contract carries over unchanged: for any fixed
/// `(screen_tolerance, kt_rank_top)` the trace — and both counters —
/// are identical at any worker count; a binding screen or rank is a
/// different-but-still-deterministic search whose greedy polish still
/// only ever improves on its BO incumbent.
///
/// # Problem-structure routing
///
/// [`ising_fast_path`](Self::ising_fast_path) governs the structured
/// fast path in front of the full search (module
/// [`ising`](crate::ising), after arXiv 2312.01036): when the
/// Hamiltonian classifies as Ising-class — every term weight ≤ 2 and
/// every qubit column single-axis, i.e. diagonal after a per-qubit
/// single-Clifford basis rotation — the optimal Clifford point lies in
/// the `2^n` product-eigenstate subspace, and [`run_cafqa_on`] solves
/// the reduced binary quadratic objective instead of searching `4^d`.
///
/// - [`IsingFastPath::Auto`] (the default) routes exactly the instances
///   that can take the fast path end to end: classified structure, no
///   penalties, and an ansatz with an
///   [`eigenstate_config`](cafqa_circuit::Ansatz::eigenstate_config)
///   lift. **Everything else runs the full pipeline bit-for-bit
///   unchanged** — the classifier reads the term set and routes before
///   any search state exists (asserted in
///   `crates/core/tests/ising_routing.rs`).
/// - [`IsingFastPath::Off`] disables routing entirely; use it to
///   measure the unrouted baseline or pin a legacy BO trace on an
///   Ising-class instance.
///
/// On routed instances the result is an ordinary [`CafqaResult`]: the
/// reduced-space winner and every provided seed are evaluated through
/// the ordinary tableau objective (one engine batch, first minimiser
/// wins), so the reported energy is the simulator's, the
/// never-worse-than-seed guarantee holds, and the fast-path energy is
/// ≤ the full search's on every instance the solver handles exactly
/// (≤ [`ising::EXACT_SOLVE_CAP`](crate::ising::EXACT_SOLVE_CAP)
/// qubits; larger instances run a deterministic seeded multi-start
/// descent, asserted ≤ the BO route in the `ising_fast_path_vs_bo`
/// bench).
#[derive(Debug, Clone)]
pub struct CafqaOptions {
    /// Random warm-up evaluations (the paper uses 1000 for H2O).
    pub warmup: usize,
    /// Surrogate-guided iterations after warm-up.
    pub iterations: usize,
    /// Electron-count penalty weight (0 disables).
    pub number_penalty: f64,
    /// Sz penalty weight (0 disables).
    pub sz_penalty: f64,
    /// S² penalty weight toward the sector's `s(s+1)` (0 disables).
    pub s2_penalty: f64,
    /// Seed the Hartree-Fock configuration (guarantees CAFQA ≥ HF).
    pub seed_hf: bool,
    /// RNG seed.
    pub seed: u64,
    /// Early-stopping patience in iterations (0 disables).
    pub patience: usize,
    /// Coordinate-descent polish sweeps after the BO phase (0 disables).
    /// Each sweep tries every alternative angle for every parameter and
    /// keeps improvements; this is the greedy endgame of the discrete
    /// search and costs `3 · #params` evaluations per sweep.
    pub polish_sweeps: usize,
    /// Candidates proposed (and evaluated as one batch) per surrogate
    /// refit in the BO phase — forwarded to
    /// [`BoOptions::proposals_per_refit`]. `1` reproduces the classic
    /// one-candidate-per-refit loop exactly.
    pub proposals_per_refit: usize,
    /// Surrogate refit window, forwarded to
    /// [`cafqa_bayesopt::ForestOptions::window`]: each refit trains on
    /// only this many recent evaluations (plus the incumbent), so refit
    /// cost stops growing with the search length — the Cr2-scale knob.
    /// `0` (the default) keeps the classic full-history refits,
    /// bit-for-bit. See the determinism notes on
    /// [`BoOptions`](cafqa_bayesopt::BoOptions#determinism-and-refit-cadence).
    pub forest_window: usize,
    /// Pair-polish screening: sweep only the `polish_screen_top` most
    /// promising pairs (forest-ranked on the search history) instead of
    /// the full pair list. `0` (the default) keeps the exhaustive legacy
    /// sweep, bit-for-bit. See the [polish determinism and
    /// screening](Self#polish-determinism-and-screening) notes.
    pub polish_screen_top: usize,
    /// Quadratic-Clifford class screening of the kT tier's branch-pair
    /// sums: skip XOR classes whose coefficient-weighted bound cannot
    /// move the objective past this tolerance. `0.0` (the default) keeps
    /// the exact legacy `pair_sum` path, bit-for-bit. See the [screening
    /// and tolerance](Self#screening-and-tolerance) notes.
    pub screen_tolerance: f64,
    /// kT polish move ranking: evaluate only this many bound-ranked
    /// moves per candidate batch exactly. `0` (the default) evaluates
    /// every move, bit-for-bit. See the [screening and
    /// tolerance](Self#screening-and-tolerance) notes.
    pub kt_rank_top: usize,
    /// Structured fast-path routing for Ising-class Hamiltonians:
    /// [`Auto`](IsingFastPath::Auto) (the default) routes classified
    /// instances through the reduced-space solver and everything else
    /// through the full search bit-for-bit unchanged;
    /// [`Off`](IsingFastPath::Off) never routes. See the [problem-structure
    /// routing](Self#problem-structure-routing) notes.
    pub ising_fast_path: IsingFastPath,
}

impl Default for CafqaOptions {
    fn default() -> Self {
        CafqaOptions {
            warmup: 200,
            iterations: 400,
            number_penalty: 1.0,
            sz_penalty: 0.0,
            s2_penalty: 0.0,
            seed_hf: true,
            seed: 0xCAF9A,
            patience: 0,
            polish_sweeps: 6,
            proposals_per_refit: BoOptions::default().proposals_per_refit,
            forest_window: 0,
            polish_screen_top: 0,
            screen_tolerance: 0.0,
            kt_rank_top: 0,
            ising_fast_path: IsingFastPath::default(),
        }
    }
}

impl CafqaOptions {
    /// A small-budget preset for quick runs and tests.
    pub fn quick() -> Self {
        CafqaOptions { warmup: 60, iterations: 120, ..Default::default() }
    }
}

/// The outcome of a CAFQA search.
#[derive(Debug, Clone)]
pub struct CafqaResult {
    /// Best discrete configuration (indices into the four Clifford angles).
    pub best_config: Vec<usize>,
    /// Raw Hamiltonian expectation of the best configuration — the CAFQA
    /// initialization energy reported in all paper figures.
    pub energy: f64,
    /// Penalized objective value of the best configuration.
    pub penalized: f64,
    /// Full search trace: `(raw energy, penalized, best penalized so far)`.
    pub trace: Vec<SearchPoint>,
    /// 1-based evaluation index that first reached the final best
    /// (Fig. 15's metric).
    pub iterations_to_best: usize,
    /// Total evaluations performed.
    pub evaluations: usize,
    /// Evaluations spent in the polish endgame (the tail of `trace`).
    pub polish_evaluations: usize,
    /// Wall-clock seconds spent in the warm-up + BO phase: the sum of
    /// the job's BO step times ([`CafqaJob::step`]; the single
    /// evaluation step on the Ising route), so time a served job spends
    /// parked between slices is not counted. Phase-level profiling
    /// metadata (Fig. 12 reports it); carries no physics and is excluded
    /// from every bit-identity contract.
    pub bo_seconds: f64,
    /// Wall-clock seconds spent in the polish endgame — phase-level
    /// profiling metadata (Fig. 12 reports it); carries no physics and
    /// is excluded from every bit-identity contract.
    pub polish_seconds: f64,
    /// Polish seeks that had to rewind (target before the standing
    /// prefix) and how many of those restored a layer checkpoint instead
    /// of rebuilding from `|0…0⟩`, as `(backward_seeks,
    /// stack_restores)`. Profiling metadata like the phase timers: the
    /// restored state replays the same integer gate sequence either way,
    /// so these counters are excluded from every bit-identity contract.
    pub polish_seek_stats: (u64, u64),
}

/// One evaluation in the search trace.
#[derive(Debug, Clone, Copy)]
pub struct SearchPoint {
    /// Raw `⟨H⟩`.
    pub energy: f64,
    /// Penalized objective.
    pub penalized: f64,
    /// Best penalized value so far.
    pub best_so_far: f64,
}

impl CafqaResult {
    /// The initial continuous angles for post-CAFQA VQE tuning
    /// (paper §3 step 9: the Clifford parameters become the start point).
    pub fn initial_angles(&self) -> Vec<f64> {
        self.best_config.iter().map(|&k| k as f64 * std::f64::consts::FRAC_PI_2).collect()
    }

    /// The best-so-far raw energy after each evaluation (for Fig. 7-style
    /// convergence plots).
    pub fn best_energy_trace(&self) -> Vec<f64> {
        let mut best = f64::INFINITY;
        let mut best_energy = f64::INFINITY;
        self.trace
            .iter()
            .map(|p| {
                if p.penalized < best {
                    best = p.penalized;
                    best_energy = p.energy;
                }
                best_energy
            })
            .collect()
    }
}

/// Runs the CAFQA discrete search for an arbitrary Hamiltonian/ansatz
/// pair with optional penalties and seed configurations, on the
/// process-global execution engine.
pub fn run_cafqa(
    ansatz: &dyn Ansatz,
    hamiltonian: &PauliOp,
    penalties: Vec<Penalty>,
    seeds: &[Vec<usize>],
    opts: &CafqaOptions,
) -> CafqaResult {
    run_cafqa_on(ExecEngine::global(), ansatz, hamiltonian, penalties, seeds, opts)
}

/// [`run_cafqa`] on an explicit [`ExecEngine`]: every parallel step of
/// the search — warm-up, acquisition batches, surrogate fits and scoring, polish
/// sweeps — dispatches through this one engine, and the result is
/// bit-identical at any worker count (including a serial engine). This
/// is a loop over [`CafqaJob::step`].
pub fn run_cafqa_on(
    engine: &ExecEngine,
    ansatz: &dyn Ansatz,
    hamiltonian: &PauliOp,
    penalties: Vec<Penalty>,
    seeds: &[Vec<usize>],
    opts: &CafqaOptions,
) -> CafqaResult {
    let objective = penalties.into_iter().fold(
        CliffordObjective::new(ansatz, hamiltonian).with_engine(engine.clone()),
        CliffordObjective::with_penalty,
    );
    let mut job = CafqaJob::new(&objective, seeds, opts);
    loop {
        if let Some(result) = job.step(&objective) {
            return result;
        }
    }
}

/// One CAFQA search as a state machine of bounded steps — the unit the
/// job server (`cafqa-serve`) slices. The steps are:
///
/// 1. Ising-class instances (see the [problem-structure
///    routing](CafqaOptions#problem-structure-routing) notes): one step
///    evaluates the reduced-space winner plus the seeds, and the job is
///    done.
/// 2. Otherwise one step per BO batch — the seeds + warm-up phase, then
///    one acquisition cycle per surrogate refit ([`BoSearch`]) — and
///    finally the polish endgame ([`polish_on`]) as one step.
///
/// The job owns all of its state and borrows nothing: every step takes
/// the objective instead, so a caller can park a job between steps for
/// free and rebuild the objective (from the same ansatz, Hamiltonian,
/// penalties and engine) whenever it resumes. Stepping is bit-identical
/// to [`run_cafqa_on`] — which is exactly this loop — however the steps
/// are spread out, at any worker count.
///
/// # Examples
///
/// ```
/// use cafqa_circuit::EfficientSu2;
/// use cafqa_core::{run_cafqa_on, CafqaJob, CafqaOptions, CliffordObjective, ExecEngine};
/// use cafqa_pauli::PauliOp;
///
/// let ansatz = EfficientSu2::new(2, 1);
/// let h: PauliOp = "0.5*XX + 0.25*ZZ - 0.1*YI".parse().unwrap();
/// let opts = CafqaOptions { warmup: 8, iterations: 8, ..Default::default() };
/// let engine = ExecEngine::serial();
/// let objective = CliffordObjective::new(&ansatz, &h).with_engine(engine.clone());
/// let mut job = CafqaJob::new(&objective, &[], &opts);
/// let result = loop {
///     if let Some(result) = job.step(&objective) {
///         break result;
///     }
/// };
/// let solo = run_cafqa_on(&engine, &ansatz, &h, vec![], &[], &opts);
/// assert_eq!(result.energy.to_bits(), solo.energy.to_bits());
/// ```
#[derive(Debug, Clone)]
pub struct CafqaJob {
    opts: CafqaOptions,
    stage: Stage,
    /// `(raw energy, penalized)` of every BO evaluation, in fold order.
    raw_trace: Vec<(f64, f64)>,
    /// Wall time summed over the BO steps.
    bo_seconds: f64,
}

#[derive(Debug, Clone)]
enum Stage {
    /// The Ising fast path's candidates: the lifted winner, then the seeds.
    Routed(Vec<Vec<usize>>),
    /// The BO phase; the step that finds it exhausted runs the polish.
    Search(Box<BoSearch>),
    Done,
}

impl CafqaJob {
    /// Starts a job for `objective` (which fixes the ansatz, Hamiltonian,
    /// penalties and engine) from `seeds` under `opts`. Routing is decided
    /// here; no objective evaluation happens until the first step.
    ///
    /// # Panics
    ///
    /// Panics when a seed has the wrong length.
    pub fn new(
        objective: &CliffordObjective<'_>,
        seeds: &[Vec<usize>],
        opts: &CafqaOptions,
    ) -> Self {
        let stage = match ising_route(objective, opts) {
            Some(lifted) => {
                Stage::Routed(std::iter::once(lifted).chain(seeds.iter().cloned()).collect())
            }
            None => {
                let bo_opts = BoOptions {
                    warmup: opts.warmup,
                    iterations: opts.iterations,
                    seed: opts.seed,
                    patience: opts.patience,
                    proposals_per_refit: opts.proposals_per_refit,
                    forest: ForestOptions { window: opts.forest_window, ..Default::default() },
                    ..Default::default()
                };
                let space = SearchSpace::uniform(objective.num_parameters(), 4);
                Stage::Search(Box::new(BoSearch::new(&space, seeds, &bo_opts)))
            }
        };
        CafqaJob { opts: opts.clone(), stage, raw_trace: Vec::new(), bo_seconds: 0.0 }
    }

    /// Runs the next step on `objective` — which must be built from the
    /// same inputs as the one the job was created with — and returns the
    /// result once the job is done.
    ///
    /// # Panics
    ///
    /// Panics if the job already returned its result.
    pub fn step(&mut self, objective: &CliffordObjective<'_>) -> Option<CafqaResult> {
        let clock = Instant::now();
        match &mut self.stage {
            Stage::Routed(candidates) => {
                let values = objective.evaluate_batch(candidates);
                let mut best = 0;
                for (i, v) in values.iter().enumerate() {
                    if v.penalized < values[best].penalized {
                        best = i;
                    }
                }
                let trace = running_best_trace(values.iter().map(|v| (v.energy, v.penalized)));
                let result = CafqaResult {
                    best_config: candidates.swap_remove(best),
                    energy: values[best].energy,
                    penalized: values[best].penalized,
                    iterations_to_best: best + 1,
                    evaluations: trace.len(),
                    trace,
                    polish_evaluations: 0,
                    bo_seconds: clock.elapsed().as_secs_f64(),
                    polish_seconds: 0.0,
                    polish_seek_stats: (0, 0),
                };
                self.stage = Stage::Done;
                Some(result)
            }
            Stage::Search(search) => {
                // The BO layer minimizes the penalized value; raw energies
                // ride along in `raw_trace`. One engine-sharded evaluation
                // per batch (the whole warm-up phase is a single batch),
                // folded in batch order.
                if let Some(batch) = search.propose(objective.engine()) {
                    let values = objective.evaluate_batch(batch);
                    self.raw_trace.extend(values.iter().map(|v| (v.energy, v.penalized)));
                    let penalized: Vec<f64> = values.iter().map(|v| v.penalized).collect();
                    search.observe(&penalized);
                    self.bo_seconds += clock.elapsed().as_secs_f64();
                    return None;
                }
                let Stage::Search(search) = std::mem::replace(&mut self.stage, Stage::Done) else {
                    unreachable!("matched above");
                };
                Some(self.polish(objective, search.finish()))
            }
            Stage::Done => panic!("CafqaJob stepped after it returned its result"),
        }
    }

    /// The polish endgame: incremental coordinate and pair sweeps (see
    /// [`polish_on`]), with the screened variant fed the BO history.
    fn polish(&mut self, objective: &CliffordObjective<'_>, result: BoResult) -> CafqaResult {
        let opts = &self.opts;
        let history: Vec<(Vec<usize>, f64)> =
            if opts.polish_screen_top > 0 && opts.polish_sweeps > 0 {
                result.history.iter().map(|e| (e.config.clone(), e.value)).collect()
            } else {
                Vec::new()
            };
        let bo_evaluations = self.raw_trace.len();
        let polish_clock = Instant::now();
        let outcome = polish_on(objective.engine(), objective, &result.best_config, opts, &history);
        let polish_seconds = polish_clock.elapsed().as_secs_f64();
        let mut iterations_to_best = result.iterations_to_best;
        if let Some(accept) = outcome.last_accept {
            iterations_to_best = bo_evaluations + accept;
        }
        let raw_trace = std::mem::take(&mut self.raw_trace);
        let trace = running_best_trace(raw_trace.into_iter().chain(outcome.trace.iter().copied()));
        CafqaResult {
            best_config: outcome.best_config,
            energy: outcome.best_value.energy,
            penalized: outcome.best_value.penalized,
            evaluations: trace.len(),
            iterations_to_best,
            trace,
            polish_evaluations: outcome.trace.len(),
            bo_seconds: self.bo_seconds,
            polish_seconds,
            polish_seek_stats: outcome.seek_stats,
        }
    }
}

/// The search trace of `(raw energy, penalized)` evaluations, with the
/// running best penalized value.
fn running_best_trace(evaluations: impl Iterator<Item = (f64, f64)>) -> Vec<SearchPoint> {
    let mut best = f64::INFINITY;
    evaluations
        .map(|(energy, penalized)| {
            best = best.min(penalized);
            SearchPoint { energy, penalized, best_so_far: best }
        })
        .collect()
}

/// The pair list of the pair-polish phase, one definition shared by the
/// production sweep, the frozen reference and the screening tests: small
/// registers (`d <= 24`) try every pair; wide ones only pairs that are
/// local in the ansatz layout (same qubit, adjacent qubit, or same qubit
/// across layers — including the α/β spin-pair distance `nq/2` of the
/// blocked spin-orbital ordering, where pairing correlations live),
/// keeping the sweep linear in the parameter count.
pub fn polish_pair_list(d: usize, nq: usize) -> Vec<(usize, usize)> {
    if d <= 24 {
        return (0..d).flat_map(|i| ((i + 1)..d).map(move |j| (i, j))).collect();
    }
    let offsets = [1, 2, nq / 2, nq / 2 + 1, nq.saturating_sub(1), nq, nq + 1, 2 * nq];
    let mut out = Vec::new();
    for i in 0..d {
        for &off in &offsets {
            if off > 0 && i + off < d {
                out.push((i, i + off));
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Replays the serial greedy acceptance chain over one batch of polish
/// values: walk the batch in submission order, accept whenever the
/// penalized value strictly beats the current best by more than `tol`,
/// and return the index of the **last** acceptance (`None` if nothing
/// improved). For exactly-tied minima this is the *first* minimiser —
/// the same candidate a serial `min_by` sweep (which keeps the first of
/// equal minima) would pick — regardless of which engine shard computed
/// which value, because shard results are reassembled in submission
/// order before the fold ever sees them.
pub(crate) fn chain_accept(values: &[ObjectiveValue], best: f64, tol: f64) -> Option<usize> {
    let mut best = best;
    let mut accepted = None;
    for (i, value) in values.iter().enumerate() {
        if value.penalized < best - tol {
            best = value.penalized;
            accepted = Some(i);
        }
    }
    accepted
}

/// The outcome of a standalone polish run ([`polish_on`]).
#[derive(Debug, Clone)]
pub struct PolishOutcome {
    /// The polished configuration.
    pub best_config: Vec<usize>,
    /// Its objective value.
    pub best_value: ObjectiveValue,
    /// `(raw energy, penalized)` per polish evaluation, in fold order —
    /// the exact tail [`run_cafqa_on`] appends to the search trace.
    pub trace: Vec<(f64, f64)>,
    /// 1-based index into `trace` of the final accepted improvement
    /// (`None` when polish never improved on the start configuration).
    pub last_accept: Option<usize>,
    /// The pair list actually swept — the full [`polish_pair_list`] at
    /// `polish_screen_top = 0`, the forest-screened subset otherwise
    /// (empty when `polish_sweeps` is 0).
    pub pairs: Vec<(usize, usize)>,
    /// `(backward_seeks, stack_restores)` from the incremental session's
    /// layered checkpoint stack ([`PolishSession::seek_stats`]) —
    /// `(0, 0)` on the full-re-preparation fallback. Profiling metadata,
    /// excluded from every bit-identity contract.
    pub seek_stats: (u64, u64),
}

/// The polish endgame as a standalone phase: greedy coordinate-descent
/// sweeps followed by (optionally surrogate-screened) pair sweeps,
/// starting from `start`. This is what [`run_cafqa_on`] runs after the
/// BO phase; it is public so benchmarks and experiment drivers can time
/// and A/B the endgame in isolation.
///
/// Compiled objectives evaluate every neighbor incrementally
/// ([`PolishSession`]: prefix checkpoint + suffix replay from the
/// changed slot); non-compiled ansätze fall back to full re-preparation
/// through [`CliffordObjective::evaluate_batch`]. Both produce
/// bit-identical traces — see the [polish determinism and
/// screening](CafqaOptions#polish-determinism-and-screening) notes.
///
/// `history` is the `(configuration, penalized value)` search history
/// the screening forest trains on; it is only read when
/// [`CafqaOptions::polish_screen_top`] is binding, and an empty history
/// disables screening (the full pair list is swept).
///
/// Engine use mirrors the rest of the stack: move batches shard over
/// the objective's attached engine, big-Hamiltonian neighbors
/// term-shard from inside the pool, and the screening forest scores
/// pair groups over `engine` — callers normally attach the same engine
/// to the objective ([`run_cafqa_on`] does).
pub fn polish_on(
    engine: &ExecEngine,
    objective: &CliffordObjective<'_>,
    start: &[usize],
    opts: &CafqaOptions,
    history: &[(Vec<usize>, f64)],
) -> PolishOutcome {
    let mut best_config = start.to_vec();
    let mut best_value = objective.evaluate(&best_config);
    let mut trace: Vec<(f64, f64)> = Vec::new();
    let mut last_accept: Option<usize> = None;
    let d = best_config.len();
    // The incremental session (compiled ansätze) or the full
    // re-preparation fallback — semantically identical either way.
    let mut session = objective.polish_session(best_config.clone());
    let eval_moves = |session: &mut Option<PolishSession>,
                      base: &[usize],
                      moves: &[PolishMove]|
     -> Vec<ObjectiveValue> {
        match session {
            Some(session) => session.evaluate_moves(moves),
            None => {
                let candidates: Vec<Vec<usize>> = moves
                    .iter()
                    .map(|mv| {
                        let mut candidate = base.to_vec();
                        for &(slot, value) in mv {
                            candidate[slot] = value;
                        }
                        candidate
                    })
                    .collect();
                objective.evaluate_batch(&candidates)
            }
        }
    };
    // Coordinate-descent sweeps: greedily walk each parameter through its
    // alternative angles until a full sweep yields no improvement. The
    // three alternatives per coordinate are independent, so they evaluate
    // as one batch; `chain_accept` then replays the greedy chain in
    // candidate order, which keeps the trace and the chosen optimum
    // identical to a one-at-a-time sweep.
    for _sweep in 0..opts.polish_sweeps {
        let mut improved = false;
        for i in 0..d {
            let current = best_config[i];
            let moves: Vec<PolishMove> =
                (0..4).filter(|&v| v != current).map(|v| vec![(i, v)]).collect();
            let values = eval_moves(&mut session, &best_config, &moves);
            let base_len = trace.len();
            for value in &values {
                trace.push((value.energy, value.penalized));
            }
            if let Some(idx) = chain_accept(&values, best_value.penalized, 1e-12) {
                for &(slot, value) in &moves[idx] {
                    best_config[slot] = value;
                }
                if let Some(session) = &mut session {
                    session.accept(&moves[idx]);
                }
                best_value = values[idx];
                last_accept = Some(base_len + idx + 1);
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    // Pair polish: correlated two-angle moves escape the
    // single-coordinate local minima that trap e.g. LiH at stretched
    // geometries (and the HF seed on wide registers).
    let mut swept_pairs: Vec<(usize, usize)> = Vec::new();
    if opts.polish_sweeps > 0 {
        let nq = objective.num_qubits();
        let full_pairs = polish_pair_list(d, nq);
        let pairs = screened_pairs(engine, full_pairs, &best_config, opts, history);
        let sweeps = if d <= 24 { 3 } else { 2 };
        for _sweep in 0..sweeps {
            let mut improved = false;
            for &(i, j) in &pairs {
                // All 16 (vi, vj) joint moves are independent: evaluate as
                // one batch, then replay the greedy acceptance chain in
                // (vi, vj) order. The skip of the incumbent pair happens in
                // the fold (it can shift mid-pair when a move is accepted),
                // so trace and outcome match the serial sweep exactly.
                let moves: Vec<PolishMove> =
                    (0..16).map(|code| vec![(i, code / 4), (j, code % 4)]).collect();
                let values = eval_moves(&mut session, &best_config, &moves);
                for (mv, value) in moves.iter().zip(values) {
                    let (vi, vj) = (mv[0].1, mv[1].1);
                    if vi == best_config[i] && vj == best_config[j] {
                        continue;
                    }
                    trace.push((value.energy, value.penalized));
                    if value.penalized < best_value.penalized - 1e-12 {
                        best_config[i] = vi;
                        best_config[j] = vj;
                        if let Some(session) = &mut session {
                            session.accept(mv);
                        }
                        best_value = value;
                        last_accept = Some(trace.len());
                        improved = true;
                    }
                }
            }
            if !improved {
                break;
            }
        }
        swept_pairs = pairs;
    }
    let seek_stats = session.as_ref().map_or((0, 0), PolishSession::seek_stats);
    PolishOutcome { best_config, best_value, trace, last_accept, pairs: swept_pairs, seek_stats }
}

/// Applies [`CafqaOptions::polish_screen_top`] to the full pair list:
/// fits a forest on the search history (deterministically seeded from
/// [`CafqaOptions::seed`]), scores each pair by the predicted minimum
/// over its 16 joint moves around `base`, and keeps the `top` best —
/// **in original pair-list order**, so the screened sweep is a plain
/// subset of the exhaustive one. Non-binding configurations (`top` of 0,
/// `top >=` the list length, or an empty history) return the full list
/// untouched.
fn screened_pairs(
    engine: &ExecEngine,
    full: Vec<(usize, usize)>,
    base: &[usize],
    opts: &CafqaOptions,
    history: &[(Vec<usize>, f64)],
) -> Vec<(usize, usize)> {
    let top = opts.polish_screen_top;
    if top == 0 || top >= full.len() || history.is_empty() {
        return full;
    }
    let xs: Vec<Vec<usize>> = history.iter().map(|(config, _)| config.clone()).collect();
    let ys: Vec<f64> = history.iter().map(|&(_, value)| value).collect();
    let cardinalities = vec![4usize; base.len()];
    // A seed distinct from the BO stream: screening is a separate,
    // deterministic phase.
    let mut rng = StdRng::seed_from_u64(opts.seed ^ 0x5C_4EE4);
    let forest_opts = ForestOptions { window: opts.forest_window, ..Default::default() };
    let forest =
        Arc::new(RandomForest::fit(&xs, &ys, &cardinalities, &forest_opts, &mut rng, engine));
    let groups: Vec<Vec<Vec<usize>>> = full
        .iter()
        .map(|&(i, j)| {
            (0..16)
                .map(|code| {
                    let mut config = base.to_vec();
                    config[i] = code / 4;
                    config[j] = code % 4;
                    config
                })
                .collect()
        })
        .collect();
    let scores = forest.predict_group_min_on(&groups, engine);
    let mut ranked: Vec<usize> = (0..full.len()).collect();
    // Stable sort: equal scores keep pair-list order, so the selection is
    // deterministic and host-independent.
    ranked.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));
    let mut keep: Vec<usize> = ranked.into_iter().take(top).collect();
    keep.sort_unstable();
    keep.into_iter().map(|k| full[k]).collect()
}

/// A molecular CAFQA run bundled with its ansatz (the common case).
pub struct MolecularCafqa {
    /// The hardware-efficient ansatz (paper §6: SU2, one linear
    /// entangling layer).
    pub ansatz: EfficientSu2,
    problem: MolecularProblem,
}

impl MolecularCafqa {
    /// Sets up the paper's configuration for a molecular problem:
    /// `EfficientSU2(reps = 1)` on the tapered register.
    pub fn new(problem: MolecularProblem) -> Self {
        let ansatz = EfficientSu2::new(problem.n_qubits, 1);
        MolecularCafqa { ansatz, problem }
    }

    /// The underlying problem.
    pub fn problem(&self) -> &MolecularProblem {
        &self.problem
    }

    /// The HF seed configuration for this problem.
    pub fn hf_config(&self) -> Vec<usize> {
        self.ansatz.basis_state_config(self.problem.hf_bits)
    }

    /// Runs the search with electron-count (and optional Sz) penalties
    /// targeting the problem's sector, on the process-global engine.
    pub fn run(&self, opts: &CafqaOptions) -> CafqaResult {
        self.run_on(ExecEngine::global(), opts)
    }

    /// [`Self::run`] on an explicit engine — the entry point for
    /// experiment drivers that own one engine for a whole sweep (e.g.
    /// the Cr2-surrogate figure), so warm-up, acquisition, polish *and*
    /// the intra-candidate term sharding of its 34-qubit evaluations all
    /// share a single pool.
    pub fn run_on(&self, engine: &ExecEngine, opts: &CafqaOptions) -> CafqaResult {
        let mut penalties = Vec::new();
        if opts.number_penalty > 0.0 {
            penalties.push(Penalty::new(
                "electron count",
                &self.problem.number_op,
                self.problem.n_electrons() as f64,
                opts.number_penalty,
            ));
        }
        if opts.sz_penalty > 0.0 {
            let target = 0.5 * (self.problem.n_alpha as f64 - self.problem.n_beta as f64);
            penalties.push(Penalty::new("sz", &self.problem.sz_op, target, opts.sz_penalty));
        }
        if opts.s2_penalty > 0.0 {
            let s = 0.5 * (self.problem.n_alpha as f64 - self.problem.n_beta as f64);
            penalties.push(Penalty::new(
                "s-squared",
                &self.problem.s_squared_op,
                s * (s + 1.0),
                opts.s2_penalty,
            ));
        }
        let seeds: Vec<Vec<usize>> = if opts.seed_hf { vec![self.hf_config()] } else { Vec::new() };
        run_cafqa_on(engine, &self.ansatz, &self.problem.hamiltonian, penalties, &seeds, opts)
    }

    /// Binds the best configuration into a Clifford circuit.
    pub fn circuit(&self, result: &CafqaResult) -> Circuit {
        self.ansatz.bind_clifford(&result.best_config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cafqa_chem::{ChemPipeline, MoleculeKind, ScfKind};

    fn value(penalized: f64) -> ObjectiveValue {
        ObjectiveValue { energy: penalized, penalized }
    }

    /// The satellite tie-break contract, asserted *before* the engine
    /// path was wired: the acceptance fold must keep the **first**
    /// minimiser under serial-fold order. Engine shards may compute the
    /// values in any order, but they are reassembled by submission index
    /// before the fold, so `chain_accept` sees exactly the serial
    /// candidate order — and for exactly-tied minima it lands on the
    /// same index as `min_by` (which keeps the first of equal minima).
    #[test]
    fn chain_accept_keeps_first_minimiser_like_min_by() {
        let cases: Vec<Vec<f64>> = vec![
            vec![2.0, 1.0, 1.0],           // exact tie: first wins
            vec![1.0, 1.0, 1.0],           // all tied
            vec![3.0, 2.0, 1.0],           // strictly improving chain
            vec![1.0, 2.0, 3.0],           // first is best
            vec![5.0, -1.0, 4.0, -1.0],    // tie across a worse gap
            vec![f64::INFINITY, 0.5, 0.5], // non-finite head
        ];
        for values in cases {
            let batch: Vec<ObjectiveValue> = values.iter().map(|&v| value(v)).collect();
            let chained = chain_accept(&batch, f64::INFINITY, 0.0);
            let min_by =
                values.iter().enumerate().min_by(|a, b| a.1.total_cmp(b.1)).map(|(i, _)| i);
            assert_eq!(chained, min_by, "{values:?}");
        }
    }

    #[test]
    fn chain_accept_respects_incumbent_and_tolerance() {
        // Nothing strictly below the incumbent: no acceptance.
        let batch = vec![value(1.0), value(0.9999999)];
        assert_eq!(chain_accept(&batch, 1.0, 1e-3), None);
        // Within tolerance of the *running* best is not accepted: 3−ε
        // loses to the already-accepted 3.0 even though it is the
        // batch minimum — the chain semantics, not a global argmin.
        let batch = vec![value(5.0), value(3.0), value(3.0 - 1e-13)];
        assert_eq!(chain_accept(&batch, 10.0, 1e-12), Some(1));
        // Strictly past the tolerance is accepted.
        let batch = vec![value(5.0), value(3.0), value(3.0 - 1e-9)];
        assert_eq!(chain_accept(&batch, 10.0, 1e-12), Some(2));
        // Empty batch.
        assert_eq!(chain_accept(&[], 0.0, 1e-12), None);
    }

    #[test]
    fn pair_list_is_exhaustive_small_and_local_wide() {
        // d ≤ 24: all C(d, 2) ordered pairs.
        let small = polish_pair_list(6, 3);
        assert_eq!(small.len(), 15);
        assert!(small.iter().all(|&(i, j)| i < j && j < 6));
        // d > 24: sorted, deduplicated, local offsets only.
        let wide = polish_pair_list(48, 12);
        assert!(wide.windows(2).all(|w| w[0] < w[1]), "sorted and distinct");
        assert!(wide.iter().all(|&(i, j)| i < j && j < 48));
        let offsets = [1usize, 2, 6, 7, 11, 12, 13, 24];
        assert!(wide.iter().all(|&(i, j)| offsets.contains(&(j - i))));
        assert!(wide.len() < 48 * 8 + 1, "linear in d, not quadratic");
    }

    #[test]
    fn hf_seed_guarantees_cafqa_never_worse_than_hf() {
        let pipe = ChemPipeline::build(MoleculeKind::H2, 2.2, &ScfKind::Rhf).unwrap();
        let (na, nb) = pipe.default_sector();
        let problem = pipe.problem(na, nb, true).unwrap();
        let runner = MolecularCafqa::new(problem);
        let result = runner.run(&CafqaOptions::quick());
        let hf = runner.problem().hf_energy;
        assert!(result.energy <= hf + 1e-9, "CAFQA {} must not exceed HF {hf}", result.energy);
    }

    #[test]
    fn h2_stretched_recovers_most_correlation_energy() {
        // Paper Fig. 8: at stretched geometries CAFQA recovers nearly all
        // correlation energy that HF misses.
        let pipe = ChemPipeline::build(MoleculeKind::H2, 2.5, &ScfKind::Rhf).unwrap();
        let problem = pipe.problem(1, 1, true).unwrap();
        let exact = problem.exact_energy.unwrap();
        let hf = problem.hf_energy;
        let runner = MolecularCafqa::new(problem);
        let result =
            runner.run(&CafqaOptions { warmup: 120, iterations: 260, ..Default::default() });
        let recovered = (hf - result.energy) / (hf - exact);
        assert!(
            recovered > 0.9,
            "recovered only {:.1}% (CAFQA {} HF {hf} exact {exact})",
            recovered * 100.0,
            result.energy
        );
    }

    #[test]
    fn hf_config_reproduces_hf_energy() {
        let pipe = ChemPipeline::build(MoleculeKind::LiH, 1.6, &ScfKind::Rhf).unwrap();
        let (na, nb) = pipe.default_sector();
        let problem = pipe.problem(na, nb, false).unwrap();
        let runner = MolecularCafqa::new(problem);
        let objective = CliffordObjective::new(&runner.ansatz, &runner.problem().hamiltonian);
        let v = objective.evaluate(&runner.hf_config());
        assert!(
            (v.energy - runner.problem().hf_energy).abs() < 1e-9,
            "{} vs {}",
            v.energy,
            runner.problem().hf_energy
        );
    }

    #[test]
    fn trace_is_recorded_and_monotone() {
        let pipe = ChemPipeline::build(MoleculeKind::H2, 0.74, &ScfKind::Rhf).unwrap();
        let problem = pipe.problem(1, 1, false).unwrap();
        let runner = MolecularCafqa::new(problem);
        let opts = CafqaOptions { warmup: 30, iterations: 40, ..Default::default() };
        let result = runner.run(&opts);
        assert_eq!(result.evaluations, result.trace.len());
        for w in result.trace.windows(2) {
            assert!(w[1].best_so_far <= w[0].best_so_far + 1e-15);
        }
        assert!(result.iterations_to_best >= 1);
    }
}
