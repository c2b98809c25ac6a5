//! CAFQA+kT: the beyond-Clifford search (paper §8, Fig. 16).
//!
//! The angle grid per parameter widens from 4 Clifford angles to 8
//! eighth-turns (`k·π/4`); every odd index is a non-Clifford rotation and
//! costs one branch doubling in the stabilizer-rank engine. A budget of
//! at most `k_max` odd indices keeps the configuration classically
//! simulable (`2^k` Clifford branches).
//!
//! This module runs that search on the compiled/engine stack: candidates
//! evaluate on [`BranchEnsemble`] (tableau-backed, so the search works at
//! H2O/Cr2 qubit counts where dense branch summation cannot run), batches
//! shard over an [`ExecEngine`], and the Bayesian layer samples a
//! *feasible-by-construction* genome instead of rejecting over-budget
//! configurations with a penalty constant — see
//! [`run_cafqa_kt_on`](run_cafqa_kt_on#feasibility-and-determinism).

use std::sync::Arc;

use cafqa_bayesopt::{minimize_with, BoOptions, ForestOptions, SearchSpace};
use cafqa_circuit::{Ansatz, CompiledAnsatz};
use cafqa_clifford::{BranchEnsemble, MAX_BRANCH_GATES};
use cafqa_pauli::PauliOp;

use crate::cursor::PrefixCursor;
use crate::engine::ExecEngine;
use crate::objective::{ObjectiveValue, Penalty};
use crate::runner::{chain_accept, run_cafqa_on, CafqaOptions, SearchPoint};

/// Why a CAFQA+kT search could not start.
///
/// These are *input* errors: once a search is running, every sampled
/// configuration is feasible by construction and the search itself
/// cannot fail (the old implementation instead panicked after the fact
/// when the incumbent turned out to be over budget).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KtError {
    /// `k_max` exceeds the stabilizer-rank engine's branch budget
    /// ([`MAX_BRANCH_GATES`]); such a search could sample configurations
    /// no backend can evaluate.
    BudgetTooLarge {
        /// The requested T budget.
        k_max: usize,
        /// The largest supported budget.
        max: usize,
    },
    /// A seed configuration uses more non-Clifford rotations than
    /// `k_max` allows. Widen the budget, or re-seed with
    /// [`widen_clifford_config`] variants that respect it.
    SeedInfeasible {
        /// Index of the offending seed in the `seeds` slice.
        seed: usize,
        /// Its non-Clifford rotation count.
        t_count: usize,
        /// The budget it violates.
        k_max: usize,
    },
}

impl std::fmt::Display for KtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            KtError::BudgetTooLarge { k_max, max } => {
                write!(f, "T budget k_max = {k_max} exceeds the branch-engine limit of {max}")
            }
            KtError::SeedInfeasible { seed, t_count, k_max } => {
                write!(
                    f,
                    "seed {seed} uses {t_count} non-Clifford rotations, over the budget k_max = {k_max}"
                )
            }
        }
    }
}

impl std::error::Error for KtError {}

/// The outcome of a CAFQA+kT search.
#[derive(Debug, Clone)]
pub struct CafqaKtResult {
    /// Best configuration over the 8-ary grid.
    pub best_config: Vec<usize>,
    /// Raw `⟨H⟩` of the best configuration.
    pub energy: f64,
    /// Penalized objective value of the best configuration.
    pub penalized: f64,
    /// Number of non-Clifford rotations in the best configuration
    /// (`≤ k_max`).
    pub t_count: usize,
    /// Full search trace (BO phase then polish), penalized-objective
    /// bookkeeping as in [`crate::CafqaResult::trace`].
    pub trace: Vec<SearchPoint>,
    /// 1-based evaluation index that first reached the final best.
    pub iterations_to_best: usize,
    /// Evaluations that actually ran a branch simulation. With the
    /// feasibility-aware sampler this is *every* evaluation.
    pub feasible_evaluations: usize,
    /// Proposals discarded for exceeding the T budget before any
    /// simulation ran. Always 0 here — the genome encoding cannot
    /// express an over-budget configuration — but the frozen rejection
    ///-based reference implementation reports nonzero counts, and the
    /// split keeps the two comparable.
    pub rejected_evaluations: usize,
    /// Evaluations spent in the polish endgame (the tail of `trace`).
    pub polish_evaluations: usize,
    /// XOR classes skipped by the quadratic-Clifford bound screen across
    /// every branch-pair sum of the search. Always 0 when
    /// [`CafqaOptions::screen_tolerance`] is 0. Integer accumulation is
    /// order-independent, so the counter is deterministic at any worker
    /// count, like the trace itself.
    pub screened_classes: u64,
    /// Polish candidate moves pruned by bound ranking before any exact
    /// evaluation ran ([`CafqaOptions::kt_rank_top`]). Always 0 when
    /// ranking is off.
    pub screened_moves: u64,
}

/// Number of odd (non-Clifford) indices in an 8-ary configuration.
pub fn t_count_of(config: &[usize]) -> usize {
    config.iter().filter(|&&k| k % 2 == 1).count()
}

/// Converts a Clifford (4-ary) configuration to the 8-ary grid.
pub fn widen_clifford_config(config: &[usize]) -> Vec<usize> {
    config.iter().map(|&k| 2 * k).collect()
}

/// The feasible genome space for `d` parameters and budget `k_max`:
/// `d` quaternary Clifford dimensions followed by `k_max` *insertion*
/// dimensions of cardinality `2d + 1` (0 = no insertion; `v ≥ 1` turns
/// parameter `(v−1)/2` by `+π/4` or `−π/4`).
fn kt_search_space(d: usize, k_max: usize) -> SearchSpace {
    let mut cardinalities = vec![4usize; d];
    cardinalities.resize(d + k_max, 2 * d + 1);
    SearchSpace { cardinalities }
}

/// Decodes a genome into an 8-ary configuration. Insertions apply
/// sequentially, so two insertions on one parameter cancel back to a
/// Clifford angle — the odd-index count never exceeds the number of
/// insertion dimensions, which is why every genome is feasible.
fn decode_genome(genome: &[usize], d: usize) -> Vec<usize> {
    let mut config: Vec<usize> = genome[..d].iter().map(|&k| 2 * k).collect();
    for &v in &genome[d..] {
        if v == 0 {
            continue;
        }
        let param = (v - 1) / 2;
        let delta = if (v - 1) % 2 == 0 { 1 } else { 7 };
        config[param] = (config[param] + delta) % 8;
    }
    config
}

/// Encodes an 8-ary configuration as a genome (Clifford floor plus one
/// `+π/4` insertion per odd index), or reports its T count when that
/// count exceeds the budget.
fn encode_seed(config: &[usize], d: usize, k_max: usize) -> Result<Vec<usize>, usize> {
    assert_eq!(config.len(), d, "seed dimensionality mismatch");
    let mut genome = Vec::with_capacity(d + k_max);
    let mut insertions = Vec::new();
    for (param, &k) in config.iter().enumerate() {
        let k = k % 8;
        genome.push(k / 2);
        if k % 2 == 1 {
            insertions.push(2 * param + 1);
        }
    }
    if insertions.len() > k_max {
        return Err(insertions.len());
    }
    insertions.resize(k_max, 0);
    genome.extend(insertions);
    Ok(genome)
}

/// `(x mask, z mask, real coefficient)` of one Pauli term — the flat
/// form the branch-pair kernel consumes.
type MaskTerm = (u64, u64, f64);

/// `(weight, squared-op terms)` of one penalty, in mask form.
type MaskPenalty = (f64, Vec<MaskTerm>);

/// Flattens an operator into mask terms.
fn masks_of(op: &PauliOp) -> Vec<MaskTerm> {
    op.iter().map(|(p, c)| (p.x_mask(), p.z_mask(), c.re)).collect()
}

/// Evaluates one prepared branch ensemble against the Hamiltonian terms
/// and penalties. Terms sum in storage order and classes in one fixed
/// full-range [`BranchEnsemble::pair_sum`] per term, so the value is a
/// pure function of `(state, terms)` — the worker-count bit-identity of
/// the whole search reduces to this.
fn value_of(
    terms: &[MaskTerm],
    penalties: &[MaskPenalty],
    state: &BranchEnsemble,
) -> ObjectiveValue {
    let frames = state.frames();
    let classes = frames.num_branches();
    let mut energy = 0.0;
    for &(px, pz, c) in terms {
        energy += c * state.pair_sum(&frames, px, pz, 0..classes);
    }
    let mut penalized = energy;
    for (weight, ops) in penalties {
        let mut v = 0.0;
        for &(px, pz, c) in ops {
            v += c * state.pair_sum(&frames, px, pz, 0..classes);
        }
        penalized += weight * v;
    }
    ObjectiveValue { energy, penalized }
}

/// The per-term class tolerance: a class may be skipped only when its
/// bound, scaled by the term's (effective) coefficient magnitude, cannot
/// move the objective past `tol` — i.e. `bound(c) ≤ tol / |coeff|`.
#[inline]
fn term_tol(tol: f64, coeff: f64) -> f64 {
    if coeff == 0.0 {
        f64::INFINITY
    } else {
        tol / coeff.abs()
    }
}

/// [`value_of`] behind the quadratic-Clifford bound screen: each term's
/// class loop runs [`BranchEnsemble::pair_sum_screened`] at the term's
/// [`term_tol`] (penalty terms screen at their weighted coefficient), and
/// the second return is the total skipped-class count. `tol = 0.0`
/// delegates to [`value_of`] — the exact path stays frozen, bit for bit,
/// with zero screening overhead.
fn value_of_screened(
    terms: &[MaskTerm],
    penalties: &[MaskPenalty],
    state: &BranchEnsemble,
    tol: f64,
) -> (ObjectiveValue, u64) {
    if tol == 0.0 {
        return (value_of(terms, penalties, state), 0);
    }
    let frames = state.frames();
    let classes = frames.num_branches();
    let mut skipped = 0u64;
    let mut energy = 0.0;
    for &(px, pz, c) in terms {
        let s = state.pair_sum_screened(&frames, px, pz, 0..classes, term_tol(tol, c));
        energy += c * s.sum;
        skipped += s.skipped_classes as u64;
    }
    let mut penalized = energy;
    for &(weight, ref ops) in penalties {
        let mut v = 0.0;
        for &(px, pz, c) in ops {
            let s = state.pair_sum_screened(&frames, px, pz, 0..classes, term_tol(tol, weight * c));
            v += c * s.sum;
            skipped += s.skipped_classes as u64;
        }
        penalized += weight * v;
    }
    (ObjectiveValue { energy, penalized }, skipped)
}

/// Bound threshold of the coarse *ranking* evaluation: keep only classes
/// whose quadratic-Clifford bound exceeds 1/2 — for `±π/4` branch angles
/// that is the diagonal class and the single-branch-point classes
/// (overlap rank `ν ≤ 1`) — so scoring a move costs `O((1+t)·2^t)` per
/// term instead of the full `O(4^t)`.
const KT_RANK_BOUND: f64 = 0.5;

/// The coarse penalized score used to rank candidate moves before exact
/// evaluation: every term screened at the uniform [`KT_RANK_BOUND`].
/// Scores are compared against each other only — they never enter the
/// trace or the greedy acceptance chain.
fn rank_value_of(terms: &[MaskTerm], penalties: &[MaskPenalty], state: &BranchEnsemble) -> f64 {
    let frames = state.frames();
    let classes = frames.num_branches();
    let mut energy = 0.0;
    for &(px, pz, c) in terms {
        energy += c * state.pair_sum_screened(&frames, px, pz, 0..classes, KT_RANK_BOUND).sum;
    }
    let mut penalized = energy;
    for &(weight, ref ops) in penalties {
        let mut v = 0.0;
        for &(px, pz, c) in ops {
            v += c * state.pair_sum_screened(&frames, px, pz, 0..classes, KT_RANK_BOUND).sum;
        }
        penalized += weight * v;
    }
    penalized
}

/// The shared, engine-shippable core of a kT search: the Clifford+T
/// compiled template plus the Hamiltonian and penalty terms in mask
/// form. Mirrors the Clifford search's `EvalCore` — cheap to clone into
/// worker tasks behind an [`Arc`], with all per-candidate mutable state
/// in a scratch [`BranchEnsemble`].
pub(crate) struct KtCore {
    num_qubits: usize,
    template: CompiledAnsatz,
    terms: Vec<MaskTerm>,
    penalties: Vec<MaskPenalty>,
    /// [`CafqaOptions::screen_tolerance`]: 0.0 runs the frozen exact
    /// [`value_of`] path, anything larger the bound-screened one.
    screen_tolerance: f64,
}

/// An incremental evaluator for 8-ary configurations sharing a common
/// prefix — the kT counterpart of the Clifford search's `PolishSession`,
/// on the same prefix cursor with a [`BranchEnsemble`] as its state, so
/// the prefix cache works *across the T-gate frontier* (a prefix may hold
/// open branch frames; suffix replay conjugates them like any other
/// state).
///
/// Variant batches shard over the session's engine; each variant's value
/// is a pure function of the variant alone, and shard results reassemble
/// in submission order, so traces are bit-identical at any worker count.
pub struct KtPolishSession {
    core: Arc<KtCore>,
    engine: ExecEngine,
    cursor: PrefixCursor<BranchEnsemble>,
    skipped_classes: u64,
}

impl KtPolishSession {
    pub(crate) fn new(core: Arc<KtCore>, engine: ExecEngine) -> Self {
        let zero = BranchEnsemble::zero_state(core.num_qubits);
        let config = vec![0; core.template.num_parameters()];
        let cursor = PrefixCursor::new(&core.template, zero, config);
        KtPolishSession { core, engine, cursor, skipped_classes: 0 }
    }

    /// `(backward_seeks, stack_restores)`: seeks that could not reuse the
    /// running prefix, and how many of those restored a layer snapshot
    /// instead of rebuilding the prefix from `|0…0⟩`.
    pub fn seek_stats(&self) -> (u64, u64) {
        self.cursor.seek_stats()
    }

    /// Total XOR classes the bound screen skipped across every evaluation
    /// this session ran. 0 while `screen_tolerance = 0`; deterministic at
    /// any worker count (integer accumulation is order-independent).
    pub fn skipped_classes(&self) -> u64 {
        self.skipped_classes
    }

    /// Evaluates arbitrary full configurations (no shared prefix): the
    /// engine-batched candidate path of the BO phase.
    pub fn evaluate_batch(&mut self, configs: &[Vec<usize>]) -> Vec<ObjectiveValue> {
        self.cursor.rewind(&self.core.template);
        self.evaluate_from_prefix(configs)
    }

    /// Evaluates variants of `base` that differ only at the parameters
    /// in `changed`: the cursor seeks to the first op reading a changed
    /// parameter once and only the suffix replays per variant.
    pub fn evaluate_variants(
        &mut self,
        base: &[usize],
        changed: &[usize],
        variants: &[Vec<usize>],
    ) -> Vec<ObjectiveValue> {
        let target_end =
            changed.iter().map(|&p| self.core.template.first_op_of(p)).min().unwrap_or(0);
        self.cursor.seek(&self.core.template, base, target_end);
        self.evaluate_from_prefix(variants)
    }

    /// Coarse bound-screened scores for variants of `base` (same prefix
    /// contract as [`Self::evaluate_variants`]) — the move-*ranking*
    /// probe: every term's class loop truncated at [`KT_RANK_BOUND`], so
    /// a score costs `O((1+t)·2^t)` per term instead of `O(4^t)`. Scores
    /// shard over the engine exactly like exact values (pure per-variant
    /// functions reassembled in submission order) and never enter the
    /// trace.
    pub fn rank_variants(
        &mut self,
        base: &[usize],
        changed: &[usize],
        variants: &[Vec<usize>],
    ) -> Vec<f64> {
        let target_end =
            changed.iter().map(|&p| self.core.template.first_op_of(p)).min().unwrap_or(0);
        self.cursor.seek(&self.core.template, base, target_end);
        self.shard_from_prefix(variants, |core, state| {
            rank_value_of(&core.terms, &core.penalties, state)
        })
    }

    /// Checkpoint + suffix replay for every variant through the
    /// (possibly screened) objective, with the skipped-class counts
    /// folded into the session counter. The fold is a plain integer sum,
    /// so the counter — like the values — does not depend on chunking or
    /// worker count.
    fn evaluate_from_prefix(&mut self, variants: &[Vec<usize>]) -> Vec<ObjectiveValue> {
        let results = self.shard_from_prefix(variants, |core, state| {
            value_of_screened(&core.terms, &core.penalties, state, core.screen_tolerance)
        });
        results
            .into_iter()
            .map(|(value, skipped)| {
                self.skipped_classes += skipped;
                value
            })
            .collect()
    }

    /// The sharding skeleton shared by exact evaluation and move
    /// ranking: checkpoint + suffix replay per variant, in candidate
    /// chunks over the engine (chunking cannot change any result: each
    /// variant is processed wholly by one task, and results reassemble
    /// in submission order).
    fn shard_from_prefix<T, F>(&self, variants: &[Vec<usize>], kernel: F) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(&KtCore, &BranchEnsemble) -> T + Send + Sync + Clone + 'static,
    {
        let end = self.cursor.end();
        let ops_len = self.core.template.ops().len();
        if variants.len() > 1 && self.engine.is_pooled() {
            let chunk = variants.len().div_ceil(self.engine.workers() * 2).max(1);
            let tasks: Vec<_> = variants
                .chunks(chunk)
                .map(|chunk| {
                    let core = Arc::clone(&self.core);
                    let prefix = Arc::clone(self.cursor.prefix());
                    let chunk = chunk.to_vec();
                    let kernel = kernel.clone();
                    move || {
                        let mut scratch = (*prefix).clone();
                        chunk
                            .iter()
                            .map(|config| {
                                scratch.copy_from(&prefix);
                                scratch
                                    .apply_range(&core.template, config, end, ops_len)
                                    .expect("feasible suffix stays within the branch budget");
                                kernel(&core, &scratch)
                            })
                            .collect::<Vec<_>>()
                    }
                })
                .collect();
            self.engine.map(tasks).into_iter().flatten().collect()
        } else {
            let prefix = self.cursor.prefix();
            let mut scratch = (**prefix).clone();
            variants
                .iter()
                .map(|config| {
                    scratch.copy_from(prefix);
                    scratch
                        .apply_range(&self.core.template, config, end, ops_len)
                        .expect("feasible suffix stays within the branch budget");
                    kernel(&self.core, &scratch)
                })
                .collect()
        }
    }
}

/// Builds a standalone [`KtPolishSession`] for a template-expressible
/// ansatz — the screened-vs-exact A/B hook the benches and equivalence
/// tests drive directly (the search itself builds its session
/// internally). Returns `None` when the ansatz cannot compile to a
/// Clifford+T template.
pub fn kt_session(
    engine: &ExecEngine,
    ansatz: &dyn Ansatz,
    hamiltonian: &PauliOp,
    penalties: &[Penalty],
    screen_tolerance: f64,
) -> Option<KtPolishSession> {
    let template = CompiledAnsatz::compile_clifford_t(ansatz)?;
    let core = KtCore {
        num_qubits: ansatz.num_qubits(),
        template,
        terms: masks_of(hamiltonian),
        penalties: penalties.iter().map(|p| (p.weight, masks_of(p.squared_op()))).collect(),
        screen_tolerance,
    };
    Some(KtPolishSession::new(Arc::new(core), engine.clone()))
}

/// The polish endgame's accumulated outcome.
struct KtPolish {
    best_config: Vec<usize>,
    best_value: ObjectiveValue,
    trace: Vec<(f64, f64)>,
    last_accept: Option<usize>,
    screened_moves: u64,
}

/// The evaluator the polish driver calls, always with
/// `(base config, changed params, variants)`: `exact` values enter the
/// trace and the greedy chain; `rank` scores only order a batch before
/// the survivors are evaluated exactly.
trait KtPolishEval {
    fn exact(
        &mut self,
        base: &[usize],
        changed: &[usize],
        variants: &[Vec<usize>],
    ) -> Vec<ObjectiveValue>;
    fn rank(&mut self, base: &[usize], changed: &[usize], variants: &[Vec<usize>]) -> Vec<f64>;
}

/// Ranks a variant batch with the coarse bound-screened scores and keeps
/// the `rank_top` best-looking moves, restored to sweep order — the kT
/// counterpart of the Clifford polish's `polish_screen_top` surrogate
/// screen. The stable sort breaks score ties on batch index, so the
/// pruned set (and hence the trace over the survivors) is deterministic.
fn screen_moves(
    eval: &mut dyn KtPolishEval,
    base: &[usize],
    changed: &[usize],
    variants: Vec<Vec<usize>>,
    rank_top: usize,
) -> (Vec<Vec<usize>>, u64) {
    if rank_top == 0 || variants.len() <= rank_top {
        return (variants, 0);
    }
    let scores = eval.rank(base, changed, &variants);
    let mut order: Vec<usize> = (0..variants.len()).collect();
    order.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));
    let mut keep = order[..rank_top].to_vec();
    keep.sort_unstable();
    let pruned = (variants.len() - rank_top) as u64;
    (keep.into_iter().map(|k| variants[k].clone()).collect(), pruned)
}

/// 8-ary greedy polish: coordinate sweeps over the eighth-turn grid
/// (budget-filtered: a move may open a branch only while `t < k_max`)
/// followed by T-*migration* pair moves that relocate one non-Clifford
/// rotation to a different parameter at constant T count — the joint
/// move a single-coordinate sweep cannot make without first leaving the
/// budget or crossing an energy barrier. Acceptance replays the serial
/// greedy chain via [`chain_accept`], so the trace is independent of how
/// the variant batches were computed.
///
/// With `rank_top > 0` every batch larger than `rank_top` is first
/// ordered by the coarse bound-screened score ([`screen_moves`]) and
/// only the top `rank_top` moves are evaluated exactly; pruned moves
/// never enter the trace.
fn polish_kt(
    eval: &mut dyn KtPolishEval,
    start: Vec<usize>,
    start_value: ObjectiveValue,
    k_max: usize,
    sweeps: usize,
    rank_top: usize,
) -> KtPolish {
    let d = start.len();
    let mut best_config = start;
    let mut best_value = start_value;
    let mut trace: Vec<(f64, f64)> = Vec::new();
    let mut last_accept: Option<usize> = None;
    let mut screened_moves = 0u64;
    for _sweep in 0..sweeps {
        let mut improved = false;
        // Coordinate phase: every alternative eighth-turn per parameter
        // that keeps the configuration under budget, one batch per
        // coordinate.
        for i in 0..d {
            let current = best_config[i];
            let t = t_count_of(&best_config);
            let variants: Vec<Vec<usize>> = (0..8)
                .filter(|&v| v != current && t - current % 2 + v % 2 <= k_max)
                .map(|v| {
                    let mut config = best_config.clone();
                    config[i] = v;
                    config
                })
                .collect();
            if variants.is_empty() {
                continue;
            }
            let (variants, pruned) = screen_moves(eval, &best_config, &[i], variants, rank_top);
            screened_moves += pruned;
            let values = eval.exact(&best_config, &[i], &variants);
            let base_len = trace.len();
            trace.extend(values.iter().map(|v| (v.energy, v.penalized)));
            if let Some(idx) = chain_accept(&values, best_value.penalized, 1e-12) {
                best_config.clone_from(&variants[idx]);
                best_value = values[idx];
                last_accept = Some(base_len + idx + 1);
                improved = true;
            }
        }
        // Migration phase: move each T to every Clifford parameter, both
        // removal directions × both insertion directions per target.
        if k_max > 0 {
            let odd_params: Vec<usize> = (0..d).filter(|&i| best_config[i] % 2 == 1).collect();
            for i in odd_params {
                for j in 0..d {
                    if best_config[i] % 2 == 0 {
                        break; // this T already migrated away
                    }
                    if j == i || best_config[j] % 2 == 1 {
                        continue;
                    }
                    let mut variants = Vec::with_capacity(4);
                    for di in [1usize, 7] {
                        for dj in [1usize, 7] {
                            let mut config = best_config.clone();
                            config[i] = (config[i] + di) % 8;
                            config[j] = (config[j] + dj) % 8;
                            variants.push(config);
                        }
                    }
                    let (variants, pruned) =
                        screen_moves(eval, &best_config, &[i, j], variants, rank_top);
                    screened_moves += pruned;
                    let values = eval.exact(&best_config, &[i, j], &variants);
                    let base_len = trace.len();
                    trace.extend(values.iter().map(|v| (v.energy, v.penalized)));
                    if let Some(idx) = chain_accept(&values, best_value.penalized, 1e-12) {
                        best_config.clone_from(&variants[idx]);
                        best_value = values[idx];
                        last_accept = Some(base_len + idx + 1);
                        improved = true;
                    }
                }
            }
        }
        if !improved {
            break;
        }
    }
    KtPolish { best_config, best_value, trace, last_accept, screened_moves }
}

/// The search's evaluator: the compiled incremental session when the
/// ansatz is template-expressible, per-candidate circuit lowering
/// otherwise (serial: the borrowed ansatz cannot ship to pool workers).
/// Both paths run the same (possibly screened) objective and accumulate
/// the same counters.
struct KtEvaluator<'a> {
    session: Option<KtPolishSession>,
    ansatz: &'a dyn Ansatz,
    terms: &'a [MaskTerm],
    penalties: &'a [MaskPenalty],
    screen_tolerance: f64,
    fallback_skipped: u64,
}

impl KtEvaluator<'_> {
    fn fallback_state(&self, config: &[usize]) -> BranchEnsemble {
        BranchEnsemble::from_circuit(&self.ansatz.bind_eighth(config))
            .expect("t budget keeps the branch count in range")
    }

    fn fallback_value(&mut self, config: &[usize]) -> ObjectiveValue {
        let state = self.fallback_state(config);
        let (value, skipped) =
            value_of_screened(self.terms, self.penalties, &state, self.screen_tolerance);
        self.fallback_skipped += skipped;
        value
    }

    /// Arbitrary full configurations — the BO phase's candidate path.
    fn eval_batch(&mut self, configs: &[Vec<usize>]) -> Vec<ObjectiveValue> {
        match &mut self.session {
            Some(session) => session.evaluate_batch(configs),
            None => configs.iter().map(|config| self.fallback_value(config)).collect(),
        }
    }

    fn skipped_classes(&self) -> u64 {
        self.fallback_skipped + self.session.as_ref().map_or(0, |s| s.skipped_classes())
    }
}

impl KtPolishEval for KtEvaluator<'_> {
    fn exact(
        &mut self,
        base: &[usize],
        changed: &[usize],
        variants: &[Vec<usize>],
    ) -> Vec<ObjectiveValue> {
        match &mut self.session {
            Some(session) => session.evaluate_variants(base, changed, variants),
            None => variants.iter().map(|config| self.fallback_value(config)).collect(),
        }
    }

    fn rank(&mut self, base: &[usize], changed: &[usize], variants: &[Vec<usize>]) -> Vec<f64> {
        match &mut self.session {
            Some(session) => session.rank_variants(base, changed, variants),
            None => variants
                .iter()
                .map(|config| {
                    rank_value_of(self.terms, self.penalties, &self.fallback_state(config))
                })
                .collect(),
        }
    }
}

/// Runs the CAFQA+kT search with at most `k_max` T-like rotations, on
/// the process-global execution engine.
///
/// Seeds are 8-ary (use [`widen_clifford_config`] on a Clifford-only
/// CAFQA result — the paper inserts T gates "at prior Clifford gate
/// positions"). See [`run_cafqa_kt_on`] for the feasibility and
/// determinism contract.
///
/// # Errors
///
/// [`KtError::BudgetTooLarge`] when `k_max` exceeds
/// [`MAX_BRANCH_GATES`]; [`KtError::SeedInfeasible`] when a seed uses
/// more than `k_max` non-Clifford rotations.
pub fn run_cafqa_kt(
    ansatz: &dyn Ansatz,
    hamiltonian: &PauliOp,
    penalties: Vec<Penalty>,
    k_max: usize,
    seeds: &[Vec<usize>],
    opts: &CafqaOptions,
) -> Result<CafqaKtResult, KtError> {
    run_cafqa_kt_on(ExecEngine::global(), ansatz, hamiltonian, penalties, k_max, seeds, opts)
}

/// [`run_cafqa_kt`] on an explicit [`ExecEngine`].
///
/// # Feasibility and determinism
///
/// Three properties compose, and this section is the single source of
/// truth for them:
///
/// - **Feasible by construction.** The Bayesian layer does not sample
///   the raw 8-ary grid (where most of the space is over budget and a
///   rejection constant poisons the surrogate). It samples a genome of
///   `d` Clifford dimensions plus `k_max` *insertion* dimensions, each
///   either inert or turning one parameter by `±π/4`; decoded
///   configurations therefore carry at most `k_max` odd indices, every
///   evaluation runs a real branch simulation, and
///   [`CafqaKtResult::rejected_evaluations`] is always 0. The incumbent
///   is always simulable, so the search returns a structured
///   [`KtError`] on bad *inputs* instead of panicking on its own
///   output.
/// - **`k_max = 0` reproduces the Clifford search.** A zero budget
///   delegates wholesale to [`run_cafqa_on`] (same engine, options and
///   seeds, with seeds narrowed to the 4-ary grid) and widens the
///   result; the trace is bit-identical to the classic run's.
/// - **Worker-count bit-identity.** Candidate values are pure functions
///   of the candidate: terms sum in storage order, branch-pair classes
///   in one fixed full-range fold ([`value_of`]'s contract), and the
///   engine reassembles shard results in submission order. Changing the
///   worker count — including to 1 — changes no bit of the trace,
///   matching the Clifford search's contract.
///
/// The polish endgame ([`KtPolishSession`]) extends the incremental
/// prefix-checkpoint kernel across the T-gate frontier and adds
/// T-migration pair moves at constant T count; its greedy acceptance
/// fold only ever improves on the BO incumbent.
///
/// With [`CafqaOptions::screen_tolerance`] or
/// [`CafqaOptions::kt_rank_top`] nonzero, evaluations run behind the
/// quadratic-Clifford bound screen and polish batches are bound-ranked —
/// see the [screening and
/// tolerance](CafqaOptions#screening-and-tolerance) notes for the
/// tolerance semantics and what stays deterministic. At the defaults
/// (`0.0` / `0`) every path above is the frozen exact one, bit for bit.
///
/// # Errors
///
/// As for [`run_cafqa_kt`].
pub fn run_cafqa_kt_on(
    engine: &ExecEngine,
    ansatz: &dyn Ansatz,
    hamiltonian: &PauliOp,
    penalties: Vec<Penalty>,
    k_max: usize,
    seeds: &[Vec<usize>],
    opts: &CafqaOptions,
) -> Result<CafqaKtResult, KtError> {
    let d = ansatz.num_parameters();
    if k_max > MAX_BRANCH_GATES {
        return Err(KtError::BudgetTooLarge { k_max, max: MAX_BRANCH_GATES });
    }
    let mut genome_seeds = Vec::with_capacity(seeds.len());
    for (index, seed) in seeds.iter().enumerate() {
        genome_seeds.push(
            encode_seed(seed, d, k_max).map_err(|t_count| KtError::SeedInfeasible {
                seed: index,
                t_count,
                k_max,
            })?,
        );
    }
    if k_max == 0 {
        // Zero budget: the space *is* the Clifford space. Delegate to the
        // classic search (bit-identical trace) and widen the result.
        let clifford_seeds: Vec<Vec<usize>> =
            genome_seeds.iter().map(|g| g[..d].to_vec()).collect();
        let r = run_cafqa_on(engine, ansatz, hamiltonian, penalties, &clifford_seeds, opts);
        return Ok(CafqaKtResult {
            best_config: widen_clifford_config(&r.best_config),
            energy: r.energy,
            penalized: r.penalized,
            t_count: 0,
            feasible_evaluations: r.evaluations,
            rejected_evaluations: 0,
            iterations_to_best: r.iterations_to_best,
            polish_evaluations: r.polish_evaluations,
            trace: r.trace,
            screened_classes: 0,
            screened_moves: 0,
        });
    }

    let terms = masks_of(hamiltonian);
    let penalty_masks: Vec<MaskPenalty> =
        penalties.iter().map(|p| (p.weight, masks_of(p.squared_op()))).collect();
    // Template-expressible ansätze get the compiled incremental path;
    // anything else falls back to per-candidate circuit lowering (serial:
    // the borrowed ansatz cannot ship to pool workers).
    let session = CompiledAnsatz::compile_clifford_t(ansatz).map(|template| {
        let core = KtCore {
            num_qubits: ansatz.num_qubits(),
            template,
            terms: terms.clone(),
            penalties: penalty_masks.clone(),
            screen_tolerance: opts.screen_tolerance,
        };
        KtPolishSession::new(Arc::new(core), engine.clone())
    });
    let mut evaluator = KtEvaluator {
        session,
        ansatz,
        terms: &terms,
        penalties: &penalty_masks,
        screen_tolerance: opts.screen_tolerance,
        fallback_skipped: 0,
    };

    let space = kt_search_space(d, k_max);
    let mut raw_trace: Vec<(f64, f64)> = Vec::new();
    let bo_opts = BoOptions {
        warmup: opts.warmup,
        iterations: opts.iterations,
        seed: opts.seed,
        patience: opts.patience,
        proposals_per_refit: opts.proposals_per_refit,
        forest: ForestOptions { window: opts.forest_window, ..Default::default() },
        ..Default::default()
    };
    let result = minimize_with(
        &space,
        |batch: &[Vec<usize>]| {
            let decoded: Vec<Vec<usize>> =
                batch.iter().map(|genome| decode_genome(genome, d)).collect();
            let values = evaluator.eval_batch(&decoded);
            values
                .iter()
                .map(|v| {
                    raw_trace.push((v.energy, v.penalized));
                    v.penalized
                })
                .collect()
        },
        &genome_seeds,
        &bo_opts,
        engine,
    );
    let bo_evaluations = raw_trace.len();
    let best_genome = if result.best_config.is_empty() {
        vec![0; d + k_max] // zero-budget search phases: polish from the origin
    } else {
        result.best_config
    };
    let best8 = decode_genome(&best_genome, d);
    let start_value = match raw_trace.get(result.iterations_to_best.wrapping_sub(1)) {
        Some(&(energy, penalized)) => ObjectiveValue { energy, penalized },
        None => evaluator.eval_batch(std::slice::from_ref(&best8))[0],
    };

    let polish =
        polish_kt(&mut evaluator, best8, start_value, k_max, opts.polish_sweeps, opts.kt_rank_top);

    let mut iterations_to_best = result.iterations_to_best;
    if let Some(accept) = polish.last_accept {
        iterations_to_best = bo_evaluations + accept;
    }
    raw_trace.extend(polish.trace.iter().copied());
    let mut best = f64::INFINITY;
    let trace: Vec<SearchPoint> = raw_trace
        .iter()
        .map(|&(energy, penalized)| {
            best = best.min(penalized);
            SearchPoint { energy, penalized, best_so_far: best }
        })
        .collect();
    Ok(CafqaKtResult {
        t_count: t_count_of(&polish.best_config),
        best_config: polish.best_config,
        energy: polish.best_value.energy,
        penalized: polish.best_value.penalized,
        feasible_evaluations: trace.len(),
        rejected_evaluations: 0,
        iterations_to_best,
        polish_evaluations: polish.trace.len(),
        trace,
        screened_classes: evaluator.skipped_classes(),
        screened_moves: polish.screened_moves,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cafqa_circuit::EfficientSu2;
    use cafqa_clifford::CliffordTState;

    #[test]
    fn t_counting() {
        assert_eq!(t_count_of(&[0, 2, 4, 6]), 0);
        assert_eq!(t_count_of(&[1, 2, 3, 0]), 2);
        assert_eq!(widen_clifford_config(&[0, 1, 2, 3]), vec![0, 2, 4, 6]);
    }

    #[test]
    fn genome_space_is_feasible_by_construction() {
        let (d, k_max) = (5, 2);
        let space = kt_search_space(d, k_max);
        assert_eq!(space.cardinalities, vec![4, 4, 4, 4, 4, 11, 11]);
        // A deterministic sweep over genomes: decode never exceeds the
        // budget, whatever the insertion dimensions say.
        for s in 0..300usize {
            let genome: Vec<usize> = space
                .cardinalities
                .iter()
                .enumerate()
                .map(|(i, &card)| (s.wrapping_mul(2654435761).wrapping_add(i * 40503)) % card)
                .collect();
            let config = decode_genome(&genome, d);
            assert!(t_count_of(&config) <= k_max, "{genome:?} -> {config:?}");
            assert!(config.iter().all(|&k| k < 8));
        }
        // Encode ∘ decode is the identity on feasible configurations.
        for config in [vec![0, 2, 4, 6, 0], vec![1, 0, 0, 0, 7], vec![3, 6, 1, 0, 2]] {
            let genome = encode_seed(&config, d, k_max).unwrap();
            assert_eq!(decode_genome(&genome, d), config);
        }
        // Over-budget seeds report their T count.
        assert_eq!(encode_seed(&[1, 1, 1, 0, 0], d, k_max), Err(3));
    }

    #[test]
    fn infeasible_inputs_are_structured_errors() {
        let h: PauliOp = "Z".parse().unwrap();
        let ansatz = EfficientSu2::new(1, 0);
        let opts = CafqaOptions::quick();
        // The old implementation panicked post-search on infeasible
        // incumbents; now over-budget seeds fail up front, structured.
        let err = run_cafqa_kt(&ansatz, &h, Vec::new(), 1, &[vec![1, 1]], &opts).unwrap_err();
        assert_eq!(err, KtError::SeedInfeasible { seed: 0, t_count: 2, k_max: 1 });
        let err =
            run_cafqa_kt(&ansatz, &h, Vec::new(), MAX_BRANCH_GATES + 1, &[], &opts).unwrap_err();
        assert_eq!(
            err,
            KtError::BudgetTooLarge { k_max: MAX_BRANCH_GATES + 1, max: MAX_BRANCH_GATES }
        );
        assert!(err.to_string().contains("branch-engine limit"));
    }

    #[test]
    fn kt_beats_clifford_on_non_clifford_ground_state() {
        // H = cos(π/4) Z + sin(π/4) X has ground state requiring a π/4
        // rotation; Clifford-only caps out at −cos(π/4) ≈ −0.707 while one
        // T-like rotation reaches −1.
        let h: PauliOp = "-0.70710678*Z - 0.70710678*X".parse().unwrap();
        let ansatz = EfficientSu2::new(1, 0);
        let opts = CafqaOptions { warmup: 20, iterations: 60, ..Default::default() };
        let clifford_best = {
            // Exhaust the 16 Clifford configs on the dense oracle.
            let mut best = f64::INFINITY;
            for a in 0..4 {
                for b in 0..4 {
                    let circuit = ansatz.bind_eighth(&[2 * a, 2 * b]);
                    let state = CliffordTState::from_circuit(&circuit).unwrap();
                    best = best.min(state.expectation(&h));
                }
            }
            best
        };
        let kt = run_cafqa_kt(&ansatz, &h, Vec::new(), 1, &[], &opts).unwrap();
        assert!(kt.t_count <= 1);
        assert!(kt.energy < clifford_best - 0.1, "kT {} vs Clifford {clifford_best}", kt.energy);
        assert!((kt.energy + 1.0).abs() < 0.05, "kT energy {}", kt.energy);
        assert_eq!(kt.rejected_evaluations, 0, "the feasible genome never rejects");
        assert_eq!(kt.feasible_evaluations, kt.trace.len());
        assert!(kt.polish_evaluations < kt.trace.len());
    }

    #[test]
    fn budget_zero_reduces_to_clifford() {
        let h: PauliOp = "Z".parse().unwrap();
        let ansatz = EfficientSu2::new(1, 0);
        let opts = CafqaOptions { warmup: 30, iterations: 40, ..Default::default() };
        let kt = run_cafqa_kt(&ansatz, &h, Vec::new(), 0, &[vec![0, 0]], &opts).unwrap();
        assert_eq!(kt.t_count, 0);
        assert!((kt.energy + 1.0).abs() < 1e-9); // Ry(π) flips to |1⟩, ⟨Z⟩ = −1.
    }

    #[test]
    fn budget_zero_is_bit_identical_to_the_clifford_search() {
        let h: PauliOp = "0.5*ZZ + 0.25*XI - 0.3*IZ".parse().unwrap();
        let ansatz = EfficientSu2::new(2, 0);
        let opts =
            CafqaOptions { warmup: 20, iterations: 30, polish_sweeps: 2, ..Default::default() };
        let clifford = crate::runner::run_cafqa(&ansatz, &h, Vec::new(), &[], &opts);
        let kt = run_cafqa_kt(&ansatz, &h, Vec::new(), 0, &[], &opts).unwrap();
        assert_eq!(kt.best_config, widen_clifford_config(&clifford.best_config));
        assert_eq!(kt.energy.to_bits(), clifford.energy.to_bits());
        assert_eq!(kt.trace.len(), clifford.trace.len());
        for (a, b) in kt.trace.iter().zip(&clifford.trace) {
            assert_eq!(a.penalized.to_bits(), b.penalized.to_bits());
            assert_eq!(a.energy.to_bits(), b.energy.to_bits());
        }
        assert_eq!(kt.feasible_evaluations, clifford.evaluations);
        assert_eq!(kt.iterations_to_best, clifford.iterations_to_best);
    }

    #[test]
    fn trace_is_bit_identical_at_any_worker_count() {
        let h: PauliOp = "-0.70710678*Z - 0.70710678*X".parse().unwrap();
        let ansatz = EfficientSu2::new(1, 0);
        let opts =
            CafqaOptions { warmup: 15, iterations: 25, polish_sweeps: 2, ..Default::default() };
        let runs: Vec<CafqaKtResult> = [1usize, 2, 8]
            .iter()
            .map(|&workers| {
                let engine = ExecEngine::new(workers);
                run_cafqa_kt_on(&engine, &ansatz, &h, Vec::new(), 1, &[], &opts).unwrap()
            })
            .collect();
        let reference = &runs[0];
        for run in &runs[1..] {
            assert_eq!(run.best_config, reference.best_config);
            assert_eq!(run.energy.to_bits(), reference.energy.to_bits());
            assert_eq!(run.iterations_to_best, reference.iterations_to_best);
            assert_eq!(run.trace.len(), reference.trace.len());
            for (a, b) in run.trace.iter().zip(&reference.trace) {
                assert_eq!(a.energy.to_bits(), b.energy.to_bits());
                assert_eq!(a.penalized.to_bits(), b.penalized.to_bits());
            }
        }
    }

    #[test]
    fn screening_counters_are_zero_at_the_defaults() {
        let h: PauliOp = "-0.70710678*Z - 0.70710678*X".parse().unwrap();
        let ansatz = EfficientSu2::new(1, 0);
        let opts = CafqaOptions { warmup: 10, iterations: 15, ..Default::default() };
        let kt = run_cafqa_kt(&ansatz, &h, Vec::new(), 1, &[], &opts).unwrap();
        assert_eq!(kt.screened_classes, 0);
        assert_eq!(kt.screened_moves, 0);
    }

    #[test]
    fn rank_top_prunes_polish_moves_and_counts_them() {
        let h: PauliOp = "0.5*ZZ + 0.25*XI - 0.3*IZ + 0.1*YY".parse().unwrap();
        let ansatz = EfficientSu2::new(2, 0);
        let base =
            CafqaOptions { warmup: 15, iterations: 20, polish_sweeps: 2, ..Default::default() };
        let full = run_cafqa_kt(&ansatz, &h, Vec::new(), 2, &[], &base).unwrap();
        let ranked_opts = CafqaOptions { kt_rank_top: 2, ..base };
        let ranked = run_cafqa_kt(&ansatz, &h, Vec::new(), 2, &[], &ranked_opts).unwrap();
        // Coordinate batches have up to 7 variants; rank_top = 2 must
        // have pruned some, and every pruned move is one the trace never
        // paid for.
        assert!(ranked.screened_moves > 0, "no moves pruned");
        assert!(
            ranked.polish_evaluations < full.polish_evaluations,
            "ranked polish {} vs full {}",
            ranked.polish_evaluations,
            full.polish_evaluations
        );
        // The greedy fold still only ever improves on its BO incumbent,
        // and the BO phase itself (rank-agnostic) is unchanged.
        assert!(ranked.penalized <= full.trace[full.iterations_to_best - 1].penalized + 1e-9);
        assert_eq!(ranked.rejected_evaluations, 0);
        assert_eq!(ranked.screened_classes, 0, "ranking alone skips no classes");
    }

    #[test]
    fn screened_search_reports_skips_and_stays_deterministic() {
        // Mixed coefficient weights so a mid-sized tolerance screens the
        // light term's classes but not the heavy ones'.
        let h: PauliOp = "0.6*ZZ + 0.4*XX + 0.001*YY + 0.0005*XY".parse().unwrap();
        let ansatz = EfficientSu2::new(2, 0);
        let opts = CafqaOptions {
            warmup: 15,
            iterations: 20,
            polish_sweeps: 1,
            screen_tolerance: 1e-3,
            ..Default::default()
        };
        let runs: Vec<CafqaKtResult> = [1usize, 2, 8]
            .iter()
            .map(|&workers| {
                let engine = ExecEngine::new(workers);
                run_cafqa_kt_on(&engine, &ansatz, &h, Vec::new(), 2, &[], &opts).unwrap()
            })
            .collect();
        assert!(runs[0].screened_classes > 0, "tolerance 1e-3 never fired");
        for run in &runs[1..] {
            assert_eq!(run.screened_classes, runs[0].screened_classes);
            assert_eq!(run.best_config, runs[0].best_config);
            assert_eq!(run.energy.to_bits(), runs[0].energy.to_bits());
            assert_eq!(run.trace.len(), runs[0].trace.len());
            for (a, b) in run.trace.iter().zip(&runs[0].trace) {
                assert_eq!(a.penalized.to_bits(), b.penalized.to_bits());
            }
        }
    }

    #[test]
    fn search_runs_beyond_the_dense_qubit_cap() {
        // 26 qubits: the dense branch backend cannot even represent a
        // candidate, but the tableau ensemble searches and polishes to
        // the exact single-qubit optimum.
        let n = 26;
        let ansatz = EfficientSu2::new(n, 0);
        let h = PauliOp::from_terms(
            n,
            [(
                cafqa_linalg::Complex64::ONE,
                cafqa_pauli::PauliString::single(n, 0, cafqa_pauli::Pauli::Z),
            )],
        );
        let opts =
            CafqaOptions { warmup: 8, iterations: 8, polish_sweeps: 1, ..Default::default() };
        let kt = run_cafqa_kt(&ansatz, &h, Vec::new(), 1, &[], &opts).unwrap();
        assert_eq!(kt.best_config.len(), ansatz.num_parameters());
        assert!(kt.t_count <= 1);
        // ⟨Z₀⟩ = cos(θ_ry) on the no-entangler ansatz: the coordinate
        // polish reaches the exact minimum.
        assert!((kt.energy + 1.0).abs() < 1e-9, "energy {}", kt.energy);
    }
}
