//! The CAFQA classical objective: stabilizer-state energy plus sector
//! penalties, evaluated by tableau simulation (paper §3, steps 2–7).

use std::sync::Arc;

use cafqa_circuit::{Ansatz, CompiledAnsatz};
use cafqa_clifford::{SlicedTerms, Tableau};
use cafqa_linalg::Complex64;
use cafqa_pauli::{PauliOp, PauliString};

use crate::cursor::PrefixCursor;
use crate::engine::ExecEngine;

/// A quadratic sector penalty `weight · ⟨(O − target)²⟩`, the paper's
/// mechanism for imposing electron-count (and spin) preservation directly
/// on the objective function (§3 step 5, §7.1.1 for the H2+ cation).
#[derive(Debug, Clone)]
pub struct Penalty {
    /// Human-readable label ("electron count", "sz", …).
    pub label: String,
    /// The squared shifted operator `(O − target)²`, precomputed.
    squared: PauliOp,
    /// `squared` laid out for the bit-sliced sum kernel.
    sliced: SlicedTerms,
    /// Penalty weight.
    pub weight: f64,
}

impl Penalty {
    /// Builds a penalty from the operator, its target eigenvalue and a
    /// weight. The squared operator is formed once, symbolically.
    pub fn new(label: impl Into<String>, op: &PauliOp, target: f64, weight: f64) -> Self {
        let mut shifted = op.clone();
        shifted.add_term(Complex64::from(-target), PauliString::identity(op.num_qubits()));
        let squared = shifted.mul_op(&shifted).pruned(1e-12);
        let sliced = SlicedTerms::from_op(&squared);
        Penalty { label: label.into(), squared, sliced, weight }
    }

    /// The penalty value on a prepared stabilizer state: bit-identical
    /// to `weight · tableau.expectation(self.squared_op())`.
    pub fn value(&self, tableau: &Tableau) -> f64 {
        self.weight * tableau.expectation_sum(&self.sliced, 0..self.sliced.len())
    }

    /// The penalty operator (for non-stabilizer evaluation paths).
    pub fn squared_op(&self) -> &PauliOp {
        &self.squared
    }
}

/// The classical evaluation of one Clifford-ansatz configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObjectiveValue {
    /// The raw Hamiltonian expectation `⟨H⟩` (what gets reported).
    pub energy: f64,
    /// `⟨H⟩` plus all penalties (what gets minimized).
    pub penalized: f64,
}

/// Hamiltonians at or above this term count sum their terms in fixed
/// chunks (see [`EvalCore::hamiltonian_expectation`]) — and, when an
/// engine is at hand, shard those chunks across idle pool workers
/// ([`EvalCore::hamiltonian_expectation_on`]).
pub(crate) const CHUNKED_TERM_THRESHOLD: usize = 4096;

/// Fixed partial-sum count for large Hamiltonians. A *constant* (rather
/// than the host parallelism PR 2 used) makes the floating-point
/// association — and therefore every energy — identical across hosts and
/// worker counts, which the engine's determinism contract requires.
const TERM_CHUNKS: usize = 8;

/// Hamiltonians at or above this term count use the *wide* chunk
/// association ([`TERM_CHUNKS_WIDE`]): at Cr2 scale (76k–149k terms) 8
/// chunks leave pools beyond 8 workers idle and make each chunk several
/// milliseconds of latency. The tier choice is a pure function of the
/// term count (never of the host or worker count), so energies remain
/// host-independent and bit-identical at any worker count *within* a
/// tier; the two associations differ by FP reassociation like any two
/// chunk counts would.
pub(crate) const WIDE_TERM_THRESHOLD: usize = 65_536;

/// Fixed partial-sum count for the ≥[`WIDE_TERM_THRESHOLD`]-term tier.
const TERM_CHUNKS_WIDE: usize = 32;

/// The frozen term-count → chunk-count association shared by every
/// evaluation path (see [`EvalCore::term_chunk_ranges`]).
const fn term_chunks_for(len: usize) -> usize {
    if len >= WIDE_TERM_THRESHOLD {
        TERM_CHUNKS_WIDE
    } else {
        TERM_CHUNKS
    }
}

/// Batches below this many row-update units stay on the calling thread:
/// dispatching to the pool costs a few microseconds per shard, so tiny
/// workloads are faster serial.
const BATCH_DISPATCH_THRESHOLD: usize = 8192;

/// Reusable per-thread evaluation state: one stabilizer tableau that is
/// re-prepared in place for every candidate, so the hot loop never
/// allocates. Create one per worker with [`CliffordObjective::scratch`]
/// and pass it to [`CliffordObjective::evaluate_with`].
///
/// The tableau sits behind an `Arc` so the term-sharded expectation path
/// can hand read-only clones of the handle to helper workers without
/// copying the tableau; between candidates the `Arc` is uniquely owned
/// again (every nested task drops its clone before the batch completes)
/// and the state is re-prepared in place.
pub struct EvalScratch {
    tableau: Arc<Tableau>,
}

impl EvalScratch {
    /// The tableau, uniquely borrowed for in-place re-preparation. Falls
    /// back to clone-on-write if a handle were ever still shared — it
    /// never is in practice (see the `Arc` note on the type), so this
    /// stays allocation-free.
    fn tableau_mut(&mut self) -> &mut Tableau {
        Arc::make_mut(&mut self.tableau)
    }
}

/// The owned, shareable evaluation state behind [`CliffordObjective`]:
/// the compiled ansatz template plus the flattened Hamiltonian terms and
/// penalties. It borrows nothing, so batch shards can carry an
/// `Arc<EvalCore>` into the persistent worker pool as fully `'static`
/// jobs — the trick that keeps the engine free of scoped threads (and
/// the workspace free of `unsafe`).
#[derive(Clone)]
pub(crate) struct EvalCore {
    num_qubits: usize,
    /// The ansatz structure lowered once into primitive gates + rotation
    /// slots; `None` falls back to per-candidate `bind_clifford` lowering
    /// through the borrowed ansatz (serial only).
    template: Option<CompiledAnsatz>,
    /// The Hamiltonian's real terms, in operator order, laid out for the
    /// bit-sliced sum kernel ([`Tableau::expectation_sum`]).
    terms: SlicedTerms,
    pub(crate) penalties: Vec<Penalty>,
}

impl EvalCore {
    /// A fresh per-worker scratch tableau.
    pub(crate) fn scratch(&self) -> EvalScratch {
        EvalScratch { tableau: Arc::new(Tableau::zero_state(self.num_qubits)) }
    }

    pub(crate) fn is_compiled(&self) -> bool {
        self.template.is_some()
    }

    /// `⟨H⟩` on a prepared tableau. Small Hamiltonians sum straight
    /// through; large ones (18/34-qubit systems) accumulate
    /// [`TERM_CHUNKS`] (or, at Cr2 scale, [`TERM_CHUNKS_WIDE`]) partial
    /// sums combined in chunk order — one fixed association per term
    /// count shared by every evaluation path, so energies are
    /// bit-identical serial vs. batched vs. term-sharded, at any worker
    /// count, on any host.
    fn hamiltonian_expectation(&self, tableau: &Tableau) -> f64 {
        if self.terms.len() < CHUNKED_TERM_THRESHOLD {
            return tableau.expectation_sum(&self.terms, 0..self.terms.len());
        }
        self.term_chunk_ranges().map(|range| tableau.expectation_sum(&self.terms, range)).sum()
    }

    /// The fixed chunk boundaries of the large-Hamiltonian association —
    /// exactly the ranges `terms.chunks(len.div_ceil(term_chunks_for(len)))`
    /// visits, as one definition shared by every sharded path (so the
    /// bit-identity contract cannot drift between them). The chunk count
    /// is [`TERM_CHUNKS`], widening to [`TERM_CHUNKS_WIDE`] at
    /// [`WIDE_TERM_THRESHOLD`] terms — a pure function of the term count,
    /// so the association (and the energy) never depends on the host.
    fn term_chunk_ranges(&self) -> impl Iterator<Item = std::ops::Range<usize>> {
        let len = self.terms.len();
        let chunk = len.div_ceil(term_chunks_for(len));
        (0..len).step_by(chunk).map(move |start| start..(start + chunk).min(len))
    }

    /// `(string, coefficient, ⟨P⟩)` for the terms `range`, in order.
    fn term_expectations_in(
        &self,
        tableau: &Tableau,
        range: std::ops::Range<usize>,
    ) -> Vec<(PauliString, f64, i8)> {
        range
            .map(|t| {
                let (x, z, c) = self.terms.term(t);
                (PauliString::from_masks(self.num_qubits, x, z), c, tableau.expectation_masks(x, z))
            })
            .collect()
    }

    /// [`Self::hamiltonian_expectation`] with the [`TERM_CHUNKS`] partial
    /// sums sharded across the engine via
    /// [`ExecEngine::map_nested`] — safe to call from inside a pool
    /// worker, where idle workers pick up chunks and a saturated pool
    /// computes them inline. The chunk boundaries and the chunk-order
    /// combination are exactly the serial path's, so the energy is
    /// bit-identical at any worker count; engines without a pool take
    /// the serial path directly (keeping the classic hot loop
    /// allocation-free).
    fn hamiltonian_expectation_on(
        self: &Arc<Self>,
        tableau: &Arc<Tableau>,
        engine: &ExecEngine,
    ) -> f64 {
        if self.terms.len() < CHUNKED_TERM_THRESHOLD || engine.workers() <= 1 {
            return self.hamiltonian_expectation(tableau);
        }
        let tasks: Vec<_> = self
            .term_chunk_ranges()
            .map(|range| {
                let core = Arc::clone(self);
                let tableau = Arc::clone(tableau);
                move || tableau.expectation_sum(&core.terms, range)
            })
            .collect();
        engine.map_nested(tasks).into_iter().sum()
    }

    /// Energy + penalties on a prepared tableau.
    fn value_on(&self, tableau: &Tableau) -> ObjectiveValue {
        let energy = self.hamiltonian_expectation(tableau);
        self.penalize(energy, tableau)
    }

    /// [`Self::value_on`] with the term sum engine-sharded. Penalty
    /// operators are small (squared sector operators), so they stay on
    /// the calling thread.
    fn value_on_engine(
        self: &Arc<Self>,
        tableau: &Arc<Tableau>,
        engine: &ExecEngine,
    ) -> ObjectiveValue {
        let energy = self.hamiltonian_expectation_on(tableau, engine);
        self.penalize(energy, tableau)
    }

    fn penalize(&self, energy: f64, tableau: &Tableau) -> ObjectiveValue {
        let penalized = energy + self.penalties.iter().map(|p| p.value(tableau)).sum::<f64>();
        ObjectiveValue { energy, penalized }
    }

    /// Evaluates one configuration through the compiled template.
    ///
    /// # Panics
    ///
    /// Panics if the ansatz did not compile — engine shards are only
    /// built for compiled objectives (see
    /// [`CliffordObjective::evaluate_batch`]).
    pub(crate) fn evaluate(&self, config: &[usize], scratch: &mut EvalScratch) -> ObjectiveValue {
        let template = self.template.as_ref().expect("engine shards require a compiled template");
        scratch.tableau_mut().run_compiled(template, config);
        self.value_on(&scratch.tableau)
    }

    /// [`Self::evaluate`] with the large-Hamiltonian term sum sharded
    /// over `engine` — what batch shards running *on* the pool call, so
    /// a few huge candidates can still occupy the whole pool.
    ///
    /// # Panics
    ///
    /// Panics if the ansatz did not compile (see [`Self::evaluate`]).
    pub(crate) fn evaluate_on(
        self: &Arc<Self>,
        config: &[usize],
        scratch: &mut EvalScratch,
        engine: &ExecEngine,
    ) -> ObjectiveValue {
        let template = self.template.as_ref().expect("engine shards require a compiled template");
        scratch.tableau_mut().run_compiled(template, config);
        self.value_on_engine(&scratch.tableau, engine)
    }

    /// The incremental polish kernel: evaluates a *neighbor* of the
    /// configuration a `prefix` checkpoint was prepared for, by restoring
    /// the checkpoint into the scratch and replaying template ops from
    /// `start` onward with the neighbor's `config` — instead of
    /// `reset_zero` + full `run_compiled`. The caller guarantees `prefix`
    /// holds the state after ops `0..start` of a configuration agreeing
    /// with `config` on every slot read before `start`
    /// (`CompiledAnsatz::first_op_of`); the resulting tableau — and
    /// therefore every value — is then bit-identical to a full
    /// re-preparation, because prefix + suffix is literally the same
    /// integer gate sequence.
    ///
    /// # Panics
    ///
    /// Panics if the ansatz did not compile (see [`Self::evaluate`]).
    pub(crate) fn evaluate_neighbor(
        &self,
        scratch: &mut EvalScratch,
        prefix: &Tableau,
        start: usize,
        config: &[usize],
    ) -> ObjectiveValue {
        self.prepare_neighbor(scratch, prefix, start, config);
        self.value_on(&scratch.tableau)
    }

    /// [`Self::evaluate_neighbor`] with the large-Hamiltonian term sum
    /// sharded over `engine` — the path polish-move shards running on the
    /// pool take, so big-H neighbors reuse the fixed 8-chunk association
    /// across idle workers exactly like [`Self::evaluate_on`].
    pub(crate) fn evaluate_neighbor_on(
        self: &Arc<Self>,
        scratch: &mut EvalScratch,
        prefix: &Arc<Tableau>,
        start: usize,
        config: &[usize],
        engine: &ExecEngine,
    ) -> ObjectiveValue {
        self.prepare_neighbor(scratch, prefix, start, config);
        self.value_on_engine(&scratch.tableau, engine)
    }

    fn prepare_neighbor(
        &self,
        scratch: &mut EvalScratch,
        prefix: &Tableau,
        start: usize,
        config: &[usize],
    ) {
        let template = self.template.as_ref().expect("neighbor eval requires a compiled template");
        let tableau = scratch.tableau_mut();
        tableau.copy_from(prefix);
        tableau.apply_from(template, config, start);
    }
}

/// The CAFQA objective: binds discrete Clifford indices into the ansatz,
/// simulates the stabilizer state, and returns `⟨H⟩` plus penalties.
///
/// Batch evaluation runs on a persistent [`ExecEngine`] — the process
/// global one by default, or the engine handed in with
/// [`CliffordObjective::with_engine`] (what
/// [`run_cafqa_on`](crate::run_cafqa_on) does, so one pool serves the
/// whole search).
pub struct CliffordObjective<'a> {
    pub(crate) ansatz: &'a dyn Ansatz,
    pub(crate) hamiltonian: &'a PauliOp,
    core: Arc<EvalCore>,
    /// `None` resolves to [`ExecEngine::global`] lazily, at the first
    /// batch large enough to dispatch — so objectives that only ever
    /// evaluate serially never spawn the process-wide pool as a side
    /// effect. Single-candidate term sharding (≥ 4096 terms) engages
    /// only when an engine was attached explicitly.
    engine: Option<ExecEngine>,
}

impl<'a> CliffordObjective<'a> {
    /// Creates the objective, compiling the ansatz structure into a
    /// primitive-gate template once (see [`CompiledAnsatz`]); ansätze that
    /// cannot be compiled transparently use the per-candidate lowering.
    ///
    /// # Panics
    ///
    /// Panics if the Hamiltonian width differs from the ansatz width.
    pub fn new(ansatz: &'a dyn Ansatz, hamiltonian: &'a PauliOp) -> Self {
        assert_eq!(
            ansatz.num_qubits(),
            hamiltonian.num_qubits(),
            "ansatz/hamiltonian width mismatch"
        );
        let terms = SlicedTerms::from_op(hamiltonian);
        let template = CompiledAnsatz::compile(ansatz);
        let core = Arc::new(EvalCore {
            num_qubits: ansatz.num_qubits(),
            template,
            terms,
            penalties: Vec::new(),
        });
        CliffordObjective { ansatz, hamiltonian, core, engine: None }
    }

    /// Routes this objective's batch evaluation through `engine` instead
    /// of the process-global pool.
    pub fn with_engine(mut self, engine: ExecEngine) -> Self {
        self.engine = Some(engine);
        self
    }

    /// The engine batch evaluation dispatches on (the process-global one
    /// unless [`Self::with_engine`] overrode it).
    pub fn engine(&self) -> &ExecEngine {
        self.engine.as_ref().unwrap_or_else(|| ExecEngine::global())
    }

    /// Whether the ansatz compiled to a template (the fast path).
    pub fn is_compiled(&self) -> bool {
        self.core.is_compiled()
    }

    /// Register width of the objective's ansatz/Hamiltonian pair.
    pub fn num_qubits(&self) -> usize {
        self.core.num_qubits
    }

    /// Starts an incremental polish session at `base`: evaluations of
    /// configurations that differ from the session base in one or two
    /// rotation slots replay template ops from the earliest affected slot
    /// onward (over a cached prefix tableau) instead of re-preparing the
    /// whole circuit — bit-identical to full re-preparation by
    /// construction (see [`PolishSession`]). Returns `None` when the
    /// ansatz did not compile; callers fall back to
    /// [`Self::evaluate_batch`], which has identical semantics.
    ///
    /// # Panics
    ///
    /// Panics if `base` has the wrong length.
    pub fn polish_session(&self, base: Vec<usize>) -> Option<PolishSession> {
        let template = self.core.template.as_ref()?;
        assert_eq!(base.len(), template.num_parameters(), "base config length mismatch");
        Some(PolishSession {
            core: Arc::clone(&self.core),
            engine: self.engine.clone(),
            cursor: PrefixCursor::new(
                template,
                Tableau::zero_state(self.core.num_qubits),
                base.clone(),
            ),
            scratch: self.core.scratch(),
            config_buf: base.clone(),
            base,
        })
    }

    /// The shared evaluation core (for in-crate engine call sites).
    pub(crate) fn core(&self) -> &Arc<EvalCore> {
        &self.core
    }

    /// A fresh evaluation scratch; reuse it across candidates on one
    /// thread to keep the search loop allocation-free.
    pub fn scratch(&self) -> EvalScratch {
        self.core.scratch()
    }

    /// Prepares the candidate's stabilizer state into the scratch tableau.
    fn prepare(&self, config: &[usize], scratch: &mut EvalScratch) {
        if let Some(template) = &self.core.template {
            scratch.tableau_mut().run_compiled(template, config);
        } else {
            let circuit = self.ansatz.bind_clifford(config);
            scratch.tableau = Arc::new(
                Tableau::from_circuit(&circuit)
                    .expect("clifford-bound ansatz must be a Clifford circuit"),
            );
        }
    }

    /// Adds a sector penalty.
    pub fn with_penalty(mut self, penalty: Penalty) -> Self {
        assert_eq!(
            penalty.squared.num_qubits(),
            self.hamiltonian.num_qubits(),
            "penalty width mismatch"
        );
        // The core is not shared yet (penalties are added at build time),
        // so this never copies in practice.
        Arc::make_mut(&mut self.core).penalties.push(penalty);
        self
    }

    /// Number of discrete search parameters.
    pub fn num_parameters(&self) -> usize {
        self.ansatz.num_parameters()
    }

    /// Evaluates one discrete configuration (indices into the four
    /// Clifford angles). Exact, noise-free, and polynomial-time — the
    /// whole point of the paper.
    ///
    /// # Panics
    ///
    /// Panics if `config` has the wrong length (ansatz contract).
    pub fn evaluate(&self, config: &[usize]) -> ObjectiveValue {
        self.evaluate_with(config, &mut self.scratch())
    }

    /// [`Self::evaluate`] against a caller-owned scratch — the hot-loop
    /// entry point: no allocation per candidate when the ansatz compiled.
    ///
    /// When an engine was attached with [`Self::with_engine`] (as
    /// [`run_cafqa_on`](crate::run_cafqa_on) does), candidates with at
    /// least 4096 Hamiltonian terms route the term sum through it
    /// ([`ExecEngine::map_nested`]), so even a *single* Cr2-scale
    /// evaluation uses the pool; the energy is bit-identical to the
    /// serial chunked sum at any worker count. Objectives without an
    /// attached engine keep the allocation-free serial chunked sum —
    /// a bare `evaluate()` never spawns the process-global pool.
    pub fn evaluate_with(&self, config: &[usize], scratch: &mut EvalScratch) -> ObjectiveValue {
        self.prepare(config, scratch);
        if self.core.terms.len() >= CHUNKED_TERM_THRESHOLD {
            if let Some(engine) = &self.engine {
                return self.core.value_on_engine(&scratch.tableau, engine);
            }
        }
        self.core.value_on(&scratch.tableau)
    }

    /// Evaluates a batch of candidates, sharded across the engine's
    /// persistent workers.
    ///
    /// Results are in input order and bit-identical to calling
    /// [`Self::evaluate`] per candidate serially (each candidate's term
    /// sum runs in the same fixed association either way). Small batches
    /// stay on the calling thread; each worker reuses one scratch
    /// tableau. Non-compiled ansätze (no template to ship to the pool)
    /// evaluate serially with identical results.
    pub fn evaluate_batch(&self, configs: &[Vec<usize>]) -> Vec<ObjectiveValue> {
        // Rough per-candidate cost in row-update units; engine dispatch
        // costs a few µs per shard, so tiny workloads stay serial (and
        // never force the global pool into existence).
        let per_eval = self.core.terms.len().max(1) * self.core.num_qubits.max(1);
        if configs.len() * per_eval < BATCH_DISPATCH_THRESHOLD {
            let mut scratch = self.scratch();
            return configs.iter().map(|c| self.evaluate_with(c, &mut scratch)).collect();
        }
        let engine = self.engine();
        self.evaluate_batch_sharded(configs, engine.workers(), engine)
    }

    /// [`Self::evaluate_batch`] with an explicit worker count on a
    /// private, temporary engine; exposed so the sharded path stays
    /// testable and benchmarkable regardless of the host's core count.
    /// (Production paths use [`Self::evaluate_batch`] and the persistent
    /// engine — this spawns and tears down a pool per call.)
    pub fn evaluate_batch_with_workers(
        &self,
        configs: &[Vec<usize>],
        workers: usize,
    ) -> Vec<ObjectiveValue> {
        let engine = ExecEngine::new(workers);
        self.evaluate_batch_sharded(configs, workers, &engine)
    }

    fn evaluate_batch_sharded(
        &self,
        configs: &[Vec<usize>],
        shards: usize,
        engine: &ExecEngine,
    ) -> Vec<ObjectiveValue> {
        let shards = shards.min(configs.len());
        if shards <= 1 || !self.core.is_compiled() || !engine.is_pooled() {
            let mut scratch = self.scratch();
            return configs.iter().map(|c| self.evaluate_with(c, &mut scratch)).collect();
        }
        let chunk = configs.len().div_ceil(shards);
        let tasks: Vec<_> = configs
            .chunks(chunk)
            .map(|chunk_configs| {
                let core = Arc::clone(&self.core);
                // Each shard carries an engine handle so huge candidates
                // can term-shard across idle workers from *inside* the
                // pool (nested dispatch); `map` below awaits every shard
                // before returning, so the handles never outlive the
                // dispatch.
                let engine = engine.clone();
                let chunk_configs: Vec<Vec<usize>> = chunk_configs.to_vec();
                move || {
                    let mut scratch = core.scratch();
                    chunk_configs
                        .iter()
                        .map(|config| core.evaluate_on(config, &mut scratch, &engine))
                        .collect::<Vec<ObjectiveValue>>()
                }
            })
            .collect();
        engine.map(tasks).into_iter().flatten().collect()
    }

    /// Per-Pauli-term expectations of the Hamiltonian on a configuration,
    /// in deterministic term order — the data behind the paper's Fig. 6.
    ///
    /// Large Hamiltonians (≥ 4096 terms) shard the per-term sweep across
    /// an engine attached with [`Self::with_engine`]; expectations are
    /// exact integers (±1, 0), so sharding cannot perturb them, and
    /// results are reassembled in term order regardless of scheduling.
    pub fn term_expectations(&self, config: &[usize]) -> Vec<(PauliString, f64, i8)> {
        let mut scratch = self.scratch();
        self.prepare(config, &mut scratch);
        let attached = self.engine.as_ref().filter(|engine| engine.is_pooled());
        if self.core.terms.len() >= CHUNKED_TERM_THRESHOLD {
            if let Some(engine) = attached {
                let tasks: Vec<_> = self
                    .core
                    .term_chunk_ranges()
                    .map(|range| {
                        let core = Arc::clone(&self.core);
                        let tableau = Arc::clone(&scratch.tableau);
                        move || core.term_expectations_in(&tableau, range)
                    })
                    .collect();
                return engine.map(tasks).into_iter().flatten().collect();
            }
        }
        self.core.term_expectations_in(&scratch.tableau, 0..self.core.terms.len())
    }
}

/// One polish move: the `(slot, new angle index)` patches applied to the
/// session base to form a neighbor configuration — one entry for a
/// coordinate move, two for a pair move.
pub type PolishMove = Vec<(usize, usize)>;

/// An incremental polish session (see
/// [`CliffordObjective::polish_session`]).
///
/// The session owns the current *base* configuration and a prefix
/// cursor: a tableau holding the state after the first template ops of
/// the base. Evaluating a batch of moves seeks the cursor to the
/// earliest op any move affects (`CompiledAnsatz::first_op_of`), then
/// each neighbor restores the prefix and replays only the suffix —
/// turning the full-re-preparation cost of a polish evaluation into work
/// proportional to the suffix length. Forward sweeps (slots in
/// increasing op order, the shape of both polish phases) *advance* the
/// prefix incrementally; a *backward* seek, or an accepted move below
/// the prefix, restores the deepest still-valid entry of a per-layer
/// snapshot stack and replays only from that boundary, rebuilding from
/// `|0…0⟩` when no snapshot survives. The Clifford+T session
/// ([`crate::KtPolishSession`]) runs the same cursor over a branch
/// ensemble.
///
/// # Determinism
///
/// Prefix + suffix is the same integer gate sequence as a full
/// `run_compiled`, so the prepared tableau — and every energy, through
/// the same fixed-association term sum — is bit-identical to
/// [`CliffordObjective::evaluate`] of the patched configuration, at any
/// engine width, including the term-sharded (≥ 4096 terms) path.
/// Asserted by `crates/clifford/tests/incremental_equivalence.rs`,
/// `crates/core/tests/polish_equivalence.rs`,
/// `crates/core/tests/prefix_cursor.rs` and the neighbor boundary cases
/// in `crates/core/tests/term_sharding.rs`.
pub struct PolishSession {
    core: Arc<EvalCore>,
    /// The objective's attached engine (`None` resolves to the global
    /// pool lazily, and only for batches big enough to dispatch —
    /// mirroring [`CliffordObjective::evaluate_batch`]).
    engine: Option<ExecEngine>,
    base: Vec<usize>,
    cursor: PrefixCursor<Tableau>,
    scratch: EvalScratch,
    config_buf: Vec<usize>,
}

impl PolishSession {
    /// The current base configuration.
    pub fn base(&self) -> &[usize] {
        &self.base
    }

    /// `(backward_seeks, stack_restores)`: how many seeks could not
    /// reuse the running prefix this session, and how many of those
    /// restored a layer snapshot instead of rebuilding the prefix from
    /// `|0…0⟩`.
    pub fn seek_stats(&self) -> (u64, u64) {
        self.cursor.seek_stats()
    }

    /// Applies an accepted move to the session base. The cursor sees the
    /// change at the next seek and drops whatever prefix state it
    /// invalidates, so acceptance is always safe, in any order.
    pub fn accept(&mut self, mv: &[(usize, usize)]) {
        for &(slot, value) in mv {
            self.base[slot] = value;
            self.config_buf[slot] = value;
        }
    }

    /// Evaluates a batch of neighbor moves against the session base, in
    /// input order — the polish counterpart of
    /// [`CliffordObjective::evaluate_batch`], and bit-identical to
    /// evaluating each patched configuration through it. Small workloads
    /// stay on the calling thread; large ones shard moves across the
    /// engine, and big-Hamiltonian neighbors (≥ 4096 terms) term-shard
    /// from inside the pool exactly like full evaluations.
    ///
    /// # Panics
    ///
    /// Panics if a move names a slot out of range or an angle index
    /// outside `0..4`.
    pub fn evaluate_moves(&mut self, moves: &[PolishMove]) -> Vec<ObjectiveValue> {
        if moves.is_empty() {
            return Vec::new();
        }
        let template =
            self.core.template.as_ref().expect("polish sessions require a compiled template");
        let start = moves
            .iter()
            .flat_map(|mv| mv.iter())
            .map(|&(slot, _)| template.first_op_of(slot))
            .min()
            .unwrap_or(template.ops().len());
        self.cursor.seek(template, &self.base, start);
        // The same dispatch heuristic as `evaluate_batch`: tiny workloads
        // never pay engine dispatch (nor force the global pool into
        // existence).
        let per_eval = self.core.terms.len().max(1) * self.core.num_qubits.max(1);
        let big = moves.len() * per_eval >= BATCH_DISPATCH_THRESHOLD;
        let pooled =
            big && self.engine.clone().unwrap_or_else(|| ExecEngine::global().clone()).is_pooled();
        if !pooled {
            let attached = self.engine.clone();
            let mut out = Vec::with_capacity(moves.len());
            for mv in moves {
                for &(slot, value) in mv {
                    self.config_buf[slot] = value;
                }
                let value = match &attached {
                    Some(engine) if self.core.terms.len() >= CHUNKED_TERM_THRESHOLD => {
                        self.core.evaluate_neighbor_on(
                            &mut self.scratch,
                            self.cursor.prefix(),
                            start,
                            &self.config_buf,
                            engine,
                        )
                    }
                    _ => self.core.evaluate_neighbor(
                        &mut self.scratch,
                        self.cursor.prefix(),
                        start,
                        &self.config_buf,
                    ),
                };
                for &(slot, _) in mv {
                    self.config_buf[slot] = self.base[slot];
                }
                out.push(value);
            }
            return out;
        }
        let engine = self.engine.clone().unwrap_or_else(|| ExecEngine::global().clone());
        let shards = engine.workers().min(moves.len());
        let chunk = moves.len().div_ceil(shards);
        let tasks: Vec<_> = moves
            .chunks(chunk)
            .map(|chunk_moves| {
                let core = Arc::clone(&self.core);
                let prefix = Arc::clone(self.cursor.prefix());
                let base = self.base.clone();
                let chunk_moves: Vec<PolishMove> = chunk_moves.to_vec();
                let engine = engine.clone();
                move || {
                    let mut scratch = core.scratch();
                    let mut config = base.clone();
                    chunk_moves
                        .iter()
                        .map(|mv| {
                            for &(slot, value) in mv {
                                config[slot] = value;
                            }
                            let value = core.evaluate_neighbor_on(
                                &mut scratch,
                                &prefix,
                                start,
                                &config,
                                &engine,
                            );
                            for &(slot, _) in mv {
                                config[slot] = base[slot];
                            }
                            value
                        })
                        .collect::<Vec<ObjectiveValue>>()
                }
            })
            .collect();
        engine.map(tasks).into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cafqa_circuit::EfficientSu2;

    #[test]
    fn xx_microbenchmark_reaches_minus_one() {
        // Paper Fig. 5: the 2-qubit XX Hamiltonian has a Clifford point at
        // the global minimum −1.
        let h: PauliOp = "XX".parse().unwrap();
        let ansatz = EfficientSu2::new(2, 1);
        let objective = CliffordObjective::new(&ansatz, &h);
        let mut best = f64::INFINITY;
        // Exhaust the first-layer RY on qubit 0 with everything else 0.
        for k in 0..4 {
            let mut cfg = vec![0usize; 8];
            cfg[0] = k;
            best = best.min(objective.evaluate(&cfg).energy);
        }
        assert_eq!(best, -1.0);
    }

    #[test]
    fn penalty_pushes_off_sector_states_up() {
        // Penalize ⟨(Z − 1)²⟩ on a 1-qubit problem: |1⟩ (Z = −1) costs 4w.
        let h: PauliOp = "0*I".parse().unwrap();
        let z: PauliOp = "Z".parse().unwrap();
        let ansatz = EfficientSu2::new(1, 0);
        let objective =
            CliffordObjective::new(&ansatz, &h).with_penalty(Penalty::new("test", &z, 1.0, 0.5));
        // Ry(π) flips to |1⟩.
        let flipped = objective.evaluate(&[2, 0]);
        assert!((flipped.penalized - 2.0).abs() < 1e-12, "{flipped:?}");
        let stay = objective.evaluate(&[0, 0]);
        assert!(stay.penalized.abs() < 1e-12);
        // Raw energy is untouched by penalties.
        assert_eq!(flipped.energy, 0.0);
    }

    #[test]
    fn penalty_value_matches_the_operator_expectation_bitwise() {
        use cafqa_chem::mapping::{number_operator, s_squared_operator, sz_operator, Mapping};
        let penalties = [
            Penalty::new("electron count", &number_operator(3, Mapping::Parity), 3.0, 0.5),
            Penalty::new("sz", &sz_operator(3, Mapping::JordanWigner), 0.5, 0.25),
            Penalty::new("s-squared", &s_squared_operator(3, Mapping::Parity), 0.75, 0.125),
        ];
        let ansatz = EfficientSu2::new(6, 1);
        let template = CompiledAnsatz::compile(&ansatz).unwrap();
        let mut tableau = Tableau::zero_state(6);
        for seed in 0u64..64 {
            let config: Vec<usize> = (0..ansatz.num_parameters())
                .map(|i| ((seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (2 * i % 62)) & 3) as usize)
                .collect();
            tableau.run_compiled(&template, &config);
            for p in &penalties {
                let expected = p.weight * tableau.expectation(p.squared_op());
                assert_eq!(
                    p.value(&tableau).to_bits(),
                    expected.to_bits(),
                    "{} {config:?}",
                    p.label
                );
            }
        }
    }

    #[test]
    fn compiled_template_matches_fallback_lowering() {
        // The same objective evaluated through the compiled template and
        // through per-candidate lowering must agree bit-for-bit.
        let h: PauliOp = "0.5*XXII + 0.25*ZZZZ - 0.1*YIYI + 0.7*IZIZ".parse().unwrap();
        let ansatz = EfficientSu2::new(4, 1);
        let compiled = CliffordObjective::new(&ansatz, &h);
        assert!(compiled.is_compiled());
        let mut fallback = CliffordObjective::new(&ansatz, &h);
        Arc::make_mut(&mut fallback.core).template = None;
        for seed in 0u64..32 {
            let config: Vec<usize> =
                (0..16).map(|i| ((seed.wrapping_mul(0x9E37_79B9) >> i) & 3) as usize).collect();
            let a = compiled.evaluate(&config);
            let b = fallback.evaluate(&config);
            assert_eq!(a.energy.to_bits(), b.energy.to_bits(), "{config:?}");
            assert_eq!(a.penalized.to_bits(), b.penalized.to_bits(), "{config:?}");
        }
    }

    #[test]
    fn batch_evaluation_matches_serial_bitwise() {
        let h: PauliOp = "0.5*XX + 0.25*ZZ - 0.1*YI".parse().unwrap();
        let z: PauliOp = "ZI".parse().unwrap();
        let ansatz = EfficientSu2::new(2, 1);
        let objective =
            CliffordObjective::new(&ansatz, &h).with_penalty(Penalty::new("z", &z, 1.0, 0.3));
        let configs: Vec<Vec<usize>> = (0..64u64)
            .map(|code| (0..8).map(|i| ((code.wrapping_mul(31) >> (2 * i)) & 3) as usize).collect())
            .collect();
        // Force multi-worker sharding so the pooled path is exercised
        // even on a single-core host (evaluate_batch would stay serial).
        for workers in [1usize, 3, 8] {
            let batch = objective.evaluate_batch_with_workers(&configs, workers);
            assert_eq!(batch.len(), configs.len());
            for (config, value) in configs.iter().zip(&batch) {
                let serial = objective.evaluate(config);
                assert_eq!(value.energy.to_bits(), serial.energy.to_bits(), "{workers} workers");
                assert_eq!(value.penalized.to_bits(), serial.penalized.to_bits());
            }
        }
    }

    #[test]
    fn batch_through_persistent_engine_matches_serial() {
        // The production path: one engine, many batches, no fresh pools.
        let h: PauliOp = "0.5*XX + 0.25*ZZ - 0.1*YI + 0.3*ZY".parse().unwrap();
        let ansatz = EfficientSu2::new(2, 1);
        let engine = ExecEngine::new(4);
        let objective = CliffordObjective::new(&ansatz, &h).with_engine(engine);
        assert_eq!(objective.engine().workers(), 4);
        for round in 0..8u64 {
            let configs: Vec<Vec<usize>> = (0..96u64)
                .map(|code| {
                    (0..8)
                        .map(|i| ((code.wrapping_mul(97 + round) >> (2 * i)) & 3) as usize)
                        .collect()
                })
                .collect();
            let batch = objective.evaluate_batch(&configs);
            for (config, value) in configs.iter().zip(&batch) {
                assert_eq!(value.energy.to_bits(), objective.evaluate(config).energy.to_bits());
            }
        }
    }

    #[test]
    fn uncompiled_ansatz_batch_falls_back_to_serial_path() {
        struct Scaled;
        impl Ansatz for Scaled {
            fn num_qubits(&self) -> usize {
                1
            }
            fn num_parameters(&self) -> usize {
                1
            }
            fn bind(&self, params: &[f64]) -> cafqa_circuit::Circuit {
                let mut c = cafqa_circuit::Circuit::new(1);
                // Arithmetic destroys the compile-probe sentinel, so this
                // ansatz never compiles; Clifford grid points still land
                // on multiples of π/2 (2·k·π/2 = k·π).
                c.ry(0, 2.0 * params[0]);
                c
            }
        }
        let h: PauliOp = "Z".parse().unwrap();
        let objective = CliffordObjective::new(&Scaled, &h);
        assert!(!objective.is_compiled());
        let configs: Vec<Vec<usize>> = (0..4).map(|k| vec![k]).collect();
        let batch = objective.evaluate_batch_with_workers(&configs, 4);
        for (config, value) in configs.iter().zip(&batch) {
            assert_eq!(value.energy.to_bits(), objective.evaluate(config).energy.to_bits());
        }
    }

    #[test]
    fn term_expectations_are_quantized() {
        let h: PauliOp = "0.5*XX + 0.25*ZZ - 0.1*YI".parse().unwrap();
        let ansatz = EfficientSu2::new(2, 1);
        let objective = CliffordObjective::new(&ansatz, &h);
        for (_, _, e) in objective.term_expectations(&[1, 2, 3, 0, 1, 2, 3, 0]) {
            assert!(e == -1 || e == 0 || e == 1);
        }
    }
}
