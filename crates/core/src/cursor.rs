//! The prefix cursor behind both incremental polish sessions.
//!
//! A neighbour of a base configuration agrees with it on every rotation
//! read before the earliest changed slot, so the state prepared up to
//! that op is shared and only the suffix replays. [`PrefixCursor`] keeps
//! that prefix state — a [`Tableau`] for the Clifford polish, a
//! [`BranchEnsemble`] for the Clifford+T one (a prefix may hold open
//! branch frames; suffix replay conjugates them like any other state) —
//! plus one snapshot per `CompiledAnsatz::layer_starts` boundary, so a
//! backward seek replays from the nearest layer instead of from `|0…0⟩`.
//!
//! Prefix + suffix is the same op sequence as a full preparation, so
//! where the cursor starts a replay never changes a prepared state, only
//! what it costs.

use std::sync::Arc;

use cafqa_circuit::CompiledAnsatz;
use cafqa_clifford::{BranchEnsemble, Tableau};

/// A state the cursor can checkpoint: prepared by replaying template op
/// ranges from `|0…0⟩`, restorable in place from a snapshot.
pub(crate) trait PrefixState: Clone {
    /// Resets to `|0…0⟩` (ops `0..0` of `config`).
    fn reset(&mut self, template: &CompiledAnsatz, config: &[usize]);
    /// Replays template ops `from..to` of `config`, with no reset.
    fn apply_range(&mut self, template: &CompiledAnsatz, config: &[usize], from: usize, to: usize);
    /// Overwrites this state with `src`, reusing storage.
    fn copy_from(&mut self, src: &Self);
}

impl PrefixState for Tableau {
    fn reset(&mut self, template: &CompiledAnsatz, config: &[usize]) {
        self.run_compiled_prefix(template, config, 0);
    }

    fn apply_range(&mut self, template: &CompiledAnsatz, config: &[usize], from: usize, to: usize) {
        Tableau::apply_range(self, template, config, from, to);
    }

    fn copy_from(&mut self, src: &Self) {
        Tableau::copy_from(self, src);
    }
}

impl PrefixState for BranchEnsemble {
    fn reset(&mut self, template: &CompiledAnsatz, config: &[usize]) {
        self.run_compiled_prefix(template, config, 0).expect("an empty prefix opens no branches");
    }

    fn apply_range(&mut self, template: &CompiledAnsatz, config: &[usize], from: usize, to: usize) {
        BranchEnsemble::apply_range(self, template, config, from, to)
            .expect("a prefix of a feasible configuration stays within the branch budget");
    }

    fn copy_from(&mut self, src: &Self) {
        BranchEnsemble::copy_from(self, src);
    }
}

/// The state after template ops `0..end` of the configuration it was
/// last sought under, with a per-layer snapshot stack and seek counters.
pub(crate) struct PrefixCursor<S> {
    /// State after template ops `0..end` of `config`. The `Arc` is
    /// uniquely owned between batches (engine shards drop their clones
    /// before dispatch returns), so `Arc::make_mut` stays in place.
    prefix: Arc<S>,
    end: usize,
    /// The configuration the prefix and every snapshot were built under.
    config: Vec<usize>,
    /// The template's layer boundaries (`CompiledAnsatz::layer_starts`),
    /// strictly increasing, each in `1..ops.len()`.
    layers: Vec<usize>,
    /// `stack[i]` (when `Some`) holds the state after ops `0..layers[i]`
    /// of `config`: a valid restore point for any seek target
    /// `>= layers[i]` while the base agrees with `config` on every
    /// parameter read before `layers[i]`.
    stack: Vec<Option<Arc<S>>>,
    backward_seeks: u64,
    stack_restores: u64,
}

impl<S: PrefixState> PrefixCursor<S> {
    /// A cursor at the empty prefix of `config`; `zero` is `|0…0⟩`.
    pub(crate) fn new(template: &CompiledAnsatz, zero: S, config: Vec<usize>) -> Self {
        let layers = template.layer_starts().to_vec();
        PrefixCursor {
            prefix: Arc::new(zero),
            end: 0,
            config,
            stack: vec![None; layers.len()],
            layers,
            backward_seeks: 0,
            stack_restores: 0,
        }
    }

    /// The prefix state: template ops `0..self.end()` of the last base.
    pub(crate) fn prefix(&self) -> &Arc<S> {
        &self.prefix
    }

    /// How many template ops the prefix covers.
    pub(crate) fn end(&self) -> usize {
        self.end
    }

    /// `(backward_seeks, stack_restores)`: seeks that could not reuse
    /// the running prefix, and how many of those restored a layer
    /// snapshot instead of rebuilding from `|0…0⟩`.
    pub(crate) fn seek_stats(&self) -> (u64, u64) {
        (self.backward_seeks, self.stack_restores)
    }

    /// Drops the prefix back to `|0…0⟩` — valid under any configuration,
    /// so snapshots survive and no backward seek is counted.
    pub(crate) fn rewind(&mut self, template: &CompiledAnsatz) {
        if self.end != 0 {
            Arc::make_mut(&mut self.prefix).reset(template, &self.config);
            self.end = 0;
        }
    }

    /// Moves the prefix to cover template ops `0..target` of `base`.
    ///
    /// Snapshots past the earliest op reading a parameter where `base`
    /// differs from the build configuration are dropped: they are not
    /// prefix states of `base`. The running prefix is reused when
    /// `target` is at or past its end and it is still valid; otherwise
    /// the deepest surviving snapshot at or below `target` is restored,
    /// or the prefix rebuilds from `|0…0⟩`. Either way it then advances
    /// to `target`, snapshotting every layer boundary it crosses.
    pub(crate) fn seek(&mut self, template: &CompiledAnsatz, base: &[usize], target: usize) {
        let diff_first = base
            .iter()
            .zip(&self.config)
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(p, _)| template.first_op_of(p))
            .min()
            .unwrap_or(usize::MAX);
        for (slot, &boundary) in self.stack.iter_mut().zip(&self.layers) {
            if boundary > diff_first {
                *slot = None;
            }
        }
        if target < self.end || self.end > diff_first {
            self.backward_seeks += 1;
            let restore = (0..self.layers.len())
                .rev()
                .find(|&i| self.layers[i] <= target && self.stack[i].is_some());
            let prefix = Arc::make_mut(&mut self.prefix);
            match restore {
                Some(i) => {
                    prefix.copy_from(self.stack[i].as_ref().expect("found Some above"));
                    self.end = self.layers[i];
                    self.stack_restores += 1;
                }
                None => {
                    prefix.reset(template, base);
                    self.end = 0;
                }
            }
        }
        while self.end < target {
            let next = self.layers.iter().position(|&b| b > self.end && b <= target);
            let stop = next.map_or(target, |i| self.layers[i]);
            let prefix = Arc::make_mut(&mut self.prefix);
            prefix.apply_range(template, base, self.end, stop);
            self.end = stop;
            if let Some(i) = next {
                match &mut self.stack[i] {
                    Some(snapshot) => Arc::make_mut(snapshot).copy_from(prefix),
                    slot => *slot = Some(Arc::new(prefix.clone())),
                }
            }
        }
        self.config.clear();
        self.config.extend_from_slice(base);
    }
}
