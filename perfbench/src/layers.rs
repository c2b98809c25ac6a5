//! The per-layer metrics of the traced run: one accumulator per run,
//! and the table stating which end-to-end metric each layer metric
//! should move, on which workload, and where it should not move.

use std::collections::BTreeMap;

use crate::report::{Metric, Report};

/// One per-layer metric and its prediction.
#[derive(Debug, Clone, Copy)]
pub struct LayerMetric {
    /// Metric name, as in `BENCHMARK.json`'s `per_layer` list.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The end-to-end metric(s) and workload(s) a change here moves.
    pub moves: &'static str,
    /// The workload(s) on which a change here should not move anything.
    pub steady_on: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    moves: &'static str,
    steady_on: &'static str,
) -> LayerMetric {
    LayerMetric { name, unit, moves, steady_on }
}

const CHEM_MOVES: &str = "points_per_s, latency_s_p50 on cr2_bond; setup_s on serve_mix";
const OBJ_MOVES: &str = "points_per_s on cr2_bond";
const BO_MOVES: &str = "latency_s_p50 on h2o_sweep; latency_s_p50, latency_s_tail on serve_mix";
const POLISH_MOVES: &str = "points_per_s on cr2_bond";
const KT_MOVES: &str = "latency_s_p50 on h2o_sweep";
const SERVE_MOVES: &str = "latency_s_p50, latency_s_tail, points_per_s on serve_mix";

/// Every per-layer metric, in `BENCHMARK.json` order.
pub const PER_LAYER: &[LayerMetric] = &[
    m("chem.integrals_s", "s", CHEM_MOVES, "h2o_sweep"),
    m("chem.scf_s", "s", CHEM_MOVES, "h2o_sweep"),
    m("chem.scf_retries", "count", CHEM_MOVES, "h2o_sweep"),
    m("chem.active_space_s", "s", CHEM_MOVES, "h2o_sweep"),
    m("chem.mapping_s", "s", CHEM_MOVES, "h2o_sweep"),
    m("chem.taper_s", "s", CHEM_MOVES, "h2o_sweep"),
    m("chem.terms", "count", CHEM_MOVES, "h2o_sweep"),
    m("objective.prepare_s", "s", OBJ_MOVES, "h2o_sweep"),
    m("objective.s", "s", OBJ_MOVES, "h2o_sweep"),
    m("objective.evals", "count", OBJ_MOVES, "h2o_sweep"),
    m("objective.batches", "count", OBJ_MOVES, "h2o_sweep"),
    m("objective.us_per_eval", "us", OBJ_MOVES, "h2o_sweep"),
    m("objective.term_evals_per_s", "1/s", OBJ_MOVES, "h2o_sweep"),
    m("bayesopt.s", "s", BO_MOVES, "cr2_bond"),
    m("bayesopt.refits", "count", BO_MOVES, "cr2_bond"),
    m("bayesopt.ms_per_refit", "ms", BO_MOVES, "cr2_bond"),
    m("bayesopt.iterations_to_best", "count", BO_MOVES, "cr2_bond"),
    m("polish.s", "s", POLISH_MOVES, "none (gain_vs_hf_mha moves everywhere)"),
    m("polish.evals", "count", POLISH_MOVES, "none"),
    m("polish.us_per_eval", "us", POLISH_MOVES, "none"),
    m("polish.backward_seeks", "count", POLISH_MOVES, "none"),
    m("polish.stack_restores", "count", POLISH_MOVES, "none"),
    m("polish.pairs", "count", POLISH_MOVES, "none"),
    m("polish.gain_mha", "mHa", "gain_vs_hf_mha on every workload", "none"),
    m("kt.s", "s", KT_MOVES, "cr2_bond, serve_mix"),
    m("kt.evals", "count", KT_MOVES, "cr2_bond, serve_mix"),
    m("kt.rejected", "count", KT_MOVES, "cr2_bond, serve_mix"),
    m("kt.us_per_eval", "us", KT_MOVES, "cr2_bond, serve_mix"),
    m("kt.screened_classes", "count", KT_MOVES, "cr2_bond, serve_mix"),
    m("kt.screened_moves", "count", KT_MOVES, "cr2_bond, serve_mix"),
    m("kt.gain_mha", "mHa", KT_MOVES, "cr2_bond, serve_mix"),
    m("engine.workers", "count", "points_per_s on cr2_bond and h2o_sweep", "none"),
    m("engine.objective_speedup", "x", "points_per_s on cr2_bond", "h2o_sweep"),
    m("engine.surrogate_speedup", "x", "points_per_s on h2o_sweep", "cr2_bond"),
    m("serve.overhead_ratio", "x", SERVE_MOVES, "h2o_sweep, cr2_bond"),
    m("serve.slices_per_job", "count", SERVE_MOVES, "h2o_sweep, cr2_bond"),
    m("serve.hit_rate", "ratio", SERVE_MOVES, "h2o_sweep, cr2_bond"),
    m("serve.warm_starts", "count", SERVE_MOVES, "h2o_sweep, cr2_bond"),
    m("serve.routed_jobs", "count", SERVE_MOVES, "h2o_sweep, cr2_bond"),
    m("serve.rejected", "count", SERVE_MOVES, "h2o_sweep, cr2_bond"),
    m("serve.failed", "count", SERVE_MOVES, "h2o_sweep, cr2_bond"),
    m("trace.unattributed_frac", "ratio", "none (trace quality)", "all"),
    m("trace.overhead_frac", "ratio", "none (trace quality)", "all"),
];

/// Share of traced wall time the layers may leave unattributed before
/// the run record flags the trace.
pub const UNATTRIBUTED_LIMIT: f64 = 0.05;

/// Accumulates per-layer times and counts over a traced run. Names are
/// the raw accumulators (`objective.s`, `polish.evals`, …); derived
/// ratios are formed once, in [`Layers::finish`].
#[derive(Debug, Default, Clone)]
pub struct Layers {
    acc: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, usize>,
    /// Wall time of the traced work.
    pub traced_wall_s: f64,
    /// Wall time of the same work run untraced.
    pub untraced_wall_s: f64,
}

impl Layers {
    /// Adds `value` to the accumulator `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.acc.entry(name).or_insert(0.0) += value;
        *self.samples.entry(name).or_insert(0) += 1;
    }

    /// Overwrites `name` with `value` (for one-off measurements).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.acc.insert(name, value);
        self.samples.insert(name, 1);
    }

    /// The accumulated value of `name` (0 when never touched).
    pub fn get(&self, name: &str) -> f64 {
        self.acc.get(name).copied().unwrap_or(0.0)
    }

    /// Times added with each layer's name: everything that counts as
    /// attributed wall time.
    fn attributed_s(&self) -> f64 {
        const TIMED: &[&str] = &[
            "chem.integrals_s",
            "chem.scf_s",
            "chem.active_space_s",
            "chem.mapping_s",
            "chem.taper_s",
            "objective.prepare_s",
            "objective.s",
            "bayesopt.s",
            "polish.s",
            "kt.s",
            "serve.s",
            "chem.reference_s",
        ];
        TIMED.iter().map(|name| self.get(name)).sum()
    }

    /// The per-layer metrics in [`PER_LAYER`] order, as
    /// `(name, value, samples)`; derived ratios are formed from the
    /// accumulated sums, and layers the workload never entered read 0.
    pub fn finish(&self) -> Vec<(&'static str, f64, usize)> {
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let obj_evals = self.get("objective.evals");
        let polish_evals = self.get("polish.evals");
        let kt_evals = self.get("kt.evals");
        let unattributed = ratio(self.traced_wall_s - self.attributed_s(), self.traced_wall_s);
        PER_LAYER
            .iter()
            .map(|metric| {
                let value = match metric.name {
                    "objective.us_per_eval" => 1e6 * ratio(self.get("objective.s"), obj_evals),
                    "objective.term_evals_per_s" => {
                        ratio(self.get("objective.term_evals"), self.get("objective.s"))
                    }
                    "bayesopt.ms_per_refit" => {
                        1e3 * ratio(self.get("bayesopt.s"), self.get("bayesopt.refits"))
                    }
                    "polish.us_per_eval" => 1e6 * ratio(self.get("polish.s"), polish_evals),
                    "kt.us_per_eval" => 1e6 * ratio(self.get("kt.s"), kt_evals),
                    // Per-point means: the accumulators hold sums.
                    "polish.gain_mha" | "kt.gain_mha" | "bayesopt.iterations_to_best" => {
                        ratio(self.get(metric.name), self.samples_of(metric.name) as f64)
                    }
                    "trace.unattributed_frac" => unattributed,
                    "trace.overhead_frac" => {
                        ratio(self.traced_wall_s - self.untraced_wall_s, self.untraced_wall_s)
                    }
                    name => self.get(name),
                };
                (metric.name, value, self.samples_of(metric.name).max(1))
            })
            .collect()
    }

    /// Appends every per-layer metric to `report` (with its prediction
    /// as the detail), and flags the trace in the notes when the layers
    /// leave more than [`UNATTRIBUTED_LIMIT`] of the wall time
    /// unattributed.
    pub fn report_into(&self, report: &mut Report) {
        for (row, (name, value, samples)) in PER_LAYER.iter().zip(self.finish()) {
            if name == "trace.unattributed_frac" && value > UNATTRIBUTED_LIMIT {
                report.notes.push(format!(
                    "FLAG: the layers leave {:.1}% of the traced wall time unattributed (limit {:.0}%)",
                    100.0 * value,
                    100.0 * UNATTRIBUTED_LIMIT
                ));
            }
            let detail = format!("moves {}; steady on {}", row.moves, row.steady_on);
            report.metrics.push(Metric::new(name, value, row.unit, samples).with_detail(detail));
        }
    }

    fn samples_of(&self, name: &str) -> usize {
        self.samples.get(name).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is the single source for names: every per-layer
    /// metric there has a row here with the same unit, in the same order,
    /// and nothing else.
    #[test]
    fn table_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let per_layer = &text[text.find("\"per_layer\"").expect("per_layer list")..];
        let names: Vec<(&str, &str)> = per_layer
            .split("{\"name\": \"")
            .skip(1)
            .map(|entry| {
                let name = &entry[..entry.find('"').expect("closing quote")];
                let unit_at = entry.find("\"unit\": \"").expect("unit") + 9;
                let unit = &entry[unit_at..unit_at + entry[unit_at..].find('"').unwrap()];
                (name, unit)
            })
            .collect();
        let table: Vec<(&str, &str)> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(names, table);
    }

    #[test]
    fn finish_derives_ratios_and_attribution() {
        let mut layers = Layers::default();
        layers.add("objective.s", 0.5);
        layers.add("objective.evals", 1000.0);
        layers.add("bayesopt.s", 4.0);
        layers.add("bayesopt.refits", 100.0);
        layers.add("polish.gain_mha", 3.0);
        layers.add("polish.gain_mha", 1.0);
        layers.traced_wall_s = 5.0;
        layers.untraced_wall_s = 4.0;
        let out: BTreeMap<&str, f64> =
            layers.finish().into_iter().map(|(n, v, _)| (n, v)).collect();
        assert_eq!(out["objective.us_per_eval"], 500.0);
        assert_eq!(out["bayesopt.ms_per_refit"], 40.0);
        assert_eq!(out["polish.gain_mha"], 2.0);
        assert!((out["trace.unattributed_frac"] - 0.1).abs() < 1e-12);
        assert!((out["trace.overhead_frac"] - 0.25).abs() < 1e-12);
        assert_eq!(out["kt.s"], 0.0);
        assert_eq!(out.len(), PER_LAYER.len());
    }
}
