//! The CAFQA benchmark: three seeded workloads driven through the public
//! API, reporting end-to-end metrics (`--trace 0`) or the per-layer
//! split of a traced rebuild (`--trace 1`).
//!
//! ```text
//! perfbench --workload <h2o_sweep|cr2_bond|serve_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the run record, one JSON object;
//! `perfbench/run.py` builds this binary, runs it and turns the record
//! into the benchmark result.

mod checks;
mod layers;
mod points;
mod report;
mod rng;
mod serve_mix;
mod stats;
mod traced;

use std::time::Instant;

use report::{Report, Stamp};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Engine workers: two, or fewer on a smaller host.
const ENGINE_WORKERS: usize = 2;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring time.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// A median with its sample count.
#[derive(Debug, Clone, Copy)]
pub struct Sampled {
    /// The median.
    pub value: f64,
    /// Samples behind it.
    pub samples: usize,
}

/// Runs `setup` [`SETUP_REPS`] times and returns the median wall time
/// together with the last repetition's product (earlier ones are
/// dropped, which stops their threads).
pub fn setup_median<T>(mut setup: impl FnMut() -> T) -> (Sampled, T) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    let value = stats::median(&times);
    (Sampled { value, samples: times.len() }, last.expect("at least one repetition"))
}

/// Runs one workload; `smoke` shrinks every budget (tests).
pub fn run_workload(args: &RunArgs, workers: usize, smoke: bool) -> Result<Report, String> {
    match args.workload.as_str() {
        "h2o_sweep" => Ok(points::run(&points::PointsConfig::h2o_sweep(smoke), args, workers)),
        "cr2_bond" => Ok(points::run(&points::PointsConfig::cr2_bond(smoke), args, workers)),
        "serve_mix" => Ok(serve_mix::run(&serve_mix::ServeConfig::new(smoke), args, workers)),
        other => Err(format!("unknown workload {other:?} (h2o_sweep, cr2_bond, serve_mix)")),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <h2o_sweep|cr2_bond|serve_mix> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = ENGINE_WORKERS.min(host_cores);
    let report = match run_workload(&args, workers, false) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    for note in &report.notes {
        eprintln!("perfbench: {note}");
    }
    let stamp = Stamp {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        host_cores,
        engine_workers: workers,
    };
    println!("{}", report::render(&stamp, &report));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arguments_parse_strictly() {
        let args = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        let ok = parse_args(&args("--workload cr2_bond --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (ok.workload.as_str(), ok.seed, ok.seconds, ok.trace),
            ("cr2_bond", 3, 10.0, true)
        );
        assert!(parse_args(&args("--workload x --seed 3 --seconds 10 --trace 2")).is_err());
        assert!(parse_args(&args("--workload x --seed -1 --seconds 10")).is_err());
        assert!(parse_args(&args("--seed 1 --seconds 10")).is_err());
        assert!(parse_args(&args("--workload x --seed 1 --seconds 10 --bogus 1")).is_err());
    }

    /// A smoke-sized pass of every workload, untraced and traced, with
    /// every correctness check passing and every metric finite.
    #[test]
    fn smoke_pass_of_all_workloads() {
        for workload in ["h2o_sweep", "cr2_bond", "serve_mix"] {
            for trace in [false, true] {
                let args = RunArgs { workload: workload.into(), seed: 7, seconds: 0.0, trace };
                let report = run_workload(&args, 2, true).unwrap();
                assert!(
                    report.checks.all_passed(),
                    "{workload} trace={trace}: {:?}",
                    report.checks.failures()
                );
                assert!(report.attempted >= 1 && report.failed == 0, "{workload}");
                assert!(!report.checks.passed().is_empty(), "{workload}: no check ran");
                assert!(report.metrics.iter().all(|m| m.value.is_finite()), "{workload}");
                let names: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
                if trace {
                    for row in layers::PER_LAYER {
                        assert!(names.contains(&row.name), "{workload}: {} missing", row.name);
                    }
                } else {
                    for name in ["points_per_s", "latency_s_p50", "latency_s_tail", "setup_s"] {
                        assert!(names.contains(&name), "{workload}: {name} missing");
                    }
                }
            }
        }
    }
}
