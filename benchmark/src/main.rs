//! Wall-clock benchmark of ThemisIO-RS: client → net → server → stage → core
//! → device → fs on four workloads, with a per-layer cost budget measured
//! from outside the program. See `README.md` in this directory.
//!
//! ```text
//! themis-benchmark run [--workload NAME] [--seed N] [--seconds S]
//!                      [--trace 0|1] [--out FILE] [--trace-out FILE]
//! themis-benchmark compare A.json B.json
//! ```

#![forbid(unsafe_code)]

mod analyze;
mod cluster;
mod compare;
mod json;
mod layers;
mod metrics;
mod run;
mod stats;
#[cfg(test)]
mod tests;
mod workloads;

use json::Json;
use std::process::ExitCode;

const USAGE: &str = "usage:
  themis-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                       [--out FILE] [--trace-out FILE]
      Runs the named workload (default: all four) untraced for the end-to-end
      metrics (--trace 0), traced for the per-layer metrics (--trace 1), or
      both (default). Prints every metric, then one result line per run.
  themis-benchmark compare A.json B.json
      Holds two --out files against the regression bounds.";

struct RunArgs {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    traces: Vec<bool>,
    out: Option<String>,
    trace_out: Option<String>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workloads: workloads::NAMES.iter().map(|s| s.to_string()).collect(),
        seed: 1,
        seconds: 15.0,
        traces: vec![false, true],
        out: None,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                if workloads::spec(value).is_none() {
                    return Err(format!(
                        "no workload named {value}; have {:?}",
                        workloads::NAMES
                    ));
                }
                parsed.workloads = vec![value.clone()];
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 60.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                parsed.traces = match value.as_str() {
                    "0" => vec![false],
                    "1" => vec![true],
                    _ => return Err(bad()),
                }
            }
            "--out" => parsed.out = Some(value.clone()),
            "--trace-out" => parsed.trace_out = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(parsed)
}

fn run(args: &RunArgs) -> Result<bool, String> {
    let mut results = Vec::new();
    for name in &args.workloads {
        let spec = workloads::spec(name).expect("validated while parsing");
        for &traced in &args.traces {
            let result = if traced {
                run::traced(&spec, args.seed, args.seconds)
            } else {
                run::untraced(&spec, args.seed, args.seconds)
            };
            result.print();
            println!("{}", result.contract_line());
            results.push(result);
        }
    }
    if let Some(path) = &args.out {
        let file = Json::obj([(
            "runs",
            Json::Arr(results.iter().map(|r| r.to_json()).collect()),
        )]);
        std::fs::write(path, format!("{file}\n")).map_err(|e| format!("{path}: {e}"))?;
    }
    if let Some(path) = &args.trace_out {
        run::write_spans(path, &results).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(results.iter().all(|r| r.correct()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse_run(rest).and_then(|a| run(&a)),
        Some((cmd, [a, b])) if cmd == "compare" => compare::compare_files(a, b),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}
