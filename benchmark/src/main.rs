//! The repository's one standing benchmark: five workloads, end-to-end
//! metrics, per-layer attribution by outside replay.  See `README.md` in
//! this directory for the glossary and the run modes.

mod compare;
#[cfg(test)]
mod contract_tests;
mod harness;
mod host;
mod json;
mod metrics;
mod oracle;
mod stats;
mod trace;
mod workloads;

use harness::RunConfig;
use json::Json;
use metrics::WORKLOADS;
use std::process::{Command, ExitCode, Stdio};

/// Measured seconds of one run when `--seconds` is not given (the
/// `run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 14.0;

const USAGE: &str = "\
usage: fdb-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
       fdb-benchmark --all [--runs R] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
       fdb-benchmark --smoke
       fdb-benchmark --compare A.json B.json
workloads: flat_join serve_hot serve_cold analytics_heads swap_reload";

/// Parsed command line.
#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    all: bool,
    smoke: bool,
    compare: Option<(String, String)>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    runs: Option<usize>,
    out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut it = args.iter();
    let value = |it: &mut std::slice::Iter<String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value(&mut it, flag)?),
            "--all" => parsed.all = true,
            "--smoke" => parsed.smoke = true,
            "--compare" => parsed.compare = Some((value(&mut it, flag)?, value(&mut it, flag)?)),
            "--seed" => {
                parsed.seed = Some(
                    value(&mut it, flag)?
                        .parse()
                        .map_err(|_| "--seed takes an integer")?,
                );
            }
            "--seconds" => {
                let seconds: f64 = value(&mut it, flag)?
                    .parse()
                    .map_err(|_| "--seconds takes a number")?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                parsed.seconds = Some(seconds);
            }
            "--trace" => {
                parsed.trace = match value(&mut it, flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--runs" => {
                let runs: usize = value(&mut it, flag)?
                    .parse()
                    .map_err(|_| "--runs takes an integer")?;
                if !(1..=100).contains(&runs) {
                    return Err("--runs must be in 1..=100".into());
                }
                parsed.runs = Some(runs);
            }
            "--out" => parsed.out = Some(value(&mut it, flag)?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if let Some((a, b)) = &args.compare {
        compare_files(a, b)
    } else if args.smoke {
        smoke()
    } else if args.all {
        run_all(&args)
    } else if let Some(name) = &args.workload {
        run_one(name, &args)
    } else {
        Err(USAGE.to_string())
    };
    match outcome {
        Ok(code) => code,
        Err(why) => {
            eprintln!("{why}");
            ExitCode::from(2)
        }
    }
}

/// One workload in this process: prints the human-readable record, then the
/// contract line as the last line of standard output.
fn run_one(name: &str, args: &Args) -> Result<ExitCode, String> {
    let cfg = RunConfig {
        seed: args.seed.unwrap_or(1),
        seconds: args.seconds.unwrap_or(DEFAULT_SECONDS),
        trace: args.trace,
        smoke: false,
        write_files: true,
    };
    let report = workloads::run_named(name, cfg)
        .ok_or_else(|| format!("unknown workload {name:?}\n{USAGE}"))?;
    println!("{}", report.record.to_pretty());
    println!("{}", report.line.to_line());
    Ok(ExitCode::SUCCESS)
}

/// Every workload, one round, tiny dims, traced; writes nothing.
fn smoke() -> Result<ExitCode, String> {
    let mut ok = true;
    for workload in &WORKLOADS {
        let cfg = RunConfig {
            seed: 1,
            seconds: 0.0,
            trace: true,
            smoke: true,
            write_files: false,
        };
        let started = std::time::Instant::now();
        let report = workloads::run_named(workload.name, cfg).expect("listed workloads exist");
        let line = &report.line;
        let passed = line.get("correct").and_then(Json::as_bool) == Some(true)
            && line.get("failed").and_then(Json::as_f64) == Some(0.0);
        ok &= passed;
        println!(
            "smoke {:<16} {} ({} ops attempted, {:.2} s)",
            workload.name,
            if passed { "ok" } else { "FAILED" },
            line.get("attempted").and_then(Json::as_f64).unwrap_or(0.0),
            started.elapsed().as_secs_f64()
        );
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Every workload `--runs` times, each run in a process of its own (peak
/// memory is per workload), collected into one result file for `--compare`.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))?;
    let runs = args.runs.unwrap_or(3);
    let seed = args.seed.unwrap_or(1);
    let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
    let suffix = if args.trace { "-trace" } else { "" };
    let mut records = Vec::new();
    for workload in &WORKLOADS {
        for run in 0..runs {
            eprintln!(
                "{} run {}/{runs} (seed {seed}, trace {})",
                workload.name,
                run + 1,
                u8::from(args.trace)
            );
            let status = Command::new(&exe)
                .args(["--workload", workload.name])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .stdout(Stdio::null())
                .status()
                .map_err(|e| format!("cannot start a run of {}: {e}", workload.name))?;
            if !status.success() {
                return Err(format!("a run of {} exited with {status}", workload.name));
            }
            let path = host::out_dir().join(format!("result-{}{suffix}.json", workload.name));
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            records.push(Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?);
        }
    }
    let combined = Json::obj([
        ("benchmark", Json::str("fdb standing benchmark")),
        ("host", host::describe()),
        ("runs", Json::Arr(records)),
    ]);
    let out = args.out.clone().unwrap_or_else(|| {
        host::out_dir()
            .join(format!("all{suffix}.json"))
            .display()
            .to_string()
    });
    std::fs::write(&out, combined.to_pretty()).map_err(|e| format!("{out}: {e}"))?;
    println!("wrote {out}");
    Ok(ExitCode::SUCCESS)
}

fn compare_files(a: &str, b: &str) -> Result<ExitCode, String> {
    let load = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (table, acceptable) = compare::compare(&load(a)?, &load(b)?)?;
    print!("{table}");
    Ok(if acceptable {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(
            &line
                .split_whitespace()
                .map(str::to_string)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn the_contract_invocation_parses() {
        let args = parse("--workload serve_hot --seed 7 --seconds 14 --trace 1").unwrap();
        assert_eq!(args.workload.as_deref(), Some("serve_hot"));
        assert_eq!(
            (args.seed, args.seconds, args.trace),
            (Some(7), Some(14.0), true)
        );
        let args = parse("--compare a.json b.json").unwrap();
        assert_eq!(args.compare, Some(("a.json".into(), "b.json".into())));
    }

    #[test]
    fn malformed_invocations_are_refused() {
        for bad in [
            "--seed x",
            "--trace 2",
            "--seconds 0",
            "--compare a.json",
            "--bogus",
            "--runs 0",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should be refused");
        }
    }
}
