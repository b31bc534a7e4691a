//! `gt-benchmark` — the repo benchmark.
//!
//! ```text
//! gt-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run of one workload (what the driver calls); the last line of
//!     standard output is the JSON result object
//! gt-benchmark [--seed <n>] [--seconds <s>]
//!     every workload, untraced then traced: prints every metric as
//!     `workload metric value unit`
//! gt-benchmark --agree [--seed <n>] [--seconds <s>]
//!     two untraced sets back to back; prints both values, their relative
//!     difference and the bound per workload x end-to-end metric, and
//!     exits non-zero if a bound is exceeded
//! gt-benchmark --print-benchmark-json
//!     BENCHMARK.json as rendered from the metric tables
//! ```
//!
//! `--smoke <scale>` shrinks the graph and lets thin percentiles through;
//! it exists for the package's own half-second smoke test.

mod harness;
mod replay;
mod run;
mod workload;

use harness::report::{self, RunResult, END_TO_END, RUN_SECONDS};
use harness::scratch::Scratch;
use std::process::ExitCode;
use workload::{Params, Spec};

#[derive(Debug)]
struct Args {
    workload: Option<&'static Spec>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    agree: bool,
    print_json: bool,
    smoke: Option<u32>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: None,
        agree: false,
        print_json: false,
        smoke: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                a.workload =
                    Some(workload::by_name(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                a.seconds = value("a duration in seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                a.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                });
            }
            "--smoke" => {
                let scale: u32 = value("an R-MAT scale")?
                    .parse()
                    .map_err(|e| format!("--smoke: {e}"))?;
                if !(6..=16).contains(&scale) {
                    return Err("--smoke scale must be in 6..=16".into());
                }
                a.smoke = Some(scale);
            }
            "--agree" => a.agree = true,
            "--print-benchmark-json" => a.print_json = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

fn one_run(
    spec: &'static Spec,
    params: Params,
    seconds: f64,
    traced: bool,
    scratch: &Scratch,
) -> Result<RunResult, String> {
    let r = if traced {
        run::traced(spec, params, seconds, scratch)?
    } else {
        run::untraced(spec, params, seconds, scratch)?
    };
    print!("{}", r.human(spec.name)?);
    Ok(r)
}

/// Two untraced sets, compared against each metric's bound.
fn agree(params: Params, seconds: f64, scratch: &Scratch) -> Result<bool, String> {
    let mut sets: Vec<Vec<RunResult>> = Vec::new();
    for _ in 0..2 {
        let mut set = Vec::new();
        for spec in workload::ALL {
            set.push(one_run(spec, params, seconds, false, scratch)?);
        }
        sets.push(set);
    }
    let mut within = true;
    println!("workload metric first second rel_diff bound verdict");
    for (i, spec) in workload::ALL.iter().enumerate() {
        for m in &END_TO_END {
            let a = sets[0][i].metrics.get(m.name).unwrap_or(f64::NAN);
            let b = sets[1][i].metrics.get(m.name).unwrap_or(f64::NAN);
            let diff = (b - a).abs() / a.abs();
            let ok = diff <= m.bound;
            within &= ok;
            println!(
                "{} {} {a} {b} {diff:.4} {} {}",
                spec.name,
                m.name,
                m.bound,
                if ok { "ok" } else { "EXCEEDED" }
            );
        }
        let failed = sets[0][i].failed + sets[1][i].failed;
        if failed > 0 {
            within = false;
            println!("{} failed {failed} operations", spec.name);
        }
    }
    Ok(within)
}

fn real_main(args: Args) -> Result<bool, String> {
    if args.print_json {
        print!("{}", report::benchmark_json());
        return Ok(true);
    }
    let scratch = Scratch::create().map_err(|e| format!("create scratch directory: {e}"))?;
    let params = Params {
        seed: args.seed,
        smoke: args.smoke,
    };
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    // Before the first thread exists, so that every thread inherits it.
    let pinned = match harness::affinity::pin_to_one_cpu() {
        Ok(cpu) => format!("pinned to cpu {cpu}"),
        Err(e) => format!("NOT pinned ({e})"),
    };
    eprintln!(
        "gt-benchmark: seed {} seconds {} cores {cores}, {pinned}",
        args.seed, args.seconds
    );
    if args.agree {
        return agree(params, args.seconds, &scratch);
    }
    match args.workload {
        Some(spec) => {
            let r = one_run(
                spec,
                params,
                args.seconds,
                args.trace.unwrap_or(false),
                &scratch,
            )?;
            println!("{}", r.json_line()?);
            Ok(r.failed == 0)
        }
        None => {
            let mut clean = true;
            for spec in workload::ALL {
                for traced in [false, true] {
                    if args.trace.is_none_or(|t| t == traced) {
                        clean &= one_run(spec, params, args.seconds, traced, &scratch)?.failed == 0;
                    }
                }
            }
            Ok(clean)
        }
    }
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(real_main);
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("gt-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
