//! `perfbench --workload <bulk_update|read_mix|router_ingest|all>
//! [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Prints the configuration fingerprint and every metric with its unit,
//! then, as the last line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Exits 1 when any answer was wrong or any op
//! failed, 2 on a usage error. `all` runs each workload in its own
//! process, one after another.

use perfbench::{result_json, run_benchmark, Config, Workload, DEFAULT_SEED, HELD_OUT_SEED};
use std::process::{Command, ExitCode};

fn usage() -> String {
    format!(
        "usage: perfbench --workload <bulk_update|read_mix|router_ingest|all> \
         [--seed N] [--seconds S] [--trace 0|1]\n\
         default seed {DEFAULT_SEED}; seed {HELD_OUT_SEED} is held out for re-checking a claimed gain"
    )
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {val:?}");
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                a.seconds = val
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0 && *s <= 3600.0)
                    .ok_or_else(|| bad("seconds in 0..=3600"))?
            }
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(a)
}

/// Run every workload in a child process of its own.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cannot find own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        let mut child_args = args.to_vec();
        let i = child_args
            .iter()
            .position(|a| a == "--workload")
            .expect("parsed args hold --workload");
        child_args[i + 1] = w.name().to_string();
        println!("== {}", w.name());
        match Command::new(&exe).args(&child_args).status() {
            Ok(s) if s.success() => {}
            Ok(s) => {
                println!("{} exited with {s}", w.name());
                ok = false;
            }
            Err(e) => {
                println!("{}: could not start: {e}", w.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if a.workload == "all" {
        return run_all(&args);
    }
    let Some(workload) = Workload::from_name(&a.workload) else {
        eprintln!("unknown workload {:?}\n{}", a.workload, usage());
        return ExitCode::from(2);
    };
    let out = run_benchmark(&Config::new(workload, a.seed, a.seconds, a.trace));
    for line in &out.lines {
        println!("{line}");
    }
    if !out.artifacts.is_empty() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let written = std::fs::create_dir_all(&dir).and_then(|_| {
            out.artifacts
                .iter()
                .try_for_each(|(name, body)| std::fs::write(dir.join(name), body))
        });
        match written {
            Ok(()) => println!("trace files written to perfbench/out/"),
            Err(e) => println!("error: writing trace files: {e}"),
        }
    }
    println!("{}", result_json(&out));
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
