//! `perfbench --workload <scan|sweep|serve> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, logs progress and checks to standard error, and
//! prints the result as one JSON line on standard output. Exits 1 when
//! an output check fails, 2 on bad arguments.

use perfbench::{run, Mode, Size, Workload};
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <scan|sweep|serve> --seed <n> --seconds <s> --trace <0|1>";

fn parse() -> Result<(Workload, u64, f64, Mode), String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut mode = Mode::Untraced;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                mode = match value.as_str() {
                    "0" => Mode::Untraced,
                    "1" => Mode::Traced,
                    _ => return Err(format!("bad trace flag {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok((
        workload.ok_or("--workload is required")?,
        seed,
        seconds,
        mode,
    ))
}

fn main() -> ExitCode {
    let (workload, seed, seconds, mode) = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "perfbench: {workload:?} seed {seed}, {seconds} s, {mode:?}, {} CPUs",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let report = run(workload, seed, seconds, mode, Size::Full);
    for e in &report.errors {
        eprintln!("check failed: {e}");
    }
    println!("{}", report.to_json());
    if report.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
