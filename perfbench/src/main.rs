//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one line per metric, then the result as a single JSON line.
//! Exits 2 on a bad argument.

use perfbench::{run, RunConfig, Scale, Workload};
use std::process::ExitCode;

fn usage() -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!(
        "usage: perfbench --workload <{}> --seed <u64> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = RunConfig {
        workload: Workload::ForkJoin,
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
    };
    let mut workload = None;
    for pair in args.chunks(2) {
        match (pair[0].as_str(), pair.get(1).map(String::as_str)) {
            ("--workload", Some(v)) => workload = Workload::parse(v),
            ("--seed", Some(v)) => match v.parse() {
                Ok(s) => cfg.seed = s,
                Err(_) => return usage(),
            },
            ("--seconds", Some(v)) => match v.parse::<f64>() {
                Ok(s) if s > 0.0 && s <= 120.0 => cfg.seconds = s,
                _ => return usage(),
            },
            ("--trace", Some("0")) => cfg.trace = false,
            ("--trace", Some("1")) => cfg.trace = true,
            _ => return usage(),
        }
    }
    let Some(w) = workload else {
        return usage();
    };
    cfg.workload = w;
    let outcome = run(&cfg);
    print!("{}", outcome.report());
    println!("{}", outcome.json());
    ExitCode::SUCCESS
}
