//! `bullet-e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]`
//!
//! Prints progress on stderr and, as the last line of stdout, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.  Exits 1 if
//! any check failed, 2 on bad usage.

use std::path::PathBuf;
use std::process::ExitCode;

use bullet_e2ebench::run::{run, Opts};
use bullet_e2ebench::workload::Kind;

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: bullet-e2ebench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]",
        Kind::ALL.map(Kind::name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut kind = None;
    let (mut seed, mut seconds, mut trace, mut out) = (1u64, 10f64, false, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(v) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Kind::parse(v) {
                Some(k) => kind = Some(k),
                None => return usage(&format!("unknown workload {v}")),
            },
            "--seed" => match v.parse() {
                Ok(s) => seed = s,
                Err(_) => return usage("--seed takes an unsigned integer"),
            },
            "--seconds" => match v.parse::<f64>() {
                Ok(s) if s > 0.0 => seconds = s,
                _ => return usage("--seconds takes a positive number"),
            },
            "--trace" => match v.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage("--trace takes 0 or 1"),
            },
            "--out" => out = Some(PathBuf::from(v)),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let Some(kind) = kind else {
        return usage("--workload is required");
    };
    let mut opts = Opts::new(kind, seed, seconds, trace);
    if let Some(dir) = out {
        opts.out_dir = dir;
    }
    let outcome = run(&opts);
    for e in &outcome.errors {
        eprintln!("check failed: {e}");
    }
    println!("{}", outcome.json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
