//! `e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints `#`-prefixed diagnostics, then one JSON result line.

use nest_e2ebench::gen::Workload;
use nest_e2ebench::run::{run, Args};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("e2ebench: {msg}");
    eprintln!(
        "usage: e2ebench --workload <small-files|bulk-read|bulk-write> --seed <n> --seconds <s> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    for pair in argv.chunks(2) {
        let value = pair.get(1).map(String::as_str);
        match (pair[0].as_str(), value) {
            ("--workload", Some(v)) => workload = Workload::parse(v),
            ("--seed", Some(v)) => seed = v.parse::<u64>().ok(),
            ("--seconds", Some(v)) => seconds = v.parse::<f64>().ok().filter(|s| *s > 0.0),
            ("--trace", Some(v)) => trace = matches!(v, "0" | "1").then(|| v == "1"),
            (flag, _) => return usage(&format!("unknown or incomplete argument {flag:?}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("every argument is required and must be valid");
    };
    // The checkout root: the benchmark's package sits one level below it.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    let args = Args {
        workload,
        seed,
        seconds,
        trace,
        smoke: false,
        data: root.join(".e2ebench_data"),
        root,
    };
    match run(&args) {
        Ok(out) => {
            println!("{}", out.line);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: run failed: {e}");
            ExitCode::FAILURE
        }
    }
}
