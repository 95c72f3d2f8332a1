//! `kvbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a header line, one line per metric (unit and sample count),
//! and, last, the result as one JSON object. Exits 1 on a wrong answer
//! or a lost acknowledged write, 2 on bad arguments or a failed run.

use std::process::ExitCode;

use kvbench::run::{run, Args};
use kvbench::spec::{Spec, Workload};

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: kvbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse(argv: &[String]) -> Result<(Workload, Args), String> {
    let mut workload = None;
    let mut args = Args {
        seed: 1,
        seconds: 10.0,
        trace: false,
        spans_path: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .map_err(|_| format!("bad value for {flag}: {value}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((workload, args))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (workload, mut args) = match parse(&argv) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("kvbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if args.trace {
        args.spans_path = Some(format!(".bench_trace/{}.spans.jsonl", workload.name()).into());
    }
    let spec = Spec::full(workload);
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"available_parallelism\": {threads}, \"keys\": {}, \"shards\": {}}}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        spec.keys,
        spec.shards
    );
    match run(&spec, &args) {
        Ok(outcome) => {
            for line in outcome.lines() {
                println!("{line}");
            }
            println!("{}", outcome.json());
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("kvbench: {} run failed: {e}", workload.name());
            ExitCode::from(2)
        }
    }
}
