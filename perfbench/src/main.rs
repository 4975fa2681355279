//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output,
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! The traced run also writes its spans to `perfbench/out/`.
//! Without `--seed` the default seed is used; `--seconds` defaults to 10.

use perfbench::metrics::{self, END_TO_END, PER_LAYER};
use perfbench::{Opts, DEFAULT_SEED, WORKLOADS};
use std::process::ExitCode;

fn parse() -> Result<(String, Opts), String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut o) = (None, Opts { seed: DEFAULT_SEED, seconds: 10.0, trace: false, ops: None });
    while let Some(flag) = args.next() {
        let val = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {val:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => o.seed = val.parse().map_err(|_| bad())?,
            "--seconds" => o.seconds = val.parse().map_err(|_| bad())?,
            "--trace" => o.trace = val.parse::<u8>().map_err(|_| bad())? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; one of {WORKLOADS:?}"));
    }
    Ok((workload, o))
}

fn main() -> ExitCode {
    let (workload, o) = match parse() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = perfbench::run(&workload, &o).expect("workload name was checked");
    for n in &out.notes {
        eprintln!("perfbench {workload}: {n}");
    }
    let set: &[metrics::Metric] = if o.trace { &PER_LAYER } else { &END_TO_END };
    for m in set {
        if let Some(v) = out.values.get(m.name) {
            println!(
                "{workload:>12} {:<36} {v:>16.4} {:<8} ({:?}, {} is better)",
                m.name,
                m.unit,
                m.clock,
                m.better.label()
            );
        }
    }
    if let Some(spans) = &out.spans {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/spans-{workload}-{}.json", o.seed);
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, spans)) {
            eprintln!("perfbench: could not write {path}: {e}");
            return ExitCode::from(1);
        }
        eprintln!("perfbench {workload}: spans written to {path}");
    }
    match metrics::result_line(out.correct(), out.attempted, out.failed, set, &out.values) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench {workload}: {e}");
            ExitCode::from(1)
        }
    }
}
