//! `qr3d-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a fingerprint line, one `# name = value unit` line per metric,
//! and, as the last line, the JSON result.

use std::path::Path;
use std::process::ExitCode;

use qr3d_perfbench::report::{fingerprint, END_TO_END, PER_LAYER};
use qr3d_perfbench::run::{traced, untraced, Args};
use qr3d_perfbench::spec::Workload;
use qr3d_perfbench::workloads::Inputs;

const USAGE: &str = "usage: qr3d-perfbench --workload <square_caqr3d|service_tallskinny|\
streaming_append> --seed <u64> --seconds <1..=600> --trace <0|1>";

/// Where traced runs write their Chrome trace, relative to the working
/// directory (the repository root).
const TRACE_DIR: &str = "perfbench/out";

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be 1..=600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    println!(
        "# fingerprint {}",
        fingerprint(w, args.seed, args.seconds, args.trace)
    );
    println!("# workload {}: {}", w.name(), w.why());
    for ((m, n), backend) in w.op_shapes() {
        println!("# operation: {m}x{n} with {backend:?} on P = {}", w.procs());
    }
    for (layer, e2e) in w.layer_map() {
        println!("# layer map: {layer} -> {e2e}");
    }
    let inputs = Inputs::generate(w, args.seed);
    let (report, catalogue) = if args.trace {
        (traced(&args, &inputs, Path::new(TRACE_DIR)), PER_LAYER)
    } else {
        (untraced(&args, &inputs), END_TO_END)
    };
    print!("{}", report.human(catalogue));
    println!("{}", report.json(catalogue));
    ExitCode::SUCCESS
}
