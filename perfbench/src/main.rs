//! Runs one workload and prints its result line.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//! ```
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics. `run.py` builds this
//! binary and forwards the same arguments.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use perfbench::measure::{peak_rss_mib, Calibrator};
use perfbench::report::{end_to_end, mean_over_inputs, per_layer, result_line};
use perfbench::workloads::{input_seed, run_unit, Layers, Sizes, Unit, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work_dir = PathBuf::from(".");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("bad seconds {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--work-dir" => work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        work_dir,
    })
}

/// Runs units until `seconds` have passed, cycling through the first
/// `inputs` inputs of the seed so that each runs at least once. Returns
/// the units of each input.
fn measure(
    args: &Args,
    seconds: f64,
    inputs: usize,
    mut layers: Option<&mut Layers>,
) -> Vec<Vec<Unit>> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut units: Vec<Vec<Unit>> = vec![Vec::new(); inputs];
    let mut i = 0;
    let mut cal = Calibrator::new();
    while i < inputs || Instant::now() < deadline {
        let input = i % inputs;
        let unit = run_unit(
            args.workload,
            input_seed(args.seed, input),
            &Sizes::FULL,
            &args.work_dir,
            layers.as_deref_mut(),
            &mut cal,
        );
        eprintln!(
            "{} input {input}: wall {:.4} s, cpu {:.4} s (calibrated, scale {:.4})",
            args.workload.name(),
            unit.wall_s,
            unit.cpu_s,
            unit.scale
        );
        if let Some(why) = &unit.failure {
            eprintln!("{}: check failed: {why}", args.workload.name());
        }
        units[input].push(unit);
        i += 1;
    }
    units
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: work dir {}: {e}", args.work_dir.display());
        return ExitCode::from(2);
    }
    // The traced run compares like with like: one input, with the
    // instruments off and then on.
    let (units, metrics) = if args.trace {
        let plain = measure(&args, args.seconds / 2.0, 1, None);
        let mut layers = Layers::default();
        let traced = measure(&args, args.seconds / 2.0, 1, Some(&mut layers));
        let wall = |u: &[Vec<Unit>]| mean_over_inputs(u, true, |u| u.wall_s);
        let metrics = per_layer(&layers, wall(&traced), wall(&plain));
        ([plain, traced].concat(), metrics)
    } else {
        let units = measure(&args, args.seconds, args.workload.inputs(), None);
        let metrics = end_to_end(&units, peak_rss_mib());
        (units, metrics)
    };
    let attempted = units.iter().map(Vec::len).sum();
    let failed = units
        .iter()
        .flatten()
        .filter(|u| u.failure.is_some())
        .count();
    println!("{}", result_line(attempted, failed, &metrics));
    ExitCode::SUCCESS
}
