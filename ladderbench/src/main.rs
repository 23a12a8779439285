//! `ladderbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Untraced (`--trace 0`): sets up [`SETUP_REPS`] times, measures the last
//! set-up for `--seconds`, and reports the end-to-end metrics. Traced
//! (`--trace 1`): measures an untraced and a traced set-up for half the
//! time each and reports the per-layer metrics of the traced one, plus
//! `trace.overhead_frac`. The last line of standard output is the JSON
//! result; the exit code is non-zero if any correctness check failed.

use std::process::ExitCode;
use std::time::Duration;

use pbdmm_ladderbench::measure::{nproc, Params};
use pbdmm_ladderbench::report::{emit, END_TO_END, PER_LAYER};
use pbdmm_ladderbench::{procfs, run_workload, WORKLOADS};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} expected, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("number"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("positive number of seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ladderbench: {e}");
            eprintln!(
                "usage: ladderbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let params = |timed: f64, traced: bool, setup_reps: usize| Params {
        seed: args.seed,
        timed: Duration::from_secs_f64(timed),
        traced,
        setup_reps,
    };
    let (mut run, defs) = if args.trace {
        let half = args.seconds / 2.0;
        let plain = run_workload(&args.workload, &params(half, false, 1)).expect("known workload");
        let mut traced =
            run_workload(&args.workload, &params(half, true, 1)).expect("known workload");
        let ratio = traced.get("updates_per_s") / plain.get("updates_per_s");
        traced.set("trace.overhead_frac", ratio);
        traced.meta("untraced_updates_per_s", plain.get("updates_per_s"));
        traced.gate.absorb(plain.gate);
        (traced, PER_LAYER)
    } else {
        let run = run_workload(&args.workload, &params(args.seconds, false, SETUP_REPS))
            .expect("known workload");
        (run, END_TO_END)
    };
    let failed_frac = run.gate.failed_frac();
    run.set("failed_frac", failed_frac);
    run.meta("seed", args.seed);
    run.meta("seconds", args.seconds);
    run.meta("trace", args.trace as u8);
    run.meta("nproc", nproc());
    run.meta("l2", procfs::cache_size(2));
    run.meta("l3", procfs::cache_size(3));
    run.meta("kernel", procfs::kernel());
    if emit(&mut run, defs, !args.trace) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
