//! The simulator's benchmark binary. `perfbench/run.py` drives it; see
//! `perfbench/README.md` for the workloads and metrics.
//!
//! ```text
//! perfbench setup --workload W --seed N [--smoke]
//! perfbench run   --workload W --seed N --seconds S [--smoke]
//! perfbench trace --workload W --seed N --seconds S [--smoke]
//! ```
//!
//! `setup` times one cold set-up; `run` measures the end-to-end metrics
//! with tracing off; `trace` alternates traced and untraced rounds and
//! reports the per-layer metrics. Human-readable lines go first; the last
//! line of standard output is one JSON object.

mod arm;
mod report;
mod round;
mod timed;
mod workloads;

use report::Metrics;
use round::{round, sample_row_ms, Round};
use std::time::{Duration, Instant};
use workloads::{setup, setup_layers, Name};

struct Args {
    mode: String,
    workload: Name,
    seed: u64,
    seconds: f64,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mode = it.next().ok_or("missing mode (setup, run or trace)")?;
    if !["setup", "run", "trace"].contains(&mode.as_str()) {
        return Err(format!("unknown mode {mode:?}"));
    }
    let mut args = Args {
        mode,
        workload: Name::PaperSweep,
        seed: 1,
        seconds: 10.0,
        smoke: false,
    };
    let mut workload = None;
    while let Some(key) = it.next() {
        if key == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{key} needs a value"))?;
        match key.as_str() {
            "--workload" => {
                workload = Some(Name::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => args.seed = value.parse().map_err(|_| "--seed must be an integer")?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| "--seconds must be a number")?
            }
            _ => return Err(format!("unknown flag {key:?}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // A panicking arm run is caught and counted; keep its message short.
    std::panic::set_hook(Box::new(|info| eprintln!("arm run panicked: {info}")));
    match args.mode.as_str() {
        "setup" => {
            let start = Instant::now();
            let s = setup(args.workload, args.seed, args.smoke);
            let secs = start.elapsed().as_secs_f64();
            println!(
                "{{\"setup_s\": {secs}, \"draws\": {}, \"arm_runs\": {}}}",
                s.draws.len(),
                s.arm_runs()
            );
        }
        "run" => run(&args),
        _ => trace(&args),
    }
}

/// Untraced measurement: rounds until the time is up. Every round runs
/// the same draws, so every round must simulate exactly what the first
/// did.
fn run(args: &Args) {
    let start = Instant::now();
    let s = setup(args.workload, args.seed, args.smoke);
    let setup_s = start.elapsed().as_secs_f64();
    println!("workload {}: {}", args.workload.as_str(), s.shape);
    println!("in-process set-up {setup_s:.3} s (setup_s is timed in fresh processes)");

    let budget = Duration::from_secs_f64(args.seconds);
    let measured = Instant::now();
    let mut rounds = Vec::new();
    while rounds.is_empty() || measured.elapsed() < budget {
        rounds.push(round(&s, false));
    }
    let digest = rounds[0].digest;
    let digest_ok = rounds.iter().all(|r| r.digest == digest);
    let mut m = Metrics::default();
    let (attempted, failed) = report::end_to_end(&mut m, &rounds);
    println!("sim_digest {digest:016x} (every round identical: {digest_ok})");
    rounds[0].print_unconverged(&s);
    m.print_and_emit(digest_ok && failed == 0, attempted, failed);
}

/// Traced measurement: untraced and traced rounds alternate, so the
/// overhead is measured on the same machine state.
fn trace(args: &Args) {
    let s = setup(args.workload, args.seed, args.smoke);
    println!("workload {}: {} (traced)", args.workload.as_str(), s.shape);
    let layers = setup_layers(args.workload, args.seed, args.smoke, &s);
    let row_ms = sample_row_ms(&s, args.seed);

    let budget = Duration::from_secs_f64(args.seconds);
    let measured = Instant::now();
    let (mut plain, mut traced): (Vec<Round>, Vec<Round>) = (Vec::new(), Vec::new());
    while traced.is_empty() || measured.elapsed() < budget {
        plain.push(round(&s, false));
        traced.push(round(&s, true));
    }
    let digest = plain[0].digest;
    let digest_ok = plain.iter().chain(&traced).all(|r| r.digest == digest);
    println!("sim_digest {digest:016x} (traced and untraced rounds identical: {digest_ok})");
    plain[0].print_unconverged(&s);
    let attempted: u64 = plain
        .iter()
        .chain(&traced)
        .map(|r| r.records.len() as u64)
        .sum();
    let failed: u64 = plain.iter().chain(&traced).map(Round::failed).sum();
    let mut m = Metrics::default();
    report::per_layer(&mut m, layers.unwrap_or_default(), row_ms, &plain, &traced);
    m.print_and_emit(
        digest_ok && layers.is_some() && failed == 0,
        attempted,
        failed,
    );
}
