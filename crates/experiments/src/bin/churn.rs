//! Churn experiment — crash the busiest core router mid-session, measure
//! tree repair latency, probe misses/duplicates during reconfiguration,
//! control-plane spend, and route perturbation of innocent receivers
//! (REUNITE vs soft HBH vs hard-state HBH).
//!
//! ```text
//! cargo run --release -p hbh-experiments --bin churn -- --runs 100
//! cargo run --release -p hbh-experiments --bin churn -- --topo rand50 --runs 50
//! cargo run --release -p hbh-experiments --bin churn -- --runs 2 --seed 1 \
//!     --check ci/churn_tolerance.txt
//! ```
//!
//! Prints the table and writes it to `results/churn.txt` plus the
//! machine-readable `results/churn.json`. Exits nonzero if any protocol
//! failed to restore full service after the router restarted, or if a
//! `--check` tolerance is violated.
//!
//! `--check FILE` gates the run on a tolerance sheet (CI runs it at a
//! pinned seed; rule syntax in [`hbh_experiments::gate`]). The gated
//! metric is each arm's mean repair latency:
//!
//! ```text
//! max_repair <PROTOCOL> <mean>   # mean repair latency must be <= mean
//! faster <A> <B>                 # A's mean repair must be strictly < B's
//! ```

use hbh_experiments::figures::churn::{evaluate, render, render_json, ChurnConfig};
use hbh_experiments::gate::check_or_exit;
use hbh_experiments::report::Args;
use hbh_experiments::runner::RunConfig;

fn main() {
    let mut allowed: Vec<&str> = RunConfig::STANDARD_ARGS.to_vec();
    allowed.push("group");
    allowed.push("check");
    let args = Args::parse(&allowed);
    let mut cfg = ChurnConfig::from_run(&RunConfig::from_args(&args, 100));
    cfg.group_size = args.get_parse("group", cfg.group_size);

    let report = evaluate(&cfg);
    let table = render(&cfg, &report);
    let rendered = table.render();
    println!("{rendered}");

    std::fs::create_dir_all("results").expect("create results/");
    let path = "results/churn.txt";
    std::fs::write(path, format!("{rendered}\n")).expect("write churn report");
    let json_path = "results/churn.json";
    std::fs::write(json_path, render_json(&cfg, &report)).expect("write churn json");
    println!("# written to {path} and {json_path}");

    for (kind, p) in cfg.protocols.iter().zip(&report.points) {
        if p.unrecovered > 0 {
            eprintln!(
                "WARNING: {} did not restore full service in {} run(s)",
                kind.name(),
                p.unrecovered
            );
            std::process::exit(1);
        }
    }

    check_or_exit(&args, &(&cfg, &report));
}
