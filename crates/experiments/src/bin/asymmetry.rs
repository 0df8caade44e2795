//! Ablation A1 — how HBH's advantage depends on routing asymmetry.
//!
//! ```text
//! cargo run --release -p hbh-experiments --bin asymmetry -- --runs 100
//! ```
//!
//! Sweeps the probability that a link's two directions get independent
//! costs (0 = symmetric network … 1 = the paper's setting) and prints
//! cost and delay for PIM-SS / REUNITE / HBH plus HBH's advantage — the
//! paper's causal claim is that the advantage vanishes at 0 and grows
//! with asymmetry.

use hbh_experiments::figures::asymmetry::{evaluate_sweep, render, AsymmetryConfig};
use hbh_experiments::figures::eval::Metric;
use hbh_experiments::report::Args;
use hbh_experiments::scenario::TopologyKind;

fn main() {
    let args = Args::parse(&["runs", "group", "topo", "seed"]);
    let mut cfg = AsymmetryConfig::default_with_runs(args.get_parse("runs", 100));
    cfg.threads = hbh_experiments::parallel::threads_from_env();
    cfg.group_size = args.get_parse("group", 10);
    cfg.base_seed = args.get_parse("seed", 1);
    if let Some(t) = args.get("topo") {
        cfg.topo = TopologyKind::parse(t).expect("--topo must be isp or rand50");
    }
    let points = evaluate_sweep(&cfg);
    for metric in [Metric::Cost, Metric::Delay] {
        let table = render(&cfg, &points, metric);
        println!("{}", table.render());
        println!("{}", table.render_dat());
    }
}
