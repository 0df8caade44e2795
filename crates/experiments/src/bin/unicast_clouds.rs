//! Ablation A2 — delivery through unicast-only clouds.
//!
//! ```text
//! cargo run --release -p hbh-experiments --bin unicast_clouds -- --runs 100
//! ```
//!
//! Sweeps the fraction of routers that are unicast-only (cannot hold
//! multicast state) and shows the recursive-unicast protocols keep
//! serving every receiver — the paper's deployment story — at the price
//! of extra copies as branching points get displaced.

use hbh_experiments::figures::clouds::{evaluate_sweep, render, CloudsConfig};
use hbh_experiments::figures::eval::Metric;
use hbh_experiments::report::Args;
use hbh_experiments::scenario::TopologyKind;

fn main() {
    let args = Args::parse(&["runs", "group", "topo", "seed"]);
    let mut cfg = CloudsConfig::default_with_runs(args.get_parse("runs", 100));
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
