//! Ablation A3 — soft-state timer sensitivity.
//!
//! ```text
//! cargo run --release -p hbh-experiments --bin timers -- --runs 50
//! ```
//!
//! Scales t1/t2 and shows that the steady-state metrics the paper reports
//! are timer-insensitive while convergence time scales with t2 —
//! justifying the defaults documented in `hbh-proto-base::timing`.

use hbh_experiments::figures::timers::{evaluate, render, TimersConfig};
use hbh_experiments::report::Args;
use hbh_experiments::scenario::TopologyKind;

fn main() {
    let args = Args::parse(&["runs", "group", "topo", "seed"]);
    let mut cfg = TimersConfig::default_with_runs(args.get_parse("runs", 50));
    cfg.threads = hbh_experiments::parallel::threads_from_env();
    cfg.group_size = args.get_parse("group", 8);
    cfg.base_seed = args.get_parse("seed", 1);
    if let Some(t) = args.get("topo") {
        cfg.topo = TopologyKind::parse(t).expect("--topo must be isp or rand50");
    }
    let rows = evaluate(&cfg);
    let table = render(&cfg, &rows);
    println!("{}", table.render());
    println!("{}", table.render_dat());
}
