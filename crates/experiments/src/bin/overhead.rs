//! Ablation A4 — steady-state control-plane overhead.
//!
//! ```text
//! cargo run --release -p hbh-experiments --bin overhead -- --runs 50
//! ```
//!
//! Measures control transmissions per refresh period for each protocol as
//! the group grows — the price HBH pays (fusion machinery) for its
//! data-plane gains.

use hbh_experiments::figures::overhead::{evaluate, render, OverheadConfig};
use hbh_experiments::report::Args;
use hbh_experiments::scenario::TopologyKind;

fn main() {
    let args = Args::parse(&["runs", "topo", "seed"]);
    let mut cfg = OverheadConfig::default_with_runs(args.get_parse("runs", 50));
    cfg.threads = hbh_experiments::parallel::threads_from_env();
    cfg.base_seed = args.get_parse("seed", 1);
    if let Some(t) = args.get("topo") {
        cfg.topo = TopologyKind::parse(t).expect("--topo must be isp or rand50");
    }
    let rows = evaluate(&cfg);
    let table = render(&cfg, &rows);
    println!("{}", table.render());
    println!("{}", table.render_dat());
}
