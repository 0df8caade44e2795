//! Concurrent-groups scaling experiment.
//!
//! ```text
//! cargo run --release -p hbh-experiments --bin groups -- --runs 20
//! ```
//!
//! Runs many channels simultaneously on one network and reports how total
//! forwarding state and control traffic grow with the group count — the
//! state-aggregation concern §1 of the paper opens with.

use hbh_experiments::figures::groups::{evaluate, render, GroupsConfig};
use hbh_experiments::report::Args;

fn main() {
    let args = Args::parse(&["runs", "rx", "seed"]);
    let mut cfg = GroupsConfig::default_with_runs(args.get_parse("runs", 20));
    cfg.threads = hbh_experiments::parallel::threads_from_env();
    cfg.receivers_per_group = args.get_parse("rx", 5);
    cfg.base_seed = args.get_parse("seed", 1);
    let rows = evaluate(&cfg);
    let table = render(&cfg, &rows);
    println!("{}", table.render());
    println!("{}", table.render_dat());
}
