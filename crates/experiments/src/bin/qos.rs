//! QoS-routing extension experiment (the paper's §5 future work).
//!
//! ```text
//! cargo run --release -p hbh-experiments --bin qos -- --runs 100 --minbw 4
//! ```
//!
//! Routes the channel over a bandwidth-constrained sub-topology and
//! reports, per protocol, what fraction of delivered paths honor the
//! constraint: recursive unicast inherits the constrained unicast routing
//! end-to-end; RPF data crosses unchecked reverse directions.

use hbh_experiments::figures::qos::{evaluate, render, QosConfig};
use hbh_experiments::report::Args;
use hbh_experiments::scenario::TopologyKind;

fn main() {
    let args = Args::parse(&["runs", "group", "topo", "seed", "minbw"]);
    let mut cfg = QosConfig::default_with_runs(args.get_parse("runs", 100));
    cfg.threads = hbh_experiments::parallel::threads_from_env();
    cfg.group_size = args.get_parse("group", 8);
    cfg.base_seed = args.get_parse("seed", 1);
    cfg.min_bw = args.get_parse("minbw", 4);
    if let Some(t) = args.get("topo") {
        cfg.topo = TopologyKind::parse(t).expect("--topo must be isp or rand50");
    }
    let report = evaluate(&cfg);
    let table = render(&cfg, &report);
    println!("{}", table.render());
    println!("{}", table.render_dat());
}
