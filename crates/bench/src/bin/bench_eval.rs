//! Wall-clock benchmark of the paper's headline sweep (Figure 7/8 shape):
//! per group size, `--runs` paired scenario draws, all four protocols per
//! draw, on one topology. Emits a machine-readable JSON report so CI and
//! optimisation work can track simulator throughput over time.
//!
//! ```text
//! cargo run --release -p hbh-bench --bin bench_eval -- \
//!     --topo isp --runs 50 --out BENCH_eval.json
//! ```
//!
//! Reported per point: wall-clock milliseconds, runs per second, and
//! kernel events per second (summed over every kernel of the point, via
//! `ProbeOutcome::events`). The totals line at the end aggregates the
//! whole sweep.

use std::time::Instant;

use hbh_experiments::figures::eval::run_seed;
use hbh_experiments::gate::{Json, Obj};
use hbh_experiments::protocols::{run_protocol, ProtocolKind};
use hbh_experiments::report::Args;
use hbh_experiments::scenario::{build, ScenarioOptions, TopologyKind};
use hbh_proto_base::Timing;

struct PointResult {
    group_size: usize,
    wall_ms: f64,
    runs_per_sec: f64,
    events: u64,
    events_per_sec: f64,
}

fn main() {
    let args = Args::parse(&["topo", "runs", "seed", "out"]);
    let topo = TopologyKind::parse(args.get("topo").unwrap_or("isp"))
        .expect("--topo must be isp or rand50");
    let runs: usize = args.get_parse("runs", 50);
    let base_seed: u64 = args.get_parse("seed", 1);
    let out_path = args.get("out").unwrap_or("BENCH_eval.json").to_string();

    let timing = Timing::default();
    let opts = ScenarioOptions::default();
    let sizes = topo.paper_group_sizes();

    let mut points = Vec::with_capacity(sizes.len());
    let sweep_start = Instant::now();
    for &m in &sizes {
        let start = Instant::now();
        let mut events = 0u64;
        for run in 0..runs {
            let sc = build(topo, m, run_seed(base_seed, m, run), &timing, &opts);
            for kind in ProtocolKind::ALL {
                let o = run_protocol(kind, &sc, &timing);
                assert!(
                    o.complete(),
                    "{} incomplete at m={m} run={run}",
                    kind.name()
                );
                events += o.events;
            }
        }
        let wall = start.elapsed().as_secs_f64();
        points.push(PointResult {
            group_size: m,
            wall_ms: wall * 1e3,
            runs_per_sec: runs as f64 / wall,
            events,
            events_per_sec: events as f64 / wall,
        });
        eprintln!(
            "m={m:>3}: {:>8.1} ms  {:>7.1} runs/s  {:>10.0} events/s",
            points.last().unwrap().wall_ms,
            points.last().unwrap().runs_per_sec,
            points.last().unwrap().events_per_sec,
        );
    }
    let total_wall = sweep_start.elapsed().as_secs_f64();
    let total_events: u64 = points.iter().map(|p| p.events).sum();
    let total_runs = runs * sizes.len();

    let json = Obj::new()
        .field("topo", topo.name())
        .field("runs_per_point", runs)
        .field("base_seed", base_seed)
        .field(
            "points",
            points
                .iter()
                .map(|p| {
                    Obj::new()
                        .field("group_size", p.group_size)
                        .field("wall_ms", Json::fixed(p.wall_ms, 3))
                        .field("runs_per_sec", Json::fixed(p.runs_per_sec, 3))
                        .field("events", p.events)
                        .field("events_per_sec", Json::fixed(p.events_per_sec, 1))
                        .into()
                })
                .collect::<Vec<Json>>(),
        )
        .field(
            "total",
            Obj::new()
                .field("wall_ms", Json::fixed(total_wall * 1e3, 3))
                .field("runs", total_runs)
                .field(
                    "runs_per_sec",
                    Json::fixed(total_runs as f64 / total_wall, 3),
                )
                .field("events", total_events)
                .field(
                    "events_per_sec",
                    Json::fixed(total_events as f64 / total_wall, 1),
                ),
        )
        .render();

    std::fs::write(&out_path, &json).expect("writing benchmark report");
    eprintln!(
        "total: {:.1} ms for {total_runs} paired runs ({:.1} runs/s) -> {out_path}",
        total_wall * 1e3,
        total_runs as f64 / total_wall,
    );
    print!("{json}");
}
