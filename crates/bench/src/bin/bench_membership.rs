//! Membership-scale benchmark: the three
//! [`Workload`](hbh_proto_base::Workload) shapes (flash crowd, Zipf
//! lineup, IPTV zapping) paired across the membership arms,
//! plus the HBH-AGG flash-crowd storm sweep to 10⁵ receivers, reporting
//! control volume, settle latency, and per-router state split by role
//! (interior tree state vs. access-router member summaries).
//!
//! ```text
//! # the acceptance-scale sweep: 5,020 routers, 120k hosts, 10⁵-join storm
//! cargo run --release -p hbh-bench --bin bench_membership -- --out BENCH_membership.json
//!
//! # CI smoke: tiny hierarchy, same code path, gated on a tolerance sheet
//! cargo run --release -p hbh-bench --bin bench_membership -- \
//!     --smoke 1 --out /tmp/bench_membership_ci.json --check ci/membership_tolerance.txt
//! ```
//!
//! The tolerance sheet (rule syntax in [`hbh_experiments::gate`]) gates
//! the whole sweep:
//!
//! ```text
//! max_incomplete 0             # every expected receiver served, every cell
//! max_unconverged 0            # every cell quiesced before probing
//! max_storm_state_exponent 0.5 # interior state sublinear in receivers
//! max_agg_control_ratio 0.6    # aggregation must beat plain HBH's storm
//! ```

use std::time::Instant;

use hbh_experiments::gate::{check_or_exit, peak_rss_kb, Json, Obj};
use hbh_experiments::membership::{
    run_membership, MembershipConfig, MembershipOutcome, MembershipReport,
};
use hbh_experiments::report::Args;
use hbh_topo::hier::TierSpec;

/// The outcome columns shared by comparison cells and storm points,
/// appended to `row` (`served` onwards).
fn outcome_fields(row: Obj, o: &MembershipOutcome) -> Json {
    row.field("served", o.served)
        .field("converged", o.converged)
        .field(
            "settle_latency",
            o.settle_latency.map_or(-1i64, |l| l as i64),
        )
        .field("control_copies", o.control_copies)
        .field(
            "control_per_receiver",
            Json::fixed(o.control_per_receiver(), 2),
        )
        .field("interior_state_max", o.interior_state_max)
        .field("interior_state_mean", Json::fixed(o.interior_state_mean, 1))
        .field("access_state_max", o.access_state_max)
        .into()
}

fn render_json(report: &MembershipReport, cfg: &MembershipConfig, peak_kb: u64) -> String {
    let comparison = report
        .comparison
        .iter()
        .map(|arm| {
            let row = Obj::new()
                .field("workload", arm.workload)
                .field("protocol", arm.kind.name())
                .field("expected", arm.outcome.expected);
            outcome_fields(row, &arm.outcome)
        })
        .collect::<Vec<Json>>();
    let storm = report
        .storm
        .iter()
        .map(|p| outcome_fields(Obj::new().field("receivers", p.receivers), &p.outcome))
        .collect::<Vec<Json>>();
    Obj::new()
        .field(
            "topology",
            Obj::new()
                .field("ases", cfg.spec.ases)
                .field("pops_per_as", cfg.spec.pops_per_as)
                .field("access_per_pop", cfg.spec.access_per_pop)
                .field("routers", report.routers)
                .field("hosts", report.hosts),
        )
        .field(
            "sweep",
            Obj::new()
                .field("group_size", report.group_size)
                .field("channels", report.channels)
                .field("zipf_exponent", cfg.zipf_exponent)
                .field("zaps", cfg.zaps)
                .field("base_seed", cfg.base_seed),
        )
        .field("comparison", comparison)
        .field("storm", storm)
        .field(
            "acceptance",
            Obj::new()
                .field("incomplete", report.incomplete())
                .field("unconverged", report.unconverged())
                .field(
                    "storm_state_exponent",
                    Json::fixed(report.storm_state_exponent(), 4),
                )
                .field(
                    "agg_control_ratio",
                    Json::fixed(report.agg_control_ratio(), 4),
                ),
        )
        .field(
            "throughput",
            Obj::new()
                .field("wall_ms", Json::fixed(report.wall_secs * 1e3, 1))
                .field("events", report.events)
                .field("peak_rss_kb", peak_kb),
        )
        .render()
}

fn main() {
    let args = Args::parse(&[
        "ases", "pops", "access", "hosts", "group", "channels", "zaps", "seed", "cache", "out",
        "smoke", "check",
    ]);
    let smoke: usize = args.get_parse("smoke", 0);
    let mut cfg = if smoke != 0 {
        MembershipConfig::smoke()
    } else {
        MembershipConfig::full()
    };
    cfg.spec = TierSpec {
        ases: args.get_parse("ases", cfg.spec.ases),
        pops_per_as: args.get_parse("pops", cfg.spec.pops_per_as),
        access_per_pop: args.get_parse("access", cfg.spec.access_per_pop),
    };
    cfg.hosts = args.get_parse("hosts", cfg.hosts);
    cfg.group_size = args.get_parse("group", cfg.group_size);
    cfg.channels = args.get_parse("channels", cfg.channels);
    cfg.zaps = args.get_parse("zaps", cfg.zaps);
    cfg.base_seed = args.get_parse("seed", cfg.base_seed);
    cfg.cache_rows = args.get_parse("cache", cfg.cache_rows);
    let out_path = args
        .get("out")
        .unwrap_or("BENCH_membership.json")
        .to_string();

    eprintln!(
        "membership sweep: {} routers, {} hosts, {} workloads x {} arms, storm to {} receivers",
        cfg.router_count(),
        cfg.hosts,
        cfg.workloads().len(),
        cfg.protocols.len(),
        cfg.storm_sizes.last().copied().unwrap_or(0),
    );
    let start = Instant::now();
    let report = run_membership(&cfg);
    let peak_kb = peak_rss_kb();
    eprintln!(
        "done in {:.1}s: {} events, {} incomplete, {} unconverged, \
         storm exponent {:.3}, agg/plain control ratio {:.3}, peak RSS {} kB",
        start.elapsed().as_secs_f64(),
        report.events,
        report.incomplete(),
        report.unconverged(),
        report.storm_state_exponent(),
        report.agg_control_ratio(),
        peak_kb,
    );

    let json = render_json(&report, &cfg, peak_kb);
    std::fs::write(&out_path, &json).expect("writing benchmark report");
    print!("{json}");

    check_or_exit(&args, &report);
}
