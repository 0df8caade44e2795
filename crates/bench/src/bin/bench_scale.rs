//! Internet-scale sweep benchmark: hierarchical AS/POP/access topologies
//! driven through the on-demand routing service, reporting route-cache
//! behaviour (rows computed, hit rate, resident bytes) against the
//! hypothetical all-pairs footprint, plus simulator throughput and peak
//! RSS.
//!
//! ```text
//! # the acceptance-scale sweep: 5,020 routers, 100k hosts
//! cargo run --release -p hbh-bench --bin bench_scale -- --out BENCH_scale.json
//!
//! # CI smoke: tiny hierarchy, same code path, gated on a tolerance sheet
//! cargo run --release -p hbh-bench --bin bench_scale -- \
//!     --smoke 1 --out /tmp/bench_scale_ci.json --check ci/scale_tolerance.txt
//! ```
//!
//! The tolerance sheet `ci/scale_tolerance.txt` (rule syntax in
//! [`hbh_experiments::gate`]) gates the whole sweep: how far resident
//! route state must stay below the all-pairs footprint
//! (`min_memory_ratio`), the row hit rate across paired arms
//! (`min_hit_rate`), and that every receiver is served and every tree
//! quiesces (`max_incomplete`, `max_unconverged`).

use std::time::Instant;

use hbh_experiments::gate::{check_or_exit, peak_rss_kb, Json, Obj};
use hbh_experiments::report::Args;
use hbh_experiments::scale::{run_scale, ScaleConfig, ScaleReport};
use hbh_topo::hier::TierSpec;

fn render_json(report: &ScaleReport, cfg: &ScaleConfig, peak_kb: u64) -> String {
    let protocols = report
        .per_protocol
        .iter()
        .map(|arm| {
            Obj::new()
                .field("name", arm.kind.name())
                .field("cost_mean", Json::fixed(arm.cost_mean, 3))
                .field("delay_mean", Json::fixed(arm.delay_mean, 3))
                .field("incomplete", arm.incomplete)
                .field("unconverged", arm.unconverged)
                .field("events", arm.events)
                .into()
        })
        .collect::<Vec<Json>>();
    let s = &report.route_stats;
    Obj::new()
        .field(
            "topology",
            Obj::new()
                .field("ases", cfg.spec.ases)
                .field("pops_per_as", cfg.spec.pops_per_as)
                .field("access_per_pop", cfg.spec.access_per_pop)
                .field("routers", report.routers)
                .field("hosts", report.hosts)
                .field("directed_edges", report.directed_edges),
        )
        .field(
            "sweep",
            Obj::new()
                .field("runs", report.runs)
                .field("group_size", report.group_size)
                .field("base_seed", cfg.base_seed),
        )
        .field("protocols", protocols)
        .field(
            "routes",
            Obj::new()
                .field("cache_rows", report.cache_rows)
                .field("computed", s.computed)
                .field("hits", s.hits)
                .field("misses", s.misses)
                .field("invalidated", s.invalidated)
                .field("peak_cached_rows", s.cached_rows)
                .field("cache_hit_rate", Json::fixed(report.hit_rate(), 4)),
        )
        .field(
            "memory",
            Obj::new()
                .field("route_bytes", report.route_bytes)
                .field(
                    "bytes_per_router",
                    Json::fixed(report.route_bytes as f64 / report.routers as f64, 1),
                )
                .field("all_pairs_bytes", report.all_pairs_bytes)
                .field("memory_ratio", Json::fixed(report.memory_ratio(), 2))
                .field("csr_bytes", report.csr_bytes)
                .field("peak_rss_kb", peak_kb),
        )
        .field(
            "throughput",
            Obj::new()
                .field("wall_ms", Json::fixed(report.wall_secs * 1e3, 1))
                .field("events", report.events)
                .field("events_per_sec", Json::fixed(report.events_per_sec, 1)),
        )
        .render()
}

fn main() {
    let args = Args::parse(&[
        "ases", "pops", "access", "hosts", "group", "runs", "seed", "cache", "out", "smoke",
        "check",
    ]);
    let smoke: usize = args.get_parse("smoke", 0);
    let mut cfg = if smoke != 0 {
        ScaleConfig::smoke()
    } else {
        ScaleConfig::full()
    };
    cfg.spec = TierSpec {
        ases: args.get_parse("ases", cfg.spec.ases),
        pops_per_as: args.get_parse("pops", cfg.spec.pops_per_as),
        access_per_pop: args.get_parse("access", cfg.spec.access_per_pop),
    };
    cfg.hosts = args.get_parse("hosts", cfg.hosts);
    cfg.group_size = args.get_parse("group", cfg.group_size);
    cfg.runs = args.get_parse("runs", cfg.runs);
    cfg.base_seed = args.get_parse("seed", cfg.base_seed);
    cfg.cache_rows = args.get_parse("cache", cfg.cache_rows);
    let out_path = args.get("out").unwrap_or("BENCH_scale.json").to_string();

    eprintln!(
        "scale sweep: {} routers, {} hosts, {} runs x {} protocols, cache {} rows",
        cfg.router_count(),
        cfg.hosts,
        cfg.runs,
        cfg.protocols.len(),
        cfg.cache_rows,
    );
    let start = Instant::now();
    let report = run_scale(&cfg);
    let peak_kb = peak_rss_kb();
    eprintln!(
        "done in {:.1}s: {} events ({:.0}/s), {} SPF rows computed, hit rate {:.1}%, \
         route cache {} B vs all-pairs {} B ({:.1}x), peak RSS {} kB",
        start.elapsed().as_secs_f64(),
        report.events,
        report.events_per_sec,
        report.route_stats.computed,
        report.hit_rate() * 100.0,
        report.route_bytes,
        report.all_pairs_bytes,
        report.memory_ratio(),
        peak_kb,
    );

    let json = render_json(&report, &cfg, peak_kb);
    std::fs::write(&out_path, &json).expect("writing benchmark report");
    print!("{json}");

    check_or_exit(&args, &report);
}
