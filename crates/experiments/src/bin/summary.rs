//! One-shot reproduction summary: runs every experiment at reduced scale
//! and prints a single report — the "does the whole paper still hold?"
//! smoke command.
//!
//! ```text
//! cargo run --release -p hbh-experiments --bin summary -- --runs 30
//! ```

use hbh_experiments::figures::eval::{evaluate, hbh_advantage_over_reunite, EvalConfig, Metric};
use hbh_experiments::figures::{asymmetry, clouds, qos, stability};
use hbh_experiments::protocols::ProtocolKind;
use hbh_experiments::report::Args;
use hbh_experiments::runner::RunConfig;
use hbh_experiments::scenario::TopologyKind;

fn main() {
    let args = Args::parse(&["runs", "seed", "threads"]);
    let run = RunConfig::from_args(&args, 30);
    let runs = run.runs;
    let seed = run.base_seed;

    println!("# HBH reproduction summary ({runs} runs per point)\n");

    for topo in [
        TopologyKind::Isp,
        TopologyKind::Rand50,
        TopologyKind::Waxman30,
    ] {
        let mut cfg = EvalConfig::from_run(&run.clone().topo(topo));
        // Middle-of-figure group sizes keep the summary fast.
        let mid = cfg.sizes[cfg.sizes.len() / 2];
        cfg.sizes = vec![mid];
        let points = evaluate(&cfg);
        let cost = hbh_advantage_over_reunite(&cfg, &points, Metric::Cost).unwrap();
        let delay = hbh_advantage_over_reunite(&cfg, &points, Metric::Delay).unwrap();
        let p = &points[0].per_protocol;
        let idx = |k: ProtocolKind| cfg.protocols.iter().position(|&x| x == k).unwrap();
        println!(
            "{:>9} (m={mid:>2}): cost  PIM-SM {:>6.1}  PIM-SS {:>6.1}  REUNITE {:>6.1}  HBH {:>6.1}   (HBH vs REUNITE: {cost:+.1}%)",
            topo.name(),
            p[idx(ProtocolKind::PimSm)].cost.mean(),
            p[idx(ProtocolKind::PimSs)].cost.mean(),
            p[idx(ProtocolKind::Reunite)].cost.mean(),
            p[idx(ProtocolKind::Hbh)].cost.mean(),
        );
        println!(
            "{:>9}        delay PIM-SM {:>6.1}  PIM-SS {:>6.1}  REUNITE {:>6.1}  HBH {:>6.1}   (HBH vs REUNITE: {delay:+.1}%)",
            "",
            p[idx(ProtocolKind::PimSm)].delay.mean(),
            p[idx(ProtocolKind::PimSs)].delay.mean(),
            p[idx(ProtocolKind::Reunite)].delay.mean(),
            p[idx(ProtocolKind::Hbh)].delay.mean(),
        );
    }

    println!();
    let scfg =
        stability::StabilityConfig::from_run(&run.clone().runs((runs / 2).max(3)).seed(seed));
    let pts = stability::evaluate(&scfg);
    let idx = |k: ProtocolKind| scfg.protocols.iter().position(|&x| x == k).unwrap();
    println!(
        "stability: survivor route changes per departure — REUNITE {:.2}, HBH {:.2}",
        pts[idx(ProtocolKind::Reunite)].route_changes.mean(),
        pts[idx(ProtocolKind::Hbh)].route_changes.mean(),
    );

    let mut acfg = asymmetry::AsymmetryConfig::default_with_runs((runs / 2).max(3));
    acfg.steps = vec![0.0, 1.0];
    acfg.threads = run.threads;
    let pts = asymmetry::evaluate_sweep(&acfg);
    let adv = |p: &asymmetry::AsymmetryPoint| {
        hbh_experiments::figures::eval::hbh_advantage_over_reunite(
            &p.cfg,
            std::slice::from_ref(&p.point),
            Metric::Delay,
        )
        .unwrap()
    };
    println!(
        "asymmetry: HBH delay advantage {:.1}% at a=0  →  {:.1}% at a=1",
        adv(&pts[0]),
        adv(&pts[1])
    );

    let mut ccfg = clouds::CloudsConfig::default_with_runs((runs / 2).max(3));
    ccfg.fractions = vec![0.6];
    ccfg.threads = run.threads;
    let pts = clouds::evaluate_sweep(&ccfg);
    let inc: u64 = pts[0].point.per_protocol.iter().map(|p| p.incomplete).sum();
    println!("clouds: at 60% unicast-only routers, incomplete runs = {inc}");

    let qcfg = qos::QosConfig {
        threads: run.threads,
        ..qos::QosConfig::default_with_runs(runs)
    };
    let rep = qos::evaluate(&qcfg);
    println!(
        "qos: compliant-path fraction — HBH {:.2}, REUNITE {:.2}, PIM-SS {:.2} ({} admitted runs)",
        rep.points[0].compliant_frac.mean(),
        rep.points[1].compliant_frac.mean(),
        rep.points[2].compliant_frac.mean(),
        rep.admitted_runs
    );
}
