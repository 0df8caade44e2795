//! The paper's headline evaluation (Figures 7 and 8): average tree cost
//! and average receiver delay vs. group size, four protocols, two
//! topologies, N independent paired runs per point.

use crate::protocols::{run_protocol, ProtocolKind};
use crate::report::Table;
use crate::scenario::{build, ScenarioOptions, TopologyKind};
use crate::stats::Summary;
use hbh_proto_base::Timing;

/// Which of the two paper metrics to report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Metric {
    /// Figure 7: packet copies per injected data packet.
    Cost,
    /// Copies weighted by link cost (the abstract's "bandwidth
    /// consumption"; an alternative reading of Figure 7's axis).
    Bandwidth,
    /// Figure 8: mean receiver delay in time units.
    Delay,
}

impl Metric {
    pub fn title(self) -> &'static str {
        match self {
            Metric::Cost => "Tree cost (number of packet copies)",
            Metric::Bandwidth => "Tree bandwidth consumption (cost-weighted copies)",
            Metric::Delay => "Receiver average delay (time units)",
        }
    }
}

/// Evaluation configuration (defaults reproduce the paper's setup except
/// for `runs`, which the binaries let you dial down from 500).
#[derive(Clone, Debug)]
pub struct EvalConfig {
    pub topo: TopologyKind,
    pub sizes: Vec<usize>,
    pub runs: usize,
    /// Worker threads for the run fan-out (`None`: one per available
    /// core); see [`crate::parallel::map_runs`].
    pub threads: Option<usize>,
    pub base_seed: u64,
    pub timing: Timing,
    pub opts: ScenarioOptions,
    pub protocols: Vec<ProtocolKind>,
}

impl EvalConfig {
    /// Evaluation view of a shared [`crate::runner::RunConfig`]: the
    /// paper's group-size sweep for the run's topology, all other knobs
    /// carried over.
    pub fn from_run(run: &crate::runner::RunConfig) -> Self {
        EvalConfig {
            topo: run.topo,
            sizes: run.topo.paper_group_sizes(),
            runs: run.runs,
            threads: run.threads,
            base_seed: run.base_seed,
            timing: run.timing,
            opts: run.opts,
            protocols: run.protocols.clone(),
        }
    }
}

/// Per-protocol aggregates at one group size.
#[derive(Clone, Debug, Default)]
pub struct ProtocolPoint {
    pub cost: Summary,
    pub bandwidth: Summary,
    pub delay: Summary,
    /// Runs where not every receiver was served (must stay 0).
    pub incomplete: u64,
    /// Runs that failed to quiesce before the probe (should stay 0).
    pub unconverged: u64,
}

/// One group-size row of the figure.
#[derive(Clone, Debug)]
pub struct EvalPoint {
    pub group_size: usize,
    /// Indexed like `cfg.protocols`.
    pub per_protocol: Vec<ProtocolPoint>,
}

/// Seed for run `run` at group size `group_size`: `base ^ (size << 32) ^
/// run`, giving disjoint seed spaces per (size, run) pair. The shift is
/// deliberately parenthesized — `<<` binds tighter than `^` in Rust, so
/// this grouping is exactly what the historical unparenthesized expression
/// evaluated to; a regression test pins the sequence.
pub fn run_seed(base_seed: u64, group_size: usize, run: usize) -> u64 {
    (base_seed ^ ((group_size as u64) << 32)) ^ run as u64
}

/// Runs the full evaluation; paired design: all protocols see the same
/// scenario draw of each run. Runs are distributed over available cores.
pub fn evaluate(cfg: &EvalConfig) -> Vec<EvalPoint> {
    cfg.sizes.iter().map(|&m| evaluate_point(cfg, m)).collect()
}

fn evaluate_point(cfg: &EvalConfig, group_size: usize) -> EvalPoint {
    // One row of per-protocol outcomes per run, back in run order, so the
    // Summary fold below is independent of worker scheduling.
    let per_run = crate::parallel::map_runs(cfg.threads, cfg.runs, |run| {
        let seed = run_seed(cfg.base_seed, group_size, run);
        let sc = build(cfg.topo, group_size, seed, &cfg.timing, &cfg.opts);
        cfg.protocols
            .iter()
            .map(|&kind| run_protocol(kind, &sc, &cfg.timing))
            .collect::<Vec<_>>()
    });

    let mut merged = vec![ProtocolPoint::default(); cfg.protocols.len()];
    for outcomes in per_run {
        for (m, o) in merged.iter_mut().zip(outcomes) {
            m.cost.add(o.cost as f64);
            m.bandwidth.add(o.weighted_cost as f64);
            m.delay.add(o.avg_delay());
            if !o.complete() {
                m.incomplete += 1;
            }
            if !o.converged {
                m.unconverged += 1;
            }
        }
    }
    EvalPoint {
        group_size,
        per_protocol: merged,
    }
}

fn metric_of(p: &ProtocolPoint, metric: Metric) -> &Summary {
    match metric {
        Metric::Cost => &p.cost,
        Metric::Bandwidth => &p.bandwidth,
        Metric::Delay => &p.delay,
    }
}

/// Renders one figure's table.
pub fn render(cfg: &EvalConfig, points: &[EvalPoint], metric: Metric) -> Table {
    let names: Vec<&str> = cfg.protocols.iter().map(|p| p.name()).collect();
    let mut t = Table::new(
        format!(
            "{} — {} topology, {} runs/point",
            metric.title(),
            cfg.topo.name(),
            cfg.runs
        ),
        "receivers",
        &names,
    );
    for p in points {
        let cells = p
            .per_protocol
            .iter()
            .map(|pp| {
                let s = metric_of(pp, metric);
                Table::cell(s.mean(), s.ci95())
            })
            .collect();
        t.row(p.group_size.to_string(), cells);
    }
    t
}

/// The paper's §4.2 headline comparison: HBH's average advantage over
/// REUNITE across all group sizes, in percent (positive = HBH better,
/// i.e. smaller metric).
pub fn hbh_advantage_over_reunite(
    cfg: &EvalConfig,
    points: &[EvalPoint],
    metric: Metric,
) -> Option<f64> {
    let hbh = cfg.protocols.iter().position(|&p| p == ProtocolKind::Hbh)?;
    let reunite = cfg
        .protocols
        .iter()
        .position(|&p| p == ProtocolKind::Reunite)?;
    let mut total = 0.0;
    let mut n = 0;
    for p in points {
        let h = metric_of(&p.per_protocol[hbh], metric).mean();
        let r = metric_of(&p.per_protocol[reunite], metric).mean();
        if r > 0.0 {
            total += (r - h) / r * 100.0;
            n += 1;
        }
    }
    (n > 0).then(|| total / n as f64)
}

/// Health check: no protocol may have dropped receivers or failed to
/// converge. Returns a description of the first violation.
pub fn health_violations(cfg: &EvalConfig, points: &[EvalPoint]) -> Option<String> {
    for p in points {
        for (i, pp) in p.per_protocol.iter().enumerate() {
            if pp.incomplete > 0 {
                return Some(format!(
                    "{} at m={}: {} incomplete runs",
                    cfg.protocols[i].name(),
                    p.group_size,
                    pp.incomplete
                ));
            }
            if pp.unconverged > 0 {
                return Some(format!(
                    "{} at m={}: {} unconverged runs",
                    cfg.protocols[i].name(),
                    p.group_size,
                    pp.unconverged
                ));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> EvalConfig {
        let mut cfg = EvalConfig::from_run(&crate::runner::RunConfig::new().runs(6));
        cfg.sizes = vec![4, 10];
        cfg
    }

    #[test]
    fn evaluation_is_healthy_and_ordered() {
        let cfg = small_cfg();
        let points = evaluate(&cfg);
        assert_eq!(points.len(), 2);
        assert_eq!(health_violations(&cfg, &points), None);
        // Cost grows with group size for every protocol.
        for i in 0..cfg.protocols.len() {
            assert!(
                points[1].per_protocol[i].cost.mean() > points[0].per_protocol[i].cost.mean(),
                "{}: cost should grow with receivers",
                cfg.protocols[i].name()
            );
        }
    }

    #[test]
    fn hbh_tracks_pim_ss_cost_and_beats_reunite_delay() {
        // The paper's qualitative ordering on the ISP topology, at a small
        // sample size: HBH ≈ PIM-SS on cost; HBH ≤ REUNITE on delay.
        let mut cfg = small_cfg();
        cfg.sizes = vec![10];
        cfg.runs = 10;
        let points = evaluate(&cfg);
        let idx = |k: ProtocolKind| cfg.protocols.iter().position(|&p| p == k).unwrap();
        let p = &points[0].per_protocol;
        let cost = |k| p[idx(k)].cost.mean();
        let delay = |k| p[idx(k)].delay.mean();
        assert!(
            (cost(ProtocolKind::Hbh) - cost(ProtocolKind::PimSs)).abs()
                < 0.15 * cost(ProtocolKind::PimSs),
            "HBH cost {} far from PIM-SS {}",
            cost(ProtocolKind::Hbh),
            cost(ProtocolKind::PimSs)
        );
        assert!(
            delay(ProtocolKind::Hbh) <= delay(ProtocolKind::Reunite) * 1.02,
            "HBH delay {} worse than REUNITE {}",
            delay(ProtocolKind::Hbh),
            delay(ProtocolKind::Reunite)
        );
    }

    #[test]
    fn run_seed_sequence_is_pinned() {
        // The exact seed stream the published figures were generated with.
        // `<<` binds tighter than `^`, so the historical expression
        // `base ^ (m as u64) << 32 ^ run` always grouped like run_seed();
        // this test freezes that so a future refactor cannot silently
        // reshuffle every scenario draw.
        assert_eq!(run_seed(1, 6, 0), 0x6_0000_0001);
        assert_eq!(run_seed(1, 6, 3), 0x6_0000_0002);
        assert_eq!(run_seed(1, 16, 49), 0x10_0000_0030); // 1 ^ 49 = 48
        assert_eq!(run_seed(0xDEAD, 10, 7), (0xDEAD ^ (10u64 << 32)) ^ 7);
        #[allow(clippy::precedence)]
        fn historical(base: u64, m: usize, run: usize) -> u64 {
            base ^ (m as u64) << 32 ^ run as u64
        }
        for (base, m, run) in [(1u64, 2usize, 0usize), (1, 16, 499), (99, 45, 123)] {
            assert_eq!(run_seed(base, m, run), historical(base, m, run));
        }
    }

    #[test]
    fn advantage_metric_computes() {
        let cfg = small_cfg();
        let points = evaluate(&cfg);
        let adv = hbh_advantage_over_reunite(&cfg, &points, Metric::Delay).unwrap();
        assert!(adv > -50.0 && adv < 90.0, "implausible advantage {adv}");
    }

    #[test]
    fn render_has_row_per_size() {
        let cfg = small_cfg();
        let points = evaluate(&cfg);
        let table = render(&cfg, &points, Metric::Cost).render();
        assert!(table.contains("PIM-SM") && table.contains("HBH"));
        assert_eq!(table.lines().count(), 2 + cfg.sizes.len());
    }
}
