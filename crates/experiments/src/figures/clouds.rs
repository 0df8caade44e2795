//! Ablation A2 — unicast-only clouds.
//!
//! The protocols' raison d'être (§1): keep delivering when a fraction of
//! the routers cannot hold multicast state. Only the recursive-unicast
//! protocols can run here — PIM forwards data interface-by-interface and
//! has no way across a unicast-only router (which is the deployment
//! problem the paper starts from). We sweep the unicast-only fraction and
//! report delivery completeness, tree cost, and delay for HBH and
//! REUNITE; cost should rise as branching points get displaced, and
//! completeness must stay at 100%.

use crate::figures::eval::{evaluate, EvalConfig, EvalPoint, Metric};
use crate::protocols::ProtocolKind;
use crate::report::Table;
use crate::scenario::{ScenarioOptions, TopologyKind};
use hbh_proto_base::Timing;

pub struct CloudsConfig {
    pub topo: TopologyKind,
    pub group_size: usize,
    pub runs: usize,
    /// Worker threads for the run fan-out (`None`: one per available
    /// core); see [`crate::parallel::map_runs`].
    pub threads: Option<usize>,
    pub base_seed: u64,
    pub fractions: Vec<f64>,
    pub timing: Timing,
}

impl CloudsConfig {
    pub fn default_with_runs(runs: usize) -> Self {
        CloudsConfig {
            topo: TopologyKind::Isp,
            group_size: 10,
            runs,
            threads: None,
            base_seed: 1,
            fractions: vec![0.0, 0.2, 0.4, 0.6, 0.8],
            timing: Timing::default(),
        }
    }
}

pub struct CloudsPoint {
    pub fraction: f64,
    pub point: EvalPoint,
    pub cfg: EvalConfig,
}

pub fn evaluate_sweep(cfg: &CloudsConfig) -> Vec<CloudsPoint> {
    cfg.fractions
        .iter()
        .map(|&f| {
            let ecfg = EvalConfig {
                topo: cfg.topo,
                sizes: vec![cfg.group_size],
                runs: cfg.runs,
                threads: cfg.threads,
                base_seed: cfg.base_seed ^ ((f * 1000.0) as u64) << 20,
                timing: cfg.timing,
                opts: ScenarioOptions {
                    unicast_only_fraction: f,
                    ..ScenarioOptions::default()
                },
                protocols: ProtocolKind::RECURSIVE_UNICAST.to_vec(),
            };
            let point = evaluate(&ecfg).remove(0);
            CloudsPoint {
                fraction: f,
                point,
                cfg: ecfg,
            }
        })
        .collect()
}

pub fn render(cfg: &CloudsConfig, points: &[CloudsPoint], metric: Metric) -> Table {
    let mut t = Table::new(
        format!(
            "{} vs unicast-only router fraction — {} topology, {} receivers, {} runs/point",
            metric.title(),
            cfg.topo.name(),
            cfg.group_size,
            cfg.runs
        ),
        "unicast-only",
        &["REUNITE", "HBH", "REUNITE incompl", "HBH incompl"],
    );
    for p in points {
        let s = |i: usize| match metric {
            Metric::Cost => p.point.per_protocol[i].cost,
            Metric::Bandwidth => p.point.per_protocol[i].bandwidth,
            Metric::Delay => p.point.per_protocol[i].delay,
        };
        t.row(
            format!("{:.2}", p.fraction),
            vec![
                Table::cell(s(0).mean(), s(0).ci95()),
                Table::cell(s(1).mean(), s(1).ci95()),
                format!("{:>8}", p.point.per_protocol[0].incomplete),
                format!("{:>8}", p.point.per_protocol[1].incomplete),
            ],
        );
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_survives_heavy_unicast_clouds() {
        let cfg = CloudsConfig {
            fractions: vec![0.6],
            runs: 4,
            group_size: 8,
            ..CloudsConfig::default_with_runs(4)
        };
        let pts = evaluate_sweep(&cfg);
        for (i, pp) in pts[0].point.per_protocol.iter().enumerate() {
            assert_eq!(
                pp.incomplete,
                0,
                "{} dropped receivers behind unicast clouds",
                pts[0].cfg.protocols[i].name()
            );
        }
    }

    #[test]
    fn cost_rises_as_branching_gets_displaced() {
        let cfg = CloudsConfig {
            fractions: vec![0.0, 0.8],
            runs: 6,
            group_size: 10,
            ..CloudsConfig::default_with_runs(6)
        };
        let pts = evaluate_sweep(&cfg);
        let hbh_cost = |p: &CloudsPoint| p.point.per_protocol[1].cost.mean();
        assert!(
            hbh_cost(&pts[1]) > hbh_cost(&pts[0]),
            "displaced branching should cost extra copies: {} vs {}",
            hbh_cost(&pts[1]),
            hbh_cost(&pts[0])
        );
    }
}
