//! Ablation A1 — asymmetry sweep.
//!
//! The paper's causal story is that HBH's advantage over REUNITE *comes
//! from* unicast routing asymmetry (§2.3, §4.2). This ablation
//! interpolates the asymmetry probability from 0 (fully symmetric costs)
//! to 1 (the paper's independent per-direction draws) and reports the
//! cost/delay of the two recursive-unicast protocols plus the HBH
//! advantage at each step — the advantage should be ≈ 0 at `a = 0` and
//! grow with `a`.

use crate::figures::eval::{evaluate, EvalConfig, EvalPoint, Metric};
use crate::protocols::ProtocolKind;
use crate::report::Table;
use crate::scenario::{ScenarioOptions, TopologyKind};
use hbh_proto_base::Timing;

pub struct AsymmetryConfig {
    pub topo: TopologyKind,
    pub group_size: usize,
    pub runs: usize,
    /// Worker threads for the run fan-out (`None`: one per available
    /// core); see [`crate::parallel::map_runs`].
    pub threads: Option<usize>,
    pub base_seed: u64,
    pub steps: Vec<f64>,
    pub timing: Timing,
}

impl AsymmetryConfig {
    pub fn default_with_runs(runs: usize) -> Self {
        AsymmetryConfig {
            topo: TopologyKind::Isp,
            group_size: 10,
            runs,
            threads: None,
            base_seed: 1,
            steps: vec![0.0, 0.25, 0.5, 0.75, 1.0],
            timing: Timing::default(),
        }
    }
}

pub struct AsymmetryPoint {
    pub asymmetry: f64,
    pub point: EvalPoint,
    pub cfg: EvalConfig,
}

pub fn evaluate_sweep(cfg: &AsymmetryConfig) -> Vec<AsymmetryPoint> {
    cfg.steps
        .iter()
        .map(|&a| {
            let ecfg = EvalConfig {
                topo: cfg.topo,
                sizes: vec![cfg.group_size],
                runs: cfg.runs,
                threads: cfg.threads,
                base_seed: cfg.base_seed ^ ((a * 1000.0) as u64) << 20,
                timing: cfg.timing,
                opts: ScenarioOptions {
                    asymmetry: a,
                    ..ScenarioOptions::default()
                },
                protocols: vec![
                    ProtocolKind::PimSs,
                    ProtocolKind::Reunite,
                    ProtocolKind::Hbh,
                ],
            };
            let point = evaluate(&ecfg).remove(0);
            AsymmetryPoint {
                asymmetry: a,
                point,
                cfg: ecfg,
            }
        })
        .collect()
}

pub fn render(cfg: &AsymmetryConfig, points: &[AsymmetryPoint], metric: Metric) -> Table {
    let mut t = Table::new(
        format!(
            "{} vs cost asymmetry — {} topology, {} receivers, {} runs/point",
            metric.title(),
            cfg.topo.name(),
            cfg.group_size,
            cfg.runs
        ),
        "asymmetry",
        &["PIM-SS", "REUNITE", "HBH", "HBH adv %"],
    );
    for p in points {
        let s = |i: usize| match metric {
            Metric::Cost => p.point.per_protocol[i].cost,
            Metric::Bandwidth => p.point.per_protocol[i].bandwidth,
            Metric::Delay => p.point.per_protocol[i].delay,
        };
        let adv = crate::figures::eval::hbh_advantage_over_reunite(
            &p.cfg,
            std::slice::from_ref(&p.point),
            metric,
        )
        .unwrap_or(0.0);
        t.row(
            format!("{:.2}", p.asymmetry),
            vec![
                Table::cell(s(0).mean(), s(0).ci95()),
                Table::cell(s(1).mean(), s(1).ci95()),
                Table::cell(s(2).mean(), s(2).ci95()),
                format!("{adv:8.2}"),
            ],
        );
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_network_has_no_hbh_delay_advantage() {
        let cfg = AsymmetryConfig {
            steps: vec![0.0],
            runs: 5,
            group_size: 8,
            ..AsymmetryConfig::default_with_runs(5)
        };
        let pts = evaluate_sweep(&cfg);
        let adv = crate::figures::eval::hbh_advantage_over_reunite(
            &pts[0].cfg,
            std::slice::from_ref(&pts[0].point),
            Metric::Delay,
        )
        .unwrap();
        // With symmetric costs, forward SPT = reverse SPT: both protocols
        // serve every receiver at the unicast distance.
        assert!(
            adv.abs() < 1.0,
            "unexpected advantage {adv}% on symmetric network"
        );
    }

    #[test]
    fn full_asymmetry_gives_hbh_an_edge() {
        let cfg = AsymmetryConfig {
            steps: vec![1.0],
            runs: 8,
            group_size: 10,
            ..AsymmetryConfig::default_with_runs(8)
        };
        let pts = evaluate_sweep(&cfg);
        let adv = crate::figures::eval::hbh_advantage_over_reunite(
            &pts[0].cfg,
            std::slice::from_ref(&pts[0].point),
            Metric::Delay,
        )
        .unwrap();
        assert!(
            adv > 0.0,
            "HBH should win on delay under asymmetry, got {adv}%"
        );
    }
}
