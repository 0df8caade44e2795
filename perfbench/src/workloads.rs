//! The three workloads: what each draws from `--seed`, and the set-up
//! that turns a seed into scenarios.
//!
//! Set-up goes through the simulator's own builders (`scenario::build`,
//! `scale::build_scale_scenario`, `membership::build_membership_scenario`)
//! and is what `setup_s` times. [`setup_layers`] repeats the same work
//! through the public functions those builders call, one layer at a time,
//! and checks that it drew the same scenarios.

use crate::arm::{Arm, Study};
use hbh_experiments::figures::eval::run_seed;
use hbh_experiments::membership::{
    build_membership_graph, build_membership_scenario, MembershipConfig,
};
use hbh_experiments::scale::{build_scale_graph, build_scale_scenario, ScaleConfig, SCALE_ARMS};
use hbh_experiments::scenario::{build, ScenarioOptions, RAND50_TOPO_SEED};
use hbh_experiments::{ProtocolKind, Scenario, TopologyKind};
use hbh_proto_base::workload::{join_schedule, sample_receivers};
use hbh_proto_base::{Channel, Timing, Workload, WorkloadGen};
use hbh_routing::RoutingTables;
use hbh_sim_core::{Network, Time};
use hbh_topo::graph::{Graph, NodeId};
use hbh_topo::hier::TierSpec;
use hbh_topo::{costs, isp, random};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::{Duration, Instant};

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Name {
    PaperSweep,
    ScaleHier,
    MembershipMix,
}

impl Name {
    pub const ALL: [Name; 3] = [Name::PaperSweep, Name::ScaleHier, Name::MembershipMix];

    pub fn parse(s: &str) -> Option<Name> {
        Name::ALL.into_iter().find(|n| n.as_str() == s)
    }

    pub fn as_str(self) -> &'static str {
        match self {
            Name::PaperSweep => "paper_sweep",
            Name::ScaleHier => "scale_hier",
            Name::MembershipMix => "membership_mix",
        }
    }
}

/// One scenario and the arms that run on it.
pub struct Draw {
    pub label: String,
    pub scenario: Scenario,
    pub arms: Vec<Arm>,
    /// `Some(rows)`: routes are served on demand with this LRU capacity,
    /// and every round starts the draw on a fresh, empty route cache.
    pub cache_rows: Option<usize>,
}

/// A workload's inputs for one seed.
pub struct Setup {
    pub timing: Timing,
    pub study: Study,
    pub draws: Vec<Draw>,
    /// One line describing the size, for the report.
    pub shape: String,
}

impl Setup {
    pub fn arm_runs(&self) -> usize {
        self.draws.iter().map(|d| d.arms.len()).sum()
    }
}

/// Seed of the frozen hierarchy topologies. The paper likewise simulates
/// *a* random topology and varies costs and receivers per run: `--seed`
/// drives the per-draw cost draws, sources and memberships, so the
/// figures of different seeds are comparable.
const HIER_TOPO_SEED: u64 = 7;

/// Draws of each membership workload (flash crowd, Zipf, zapping).
fn membership_replicas(smoke: bool) -> usize {
    if smoke {
        1
    } else {
        20
    }
}

/// Spreads `--seed` over 64 bits, so that nearby seeds draw unrelated
/// scenarios (the figure seeds XOR a small run index into the base).
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Draws per paper point (per group size, per topology).
fn paper_draws(smoke: bool) -> usize {
    if smoke {
        1
    } else {
        30
    }
}

fn scale_config(seed: u64, smoke: bool) -> ScaleConfig {
    let mut cfg = if smoke {
        ScaleConfig::smoke()
    } else {
        ScaleConfig {
            // 5 × (1 + 10 × 25) = 1,255 routers.
            spec: TierSpec {
                ases: 5,
                pops_per_as: 10,
                access_per_pop: 24,
            },
            hosts: 20_000,
            // Many small draws: per-draw control volume and run time are
            // heavy-tailed, so 40 draws of 16 receivers give a steadier
            // per-seed aggregate than a few draws of 128.
            group_size: 16,
            runs: 40,
            cache_rows: 4096,
            ..ScaleConfig::full()
        }
    };
    cfg.base_seed = seed;
    cfg
}

fn membership_config(seed: u64, smoke: bool) -> MembershipConfig {
    let mut cfg = if smoke {
        MembershipConfig {
            storm_sizes: vec![160],
            ..MembershipConfig::smoke()
        }
    } else {
        MembershipConfig {
            // 2 × (1 + 4 × 16) = 130 routers.
            spec: TierSpec {
                ases: 2,
                pops_per_as: 4,
                access_per_pop: 15,
            },
            hosts: 6_000,
            group_size: 32,
            channels: 8,
            zaps: 3,
            storm_sizes: vec![1_000],
            cache_rows: 4096,
            ..MembershipConfig::full()
        }
    };
    cfg.base_seed = seed;
    cfg
}

fn arms(kinds: &[ProtocolKind]) -> Vec<Arm> {
    kinds.iter().copied().map(Arm::from_kind).collect()
}

/// The paper sweep's points: topology, group size, draw index.
fn paper_points(smoke: bool) -> Vec<(TopologyKind, usize, usize)> {
    let mut points = Vec::new();
    for kind in [TopologyKind::Isp, TopologyKind::Rand50] {
        for m in kind.paper_group_sizes() {
            for run in 0..paper_draws(smoke) {
                points.push((kind, m, run));
            }
        }
    }
    points
}

/// Builds the workload's scenarios for `seed`: the timed set-up.
pub fn setup(name: Name, seed: u64, smoke: bool) -> Setup {
    let seed = mix(seed);
    let timing = Timing::default();
    match name {
        Name::PaperSweep => {
            let opts = ScenarioOptions::default();
            let draws = paper_points(smoke)
                .into_iter()
                .map(|(kind, m, run)| Draw {
                    label: format!("{} m={m} draw {run}", kind.name()),
                    scenario: build(kind, m, run_seed(seed, m, run), &timing, &opts),
                    arms: arms(&ProtocolKind::ALL),
                    cache_rows: None,
                })
                .collect::<Vec<_>>();
            Setup {
                timing,
                study: Study::Probe,
                shape: format!(
                    "ISP sizes 2-16 + rand50 sizes 5-45, {} draws/point, {} draws, 4 paper arms, eager tables",
                    paper_draws(smoke),
                    draws.len()
                ),
                draws,
            }
        }
        Name::ScaleHier => {
            let cfg = scale_config(seed, smoke);
            let template = build_scale_graph(&scale_config(HIER_TOPO_SEED, smoke));
            let draws = (0..cfg.runs)
                .map(|run| Draw {
                    label: format!("hier draw {run}"),
                    scenario: build_scale_scenario(&cfg, &template, run),
                    arms: arms(&SCALE_ARMS),
                    cache_rows: Some(cfg.cache_rows),
                })
                .collect();
            Setup {
                timing: cfg.timing,
                study: Study::Probe,
                shape: format!(
                    "{} routers, {} hosts, {} receivers, {} draws, PIM-SS/REUNITE/HBH, on-demand LRU of {} rows",
                    cfg.router_count(),
                    cfg.hosts,
                    cfg.group_size,
                    cfg.runs,
                    cfg.cache_rows
                ),
                draws,
            }
        }
        Name::MembershipMix => {
            let cfg = membership_config(seed, smoke);
            let template = build_membership_graph(&membership_config(HIER_TOPO_SEED, smoke));
            let mut draws = Vec::new();
            for rep in 0..membership_replicas(smoke) {
                for (i, (label, w)) in cfg.workloads().into_iter().enumerate() {
                    // REUNITE leaves some zapping viewers unserved for good
                    // (README.md, deferred work), so it skips zapping.
                    let kinds: Vec<ProtocolKind> = cfg
                        .protocols
                        .iter()
                        .copied()
                        .filter(|&k| !(label == "zapping" && k == ProtocolKind::Reunite))
                        .collect();
                    draws.push(Draw {
                        label: format!("{label} draw {rep}"),
                        scenario: build_membership_scenario(&cfg, &template, &w, 3 * rep + i),
                        arms: arms(&kinds),
                        cache_rows: Some(cfg.cache_rows),
                    });
                }
            }
            for (i, &n) in cfg.storm_sizes.iter().enumerate() {
                let w = Workload::flash_crowd(n, Time(0));
                draws.push(Draw {
                    label: format!("storm {n}"),
                    scenario: build_membership_scenario(&cfg, &template, &w, 100 + i),
                    arms: vec![Arm::HbhAgg],
                    cache_rows: Some(cfg.cache_rows),
                });
            }
            Setup {
                timing: cfg.timing,
                study: Study::Settle,
                shape: format!(
                    "{} routers, {} hosts, {} viewers on {} channels: flash crowd, zipf, zapping x 5 arms + HBH-AGG storm of {:?}",
                    cfg.router_count(),
                    cfg.hosts,
                    cfg.group_size,
                    cfg.channels,
                    cfg.storm_sizes
                ),
                draws,
            }
        }
    }
}

/// The draw's scenario on a fresh route service: on-demand draws get a
/// new, empty route cache (so every round pays its SPF rows, as a real
/// sweep over fresh draws does); eager draws share their tables.
pub fn fresh(draw: &Draw) -> Scenario {
    let sc = &draw.scenario;
    match draw.cache_rows {
        None => sc.clone(),
        Some(rows) => {
            let net = Network::on_demand(sc.graph().clone(), rows);
            let mut out = Scenario::from_parts(
                net,
                sc.source,
                sc.receivers.clone(),
                sc.join_times.clone(),
                sc.join_window,
                sc.seed,
            );
            out.script = sc.script.clone();
            out.faults = sc.faults.clone();
            out
        }
    }
}

/// Set-up time per layer, from a layer-by-layer replay of [`setup`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupLayers {
    /// Topology generators and cost draws.
    pub topo: Duration,
    /// Eager all-pairs tables.
    pub tables: Duration,
    /// Membership plans.
    pub plan: Duration,
}

fn timed<T>(acc: &mut Duration, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *acc += start.elapsed();
    out
}

/// Replays [`setup`] one layer at a time, timing each. Returns `None` if
/// the replay drew a different membership than `setup` did.
pub fn setup_layers(name: Name, seed: u64, smoke: bool, setup: &Setup) -> Option<SetupLayers> {
    let seed = mix(seed);
    let mut l = SetupLayers::default();
    let timing = setup.timing;
    let same = |sc: &Scenario, receivers: &[NodeId]| sc.receivers == receivers;
    match name {
        Name::PaperSweep => {
            for ((kind, m, run), draw) in paper_points(smoke).into_iter().zip(&setup.draws) {
                let s = run_seed(seed, m, run);
                let mut rng = StdRng::seed_from_u64(s ^ (0x5EED_0000 + kind as u64));
                let (graph, source) = timed(&mut l.topo, || {
                    let (mut g, source) = match kind {
                        TopologyKind::Rand50 => {
                            let mut topo_rng = StdRng::seed_from_u64(RAND50_TOPO_SEED);
                            (random::rand50(&mut topo_rng), NodeId(50))
                        }
                        _ => (isp::isp_topology(), isp::SOURCE_HOST),
                    };
                    costs::assign_uniform_with_asymmetry(&mut g, 1, 10, 1.0, &mut rng);
                    (g, source)
                });
                timed(&mut l.tables, || RoutingTables::compute(&graph));
                let pool: Vec<NodeId> = graph.hosts().filter(|&h| h != source).collect();
                let plan =
                    timed(&mut l.plan, || {
                        Workload::paper_figure(m, ScenarioOptions::default().join_window_periods)
                            .plan(&pool, Channel::primary(source), &timing, &mut rng)
                    });
                if !same(&draw.scenario, &plan.receivers) {
                    return None;
                }
            }
        }
        Name::ScaleHier => {
            let cfg = scale_config(seed, smoke);
            let template = timed(&mut l.topo, || {
                build_scale_graph(&scale_config(HIER_TOPO_SEED, smoke))
            });
            for draw in &setup.draws {
                let mut rng = StdRng::seed_from_u64(draw.scenario.seed);
                let graph = timed(&mut l.topo, || drawn(&template, &mut rng));
                let receivers = timed(&mut l.plan, || {
                    let hosts: Vec<NodeId> = graph.hosts().collect();
                    let source = hosts[rng.random_range(0..hosts.len())];
                    let pool: Vec<NodeId> = hosts.into_iter().filter(|&h| h != source).collect();
                    let receivers = sample_receivers(&pool, cfg.group_size, &mut rng);
                    join_schedule(&receivers, Time(0), 20 * timing.join_period, &mut rng);
                    receivers
                });
                if !same(&draw.scenario, &receivers) {
                    return None;
                }
            }
        }
        Name::MembershipMix => {
            let cfg = membership_config(seed, smoke);
            let template = timed(&mut l.topo, || {
                build_membership_graph(&membership_config(HIER_TOPO_SEED, smoke))
            });
            let workloads = (0..membership_replicas(smoke))
                .flat_map(|_| cfg.workloads().into_iter().map(|(_, w)| w))
                .chain(
                    cfg.storm_sizes
                        .iter()
                        .map(|&n| Workload::flash_crowd(n, Time(0))),
                );
            for (draw, w) in setup.draws.iter().zip(workloads) {
                let sc = &draw.scenario;
                let mut rng = StdRng::seed_from_u64(sc.seed);
                let graph = timed(&mut l.topo, || drawn(&template, &mut rng));
                let pool: Vec<NodeId> = graph.hosts().filter(|&h| h != sc.source).collect();
                let mut rng = StdRng::seed_from_u64(sc.seed ^ 0x3057_10AD);
                let plan = timed(&mut l.plan, || {
                    w.plan(&pool, Channel::primary(sc.source), &timing, &mut rng)
                });
                if !same(sc, &plan.receivers) {
                    return None;
                }
            }
        }
    }
    Some(l)
}

/// The template with one per-run cost draw, as the hierarchy builders do.
fn drawn(template: &Graph, rng: &mut StdRng) -> Graph {
    let mut g = template.clone();
    costs::assign_paper_costs(&mut g, rng);
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_replay_draws_the_same_scenarios() {
        for name in Name::ALL {
            let s = setup(name, 9, true);
            assert!(s.arm_runs() > 0);
            assert!(
                setup_layers(name, 9, true, &s).is_some(),
                "{}",
                name.as_str()
            );
        }
    }

    #[test]
    fn seeds_change_the_draws() {
        for name in Name::ALL {
            let (a, b) = (setup(name, 1, true), setup(name, 2, true));
            let differs = a.draws.iter().zip(&b.draws).any(|(x, y)| {
                x.scenario.receivers != y.scenario.receivers
                    || x.scenario.source != y.scenario.source
            });
            assert!(differs, "{}", name.as_str());
        }
    }
}
