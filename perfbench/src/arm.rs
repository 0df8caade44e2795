//! One arm run: one protocol engine converged and probed on one draw.
//!
//! The phases are the simulator's own public harness functions
//! (`runner::build_kernel`, `converge`, `probe`, `probe_tolerant`),
//! composed the way `runner::run_probe` and `membership::MembershipStudy`
//! compose them, so each phase can be timed on its own. The benchmark's
//! tests pin that the composition reproduces those two functions exactly.

use crate::timed::{HandlerTrace, Timed, Variant};
use hbh_experiments::protocols::pick_rp;
use hbh_experiments::runner::{build_kernel, converge, probe, probe_tolerant, probe_window};
use hbh_experiments::{ProtocolKind, Scenario};
use hbh_pim::Pim;
use hbh_proto::{Hbh, HbhHard};
use hbh_proto_base::{Cmd, StateInventory, Timing};
use hbh_reunite::Reunite;
use hbh_sim_core::Protocol;
use hbh_topo::graph::{EdgeId, NodeId};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// A protocol arm, named by the crate it lives in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Arm {
    PimSm,
    PimSs,
    Reunite,
    HbhSoft,
    HbhAgg,
    HbhHard,
}

impl Arm {
    /// Every arm, in report order.
    pub const ALL: [Arm; 6] = [
        Arm::HbhSoft,
        Arm::HbhAgg,
        Arm::HbhHard,
        Arm::Reunite,
        Arm::PimSs,
        Arm::PimSm,
    ];

    /// Metric prefix: `<crate>.<variant>`.
    pub fn key(self) -> &'static str {
        match self {
            Arm::PimSm => "pim.sm",
            Arm::PimSs => "pim.ss",
            Arm::Reunite => "reunite",
            Arm::HbhSoft => "hbh.soft",
            Arm::HbhAgg => "hbh.agg",
            Arm::HbhHard => "hbh.hard",
        }
    }

    pub fn from_kind(kind: ProtocolKind) -> Arm {
        match kind {
            ProtocolKind::PimSm => Arm::PimSm,
            ProtocolKind::PimSs => Arm::PimSs,
            ProtocolKind::Reunite => Arm::Reunite,
            ProtocolKind::Hbh => Arm::HbhSoft,
            ProtocolKind::HbhAgg => Arm::HbhAgg,
            ProtocolKind::HbhHard => Arm::HbhHard,
        }
    }
}

/// How an arm run is read out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Study {
    /// Converge, then one duplicate-free probe (`runner::run_probe`).
    Probe,
    /// Converge, then probe once per tree period until every expected
    /// receiver is served (`membership::MembershipStudy`).
    Settle,
}

/// The simulated outcome of one arm run. Host timings live elsewhere, so
/// two runs of one draw compare equal exactly when the simulation did.
#[derive(Clone, Debug, PartialEq)]
pub struct ArmOutcome {
    /// Data copies of the (last) probe.
    pub cost: u64,
    /// Copies weighted by link cost.
    pub weighted_cost: u64,
    /// First-delivery delay per served receiver.
    pub delays: BTreeMap<NodeId, u64>,
    pub expected: usize,
    /// Expected receivers the (last) probe reached.
    pub served: usize,
    pub converged: bool,
    /// Settle study: time from convergence until a probe served everyone.
    pub settle_latency: Option<u64>,
    pub duplicates: u64,
    pub structural_changes: u64,
    /// Control copies: up to the probe (probe study, like `run_probe`),
    /// over the whole run (settle study, like `MembershipStudy`).
    pub control_copies: u64,
    pub drops: u64,
    pub events: u64,
    /// Simulated time at which convergence was declared.
    pub converged_at: u64,
    /// Timers armed right after convergence.
    pub timers_pending: usize,
    /// Largest per-router `state_bytes` for the primary channel.
    pub state_bytes_max: usize,
}

impl ArmOutcome {
    /// Complete, settled and duplicate-free. Convergence is reported on
    /// its own (see README.md: some draws oscillate forever although every
    /// receiver is served exactly once).
    pub fn ok(&self) -> bool {
        self.served == self.expected && self.duplicates == 0 && self.settle_latency.is_some()
    }

    pub fn avg_delay(&self) -> f64 {
        if self.delays.is_empty() {
            return 0.0;
        }
        self.delays.values().sum::<u64>() as f64 / self.delays.len() as f64
    }
}

/// Wall time of the harness phases of one arm run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Phases {
    pub build_kernel: Duration,
    pub converge: Duration,
    pub probe: Duration,
    pub settle: Duration,
}

/// Runs `arm` on `scenario`. With `trace`, the engine is wrapped in
/// [`Timed`] and its handler costs land in the trace.
pub fn run_arm(
    arm: Arm,
    scenario: &Scenario,
    timing: &Timing,
    study: Study,
    trace: Option<&Rc<RefCell<HandlerTrace>>>,
    phases: &mut Phases,
) -> ArmOutcome {
    let t = *timing;
    match arm {
        Arm::PimSm => wrap(
            Pim::sparse_shared(pick_rp(scenario), t),
            scenario,
            timing,
            study,
            trace,
            phases,
        ),
        Arm::PimSs => wrap(
            Pim::source_specific(t),
            scenario,
            timing,
            study,
            trace,
            phases,
        ),
        Arm::Reunite => wrap(Reunite::new(t), scenario, timing, study, trace, phases),
        Arm::HbhSoft => wrap(Hbh::new(t), scenario, timing, study, trace, phases),
        Arm::HbhAgg => wrap(Hbh::aggregated(t), scenario, timing, study, trace, phases),
        Arm::HbhHard => wrap(HbhHard::new(t), scenario, timing, study, trace, phases),
    }
}

fn wrap<P>(
    proto: P,
    scenario: &Scenario,
    timing: &Timing,
    study: Study,
    trace: Option<&Rc<RefCell<HandlerTrace>>>,
    phases: &mut Phases,
) -> ArmOutcome
where
    P: Protocol<Command = Cmd>,
    P::NodeState: StateInventory,
    P::Msg: Variant,
{
    match trace {
        None => run_phases(proto, scenario, timing, study, phases),
        Some(t) => run_phases(
            Timed::new(proto, t.clone()),
            scenario,
            timing,
            study,
            phases,
        ),
    }
}

fn run_phases<P>(
    proto: P,
    scenario: &Scenario,
    timing: &Timing,
    study: Study,
    phases: &mut Phases,
) -> ArmOutcome
where
    P: Protocol<Command = Cmd>,
    P::NodeState: StateInventory,
{
    let start = Instant::now();
    let (mut k, ch) = build_kernel(proto, scenario);
    let built = Instant::now();
    phases.build_kernel += built - start;

    // The settle study converges over the script as well (zapping runs
    // past the join window), exactly like `MembershipStudy`.
    let horizon = match study {
        Study::Probe => scenario.join_window,
        Study::Settle => scenario.join_window.max(scenario.script.duration().0),
    };
    let converged = converge(&mut k, timing, horizon);
    let converged_at = Instant::now();
    phases.converge += converged_at - built;
    let converged_sim = k.now().0;
    let timers_pending = k.pending_timer_count();
    let mut control_copies = k.stats().control_copies();
    let structural_changes = k.stats().structural_changes;

    let expected = scenario.receivers.len();
    let (tag, delays, duplicates, settle_latency) = match study {
        Study::Probe => {
            let (_, delays) = probe(&mut k, ch, 1, expected);
            phases.probe += converged_at.elapsed();
            (1, delays, 0, Some(0))
        }
        Study::Settle => {
            let window = probe_window(k.network());
            let settle_start = k.now();
            let deadline = settle_start + 8 * timing.t2 + 8 * timing.tree_period;
            let mut tag = 100;
            loop {
                let (delays, duplicates) = probe_tolerant(&mut k, ch, tag, window);
                let served = scenario
                    .receivers
                    .iter()
                    .filter(|r| delays.contains_key(r))
                    .count();
                if served == expected {
                    let latency = k.now().0.saturating_sub(settle_start.0);
                    break (tag, delays, duplicates, Some(latency));
                }
                if k.now() > deadline {
                    break (tag, delays, duplicates, None);
                }
                tag += 1;
                let next = k.now() + timing.tree_period;
                k.run_until(next);
            }
        }
    };
    if study == Study::Settle {
        phases.settle += converged_at.elapsed();
        control_copies = k.stats().control_copies();
    }

    let g = k.network().graph();
    let weighted_cost = k
        .stats()
        .data_copies_by_edge(tag)
        .map(|row| {
            row.iter()
                .enumerate()
                .filter(|(_, &copies)| copies > 0)
                .map(|(e, &copies)| copies * u64::from(g.edge_cost(EdgeId(e as u32))))
                .sum()
        })
        .unwrap_or(0);
    let served_set: BTreeSet<&NodeId> = scenario.receivers.iter().collect();
    let served = delays.keys().filter(|r| served_set.contains(r)).count();
    let state_bytes_max = g
        .routers()
        .map(|r| k.state(r).state_bytes(ch))
        .max()
        .unwrap_or(0);
    ArmOutcome {
        cost: k.stats().data_copies_tagged(tag),
        weighted_cost,
        delays,
        expected,
        served,
        converged,
        settle_latency,
        duplicates,
        structural_changes,
        control_copies,
        drops: k.stats().drops,
        events: k.stats().events,
        converged_at: converged_sim,
        timers_pending,
        state_bytes_max,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{fresh, setup, Name};
    use hbh_experiments::membership::MembershipStudy;
    use hbh_experiments::protocols::{dispatch, run_protocol};

    fn kind(arm: Arm) -> ProtocolKind {
        ProtocolKind::ALL
            .into_iter()
            .chain([ProtocolKind::HbhAgg, ProtocolKind::HbhHard])
            .find(|&k| Arm::from_kind(k) == arm)
            .unwrap()
    }

    /// The probe composition reproduces `runner::run_probe`, traced or not.
    #[test]
    fn probe_phases_match_run_probe() {
        for name in [Name::PaperSweep, Name::ScaleHier] {
            let s = setup(name, 5, true);
            for draw in s.draws.iter().step_by(3) {
                for &arm in &draw.arms {
                    let want = run_protocol(kind(arm), &fresh(draw), &s.timing);
                    let trace = Rc::new(RefCell::new(HandlerTrace::default()));
                    let mut ph = Phases::default();
                    let plain = run_arm(arm, &fresh(draw), &s.timing, s.study, None, &mut ph);
                    let traced =
                        run_arm(arm, &fresh(draw), &s.timing, s.study, Some(&trace), &mut ph);
                    assert_eq!(plain, traced, "{} on {}", arm.key(), draw.label);
                    assert!(plain.ok(), "{} on {}", arm.key(), draw.label);
                    assert_eq!(
                        (
                            plain.cost,
                            plain.weighted_cost,
                            &plain.delays,
                            plain.converged
                        ),
                        (want.cost, want.weighted_cost, &want.delays, want.converged)
                    );
                    assert_eq!(
                        (plain.control_copies, plain.drops, plain.events),
                        (want.control_copies, want.drops, want.events)
                    );
                    assert!(trace.borrow().packets > 0);
                }
            }
        }
    }

    /// The settle composition reproduces `MembershipStudy`.
    #[test]
    fn settle_phases_match_membership_study() {
        let s = setup(Name::MembershipMix, 5, true);
        for draw in &s.draws {
            for &arm in &draw.arms {
                let want = dispatch(kind(arm), &fresh(draw), &s.timing, &MembershipStudy);
                let got = run_arm(
                    arm,
                    &fresh(draw),
                    &s.timing,
                    s.study,
                    None,
                    &mut Phases::default(),
                );
                assert!(got.ok(), "{} on {}", arm.key(), draw.label);
                assert_eq!(
                    (got.served, got.expected, got.converged, got.settle_latency),
                    (
                        want.served,
                        want.expected,
                        want.converged,
                        want.settle_latency
                    ),
                    "{} on {}",
                    arm.key(),
                    draw.label
                );
                assert_eq!(
                    (got.control_copies, got.events),
                    (want.control_copies, want.events)
                );
            }
        }
    }
}
