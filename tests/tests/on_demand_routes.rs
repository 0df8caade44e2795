//! Route-capacity equivalence at the experiment level: every protocol
//! must produce bit-identical probe outcomes whether the scenario's
//! `Network` keeps every SPF row resident (what `build()` gives the paper
//! figures) or caps them at 4 rows, so that most lookups recompute their
//! row.
//!
//! The provider-level proptests already check `next_hop`/`dist` agree with
//! the all-pairs reference on every pair; this is the end-to-end net: if a
//! capped network diverged anywhere a kernel actually looks, deliveries,
//! delays, or event counts would differ.

use hbh_experiments::protocols::{run_protocol, ProtocolKind};
use hbh_experiments::scenario::{build, Scenario, ScenarioOptions, TopologyKind};
use hbh_proto_base::Timing;
use hbh_sim_core::Network;

/// Resident rows of the capped rebuild.
const CAPPED_ROWS: usize = 4;

fn assert_capped_equals_full(topo: TopologyKind, group_size: usize, seed: u64) {
    let timing = Timing::default();
    let full = build(topo, group_size, seed, &timing, &ScenarioOptions::default());
    let mut capped = Scenario::from_parts(
        Network::on_demand(full.graph().clone(), CAPPED_ROWS),
        full.source,
        full.receivers.clone(),
        full.join_times.clone(),
        full.join_window,
        full.seed,
    );
    capped.script = full.script.clone();
    capped.faults = full.faults.clone();
    for kind in ProtocolKind::ALL {
        let want = run_protocol(kind, &full, &timing);
        let got = run_protocol(kind, &capped, &timing);
        assert_eq!(
            want,
            got,
            "{} diverged between full and capped routes \
             ({} m={group_size} seed={seed})",
            kind.name(),
            topo.name(),
        );
        assert!(want.complete(), "{} incomplete", kind.name());
    }
    let rows = capped.network().routes().route_stats().cached_rows;
    assert!(rows <= CAPPED_ROWS, "{rows} rows resident");
}

#[test]
fn on_demand_outcomes_match_eager_on_isp() {
    for seed in [1, 42, 0xC0FFEE] {
        assert_capped_equals_full(TopologyKind::Isp, 8, seed);
    }
}

#[test]
fn on_demand_outcomes_match_eager_under_eviction_pressure() {
    // A 4-row cap on the 36-node ISP graph: most lookups recompute their
    // row while the kernels run; answers must not change.
    assert_capped_equals_full(TopologyKind::Isp, 8, 7);
}

#[test]
fn on_demand_outcomes_match_eager_on_rand50() {
    // One seed: rand50 is an order of magnitude slower in debug builds,
    // and the provider machinery is topology-agnostic.
    assert_capped_equals_full(TopologyKind::Rand50, 10, 7);
}
