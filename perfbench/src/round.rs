//! One round: every arm of every draw of a workload, run once.

use crate::arm::{run_arm, Arm, ArmOutcome, Phases};
use crate::timed::HandlerTrace;
use crate::workloads::{fresh, Setup};
use hbh_routing::{OnDemandRoutes, RouteProvider};
use hbh_topo::graph::NodeId;
use hbh_topo::Csr;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One arm run of a round.
pub struct Record {
    pub arm: Arm,
    /// Index of the draw in `Setup::draws`.
    pub draw: usize,
    pub wall: Duration,
    /// `None`: the run panicked.
    pub outcome: Option<ArmOutcome>,
}

impl Record {
    pub fn ok(&self) -> bool {
        self.outcome.as_ref().is_some_and(ArmOutcome::ok)
    }
}

/// Route-service counters of one arm: deltas of `RouteStats` across its
/// run, so the arm that missed is charged with the rows.
#[derive(Clone, Copy, Debug, Default)]
pub struct RouteDelta {
    pub rows: u64,
    pub lookups: u64,
    pub hits: u64,
}

pub struct Round {
    pub wall: Duration,
    pub records: Vec<Record>,
    /// Building fresh route services for on-demand draws.
    pub network: Duration,
    pub phases: Phases,
    pub routes: BTreeMap<Arm, RouteDelta>,
    /// Largest route state any draw pinned, in bytes.
    pub route_bytes_peak: usize,
    /// Handler traces per arm (traced rounds only).
    pub traces: BTreeMap<Arm, HandlerTrace>,
    /// FNV-1a over every run's simulated outcome, in run order.
    pub digest: u64,
}

impl Round {
    pub fn failed(&self) -> u64 {
        self.records.iter().filter(|r| !r.ok()).count() as u64
    }

    /// Prints the runs whose structure never quiesced.
    pub fn print_unconverged(&self, setup: &Setup) {
        let stuck: Vec<String> = self
            .records
            .iter()
            .filter(|r| r.outcome.as_ref().is_some_and(|o| !o.converged))
            .map(|r| format!("{} on {}", r.arm.key(), setup.draws[r.draw].label))
            .collect();
        println!(
            "unconverged {} of {} arm runs per round{}{}",
            stuck.len(),
            self.records.len(),
            if stuck.is_empty() { "" } else { ": " },
            stuck.join(", ")
        );
    }
}

struct Fnv(u64);

impl Fnv {
    fn add(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn outcome(&mut self, o: &ArmOutcome) {
        for v in [
            o.cost,
            o.weighted_cost,
            o.expected as u64,
            o.served as u64,
            u64::from(o.converged),
            o.settle_latency.map_or(u64::MAX, |l| l),
            o.duplicates,
            o.structural_changes,
            o.control_copies,
            o.drops,
            o.events,
            o.converged_at,
            o.timers_pending as u64,
            o.state_bytes_max as u64,
        ] {
            self.add(v);
        }
        for (n, d) in &o.delays {
            self.add(u64::from(n.0));
            self.add(*d);
        }
    }
}

/// Runs every arm of every draw once. Panics inside an arm run are
/// caught and the run is recorded as failed.
pub fn round(setup: &Setup, traced: bool) -> Round {
    let start = Instant::now();
    let mut r = Round {
        wall: Duration::ZERO,
        records: Vec::with_capacity(setup.arm_runs()),
        network: Duration::ZERO,
        phases: Phases::default(),
        routes: BTreeMap::new(),
        route_bytes_peak: 0,
        traces: BTreeMap::new(),
        digest: 0xcbf2_9ce4_8422_2325,
    };
    let mut fnv = Fnv(r.digest);
    let mut traces: BTreeMap<Arm, Rc<RefCell<HandlerTrace>>> = BTreeMap::new();
    for (di, draw) in setup.draws.iter().enumerate() {
        let built = Instant::now();
        let sc = fresh(draw);
        r.network += built.elapsed();
        for (i, &arm) in draw.arms.iter().enumerate() {
            let trace = traced.then(|| traces.entry(arm).or_default().clone());
            let before = sc.network().routes().route_stats();
            let t = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                run_arm(
                    arm,
                    &sc,
                    &setup.timing,
                    setup.study,
                    trace.as_ref(),
                    &mut r.phases,
                )
            }))
            .ok();
            let wall = t.elapsed();
            let after = sc.network().routes().route_stats();
            let d = r.routes.entry(arm).or_default();
            d.rows += after.computed - before.computed;
            d.hits += after.hits - before.hits;
            d.lookups += (after.hits + after.misses) - (before.hits + before.misses);
            fnv.add(i as u64);
            match &outcome {
                Some(o) => fnv.outcome(o),
                None => fnv.add(u64::MAX),
            }
            let record = Record {
                arm,
                draw: di,
                wall,
                outcome,
            };
            if !record.ok() {
                let why = record.outcome.as_ref().map_or("panicked".to_string(), |o| {
                    format!(
                        "served {}/{}, settled {}, {} duplicates",
                        o.served,
                        o.expected,
                        o.settle_latency.is_some(),
                        o.duplicates
                    )
                });
                eprintln!("{} failed on {}: {why}", arm.key(), draw.label);
            }
            r.records.push(record);
        }
        r.route_bytes_peak = r.route_bytes_peak.max(sc.network().routes().state_bytes());
    }
    r.digest = fnv.0;
    r.wall = start.elapsed();
    r.traces = traces.into_iter().map(|(arm, t)| (arm, t.take())).collect();
    r
}

/// Median time of one SPF row, in ms: rows computed by the on-demand
/// route service for a few sampled roots of each draw's graph.
pub fn sample_row_ms(setup: &Setup, seed: u64) -> f64 {
    const ROOTS_PER_DRAW: usize = 8;
    let mut samples = Vec::new();
    for draw in &setup.draws {
        let g = draw.scenario.graph();
        let routes = OnDemandRoutes::from_csr(Arc::new(Csr::from_graph(g)), ROOTS_PER_DRAW);
        let mut rng = StdRng::seed_from_u64(seed ^ draw.scenario.seed);
        let n = g.node_count();
        let mut roots = Vec::with_capacity(ROOTS_PER_DRAW);
        while roots.len() < ROOTS_PER_DRAW.min(n) {
            let root = NodeId(rng.random_range(0..n) as u32);
            if !roots.contains(&root) {
                roots.push(root);
            }
        }
        for root in roots {
            let other = NodeId(((root.0 as usize + 1) % n) as u32);
            let t = Instant::now();
            std::hint::black_box(routes.dist(root, other));
            samples.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    crate::report::median(&mut samples)
}
