//! Turns rounds into named metrics and prints them.

use crate::arm::{Arm, ArmOutcome};
use crate::round::Round;
use crate::timed::{HandlerTrace, Variant};
use crate::workloads::SetupLayers;
use hbh_pim::PimMsg;
use hbh_proto::{HardMsg, HbhMsg};
use hbh_reunite::ReuniteMsg;

/// Named metrics in print order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// Prints one line per metric, then the result object as the last
    /// line of standard output.
    pub fn print_and_emit(&self, correct: bool, attempted: u64, failed: u64) {
        for (name, value, unit) in &self.0 {
            println!("  {name:<28} {value:>14.6} {unit}");
        }
        let fail_ratio = failed as f64 / attempted.max(1) as f64;
        println!(
            "  {:<28} {fail_ratio:>14.6} ({failed} of {attempted} arm runs failed)",
            "fail_ratio"
        );
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value:e}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        );
    }
}

pub fn median(v: &mut [f64]) -> f64 {
    percentile(v, 50.0)
}

/// Nearest-rank percentile; sorts `v`.
pub fn percentile(v: &mut [f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// The highest percentile of the ladder that leaves at least ten distinct
/// arm runs beyond it, given `n` distinct runs per round. Rounds repeat
/// the same runs, so repeats are not counted: ten repeats of one slow run
/// are one sample of the workload, not ten.
pub fn tail_percentile(n: usize) -> f64 {
    const LADDER: [f64; 6] = [99.0, 95.0, 90.0, 80.0, 75.0, 50.0];
    LADDER
        .into_iter()
        .find(|&p| n - ((p / 100.0) * n as f64).ceil() as usize >= 10)
        .unwrap_or(50.0)
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// End-to-end metrics of an untraced run. The simulated metrics come from
/// the first round; every round repeats them exactly (checked through the
/// digest). Returns `(attempted, failed)` over all rounds.
pub fn end_to_end(m: &mut Metrics, rounds: &[Round]) -> (u64, u64) {
    let wall: f64 = rounds.iter().map(|r| r.wall.as_secs_f64()).sum();
    let mut walls: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.records.iter().map(|x| ms(x.wall)))
        .collect();
    let n = walls.len();
    let distinct = rounds[0].records.len();
    let p = tail_percentile(distinct);
    let p50 = median(&mut walls);
    let tail = percentile(&mut walls, p);
    m.add("runs_per_s", n as f64 / wall, "1/s");
    m.add("run_ms_p50", p50, "ms");
    m.add("run_ms_tail", tail, "ms");
    println!(
        "  {} rounds of {distinct} arm runs ({n} runs) in {wall:.3} s; run_ms_tail is p{p} \
         ({} distinct runs beyond it, {} samples)",
        rounds.len(),
        distinct - ((p / 100.0) * distinct as f64).ceil() as usize,
        n - ((p / 100.0) * n as f64).ceil() as usize
    );
    m.add("peak_rss_mb", peak_rss_mb(), "MB");

    let hbh: Vec<&ArmOutcome> = rounds[0]
        .records
        .iter()
        .filter(|r| r.arm == Arm::HbhSoft)
        .filter_map(|r| r.outcome.as_ref())
        .collect();
    let runs = hbh.len().max(1) as f64;
    m.add(
        "tree_cost",
        hbh.iter().map(|o| o.cost as f64).sum::<f64>() / runs,
        "copies",
    );
    m.add(
        "delay_mean",
        hbh.iter().map(|o| o.avg_delay()).sum::<f64>() / runs,
        "time_units",
    );
    // The largest per-router state of each run, averaged over runs: the
    // maximum over all runs is one draw's extreme and swings by seed.
    m.add(
        "state_bytes_max",
        hbh.iter().map(|o| o.state_bytes_max as f64).sum::<f64>() / runs,
        "bytes",
    );
    let attempted = rounds.iter().map(|r| r.records.len() as u64).sum();
    let failed = rounds.iter().map(Round::failed).sum();
    (attempted, failed)
}

fn variants(arm: Arm) -> &'static [&'static str] {
    match arm {
        Arm::HbhSoft | Arm::HbhAgg => HbhMsg::VARIANTS,
        Arm::HbhHard => HardMsg::VARIANTS,
        Arm::Reunite => ReuniteMsg::VARIANTS,
        Arm::PimSs | Arm::PimSm => PimMsg::VARIANTS,
    }
}

/// The per-layer metrics of one traced round, in ms per round and counts
/// per round. `row_ms` is the sampled time of one SPF row.
fn layer_round(r: &Round, row_ms: f64) -> Metrics {
    let mut m = Metrics::default();
    let mut add = |k: String, v: f64, u| m.add(k, v, u);
    let outcomes = || r.records.iter().filter_map(|x| x.outcome.as_ref());

    let rows: u64 = r.routes.values().map(|d| d.rows).sum();
    let lookups: u64 = r.routes.values().map(|d| d.lookups).sum();
    let hits: u64 = r.routes.values().map(|d| d.hits).sum();
    let empty = HandlerTrace::default();
    let rows_in: u64 = r.traces.values().map(|t| t.rows_in_handlers).sum();
    let handler_ms: f64 = r.traces.values().map(|t| ms(t.total())).sum();
    let kernel_ms = ms(r.phases.converge + r.phases.probe + r.phases.settle);
    let arms_ms: f64 = r.records.iter().map(|x| ms(x.wall)).sum();
    let events: u64 = outcomes().map(|o| o.events).sum();

    add("routing.network_ms".into(), ms(r.network), "ms");
    add("routing.spf_rows".into(), rows as f64, "count");
    add("routing.lookups".into(), lookups as f64, "count");
    add(
        "routing.hit_rate".into(),
        hits as f64 / lookups.max(1) as f64,
        "ratio",
    );
    add("routing.spf_ms".into(), rows as f64 * row_ms, "ms");
    add(
        "routing.route_mb_peak".into(),
        r.route_bytes_peak as f64 / 1e6,
        "MB",
    );

    // Self times partition the round: routing (route services + SPF
    // rows), kernel dispatch, handlers, harness, and the remainder.
    let sim_self = kernel_ms - handler_ms - (rows - rows_in) as f64 * row_ms;
    let handlers_self = handler_ms - rows_in as f64 * row_ms;
    let experiments_self = arms_ms - kernel_ms;
    let routing_self = ms(r.network) + rows as f64 * row_ms;
    add("sim-core.events".into(), events as f64, "count");
    add(
        "sim-core.control_copies".into(),
        outcomes().map(|o| o.control_copies).sum::<u64>() as f64,
        "count",
    );
    add(
        "sim-core.drops".into(),
        outcomes().map(|o| o.drops).sum::<u64>() as f64,
        "count",
    );
    add(
        "sim-core.timers_pending_max".into(),
        outcomes().map(|o| o.timers_pending).max().unwrap_or(0) as f64,
        "count",
    );
    add("sim-core.self_ms".into(), sim_self, "ms");
    add(
        "sim-core.ns_per_event".into(),
        sim_self * 1e6 / events.max(1) as f64,
        "ns",
    );

    for arm in Arm::ALL {
        let t = r.traces.get(&arm).unwrap_or(&empty);
        let k = arm.key();
        add(format!("{k}.handler_ms"), ms(t.total()), "ms");
        add(format!("{k}.packet_ms"), ms(t.packet), "ms");
        add(format!("{k}.timer_ms"), ms(t.timer), "ms");
        add(format!("{k}.command_ms"), ms(t.command), "ms");
        add(format!("{k}.packets"), t.packets as f64, "count");
        add(format!("{k}.timers"), t.timers as f64, "count");
        add(format!("{k}.commands"), t.commands as f64, "count");
        for (i, v) in variants(arm).iter().enumerate() {
            let n = t.variants.get(i).copied().unwrap_or(0);
            add(format!("{k}.msg.{v}"), n as f64, "count");
        }
    }
    add("handlers.self_ms".into(), handlers_self, "ms");
    // Control link copies per expected receiver on the HBH arm. Per-draw
    // control volume is heavy-tailed (1,000 to 6,400 copies per receiver
    // on one hierarchy), so this swings too much from seed to seed to be
    // a gated end-to-end metric; it is a count of the hbh layer.
    let hbh = || {
        r.records
            .iter()
            .filter(|x| x.arm == Arm::HbhSoft)
            .filter_map(|x| x.outcome.as_ref())
    };
    add(
        "hbh.soft.control_per_receiver".into(),
        hbh().map(|o| o.control_copies).sum::<u64>() as f64
            / hbh().map(|o| o.expected).sum::<usize>().max(1) as f64,
        "copies",
    );

    add(
        "experiments.build_kernel_ms".into(),
        ms(r.phases.build_kernel),
        "ms",
    );
    add(
        "experiments.converge_ms".into(),
        ms(r.phases.converge),
        "ms",
    );
    add("experiments.probe_ms".into(), ms(r.phases.probe), "ms");
    add("experiments.settle_ms".into(), ms(r.phases.settle), "ms");
    add("experiments.self_ms".into(), experiments_self, "ms");
    add(
        "experiments.unconverged".into(),
        outcomes().filter(|o| !o.converged).count() as f64,
        "count",
    );

    let wall = ms(r.wall);
    add("trace.wall_ms".into(), wall, "ms");
    add(
        "trace.unattributed_ms".into(),
        wall - routing_self - sim_self - handlers_self - experiments_self,
        "ms",
    );
    m
}

/// Per-layer metrics: medians over the traced rounds, plus set-up layers,
/// the sampled SPF row time and the tracing overhead.
pub fn per_layer(
    m: &mut Metrics,
    setup: SetupLayers,
    row_ms: f64,
    plain: &[Round],
    traced: &[Round],
) {
    m.add("topo.build_ms", ms(setup.topo), "ms");
    m.add("routing.tables_ms", ms(setup.tables), "ms");
    m.add("proto-base.plan_ms", ms(setup.plan), "ms");
    m.add("routing.spf_row_ms", row_ms, "ms");

    let per_round: Vec<Metrics> = traced.iter().map(|r| layer_round(r, row_ms)).collect();
    for (i, (name, _, unit)) in per_round[0].0.iter().enumerate() {
        let mut values: Vec<f64> = per_round.iter().map(|r| r.0[i].1).collect();
        m.add(name.clone(), median(&mut values), unit);
    }
    let rows: Vec<String> = traced[0]
        .routes
        .iter()
        .map(|(arm, d)| format!("{} {}", arm.key(), d.rows))
        .collect();
    println!(
        "  SPF rows per round by the arm that missed: {}",
        rows.join(", ")
    );
    let mut untraced: Vec<f64> = plain.iter().map(|r| ms(r.wall)).collect();
    let untraced = median(&mut untraced);
    let mut traced_wall: Vec<f64> = traced.iter().map(|r| ms(r.wall)).collect();
    let traced_wall = median(&mut traced_wall);
    m.add("trace.untraced_wall_ms", untraced, "ms");
    m.add("trace.overhead_ms", traced_wall - untraced, "ms");
    println!(
        "  tracing overhead {:.1} ms per round ({:+.1}% of {untraced:.1} ms untraced), {} traced rounds",
        traced_wall - untraced,
        (traced_wall / untraced - 1.0) * 100.0,
        traced.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_runs_beyond() {
        assert_eq!(tail_percentile(20), 50.0);
        assert_eq!(tail_percentile(50), 80.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(100_000), 99.0);
        assert_eq!(tail_percentile(5), 50.0);
    }

    #[test]
    fn nearest_rank_percentile() {
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), 5.0);
        assert_eq!(percentile(&mut v, 90.0), 9.0);
        assert_eq!(median(&mut []), 0.0);
    }
}
