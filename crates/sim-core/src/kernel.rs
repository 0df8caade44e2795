//! The event kernel: a binary-heap scheduler dispatching packet arrivals,
//! timer expiries, and experiment commands to a [`Protocol`] implementation.
//!
//! ## Dispatch rules
//!
//! For a packet arriving at node `n`:
//!
//! * `n` runs the protocol (multicast-capable router, or any host): the
//!   protocol's [`Protocol::on_packet`] sees the packet — whether or not it
//!   is addressed to `n`. Observing transit packets is how join
//!   interception and data branching work in HBH/REUNITE. Exception: a
//!   *host* that is not the packet's destination never sees it (hosts do
//!   not transit; such an arrival is a misrouting and is counted as a
//!   drop).
//! * `n` is a unicast-only router: the kernel forwards the packet toward
//!   its destination itself — the transparent-unicast-cloud behaviour the
//!   protocols are designed around. A packet *addressed* to a unicast-only
//!   router is dropped (protocols must never do that; the drop counter
//!   makes such bugs visible).
//!
//! Timers are keyed per `(node, timer-value)`; re-arming replaces the
//! previous instance and cancellation is exact (ids are globally unique, so
//! a stale heap entry can never fire).

use crate::fasthash::{FastMap, FxBuildHasher};
use crate::fault::{FaultEvent, FaultPlan};
use crate::network::Network;
use crate::packet::Packet;
use crate::stats::{Delivery, Stats};
use crate::time::Time;
use crate::trace::{Trace, TraceKind};
use hbh_topo::graph::NodeId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Debug;
use std::hash::Hash;

/// A multicast routing protocol (plus its host agents), as seen by the
/// kernel: per-node state and three event handlers.
///
/// Handlers receive `&self` (protocol-wide immutable configuration such as
/// refresh periods and timer durations), the node's own mutable state, and
/// a [`Ctx`] for actions. Keeping handlers free of access to *other*
/// nodes' state is what makes the simulation faithful: nodes can only
/// communicate through packets.
pub trait Protocol: Sized {
    /// Wire payload carried by packets.
    type Msg: Clone + Debug;
    /// Timer identity at a node (e.g. "refresh join for channel c").
    type Timer: Clone + Eq + Hash + Debug;
    /// Experiment-injected command (join/leave/send-data).
    type Command: Clone + Debug;
    /// Per-node protocol state (router tables and/or host agent state).
    type NodeState: Default;

    /// A packet arrived at `ctx.node`.
    fn on_packet(
        &self,
        state: &mut Self::NodeState,
        pkt: Packet<Self::Msg>,
        ctx: &mut Ctx<'_, Self::Msg, Self::Timer>,
    );

    /// A previously armed timer fired at `ctx.node`.
    fn on_timer(
        &self,
        state: &mut Self::NodeState,
        timer: Self::Timer,
        ctx: &mut Ctx<'_, Self::Msg, Self::Timer>,
    );

    /// An experiment command addressed to `ctx.node` (e.g. "join channel").
    fn on_command(
        &self,
        state: &mut Self::NodeState,
        cmd: Self::Command,
        ctx: &mut Ctx<'_, Self::Msg, Self::Timer>,
    );
}

/// Why the kernel dropped a packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // every variant is documented below or self-named
pub enum DropReason {
    /// TTL reached zero in transit (forwarding loop guard).
    TtlExpired,
    /// No unicast route to the destination.
    NoRoute,
    /// Arrived at a host that is not its destination.
    MisroutedToHost,
    /// Addressed to a unicast-only router.
    AddressedToUnicastRouter,
    /// Dropped by the configured loss model (failure injection).
    InjectedLoss,
    /// Transmitted onto a link that is currently down (fault injection).
    LinkDown,
    /// Arrived at a node that is currently crashed (fault injection).
    NodeDown,
}

/// Failure-injection model: every link transmission is independently
/// dropped with the per-class probability. Driven by the kernel's seeded
/// RNG, so lossy runs are exactly reproducible.
///
/// Soft-state protocols are designed to ride out control loss (the next
/// refresh repairs the state); the loss-injection tests verify that HBH,
/// REUNITE and PIM all converge and deliver under heavy control-plane
/// loss.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LossModel {
    /// Drop probability for control packets, in `[0, 1]`.
    pub control: f64,
    /// Drop probability for data packets, in `[0, 1]`.
    pub data: f64,
}

impl LossModel {
    /// Loss on control packets only (the soft-state robustness tests).
    pub fn control_only(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p));
        LossModel {
            control: p,
            data: 0.0,
        }
    }

    fn prob_for(&self, class: crate::packet::PacketClass) -> f64 {
        match class {
            crate::packet::PacketClass::Control => self.control,
            crate::packet::PacketClass::Data => self.data,
        }
    }
}

enum EventKind<M, T, C> {
    Arrive { node: NodeId, pkt: Packet<M> },
    Timer { node: NodeId, timer: T, id: u64 },
    Command { node: NodeId, cmd: C },
    Fault(FaultEvent),
}

/// Live fault-injection state, present only once a [`FaultPlan`] is
/// installed (or a fault is scheduled directly). Keeping it behind an
/// `Option<Box<_>>` means a fault-free kernel pays one pointer-null check
/// on the transmit/arrival paths and draws no extra randomness — runs
/// without a plan are bit-identical to runs on a kernel that has never
/// heard of faults.
struct FaultState {
    /// `node_down[n]`: node `n` is crashed.
    node_down: Vec<bool>,
    /// `edge_down[e]`: directed edge `e` is down (links fail both
    /// directions at once, so both directed twins are flagged together).
    edge_down: Vec<bool>,
    /// Dense per-directed-edge Bernoulli loss, if any link loss was
    /// configured. Layered on top of the class-wide [`LossModel`].
    edge_loss: Option<Vec<f64>>,
}

/// Near/far split for the two-band scheduler. Per-hop packet delays are
/// single link costs (small integers), while every protocol timer is at
/// least one refresh period (≥ 100 time units by [`Timing` defaults]):
/// the workload is bimodal with nothing near the boundary. Banding is a
/// performance hint only — `pop` compares both band heads on the full
/// `(at, seq)` key, so dispatch order is exact no matter which band an
/// event landed in. Must be a power of two (slot index is `at % 64`).
const NEAR_HORIZON: u64 = 64;

/// One calendar-wheel slot: events due at a single time, in push (= seq)
/// order, with a read cursor instead of front removal.
struct WheelSlot {
    entries: Vec<(Time, u64, u32)>,
    read: usize,
}

/// Scheduling key: `(due time, global sequence, slab index)`. `seq` is
/// globally unique, so comparing keys totally orders events.
type EventKey = (Time, u64, u32);

/// Levels in the far band's hierarchical wheel. Level `k` has 64 slots of
/// span `64^(k+1)` ticks, so four levels cover deltas up to `64^5` ≈ 1.07e9
/// ticks — far beyond any convergence horizon. Longer-dated events (none in
/// practice) spill into a sorted overflow vector.
const FAR_LEVELS: usize = 4;

/// log2 of the slot count per level (64 slots, like the near wheel).
const SLOT_BITS: u32 = 6;

/// One level of the hierarchical far wheel: 64 unsorted slot buckets plus
/// an occupancy bitmask (bit `s` ⇔ slot `s` nonempty).
struct FarLevel {
    slots: Vec<Vec<EventKey>>,
    occ: u64,
}

impl FarLevel {
    fn new() -> Self {
        FarLevel {
            slots: (0..64).map(|_| Vec::new()).collect(),
            occ: 0,
        }
    }
}

/// The far band: a hierarchical timing wheel with a sorted "due run".
///
/// Structure:
///
/// * `run` — all far events due before `open_hi`, sorted ascending, with a
///   consumed-prefix cursor. The head of the run is always the earliest
///   far event (see the refill invariant below), so `peek`/`pop` read it
///   directly, exactly like the old single sorted vector.
/// * `levels` — [`FAR_LEVELS`] wheels of 64 unsorted slots each; level `k`
///   slots span `64^(k+1)` ticks. Insertion picks the smallest level whose
///   current 64-slot window covers the event's due time: an O(1) bucket
///   push, however far in the future the deadline lies.
/// * `overflow` — sorted spill for deltas beyond the top level's coverage.
///
/// When the run is exhausted, [`FarWheel::refill`] opens the next 64-tick
/// window: it finds the earliest occupied slot across all levels,
/// **cascades** higher-level slots downward (re-bucketing their events one
/// level finer — amortized O(levels) per event over its lifetime), and
/// when a level-0 slot surfaces, sorts it (by the full `(at, seq)` key)
/// and installs it as the new run. Refill runs eagerly after every
/// insert/pop that empties the run, so *the run is nonempty whenever any
/// far event exists* — which keeps `peek` a pure read and makes `pop`'s
/// two-band head comparison identical to the old sorted-vector band.
///
/// `floor` is a monotone lower bound on every contained event's due time
/// (≥ the kernel clock, advanced to each opened window's start). Slot
/// indexing is relative to `floor`, which keeps every level's occupied
/// slots inside one 64-slot window — the rotate-and-scan trick the near
/// wheel uses then visits slots in due-time order without ambiguity.
struct FarWheel {
    run: Vec<EventKey>,
    run_head: usize,
    /// Exclusive upper bound of the opened window: every event with
    /// `at < open_hi` lives in `run`; every event in `levels`/`overflow`
    /// has `at >= open_hi`. Starts at 0 (nothing opened), 64-aligned,
    /// monotone.
    open_hi: u64,
    /// Monotone lower bound on all contained due times; scan base.
    floor: u64,
    levels: Vec<FarLevel>,
    overflow: Vec<EventKey>,
    overflow_head: usize,
}

impl FarWheel {
    fn new() -> Self {
        FarWheel {
            run: Vec::new(),
            run_head: 0,
            open_hi: 0,
            floor: 0,
            levels: (0..FAR_LEVELS).map(|_| FarLevel::new()).collect(),
            overflow: Vec::new(),
            overflow_head: 0,
        }
    }

    /// The earliest far event, if any (the refill invariant makes this the
    /// run head).
    fn head(&self) -> Option<&EventKey> {
        self.run.get(self.run_head)
    }

    /// Inserts a far event. O(1) bucket push for events beyond the opened
    /// window; events inside it (`at < open_hi`) take a bounded sorted
    /// insert into the run — the window spans only 64 ticks, so the moved
    /// tail is small (unlike the old single far vector, whose tail was the
    /// entire future).
    fn insert(&mut self, now: Time, key: EventKey) {
        if self.floor < now.0 {
            self.floor = now.0;
        }
        let at = key.0 .0;
        if at < self.open_hi {
            let pos = self.run_head + self.run[self.run_head..].partition_point(|e| *e < key);
            self.run.insert(pos, key);
        } else if !self.level_insert(key) {
            let pos = self.overflow_head
                + self.overflow[self.overflow_head..].partition_point(|e| *e < key);
            self.overflow.insert(pos, key);
        }
        if self.run_head == self.run.len() {
            self.refill();
        }
    }

    /// Buckets `key` into the smallest level whose current window reaches
    /// its due time. Returns `false` if even the top level cannot (the
    /// overflow case).
    fn level_insert(&mut self, key: EventKey) -> bool {
        let at = key.0 .0;
        debug_assert!(at >= self.floor, "event below the wheel floor");
        for (k, level) in self.levels.iter_mut().enumerate() {
            let bits = SLOT_BITS * (k as u32 + 1);
            if (at >> bits) - (self.floor >> bits) <= 63 {
                let s = ((at >> bits) & 63) as usize;
                level.slots[s].push(key);
                level.occ |= 1 << s;
                return true;
            }
        }
        false
    }

    /// Advances the consumed cursor past the run head. The caller must
    /// have taken the head; refills eagerly when the run empties.
    fn consume_head(&mut self) {
        self.run_head += 1;
        if self.run_head == self.run.len() {
            self.refill();
        }
    }

    /// Opens the next 64-tick window into `run`. See the type docs.
    fn refill(&mut self) {
        debug_assert_eq!(self.run_head, self.run.len());
        loop {
            self.migrate_overflow();
            // Earliest occupied slot across all levels, by absolute window
            // start (recovered from any contained event: all events of a
            // slot share one absolute window — their deltas from `floor`
            // fit 63 slots, so slot index ↔ window is a bijection).
            let mut best: Option<(u64, usize, usize)> = None;
            for (k, level) in self.levels.iter().enumerate() {
                if level.occ == 0 {
                    continue;
                }
                let bits = SLOT_BITS * (k as u32 + 1);
                let base = ((self.floor >> bits) & 63) as u32;
                let off = level.occ.rotate_right(base).trailing_zeros();
                let s = ((u64::from(base) + u64::from(off)) & 63) as usize;
                let start = (level.slots[s][0].0 .0 >> bits) << bits;
                if best.map_or(true, |(b, _, _)| start < b) {
                    best = Some((start, k, s));
                }
            }
            let of_head = self.overflow.get(self.overflow_head).map(|e| e.0 .0);
            let (start, k, s) = match (best, of_head) {
                (None, None) => return, // wheel is empty
                (Some(b), of) if of.map_or(true, |o| b.0 <= o) => b,
                (_, Some(o)) => {
                    // The overflow head is the earliest remaining event:
                    // raise the floor to it (sound: nothing is due before
                    // it) so the migration pass can bucket it.
                    self.floor = self.floor.max(o);
                    continue;
                }
                (Some(_), None) => unreachable!("guarded arm covers this"),
            };
            self.floor = self.floor.max(start);
            if k == 0 {
                // Open this window: sort the slot by the full key and make
                // it the new run, recycling the spent run's allocation.
                let mut spent = std::mem::take(&mut self.run);
                spent.clear();
                let mut v = std::mem::replace(&mut self.levels[0].slots[s], spent);
                self.levels[0].occ &= !(1 << s);
                v.sort_unstable();
                self.run = v;
                self.run_head = 0;
                self.open_hi = start + (1 << SLOT_BITS);
                return;
            }
            // Cascade: re-bucket the slot one level finer. The parent slot
            // spans exactly 64 child slots, so children never alias.
            let v = std::mem::take(&mut self.levels[k].slots[s]);
            self.levels[k].occ &= !(1 << s);
            let bits = SLOT_BITS * k as u32;
            for e in v {
                let cs = ((e.0 .0 >> bits) & 63) as usize;
                self.levels[k - 1].slots[cs].push(e);
                self.levels[k - 1].occ |= 1 << cs;
            }
        }
    }

    /// Moves overflow-prefix events whose due times the levels now reach
    /// into the wheel proper.
    fn migrate_overflow(&mut self) {
        let top_bits = SLOT_BITS * FAR_LEVELS as u32;
        while let Some(&e) = self.overflow.get(self.overflow_head) {
            if (e.0 .0 >> top_bits) - (self.floor >> top_bits) > 63 {
                break;
            }
            let bucketed = self.level_insert(e);
            debug_assert!(bucketed, "migration candidate must fit a level");
            self.overflow_head += 1;
        }
        if self.overflow_head > 0 && self.overflow_head == self.overflow.len() {
            self.overflow.clear();
            self.overflow_head = 0;
        }
    }
}

/// The pending-event set: a two-band scheduler over `(at, seq, slab
/// index)` keys with the event bodies slab-allocated off to the side.
///
/// Event bodies (notably `Arrive`, which carries a whole `Packet<M>`) are
/// large; keeping them out of the key structures means scheduling moves
/// 24-byte tuples instead of full events. Bodies live in `kinds` until
/// popped; freed slots recycle through `free`, so steady-state scheduling
/// performs no allocation.
///
/// The two bands exploit the bimodal delay distribution:
///
/// * **Near band** — events due within [`NEAR_HORIZON`] of their push
///   time (in-flight packets): a 64-slot calendar wheel indexed by
///   `at % 64`. All pending events lie in `[now, now + 64)`, so a slot
///   holds exactly one distinct due time and O(1) appends keep it in seq
///   order; `occ` (bit `s` ⇔ slot `s` nonempty) turns earliest-slot
///   lookup into a rotate + trailing_zeros.
/// * **Far band** — longer-dated events (timer expiries): a hierarchical
///   timing wheel ([`FarWheel`]) giving O(1) inserts at any horizon while
///   presenting a sorted head, so `pop`'s exact two-band comparison is
///   unchanged.
struct EventQueue<M, T, C> {
    wheel: Vec<WheelSlot>, // NEAR_HORIZON slots
    /// Occupancy bitmask: bit `s` set iff `wheel[s]` has unread entries.
    occ: u64,
    far: FarWheel,
    kinds: Vec<Option<EventKind<M, T, C>>>,
    free: Vec<u32>,
    /// Scheduled-but-undispatched `Arrive` events carrying data-class
    /// packets. Data forwarding is strictly arrival-driven (no protocol
    /// re-emits a data packet from a timer), so when this hits zero every
    /// data packet in the simulation has fully propagated — the
    /// early-termination signal for probe windows.
    pending_data: u64,
}

impl<M, T, C> EventQueue<M, T, C> {
    fn with_capacity(cap: usize) -> Self {
        EventQueue {
            wheel: (0..NEAR_HORIZON)
                .map(|_| WheelSlot {
                    entries: Vec::new(),
                    read: 0,
                })
                .collect(),
            occ: 0,
            far: FarWheel::new(),
            kinds: Vec::with_capacity(cap),
            free: Vec::new(),
            pending_data: 0,
        }
    }

    fn push(&mut self, now: Time, at: Time, seq: u64, kind: EventKind<M, T, C>) {
        if let EventKind::Arrive { pkt, .. } = &kind {
            if pkt.class == crate::packet::PacketClass::Data {
                self.pending_data += 1;
            }
        }
        let idx = match self.free.pop() {
            Some(i) => {
                self.kinds[i as usize] = Some(kind);
                i
            }
            None => {
                let i = u32::try_from(self.kinds.len()).expect("event queue overflow");
                self.kinds.push(Some(kind));
                i
            }
        };
        let key = (at, seq, idx);
        if at.0.saturating_sub(now.0) < NEAR_HORIZON {
            let s = (at.0 % NEAR_HORIZON) as usize;
            let slot = &mut self.wheel[s];
            // Unread entries of a slot always share one due time: two
            // distinct times in [now, now + 64) cannot collide mod 64.
            debug_assert!(slot.entries[slot.read..].iter().all(|e| e.0 == at));
            slot.entries.push(key);
            self.occ |= 1 << s;
        } else {
            self.far.insert(now, key);
        }
    }

    /// The earliest-due wheel slot at `now`, if any. All pending wheel
    /// events lie in `[now, now + 64)`, so scanning the occupancy bits
    /// upward from `now`'s slot (wrapping) visits slots in due-time order.
    fn wheel_slot(&self, now: Time) -> Option<usize> {
        if self.occ == 0 {
            return None;
        }
        let base = (now.0 % NEAR_HORIZON) as u32;
        let off = self.occ.rotate_right(base).trailing_zeros();
        Some(((base + off) as u64 % NEAR_HORIZON) as usize)
    }

    fn wheel_head(&self, now: Time) -> Option<(Time, u64, u32)> {
        let s = self.wheel_slot(now)?;
        let slot = &self.wheel[s];
        Some(slot.entries[slot.read])
    }

    /// Time of the earliest pending event. `now` must not exceed any
    /// pending event's due time (the kernel clock guarantees this).
    fn peek_at(&self, now: Time) -> Option<Time> {
        match (self.wheel_head(now), self.far.head()) {
            (Some(n), Some(f)) => Some(n.0.min(f.0)),
            (Some(n), None) => Some(n.0),
            (None, f) => f.map(|k| k.0),
        }
    }

    /// Pops the earliest event in `(at, seq)` order.
    fn pop(&mut self, now: Time) -> Option<(Time, EventKind<M, T, C>)> {
        let (at, _seq, idx) = match (self.wheel_head(now), self.far.head()) {
            // seq is globally unique, so full-key comparison totally
            // orders the two heads; < vs <= is immaterial.
            (Some(n), Some(&f)) if n < f => self.pop_wheel(now),
            (Some(_), None) => self.pop_wheel(now),
            (_, Some(_)) => self.pop_far(),
            (None, None) => return None,
        };
        let kind = self.kinds[idx as usize]
            .take()
            .expect("slab slot vacated early");
        self.free.push(idx);
        if let EventKind::Arrive { pkt, .. } = &kind {
            if pkt.class == crate::packet::PacketClass::Data {
                self.pending_data -= 1;
            }
        }
        Some((at, kind))
    }

    fn pop_wheel(&mut self, now: Time) -> (Time, u64, u32) {
        let s = self.wheel_slot(now).expect("caller saw a wheel head");
        let slot = &mut self.wheel[s];
        let key = slot.entries[slot.read];
        slot.read += 1;
        if slot.read == slot.entries.len() {
            slot.entries.clear();
            slot.read = 0;
            self.occ &= !(1 << s);
        }
        key
    }

    fn pop_far(&mut self) -> (Time, u64, u32) {
        let key = *self.far.head().expect("caller saw a far head");
        self.far.consume_head();
        key
    }
}

/// Kernel internals shared with protocol handlers through [`Ctx`].
struct Core<M, T, C> {
    net: Network,
    queue: EventQueue<M, T, C>,
    now: Time,
    seq: u64,
    timer_ids: FastMap<(NodeId, T), u64>,
    stats: Stats,
    rng: StdRng,
    trace: Trace<M>,
    loss: LossModel,
    /// `None` until a fault plan is installed — the zero-cost default.
    faults: Option<Box<FaultState>>,
}

impl<M: Clone + Debug, T: Clone + Eq + Hash + Debug, C: Clone + Debug> Core<M, T, C> {
    fn push(&mut self, at: Time, kind: EventKind<M, T, C>) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(self.now, at, seq, kind);
    }

    fn drop_packet(&mut self, node: NodeId, pkt: &Packet<M>, reason: DropReason) {
        self.stats.drops += 1;
        if self.trace.active() {
            self.trace.record(
                self.now,
                node,
                TraceKind::Dropped {
                    pkt: pkt.clone(),
                    reason,
                },
            );
        }
    }

    /// Puts `pkt` on the wire at `from`, headed for `pkt.dst` via the
    /// unicast next hop. Counts the link transit and schedules the arrival.
    fn transmit(&mut self, from: NodeId, pkt: Packet<M>) {
        if pkt.dst == from {
            // Local loopback: deliver to self without touching a link.
            if self.trace.active() {
                self.trace
                    .record(self.now, from, TraceKind::Loopback { pkt: pkt.clone() });
            }
            self.push(self.now, EventKind::Arrive { node: from, pkt });
            return;
        }
        let Some((next, eid, cost)) = self.net.hop(from, pkt.dst) else {
            self.drop_packet(from, &pkt, DropReason::NoRoute);
            return;
        };
        self.put_on_edge(from, next, eid, cost, pkt);
    }

    /// Link-local entry point: resolves the edge by one adjacency scan
    /// (per-oif forwarding addresses neighbors directly, so there is no
    /// routing row to read the edge from).
    fn put_on_link(&mut self, from: NodeId, next: NodeId, pkt: Packet<M>) {
        let (eid, cost) = self
            .net
            .graph()
            .edge_entry(from, next)
            .unwrap_or_else(|| panic!("no link {from}->{next}"));
        self.put_on_edge(from, next, eid, cost, pkt);
    }

    /// Common tail of routed and link-local transmission: loss injection,
    /// accounting, arrival scheduling.
    fn put_on_edge(
        &mut self,
        from: NodeId,
        next: NodeId,
        eid: hbh_topo::graph::EdgeId,
        cost: hbh_topo::graph::Cost,
        pkt: Packet<M>,
    ) {
        if let Some(f) = &self.faults {
            if f.edge_down[eid.index()] {
                // A down link carries nothing: the copy never occupies it,
                // so no transit is counted.
                self.drop_packet(from, &pkt, DropReason::LinkDown);
                return;
            }
        }
        if self.lose(pkt.class) || self.lose_on_edge(eid) {
            // The copy is counted as transmitted (it did occupy the link)
            // and then lost.
            self.stats.count_transit(eid, pkt.class, pkt.tag);
            self.drop_packet(from, &pkt, DropReason::InjectedLoss);
            return;
        }
        self.stats.count_transit(eid, pkt.class, pkt.tag);
        if self.trace.active() {
            self.trace.record(
                self.now,
                from,
                TraceKind::Sent {
                    to: next,
                    pkt: pkt.clone(),
                },
            );
        }
        self.push(
            self.now + u64::from(cost),
            EventKind::Arrive { node: next, pkt },
        );
    }

    fn lose(&mut self, class: crate::packet::PacketClass) -> bool {
        let p = self.loss.prob_for(class);
        p > 0.0 && rand::RngExt::random::<f64>(&mut self.rng) < p
    }

    /// Per-link Bernoulli loss from an installed fault plan. Draws from
    /// the RNG only when this edge actually has a positive loss
    /// probability, preserving the RNG stream of loss-free runs.
    fn lose_on_edge(&mut self, eid: hbh_topo::graph::EdgeId) -> bool {
        let Some(loss) = self.faults.as_ref().and_then(|f| f.edge_loss.as_ref()) else {
            return false;
        };
        let p = loss[eid.index()];
        p > 0.0 && rand::RngExt::random::<f64>(&mut self.rng) < p
    }

    /// Allocates the fault masks on first use (all-up, no extra loss).
    fn ensure_faults(&mut self) {
        if self.faults.is_none() {
            self.faults = Some(Box::new(FaultState {
                node_down: vec![false; self.net.node_count()],
                edge_down: vec![false; self.net.graph().directed_edge_count()],
                edge_loss: None,
            }));
        }
    }

    /// Marks both directions of the link `a — b` down or up.
    fn set_link(&mut self, a: NodeId, b: NodeId, down: bool) {
        let (e_ab, _) = self
            .net
            .graph()
            .edge_entry(a, b)
            .unwrap_or_else(|| panic!("no link {a}-{b} to fail"));
        let (e_ba, _) = self
            .net
            .graph()
            .edge_entry(b, a)
            .expect("links are bidirectional");
        let f = self.faults.as_mut().expect("faults installed");
        f.edge_down[e_ab.index()] = down;
        f.edge_down[e_ba.index()] = down;
    }

    /// Recomputes unicast routing over the surviving topology — the
    /// instantly-reconverged substrate the multicast protocols repair on.
    /// Only the SPF rows the fault touches are dropped.
    fn reroute(&mut self) {
        let f = self.faults.as_ref().expect("faults installed");
        self.net = self.net.rerouted(&f.node_down, &f.edge_down);
    }

    fn forward(&mut self, at: NodeId, mut pkt: Packet<M>) {
        if pkt.ttl == 0 {
            self.drop_packet(at, &pkt, DropReason::TtlExpired);
            return;
        }
        pkt.ttl -= 1;
        self.transmit(at, pkt);
    }

    /// Link-local transmission: puts `pkt` directly on the link
    /// `from → via`, bypassing unicast routing. This models
    /// interface-directed forwarding (PIM's per-oif replication).
    ///
    /// Panics if no such link exists — per-oif state always points at a
    /// direct neighbor, so a violation is a protocol bug.
    fn transmit_link(&mut self, from: NodeId, via: NodeId, pkt: Packet<M>) {
        // put_on_link resolves the edge and panics if no such link exists.
        self.put_on_link(from, via, pkt);
    }
}

/// Handler-side view of the kernel: the current node, the clock, the RNG,
/// routing lookups, and the action API (send / forward / deliver / timers).
pub struct Ctx<'a, M, T> {
    /// The node the current event fired at.
    pub node: NodeId,
    core: &'a mut dyn KernelOps<M, T>,
}

impl<'a, M, T> Ctx<'a, M, T> {
    /// Builds a handler context over any [`KernelOps`] backend. The
    /// simulation kernel uses this internally; alternative runtimes (e.g.
    /// the UDP-backed `hbh-live`) use it to drive the same protocol code.
    pub fn from_ops(node: NodeId, core: &'a mut dyn KernelOps<M, T>) -> Self {
        Ctx { node, core }
    }
}

/// The capability surface protocol handlers run against, object-safe.
///
/// The simulation kernel's `Core` is the canonical implementation, but
/// the trait is public so the *same protocol engines* can run over other
/// backends — `hbh-live` implements it with real UDP sockets and
/// wall-clock timers. Implementors provide: a clock, a routing view, an
/// RNG, transmission (routed, link-local, and transit forwarding),
/// application delivery, keyed timers, and bookkeeping hooks.
pub trait KernelOps<M, T> {
    /// Current time (simulated or wall-clock-derived).
    fn now(&self) -> Time;
    /// The frozen topology + unicast routing view.
    fn net(&self) -> &Network;
    /// Seeded RNG for protocol-side randomness.
    fn rng(&mut self) -> &mut StdRng;
    /// Originates `pkt` at `from`, routed toward `pkt.dst`.
    fn send(&mut self, from: NodeId, pkt: Packet<M>);
    /// Transmits directly on the link `from → via` (no routing).
    fn send_link(&mut self, from: NodeId, via: NodeId, pkt: Packet<M>);
    /// Forwards a transit packet one hop (TTL-decrementing).
    fn forward(&mut self, from: NodeId, pkt: Packet<M>);
    /// Records an application-level delivery at `node`.
    fn deliver(&mut self, node: NodeId, pkt_tag: u64, injected_at: Time);
    /// Arms (or re-arms, superseding) a keyed timer at `node`.
    fn set_timer(&mut self, node: NodeId, timer: T, delay: u64);
    /// Cancels a pending timer (no-op if not armed).
    fn cancel_timer(&mut self, node: NodeId, timer: &T);
    /// Arms a batch of keyed timers at `node` — semantically identical to
    /// calling [`KernelOps::set_timer`] per entry, in iterator order, but
    /// one virtual dispatch for the whole batch (and backends may reserve
    /// capacity up front). Engines arming thousands of refresh timers per
    /// event use this instead of per-entry calls.
    fn set_timers(&mut self, node: NodeId, timers: &mut dyn Iterator<Item = (T, u64)>) {
        for (timer, delay) in timers {
            self.set_timer(node, timer, delay);
        }
    }
    /// Cancels a batch of pending timers (per-entry no-op if not armed),
    /// the batched counterpart of [`KernelOps::cancel_timer`].
    fn cancel_timers(&mut self, node: NodeId, timers: &mut dyn Iterator<Item = T>) {
        for timer in timers {
            self.cancel_timer(node, &timer);
        }
    }
    /// Notes a structural protocol-state change (churn accounting).
    fn structural_change(&mut self);
    /// Appends a free-form trace annotation.
    fn trace_note(&mut self, node: NodeId, note: String);
}

impl<M: Clone + Debug, T: Clone + Eq + Hash + Debug, C: Clone + Debug> KernelOps<M, T>
    for Core<M, T, C>
{
    fn now(&self) -> Time {
        self.now
    }
    fn net(&self) -> &Network {
        &self.net
    }
    fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }
    fn send(&mut self, from: NodeId, pkt: Packet<M>) {
        self.transmit(from, pkt);
    }
    fn send_link(&mut self, from: NodeId, via: NodeId, pkt: Packet<M>) {
        self.transmit_link(from, via, pkt);
    }
    fn forward(&mut self, from: NodeId, pkt: Packet<M>) {
        Core::forward(self, from, pkt);
    }
    fn deliver(&mut self, node: NodeId, tag: u64, injected_at: Time) {
        self.trace
            .record(self.now, node, TraceKind::Delivered { tag });
        self.stats.deliveries.push(Delivery {
            node,
            at: self.now,
            tag,
            injected_at,
        });
    }
    fn set_timer(&mut self, node: NodeId, timer: T, delay: u64) {
        let id = self.seq; // globally unique, monotonic
        self.timer_ids.insert((node, timer.clone()), id);
        self.push(self.now + delay, EventKind::Timer { node, timer, id });
    }
    fn cancel_timer(&mut self, node: NodeId, timer: &T) {
        self.timer_ids.remove(&(node, timer.clone()));
    }
    fn set_timers(&mut self, node: NodeId, timers: &mut dyn Iterator<Item = (T, u64)>) {
        // One dynamic dispatch for the batch; the per-entry arming below is
        // static. Pre-size the keyed-timer map from the iterator's hint so
        // a flash-crowd-sized batch doesn't rehash it several times over.
        let (lo, _) = timers.size_hint();
        self.timer_ids.reserve(lo);
        for (timer, delay) in timers {
            KernelOps::set_timer(self, node, timer, delay);
        }
    }
    fn cancel_timers(&mut self, node: NodeId, timers: &mut dyn Iterator<Item = T>) {
        for timer in timers {
            self.timer_ids.remove(&(node, timer));
        }
    }
    fn structural_change(&mut self) {
        let now = self.now;
        self.stats.note_structural_change(now);
    }
    fn trace_note(&mut self, node: NodeId, note: String) {
        self.trace.record(self.now, node, TraceKind::Note(note));
    }
}

impl<'a, M, T> Ctx<'a, M, T> {
    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.core.now()
    }

    /// The frozen network (topology + unicast routing).
    pub fn net(&self) -> &Network {
        self.core.net()
    }

    /// The kernel's seeded RNG (e.g. for timer jitter).
    pub fn rng(&mut self) -> &mut StdRng {
        self.core.rng()
    }

    /// Originates `pkt` at this node (fresh TTL assumed already set).
    pub fn send(&mut self, pkt: Packet<M>) {
        self.core.send(self.node, pkt);
    }

    /// Transmits `pkt` directly on the link to the neighbor `via`,
    /// bypassing unicast routing (interface-directed forwarding, used by
    /// PIM's per-oif replication). Panics if `via` is not a neighbor.
    pub fn send_link(&mut self, via: NodeId, pkt: Packet<M>) {
        self.core.send_link(self.node, via, pkt);
    }

    /// Forwards a transit packet one hop toward its destination,
    /// decrementing the TTL.
    pub fn forward(&mut self, pkt: Packet<M>) {
        self.core.forward(self.node, pkt);
    }

    /// Records an application-level delivery of (a copy of) probe
    /// `pkt.tag` at this node.
    pub fn deliver(&mut self, pkt: &Packet<M>) {
        self.core.deliver(self.node, pkt.tag, pkt.injected_at);
    }

    /// Arms (or re-arms) a timer at this node. An earlier pending instance
    /// of the same timer is superseded.
    pub fn set_timer(&mut self, timer: T, delay: u64) {
        self.core.set_timer(self.node, timer, delay);
    }

    /// Cancels a pending timer (no-op if not armed).
    pub fn cancel_timer(&mut self, timer: &T) {
        self.core.cancel_timer(self.node, timer);
    }

    /// Arms a batch of timers at this node in one kernel call (iterator
    /// order; each entry supersedes an earlier pending instance of the
    /// same timer, exactly like [`Ctx::set_timer`]). Use this when one
    /// event arms many timers — e.g. a membership storm arming thousands
    /// of refresh timers — to pay one dispatch instead of N.
    pub fn set_timers<I>(&mut self, timers: I)
    where
        I: IntoIterator<Item = (T, u64)>,
    {
        let mut it = timers.into_iter();
        self.core.set_timers(self.node, &mut it);
    }

    /// Cancels a batch of pending timers at this node in one kernel call
    /// (per-entry no-op if not armed).
    pub fn cancel_timers<I>(&mut self, timers: I)
    where
        I: IntoIterator<Item = T>,
    {
        let mut it = timers.into_iter();
        self.core.cancel_timers(self.node, &mut it);
    }

    /// Notes a structural state change (table entry added/removed, flag
    /// flipped) for churn accounting and quiescence detection.
    pub fn structural_change(&mut self) {
        self.core.structural_change();
    }

    /// Appends a free-form note to the trace (no-op unless tracing is on).
    pub fn trace(&mut self, note: impl FnOnce() -> String) {
        // Cheap check happens inside Trace; building the string is the
        // expensive part, so only do it when a sink exists.
        self.core.trace_note(self.node, note());
    }
}

/// The simulator: a [`Network`], one [`Protocol`], per-node states, and the
/// event queue.
pub struct Kernel<P: Protocol> {
    proto: P,
    states: Vec<P::NodeState>,
    core: Core<P::Msg, P::Timer, P::Command>,
}

impl<P: Protocol> Kernel<P> {
    /// Creates a kernel over `net` with every node's state defaulted and
    /// the RNG seeded from `seed`.
    pub fn new(net: Network, proto: P, seed: u64) -> Self {
        let n = net.node_count();
        // Pre-size the scheduler and keyed-timer map from the topology:
        // in-flight events scale with nodes (a few packets/timers each).
        // Generous guesses — the point is to skip the first few doubling
        // reallocations, not to be exact.
        let stats = Stats::for_graph(net.graph());
        Kernel {
            proto,
            states: (0..n).map(|_| P::NodeState::default()).collect(),
            core: Core {
                net,
                queue: EventQueue::with_capacity(64 + 4 * n),
                now: Time::ZERO,
                seq: 0,
                timer_ids: FastMap::with_capacity_and_hasher(2 * n, FxBuildHasher::default()),
                stats,
                rng: StdRng::seed_from_u64(seed),
                trace: Trace::disabled(),
                loss: LossModel::default(),
                faults: None,
            },
        }
    }

    /// Installs a [`FaultPlan`]: resolves its per-link loss to dense
    /// per-edge probabilities and schedules its topology events. May be
    /// called more than once (plans accumulate); without any call the
    /// kernel runs the historical fault-free fast path.
    ///
    /// # Panics
    /// Panics if the plan names a nonexistent link or schedules an event
    /// in the past.
    pub fn install_faults(&mut self, plan: &FaultPlan) {
        self.core.ensure_faults();
        if !plan.link_loss.is_empty() {
            let mut loss = self
                .core
                .faults
                .as_mut()
                .expect("just ensured")
                .edge_loss
                .take()
                .unwrap_or_else(|| vec![0.0; self.core.net.graph().directed_edge_count()]);
            for &(a, b, p) in &plan.link_loss {
                let g = self.core.net.graph();
                let (e_ab, _) = g
                    .edge_entry(a, b)
                    .unwrap_or_else(|| panic!("no link {a}-{b} for loss"));
                let (e_ba, _) = g.edge_entry(b, a).expect("links are bidirectional");
                loss[e_ab.index()] = p;
                loss[e_ba.index()] = p;
            }
            self.core.faults.as_mut().expect("just ensured").edge_loss = Some(loss);
        }
        for &(at, ev) in &plan.events {
            self.schedule_fault(at, ev);
        }
    }

    /// Schedules a single fault event at absolute time `at`. Fault events
    /// share the `(time, sequence)` order of every other kernel event, so
    /// interleavings with commands and packets are deterministic.
    ///
    /// # Panics
    /// Panics if `at` is in the past.
    pub fn schedule_fault(&mut self, at: Time, ev: FaultEvent) {
        assert!(at >= self.core.now, "fault scheduled in the past");
        self.core.ensure_faults();
        self.core.push(at, EventKind::Fault(ev));
    }

    /// Whether `n` is currently crashed by fault injection.
    pub fn node_is_down(&self, n: NodeId) -> bool {
        self.core
            .faults
            .as_ref()
            .is_some_and(|f| f.node_down[n.index()])
    }

    /// Applies a topology fault *now*: flips availability masks, wipes a
    /// crashed node's protocol state and timers, and reconverges unicast
    /// routing on the surviving topology.
    fn apply_fault(&mut self, ev: FaultEvent) {
        self.core.ensure_faults();
        match ev {
            FaultEvent::LinkDown { a, b } => self.core.set_link(a, b, true),
            FaultEvent::LinkUp { a, b } => self.core.set_link(a, b, false),
            FaultEvent::NodeDown(n) => {
                let f = self.core.faults.as_mut().expect("just ensured");
                f.node_down[n.index()] = true;
                // A crash loses all soft state and cancels every pending
                // timer — recovery must come entirely from the neighbors'
                // refresh traffic, exactly like a real router reboot.
                self.states[n.index()] = P::NodeState::default();
                self.core.timer_ids.retain(|(node, _), _| *node != n);
            }
            FaultEvent::NodeUp(n) => {
                let f = self.core.faults.as_mut().expect("just ensured");
                f.node_down[n.index()] = false;
            }
        }
        self.core.reroute();
        if self.core.trace.active() {
            let node = match ev {
                FaultEvent::LinkDown { a, .. } | FaultEvent::LinkUp { a, .. } => a,
                FaultEvent::NodeDown(n) | FaultEvent::NodeUp(n) => n,
            };
            let now = self.core.now;
            self.core
                .trace
                .record(now, node, TraceKind::Note(format!("fault: {ev:?}")));
        }
    }

    /// Configures failure injection (default: lossless).
    pub fn set_loss(&mut self, loss: LossModel) {
        assert!((0.0..=1.0).contains(&loss.control) && (0.0..=1.0).contains(&loss.data));
        self.core.loss = loss;
    }

    /// Turns on event tracing (drains via [`Kernel::take_trace`]).
    pub fn enable_trace(&mut self) {
        self.core.trace = Trace::enabled();
    }

    /// Drains collected trace records.
    pub fn take_trace(&mut self) -> Vec<crate::trace::TraceRecord<P::Msg>> {
        self.core.trace.take()
    }

    /// Schedules an experiment command at `node` for absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past.
    pub fn command_at(&mut self, node: NodeId, cmd: P::Command, at: Time) {
        assert!(at >= self.core.now, "command scheduled in the past");
        self.core.push(at, EventKind::Command { node, cmd });
    }

    /// Processes every event up to and including `until`, then advances the
    /// clock to `until`.
    pub fn run_until(&mut self, until: Time) {
        while let Some(at) = self.core.queue.peek_at(self.core.now) {
            if at > until {
                break;
            }
            self.step();
        }
        self.core.now = self.core.now.max(until);
    }

    /// Time of the next pending event, if any.
    pub fn peek_next(&self) -> Option<Time> {
        self.core.queue.peek_at(self.core.now)
    }

    /// Number of scheduled-but-undispatched data-class packet arrivals.
    ///
    /// Data forwarding is strictly arrival-driven — no protocol re-emits a
    /// data packet from a timer or command it hasn't already received — so
    /// once this returns zero *after* a data injection, every copy of that
    /// packet has fully propagated: no further transmissions, deliveries,
    /// or drops attributable to it can occur. Experiment runners use this
    /// to end probe windows as soon as the wave dies out instead of
    /// simulating the full worst-case horizon.
    pub fn pending_data_arrivals(&self) -> u64 {
        self.core.queue.pending_data
    }

    /// Pops and dispatches one event. Returns `false` if the queue was
    /// empty.
    pub fn step(&mut self) -> bool {
        let Some((at, kind)) = self.core.queue.pop(self.core.now) else {
            return false;
        };
        debug_assert!(at >= self.core.now, "event from the past");
        self.core.now = at;
        self.core.stats.events += 1;
        match kind {
            EventKind::Arrive { node, pkt } => self.dispatch_arrival(node, pkt),
            EventKind::Timer { node, timer, id } => {
                // Fire only the newest instance; stale heap entries are
                // ignored, cancelled ones find no map entry. Speculatively
                // remove (one hash lookup on the overwhelmingly common
                // current-instance path) and re-insert on a stale hit.
                match self.core.timer_ids.remove(&(node, timer.clone())) {
                    Some(stored) if stored == id => {
                        let mut ctx = Ctx {
                            node,
                            core: &mut self.core,
                        };
                        self.proto
                            .on_timer(&mut self.states[node.index()], timer, &mut ctx);
                    }
                    Some(newer) => {
                        // Stale instance popped before the re-armed one:
                        // put the live id back untouched.
                        self.core.timer_ids.insert((node, timer), newer);
                    }
                    None => {} // cancelled
                }
            }
            EventKind::Command { node, cmd } => {
                if self.node_is_down(node) {
                    // A crashed node can't take experiment commands; the
                    // schedule proceeds without it (matching a live
                    // cluster, where the process is simply gone).
                    if self.core.trace.active() {
                        let now = self.core.now;
                        self.core.trace.record(
                            now,
                            node,
                            TraceKind::Note(format!("cmd at down node: {cmd:?}")),
                        );
                    }
                } else {
                    let mut ctx = Ctx {
                        node,
                        core: &mut self.core,
                    };
                    self.proto
                        .on_command(&mut self.states[node.index()], cmd, &mut ctx);
                }
            }
            EventKind::Fault(ev) => self.apply_fault(ev),
        }
        true
    }

    fn dispatch_arrival(&mut self, node: NodeId, pkt: Packet<P::Msg>) {
        if self.node_is_down(node) {
            // The packet was already in flight when the node crashed (or
            // routing still pointed here): it lands on a dead interface.
            self.core.drop_packet(node, &pkt, DropReason::NodeDown);
            return;
        }
        let g = self.core.net.graph();
        if g.is_host(node) && pkt.dst != node {
            self.core
                .drop_packet(node, &pkt, DropReason::MisroutedToHost);
            return;
        }
        if self.core.net.runs_protocol(node) {
            let mut ctx = Ctx {
                node,
                core: &mut self.core,
            };
            self.proto
                .on_packet(&mut self.states[node.index()], pkt, &mut ctx);
        } else if pkt.dst == node {
            self.core
                .drop_packet(node, &pkt, DropReason::AddressedToUnicastRouter);
        } else {
            // Unicast-only router: plain IP forwarding, no protocol.
            self.core.forward(node, pkt);
        }
    }

    // --- accessors ----------------------------------------------------

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.core.now
    }

    /// The network this kernel runs over.
    pub fn network(&self) -> &Network {
        &self.core.net
    }

    /// Accounting: link copies, deliveries, drops, churn.
    pub fn stats(&self) -> &Stats {
        &self.core.stats
    }

    /// Mutable accounting access (e.g. to reset counters between probes).
    pub fn stats_mut(&mut self) -> &mut Stats {
        &mut self.core.stats
    }

    /// A node's protocol state (read).
    pub fn state(&self, node: NodeId) -> &P::NodeState {
        &self.states[node.index()]
    }

    /// A node's protocol state (write; test setup only).
    pub fn state_mut(&mut self, node: NodeId) -> &mut P::NodeState {
        &mut self.states[node.index()]
    }

    /// All node states, indexed by node id.
    pub fn states(&self) -> &[P::NodeState] {
        &self.states
    }

    /// The protocol configuration this kernel was built with.
    pub fn protocol(&self) -> &P {
        &self.proto
    }

    /// Number of live (armed, not superseded, not cancelled) timers across
    /// all nodes. Robustness tests assert this returns to a small steady
    /// value after fault storms — a growing count is a timer leak.
    pub fn pending_timer_count(&self) -> usize {
        self.core.timer_ids.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbh_topo::graph::Graph;

    /// Minimal test protocol: hosts deliver data addressed to them; routers
    /// forward everything; a `Ping` command originates a data packet; a
    /// `Tick` timer re-arms itself once and counts via a state counter.
    struct TestProto;

    #[derive(Default)]
    struct TestState {
        ticks: u32,
        seen: u32,
    }

    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    enum TestTimer {
        Tick,
    }

    #[derive(Clone, Debug)]
    enum TestCmd {
        Ping { to: NodeId, tag: u64 },
        Arm,
    }

    impl Protocol for TestProto {
        type Msg = ();
        type Timer = TestTimer;
        type Command = TestCmd;
        type NodeState = TestState;

        fn on_packet(
            &self,
            state: &mut TestState,
            pkt: Packet<()>,
            ctx: &mut Ctx<'_, (), TestTimer>,
        ) {
            state.seen += 1;
            if pkt.dst == ctx.node {
                ctx.deliver(&pkt);
            } else {
                ctx.forward(pkt);
            }
        }

        fn on_timer(
            &self,
            state: &mut TestState,
            _timer: TestTimer,
            ctx: &mut Ctx<'_, (), TestTimer>,
        ) {
            state.ticks += 1;
            if state.ticks < 2 {
                ctx.set_timer(TestTimer::Tick, 10);
            }
        }

        fn on_command(
            &self,
            _state: &mut TestState,
            cmd: TestCmd,
            ctx: &mut Ctx<'_, (), TestTimer>,
        ) {
            match cmd {
                TestCmd::Ping { to, tag } => {
                    let pkt = Packet::data(ctx.node, to, tag, ctx.now(), ());
                    ctx.send(pkt);
                }
                TestCmd::Arm => ctx.set_timer(TestTimer::Tick, 10),
            }
        }
    }

    /// h1 — a(2/2) — b(3/3) — h2, with a unicast-only router b variant.
    fn line_net(b_capable: bool) -> (Network, NodeId, NodeId, NodeId, NodeId) {
        let mut g = Graph::new();
        let a = g.add_router();
        let b = g.add_router();
        g.add_link(a, b, 2, 2);
        if !b_capable {
            g.set_mcast_capable(b, false);
        }
        let h1 = g.add_host(a, 1, 1);
        let h2 = g.add_host(b, 3, 3);
        (Network::new(g), a, b, h1, h2)
    }

    fn kernel(b_capable: bool) -> (Kernel<TestProto>, NodeId, NodeId, NodeId, NodeId) {
        let (net, a, b, h1, h2) = line_net(b_capable);
        (Kernel::new(net, TestProto, 0), a, b, h1, h2)
    }

    #[test]
    fn packet_delay_is_sum_of_link_costs() {
        let (mut k, _, _, h1, h2) = kernel(true);
        k.command_at(h1, TestCmd::Ping { to: h2, tag: 1 }, Time(5));
        k.run_until(Time(100));
        let d = &k.stats().deliveries;
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].node, h2);
        // h1→a = 1, a→b = 2, b→h2 = 3, injected at t=5 ⇒ arrival t=11.
        assert_eq!(d[0].at, Time(11));
        assert_eq!(d[0].delay(), 6);
    }

    #[test]
    fn transit_counting_per_link() {
        let (mut k, a, b, h1, h2) = kernel(true);
        k.command_at(h1, TestCmd::Ping { to: h2, tag: 9 }, Time::ZERO);
        k.run_until(Time(100));
        assert_eq!(k.stats().data_copies_tagged(9), 3);
        let links = k.stats().data_copies_per_link(9);
        assert_eq!(links[&(h1, a)], 1);
        assert_eq!(links[&(a, b)], 1);
        assert_eq!(links[&(b, h2)], 1);
    }

    #[test]
    fn unicast_only_router_still_forwards() {
        let (mut k, _, _, h1, h2) = kernel(false);
        k.command_at(h1, TestCmd::Ping { to: h2, tag: 1 }, Time::ZERO);
        k.run_until(Time(100));
        assert_eq!(k.stats().deliveries.len(), 1);
        // The protocol never saw the packet at b.
        let (_, b) = (h1, NodeId(1));
        assert_eq!(k.state(b).seen, 0);
    }

    #[test]
    fn packet_addressed_to_unicast_only_router_is_dropped() {
        let (mut k, _, b, h1, _) = kernel(false);
        k.command_at(h1, TestCmd::Ping { to: b, tag: 1 }, Time::ZERO);
        k.run_until(Time(100));
        assert_eq!(k.stats().deliveries.len(), 0);
        assert_eq!(k.stats().drops, 1);
    }

    #[test]
    fn timer_rearm_and_counting() {
        let (mut k, a, ..) = kernel(true);
        k.command_at(a, TestCmd::Arm, Time::ZERO);
        k.run_until(Time(100));
        assert_eq!(k.state(a).ticks, 2); // fired at 10 and 20, then stopped
        assert_eq!(k.now(), Time(100));
    }

    #[test]
    fn rearming_supersedes_previous_instance() {
        // Arm twice quickly: only the newest instance may fire.
        let (mut k, a, ..) = kernel(true);
        k.command_at(a, TestCmd::Arm, Time::ZERO);
        k.command_at(a, TestCmd::Arm, Time(1));
        k.run_until(Time(15));
        // First instance (due t=10) is stale; second fires at t=11.
        assert_eq!(k.state(a).ticks, 1);
    }

    #[test]
    fn run_until_is_exact() {
        let (mut k, a, ..) = kernel(true);
        k.command_at(a, TestCmd::Arm, Time::ZERO);
        k.run_until(Time(9));
        assert_eq!(k.state(a).ticks, 0);
        k.run_until(Time(10));
        assert_eq!(k.state(a).ticks, 1);
    }

    #[test]
    fn determinism_same_seed_same_run() {
        let run = || {
            let (mut k, a, _, h1, h2) = kernel(true);
            k.command_at(h1, TestCmd::Ping { to: h2, tag: 1 }, Time::ZERO);
            k.command_at(a, TestCmd::Arm, Time::ZERO);
            k.command_at(h2, TestCmd::Ping { to: h1, tag: 2 }, Time(3));
            k.run_until(Time(200));
            (
                k.stats().deliveries.clone(),
                k.stats().data_copies_tagged(1),
                k.stats().data_copies_tagged(2),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn misrouted_to_host_is_dropped() {
        // Craft a packet whose dst is unreachable-by-routing from the host:
        // send to a host that is not the dst by targeting a disconnected id.
        // Simpler: h1 pings h1's own router a — fine; instead check NoRoute
        // by pinging a node with no path: build a disconnected net.
        let mut g = Graph::new();
        let a = g.add_router();
        let b = g.add_router(); // no link to a
        let h1 = g.add_host(a, 1, 1);
        let net = Network::new(g);
        let mut k: Kernel<TestProto> = Kernel::new(net, TestProto, 0);
        k.command_at(h1, TestCmd::Ping { to: b, tag: 1 }, Time::ZERO);
        k.run_until(Time(10));
        assert_eq!(k.stats().drops, 1);
    }

    #[test]
    fn loopback_send_to_self_arrives_locally() {
        let (mut k, _, _, h1, _) = kernel(true);
        k.command_at(h1, TestCmd::Ping { to: h1, tag: 4 }, Time::ZERO);
        k.run_until(Time(10));
        assert_eq!(k.stats().deliveries.len(), 1);
        assert_eq!(k.stats().deliveries[0].at, Time(0));
        assert_eq!(
            k.stats().data_copies_tagged(4),
            0,
            "loopback touches no link"
        );
    }

    #[test]
    fn trace_records_sends_and_deliveries() {
        let (mut k, _, _, h1, h2) = kernel(true);
        k.enable_trace();
        k.command_at(h1, TestCmd::Ping { to: h2, tag: 1 }, Time::ZERO);
        k.run_until(Time(100));
        let trace = k.take_trace();
        assert!(trace
            .iter()
            .any(|r| matches!(r.what, TraceKind::Sent { .. })));
        assert!(trace
            .iter()
            .any(|r| matches!(r.what, TraceKind::Delivered { tag: 1 })));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn past_commands_rejected() {
        let (mut k, a, ..) = kernel(true);
        k.run_until(Time(10));
        k.command_at(a, TestCmd::Arm, Time(5));
    }

    // --- fault injection ------------------------------------------------

    /// h1 — a — b — h2 plus a pricier detour a — c — b, so there is a
    /// path around both the a-b link and (for a↔b traffic) node c.
    fn diamond() -> (Kernel<TestProto>, [NodeId; 5]) {
        let mut g = Graph::new();
        let a = g.add_router();
        let b = g.add_router();
        let c = g.add_router();
        g.add_link(a, b, 2, 2);
        g.add_link(a, c, 5, 5);
        g.add_link(c, b, 5, 5);
        let h1 = g.add_host(a, 1, 1);
        let h2 = g.add_host(b, 1, 1);
        (
            Kernel::new(Network::new(g), TestProto, 0),
            [a, b, c, h1, h2],
        )
    }

    #[test]
    fn link_down_reroutes_and_link_up_restores() {
        let (mut k, [a, b, c, h1, h2]) = diamond();
        k.install_faults(
            &crate::fault::FaultPlan::new()
                .link_down(Time(10), a, b)
                .link_up(Time(100), a, b),
        );
        // Before the fault: direct path, delay 1 + 2 + 1 = 4.
        k.command_at(h1, TestCmd::Ping { to: h2, tag: 1 }, Time::ZERO);
        // During the outage: detour via c, delay 1 + 5 + 5 + 1 = 12.
        k.command_at(h1, TestCmd::Ping { to: h2, tag: 2 }, Time(20));
        // After restoration: direct again.
        k.command_at(h1, TestCmd::Ping { to: h2, tag: 3 }, Time(200));
        k.run_until(Time(300));
        let d = &k.stats().deliveries;
        assert_eq!(d.len(), 3);
        assert_eq!(d[0].delay(), 4);
        assert_eq!(d[1].delay(), 12);
        assert_eq!(d[2].delay(), 4);
        let links = k.stats().data_copies_per_link(2);
        assert_eq!(links[&(a, c)], 1, "outage traffic detours through c");
        assert_eq!(links.get(&(a, b)), None);
    }

    #[test]
    fn packet_in_flight_on_cut_link_still_arrives() {
        // The cut happens while a packet is mid-link: it left before the
        // failure and is not retroactively destroyed.
        let (mut k, [a, b, _, h1, h2]) = diamond();
        k.command_at(h1, TestCmd::Ping { to: h2, tag: 1 }, Time::ZERO);
        // h1→a arrives at t=1; a→b transmission departs at t=1, lands t=3.
        k.schedule_fault(Time(2), FaultEvent::LinkDown { a, b });
        k.run_until(Time(50));
        assert_eq!(k.stats().deliveries.len(), 1);
    }

    #[test]
    fn node_crash_wipes_state_and_drops_arrivals() {
        let (mut k, [a, _, _, h1, h2]) = diamond();
        // Seed some state and a pending self-rearming timer at a.
        k.command_at(h1, TestCmd::Ping { to: h2, tag: 1 }, Time::ZERO);
        k.command_at(a, TestCmd::Arm, Time::ZERO);
        k.run_until(Time(11)); // first tick fired, second armed for t=20
        assert_eq!(k.state(a).ticks, 1);
        assert_eq!(k.state(a).seen, 1);
        k.schedule_fault(Time(12), FaultEvent::NodeDown(a));
        // A ping sent while a is down dies at a's dead interface (unicast
        // reroutes around a for transit, but h1 is homed on a).
        k.command_at(h1, TestCmd::Ping { to: h2, tag: 2 }, Time(20));
        k.run_until(Time(50));
        assert!(k.node_is_down(a));
        assert_eq!(k.state(a).ticks, 0, "crash wiped state");
        assert_eq!(k.state(a).seen, 0);
        assert_eq!(
            k.stats().deliveries.len(),
            1,
            "tag 2 died at the crashed access router"
        );
        // Restart: the node is blank but alive again.
        k.schedule_fault(Time(60), FaultEvent::NodeUp(a));
        k.command_at(h1, TestCmd::Ping { to: h2, tag: 3 }, Time(70));
        k.run_until(Time(200));
        assert!(!k.node_is_down(a));
        assert_eq!(k.state(a).ticks, 0, "timers stay cancelled after restart");
        assert_eq!(k.stats().deliveries.len(), 2, "tag 3 delivered");
    }

    #[test]
    fn commands_at_down_nodes_are_ignored() {
        let (mut k, [a, ..]) = diamond();
        k.schedule_fault(Time(5), FaultEvent::NodeDown(a));
        k.command_at(a, TestCmd::Arm, Time(10));
        k.run_until(Time(100));
        assert_eq!(k.state(a).ticks, 0);
    }

    #[test]
    fn per_link_loss_draws_only_on_lossy_edges() {
        // With p = 1.0 on a-b every direct transmission dies; unicast
        // routing is unaware (the link is up), so nothing detours.
        let (mut k, [a, b, _, h1, h2]) = diamond();
        k.install_faults(&crate::fault::FaultPlan::new().with_link_loss(a, b, 1.0));
        k.command_at(h1, TestCmd::Ping { to: h2, tag: 1 }, Time::ZERO);
        k.run_until(Time(100));
        assert_eq!(k.stats().deliveries.len(), 0);
        assert_eq!(k.stats().drops, 1);
        assert_eq!(
            k.stats().data_copies_tagged(1),
            2,
            "h1→a and the lost a→b copy both occupied their links"
        );
    }

    #[test]
    fn empty_plan_changes_nothing() {
        let run = |install: bool| {
            let (mut k, [_, _, _, h1, h2]) = diamond();
            if install {
                k.install_faults(&crate::fault::FaultPlan::new());
            }
            k.command_at(h1, TestCmd::Ping { to: h2, tag: 1 }, Time::ZERO);
            k.run_until(Time(100));
            (
                k.stats().deliveries.clone(),
                k.stats().data_copies_tagged(1),
            )
        };
        assert_eq!(run(false), run(true));
    }

    // --- far-band hierarchical wheel ------------------------------------

    /// Drains `q` from `now`, returning `(at, cmd)` in dispatch order.
    fn drain(q: &mut EventQueue<(), (), u64>, mut now: Time) -> Vec<(Time, u64)> {
        let mut out = Vec::new();
        while let Some((at, kind)) = q.pop(now) {
            now = at;
            match kind {
                EventKind::Command { cmd, .. } => out.push((at, cmd)),
                _ => unreachable!("tests only push commands"),
            }
        }
        out
    }

    fn push_cmd(q: &mut EventQueue<(), (), u64>, now: Time, at: Time, seq: u64) {
        q.push(
            now,
            at,
            seq,
            EventKind::Command {
                node: NodeId(0),
                cmd: seq,
            },
        );
    }

    #[test]
    fn far_wheel_spans_all_levels_in_order() {
        // One deadline per wheel level plus an overflow-range one; pushed
        // shuffled, they must come back in (at, seq) order.
        let mut q: EventQueue<(), (), u64> = EventQueue::with_capacity(0);
        let ats = [
            20_000_000u64,
            70,
            1_500_000_000,
            5_000,
            70_000_000_000, // beyond 64^5: overflow band
            300_000,
            70, // same time, later seq
        ];
        for (seq, &at) in ats.iter().enumerate() {
            push_cmd(&mut q, Time::ZERO, Time(at), seq as u64);
        }
        let mut expect: Vec<(Time, u64)> = ats
            .iter()
            .enumerate()
            .map(|(seq, &at)| (Time(at), seq as u64))
            .collect();
        expect.sort_unstable();
        assert_eq!(drain(&mut q, Time::ZERO), expect);
    }

    #[test]
    fn far_insert_behind_consumed_cursor_stays_ordered() {
        // Regression for the old far-band pathological case: a long sorted
        // backlog, a partially consumed prefix, then inserts due *earlier*
        // than everything still pending. The old single sorted Vec took an
        // O(backlog) memmove per such insert (and the insert landed behind
        // the consumed-prefix cursor's compaction assumptions); the wheel
        // buckets them in O(1) and the bounded 64-tick run keeps any
        // sorted insert small. Order must stay exact throughout.
        let mut q: EventQueue<(), (), u64> = EventQueue::with_capacity(0);
        let mut seq = 0u64;
        // Backlog: 500 far events at t = 10_000 .. 10_500.
        for i in 0..500u64 {
            push_cmd(&mut q, Time::ZERO, Time(10_000 + i), seq);
            seq += 1;
        }
        // Consume 100 of them.
        let mut now = Time::ZERO;
        let mut got = Vec::new();
        for _ in 0..100 {
            let (at, kind) = q.pop(now).unwrap();
            now = at;
            match kind {
                EventKind::Command { cmd, .. } => got.push((at, cmd)),
                _ => unreachable!(),
            }
        }
        assert_eq!(now, Time(10_099));
        // Now insert a burst due before the whole remaining backlog —
        // behind the cursor's position in the old representation.
        for i in 0..200u64 {
            push_cmd(&mut q, now, Time(10_100 + i % 7), seq);
            seq += 1;
        }
        got.extend(drain(&mut q, now));
        let mut expect = Vec::new();
        let mut s = 0u64;
        for i in 0..500u64 {
            expect.push((Time(10_000 + i), s));
            s += 1;
        }
        for i in 0..200u64 {
            expect.push((Time(10_100 + i % 7), s));
            s += 1;
        }
        expect.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn batch_set_timers_matches_per_entry_semantics() {
        // set_timers must behave exactly like N set_timer calls, including
        // the supersede rule when the same key appears twice.
        struct BatchProto;
        #[derive(Default)]
        struct BatchState {
            fired: Vec<(u64, u8)>,
        }
        impl Protocol for BatchProto {
            type Msg = ();
            type Timer = u8;
            type Command = bool; // true → batch API, false → singles
            type NodeState = BatchState;
            fn on_packet(&self, _: &mut BatchState, _: Packet<()>, _: &mut Ctx<'_, (), u8>) {}
            fn on_timer(&self, st: &mut BatchState, t: u8, ctx: &mut Ctx<'_, (), u8>) {
                st.fired.push((ctx.now().0, t));
            }
            fn on_command(&self, _: &mut BatchState, batch: bool, ctx: &mut Ctx<'_, (), u8>) {
                let timers = [(1u8, 100u64), (2, 70), (3, 250), (1, 90), (4, 70)];
                if batch {
                    ctx.set_timers(timers);
                    ctx.cancel_timers([3u8]);
                } else {
                    for (t, d) in timers {
                        ctx.set_timer(t, d);
                    }
                    ctx.cancel_timer(&3u8);
                }
            }
        }
        let run = |batch: bool| {
            let mut g = Graph::new();
            let a = g.add_router();
            let h = g.add_host(a, 1, 1);
            let mut k = Kernel::new(Network::new(g), BatchProto, 0);
            k.command_at(h, batch, Time::ZERO);
            k.run_until(Time(1_000));
            assert_eq!(k.pending_timer_count(), 0);
            std::mem::take(&mut k.state_mut(h).fired)
        };
        let batched = run(true);
        assert_eq!(batched, run(false));
        // Timer 1 superseded (fires once at its re-armed deadline), 3
        // cancelled, 2 and 4 share a deadline in arm order.
        assert_eq!(batched, vec![(70, 2), (70, 4), (90, 1)]);
    }

    mod queue_order_props {
        use super::*;
        use proptest::prelude::*;
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        /// Deadline deltas covering the near band, every far level, and
        /// the overflow band beyond 64^5.
        fn delta() -> impl Strategy<Value = u64> {
            prop_oneof![
                0u64..64,
                64u64..4096,
                4096u64..262_144,
                262_144u64..16_777_216,
                16_777_216u64..1_073_741_824,
                1_073_741_824u64..100_000_000_000,
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]
            /// The two-band queue (near wheel + hierarchical far wheel)
            /// dispatches in exactly the order a reference binary heap
            /// over `(at, seq)` does, under random interleaved push/pop.
            #[test]
            fn wheel_pops_in_reference_heap_order(
                ops in proptest::collection::vec((any::<bool>(), delta()), 1..300),
            ) {
                let mut q: EventQueue<(), (), u64> = EventQueue::with_capacity(0);
                let mut heap: BinaryHeap<Reverse<(Time, u64)>> = BinaryHeap::new();
                let mut now = Time::ZERO;
                let mut seq = 0u64;
                for &(is_pop, d) in &ops {
                    if is_pop {
                        match (q.pop(now), heap.pop()) {
                            (Some((at, EventKind::Command { cmd, .. })), Some(Reverse(want))) => {
                                prop_assert_eq!((at, cmd), want);
                                now = at;
                            }
                            (None, None) => {}
                            _ => prop_assert!(false, "queue and heap disagree"),
                        }
                    } else {
                        let at = Time(now.0 + d);
                        push_cmd(&mut q, now, at, seq);
                        heap.push(Reverse((at, seq)));
                        seq += 1;
                    }
                }
                while let Some((at, kind)) = q.pop(now) {
                    now = at;
                    let cmd = match kind {
                        EventKind::Command { cmd, .. } => cmd,
                        _ => unreachable!(),
                    };
                    let want = heap.pop();
                    prop_assert!(want.is_some(), "queue had more events than heap");
                    prop_assert_eq!(Some(Reverse((at, cmd))), want);
                }
                prop_assert!(heap.is_empty(), "heap had more events than queue");
            }
        }
    }

    #[test]
    fn fault_trace_notes_are_recorded() {
        let (mut k, [a, b, ..]) = diamond();
        k.enable_trace();
        k.schedule_fault(Time(5), FaultEvent::LinkDown { a, b });
        k.run_until(Time(10));
        let trace = k.take_trace();
        assert!(trace
            .iter()
            .any(|r| matches!(&r.what, TraceKind::Note(n) if n.starts_with("fault:"))));
    }
}
