//! The HBH protocol engine: the message-processing rules of Appendix A
//! (Figure 9), with rule numbers cited inline.

use crate::coverage::CoverageSummary;
use crate::messages::{HbhMsg, HbhTimer};
use crate::tables::{HbhMct, HbhMft};
use hbh_proto_base::{Channel, Cmd, Timing};
use hbh_sim_core::{Ctx, Packet, Protocol};
use hbh_sim_core::{FastMap, FastSet};
use hbh_topo::graph::NodeId;

/// The HBH protocol (configuration; per-node state in [`HbhNodeState`]).
#[derive(Clone, Debug)]
pub struct Hbh {
    /// Refresh periods and soft-state timers.
    pub timing: Timing,
    /// Membership aggregation at access routers (the HBH-AGG variant):
    /// joins from directly attached hosts are absorbed into a per-channel
    /// [`CoverageSummary`] and the access router joins the channel once on
    /// their behalf, so upstream per-channel state is O(access routers),
    /// not O(receivers). Off by default — `Hbh::new` behaves exactly as
    /// the paper's protocol.
    pub aggregate: bool,
}

impl Hbh {
    /// An HBH instance with the given (validated) timing.
    pub fn new(timing: Timing) -> Self {
        timing.validate();
        Hbh {
            timing,
            aggregate: false,
        }
    }

    /// An HBH instance with membership aggregation at access routers
    /// (HBH-AGG). Protocol rules are otherwise identical to [`Hbh::new`].
    pub fn aggregated(timing: Timing) -> Self {
        let mut hbh = Hbh::new(timing);
        hbh.aggregate = true;
        hbh
    }
}

/// Per-node HBH state.
#[derive(Default)]
pub struct HbhNodeState {
    mct: FastMap<Channel, HbhMct>,
    mft: FastMap<Channel, HbhMft>,
    /// Receiver-agent subscriptions.
    member: FastSet<Channel>,
    /// Channels whose source tree timer is armed (source node only).
    tree_armed: FastSet<Channel>,
    /// Channels with an armed router sweep.
    sweep_armed: FastSet<Channel>,
    /// Aggregated local receivers per channel (HBH-AGG access routers
    /// only; always empty when aggregation is off).
    local: FastMap<Channel, CoverageSummary>,
}

impl HbhNodeState {
    /// This node's MCT for `ch`, if any.
    pub fn mct(&self, ch: Channel) -> Option<&HbhMct> {
        self.mct.get(&ch)
    }

    /// This node's MFT for `ch`, if any.
    pub fn mft(&self, ch: Channel) -> Option<&HbhMft> {
        self.mft.get(&ch)
    }

    /// Is this node's receiver agent subscribed to `ch`?
    pub fn is_member(&self, ch: Channel) -> bool {
        self.member.contains(&ch)
    }

    /// Is this node currently a branching node for `ch`?
    pub fn is_branching(&self, ch: Channel) -> bool {
        self.mft.contains_key(&ch)
    }

    /// This access router's aggregated local members for `ch`, if any
    /// (HBH-AGG only).
    pub fn local_members(&self, ch: Channel) -> Option<&CoverageSummary> {
        self.local.get(&ch)
    }
}

impl hbh_proto_base::StateInventory for HbhNodeState {
    fn forwarding_entries(&self, ch: Channel) -> usize {
        self.mft.get(&ch).map_or(0, |m| m.len())
    }

    fn control_entries(&self, ch: Channel) -> usize {
        usize::from(self.mct.contains_key(&ch))
    }

    fn state_bytes(&self, ch: Channel) -> usize {
        // The default weights, plus the aggregated local-member summary —
        // HBH-AGG must not hide the state it keeps at access routers.
        24 * self.forwarding_entries(ch)
            + 12 * self.control_entries(ch)
            + self.local.get(&ch).map_or(0, |l| l.state_bytes())
    }
}

type HCtx<'a> = Ctx<'a, HbhMsg, HbhTimer>;

impl Hbh {
    fn arm_sweep(&self, state: &mut HbhNodeState, ch: Channel, ctx: &mut HCtx<'_>) {
        if state.sweep_armed.insert(ch) {
            ctx.set_timer(HbhTimer::Sweep(ch), self.timing.tree_period);
        }
    }

    /// Emits `fusion(S, …)` upstream, listing every live MFT node ("the
    /// fusion messages produced by B contain all the nodes that B
    /// maintains in its MFT").
    ///
    /// The fusion is addressed to `to` — the node that *emitted* the
    /// transiting tree message that triggered it (`pkt.src`). That node is
    /// the one currently responsible for serving the listed targets and
    /// therefore the one whose MFT must mark them and adopt the sender;
    /// addressing the fusion by unicast toward `S` instead would let
    /// asymmetric reverse paths bypass it (Figure 9(b)'s "addressed to B"
    /// check implies the message has a specific upstream addressee).
    fn send_fusion(&self, mft: &HbhMft, ch: Channel, to: NodeId, ctx: &mut HCtx<'_>) {
        if to == ctx.node {
            return; // the trigger was our own emission looping back
        }
        let mut nodes = Vec::with_capacity(mft.len());
        nodes.extend(mft.live(ctx.now()));
        debug_assert!(!nodes.is_empty());
        let pkt = Packet::control(
            ctx.node,
            to,
            HbhMsg::Fusion {
                ch,
                from: ctx.node,
                nodes,
            },
        );
        ctx.send(pkt);
    }

    fn send_tree(&self, ch: Channel, target: NodeId, ctx: &mut HCtx<'_>) {
        let pkt = Packet::control(ctx.node, target, HbhMsg::Tree { ch, target });
        ctx.send(pkt);
    }

    fn send_join(&self, ch: Channel, who: NodeId, initial: bool, ctx: &mut HCtx<'_>) {
        if ch.source == ctx.node {
            return;
        }
        let pkt = Packet::control(ctx.node, ch.source, HbhMsg::Join { ch, who, initial });
        ctx.send(pkt);
    }

    // --- join (Figure 9(a)) --------------------------------------------

    /// Join-time mark repair (spec completion, `DESIGN.md` §5): a marked
    /// entry is only serviceable while some live unmarked fusion sender
    /// claims it in its coverage. If that sender decays — its own tables
    /// lost to control loss, say — the mark would starve the subtree
    /// *forever*, because the very joins that keep the marked entry alive
    /// are intercepted right here and never reach anyone who could help.
    /// The periodic join therefore re-validates the coverage and clears an
    /// orphaned mark, restoring direct service; a later fusion from a
    /// recovered branching node simply re-marks it.
    fn repair_orphaned_mark(&self, mft: &mut HbhMft, who: NodeId, ctx: &mut HCtx<'_>) {
        let now = ctx.now();
        if mft.is_marked(who, now) && !mft.served_by_other(who, now) {
            mft.unmark(who, now);
            ctx.structural_change();
        }
    }

    fn join_at_source(
        &self,
        state: &mut HbhNodeState,
        ch: Channel,
        who: NodeId,
        ctx: &mut HCtx<'_>,
    ) {
        let now = ctx.now();
        let mft = state.mft.entry(ch).or_default();
        self.repair_orphaned_mark(mft, who, ctx);
        if mft.refresh_or_insert(who, now, &self.timing) {
            ctx.structural_change();
        }
        if state.tree_armed.insert(ch) {
            ctx.set_timer(HbhTimer::TreeRefresh(ch), self.timing.tree_period);
        }
    }

    fn join_at_router(
        &self,
        state: &mut HbhNodeState,
        pkt: Packet<HbhMsg>,
        ch: Channel,
        who: NodeId,
        initial: bool,
        ctx: &mut HCtx<'_>,
    ) {
        let now = ctx.now();
        // "The first join issued by a receiver is never intercepted."
        if initial {
            ctx.forward(pkt); // rules (1)/(2) collapse to forwarding
            return;
        }
        match state.mft.get_mut(&ch) {
            // Rule (3): R ∈ MFT ⇒ intercept, refresh, join upstream
            // ourselves ("a branching router joins the group itself at
            // the next upstream branching router").
            Some(mft) if mft.contains(who, now) => {
                self.repair_orphaned_mark(mft, who, ctx);
                mft.refresh_or_insert(who, now, &self.timing);
                self.send_join(ch, ctx.node, false, ctx);
            }
            // Rules (1)/(2): no MFT, or R not in it ⇒ forward unchanged.
            _ => ctx.forward(pkt),
        }
    }

    // --- membership aggregation (HBH-AGG) ------------------------------

    /// Absorbs a join from a directly attached host into the per-channel
    /// local-member summary. The access router is the channel's receiver
    /// of record: the *first* local member triggers the router's own
    /// (never-intercepted) initial join, which builds the upstream tree
    /// once; every later local join — initial or refresh — only touches
    /// the local summary. Per-period refreshes upstream are coalesced into
    /// a single join by the [`HbhTimer::AggFlush`] tick.
    fn join_at_access(
        &self,
        state: &mut HbhNodeState,
        ch: Channel,
        who: NodeId,
        ctx: &mut HCtx<'_>,
    ) {
        let now = ctx.now();
        let local = state.local.entry(ch).or_default();
        let first = local.is_empty();
        if local.refresh(who, now) {
            ctx.structural_change();
        }
        if first {
            self.send_join(ch, ctx.node, true, ctx);
            ctx.set_timer(HbhTimer::AggFlush(ch), self.timing.join_period);
        }
    }

    /// Fans a data packet addressed to this access router out to every
    /// live aggregated local member (on top of the normal MFT fan-out).
    fn deliver_local(
        &self,
        state: &HbhNodeState,
        pkt: &Packet<HbhMsg>,
        ch: Channel,
        ctx: &mut HCtx<'_>,
    ) {
        let now = ctx.now();
        let Some(local) = state.local.get(&ch) else {
            return;
        };
        for h in local.live(now, self.timing.t2) {
            ctx.send(pkt.copy_to(h));
        }
    }

    /// Periodic aggregation tick: decay the local summary, then refresh
    /// the upstream join on behalf of all surviving members with one
    /// message. When the last member has expired the channel's local
    /// state is dropped and the upstream entry decays on its own.
    fn agg_flush(&self, state: &mut HbhNodeState, ch: Channel, ctx: &mut HCtx<'_>) {
        let now = ctx.now();
        let Some(local) = state.local.get_mut(&ch) else {
            return;
        };
        if local.reap(now, self.timing.t2) > 0 {
            ctx.structural_change();
        }
        if local.is_empty() {
            state.local.remove(&ch);
        } else {
            self.send_join(ch, ctx.node, false, ctx);
            ctx.set_timer(HbhTimer::AggFlush(ch), self.timing.join_period);
        }
    }

    // --- tree (Figure 9(c)) --------------------------------------------

    fn tree_self_addressed(&self, state: &mut HbhNodeState, ch: Channel, ctx: &mut HCtx<'_>) {
        // Rule (1): a branching node discards the tree message addressed
        // to itself and fans a tree message out to each (tree-eligible)
        // MFT node.
        let now = ctx.now();
        let Some(mft) = state.mft.get(&ch) else {
            return; // table decayed; nothing to refresh
        };
        for t in mft.tree_targets(now) {
            self.send_tree(ch, t, ctx);
        }
    }

    fn tree_in_transit(
        &self,
        state: &mut HbhNodeState,
        pkt: Packet<HbhMsg>,
        ch: Channel,
        target: NodeId,
        ctx: &mut HCtx<'_>,
    ) {
        let now = ctx.now();
        let emitter = pkt.src;
        if let Some(mft) = state.mft.get_mut(&ch) {
            // Rules (2)/(3): a branching node seeing a transit tree for a
            // new/known target adopts/refreshes it and tells the tree's
            // emitter (via fusion) that it is the branching point for
            // these nodes.
            if mft.refresh_or_insert(target, now, &self.timing) {
                ctx.structural_change(); // rule (2): new node adopted
            }
            let mft = state.mft.get(&ch).expect("just touched");
            self.send_fusion(mft, ch, emitter, ctx);
            ctx.forward(pkt);
            return;
        }
        match state.mct.get_mut(&ch) {
            // Rule (4): first contact with this channel ⇒ create the MCT.
            None => {
                state.mct.insert(ch, HbhMct::new(target, now, &self.timing));
                ctx.structural_change();
                self.arm_sweep(state, ch, ctx);
            }
            Some(mct) => {
                if mct.is_dead(now) || mct.node() == target {
                    if mct.is_dead(now) {
                        // Equivalent of rule (7) once t2 ran out.
                        mct.replace(target, now, &self.timing);
                        ctx.structural_change();
                    } else {
                        // Rules (5)/(6): same node ⇒ plain refresh.
                        mct.refresh(now, &self.timing);
                    }
                } else if mct.is_stale(now) {
                    // Rule (7): a stale MCT is overwritten, not promoted.
                    mct.replace(target, now, &self.timing);
                    ctx.structural_change();
                } else {
                    // Rule (8): two live targets flow through this router ⇒
                    // become a branching node and announce it upstream.
                    let first = mct.node();
                    state.mct.remove(&ch);
                    let mut mft = HbhMft::default();
                    mft.refresh_or_insert(first, now, &self.timing);
                    mft.refresh_or_insert(target, now, &self.timing);
                    state.mft.insert(ch, mft);
                    ctx.structural_change();
                    self.arm_sweep(state, ch, ctx);
                    let mft = state.mft.get(&ch).expect("just inserted");
                    self.send_fusion(mft, ch, emitter, ctx);
                }
            }
        }
        ctx.forward(pkt);
    }

    // --- fusion (Figure 9(b)) ------------------------------------------

    /// Handles a fusion addressed to this node (rule (1)'s transit
    /// forwarding happens in `on_packet`, which gets to move the packet
    /// on unchanged without cloning its node list).
    fn fusion_at_node(
        &self,
        state: &mut HbhNodeState,
        ch: Channel,
        bp: NodeId,
        nodes: &[NodeId],
        ctx: &mut HCtx<'_>,
    ) {
        let now = ctx.now();
        // Rule (2)–(4): we emitted the tree messages that triggered this
        // fusion, so the listed nodes should be our entries.
        let Some(mft) = state.mft.get_mut(&ch) else {
            return; // table decayed while the fusion was in flight
        };
        if mft.intersect(nodes, now).next().is_none() {
            return; // stale fusion that outlived the entries it names
        }
        // Nested-fusion disambiguation (see tables.rs module docs): a
        // fusion whose claim is contained in an already-installed sender's
        // coverage is ignored — its subtree is served through that broader
        // branching node.
        if mft.covered_by_other(nodes, bp, now) {
            return; // consumed, deliberately without effect
        }
        // Rule (2): mark the listed entries — they will keep receiving
        // tree messages but no data. `mark` skips absent and dead nodes.
        for &n in nodes {
            if mft.mark(n, now) {
                ctx.structural_change();
            }
        }
        // Accepting the claim makes `bp` the data server for the listed
        // nodes, so its own entry must be data-eligible — unless some
        // data-reachable sender claims `bp` itself (coverage chains nest,
        // so the claimant may in turn be marked-but-served), in which case
        // data reaches `bp` transitively and the mark stands. Without
        // this, a sender that was marked while its state decayed (control
        // loss) re-marks its
        // targets every refresh period yet never receives data: permanent
        // starvation of the whole subtree.
        self.repair_orphaned_mark(mft, bp, ctx);
        // Rules (3)/(4): install Bp stale (data-only), or refresh its t2
        // keeping t1 expired; subsume narrower senders.
        if mft.install_fusion_sender(bp, nodes, now, &self.timing) {
            ctx.structural_change();
        }
    }

    // --- data -----------------------------------------------------------

    fn data_self_addressed(
        &self,
        state: &mut HbhNodeState,
        pkt: &Packet<HbhMsg>,
        ch: Channel,
        ctx: &mut HCtx<'_>,
    ) {
        // A branching node receives data addressed to itself and produces
        // one modified copy per data-eligible MFT node (§3: "each data
        // packet received by a branching node produces n+1 modified packet
        // copies" — n downstream copies here, the +1 being the upstream
        // packet that was addressed to us).
        let now = ctx.now();
        let Some(mft) = state.mft.get(&ch) else {
            return; // decayed table: the upstream sender will soon notice
        };
        for t in mft.data_targets(now) {
            ctx.send(pkt.copy_to(t));
        }
    }

    // --- source ----------------------------------------------------------

    fn source_tree_tick(&self, state: &mut HbhNodeState, ch: Channel, ctx: &mut HCtx<'_>) {
        let now = ctx.now();
        let Some(mft) = state.mft.get_mut(&ch) else {
            state.tree_armed.remove(&ch);
            return;
        };
        if mft.reap(now) > 0 {
            ctx.structural_change();
        }
        if mft.is_empty() {
            state.mft.remove(&ch);
            state.tree_armed.remove(&ch);
            ctx.structural_change();
            return;
        }
        for t in mft.tree_targets(now) {
            self.send_tree(ch, t, ctx);
        }
        ctx.set_timer(HbhTimer::TreeRefresh(ch), self.timing.tree_period);
    }

    fn source_send_data(
        &self,
        state: &mut HbhNodeState,
        ch: Channel,
        tag: u64,
        ctx: &mut HCtx<'_>,
    ) {
        let now = ctx.now();
        let Some(mft) = state.mft.get(&ch) else {
            return; // no receivers
        };
        for t in mft.data_targets(now) {
            let pkt = Packet::data(ctx.node, t, tag, now, HbhMsg::Data { ch });
            ctx.send(pkt);
        }
    }
}

impl Protocol for Hbh {
    type Msg = HbhMsg;
    type Timer = HbhTimer;
    type Command = Cmd;
    type NodeState = HbhNodeState;

    fn on_packet(&self, state: &mut HbhNodeState, pkt: Packet<HbhMsg>, ctx: &mut HCtx<'_>) {
        let here = ctx.node;
        let is_host = ctx.net().graph().is_host(here);
        // Match by reference and copy out the small fields: cloning the
        // payload here would heap-copy every transiting fusion's node
        // list just to forward the packet unchanged.
        match &pkt.payload {
            HbhMsg::Join { ch, who, initial } => {
                let (ch, who, initial) = (*ch, *who, *initial);
                if pkt.dst == here {
                    debug_assert_eq!(here, ch.source, "joins are addressed to the source");
                    self.join_at_source(state, ch, who, ctx);
                } else if self.aggregate
                    && !is_host
                    && who != ch.source
                    && ctx.net().graph().is_host(who)
                    && ctx.net().graph().host_router(who) == here
                {
                    // HBH-AGG: a join from one of our own hosts is
                    // absorbed here, at its first hop.
                    self.join_at_access(state, ch, who, ctx);
                } else {
                    self.join_at_router(state, pkt, ch, who, initial, ctx);
                }
            }
            HbhMsg::Tree { ch, target } => {
                let (ch, target) = (*ch, *target);
                debug_assert_eq!(
                    pkt.dst, target,
                    "tree messages are addressed to their target"
                );
                if pkt.dst == here {
                    if is_host {
                        // Receiver end: consume (liveness indication only).
                    } else {
                        self.tree_self_addressed(state, ch, ctx);
                    }
                } else {
                    self.tree_in_transit(state, pkt, ch, target, ctx);
                }
            }
            HbhMsg::Fusion { .. } => {
                if pkt.dst != here {
                    // Rule (1): not addressed to us ⇒ forward upstream.
                    ctx.forward(pkt);
                } else {
                    let HbhMsg::Fusion { ch, from, nodes } = pkt.payload else {
                        unreachable!("arm matched above")
                    };
                    self.fusion_at_node(state, ch, from, &nodes, ctx);
                }
            }
            HbhMsg::Data { ch } => {
                let ch = *ch;
                if pkt.dst == here {
                    if is_host {
                        if state.member.contains(&ch) {
                            ctx.deliver(&pkt);
                        }
                    } else {
                        self.data_self_addressed(state, &pkt, ch, ctx);
                        if self.aggregate {
                            self.deliver_local(state, &pkt, ch, ctx);
                        }
                    }
                } else {
                    ctx.forward(pkt);
                }
            }
        }
    }

    fn on_timer(&self, state: &mut HbhNodeState, timer: HbhTimer, ctx: &mut HCtx<'_>) {
        match timer {
            HbhTimer::JoinRefresh(ch) => {
                if state.member.contains(&ch) {
                    self.send_join(ch, ctx.node, false, ctx);
                    ctx.set_timer(HbhTimer::JoinRefresh(ch), self.timing.join_period);
                }
            }
            HbhTimer::TreeRefresh(ch) => self.source_tree_tick(state, ch, ctx),
            HbhTimer::AggFlush(ch) => self.agg_flush(state, ch, ctx),
            HbhTimer::Sweep(ch) => {
                let now = ctx.now();
                let mut reaped = 0;
                let mut keep = false;
                if let Some(mct) = state.mct.get(&ch) {
                    if mct.is_dead(now) {
                        state.mct.remove(&ch);
                        reaped += 1;
                    } else {
                        keep = true;
                    }
                }
                if let Some(mft) = state.mft.get_mut(&ch) {
                    reaped += mft.reap(now);
                    if mft.is_empty() {
                        state.mft.remove(&ch);
                        reaped += 1;
                    } else {
                        keep = true;
                    }
                }
                if reaped > 0 {
                    ctx.structural_change();
                }
                if keep {
                    ctx.set_timer(HbhTimer::Sweep(ch), self.timing.tree_period);
                } else {
                    state.sweep_armed.remove(&ch);
                }
            }
        }
    }

    fn on_command(&self, state: &mut HbhNodeState, cmd: Cmd, ctx: &mut HCtx<'_>) {
        match cmd {
            Cmd::StartSource(_) => {
                // HBH sources are armed lazily by the first join.
            }
            Cmd::Join(ch) => {
                if state.member.insert(ch) {
                    // First join: flagged, never intercepted.
                    self.send_join(ch, ctx.node, true, ctx);
                    ctx.set_timer(HbhTimer::JoinRefresh(ch), self.timing.join_period);
                }
            }
            Cmd::Leave(ch) => {
                if state.member.remove(&ch) {
                    ctx.cancel_timer(&HbhTimer::JoinRefresh(ch));
                }
            }
            Cmd::SendData { ch, tag } => {
                assert_eq!(ctx.node, ch.source, "SendData must run at the source");
                self.source_send_data(state, ch, tag, ctx);
            }
        }
    }
}
