//! `Timed<P>`: a transparent wrapper around any protocol engine that
//! times its three handlers and counts message variants.
//!
//! The wrapper keeps the engine's `Msg`/`Timer`/`Command`/`NodeState`
//! types, so every harness function that accepts `P` accepts `Timed<P>`
//! unchanged, and a traced run must produce the same simulated outcome as
//! an untraced one (the benchmark checks this through `sim_digest`).

use hbh_pim::PimMsg;
use hbh_proto::{HardMsg, HbhMsg};
use hbh_reunite::ReuniteMsg;
use hbh_sim_core::{Ctx, Packet, Protocol};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Names the public variant of a protocol message, for per-variant
/// packet counts. Engines whose variants the benchmark does not break
/// down report no variants.
pub trait Variant {
    /// Variant names, indexed by [`Variant::variant`].
    const VARIANTS: &'static [&'static str];
    /// Index of this message's variant in [`Variant::VARIANTS`].
    fn variant(&self) -> usize;
}

impl Variant for HbhMsg {
    const VARIANTS: &'static [&'static str] = &["join", "tree", "fusion", "data"];
    fn variant(&self) -> usize {
        match self {
            HbhMsg::Join { .. } => 0,
            HbhMsg::Tree { .. } => 1,
            HbhMsg::Fusion { .. } => 2,
            HbhMsg::Data { .. } => 3,
        }
    }
}

impl Variant for HardMsg {
    const VARIANTS: &'static [&'static str] = &["ctl", "ack", "data"];
    fn variant(&self) -> usize {
        match self {
            HardMsg::Ctl { .. } => 0,
            HardMsg::Ack { .. } => 1,
            HardMsg::Data { .. } => 2,
        }
    }
}

impl Variant for ReuniteMsg {
    const VARIANTS: &'static [&'static str] = &[];
    fn variant(&self) -> usize {
        0
    }
}

impl Variant for PimMsg {
    const VARIANTS: &'static [&'static str] = &[];
    fn variant(&self) -> usize {
        0
    }
}

/// What the handlers of an arm cost, summed over its runs.
#[derive(Clone, Debug, Default)]
pub struct HandlerTrace {
    pub packet: Duration,
    pub timer: Duration,
    pub command: Duration,
    pub packets: u64,
    pub timers: u64,
    pub commands: u64,
    /// Packets per message variant (indexed like `Variant::VARIANTS`).
    pub variants: Vec<u64>,
    /// SPF rows the route service computed while a handler was running
    /// (the rest were computed by kernel forwarding).
    pub rows_in_handlers: u64,
}

impl HandlerTrace {
    /// Inclusive handler time: the three handlers plus the kernel calls
    /// they make through `Ctx`.
    pub fn total(&self) -> Duration {
        self.packet + self.timer + self.command
    }
}

/// A protocol engine whose handlers are timed into a shared trace.
pub struct Timed<P> {
    inner: P,
    trace: Rc<RefCell<HandlerTrace>>,
}

impl<P: Protocol> Timed<P>
where
    P::Msg: Variant,
{
    /// Wraps `inner`; its costs add to whatever `trace` already holds.
    pub fn new(inner: P, trace: Rc<RefCell<HandlerTrace>>) -> Self {
        trace
            .borrow_mut()
            .variants
            .resize(P::Msg::VARIANTS.len(), 0);
        Timed { inner, trace }
    }
}

fn rows<M, T>(ctx: &Ctx<'_, M, T>) -> u64 {
    ctx.net().routes().route_stats().computed
}

impl<P: Protocol> Protocol for Timed<P>
where
    P::Msg: Variant,
{
    type Msg = P::Msg;
    type Timer = P::Timer;
    type Command = P::Command;
    type NodeState = P::NodeState;

    fn on_packet(
        &self,
        state: &mut Self::NodeState,
        pkt: Packet<Self::Msg>,
        ctx: &mut Ctx<'_, Self::Msg, Self::Timer>,
    ) {
        let variant = pkt.payload.variant();
        let rows_before = rows(ctx);
        let start = Instant::now();
        self.inner.on_packet(state, pkt, ctx);
        let spent = start.elapsed();
        let mut t = self.trace.borrow_mut();
        t.packet += spent;
        t.packets += 1;
        if let Some(n) = t.variants.get_mut(variant) {
            *n += 1;
        }
        t.rows_in_handlers += rows(ctx) - rows_before;
    }

    fn on_timer(
        &self,
        state: &mut Self::NodeState,
        timer: Self::Timer,
        ctx: &mut Ctx<'_, Self::Msg, Self::Timer>,
    ) {
        let rows_before = rows(ctx);
        let start = Instant::now();
        self.inner.on_timer(state, timer, ctx);
        let spent = start.elapsed();
        let mut t = self.trace.borrow_mut();
        t.timer += spent;
        t.timers += 1;
        t.rows_in_handlers += rows(ctx) - rows_before;
    }

    fn on_command(
        &self,
        state: &mut Self::NodeState,
        cmd: Self::Command,
        ctx: &mut Ctx<'_, Self::Msg, Self::Timer>,
    ) {
        let rows_before = rows(ctx);
        let start = Instant::now();
        self.inner.on_command(state, cmd, ctx);
        let spent = start.elapsed();
        let mut t = self.trace.borrow_mut();
        t.command += spent;
        t.commands += 1;
        t.rows_in_handlers += rows(ctx) - rows_before;
    }
}
