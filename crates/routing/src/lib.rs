#![warn(missing_docs)]

//! # hbh-routing — the unicast routing substrate
//!
//! Every protocol in the HBH paper (HBH itself, REUNITE, PIM-SM, PIM-SS)
//! rides on top of ordinary unicast routing: control messages are unicast
//! hop-by-hop, and the recursive-unicast data plane forwards by unicast
//! destination address. This crate serves that unicast routing layer as
//! NS-2's static routing does for the paper's simulations: fixed per cost
//! draw, shortest paths over the directed costs:
//!
//! * [`dijkstra`] — single-source shortest paths over the *directed* link
//!   costs (hosts never transit);
//! * [`provider`] — the [`provider::RouteProvider`] trait and its one
//!   implementation, [`provider::OnDemandRoutes`]: forward SPF rows over
//!   the router core, computed on first lookup and then read without a
//!   lock. Every simulated network routes through it;
//! * [`tables::RoutingTables`] — all-pairs distances and next hops, the
//!   O(n²) reference that tests, analyses and QoS admission compare
//!   against;
//! * [`paths`] — path extraction and shortest-path-tree construction
//!   (forward SPT and reverse SPT — the two tree shapes whose difference
//!   under asymmetric costs is the whole point of the paper);
//! * [`asymmetry`] — measurements of how asymmetric the routing actually is
//!   (the Paxson-style "fraction of asymmetric routes" statistic).
//!
//! Ties between equal-cost paths are broken deterministically (smallest
//! node id wins), so a given topology + cost assignment always yields one
//! reproducible routing.

pub mod asymmetry;
pub mod dijkstra;
pub mod paths;
pub mod provider;
pub mod qos;
pub mod reference;
mod stubs;
pub mod tables;

#[cfg(test)]
mod proptests;

pub use dijkstra::ShortestPaths;
pub use provider::{OnDemandRoutes, RouteProvider, RouteStats};
pub use tables::RoutingTables;
