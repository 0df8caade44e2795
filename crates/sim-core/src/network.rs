//! The static network a simulation runs over: topology + unicast routing.
//!
//! Mirrors the paper's setup: costs are drawn, NS computes static unicast
//! routes, and the multicast protocols then run on top of that fixed
//! unicast substrate. (Unicast route *dynamics* are out of scope here as
//! they are in the paper.)
//!
//! Routes come from one store, [`OnDemandRoutes`]: forward SPF rows over
//! the router core, computed on first consultation and then read without
//! a lock. [`Network::new`] has room for every core row;
//! [`Network::on_demand`] caps the resident rows, and lookups past the cap
//! recompute instead. Each row entry carries the first out-edge, so the
//! per-packet step ([`Network::hop`]) needs no adjacency scan.

use hbh_routing::{OnDemandRoutes, RouteProvider};
use hbh_topo::graph::{Cost, EdgeId, Graph, NodeId, PathCost};
use std::sync::Arc;

/// Immutable topology + routing bundle shared by a simulation run.
///
/// Internally reference-counted: [`Network::clone`] is an `Arc` bump, so
/// the paired-run experiment design — four protocol kernels over one
/// scenario draw — shares a single graph and a single set of SPF rows,
/// which stay warm across the paired kernels.
#[derive(Clone, Debug)]
pub struct Network {
    inner: Arc<NetworkInner>,
}

#[derive(Debug)]
struct NetworkInner {
    /// `Arc` so fault reroutes derive a post-failure [`Network`] without
    /// deep-copying the topology.
    graph: Arc<Graph>,
    routes: OnDemandRoutes,
}

impl Network {
    /// Freezes the graph with its unicast routes, with room for every
    /// core SPF row.
    pub fn new(graph: Graph) -> Self {
        let rows = graph.node_count().max(1);
        Self::on_demand(graph, rows)
    }

    /// Freezes the graph with at most `cache_rows` SPF rows resident (see
    /// [`OnDemandRoutes`]). Routes answered are identical to
    /// [`Network::new`]; only memory and per-lookup cost differ.
    pub fn on_demand(graph: Graph, cache_rows: usize) -> Self {
        let routes = OnDemandRoutes::new(&graph, cache_rows);
        Self::freeze(Arc::new(graph), routes)
    }

    /// Freezes `graph` with routes computed over `routing`, a copy of it
    /// with other link costs (e.g. the bandwidth shadow of
    /// `hbh-routing::qos`). Packets follow `routing`'s shortest paths but
    /// are charged `graph`'s link costs.
    ///
    /// # Panics
    /// Panics unless both graphs have the same nodes and edge ids.
    pub fn routed_over(graph: Graph, routing: &Graph) -> Self {
        assert_eq!(
            graph.node_count(),
            routing.node_count(),
            "routing graph has other nodes"
        );
        assert_eq!(
            graph.edge_ends_all(),
            routing.edge_ends_all(),
            "routing graph has other edge ids"
        );
        let routes = OnDemandRoutes::new(routing, graph.node_count().max(1));
        Self::freeze(Arc::new(graph), routes)
    }

    fn freeze(graph: Arc<Graph>, routes: OnDemandRoutes) -> Self {
        Network {
            inner: Arc::new(NetworkInner { graph, routes }),
        }
    }

    /// The topology.
    pub fn graph(&self) -> &Graph {
        &self.inner.graph
    }

    /// The unicast routing service.
    pub fn routes(&self) -> &dyn RouteProvider {
        &self.inner.routes
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.inner.graph.node_count()
    }

    /// Next hop of a packet at `at` destined to `dst`.
    pub fn next_hop(&self, at: NodeId, dst: NodeId) -> Option<NodeId> {
        self.inner.routes.next_hop(at, dst)
    }

    /// Resolved forwarding step at `at` toward `dst`: the next hop plus
    /// the out-edge's id and cost, all read through the row's first
    /// out-edge.
    pub fn hop(&self, at: NodeId, dst: NodeId) -> Option<(NodeId, EdgeId, Cost)> {
        let e = self.inner.routes.first_edge(at, dst)?;
        let g = &self.inner.graph;
        Some((g.edge_ends(e).to, e, g.edge_cost(e)))
    }

    /// Unicast distance (= minimal delay) `from → to`.
    pub fn dist(&self, from: NodeId, to: NodeId) -> Option<PathCost> {
        self.inner.routes.dist(from, to)
    }

    /// Derives the post-failure network: same topology, routes answered
    /// over the surviving elements (nodes/edges flagged in the masks are
    /// absent). This models instantaneous unicast reconvergence after a
    /// failure — the substrate the multicast protocols repair on top of.
    /// Rows the fault cannot have changed are shared with `self` (see
    /// [`OnDemandRoutes::rerouted`]).
    pub fn rerouted(&self, node_down: &[bool], edge_down: &[bool]) -> Network {
        let routes = self
            .inner
            .routes
            .rerouted(node_down.to_vec(), edge_down.to_vec());
        Self::freeze(Arc::clone(&self.inner.graph), routes)
    }

    /// Directed link cost, panicking on a nonexistent link (kernel-internal
    /// transits always follow real links).
    pub fn link_cost(&self, from: NodeId, to: NodeId) -> Cost {
        self.inner
            .graph
            .cost(from, to)
            .unwrap_or_else(|| panic!("no link {from}->{to}"))
    }

    /// Whether `n` participates in the multicast protocol (multicast-capable
    /// router, or any host — hosts run the source/receiver agents).
    pub fn runs_protocol(&self, n: NodeId) -> bool {
        self.inner.graph.is_host(n) || self.inner.graph.is_mcast_capable(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbh_routing::RoutingTables;

    fn net() -> (Network, NodeId, NodeId, NodeId) {
        let mut g = Graph::new();
        let a = g.add_router();
        let b = g.add_router();
        g.add_link(a, b, 2, 3);
        let h = g.add_host(a, 1, 1);
        (Network::new(g), a, b, h)
    }

    #[test]
    fn routing_is_frozen_at_construction() {
        let (net, a, b, _) = net();
        assert_eq!(net.dist(a, b), Some(2));
        assert_eq!(net.dist(b, a), Some(3));
        assert_eq!(net.next_hop(a, b), Some(b));
    }

    #[test]
    fn link_cost_lookup() {
        let (net, a, b, _) = net();
        assert_eq!(net.link_cost(a, b), 2);
        assert_eq!(net.link_cost(b, a), 3);
    }

    #[test]
    #[should_panic(expected = "no link")]
    fn missing_link_panics() {
        let (net, a, _, h) = net();
        let _ = (a, net.link_cost(h, NodeId(1)));
    }

    #[test]
    fn clone_shares_routing_state() {
        let (net, ..) = net();
        let cloned = net.clone();
        assert!(
            Arc::ptr_eq(&net.inner, &cloned.inner),
            "clone must not deep-copy"
        );
    }

    #[test]
    fn hosts_and_capable_routers_run_protocol() {
        let mut g = Graph::new();
        let a = g.add_router();
        let b = g.add_router();
        g.add_link(a, b, 1, 1);
        g.set_mcast_capable(b, false);
        let h = g.add_host(a, 1, 1);
        let net = Network::new(g);
        assert!(net.runs_protocol(a));
        assert!(!net.runs_protocol(b), "unicast-only router");
        assert!(net.runs_protocol(h), "hosts run agents");
    }

    fn diamond() -> Graph {
        let mut g = Graph::new();
        let s = g.add_router();
        let a = g.add_router();
        let b = g.add_router();
        let t = g.add_router();
        g.add_link(s, a, 1, 1);
        g.add_link(a, t, 1, 1);
        g.add_link(s, b, 2, 2);
        g.add_link(b, t, 2, 2);
        g
    }

    /// Every answer of `net` equals the all-pairs reference, and every
    /// resolved hop follows a real link at its real cost.
    fn assert_matches(net: &Network, g: &Graph, reference: &RoutingTables) {
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(reference.dist(u, v), net.dist(u, v), "dist {u}->{v}");
                let hop = reference.next_hop(u, v);
                assert_eq!(hop, net.next_hop(u, v), "hop {u}->{v}");
                let resolved = hop.map(|h| {
                    let (eid, cost) = g.edge_entry(u, h).unwrap();
                    (h, eid, cost)
                });
                assert_eq!(resolved, net.hop(u, v), "resolved hop {u}->{v}");
            }
        }
    }

    #[test]
    fn on_demand_network_answers_like_eager() {
        let g = diamond();
        let reference = RoutingTables::compute(&g);
        let full = Network::new(g.clone());
        let capped = Network::on_demand(g.clone(), 1);
        assert_matches(&full, &g, &reference);
        assert_matches(&capped, &g, &reference);
        let (full, capped) = (full.routes().route_stats(), capped.routes().route_stats());
        assert_eq!(full.cached_rows, g.node_count(), "room for every row");
        assert_eq!(capped.cached_rows, 1, "capacity caps resident rows");
        assert!(capped.computed > full.computed);
    }

    #[test]
    fn rerouted_matches_fresh_masked_network_in_both_modes() {
        let g = diamond();
        let victim = NodeId(1); // the cheap transit router
        let mut node_down = vec![false; g.node_count()];
        node_down[victim.index()] = true;
        let edge_down = vec![false; g.directed_edge_count()];
        let reference = RoutingTables::compute_avoiding(&g, &node_down, &edge_down);
        for base in [Network::new(g.clone()), Network::on_demand(g.clone(), 1)] {
            let re = base.rerouted(&node_down, &edge_down);
            assert_matches(&re, &g, &reference);
            assert!(
                std::ptr::eq(base.graph(), re.graph()),
                "reroute must share the graph, not clone it"
            );
        }
    }

    #[test]
    fn routed_over_follows_the_routing_graph_and_charges_real_costs() {
        let g = diamond();
        let mut routing = g.clone();
        routing.set_cost(NodeId(0), NodeId(1), 9); // s→a now looks dear
        let net = Network::routed_over(g.clone(), &routing);
        let (s, b, t) = (NodeId(0), NodeId(2), NodeId(3));
        assert_eq!(net.next_hop(s, t), Some(b), "detour via b");
        let (eid, cost) = g.edge_entry(s, b).unwrap();
        assert_eq!(net.hop(s, t), Some((b, eid, cost)));
        assert_eq!(net.dist(s, t), Some(4), "routing-graph distance");
    }

    /// `Network` is shared across threads by the parallel figure runners.
    const _: fn() = || {
        fn send_sync<T: Send + Sync>() {}
        send_sync::<Network>();
    };

    #[test]
    fn racing_lookups_on_a_cold_row_compute_it_once() {
        let g = diamond();
        let reference = RoutingTables::compute(&g);
        let net = Network::new(g);
        let (s, t) = (NodeId(0), NodeId(3));
        let before = net.routes().route_stats().computed;
        let barrier = std::sync::Barrier::new(2);
        let answers: Vec<_> = std::thread::scope(|scope| {
            let lookups: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        (net.hop(s, t), net.dist(s, t))
                    })
                })
                .collect();
            lookups.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(answers[0], answers[1]);
        assert_eq!(answers[0].1, reference.dist(s, t));
        assert_eq!(net.routes().route_stats().computed, before + 1);
    }
}
