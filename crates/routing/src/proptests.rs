//! Property-based tests for the routing substrate: metric laws that must
//! hold on arbitrary connected graphs with arbitrary directed costs.

use crate::provider::{OnDemandRoutes, RouteProvider};
use crate::reference::floyd_warshall;
use crate::tables::RoutingTables;
use hbh_topo::graph::{Graph, NodeId, PathCost};
use hbh_topo::hier::{self, TierSpec};
use hbh_topo::{costs, random, scenarios, Csr};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;

/// A connected random router graph with single-homed hosts: the one host
/// per router that `gnp_with_avg_degree` attaches, plus up to `n` more on
/// random routers, so some access routers carry several stubs. Every
/// link, access links included, gets independent per-direction costs.
fn arb_graph(seed: u64, n: usize, degree_scale: u8) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let degree = 2.0 + f64::from(degree_scale % 4);
    let mut g = random::gnp_with_avg_degree(n, degree.min((n - 1) as f64), &mut rng);
    let routers: Vec<NodeId> = g.routers().collect();
    for _ in 0..rng.random_range(0..=n) {
        g.add_host(routers[rng.random_range(0..routers.len())], 1, 1);
    }
    costs::assign_paper_costs(&mut g, &mut rng);
    g
}

/// Fault masks with three victims: a host, the access router of a second
/// host, and one direction of a third host's access link.
fn stub_victims(g: &Graph, seed: u64) -> (Vec<bool>, Vec<bool>) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5757);
    let hosts: Vec<NodeId> = g.hosts().collect();
    let mut pick = || hosts[rng.random_range(0..hosts.len())];
    let (h, h2, h3) = (pick(), pick(), pick());
    let mut node_down = vec![false; g.node_count()];
    let mut edge_down = vec![false; g.directed_edge_count()];
    node_down[h.index()] = true;
    node_down[g.neighbors(h2)[0].to.index()] = true;
    let a = g.neighbors(h3)[0].to;
    let (from, to) = if seed % 2 == 0 { (h3, a) } else { (a, h3) };
    edge_down[g.edge_entry(from, to).unwrap().0.index()] = true;
    (node_down, edge_down)
}

/// Every `(dist, next_hop)` answer of `lazy` equals `eager`'s, and the
/// resident rows never exceed `capacity`.
fn assert_same_routes(g: &Graph, eager: &RoutingTables, lazy: &OnDemandRoutes, capacity: usize) {
    for u in g.nodes() {
        for v in g.nodes() {
            assert_eq!(eager.dist(u, v), lazy.dist(u, v), "dist {u}->{v}");
            assert_eq!(
                eager.next_hop(u, v),
                RouteProvider::next_hop(lazy, u, v),
                "hop {u}->{v}"
            );
        }
    }
    assert!(lazy.route_stats().cached_rows <= capacity);
}

/// Random masks failing each node and each directed edge with
/// probability `p`.
fn random_masks(g: &Graph, p: f64, rng: &mut StdRng) -> (Vec<bool>, Vec<bool>) {
    let node_down = (0..g.node_count()).map(|_| rng.random_bool(p)).collect();
    let edge_down = (0..g.directed_edge_count())
        .map(|_| rng.random_bool(p))
        .collect();
    (node_down, edge_down)
}

/// The masked on-demand provider answers every pair exactly like the
/// masked eager tables, on the hierarchy the scale sweeps use (hosts on
/// the access tier) and on the paper's walk-through scenarios (whose
/// Figure 2 receivers are dual-homed core hosts).
#[test]
fn on_demand_equals_eager_on_hierarchies_and_scenarios_under_random_masks() {
    let spec = TierSpec {
        ases: 3,
        pops_per_as: 2,
        access_per_pop: 2,
    };
    for seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut topo = hier::hierarchical(&spec, &mut rng);
        hier::attach_hosts(&mut topo, 20, &mut rng);
        let mut g = topo.graph;
        costs::assign_paper_costs(&mut g, &mut rng);
        let graphs = [g, scenarios::fig1(), scenarios::fig2(), scenarios::fig3()];
        for g in &graphs {
            let (node_down, edge_down) = random_masks(g, 0.1, &mut rng);
            let eager = RoutingTables::compute_avoiding(g, &node_down, &edge_down);
            let csr = Arc::new(Csr::from_graph(g));
            let lazy = OnDemandRoutes::with_masks(csr, node_down, edge_down, 4);
            assert_same_routes(g, &eager, &lazy, 4);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// Dijkstra-based tables agree with the Floyd–Warshall reference on
    /// every pair.
    #[test]
    fn tables_match_reference(seed in 0u64..100_000, n in 4usize..16, d in 0u8..8) {
        let g = arb_graph(seed, n, d);
        let t = RoutingTables::compute(&g);
        let fw = floyd_warshall(&g);
        for u in g.nodes() {
            for v in g.nodes() {
                prop_assert_eq!(t.dist(u, v), fw[u.index()][v.index()]);
            }
        }
    }

    /// Distances obey the (directed) triangle inequality.
    #[test]
    fn triangle_inequality(seed in 0u64..100_000, n in 4usize..14, d in 0u8..8) {
        let g = arb_graph(seed, n, d);
        let t = RoutingTables::compute(&g);
        let routers: Vec<_> = g.routers().collect();
        for &a in &routers {
            for &b in &routers {
                for &c in &routers {
                    if let (Some(ab), Some(bc), Some(ac)) =
                        (t.dist(a, b), t.dist(b, c), t.dist(a, c))
                    {
                        prop_assert!(ac <= ab + bc,
                            "d({a},{c}) = {ac} > {ab} + {bc} via {b}");
                    }
                }
            }
        }
    }

    /// Walking next-hops reproduces exactly the advertised distance, and
    /// every step makes strict progress (no loops).
    #[test]
    fn next_hops_realize_distances(seed in 0u64..100_000, n in 4usize..16, d in 0u8..8) {
        let g = arb_graph(seed, n, d);
        let t = RoutingTables::compute(&g);
        for u in g.nodes() {
            for v in g.nodes() {
                let Some(path) = t.path(u, v) else { continue };
                let total: PathCost = path
                    .windows(2)
                    .map(|w| PathCost::from(g.cost(w[0], w[1]).unwrap()))
                    .sum();
                prop_assert_eq!(Some(total), t.dist(u, v));
                // Strictly decreasing remaining distance at every hop.
                for w in path.windows(2) {
                    prop_assert!(t.dist(w[1], v) < t.dist(w[0], v) || w[1] == v);
                }
            }
        }
    }

    /// No shortest path transits a host.
    #[test]
    fn paths_never_transit_hosts(seed in 0u64..100_000, n in 4usize..16, d in 0u8..8) {
        let g = arb_graph(seed, n, d);
        let t = RoutingTables::compute(&g);
        for u in g.nodes() {
            for v in g.nodes() {
                if let Some(path) = t.path(u, v) {
                    if path.len() > 2 {
                        for &mid in &path[1..path.len() - 1] {
                            prop_assert!(g.is_router(mid), "host {mid} in transit {u}→{v}");
                        }
                    }
                }
            }
        }
    }

    /// The lazy provider answers exactly like the eager tables on every
    /// (src, dst) pair — identical distances AND identical next hops (the
    /// tie-breaks must survive the CSR/caching path), even with a capacity
    /// small enough that most rows are recomputed per lookup.
    #[test]
    fn on_demand_equals_eager_tables(seed in 0u64..100_000, n in 4usize..16, d in 0u8..8) {
        let g = arb_graph(seed, n, d);
        let eager = RoutingTables::compute(&g);
        let capacity = 3.max(n / 4);
        let lazy = OnDemandRoutes::new(&g, capacity);
        for u in g.nodes() {
            for v in g.nodes() {
                prop_assert_eq!(eager.dist(u, v), lazy.dist(u, v), "dist {}->{}", u, v);
                prop_assert_eq!(
                    eager.next_hop(u, v),
                    RouteProvider::next_hop(&lazy, u, v),
                    "hop {}->{}", u, v
                );
            }
        }
        prop_assert!(lazy.route_stats().cached_rows <= capacity);
    }

    /// Same equivalence over the surviving topology with a failed host, a
    /// failed access router and one failed access half-link, exercising the
    /// masked SPF path of both providers and the stub resolution.
    #[test]
    fn on_demand_equals_eager_avoiding_a_node(seed in 0u64..100_000, n in 5usize..16, d in 0u8..8) {
        let g = arb_graph(seed, n, d);
        let (node_down, edge_down) = stub_victims(&g, seed);
        let eager = RoutingTables::compute_avoiding(&g, &node_down, &edge_down);
        let capacity = 3.max(n / 4);
        let lazy = OnDemandRoutes::with_masks(
            Arc::new(Csr::from_graph(&g)),
            node_down,
            edge_down,
            capacity,
        );
        for u in g.nodes() {
            for v in g.nodes() {
                prop_assert_eq!(eager.dist(u, v), lazy.dist(u, v), "dist {}->{}", u, v);
                prop_assert_eq!(
                    eager.next_hop(u, v),
                    RouteProvider::next_hop(&lazy, u, v),
                    "hop {}->{}", u, v
                );
            }
        }
        prop_assert!(lazy.route_stats().cached_rows <= capacity);
    }

    /// Fault transitions through `rerouted` (selective invalidation +
    /// cached survivors) still answer exactly like a fresh masked
    /// computation: first the stub victims plus a router fail, then the
    /// failed host and access half-link come back, then everything does.
    #[test]
    fn rerouted_provider_stays_exact(seed in 0u64..100_000, n in 5usize..14, d in 0u8..8) {
        let g = arb_graph(seed, n, d);
        let lazy = OnDemandRoutes::new(&g, n);
        // Warm a few rows, from routers and hosts alike.
        let last = g.nodes().last().unwrap();
        for u in g.nodes().step_by(2) {
            lazy.dist(u, last);
        }
        let (stub_nodes, stub_edges) = stub_victims(&g, seed);
        let mut node_down = stub_nodes.clone();
        node_down[g.routers().nth((seed as usize) % 3).unwrap().index()] = true;
        let host_healed: Vec<bool> = g.nodes().map(|v| node_down[v.index()] && g.is_router(v)).collect();
        let none = vec![false; g.node_count()];
        let mut provider = lazy;
        for (node_down, edge_down) in [
            (node_down.clone(), stub_edges.clone()),
            (host_healed, vec![false; stub_edges.len()]),
            (none, vec![false; stub_edges.len()]),
        ] {
            provider = provider.rerouted(node_down.clone(), edge_down.clone());
            let fresh = RoutingTables::compute_avoiding(&g, &node_down, &edge_down);
            for u in g.nodes() {
                for v in g.nodes() {
                    prop_assert_eq!(fresh.dist(u, v), provider.dist(u, v), "dist {}->{}", u, v);
                    prop_assert_eq!(
                        fresh.next_hop(u, v),
                        RouteProvider::next_hop(&provider, u, v),
                        "hop {}->{}", u, v
                    );
                }
            }
        }
    }

    /// Distances are monotone under cost increase: raising one directed
    /// link's cost never shortens any distance.
    #[test]
    fn monotone_under_cost_increase(seed in 0u64..100_000, n in 4usize..12) {
        let mut g = arb_graph(seed, n, 1);
        let before = RoutingTables::compute(&g);
        let (a, b, ab, _) = g.undirected_links()[0];
        g.set_cost(a, b, ab + 5);
        let after = RoutingTables::compute(&g);
        for u in g.nodes() {
            for v in g.nodes() {
                if let (Some(x), Some(y)) = (before.dist(u, v), after.dist(u, v)) {
                    prop_assert!(y >= x, "raising a cost shortened {u}→{v}: {x} → {y}");
                }
            }
        }
    }
}
