//! Demand-driven routing: the [`RouteProvider`] abstraction and its lazy
//! [`OnDemandRoutes`] implementation.
//!
//! The paper's scaling argument is that HBH routers keep state only where
//! trees actually pass — but the harness historically froze **all-pairs**
//! Dijkstra into an `n×n` next-hop array per scenario draw, O(n²) memory
//! and precompute that caps experiments near 50 routers. The fix mirrors
//! the protocol's own philosophy: routes are a *service*, computed when
//! first consulted and memoized per source.
//!
//! [`RouteProvider`] is the consumer-facing trait (`next_hop`, `dist`,
//! `path`); [`crate::RoutingTables`] implements it as the exact eager
//! fallback (bit-for-bit the historical behaviour, used for the paper's
//! n≤50 figures), and [`OnDemandRoutes`] implements it lazily: one forward
//! SPF row per *forwarding node actually consulted*, in an LRU with
//! deterministic eviction. Both run the same CSR Dijkstra with the same
//! tie-breaks, so on any (at, dst) pair they agree exactly — property
//! tests pin this, with and without failed elements.
//!
//! # Rows span the core
//!
//! A *stub* is a host with exactly one link, and that link goes to a
//! router (its *access router*); every other node — routers, dual-homed
//! hosts like Figure 2's `r1`, hosts wired to hosts — is the *core*. Rows
//! are computed and stored over the core only. Hosts never transit, so a
//! stub is only ever the first or last hop of a path and is answered
//! through its access link `h — a`:
//!
//! * `dist(h→x) = cost(h→a) + dist(a→x)`, and `next_hop(h, x) = a`;
//! * `dist(r→h) = dist(r→a) + cost(a→h)`, and `next_hop(r, h)` is the
//!   first hop toward `a` in `r`'s row, or `h` itself when `r == a`.
//!
//! Core indices ascend with node ids, so every distance, next hop and
//! tie-break is the one the full-node search would give. On the scale
//! hierarchies, where single-homed hosts outnumber routers 20 to 1, this
//! is what keeps a row small and an SPF cheap.
//!
//! # Faults
//!
//! On a fault event [`OnDemandRoutes::rerouted`] derives the post-failure
//! provider. A failed or restored stub, or either access half-link,
//! touches no row: lookups check those masks on the way in and out. New
//! core failures invalidate only the cached rows whose SPF tree actually
//! touches a newly failed element (removing an element can never improve
//! an untouched tree, and tie-break winners stay winners when a losing
//! candidate disappears); any *restoration* of a core element flushes the
//! cache, since a returning element may improve arbitrary rows.

use crate::dijkstra::{shortest_paths_core, DijkstraScratch};
use crate::stubs::StubMap;
use hbh_topo::csr::Csr;
use hbh_topo::graph::{Graph, NodeId, PathCost};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Unicast route lookups, independent of how routes are materialized.
///
/// Implementations must agree with [`crate::dijkstra::shortest_paths`] on
/// every pair (same costs, same deterministic tie-breaks); they differ
/// only in *when* routes are computed and how much memory they pin.
pub trait RouteProvider {
    /// Number of nodes routes are answered for.
    fn node_count(&self) -> usize;

    /// The neighbor of `at` that a packet destined to `dst` leaves
    /// through. `None` if `at == dst` or `dst` is unreachable.
    fn next_hop(&self, at: NodeId, dst: NodeId) -> Option<NodeId>;

    /// Cost of the shortest `from → to` path, `None` if unreachable.
    fn dist(&self, from: NodeId, to: NodeId) -> Option<PathCost>;

    /// The full unicast path `from → … → to` (inclusive), walked from the
    /// next hops exactly like a real packet would be forwarded.
    fn path(&self, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
        self.dist(from, to)?;
        let n = self.node_count();
        let mut path = vec![from];
        let mut cur = from;
        while cur != to {
            cur = self.next_hop(cur, to)?;
            path.push(cur);
            assert!(path.len() <= n, "routing loop from {from} to {to}");
        }
        Some(path)
    }

    /// Cache behaviour counters; all zero for eager providers.
    fn route_stats(&self) -> RouteStats {
        RouteStats::default()
    }

    /// Heap bytes currently pinned by materialized route state.
    fn state_bytes(&self) -> usize;
}

/// Counters describing how a provider materialized its answers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouteStats {
    /// SPF rows computed (eager: one per node, up front; on demand: one
    /// per core source consulted, since a stub reads its access router's
    /// row).
    pub computed: u64,
    /// Lookups answered from a cached row.
    pub hits: u64,
    /// Lookups that had to compute a row first.
    pub misses: u64,
    /// Rows dropped by LRU capacity pressure.
    pub evicted: u64,
    /// Rows dropped because a fault event touched their tree.
    pub invalidated: u64,
    /// Rows resident right now.
    pub cached_rows: usize,
    /// Fault-epoch counter (bumped by every [`OnDemandRoutes::rerouted`]).
    pub generation: u64,
}

impl RouteStats {
    /// Fraction of lookups served without running an SPF.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl RouteProvider for crate::RoutingTables {
    fn node_count(&self) -> usize {
        self.node_count()
    }

    fn next_hop(&self, at: NodeId, dst: NodeId) -> Option<NodeId> {
        crate::RoutingTables::next_hop(self, at, dst)
    }

    fn dist(&self, from: NodeId, to: NodeId) -> Option<PathCost> {
        crate::RoutingTables::dist(self, from, to)
    }

    fn path(&self, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
        crate::RoutingTables::path(self, from, to)
    }

    fn route_stats(&self) -> RouteStats {
        let n = self.node_count() as u64;
        RouteStats {
            computed: n,
            cached_rows: self.node_count(),
            ..RouteStats::default()
        }
    }

    fn state_bytes(&self) -> usize {
        // dist: Vec<PathCost>, next: Vec<Option<NodeId>>, both n×n.
        let n = self.node_count();
        n * n * (size_of::<PathCost>() + size_of::<Option<NodeId>>())
    }
}

/// One memoized forward-SPF row over the core: everything core node `src`
/// needs to answer `next_hop(src, *)` / `dist(src, *)`, plus the
/// predecessor tree used for selective fault invalidation. Indexed by
/// core index, not node id.
struct Row {
    /// `dist[c]` from the row's source (`u64::MAX` = unreachable).
    dist: Box<[PathCost]>,
    /// First hop (a node id) toward core node `c` (`u32::MAX` = none).
    next: Box<[u32]>,
    /// SPF-tree predecessor (a node id) of core node `c` (`u32::MAX` =
    /// none); consulted when a fault event asks "does this tree cross the
    /// failed edge?".
    pred: Box<[u32]>,
    /// LRU tick of the last lookup through this row.
    last_used: u64,
}

const NONE: u32 = u32::MAX;

impl Row {
    fn bytes(core: usize) -> usize {
        core * (size_of::<PathCost>() + 2 * size_of::<u32>())
    }
}

/// Everything behind the lock: the rows plus the counters and scratch that
/// mutate on lookups.
struct RowCache {
    rows: HashMap<u32, Row>,
    tick: u64,
    scratch: DijkstraScratch,
    stats: RouteStats,
}

/// Lazy per-source routing over a shared CSR view.
///
/// `next_hop(at, dst)` materializes the forward SPF row of `at` on first
/// consultation and memoizes it; subsequent lookups from `at` are O(1)
/// array reads. Memory therefore scales with the number of *forwarding
/// nodes actually consulted* (routers on active trees), not with n².
///
/// * **Core rows** — rows run and store over the core only; a stub (a
///   single-homed host) is answered through its access router's row plus
///   the access half-link (see the module docs).
/// * **Capacity / eviction** — at most `capacity` rows stay resident; the
///   victim is the row with the smallest `(last_used, source)` pair, so
///   eviction (and everything downstream of it) is deterministic for a
///   fixed lookup sequence.
/// * **Faults** — the provider answers over the surviving topology
///   described by its node/edge masks; [`OnDemandRoutes::rerouted`]
///   derives the next fault epoch, carrying over every row the event
///   provably cannot have changed.
/// * **Sharing** — lookups take `&self` (interior mutability behind a
///   [`Mutex`]), so paired protocol runs sharing one network also share
///   one warm cache.
pub struct OnDemandRoutes {
    csr: Arc<Csr>,
    /// The core/stub split of `csr`, built on the first lookup and shared
    /// by every provider [`OnDemandRoutes::rerouted`] derives.
    stubs: Arc<OnceLock<StubMap>>,
    node_down: Vec<bool>,
    edge_down: Vec<bool>,
    capacity: usize,
    generation: u64,
    cache: Mutex<RowCache>,
}

impl OnDemandRoutes {
    /// Lazy routes over the full (fault-free) topology of `g`.
    pub fn new(g: &Graph, capacity: usize) -> Self {
        Self::from_csr(Arc::new(Csr::from_graph(g)), capacity)
    }

    /// Lazy routes over a pre-packed, shareable CSR view.
    pub fn from_csr(csr: Arc<Csr>, capacity: usize) -> Self {
        let n = csr.node_count();
        let m = csr.directed_edge_count();
        Self::with_masks(csr, vec![false; n], vec![false; m], capacity)
    }

    /// Lazy routes over the surviving topology: nodes/edges flagged in the
    /// masks are treated as absent, exactly like
    /// [`crate::RoutingTables::compute_avoiding`].
    ///
    /// # Panics
    /// Panics if a mask length does not match the CSR, or `capacity` is 0.
    pub fn with_masks(
        csr: Arc<Csr>,
        node_down: Vec<bool>,
        edge_down: Vec<bool>,
        capacity: usize,
    ) -> Self {
        assert_eq!(node_down.len(), csr.node_count(), "node mask length");
        assert_eq!(
            edge_down.len(),
            csr.directed_edge_count(),
            "edge mask length"
        );
        assert!(capacity > 0, "route cache needs room for at least one row");
        OnDemandRoutes {
            csr,
            stubs: Arc::default(),
            node_down,
            edge_down,
            capacity,
            generation: 0,
            cache: Mutex::new(RowCache {
                rows: HashMap::new(),
                tick: 0,
                scratch: DijkstraScratch::default(),
                stats: RouteStats::default(),
            }),
        }
    }

    /// The CSR view this provider routes over.
    pub fn csr(&self) -> &Arc<Csr> {
        &self.csr
    }

    fn stubs(&self) -> &StubMap {
        self.stubs.get_or_init(|| StubMap::build(&self.csr))
    }

    /// Derives the provider for the next fault epoch, reusing the CSR and
    /// every cached row the change provably leaves exact.
    ///
    /// Only core elements matter: a stub or its access half-links
    /// (failed or restored) never transit, so they touch no row. A row
    /// (the forward SPF tree of one core source) survives iff no *newly*
    /// failed core node is reachable in it and no newly failed core edge
    /// is one of its tree edges: removing elements the tree never touches
    /// cannot shorten any path, and a tie-break winner stays the winner
    /// when only losing candidates disappear. Any *restoration* of a core
    /// element (a mask bit going `true → false`) flushes the whole cache
    /// instead — a returning link may improve arbitrary rows. Cumulative
    /// stats carry over; the generation counter increments.
    pub fn rerouted(&self, node_down: Vec<bool>, edge_down: Vec<bool>) -> Self {
        assert_eq!(node_down.len(), self.node_down.len(), "node mask length");
        assert_eq!(edge_down.len(), self.edge_down.len(), "edge mask length");
        let mut old = self.cache.lock().unwrap();
        let mut stats = old.stats;
        let mut rows = std::mem::take(&mut old.rows);

        if !rows.is_empty() {
            let stubs = self.stubs();
            let core_node = |v: usize| stubs.core_index(NodeId(v as u32));
            // A core edge as (source node id, target core index).
            let core_edge = |e: usize| {
                let l = self.csr.edge_ends(hbh_topo::EdgeId(e as u32));
                stubs.core_index(l.from)?;
                Some((l.from.0, stubs.core_index(l.to)?))
            };
            let (n, m) = (node_down.len(), edge_down.len());
            let restored = (0..n)
                .any(|v| self.node_down[v] && !node_down[v] && core_node(v).is_some())
                || (0..m).any(|e| self.edge_down[e] && !edge_down[e] && core_edge(e).is_some());
            if restored {
                stats.invalidated += rows.len() as u64;
                rows.clear();
            } else {
                let new_nodes: Vec<usize> = (0..n)
                    .filter(|&v| node_down[v] && !self.node_down[v])
                    .filter_map(core_node)
                    .collect();
                let new_edges: Vec<(u32, usize)> = (0..m)
                    .filter(|&e| edge_down[e] && !self.edge_down[e])
                    .filter_map(core_edge)
                    .collect();
                rows.retain(|_, row| {
                    let touches_node = new_nodes.iter().any(|&c| row.dist[c] != PathCost::MAX);
                    let touches_edge = new_edges.iter().any(|&(f, t)| row.pred[t] == f);
                    let keep = !touches_node && !touches_edge;
                    if !keep {
                        stats.invalidated += 1;
                    }
                    keep
                });
            }
        }
        stats.cached_rows = rows.len();

        OnDemandRoutes {
            csr: Arc::clone(&self.csr),
            stubs: Arc::clone(&self.stubs),
            node_down,
            edge_down,
            capacity: self.capacity,
            generation: self.generation + 1,
            cache: Mutex::new(RowCache {
                rows,
                tick: old.tick,
                scratch: DijkstraScratch::default(),
                stats,
            }),
        }
    }

    /// Sources with a resident row, ascending (test introspection). Only
    /// core nodes have rows.
    pub fn cached_sources(&self) -> Vec<NodeId> {
        let c = self.cache.lock().unwrap();
        let mut v: Vec<u32> = c.rows.keys().copied().collect();
        v.sort_unstable();
        v.into_iter().map(NodeId).collect()
    }

    /// Runs `f` over the (possibly just materialized) row of core node
    /// `src`.
    fn with_row<R>(&self, src: NodeId, f: impl FnOnce(&Row) -> R) -> R {
        let c = &mut *self.cache.lock().unwrap();
        c.tick += 1;
        let tick = c.tick;
        if let Some(row) = c.rows.get_mut(&src.0) {
            row.last_used = tick;
            c.stats.hits += 1;
            return f(row);
        }
        c.stats.misses += 1;
        c.stats.computed += 1;

        let stubs = self.stubs();
        shortest_paths_core(
            &self.csr,
            src,
            &mut c.scratch,
            stubs.core_count(),
            |v| stubs.core_index(v).filter(|_| !self.node_down[v.index()]),
            |e| !self.edge_down[e.index()],
        );
        let pack = |xs: &[Option<NodeId>]| -> Box<[u32]> {
            xs.iter().map(|x| x.map_or(NONE, |n| n.0)).collect()
        };
        let row = Row {
            dist: c.scratch.dist.as_slice().into(),
            next: pack(&c.scratch.first),
            pred: pack(&c.scratch.pred),
            last_used: tick,
        };

        if c.rows.len() >= self.capacity {
            // Deterministic LRU: oldest tick, ties to the smallest source.
            let victim = c
                .rows
                .iter()
                .map(|(&src, row)| (row.last_used, src))
                .min()
                .expect("capacity > 0 and cache full");
            c.rows.remove(&victim.1);
            c.stats.evicted += 1;
        }
        let r = f(c.rows.entry(src.0).or_insert(row));
        c.stats.cached_rows = c.rows.len();
        r
    }

    /// The shortest `from → to` route as `(cost, first hop)`, `None` if
    /// unreachable. Stub ends are peeled off to their access router and
    /// the rest is read from the core row of the source side.
    fn route(&self, from: NodeId, to: NodeId) -> Option<(PathCost, Option<NodeId>)> {
        let down = |v: NodeId| self.node_down[v.index()];
        if from == to {
            return (!down(from)).then_some((0, None));
        }
        let stubs = self.stubs();
        // Source side: a stub leaves through its access router.
        let (src, up_cost) = match stubs.access(&self.csr, from) {
            Some(a) if down(from) || self.edge_down[a.up.index()] => return None,
            Some(a) => (a.router, PathCost::from(a.up_cost)),
            None => (from, 0),
        };
        // Destination side: a stub is reached through its access router.
        let (dst_core, down_cost, dst_access) = match stubs.access(&self.csr, to) {
            Some(a) if down(to) || self.edge_down[a.down.index()] => return None,
            Some(a) => (a.core as usize, PathCost::from(a.down_cost), Some(a.router)),
            None => (stubs.core_index(to).expect("core node"), 0, None),
        };
        self.with_row(src, |row| {
            let d = row.dist[dst_core];
            if d == PathCost::MAX {
                return None;
            }
            let hop = if src != from {
                src // a stub's first hop is its access router
            } else if dst_access == Some(src) {
                to // the access router hands over to its stub
            } else {
                NodeId(row.next[dst_core])
            };
            Some((up_cost + d + down_cost, Some(hop)))
        })
    }
}

impl RouteProvider for OnDemandRoutes {
    fn node_count(&self) -> usize {
        self.csr.node_count()
    }

    fn next_hop(&self, at: NodeId, dst: NodeId) -> Option<NodeId> {
        self.route(at, dst)?.1
    }

    fn dist(&self, from: NodeId, to: NodeId) -> Option<PathCost> {
        Some(self.route(from, to)?.0)
    }

    fn route_stats(&self) -> RouteStats {
        let c = self.cache.lock().unwrap();
        RouteStats {
            cached_rows: c.rows.len(),
            generation: self.generation,
            ..c.stats
        }
    }

    fn state_bytes(&self) -> usize {
        let c = self.cache.lock().unwrap();
        let (core, map) = self
            .stubs
            .get()
            .map_or((0, 0), |s| (s.core_count(), s.bytes()));
        c.rows.len() * Row::bytes(core) + map + self.node_down.len() + self.edge_down.len()
    }
}

impl std::fmt::Debug for OnDemandRoutes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.route_stats();
        f.debug_struct("OnDemandRoutes")
            .field("nodes", &self.csr.node_count())
            .field("capacity", &self.capacity)
            .field("generation", &self.generation)
            .field("stats", &stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RoutingTables;
    use hbh_topo::costs;
    use hbh_topo::isp::isp_topology;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn isp(seed: u64) -> Graph {
        let mut g = isp_topology();
        costs::assign_paper_costs(&mut g, &mut StdRng::seed_from_u64(seed));
        g
    }

    #[test]
    fn agrees_with_eager_tables_on_isp() {
        let g = isp(5);
        let eager = RoutingTables::compute(&g);
        let lazy = OnDemandRoutes::new(&g, 64);
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(
                    RouteProvider::dist(&eager, u, v),
                    lazy.dist(u, v),
                    "dist {u}->{v}"
                );
                assert_eq!(
                    RouteProvider::next_hop(&eager, u, v),
                    lazy.next_hop(u, v),
                    "hop {u}->{v}"
                );
            }
        }
    }

    #[test]
    fn rows_materialize_lazily_and_hit_afterwards() {
        let g = isp(1);
        let lazy = OnDemandRoutes::new(&g, 64);
        let (a, b) = {
            let mut it = g.nodes();
            (it.next().unwrap(), it.nth(3).unwrap())
        };
        assert_eq!(lazy.route_stats().computed, 0);
        lazy.next_hop(a, b);
        let s = lazy.route_stats();
        assert_eq!((s.computed, s.misses, s.hits, s.cached_rows), (1, 1, 0, 1));
        lazy.dist(a, b);
        lazy.next_hop(a, g.nodes().nth(7).unwrap());
        let s = lazy.route_stats();
        assert_eq!((s.computed, s.misses, s.hits), (1, 1, 2));
        assert!(s.hit_rate() > 0.6);
    }

    #[test]
    fn capacity_evicts_deterministically() {
        let g = isp(2);
        let lazy = OnDemandRoutes::new(&g, 2);
        let nodes: Vec<NodeId> = g.nodes().collect();
        lazy.dist(nodes[0], nodes[5]); // tick 1
        lazy.dist(nodes[1], nodes[5]); // tick 2
        lazy.dist(nodes[0], nodes[6]); // tick 3: refreshes row 0
        lazy.dist(nodes[2], nodes[5]); // tick 4: must evict row 1 (oldest)
        assert_eq!(lazy.cached_sources(), vec![nodes[0], nodes[2]]);
        assert_eq!(lazy.route_stats().evicted, 1);
    }

    #[test]
    fn path_walks_next_hops() {
        let g = isp(3);
        let eager = RoutingTables::compute(&g);
        let lazy = OnDemandRoutes::new(&g, 64);
        for u in g.nodes().take(6) {
            for v in g.nodes().take(6) {
                assert_eq!(eager.path(u, v), RouteProvider::path(&lazy, u, v));
            }
        }
    }

    #[test]
    fn masked_provider_matches_compute_avoiding() {
        let g = isp(4);
        let victim = g.nodes().nth(2).unwrap();
        let mut node_down = vec![false; g.node_count()];
        node_down[victim.index()] = true;
        let edge_down = vec![false; g.directed_edge_count()];
        let eager = RoutingTables::compute_avoiding(&g, &node_down, &edge_down);
        let lazy =
            OnDemandRoutes::with_masks(Arc::new(Csr::from_graph(&g)), node_down, edge_down, 64);
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(
                    RouteProvider::dist(&eager, u, v),
                    lazy.dist(u, v),
                    "dist {u}->{v}"
                );
                assert_eq!(
                    RouteProvider::next_hop(&eager, u, v),
                    lazy.next_hop(u, v),
                    "hop {u}->{v}"
                );
            }
        }
    }

    #[test]
    fn rerouted_keeps_untouched_rows_and_drops_touched_ones() {
        let g = isp(6);
        let lazy = OnDemandRoutes::new(&g, 64);
        let nodes: Vec<NodeId> = g.nodes().collect();
        // Materialize every row, then fail one router.
        for &u in &nodes {
            lazy.dist(u, nodes[0]);
        }
        let victim = nodes[3];
        let mut node_down = vec![false; g.node_count()];
        node_down[victim.index()] = true;
        let next = lazy.rerouted(node_down.clone(), vec![false; g.directed_edge_count()]);
        assert_eq!(next.route_stats().generation, 1);
        // The ISP backbone is connected: every router's SPF reaches the
        // victim, so every row must have been invalidated. (Hosts are
        // stubs and own no rows.)
        assert_eq!(next.cached_sources(), vec![]);
        // Surviving answers equal a fresh masked computation.
        let fresh = RoutingTables::compute_avoiding(
            &g,
            &node_down,
            &vec![false; g.directed_edge_count()][..],
        );
        for &u in &nodes {
            for &v in &nodes {
                assert_eq!(RouteProvider::dist(&fresh, u, v), next.dist(u, v));
            }
        }
    }

    #[test]
    fn restoration_flushes_the_cache() {
        let g = isp(7);
        let nodes: Vec<NodeId> = g.nodes().collect();
        let mut node_down = vec![false; g.node_count()];
        node_down[nodes[3].index()] = true;
        let masked = OnDemandRoutes::with_masks(
            Arc::new(Csr::from_graph(&g)),
            node_down,
            vec![false; g.directed_edge_count()],
            64,
        );
        masked.dist(nodes[0], nodes[1]);
        assert_eq!(masked.cached_sources().len(), 1);
        // Bring the router back: all rows must go (they may improve).
        let healed = masked.rerouted(
            vec![false; g.node_count()],
            vec![false; g.directed_edge_count()],
        );
        assert_eq!(healed.cached_sources(), vec![]);
        let plain = RoutingTables::compute(&g);
        for &u in nodes.iter().take(5) {
            for &v in nodes.iter().take(5) {
                assert_eq!(RouteProvider::dist(&plain, u, v), healed.dist(u, v));
            }
        }
    }

    #[test]
    fn pinned_seed_eviction_and_recompute_is_deterministic() {
        use rand::RngExt;
        // Two independent providers fed the identical pseudorandom lookup
        // stream (pinned seed, capacity far below the working set) must
        // agree on every answer, every counter, and the resident set —
        // i.e. eviction + recompute is a pure function of the sequence.
        let g = isp(9);
        let nodes: Vec<NodeId> = g.nodes().collect();
        let a = OnDemandRoutes::new(&g, 3);
        let b = OnDemandRoutes::new(&g, 3);
        let mut rng = StdRng::seed_from_u64(0xCAC4E);
        for _ in 0..200 {
            let u = nodes[rng.random_range(0..nodes.len())];
            let v = nodes[rng.random_range(0..nodes.len())];
            assert_eq!(a.next_hop(u, v), b.next_hop(u, v), "hop {u}->{v}");
            assert_eq!(a.dist(u, v), b.dist(u, v), "dist {u}->{v}");
        }
        assert_eq!(a.route_stats(), b.route_stats());
        assert_eq!(a.cached_sources(), b.cached_sources());
        let s = a.route_stats();
        assert!(
            s.evicted > 0,
            "capacity 3 must have evicted under 200 lookups"
        );
        assert_eq!(s.cached_rows, 3);
    }

    /// The ISP map (one single-homed host per router) with every router
    /// row cached.
    fn warm_isp(seed: u64) -> (Graph, OnDemandRoutes) {
        let g = isp(seed);
        let lazy = OnDemandRoutes::new(&g, 64);
        let far = g.hosts().last().unwrap();
        for r in g.routers() {
            lazy.dist(r, far);
        }
        (g, lazy)
    }

    #[test]
    fn stub_failures_keep_every_router_row() {
        let (g, warm) = warm_isp(10);
        let rows = warm.cached_sources();
        assert_eq!(rows, g.routers().collect::<Vec<_>>(), "one row per router");
        let host = g.hosts().nth(4).unwrap();
        let access = g.neighbors(host)[0].to;
        let (up, _) = g.edge_entry(host, access).unwrap();
        let (down, _) = g.edge_entry(access, host).unwrap();
        let m = g.directed_edge_count();
        let mut host_down = vec![false; g.node_count()];
        host_down[host.index()] = true;
        for (node_down, failed_edge) in [
            (host_down, None),
            (vec![false; g.node_count()], Some(up)),
            (vec![false; g.node_count()], Some(down)),
        ] {
            let mut edge_down = vec![false; m];
            if let Some(e) = failed_edge {
                edge_down[e.index()] = true;
            }
            // `rerouted` moves the rows out, so warm a fresh provider.
            let (_, lazy) = warm_isp(10);
            let next = lazy.rerouted(node_down.clone(), edge_down.clone());
            assert_eq!(next.route_stats().invalidated, 0);
            assert_eq!(next.cached_sources(), rows, "router rows survive");
            let fresh = RoutingTables::compute_avoiding(&g, &node_down, &edge_down);
            for u in g.nodes() {
                for v in g.nodes() {
                    assert_eq!(RouteProvider::dist(&fresh, u, v), next.dist(u, v));
                    assert_eq!(
                        RouteProvider::next_hop(&fresh, u, v),
                        next.next_hop(u, v),
                        "hop {u}->{v}"
                    );
                }
            }
            // Healing the stub again touches no row either.
            let healed = next.rerouted(vec![false; g.node_count()], vec![false; m]);
            assert_eq!(healed.cached_sources(), rows);
            assert_eq!(healed.route_stats().invalidated, 0);
        }
    }

    #[test]
    fn failed_stub_answers_none_even_to_itself() {
        let g = isp(11);
        let host = g.hosts().nth(2).unwrap();
        let mut node_down = vec![false; g.node_count()];
        node_down[host.index()] = true;
        let csr = Arc::new(Csr::from_graph(&g));
        let m = g.directed_edge_count();
        let lazy = OnDemandRoutes::with_masks(csr, node_down, vec![false; m], 8);
        assert_eq!(lazy.dist(host, host), None);
        let router = g.routers().next().unwrap();
        assert_eq!(
            (lazy.dist(host, router), lazy.dist(router, host)),
            (None, None)
        );
        assert_eq!(lazy.next_hop(router, host), None);
    }

    #[test]
    fn row_bytes_scale_with_the_core_not_the_node_count() {
        let (g, lazy) = warm_isp(12);
        let routers = g.routers().count();
        assert!(g.node_count() >= 2 * routers, "half the nodes are stubs");
        let rows = lazy.cached_sources().len();
        let masks = g.node_count() + g.directed_edge_count();
        let map = 8 * g.node_count();
        assert_eq!(
            lazy.state_bytes(),
            rows * Row::bytes(routers) + map + masks,
            "rows span the {routers} routers, not all {} nodes",
            g.node_count()
        );
        assert_eq!(Row::bytes(routers), routers * 16);
    }

    #[test]
    fn eager_provider_reports_full_footprint() {
        let g = isp(8);
        let t = RoutingTables::compute(&g);
        let n = g.node_count();
        assert_eq!(
            RouteProvider::state_bytes(&t),
            n * n * (size_of::<PathCost>() + size_of::<Option<NodeId>>())
        );
        let lazy = OnDemandRoutes::new(&g, 64);
        lazy.dist(g.nodes().next().unwrap(), g.nodes().nth(1).unwrap());
        assert!(lazy.state_bytes() < RouteProvider::state_bytes(&t));
    }
}
