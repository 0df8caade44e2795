//! The unicast route service: the [`RouteProvider`] trait and its one
//! implementation, [`OnDemandRoutes`].
//!
//! The paper's scaling argument is that HBH routers keep state only where
//! trees actually pass. The route service follows the same idea: a
//! forward SPF row is computed the first time its source is consulted and
//! then kept, so memory scales with the forwarding nodes actually
//! consulted rather than with n². Every simulated `Network` (in
//! `hbh-sim-core`) routes through it, from the paper's 18-router ISP map
//! to the 5k-router hierarchies. Answers equal the all-pairs
//! [`crate::RoutingTables`] reference on every pair (same CSR Dijkstra,
//! same tie-breaks); property tests pin this, with and without failed
//! elements.
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
//! A row entry holds the distance, the first out-edge (not the first-hop
//! node) and the SPF-tree predecessor: 16 bytes. Storing the edge lets the
//! simulator's per-packet step read the link id, next hop and cost without
//! an adjacency scan.
//!
//! # Lookups take no lock
//!
//! Each core source owns one write-once slot. A lookup whose row is
//! resident reads it without locking; only filling an empty slot takes the
//! lock around the Dijkstra scratch. `capacity` caps the resident rows: a
//! miss past the cap answers from the row left in the scratch and keeps
//! nothing.
//!
//! # Faults
//!
//! On a fault event [`OnDemandRoutes::rerouted`] derives the post-failure
//! provider. A failed or restored stub, or either access half-link,
//! touches no row: lookups check those masks on the way in and out. New
//! core failures drop only the rows whose SPF tree actually touches a
//! newly failed element (removing an element can never improve an
//! untouched tree, and tie-break winners stay winners when a losing
//! candidate disappears); the other rows pass to the next epoch by `Arc`.
//! Any *restoration* of a core element starts the next epoch empty, since
//! a returning element may improve arbitrary rows.

use crate::dijkstra::{shortest_paths_core, DijkstraScratch};
use crate::stubs::StubMap;
use hbh_topo::csr::Csr;
use hbh_topo::graph::{EdgeId, Graph, NodeId, PathCost};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};

/// Unicast route lookups.
///
/// Implementations must agree with [`crate::dijkstra::shortest_paths`] on
/// every pair (same costs, same deterministic tie-breaks).
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

    /// Row and lookup counters.
    fn route_stats(&self) -> RouteStats;

    /// Heap bytes currently pinned by materialized route state.
    fn state_bytes(&self) -> usize;
}

/// Counters describing how a provider materialized its answers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouteStats {
    /// SPF rows computed: one per core source first consulted in an epoch
    /// (a stub reads its access router's row), plus one per lookup that
    /// missed with the resident rows already at capacity.
    pub computed: u64,
    /// Lookups answered from a resident row.
    pub hits: u64,
    /// Lookups that had to compute a row first.
    pub misses: u64,
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

const NONE: u32 = u32::MAX;

/// One forward-SPF row over the core, indexed by core index: 16 bytes
/// per entry.
struct Row {
    /// Distance from the row's source (`u64::MAX` = unreachable).
    dist: Box<[PathCost]>,
    /// The source's out-edge the path leaves through (an [`EdgeId`]
    /// index, [`NONE`] for the source itself or unreachable).
    first: Box<[u32]>,
    /// SPF-tree predecessor (a node id, [`NONE`] = none); consulted when a
    /// fault event asks "does this tree cross the failed edge?".
    pred: Box<[u32]>,
}

impl Row {
    fn from_scratch(s: &DijkstraScratch) -> Self {
        Row {
            dist: s.dist.as_slice().into(),
            first: s.first.as_slice().into(),
            pred: s.pred.iter().map(|p| p.map_or(NONE, |p| p.0)).collect(),
        }
    }

    fn bytes(core: usize) -> usize {
        core * (size_of::<PathCost>() + 2 * size_of::<u32>())
    }
}

/// The row slots of one epoch.
type Slots = Box<[OnceLock<Arc<Row>>]>;

/// Lazy per-source routing over a shared CSR view.
///
/// `next_hop(at, dst)` computes the forward SPF row of `at` on first
/// consultation and keeps it; later lookups from `at` are lock-free array
/// reads. See the module docs for the core/stub split, the capacity and
/// fault epochs.
pub struct OnDemandRoutes {
    csr: Arc<Csr>,
    /// The core/stub split of `csr`, built on the first lookup and shared
    /// by every epoch.
    stubs: Arc<OnceLock<StubMap>>,
    node_down: Vec<bool>,
    edge_down: Vec<bool>,
    capacity: usize,
    generation: u64,
    /// One write-once slot per core index, allocated on the first lookup.
    rows: OnceLock<Slots>,
    /// Filled slots; written only under the `scratch` lock.
    resident: AtomicUsize,
    /// Dijkstra working buffers, locked only to compute a row.
    scratch: Mutex<DijkstraScratch>,
    computed: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidated: u64,
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
        assert!(capacity > 0, "route cache needs room for at least one row");
        let (rows, stats) = (OnceLock::new(), RouteStats::default());
        Self::epoch(
            csr,
            Arc::default(),
            node_down,
            edge_down,
            capacity,
            rows,
            stats,
        )
    }

    /// A provider over `rows`, its counters starting from `stats`.
    fn epoch(
        csr: Arc<Csr>,
        stubs: Arc<OnceLock<StubMap>>,
        node_down: Vec<bool>,
        edge_down: Vec<bool>,
        capacity: usize,
        rows: OnceLock<Slots>,
        stats: RouteStats,
    ) -> Self {
        assert_eq!(node_down.len(), csr.node_count(), "node mask length");
        assert_eq!(
            edge_down.len(),
            csr.directed_edge_count(),
            "edge mask length"
        );
        let resident = rows
            .get()
            .map_or(0, |r| r.iter().filter(|r| r.get().is_some()).count());
        OnDemandRoutes {
            csr,
            stubs,
            node_down,
            edge_down,
            capacity,
            generation: stats.generation,
            rows,
            resident: AtomicUsize::new(resident),
            scratch: Mutex::default(),
            computed: AtomicU64::new(stats.computed),
            hits: AtomicU64::new(stats.hits),
            misses: AtomicU64::new(stats.misses),
            invalidated: stats.invalidated,
        }
    }

    /// The CSR view this provider routes over.
    pub fn csr(&self) -> &Arc<Csr> {
        &self.csr
    }

    #[inline]
    fn stubs(&self) -> &StubMap {
        self.stubs.get_or_init(|| StubMap::build(&self.csr))
    }

    #[inline]
    fn slots(&self) -> &[OnceLock<Arc<Row>>] {
        self.rows.get_or_init(|| {
            let core = self.stubs().core_count();
            (0..core).map(|_| OnceLock::new()).collect()
        })
    }

    /// Derives the provider for the next fault epoch, sharing the CSR and
    /// every resident row the change provably leaves exact.
    ///
    /// Only core elements matter: a stub or its access half-links
    /// (failed or restored) never transit, so they touch no row. A row
    /// (the forward SPF tree of one core source) survives iff no *newly*
    /// failed core node is reachable in it and no newly failed core edge
    /// is one of its tree edges: removing elements the tree never touches
    /// cannot shorten any path, and a tie-break winner stays the winner
    /// when only losing candidates disappear. Any *restoration* of a core
    /// element (a mask bit going `true → false`) drops every row instead —
    /// a returning link may improve arbitrary rows. Surviving rows are
    /// shared with `self` by `Arc`, cumulative stats carry over and the
    /// generation counter increments.
    pub fn rerouted(&self, node_down: Vec<bool>, edge_down: Vec<bool>) -> Self {
        assert_eq!(node_down.len(), self.node_down.len(), "node mask length");
        assert_eq!(edge_down.len(), self.edge_down.len(), "edge mask length");
        let stubs = self.stubs();
        let core_node = |v: usize| stubs.core_index(NodeId(v as u32));
        // A core edge as (source node id, target core index).
        let core_edge = |e: usize| {
            let l = self.csr.edge_ends(EdgeId(e as u32));
            stubs.core_index(l.from)?;
            Some((l.from.0, stubs.core_index(l.to)?))
        };
        let (n, m) = (node_down.len(), edge_down.len());
        let restored = (0..n).any(|v| self.node_down[v] && !node_down[v] && core_node(v).is_some())
            || (0..m).any(|e| self.edge_down[e] && !edge_down[e] && core_edge(e).is_some());
        let new_nodes: Vec<usize> = (0..n)
            .filter(|&v| node_down[v] && !self.node_down[v])
            .filter_map(core_node)
            .collect();
        let new_edges: Vec<(u32, usize)> = (0..m)
            .filter(|&e| edge_down[e] && !self.edge_down[e])
            .filter_map(core_edge)
            .collect();
        let touches = |row: &Row| {
            restored
                || new_nodes.iter().any(|&c| row.dist[c] != PathCost::MAX)
                || new_edges.iter().any(|&(f, t)| row.pred[t] == f)
        };

        let mut invalidated = self.invalidated;
        let mut rows = OnceLock::new();
        if let Some(slots) = self.rows.get() {
            let kept = slots.iter().map(|slot| match slot.get() {
                Some(row) if touches(row) => {
                    invalidated += 1;
                    OnceLock::new()
                }
                Some(row) => OnceLock::from(Arc::clone(row)),
                None => OnceLock::new(),
            });
            rows = OnceLock::from(kept.collect::<Slots>());
        }

        let stats = RouteStats {
            invalidated,
            generation: self.generation + 1,
            ..self.route_stats()
        };
        Self::epoch(
            Arc::clone(&self.csr),
            Arc::clone(&self.stubs),
            node_down,
            edge_down,
            self.capacity,
            rows,
            stats,
        )
    }

    /// Sources with a resident row, ascending (test introspection). Only
    /// core nodes have rows.
    pub fn cached_sources(&self) -> Vec<NodeId> {
        let Some(slots) = self.rows.get() else {
            return Vec::new();
        };
        (0..self.csr.node_count() as u32)
            .map(NodeId)
            .filter(|&v| {
                self.stubs()
                    .core_index(v)
                    .is_some_and(|c| slots[c].get().is_some())
            })
            .collect()
    }

    /// `(dist, first out-edge)` toward core index `dst` in the row of
    /// core index `c`, computing the row from core node `src()` first if
    /// its slot is empty.
    #[inline]
    fn entry(&self, c: usize, dst: usize, src: impl FnOnce() -> NodeId) -> (PathCost, u32) {
        match self.slots()[c].get() {
            Some(row) => {
                self.hits.fetch_add(1, Relaxed);
                (row.dist[dst], row.first[dst])
            }
            None => self.fill(src(), c, dst),
        }
    }

    /// The miss path of [`OnDemandRoutes::entry`].
    #[cold]
    fn fill(&self, src: NodeId, c: usize, dst: usize) -> (PathCost, u32) {
        let slot = &self.slots()[c];
        let mut s = self.scratch.lock().expect("no SPF panicked");
        // Another lookup may have filled the slot while this one waited.
        if let Some(row) = slot.get() {
            self.hits.fetch_add(1, Relaxed);
            return (row.dist[dst], row.first[dst]);
        }
        self.misses.fetch_add(1, Relaxed);
        self.computed.fetch_add(1, Relaxed);
        let stubs = self.stubs();
        shortest_paths_core(
            &self.csr,
            src,
            &mut s,
            stubs.core_count(),
            |v| stubs.core_index(v).filter(|_| !self.node_down[v.index()]),
            |e| !self.edge_down[e.index()],
        );
        if self.resident.load(Relaxed) < self.capacity
            && slot.set(Arc::new(Row::from_scratch(&s))).is_ok()
        {
            self.resident.fetch_add(1, Relaxed);
        }
        (s.dist[dst], s.first[dst])
    }

    /// The shortest `from → to` route as `(cost, first out-edge)`, `None`
    /// if unreachable; the edge is `None` when `from == to`. Stub ends are
    /// peeled off to their access router and the rest is read from the
    /// core row of the source side.
    #[inline]
    fn route(&self, from: NodeId, to: NodeId) -> Option<(PathCost, Option<EdgeId>)> {
        let down = |v: NodeId| self.node_down[v.index()];
        if from == to {
            return (!down(from)).then_some((0, None));
        }
        let stubs = self.stubs();
        // Source side: a stub leaves through its access router.
        let (src_core, up_cost, up) = match stubs.access(from) {
            Some(a) if down(from) || self.edge_down[a.up.index()] => return None,
            Some(a) => (a.core as usize, a.up_cost, Some(a.up)),
            None => (stubs.core_index(from).expect("core node"), 0, None),
        };
        // Destination side: a stub is reached through its access router,
        // which hands over to it directly.
        let (dst_core, down_cost, handover) = match stubs.access(to) {
            Some(a) if down(to) || self.edge_down[a.down.index()] => return None,
            Some(a) => (a.core as usize, a.down_cost, Some(a.down)),
            None => (stubs.core_index(to).expect("core node"), 0, None),
        };
        let (dist, first) = self.entry(src_core, dst_core, || {
            up.map_or(from, |e| self.csr.edge_ends(e).to)
        });
        if dist == PathCost::MAX {
            return None;
        }
        let first = match (up, handover) {
            (Some(e), _) => e,
            (None, Some(e)) if dst_core == src_core => e,
            _ => EdgeId(first),
        };
        Some((
            PathCost::from(up_cost) + dist + PathCost::from(down_cost),
            Some(first),
        ))
    }

    /// The out-edge of `at` that a packet destined to `dst` leaves
    /// through. `None` if `at == dst` or `dst` is unreachable.
    #[inline]
    pub fn first_edge(&self, at: NodeId, dst: NodeId) -> Option<EdgeId> {
        self.route(at, dst)?.1
    }
}

impl RouteProvider for OnDemandRoutes {
    fn node_count(&self) -> usize {
        self.csr.node_count()
    }

    fn next_hop(&self, at: NodeId, dst: NodeId) -> Option<NodeId> {
        Some(self.csr.edge_ends(self.first_edge(at, dst)?).to)
    }

    fn dist(&self, from: NodeId, to: NodeId) -> Option<PathCost> {
        Some(self.route(from, to)?.0)
    }

    fn route_stats(&self) -> RouteStats {
        RouteStats {
            computed: self.computed.load(Relaxed),
            hits: self.hits.load(Relaxed),
            misses: self.misses.load(Relaxed),
            invalidated: self.invalidated,
            cached_rows: self.resident.load(Relaxed),
            generation: self.generation,
        }
    }

    fn state_bytes(&self) -> usize {
        let (core, map) = self
            .stubs
            .get()
            .map_or((0, 0), |s| (s.core_count(), s.bytes()));
        let slots = self.rows.get().map_or(0, |r| r.len());
        self.resident.load(Relaxed) * Row::bytes(core)
            + slots * size_of::<OnceLock<Arc<Row>>>()
            + map
            + self.node_down.len()
            + self.edge_down.len()
    }
}

impl std::fmt::Debug for OnDemandRoutes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OnDemandRoutes")
            .field("nodes", &self.csr.node_count())
            .field("capacity", &self.capacity)
            .field("stats", &self.route_stats())
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
        assert_same_routes(
            &g,
            &RoutingTables::compute(&g),
            &OnDemandRoutes::new(&g, 64),
        );
    }

    /// Every `(dist, next_hop)` answer of `lazy` equals the reference's,
    /// and every first edge leads to that next hop.
    fn assert_same_routes(g: &Graph, reference: &RoutingTables, lazy: &OnDemandRoutes) {
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(reference.dist(u, v), lazy.dist(u, v), "dist {u}->{v}");
                let hop = reference.next_hop(u, v);
                assert_eq!(hop, lazy.next_hop(u, v), "hop {u}->{v}");
                let edge = lazy.first_edge(u, v);
                assert_eq!(edge, hop.map(|h| g.edge_entry(u, h).unwrap().0));
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
    fn capacity_caps_resident_rows() {
        let g = isp(2);
        let reference = RoutingTables::compute(&g);
        let lazy = OnDemandRoutes::new(&g, 2);
        let nodes: Vec<NodeId> = g.nodes().collect();
        for (u, v) in [(0, 5), (1, 5), (0, 6), (2, 5), (2, 6)] {
            let (u, v) = (nodes[u], nodes[v]);
            assert_eq!(lazy.dist(u, v), reference.dist(u, v), "dist {u}->{v}");
            assert_eq!(
                lazy.next_hop(u, v),
                reference.next_hop(u, v),
                "hop {u}->{v}"
            );
            assert!(lazy.route_stats().cached_rows <= 2);
        }
        // The first two rows stay; row 2 is recomputed per lookup.
        assert_eq!(lazy.cached_sources(), vec![nodes[0], nodes[1]]);
        let s = lazy.route_stats();
        assert_eq!((s.computed, s.misses, s.hits), (6, 6, 4));
    }

    #[test]
    fn path_walks_next_hops() {
        let g = isp(3);
        let eager = RoutingTables::compute(&g);
        let lazy = OnDemandRoutes::new(&g, 64);
        for u in g.nodes().take(6) {
            for v in g.nodes().take(6) {
                assert_eq!(eager.path(u, v), lazy.path(u, v));
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
        assert_same_routes(&g, &eager, &lazy);
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
                assert_eq!(fresh.dist(u, v), next.dist(u, v));
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
                assert_eq!(plain.dist(u, v), healed.dist(u, v));
            }
        }
    }

    #[test]
    fn pinned_seed_recompute_past_capacity_is_deterministic() {
        use rand::RngExt;
        // Two independent providers fed the identical pseudorandom lookup
        // stream (pinned seed, capacity far below the working set) must
        // agree with the reference on every answer, and with each other
        // on every counter and the resident set.
        let g = isp(9);
        let reference = RoutingTables::compute(&g);
        let nodes: Vec<NodeId> = g.nodes().collect();
        let a = OnDemandRoutes::new(&g, 3);
        let b = OnDemandRoutes::new(&g, 3);
        let mut rng = StdRng::seed_from_u64(0xCAC4E);
        for _ in 0..200 {
            let u = nodes[rng.random_range(0..nodes.len())];
            let v = nodes[rng.random_range(0..nodes.len())];
            assert_eq!(a.next_hop(u, v), reference.next_hop(u, v), "hop {u}->{v}");
            assert_eq!(a.dist(u, v), reference.dist(u, v), "dist {u}->{v}");
            assert_eq!(b.next_hop(u, v), reference.next_hop(u, v), "hop {u}->{v}");
            assert_eq!(b.dist(u, v), reference.dist(u, v), "dist {u}->{v}");
            assert!(a.route_stats().cached_rows <= 3);
        }
        assert_eq!(a.route_stats(), b.route_stats());
        assert_eq!(a.cached_sources(), b.cached_sources());
        let s = a.route_stats();
        assert_eq!(s.cached_rows, 3);
        assert!(
            s.computed > 3,
            "rows past the capacity must be recomputed per lookup"
        );
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
            let next = warm.rerouted(node_down.clone(), edge_down.clone());
            assert_eq!(next.route_stats().invalidated, 0);
            assert_eq!(next.cached_sources(), rows, "router rows survive");
            assert_eq!(warm.cached_sources(), rows, "and stay in the parent");
            let fresh = RoutingTables::compute_avoiding(&g, &node_down, &edge_down);
            assert_same_routes(&g, &fresh, &next);
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
        let map = 16 * g.node_count();
        let slots = 16 * routers;
        assert_eq!(
            lazy.state_bytes(),
            rows * Row::bytes(routers) + slots + map + masks,
            "rows span the {routers} routers, not all {} nodes",
            g.node_count()
        );
        assert_eq!(Row::bytes(routers), routers * 16);
    }
}
