//! The split of a topology into its routing *core* and its *stubs*
//! (single-homed hosts), which lets [`crate::provider::OnDemandRoutes`]
//! keep SPF rows over the core only; see the provider module docs for
//! why that is exact.
//!
//! [`StubMap`] holds one 16-byte [`Attach`] per node and is built in one
//! pass over nodes plus one over edges.

use hbh_topo::csr::Csr;
use hbh_topo::graph::{Cost, EdgeId, LinkId, NodeId};
use std::num::NonZeroU32;

/// How one node attaches to the core.
#[derive(Clone, Copy, Debug)]
struct Attach {
    /// The node's own core index, or for a stub its access router's.
    core: u32,
    /// For a stub, the cost of the access router → stub half-link; `None`
    /// for a core node. (Link costs are ≥ 1, so it is never zero.)
    down_cost: Option<NonZeroU32>,
    /// For a stub, its stub → router half-link (an [`EdgeId`] index).
    up: u32,
    /// For a stub, the cost of that half-link.
    up_cost: Cost,
}

/// A stub's access half-links.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Access {
    /// Core index of the access router.
    pub(crate) core: u32,
    /// Stub → router half-link and its cost.
    pub(crate) up: EdgeId,
    pub(crate) up_cost: Cost,
    /// Router → stub half-link and its cost.
    pub(crate) down: EdgeId,
    pub(crate) down_cost: Cost,
}

/// Per-node core indices and access-link costs (see the module docs).
#[derive(Debug)]
pub(crate) struct StubMap {
    attach: Box<[Attach]>,
    core_count: usize,
}

/// Core index of a stub not yet reached from its access router.
const PENDING: u32 = u32::MAX;

impl StubMap {
    /// Splits `csr` into core and stubs in O(n + m).
    ///
    /// Core indices ascend with node ids, so a search over core indices
    /// visits and tie-breaks exactly like one over node ids.
    ///
    /// # Panics
    /// Panics if a stub's reverse half-link is not the edge id paired with
    /// its up-link (`up ^ 1`), which [`Access`] relies on.
    pub(crate) fn build(csr: &Csr) -> Self {
        let n = csr.node_count();
        let mut attach = Vec::with_capacity(n);
        let mut core_count = 0u32;
        for v in 0..n {
            let v = NodeId(v as u32);
            let mut a = Attach {
                core: PENDING,
                down_cost: None,
                up: 0,
                up_cost: 0,
            };
            if let Some((router, up, up_cost)) = Self::uplink(csr, v) {
                // `Graph` allocates the two halves of a link as one pair
                // of consecutive edge ids.
                assert_eq!(
                    csr.edge_ends(EdgeId(up.0 ^ 1)),
                    LinkId::new(router, v),
                    "stub {v}: reverse half-link is not edge {}",
                    up.0 ^ 1
                );
                (a.up, a.up_cost) = (up.0, up_cost);
            } else {
                a.core = core_count;
                core_count += 1;
            }
            attach.push(a);
        }
        // A stub's only in-edge comes from its access router, which is a
        // router and therefore core: one sweep over the core's out-edges
        // fills in every stub.
        for u in 0..n {
            let u_core = attach[u].core;
            if u_core == PENDING {
                continue;
            }
            let (to, cost, _) = csr.out_slices(NodeId(u as u32));
            for (&v, &c) in to.iter().zip(cost) {
                let a = &mut attach[v as usize];
                if a.core == PENDING {
                    a.core = u_core;
                    a.down_cost = Some(NonZeroU32::new(c).expect("link costs are >= 1"));
                }
            }
        }
        debug_assert!(attach.iter().all(|a| a.core != PENDING));
        StubMap {
            attach: attach.into_boxed_slice(),
            core_count: core_count as usize,
        }
    }

    /// The access router, up-link and its cost if `v` is a stub.
    fn uplink(csr: &Csr, v: NodeId) -> Option<(NodeId, EdgeId, Cost)> {
        if !csr.is_host(v) || csr.out_degree(v) != 1 {
            return None;
        }
        let (to, cost, eid) = csr.out_slices(v);
        let router = NodeId(to[0]);
        (!csr.is_host(router)).then_some((router, EdgeId(eid[0]), cost[0]))
    }

    /// Number of core nodes (the width of an SPF row).
    pub(crate) fn core_count(&self) -> usize {
        self.core_count
    }

    /// The core index of `v`, or `None` if `v` is a stub.
    #[inline]
    pub(crate) fn core_index(&self, v: NodeId) -> Option<usize> {
        let a = self.attach[v.index()];
        a.down_cost.is_none().then_some(a.core as usize)
    }

    /// `v`'s access half-links if it is a stub, `None` if it is core.
    #[inline]
    pub(crate) fn access(&self, v: NodeId) -> Option<Access> {
        let a = self.attach[v.index()];
        Some(Access {
            core: a.core,
            up: EdgeId(a.up),
            up_cost: a.up_cost,
            down: EdgeId(a.up ^ 1),
            down_cost: a.down_cost?.get(),
        })
    }

    /// Heap bytes of the map.
    pub(crate) fn bytes(&self) -> usize {
        self.attach.len() * size_of::<Attach>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbh_topo::graph::Graph;
    use hbh_topo::scenarios;

    #[test]
    fn single_homed_hosts_are_stubs_and_the_rest_is_core() {
        let mut g = Graph::new();
        let a = g.add_router();
        let b = g.add_router();
        g.add_link(a, b, 2, 3);
        let h = g.add_host(b, 4, 5);
        let csr = Csr::from_graph(&g);
        let map = StubMap::build(&csr);
        assert_eq!(map.core_count(), 2);
        assert_eq!((map.core_index(a), map.core_index(b)), (Some(0), Some(1)));
        assert_eq!(map.core_index(h), None);
        let acc = map.access(h).unwrap();
        assert_eq!(acc.core, 1);
        assert_eq!((acc.up_cost, acc.down_cost), (5, 4));
        assert_eq!(csr.edge_ends(acc.up), LinkId::new(h, b));
        assert_eq!(csr.edge_ends(acc.down), LinkId::new(b, h));
        assert!(map.access(a).is_none());
        assert_eq!(map.bytes(), 3 * 16, "16 bytes per node");
    }

    #[test]
    fn dual_homed_host_stays_core() {
        let g = scenarios::fig2();
        let csr = Csr::from_graph(&g);
        let map = StubMap::build(&csr);
        let r1 = g.node_by_label("r1").unwrap();
        assert_eq!(g.degree(r1), 2);
        assert!(map.core_index(r1).is_some(), "two links: core");
        // Core indices ascend with node ids.
        let cores: Vec<usize> = g.nodes().filter_map(|v| map.core_index(v)).collect();
        assert_eq!(cores, (0..map.core_count()).collect::<Vec<_>>());
    }
}
