//! Inter-cluster communication fabric (paper §2.1, Figures 2-4).
//!
//! A copy operation moves one value between clusters. It always consumes
//! one *read port* on the source cluster's register file and one *write
//! port* on each destination cluster, plus transport:
//!
//! - on a **bused** machine, one bus for one cycle; the value is broadcast,
//!   so a single copy can be written into several clusters at once (each
//!   destination needing its own write port);
//! - on a **point-to-point** machine, the entire link between the two
//!   clusters for one cycle; data reaches exactly the linked cluster.

use crate::cluster::ClusterId;
use std::fmt;

/// Identifier of a point-to-point link (dense index into the machine's
/// link table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LinkId(pub u32);

impl LinkId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// A bidirectional dedicated connection between two clusters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Link {
    /// One endpoint.
    pub a: ClusterId,
    /// The other endpoint.
    pub b: ClusterId,
}

impl Link {
    /// Whether the link touches cluster `c`.
    pub fn touches(&self, c: ClusterId) -> bool {
        self.a == c || self.b == c
    }

    /// The endpoint opposite to `c`, if `c` is an endpoint.
    pub fn other(&self, c: ClusterId) -> Option<ClusterId> {
        if self.a == c {
            Some(self.b)
        } else if self.b == c {
            Some(self.a)
        } else {
            None
        }
    }
}

/// Why no route could be produced between two clusters.
///
/// Returned by [`Interconnect::route`] / [`Interconnect::route_with`];
/// callers that only care about feasibility can `.ok()` the result, while
/// diagnostics keep the precise cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteError {
    /// The machine has no inter-cluster fabric at all (no links and no
    /// usable bus), so no distinct pair of clusters can communicate.
    NoFabric,
    /// An endpoint lies outside the range of clusters the fabric spans.
    OutOfRange {
        /// The offending endpoint.
        cluster: ClusterId,
    },
    /// The fabric exists but no sequence of links joins the pair.
    Unreachable {
        /// Source cluster of the failed query.
        from: ClusterId,
        /// Destination cluster of the failed query.
        to: ClusterId,
    },
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::NoFabric => write!(f, "machine has no inter-cluster fabric"),
            RouteError::OutOfRange { cluster } => {
                write!(f, "cluster {cluster} lies outside the fabric")
            }
            RouteError::Unreachable { from, to } => {
                write!(f, "no route from {from} to {to}")
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// The communication fabric of a clustered machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Interconnect {
    /// No inter-cluster communication (unified, single-cluster machines).
    None,
    /// `buses` broadcast buses shared by all clusters; each cluster owns
    /// `read_ports` register-file read ports and `write_ports` write ports
    /// feeding/draining the buses.
    Bus {
        /// Number of shared broadcast buses.
        buses: u32,
        /// Bus read ports per cluster (source side of a copy).
        read_ports: u32,
        /// Bus write ports per cluster (destination side of a copy).
        write_ports: u32,
    },
    /// Dedicated point-to-point connections; each cluster owns `read_ports`
    /// / `write_ports` shared across its links.
    PointToPoint {
        /// The link table.
        links: Vec<Link>,
        /// Link read ports per cluster.
        read_ports: u32,
        /// Link write ports per cluster.
        write_ports: u32,
    },
}

impl Interconnect {
    /// Whether copies broadcast (one copy may serve several destination
    /// clusters). True for buses, false for point-to-point and `None`.
    pub fn is_broadcast(&self) -> bool {
        matches!(self, Interconnect::Bus { .. })
    }

    /// Number of shared buses (0 for non-bused fabrics).
    pub fn bus_count(&self) -> u32 {
        match self {
            Interconnect::Bus { buses, .. } => *buses,
            _ => 0,
        }
    }

    /// The point-to-point link table (empty for other fabrics).
    pub fn links(&self) -> &[Link] {
        match self {
            Interconnect::PointToPoint { links, .. } => links,
            _ => &[],
        }
    }

    /// Read ports per cluster (0 when there is no fabric).
    pub fn read_ports(&self) -> u32 {
        match self {
            Interconnect::None => 0,
            Interconnect::Bus { read_ports, .. }
            | Interconnect::PointToPoint { read_ports, .. } => *read_ports,
        }
    }

    /// Write ports per cluster (0 when there is no fabric).
    pub fn write_ports(&self) -> u32 {
        match self {
            Interconnect::None => 0,
            Interconnect::Bus { write_ports, .. }
            | Interconnect::PointToPoint { write_ports, .. } => *write_ports,
        }
    }

    /// For point-to-point fabrics: the link connecting `from` and `to`,
    /// if one exists. One linear scan of the link table; routing-heavy
    /// callers should build an [`Adjacency`] once and use
    /// [`Adjacency::link_between`] (degree-bounded) instead.
    pub fn link_between(&self, from: ClusterId, to: ClusterId) -> Option<LinkId> {
        self.links()
            .iter()
            .position(|l| (l.a == from && l.b == to) || (l.a == to && l.b == from))
            .map(|i| LinkId(i as u32))
    }

    /// Build the adjacency index of the fabric (empty for bused and
    /// fabric-less machines — only point-to-point links have topology).
    pub fn adjacency(&self, cluster_count: usize) -> Adjacency {
        Adjacency::build(self.links(), cluster_count)
    }

    /// For point-to-point fabrics: the neighbours of cluster `c`.
    pub fn neighbors(&self, c: ClusterId) -> Vec<ClusterId> {
        self.links().iter().filter_map(|l| l.other(c)).collect()
    }

    /// Whether any value can move from `from` to `to` in one hop.
    ///
    /// On bused machines every pair is one hop apart; point-to-point needs
    /// a direct link.
    pub fn directly_connected(&self, from: ClusterId, to: ClusterId) -> bool {
        match self {
            Interconnect::None => false,
            Interconnect::Bus { buses, .. } => *buses > 0 && from != to,
            Interconnect::PointToPoint { .. } => self.link_between(from, to).is_some(),
        }
    }

    /// BFS shortest hop path `from -> to` over the fabric, inclusive of
    /// both endpoints. On bused machines every distinct pair is
    /// `[from, to]`.
    ///
    /// Tied shortest paths resolve deterministically by
    /// (hop count, lowest link id): at every hop the route takes the
    /// lowest-numbered link leading one hop closer to `to`. The previous
    /// implementation followed BFS queue order, which made mesh/torus
    /// routes depend on link-table insertion order.
    ///
    /// Builds the [`Adjacency`] index for this one query; callers routing
    /// many pairs on the same fabric should build it once and call
    /// [`Interconnect::route_with`].
    ///
    /// # Errors
    ///
    /// A typed [`RouteError`] when the pair cannot communicate: no fabric,
    /// an endpoint out of range, or an unreachable destination.
    pub fn route(
        &self,
        from: ClusterId,
        to: ClusterId,
        cluster_count: usize,
    ) -> Result<Vec<ClusterId>, RouteError> {
        match self {
            Interconnect::PointToPoint { links, .. } => {
                self.route_with(&Adjacency::build(links, cluster_count), from, to)
            }
            _ => self.route_with(&Adjacency::default(), from, to),
        }
    }

    /// [`Interconnect::route`] against a prebuilt [`Adjacency`] — the
    /// allocation the old implementation paid per *visited node* (a fresh
    /// neighbour `Vec` inside the BFS inner loop, O(V·E) per query on
    /// point-to-point fabrics) is paid once per fabric instead.
    ///
    /// # Errors
    ///
    /// A typed [`RouteError`] when the pair cannot communicate.
    pub fn route_with(
        &self,
        adj: &Adjacency,
        from: ClusterId,
        to: ClusterId,
    ) -> Result<Vec<ClusterId>, RouteError> {
        if from == to {
            return Ok(vec![from]);
        }
        match self {
            Interconnect::None => Err(RouteError::NoFabric),
            Interconnect::Bus { buses, .. } => {
                if *buses > 0 {
                    Ok(vec![from, to])
                } else {
                    Err(RouteError::NoFabric)
                }
            }
            Interconnect::PointToPoint { .. } => {
                for c in [from, to] {
                    if c.index() >= adj.cluster_count() {
                        return Err(RouteError::OutOfRange { cluster: c });
                    }
                }
                let dist = adj.distances_to(to);
                if dist[from.index()] == u32::MAX {
                    return Err(RouteError::Unreachable { from, to });
                }
                let mut path = Vec::with_capacity(dist[from.index()] as usize + 1);
                let mut cur = from;
                path.push(cur);
                while cur != to {
                    cur = adj.next_hop(&dist, cur).0;
                    path.push(cur);
                }
                Ok(path)
            }
        }
    }
}

/// A CSR adjacency index over a point-to-point link table: for each
/// cluster, its `(neighbour, link)` pairs in link-table order — the same
/// neighbour order [`Interconnect::neighbors`] produces, so BFS routes
/// over the index are identical to routes over the raw link table.
///
/// Build once per fabric ([`Interconnect::adjacency`]) and share across
/// route queries; it turns the old O(V·E) per-query routing (a fresh
/// neighbour `Vec` per visited node, a link-table scan per hop lookup)
/// into O(V+E) with degree-bounded link lookups.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Adjacency {
    /// `offsets[c] .. offsets[c + 1]` indexes `entries` for cluster `c`.
    offsets: Vec<usize>,
    /// Flattened `(neighbour, link)` pairs.
    entries: Vec<(ClusterId, LinkId)>,
}

impl Adjacency {
    /// Index `links` over `cluster_count` clusters.
    pub fn build(links: &[Link], cluster_count: usize) -> Adjacency {
        let mut degree = vec![0usize; cluster_count];
        for l in links {
            degree[l.a.index()] += 1;
            if l.b != l.a {
                degree[l.b.index()] += 1;
            }
        }
        let mut offsets = Vec::with_capacity(cluster_count + 1);
        let mut total = 0usize;
        offsets.push(0);
        for d in &degree {
            total += d;
            offsets.push(total);
        }
        let mut cursor = offsets[..cluster_count].to_vec();
        let mut entries = vec![(ClusterId(0), LinkId(0)); total];
        for (i, l) in links.iter().enumerate() {
            let id = LinkId(i as u32);
            entries[cursor[l.a.index()]] = (l.b, id);
            cursor[l.a.index()] += 1;
            if l.b != l.a {
                entries[cursor[l.b.index()]] = (l.a, id);
                cursor[l.b.index()] += 1;
            }
        }
        Adjacency { offsets, entries }
    }

    /// Number of clusters the index was built over.
    pub fn cluster_count(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// The `(neighbour, link)` pairs of cluster `c`, in link-table order.
    pub fn neighbors(&self, c: ClusterId) -> &[(ClusterId, LinkId)] {
        if c.index() + 1 >= self.offsets.len() {
            return &[];
        }
        &self.entries[self.offsets[c.index()]..self.offsets[c.index() + 1]]
    }

    /// Hop distance from every cluster to `to` (`u32::MAX` where `to` is
    /// unreachable), by plain BFS from `to`. Distances are a pure function
    /// of the topology, so no ordering sensitivity can enter here. With
    /// [`Adjacency::next_hop`] this is the fabric's one routing rule:
    /// [`Interconnect::route_with`] uses it per query, and callers routing
    /// many values to the same cluster keep the row.
    ///
    /// # Panics
    ///
    /// Panics if `to` lies outside the index.
    pub fn distances_to(&self, to: ClusterId) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.cluster_count()];
        let mut queue = Vec::with_capacity(self.cluster_count());
        dist[to.index()] = 0;
        queue.push(to);
        let mut head = 0;
        while let Some(&c) = queue.get(head) {
            head += 1;
            for &(nb, _) in self.neighbors(c) {
                if dist[nb.index()] == u32::MAX {
                    dist[nb.index()] = dist[c.index()] + 1;
                    queue.push(nb);
                }
            }
        }
        dist
    }

    /// One step of the (hop count, lowest link id) route from `cur` toward
    /// the cluster whose [`Adjacency::distances_to`] row is `dist`: the
    /// lowest-numbered link that moves one hop closer, and the cluster it
    /// reaches. Allocation-free, so a kept row routes without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `cur` is the destination or cannot reach it.
    pub fn next_hop(&self, dist: &[u32], cur: ClusterId) -> (ClusterId, LinkId) {
        let d = dist[cur.index()];
        assert!(d != 0 && d != u32::MAX, "{cur} has no next hop");
        self.neighbors(cur)
            .iter()
            .copied()
            .filter(|&(nb, _)| dist[nb.index()] == d - 1)
            .min_by_key(|&(nb, l)| (l, nb))
            .expect("a cluster on a shortest path has a closer neighbour")
    }

    /// The lowest-indexed link joining `from` and `to`, scanning only
    /// `from`'s neighbours (the old [`Interconnect::link_between`]
    /// scanned the whole link table).
    pub fn link_between(&self, from: ClusterId, to: ClusterId) -> Option<LinkId> {
        self.neighbors(from)
            .iter()
            .filter(|&&(nb, _)| nb == to)
            .map(|&(_, l)| l)
            .min()
    }
}

impl fmt::Display for Interconnect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Interconnect::None => write!(f, "no interconnect"),
            Interconnect::Bus {
                buses,
                read_ports,
                write_ports,
            } => write!(f, "{buses} bus(es), {read_ports}R/{write_ports}W ports"),
            Interconnect::PointToPoint {
                links,
                read_ports,
                write_ports,
            } => write!(
                f,
                "{} p2p link(s), {read_ports}R/{write_ports}W ports",
                links.len()
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Interconnect {
        // 2x2 grid: 0-1, 0-2, 1-3, 2-3 (no diagonal).
        Interconnect::PointToPoint {
            links: vec![
                Link {
                    a: ClusterId(0),
                    b: ClusterId(1),
                },
                Link {
                    a: ClusterId(0),
                    b: ClusterId(2),
                },
                Link {
                    a: ClusterId(1),
                    b: ClusterId(3),
                },
                Link {
                    a: ClusterId(2),
                    b: ClusterId(3),
                },
            ],
            read_ports: 2,
            write_ports: 2,
        }
    }

    #[test]
    fn bus_is_broadcast() {
        let b = Interconnect::Bus {
            buses: 2,
            read_ports: 1,
            write_ports: 1,
        };
        assert!(b.is_broadcast());
        assert!(b.directly_connected(ClusterId(0), ClusterId(1)));
        assert_eq!(
            b.route(ClusterId(0), ClusterId(1), 2),
            Ok(vec![ClusterId(0), ClusterId(1)])
        );
    }

    #[test]
    fn grid_neighbors() {
        let g = grid();
        let mut n0 = g.neighbors(ClusterId(0));
        n0.sort();
        assert_eq!(n0, vec![ClusterId(1), ClusterId(2)]);
        assert!(g.directly_connected(ClusterId(0), ClusterId(1)));
        assert!(!g.directly_connected(ClusterId(0), ClusterId(3)));
    }

    #[test]
    fn grid_diagonal_routes_in_two_hops() {
        let g = grid();
        let path = g.route(ClusterId(0), ClusterId(3), 4).unwrap();
        assert_eq!(path.len(), 3);
        assert_eq!(path[0], ClusterId(0));
        assert_eq!(path[2], ClusterId(3));
        assert!(g.directly_connected(path[0], path[1]));
        assert!(g.directly_connected(path[1], path[2]));
    }

    #[test]
    fn link_lookup() {
        let g = grid();
        assert_eq!(g.link_between(ClusterId(0), ClusterId(1)), Some(LinkId(0)));
        assert_eq!(g.link_between(ClusterId(1), ClusterId(0)), Some(LinkId(0)));
        assert_eq!(g.link_between(ClusterId(0), ClusterId(3)), None);
    }

    #[test]
    fn none_has_no_connectivity() {
        let n = Interconnect::None;
        assert!(!n.directly_connected(ClusterId(0), ClusterId(1)));
        assert_eq!(
            n.route(ClusterId(0), ClusterId(1), 2),
            Err(RouteError::NoFabric)
        );
        assert_eq!(
            n.route(ClusterId(0), ClusterId(0), 1),
            Ok(vec![ClusterId(0)])
        );
        assert_eq!(n.bus_count(), 0);
        assert_eq!(n.read_ports(), 0);
    }

    #[test]
    fn zero_bus_fabric_routes_nothing() {
        let b = Interconnect::Bus {
            buses: 0,
            read_ports: 1,
            write_ports: 1,
        };
        assert_eq!(
            b.route(ClusterId(0), ClusterId(1), 2),
            Err(RouteError::NoFabric)
        );
    }

    #[test]
    fn unreachable_route() {
        let g = Interconnect::PointToPoint {
            links: vec![Link {
                a: ClusterId(0),
                b: ClusterId(1),
            }],
            read_ports: 1,
            write_ports: 1,
        };
        assert_eq!(
            g.route(ClusterId(0), ClusterId(2), 3),
            Err(RouteError::Unreachable {
                from: ClusterId(0),
                to: ClusterId(2),
            })
        );
        assert_eq!(
            g.route(ClusterId(7), ClusterId(1), 3),
            Err(RouteError::OutOfRange {
                cluster: ClusterId(7),
            })
        );
    }

    /// The old `route` implementation, verbatim: `neighbors()` allocating
    /// a fresh `Vec` per visited node inside the BFS. Kept as a reference;
    /// on the tie-free fabrics below (and on the 2x2 grid, whose only tie
    /// resolves the same way) the deterministic implementation must match
    /// it path-for-path.
    fn route_old(
        ic: &Interconnect,
        from: ClusterId,
        to: ClusterId,
        cluster_count: usize,
    ) -> Option<Vec<ClusterId>> {
        if from == to {
            return Some(vec![from]);
        }
        match ic {
            Interconnect::None => None,
            Interconnect::Bus { buses, .. } => {
                if *buses > 0 {
                    Some(vec![from, to])
                } else {
                    None
                }
            }
            Interconnect::PointToPoint { .. } => {
                let mut prev: Vec<Option<ClusterId>> = vec![None; cluster_count];
                let mut seen = vec![false; cluster_count];
                let mut queue = std::collections::VecDeque::new();
                seen[from.index()] = true;
                queue.push_back(from);
                while let Some(c) = queue.pop_front() {
                    if c == to {
                        let mut path = vec![to];
                        let mut cur = to;
                        while let Some(p) = prev[cur.index()] {
                            path.push(p);
                            cur = p;
                        }
                        path.reverse();
                        return Some(path);
                    }
                    for nb in ic.neighbors(c) {
                        if !seen[nb.index()] {
                            seen[nb.index()] = true;
                            prev[nb.index()] = Some(c);
                            queue.push_back(nb);
                        }
                    }
                }
                None
            }
        }
    }

    #[test]
    fn indexed_route_equals_old_route_on_generated_grid() {
        // The satellite's regression machine: a generated 4-cluster grid.
        let g = crate::presets::four_cluster_grid(2);
        let ic = g.interconnect();
        let k = g.cluster_count();
        let adj = ic.adjacency(k);
        for a in 0..k {
            for b in 0..k {
                let (a, b) = (ClusterId(a as u32), ClusterId(b as u32));
                assert_eq!(
                    ic.route(a, b, k).ok(),
                    route_old(ic, a, b, k),
                    "route {a} -> {b} diverged"
                );
                assert_eq!(
                    ic.route_with(&adj, a, b).ok(),
                    route_old(ic, a, b, k),
                    "route_with {a} -> {b} diverged"
                );
            }
        }
    }

    #[test]
    fn indexed_route_equals_old_route_on_irregular_fabrics() {
        // Beyond the grid: a line, a star, a fabric with an unreachable
        // island, and parallel links between the same pair.
        let fabrics = [
            vec![(0, 1), (1, 2), (2, 3), (3, 4)],
            vec![(0, 1), (0, 2), (0, 3), (0, 4)],
            vec![(0, 1), (2, 3)],
            vec![(0, 1), (0, 1), (1, 2)],
        ];
        for links in fabrics {
            let k = 5;
            let ic = Interconnect::PointToPoint {
                links: links
                    .iter()
                    .map(|&(a, b)| Link {
                        a: ClusterId(a),
                        b: ClusterId(b),
                    })
                    .collect(),
                read_ports: 1,
                write_ports: 1,
            };
            let adj = ic.adjacency(k);
            for a in 0..k {
                for b in 0..k {
                    let (a, b) = (ClusterId(a as u32), ClusterId(b as u32));
                    assert_eq!(ic.route(a, b, k).ok(), route_old(&ic, a, b, k));
                    assert_eq!(ic.route_with(&adj, a, b).ok(), route_old(&ic, a, b, k));
                }
            }
        }
    }

    #[test]
    fn adjacency_matches_neighbors_and_link_between() {
        let g = grid();
        let adj = g.adjacency(4);
        assert_eq!(adj.cluster_count(), 4);
        for c in 0..4 {
            let c = ClusterId(c);
            let via_index: Vec<ClusterId> = adj.neighbors(c).iter().map(|&(nb, _)| nb).collect();
            assert_eq!(via_index, g.neighbors(c), "neighbour order of {c}");
            for o in 0..4 {
                let o = ClusterId(o);
                assert_eq!(adj.link_between(c, o), g.link_between(c, o));
            }
        }
        // Out-of-range queries degrade gracefully.
        assert_eq!(adj.neighbors(ClusterId(9)), &[]);
        assert_eq!(adj.link_between(ClusterId(9), ClusterId(0)), None);
    }

    fn ids(path: &[u32]) -> Vec<ClusterId> {
        path.iter().map(|&c| ClusterId(c)).collect()
    }

    #[test]
    fn mesh_ties_take_the_lowest_link_id() {
        // 3x3 mesh, canonical row-major link table:
        //   C0 - C1 - C2      L0=(0,1)  L1=(0,3)  L2=(1,2)  L3=(1,4)
        //   |    |    |       L4=(2,5)  L5=(3,4)  L6=(3,6)  L7=(4,5)
        //   C3 - C4 - C5      L8=(4,7)  L9=(5,8)  L10=(6,7) L11=(7,8)
        //   |    |    |
        //   C6 - C7 - C8
        let m = crate::presets::mesh(3, 3);
        let ic = m.interconnect();
        let adj = ic.adjacency(9);
        // 0 -> 4 ties between 0-1-4 and 0-3-4; L0 beats L1 at the first
        // hop, so the route goes through C1.
        assert_eq!(
            ic.route_with(&adj, ClusterId(0), ClusterId(4)).unwrap(),
            ids(&[0, 1, 4])
        );
        // 0 -> 8 has six tied 4-hop paths; greedy lowest-link-id picks the
        // top edge: L0 to C1, then L2 to C2, L4 to C5, L9 to C8.
        assert_eq!(
            ic.route_with(&adj, ClusterId(0), ClusterId(8)).unwrap(),
            ids(&[0, 1, 2, 5, 8])
        );
    }

    #[test]
    fn mesh_route_is_a_pure_function_of_the_link_table() {
        // Reversing the link table renumbers every link; the route must
        // still follow the (hop count, lowest link id) rule of the
        // *reversed* table — not whatever order BFS happens to visit in.
        let m = crate::presets::mesh(3, 3);
        let mut links: Vec<Link> = m.interconnect().links().to_vec();
        links.reverse();
        let ic = Interconnect::PointToPoint {
            links,
            read_ports: 2,
            write_ports: 2,
        };
        let adj = ic.adjacency(9);
        // Reversed ids: L0=(7,8), L1=(6,7), L5=(3,6), L10=(0,3), L11=(0,1).
        // Forward from C0 the lowest link is now L10 to C3, then L5 to C6,
        // L1 to C7, L0 to C8.
        assert_eq!(
            ic.route_with(&adj, ClusterId(0), ClusterId(8)).unwrap(),
            ids(&[0, 3, 6, 7, 8])
        );
        // Repeated queries are bit-identical.
        for _ in 0..4 {
            assert_eq!(
                ic.route_with(&adj, ClusterId(0), ClusterId(8)).unwrap(),
                ids(&[0, 3, 6, 7, 8])
            );
        }
    }

    #[test]
    fn mesh_with_removed_link_reroutes_or_reports_unreachable() {
        // The satellite regression: a 3x3 mesh with links removed. Dropping
        // one link must reroute around the hole; isolating a corner must
        // yield a typed error, not a panic or a loop.
        let m = crate::presets::mesh(3, 3);
        let full: Vec<Link> = m.interconnect().links().to_vec();

        // Remove L0 = (0,1): 0 -> 1 now goes around through C3/C4.
        let holed: Vec<Link> = full
            .iter()
            .copied()
            .filter(|l| !(l.a == ClusterId(0) && l.b == ClusterId(1)))
            .collect();
        let ic = Interconnect::PointToPoint {
            links: holed,
            read_ports: 2,
            write_ports: 2,
        };
        let adj = ic.adjacency(9);
        let path = ic.route_with(&adj, ClusterId(0), ClusterId(1)).unwrap();
        assert_eq!(path, ids(&[0, 3, 4, 1]));

        // Remove both links touching the C8 corner: 8 becomes an island.
        let isolated: Vec<Link> = full
            .iter()
            .copied()
            .filter(|l| !l.touches(ClusterId(8)))
            .collect();
        let ic = Interconnect::PointToPoint {
            links: isolated,
            read_ports: 2,
            write_ports: 2,
        };
        let adj = ic.adjacency(9);
        assert_eq!(
            ic.route_with(&adj, ClusterId(0), ClusterId(8)),
            Err(RouteError::Unreachable {
                from: ClusterId(0),
                to: ClusterId(8),
            })
        );
        assert_eq!(
            ic.route_with(&adj, ClusterId(8), ClusterId(4)),
            Err(RouteError::Unreachable {
                from: ClusterId(8),
                to: ClusterId(4),
            })
        );
    }

    #[test]
    fn route_error_displays() {
        assert_eq!(
            RouteError::NoFabric.to_string(),
            "machine has no inter-cluster fabric"
        );
        assert_eq!(
            RouteError::Unreachable {
                from: ClusterId(0),
                to: ClusterId(8),
            }
            .to_string(),
            "no route from C0 to C8"
        );
        assert_eq!(
            RouteError::OutOfRange {
                cluster: ClusterId(7),
            }
            .to_string(),
            "cluster C7 lies outside the fabric"
        );
    }

    #[test]
    fn display() {
        assert_eq!(
            Interconnect::Bus {
                buses: 2,
                read_ports: 1,
                write_ports: 1
            }
            .to_string(),
            "2 bus(es), 1R/1W ports"
        );
        assert!(grid().to_string().contains("4 p2p link(s)"));
    }
}
