//! Route memo equivalence: walking a kept hop-distance row
//! ([`Adjacency::distances_to`] once per destination, then
//! [`Adjacency::next_hop`] per step) yields, for every (source,
//! destination) pair of every point-to-point preset family, exactly the
//! clusters of [`Interconnect::route_with`] and the lowest link between
//! each consecutive pair. Both are also checked against an independent
//! reference of the (hop count, lowest link id) rule: all-pairs distances
//! by Floyd–Warshall over the raw link table and a per-hop scan of that
//! table. Unreachable pairs must read `u32::MAX` in the row exactly when
//! `route_with` reports [`RouteError::Unreachable`].

use clasp_machine::{presets, Adjacency, ClusterId, Interconnect, Link, LinkId, RouteError};

/// Reference route: `None` when unreachable, else every hop as
/// (cluster reached, link taken).
fn reference(links: &[Link], k: usize, from: usize, to: usize) -> Option<Vec<(usize, usize)>> {
    let mut d = vec![vec![u32::MAX; k]; k];
    for (i, row) in d.iter_mut().enumerate() {
        row[i] = 0;
    }
    for l in links {
        let (a, b) = (l.a.index(), l.b.index());
        if a != b {
            d[a][b] = 1;
            d[b][a] = 1;
        }
    }
    for m in 0..k {
        for i in 0..k {
            for j in 0..k {
                let via = d[i][m].saturating_add(d[m][j]);
                if via < d[i][j] {
                    d[i][j] = via;
                }
            }
        }
    }
    if d[from][to] == u32::MAX {
        return None;
    }
    let mut hops = Vec::new();
    let mut cur = from;
    while cur != to {
        let (id, next) = links
            .iter()
            .enumerate()
            .filter_map(|(id, l)| {
                let other = l.other(ClusterId(cur as u32))?.index();
                (d[other][to] + 1 == d[cur][to]).then_some((id, other))
            })
            .min()
            .expect("a closer neighbour");
        hops.push((next, id));
        cur = next;
    }
    Some(hops)
}

/// Every pair of `ic` over `k` clusters: memo walk == `route_with` (and
/// == the reference when `with_reference`). Returns the number of
/// unreachable pairs seen.
fn check_fabric(name: &str, ic: &Interconnect, k: usize, with_reference: bool) -> usize {
    let adj: Adjacency = ic.adjacency(k);
    let mut unreachable = 0;
    for t in 0..k {
        let to = ClusterId(t as u32);
        let row = adj.distances_to(to);
        for s in 0..k {
            let from = ClusterId(s as u32);
            let routed = ic.route_with(&adj, from, to);
            if s == t {
                assert_eq!(row[s], 0, "{name}: {from} is its own destination");
                assert_eq!(routed, Ok(vec![from]), "{name}: {from} -> itself");
                continue;
            }
            if row[s] == u32::MAX {
                unreachable += 1;
                assert_eq!(
                    routed,
                    Err(RouteError::Unreachable { from, to }),
                    "{name}: the row marks {from} -> {to} unreachable"
                );
                if with_reference {
                    assert_eq!(
                        reference(ic.links(), k, s, t),
                        None,
                        "{name}: {from} -> {to}"
                    );
                }
                continue;
            }
            let mut walked = Vec::new();
            let mut cur = from;
            while cur != to {
                let (next, link) = adj.next_hop(&row, cur);
                walked.push((next, link));
                cur = next;
            }
            let path = routed.unwrap_or_else(|e| panic!("{name}: {from} -> {to}: {e}"));
            assert_eq!(
                walked.len() as u32,
                row[s],
                "{name}: hop count {from} -> {to}"
            );
            let clusters: Vec<ClusterId> = std::iter::once(from)
                .chain(walked.iter().map(|&(c, _)| c))
                .collect();
            assert_eq!(clusters, path, "{name}: clusters {from} -> {to}");
            for (hop, &(_, link)) in path.windows(2).zip(&walked) {
                assert_eq!(
                    Some(link),
                    adj.link_between(hop[0], hop[1]),
                    "{name}: link {} -> {} on {from} -> {to}",
                    hop[0],
                    hop[1]
                );
            }
            if with_reference {
                let expected: Vec<(ClusterId, LinkId)> = reference(ic.links(), k, s, t)
                    .expect("reachable in the reference")
                    .into_iter()
                    .map(|(c, l)| (ClusterId(c as u32), LinkId(l as u32)))
                    .collect();
                assert_eq!(walked, expected, "{name}: reference {from} -> {to}");
            }
        }
    }
    unreachable
}

#[test]
fn memoized_routes_equal_route_with_on_every_family() {
    let mut machines = vec![presets::four_cluster_grid(2)];
    for (r, c) in [(2, 2), (2, 3), (3, 3), (2, 5), (4, 4)] {
        machines.push(presets::mesh(r, c));
        machines.push(presets::torus(r, c));
        machines.push(presets::pe_grid(r, c));
    }
    for (n, seed) in [(2, 1), (4, 1), (6, 7), (9, 0x2a), (16, 3), (24, 0xbeef)] {
        machines.push(presets::het(n, seed));
    }
    for m in &machines {
        let unreachable = check_fabric(m.name(), m.interconnect(), m.cluster_count(), true);
        assert_eq!(unreachable, 0, "{}: presets are connected", m.name());
    }
    // The largest mesh the preset grammar allows: memo vs route_with only
    // (the cubic reference is too slow there).
    let m = presets::mesh(16, 16);
    check_fabric(m.name(), m.interconnect(), m.cluster_count(), false);
}

#[test]
fn unreachable_pairs_are_skipped_the_same_way() {
    let mesh = presets::mesh(3, 3);
    let full = mesh.interconnect().links();
    let fabric = |keep: &dyn Fn(&Link) -> bool| Interconnect::PointToPoint {
        links: full.iter().copied().filter(|l| keep(l)).collect(),
        read_ports: 2,
        write_ports: 2,
    };
    // C8 cut off entirely; then the mesh split into a top row and the
    // rest; then the centre cut off, which also forces the ring around it
    // to detour.
    let corner = fabric(&|l| !l.touches(ClusterId(8)));
    assert_eq!(check_fabric("corner", &corner, 9, true), 16);
    let split = fabric(&|l| !(l.a.index() < 3 && l.b.index() >= 3));
    assert_eq!(check_fabric("split", &split, 9, true), 2 * 3 * 6);
    let holed = fabric(&|l| !l.touches(ClusterId(4)));
    assert_eq!(check_fabric("holed", &holed, 9, true), 16);
    // Parallel links and a self loop: the lower id of a pair wins.
    let odd = Interconnect::PointToPoint {
        links: [(0, 1), (1, 2), (0, 1), (2, 2), (2, 3), (1, 2)]
            .iter()
            .map(|&(a, b)| Link {
                a: ClusterId(a),
                b: ClusterId(b),
            })
            .collect(),
        read_ports: 1,
        write_ports: 1,
    };
    assert_eq!(check_fabric("odd", &odd, 5, true), 8);
}
