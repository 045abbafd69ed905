//! Copy management: creating, sharing, routing, and releasing the explicit
//! inter-cluster copy operations the assignment phase inserts.
//!
//! Copies are identified by synthetic [`NodeId`]s allocated past the
//! original graph's node range (they become real graph nodes only when the
//! final assignment is materialized). Three invariants drive the design:
//!
//! - **Sharing.** On broadcast buses, one copy per produced value serves
//!   every destination cluster (extra destinations cost one write port
//!   each). On point-to-point fabrics each hop is its own copy.
//! - **Routing.** A value needed on a cluster with no direct link is
//!   routed as a chain of copies along a shortest available path; interior
//!   hops make the value available for later consumers too.
//! - **Reference counting.** Every consumer edge holds one *use* of the
//!   delivery at its cluster; chains hold uses of their upstream hop.
//!   Releasing the last use frees the copy's MRT resources recursively, so
//!   the iterative assigner can cleanly undo decisions (§4.3).

use clasp_ddg::NodeId;
use clasp_machine::{Adjacency, ClusterId, Interconnect, LinkId, MachineSpec};
use clasp_mrt::{CountMrt, Full};

/// An empty entry of the dense id tables.
const NONE: u32 = u32::MAX;

/// One live copy operation (not yet a graph node).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CopyRecord {
    /// The original operation whose value this copy transports.
    pub producer: NodeId,
    /// Cluster the copy reads from (the producer's cluster, or an
    /// intermediate hop).
    pub src: ClusterId,
    /// Destination clusters (several only on broadcast buses).
    pub targets: Vec<ClusterId>,
    /// Dedicated link (point-to-point fabrics only).
    pub link: Option<LinkId>,
}

/// One copy id's entry. A freed copy keeps its record, so undoing the
/// free only flips `live`, and the next copy under the same id reuses the
/// target buffer.
#[derive(Debug, Clone)]
struct Slot {
    live: bool,
    record: CopyRecord,
}

/// One reversible step in the manager's mutation journal. The producer
/// of each copy is read back from its slot.
#[derive(Debug, Clone)]
enum CopyUndo {
    /// A use count of (copy, target) was incremented.
    UseBumped(NodeId, ClusterId),
    /// A use count of (copy, target) was decremented (without reaching
    /// zero).
    UseDropped(NodeId, ClusterId),
    /// An existing broadcast copy gained this target (pushed last).
    TargetExtended(NodeId, ClusterId),
    /// A brand-new copy was created delivering to this target. Undone in
    /// LIFO order, so `next_id = copy` restores the id counter.
    Created(NodeId, ClusterId),
    /// A broadcast copy lost `target` (its last use released) at
    /// position `pos` of its target list.
    TargetCut {
        copy: NodeId,
        target: ClusterId,
        pos: usize,
    },
    /// A whole copy was freed (the last use at its one target released).
    Freed(NodeId, ClusterId),
}

/// A position in the mutation journal; see [`CopyManager::mark`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopyMark(usize);

/// Point-to-point routes, memoized: the fabric's adjacency index and, per
/// target cluster, its hop-distance row ([`Adjacency::distances_to`]),
/// each built on first use. Routes depend only on the topology, so the
/// memo survives [`CopyManager::reset`] and serves every II escalation.
#[derive(Debug, Clone, Default)]
struct RouteMemo {
    adj: Adjacency,
    /// `rows[t]`: hop distance from every cluster to `t`; empty until a
    /// value is first routed to `t`.
    rows: Vec<Vec<u32>>,
}

impl RouteMemo {
    /// The hop-distance row of `target` on `machine`'s fabric.
    fn row(&mut self, machine: &MachineSpec, target: ClusterId) -> &[u32] {
        if self.rows.is_empty() {
            let k = machine.cluster_count();
            self.adj = machine.interconnect().adjacency(k);
            self.rows = vec![Vec::new(); k];
        }
        let row = &mut self.rows[target.index()];
        if row.is_empty() {
            *row = self.adj.distances_to(target);
        }
        row
    }
}

/// Tracks all live copies, value availability, and per-target use counts.
///
/// Every table is dense: copies are indexed by id (ids are allocated
/// upward from `first_copy_id`), deliveries by (producer, cluster) and use
/// counts by (copy, target cluster). `rc` and the bused fabric's
/// broadcast-copy lookup read per-producer counters. Point-to-point
/// routes are memoized per target cluster and kept across resets, so a
/// manager serves one machine: pass the same `machine` to every call.
///
/// All resource effects go through the [`CountMrt`] passed to each call;
/// tentative work is undone through [`CopyManager::mark`] /
/// [`CopyManager::rollback_to`] together with the MRT's own journal.
#[derive(Debug, Clone, Default)]
pub struct CopyManager {
    /// Id of the copy in slot 0.
    first_id: u32,
    next_id: u32,
    /// Clusters per row of `avail` and `users` (0 until the first
    /// delivery).
    clusters: usize,
    /// Per copy id (slot `id - first_id`): its record and liveness.
    slots: Vec<Slot>,
    /// Number of live slots.
    live: usize,
    /// `avail[producer * clusters + cluster]`: the copy delivering
    /// `producer`'s value to `cluster` (never the producer's own), or
    /// `NONE`.
    avail: Vec<u32>,
    /// `users[slot * clusters + target]`: uses of that copy's delivery at
    /// `target` (consumer edges + chained hops). Zero wherever `target`
    /// is not a current target of a live copy.
    users: Vec<u32>,
    /// Per producer: live copies transporting its value (`RC(N)`).
    rc: Vec<u32>,
    /// Per producer: its broadcast copy on a bused fabric, or `NONE`.
    bcast: Vec<u32>,
    routes: RouteMemo,
    /// Undo log of every mutation since the last [`CopyManager::commit`];
    /// lets tentative work be rolled back instead of cloning the manager.
    journal: Vec<CopyUndo>,
}

impl CopyManager {
    /// Create a manager allocating copy ids from `first_copy_id` upward
    /// (pass the original graph's node count).
    pub fn new(first_copy_id: u32) -> Self {
        CopyManager {
            first_id: first_copy_id,
            next_id: first_copy_id,
            ..Self::default()
        }
    }

    /// Drop every live copy and restart id allocation at `first_copy_id`,
    /// retaining table capacity and the route memo for reuse. Costs
    /// O(live copies), not O(table size).
    pub fn reset(&mut self, first_copy_id: u32) {
        let k = self.clusters;
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if !slot.live {
                continue;
            }
            slot.live = false;
            let p = slot.record.producer.index();
            for &t in &slot.record.targets {
                self.avail[p * k + t.index()] = NONE;
                self.users[i * k + t.index()] = 0;
            }
            self.rc[p] = 0;
            self.bcast[p] = NONE;
        }
        self.live = 0;
        self.first_id = first_copy_id;
        self.next_id = first_copy_id;
        self.journal.clear();
    }

    /// Snapshot the journal position; [`CopyManager::rollback_to`]
    /// restores the manager to exactly this state.
    pub fn mark(&self) -> CopyMark {
        CopyMark(self.journal.len())
    }

    /// Undo every mutation made since `mark`, in reverse order. MRT-side
    /// effects are journaled by the [`CountMrt`] itself and must be rolled
    /// back there.
    pub fn rollback_to(&mut self, mark: CopyMark) {
        while self.journal.len() > mark.0 {
            match self.journal.pop().expect("journal entry") {
                CopyUndo::UseBumped(copy, target) => {
                    let u = self.user_at(copy, target);
                    self.users[u] -= 1;
                }
                CopyUndo::UseDropped(copy, target) => {
                    let u = self.user_at(copy, target);
                    self.users[u] += 1;
                }
                CopyUndo::TargetExtended(copy, target) => {
                    let i = self.slot_of(copy);
                    let popped = self.slots[i].record.targets.pop();
                    debug_assert_eq!(popped, Some(target));
                    self.set_delivery(copy, target, NONE, 0);
                }
                CopyUndo::Created(copy, target) => {
                    self.set_live(copy, false);
                    self.set_delivery(copy, target, NONE, 0);
                    // LIFO rollback: `copy` was the most recent allocation.
                    debug_assert_eq!(copy.0 + 1, self.next_id);
                    self.next_id = copy.0;
                }
                CopyUndo::TargetCut { copy, target, pos } => {
                    let i = self.slot_of(copy);
                    self.slots[i].record.targets.insert(pos, target);
                    self.set_delivery(copy, target, copy.0, 1);
                }
                CopyUndo::Freed(copy, target) => {
                    self.set_live(copy, true);
                    self.set_delivery(copy, target, copy.0, 1);
                }
            }
        }
    }

    /// Discard the undo log: everything done so far becomes permanent and
    /// earlier marks become invalid.
    pub fn commit(&mut self) {
        self.journal.clear();
    }

    /// Number of live copy operations.
    pub fn live_count(&self) -> usize {
        self.live
    }

    /// Number of live copies transporting `producer`'s value (the paper's
    /// `RC(N)`).
    pub fn rc(&self, producer: NodeId) -> u32 {
        self.rc.get(producer.index()).copied().unwrap_or(0)
    }

    /// Iterate over live copies in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &CopyRecord)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.live)
            .map(|(i, s)| (NodeId(self.first_id + i as u32), &s.record))
    }

    /// The copy delivering `producer`'s value to `cluster`, if the value
    /// has been copied there.
    pub fn delivery(&self, producer: NodeId, cluster: ClusterId) -> Option<NodeId> {
        if cluster.index() >= self.clusters {
            return None;
        }
        self.avail
            .get(self.avail_at(producer, cluster))
            .filter(|&&id| id != NONE)
            .map(|&id| NodeId(id))
    }

    /// The copy record for `id`.
    pub fn record(&self, id: NodeId) -> Option<&CopyRecord> {
        let i = id.0.checked_sub(self.first_id)? as usize;
        self.slots.get(i).filter(|s| s.live).map(|s| &s.record)
    }

    /// Make `producer`'s value (whose home cluster is `home`) available on
    /// `target`, reserving any new resources in `mrt`, and register one
    /// use. Returns the number of new copy operations created (0 when an
    /// existing delivery or broadcast extension sufficed).
    ///
    /// # Errors
    ///
    /// [`Full`] if the needed ports/bus/link slots are not available. The
    /// MRT may be left with partial chain reservations on error — callers
    /// snapshot state before tentative work, per the assigner's design.
    ///
    /// # Panics
    ///
    /// Panics if `target == home`.
    pub fn ensure_value_at(
        &mut self,
        mrt: &mut CountMrt,
        machine: &MachineSpec,
        producer: NodeId,
        home: ClusterId,
        target: ClusterId,
    ) -> Result<u32, Full> {
        assert_ne!(target, home, "value already lives on {target}");
        self.fit(machine, producer);
        if let Some(id) = self.delivery(producer, target) {
            self.bump_use(id, target);
            return Ok(0);
        }
        match machine.interconnect() {
            Interconnect::None => Err(Full),
            Interconnect::Bus { .. } => {
                // Reuse the single broadcast copy when one exists.
                let existing = self.bcast[producer.index()];
                if existing != NONE {
                    let id = NodeId(existing);
                    mrt.add_copy_target(id, target)?;
                    let i = self.slot_of(id);
                    self.slots[i].record.targets.push(target);
                    self.set_delivery(id, target, id.0, 1);
                    self.journal.push(CopyUndo::TargetExtended(id, target));
                    Ok(0)
                } else {
                    // Reserve under the peeked id first: a failed
                    // reservation must not consume an id, or a rolled
                    // back attempt would drift copy ids versus a
                    // from-scratch replay.
                    mrt.reserve_copy(NodeId(self.next_id), home, &[target], None)?;
                    self.create(producer, home, target, None, 1);
                    Ok(1)
                }
            }
            Interconnect::PointToPoint { .. } => {
                self.route_p2p(mrt, machine, producer, home, target)
            }
        }
    }

    /// Point-to-point delivery: hop-by-hop copies along the shortest path
    /// from the nearest cluster already holding the value.
    fn route_p2p(
        &mut self,
        mrt: &mut CountMrt,
        machine: &MachineSpec,
        producer: NodeId,
        home: ClusterId,
        target: ClusterId,
    ) -> Result<u32, Full> {
        let base = producer.index() * self.clusters;
        let dist = self.routes.row(machine, target);
        // Candidate sources: home, then every cluster already holding the
        // value in ascending id order. Strictly closer sources win, so
        // ties go to home first, then the lowest cluster id.
        let mut src = home;
        let mut best = dist[home.index()];
        for (c, &d) in dist.iter().enumerate() {
            if d < best && self.avail[base + c] != NONE {
                src = ClusterId(c as u32);
                best = d;
            }
        }
        if best == u32::MAX {
            return Err(Full);
        }
        let mut created = 0u32;
        let mut u = src;
        while u != target {
            let (v, link) = self
                .routes
                .adj
                .next_hop(&self.routes.rows[target.index()], u);
            // Interior clusters of the path may coincidentally already
            // hold the value (only when the path started at `home` but an
            // interior delivery exists); reuse it.
            if self.avail[base + v.index()] == NONE {
                // Peek the id; a failed reservation must not consume it
                // (see the bus path above).
                mrt.reserve_copy(NodeId(self.next_id), u, &[v], Some(link))?;
                // Interior hops start with zero uses; the next hop (or the
                // final consumer, below) registers the actual use.
                self.create(producer, u, v, Some(link), 0);
                created += 1;
                // The hop reads the value at `u`: that is a use of u's
                // delivery (unless u is the home cluster).
                if u != home {
                    if let Some(up) = self.delivery(producer, u) {
                        self.bump_use(up, u);
                    }
                }
            }
            u = v;
        }
        // Register the final consumer's use at the target.
        let last = NodeId(self.avail[base + target.index()]);
        self.bump_use(last, target);
        Ok(created)
    }

    /// Release one use of `producer`'s delivery at `target`; frees copies
    /// (and upstream chain hops) whose use count reaches zero.
    ///
    /// # Panics
    ///
    /// Panics if no delivery of `producer` at `target` exists.
    pub fn release_value_use(
        &mut self,
        mrt: &mut CountMrt,
        producer: NodeId,
        home: ClusterId,
        target: ClusterId,
    ) {
        let id = self
            .delivery(producer, target)
            .expect("no delivery to release");
        let u = self.user_at(id, target);
        self.users[u] -= 1;
        if self.users[u] > 0 {
            self.journal.push(CopyUndo::UseDropped(id, target));
            return;
        }
        let a = self.avail_at(producer, target);
        self.avail[a] = NONE;
        let i = self.slot_of(id);
        let record = &mut self.slots[i].record;
        if record.targets.len() > 1 {
            // Broadcast copy still serving other clusters: drop one target.
            let pos = record
                .targets
                .iter()
                .position(|&t| t == target)
                .expect("target present");
            record.targets.remove(pos);
            mrt.remove_copy_target(id, target);
            self.journal.push(CopyUndo::TargetCut {
                copy: id,
                target,
                pos,
            });
        } else {
            let src = record.src;
            self.set_live(id, false);
            mrt.release(id);
            self.journal.push(CopyUndo::Freed(id, target));
            // A chain hop read the value at `src`: release that use too.
            // Its journal entries land after `Freed`, so LIFO rollback
            // restores upstream state first, then this copy.
            if src != home && self.delivery(producer, src).is_some() {
                self.release_value_use(mrt, producer, home, src);
            }
        }
    }

    /// Lay the tables out for `machine` on first use and make room for
    /// `producer`'s row.
    fn fit(&mut self, machine: &MachineSpec, producer: NodeId) {
        let k = machine.cluster_count();
        if self.clusters != k {
            assert_eq!(self.clusters, 0, "one copy manager serves one machine");
            self.clusters = k;
        }
        if producer.index() >= self.rc.len() {
            let rows = (producer.index() + 1).max(self.first_id as usize);
            self.rc.resize(rows, 0);
            self.bcast.resize(rows, NONE);
            self.avail.resize(rows * k, NONE);
        }
    }

    fn slot_of(&self, copy: NodeId) -> usize {
        (copy.0 - self.first_id) as usize
    }

    fn avail_at(&self, producer: NodeId, cluster: ClusterId) -> usize {
        producer.index() * self.clusters + cluster.index()
    }

    fn user_at(&self, copy: NodeId, target: ClusterId) -> usize {
        self.slot_of(copy) * self.clusters + target.index()
    }

    /// Register one more use of `copy`'s delivery at `target`.
    fn bump_use(&mut self, copy: NodeId, target: ClusterId) {
        let u = self.user_at(copy, target);
        self.users[u] += 1;
        self.journal.push(CopyUndo::UseBumped(copy, target));
    }

    /// Point `copy`'s producer's delivery at `target` to `avail` (a copy
    /// id or `NONE`) and set the (copy, target) use count.
    fn set_delivery(&mut self, copy: NodeId, target: ClusterId, avail: u32, uses: u32) {
        let producer = self.slots[self.slot_of(copy)].record.producer;
        let a = self.avail_at(producer, target);
        self.avail[a] = avail;
        let u = self.user_at(copy, target);
        self.users[u] = uses;
    }

    /// Mark `copy` live or dead, keeping `live`, `rc` and `bcast` in step.
    fn set_live(&mut self, copy: NodeId, live: bool) {
        let i = self.slot_of(copy);
        let slot = &mut self.slots[i];
        debug_assert_ne!(slot.live, live);
        slot.live = live;
        let p = slot.record.producer.index();
        let bused = slot.record.link.is_none();
        if live {
            self.live += 1;
            self.rc[p] += 1;
            if bused {
                self.bcast[p] = copy.0;
            }
        } else {
            self.live -= 1;
            self.rc[p] -= 1;
            if bused {
                self.bcast[p] = NONE;
            }
        }
    }

    /// Record a new copy under the id `next_id` (whose MRT reservation the
    /// caller has made) delivering `producer` from `src` to `target` with
    /// `uses` initial uses.
    fn create(
        &mut self,
        producer: NodeId,
        src: ClusterId,
        target: ClusterId,
        link: Option<LinkId>,
        uses: u32,
    ) {
        let id = NodeId(self.next_id);
        self.next_id += 1;
        let i = self.slot_of(id);
        if i == self.slots.len() {
            self.slots.push(Slot {
                live: false,
                record: CopyRecord {
                    producer,
                    src,
                    targets: Vec::with_capacity(1),
                    link,
                },
            });
            self.users.resize(self.users.len() + self.clusters, 0);
        }
        let record = &mut self.slots[i].record;
        record.producer = producer;
        record.src = src;
        record.link = link;
        record.targets.clear();
        record.targets.push(target);
        self.set_live(id, true);
        self.set_delivery(id, target, id.0, uses);
        self.journal.push(CopyUndo::Created(id, target));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clasp_machine::presets;

    fn setup_bus(m: &MachineSpec) -> (CountMrt<'_>, CopyManager) {
        (CountMrt::new(m, 2), CopyManager::new(100))
    }

    #[test]
    fn bused_copy_created_once_and_shared() {
        let m = presets::four_cluster_gp(4, 2);
        let (mut mrt, mut cpm) = setup_bus(&m);
        let p = NodeId(0);
        let home = ClusterId(0);
        assert_eq!(
            cpm.ensure_value_at(&mut mrt, &m, p, home, ClusterId(1))
                .unwrap(),
            1
        );
        assert_eq!(cpm.live_count(), 1);
        assert_eq!(cpm.rc(p), 1);
        // Second target: extend, no new copy.
        assert_eq!(
            cpm.ensure_value_at(&mut mrt, &m, p, home, ClusterId(2))
                .unwrap(),
            0
        );
        assert_eq!(cpm.live_count(), 1);
        let id = cpm.delivery(p, ClusterId(1)).unwrap();
        assert_eq!(cpm.record(id).unwrap().targets.len(), 2);
        // Same target twice: just a use.
        assert_eq!(
            cpm.ensure_value_at(&mut mrt, &m, p, home, ClusterId(1))
                .unwrap(),
            0
        );
    }

    #[test]
    fn release_frees_in_reverse() {
        let m = presets::four_cluster_gp(4, 2);
        let (mut mrt, mut cpm) = setup_bus(&m);
        let p = NodeId(0);
        let home = ClusterId(0);
        cpm.ensure_value_at(&mut mrt, &m, p, home, ClusterId(1))
            .unwrap();
        cpm.ensure_value_at(&mut mrt, &m, p, home, ClusterId(1))
            .unwrap();
        cpm.ensure_value_at(&mut mrt, &m, p, home, ClusterId(2))
            .unwrap();
        let free_bus_before = mrt.free_bus_slots();
        // Two uses at C1: first release keeps everything.
        cpm.release_value_use(&mut mrt, p, home, ClusterId(1));
        assert_eq!(cpm.live_count(), 1);
        assert_eq!(mrt.free_bus_slots(), free_bus_before);
        // Second release drops the C1 target but keeps the copy (C2 left).
        cpm.release_value_use(&mut mrt, p, home, ClusterId(1));
        assert_eq!(cpm.live_count(), 1);
        assert_eq!(cpm.delivery(p, ClusterId(1)), None);
        // Releasing C2 frees the copy and its bus slot.
        cpm.release_value_use(&mut mrt, p, home, ClusterId(2));
        assert_eq!(cpm.live_count(), 0);
        assert_eq!(mrt.free_bus_slots(), free_bus_before + 1);
        assert_eq!(cpm.rc(p), 0);
    }

    #[test]
    fn p2p_direct_hop() {
        let m = presets::four_cluster_grid(2);
        let mut mrt = CountMrt::new(&m, 2);
        let mut cpm = CopyManager::new(100);
        let p = NodeId(0);
        let created = cpm
            .ensure_value_at(&mut mrt, &m, p, ClusterId(0), ClusterId(1))
            .unwrap();
        assert_eq!(created, 1);
        let id = cpm.delivery(p, ClusterId(1)).unwrap();
        assert!(cpm.record(id).unwrap().link.is_some());
    }

    #[test]
    fn p2p_diagonal_builds_chain_and_shares_interior() {
        let m = presets::four_cluster_grid(2);
        let mut mrt = CountMrt::new(&m, 4);
        let mut cpm = CopyManager::new(100);
        let p = NodeId(0);
        // C0 -> C3 is two hops.
        let created = cpm
            .ensure_value_at(&mut mrt, &m, p, ClusterId(0), ClusterId(3))
            .unwrap();
        assert_eq!(created, 2);
        assert_eq!(cpm.live_count(), 2);
        // The interior hop (C1 or C2) now holds the value: a consumer
        // there reuses it.
        let interior = if cpm.delivery(p, ClusterId(1)).is_some() {
            ClusterId(1)
        } else {
            ClusterId(2)
        };
        let created2 = cpm
            .ensure_value_at(&mut mrt, &m, p, ClusterId(0), interior)
            .unwrap();
        assert_eq!(created2, 0);
        // Releasing the diagonal consumer frees only the last hop.
        cpm.release_value_use(&mut mrt, p, ClusterId(0), ClusterId(3));
        assert_eq!(cpm.live_count(), 1);
        // Releasing the interior consumer frees the rest.
        cpm.release_value_use(&mut mrt, p, ClusterId(0), interior);
        assert_eq!(cpm.live_count(), 0);
    }

    #[test]
    fn chain_release_cascades() {
        let m = presets::four_cluster_grid(2);
        let mut mrt = CountMrt::new(&m, 4);
        let mut cpm = CopyManager::new(100);
        let p = NodeId(0);
        cpm.ensure_value_at(&mut mrt, &m, p, ClusterId(0), ClusterId(3))
            .unwrap();
        assert_eq!(cpm.live_count(), 2);
        // Single release cascades through the whole chain.
        cpm.release_value_use(&mut mrt, p, ClusterId(0), ClusterId(3));
        assert_eq!(cpm.live_count(), 0);
        // All link slots returned.
        for i in 0..4 {
            assert_eq!(mrt.free_link_slots(clasp_machine::LinkId(i)), 4);
        }
    }

    #[test]
    fn exhausted_bus_reports_full() {
        let m = presets::two_cluster_gp(1, 1);
        let mut mrt = CountMrt::new(&m, 1); // 1 bus slot total
        let mut cpm = CopyManager::new(100);
        cpm.ensure_value_at(&mut mrt, &m, NodeId(0), ClusterId(0), ClusterId(1))
            .unwrap();
        assert_eq!(
            cpm.ensure_value_at(&mut mrt, &m, NodeId(1), ClusterId(0), ClusterId(1)),
            Err(Full)
        );
    }

    #[test]
    fn no_interconnect_is_full() {
        let m = presets::unified_gp(4);
        let mut mrt = CountMrt::new(&m, 4);
        let mut cpm = CopyManager::new(10);
        // Unified machines have one cluster; fabricate a two-cluster call
        // against a no-fabric machine to check the guard.
        let m2 = clasp_machine::MachineSpec::new(
            "2c-nofabric",
            vec![
                clasp_machine::ClusterSpec::general(2),
                clasp_machine::ClusterSpec::general(2),
            ],
            clasp_machine::Interconnect::None,
        );
        let mut mrt2 = CountMrt::new(&m2, 4);
        assert_eq!(
            cpm.ensure_value_at(&mut mrt2, &m2, NodeId(0), ClusterId(0), ClusterId(1)),
            Err(Full)
        );
        let _ = &mut mrt;
    }

    #[test]
    fn rc_counts_p2p_copies_individually() {
        let m = presets::four_cluster_grid(2);
        let mut mrt = CountMrt::new(&m, 4);
        let mut cpm = CopyManager::new(100);
        let p = NodeId(0);
        cpm.ensure_value_at(&mut mrt, &m, p, ClusterId(0), ClusterId(1))
            .unwrap();
        cpm.ensure_value_at(&mut mrt, &m, p, ClusterId(0), ClusterId(2))
            .unwrap();
        assert_eq!(cpm.rc(p), 2);
    }

    type StateKey = (
        u32,
        Vec<(NodeId, CopyRecord)>,
        Vec<((NodeId, ClusterId), u32)>,
    );

    /// The manager's observable state, after checking that the dense
    /// tables agree with a recount from the live records.
    fn state_key(cpm: &CopyManager) -> StateKey {
        check_tables(cpm);
        let copies: Vec<_> = cpm.iter().map(|(id, r)| (id, r.clone())).collect();
        let users = cpm
            .iter()
            .flat_map(|(id, r)| {
                r.targets
                    .iter()
                    .map(move |&t| ((id, t), cpm.users[cpm.user_at(id, t)]))
            })
            .collect();
        (cpm.next_id, copies, users)
    }

    /// Every dense table matches a recount from the live records: one
    /// delivery per live (copy, target), no stray deliveries or uses, and
    /// `rc`, `bcast` and `live` equal to their definitions.
    fn check_tables(cpm: &CopyManager) {
        let k = cpm.clusters;
        let mut avail = vec![NONE; cpm.avail.len()];
        let mut rc = vec![0u32; cpm.rc.len()];
        let mut bcast = vec![NONE; cpm.bcast.len()];
        let mut live = 0;
        for (id, r) in cpm.iter() {
            live += 1;
            let p = r.producer.index();
            rc[p] += 1;
            if r.link.is_none() {
                assert_eq!(bcast[p], NONE, "two broadcast copies of {}", r.producer);
                bcast[p] = id.0;
            }
            for &t in &r.targets {
                assert_eq!(avail[p * k + t.index()], NONE, "double delivery");
                avail[p * k + t.index()] = id.0;
            }
        }
        assert_eq!(cpm.avail, avail);
        assert_eq!(cpm.rc, rc);
        assert_eq!(cpm.bcast, bcast);
        assert_eq!(cpm.live_count(), live);
        for (i, slot) in cpm.slots.iter().enumerate() {
            for c in 0..k {
                let targeted = slot.live && slot.record.targets.contains(&ClusterId(c as u32));
                if !targeted {
                    assert_eq!(cpm.users[i * k + c], 0, "stray use of slot {i} at C{c}");
                }
            }
        }
    }

    #[test]
    fn rollback_undoes_bus_copy_lifecycle() {
        let m = presets::four_cluster_gp(4, 2);
        let (mut mrt, mut cpm) = setup_bus(&m);
        let p = NodeId(0);
        let home = ClusterId(0);
        cpm.ensure_value_at(&mut mrt, &m, p, home, ClusterId(1))
            .unwrap();
        cpm.commit();
        mrt.commit();
        let before = state_key(&cpm);

        let mark = cpm.mark();
        let mmark = mrt.mark();
        // Exercise every journal arm: bump, extend, create, drop, cut, free.
        cpm.ensure_value_at(&mut mrt, &m, p, home, ClusterId(1))
            .unwrap(); // bump
        cpm.ensure_value_at(&mut mrt, &m, p, home, ClusterId(2))
            .unwrap(); // extend
        cpm.ensure_value_at(&mut mrt, &m, NodeId(1), ClusterId(3), ClusterId(0))
            .unwrap(); // create
        cpm.release_value_use(&mut mrt, p, home, ClusterId(1)); // drop
        cpm.release_value_use(&mut mrt, p, home, ClusterId(2)); // cut
        cpm.release_value_use(&mut mrt, NodeId(1), ClusterId(3), ClusterId(0)); // free
        cpm.rollback_to(mark);
        mrt.rollback_to(mmark);

        assert_eq!(state_key(&cpm), before);
        assert_eq!(mrt.reserved_count(), 1);
    }

    #[test]
    fn rollback_undoes_p2p_chain_and_restores_ids() {
        let m = presets::four_cluster_grid(2);
        let mut mrt = CountMrt::new(&m, 4);
        let mut cpm = CopyManager::new(100);
        let p = NodeId(0);
        let before = state_key(&cpm);
        let mark = cpm.mark();
        let mmark = mrt.mark();
        cpm.ensure_value_at(&mut mrt, &m, p, ClusterId(0), ClusterId(3))
            .unwrap();
        assert_eq!(cpm.live_count(), 2);
        cpm.rollback_to(mark);
        mrt.rollback_to(mmark);
        assert_eq!(state_key(&cpm), before);
        assert_eq!(mrt.reserved_count(), 0);
        // Ids fully recycled: a replay allocates the same ones.
        cpm.ensure_value_at(&mut mrt, &m, p, ClusterId(0), ClusterId(3))
            .unwrap();
        assert_eq!(cpm.next_id, 102);
    }

    #[test]
    fn rollback_undoes_cascading_release() {
        let m = presets::four_cluster_grid(2);
        let mut mrt = CountMrt::new(&m, 4);
        let mut cpm = CopyManager::new(100);
        let p = NodeId(0);
        cpm.ensure_value_at(&mut mrt, &m, p, ClusterId(0), ClusterId(3))
            .unwrap();
        cpm.commit();
        mrt.commit();
        let before = state_key(&cpm);
        let mark = cpm.mark();
        let mmark = mrt.mark();
        cpm.release_value_use(&mut mrt, p, ClusterId(0), ClusterId(3));
        assert_eq!(cpm.live_count(), 0);
        cpm.rollback_to(mark);
        mrt.rollback_to(mmark);
        assert_eq!(state_key(&cpm), before);
        assert_eq!(cpm.live_count(), 2);
    }

    #[test]
    fn random_walks_keep_the_dense_tables_consistent() {
        // A fixed xorshift stream of deliveries, releases, nested marks,
        // rollbacks and resets on a bused and a point-to-point machine.
        // Every step leaves the tables equal to a recount, every rollback
        // restores its mark exactly, and releasing every use frees every
        // copy.
        for m in [presets::four_cluster_gp(2, 1), presets::mesh(3, 3)] {
            let k = m.cluster_count() as u32;
            let home = |p: NodeId| ClusterId(p.0 % k);
            let mut mrt = CountMrt::new(&m, 3);
            let mut cpm = CopyManager::new(8);
            let mut uses: Vec<(NodeId, ClusterId)> = Vec::new();
            let mut marks = Vec::new();
            let mut x = 0x9E37_79B9_u32;
            let mut next = move || {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x
            };
            for _ in 0..3000 {
                match next() % 16 {
                    0..=7 => {
                        let p = NodeId(next() % 8);
                        let t = ClusterId(next() % k);
                        if t == home(p) {
                            continue;
                        }
                        let (cm, mm) = (cpm.mark(), mrt.mark());
                        match cpm.ensure_value_at(&mut mrt, &m, p, home(p), t) {
                            Ok(_) => uses.push((p, t)),
                            Err(Full) => {
                                cpm.rollback_to(cm);
                                mrt.rollback_to(mm);
                            }
                        }
                    }
                    8..=11 if !uses.is_empty() => {
                        let (p, t) = uses.swap_remove(next() as usize % uses.len());
                        cpm.release_value_use(&mut mrt, p, home(p), t);
                    }
                    12 | 13 => {
                        marks.push((cpm.mark(), mrt.mark(), uses.clone(), state_key(&cpm)));
                    }
                    14 => {
                        if let Some((cm, mm, saved, key)) = marks.pop() {
                            cpm.rollback_to(cm);
                            mrt.rollback_to(mm);
                            uses = saved;
                            assert_eq!(state_key(&cpm), key);
                        }
                    }
                    15 if next() % 8 == 0 => {
                        cpm.reset(8);
                        mrt.reset(3);
                        uses.clear();
                        marks.clear();
                    }
                    _ => {}
                }
                check_tables(&cpm);
            }
            assert!(cpm.live_count() > 0, "the walk ends with live copies");
            for (p, t) in uses.drain(..) {
                cpm.release_value_use(&mut mrt, p, home(p), t);
            }
            check_tables(&cpm);
            assert_eq!(cpm.live_count(), 0);
            assert_eq!(mrt.reserved_count(), 0);
        }
    }

    #[test]
    fn reset_recycles_ids() {
        let m = presets::four_cluster_gp(4, 2);
        let (mut mrt, mut cpm) = setup_bus(&m);
        cpm.ensure_value_at(&mut mrt, &m, NodeId(0), ClusterId(0), ClusterId(1))
            .unwrap();
        cpm.reset(100);
        assert_eq!(cpm.live_count(), 0);
        assert_eq!(cpm.next_id, 100);
        assert_eq!(cpm.delivery(NodeId(0), ClusterId(1)), None);
    }

    #[test]
    fn iter_is_sorted_by_id() {
        let m = presets::four_cluster_gp(4, 2);
        let (mut mrt, mut cpm) = setup_bus(&m);
        cpm.ensure_value_at(&mut mrt, &m, NodeId(0), ClusterId(0), ClusterId(1))
            .unwrap();
        cpm.ensure_value_at(&mut mrt, &m, NodeId(1), ClusterId(2), ClusterId(3))
            .unwrap();
        let ids: Vec<u32> = cpm.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![100, 101]);
    }
}
