//! Pins the point-to-point routing claim of `clasp_core::CopyManager`: once
//! a destination's hop-distance row is memoized, a delivery whose first
//! hop does not fit fails with `Full` without touching the allocator. The
//! assigner probes every feasible cluster for every node, so on crowded
//! fabrics most probes end this way; each used to build an adjacency
//! index, a source list and a BFS queue before failing.
//!
//! A counting global allocator wraps the system one; this file contains
//! a single test so no concurrent test can perturb the counter.

use clasp_core::CopyManager;
use clasp_ddg::NodeId;
use clasp_machine::{presets, ClusterId};
use clasp_mrt::{CountMrt, Full};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: defers entirely to the system allocator; the counter is a
// relaxed atomic with no other side effects.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

#[test]
fn warm_p2p_delivery_whose_first_hop_is_full_does_not_allocate() {
    // 3x3 mesh, 2 link read ports per PE; at II 1 each PE reads twice.
    let m = presets::mesh(3, 3);
    let mut mrt = CountMrt::new(&m, 1);
    let mut cpm = CopyManager::new(16);
    let (c0, c1, c3, c8) = (ClusterId(0), ClusterId(1), ClusterId(3), ClusterId(8));

    // Warm: route a value across the whole fabric to C8 (memoizing C8's
    // distance row and sizing every table), then roll it back.
    let mark = cpm.mark();
    let mmark = mrt.mark();
    assert_eq!(cpm.ensure_value_at(&mut mrt, &m, NodeId(0), c0, c8), Ok(4));
    cpm.rollback_to(mark);
    mrt.rollback_to(mmark);
    assert_eq!(cpm.live_count(), 0);

    // Spend both of C0's read ports on one-hop copies of two other values.
    assert_eq!(cpm.ensure_value_at(&mut mrt, &m, NodeId(1), c0, c1), Ok(1));
    assert_eq!(cpm.ensure_value_at(&mut mrt, &m, NodeId(2), c0, c3), Ok(1));
    cpm.commit();
    mrt.commit();

    let before = allocs();
    for p in 3..16 {
        let r = cpm.ensure_value_at(&mut mrt, &m, NodeId(p), c0, c8);
        assert_eq!(r, Err(Full));
    }
    assert_eq!(
        allocs() - before,
        0,
        "a warm delivery that fails at its first hop must not allocate"
    );
    // Nothing was reserved or recorded by the failed probes.
    assert_eq!(cpm.live_count(), 2);
    assert_eq!(mrt.reserved_count(), 2);
}
