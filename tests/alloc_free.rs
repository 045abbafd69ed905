//! Pins two claims from `src/service.rs`. The streaming cache key: a
//! warm `CompileService::compile_artifact` with a disabled sink — key
//! three canonical texts straight into the hasher, hit the memory tier,
//! clone the `Arc` — touches the allocator zero times. The wire hit
//! path: a warm, aliased `CompileService::respond` allocates once, for
//! the reply it returns.
//!
//! A counting global allocator wraps the system one; this file contains
//! a single test so no concurrent test can perturb the counter.

use clasp::obs::Obs;
use clasp::{CompileRequest, CompileService, ServiceRequest};
use clasp_ddg::{Ddg, OpKind};
use clasp_machine::presets;
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
fn warm_cache_lookups_do_not_allocate() {
    let mut g = Ddg::new("warm");
    let a = g.add(OpKind::Load);
    let b = g.add(OpKind::FpMult);
    let c = g.add(OpKind::FpAdd);
    g.add_dep(a, b);
    g.add_dep(b, c);
    g.add_dep_carried(c, c, 1);
    let machine = presets::four_cluster_gp(4, 2);
    let req = CompileRequest::default();

    let cache = CompileService::in_memory();
    let obs = Obs::disabled();
    // Warm: the first call computes and installs, the second exercises
    // the hit path once so any lazy one-time setup has happened.
    assert!(cache.compile_artifact(&g, &machine, &req, &obs).is_ok());
    assert!(cache.compile_artifact(&g, &machine, &req, &obs).is_ok());

    let before = allocs();
    for _ in 0..100 {
        let hit = cache.compile_artifact(&g, &machine, &req, &obs);
        std::hint::black_box(&hit);
    }
    assert_eq!(
        allocs() - before,
        0,
        "warm lookups must stream the key and share the Arc"
    );

    let stats = cache.tiered_stats().memory;
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.hits, 101);

    // The wire: the first request compiles and records the alias, the
    // second is the first aliased hit.
    let service = CompileService::in_memory();
    let wire = ServiceRequest::new(
        clasp_text::write_loop(&g),
        clasp_text::write_machine(&machine),
    )
    .render();
    let cold = service.respond(&wire);
    assert_eq!(service.respond(&wire), cold);

    let before = allocs();
    for _ in 0..100 {
        let reply = service.respond(&wire);
        std::hint::black_box(&reply);
    }
    assert_eq!(
        allocs() - before,
        100,
        "an aliased hit allocates its reply and nothing else"
    );
    let stats = service.tiered_stats().memory;
    assert_eq!((stats.misses, stats.hits), (1, 101));
}
