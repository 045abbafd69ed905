//! The injection boundary, closed end to end: build a schedule with the
//! root crate's real wire renderer, replay it through the real
//! `CompileService`, and check the harness's accounting against the
//! service's own cache counters. Uses the dev-only dependency on
//! `clasp` — the library itself never sees these types.

use clasp::load::{classify_reply, wire_of};
use clasp::CompileService;
use clasp_load::{build_schedule, run_cell, Mix, MixConfig, ReqClass, RunConfig};
use clasp_obs::Obs;

fn schedule(mix: Mix, requests: usize) -> clasp_load::Schedule {
    build_schedule(
        &MixConfig {
            mix,
            requests,
            pool_seed: 5,
            cell_seed: 9,
            hard_dir: None,
        },
        wire_of,
    )
}

#[test]
fn hot_mix_is_all_cache_hits_after_prewarm() {
    let sched = schedule(Mix::Hot, 40);
    let service = CompileService::in_memory();
    let factory = |_: usize| {
        let service = &service;
        Ok(move |wire: &str| classify_reply(&service.respond(wire)))
    };
    clasp_load::prewarm(&sched.hot_wires, factory).expect("prewarm");
    let misses_after_warm = service.tiered_stats().memory.misses;

    let report = run_cell(
        &sched.requests,
        &RunConfig {
            clients: 4,
            rate: 0.0,
        },
        &Obs::disabled(),
        factory,
    )
    .expect("run");
    assert_eq!(report.errors, 0);
    assert_eq!(report.overall.total(), 40);
    // Every hot request after the warm-up pass is a cache hit: the
    // service compiled nothing new.
    assert_eq!(service.tiered_stats().memory.misses, misses_after_warm);
    assert!(service.tiered_stats().memory.hits >= 40);
}

#[test]
fn cold_mix_compiles_every_request_exactly_once() {
    let sched = schedule(Mix::Cold, 30);
    let service = CompileService::in_memory();
    let report = run_cell(
        &sched.requests,
        &RunConfig {
            clients: 2,
            rate: 0.0,
        },
        &Obs::disabled(),
        |_| {
            let service = &service;
            Ok(move |wire: &str| classify_reply(&service.respond(wire)))
        },
    )
    .expect("run");
    assert_eq!(report.errors, 0);
    assert_eq!(report.by_class[ReqClass::Cold.index()].total(), 30);
    // Thirty unique loops: thirty cache misses, zero hits.
    assert_eq!(service.tiered_stats().memory.misses, 30);
    assert_eq!(service.tiered_stats().memory.hits, 0);
}
