//! `bench-report` — tracked per-stage pipeline timings.
//!
//! Times the figures-corpus pipeline stage by stage (analysis,
//! assignment, scheduling, end to end, and the full pipeline through
//! kernel emission) and writes the medians to `BENCH_sched.json` at the
//! repo root, so the perf trajectory is tracked in-tree. Each stage line
//! is compared against the committed file's median; CI greps those
//! lines and fails past its regression gates. That the timed pipeline
//! still computes the paper's IIs and kernels is pinned separately, by
//! the golden digest manifest (`tests/golden.rs`).
//!
//! On top of the pipeline stages, the report times paired stages: the
//! deterministic parallel executor (`clasp-exec`) over the corpus and
//! the fuzz stream against their serial runs — asserting the parallel
//! results bit-identical to serial first — the content-addressed compile
//! cache (cold corpus compile vs a warmed replay, both through the
//! `CompileService` facade), and the `clasp-serve` wire path (cold
//! corpus over TCP against a fresh daemon vs warm-hit round-trips
//! against a pre-warmed one), recording the worker count and cache
//! hit/miss counters in `BENCH_sched.json`.
//!
//! A final `load` stage runs the `clasp-load` traffic harness over the
//! full (transport × clients × mix) matrix and writes the latency
//! percentiles to `BENCH_load.json`, gating on zero load errors, zero
//! fd growth, and each cell's p99 staying within a loose factor of the
//! committed baseline.
//!
//! Run with `cargo run --release -p clasp-bench --bin bench-report`.

use clasp::obs::Obs;
use clasp::serve::{Client, Server};
use clasp::{
    compare_with_unified, compile_full, compile_full_observed, compile_loop, CompileRequest,
    CompileService, PipelineConfig, ServiceRequest,
};
use clasp_bench::{bench, fmt_ns, json_escape, Timing};
use clasp_core::{assign_from, assign_with_analysis, Assignment};
use clasp_ddg::{Ddg, LoopAnalysis};
use clasp_kernel::{emit_program_with, RegisterModel};
use clasp_loopgen::{generate_corpus, CorpusConfig};
use clasp_machine::{presets, MachineSpec};
use clasp_sched::{max_ii_bound, SchedContext};
use std::path::PathBuf;

/// Figures-corpus slice: the paper's corpus shape (301/1327 recurrence
/// fraction) at a size the report can time in seconds, not minutes.
const LOOPS: usize = 150;
const SAMPLES: u32 = 5;

fn corpus() -> Vec<Ddg> {
    generate_corpus(CorpusConfig {
        loops: LOOPS,
        scc_loops: (LOOPS * 301).div_ceil(1327),
        seed: 0x1998_C1A5,
    })
}

/// One tracked stage. A pipeline stage has a single timing; a paired
/// stage also times its reference side (serial, cold) and reports the
/// speedup of the tracked side over it.
struct Stage {
    name: &'static str,
    baseline: Option<Timing>,
    amortized: Timing,
}

impl Stage {
    fn single(name: &'static str, amortized: Timing) -> Stage {
        println!("{amortized}");
        Stage {
            name,
            baseline: None,
            amortized,
        }
    }

    fn paired(name: &'static str, baseline: Timing, amortized: Timing) -> Stage {
        println!("{baseline}");
        println!("{amortized}");
        Stage {
            name,
            baseline: Some(baseline),
            amortized,
        }
    }
}

fn speedup_percent(baseline: &Timing, amortized: &Timing) -> f64 {
    let b = baseline.median_ns as f64;
    let a = amortized.median_ns as f64;
    if b == 0.0 {
        0.0
    } else {
        (1.0 - a / b) * 100.0
    }
}

fn main() {
    let corpus = corpus();
    let machine = presets::four_cluster_gp(4, 2);
    let pipe_cfg = PipelineConfig::default();
    let sched_cfg = pipe_cfg.sched;
    println!(
        "figures corpus: {} loops, machine {}, {} samples per measurement\n",
        corpus.len(),
        machine.name(),
        SAMPLES
    );

    // Stage 1: analysis — SCCs, RecMII, the swing order, the CSR
    // adjacency and priority index, computed once per loop.
    let analysis = Stage::single(
        "analysis",
        bench("analysis/loop-analysis", SAMPLES, || {
            corpus
                .iter()
                .map(|g| {
                    let la = LoopAnalysis::compute(g);
                    la.order().len().max(la.rec_mii() as usize)
                })
                .sum::<usize>()
        }),
    );

    // Stage 2: assignment — the dense-state assigner reusing one
    // precomputed `LoopAnalysis` per loop.
    let analyses: Vec<LoopAnalysis> = corpus.iter().map(LoopAnalysis::compute).collect();
    let assignment = Stage::single(
        "assignment",
        bench("assignment/shared-analysis", SAMPLES, || {
            corpus
                .iter()
                .zip(&analyses)
                .filter_map(|(g, la)| {
                    assign_with_analysis(g, &machine, pipe_cfg.assign, 1, la).ok()
                })
                .map(|a| a.ii)
                .sum::<u32>()
        }),
    );

    // Stage 3: scheduling a pre-assigned working graph across its II
    // sweep with one reusable context (dense epoch MRT).
    let assigned: Vec<Assignment> = corpus
        .iter()
        .filter_map(|g| assign_from(g, &machine, pipe_cfg.assign, 1).ok())
        .collect();
    let scheduling = Stage::single(
        "scheduling",
        bench("scheduling/shared-context", SAMPLES, || {
            assigned
                .iter()
                .filter_map(|a| {
                    let cap = max_ii_bound(&a.graph, a.ii);
                    let mut ctx = SchedContext::new(&a.graph, &machine, &a.map).ok()?;
                    ctx.schedule_in_range(a.ii, cap, sched_cfg).ok()
                })
                .map(|s| s.ii())
                .sum::<u32>()
        }),
    );

    // End to end: the figure pipeline (clustered compile + unified
    // baseline) for every corpus loop.
    let end_to_end = Stage::single(
        "end-to-end",
        bench("end-to-end/amortized", SAMPLES, || {
            corpus
                .iter()
                .filter_map(|g| compare_with_unified(g, &machine, pipe_cfg).ok())
                .map(|(c, u)| c + u)
                .sum::<u32>()
        }),
    );

    // Full pipeline through kernel emission: one `compile_full` call per
    // loop. The driver must first match the hand-composed
    // compile-register-emit glue before the timing means anything.
    let full_req = CompileRequest {
        pipeline: pipe_cfg,
        restage: false,
        iterations: 16,
        verify: false,
        ..CompileRequest::default()
    };
    for g in &corpus {
        let glue = compile_loop(g, &machine, pipe_cfg).ok().map(|c| {
            let model = RegisterModel::mve(&c.assignment.graph, &c.schedule);
            emit_program_with(
                &c.assignment.graph,
                &c.assignment.map,
                &c.schedule,
                16,
                &model,
            )
        });
        let driver = compile_full(g, &machine, &full_req).ok().map(|a| a.program);
        assert_eq!(
            glue,
            driver,
            "driver kernel diverged from glue on {}",
            g.name()
        );
    }
    let full_pipeline = Stage::single(
        "full-pipeline",
        bench("full-pipeline/compile-full", SAMPLES, || {
            corpus
                .iter()
                .filter_map(|g| compile_full(g, &machine, &full_req).ok())
                .map(|a| a.program.issue_count())
                .sum::<usize>()
        }),
    );

    // Corpus sweep on the deterministic executor: the serial corpus
    // compile versus the same compiles on `clasp_exec::sweep` with one
    // worker per hardware thread. First the bit-identity gate: the sweep
    // must return exactly the serial results for any worker count.
    let threads = clasp_exec::resolve_threads(0, corpus.len());
    let compile_ii = |g: &Ddg| compile_full(g, &machine, &full_req).ok().map(|a| a.ii());
    let serial_iis: Vec<Option<u32>> = corpus.iter().map(compile_ii).collect();
    for t in [1, threads] {
        let swept = clasp_exec::sweep(
            t,
            &corpus,
            |_, g: &Ddg| g.name().to_string(),
            |_, g| compile_ii(g),
        )
        .expect("corpus sweep must not panic");
        assert_eq!(
            serial_iis, swept,
            "sweep diverged from serial at {t} workers"
        );
    }
    let corpus_sweep = Stage::paired(
        "corpus-sweep",
        bench("corpus/serial", SAMPLES, || {
            corpus.iter().filter_map(compile_ii).count()
        }),
        bench("corpus/parallel", SAMPLES, || {
            clasp_exec::sweep(
                threads,
                &corpus,
                |_, g: &Ddg| g.name().to_string(),
                |_, g| compile_ii(g),
            )
            .expect("corpus sweep must not panic")
            .into_iter()
            .flatten()
            .count()
        }),
    );

    // Content-addressed compile cache behind the service facade: the
    // cold corpus compile versus replaying it against a warmed service
    // (every request a memory hit).
    let quiet = Obs::disabled();
    let warm = CompileService::in_memory();
    for g in &corpus {
        warm.compile_artifact(g, &machine, &full_req, &quiet);
    }
    let compile_cache = Stage::paired(
        "compile-cache",
        bench("cache/cold", SAMPLES, || {
            let cold = CompileService::in_memory();
            corpus
                .iter()
                .filter(|g| {
                    cold.compile_artifact(g, &machine, &full_req, &quiet)
                        .is_ok()
                })
                .count()
        }),
        bench("cache/warm", SAMPLES, || {
            corpus
                .iter()
                .filter(|g| {
                    warm.compile_artifact(g, &machine, &full_req, &quiet)
                        .is_ok()
                })
                .count()
        }),
    );
    let cache_stats = warm.tiered_stats().memory;

    // Fuzz stage: the differential oracle (compile + all invariant
    // checks + dual-model simulation per case) over a bounded slice of
    // the seed-0 case stream, serial versus parallel case checking.
    // Asserted clean — the report doubles as a correctness gate — and
    // timed, so oracle throughput regressions show up in the tracked
    // numbers.
    const FUZZ_CASES: usize = 200;
    let run_fuzz_at = |threads: usize| {
        let cfg = clasp_oracle::FuzzConfig {
            seed: 0,
            cases: FUZZ_CASES,
            threads,
            ..clasp_oracle::FuzzConfig::default()
        };
        // A fresh service per run keeps every case a cold compile (the
        // stream never repeats a loop), so the timing still measures
        // oracle throughput while exercising the service-routed
        // pipeline the CLI's fuzz command uses.
        let service = CompileService::in_memory();
        let pipeline = |g: &Ddg, m: &MachineSpec| service.oracle_case(g, m);
        let report = clasp_oracle::run_fuzz(&cfg, &pipeline);
        assert!(
            report.is_clean(),
            "differential oracle found {} violating cases",
            report.failures.len()
        );
        report.checked
    };
    let fuzz_serial = bench("fuzz/serial", SAMPLES, || run_fuzz_at(1));
    let fuzz_parallel = bench("fuzz/parallel", SAMPLES, || run_fuzz_at(threads));
    let (fuzz_serial_ns, fuzz_parallel_ns) = (fuzz_serial.median_ns, fuzz_parallel.median_ns);
    let fuzz = Stage::paired("fuzz", fuzz_serial, fuzz_parallel);

    // The wire path: the same corpus compiled through a `clasp-serve`
    // daemon over localhost TCP. Correctness gate first: the daemon's
    // reply bytes must equal the in-process service's for the same wire
    // text (the daemon adds transport, never new behavior), and the
    // served schedule must reach the II of the direct compile. (Full
    // artifact equality would be too strong here: the wire round-trips
    // the loop through `.clasp` text, which canonicalizes node labels
    // the loopgen corpus leaves empty.)
    let machine_text = clasp_text::write_machine(&machine);
    let wire_requests: Vec<String> = corpus
        .iter()
        .map(|g| {
            let mut sreq = ServiceRequest::new(clasp_text::write_loop(g), machine_text.clone());
            sreq.request = full_req;
            sreq.render()
        })
        .collect();
    let warm_server = Server::start(
        "127.0.0.1:0",
        std::sync::Arc::new(CompileService::in_memory()),
    )
    .expect("bind ephemeral port");
    let mut warm_client = Client::connect(warm_server.addr()).expect("connect warm daemon");
    let gate_service = CompileService::in_memory();
    for (g, wire) in corpus.iter().zip(&wire_requests) {
        let reply = warm_client.roundtrip(wire).expect("serve round-trip");
        assert_eq!(
            reply,
            gate_service.respond(wire),
            "daemon reply diverged from the in-process service on {}",
            g.name()
        );
        let served = clasp::ServiceReply::parse(&reply)
            .expect("healthy reply")
            .decode()
            .expect("artifact payload");
        let local = compile_full(g, &machine, &full_req);
        assert_eq!(
            served.as_ref().ok().map(|a| a.ii()),
            local.as_ref().ok().map(|a| a.ii()),
            "served II diverged from the direct compile on {}",
            g.name()
        );
    }
    let serve = Stage::paired(
        "serve",
        bench("serve/cold", SAMPLES, || {
            // A fresh daemon per sample: every request is a true miss
            // compiled behind the wire, plus daemon start and shutdown.
            let server = Server::start(
                "127.0.0.1:0",
                std::sync::Arc::new(CompileService::in_memory()),
            )
            .expect("bind ephemeral port");
            let mut client = Client::connect(server.addr()).expect("connect cold daemon");
            let served = wire_requests
                .iter()
                .filter(|wire| client.roundtrip(wire).is_ok())
                .count();
            server.shutdown().expect("graceful shutdown");
            served
        }),
        bench("serve/warm", SAMPLES, || {
            // Steady state: every request a memory hit on the warmed
            // daemon — framing + lookup + canonical payload, no compile.
            wire_requests
                .iter()
                .filter(|wire| warm_client.roundtrip(wire).is_ok())
                .count()
        }),
    );
    drop(warm_client);
    warm_server.shutdown().expect("graceful warm shutdown");

    // Observability counters over the corpus: one instrumented compile
    // pass. Every counter is deterministic for a fixed corpus (see
    // `clasp-obs`), so these numbers are tracked facts about the
    // workload — how many escalation attempts, conflicts, backtracks the
    // corpus costs — not measurements subject to noise.
    let obs = Obs::enabled();
    for g in &corpus {
        let _ = compile_full_observed(g, &machine, &full_req, &obs);
    }
    // The executor and cache counters come from one instrumented pass
    // through each of those subsystems — an observed corpus sweep (one
    // `exec.items` tick per loop) and an observed cold-then-warm cache
    // replay (one miss then one hit per loop). They record into their own
    // sink so the pipeline counters above stay exactly one compile pass
    // worth of facts, then only the executor/cache totals are folded in.
    let subsystem_obs = Obs::enabled();
    clasp_exec::sweep_with_observed(
        threads,
        &corpus,
        || (),
        |_, g: &Ddg| g.name().to_string(),
        |(), _, g| compile_ii(g),
        &subsystem_obs,
    )
    .expect("observed corpus sweep must not panic");
    let observed_service = CompileService::in_memory();
    for g in &corpus {
        let _ = observed_service.compile_artifact(g, &machine, &full_req, &subsystem_obs);
        let _ = observed_service.compile_artifact(g, &machine, &full_req, &subsystem_obs);
    }
    for c in [
        clasp::obs::Counter::ExecItems,
        clasp::obs::Counter::CacheHits,
        clasp::obs::Counter::CacheMisses,
    ] {
        obs.add(c, subsystem_obs.counter(c));
    }
    let obs_counters = obs.counters();
    println!("\nobs counters over the corpus (deterministic):");
    for (name, value) in &obs_counters {
        println!("  {name} = {value}");
    }

    // Strata sweep: the {preset × stratum} II-degradation table over the
    // CGRA-style presets, through the service on the deterministic
    // executor. Determinism gate first — a cold parallel sweep and a
    // warm serial one must render byte-identical reports — then the
    // table goes to `results/strata.csv` and the `strata` block below.
    let strata_cfg = clasp::strata::SweepConfig::default();
    let strata_service = CompileService::in_memory();
    let strata = clasp::strata::run_sweep(&strata_cfg, &strata_service)
        .expect("strata sweep over default presets");
    let strata_serial = clasp::strata::run_sweep(
        &clasp::strata::SweepConfig {
            threads: 1,
            ..strata_cfg.clone()
        },
        &strata_service,
    )
    .expect("serial strata sweep");
    assert_eq!(
        strata.render_csv(),
        strata_serial.render_csv(),
        "strata sweep diverged across thread counts / cache temperature"
    );
    println!("\nstrata sweep (clustered II / unified II, per stratum):");
    for r in &strata.rows {
        println!(
            "  {:<12} {:<16} {:>3}/{:<3} compiled, degradation {}",
            r.preset,
            r.stratum.name(),
            r.compiled,
            r.loops,
            r.degradation().map_or("-".into(), |d| format!("{d:.4}"))
        );
    }
    let strata_csv = repo_root().join("results/strata.csv");
    std::fs::write(&strata_csv, strata.render_csv()).expect("write results/strata.csv");
    println!("wrote {}", strata_csv.display());

    let stages = [
        &analysis,
        &assignment,
        &scheduling,
        &end_to_end,
        &full_pipeline,
        &corpus_sweep,
        &compile_cache,
        &fuzz,
        &serve,
    ];
    println!();
    for s in &stages {
        match &s.baseline {
            Some(baseline) => println!(
                "{:<14} baseline {:>12}  amortized {:>12}  speedup {:>6.1}%",
                s.name,
                fmt_ns(baseline.median_ns),
                fmt_ns(s.amortized.median_ns),
                speedup_percent(baseline, &s.amortized),
            ),
            None => println!(
                "{:<14} median {:>12}",
                s.name,
                fmt_ns(s.amortized.median_ns)
            ),
        }
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!(
        "  \"corpus\": {{\"loops\": {}, \"seed\": {}, \"machine\": \"{}\"}},\n",
        corpus.len(),
        0x1998_C1A5u64,
        json_escape(machine.name())
    ));
    json.push_str(&format!("  \"samples\": {},\n", SAMPLES));
    json.push_str("  \"stages\": {\n");
    for (i, s) in stages.iter().enumerate() {
        let fields = match &s.baseline {
            Some(baseline) => format!(
                "\"baseline_median_ns\": {}, \"amortized_median_ns\": {}, \"speedup_percent\": {:.1}",
                baseline.median_ns,
                s.amortized.median_ns,
                speedup_percent(baseline, &s.amortized)
            ),
            None => format!("\"amortized_median_ns\": {}", s.amortized.median_ns),
        };
        json.push_str(&format!(
            "    \"{}\": {{{fields}}}{}\n",
            s.name,
            if i + 1 < stages.len() { "," } else { "" }
        ));
    }
    json.push_str("  },\n");
    json.push_str(&format!("  \"threads\": {threads},\n"));
    json.push_str(&format!(
        "  \"cache\": {{\"hits\": {}, \"misses\": {}, \"entries\": {}}},\n",
        cache_stats.hits, cache_stats.misses, cache_stats.entries
    ));
    json.push_str(&format!(
        "  \"fuzz\": {{\"cases\": {}, \"serial_median_ns\": {}, \"parallel_median_ns\": {}}},\n",
        FUZZ_CASES, fuzz_serial_ns, fuzz_parallel_ns
    ));
    json.push_str(&format!("  \"strata\": {},\n", strata.render_json_block()));
    json.push_str("  \"obs\": {\"counters\": {\n");
    for (i, (name, value)) in obs_counters.iter().enumerate() {
        json.push_str(&format!(
            "    \"{}\": {}{}\n",
            json_escape(name),
            value,
            if i + 1 < obs_counters.len() { "," } else { "" }
        ));
    }
    json.push_str("  }}\n");
    json.push_str("}\n");

    let out = repo_root().join("BENCH_sched.json");

    // Obs-overhead gate: the timings above all run with the disabled
    // sink, so comparing this run's end-to-end median against the
    // committed one measures what instrumentation costs when it is off.
    // CI greps this line and fails the build past +3%.
    if let Some(committed) = committed_stage_ns(&out, "end-to-end") {
        let now = end_to_end.amortized.median_ns as f64;
        let delta = (now / committed as f64 - 1.0) * 100.0;
        println!("\nend-to-end vs committed BENCH_sched.json: {delta:+.1}% (gate: < +3%)");
    }

    // Per-stage regression lines against the committed report: CI greps
    // the full-pipeline and assignment lines and fails the build if
    // either amortized median regressed more than 3% since the last
    // committed numbers.
    for s in &stages {
        if let Some(committed) = committed_stage_ns(&out, s.name) {
            let delta = (s.amortized.median_ns as f64 / committed as f64 - 1.0) * 100.0;
            println!(
                "stage {} vs committed BENCH_sched.json: {delta:+.1}%",
                s.name
            );
        }
    }

    std::fs::write(&out, json).expect("write BENCH_sched.json");
    println!("\nwrote {}", out.display());

    load_stage();
}

/// The load stage: the traffic-shaped harness over the full
/// (transport × clients × mix) matrix, written to `BENCH_load.json`.
/// Hard gates: zero load errors and no fd growth across the run. Soft
/// gate against the committed baseline: each cell's p99 must stay
/// within `LOAD_GATE_FACTOR`× of the committed number, with the
/// committed value clamped up to `clasp_load::GATE_FLOOR_NS` so a
/// µs-scale hot-cell baseline can't turn one scheduler hiccup into a
/// 100x "regression" — latency percentiles on shared CI hardware are
/// far noisier than medians, so the factor is loose; the gate exists
/// to catch order-of-magnitude collapses (a lost cache tier, an
/// accidental sync point), not single-digit drift.
fn load_stage() {
    const LOAD_GATE_FACTOR: f64 = 8.0;

    let profile = clasp::load::LoadProfile {
        hard_dir: Some(repo_root().join("results/hard")),
        ..clasp::load::LoadProfile::default()
    };
    println!(
        "\nload: {} requests/cell, seed {}, {} cells",
        profile.requests_per_cell,
        profile.seed,
        profile.transports.len() * profile.clients.len() * profile.mixes.len()
    );
    let suite = match clasp::load::run_load_suite(&profile, &Obs::disabled()) {
        Ok(suite) => suite,
        Err(e) => {
            eprintln!("load stage failed: {e}");
            std::process::exit(1);
        }
    };
    for cell in &suite.cells {
        println!("{}", cell.human_line());
    }
    assert_eq!(suite.total_errors(), 0, "load errors during the suite");
    if let Some(growth) = suite.watermark.fd_growth() {
        assert!(growth <= 4, "load stage leaked {growth} fds");
    }

    let out = repo_root().join("BENCH_load.json");
    if let Ok(committed) = std::fs::read_to_string(&out) {
        let mut violations = 0usize;
        for cell in &suite.cells {
            let Some(base) = clasp_load::committed_cell_field(&committed, &cell.name, "p99_ns")
            else {
                continue;
            };
            if base == 0 {
                continue;
            }
            let ratio = clasp_load::gate_ratio(cell.report.overall.percentile(0.99), base);
            println!(
                "load cell {} p99 vs committed BENCH_load.json: {ratio:.2}x (gate: < {LOAD_GATE_FACTOR}x)",
                cell.name
            );
            if ratio > LOAD_GATE_FACTOR {
                violations += 1;
            }
        }
        assert_eq!(
            violations, 0,
            "load p99 regressed past {LOAD_GATE_FACTOR}x of the committed baseline"
        );
    }
    std::fs::write(&out, suite.render_json()).expect("write BENCH_load.json");
    println!("wrote {}", out.display());
}

/// The committed report's amortized median for one stage, parsed with
/// the same no-dependency discipline the writer uses: find the stage
/// line, pull the `amortized_median_ns` integer out of it.
fn committed_stage_ns(path: &std::path::Path, stage: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    let needle = format!("\"{stage}\"");
    let line = text.lines().find(|l| l.contains(&needle))?;
    let field = "\"amortized_median_ns\": ";
    let at = line.find(field)? + field.len();
    let digits: String = line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

fn repo_root() -> PathBuf {
    // crates/bench -> repo root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root")
}
