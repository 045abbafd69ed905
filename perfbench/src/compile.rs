//! `compile-corpus`: a cold full-pipeline compile of the stratified
//! corpus on the paper's bused 4-cluster machine and on a
//! point-to-point CGRA, through a fresh in-memory `CompileService` on
//! the deterministic executor with two workers — the path
//! `clasp-cli batch` takes.
//!
//! The traced run replays every loop through the public layer calls in
//! `compile_full`'s order, checks that the replay reproduces the
//! untraced artifact, and reduces the spans to per-layer self times.

use crate::report::{self, median, quantile, us, Outcome, SetupTimes};
use crate::trace::Tracer;
use crate::Args;
use clasp::core::Assigner;
use clasp::ddg::{Ddg, LoopAnalysis};
use clasp::kernel::{
    emit_program_with, max_live, reference_stream, register_requirement, run_program,
    stage_schedule, verify_pipelined_with, MveInfo, RegisterModel, RrfInfo,
};
use clasp::loopgen::rng::fold_seed;
use clasp::loopgen::{generate_strata_corpus, StrataConfig, Stratum};
use clasp::machine::MachineSpec;
use clasp::obs::Obs;
use clasp::oracle::{check_case, CompiledCase, OracleOptions};
use clasp::sched::{max_ii_bound, schedule_with_stats, AttemptStats, SchedulerConfig};
use clasp::{compile_full, CachedCompile, CompileRequest, CompileService};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The machines the corpus is compiled for: the paper's bused
/// four-cluster machine and a point-to-point PE grid.
pub const PRESETS: [&str; 2] = ["4c-gp", "pe-grid2x3"];

/// Loops per synthetic stratum (the Livermore anchors add 34), so each
/// preset compiles 834 loops.
pub const LOOPS_PER_STRATUM: usize = 200;

/// Executor workers: one per core of the two-core reference box.
const WORKERS: usize = 2;

/// Set-ups timed before the timed window; one more follows each timed
/// pass, and `setup_s` is the median of them all.
const SETUP_REPS: usize = 3;

/// Replays of the corpus into each sink when the traced run measures its
/// own overhead.
const OVERHEAD_REPS: usize = 3;

/// One (preset, loop) compile.
struct Item {
    preset: usize,
    stratum: Stratum,
    g: Ddg,
}

/// The workload's inputs: the machines, every (preset, loop) pair in
/// preset-major order, and each pair's unified-machine II.
struct Corpus {
    machines: Vec<MachineSpec>,
    items: Vec<Item>,
    unified: Vec<Option<u32>>,
}

impl Corpus {
    /// Index range of one preset's items.
    fn preset_range(&self, preset: usize) -> std::ops::Range<usize> {
        let start = self
            .items
            .iter()
            .position(|it| it.preset == preset)
            .unwrap_or(0);
        let len = self.items.iter().filter(|it| it.preset == preset).count();
        start..start + len
    }

    fn label(&self, i: usize) -> String {
        let it = &self.items[i];
        format!("{} on {}", it.g.name(), PRESETS[it.preset])
    }
}

/// Build the inputs: the corpus generated from `corpus_seed`, each
/// preset's loops in an order drawn from `seed`, and the unified
/// baselines.
fn setup(seed: u64, corpus_seed: u64) -> Result<Corpus, String> {
    let machines = PRESETS
        .iter()
        .map(|name| {
            clasp::strata::machine_by_name(name).ok_or_else(|| format!("unknown preset {name}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let strata = generate_strata_corpus(StrataConfig {
        loops_per_stratum: LOOPS_PER_STRATUM,
        seed: corpus_seed,
    });
    let mut items = Vec::new();
    for (preset, name) in PRESETS.iter().enumerate() {
        let mut loops: Vec<(Stratum, &Ddg)> = strata
            .iter()
            .flat_map(|(stratum, loops)| loops.iter().map(move |g| (*stratum, g)))
            .collect();
        crate::shuffle(
            &mut loops,
            fold_seed(fold_seed(seed, "compile-corpus"), name),
        );
        items.extend(loops.into_iter().map(|(stratum, g)| Item {
            preset,
            stratum,
            g: g.clone(),
        }));
    }
    let unified = clasp_exec::try_sweep(
        WORKERS,
        &items,
        || (),
        |_, _, it: &Item| {
            clasp::unified_ii(&it.g, &machines[it.preset], SchedulerConfig::default()).ok()
        },
    )
    .into_iter()
    .map(|r| r.ok().flatten())
    .collect();
    Ok(Corpus {
        machines,
        items,
        unified,
    })
}

/// One preset's sweep: every result in input order plus timing.
struct Sweep {
    results: Vec<Result<CachedCompile, String>>,
    /// Per-item `compile_artifact` latency, ns.
    latency_ns: Vec<u64>,
    wall: Duration,
    /// Sum of per-item times, ns.
    busy_ns: u64,
    /// Sweep end minus the moment the first worker ran out of items, ns.
    tail_ns: u64,
}

fn sweep(corpus: &Corpus, preset: usize, service: &CompileService, req: &CompileRequest) -> Sweep {
    let items = &corpus.items[corpus.preset_range(preset)];
    let machine = &corpus.machines[preset];
    let quiet = Obs::disabled();
    let next_worker = AtomicUsize::new(0);
    let start = Instant::now();
    let out = clasp_exec::try_sweep(
        WORKERS,
        items,
        || next_worker.fetch_add(1, Ordering::Relaxed),
        |worker, _, it: &Item| {
            let from = start.elapsed();
            let r = service.compile_artifact(&it.g, machine, req, &quiet);
            (r, *worker, from, start.elapsed())
        },
    );
    let wall = start.elapsed();
    let mut last_end = [Duration::ZERO; WORKERS];
    let mut latency_ns = Vec::with_capacity(out.len());
    let mut busy_ns = 0u64;
    let mut results = Vec::with_capacity(out.len());
    for r in out {
        match r {
            Ok((artifact, worker, from, to)) => {
                let ns = (to - from).as_nanos() as u64;
                latency_ns.push(ns);
                busy_ns += ns;
                if let Some(end) = last_end.get_mut(worker) {
                    *end = (*end).max(to);
                }
                results.push(Ok(artifact));
            }
            Err(panic) => results.push(Err(format!("panicked: {panic}"))),
        }
    }
    let first_idle = last_end
        .iter()
        .copied()
        .filter(|d| !d.is_zero())
        .min()
        .unwrap_or(wall);
    Sweep {
        results,
        latency_ns,
        wall,
        busy_ns,
        tail_ns: wall.saturating_sub(first_idle).as_nanos() as u64,
    }
}

/// One cold pass over the whole corpus on a fresh service.
struct Pass {
    sweeps: Vec<Sweep>,
    /// Each item's II (`None` for a failed compile).
    iis: Vec<Option<u32>>,
}

impl Pass {
    fn run(corpus: &Corpus, req: &CompileRequest) -> Pass {
        let service = CompileService::in_memory();
        let sweeps: Vec<Sweep> = (0..corpus.machines.len())
            .map(|p| sweep(corpus, p, &service, req))
            .collect();
        let iis = sweeps
            .iter()
            .flat_map(|s| &s.results)
            .map(|r| match r {
                Ok(a) => a.as_ref().as_ref().ok().map(|a| a.ii()),
                Err(_) => None,
            })
            .collect();
        Pass { sweeps, iis }
    }

    fn wall(&self) -> Duration {
        self.sweeps.iter().map(|s| s.wall).sum()
    }

    fn results(&self) -> impl Iterator<Item = &Result<CachedCompile, String>> {
        self.sweeps.iter().flat_map(|s| &s.results)
    }
}

/// Run cold passes until `seconds` have elapsed (at least one), calling
/// `after_pass` after each. Only the last pass keeps its artifacts;
/// earlier ones keep their IIs. Also returns the peak RSS after the
/// first pass (see [`report::peak_rss_mb`]).
fn timed_passes(
    corpus: &Corpus,
    req: &CompileRequest,
    seconds: f64,
    mut after_pass: impl FnMut() -> Result<(), String>,
) -> Result<(Vec<Pass>, f64), String> {
    let start = Instant::now();
    let mut passes: Vec<Pass> = vec![Pass::run(corpus, req)];
    let first_pass_rss = report::peak_rss_mb();
    after_pass()?;
    while start.elapsed().as_secs_f64() < seconds {
        if let Some(prev) = passes.last_mut() {
            prev.sweeps.iter_mut().for_each(|s| s.results.clear());
        }
        passes.push(Pass::run(corpus, req));
        after_pass()?;
    }
    Ok((passes, first_pass_rss))
}

/// The output checks of one artifact, outside any timed region: the
/// differential oracle's invariants, and the kernel simulator's store
/// stream against the sequential reference stream.
fn check_artifact(
    g: &Ddg,
    machine: &MachineSpec,
    result: &Result<CachedCompile, String>,
    iterations: i64,
) -> Result<(), String> {
    let artifact = match result {
        Ok(cached) => cached
            .as_ref()
            .as_ref()
            .map_err(|e| format!("pipeline failed: {e}"))?,
        Err(e) => return Err(e.clone()),
    };
    let case = CompiledCase {
        assignment: artifact.assignment.clone(),
        schedule: artifact.schedule.clone(),
    };
    let pipeline = |_: &Ddg, _: &MachineSpec| Ok(case.clone());
    let opts = OracleOptions {
        iterations,
        ..OracleOptions::default()
    };
    let violations = check_case(g, machine, &pipeline, &opts);
    if let Some(v) = violations.first() {
        return Err(format!("oracle: {v} ({} violations)", violations.len()));
    }
    let wg = &artifact.assignment.graph;
    let key = |e: &clasp::kernel::StoreEvent| (e.node, e.iteration, e.value);
    let mut got: Vec<_> = run_program(wg, &artifact.program)
        .map_err(|e| format!("simulator: {e}"))?
        .iter()
        .map(key)
        .collect();
    let mut want: Vec<_> = reference_stream(wg, iterations).iter().map(key).collect();
    got.sort_unstable();
    want.sort_unstable();
    if got != want {
        return Err(format!(
            "store stream differs from the sequential reference ({} vs {} events)",
            got.len(),
            want.len()
        ));
    }
    Ok(())
}

/// Quality of the last pass and its correctness: every artifact is
/// checked, every pass must reproduce the first pass's IIs, and every
/// loop needs a unified baseline.
fn check_passes(
    corpus: &Corpus,
    passes: &[Pass],
    req: &CompileRequest,
    out: &mut Outcome,
) -> (f64, u64) {
    let last = passes.last().expect("at least one pass");
    let results: Vec<&Result<CachedCompile, String>> = last.results().collect();
    let checks = clasp_exec::try_sweep(
        WORKERS,
        &results,
        || (),
        |_, i, r| {
            let it = &corpus.items[i];
            check_artifact(&it.g, &corpus.machines[it.preset], r, req.iterations)
        },
    );
    for (i, c) in checks.into_iter().enumerate() {
        match c {
            Ok(Ok(())) => {}
            Ok(Err(e)) => out.fail(format!("{}: {e}", corpus.label(i))),
            Err(panic) => out.fail(format!("{}: check panicked: {panic}", corpus.label(i))),
        }
    }
    let first = &passes[0].iis;
    for (p, pass) in passes.iter().enumerate().skip(1) {
        for (i, (a, b)) in first.iter().zip(&pass.iis).enumerate() {
            if a != b {
                out.fail(format!(
                    "{}: pass {p} gave II {b:?}, pass 0 gave {a:?}",
                    corpus.label(i)
                ));
            }
        }
    }
    let mut log_ratio = 0.0;
    let mut bundles = 0u64;
    for (i, r) in results.iter().enumerate() {
        let Ok(cached) = r else { continue };
        let Ok(a) = cached.as_ref() else { continue };
        bundles += a.program.bundles.len() as u64;
        match corpus.unified[i] {
            Some(u) => log_ratio += (f64::from(a.ii()) / f64::from(u)).ln(),
            None => out.fail(format!("{}: no unified baseline", corpus.label(i))),
        }
    }
    ((log_ratio / results.len() as f64).exp(), bundles)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let req = CompileRequest::default();
    if args.trace {
        return run_traced(args, &req);
    }
    let corpus_seed = args.corpus_seed.unwrap_or(crate::DEFAULT_SEED);
    let mut setups = SetupTimes::default();
    let mut corpus = setups.time(|| setup(args.seed, corpus_seed))?;
    for _ in 1..SETUP_REPS {
        corpus = setups.time(|| setup(args.seed, corpus_seed))?;
    }
    eprintln!("compile-corpus: {} items", corpus.items.len());
    // Untimed warm-up pass.
    drop(Pass::run(&corpus, &req));
    let (passes, peak_rss) = timed_passes(&corpus, &req, args.seconds, || {
        setups.time(|| setup(args.seed, corpus_seed)).map(drop)
    })?;

    let mut out = Outcome {
        attempted: (passes.len() * corpus.items.len()) as u64,
        ..Outcome::default()
    };
    let (ii_ratio, bundles) = check_passes(&corpus, &passes, &req, &mut out);

    let throughput: Vec<f64> = passes
        .iter()
        .map(|p| corpus.items.len() as f64 / p.wall().as_secs_f64())
        .collect();
    // Per-pass latency quantiles, then their median over the passes.
    let mut p50 = Vec::new();
    let mut p99 = Vec::new();
    for p in &passes {
        let mut latency: Vec<u64> = p
            .sweeps
            .iter()
            .flat_map(|s| s.latency_ns.iter().copied())
            .collect();
        latency.sort_unstable();
        p50.push(us(quantile(&latency, 0.5)));
        p99.push(us(quantile(&latency, 0.99)));
    }
    let samples = passes.len() * corpus.items.len();
    out.notes.push(format!(
        "compile-corpus: {} passes of {} loops ({} per preset) on {}; per-pass loops/s {:?}",
        passes.len(),
        corpus.items.len(),
        corpus.items.len() / PRESETS.len(),
        PRESETS.join(", "),
        throughput.iter().map(|t| t.round()).collect::<Vec<_>>()
    ));
    out.metric("setup_s", setups.median(), "s", Some(setups.len()));
    out.metric(
        "throughput_per_s",
        median(&throughput),
        "1/s",
        Some(passes.len()),
    );
    out.metric("latency_p50_us", median(&p50), "us", Some(samples));
    out.metric("latency_p99_us", median(&p99), "us", Some(samples));
    out.metric("ii_vs_unified", ii_ratio, "ratio", Some(corpus.items.len()));
    out.metric(
        "code_bundles",
        bundles as f64,
        "count",
        Some(corpus.items.len()),
    );
    out.metric("peak_rss_mb", peak_rss, "MiB", None);
    Ok(out)
}

/// What the traced replay of one loop produced, for the equivalence
/// guard and the counters.
struct Replayed {
    ii: u32,
    copies: usize,
    bundles: usize,
    attempts: u64,
    stats: AttemptStats,
}

/// Replay one loop through the public layer calls in `compile_full`'s
/// order (default request: heuristic backend, restaging, MVE
/// registers, verification), one span per layer call.
fn replay(
    tr: &Tracer,
    item: u64,
    g: &Ddg,
    machine: &MachineSpec,
    req: &CompileRequest,
) -> Result<Replayed, String> {
    let root = tr.open("compile.replay");
    let parent = root.id;
    let config = req.pipeline;
    let analysis = tr.time("ddg.analysis", item, parent, || LoopAnalysis::compute(g));
    let raw_mii = machine.unified_equivalent().mii(g);
    if raw_mii == u32::MAX {
        return Err("unbounded MII".into());
    }
    let start = raw_mii.max(1);
    let cap = config
        .assign
        .max_ii
        .unwrap_or_else(|| max_ii_bound(g, start));
    let mut assigner = tr
        .time("core.assign", item, parent, || {
            Assigner::with_analysis(g, machine, config.assign, &analysis)
        })
        .map_err(|e| format!("assignment failed: {e}"))?;
    let mut min_ii = start;
    let mut attempts = 0;
    let mut stats = AttemptStats::default();
    let (assignment, raw) = loop {
        if min_ii > cap {
            return Err(format!("no schedule up to II {cap}"));
        }
        let assignment = tr
            .time("core.assign", item, parent, || assigner.assign_min(min_ii))
            .map_err(|e| format!("assignment failed: {e}"))?;
        let (result, attempt) = tr.time("sched.schedule", item, parent, || {
            schedule_with_stats(
                config.scheduler,
                &assignment.graph,
                machine,
                &assignment.map,
                assignment.ii,
                config.sched,
            )
        });
        attempts += 1;
        stats.merge(&attempt);
        match result {
            Ok(schedule) => break (assignment, schedule),
            Err(_) => {
                min_ii = assignment.ii + 1;
                assigner.recycle(assignment);
            }
        }
    };
    let wg = &assignment.graph;
    let register_stats = |s: &clasp::sched::Schedule| {
        black_box((
            max_live(wg, s),
            register_requirement(wg, s),
            MveInfo::compute(wg, s).unroll(),
            RrfInfo::compute(wg, s).size(),
        ));
    };
    tr.time("kernel.registers", item, parent, || register_stats(&raw));
    let schedule = tr.time("kernel.restage", item, parent, || {
        stage_schedule(wg, &raw).schedule
    });
    let model = tr.time("kernel.registers", item, parent, || {
        register_stats(&schedule);
        RegisterModel::mve(wg, &schedule)
    });
    let program = tr.time("kernel.emit", item, parent, || {
        emit_program_with(wg, &assignment.map, &schedule, req.iterations, &model)
    });
    tr.time("kernel.verify", item, parent, || {
        verify_pipelined_with(wg, &assignment.map, &schedule, req.iterations, &model)
    })
    .map_err(|e| format!("verification failed: {e}"))?;
    tr.close(root, item, 0);
    Ok(Replayed {
        ii: schedule.ii(),
        copies: assignment.copy_count(),
        bundles: program.bundles.len(),
        attempts,
        stats,
    })
}

/// The layers of the compile replay, in call order, with the
/// per-layer metric each reports.
pub const LAYERS: [(&str, &str); 7] = [
    ("ddg.analysis", "ddg.analysis_us"),
    ("core.assign", "core.assign_us"),
    ("sched.schedule", "sched.schedule_us"),
    ("kernel.restage", "kernel.restage_us"),
    ("kernel.registers", "kernel.registers_us"),
    ("kernel.emit", "kernel.emit_us"),
    ("kernel.verify", "kernel.verify_us"),
];

/// Replay every loop, preset by preset like the untraced passes, on
/// two workers. Returns each loop's replay and the summed sweep wall
/// time, seconds.
fn replay_corpus(
    corpus: &Corpus,
    tr: &Tracer,
    req: &CompileRequest,
) -> (Vec<Result<Replayed, String>>, f64) {
    let mut wall = 0.0;
    let mut replayed = Vec::with_capacity(corpus.items.len());
    for preset in 0..corpus.machines.len() {
        let range = corpus.preset_range(preset);
        let offset = range.start;
        let machine = &corpus.machines[preset];
        let start = Instant::now();
        let part = clasp_exec::try_sweep(
            WORKERS,
            &corpus.items[range],
            || (),
            |_, i, it: &Item| replay(tr, (offset + i) as u64, &it.g, machine, req),
        );
        wall += start.elapsed().as_secs_f64();
        replayed.extend(
            part.into_iter()
                .map(|r| r.unwrap_or_else(|p| Err(format!("panicked: {p}")))),
        );
    }
    (replayed, wall)
}

fn run_traced(args: &Args, req: &CompileRequest) -> Result<Outcome, String> {
    let corpus = setup(args.seed, args.corpus_seed.unwrap_or(crate::DEFAULT_SEED))?;
    let n = corpus.items.len();
    drop(Pass::run(&corpus, req));
    // The artifacts the replay must reproduce, and the executor figures.
    let (passes, _) = timed_passes(&corpus, req, args.seconds / 2.0, || Ok(()))?;
    let mut out = Outcome {
        attempted: (passes.len() * n) as u64,
        ..Outcome::default()
    };
    check_passes(&corpus, &passes, req, &mut out);

    // The tracing overhead: the same replay into a sink that records
    // nothing and into a recording one, alternately, median of each
    // side. The metrics come from the last recording replay.
    let mut untraced_walls = Vec::with_capacity(OVERHEAD_REPS);
    let mut traced_walls = Vec::with_capacity(OVERHEAD_REPS);
    let mut last = None;
    for _ in 0..OVERHEAD_REPS {
        untraced_walls.push(replay_corpus(&corpus, &Tracer::disabled(), req).1);
        let tr = Tracer::new();
        let (replayed, wall) = replay_corpus(&corpus, &tr, req);
        traced_walls.push(wall);
        last = Some((tr, replayed));
    }
    let (tr, replayed) = last.expect("at least one replay");
    // The driver and the service around the same loops: compile_full,
    // then a miss on a fresh service.
    let service = CompileService::in_memory();
    clasp_exec::try_sweep(
        WORKERS,
        &corpus.items,
        || (),
        |_, i, it: &Item| {
            let machine = &corpus.machines[it.preset];
            let _ = tr.time("driver.compile_full", i as u64, 0, || {
                black_box(compile_full(&it.g, machine, req))
            });
            tr.time("service.miss", i as u64, 0, || {
                service.compile_artifact(&it.g, machine, req, &Obs::disabled())
            });
        },
    );

    // Equivalence guard: the replay did the same work as the untraced run.
    let last = passes.last().expect("at least one pass");
    let mut attempts = 0u64;
    let mut stats = AttemptStats::default();
    let mut copies = 0u64;
    for (i, (r, untraced)) in replayed.iter().zip(last.results()).enumerate() {
        let artifact = untraced
            .as_ref()
            .ok()
            .and_then(|c| c.as_ref().as_ref().ok());
        match (r, artifact) {
            (Ok(r), Some(a)) => {
                attempts += r.attempts;
                stats.merge(&r.stats);
                copies += r.copies as u64;
                let same = r.ii == a.ii()
                    && r.copies == a.assignment.copy_count()
                    && r.bundles == a.program.bundles.len();
                if !same {
                    out.fail(format!(
                        "{}: replay gave II {} / {} copies / {} bundles, untraced {} / {} / {}",
                        corpus.label(i),
                        r.ii,
                        r.copies,
                        r.bundles,
                        a.ii(),
                        a.assignment.copy_count(),
                        a.program.bundles.len()
                    ));
                }
            }
            (Err(e), _) => out.fail(format!("{}: replay {e}", corpus.label(i))),
            (Ok(_), None) => out.fail(format!("{}: untraced compile failed", corpus.label(i))),
        }
    }

    let times = tr.self_times();
    let per_loop_us = |name: &str, filter: &dyn Fn(&Item) -> bool| -> (f64, usize) {
        let per_item = times.per_item(name);
        let mut sum = 0u64;
        let mut loops = 0usize;
        for (i, it) in corpus.items.iter().enumerate() {
            if filter(it) {
                sum += per_item.get(&(i as u64)).copied().unwrap_or(0);
                loops += 1;
            }
        }
        (us(sum) / loops.max(1) as f64, loops)
    };
    let all = |_: &Item| true;
    for (span, metric) in LAYERS {
        let (v, loops) = per_loop_us(span, &all);
        out.metric(metric, v, "us", Some(loops));
    }
    for (preset, name) in PRESETS.iter().enumerate() {
        for (span, metric) in LAYERS {
            let (v, loops) = per_loop_us(span, &|it: &Item| it.preset == preset);
            out.metric(format!("{metric}.{name}"), v, "us", Some(loops));
        }
    }
    let layers_ns = |i: u64| -> u64 {
        LAYERS
            .iter()
            .map(|(span, _)| times.of(span, i))
            .sum::<u64>()
    };
    // Per-loop differences of two separately timed calls; their median
    // over the loops, so a stall that lands in one of the two calls of
    // a loop does not decide the figure.
    let mut driver_overhead = Vec::with_capacity(n);
    let mut miss_overhead = Vec::with_capacity(n);
    let mut miss_ns = Vec::with_capacity(n);
    for i in 0..n as u64 {
        let full = times.of("driver.compile_full", i) as f64;
        let miss = times.of("service.miss", i);
        driver_overhead.push((full - layers_ns(i) as f64) / 1e3);
        miss_overhead.push((miss as f64 - full) / 1e3);
        miss_ns.push(miss);
    }
    miss_ns.sort_unstable();
    out.metric(
        "driver.overhead_us",
        median(&driver_overhead),
        "us",
        Some(n),
    );
    out.metric(
        "service.miss_overhead_us",
        median(&miss_overhead),
        "us",
        Some(n),
    );
    out.metric(
        "service.miss_ms",
        quantile(&miss_ns, 0.5) as f64 / 1e6,
        "ms",
        Some(n),
    );
    out.metric(
        "pipeline.attempts_per_loop",
        attempts as f64 / n as f64,
        "ratio",
        Some(n),
    );
    out.metric("sched.placements", stats.placements as f64, "count", None);
    out.metric("sched.backtracks", stats.backtracks as f64, "count", None);
    out.metric(
        "sched.backtrack_ratio",
        stats.backtracks as f64 / stats.placements.max(1) as f64,
        "ratio",
        None,
    );
    out.metric(
        "sched.conflicts.transport",
        stats.conflicts[3] as f64,
        "count",
        None,
    );
    out.metric("core.copies", copies as f64, "count", None);
    let sweeps: Vec<&Sweep> = passes.iter().flat_map(|p| &p.sweeps).collect();
    let busy: u64 = sweeps.iter().map(|s| s.busy_ns).sum();
    let wall: f64 = sweeps.iter().map(|s| s.wall.as_secs_f64()).sum();
    out.metric(
        "exec.busy_ratio",
        busy as f64 / 1e9 / (WORKERS as f64 * wall),
        "ratio",
        Some(sweeps.len()),
    );
    let tails: Vec<f64> = sweeps.iter().map(|s| s.tail_ns as f64 / 1e6).collect();
    out.metric(
        "exec.tail_ms",
        tails.iter().sum::<f64>() / tails.len() as f64,
        "ms",
        Some(tails.len()),
    );
    out.metric(
        "trace.overhead_pct",
        100.0 * (median(&traced_walls) - median(&untraced_walls)) / median(&untraced_walls),
        "%",
        None,
    );
    out.notes.extend(breakdown(&corpus, &times, &replayed));
    let path = args
        .spans_out
        .clone()
        .unwrap_or_else(|| format!("perfbench/out/compile-corpus-{:#x}.trace.json", args.seed));
    tr.write(&path)?;
    out.notes.push(format!(
        "spans: {path} ({} replayed loops)",
        times.spans("compile.replay")
    ));
    Ok(out)
}

/// Per-layer self time per loop by preset and stratum, µs, plus
/// attempts and copies per loop.
fn breakdown(
    corpus: &Corpus,
    times: &crate::trace::SelfTimes,
    replayed: &[Result<Replayed, String>],
) -> Vec<String> {
    let mut rows: HashMap<(usize, Stratum), Vec<usize>> = HashMap::new();
    for (i, it) in corpus.items.iter().enumerate() {
        rows.entry((it.preset, it.stratum)).or_default().push(i);
    }
    let mut lines = vec![format!(
        "{:<11} {:<17} {:>5} {}  attempts  copies",
        "preset",
        "stratum",
        "loops",
        LAYERS
            .iter()
            .map(|(span, _)| format!("{:>10}", span.rsplit('.').next().unwrap_or(span)))
            .collect::<String>()
    )];
    for (preset, name) in PRESETS.iter().enumerate() {
        for stratum in Stratum::ALL {
            let Some(idx) = rows.get(&(preset, stratum)) else {
                continue;
            };
            let per_loop = |f: &dyn Fn(usize) -> f64| {
                idx.iter().map(|&i| f(i)).sum::<f64>() / idx.len() as f64
            };
            let cols: String = LAYERS
                .iter()
                .map(|(span, _)| format!("{:>10.1}", per_loop(&|i| us(times.of(span, i as u64)))))
                .collect();
            let attempts = per_loop(&|i| replayed[i].as_ref().map_or(0.0, |r| r.attempts as f64));
            let copies = per_loop(&|i| replayed[i].as_ref().map_or(0.0, |r| r.copies as f64));
            lines.push(format!(
                "{name:<11} {:<17} {:>5} {cols}  {attempts:>8.2}  {copies:>6.2}",
                stratum.name(),
                idx.len()
            ));
        }
    }
    lines
}
