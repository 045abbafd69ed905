//! `serve-hot`: an in-process `clasp-serve` daemon on an ephemeral
//! loopback port, driven closed-loop by two TCP clients replaying a
//! `clasp-load` hot schedule, so that the memory tier answers every
//! request.
//!
//! A run repeats a fixed pass of requests until `--seconds` is up and
//! reports medians over the passes. Every reply is checked byte for
//! byte against a reference built in process during set-up with
//! `compile_full` and the artifact codec.
//!
//! The traced run times `Client::roundtrip` over TCP, then replays the
//! same requests in process on the daemon's own `CompileService` through
//! the layers in `CompileService::handle`'s order: request parse, loop
//! and machine parse, cache key, `compile_artifact`, encode.

use crate::report::{self, median, quantile, us, Outcome, SetupTimes};
use crate::trace::Tracer;
use crate::Args;
use clasp::loopgen::rng::fold_seed;
use clasp::obs::Obs;
use clasp::sched::SchedulerConfig;
use clasp::serve::{Client, Server};
use clasp::service::{ServiceReply, ServiceRequest};
use clasp::{codec, compile_full, CompileCache, CompileService, ServiceConfig};
use clasp_load::{build_schedule, Mix, MixConfig, ReqClass, Schedule};
use std::collections::HashMap;
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Closed-loop client connections: one per core of the two-core
/// reference box.
const CLIENTS: usize = 2;

/// Set-ups timed before the timed window; one more follows each timed
/// pass, and `setup_s` is the median of them all.
const SETUP_REPS: usize = 3;

/// Length of the hot schedule, replayed cyclically (every request is a
/// hit, so repeating the schedule changes nothing).
const HOT_SCHEDULE: usize = 4096;

/// Requests in one pass, all on the set-up daemon.
const PASS: usize = 20_000;

/// Untimed warm-up before the timed window.
const WARMUP_SECONDS: f64 = 1.0;

/// A pass that has not ended after this many times `--seconds` stops
/// there.
const DEADLINE_FACTOR: f64 = 3.0;

/// The traced run's in-process replay stops after this many requests,
/// which keeps the written span file small.
const REPLAY_CAP: usize = 10_000;

/// The reply the daemon must send for one hot-pool wire, and the
/// quality of what it compiles to: (clustered II, unified II, bundles).
fn reference(wire: &str) -> Result<(String, (u32, u32, usize)), String> {
    let sreq = ServiceRequest::parse(wire).map_err(|e| format!("request: {e}"))?;
    let g = clasp_text::parse_loop(&sreq.loop_text).map_err(|e| format!("loop: {e}"))?;
    let machine =
        clasp_text::parse_machine(&sreq.machine_text).map_err(|e| format!("machine: {e}"))?;
    let result = compile_full(&g, &machine, &sreq.request);
    let reply = ServiceReply {
        outcome: Ok(codec::encode(&result, sreq.request.iterations)),
        trace: None,
    }
    .render();
    let artifact = result.map_err(|e| format!("{}: pipeline failed: {e}", g.name()))?;
    let unified = clasp::unified_ii(&g, &machine, SchedulerConfig::default())
        .map_err(|e| format!("{}: no unified baseline: {e}", g.name()))?;
    Ok((
        reply,
        (artifact.ii(), unified, artifact.program.bundles.len()),
    ))
}

/// Everything a run replays, built once per set-up.
struct Inputs {
    schedule: Schedule,
    /// Hot-pool index of each request of the schedule.
    hot_index: Vec<usize>,
    /// Reference reply of every hot-pool wire.
    refs: Vec<String>,
    /// Geomean clustered II / unified II over the hot pool.
    ii_ratio: f64,
    /// Bundles emitted for the hot pool.
    bundles: u64,
}

impl Inputs {
    /// The wire and hot-pool index of the `i`-th request issued (the
    /// schedule repeats).
    fn request(&self, i: usize) -> (&str, usize) {
        let pos = i % self.schedule.requests.len();
        (&self.schedule.requests[pos].wire, self.hot_index[pos])
    }
}

/// A running daemon and the service behind it.
struct Daemon {
    service: Arc<CompileService>,
    server: Server,
}

impl Daemon {
    /// Start a daemon and prewarm it with every hot wire, checking each
    /// reply.
    fn start(inputs: &Inputs) -> Result<Daemon, String> {
        let service = Arc::new(
            CompileService::new(ServiceConfig::default()).map_err(|e| format!("service: {e}"))?,
        );
        let server = Server::start("127.0.0.1:0", Arc::clone(&service))
            .map_err(|e| format!("start daemon: {e}"))?;
        let mut client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        for (wire, want) in inputs.schedule.hot_wires.iter().zip(&inputs.refs) {
            let got = client
                .roundtrip(wire)
                .map_err(|e| format!("prewarm: {e}"))?;
            if &got != want {
                return Err("prewarm reply differs from the in-process reference".into());
            }
        }
        Ok(Daemon { service, server })
    }

    /// Wait for the connection registry to drain, shut the daemon down
    /// and fail the run if a connection was left open or a handler
    /// panicked.
    fn stop(self, out: &mut Outcome) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while self.server.open_connections() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let (open, panics) = (self.server.open_connections(), self.server.handler_panics());
        let _ = self.server.shutdown();
        if open > 0 || panics > 0 {
            out.fail(format!(
                "daemon: {open} connections left open, {panics} handler panics"
            ));
        }
    }
}

/// Build the inputs, start the daemon and prewarm it. The hot pool
/// comes from `--corpus-seed` (default: the load harness's own pool
/// seed); the request order over it from `--seed`.
fn setup(args: &Args) -> Result<(Inputs, Daemon), String> {
    let schedule = build_schedule(
        &MixConfig {
            mix: Mix::Hot,
            requests: HOT_SCHEDULE,
            pool_seed: args
                .corpus_seed
                .unwrap_or(clasp::load::LoadProfile::default().seed),
            cell_seed: fold_seed(fold_seed(args.seed, "serve-hot"), "timed"),
            hard_dir: None,
        },
        clasp::load::wire_of,
    );
    let pool: HashMap<&str, usize> = schedule
        .hot_wires
        .iter()
        .enumerate()
        .map(|(i, w)| (w.as_str(), i))
        .collect();
    let hot_index = schedule
        .requests
        .iter()
        .map(|r| match r.class {
            ReqClass::Hot => pool.get(r.wire.as_str()).copied(),
            _ => None,
        })
        .collect::<Option<Vec<usize>>>()
        .ok_or("the hot schedule holds a request outside the hot pool")?;
    let mut refs = Vec::with_capacity(schedule.hot_wires.len());
    let mut log_ratio = 0.0;
    let mut bundles = 0u64;
    for wire in &schedule.hot_wires {
        let (reply, (ii, unified, b)) = reference(wire)?;
        refs.push(reply);
        log_ratio += (f64::from(ii) / f64::from(unified)).ln();
        bundles += b as u64;
    }
    let inputs = Inputs {
        ii_ratio: (log_ratio / refs.len() as f64).exp(),
        bundles,
        refs,
        hot_index,
        schedule,
    };
    let daemon = Daemon::start(&inputs)?;
    Ok((inputs, daemon))
}

/// What one client saw.
#[derive(Default)]
struct Log {
    /// Latency of every completed request, ns.
    latency: Vec<u64>,
    failures: Vec<String>,
    /// Requests issued.
    issued: u64,
}

/// One closed-loop pass: `CLIENTS` connections issuing requests
/// `first..first + count` (each client takes the next index when its
/// previous reply lands) until they run out or the deadline passes.
struct Pass<'a> {
    inputs: &'a Inputs,
    first: usize,
    count: usize,
    deadline: Instant,
    tracer: Option<&'a Tracer>,
}

impl Pass<'_> {
    fn client(&self, addr: SocketAddr, cursor: &AtomicUsize) -> Log {
        let mut log = Log::default();
        let mut client = None;
        while Instant::now() < self.deadline {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= self.first + self.count {
                break;
            }
            let c = match client.as_mut() {
                Some(c) => c,
                None => match Client::connect(addr) {
                    Ok(c) => client.insert(c),
                    Err(e) => {
                        log.failures.push(format!("connect: {e}"));
                        break;
                    }
                },
            };
            let (wire, hot) = self.inputs.request(i);
            log.issued += 1;
            let span = self.tracer.map(|t| t.open("serve.roundtrip"));
            let sent = Instant::now();
            let reply = c.roundtrip(wire);
            let ns = sent.elapsed().as_nanos() as u64;
            if let (Some(t), Some(span)) = (self.tracer, span) {
                t.close(span, i as u64, 0);
            }
            match reply {
                Ok(reply) => {
                    log.latency.push(ns);
                    if reply != self.inputs.refs[hot] {
                        log.failures
                            .push(format!("request {i}: reply differs from reference"));
                    }
                }
                Err(e) => {
                    log.failures.push(format!("request {i}: {e}"));
                    client = None;
                }
            }
        }
        log
    }

    /// Run the pass against `addr`, counting attempts and failures into
    /// `out`. Returns the sorted latencies, ns, and the pass's wall time.
    fn run(&self, addr: SocketAddr, out: &mut Outcome) -> (Vec<u64>, Duration) {
        let cursor = AtomicUsize::new(self.first);
        let start = Instant::now();
        let logs: Vec<Log> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|_| s.spawn(|| self.client(addr, &cursor)))
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| Log {
                        failures: vec!["client thread panicked".into()],
                        ..Log::default()
                    })
                })
                .collect()
        });
        let wall = start.elapsed();
        let mut latency = Vec::new();
        for log in logs {
            out.attempted += log.issued;
            for f in log.failures {
                out.fail(f);
            }
            latency.extend(log.latency);
        }
        latency.sort_unstable();
        (latency, wall)
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = SetupTimes::default();
    let (mut inputs, mut daemon) = setups.time(|| setup(args))?;
    for _ in 1..SETUP_REPS {
        daemon.stop(&mut out);
        (inputs, daemon) = setups.time(|| setup(args))?;
    }

    // Untimed warm-up; failures in it fail the run, its samples are
    // dropped.
    let mut warm_out = Outcome::default();
    Pass {
        inputs: &inputs,
        first: 0,
        count: usize::MAX / 2,
        deadline: Instant::now() + Duration::from_secs_f64(WARMUP_SECONDS),
        tracer: None,
    }
    .run(daemon.server.addr(), &mut warm_out);
    for note in warm_out.notes {
        out.fail(format!("warm-up: {note}"));
    }

    if args.trace {
        run_traced(args, &inputs, &daemon, &mut out)?;
    } else {
        run_timed(args, &inputs, &daemon, &mut setups, &mut out)?;
    }
    daemon.stop(&mut out);
    Ok(out)
}

fn run_timed(
    args: &Args,
    inputs: &Inputs,
    daemon: &Daemon,
    setups: &mut SetupTimes,
    out: &mut Outcome,
) -> Result<(), String> {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds * DEADLINE_FACTOR);
    let mut passes: Vec<(Vec<u64>, Duration)> = Vec::new();
    let mut peak_rss = 0.0;
    loop {
        let (latency, wall) = Pass {
            inputs,
            first: passes.len() * PASS,
            count: PASS,
            deadline,
            tracer: None,
        }
        .run(daemon.server.addr(), out);
        if latency.len() < PASS {
            out.notes.push(format!(
                "note: the deadline stopped pass {} after {} of {PASS} requests",
                passes.len(),
                latency.len()
            ));
        }
        passes.push((latency, wall));
        if passes.len() == 1 {
            peak_rss = report::peak_rss_mb();
        }
        let (_, extra) = setups.time(|| setup(args))?;
        extra.stop(out);
        if start.elapsed().as_secs_f64() >= args.seconds || Instant::now() >= deadline {
            break;
        }
    }

    let rates: Vec<f64> = passes
        .iter()
        .map(|(l, wall)| l.len() as f64 / wall.as_secs_f64())
        .collect();
    let p50: Vec<f64> = passes.iter().map(|(l, _)| us(quantile(l, 0.5))).collect();
    let p99: Vec<f64> = passes.iter().map(|(l, _)| us(quantile(l, 0.99))).collect();
    let n: usize = passes.iter().map(|(l, _)| l.len()).sum();
    out.notes.push(format!(
        "serve-hot: {} passes, {n} requests; per-pass requests/s {:?}",
        passes.len(),
        rates.iter().map(|r| r.round()).collect::<Vec<_>>(),
    ));
    out.metric("setup_s", setups.median(), "s", Some(setups.len()));
    out.metric(
        "throughput_per_s",
        median(&rates),
        "1/s",
        Some(passes.len()),
    );
    out.metric("latency_p50_us", median(&p50), "us", Some(n));
    out.metric("latency_p99_us", median(&p99), "us", Some(n));
    out.metric(
        "ii_vs_unified",
        inputs.ii_ratio,
        "ratio",
        Some(inputs.refs.len()),
    );
    out.metric(
        "code_bundles",
        inputs.bundles as f64,
        "count",
        Some(inputs.refs.len()),
    );
    out.metric("peak_rss_mb", peak_rss, "MiB", None);
    Ok(())
}

/// One request through the layers of `CompileService::handle`, each in
/// its own span under a `serve.inproc` root. Returns the reply.
fn replay_one(
    tr: &Tracer,
    service: &CompileService,
    item: u64,
    wire: &str,
) -> Result<String, String> {
    let root = tr.open("serve.inproc");
    let parent = root.id;
    let sreq = tr
        .time("service.request_parse", item, parent, || {
            ServiceRequest::parse(wire)
        })
        .map_err(|e| format!("request: {e}"))?;
    let g = tr
        .time("text.parse_loop", item, parent, || {
            clasp_text::parse_loop(&sreq.loop_text)
        })
        .map_err(|e| format!("loop: {e}"))?;
    let machine = tr
        .time("text.parse_machine", item, parent, || {
            clasp_text::parse_machine(&sreq.machine_text)
        })
        .map_err(|e| format!("machine: {e}"))?;
    tr.time("cache.key", item, parent, || {
        black_box(CompileCache::key(&g, &machine, &sreq.request))
    });
    let result = tr.time("service.hit", item, parent, || {
        service.compile_artifact(&g, &machine, &sreq.request, &Obs::disabled())
    });
    let payload = tr.time("codec.encode", item, parent, || {
        codec::encode(&result, sreq.request.iterations)
    });
    let reply = tr.time("service.render", item, parent, || {
        ServiceReply {
            outcome: Ok(payload),
            trace: None,
        }
        .render()
    });
    tr.close(root, item, 0);
    Ok(reply)
}

/// An untraced pass and a traced pass on the set-up daemon, then the
/// in-process layer replay of the same requests on the daemon's own
/// service.
fn run_traced(
    args: &Args,
    inputs: &Inputs,
    daemon: &Daemon,
    out: &mut Outcome,
) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds * DEADLINE_FACTOR);
    let pass = |tracer| Pass {
        inputs,
        first: 0,
        count: PASS,
        deadline,
        tracer,
    };
    let (untraced, _) = pass(None).run(daemon.server.addr(), out);
    let tr = Tracer::new();
    let (traced, _) = pass(Some(&tr)).run(daemon.server.addr(), out);
    let stats = daemon.service.tiered_stats().memory;

    // In-process replay, two threads like the clients.
    let service = &daemon.service;
    let cursor = AtomicUsize::new(0);
    let count = PASS.min(REPLAY_CAP);
    let replies: Vec<Vec<(usize, String)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    while Instant::now() < deadline {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            break;
                        }
                        let (wire, hot) = inputs.request(i);
                        let reply = replay_one(&tr, service, i as u64, wire)
                            .unwrap_or_else(|e| format!("replay failed: {e}"));
                        let direct =
                            tr.time("service.respond", i as u64, 0, || service.respond(wire));
                        if direct != reply {
                            mine.push((hot, "respond differs from the layer replay".into()));
                        }
                        mine.push((hot, reply));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });
    let mut reply_bytes = Vec::new();
    for (hot, reply) in replies.into_iter().flatten() {
        out.attempted += 1;
        reply_bytes.push(reply.len() as u64);
        if reply != inputs.refs[hot] {
            out.fail(format!(
                "in-process reply for hot loop {hot} differs from reference"
            ));
        }
    }

    let times = tr.self_times();
    let p = |name: &str, q: f64| -> (u64, usize) {
        let mut v: Vec<u64> = times.per_item(name).into_values().collect();
        v.sort_unstable();
        (quantile(&v, q), v.len())
    };
    let (roundtrip, n) = p("serve.roundtrip", 0.5);
    out.metric("serve.roundtrip_us", us(roundtrip), "us", Some(n));
    let (respond, n_respond) = p("service.respond", 0.5);
    out.metric(
        "serve.transport_us",
        us(roundtrip) - us(respond),
        "us",
        Some(n.min(n_respond)),
    );
    out.metric(
        "serve.hit_p99_us",
        us(quantile(&traced, 0.99)),
        "us",
        Some(traced.len()),
    );
    for (span, metric) in [
        ("service.request_parse", "service.request_parse_us"),
        ("text.parse_loop", "text.parse_loop_us"),
        ("text.parse_machine", "text.parse_machine_us"),
        ("cache.key", "cache.key_us"),
        ("codec.encode", "codec.encode_us"),
    ] {
        let (v, n) = p(span, 0.5);
        out.metric(metric, us(v), "us", Some(n));
    }
    let (hit50, n_hit) = p("service.hit", 0.5);
    let (hit99, _) = p("service.hit", 0.99);
    out.metric("service.hit_p50_us", us(hit50), "us", Some(n_hit));
    out.metric("service.hit_p99_us", us(hit99), "us", Some(n_hit));
    let bytes = reply_bytes.iter().sum::<u64>() as f64 / reply_bytes.len().max(1) as f64;
    out.metric("codec.reply_bytes", bytes, "bytes", Some(reply_bytes.len()));
    out.metric(
        "cache.hit_ratio",
        stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64,
        "ratio",
        None,
    );
    out.metric("cache.entries", stats.entries as f64, "count", None);
    let untraced_p50 = us(quantile(&untraced, 0.5));
    out.metric(
        "trace.overhead_pct",
        100.0 * (us(quantile(&traced, 0.5)) - untraced_p50) / untraced_p50,
        "%",
        None,
    );
    let path = args
        .spans_out
        .clone()
        .unwrap_or_else(|| format!("perfbench/out/serve-hot-{:#x}.trace.json", args.seed));
    tr.write(&path)?;
    out.notes.push(format!(
        "spans: {path} ({} roundtrips, {} in-process requests)",
        times.spans("serve.roundtrip"),
        times.spans("serve.inproc")
    ));
    Ok(())
}
