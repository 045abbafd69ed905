//! One benchmark for CLASP: a cold corpus compile and hot-hit daemon
//! traffic, each in its own process.
//!
//! ```text
//! clasp-perfbench --workload <compile-corpus|serve-hot>
//!                 [--seed N|default|held-out] [--corpus-seed N|default|held-out]
//!                 [--seconds S] [--trace 0|1] [--spans-out PATH]
//! ```
//!
//! With `--trace 0` the run prints every end-to-end metric; with
//! `--trace 1` it prints every per-layer metric, measured by spans the
//! benchmark records around its calls into each layer. Either way the
//! last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`, and every output the
//! program produced has been checked. Any failed check makes the
//! process exit with code 1. See `README.md` beside this crate for the
//! workloads, the metrics and the map from layers to end-to-end
//! metrics.

mod compile;
mod report;
mod serve;
mod trace;

use report::Outcome;

/// The seed the benchmark runs when none is given, and the default
/// corpus seed: the committed stratified corpus seed.
pub const DEFAULT_SEED: u64 = 0x1998_C1A5;

/// A seed kept back for confirming a claimed gain on inputs its author
/// did not tune on (`--seed held-out`, `--corpus-seed held-out`).
pub const HELD_OUT_SEED: u64 = 0x5EED_2B0B;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold full-pipeline compile of the stratified corpus.
    CompileCorpus,
    /// Closed-loop TCP traffic that the memory tier always answers.
    ServeHot,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "compile-corpus" => Some(Workload::CompileCorpus),
            "serve-hot" => Some(Workload::ServeHot),
            _ => None,
        }
    }

    /// The workload's name as given on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CompileCorpus => "compile-corpus",
            Workload::ServeHot => "serve-hot",
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Input seed: the compile order of the corpus, the request order
    /// of the daemon workload.
    pub seed: u64,
    /// Seed of the loops compiled: the stratified corpus of
    /// `compile-corpus` (default [`DEFAULT_SEED`]), the hot pool of
    /// `serve-hot` (default the load harness's pool seed).
    pub corpus_seed: Option<u64>,
    /// Length of the timed window, seconds.
    pub seconds: f64,
    /// Run the traced per-layer measurement instead of the end-to-end one.
    pub trace: bool,
    /// Where the traced run writes its spans (Chrome trace-event JSON).
    pub spans_out: Option<String>,
}

fn parse_seed(s: &str) -> Option<u64> {
    match s {
        "default" => Some(DEFAULT_SEED),
        "held-out" => Some(HELD_OUT_SEED),
        _ => match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
            Some(hex) => u64::from_str_radix(hex, 16).ok(),
            None => s.parse().ok(),
        },
    }
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut corpus_seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut spans_out = None;
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        match flag {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = parse_seed(value).ok_or_else(|| format!("bad seed `{value}`"))?,
            "--corpus-seed" => {
                corpus_seed = Some(parse_seed(value).ok_or_else(|| format!("bad seed `{value}`"))?)
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad --seconds `{value}`"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--spans-out" => spans_out = Some(value.clone()),
            other => return Err(format!("unknown flag `{other}`")),
        }
        i += 2;
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed,
        corpus_seed,
        seconds,
        trace,
        spans_out,
    })
}

/// Shuffle `items` in place, Fisher-Yates, with a stream drawn from
/// `seed`.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = clasp::loopgen::rng::Rng::seed_from_u64(seed);
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// Every per-layer metric a traced run reports, with its unit. Every
/// traced run prints the whole list; a layer the workload does no work
/// in reads 0 with 0 samples.
fn per_layer_catalogue() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = Vec::new();
    for (_, metric) in compile::LAYERS {
        names.push((metric.to_string(), "us"));
    }
    for preset in compile::PRESETS {
        for (_, metric) in compile::LAYERS {
            names.push((format!("{metric}.{preset}"), "us"));
        }
    }
    for (name, unit) in [
        ("driver.overhead_us", "us"),
        ("service.miss_overhead_us", "us"),
        ("pipeline.attempts_per_loop", "ratio"),
        ("sched.placements", "count"),
        ("sched.backtracks", "count"),
        ("sched.backtrack_ratio", "ratio"),
        ("sched.conflicts.transport", "count"),
        ("core.copies", "count"),
        ("exec.busy_ratio", "ratio"),
        ("exec.tail_ms", "ms"),
        ("serve.roundtrip_us", "us"),
        ("serve.transport_us", "us"),
        ("serve.hit_p99_us", "us"),
        ("service.request_parse_us", "us"),
        ("text.parse_loop_us", "us"),
        ("text.parse_machine_us", "us"),
        ("cache.key_us", "us"),
        ("service.hit_p50_us", "us"),
        ("service.hit_p99_us", "us"),
        ("service.miss_ms", "ms"),
        ("codec.encode_us", "us"),
        ("codec.reply_bytes", "bytes"),
        ("cache.hit_ratio", "ratio"),
        ("cache.entries", "count"),
        ("trace.overhead_pct", "%"),
    ] {
        names.push((name.to_string(), unit));
    }
    names
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("clasp-perfbench: {e}");
            eprintln!(
                "usage: clasp-perfbench --workload <compile-corpus|serve-hot> \
                 [--seed N|default|held-out] [--corpus-seed N|default|held-out] \
                 [--seconds S] [--trace 0|1] [--spans-out PATH]"
            );
            std::process::exit(2);
        }
    };
    eprintln!(
        "clasp-perfbench: {} seed {:#x} (corpus seed {}), {}s, trace {}",
        args.workload.name(),
        args.seed,
        args.corpus_seed
            .map_or("default".to_string(), |s| format!("{s:#x}")),
        args.seconds,
        u8::from(args.trace)
    );
    let result: Result<Outcome, String> = match args.workload {
        Workload::CompileCorpus => compile::run(&args),
        Workload::ServeHot => serve::run(&args),
    };
    match result {
        Ok(mut outcome) => {
            if args.trace {
                for (name, unit) in per_layer_catalogue() {
                    if !outcome.metrics.iter().any(|m| m.name == name) {
                        outcome.metric(name, 0.0, unit, Some(0));
                    }
                }
            }
            outcome.print();
            if !outcome.correct() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("clasp-perfbench: {e}");
            std::process::exit(1);
        }
    }
}
