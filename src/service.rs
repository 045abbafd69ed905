//! The compile *service*: one facade every entry point (CLI, daemon,
//! experiments, benchmarks) drives instead of wiring caches and the
//! driver together by hand.
//!
//! A [`CompileService`] owns:
//!
//! - the tiered [`CompileCache`](crate::CompileCache) for full-driver
//!   artifacts (memory over an optional persistent directory), whose
//!   memory entries keep each result's encoded payload,
//! - two phase-2 memo tables for callers that only need IIs (the
//!   experiment harness compiles thousands of loops but never emits a
//!   kernel — caching the full artifact would be pure waste),
//! - an admission gate bounding how many *compiles* run at once, so a
//!   daemon under fan-in degrades to queueing rather than thrashing.
//!   The gate is taken inside the caches' compute step, after the
//!   lookup: memory hits and disk promotions never wait on it,
//! - an alias table from the hash of a raw wire request body to the
//!   canonical cache key it compiled to (see below).
//!
//! The service also defines the *wire* request/response shape shared
//! with the `clasp-serve` daemon: a [`ServiceRequest`] carries the
//! `.clasp` loop text, the `.machine` description, every
//! [`CompileRequest`] knob, and an optional trace-capture flag; a
//! [`ServiceReply`] carries the [`crate::codec`] canonical artifact
//! payload (bit-identical whether computed, served from memory, or
//! promoted from disk) plus the optional Chrome trace JSON. Both render
//! to and parse from plain text, so the TCP layer in [`crate::serve`]
//! only moves opaque frames.
//!
//! # The wire hit path
//!
//! [`CompileService::respond`] first hashes the raw frame body with
//! [`KeyBuilder`]. When the alias table maps that hash to a canonical
//! key whose entry is resident in the memory tier, the reply is
//! rendered straight from the entry's stored payload: no request, loop
//! or machine parse, no canonical key, no encode, and one allocation
//! (the reply). The peek counts a memory hit exactly as a full lookup
//! would, so the cache counters do not depend on which path answered.
//!
//! Every other request takes the full path: an unseen body, a body
//! whose entry was evicted, a `trace 1` request (its reply carries its
//! own trace, so it is never aliased) and a bad request. A full path
//! that compiled without a trace records its alias afterwards. The
//! mapping is sound because the canonical key is a pure function of
//! the body: parsing and keying the same bytes again would give the
//! same key. The body hash is the same 128-bit FNV-1a construction as
//! the content key and shares its collision contract (see
//! [`clasp_exec::cache`]). The table holds at most twice as many aliases as the
//! memory tier holds entries (and at least two); a full path that would
//! overflow it clears it first.

use crate::cached::{CachedCompile, CompileCache};
use crate::codec;
use crate::driver::{BackendKind, CompileRequest, RegisterModelKind};
use crate::pipeline::{compile_loop, unified_ii, PipelineConfig};
use clasp_core::Ordering;
use clasp_ddg::Ddg;
use clasp_exec::{CacheKey, ContentCache, KeyBuilder, TieredStats};
use clasp_machine::MachineSpec;
use clasp_obs::Obs;
use clasp_sched::{SchedulerConfig, SchedulerKind};
use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, RwLock};

/// First line of every wire request and reply.
pub const PROTOCOL: &str = "clasp-serve/1";

/// How to build a [`CompileService`].
#[derive(Debug, Clone, Default)]
pub struct ServiceConfig {
    /// Maximum concurrent compiles admitted (0 = one per hardware
    /// thread). Compiles beyond the limit queue on the gate rather than
    /// oversubscribing the machine; cache hits never queue.
    pub threads: usize,
    /// Byte budget for the in-memory artifact tier (`None` = unbounded).
    pub memory_budget: Option<usize>,
    /// Directory for the persistent artifact tier (`None` = memory only).
    pub cache_dir: Option<PathBuf>,
}

/// A request-level failure: the wire text, the loop, or the machine
/// could not be parsed. Pipeline failures are *not* service errors —
/// they travel inside the artifact payload as typed results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceError(pub String);

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ServiceError {}

fn bad(msg: impl Into<String>) -> ServiceError {
    ServiceError(msg.into())
}

/// A counting semaphore: `acquire` blocks while `permits` is zero. The
/// queue order is whatever the platform condvar provides; determinism
/// of *results* never depends on admission order because every cached
/// quantity depends only on work done.
struct Gate {
    permits: Mutex<usize>,
    cv: Condvar,
}

impl Gate {
    fn new(width: usize) -> Gate {
        Gate {
            permits: Mutex::new(width.max(1)),
            cv: Condvar::new(),
        }
    }

    fn acquire(&self) -> GatePermit<'_> {
        let mut permits = self.permits.lock().unwrap();
        while *permits == 0 {
            permits = self.cv.wait(permits).unwrap();
        }
        *permits -= 1;
        GatePermit { gate: self }
    }
}

struct GatePermit<'a> {
    gate: &'a Gate,
}

impl Drop for GatePermit<'_> {
    fn drop(&mut self) {
        *self.gate.permits.lock().unwrap() += 1;
        self.gate.cv.notify_one();
    }
}

/// Raw wire-body key → canonical cache key (see the module docs).
#[derive(Default)]
struct Aliases(RwLock<HashMap<CacheKey, CacheKey>>);

impl Aliases {
    fn get(&self, raw: CacheKey) -> Option<CacheKey> {
        self.0.read().expect("alias table lock").get(&raw).copied()
    }

    /// Record `raw → key` when given one, keeping the table within
    /// twice the memory tier's `resident` entries (at least two): a
    /// table that would overflow is cleared first.
    fn record(&self, raw: CacheKey, key: Option<CacheKey>, resident: u64) {
        let bound = 2 * resident.max(1) as usize;
        let mut map = self.0.write().expect("alias table lock");
        if map.len() + usize::from(key.is_some()) > bound {
            map.clear();
        }
        if let Some(key) = key {
            map.insert(raw, key);
        }
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.0.read().expect("alias table lock").len()
    }
}

/// The alias-table key of a raw wire body.
fn wire_key(wire: &str) -> CacheKey {
    let mut kb = KeyBuilder::new();
    kb.text(wire);
    kb.finish()
}

/// The service facade: tiered artifact cache + phase-2 II memo tables +
/// admission gate + wire alias table. See the module docs.
pub struct CompileService {
    full: CompileCache,
    phase2: ContentCache<Option<u32>>,
    unified: ContentCache<Option<u32>>,
    gate: Gate,
    aliases: Aliases,
}

impl fmt::Debug for CompileService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompileService")
            .field("stats", &self.tiered_stats())
            .field("has_disk", &self.has_disk())
            .finish()
    }
}

impl CompileService {
    /// Build a service from `config`, opening (or creating) the
    /// persistent tier when a directory is configured.
    ///
    /// # Errors
    ///
    /// An [`std::io::Error`] if the cache directory cannot be created.
    pub fn new(config: ServiceConfig) -> std::io::Result<CompileService> {
        let disk = match &config.cache_dir {
            Some(dir) => Some(CompileCache::open_disk_tier(dir)?),
            None => None,
        };
        let width = if config.threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            config.threads
        };
        Ok(CompileService {
            full: CompileCache::with_limits(config.memory_budget, disk),
            phase2: ContentCache::new(),
            unified: ContentCache::new(),
            gate: Gate::new(width),
            aliases: Aliases::default(),
        })
    }

    /// A memory-only service admitting one compile per hardware thread.
    pub fn in_memory() -> CompileService {
        CompileService::new(ServiceConfig::default()).expect("no IO without a cache dir")
    }

    /// Whether a persistent tier is attached.
    pub fn has_disk(&self) -> bool {
        self.full.has_disk()
    }

    /// Full-driver compile through the tiered cache (see
    /// [`CompileCache::compile_observed`]); a compile, but no lookup,
    /// waits for admission.
    pub fn compile_artifact(
        &self,
        g: &Ddg,
        machine: &MachineSpec,
        req: &CompileRequest,
        obs: &Obs,
    ) -> CachedCompile {
        let (_, entry) = self
            .full
            .lookup(g, machine, req, obs, || self.gate.acquire());
        Arc::clone(&entry.value)
    }

    /// Phase-1+2 II only (no emission, no artifact): the experiment
    /// harness's workload, memoized separately so a corpus sweep never
    /// pays for (or evicts) full artifacts. `None` memoizes pipeline
    /// failure.
    pub fn ii_of(&self, g: &Ddg, machine: &MachineSpec, config: PipelineConfig) -> Option<u32> {
        let key = phase2_key("ii", g, machine, &format!("{config:?}"));
        *self.phase2.get_or_compute(key, || {
            let _permit = self.gate.acquire();
            compile_loop(g, machine, config).ok().map(|c| c.ii())
        })
    }

    /// The unified-baseline II for `machine`'s equally wide unified
    /// equivalent, memoized like [`CompileService::ii_of`].
    pub fn unified_ii_of(
        &self,
        g: &Ddg,
        machine: &MachineSpec,
        sched: SchedulerConfig,
    ) -> Option<u32> {
        let key = phase2_key("unified", g, machine, &format!("{sched:?}"));
        *self.unified.get_or_compute(key, || {
            let _permit = self.gate.acquire();
            unified_ii(g, machine, sched).ok()
        })
    }

    /// The differential-oracle pipeline routed through the service
    /// cache: a fuzz case compiled twice (e.g. while shrinking) is
    /// served from memory. Matches [`clasp_oracle::PipelineFn`].
    ///
    /// # Errors
    ///
    /// The pipeline's error, stringified (the oracle reports pipeline
    /// failures, it never matches on them).
    pub fn oracle_case(
        &self,
        g: &Ddg,
        machine: &MachineSpec,
    ) -> Result<clasp_oracle::CompiledCase, String> {
        // Driver-side verification off: the oracle performs its own
        // functional verification differentially over both register
        // models.
        let req = CompileRequest {
            verify: false,
            ..CompileRequest::default()
        };
        match self
            .compile_artifact(g, machine, &req, &Obs::disabled())
            .as_ref()
        {
            Ok(artifact) => Ok(clasp_oracle::CompiledCase {
                assignment: artifact.assignment.clone(),
                schedule: artifact.schedule.clone(),
            }),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Handle one parsed wire request end-to-end: parse the texts,
    /// compile through the cache, answer with the entry's stored
    /// canonical artifact payload (and the trace, when captured).
    pub fn handle(&self, sreq: &ServiceRequest) -> ServiceReply {
        self.handle_keyed(sreq).0
    }

    /// [`CompileService::handle`], also returning the canonical cache key
    /// the request may be aliased to: `None` for a bad request and for a
    /// traced one.
    fn handle_keyed(&self, sreq: &ServiceRequest) -> (ServiceReply, Option<CacheKey>) {
        let g = match clasp_text::parse_loop(&sreq.loop_text) {
            Ok(g) => g,
            Err(e) => return (ServiceReply::bad_request(format!("loop: {e}")), None),
        };
        let machine = match clasp_text::parse_machine(&sreq.machine_text) {
            Ok(m) => m,
            Err(e) => return (ServiceReply::bad_request(format!("machine: {e}")), None),
        };
        let obs = if sreq.capture_trace {
            Obs::enabled()
        } else {
            Obs::disabled()
        };
        let (key, entry) = self
            .full
            .lookup(&g, &machine, &sreq.request, &obs, || self.gate.acquire());
        let reply = ServiceReply {
            outcome: Ok(entry.payload.clone()),
            trace: sreq.capture_trace.then(|| obs.chrome_trace()),
        };
        (reply, (!sreq.capture_trace).then_some(key))
    }

    /// Handle one raw wire request: answer an aliased body whose entry
    /// is resident straight from the stored payload, otherwise parse,
    /// dispatch, render and record the alias (see the module docs). Any
    /// parse failure becomes a `bad-request` reply — the connection
    /// survives.
    pub fn respond(&self, wire: &str) -> String {
        let raw = wire_key(wire);
        if let Some(entry) = self.aliases.get(raw).and_then(|key| self.full.peek(key)) {
            return render_reply(Ok(&entry.payload), None);
        }
        let (reply, key) = match ServiceRequest::parse(wire) {
            Ok(sreq) => self.handle_keyed(&sreq),
            Err(e) => (ServiceReply::bad_request(e.0), None),
        };
        self.aliases.record(raw, key, self.full.stats().entries);
        reply.render()
    }

    /// In-memory artifact-tier counters.
    pub fn stats(&self) -> clasp_exec::CacheStats {
        self.full.stats()
    }

    /// Counters for every artifact tier.
    pub fn tiered_stats(&self) -> TieredStats {
        self.full.tiered_stats()
    }

    /// One-line counter rendering for the daemon's `stats` verb.
    pub fn stats_line(&self) -> String {
        let t = self.tiered_stats();
        format!(
            "memory {} hits {} misses {} entries; disk {} hits {} misses {} errors; {} promotions",
            t.memory.hits,
            t.memory.misses,
            t.memory.entries,
            t.disk.hits,
            t.disk.misses,
            t.disk.errors,
            t.promotions
        )
    }
}

/// The phase-2 memo key: kind discriminator, loop text, nameless
/// machine text, config rendering — all streamed.
fn phase2_key(
    kind: &str,
    g: &Ddg,
    machine: &MachineSpec,
    config_text: &str,
) -> clasp_exec::CacheKey {
    let mut kb = KeyBuilder::new();
    kb.text(kind);
    kb.stream(|s| {
        let _ = clasp_text::write_loop_into(g, s);
    });
    kb.stream(|s| {
        let _ = clasp_text::write_machine_named_into(machine, "#", s);
    });
    kb.text(config_text);
    kb.finish()
}

/// One compile over the wire: the two canonical texts plus every
/// request knob. Renders to / parses from the plain-text frame body the
/// daemon speaks (see the module docs for the layout).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceRequest {
    /// `.clasp` loop description.
    pub loop_text: String,
    /// `.machine` machine description.
    pub machine_text: String,
    /// Driver knobs.
    pub request: CompileRequest,
    /// Capture a Chrome trace of this compile into the reply.
    pub capture_trace: bool,
}

fn flag(b: bool) -> &'static str {
    if b {
        "1"
    } else {
        "0"
    }
}

fn parse_flag(tok: &str, what: &str) -> Result<bool, ServiceError> {
    match tok {
        "1" => Ok(true),
        "0" => Ok(false),
        other => Err(bad(format!("{what}: expected 0 or 1, got `{other}`"))),
    }
}

impl ServiceRequest {
    /// A request with default knobs and no trace capture.
    pub fn new(loop_text: impl Into<String>, machine_text: impl Into<String>) -> ServiceRequest {
        ServiceRequest {
            loop_text: loop_text.into(),
            machine_text: machine_text.into(),
            request: CompileRequest::default(),
            capture_trace: false,
        }
    }

    /// Render the wire text (one frame body).
    pub fn render(&self) -> String {
        let r = &self.request;
        let a = &r.pipeline.assign;
        let mut s = String::new();
        s.push_str(PROTOCOL);
        s.push_str(" compile\n");
        s.push_str(&format!(
            "assign {} {} {} {} {} {}\n",
            flag(a.iterative),
            flag(a.heuristic),
            flag(a.pcr_prediction),
            match a.ordering {
                Ordering::SccSwing => "scc-swing",
                Ordering::SwingOnly => "swing-only",
                Ordering::BottomUp => "bottom-up",
            },
            a.budget_factor,
            a.max_ii.map_or("-".to_string(), |v| v.to_string()),
        ));
        s.push_str(&format!("sched {}\n", r.pipeline.sched.budget_factor));
        s.push_str(&format!(
            "backend {}\n",
            match r.backend {
                BackendKind::Heuristic => "heuristic",
                BackendKind::Exact => "exact",
            }
        ));
        s.push_str(&format!(
            "scheduler {}\n",
            match r.pipeline.scheduler {
                SchedulerKind::Iterative => "iterative",
                SchedulerKind::Swing => "swing",
            }
        ));
        s.push_str(&format!(
            "model {}\n",
            match r.register_model {
                RegisterModelKind::Mve => "mve",
                RegisterModelKind::Rotating => "rotating",
            }
        ));
        s.push_str(&format!("restage {}\n", flag(r.restage)));
        s.push_str(&format!("iterations {}\n", r.iterations));
        s.push_str(&format!("verify {}\n", flag(r.verify)));
        s.push_str(&format!("trace {}\n", flag(self.capture_trace)));
        s.push_str("-- machine\n");
        s.push_str(&self.machine_text);
        if !self.machine_text.ends_with('\n') {
            s.push('\n');
        }
        s.push_str("-- loop\n");
        s.push_str(&self.loop_text);
        s
    }

    /// Parse a wire frame body.
    ///
    /// # Errors
    ///
    /// A [`ServiceError`] naming the malformed header or section.
    pub fn parse(text: &str) -> Result<ServiceRequest, ServiceError> {
        let mut lines = text.lines();
        let head = lines.next().ok_or_else(|| bad("empty request"))?;
        let mut head_toks = head.split_ascii_whitespace();
        if head_toks.next() != Some(PROTOCOL) {
            return Err(bad(format!("not a {PROTOCOL} request: `{head}`")));
        }
        match head_toks.next() {
            Some("compile") => {}
            Some(other) => return Err(bad(format!("unknown verb `{other}`"))),
            None => return Err(bad("missing verb")),
        }

        let mut request = CompileRequest::default();
        let mut capture_trace = false;
        loop {
            let line = lines
                .next()
                .ok_or_else(|| bad("missing `-- machine` section"))?;
            if line == "-- machine" {
                break;
            }
            let mut toks = line.split_ascii_whitespace();
            let next = |toks: &mut std::str::SplitAsciiWhitespace<'_>, what: &str| {
                toks.next()
                    .map(str::to_string)
                    .ok_or_else(|| bad(format!("{what}: missing token in `{line}`")))
            };
            match toks.next() {
                Some("assign") => {
                    let a = &mut request.pipeline.assign;
                    a.iterative = parse_flag(&next(&mut toks, "assign")?, "assign iterative")?;
                    a.heuristic = parse_flag(&next(&mut toks, "assign")?, "assign heuristic")?;
                    a.pcr_prediction = parse_flag(&next(&mut toks, "assign")?, "assign pcr")?;
                    a.ordering = match next(&mut toks, "assign")?.as_str() {
                        "scc-swing" => Ordering::SccSwing,
                        "swing-only" => Ordering::SwingOnly,
                        "bottom-up" => Ordering::BottomUp,
                        other => return Err(bad(format!("unknown ordering `{other}`"))),
                    };
                    a.budget_factor = next(&mut toks, "assign")?
                        .parse()
                        .map_err(|_| bad("assign: bad budget factor"))?;
                    a.max_ii = match next(&mut toks, "assign")?.as_str() {
                        "-" => None,
                        v => Some(v.parse().map_err(|_| bad("assign: bad max II"))?),
                    };
                }
                Some("sched") => {
                    request.pipeline.sched.budget_factor = next(&mut toks, "sched")?
                        .parse()
                        .map_err(|_| bad("sched: bad budget factor"))?;
                }
                Some("backend") => {
                    request.backend = match next(&mut toks, "backend")?.as_str() {
                        "heuristic" => BackendKind::Heuristic,
                        "exact" => BackendKind::Exact,
                        other => return Err(bad(format!("unknown backend `{other}`"))),
                    };
                }
                Some("scheduler") => {
                    request.pipeline.scheduler = match next(&mut toks, "scheduler")?.as_str() {
                        "iterative" => SchedulerKind::Iterative,
                        "swing" => SchedulerKind::Swing,
                        other => return Err(bad(format!("unknown scheduler `{other}`"))),
                    };
                }
                Some("model") => {
                    request.register_model = match next(&mut toks, "model")?.as_str() {
                        "mve" => RegisterModelKind::Mve,
                        "rotating" => RegisterModelKind::Rotating,
                        other => return Err(bad(format!("unknown register model `{other}`"))),
                    };
                }
                Some("restage") => {
                    request.restage = parse_flag(&next(&mut toks, "restage")?, "restage")?;
                }
                Some("iterations") => {
                    request.iterations = next(&mut toks, "iterations")?
                        .parse()
                        .map_err(|_| bad("iterations: bad count"))?;
                }
                Some("verify") => {
                    request.verify = parse_flag(&next(&mut toks, "verify")?, "verify")?;
                }
                Some("trace") => {
                    capture_trace = parse_flag(&next(&mut toks, "trace")?, "trace")?;
                }
                Some(other) => return Err(bad(format!("unknown header `{other}`"))),
                None => {} // blank line between headers is fine
            }
        }

        let mut machine_text = String::new();
        let mut saw_loop = false;
        for line in lines.by_ref() {
            if line == "-- loop" {
                saw_loop = true;
                break;
            }
            machine_text.push_str(line);
            machine_text.push('\n');
        }
        if !saw_loop {
            return Err(bad("missing `-- loop` section"));
        }
        let mut loop_text = String::new();
        for line in lines {
            loop_text.push_str(line);
            loop_text.push('\n');
        }
        Ok(ServiceRequest {
            loop_text,
            machine_text,
            request,
            capture_trace,
        })
    }
}

/// The daemon's answer to one [`ServiceRequest`]: the canonical
/// artifact payload (which itself encodes compile success *or* the
/// typed pipeline failure) or a request-level rejection, plus the
/// optional trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceReply {
    /// `Ok(payload)` — a [`crate::codec`] artifact payload;
    /// `Err(message)` — the request itself was malformed.
    pub outcome: Result<String, String>,
    /// Chrome trace JSON when the request asked for capture.
    pub trace: Option<String>,
}

impl ServiceReply {
    /// A request-level rejection (newlines flattened to keep the status
    /// line single-line).
    pub fn bad_request(message: impl Into<String>) -> ServiceReply {
        ServiceReply {
            outcome: Err(message.into().replace('\n', "; ")),
            trace: None,
        }
    }

    /// Decode the artifact payload back into the driver's typed result.
    ///
    /// # Errors
    ///
    /// The request-level rejection as a [`ServiceError`], or a
    /// [`codec::CodecError`] rendered into one.
    pub fn decode(
        &self,
    ) -> Result<Result<crate::CompiledArtifact, crate::PipelineError>, ServiceError> {
        match &self.outcome {
            Ok(payload) => codec::decode(payload).map_err(|e| bad(format!("reply payload: {e}"))),
            Err(message) => Err(bad(message.clone())),
        }
    }

    /// Render the wire text (one frame body).
    pub fn render(&self) -> String {
        render_reply(
            self.outcome.as_deref().map_err(String::as_str),
            self.trace.as_deref(),
        )
    }

    /// Parse a wire frame body.
    ///
    /// # Errors
    ///
    /// A [`ServiceError`] naming the malformed line.
    pub fn parse(text: &str) -> Result<ServiceReply, ServiceError> {
        let mut lines = text.lines();
        let head = lines.next().ok_or_else(|| bad("empty reply"))?;
        let mut toks = head.split_ascii_whitespace();
        if toks.next() != Some(PROTOCOL) || toks.next() != Some("reply") {
            return Err(bad(format!("not a {PROTOCOL} reply: `{head}`")));
        }
        let status = toks.next().ok_or_else(|| bad("reply missing status"))?;
        let mut body = String::new();
        let mut trace: Option<String> = None;
        let mut in_trace = false;
        let mut saw_artifact = false;
        for line in lines {
            match line {
                "-- artifact" if !in_trace => {
                    saw_artifact = true;
                    continue;
                }
                "-- trace" => {
                    in_trace = true;
                    trace = Some(String::new());
                    continue;
                }
                _ => {}
            }
            let sink = if in_trace {
                trace.as_mut().expect("set on `-- trace`")
            } else {
                &mut body
            };
            sink.push_str(line);
            sink.push('\n');
        }
        match status {
            "ok" => {
                if !saw_artifact {
                    return Err(bad("ok reply without an artifact section"));
                }
                Ok(ServiceReply {
                    outcome: Ok(body),
                    trace,
                })
            }
            "bad-request" => Ok(ServiceReply {
                outcome: Err(body.trim_end().to_string()),
                trace,
            }),
            other => Err(bad(format!("unknown reply status `{other}`"))),
        }
    }
}

/// Render one reply frame body: the one renderer behind
/// [`ServiceReply::render`] and the alias hit path. The body is sized
/// up front, so rendering allocates exactly once.
fn render_reply(outcome: Result<&str, &str>, trace: Option<&str>) -> String {
    const OK: &str = " reply ok\n-- artifact\n";
    const BAD: &str = " reply bad-request\n";
    const TRACE: &str = "-- trace\n";
    let (head, body) = match outcome {
        Ok(payload) => (OK, payload),
        Err(message) => (BAD, message),
    };
    let mut s = String::with_capacity(
        PROTOCOL.len()
            + head.len()
            + body.len()
            + 1
            + trace.map_or(0, |t| TRACE.len() + t.len() + 1),
    );
    s.push_str(PROTOCOL);
    s.push_str(head);
    s.push_str(body);
    // A payload already ends its last line; a message never does.
    if outcome.is_err() || !body.ends_with('\n') {
        s.push('\n');
    }
    if let Some(trace) = trace {
        s.push_str(TRACE);
        s.push_str(trace);
        if !trace.ends_with('\n') {
            s.push('\n');
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use clasp_machine::presets;

    const LOOP: &str = "loop dot\n\nop n0 load\nop n1 load\nop n2 fmul\nop n3 fadd\n\ndep n0 -> n2\ndep n1 -> n2\ndep n2 -> n3\ndep n3 -> n3 @1\n";

    fn machine_text() -> String {
        clasp_text::write_machine(&presets::two_cluster_gp(2, 1))
    }

    #[test]
    fn request_round_trips_through_the_wire() {
        let mut sreq = ServiceRequest::new(LOOP, machine_text());
        sreq.request.restage = false;
        sreq.request.iterations = 7;
        sreq.request.register_model = RegisterModelKind::Rotating;
        sreq.request.pipeline.assign.max_ii = Some(40);
        sreq.capture_trace = true;
        let back = ServiceRequest::parse(&sreq.render()).unwrap();
        assert_eq!(back, sreq);
    }

    #[test]
    fn handle_compiles_and_reply_round_trips() {
        let service = CompileService::in_memory();
        let sreq = ServiceRequest::new(LOOP, machine_text());
        let reply = service.handle(&sreq);
        let back = ServiceReply::parse(&reply.render()).unwrap();
        assert_eq!(back, reply);
        let artifact = back.decode().unwrap().unwrap();
        let g = clasp_text::parse_loop(LOOP).unwrap();
        let m = presets::two_cluster_gp(2, 1);
        let local = crate::compile_full(&g, &m, &CompileRequest::default()).unwrap();
        assert_eq!(artifact.ii(), local.ii());
    }

    #[test]
    fn replies_are_bit_identical_across_cache_temperature() {
        let service = CompileService::in_memory();
        let sreq = ServiceRequest::new(LOOP, machine_text());
        let cold = service.handle(&sreq).render();
        let warm = service.handle(&sreq).render();
        assert_eq!(cold, warm, "hit and miss must render identically");
        let stats = service.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn malformed_inputs_become_bad_request_not_panic() {
        let service = CompileService::in_memory();
        for wire in [
            "",
            "nonsense",
            "clasp-serve/1 explode\n",
            "clasp-serve/1 compile\nassign yes\n-- machine\n-- loop\n",
            "clasp-serve/1 compile\n-- machine\nbroken !!\n-- loop\nloop x\n",
            "clasp-serve/1 compile\n-- machine\ncluster 2gp\n-- loop\nnot a loop\n",
        ] {
            let reply = ServiceReply::parse(&service.respond(wire)).unwrap();
            assert!(reply.outcome.is_err(), "{wire:?} must be rejected");
        }
    }

    #[test]
    fn trace_capture_rides_the_reply() {
        let service = CompileService::in_memory();
        let mut sreq = ServiceRequest::new(LOOP, machine_text());
        sreq.capture_trace = true;
        let reply = service.handle(&sreq);
        let trace = reply.trace.as_deref().expect("trace requested");
        assert!(trace.contains("traceEvents"), "chrome trace expected");
        let back = ServiceReply::parse(&reply.render()).unwrap();
        assert_eq!(
            back.trace.as_deref().map(str::trim_end),
            Some(trace.trim_end())
        );
    }

    #[test]
    fn exact_backend_rides_the_wire_and_compiles() {
        let mut sreq = ServiceRequest::new(LOOP, machine_text());
        sreq.request.backend = BackendKind::Exact;
        let back = ServiceRequest::parse(&sreq.render()).unwrap();
        assert_eq!(back, sreq);
        let service = CompileService::in_memory();
        let exact = service.handle(&sreq).decode().unwrap().unwrap();
        let heuristic = service
            .handle(&ServiceRequest::new(LOOP, machine_text()))
            .decode()
            .unwrap()
            .unwrap();
        assert!(exact.ii() <= heuristic.ii(), "exact II is a lower bound");
        // Distinct backends must occupy distinct cache entries.
        assert_eq!(service.stats().misses, 2);
    }

    /// The wire of `LOOP` with `iterations` set (each count is its own
    /// canonical request).
    fn wire(iterations: i64) -> String {
        let mut sreq = ServiceRequest::new(LOOP, machine_text());
        sreq.request.iterations = iterations;
        sreq.render()
    }

    #[test]
    fn an_evicted_alias_falls_back_recomputes_and_realiases() {
        // A budget below one payload: every install evicts itself.
        let service = CompileService::new(ServiceConfig {
            memory_budget: Some(1),
            ..ServiceConfig::default()
        })
        .unwrap();
        let w = wire(8);
        let first = service.respond(&w);
        let raw = wire_key(&w);
        let key = service
            .aliases
            .get(raw)
            .expect("aliased after the full path");
        assert!(service.full.peek(key).is_none(), "evicted at once");
        for _ in 0..3 {
            assert_eq!(service.respond(&w), first);
            assert_eq!(service.aliases.get(raw), Some(key), "re-aliased");
        }
        let stats = service.tiered_stats().memory;
        assert_eq!((stats.misses, stats.hits, stats.evictions), (4, 0, 4));

        // With room for the entry, the alias then serves it.
        let roomy = CompileService::in_memory();
        assert_eq!(roomy.respond(&w), first);
        assert_eq!(roomy.respond(&w), first);
        let stats = roomy.tiered_stats().memory;
        assert_eq!((stats.misses, stats.hits), (1, 1));
    }

    #[test]
    fn bad_and_traced_requests_are_never_aliased() {
        let service = CompileService::in_memory();
        let mut traced = ServiceRequest::new(LOOP, machine_text());
        traced.capture_trace = true;
        let bad = "clasp-serve/1 compile\n-- machine\nbroken !!\n-- loop\nloop x\n";
        for w in [traced.render(), bad.to_string()] {
            service.respond(&w);
            service.respond(&w);
            assert_eq!(service.aliases.get(wire_key(&w)), None, "{w}");
        }
        assert_eq!(service.aliases.len(), 0);
    }

    #[test]
    fn alias_table_stays_within_twice_the_resident_entries() {
        let service = CompileService::in_memory();
        let mut spellings = Vec::new();
        // Twelve spellings of one canonical request (machine names are
        // normalized out of the key), then eight more requests.
        for i in 0..12 {
            let text = machine_text();
            let (_, rest) = text.split_once('\n').unwrap();
            let sreq = ServiceRequest::new(LOOP, format!("machine name-{i}\n{rest}"));
            spellings.push(sreq.render());
        }
        spellings.extend((1..=8).map(wire));
        for round in 0..3 {
            for w in &spellings {
                service.respond(w);
                let resident = service.tiered_stats().memory.entries;
                assert!(
                    service.aliases.len() as u64 <= 2 * resident.max(1),
                    "round {round}: {} aliases for {resident} entries",
                    service.aliases.len()
                );
            }
        }
        assert_eq!(service.tiered_stats().memory.entries, 9);
    }

    #[test]
    fn hits_are_not_admitted_only_compiles_are() {
        use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
        use std::sync::mpsc;
        use std::time::Duration;
        let dir = std::env::temp_dir().join(format!("clasp-service-gate-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = || ServiceConfig {
            threads: 1,
            memory_budget: None,
            cache_dir: Some(dir.clone()),
        };
        // Persist `wire(4)` for the promotion case below.
        CompileService::new(config()).unwrap().respond(&wire(4));
        let service = CompileService::new(config()).unwrap();
        let warm = wire(8);
        let warm_reply = service.respond(&warm);

        let released = AtomicBool::new(false);
        let permit = service.gate.acquire();
        std::thread::scope(|s| {
            let (tx, rx) = mpsc::channel();
            let (service, warm) = (&service, &warm);
            let hit = tx.clone();
            s.spawn(move || hit.send(("hit", service.respond(warm))).unwrap());
            let got = rx.recv_timeout(Duration::from_secs(30));
            assert_eq!(got, Ok(("hit", warm_reply.clone())), "a hit waited");
            let promote = tx.clone();
            s.spawn(move || promote.send(("disk", service.respond(&wire(4)))).unwrap());
            let got = rx
                .recv_timeout(Duration::from_secs(30))
                .expect("a promotion waited");
            assert_eq!(got.0, "disk");

            let released = &released;
            s.spawn(move || {
                let reply = service.respond(&wire(16));
                tx.send(("cold", reply)).unwrap();
                assert!(
                    released.load(SeqCst),
                    "compiled before the permit was dropped"
                );
            });
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(300)),
                Err(mpsc::RecvTimeoutError::Timeout),
                "a compile ran without a permit"
            );
            released.store(true, SeqCst);
            drop(permit);
            let got = rx
                .recv_timeout(Duration::from_secs(30))
                .expect("compile admitted");
            assert_eq!(got.0, "cold");
        });
        let t = service.tiered_stats();
        assert_eq!((t.memory.hits, t.memory.misses, t.promotions), (1, 3, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn phase2_caches_memoize_iis() {
        let service = CompileService::in_memory();
        let g = clasp_text::parse_loop(LOOP).unwrap();
        let m = presets::two_cluster_gp(2, 1);
        let a = service.ii_of(&g, &m, PipelineConfig::default());
        let b = service.ii_of(&g, &m, PipelineConfig::default());
        assert_eq!(a, b);
        assert!(a.is_some());
        let u1 = service.unified_ii_of(&g, &m, SchedulerConfig::default());
        let u2 = service.unified_ii_of(&g, &m, SchedulerConfig::default());
        assert_eq!(u1, u2);
        assert!(u1.is_some());
        // Full-artifact tier untouched by phase-2 queries.
        assert_eq!(service.stats().misses, 0);
    }
}
