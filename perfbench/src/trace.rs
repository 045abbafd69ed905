//! Benchmark-side spans around the calls into each layer, recorded into
//! a [`clasp::obs::Obs`] sink and reduced to per-layer self times.
//!
//! Every span carries three arguments: its own `span` id, the `parent`
//! span id (0 for a root) and the `item` (loop or request) it belongs
//! to. A span's self time is its duration minus the durations of its
//! children, so a root span's self time is the glue between layer calls.

use clasp::obs::Obs;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Span recorder over an [`Obs`] sink.
pub struct Tracer {
    obs: Obs,
    next: AtomicU64,
}

/// A span opened by [`Tracer::open`].
pub struct Open {
    span: clasp::obs::Span,
    /// The span's id, to pass as the parent of its children.
    pub id: u64,
}

impl Tracer {
    /// A recording tracer.
    pub fn new() -> Tracer {
        Tracer {
            obs: Obs::enabled(),
            next: AtomicU64::new(1),
        }
    }

    /// A tracer that opens and closes the same spans but records
    /// nothing: the reference a traced run's overhead is measured
    /// against.
    pub fn disabled() -> Tracer {
        Tracer {
            obs: Obs::disabled(),
            next: AtomicU64::new(1),
        }
    }

    /// Open a span.
    pub fn open(&self, name: &'static str) -> Open {
        Open {
            span: self.obs.begin(name),
            id: self.next.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Close a span, recording it under `item` with `parent` (0 = root).
    pub fn close(&self, open: Open, item: u64, parent: u64) -> Duration {
        let id = open.id;
        self.obs.end_with(open.span, || {
            vec![
                ("span", id.to_string()),
                ("parent", parent.to_string()),
                ("item", item.to_string()),
            ]
        })
    }

    /// Run `f` inside a span.
    pub fn time<R>(&self, name: &'static str, item: u64, parent: u64, f: impl FnOnce() -> R) -> R {
        let open = self.open(name);
        let r = f();
        self.close(open, item, parent);
        r
    }

    /// Reduce the recorded spans to self times.
    pub fn self_times(&self) -> SelfTimes {
        let spans = self.obs.spans();
        let arg = |args: &[(&'static str, String)], key: &str| -> u64 {
            args.iter()
                .find(|(k, _)| *k == key)
                .and_then(|(_, v)| v.parse().ok())
                .unwrap_or(0)
        };
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for s in &spans {
            let parent = arg(&s.args, "parent");
            if parent != 0 {
                *child_ns.entry(parent).or_default() += s.dur_ns;
            }
        }
        let mut by_name: HashMap<&'static str, HashMap<u64, u64>> = HashMap::new();
        let mut count: HashMap<&'static str, usize> = HashMap::new();
        for s in &spans {
            let id = arg(&s.args, "span");
            let own = s
                .dur_ns
                .saturating_sub(child_ns.get(&id).copied().unwrap_or(0));
            *by_name
                .entry(s.name)
                .or_default()
                .entry(arg(&s.args, "item"))
                .or_default() += own;
            *count.entry(s.name).or_default() += 1;
        }
        SelfTimes { by_name, count }
    }

    /// Write every recorded span as Chrome trace-event JSON.
    pub fn write(&self, path: &str) -> Result<(), String> {
        if let Some(dir) = std::path::Path::new(path).parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            }
        }
        std::fs::write(path, self.obs.chrome_trace()).map_err(|e| format!("{path}: {e}"))
    }
}

/// Self time per span name, summed per item.
pub struct SelfTimes {
    by_name: HashMap<&'static str, HashMap<u64, u64>>,
    count: HashMap<&'static str, usize>,
}

impl SelfTimes {
    /// Self time of `name` summed per item, ns (items with no such span
    /// are absent).
    pub fn per_item(&self, name: &str) -> HashMap<u64, u64> {
        self.by_name.get(name).cloned().unwrap_or_default()
    }

    /// Self time of `name` for one item, ns.
    pub fn of(&self, name: &str, item: u64) -> u64 {
        self.by_name
            .get(name)
            .and_then(|m| m.get(&item))
            .copied()
            .unwrap_or(0)
    }

    /// Number of spans recorded under `name`.
    pub fn spans(&self, name: &str) -> usize {
        self.count.get(name).copied().unwrap_or(0)
    }
}
