//! # clasp-bench
//!
//! Self-contained performance benchmarks for the CLASP workspace. The
//! build container has no access to a crates registry, so instead of
//! criterion this crate carries a small wall-clock harness of its own;
//! the `benches/` targets (all `harness = false`) and the `bench-report`
//! binary build on it:
//!
//! - `analysis`: SCC detection, RecMII, swing ordering, corpus generation;
//! - `assignment`: the four assigner variants and every machine family;
//! - `scheduling`: unified baselines and clustered phase-2 scheduling;
//! - `figures`: end-to-end figure-series regeneration throughput;
//! - `bench-report` (binary): per-stage pipeline timings written to
//!   `BENCH_sched.json` at the repo root, tracking the perf trajectory.

use std::time::Instant;

/// One measured workload: wall-clock statistics over repeated runs.
#[derive(Debug, Clone)]
pub struct Timing {
    /// Workload label.
    pub label: String,
    /// Number of timed samples (after one warm-up run).
    pub samples: u32,
    /// Fastest sample, nanoseconds.
    pub min_ns: u128,
    /// Median sample, nanoseconds.
    pub median_ns: u128,
    /// Mean sample, nanoseconds.
    pub mean_ns: u128,
}

impl Timing {
    /// Median in seconds.
    pub fn median_secs(&self) -> f64 {
        self.median_ns as f64 / 1e9
    }
}

impl std::fmt::Display for Timing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<44} median {:>12}  min {:>12}  mean {:>12}  ({} samples)",
            self.label,
            fmt_ns(self.median_ns),
            fmt_ns(self.min_ns),
            fmt_ns(self.mean_ns),
            self.samples
        )
    }
}

/// Format nanoseconds with an adaptive unit.
pub fn fmt_ns(ns: u128) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Run `f` once to warm up, then `samples` timed times; report statistics.
///
/// The closure's return value is passed through [`std::hint::black_box`]
/// so the measured work cannot be optimized away.
pub fn bench<R>(label: &str, samples: u32, mut f: impl FnMut() -> R) -> Timing {
    assert!(samples > 0, "at least one sample");
    std::hint::black_box(f());
    let mut times: Vec<u128> = Vec::with_capacity(samples as usize);
    for _ in 0..samples {
        let t0 = Instant::now();
        std::hint::black_box(f());
        times.push(t0.elapsed().as_nanos());
    }
    times.sort_unstable();
    let min_ns = times[0];
    let median_ns = times[times.len() / 2];
    let mean_ns = times.iter().sum::<u128>() / times.len() as u128;
    Timing {
        label: label.to_string(),
        samples,
        min_ns,
        median_ns,
        mean_ns,
    }
}

/// Run and print a benchmark in one step (the `benches/` targets' idiom).
pub fn run<R>(label: &str, samples: u32, f: impl FnMut() -> R) -> Timing {
    let t = bench(label, samples, f);
    println!("{t}");
    t
}

/// Escape a string for inclusion in a JSON document.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_positive_times() {
        let t = bench("spin", 3, || (0..1000u64).sum::<u64>());
        assert_eq!(t.samples, 3);
        assert!(t.min_ns <= t.median_ns);
        assert!(t.median_ns > 0);
    }

    #[test]
    fn ns_formatting_uses_adaptive_units() {
        assert_eq!(fmt_ns(12), "12 ns");
        assert_eq!(fmt_ns(1_500), "1.500 us");
        assert_eq!(fmt_ns(2_000_000), "2.000 ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.000 s");
    }

    #[test]
    fn json_escaping_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
