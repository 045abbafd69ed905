//! Result assembly: metrics with units and sample counts, order
//! statistics, the process's peak RSS, and the output format (a
//! human-readable table, then one JSON line).

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Number of samples the value summarizes (`None` for a single
    /// reading such as a count or a ratio of totals).
    pub samples: Option<usize>,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (compiles or requests).
    pub attempted: u64,
    /// Operations that failed: transport error, bad-request reply,
    /// pipeline failure or a failed output check.
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Extra human-readable lines printed before the table (breakdowns,
    /// check failures).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Add a metric.
    pub fn metric(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: Option<usize>,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    /// Record a failed check, keeping the first few messages.
    pub fn fail(&mut self, message: impl Into<String>) {
        self.failed += 1;
        if self.failed <= 20 {
            self.notes.push(format!("FAILED: {}", message.into()));
        }
    }

    /// Whether every output check passed and every value is finite.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Print the notes and the metric table, then the JSON result line.
    pub fn print(&self) {
        for note in &self.notes {
            println!("{note}");
        }
        for m in &self.metrics {
            let samples = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
            println!("{:<36} {:>16.4} {}{}", m.name, m.value, m.unit, samples);
        }
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "{:<36} {:>16.4} ratio  ({} failed of {} attempted)",
            "error_rate", error_rate, self.failed, self.attempted
        );
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            // `{:?}` prints every digit of the shortest round-trip
            // rendering (`3.0`, `1e21`), a valid JSON number when finite.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                json,
                "{}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                value,
                m.unit
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// The `q`-quantile (0..=1) of sorted samples, nearest rank.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `f64` readings (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nanoseconds as microseconds.
pub fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Peak resident set size of this process so far (`VmHWM`), MiB.
///
/// Workloads read it after their first timed pass: later passes repeat
/// the same work on fresh services, and how much of the previous pass's
/// freed memory the allocator hands back depends on which thread
/// arenas the new threads land in, which varies from run to run.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_ascii_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The set-up timings of one run. A workload times a few set-ups before
/// its timed window and one more after each timed pass, so the readings
/// span the whole run and a burst of interference from outside the
/// process moves a few of them rather than their median.
#[derive(Debug, Default)]
pub struct SetupTimes(Vec<f64>);

impl SetupTimes {
    /// Run and time one set-up.
    pub fn time<T>(&mut self, setup: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        let t = std::time::Instant::now();
        let product = setup()?;
        self.0.push(t.elapsed().as_secs_f64());
        Ok(product)
    }

    /// Median set-up time, seconds.
    pub fn median(&self) -> f64 {
        median(&self.0)
    }

    /// Number of set-ups timed.
    pub fn len(&self) -> usize {
        self.0.len()
    }
}
