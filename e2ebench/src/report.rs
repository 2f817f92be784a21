//! Metric records, the printed table and the final JSON result line.

use xrlflow_graph::JsonValue;
use xrlflow_obs::Registry;

/// One measured number with its unit and the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The metrics of the final JSON line (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// Further rows printed in the table only.
    pub extra: Vec<Metric>,
    /// Free-form lines printed under the table (ledger checks, notes).
    pub notes: Vec<String>,
    pub attempted: u64,
    /// Operations that failed or whose output check failed.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, unit: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric { name, unit, value, samples });
    }

    pub fn extra(&mut self, name: &'static str, unit: &'static str, value: f64, samples: usize) {
        self.extra.push(Metric { name, unit, value, samples });
    }

    /// Counts one failed operation, keeping its message for the report.
    pub fn fail(&mut self, message: impl Into<String>) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(message.into());
        }
    }

    /// Applies a check, counting it as an attempted operation.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(message());
        }
    }

    /// Makes a traced run's per-layer rows the result metrics; the
    /// end-to-end rows stay in the table, and the layer probes' checks count.
    pub fn adopt_layers(&mut self, layers: Outcome) {
        self.extra.extend(std::mem::take(&mut self.metrics));
        self.metrics = layers.metrics;
        self.notes.extend(layers.notes);
        self.attempted += layers.attempted;
        self.failed += layers.failed;
        self.errors.extend(layers.errors);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Prints the table, the notes and the errors.
    pub fn print_table(&self) {
        println!("{:<34} {:>14} {:<6} {:>8}", "metric", "value", "unit", "samples");
        for m in self.metrics.iter().chain(&self.extra) {
            println!("{:<34} {:>14.4} {:<6} {:>8}", m.name, m.value, m.unit, m.samples);
        }
        for note in &self.notes {
            println!("{note}");
        }
        for error in &self.errors {
            println!("FAILED: {error}");
        }
    }

    /// The last line of the output: `correct`, `attempted`, `failed` and
    /// every metric with its unit.
    pub fn result_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let value = JsonValue::Object(vec![
                    ("value".to_string(), JsonValue::Number(if m.value.is_finite() { m.value } else { 0.0 })),
                    ("unit".to_string(), JsonValue::String(m.unit.to_string())),
                ]);
                (m.name.to_string(), value)
            })
            .collect();
        JsonValue::Object(vec![
            ("correct".to_string(), JsonValue::Bool(self.correct())),
            ("attempted".to_string(), JsonValue::Number(self.attempted.max(1) as f64)),
            ("failed".to_string(), JsonValue::Number(self.failed as f64)),
            ("metrics".to_string(), JsonValue::Object(metrics)),
        ])
        .to_json()
    }
}

/// A reading of the telemetry series the benchmark attributes from. The
/// registry is process-wide, so a phase is measured as the difference of
/// two readings taken around it.
#[derive(Debug, Clone, Copy, Default)]
pub struct ObsReading {
    pub candgen_calls: u64,
    pub candgen_ns: u64,
    pub candidates: u64,
    pub measure_calls: u64,
    pub measure_ns: u64,
    pub memo_hits: u64,
    pub memo_misses: u64,
    pub worker_busy_ns: u64,
    pub worker_wall_ns: u64,
    pub item_retries: u64,
    pub worker_panics: u64,
    pub requests: u64,
    pub cache_hits: u64,
    pub evictions: u64,
    pub http_non2xx: u64,
}

impl ObsReading {
    pub fn now() -> Self {
        let r = Registry::global();
        let hist = |name: &str| {
            let h = r.histogram(name);
            (h.count(), h.sum())
        };
        let counter = |name: &str| r.counter(name).get();
        let (candgen_calls, candgen_ns) = hist("rewrite/generate_candidates");
        let (measure_calls, measure_ns) = hist("cost/simulator/measure");
        Self {
            candgen_calls,
            candgen_ns,
            candidates: counter("rewrite/candidates"),
            measure_calls,
            measure_ns,
            memo_hits: counter("cost/simulator/memo_hit"),
            memo_misses: counter("cost/simulator/memo_miss"),
            worker_busy_ns: counter("rollout/worker_busy_ns"),
            worker_wall_ns: counter("rollout/worker_wall_ns"),
            item_retries: counter("rollout/item_retries"),
            worker_panics: counter("rollout/worker_panics"),
            requests: counter("serve/requests"),
            cache_hits: counter("serve/cache_hit"),
            evictions: counter("serve/cache_evictions"),
            http_non2xx: counter("serve/http_4xx") + counter("serve/http_5xx"),
        }
    }

    /// The change from `before` to `self`.
    pub fn since(&self, before: &ObsReading) -> ObsReading {
        ObsReading {
            candgen_calls: self.candgen_calls - before.candgen_calls,
            candgen_ns: self.candgen_ns - before.candgen_ns,
            candidates: self.candidates - before.candidates,
            measure_calls: self.measure_calls - before.measure_calls,
            measure_ns: self.measure_ns - before.measure_ns,
            memo_hits: self.memo_hits - before.memo_hits,
            memo_misses: self.memo_misses - before.memo_misses,
            worker_busy_ns: self.worker_busy_ns - before.worker_busy_ns,
            worker_wall_ns: self.worker_wall_ns - before.worker_wall_ns,
            item_retries: self.item_retries - before.item_retries,
            worker_panics: self.worker_panics - before.worker_panics,
            requests: self.requests - before.requests,
            cache_hits: self.cache_hits - before.cache_hits,
            evictions: self.evictions - before.evictions,
            http_non2xx: self.http_non2xx - before.http_non2xx,
        }
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer rows read from a telemetry delta: candidate generation,
/// simulator measurement and its memo.
pub fn push_obs_layers(out: &mut Outcome, d: &ObsReading) {
    out.metric(
        "rewrite.generate_candidates_us",
        "us",
        ratio(d.candgen_ns as f64 / 1e3, d.candgen_calls as f64),
        d.candgen_calls as usize,
    );
    out.metric(
        "rewrite.candidates_per_step",
        "count",
        ratio(d.candidates as f64, d.candgen_calls as f64),
        d.candgen_calls as usize,
    );
    out.metric(
        "cost.measure_us",
        "us",
        ratio(d.measure_ns as f64 / 1e3, d.measure_calls as f64),
        d.measure_calls as usize,
    );
    let lookups = d.memo_hits + d.memo_misses;
    out.metric("cost.memo_hit_ratio", "ratio", ratio(d.memo_hits as f64, lookups as f64), lookups as usize);
}

/// One ledger row: whether `parts` accounts for `whole` within 5%.
pub fn ledger_line(what: &str, parts_name: &str, parts: f64, whole: f64) -> String {
    let share = ratio(parts, whole) * 100.0;
    let verdict = if (share - 100.0).abs() <= 5.0 { "ok" } else { "MISSES 5%" };
    format!(
        "ledger {what}: {parts_name} = {parts:.1} ms of {whole:.1} ms ({share:.1}%, remainder {:.1} ms) {verdict}",
        whole - parts
    )
}
