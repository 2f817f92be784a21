//! Sample statistics and process measurements shared by every workload.

use std::time::Instant;

/// A set of timing samples, kept whole so any percentile can be read.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.0.push(value);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.sum() / self.0.len() as f64
        }
    }

    /// The `q`-quantile (`0 <= q <= 1`) by linear interpolation between the
    /// two nearest ranks; 0 for an empty set.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }
}

/// Milliseconds elapsed since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Runs `f`, returning its result and its wall-clock in milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, ms_since(start))
}

/// Latency reduction in percent implied by a set of `final / initial`
/// latency ratios, taken as a geometric mean: `(1 - geomean(ratios)) * 100`.
/// Zero or negative reductions of single graphs are well defined, unlike a
/// geometric mean of the reductions themselves.
pub fn geomean_reduction_pct(ratios: &[f64]) -> f64 {
    if ratios.is_empty() {
        return 0.0;
    }
    let log_mean = ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64;
    (1.0 - log_mean.exp()) * 100.0
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 when the
/// platform does not expose it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time (user + system) consumed so far by every thread of this
/// process, in seconds, from `/proc/self/stat` (clock ticks of 10 ms); 0
/// when the platform does not expose it.
pub fn process_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| {
            // Fields after the parenthesised command name; utime and stime
            // are fields 14 and 15 of the whole line.
            let rest = &stat[stat.rfind(')')? + 2..];
            let fields: Vec<&str> = rest.split_whitespace().collect();
            let utime: f64 = fields.get(11)?.parse().ok()?;
            let stime: f64 = fields.get(12)?.parse().ok()?;
            Some((utime + stime) / 100.0)
        })
        .unwrap_or(0.0)
}

/// Clock ticks (10 ms) the vCPUs spent running anything, and ticks the
/// hypervisor stole from them, summed over vCPUs (`/proc/stat`); zeros when
/// the platform does not expose them.
fn cpu_ticks() -> (f64, f64) {
    let line = std::fs::read_to_string("/proc/stat").ok().and_then(|s| s.lines().next().map(str::to_string));
    let fields: Vec<f64> = line
        .map(|l| l.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect())
        .unwrap_or_default();
    // user nice system idle iowait irq softirq steal
    if fields.len() < 8 {
        return (0.0, 0.0);
    }
    (fields[0] + fields[1] + fields[2] + fields[5] + fields[6], fields[7])
}

/// A wall-clock stopwatch that also reads how much CPU time the hypervisor
/// stole from the vCPUs meanwhile. On a shared host, other tenants' load
/// delays this machine's work without anything in the program changing;
/// [`Stopwatch::unstolen_share`] is the share of the time the vCPUs wanted
/// to run that they did run.
pub struct Stopwatch {
    start: Instant,
    ticks: (f64, f64),
}

impl Stopwatch {
    pub fn start() -> Self {
        Self { start: Instant::now(), ticks: cpu_ticks() }
    }

    pub fn elapsed_ms(&self) -> f64 {
        ms_since(self.start)
    }

    /// `run / (run + stolen)` over the interval, clamped to `[0.5, 1]`; 1
    /// when nothing was recorded.
    pub fn unstolen_share(&self) -> f64 {
        let (run, stolen) = cpu_ticks();
        let (run, stolen) = (run - self.ticks.0, stolen - self.ticks.1);
        if run + stolen <= 0.0 {
            return 1.0;
        }
        (run / (run + stolen)).clamp(0.5, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let mut s = Samples::default();
        for v in [4.0, 1.0, 3.0, 2.0] {
            s.push(v);
        }
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 4.0);
        assert_eq!(s.median(), 2.5);
        assert_eq!(Samples::default().median(), 0.0);
    }

    #[test]
    fn reduction_is_one_minus_geomean_ratio() {
        assert!((geomean_reduction_pct(&[0.5, 0.5]) - 50.0).abs() < 1e-12);
        assert!((geomean_reduction_pct(&[0.25, 1.0]) - 50.0).abs() < 1e-12);
        assert_eq!(geomean_reduction_pct(&[1.0]), 0.0);
    }
}
