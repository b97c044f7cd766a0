//! Metric names, summary statistics and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The end-to-end metrics every untraced run prints, with their units.
/// Each is defined on every workload (see the README for the per-workload
/// meaning of `throughput_per_s` and the latency percentiles).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
];

/// The per-layer metrics every traced run prints, with their units. A
/// workload that does not exercise a layer reports 0 for its metrics.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.generate_s", "s"),
    ("trace.store_write_s", "s"),
    ("trace.decode_ns_per_event", "ns"),
    ("trace.preset_compile_ms", "ms"),
    ("sim.cell_ms.FULL", "ms"),
    ("sim.cell_ms.FIXED1", "ms"),
    ("sim.cell_ms.FIXED4", "ms"),
    ("sim.cell_ms.DTBMEM", "ms"),
    ("sim.cell_ms.FEEDMED", "ms"),
    ("sim.cell_ms.DTBFM", "ms"),
    ("sim.engine_ns_per_event", "ns"),
    ("sim.scavenges", "count"),
    ("sim.traced_mb", "MB"),
    ("heap.alloc_ns_p50", "ns"),
    ("heap.barrier_ns_p50", "ns"),
    ("heap.mutator_s", "s"),
    ("heap.collect_s", "s"),
    ("heap.collect_ns_per_object", "ns"),
    ("heap.collect_us_per_traced_kb", "us"),
    ("heap.collections", "count"),
    ("heap.traced_mb", "MB"),
    ("heap.reclaimed_mb", "MB"),
    ("heap.objects_max", "count"),
    ("heap.remembered_max", "count"),
    ("heap.mem_in_use_mb_max", "MB"),
    ("svc.submit_ms_p50", "ms"),
    ("svc.idle_wait_ms_p50", "ms"),
    ("svc.empty_leases_per_sweep", "count"),
    ("svc.lease_ms_p50", "ms"),
    ("svc.complete_ms_p50", "ms"),
    ("svc.complete_kb_p50", "KB"),
    ("svc.cell_ms.policy_p50", "ms"),
    ("svc.cell_ms.baseline_p50", "ms"),
    ("svc.overhead_ms_per_cell", "ms"),
    ("host.probe_ms", "ms"),
];

/// The per-policy cell-time metrics, in `PolicyKind::ALL` order.
pub const CELL_METRICS: [&str; 6] = [
    "sim.cell_ms.FULL",
    "sim.cell_ms.FIXED1",
    "sim.cell_ms.FIXED4",
    "sim.cell_ms.DTBMEM",
    "sim.cell_ms.FEEDMED",
    "sim.cell_ms.DTBFM",
];

/// Per-layer counts that must repeat exactly between runs of one seed,
/// traced or not. Untraced runs print them on stderr so the two kinds of
/// run can be compared.
pub const EXACT: &[&str] = &[
    "sim.scavenges",
    "sim.traced_mb",
    "heap.collections",
    "heap.traced_mb",
    "heap.reclaimed_mb",
    "heap.objects_max",
    "heap.remembered_max",
    "heap.mem_in_use_mb_max",
];

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations the timed part attempted (whole rounds only).
    pub attempted: u64,
    /// Of those, operations that failed.
    pub failed: u64,
    /// End-to-end metrics by name.
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer metrics by name (only those the workload measures).
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Output-check failures; empty when every check passed.
    pub mismatches: Vec<String>,
}

impl Outcome {
    /// Records a check: `ok` false adds the message to the mismatches.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok && self.mismatches.len() < 20 {
            self.mismatches.push(what());
        }
    }

    /// The result line: every end-to-end metric untraced, every per-layer
    /// metric traced.
    pub fn result_line(&self, traced: bool) -> String {
        let (names, values) = if traced {
            (PER_LAYER, &self.per_layer)
        } else {
            (END_TO_END, &self.end_to_end)
        };
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.mismatches.is_empty(),
            self.attempted,
            self.failed
        );
        for (i, (name, unit)) in names.iter().enumerate() {
            let value = values.get(name).copied().unwrap_or(0.0);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            );
        }
        out.push_str("}}");
        out
    }
}

/// A finite JSON number with all its digits (`{:?}` keeps a trailing
/// `.0` on whole floats and the shortest round-trip form otherwise).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// closest ranks; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// A latency histogram with 1 ns buckets up to 4 µs and one overflow
/// bucket: cheap enough to feed from a per-operation timer.
pub struct NsHistogram {
    buckets: Vec<u64>,
    count: u64,
}

impl NsHistogram {
    const LINEAR: usize = 4096;

    pub fn new() -> NsHistogram {
        NsHistogram {
            buckets: vec![0; Self::LINEAR + 1],
            count: 0,
        }
    }

    pub fn record(&mut self, ns: u64) {
        let i = (ns as usize).min(Self::LINEAR);
        self.buckets[i] += 1;
        self.count += 1;
    }

    pub fn merge(&mut self, other: &NsHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
    }

    /// The bucket holding the `q`-quantile sample, in ns (overflowed
    /// samples read as 4096).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (ns, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return ns as f64;
            }
        }
        Self::LINEAR as f64
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB; 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Current resident set (`VmRSS`) of this process in MiB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fixed CPU loop, timed: tells a slow host apart from a slow program.
pub fn host_probe_ms() -> f64 {
    let start = std::time::Instant::now();
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..20_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn histogram_finds_its_median() {
        let mut h = NsHistogram::new();
        for ns in [10, 20, 30, 40, 9000] {
            h.record(ns);
        }
        assert_eq!(h.quantile(0.5), 30.0);
        assert_eq!(h.quantile(1.0), 4096.0);
    }

    #[test]
    fn result_line_lists_every_metric() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.end_to_end.insert("setup_s", 0.5);
        let line = o.result_line(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        for (name, _) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\"")));
        }
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
    }
}
