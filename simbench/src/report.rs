//! Metric tables, summary statistics and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics (`--trace 0`): name and unit. `failed_frac` is
/// printed too, but travels in the result line as `failed`/`attempted`
/// because a metric that reads 0 has no relative bound.
pub const END_TO_END: [(&str, &str); 5] = [
    ("sim_rate", "s/s"),
    ("job_ms_p50", "ms"),
    ("job_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("core.build_us_p50", "us"),
    ("net.run_s", "s"),
    ("net.events", "count"),
    ("net.ns_per_event", "ns"),
    ("net.self_s", "s"),
    ("net.unattributed_frac", "frac"),
    ("phy.receive_s", "s"),
    ("phy.receive_calls", "count"),
    ("phy.ns_per_receive", "ns"),
    ("mac.timer_s", "s"),
    ("mac.timer_calls", "count"),
    ("transport.tcp_s", "s"),
    ("transport.tcp_calls", "count"),
    ("mac.data_sent", "count"),
    ("mac.retries", "count"),
    ("mac.collision_rx", "count"),
    ("mac.corrupted_rx", "count"),
    ("mac.delivered_msdus", "count"),
    ("mac.delivery_ratio", "frac"),
    ("transport.retransmissions", "count"),
    ("transport.timeouts", "count"),
    ("grc.nav_detections", "count"),
    ("grc.spoof_flags", "count"),
    ("runner.busy_frac", "frac"),
    ("runner.tail_s", "s"),
    ("world.epochs", "count"),
    ("world.us_per_epoch", "us"),
    ("runner.lockstep_speedup", "x"),
    ("obs.trace_overhead_pct", "%"),
];

/// Metric values collected by name; [`Metrics::finish`] checks them
/// against a table.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Sets metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let previous = self.0.insert(name, value);
        assert!(previous.is_none(), "metric {name} set twice");
    }

    /// The values in `table` order with their units.
    ///
    /// # Panics
    ///
    /// When a table metric is missing, an extra one was set, or a value
    /// is not finite — each a bug in this benchmark.
    pub fn finish(
        mut self,
        table: &[(&'static str, &'static str)],
    ) -> Vec<(&'static str, f64, &'static str)> {
        let out: Vec<_> = table
            .iter()
            .map(|&(name, unit)| {
                let value = self
                    .0
                    .remove(name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                assert!(value.is_finite(), "metric {name} is {value}");
                (name, value, unit)
            })
            .collect();
        assert!(self.0.is_empty(), "metrics outside the table: {:?}", self.0);
        out
    }
}

/// The nearest-rank `q`-quantile of `samples` and how many samples lie
/// beyond it; `(0, 0)` for no samples.
pub fn quantile(samples: &[f64], q: f64) -> (f64, usize) {
    if samples.is_empty() {
        return (0.0, 0);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process in MiB: `VmHWM`, falling back to
/// `VmRSS` and then to `/proc/self/statm` resident pages where a kernel
/// omits or zeroes the high-water mark (the same chain as the gate's
/// `peak_rss_kib`). 0 without procfs.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |name: &str| -> Option<u64> {
        status
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
            .filter(|&kib| kib > 0)
    };
    let kib = field("VmHWM:")
        .or_else(|| field("VmRSS:"))
        .unwrap_or_else(|| {
            std::fs::read_to_string("/proc/self/statm")
                .ok()
                .and_then(|s| s.split_whitespace().nth(1)?.parse::<u64>().ok())
                .map_or(0, |pages| pages * 4)
        });
    kib as f64 / 1024.0
}

/// The result line: one JSON object, the last line of standard output.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), (50.0, 50));
        assert_eq!(quantile(&v, 0.9), (90.0, 10));
        assert_eq!(quantile(&[], 0.9), (0.0, 0));
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(true, 3, 0, &[("a", 1.5, "s"), ("b", 2.0, "ms")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 2, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn a_missing_metric_is_a_bug() {
        Metrics::default().finish(&END_TO_END);
    }

    /// `BENCHMARK.json`, which lists one workload or metric per line.
    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json beside simbench/")
    }

    /// The value of `"key": ...` on `line`, without quotes.
    fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
        let rest = line.split(&format!("\"{key}\": ")).nth(1)?;
        Some(match rest.strip_prefix('"') {
            Some(quoted) => quoted.split('"').next()?,
            None => rest.split([',', '}']).next()?.trim(),
        })
    }

    /// `(name, unit)` of every metric line in the `section` array.
    fn listed(json: &str, section: &str) -> Vec<(String, String)> {
        json.lines()
            .skip_while(|l| !l.contains(&format!("\"{section}\"")))
            .skip(1)
            .take_while(|l| l.contains("\"unit\""))
            .map(|l| {
                (
                    field(l, "name").unwrap().into(),
                    field(l, "unit").unwrap().into(),
                )
            })
            .collect()
    }

    fn table(t: &[(&str, &str)]) -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn printed_metric_names_match_benchmark_json() {
        let json = benchmark_json();
        assert_eq!(listed(&json, "end_to_end"), table(&END_TO_END));
        assert_eq!(listed(&json, "per_layer"), table(&PER_LAYER));
        let workloads: Vec<&str> = json
            .lines()
            .filter(|l| l.contains("\"why\""))
            .map(|l| field(l, "name").unwrap())
            .collect();
        let ours: Vec<&str> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn setup_has_the_largest_bound() {
        let json = benchmark_json();
        let bounds: Vec<(&str, f64)> = json
            .lines()
            .filter_map(|l| Some((field(l, "name")?, field(l, "bound")?.parse().unwrap())))
            .collect();
        assert_eq!(bounds.len(), END_TO_END.len());
        let setup = bounds.iter().find(|(n, _)| *n == "setup_s").unwrap().1;
        assert!(bounds.iter().all(|(_, b)| *b <= setup && *b <= 0.25));
    }
}
