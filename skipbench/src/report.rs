//! Metric naming, the result line, and the host stamp.

use serde_json::Value;

/// The end-to-end metrics a `--trace 0` run reports, in order.
pub const END_TO_END: [&str; 12] = [
    "setup_s",
    "wall_s",
    "node_rounds_per_s",
    "train_samples_per_s",
    "train_round_ms_p50",
    "train_round_ms_p90",
    "sync_round_ms_p50",
    "sync_round_ms_p90",
    "peak_rss_mb",
    "final_acc",
    "train_wh",
    "comm_wh",
];

/// The per-layer metrics a `--trace 1` run reports, in order.
pub const PER_LAYER: [&str; 38] = [
    "data.build_ms",
    "topology.build_ms",
    "runner.setup_ms",
    "nn.forward_us",
    "nn.backward_us",
    "nn.sgd_update_us",
    "nn.step_gflops",
    "linalg.gemm_gflops",
    "engine.train_overhead_ratio",
    "engine.share_aggregate_ms",
    "engine.eval_ms_p50",
    "engine.final_eval_ms",
    "engine.alloc_bytes_per_round_t1",
    "engine.alloc_bytes_per_round_tN",
    "transport.encode_us.dense",
    "transport.decode_us.dense",
    "transport.encode_us.u16",
    "transport.decode_us.u16",
    "transport.encode_us.u8",
    "transport.decode_us.u8",
    "transport.encode_us.topk",
    "transport.decode_us.topk",
    "linalg.quantize_u8_gbs",
    "linalg.topk_gbs",
    "transport.wire_bytes_per_round",
    "transport.delivered_ratio",
    "transport.corrupted_frames",
    "topology.schedule_round_us",
    "events.events_per_round",
    "events.late_ratio",
    "battery.participation_ratio",
    "battery.brownouts",
    "campaign.cell_s_p50",
    "campaign.cell_s_max",
    "campaign.worker_busy_ratio",
    "campaign.cpu_util",
    "policy.trained_fraction",
    "trace.overhead_s",
];

/// One reported number with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// An ordered set of uniquely named metrics.
#[derive(Debug, Default)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    /// Adds a metric.
    ///
    /// # Panics
    /// Panics on a malformed or repeated name or unit: metric names are
    /// fixed by this program, so either is a bug here.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(valid_name(&name), "malformed metric name '{name}'");
        assert!(valid_unit(unit), "malformed unit '{unit}' for '{name}'");
        assert!(self.get(&name).is_none(), "metric '{name}' reported twice");
        self.0.push(Metric { name, value, unit });
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }

    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.0.iter()
    }

    /// True when exactly `names` were reported, in that order.
    pub fn names_are(&self, names: &[&str]) -> bool {
        self.0
            .iter()
            .map(|m| m.name.as_str())
            .eq(names.iter().copied())
    }

    fn to_json(&self) -> Value {
        Value::Object(
            self.0
                .iter()
                .map(|m| {
                    let value = if m.value.is_finite() {
                        Value::Float(m.value)
                    } else {
                        Value::Null
                    };
                    let entry = vec![
                        ("value".to_string(), value),
                        ("unit".to_string(), Value::String(m.unit.to_string())),
                    ];
                    (m.name.clone(), Value::Object(entry))
                })
                .collect(),
        )
    }
}

/// A metric name: starts with a letter or digit, then at most 63 more
/// letters, digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: 1 to 16 letters, digits, `_`, `/`, `%`, `.` or `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The single-line JSON result every run ends its standard output with.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let line = Value::Object(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::UInt(attempted)),
        ("failed".to_string(), Value::UInt(failed)),
        ("metrics".to_string(), metrics.to_json()),
    ]);
    serde_json::to_string(&line).expect("a metric tree always serializes")
}

/// Where a report was measured.
#[derive(Debug, Clone)]
pub struct Host {
    pub logical_cores: usize,
    pub threads: usize,
    pub cpu_model: String,
    pub cpu_features: Vec<&'static str>,
    pub rustc: &'static str,
    pub git_rev: String,
    pub seed: u64,
}

impl Host {
    pub fn detect(threads: usize, seed: u64) -> Self {
        Self {
            logical_cores: logical_cores(),
            threads,
            cpu_model: cpu_model(),
            cpu_features: cpu_features(),
            rustc: env!("SKIPBENCH_RUSTC"),
            git_rev: git_rev(),
            seed,
        }
    }

    pub fn to_json(&self) -> Value {
        let features = self
            .cpu_features
            .iter()
            .map(|f| Value::String(f.to_string()))
            .collect();
        Value::Object(vec![
            (
                "logical_cores".into(),
                Value::UInt(self.logical_cores as u64),
            ),
            ("threads".into(), Value::UInt(self.threads as u64)),
            ("cpu_model".into(), Value::String(self.cpu_model.clone())),
            ("cpu_features".into(), Value::Array(features)),
            ("rustc".into(), Value::String(self.rustc.to_string())),
            ("git_rev".into(), Value::String(self.git_rev.clone())),
            ("seed".into(), Value::UInt(self.seed)),
        ])
    }
}

pub fn logical_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(target_arch = "x86_64")]
fn cpu_features() -> Vec<&'static str> {
    let mut out = Vec::new();
    if is_x86_feature_detected!("avx2") {
        out.push("avx2");
    }
    if is_x86_feature_detected!("fma") {
        out.push("fma");
    }
    if is_x86_feature_detected!("avx512f") {
        out.push("avx512f");
    }
    out
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_features() -> Vec<&'static str> {
    Vec::new()
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_follow_the_naming_rule() {
        for ok in [
            "wall_s",
            "nn.forward_us",
            "engine.alloc_bytes_per_round_tN",
            "9lives",
            "a-b",
        ] {
            assert!(valid_name(ok), "{ok} should be accepted");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/name",
            "ü",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad:?} should be refused");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn units_follow_the_unit_rule() {
        for ok in ["ms", "s", "1/s", "count", "%", "GB/s", "fraction"] {
            assert!(valid_unit(ok), "{ok} should be accepted");
        }
        for bad in ["", "per second", "x".repeat(17).as_str()] {
            assert!(!valid_unit(bad), "{bad:?} should be refused");
        }
    }

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside this package");
        let doc = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
        let field = |key: &str| -> Vec<String> {
            let entries = doc
                .as_object()
                .unwrap()
                .iter()
                .find(|(k, _)| k == key)
                .unwrap();
            entries
                .1
                .as_array()
                .unwrap()
                .iter()
                .map(|m| {
                    let m = m.as_object().unwrap();
                    let name = m.iter().find(|(k, _)| k == "name").unwrap();
                    name.1.as_str().unwrap().to_string()
                })
                .collect()
        };
        assert_eq!(field("end_to_end"), END_TO_END);
        assert_eq!(field("per_layer"), PER_LAYER);
        for name in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(name), "{name}");
        }
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn duplicate_metrics_are_a_bug() {
        let mut m = Metrics::default();
        m.push("wall_s", 1.0, "s");
        m.push("wall_s", 2.0, "s");
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        m.push("wall_s", 1.25, "s");
        m.push("train_round_ms_p50", 0.1 + 0.2, "ms");
        let line = result_line(true, 12, 0, &m);
        let parsed = serde_json::parse_value(&line).expect("valid JSON");
        let keys: Vec<&str> = parsed
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(line.contains("\"wall_s\":{\"value\":1.25,\"unit\":\"s\"}"));
        // all digits are kept
        assert!(line.contains("0.30000000000000004"));
    }
}
