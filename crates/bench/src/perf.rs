//! Machine-readable perf-gate reporting.
//!
//! The `perf_report` binary runs the round-loop / SGD / codec scenarios at
//! pinned configurations and emits `BENCH_round_loop.json`, giving CI and
//! future PRs a measured performance trajectory instead of asserted
//! claims. This module holds the pieces that are unit-testable outside
//! the binary: the measurement loop, the report schema builder, the
//! schema validator the CI smoke step relies on, and the
//! allocation-counting global allocator behind the `bytes_allocated_proxy`
//! column.
//!
//! # Report schema
//!
//! The report is one JSON object mapping scenario name →
//!
//! ```json
//! {
//!   "rounds_per_sec": 123.4,          // iterations per second (finite, > 0)
//!   "ns_per_step": 8100.0,            // nanoseconds per iteration (finite, > 0)
//!   "bytes_allocated_proxy": 4096,    // heap bytes allocated per iteration
//!   "config": { ... },                // pinned scenario configuration
//!   "git_rev": "abc1234"              // toolchain-independent provenance
//! }
//! ```
//!
//! [`validate_report`] enforces exactly this shape so the perf gate cannot
//! silently rot: missing fields, non-finite or non-positive rates, or a
//! missing config/revision all fail validation (and the binary exits
//! non-zero).

use serde_json::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

/// A [`System`]-backed global allocator that counts every heap byte
/// requested (allocations and growth; frees are not subtracted, so the
/// counter is a monotone *allocation pressure* proxy, not live memory).
///
/// Install it in a binary with
/// `#[global_allocator] static A: CountingAllocator = CountingAllocator;`
/// and read deltas via [`allocated_bytes`].
pub struct CountingAllocator;

// SAFETY: delegates every operation to `System`; the counter is a relaxed
// atomic with no effect on allocation behavior.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `layout` is forwarded unchanged, so `System`'s contract
        // (non-zero size, valid alignment) is exactly our caller's contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` come from our caller, who per the
        // `GlobalAlloc` contract obtained `ptr` from `alloc` above — which
        // is `System.alloc` — with this same layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            ALLOCATED_BYTES.fetch_add((new_size - layout.size()) as u64, Ordering::Relaxed);
        }
        // SAFETY: arguments are forwarded unchanged; `ptr` was produced by
        // `System.alloc`/`System.realloc` with `layout` per the caller's
        // `GlobalAlloc` obligations.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Total heap bytes requested so far through [`CountingAllocator`]
/// (zero when the counting allocator is not installed).
pub fn allocated_bytes() -> u64 {
    ALLOCATED_BYTES.load(Ordering::Relaxed)
}

/// One measured scenario, ready to be placed into the report.
#[derive(Debug, Clone)]
pub struct ScenarioMeasurement {
    /// Scenario key in the report object.
    pub name: String,
    /// Iterations per second (a "round" is whatever one iteration does:
    /// a simulation round, an SGD step, a codec round trip).
    pub rounds_per_sec: f64,
    /// Nanoseconds per iteration.
    pub ns_per_step: f64,
    /// Heap bytes allocated per iteration (allocation-pressure proxy).
    pub bytes_allocated_proxy: u64,
    /// The pinned configuration this scenario ran at.
    pub config: Value,
}

/// Runs `f` `iters` times after `warmup` unmeasured runs, recording wall
/// time and the allocation delta across the measured window.
pub fn measure(
    name: &str,
    config: Value,
    warmup: usize,
    iters: usize,
    mut f: impl FnMut(),
) -> ScenarioMeasurement {
    assert!(iters > 0, "measure: need at least one iteration");
    for _ in 0..warmup {
        f();
    }
    let alloc_before = allocated_bytes();
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let elapsed = start.elapsed();
    let alloc_delta = allocated_bytes().saturating_sub(alloc_before);
    let ns_per_step = (elapsed.as_nanos() as f64 / iters as f64).max(1.0);
    ScenarioMeasurement {
        name: name.to_string(),
        rounds_per_sec: 1e9 / ns_per_step,
        ns_per_step,
        bytes_allocated_proxy: alloc_delta / iters as u64,
        config,
    }
}

/// Assembles the report object: scenario name → measurement entry.
pub fn build_report(git_rev: &str, scenarios: &[ScenarioMeasurement]) -> Value {
    Value::Object(
        scenarios
            .iter()
            .map(|s| {
                let entry = vec![
                    ("rounds_per_sec".to_string(), Value::Float(s.rounds_per_sec)),
                    ("ns_per_step".to_string(), Value::Float(s.ns_per_step)),
                    (
                        "bytes_allocated_proxy".to_string(),
                        Value::UInt(s.bytes_allocated_proxy),
                    ),
                    ("config".to_string(), s.config.clone()),
                    ("git_rev".to_string(), Value::String(git_rev.to_string())),
                ];
                (s.name.clone(), Value::Object(entry))
            })
            .collect(),
    )
}

/// Validates a perf report against the schema documented at module level:
/// a non-empty object whose entries carry finite, positive
/// `rounds_per_sec`/`ns_per_step`, an unsigned `bytes_allocated_proxy`, an
/// object-valued `config`, and a non-empty `git_rev` string.
pub fn validate_report(report: &Value) -> Result<(), String> {
    let entries = report
        .as_object()
        .ok_or_else(|| "report must be a JSON object".to_string())?;
    if entries.is_empty() {
        return Err("report contains no scenarios".to_string());
    }
    for (name, entry) in entries {
        let fields = entry
            .as_object()
            .ok_or_else(|| format!("scenario '{name}' is not an object"))?;
        let get = |key: &str| -> Result<&Value, String> {
            fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("scenario '{name}' is missing field '{key}'"))
        };
        for key in ["rounds_per_sec", "ns_per_step"] {
            let v = get(key)?
                .as_f64()
                .ok_or_else(|| format!("scenario '{name}': '{key}' is not numeric"))?;
            if !v.is_finite() || v <= 0.0 {
                return Err(format!(
                    "scenario '{name}': '{key}' must be finite and positive, got {v}"
                ));
            }
        }
        get("bytes_allocated_proxy")?
            .as_u64()
            .ok_or_else(|| format!("scenario '{name}': 'bytes_allocated_proxy' is not a u64"))?;
        get("config")?
            .as_object()
            .ok_or_else(|| format!("scenario '{name}': 'config' is not an object"))?;
        let rev = get("git_rev")?
            .as_str()
            .ok_or_else(|| format!("scenario '{name}': 'git_rev' is not a string"))?;
        if rev.is_empty() {
            return Err(format!("scenario '{name}': 'git_rev' is empty"));
        }
    }
    Ok(())
}

/// Scenario keys every emitted `BENCH_round_loop.json` must contain.
/// These are the pinned hot paths the perf gate tracks across PRs — a
/// report missing one of them (e.g. a scenario silently deleted from the
/// binary) fails validation in CI. `topk_feedback` pins the error-feedback
/// compression hot path added with the CHOCO-SGD subsystem;
/// `dynamic_topology_round` pins the scheduled-round loop (per-round graph
/// generation + MH mixing + capped error-feedback replicas), whose
/// allocation proxy is the regression gate for the replica leak — it must
/// stay bounded while the schedule cycles links forever; `battery_round`
/// pins the closed-loop battery round (harvest recharge, policy decision,
/// participation masking, settle), whose allocation proxy gates that the
/// battery bookkeeping stays allocation-free at steady state and O(n)
/// per round. The codec round-trip scenarios run through the reusable
/// encode/decode scratch buffers, and their allocation proxies gate that
/// the wire path stays allocation-free at steady state; `event_round`
/// pins the discrete-event scheduler (priority queue, seeded
/// straggler/latency/churn draws, late-edge classification) at one
/// realistic deadline round per iteration, also allocation-free at
/// steady state; `adaptive_link_round` pins the per-link compression
/// policy layer (per-round charge snapshot, DEAL tier resolution into
/// the per-node codec rows, heterogeneous-codec share, per-edge byte
/// charging) on a 64-node diurnal battery fleet over cached
/// edge-dropout mixings; `adaptive_link_round_serialized` is the same
/// fleet on the lossy serialized transport (per-sender frame slots,
/// verify once, aggregate from the wire bytes, corruption proofs). Both
/// per-link scenarios are also in [`ZERO_ALLOC_SCENARIOS`].
pub const REQUIRED_SCENARIOS: &[&str] = &[
    "sgd_step_mlp_medium_90k",
    "round_loop_train_64",
    "round_loop_sync_256",
    "codec_dense_roundtrip",
    "codec_quantized_u16_roundtrip",
    "topk_feedback",
    "dynamic_topology_round",
    "battery_round",
    "event_round",
    "corrupt_frame_round",
    "adaptive_link_round",
    "adaptive_link_round_serialized",
];

/// Scenarios whose `bytes_allocated_proxy` must be exactly 0 — a failing
/// check, not a recorded number. Both run on a 1-thread pool: the
/// vendored rayon spawns scoped threads per parallel call at higher
/// thread counts, which allocates outside the simulation's control.
pub const ZERO_ALLOC_SCENARIOS: &[&str] =
    &["adaptive_link_round", "adaptive_link_round_serialized"];

/// Checks that every scenario in `names` is present in `report` and
/// allocated 0 bytes per step.
pub fn validate_zero_alloc(report: &Value, names: &[&str]) -> Result<(), String> {
    let entries = report
        .as_object()
        .ok_or_else(|| "report must be a JSON object".to_string())?;
    for name in names {
        let bytes = entries
            .iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, entry)| entry.as_object())
            .and_then(|fields| fields.iter().find(|(k, _)| k == "bytes_allocated_proxy"))
            .and_then(|(_, v)| v.as_u64())
            .ok_or_else(|| format!("zero-allocation scenario '{name}' is missing"))?;
        if bytes != 0 {
            return Err(format!(
                "scenario '{name}' allocated {bytes} B/step; it must allocate nothing"
            ));
        }
    }
    Ok(())
}

/// Checks that `report` contains every key in `required` (shape is
/// checked separately by [`validate_report`]).
pub fn validate_required_scenarios(report: &Value, required: &[&str]) -> Result<(), String> {
    let entries = report
        .as_object()
        .ok_or_else(|| "report must be a JSON object".to_string())?;
    for key in required {
        if !entries.iter().any(|(k, _)| k == key) {
            return Err(format!("report is missing required scenario '{key}'"));
        }
    }
    Ok(())
}

/// Builds a JSON object from `(key, value)` pairs (insertion order kept).
pub fn json_object(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_measurement(name: &str) -> ScenarioMeasurement {
        ScenarioMeasurement {
            name: name.to_string(),
            rounds_per_sec: 120.5,
            ns_per_step: 8.3e6,
            bytes_allocated_proxy: 4096,
            config: json_object(vec![("nodes", Value::UInt(64))]),
        }
    }

    #[test]
    fn built_report_round_trips_and_validates() {
        let report = build_report("abc1234", &[sample_measurement("round_loop")]);
        validate_report(&report).expect("fresh report must validate");
        // survive a serialize/parse round trip (what CI actually checks)
        let text = serde_json::to_string_pretty(&report).unwrap();
        let parsed: Value = serde_json::from_str(&text).unwrap();
        validate_report(&parsed).expect("parsed report must validate");
    }

    #[test]
    fn empty_report_is_rejected() {
        let report = build_report("abc1234", &[]);
        assert!(validate_report(&report).is_err());
    }

    #[test]
    fn missing_field_is_rejected() {
        let report = Value::Object(vec![(
            "scenario".to_string(),
            json_object(vec![("rounds_per_sec", Value::Float(1.0))]),
        )]);
        let err = validate_report(&report).unwrap_err();
        assert!(err.contains("ns_per_step"), "unexpected error: {err}");
    }

    #[test]
    fn non_finite_and_non_positive_rates_are_rejected() {
        for bad in [f64::NAN, f64::INFINITY, 0.0, -3.0] {
            let mut m = sample_measurement("s");
            m.rounds_per_sec = bad;
            let report = build_report("rev", &[m]);
            assert!(
                validate_report(&report).is_err(),
                "rounds_per_sec {bad} must be rejected"
            );
        }
    }

    #[test]
    fn empty_git_rev_is_rejected() {
        let report = build_report("", &[sample_measurement("s")]);
        assert!(validate_report(&report).is_err());
    }

    #[test]
    fn required_scenarios_are_enforced() {
        let full: Vec<ScenarioMeasurement> = REQUIRED_SCENARIOS
            .iter()
            .map(|name| sample_measurement(name))
            .collect();
        let report = build_report("rev", &full);
        validate_required_scenarios(&report, REQUIRED_SCENARIOS)
            .expect("complete report must pass");
        // dropping any one required scenario fails with its name
        for (i, name) in REQUIRED_SCENARIOS.iter().enumerate() {
            let mut partial = full.clone();
            partial.remove(i);
            let report = build_report("rev", &partial);
            let err = validate_required_scenarios(&report, REQUIRED_SCENARIOS).unwrap_err();
            assert!(err.contains(name), "error '{err}' should name '{name}'");
        }
        assert!(
            REQUIRED_SCENARIOS.contains(&"topk_feedback"),
            "the error-feedback hot path must stay pinned"
        );
        assert!(
            REQUIRED_SCENARIOS.contains(&"dynamic_topology_round"),
            "the scheduled-round replica-leak gate must stay pinned"
        );
        assert!(
            REQUIRED_SCENARIOS.contains(&"event_round"),
            "the discrete-event scheduler gate must stay pinned"
        );
        assert!(
            REQUIRED_SCENARIOS.contains(&"codec_quantized_u16_roundtrip"),
            "the quantized wire-path allocation gate must stay pinned"
        );
    }

    #[test]
    fn zero_alloc_gate_fails_on_a_single_byte() {
        let mut clean: Vec<ScenarioMeasurement> = ZERO_ALLOC_SCENARIOS
            .iter()
            .map(|name| ScenarioMeasurement {
                bytes_allocated_proxy: 0,
                ..sample_measurement(name)
            })
            .collect();
        let report = build_report("rev", &clean);
        validate_zero_alloc(&report, ZERO_ALLOC_SCENARIOS).expect("0 B/step passes");
        clean[1].bytes_allocated_proxy = 1;
        let report = build_report("rev", &clean);
        let err = validate_zero_alloc(&report, ZERO_ALLOC_SCENARIOS).unwrap_err();
        assert!(
            err.contains(ZERO_ALLOC_SCENARIOS[1]),
            "unexpected error: {err}"
        );
        // a gated scenario that vanished fails too
        let report = build_report("rev", &clean[..1]);
        assert!(validate_zero_alloc(&report, ZERO_ALLOC_SCENARIOS).is_err());
        for name in ZERO_ALLOC_SCENARIOS {
            assert!(REQUIRED_SCENARIOS.contains(name), "{name} must be required");
        }
    }

    #[test]
    fn measure_reports_positive_rates() {
        let mut acc = 0u64;
        let m = measure(
            "spin",
            json_object(vec![("iters", Value::UInt(64))]),
            1,
            5,
            || {
                for i in 0..64u64 {
                    acc = acc.wrapping_add(i * i);
                }
                std::hint::black_box(acc);
            },
        );
        assert!(m.rounds_per_sec.is_finite() && m.rounds_per_sec > 0.0);
        assert!(m.ns_per_step.is_finite() && m.ns_per_step > 0.0);
        let report = build_report("deadbee", &[m]);
        validate_report(&report).expect("measured scenario must validate");
    }
}
