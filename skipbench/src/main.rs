//! skipbench: the SkipTrain simulator's end-to-end benchmark.
//!
//! ```text
//! skipbench --workload <fig5-campaign|wide-skiptrain|lossy-adaptive>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run generates the workload's configs from the seed, passes the
//! correctness gate and the bit-identity probe, then repeats the whole
//! workload for `--seconds` and reports medians. With `--trace 0` the
//! result line carries the end-to-end metrics; with `--trace 1` it
//! carries the per-layer metrics, and the spans are written to
//! `$CARGO_TARGET_DIR/skipbench/` (default `skipbench/target/skipbench/`).
//! The last line of standard output is the JSON result; the exit code is
//! nonzero when any cell failed.

mod checks;
mod layers;
mod observe;
mod report;
mod stats;
mod trace;
mod workloads;

use checks::Violation;
use observe::{run_once, RunOutcome};
use report::{result_line, Host, Metrics};
use serde_json::Value;
use skiptrain_bench::perf::CountingAllocator;
use skiptrain_core::ExperimentConfig;
use stats::{median, min_samples_for, tail_percentile};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Trace;
use workloads::Workload;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const USAGE: &str = "usage: skipbench --workload <fig5-campaign|wide-skiptrain|lossy-adaptive> \
                     --seed <n> --seconds <1..=60> --trace <0|1>";

/// Fewest measured runs of the workload (medians need several).
const MIN_RUNS: usize = 3;
/// Fewest runs with tracing: two traced, two untraced, alternating.
const MIN_TRACED_RUNS: usize = 4;
/// No new run of the workload starts after this much of the process's
/// life, whatever `--seconds` asks for.
const LAST_START: Duration = Duration::from_secs(120);

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = |what: &str| format!("bad {what} '{value}'");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
            "--seconds" => {
                let s = value.parse::<u64>().ok().filter(|s| (1..=60).contains(s));
                seconds = Some(s.ok_or_else(|| bad("seconds"))?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Cells attempted and failed, with the reason of each failure.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    fn record(&mut self, stage: &str, cells: usize, violations: &[Violation]) {
        self.attempted += cells as u64;
        let mut failed_cells: Vec<usize> = violations.iter().map(|v| v.cell).collect();
        failed_cells.sort_unstable();
        failed_cells.dedup();
        self.failed += failed_cells.len() as u64;
        self.problems.extend(
            violations
                .iter()
                .map(|v| format!("{stage}: cell {}: {}", v.cell, v.what)),
        );
    }

    fn fail_all(&mut self, stage: &str, cells: usize, error: &str) {
        self.attempted += cells as u64;
        self.failed += cells as u64;
        self.problems.push(format!("{stage}: {error}"));
    }
}

/// What the shortened runs at one thread and at the full budget found.
#[derive(Debug, Default)]
struct Probe {
    digests_t1: Vec<u64>,
    digests_tn: Vec<u64>,
    /// Heap bytes per round of `configs[0]` run alone: [1 thread, N threads].
    alloc_per_round: [f64; 2],
}

/// Runs the shortened workload at one thread and at `threads`, checks
/// each run, and compares the per-cell result digests.
fn run_probe(
    workload: Workload,
    configs: &[ExperimentConfig],
    threads: usize,
    tally: &mut Tally,
) -> Probe {
    let short = workloads::shortened(configs, workload.probe_rounds());
    let mut probe = Probe::default();
    for (i, t) in [1, threads].into_iter().enumerate() {
        let stage = format!("probe t{t}");
        match run_once(&short, t, workload.is_campaign()) {
            Ok(run) => {
                tally.record(&stage, short.len(), &checks::check_run(&short, &run, false));
                let digests: Vec<u64> = run.results.iter().map(checks::digest).collect();
                if !workload.is_campaign() {
                    probe.alloc_per_round[i] = alloc_per_round(&run);
                }
                if i == 0 {
                    probe.digests_t1 = digests;
                } else {
                    probe.digests_tn = digests;
                }
            }
            Err(e) => tally.fail_all(&stage, short.len(), &e),
        }
        if workload.is_campaign() {
            // One cell alone, so no concurrent cell's allocations land in
            // its round windows.
            let stage = format!("{stage} alloc");
            match run_once(&short[..1], t, false) {
                Ok(run) => {
                    tally.record(&stage, 1, &checks::check_run(&short[..1], &run, false));
                    probe.alloc_per_round[i] = alloc_per_round(&run);
                }
                Err(e) => tally.fail_all(&stage, 1, &e),
            }
        }
    }
    if probe.digests_t1.len() == short.len() && probe.digests_tn.len() == short.len() {
        let mismatches: Vec<Violation> = probe
            .digests_t1
            .iter()
            .zip(&probe.digests_tn)
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(cell, (a, b))| Violation {
                cell,
                what: format!("result digest {a:016x} at 1 thread, {b:016x} at {threads}"),
            })
            .collect();
        // The comparison attempts no new cells; mismatches add failures.
        tally.record("bit-identity", 0, &mismatches);
    }
    probe
}

fn alloc_per_round(run: &RunOutcome) -> f64 {
    let bytes: u64 = run.cells.iter().map(|c| c.round_alloc_bytes).sum();
    let rounds: usize = run.cells.iter().map(|c| c.rounds.len()).sum();
    bytes as f64 / rounds.max(1) as f64
}

fn round_ms<'a>(runs: impl Iterator<Item = &'a RunOutcome>, trained: bool) -> Vec<f64> {
    runs.flat_map(|r| &r.cells)
        .flat_map(|c| &c.rounds)
        .filter(|r| r.trained == trained)
        .map(|r| r.ms())
        .collect()
}

fn med(xs: &[f64]) -> f64 {
    median(xs).unwrap_or(f64::NAN)
}

fn secs(a: Instant, b: Instant) -> f64 {
    b.duration_since(a).as_secs_f64()
}

/// The end-to-end metrics over all measured runs.
fn end_to_end(configs: &[ExperimentConfig], runs: &[RunOutcome], m: &mut Metrics) {
    let per_run =
        |f: &dyn Fn(&RunOutcome) -> f64| -> f64 { med(&runs.iter().map(f).collect::<Vec<_>>()) };
    m.push("setup_s", per_run(&|r| r.setup_s()), "s");
    m.push("wall_s", per_run(&|r| r.wall_s()), "s");
    m.push(
        "node_rounds_per_s",
        per_run(&|r| {
            r.results
                .iter()
                .map(|x| (x.nodes * x.rounds) as f64)
                .sum::<f64>()
                / r.wall_s()
        }),
        "1/s",
    );
    m.push(
        "train_samples_per_s",
        per_run(&|r| {
            r.results
                .iter()
                .zip(configs)
                .map(|(x, c)| (x.node_train_events as usize * c.local_steps * c.batch_size) as f64)
                .sum::<f64>()
                / r.wall_s()
        }),
        "1/s",
    );
    for (kind, trained) in [("train", true), ("sync", false)] {
        let ms = round_ms(runs.iter(), trained);
        m.push(format!("{kind}_round_ms_p50"), med(&ms), "ms");
        m.push(
            format!("{kind}_round_ms_p90"),
            tail_percentile(&ms, 90).unwrap_or(f64::NAN),
            "ms",
        );
    }
    m.push("peak_rss_mb", observe::peak_rss_mb(), "MB");
    let first = &runs[0].results;
    let acc: f64 = first
        .iter()
        .map(|x| x.final_test.mean_accuracy as f64)
        .sum::<f64>()
        / first.len() as f64;
    m.push("final_acc", acc, "fraction");
    m.push(
        "train_wh",
        first.iter().map(|x| x.total_training_wh).sum(),
        "Wh",
    );
    m.push("comm_wh", first.iter().map(|x| x.total_comm_wh).sum(), "Wh");
}

/// Records the traced runs' spans: workload → cell → setup, rounds,
/// evaluations.
fn record_run_spans(trace: &mut Trace, run: &RunOutcome) {
    let root = trace.record("workload", run.start, run.end, None);
    if let Some((a, b)) = run.data_build {
        trace.record("data.build", a, b, Some(root));
    }
    for cell in &run.cells {
        let id = trace.record("campaign.cell", cell.start, cell.end, Some(root));
        if let Some(first) = cell.first_round {
            trace.record("runner.setup", cell.start, first, Some(id));
        }
        for r in &cell.rounds {
            let name = if r.trained {
                "engine.round.train"
            } else {
                "engine.round.sync"
            };
            trace.record(name, r.start, r.end, Some(id));
        }
        for &(a, b) in &cell.evals {
            trace.record("engine.eval", a, b, Some(id));
        }
        trace.record(
            "engine.final_eval",
            cell.final_eval.0,
            cell.final_eval.1,
            Some(id),
        );
    }
}

/// The per-layer metrics: from the traced runs' hooks, the probe's
/// allocation counts, and timed calls into each layer at the workload's
/// shapes.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    workload: Workload,
    configs: &[ExperimentConfig],
    runs: &[RunOutcome],
    traced: &[bool],
    probe: &Probe,
    threads: usize,
    trace: &mut Trace,
    m: &mut Metrics,
) {
    let traced_runs: Vec<&RunOutcome> = runs
        .iter()
        .zip(traced)
        .filter(|(_, t)| **t)
        .map(|(r, _)| r)
        .collect();
    let plain_runs: Vec<&RunOutcome> = runs
        .iter()
        .zip(traced)
        .filter(|(_, t)| !**t)
        .map(|(r, _)| r)
        .collect();
    let cells = || traced_runs.iter().flat_map(|r| &r.cells);
    let lead = &configs[0];
    let layers_start = Instant::now();
    let layers = trace.record("layers", layers_start, layers_start, None);

    // setup
    m.push(
        "data.build_ms",
        layers::data_build(trace, layers, configs) * 1e3,
        "ms",
    );
    m.push(
        "topology.build_ms",
        layers::topology_build(trace, layers, lead) * 1e3,
        "ms",
    );
    let setup: Vec<f64> = cells()
        .filter_map(|c| c.first_round.map(|f| secs(c.start, f) * 1e3))
        .collect();
    m.push("runner.setup_ms", med(&setup), "ms");

    // local training
    let step = layers::nn_step(trace, layers, lead);
    m.push("nn.forward_us", step.forward_s * 1e6, "us");
    m.push("nn.backward_us", step.backward_s * 1e6, "us");
    m.push("nn.sgd_update_us", step.update_s * 1e6, "us");
    m.push(
        "nn.step_gflops",
        step.flops / step.step_s() / 1e9,
        "GFLOP/s",
    );
    m.push(
        "linalg.gemm_gflops",
        layers::gemm_gflops(trace, layers, lead),
        "GFLOP/s",
    );
    // Threads one experiment's node loop gets: a campaign's workers split
    // the budget, a single experiment has all of it.
    let experiment_threads = if workload.is_campaign() {
        (threads / threads.min(configs.len())).max(1)
    } else {
        threads
    };
    let lead_train: Vec<f64> = traced_runs
        .iter()
        .flat_map(|r| &r.cells[0].rounds)
        .filter(|r| r.trained)
        .map(|r| r.ms())
        .collect();
    let ideal_ms = lead.nodes as f64 * lead.local_steps as f64 * step.step_s() * 1e3
        / experiment_threads as f64;
    m.push(
        "engine.train_overhead_ratio",
        med(&lead_train) / ideal_ms,
        "ratio",
    );

    // rounds, evaluation, allocation
    m.push(
        "engine.share_aggregate_ms",
        med(&round_ms(traced_runs.iter().copied(), false)),
        "ms",
    );
    let evals: Vec<f64> = cells()
        .flat_map(|c| &c.evals)
        .map(|&(a, b)| secs(a, b) * 1e3)
        .collect();
    m.push("engine.eval_ms_p50", med(&evals), "ms");
    let finals: Vec<f64> = cells()
        .map(|c| secs(c.final_eval.0, c.final_eval.1) * 1e3)
        .collect();
    m.push("engine.final_eval_ms", med(&finals), "ms");
    m.push(
        "engine.alloc_bytes_per_round_t1",
        probe.alloc_per_round[0],
        "B",
    );
    m.push(
        "engine.alloc_bytes_per_round_tN",
        probe.alloc_per_round[1],
        "B",
    );

    // transport and compression
    for (label, encode, decode) in layers::codec_times(trace, layers, lead) {
        m.push(format!("transport.encode_us.{label}"), encode * 1e6, "us");
        m.push(format!("transport.decode_us.{label}"), decode * 1e6, "us");
    }
    let (quantize_gbs, topk_gbs) = layers::compress_gbs(trace, layers, lead);
    m.push("linalg.quantize_u8_gbs", quantize_gbs, "GB/s");
    m.push("linalg.topk_gbs", topk_gbs, "GB/s");
    let results = &runs[0].results;
    let total_rounds: usize = results.iter().map(|r| r.rounds).sum();
    let node_rounds: usize = results.iter().map(|r| r.rounds * r.nodes).sum();
    let sum = |f: &dyn Fn(&skiptrain_core::ExperimentResult) -> f64| -> f64 {
        results.iter().map(f).sum()
    };
    m.push(
        "transport.wire_bytes_per_round",
        sum(&|r| r.total_wire_bytes as f64) / total_rounds as f64,
        "B",
    );
    let tx: u64 = runs[0].cells.iter().map(|c| c.tx_bytes).sum();
    let rx: u64 = runs[0].cells.iter().map(|c| c.rx_bytes).sum();
    m.push(
        "transport.delivered_ratio",
        rx as f64 / tx.max(1) as f64,
        "ratio",
    );
    m.push(
        "transport.corrupted_frames",
        sum(&|r| r.corrupted_messages as f64),
        "count",
    );

    // topology schedule, events, battery
    m.push(
        "topology.schedule_round_us",
        layers::schedule_round(trace, layers, lead) * 1e6,
        "us",
    );
    trace.close(layers, Instant::now());
    let events = sum(&|r| r.events.events as f64);
    m.push(
        "events.events_per_round",
        events / total_rounds as f64,
        "count",
    );
    m.push(
        "events.late_ratio",
        sum(&|r| r.events.late_messages as f64) / events.max(1.0),
        "ratio",
    );
    let participations = sum(&|r| {
        r.battery
            .as_ref()
            .map_or(0.0, |b| b.node_participations as f64)
    });
    m.push(
        "battery.participation_ratio",
        participations / node_rounds as f64,
        "ratio",
    );
    m.push(
        "battery.brownouts",
        sum(&|r| r.battery.as_ref().map_or(0.0, |b| b.brownouts as f64)),
        "count",
    );

    // campaign scheduling
    let cell_s: Vec<f64> = cells().map(|c| secs(c.start, c.end)).collect();
    m.push("campaign.cell_s_p50", med(&cell_s), "s");
    let cell_max: Vec<f64> = traced_runs
        .iter()
        .map(|r| {
            r.cells
                .iter()
                .map(|c| secs(c.start, c.end))
                .fold(0.0, f64::max)
        })
        .collect();
    m.push("campaign.cell_s_max", med(&cell_max), "s");
    let busy: Vec<f64> = traced_runs
        .iter()
        .map(|r| {
            r.cells.iter().map(|c| secs(c.start, c.end)).sum::<f64>()
                / (r.wall_s() * threads as f64)
        })
        .collect();
    m.push("campaign.worker_busy_ratio", med(&busy), "ratio");
    let cpu: Vec<f64> = runs
        .iter()
        .map(|r| r.cpu_s / (r.wall_s() * threads as f64))
        .collect();
    m.push("campaign.cpu_util", med(&cpu), "ratio");

    // policy and tracing
    m.push(
        "policy.trained_fraction",
        sum(&|r| r.node_train_events as f64) / node_rounds as f64,
        "ratio",
    );
    let wall = |rs: &[&RunOutcome]| med(&rs.iter().map(|r| r.wall_s()).collect::<Vec<_>>());
    m.push(
        "trace.overhead_s",
        wall(&traced_runs) - wall(&plain_runs),
        "s",
    );
}

/// `$CARGO_TARGET_DIR/skipbench`, else this package's `target/skipbench`.
fn output_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target")))
        .join("skipbench")
}

fn write_trace(path: &std::path::Path, header: Value, trace: &Trace) -> std::io::Result<()> {
    let spans = trace
        .spans()
        .iter()
        .map(|s| {
            Value::Object(vec![
                ("name".into(), Value::String(s.name.clone())),
                ("start_ns".into(), Value::UInt(s.start_ns)),
                ("end_ns".into(), Value::UInt(s.end_ns)),
                (
                    "parent".into(),
                    s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                ),
            ])
        })
        .collect();
    let summary = trace::summarize(trace.spans())
        .into_iter()
        .map(|(name, t)| {
            let entry = Value::Object(vec![
                ("count".into(), Value::UInt(t.count)),
                ("total_ms".into(), Value::Float(t.total_ns as f64 / 1e6)),
                ("self_ms".into(), Value::Float(t.self_ns as f64 / 1e6)),
            ]);
            (name, entry)
        })
        .collect();
    let doc = Value::Object(vec![
        ("report".into(), header),
        ("self_time".into(), Value::Object(summary)),
        ("spans".into(), Value::Array(spans)),
    ]);
    std::fs::create_dir_all(path.parent().expect("file path has a parent"))?;
    std::fs::write(path, serde_json::to_string(&doc).expect("trace serializes"))
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("skipbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let threads = report::logical_cores();
    let host = Host::detect(threads, args.seed);
    let workload = args.workload;
    let configs = workload.configs(args.seed);
    let mut tally = Tally::default();

    let probe = run_probe(workload, &configs, threads, &mut tally);

    // Measured runs: at least `--seconds`, and until both round classes
    // have the samples their p90 needs. With tracing, every other run is
    // traced, so traced and untraced runs share the same conditions.
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let min_runs = if args.trace {
        MIN_TRACED_RUNS
    } else {
        MIN_RUNS
    };
    let mut trace = Trace::new(process_start);
    let (mut runs, mut traced) = (Vec::new(), Vec::new());
    let mut reference: Option<Vec<u64>> = None;
    loop {
        match run_once(&configs, threads, workload.is_campaign()) {
            Ok(run) => {
                let mut violations = checks::check_run(&configs, &run, true);
                let digests: Vec<u64> = run.results.iter().map(checks::digest).collect();
                let first = reference.get_or_insert_with(|| digests.clone());
                violations.extend(
                    first
                        .iter()
                        .zip(&digests)
                        .enumerate()
                        .filter(|(_, (a, b))| a != b)
                        .map(|(cell, _)| Violation {
                            cell,
                            what: "result differs from this process's first run".into(),
                        }),
                );
                tally.record("run", configs.len(), &violations);
                let is_traced = args.trace && runs.len() % 2 == 1;
                if is_traced {
                    record_run_spans(&mut trace, &run);
                }
                runs.push(run);
                traced.push(is_traced);
            }
            Err(e) => {
                tally.fail_all("run", configs.len(), &e);
                break;
            }
        }
        let now = Instant::now();
        let p90_ready = [true, false]
            .into_iter()
            .all(|trained| round_ms(runs.iter(), trained).len() >= min_samples_for(90));
        if (runs.len() >= min_runs && now >= deadline && p90_ready)
            || now.duration_since(process_start) >= LAST_START
        {
            break;
        }
    }

    let mut metrics = Metrics::default();
    if !runs.is_empty() {
        if args.trace {
            per_layer(
                workload,
                &configs,
                &runs,
                &traced,
                &probe,
                threads,
                &mut trace,
                &mut metrics,
            );
        } else {
            end_to_end(&configs, &runs, &mut metrics);
        }
    }
    let train_n = round_ms(runs.iter(), true).len();
    let sync_n = round_ms(runs.iter(), false).len();
    let mut problems = tally.problems.clone();
    let declared: &[&str] = if args.trace {
        &report::PER_LAYER
    } else {
        &report::END_TO_END
    };
    if !runs.is_empty() && !metrics.names_are(declared) {
        problems.push("reported metrics differ from the declared list".into());
    }
    for m in metrics.iter().filter(|m| !m.value.is_finite()) {
        problems.push(format!("metric {} could not be measured", m.name));
    }
    let p90_min = min_samples_for(90) as u64;
    let report = Value::Object(vec![
        ("workload".into(), Value::String(workload.name().into())),
        ("host".into(), host.to_json()),
        ("runs".into(), Value::UInt(runs.len() as u64)),
        (
            "result_digest".into(),
            Value::String(runs.first().map_or("none".into(), |r| {
                format!("{:016x}", checks::digest(&r.results))
            })),
        ),
        (
            "probe_digest_t1".into(),
            Value::String(format!("{:016x}", checks::digest(&probe.digests_t1))),
        ),
        (
            "probe_digest_tN".into(),
            Value::String(format!("{:016x}", checks::digest(&probe.digests_tn))),
        ),
        ("train_round_samples".into(), Value::UInt(train_n as u64)),
        ("sync_round_samples".into(), Value::UInt(sync_n as u64)),
        ("p90_min_samples".into(), Value::UInt(p90_min)),
        (
            "alloc_bytes_per_round".into(),
            Value::Object(vec![
                ("t1".into(), Value::Float(probe.alloc_per_round[0])),
                (
                    format!("t{threads}"),
                    Value::Float(probe.alloc_per_round[1]),
                ),
            ]),
        ),
        (
            "problems".into(),
            Value::Array(problems.iter().map(|p| Value::String(p.clone())).collect()),
        ),
    ]);
    if args.trace {
        let path = output_dir().join(format!("trace-{}-seed{}.json", workload.name(), args.seed));
        match write_trace(&path, report.clone(), &trace) {
            Ok(()) => eprintln!("skipbench: spans written to {}", path.display()),
            Err(e) => problems.push(format!("writing {}: {e}", path.display())),
        }
    }
    for problem in &problems {
        eprintln!("skipbench: {problem}");
    }
    println!(
        "{}",
        serde_json::to_string(&report).expect("report serializes")
    );
    let correct = problems.is_empty() && tally.failed == 0 && !runs.is_empty();
    let failed = if correct { 0 } else { tally.failed.max(1) };
    println!(
        "{}",
        result_line(correct, tally.attempted.max(1), failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args("--workload lossy-adaptive --seed 9 --seconds 20 --trace 1").unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::LossyAdaptive,
                seed: 9,
                seconds: 20,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope --seed 1 --seconds 5 --trace 0",
            "--workload fig5-campaign --seed x --seconds 5 --trace 0",
            "--workload fig5-campaign --seed 1 --seconds 0 --trace 0",
            "--workload fig5-campaign --seed 1 --seconds 5 --trace 2",
            "--workload fig5-campaign --seed 1 --seconds 5",
            "--workload fig5-campaign --seed 1 --seconds 5 --trace 0 --extra 1",
        ] {
            assert!(args(bad).is_err(), "{bad:?} should be refused");
        }
    }
}
