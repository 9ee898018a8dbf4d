//! Running a workload once, timed from outside the library.
//!
//! Every clock reading is taken here: around the benchmark's own calls
//! into `Experiment::build_data`, `Experiment::run_observed` and
//! `Campaign::run`, and inside the `RoundObserver` hooks the library
//! calls at round start, round end and evaluation. The library itself
//! stays clock-free.

use skiptrain_bench::perf::allocated_bytes;
use skiptrain_core::{Campaign, Experiment, ExperimentConfig, ExperimentResult};
use skiptrain_engine::observer::{EvalReport, RoundCtx, RoundObserver, RoundReport};
use skiptrain_engine::{RoundAction, Simulation};
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One round as seen from the observer hooks.
#[derive(Debug, Clone, Copy)]
pub struct RoundRecord {
    pub start: Instant,
    pub end: Instant,
    /// At least one node's action was `Train`.
    pub trained: bool,
}

impl RoundRecord {
    pub fn ms(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64() * 1e3
    }
}

/// Everything recorded about one experiment (one campaign cell).
#[derive(Debug, Clone)]
pub struct CellLog {
    pub cell: usize,
    /// When the observer was created: the run call for a single
    /// experiment, the cell's start (data already acquired) in a campaign.
    pub start: Instant,
    pub first_round: Option<Instant>,
    pub end: Instant,
    pub rounds: Vec<RoundRecord>,
    /// Periodic evaluations: (previous hook, evaluation hook).
    pub evals: Vec<(Instant, Instant)>,
    /// Final evaluation: (last hook, observer dropped).
    pub final_eval: (Instant, Instant),
    /// Σ of every `RoundReport`'s training and communication Wh.
    pub reported_train_wh: f64,
    pub reported_comm_wh: f64,
    /// Ledger byte totals after the last round.
    pub tx_bytes: u64,
    pub rx_bytes: u64,
    /// Some round received more bytes than were sent in it.
    pub rx_exceeded_tx: bool,
    /// Heap bytes requested between round start and round end, summed.
    pub round_alloc_bytes: u64,
}

/// Shared sink the per-cell observers deliver their logs to.
type Sink = Arc<Mutex<Vec<CellLog>>>;

/// Round-loop observer recording one cell's [`CellLog`].
struct CellObserver {
    log: CellLog,
    round_start: Instant,
    round_trained: bool,
    last_hook: Instant,
    alloc_mark: u64,
    sink: Sink,
}

impl CellObserver {
    fn new(cell: usize, cfg: &ExperimentConfig, sink: Sink) -> Self {
        let now = Instant::now();
        Self {
            log: CellLog {
                cell,
                start: now,
                first_round: None,
                end: now,
                rounds: Vec::with_capacity(cfg.rounds),
                evals: Vec::with_capacity(cfg.rounds / cfg.eval_every.max(1) + 1),
                final_eval: (now, now),
                reported_train_wh: 0.0,
                reported_comm_wh: 0.0,
                tx_bytes: 0,
                rx_bytes: 0,
                rx_exceeded_tx: false,
                round_alloc_bytes: 0,
            },
            round_start: now,
            round_trained: false,
            last_hook: now,
            alloc_mark: 0,
            sink,
        }
    }
}

impl RoundObserver for CellObserver {
    fn on_round_start(&mut self, _sim: &Simulation, ctx: &RoundCtx<'_>) {
        self.round_trained = ctx.actions.contains(&RoundAction::Train);
        self.alloc_mark = allocated_bytes();
        let now = Instant::now();
        self.log.first_round.get_or_insert(now);
        self.round_start = now;
    }

    fn on_round_end(&mut self, sim: &mut Simulation, report: &RoundReport<'_>) -> ControlFlow<()> {
        let now = Instant::now();
        self.log.round_alloc_bytes += allocated_bytes().saturating_sub(self.alloc_mark);
        self.log.rounds.push(RoundRecord {
            start: self.round_start,
            end: now,
            trained: self.round_trained,
        });
        self.log.reported_train_wh += report.round_training_wh;
        self.log.reported_comm_wh += report.round_comm_wh;
        let (tx, rx) = (sim.ledger().total_tx_bytes(), sim.ledger().total_rx_bytes());
        if rx - self.log.rx_bytes > tx - self.log.tx_bytes {
            self.log.rx_exceeded_tx = true;
        }
        (self.log.tx_bytes, self.log.rx_bytes) = (tx, rx);
        self.last_hook = Instant::now();
        ControlFlow::Continue(())
    }

    fn on_eval(&mut self, _sim: &mut Simulation, _report: &EvalReport<'_>) -> ControlFlow<()> {
        let now = Instant::now();
        self.log.evals.push((self.last_hook, now));
        self.last_hook = now;
        ControlFlow::Continue(())
    }
}

impl Drop for CellObserver {
    fn drop(&mut self) {
        let now = Instant::now();
        self.log.end = now;
        self.log.final_eval = (self.last_hook, now);
        // A poisoned sink means a sibling cell panicked; that run is
        // already counted as failed, so this log is simply dropped.
        if let Ok(mut logs) = self.sink.lock() {
            logs.push(self.log.clone());
        }
    }
}

/// One execution of a workload.
#[derive(Debug)]
pub struct RunOutcome {
    pub start: Instant,
    pub end: Instant,
    /// `Experiment::build_data` interval (single-experiment workloads;
    /// campaigns build their bundles inside the cells).
    pub data_build: Option<(Instant, Instant)>,
    /// Cell logs in cell order.
    pub cells: Vec<CellLog>,
    pub results: Vec<ExperimentResult>,
    /// Process CPU seconds spent during the run.
    pub cpu_s: f64,
}

impl RunOutcome {
    pub fn wall_s(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }

    /// Workload start to the first round start of any cell.
    pub fn setup_s(&self) -> f64 {
        self.cells
            .iter()
            .filter_map(|c| c.first_round)
            .min()
            .map_or(f64::NAN, |t| t.duration_since(self.start).as_secs_f64())
    }
}

/// Runs `configs` once on `threads` threads: as one campaign when
/// `campaign` is set, else `configs[0]` as a single experiment. A panic
/// or an error anywhere in the run is returned as `Err` with its message.
pub fn run_once(
    configs: &[ExperimentConfig],
    threads: usize,
    campaign: bool,
) -> Result<RunOutcome, String> {
    let sink: Sink = Arc::new(Mutex::new(Vec::with_capacity(configs.len())));
    let cpu0 = process_cpu_s();
    let start = Instant::now();
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        if campaign {
            let cell_sink = Arc::clone(&sink);
            let results = Campaign::from_configs(configs.to_vec())
                .threads(threads)
                .observe_with(move |run, cfg| {
                    vec![
                        Box::new(CellObserver::new(run, cfg, Arc::clone(&cell_sink)))
                            as Box<dyn RoundObserver>,
                    ]
                })
                .run()
                .map_err(|e| e.to_string())?;
            Ok((None, results))
        } else {
            let experiment =
                Experiment::from_config(configs[0].clone()).map_err(|e| e.to_string())?;
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap_or_else(|never| match never {})
                .install(|| {
                    let data_start = Instant::now();
                    let data = experiment.build_data();
                    let data_end = Instant::now();
                    let mut observer = CellObserver::new(0, &configs[0], Arc::clone(&sink));
                    let result = experiment
                        .run_observed(&data, &mut [&mut observer])
                        .map_err(|e| e.to_string())?;
                    drop(observer);
                    Ok((Some((data_start, data_end)), vec![result]))
                })
        }
    }));
    let end = Instant::now();
    let cpu_s = process_cpu_s() - cpu0;
    let (data_build, results) = match attempt {
        Ok(Ok(done)) => done,
        Ok(Err(message)) => return Err(message),
        Err(panic) => return Err(panic_message(panic.as_ref())),
    };
    let mut cells = std::mem::take(&mut *sink.lock().map_err(|_| "cell sink poisoned")?);
    cells.sort_by_key(|c| c.cell);
    if cells.len() != results.len() {
        return Err(format!(
            "{} cells reported for {} results",
            cells.len(),
            results.len()
        ));
    }
    Ok(RunOutcome {
        start,
        end,
        data_build,
        cells,
        results,
        cpu_s,
    })
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    let text = panic
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| panic.downcast_ref::<&str>().copied())
        .unwrap_or("non-string panic payload");
    format!("panic: {text}")
}

/// User + system CPU seconds of this process, all threads, from
/// `/proc/self/stat` (clock ticks of 1/100 s, the fixed Linux `USER_HZ`).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
