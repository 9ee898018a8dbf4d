//! Per-layer measurements at the workload's own shapes.
//!
//! Each function times the benchmark's calls into one crate's public
//! functions, recording one span per call under `parent`, and returns
//! the per-call median.

use crate::stats::median;
use crate::trace::{SpanId, Trace};
use skiptrain_core::{Experiment, ExperimentConfig};
use skiptrain_engine::transport::{decode_frame_into, encode_message_with};
use skiptrain_engine::{DecodeScratch, EncodeScratch, ModelCodec};
use skiptrain_linalg::compress::{quantize_u8_into, top_k_indices_into};
use skiptrain_linalg::{gemm_a_bt_into, gemm_at_b_into, gemm_into, Matrix};
use skiptrain_nn::sgd::SgdConfig;
use skiptrain_nn::{Sequential, Sgd, SoftmaxCrossEntropy};
use skiptrain_topology::{MixingMatrix, ScheduledTopology, TopologySchedule};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Wall-clock budget of one timing loop.
const LOOP_BUDGET: Duration = Duration::from_millis(150);
/// Calls per loop: at least this many, even past the budget.
const MIN_CALLS: usize = 5;
/// Calls per loop: never more, even within the budget.
const MAX_CALLS: usize = 2000;
/// Unrecorded calls before timing starts (caches, lazy buffers).
const WARMUP_CALLS: usize = 2;

/// Times `f` repeatedly as `name` spans; returns the median seconds per call.
fn time_calls(trace: &mut Trace, name: &str, parent: SpanId, mut f: impl FnMut()) -> f64 {
    for _ in 0..WARMUP_CALLS {
        f();
    }
    let loop_start = Instant::now();
    let mut secs = Vec::new();
    while secs.len() < MIN_CALLS || (loop_start.elapsed() < LOOP_BUDGET && secs.len() < MAX_CALLS) {
        let start = Instant::now();
        f();
        let end = Instant::now();
        trace.record(name, start, end, Some(parent));
        secs.push(end.duration_since(start).as_secs_f64());
    }
    median(&secs).expect("at least MIN_CALLS samples")
}

/// Median per-call times of one local SGD step's phases.
#[derive(Debug, Clone, Copy)]
pub struct StepTimes {
    pub forward_s: f64,
    pub backward_s: f64,
    pub update_s: f64,
    /// Multiply-add work of forward + backward, in floating-point operations.
    pub flops: f64,
}

impl StepTimes {
    pub fn step_s(&self) -> f64 {
        self.forward_s + self.backward_s + self.update_s
    }
}

/// Dense layer shapes `(inputs, outputs)` of the config's model.
fn dense_shapes(cfg: &ExperimentConfig) -> Vec<(usize, usize)> {
    let (input, hidden, classes) = (
        cfg.data.feature_dim(),
        cfg.hidden_dim,
        cfg.data.num_classes(),
    );
    if hidden == 0 {
        vec![(input, classes)]
    } else {
        vec![(input, hidden), (hidden, classes)]
    }
}

fn batch_input(batch: usize, dim: usize) -> Matrix {
    Matrix::from_fn(batch, dim, |r, c| {
        (((r * 31 + c * 17) % 29) as f32 - 14.0) / 14.0
    })
}

/// `Sequential::forward`, `Sequential::backward` and `Sgd::step` at the
/// config's model shape and batch size, in the order a local step runs
/// them.
pub fn nn_step(trace: &mut Trace, parent: SpanId, cfg: &ExperimentConfig) -> StepTimes {
    let mut model: Sequential = cfg.model_kind().build(cfg.seed);
    let batch = cfg.batch_size;
    let classes = cfg.data.num_classes();
    let x = batch_input(batch, cfg.data.feature_dim());
    let labels: Vec<u32> = (0..batch).map(|i| (i % classes) as u32).collect();
    let loss = SoftmaxCrossEntropy::new(classes);
    let mut grad = Matrix::zeros(batch, classes);
    let mut sgd = Sgd::new(SgdConfig::plain(cfg.learning_rate * 0.01));
    let (mut fwd, mut bwd, mut upd) = (Vec::new(), Vec::new(), Vec::new());
    let loop_start = Instant::now();
    let mut calls = 0;
    while calls < MIN_CALLS + WARMUP_CALLS
        || (loop_start.elapsed() < LOOP_BUDGET && calls < MAX_CALLS)
    {
        model.zero_grads();
        let t0 = Instant::now();
        let logits = model.forward(&x, true);
        let t1 = Instant::now();
        black_box(loss.loss_and_grad(logits, &labels, &mut grad));
        let t2 = Instant::now();
        model.backward(&grad);
        let t3 = Instant::now();
        sgd.step(&mut model);
        let t4 = Instant::now();
        calls += 1;
        if calls > WARMUP_CALLS {
            trace.record("nn.forward", t0, t1, Some(parent));
            trace.record("nn.backward", t2, t3, Some(parent));
            trace.record("nn.sgd_update", t3, t4, Some(parent));
            fwd.push(t1.duration_since(t0).as_secs_f64());
            bwd.push(t3.duration_since(t2).as_secs_f64());
            upd.push(t4.duration_since(t3).as_secs_f64());
        }
    }
    let macs: usize = dense_shapes(cfg).iter().map(|(i, o)| batch * i * o).sum();
    StepTimes {
        forward_s: median(&fwd).expect("samples"),
        backward_s: median(&bwd).expect("samples"),
        update_s: median(&upd).expect("samples"),
        // forward: 2·MACs; backward: weight and input gradients, 4·MACs
        flops: 6.0 * macs as f64,
    }
}

/// GFLOP/s of the three GEMM forms a dense layer's step uses
/// (`gemm_into` forward, `gemm_at_b_into` weight gradient,
/// `gemm_a_bt_into` input gradient), at every layer shape of the model.
pub fn gemm_gflops(trace: &mut Trace, parent: SpanId, cfg: &ExperimentConfig) -> f64 {
    let batch = cfg.batch_size;
    let shapes = dense_shapes(cfg);
    let mut buffers: Vec<_> = shapes
        .iter()
        .map(|&(i, o)| {
            let x = batch_input(batch, i).as_slice().to_vec();
            let w = batch_input(i, o).as_slice().to_vec();
            let dy = batch_input(batch, o).as_slice().to_vec();
            (
                x,
                w,
                dy,
                vec![0.0f32; batch * o],
                vec![0.0f32; i * o],
                vec![0.0f32; batch * i],
            )
        })
        .collect();
    let secs = time_calls(trace, "linalg.gemm", parent, || {
        for (&(i, o), (x, w, dy, y, dw, dx)) in shapes.iter().zip(buffers.iter_mut()) {
            gemm_into(batch, i, o, x, w, y);
            gemm_at_b_into(i, batch, o, x, dy, dw);
            gemm_a_bt_into(batch, o, i, dy, w, dx);
            black_box((&y, &dw, &dx));
        }
    });
    let flops: usize = shapes.iter().map(|(i, o)| 3 * 2 * batch * i * o).sum();
    flops as f64 / secs / 1e9
}

/// The codecs whose frame encode/decode is timed, with metric suffixes.
fn codecs(params: usize) -> [(&'static str, ModelCodec); 4] {
    [
        ("dense", ModelCodec::DenseF32),
        ("u16", ModelCodec::QuantizedU16),
        ("u8", ModelCodec::QuantizedU8),
        (
            "topk",
            ModelCodec::TopK {
                k: (params / 64).max(1),
            },
        ),
    ]
}

/// Per-codec median `encode_message_with` and `decode_frame_into` times
/// (seconds) on the config's model parameters.
pub fn codec_times(
    trace: &mut Trace,
    parent: SpanId,
    cfg: &ExperimentConfig,
) -> Vec<(&'static str, f64, f64)> {
    let params = cfg.model_kind().build(cfg.seed).flat_params();
    let mut frame = Vec::new();
    let mut enc = EncodeScratch::default();
    let mut dec = DecodeScratch::default();
    codecs(params.len())
        .into_iter()
        .map(|(label, codec)| {
            let encode = time_calls(trace, &format!("transport.encode.{label}"), parent, || {
                encode_message_with(codec, 1, 2, &params, &mut frame, &mut enc);
                black_box(&frame);
            });
            let decode = time_calls(trace, &format!("transport.decode.{label}"), parent, || {
                let msg = decode_frame_into(&frame, &mut dec).expect("own frame decodes");
                black_box(msg.param_count);
            });
            (label, encode, decode)
        })
        .collect()
}

/// GB/s of `quantize_u8_into` and `top_k_indices_into` over the model's
/// `f32` parameters.
pub fn compress_gbs(trace: &mut Trace, parent: SpanId, cfg: &ExperimentConfig) -> (f64, f64) {
    let params = cfg.model_kind().build(cfg.seed).flat_params();
    let bytes = (params.len() * 4) as f64;
    let mut codes = Vec::new();
    let quantize = time_calls(trace, "linalg.quantize_u8", parent, || {
        black_box(quantize_u8_into(&params, &mut codes));
    });
    let k = (params.len() / 64).max(1);
    let mut indices = Vec::new();
    let topk = time_calls(trace, "linalg.topk", parent, || {
        top_k_indices_into(&params, k, &mut indices);
        black_box(&indices);
    });
    (bytes / quantize / 1e9, bytes / topk / 1e9)
}

/// Median seconds of `TopologySpec::build` plus
/// `MixingMatrix::metropolis_hastings` on the config's topology.
pub fn topology_build(trace: &mut Trace, parent: SpanId, cfg: &ExperimentConfig) -> f64 {
    time_calls(trace, "topology.build", parent, || {
        let graph = cfg.topology.build(cfg.nodes, cfg.seed);
        black_box(MixingMatrix::metropolis_hastings(&graph));
    })
}

/// Median seconds of one `ScheduledTopology::mixing_for_round` over fresh
/// rounds of the config's schedule (the static schedule when it has none).
pub fn schedule_round(trace: &mut Trace, parent: SpanId, cfg: &ExperimentConfig) -> f64 {
    let graph = cfg.topology.build(cfg.nodes, cfg.seed);
    let mut schedule = cfg
        .topology_schedule
        .bind(&graph, cfg.seed)
        .unwrap_or_else(|| ScheduledTopology::new(graph.clone(), TopologySchedule::Static));
    let mut round = 0;
    time_calls(trace, "topology.schedule_round", parent, || {
        black_box(schedule.mixing_for_round(round));
        round += 1;
    })
}

/// Median seconds of `Experiment::build_data` for each distinct data
/// bundle of the workload, summed.
pub fn data_build(trace: &mut Trace, parent: SpanId, configs: &[ExperimentConfig]) -> f64 {
    let mut seen: Vec<String> = Vec::new();
    let mut total = 0.0;
    for cfg in configs {
        let key = format!("{:?}|{}|{}", cfg.data, cfg.nodes, cfg.seed);
        if seen.contains(&key) {
            continue;
        }
        seen.push(key);
        let experiment = Experiment::from_config(cfg.clone()).expect("workload configs validate");
        total += time_calls(trace, "data.build", parent, || {
            black_box(experiment.build_data());
        });
    }
    total
}
