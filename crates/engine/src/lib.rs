//! Event-driven decentralized-learning execution engine.
//!
//! This crate is the DecentralizePy substitute: it owns the round
//! mechanics every algorithm in the paper shares, layered on a
//! discrete-event core ([`events`]) so that synchronous D-PSGD/SkipTrain
//! and asynchronous gossip are two *schedules compiled onto one engine*
//! rather than two loops.
//!
//! # The event core
//!
//! [`events::EventEngine`] owns a deterministic priority queue
//! ([`events::EventQueue`], keyed by `(time, seq)` so ties pop in push
//! order), per-node virtual clocks, and three timing models:
//! a [`events::ComputeProfile`] (homogeneous, per-node speed factors, or
//! a seeded straggler tail), a [`events::LatencyModel`] (zero, constant,
//! or seeded per-link jitter), and an optional [`events::ChurnModel`]
//! (seeded per-round leave/rejoin; absent nodes cost nothing). Each round
//! it plays the typed events — `PolicyTick` → churn `Join`/`Leave`,
//! `TrainComplete` per node, `MessageArrive` per effective edge,
//! `EvalTick` — and tells the executor which nodes are present and which
//! edges *missed the round deadline*.
//!
//! Under **barrier** semantics (the synchronous runner) the round waits
//! for every message: stragglers and latency stretch virtual time but
//! never change which messages aggregate, so the event path reproduces
//! the legacy lockstep loop bit for bit. Under **deadline** semantics
//! (async gossip) a message arriving after the slack window is a *late
//! edge*, treated exactly like a transport drop: the sender's transmit
//! energy is still charged, no receive is charged, the mixing weight
//! folds back into the receiver's self weight, and error-feedback
//! replicas do not advance.
//!
//! # The round phases
//!
//! However a round was timed, its data path is the same four phases:
//!
//! 1. **local compute** — each node either trains `E` local SGD steps on its
//!    private dataset (a *training* round) or leaves its model untouched
//!    (a *synchronization* round), producing the half-step model `x^{t−½}`;
//! 2. **share** — every node on an effective communication edge (an
//!    off-diagonal entry of the round's mixing matrix, which may be a
//!    pairwise-gossip override) sends `x^{t−½}` through a
//!    [`transport`](transport::TransportKind) (zero-copy in-memory or full
//!    serialize/decode with optional loss), compressed by the
//!    [`ModelCodec`](transport::ModelCodec) the configured
//!    [`CompressionPolicy`](transport::CompressionPolicy) resolves for
//!    that directed link this round — optionally with per-link
//!    CHOCO-SGD error feedback
//!    ([`ErrorFeedbackState`](transport::ErrorFeedbackState)), which
//!    compresses each directed edge's accumulated residual against a link
//!    replica instead of the raw model at identical wire bytes;
//! 3. **aggregate** — every node computes `x^t = Σ_j W_ji · x_j^{t−½}`
//!    with its Metropolis–Hastings row, over the lossily reconstructed
//!    neighbor models (late or dropped edges fall back to the receiver's
//!    own model), then applies the consensus stepsize:
//!    `x^t = x^{t−½} + γ (Σ_j W_ji · x_j^{t−½} − x^{t−½})` with γ = 1
//!    by default;
//! 4. **account** — the energy ledger records one tx event per attempted
//!    message and one rx event per delivered, on-time message, at the
//!    codec's actual wire bytes, over exactly the edges that fired —
//!    and stamps the round's virtual end tick when an event engine is
//!    driving ([`EnergyLedger::round_end_ticks`](skiptrain_energy::EnergyLedger::round_end_ticks)).
//!
//! Which of train/sync each node performs per round is decided by the
//! *policies* in `skiptrain-core`; the engine is policy-agnostic and simply
//! executes [`RoundAction`](executor::RoundAction)s. Nodes execute in
//! parallel with rayon; the event layer is serial and all randomness is
//! derived from per-node seeded streams, so results are independent of
//! the thread count.
//!
//! When a [`BatterySetup`](skiptrain_energy::battery::BatterySetup) is
//! configured on the [`SimulationConfig`](executor::SimulationConfig), a
//! battery prologue runs before step 1 and an epilogue after step 4: each
//! node's battery recharges from its harvest trace, the participation
//! policy (fleet-wide or per-node heterogeneous) decides from charge
//! fractions which nodes take part, intended actions are gated (a gated
//! node neither trains nor fires its edges — its mixing row collapses to
//! identity via
//! [`MixingMatrix::masked_into`](skiptrain_topology::MixingMatrix::masked_into),
//! so comm accounting stays byte-accurate over exactly the surviving
//! edges), and the ledger's actual per-node spend of the round is drained
//! from the batteries. A node that intends to train but cannot afford the
//! round browns out: its remaining charge is burned and it sits the round
//! out. Churn gating composes with battery gating: an absent node's row
//! is masked first, then the battery masks what remains.
//!
//! Drivers hook into the round loop through
//! [`RoundObserver`](observer::RoundObserver) callbacks (round start/end,
//! periodic evaluation) — curve recording, energy streaming, and early
//! stopping are [`observer`] implementations rather than executor
//! concerns. Per-node datasets sit behind `Arc` so many simulations can
//! share one materialized dataset (see
//! [`Simulation::with_shared_data`](executor::Simulation::with_shared_data)).

pub mod error;
pub mod eval;
pub mod events;
pub mod executor;
pub mod metrics;
pub mod node;
pub mod observer;
pub mod transport;

pub use error::EngineError;
pub use events::{
    ChurnModel, ComputeProfile, Event, EventEngine, EventQueue, EventStats, LatencyModel,
    RoundSemantics, BASE_TRAIN_TICKS,
};
pub use executor::{RoundAction, Simulation, SimulationConfig};
pub use metrics::{AccuracyPoint, EvalStats, MetricsRecorder};
pub use observer::{
    BatteryObserver, BatteryRound, CurveObserver, EarlyStop, EnergyTraceObserver, EvalReport,
    MeanModelObserver, RoundCtx, RoundObserver, RoundReport,
};
pub use transport::{
    rarity_k, tier_codec, CompressionPolicy, DecodeScratch, EncodeScratch, EnergyTier,
    ErrorFeedbackState, LinkCodec, ModelCodec, TransportKind, DEFAULT_REPLICA_CAP,
};

/// Builder of the worker pool the executor's parallel phases run on,
/// re-exported so harnesses can pin a simulation's thread count
/// (`ThreadPoolBuilder::new().num_threads(n).build()?.install(..)`)
/// without a direct dependency.
pub use rayon::ThreadPoolBuilder;
