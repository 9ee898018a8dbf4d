//! The synchronous round executor.
//!
//! A round runs four phases: local compute (train or sync-only, parallel
//! over nodes), share, aggregate `x^t = Σ_j W_ji x_j^{t−½}` over the
//! round's effective mixing, and energy accounting over the edges that
//! actually fired. Dropped, late, and corrupted edges fold their weight
//! back onto the receiver's own half-step model on every path.
//!
//! Share + aggregate has three implementations, picked by the
//! compression config:
//!
//! * **Uniform codec** — one payload per sender (zero-copy for dense in
//!   memory), aggregated through the indexed weighted-sum kernel.
//! * **Per-link policy** (`Simulation::share_aggregate_per_link`) — a
//!   two-stage pipeline. A serial need scan marks each (sender, resolved
//!   codec) pair some on-time edge needs; stage 1 (sender-parallel)
//!   encodes each pair once into the sender's reusable frame slot and,
//!   on the serialized transport, verifies it once without decoding;
//!   stage 2 (receiver-parallel) aggregates each row straight from the
//!   slots' wire bytes ([`crate::transport::PayloadView::blend_axpy`]),
//!   bit-identical to a per-edge encode/decode round trip. A corrupted
//!   edge is proven in the energy phase by flipping its seeded bit on the
//!   sender's own frame, checking that [`crate::transport::verify_frame`]
//!   rejects it, and flipping the bit back — the flip is an involution,
//!   so no receiver ever needs a frame copy.
//! * **Error feedback** — per-edge compression of the link residual
//!   against a per-link replica (every edge's payload is unique).

use crate::error::EngineError;
use crate::eval::{evaluate_model, fixed_subsample, EVAL_CHUNK};
use crate::metrics::EvalStats;
use crate::node::Node;
use crate::transport::{
    corrupt_frame_in_place, decode_frame, encode_message_into, encode_message_with, rarity_k,
    tier_codec, verify_frame, view_verified_frame, CompressionPolicy, EncodeScratch,
    ErrorFeedbackState, MessageFate, ModelCodec, Payload, PayloadView, TransportKind,
};
use rayon::prelude::*;
use skiptrain_data::Dataset;
use skiptrain_energy::battery::{BatteryPolicy, BatterySetup, BatteryState, ParticipationState};
use skiptrain_energy::comm::CommEnergyModel;
use skiptrain_energy::trace::HarvestTrace;
use skiptrain_energy::EnergyLedger;
use skiptrain_linalg::compress::{
    accumulate_delta, compress_with_feedback_top_k, compress_with_feedback_u16,
    compress_with_feedback_u8, scatter_axpy, sparse_blend_axpy, FeedbackScratch,
};
use skiptrain_nn::sgd::SgdConfig;
use skiptrain_nn::{Sequential, SoftmaxCrossEntropy};
use skiptrain_topology::{Graph, MixingMatrix};
use std::sync::Arc;

/// What a node does in the local-compute phase of a round.
///
/// Every round ends with share + aggregate regardless of the action
/// (Lines 12–13 of Algorithm 2); the action only controls Lines 5–11.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundAction {
    /// Run `E` local SGD steps (a training round for this node).
    Train,
    /// Skip training; share the current model as-is (synchronization).
    SyncOnly,
}

/// Executor configuration.
#[derive(Debug, Clone)]
pub struct SimulationConfig {
    /// Master seed; all node/round randomness derives from it.
    pub seed: u64,
    /// Mini-batch size `|ξ|`.
    pub batch_size: usize,
    /// Local SGD steps per training round `E`.
    pub local_steps: usize,
    /// Optimizer settings (the paper uses plain SGD).
    pub sgd: SgdConfig,
    /// Message transport.
    pub transport: TransportKind,
    /// Per-directed-link codec selection policy for the share phase.
    /// [`CompressionPolicy::Uniform`] reproduces the legacy global-codec
    /// behaviour bit-for-bit (single shared share phase, one byte quote);
    /// the adaptive policies resolve a codec per directed link per round
    /// and charge each link's ledger bytes from the codec it actually
    /// used. Lossy codecs feed their reconstruction into the aggregation
    /// (compression error genuinely propagates through training) and
    /// shrink the per-message bytes the energy ledger charges.
    pub compression: CompressionPolicy,
    /// Consensus stepsize γ ∈ (0, 1] applied after aggregation:
    /// `x^t = x^{t−½} + γ (Σ_j W_ji x_j^{t−½} − x^{t−½})`. `1.0` (the
    /// default) is the paper's plain mixing update and skips the blend
    /// entirely (bit-identical to the pre-γ executor); CHOCO-SGD-style
    /// damped consensus (γ < 1) keeps extreme sparsity stable.
    pub consensus_gamma: f32,
    /// `Some(β)` enables CHOCO-SGD-style error-feedback compression:
    /// every directed link tracks a replica of the sender's model,
    /// compresses the accumulated residual `model − replica` instead of
    /// the raw model, and folds the delivered part back (`β ∈ (0, 1]`,
    /// `1.0` = full error feedback). What the codec failed to deliver
    /// stays in the next residual, so aggressive sparsification stops
    /// starving low-magnitude coordinates. Link-local state — message
    /// bytes and energy charges are unchanged. A no-op for the lossless
    /// [`ModelCodec::DenseF32`] (the residual would stay zero), which
    /// keeps its zero-copy fast path.
    pub feedback_beta: Option<f32>,
    /// Per-receiver replica cap for error feedback: at most this many
    /// in-links per node keep a replica; the stalest link (oldest
    /// delivery) is evicted when a new one would exceed the cap and
    /// restarts cold on its next delivery. Bounds feedback memory at
    /// `nodes × cap` model vectors under time-varying topologies (the
    /// uncapped state grew one replica per distinct directed link,
    /// forever). `None` derives a never-evicting default from the
    /// simulation's graph — `max(max degree,`
    /// [`DEFAULT_REPLICA_CAP`](crate::transport::DEFAULT_REPLICA_CAP)`)`
    /// — since an explicit cap below the in-degree trades residual
    /// memory for feedback quality (links restart cold). Ignored unless
    /// `feedback_beta` is set.
    pub feedback_replica_cap: Option<usize>,
    /// Per-node training energy per round (Wh); empty disables training
    /// energy accounting.
    pub training_energy_wh: Vec<f64>,
    /// Radio energy model for the share/aggregate phase.
    pub comm_energy: CommEnergyModel,
    /// Nominal parameter count for message-size accounting; `None` uses the
    /// actual simulated model size. (The paper's energy traces are defined
    /// for Table 1's |x|, which may exceed the reduced simulation models.)
    pub nominal_params: Option<usize>,
    /// `Some` enables closed-loop battery gating: each round the fleet
    /// recharges from the harvest trace, the policy picks a participation
    /// set from the charge fractions, and non-participants neither train
    /// nor fire edges (the round's effective mixing is masked, so the
    /// per-edge energy accounting and error-feedback replicas see only
    /// the edges that really fired). After the round, every node's actual
    /// ledger spend (training + tx + rx) drains its battery.
    pub battery: Option<BatterySetup>,
}

impl SimulationConfig {
    /// A minimal config for tests: no energy accounting, in-memory
    /// transport.
    pub fn minimal(seed: u64, batch_size: usize, local_steps: usize, lr: f32) -> Self {
        Self {
            seed,
            batch_size,
            local_steps,
            sgd: SgdConfig::plain(lr),
            transport: TransportKind::Memory,
            compression: CompressionPolicy::default(),
            consensus_gamma: 1.0,
            feedback_beta: None,
            feedback_replica_cap: None,
            training_energy_wh: Vec::new(),
            comm_energy: CommEnergyModel::paper_fit(),
            nominal_params: None,
            battery: None,
        }
    }
}

/// The battery feedback loop's engine-side runtime: the evolving charge
/// state plus the reusable per-round buffers the gating path writes into
/// (allocation-free at steady state — charge updates are O(n) per round).
#[derive(Debug, Clone)]
struct BatteryRuntime {
    state: BatteryState,
    trace: HarvestTrace,
    policy: BatteryPolicy,
    /// Per-node policy overrides for heterogeneous fleets (one per node
    /// when set; validated at construction).
    node_policies: Option<Vec<BatteryPolicy>>,
    pstate: ParticipationState,
    /// Last round's participation mask.
    active: Vec<bool>,
    /// Gated actions handed to the phases (non-participants → SyncOnly).
    actions: Vec<RoundAction>,
    /// Participation-masked effective mixing for the round.
    masked: MixingMatrix,
    /// Per-node (training + comm) Wh already drained from the ledger.
    settled_wh: Vec<f64>,
    /// Total node-rounds of participation.
    participations: u64,
    /// Brown-out events: train intents the charge could not cover.
    brownouts: u64,
}

impl BatteryRuntime {
    fn new(setup: BatterySetup, n: usize) -> Self {
        assert_eq!(setup.state.len(), n, "one battery per node required");
        assert_eq!(setup.trace.len(), n, "one harvest stream per node required");
        if let Some(policies) = &setup.node_policies {
            assert_eq!(policies.len(), n, "one policy per node required");
        }
        Self {
            pstate: ParticipationState::new(n),
            active: Vec::with_capacity(n),
            actions: Vec::with_capacity(n),
            masked: MixingMatrix::identity(n),
            settled_wh: vec![0.0; n],
            participations: 0,
            brownouts: 0,
            state: setup.state,
            trace: setup.trace,
            policy: setup.policy,
            node_policies: setup.node_policies,
        }
    }

    /// Pre-round gating: recharge from the harvest trace, decide the
    /// participation set, brown-out nodes that cannot afford their
    /// intended round, then materialize the gated actions and the masked
    /// effective mixing.
    ///
    /// A node that intended to *train* but holds less charge than its
    /// per-round training cost burns its remaining charge (the attempted
    /// partial round is lost work) and drops out; a sync-only intent just
    /// needs nonzero charge to key the radio.
    fn begin_round(
        &mut self,
        round: usize,
        intended: &[RoundAction],
        base: &MixingMatrix,
        training_energy_wh: &[f64],
    ) {
        let n = self.state.len();
        for i in 0..n {
            self.state.recharge(i, self.trace.energy_wh(i, round));
        }
        match &self.node_policies {
            Some(policies) => skiptrain_energy::battery::decide_per_node_into(
                policies,
                &self.state,
                &mut self.pstate,
                &mut self.active,
            ),
            None => self
                .policy
                .decide_into(&self.state, &mut self.pstate, &mut self.active),
        }
        for (i, intent) in intended.iter().enumerate() {
            if !self.active[i] {
                continue;
            }
            match intent {
                RoundAction::Train => {
                    let cost = training_energy_wh.get(i).copied().unwrap_or(0.0);
                    if self.state.charge_wh(i) < cost {
                        self.state.drain_all(i);
                        self.active[i] = false;
                        self.brownouts += 1;
                    }
                }
                RoundAction::SyncOnly => {
                    if self.state.charge_wh(i) <= 0.0 {
                        self.active[i] = false;
                    }
                }
            }
        }
        self.actions.clear();
        self.actions
            .extend(intended.iter().zip(&self.active).map(|(&a, &on)| {
                if on {
                    a
                } else {
                    RoundAction::SyncOnly
                }
            }));
        self.participations += self.active.iter().filter(|&&on| on).count() as u64;
        base.masked_into(&self.active, &mut self.masked);
    }

    /// Post-round drain: debit each node's battery with what the round
    /// actually cost it, read as the delta of the ledger's cumulative
    /// per-node training + comm energy since the last settle.
    fn settle(&mut self, ledger: &EnergyLedger) {
        for i in 0..self.state.len() {
            let total = ledger.node_training_wh(i) + ledger.node_comm_wh(i);
            let delta = total - self.settled_wh[i];
            if delta > 0.0 {
                self.state.drain(i, delta);
            }
            self.settled_wh[i] = total;
        }
    }
}

/// What the share phase produced for the aggregation to read.
enum Shared {
    /// Zero-copy: read half-step models directly (Memory + DenseF32).
    Direct,
    /// One dense (possibly lossily reconstructed) model per sender;
    /// non-senders hold an empty vector and are never read.
    Dense(Vec<Vec<f32>>),
    /// One sparse top-k `(indices, values)` message per sender.
    Sparse(Vec<(Vec<u32>, Vec<f32>)>),
}

/// Per-receiver reusable buffers for the error-feedback share path, which
/// compresses each directed edge separately (the per-link replicas make
/// every link's payload unique). All buffers retain capacity across
/// rounds, keeping the feedback path allocation-free at steady state on
/// the in-memory transport.
#[derive(Debug, Clone, Default)]
struct EdgeScratch {
    /// Residual accumulation scratch (`model − replica`).
    fb: FeedbackScratch,
    /// Top-k payload indices.
    indices: Vec<u32>,
    /// Top-k payload values.
    values: Vec<f32>,
    /// Dense reconstruction (quantized codecs).
    recon: Vec<f32>,
    /// u8 quantization codes.
    codes8: Vec<u8>,
    /// u16 quantization codes.
    codes16: Vec<u16>,
    /// Wire-frame buffer (serialized transport).
    frame: Vec<u8>,
}

/// One encoded payload of a sender for the per-link share path: the wire
/// frame for one codec some on-time out-edge resolved this round.
#[derive(Debug, Clone, Default)]
struct EncodedSlot {
    codec: ModelCodec,
    frame: Vec<u8>,
    /// The frame passed the receive-side verify (always true in memory,
    /// where nothing crosses a wire). Receivers aggregate only verified
    /// frames.
    verified: bool,
}

/// Per-sender stage-1 output of the per-link share path: one
/// [`EncodedSlot`] per (sender, resolved codec) pair. Slots and their
/// frame buffers persist across rounds — only the first `live` are
/// current — so steady-state rounds allocate nothing.
#[derive(Debug, Clone, Default)]
struct SenderFrames {
    slots: Vec<EncodedSlot>,
    live: usize,
    /// Top-k selection scratch for this sender's encodes.
    scratch: EncodeScratch,
}

impl SenderFrames {
    /// Marks `codec` as needed this round (idempotent) for a model of
    /// `params` parameters. The frame and the encode scratch are sized
    /// here, on the serial need scan, so the parallel encodes never grow
    /// a buffer — no allocation lands in a worker thread's heap.
    fn need(&mut self, codec: ModelCodec, params: usize) {
        if self.slots[..self.live].iter().any(|s| s.codec == codec) {
            return;
        }
        if self.live == self.slots.len() {
            self.slots.push(EncodedSlot::default());
        }
        let slot = &mut self.slots[self.live];
        slot.codec = codec;
        slot.frame.clear();
        slot.frame.reserve(codec.message_bytes(params) as usize);
        self.scratch.reserve_for(codec, params);
        self.live += 1;
    }

    fn slot_mut(&mut self, codec: ModelCodec) -> Option<&mut EncodedSlot> {
        self.slots[..self.live]
            .iter_mut()
            .find(|s| s.codec == codec)
    }

    /// The verified payload this sender encoded under `codec` this round.
    fn payload(&self, codec: ModelCodec) -> Option<PayloadView<'_>> {
        let slot = self.slots[..self.live]
            .iter()
            .find(|s| s.codec == codec && s.verified)?;
        view_verified_frame(&slot.frame).ok().map(|v| v.payload)
    }
}

/// Collects per-sender payloads into the codec's aggregation shape.
/// `None` entries are non-senders (no off-diagonal mixing weight anywhere).
fn pack_payloads(codec: ModelCodec, payloads: Vec<Option<Payload>>) -> Shared {
    match codec {
        ModelCodec::TopK { .. } => Shared::Sparse(
            payloads
                .into_iter()
                .map(|p| match p {
                    Some(Payload::Sparse { indices, values }) => (indices, values),
                    None => (Vec::new(), Vec::new()),
                    // lint:allow(no_panic, "codec/payload correspondence is fixed by ModelCodec::transform")
                    Some(Payload::Dense(_)) => unreachable!("top-k codec produced dense payload"),
                })
                .collect(),
        ),
        _ => Shared::Dense(
            payloads
                .into_iter()
                .map(|p| match p {
                    Some(Payload::Dense(model)) => model,
                    None => Vec::new(),
                    Some(Payload::Sparse { .. }) => {
                        // lint:allow(no_panic, "codec/payload correspondence is fixed by ModelCodec::transform")
                        unreachable!("dense codec produced sparse payload")
                    }
                })
                .collect(),
        ),
    }
}

/// The synchronous decentralized simulation: nodes, their model replicas as
/// flat parameter vectors, the mixing topology, and the energy ledger.
pub struct Simulation {
    config: SimulationConfig,
    nodes: Vec<Node>,
    graph: Graph,
    mixing: MixingMatrix,
    /// Committed models `x^t`, one flat vector per node.
    params: Vec<Vec<f32>>,
    /// Half-step models `x^{t−½}` produced by the local-compute phase.
    half: Vec<Vec<f32>>,
    /// Aggregation output buffers (swapped into `params` at round end).
    next: Vec<Vec<f32>>,
    ledger: EnergyLedger,
    round: usize,
    param_count: usize,
    loss_fn: SoftmaxCrossEntropy,
    /// Mean training loss over the training nodes of the last round.
    last_train_loss: Option<f32>,
    /// Reusable phase-2 sender bitmap (who appears off-diagonal anywhere).
    sender_flags: Vec<bool>,
    /// Reusable per-node wire-frame buffers for the serialized transport.
    encode_scratch: Vec<Vec<u8>>,
    /// Reusable per-node phase-3 neighbor-index scratch.
    agg_indices: Vec<Vec<u32>>,
    /// Reusable per-node phase-3 mixing-weight scratch.
    agg_weights: Vec<Vec<f32>>,
    /// Reusable mean-model buffer for [`Simulation::evaluate_mean_model`].
    mean_scratch: Vec<f32>,
    /// Per-directed-link error-feedback replicas, when enabled.
    feedback: Option<ErrorFeedbackState>,
    /// Per-receiver reusable buffers for the per-edge feedback share path.
    edge_scratch: Vec<EdgeScratch>,
    /// Per-sender encoded payloads for the per-link share path.
    sender_frames: Vec<SenderFrames>,
    /// Closed-loop battery gating runtime, when configured.
    battery: Option<BatteryRuntime>,
    /// Sorted directed edges whose message missed the current round's
    /// deadline (set by [`Simulation::try_run_round_event`], empty
    /// otherwise). A late edge is treated exactly like a transport drop:
    /// tx charged, no rx, weight folds to self, feedback replicas hold.
    late_edges: Vec<(u32, u32)>,
    /// Virtual round-end tick supplied by the event engine for the round
    /// in flight; stamps the ledger's per-round close.
    virtual_round_end: Option<u64>,
    /// Cumulative count of on-time messages the transport corrupted (each
    /// rejected by the receive-side checksum and degraded to a drop).
    corrupted_frames: u64,
    /// Per-receiver codecs resolved for the current round, aligned
    /// position-for-position with each receiver's mixing row (diagonal
    /// entries hold a placeholder and are never read). Filled by
    /// [`Simulation::resolve_link_codecs`] on every adaptive-policy round
    /// and read by both the share phase and the energy accounting, so the
    /// bytes charged always match the codec a link actually used. Empty
    /// under [`CompressionPolicy::Uniform`].
    round_codecs: Vec<Vec<ModelCodec>>,
    /// Per-receiver `(sender, fires)` counters, sorted by sender, for
    /// [`CompressionPolicy::RarityAdaptive`]: how many rounds each
    /// directed link has been on the effective mixing so far (including
    /// the current round — counts bump before resolution).
    link_fires: Vec<Vec<(u32, u64)>>,
    /// Per-node battery charge fraction snapshot taken after the round's
    /// recharge (1.0 everywhere without battery gating), read by
    /// [`CompressionPolicy::EnergyAdaptive`] resolution.
    charge_fractions: Vec<f64>,
    /// [`CompressionPolicy::PerLink`] table lowered to a binary-searchable
    /// form at construction: `(src << 32 | dst, codec)`, sorted by key.
    link_table: Vec<(u64, ModelCodec)>,
    /// Per-node local-loss slots for phase 1 (`None` for sync-only
    /// nodes), reused every round so the compute phase stays
    /// allocation-free.
    loss_scratch: Vec<Option<f32>>,
}

/// Directed-link key for the lowered per-link codec table.
#[inline]
fn link_key(src: u32, dst: u32) -> u64 {
    (src as u64) << 32 | dst as u64
}

/// True unless the event layer marked directed edge `src → dst` late this
/// round. `late` is sorted; the empty fast path covers every non-event
/// round.
#[inline]
fn edge_on_time(late: &[(u32, u32)], src: usize, dst: usize) -> bool {
    late.is_empty() || late.binary_search(&(src as u32, dst as u32)).is_err()
}

impl Simulation {
    /// Builds a simulation from owned per-node datasets.
    ///
    /// `models` and `datasets` must have one entry per topology node, and
    /// all models must share one architecture (identical parameter counts).
    ///
    /// # Panics
    /// Panics on any arity or shape mismatch.
    pub fn new(
        models: Vec<Sequential>,
        datasets: Vec<Dataset>,
        graph: Graph,
        mixing: MixingMatrix,
        config: SimulationConfig,
    ) -> Self {
        Self::with_shared_data(
            models,
            datasets.into_iter().map(Arc::new).collect(),
            graph,
            mixing,
            config,
        )
    }

    /// Builds a simulation over `Arc`-shared per-node datasets — the
    /// zero-copy path campaigns use to run many experiments against one
    /// materialized data bundle.
    ///
    /// # Panics
    /// Panics on any arity or shape mismatch (see [`Simulation::new`]).
    pub fn with_shared_data(
        models: Vec<Sequential>,
        datasets: Vec<Arc<Dataset>>,
        graph: Graph,
        mixing: MixingMatrix,
        config: SimulationConfig,
    ) -> Self {
        let n = graph.len();
        assert!(n > 0, "empty topology");
        assert_eq!(models.len(), n, "one model per node required");
        assert_eq!(datasets.len(), n, "one dataset per node required");
        assert_eq!(mixing.len(), n, "mixing matrix size mismatch");
        if !config.training_energy_wh.is_empty() {
            assert_eq!(
                config.training_energy_wh.len(),
                n,
                "per-node energy size mismatch"
            );
        }
        let param_count = models[0].param_count();
        assert!(
            models.iter().all(|m| m.param_count() == param_count),
            "all nodes must share one architecture"
        );
        let num_classes = models[0].output_dim();

        let params: Vec<Vec<f32>> = models.iter().map(|m| m.flat_params()).collect();
        let half = params.clone();
        let next = params.clone();
        let nodes: Vec<Node> = models
            .into_iter()
            .zip(datasets)
            .enumerate()
            .map(|(i, (model, data))| {
                Node::new(i, model, data, config.batch_size, config.sgd, config.seed)
            })
            .collect();

        // The unset default never evicts on this simulation's own graph
        // (lazy allocation already bounds replicas at the actual link
        // census there); only an explicit sub-degree cap trades residual
        // memory for cold restarts.
        let feedback = config.feedback_beta.map(|beta| {
            let cap = config.feedback_replica_cap.unwrap_or_else(|| {
                graph
                    .degree_range()
                    .1
                    .max(crate::transport::DEFAULT_REPLICA_CAP)
            });
            ErrorFeedbackState::with_cap(n, beta, cap)
        });

        let battery = config
            .battery
            .clone()
            .map(|setup| BatteryRuntime::new(setup, n));

        let link_table = match &config.compression {
            CompressionPolicy::PerLink { links, .. } => {
                let mut table: Vec<(u64, ModelCodec)> = links
                    .iter()
                    .map(|l| (link_key(l.src, l.dst), l.codec))
                    .collect();
                table.sort_by_key(|&(k, _)| k);
                table
            }
            _ => Vec::new(),
        };

        Self {
            battery,
            nodes,
            graph,
            mixing,
            params,
            half,
            next,
            ledger: EnergyLedger::new(n),
            round: 0,
            param_count,
            loss_fn: SoftmaxCrossEntropy::new(num_classes),
            last_train_loss: None,
            sender_flags: vec![false; n],
            encode_scratch: vec![Vec::new(); n],
            // pre-sized to the hard bound (a mixing row holds at most n
            // entries): time-varying graphs hit fresh degree maxima mid-
            // campaign, and a growth realloc there would break the pinned
            // zero-allocation round loop
            agg_indices: (0..n).map(|_| Vec::with_capacity(n)).collect(),
            agg_weights: (0..n).map(|_| Vec::with_capacity(n)).collect(),
            mean_scratch: Vec::new(),
            feedback,
            edge_scratch: vec![EdgeScratch::default(); n],
            sender_frames: vec![SenderFrames::default(); n],
            late_edges: Vec::new(),
            virtual_round_end: None,
            corrupted_frames: 0,
            round_codecs: vec![Vec::new(); n],
            link_fires: vec![Vec::new(); n],
            charge_fractions: vec![1.0; n],
            link_table,
            loss_scratch: vec![None; n],
            config,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True for a zero-node simulation (not constructible).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Rounds executed so far.
    pub fn round(&self) -> usize {
        self.round
    }

    /// Flat parameter count of the shared architecture.
    pub fn param_count(&self) -> usize {
        self.param_count
    }

    /// The communication topology.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Mutable configuration access (crate-internal: tests tweak energy
    /// accounting mid-run).
    #[cfg(test)]
    pub(crate) fn config_mut(&mut self) -> &mut SimulationConfig {
        &mut self.config
    }

    /// The energy ledger.
    pub fn ledger(&self) -> &EnergyLedger {
        &self.ledger
    }

    /// Cumulative count of on-time messages the transport corrupted so
    /// far. Every counted frame failed the receive-side checksum verify
    /// and was degraded to a drop (tx charged, no rx, mixing weight folded
    /// back to self).
    pub fn corrupted_frames(&self) -> u64 {
        self.corrupted_frames
    }

    /// The per-link error-feedback state, when feedback is enabled.
    pub fn feedback(&self) -> Option<&ErrorFeedbackState> {
        self.feedback.as_ref()
    }

    /// The per-node battery charge state, when battery gating is
    /// configured.
    pub fn battery_state(&self) -> Option<&BatteryState> {
        self.battery.as_ref().map(|b| &b.state)
    }

    /// The last gated round's participation mask (empty before the first
    /// round), when battery gating is configured.
    pub fn battery_active(&self) -> Option<&[bool]> {
        self.battery.as_ref().map(|b| &b.active[..])
    }

    /// Total node-rounds of participation under battery gating.
    pub fn battery_participations(&self) -> Option<u64> {
        self.battery.as_ref().map(|b| b.participations)
    }

    /// Brown-out events so far: rounds a node entered intending to train
    /// with less charge than its training cost, losing its remaining
    /// charge to the aborted attempt.
    pub fn battery_brownouts(&self) -> Option<u64> {
        self.battery.as_ref().map(|b| b.brownouts)
    }

    /// Current committed model of `node`.
    pub fn node_params(&self, node: usize) -> &[f32] {
        &self.params[node]
    }

    /// Overwrites the committed model of `node` (tests, warm starts).
    pub fn set_node_params(&mut self, node: usize, params: &[f32]) {
        assert_eq!(params.len(), self.param_count, "parameter length mismatch");
        self.params[node].copy_from_slice(params);
    }

    /// Mean training loss over training nodes in the last round.
    pub fn last_train_loss(&self) -> Option<f32> {
        self.last_train_loss
    }

    /// Element-wise mean of all node models.
    pub fn mean_params(&self) -> Vec<f32> {
        let mut mean = Vec::new();
        self.mean_params_into(&mut mean);
        mean
    }

    /// Accumulates the element-wise mean of all node models into `out`
    /// (resized to the parameter count) — the allocation-free form
    /// behind [`Simulation::mean_params`] and the reusable mean buffer of
    /// [`Simulation::evaluate_mean_model`].
    fn mean_params_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.resize(self.param_count, 0.0);
        let scale = 1.0 / self.len() as f32;
        for p in &self.params {
            skiptrain_linalg::ops::axpy(scale, p, out);
        }
    }

    /// Mean squared distance of node models to the mean model, normalized by
    /// the parameter count — the consensus-disagreement metric.
    pub fn disagreement(&self) -> f64 {
        let mean = self.mean_params();
        let mut acc = 0.0f64;
        for p in &self.params {
            acc += skiptrain_linalg::ops::squared_distance(p, &mean) as f64;
        }
        acc / (self.len() as f64 * self.param_count as f64)
    }

    /// Executes one synchronous round: local compute per `actions`, then
    /// share + aggregate, then energy accounting.
    ///
    /// # Panics
    /// Panics if `actions.len() != self.len()`; see
    /// [`Simulation::try_run_round`] for the typed-error form.
    pub fn run_round(&mut self, actions: &[RoundAction]) {
        self.try_run_round(actions)
            // lint:allow(no_panic, "documented '# Panics' contract; try_run_round is the typed-error form")
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fallible form of [`Simulation::run_round`]: a mismatched action
    /// slice is an [`EngineError`] instead of a panic.
    pub fn try_run_round(&mut self, actions: &[RoundAction]) -> Result<(), EngineError> {
        self.try_run_round_inner(actions, None)
    }

    /// Executes one round aggregating with an externally supplied mixing
    /// matrix instead of the topology's — the hook for time-varying
    /// topologies and asynchronous pairwise gossip (§5.3 of the paper).
    ///
    /// # Panics
    /// Panics if `actions.len() != self.len()` or the matrix size
    /// differs; see [`Simulation::try_run_round_with_mixing`] for the
    /// typed-error form campaign drivers use (one bad scheduled graph
    /// fails one cell, not the process).
    pub fn run_round_with_mixing(&mut self, actions: &[RoundAction], mixing: &MixingMatrix) {
        self.try_run_round_with_mixing(actions, mixing)
            // lint:allow(no_panic, "documented '# Panics' contract; try_run_round_with_mixing is the typed-error form")
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fallible form of [`Simulation::run_round_with_mixing`].
    pub fn try_run_round_with_mixing(
        &mut self,
        actions: &[RoundAction],
        mixing: &MixingMatrix,
    ) -> Result<(), EngineError> {
        if mixing.len() != self.len() {
            return Err(EngineError::MixingSizeMismatch {
                expected: self.len(),
                got: mixing.len(),
            });
        }
        self.try_run_round_inner(actions, Some(mixing))
    }

    /// Executes one round through the discrete-event core: `engine` plays
    /// the round's timeline (churn draws, per-node compute completions,
    /// per-edge arrivals, deadline classification) and this method runs
    /// the data phases over what actually happened.
    ///
    /// When every node is present and no message missed its deadline —
    /// always the case under barrier semantics, and under deadline
    /// semantics at zero latency — the round takes the *identical* code
    /// path as [`Simulation::try_run_round_with_mixing`], so results are
    /// bit-for-bit equal to the lockstep loop; only the ledger's virtual
    /// round-end stamps differ. Otherwise absent nodes are demoted to
    /// [`RoundAction::SyncOnly`] with their mixing rows masked to
    /// identity (zero tx/rx, training skipped — ledger conservation is
    /// exact through churn), and late edges are treated as drops.
    ///
    /// Battery gating composes: the presence mask is applied first, then
    /// the battery's participation mask on top.
    pub fn try_run_round_event(
        &mut self,
        actions: &[RoundAction],
        mixing_override: Option<&MixingMatrix>,
        engine: &mut crate::events::EventEngine,
    ) -> Result<(), EngineError> {
        if engine.len() != self.len() {
            return Err(EngineError::EventEngineSizeMismatch {
                expected: self.len(),
                got: engine.len(),
            });
        }
        if actions.len() != self.len() {
            return Err(EngineError::ActionArityMismatch {
                expected: self.len(),
                got: actions.len(),
            });
        }
        if let Some(m) = mixing_override {
            if m.len() != self.len() {
                return Err(EngineError::MixingSizeMismatch {
                    expected: self.len(),
                    got: m.len(),
                });
            }
        }
        let mixing = mixing_override.unwrap_or(&self.mixing);
        engine.begin_round(self.round, actions, mixing);
        self.virtual_round_end = Some(engine.now());
        let result = if engine.all_present() && engine.late_edges().is_empty() {
            self.try_run_round_inner(actions, mixing_override)
        } else {
            engine.compose_gating(actions, mixing);
            self.late_edges.clear();
            self.late_edges.extend_from_slice(engine.late_edges());
            let result = self.try_run_round_inner(&engine.gated, Some(&engine.masked));
            self.late_edges.clear();
            result
        };
        self.virtual_round_end = None;
        result
    }

    fn try_run_round_inner(
        &mut self,
        actions: &[RoundAction],
        mixing_override: Option<&MixingMatrix>,
    ) -> Result<(), EngineError> {
        if actions.len() != self.len() {
            return Err(EngineError::ActionArityMismatch {
                expected: self.len(),
                got: actions.len(),
            });
        }
        if self.battery.is_none() {
            return self.run_round_phases(actions, mixing_override);
        }

        // Battery gating, factored once for every execution path (static
        // runner, scheduled topologies, async gossip — they all land
        // here): recharge → decide → brown-out → run the round over the
        // gated actions and the participation-masked effective mixing →
        // drain each node's actual ledger spend. The runtime is taken out
        // of `self` so its buffers can be borrowed across the `&mut self`
        // phase call; the mask flows through the same `mixing_override`
        // slot schedules use, which is what keeps comm energy byte-
        // accurate and error-feedback replicas advancing only on edges
        // that really fired.
        // lint:allow(no_panic, "provably infallible: this branch is only entered when battery.is_some() was checked above")
        let mut battery = self.battery.take().expect("battery gating checked above");
        battery.begin_round(
            self.round,
            actions,
            mixing_override.unwrap_or(&self.mixing),
            &self.config.training_energy_wh,
        );
        // Snapshot post-recharge charge fractions for energy-adaptive
        // codec resolution: the sender's level *at send time*, before the
        // round's own spend drains it.
        if !self.config.compression.is_uniform() {
            for (i, frac) in self.charge_fractions.iter_mut().enumerate() {
                *frac = battery.state.charge_fraction(i);
            }
        }
        let result = self.run_round_phases(&battery.actions, Some(&battery.masked));
        if result.is_ok() {
            battery.settle(&self.ledger);
        }
        self.battery = Some(battery);
        result
    }

    /// The four round phases (local compute, share, aggregate, energy
    /// accounting) over an already-gated action slice and effective
    /// mixing.
    fn run_round_phases(
        &mut self,
        actions: &[RoundAction],
        mixing_override: Option<&MixingMatrix>,
    ) -> Result<(), EngineError> {
        debug_assert_eq!(actions.len(), self.len());
        let local_steps = self.config.local_steps;

        // Phase 1: local compute (parallel over nodes), writing each
        // node's local loss into a reusable slot — no per-round
        // collection.
        let params = &self.params;
        self.nodes
            .par_iter_mut()
            .zip(self.half.par_iter_mut())
            .zip(self.loss_scratch.par_iter_mut())
            .zip(params.par_iter())
            .zip(actions.par_iter())
            .for_each(
                |((((node, half_i), loss_i), params_i), action)| match action {
                    RoundAction::Train => {
                        *loss_i = Some(node.train_local(params_i, local_steps, half_i));
                    }
                    RoundAction::SyncOnly => {
                        half_i.clear();
                        half_i.extend_from_slice(params_i);
                        *loss_i = None;
                    }
                },
            );
        let (loss_sum, trained) = self
            .loss_scratch
            .iter()
            .flatten()
            .fold((0.0f32, 0u32), |(s, c), &l| (s + l, c + 1));
        self.last_train_loss = (trained > 0).then(|| loss_sum / trained as f32);

        // The effective mixing for this round decides who talks to whom:
        // a pairwise-matching override replaces the static topology for
        // both aggregation *and* energy accounting.
        let mixing = mixing_override.unwrap_or(&self.mixing);
        let n = self.len();

        // Adaptive (non-uniform) compression policies resolve a codec per
        // directed link per round, then share/aggregate per edge — the
        // per-link payloads make a shared per-sender share phase
        // impossible. The uniform path below is untouched (bit-identical
        // to the pre-policy executor).
        let Some(codec) = self.config.compression.uniform() else {
            self.resolve_link_codecs(mixing_override);
            if self.feedback.is_some() {
                self.share_aggregate_with_feedback(mixing_override, None);
            } else {
                self.share_aggregate_per_link(mixing_override);
            }
            self.apply_consensus_gamma();
            std::mem::swap(&mut self.params, &mut self.next);
            self.account_energy(actions, mixing_override);
            self.round += 1;
            return Ok(());
        };

        // Effective senders: nodes appearing off-diagonal in any row.
        // Computed into a reusable bitmap, and only on the paths that
        // materialize payloads — the Memory + DenseF32 fast path never
        // reads it, and the error-feedback path compresses per directed
        // edge instead of per sender.
        let feedback_on = codec != ModelCodec::DenseF32 && self.feedback.is_some();
        let needs_sender_flags = !feedback_on
            && (!matches!(self.config.transport, TransportKind::Memory)
                || codec != ModelCodec::DenseF32);
        if needs_sender_flags {
            let flags = &mut self.sender_flags;
            flags.fill(false);
            for i in 0..n {
                for &(j, _) in mixing.row(i) {
                    if j as usize != i {
                        flags[j as usize] = true;
                    }
                }
            }
        }

        if feedback_on {
            self.share_aggregate_with_feedback(mixing_override, Some(codec));
            self.apply_consensus_gamma();
            std::mem::swap(&mut self.params, &mut self.next);
            self.account_energy(actions, mixing_override);
            self.round += 1;
            return Ok(());
        }

        // Phase 2: share. The serialized transport actually encodes/decodes
        // every sender's model (into per-node reusable frame buffers) and
        // may drop messages; the in-memory transport reads half-step models
        // directly (applying the codec's lossy transform when one is
        // configured — bit-identical to the wire round trip).
        let shared: Shared = match (self.config.transport, codec) {
            (TransportKind::Memory, ModelCodec::DenseF32) => Shared::Direct,
            (TransportKind::Memory, _) => {
                let is_sender = &self.sender_flags;
                pack_payloads(
                    codec,
                    self.half
                        .par_iter()
                        .enumerate()
                        .map(|(j, model)| is_sender[j].then(|| codec.transform(model)))
                        .collect(),
                )
            }
            (TransportKind::Serialized { .. }, _) => {
                let is_sender = &self.sender_flags;
                let round = self.round as u32;
                pack_payloads(
                    codec,
                    self.half
                        .par_iter()
                        .zip(self.encode_scratch.par_iter_mut())
                        .enumerate()
                        .map(|(j, (model, frame))| {
                            is_sender[j].then(|| {
                                encode_message_into(codec, j as u32, round, model, frame);
                                decode_frame(frame)
                                    // lint:allow(no_panic, "frame was written by encode_message_into on the line above; a fresh in-process frame always decodes")
                                    .expect("in-process frame must decode")
                                    .payload
                            })
                        })
                        .collect(),
                )
            }
        };

        // Phase 3: aggregate x^t = Σ_j W_ji x_j^{t−½} (parallel over nodes),
        // renormalizing dropped neighbors into the self weight. Sparse
        // (top-k) messages use masked aggregation: coordinates the sender
        // did not transmit fall back to the receiver's own value, so the
        // row stays stochastic per coordinate. The dense paths aggregate
        // through per-node reusable (index, weight) scratch and the
        // indexed weighted-sum kernel — no allocation per node per round.
        let half = &self.half;
        let transport = self.config.transport;
        let seed = self.config.seed;
        let round = self.round;
        let late = &self.late_edges;
        self.next
            .par_iter_mut()
            .zip(self.agg_indices.par_iter_mut())
            .zip(self.agg_weights.par_iter_mut())
            .enumerate()
            .for_each(|(i, ((out, indices), weights))| {
                let row = mixing.row(i);
                match &shared {
                    Shared::Sparse(msgs) => {
                        let base: &[f32] = &half[i];
                        let row_sum: f32 = row.iter().map(|&(_, w)| w).sum();
                        skiptrain_linalg::ops::scaled_copy(row_sum, base, out);
                        for &(j, w) in row {
                            let j = j as usize;
                            if j != i
                                && transport.delivered(seed, round, j, i)
                                && edge_on_time(late, j, i)
                            {
                                let (indices, values) = &msgs[j];
                                sparse_blend_axpy(out, base, indices, values, w);
                            }
                            // dropped neighbor weight is already on `base`
                        }
                    }
                    dense => {
                        let fetch = |j: u32| -> &[f32] {
                            let j = j as usize;
                            if j == i {
                                return &half[i];
                            }
                            match dense {
                                Shared::Direct => &half[j],
                                Shared::Dense(models) => &models[j],
                                // lint:allow(no_panic, "the sparse case returned from this closure earlier")
                                Shared::Sparse(_) => unreachable!("sparse handled above"),
                            }
                        };
                        indices.clear();
                        weights.clear();
                        let mut dropped_weight = 0.0f32;
                        let mut self_pos = usize::MAX;
                        for &(j, w) in row {
                            if j as usize == i {
                                self_pos = indices.len();
                                indices.push(j);
                                weights.push(w);
                            } else if transport.delivered(seed, round, j as usize, i)
                                && edge_on_time(late, j as usize, i)
                            {
                                indices.push(j);
                                weights.push(w);
                            } else {
                                dropped_weight += w;
                            }
                        }
                        // Fold dropped-neighbor weight back into the self
                        // weight; a row carrying no explicit self entry gets
                        // one appended instead of indexing out of bounds.
                        if self_pos != usize::MAX {
                            weights[self_pos] += dropped_weight;
                        } else if dropped_weight > 0.0 {
                            indices.push(i as u32);
                            weights.push(dropped_weight);
                        }
                        skiptrain_linalg::ops::weighted_sum_indexed_into(
                            out, indices, weights, fetch,
                        );
                    }
                }
            });
        self.apply_consensus_gamma();
        std::mem::swap(&mut self.params, &mut self.next);

        // Phase 4: energy accounting over the edges that actually fired.
        self.account_energy(actions, mixing_override);
        self.round += 1;
        Ok(())
    }

    /// Resolves this round's per-link codec table for the active adaptive
    /// policy: one entry per mixing-row position per receiver, aligned so
    /// the share phase and the energy accounting read the *same* codec
    /// for every directed edge (diagonal positions hold a never-read
    /// placeholder). Also advances the rarity fire counters — counts bump
    /// *before* resolution, so an always-on link resolves `base_k` and a
    /// first-contact link on round `r` gets the full `r`× boost.
    fn resolve_link_codecs(&mut self, mixing_override: Option<&MixingMatrix>) {
        let mixing = mixing_override.unwrap_or(&self.mixing);
        let round_codecs = &mut self.round_codecs;
        let link_fires = &mut self.link_fires;
        let charge = &self.charge_fractions;
        let link_table = &self.link_table;
        let elapsed = self.round as u64 + 1;
        for i in 0..mixing.len() {
            let row = mixing.row(i);
            let out = &mut round_codecs[i];
            out.clear();
            match &self.config.compression {
                CompressionPolicy::Uniform(c) => {
                    // Reachable only if a caller resolves eagerly; the
                    // round loop short-circuits uniform policies.
                    out.extend(row.iter().map(|_| *c));
                }
                CompressionPolicy::PerLink { default, .. } => {
                    out.extend(row.iter().map(|&(j, _)| {
                        if j as usize == i {
                            return ModelCodec::DenseF32;
                        }
                        match link_table
                            .binary_search_by_key(&link_key(j, i as u32), |&(key, _)| key)
                        {
                            Ok(pos) => link_table[pos].1,
                            Err(_) => *default,
                        }
                    }));
                }
                CompressionPolicy::RarityAdaptive { base_k, max_k } => {
                    let fires = &mut link_fires[i];
                    out.extend(row.iter().map(|&(j, _)| {
                        if j as usize == i {
                            return ModelCodec::DenseF32;
                        }
                        let f = match fires.binary_search_by_key(&j, |&(s, _)| s) {
                            Ok(pos) => {
                                fires[pos].1 += 1;
                                fires[pos].1
                            }
                            Err(pos) => {
                                fires.insert(pos, (j, 1));
                                1
                            }
                        };
                        ModelCodec::TopK {
                            k: rarity_k(*base_k, *max_k, elapsed, f),
                        }
                    }));
                }
                CompressionPolicy::EnergyAdaptive { tiers } => {
                    out.extend(row.iter().map(|&(j, _)| {
                        if j as usize == i {
                            return ModelCodec::DenseF32;
                        }
                        tier_codec(tiers, charge[j as usize])
                    }));
                }
            }
        }
    }

    /// Applies the consensus stepsize after aggregation, in place on the
    /// `next` buffers: `x^t = x^{t−½} + γ (x_mixed − x^{t−½})`. γ = 1
    /// (the default) skips entirely, keeping the plain mixing update
    /// bit-identical to the pre-γ executor.
    fn apply_consensus_gamma(&mut self) {
        let gamma = self.config.consensus_gamma;
        if gamma == 1.0 {
            return;
        }
        let half = &self.half;
        self.next
            .par_iter_mut()
            .zip(half.par_iter())
            .for_each(|(out, base)| {
                for (o, &b) in out.iter_mut().zip(base.iter()) {
                    *o = b + gamma * (*o - b);
                }
            });
    }

    /// Share + aggregate for adaptive (non-uniform) compression policies
    /// without error feedback, as a two-stage pipeline.
    ///
    /// Every out-edge of a sender that resolved the same codec carries
    /// the same bytes (under DEAL tiers the codec depends on the sender's
    /// charge alone), so the payload is produced once per (sender, codec)
    /// pair instead of once per edge:
    ///
    /// 0. *Need scan* (serial): walk the effective mixing and mark each
    ///    (sender, resolved codec) pair some on-time, non-dropped edge
    ///    needs — delivered edges to aggregate it, corrupted ones to prove
    ///    the checksum reject. A sender may need several codecs (per-link
    ///    tables, rarity-scaled top-k). In memory, dense links read the
    ///    sender's model in place and need nothing.
    /// 1. *Encode* (sender-parallel): encode each marked pair once into
    ///    the sender's reusable frame slot — quantized codes and top-k
    ///    pairs are written straight into the frame. On the serialized
    ///    transport each frame then passes the receive-side
    ///    [`verify_frame`] once (checksum, lengths, top-k index order),
    ///    materializing nothing.
    /// 2. *Aggregate* (receiver-parallel): each row is summed straight
    ///    from the slots through [`PayloadView::blend_axpy`] — dense
    ///    words, dequantized codes, or the masked top-k blend — in the
    ///    fixed order zero, row-order contributions, self weight last.
    ///    Every element sees the same operations as decode-then-`axpy`,
    ///    so results are bit-identical to a per-edge encode/decode round
    ///    trip, and no decoded model copy exists.
    ///
    /// A top-k edge's untransmitted coordinates and every dropped, late,
    /// or corrupted edge fall back onto the receiver's own half-step
    /// model, exactly like the uniform paths. Corrupted edges are proven
    /// (and counted) in [`Simulation::account_energy`] by flipping the
    /// seeded bit on the sender's own frame, verifying the reject, and
    /// flipping it back.
    fn share_aggregate_per_link(&mut self, mixing_override: Option<&MixingMatrix>) {
        let mixing = mixing_override.unwrap_or(&self.mixing);
        let half = &self.half;
        let round_codecs = &self.round_codecs;
        let transport = self.config.transport;
        let serialized = !matches!(transport, TransportKind::Memory);
        let seed = self.config.seed;
        let round = self.round;
        let round_u32 = self.round as u32;
        let late = &self.late_edges;
        let params = self.param_count;

        // Stage 0: need scan.
        let sender_frames = &mut self.sender_frames;
        for frames in sender_frames.iter_mut() {
            frames.live = 0;
        }
        for (i, codecs) in round_codecs.iter().enumerate().take(mixing.len()) {
            for (&(j, _), &codec) in mixing.row(i).iter().zip(codecs) {
                let src = j as usize;
                if src == i || (!serialized && codec == ModelCodec::DenseF32) {
                    continue;
                }
                if transport.fate(seed, round, src, i) != MessageFate::Dropped
                    && edge_on_time(late, src, i)
                {
                    sender_frames[src].need(codec, params);
                }
            }
        }

        // Stage 1: encode once per (sender, codec), verify once per frame.
        sender_frames
            .par_iter_mut()
            .zip(half.par_iter())
            .enumerate()
            .for_each(|(j, (frames, model))| {
                let SenderFrames {
                    slots,
                    live,
                    scratch,
                } = frames;
                for slot in &mut slots[..*live] {
                    encode_message_with(
                        slot.codec,
                        j as u32,
                        round_u32,
                        model,
                        &mut slot.frame,
                        scratch,
                    );
                    slot.verified = !serialized || verify_frame(&slot.frame).is_ok();
                    debug_assert!(slot.verified, "a freshly encoded frame must verify");
                }
            });

        // Stage 2: aggregate every row from the slots.
        let sender_frames = &self.sender_frames;
        self.next.par_iter_mut().enumerate().for_each(|(i, out)| {
            let row = mixing.row(i);
            out.fill(0.0);
            // Self weight plus every fallback weight lands on the
            // receiver's own model, applied last in a fixed order for
            // determinism across thread counts.
            let mut self_weight = 0.0f32;
            for (pos, &(j, w)) in row.iter().enumerate() {
                let src = j as usize;
                if src == i
                    || transport.fate(seed, round, src, i) != MessageFate::Delivered
                    || !edge_on_time(late, src, i)
                {
                    self_weight += w;
                    continue;
                }
                let codec = round_codecs[i][pos];
                if !serialized && codec == ModelCodec::DenseF32 {
                    skiptrain_linalg::ops::axpy(w, &half[src], out);
                    continue;
                }
                let payload = sender_frames[src].payload(codec);
                debug_assert!(payload.is_some(), "stage 1 encodes every needed pair");
                match payload {
                    Some(p) => {
                        if p.blend_axpy(w, &half[i], out) {
                            self_weight += w;
                        }
                    }
                    None => self_weight += w,
                }
            }
            skiptrain_linalg::ops::axpy(self_weight, &half[i], out);
        });
    }

    /// Fused share + aggregate for error-feedback compression.
    ///
    /// The per-link replicas make every directed edge's payload unique,
    /// so this path compresses per edge `j → i` instead of per sender:
    /// the receiver-parallel loop walks each node's mixing row and, for
    /// every delivering in-edge, compresses the link residual
    /// `x_j^{t−½} − x̂_{j→i}` (via the in-memory kernels, or a genuine
    /// encode/decode round trip on the serialized transport —
    /// bit-identical by the codec contract), folds the payload back into
    /// the replica, and aggregates the *replica* in place of the raw
    /// neighbor model. A replica's first delivery seeds it with the
    /// receiver's own pre-mixing model, so never-delivered coordinates
    /// fall back to the receiver's values exactly like the plain masked
    /// blend — and to the link's last-delivered estimate afterwards.
    ///
    /// The simulation models an *acknowledged* link: a dropped message
    /// leaves the replica untouched (the sender's view only advances on
    /// delivery) and the edge weight falls back onto the receiver's own
    /// model, exactly like the dense drop path. Energy is unaffected —
    /// transmission attempts are charged in phase 4 regardless. Each
    /// link's replica lives in the receiver's slot of
    /// [`ErrorFeedbackState`], so the parallel loop mutates disjoint
    /// state; everything runs through per-receiver reusable buffers
    /// (allocation-free at steady state on the Memory transport).
    fn share_aggregate_with_feedback(
        &mut self,
        mixing_override: Option<&MixingMatrix>,
        uniform: Option<ModelCodec>,
    ) {
        let mixing = mixing_override.unwrap_or(&self.mixing);
        let round_codecs = &self.round_codecs;
        let fb = self
            .feedback
            .as_mut()
            // lint:allow(no_panic, "provably infallible: callers dispatch here only when feedback state is present")
            .expect("feedback path requires state");
        let beta = fb.beta();
        let cap = fb.cap();
        let half = &self.half;
        let transport = self.config.transport;
        let seed = self.config.seed;
        let round = self.round;
        let round_u32 = self.round as u32;
        let late = &self.late_edges;
        self.next
            .par_iter_mut()
            .zip(fb.incoming_mut().par_iter_mut())
            .zip(self.edge_scratch.par_iter_mut())
            .enumerate()
            .for_each(|(i, ((out, links), scratch))| {
                let row = mixing.row(i);
                out.fill(0.0);
                // self weight plus every dropped neighbor's weight falls
                // back onto the receiver's own model, applied last in a
                // fixed order for determinism
                let mut self_weight = 0.0f32;
                for (pos, &(j, w)) in row.iter().enumerate() {
                    let src = j as usize;
                    if src == i {
                        self_weight += w;
                        continue;
                    }
                    // The legacy uniform codec, or this directed link's
                    // resolved codec under an adaptive policy. Replicas
                    // are codec-agnostic, so a link's codec changing
                    // between firings just changes how much of the
                    // residual the next delivery lands.
                    let codec = uniform.unwrap_or_else(|| round_codecs[i][pos]);
                    let fate = transport.fate(seed, round, src, i);
                    let on_time = edge_on_time(late, src, i);
                    if fate != MessageFate::Delivered || !on_time {
                        // Drops, late arrivals, and corrupted frames all
                        // degrade the same way: the replica holds (the
                        // sender's view only advances on acknowledged
                        // delivery) and the edge weight falls back onto the
                        // receiver's own model. A corrupted frame
                        // additionally proves the receive path: encode this
                        // link's payload, flip the seeded bit, and verify
                        // the checksum rejects it before it is discarded.
                        // (The counter lives in `account_energy`, which
                        // walks the same effective edges serially.)
                        if fate == MessageFate::Corrupted && on_time {
                            encode_message_into(
                                codec,
                                j,
                                round_u32,
                                &half[src],
                                &mut scratch.frame,
                            );
                            corrupt_frame_in_place(&mut scratch.frame, seed, round, src, i);
                            let rejected = decode_frame(&scratch.frame).is_err();
                            debug_assert!(
                                rejected,
                                "corrupted frame must fail the checksum verify"
                            );
                        }
                        self_weight += w;
                        continue;
                    }
                    // Get-or-insert under the replica cap: a cold link
                    // (first contact, or re-established after a staleness
                    // eviction) seeds from the receiver's own pre-mixing
                    // model, so untransmitted coordinates fall back to the
                    // receiver's values exactly like the plain masked blend.
                    let replica = links.replica_mut(j, round as u64, cap, |buf| {
                        buf.clear();
                        buf.extend_from_slice(&half[i]);
                    });
                    if matches!(transport, TransportKind::Memory) {
                        match codec {
                            ModelCodec::TopK { k } => compress_with_feedback_top_k(
                                &half[src],
                                replica,
                                beta,
                                k,
                                &mut scratch.fb,
                                &mut scratch.indices,
                                &mut scratch.values,
                            ),
                            ModelCodec::QuantizedU8 => {
                                compress_with_feedback_u8(
                                    &half[src],
                                    replica,
                                    beta,
                                    &mut scratch.fb,
                                    &mut scratch.codes8,
                                    &mut scratch.recon,
                                );
                            }
                            ModelCodec::QuantizedU16 => {
                                compress_with_feedback_u16(
                                    &half[src],
                                    replica,
                                    beta,
                                    &mut scratch.fb,
                                    &mut scratch.codes16,
                                    &mut scratch.recon,
                                );
                            }
                            ModelCodec::DenseF32 => {
                                // A dense firing lands the replica exactly
                                // on the sender's model (β-damped): the
                                // residual is delivered whole.
                                accumulate_delta(&half[src], replica, &mut scratch.fb.delta);
                                skiptrain_linalg::ops::axpy(beta, &scratch.fb.delta, replica);
                            }
                        }
                    } else {
                        // the wire carries the compressed *delta* under the
                        // unchanged frame layout; both ends advance the
                        // replica from the decoded payload
                        accumulate_delta(&half[src], replica, &mut scratch.fb.delta);
                        encode_message_into(
                            codec,
                            j,
                            round_u32,
                            &scratch.fb.delta,
                            &mut scratch.frame,
                        );
                        // lint:allow(no_panic, "frame was written by encode_message_into on the line above; a fresh in-process frame always decodes")
                        let msg = decode_frame(&scratch.frame).expect("in-process frame decodes");
                        match msg.payload {
                            Payload::Sparse { indices, values } => {
                                scatter_axpy(replica, &indices, &values, beta);
                            }
                            Payload::Dense(recon) => {
                                skiptrain_linalg::ops::axpy(beta, &recon, replica);
                            }
                        }
                    }
                    skiptrain_linalg::ops::axpy(w, replica, out);
                }
                skiptrain_linalg::ops::axpy(self_weight, &half[i], out);
            });
    }

    /// Records this round's energy from per-message events.
    ///
    /// Communication derives from the *effective* edge set — every
    /// off-diagonal entry of the mixing rows actually used this round (the
    /// pairwise override when one was supplied, the static topology
    /// otherwise). Each directed edge `j → i` charges the sender one
    /// transmit event (attempts cost radio energy even when the network
    /// drops the message) and, when delivered, charges the receiver one
    /// receive event. Message bytes come from the wire format of the
    /// codec the compression policy resolved for that directed link this
    /// round — a single quote under [`CompressionPolicy::Uniform`], the
    /// round's `round_codecs` table otherwise — at the nominal parameter
    /// count (top-k scales its kept fraction to the nominal model — see
    /// [`ModelCodec::charged_message_bytes`]).
    fn account_energy(&mut self, actions: &[RoundAction], mixing_override: Option<&MixingMatrix>) {
        let nominal = self.config.nominal_params.unwrap_or(self.param_count);
        let uniform_bytes = self
            .config
            .compression
            .uniform()
            .map(|codec| codec.charged_message_bytes(self.param_count, nominal));
        let comm = self.config.comm_energy;
        for (i, action) in actions.iter().enumerate() {
            if *action == RoundAction::Train {
                if let Some(&e) = self.config.training_energy_wh.get(i) {
                    self.ledger.record_training(i, e);
                }
            }
        }
        let mixing = mixing_override.unwrap_or(&self.mixing);
        let seed = self.config.seed;
        for i in 0..mixing.len() {
            for (pos, &(j, _)) in mixing.row(i).iter().enumerate() {
                let j = j as usize;
                if j == i {
                    continue;
                }
                let msg_bytes = match uniform_bytes {
                    Some(bytes) => bytes,
                    None => {
                        self.round_codecs[i][pos].charged_message_bytes(self.param_count, nominal)
                    }
                };
                self.ledger.record_tx(j, msg_bytes, &comm);
                let on_time = edge_on_time(&self.late_edges, j, i);
                match self.config.transport.fate(seed, self.round, j, i) {
                    MessageFate::Delivered if on_time => {
                        self.ledger.record_rx(i, msg_bytes, &comm);
                    }
                    MessageFate::Corrupted if on_time => {
                        // The frame arrived mangled: prove the receive-side
                        // reject on the sender's real wire bytes, when a
                        // share path left them in place — the uniform
                        // path's per-sender frame, or the per-link path's
                        // slot for this edge's codec — then count it. XOR
                        // is self-inverse, so flipping the seeded bit
                        // twice restores the shared frame in place: no
                        // copy, no allocation.
                        let frame = match uniform_bytes {
                            Some(_) => Some(&mut self.encode_scratch[j]),
                            None => self.sender_frames[j]
                                .slot_mut(self.round_codecs[i][pos])
                                .map(|slot| &mut slot.frame),
                        };
                        let rejected = match frame {
                            Some(frame) if !frame.is_empty() => {
                                corrupt_frame_in_place(frame, seed, self.round, j, i);
                                let rejected = verify_frame(frame).is_err();
                                corrupt_frame_in_place(frame, seed, self.round, j, i);
                                rejected
                            }
                            _ => true,
                        };
                        debug_assert!(rejected, "corrupted frame must fail the checksum verify");
                        self.corrupted_frames += u64::from(rejected);
                    }
                    _ => {}
                }
            }
        }
        match self.virtual_round_end {
            Some(ticks) => self.ledger.end_round_at(ticks),
            None => self.ledger.end_round(),
        }
    }

    /// Evaluates every node's model on (a fixed subsample of) `dataset`,
    /// in parallel. `max_samples = usize::MAX` evaluates the full set.
    pub fn evaluate(&mut self, dataset: &Dataset, max_samples: usize) -> EvalStats {
        let indices = fixed_subsample(dataset.len(), max_samples, self.config.seed);
        let loss_fn = &self.loss_fn;
        let params = &self.params;
        let results: Vec<(f32, f32)> = self
            .nodes
            .par_iter_mut()
            .zip(params.par_iter())
            .map(|(node, p)| {
                node.model_mut().load_params(p);
                evaluate_model(node.model_mut(), loss_fn, dataset, Some(&indices))
            })
            .collect();
        EvalStats::from_node_results(self.round, &results)
    }

    /// Evaluates the *average* of all node models (the Figure-1 all-reduce
    /// curve evaluates this quantity).
    ///
    /// The forward pass is parallelized the same way [`Simulation::evaluate`]
    /// is: the evaluation subsample is split into [`EVAL_CHUNK`]-sized
    /// spans, each loaded onto a different node's model replica (all
    /// replicas get the same mean parameters) and evaluated concurrently.
    /// The mean itself is accumulated into a reusable buffer rather than a
    /// fresh allocation per call.
    pub fn evaluate_mean_model(&mut self, dataset: &Dataset, max_samples: usize) -> (f32, f32) {
        let indices = fixed_subsample(dataset.len(), max_samples, self.config.seed);
        if indices.is_empty() {
            return (0.0, 0.0);
        }
        let mut mean_scratch = std::mem::take(&mut self.mean_scratch);
        self.mean_params_into(&mut mean_scratch);
        self.mean_scratch = mean_scratch;

        // One contiguous index span per participating replica; chunks are
        // at least EVAL_CHUNK samples so small evaluations stay on one
        // replica (one load_params) like before.
        let chunk = EVAL_CHUNK.max(indices.len().div_ceil(self.nodes.len()));
        let spans: Vec<(usize, usize)> = (0..indices.len())
            .step_by(chunk)
            .map(|s| (s, (s + chunk).min(indices.len())))
            .collect();
        let mean = &self.mean_scratch;
        let loss_fn = &self.loss_fn;
        let indices = &indices;
        let results: Vec<(f32, f32, usize)> = self.nodes[..spans.len()]
            .par_iter_mut()
            .zip(spans.par_iter())
            .map(|(node, &(s, e))| {
                node.model_mut().load_params(mean);
                let (acc, loss) =
                    evaluate_model(node.model_mut(), loss_fn, dataset, Some(&indices[s..e]));
                (acc, loss, e - s)
            })
            .collect();

        // Recombine the per-span (accuracy, loss) pairs exactly the way
        // evaluate_model combines its internal chunks: by sample counts.
        let total = indices.len() as f64;
        let mut correct = 0.0f64;
        let mut loss_sum = 0.0f64;
        for (acc, loss, len) in results {
            correct += (acc as f64 * len as f64).round();
            loss_sum += loss as f64 * len as f64;
        }
        ((correct / total) as f32, (loss_sum / total) as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skiptrain_data::synth::{MixtureSpec, MixtureTask};
    use skiptrain_topology::regular::random_regular;

    fn tiny_sim_full(
        n: usize,
        seed: u64,
        transport: TransportKind,
        codec: ModelCodec,
        degree: usize,
    ) -> (Simulation, Dataset) {
        let spec = MixtureSpec {
            num_classes: 4,
            feature_dim: 6,
            modes_per_class: 1,
            separation: 1.6,
            noise: 0.5,
        };
        let task = MixtureTask::new(spec, 99);
        let datasets: Vec<Dataset> = (0..n).map(|i| task.sample(60, 10 + i as u64)).collect();
        let test = task.sample(200, 5000);
        let models: Vec<Sequential> = (0..n)
            .map(|i| skiptrain_nn::zoo::mlp(&[6, 12, 4], seed + i as u64))
            .collect();
        let graph = random_regular(n, degree, seed);
        let mixing = MixingMatrix::metropolis_hastings(&graph);
        let mut config = SimulationConfig::minimal(seed, 8, 2, 0.1);
        config.transport = transport;
        config.compression = CompressionPolicy::Uniform(codec);
        (
            Simulation::new(models, datasets, graph, mixing, config),
            test,
        )
    }

    fn tiny_sim(n: usize, seed: u64, transport: TransportKind) -> (Simulation, Dataset) {
        let d = if n > 4 { 4 } else { n - 1 };
        tiny_sim_full(n, seed, transport, ModelCodec::DenseF32, d)
    }

    fn tiny_sim_feedback(
        n: usize,
        seed: u64,
        transport: TransportKind,
        codec: ModelCodec,
        degree: usize,
        beta: f32,
    ) -> Simulation {
        let (mut sim, _) = tiny_sim_full(n, seed, transport, codec, degree);
        sim.config.feedback_beta = Some(beta);
        // mirror the constructor's unset-cap default: adaptive to the graph
        let cap = sim
            .graph()
            .degree_range()
            .1
            .max(crate::transport::DEFAULT_REPLICA_CAP);
        sim.feedback = Some(ErrorFeedbackState::with_cap(n, beta, cap));
        sim
    }

    #[test]
    fn training_rounds_improve_accuracy() {
        let (mut sim, test) = tiny_sim(8, 1, TransportKind::Memory);
        let before = sim.evaluate(&test, usize::MAX);
        let actions = vec![RoundAction::Train; 8];
        for _ in 0..25 {
            sim.run_round(&actions);
        }
        let after = sim.evaluate(&test, usize::MAX);
        assert!(
            after.mean_accuracy > before.mean_accuracy + 0.2,
            "accuracy {} -> {} did not improve enough",
            before.mean_accuracy,
            after.mean_accuracy
        );
    }

    #[test]
    fn sync_rounds_reduce_disagreement_without_changing_mean() {
        let (mut sim, _) = tiny_sim(8, 2, TransportKind::Memory);
        // diversify models with a few training rounds
        for _ in 0..3 {
            sim.run_round(&[RoundAction::Train; 8]);
        }
        let mean_before = sim.mean_params();
        let d_before = sim.disagreement();
        for _ in 0..10 {
            sim.run_round(&[RoundAction::SyncOnly; 8]);
        }
        let d_after = sim.disagreement();
        let mean_after = sim.mean_params();
        assert!(
            d_after < d_before * 0.5,
            "disagreement {d_before} -> {d_after}"
        );
        // doubly stochastic mixing preserves the average model
        let drift: f32 = mean_before
            .iter()
            .zip(&mean_after)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max);
        assert!(
            drift < 1e-4,
            "sync rounds drifted the mean model by {drift}"
        );
    }

    #[test]
    fn serialized_transport_matches_memory_exactly() {
        let (mut mem, test) = tiny_sim(6, 3, TransportKind::Memory);
        let (mut ser, _) = tiny_sim(
            6,
            3,
            TransportKind::Serialized {
                drop_prob: 0.0,
                corrupt_prob: 0.0,
            },
        );
        let actions = vec![RoundAction::Train; 6];
        for _ in 0..5 {
            mem.run_round(&actions);
            ser.run_round(&actions);
        }
        for i in 0..6 {
            assert_eq!(
                mem.node_params(i),
                ser.node_params(i),
                "node {i} diverged between transports"
            );
        }
        let (am, _) = mem.evaluate_mean_model(&test, usize::MAX);
        let (as_, _) = ser.evaluate_mean_model(&test, usize::MAX);
        assert_eq!(am, as_);
    }

    #[test]
    fn lossy_transport_still_converges_models() {
        let (mut sim, _) = tiny_sim(
            8,
            4,
            TransportKind::Serialized {
                drop_prob: 0.3,
                corrupt_prob: 0.0,
            },
        );
        for _ in 0..3 {
            sim.run_round(&[RoundAction::Train; 8]);
        }
        let d_before = sim.disagreement();
        for _ in 0..15 {
            sim.run_round(&[RoundAction::SyncOnly; 8]);
        }
        assert!(
            sim.disagreement() < d_before * 0.5,
            "lossy sync should still contract disagreement"
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let (mut sim, test) = tiny_sim(6, 7, TransportKind::Memory);
            for r in 0..6 {
                let actions: Vec<RoundAction> = (0..6)
                    .map(|i| {
                        if (r + i) % 2 == 0 {
                            RoundAction::Train
                        } else {
                            RoundAction::SyncOnly
                        }
                    })
                    .collect();
                sim.run_round(&actions);
            }
            (
                sim.node_params(3).to_vec(),
                sim.evaluate(&test, 100).mean_accuracy,
            )
        };
        let (p1, a1) = run();
        let (p2, a2) = run();
        assert_eq!(p1, p2);
        assert_eq!(a1, a2);
    }

    #[test]
    fn energy_accounting_matches_hand_computation() {
        let (mut sim, _) = tiny_sim(4, 8, TransportKind::Memory);
        sim.config.training_energy_wh = vec![2.0, 3.0, 5.0, 7.0];
        let mut actions = vec![RoundAction::Train; 4];
        actions[3] = RoundAction::SyncOnly;
        sim.run_round(&actions);
        // nodes 0..3 trained: 2 + 3 + 5 Wh
        assert!((sim.ledger().total_training_wh() - 10.0).abs() < 1e-9);
        // comm energy: every node tx+rx over its degree
        let msg = ModelCodec::DenseF32.message_bytes(sim.param_count());
        let expected_comm: f64 = (0..4)
            .map(|i| {
                let d = sim.graph().degree(i) as f64;
                sim.config.comm_energy.tx_energy_wh(msg) * d
                    + sim.config.comm_energy.rx_energy_wh(msg) * d
            })
            .sum();
        assert!((sim.ledger().total_comm_wh() - expected_comm).abs() < 1e-12);
        assert_eq!(sim.ledger().rounds(), 1);
        // byte counters agree with the analytic edge count
        assert_eq!(sim.ledger().total_tx_bytes(), 4 * 3 * msg);
        assert_eq!(sim.ledger().total_rx_bytes(), 4 * 3 * msg);
    }

    #[test]
    fn pairwise_mixing_charges_only_matched_pair() {
        // Regression for the async-gossip over-charging bug: a round run
        // with a 1-pair mixing override on a 6-regular graph must charge
        // exactly 2 messages (one each way), not n·6.
        let n = 12;
        let (mut sim, _) = tiny_sim_full(n, 11, TransportKind::Memory, ModelCodec::DenseF32, 6);
        let mixing = MixingMatrix::pairwise(n, &[(2, 7)]);
        sim.run_round_with_mixing(&vec![RoundAction::SyncOnly; n], &mixing);

        let bytes = ModelCodec::DenseF32.message_bytes(sim.param_count());
        assert_eq!(sim.ledger().total_tx_bytes(), 2 * bytes);
        assert_eq!(sim.ledger().total_rx_bytes(), 2 * bytes);
        assert_eq!(sim.ledger().node_tx_bytes(2), bytes);
        assert_eq!(sim.ledger().node_rx_bytes(2), bytes);
        assert_eq!(sim.ledger().node_tx_bytes(7), bytes);
        assert_eq!(sim.ledger().node_tx_bytes(0), 0);

        let comm = sim.config.comm_energy;
        let expected = 2.0 * (comm.tx_energy_wh(bytes) + comm.rx_energy_wh(bytes));
        assert!((sim.ledger().total_comm_wh() - expected).abs() < 1e-15);
        // the legacy degree formula would have charged 36× more
        let legacy = n as f64 * 6.0 * (comm.tx_energy_wh(bytes) + comm.rx_energy_wh(bytes));
        assert!(sim.ledger().total_comm_wh() < legacy / 30.0);
    }

    #[test]
    fn per_edge_accounting_reproduces_legacy_analytic_totals() {
        // On a static topology the per-edge event stream must reproduce
        // the legacy analytic formula (tx·degree + rx·delivered): exactly,
        // when replayed in event order, and to float tolerance against the
        // closed form.
        let n = 6;
        let rounds = 4;
        let (mut sim, _) = tiny_sim(
            n,
            21,
            TransportKind::Serialized {
                drop_prob: 0.25,
                corrupt_prob: 0.0,
            },
        );
        let actions = vec![RoundAction::Train; n];
        for _ in 0..rounds {
            sim.run_round(&actions);
        }

        let bytes = ModelCodec::DenseF32.message_bytes(sim.param_count());
        let comm = sim.config.comm_energy;
        let transport = sim.config.transport;
        let seed = sim.config.seed;
        let mixing = MixingMatrix::metropolis_hastings(sim.graph());

        // exact replay of the per-edge event stream
        let mut replay = vec![0.0f64; n];
        // legacy closed form, one record per node per round
        let mut legacy = vec![0.0f64; n];
        for r in 0..rounds {
            for i in 0..n {
                for &(j, _) in mixing.row(i) {
                    let j = j as usize;
                    if j == i {
                        continue;
                    }
                    replay[j] += comm.tx_energy_wh(bytes);
                    if transport.delivered(seed, r, j, i) {
                        replay[i] += comm.rx_energy_wh(bytes);
                    }
                }
            }
            for (i, node_legacy) in legacy.iter_mut().enumerate() {
                let degree = sim.graph().degree(i);
                let delivered_in = sim
                    .graph()
                    .neighbors(i)
                    .iter()
                    .filter(|&&j| transport.delivered(seed, r, j as usize, i))
                    .count();
                *node_legacy += comm.tx_energy_wh(bytes) * degree as f64
                    + comm.rx_energy_wh(bytes) * delivered_in as f64;
            }
        }
        for i in 0..n {
            assert_eq!(
                sim.ledger().node_comm_wh(i).to_bits(),
                replay[i].to_bits(),
                "node {i}: event replay must be bit-identical"
            );
            assert!(
                (sim.ledger().node_comm_wh(i) - legacy[i]).abs() < 1e-15,
                "node {i}: {} vs legacy {}",
                sim.ledger().node_comm_wh(i),
                legacy[i]
            );
        }
    }

    #[test]
    fn lossy_mixing_round_counts_delivered_edges() {
        // run_round_with_mixing + lossy Serialized transport: rx charges
        // must match the delivered() decisions over exactly the matched
        // edges, tx charges the attempts.
        let n = 8;
        let (mut sim, _) = tiny_sim_full(
            n,
            17,
            TransportKind::Serialized {
                drop_prob: 0.5,
                corrupt_prob: 0.0,
            },
            ModelCodec::DenseF32,
            4,
        );
        let pairs = [(0u32, 3u32), (1, 6), (2, 5)];
        let mixing = MixingMatrix::pairwise(n, &pairs);
        let rounds = 9;
        for _ in 0..rounds {
            sim.run_round_with_mixing(&vec![RoundAction::SyncOnly; n], &mixing);
        }
        let transport = sim.config.transport;
        let seed = sim.config.seed;
        let bytes = ModelCodec::DenseF32.message_bytes(sim.param_count());
        let mut expected_rx = vec![0u64; n];
        for r in 0..rounds {
            for &(a, b) in &pairs {
                for (src, dst) in [(a as usize, b as usize), (b as usize, a as usize)] {
                    if transport.delivered(seed, r, src, dst) {
                        expected_rx[dst] += bytes;
                    }
                }
            }
        }
        for (i, &rx) in expected_rx.iter().enumerate() {
            let expected_tx = if pairs
                .iter()
                .any(|&(a, b)| a as usize == i || b as usize == i)
            {
                rounds as u64 * bytes
            } else {
                0
            };
            assert_eq!(sim.ledger().node_tx_bytes(i), expected_tx, "tx node {i}");
            assert_eq!(sim.ledger().node_rx_bytes(i), rx, "rx node {i}");
        }
        // with 50% drops, some messages must actually have been dropped
        assert!(sim.ledger().total_rx_bytes() < sim.ledger().total_tx_bytes());
    }

    #[test]
    fn row_without_self_weight_aggregates_gracefully() {
        // A mixing row with no self entry is legal (e.g. a swap matrix):
        // on a lossless transport it must apply exactly, and under drops
        // the dropped weight must fall back to the node's own model
        // instead of panicking (the old code indexed weights[usize::MAX]).
        let swap: MixingMatrix =
            serde_json::from_str(r#"{"n":2,"rows":[[[1,1.0]],[[0,1.0]]]}"#).unwrap();

        let (mut sim, _) = tiny_sim(2, 33, TransportKind::Memory);
        let before0 = sim.node_params(0).to_vec();
        let before1 = sim.node_params(1).to_vec();
        sim.run_round_with_mixing(&[RoundAction::SyncOnly; 2], &swap);
        assert_eq!(sim.node_params(0), &before1[..], "swap row must apply");
        assert_eq!(sim.node_params(1), &before0[..]);

        let (mut lossy, _) = tiny_sim(
            2,
            34,
            TransportKind::Serialized {
                drop_prob: 0.8,
                corrupt_prob: 0.0,
            },
        );
        for _ in 0..12 {
            lossy.run_round_with_mixing(&[RoundAction::SyncOnly; 2], &swap);
        }
        for i in 0..2 {
            assert!(
                lossy.node_params(i).iter().all(|v| v.is_finite()),
                "node {i} produced non-finite parameters"
            );
        }
    }

    #[test]
    fn lossy_codecs_identical_across_transports() {
        // Memory-transport codec transforms must equal the full wire
        // round trip, so large experiments can stay on the fast path.
        for codec in [
            ModelCodec::QuantizedU8,
            ModelCodec::QuantizedU16,
            ModelCodec::TopK { k: 40 },
        ] {
            let (mut mem, _) = tiny_sim_full(6, 31, TransportKind::Memory, codec, 4);
            let (mut ser, _) = tiny_sim_full(
                6,
                31,
                TransportKind::Serialized {
                    drop_prob: 0.0,
                    corrupt_prob: 0.0,
                },
                codec,
                4,
            );
            let actions = vec![RoundAction::Train; 6];
            for _ in 0..3 {
                mem.run_round(&actions);
                ser.run_round(&actions);
            }
            for i in 0..6 {
                assert_eq!(
                    mem.node_params(i),
                    ser.node_params(i),
                    "{codec:?}: node {i} diverged between transports"
                );
            }
        }
    }

    #[test]
    fn top_k_masked_aggregation_blends_against_pre_mixing_model() {
        // Regression (issue 4, satellite 1): when several top-k messages
        // arrive in one round and hit the *same* coordinate, each blend
        // must substitute the receiver's pre-mixing half-step model, not
        // the partially-updated aggregation buffer. Nodes 1 and 2 both
        // send coordinate 1, so a partial-buffer bug would double-apply.
        let (mut sim, _) =
            tiny_sim_full(3, 77, TransportKind::Memory, ModelCodec::TopK { k: 1 }, 2);
        let p = sim.param_count();
        let mut x0 = vec![0.0f32; p];
        x0[0] = 1.0;
        let mut x1 = vec![0.0f32; p];
        x1[1] = 5.0;
        let mut x2 = vec![0.0f32; p];
        x2[1] = 7.0;
        sim.set_node_params(0, &x0);
        sim.set_node_params(1, &x1);
        sim.set_node_params(2, &x2);
        let before = [x0.clone(), x1.clone(), x2.clone()];

        let mixing = MixingMatrix::metropolis_hastings(sim.graph());
        sim.run_round(&[RoundAction::SyncOnly; 3]);

        // independent reimplementation of the masked blend, base fixed to
        // the pre-mixing model for every incoming message
        let sent: Vec<(u32, f32)> = vec![(0, 1.0), (1, 5.0), (1, 7.0)];
        for (i, base) in before.iter().enumerate() {
            let row = mixing.row(i);
            let row_sum: f32 = row.iter().map(|&(_, w)| w).sum();
            let mut expected: Vec<f32> = base.iter().map(|v| v * row_sum).collect();
            for &(j, w) in row {
                if j as usize != i {
                    let (coord, val) = sent[j as usize];
                    let c = coord as usize;
                    expected[c] += w * (val - base[c]);
                }
            }
            assert_eq!(
                sim.node_params(i),
                &expected[..],
                "node {i}: masked blend must use the pre-mixing base"
            );
        }
    }

    #[test]
    fn feedback_codecs_identical_across_transports() {
        for codec in [
            ModelCodec::QuantizedU8,
            ModelCodec::QuantizedU16,
            ModelCodec::TopK { k: 40 },
        ] {
            for beta in [1.0f32, 0.5] {
                let mut mem = tiny_sim_feedback(6, 61, TransportKind::Memory, codec, 4, beta);
                let mut ser = tiny_sim_feedback(
                    6,
                    61,
                    TransportKind::Serialized {
                        drop_prob: 0.0,
                        corrupt_prob: 0.0,
                    },
                    codec,
                    4,
                    beta,
                );
                let actions = vec![RoundAction::Train; 6];
                for _ in 0..3 {
                    mem.run_round(&actions);
                    ser.run_round(&actions);
                }
                for i in 0..6 {
                    assert_eq!(
                        mem.node_params(i),
                        ser.node_params(i),
                        "{codec:?} β={beta}: node {i} diverged between transports"
                    );
                }
                // the sender-local residuals must match too
                for dst in 0..6 {
                    for src in 0..6 {
                        assert_eq!(
                            mem.feedback().unwrap().replica(src, dst),
                            ser.feedback().unwrap().replica(src, dst),
                            "{codec:?} β={beta}: replica {src}->{dst} diverged"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn feedback_reduces_top_k_consensus_bias() {
        // Aggressive top-k without memory parks gossip at a biased
        // disagreement floor; error feedback keeps draining the deferred
        // coordinates, so sync rounds contract much further.
        let run = |beta: Option<f32>| {
            let codec = ModelCodec::TopK { k: 8 };
            let mut sim = match beta {
                Some(b) => tiny_sim_feedback(8, 83, TransportKind::Memory, codec, 4, b),
                None => tiny_sim_full(8, 83, TransportKind::Memory, codec, 4).0,
            };
            for _ in 0..3 {
                sim.run_round(&[RoundAction::Train; 8]);
            }
            for _ in 0..20 {
                sim.run_round(&[RoundAction::SyncOnly; 8]);
            }
            sim.disagreement()
        };
        let plain = run(None);
        let with_feedback = run(Some(1.0));
        assert!(
            with_feedback < plain * 0.5,
            "feedback should at least halve the top-k disagreement floor: \
             plain {plain} vs feedback {with_feedback}"
        );
    }

    #[test]
    fn feedback_links_allocate_lazily_per_fired_edge() {
        let n = 8;
        let mut sim = tiny_sim_feedback(
            n,
            91,
            TransportKind::Memory,
            ModelCodec::TopK { k: 10 },
            4,
            1.0,
        );
        assert_eq!(sim.feedback().unwrap().active_links(), 0);
        let mixing = MixingMatrix::pairwise(n, &[(1, 4)]);
        sim.run_round_with_mixing(&vec![RoundAction::SyncOnly; n], &mixing);
        assert_eq!(
            sim.feedback().unwrap().active_links(),
            2,
            "one matched pair fires exactly two directed links"
        );
        assert!(sim.feedback().unwrap().replica(1, 4).is_some());
        assert!(sim.feedback().unwrap().replica(4, 1).is_some());
        assert!(sim.feedback().unwrap().replica(0, 1).is_none());
        // a second, different matching adds exactly two more links and
        // leaves the first pair's residuals in place
        let mixing2 = MixingMatrix::pairwise(n, &[(2, 6)]);
        sim.run_round_with_mixing(&vec![RoundAction::SyncOnly; n], &mixing2);
        assert_eq!(sim.feedback().unwrap().active_links(), 4);
        assert!(sim.feedback().unwrap().replica(1, 4).is_some());
    }

    #[test]
    fn mismatched_mixing_and_actions_are_typed_errors() {
        let (mut sim, _) = tiny_sim(6, 13, TransportKind::Memory);
        let wrong_mixing = MixingMatrix::identity(4);
        assert_eq!(
            sim.try_run_round_with_mixing(&[RoundAction::SyncOnly; 6], &wrong_mixing),
            Err(crate::error::EngineError::MixingSizeMismatch {
                expected: 6,
                got: 4
            })
        );
        assert_eq!(
            sim.try_run_round(&[RoundAction::SyncOnly; 3]),
            Err(crate::error::EngineError::ActionArityMismatch {
                expected: 6,
                got: 3
            })
        );
        // failed rounds must leave the simulation untouched
        assert_eq!(sim.round(), 0);
        sim.try_run_round(&[RoundAction::SyncOnly; 6])
            .expect("well-formed round runs");
        assert_eq!(sim.round(), 1);
    }

    #[test]
    fn feedback_replica_cap_bounds_links_under_changing_matchings() {
        // Cycle through every edge of a complete graph via per-round
        // 1-pair matchings: the uncapped state would accumulate one
        // replica per directed pair; the cap must hold it at n × cap
        // while every round still executes correctly.
        let n = 8;
        let cap = 2;
        let (mut sim, _) = tiny_sim_full(
            n,
            19,
            TransportKind::Memory,
            ModelCodec::TopK { k: 10 },
            n - 2,
        );
        sim.config.feedback_beta = Some(1.0);
        sim.config.feedback_replica_cap = Some(cap);
        sim.feedback = Some(ErrorFeedbackState::with_cap(n, 1.0, cap));
        for pair in 0..40usize {
            let a = (pair % n) as u32;
            let b = ((pair + 1 + pair / n) % n) as u32;
            if a == b || !sim.graph().has_edge(a as usize, b as usize) {
                continue;
            }
            let mixing = MixingMatrix::pairwise(n, &[(a, b)]);
            sim.run_round_with_mixing(&vec![RoundAction::SyncOnly; n], &mixing);
        }
        let fb = sim.feedback().unwrap();
        assert!(
            fb.active_links() <= n * cap,
            "cap breached: {} links > {}",
            fb.active_links(),
            n * cap
        );
        assert!(
            fb.total_evictions() > 0,
            "cycling matchings over a dense graph must evict"
        );
        for i in 0..n {
            assert!(
                sim.node_params(i).iter().all(|v| v.is_finite()),
                "node {i} produced non-finite parameters after evictions"
            );
        }
    }

    #[test]
    fn unset_replica_cap_adapts_to_dense_graphs_and_never_evicts() {
        // A 19-in-degree static graph exceeds DEFAULT_REPLICA_CAP; the
        // unset default must size itself to the graph so direct engine
        // users keep full residual memory (no silent cold restarts).
        let n = 20;
        let mut sim = tiny_sim_feedback(
            n,
            29,
            TransportKind::Memory,
            ModelCodec::TopK { k: 10 },
            n - 1,
            1.0,
        );
        assert_eq!(sim.feedback().unwrap().cap(), n - 1);
        for _ in 0..3 {
            sim.run_round(&vec![RoundAction::SyncOnly; n]);
        }
        let fb = sim.feedback().unwrap();
        assert_eq!(fb.total_evictions(), 0, "adaptive default must not evict");
        assert_eq!(fb.active_links(), n * (n - 1), "every link keeps a replica");
    }

    #[test]
    fn capped_feedback_on_static_topology_is_identical_to_uncapped() {
        // The default cap exceeds the paper's degrees, so static-topology
        // runs must be bit-identical whether the cap is the default or
        // effectively unbounded — the cap only changes behavior when a
        // schedule actually cycles beyond it.
        let codec = ModelCodec::TopK { k: 12 };
        let mut capped = tiny_sim_feedback(8, 67, TransportKind::Memory, codec, 4, 1.0);
        let mut unbounded = tiny_sim_feedback(8, 67, TransportKind::Memory, codec, 4, 1.0);
        unbounded.config.feedback_replica_cap = Some(usize::MAX);
        unbounded.feedback = Some(ErrorFeedbackState::with_cap(8, 1.0, usize::MAX));
        let actions = vec![RoundAction::Train; 8];
        for _ in 0..6 {
            capped.run_round(&actions);
            unbounded.run_round(&actions);
        }
        for i in 0..8 {
            assert_eq!(capped.node_params(i), unbounded.node_params(i));
        }
        assert_eq!(capped.feedback().unwrap().total_evictions(), 0);
    }

    #[test]
    fn feedback_with_dense_codec_is_a_bitwise_noop() {
        let (mut plain, _) = tiny_sim(6, 44, TransportKind::Memory);
        let mut fb = tiny_sim_feedback(6, 44, TransportKind::Memory, ModelCodec::DenseF32, 4, 1.0);
        let actions = vec![RoundAction::Train; 6];
        for _ in 0..4 {
            plain.run_round(&actions);
            fb.run_round(&actions);
        }
        for i in 0..6 {
            assert_eq!(plain.node_params(i), fb.node_params(i));
        }
        assert_eq!(
            fb.feedback().unwrap().active_links(),
            0,
            "lossless codec must never materialize feedback links"
        );
    }

    #[test]
    fn feedback_charges_identical_energy_to_plain_compression() {
        let codec = ModelCodec::TopK { k: 10 };
        let (mut plain, _) = tiny_sim_full(6, 52, TransportKind::Memory, codec, 4);
        let mut fb = tiny_sim_feedback(6, 52, TransportKind::Memory, codec, 4, 1.0);
        let actions = vec![RoundAction::SyncOnly; 6];
        for _ in 0..3 {
            plain.run_round(&actions);
            fb.run_round(&actions);
        }
        assert_eq!(
            plain.ledger().total_tx_bytes(),
            fb.ledger().total_tx_bytes()
        );
        assert_eq!(
            plain.ledger().total_rx_bytes(),
            fb.ledger().total_rx_bytes()
        );
        assert_eq!(
            plain.ledger().total_comm_wh().to_bits(),
            fb.ledger().total_comm_wh().to_bits(),
            "feedback is sender-local state: zero extra bytes, identical energy"
        );
    }

    #[test]
    fn feedback_rounds_are_deterministic() {
        let run = || {
            let mut sim = tiny_sim_feedback(
                6,
                73,
                TransportKind::Memory,
                ModelCodec::TopK { k: 12 },
                4,
                1.0,
            );
            for r in 0..5 {
                let actions: Vec<RoundAction> = (0..6)
                    .map(|i| {
                        if (r + i) % 2 == 0 {
                            RoundAction::Train
                        } else {
                            RoundAction::SyncOnly
                        }
                    })
                    .collect();
                sim.run_round(&actions);
            }
            sim.node_params(2).to_vec()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn quantized_sync_still_contracts_disagreement() {
        let (mut sim, _) = tiny_sim_full(8, 41, TransportKind::Memory, ModelCodec::QuantizedU16, 4);
        for _ in 0..3 {
            sim.run_round(&[RoundAction::Train; 8]);
        }
        let d_before = sim.disagreement();
        for _ in 0..10 {
            sim.run_round(&[RoundAction::SyncOnly; 8]);
        }
        assert!(
            sim.disagreement() < d_before * 0.6,
            "quantized sync failed to contract: {} -> {}",
            d_before,
            sim.disagreement()
        );
    }

    #[test]
    fn compressed_codecs_charge_monotonically_fewer_bytes() {
        let mut totals = Vec::new();
        for codec in [
            ModelCodec::DenseF32,
            ModelCodec::QuantizedU16,
            ModelCodec::QuantizedU8,
            ModelCodec::TopK { k: 10 },
        ] {
            let (mut sim, _) = tiny_sim_full(6, 51, TransportKind::Memory, codec, 4);
            sim.run_round(&[RoundAction::SyncOnly; 6]);
            totals.push((codec, sim.ledger().total_tx_bytes()));
        }
        for pair in totals.windows(2) {
            assert!(
                pair[1].1 < pair[0].1,
                "{:?} ({} B) should beat {:?} ({} B)",
                pair[1].0,
                pair[1].1,
                pair[0].0,
                pair[0].1
            );
        }
    }

    use skiptrain_energy::battery::{BatteryPolicy, BatterySetup, BatteryState};
    use skiptrain_energy::trace::{HarvestProfile, HarvestTrace};

    /// A tiny mixture-MLP fleet with battery gating configured at
    /// construction (the battery runtime is built by the constructor, so
    /// it cannot be injected after the fact like feedback state).
    fn tiny_sim_battery(
        n: usize,
        seed: u64,
        setup: BatterySetup,
        training_wh: Vec<f64>,
    ) -> Simulation {
        let spec = MixtureSpec {
            num_classes: 4,
            feature_dim: 6,
            modes_per_class: 1,
            separation: 1.6,
            noise: 0.5,
        };
        let task = MixtureTask::new(spec, 99);
        let datasets: Vec<Dataset> = (0..n).map(|i| task.sample(60, 10 + i as u64)).collect();
        let models: Vec<Sequential> = (0..n)
            .map(|i| skiptrain_nn::zoo::mlp(&[6, 12, 4], seed + i as u64))
            .collect();
        let graph = random_regular(n, 4, seed);
        let mixing = MixingMatrix::metropolis_hastings(&graph);
        let mut config = SimulationConfig::minimal(seed, 8, 2, 0.1);
        config.training_energy_wh = training_wh;
        config.battery = Some(setup);
        Simulation::new(models, datasets, graph, mixing, config)
    }

    fn no_harvest(n: usize) -> HarvestTrace {
        HarvestTrace::new(HarvestProfile::None, 600.0, n, 1, 0.0)
    }

    #[test]
    fn gated_nodes_charge_zero_comm_energy_and_never_train() {
        // nodes 0 and 3 start below a 50% threshold: they must neither
        // train nor fire a single byte, while the rest run normally
        let n = 8;
        let mut state = BatteryState::new(vec![1.0; n]);
        state.drain(0, 0.9);
        state.drain(3, 0.9);
        let setup = BatterySetup {
            state,
            trace: no_harvest(n),
            policy: BatteryPolicy::Threshold { min_fraction: 0.5 },
            node_policies: None,
        };
        let mut sim = tiny_sim_battery(n, 5, setup, vec![1e-3; n]);
        let frozen0 = sim.node_params(0).to_vec();
        for _ in 0..4 {
            sim.run_round(&vec![RoundAction::Train; n]);
        }
        for &i in &[0usize, 3] {
            assert_eq!(sim.ledger().node_tx_bytes(i), 0, "node {i} must not send");
            assert_eq!(
                sim.ledger().node_rx_bytes(i),
                0,
                "node {i} must not receive"
            );
            assert_eq!(
                sim.ledger().node_comm_wh(i),
                0.0,
                "gated node {i} must charge zero comm energy"
            );
            assert_eq!(
                sim.ledger().node_training_wh(i),
                0.0,
                "gated node {i} must not train"
            );
        }
        // an isolated node's model never moves (identity mixing row)
        assert_eq!(sim.node_params(0), &frozen0[..]);
        // the active majority trains and communicates as usual
        assert!(sim.ledger().node_comm_wh(1) > 0.0);
        assert!(sim.ledger().node_training_wh(1) > 0.0);
        let active = sim.battery_active().unwrap();
        assert!(!active[0] && !active[3] && active[1]);
    }

    #[test]
    fn battery_round_equals_manually_masked_round() {
        // one gated round must be bit-identical to running the plain
        // engine with the same masked mixing and gated actions — the
        // battery path adds bookkeeping, not new dynamics
        let n = 8;
        let seed = 6;
        let mut state = BatteryState::new(vec![1.0; n]);
        for &i in &[2usize, 5] {
            state.drain(i, 0.8);
        }
        let setup = BatterySetup {
            state,
            trace: no_harvest(n),
            policy: BatteryPolicy::Threshold { min_fraction: 0.5 },
            node_policies: None,
        };
        let costs = vec![1e-3; n];
        let mut gated = tiny_sim_battery(n, seed, setup, costs.clone());

        let (mut plain, _) = tiny_sim_full(n, seed, TransportKind::Memory, ModelCodec::DenseF32, 4);
        plain.config.training_energy_wh = costs;
        let mut active = vec![true; n];
        active[2] = false;
        active[5] = false;
        let masked = MixingMatrix::metropolis_hastings(plain.graph()).masked(&active);
        let manual_actions: Vec<RoundAction> = (0..n)
            .map(|i| {
                if active[i] {
                    RoundAction::Train
                } else {
                    RoundAction::SyncOnly
                }
            })
            .collect();

        for _ in 0..3 {
            gated.run_round(&vec![RoundAction::Train; n]);
            plain.run_round_with_mixing(&manual_actions, &masked);
        }
        for i in 0..n {
            assert_eq!(
                gated.node_params(i),
                plain.node_params(i),
                "node {i}: gated round diverged from the manual mask"
            );
            assert_eq!(
                gated.ledger().node_comm_wh(i).to_bits(),
                plain.ledger().node_comm_wh(i).to_bits(),
                "node {i}: comm accounting must be bit-identical"
            );
        }
    }

    #[test]
    fn brownout_burns_trickle_harvest_under_always_on() {
        // empty batteries + a harvest trickle far below the training cost:
        // always-on attempts every round, browns out every time, and the
        // whole harvest is burned without one completed training round
        let n = 6;
        let trickle = HarvestTrace::new(HarvestProfile::Constant { watts: 0.06 }, 600.0, n, 2, 0.0);
        // 0.06 W × 600 s = 0.01 Wh per round, training costs 0.05 Wh
        let setup = BatterySetup {
            state: BatteryState::with_initial_fraction(vec![1.0; n], 0.0),
            trace: trickle,
            policy: BatteryPolicy::AlwaysOn,
            node_policies: None,
        };
        let mut sim = tiny_sim_battery(n, 7, setup, vec![0.05; n]);
        for _ in 0..10 {
            sim.run_round(&vec![RoundAction::Train; n]);
        }
        assert_eq!(sim.battery_brownouts(), Some(10 * n as u64));
        assert_eq!(sim.ledger().total_training_wh(), 0.0);
        assert_eq!(sim.ledger().total_tx_bytes(), 0);
        let state = sim.battery_state().unwrap();
        assert!((state.total_harvested_wh() - 10.0 * 0.01 * n as f64).abs() < 1e-9);
        assert!(
            state.total_charge_wh() < 1e-12,
            "brown-outs must burn every banked watt-hour"
        );
        // a threshold policy on the same trace banks instead of burning
        let banked = BatterySetup {
            state: BatteryState::with_initial_fraction(vec![1.0; n], 0.0),
            trace: HarvestTrace::new(HarvestProfile::Constant { watts: 0.06 }, 600.0, n, 2, 0.0),
            policy: BatteryPolicy::Threshold { min_fraction: 0.08 },
            node_policies: None,
        };
        let mut sim2 = tiny_sim_battery(n, 7, banked, vec![0.05; n]);
        for _ in 0..10 {
            sim2.run_round(&vec![RoundAction::Train; n]);
        }
        assert!(
            sim2.ledger().total_training_wh() > 0.0,
            "threshold policy must convert the banked harvest into training"
        );
        assert_eq!(sim2.battery_brownouts(), Some(0));
    }

    #[test]
    fn battery_drain_reconciles_with_ledger_deltas() {
        // generous capacity (no clamping): every ledger watt-hour must
        // show up as battery drain, so charge = initial + accepted − spend
        let n = 6;
        let setup = BatterySetup {
            state: BatteryState::new(vec![50.0; n]),
            trace: HarvestTrace::new(HarvestProfile::Constant { watts: 0.5 }, 600.0, n, 3, 0.0),
            policy: BatteryPolicy::AlwaysOn,
            node_policies: None,
        };
        let mut sim = tiny_sim_battery(n, 9, setup, vec![0.02; n]);
        for r in 0..6 {
            let actions: Vec<RoundAction> = (0..n)
                .map(|i| {
                    if (r + i) % 2 == 0 {
                        RoundAction::Train
                    } else {
                        RoundAction::SyncOnly
                    }
                })
                .collect();
            sim.run_round(&actions);
        }
        let state = sim.battery_state().unwrap();
        for i in 0..n {
            let spend = sim.ledger().node_training_wh(i) + sim.ledger().node_comm_wh(i);
            assert!(
                (state.node_drained_wh(i) - spend).abs() < 1e-12,
                "node {i}: drained {} vs ledger spend {spend}",
                state.node_drained_wh(i)
            );
            let expected = state.initial_wh(i)
                + (state.node_harvested_wh(i) - state.node_wasted_wh(i))
                - spend;
            assert!(
                (state.charge_wh(i) - expected).abs() < 1e-9,
                "node {i}: conservation through the engine violated"
            );
        }
        assert_eq!(sim.battery_participations(), Some(6 * n as u64));
    }

    #[test]
    fn battery_rounds_are_deterministic() {
        let run = || {
            let n = 8;
            let setup = BatterySetup {
                state: BatteryState::with_initial_fraction(vec![0.5; n], 0.3),
                trace: HarvestTrace::new(
                    HarvestProfile::Diurnal {
                        peak_watts: 0.4,
                        period_rounds: 6.0,
                    },
                    600.0,
                    n,
                    11,
                    0.5,
                ),
                policy: BatteryPolicy::Hysteresis {
                    suspend_fraction: 0.2,
                    resume_fraction: 0.4,
                },
                node_policies: None,
            };
            let mut sim = tiny_sim_battery(n, 13, setup, vec![0.01; n]);
            for _ in 0..12 {
                sim.run_round(&vec![RoundAction::Train; n]);
            }
            (
                sim.node_params(4).to_vec(),
                sim.battery_state().unwrap().clone(),
                sim.battery_participations().unwrap(),
            )
        };
        let (p1, s1, c1) = run();
        let (p2, s2, c2) = run();
        assert_eq!(p1, p2);
        assert_eq!(s1, s2);
        assert_eq!(c1, c2);
    }

    #[test]
    fn mean_model_eval_uses_average() {
        let (mut sim, test) = tiny_sim(4, 9, TransportKind::Memory);
        let mean = sim.mean_params();
        let (acc_direct, _) = sim.evaluate_mean_model(&test, usize::MAX);
        // setting every node to the mean and evaluating gives the same
        for i in 0..4 {
            sim.set_node_params(i, &mean);
        }
        let stats = sim.evaluate(&test, usize::MAX);
        assert!((stats.mean_accuracy - acc_direct).abs() < 1e-6);
        assert!(stats.std_accuracy < 1e-9);
    }

    /// Runs `rounds` alternating train/sync rounds and returns the full
    /// observable footprint: every node's committed model plus the
    /// serialized energy ledger (bit-identity on the JSON string pins
    /// every Wh and byte counter) plus the corrupted-frame count.
    fn corruption_footprint(mut sim: Simulation, rounds: usize) -> (Vec<Vec<f32>>, String, u64) {
        let n = sim.len();
        for r in 0..rounds {
            let actions: Vec<RoundAction> = (0..n)
                .map(|i| {
                    if (r + i) % 2 == 0 {
                        RoundAction::Train
                    } else {
                        RoundAction::SyncOnly
                    }
                })
                .collect();
            sim.run_round(&actions);
        }
        let params: Vec<Vec<f32>> = (0..n).map(|i| sim.node_params(i).to_vec()).collect();
        let ledger = serde_json::to_string(sim.ledger()).expect("ledger serializes");
        (params, ledger, sim.corrupted_frames())
    }

    #[test]
    fn corruption_degrades_exactly_like_drops_dense() {
        // {drop: 0, corrupt: p} must be observationally identical to
        // {drop: p, corrupt: 0}: same models bit-for-bit, same ledger
        // bytes and Wh — the only visible difference is the counter.
        let n = 8;
        let make = |drop, corrupt| {
            let t = TransportKind::Serialized {
                drop_prob: drop,
                corrupt_prob: corrupt,
            };
            tiny_sim_full(n, 17, t, ModelCodec::DenseF32, 4).0
        };
        let (p_drop, l_drop, c_drop) = corruption_footprint(make(0.3, 0.0), 6);
        let (p_corr, l_corr, c_corr) = corruption_footprint(make(0.0, 0.3), 6);
        assert_eq!(p_drop, p_corr, "models diverged between drop and corrupt");
        assert_eq!(l_drop, l_corr, "energy ledgers diverged");
        assert_eq!(c_drop, 0);
        assert!(c_corr > 0, "corruption must actually fire at p = 0.3");
    }

    #[test]
    fn corruption_degrades_exactly_like_drops_topk() {
        let n = 8;
        let make = |drop, corrupt| {
            let t = TransportKind::Serialized {
                drop_prob: drop,
                corrupt_prob: corrupt,
            };
            tiny_sim_full(n, 19, t, ModelCodec::TopK { k: 20 }, 4).0
        };
        let (p_drop, l_drop, c_drop) = corruption_footprint(make(0.4, 0.0), 6);
        let (p_corr, l_corr, c_corr) = corruption_footprint(make(0.0, 0.4), 6);
        assert_eq!(p_drop, p_corr);
        assert_eq!(l_drop, l_corr);
        assert_eq!(c_drop, 0);
        assert!(c_corr > 0);
    }

    #[test]
    fn corruption_degrades_exactly_like_drops_with_error_feedback() {
        // On the feedback path a corrupted frame must leave the link
        // replica untouched exactly like a drop (acknowledged-link
        // semantics) — replicas advancing on corrupt-rejected frames would
        // silently diverge the two runs.
        let n = 6;
        let make = |drop, corrupt| {
            let t = TransportKind::Serialized {
                drop_prob: drop,
                corrupt_prob: corrupt,
            };
            tiny_sim_feedback(n, 23, t, ModelCodec::TopK { k: 16 }, 3, 0.8)
        };
        let (p_drop, l_drop, c_drop) = corruption_footprint(make(0.4, 0.0), 6);
        let (p_corr, l_corr, c_corr) = corruption_footprint(make(0.0, 0.4), 6);
        assert_eq!(p_drop, p_corr, "feedback replicas diverged");
        assert_eq!(l_drop, l_corr);
        assert_eq!(c_drop, 0);
        assert!(c_corr > 0);
    }

    #[test]
    fn mixed_drop_and_corruption_loses_the_union() {
        // A {drop: a, corrupt: b} transport delivers exactly what a
        // {drop: a+b} transport delivers (one partitioned draw), so the
        // trained models and rx accounting agree bit-for-bit.
        let n = 8;
        let mixed = tiny_sim_full(
            n,
            29,
            TransportKind::Serialized {
                drop_prob: 0.2,
                corrupt_prob: 0.2,
            },
            ModelCodec::DenseF32,
            4,
        )
        .0;
        let pure = tiny_sim_full(
            n,
            29,
            TransportKind::Serialized {
                drop_prob: 0.4,
                corrupt_prob: 0.0,
            },
            ModelCodec::DenseF32,
            4,
        )
        .0;
        let (p_mixed, l_mixed, c_mixed) = corruption_footprint(mixed, 5);
        let (p_pure, l_pure, c_pure) = corruption_footprint(pure, 5);
        assert_eq!(p_mixed, p_pure);
        assert_eq!(l_mixed, l_pure);
        assert!(c_mixed > 0);
        assert_eq!(c_pure, 0);
    }

    #[test]
    fn zero_corrupt_prob_counts_nothing() {
        let (mut sim, _) = tiny_sim(
            6,
            31,
            TransportKind::Serialized {
                drop_prob: 0.3,
                corrupt_prob: 0.0,
            },
        );
        for _ in 0..5 {
            sim.run_round(&[RoundAction::SyncOnly; 6]);
        }
        assert_eq!(sim.corrupted_frames(), 0);
    }
}
