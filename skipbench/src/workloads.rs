//! The three benchmark workloads, generated from the benchmark seed.
//!
//! Each workload stresses a different set of layers; see the README in
//! this directory for why each one exists and which layer metrics it is
//! meant to move.

use skiptrain_core::presets::{cifar_config, femnist_config, Scale};
use skiptrain_core::{
    AlgorithmSpec, BatteryCapacitySpec, BatterySpec, ChurnSpec, CompressionPolicy, CompressionSpec,
    DataSpec, ExperimentConfig, ModelCodec, Schedule, TimingSpec, TopologyScheduleSpec,
    TopologySpec, TransportKind,
};
use skiptrain_energy::battery::BatteryPolicy;
use skiptrain_energy::device::fleet;
use skiptrain_energy::trace::{round_duration_s, HarvestProfile};
use skiptrain_engine::{ComputeProfile, LatencyModel, BASE_TRAIN_TICKS};

/// One named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figure 5: 12 quick-preset cells run by one campaign.
    Fig5Campaign,
    /// One 64-node SkipTrain Γ=(4,4) run with a wide MLP, dense in memory.
    WideSkiptrain,
    /// The wide model, sync-heavy, on a lossy serialized transport with
    /// battery gating, energy-tiered codecs, edge dropout, timing and churn.
    LossyAdaptive,
}

/// Nodes of the two single-experiment workloads.
const WIDE_NODES: usize = 64;
/// Input features of the wide model (MLP 128-512-10, 71,178 parameters).
const WIDE_FEATURES: usize = 128;
const WIDE_HIDDEN: usize = 512;

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Fig5Campaign,
        Workload::WideSkiptrain,
        Workload::LossyAdaptive,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig5Campaign => "fig5-campaign",
            Workload::WideSkiptrain => "wide-skiptrain",
            Workload::LossyAdaptive => "lossy-adaptive",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// True when the workload runs as a multi-cell campaign.
    pub fn is_campaign(self) -> bool {
        self == Workload::Fig5Campaign
    }

    /// The workload's experiment configurations, all seeded by `seed`.
    pub fn configs(self, seed: u64) -> Vec<ExperimentConfig> {
        match self {
            Workload::Fig5Campaign => fig5_cells(seed),
            Workload::WideSkiptrain => vec![wide(seed)],
            Workload::LossyAdaptive => vec![lossy(seed)],
        }
    }

    /// Rounds of the shortened run the bit-identity probe compares at one
    /// thread and at the full budget: one whole schedule period of the
    /// longest-period cell, so it holds both train and sync rounds.
    pub fn probe_rounds(self) -> usize {
        match self {
            Workload::Fig5Campaign => 8,
            Workload::WideSkiptrain => 8,
            Workload::LossyAdaptive => 5,
        }
    }
}

/// Every config shortened to the probe length, evaluating once at the end.
pub fn shortened(configs: &[ExperimentConfig], rounds: usize) -> Vec<ExperimentConfig> {
    configs
        .iter()
        .map(|cfg| {
            let mut cfg = cfg.clone();
            cfg.rounds = cfg.rounds.min(rounds);
            cfg.eval_every = cfg.rounds;
            cfg
        })
        .collect()
}

/// {cifar-like, femnist-like} × {6, 8, 10}-regular × {D-PSGD, SkipTrain
/// with the tuned Γ}, at the quick preset — the cells of Figure 5.
fn fig5_cells(seed: u64) -> Vec<ExperimentConfig> {
    let mut cells = Vec::with_capacity(12);
    for dataset in ["cifar", "femnist"] {
        for degree in [6usize, 8, 10] {
            let mut base = match dataset {
                "cifar" => cifar_config(Scale::Quick, seed),
                _ => femnist_config(Scale::Quick, seed),
            };
            base.topology = TopologySpec::Regular { degree };
            let schedule = Schedule::tuned_for_degree(degree);
            base.eval_every = schedule.period();
            for algorithm in [AlgorithmSpec::DPsgd, AlgorithmSpec::SkipTrain(schedule)] {
                let mut cfg = base.clone();
                cfg.name = format!("{dataset}-{degree}reg-{}", algorithm.name());
                cfg.algorithm = algorithm;
                cells.push(cfg);
            }
        }
    }
    cells
}

/// The shared 64-node wide-model base: cifar-like data with 128 features
/// feeding an MLP 128-512-10, 6-regular, dense codec in memory.
fn wide_base(seed: u64) -> ExperimentConfig {
    let mut cfg = cifar_config(Scale::Quick, seed);
    cfg.nodes = WIDE_NODES;
    cfg.topology = TopologySpec::Regular { degree: 6 };
    if let DataSpec::CifarLike {
        shards_per_node,
        separation,
        noise,
        modes_per_class,
        ..
    } = cfg.data
    {
        cfg.data = DataSpec::CifarLike {
            feature_dim: WIDE_FEATURES,
            samples_per_node: 80,
            test_samples: 800,
            shards_per_node,
            separation,
            noise,
            modes_per_class,
        };
    }
    cfg.hidden_dim = WIDE_HIDDEN;
    cfg.eval_max_samples = 400;
    cfg
}

fn wide(seed: u64) -> ExperimentConfig {
    let mut cfg = wide_base(seed);
    cfg.name = "wide-skiptrain".into();
    cfg.algorithm = AlgorithmSpec::SkipTrain(Schedule::new(4, 4));
    cfg.local_steps = 2;
    cfg.rounds = 80;
    cfg.eval_every = 40;
    cfg
}

fn lossy(seed: u64) -> ExperimentConfig {
    let mut cfg = wide_base(seed);
    cfg.name = "lossy-adaptive".into();
    cfg.algorithm = AlgorithmSpec::SkipTrain(Schedule::new(1, 4));
    cfg.local_steps = 5;
    cfg.rounds = 125;
    cfg.eval_every = 125;
    cfg.topology_schedule = TopologyScheduleSpec::EdgeDropout { p: 0.3 };
    cfg.transport = TransportKind::Serialized {
        drop_prob: 0.05,
        corrupt_prob: 0.01,
    };
    cfg.timing = TimingSpec {
        compute: ComputeProfile::StragglerTail {
            tail_prob: 0.1,
            tail_factor: 3.0,
        },
        latency: LatencyModel::Seeded {
            mean_ticks: BASE_TRAIN_TICKS / 10,
            jitter: 0.5,
        },
    };
    cfg.churn = Some(ChurnSpec {
        leave_prob: 0.02,
        rejoin_prob: 0.25,
    });

    // Price the radio so one u8-tier round drains several training
    // rounds' worth of charge, and let the diurnal harvest replace only
    // part of it: batteries then sag through the DEAL tiers (dense → u16
    // → u8 → top-k) and below the participation threshold at night.
    const COMM_FACTOR: f64 = 6.0;
    let max_cost = cfg
        .energy
        .node_energies(cfg.nodes)
        .into_iter()
        .fold(0.0f64, f64::max);
    let round_s = fleet(cfg.nodes)
        .iter()
        .map(|d| round_duration_s(&d.profile(), &cfg.energy.workload))
        .fold(0.0f64, f64::max);
    let effective_degree = 6.0 * 0.7;
    let u8_bytes = ModelCodec::QuantizedU8.message_bytes(cfg.energy.workload.model_params) as f64;
    cfg.energy.comm_joules_per_byte =
        Some(COMM_FACTOR * max_cost * 3600.0 / (2.0 * effective_degree * u8_bytes));
    let mean_harvest_wh = (1.0 + COMM_FACTOR) * max_cost / 3.0;
    cfg.battery = Some(BatterySpec {
        capacity: BatteryCapacitySpec::Uniform {
            wh: 2.0 * (1.0 + COMM_FACTOR) * max_cost,
        },
        initial_fraction: 0.6,
        harvest: HarvestProfile::Diurnal {
            peak_watts: std::f64::consts::PI * mean_harvest_wh * 3600.0 / round_s,
            period_rounds: 16.0,
        },
        harvest_jitter: 1.0,
        policy: BatteryPolicy::Threshold { min_fraction: 0.25 },
        node_policies: None,
    });
    let params = cfg.model_kind().build(0).param_count();
    cfg.compression = Some(CompressionSpec {
        policy: CompressionPolicy::deal_tiers((params / 64).max(1)),
        ..CompressionSpec::default()
    });
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_is_valid_and_named() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            let configs = w.configs(7);
            assert!(!configs.is_empty());
            for cfg in configs.iter().chain(&shortened(&configs, w.probe_rounds())) {
                cfg.validate()
                    .unwrap_or_else(|e| panic!("{}: {} invalid: {e}", w.name(), cfg.name));
            }
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn fig5_has_twelve_cells_in_pairs() {
        let cells = Workload::Fig5Campaign.configs(1);
        assert_eq!(cells.len(), 12);
        for pair in cells.chunks(2) {
            assert_eq!(pair[0].algorithm, AlgorithmSpec::DPsgd);
            assert!(matches!(pair[1].algorithm, AlgorithmSpec::SkipTrain(_)));
            assert_eq!(pair[0].nodes, 24);
        }
    }

    #[test]
    fn wide_model_has_the_stated_size() {
        let cfg = &Workload::WideSkiptrain.configs(1)[0];
        assert_eq!(cfg.model_kind().build(0).param_count(), 71_178);
        assert_eq!(cfg.nodes, 64);
    }

    #[test]
    fn seed_drives_the_inputs() {
        let json = |seed| serde_json::to_string(&Workload::LossyAdaptive.configs(seed)).unwrap();
        assert_eq!(json(3), json(3));
        assert_ne!(json(3), json(4));
    }
}
