//! Behaviour lock for the per-link compression share path.
//!
//! Every cell of the matrix transport × policy × topology schedule ×
//! round semantics runs one small experiment, and the FNV-1a digest of
//! its canonical `ExperimentResult` JSON (the same hash
//! `journal::config_digest` uses for configs) must match the committed
//! table — at 1, 2 and 7 worker threads. A refactor of the per-link
//! share/aggregate stages must leave this table unchanged; an intended
//! behaviour change updates the table in its own commit.

use skiptrain::algorithms::asyncgossip::run_async_gossip_scheduled;
use skiptrain::energy::device::fleet;
use skiptrain::energy::trace::round_duration_s;
use skiptrain::prelude::*;

const NODES: usize = 12;

/// Committed digests, one per cell, in [`cells`] order.
const LOCK: &[(&str, u64)] = &[
    ("memory/per-link/static/barrier", 0xb0277b6987dcd4ad),
    ("memory/per-link/static/deadline", 0xc119709cbf17cf09),
    ("memory/per-link/dropout/barrier", 0x93fbb67d8b962f21),
    ("memory/per-link/dropout/deadline", 0xb24ab88c71c06a15),
    ("memory/rarity/static/barrier", 0x4d7a6ffe76a032ce),
    ("memory/rarity/static/deadline", 0xde73549023f94d3d),
    ("memory/rarity/dropout/barrier", 0x720a6a48325ac849),
    ("memory/rarity/dropout/deadline", 0xa09dc557a7f6c805),
    ("memory/deal/static/barrier", 0xe222a80ae61b6aef),
    ("memory/deal/static/deadline", 0x91453ac9bf1ef836),
    ("memory/deal/dropout/barrier", 0x577d145538d4b853),
    ("memory/deal/dropout/deadline", 0xb11c978a5a9da6c7),
    ("serialized/per-link/static/barrier", 0x6669145ed5b64139),
    ("serialized/per-link/static/deadline", 0x8cc7a04c0e2e09a0),
    ("serialized/per-link/dropout/barrier", 0x1c7ac50bb0bd1f03),
    ("serialized/per-link/dropout/deadline", 0x6d2a1d724b2e61ed),
    ("serialized/rarity/static/barrier", 0xf96398a848e24b45),
    ("serialized/rarity/static/deadline", 0x83b36e4cf6ebbcac),
    ("serialized/rarity/dropout/barrier", 0x81c14a62717c08c9),
    ("serialized/rarity/dropout/deadline", 0x427f0f649ec73c05),
    ("serialized/deal/static/barrier", 0xf7a99cd1dc7df560),
    ("serialized/deal/static/deadline", 0xfa1427730e8a6a04),
    ("serialized/deal/dropout/barrier", 0x7c8251527711e44d),
    ("serialized/deal/dropout/deadline", 0xaad48f40dd8df2b3),
];

fn fnv(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn result_digest(result: &ExperimentResult) -> u64 {
    fnv(serde_json::to_string(result).unwrap().as_bytes())
}

fn sim_params(cfg: &ExperimentConfig) -> usize {
    cfg.model_kind().build(0).param_count()
}

/// A heterogeneous per-link table: every directed link gets one of the
/// four codecs by `(src + 2·dst) mod 4`, so each sender serves several
/// codecs in the same round.
fn per_link_table(k: usize) -> CompressionPolicy {
    let codecs = [
        ModelCodec::DenseF32,
        ModelCodec::QuantizedU8,
        ModelCodec::QuantizedU16,
        ModelCodec::TopK { k },
    ];
    let links = (0..NODES as u32)
        .flat_map(|src| (0..NODES as u32).map(move |dst| (src, dst)))
        .filter(|&(src, dst)| src != dst && (src + dst) % 3 != 0)
        .map(|(src, dst)| LinkCodec {
            src,
            dst,
            codec: codecs[((src + 2 * dst) % 4) as usize],
        })
        .collect();
    CompressionPolicy::PerLink {
        default: ModelCodec::QuantizedU8,
        links,
    }
}

/// A diurnal-harvest battery fleet with priced radio, so charge sags
/// through every DEAL tier (dense → u16 → u8 → top-k) within the run.
fn tiered_battery(cfg: &mut ExperimentConfig) {
    const COMM_FACTOR: f64 = 4.0;
    let max_cost = cfg
        .energy
        .node_energies(cfg.nodes)
        .into_iter()
        .fold(0.0f64, f64::max);
    let round_s = fleet(cfg.nodes)
        .iter()
        .map(|d| round_duration_s(&d.profile(), &cfg.energy.workload))
        .fold(0.0f64, f64::max);
    let u8_bytes = ModelCodec::QuantizedU8.message_bytes(cfg.energy.workload.model_params) as f64;
    cfg.energy.comm_joules_per_byte =
        Some(COMM_FACTOR * max_cost * 3600.0 / (2.0 * 6.0 * u8_bytes));
    let mean_harvest_wh = (1.0 + COMM_FACTOR) * max_cost / 3.0;
    cfg.battery = Some(BatterySpec {
        capacity: BatteryCapacitySpec::Uniform {
            wh: 2.0 * (1.0 + COMM_FACTOR) * max_cost,
        },
        initial_fraction: 0.9,
        harvest: HarvestProfile::Diurnal {
            peak_watts: std::f64::consts::PI * mean_harvest_wh * 3600.0 / round_s,
            period_rounds: 8.0,
        },
        harvest_jitter: 1.0,
        policy: BatteryPolicy::Threshold { min_fraction: 0.05 },
        node_policies: None,
    });
}

/// One lock cell: a config plus whether it runs under deadline semantics.
struct Cell {
    name: String,
    cfg: ExperimentConfig,
    deadline: bool,
}

fn cells() -> Vec<Cell> {
    let mut base = cifar_config(Scale::Quick, 29);
    base.nodes = NODES;
    base.rounds = 12;
    base.eval_every = 12;
    base.eval_max_samples = 200;
    base.algorithm = AlgorithmSpec::SkipTrain(Schedule::new(1, 2));
    let k = (sim_params(&base) / 16).max(1);

    let transports = [
        ("memory", TransportKind::Memory),
        (
            "serialized",
            TransportKind::Serialized {
                drop_prob: 0.05,
                corrupt_prob: 0.01,
            },
        ),
    ];
    let policies = [
        ("per-link", per_link_table(k)),
        (
            "rarity",
            CompressionPolicy::RarityAdaptive {
                base_k: k,
                max_k: 8 * k,
            },
        ),
        ("deal", CompressionPolicy::deal_tiers(k)),
    ];
    let schedules = [
        ("static", TopologyScheduleSpec::Static),
        ("dropout", TopologyScheduleSpec::EdgeDropout { p: 0.3 }),
    ];
    let mut out = Vec::new();
    for (tname, transport) in &transports {
        for (pname, policy) in &policies {
            for (sname, schedule) in &schedules {
                for deadline in [false, true] {
                    let mut cfg = base.clone();
                    cfg.transport = *transport;
                    cfg.topology_schedule = schedule.clone();
                    cfg.compression = Some(CompressionSpec {
                        policy: policy.clone(),
                        ..CompressionSpec::default()
                    });
                    if *pname == "deal" {
                        tiered_battery(&mut cfg);
                    }
                    if deadline {
                        // seeded latency around half a training span
                        // against the quarter-span gossip slack: a
                        // steady share of messages arrives late
                        cfg.timing.latency = LatencyModel::Seeded {
                            mean_ticks: BASE_TRAIN_TICKS / 4,
                            jitter: 1.0,
                        };
                    }
                    let semantics = if deadline { "deadline" } else { "barrier" };
                    let name = format!("{tname}/{pname}/{sname}/{semantics}");
                    cfg.name = name.clone();
                    out.push(Cell {
                        name,
                        cfg,
                        deadline,
                    });
                }
            }
        }
    }
    out
}

fn run_cell(cell: &Cell, data: &DataBundle, threads: usize) -> ExperimentResult {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool")
        .install(|| {
            if cell.deadline {
                run_async_gossip_scheduled(&cell.cfg, data, Schedule::new(1, 2))
            } else {
                cell.cfg.run_on(data)
            }
        })
}

#[test]
fn per_link_result_digests_match_the_committed_table_at_every_thread_count() {
    let cells = cells();
    let data = cells[0].cfg.data.build(NODES, cells[0].cfg.seed);
    let mut table = Vec::new();
    let (mut late_total, mut corrupted_total) = (0u64, 0u64);
    for cell in &cells {
        let results: Vec<ExperimentResult> = [1, 2, 7]
            .iter()
            .map(|&threads| run_cell(cell, &data, threads))
            .collect();
        let digests: Vec<u64> = results.iter().map(result_digest).collect();
        assert!(
            digests.iter().all(|&d| d == digests[0]),
            "{}: digest depends on the thread count: {digests:016x?}",
            cell.name
        );
        late_total += results[0].events.late_messages;
        corrupted_total += results[0].corrupted_messages;
        table.push((cell.name.clone(), digests[0]));
    }
    assert!(late_total > 0, "deadline cells must exercise late edges");
    assert!(
        corrupted_total > 0,
        "serialized cells must exercise the corruption proof"
    );
    let rendered: String = table
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", 0x{d:016x}),\n"))
        .collect();
    let committed: Vec<(String, u64)> = LOCK.iter().map(|&(n, d)| (n.to_string(), d)).collect();
    assert_eq!(
        committed, table,
        "per-link behaviour lock changed; the current table is:\n{rendered}"
    );
}
