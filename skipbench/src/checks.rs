//! The correctness gate every run passes through, and the result digest
//! behind the bit-identity probe.

use crate::observe::RunOutcome;
use skiptrain_core::{AlgorithmSpec, ExperimentConfig, ExperimentResult};

/// Relative tolerance for sums that the library and the benchmark add up
/// in different orders.
const REL_TOL: f64 = 1e-9;

/// A correctness violation in one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    pub cell: usize,
    pub what: String,
}

fn close(a: f64, b: f64, scale: f64) -> bool {
    (a - b).abs() <= REL_TOL * scale.abs().max(1e-12)
}

/// Checks every cell of `run` against the laws the simulator must keep.
/// `require_learning` adds the accuracy-above-chance check, which only a
/// full-length run can be held to.
pub fn check_run(
    configs: &[ExperimentConfig],
    run: &RunOutcome,
    require_learning: bool,
) -> Vec<Violation> {
    let mut out = Vec::new();
    for (cell, (cfg, (result, log))) in configs
        .iter()
        .zip(run.results.iter().zip(&run.cells))
        .enumerate()
    {
        let mut fail = |what: String| out.push(Violation { cell, what });
        if result.rounds != cfg.rounds || log.rounds.len() != cfg.rounds {
            fail(format!(
                "ran {} rounds ({} observed), configured {}",
                result.rounds,
                log.rounds.len(),
                cfg.rounds
            ));
        }
        if !close(
            log.reported_train_wh,
            result.total_training_wh,
            result.total_training_wh,
        ) {
            fail(format!(
                "Σ round training Wh {} != ledger {}",
                log.reported_train_wh, result.total_training_wh
            ));
        }
        if !close(
            log.reported_comm_wh,
            result.total_comm_wh,
            result.total_comm_wh,
        ) {
            fail(format!(
                "Σ round comm Wh {} != ledger {}",
                log.reported_comm_wh, result.total_comm_wh
            ));
        }
        if log.rx_exceeded_tx || log.rx_bytes > log.tx_bytes {
            fail(format!(
                "received more than sent (rx {} B, tx {} B)",
                log.rx_bytes, log.tx_bytes
            ));
        }
        if let (Some(spec), Some(b)) = (&cfg.battery, &result.battery) {
            let initial: f64 = spec
                .node_capacities(cfg.nodes)
                .iter()
                .map(|c| c * spec.initial_fraction)
                .sum();
            let expected = initial + b.harvested_wh - b.wasted_wh - b.drained_wh;
            if !close(b.final_charge_wh, expected, initial + b.harvested_wh) {
                fail(format!(
                    "battery charge {} != initial {initial} + harvested {} - wasted {} - drained {}",
                    b.final_charge_wh, b.harvested_wh, b.wasted_wh, b.drained_wh
                ));
            }
        } else if cfg.battery.is_some() {
            fail("battery configured but no battery summary".into());
        }
        let expected_events = match &cfg.algorithm {
            AlgorithmSpec::DPsgd => Some(cfg.rounds),
            // Battery gating and churn may keep scheduled nodes from
            // training, so the exact count holds only without them.
            AlgorithmSpec::SkipTrain(s) if cfg.battery.is_none() && cfg.churn.is_none() => {
                Some(s.count_train_rounds(cfg.rounds))
            }
            _ => None,
        };
        if let Some(rounds) = expected_events {
            let expected = (cfg.nodes * rounds) as u64;
            if result.node_train_events != expected {
                fail(format!(
                    "{} node train events, schedule gives {expected}",
                    result.node_train_events
                ));
            }
        }
        let acc = result.final_test.mean_accuracy as f64;
        let chance = 1.0 / cfg.data.num_classes() as f64;
        if !acc.is_finite() || (require_learning && acc <= chance) {
            fail(format!(
                "final accuracy {acc} not finite or not above chance {chance}"
            ));
        }
    }
    out.extend(check_energy_ratios(configs, &run.results));
    out
}

/// For every D-PSGD cell followed by its SkipTrain twin (same data, seed
/// and topology), the training-energy ratio must equal the schedule's
/// rounds ratio `T / T_train`.
fn check_energy_ratios(
    configs: &[ExperimentConfig],
    results: &[ExperimentResult],
) -> Vec<Violation> {
    let mut out = Vec::new();
    for i in 1..configs.len() {
        let (d, s) = (&configs[i - 1], &configs[i]);
        let (AlgorithmSpec::DPsgd, AlgorithmSpec::SkipTrain(schedule)) =
            (&d.algorithm, &s.algorithm)
        else {
            continue;
        };
        if d.rounds != s.rounds || d.nodes != s.nodes || d.battery.is_some() || s.battery.is_some()
        {
            continue;
        }
        let expected = d.rounds as f64 / schedule.count_train_rounds(s.rounds) as f64;
        let got = results[i - 1].total_training_wh / results[i].total_training_wh;
        if !close(got, expected, expected) {
            out.push(Violation {
                cell: i,
                what: format!(
                    "D-PSGD/SkipTrain training energy ratio {got}, schedule gives {expected}"
                ),
            });
        }
    }
    out
}

/// FNV-1a over the canonical JSON of `value` (the vendored serializer
/// emits struct fields in declaration order), like the library's
/// `journal::config_digest`.
pub fn digest<T: serde::Serialize + ?Sized>(value: &T) -> u64 {
    let json = serde_json::to_string(value).expect("results serialize");
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in json.as_bytes() {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_fnv1a_of_the_json_text() {
        // The JSON text of the string "a" is the three bytes `"a"`.
        let mut expected: u64 = 0xcbf2_9ce4_8422_2325;
        for b in b"\"a\"" {
            expected ^= u64::from(*b);
            expected = expected.wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(digest("a"), expected);
        assert_ne!(digest("a"), digest("b"));
    }
}
