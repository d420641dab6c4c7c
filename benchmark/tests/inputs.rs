//! Input generation is a pure function of `--seed`.

use tirm_benchmark::inputs::{Inputs, Workload};
use tirm_benchmark::procs::TempDir;
use tirm_benchmark::run::out_dir;
use tirm_online::OnlineEvent;

fn fingerprint(workload: Workload, seed: u64) -> u64 {
    let dir = TempDir::create(&out_dir().unwrap(), "test-inputs").unwrap();
    let inputs = Inputs::generate(workload, seed, true);
    let dataset = inputs.prepare_dataset(dir.path());
    inputs.fingerprint(&dataset)
}

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    for workload in Workload::ALL {
        let a = fingerprint(workload, 7);
        assert_eq!(a, fingerprint(workload, 7), "{}", workload.name());
        assert_ne!(a, fingerprint(workload, 8), "{}", workload.name());
    }
}

#[test]
fn workloads_do_not_share_inputs() {
    let prints: Vec<u64> = Workload::ALL.iter().map(|&w| fingerprint(w, 1)).collect();
    for (i, a) in prints.iter().enumerate() {
        assert!(!prints[..i].contains(a));
    }
}

#[test]
fn a_log_position_holds_the_same_kind_of_event_for_the_same_campaign_whatever_the_seed() {
    let shape = |seed| -> Vec<_> {
        Inputs::generate(Workload::ServeChurn, seed, false)
            .all_events()
            .map(|e| match e {
                OnlineEvent::AdArrival { id, .. }
                | OnlineEvent::BudgetTopUp { id, .. }
                | OnlineEvent::AdDeparture { id } => (e.kind(), *id),
                other => panic!("a churn log holds only campaign events, not {other:?}"),
            })
            .collect()
    };
    assert_eq!(shape(1), shape(2));
    // What the seed draws: the amounts.
    let amounts = |seed| -> Vec<u64> {
        Inputs::generate(Workload::ServeChurn, seed, false)
            .all_events()
            .filter_map(|e| match e {
                OnlineEvent::AdArrival { budget, .. } => Some(budget.to_bits()),
                OnlineEvent::BudgetTopUp { amount, .. } => Some(amount.to_bits()),
                _ => None,
            })
            .collect()
    };
    assert_ne!(amounts(1), amounts(2));
}

#[test]
fn segment_sizes_follow_the_size_table() {
    for smoke in [false, true] {
        for workload in [Workload::ServeChurn, Workload::ReplicaFollow] {
            let inputs = Inputs::generate(workload, 3, smoke);
            assert_eq!(inputs.preload.len(), inputs.sizes.preload);
            assert_eq!(inputs.segment_a.len(), inputs.sizes.segment_a);
            assert_eq!(inputs.segment_b.len(), inputs.sizes.segment_b);
        }
    }
}

#[test]
fn a_generated_log_replays_without_a_rejected_event() {
    let dir = TempDir::create(&out_dir().unwrap(), "test-replay").unwrap();
    for workload in [
        Workload::ServeChurn,
        Workload::ReplicaFollow,
        Workload::ServeReads,
    ] {
        let inputs = Inputs::generate(workload, 11, true);
        let dataset = inputs.prepare_dataset(dir.path());
        // Panics on a rejected event.
        let (snapshot, mean_regret) = tirm_benchmark::ladder::replay(&inputs, &dataset);
        assert_eq!(snapshot.epoch as usize, inputs.all_events().count());
        assert!(mean_regret.is_finite() && mean_regret > 0.0);
    }
}
