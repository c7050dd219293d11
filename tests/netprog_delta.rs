//! Integration tests of the delta-based network-programming engine: the
//! per-epoch `{added, changed, removed}` change sets must compose — replaying
//! them from epoch 0 reproduces the full programme at every timestep — and
//! applying them to a [`VirtualNetwork`] keeps its rule table in lockstep
//! with the coordinator's programme.

use celestial::Coordinator;
use celestial_constellation::{BoundingBox, Constellation, GroundStation, Shell};
use celestial_netem::VirtualNetwork;
use celestial_sgp4::WalkerShell;
use celestial_types::geo::Geodetic;
use celestial_types::ids::NodeId;
use celestial_types::time::SimDuration;
use celestial_types::{Bandwidth, Latency};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn coordinator(update_interval_s: f64) -> Coordinator {
    let constellation = Constellation::builder()
        .shell(Shell::from_walker(WalkerShell::new(550.0, 53.0, 12, 16)))
        .ground_station(GroundStation::new("accra", Geodetic::new(5.6037, -0.187, 0.0)))
        .ground_station(GroundStation::new("abuja", Geodetic::new(9.0765, 7.3986, 0.0)))
        .bounding_box(BoundingBox::west_africa())
        .build()
        .expect("valid constellation");
    Coordinator::new(constellation, SimDuration::from_secs_f64(update_interval_s))
}

type Programme = BTreeMap<(NodeId, NodeId), (Latency, Bandwidth)>;

fn as_map(coordinator: &Coordinator) -> Programme {
    coordinator
        .network_programme()
        .expect("programme after update")
        .into_iter()
        .map(|p| ((p.a, p.b), (p.latency, p.bandwidth)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Replaying the cumulative deltas from epoch 0 reproduces the full
    /// programme at every timestep, for arbitrary experiment start times and
    /// update intervals.
    #[test]
    fn cumulative_deltas_replay_to_the_full_programme(
        t0 in 0.0f64..3000.0,
        interval in 0.2f64..20.0,
        steps in 3usize..7,
    ) {
        let mut coordinator = coordinator(interval);
        let mut replayed: Programme = BTreeMap::new();
        for step in 0..steps {
            coordinator.update(t0 + step as f64 * interval).expect("update");
            let delta = coordinator.programme_delta();
            prop_assert_eq!(delta.epoch, step as u64 + 1);
            for pair in &delta.added {
                let previous = replayed.insert((pair.a, pair.b), (pair.latency, pair.bandwidth));
                prop_assert!(previous.is_none(), "added pair {}-{} was already programmed", pair.a, pair.b);
            }
            for pair in &delta.changed {
                let previous = replayed.insert((pair.a, pair.b), (pair.latency, pair.bandwidth));
                prop_assert!(previous.is_some(), "changed pair {}-{} was never programmed", pair.a, pair.b);
                prop_assert_ne!(
                    previous.expect("checked above"),
                    (pair.latency, pair.bandwidth),
                    "changed pair carries unchanged values"
                );
            }
            for (a, b) in &delta.removed {
                prop_assert!(replayed.remove(&(*a, *b)).is_some(), "removed pair {a}-{b} was never programmed");
            }
            prop_assert_eq!(&replayed, &as_map(&coordinator), "replay diverged at step {}", step);
        }
    }
}

/// The delta engine's reason to exist, counted: over five steady-state
/// one-second updates it performs at least 5× fewer pair programmings than
/// rewriting the whole programme every update would. The counts depend only
/// on orbital mechanics and the 0.1 ms quantization, so they are exact.
#[test]
fn the_delta_engine_programs_five_times_fewer_pairs_than_a_full_rebuild() {
    let mut coordinator = coordinator(1.0);
    // Epoch 0 adds every reachable pair; the steady state starts after it.
    coordinator.update(0.0).expect("first update");
    let (mut full, mut delta) = (0usize, 0usize);
    for update in 1..=5 {
        coordinator.update(f64::from(update)).expect("update");
        full += coordinator.programme_pair_count();
        delta += coordinator.programme_delta().op_count();
    }
    assert!(full > 0, "nothing programmed");
    assert!(
        full >= 5 * delta.max(1),
        "delta engine must beat the full rebuild 5x: {full} full vs {delta} delta pair programmings"
    );
}

/// Applying each epoch's delta to a virtual network keeps the rule table in
/// lockstep with the full programme: every programmed pair reachable with the
/// programme's exact delay and bandwidth, and not a single extra rule.
#[test]
fn applying_deltas_keeps_the_network_in_sync_with_the_programme() {
    let mut coordinator = coordinator(2.0);
    // Single-host overlay, no placements: no latency compensation, so the
    // programmed delay equals the pair's (already quantized) latency.
    let mut network = VirtualNetwork::new();
    for step in 0..6 {
        coordinator.update(f64::from(step) * 2.0).expect("update");
        network.apply_delta(coordinator.programme_delta());
        let programme = coordinator.network_programme().expect("programme");
        assert!(!programme.is_empty());
        assert_eq!(
            network.tc().rule_count(),
            2 * programme.len(),
            "rule table out of sync at step {step}"
        );
        for pair in &programme {
            assert!(network.is_reachable(pair.a, pair.b));
            assert!(network.is_reachable(pair.b, pair.a));
            assert_eq!(network.tc().delay(pair.a, pair.b), Some(pair.latency));
            assert_eq!(network.tc().bandwidth(pair.a, pair.b), Some(pair.bandwidth));
        }
    }
}
