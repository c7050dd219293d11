//! Snapshots of machine activity and the diffs between them.
//!
//! Celestial's coordinator recomputes the constellation at a fixed update
//! interval and tells the machine managers on each host which satellite
//! microVMs to boot or resume and which to suspend, because their satellite
//! crossed the bounding box. [`ConstellationSnapshot`] is the desired
//! activity of every machine at one instant, and [`ConstellationDiff`] is the
//! machine-activity change set between two snapshots. Links are not part of
//! either: the core crate's `ProgrammeStore` programs the network from the
//! epoch's paths.

use crate::constellation::ConstellationState;
use celestial_types::ids::NodeId;
use serde::{Deserialize, Serialize};

/// Whether a node's machine should be running or suspended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MachineActivity {
    /// The machine should be running.
    Active,
    /// The machine should be suspended (satellite outside the bounding box).
    Suspended,
}

/// The desired activity of every machine at one instant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ConstellationSnapshot {
    /// The simulated time of the snapshot in seconds.
    pub time_seconds: f64,
    /// Desired machine activity of every node, in node-index order:
    /// satellites by shell and index, then ground stations. That is also
    /// [`NodeId`]'s order.
    pub machines: Vec<(NodeId, MachineActivity)>,
}

impl ConstellationSnapshot {
    /// Builds a snapshot from a computed constellation state.
    pub fn from_state(state: &ConstellationState) -> Self {
        // Satellites come first in node-index order, so the activity flags
        // end where the always-active ground stations begin.
        let active = state.active_raw();
        let machines = (0..state.node_count())
            .map(|idx| {
                let node = state.node_id(idx).expect("index in range");
                let activity = match active.get(idx) {
                    Some(false) => MachineActivity::Suspended,
                    Some(true) | None => MachineActivity::Active,
                };
                (node, activity)
            })
            .collect();
        ConstellationSnapshot {
            time_seconds: state.time_seconds,
            machines,
        }
    }

    /// Computes the change set that transforms this snapshot into `newer`.
    /// Against an empty snapshot (the [`Default`]) every node of `newer` is
    /// added.
    ///
    /// # Panics
    ///
    /// Panics if neither snapshot is empty and they list different nodes:
    /// a constellation's nodes are fixed when it is built.
    pub fn diff(&self, newer: &ConstellationSnapshot) -> ConstellationDiff {
        let mut diff = ConstellationDiff {
            time_seconds: newer.time_seconds,
            ..ConstellationDiff::default()
        };
        if self.machines.is_empty() {
            diff.machines_added.clone_from(&newer.machines);
            return diff;
        }
        assert_eq!(
            self.machines.len(),
            newer.machines.len(),
            "snapshots of different constellations"
        );
        for (&(node, old), &(newer_node, activity)) in self.machines.iter().zip(&newer.machines) {
            assert_eq!(node, newer_node, "snapshots of different constellations");
            if old != activity {
                match activity {
                    MachineActivity::Active => diff.activated.push(node),
                    MachineActivity::Suspended => diff.suspended.push(node),
                }
            }
        }
        diff
    }
}

/// The machine-activity change set between two consecutive snapshots.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ConstellationDiff {
    /// The simulated time of the newer snapshot in seconds.
    pub time_seconds: f64,
    /// Nodes that appear for the first time, with their initial activity.
    pub machines_added: Vec<(NodeId, MachineActivity)>,
    /// Machines to resume (satellite re-entered the bounding box).
    pub activated: Vec<NodeId>,
    /// Machines to suspend (satellite left the bounding box).
    pub suspended: Vec<NodeId>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constellation::Constellation;
    use crate::ground_station::presets;
    use crate::shell::Shell;
    use crate::BoundingBox;
    use celestial_sgp4::WalkerShell;
    use proptest::prelude::*;

    fn constellation() -> Constellation {
        Constellation::builder()
            .shell(Shell::from_walker(WalkerShell::new(550.0, 53.0, 4, 6)))
            .ground_station(presets::accra())
            .bounding_box(BoundingBox::west_africa())
            .build()
            .expect("valid constellation")
    }

    /// Applies `diff` to `snapshot` the way the machine managers act on it:
    /// added nodes take their listed activity, and resumed and suspended
    /// nodes switch.
    fn apply(snapshot: &ConstellationSnapshot, diff: &ConstellationDiff) -> ConstellationSnapshot {
        let mut machines = snapshot.machines.clone();
        let mut set = |node: NodeId, activity: MachineActivity| {
            let at = machines.binary_search_by_key(&node, |&(n, _)| n);
            match at {
                Ok(i) => machines[i].1 = activity,
                Err(i) => machines.insert(i, (node, activity)),
            }
        };
        for &(node, activity) in &diff.machines_added {
            set(node, activity);
        }
        for &node in &diff.activated {
            set(node, MachineActivity::Active);
        }
        for &node in &diff.suspended {
            set(node, MachineActivity::Suspended);
        }
        ConstellationSnapshot {
            time_seconds: diff.time_seconds,
            machines,
        }
    }

    #[test]
    fn snapshot_covers_all_nodes() {
        let c = constellation();
        let state = c.state_at(0.0).unwrap();
        let snapshot = ConstellationSnapshot::from_state(&state);
        assert_eq!(snapshot.machines.len(), 25);
        // Node-index order is `NodeId` order: the diff lists nodes in the
        // order host placement first sees them.
        assert!(snapshot.machines.windows(2).all(|w| w[0].0 < w[1].0));
        // Ground stations come last and are always active.
        assert_eq!(
            snapshot.machines[24],
            (NodeId::ground_station(0), MachineActivity::Active)
        );
    }

    #[test]
    fn identical_snapshots_have_empty_diff() {
        let c = constellation();
        let state = c.state_at(0.0).unwrap();
        let snap = ConstellationSnapshot::from_state(&state);
        assert_eq!(snap.diff(&snap), ConstellationDiff::default());
    }

    #[test]
    fn the_first_diff_adds_every_node_with_its_activity() {
        let c = constellation();
        let snap = ConstellationSnapshot::from_state(&c.state_at(60.0).unwrap());
        let diff = ConstellationSnapshot::default().diff(&snap);
        assert_eq!(diff.time_seconds, 60.0);
        assert_eq!(diff.machines_added, snap.machines);
        assert!(diff.activated.is_empty() && diff.suspended.is_empty());
    }

    #[test]
    #[should_panic(expected = "snapshots of different constellations")]
    fn diffing_snapshots_of_different_constellations_panics() {
        let snap = ConstellationSnapshot::from_state(&constellation().state_at(0.0).unwrap());
        let mut other = snap.clone();
        other.machines.pop();
        snap.diff(&other);
    }

    #[test]
    fn bounding_box_transitions_show_up_as_suspend_resume() {
        let c = constellation();
        // Scan a few update steps and confirm that at least one satellite
        // transitions between active and suspended (satellites cross the
        // West Africa box within minutes).
        let mut saw_transition = false;
        let mut prev = ConstellationSnapshot::from_state(&c.state_at(0.0).unwrap());
        for step in 1..30 {
            let next = ConstellationSnapshot::from_state(&c.state_at(step as f64 * 60.0).unwrap());
            let diff = prev.diff(&next);
            if !diff.activated.is_empty() || !diff.suspended.is_empty() {
                saw_transition = true;
                break;
            }
            prev = next;
        }
        assert!(saw_transition, "no suspend/resume transition in 30 minutes");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn apply_diff_reproduces_target_for_any_times(t0 in 0.0f64..3600.0, t1 in 0.0f64..3600.0) {
            let c = constellation();
            let s0 = ConstellationSnapshot::from_state(&c.state_at(t0).unwrap());
            let s1 = ConstellationSnapshot::from_state(&c.state_at(t1).unwrap());
            prop_assert_eq!(apply(&s0, &s0.diff(&s1)), s1.clone());
            let empty = ConstellationSnapshot::default();
            prop_assert_eq!(apply(&empty, &empty.diff(&s1)), s1);
        }
    }
}
