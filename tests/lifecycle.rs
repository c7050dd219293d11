//! Machine lifecycle against orbital ground truth: after every constellation
//! update, the satellite machines the hosts run (or are booting) are exactly
//! the satellites whose sub-satellite point lies inside the bounding box.
//!
//! The expected set is computed here from `celestial-sgp4` positions and the
//! box's edges, independently of the constellation crate's activity flags,
//! so the test checks the whole path from orbit to microVM: activity, the
//! coordinator's machine-activity diff, and the managers applying it. It
//! runs in every {synchronous, pipelined} × {global, sharded} combination.

use celestial::config::{HostConfig, TestbedConfig};
use celestial::pipeline::PipelineMode;
use celestial::testbed::{GuestApplication, Testbed};
use celestial_constellation::{BoundingBox, GroundStation, Shell};
use celestial_sgp4::frames::subsatellite_point;
use celestial_sgp4::propagator::Propagator;
use celestial_sgp4::WalkerShell;
use celestial_types::geo::Geodetic;
use celestial_types::ids::NodeId;
use std::collections::BTreeSet;

/// Seconds between constellation updates: long enough for satellites to
/// cross the box edges between updates.
const INTERVAL_S: f64 = 110.0;
/// Updates checked after the first one at t = 0: 51 minutes, which see
/// about 50 box entries and exits.
const UPDATES: u32 = 28;

fn walker() -> WalkerShell {
    WalkerShell::new(550.0, 53.0, 12, 16)
}

fn config(mode: PipelineMode, sharded: bool, duration_s: f64) -> TestbedConfig {
    let mut builder = TestbedConfig::builder()
        .update_interval_s(INTERVAL_S)
        .duration_s(duration_s)
        .shell(Shell::from_walker(walker()))
        .ground_station(GroundStation::new("accra", Geodetic::new(5.6037, -0.187, 0.0)))
        .ground_station(GroundStation::new("abuja", Geodetic::new(9.0765, 7.3986, 0.0)))
        .ground_station(GroundStation::new("yaounde", Geodetic::new(3.848, 11.5021, 0.0)))
        .bounding_box(BoundingBox::west_africa())
        .pipeline(mode)
        .hosts(vec![HostConfig::default(); 2]);
    if sharded {
        builder = builder.shards(2);
    }
    builder.build().expect("valid config")
}

/// The satellites whose sub-satellite point lies in West Africa (latitude
/// -5° to 20°, longitude -10° to 20°) at `t_seconds`.
fn satellites_in_box(propagators: &[Propagator], t_seconds: f64) -> BTreeSet<NodeId> {
    let minutes = t_seconds / 60.0;
    propagators
        .iter()
        .enumerate()
        .filter(|(_, propagator)| {
            let state = propagator.propagate_minutes(minutes).expect("propagates");
            let point = subsatellite_point(state.position_eci, minutes);
            (-5.0..=20.0).contains(&point.latitude_deg())
                && (-10.0..=20.0).contains(&point.longitude_deg())
        })
        .map(|(index, _)| NodeId::satellite(0, index as u32))
        .collect()
}

/// The satellite machines that some host reports as running or booting.
fn satellites_running_or_booting(testbed: &Testbed) -> BTreeSet<NodeId> {
    testbed
        .managers()
        .iter()
        .flat_map(|manager| manager.host().machines())
        .filter(|vm| vm.node().is_satellite())
        .filter(|vm| vm.state().is_running() || vm.state().is_booting())
        .map(|vm| vm.node())
        .collect()
}

struct Idle;
impl GuestApplication for Idle {}

#[test]
fn running_satellite_machines_are_those_over_the_box() {
    let propagators: Vec<Propagator> =
        walker().satellite_elements().into_iter().map(Propagator::new).collect();
    let expected: Vec<BTreeSet<NodeId>> = (0..=UPDATES)
        .map(|update| satellites_in_box(&propagators, f64::from(update) * INTERVAL_S))
        .collect();
    // The window must see satellites enter and leave the box many times,
    // or the check below would barely exercise resume and suspend.
    let entries: usize = expected.windows(2).map(|w| w[1].difference(&w[0]).count()).sum();
    let exits: usize = expected.windows(2).map(|w| w[0].difference(&w[1]).count()).sum();
    assert!(entries >= 25 && exits >= 25, "{entries} box entries and {exits} exits");

    for mode in [PipelineMode::Synchronous, PipelineMode::Pipelined] {
        for sharded in [false, true] {
            // Each run ends half an interval after the update it checks,
            // before the next one.
            for (update, expected) in expected.iter().enumerate() {
                let t = update as f64 * INTERVAL_S;
                let duration_s = t + INTERVAL_S / 2.0;
                let mut testbed =
                    Testbed::new(&config(mode, sharded, duration_s)).expect("testbed");
                testbed.run(&mut Idle).expect("run");
                assert_eq!(
                    &satellites_running_or_booting(&testbed),
                    expected,
                    "{mode:?}, sharded = {sharded}: machines after the update at t = {t} s"
                );
            }
        }
    }
}
