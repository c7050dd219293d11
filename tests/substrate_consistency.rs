//! Cross-crate consistency tests: the orbital mechanics, constellation
//! calculation and network emulation must agree with each other.

use celestial_constellation::{
    BoundingBox, Constellation, GroundStation, LinkKind, PathAlgorithm, PathEngine, ScopeParams,
    Shell, SolveScope,
};
use celestial_netem::packet::Packet;
use celestial_netem::VirtualNetwork;
use celestial_sgp4::frames::eci_to_ecef;
use celestial_sgp4::Propagator;
use celestial_sgp4::WalkerShell;
use celestial_types::constants::{EARTH_RADIUS_KM, SPEED_OF_LIGHT_KM_S};
use celestial_types::geo::Geodetic;
use celestial_types::ids::NodeId;
use celestial_types::time::SimInstant;
use celestial_types::{Bandwidth, Latency};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn constellation_positions_match_direct_propagation() {
    let shell = Shell::from_walker(WalkerShell::iridium());
    let elements = shell.satellite_elements();
    let constellation = Constellation::builder()
        .shell(shell)
        .build()
        .expect("constellation");
    let t_seconds = 247.0;
    let state = constellation.state_at(t_seconds).expect("state");
    for (i, element) in elements.iter().enumerate().step_by(7) {
        let direct = Propagator::new(element.clone())
            .propagate_minutes(t_seconds / 60.0)
            .expect("propagation");
        let expected = eci_to_ecef(direct.position_eci, t_seconds / 60.0);
        let from_state = state
            .position(NodeId::satellite(0, i as u32))
            .expect("position");
        assert!(
            expected.distance_to(&from_state) < 1e-6,
            "satellite {i} diverges"
        );
    }
}

#[test]
fn link_latencies_match_distance_over_speed_of_light() {
    let constellation = Constellation::builder()
        .shell(Shell::from_walker(WalkerShell::new(550.0, 53.0, 12, 16)))
        .ground_station(GroundStation::new("accra", Geodetic::new(5.6, -0.19, 0.0)))
        .build()
        .expect("constellation");
    let state = constellation.state_at(60.0).expect("state");
    assert!(!state.links.is_empty());
    for link in &state.links {
        let a = state.position(link.a).expect("position");
        let b = state.position(link.b).expect("position");
        let distance = a.distance_to(&b);
        assert!((distance - link.distance_km).abs() < 1e-6);
        let expected_latency_us = distance / SPEED_OF_LIGHT_KM_S * 1e6;
        assert!((link.latency.as_micros() as f64 - expected_latency_us).abs() <= 1.0);
        if link.kind == LinkKind::Isl {
            // ISL endpoints are both at shell altitude.
            assert!((a.norm() - EARTH_RADIUS_KM - 550.0).abs() < 5.0);
        }
    }
}

#[test]
fn programmed_network_reproduces_constellation_latency_between_stations() {
    // Program a virtual network from the constellation's shortest path and
    // check that a packet experiences exactly that latency.
    let constellation = Constellation::builder()
        .shell(Shell::from_walker(WalkerShell::starlink_shell1()))
        .ground_station(GroundStation::new("accra", Geodetic::new(5.6037, -0.187, 0.0)))
        .ground_station(GroundStation::new("abuja", Geodetic::new(9.0765, 7.3986, 0.0)))
        .bounding_box(BoundingBox::west_africa())
        .build()
        .expect("constellation");
    let state = constellation.state_at(0.0).expect("state");
    let accra = NodeId::ground_station(0);
    let abuja = NodeId::ground_station(1);
    let latency = state
        .latency_between(accra, abuja)
        .expect("nodes exist")
        .expect("connected");

    let mut network = VirtualNetwork::new();
    network.program_pair(accra, abuja, latency, Bandwidth::from_gbps(10));
    let packet = Packet::new(accra, abuja, 1_250);
    let mut rng = StdRng::seed_from_u64(1);
    let deliveries = network.send(&packet, SimInstant::EPOCH, &mut rng);
    assert_eq!(deliveries.len(), 1);
    let arrival_ms = deliveries[0].0.as_secs_f64() * 1e3;
    let programmed_ms = latency.quantized_tenth_ms().as_millis_f64();
    // Serialisation of 1250 bytes at 10 Gb/s adds a microsecond.
    assert!(
        (arrival_ms - programmed_ms).abs() < 0.01,
        "arrival {arrival_ms} ms vs programmed {programmed_ms} ms"
    );
}

/// The scoped solve's exactness contract at Starlink-class scale
/// (`docs/MEGASCALE.md`): on a 72×22 shell over West Africa the scope
/// prunes source rows, yet every (required, required) entry — everything
/// the programme store and the info API read — equals a full, unbounded
/// solve of the same rows.
#[test]
fn scoped_rows_equal_full_rows_on_every_required_pair_at_72x22() {
    let constellation = Constellation::builder()
        .shell(Shell::from_walker(WalkerShell::new(550.0, 53.0, 72, 22)))
        .ground_station(GroundStation::new("accra", Geodetic::new(5.6037, -0.187, 0.0)))
        .ground_station(GroundStation::new("abuja", Geodetic::new(9.0765, 7.3986, 0.0)))
        .bounding_box(BoundingBox::west_africa())
        .build()
        .expect("constellation");
    let state = constellation.state_at(1.0).expect("state");
    let nodes = state.node_count();
    let mut scope = SolveScope::new();
    scope.derive(&state, &constellation.bounding_box(), &ScopeParams::default());
    assert!(
        scope.sources().len() < nodes,
        "the scope solves {} of {nodes} rows: nothing pruned",
        scope.sources().len()
    );
    let required: Vec<u32> = (0..nodes as u32).filter(|&i| scope.is_required(i as usize)).collect();

    let mut scoped = PathEngine::new(PathAlgorithm::Dijkstra);
    let mut full = PathEngine::new(PathAlgorithm::Dijkstra);
    let scoped_paths = scoped.solve_scope(state.graph(), &scope);
    let full_paths = full.solve_sources(state.graph(), &required);
    let mut pairs = 0usize;
    for &a in &required {
        for &b in &required {
            if a == b {
                continue;
            }
            let (a, b) = (a as usize, b as usize);
            assert!(scoped_paths.is_exact(a, b), "required pair ({a}, {b}) not exact in the scoped solve");
            assert_eq!(
                scoped_paths.latency_micros(a, b),
                full_paths.latency_micros(a, b),
                "scoped row differs from the full solve on pair ({a}, {b})"
            );
            pairs += 1;
        }
    }
    assert!(pairs > 0, "no required pair to compare");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn ground_station_visibility_respects_min_elevation(
        lat in -60.0f64..60.0,
        lon in -180.0f64..180.0,
        t in 0.0f64..3000.0,
        min_elevation in 10.0f64..45.0,
    ) {
        let shell = Shell::from_walker(WalkerShell::new(550.0, 53.0, 12, 16))
            .with_min_elevation_deg(min_elevation);
        let constellation = Constellation::builder()
            .shell(shell)
            .ground_station(GroundStation::new("station", Geodetic::new(lat, lon, 0.0)))
            .build()
            .expect("constellation");
        let state = constellation.state_at(t).expect("state");
        let station_pos = state.position(NodeId::ground_station(0)).expect("position");
        for link in state.links.iter().filter(|l| l.kind == LinkKind::GroundStationLink) {
            let sat_pos = state.position(link.b.as_satellite().map(NodeId::Satellite).unwrap_or(link.b))
                .or_else(|_| state.position(link.a))
                .expect("satellite position");
            let elevation = station_pos.elevation_angle_deg(&sat_pos);
            prop_assert!(elevation >= min_elevation - 1e-6,
                "satellite visible at {elevation}° < {min_elevation}°");
        }
    }

    #[test]
    fn latency_newtype_and_link_model_agree(distance_km in 1.0f64..10_000.0) {
        let latency = Latency::from_distance_km(distance_km);
        let expected_ms = distance_km / SPEED_OF_LIGHT_KM_S * 1e3;
        prop_assert!((latency.as_millis_f64() - expected_ms).abs() < 0.001);
    }
}
