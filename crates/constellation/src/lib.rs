//! Constellation Calculation for the Celestial LEO edge testbed.
//!
//! This crate reproduces the component the paper calls *Constellation
//! Calculation* (§3.1): from shell parameters or TLEs it periodically
//! computes
//!
//! * the position of every satellite and ground station,
//! * the +GRID inter-satellite link topology and its availability (links are
//!   cut when the line of sight grazes the atmosphere),
//! * ground-station uplinks subject to a minimum elevation angle,
//! * link distances, one-way latencies and bandwidths,
//! * shortest network paths and their end-to-end latencies, computed by the
//!   [`engine::PathEngine`] over a flat CSR graph — parallel per-source
//!   Dijkstra, scoped to the rows the testbed reads, with all-pairs
//!   Floyd–Warshall as the reference (see `docs/PATHS.md`),
//! * the set of satellites inside the configured bounding box (used to
//!   suspend microVMs of satellites that are out of scope),
//! * diffs between consecutive states, which the coordinator ships to the
//!   machine managers.
//!
//! # Examples
//!
//! ```
//! use celestial_constellation::{Constellation, GroundStation, Shell};
//! use celestial_types::geo::Geodetic;
//!
//! // A small 2-plane shell and one ground station.
//! let shell = Shell::from_walker(celestial_sgp4::WalkerShell::new(550.0, 53.0, 2, 4));
//! let gst = GroundStation::new("accra", Geodetic::new(5.6037, -0.187, 0.0));
//! let mut constellation = Constellation::builder()
//!     .shell(shell)
//!     .ground_station(gst)
//!     .build()
//!     .unwrap();
//!
//! let state = constellation.state_at(0.0).unwrap();
//! assert_eq!(state.satellite_count(), 8);
//! assert_eq!(state.ground_station_count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod animation;
pub mod bbox;
pub mod constellation;
pub mod engine;
pub mod ground_station;
pub mod isl;
pub mod links;
pub mod path;
pub mod shell;
pub mod snapshot;
pub mod suppression;

pub use bbox::BoundingBox;
pub use constellation::{Constellation, ConstellationBuilder, ConstellationState, StateBuffers};
pub use engine::{PathEngine, ScopeParams, SolveKind, SolveScope, SolveStats};
pub use ground_station::GroundStation;
pub use links::{Link, LinkKind};
pub use path::{NetworkGraph, PathAlgorithm, ShortestPaths};
pub use shell::Shell;
pub use snapshot::{ConstellationDiff, ConstellationSnapshot};
pub use suppression::{FlapWindow, LinkSuppression};
