//! Celestial: a virtual software-system testbed for the LEO edge.
//!
//! This crate is the Rust reproduction of the system described in
//! *Celestial: Virtual Software System Testbeds for the LEO Edge*
//! (Pfandzelter & Bermbach, Middleware 2022). It ties the substrates of the
//! workspace together into the architecture of the paper's Fig. 2:
//!
//! * [`config`] — the single configuration file (orbital, network, compute
//!   and bounding-box parameters) with a hand-written TOML-subset parser,
//! * [`coordinator`] — the central coordinator: periodic constellation
//!   updates, machine-activity diffing and distribution to hosts,
//! * [`machine_manager`] — the per-host agent that applies machine lifecycle
//!   and network-shaping updates,
//! * [`ipam`] and [`dns`] — virtual IP address management and the
//!   `*.celestial` DNS service,
//! * [`database`] and [`info_api`] — the coordinator's database and the
//!   HTTP-style info API exposed to emulated machines,
//! * [`netprog`] — the delta-based network-programming engine (retained
//!   per-pair programme, per-epoch `{added, changed, removed}` change sets),
//! * [`pipeline`] — the pipelined epoch engine: the next constellation epoch
//!   is precomputed on a background worker while the current epoch's events
//!   play, with a synchronous mode and a bit-for-bit determinism guarantee
//!   (see `docs/PIPELINE.md`),
//! * [`snapshot`] — epoch-versioned, `Arc`-swapped read snapshots of the
//!   database so the serving plane answers queries lock-free against a
//!   consistent epoch (see `docs/SERVE.md`),
//! * [`estimator`] — the resource estimator and cloud cost model,
//! * [`testbed`] — the high-level façade that runs guest applications over
//!   the emulated constellation in virtual time.
//!
//! # Quickstart
//!
//! ```
//! use celestial::config::TestbedConfig;
//! use celestial::testbed::Testbed;
//!
//! let toml = r#"
//! seed = 7
//! update-interval-s = 2.0
//! duration-s = 30.0
//!
//! [bounding-box]
//! lat-min = -5.0
//! lat-max = 25.0
//! lon-min = -15.0
//! lon-max = 25.0
//!
//! [[shell]]
//! altitude-km = 550.0
//! inclination-deg = 53.0
//! planes = 12
//! satellites-per-plane = 16
//!
//! [[ground-station]]
//! name = "accra"
//! lat = 5.6037
//! lon = -0.187
//! "#;
//! let config = TestbedConfig::from_toml(toml).unwrap();
//! let testbed = Testbed::new(&config).unwrap();
//! assert_eq!(testbed.constellation().satellite_count(), 192);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod coordinator;
pub mod database;
pub mod dns;
pub mod estimator;
pub mod info_api;
pub mod invariants;
pub mod ipam;
pub mod machine_manager;
pub mod netprog;
pub mod pipeline;
pub mod snapshot;
pub mod testbed;
pub mod toml;

pub use config::TestbedConfig;
pub use coordinator::Coordinator;
pub use database::InfoDatabase;
pub use estimator::{CostModel, ResourceEstimator};
pub use machine_manager::MachineManager;
pub use pipeline::{
    EpochBundle, EpochCompute, EpochPipeline, PipelineMode, PipelineStats, ScopeReport,
    SharedEpoch, TenantEpoch,
};
pub use snapshot::{EpochSnapshot, SnapshotReader, SnapshotStore, TenantView};
pub use testbed::{AppContext, GuestApplication, Testbed, TenantRuntime};
