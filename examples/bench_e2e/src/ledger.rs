//! The outside-in stage ledger: one epoch driven by hand through each
//! crate's public functions, in pipeline order and with retained buffers,
//! every call a span.
//!
//! ```text
//! core.coordinator.update            whole `Coordinator::update` (synchronous)
//! └ core.pipeline.compute            whole `EpochCompute::compute`
//!   ├ constellation.state_at_into    `Constellation::state_at_into`
//!   │ └ sgp4.propagate               `propagate_all_minutes`
//!   ├ constellation.diff             `ConstellationSnapshot::{from_state, diff}`
//!   ├ constellation.scope            `SolveScope::derive`
//!   ├ constellation.solve            `PathEngine::solve_scope`
//!   └ core.netprog.diff  × tenants   `ProgrammeStore::update_epoch`
//! core.snapshot.publish              `SnapshotStore::publish` (serve only)
//! netem.apply            × tenants   `apply_delta` / `apply_delta_sharded`
//! machines.lifecycle                 `MachineManager::{activate, finish_boot, suspend}`
//! sim.events                         `Simulation::{schedule_at, step}`
//! netem.send                         `NetworkPlane::send`
//! ```
//!
//! The parts run first on their own retained state, then the composites run
//! whole on theirs, on the same inputs; a composite's self time is what its
//! parts do not explain (`core.coordinator.install_us` = update − compute).

use crate::table::UPDATE_INTERVAL_S;
use crate::trace::Tracer;
use celestial::config::TestbedConfig;
use celestial::netprog::ProgrammeStore;
use celestial::pipeline::{EpochCompute, PipelineMode};
use celestial::snapshot::SnapshotStore;
use celestial::{Coordinator, MachineManager};
use celestial_constellation::snapshot::MachineActivity;
use celestial_constellation::{
    Constellation, ConstellationDiff, ConstellationSnapshot, PathEngine, ScopeParams, SolveScope,
    StateBuffers,
};
use celestial_machines::FirecrackerModel;
use celestial_netem::overlay::HostOverlay;
use celestial_netem::{NetworkPlane, Packet, PlacementPolicy, ShardPlan};
use celestial_sgp4::{propagate_all_minutes, Propagator, SatelliteState};
use celestial_sim::{SimRng, Simulation};
use celestial_types::ids::{HostId, NodeId};
use celestial_types::resources::MachineResources;
use celestial_types::time::{SimDuration, SimInstant};
use celestial_types::Latency;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Counts taken at the layer boundaries, summed over the measured steps.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub steps: u64,
    pub links: u64,
    pub solve_rows: u64,
    pub solve_required: u64,
    pub solve_settled: u64,
    pub pairs: u64,
    /// Programme delta operations, all tenants.
    pub delta_ops: u64,
    /// Rules programmed or removed by the network plane, all tenants.
    pub apply_ops: u64,
    /// Largest |emulated − expected| station-to-station latency seen, µs.
    pub latency_err_us_max: u64,
}

/// The compute half of the ledger: everything up to the programme deltas,
/// shared by the epoch workloads and `serve`'s inline updates.
pub struct ComputeLedger {
    constellation: Constellation,
    scope_params: ScopeParams,
    threads: usize,
    propagators: Vec<Vec<Propagator>>,
    sat_states: Vec<SatelliteState>,
    buffers: StateBuffers,
    previous: ConstellationSnapshot,
    scope: SolveScope,
    engine: PathEngine,
    sources: Vec<u32>,
    pub stores: Vec<ProgrammeStore>,
    compute: EpochCompute,
    pub coordinator: Coordinator,
    /// A stand-alone store timing `SnapshotStore::publish` on the
    /// coordinator's database, where the workload has snapshots on.
    publish_store: Option<Arc<SnapshotStore>>,
    updates: u64,
    pub counts: Counts,
}

impl ComputeLedger {
    pub fn new(
        constellation: Constellation,
        tenant_names: Vec<String>,
        shard_plan: Option<ShardPlan>,
        scope_params: ScopeParams,
        snapshots: bool,
    ) -> Self {
        let buffers = StateBuffers::new();
        let threads = buffers.threads();
        let propagators = constellation
            .shells()
            .iter()
            .map(|shell| {
                shell
                    .satellite_elements()
                    .into_iter()
                    .map(Propagator::new)
                    .collect()
            })
            .collect();
        // Mirrors `EpochCompute`'s own construction of its stores.
        let mut store = ProgrammeStore::new();
        store.set_threads(threads);
        store.set_shard_plan(shard_plan);
        let mut compute = EpochCompute::new(constellation.clone());
        compute.set_shard_plan(shard_plan);
        compute.set_tenant_count(tenant_names.len());
        compute.set_scope_params(scope_params);
        let interval = SimDuration::from_secs_f64(UPDATE_INTERVAL_S);
        let mut coordinator = Coordinator::with_scoped_fanout(
            constellation.clone(),
            interval,
            PipelineMode::Synchronous,
            shard_plan,
            tenant_names.clone(),
            scope_params,
        );
        let publish_store = snapshots.then(|| {
            coordinator.enable_snapshots();
            Arc::new(SnapshotStore::new(coordinator.database().clone()))
        });
        ComputeLedger {
            engine: PathEngine::new(constellation.path_algorithm()),
            constellation,
            scope_params,
            threads,
            propagators,
            sat_states: Vec::new(),
            buffers,
            previous: ConstellationSnapshot::default(),
            scope: SolveScope::new(),
            sources: Vec::new(),
            stores: vec![store; tenant_names.len()],
            compute,
            coordinator,
            publish_store,
            updates: 0,
            counts: Counts::default(),
        }
    }

    /// Drives the compute side of the epoch at `t` and returns the
    /// machine/link diff the plane side consumes.
    pub fn step(
        &mut self,
        t: f64,
        step: u32,
        measured: bool,
        tracer: &mut Tracer,
    ) -> ConstellationDiff {
        let update_id = tracer.reserve();
        let compute_id = tracer.reserve();
        let state_id = tracer.reserve();

        let minutes = t / 60.0;
        let (sat_states, propagators, threads) =
            (&mut self.sat_states, &self.propagators, self.threads);
        tracer.time("sgp4.propagate", state_id, step, || {
            sat_states.clear();
            for shell in propagators {
                propagate_all_minutes(shell, minutes, sat_states, threads).expect("propagation");
            }
        });
        let (constellation, buffers) = (&self.constellation, &mut self.buffers);
        tracer.time_as(
            state_id,
            "constellation.state_at_into",
            compute_id,
            step,
            || constellation.state_at_into(t, buffers).expect("state"),
        );
        let state = self.buffers.state().expect("state was just computed");
        let previous = &mut self.previous;
        tracer.time("constellation.diff", compute_id, step, || {
            let snapshot = ConstellationSnapshot::from_state(state);
            std::hint::black_box(previous.diff(&snapshot));
            *previous = snapshot;
        });

        // The programme sources exactly as `EpochCompute::compute` lists
        // them: active satellites, then ground stations, ascending.
        self.sources.clear();
        for sat in state.active_satellites() {
            self.sources
                .push(state.node_index(NodeId::Satellite(sat)).expect("index") as u32);
        }
        for gst in 0..state.ground_station_count() as u32 {
            self.sources.push(
                state
                    .node_index(NodeId::ground_station(gst))
                    .expect("index") as u32,
            );
        }

        let bounding_box = self.constellation.bounding_box();
        let (scope, params) = (&mut self.scope, &self.scope_params);
        tracer.time("constellation.scope", compute_id, step, || {
            scope.derive(state, &bounding_box, params)
        });
        let (engine, scope) = (&mut self.engine, &self.scope);
        tracer.time("constellation.solve", compute_id, step, || {
            engine.solve_scope(state.graph(), scope);
        });
        let paths = self.engine.paths().expect("paths were just solved");
        let sources = &self.sources;
        for store in &mut self.stores {
            tracer.time("core.netprog.diff", compute_id, step, || {
                store.update_epoch(state, paths, sources);
            });
        }

        let compute = &mut self.compute;
        let diff = tracer.time_as(compute_id, "core.pipeline.compute", update_id, step, || {
            compute.compute(t).expect("epoch compute")
        });
        let coordinator = &mut self.coordinator;
        tracer.time_as(update_id, "core.coordinator.update", 0, step, || {
            coordinator.update(t).expect("coordinator update");
        });
        self.updates += 1;
        if let Some(store) = &self.publish_store {
            let (epoch, database) = (self.updates, self.coordinator.database());
            tracer.time("core.snapshot.publish", 0, step, || {
                store.publish(epoch, database)
            });
        }

        if measured {
            let solve = self.engine.last_solve();
            let counts = &mut self.counts;
            counts.steps += 1;
            counts.links += state.links.len() as u64;
            counts.solve_rows += solve.scope_sources as u64;
            counts.solve_required += solve.scope_required as u64;
            counts.solve_settled += solve.scope_settled;
            counts.pairs += self.stores[0].pair_count() as u64;
            counts.delta_ops += self
                .stores
                .iter()
                .map(|s| s.delta().op_count() as u64)
                .sum::<u64>();
        }
        diff
    }

    /// The exact station-to-station latency of the hand-driven solve, µs.
    fn expected_latency_us(&self, a: NodeId, b: NodeId) -> Option<u64> {
        let state = self.buffers.state()?;
        let (a, b) = (state.node_index(a).ok()?, state.node_index(b).ok()?);
        self.engine.paths()?.latency_micros(a, b)
    }
}

/// One tenant's private half, as `TenantRuntime` keeps it.
struct TenantPlane {
    network: NetworkPlane,
    managers: Vec<MachineManager>,
    node_to_host: BTreeMap<NodeId, usize>,
}

impl TenantPlane {
    fn host_for(&mut self, node: NodeId) -> usize {
        if let Some(host) = self.node_to_host.get(&node) {
            return *host;
        }
        let host = PlacementPolicy::RoundRobin.host_for(node, self.managers.len());
        self.node_to_host.insert(node, host.index());
        self.network.place(node, host);
        host.index()
    }
}

/// The full ledger of an epoch workload: the compute half plus every
/// tenant's network plane and machine managers and the event queue.
pub struct EpochLedger {
    config: TestbedConfig,
    pub compute: ComputeLedger,
    tenants: Vec<TenantPlane>,
    sim: Simulation<(usize, u64)>,
    rng: SimRng,
    /// Per measured step, the sharded plane's critical path (the slowest
    /// shard of each tenant's apply, summed over tenants), nanoseconds.
    pub apply_critical_ns: Vec<f64>,
}

impl EpochLedger {
    /// Builds the ledger over the constellation the testbed itself would
    /// run (`constellation` carries the chaos link-suppression mask).
    pub fn new(
        config: &TestbedConfig,
        constellation: Constellation,
        tenant_names: Vec<String>,
    ) -> Self {
        let shard_plan = config.shards.map(ShardPlan::new);
        let scope_params = config.paths.map(|p| p.scope_params()).unwrap_or_default();
        let model = FirecrackerModel {
            ballooning: config.ballooning,
            ..FirecrackerModel::default()
        };
        let tenants = tenant_names
            .iter()
            .map(|_| {
                let mut network = match shard_plan {
                    Some(plan) => NetworkPlane::sharded(plan),
                    None => NetworkPlane::global(HostOverlay::new(config.hosts.len() as u32)),
                };
                if let Some(us) = config.host_latency_us {
                    network.set_default_host_latency(Latency::from_micros(us));
                }
                let managers = config
                    .hosts
                    .iter()
                    .enumerate()
                    .map(|(i, h)| {
                        MachineManager::new(HostId(i as u32), h.cores, h.memory_mib, model)
                    })
                    .collect();
                let mut tenant = TenantPlane {
                    network,
                    managers,
                    node_to_host: BTreeMap::new(),
                };
                // Ground stations boot during setup and never suspend.
                for (i, gst) in config.ground_stations.iter().enumerate() {
                    let node = NodeId::ground_station(i as u32);
                    let host = tenant.host_for(node);
                    let ready = tenant.managers[host]
                        .activate(node, &gst.resources, SimInstant::EPOCH)
                        .expect("ground station boots");
                    tenant.managers[host]
                        .finish_boot(node, ready)
                        .expect("boot completes");
                }
                tenant
            })
            .collect();
        EpochLedger {
            config: config.clone(),
            compute: ComputeLedger::new(
                constellation,
                tenant_names,
                shard_plan,
                scope_params,
                false,
            ),
            tenants,
            sim: Simulation::new(),
            rng: SimRng::seed_from_u64(config.seed),
            apply_critical_ns: Vec::new(),
        }
    }

    fn resources_for(&self, node: NodeId) -> MachineResources {
        match node {
            NodeId::Satellite(sat) => self.config.shells[sat.shell.index()].resources.clone(),
            NodeId::GroundStation(gst) => {
                self.config.ground_stations[gst.index()].resources.clone()
            }
        }
    }

    /// Drives one whole epoch at step index `step` (simulated time
    /// `step × interval`), replaying `events` queue events and `sends`
    /// packets — the per-step counts the instrumented real run observed.
    pub fn step(
        &mut self,
        step: u32,
        measured: bool,
        events: u64,
        sends: u64,
        tracer: &mut Tracer,
    ) {
        let interval = SimDuration::from_secs_f64(UPDATE_INTERVAL_S);
        let now = SimInstant::from_micros(u64::from(step) * interval.as_micros());
        let diff = self.compute.step(now.as_secs_f64(), step, measured, tracer);

        // Network plane: every tenant applies its own change set, placing
        // machines the delta mentions for the first time (as
        // `TenantRuntime::apply_epoch` does).
        let mut critical_ns = 0u64;
        let mut apply_ops = 0u64;
        for (tenant, store) in self.tenants.iter_mut().zip(&self.compute.stores) {
            let delta = store.delta();
            for pair in &delta.added {
                tenant.host_for(pair.a);
                tenant.host_for(pair.b);
            }
            match &mut tenant.network {
                NetworkPlane::Global(network) => {
                    let applied =
                        tracer.time("netem.apply", 0, step, || network.apply_delta(delta));
                    apply_ops += (applied.pairs_programmed + applied.pairs_removed) as u64;
                }
                NetworkPlane::Sharded(sharded) => {
                    let report = tracer.time("netem.apply", 0, step, || {
                        sharded.apply_delta_sharded(store.host_deltas())
                    });
                    critical_ns += report.critical_path_ns();
                    apply_ops += report
                        .applications
                        .iter()
                        .map(|a| (a.pairs_programmed + a.pairs_removed) as u64)
                        .sum::<u64>();
                }
            }
        }

        // Machine lifecycle for the orbital diff, every tenant.
        let to_activate: Vec<(NodeId, MachineResources)> = diff
            .machines_added
            .iter()
            .filter(|(_, activity)| *activity == MachineActivity::Active)
            .map(|(node, _)| *node)
            .chain(diff.activated.iter().copied())
            .map(|node| (node, self.resources_for(node)))
            .collect();
        let tenants = &mut self.tenants;
        tracer.time("machines.lifecycle", 0, step, || {
            for tenant in tenants.iter_mut() {
                for (node, resources) in &to_activate {
                    let host = tenant.host_for(*node);
                    let ready = tenant.managers[host]
                        .activate(*node, resources, now)
                        .expect("activate");
                    tenant.managers[host]
                        .finish_boot(*node, ready)
                        .expect("finish boot");
                }
                for node in &diff.suspended {
                    let host = tenant.host_for(*node);
                    if tenant.managers[host].has_machine(*node) {
                        tenant.managers[host].suspend(*node).expect("suspend");
                    }
                }
            }
        });

        // The epoch's event count through the queue.
        let sim = &mut self.sim;
        let tenant_count = self.tenants.len();
        tracer.time("sim.events", 0, step, || {
            for i in 0..events {
                let offset = SimDuration::from_micros(i * interval.as_micros() / events.max(1));
                sim.schedule_at(now + offset, (i as usize % tenant_count, i));
            }
            while sim.step().is_some() {}
        });

        // The epoch's packets through the emulated network, spread over the
        // tenants' planes as the guests' own sends are.
        let (accra, abuja) = (NodeId::ground_station(0), NodeId::ground_station(1));
        let (tenants, rng) = (&mut self.tenants, &mut self.rng);
        tracer.time("netem.send", 0, step, || {
            for i in 0..sends {
                let tenant = &mut tenants[i as usize % tenant_count];
                let packet = Packet::new(accra, abuja, 1_250);
                std::hint::black_box(tenant.network.send(&packet, now, rng));
            }
        });

        if measured {
            let counts = &mut self.compute.counts;
            counts.apply_ops += apply_ops;
            self.apply_critical_ns.push(critical_ns as f64);
            let expected = self.compute.expected_latency_us(accra, abuja);
            let emulated = self.tenants[0]
                .network
                .effective_latency(accra, abuja)
                .map(|l| l.as_micros());
            let err = match (expected, emulated) {
                (Some(e), Some(m)) => e.abs_diff(m),
                (None, None) => 0,
                _ => u64::MAX,
            };
            let counts = &mut self.compute.counts;
            counts.latency_err_us_max = counts.latency_err_us_max.max(err);
        }
    }
}
