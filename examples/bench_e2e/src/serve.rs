//! The `serve` workload: a 24×24 coordinator publishing epoch snapshots, a
//! `ServePlane` with one worker, and one keep-alive `httpd::Client` over
//! loopback — client + worker = 2 threads.
//!
//! A *step* is one HTTP request/reply. The loop is closed: the one load
//! thread sends its next request only after the previous reply, and it calls
//! `Coordinator::update` inline every 1,500 requests, so writes run beside
//! reads and a cheaper read that makes snapshot publication or reader
//! refresh dearer shows in `steps_per_s`.

use crate::ledger::ComputeLedger;
use crate::stats::{self, Fnv};
use crate::table::{SERVE_BODY_SAMPLE_PERCENT, SERVE_REQUESTS_PER_EPOCH, UPDATE_INTERVAL_S};
use crate::trace::{self, Tracer};
use celestial::config::ServeConfig;
use celestial::info_api::InfoApi;
use celestial::pipeline::PipelineStats;
use celestial::snapshot::SnapshotStore;
use celestial::Coordinator;
use celestial_constellation::{BoundingBox, Constellation, GroundStation, ScopeParams, Shell};
use celestial_serve::{build_pipeline, Envelope, ServePlane};
use celestial_sgp4::WalkerShell;
use celestial_sim::SimRng;
use celestial_types::geo::Geodetic;
use celestial_types::ids::NodeId;
use celestial_types::time::SimDuration;
use httpd::parser::{parse_request, Parse};
use httpd::{Client, Method, Request};
use serde_json::Value;
use std::sync::Arc;
use std::time::Instant;

const TOKEN: &str = "bench-e2e-token";
const SATELLITES: u32 = 24 * 24;

/// Untimed pause between `ServePlane::start` and the first connect (see
/// `Stack::start`).
const SETTLE: std::time::Duration = std::time::Duration::from_millis(3);

/// The designed request mix, in requests per block of 100. Every block of
/// 100 consecutive requests is a seeded permutation of exactly this mix, so
/// the rejected share is the designed 2 % by construction.
const MIX: [(Kind, usize); 7] = [
    (Kind::SelfInfo, 40),
    (Kind::Path, 30),
    (Kind::Satellite, 15),
    (Kind::GroundStation, 5),
    (Kind::Info, 8),
    (Kind::UnknownRoute, 1),
    (Kind::MissingToken, 1),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    SelfInfo,
    Path,
    Satellite,
    GroundStation,
    Info,
    UnknownRoute,
    MissingToken,
}

fn constellation() -> Constellation {
    Constellation::builder()
        .shell(Shell::from_walker(WalkerShell::new(550.0, 53.0, 24, 24)))
        .ground_station(GroundStation::new(
            "accra",
            Geodetic::new(5.6037, -0.187, 0.0),
        ))
        .ground_station(GroundStation::new(
            "abuja",
            Geodetic::new(9.0765, 7.3986, 0.0),
        ))
        .bounding_box(BoundingBox::west_africa())
        .build()
        .expect("valid serve constellation")
}

fn serve_config() -> ServeConfig {
    // Burst = refill = 2,000 with an update every 1,500 requests: the
    // limiter runs its hot path on every request and rejects nothing.
    ServeConfig {
        port: 0,
        workers: 1,
        rate_limit_burst: 2_000,
        rate_limit_per_epoch: 2_000,
        auth_tokens: vec![TOKEN.to_owned()],
        keep_alive: true,
    }
}

/// One generated request and what the benchmark expects back.
struct Generated {
    request: Request,
    kind: Kind,
    expected_status: u16,
    /// The emulated machine the request claims to come from.
    requester: NodeId,
}

/// The seeded request generator: the benchmark's own input, the program
/// under test only ever sees the requests.
struct Generator {
    rng: SimRng,
    block: Vec<Kind>,
    /// DNS stems of the nodes active at the current epoch (active
    /// satellites, then the ground stations), refreshed after every update.
    active: Vec<(NodeId, String)>,
}

impl Generator {
    fn new(seed: u64) -> Self {
        Generator {
            rng: SimRng::seed_from_u64(seed).derive("bench.serve"),
            block: Vec::new(),
            active: Vec::new(),
        }
    }

    fn refresh_active(&mut self, coordinator: &Coordinator) {
        let state = coordinator
            .database()
            .state()
            .expect("coordinator was updated");
        self.active.clear();
        let stations = (0..state.ground_station_count() as u32).map(NodeId::ground_station);
        for node in state
            .active_satellites()
            .into_iter()
            .map(NodeId::Satellite)
            .chain(stations)
        {
            let stem = node.dns_name().trim_end_matches(".celestial").to_owned();
            self.active.push((node, stem));
        }
    }

    fn pick_active(&mut self) -> (NodeId, String) {
        let index = self.rng.below(self.active.len() as u64) as usize;
        self.active[index].clone()
    }

    fn next(&mut self) -> Generated {
        if self.block.is_empty() {
            self.block = MIX
                .iter()
                .flat_map(|&(kind, n)| std::iter::repeat_n(kind, n))
                .collect();
            for i in (1..self.block.len()).rev() {
                let j = self.rng.below(i as u64 + 1) as usize;
                self.block.swap(i, j);
            }
        }
        let kind = self.block.pop().expect("block was just refilled");
        let (requester, requester_stem) = self.pick_active();
        let target = match kind {
            Kind::SelfInfo | Kind::MissingToken => "/self".to_owned(),
            Kind::Path => {
                let (_, a) = self.pick_active();
                let (_, b) = self.pick_active();
                format!("/path/{a}/{b}")
            }
            Kind::Satellite => format!("/sat/0/{}", self.rng.below(u64::from(SATELLITES))),
            Kind::GroundStation => {
                format!(
                    "/gst/{}",
                    if self.rng.below(2) == 0 {
                        "accra"
                    } else {
                        "abuja"
                    }
                )
            }
            Kind::Info => "/info".to_owned(),
            Kind::UnknownRoute => "/no/such/route".to_owned(),
        };
        let mut request = Request::new(Method::Get, target);
        request
            .headers
            .push(("x-celestial-node".to_owned(), requester_stem));
        if kind != Kind::MissingToken {
            request
                .headers
                .push(("Authorization".to_owned(), format!("Bearer {TOKEN}")));
        }
        let expected_status = match kind {
            Kind::UnknownRoute => 404,
            Kind::MissingToken => 401,
            _ => 200,
        };
        Generated {
            request,
            kind,
            expected_status,
            requester,
        }
    }
}

/// The serialized body the info API itself gives for `generated` on the
/// snapshot `store` currently publishes, as the handler stamps it.
fn reference_body(store: &SnapshotStore, generated: &Generated) -> Option<String> {
    let snapshot = store.load();
    let mut body = InfoApi::new(&snapshot.database)
        .handle_path(generated.requester, generated.request.path())
        .ok()?;
    if let Value::Map(entries) = &mut body {
        entries.push((
            Value::Str("snapshot_epoch".to_owned()),
            Value::U64(snapshot.epoch),
        ));
    }
    serde_json::to_string(&body).ok()
}

/// A running coordinator + serving plane + connected client.
struct Stack {
    coordinator: Coordinator,
    store: Arc<SnapshotStore>,
    plane: ServePlane,
    client: Client,
    epoch: u64,
}

impl Stack {
    /// Starts the stack and returns it with its `setup_s` sample:
    /// constellation → coordinator with snapshots → cold epoch 0 →
    /// `ServePlane::start`, then connect → the first 200.
    ///
    /// Between the two halves the benchmark waits, untimed, for the server's
    /// threads to settle. The acceptor polls with a 1 ms sleep; connecting
    /// straight after `start` races its first poll, and which side wins is
    /// the scheduler's mood of the minute (1.4 ms or 2.6 ms, in streaks).
    /// After the pause the connect lands at an arbitrary phase of the poll,
    /// which a mean over many constructions averages out.
    fn start() -> (Stack, f64) {
        let started = Instant::now();
        let interval = SimDuration::from_secs_f64(UPDATE_INTERVAL_S);
        let mut coordinator = Coordinator::new(constellation(), interval);
        let store = coordinator.enable_snapshots();
        coordinator.update(0.0).expect("cold epoch 0");
        let plane =
            ServePlane::start(&serve_config(), Arc::clone(&store)).expect("serve plane starts");
        let built_s = started.elapsed().as_secs_f64();
        std::thread::sleep(SETTLE);
        let connecting = Instant::now();
        let mut client = Client::connect(plane.addr()).expect("client connects");
        let auth = format!("Bearer {TOKEN}");
        let first = client
            .get_with_headers("/info", &[("Authorization", &auth)])
            .expect("first reply");
        assert_eq!(first.status, 200, "the first request is answered");
        let setup_s = built_s + connecting.elapsed().as_secs_f64();
        let stack = Stack {
            coordinator,
            store,
            plane,
            client,
            epoch: 0,
        };
        (stack, setup_s)
    }

    fn advance(&mut self) {
        self.epoch += 1;
        self.coordinator
            .update(self.epoch as f64 * UPDATE_INTERVAL_S)
            .expect("inline update");
    }

    fn stop(mut self) {
        drop(self.client);
        self.plane.shutdown();
    }
}

/// What one serve run observed.
#[derive(Debug, Default)]
pub struct ServeRun {
    pub setup_s: f64,
    pub step_ms: Vec<f64>,
    pub wall_s: f64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub digest: u64,
    /// Replies whose status was 4xx, of `step_ms.len()` measured requests.
    pub rejected: u64,
    pub bodies_checked: u64,
    /// Instrumented runs: process counters over the measured section.
    pub cpu_user_s: f64,
    pub cpu_sys_s: f64,
    pub allocations: u64,
    /// The coordinator's handover statistics over the whole run.
    pub pipeline: PipelineStats,
}

/// One `setup_s` sample: start the stack, get the first 200, stop.
pub fn setup_once() -> f64 {
    let (stack, setup_s) = Stack::start();
    stack.stop();
    setup_s
}

/// Runs `warmup + measured` requests. `instrument` counts allocations and
/// reads the process CPU counters over the measured section; with a tracer,
/// every measured request is first driven by hand through the layers and
/// `ledger` re-enacts each inline update.
pub fn run(
    seed: u64,
    warmup: u64,
    measured: u64,
    instrument: bool,
    mut traced: Option<(&mut Tracer, &mut ComputeLedger)>,
) -> ServeRun {
    let (mut stack, setup_s) = Stack::start();
    let mut result = ServeRun {
        setup_s,
        ..ServeRun::default()
    };
    let (pipeline, _) = build_pipeline(&serve_config(), Arc::clone(&stack.store));

    let mut generator = Generator::new(seed);
    generator.refresh_active(&stack.coordinator);
    let mut sampler = SimRng::seed_from_u64(seed).derive("bench.serve.sample");
    let mut digest = Fnv::new();
    let mut step_ms: Vec<f64> = Vec::with_capacity(measured as usize);
    let mut section_start = Instant::now();
    let mut section_cpu = (0.0, 0.0);

    for index in 0..warmup + measured {
        if index == warmup {
            if instrument {
                section_cpu = stats::cpu_seconds();
                trace::arm_allocator(true);
                result.allocations = trace::allocations();
            }
            section_start = Instant::now();
        }
        if index > 0 && index % SERVE_REQUESTS_PER_EPOCH == 0 {
            stack.advance();
            generator.refresh_active(&stack.coordinator);
            if let Some((tracer, ledger)) = &mut traced {
                let t = stack.epoch as f64 * UPDATE_INTERVAL_S;
                ledger.step(t, index as u32, index >= warmup, tracer);
            }
        }
        let generated = generator.next();
        let in_section = index >= warmup;

        let mut roundtrip_id = 0;
        if let (Some((tracer, _)), true) = (&mut traced, in_section) {
            let step = index as u32;
            roundtrip_id = tracer.reserve();
            let handle_id = tracer.reserve();
            let raw = generated.request.to_bytes();
            tracer.time("httpd.parse", roundtrip_id, step, || {
                assert!(matches!(parse_request(&raw), Parse::Complete { .. }));
            });
            let snapshot = stack.store.load();
            tracer.time("core.info_api.handle", handle_id, step, || {
                let api = InfoApi::new(&snapshot.database);
                std::hint::black_box(
                    api.handle_path(generated.requester, generated.request.path())
                        .is_ok(),
                );
            });
            tracer.time_as(handle_id, "serve.handle", roundtrip_id, step, || {
                let mut envelope = Envelope::new(generated.request.clone());
                std::hint::black_box(pipeline.handle(&mut envelope).status);
            });
        }

        let sent = Instant::now();
        let reply = match &mut traced {
            Some((tracer, _)) if in_section => {
                let client = &mut stack.client;
                tracer.time_as(roundtrip_id, "httpd.roundtrip", 0, index as u32, || {
                    client.request(&generated.request)
                })
            }
            _ => stack.client.request(&generated.request),
        };
        let elapsed = sent.elapsed();
        if !in_section {
            continue;
        }
        step_ms.push(elapsed.as_secs_f64() * 1e3);

        // Correctness, counted into failed steps: the status is the expected
        // one, and a seeded sample of 200 bodies equals the info API's own
        // answer on the same snapshot epoch (the load thread is the only
        // publisher, so the epoch cannot move under the comparison).
        let mut failure = None;
        match &reply {
            Err(error) => failure = Some(format!("request {index}: {error}")),
            Ok(reply) => {
                result.rejected += u64::from(reply.status >= 400);
                digest.write_u64(u64::from(reply.status));
                if reply.status != generated.expected_status {
                    failure = Some(format!(
                        "request {index} {}: status {} instead of {}",
                        generated.request.target, reply.status, generated.expected_status
                    ));
                }
                // `/info` carries wall-clock pipeline timings; every other
                // body is a pure function of the snapshot.
                if generated.kind != Kind::Info {
                    digest.write(&reply.body);
                    if reply.status == 200 && sampler.below(100) < SERVE_BODY_SAMPLE_PERCENT {
                        result.bodies_checked += 1;
                        let reference = reference_body(&stack.store, &generated);
                        if reference.as_deref().map(str::as_bytes) != Some(&reply.body[..]) {
                            failure = Some(format!(
                                "request {index} {}: body differs from InfoApi::handle_path",
                                generated.request.target
                            ));
                        }
                    }
                }
            }
        }
        if let Some(failure) = failure {
            result.failed += 1;
            if result.failures.len() < 4 {
                result.failures.push(failure);
            }
        }
    }
    result.wall_s = section_start.elapsed().as_secs_f64();
    if instrument {
        trace::arm_allocator(false);
        result.allocations = trace::allocations() - result.allocations;
        let (user, system) = stats::cpu_seconds();
        result.cpu_user_s = user - section_cpu.0;
        result.cpu_sys_s = system - section_cpu.1;
    }
    result.step_ms = step_ms;
    result.digest = digest.finish();
    result.pipeline = stack.coordinator.pipeline_stats();
    stack.stop();
    result
}

/// The compute ledger re-enacting `serve`'s inline updates (one tenant,
/// global plane, snapshots on).
pub fn compute_ledger() -> ComputeLedger {
    ComputeLedger::new(
        constellation(),
        vec!["tenant-0".to_owned()],
        None,
        ScopeParams::default(),
        true,
    )
}
