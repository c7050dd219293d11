//! The three epoch workloads (`megascale`, `fleet`, `chaos`) run whole
//! through the testbed's public entry points: configuration → `Testbed::new`
//! → `Testbed::run_fleet`, timed from the benchmark's own
//! [`GuestApplication`] wrapper.
//!
//! A *step* is one epoch boundary of the running testbed — constellation
//! update, per-tenant apply, guest callbacks and the play-out of that
//! epoch's events — measured as the wall time between successive
//! `on_constellation_update` calls of tenant 0. The loop is closed: the
//! event loop waits for its epoch, guests wait for their deliveries.

use crate::stats::{self, Fnv};
use crate::table::{Workload, LATENCY_QUANTUM_US, UPDATE_INTERVAL_S};
use crate::trace;
use celestial::config::{ChaosConfig, HostConfig, TestbedConfig};
use celestial::invariants::{check_no_uncapped, programme_divergence};
use celestial::pipeline::{PipelineMode, PipelineStats};
use celestial::testbed::{AppContext, GuestApplication, Testbed};
use celestial::Coordinator;
use celestial_apps::ScenarioTenant;
use celestial_constellation::{BoundingBox, Constellation, GroundStation, Shell};
use celestial_netem::{Packet, PairProgram};
use celestial_sgp4::WalkerShell;
use celestial_types::geo::Geodetic;
use celestial_types::ids::NodeId;
use celestial_types::time::{SimDuration, SimInstant};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::time::Instant;

/// `examples/scenario.toml` exactly as shipped; `fleet` overrides only
/// `duration-s` (and adds `--seed` to the shipped seed).
const SCENARIO_TOML: &str = include_str!("../../scenario.toml");

/// Seed of the `bench_chaos` soak configuration; `--seed` is added to it.
const CHAOS_BASE_SEED: u64 = 11;

/// Hosts of the sharded plane in `chaos`.
const CHAOS_SHARDS: u32 = 4;

fn stations() -> [GroundStation; 2] {
    [
        GroundStation::new("accra", Geodetic::new(5.6037, -0.187, 0.0)),
        GroundStation::new("abuja", Geodetic::new(9.0765, 7.3986, 0.0)),
    ]
}

/// The configuration of an epoch workload running `epochs` updates after
/// the cold epoch 0. `--seed` feeds only `TestbedConfig.seed`.
pub fn build_config(workload: Workload, seed: u64, epochs: u64) -> TestbedConfig {
    let duration_s = epochs as f64 * UPDATE_INTERVAL_S;
    match workload {
        Workload::Megascale => TestbedConfig::builder()
            .seed(seed)
            .update_interval_s(UPDATE_INTERVAL_S)
            .duration_s(duration_s)
            .shell(Shell::from_walker(WalkerShell::new(550.0, 53.0, 128, 128)))
            .ground_stations(stations())
            .bounding_box(BoundingBox::west_africa())
            .hosts(vec![HostConfig::default()])
            .pipeline(PipelineMode::Synchronous)
            .build()
            .expect("valid megascale config"),
        Workload::Fleet => {
            let mut config =
                TestbedConfig::from_toml(SCENARIO_TOML).expect("examples/scenario.toml parses");
            config.duration_s = duration_s;
            config.seed += seed;
            config
        }
        Workload::Chaos => TestbedConfig::builder()
            .seed(CHAOS_BASE_SEED + seed)
            .update_interval_s(UPDATE_INTERVAL_S)
            .duration_s(duration_s)
            .shell(Shell::from_walker(WalkerShell::new(550.0, 53.0, 12, 16)))
            .ground_stations(stations())
            .bounding_box(BoundingBox::west_africa())
            .pipeline(PipelineMode::Pipelined)
            .shards(CHAOS_SHARDS)
            .chaos(ChaosConfig::default())
            .build()
            .expect("valid chaos config"),
        Workload::Serve => unreachable!("serve is not an epoch workload"),
    }
}

/// What a benchmark guest contributes to the workload's journal digest.
pub trait Journal {
    fn digest_into(&self, fnv: &mut Fnv);
}

/// The no-op guest of `megascale`: the probe in [`Guest`] is the whole app.
#[derive(Default)]
pub struct Quiet;

impl GuestApplication for Quiet {}

impl Journal for Quiet {
    fn digest_into(&self, _: &mut Fnv) {}
}

impl Journal for ScenarioTenant {
    fn digest_into(&self, fnv: &mut Fnv) {
        for line in self.journal() {
            fnv.write(line.as_bytes());
        }
    }
}

/// The journalling ping application of the `bench_chaos` soak: one ping and
/// one journal line per simulated second between the two stations.
#[derive(Default)]
pub struct Pinger {
    accra: Option<NodeId>,
    abuja: Option<NodeId>,
    journal: String,
    sent_at: BTreeMap<u64, SimInstant>,
    next_seq: u64,
    rtts: u64,
    last_rtt_ms: f64,
}

impl Pinger {
    fn send_ping(&mut self, ctx: &mut AppContext<'_>) {
        let (Some(a), Some(b)) = (self.accra, self.abuja) else {
            return;
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        self.sent_at.insert(seq, ctx.now());
        // Pings lost to chaos never return; keep the in-flight map bounded.
        self.sent_at.retain(|&s, _| seq.saturating_sub(s) < 64);
        ctx.send(a, b, 1_250, seq.to_le_bytes().to_vec());
    }
}

impl GuestApplication for Pinger {
    fn on_start(&mut self, ctx: &mut AppContext<'_>) {
        self.accra = ctx.ground_station("accra");
        self.abuja = ctx.ground_station("abuja");
        self.last_rtt_ms = f64::NAN;
        self.send_ping(ctx);
        ctx.set_timer(SimDuration::from_secs(1), 0);
    }

    fn on_timer(&mut self, _tag: u64, ctx: &mut AppContext<'_>) {
        self.send_ping(ctx);
        let accra_up = self.accra.is_some_and(|n| ctx.is_running(n));
        let abuja_up = self.abuja.is_some_and(|n| ctx.is_running(n));
        let _ = writeln!(
            self.journal,
            "t={:?} pings={} rtts={} last_rtt_ms={:.3} accra_up={accra_up} abuja_up={abuja_up}",
            ctx.now(),
            self.next_seq,
            self.rtts,
            self.last_rtt_ms,
        );
        ctx.set_timer(SimDuration::from_secs(1), 0);
    }

    fn on_message(&mut self, message: &Packet, ctx: &mut AppContext<'_>) {
        let Some(seq) = message.payload.get(..8) else {
            return;
        };
        let seq = u64::from_le_bytes(seq.try_into().expect("8 bytes"));
        if let Some(sent) = self.sent_at.remove(&seq) {
            self.rtts += 1;
            self.last_rtt_ms = (ctx.now() - sent).as_secs_f64() * 1_000.0;
        }
    }
}

impl Journal for Pinger {
    fn digest_into(&self, fnv: &mut Fnv) {
        fnv.write(self.journal.as_bytes());
    }
}

/// Payload a setup-only construction unwinds with from `on_start`: the
/// testbed has no stop call, and `setup_s` ends exactly there.
struct SetupDone;

/// Tenant 0's step clock and per-epoch probe.
struct Clock {
    /// `stamps[0]` is `on_start`; `stamps[k]` the k-th constellation update.
    stamps: Vec<Instant>,
    accra: Option<NodeId>,
    abuja: Option<NodeId>,
    failed_steps: u64,
    first_failure: Option<String>,
    digest: Fnv,
    stop_after_start: bool,
    /// Stamp index at which the measured section starts, and the process
    /// counters `(user s, system s, allocations)` read there.
    mark_at: usize,
    mark: Option<(f64, f64, u64)>,
}

impl Clock {
    /// The probe: emulated and expected latency between the two stations
    /// agree within the programming quantum, or both are absent.
    fn probe(&mut self, ctx: &AppContext<'_>) {
        let (Some(a), Some(b)) = (self.accra, self.abuja) else {
            return;
        };
        let expected = ctx.expected_latency(a, b).map(|l| l.as_micros());
        let emulated = ctx.emulated_latency(a, b).map(|l| l.as_micros());
        self.digest.write_u64(ctx.now().as_micros());
        self.digest.write_u64(expected.unwrap_or(u64::MAX));
        self.digest.write_u64(emulated.unwrap_or(u64::MAX));
        let faithful = match (expected, emulated) {
            (Some(e), Some(m)) => e.abs_diff(m) <= LATENCY_QUANTUM_US,
            (None, None) => true,
            _ => false,
        };
        if !faithful {
            self.failed_steps += 1;
            self.first_failure.get_or_insert_with(|| {
                format!(
                    "latency probe at {:?}: expected {expected:?} us, emulated {emulated:?} us",
                    ctx.now()
                )
            });
        }
    }
}

/// Callback accounting of an instrumented run.
#[derive(Default, Clone, Copy)]
struct Meter {
    callback_ns: u64,
    /// `on_timer` + `on_message` calls: the guest-visible simulation events.
    events: u64,
}

/// The benchmark's wrapper around every guest: tenant 0 carries the step
/// clock and the probe; instrumented runs also meter every callback.
pub struct Guest<A> {
    inner: A,
    clock: Option<Clock>,
    meter: Option<Meter>,
}

impl<A: GuestApplication> Guest<A> {
    fn metered(&mut self, started: Option<Instant>, event: bool) {
        if let (Some(meter), Some(started)) = (&mut self.meter, started) {
            meter.callback_ns += started.elapsed().as_nanos() as u64;
            meter.events += u64::from(event);
        }
    }
}

impl<A: GuestApplication> GuestApplication for Guest<A> {
    fn on_start(&mut self, ctx: &mut AppContext<'_>) {
        if let Some(clock) = &mut self.clock {
            clock.stamps.push(Instant::now());
            if clock.stop_after_start {
                resume_unwind(Box::new(SetupDone));
            }
            clock.accra = ctx.ground_station("accra");
            clock.abuja = ctx.ground_station("abuja");
            clock.probe(ctx);
        }
        let started = self.meter.map(|_| Instant::now());
        self.inner.on_start(ctx);
        self.metered(started, false);
    }

    fn on_constellation_update(&mut self, ctx: &mut AppContext<'_>) {
        if let Some(clock) = &mut self.clock {
            clock.stamps.push(Instant::now());
            if clock.stamps.len() == clock.mark_at + 1 {
                let (user, system) = stats::cpu_seconds();
                clock.mark = Some((user, system, trace::allocations()));
            }
            clock.probe(ctx);
        }
        let started = self.meter.map(|_| Instant::now());
        self.inner.on_constellation_update(ctx);
        self.metered(started, false);
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut AppContext<'_>) {
        let started = self.meter.map(|_| Instant::now());
        self.inner.on_timer(tag, ctx);
        self.metered(started, true);
    }

    fn on_message(&mut self, message: &Packet, ctx: &mut AppContext<'_>) {
        let started = self.meter.map(|_| Instant::now());
        self.inner.on_message(message, ctx);
        self.metered(started, true);
    }
}

/// How a real run is driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Tenant 0's step clock only: the source of every end-to-end number.
    Plain,
    /// Additionally meters every guest callback, counts allocations and
    /// reads the process CPU counters (traced run only).
    Instrumented,
    /// Construct, run until `on_start`, stop: one `setup_s` sample.
    SetupOnly,
}

/// Setup-phase spans measured from outside, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupParts {
    pub config_s: f64,
    pub testbed_new_s: f64,
    pub generate_s: f64,
}

/// What one real run observed.
#[derive(Debug, Default)]
pub struct EpochRun {
    /// Config parse → `Testbed::new` → fleet generation → ground-station
    /// boot → cold epoch 0, until tenant 0's `on_start`.
    pub setup_s: f64,
    pub setup_parts: SetupParts,
    /// The measured steps in run order, milliseconds.
    pub step_ms: Vec<f64>,
    /// Wall time of the whole measured section, seconds.
    pub wall_s: f64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub digest: u64,
    pub tenants: usize,
    pub pipeline: PipelineStats,
    pub chaos_events: u64,
    /// Packets the guests put on the emulated network, all tenants.
    pub sends: u64,
    /// Updates run after the cold epoch 0 (warm-up + measured).
    pub epochs: u64,
    /// Instrumented runs: nanoseconds inside guest callbacks, all tenants.
    pub callback_ns: u64,
    /// Instrumented runs: `on_timer` + `on_message` calls, all tenants.
    pub guest_events: u64,
    /// Instrumented runs: process counters over the measured section.
    pub cpu_user_s: f64,
    pub cpu_sys_s: f64,
    pub allocations: u64,
    /// Tenant 0's network programme after the last update.
    pub final_programme: Vec<PairProgram>,
}

/// Runs one epoch workload for `warmup + measured` updates.
pub fn run(workload: Workload, seed: u64, warmup: u64, measured: u64, mode: Mode) -> EpochRun {
    let epochs = warmup + measured;
    if !workload.pinned_from_start() {
        stats::run_on_all_cpus();
    }
    let started = Instant::now();
    let config = build_config(workload, seed, epochs);
    let config_s = started.elapsed().as_secs_f64();
    let testbed = Testbed::new(&config).expect("testbed builds");
    let testbed_new_s = started.elapsed().as_secs_f64() - config_s;
    let mut parts = SetupParts {
        config_s,
        testbed_new_s,
        generate_s: 0.0,
    };
    match workload {
        Workload::Megascale => drive(started, testbed, vec![Quiet], parts, warmup, mode),
        Workload::Fleet => {
            let generating = Instant::now();
            let fleet = ScenarioTenant::generate(&config).expect("scenario fleet generates");
            parts.generate_s = generating.elapsed().as_secs_f64();
            drive(started, testbed, fleet, parts, warmup, mode)
        }
        Workload::Chaos => {
            let mut result = drive(
                started,
                testbed,
                vec![Pinger::default()],
                parts,
                warmup,
                mode,
            );
            if mode != Mode::SetupOnly {
                check_chaos_converged(&config, &mut result);
            }
            result
        }
        Workload::Serve => unreachable!("serve is not an epoch workload"),
    }
}

fn drive<A: GuestApplication + Journal>(
    started: Instant,
    mut testbed: Testbed,
    apps: Vec<A>,
    setup_parts: SetupParts,
    warmup: u64,
    mode: Mode,
) -> EpochRun {
    let epochs = (testbed.config().duration_s / UPDATE_INTERVAL_S).round() as u64;
    let tenants = testbed.tenant_count();
    let mut guests: Vec<Guest<A>> = apps
        .into_iter()
        .map(|inner| Guest {
            inner,
            clock: None,
            meter: (mode == Mode::Instrumented).then(Meter::default),
        })
        .collect();
    guests[0].clock = Some(Clock {
        stamps: Vec::with_capacity(epochs as usize + 1),
        accra: None,
        abuja: None,
        failed_steps: 0,
        first_failure: None,
        digest: Fnv::new(),
        stop_after_start: mode == Mode::SetupOnly,
        mark_at: warmup as usize,
        mark: None,
    });

    trace::arm_allocator(mode == Mode::Instrumented);
    // From here on one CPU (see `stats::run_on_one_cpu`); the testbed was
    // constructed on the CPUs its workload constructs on.
    if !stats::run_on_one_cpu() {
        eprintln!("# could not pin to one CPU; step times may be bimodal");
    }
    let outcome = {
        let mut refs: Vec<&mut dyn GuestApplication> = guests
            .iter_mut()
            .map(|g| g as &mut dyn GuestApplication)
            .collect();
        catch_unwind(AssertUnwindSafe(|| testbed.run_fleet(&mut refs)))
    };
    let (cpu_user_end, cpu_sys_end) = stats::cpu_seconds();
    let allocations_end = trace::allocations();
    trace::arm_allocator(false);

    let mut result = EpochRun {
        setup_parts,
        tenants,
        epochs,
        ..EpochRun::default()
    };
    let clock = guests[0].clock.take().expect("tenant 0 carries the clock");
    result.setup_s = clock.stamps.first().map_or(0.0, |on_start| {
        on_start.duration_since(started).as_secs_f64()
    });
    match outcome {
        Err(payload) if payload.is::<SetupDone>() => {
            assert!(
                mode == Mode::SetupOnly,
                "only a setup-only run stops at on_start"
            );
            return result;
        }
        Err(payload) => resume_unwind(payload),
        Ok(run) => run.expect("testbed run"),
    }

    assert_eq!(
        clock.stamps.len() as u64,
        epochs + 1,
        "one stamp per constellation update plus on_start"
    );
    let first = warmup as usize;
    result.step_ms = clock.stamps[first..]
        .windows(2)
        .map(|pair| pair[1].duration_since(pair[0]).as_secs_f64() * 1e3)
        .collect();
    result.wall_s = clock.stamps[epochs as usize]
        .duration_since(clock.stamps[first])
        .as_secs_f64();

    result.failed = clock.failed_steps;
    result.failures.extend(clock.first_failure);
    let programme = testbed
        .coordinator()
        .network_programme()
        .expect("programme after the run");
    let uncapped = check_no_uncapped(&programme);
    result.failed += uncapped.len() as u64;
    result.failures.extend(uncapped.into_iter().take(4));
    result.final_programme = programme;
    let failed_recoveries: u64 = testbed
        .tenants()
        .iter()
        .map(|t| t.failed_recoveries())
        .sum();
    if failed_recoveries > 0 {
        result.failed += failed_recoveries;
        result
            .failures
            .push(format!("{failed_recoveries} post-fault recoveries failed"));
    }

    let mut digest = clock.digest;
    for guest in &guests {
        guest.inner.digest_into(&mut digest);
    }
    result.digest = digest.finish();
    result.pipeline = testbed.coordinator().pipeline_stats();
    result.chaos_events = testbed.chaos_events();
    result.sends = testbed
        .tenants()
        .iter()
        .map(|t| t.network().counters().0)
        .sum();
    for meter in guests.iter().filter_map(|g| g.meter) {
        result.callback_ns += meter.callback_ns;
        result.guest_events += meter.events;
    }
    if let Some((user, system, allocations)) = clock.mark {
        result.cpu_user_s = cpu_user_end - user;
        result.cpu_sys_s = cpu_sys_end - system;
        result.allocations = allocations_end - allocations;
    }
    result
}

/// The chaos convergence check: every chaos window ends two intervals
/// before the horizon, so the run's final programme must equal the programme
/// a fault-free coordinator derives at the same instant, bit for bit.
fn check_chaos_converged(config: &TestbedConfig, result: &mut EpochRun) {
    let fault_free = Constellation::builder()
        .shells(config.shells.iter().cloned())
        .ground_stations(config.ground_stations.iter().cloned())
        .bounding_box(config.bounding_box)
        .path_algorithm(config.path_algorithm)
        .build()
        .expect("fault-free constellation");
    let interval = SimDuration::from_secs_f64(config.update_interval_s);
    let mut reference = Coordinator::new(fault_free, interval);
    let t_final = SimInstant::from_secs_f64(config.duration_s).as_secs_f64();
    reference.update(t_final).expect("reference update");
    let reference = reference.network_programme().expect("reference programme");
    let divergence = programme_divergence(&reference, &result.final_programme);
    result.failed += divergence.len() as u64;
    result.failures.extend(divergence.into_iter().take(4));
}
