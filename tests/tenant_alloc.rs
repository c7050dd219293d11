//! Steady-state allocation capacity of the multi-tenant fan-out
//! (`docs/TENANTS.md`): adding tenants to one epoch pipeline must not add
//! allocation churn. The shared epoch core (propagation buffers, snapshot
//! diff, path solve) already recycles; the per-tenant lanes (delta buffers,
//! programme mirrors) must recycle too, so the marginal allocation cost of
//! a tenant is a small fraction of a solo epoch and per-epoch counts stay
//! flat as the run ages. The core itself travels by swap and by `Arc`
//! (`docs/PIPELINE.md`), so a coordinator nobody straggles behind must
//! allocate no state- or matrix-sized buffer per update in either pipeline
//! mode: recycling must never degrade into minting a fresh core per epoch.
//! Last, a whole testbed soaks under chaos (`docs/CHAOS.md`): its journal
//! and allocation growth per block must stay flat once warmed up.
//!
//! The test binary installs a counting global allocator, so everything runs
//! in ONE `#[test]` — parallel test threads would pollute the counter.

mod common;

use celestial::config::{ChaosConfig, TestbedConfig};
use celestial::invariants::SoakMeter;
use celestial::pipeline::{EpochCompute, EpochPipeline, PipelineMode};
use celestial::testbed::{AppContext, GuestApplication, Testbed};
use celestial::Coordinator;
use celestial_constellation::{BoundingBox, Constellation, GroundStation, Shell};
use celestial_netem::Packet;
use celestial_sgp4::WalkerShell;
use celestial_types::geo::Geodetic;
use celestial_types::time::SimDuration;
use common::lockstep::Journal;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// A pass-through allocator that counts allocation events. Reallocation
/// counts as one event; frees are not counted (growth is what churn looks
/// like).
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Allocation events of at least [`LARGE`] bytes. On the test constellation
/// (194 nodes, ~60 solved rows) only an epoch core's buffers are this big:
/// the distance and predecessor matrices (~90 and ~45 KiB) and the link
/// list; everything the lanes and reports allocate is far smaller.
static LARGE_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
const LARGE: usize = 16 * 1024;

fn count(size: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    if size >= LARGE {
        LARGE_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

const WARMUP_EPOCHS: u32 = 6;
const WINDOW_EPOCHS: u32 = 10;

fn constellation() -> Constellation {
    Constellation::builder()
        .shell(Shell::from_walker(WalkerShell::new(550.0, 53.0, 12, 16)))
        .ground_station(GroundStation::new("accra", Geodetic::new(5.6037, -0.187, 0.0)))
        .ground_station(GroundStation::new("abuja", Geodetic::new(9.0765, 7.3986, 0.0)))
        .bounding_box(BoundingBox::west_africa())
        .build()
        .expect("valid constellation")
}

/// Steady-state allocation events per epoch of the bare pipeline fan-out
/// (advance + recycle, no coordinator), measured over two consecutive
/// windows after warm-up.
fn pipeline_windows(tenants: usize) -> (u64, u64) {
    let mut compute = EpochCompute::new(constellation());
    compute.set_tenant_count(tenants);
    let mut pipeline = EpochPipeline::new(
        compute,
        PipelineMode::Synchronous,
        SimDuration::from_secs(1),
    );
    let mut epoch = 0u32;
    let mut run = |pipeline: &mut EpochPipeline, epochs: u32| {
        let before = allocations();
        for _ in 0..epochs {
            let bundle = pipeline.advance(f64::from(epoch)).expect("epoch");
            pipeline.recycle(bundle);
            epoch += 1;
        }
        allocations() - before
    };
    let _ = run(&mut pipeline, WARMUP_EPOCHS);
    let first = run(&mut pipeline, WINDOW_EPOCHS);
    let second = run(&mut pipeline, WINDOW_EPOCHS);
    (first, second)
}

/// Steady-state allocation events per epoch of a full coordinator fan-out
/// (core install, snapshot publication, lane replay, `/info` slices, diff
/// extraction): two consecutive windows, and the large allocations of both.
fn coordinator_windows(tenants: usize, mode: PipelineMode) -> (u64, u64, u64) {
    let names = (0..tenants).map(|i| format!("tenant-{i}")).collect();
    let mut coordinator =
        Coordinator::with_fanout(constellation(), SimDuration::from_secs(1), mode, None, names);
    coordinator.enable_snapshots();
    let mut epoch = 0u32;
    let mut run = |coordinator: &mut Coordinator, epochs: u32| {
        let before = allocations();
        for _ in 0..epochs {
            coordinator.update(f64::from(epoch)).expect("update");
            epoch += 1;
        }
        allocations() - before
    };
    let _ = run(&mut coordinator, WARMUP_EPOCHS);
    let large_before = LARGE_ALLOCATIONS.load(Ordering::Relaxed);
    let first = run(&mut coordinator, WINDOW_EPOCHS);
    let second = run(&mut coordinator, WINDOW_EPOCHS);
    // Dropping the coordinator joins the pipelined worker, so its last
    // prefetch is inside the count.
    drop(coordinator);
    (first, second, LARGE_ALLOCATIONS.load(Ordering::Relaxed) - large_before)
}

const SOAK_BLOCK_S: u64 = 60;

/// The chaos soak: the 12×16 shell over West Africa, pipelined, on a 4-host
/// sharded plane with every chaos generator on, for ten simulated minutes
/// at 1 s epochs.
fn soak_config() -> TestbedConfig {
    TestbedConfig::builder()
        .seed(11)
        .update_interval_s(1.0)
        .duration_s(600.0)
        .shell(Shell::from_walker(WalkerShell::new(550.0, 53.0, 12, 16)))
        .ground_station(GroundStation::new("accra", Geodetic::new(5.6037, -0.187, 0.0)))
        .ground_station(GroundStation::new("abuja", Geodetic::new(9.0765, 7.3986, 0.0)))
        .bounding_box(BoundingBox::west_africa())
        .pipeline(PipelineMode::Pipelined)
        .shards(4)
        .chaos(ChaosConfig::default())
        .build()
        .expect("valid soak config")
}

/// The lockstep journalling ping application, plus one `(journal bytes,
/// allocation events)` growth sample per [`SOAK_BLOCK_S`] block.
#[derive(Default)]
struct Soak {
    app: Journal,
    samples: Vec<(u64, u64)>,
    last: (u64, u64),
}

impl Soak {
    fn totals(&self) -> (u64, u64) {
        (self.app.journal_bytes(), allocations())
    }
}

impl GuestApplication for Soak {
    fn on_start(&mut self, ctx: &mut AppContext<'_>) {
        self.app.on_start(ctx);
        self.last = self.totals();
    }

    fn on_constellation_update(&mut self, ctx: &mut AppContext<'_>) {
        self.app.on_constellation_update(ctx);
        let seconds = ctx.now().as_micros() / 1_000_000;
        if seconds > 0 && seconds % SOAK_BLOCK_S == 0 {
            let now = self.totals();
            self.samples.push((now.0 - self.last.0, now.1 - self.last.1));
            self.last = now;
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut AppContext<'_>) {
        self.app.on_timer(tag, ctx);
    }

    fn on_message(&mut self, message: &Packet, ctx: &mut AppContext<'_>) {
        self.app.on_message(message, ctx);
    }
}

#[test]
fn tenant_fanout_does_not_add_steady_state_allocation_churn() {
    // --- Bare pipeline: the fan-out path proper. ---
    let (solo_1, solo_2) = pipeline_windows(1);
    let (fleet_1, fleet_2) = pipeline_windows(4);
    println!(
        "pipeline allocs/window: solo {solo_1}/{solo_2}, 4 tenants {fleet_1}/{fleet_2}"
    );

    // Per-epoch counts must be flat as the run ages: recycling means the
    // second window costs no more than the first (small jitter allowed —
    // the programme delta varies epoch to epoch).
    let flat = |label: &str, first: u64, second: u64| {
        assert!(
            second <= first + first / 4 + 32,
            "{label}: allocation churn grows across windows ({first} -> {second})"
        );
    };
    flat("pipeline solo", solo_1, solo_2);
    flat("pipeline fleet", fleet_1, fleet_2);

    // Three additional tenants must cost only a small fraction of a solo
    // epoch: the shared core (propagation, diff, solve) is not re-run and
    // the per-tenant lane buffers recycle.
    let marginal = fleet_2.saturating_sub(solo_2) / 3;
    assert!(
        marginal <= solo_2 / 4 + 32,
        "pipeline: marginal per-tenant allocs {marginal}/epoch-window vs solo {solo_2}"
    );

    // --- Full coordinator: fan-out plus lane replay and /info slices. ---
    for mode in PipelineMode::ALL {
        let (csolo_1, csolo_2, csolo_large) = coordinator_windows(1, mode);
        let (cfleet_1, cfleet_2, cfleet_large) = coordinator_windows(4, mode);
        println!(
            "{mode:?} coordinator allocs/window: solo {csolo_1}/{csolo_2}, 4 tenants \
             {cfleet_1}/{cfleet_2}; large: {csolo_large}, {cfleet_large}"
        );
        flat("coordinator solo", csolo_1, csolo_2);
        flat("coordinator fleet", cfleet_1, cfleet_2);
        let marginal = cfleet_2.saturating_sub(csolo_2) / 3;
        assert!(
            marginal <= csolo_2 / 4 + 64,
            "{mode:?} coordinator: marginal per-tenant allocs {marginal}/epoch-window vs solo {csolo_2}"
        );
        // Installing and publishing share the core and the retired one
        // comes back to be swapped into: a minted core would cost at least
        // two large allocations per epoch, forty over the two windows. A
        // rotating buffer may still grow once when the scope gains a row.
        for large in [csolo_large, cfleet_large] {
            assert!(
                large <= 2 * u64::from(WINDOW_EPOCHS) / 4,
                "{mode:?} coordinator: {large} state/matrix-sized allocations in steady state"
            );
        }
    }

    // --- Chaos soak: the whole testbed stays flat under churn. ---
    let mut testbed = Testbed::new(&soak_config()).expect("soak testbed");
    let chaos_events = testbed.chaos_events();
    assert!(chaos_events > 0, "chaos scheduled nothing: a vacuous soak");
    let mut soak = Soak::default();
    testbed.run(&mut soak).expect("soak run");
    assert_eq!(testbed.failed_recoveries(), 0, "recoveries failed during the soak");
    let mut meter = SoakMeter::new();
    for &(journal, allocs) in &soak.samples {
        meter.record_block(journal, allocs);
    }
    println!(
        "chaos soak: {chaos_events} chaos events, (journal B, allocs) per block {:?}",
        meter.blocks()
    );
    let verdict = meter.verdict(2, 2.0);
    assert!(verdict.is_ok(), "chaos soak not flat: {verdict:?}");
}
