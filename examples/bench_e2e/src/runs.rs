//! One workload, one run: the untraced run that yields the five end-to-end
//! metrics, and the traced run that yields the per-layer ledger. No
//! end-to-end number is ever taken from a traced run.

use crate::epoch::{self, Mode};
use crate::ledger::{Counts, EpochLedger};
use crate::serve;
use crate::stats;
use crate::table::{
    Sizes, Workload, END_TO_END, LATENCY_QUANTUM_US, PER_LAYER, SETUP_BATCHES, UPDATE_INTERVAL_S,
};
use crate::trace::Tracer;
use celestial::testbed::Testbed;
use celestial_machines::chaos::{ChaosEngine, ChaosTopology};
use celestial_sim::SimRng;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// A named measurement with its unit.
pub type Metric = (&'static str, f64, &'static str);

/// What one run of one workload reports.
pub struct Report {
    pub workload: Workload,
    /// Measured steps attempted — each one a step-time sample behind the
    /// percentiles — and how many failed a correctness check.
    pub attempted: u64,
    pub failed: u64,
    pub journal_digest: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

/// The percentile and throughput metrics of a measured section.
fn step_metrics(step_ms: &[f64], wall_s: f64) -> (f64, f64, f64) {
    let mut sorted = step_ms.to_vec();
    stats::sort(&mut sorted);
    (
        stats::percentile(&sorted, 50.0),
        stats::percentile(&sorted, 90.0),
        step_ms.len() as f64 / wall_s,
    )
}

/// The untraced run: `SETUP_BATCHES × sizes.setups_per_batch` fresh
/// constructions (the last one carries on into the measured run), then the
/// five end-to-end metrics.
pub fn untraced(workload: Workload, seed: u64, sizes: Sizes) -> Report {
    let constructions = SETUP_BATCHES * sizes.setups_per_batch;
    let mut setups: Vec<f64> = Vec::with_capacity(constructions);
    let (step_ms, wall_s, failed, failures, digest, mut notes);
    if workload == Workload::Serve {
        for _ in 1..constructions {
            setups.push(serve::setup_once());
        }
        let run = serve::run(seed, sizes.warmup, sizes.measured, false, None);
        setups.push(run.setup_s);
        notes = vec![format!(
            "rejected {} of {} (designed 2 %), {} bodies compared with InfoApi::handle_path",
            run.rejected,
            run.step_ms.len(),
            run.bodies_checked
        )];
        (step_ms, wall_s, failed, failures, digest) = (
            run.step_ms,
            run.wall_s,
            run.failed,
            run.failures,
            run.digest,
        );
    } else {
        for _ in 1..constructions {
            setups.push(
                epoch::run(
                    workload,
                    seed,
                    sizes.warmup,
                    sizes.measured,
                    Mode::SetupOnly,
                )
                .setup_s,
            );
        }
        let run = epoch::run(workload, seed, sizes.warmup, sizes.measured, Mode::Plain);
        setups.push(run.setup_s);
        notes = vec![format!(
            "{} tenants, {} guest sends, {} chaos events, {} programmed pairs at the end",
            run.tenants,
            run.sends,
            run.chaos_events,
            run.final_programme.len()
        )];
        (step_ms, wall_s, failed, failures, digest) = (
            run.step_ms,
            run.wall_s,
            run.failed,
            run.failures,
            run.digest,
        );
    }
    let (p50, p90, per_s) = step_metrics(&step_ms, wall_s);
    let batch_means: Vec<f64> = setups
        .chunks(sizes.setups_per_batch)
        .map(|batch| batch.iter().sum::<f64>() / batch.len() as f64)
        .collect();
    notes.push(format!(
        "setup_s: median of {SETUP_BATCHES} batch means over {constructions} constructions (s): {}",
        batch_means
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    Report {
        workload,
        attempted: step_ms.len() as u64,
        failed,
        journal_digest: digest,
        failures,
        metrics: END_TO_END
            .iter()
            .zip([
                stats::median(batch_means),
                p50,
                p90,
                per_s,
                stats::peak_rss_mib(),
            ])
            .map(|(&(name, unit), value)| (name, value, unit))
            .collect(),
        notes,
    }
}

/// Per-layer values by metric name; anything not set reports 0.
#[derive(Default)]
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown layer metric {name}"
        );
        self.0.insert(name, value);
    }

    fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, self.0.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    }
}

/// Per layer name, one value per step in which the layer ran.
type PerStep = BTreeMap<&'static str, Vec<f64>>;

/// Median of a layer's per-step values, 0 where the layer never ran.
fn layer_median(per_step: &PerStep, name: &str) -> f64 {
    per_step
        .get(name)
        .map_or(0.0, |values| stats::median(values.clone()))
}

fn trace_path(workload: Workload) -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target
        .join("bench_e2e")
        .join(format!("{}.trace.json", workload.name()))
}

/// The compute-side layer rows every traced workload shares.
fn compute_layers(
    layers: &mut Layers,
    own: &PerStep,
    total: &PerStep,
    counts: &Counts,
    tenants: usize,
) {
    let us = |per_step: &PerStep, name: &str| layer_median(per_step, name) / 1e3;
    layers.set("sgp4.propagate_us", us(own, "sgp4.propagate"));
    layers.set(
        "constellation.links_us",
        us(own, "constellation.state_at_into"),
    );
    layers.set("constellation.diff_us", us(own, "constellation.diff"));
    layers.set("constellation.scope_us", us(own, "constellation.scope"));
    layers.set("constellation.solve_us", us(own, "constellation.solve"));
    layers.set("core.netprog.diff_us", us(own, "core.netprog.diff"));
    layers.set(
        "core.netprog.diff_us_per_tenant",
        us(own, "core.netprog.diff") / tenants as f64,
    );
    layers.set(
        "core.pipeline.compute_us",
        us(total, "core.pipeline.compute"),
    );
    layers.set(
        "core.coordinator.update_us",
        us(total, "core.coordinator.update"),
    );
    layers.set(
        "core.coordinator.install_us",
        us(own, "core.coordinator.update"),
    );
    layers.set("core.snapshot.publish_us", us(own, "core.snapshot.publish"));

    // Σ parts ÷ whole, step by step: every compute span runs in every
    // ledger step, so the per-step vectors line up.
    let parts = [
        "constellation.state_at_into",
        "constellation.diff",
        "constellation.scope",
        "constellation.solve",
        "core.netprog.diff",
    ];
    if let Some(whole) = total.get("core.pipeline.compute") {
        let coverage: Vec<f64> = whole
            .iter()
            .enumerate()
            .map(|(i, whole_ns)| parts.iter().map(|p| total[p][i]).sum::<f64>() / whole_ns)
            .collect();
        layers.set("core.pipeline.coverage", stats::median(coverage));
    }

    let steps = counts.steps.max(1) as f64;
    layers.set("constellation.links", counts.links as f64 / steps);
    layers.set("constellation.solve_rows", counts.solve_rows as f64 / steps);
    layers.set(
        "constellation.solve_settled",
        counts.solve_settled as f64 / steps,
    );
    layers.set(
        "constellation.solve_useful_share",
        counts.solve_required as f64 / counts.solve_rows.max(1) as f64,
    );
    layers.set("core.netprog.pairs", counts.pairs as f64 / steps);
    layers.set("core.netprog.delta_ops", counts.delta_ops as f64 / steps);
}

/// The step-time rows of the traced process: the short plain run's tail,
/// how much of its median the ledger's spans cover, and what tracing cost.
fn e2e_layers(
    layers: &mut Layers,
    plain_ms: &[f64],
    traced_p50_ms: f64,
    tracer: &Tracer,
    first_step: u32,
) -> f64 {
    let mut sorted = plain_ms.to_vec();
    stats::sort(&mut sorted);
    let plain_p50 = stats::percentile(&sorted, 50.0);
    layers.set("e2e.step_ms_p99", stats::percentile(&sorted, 99.0));
    layers.set("e2e.step_ms_max", stats::percentile(&sorted, 100.0));
    layers.set("trace.overhead_share", traced_p50_ms / plain_p50 - 1.0);
    let span_sum_ms = stats::median(tracer.self_ns_sum_per_step(first_step)) / 1e6;
    layers.set("ledger.coverage", span_sum_ms / plain_p50);
    plain_p50
}

fn proc_layers(layers: &mut Layers, user_s: f64, sys_s: f64, allocations: u64, steps: usize) {
    let cpu_s = user_s + sys_s;
    layers.set("proc.cpu_ms_per_step", cpu_s * 1e3 / steps as f64);
    layers.set(
        "proc.sys_share",
        if cpu_s > 0.0 { sys_s / cpu_s } else { 0.0 },
    );
    layers.set("proc.allocs_per_step", allocations as f64 / steps as f64);
}

/// The traced run: a short plain run (the untraced reference inside this
/// process), a short instrumented run, then the hand-driven ledger.
pub fn traced(workload: Workload, seed: u64, sizes: Sizes) -> Report {
    if workload == Workload::Serve {
        traced_serve(seed, sizes)
    } else {
        traced_epochs(workload, seed, sizes)
    }
}

fn traced_epochs(workload: Workload, seed: u64, sizes: Sizes) -> Report {
    let (warmup, steps) = (sizes.warmup, sizes.traced);
    let plain = epoch::run(workload, seed, warmup, steps, Mode::Plain);
    let instrumented = epoch::run(workload, seed, warmup, steps, Mode::Instrumented);
    let mut layers = Layers::default();

    // Counts the instrumented run observed, replayed by the ledger.
    let config = epoch::build_config(workload, seed, warmup + steps);
    let samples_per_step = UPDATE_INTERVAL_S / config.utilization_sample_interval_s;
    let epochs = instrumented.epochs as f64;
    let events_per_step = instrumented.guest_events as f64 / epochs
        + instrumented.tenants as f64 * samples_per_step
        + 1.0;
    let sends_per_step = instrumented.sends as f64 / epochs;

    if !workload.pinned_from_start() {
        stats::run_on_all_cpus();
    }
    let testbed = Testbed::new(&config).expect("testbed builds");
    let tenant_names: Vec<String> = testbed
        .coordinator()
        .tenant_names()
        .map(str::to_owned)
        .collect();
    let mut ledger = EpochLedger::new(&config, testbed.constellation().clone(), tenant_names);
    drop(testbed);
    stats::run_on_one_cpu();
    let tenants = instrumented.tenants;
    let mut tracer = Tracer::new(((warmup + steps) as usize) * (3 * tenants + 16));
    for step in 0..(warmup + steps) as u32 {
        let measured = u64::from(step) >= warmup;
        ledger.step(
            step,
            measured,
            events_per_step.round() as u64,
            sends_per_step.round() as u64,
            &mut tracer,
        );
    }
    let first_step = warmup as u32;
    let counts = ledger.compute.counts;
    let own = tracer.self_ns_per_step(first_step);
    let total = tracer.total_ns_per_step(first_step);
    compute_layers(&mut layers, &own, &total, &counts, tenants);
    let measured_steps = counts.steps.max(1) as f64;
    let apply_us = layer_median(&own, "netem.apply") / 1e3;
    layers.set("netem.apply_us", apply_us);
    layers.set("netem.apply_ops", counts.apply_ops as f64 / measured_steps);
    let critical_us = stats::median(ledger.apply_critical_ns.clone()) / 1e3;
    layers.set(
        "netem.apply_critical_us",
        if config.shards.is_some() {
            critical_us
        } else {
            apply_us
        },
    );
    layers.set("netem.latency_err_us_max", counts.latency_err_us_max as f64);
    layers.set(
        "machines.activate_us",
        layer_median(&own, "machines.lifecycle") / 1e3,
    );
    layers.set("sim.events_per_step", events_per_step);
    layers.set(
        "sim.event_ns",
        layer_median(&own, "sim.events") / events_per_step.round().max(1.0),
    );
    layers.set("apps.sends_per_step", sends_per_step);
    if sends_per_step.round() >= 1.0 {
        layers.set(
            "netem.send_ns",
            layer_median(&own, "netem.send") / sends_per_step.round(),
        );
    }

    // Setup-phase layers, from the instrumented run's own construction.
    let parts = instrumented.setup_parts;
    layers.set("core.config.parse_us", parts.config_s * 1e6);
    layers.set("core.testbed.new_us", parts.testbed_new_s * 1e6);
    layers.set("apps.generate_us", parts.generate_s * 1e6);
    layers.set("machines.fault_events", instrumented.chaos_events as f64);
    if let Some(chaos) = &config.chaos {
        layers.set(
            "machines.chaos_generate_us",
            chaos_generate_s(&config, chaos) * 1e6,
        );
    }

    // Real-run layers: guest callbacks and the pipeline handover.
    layers.set(
        "apps.callback_us",
        instrumented.callback_ns as f64 / 1e3 / epochs,
    );
    let handovers = instrumented.pipeline.handovers.max(1) as f64;
    layers.set(
        "core.pipeline.wait_us",
        instrumented.pipeline.total_wait_ns as f64 / 1e3 / handovers,
    );
    layers.set(
        "core.pipeline.lead_us",
        instrumented.pipeline.total_lead_ns as f64 / 1e3 / handovers,
    );
    layers.set(
        "core.pipeline.precomputed_share",
        instrumented.pipeline.precomputed as f64 / handovers,
    );
    proc_layers(
        &mut layers,
        instrumented.cpu_user_s,
        instrumented.cpu_sys_s,
        instrumented.allocations,
        instrumented.step_ms.len(),
    );
    let instrumented_p50 = stats::median(instrumented.step_ms.clone());
    let plain_p50 = e2e_layers(
        &mut layers,
        &plain.step_ms,
        instrumented_p50,
        &tracer,
        first_step,
    );

    let path = trace_path(workload);
    tracer.write(&path).expect("trace file is written");
    let mut failures = plain.failures;
    failures.extend(instrumented.failures);
    let ledger_unfaithful = counts.latency_err_us_max > LATENCY_QUANTUM_US;
    if ledger_unfaithful {
        failures.push(format!(
            "hand-driven plane: emulated latency off by {} us",
            counts.latency_err_us_max
        ));
    }
    Report {
        workload,
        attempted: plain.step_ms.len() as u64,
        failed: plain.failed + instrumented.failed + u64::from(ledger_unfaithful),
        journal_digest: plain.digest,
        failures,
        metrics: layers.into_metrics(),
        notes: vec![
            format!("short plain run: {steps} steps, p50 {plain_p50:.4} ms; instrumented p50 {instrumented_p50:.4} ms"),
            format!("{} spans written to {}", tracer.span_count(), path.display()),
        ],
    }
}

/// Times `ChaosEngine::generate` for the run's schedule from outside.
fn chaos_generate_s(
    config: &celestial::TestbedConfig,
    chaos: &celestial::config::ChaosConfig,
) -> f64 {
    let engine = ChaosEngine {
        plane_outages: chaos.plane_outages,
        plane_outage_mean_s: chaos.plane_outage_mean_s,
        solar_storms: chaos.solar_storms,
        solar_storm_mean_s: chaos.solar_storm_mean_s,
        solar_storm_band_half_width_deg: chaos.solar_storm_band_half_width_deg,
        solar_storm_cpu_share_percent: chaos.solar_storm_cpu_share_percent,
        region_blackouts: chaos.region_blackouts,
        region_blackout_mean_s: chaos.region_blackout_mean_s,
        region_blackout_radius_km: chaos.region_blackout_radius_km,
        link_flap_storms: chaos.link_flap_storms,
        link_flap_mean_s: chaos.link_flap_mean_s,
        link_flap_period_s: chaos.link_flap_period_s,
    };
    let topology = ChaosTopology {
        shells: config
            .shells
            .iter()
            .map(|s| (s.walker.planes, s.walker.satellites_per_plane))
            .collect(),
        ground_stations: config
            .ground_stations
            .iter()
            .map(|g| (g.position.latitude_deg(), g.position.longitude_deg()))
            .collect(),
    };
    let horizon = (config.duration_s - 2.0 * config.update_interval_s).max(0.0);
    let started = Instant::now();
    std::hint::black_box(engine.generate(&topology, horizon, &SimRng::seed_from_u64(config.seed)));
    started.elapsed().as_secs_f64()
}

fn traced_serve(seed: u64, sizes: Sizes) -> Report {
    let (warmup, requests) = (sizes.warmup, sizes.traced);
    let plain = serve::run(seed, warmup, requests, false, None);
    let handovers = plain.pipeline.handovers.max(1) as f64;
    let instrumented = serve::run(seed, warmup, requests, true, None);
    let mut ledger = serve::compute_ledger();
    let mut tracer = Tracer::new(requests as usize * 4 + 1_024);
    let traced = serve::run(
        seed,
        warmup,
        requests,
        false,
        Some((&mut tracer, &mut ledger)),
    );

    let mut layers = Layers::default();
    let first_step = warmup as u32;
    let own = tracer.self_ns_per_step(first_step);
    let total = tracer.total_ns_per_step(first_step);
    compute_layers(&mut layers, &own, &total, &ledger.counts, 1);
    layers.set("httpd.parse_ns", layer_median(&own, "httpd.parse"));
    layers.set(
        "httpd.roundtrip_us",
        layer_median(&total, "httpd.roundtrip") / 1e3,
    );
    layers.set(
        "serve.handle_us",
        layer_median(&total, "serve.handle") / 1e3,
    );
    layers.set(
        "serve.middleware_us",
        layer_median(&own, "serve.handle") / 1e3,
    );
    layers.set(
        "core.info_api.handle_us",
        layer_median(&own, "core.info_api.handle") / 1e3,
    );
    layers.set(
        "serve.rejected_share",
        traced.rejected as f64 / traced.step_ms.len() as f64,
    );
    layers.set(
        "core.pipeline.wait_us",
        plain.pipeline.total_wait_ns as f64 / 1e3 / handovers,
    );
    proc_layers(
        &mut layers,
        instrumented.cpu_user_s,
        instrumented.cpu_sys_s,
        instrumented.allocations,
        instrumented.step_ms.len(),
    );
    let traced_p50 = stats::median(traced.step_ms.clone());
    let plain_p50 = e2e_layers(&mut layers, &plain.step_ms, traced_p50, &tracer, first_step);

    let path = trace_path(Workload::Serve);
    tracer.write(&path).expect("trace file is written");
    let mut report = Report {
        workload: Workload::Serve,
        attempted: plain.step_ms.len() as u64,
        failed: plain.failed + instrumented.failed + traced.failed,
        journal_digest: plain.digest,
        failures: plain.failures,
        metrics: layers.into_metrics(),
        notes: vec![
            format!("short plain run: {requests} requests, p50 {plain_p50:.4} ms; traced round trip p50 {traced_p50:.4} ms"),
            "epoch-layer rows are per inline update (one per 1,500 requests)".to_owned(),
            format!("{} spans written to {}", tracer.span_count(), path.display()),
        ],
    };
    report.failures.extend(instrumented.failures);
    report.failures.extend(traced.failures);
    report
}
