//! The one table of sizes, names and bounds. Step counts and warm-up lengths
//! are constants: the benchmark runs fixed counts, never fixed time, so every
//! simulated statistic repeats exactly and only host time varies.

/// `--seconds` value the step counts below are sized for (`run_seconds` of
/// `BENCHMARK.json`). Another `--seconds` scales the measured counts
/// linearly; the warm-up lengths stay.
pub const RUN_SECONDS: u64 = 20;

/// Simulated seconds between constellation updates (the paper's 1 s).
pub const UPDATE_INTERVAL_S: f64 = 1.0;

/// `serve`: requests between two inline `Coordinator::update` calls.
pub const SERVE_REQUESTS_PER_EPOCH: u64 = 1_500;

/// `serve`: share of 200 replies whose body is compared with
/// `InfoApi::handle_path` on the same snapshot, in percent.
pub const SERVE_BODY_SAMPLE_PERCENT: u64 = 1;

/// Fidelity the probe asserts every epoch: emulated and expected latency may
/// differ by the 0.1 ms programming quantum (0.05 ms from the programme's
/// quantisation plus 0.05 ms from the compensated netem delay's).
pub const LATENCY_QUANTUM_US: u64 = 100;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Megascale,
    Fleet,
    Chaos,
    Serve,
}

/// Batches of fresh constructions per run; `setup_s` is the median of the
/// batches' mean construction times.
pub const SETUP_BATCHES: usize = 5;

/// Warm-up, measured and traced step counts of one workload (epochs for the
/// epoch workloads, requests for `serve`), and the fresh constructions in
/// each of the `SETUP_BATCHES` set-up batches.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub warmup: u64,
    pub measured: u64,
    pub traced: u64,
    pub setups_per_batch: usize,
}

impl Workload {
    /// The fixed order of the default invocation.
    pub const ALL: [Workload; 4] = [
        Workload::Megascale,
        Workload::Fleet,
        Workload::Chaos,
        Workload::Serve,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Megascale => "megascale",
            Workload::Fleet => "fleet",
            Workload::Chaos => "chaos",
            Workload::Serve => "serve",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Sizes at `RUN_SECONDS`: 15–25 s of measured work on a 2-core box for
    /// the epoch workloads (`chaos` is 8 simulated hours), ~6 s for `serve`.
    /// The two workloads that set up in a millisecond or two set up 200
    /// times: `serve`'s set-up ends in a 1 ms accept poll whose phase only
    /// a mean over many constructions averages out.
    fn sizes(self) -> Sizes {
        match self {
            Workload::Megascale => Sizes {
                warmup: 5,
                measured: 150,
                traced: 30,
                setups_per_batch: 1,
            },
            Workload::Fleet => Sizes {
                warmup: 5,
                measured: 250,
                traced: 50,
                setups_per_batch: 2,
            },
            Workload::Chaos => Sizes {
                warmup: 5,
                measured: 28_800,
                traced: 3_000,
                setups_per_batch: 40,
            },
            Workload::Serve => Sizes {
                warmup: 2_000,
                measured: 300_000,
                traced: 30_000,
                setups_per_batch: 40,
            },
        }
    }

    /// Every measured section runs on one CPU (see
    /// `stats::run_on_one_cpu`). `chaos` and `serve` are pinned from process
    /// start: the threads they hand over to — the pipeline worker, the HTTP
    /// worker — are spawned at construction and would otherwise stay on the
    /// other CPU. `megascale` and `fleet` construct each testbed with every
    /// CPU visible and are pinned only for the run, so the program still
    /// sizes its thread fan-out for the real machine and `fleet`'s
    /// per-tenant thread scopes stay in the measurement.
    pub fn pinned_from_start(self) -> bool {
        matches!(self, Workload::Chaos | Workload::Serve)
    }

    /// Sizes for a run asked to measure `seconds` seconds.
    pub fn sizes_for(self, seconds: u64) -> Sizes {
        let base = self.sizes();
        let scale = |count: u64| (count * seconds / RUN_SECONDS).max(20);
        Sizes {
            measured: scale(base.measured),
            traced: scale(base.traced),
            ..base
        }
    }
}

/// End-to-end metrics: `(name, unit)`; the same five on every workload.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("step_ms_p50", "ms"),
    ("step_ms_p90", "ms"),
    ("steps_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`. A layer the
/// workload does not run reports 0.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("sgp4.propagate_us", "us"),
    ("constellation.links_us", "us"),
    ("constellation.links", "count"),
    ("constellation.diff_us", "us"),
    ("constellation.scope_us", "us"),
    ("constellation.solve_us", "us"),
    ("constellation.solve_rows", "count"),
    ("constellation.solve_settled", "count"),
    ("constellation.solve_useful_share", "ratio"),
    ("core.netprog.diff_us", "us"),
    ("core.netprog.diff_us_per_tenant", "us"),
    ("core.netprog.pairs", "count"),
    ("core.netprog.delta_ops", "count"),
    ("core.pipeline.compute_us", "us"),
    ("core.pipeline.coverage", "ratio"),
    ("core.pipeline.wait_us", "us"),
    ("core.pipeline.lead_us", "us"),
    ("core.pipeline.precomputed_share", "ratio"),
    ("core.coordinator.update_us", "us"),
    ("core.coordinator.install_us", "us"),
    ("core.snapshot.publish_us", "us"),
    ("core.config.parse_us", "us"),
    ("core.testbed.new_us", "us"),
    ("apps.generate_us", "us"),
    ("netem.apply_us", "us"),
    ("netem.apply_ops", "count"),
    ("netem.apply_critical_us", "us"),
    ("netem.send_ns", "ns"),
    ("netem.latency_err_us_max", "us"),
    ("machines.activate_us", "us"),
    ("machines.chaos_generate_us", "us"),
    ("machines.fault_events", "count"),
    ("sim.event_ns", "ns"),
    ("sim.events_per_step", "count"),
    ("apps.callback_us", "us"),
    ("apps.sends_per_step", "count"),
    ("httpd.parse_ns", "ns"),
    ("httpd.roundtrip_us", "us"),
    ("serve.handle_us", "us"),
    ("serve.middleware_us", "us"),
    ("core.info_api.handle_us", "us"),
    ("serve.rejected_share", "ratio"),
    ("proc.cpu_ms_per_step", "ms"),
    ("proc.sys_share", "ratio"),
    ("proc.allocs_per_step", "count"),
    ("e2e.step_ms_p99", "ms"),
    ("e2e.step_ms_max", "ms"),
    ("ledger.coverage", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// How far each end-to-end median may worsen before it is a regression
/// (`bound` of `BENCHMARK.json`), as a share of the reference median.
pub fn bound(metric: &str) -> f64 {
    match metric {
        "setup_s" => 0.2,
        _ => 0.1,
    }
}

/// Whether a larger value of the end-to-end metric is the better one.
pub fn higher_is_better(metric: &str) -> bool {
    metric == "steps_per_s"
}
