//! The real shared-memory engine with kernel bodies on: build both
//! programs with their tile stores, run them on `workers` threads, and
//! check every field against the sequential reference.

use crate::spans::Tracer;
use crate::PassOut;
use ca_stencil::{
    build_base, build_ca, jacobi_reference, kind_names, max_abs_diff, Problem, StencilBuild,
    StencilConfig,
};
use machine::roofline::STENCIL_BYTES_STREAMED;
use machine::MachineProfile;
use netsim::ProcessGrid;
use obs::names;
use runtime::RunConfig;
use std::collections::BTreeMap;
use std::time::Instant;

/// One real-engine configuration on a logical 2×2 node grid.
#[derive(Debug, Clone, Copy)]
pub struct ShmShape {
    pub n: usize,
    pub tile: usize,
    pub iters: u32,
    pub steps: usize,
}

/// Worker threads of every real-engine run: one per core of a 2-core
/// host.
pub const WORKERS: usize = 2;

/// Big tiles: the 5-point kernel takes nearly all lane time.
pub const KERNEL: ShmShape = ShmShape {
    n: 4096,
    tile: 512,
    iters: 10,
    steps: 5,
};

/// Tiny tiles: dispatch, activation and flow plumbing take most of the
/// lane time.
pub const FINEGRAIN: ShmShape = ShmShape {
    n: 1024,
    tile: 8,
    iters: 10,
    steps: 5,
};

/// The small shape that measures the kernel and dispatch layers on
/// workloads whose own pass does not call them.
pub const PROBE: ShmShape = ShmShape {
    n: 1024,
    tile: 256,
    iters: 8,
    steps: 4,
};

impl ShmShape {
    pub fn config(&self, seed: u64) -> StencilConfig {
        StencilConfig::new(
            Problem::scrambled(self.n, seed),
            self.tile,
            self.iters,
            ProcessGrid::new(2, 2),
        )
        .with_steps(self.steps)
    }

    pub fn tasks_per_scheme(&self) -> u64 {
        let tiles = (self.n / self.tile) as u64;
        tiles * tiles * (self.iters as u64 + 1)
    }

    /// Bytes of both tile buffers of the whole grid (the working set of
    /// one scheme, ghost rings excluded).
    pub fn working_set_bytes(&self) -> u64 {
        2 * 8 * (self.n * self.n) as u64
    }

    /// The sequential ground truth every pass is checked against.
    pub fn reference(&self, seed: u64) -> Vec<f64> {
        jacobi_reference(&self.config(seed).problem, self.iters)
    }

    /// Modelled NaCL GFLOP/s of both programs on a simulated 2×2 cluster.
    pub fn modelled_gflops(&self, seed: u64) -> (f64, f64) {
        let cfg = self.config(seed).with_profile(MachineProfile::nacl());
        let sim = RunConfig::simulated(MachineProfile::nacl(), 4);
        let base = runtime::run(&build_base(&cfg, false).program, &sim);
        let ca = runtime::run(&build_ca(&cfg, false).program, &sim);
        (cfg.gflops(base.makespan), cfg.gflops(ca.makespan))
    }
}

/// One pass: build and run base, then CA. `traced` also turns on the
/// engine's own task spans, which split lane time into kernel and
/// dispatch. The output checks run after the pass closes.
pub fn pass(
    shape: &ShmShape,
    seed: u64,
    reference: &[f64],
    tr: &mut Tracer,
    traced: bool,
    probe: bool,
) -> PassOut {
    let cfg = shape.config(seed);
    let mut out = PassOut::default();
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut builds: Vec<StencilBuild> = Vec::new();
    let mut reports = Vec::new();

    tr.begin_pass(traced);
    for scheme in ["base", "ca"] {
        let t = Instant::now();
        let build = tr.span("core.build", || {
            if scheme == "base" {
                build_base(&cfg, true)
            } else {
                build_ca(&cfg, true)
            }
        });
        out.setup_s += t.elapsed().as_secs_f64();
        // No live sampler: it would be a third thread on a 2-core host.
        let mut rc = RunConfig::shared_memory(WORKERS).with_steal_seed(seed);
        if traced {
            // Room for every task's span on one lane: the real engine
            // drains its rings only once the run ends.
            let capacity = shape.tasks_per_scheme().next_power_of_two() as usize;
            rc = rc
                .with_trace()
                .with_kind_names(kind_names())
                .with_ring_capacity(capacity);
        }
        let t = Instant::now();
        let report = tr.span("real_exec.run", || runtime::run(&build.program, &rc));
        out.timed_s += t.elapsed().as_secs_f64();
        builds.push(build);
        reports.push(report);
    }
    out.info = tr.end_pass(probe);

    let mut lane_s = 0.0;
    let mut busy_s = 0.0;
    let mut occupancy = 0.0;
    let mut overhead = (0u64, 0u64);
    for (build, report) in builds.iter().zip(&reports) {
        let field = build.store.as_ref().expect("built with data").gather();
        let dropped = report
            .trace
            .as_ref()
            .map_or(0, |t| t.dropped + t.dropped_msgs);
        let ok = report.tasks_executed == shape.tasks_per_scheme()
            && max_abs_diff(&field, reference) == 0.0
            && dropped == 0;
        out.checks += 1;
        out.failed += u32::from(!ok);
        out.tasks += report.tasks_executed as f64;
        out.flops += cfg.nominal_flops();
        lane_s += report.makespan * WORKERS as f64;
        occupancy += report.node_occupancy.first().copied().unwrap_or(0.0) / reports.len() as f64;
        *v.entry("dispatch.steals").or_default() += report.counter(names::STEALS) as f64;
        *v.entry("dispatch.steal_fails").or_default() += report.counter(names::STEAL_FAILS) as f64;
        *v.entry("dispatch.overflow_pushes").or_default() +=
            report.counter(names::OVERFLOW_PUSHES) as f64;
        if let Some(trace) = &report.trace {
            busy_s += trace.spans.iter().map(|s| s.duration_ns()).sum::<u64>() as f64 / 1e9;
            *v.entry("obs.spans").or_default() += trace.spans.len() as f64;
            *v.entry("obs.dropped").or_default() += dropped as f64;
            overhead.0 += report.overhead.total_ns;
            overhead.1 += report.overhead.lane_time_ns;
        }
    }
    let attempts = v["dispatch.steals"] + v["dispatch.steal_fails"];
    v.insert(
        "dispatch.steal_success_ratio",
        v["dispatch.steals"] / attempts.max(1.0),
    );
    v.insert("dispatch.occupancy", occupancy);
    if traced {
        let points = 2.0 * shape.iters as f64 * (shape.n * shape.n) as f64;
        v.insert("core.task_busy_frac", busy_s / lane_s);
        v.insert("core.kernel_gflops", out.flops / busy_s / 1e9);
        // Computed, not measured: the streamed 5-point update moves 24
        // bytes per point (read, write, write-allocate).
        v.insert(
            "core.kernel_bytes_per_busy_s",
            points * STENCIL_BYTES_STREAMED / busy_s,
        );
        v.insert(
            "dispatch.overhead_ns_per_task",
            (lane_s - busy_s) / out.tasks * 1e9,
        );
        v.insert(
            "obs.tracer_overhead_frac",
            overhead.0 as f64 / overhead.1.max(1) as f64,
        );
    }
    out.values = v;
    out
}
