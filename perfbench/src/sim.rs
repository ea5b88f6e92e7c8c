//! The simulate pipeline: build → unfold → analyze → simulate, then
//! either a JSONL record (`sim-sweep`) or the doctor/fig10 path of
//! diagnosis, what-if replay, export and comm-matrix verification
//! (`sim-diagnose`). Both schemes, base and CA, run in every pass.

use crate::spans::Tracer;
use crate::PassOut;
use analyze::AnalyzeConfig;
use ca_stencil::{build_base, build_ca, kind_names, Problem, StencilConfig, KIND_BOUNDARY};
use insight::{Perturbation, WhatIf};
use machine::MachineProfile;
use netsim::ProcessGrid;
use runtime::{RunConfig, RunReport};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// One simulated configuration on the NaCL profile.
#[derive(Debug, Clone, Copy)]
pub struct SimShape {
    pub n: usize,
    pub tile: usize,
    pub iters: u32,
    /// Process grid edge (`grid × grid` nodes).
    pub grid: u32,
    pub steps: usize,
}

/// Kernel adjustment ratio of Figures 8–10.
pub const RATIO: f64 = 0.4;

/// One Fig. 8 point: 4×4 NaCL nodes, the paper's 23 040² grid at tile
/// 288, kernel ratio 0.4, s = 15.
pub const SWEEP: SimShape = SimShape {
    n: 23_040,
    tile: 288,
    iters: 40,
    grid: 4,
    steps: 15,
};

/// The fig10/doctor shape: the same cluster at fig10's 10 iterations.
pub const DIAGNOSE: SimShape = SimShape { iters: 10, ..SWEEP };

/// The small shape that measures the simulate-side layers on workloads
/// whose own pass does not call them.
pub const PROBE: SimShape = SimShape {
    n: 2304,
    tile: 288,
    iters: 8,
    grid: 2,
    steps: 4,
};

impl SimShape {
    pub fn nodes(&self) -> u32 {
        self.grid * self.grid
    }

    pub fn config(&self, seed: u64) -> StencilConfig {
        // Bodies are off, so field values do not change the simulated
        // schedule; the seed still picks the field the programs carry.
        StencilConfig::new(
            Problem::scrambled(self.n, seed),
            self.tile,
            self.iters,
            ProcessGrid::new(self.grid, self.grid),
        )
        .with_steps(self.steps)
        .with_ratio(RATIO)
        .with_profile(MachineProfile::nacl())
    }

    /// Task instances per scheme: one per tile per iteration, plus the
    /// iterate-0 task.
    pub fn tasks_per_scheme(&self) -> u64 {
        let tiles = (self.n / self.tile) as u64;
        tiles * tiles * (self.iters as u64 + 1)
    }
}

/// Build times of both programs (no tile data), one sample per build.
pub fn setup_times(shape: &SimShape, seed: u64, reps: usize) -> Vec<f64> {
    let cfg = shape.config(seed);
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(build_base(black_box(&cfg), false));
            black_box(build_ca(black_box(&cfg), false));
            t.elapsed().as_secs_f64()
        })
        .collect()
}

fn portfolio(nodes: u32) -> Vec<(String, Vec<Perturbation>)> {
    vec![
        (
            "boundary kernel 30% faster".into(),
            vec![Perturbation::TaskKind {
                kind: KIND_BOUNDARY,
                factor: 0.7,
            }],
        ),
        (
            "network bandwidth 2x".into(),
            vec![Perturbation::Link {
                bandwidth: 2.0,
                latency: 1.0,
            }],
        ),
        (
            "comm injection half rate".into(),
            (0..nodes)
                .map(|node| Perturbation::Injection { node, factor: 0.5 })
                .collect(),
        ),
    ]
}

/// One pass over both schemes. `diagnose` selects the traced
/// doctor/fig10 path instead of the untraced sweep.
pub fn pass(
    shape: &SimShape,
    diagnose: bool,
    seed: u64,
    tr: &mut Tracer,
    traced: bool,
    probe: bool,
) -> PassOut {
    let profile = MachineProfile::nacl();
    let lanes = profile.compute_threads();
    let nodes = shape.nodes();
    let cfg = shape.config(seed);
    let acfg = AnalyzeConfig::new().with_lanes(lanes).without_races();
    let expected = shape.tasks_per_scheme();
    let mut out = PassOut::default();
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut overhead = (0u64, 0u64);
    let mut occupancy = Vec::new();

    tr.begin_pass(traced);
    for scheme in ["base", "ca"] {
        let label = format!("perfbench/{scheme}");
        let program = tr.span("core.build", || {
            if scheme == "base" {
                build_base(&cfg, false).program
            } else {
                build_ca(&cfg, false).program
            }
        });
        let dag = tr.span("unfold.enumerate", || analyze::unfold(&program, &acfg));
        let a = tr.span("analyze.dag", || analyze::analyze_dag(&dag, &acfg));
        let bound = a
            .path
            .as_ref()
            .map_or(f64::INFINITY, |p| p.makespan_lower_bound);
        let sim = RunConfig::simulated(profile.clone(), nodes);
        let report: RunReport;
        let mut ok;
        if diagnose {
            report = tr.span("sim_exec.run_traced", || {
                runtime::run(
                    &program,
                    &sim.with_trace()
                        .with_sampling(RunConfig::DEFAULT_SAMPLE_PERIOD_NS)
                        .with_kind_names(kind_names()),
                )
            });
            let trace = report.trace.as_ref().expect("trace requested");
            let diag = tr.span("insight.diagnose", || insight::diagnose(trace, &dag, lanes));
            let w = tr.span("insight.whatif_build", || {
                WhatIf::new(trace, &dag, &profile, nodes)
            });
            let ranked = tr.span("insight.whatif_replay", || w.rank(&portfolio(nodes)));
            let chrome = tr.span("obs.chrome", || obs::chrome::to_chrome_json(trace));
            let jsonl = tr.span("obs.jsonl", || {
                obs::jsonl::render_with_scheduler(
                    &label,
                    Some(&report.scheduler),
                    &report.metrics,
                    Some(trace),
                )
            });
            let matrix = tr.span("obs.comm_matrix", || trace.comm_matrix());
            let prom = tr.span("obs.prom", || {
                let mut latest = BTreeMap::new();
                for s in &report.samples {
                    latest.insert(s.node, s.clone());
                }
                let latest: Vec<_> = latest.into_values().collect();
                obs::expo::render_full(
                    &label,
                    &report.metrics,
                    &latest,
                    Some(report.overhead),
                    Some(&matrix),
                )
            });
            let verdict = tr.span("analyze.peer_matrix", || {
                analyze::verify_comm_matrix(&analyze::peer_matrix(&dag), &matrix)
            });
            ok = verdict.is_ok() && trace.dropped == 0 && trace.dropped_msgs == 0;
            ok &= ranked
                .iter()
                .all(|r| r.speedup.is_finite() && r.speedup > 0.0);
            ok &= diag.occupancy() > 0.0 && !jsonl.is_empty() && !prom.is_empty();
            *v.entry("obs.spans").or_default() += trace.spans.len() as f64;
            *v.entry("obs.chrome_bytes").or_default() += chrome.len() as f64;
            *v.entry("obs.dropped").or_default() += (trace.dropped + trace.dropped_msgs) as f64;
            overhead.0 += report.overhead.total_ns;
            overhead.1 += report.overhead.lane_time_ns;
        } else {
            report = tr.span("sim_exec.run", || runtime::run(&program, &sim));
            let jsonl = tr.span("obs.jsonl", || {
                obs::jsonl::render_with_scheduler(
                    &label,
                    Some(&report.scheduler),
                    &report.metrics,
                    None,
                )
            });
            ok = report.remote_messages() == a.comm.cross_messages;
            ok &= obs::jsonl::parse(&jsonl).is_ok_and(|runs| runs.len() == 1);
        }
        ok &= report.tasks_executed == expected && dag.len() as u64 == expected;
        ok &= a.is_clean() && report.makespan >= bound;
        out.checks += 1;
        out.failed += u32::from(!ok);
        out.tasks += report.tasks_executed as f64;
        out.flops += cfg.nominal_flops();
        let gflops_key = if scheme == "base" {
            "sim_gflops_base"
        } else {
            "sim_gflops_ca"
        };
        v.insert(gflops_key, cfg.gflops(report.makespan));
        *v.entry("unfold.tasks").or_default() += dag.len() as f64;
        *v.entry("unfold.edges").or_default() += dag.edges.len() as f64;
        *v.entry("analyze.static_messages").or_default() += a.comm.cross_messages as f64;
        *v.entry("sim.messages").or_default() += report.remote_messages() as f64;
        *v.entry("sim.bytes").or_default() += report.remote_bytes() as f64;
        *v.entry("sim.makespan_s").or_default() += report.makespan;
        occupancy.extend(report.node_occupancy.iter().copied());
    }
    out.info = tr.end_pass(probe);
    out.timed_s = out.info.wall_s;
    v.insert(
        "sim.occupancy",
        occupancy.iter().sum::<f64>() / occupancy.len().max(1) as f64,
    );
    if diagnose {
        v.insert(
            "obs.tracer_overhead_frac",
            overhead.0 as f64 / overhead.1.max(1) as f64,
        );
    }
    out.values = v;
    out
}
