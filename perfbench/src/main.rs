//! End-to-end and per-layer benchmark of the stencil reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sim-sweep|sim-diagnose|shm-kernel|shm-finegrain> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with no
//! spans recorded. With `--trace 1` it alternates untraced and traced
//! passes, records a span around every call into a layer, probes the
//! layers the workload's own pass does not call, measures STREAM triad,
//! and reports the per-layer metrics. The last line of standard output
//! is the result as one JSON object. See `perfbench/README.md`.

mod host;
mod shm;
mod sim;
mod spans;

use host::Host;
use spans::{PassInfo, Tracer, PASS};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// What one pass did, measured from outside the program.
#[derive(Debug, Default)]
pub struct PassOut {
    pub info: PassInfo,
    /// Denominator of `tasks_per_s` and `gflops`: the whole pass on the
    /// simulate pipeline, the engine runs alone on the real engine.
    pub timed_s: f64,
    /// Build time of both programs with their tile stores (real engine).
    pub setup_s: f64,
    pub tasks: f64,
    /// Nominal stencil flops of both programs.
    pub flops: f64,
    pub checks: u32,
    pub failed: u32,
    /// Counts and ratios the pass observed, keyed by metric name.
    pub values: BTreeMap<&'static str, f64>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    SimSweep,
    SimDiagnose,
    ShmKernel,
    ShmFinegrain,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "sim-sweep" => Workload::SimSweep,
            "sim-diagnose" => Workload::SimDiagnose,
            "shm-kernel" => Workload::ShmKernel,
            "shm-finegrain" => Workload::ShmFinegrain,
            _ => return None,
        })
    }

    fn shm(self) -> Option<shm::ShmShape> {
        match self {
            Workload::ShmKernel => Some(shm::KERNEL),
            Workload::ShmFinegrain => Some(shm::FINEGRAIN),
            _ => None,
        }
    }

    fn sim(self) -> Option<(sim::SimShape, bool)> {
        match self {
            Workload::SimSweep => Some((sim::SWEEP, false)),
            Workload::SimDiagnose => Some((sim::DIAGNOSE, true)),
            _ => None,
        }
    }

    /// Threads the workload runs at once (the simulator is sequential).
    fn threads(self) -> usize {
        self.shm().map_or(1, |_| shm::WORKERS)
    }
}

/// End-to-end metrics and their units, in `BENCHMARK.json` order.
const END_TO_END: &[(&str, &str)] = &[
    ("tasks_per_s", "1/s"),
    ("gflops", "GFLOP/s"),
    ("sim_gflops_base", "GFLOP/s"),
    ("sim_gflops_ca", "GFLOP/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("correct_frac", "frac"),
];

/// STREAM triad runs on as many threads as the real-engine workloads.
const STREAM_THREADS: usize = shm::WORKERS;

/// Layers a pass's self time is attributed to (span name prefixes).
const LAYERS: &[&str] = &[
    "core",
    "unfold",
    "analyze",
    "sim_exec",
    "real_exec",
    "insight",
    "obs",
];

/// Per-layer metrics and their units, in `BENCHMARK.json` order.
const PER_LAYER: &[(&str, &str)] = &[
    ("core.build_s", "s"),
    ("core.task_busy_frac", "frac"),
    ("core.kernel_gflops", "GFLOP/s"),
    ("core.kernel_stream_frac", "frac"),
    ("unfold.s", "s"),
    ("unfold.ns_per_task", "ns"),
    ("unfold.tasks", "count"),
    ("unfold.edges", "count"),
    ("analyze.s", "s"),
    ("analyze.ns_per_task", "ns"),
    ("analyze.static_messages", "count"),
    ("sim.ns_per_task", "ns"),
    ("sim.traced_ns_per_task", "ns"),
    ("sim.messages", "count"),
    ("sim.bytes", "B"),
    ("sim.makespan_s", "virtual_s"),
    ("sim.occupancy", "frac"),
    ("dispatch.overhead_ns_per_task", "ns"),
    ("dispatch.steals", "count"),
    ("dispatch.steal_fails", "count"),
    ("dispatch.overflow_pushes", "count"),
    ("dispatch.steal_success_ratio", "frac"),
    ("dispatch.occupancy", "frac"),
    ("insight.diagnose_s", "s"),
    ("insight.whatif_build_s", "s"),
    ("insight.whatif_replay_s", "s"),
    ("obs.chrome_s", "s"),
    ("obs.jsonl_s", "s"),
    ("obs.prom_s", "s"),
    ("obs.spans", "count"),
    ("obs.chrome_bytes", "B"),
    ("obs.dropped", "count"),
    ("obs.tracer_overhead_frac", "frac"),
    ("machine.stream_triad_gbs", "GB/s"),
    ("trace_overhead_frac", "frac"),
    ("unattributed_frac", "frac"),
    ("share.core", "frac"),
    ("share.unfold", "frac"),
    ("share.analyze", "frac"),
    ("share.sim_exec", "frac"),
    ("share.real_exec", "frac"),
    ("share.insight", "frac"),
    ("share.obs", "frac"),
];

pub fn median(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(k) = it.next() {
        let v = it.next().ok_or(format!("{k} needs a value"))?;
        flags.insert(k.as_str(), v.as_str());
    }
    let get = |k: &str| flags.get(k).copied().ok_or(format!("missing {k}"));
    let workload = get("--workload")?;
    Ok(Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload}"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, not {t}")),
        },
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(host::STREAM_CHILD) {
        let threads = argv[1].parse().expect("thread count");
        let n = argv[2].parse().expect("array length");
        host::stream_child(threads, n);
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench lives inside the repository");
    let host = Host::probe(root);
    println!("host {}", host.to_json());
    // STREAM also runs on the workload's thread count in traced runs.
    if args.workload.threads() > host.nproc {
        eprintln!(
            "perfbench: workload needs {} threads, host has {}",
            args.workload.threads(),
            host.nproc
        );
        std::process::exit(3);
    }

    let w = args.workload;
    let seed = args.seed;
    let mut tr = Tracer::new();

    // Set-up outside every timed pass: the sequential reference (real
    // engine) and the modelled cluster rate of the same programs.
    let reference = w.shm().map(|s| s.reference(seed));
    if let Some(s) = w.shm() {
        println!(
            "working set {:.1} MiB per scheme (tile buffers, {}² grid) vs L3 {}",
            s.working_set_bytes() as f64 / (1u64 << 20) as f64,
            s.n,
            host.l3_text
        );
    }
    let run_pass = |tr: &mut Tracer, traced: bool| -> PassOut {
        match (w.sim(), w.shm()) {
            (Some((shape, diagnose)), _) => sim::pass(&shape, diagnose, seed, tr, traced, false),
            (_, Some(shape)) => shm::pass(
                &shape,
                seed,
                reference.as_deref().expect("reference"),
                tr,
                traced,
                false,
            ),
            _ => unreachable!("every workload is simulated or real"),
        }
    };

    let show = |p: &PassOut, what: &str| {
        println!(
            "pass {} {what} wall {:.4} s timed {:.4} s tasks/s {:.1} failed {}/{}",
            p.info.id,
            p.info.wall_s,
            p.timed_s,
            p.tasks / p.timed_s,
            p.failed,
            p.checks
        );
    };
    // A build without tile data takes microseconds, so the simulated
    // workloads sample it before every pass and report the median.
    let mut setup_samples: Vec<f64> = Vec::new();
    let sample_setup = |samples: &mut Vec<f64>| {
        if let Some((shape, _)) = w.sim() {
            samples.extend(sim::setup_times(&shape, seed, 40));
        }
    };
    sample_setup(&mut setup_samples);
    // The warm-up pass faults memory in and fills caches; its outputs are
    // checked, its time is not used.
    let warmup = run_pass(&mut tr, false);
    show(&warmup, "warm-up");

    // Untraced runs measure at least three passes for a median; traced
    // runs alternate traced and untraced passes, at least one of each.
    let min_passes = if args.trace { 2 } else { 3 };
    let start = Instant::now();
    let mut passes: Vec<PassOut> = Vec::new();
    while passes.len() < min_passes || start.elapsed().as_secs_f64() < args.seconds {
        let traced = args.trace && passes.len().is_multiple_of(2);
        sample_setup(&mut setup_samples);
        let p = run_pass(&mut tr, traced);
        show(&p, if traced { "traced" } else { "untraced" });
        passes.push(p);
    }

    let mut metrics = if args.trace {
        per_layer(w, seed, &host, &mut tr, &mut passes)
    } else {
        end_to_end(w, seed, &passes, &mut setup_samples)
    };
    if args.trace {
        write_spans(root, &args, &host, &tr);
    }

    let attempted: u32 = warmup.checks + passes.iter().map(|p| p.checks).sum::<u32>();
    let failed: u32 = warmup.failed + passes.iter().map(|p| p.failed).sum::<u32>();
    if !args.trace {
        metrics.insert(
            "correct_frac",
            (attempted - failed) as f64 / attempted as f64,
        );
    }
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let mut body = Vec::new();
    for (name, unit) in table {
        let v = *metrics
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} not measured"));
        assert!(v.is_finite(), "metric {name} is not finite: {v}");
        println!("metric {name:<30} {v:>16.6} {unit}");
        body.push(format!(
            "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
}

fn end_to_end(
    w: Workload,
    seed: u64,
    passes: &[PassOut],
    setup_samples: &mut [f64],
) -> BTreeMap<&'static str, f64> {
    let med = |f: &dyn Fn(&PassOut) -> f64| median(&mut passes.iter().map(f).collect::<Vec<_>>());
    let mut m = BTreeMap::new();
    m.insert("tasks_per_s", med(&|p| p.tasks / p.timed_s));
    m.insert("gflops", med(&|p| p.flops / p.timed_s / 1e9));
    match (w.sim(), w.shm()) {
        (Some(_), _) => {
            m.insert("sim_gflops_base", med(&|p| p.values["sim_gflops_base"]));
            m.insert("sim_gflops_ca", med(&|p| p.values["sim_gflops_ca"]));
            m.insert("setup_s", median(setup_samples));
        }
        (_, Some(shape)) => {
            let (base, ca) = shape.modelled_gflops(seed);
            m.insert("sim_gflops_base", base);
            m.insert("sim_gflops_ca", ca);
            m.insert("setup_s", med(&|p| p.setup_s));
        }
        _ => unreachable!(),
    }
    m.insert("peak_rss_mb", host::peak_rss_mb());
    m
}

/// Layer metrics of one pass: its spans' durations by name, combined
/// with the counts the pass observed.
fn pass_layer_metrics(p: &PassOut, tr: &Tracer) -> BTreeMap<&'static str, f64> {
    let mut m = p.values.clone();
    m.remove("sim_gflops_base");
    m.remove("sim_gflops_ca");
    let sums = tr.sums_by_name(p.info.id);
    let per_task = |s: f64, n: f64| s / n * 1e9;
    for (span, metric) in [
        ("core.build", "core.build_s"),
        ("unfold.enumerate", "unfold.s"),
        ("analyze.dag", "analyze.s"),
        ("insight.diagnose", "insight.diagnose_s"),
        ("insight.whatif_build", "insight.whatif_build_s"),
        ("insight.whatif_replay", "insight.whatif_replay_s"),
        ("obs.chrome", "obs.chrome_s"),
        ("obs.jsonl", "obs.jsonl_s"),
        ("obs.prom", "obs.prom_s"),
    ] {
        if let Some(&s) = sums.get(span) {
            m.insert(metric, s);
        }
    }
    if let (Some(&s), Some(&n)) = (sums.get("unfold.enumerate"), p.values.get("unfold.tasks")) {
        m.insert("unfold.ns_per_task", per_task(s, n));
    }
    if let (Some(&s), Some(&n)) = (sums.get("analyze.dag"), p.values.get("unfold.tasks")) {
        m.insert("analyze.ns_per_task", per_task(s, n));
    }
    if let Some(&s) = sums.get("sim_exec.run") {
        m.insert("sim.ns_per_task", per_task(s, p.tasks));
    }
    if let Some(&s) = sums.get("sim_exec.run_traced") {
        m.insert("sim.traced_ns_per_task", per_task(s, p.tasks));
    }
    if !p.info.probe {
        let self_time = tr.self_time_by_layer(p.info.id);
        let wall = p.info.wall_s;
        for layer in LAYERS {
            let share = self_time.get(layer).copied().unwrap_or(0.0) / wall;
            m.insert(share_name(layer), share);
        }
        m.insert(
            "unattributed_frac",
            self_time.get(PASS).copied().unwrap_or(0.0) / wall,
        );
    }
    m
}

fn share_name(layer: &str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|(n, _)| *n)
        .find(|n| n.strip_prefix("share.") == Some(layer))
        .expect("every layer has a share metric")
}

fn per_layer(
    w: Workload,
    seed: u64,
    host: &Host,
    tr: &mut Tracer,
    passes: &mut Vec<PassOut>,
) -> BTreeMap<&'static str, f64> {
    // Traced and untraced passes alternate; comparing each traced pass
    // with the untraced pass right after it cancels most host drift.
    let mut ratios: Vec<f64> = passes
        .chunks_exact(2)
        .map(|pair| pair[0].info.wall_s / pair[1].info.wall_s)
        .collect();
    let trace_overhead = median(&mut ratios) - 1.0;

    // The workload's own traced passes give each metric as a median.
    let primary: Vec<BTreeMap<&'static str, f64>> = passes
        .iter()
        .filter(|p| p.info.traced)
        .map(|p| pass_layer_metrics(p, tr))
        .collect();
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    for &name in primary[0].keys() {
        let mut vals: Vec<f64> = primary
            .iter()
            .filter_map(|p| p.get(name).copied())
            .collect();
        if vals.len() == primary.len() {
            m.insert(name, median(&mut vals));
        }
    }

    // Layers off the workload's path are measured by small probes, so
    // every metric is a measurement on every workload. Probe passes are
    // excluded from shares and from the unattributed fraction.
    let mut probes = Vec::new();
    if w.sim().is_some() {
        let shape = shm::PROBE;
        let reference = shape.reference(seed);
        probes.push(shm::pass(&shape, seed, &reference, tr, true, true));
    }
    if w != Workload::SimSweep {
        probes.push(sim::pass(&sim::PROBE, false, seed, tr, true, true));
    }
    if w != Workload::SimDiagnose {
        probes.push(sim::pass(&sim::PROBE, true, seed, tr, true, true));
    }
    for p in &probes {
        for (name, v) in pass_layer_metrics(p, tr) {
            m.entry(name).or_insert(v);
        }
    }
    passes.extend(probes);

    let threads = STREAM_THREADS;
    let stream = host::stream(host, threads);
    println!(
        "stream triad {:.2} GB/s on {threads} threads, arrays of {:.0} MiB each (L3 {}); kernel bytes are computed, not measured",
        stream.triad_gbs,
        stream.array_bytes as f64 / (1u64 << 20) as f64,
        host.l3_text
    );
    m.insert("machine.stream_triad_gbs", stream.triad_gbs);
    let per_thread_triad = stream.triad_gbs * 1e9 / threads as f64;
    let kernel_bytes = m
        .remove("core.kernel_bytes_per_busy_s")
        .expect("a real-engine pass ran");
    m.insert("core.kernel_stream_frac", kernel_bytes / per_thread_triad);
    m.insert("trace_overhead_frac", trace_overhead);
    m
}

fn write_spans(root: &Path, args: &Args, host: &Host, tr: &Tracer) {
    let dir = root.join("perfbench").join("out");
    let name = format!("spans-{:?}-seed{}.jsonl", args.workload, args.seed);
    let text = format!("{{\"host\":{}}}\n{}", host.to_json(), tr.to_jsonl());
    let written = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(dir.join(&name), text));
    match written {
        Ok(()) => println!("spans written to perfbench/out/{name}"),
        Err(e) => eprintln!("perfbench: could not write spans: {e}"),
    }
}
