//! Host context: the fingerprint printed with every result, peak resident
//! memory, and the STREAM triad measured in a child process.

use std::path::Path;
use std::process::Command;

pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    /// L3 size as `lscpu` reports it, bytes (0 when unknown).
    pub l3_bytes: u64,
    pub l3_text: String,
    pub rustc: String,
    pub profile: &'static str,
    pub commit: String,
    /// FNV-1a digest of the repository sources the benchmark builds, so
    /// a checkout without git history is still identified.
    pub source_digest: String,
}

impl Host {
    pub fn probe(root: &Path) -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let lscpu = run_text("lscpu", &[]);
        let l3_text = lscpu
            .lines()
            .find(|l| l.trim_start().starts_with("L3 cache:"))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        let rustc = run_text("rustc", &["--version"]).trim().to_string();
        let commit = run_text("git", &["-C", &root.to_string_lossy(), "rev-parse", "HEAD"])
            .trim()
            .to_string();
        Host {
            nproc,
            cpu_model,
            l3_bytes: parse_size(&l3_text),
            l3_text,
            rustc: if rustc.is_empty() {
                "unknown".into()
            } else {
                rustc
            },
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            commit: if commit.is_empty() {
                "none (not a git checkout)".into()
            } else {
                commit
            },
            source_digest: source_digest(root),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"cpu_model\":{},\"l3\":{},\"l3_bytes\":{},\"rustc\":{},\"build_profile\":{},\"commit\":{},\"source_digest\":{}}}",
            self.nproc,
            quote(&self.cpu_model),
            quote(&self.l3_text),
            self.l3_bytes,
            quote(&self.rustc),
            quote(self.profile),
            quote(&self.commit),
            quote(&self.source_digest),
        )
    }
}

fn run_text(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).into_owned())
        .unwrap_or_default()
}

/// `"300 MiB (1 instance)"` → bytes.
fn parse_size(text: &str) -> u64 {
    let mut it = text.split_whitespace();
    let (Some(num), Some(unit)) = (it.next(), it.next()) else {
        return 0;
    };
    let Ok(v) = num.parse::<f64>() else {
        return 0;
    };
    let scale = match unit {
        "KiB" | "K" => 1u64 << 10,
        "MiB" | "M" => 1 << 20,
        "GiB" | "G" => 1 << 30,
        _ => return 0,
    };
    (v * scale as f64) as u64
}

fn source_digest(root: &Path) -> String {
    let mut files = Vec::new();
    collect(&root.join("crates"), &mut files);
    files.push(root.join("Cargo.toml"));
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        for b in std::fs::read(&f).unwrap_or_default() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return;
    };
    for e in rd.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}

pub fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

fn mem_available_bytes() -> u64 {
    std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("MemAvailable:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

/// STREAM triad bandwidth and the array size it was measured with.
pub struct Stream {
    pub triad_gbs: f64,
    pub array_bytes: u64,
}

/// Flag that makes the benchmark binary act as the STREAM child.
pub const STREAM_CHILD: &str = "--stream-child";

/// Measure STREAM triad with `threads` threads in a child process, so
/// its arrays do not count towards the workload's peak memory. Each
/// array is at least 4× the L3 size; when the host has too little free
/// memory for that, the arrays shrink to fit and the reported size says
/// so.
pub fn stream(host: &Host, threads: usize) -> Stream {
    let want = (4 * host.l3_bytes).max(256 << 20);
    let fits = mem_available_bytes() / 2 / 3;
    let array_bytes = if fits > 0 { want.min(fits) } else { want };
    let n = (array_bytes / 8) as usize;
    let exe = std::env::current_exe().expect("own executable path");
    let out = Command::new(exe)
        .args([STREAM_CHILD, &threads.to_string(), &n.to_string()])
        .output()
        .expect("spawn STREAM child");
    assert!(out.status.success(), "STREAM child failed");
    let mbs: f64 = String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .expect("STREAM child prints triad MB/s");
    Stream {
        triad_gbs: mbs / 1e3,
        array_bytes: n as u64 * 8,
    }
}

/// Body of the STREAM child: run `machine::stream::run_stream` and print
/// the triad MB/s.
pub fn stream_child(threads: usize, n: usize) {
    let r = machine::stream::run_stream(threads, n, 3);
    println!("{}", r.kernel(machine::stream::StreamKernel::Triad));
}
