//! `perfbench`: the repository's benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-cold|hot-repeat|write-mix --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. The benchmark builds `ppr` into the same
//! target directory, starts `ppr serve` as its own process on loopback
//! and drives it from one single-threaded load generator over one
//! connection (a closed loop). Every reply is checked against library
//! evaluation; `write-mix` also checks that the data dir the server
//! leaves recovers every acknowledged write.
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` replays a
//! fixed prefix of the same sequence to time each layer (see
//! `src/trace.rs`). Both print every metric by name and unit, save a
//! self-describing report under `perfbench/out/`, and end with one JSON
//! line: `{"correct", "attempted", "failed", "metrics"}`. The exit code is
//! 1 when a correctness or durability check failed and 2 when the run
//! could not be made.
//!
//! `cargo test --release --manifest-path perfbench/Cargo.toml` runs the
//! benchmark's own tests, among them the check that the traced run's
//! counters repeat exactly for a seed.

use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use perfbench::harness::Env;
use perfbench::report::Report;
use perfbench::stats::Json;
use perfbench::workload::{Kind, Workload};
use perfbench::{e2e, trace};

struct Args {
    workload: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload paper-cold|hot-repeat|write-mix \
                     --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(at + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let num = |flag: &str, v: String| -> Result<u64, String> {
        v.parse().map_err(|_| format!("bad value for {flag}: {v}"))
    };
    let name = get("--workload")?;
    let workload = Kind::parse(&name).ok_or(format!("unknown workload `{name}`"))?;
    let seed = num("--seed", get("--seed")?)?;
    let seconds = num("--seconds", get("--seconds")?)?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
    };
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Builds `ppr` into this binary's own target directory and returns it.
fn build_ppr(root: &Path) -> io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let profile_dir = exe.parent().ok_or_else(|| io::Error::other("no exe dir"))?;
    let target_dir = profile_dir
        .parent()
        .ok_or_else(|| io::Error::other("no target dir"))?;
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .current_dir(root)
        .env("CARGO_TARGET_DIR", target_dir)
        .args(["build", "--release", "--offline", "--quiet", "--bin", "ppr"])
        .stdout(Stdio::null())
        .status()?;
    if !status.success() {
        return Err(io::Error::other(format!("building ppr failed: {status}")));
    }
    Ok(profile_dir.join("ppr"))
}

fn git_commit(root: &Path) -> String {
    Command::new("git")
        .current_dir(root)
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}

fn os() -> String {
    let release = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    format!("{} {}", std::env::consts::OS, release.trim())
}

fn run(args: &Args, root: &Path) -> io::Result<(Report, Json)> {
    let ppr = build_ppr(root)?;
    let bench_dir = root.join("perfbench");
    let mode = if args.trace { "trace" } else { "e2e" };
    let tag = format!("{}-seed{}-{mode}", args.workload.name(), args.seed);
    let work = bench_dir
        .join(".work")
        .join(format!("{tag}-{}", std::process::id()));
    let out_dir = bench_dir.join("out");
    std::fs::create_dir_all(&out_dir)?;

    let workload = Workload::new(args.workload, args.seed);
    let window = workload.window;
    let result = Env::new(ppr, workload, work.clone()).and_then(|env| {
        let report = if args.trace {
            trace::run(
                &env,
                args.seconds,
                &out_dir.join(format!("{tag}-spans.jsonl")),
            )?
        } else {
            e2e::run(&env, args.seconds)?
        };
        Ok((report, env.reported_flags()))
    });
    let _ = std::fs::remove_dir_all(&work);
    let (report, flags) = result?;

    let mut context = Json::obj();
    context
        .set("workload", args.workload.name())
        .set("seed", args.seed)
        .set("seconds", args.seconds)
        .set("trace", args.trace)
        .set(
            "nproc",
            std::thread::available_parallelism().map_or(0, |n| n.get()),
        )
        .set("os", os())
        .set("git_commit", git_commit(root))
        .set("ppr_serve_flags", flags)
        .set("fsync", "off (--no-fsync) where --data-dir is set; WAL on")
        .set("load_generator_threads", 1usize)
        .set("connections", 1usize)
        .set("window", window);
    let saved = report.to_json(context.clone());
    std::fs::write(out_dir.join(format!("{tag}.json")), format!("{saved}\n"))?;
    Ok((report, context))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = match std::env::current_dir() {
        Ok(d) if d.join("perfbench").join("Cargo.toml").is_file() => d,
        _ => {
            eprintln!("run perfbench from the repository root");
            return ExitCode::from(2);
        }
    };
    let (report, context) = match run(&args, &root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{context}");
    for m in &report.metrics {
        let note = if m.gated { "" } else { ", reported only" };
        println!("  {} = {} {}  [{}{note}]", m.name, m.value, m.unit, m.basis);
    }
    println!(
        "  error_rate = {} fraction  [{} failed of {} attempted, reported only]",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    for p in &report.problems {
        println!("  PROBLEM: {p}");
    }
    println!("{}", report.result_line());
    if report.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
